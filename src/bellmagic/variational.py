"""Variational maximization of Bell magic with a two-copy shift rule.

The derivative of the Bell outcome distribution with respect to a Pauli
rotation angle is an exact difference of two cross-copy distributions,

    d_k P(r) = 2v [P_x(theta + pi/(4v) e_k, theta)(r)
                   - P_x(theta - pi/(4v) e_k, theta)(r)],

where P_x(a, b) is the Bell distribution measured across |psi(a)> and
|psi(b)>.  B is quadratic in Q = P * P (XOR self-convolution), so by the
product rule the exact gradient is linear in d_k P,

    d_k B = <d_k P, h>,   h = -4 P * (Qhat o J),

with Qhat the Walsh-Hadamard transform of Q and J the (z, x) pair swap.
The kernel h depends only on the base state, so training computes it once
per epoch and each parameter then costs one inner product over 4^N
outcomes.  The sampled gradient estimates the same quantity from
measurement samples of the three settings (base, plus-shift, minus-shift).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import _distinct_tuples, estimate_bell_magic
from .magic import _pair_swapped, bell_magic_exact, fwht, q_distribution, xor_convolve
from .pauli import as_samples, symplectic_rows
from .simulator import (
    BellDistribution,
    CircuitSpec,
    bell_distribution,
    cross_bell_distribution,
    hardware_efficient_ansatz,
    overlap,
    sample,
    simulate,
)


def _check_param(circuit: CircuitSpec, k: int) -> None:
    if not 0 <= k < circuit.n_params:
        raise IndexError(f"parameter index {k} out of range")


def grad_p_shift(circuit: CircuitSpec, k: int, v: float = 0.5) -> np.ndarray:
    """Exact d_k P(r) over all 4^N outcomes via the two-copy shift rule.

    The cross distribution is sinusoidal in the shifted copy's angle, so the
    two-point rule with shift pi/(4v) carries coefficient 1/sin(pi/(4v)) for
    half-angle rotation generators; at the default v = 1/2 this is the usual
    factor 2v = 1.  Needs v > 1/4 so the shift stays below a half period.
    """
    _check_param(circuit, k)
    if v <= 0.25:
        raise ValueError("shift scale v must exceed 1/4")
    shift = np.pi / (4 * v)
    base = simulate(circuit)
    plus = simulate(circuit.shifted(k, shift))
    minus = simulate(circuit.shifted(k, -shift))
    p_plus = cross_bell_distribution(plus, base).probabilities
    p_minus = cross_bell_distribution(minus, base).probabilities
    return (p_plus - p_minus) / np.sin(shift)


def _gradient_kernel(p: BellDistribution) -> np.ndarray:
    # dB = <dP, h>: B is quadratic in Q = P*P and XOR convolution is self-adjoint
    qhat_j = _pair_swapped(fwht(q_distribution(p)), p.n_qubits)
    return -4.0 * xor_convolve(p.probabilities, qhat_j)


def grad_bell_magic_exact(circuit: CircuitSpec, k: int, v: float = 0.5) -> float:
    """Exact gradient of Bell magic for parameter k."""
    d = grad_p_shift(circuit, k, v)
    p = bell_distribution(simulate(circuit))
    return float(np.dot(d, _gradient_kernel(p)))


def gradient_finite_difference(circuit: CircuitSpec, k: int, step: float = 1e-5) -> float:
    """Central finite difference of exact Bell magic; test oracle."""
    _check_param(circuit, k)
    bp = bell_magic_exact(bell_distribution(simulate(circuit.shifted(k, step))))
    bm = bell_magic_exact(bell_distribution(simulate(circuit.shifted(k, -step))))
    return (bp.bell_magic - bm.bell_magic) / (2 * step)


def estimate_gradient(
    base_outcomes,
    plus_outcomes,
    minus_outcomes,
    n_resamples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Sampled Bell-magic gradient from the three shift-rule settings.

    `base_outcomes` comes from the unshifted two-copy measurement (three
    samples per trial are drawn from it without replacement), the other two
    from the plus/minus cross-copy settings; the same shifted sample index is
    reused in both half-estimates of a trial.
    """
    base = as_samples(base_outcomes)
    plus = as_samples(plus_outcomes)
    minus = as_samples(minus_outcomes)
    if len(plus) != len(minus):
        raise ValueError("plus/minus settings need equally many samples")
    if len(base) < 3:
        raise ValueError("need at least three base samples")
    rng = rng if rng is not None else np.random.default_rng()
    n_r = 10 * len(plus) if n_resamples is None else n_resamples
    triples = _distinct_tuples(len(base), n_r, 3, rng)
    ms = rng.integers(0, len(plus), size=n_r)
    left = base.words[triples[:, 0]] ^ base.words[triples[:, 1]]
    third = base.words[triples[:, 2]]
    vals_plus = 2.0 * symplectic_rows(left, third ^ plus.words[ms])
    vals_minus = 2.0 * symplectic_rows(left, third ^ minus.words[ms])
    return 4.0 * float(vals_plus.mean() - vals_minus.mean())


def qfim_diagonal(
    circuit: CircuitSpec,
    k: int,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Diagonal quantum-Fisher-metric entry 2(1 - |<psi(t)|psi(t + pi/2 e_k)>|^2).

    With `n_samples` the overlap is estimated from the SWAP-test parity of
    cross-copy Bell samples instead of the exact inner product.
    """
    _check_param(circuit, k)
    base = simulate(circuit)
    shifted = simulate(circuit.shifted(k, np.pi / 2))
    if n_samples is None:
        fidelity = abs(overlap(base, shifted)) ** 2
    else:
        rng = rng if rng is not None else np.random.default_rng()
        samples = sample(cross_bell_distribution(shifted, base), n_samples, rng)
        from .estimation import estimate_purity

        fidelity = estimate_purity(samples)
    return 2.0 * (1.0 - fidelity)


# ---------------------------------------------------------------------------
# Adam ascent


@dataclass
class TrainState:
    """Parameters, optimizer moments and the per-epoch magic history."""

    theta: np.ndarray
    epoch: int = 0
    history: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    learning_rate: float = 0.1
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    seed: int | None = None

    def best(self) -> float:
        return max(self.history) if self.history else -np.inf


def near_stabilizer_params(
    n_params: int, rng: np.random.Generator, amplitude: float = 0.05
) -> np.ndarray:
    """Multiples of pi/2 plus small uniform noise; close to a stabilizer state."""
    return (np.pi / 2) * rng.integers(0, 4, size=n_params) + rng.uniform(
        -amplitude, amplitude, size=n_params
    )


def optimize(
    circuit: CircuitSpec,
    epochs: int,
    learning_rate: float = 0.1,
    n_samples: int | None = None,
    n_resamples: int | None = None,
    rng: np.random.Generator | None = None,
    lr_decay: float = 1.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    seed: int | None = None,
) -> TrainState:
    """Adam ascent on Bell magic with shift-rule gradients (v = 1/2).

    n_samples = None uses exact gradients and exact per-epoch magic; else
    each epoch spends n_samples per measurement setting (2K + 3 settings)
    and the history records the sampled estimate.
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    k_params = circuit.n_params
    state = TrainState(
        theta=circuit.params.copy(),
        learning_rate=learning_rate,
        m=np.zeros(k_params),
        v=np.zeros(k_params),
        seed=seed,
    )
    lr = learning_rate
    for epoch in range(1, epochs + 1):
        circ = circuit.with_params(state.theta)
        base_state = simulate(circ)
        p = bell_distribution(base_state)
        if n_samples is None:
            state.history.append(bell_magic_exact(p).bell_magic)
            h = _gradient_kernel(p)
        else:
            base = sample(p, 3 * n_samples, rng)
            b_hat, _ = estimate_bell_magic(base, n_resamples, rng)
            state.history.append(b_hat)
        grad = np.empty(k_params)
        for k in range(k_params):
            plus = cross_bell_distribution(simulate(circ.shifted(k, np.pi / 2)), base_state)
            minus = cross_bell_distribution(simulate(circ.shifted(k, -np.pi / 2)), base_state)
            if n_samples is None:
                grad[k] = float(np.dot(plus.probabilities - minus.probabilities, h))
            else:
                plus_outcomes = sample(plus, n_samples, rng)
                minus_outcomes = sample(minus, n_samples, rng)
                grad[k] = estimate_gradient(base, plus_outcomes, minus_outcomes, n_resamples, rng)
        state.grad_norms.append(float(np.linalg.norm(grad)))
        state.m = beta1 * state.m + (1 - beta1) * grad
        state.v = beta2 * state.v + (1 - beta2) * grad**2
        m_hat = state.m / (1 - beta1**epoch)
        v_hat = state.v / (1 - beta2**epoch)
        state.theta = state.theta + lr * m_hat / (np.sqrt(v_hat) + eps)
        state.epoch = epoch
        lr *= lr_decay
    return state


def maximize_magic(
    n_qubits: int,
    depth: int = 6,
    epochs: int = 500,
    learning_rate: float = 0.1,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
    lr_decay: float = 1.0,
    seed: int | None = None,
) -> TrainState:
    """Near-stabilizer-initialized run of the layered ansatz."""
    rng = rng if rng is not None else np.random.default_rng()
    theta0 = near_stabilizer_params(2 * n_qubits * depth, rng)
    circuit = hardware_efficient_ansatz(n_qubits, depth, theta0)
    return optimize(
        circuit,
        epochs,
        learning_rate,
        n_samples=n_samples,
        rng=rng,
        lr_decay=lr_decay,
        seed=seed,
    )


def clifford_dressed_rotation(
    n_qubits: int, theta: float, depth: int, rng: np.random.Generator
) -> CircuitSpec:
    """One Ry(theta) on qubit 1 followed by a random layered Clifford."""
    from .stabilizer import random_clifford

    _, clifford = random_clifford(n_qubits, depth, rng)
    circuit = CircuitSpec(n_qubits)
    circuit.add("ry", 1, angle=theta)
    for g in clifford.gates:
        circuit.gates.append(g)
    return circuit


def trainability_experiment(
    n_qubits: int,
    n_draws: int,
    rng: np.random.Generator,
    depth: int = 4,
) -> tuple[float, float]:
    """Variance of the magic gradient over uniform angles and random Cliffords.

    Returns (variance, standard error of the variance estimate); the
    Clifford-dressed single-rotation ansatz has variance 1/2 independent of
    the qubit count.
    """
    grads = np.empty(n_draws)
    for i in range(n_draws):
        theta = rng.uniform(0, 2 * np.pi)
        circuit = clifford_dressed_rotation(n_qubits, theta, depth, rng)
        grads[i] = grad_bell_magic_exact(circuit, 0)
    var = float(np.var(grads))
    centered = (grads - grads.mean()) ** 2
    se = float(np.sqrt(max(np.var(centered), 0.0) / n_draws))
    return var, se
