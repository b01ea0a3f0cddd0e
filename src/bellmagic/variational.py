"""Variational maximization of Bell magic with a two-copy shift rule.

The derivative of the Bell outcome distribution with respect to a Pauli
rotation angle is an exact difference of two cross-copy distributions,

    d_k P(r) = 2v [P_x(theta + pi/(4v) e_k, theta)(r)
                   - P_x(theta - pi/(4v) e_k, theta)(r)],

where P_x(a, b) is the Bell distribution measured across |psi(a)> and
|psi(b)>; the library uses v = 1/2, a shift of pi/2.  B is quadratic in
Q = P * P (XOR self-convolution), so by the product rule the exact
gradient is linear in d_k P,

    d_k B = <d_k P, h>,   h = -4 P * (Qhat o J),

with Qhat the Walsh-Hadamard transform of Q and J the (z, x) pair swap.
The kernel h depends only on the base state, so training computes it once
per epoch and each parameter then costs one inner product over 4^N
outcomes.  The sampled gradient estimates the same quantity from
measurement samples of the three settings (base, plus-shift, minus-shift).

`_exact_gradient` is the one exact path: it simulates the 2K circuits
shifted by +-pi/2 as one (2K, 2^N) batch and Bell-transforms them against
the base state in one batched gather + Walsh-Hadamard pass, O(G K 2^N +
K N 4^N) work for G gates.  Exact training and the trainability experiment
both call it; sampled training simulates the same batch and builds each
row's cross distribution in turn.  The per-parameter shift rule and the
finite difference it is checked against live in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import _distinct_tuples, _resample_count, estimate_bell_magic, estimate_purity
from .magic import _pair_swapped, bell_magic_exact, fwht
from .pauli import BellSamples, symplectic_rows
from .simulator import (
    BellDistribution,
    CircuitSpec,
    Gate,
    StateVector,
    _cross_bell_dots,
    _simulate_rows,
    bell_distribution,
    cross_bell_distribution,
    hardware_efficient_ansatz,
    overlap,
    sample,
    simulate,
)
from .stabilizer import random_clifford


def _gradient_kernel(p: BellDistribution) -> np.ndarray:
    # dB = <dP, h>: B is quadratic in Q = P*P and XOR convolution is self-adjoint;
    # Qhat = Phat^2, so h = -4 W(Phat . W(J Phat^2)) / 4^N takes three transforms
    phat = fwht(p.probabilities)
    return -4.0 / len(phat) * fwht(phat * fwht(_pair_swapped(phat * phat, p.n_qubits)))


def _exact_gradient(
    circuit: CircuitSpec, base_state: StateVector, p: BellDistribution
) -> np.ndarray:
    """All K components of the exact Bell-magic gradient by the two-copy shift rule.

    `base_state` is `simulate(circuit)` and `p` its Bell distribution, which
    both callers hold already.  The 2K circuits shifted by +-pi/2 run through
    one gate loop over a (2K, 2^N) array; one gather + Walsh-Hadamard pass
    over those rows against the base state, in blocks of about 2^16 complex
    entries, reduces each block of cross distributions against the kernel h
    at once, d_k B = (P_+k - P_-k) . h.  That costs O(G K 2^N) for the G
    gates plus O(K N 4^N) for the transforms, in O(4^N) memory.
    """
    shifted = _simulate_rows(circuit, _shifted_rows(circuit.params, np.pi / 2))
    dots = _cross_bell_dots(shifted, base_state, _gradient_kernel(p))
    return dots[0::2] - dots[1::2]


def estimate_gradient(
    base_outcomes: BellSamples,
    plus_outcomes: BellSamples,
    minus_outcomes: BellSamples,
    n_resamples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Sampled Bell-magic gradient from the three shift-rule settings.

    `base_outcomes` comes from the unshifted two-copy measurement (three
    samples per trial are drawn from it without replacement), the other two
    from the plus/minus cross-copy settings; the same shifted sample index is
    reused in both half-estimates of a trial.
    """
    if len(plus_outcomes) != len(minus_outcomes):
        raise ValueError("plus/minus settings need equally many samples")
    if len(plus_outcomes) < 1:
        raise ValueError("plus/minus settings need at least one sample each")
    if len(base_outcomes) < 3:
        raise ValueError("need at least three base samples")
    rng = np.random.default_rng(rng)
    n_r = _resample_count(n_resamples, len(plus_outcomes))
    triples = _distinct_tuples(len(base_outcomes), n_r, 3, rng)
    ms = rng.integers(0, len(plus_outcomes), size=n_r)
    base = base_outcomes.words
    left = base[triples[:, 0]] ^ base[triples[:, 1]]
    third = base[triples[:, 2]]
    vals_plus = 2.0 * symplectic_rows(left, third ^ plus_outcomes.words[ms])
    vals_minus = 2.0 * symplectic_rows(left, third ^ minus_outcomes.words[ms])
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
    shifted = simulate(circuit.shifted(k, np.pi / 2))
    base = simulate(circuit)
    if n_samples is None:
        fidelity = abs(overlap(base, shifted)) ** 2
    else:
        rng = np.random.default_rng(rng)
        samples = sample(cross_bell_distribution(shifted, base), n_samples, rng)
        fidelity = estimate_purity(samples)
    return 2.0 * (1.0 - fidelity)


# ---------------------------------------------------------------------------
# Adam ascent

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam moment decays and denominator guard


@dataclass
class TrainState:
    """Parameters, optimizer moments and the per-epoch magic history."""

    theta: np.ndarray
    epoch: int = 0
    history: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def best(self) -> float:
        return max(self.history) if self.history else -np.inf


_NEAR_STABILIZER_NOISE = 0.05  # half-width of the uniform noise on each angle


def near_stabilizer_params(n_params: int, rng: np.random.Generator) -> np.ndarray:
    """Multiples of pi/2 plus small uniform noise; close to a stabilizer state."""
    return (np.pi / 2) * rng.integers(0, 4, size=n_params) + rng.uniform(
        -_NEAR_STABILIZER_NOISE, _NEAR_STABILIZER_NOISE, size=n_params
    )


def _shifted_rows(theta: np.ndarray, shift: float) -> np.ndarray:
    """(2K, K) parameter rows theta + shift e_k, theta - shift e_k, interleaved in k order."""
    k = np.arange(len(theta))
    rows = np.repeat(theta[None], 2 * len(theta), axis=0)
    rows[2 * k, k] += shift
    rows[2 * k + 1, k] -= shift
    return rows


def optimize(
    circuit: CircuitSpec,
    epochs: int,
    learning_rate: float = 0.1,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
    lr_decay: float = 1.0,
) -> TrainState:
    """Adam ascent on Bell magic with shift-rule gradients (v = 1/2).

    Each epoch simulates the base circuit, takes its Bell distribution P,
    and then runs all 2K shifted circuits (theta +- pi/2 e_k) through one
    gate loop over a (2K, 2^N) array.  n_samples = None uses exact
    per-epoch magic and `_exact_gradient`.  Otherwise each epoch spends
    n_samples per measurement setting (2K + 3 settings), drawn in the order
    base, then plus_k and minus_k for each k from that row's
    `cross_bell_distribution`, and the history records the sampled
    estimate.  A step that leaves a parameter non-finite (a learning rate
    grown past the float range) raises FloatingPointError.
    """
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    rng = np.random.default_rng(rng)
    k_params = circuit.n_params
    state = TrainState(theta=circuit.params.copy(), m=np.zeros(k_params), v=np.zeros(k_params))
    lr = learning_rate
    for epoch in range(1, epochs + 1):
        circ = circuit.with_params(state.theta)
        base_state = simulate(circ)
        p = bell_distribution(base_state)
        if n_samples is None:
            state.history.append(bell_magic_exact(p).bell_magic)
            grad = _exact_gradient(circ, base_state, p)
        else:
            base = sample(p, 3 * n_samples, rng)
            b_hat, _ = estimate_bell_magic(base, rng=rng)
            state.history.append(b_hat)
            shifted = _simulate_rows(circ, _shifted_rows(state.theta, np.pi / 2))
            grad = np.empty(k_params)
            for k in range(k_params):  # rows plus_0, minus_0, plus_1, ...
                plus = StateVector(circ.n_qubits, shifted[2 * k])
                minus = StateVector(circ.n_qubits, shifted[2 * k + 1])
                plus_outcomes = sample(cross_bell_distribution(plus, base_state), n_samples, rng)
                minus_outcomes = sample(cross_bell_distribution(minus, base_state), n_samples, rng)
                grad[k] = estimate_gradient(base, plus_outcomes, minus_outcomes, rng=rng)
        state.grad_norms.append(float(np.linalg.norm(grad)))
        state.m = _BETA1 * state.m + (1 - _BETA1) * grad
        state.v = _BETA2 * state.v + (1 - _BETA2) * grad**2
        m_hat = state.m / (1 - _BETA1**epoch)
        v_hat = state.v / (1 - _BETA2**epoch)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            state.theta = state.theta + lr * m_hat / (np.sqrt(v_hat) + _EPS)
        if not np.isfinite(state.theta).all():
            raise FloatingPointError(f"Adam step left non-finite parameters at epoch {epoch}")
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
) -> TrainState:
    """Near-stabilizer-initialized run of the layered ansatz."""
    rng = np.random.default_rng(rng)
    theta0 = near_stabilizer_params(2 * n_qubits * depth, rng)
    circuit = hardware_efficient_ansatz(n_qubits, depth, theta0)
    return optimize(circuit, epochs, learning_rate, n_samples=n_samples, rng=rng,
                    lr_decay=lr_decay)


def clifford_dressed_rotation(
    n_qubits: int, theta: float, depth: int, rng: np.random.Generator
) -> CircuitSpec:
    """One Ry(theta) on qubit 1 followed by a random layered Clifford."""
    _, clifford = random_clifford(n_qubits, depth, rng)
    return CircuitSpec(n_qubits, [Gate("ry", (1,))] + clifford.gates, [theta])


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
        base = simulate(circuit)
        grads[i] = _exact_gradient(circuit, base, bell_distribution(base))[0]
    var = float(np.var(grads))
    centered = (grads - grads.mean()) ** 2
    se = float(np.sqrt(max(np.var(centered), 0.0) / n_draws))
    return var, se
