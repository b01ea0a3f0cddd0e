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
per epoch.  The sampled gradient estimates <d_k P, h> from measurement
samples of the three settings (base, plus-shift, minus-shift).

`_exact_gradient` is the one exact path, and it takes every component from
one adjoint sweep (Jones & Gacon, arXiv:2009.02823) in place of the 2K
shifted circuits.  For a fixed copy B = psi the cross distribution is a
quadratic form, P_x(a, psi)(r) = |<u_r|a>|^2, so <P_x(a, psi), h> =
<a|M|a> with M = sum_r h(r) |u_r><u_r|; as P_x is symmetric in its two
copies, d_k B = 4 Re <lambda| d_k psi> with lambda = M psi.  One Bell
transform applies M, and one reverse pass over the gates reads every
<lambda| d_k psi>: O(G 2^N + N 4^N) work for G gates, in O(4^N) memory.
Exact training and the trainability experiment both call it.  Sampled
training keeps the physical protocol, sampling each shifted state's cross
distribution in turn; one forward walk gives the 2K shifted states as
(psi -+ i phi_k)/sqrt(2).  The per-parameter shift rule, the batched
shift-rule gradient and the finite difference live in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import (
    _distinct_tuples,
    _quadruple_mean,
    _resample_count,
    estimate_bell_magic,
    estimate_purity,
)
from .magic import _swap_pairs, bell_magic_exact, fwht
from .pauli import BellSamples
from .simulator import (
    BellDistribution,
    CircuitSpec,
    Gate,
    StateVector,
    _bell_form,
    _check_depth,
    _generator_overlaps,
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
    t = phat * phat
    _swap_pairs(t, p.n_qubits)
    t = fwht(t)
    t *= phat
    del phat  # so at most three 4^N arrays are live at once
    h = fwht(t)
    h *= -4.0 / len(h)
    return h


def _exact_gradient(
    circuit: CircuitSpec, base_state: StateVector, p: BellDistribution
) -> np.ndarray:
    """All K components of the exact Bell-magic gradient from one adjoint sweep.

    `base_state` is `simulate(circuit)` and `p` its Bell distribution, which
    both callers hold already.  lambda = M psi comes from one Bell transform
    (`simulator._bell_form`), and the reverse gate pass
    (`simulator._generator_overlaps`) gives <lambda_k| sigma_k |psi_k> at
    each rotation exp(-i t sigma_k / 2), so d_k B = 4 Re <lambda| (-i/2)
    sigma_k psi> = 2 Im <lambda_k| sigma_k |psi_k>.
    """
    psi = base_state.amplitudes
    lam = _bell_form(psi, _gradient_kernel(p), circuit.n_qubits)
    return 2.0 * _generator_overlaps(circuit, psi, lam).imag


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
    # quadruples (a, b, c, m) over the base, plus and minus rows stacked in that order
    words = np.concatenate([base_outcomes.words, plus_outcomes.words, minus_outcomes.words])
    quad = np.column_stack([triples, len(base_outcomes) + ms])
    vals_plus = _quadruple_mean(words, quad)
    quad[:, 3] += len(plus_outcomes)
    return 4.0 * (vals_plus - _quadruple_mean(words, quad))


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


def optimize(
    circuit: CircuitSpec,
    epochs: int,
    learning_rate: float = 0.1,
    n_samples: int | None = None,
    rng: np.random.Generator | None = None,
    lr_decay: float = 1.0,
) -> TrainState:
    """Adam ascent on Bell magic: exact adjoint gradients, or sampled shift-rule ones (v = 1/2).

    Each epoch simulates the base circuit and takes its Bell distribution
    P.  n_samples = None uses exact per-epoch magic and `_exact_gradient`.
    Otherwise the states shifted by +-pi/2 at parameter k are
    (psi -+ i phi_k)/sqrt(2) from one walk, and the epoch spends n_samples
    per setting (2K + 3), drawn in the order base, then plus_k and minus_k
    for each k from their `cross_bell_distribution`s; the history records
    the sampled estimate.  A step that leaves a parameter non-finite (a
    learning rate grown past the float range) raises FloatingPointError.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if lr_decay < 0:
        raise ValueError(f"learning-rate decay must be non-negative, got {lr_decay}")
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
            psi = base_state.amplitudes
            grad = np.empty(k_params)
            for k, phi in enumerate(_simulate_rows(circ, directions=True)[1:]):
                plus = StateVector(circ.n_qubits, (psi - 1j * phi) / np.sqrt(2))
                minus = StateVector(circ.n_qubits, (psi + 1j * phi) / np.sqrt(2))
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
    _check_depth(depth)
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
    the qubit count.  Needs at least two draws.
    """
    if n_draws < 2:
        raise ValueError(f"need at least two draws, got {n_draws}")
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
