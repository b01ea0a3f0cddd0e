"""Exact Bell magic and related measures computed from distributions/states.

Bell magic of a distribution P over 4^N outcomes is the probability-weighted
non-commutation of XOR-combined outcome pairs,

    B = sum_{n,q} Q(n) Q(q) ||[sigma_n, sigma_q]||_inf,
    Q(n) = sum_r P(r) P(r XOR n).

The fast path evaluates this in O(N 4^N) with Walsh-Hadamard transforms:
XOR convolutions diagonalize under the +-1 character transform, and the
anticommutation indicator is itself a character evaluated at the pair-swapped
index, giving B = 1 - sum_n Q(n) Qhat(J n) with J the (z, x) bit swap.
The transform is blocked: each memory pass applies a 16 x 16 Hadamard
matrix to four index bits as one GEMM (`simulator._wht`), and J is an axis
transpose of the (2, 2)^N view.  The O(16^N) double loop is retained as the
verification oracle.

All logarithms are base 2, so the additive quantities count injected
T-states: B_a(|T>^k tensored into any Clifford circuit) = k.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import swap_pair_words, zx_axis_order
from .simulator import BellDistribution, StateVector, _wht, bell_distribution

_ADDITIVE_OVERFLOW = 1e-15


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, W(a)[k] = sum_j (-1)^<k,j> a[j].

    Returns a new float array; `a` is left untouched.  The length must be a
    power of two.
    """
    a = np.asarray(a, dtype=float)
    size = a.size
    if a.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError(f"fwht needs a 1-D array whose length is a power of two, got {a.shape}")
    return _wht(a, size.bit_length() - 1)


def xor_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR (dyadic) convolution c[n] = sum_r a[r] b[r XOR n]."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    fa = fwht(a)
    fa *= fa if b is a else fwht(b)
    c = fwht(fa)
    c /= len(a)
    return c


def pair_swap_permutation(n_qubits: int) -> np.ndarray:
    """Index permutation J r swapping the (z, x) bits of every pair; oracle for `_pair_swapped`."""
    return swap_pair_words(np.arange(4**n_qubits, dtype=np.uint64)[:, None])[:, 0]


def _pair_swapped(v: np.ndarray, n_qubits: int) -> np.ndarray:
    """v[J r] over r: v with the (z, x) bits of every pair exchanged."""
    # the x axis of each pair moves into the z slot and vice versa
    axes = zx_axis_order(z_axes=range(1, 2 * n_qubits, 2), x_axes=range(0, 2 * n_qubits, 2))
    return v.reshape((2,) * (2 * n_qubits)).transpose(axes).reshape(-1)


def q_distribution(dist: BellDistribution) -> np.ndarray:
    """XOR self-convolution Q(n) = sum_r P(r) P(r XOR n)."""
    return xor_convolve(dist.probabilities, dist.probabilities)


def additive_magic(b: float) -> float:
    """-log2(1 - B), with +inf once 1 - B underflows."""
    if b >= 1.0 - _ADDITIVE_OVERFLOW:
        return np.inf
    return float(0.0 - np.log2(1.0 - b))  # B = 0 gives 0.0, where a negation gives -0.0


@dataclass(frozen=True)
class MagicValue:
    """Bell magic B in [0, 2] and its additive form -log2(1-B)."""

    bell_magic: float
    additive: float


def bell_magic_exact(dist: BellDistribution) -> MagicValue:
    """Exact Bell magic of a distribution via the fast transform path."""
    q = q_distribution(dist)
    b = max(1.0 - float(np.dot(q, _pair_swapped(fwht(q), dist.n_qubits))), 0.0)
    return MagicValue(b, additive_magic(b))


def bell_magic_brute(dist: BellDistribution) -> MagicValue:
    """O(16^N) double-loop evaluation; the oracle for the fast path (N <= 3)."""
    if dist.n_qubits > 3:
        raise ValueError("brute-force oracle is limited to 3 qubits")
    q = q_distribution(dist)
    idx = np.arange(4**dist.n_qubits, dtype=np.uint64)
    j = pair_swap_permutation(dist.n_qubits)
    anti = np.bitwise_count(idx[:, None] & j[None, :]) & 1
    b = float(q @ (2 * anti) @ q)
    return MagicValue(b, additive_magic(b))


def bell_magic_of_state(state: StateVector) -> MagicValue:
    return bell_magic_exact(bell_distribution(state))


def mixed_bell_magic(b: float, purity: float) -> tuple[float, float]:
    """Mixed Bell magic 1 - (1-B)/purity^2 and its additive form."""
    if purity <= 0:
        raise ValueError("purity must be positive")
    bm = 1.0 - (1.0 - b) / purity**2
    bam = additive_magic(b) + 2 * np.log2(purity)
    return bm, bam


def product_state_magic(thetas, phis) -> float:
    """Closed-form additive Bell magic of a product of single-qubit states."""
    thetas, phis = np.atleast_1d(thetas), np.atleast_1d(phis)
    if thetas.shape != phis.shape:
        raise ValueError("angle vectors must have equal length")
    s2 = np.sin(thetas) ** 2
    inner = 35 + 28 * np.cos(2 * thetas) + np.cos(4 * thetas) - 8 * np.cos(4 * phis) * s2**2
    return float(-np.sum(np.log2(1 - s2 * inner / 32)))


def pure_state_bound(n_qubits: int) -> float:
    """Upper bound on the Bell magic of any pure N-qubit state."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    a, b = 2.0**-n_qubits, 4.0**-n_qubits
    return 4**n_qubits * (1 + a - 2 * b) ** 2 / ((4**n_qubits - 1) * (1 + a) ** 2)


def maximally_mixed_magic(n_qubits: int) -> float:
    """Bell magic of I/2^N, the maximum over all states: 1 - 4^-N."""
    return 1.0 - 4.0**-n_qubits


def stabilizer_renyi(dist: BellDistribution) -> tuple[float, float]:
    """Stabilizer 2-Renyi entropy and linear stabilizer entropy from P.

    M2 = -log2(2^N sum_r P(r)^2), M_lin = 1 - 2^N sum_r P(r)^2.
    """
    s = float(np.dot(dist.probabilities, dist.probabilities))
    scaled = 2**dist.n_qubits * s
    return float(-np.log2(scaled)), float(1.0 - scaled)


def meyer_wallach(state: StateVector) -> float:
    """Global entanglement 2(1 - avg_k tr(rho_k^2)) from single-qubit purities."""
    n = state.n_qubits
    if n < 2:
        raise ValueError("Meyer-Wallach measure needs at least 2 qubits")
    t = state.amplitudes.reshape((2,) * n)
    purities = []
    for k in range(n):
        m = np.moveaxis(t, k, 0).reshape(2, -1)
        rho = m @ m.conj().T
        purities.append(float(np.trace(rho @ rho).real))
    return 2.0 * (1.0 - float(np.mean(purities)))


def haar_average_meyer_wallach(n_qubits: int) -> float:
    """(2^N - 2)/(2^N + 1), exact Haar (and random-stabilizer) average."""
    d = 2**n_qubits
    return (d - 2) / (d + 1)


def sample_haar_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(n_qubits, v / np.linalg.norm(v))
