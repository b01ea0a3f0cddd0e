"""Exact Bell magic and related measures computed from distributions/states.

Bell magic of a distribution P over 4^N outcomes is the probability-weighted
non-commutation of XOR-combined outcome pairs,

    B = sum_{n,q} Q(n) Q(q) ||[sigma_n, sigma_q]||_inf,
    Q(n) = sum_r P(r) P(r XOR n).

The fast path evaluates this in O(N 4^N) with Walsh-Hadamard transforms:
XOR convolutions diagonalize under the +-1 character transform, and the
anticommutation indicator is itself a character evaluated at the pair-swapped
index, giving B = 1 - sum_n Q(n) Qhat(J n) with J the (z, x) bit swap.
Each pass of the transform applies a 16 x 16 Hadamard matrix to four index
bits as GEMMs of at most 2^15 floats each (`simulator._wht`), which OpenBLAS
runs in its small-matrix kernel without packing.  Above 2^16 entries `fwht`
applies `_wht`'s leading groups of four bits with one output buffer: each
leading pass multiplies every (16, -1) batch of the (2^k, 16, -1) view from
the left by H_4, 2^11 columns at a time; the first reads the input into the
buffer, later ones work in place through one 16 x 2^11 spare (256 KB).  It
then finishes every contiguous 2^16-entry (512 KB) chunk in L2 cache; at
4^12 two of the six passes go over the whole array.  In a sweep of 2^12
to 2^18 entries on a 2-vCPU Xeon with one BLAS thread, 2^14 to 2^17
timed alike, while 4^11 took 1.4 to 2 times as long with the smaller and
larger chunks, which leave one more whole-array pass.  The groups and
their order are `_wht`'s and each slice computes the same 16-term sums,
so every sum is rounded as in one whole-length GEMM per pass and the
output is bit-identical.  J is applied in place on the transform's output
(`_swap_pairs`): chunks of 4^8 entries trade places by their high pairs
and are gathered through one cached 4^8-entry index of their low pairs.
So `fwht` holds one 4^N array besides its input, and `bell_magic_exact`
two besides P.  The O(16^N) double loop that the tests check B against
lives in `tests/oracles.py`.

All logarithms are base 2, so the additive quantities count injected
T-states: B_a(|T>^k tensored into any Clifford circuit) = k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .pauli import swap_pair_words
from .simulator import (
    _GEMM_FLOATS,
    BellDistribution,
    StateVector,
    _hadamard,
    _wht,
    bell_distribution,
)

_ADDITIVE_OVERFLOW = 1e-15
_FWHT_CHUNK_BITS = 16  # `fwht` finishes each contiguous run of 2^16 entries in cache
_SWAP_CHUNK_PAIRS = 8  # `_swap_pairs` gathers 4^8-entry (512 KB) chunks


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, W(a)[k] = sum_j (-1)^<k,j> a[j].

    Returns a new float array; `a` is left untouched.  The length must be a
    power of two.
    """
    a = np.asarray(a, dtype=float)
    size = a.size
    if a.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError(f"fwht needs a 1-D array whose length is a power of two, got {a.shape}")
    m = size.bit_length() - 1
    hi = 4 * -(-max(m - _FWHT_CHUNK_BITS, 0) // 4)  # leading bits, in _wht's groups of four
    if not hi:
        return _wht(a, m)
    # _wht's first hi / 4 passes, each H_4 from the left on every (16, -1) batch,
    # which leaves the index order as it is, 2^11 columns per GEMM so that each
    # stays small (`_GEMM_FLOATS`): the first reads `a` into `out`, later ones
    # work in place through one 16 x 2^11 spare
    out, h = np.empty(size), _hadamard(4)
    spare = np.empty((16, _GEMM_FLOATS >> 4))
    w = spare.shape[1]
    first, dest = a.reshape(16, -1), out.reshape(16, -1)
    for s in range(0, dest.shape[1], w):
        np.matmul(h, first[:, s : s + w], out=dest[:, s : s + w])
    for k in range(4, hi, 4):
        for batch in out.reshape(2**k, 16, -1):
            for s in range(0, batch.shape[1], w):
                np.matmul(h, batch[:, s : s + w], out=spare)
                batch[:, s : s + w] = spare
    for chunk in out.reshape(-1, 2 ** (m - hi)):  # then the low m - hi bits, a chunk at a time
        r = _wht(chunk, m - hi, scratch=chunk)
        if r is not chunk:
            chunk[:] = r
    return out


def xor_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """XOR (dyadic) convolution c[n] = sum_r a[r] b[r XOR n]."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    fa = fwht(a)
    fa *= fa if b is a else fwht(b)
    c = fwht(fa)
    c /= len(a)
    return c


@cache
def _pair_swap_index(n_pairs: int) -> np.ndarray:
    """J r for r < 4^n_pairs, as an index array."""
    j = swap_pair_words(np.arange(4**n_pairs, dtype=np.uint64)).astype(np.intp)
    j.setflags(write=False)
    return j


def _swap_pairs(v: np.ndarray, n_qubits: int) -> None:
    """v[r] <- v[J r] in place: the (z, x) bits of every pair exchanged.

    The 4^`_SWAP_CHUNK_PAIRS`-entry chunks trade places by their high pairs,
    each gathered through one cached index of its low pairs on the way.
    """
    lo = min(n_qubits, _SWAP_CHUNK_PAIRS)
    chunks, j = v.reshape(-1, 4**lo), _pair_swap_index(lo)
    for h, jh in enumerate(_pair_swap_index(n_qubits - lo)):
        if h == jh:
            chunks[h] = chunks[h][j]
        elif h < jh:
            chunks[h], chunks[jh] = chunks[jh][j], chunks[h][j]


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
    qhat = fwht(q)
    _swap_pairs(qhat, dist.n_qubits)
    # numpy's own loop: a BLAS ddot splits long sums across threads, so its
    # rounding, and the CSV bytes, would depend on the BLAS thread count
    b = max(1.0 - float(np.einsum("i,i->", q, qhat)), 0.0)
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
    return (1 + a - 2 * b) ** 2 / ((1 - b) * (1 + a) ** 2)


def maximally_mixed_magic(n_qubits: int) -> float:
    """Bell magic of I/2^N, the maximum over all states: 1 - 4^-N."""
    return 1.0 - 4.0**-n_qubits


def stabilizer_renyi(dist: BellDistribution) -> tuple[float, float]:
    """Stabilizer 2-Renyi entropy and linear stabilizer entropy from P.

    M2 = -log2(2^N sum_r P(r)^2), M_lin = 1 - 2^N sum_r P(r)^2.
    """
    p = dist.probabilities
    s = float(np.einsum("i,i->", p, p))  # not np.dot, as in bell_magic_exact
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
