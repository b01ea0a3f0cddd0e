"""Sample-based estimators for Bell magic, purity and depolarizing mitigation.

The core estimator resamples quadruples of measurement outcomes, XORs them
pairwise and averages the commutator norm of the two resulting Pauli
strings; the mean is an unbiased estimate of Bell magic.  Quadruples are
drawn without replacement within a trial and independently across trials;
with 3 or fewer outcomes they are drawn with replacement, and a separate
disjoint mode uses every outcome exactly once (the variant with an exact
Bernoulli error bar).

Purity comes for free from the same outcomes via the SWAP-test parity
tr(rho^2) = 1 - 2 P_odd, which calibrates a global-depolarizing model and
feeds the mitigation formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .magic import additive_magic, maximally_mixed_magic
from .pauli import BellSamples, and_parity_rows, symplectic_rows, unpack_zx

DEFAULT_RESAMPLE_FACTOR = 10  # n_resamples = 10 * n_outcomes is near-optimal


def _resample_count(n_resamples: int | None, n_outcomes: int) -> int:
    """The given trial count, checked to be at least 1, or 10 trials per outcome for None."""
    if n_resamples is None:
        return DEFAULT_RESAMPLE_FACTOR * n_outcomes
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    return n_resamples


def _distinct_tuples(m: int, n_trials: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform ordered `width`-tuples of distinct indices in [0, m), by rejection."""
    idx = rng.integers(0, m, size=(n_trials, width))
    while True:
        srt = np.sort(idx, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return idx
        idx[bad] = rng.integers(0, m, size=(int(bad.sum()), width))


def estimate_bell_magic(
    outcomes: BellSamples,
    n_resamples: int | None = None,
    rng: np.random.Generator | None = None,
    disjoint: bool = False,
    with_replacement: bool = False,
) -> tuple[float, float]:
    """Resampling estimate of (B, B_a) from Bell-measurement outcomes.

    Averages `n_resamples` quadruples (at least 1; 10 per outcome by
    default), or with `disjoint` every outcome once in m // 4 quadruples.
    `with_replacement` drops the distinct-index constraint on the quadruples
    (always the case for 3 or fewer outcomes); it lets the resampler probe
    overlapping index pairs, matching the all-pairs assumption behind the
    closed-form misclassification laws.
    """
    m = len(outcomes)
    if m < 1:
        raise ValueError("empty outcome list")
    rng = np.random.default_rng(rng)
    if disjoint:
        if m < 4:
            raise ValueError("disjoint mode needs at least 4 outcomes")
        quad = rng.permutation(m)[: 4 * (m // 4)].reshape(-1, 4)
    else:
        n_r = _resample_count(n_resamples, m)
        replace = m <= 3 or with_replacement
        quad = rng.integers(0, m, size=(n_r, 4)) if replace else _distinct_tuples(m, n_r, 4, rng)
    w = outcomes.words
    left = w[quad[:, 0]] ^ w[quad[:, 1]]
    right = w[quad[:, 2]] ^ w[quad[:, 3]]
    b_hat = 2.0 * float(symplectic_rows(left, right).mean())
    return b_hat, additive_magic(b_hat)


def estimate_purity(outcomes: BellSamples) -> float:
    """SWAP-test purity 1 - 2 P_odd from the per-pair AND parities."""
    if len(outcomes) < 1:
        raise ValueError("empty outcome list")
    return 1.0 - 2.0 * float(and_parity_rows(outcomes.words).mean())


def estimate_depolarization(purity_hat: float, n_qubits: int) -> float:
    """Depolarizing probability from a purity estimate (clamped to [0, 1]).

    Written in x = 2^-N rather than d = 2^N, so that it stays finite at any N.
    """
    x = 2.0**-n_qubits
    purity_hat = min(purity_hat, 1.0)
    if purity_hat <= x:
        return 1.0
    return 1.0 - math.sqrt((1 - x) * (purity_hat - x)) / (1 - x)


def noisy_purity(p: float, n_qubits: int) -> float:
    """tr(rho^2) of a pure state after depolarizing with probability p."""
    return (1 - p) ** 2 + p * (2 - p) * 2.0**-n_qubits


def sum_prob_squared(outcomes: BellSamples) -> float:
    """Unbiased collision estimate of sum_r P(r)^2."""
    m = len(outcomes)
    if m < 2:
        raise ValueError("need at least two outcomes")
    _, counts = np.unique(outcomes.words, axis=0, return_counts=True)
    return float((counts * (counts - 1)).sum() / (m * (m - 1)))


def empirical_distribution(outcomes: BellSamples) -> np.ndarray:
    """Histogram of outcomes over all 4^N indices (dense; small N only)."""
    return np.bincount(outcomes.indices(), minlength=4**outcomes.n_qubits) / len(outcomes)


@dataclass(frozen=True)
class MitigationResult:
    """Depolarizing-noise-corrected Bell magic, exact form and large-N form."""

    exact: float
    approx: float
    exact_clamped: float
    approx_clamped: float
    p: float
    p_quad: float


def mitigate(
    b_noisy: float, p_hat: float, sum_p_dp_sq: float, n_qubits: int
) -> MitigationResult:
    """Invert global depolarizing noise on a Bell-magic estimate.

    `sum_p_dp_sq` is sum_r P_dp(r)^2 of the noisy distribution (collision
    estimate or exact).  The exact form subtracts the mixed-state and cross
    contributions; the approximate form replaces both by 1, valid for many
    qubits.
    """
    if not 0.0 <= p_hat < 1.0:
        raise ValueError("mitigation needs a depolarizing estimate in [0, 1)")
    p_quad = 1.0 - (1.0 - p_hat) ** 4  # any of the four copies depolarized
    b_mixed = maximally_mixed_magic(n_qubits)
    b_cross = 1.0 - (sum_p_dp_sq - p_quad * 4.0**-n_qubits) / (1.0 - p_quad)
    exact = (b_noisy - p_quad**2 * b_mixed - 2 * p_quad * (1 - p_quad) * b_cross) / (
        (1 - p_quad) ** 2
    )
    approx = (b_noisy - p_quad * (2 - p_quad)) / (1 - p_quad) ** 2
    clamp = lambda v: float(min(max(v, 0.0), 2.0))
    return MitigationResult(exact, approx, clamp(exact), clamp(approx), p_hat, p_quad)


def std_bernoulli(b: float, n_outcomes: int) -> float:
    """Standard deviation of the disjoint-quadruple estimate, sqrt(8B/N (1-B/2))."""
    if not 0.0 <= b <= 2.0:
        raise ValueError("B must be in [0, 2]")
    return math.sqrt(8 * b / n_outcomes * (1 - b / 2))


def required_samples(delta_b: float, p_fail: float) -> int:
    """Hoeffding bound on the outcomes needed for error delta_b."""
    if delta_b <= 0 or not 0 < p_fail < 1:
        raise ValueError("need delta_b > 0 and p_fail in (0, 1)")
    return math.ceil(8 / delta_b**2 * math.log(2 / p_fail))


def mitigate_probabilities(p_noisy: np.ndarray, p_hat: float, n_qubits: int) -> np.ndarray:
    """Entrywise depolarizing inversion of an outcome distribution.

    Negative entries (possible under shot noise) are clipped to zero and the
    result renormalized.
    """
    if not 0.0 <= p_hat < 1.0:
        raise ValueError("mitigation needs a depolarizing estimate in [0, 1)")
    p_noisy = np.asarray(p_noisy, dtype=float)
    out = (p_noisy - p_hat * (2 - p_hat) / 4**n_qubits) / (1 - p_hat) ** 2
    out = np.clip(out, 0.0, None)
    return out / out.sum()


def _and_bit_fractions(samples: BellSamples) -> np.ndarray:
    """Per-qubit frequency of the AND bit (both copies measured 1)."""
    z, x = unpack_zx(samples.words, samples.n_qubits)
    return (z & x).mean(axis=0)


def estimate_meyer_wallach(outcomes: BellSamples, p_hat: float = 0.0) -> tuple[float, float]:
    """Raw and depolarizing-mitigated Meyer-Wallach measure from outcomes.

    Single-qubit purities come from the per-qubit SWAP-test parities,
    tr(rho_k^2) = 1 - 2 P_odd,k.
    """
    if outcomes.n_qubits < 2:
        raise ValueError("Meyer-Wallach measure needs at least 2 qubits")
    purities = 1.0 - 2.0 * _and_bit_fractions(outcomes)
    e_raw = 2.0 * (1.0 - float(purities.mean()))
    e_mtg = mitigate_meyer_wallach(e_raw, p_hat)
    return e_raw, e_mtg


def mitigate_meyer_wallach(e_noisy: float, p_hat: float) -> float:
    """Invert depolarizing noise on the Meyer-Wallach measure.

    Substituting rho_k -> (1-p) rho_k + p I/2 into the measure gives
    E_dp = (1-p)^2 E + p(2-p), which this inverts exactly.
    """
    if not 0.0 <= p_hat < 1.0:
        raise ValueError("mitigation needs a depolarizing estimate in [0, 1)")
    return (e_noisy - p_hat * (2 - p_hat)) / (1 - p_hat) ** 2


@dataclass
class EstimationResult:
    """Full per-run estimation record."""

    n_qubits: int
    n_outcomes: int
    n_resamples: int
    b_hat: float
    b_a_hat: float
    purity_hat: float
    p_hat: float
    b_mtg_exact: float | None
    b_mtg_approx: float | None
    std_plugin: float
    bootstrap_std: float | None = None


def estimate_magic(
    outcomes: BellSamples,
    rng: np.random.Generator | None = None,
    n_resamples: int | None = None,
    n_bootstrap: int = 0,
) -> EstimationResult:
    """One-stop pipeline: B estimate, purity, depolarizing fit, mitigation."""
    rng = np.random.default_rng(rng)
    m = len(outcomes)
    n_r = _resample_count(n_resamples, m)
    b_hat, b_a_hat = estimate_bell_magic(outcomes, n_r, rng)
    purity_hat = estimate_purity(outcomes)
    p_hat = estimate_depolarization(purity_hat, outcomes.n_qubits)
    sum_sq = sum_prob_squared(outcomes) if m >= 2 else 1.0
    if p_hat < 1.0:
        mtg = mitigate(b_hat, p_hat, sum_sq, outcomes.n_qubits)
        b_mtg_exact, b_mtg_approx = mtg.exact, mtg.approx
    else:
        b_mtg_exact = b_mtg_approx = None
    boot = None
    if n_bootstrap > 0 and p_hat < 1.0:
        vals = []  # each draw re-runs this pipeline on m outcomes picked with replacement
        for _ in range(n_bootstrap):
            draw = BellSamples(outcomes.n_qubits, outcomes.words[rng.integers(0, m, size=m)])
            b_mtg = estimate_magic(draw, rng, n_r).b_mtg_exact
            if b_mtg is not None:
                vals.append(b_mtg)
        boot = float(np.std(vals)) if vals else None
    return EstimationResult(
        n_qubits=outcomes.n_qubits,
        n_outcomes=m,
        n_resamples=n_r,
        b_hat=b_hat,
        b_a_hat=b_a_hat,
        purity_hat=purity_hat,
        p_hat=p_hat,
        b_mtg_exact=b_mtg_exact,
        b_mtg_approx=b_mtg_approx,
        std_plugin=std_bernoulli(min(b_hat, 2.0), m),
        bootstrap_std=boot,
    )
