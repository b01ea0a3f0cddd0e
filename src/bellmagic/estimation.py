"""Sample-based estimators for Bell magic, purity and depolarizing mitigation.

The core estimator averages, over quadruples of measurement outcomes, the
commutator norm of the two Pauli strings their pairwise XORs give; the
mean is an unbiased estimate of Bell magic.  Four ways of choosing the
quadruples (`QUADRUPLES`):

- "resample" draws them independently across trials, without replacement
  within a trial (with replacement for 3 or fewer outcomes);
- "disjoint" uses every outcome exactly once (the variant with an exact
  Bernoulli error bar);
- "distinct" takes the exact mean over every ordered quadruple of distinct
  outcomes (the U-statistic B_U, the mean of "resample" given the
  outcomes), and "all" over every ordered quadruple drawn with replacement
  (the V-statistic B_V).  Both come from one M x M sign Gram matrix and one
  matrix product, M^3 work, so they take at most `EXHAUSTIVE_CAP` outcomes
  and draw nothing from the generator.

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
QUADRUPLES = ("resample", "disjoint", "distinct", "all")
# the exhaustive modes cost M^3 and keep every partial sum below M^4 <= 2^44 < 2^53
EXHAUSTIVE_CAP = 2048
_GRAM_BLOCK_WORDS = 1 << 20  # packed words per row block of the sign Gram matrix (8 MB)
_QUAD_BLOCK_WORDS = 1 << 14  # packed words per gathered quadruple side (128 KB)


def _resample_count(n_resamples: int | None, n_outcomes: int) -> int:
    """The given trial count, checked to be at least 1, or 10 trials per outcome for None."""
    if n_resamples is None:
        return DEFAULT_RESAMPLE_FACTOR * n_outcomes
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be at least 1, got {n_resamples}")
    return n_resamples


def _distinct_tuples(m: int, n_trials: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform ordered `width`-tuples of distinct indices in [0, m), by rejection.

    A row is redrawn when any two of its entries are equal, found by the
    width (width - 1) / 2 column comparisons.
    """
    idx = rng.integers(0, m, size=(n_trials, width))
    rows, cols = np.arange(n_trials), idx.T  # rows still to check; accepted rows never change
    while len(rows):
        repeated = np.zeros(len(rows), dtype=bool)
        for i in range(1, width):
            for k in range(i):
                repeated |= cols[i] == cols[k]
        rows = rows[repeated]
        idx[rows] = rng.integers(0, m, size=(len(rows), width))
        cols = idx[rows].T
    return idx


def _quadruple_mean(w: np.ndarray, quad: np.ndarray) -> float:
    """Mean of 2<s_a ^ s_b, s_c ^ s_d> over the rows (a, b, c, d) of quad.

    The quadruples go in blocks of `_QUAD_BLOCK_WORDS` gathered words a side,
    so memory stays bounded at any count.  The anticommuting count is an
    exact integer, so the mean is the unblocked mean to the last bit.
    """
    step = max(1, _QUAD_BLOCK_WORDS // w.shape[1])
    count = 0
    for i in range(0, len(quad), step):
        a, b, c, d = quad[i : i + step].T
        left, right = w[a], w[c]
        left ^= w[b]
        right ^= w[d]
        count += int(symplectic_rows(left, right).sum())
    return 2.0 * (count / len(quad))


def _all_quadruples_mean(w: np.ndarray, distinct: bool) -> float:
    """Exact mean of 2<s_a ^ s_b, s_c ^ s_d> over every ordered quadruple of rows of w.

    With the sign Gram matrix S_ij = (-1)^<s_i, s_j> (S_ii = 1) each term is
    1 - S_ac S_ad S_bc S_bd, and with G = S S the sum over all quadruples is
    sum_ab G_ab^2.  Over distinct indices, for a != b the c outside {a, b}
    sum to H_ab = G_ab - 2 S_ab and the pairs c != d of them to
    H_ab^2 - (M - 2).  Every partial sum is an integer below 2^53 for
    M <= EXHAUSTIVE_CAP, so the result is exact (0.0 when all commute).
    """
    m = len(w)
    s = np.empty((m, m))
    step = max(1, _GRAM_BLOCK_WORDS // (m * w.shape[1]))
    for i in range(0, m, step):  # one block for the curve's M <= 50
        s[i:i + step] = symplectic_rows(w[i:i + step, None], w[None])
    s = 1.0 - 2.0 * s
    g = s @ s
    if not distinct:
        return 1.0 - float(np.square(g).sum()) / m**4
    h = g - 2.0 * s
    np.fill_diagonal(h, 0.0)
    k = m * (m - 1) * (m - 2)
    return 1.0 - (float(np.square(h).sum()) - k) / (k * (m - 3))


def estimate_bell_magic(
    outcomes: BellSamples,
    n_resamples: int | None = None,
    rng: np.random.Generator | None = None,
    quadruples: str = "resample",
) -> tuple[float, float]:
    """Estimate of (B, B_a) from Bell-measurement outcomes.

    `quadruples` is one of `QUADRUPLES`: "resample" averages `n_resamples`
    quadruples (at least 1; 10 per outcome by default), "disjoint" every
    outcome once in m // 4 quadruples, "distinct" every ordered quadruple
    of distinct outcomes (every quadruple with replacement for 3 or fewer
    outcomes, as "resample" does) and "all" every quadruple with
    replacement.  The last two ignore `n_resamples` and `rng` and take at
    most `EXHAUSTIVE_CAP` outcomes.
    """
    m = len(outcomes)
    if m < 1:
        raise ValueError("empty outcome list")
    if quadruples not in QUADRUPLES:
        raise ValueError(f"quadruples must be one of {QUADRUPLES}, got {quadruples!r}")
    w = outcomes.words
    if quadruples in ("distinct", "all"):
        if m > EXHAUSTIVE_CAP:
            raise ValueError(f"exhaustive quadruples take at most {EXHAUSTIVE_CAP} outcomes, "
                             f"got {m}")
        b_hat = _all_quadruples_mean(w, quadruples == "distinct" and m >= 4)
        return b_hat, additive_magic(b_hat)
    rng = np.random.default_rng(rng)
    if quadruples == "disjoint":
        if m < 4:
            raise ValueError("disjoint mode needs at least 4 outcomes")
        quad = rng.permutation(m)[: 4 * (m // 4)].reshape(-1, 4)
    else:
        n_r = _resample_count(n_resamples, m)
        quad = rng.integers(0, m, size=(n_r, 4)) if m <= 3 else _distinct_tuples(m, n_r, 4, rng)
    b_hat = _quadruple_mean(w, quad)
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


def _undepolarize(v, p: float, floor):
    """v before global depolarizing p in [0, 1), given `floor`, its maximally mixed value."""
    if not 0.0 <= p < 1.0:
        raise ValueError("mitigation needs a depolarizing estimate in [0, 1)")
    return (v - p * (2 - p) * floor) / (1 - p) ** 2


@dataclass(frozen=True)
class MitigationResult:
    """Depolarizing-noise-corrected Bell magic, exact form and large-N form."""

    exact: float
    approx: float
    exact_clamped: float
    approx_clamped: float
    p: float
    p_quad: float


def _quad_depolarization(p_hat: float) -> float:
    """1 - (1 - p_hat)^4: the chance that any of the four copies is depolarized."""
    return 1.0 - (1.0 - p_hat) ** 4


def mitigate(
    b_noisy: float, p_hat: float, sum_p_dp_sq: float, n_qubits: int
) -> MitigationResult:
    """Invert global depolarizing noise on a Bell-magic estimate.

    `sum_p_dp_sq` is sum_r P_dp(r)^2 of the noisy distribution (collision
    estimate or exact).  The exact form subtracts the mixed-state and cross
    contributions; the approximate form replaces both by 1, valid for many
    qubits.  A p_hat so close to 1 that p_quad rounds to 1 (from about
    1 - 8.6e-5 on) has no inverse and is rejected like p_hat = 1.
    """
    _undepolarize(0.0, p_hat, 0.0)  # checks p_hat: p_quad is in [0, 1) for p_hat in (1, 2] too
    p_quad = _quad_depolarization(p_hat)
    if p_quad == 1.0:
        raise ValueError(f"p_hat = {p_hat} is too close to 1: 1 - (1 - p_hat)^4 rounds to 1")
    b_mixed = maximally_mixed_magic(n_qubits)
    b_cross = 1.0 - (sum_p_dp_sq - p_quad * 4.0**-n_qubits) / (1.0 - p_quad)
    exact = (b_noisy - p_quad**2 * b_mixed - 2 * p_quad * (1 - p_quad) * b_cross) / (
        (1 - p_quad) ** 2
    )
    approx = _undepolarize(b_noisy, p_quad, 1.0)
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
    out = np.clip(_undepolarize(np.asarray(p_noisy, float), p_hat, 4.0**-n_qubits), 0.0, None)
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
    return _undepolarize(e_noisy, p_hat, 1.0)


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
    mitigable = _quad_depolarization(p_hat) < 1.0  # what `mitigate` accepts from p_hat <= 1
    if mitigable:
        mtg = mitigate(b_hat, p_hat, sum_sq, outcomes.n_qubits)
        b_mtg_exact, b_mtg_approx = mtg.exact, mtg.approx
    else:
        b_mtg_exact = b_mtg_approx = None
    boot = None
    if n_bootstrap > 0 and mitigable:
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
