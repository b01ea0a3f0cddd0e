"""Estimator statistics, purity, depolarization fit and mitigation algebra."""
import math

import numpy as np
import pytest

from bellmagic import estimation as est, magic, simulator as sim, states, variational
from bellmagic.pauli import BellSamples
from bellmagic.simulator import NoiseModel, bell_distribution, noisy_bell_distribution, sample
from bellmagic.stabilizer import bell_sample_stabilizer, random_clifford


def _oracle_distinct(m, n_trials, width, rng):
    """Rejection sampler of distinct-index tuples (reference copy)."""
    idx = rng.integers(0, m, size=(n_trials, width))
    while True:
        srt = np.sort(idx, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not bad.any():
            return idx
        idx[bad] = rng.integers(0, m, size=(int(bad.sum()), width))


def t_samples(n_samples, seed):
    rng = np.random.default_rng(seed)
    return sample(bell_distribution(states.t_state()), n_samples, rng), rng


def test_estimator_on_t_state():
    s, rng = t_samples(10_000, 0)
    b, ba = est.estimate_bell_magic(s, rng=rng)
    assert abs(b - 0.5) < 5 * est.std_bernoulli(0.5, 10_000)
    assert ba == pytest.approx(-np.log2(1 - b))


def test_estimator_unbiased():
    rng = np.random.default_rng(1)
    dist = bell_distribution(states.t_state())
    means = []
    for _ in range(2000):
        s = sample(dist, 100, rng)
        b, _ = est.estimate_bell_magic(s, 1000, rng)
        means.append(b)
    se = np.std(means) / np.sqrt(len(means))
    assert abs(np.mean(means) - 0.5) < 3 * se


def test_estimator_with_replacement_below_four():
    rng = np.random.default_rng(2)
    dist = bell_distribution(states.t_state())
    for nq in (1, 2, 3):
        s = sample(dist, nq, rng)
        b, _ = est.estimate_bell_magic(s, 500, rng)
        assert 0.0 <= b <= 2.0
    with pytest.raises(ValueError):
        est.estimate_bell_magic(sample(dist, 3, rng), rng=rng, disjoint=True)


@pytest.mark.parametrize("width", [3, 4])
def test_distinct_tuples_match_reference(width):
    # m == width forces many rejection rounds
    for m in (width, width + 1, 50):
        fast = est._distinct_tuples(m, 2000, width, np.random.default_rng(m))
        ref = _oracle_distinct(m, 2000, width, np.random.default_rng(m))
        assert np.array_equal(fast, ref)
        srt = np.sort(fast, axis=1)
        assert (srt[:, 1:] != srt[:, :-1]).all() and srt.max() < m


def test_stabilizer_outcomes_estimate_zero():
    rng = np.random.default_rng(3)
    tab, _ = random_clifford(4, 4, rng)
    for nq in (8, 100):
        s = bell_sample_stabilizer(tab, nq, rng)
        b, ba = est.estimate_bell_magic(s, 2000, rng)
        assert b == 0.0 and ba == 0.0


def test_disjoint_std_matches_bernoulli_formula():
    rng = np.random.default_rng(4)
    dist = bell_distribution(states.t_state())
    nq = 400
    vals = [
        est.estimate_bell_magic(sample(dist, nq, rng), rng=rng, disjoint=True)[0]
        for _ in range(400)
    ]
    predicted = est.std_bernoulli(0.5, nq)
    assert abs(np.std(vals) - predicted) / predicted < 0.25


def test_purity():
    s, _ = t_samples(5000, 5)
    assert est.estimate_purity(s) == 1.0  # pure states never produce odd parity
    rng = np.random.default_rng(6)
    uniform = sim.BellDistribution(2, np.full(16, 1 / 16))
    s = sample(uniform, 40_000, rng)
    assert est.estimate_purity(s) == pytest.approx(0.25, abs=0.02)
    # determinism for a fixed outcome list
    assert est.estimate_purity(s) == est.estimate_purity(s)


def test_depolarization_fit():
    assert est.estimate_depolarization(1.0, 3) == pytest.approx(0.0)
    assert est.estimate_depolarization(2.0**-3, 3) == pytest.approx(1.0)
    assert est.estimate_depolarization(1.2, 3) == pytest.approx(0.0)  # clamp above
    assert est.estimate_depolarization(0.01, 3) == 1.0  # clamp below
    pur = est.noisy_purity(0.1, 3)
    assert pur == pytest.approx(0.833750, abs=1e-6)
    assert est.estimate_depolarization(pur, 3) == pytest.approx(0.1, abs=1e-12)


def _oracle_depolarization(purity_hat, n_qubits):
    """The integer-d form that the powers-of-two form replaced (reference copy)."""
    d = 2**n_qubits
    purity_hat = min(purity_hat, 1.0)
    if purity_hat <= 1.0 / d:
        return 1.0
    return 1.0 - math.sqrt((d - 1) * (d * purity_hat - 1)) / (d - 1)


def test_depolarization_matches_integer_formula():
    # scaling by a power of two commutes with rounding, so the forms agree bit for bit
    rng = np.random.default_rng(21)
    for n in range(1, 61):
        x = 2.0**-n
        purities = [x, x * (1 + 2**-52), 1.0, 1.5, 0.0, *rng.uniform(0, 1, 50),
                    *(x * rng.uniform(0.5, 4, 20))]
        for pur in purities:
            assert est.estimate_depolarization(pur, n) == _oracle_depolarization(pur, n)


def test_estimate_magic_at_1500_qubits():
    # 2^N and 4^N overflow a float from N = 1024 and 512 on; the estimate must not
    rng = np.random.default_rng(22)
    tab, _ = random_clifford(1500, 2, rng)
    res = est.estimate_magic(bell_sample_stabilizer(tab, 200, rng), rng, n_bootstrap=3)
    assert res.p_hat == 0.0
    assert res.b_mtg_exact == 0.0 and res.b_mtg_approx == 0.0
    assert res.bootstrap_std == 0.0
    assert est.noisy_purity(0.1, 1500) == 0.81


def test_mitigation_identity_at_zero_noise():
    m = est.mitigate(0.43, 0.0, 0.2, 3)
    assert m.exact == pytest.approx(0.43) and m.approx == pytest.approx(0.43)
    with pytest.raises(ValueError):
        est.mitigate(0.5, 1.0, 0.1, 3)


def test_mitigation_closed_loop():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        state = sim.simulate(sim.magic_input_circuit(n, 1, np.pi / 4, 3, rng))
        d0 = bell_distribution(state)
        b_true = magic.bell_magic_exact(d0).bell_magic
        for p in (0.05, 0.15, 0.3):
            dn = noisy_bell_distribution(d0, NoiseModel(p))
            b_dp = magic.bell_magic_exact(dn).bell_magic
            ssq = float((dn.probabilities**2).sum())
            m = est.mitigate(b_dp, p, ssq, n)
            assert m.exact == pytest.approx(b_true, abs=1e-6)


def test_sum_prob_squared_unbiased():
    rng = np.random.default_rng(8)
    dist = bell_distribution(sim.zero_state(1))  # sum P^2 = 1/2
    vals = [est.sum_prob_squared(sample(dist, 200, rng)) for _ in range(300)]
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - 0.5) < 3 * se


def test_std_and_sample_bounds():
    assert est.std_bernoulli(0.0, 100) == 0.0
    assert est.std_bernoulli(0.5, 400) == pytest.approx(np.sqrt(8 * 0.5 / 400 * 0.75))
    assert est.required_samples(0.1, 0.05) == 2952
    with pytest.raises(ValueError):
        est.required_samples(0.0, 0.05)


def test_sample_budget_noise_scaling():
    # samples needed at fixed accuracy grow as (1-p)^-16, within a factor 3
    from bellmagic import experiments as exp

    p_values = [0.0, 0.05, 0.1]
    mean_err = exp.mitigated_error_grid(
        6, 2, p_values, [1000], repetitions=200, seed=13, threads=1
    )[:, 0]
    # err ~ c_p / sqrt(NQ), so the budget for fixed error scales as (c_p/c_0)^2
    for p, err in zip(p_values[1:], mean_err[1:]):
        ratio = (err / mean_err[0]) ** 2
        predicted = (1 - p) ** -16
        assert predicted / 3 < ratio < predicted * 3


def test_resampling_convergence():
    # more resampling trials help: N_R = 10 N_Q beats the N_Q/4 budget, and
    # the disjoint point sits at the Bernoulli error bar
    from bellmagic import experiments as exp

    nq = 400
    rows = exp.resampling_sweep(
        4, 1, nq, ["disjoint", nq // 4, 10 * nq], repetitions=300, seed=14, threads=1
    )
    errs = {r["mode"] + str(r["nr"]): r["mean_abs_error"] for r in rows}
    assert errs[f"resample{10 * nq}"] <= errs[f"disjoint{nq // 4}"]
    assert errs[f"resample{10 * nq}"] <= errs[f"resample{nq // 4}"]
    cross = est.std_bernoulli(0.5, nq) * np.sqrt(2 / np.pi)  # mean |error| of a normal
    assert abs(errs[f"disjoint{nq // 4}"] - cross) / cross < 0.30


def test_mitigate_probabilities():
    rng = np.random.default_rng(9)
    d0 = bell_distribution(sim.simulate(sim.magic_input_circuit(2, 1, np.pi / 4, 2, rng)))
    p = 0.2
    dn = noisy_bell_distribution(d0, NoiseModel(p))
    recovered = est.mitigate_probabilities(dn.probabilities, p, 2)
    assert np.allclose(recovered, d0.probabilities, atol=1e-12)
    same = est.mitigate_probabilities(d0.probabilities, 0.0, 2)
    assert np.allclose(same, d0.probabilities)
    # clipping under sampling noise still renormalizes
    emp = est.empirical_distribution(sample(dn, 500, rng))
    out = est.mitigate_probabilities(emp, p, 2)
    assert out.min() >= 0 and out.sum() == pytest.approx(1.0)


def test_meyer_wallach_estimates():
    rng = np.random.default_rng(10)
    prod = states.product_state([0.4, 2.0, 1.2], [0.1, 0.5, 0.9])
    s = sample(bell_distribution(prod), 10_000, rng)
    e_raw, e_mtg = est.estimate_meyer_wallach(s)
    assert abs(e_raw) < 5 * np.sqrt(1 / 10_000) * 2
    assert e_mtg == e_raw  # p = 0
    ghz = states.ghz_state(3)
    s = sample(bell_distribution(ghz), 10_000, rng)
    e_raw, _ = est.estimate_meyer_wallach(s)
    assert abs(e_raw - 1.0) < 0.05


def _oracle_and_bit_fractions(samples):
    """Word/bit-position loop over qubits (reference copy of the per-qubit AND frequency)."""
    n = samples.n_qubits
    and_words = (samples.words >> np.uint64(1)) & samples.words
    fracs = np.empty(n)
    for q in range(1, n + 1):
        pos = 2 * (n - q)  # x-slot bit of qubit q in the packed layout
        word, bit = pos // 64, np.uint64(pos % 64)
        fracs[q - 1] = float(((and_words[:, word] >> bit) & np.uint64(1)).mean())
    return fracs


@pytest.mark.parametrize("n", [2, 5, 31, 32, 33, 70])
def test_and_bit_fractions_match_loop(n):
    rng = np.random.default_rng(n)
    tab, _ = random_clifford(n, 2, rng)
    s = bell_sample_stabilizer(tab, 301, rng)
    assert np.array_equal(est._and_bit_fractions(s), _oracle_and_bit_fractions(s))


def test_meyer_wallach_mitigation_closed_loop():
    rng = np.random.default_rng(11)
    psi = magic.sample_haar_state(3, rng)
    e_true = magic.meyer_wallach(psi)
    for p in (0.1, 0.3):
        e_dp = (1 - p) ** 2 * e_true + p * (2 - p)
        assert est.mitigate_meyer_wallach(e_dp, p) == pytest.approx(e_true, abs=1e-12)
    # sampled closed loop through the noisy distribution
    p = 0.15
    dn = noisy_bell_distribution(bell_distribution(psi), NoiseModel(p))
    s = sample(dn, 200_000, rng)
    _, e_mtg = est.estimate_meyer_wallach(s, p)
    assert abs(e_mtg - e_true) < 0.05


def test_estimate_magic_pipeline():
    rng = np.random.default_rng(12)
    state = sim.simulate(sim.magic_input_circuit(3, 1, np.pi / 4, 3, rng))
    dn = noisy_bell_distribution(bell_distribution(state), NoiseModel(0.1))
    s = sample(dn, 5000, rng)
    res = est.estimate_magic(s, rng, n_bootstrap=50)
    assert res.n_outcomes == 5000 and res.n_resamples == 50_000
    assert 0 < res.p_hat < 0.2
    assert res.b_mtg_exact is not None
    assert abs(res.b_mtg_exact - 0.5) < 0.15
    assert res.bootstrap_std is not None and res.bootstrap_std > 0


def test_estimate_magic_saturated_p_hat():
    # all-Y outcomes: every SWAP parity is odd, purity -1, so p_hat = 1 and
    # neither mitigation nor the bootstrap has a value to report
    s = BellSamples.from_indices(1, np.full(50, 3))
    res = est.estimate_magic(s, np.random.default_rng(0), n_bootstrap=20)
    assert res.purity_hat == -1.0 and res.p_hat == 1.0
    assert res.b_mtg_exact is None and res.b_mtg_approx is None
    assert res.bootstrap_std is None


def _oracle_bootstrap_std(outcomes, n_resamples, n_bootstrap, rng):
    """The bootstrap loop that re-running `estimate_magic` replaced (reference copy)."""
    m, n = len(outcomes), outcomes.n_qubits
    vals = []
    for _ in range(n_bootstrap):
        res = BellSamples(n, outcomes.words[rng.integers(0, m, size=m)])
        bb, _ = est.estimate_bell_magic(res, n_resamples, rng)
        pp = est.estimate_depolarization(est.estimate_purity(res), n)
        if pp < 1.0:
            vals.append(est.mitigate(bb, pp, est.sum_prob_squared(res), n).exact)
    return float(np.std(vals)) if vals else None


def test_bootstrap_matches_hand_loop():
    # the draws take the old loop's RNG calls in the same order, so the std is bit-identical
    for n, p, nq, seed in ((1, 0.0, 30, 0), (2, 0.2, 200, 1), (3, 0.1, 500, 2)):
        rng = np.random.default_rng(seed)
        dn = noisy_bell_distribution(bell_distribution(magic.sample_haar_state(n, rng)),
                                     NoiseModel(p))
        s = sample(dn, nq, rng)
        n_r = est.DEFAULT_RESAMPLE_FACTOR * nq
        res = est.estimate_magic(s, np.random.default_rng(seed), n_bootstrap=25)
        ref_rng = np.random.default_rng(seed)
        est.estimate_bell_magic(s, n_r, ref_rng)  # the point estimate draws first
        assert res.bootstrap_std is not None
        assert res.bootstrap_std == _oracle_bootstrap_std(s, n_r, 25, ref_rng)


def test_estimate_magic_one_outcome_bootstrap():
    # one outcome has no collision estimate of sum P^2; every bootstrap draw
    # takes the point estimate's fallback of 1 instead of raising
    s = BellSamples.from_indices(2, np.array([0]))
    res = est.estimate_magic(s, np.random.default_rng(0), n_bootstrap=3)
    assert res.p_hat == 0.0 and res.b_mtg_exact == 0.0
    assert res.bootstrap_std == 0.0


def test_empty_outcomes_rejected():
    empty = BellSamples(3, np.zeros((0, 1), dtype=np.uint64))
    for estimator in (est.estimate_bell_magic, est.estimate_purity, est.sum_prob_squared,
                      est.estimate_magic):
        with pytest.raises(ValueError):
            estimator(empty)


def test_empirical_distribution_covers_all_outcomes():
    for n in (1, 2, 3):
        s = BellSamples.from_indices(n, np.array([0, 4**n - 1, 0]))
        emp = est.empirical_distribution(s)
        assert emp.shape == (4**n,)
        assert emp[0] == pytest.approx(2 / 3) and emp[-1] == pytest.approx(1 / 3)


@pytest.mark.parametrize("n_resamples", [0, -1])
def test_resample_count_below_one_rejected(n_resamples):
    rng = np.random.default_rng(12)
    s = sample(bell_distribution(states.t_state()), 20, rng)
    with pytest.raises(ValueError, match="n_resamples"):
        est.estimate_bell_magic(s, n_resamples, rng)
    with pytest.raises(ValueError, match="n_resamples"):
        est.estimate_magic(s, rng, n_resamples=n_resamples)
    with pytest.raises(ValueError, match="n_resamples"):
        variational.estimate_gradient(s, s, s, n_resamples, rng)
    # the disjoint mode draws no resampling trials, so the count is not read
    b_hat, _ = est.estimate_bell_magic(s, n_resamples, rng, disjoint=True)
    assert 0.0 <= b_hat <= 2.0
