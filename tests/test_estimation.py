"""Estimator statistics, purity, depolarization fit and mitigation algebra."""
import math
import tracemalloc

import numpy as np
import pytest

from bellmagic import estimation as est, magic, simulator as sim, states, variational
from bellmagic.pauli import BellSamples
from bellmagic.simulator import NoiseModel, bell_distribution, noisy_bell_distribution, sample
from bellmagic.stabilizer import bell_sample_stabilizer, random_clifford

from oracles import all_quadruples_brute, distinct_tuples_all_rows, quadruple_mean


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
        est.estimate_bell_magic(sample(dist, 3, rng), rng=rng, quadruples="disjoint")


@pytest.mark.parametrize("width", [3, 4])
def test_distinct_tuples_match_reference(width):
    # m == width forces many rejection rounds
    for m in (width, width + 1, 50):
        fast = est._distinct_tuples(m, 2000, width, np.random.default_rng(m))
        ref = distinct_tuples_all_rows(m, 2000, width, np.random.default_rng(m))
        assert np.array_equal(fast, ref)
        srt = np.sort(fast, axis=1)
        assert (srt[:, 1:] != srt[:, :-1]).all() and srt.max() < m


def test_distinct_tuples_keep_the_rng_stream():
    # re-checking only the redrawn rows makes the same draws in the same order
    for m in (4, 5, 6, 10, 20, 50, 1000):
        for n_trials in (1, 7, 250, 2500):
            for width in (3, 4):
                for seed in range(5):
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    fast = est._distinct_tuples(m, n_trials, width, rng)
                    ref = distinct_tuples_all_rows(m, n_trials, width, ref_rng)
                    assert np.array_equal(fast, ref)
                    assert rng.integers(2**62) == ref_rng.integers(2**62)


@pytest.mark.parametrize("n_qubits", [32, 64, 1504])  # 1, 2 and 47 words
def test_blocked_estimate_is_the_unblocked_mean(n_qubits):
    # the quadruples are scored in blocks; the mean must not change in any bit
    n_words = (2 * n_qubits + 63) // 64
    block = est._QUAD_BLOCK_WORDS // n_words
    rng = np.random.default_rng(n_qubits)
    words = rng.integers(0, 2**64, size=(40, n_words), dtype=np.uint64)
    for m in (1, 2, 3, 40):
        s = BellSamples(n_qubits, words[:m])
        for n_r in (1, block - 1, block, block + 1, 3 * block + 5):
            rng, ref_rng = np.random.default_rng(n_r), np.random.default_rng(n_r)
            b, b_a = est.estimate_bell_magic(s, n_r, rng, quadruples="resample")
            quad = (ref_rng.integers(0, m, size=(n_r, 4)) if m <= 3
                    else distinct_tuples_all_rows(m, n_r, 4, ref_rng))
            assert b == quadruple_mean(s.words, quad) and b_a == magic.additive_magic(b)
            assert rng.integers(2**62) == ref_rng.integers(2**62)
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    s = BellSamples(n_qubits, words)
    quad = ref_rng.permutation(len(words)).reshape(-1, 4)
    b, _ = est.estimate_bell_magic(s, rng=rng, quadruples="disjoint")
    assert b == quadruple_mean(words, quad)
    assert rng.integers(2**62) == ref_rng.integers(2**62)


@pytest.mark.parametrize("n_resamples, limit_mb", [(20_000, 4), (80_000, 12)])
def test_resampling_memory_is_bounded(n_resamples, limit_mb):
    # the unblocked estimator held four (n_resamples, W) gathers: 36 and 146 MB here
    rng = np.random.default_rng(11)
    s = bell_sample_stabilizer(random_clifford(1500, 3, rng)[0], 2000, rng)
    tracemalloc.start()
    try:
        est.estimate_bell_magic(s, n_resamples, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


def test_stabilizer_outcomes_estimate_zero():
    rng = np.random.default_rng(3)
    tab, _ = random_clifford(4, 4, rng)
    for nq in (8, 100):
        s = bell_sample_stabilizer(tab, nq, rng)
        b, ba = est.estimate_bell_magic(s, 2000, rng)
        assert b == 0.0 and ba == 0.0


def _haar_and_stabilizer_outcomes(n, m, rng):
    haar = sample(bell_distribution(magic.sample_haar_state(n, rng)), m, rng)
    stab = bell_sample_stabilizer(random_clifford(n, 3, rng)[0], m, rng)
    return haar, stab


@pytest.mark.parametrize("block_words", [est._GRAM_BLOCK_WORDS, 1])
def test_exhaustive_statistics_match_enumeration(block_words, monkeypatch):
    # B_U over ordered distinct quadruples, B_V over quadruples with replacement;
    # with one word per block the sign Gram matrix is built one row at a time
    monkeypatch.setattr(est, "_GRAM_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(30)
    for n in (1, 2, 3):
        for _ in range(3):
            for samples in _haar_and_stabilizer_outcomes(n, 8, rng):
                for m in range(1, 9):
                    sub = BellSamples(n, samples.words[:m])
                    b_v, b_a = est.estimate_bell_magic(sub, quadruples="all")
                    assert abs(b_v - all_quadruples_brute(sub.words, False)) < 1e-15
                    assert b_a == magic.additive_magic(b_v)
                    if m >= 4:
                        b_u, _ = est.estimate_bell_magic(sub, quadruples="distinct")
                        assert abs(b_u - all_quadruples_brute(sub.words, True)) < 1e-15


def test_exhaustive_statistics_zero_on_stabilizer_outcomes():
    # every partial sum is an integer, so a commuting outcome set gives exactly 0
    rng = np.random.default_rng(31)
    tab, _ = random_clifford(200, 3, rng)
    s = bell_sample_stabilizer(tab, 300, rng)
    for quadruples in ("distinct", "all"):
        assert est.estimate_bell_magic(s, quadruples=quadruples) == (0.0, 0.0)


def test_resample_mean_is_the_u_statistic():
    # given the outcomes, a resampled quadruple is uniform over the distinct ones
    rng = np.random.default_rng(32)
    s = sample(bell_distribution(magic.sample_haar_state(3, rng)), 12, rng)
    b_u, _ = est.estimate_bell_magic(s, quadruples="distinct")
    draws = [est.estimate_bell_magic(s, 100, rng)[0] for _ in range(2000)]
    assert abs(np.mean(draws) - b_u) < 5 * np.std(draws) / np.sqrt(len(draws))


def test_distinct_below_four_is_the_with_replacement_statistic():
    rng = np.random.default_rng(33)
    s = sample(bell_distribution(states.t_state()), 3, rng)
    for m in (1, 2, 3):
        sub = BellSamples(1, s.words[:m])
        assert (est.estimate_bell_magic(sub, quadruples="distinct")
                == est.estimate_bell_magic(sub, quadruples="all"))


def test_exhaustive_modes_draw_nothing_and_have_a_cap():
    rng = np.random.default_rng(34)
    s = sample(bell_distribution(states.t_state()), 20, rng)
    before = rng.bit_generator.state
    for quadruples in ("distinct", "all"):
        est.estimate_bell_magic(s, 5, rng, quadruples=quadruples)
    assert rng.bit_generator.state == before
    over = BellSamples(1, np.zeros((est.EXHAUSTIVE_CAP + 1, 1), dtype=np.uint64))
    for quadruples in ("distinct", "all"):
        with pytest.raises(ValueError, match="at most"):
            est.estimate_bell_magic(over, quadruples=quadruples)
    with pytest.raises(ValueError, match="quadruples must be one of"):
        est.estimate_bell_magic(s, quadruples="every")


def test_disjoint_std_matches_bernoulli_formula():
    rng = np.random.default_rng(4)
    dist = bell_distribution(states.t_state())
    nq = 400
    vals = [
        est.estimate_bell_magic(sample(dist, nq, rng), rng=rng, quadruples="disjoint")[0]
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


def test_mitigation_rejects_p_hat_whose_quadruple_rounds_to_one():
    # 1 - (1 - p_hat)^4 rounds to 1 from p_hat = 1 - 8.6e-5 on: no inverse
    for p_hat in (0.99995, 0.99999):
        with pytest.raises(ValueError, match="too close to 1"):
            est.mitigate(0.5, p_hat, 0.1, 3)
    assert np.isfinite(est.mitigate(0.5, 0.9999, 0.1, 3).exact)


def test_estimate_magic_p_hat_just_below_one():
    # 2^15 - 2 outcomes of 14 qubits, 16382 of them with odd SWAP parity:
    # purity 2 / 32766 sits 3.7e-9 above 2^-14, so p_hat = 1 - 6.1e-5 < 1,
    # yet p_quad rounds to 1 and neither mitigation nor the bootstrap has a value
    m, n = 2**15 - 2, 14
    s = BellSamples.from_indices(n, np.where(np.arange(m) < m // 2 - 1, 3 * 4 ** (n - 1), 0))
    res = est.estimate_magic(s, np.random.default_rng(0), n_resamples=100, n_bootstrap=3)
    assert res.purity_hat == pytest.approx(2 / m, rel=1e-9)
    assert 1.0 - 8.6e-5 < res.p_hat < 1.0
    assert res.b_mtg_exact is None and res.b_mtg_approx is None
    assert res.bootstrap_std is None


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


def test_undepolarize_equals_the_three_inverses_it_replaces():
    # the expressions mitigate, mitigate_probabilities and mitigate_meyer_wallach
    # wrote out before they shared the helper, compared for exact equality
    rng = np.random.default_rng(21)
    for v, p in zip(rng.uniform(-1, 3, 2000), rng.uniform(0, 1, 2000)):
        assert est._undepolarize(v, p, 1.0) == (v - p * (2 - p)) / (1 - p) ** 2
        p_quad = 1.0 - (1.0 - p) ** 4
        assert est.mitigate(v, p, 0.3, 4).approx == (v - p_quad * (2 - p_quad)) / (
            1 - p_quad) ** 2
        assert est.mitigate_meyer_wallach(v, p) == (v - p * (2 - p)) / (1 - p) ** 2
    for n in range(1, 9):
        probs = rng.dirichlet(np.ones(4**n))
        for p in rng.uniform(0, 1, 5):
            old = np.clip((probs - p * (2 - p) / 4**n) / (1 - p) ** 2, 0.0, None)
            assert np.array_equal(est.mitigate_probabilities(probs, p, n), old / old.sum())
    for p in (-0.1, 1.0, 1.5, 2.0, float("nan")):
        for call in (lambda: est.mitigate(0.5, p, 0.1, 3),
                     lambda: est.mitigate_probabilities(np.full(4, 0.25), p, 1),
                     lambda: est.mitigate_meyer_wallach(0.5, p)):
            with pytest.raises(ValueError, match=r"in \[0, 1\)"):
                call()


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
    rows = exp.error_vs_samples_sweep(6, 2, p_values, [1000], repetitions=200, seed=13, threads=1)
    mean_err = [r["mean_abs_error"] for r in rows]
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


def test_resampling_sweep_builds_one_state_per_repetition(monkeypatch):
    from bellmagic import experiments as exp

    calls = []
    real = sim.bell_distribution

    def counting(state):
        calls.append(state.n_qubits)
        return real(state)

    monkeypatch.setattr(exp.simulator, "bell_distribution", counting)
    grid = ["disjoint", 50, 200]
    rows = exp.resampling_sweep(3, 1, 40, grid, repetitions=4, seed=3, threads=1)
    assert len(calls) == 4 and len(rows) == 3
    # the first entry draws first, so it is the row a one-entry sweep writes
    assert rows[0] == exp.resampling_sweep(3, 1, 40, grid[:1], repetitions=4, seed=3)[0]


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
    b_hat, _ = est.estimate_bell_magic(s, n_resamples, rng, quadruples="disjoint")
    assert 0.0 <= b_hat <= 2.0
