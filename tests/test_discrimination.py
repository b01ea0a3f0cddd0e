"""Discrimination formulas, threshold learner and the Monte-Carlo checks of both."""
import warnings

import numpy as np
import pytest

from bellmagic import discrimination as dis
from bellmagic.discrimination import LabeledRun, classify, learn_threshold
from bellmagic.estimation import EXHAUSTIVE_CAP, estimate_bell_magic
from bellmagic import experiments as exp
from bellmagic.experiments import error_probability_curve, learning_curve
from bellmagic.simulator import bell_distribution, magic_input_circuit, sample, simulate

from oracles import learn_threshold_loop, resampled_curve_rep


def test_classify_tie_rule():
    assert classify(0.0, 0.0) == dis.STABILIZER
    assert classify(0.3, 0.0) == dis.MAGICAL
    assert classify(0.1, 0.2) == dis.STABILIZER


def test_p_error_single_magic_values():
    # threshold crossing of the 1% error budget at the T angle
    assert dis.p_error_single_magic(np.pi / 4, 18) > 0.01
    assert dis.p_error_single_magic(np.pi / 4, 19) < 0.01
    assert min(
        m for m in range(1, 40) if dis.p_error_single_magic(np.pi / 4, m) < 0.01
    ) == 19
    assert dis.p_error_single_magic(np.pi / 20, 375) < 0.01
    # degenerate stabilizer boundary: the protocol never flags magic
    assert dis.p_error_single_magic(0.0, 12) == pytest.approx(1.0)


def test_p_error_single_magic_approximation():
    for m in range(10, 40):
        exact = dis.p_error_single_magic(np.pi / 4, m)
        approx = 2 * 0.75**m
        assert abs(exact - approx) / approx < 0.10


def test_p_error_random_values():
    assert dis.p_error_random(2) == 1.0
    assert dis.p_error_random(3) == 0.5
    assert dis.p_error_random(6) == 2.0**-10
    assert dis.p_error_random(6) < 0.01
    with pytest.raises(ValueError):
        dis.p_error_random(1)


def test_small_angle_scaling_law():
    for phi in (np.pi / 20, np.pi / 30):
        exact_nq = next(
            m for m in range(1, 20_000) if dis.p_error_single_magic(phi, m) < 0.01
        )
        law = dis.small_angle_samples(phi, 0.01)
        assert abs(exact_nq - law) / law < 0.20


def test_two_class_budget_heuristic():
    assert dis.two_class_samples(0.5, 0.0) == pytest.approx(4.0)
    assert dis.two_class_samples(0.5, 0.0, p=0.1) == pytest.approx(4.0 / 0.9**16)
    with pytest.raises(ValueError):
        dis.two_class_samples(0.1, 0.5)


def test_learn_threshold_separated():
    runs = [LabeledRun(0.01 * i, dis.STABILIZER, 10) for i in range(5)]
    runs += [LabeledRun(0.5 + 0.01 * i, dis.MAGICAL, 10) for i in range(5)]
    thr = learn_threshold(runs)
    assert dis.classification_error(runs, thr) == 0.0
    assert 0.04 < thr < 0.5


def test_learn_threshold_degenerate():
    runs = [LabeledRun(0.2, dis.STABILIZER, 10)] * 3 + [LabeledRun(0.2, dis.MAGICAL, 10)] * 7
    thr = learn_threshold(runs)
    # best achievable is the majority class
    assert dis.classification_error(runs, thr) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        learn_threshold([LabeledRun(0.1, dis.MAGICAL, 10)])


def test_learn_threshold_matches_candidate_loop():
    # estimates rounded to 0-2 decimals, so that runs tie within and across classes
    rng = np.random.default_rng(15)
    for _ in range(2000):
        n = int(rng.integers(2, 41))
        labels = rng.choice([dis.STABILIZER, dis.MAGICAL], size=n)
        labels[:2] = dis.STABILIZER, dis.MAGICAL
        b_hat = np.round(rng.uniform(-0.5, 1.5, size=n), int(rng.integers(0, 3)))
        runs = [LabeledRun(float(b), int(y), 10) for b, y in zip(b_hat, labels)]
        assert learn_threshold(runs) == learn_threshold_loop(runs)


def test_label_validation():
    with pytest.raises(ValueError):
        LabeledRun(0.1, 2, 10)


def test_monte_carlo_stabilizer_never_flags():
    rng = np.random.default_rng(0)
    misses = 0
    for _ in range(50):
        state = simulate(magic_input_circuit(3, 0, 0.0, 3, rng))
        s = sample(bell_distribution(state), 20, rng)
        b, _ = estimate_bell_magic(s, 500, rng)
        misses += classify(b, 0.0) == dis.MAGICAL
    assert misses == 0


def test_monte_carlo_matches_formula_small():
    reps = 400
    (row,) = error_probability_curve("single", 4, np.pi / 4, 0, [10], reps, seed=1, depth=3)
    pe = row["p_error"]
    theory = dis.p_error_single_magic(np.pi / 4, 10)
    assert abs(pe - theory) < 3 * np.sqrt(theory * (1 - theory) / reps)


def _count_bell_distributions(monkeypatch) -> list:
    calls = []
    real = exp.simulator.bell_distribution

    def counting(state):
        calls.append(state.n_qubits)
        return real(state)

    monkeypatch.setattr(exp.simulator, "bell_distribution", counting)
    return calls


def test_many_curve_builds_its_states_at_phi():
    # at phi = 0 every magic input is |0>, so no repetition is ever flagged magical
    rows = error_probability_curve("many", 3, 0.0, 2, [5, 10], 20, seed=0, depth=2)
    assert [r["p_error"] for r in rows] == [1.0, 1.0]
    assert all(r["phi"] == 0.0 for r in rows)


def test_single_curve_records_its_one_magic_input():
    (row,) = error_probability_curve("single", 2, 0.3, 0, [5], 3, seed=0, depth=2)
    assert row["na"] == 1


def test_curve_rejects_an_unlawful_nq_before_building_states(monkeypatch):
    calls = _count_bell_distributions(monkeypatch)
    with pytest.raises(ValueError, match="two outcomes"):
        error_probability_curve("many", 3, np.pi / 4, 2, [1], 5, seed=0)
    assert calls == []


def test_curve_rejects_nq_above_the_exhaustive_cap_before_building_states(monkeypatch):
    calls = _count_bell_distributions(monkeypatch)
    with pytest.raises(ValueError, match="at most"):
        error_probability_curve("single", 3, np.pi / 4, 0, [5, EXHAUSTIVE_CAP + 1], 5, seed=0)
    assert calls == []


@pytest.mark.parametrize("kind, n, na, phi, seed, reps", [
    # acceptance criterion 5's curves, with fewer repetitions
    ("single", 8, 0, np.pi / 20, 157, 100),
    ("single", 8, 0, np.pi / 8, 392, 100),
    ("single", 8, 0, np.pi / 4, 785, 100),
    ("many", 10, 10, np.pi / 4, 55, 30),
])
def test_exact_curve_decisions_match_the_resampled_oracle(kind, n, na, phi, seed, reps):
    # every repetition misses under the all-quadruple statistic exactly when
    # 50 N_Q resampled quadruples found no anticommuting pair
    fixed = (kind, n, na, phi, 4, (5, 10, 20, 50))
    exact = exp._run_reps(exp._pe_grid_rep, fixed, seed, reps, 1)
    assert exact == exp._run_reps(resampled_curve_rep, fixed, seed, reps, 1)


def test_learning_pipeline_small(monkeypatch):
    split_runs = []
    real_split = dis.train_test_split_error

    def recording(runs, n_splits, rng):
        split_runs.append(runs)
        return real_split(runs, n_splits, rng)

    monkeypatch.setattr(dis, "train_test_split_error", recording)
    rows = learning_curve([100, 300], 10, 3, 2, 0.15, 5, seed=2)
    for row, runs in zip(rows, split_runs, strict=True):
        assert len(runs) == 20
        assert sorted(r.label for r in runs) == [dis.STABILIZER] * 10 + [dis.MAGICAL] * 10
        assert {r.n_outcomes for r in runs} == {row["nq"]}
        assert 0.0 <= row["train_error"] <= 0.5 and 0.0 <= row["test_error"] <= 0.5


def test_learning_curve_builds_one_state_pair_per_repetition(monkeypatch):
    calls = _count_bell_distributions(monkeypatch)
    rows = learning_curve([20, 50, 100], 4, 2, 1, 0.1, 2, seed=1)
    assert len(rows) == 3 and len(calls) == 2 * 4


def test_split_error_needs_both_classes():
    # one run per class: every training split lacks the class drawn for testing
    runs = [LabeledRun(0.0, dis.STABILIZER, 10), LabeledRun(0.5, dis.MAGICAL, 10)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="both classes"):
            dis.train_test_split_error(runs, 5, np.random.default_rng(3))


def test_runs_csv_roundtrip():
    runs = [LabeledRun(0.3, dis.MAGICAL, 100), LabeledRun(0.0, dis.STABILIZER, 100)]
    rows = dis.runs_to_csv_rows(runs, seed=7)
    back = dis.runs_from_csv_rows(rows)
    assert [(r.b_hat, r.label, r.n_outcomes) for r in back] == [
        (0.3, 1, 100), (0.0, -1, 100)
    ]
