"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the heavy Monte-Carlo criteria use fixed master seeds so the suite is
deterministic.
"""
import numpy as np
import pytest
from scipy import stats

from bellmagic import (
    discrimination as dis,
    estimation as est,
    experiments as exp,
    magic,
    simulator as sim,
    states,
    variational as var,
)
from bellmagic.magic import additive_magic, bell_magic_exact, bell_magic_of_state
from bellmagic.simulator import BellDistribution, NoiseModel, bell_distribution
from bellmagic.stabilizer import bell_sample_stabilizer, random_clifford

from oracles import (
    apply_circuit,
    bell_magic_brute,
    grad_bell_magic_exact,
    gradient_finite_difference,
    mixed_bell_distribution,
)


def _tensor(a, b):
    """The product state a (x) b."""
    return sim.StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def _report(criterion: int, checks: list[tuple[bool, str]]) -> None:
    ok = all(c for c, _ in checks)
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE CRITERION {criterion}: {status} ({len(checks)} checks)")
    failing = [msg for c, msg in checks if not c]
    assert ok, f"criterion {criterion} failing checks: {failing}"


def test_criterion_1_golden_values():
    checks = []
    for n in range(1, 5):
        ba = bell_magic_of_state(
            states.product_state([np.pi / 2] * n, [np.pi / 4] * n)
        ).additive
        checks.append((abs(ba - n) < 1e-9, f"B_a(T^{n}) = {ba}"))
    ba_r = bell_magic_of_state(states.r_state()).additive
    checks.append((abs(ba_r - np.log2(27 / 11)) < 1e-9, f"B_a(R) = {ba_r}"))
    for n, tol in ((2, 1e-4), (3, 1e-5), (4, 1e-5)):
        ba = bell_magic_of_state(states.max_magic_state(n)).additive
        target = states.MAX_MAGIC_ADDITIVE[n]
        checks.append((abs(ba - target) < tol, f"B_a(max {n}) = {ba} vs {target}"))
    # maximally mixed: dense projector construction for N <= 3, uniform at N = 4
    for n in range(1, 5):
        if n <= 3:
            d = mixed_bell_distribution(np.eye(2**n) / 2**n)
        else:
            d = BellDistribution(n, np.full(4**n, 4.0**-n))
        b = bell_magic_exact(d).bell_magic
        checks.append((abs(b - (1 - 4.0**-n)) < 1e-9, f"B(mixed {n}) = {b}"))
        bm, _ = magic.mixed_bell_magic(b, 2.0**-n)
        checks.append((abs(bm) < 1e-9, f"B_m(mixed {n}) = {bm}"))
    b_r = bell_magic_of_state(states.r_state()).bell_magic
    checks.append(
        (abs(magic.pure_state_bound(1) - b_r) < 1e-9, "pure bound at N=1 equals B(R)")
    )
    _report(1, checks)


def test_criterion_2_invariance_suite():
    rng = np.random.default_rng(2024)
    checks = []
    # Clifford invariance, 100 randomized cases
    bad = 0
    for i in range(100):
        n = 2 + i % 2
        psi = magic.sample_haar_state(n, rng)
        _, circ = random_clifford(n, 3, rng)
        before = bell_magic_of_state(psi).bell_magic
        after = bell_magic_of_state(apply_circuit(circ, psi)).bell_magic
        bad += abs(before - after) >= 1e-9
    checks.append((bad == 0, f"Clifford invariance violations: {bad}/100"))
    # additivity over tensor products, 100 cases, up to 6 qubits total
    bad = 0
    for _ in range(100):
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, b = magic.sample_haar_state(na, rng), magic.sample_haar_state(nb, rng)
        lhs = bell_magic_of_state(_tensor(a, b)).additive
        rhs = bell_magic_of_state(a).additive + bell_magic_of_state(b).additive
        bad += abs(lhs - rhs) >= 1e-9
    checks.append((bad == 0, f"additivity violations: {bad}/100"))
    # composition with stabilizer states, 100 cases
    bad = 0
    for _ in range(100):
        n_psi, n_stab = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        psi = magic.sample_haar_state(n_psi, rng)
        theta = sim.clifford_plus_t_params(n_stab, 2, 0, rng)
        stab = sim.simulate(sim.hardware_efficient_ansatz(n_stab, 2, theta))
        lhs = bell_magic_of_state(_tensor(psi, stab)).bell_magic
        rhs = bell_magic_of_state(psi).bell_magic
        bad += abs(lhs - rhs) >= 1e-9
    checks.append((bad == 0, f"composition violations: {bad}/100"))
    _report(2, checks)


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(3)
    checks = []
    # transform path vs brute-force double loop on every tested state, N <= 3
    test_dists = []
    for n in (1, 2, 3):
        test_dists.append(bell_distribution(magic.sample_haar_state(n, rng)))
        test_dists.append(
            bell_distribution(
                states.product_state(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))
            )
        )
        theta = sim.clifford_plus_t_params(n, 3, min(n, 2), rng)
        test_dists.append(
            bell_distribution(sim.simulate(sim.hardware_efficient_ansatz(n, 3, theta)))
        )
        test_dists.append(BellDistribution(n, np.full(4**n, 4.0**-n)))
        test_dists.append(bell_distribution(states.max_magic_state(n)))
    worst = max(
        abs(bell_magic_exact(d).bell_magic - bell_magic_brute(d).bell_magic)
        for d in test_dists
    )
    checks.append((worst < 1e-9, f"fast-vs-brute worst deviation {worst:.2e}"))
    # stabilizer sampler vs dense distribution, chi-square at 5 sigma
    crit_p = stats.norm.sf(5.0)
    for n in (1, 2, 3):
        tab, circ = random_clifford(n, 4, rng)
        dense = bell_distribution(sim.simulate(circ)).probabilities
        counts = np.bincount(
            bell_sample_stabilizer(tab, 100_000, rng).indices(), minlength=4**n
        )
        mask = dense > 1e-12
        chi2 = float(((counts[mask] - dense[mask] * 100_000) ** 2 / (dense[mask] * 100_000)).sum())
        threshold = stats.chi2.isf(crit_p, df=int(mask.sum()) - 1)
        off_support = int(counts[~mask].sum())
        checks.append(
            (chi2 < threshold and off_support == 0,
             f"sampler chi2 N={n}: {chi2:.1f} < {threshold:.1f}, off-support {off_support}")
        )
    _report(3, checks)


def test_criterion_4_estimator_statistics():
    checks = []
    # (a) disjoint-quadruple std matches the Bernoulli formula within 20%
    rng = np.random.default_rng(40)
    dist = bell_distribution(states.t_state())
    vals = [
        est.estimate_bell_magic(sim.sample(dist, 400, rng), rng=rng, quadruples="disjoint")[0]
        for _ in range(1000)
    ]
    predicted = est.std_bernoulli(0.5, 400)
    rel = abs(np.std(vals) - predicted) / predicted
    checks.append((rel < 0.20, f"disjoint std relative deviation {rel:.3f}"))
    # (b) log-log error slope -0.5 +- 0.1 for p in {0, 0.02} at N = 8
    rows = exp.error_vs_samples_sweep(
        8, 3, [0.0, 0.02], [100, 1000, 10_000], repetitions=300, seed=41, threads=1
    )
    for p in (0.0, 0.02):
        sub = [r for r in rows if r["p"] == p]
        slope = exp.loglog_slope([r["nq"] for r in sub], [r["mean_abs_error"] for r in sub])
        checks.append((abs(slope + 0.5) < 0.1, f"error slope at p={p}: {slope:.3f}"))
    # (c) mitigation closed loop on exact distributions
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3, 4):
        state = sim.simulate(sim.magic_input_circuit(n, 1, np.pi / 4, 3, rng))
        d0 = bell_distribution(state)
        b_true = bell_magic_exact(d0).bell_magic
        for p in (0.05, 0.1, 0.2, 0.3):
            dn = sim.noisy_bell_distribution(d0, NoiseModel(p))
            m = est.mitigate(
                bell_magic_exact(dn).bell_magic, p, float((dn.probabilities**2).sum()), n
            )
            worst = max(worst, abs(m.exact - b_true))
    checks.append((worst < 1e-6, f"closed-loop worst error {worst:.2e}"))
    _report(4, checks)


def test_criterion_5_discrimination():
    checks = []
    reps = 2000
    for phi in (np.pi / 20, np.pi / 8, np.pi / 4):
        rows = exp.error_probability_curve(
            "single", 8, phi, 0, [5, 10, 20, 50], reps, seed=int(phi * 1000), threads=1
        )
        for r in rows:
            dev = abs(r["p_error"] - r["p_error_theory"])
            tol = 3 * r["binom_std"] + 1e-9
            checks.append(
                (dev <= tol,
                 f"single phi={phi:.3f} nq={r['nq']}: pe={r['p_error']:.4f} "
                 f"theory={r['p_error_theory']:.4f} tol={tol:.4f}")
            )
    rows = exp.error_probability_curve(
        "many", 10, np.pi / 4, 10, [5, 10, 20, 50], reps, seed=55, threads=1
    )
    for r in rows:
        dev = abs(r["p_error"] - r["p_error_theory"])
        tol = 3 * r["binom_std"] + 1e-9
        checks.append(
            (dev <= tol,
             f"many nq={r['nq']}: pe={r['p_error']:.5f} theory={r['p_error_theory']:.2e}")
        )
    # threshold learner on simulated noisy data: decreasing test error, <= 0.5
    rows = exp.learning_curve(
        [20, 100, 1000], n_per_class=20, n_qubits=3, depth=2, p=0.15, n_splits=10, seed=56
    )
    errs = [r["test_error"] for r in rows]
    checks.append((all(e <= 0.5 for e in errs), f"learner errors {errs} all <= 0.5"))
    non_increasing = all(b <= a + 0.02 for a, b in zip(errs, errs[1:]))
    checks.append(
        (non_increasing and errs[-1] <= errs[0], f"learner errors decreasing: {errs}")
    )
    _report(5, checks)


def _exact_gradient(circ):
    base = sim.simulate(circ)
    return var._exact_gradient(circ, base, bell_distribution(base))


def test_criterion_6_variational():
    checks = []
    # batched exact gradient vs the per-parameter shift rule and finite
    # differences, 50 random parameter points, N <= 3
    rng = np.random.default_rng(60)
    worst = worst_shift = 0.0
    for i in range(50):
        n = 1 + i % 3
        circ = sim.hardware_efficient_ansatz(n, 2, rng.uniform(0, 2 * np.pi, 4 * n))
        k = int(rng.integers(0, circ.n_params))
        g = _exact_gradient(circ)[k]
        worst = max(worst, abs(g - gradient_finite_difference(circ, k)))
        worst_shift = max(worst_shift, abs(g - grad_bell_magic_exact(circ, k)))
    checks.append((worst < 1e-6, f"exact-vs-FD worst deviation {worst:.2e}"))
    checks.append((worst_shift < 1e-12, f"batched-vs-shift-rule worst deviation {worst_shift:.2e}"))
    # dressed-rotation identities and gradient variance 1/2 at N in {2, 6}
    worst_b = worst_g = 0.0
    for theta in np.linspace(0.1, 2 * np.pi, 9):
        circ = var.clifford_dressed_rotation(2, float(theta), 3, rng)
        b = bell_magic_of_state(sim.simulate(circ)).bell_magic
        worst_b = max(worst_b, abs(b - 0.5 * np.sin(2 * theta) ** 2))
        worst_g = max(worst_g, abs(_exact_gradient(circ)[0] - np.sin(4 * theta)))
    checks.append((worst_b < 1e-9, f"B(theta) identity worst {worst_b:.2e}"))
    checks.append((worst_g < 1e-9, f"grad identity worst {worst_g:.2e}"))
    for n in (2, 6):
        v, se = var.trainability_experiment(n, 250, np.random.default_rng(61 + n))
        checks.append((abs(v - 0.5) < 3 * se, f"gradient variance N={n}: {v:.4f} +- {se:.4f}"))
    # exact-gradient training: known maxima
    st1 = var.maximize_magic(
        1, depth=2, epochs=500, learning_rate=0.1, rng=np.random.default_rng(62), lr_decay=0.99
    )
    gap1 = 16 / 27 - st1.best()
    checks.append((gap1 < 1e-4, f"N=1 best gap {gap1:.2e} within 500 epochs"))
    wins = 0
    for s in range(10):
        st2 = var.maximize_magic(
            2, depth=6, epochs=600, learning_rate=0.1,
            rng=np.random.default_rng(100 + s), lr_decay=0.996,
        )
        wins += additive_magic(st2.best()) >= 2.67
    checks.append((wins >= 8, f"N=2 seeds reaching B_a >= 2.67: {wins}/10"))
    best3 = -np.inf
    for s in range(10):
        st3 = var.maximize_magic(
            3, depth=6, epochs=700, learning_rate=0.1,
            rng=np.random.default_rng(200 + s), lr_decay=0.995,
        )
        best3 = max(best3, additive_magic(st3.best()))
    checks.append(
        (abs(best3 - 4.651794) < 1e-2, f"N=3 best-of-10 B_a = {best3:.6f} vs 4.651794")
    )
    _report(6, checks)


def test_criterion_7_auxiliary_measures():
    checks = []
    rng = np.random.default_rng(70)
    # stabilizer Renyi entropy
    worst = 0.0
    for n in (1, 2, 3):
        _, circ = random_clifford(n, 3, rng)
        m2, mlin = magic.stabilizer_renyi(bell_distribution(sim.simulate(circ)))
        worst = max(worst, abs(m2), abs(mlin))
    checks.append((worst < 1e-9, f"M2 on stabilizers worst {worst:.2e}"))
    m2_t, _ = magic.stabilizer_renyi(bell_distribution(states.t_state()))
    checks.append((abs(m2_t - np.log2(4 / 3)) < 1e-9, f"M2(T) = {m2_t}"))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        psi = magic.sample_haar_state(n, rng)
        _, mlin = magic.stabilizer_renyi(bell_distribution(psi))
        table = sim.pauli_expectation_table(psi)
        worst = max(worst, abs(mlin - (1 - 2.0**-n * float((table**4).sum()))))
    checks.append((worst < 1e-9, f"M_lin fourth-moment identity worst {worst:.2e}"))
    # Meyer-Wallach
    e_ghz = magic.meyer_wallach(states.ghz_state(4))
    e_prod = magic.meyer_wallach(states.product_state([0.7, 2.1, 0.4], [0.2, 1.0, 2.2]))
    checks.append((abs(e_ghz - 1) < 1e-9, f"E(GHZ) = {e_ghz}"))
    checks.append((abs(e_prod) < 1e-9, f"E(product) = {e_prod}"))
    vals = [magic.meyer_wallach(magic.sample_haar_state(4, rng)) for _ in range(300)]
    se = float(np.std(vals) / np.sqrt(len(vals)))
    dev = abs(float(np.mean(vals)) - magic.haar_average_meyer_wallach(4))
    checks.append((dev < 3 * se, f"Haar Meyer-Wallach mean deviation {dev:.4f} (3se={3*se:.4f})"))
    # mitigation closed loop, exact synthetic depolarizing
    worst = 0.0
    for _ in range(20):
        psi = magic.sample_haar_state(3, rng)
        e_true = magic.meyer_wallach(psi)
        p = float(rng.uniform(0.0, 0.5))
        e_dp = (1 - p) ** 2 * e_true + p * (2 - p)
        worst = max(worst, abs(est.mitigate_meyer_wallach(e_dp, p) - e_true))
    checks.append((worst < 1e-12, f"Meyer-Wallach mitigation closed loop worst {worst:.2e}"))
    _report(7, checks)


def test_criterion_8_desk_scale_exclusions():
    # hardware curves and N = 50 tensor-network runs are out of scope; the
    # noise-scaling law is reproduced as a slope band on a log-log fit
    rows = exp.error_vs_samples_sweep(
        8, 3, [0.05, 0.1, 0.15, 0.2], [10_000], repetitions=250, seed=80, threads=1
    )
    slope = exp.loglog_slope([1 - r["p"] for r in rows], [r["mean_abs_error"] for r in rows])
    checks = [
        (-8.5 <= slope <= -6.0, f"error-vs-(1-p) log-log slope {slope:.2f} in [-8.5, -6.0]"),
        (True, "excluded at desk scale: hardware curves, N=50 tensor networks, "
               "exact hardware-fit slope values"),
    ]
    _report(8, checks)
