"""Experiment drivers: every simulated repetition loop behind the CLI and tests.

One recipe runs everywhere: build a state, take Bell samples of two copies
through depolarizing noise (`_bell_samples`), estimate.  Every driver takes
a master seed and hands its per-repetition worker to `_run_reps`, which
spawns one child seed per repetition and returns results in repetition
order, so output is byte-identical for a fixed (config, seed) regardless of
the worker count.  `discrimination` keeps the closed forms and the learner.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import discrimination, estimation, magic, simulator, states, variational
from .pauli import BellSamples
from .simulator import NoiseModel, StateVector

FAMILIES = (
    "t-product", "r-product", "plus-product", "max", "haar",
    "clifford-t", "magic-input", "ghz",
)


def default_threads() -> int:
    return os.cpu_count() or 1


def _run_reps(worker, fixed: tuple, seed: int, repetitions: int, threads: int) -> list:
    """[worker(fixed + (child_seed, rep)) for each rep], serially or in a process pool.

    One 32-bit child seed per repetition is spawned from the master seed.
    """
    seeds = np.random.SeedSequence(seed).spawn(repetitions)
    args = [fixed + (int(s.generate_state(1)[0]), r) for r, s in enumerate(seeds)]
    if threads <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, args, chunksize=max(1, len(args) // (4 * threads))))


def _bell_samples(state: StateVector, p: float, nq: int, rng: np.random.Generator):
    """The noiseless two-copy Bell distribution, and nq samples through depolarizing noise p."""
    dist = simulator.bell_distribution(state)
    noisy = simulator.noisy_bell_distribution(dist, NoiseModel(p))
    return dist, simulator.sample(noisy, nq, rng)


def build_family_state(
    family: str,
    n_qubits: int,
    depth: int,
    n_tgates: int,
    n_magic: int,
    phi: float,
    rng: np.random.Generator,
) -> StateVector:
    """One state from the named family (fresh randomness where applicable)."""
    if family == "t-product":
        return states.product_state([np.pi / 2] * n_qubits, [np.pi / 4] * n_qubits)
    if family == "r-product":
        theta = np.arccos(1 / np.sqrt(3))
        return states.product_state([theta] * n_qubits, [np.pi / 4] * n_qubits)
    if family == "plus-product":
        return states.plus_state(n_qubits)
    if family == "max":
        return states.max_magic_state(n_qubits)
    if family == "haar":
        return magic.sample_haar_state(n_qubits, rng)
    if family == "clifford-t":
        theta = simulator.clifford_plus_t_params(n_qubits, depth, n_tgates, rng)
        return simulator.simulate(simulator.hardware_efficient_ansatz(n_qubits, depth, theta))
    if family == "magic-input":
        return simulator.simulate(
            simulator.magic_input_circuit(n_qubits, n_magic, phi, depth, rng)
        )
    if family == "ghz":
        return states.ghz_state(n_qubits)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


# ---------------------------------------------------------------------------
# magic: per-repetition estimation of a family state


def _magic_rep(args) -> dict:
    (family, n, depth, nt, na, phi, p, nq, nr, boot, seed, rep) = args
    rng = np.random.default_rng(seed)
    state = build_family_state(family, n, depth, nt, na, phi, rng)
    dist, samples = _bell_samples(state, p, nq, rng)
    exact = magic.bell_magic_exact(dist)
    res = estimation.estimate_magic(samples, rng, n_resamples=nr, n_bootstrap=boot)
    return {
        "rep": rep,
        "family": family,
        "n": n,
        "nq": nq,
        "nr": res.n_resamples,
        "p": p,
        "b_exact": exact.bell_magic,
        "b_a_exact": exact.additive,
        "b_hat": res.b_hat,
        "b_a_hat": res.b_a_hat,
        "purity_hat": res.purity_hat,
        "p_hat": res.p_hat,
        "b_mtg_exact": res.b_mtg_exact,
        "b_mtg_approx": res.b_mtg_approx,
        "std_plugin": res.std_plugin,
        "bootstrap_std": res.bootstrap_std,
        "seed": seed,
    }


def magic_experiment(
    family: str,
    n_qubits: int,
    depth: int = 4,
    n_tgates: int = 0,
    n_magic: int = 0,
    phi: float = np.pi / 4,
    p: float = 0.0,
    n_outcomes: int = 1000,
    n_resamples: int | None = None,
    repetitions: int = 1,
    n_bootstrap: int = 0,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    fixed = (family, n_qubits, depth, n_tgates, n_magic, phi, p, n_outcomes, n_resamples,
             n_bootstrap)
    return _run_reps(_magic_rep, fixed, seed, repetitions, threads)


# ---------------------------------------------------------------------------
# sweep: estimation error against samples / noise / resampling steps


def _error_grid_rep(args) -> list[float]:
    # one fresh circuit per repetition; every (p, nq) grid point gets fresh
    # i.i.d. samples (noise mixes of the same state, sample prefixes)
    (n, na, phi, depth, p_values, nq_values, seed, _) = args
    rng = np.random.default_rng(seed)
    state = simulator.simulate(simulator.magic_input_circuit(n, na, phi, depth, rng))
    dist = simulator.bell_distribution(state)
    b_exact = magic.bell_magic_exact(dist).bell_magic
    errs = []
    for p in p_values:
        noisy = simulator.noisy_bell_distribution(dist, NoiseModel(p))
        samples = simulator.sample(noisy, max(nq_values), rng)
        for nq in nq_values:
            sub = BellSamples(n, samples.words[:nq])
            res = estimation.estimate_magic(sub, rng)
            b_mtg = res.b_mtg_exact if res.b_mtg_exact is not None else 2.0
            errs.append(abs(b_mtg - b_exact))
    return errs


def mitigated_error_grid(
    n_qubits: int,
    n_magic: int,
    p_values,
    nq_values,
    repetitions: int,
    seed: int,
    threads: int = 1,
    depth: int = 4,
) -> np.ndarray:
    """Mean |mitigated - exact| per (p, nq) grid point; fresh circuit per rep."""
    fixed = (n_qubits, n_magic, np.pi / 4, depth, tuple(p_values), tuple(nq_values))
    errs = np.array(_run_reps(_error_grid_rep, fixed, seed, repetitions, threads))
    return errs.mean(axis=0).reshape(len(p_values), len(nq_values))


def error_vs_samples_sweep(
    n_qubits: int,
    n_magic: int,
    p_values,
    nq_values,
    repetitions: int,
    seed: int,
    threads: int = 1,
    depth: int = 4,
) -> list[dict]:
    """Mean mitigated error per (p, N_Q); log-log slope vs N_Q is about -1/2."""
    mean_err = mitigated_error_grid(
        n_qubits, n_magic, p_values, nq_values, repetitions, seed, threads, depth
    )
    return [
        {"n": n_qubits, "na": n_magic, "p": p, "nq": nq, "nr": 10 * nq,
         "mean_abs_error": float(mean_err[i, j]), "seed": seed}
        for i, p in enumerate(p_values)
        for j, nq in enumerate(nq_values)
    ]


def error_vs_noise_sweep(
    n_qubits: int,
    n_magic: int,
    p_values,
    n_outcomes: int,
    repetitions: int,
    seed: int,
    threads: int = 1,
    depth: int = 4,
) -> list[dict]:
    """Mean mitigated error per p at fixed N_Q; slope vs log(1-p) is about -8."""
    mean_err = mitigated_error_grid(
        n_qubits, n_magic, p_values, [n_outcomes], repetitions, seed, threads, depth
    )
    return [
        {"n": n_qubits, "na": n_magic, "p": p, "nq": n_outcomes,
         "mean_abs_error": float(mean_err[i, 0]), "seed": seed}
        for i, p in enumerate(p_values)
    ]


def loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def _resample_rep(args) -> float:
    (n, na, depth, nq, nr, disjoint, seed, _) = args
    rng = np.random.default_rng(seed)
    state = simulator.simulate(simulator.magic_input_circuit(n, na, np.pi / 4, depth, rng))
    dist, samples = _bell_samples(state, 0.0, nq, rng)
    b_exact = magic.bell_magic_exact(dist).bell_magic
    b_hat, _ = estimation.estimate_bell_magic(samples, nr, rng, disjoint=disjoint)
    return abs(b_hat - b_exact)


def resampling_sweep(
    n_qubits: int,
    n_magic: int,
    n_outcomes: int,
    nr_values,
    repetitions: int,
    seed: int,
    threads: int = 1,
    depth: int = 4,
) -> list[dict]:
    """Estimation error against the number of resampling trials (noise-free)."""
    rows = []
    for i, nr in enumerate(nr_values):
        disjoint = nr == "disjoint"
        fixed = (n_qubits, n_magic, depth, n_outcomes, None if disjoint else int(nr), disjoint)
        errs = _run_reps(_resample_rep, fixed, seed + 15485863 * i, repetitions, threads)
        rows.append({
            "n": n_qubits, "na": n_magic, "nq": n_outcomes,
            "nr": n_outcomes // 4 if disjoint else int(nr),
            "mode": "disjoint" if disjoint else "resample",
            "mean_abs_error": float(np.mean(errs)),
            "std_error": float(np.std(errs)),
            "seed": seed,
        })
    return rows


# ---------------------------------------------------------------------------
# discriminate


def _pe_grid_rep(args) -> list[int]:
    # fresh circuit and fresh i.i.d. samples per repetition; the N_Q grid is
    # evaluated on prefixes of one batch of max(N_Q) samples
    (kind, n, na, phi, depth, nq_values, seed, _) = args
    rng = np.random.default_rng(seed)
    if kind == "single":
        state = discrimination.single_magic_family(n, phi, depth)(rng)
    else:
        state = build_family_state("magic-input", n, depth, 0, na, np.pi / 4, rng)
    _, samples = _bell_samples(state, 0.0, max(nq_values), rng)
    misses = []
    for nq in nq_values:
        sub = BellSamples(n, samples.words[:nq])
        b_hat, _ = estimation.estimate_bell_magic(
            sub, discrimination.LARGE_RESAMPLE_FACTOR * nq, rng, with_replacement=kind == "many"
        )
        misses.append(int(discrimination.classify(b_hat, 0.0) == discrimination.STABILIZER))
    return misses


def error_probability_curve(
    kind: str,
    n_qubits: int,
    phi: float,
    n_magic: int,
    nq_values,
    repetitions: int,
    seed: int,
    threads: int = 1,
    depth: int = 4,
) -> list[dict]:
    """Empirical misclassification probability vs theory per N_Q.

    The random-string law ('many' kind) is validated with with-replacement
    resampling, since its derivation inspects all pairs of the
    derived strings; distinct-index quadruples cannot see the
    all-pairs-anticommuting configuration, which doubles the miss rate.
    """
    nq_values = list(nq_values)
    fixed = (kind, n_qubits, n_magic, phi, depth, tuple(nq_values))
    misses = np.array(_run_reps(_pe_grid_rep, fixed, seed, repetitions, threads))
    rows = []
    for j, nq in enumerate(nq_values):
        pe = float(misses[:, j].mean())
        theory = (
            discrimination.p_error_single_magic(phi, nq)
            if kind == "single"
            else discrimination.p_error_random(nq)
        )
        rows.append({
            "kind": kind, "n": n_qubits, "phi": phi, "na": n_magic, "nq": nq,
            "reps": repetitions, "p_error": pe, "p_error_theory": theory,
            "binom_std": float(np.sqrt(max(theory * (1 - theory), 1e-12) / repetitions)),
            "seed": seed,
        })
    return rows


def threshold_learning_runs(
    n_per_class: int,
    n_qubits: int,
    depth: int,
    p: float,
    n_outcomes: int,
    rng: np.random.Generator,
) -> list[discrimination.LabeledRun]:
    """Labelled mitigated-magic estimates for stabilizer vs. random states.

    The magical class uses the layered ansatz with uniformly random angles;
    the stabilizer class uses random pi/2 multiples (the clifford-t family
    without T angles).  Both are measured through a global depolarizing
    channel of strength p.
    """

    def measure(state: StateVector, label: int) -> discrimination.LabeledRun:
        _, samples = _bell_samples(state, p, n_outcomes, rng)
        res = estimation.estimate_magic(samples, rng)
        feature = res.b_mtg_exact if res.b_mtg_exact is not None else res.b_hat
        return discrimination.LabeledRun(feature, label, n_outcomes)

    runs = []
    for _ in range(n_per_class):
        state = build_family_state("clifford-t", n_qubits, depth, 0, 0, 0.0, rng)
        runs.append(measure(state, discrimination.STABILIZER))
        theta = rng.uniform(0, 2 * np.pi, size=2 * n_qubits * depth)
        state = simulator.simulate(simulator.hardware_efficient_ansatz(n_qubits, depth, theta))
        runs.append(measure(state, discrimination.MAGICAL))
    return runs


def learning_curve(
    nq_values,
    n_per_class: int,
    n_qubits: int,
    depth: int,
    p: float,
    n_splits: int,
    seed: int,
) -> list[dict]:
    """Learned-threshold train/test error per N_Q on simulated noisy data."""
    rows = []
    for i, nq in enumerate(nq_values):
        rng = np.random.default_rng(seed + 49979687 * i)
        runs = threshold_learning_runs(n_per_class, n_qubits, depth, p, nq, rng)
        train_err, test_err = discrimination.train_test_split_error(runs, n_splits, rng)
        rows.append({
            "nq": nq, "n": n_qubits, "p": p, "n_per_class": n_per_class,
            "train_error": train_err, "test_error": test_err, "seed": seed,
        })
    return rows


# ---------------------------------------------------------------------------
# train / entangle


def train_experiment(
    n_qubits: int,
    depth: int,
    epochs: int,
    learning_rate: float,
    n_outcomes: int | None,
    seed: int,
    lr_decay: float = 1.0,
) -> tuple[variational.TrainState, list[dict]]:
    rng = np.random.default_rng(seed)
    state = variational.maximize_magic(
        n_qubits, depth, epochs, learning_rate,
        n_samples=n_outcomes, rng=rng, lr_decay=lr_decay,
    )
    rows = [
        {"epoch": e + 1, "b": state.history[e], "grad_norm": state.grad_norms[e],
         "lr": learning_rate * lr_decay**e, "seed": seed}
        for e in range(len(state.history))
    ]
    return state, rows


def _entangle_rep(args) -> dict:
    (family, n, depth, nt, na, phi, p, nq, seed, rep) = args
    rng = np.random.default_rng(seed)
    state = build_family_state(family, n, depth, nt, na, phi, rng)
    e_exact = magic.meyer_wallach(state)
    _, samples = _bell_samples(state, p, nq, rng)
    p_hat = estimation.estimate_depolarization(estimation.estimate_purity(samples), n)
    if p_hat < 1.0:
        e_raw, e_mtg = estimation.estimate_meyer_wallach(samples, p_hat)
    else:
        e_raw, _ = estimation.estimate_meyer_wallach(samples)
        e_mtg = float("nan")
    return {"rep": rep, "family": family, "n": n, "nq": nq, "p": p,
            "e_exact": e_exact, "e_raw": e_raw, "e_mtg": e_mtg,
            "p_hat": p_hat, "seed": seed}


def entangle_experiment(
    family: str,
    n_qubits: int,
    depth: int = 4,
    n_tgates: int = 0,
    n_magic: int = 0,
    phi: float = np.pi / 4,
    p: float = 0.0,
    n_outcomes: int = 1000,
    repetitions: int = 1,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    fixed = (family, n_qubits, depth, n_tgates, n_magic, phi, p, n_outcomes)
    return _run_reps(_entangle_rep, fixed, seed, repetitions, threads)
