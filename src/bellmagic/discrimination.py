"""Stabilizer vs. magical state discrimination.

A state is flagged as magical when its estimated Bell magic exceeds a
threshold (ties go to the stabilizer class).  For noiseless data the natural
threshold is zero, since stabilizer outcomes can never produce a
non-commuting quadruple; closed forms for the misclassification probability
exist for the single-magic-input family and for highly magical states.  For
noisy data the threshold is learned from labelled runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimation, simulator
from .simulator import CircuitSpec, magic_input_circuit

STABILIZER, MAGICAL = -1, 1

# the error formulas assume essentially all quadruples are inspected
LARGE_RESAMPLE_FACTOR = 50


def classify(b_hat: float, threshold: float) -> int:
    """+1 (magical) when b_hat exceeds the threshold, else -1 (stabilizer)."""
    return MAGICAL if b_hat > threshold else STABILIZER


def p_error_single_magic(phi: float, n_outcomes: int) -> float:
    """Misclassification probability for one magic-angle input qubit.

    Probability that `n_outcomes` Bell samples of a Clifford circuit with a
    single cos(phi/2)|0> + sin(phi/2)|1> input never reveal a non-commuting
    quadruple (threshold zero, all quadruples inspected).
    """
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    m = n_outcomes
    c2 = np.cos(2 * phi)

    def power_term(base: float, denom: float) -> float:
        # base^m / denom^m in log space; stable for thousands of outcomes
        if base <= 0.0:
            return 0.0
        return float(np.exp(m * (np.log(base) - np.log(denom))))

    return (
        power_term(3 - c2, 4) + power_term(3 + c2, 4)
        - power_term(np.sin(phi) ** 2, 2) - power_term(c2 * c2, 2)
    )


def p_error_random(n_outcomes: int) -> float:
    """Misclassification probability for highly magical states.

    Probability that the n_outcomes - 1 independent Pauli strings obtained by
    XORing random outcomes all pairwise commute.
    """
    if n_outcomes < 2:
        raise ValueError("need at least two outcomes")
    return float(2.0 ** (-(n_outcomes - 1) * (n_outcomes - 2) / 2))


def small_angle_samples(phi: float, p_error: float) -> float:
    """Heuristic sample budget -2 log(P_E)/phi^2 for small angles."""
    return -2 * np.log(p_error) / phi**2


def two_class_samples(b_alpha: float, b_beta: float, p: float = 0.0) -> float:
    """Order-of-magnitude sample budget to tell two magic levels apart.

    Heuristic only: the estimation error must undercut the magic gap, and
    depolarizing mitigation inflates the budget by (1-p)^-16.  No constant
    factor is implied.
    """
    if b_alpha <= b_beta:
        raise ValueError("first class must carry more magic")
    if not 0.0 <= p < 1.0:
        raise ValueError("depolarizing probability must be in [0, 1)")
    return 1.0 / ((1 - p) ** 16 * (b_alpha - b_beta) ** 2)


@dataclass
class LabeledRun:
    """One measured state with its known class label."""

    b_hat: float
    label: int
    n_outcomes: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.label not in (STABILIZER, MAGICAL):
            raise ValueError("label must be -1 or +1")


def learn_threshold(train: list[LabeledRun]) -> float:
    """Threshold maximizing sum_i sign(b_hat_i - B*) y_i over the training set.

    Candidates are midpoints of adjacent sorted estimates plus sentinels that
    express "always one class"; ties break toward the smallest threshold.
    """
    labels = {r.label for r in train}
    if labels != {STABILIZER, MAGICAL}:
        raise ValueError("training data needs at least one run of each class")
    values = np.array(sorted({r.b_hat for r in train}))
    candidates = [-np.inf]
    candidates += list((values[1:] + values[:-1]) / 2)
    candidates += [values[-1] + 1.0]
    b = np.array([r.b_hat for r in train])
    y = np.array([r.label for r in train])
    best, best_score = None, -np.inf
    for c in candidates:
        score = float(np.sum(np.where(b > c, 1, -1) * y))
        if score > best_score:
            best, best_score = c, score
    return float(best)


def classification_error(runs: list[LabeledRun], threshold: float) -> float:
    wrong = sum(1 for r in runs if classify(r.b_hat, threshold) != r.label)
    return wrong / len(runs)


# ---------------------------------------------------------------------------
# State families and the Monte-Carlo error harness


def single_magic_family(n_qubits: int, phi: float, depth: int = 4):
    """Fresh random Clifford on one magic-angle qubit per call."""

    def make(rng: np.random.Generator) -> simulator.StateVector:
        return simulator.simulate(magic_input_circuit(n_qubits, 1, phi, depth, rng))

    return make


def many_magic_family(n_qubits: int, n_magic: int, depth: int = 4):
    """Fresh random Clifford on n_magic T-angle qubits per call."""

    def make(rng: np.random.Generator) -> simulator.StateVector:
        return simulator.simulate(
            magic_input_circuit(n_qubits, n_magic, np.pi / 4, depth, rng)
        )

    return make


def stabilizer_family(n_qubits: int, depth: int = 4):
    """Fresh random stabilizer state per call."""

    def make(rng: np.random.Generator) -> simulator.StateVector:
        return simulator.simulate(magic_input_circuit(n_qubits, 0, 0.0, depth, rng))

    return make


def monte_carlo_error(
    family,
    n_outcomes: int,
    repetitions: int,
    rng: np.random.Generator,
    resample_factor: int = LARGE_RESAMPLE_FACTOR,
    with_replacement: bool = False,
) -> float:
    """Empirical probability that a magical state estimates to exactly zero.

    Every repetition draws a fresh circuit from the family and fresh samples,
    runs the resampling estimator with threshold zero and counts misses.
    Set `with_replacement` when validating the random-string law: its
    derivation counts pairwise commutation of the derived strings, and
    distinct-index quadruples cannot see the all-pairs-anticommuting
    configuration (which doubles the miss probability).
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    misses = 0
    for _ in range(repetitions):
        state = family(rng)
        dist = simulator.bell_distribution(state)
        samples = simulator.sample(dist, n_outcomes, rng)
        b_hat, _ = estimation.estimate_bell_magic(
            samples, resample_factor * n_outcomes, rng,
            with_replacement=with_replacement,
        )
        if classify(b_hat, 0.0) == STABILIZER:
            misses += 1
    return misses / repetitions


# ---------------------------------------------------------------------------
# Threshold-learning experiment on simulated noisy data


def _measure_family_run(
    state: simulator.StateVector,
    label: int,
    p: float,
    n_outcomes: int,
    rng: np.random.Generator,
) -> LabeledRun:
    dist = simulator.noisy_bell_distribution(
        simulator.bell_distribution(state), simulator.NoiseModel(p)
    )
    samples = simulator.sample(dist, n_outcomes, rng)
    result = estimation.estimate_magic(samples, rng)
    feature = result.b_mtg_exact if result.b_mtg_exact is not None else result.b_hat
    return LabeledRun(feature, label, n_outcomes, {"p": p})


def threshold_learning_runs(
    n_per_class: int,
    n_qubits: int,
    depth: int,
    p: float,
    n_outcomes: int,
    rng: np.random.Generator,
) -> list[LabeledRun]:
    """Labelled mitigated-magic estimates for stabilizer vs. random states.

    The magical class uses the layered ansatz with uniformly random angles;
    the stabilizer class uses random pi/2 multiples.  Both are measured
    through a global depolarizing channel of strength p.
    """
    runs = []
    k = 2 * n_qubits * depth
    for _ in range(n_per_class):
        theta = simulator.clifford_plus_t_params(n_qubits, depth, 0, rng)
        state = simulator.simulate(simulator.hardware_efficient_ansatz(n_qubits, depth, theta))
        runs.append(_measure_family_run(state, STABILIZER, p, n_outcomes, rng))
        theta = rng.uniform(0, 2 * np.pi, size=k)
        state = simulator.simulate(simulator.hardware_efficient_ansatz(n_qubits, depth, theta))
        runs.append(_measure_family_run(state, MAGICAL, p, n_outcomes, rng))
    return runs


def train_test_split_error(
    runs: list[LabeledRun],
    n_splits: int,
    rng: np.random.Generator,
    test_fraction: float = 0.2,
) -> tuple[float, float]:
    """Mean train/test error of the learned threshold over random splits."""
    runs = list(runs)
    n_test = max(1, int(round(test_fraction * len(runs))))
    train_errs, test_errs = [], []
    for _ in range(n_splits):
        order = rng.permutation(len(runs))
        test = [runs[i] for i in order[:n_test]]
        train = [runs[i] for i in order[n_test:]]
        if {r.label for r in train} != {STABILIZER, MAGICAL}:
            continue
        thr = learn_threshold(train)
        train_errs.append(classification_error(train, thr))
        test_errs.append(classification_error(test, thr))
    return float(np.mean(train_errs)), float(np.mean(test_errs))


def runs_to_csv_rows(runs: list[LabeledRun], seed: int | None = None) -> list[dict]:
    return [
        {"b_hat": r.b_hat, "label": r.label, "n_outcomes": r.n_outcomes, "seed": seed}
        for r in runs
    ]


def runs_from_csv_rows(rows) -> list[LabeledRun]:
    return [
        LabeledRun(float(row["b_hat"]), int(row["label"]), int(row["n_outcomes"]))
        for row in rows
    ]
