"""Stabilizer vs. magical state discrimination: closed forms and the learner.

A state is flagged as magical when its estimated Bell magic exceeds a
threshold (ties go to the stabilizer class).  For noiseless data the natural
threshold is zero, since stabilizer outcomes can never produce a
non-commuting quadruple; closed forms for the misclassification probability
exist for the single-magic-input family (`single_magic_family`) and for
highly magical states.  Both assume that every quadruple of the outcomes is
inspected, which the exact all-quadruple statistics of
`estimation.estimate_bell_magic` ("distinct" and "all", up to
`estimation.EXHAUSTIVE_CAP` outcomes) do without resampling.  For noisy
data the threshold is learned from labelled runs.  The simulated
repetitions that check both, including the labelled runs, live in
`experiments`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simulator
from .simulator import magic_input_circuit

STABILIZER, MAGICAL = -1, 1

TEST_FRACTION = 0.2  # share of the runs held out in each train/test split


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

    def __post_init__(self):
        if self.label not in (STABILIZER, MAGICAL):
            raise ValueError("label must be -1 or +1")
        if not np.isfinite(self.b_hat):
            raise ValueError(f"b_hat must be finite, got {self.b_hat!r}")


def learn_threshold(train: list[LabeledRun]) -> float:
    """Threshold maximizing sum_i sign(b_hat_i - B*) y_i over the training set.

    Candidates are midpoints of adjacent sorted estimates plus sentinels that
    express "always one class"; ties break toward the smallest threshold.
    """
    labels = {r.label for r in train}
    if labels != {STABILIZER, MAGICAL}:
        raise ValueError("training data needs at least one run of each class")
    b = np.array([r.b_hat for r in train])
    y = np.array([r.label for r in train])
    values, which = np.unique(b, return_inverse=True)
    candidates = np.concatenate(([-np.inf], (values[1:] + values[:-1]) / 2, [values[-1] + 1.0]))
    # candidate k lies above the k smallest distinct values, whose runs then score -y
    scores = y.sum() - 2 * np.concatenate(([0.0], np.cumsum(np.bincount(which, weights=y))))
    return float(candidates[np.argmax(scores)])  # argmax takes the first, smallest, maximum


def classification_error(runs: list[LabeledRun], threshold: float) -> float:
    wrong = sum(1 for r in runs if classify(r.b_hat, threshold) != r.label)
    return wrong / len(runs)


def single_magic_family(n_qubits: int, phi: float, depth: int = 4):
    """Fresh random Clifford on one magic-angle qubit per call."""

    def make(rng: np.random.Generator) -> simulator.StateVector:
        return simulator.simulate(magic_input_circuit(n_qubits, 1, phi, depth, rng))

    return make


def train_test_split_error(
    runs: list[LabeledRun],
    n_splits: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean train/test error of the learned threshold over random splits.

    Splits whose training part lacks a class are skipped; ValueError when
    every split does.
    """
    runs = list(runs)
    n_test = max(1, int(round(TEST_FRACTION * len(runs))))
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
    if not train_errs:
        raise ValueError("no train/test split has runs of both classes")
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
