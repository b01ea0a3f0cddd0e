"""The four benchmark workloads: seeded inputs, one timed unit each, correctness gates.

Each workload calls bellmagic only through public entry points: the
`bellmagic` CLI in-process via `bellmagic.cli.main(argv)` with `--threads 1`,
or the library calls the README shows.  Calls go through module attributes
looked up at call time, so the traced run's wrappers see them.

A unit is the smallest piece of work that is timed and checked on its own.
Its inputs come from the workload seed and the unit index alone, and only
the derived seed reaches the program.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os

import numpy as np

import bellmagic
import bellmagic.cli

WARM_UP_INDEX = 1 << 20  # spawn key of the warm-up unit, never a timed unit's


def unit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def binomial_window(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2, X ~ Bin(n, p)."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    lo, tail = 0, 0.0
    while lo < n and tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = n, 0.0
    while hi > 0 and tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


class Workload:
    name = ""
    work_unit = ""  # what `work_per_unit` counts; throughput is work units per second
    work_per_unit = 1
    trace_units = 1  # fixed unit count of a traced run, so work counts repeat exactly

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> tuple[bool, str]:
        """Run one unit; return (gate passed, digest of the unit's output)."""
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose unit is one `bellmagic` CLI invocation writing a CSV."""

    def argv(self, seed: int, warm_up: bool) -> list[str]:
        raise NotImplementedError

    def gate(self, rows: list[dict]) -> bool:
        raise NotImplementedError

    def warm_up(self) -> None:
        self._invoke(unit_seed(self.seed, WARM_UP_INDEX), warm_up=True)

    def run_unit(self, index: int) -> tuple[bool, str]:
        ok, data, rows = self._invoke(unit_seed(self.seed, index), warm_up=False)
        return ok and self.gate(rows), hashlib.sha256(data).hexdigest()

    def _invoke(self, seed: int, warm_up: bool) -> tuple[bool, bytes, list[dict]]:
        path = os.path.join(self.out_dir, f"unit-{os.getpid()}.csv")
        argv = self.argv(seed, warm_up) + ["--seed", str(seed), "--threads", "1", "--out", path]
        code = bellmagic.cli.main(argv)
        try:
            with open(path, "rb") as f:
                table = f.read()
            with open(path + ".summary.json", "rb") as f:
                summary = f.read()
        finally:
            for p in (path, path + ".summary.json"):
                if os.path.exists(p):
                    os.remove(p)
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        return code == 0, table + summary, rows


class Discriminate(CliWorkload):
    name = "discriminate"
    work_unit = "reps"
    work_per_unit = 100
    trace_units = 4
    PHI = "0.3927"
    NQ_GRID = (5, 10, 20, 50)
    # per-check false-alarm rate; ~10^4 checks over a full multi-run check
    # keep the family-wise false-alarm probability near 10^-5
    ALPHA = 1e-9

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        theory = bellmagic.discrimination.p_error_single_magic
        self.theory = {nq: theory(float(self.PHI), nq) for nq in self.NQ_GRID}
        self.window = {nq: binomial_window(self.work_per_unit, p, self.ALPHA)
                       for nq, p in self.theory.items()}

    def argv(self, seed, warm_up):
        reps = 2 if warm_up else self.work_per_unit
        return ["discriminate", "--mode", "curve", "--kind", "single", "--n", "8",
                "--d", "4", "--phi", self.PHI, "--nq-grid", ",".join(map(str, self.NQ_GRID)),
                "--reps", str(reps)]

    def gate(self, rows):
        """Miss counts inside the exact binomial window of the closed-form law."""
        if [int(r["nq"]) for r in rows] != list(self.NQ_GRID):
            return False
        for r in rows:
            nq = int(r["nq"])
            misses = round(float(r["p_error"]) * self.work_per_unit)
            lo, hi = self.window[nq]
            if float(r["p_error_theory"]) != self.theory[nq] or not lo <= misses <= hi:
                return False
        return True


class TrainExact(CliWorkload):
    name = "train-exact"
    work_unit = "epochs"
    work_per_unit = 20
    trace_units = 3

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.bound = bellmagic.pure_state_bound(3)

    def argv(self, seed, warm_up):
        epochs = 2 if warm_up else self.work_per_unit
        return ["train", "--n", "3", "--d", "6", "--lr", "0.1", "--lr-decay", "0.995",
                "--nq", "0", "--epochs", str(epochs)]

    def gate(self, rows):
        """Every epoch's exact B is finite and within [0, pure_state_bound(3)]."""
        if len(rows) != self.work_per_unit:
            return False
        bs = [float(r["b"]) for r in rows]
        return all(math.isfinite(b) and 0.0 <= b <= self.bound for b in bs)


class MagicN12(CliWorkload):
    name = "magic-n12"
    work_unit = "states"
    work_per_unit = 1
    trace_units = 1
    NA = 3

    def argv(self, seed, warm_up):
        n = 4 if warm_up else 12
        return ["magic", "--family", "magic-input", "--n", str(n), "--d", "4",
                "--na", str(self.NA), "--phi", "0.7854", "--p", "0.1", "--nq", "10000"]

    def gate(self, rows):
        """The additive exact magic counts the magic inputs to 1e-9."""
        return len(rows) == 1 and abs(float(rows[0]["b_a_exact"]) - self.NA) <= 1e-9


class Stabilizer1500(Workload):
    name = "stabilizer-1500"
    work_unit = "outcomes"
    work_per_unit = 2000
    trace_units = 1
    N, DEPTH, RESAMPLES = 1500, 3, 20000

    def warm_up(self):
        self._state(unit_seed(self.seed, WARM_UP_INDEX), 16, 64)

    def run_unit(self, index):
        """b_hat and purity of a stabilizer state are exactly 0 and 1."""
        b_hat, b_a, purity, words = self._state(
            unit_seed(self.seed, index), self.N, self.work_per_unit)
        digest = hashlib.sha256(repr((b_hat, b_a, purity)).encode() + words).hexdigest()
        return b_hat == 0.0 and purity == 1.0, digest

    def _state(self, seed, n, m):
        rng = np.random.default_rng(seed)
        tableau, _ = bellmagic.random_clifford(n, self.DEPTH, rng)
        samples = bellmagic.bell_sample_stabilizer(tableau, m, rng)
        b_hat, b_a = bellmagic.estimate_bell_magic(samples, self.RESAMPLES, rng)
        return b_hat, b_a, bellmagic.estimate_purity(samples), samples.words.tobytes()


WORKLOADS = {w.name: w for w in (Discriminate, Stabilizer1500, TrainExact, MagicN12)}
