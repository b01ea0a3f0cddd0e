"""Per-layer metric table: which bellmagic functions are measured, how their
work is counted, and on which workloads each one must be called.

A layer is a public function `<module>.<function>` of bellmagic.  Every
traced layer reports `calls`, `self_s` and `errors`; the layers below add one
work count derived from their arguments or result, so the count is a pure
function of the inputs and repeats exactly for a fixed seed.  The three
kernels also report `bytes_computed`, a model of bytes moved derived from
array sizes (computed, not measured: it ignores caches).

A layer's `used_on` set is the coverage contract: a layer listed in
BENCHMARK.json that records zero calls on one of those workloads fails the
traced run, so a refactor that rebinds a name cannot silently drop a layer
from the trace.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

DISC, STAB, TRAIN, MAGIC = "discriminate", "stabilizer-1500", "train-exact", "magic-n12"
DENSE = frozenset({DISC, TRAIN, MAGIC})
CLI = DENSE  # the three workloads that go through bellmagic.cli.main

# modules whose public functions the traced run wraps
MODULES = (
    "pauli", "simulator", "stabilizer", "magic", "estimation",
    "discrimination", "variational", "experiments", "cli",
)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _quadruples(args, kwargs, result):
    # mirrors estimate_bell_magic's documented draw: m // 4 disjoint
    # quadruples, else n_resamples (default 10 * m) resampled ones
    m = len(args[0]) if args else len(kwargs["outcomes"])
    if _arg(args, kwargs, 3, "disjoint", False):
        return m // 4
    n_r = _arg(args, kwargs, 1, "n_resamples")
    return 10 * m if n_r is None else n_r


def _fwht_bytes(args, kwargs, result):
    # log2(L) butterfly stages, each reading and writing L float64
    n = result.size
    return 16 * n * int(math.log2(n)) if n > 1 else 16 * n


def _bell_amplitudes_bytes(args, kwargs, result):
    # outer product plus one read and write of the 4^N complex array per qubit
    n = result.size
    return 16 * n * (1 + 2 * int(round(math.log(n, 4))))


def _stabilizer_sample_bytes(args, kwargs, result):
    # uint8 GF(2) products: M x N picks and two N x N tableau halves in,
    # two M x N parity matrices out, plus the packed uint64 outcome words
    m, w = result.words.shape
    n = result.n_qubits
    return m * n + 2 * n * n + 2 * m * n + 8 * m * w


class Layer(NamedTuple):
    work: str | None  # name of the work count; None when calls are the count
    count: Callable | None  # (args, kwargs, result) -> work done by one call
    nbytes: Callable | None  # (args, kwargs, result) -> computed bytes moved
    used_on: set[str] | frozenset[str]  # workloads that must call this layer


LAYERS = {
    "simulator.bell_amplitudes": Layer(
        "amplitudes", lambda a, k, r: r.size, _bell_amplitudes_bytes, DENSE),
    "simulator.cross_bell_distribution": Layer(
        "amplitudes", lambda a, k, r: r.probabilities.size, None, DENSE),
    "simulator.bell_distribution": Layer(
        "amplitudes", lambda a, k, r: r.probabilities.size, None, DENSE),
    "simulator.simulate": Layer(
        "gates", lambda a, k, r: len(_arg(a, k, 0, "circuit").gates), None, DENSE),
    "simulator.magic_input_circuit": Layer(
        "gates", lambda a, k, r: len(r.gates), None, {DISC, MAGIC}),
    "simulator.hardware_efficient_ansatz": Layer(
        "gates", lambda a, k, r: len(r.gates), None, {TRAIN}),
    "simulator.sample": Layer(
        "outcomes", lambda a, k, r: len(r), None, {DISC, MAGIC}),
    "simulator.noisy_bell_distribution": Layer(
        "outcomes", lambda a, k, r: r.probabilities.size, None, {MAGIC}),
    "magic.fwht": Layer(
        "points", lambda a, k, r: r.size, _fwht_bytes, {TRAIN, MAGIC}),
    "magic.xor_convolve": Layer(
        "points", lambda a, k, r: r.size, None, {TRAIN, MAGIC}),
    "magic.bell_magic_exact": Layer(
        "points", lambda a, k, r: _arg(a, k, 0, "dist").probabilities.size, None,
        {TRAIN, MAGIC}),
    "estimation.estimate_bell_magic": Layer(
        "quadruples", _quadruples, None, {DISC, STAB, MAGIC}),
    "pauli.symplectic_rows": Layer(
        "rows", lambda a, k, r: len(r), None, {DISC, STAB, MAGIC}),
    "estimation.estimate_magic": Layer(
        "outcomes", lambda a, k, r: r.n_outcomes, None, {MAGIC}),
    "estimation.estimate_purity": Layer(
        "outcomes", lambda a, k, r: len(_arg(a, k, 0, "outcomes")), None, {STAB, MAGIC}),
    "estimation.sum_prob_squared": Layer(
        "outcomes", lambda a, k, r: len(_arg(a, k, 0, "outcomes")), None, {MAGIC}),
    "estimation.mitigate": Layer(None, None, None, {MAGIC}),
    "stabilizer.bell_sample_stabilizer": Layer(
        "outcomes", lambda a, k, r: len(r), _stabilizer_sample_bytes, {STAB}),
    "stabilizer.conjugation_offset": Layer(
        "rows", lambda a, k, r: _arg(a, k, 0, "tableau").n_qubits, None, {STAB}),
    "stabilizer.random_clifford": Layer(
        "gates", lambda a, k, r: len(r[1].gates), None, {STAB}),
    "discrimination.classify": Layer(None, None, None, {DISC}),
    "discrimination.single_magic_family": Layer(None, None, None, {DISC}),
    "variational.optimize": Layer(
        "epochs", lambda a, k, r: len(r.history), None, {TRAIN}),
    "variational.maximize_magic": Layer(
        "epochs", lambda a, k, r: len(r.history), None, {TRAIN}),
    "experiments.error_probability_curve": Layer(
        "rows", lambda a, k, r: len(r), None, {DISC}),
    "experiments.train_experiment": Layer(
        "rows", lambda a, k, r: len(r[1]), None, {TRAIN}),
    "experiments.magic_experiment": Layer(
        "rows", lambda a, k, r: len(r), None, {MAGIC}),
    "cli.main": Layer(None, None, None, CLI),
    "cli.write_rows": Layer(
        "rows", lambda a, k, r: len(_arg(a, k, 0, "rows")), None, CLI),
}


def per_layer_metrics(stats: dict, overhead_s: float, overhead_frac: float,
                      spans: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); BENCHMARK.json lists these names.

    `stats` maps a layer to its aggregated calls, self_ns, errors, work and
    bytes; a layer the run never called reports zeros.
    """
    out = {}
    for layer, spec in LAYERS.items():
        s = stats.get(layer, {"calls": 0, "self_ns": 0, "errors": 0, "work": 0, "bytes": 0})
        out[f"{layer}.calls"] = (s["calls"], "count")
        out[f"{layer}.self_s"] = (s["self_ns"] / 1e9, "s")
        out[f"{layer}.errors"] = (s["errors"], "count")
        if spec.work:
            out[f"{layer}.{spec.work}"] = (s["work"], "count")
        if spec.nbytes:
            out[f"{layer}.bytes_computed"] = (s["bytes"], "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    out["trace.spans"] = (spans, "count")
    return out
