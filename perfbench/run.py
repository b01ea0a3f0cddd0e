"""bellmagic benchmark: end-to-end throughput per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the sources under src/ and
writes only under perfbench/out/.  Every workload process is a fresh
interpreter with BLAS/OpenMP pinned to one thread.

--trace 0  one process that times units for S seconds, between eight
           set-up-only processes.  Reports throughput (work of the passed
           units over the summed unit time), setup_s (median of the nine
           set-ups) and peak_rss_mb.
--trace 1  the same fixed list of units three times in fresh processes:
           untraced, traced, traced.  Reports every per-layer metric that
           BENCHMARK.json lists, from the first traced pass, and the tracing
           overhead against the untraced pass.  Fails unless the outputs of
           all three passes are byte-identical, the work counts of the two
           traced passes are equal, and every listed layer has calls on each
           workload its coverage table says uses it.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 2 means the sources or BENCHMARK.json are
missing, 1 that the harness itself failed; neither prints a result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s the harness may take
SETUP_SAMPLES = 9  # set-ups per timed run: eight set-up-only processes plus the timed one
HELD_OUT_SEED = 4242  # never used while tuning; validates later claims
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    pass


def spawn(deadline: float, **kw) -> dict:
    """Run one worker process to completion and return its result record."""
    result = Path(kw.pop("result"))
    argv = [sys.executable, str(WORKER), "--result", str(result)]
    for key, value in kw.items():
        if value is not None:
            argv += [f"--{key}", str(value)]
    env = {**os.environ, **THREAD_ENV}
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {kw} overran the run budget") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker {kw} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(result) as f:
        return json.load(f)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_provenance(seed: int, worker: dict) -> dict:
    return {"git_commit": git_commit(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "workload_seed": seed, "held_out_seed": HELD_OUT_SEED,
            "held_out": seed == HELD_OUT_SEED, "cli_threads": 1, **worker}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def plain(name: str, seed: int, seconds: float, tmp: Path, deadline: float) -> dict:
    def setup(i: int) -> float:
        return spawn(deadline, workload=name, seed=seed, mode="setup",
                     result=tmp / f"setup{i}.json")["setup_s"]

    # half the set-up-only processes run before the timed one and half after,
    # so the set-up samples span the run rather than one moment of it
    setups = [setup(i) for i in range(SETUP_SAMPLES // 2)]
    run = spawn(deadline, workload=name, seed=seed, mode="timed", seconds=seconds,
                result=tmp / "timed.json")
    setups += [run["setup_s"]] + [setup(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    units = run["units"]
    # Total work over total time rather than a median of unit rates: host
    # speed on a shared VM switches between levels every few seconds, and
    # the median of a bimodal sample jumps between them where the mean does not.
    done = sum(u["work"] for u in units if u["ok"])
    throughput = done / sum(u["seconds"] for u in units)
    rates = [(u["work"] if u["ok"] else 0) / u["seconds"] for u in units]
    failed = sum(not u["ok"] for u in units)
    q1, med, q3 = quartiles(rates)
    s1, smed, s3 = quartiles(setups)
    metrics = {
        "throughput": (throughput, "1/s"),
        "setup_s": (smed, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"throughput {throughput:.6g} {run['work_unit']}/s  ({done} {run['work_unit']} in "
        f"{len(units)} units; unit rates median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g})",
        f"setup_s {smed:.6g} s  (median of {len(setups)} fresh processes; "
        f"q1 {s1:.6g}, q3 {s3:.6g})",
        f"peak_rss_mb {run['peak_rss_mb']:.6g} MB  (timed process)",
        f"fail_frac {failed / len(units):.6g}  ({failed} of {len(units)} units failed)",
    ]
    return {"metrics": metrics, "attempted": len(units), "failed": failed,
            "problems": [], "notes": notes, "provenance": run["provenance"],
            "record": {"setups": setups, "units": units}}


def traced(name: str, seed: int, per_layer: list[str], tmp: Path, deadline: float) -> dict:
    base = spawn(deadline, workload=name, seed=seed, mode="fixed", result=tmp / "fixed.json")
    passes = [spawn(deadline, workload=name, seed=seed, mode="trace",
                  result=tmp / f"trace{p}.json",
                  spans=OUT / f"spans-{name}-seed{seed}-pass{p}.jsonl.gz")
              for p in (1, 2)]
    problems = []
    digests = [[u["digest"] for u in r["units"]] for r in (base, *passes)]
    if any(d != digests[0] for d in digests):
        problems.append("traced outputs differ from the untraced run's")
    counted = ("calls", "work", "bytes", "errors")
    a, b = passes[0]["layers"], passes[1]["layers"]
    for layer in sorted(set(a) | set(b)):
        if any(a.get(layer, {}).get(q) != b.get(layer, {}).get(q) for q in counted):
            problems.append(f"work counts of {layer} differ between two traced runs")
    for layer in sorted({m.rsplit(".", 1)[0] for m in per_layer} & LAYERS.keys()):
        if name in LAYERS[layer].used_on and not a.get(layer, {}).get("calls"):
            problems.append(f"coverage: {layer} is listed in BENCHMARK.json but "
                            f"records zero calls on {name}")
    plain_s = sum(u["seconds"] for u in base["units"])
    traced_s = sum(u["seconds"] for u in passes[0]["units"])
    overhead = traced_s - plain_s
    metrics = per_layer_metrics(a, overhead, overhead / plain_s, passes[0]["spans"])
    all_units = [u for r in (base, *passes) for u in r["units"]]
    failed = sum(not u["ok"] for u in all_units)
    notes = [f"{len(base['units'])} units x 3 passes; untraced {plain_s:.6g} s, traced "
             f"{traced_s:.6g} s, overhead {overhead:.6g} s ({overhead / plain_s:.3%}); "
             f"{passes[0]['spans']} spans"]
    top = sorted(a.items(), key=lambda kv: -kv[1]["self_ns"])[:8]
    notes += [f"  {layer:44s} calls {s['calls']:8d}  self {s['self_ns'] / 1e9:9.4f} s"
              for layer, s in top]
    return {"metrics": metrics, "attempted": len(all_units), "failed": failed,
            "problems": problems, "notes": notes, "provenance": passes[0]["provenance"],
            "record": {"units": {"plain": base["units"], "trace": passes[0]["units"]},
                       "layers": a}}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 deadline: float) -> dict:
    tmp = OUT / f"tmp-{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            out = traced(name, seed, [m["name"] for m in spec["per_layer"]], tmp, deadline)
        else:
            out = plain(name, seed, seconds, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    wrong = [m for m, unit in wanted.items() if out["metrics"].get(m, (0, None))[1] != unit]
    if wrong:
        raise HarnessError(f"BENCHMARK.json lists metrics the harness does not measure "
                           f"in that unit: {wrong}")
    out["metrics"] = {m: out["metrics"][m] for m in wanted}
    out["provenance"] = run_provenance(seed, out["provenance"])
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "metrics": {m: v for m, (v, _) in out["metrics"].items()},
              "problems": out["problems"], "provenance": out["provenance"], **out["record"]}
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "src" / "bellmagic" / "__init__.py").is_file():
        print(f"no bellmagic sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if a.workload == "all" else [a.workload]
    if not set(chosen) <= set(names):
        print(f"unknown workload {a.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S * len(chosen)
    results = {}
    try:
        for name in chosen:
            results[name] = out = run_workload(name, a.seed, a.seconds, bool(a.trace),
                                               spec, deadline)
            print(f"workload {name}  seed {a.seed}  trace {a.trace}")
            for line in out["notes"]:
                print(f"  {line}")
            for problem in out["problems"]:
                print(f"  FAILED CHECK: {problem}")
            print(f"  provenance {json.dumps(out['provenance'], sort_keys=True)}")
    except HarnessError as e:
        print(f"benchmark harness failed: {e}", file=sys.stderr)
        return 1
    prefix = len(chosen) > 1
    metrics = {(f"{name}.{m}" if prefix else m): {"value": v, "unit": unit}
               for name, out in results.items() for m, (v, unit) in out["metrics"].items()}
    attempted = sum(out["attempted"] for out in results.values())
    failed = sum(out["failed"] for out in results.values())
    correct = failed == 0 and not any(out["problems"] for out in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
