"""One fresh benchmark process: set up a workload, then time (and optionally trace) its units.

Invoked by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|timed|fixed|trace
        [--seconds S] --t0 T --result PATH [--spans PATH]

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` spans interpreter start, imports, input generation and
warm-up.  Mode `timed` runs units until the next one would end past
`--seconds`; `fixed` and `trace` run the workload's fixed list of
`trace_units`, untraced and traced.  The result is one JSON file; stdout is
left to the program under test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def provenance() -> dict:
    import numpy as np

    import bellmagic

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "bellmagic": bellmagic.__version__,
        "bellmagic_path": str(Path(bellmagic.__file__).resolve().parent),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    a = ap.parse_args()

    tracer = None
    if a.mode == "trace":
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from workloads import WORKLOADS

    wl = WORKLOADS[a.workload](a.seed, str(Path(a.result).parent))
    wl.warm_up()
    setup_s = time.monotonic() - a.t0
    result = {"setup_s": setup_s, "provenance": provenance(), "units": [],
              "work_unit": wl.work_unit}
    if a.mode != "setup":
        start = time.monotonic()
        while True:
            index = len(result["units"])
            if tracer:
                tracer.unit = index
            t = time.perf_counter()
            try:
                ok, digest = wl.run_unit(index)
            except Exception:  # a failed unit is counted, the run goes on
                traceback.print_exc()
                ok, digest = False, None
            dt = time.perf_counter() - t
            result["units"].append({"index": index, "seconds": dt, "ok": ok,
                                    "work": wl.work_per_unit, "digest": digest})
            if a.mode != "timed":
                if index + 1 >= wl.trace_units:
                    break
            elif (time.monotonic() - start
                  + statistics.median(u["seconds"] for u in result["units"]) > a.seconds):
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.aggregate()
        result["spans"] = len(tracer.spans)
        tracer.write(a.spans)
    with open(a.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
