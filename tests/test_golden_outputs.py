"""The byte contract across commits: pinned runs must keep their output hashes.

Each CLI configuration in `CLI_RUNS` runs in-process with --threads 1, and
its CSV and JSON summary are hashed with sha256.  The runs take the BLAS
thread count the process has, as output bytes do not depend on it
(`test_cli.test_csv_bytes_do_not_depend_on_blas_threads`).
The summary is hashed without its "versions" entry, which names the
interpreter and package versions rather than anything computed.  `LIBRARY_RUNS` adds digests of
library paths that no CLI command reaches.  `tests/golden_outputs.json`
holds the hashes and the environment that made them: the numpy version,
its BLAS build and the SIMD extensions numpy found on the CPU.  When any of
those differs from the running ones, the test fails and names both, since
a different BLAS or SIMD kernel may round differently; that is not a code
change.

A change that claims bit-identical output leaves the file alone.  A change
that moves output on purpose regenerates it, and the command prints the
runs whose hashes moved, for CHANGES.md to name:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from bellmagic import cli
from bellmagic.stabilizer import bell_sample_stabilizer, random_clifford

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

# every subcommand and mode at small sizes; the N = 8 runs take several
# Bell-transform blocks through bell_amplitudes and the exact gradient
CLI_RUNS = {
    "magic-haar": ["magic", "--family", "haar", "--n", "5", "--nq", "200", "--reps", "3",
                   "--bootstrap", "20", "--seed", "1"],
    "magic-noisy": ["magic", "--family", "magic-input", "--n", "4", "--d", "2", "--na", "2",
                    "--p", "0.1", "--nq", "300", "--reps", "3", "--bootstrap", "20",
                    "--seed", "2"],
    "magic-n8": ["magic", "--family", "clifford-t", "--n", "8", "--d", "2", "--nt", "3",
                 "--nq", "100", "--reps", "2", "--seed", "3"],
    "discriminate-single": ["discriminate", "--mode", "curve", "--kind", "single", "--n", "4",
                            "--d", "2", "--na", "1", "--nq-grid", "5,10", "--reps", "20",
                            "--seed", "4"],
    "discriminate-many": ["discriminate", "--mode", "curve", "--kind", "many", "--n", "3",
                          "--na", "3", "--nq-grid", "4,8", "--reps", "20", "--seed", "5"],
    "discriminate-learn": ["discriminate", "--mode", "learn", "--n", "2", "--d", "2",
                           "--p", "0.1", "--nq-grid", "20,40", "--per-class", "6",
                           "--splits", "3", "--seed", "6"],
    "train-exact": ["train", "--n", "3", "--d", "2", "--nq", "0", "--epochs", "5",
                    "--seed", "7"],
    "train-exact-n8": ["train", "--n", "8", "--d", "1", "--nq", "0", "--epochs", "2",
                       "--seed", "8"],
    "train-sampled": ["train", "--n", "3", "--d", "1", "--nq", "50", "--epochs", "3",
                      "--seed", "9"],
    "entangle": ["entangle", "--family", "clifford-t", "--n", "3", "--d", "2", "--nt", "2",
                 "--p", "0.1", "--nq", "200", "--reps", "3", "--seed", "10"],
    "sweep-error-vs-nq": ["sweep", "--experiment", "error-vs-nq", "--n", "3", "--na", "2",
                          "--p-grid", "0.0,0.05", "--nq-grid", "20,40", "--reps", "3",
                          "--seed", "11"],
    "sweep-error-vs-p": ["sweep", "--experiment", "error-vs-p", "--n", "3", "--na", "2",
                         "--p-grid", "0.0,0.1", "--nq", "40", "--reps", "3", "--seed", "12"],
    "sweep-resampling": ["sweep", "--experiment", "resampling", "--n", "3", "--na", "2",
                         "--nq", "40", "--nr-grid", "disjoint,100", "--reps", "3",
                         "--seed", "13"],
}


def _stabilizer_65() -> str:
    """random_clifford and bell_sample_stabilizer at N = 65, two words per string."""
    rng = np.random.default_rng(14)
    tab, circuit = random_clifford(65, 3, rng)
    samples = bell_sample_stabilizer(tab, 500, rng)
    h = hashlib.sha256()
    for part in (tab.words, tab.signs, samples.words):
        h.update(np.ascontiguousarray(part).tobytes())
    h.update(repr((tab.offset.bits, [(g.name, g.qubits) for g in circuit.gates])).encode())
    return h.hexdigest()


LIBRARY_RUNS = {"stabilizer-65": _stabilizer_65}


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": sorted(config["SIMD Extensions"]["found"])}


def cli_digest(argv: list[str], out: Path) -> dict:
    assert cli.main(argv + ["--threads", "1", "--out", str(out)]) == 0, argv
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    del summary["versions"]
    text = json.dumps(summary, sort_keys=True, indent=1)
    return {"argv": argv,
            "csv": hashlib.sha256(out.read_bytes()).hexdigest(),
            "summary": hashlib.sha256(text.encode()).hexdigest()}


def digests(tmp: Path) -> dict:
    return {"environment": environment(),
            "cli": {name: cli_digest(argv, tmp / f"{name}.csv")
                    for name, argv in CLI_RUNS.items()},
            "library": {name: run() for name, run in LIBRARY_RUNS.items()}}


def moved_runs(golden: dict, got: dict) -> list[str]:
    """Names of the runs whose entries differ between two digest files."""
    return sorted(name for kind in ("cli", "library")
                  for name in golden[kind].keys() | got[kind].keys()
                  if golden[kind].get(name) != got[kind].get(name))


def test_outputs_match_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert golden["environment"] == got["environment"], (
        f"the hashes were made with {golden['environment']}, this run has "
        f"{got['environment']}; regenerate them here from the reference commit "
        "before comparing")
    moved = moved_runs(golden, got)
    assert not moved, f"output hashes moved for {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = digests(Path(tmp))
    old = json.loads(GOLDEN.read_text())
    GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
    print(f"wrote {GOLDEN}; hashes moved for: {', '.join(moved_runs(old, got)) or 'none'}",
          file=sys.stderr)
