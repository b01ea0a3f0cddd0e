"""CLI contract: subcommands, config merging, determinism, exit codes."""
import concurrent.futures
import csv
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bellmagic
from bellmagic import cli, estimation, experiments
from bellmagic.cli import main


def run(args):
    return main(args)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_magic_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run(["magic", "--family", "t-product", "--n", "3", "--nq", "200",
                "--reps", "2", "--seed", "5", "--threads", "1", "--out", str(out)])
    assert code == 0
    # stdout carries data only: with --out it stays empty
    captured = capsys.readouterr()
    assert captured.out == "" and f"wrote 2 rows to {out}" in captured.err
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["b_a_exact"]) == pytest.approx(3.0)
    summary = json.loads((tmp_path / "rows.csv.summary.json").read_text())
    assert summary["command"] == "magic" and summary["config"]["seed"] == 5


def test_determinism_across_threads(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # every repetition driver, serial and in a process pool
    for base in (["magic", "--family", "clifford-t", "--n", "2", "--nt", "1",
                  "--nq", "150", "--reps", "6", "--seed", "9"],
                 ["discriminate", "--mode", "curve", "--kind", "many", "--n", "3",
                  "--na", "2", "--nq-grid", "3,6", "--reps", "6", "--seed", "9"],
                 ["discriminate", "--mode", "learn", "--n", "2", "--d", "2", "--p", "0.1",
                  "--nq-grid", "20,60", "--per-class", "6", "--splits", "3", "--seed", "9"],
                 ["entangle", "--family", "clifford-t", "--n", "2", "--nt", "1",
                  "--p", "0.1", "--nq", "150", "--reps", "6", "--seed", "9"],
                 ["sweep", "--experiment", "resampling", "--n", "2", "--na", "1",
                  "--nq", "40", "--nr-grid", "disjoint,50,200", "--reps", "6", "--seed", "9"]):
        assert run(base + ["--threads", "1", "--out", str(a)]) == 0, base
        assert run(base + ["--threads", "3", "--out", str(b)]) == 0, base
        assert a.read_bytes() == b.read_bytes(), base


@pytest.mark.parametrize("argv", [
    ["magic", "--family", "haar", "--n", "11", "--nq", "200"],
    ["train", "--n", "6", "--d", "2", "--nq", "0", "--epochs", "3"],
    ["train", "--n", "4", "--d", "2", "--nq", "50", "--epochs", "2"],
    ["magic", "--family", "clifford-t", "--n", "8", "--d", "2", "--nt", "3", "--nq", "100",
     "--reps", "2"],
    ["train", "--n", "8", "--d", "1", "--nq", "0", "--epochs", "2"],
], ids=["magic-haar-11", "train-exact", "train-sampled", "magic-clifford-t-8", "train-exact-8"])
def test_csv_bytes_do_not_depend_on_blas_threads(argv, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"blas{threads}.csv"
        proc = subprocess.run([sys.executable, "-m", "bellmagic.cli", *argv, "--seed", "5",
                               "--threads", "1", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_process_pool_capped_at_the_repetitions(tmp_path, monkeypatch):
    # a fork pool starts all its workers at once, so --threads beyond the
    # repetitions would only start idle processes
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # experiments imports the pool class when it starts a pool, not at import
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["magic", "--n", "2", "--nq", "50", "--reps", "2", "--seed", "3"]
    assert run(argv + ["--threads", "64", "--out", str(a)]) == 0
    assert sizes == [2]
    assert run(argv + ["--threads", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _learning_curve(repetitions, seed):
    # learn mode's repetitions are its labelled pairs, n_per_class
    return experiments.learning_curve([20], repetitions, 2, 1, 0.1, 2, seed)


@pytest.mark.parametrize("driver, args", [
    (experiments.magic_experiment, ("t-product", 1)),
    (experiments.entangle_experiment, ("ghz", 2)),
    (experiments.error_probability_curve, ("single", 2, 0.3, 1, [5])),
    (experiments.error_vs_samples_sweep, (2, 1, [0.0], [10])),
    (experiments.resampling_sweep, (2, 1, 10, ["disjoint"])),
    (_learning_curve, ()),
])
def test_zero_repetitions_rejected(driver, args):
    # zero repetitions have no rows or means to report, so they fail rather than return empty
    with pytest.raises(ValueError, match="repetitions"):
        driver(*args, repetitions=0, seed=0)


def test_summary_to_stderr_without_out(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    runs.write_text("b_hat,label,n_outcomes\n0.0,-1,100\n0.02,-1,100\n0.5,1,100\n"
                    "0.6,1,100\n")
    assert run(["discriminate", "--mode", "learn", "--runs-csv", str(runs),
                "--threads", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "b_hat,label,n_outcomes,seed"
    summary = json.loads(captured.err)
    assert summary["command"] == "discriminate" and summary["train_error"] == 0.0
    assert 0.02 < summary["threshold"] < 0.5


def test_unwritable_out_exit_2(tmp_path, monkeypatch, capsys):
    # an --out that cannot be written is rejected before the experiment runs
    def never(args):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli.COMMANDS, "magic", never)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert run(["magic", "--n", "1", "--nq", "10", "--threads", "1",
                    "--out", str(out)]) == 2, out
        assert str(out) in capsys.readouterr().err
    # a write that fails after the run names the path too
    def full(summary, path):
        raise OSError(28, "No space left on device")

    monkeypatch.undo()
    monkeypatch.setattr(cli, "write_summary", full)
    out = tmp_path / "x.csv"
    assert run(["magic", "--n", "1", "--nq", "10", "--threads", "1", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "family": "t-product", "n": 2,
                               "nq": 100, "reps": 1, "seed": 3}))
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    assert run(["magic", "--config", str(cfg), "--threads", "1", "--out", str(out1)]) == 0
    rows = read_csv(out1)
    assert rows[0]["family"] == "t-product" and rows[0]["n"] == "2"
    # explicit flag wins over the config value
    assert run(["magic", "--config", str(cfg), "--n", "1", "--threads", "1",
                "--out", str(out2)]) == 0
    assert read_csv(out2)[0]["n"] == "1"


def test_config_schema_validation(tmp_path):
    bad_version = tmp_path / "bad1.json"
    bad_version.write_text(json.dumps({"version": 99, "n": 2}))
    assert run(["magic", "--config", str(bad_version)]) == 2
    bad_key = tmp_path / "bad2.json"
    bad_key.write_text(json.dumps({"version": 1, "qubits": 2}))
    assert run(["magic", "--config", str(bad_key)]) == 2
    assert run(["magic", "--config", str(tmp_path / "missing.json")]) == 2
    not_object = tmp_path / "bad3.json"
    not_object.write_text("[1, 2]")
    assert run(["magic", "--config", str(not_object)]) == 2
    # values must have the option's JSON type: no strings for numbers, no
    # floats for ints, no bools; a float option takes an int; bounds hold too,
    # and a float (or an int read as one) must be finite
    for i, bad in enumerate(({"n": "2"}, {"n": 2.5}, {"seed": "3"}, {"nq": True},
                             {"family": 3}, {"family": "bogus"}, {"p": -0.5},
                             {"n": 13}, {"phi": float("nan")}, {"phi": 10**400})):
        cfg = tmp_path / f"bad_type{i}.json"
        cfg.write_text(json.dumps({"version": 1, **bad}))
        assert run(["magic", "--config", str(cfg), "--threads", "1"]) == 2, bad


def test_usage_errors_exit_2(capsys):
    assert run(["magic", "--family", "bogus", "--n", "2"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 2
    assert run(["discriminate", "--mode", "curve", "--kind", "wrong"]) == 2
    assert run(["discriminate", "--mode", "wrong"]) == 2
    assert run(["sweep", "--experiment", "wrong"]) == 2
    # runs that would produce no rows, and values outside an option's bounds,
    # are rejected before any experiment or summary runs: no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["magic", "--reps", "0"], ["entangle", "--reps", "0"],
                     ["train", "--epochs", "0"], ["sweep", "--p-grid", ""],
                     ["discriminate", "--nq-grid", ""], ["discriminate", "--reps", "0"],
                     ["sweep", "--reps", "0"],
                     ["magic", "--n", "0"], ["magic", "--nq", "-1"], ["magic", "--p", "1.5"],
                     ["magic", "--p", "nan"], ["magic", "--n", "13"], ["magic", "--d", "-1"],
                     ["magic", "--nt", "-1"], ["magic", "--bootstrap", "-1"],
                     ["magic", "--seed", "-1"], ["train", "--lr", "-1"], ["train", "--lr", "0"],
                     ["train", "--lr", "nan"],
                     ["entangle", "--n", "0"], ["discriminate", "--mode", "learn",
                                                "--per-class", "1"],
                     # bounds that depend on the subcommand, also for grid entries
                     ["entangle", "--n", "1"], ["magic", "--nq", "0"], ["entangle", "--nq", "0"],
                     ["sweep", "--experiment", "error-vs-p", "--nq", "0"],
                     ["sweep", "--experiment", "resampling", "--nq", "0"],
                     ["discriminate", "--nq-grid", "0"], ["discriminate", "--nq-grid", "-3"],
                     ["sweep", "--nq-grid", "0"], ["sweep", "--nq-grid", "-3"],
                     ["sweep", "--p-grid", "1.5"],
                     ["sweep", "--experiment", "resampling", "--nr-grid", "0"],
                     ["sweep", "--experiment", "resampling", "--nr-grid", "disjoint,-5"],
                     # every float option must be finite
                     ["magic", "--family", "magic-input", "--n", "2", "--na", "1",
                      "--phi", "nan"],
                     ["magic", "--family", "t-product", "--phi", "nan"],
                     ["train", "--lr", "inf"], ["train", "--lr-decay", "inf"],
                     ["discriminate", "--phi", "nan"], ["entangle", "--phi", "inf"],
                     ["sweep", "--p-grid", "0,nan"],
                     # limits of the state family, also where the command implies it
                     ["magic", "--family", "magic-input", "--n", "3", "--na", "5"],
                     ["magic", "--family", "clifford-t", "--n", "2", "--d", "1", "--nt", "9"],
                     ["magic", "--family", "max", "--n", "5"],
                     ["entangle", "--family", "magic-input", "--n", "3", "--na", "4"],
                     ["entangle", "--family", "clifford-t", "--n", "2", "--d", "1", "--nt", "5"],
                     ["entangle", "--family", "max", "--n", "5"],
                     ["sweep", "--n", "2", "--na", "3"],
                     ["discriminate", "--kind", "many", "--n", "2", "--na", "3"]):
            assert run(argv + ["--threads", "1"]) == 2, argv
        assert run(["magic", "--n", "2", "--threads", "0"]) == 2


def test_option_bounds_keep_valid_commands(tmp_path):
    # train --nq 0 selects exact gradients; it and every README command pass the checks
    out = tmp_path / "exact.csv"
    assert run(["train", "--n", "1", "--d", "1", "--epochs", "1", "--nq", "0",
                "--threads", "1", "--out", str(out)]) == 0
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = [shlex.split(line)[1:] for line in readme.splitlines()
                if line.startswith("bellmagic ")]
    assert len(commands) >= 6
    for argv in commands:
        args = cli._merge_config(cli.build_parser().parse_args(argv))
        cli._check_values(args)


def test_config_int_for_float_option(tmp_path):
    # a JSON int given for a float option is read as a float, as the flag is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "n": 2, "nq": 50, "p": 0, "phi": 1}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["magic", "--config", str(cfg), "--threads", "1", "--out", str(a)]) == 0
    assert run(["magic", "--n", "2", "--nq", "50", "--p", "0", "--phi", "1",
                "--threads", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_help_lists_every_option(capsys):
    for name, spec in cli._SUBCOMMANDS.items():
        with pytest.raises(SystemExit):
            run([name, "--help"])
        text = capsys.readouterr().out
        for dest in spec.options + cli._COMMON:
            assert "--" + dest.replace("_", "-") in text, (name, dest)


def test_numerical_failure_exit_3():
    # a finite decay that grows the learning rate past the float range overflows
    # the parameters inside the optimizer, without a numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--n", "1", "--d", "1", "--epochs", "4", "--lr-decay", "1e300",
                    "--threads", "1"]) == 3


def test_programming_error_propagates(monkeypatch):
    # only numerical failures map to exit 3; a TypeError is a bug and must surface
    def broken(args):
        raise TypeError("bad call")

    monkeypatch.setitem(cli.COMMANDS, "magic", broken)
    with pytest.raises(TypeError, match="bad call"):
        run(["magic", "--family", "t-product", "--n", "2", "--threads", "1"])


def test_discriminate_curve(tmp_path):
    out = tmp_path / "curve.csv"
    assert run(["discriminate", "--mode", "curve", "--kind", "single", "--n", "4",
                "--d", "2", "--nq-grid", "5,10", "--reps", "120", "--seed", "1",
                "--threads", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["nq"] for r in rows] == ["5", "10"]
    for r in rows:
        assert abs(float(r["p_error"]) - float(r["p_error_theory"])) < 6 * max(
            float(r["binom_std"]), 0.02
        )


def test_discriminate_learn_and_runs_csv(tmp_path):
    out = tmp_path / "learn.csv"
    assert run(["discriminate", "--mode", "learn", "--n", "2", "--d", "2",
                "--p", "0.1", "--per-class", "6", "--splits", "3",
                "--nq-grid", "50,400", "--seed", "2", "--threads", "1",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2 and all(float(r["test_error"]) <= 0.5 for r in rows)
    # labeled-run CSV in, threshold report out
    runs = tmp_path / "runs.csv"
    with open(runs, "w", newline="") as f:
        w = csv.DictWriter(f, ["b_hat", "label", "n_outcomes"])
        w.writeheader()
        for b, y in ((0.0, -1), (0.02, -1), (0.5, 1), (0.6, 1)):
            w.writerow({"b_hat": b, "label": y, "n_outcomes": 100})
    out2 = tmp_path / "report.csv"
    assert run(["discriminate", "--mode", "learn", "--runs-csv", str(runs),
                "--out", str(out2)]) == 0
    report = json.loads((tmp_path / "report.csv.summary.json").read_text())
    assert report["train_error"] == 0.0
    assert 0.02 < report["threshold"] < 0.5


def test_runs_csv_bad_input_exit_2(tmp_path):
    learn = ["discriminate", "--mode", "learn", "--runs-csv"]
    assert run(learn + [str(tmp_path / "missing.csv")]) == 2
    no_label = tmp_path / "no_label.csv"
    no_label.write_text("b_hat,n_outcomes\n0.1,100\n0.5,100\n")
    assert run(learn + [str(no_label)]) == 2
    one_class = tmp_path / "one_class.csv"
    one_class.write_text("b_hat,label,n_outcomes\n0.1,1,100\n0.5,1,100\n")
    assert run(learn + [str(one_class)]) == 2
    for value in ("nan", "inf"):
        non_finite = tmp_path / f"{value}.csv"
        non_finite.write_text(f"b_hat,label,n_outcomes\n0.1,-1,100\n{value},1,100\n")
        assert run(learn + [str(non_finite)]) == 2


def test_train_checkpoint(tmp_path):
    out = tmp_path / "train.csv"
    assert run(["train", "--n", "1", "--d", "1", "--epochs", "30", "--lr", "0.2",
                "--seed", "4", "--threads", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 30
    ckpt = json.loads((tmp_path / "train.csv.summary.json").read_text())["checkpoint"]
    assert len(ckpt["theta"]) == 2 and ckpt["epoch"] == 30


def test_entangle(tmp_path):
    out = tmp_path / "ent.csv"
    assert run(["entangle", "--family", "ghz", "--n", "3", "--nq", "3000",
                "--reps", "1", "--seed", "6", "--threads", "1", "--out", str(out)]) == 0
    row = read_csv(out)[0]
    assert float(row["e_exact"]) == pytest.approx(1.0)
    assert abs(float(row["e_raw"]) - 1.0) < 0.1


def test_entangle_saturated_p_hat(tmp_path):
    # at p = 1 this seed's SWAP parities put p_hat at 1: mitigation has no
    # inverse there, so e_mtg is nan and the run still succeeds
    out = tmp_path / "ent.csv"
    assert run(["entangle", "--family", "ghz", "--n", "2", "--p", "1", "--nq", "100",
                "--seed", "0", "--threads", "1", "--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert float(row["p_hat"]) == 1.0
    assert math.isnan(float(row["e_mtg"]))


def test_magic_p_hat_just_below_one(tmp_path, monkeypatch):
    # a purity estimate that puts p_hat at 1 - 3e-5, where 1 - (1 - p_hat)^4
    # rounds to 1: the mitigated columns stay empty and the run still succeeds
    monkeypatch.setattr(estimation, "estimate_purity",
                        lambda outcomes: estimation.noisy_purity(1 - 3e-5, outcomes.n_qubits))
    out = tmp_path / "magic.csv"
    assert run(["magic", "--family", "t-product", "--n", "2", "--nq", "50", "--seed", "0",
                "--threads", "1", "--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert 1.0 - 8.6e-5 < float(row["p_hat"]) < 1.0
    assert row["b_mtg_exact"] == row["b_mtg_approx"] == ""
    summary = json.loads((tmp_path / "magic.csv.summary.json").read_text())
    assert summary["b_mtg_mean"] is summary["b_mtg_median"] is None
    assert summary["b_mtg_out_of_range"] == 0


def test_magic_summary_with_a_swamping_repetition(tmp_path, monkeypatch):
    # the second of four repetitions gets p_hat = 0.999, where the unclamped
    # mitigated value is astronomically large (mitigate(0.5, 0.999, 0.1, 3).exact
    # is about -3e23): b_mtg_mean stays the mean of the unclamped values, and the
    # median and the out-of-range count show that one repetition swamps it
    assert estimation.mitigate(0.5, 0.999, 0.1, 3).exact < -1e23
    real, reps = estimation.estimate_purity, iter(range(4))

    def purity(outcomes):  # one call per repetition
        if next(reps) == 1:
            return estimation.noisy_purity(0.999, outcomes.n_qubits)
        return real(outcomes)

    monkeypatch.setattr(estimation, "estimate_purity", purity)
    out = tmp_path / "magic.csv"
    assert run(["magic", "--family", "t-product", "--n", "3", "--nq", "200", "--p", "0.05",
                "--reps", "4", "--seed", "3", "--threads", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    b = np.array([float(r["b_mtg_exact"]) for r in rows])
    summary = json.loads((tmp_path / "magic.csv.summary.json").read_text())
    assert float(rows[1]["p_hat"]) == pytest.approx(0.999)
    assert b[1] < -1e10 and all(0.0 <= v <= 2.0 for v in np.delete(b, 1))
    assert summary["b_mtg_mean"] == float(b.mean())
    assert summary["b_mtg_median"] == float(np.median(b))
    assert 0.0 <= summary["b_mtg_median"] <= 2.0
    assert summary["b_mtg_out_of_range"] == 1


def _sweep(tmp_path, args):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *args, "--n", "3", "--na", "1", "--reps", "4", "--seed", "9",
                "--threads", "1", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "sweep.csv.summary.json").read_text())
    return read_csv(out), summary


def test_sweep_error_vs_nq(tmp_path):
    rows, summary = _sweep(tmp_path, ["--experiment", "error-vs-nq", "--p-grid", "0,0.05",
                                      "--nq-grid", "50,200"])
    assert list(rows[0]) == ["n", "na", "p", "nq", "nr", "mean_abs_error", "seed"]
    assert [(r["p"], r["nq"], r["nr"]) for r in rows] == [
        ("0.0", "50", "500"), ("0.0", "200", "2000"),
        ("0.05", "50", "500"), ("0.05", "200", "2000"),
    ]
    slopes = summary["loglog_slopes_vs_nq"]
    assert list(slopes) == ["0.0", "0.05"]
    for p, slope in slopes.items():
        sub = [r for r in rows if r["p"] == p]
        assert slope == experiments.loglog_slope(
            [int(r["nq"]) for r in sub], [float(r["mean_abs_error"]) for r in sub])


def test_sweep_error_vs_p(tmp_path):
    rows, summary = _sweep(tmp_path, ["--experiment", "error-vs-p", "--p-grid", "0,0.05,0.1",
                                      "--nq", "200"])
    assert list(rows[0]) == ["n", "na", "p", "nq", "mean_abs_error", "seed"]
    assert [r["p"] for r in rows] == ["0.0", "0.05", "0.1"]
    assert summary["slope_vs_one_minus_p"] == experiments.loglog_slope(
        [1 - float(r["p"]) for r in rows], [float(r["mean_abs_error"]) for r in rows])


def test_sweep_resampling(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--experiment", "resampling", "--n", "3", "--na", "1",
                "--nq", "200", "--nr-grid", "disjoint,500,2000", "--reps", "40",
                "--seed", "8", "--threads", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["mode"] for r in rows] == ["disjoint", "resample", "resample"]
    assert float(rows[-1]["mean_abs_error"]) <= float(rows[0]["mean_abs_error"]) * 1.1


def test_stdout_csv(capsys):
    assert run(["magic", "--family", "plus-product", "--n", "2", "--nq", "50",
                "--threads", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("rep,family,n,")
    assert len(lines) == 2


def test_magic_bootstrap_one_outcome(tmp_path):
    # one outcome per repetition: the bootstrap draws take the point
    # estimate's fallback for sum P^2, so the run succeeds
    out = tmp_path / "one.csv"
    assert run(["magic", "--family", "plus-product", "--n", "2", "--nq", "1",
                "--bootstrap", "3", "--threads", "1", "--seed", "0", "--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert float(row["bootstrap_std"]) == 0.0


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("args, key", [
    # a single N_Q: one point, no line
    (["--experiment", "error-vs-nq", "--na", "1", "--nq-grid", "1", "--p-grid", "0"],
     "loglog_slopes_vs_nq"),
    # a noiseless stabilizer input is estimated without error: log 0
    (["--experiment", "error-vs-nq", "--na", "0", "--nq-grid", "10,20", "--p-grid", "0"],
     "loglog_slopes_vs_nq"),
    (["--experiment", "error-vs-p", "--na", "1", "--p-grid", "0.1"], "slope_vs_one_minus_p"),
])
def test_sweep_slope_null_without_a_line(tmp_path, args, key):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *args, "--n", "2", "--reps", "2", "--seed", "0", "--threads", "1",
                "--out", str(out)]) == 0
    slope = _strict_json(tmp_path / "sweep.csv.summary.json")[key]
    assert slope in (None, {"0.0": None})


def test_loglog_slope_rule():
    assert experiments.loglog_slope([1, 10], [1, 0.1]) == pytest.approx(-1.0)
    for x, y in (([5], [0.1]), ([5, 5], [0.1, 0.2]), ([1, 10], [0.1, 0.0]),
                 ([0, 10], [0.1, 0.2]), ([1, 10], [0.1, float("nan")])):
        assert experiments.loglog_slope(x, y) is None, (x, y)


@pytest.mark.parametrize("argv", [
    # p_error_random needs two outcomes
    ["discriminate", "--mode", "curve", "--kind", "many", "--n", "3", "--na", "1",
     "--nq-grid", "1,5"],
    # disjoint quadruples need four outcomes
    ["sweep", "--experiment", "resampling", "--n", "2", "--na", "1", "--nq", "3",
     "--nr-grid", "disjoint"],
])
def test_too_few_outcomes_exit_2(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--threads", "1"]) == 2


def test_curve_nq_above_the_exhaustive_cap_exit_2(monkeypatch, capsys):
    # a curve scores every quadruple of its outcomes, which the estimator does for
    # at most EXHAUSTIVE_CAP of them; the grid is rejected before any state is built
    calls = []
    monkeypatch.setattr(experiments.simulator, "bell_distribution", calls.append)
    cap = estimation.EXHAUSTIVE_CAP
    for kind in ("single", "many"):
        assert run(["discriminate", "--mode", "curve", "--kind", kind, "--n", "3", "--na", "3",
                    "--nq-grid", f"5,{cap + 1}", "--threads", "1"]) == 2
        assert f"at most {cap} outcomes" in capsys.readouterr().err
    assert calls == []
    assert str(cap) in cli._OPTIONS["nq_grid"].help
    # the cap itself, and learn mode, which resamples, pass the checks
    for argv in (["discriminate", "--nq-grid", f"5,{cap}"],
                 ["discriminate", "--mode", "learn", "--nq-grid", f"{cap + 1}"]):
        cli._check_values(cli._merge_config(cli.build_parser().parse_args(argv)))


# small runs of every subcommand and mode: the epilog label of their CSV
# columns, their arguments, and the statistics their summaries carry
_RUNS = {
    "magic": ("", "magic --family clifford-t --n 2 --nt 1 --p 0.1 --nq 50 --reps 2 "
              "--bootstrap 3", {"b_exact_mean", "b_hat_mean", "b_mtg_mean", "b_mtg_median",
                               "b_mtg_out_of_range"}),
    "curve-single": ("curve", "discriminate --mode curve --kind single --n 2 --d 1 "
                     "--nq-grid 5,10 --reps 4", {"max_abs_dev"}),
    "curve-many": ("curve", "discriminate --mode curve --kind many --n 3 --na 2 "
                   "--nq-grid 3,6 --reps 4", {"max_abs_dev"}),
    "learn": ("learn", "discriminate --mode learn --n 2 --d 2 --p 0.1 --per-class 4 "
              "--splits 2 --nq-grid 20,50", {"test_errors"}),
    "learn-runs-csv": ("learn --runs-csv", "discriminate --mode learn --runs-csv RUNS",
                       {"threshold", "train_error"}),
    "train-exact": ("", "train --n 1 --d 1 --epochs 3 --nq 0", {"best_b", "checkpoint"}),
    "train-sampled": ("", "train --n 1 --d 1 --epochs 3 --nq 20", {"best_b", "checkpoint"}),
    "entangle": ("", "entangle --family ghz --n 2 --p 0.1 --nq 50 --reps 2",
                 {"e_exact_mean", "e_raw_mean"}),
    "error-vs-nq": ("error-vs-nq", "sweep --experiment error-vs-nq --n 2 --na 1 "
                    "--p-grid 0,0.05 --nq-grid 10,20 --reps 2", {"loglog_slopes_vs_nq"}),
    "error-vs-p": ("error-vs-p", "sweep --experiment error-vs-p --n 2 --na 1 "
                   "--p-grid 0,0.05 --nq 20 --reps 2", {"slope_vs_one_minus_p"}),
    "resampling": ("resampling", "sweep --experiment resampling --n 2 --na 1 --nq 20 "
                   "--nr-grid disjoint,50 --reps 2", set()),
}


def _run_argv(case, tmp_path):
    """The argv of a _RUNS case, with a labeled-run CSV written for --runs-csv."""
    runs = tmp_path / "runs.csv"
    runs.write_text("b_hat,label,n_outcomes\n0.0,-1,100\n0.02,-1,100\n0.5,1,100\n")
    return [str(runs) if x == "RUNS" else x for x in _RUNS[case][1].split()]


def _epilog_columns(epilog):
    """{label: columns} from the epilog's '<label> CSV columns: a, b (note), c' clauses."""
    text = re.sub(r" \([^)]*\)", "", epilog)
    return {label.strip(): cols.split(", ")
            for label, cols in re.findall(r"([\w -]*?)\s*CSV columns: ([\w, ]+)", text)}


def test_epilogs_list_the_csv_columns(tmp_path):
    documented = {(name, label): cols for name, spec in cli._SUBCOMMANDS.items()
                  for label, cols in _epilog_columns(spec.epilog).items()}
    covered = {case: (args.split()[0], label) for case, (label, args, _) in _RUNS.items()}
    assert set(documented) == set(covered.values())
    out = tmp_path / "out.csv"
    for case, key in covered.items():
        assert run(_run_argv(case, tmp_path) + ["--threads", "1", "--out", str(out)]) == 0, case
        with open(out) as f:
            assert next(csv.reader(f)) == documented[key], case


@pytest.mark.parametrize("case", list(_RUNS))
def test_summary_layout_and_config_round_trip(tmp_path, case):
    argv, stats = _run_argv(case, tmp_path), _RUNS[case][2]
    a, b, cfg = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "cfg.json"
    assert run(argv + ["--seed", "7", "--threads", "1", "--out", str(a)]) == 0
    summary = _strict_json(tmp_path / "a.csv.summary.json")
    assert set(summary) == {"command", "config", "versions"} | stats
    assert summary["command"] == argv[0]
    assert summary["versions"] == {"bellmagic": bellmagic.__version__,
                                   "numpy": np.__version__,
                                   "python": platform.python_version()}
    # every option as merged, but not where the CSV went: a rerun from the
    # summary writes where its own --out says
    config = summary["config"]
    assert set(config) == set(cli._SUBCOMMANDS[argv[0]].options + cli._COMMON) - {"out"}
    assert config["seed"] == 7 and config["threads"] == 1 and config["config"] is None
    cfg.write_text(json.dumps(config))
    assert run([argv[0], "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _strict_json(tmp_path / "b.csv.summary.json")["config"] == {
        **config, "config": str(cfg)}
