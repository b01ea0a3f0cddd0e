"""CLI contract: subcommands, config merging, determinism, exit codes."""
import csv
import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from bellmagic import cli, experiments
from bellmagic.cli import main


def run(args):
    return main(args)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_magic_writes_csv_and_summary(tmp_path):
    out = tmp_path / "rows.csv"
    code = run(["magic", "--family", "t-product", "--n", "3", "--nq", "200",
                "--reps", "2", "--seed", "5", "--threads", "1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["b_a_exact"]) == pytest.approx(3.0)
    summary = json.loads((tmp_path / "rows.csv.summary.json").read_text())
    assert summary["command"] == "magic" and summary["seed"] == 5


def test_determinism_across_threads(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # every repetition driver, serial and in a process pool
    for base in (["magic", "--family", "clifford-t", "--n", "2", "--nt", "1",
                  "--nq", "150", "--reps", "6", "--seed", "9"],
                 ["discriminate", "--mode", "curve", "--kind", "many", "--n", "3",
                  "--na", "2", "--nq-grid", "3,6", "--reps", "6", "--seed", "9"],
                 ["entangle", "--family", "clifford-t", "--n", "2", "--nt", "1",
                  "--p", "0.1", "--nq", "150", "--reps", "6", "--seed", "9"],
                 ["sweep", "--experiment", "resampling", "--n", "2", "--na", "1",
                  "--nq", "40", "--nr-grid", "disjoint,50", "--reps", "6", "--seed", "9"]):
        assert run(base + ["--threads", "1", "--out", str(a)]) == 0, base
        assert run(base + ["--threads", "3", "--out", str(b)]) == 0, base
        assert a.read_bytes() == b.read_bytes(), base


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
