"""Command-line experiment runner: seeded, config-driven, CSV/JSON output.

Subcommands: magic, discriminate, train, entangle, sweep.  Global flags
--seed, --threads, --out, --config.  A JSON config file (versioned schema,
version 1) supplies option values; explicit flags override it.  Exit codes:
0 success, 2 usage/config error, 3 numerical failure.

Output is data-only: CSV rows to --out (or stdout) plus a JSON summary
written next to --out.  Identical (config, seed) pairs produce
byte-identical CSV regardless of --threads.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import discrimination, experiments
from .experiments import FAMILIES


class UsageError(Exception):
    pass


def _parse_grid(text: str, cast=int) -> list:
    try:
        return [cast(x) for x in str(text).split(",") if x != ""]
    except ValueError as e:
        raise UsageError(f"bad grid {text!r}: {e}") from None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain shortest-roundtrip form, also for np.float64
    return str(v)


def write_rows(rows: list[dict], path: str | None) -> None:
    if not rows:
        raise UsageError("experiment produced no rows")
    columns = list(rows[0].keys())
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r.get(c)) for c in columns])
    finally:
        if path:
            out.close()


def write_summary(summary: dict, path: str | None) -> None:
    if path:
        with open(path + ".summary.json", "w") as f:
            json.dump(summary, f, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# subcommands


def cmd_magic(a) -> tuple[list[dict], dict]:
    if a.family not in FAMILIES:
        raise UsageError(f"unknown family {a.family!r}; choose from {FAMILIES}")
    rows = experiments.magic_experiment(
        a.family, a.n, a.d, a.nt, a.na, a.phi, a.p, a.nq, a.nr or None,
        a.reps, a.bootstrap, a.seed, a.threads,
    )
    b = [r["b_mtg_exact"] for r in rows if r["b_mtg_exact"] is not None]
    summary = {
        "command": "magic", "family": a.family, "n": a.n, "p": a.p, "nq": a.nq,
        "reps": a.reps, "seed": a.seed,
        "b_exact_mean": float(np.mean([r["b_exact"] for r in rows])),
        "b_hat_mean": float(np.mean([r["b_hat"] for r in rows])),
        "b_mtg_mean": float(np.mean(b)) if b else None,
    }
    return rows, summary


def cmd_discriminate(a) -> tuple[list[dict], dict]:
    nq_grid = _parse_grid(a.nq_grid)
    if a.mode == "curve":
        kind = a.kind
        if kind not in ("single", "many"):
            raise UsageError("kind must be 'single' or 'many'")
        rows = experiments.error_probability_curve(
            kind, a.n, a.phi, a.na, nq_grid, a.reps, a.seed, a.threads, a.d
        )
        summary = {"command": "discriminate", "mode": "curve", "kind": kind,
                   "seed": a.seed, "max_abs_dev": max(
                       abs(r["p_error"] - r["p_error_theory"]) for r in rows)}
        return rows, summary
    if a.mode == "learn":
        if a.runs_csv:
            with open(a.runs_csv) as f:
                runs = discrimination.runs_from_csv_rows(csv.DictReader(f))
            thr = discrimination.learn_threshold(runs)
            err = discrimination.classification_error(runs, thr)
            rows = discrimination.runs_to_csv_rows(runs, a.seed)
            return rows, {"command": "discriminate", "mode": "learn",
                          "threshold": thr, "train_error": err, "seed": a.seed}
        rows = experiments.learning_curve(
            nq_grid, a.per_class, a.n, a.d, a.p, a.splits, a.seed
        )
        summary = {"command": "discriminate", "mode": "learn", "p": a.p,
                   "seed": a.seed, "split_seed": a.seed,
                   "test_errors": {str(r["nq"]): r["test_error"] for r in rows}}
        return rows, summary
    raise UsageError("mode must be 'curve' or 'learn'")


def cmd_train(a) -> tuple[list[dict], dict]:
    state, rows = experiments.train_experiment(
        a.n, a.d, a.epochs, a.lr, a.nq or None, a.seed, a.lr_decay
    )
    summary = {
        "command": "train", "n": a.n, "depth": a.d, "epochs": a.epochs,
        "seed": a.seed, "best_b": state.best(),
        "checkpoint": {
            "theta": [float(x) for x in state.theta],
            "adam_m": [float(x) for x in state.m],
            "adam_v": [float(x) for x in state.v],
            "epoch": state.epoch,
            "seed": a.seed,
        },
    }
    return rows, summary


def cmd_entangle(a) -> tuple[list[dict], dict]:
    if a.family not in FAMILIES:
        raise UsageError(f"unknown family {a.family!r}; choose from {FAMILIES}")
    rows = experiments.entangle_experiment(
        a.family, a.n, a.d, a.nt, a.na, a.phi, a.p, a.nq, a.reps, a.seed, a.threads
    )
    summary = {"command": "entangle", "family": a.family, "n": a.n, "seed": a.seed,
               "e_exact_mean": float(np.mean([r["e_exact"] for r in rows])),
               "e_raw_mean": float(np.mean([r["e_raw"] for r in rows]))}
    return rows, summary


def cmd_sweep(a) -> tuple[list[dict], dict]:
    if a.experiment == "error-vs-nq":
        rows = experiments.error_vs_samples_sweep(
            a.n, a.na, _parse_grid(a.p_grid, float), _parse_grid(a.nq_grid),
            a.reps, a.seed, a.threads, a.d,
        )
        slopes = {}
        for p in _parse_grid(a.p_grid, float):
            sub = [r for r in rows if r["p"] == p]
            slopes[str(p)] = experiments.loglog_slope(
                [r["nq"] for r in sub], [r["mean_abs_error"] for r in sub])
        return rows, {"command": "sweep", "experiment": a.experiment,
                      "seed": a.seed, "loglog_slopes_vs_nq": slopes}
    if a.experiment == "error-vs-p":
        p_grid = _parse_grid(a.p_grid, float)
        rows = experiments.error_vs_noise_sweep(
            a.n, a.na, p_grid, a.nq, a.reps, a.seed, a.threads, a.d
        )
        slope = experiments.loglog_slope(
            [1 - r["p"] for r in rows], [r["mean_abs_error"] for r in rows])
        return rows, {"command": "sweep", "experiment": a.experiment,
                      "seed": a.seed, "slope_vs_one_minus_p": slope}
    if a.experiment == "resampling":
        try:
            nr_grid = ["disjoint" if x.strip() == "disjoint" else int(x)
                       for x in str(a.nr_grid).split(",") if x.strip()]
        except ValueError as e:
            raise UsageError(f"bad --nr-grid: {e}") from None
        rows = experiments.resampling_sweep(
            a.n, a.na, a.nq, nr_grid, a.reps, a.seed, a.threads, a.d
        )
        return rows, {"command": "sweep", "experiment": a.experiment, "seed": a.seed}
    raise UsageError("experiment must be error-vs-nq, error-vs-p or resampling")


COMMANDS = {
    "magic": cmd_magic,
    "discriminate": cmd_discriminate,
    "train": cmd_train,
    "entangle": cmd_entangle,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# parser and config merging


def _add_common(sp):
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--threads", type=int, help="worker processes (default all cores)")
    sp.add_argument("--out", type=str, help="CSV output path (default stdout)")
    sp.add_argument("--config", type=str, help="JSON config file; flags override it")


_DEFAULTS = {
    "seed": 0, "threads": None, "out": None, "config": None,
    "family": "t-product", "n": 3, "d": 4, "nt": 0, "na": 0, "phi": np.pi / 4,
    "p": 0.0, "nq": 1000, "nr": 0, "reps": 1, "bootstrap": 0,
    "mode": "curve", "kind": "single", "nq_grid": "5,10,20,50", "per_class": 20,
    "splits": 10, "runs_csv": None,
    "epochs": 200, "lr": 0.1, "lr_decay": 1.0,
    "experiment": "error-vs-nq", "p_grid": "0.0,0.02", "nr_grid": "100,1000",
}

_COMMAND_DEFAULTS = {"train": {"n": 4, "d": 6}, "discriminate": {"n": 8, "reps": 200}}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bellmagic",
        description="Reproduce Bell-magic numerics: estimation, mitigation, "
        "discrimination, variational maximization, entanglement.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser(
        "magic",
        help="estimate (and mitigate) Bell magic of a state family",
        epilog="CSV columns: rep, family, n, nq, nr, p, b_exact, b_a_exact, "
        "b_hat, b_a_hat, purity_hat, p_hat, b_mtg_exact (exact-form mitigation), "
        "b_mtg_approx (large-N form), std_plugin, bootstrap_std, seed",
    )
    m.add_argument("--family", type=str, help=f"one of {', '.join(FAMILIES)}")
    m.add_argument("--n", type=int, help="number of qubits")
    m.add_argument("--d", type=int, help="circuit depth")
    m.add_argument("--nt", type=int, help="number of T-angle parameters (clifford-t)")
    m.add_argument("--na", type=int, help="number of magic inputs (magic-input)")
    m.add_argument("--phi", type=float, help="magic-input angle")
    m.add_argument("--p", type=float, help="depolarizing probability")
    m.add_argument("--nq", type=int, help="Bell-measurement samples per repetition")
    m.add_argument("--nr", type=int, help="resampling trials (0 = 10*nq)")
    m.add_argument("--reps", type=int, help="repetitions")
    m.add_argument("--bootstrap", type=int, help="bootstrap resamples for mitigated std")
    _add_common(m)

    d = sub.add_parser(
        "discriminate",
        help="stabilizer vs magical state discrimination",
        epilog="curve CSV columns: kind, n, phi, na, nq, reps, p_error, "
        "p_error_theory, binom_std, seed; learn CSV columns: nq, n, p, "
        "n_per_class, train_error, test_error, seed (threshold and errors "
        "also land in the JSON summary)",
    )
    d.add_argument("--mode", choices=["curve", "learn"])
    d.add_argument("--kind", type=str, help="curve family: single or many")
    d.add_argument("--n", type=int)
    d.add_argument("--d", type=int)
    d.add_argument("--phi", type=float)
    d.add_argument("--na", type=int)
    d.add_argument("--nq-grid", dest="nq_grid", type=str, help="comma-separated N_Q grid")
    d.add_argument("--reps", type=int)
    d.add_argument("--p", type=float, help="depolarizing probability (learn mode)")
    d.add_argument("--per-class", dest="per_class", type=int)
    d.add_argument("--splits", type=int)
    d.add_argument("--runs-csv", dest="runs_csv", type=str,
                   help="learn a threshold from an existing labeled-run CSV")
    _add_common(d)

    t = sub.add_parser(
        "train",
        help="variationally maximize Bell magic",
        epilog="CSV columns: epoch, b, grad_norm, lr, seed; the JSON summary "
        "carries the checkpoint (theta, Adam moments, epoch, seed)",
    )
    t.add_argument("--n", type=int)
    t.add_argument("--d", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--lr-decay", dest="lr_decay", type=float)
    t.add_argument("--nq", type=int, help="samples per setting (0 = exact gradients)")
    _add_common(t)

    e = sub.add_parser(
        "entangle",
        help="Meyer-Wallach entanglement from Bell samples",
        epilog="CSV columns: rep, family, n, nq, p, e_exact, e_raw, e_mtg, "
        "p_hat, seed",
    )
    e.add_argument("--family", type=str)
    e.add_argument("--n", type=int)
    e.add_argument("--d", type=int)
    e.add_argument("--nt", type=int)
    e.add_argument("--na", type=int)
    e.add_argument("--phi", type=float)
    e.add_argument("--p", type=float)
    e.add_argument("--nq", type=int)
    e.add_argument("--reps", type=int)
    _add_common(e)

    s = sub.add_parser(
        "sweep",
        help="estimation-error sweeps over N_Q, p or N_R",
        epilog="CSV columns: n, na, p, nq [, nr, mode], mean_abs_error "
        "[, std_error], seed; fitted slopes land in the JSON summary",
    )
    s.add_argument("--experiment", type=str,
                   help="error-vs-nq | error-vs-p | resampling")
    s.add_argument("--n", type=int)
    s.add_argument("--d", type=int)
    s.add_argument("--na", type=int)
    s.add_argument("--nq", type=int)
    s.add_argument("--nq-grid", dest="nq_grid", type=str)
    s.add_argument("--p-grid", dest="p_grid", type=str)
    s.add_argument("--nr-grid", dest="nr_grid", type=str,
                   help="comma-separated N_R grid; 'disjoint' allowed")
    s.add_argument("--reps", type=int)
    _add_common(s)

    return p


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config: {e}") from None
        if config.pop("version", 1) != 1:
            raise UsageError("unsupported config version")
        config.pop("command", None)
        unknown = set(config) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    overrides = _COMMAND_DEFAULTS.get(args.command, {})
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, overrides.get(key, default)))
    if args.threads is None:
        args.threads = experiments.default_threads()
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        rows, summary = COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:  # numerical failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    write_rows(rows, args.out)
    write_summary(summary, args.out)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out} (+ {args.out}.summary.json)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
