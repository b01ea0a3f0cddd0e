"""Command-line experiment runner: seeded, config-driven, CSV/JSON output.

Subcommands: magic, discriminate, train, entangle, sweep.  Global flags
--seed, --threads, --out, --config.  A JSON config file (versioned schema,
version 1) supplies option values; explicit flags override it.  Each config
value must have the option's JSON type (an int option takes no float or
bool; a float option also takes an int) and lie within the option's
inclusive bounds, and a float must be finite; each entry of a
comma-separated grid obeys the bounds of the option it lists.  The limits
a state family puts on the other options (magic inputs and T angles that
fit the circuit, fixture sizes for `max`) are checked with them.  Every
option is declared once, in _OPTIONS; _SUBCOMMANDS names the options each
subcommand takes and overrides their defaults and bounds where it needs
to.  Exit codes: 0 success, 2 usage/config error, 3 numerical failure.

Output is data-only: CSV rows to --out (or stdout), and a JSON summary
{command, config, versions, **the statistics cmd_* returns} next to --out
(without it, as one sorted line on stderr).  `config` holds the
subcommand's options and global flags but --out, as merged (grids
unparsed), so it loads back as a --config file.  Identical (config, seed)
pairs give byte-identical CSV at any --threads.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import discrimination, experiments, states
from .estimation import EXHAUSTIVE_CAP
from .experiments import FAMILIES
from .simulator import DENSE_CAP


class UsageError(Exception):
    pass


def _parse_grid(text: str, cast, words: tuple = ()) -> list:
    """Comma-separated values of `cast` (or literal `words`); blank entries are skipped."""
    try:
        grid = [x.strip() if x.strip() in words else cast(x)
                for x in str(text).split(",") if x.strip()]
    except ValueError as e:
        raise UsageError(f"bad grid {text!r}: {e}") from None
    if not grid:
        raise UsageError("empty grid")
    return grid


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
    else:  # stdout carries only CSV
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_magic(a) -> tuple[list[dict], dict]:
    rows = experiments.magic_experiment(
        a.family, a.n, a.d, a.nt, a.na, a.phi, a.p, a.nq, a.nr or None,
        a.reps, a.bootstrap, a.seed, a.threads,
    )
    # b_mtg_mean averages the unclamped values, which one repetition whose
    # p_hat is near 1 can swamp (about -3e23 at p_hat = 0.999); the median and
    # the count outside [0, 2] show when it has
    b = np.array([r["b_mtg_exact"] for r in rows if r["b_mtg_exact"] is not None])
    return rows, {"b_exact_mean": float(np.mean([r["b_exact"] for r in rows])),
                  "b_hat_mean": float(np.mean([r["b_hat"] for r in rows])),
                  "b_mtg_mean": float(b.mean()) if b.size else None,
                  "b_mtg_median": float(np.median(b)) if b.size else None,
                  "b_mtg_out_of_range": int(((b < 0.0) | (b > 2.0)).sum())}


def cmd_discriminate(a) -> tuple[list[dict], dict]:
    if a.mode == "curve":
        rows = experiments.error_probability_curve(
            a.kind, a.n, a.phi, a.na, a.nq_grid, a.reps, a.seed, a.threads, a.d
        )
        return rows, {"max_abs_dev": max(abs(r["p_error"] - r["p_error_theory"])
                                         for r in rows)}
    if a.runs_csv:
        try:
            with open(a.runs_csv) as f:
                runs = discrimination.runs_from_csv_rows(csv.DictReader(f))
            thr = discrimination.learn_threshold(runs)
        except (OSError, KeyError, ValueError) as e:  # missing file, column, value or class
            raise UsageError(f"bad --runs-csv {a.runs_csv!r}: "
                             f"{type(e).__name__}: {e}") from None
        rows = discrimination.runs_to_csv_rows(runs, a.seed)
        return rows, {"threshold": thr,
                      "train_error": discrimination.classification_error(runs, thr)}
    rows = experiments.learning_curve(
        a.nq_grid, a.per_class, a.n, a.d, a.p, a.splits, a.seed, a.threads
    )
    return rows, {"test_errors": {str(r["nq"]): r["test_error"] for r in rows}}


def cmd_train(a) -> tuple[list[dict], dict]:
    state, rows = experiments.train_experiment(
        a.n, a.d, a.epochs, a.lr, a.nq or None, a.seed, a.lr_decay
    )
    return rows, {"best_b": state.best(),
                  "checkpoint": {"theta": [float(x) for x in state.theta],
                                 "adam_m": [float(x) for x in state.m],
                                 "adam_v": [float(x) for x in state.v],
                                 "epoch": state.epoch}}


def cmd_entangle(a) -> tuple[list[dict], dict]:
    rows = experiments.entangle_experiment(
        a.family, a.n, a.d, a.nt, a.na, a.phi, a.p, a.nq, a.reps, a.seed, a.threads
    )
    return rows, {"e_exact_mean": float(np.mean([r["e_exact"] for r in rows])),
                  "e_raw_mean": float(np.mean([r["e_raw"] for r in rows]))}


def cmd_sweep(a) -> tuple[list[dict], dict]:
    if a.experiment == "error-vs-nq":
        rows = experiments.error_vs_samples_sweep(
            a.n, a.na, a.p_grid, a.nq_grid, a.reps, a.seed, a.threads, a.d,
        )
        slopes = {}
        for p in a.p_grid:
            sub = [r for r in rows if r["p"] == p]
            slopes[str(p)] = experiments.loglog_slope(
                [r["nq"] for r in sub], [r["mean_abs_error"] for r in sub])
        return rows, {"loglog_slopes_vs_nq": slopes}
    if a.experiment == "error-vs-p":
        rows = experiments.error_vs_samples_sweep(
            a.n, a.na, a.p_grid, [a.nq], a.reps, a.seed, a.threads, a.d
        )
        for r in rows:
            del r["nr"]
        return rows, {"slope_vs_one_minus_p": experiments.loglog_slope(
            [1 - r["p"] for r in rows], [r["mean_abs_error"] for r in rows])}
    return experiments.resampling_sweep(
        a.n, a.na, a.nq, a.nr_grid, a.reps, a.seed, a.threads, a.d
    ), {}


COMMANDS = {
    "magic": cmd_magic,
    "discriminate": cmd_discriminate,
    "train": cmd_train,
    "entangle": cmd_entangle,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# option table, parser and config merging


class Option(NamedTuple):
    """Flag --<name with - for _>: value type, default, help, allowed values,
    and the inclusive (low, high) bounds of a number, None for an open side.
    A grid option names the option it `lists`; each entry is of that type and
    within its bounds, or one of the grid's `choices`."""
    type: type
    default: object
    help: str
    choices: tuple = ()
    bounds: tuple = (None, None)
    lists: str | None = None


_AT_LEAST_0 = (0, None)
_AT_LEAST_1 = (1, None)
_ABOVE_ZERO = (math.ulp(0.0), None)  # the least float above 0, so low <= x means x > 0

_OPTIONS = {
    "seed": Option(int, 0, "master seed", bounds=_AT_LEAST_0),
    "threads": Option(int, None, "worker processes (default all cores)", bounds=_AT_LEAST_1),
    "out": Option(str, None, "CSV output path (default stdout)"),
    "config": Option(str, None, "JSON config file; flags override it"),
    "family": Option(str, "t-product", "state family", FAMILIES),
    "n": Option(int, 3, "number of qubits", bounds=(1, DENSE_CAP)),
    "d": Option(int, 4, "circuit depth", bounds=_AT_LEAST_0),
    "nt": Option(int, 0, "number of T-angle parameters (clifford-t)", bounds=_AT_LEAST_0),
    "na": Option(int, 0, "number of magic inputs (magic-input)", bounds=_AT_LEAST_0),
    "phi": Option(float, np.pi / 4, "magic-input angle"),
    "p": Option(float, 0.0, "depolarizing probability", bounds=(0.0, 1.0)),
    "nq": Option(int, 1000, "Bell samples per repetition (train: per setting, 0 = exact)",
                 bounds=_AT_LEAST_1),
    "nr": Option(int, 0, "resampling trials (0 = 10*nq)", bounds=_AT_LEAST_0),
    "reps": Option(int, 1, "repetitions", bounds=_AT_LEAST_1),
    "bootstrap": Option(int, 0, "bootstrap resamples for mitigated std", bounds=_AT_LEAST_0),
    "mode": Option(str, "curve", "discrimination experiment", ("curve", "learn")),
    # acceptance criterion 5 runs the many curve at na = n = 10, where the law holds
    "kind": Option(str, "single", "curve family, scored exactly over every quadruple of "
                   "outcomes: distinct ones for 'single', drawn with replacement for 'many'; "
                   "the 'many' theory column is p_error_random, the random-string law for "
                   "highly magical states, so with na < n or a small phi max_abs_dev is the "
                   "distance from that law, not estimator error", ("single", "many")),
    "nq_grid": Option(str, "5,10,20,50", "comma-separated N_Q grid (a discriminate curve "
                      f"takes entries up to {EXHAUSTIVE_CAP}, since it scores every quadruple)",
                      lists="nq"),
    # one labeled run per class leaves a one-class training split
    "per_class": Option(int, 20, "labeled runs per class (learn mode)", bounds=(2, None)),
    "splits": Option(int, 10, "train/test splits (learn mode)", bounds=_AT_LEAST_1),
    "runs_csv": Option(str, None, "learn a threshold from an existing labeled-run CSV"),
    "epochs": Option(int, 200, "training epochs", bounds=_AT_LEAST_1),
    "lr": Option(float, 0.1, "Adam learning rate", bounds=_ABOVE_ZERO),
    "lr_decay": Option(float, 1.0, "learning-rate decay per epoch", bounds=_AT_LEAST_0),
    "experiment": Option(str, "error-vs-nq", "sweep", ("error-vs-nq", "error-vs-p", "resampling")),
    "p_grid": Option(str, "0.0,0.02", "comma-separated depolarizing-probability grid",
                     lists="p"),
    "nr_grid": Option(str, "100,1000", "comma-separated N_R grid; an entry may also be",
                      ("disjoint",), lists="nr"),
}

_COMMON = ("seed", "threads", "out", "config")


class Subcommand(NamedTuple):
    """Help, epilog, the options taken besides _COMMON, and default and bound
    overrides (bounds also apply to the entries of a grid that lists the option)."""
    help: str
    epilog: str
    options: tuple
    defaults: dict
    bounds: dict = {}


_SUBCOMMANDS = {
    "magic": Subcommand(
        "estimate (and mitigate) Bell magic of a state family",
        "CSV columns: rep, family, n, nq, nr, p, b_exact, b_a_exact, "
        "b_hat, b_a_hat, purity_hat, p_hat, b_mtg_exact (exact-form mitigation), "
        "b_mtg_approx (large-N form), std_plugin, bootstrap_std, seed",
        ("family", "n", "d", "nt", "na", "phi", "p", "nq", "nr", "reps", "bootstrap"), {}),
    "discriminate": Subcommand(
        "stabilizer vs magical state discrimination",
        "curve CSV columns: kind, n, phi, na, nq, reps, p_error, "
        "p_error_theory, binom_std, seed; learn CSV columns: nq, n, p, "
        "n_per_class, train_error, test_error, seed; learn --runs-csv CSV columns: "
        "b_hat, label, n_outcomes, seed (the runs read back, seed from --seed; "
        "threshold and errors also land in the JSON summary)",
        ("mode", "kind", "n", "d", "phi", "na", "nq_grid", "reps", "p", "per_class",
         "splits", "runs_csv"), {"n": 8, "reps": 200}),
    "train": Subcommand(
        "variationally maximize Bell magic",
        "CSV columns: epoch, b, grad_norm, lr, seed; the JSON summary's checkpoint holds "
        "the final theta, the Adam moments adam_m and adam_v, and the epochs run",
        ("n", "d", "epochs", "lr", "lr_decay", "nq"), {"n": 4, "d": 6}, {"nq": _AT_LEAST_0}),
    "entangle": Subcommand(
        "Meyer-Wallach entanglement from Bell samples",
        "CSV columns: rep, family, n, nq, p, e_exact, e_raw, e_mtg, p_hat, seed",
        # Meyer-Wallach entanglement needs two qubits
        ("family", "n", "d", "nt", "na", "phi", "p", "nq", "reps"), {}, {"n": (2, DENSE_CAP)}),
    "sweep": Subcommand(
        "estimation-error sweeps over N_Q, p or N_R",
        "error-vs-nq CSV columns: n, na, p, nq, nr, mean_abs_error, seed; "
        "error-vs-p CSV columns: n, na, p, nq, mean_abs_error, seed; "
        "resampling CSV columns: n, na, nq, nr, mode, mean_abs_error, std_error, seed. "
        "Fitted log-log slopes land in the JSON summary, null where the fit has "
        "fewer than two distinct x values or an x or error that is not above 0",
        # a grid N_R has no "0 = 10*nq" default
        ("experiment", "n", "d", "na", "nq", "nq_grid", "p_grid", "nr_grid", "reps"), {},
        {"nr": _AT_LEAST_1}),
}


@functools.cache  # built once per process; parse_args only reads it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bellmagic",
        description="Reproduce Bell-magic numerics: estimation, mitigation, "
        "discrimination, variational maximization, entanglement.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=spec.help, epilog=spec.epilog)
        for dest in spec.options + _COMMON:
            opt = _OPTIONS[dest]
            default = spec.defaults.get(dest, opt.default)
            text = opt.help + (f" ({' | '.join(opt.choices)})" if opt.choices else "")
            if default is not None:
                text += f"; default {default}"
            # defaults stay None here so _merge_config can tell a flag from a config value
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, type=opt.type,
                            help=text)
    return p


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config: {e}") from None
        if not isinstance(config, dict):
            raise UsageError("config must be a JSON object")
        if config.pop("version", 1) != 1:
            raise UsageError("unsupported config version")
        config.pop("command", None)
        unknown = set(config) - set(_OPTIONS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    overrides = _SUBCOMMANDS[args.command].defaults
    for key, opt in _OPTIONS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, overrides.get(key, opt.default)))
    if args.threads is None:
        args.threads = os.cpu_count() or 1
    return args


def _check_bounds(key: str, value, bounds: tuple) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value!r}")
    low, high = bounds  # compared with `not` so that NaN fails both
    if low is not None and not value >= low:
        raise UsageError(f"{key} must be at least {low}, got {value!r}")
    if high is not None and not value <= high:
        raise UsageError(f"{key} must be at most {high}, got {value!r}")


def _check_values(args: argparse.Namespace) -> None:
    """Check the subcommand's options against their types, choices and bounds.

    Flags arrive typed from argparse; config values must have the option's
    JSON type (a float option also takes an int, and no option takes a bool).
    A grid is replaced by its parsed list of entries.  Keys of other
    subcommands are left unchecked, since they are ignored.
    """
    spec = _SUBCOMMANDS[args.command]
    for key in spec.options + _COMMON:
        opt, value = _OPTIONS[key], getattr(args, key)
        if value is None and opt.default is None:
            continue
        allowed = (int, float) if opt.type is float else opt.type
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise UsageError(f"{key} must be a {opt.type.__name__}, got {value!r}")
        if opt.lists:
            listed = _OPTIONS[opt.lists]
            value = _parse_grid(value, listed.type, opt.choices)
            for entry in value:
                if entry not in opt.choices:
                    _check_bounds(key, entry, spec.bounds.get(opt.lists, listed.bounds))
        else:
            if opt.choices and value not in opt.choices:
                raise UsageError(f"{key} must be one of {', '.join(opt.choices)}, got {value!r}")
            try:
                value = opt.type(value)
            except OverflowError:  # a config int beyond the float range
                raise UsageError(f"{key} must be finite, got {value!r}") from None
            _check_bounds(key, value, spec.bounds.get(key, opt.bounds))
        setattr(args, key, value)
    # sweep and the many-magic curve build magic-input states without a --family
    many_curve = args.mode == "curve" and args.kind == "many"
    implied = {"sweep": "magic-input", "discriminate": "magic-input" if many_curve else None}
    _check_family(implied.get(args.command, args.family), args)
    # outcome counts below what an estimator needs
    if args.command == "discriminate" and many_curve and min(args.nq_grid) < 2:
        raise UsageError(f"the many-magic curve needs nq-grid entries of at least 2, "
                         f"got {min(args.nq_grid)}")
    if (args.command == "discriminate" and args.mode == "curve"
            and max(args.nq_grid) > EXHAUSTIVE_CAP):
        raise UsageError(f"a curve scores every quadruple of at most {EXHAUSTIVE_CAP} "
                         f"outcomes, got an nq-grid entry of {max(args.nq_grid)}")
    if (args.command == "sweep" and args.experiment == "resampling"
            and "disjoint" in args.nr_grid and args.nq < 4):
        raise UsageError(f"disjoint quadruples need nq of at least 4, got {args.nq}")
    # an --out that cannot be written fails here, not after the run
    if args.out and os.path.isdir(args.out):
        raise UsageError(f"out {args.out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError(f"out {args.out!r} is in a directory that does not exist")


def _check_family(family: str | None, args: argparse.Namespace) -> None:
    """Limits a state family puts on the other options."""
    if family == "magic-input" and args.na > args.n:
        raise UsageError(f"na must be at most n = {args.n} for magic-input, got {args.na}")
    if family == "clifford-t" and args.nt > 2 * args.n * args.d:
        raise UsageError(f"nt must be at most 2*n*d = {2 * args.n * args.d} for clifford-t, "
                         f"got {args.nt}")
    max_n = max(states.MAX_MAGIC_ADDITIVE)
    if family == "max" and args.n > max_n:
        raise UsageError(f"n must be at most {max_n} for max, got {args.n}")


def main(argv=None) -> int:
    import platform

    from . import __version__

    args = build_parser().parse_args(argv)
    try:
        args = _merge_config(args)
        # before the grids are parsed, so that it loads back as a --config file, and
        # without --out, so that a rerun from it writes only where its own --out says
        config = {key: getattr(args, key)
                  for key in _SUBCOMMANDS[args.command].options + _COMMON if key != "out"}
        _check_values(args)
        rows, stats = COMMANDS[args.command](args)
        summary = {"command": args.command, "config": config, **stats,
                   "versions": {"bellmagic": __version__, "numpy": np.__version__,
                                "python": platform.python_version()}}
        try:
            write_rows(rows, args.out)
            write_summary(summary, args.out)
        except OSError as e:
            raise UsageError(f"cannot write {args.out or 'stdout'!r}: {e}") from None
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:  # numerical failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out} (+ .summary.json)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
