"""Command line front end: run a canned scenario from a JSON config, fan a
config out over a parameter sweep, or re-verify a recorded trace against its
certified bound offline.

Exit status: 0 all checks passed, 1 at least one check failed or a bound is
violated, 2 configuration or usage error. Artifacts are deterministic; a
rerun with the same config and seeds reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .analysis import bound_margins
from .core import hybrid_time_fault
from .io import read_summary_json, read_trace_csv, write_summary_json
from .scenarios import (
    ConfigError,
    _fan_out,
    _make_out_dir,
    _thread_cap,
    apply_override,
    load_config,
    parse_config,
    run_scenario,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The hand-sim parser, built on first use and then reused by every
    main call of the process: parse_args leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="hand-sim",
        description="Deterministic experiments on accelerated gradient flow "
                    "and its restarting regularizations.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config", help="scenario config (JSON)")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: config out_dir)")
    run_p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="override every seed field the scenario has "
                            "(solver.policy_seed, disturbance.seed, params.seed)")
    run_p.add_argument("--h", type=float, default=None, metavar="H",
                       help="override solver.h")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    sweep_p = sub.add_parser("sweep", help="run one config across a parameter grid")
    sweep_p.add_argument("config", help="scenario config (JSON)")
    sweep_p.add_argument("--param", required=True, metavar="KEY",
                         help="dotted config key to vary, e.g. solver.h")
    sweep_p.add_argument("--values", required=True, metavar="LIST",
                         help="comma-separated values (JSON scalars; bare words are strings)")
    sweep_p.add_argument("--out", default=None, metavar="DIR",
                         help="parent output directory (default: config out_dir)")
    sweep_p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    check_p = sub.add_parser("check", help="re-verify a trace CSV against its recorded bound")
    check_p.add_argument("trace", help="trace CSV written by a rate scenario")
    check_p.add_argument("--bound", required=True, choices=("inverse-square", "exponential"),
                         help="which certified bound to re-verify")
    check_p.add_argument("--summary", default=None, metavar="JSON",
                         help="summary file holding the bound constants "
                              "(default: summary.json next to the trace)")
    return ap


def _apply_seed(config: dict, seed: int) -> dict:
    config = apply_override(config, "solver.policy_seed", seed)
    if "disturbance" in config:
        config = apply_override(config, "disturbance.seed", seed)
    if "seed" in config.get("params", {}):
        config = apply_override(config, "params.seed", seed)
    return config


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.h is not None:
        config = apply_override(config, "solver.h", args.h)
    if args.seed is not None:
        config = _apply_seed(config, args.seed)
    return run_scenario(config, out_dir=args.out, quiet=args.quiet)


def _parse_values(text: str) -> List:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(json.loads(token))
        except ValueError:
            values.append(token)
    return values


def _value_token(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    values = _parse_values(args.values)
    if not values:
        raise ConfigError("--values names no value")
    tokens = [_value_token(v) for v in values]
    # each token names one run's directory under the parent: reject tokens
    # that repeat or that would climb out of it, before anything runs
    for token in tokens:
        if token in (".", "..") or "/" in token or os.sep in token:
            raise ConfigError("sweep value %r cannot name an output directory" % token)
        if tokens.count(token) > 1:
            raise ConfigError("sweep value %r is listed more than once" % token)
    parent = args.out if args.out is not None else base["out_dir"]
    param_slug = args.param.replace(".", "-")

    # every run's config is resolved before the parent directory is made, so
    # a bad value leaves no output
    jobs = []
    for value, token in zip(values, tokens):
        cfg = parse_config(apply_override(base, args.param, value))
        out_dir = os.path.join(parent, "%s=%s" % (param_slug, token))
        jobs.append((token, cfg, out_dir))
    _make_out_dir(parent)

    codes = _fan_out(lambda job: run_scenario(job[1], out_dir=job[2], quiet=True), jobs)
    results = {token: (out_dir, code) for (token, _, out_dir), code in zip(jobs, codes)}

    # merge in sorted-key order so the artifact is independent of scheduling
    merged = {
        "param": args.param,
        "values": tokens,
        "runs": {
            token: {"out_dir": os.path.relpath(results[token][0], parent),
                    "exit_status": results[token][1],
                    "pass": results[token][1] == 0}
            for token in sorted(results)
        },
    }
    write_summary_json(os.path.join(parent, "sweep_summary.json"), merged)
    if not args.quiet:
        for token in sorted(results):
            print("sweep %s=%s: %s" % (args.param, token,
                                       "pass" if results[token][1] == 0 else "FAIL"))
    return EXIT_OK if all(code == 0 for _, code in results.values()) else EXIT_CHECK_FAILED


def _cmd_check(args) -> int:
    summary_path = args.summary
    if summary_path is None:
        summary_path = os.path.join(os.path.dirname(os.path.abspath(args.trace)), "summary.json")
    try:
        summary = read_summary_json(summary_path)
    except OSError as e:
        raise ConfigError("cannot read summary %s: %s" % (summary_path, e.strerror or e))
    except ValueError as e:
        raise ConfigError("%s: %s" % (summary_path, e))
    table_key = os.path.basename(args.trace)
    bound_checks = summary.get("bound_checks") if isinstance(summary, dict) else None
    if not isinstance(bound_checks, dict) or table_key not in bound_checks:
        raise ConfigError("summary %s records no bound constants for %r"
                          % (summary_path, table_key))
    bc = bound_checks[table_key]
    if not isinstance(bc, dict):
        raise ConfigError("summary %s: bound_checks[%r] is not an object" % (summary_path, table_key))
    if bc.get("kind") != args.bound:
        raise ConfigError("trace %r was certified against %r, not %r"
                          % (table_key, bc.get("kind"), args.bound))
    # the summary writer records a constant that is not finite as null
    for key, value in bc.items():
        if key != "kind" and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError("summary %s: bound_checks[%r][%r] must be a number, got %s"
                              % (summary_path, table_key, key, json.dumps(value)))
    try:
        table = read_trace_csv(args.trace)
    except OSError as e:
        raise ConfigError("cannot read trace %s: %s" % (args.trace, e.strerror or e))

    # the rows, bounds and margins are the in-run monitors' own
    # (analysis.bound_margins), on a table whose hybrid times can be a run's
    fault = table.event == "fault"
    disorder = hybrid_time_fault(table.t, table.j, table.event == "jump", fault)
    try:
        worst, bad, rows, why = bound_margins(bc, table.t, table.j, table.tau, table.f_gap, fault)
    except KeyError as e:
        raise ConfigError("summary %s: bound_checks[%r] has no %s" % (summary_path, table_key, e))
    # the engine writes a fault row as a copy of the state row before it,
    # so its cells repeat that row's bit for bit
    cells = np.column_stack([table.tau, table.x1, table.x2, table.f_gap, table.v, table.dist_a])
    moved = [k for k in np.flatnonzero(fault) if k and cells[k].tobytes() != cells[k - 1].tobytes()]
    ok = why is None and disorder is None and not moved
    if disorder is not None:
        k, rule = disorder
        after = " after (%r, %d)" % (float(table.t[k - 1]), table.j[k - 1]) if k else ""
        print("hybrid time out of order on data row %d of %d: (t, j) = (%r, %d)%s, labelled %s; %s"
              % (k + 1, len(fault), float(table.t[k]), table.j[k], after, table.event[k], rule))
    for k in moved:
        print("fault row on data row %d of %d differs from the row before it; a run's fault row repeats"
              " its last recorded state" % (k + 1, len(fault)))
    # the margin (bound + tol) - gap with summary.json's sign, negative on a
    # violation; + 0.0 prints a -0.0 margin as 0
    print("%s bound on %s: %s (%d samples, worst margin %.6g)%s"
          % (args.bound, table_key, "holds" if ok else "VIOLATED", len(rows),
             worst + 0.0 if rows else math.nan, "" if why is None else "; " + why))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command != "check":
            # a bad HAND_SIM_THREADS is refused before any output exists
            _thread_cap(1)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_check(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
