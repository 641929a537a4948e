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
from typing import List, Optional, Tuple

import numpy as np

from .analysis import bound_margins
from .io import read_summary_json, read_trace_csv, write_summary_json
from .scenarios import ConfigError, apply_override, load_config, run_scenario

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


def _sweep_job(payload: Tuple[dict, str]) -> int:
    config, out_dir = payload
    return run_scenario(config, out_dir=out_dir, quiet=True)


def _thread_cap(n_jobs: int) -> int:
    cap = os.environ.get("HAND_SIM_THREADS")
    if cap is not None:
        try:
            cap_n = int(cap)
        except ValueError:
            raise ConfigError("HAND_SIM_THREADS must be an integer, got %r" % cap)
        if cap_n < 1:
            raise ConfigError("HAND_SIM_THREADS must be at least 1")
        return min(cap_n, max(1, n_jobs))
    return min(max(1, n_jobs), os.cpu_count() or 1)


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    values = _parse_values(args.values)
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

    jobs = []
    for value, token in zip(values, tokens):
        cfg = apply_override(base, args.param, value)
        out_dir = os.path.join(parent, "%s=%s" % (param_slug, token))
        jobs.append((token, cfg, out_dir))
    os.makedirs(parent, exist_ok=True)

    results = {}
    workers = _thread_cap(len(jobs))
    if jobs and workers > 1:
        # imported here, as only a sweep on workers uses it: loading it
        # (and logging with it) costs every process start some milliseconds
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_sweep_job, [(cfg, out) for _, cfg, out in jobs]))
        for (token, _, out_dir), code in zip(jobs, codes):
            results[token] = (out_dir, code)
    else:
        for token, cfg, out_dir in jobs:
            results[token] = (out_dir, run_scenario(cfg, out_dir=out_dir, quiet=True))

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
    bound_checks = summary.get("bound_checks")
    if not isinstance(bound_checks, dict) or table_key not in bound_checks:
        raise ConfigError("summary %s records no bound constants for %r"
                          % (summary_path, table_key))
    bc = bound_checks[table_key]
    if bc.get("kind") != args.bound:
        raise ConfigError("trace %r was certified against %r, not %r"
                          % (table_key, bc.get("kind"), args.bound))
    try:
        table = read_trace_csv(args.trace)
    except OSError as e:
        raise ConfigError("cannot read trace %s: %s" % (args.trace, e.strerror or e))

    # the rows, bounds and margins are the in-run monitors' own
    # (analysis.bound_margins). A run writes at most one fault row, as its
    # last row: a fault label anywhere else would hide a sample from the
    # bound, so it is a violation
    fault = table.event == "fault"
    misplaced = bool(fault[:-1].any())
    disorder = _hybrid_time_disorder(table.t, table.j, table.event)
    worst, bad, rows = bound_margins(bc, table.t, table.j, table.tau, table.f_gap, fault)
    ok = bool(rows) and not bad and not misplaced and disorder is None
    if misplaced:
        print("fault label on data row %d of %d; a run writes its one fault row last"
              % (int(np.flatnonzero(fault[:-1])[0]) + 1, len(fault)))
    if disorder is not None:
        print("hybrid time out of order on data row %d of %d: (t, j) = (%r, %d) after (%r, %d), labelled %s"
              % (disorder + 1, len(fault), float(table.t[disorder]), table.j[disorder],
                 float(table.t[disorder - 1]), table.j[disorder - 1], table.event[disorder]))
    # printed as the gap's worst excess over the bound; 0.0 - m rather
    # than -m so that an exact hit prints 0, not -0
    print("%s bound on %s: %s (%d samples, worst margin %.6g)"
          % (args.bound, table_key, "holds" if ok else "VIOLATED", len(rows),
             0.0 - worst if rows else math.nan))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _hybrid_time_disorder(t, j, event) -> Optional[int]:
    """First row whose hybrid time (t, j) cannot follow the row before it,
    or None. Along a recorded run t never decreases, and j never decreases
    and steps by at most 1, only between two rows at the same t (a jump
    takes no time), and exactly onto the rows labelled jump: a run labels
    each post-jump state so, and no other row."""
    dt = np.diff(t)
    dj = np.diff(j)
    # not (dt >= 0) rather than dt < 0, so that a nan time is out of order
    wrong = (~(dt >= 0.0) | (dj < 0) | (dj > 1) | ((dj == 1) & (dt != 0.0))
             | ((dj == 1) != (event[1:] == "jump")))
    return int(np.argmax(wrong)) + 1 if wrong.any() else None


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
