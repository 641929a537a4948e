#!/usr/bin/env python3
"""handsim benchmark: time from a scenario config to a verified verdict.

Run from the repository root (see perfbench/README.md):

    python3 perfbench/run.py --workload hand1-rate --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop: the next operation starts
when the previous verdict is in, on one thread. An operation is one
``run_scenario`` call on a bundled config (or, for ``audit``, one
``hand-sim check`` over every fixture trace). Every operation is checked:
exit status 0, every ``checks`` entry true, artifacts byte-identical to the
first operation's. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones. Without ``--workload`` every workload runs, each in its own
process, and a table of every metric follows.
"""

import os

# Pin native thread pools before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy

from layers import CLOSURE_LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# Workloads are bundled configs shrunk by config overrides (mostly the step
# size, as `hand-sim run --h` sets it), so one operation takes 0.1-3 s and a
# run holds several: the bundled sizes (up to 47 s per scenario) do not fit
# the run budget. The shrink keeps each workload's shape (trajectory count,
# integrator, dimension, jump policy, artifact mix) and every check passing.
HAND1_RATE = ("configs/hand1-rate.json", {"solver.h": 0.01})
WORKLOADS = {
    # 15 rk4 hand2 trajectories of the same shape on the 1-d sphere, no
    # trace CSV: engine-bound, where batching trajectories shows.
    "restart-sweep": {"scenario": ("configs/restart-sweep.json", {"solver.h": 0.02})},
    # rk4 hand1 over the cost corpus, dimensions 1 and 2, five trace CSVs
    # and the rate/monotonicity monitors: a 1-d-only fast path shows here.
    "hand1-rate": {"scenario": HAND1_RATE},
    # euler, two flow-only ODE forms ending on their stop condition plus
    # hand2 under a square wave: per-step overhead, nothing to batch.
    "instability": {"scenario": ("configs/instability.json",
                                 {"solver.h": 0.04, "params.hand_t_end": 3000.0})},
    # offline `hand-sim check` over the hand1-rate and hand2-rate traces:
    # engine idle, CSV reading and bound math.
    "audit": {"fixtures": ((HAND1_RATE, "inverse-square"),
                           (("configs/hand2-rate.json", {}), "exponential"))},
}

SETUP_PROBES = 11
MIN_OPS = 3
FINE_OPS = 2

# Host-speed calibration. The shared host this benchmark was defined on runs
# the same pure-Python code up to 2.2x slower for seconds to minutes at a
# time, so any raw time (median, minimum or quartile of a 24 s run) spread
# 18-25% between runs. Every timed operation and set-up probe is therefore
# bracketed by a fixed reference slice (REF_STEPS steps of a small numpy rk4
# loop plus a CSV parse: the same interpreter-bound mix as handsim), and
# `setup_s` and `wall_s` are reported in reference seconds: measured seconds
# x REF_S / (mean time of the two slices around it). REF_S is about the
# slice's time when that host (Intel Xeon, 2 vCPUs, Python 3.11) runs fast,
# so a reference second is close to a wall second there. The raw medians are
# printed beside them.
REF_STEPS = 5000
REF_S = 0.07
REF_CSV = "".join("%d,%d,%.17g,%.17g,flow\n" % (k, k // 50, k * 0.01, 1.0 / (k + 1)) for k in range(500))

FIXTURE_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
                "from handsim.scenarios import run_scenario; "
                "sys.exit(run_scenario(json.loads(sys.argv[2]), out_dir=sys.argv[3], quiet=True))")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no handsim sources, no configs)."""


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def import_handsim():
    """Import handsim from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "handsim", "__init__.py")):
        raise SetupError("no handsim sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import handsim
    import handsim.cli
    import handsim.scenarios

    if os.path.dirname(os.path.dirname(os.path.abspath(handsim.__file__))) != SRC:
        raise SetupError("handsim imported from %s, not %s" % (handsim.__file__, SRC))
    return handsim


def apply_seed(config, seed):
    """Set the seed fields that `hand-sim run --seed` sets."""
    from handsim.scenarios import apply_override

    config = apply_override(config, "solver.policy_seed", seed)
    if "disturbance" in config:
        config = apply_override(config, "disturbance.seed", seed)
    if "seed" in config.get("params", {}):
        config = apply_override(config, "params.seed", seed)
    return config


def resolve(spec, seed):
    from handsim.scenarios import ConfigError, apply_override, load_config

    path, overrides = spec
    try:
        config = load_config(os.path.join(ROOT, path))
    except ConfigError as e:
        raise SetupError(str(e)) from None
    for key, value in overrides.items():
        config = apply_override(config, key, value)
    return config if seed is None else apply_seed(config, seed)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Outcome:
    """One operation: its wall time, verdict and what it produced."""

    wall: float = 0.0
    ok: bool = False
    why: str = ""
    digests: dict = field(default_factory=dict)
    cpu: float = 0.0
    steal_s: float = None
    layers: dict = None
    ref: float = None  # mean time of the reference slices before and after


class Workload:
    """Resolved inputs of one workload and the operation that runs them."""

    def __init__(self, name, seed, work_dir):
        self.work_dir = work_dir
        self.out = os.path.join(work_dir, "out")
        spec = WORKLOADS[name]
        self.config = resolve(spec["scenario"], seed) if "scenario" in spec else None
        self.fixtures = [(resolve(cfg, seed), bound) for cfg, bound in spec.get("fixtures", ())]
        self.checks = []  # audit: (trace path, bound, samples its bound covers)
        self.fixture_digests = {}

    def prepare(self):
        """Build the audit fixtures with the code under test, untimed and in
        a child process, so this process's peak memory is the audit's own."""
        for k, (config, bound) in enumerate(self.fixtures):
            out = os.path.join(self.work_dir, "fixture%d" % k)
            done = subprocess.run([sys.executable, "-c", FIXTURE_CODE, SRC, json.dumps(config), out],
                                  stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise SetupError("fixture %s exited %d" % (config["scenario"], done.returncode))
            for name in sorted(os.listdir(out)):
                self.fixture_digests["fixture%d/%s" % (k, name)] = sha256_file(os.path.join(out, name))
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                bound_checks = json.load(fh)["bound_checks"]
            for name in sorted(bound_checks):
                path = os.path.join(out, name)
                self.checks.append((path, bound, covered_rows(path, bound)))

    def run(self, handsim):
        if self.config is not None:
            return self._run_scenario(handsim)
        return self._run_audit(handsim)

    def _run_scenario(self, handsim):
        shutil.rmtree(self.out, ignore_errors=True)
        t0 = perf_counter()
        code = handsim.scenarios.run_scenario(self.config, out_dir=self.out, quiet=True)
        wall = perf_counter() - t0
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        failed = sorted(k for k, v in checks.items() if v is not True)
        ok = code == 0 and bool(checks) and not failed
        why = "" if ok else "exit %d, failed checks %s" % (code, failed)
        digests = {name: sha256_file(os.path.join(self.out, name)) for name in sorted(os.listdir(self.out))}
        return Outcome(wall=wall, ok=ok, why=why, digests=digests)

    def _run_audit(self, handsim):
        results = []
        t0 = perf_counter()
        for path, bound, _ in self.checks:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = handsim.cli.main(["check", path, "--bound", bound])
            results.append((code, buf.getvalue()))
        wall = perf_counter() - t0
        why = []
        digests = {}
        for (path, bound, expected), (code, text) in zip(self.checks, results):
            label = "%s:%s" % (os.path.basename(path), bound)
            digests[label] = hashlib.sha256(text.encode()).hexdigest()
            match = re.search(r"\((\d+) samples", text)
            samples = int(match.group(1)) if match else None
            if code != 0 or samples != expected:
                why.append("%s exit %d, %s samples for %d covered rows" % (label, code, samples, expected))
        return Outcome(wall=wall, ok=not why, why="; ".join(why), digests=digests)


def covered_rows(path, bound):
    """Rows of a trace CSV that `bound` applies to: non-fault rows, and for
    the inverse-square bound only those before the first jump."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return sum(1 for r in rows if r["event"] != "fault" and (bound != "inverse-square" or r["j"] == "0"))


def cpu_steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_one(workload, handsim, tracer, reference):
    """One operation with its noise record; any error fails the operation."""
    steal0 = cpu_steal_ticks()
    cpu0 = process_time()
    if tracer is not None:
        tracer.reset()
    try:
        out = workload.run(handsim)
    except Exception:
        out = Outcome(why=traceback.format_exc())
    out.cpu = process_time() - cpu0
    steal1 = cpu_steal_ticks()
    if steal0 is not None and steal1 is not None:
        out.steal_s = (steal1 - steal0) / os.sysconf("SC_CLK_TCK")
    if tracer is not None:
        out.layers = tracer.snapshot()
    if out.ok:
        reference.setdefault("digests", out.digests)
        if out.digests != reference["digests"]:
            out.ok = False
            out.why = "artifact digests differ from the first operation"
    print("op %-9s wall %.6f s  cpu %.6f s  steal %s  %s"
          % ("" if tracer is None else ("fine" if tracer.fine else "traced"), out.wall, out.cpu,
             "n/a" if out.steal_s is None else "%.2f s" % out.steal_s,
             "ok" if out.ok else "FAILED: " + out.why.strip()), flush=True)
    return out


def ref_slice():
    """Time one fixed slice of reference work that never touches handsim."""
    t0 = perf_counter()
    z = numpy.array([1.0, 0.5])
    k = numpy.empty((4, 2))
    h = 0.01

    def f(x, out):
        out[0] = x[1]
        out[1] = -x[0] - 0.1 * x[1]

    for _ in range(REF_STEPS):
        f(z, k[0])
        f(z + 0.5 * h * k[0], k[1])
        f(z + 0.5 * h * k[1], k[2])
        f(z + h * k[2], k[3])
        z = z + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
        if not numpy.all(numpy.isfinite(z)):
            raise AssertionError("reference slice diverged")
    total = sum(float(row[2]) * float(row[3]) for row in csv.reader(io.StringIO(REF_CSV)) if row[4] == "flow")
    if not total > 0:
        raise AssertionError("reference slice parsed nothing")
    return perf_counter() - t0


def calibrated(pairs):
    """Median of (seconds, reference) pairs in reference seconds."""
    return statistics.median(sec * REF_S / ref for sec, ref in pairs)


def measure(workload, handsim, seconds, reference, tracer=None):
    """Closed loop of operations, each bracketed by reference slices."""
    ops = []
    start = perf_counter()
    before = ref_slice()
    while len(ops) < MIN_OPS or perf_counter() - start < seconds:
        op = run_one(workload, handsim, tracer, reference)
        after = ref_slice()
        op.ref = (before + after) / 2
        before = after
        ops.append(op)
    return ops


def ok_or_all(ops):
    return [op for op in ops if op.ok] or ops


def median_wall(ops):
    """Median operation time in reference seconds."""
    return calibrated((op.wall, op.ref) for op in ok_or_all(ops))


def raw_median_wall(ops):
    return statistics.median(op.wall for op in ok_or_all(ops))


def setup_seconds(args):
    """Median time for a fresh process to import handsim and resolve the
    workload's configs, in reference seconds, and the raw median."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    probes = []
    before = ref_slice()
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        took = perf_counter() - t0
        if done.returncode != 0:
            raise SetupError("setup probe exited %d" % done.returncode)
        after = ref_slice()
        probes.append((took, (before + after) / 2))
        before = after
    # the first probe warms the file cache, which a user's repeated runs find warm
    probes = probes[1:]
    return calibrated(probes), statistics.median(took for took, _ in probes)


def fingerprint(handsim):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "handsim": getattr(handsim, "__version__", "unknown"),
    }


def code_digest():
    """Digest of everything that decides the counts: sources, configs, benchmark."""
    h = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0" + sha256_file(path).encode())
    return h.hexdigest()[:16]


def check_counts(ops_coarse, ops_fine, key):
    """Counts must repeat exactly: across traced operations, between the fine
    operations, and against earlier runs of the same code and seed."""
    problems = []

    def counts(op):
        return {k[len("count."):]: v for k, v in op.layers.items() if k.startswith("count.")}

    coarse = [counts(op) for op in ops_coarse]
    fine = [counts(op) for op in ops_fine]
    if any(c != coarse[0] for c in coarse):
        problems.append("coarse counts differ between operations: %s" % coarse)
    if any(f != fine[0] for f in fine):
        problems.append("fine counts differ between operations: %s" % fine)
    if {k: fine[0].get(k, 0) for k in coarse[0]} != coarse[0]:
        problems.append("fine counts %s disagree with coarse counts %s" % (fine[0], coarse[0]))
    path = os.path.join(WORK, "counts", key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != fine[0]:
            problems.append("counts %s differ from an earlier run of this code: %s" % (fine[0], earlier))
    elif not problems:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(fine[0], fh, sort_keys=True)
        os.replace(path + ".tmp", path)
    return fine[0], problems


def layer_metrics(plain, coarse, fine, counts):
    """Per-operation layer times and counts of one traced run."""

    def med(key):
        return statistics.median(op.layers.get("busy." + key, 0.0) for op in coarse)

    def fine_mean(key):
        return statistics.fmean(op.layers.get("busy." + key, 0.0) for op in fine)

    steps = counts.get("flow_steps", 0)
    discarded = counts.get("trials_discarded", 0)
    engine_busy = med("engine")
    return {
        "engine.busy_s": engine_busy,
        "engine.self_s": engine_busy - sum(fine_mean(k) for k in CLOSURE_LAYERS),
        "engine.us_per_step": engine_busy * 1e6 / steps if steps else 0.0,
        "engine.trajectories": counts.get("trajectories", 0),
        "engine.flow_steps": steps,
        "engine.jumps": counts.get("jumps", 0),
        "engine.rows_recorded": counts.get("rows_recorded", 0),
        "engine.faults": counts.get("faults", 0),
        "engine.trials_discarded": discarded,
        "engine.useful_step_ratio": steps / (steps + discarded) if steps else 1.0,
        "dynamics.flow_calls": counts.get("flow_calls", 0),
        "dynamics.flow_s": fine_mean("flow"),
        "dynamics.signal_calls": counts.get("signal_calls", 0),
        "dynamics.signal_s": fine_mean("signal"),
        "hands.membership_calls": counts.get("membership_calls", 0),
        "hands.membership_s": fine_mean("membership"),
        "hands.jump_calls": counts.get("jump_calls", 0),
        "hands.jump_s": fine_mean("jump"),
        "analysis.busy_s": med("analysis"),
        "analysis.samples_checked": counts.get("samples_checked", 0),
        "io.write_s": med("io_write"),
        "io.rows_written": counts.get("rows_written", 0),
        "io.bytes_written": counts.get("bytes_written", 0),
        "io.read_s": med("io_read"),
        "io.rows_read": counts.get("rows_read", 0),
        "scenarios.self_s": med("scenarios"),
        "cli.check_s": med("cli"),
        "cli.checks_run": counts.get("checks_run", 0),
        "tracing.overhead_s": median_wall(coarse) - median_wall(plain),
    }


def run_workload(args):
    e2e_units, layer_units = load_declared()
    handsim = import_handsim()
    work_dir = os.path.join(WORK, "run-%d" % os.getpid())
    workload = Workload(args.workload, args.seed, work_dir)
    if args.setup_only:
        return 0
    print("machine %s" % json.dumps(fingerprint(handsim), sort_keys=True))
    try:
        setup_s, raw_setup_s = setup_seconds(args)
        workload.prepare()
        reference = {}
        problems = []
        metrics = {}
        if args.trace:
            plain = measure(workload, handsim, args.seconds / 2, reference)
            with Tracer(fine=False) as tracer:
                coarse = measure(workload, handsim, args.seconds / 2, reference, tracer)
            with Tracer(fine=True) as tracer:
                fine = [run_one(workload, handsim, tracer, reference) for _ in range(FINE_OPS)]
            ops = plain + coarse + fine
            if all(op.ok for op in ops):
                key = "%s-%s-%s" % (args.workload, args.seed, code_digest())
                counts, problems = check_counts(coarse, fine, key)
                metrics = layer_metrics(plain, coarse, fine, counts)
                wall = raw_median_wall(coarse)
                for name in ("engine.busy_s", "analysis.busy_s", "io.write_s", "io.read_s",
                             "scenarios.self_s", "cli.check_s"):
                    print("share %-18s %6.1f%% of traced wall %.6f s" % (name, 100 * metrics[name] / wall, wall))
            units = layer_units
        else:
            ops = measure(workload, handsim, args.seconds, reference)
            metrics = {
                "setup_s": setup_s,
                "wall_s": median_wall(ops),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = e2e_units
            print("raw medians: setup %.6f s, operation %.6f s" % (raw_setup_s, raw_median_wall(ops)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for op in ops if not op.ok)
    for problem in problems:
        print("count check FAILED: %s" % problem)
    for name, digest in sorted({**workload.fixture_digests, **reference.get("digests", {})}.items()):
        print("digest %s %s" % (digest, name))
    ratios = [op.cpu / op.wall for op in ops if op.wall > 0]
    steals = [op.steal_s for op in ops if op.steal_s is not None]
    refs = [op.ref for op in ops if op.ref is not None]
    print("noise: %d operations, cpu/wall median %s, steal %s, reference slice median %s (nominal %.3f s)"
          % (len(ops), "%.3f" % statistics.median(ratios) if ratios else "n/a",
             "%.2f s in total" % sum(steals) if steals else "not available",
             "%.6f s" % statistics.median(refs) if refs else "n/a", REF_S))
    print("fail_ratio %.6g ratio (%d failed / %d attempted)" % (failed / len(ops), failed, len(ops)))
    correct = failed == 0 and not problems
    if correct and set(metrics) != set(units):
        raise AssertionError("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(units)))
    for name in units:
        if name in metrics:
            print("%-26s %-16.10g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, then one table of every metric."""
    rows = []
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print("== %s" % name, flush=True)
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print("workload %s exited %d without a result" % (name, done.returncode))
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
            metrics["%s/%s" % (name, metric)] = v
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
    print("== all workloads")
    for row in rows:
        print("%-14s %-26s %-16.10g %s" % row)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="handsim benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="workload to run (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed, applied through the scenarios' own seed fields "
                         "(default: the bundled seeds)")
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as e:
        print("perfbench: cannot run here: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
