"""Per-layer spans and work counts for the handsim benchmark.

Nothing under ``src/`` is changed: a ``Tracer`` replaces the names a caller
looks up (module attributes, and the callables of each ``HybridSystem``
handed to ``simulate``) with wrappers that time and count, and puts every
original back when it is closed.

Two depths:

* coarse: spans around ``run_scenario``, ``simulate``, the analysis monitors,
  the artifact writers and readers. These are few calls per run, so the
  coarse times are close to the untraced ones.
* fine: additionally wraps the flow field ``F``, the jump map ``G``, the
  membership tests ``in_C``/``in_D`` and the disturbance signals. These are
  called up to millions of times per run and wrapping them slows the engine
  by up to about 1.7x, so fine runs are used for exact call counts and for
  the closures' own time, never for the coarse spans.

Time is attributed as self time: a span's duration minus the spans nested
inside it, so the layer times of one run add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import os
from collections import defaultdict
from time import perf_counter

# layer names used as keys of Tracer.busy
SCENARIOS = "scenarios"
ENGINE = "engine"
FLOW = "flow"
SIGNAL = "signal"
MEMBERSHIP = "membership"
JUMP = "jump"
ANALYSIS = "analysis"
IO_WRITE = "io_write"
IO_READ = "io_read"
CLI = "cli"

CLOSURE_LAYERS = (FLOW, SIGNAL, MEMBERSHIP, JUMP)

_ANALYSIS_NAMES = ("lyapunov", "time_to_epsilon")
_ANALYSIS_PREFIXES = ("check_", "jump_decrease_")


class Tracer:
    """Installs timing/counting wrappers on handsim's public entry points.

    Use as a context manager; ``reset()`` clears the totals between
    operations, ``snapshot()`` returns them as one flat dict.
    """

    def __init__(self, fine: bool = False):
        self.fine = fine
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # per open span: time spent in nested spans
        self._saved = []  # (owner, attribute, original) in install order

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.busy.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        out = {"busy." + k: v for k, v in self.busy.items()}
        out.update(("count." + k, v) for k, v in self.counts.items())
        return out

    def span(self, layer, fn, after=None):
        """Wrap fn as a span of `layer`; after(result, args) updates counts."""
        stack = self._stack
        busy = self.busy

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                busy[layer] += perf_counter() - t0 - stack[-1]
                if after is not None:
                    after(result, args)
                return result
            finally:
                stack.pop()
                # the caller's self time excludes this span and its counting
                if stack:
                    stack[-1] += perf_counter() - t0

        return wrapped

    def leaf(self, layer, fn):
        """Lean wrapper for hot closures that call no other traced span."""
        stack = self._stack
        busy = self.busy
        counts = self.counts

        def wrapped(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            busy[layer] += dt
            counts[layer + "_calls"] += 1
            stack[-1] += dt
            return result

        return wrapped

    # -- installation ----------------------------------------------------

    def _patch(self, owner, name, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        import handsim.analysis
        import handsim.cli
        import handsim.engine
        import handsim.scenarios

        scen = handsim.scenarios
        self._patch(scen, "run_scenario", self.span(SCENARIOS, scen.run_scenario))
        for mod in (scen, handsim.analysis):
            self._patch(mod, "simulate", self._simulate_span(mod.simulate))
        for name in sorted(vars(scen)):
            if name in _ANALYSIS_NAMES or name.startswith(_ANALYSIS_PREFIXES):
                self._patch(scen, name, self.span(ANALYSIS, getattr(scen, name), self._count_samples))
            elif name.startswith("write_"):
                self._patch(scen, name, self.span(IO_WRITE, getattr(scen, name), self._count_written))
        self._patch(handsim.cli, "read_trace_csv",
                    self.span(IO_READ, handsim.cli.read_trace_csv, self._count_read))
        self._patch(handsim.cli, "read_summary_json", self.span(IO_READ, handsim.cli.read_summary_json))
        self._patch(handsim.cli, "main", self.span(CLI, handsim.cli.main, self._count_check))
        if self.fine:
            self._patch(handsim.engine, "make_signal", self._signal_factory(handsim.engine.make_signal))
        return self

    def close(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-layer wrappers and counters ---------------------------------

    def _simulate_span(self, simulate):
        from handsim.engine import tableau

        counts = self.counts

        def traced(sys, z0, cfg, *args, **kwargs):
            calls_before = counts.get(FLOW + "_calls", 0)
            if self.fine:
                sys = dataclasses.replace(
                    sys,
                    F=self.leaf(FLOW, sys.F),
                    G=self.leaf(JUMP, sys.G),
                    in_C=self.leaf(MEMBERSHIP, sys.in_C),
                    in_D=self.leaf(MEMBERSHIP, sys.in_D),
                )
            trace = self.span(ENGINE, simulate)(sys, z0, cfg, *args, **kwargs)
            steps = int(trace.meta["flow_steps"])
            counts["trajectories"] += 1
            counts["flow_steps"] += steps
            counts["jumps"] += len(trace.events)
            counts["rows_recorded"] += len(trace.ts)
            counts["faults"] += int(trace.fault is not None)
            if self.fine:
                stages = tableau(cfg.integrator).stages
                calls = counts.get(FLOW + "_calls", 0) - calls_before
                if calls % stages:
                    raise AssertionError("%d flow-field calls is not a multiple of %d stages"
                                         % (calls, stages))
                counts["trials_discarded"] += calls // stages - steps
            return trace

        return traced

    def _signal_factory(self, make_signal):
        def traced(spec):
            return self.leaf(SIGNAL, make_signal(spec))

        return traced

    def _count_samples(self, result, args) -> None:
        self.counts["samples_checked"] += int(getattr(result, "checked", 0))

    def _count_written(self, result, args) -> None:
        path = args[0]
        self.counts["bytes_written"] += os.path.getsize(path)
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                self.counts["rows_written"] += fh.read().count(b"\n") - 1

    def _count_read(self, table, args) -> None:
        self.counts["rows_read"] += len(table.t)

    def _count_check(self, result, args) -> None:
        self.counts["checks_run"] += 1
