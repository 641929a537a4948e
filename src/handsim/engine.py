"""Fixed-step simulation of hybrid systems (flow map, jump map, flow set,
jump set) with explicit Runge-Kutta integrators.

Discretization of the jump set follows the regularization

    D_h = D union { z : z = one flow step from some y in C, z not in C }

realized by provenance tagging: the loop knows whether the current state was
produced by a flow step from inside C, so overshoot states trigger jumps even
when D itself is a measure-zero slice (exact timer deadlines). States in
C intersect D are resolved by a jump policy; "escaped hybrid domain" and
"numerical blow-up" are first-class recorded outcomes, not exceptions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    TAG_FAULT,
    TAG_FLOW,
    TAG_JUMP,
    FaultRecord,
    JumpRecord,
    SolverConfig,
    Trace,
    compile_source,
)
from .dynamics import DisturbanceSpec, make_signal

__all__ = [
    "ButcherTableau",
    "TABLEAUS",
    "tableau",
    "HybridSystem",
    "PerturbationSet",
    "flow_only_system",
    "simulate",
]


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta tableau: a is strictly lower triangular (row k
    holds the k coefficients against earlier stages), weights b sum to 1."""

    label: str
    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(tuple(float(v) for v in row) for row in self.a)
        b = tuple(float(v) for v in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise ValueError("need one a-row per stage: %d rows, %d weights" % (len(a), len(b)))
        for k, row in enumerate(a):
            if len(row) != k:
                raise ValueError("stage %d must have %d coefficients, got %d (explicit methods only)" % (k, k, len(row)))
        if not all(map(math.isfinite, b + sum(a, ()))):
            raise ValueError("tableau entries must be finite")
        if abs(math.fsum(b) - 1.0) > 1e-12:
            raise ValueError("stage weights must sum to 1, got %r" % (math.fsum(b),))

    @property
    def stages(self) -> int:
        return len(self.b)


TABLEAUS = {
    "euler": ButcherTableau("euler", a=((),), b=(1.0,)),
    "heun": ButcherTableau("heun", a=((), (1.0,)), b=(0.5, 0.5)),
    "midpoint": ButcherTableau("midpoint", a=((), (0.5,)), b=(0.0, 1.0)),
    "rk4": ButcherTableau(
        "rk4",
        a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
        b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
    ),
}


def tableau(name: str) -> ButcherTableau:
    try:
        return TABLEAUS[name]
    except KeyError:
        raise ValueError("unknown tableau %r (known: %s)" % (name, ", ".join(sorted(TABLEAUS)))) from None


@dataclass
class HybridSystem:
    """Hybrid system on packed states z = [x1, x2, tau] of length 2*dim + 1.

    All four maps take z as any sequence of its components. F(z) returns
    the 2*dim + 1 flow-field components, computed component by component
    on a list of floats (numpy scalars where simulate redoes a step that
    raised). G(z) returns the post-jump state; in_C(z,
    inflation) / in_D(z, inflation) test set membership, where inflation >=
    0 widens the timer bounds (used to realize membership perturbations).
    meta carries timer bounds and labels for policies, reporting, and fast
    paths ("empty_jump_set" marks D = empty). simulate inlines F's
    components and in_C's and in_D's condition where the closures carry
    them (see dynamics and hands); a closure without them is called.
    """

    dim: int
    F: Callable[[Sequence], Sequence]
    G: Callable[[Sequence], Sequence]
    in_C: Callable[[Sequence, float], bool]
    in_D: Callable[[Sequence, float], bool]
    meta: dict = field(default_factory=dict)

    @property
    def packed_len(self) -> int:
        return 2 * self.dim + 1


def flow_only_system(flow: Callable, dim: int, meta: Optional[dict] = None) -> HybridSystem:
    """Wrap a pure flow as a hybrid system with empty jump set (C = everything)."""
    m = dict(meta or {})
    m["empty_jump_set"] = True
    return HybridSystem(
        dim=dim,
        F=flow,
        G=list,
        in_C=lambda z, inflation=0.0: True,
        in_D=lambda z, inflation=0.0: False,
        meta=m,
    )


@dataclass(frozen=True)
class PerturbationSet:
    """The six disturbance channels of the perturbed hybrid system:

    e1 flow-state, e2 flow-dynamics, e3 flow-set membership, e4 jump-state,
    e5 jump-output, e6 jump-set membership. None means zero. All signals are
    dimensioned to the packed state (2*dim + 1); membership channels act
    through their norm as timer-interval inflation.
    """

    e1: Optional[DisturbanceSpec] = None
    e2: Optional[DisturbanceSpec] = None
    e3: Optional[DisturbanceSpec] = None
    e4: Optional[DisturbanceSpec] = None
    e5: Optional[DisturbanceSpec] = None
    e6: Optional[DisturbanceSpec] = None


def _signal_or_none(spec: Optional[DisturbanceSpec], m: int, name: str):
    if spec is None or spec.is_zero():
        return None
    if spec.dim != m:
        raise ValueError("perturbation %s has dim %d, packed state needs %d" % (name, spec.dim, m))
    return make_signal(spec)


@functools.lru_cache(maxsize=None)
def _step_kernel(tab: ButcherTableau, m: int, field: Optional[tuple], disturbed: bool,
                 membership: Optional[tuple], key: Optional[str]):
    """One flow segment of explicit Runge-Kutta steps of tab on m
    components, generated as straight-line code on first use and cached by
    its arguments: seg(F, z, src, h, k, n, t_stop[, e]) returns (z', steps).

    A step takes z_i + (K_0,i*b_0 + K_1,i*b_1 + ... [+ e_i]) * h with K_0 =
    F(src) and stage k evaluated at (0.0 + K_0,i*a_k0 + ...) * h + src_i.
    Zero coefficients are skipped (except b_0) and a weight 1.0 is not
    multiplied, so every component takes a fixed order of operations. The
    components are floats (numpy scalars in simulate's fallback). field,
    F's component expressions ("{i}" for input i), is inlined in place of
    F; with field None each stage calls F on a list, and a wrong count
    raises ValueError naming the m expected.

    After step k + steps, at t = (k + steps) * h, the next step starts from
    the state reached, with the same e, unless steps == n, z[0] is not
    finite, t >= t_stop, the state is outside the flow set or inside the
    jump set (membership: their conditions in {tau} and {inflation}, tested
    at inflation 0), or the expression key in t, on which e depends,
    changed value."""
    r = range(m)

    def names(prefix):
        return "".join("%s%d, " % (prefix, i) for i in r)

    lines = ["def seg(F, z, src, h, k, n, t_stop%s):" % (", e" if disturbed else ""),
             "    %s= z" % names("z"), "    %s= src" % names("s")]
    if disturbed:
        lines.append("    %s= e" % names("e"))
    if key is not None:
        lines += ["    t = k * h", "    key = %s" % key]
    lines += ["    i = 0", "    while True:"]
    for k, row in enumerate(tab.a):
        arg = ["s%d" % i for i in r]
        if k:
            for i in r:
                lines.append("        a%d = (0.0%s) * h + s%d" % (
                    i, "".join(" + k%d_%d * %r" % (j, i, a) for j, a in enumerate(row) if a != 0.0), i))
            arg = ["a%d" % i for i in r]
        if field is None:
            lines.append("        %s= F([%s])" % (names("k%d_" % k), ", ".join(arg)))
        else:
            lines += ["        k%d_%d = %s" % (k, i, c.format(*arg)) for i, c in enumerate(field)]
    for i in r:
        terms = ["k%d_%d%s" % (k, i, "" if b == 1.0 else " * %r" % b)
                 for k, b in enumerate(tab.b) if k == 0 or b != 0.0]
        if disturbed:
            terms.append("e%d" % i)
        lines.append("        z%d = z%d + (%s) * h" % (i, i, " + ".join(terms)))
    ends = ["t >= t_stop"]
    if membership is not None:
        flows, jumps = (c.format(tau="z%d" % (m - 1), inflation="0.0") for c in membership)
        ends += ["not (%s)" % flows, "(%s)" % jumps]
    if key is not None:
        ends.append("(%s) != key" % key)
    # z0 - z0 is 0.0 exactly when z0 is finite
    lines += ["        i += 1",
              "        if i == n or z0 - z0 != 0.0:",
              "            break",
              "        t = (k + i) * h",
              "        if %s:" % " or ".join(ends),
              "            break",
              "        %s= %s" % (names("s"), names("z")[:-2]),
              "    return [%s], i" % names("z")[:-2]]
    return compile_source("\n".join(lines) + "\n", "seg")


def _all_finite(z) -> bool:
    return all(map(math.isfinite, z))


def simulate(sys: HybridSystem, z0, cfg: SolverConfig,
             pert: Optional[PerturbationSet] = None,
             stop_condition: Optional[Callable[[float, int, list], bool]] = None) -> Trace:
    """Run the hybrid simulation loop and return the recorded Trace.

    Each loop iteration does exactly one of: a jump z+ = G(z + e4) + e5 when
    the (perturbed) discretized jump set is hit and the policy elects it, or
    one integrator step of dz = F(z + e1) + e2 advancing t by h. Jumps never
    advance t, flow steps never advance j. Disturbance signals are evaluated
    at the step-start time and held constant over the step. The loop keeps
    the packed state as a list of floats; F, G, in_C, in_D and
    stop_condition are handed that list.

    Flow steps run in segments of the integrator's generated loop (see
    _step_kernel), which inlines F's components and the timer conditions of
    in_C and in_D. A segment ends at the next record point, when tau leaves
    C or enters D, when a piecewise-constant e2 switches, at the horizon,
    or at a non-finite z[0]; the loop takes over there. One-step segments
    serve the "latest" lookahead, the "uniform" draws in C intersect D, the
    e1, e3 and e6 channels, sinusoid signals, and closures without
    component expressions or conditions, which are called per step.

    Recording: the initial state, every record_stride-th flow step, both
    sides of every jump, and the final state. stop_condition(t, j, z) is
    evaluated at recorded points only; when it fires the run terminates with
    reason "condition". Other termination reasons: "horizon", "jump_cap"
    (the next required jump would exceed max_jumps; the pre-jump state is the
    final sample), "fault" (non-finite state, or state outside C union D_h
    with the fault kind and last finite state kept on the trace).

    A state in C intersect D jumps under the "earliest" policy, flows under
    "latest" unless the next flow step would leave C, and under "uniform"
    jumps with probability h / (t_max - tau + h), which needs the timer
    bound sys.meta["t_max"].
    """
    m = sys.packed_len
    z = np.array(z0, dtype=float).reshape(m)
    if not np.all(np.isfinite(z)):
        raise ValueError("initial state must be finite")
    z = z.tolist()
    h = cfg.h
    t_end = cfg.t_end
    max_jumps = cfg.max_jumps
    stride = cfg.record_stride
    empty_jump_set = bool(sys.meta.get("empty_jump_set", False))

    pert = pert or PerturbationSet()
    sig1 = _signal_or_none(pert.e1, m, "e1")
    sig2 = _signal_or_none(pert.e2, m, "e2")
    sig3 = _signal_or_none(pert.e3, m, "e3")
    sig4 = _signal_or_none(pert.e4, m, "e4")
    sig5 = _signal_or_none(pert.e5, m, "e5")
    sig6 = _signal_or_none(pert.e6, m, "e6")

    in_C = sys.in_C
    in_D = sys.in_D
    F = sys.F
    G = sys.G
    policy = cfg.jump_policy
    rng = None
    if policy == "uniform" and not empty_jump_set:
        t_max = sys.meta.get("t_max")
        if t_max is None:
            raise ValueError("uniform policy needs timer bounds in sys.meta['t_max']")
        rng = np.random.default_rng(cfg.policy_seed)

    # a segment runs past one step on an inlined field, timer membership
    # tests and a piecewise-constant e2 only; anything else takes one-step calls
    field = getattr(F, "components", None)
    key = getattr(sig2, "key", None)
    membership = None if empty_jump_set else (getattr(in_C, "condition", None), getattr(in_D, "condition", None))
    fused = (field is not None and sig1 is None and sig3 is None and sig6 is None
             and (sig2 is None or key is not None) and (membership is None or None not in membership))
    seg = _step_kernel(TABLEAUS[cfg.integrator], m, field, sig2 is not None,
                       membership if fused else None, key if fused else None)

    t_stop = t_end - 1e-12 * max(1.0, t_end)

    def infl(sig, t):
        return float(np.linalg.norm(sig(t))) if sig is not None else 0.0

    # initial state must sit in the (inflated) hybrid domain
    if not empty_jump_set:
        if not (in_C(z, infl(sig3, 0.0)) or in_D(z, infl(sig6, 0.0))):
            raise ValueError("initial state outside C union D (tau=%g)" % z[-1])

    ts, js, zs, tags = [], [], [], []

    def record(t, j, z, tag):
        # a state is kept as given: the loop never mutates one it recorded
        ts.append(t)
        js.append(j)
        zs.append(z)
        tags.append(tag)

    events: list = []
    fault: Optional[FaultRecord] = None
    termination = "horizon"

    stop_hit = False

    def flow(t, z, n):
        """Up to n steps of z + h (F(z + e1(t)) + e2(t)) from t: (z', steps)."""
        nonlocal fused
        src = z if sig1 is None else [a + e for a, e in zip(z, sig1(t).tolist())]
        e2 = () if sig2 is None else (sig2(t).tolist(),)
        try:
            return seg(F, z, src, h, k_step, n, t_stop, *e2)
        except (ZeroDivisionError, OverflowError):
            if n > 1:
                # redo the segment, and the rest of the run, on one-step calls
                fused = False
                return flow(t, z, 1)
            # a float division by zero or an overflowing power raises where
            # numpy scalars give inf or nan: redo the step on numpy scalars,
            # so the run ends as the recorded fault it always was
            return seg(F, z, [np.float64(v) for v in src], h, k_step, 1, t_stop, *e2)

    record(0.0, 0, z, TAG_FLOW)
    if stop_condition is not None and stop_condition(0.0, 0, z):
        stop_hit = True

    k_step = 0
    j = 0
    t = 0.0
    from_flow = False
    since_record = 0
    while not stop_hit:
        if t >= t_stop:
            termination = "horizon"
            break

        do_jump = False
        trial = None
        if not empty_jump_set:
            i3 = float(np.linalg.norm(sig3(t))) if sig3 is not None else 0.0
            i6 = float(np.linalg.norm(sig6(t))) if sig6 is not None else 0.0
            c_now = in_C(z, i3)
            d_now = in_D(z, i6) or (from_flow and not c_now)
            if d_now:
                # outside C the state must jump; in C intersect D the policy decides
                if not c_now or policy == "earliest":
                    do_jump = True
                elif policy == "latest":
                    # lookahead: jump only if the flow step would leave C
                    trial = flow(t, z, 1)
                    do_jump = not in_C(trial[0], i3)
                else:
                    # uniform: jump with probability h / (t_max - tau + h),
                    # which lands the jump uniformly over the remaining window
                    do_jump = rng.random() < h / (t_max - z[-1] + h)
            elif not c_now:
                fault = FaultRecord(t, j, "escaped", "state outside C union D_h (tau=%g)" % z[-1], np.array(z))
                termination = "fault"
                break

        if do_jump:
            # budget gates jumps, not flow: stop when one more jump would
            # exceed it, recording the pre-jump state as the final sample
            if j >= max_jumps:
                termination = "jump_cap"
                break
            if since_record > 0:
                if not _all_finite(z):
                    fault = FaultRecord(t, j, "blowup", "non-finite state before jump", np.array(zs[-1]))
                    termination = "fault"
                    break
                record(t, j, z, TAG_FLOW)
                since_record = 0
            z_pre = np.array(z)
            z_in = z if sig4 is None else [a + e for a, e in zip(z, sig4(t).tolist())]
            z_post = np.array(G(z_in), dtype=float).reshape(m)
            if sig5 is not None:
                z_post = z_post + sig5(t)
            if not np.all(np.isfinite(z_post)):
                fault = FaultRecord(t, j, "blowup", "jump map produced non-finite state", z_pre)
                termination = "fault"
                break
            events.append(JumpRecord(t, j, z_pre, z_post))
            j += 1
            z = z_post.tolist()
            from_flow = False
            record(t, j, z, TAG_JUMP)
            since_record = 0
            if not (in_C(z, infl(sig3, t)) or in_D(z, infl(sig6, t))):
                fault = FaultRecord(t, j, "escaped", "jump landed outside C union D (tau=%g)" % z[-1], z_post)
                termination = "fault"
                break
            if stop_condition is not None and stop_condition(t, j, z):
                stop_hit = True
            continue

        # a flow segment up to the next record point (the lookahead's step,
        # when one was taken)
        z, n = trial if trial is not None else flow(t, z, stride - since_record if fused else 1)
        k_step += n
        t = k_step * h
        from_flow = True
        since_record += n
        if not math.isfinite(z[0]):
            fault = FaultRecord(t, j, "blowup", "non-finite state during flow at t=%g" % t, np.array(zs[-1]))
            termination = "fault"
            break
        if since_record >= stride:
            if not _all_finite(z):
                fault = FaultRecord(t, j, "blowup", "non-finite state during flow at t=%g" % t, np.array(zs[-1]))
                termination = "fault"
                break
            record(t, j, z, TAG_FLOW)
            since_record = 0
            if stop_condition is not None and stop_condition(t, j, z):
                stop_hit = True

    if stop_hit:
        termination = "condition"
    # final sample: the fault row, or the last state when flow steps since
    # the last sample went unrecorded (a non-finite one turns into a fault)
    if termination == "fault":
        record(fault.t, fault.j, fault.z_last, TAG_FAULT)
    elif since_record > 0:
        if _all_finite(z):
            record(t, j, z, TAG_FLOW)
        else:
            fault = FaultRecord(t, j, "blowup", "non-finite state at horizon", np.array(zs[-1]))
            termination = "fault"
            record(fault.t, fault.j, fault.z_last, TAG_FAULT)
    meta = dict(sys.meta)
    meta.update(
        h=h,
        t_end=t_end,
        max_jumps=max_jumps,
        integrator=cfg.integrator,
        jump_policy=policy,
        policy_seed=cfg.policy_seed,
        record_stride=stride,
        dim=sys.dim,
        flow_steps=k_step,
    )
    return Trace(
        dim=sys.dim,
        ts=np.asarray(ts, dtype=float),
        js=np.asarray(js, dtype=np.int64),
        zs=np.asarray(zs, dtype=float),
        tags=np.asarray(tags, dtype=np.int8),
        events=events,
        meta=meta,
        termination=termination,
        fault=fault,
    )
