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
)
from .dynamics import DisturbanceSpec, make_signal

__all__ = [
    "ButcherTableau",
    "TABLEAUS",
    "tableau",
    "HybridSystem",
    "PerturbationSet",
    "flow_only_system",
    "jump_policy_decide",
    "simulate",
    "simulate_batch",
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
    the 2*dim + 1 flow-field components, computed component by component:
    simulate hands it a list of floats, simulate_batch the rows of a
    column-stacked block. G(z) returns the post-jump state; in_C(z,
    inflation) / in_D(z, inflation) test set membership, where inflation >=
    0 widens the timer bounds (used to realize membership perturbations).
    meta carries timer bounds and labels for policies, reporting, and fast
    paths ("empty_jump_set" marks D = empty).
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

    def channels(self):
        return (self.e1, self.e2, self.e3, self.e4, self.e5, self.e6)

    def any_active(self) -> bool:
        return any(e is not None and not e.is_zero() for e in self.channels())


def jump_policy_decide(policy: str, z: np.ndarray, sys: HybridSystem, h: float,
                       rng: Optional[np.random.Generator] = None,
                       flow_exits: Optional[bool] = None) -> bool:
    """Resolve flow-vs-jump for a state in C intersect D.

    earliest: jump immediately. latest: flow until flowing would leave C
    (flow_exits supplies that lookahead). uniform: jump with probability
    q = h / (t_max - tau + h), which lands the jump uniformly over the
    remaining timer window; needs timer bounds in sys.meta and an rng.
    """
    if policy == "earliest":
        return True
    if policy == "latest":
        if flow_exits is None:
            raise ValueError("latest policy needs the flow_exits lookahead")
        return flow_exits
    if policy == "uniform":
        t_max = sys.meta.get("t_max")
        if t_max is None:
            raise ValueError("uniform policy needs timer bounds in sys.meta['t_max']")
        if rng is None:
            raise ValueError("uniform policy needs an rng")
        tau = float(z[-1])
        q = h / (t_max - tau + h)
        return bool(rng.random() < q)
    raise ValueError("unknown jump policy %r" % (policy,))


def _signal_or_none(spec: Optional[DisturbanceSpec], m: int, name: str):
    if spec is None or spec.is_zero():
        return None
    if spec.dim != m:
        raise ValueError("perturbation %s has dim %d, packed state needs %d" % (name, spec.dim, m))
    return make_signal(spec)


def _rk_increment(F, tab: ButcherTableau, h: float, src) -> list:
    """sum_k b_k K_k, the increment per unit step of one explicit
    Runge-Kutta step of F from src, combined component by component in a
    fixed order of operations: src is a sequence of components, the floats
    of a packed state or one whole column-stacked block, and F maps such a
    sequence to another."""
    r = range(len(src))
    K = [F(src)]
    for row in tab.a[1:]:
        g = [0.0] * len(src)
        for Kj, akj in zip(K, row):
            if akj != 0.0:
                for i in r:
                    g[i] = g[i] + Kj[i] * akj
        for i in r:
            g[i] = g[i] * h + src[i]
        K.append(F(g))
    b_w = tab.b
    out = [k * b_w[0] for k in K[0]]
    for Kk, bk in zip(K[1:], b_w[1:]):
        if bk != 0.0:
            for i in r:
                out[i] = out[i] + Kk[i] * bk
    return out


def _increment(F, cfg: SolverConfig):
    """src -> the integrator's increment per unit step of F from src."""
    if cfg.integrator == "euler":
        return F
    return functools.partial(_rk_increment, F, TABLEAUS[cfg.integrator], cfg.h)


class _Rows:
    """Recorded samples of one run: hybrid times, packed states, tags. A
    state is kept as given, so callers hand over one they never mutate."""

    def __init__(self):
        self.ts = []
        self.js = []
        self.zs = []
        self.tags = []

    def add(self, t, j, z, tag):
        self.ts.append(t)
        self.js.append(j)
        self.zs.append(z)
        self.tags.append(tag)


def _all_finite(z) -> bool:
    return all(map(math.isfinite, z))


def _close(sys: HybridSystem, cfg: SolverConfig, rows: _Rows, events: list, termination: str,
           fault: Optional[FaultRecord], t: float, j: int, z, since_record: int,
           flow_steps: int) -> Trace:
    """Final sample and Trace of a finished run: the fault row, or the last
    state z at (t, j) when flow steps since the last sample went unrecorded
    (a non-finite one turns the run into a fault)."""
    if termination == "fault":
        rows.add(fault.t, fault.j, fault.z_last, TAG_FAULT)
    elif since_record > 0:
        if _all_finite(z):
            rows.add(t, j, z, TAG_FLOW)
        else:
            fault = FaultRecord(t, j, "blowup", "non-finite state at horizon", np.array(rows.zs[-1]))
            termination = "fault"
            rows.add(fault.t, fault.j, fault.z_last, TAG_FAULT)
    meta = dict(sys.meta)
    meta.update(
        h=cfg.h,
        t_end=cfg.t_end,
        max_jumps=cfg.max_jumps,
        integrator=cfg.integrator,
        jump_policy=cfg.jump_policy,
        policy_seed=cfg.policy_seed,
        record_stride=cfg.record_stride,
        dim=sys.dim,
        flow_steps=flow_steps,
    )
    return Trace(
        dim=sys.dim,
        ts=np.asarray(rows.ts, dtype=float),
        js=np.asarray(rows.js, dtype=np.int64),
        zs=np.asarray(rows.zs, dtype=float),
        tags=np.asarray(rows.tags, dtype=np.int8),
        events=events,
        meta=meta,
        termination=termination,
        fault=fault,
    )


def simulate(sys: HybridSystem, z0, cfg: SolverConfig,
             pert: Optional[PerturbationSet] = None,
             stop_condition: Optional[Callable[[float, int, list], bool]] = None) -> Trace:
    """Run the hybrid simulation loop and return the recorded Trace.

    Each loop iteration does exactly one of: a jump z+ = G(z + e4) + e5 when
    the (perturbed) discretized jump set is hit and the policy elects it, or
    one integrator step of dz = F(z + e1) + e2 advancing t by h. Jumps never
    advance t, flow steps never advance j. Disturbance signals are evaluated
    at the step-start time and held constant over the step. The loop keeps
    the packed state as a list of floats and steps it component by
    component; F, G, in_C, in_D and stop_condition are handed that list.

    Recording: the initial state, every record_stride-th flow step, both
    sides of every jump, and the final state. stop_condition(t, j, z) is
    evaluated at recorded points only; when it fires the run terminates with
    reason "condition". Other termination reasons: "horizon", "jump_cap"
    (the next required jump would exceed max_jumps; the pre-jump state is the
    final sample), "fault" (non-finite state, or state outside C union D_h
    with the fault kind and last finite state kept on the trace).
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
    rng = np.random.default_rng(cfg.policy_seed) if policy == "uniform" else None

    increment = _increment(F, cfg)

    def infl(sig, t):
        return float(np.linalg.norm(sig(t))) if sig is not None else 0.0

    # initial state must sit in the (inflated) hybrid domain
    if not empty_jump_set:
        if not (in_C(z, infl(sig3, 0.0)) or in_D(z, infl(sig6, 0.0))):
            raise ValueError("initial state outside C union D (tau=%g)" % z[-1])

    rows = _Rows()
    record = rows.add
    zs = rows.zs
    events: list = []
    fault: Optional[FaultRecord] = None
    termination = "horizon"

    stop_hit = False

    def flow_step(t, z):
        """z + h (F(z + e1(t)) + e2(t)) for one integrator step."""
        src = z if sig1 is None else [a + e for a, e in zip(z, sig1(t).tolist())]
        try:
            dz = increment(src)
        except (ZeroDivisionError, OverflowError):
            # a float division by zero or an overflowing power raises where
            # numpy scalars give inf or nan: redo the step on numpy scalars,
            # so the run ends as the recorded fault it always was
            dz = increment([np.float64(v) for v in src])
        out = []
        if sig2 is None:
            for a, d in zip(z, dz):
                out.append(a + d * h)
        else:
            for a, d, e in zip(z, dz, sig2(t).tolist()):
                out.append(a + (d + e) * h)
        return out

    record(0.0, 0, z, TAG_FLOW)
    if stop_condition is not None and stop_condition(0.0, 0, z):
        stop_hit = True

    k_step = 0
    j = 0
    t = 0.0
    from_flow = False
    since_record = 0

    t_stop = t_end - 1e-12 * max(1.0, t_end)
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
                if not c_now:
                    do_jump = True
                elif policy == "latest":
                    # lookahead: jump only if the flow step would leave C
                    trial = flow_step(t, z)
                    do_jump = jump_policy_decide(policy, z, sys, h, flow_exits=not in_C(trial, i3))
                else:
                    do_jump = jump_policy_decide(policy, z, sys, h, rng=rng)
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

        # one flow step (the lookahead's, when one was taken)
        z = trial if trial is not None else flow_step(t, z)
        k_step += 1
        t = k_step * h
        from_flow = True
        since_record += 1
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
    return _close(sys, cfg, rows, events, termination, fault, t, j, z, since_record, k_step)


class _Member:
    """Control state of one trajectory in a lockstep batch."""

    def __init__(self, sys: HybridSystem, cfg: SolverConfig):
        self.sys = sys
        self.empty_jump_set = bool(sys.meta.get("empty_jump_set", False))
        self.rng = np.random.default_rng(cfg.policy_seed) if cfg.jump_policy == "uniform" else None
        self.rows = _Rows()
        self.events: list = []
        self.fault: Optional[FaultRecord] = None
        self.termination = "horizon"
        self.t = 0.0
        self.j = 0
        self.k_step = 0
        self.from_flow = False
        self.since_record = 0
        self.trace: Optional[Trace] = None

    def fail(self, kind: str, detail: str, z_last) -> None:
        self.fault = FaultRecord(self.t, self.j, kind, detail, np.array(z_last, dtype=float))
        self.termination = "fault"


def simulate_batch(systems, z0s, cfg: SolverConfig) -> list:
    """Run B hybrid systems in lockstep and return their B Traces.

    The systems share one flow closure F (the same object) and one packed
    length; F is handed the column-stacked (2*dim + 1, B) block, whose rows
    are the packed components, and must compute each column exactly as it
    computes a single packed state. Each loop iteration evaluates one
    batched integrator increment for every live member, then every member
    does what simulate's loop would do next on its own: one jump, or one
    flow step read from the increment (which is also its `latest`
    lookahead). Each member keeps its own D_h provenance,
    `uniform` RNG stream seeded from cfg.policy_seed, jump budget, recording
    stride, termination and fault record; members that finish leave the
    block while the others run on. Trace i equals
    simulate(systems[i], z0s[i], cfg).
    """
    systems = list(systems)
    if len(z0s) != len(systems):
        raise ValueError("need one initial state per system: %d systems, %d states" % (len(systems), len(z0s)))
    if not systems:
        return []
    F = systems[0].F
    m = systems[0].packed_len
    for sys in systems:
        if sys.F is not F:
            raise ValueError("batched systems must share one flow closure F")
        if sys.packed_len != m:
            raise ValueError("batched systems must share one packed length, got %d and %d" % (m, sys.packed_len))
    Z = np.empty((m, len(systems)))
    for col, (sys, z0) in enumerate(zip(systems, z0s)):
        z = np.array(z0, dtype=float).reshape(m)
        if not np.all(np.isfinite(z)):
            raise ValueError("initial state must be finite")
        if not sys.meta.get("empty_jump_set", False) and not (sys.in_C(z, 0.0) or sys.in_D(z, 0.0)):
            raise ValueError("initial state outside C union D (tau=%g)" % float(z[-1]))
        Z[:, col] = z
    members = [_Member(sys, cfg) for sys in systems]
    for col, mem in enumerate(members):
        mem.rows.add(0.0, 0, Z[:, col].tolist(), TAG_FLOW)

    h = cfg.h
    max_jumps = cfg.max_jumps
    stride = cfg.record_stride
    policy = cfg.jump_policy

    def block_field(src):
        """F on a block handed over as one component: F reads and returns
        the block's rows."""
        out = np.empty_like(src[0])
        for i, row in enumerate(F(src[0])):
            out[i] = row
        return [out]

    increment = _increment(block_field, cfg)
    t_stop = cfg.t_end - 1e-12 * max(1.0, cfg.t_end)  # simulate's horizon test

    live = members  # the member of each block column
    Znew = np.empty_like(Z)
    while live:
        dZ, = increment([Z])
        np.add(Z, dZ * h, out=Znew)

        done = []
        # member control reads each column as a list of floats
        cols, new_cols = Z.T.tolist(), Znew.T.tolist()
        for col, mem in enumerate(live):
            z = cols[col]
            if mem.t >= t_stop:
                done.append(col)
                continue
            do_jump = False
            if not mem.empty_jump_set:
                c_now = mem.sys.in_C(z, 0.0)
                if mem.sys.in_D(z, 0.0) or (mem.from_flow and not c_now):
                    if not c_now:
                        do_jump = True
                    elif policy == "latest":
                        # the block's step is this member's lookahead
                        do_jump = jump_policy_decide(policy, z, mem.sys, h,
                                                     flow_exits=not mem.sys.in_C(new_cols[col], 0.0))
                    else:
                        do_jump = jump_policy_decide(policy, z, mem.sys, h, rng=mem.rng)
                elif not c_now:
                    mem.fail("escaped", "state outside C union D_h (tau=%g)" % z[-1], z)
                    done.append(col)
                    continue

            if do_jump:
                # as in simulate: the budget gates jumps, and the pre-jump
                # state becomes the final sample
                if mem.j >= max_jumps:
                    mem.termination = "jump_cap"
                    done.append(col)
                    continue
                if mem.since_record > 0:
                    if not _all_finite(z):
                        mem.fail("blowup", "non-finite state before jump", mem.rows.zs[-1])
                        done.append(col)
                        continue
                    mem.rows.add(mem.t, mem.j, z, TAG_FLOW)
                z_post = np.array(mem.sys.G(z), dtype=float).reshape(m)
                if not np.all(np.isfinite(z_post)):
                    mem.fail("blowup", "jump map produced non-finite state", z)
                    done.append(col)
                    continue
                mem.events.append(JumpRecord(mem.t, mem.j, np.array(z), z_post.copy()))
                mem.j += 1
                mem.from_flow = False
                mem.rows.add(mem.t, mem.j, z_post, TAG_JUMP)
                mem.since_record = 0
                if not (mem.sys.in_C(z_post, 0.0) or mem.sys.in_D(z_post, 0.0)):
                    mem.fail("escaped", "jump landed outside C union D (tau=%g)" % float(z_post[-1]), z_post)
                    done.append(col)
                    continue
                Znew[:, col] = z_post
                continue

            mem.k_step += 1
            mem.t = mem.k_step * h
            mem.from_flow = True
            mem.since_record += 1
            z = new_cols[col]
            if not math.isfinite(z[0]) or (mem.since_record >= stride and not _all_finite(z)):
                mem.fail("blowup", "non-finite state during flow at t=%g" % mem.t, mem.rows.zs[-1])
                done.append(col)
            elif mem.since_record >= stride:
                mem.rows.add(mem.t, mem.j, z, TAG_FLOW)
                mem.since_record = 0

        for col in done:
            mem = live[col]
            mem.trace = _close(mem.sys, cfg, mem.rows, mem.events, mem.termination, mem.fault,
                               mem.t, mem.j, cols[col], mem.since_record, mem.k_step)
        Z, Znew = Znew, Z
        if done:
            keep = [col for col in range(len(live)) if col not in done]
            Z = Z[:, keep]
            live = [live[col] for col in keep]
            Znew = np.empty_like(Z)
    return [mem.trace for mem in members]
