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
    SolverConfig,
    Trace,
    compile_source,
    row_dot,
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
    on a list of floats (numpy scalars where simulate redoes a segment
    that raised). G(z) returns the post-jump state; in_C(z,
    inflation) / in_D(z, inflation) test set membership, where inflation >=
    0 widens the timer bounds (used to realize membership perturbations).
    meta carries timer bounds and labels for policies, reporting, and fast
    paths ("empty_jump_set" marks D = empty). simulate inlines F's
    components and in_C's and in_D's condition, with the values of the
    bounds it names, where the closures carry them (see dynamics and
    hands); a closure without them is called.
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
                 membership: Optional[tuple], factors: tuple = (), bounds: tuple = (), replay: bool = False):
    """One flow segment of explicit Runge-Kutta steps of tab on m
    components, generated as straight-line code on first use and cached by
    its arguments: seg(F, z, src, h, n[, e][, bounds...]) returns (z',
    steps), given the values of the names bounds lists.

    A step takes z_i + (K_0,i*b_0 + K_1,i*b_1 + ... [+ e_i]) * h with K_0 =
    F(src) and stage k evaluated at (0.0 + K_0,i*a_k0 + ...) * h + src_i.
    Zero coefficients are skipped (except b_0) and a coefficient 1.0 is not
    multiplied, so every component takes a fixed order of operations. The
    components are floats (numpy scalars in simulate's fallback). field,
    F's component expressions ("{i}" for input i, "{f<j>}" for factors[j]:
    see core.compile_components), is inlined in place of F; with field None
    each stage calls F on a list, and a wrong count raises ValueError naming
    the m expected. A factor (the hand field's 2.0 / tau and -2c * tau)
    reads the clock, input m - 1, alone: where a step assigns the clock's
    stage argument, one that the stages up to its next assignment use twice
    or more (a stage's components, rk4's stages 2 and 3) is computed once,
    into f<i> before its first use, and one used once is inlined as written,
    the same operation on the same operand either way. The 0.0 + ... stage
    sums stay: they turn a -0.0 sum into +0.0.

    A component of field written as a float literal (the timer's "1.0") is
    folded: its K is that constant at every stage, so its sums above are
    computed here, by the same operations in the same order (rk4's weights
    give 0.9999999999999999), and no K of it is assigned in the loop. Their
    products with h, (sum + e_i) * h under e2, are taken once per segment:
    h and e are fixed for it, so each is the float the loop would compute.
    The loop reads a_i = c + src_i and z_i = z_i + d, and a stage argument
    equal to the previous stage's is not assigned again.

    With src not z (simulate's e1 channel, which takes one-step segments)
    the segment takes one step from src whatever n is. With src z its loop
    reads and updates the running state in place, with no per-step copy.

    The segment takes n steps with the same e, n set by its caller (see
    simulate), and ends early only after a step whose state is outside the
    flow set or inside the jump set (membership: their conditions in {tau}
    and the names of their bounds, tested at inflation 0: the {lo} and {hi}
    markers of what inflation moves read as nothing, so the loop compares
    the clock with the bounds as given), the one test its for loop makes
    per step. The bounds are arguments, after the others in the order of
    the names bounds lists, so no timer window enters the text or the cache
    key, and every window shares one kernel of each shape.
    z[0] is not tested: every step computes z0 = z0 + (...), so an inf or
    nan in it stays to the segment's end, where simulate tests it once.

    With replay, the kernel is the second loop shape, made from the same
    step statements, for a field whose clock is a literal under a
    membership exit (None otherwise). replay(z, h, n, table[, e]) returns
    (z', min(n, len(table))), its loop taking from each row of table what
    the step reads of the clock: every factor that the stages from one
    assigning the clock's argument up to the next one use, the clock's
    stage arguments where a component reads the clock outside a factor,
    and the clock after the step. So it makes no clock arithmetic and no
    membership test, and takes no bounds. replay.build(tau, d, h, cap[,
    bounds...]) makes that table from the clock value tau and the clock
    step d by the segment loop's own statements, ending after the first
    step whose clock is outside the flow set or inside the jump set, or
    after cap steps; replay.rate is the literal's folded step sum, so the
    segment's d is (rate + e_i) * h, or rate * h undisturbed."""
    r = range(m)

    def names(prefix):
        return "".join("%s%d, " % (prefix, i) for i in r)

    consts = {}
    for i, text in enumerate(field or ()):
        try:
            consts[i] = float(text)
        except ValueError:
            pass
    if replay and (membership is None or m - 1 not in consts):
        return None
    # a literal component's stage sums, taken in the loop's order; a stage
    # assigns its a_i only where the sum differs from the last one assigned
    folded, last = {}, {}
    for k, row in enumerate(tab.a[1:], 1):
        for i in consts:
            c = 0.0
            for a in row:
                if a != 0.0:
                    c = c + consts[i] * a
            if last.get(i) != repr(c):
                last[i] = repr(c)
                folded["c%d_%d" % (k, i)] = "%r * h" % c
    # and its step sum, the timer's rate: z_i = z_i + d_i
    weights = [(k, b) for k, b in enumerate(tab.b) if k == 0 or b != 0.0]
    rates = {}
    for i in consts:
        d = None
        for k, b in weights:
            term = consts[i] if b == 1.0 else consts[i] * b
            d = term if d is None else d + term
        rates[i] = d
        folded["d%d" % i] = "(%r + e%d) * h" % (d, i) if disturbed else "%r * h" % d
    # the clock's stage sums, which only the table builder reads
    clocked = {"c%d_%d" % (k, m - 1) for k in range(tab.stages)}
    # the stages that assign the clock's argument (stage 0 reads x's)
    fresh = [k for k in range(tab.stages) if not k or "c%d_%d" % (k, m - 1) in folded or m - 1 not in consts]
    live = [(i, c) for i, c in enumerate(field or ()) if i not in consts]
    reads_clock = any("{%d}" % (m - 1) in c for _, c in live)

    def step(x, clock=None):
        # one step's statements, reading stage 0 and the stage bases from x.
        # Given a list clock, the clock's own statements go there instead:
        # its stage arguments, and at each stage that assigns one, every
        # factor the stages up to the next use and that argument where a
        # component reads it, into names that entries lists in order;
        # the step reads those names and never updates the clock
        body, named, t = [], [], None
        for k, row in enumerate(tab.a):
            arg = ["%s%d" % (x, i) for i in r]
            if k:
                for i in r:
                    if i not in consts:
                        body.append("a%d = (0.0%s) * h + %s%d" % (i, "".join(
                            " + k%d_%d%s" % (j, i, "" if a == 1.0 else " * %r" % a)
                            for j, a in enumerate(row) if a != 0.0), x, i))
                    elif "c%d_%d" % (k, i) in folded:
                        (body if clock is None or i < m - 1 else clock).append("a%d = c%d_%d + %s%d" % (i, k, i, x, i))
                arg = ["a%d" % i for i in r]
            if field is None:
                body.append("%s= F([%s])" % (names("k%d_" % k), ", ".join(arg)))
                continue
            if k in fresh:
                # computed once: the factors that the stages up to the
                # clock's next assignment use twice or more (any, for clock)
                run = (fresh + [tab.stages])[fresh.index(k) + 1] - k
                refs = {"f%d" % j: f.format(*arg) for j, f in enumerate(factors)}
                pending = [ref for ref in refs if run * sum(c.count("{%s}" % ref) for _, c in live)
                           >= (2 if clock is None else 1)]
                if clock is not None:
                    for ref in pending:
                        named.append("f%d" % len(named))
                        clock.append("%s = %s" % (named[-1], refs[ref]))
                        refs[ref] = named[-1]
                    pending = []
                    if reads_clock:
                        t = "t%d" % k
                        named.append(t)
                        clock.append("%s = %s" % (t, arg[m - 1]))
            if t is not None:
                arg[m - 1] = t
            for i, c in live:
                for ref in [ref for ref in pending if "{%s}" % ref in c]:
                    pending.remove(ref)
                    named.append("f%d" % len(named))
                    body.append("%s = %s" % (named[-1], refs[ref]))
                    refs[ref] = named[-1]
                body.append("k%d_%d = %s" % (k, i, c.format(*arg, **refs)))
        for i in r:
            if i not in consts:
                terms = ["k%d_%d%s" % (k, i, "" if b == 1.0 else " * %r" % b) for k, b in weights]
                if disturbed:
                    terms.append("e%d" % i)
                body.append("z%d = z%d + (%s) * h" % (i, i, " + ".join(terms)))
                continue
            (body if clock is None or i < m - 1 else clock).append("z%d = z%d + d%d" % (i, i, i))
        return body, named

    head = ["    %s= z" % names("z")] + (["    %s= e" % names("e")] if disturbed else [])
    tau = "z%d" % (m - 1)
    if membership is not None:
        exits = "not (%s) or (%s)" % tuple(c.format(tau=tau, lo="", hi="") for c in membership)
    bound = "".join(", " + b for b in bounds)
    if replay:
        clock = []
        loop, entries = step("z", clock)
        lines = ["def build(%s, d%d, h, cap%s):" % (tau, m - 1, bound)]
        lines += ["    %s = %s" % item for item in folded.items() if item[0] in clocked]
        lines += ["    table = []",
                  "    for _ in range(cap):"]
        lines += ["        " + b for b in clock]
        lines += ["        table.append((%s%s,))" % ("".join(v + ", " for v in entries), tau),
                  "        if %s:" % exits,
                  "            break",
                  "    return table"]
        build = compile_source("\n".join(lines) + "\n", "build")
        lines = ["def replay(z, h, n, table%s):" % (", e" if disturbed else "")] + head
        lines += ["    %s = %s" % item for item in folded.items() if item[0] not in clocked | {"d%d" % (m - 1)}]
        lines.append("    for %s%s, in table[:n]:" % ("".join(v + ", " for v in entries), tau))
        lines += ["        " + b for b in loop]
        lines.append("    return [%s], min(n, len(table))" % names("z")[:-2])
        seg = compile_source("\n".join(lines) + "\n", "replay")
        seg.build, seg.rate = build, rates[m - 1]
        return seg
    shifted, _ = step("s")
    loop, _ = step("z")
    lines = ["def seg(F, z, src, h, n%s%s):" % (", e" if disturbed else "", bound)] + head
    lines += ["    %s = %s" % item for item in folded.items()]
    lines += ["    if src is not z:", "        %s= src" % names("s")]
    lines += ["        " + b for b in shifted]
    lines.append("        return [%s], 1" % names("z")[:-2])
    lines.append("    for i in range(1, n + 1):")
    lines += ["        " + b for b in loop]
    if membership is not None:
        lines += ["        if %s:" % exits, "            break"]
    lines.append("    return [%s], i" % names("z")[:-2])
    return compile_source("\n".join(lines) + "\n", "seg")


def _all_finite(z) -> bool:
    return all(map(math.isfinite, z))


def _horizon_steps(k: int, n: int, h: float, t_stop: float) -> int:
    """n lowered to the least steps >= 1 with (k + steps) * h >= t_stop,
    which is monotone in steps, searched from int(t_stop / h) - k. The
    search runs only where (k + n) * h >= t_stop, which keeps an infinite
    or overflowing t_stop / h out of int()."""
    if (k + n) * h < t_stop:
        return n
    n = min(n, max(1, int(max(t_stop / h, 0.0)) - k))
    while n > 1 and (k + n - 1) * h >= t_stop:
        n -= 1
    while (k + n) * h < t_stop:
        n += 1
    return n


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
    in_C and in_D; the values of the bounds those name come from in_C's and
    in_D's bounds attributes (a name given two values raises ValueError)
    and are the kernel's arguments, so one kernel serves every timer
    window. A segment ends at the next record point, when tau leaves
    C or enters D, when a piecewise-constant e2 switches, or at the
    horizon; the loop takes over there. A segment folds the field's
    literal components (the timer's rate) out of its loop, computes each
    clock factor F declares once per clock stage value when its stages use
    it more than once, and steps the running state in place, with no
    per-step copy. Before it starts, flow lowers its step count to the
    horizon (the least steps with (k + steps) * h >= t_stop) and then to
    the e2 signal's next switch (its steps method, see
    dynamics.make_signal), so the kernel computes no t and its loop tests
    only membership. z[0] is tested once per segment: a non-finite
    z[0] at its end (once there, an inf or nan stays) has the segment
    replayed from its start state one step at a time, to the step where
    z[0] first went non-finite. All of it gives the bits and the step
    counts of a step-by-step loop.

    Restart periods replay their clock. A jump resets the timer to one
    value, so each period flows the clock sequence of the last, and all
    that the field and the sets read of it repeats. A segment of more than
    one step from z, on a literal clock under a membership exit, is keyed
    by its start (z[-1], d), d the segment's exact clock step: the second
    segment from a key builds its clock table (to the period's exit, or
    record_stride steps), and it and every later one from that key run the
    replay loop on it (see _step_kernel), with the bits and step counts of
    the segment kernel. A first start, a numpy scalar, zero or nan start or
    d, and a table whose build raises take the segment kernel. Tables live
    in this call alone; meta counts replayed_steps and clock_tables.

    One-step segments serve the "latest" lookahead, the "uniform" draws in
    C intersect D, the e1, e3 and e6 channels, sinusoid signals, and
    closures without component expressions or conditions, which are called
    per step. A segment that raises ZeroDivisionError or OverflowError (a float division
    by zero, an overflowing power) is redone once from the same state on
    numpy scalars, which give inf or nan instead, so a blow-up still ends
    as a recorded fault; the replay of a redone segment starts from the
    float state. A jump takes G's output as a list of floats: a
    wrong number of components raises ValueError, e5 is added and the
    finite test made on that list, and no numpy array is built for it.

    Recording: the initial state, every record_stride-th flow step, both
    sides of every jump, and the final state. stop_condition(t, j, z) is
    evaluated at recorded points only; when it fires the run terminates with
    reason "condition". Other termination reasons: "horizon", "jump_cap"
    (the next required jump would exceed max_jumps; the pre-jump state is the
    final sample), "fault" (non-finite state, or a jump landing outside
    C union D, with the fault kind kept on the trace and the last finite
    state on its fault row).

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
    next_switch = getattr(sig2, "steps", None)
    membership = None if empty_jump_set else (getattr(in_C, "condition", None), getattr(in_D, "condition", None))
    fused = (field is not None and sig1 is None and sig3 is None and sig6 is None
             and (sig2 is None or next_switch is not None) and (membership is None or None not in membership))
    if not fused:
        membership = None
    # the membership exit names the timer bounds, which in_C and in_D carry
    bounds = {}
    for test in (in_C, in_D):
        for name, value in getattr(test, "bounds", {}).items():
            if bounds.setdefault(name, value) != value:
                raise ValueError("in_C and in_D give the bound %s two values" % name)
    names = () if membership is None else tuple(sorted(bounds))
    limits = tuple(bounds[name] for name in names)
    kernel = (TABLEAUS[cfg.integrator], m, field, sig2 is not None, membership, getattr(F, "factors", ()), names)
    seg = _step_kernel(*kernel)
    # a restart period flows the clock sequence of every earlier one from
    # the same start: a segment from a start seen before replays a table of
    # it (None: the clock is no literal or there is no membership exit)
    rep = _step_kernel(*kernel, replay=True)
    tables = {}
    replayed_steps = clock_tables = 0

    t_stop = t_end - 1e-12 * max(1.0, t_end)

    def infl(sig, t):
        if sig is None:
            return 0.0
        e = sig(t)
        return math.sqrt(row_dot(e, e))

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

    fault: Optional[FaultRecord] = None
    termination = "horizon"

    def flow(t, z, n):
        """Up to n steps of z + h (F(z + e1(t)) + e2(t)) from t: (z', steps),
        n lowered to the horizon and to e2's next switch, ending early at the
        first non-finite z[0]."""
        n = _horizon_steps(k_step, n, h, t_stop)
        if n > 1 and next_switch is not None:
            n = next_switch(k_step, h, n)
        src = z if sig1 is None else [a + e for a, e in zip(z, sig1(t).tolist())]
        e2 = () if sig2 is None else (sig2(t).tolist(),)
        try:
            end = replay(z, n, e2) if rep is not None and n > 1 and src is z else None
            if end is None:
                end = seg(F, z, src, h, n, *e2, *limits)
        except (ZeroDivisionError, OverflowError):
            # a float division by zero or an overflowing power raises where
            # numpy scalars give inf or nan: redo the segment on numpy
            # scalars, so the run ends as the recorded fault it always was.
            # z too: a float clock in z[-1] would raise at the next t ** e
            z64 = [np.float64(v) for v in z]
            end = seg(F, z64, z64 if src is z else [np.float64(v) for v in src], h, n, *e2, *limits)
        if end[1] == 1 or math.isfinite(end[0][0]):
            return end
        # past one step, z[0] went non-finite at some step and stayed so:
        # replay the segment (src is z, e2 fixed) from z one step at a time
        # to that step
        steps = 0
        while math.isfinite(z[0]):
            z = flow(t, z, 1)[0]
            steps += 1
        return z, steps

    def replay(z, n, e2):
        """The segment from z replayed from the clock table of its start
        (z[-1], d), d the segment's clock step, built the second time that
        start comes; None where there is no table. A numpy scalar, zero or
        nan start or d keys nothing, so floats equal as keys have one bit
        pattern. A table whose build raises is empty."""
        nonlocal replayed_steps, clock_tables
        tau = z[-1]
        d = (rep.rate + e2[0][-1]) * h if e2 else rep.rate * h
        if type(tau) is not float or not (0.0 != tau == tau and 0.0 != d == d):
            return None
        table = tables.get((tau, d))
        if table is None:
            tables[tau, d] = False
            return None
        if table is False:
            try:
                table = rep.build(tau, d, h, stride, *limits)
                clock_tables += 1
            except (ZeroDivisionError, OverflowError):
                table = []
            tables[tau, d] = table
        if not table:
            return None
        end = rep(z, h, n, table, *e2)
        replayed_steps += end[1]
        return end

    record(0.0, 0, z, TAG_FLOW)
    stop_hit = stop_condition is not None and stop_condition(0.0, 0, z)

    k_step = 0
    j = 0
    t = 0.0
    from_flow = False
    since_record = 0
    while not stop_hit:
        if t >= t_stop:
            break

        do_jump = False
        trial = None
        if not empty_jump_set:
            i3, i6 = infl(sig3, t), infl(sig6, t)
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
                # unreachable. Every state at the loop top was tested against
                # C union D at this same t, and so with the same inflations
                # i3 and i6, signals being functions of t: the initial state
                # before the loop, a post-jump state right after its jump
                # (one outside ends the run there as an "escaped" fault). A
                # state after a flow step has from_flow set, so outside C it
                # is in D_h and jumps above.
                raise RuntimeError("internal error: state outside C union D_h at t=%r (tau=%r)"
                                   % (t, z[-1]))

        if do_jump:
            # budget gates jumps, not flow: stop when one more jump would
            # exceed it, recording the pre-jump state as the final sample
            if j >= max_jumps:
                termination = "jump_cap"
                break
            if since_record > 0:
                if not _all_finite(z):
                    fault = FaultRecord(t, j, "blowup", "non-finite state before jump")
                    termination = "fault"
                    break
                record(t, j, z, TAG_FLOW)
                since_record = 0
            z_in = z if sig4 is None else [a + e for a, e in zip(z, sig4(t).tolist())]
            z_post = list(map(float, G(z_in)))
            if len(z_post) != m:
                raise ValueError("jump map returned %d components, expected %d" % (len(z_post), m))
            if sig5 is not None:
                z_post = [a + e for a, e in zip(z_post, sig5(t).tolist())]
            if not _all_finite(z_post):
                fault = FaultRecord(t, j, "blowup", "jump map produced non-finite state")
                termination = "fault"
                break
            j += 1
            z = z_post
            from_flow = False
            record(t, j, z, TAG_JUMP)
            since_record = 0
            if not (in_C(z, infl(sig3, t)) or in_D(z, infl(sig6, t))):
                fault = FaultRecord(t, j, "escaped", "jump landed outside C union D (tau=%g)" % z[-1])
                termination = "fault"
                break
            stop_hit = stop_condition is not None and stop_condition(t, j, z)
            continue

        # a flow segment up to the next record point (the lookahead's step,
        # when one was taken)
        z, n = trial if trial is not None else flow(t, z, stride - since_record if fused else 1)
        k_step += n
        t = k_step * h
        from_flow = True
        since_record += n
        # z[0] is tested after every segment, the whole state where it is recorded
        if not math.isfinite(z[0]) or (since_record >= stride and not _all_finite(z)):
            fault = FaultRecord(t, j, "blowup", "non-finite state during flow at t=%g" % t)
            termination = "fault"
            break
        if since_record >= stride:
            record(t, j, z, TAG_FLOW)
            since_record = 0
            stop_hit = stop_condition is not None and stop_condition(t, j, z)

    # flow refers to itself (its blow-up replay calls it), a reference cycle
    # through which replay's tables would outlive the call until the
    # collector next runs
    tables.clear()
    if stop_hit:
        termination = "condition"
    # final sample: the last state when flow steps since the last sample
    # went unrecorded (a non-finite one turns into a fault), or the fault
    # row, which repeats the last recorded state, the last finite one
    if termination != "fault" and since_record > 0:
        if _all_finite(z):
            record(t, j, z, TAG_FLOW)
        else:
            fault = FaultRecord(t, j, "blowup", "non-finite state at horizon")
            termination = "fault"
    if termination == "fault":
        record(fault.t, fault.j, zs[-1], TAG_FAULT)
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
        replayed_steps=replayed_steps,
        clock_tables=clock_tables,
    )
    return Trace(
        dim=sys.dim,
        ts=np.asarray(ts, dtype=float),
        js=np.asarray(js, dtype=np.int64),
        zs=np.asarray(zs, dtype=float),
        tags=np.asarray(tags, dtype=np.int8),
        meta=meta,
        termination=termination,
        fault=fault,
    )
