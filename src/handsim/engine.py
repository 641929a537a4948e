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

import ast
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


_ARITHMETIC = (ast.BinOp, ast.UnaryOp, ast.Name, ast.Constant, ast.operator, ast.unaryop, ast.expr_context)


def _arithmetic(line, node, version, visit):
    """Call visit(sub, key) on each sub-expression of node, parsed from
    line, made of arithmetic on names and constants, outermost first. key
    tells apart the values it computes: its text and the version of each
    name in it. visit returns True to skip the sub-expression's own parts.
    Only such sub-expressions are entered, and each runs whenever node does
    (an if-expression's branches, say, may not)."""
    stack = [node]
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.BinOp, ast.UnaryOp)):
            continue
        parts = list(ast.walk(node))
        names = [n.id for n in parts if isinstance(n, ast.Name)]
        if names and all(isinstance(n, _ARITHMETIC) for n in parts) and visit(node, (
                line[node.col_offset:node.end_col_offset], tuple(version.get(n, 0) for n in names))):
            continue
        stack += [node.right, node.left] if isinstance(node, ast.BinOp) else [node.operand]


def _share_factors(body):
    """body, straight-line assignments, with each arithmetic sub-expression
    of names and constants that runs more than once on the same operand
    values computed once, into a name f<i> assigned before its first use:
    the hand field's 2.0 / tau in every position component, and again at
    the next stage while tau's stage value stands. Each use is the same
    operation on the same operands, so every bit is kept."""
    trees = [ast.parse(line).body[0] for line in body]
    counts, version = {}, {}

    def assign(tree):
        for n in ast.walk(tree.targets[0]):
            if isinstance(n, ast.Name):
                version[n.id] = version.get(n.id, 0) + 1

    def count(node, key):
        counts[key] = counts.get(key, 0) + 1

    for line, tree in zip(body, trees):
        _arithmetic(line, tree.value, version, count)
        assign(tree)
    shared, out = {}, []
    version.clear()
    for line, tree in zip(body, trees):
        cuts = []

        def share(node, key):
            if counts[key] < 2:
                return False
            if key not in shared:
                shared[key] = "f%d" % len(shared)
                out.append("%s = %s" % (shared[key], key[0]))
            cuts.append((node.col_offset, node.end_col_offset, shared[key]))
            return True

        _arithmetic(line, tree.value, version, share)
        # the cuts do not overlap: splice them in from the right
        for start, end, name in sorted(cuts, reverse=True):
            line = line[:start] + name + line[end:]
        out.append(line)
        assign(tree)
    return out


@functools.lru_cache(maxsize=None)
def _step_kernel(tab: ButcherTableau, m: int, field: Optional[tuple], disturbed: bool,
                 membership: Optional[tuple], switch: Optional[tuple]):
    """One flow segment of explicit Runge-Kutta steps of tab on m
    components, generated as straight-line code on first use and cached by
    its arguments: seg(F, z, src, h, k, n, t_stop[, e]) returns (z', steps).

    A step takes z_i + (K_0,i*b_0 + K_1,i*b_1 + ... [+ e_i]) * h with K_0 =
    F(src) and stage k evaluated at (0.0 + K_0,i*a_k0 + ...) * h + src_i.
    Zero coefficients are skipped (except b_0) and a coefficient 1.0 is not
    multiplied, so every component takes a fixed order of operations. The
    components are floats (numpy scalars in simulate's fallback). field,
    F's component expressions ("{i}" for input i), is inlined in place of
    F; with field None each stage calls F on a list, and a wrong count
    raises ValueError naming the m expected. Within a step, an arithmetic
    sub-expression of names and constants that runs more than once on the
    same values (the hand field's 2.0 / tau and -2c * tau, shared by the
    components of a stage and by rk4's stages 2 and 3) is computed once
    (see _share_factors). The 0.0 + ... stage sums stay: they turn a -0.0
    sum into +0.0.

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

    After step k + steps, at t = (k + steps) * h, the next step starts from
    the state reached, with the same e, unless steps == n, t >= t_stop, the
    state is outside the flow set or inside the jump set (membership: their
    conditions in {tau} and {inflation}, tested at inflation 0), or, given
    switch = (key, until), the expression key in t, on which e depends,
    changed value. The loop is a for loop over n: membership, the only test
    it makes per step, is its one early exit. The horizon and the key switch
    are step counts, to which the segment lowers n before its loop. z[0] is
    not tested: every step computes z0 = z0 + (...), so an inf or nan in it
    stays to the segment's end, where simulate tests it once and finds the
    step it came in by replaying the segment. When (k + n) * h >= t_stop,
    n becomes the least steps >= 1 with (k + steps) * h >= t_stop, searched
    from int(t_stop / h) - k. Then, for n > 1, it becomes the least steps
    >= 1 at which key differs from its value at t = k * h, if that is less.
    That search starts at the step of until, an expression in t for the
    next time key can change (see dynamics.make_signal), walks down while
    the step before is at or after until or has a changed key, and then up
    to the first changed key. The walk down is exact because a key changes
    value at most once before until, so a step before until with an
    unchanged key has only unchanged steps before it. A switch whose until
    is "inf" (a constant e2) never comes, and the segment computes neither
    t nor key."""
    r = range(m)

    def names(prefix):
        return "".join("%s%d, " % (prefix, i) for i in r)

    consts = {}
    for i, text in enumerate(field or ()):
        try:
            consts[i] = float(text)
        except ValueError:
            pass
    lines = ["def seg(F, z, src, h, k, n, t_stop%s):" % (", e" if disturbed else ""), "    %s= z" % names("z")]
    if disturbed:
        lines.append("    %s= e" % names("e"))
    folded = {}

    def step(x):
        # one step's statements, reading stage 0 and the stage bases from x
        body = []
        last = {}
        for k, row in enumerate(tab.a):
            arg = ["%s%d" % (x, i) for i in r]
            if k:
                for i in r:
                    if i not in consts:
                        body.append("a%d = (0.0%s) * h + %s%d" % (i, "".join(
                            " + k%d_%d%s" % (j, i, "" if a == 1.0 else " * %r" % a)
                            for j, a in enumerate(row) if a != 0.0), x, i))
                        continue
                    c = 0.0
                    for a in row:
                        if a != 0.0:
                            c = c + consts[i] * a
                    if last.get(i) != repr(c):
                        last[i] = repr(c)
                        folded["c%d_%d" % (k, i)] = "%r * h" % c
                        body.append("a%d = c%d_%d + %s%d" % (i, k, i, x, i))
                arg = ["a%d" % i for i in r]
            if field is None:
                body.append("%s= F([%s])" % (names("k%d_" % k), ", ".join(arg)))
            else:
                body += ["k%d_%d = %s" % (k, i, c.format(*arg)) for i, c in enumerate(field) if i not in consts]
        weights = [(k, b) for k, b in enumerate(tab.b) if k == 0 or b != 0.0]
        for i in r:
            if i not in consts:
                terms = ["k%d_%d%s" % (k, i, "" if b == 1.0 else " * %r" % b) for k, b in weights]
                if disturbed:
                    terms.append("e%d" % i)
                body.append("z%d = z%d + (%s) * h" % (i, i, " + ".join(terms)))
                continue
            d = None
            for k, b in weights:
                term = consts[i] if b == 1.0 else consts[i] * b
                d = term if d is None else d + term
            folded["d%d" % i] = "(%r + e%d) * h" % (d, i) if disturbed else "%r * h" % d
            body.append("z%d = z%d + d%d" % (i, i, i))
        return _share_factors(body)

    shifted = step("s")
    loop = step("z")
    lines += ["    %s = %s" % item for item in folded.items()]
    lines += ["    if src is not z:", "        %s= src" % names("s")]
    lines += ["        " + b for b in shifted]
    lines.append("        return [%s], 1" % names("z")[:-2])
    # the first steps >= 1 with (k + steps) * h >= t_stop, which is monotone
    # in steps; the guard keeps an infinite t_stop out of int()
    lines += ["    if (k + n) * h >= t_stop:",
              "        n = min(n, max(1, int(max(t_stop / h, 0.0)) - k))",
              "        while n > 1 and (k + n - 1) * h >= t_stop:",
              "            n -= 1",
              "        while (k + n) * h < t_stop:",
              "            n += 1"]
    if switch is not None and switch[1] != "inf":
        # the first i >= 1 whose key differs from step k's, or n: estimated
        # from until, then walked down past every step at or after until or
        # with a changed key, then up to the first changed key
        key, until = switch
        lines += ["    if n > 1:",
                  "        t = k * h",
                  "        key = %s" % key,
                  "        u = %s" % until,
                  "        i = min(n, max(1, int(min(u / h, k + n)) - k))",
                  "        while i > 1:",
                  "            t = (k + i - 1) * h",
                  "            if t < u and (%s) == key:" % key,
                  "                break",
                  "            i -= 1",
                  "        while i < n:",
                  "            t = (k + i) * h",
                  "            if (%s) != key:" % key,
                  "                break",
                  "            i += 1",
                  "        n = i"]
    if membership is None:
        lines.append("    for _ in range(n):")
        lines += ["        " + b for b in loop]
        lines.append("    return [%s], n" % names("z")[:-2])
    else:
        flows, jumps = (c.format(tau="z%d" % (m - 1), inflation="0.0") for c in membership)
        lines.append("    for i in range(1, n + 1):")
        lines += ["        " + b for b in loop]
        lines += ["        if not (%s) or (%s):" % (flows, jumps),
                  "            break",
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
    C or enters D, when a piecewise-constant e2 switches, or at the
    horizon; the loop takes over there. A segment folds the field's
    literal components (the timer's rate) out of its loop, computes a
    factor that its stages share once, steps the running state in place,
    with no per-step copy, and counts its steps to the horizon and to the
    e2 key's next switch before it starts, so its loop computes no t and
    tests only membership. z[0] is tested once per segment: a non-finite
    z[0] at its end (once there, an inf or nan stays) has the segment
    replayed from its start state one step at a time, to the step where
    z[0] first went non-finite. All of it gives the bits and the step
    counts of a step-by-step loop. One-step segments serve the "latest"
    lookahead, the "uniform" draws in C intersect D, the e1, e3 and e6
    channels, sinusoid signals, and closures without component expressions
    or conditions, which are called per step. A
    segment that raises ZeroDivisionError or OverflowError (a float division
    by zero, an overflowing power) is redone once from the same state on
    numpy scalars, which give inf or nan instead, so a blow-up still ends
    as a recorded fault; the replay of a redone segment starts from the
    float state. A jump takes G's output as a list of floats: a
    wrong number of components raises ValueError, e5 is added and the
    finite test made on that list, and numpy arrays are built only for the
    JumpRecord's two states.

    Recording: the initial state, every record_stride-th flow step, both
    sides of every jump, and the final state. stop_condition(t, j, z) is
    evaluated at recorded points only; when it fires the run terminates with
    reason "condition". Other termination reasons: "horizon", "jump_cap"
    (the next required jump would exceed max_jumps; the pre-jump state is the
    final sample), "fault" (non-finite state, or a jump landing outside
    C union D, with the fault kind and last finite state kept on the trace).

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
                       membership if fused else None, (key, sig2.until) if fused and key is not None else None)

    t_stop = t_end - 1e-12 * max(1.0, t_end)

    def infl(sig, t):
        return math.sqrt(row_dot(sig(t), sig(t))) if sig is not None else 0.0

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
        """Up to n steps of z + h (F(z + e1(t)) + e2(t)) from t: (z', steps),
        ending early at the first non-finite z[0]."""
        src = z if sig1 is None else [a + e for a, e in zip(z, sig1(t).tolist())]
        e2 = () if sig2 is None else (sig2(t).tolist(),)
        try:
            end = seg(F, z, src, h, k_step, n, t_stop, *e2)
        except (ZeroDivisionError, OverflowError):
            # a float division by zero or an overflowing power raises where
            # numpy scalars give inf or nan: redo the segment on numpy
            # scalars, so the run ends as the recorded fault it always was.
            # z too: a float clock in z[-1] would raise at the next t ** e
            z64 = [np.float64(v) for v in z]
            end = seg(F, z64, z64 if src is z else [np.float64(v) for v in src], h, k_step, n, t_stop, *e2)
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
                    fault = FaultRecord(t, j, "blowup", "non-finite state before jump", np.array(zs[-1]))
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
                fault = FaultRecord(t, j, "blowup", "jump map produced non-finite state", np.array(z))
                termination = "fault"
                break
            events.append(JumpRecord(t, j, np.array(z), np.array(z_post)))
            j += 1
            z = z_post
            from_flow = False
            record(t, j, z, TAG_JUMP)
            since_record = 0
            if not (in_C(z, infl(sig3, t)) or in_D(z, infl(sig6, t))):
                fault = FaultRecord(t, j, "escaped", "jump landed outside C union D (tau=%g)" % z[-1],
                                    events[-1].z_post)
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
