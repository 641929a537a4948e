"""Integrator steps, jump handling, and the hybrid simulation loop."""

import dataclasses
import linecache
import math
import re
import struct
import traceback
import warnings

import numpy as np
import pytest

from handsim import (
    ButcherTableau,
    DisturbanceSpec,
    HandParams,
    OdeParams,
    PerturbationSet,
    SolverConfig,
    hand2,
    make_quadratic,
    simulate,
    sphere_cost,
    tableau,
)
from handsim.core import TAG_FAULT, TAG_JUMP, compile_components, compile_source
from handsim.dynamics import make_hand_flow, make_rep1_flow, make_rep2_flow, make_signal
from handsim.engine import TABLEAUS, _step_kernel, flow_only_system
from handsim.hands import hand1

from trace_checks import assert_recorded


def _steps(F, z0, h, n=1, integrator="euler"):
    """n integrator steps through simulate: a flow-only system run to t_end = n h."""
    z0 = np.asarray(z0, dtype=float)
    sys = flow_only_system(F, (len(z0) - 1) // 2)
    tr = simulate(sys, z0, SolverConfig(h=h, t_end=n * h, integrator=integrator))
    assert tr.termination == "horizon" and tr.meta["flow_steps"] == n
    return tr.zs[-1]


def test_euler_step_hand_values():
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    z1 = _steps(F, [1.0, 3.0, 2.0], 0.1)
    assert np.allclose(z1, [1.2, 2.6, 2.1], atol=1e-14)


def test_euler_step_zero_field():
    def F(z):
        return [0.0] * len(z)

    z = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(_steps(F, z, 0.3), z)


def test_euler_step_faults_on_nonfinite():
    def F(z):
        return [math.inf] * len(z)

    tr = simulate(flow_only_system(F, 1), np.zeros(3), SolverConfig(h=0.1, t_end=0.1))
    assert tr.termination == "fault"
    assert tr.fault.kind == "blowup"
    # the fault row keeps the last finite state
    assert np.array_equal(tr.zs[-1], np.zeros(3))


@pytest.mark.parametrize("case", ["timer-zero", "negative-clock-power", "overflowing-power"])
def test_float_step_ends_in_the_numpy_fault(case):
    # Python floats raise (x / 0.0, an overflowing **) or turn complex (a
    # negative base to a fractional power) where numpy scalars give inf or
    # nan; the run must still end as the recorded fault the numpy engine gave
    f = sphere_cost(1)
    cfg = SolverConfig(h=0.01, t_end=1.0, integrator="euler", record_stride=10)
    pert = None
    if case == "timer-zero":
        # the flow sees tau + e1 = 0 at the first step
        sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
        z0, cfg = [1.0, 1.0, 1.0], dataclasses.replace(cfg, integrator="rk4")
        pert = PerturbationSet(e1=DisturbanceSpec.constant([0.0, 0.0, -1.0]))
        t_fault, steps = 0.01, 1
    elif case == "negative-clock-power":
        sys = flow_only_system(make_rep1_flow(OdeParams(p=2.5), f), 1)
        z0 = [1.0, 0.0, 1.0]
        pert = PerturbationSet(e1=DisturbanceSpec.constant([0.0, 0.0, -3.0]))
        t_fault, steps = 0.02, 2
    else:
        sys = flow_only_system(make_rep1_flow(OdeParams(p=4.0, t0=1e200), f), 1)
        z0 = [1.0, 0.0, 1e200]
        t_fault, steps = 0.02, 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tr = simulate(sys, np.array(z0), cfg, pert)
    assert tr.termination == "fault"
    assert tr.fault.kind == "blowup"
    assert (tr.fault.t, tr.fault.j) == (t_fault, 0)
    assert tr.meta["flow_steps"] == steps
    assert len(tr) == 2
    assert np.array_equal(tr.fault.z_last, z0) and np.array_equal(tr.zs, [z0, z0])


def test_euler_half_steps_differ_second_order():
    # two h/2 steps vs one h step on a linear field: gap scales like h^2
    rng = np.random.default_rng(13)
    A = rng.standard_normal((3, 3))

    def F(z):
        return (A @ np.asarray(z)).tolist()

    z0 = rng.standard_normal(3)
    gaps = []
    for h in (0.1, 0.05, 0.025):
        one = _steps(F, z0, h)
        two = _steps(F, z0, h / 2, n=2)
        gaps.append(float(np.linalg.norm(one - two)))
    # halving h shrinks the gap by ~4
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.15)


def _one_step(tab, width, field, F, z, src, h, e=None):
    """One step of the generated segment, with F called per stage or, given
    field, F's component expressions inlined."""
    args = () if e is None else (e,)
    got, steps = _step_kernel(tab, width, field, e is not None, None, None)(F, z, src, h, 0, 1, math.inf, *args)
    assert steps == 1
    return got


def test_degenerate_tableau_is_euler():
    tab = tableau("euler")
    assert tab.stages == 1
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.standard_normal(3)
        z[-1] = abs(z[-1]) + 0.1
        dz = np.array(F(z.tolist()))
        for field in (None, F.components):
            assert np.array_equal(_one_step(tab, 3, field, F, z.tolist(), z.tolist(), 0.05), z + 0.05 * dz)
        assert np.array_equal(_steps(F, z, 0.05), z + 0.05 * dz)


def _stage_loop_step(F, tab, h, z, src, e=None):
    """The step as the engine computed it before its kernels were generated:
    the stage loops of the former _rk_increment (euler: F's value as the
    increment), then z + d * h, or z + (d + e) * h under e2."""
    if tab.stages == 1:
        dz = F(src)
    else:
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
        dz = [k * tab.b[0] for k in K[0]]
        for Kk, bk in zip(K[1:], tab.b[1:]):
            if bk != 0.0:
                for i in r:
                    dz[i] = dz[i] + Kk[i] * bk
    if e is None:
        return [a + d * h for a, d in zip(z, dz)]
    return [a + (d + ei) * h for a, d, ei in zip(z, dz, e)]


def _mixing_field(z):
    """A component-wise field on floats or numpy scalars that mixes
    neighbouring components, so each output depends on the order of
    every stage's operations. Its outputs are products, so on signed zeros
    the sign of each zero carries on to the next stage."""
    m = len(z)
    return [(z[i] * 0.25 - 1.5) * z[i - 1] * z[(i + 1) % m] for i in range(m)]


def _mixing_components(m):
    """_mixing_field's components as expressions, for inlining."""
    return tuple("({%d} * 0.25 - 1.5) * {%d} * {%d}" % (i, (i - 1) % m, (i + 1) % m) for i in range(m))


def _bits(v):
    """Type and bits of a float or numpy scalar, with every nan as one
    pattern: -0.0 and nan count, a nan's sign does not. Given two nan
    operands, CPython's float + and * may return either one, and which one
    changes as the interpreter specializes the bytecode: the stage loops
    alone gave a nan of either sign on one input across repeated calls."""
    return type(v).__name__.encode() + struct.pack("<d", math.nan if v != v else v)


SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, math.inf, -math.inf, math.nan, 1e308, -3.5]


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("form", ["float", "float64"])
def test_step_kernel_matches_stage_loops_bit_for_bit(name, width, form):
    tab = TABLEAUS[name]
    rng = np.random.default_rng(width)
    mixed = np.concatenate([SPECIAL, rng.standard_normal(10)])

    def draw(pool):
        return [(float if form == "float" else np.float64)(v) for v in rng.choice(pool, width)]

    with np.errstate(all="ignore"):
        for trial in range(60):
            # every third trial holds signed zeros only, where the sign
            # left by each stage sum shows in the result
            pool = mixed if trial % 3 else np.array([0.0, -0.0])
            z = draw(pool)
            src = z if trial % 2 else draw(pool)
            e = draw(pool) if trial % 4 < 2 else None
            h = (0.1, 0.3, 1e-3, 2.0)[trial % 4]
            want = _stage_loop_step(_mixing_field, tab, h, z, src, e)
            # F called per stage, then the same field inlined as expressions
            for field in (None, _mixing_components(width)):
                got = _one_step(tab, width, field, _mixing_field, z, src, h, e)
                assert type(got) is list and len(got) == width
                assert [_bits(v) for v in got] == [_bits(v) for v in want], (trial, field, got, want)


LITERALS = ["1.0", "0.5", "-0.0", "0.0", "5e-324", "inf", "nan"]


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("form", ["float", "float64"])
def test_step_kernel_folds_literal_components_bit_for_bit(name, width, form):
    # the generated segment computes a literal component's stage sums once,
    # outside its loop; they must give the stage loops' bits, every signed
    # zero, inf and nan included
    tab = TABLEAUS[name]
    rng = np.random.default_rng(100 + width)
    mixed = np.concatenate([SPECIAL, rng.standard_normal(10)])

    def draw(pool):
        return [(float if form == "float" else np.float64)(v) for v in rng.choice(pool, width)]

    with np.errstate(all="ignore"):
        for n_lit, literal in enumerate(LITERALS):
            # the last component (the timer's place) and, from width 3, the
            # second are literals; the others mix their neighbours
            field = list(_mixing_components(width))
            field[-1] = literal
            if width >= 3:
                field[1] = LITERALS[(n_lit + 1) % len(LITERALS)]
            field = tuple(field)
            consts = {i: float(c) for i, c in enumerate(field) if c in LITERALS}

            def F(z):
                return [consts.get(i, v) for i, v in enumerate(_mixing_field(z))]

            for trial in range(30):
                pool = mixed if trial % 3 else np.array([0.0, -0.0])
                z = draw(pool)
                src = z if trial % 2 else draw(pool)
                e = draw(pool) if trial % 4 < 2 else None
                h = (0.1, 0.3, 1e-3, 2.0)[trial % 4]
                want = _stage_loop_step(F, tab, h, z, src, e)
                for inlined in (None, field):
                    got = _one_step(tab, width, inlined, F, z, src, h, e)
                    assert [_bits(v) for v in got] == [_bits(v) for v in want], (literal, trial, inlined, got, want)


def _identity_components(m):
    """Components in the forms the field factories once wrote, 1.0 * x,
    t ** 1.0 and t ** 0.0, with the last input as t, around factors every
    component shares (t ** 1.0 * 0.5 and t * -1.5, which the kernel computes
    once per stage) and neighbours that make each output depend on the
    order of operations."""
    t = m - 1
    return tuple("(1.0 * {%d} - {%d} ** 1.0 * 0.5) * ({%d} * -1.5) + {%d} ** 0.0 * {%d} * {%d}"
                 % (i, t, t, t, (i + 1) % m, (i - 1) % m) for i in range(m))


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("form", ["float", "float64"])
def test_segment_steps_in_place_match_repeated_stage_loops(name, width, form):
    # a segment handed src is z steps the running state in place, n steps
    # at a time: each must give the bits of the stage loops repeated n
    # times, past a non-finite z[0] too, with shared factors computed once
    tab = TABLEAUS[name]
    rng = np.random.default_rng(200 + width)
    mixed = np.concatenate([SPECIAL, rng.standard_normal(10)])
    field = _identity_components(width)
    F = compile_components("identity_field", width, field)

    def draw(pool):
        return [(float if form == "float" else np.float64)(v) for v in rng.choice(pool, width)]

    with np.errstate(all="ignore"):
        for trial in range(40):
            pool = mixed if trial % 3 else np.array([0.0, -0.0])
            z = draw(pool)
            e = draw(pool) if trial % 4 < 2 else None
            h = (0.1, 0.3, 1e-3, 2.0)[trial % 4]
            n = (2, 3, 7, 20)[trial // 4 % 4]
            want = z
            for _ in range(n):
                want = _stage_loop_step(F, tab, h, want, want, e)
            for inlined in (None, field):
                seg = _step_kernel(tab, width, inlined, e is not None, None, None)
                got, got_steps = seg(F, z, z, h, 0, n, math.inf, *(() if e is None else (e,)))
                assert got_steps == n, (trial, inlined)
                assert [_bits(v) for v in got] == [_bits(v) for v in want], (trial, inlined, got, want)


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("width", [1, 3, 5])
def test_segment_fault_is_the_first_non_finite_z0(name, width):
    # a segment's loop runs its n steps without testing z[0]; simulate must
    # still end the run at the first step whose z[0] the stage loops,
    # repeated, make non-finite, and equal the per-step path there
    tab = TABLEAUS[name]
    rng = np.random.default_rng(300 + width)
    mixed = np.concatenate([[v for v in SPECIAL if math.isfinite(v)], rng.standard_normal(10)])
    field = _identity_components(width)
    sys = flow_only_system(compile_components("identity_field", width, field), (width - 1) // 2)
    faults = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for trial in range(40):
            pool = mixed if trial % 3 else np.array([0.0, -0.0])
            z = rng.choice(pool, width).tolist()
            # e2 as normal draws; tiny constant signals are the subject of
            # test_dynamics' test_tiny_constant_disturbance_is_kept
            e = rng.standard_normal(width).tolist() if trial % 4 < 2 else None
            h = (0.1, 0.3, 1e-3, 2.0)[trial % 4]
            n = (2, 3, 7, 20)[trial // 4 % 4]
            want, steps = z, 0
            while True:
                want = _stage_loop_step(sys.F, tab, h, want, want, e)
                steps += 1
                if steps == n or not math.isfinite(want[0]):
                    break
            cfg = SolverConfig(h=h, t_end=n * h, integrator=name, record_stride=n)
            pert = None if e is None else PerturbationSet(e2=DisturbanceSpec.constant(e))
            tr = simulate(sys, np.array(z), cfg, pert)
            _assert_same_trace(tr, simulate(_per_step(sys), np.array(z), cfg, pert))
            assert tr.meta["flow_steps"] == steps, trial
            if not math.isfinite(want[0]):
                faults += 1
                assert tr.termination == "fault" and tr.fault.t == steps * h, trial
            elif all(map(math.isfinite, want)):
                assert tr.termination == "horizon"
                assert [_bits(v) for v in tr.zs[-1].tolist()] == [_bits(v) for v in want], trial
    assert faults


def _loop_text(seg):
    source = "".join(linecache.getlines(seg.__code__.co_filename))
    return source, source[source.index("\n    for "):]


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_text_is_identity_free_and_shares_stage_factors(dim):
    # the generated step multiplies by no 1.0 and raises to no 1.0 or 0.0,
    # computes the hand field's 2.0 / tau once per distinct timer argument
    # (rk4: the state's, stages 2 and 3's shared one, stage 4's), and its
    # loop copies no state
    m = 2 * dim + 1
    sys = hand2(sphere_cost(dim), HandParams(t_min=1.0, t_max=2.0, c=1.0))
    membership = (sys.in_C.condition, sys.in_D.condition)
    kernels = {(kind, name): _step_kernel(TABLEAUS[name], m, F.components, disturbed, membership, None)
               for kind, F in [("hand", sys.F),
                               ("rep1", make_rep1_flow(OdeParams(c=0.25), sphere_cost(dim))),
                               ("rep1-p3", make_rep1_flow(OdeParams(p=3.0), sphere_cost(dim))),
                               ("rep2", make_rep2_flow(OdeParams(), sphere_cost(dim)))]
               for name in sorted(TABLEAUS) for disturbed in (False, True)}
    for (kind, name), seg in kernels.items():
        source, loop = _loop_text(seg)
        assert not re.search(r"\* 1\.0(?![\d.e])|\*\* [01]\.0(?![\d.e])", source), source
        assert not re.search(r"\bs\d", loop), source
        if kind == "hand":
            taus = {"euler": 1, "heun": 2, "midpoint": 2, "rk4": 3}[name]
            assert loop.count("2.0 /") == loop.count("-2.0 *") == taus, source


@pytest.mark.parametrize("returned", [2, 4])
@pytest.mark.parametrize("e5", [False, True])
def test_jump_map_with_wrong_component_count_is_rejected(returned, e5):
    sys = hand2(sphere_cost(1), HandParams(t_min=1.0, t_max=2.0, c=1.0))
    sys = dataclasses.replace(sys, G=lambda z: [1.0] * returned)
    pert = PerturbationSet(e5=DisturbanceSpec.constant([0.0, 1e-3, 0.0])) if e5 else None
    with pytest.raises(ValueError, match="expected 3"):
        simulate(sys, np.array([1.0, 1.0, 2.0]), SolverConfig(h=0.1, t_end=1.0), pert)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("e5", [False, True])
def test_non_finite_jump_output_is_a_fault(bad, e5):
    # the jump block works on the float list; a non-finite component, with
    # or without e5 added to it, still ends the run as the jump map's fault
    # with the pre-jump state kept
    sys = hand2(sphere_cost(1), HandParams(t_min=1.0, t_max=2.0, c=1.0))
    sys = dataclasses.replace(sys, G=lambda z: [z[0], bad, 1.0])
    pert = PerturbationSet(e5=DisturbanceSpec.constant([0.0, 1e-3, 0.0])) if e5 else None
    z0 = np.array([1.0, 1.0, 2.0])
    tr = simulate(sys, z0, SolverConfig(h=0.1, t_end=1.0), pert)
    assert tr.termination == "fault" and tr.fault.kind == "blowup"
    assert tr.fault.detail == "jump map produced non-finite state"
    assert (tr.fault.t, tr.fault.j) == (0.0, 0) and tr.events == []
    assert np.array_equal(tr.fault.z_last, z0) and np.array_equal(tr.zs, [z0, z0])


def test_jump_output_takes_e5_as_numpy_would():
    # z+ = G(z) + e5 on floats equals numpy's float64 sum bit for bit, and the
    # JumpRecord holds both states as float arrays
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    e5 = np.array([0.1, -0.3, 2.5e-320])
    tr = simulate(sys, np.array([0.7, 0.3, 2.0]), SolverConfig(h=0.1, t_end=2.0),
                  PerturbationSet(e5=DisturbanceSpec.constant(e5)))
    assert tr.events
    for rec in tr.events:
        assert rec.z_pre.dtype == rec.z_post.dtype == np.float64
        assert np.array_equal(rec.z_post, np.array(sys.G(rec.z_pre.tolist()), dtype=float) + e5)


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("dim", [1, 2])
def test_hand_field_kernel_assigns_no_timer_stage(name, dim):
    # the timer's "1.0" is folded: the loop never assigns a stage value of it
    m = 2 * dim + 1
    F = make_hand_flow(1.0, sphere_cost(dim))
    for disturbed in (False, True):
        seg = _step_kernel(TABLEAUS[name], m, F.components, disturbed, None, None)
        source, loop = _loop_text(seg)
        stages = ["k%d_%d" % (k, m - 1) for k in range(TABLEAUS[name].stages)]
        assert not any(s in seg.__code__.co_varnames for s in stages), source
        assert not any(s in loop for s in stages), source
        assert "k0_%d = " % (m - 2) in loop


@pytest.mark.parametrize("h", [0.1, 0.3, 1e-3, 2.0])
@pytest.mark.parametrize("k", [0, 7, 10**6, 2**53 - 2])
def test_segment_stops_at_the_horizon_step_count(h, k):
    # the segment counts its steps to the horizon before its loop; each count
    # must be the first i >= 1 with (k + i) * h >= t_stop, tested step by
    # step, or n when that comes first. Past 2**53, k + i rounds to an even
    # float, so two steps can end at one time and the count must not
    # overshoot the first of them
    def reference(n, t_stop):
        i = 0
        while True:
            i += 1
            if i == n or (k + i) * h >= t_stop:
                return i

    segs = [(_step_kernel(TABLEAUS["euler"], 1, ("1.0",), False, None, None), ())]
    # a key in t that never changes value, its switch searched from the
    # first step and from the last: the count alone ends it
    segs += [(_step_kernel(TABLEAUS["euler"], 1, ("1.0",), True, None, ("0.0 * t", until)), ([0.0],))
             for until in ("t", "1e300")]
    stops = [math.inf, -math.inf, 0.0, k * h, math.nextafter(k * h, math.inf)]
    for q in (1, 2, 3, 10, 97):
        at = (k + q) * h
        stops += [at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf)]
    for t_stop in stops:
        for n in (1, 2, 3, 10, 50, 97, 120):
            want = reference(n, t_stop)
            z = 0.0
            for _ in range(want):
                z = z + 1.0 * h
            for seg, e in segs:
                z0 = [0.0]
                assert seg(None, z0, z0, h, k, n, t_stop, *e) == ([z], want), (t_stop, n)


@pytest.mark.parametrize("h", [0.1, 0.3, 1e-3, 2.0])
@pytest.mark.parametrize("k", [0, 7, 10**6, 2**53 - 2])
def test_segment_stops_at_the_key_switch_step_count(h, k):
    # the segment counts its steps to the e2 key's next switch before its
    # loop; each count must be the first i >= 1 whose key differs from step
    # k's, tested step by step, or the horizon's count or n when that comes
    # first. The switches lie about 0.4 h apart (two between steps), h, 3.7 h
    # (not a multiple of h), and q steps or more, and one of them falls at
    # the step time (k + q) * h, give or take the rounding of the length; a
    # length one ulp shorter or longer moves it by about an ulp of that time
    e = 0.25

    def first_end(key, t_stop):
        was = key(k * h)
        return next((i for i in range(1, 121) if (k + i) * h >= t_stop or key((k + i) * h) != was), 121)

    for q in (1, 2, 3, 10, 97):
        at = (k + q) * h
        for parts in {max(1, round(at / (c * h))) for c in (0.4, 1.0, 3.7)} | {(k + q) // q}:
            base = at / parts
            for length in (math.nextafter(base, 0.0), base, math.nextafter(base, math.inf)):
                for spec in (DisturbanceSpec.square_wave(1, 1.0, 2.0 * length, [1.0]),
                             DisturbanceSpec.uniform_random(1, 1.0, seed=0, hold=length)):
                    sig = make_signal(spec)
                    key = compile_source("def key(t):\n    return %s\n" % sig.key, "key")
                    seg = _step_kernel(TABLEAUS["euler"], 1, ("1.0",), True, None, (sig.key, sig.until))
                    for t_stop in (math.inf, (k + 5) * h):
                        first = first_end(key, t_stop)
                        for n in (1, 2, 3, 10, 50, 97, 120):
                            want = min(n, first)
                            z = 0.0
                            for _ in range(want):
                                z = z + (1.0 + e) * h
                            z0 = [0.0]
                            assert seg(None, z0, z0, h, k, n, t_stop, [e]) == ([z], want), (
                                spec.kind, length, t_stop, n)


@pytest.mark.parametrize("kind", ["zero", "constant", "square", "uniform"])
def test_segment_loop_computes_no_time_or_key(kind):
    # the e2 key's switch is a step count found before the loop, so the
    # loop computes no t and evaluates no key; for a constant e2 the
    # segment computes neither anywhere
    m = 3
    sys = hand2(sphere_cost(1), HandParams(t_min=0.5, t_max=1.4, c=1.0))
    specs = dict(_e2_specs(m), zero=DisturbanceSpec(kind="zero", dim=m))
    sig = make_signal(specs[kind])
    for name in sorted(TABLEAUS):
        seg = _step_kernel(TABLEAUS[name], m, sys.F.components, True,
                           (sys.in_C.condition, sys.in_D.condition), (sig.key, sig.until))
        source, loop = _loop_text(seg)
        for text in ("t =", "fmod", "floor", "key"):
            assert text not in loop, source
            if kind in ("zero", "constant"):
                assert text not in source, source


@pytest.mark.parametrize("name", sorted(TABLEAUS))
def test_segment_loop_counts_no_steps_and_tests_no_z0(name):
    # the loop is a for loop over its step count: it keeps no counter of its
    # own, makes no finite test, and breaks only at a membership exit
    m = 3
    sys = hand2(sphere_cost(1), HandParams(t_min=0.5, t_max=1.4, c=1.0))
    sig = make_signal(_e2_specs(m)["square"])
    for membership in (None, (sys.in_C.condition, sys.in_D.condition)):
        for disturbed, switch in ((False, None), (True, None), (True, (sig.key, sig.until))):
            seg = _step_kernel(TABLEAUS[name], m, sys.F.components, disturbed, membership, switch)
            source, loop = _loop_text(seg)
            for text in ("z0 - z0", "i += 1", "while True"):
                assert text not in loop, source
            if membership is None:
                assert loop.startswith("\n    for _ in range(n):") and "break" not in loop, source
            else:
                assert loop.startswith("\n    for i in range(1, n + 1):") and loop.count("break") == 1, source


@pytest.mark.parametrize("a, b", [(((),), (math.nan,)), (((), (0.5,)), (math.nan, 1.0)),
                                  (((), (math.inf,)), (0.5, 0.5)), (((), (0.5,)), (0.5, -math.inf))])
def test_tableau_rejects_nonfinite_entries(a, b):
    with pytest.raises(ValueError, match="finite"):
        ButcherTableau("bad", a=a, b=b)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("flow", [lambda z: [z[1], -z[0]], lambda z: [z[1], -z[0], 1.0, 0.0]], ids=["short", "long"])
def test_flow_with_wrong_component_count_is_rejected(integrator, flow):
    # the packed state has 3 components, the flow returns 2 or 4
    sys = flow_only_system(flow, 1)
    cfg = SolverConfig(h=0.01, t_end=1.0, integrator=integrator)
    z0 = np.array([1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="expected 3"):
        simulate(sys, z0, cfg)


def test_rk4_exponential_value():
    # zdot = z from 1 over one step h=0.1 matches the truncated Taylor value
    def F(z):
        return list(z)

    z1 = _steps(F, np.ones(3), 0.1, integrator="rk4")
    assert z1 == pytest.approx(np.full(3, 1.1051708333333332), abs=1e-12)
    # local truncation error h^5/5! ~ 8.3e-8
    assert np.all(np.abs(z1 - math.exp(0.1)) < 1e-7)
    # the generic tableau path: both second-order schemes give 1 + h + h^2/2
    for integrator in ("heun", "midpoint"):
        z1 = _steps(F, np.ones(3), 0.1, integrator=integrator)
        assert z1 == pytest.approx(np.full(3, 1.105), abs=1e-12), integrator


def test_rk4_global_error_fourth_order():
    # Richardson on the flow over a fixed horizon: halving h gains ~2^4
    f = sphere_cost(1)
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)
    z0 = np.array([2.0, 2.0, 1.0])
    ref = simulate(sys, z0, SolverConfig(h=1e-4, t_end=2.0, integrator="rk4", record_stride=10**9)).zs[-1]
    errs = []
    for h in (0.02, 0.01):
        tr = simulate(sys, z0, SolverConfig(h=h, t_end=2.0, integrator="rk4", record_stride=10**9))
        errs.append(float(np.linalg.norm(tr.zs[-1] - ref)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)


def test_unknown_tableau_rejected():
    with pytest.raises(ValueError):
        tableau("rk9")


def test_loop_top_escape_is_an_internal_error():
    # every state at the loop top was tested against C union D at its t, so
    # only a membership test that changes its answer for the same state and
    # t gets there: a bug in the system, not a fault of the run
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    answers = iter([True])

    def fickle(z, inflation):
        return next(answers, False)

    with pytest.raises(RuntimeError, match="internal error"):
        simulate(dataclasses.replace(sys, in_C=fickle), np.array([0.5, 0.5, 1.5]),
                 SolverConfig(h=0.01, t_end=0.1))


def test_dh_membership_cases():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=0.006, t_end=0.012, jump_policy="earliest")
    # in D: the jump fires before any flow
    tr = simulate(sys, np.array([0.5, 0.5, 2.0]), cfg)
    assert tr.events[0].t == 0.0 and tr.events[0].z_pre[-1] == 2.0
    # one flow step from C overshoots the deadline to tau = 2.003, outside C
    # and off the D slice: the step's provenance puts it in D_h, jump fires next
    tr = simulate(sys, np.array([0.5, 0.5, 1.997]), cfg)
    assert tr.events[0].t == pytest.approx(0.006)
    assert tr.events[0].z_pre[-1] == pytest.approx(2.003)
    # the same state without flow-step provenance is outside C union D_h
    with pytest.raises(ValueError, match="outside C union D"):
        simulate(sys, np.array([0.5, 0.5, 2.003]), cfg)
    # a flow step that stays inside C does not jump
    tr = simulate(sys, np.array([0.5, 0.5, 1.194]), cfg)
    assert tr.events == [] and tr.termination == "horizon"
    # a non-finite or wrong-length initial state is refused before membership
    for bad in ([0.5, math.nan, 1.5], [0.5, 0.5, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            simulate(sys, np.array(bad), cfg)
    with pytest.raises(ValueError):
        simulate(sys, np.array([0.5, 0.5, 1.5, 1.5]), cfg)


def test_simulate_jump_policies_in_C_and_D():
    # hand1 may jump anywhere with tau in [t_med, t_max]; the policy picks where
    f = sphere_cost(1)
    params = HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0)
    sys = hand1(f, params)
    h = 1e-2

    def pre_jump_taus(policy, system=sys):
        cfg = SolverConfig(h=h, t_end=4.0, integrator="rk4", jump_policy=policy, policy_seed=3)
        tr = simulate(system, np.array([0.5, 0.5, params.t_min]), cfg)
        k = int(np.flatnonzero(tr.tags == TAG_JUMP)[0])
        # timer of the flow state before the pre-jump state, and of the pre-jump state
        return tr.zs[k - 2, -1], tr.zs[k - 1, -1]

    before, earliest = pre_jump_taus("earliest")
    assert before < params.t_med <= earliest
    _, latest = pre_jump_taus("latest")
    assert latest <= params.t_max < latest + h
    _, uniform = pre_jump_taus("uniform")
    assert earliest < uniform < latest
    no_bounds = dataclasses.replace(sys, meta={k: v for k, v in sys.meta.items() if k != "t_max"})
    with pytest.raises(ValueError, match="t_max"):
        pre_jump_taus("uniform", no_bounds)


def test_flow_only_trace_never_jumps():
    f = sphere_cost(1)
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), SolverConfig(h=1e-2, t_end=5.0))
    assert np.all(tr.js == 0)
    assert tr.termination == "horizon"
    assert_recorded(tr)


def test_hand2_jump_cadence():
    # timer from t_min=1 to t_max=2: jumps at t = 1, 2, 3, ... within h
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-3, t_end=5.5, integrator="rk4", record_stride=100)
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), cfg)
    jump_times = [rec.t for rec in tr.events]
    assert len(jump_times) == 5
    for k, t in enumerate(jump_times):
        assert abs(t - (k + 1.0)) <= cfg.h + 1e-12
    # j increments by one at each event
    assert [rec.j_pre for rec in tr.events] == [0, 1, 2, 3, 4]
    assert_recorded(tr)


def test_zero_perturbation_is_bitwise_identical():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-2, t_end=4.0, integrator="rk4")
    z0 = np.array([3.0, 3.0, 1.0])
    plain = simulate(sys, z0, cfg)
    pert = PerturbationSet(e2=DisturbanceSpec(kind="zero", dim=3))
    routed = simulate(sys, z0, cfg, pert=pert)
    assert np.array_equal(plain.zs, routed.zs)
    assert np.array_equal(plain.ts, routed.ts)
    assert np.array_equal(plain.js, routed.js)


def test_simulate_is_deterministic_by_seed():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-2, t_end=12.0, jump_policy="uniform", policy_seed=42)
    z0 = np.array([4.0, 4.0, 1.0])
    a = simulate(sys, z0, cfg)
    b = simulate(sys, z0, cfg)
    assert np.array_equal(a.zs, b.zs) and np.array_equal(a.ts, b.ts)
    c = simulate(sys, z0, SolverConfig(h=1e-2, t_end=12.0, jump_policy="uniform", policy_seed=43))
    # different seed moves at least one jump time
    assert len(a.events) > 0 and len(c.events) > 0
    assert a.events[0].t != c.events[0].t


def test_max_jumps_termination():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-2, t_end=50.0, max_jumps=3)
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), cfg)
    assert tr.termination == "jump_cap"
    assert len(tr.events) == 3


def test_stop_condition_termination():
    f = sphere_cost(1)
    sys = flow_only_system(make_hand_flow(1.0, f), f.dim)

    def past_two(t, j, z):
        return t >= 2.0

    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), SolverConfig(h=1e-2, t_end=50.0), stop_condition=past_two)
    assert tr.termination == "condition"
    assert 2.0 <= tr.ts[-1] < 2.5


def test_fault_recorded_on_blowup():
    # field grows super-exponentially until the step overflows
    def F(z):
        z = np.asarray(z)
        with np.errstate(over="ignore"):
            return (z * np.exp(np.minimum(np.abs(z), 500.0))).tolist()

    sys = flow_only_system(F, 1)
    tr = simulate(sys, np.array([1.0, 1.0, 1.0]), SolverConfig(h=0.5, t_end=1e3))
    assert tr.termination == "fault"
    assert tr.fault is not None
    assert np.all(np.isfinite(tr.zs))


@pytest.mark.parametrize("case, kind, t, j", [
    ("before-jump", "non-finite state before jump", 1.0, 0),
    ("record-point", "non-finite state during flow", 0.30000000000000004, 0),
    ("horizon", "non-finite state at horizon", 0.5, 0),
    ("jump-map", "jump map produced non-finite state", 1.0, 0),
])
def test_simulate_fault_exits(case, kind, t, j):
    # each way a non-finite state ends a run: x2 turns inf on the first flow
    # step while x1 stays finite (so no segment ends on z[0]), and the loop
    # finds it at the jump, the record point or the horizon that comes
    # first; or the jump map itself returns nan
    sys = hand2(sphere_cost(1), HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=0.1, t_end=10.0, record_stride=1000)
    if case == "jump-map":
        sys = dataclasses.replace(sys, G=lambda z: [math.nan] * 3)
    else:
        sys = dataclasses.replace(sys, F=lambda z: [0.0, math.inf, 1.0])
        if case == "record-point":
            cfg = dataclasses.replace(cfg, record_stride=3)
        elif case == "horizon":
            cfg = dataclasses.replace(cfg, t_end=0.5)
    tr = simulate(sys, np.array([1.0, 1.0, 1.0]), cfg)
    assert tr.termination == "fault"
    assert tr.fault.kind == "blowup" and tr.fault.detail.startswith(kind)
    assert (tr.fault.t, tr.fault.j) == (t, j)
    # the fault row is last and holds the last recorded state
    assert tr.tags[-1] == TAG_FAULT and (tr.ts[-1], tr.js[-1]) == (t, j)
    assert np.array_equal(tr.zs[-1], tr.zs[-2]) and np.array_equal(tr.fault.z_last, tr.zs[-2])
    assert np.all(np.isfinite(tr.zs))
    assert_recorded(tr)


def test_latest_policy_on_hand1_window():
    # with t_med=2 and t_max=3 the latest policy holds jumps until tau = 3
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", jump_policy="latest", record_stride=200)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    assert len(tr.events) >= 3
    for rec in tr.events:
        assert rec.z_pre[-1] == pytest.approx(3.0, abs=cfg.h + 1e-9)
        assert rec.z_post[-1] == pytest.approx(1.0, abs=1e-12)


def test_earliest_policy_jumps_at_window_entry():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", jump_policy="earliest", record_stride=200)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    assert len(tr.events) >= 3
    for rec in tr.events:
        assert rec.z_pre[-1] == pytest.approx(2.0, abs=cfg.h + 1e-9)


def test_jump_rows_tagged():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), SolverConfig(h=1e-2, t_end=3.0))
    jump_rows = np.flatnonzero(tr.tags == TAG_JUMP)
    assert len(jump_rows) == len(tr.events)
    for k in jump_rows:
        assert tr.zs[k, -1] == pytest.approx(1.0, abs=1e-12)  # post-jump timer


def _assert_same_trace(a, b):
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.js, b.js)
    assert np.array_equal(a.zs, b.zs)
    assert np.array_equal(a.tags, b.tags)
    assert a.termination == b.termination
    assert a.meta == b.meta
    assert len(a.events) == len(b.events)
    for x, y in zip(a.events, b.events):
        assert (x.t, x.j_pre) == (y.t, y.j_pre)
        assert np.array_equal(x.z_pre, y.z_pre) and np.array_equal(x.z_post, y.z_post)
    assert (a.fault is None) == (b.fault is None)
    if a.fault is not None:
        assert tuple(a.fault[:4]) == tuple(b.fault[:4])
        assert np.array_equal(a.fault.z_last, b.fault.z_last)


@pytest.mark.parametrize("integrator", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("policy", ["earliest", "latest", "uniform"])
@pytest.mark.parametrize("f", [sphere_cost(1), make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3], name="q2")],
                         ids=["dim1", "dim2"])
def test_simulate_batch_equals_single_runs(integrator, policy, f):
    # repeated runs share no cached state: hand1 and hand2 runs with
    # different timer windows, made one after another through simulate as
    # restart-sweep makes its grid, equal the same runs made again in
    # reverse order, and the repeat generates no new segment code. Short
    # periods hit the jump budget, the last run starts at the edge of the
    # floats and blows up a few steps in, the rest run to the horizon; euler
    # runs each once more under a square-wave e2 that switches inside flows
    cfg = SolverConfig(h=0.01, t_end=12.0, max_jumps=5, integrator=integrator, jump_policy=policy,
                       policy_seed=3, record_stride=7)
    m = 2 * f.dim + 1
    perts = [None]
    if integrator == "euler":
        perts.append(PerturbationSet(e2=DisturbanceSpec.square_wave(m, 0.05, 0.9, np.full(m, 1.0 / np.sqrt(m)))))
    runs = []
    for pert in perts:
        for k, t_max in enumerate((1.5, 2.3, 2.9, 3.5, 4.4, 1.8)):
            hp = HandParams(t_min=0.5, t_max=t_max, c=1.0, t_med=None if k % 2 else 0.5 * (0.5 + t_max))
            x = f.xstar + (1.5e308 if k == 5 else 1.0 + 0.25 * k)
            runs.append(((hand2 if k % 2 else hand1), hp, np.concatenate([x, x, [0.5]]), pert))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = [simulate(hand(f, hp), z0, cfg, pert) for hand, hp, z0, pert in runs]
        generated = _step_kernel.cache_info().currsize
        singles = [simulate(hand(f, hp), z0, cfg, pert) for hand, hp, z0, pert in reversed(runs)][::-1]
    assert _step_kernel.cache_info().currsize == generated
    for tr, ref in zip(batch, singles):
        _assert_same_trace(tr, ref)
        assert_recorded(tr)
    for k in range(0, len(batch), 6):
        endings = [tr.termination for tr in batch[k:k + 6]]
        assert "jump_cap" in endings and "horizon" in endings
        assert endings[5] == "fault" and batch[k + 5].fault.kind == "blowup"
        assert 0 < batch[k + 5].meta["flow_steps"] < min(tr.meta["flow_steps"] for tr in batch[k:k + 5])


def _per_step(sys):
    """sys with its closures behind plain lambdas: no component expressions
    or membership conditions to inline, so simulate takes one-step calls."""
    F, in_C, in_D = sys.F, sys.in_C, sys.in_D
    return dataclasses.replace(sys, F=lambda z: F(z), in_C=lambda z, i=0.0: in_C(z, i),
                               in_D=lambda z, i=0.0: in_D(z, i))


COUPLED2 = make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3], name="q2")


def _e2_specs(m):
    axis = np.full(m, 1.0 / np.sqrt(m))
    return {
        "none": None,
        "constant": DisturbanceSpec.constant(np.linspace(-0.03, 0.02, m)),
        # switches sign every 0.35 time units, inside flows and at jumps
        "square": DisturbanceSpec.square_wave(m, 0.05, 0.7, axis),
        # a new draw every 0.45 time units
        "uniform": DisturbanceSpec.uniform_random(m, 0.05, seed=11, hold=0.45),
    }


@pytest.mark.parametrize("system", ["hand1", "hand2", "rep1", "rep2"])
@pytest.mark.parametrize("integrator", sorted(TABLEAUS))
def test_fused_segments_equal_per_step_calls(integrator, system):
    # the fused path (inlined field and membership, segments between
    # control events) and the one-step calls give the same trace bit for
    # bit: every jump, record, horizon and disturbance switch lands alike
    for f in (sphere_cost(1), COUPLED2):
        x = f.xstar + 1.0
        if system == "hand1":
            sys = hand1(f, HandParams(t_min=0.5, t_max=1.5, c=1.0, t_med=1.0))
        elif system == "hand2":
            sys = hand2(f, HandParams(t_min=0.5, t_max=1.4, c=1.0))
        else:
            rep = make_rep1_flow if system == "rep1" else make_rep2_flow
            sys = flow_only_system(rep(OdeParams(p=2.5), f), f.dim)
        z0 = np.concatenate([x, x - 0.5, [0.5 if system.startswith("hand") else 1.0]])
        for e2 in _e2_specs(2 * f.dim + 1).values():
            pert = None if e2 is None else PerturbationSet(e2=e2)
            for policy in ("earliest", "latest", "uniform"):
                cfg = SolverConfig(h=0.01, t_end=3.0, integrator=integrator, jump_policy=policy,
                                   policy_seed=5, record_stride=17)
                fused = simulate(sys, z0, cfg, pert)
                ref = simulate(_per_step(sys), z0, cfg, pert)
                _assert_same_trace(fused, ref)
                assert_recorded(fused)
                assert_recorded(ref)
                assert fused.termination == "horizon"
                assert len(fused.events) == (0 if system.startswith("rep") else len(ref.events))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("case", ["raises", "non-finite"])
def test_fault_inside_a_segment_matches_per_step_calls(case, integrator):
    # the fault comes several steps into a segment that would run 50 steps
    # to its record point: a division by zero redoes the segment on numpy
    # scalars, a non-finite z[0] ends it, and both end as the per-step
    # path's fault
    f = sphere_cost(1)
    cfg = SolverConfig(h=0.25, t_end=20.0, integrator=integrator, record_stride=50)
    if case == "raises":
        # the timer runs from -1 through an exact 0.0, where 2/tau raises
        sys = flow_only_system(make_hand_flow(1.0, f), 1)
        z0 = [1.0, 2.0, -1.0]
    else:
        # z[0] grows by a factor of about 2.5e19 per euler step and
        # overflows to inf without raising
        grow = compile_components("grow", 3, ["{0} * 1e20", "0.0", "1.0"])
        sys = dataclasses.replace(hand2(f, HandParams(t_min=0.5, t_max=100.0, c=1.0)), F=grow)
        z0 = [1.0, 1.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fused = simulate(sys, np.array(z0), cfg)
        ref = simulate(_per_step(sys), np.array(z0), cfg)
    _assert_same_trace(fused, ref)
    assert fused.termination == "fault" and fused.fault.kind == "blowup"
    assert 2 < fused.meta["flow_steps"] < cfg.record_stride
    assert (fused.fault.t, fused.fault.j) == (ref.fault.t, ref.fault.j)
    assert np.array_equal(fused.fault.z_last, ref.fault.z_last)


@pytest.mark.parametrize("integrator", sorted(TABLEAUS))
@pytest.mark.parametrize("case", ["raises-after-blowup", "hybrid", "numpy-start"])
def test_replayed_segment_fault_matches_per_step_calls(case, integrator):
    # a segment runs past the step where z[0] goes non-finite; simulate
    # replays it one step at a time from its start state and ends the run
    # at that step, as the per-step path does
    f = sphere_cost(1)
    cfg = SolverConfig(h=0.25, t_end=20.0, integrator=integrator, record_stride=50)
    t_fault = None
    if case == "raises-after-blowup":
        # z[0] overflows to inf without raising; a later step of the same
        # segment, one the per-step path never takes, divides by zero at
        # tau = 0.75, so the segment is redone on numpy scalars first
        sys = flow_only_system(compile_components("late", 3, ["{0} * 1e200", "1.0 / ({2} - 0.75)", "1.0"]), 1)
        z0 = [1.0, 0.0, 0.0]
        t_fault = 0.5 if integrator == "euler" else 0.25
    elif case == "hybrid":
        # z[0] overflows within two steps; the timer leaves C = [0.5, 2.0]
        # at the sixth (tau 2.1), where the segment's loop breaks
        grow = compile_components("grow", 3, ["{0} * 1e200", "0.0", "1.0"])
        sys = dataclasses.replace(hand1(f, HandParams(t_min=0.5, t_max=2.0, c=1.0, t_med=2.0)), F=grow)
        z0 = [1.0, 1.0, 0.6]
        t_fault = 0.5 if integrator == "euler" else 0.25
    else:
        # the first segment divides by zero at tau = 0 and is redone on
        # numpy scalars, whose 1 / (1 + 1 / 0) is 0.0; the segments after it
        # start from numpy scalars, and z[0] overflows a few steps into a
        # later one
        sys = flow_only_system(compile_components("masked", 3, ["{0} * 1e5", "1.0 / (1.0 + 1.0 / {2})", "1.0"]), 1)
        z0 = [1.0, 0.0, -0.5]
        cfg = dataclasses.replace(cfg, record_stride=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fused = simulate(sys, np.array(z0), cfg)
        ref = simulate(_per_step(sys), np.array(z0), cfg)
    _assert_same_trace(fused, ref)
    assert fused.termination == "fault" and fused.fault.kind == "blowup"
    assert (fused.fault.t, fused.fault.j) == (ref.fault.t, ref.fault.j)
    assert np.array_equal(fused.fault.z_last, ref.fault.z_last)
    if t_fault is not None:
        assert (fused.fault.t, fused.meta["flow_steps"]) == (t_fault, t_fault / cfg.h)
    else:
        steps = fused.meta["flow_steps"]
        assert steps > cfg.record_stride and steps % cfg.record_stride > 1


def test_generated_code_shows_in_tracebacks():
    # a generated segment registers its source, so a traceback from inside
    # it names the line that raised
    f = sphere_cost(1)
    F = make_hand_flow(1.0, f)
    seg = _step_kernel(TABLEAUS["euler"], 3, F.components, False, None, None)
    with pytest.raises(ZeroDivisionError) as info:
        seg(F, [1.0, 2.0, 0.0], [1.0, 2.0, 0.0], 0.1, 0, 1, math.inf)
    text = "".join(traceback.format_tb(info.tb))
    assert "k0_0 = 2.0 / s2 * (s1 - s0)" in text
    code = seg.__code__
    assert linecache.getline(code.co_filename, code.co_firstlineno).startswith("def seg(F, z, src, h, k, n, t_stop)")
    assert linecache.getline(F.__code__.co_filename, 2).strip().startswith("return [2.0 / x[2] * (x[1] - x[0])")
