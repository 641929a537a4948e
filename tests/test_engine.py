"""Integrator steps, jump handling, and the hybrid simulation loop."""

import dataclasses
import functools
import hashlib
import linecache
import math
import os
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
from handsim.core import TAG_FAULT, TAG_JUMP, compile_components
from handsim.dynamics import _switch_steps, make_rep1_flow, make_rep2_flow, make_signal
from handsim import core, engine, scenarios
from handsim.engine import TABLEAUS, _step_kernel, flow_only_system
from handsim.hands import _timer_test, hand1
from handsim.scenarios import apply_override, load_config, run_scenario

from trace_checks import assert_recorded

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def _steps(F, z0, h, n=1, integrator="euler"):
    """n integrator steps through simulate: a flow-only system run to t_end = n h."""
    z0 = np.asarray(z0, dtype=float)
    sys = flow_only_system(F, (len(z0) - 1) // 2)
    tr = simulate(sys, z0, SolverConfig(h=h, t_end=n * h, integrator=integrator))
    assert tr.termination == "horizon" and tr.meta["flow_steps"] == n
    return tr.zs[-1]


def test_euler_step_hand_values():
    f = sphere_cost(1)
    F = make_rep2_flow(OdeParams(c=1.0), f)
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
    # the fault row holds the last finite state, the initial one
    assert tr.tags[-1] == TAG_FAULT and np.array_equal(tr.zs, [z0, z0])


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
    field, F's component expressions inlined around the factors F declares."""
    args = () if e is None else (e,)
    seg = _step_kernel(tab, width, field, e is not None, None, getattr(F, "factors", ()))
    got, steps = seg(F, z, src, h, 1, *args)
    assert steps == 1
    return got


def test_degenerate_tableau_is_euler():
    tab = tableau("euler")
    assert tab.stages == 1
    f = sphere_cost(1)
    F = make_rep2_flow(OdeParams(c=1.0), f)
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


def _identity_components(m, declared=True):
    """(components, factors): components in the forms the field factories
    once wrote, 1.0 * x, t ** 1.0 and t ** 0.0, with the last input as t,
    around factors every component shares (t ** 1.0 * 0.5 and t * -1.5,
    declared as clock factors, which the kernel computes once per stage, or
    written out in each component with none declared) and neighbours that
    make each output depend on the order of operations."""
    t = m - 1
    factors = ("{%d} ** 1.0 * 0.5" % t, "{%d} * -1.5" % t)
    refs = ("{f0}", "{f1}") if declared else factors
    comps = tuple("(1.0 * {%d} - %s) * (%s) + {%d} ** 0.0 * {%d} * {%d}"
                  % (i, refs[0], refs[1], t, (i + 1) % m, (i - 1) % m) for i in range(m))
    return comps, factors if declared else ()


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("form, declared", [pytest.param(form, declared, id=form + ("" if declared else "-undeclared"))
                                            for declared in (True, False) for form in ("float", "float64")])
def test_segment_steps_in_place_match_repeated_stage_loops(name, width, form, declared):
    # a segment handed src is z steps the running state in place, n steps
    # at a time: each must give the bits of the stage loops repeated n
    # times, past a non-finite z[0] too, with declared factors computed once
    # per stage where a stage uses them twice or more; the same field
    # without declared factors writes each out and shares none
    tab = TABLEAUS[name]
    rng = np.random.default_rng(200 + width)
    mixed = np.concatenate([SPECIAL, rng.standard_normal(10)])
    field, factors = _identity_components(width, declared)
    F = compile_components("identity_field", width, field, factors)
    source, _ = _loop_text(_step_kernel(tab, width, field, False, None, factors))
    assert bool(re.search(r"^ +f\d+ = ", source, re.M)) == (declared and width > 1), source

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
                seg = _step_kernel(tab, width, inlined, e is not None, None, factors)
                got, got_steps = seg(F, z, z, h, n, *(() if e is None else (e,)))
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
    sys = flow_only_system(compile_components("identity_field", width, *_identity_components(width)), (width - 1) // 2)
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
    # loop copies no state. A shared factor reads the clock's stage value
    # alone; one used once is inlined, so the dimension-1 euler hand kernel
    # names none, and rk4 shares the ODE fields' clock factors as well
    m = 2 * dim + 1
    sys = hand2(sphere_cost(dim), HandParams(t_min=1.0, t_max=2.0, c=1.0))
    membership = (sys.in_C.condition, sys.in_D.condition)
    kernels = {(kind, name, disturbed):
               _step_kernel(TABLEAUS[name], m, F.components, disturbed, membership, F.factors)
               for kind, F in [("hand", sys.F),
                               ("rep1", make_rep1_flow(OdeParams(c=0.25), sphere_cost(dim))),
                               ("rep1-p3", make_rep1_flow(OdeParams(p=3.0), sphere_cost(dim))),
                               ("rep2", make_rep2_flow(OdeParams(), sphere_cost(dim)))]
               for name in sorted(TABLEAUS) for disturbed in (False, True)}
    for (kind, name, _), seg in kernels.items():
        source, loop = _loop_text(seg)
        assert not re.search(r"\* 1\.0(?![\d.e])|\*\* [01]\.0(?![\d.e])", source), source
        assert not re.search(r"\bs\d", loop), source
        if kind == "hand":
            taus = {"euler": 1, "heun": 2, "midpoint": 2, "rk4": 3}[name]
            assert loop.count("2.0 /") == loop.count("-2.0 *") == taus, source
        factors = re.findall(r"^ +f\d+ = (.*)$", source, re.M)
        for text in factors:
            clocks = ({"z%d" % (m - 1)}, {"s%d" % (m - 1)}, {"a%d" % (m - 1)})
            assert set(re.findall(r"\b[a-z_]\w*", text)) in clocks, source
        if (kind, name, dim) == ("hand", "euler", 1):
            assert not factors, source
        if name == "rk4":
            clock = "a%d" % (m - 1)
            want = {"rep1-p3": ["9.0 * " + clock], "rep2": ["2.0 / " + clock, "-2.0 * " + clock]}.get(kind, [])
            assert all(re.search(r"^ +f\d+ = %s$" % re.escape(w), loop, re.M) for w in want), source


# the segment kernels of the seven bundled configs, named by the crc32 of
# their source (core._compiled), and the sha256 of those sources in name order
BUNDLED_SEGMENTS = """
    22f8383a 2845e081 2a74e2b3 3987c08e 3b36867e 77b45a82 7cc3895a 7e704042 98660d63 9bef1e7b
    bb0e50ab d4537833 f1db5ace
""".split()
BUNDLED_SEGMENTS_SHA256 = "abc72c478abac84c99ea7f80918cdf0ff48cb28e322108aaef467ea81a136d12"

# the bundled configs shrunk: h and the horizons enter no kernel's text
SHRUNK = {
    "discretization-order": {"solver.t_end": 2.0},
    "hand1-rate": {"solver.t_end": 1.0},
    "hand2-rate": {"solver.t_end": 2.0},
    "instability": {"solver.t_end": 60.0, "params.hand_t_end": 60.0},
    "restart-sweep": {"solver.t_end": 2.0},
    "robustness-margin": {"solver.t_end": 60.0, "params.bisect_steps": 1},
    "uniformity-probe": {"solver.t_end": 2.0, "params.t_end_scale": 0.01},
}


def _recording(monkeypatch):
    """The kernels simulate makes from here on, in order (None where it
    makes no replay kernel)."""
    made = []

    def recording(*args, **kwargs):
        made.append(_step_kernel(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(engine, "_step_kernel", recording)
    return made


def test_bundled_configs_keep_their_segment_kernels(tmp_path, monkeypatch):
    # the seven configs, run in one process, generate these 13 segment
    # kernels, name for name and byte for byte, 7 replay kernels and 5
    # table builds (no timer window or square wave period enters any text:
    # restart-sweep's 15 periods share one of each, and hand1 and hand2
    # share one jump-set test); the replay loops test
    # no membership and compute no clock factor: each reads the clock's
    # values from its table alone; the runs stay in this process, where the
    # spy records them
    monkeypatch.setenv("HAND_SIM_THREADS", "1")
    made = _recording(monkeypatch)
    for name, overrides in SHRUNK.items():
        cfg = load_config(os.path.join(CONFIGS, name + ".json"))
        for key, value in overrides.items():
            cfg = apply_override(cfg, key, value)
        run_scenario(cfg, out_dir=str(tmp_path / name), quiet=True)
    segs = {seg.__code__.co_filename: seg for seg in made if seg is not None and seg.__name__ == "seg"}
    assert sorted(segs) == ["<seg %s>" % crc for crc in BUNDLED_SEGMENTS]
    text = "".join("".join(linecache.getlines(name)) for name in sorted(segs))
    assert hashlib.sha256(text.encode()).hexdigest() == BUNDLED_SEGMENTS_SHA256
    replays = {rep for rep in made if rep is not None and rep.__name__ == "replay"}
    assert len({rep.__code__.co_filename for rep in replays}) == 7
    assert len({rep.build.__code__.co_filename for rep in replays}) == 5
    for rep in replays:
        _assert_replay_loop(rep)


def _assert_replay_loop(rep, divides=False):
    # the loop takes each step's clock, and the factors and stage arguments
    # of it that the step reads, from the table, and names no other clock
    # value; only the table's build tests membership. Where the field
    # declares its clock factors the loop divides by nothing
    source = "".join(linecache.getlines(rep.__code__.co_filename))
    loop = source[source.index("\n    for "):source.index("\n    return ")]
    clock = re.match(r"\n    for (?:\w+, )*(z\d+), in table\[:n\]:\n", loop).group(1)
    body = loop[loop.index(":\n"):]
    assert not re.search(r"[<>=]=|[<>]|\bbreak\b|\bnot\b" + ("" if divides else "|/"), body), source
    assert not re.search(r"\b(?:%s|a%s)\b|\bf\d+ = " % (clock, clock[1:]), body), source
    build = "".join(linecache.getlines(rep.build.__code__.co_filename))
    assert build.count("break") == 1 and "%s = %s + d" % (clock, clock) in build, build


@pytest.mark.parametrize("dim", [1, 2])
def test_replay_kernels_read_the_clock_from_their_table(dim):
    # every field on a literal clock gets a replay kernel under a membership
    # exit: the hand field, the ODE forms and a field that reads the clock
    # outside any factor; without a membership exit or with a clock that is
    # not a literal there is none
    m = 2 * dim + 1
    sys = hand2(sphere_cost(dim), HandParams(t_min=1.0, t_max=2.0, c=1.0))
    membership = (sys.in_C.condition, sys.in_D.condition)
    raw = tuple("{%d} * 0.5 + 1.0 / {%d}" % (i, m - 1) for i in range(m - 1)) + ("1.0",)
    fields = [(sys.F.components, sys.F.factors),
              (make_rep1_flow(OdeParams(p=3.0), sphere_cost(dim)).components,
               make_rep1_flow(OdeParams(p=3.0), sphere_cost(dim)).factors),
              (make_rep2_flow(OdeParams(p=2.5), sphere_cost(dim)).components,
               make_rep2_flow(OdeParams(p=2.5), sphere_cost(dim)).factors),
              (raw, ())]
    for name in sorted(TABLEAUS):
        for components, factors in fields:
            for disturbed in (False, True):
                kernel = (TABLEAUS[name], m, components, disturbed, membership, factors)
                _assert_replay_loop(_step_kernel(*kernel, replay=True), divides=components is raw)
                assert _step_kernel(*kernel[:4], None, factors, replay=True) is None
        timer = sys.F.components[:-1] + ("{%d} * 0.0 + 1.0" % (m - 1),)
        assert _step_kernel(TABLEAUS[name], m, timer, False, membership, sys.F.factors, replay=True) is None


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
    assert (tr.fault.t, tr.fault.j) == (0.0, 0) and len(tr.events) == 0
    assert tr.tags[-1] == TAG_FAULT and np.array_equal(tr.zs, [z0, z0])


def test_jump_output_takes_e5_as_numpy_would():
    # z+ = G(z) + e5 on floats equals numpy's float64 sum bit for bit: each
    # jump row is G of the row before it plus e5
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    e5 = np.array([0.1, -0.3, 2.5e-320])
    tr = simulate(sys, np.array([0.7, 0.3, 2.0]), SolverConfig(h=0.1, t_end=2.0),
                  PerturbationSet(e5=DisturbanceSpec.constant(e5)))
    assert len(tr.events) and tr.zs.dtype == np.float64
    for k in tr.events:
        assert np.array_equal(tr.zs[k], np.array(sys.G(tr.zs[k - 1].tolist()), dtype=float) + e5)


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("dim", [1, 2])
def test_hand_field_kernel_assigns_no_timer_stage(name, dim):
    # the timer's "1.0" is folded: the loop never assigns a stage value of it
    m = 2 * dim + 1
    F = make_rep2_flow(OdeParams(c=1.0), sphere_cost(dim))
    for disturbed in (False, True):
        seg = _step_kernel(TABLEAUS[name], m, F.components, disturbed, None, F.factors)
        source, loop = _loop_text(seg)
        stages = ["k%d_%d" % (k, m - 1) for k in range(TABLEAUS[name].stages)]
        assert not any(s in seg.__code__.co_varnames for s in stages), source
        assert not any(s in loop for s in stages), source
        assert "k0_%d = " % (m - 2) in loop


def _euler_timer(h, steps, e=0.0):
    """The timer after steps euler steps of rate 1.0 from 0.0, as a
    one-component kernel takes them: z0 = z0 + (1.0 + e) * h, or z0 + 1.0 * h
    undisturbed (the same float at e = 0.0)."""
    z = 0.0
    for _ in range(steps):
        z = z + (1.0 + e) * h
    return z


@pytest.mark.parametrize("h", [0.1, 0.3, 1e-3, 2.0])
@pytest.mark.parametrize("k", [0, 7, 10**6, 2**53 - 2])
def test_segment_stops_at_the_horizon_step_count(h, k):
    # simulate counts a segment's steps to the horizon before the kernel
    # runs (engine._horizon_steps); each count must be the first i >= 1 with
    # (k + i) * h >= t_stop, tested step by step, or n when that comes
    # first. Past 2**53, k + i rounds to an even float, so two steps can end
    # at one time and the count must not overshoot the first of them. The
    # kernel, undisturbed or under a zero e2, then takes exactly that many
    # steps
    def reference(n, t_stop):
        i = 0
        while True:
            i += 1
            if i == n or (k + i) * h >= t_stop:
                return i

    segs = [(_step_kernel(TABLEAUS["euler"], 1, ("1.0",), False, None), ()),
            (_step_kernel(TABLEAUS["euler"], 1, ("1.0",), True, None), ([0.0],))]
    # a key in t that never changes value, its switch searched from the
    # first step and from the last: the horizon's count alone ends it
    switches = [functools.partial(_switch_steps, lambda t: 0.0 * t, until) for until in (lambda t: t, lambda t: 1e300)]
    stops = [math.inf, -math.inf, 0.0, k * h, math.nextafter(k * h, math.inf)]
    for q in (1, 2, 3, 10, 97):
        at = (k + q) * h
        stops += [at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf)]
    for t_stop in stops:
        for n in (1, 2, 3, 10, 50, 97, 120):
            want = reference(n, t_stop)
            got = engine._horizon_steps(k, n, h, t_stop)
            assert got == want, (t_stop, n)
            for steps in switches:
                assert (steps(k, h, got) if got > 1 else got) == want, (t_stop, n)
            for seg, e in segs:
                z0 = [0.0]
                assert seg(None, z0, z0, h, got, *e) == ([_euler_timer(h, want)], want), (t_stop, n)


@pytest.mark.parametrize("h", [0.1, 0.3, 1e-3, 2.0])
@pytest.mark.parametrize("k", [0, 7, 10**6, 2**53 - 2])
def test_segment_stops_at_the_key_switch_step_count(h, k):
    # a piecewise-constant e2 counts the steps to its key's next switch
    # (sig.steps), which simulate takes after the horizon's count; each
    # count must be the first i >= 1 whose key differs from step k's, tested
    # step by step, or the horizon's count or n when that comes first. The
    # switches lie about 0.4 h apart (two between steps), h, 3.7 h (not a
    # multiple of h), and q steps or more, and one of them falls at the step
    # time (k + q) * h, give or take the rounding of the length; a length one
    # ulp shorter or longer moves it by about an ulp of that time. The kernel
    # then takes exactly that many steps
    e = 0.25

    def first_end(key, t_stop):
        was = key(k * h)
        return next((i for i in range(1, 121) if (k + i) * h >= t_stop or key((k + i) * h) != was), 121)

    seg = _step_kernel(TABLEAUS["euler"], 1, ("1.0",), True, None)
    for q in (1, 2, 3, 10, 97):
        at = (k + q) * h
        for parts in {max(1, round(at / (c * h))) for c in (0.4, 1.0, 3.7)} | {(k + q) // q}:
            base = at / parts
            for length in (math.nextafter(base, 0.0), base, math.nextafter(base, math.inf)):
                # the keys by definition: the half period the square wave is
                # in, and the hold interval of the uniform draw
                for spec, key in ((DisturbanceSpec.square_wave(1, 1.0, 2.0 * length, [1.0]),
                                   lambda t: math.fmod(t, 2.0 * length) < length),
                                  (DisturbanceSpec.uniform_random(1, 1.0, seed=0, hold=length),
                                   lambda t: math.floor(t / length))):
                    sig = make_signal(spec)
                    for t_stop in (math.inf, (k + 5) * h):
                        first = first_end(key, t_stop)
                        for n in (1, 2, 3, 10, 50, 97, 120):
                            want = min(n, first)
                            got = engine._horizon_steps(k, n, h, t_stop)
                            if got > 1:
                                got = sig.steps(k, h, got)
                            assert got == want, (spec.kind, length, t_stop, n)
                            z0 = [0.0]
                            assert seg(None, z0, z0, h, got, [e]) == ([_euler_timer(h, want, e)], want), (
                                spec.kind, length, t_stop, n)


@pytest.mark.parametrize("kind", ["zero", "constant", "square", "uniform"])
def test_segment_loop_computes_no_time_or_key(kind, monkeypatch):
    # simulate counts the steps to the horizon and to the e2 key's next
    # switch before a segment starts, so no kernel it makes under any e2
    # takes k or t_stop, computes a t or evaluates a key: each takes its
    # step count n and runs it
    m = 3
    sys = hand2(sphere_cost(1), HandParams(t_min=0.5, t_max=1.4, c=1.0))
    specs = dict(_e2_specs(m), zero=DisturbanceSpec(kind="zero", dim=m))
    made = _recording(monkeypatch)
    for name in sorted(TABLEAUS):
        cfg = SolverConfig(h=0.01, t_end=3.0, integrator=name, record_stride=40)
        tr = simulate(sys, np.array([1.0, 0.5, 0.5]), cfg, PerturbationSet(e2=specs[kind]))
        assert tr.meta["replayed_steps"] > 0 or kind == "uniform"
    kernels = [kernel for kernel in made if kernel is not None]
    assert len(kernels) == 2 * len(TABLEAUS)
    for kernel in kernels:
        source, _ = _loop_text(kernel)
        e = "" if kind == "zero" else ", e"
        assert source.startswith(("def seg(F, z, src, h, n%s, t_hi, t_lo, t_max, t_min):" % e,
                                  "def replay(z, h, n, table%s):" % e)), source
        assert not re.search(r"\b(?:t|k|t_stop|fmod|floor|key|until)\b", source), source


@pytest.mark.parametrize("name", sorted(TABLEAUS))
def test_segment_loop_counts_no_steps_and_tests_no_z0(name):
    # the loop is one for loop over its step count, with and without a
    # membership exit: it keeps no counter of its own, makes no finite test,
    # breaks only at a membership exit and returns the steps it took
    m = 3
    sys = hand2(sphere_cost(1), HandParams(t_min=0.5, t_max=1.4, c=1.0))
    for membership in (None, (sys.in_C.condition, sys.in_D.condition)):
        for disturbed in (False, True):
            seg = _step_kernel(TABLEAUS[name], m, sys.F.components, disturbed, membership, sys.F.factors)
            source, loop = _loop_text(seg)
            for text in ("z0 - z0", "i += 1", "while True"):
                assert text not in loop, source
            assert loop.startswith("\n    for i in range(1, n + 1):"), source
            assert loop.count("break") == (membership is not None), source
            assert loop.endswith("\n    return [z0, z1, z2], i\n"), source


def test_square_wave_periods_share_one_kernel(monkeypatch):
    # a square wave's period enters no kernel text, as its switch is counted
    # in simulate: periods 1e4 and 100 (a switch at t = 50) on one system
    # run one segment kernel and one replay kernel
    sys = hand2(sphere_cost(1), HandParams(t_min=0.5, t_max=1.4, c=1.0))
    made = _recording(monkeypatch)
    for period in (1e4, 100.0):
        pert = PerturbationSet(e2=DisturbanceSpec.square_wave(3, 0.05, period, [0.0, 1.0, 0.0]))
        cfg = SolverConfig(h=0.01, t_end=60.0, integrator="euler", record_stride=1000)
        tr = simulate(sys, np.array([1.0, 0.5, 0.5]), cfg, pert)
        assert tr.meta["replayed_steps"] > 0
    names = sorted({kernel.__code__.co_filename for kernel in made})
    assert [name.split()[0] for name in names] == ["<replay", "<seg"], names


def test_timer_windows_share_their_tests_and_kernels(monkeypatch):
    # the timer bounds are arguments, not text: hand1 (with and without
    # t_med) and hand2 on two windows, the second with t_max above 1 and so
    # a wider jump band, share their compiled membership tests, hand1's with
    # hand2's too, and get the same kernel objects from simulate, and their
    # runs match the per-step path's
    f = sphere_cost(1)
    cfg = SolverConfig(h=0.01, t_end=6.0, integrator="rk4", record_stride=40)
    z0 = np.array([1.0, 0.5, 0.5])
    made = _recording(monkeypatch)
    systems, kernels = [], []
    for hand, t_med in ((hand1, 1.1), (hand2, None)):
        a, b = (hand(f, HandParams(t_min=0.5, t_max=0.9, c=4.0)),
                hand(f, HandParams(t_min=0.25, t_max=1.4, c=4.0, t_med=t_med)))
        assert a.in_C.bounds != b.in_C.bounds and a.in_D.bounds != b.in_D.bounds
        for sys in (a, b):
            del made[:]
            tr = simulate(sys, z0, cfg)
            systems.append(sys)
            kernels.append(made[:2])
            _assert_same_trace(tr, simulate(_per_step(sys), z0, cfg))
            assert len(tr.events) > 2 and tr.meta["replayed_steps"] > 0
    first = systems[0]
    for sys in systems[1:]:
        assert sys.in_C.__code__ is first.in_C.__code__ and sys.in_D.__code__ is first.in_D.__code__
    assert None not in kernels[0] and all(x is y for other in kernels[1:] for x, y in zip(kernels[0], other))
    # the kernels take one value per name: tests that give t_max two are refused
    a, b = (hand2(f, HandParams(t_min=0.5, t_max=t_max, c=4.0)) for t_max in (0.9, 1.4))
    with pytest.raises(ValueError, match="bound t_max two values"):
        simulate(dataclasses.replace(a, in_D=b.in_C), z0, cfg)


def test_solver_integrators_are_the_tableaus():
    # SolverConfig validates its integrator against core's names, and
    # simulate indexes TABLEAUS by it: the two list the same names
    assert sorted(core._INTEGRATORS) == sorted(TABLEAUS)


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
    sys = flow_only_system(make_rep2_flow(OdeParams(c=1.0), f), f.dim)
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
    k = tr.events[0]
    assert tr.ts[k] == 0.0 and tr.zs[k - 1, -1] == 2.0
    # one flow step from C overshoots the deadline to tau = 2.003, outside C
    # and off the D slice: the step's provenance puts it in D_h, jump fires next
    tr = simulate(sys, np.array([0.5, 0.5, 1.997]), cfg)
    k = tr.events[0]
    assert tr.ts[k] == pytest.approx(0.006)
    assert tr.zs[k - 1, -1] == pytest.approx(2.003)
    # the same state without flow-step provenance is outside C union D_h
    with pytest.raises(ValueError, match="outside C union D"):
        simulate(sys, np.array([0.5, 0.5, 2.003]), cfg)
    # a flow step that stays inside C does not jump
    tr = simulate(sys, np.array([0.5, 0.5, 1.194]), cfg)
    assert len(tr.events) == 0 and tr.termination == "horizon"
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
    sys = flow_only_system(make_rep2_flow(OdeParams(c=1.0), f), f.dim)
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
    jump_times = tr.ts[tr.events].tolist()
    assert len(jump_times) == 5
    for k, t in enumerate(jump_times):
        assert abs(t - (k + 1.0)) <= cfg.h + 1e-12
    # j increments by one at each event
    assert tr.js[tr.events - 1].tolist() == [0, 1, 2, 3, 4]
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
    assert a.ts[a.events[0]] != c.ts[c.events[0]]


def test_max_jumps_termination():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    cfg = SolverConfig(h=1e-2, t_end=50.0, max_jumps=3)
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), cfg)
    assert tr.termination == "jump_cap"
    assert len(tr.events) == 3


def test_stop_condition_termination():
    f = sphere_cost(1)
    sys = flow_only_system(make_rep2_flow(OdeParams(c=1.0), f), f.dim)

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
    assert np.array_equal(tr.zs[-1], tr.zs[-2])
    assert np.all(np.isfinite(tr.zs))
    assert_recorded(tr)


def test_latest_policy_on_hand1_window():
    # with t_med=2 and t_max=3 the latest policy holds jumps until tau = 3
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", jump_policy="latest", record_stride=200)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    assert len(tr.events) >= 3
    for k in tr.events:
        assert tr.zs[k - 1, -1] == pytest.approx(3.0, abs=cfg.h + 1e-9)
        assert tr.zs[k, -1] == pytest.approx(1.0, abs=1e-12)


def test_earliest_policy_jumps_at_window_entry():
    f = sphere_cost(1)
    sys = hand1(f, HandParams(t_min=1.0, t_max=3.0, c=1.0, t_med=2.0))
    cfg = SolverConfig(h=1e-3, t_end=9.0, integrator="rk4", jump_policy="earliest", record_stride=200)
    tr = simulate(sys, np.array([2.0, 2.0, 1.0]), cfg)
    assert len(tr.events) >= 3
    for k in tr.events:
        assert tr.zs[k - 1, -1] == pytest.approx(2.0, abs=cfg.h + 1e-9)


def test_jump_rows_tagged():
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0))
    tr = simulate(sys, np.array([5.0, 5.0, 1.0]), SolverConfig(h=1e-2, t_end=3.0))
    jump_rows = np.flatnonzero(tr.tags == TAG_JUMP)
    assert np.array_equal(jump_rows, tr.events)
    for k in jump_rows:
        assert tr.zs[k, -1] == pytest.approx(1.0, abs=1e-12)  # post-jump timer


def _without_path_counts(meta):
    return {k: v for k, v in meta.items() if k not in ("replayed_steps", "clock_tables", "copied_steps")}


def _assert_same_trace(a, b):
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.js, b.js)
    assert np.array_equal(a.zs, b.zs)
    assert np.array_equal(a.tags, b.tags)
    assert a.termination == b.termination
    # the replay and copy counts say how the steps were taken, not what they gave
    assert _without_path_counts(a.meta) == _without_path_counts(b.meta)
    # the rows above hold each jump's two states and the fault's state
    assert np.array_equal(a.events, b.events)
    assert a.fault == b.fault


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
    # bit: every jump, record, horizon and disturbance switch lands alike.
    # The horizon spans four restart periods or more, so the hand runs
    # replay clock tables, cut short by record points (every 17 steps) and
    # by square-wave switches (every 35) inside a period; the constant and
    # square e2 have a clock component, which the square wave flips, so a
    # start is flowed at two clock steps d. The ODE forms' clock never
    # repeats a start, and the per-step path replays nothing
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
                cfg = SolverConfig(h=0.01, t_end=5.0, integrator=integrator, jump_policy=policy,
                                   policy_seed=5, record_stride=17)
                fused = simulate(sys, z0, cfg, pert)
                ref = simulate(_per_step(sys), z0, cfg, pert)
                _assert_same_trace(fused, ref)
                assert_recorded(fused)
                assert_recorded(ref)
                assert fused.termination == "horizon"
                assert len(fused.events) == (0 if system.startswith("rep") else len(ref.events))
                assert ref.meta["replayed_steps"] == ref.meta["clock_tables"] == 0
                if system.startswith("rep"):
                    assert fused.meta["replayed_steps"] == fused.meta["clock_tables"] == 0
                else:
                    assert len(fused.events) >= 4
                    if e2 is None or e2.kind != "uniform_random":
                        assert fused.meta["replayed_steps"] > 0 and fused.meta["clock_tables"] >= 2, fused.meta


@pytest.mark.parametrize("integrator", sorted(TABLEAUS))
def test_replayed_clock_tables_follow_d_and_the_cuts(integrator):
    # one hand2 run of 13 periods: a square-wave e2 on the clock alone
    # switches every 43 steps, and records fall every 25 steps, both inside
    # periods. Each switch moves the clock step d between 1.25 h and 0.75 h,
    # and a start replays only the table built at its own d; the segments
    # cut at a record point or a switch replay a slice of a table. A table
    # reused after d changed, or keyed without d, moves a clock value and
    # the trace
    f = sphere_cost(1)
    sys = hand2(f, HandParams(t_min=0.5, t_max=1.4, c=1.0))
    z0 = np.array([1.0, 0.5, 0.5])
    cfg = SolverConfig(h=0.01, t_end=12.0, integrator=integrator, jump_policy="earliest", record_stride=25)
    pert = PerturbationSet(e2=DisturbanceSpec.square_wave(3, 0.25, 0.86, [0.0, 0.0, 1.0]))
    fused = simulate(sys, z0, cfg, pert)
    ref = simulate(_per_step(sys), z0, cfg, pert)
    _assert_same_trace(fused, ref)
    assert len(fused.events) >= 10
    assert 0 < fused.meta["replayed_steps"] < fused.meta["flow_steps"] and fused.meta["clock_tables"] >= 4


@pytest.mark.parametrize("integrator", sorted(TABLEAUS))
@pytest.mark.parametrize("policy", ["earliest", "latest"])
def test_every_period_after_the_first_replays_whole(integrator, policy):
    # with records further apart than a period, each period is one segment
    # from the timer's reset value 0.5, the initial one included: the first
    # runs the segment kernel, the second builds the one table, and it and
    # every later period replay that table to its exit, so every flow step
    # after the first period is replayed. A table a step short or long
    # splits a period into two segments and shows in these counts
    sys = hand2(COUPLED2, HandParams(t_min=0.5, t_max=1.4, c=1.0))
    z0 = np.concatenate([COUPLED2.xstar + 1.0, COUPLED2.xstar, [0.5]])
    cfg = SolverConfig(h=0.01, t_end=6.0, integrator=integrator, jump_policy=policy, record_stride=1000)
    tr = simulate(sys, z0, cfg)
    _assert_same_trace(tr, simulate(_per_step(sys), z0, cfg))
    first = round(tr.ts[tr.events[0]] / cfg.h)
    assert len(tr.events) >= 5 and first == 90
    assert tr.meta["clock_tables"] == 1
    assert tr.meta["replayed_steps"] == tr.meta["flow_steps"] - first


@pytest.mark.parametrize("integrator", sorted(TABLEAUS))
def test_jump_disturbed_clock_starts_build_no_table(integrator):
    # e5 moves each restart's timer start by a sinusoid of the jump time on
    # the clock (and e4 shifts the state the jump map reads), so no segment
    # starts from a clock value an earlier one started from: no table is
    # built, nothing is replayed, and the trace is the per-step path's
    f = sphere_cost(1)
    sys = dataclasses.replace(hand2(f, HandParams(t_min=0.5, t_max=1.4, c=1.0)),
                              in_C=_timer_test("in_C", "0.25{lo} <= {tau} <= 1.4{hi}"))
    cfg = SolverConfig(h=0.01, t_end=8.0, integrator=integrator, record_stride=30)
    pert = PerturbationSet(e4=DisturbanceSpec.constant([0.01, -0.02, 0.0]),
                           e5=DisturbanceSpec.sinusoid(3, 0.2, 1.7, [0.0, 0.0, 1.0]))
    z0 = np.array([1.0, 0.5, 0.5])
    fused = simulate(sys, z0, cfg, pert)
    ref = simulate(_per_step(sys), z0, cfg, pert)
    _assert_same_trace(fused, ref)
    assert len(fused.events) >= 6 and len(set(fused.zs[fused.events, -1].tolist())) == len(fused.events)
    assert fused.meta["replayed_steps"] == fused.meta["clock_tables"] == 0


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
        sys = flow_only_system(make_rep2_flow(OdeParams(c=1.0), f), 1)
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
    assert np.array_equal(fused.zs[-1], ref.zs[-1])


@pytest.mark.parametrize("integrator", sorted(TABLEAUS))
@pytest.mark.parametrize("case", ["raises-after-blowup", "hybrid", "numpy-start", "clock-table"])
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
    elif case == "numpy-start":
        # the first segment divides by zero at tau = 0 and is redone on
        # numpy scalars, whose 1 / (1 + 1 / 0) is 0.0; the segments after it
        # start from numpy scalars, and z[0] overflows a few steps into a
        # later one
        sys = flow_only_system(compile_components("masked", 3, ["{0} * 1e5", "1.0 / (1.0 + 1.0 / {2})", "1.0"]), 1)
        z0 = [1.0, 0.0, -0.5]
        cfg = dataclasses.replace(cfg, record_stride=8)
    else:
        # z[0] grows by a factor of 1.5 to 1.65 per step and overflows some
        # 1,400 to 1,800 steps in, inside one of the hundreds of 6-step
        # periods of timer [0.5, 2.0] that replay the clock table of the
        # start 0.5; the clock reaches the field through a term that is 0.0
        grow = compile_components("grow", 3, ["{0} * 2.0 + 0.0 * {2}", "0.0", "1.0"])
        sys = dataclasses.replace(hand2(f, HandParams(t_min=0.5, t_max=2.0, c=1.0)), F=grow)
        z0 = [1.0, 1.0, 0.5]
        cfg = dataclasses.replace(cfg, t_end=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fused = simulate(sys, np.array(z0), cfg)
        ref = simulate(_per_step(sys), np.array(z0), cfg)
    _assert_same_trace(fused, ref)
    assert fused.termination == "fault" and fused.fault.kind == "blowup"
    assert (fused.fault.t, fused.fault.j) == (ref.fault.t, ref.fault.j)
    assert np.array_equal(fused.zs[-1], ref.zs[-1])
    if t_fault is not None:
        assert (fused.fault.t, fused.meta["flow_steps"]) == (t_fault, t_fault / cfg.h)
    elif case == "numpy-start":
        steps = fused.meta["flow_steps"]
        assert steps > cfg.record_stride and steps % cfg.record_stride > 1
    else:
        assert fused.fault.j > 200 and fused.meta["replayed_steps"] > 1000
        assert ref.meta["replayed_steps"] == 0


def _uncopied(sys, z0, cfg, pert=None):
    """The run under a stop condition that never fires, which keeps every
    period in the loop."""
    tr = simulate(sys, z0, cfg, pert, stop_condition=lambda t, j, z: False)
    assert tr.meta["copied_steps"] == 0
    return tr


def _assert_same_bits(a, b):
    # array_equal holds -0.0 equal to 0.0; the bytes tell them apart
    _assert_same_trace(a, b)
    for name in ("ts", "js", "zs", "tags"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def _settling_hand2(f, integrator="euler", t_end=200.0, max_jumps=10**6, **channels):
    """hand2 from an offset of 1, periods of about 90 steps, records every
    37 steps; under a constant e2 its post-jump state repeats bit for bit
    some 40 time units in."""
    m = 2 * f.dim + 1
    sys = hand2(f, HandParams(t_min=0.5, t_max=1.4, c=1.0))
    z0 = np.concatenate([f.xstar + 1.0, f.xstar, [0.5]])
    cfg = SolverConfig(h=0.01, t_end=t_end, integrator=integrator, record_stride=37, max_jumps=max_jumps)
    channels.setdefault("e2", DisturbanceSpec.constant([0.01] * m))
    return sys, z0, cfg, PerturbationSet(**channels)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("f", [sphere_cost(1), COUPLED2], ids=["dim1", "dim2"])
@pytest.mark.parametrize("case", ["constant", "square", "jump_cap"])
def test_copied_periods_equal_the_loop_run(case, f, integrator):
    # once the post-jump state repeats, simulate copies whole periods, and
    # the trace is the loop's bit for bit. The horizon (20,000 steps) falls
    # inside a period; the square wave on x2 switches every 60 time units,
    # some 66 periods, so each copy stops short of a switch and copying
    # resumes once the run settles at the other sign; a budget of 100 jumps
    # ends the copies before the horizon
    m = 2 * f.dim + 1
    kwargs = {}
    if case == "square":
        axis = np.eye(m)[f.dim]
        kwargs["e2"] = DisturbanceSpec.square_wave(m, 0.01, 120.0, axis)
    elif case == "jump_cap":
        kwargs["max_jumps"] = 100
    sys, z0, cfg, pert = _settling_hand2(f, integrator, **kwargs)
    tr = simulate(sys, z0, cfg, pert)
    _assert_same_bits(tr, _uncopied(sys, z0, cfg, pert))
    assert tr.termination == ("jump_cap" if case == "jump_cap" else "horizon")
    assert 0 < tr.meta["copied_steps"] < tr.meta["flow_steps"]
    if case == "square":
        # more is copied than up to the first switch
        first = simulate(sys, z0, dataclasses.replace(cfg, t_end=60.0), pert)
        assert tr.meta["copied_steps"] > first.meta["copied_steps"]


@pytest.mark.parametrize("case", ["uniform", "e1", "e4", "sinusoid", "stop"])
def test_periods_are_copied_only_where_the_state_fixes_the_future(case):
    # the constant-e2 run above copies; a uniform draw, an e1 or e4
    # channel, an e2 that is not piecewise-constant and a stop condition
    # each keep every period in the loop
    f = sphere_cost(1)
    kwargs = {}
    if case == "e1":
        kwargs["e1"] = DisturbanceSpec.constant([1e-3, 0.0, 0.0])
    elif case == "e4":
        kwargs["e4"] = DisturbanceSpec.constant([1e-3, 0.0, 0.0])
    elif case == "sinusoid":
        kwargs["e2"] = DisturbanceSpec.sinusoid(3, 0.01, 1e4, [0.0, 1.0, 0.0])
    sys, z0, cfg, pert = _settling_hand2(f, **kwargs)
    if case == "uniform":
        cfg = dataclasses.replace(cfg, jump_policy="uniform")
    if case == "stop":
        tr = simulate(sys, z0, cfg, pert, stop_condition=lambda t, j, z: t > 150.0)
        assert tr.termination == "condition"
    else:
        tr = simulate(sys, z0, cfg, pert)
        assert tr.termination == "horizon"
    assert len(tr.events) > 100 and tr.meta["copied_steps"] == 0


def test_post_jump_states_are_keyed_by_their_bits():
    # x1 and x2 hold their bits over a flow, and the jump sets x1 to x2 *
    # -0.0: the post-jump states are [0.0, 2, 0.5] once and then
    # [-0.0, 2, 0.5] at every jump, equal as floats from the first. Keyed
    # by bits, the first repeat is the third jump, and no whole period fits
    # before the horizon, half a period on: a key of float values would
    # copy the first period's +0.0 rows there. Over a longer horizon the
    # periods copied are the -0.0 ones
    still = compile_components("still", 3, ["{0} * 0.0", "{1} * 0.0", "1.0"])
    sys = dataclasses.replace(hand2(sphere_cost(1), HandParams(t_min=0.5, t_max=1.4, c=1.0)), F=still,
                              G=lambda z: [z[1] * -0.0, 2.0, 0.5])
    z0 = np.array([0.0, -1.0, 0.5])
    for t_end, copied in ((3.15, False), (30.0, True)):
        cfg = SolverConfig(h=0.01, t_end=t_end, record_stride=37)
        tr = simulate(sys, z0, cfg)
        _assert_same_bits(tr, _uncopied(sys, z0, cfg))
        assert np.signbit(tr.zs[tr.events, 0]).tolist() == [False] + [True] * (len(tr.events) - 1)
        assert (tr.meta["copied_steps"] > 0) == copied


def test_instability_workload_copies_its_settled_hand2_periods(tmp_path, monkeypatch):
    # the instability scenario at h 0.04 and hand_t_end 3000: hand2's
    # post-jump state after its 36th jump of 675 equals the one before it,
    # and so does every later one, so 70,929 of its 75,000 flow steps are
    # copied; the two ODE forms stop on their escape condition and copy none
    monkeypatch.setenv("HAND_SIM_THREADS", "1")
    metas = []

    def recording(*args, **kwargs):
        tr = simulate(*args, **kwargs)
        metas.append(tr.meta)
        return tr

    monkeypatch.setattr(scenarios, "simulate", recording)
    cfg = load_config(os.path.join(CONFIGS, "instability.json"))
    cfg = apply_override(apply_override(cfg, "solver.h", 0.04), "params.hand_t_end", 3000.0)
    assert run_scenario(cfg, out_dir=str(tmp_path), quiet=True) == 0
    assert sorted((m["kind"], m["flow_steps"], m["copied_steps"]) for m in metas) == [
        ("hand2", 75000, 70929), ("ode-rep1", 70000, 0), ("ode-rep2", 71000, 0)]


def test_generated_code_shows_in_tracebacks():
    # a generated segment registers its source, so a traceback from inside
    # it names the line that raised
    f = sphere_cost(1)
    F = make_rep2_flow(OdeParams(c=1.0), f)
    seg = _step_kernel(TABLEAUS["euler"], 3, F.components, False, None, F.factors)
    with pytest.raises(ZeroDivisionError) as info:
        seg(F, [1.0, 2.0, 0.0], [1.0, 2.0, 0.0], 0.1, 1)
    text = "".join(traceback.format_tb(info.tb))
    assert "k0_0 = 2.0 / s2 * (s1 - s0)" in text
    code = seg.__code__
    assert linecache.getline(code.co_filename, code.co_firstlineno).startswith("def seg(F, z, src, h, n)")
    assert linecache.getline(F.__code__.co_filename, 2).strip().startswith("return [(2.0 / x[2]) * (x[1] - x[0])")
