"""Artifacts and engine runs pinned to recorded sha256 digests.

Reruns being identical (acceptance criterion 10) does not show that a change
to the engine kept its numbers. The artifact digests were recorded from the
numpy engine that preceded the float stepper (Python 3.11.7, numpy 2.4.6,
x86-64 Linux); a last-bit change anywhere in a trajectory changes a CSV cell
and fails this test. The configs are the bundled ones shrunk by overrides so
the five runs take about four seconds. The robustness-margin digests were
recorded later, from the per-row distance evaluation that preceded the
row-wise certificate columns (same platform). The hand1-rate traces of the
2-d costs were recorded again when core.row_dot began to sum its products
column by column instead of by BLAS ddot: only their f_gap and V cells moved.

The engine cross-check grid below pins the engine paths the shrunk configs
may leave out: every integrator and jump policy, a square wave on each of
the six disturbance channels, the three flow fields in dimensions 1 and 2,
hand1 and hand2 runs from shifted initial states, and the runs whose float
step falls back to numpy scalars. Its digest was recorded from the
stage-loop Runge-Kutta step that preceded the generated step kernels (same
platform as above), when the shifted runs stepped as one lockstep batch
(the "batch" labels); single runs reproduce it bit for bit.
"""

import dataclasses
import hashlib
import os
import struct
import warnings

import numpy as np
import pytest

from handsim import (
    DisturbanceSpec,
    HandParams,
    OdeParams,
    PerturbationSet,
    SolverConfig,
    hand1,
    hand2,
    make_quadratic,
    simulate,
    sphere_cost,
)
from handsim.dynamics import make_rep1_flow, make_rep2_flow
from handsim.engine import flow_only_system
from handsim.scenarios import apply_override, load_config, run_scenario

from trace_checks import assert_recorded

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

OVERRIDES = {
    "hand1-rate": {"solver.h": 0.01},
    "instability": {"solver.h": 0.04, "params.hand_t_end": 3000.0},
    "restart-sweep": {"solver.h": 0.02},
    "hand2-rate": {"solver.h": 0.01},
    "robustness-margin": {"solver.h": 0.02, "params.bisect_steps": 2},
}

DIGESTS = {
    "hand1-rate": {
        "plot.gp": "a04ecb3ebc82f1390e9433c8f908789cafab5ac460f0dce107c4dd3194c13659",
        "summary.json": "91a3c5df4d73d61e3e8373a140a37ecc0fa3e8db42f9f00d28bd6947c8df4d36",
        "trace_aniso2.csv": "cb660c6b6360a964adc8ca4fe792b09e39b58fda8ba369c776ee0d4fffd2fe63",
        "trace_coupled2.csv": "5556c804bb8ba6d93ecbeeb746dab13a81bbc1e63f72996817592094d6791707",
        "trace_example1.csv": "618911b0c0ec19630d0556fcf7485c6459d5715493d05ae3fee86396ae363443",
        "trace_sphere1.csv": "acba708235fc91f40cad5cb8a800a5fca82b9ce51e127c1d39cb72b267895095",
        "trace_sphere2.csv": "07fdd567e980a12916fde9f62c57fe9950a551e05344a8b542a05b1b4732f79c",
    },
    "instability": {
        "plot.gp": "0c2817efa753cf4ae12a934dcd8bab551114fc38d6c38d0958afbc59d2371a62",
        "summary.json": "7ce08ec49cf4aae76e54b1863bb7ab62e77ef20f6c567593cf7b16fe3552fd93",
        "trace_hand2.csv": "e2a2683ed338568c0e6693d2b56199ea451458c55605f62c1dba2b188cc28a95",
        "trace_rep1.csv": "af699699b5c8be164cdd29851126ae907ff32774e0364b617eb2e40488138aeb",
        "trace_rep2.csv": "b66e1136ce5cde149fb47377f28caa940751a3b13f1712f832d50308f89de28a",
    },
    "restart-sweep": {
        "plot.gp": "eabad3ec6665687a2d2ea05da7633acaec8fdd6cdaf0a0d2e6871d40bd503501",
        "summary.json": "8078af6dcb07313134cd04b1ffe32f629237f745494cd4bb9e9f4f94d354cd0f",
        "sweep.csv": "70474aac48fe8df0e151c0fe5c14ea0a22c35060d3fb302b566614bbc644aad5",
    },
    "hand2-rate": {
        "plot.gp": "4dedd59e7d9ebd509c0d75f1b1effb67d79dc3be9ecdc30260771dc27730e2c4",
        "summary.json": "544471dc552b014ff3fa968efa2ae543f264fc2b5b8636b8f97ac3f31bce8e79",
        "trace.csv": "c5d72a91d3962f29fdfb91684e81b42765679bb98a3f11d4be2ee2982d166ecb",
    },
    "robustness-margin": {
        "bisection.csv": "10bf5f5ef7bed45fea33086113f204fbc12ee2e52412d5f61519b94b5838cf48",
        "plot.gp": "7751f5bed3719aa2905e8d0b147ef88be086c8b21e877439ee64727a2f41de0a",
        "summary.json": "ef8b68b84debbe457db6dfb1b583d1f922705cc29e9bdd8408c10902b59fbef3",
    },
}


@pytest.mark.parametrize("scenario", sorted(OVERRIDES))
def test_artifacts_match_recorded_digests(scenario, tmp_path):
    config = load_config(os.path.join(CONFIGS, scenario + ".json"))
    for key, value in OVERRIDES[scenario].items():
        config = apply_override(config, key, value)
    assert run_scenario(config, out_dir=str(tmp_path), quiet=True) == 0
    digests = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == DIGESTS[scenario]


INTEGRATORS = ("euler", "heun", "midpoint", "rk4")
POLICIES = ("earliest", "latest", "uniform")
CHANNELS = ("e1", "e2", "e3", "e4", "e5", "e6")


def _grid_runs():
    """Yield (label, Trace) for every run of the engine cross-check grid."""
    hp = HandParams(t_min=0.5, t_max=1.5, c=1.0, t_med=1.0)
    hp2 = HandParams(t_min=0.5, t_max=1.5, c=1.0)
    costs = (sphere_cost(1), make_quadratic([[1.3, 0.2], [0.2, 0.7]], [0.1, -0.3], name="q2"))
    for f in costs:
        m = 2 * f.dim + 1
        x = f.xstar + 1.0
        z0 = np.concatenate([x, x - 0.5, [0.5]])
        shift = np.concatenate([np.full(2 * f.dim, 0.25), [0.0]])
        axis = np.full(m, 1.0 / np.sqrt(m))
        wave = DisturbanceSpec.square_wave(m, 0.02, 0.3, axis)
        shifted = ((hand1(f, hp), z0), (hand2(f, hp2), z0 + shift),
                   (hand1(f, dataclasses.replace(hp, t_max=2.0)), z0 - shift))
        for integrator in INTEGRATORS:
            cfg = SolverConfig(h=0.01, t_end=4.0, max_jumps=6, integrator=integrator, policy_seed=7,
                               record_stride=3)
            for policy in POLICIES:
                pcfg = dataclasses.replace(cfg, jump_policy=policy)
                label = "%s/%s/%s" % (f.name, integrator, policy)
                yield label + "/hand1", simulate(hand1(f, hp), z0, pcfg)
                for k, (sys, zk) in enumerate(shifted):
                    yield label + "/batch%d" % k, simulate(sys, zk, pcfg)
            for ch in CHANNELS:
                pert = PerturbationSet(**{ch: wave})
                yield "%s/%s/hand2/%s" % (f.name, integrator, ch), simulate(hand2(f, hp2), z0, cfg, pert)
            for rep in (make_rep1_flow, make_rep2_flow):
                sys = flow_only_system(rep(OdeParams(p=3.0), f), f.dim)
                zr = np.concatenate([x, x, [1.0]])
                label = "%s/%s/%s" % (f.name, integrator, rep.__name__)
                yield label, simulate(sys, zr, cfg)
                yield label + "/e1e2", simulate(sys, zr, cfg, PerturbationSet(e1=wave, e2=wave))
    # the runs whose float step raises and is redone on numpy scalars
    f = sphere_cost(1)
    repros = (
        (hand2(f, HandParams(t_min=1.0, t_max=2.0, c=1.0)), [1.0, 1.0, 1.0],
         PerturbationSet(e1=DisturbanceSpec.constant([0.0, 0.0, -1.0]))),
        (flow_only_system(make_rep1_flow(OdeParams(p=2.5), f), 1), [1.0, 0.0, 1.0],
         PerturbationSet(e1=DisturbanceSpec.constant([0.0, 0.0, -3.0]))),
        (flow_only_system(make_rep1_flow(OdeParams(p=4.0, t0=1e200), f), 1), [1.0, 0.0, 1e200], None),
    )
    for integrator in INTEGRATORS:
        cfg = SolverConfig(h=0.01, t_end=1.0, integrator=integrator, record_stride=10)
        for k, (sys, z0, pert) in enumerate(repros):
            yield "fallback%d/%s" % (k, integrator), simulate(sys, np.array(z0), cfg, pert)


def _pack(*values):
    return struct.pack("<%dd" % len(values), *values)


def _trace_bytes(tr):
    parts = [tr.ts.tobytes(), tr.js.tobytes(), np.ascontiguousarray(tr.zs).tobytes(), tr.tags.tobytes(),
             tr.termination.encode()]
    for ev in tr.events:
        parts += [_pack(ev.t), str(ev.j_pre).encode(), np.asarray(ev.z_pre, dtype=float).tobytes(),
                  np.asarray(ev.z_post, dtype=float).tobytes()]
    if tr.fault is not None:
        parts += [_pack(tr.fault.t), str(tr.fault.j).encode(), tr.fault.kind.encode(), tr.fault.detail.encode(),
                  np.asarray(tr.fault.z_last, dtype=float).tobytes()]
    return b"|".join(parts)


GRID_DIGEST = "257bc4ad3bbef5a4d9e8b357217c8cfb75926b8ff7c33ecd53ff18c9f090bbdf"


def test_engine_grid_matches_recorded_digest():
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for label, tr in _grid_runs():
            digest.update(label.encode() + b"\n" + _trace_bytes(tr) + b"\n")
            # every run, its escaped faults too, keeps the hybrid-time rule
            assert_recorded(tr)
    assert digest.hexdigest() == GRID_DIGEST
