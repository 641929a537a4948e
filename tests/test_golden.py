"""Artifacts and engine runs pinned to recorded sha256 digests.

Reruns being identical (acceptance criterion 10) does not show that a change
to the engine kept its numbers. The artifact digests were recorded from the
numpy engine that preceded the float stepper (Python 3.11.7, numpy 2.4.6,
x86-64 Linux); a last-bit change anywhere in a trajectory changes a CSV cell
and fails this test. The configs are the bundled ones shrunk by overrides so
each run takes well under a second. The robustness-margin digests were
recorded later, from the per-row distance evaluation that preceded the
row-wise certificate columns (same platform). The hand1-rate traces of the
2-d costs were recorded again when core.row_dot began to sum its products
column by column instead of by BLAS ddot: only their f_gap and V cells moved.
The restart-sweep digests were recorded again when its runs began to end at
their certified settling: only sweep.csv's jumps column and the summary's
new settling records moved. The uniformity-probe digests (three start
times) come from that change too; before it, probe_hand1.csv was b511d6e7,
probe_ode.csv 7d264140 and summary.json 0e967c63, which differ only in the
termination reason and the settling records. The discretization-order
digests (a shrunk step grid and horizon) were recorded before that change,
which left them alone. The hand1-rate summary.json was recorded again when
the params.check_t_form config key was removed: before it, it was 91a3c5df,
which differs only in that key of the config echo. The summary.json of the
other six scenarios was recorded again when the config keys no run read
were removed and uniformity-probe's params.x_offset became params.x0: each
differs from the one before (discretization-order 0a07264b, hand2-rate
544471dc, instability 7ce08ec4, restart-sweep 7207c7d2, robustness-margin
ef8b68b8, uniformity-probe 56d35593) only in the config echo.

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
    "uniformity-probe": {"params.t0_values": [1.0, 10.0, 100.0]},
    "discretization-order": {"params.k_min": 4, "params.k_max": 7, "params.ref_factor": 8, "solver.t_end": 20.0},
}

DIGESTS = {
    "hand1-rate": {
        "plot.gp": "a04ecb3ebc82f1390e9433c8f908789cafab5ac460f0dce107c4dd3194c13659",
        "summary.json": "cc448acc408ddf2e8fafb091c9fc84d24807f0674ff9f9a851637d926af4739a",
        "trace_aniso2.csv": "cb660c6b6360a964adc8ca4fe792b09e39b58fda8ba369c776ee0d4fffd2fe63",
        "trace_coupled2.csv": "5556c804bb8ba6d93ecbeeb746dab13a81bbc1e63f72996817592094d6791707",
        "trace_example1.csv": "618911b0c0ec19630d0556fcf7485c6459d5715493d05ae3fee86396ae363443",
        "trace_sphere1.csv": "acba708235fc91f40cad5cb8a800a5fca82b9ce51e127c1d39cb72b267895095",
        "trace_sphere2.csv": "07fdd567e980a12916fde9f62c57fe9950a551e05344a8b542a05b1b4732f79c",
    },
    "instability": {
        "plot.gp": "0c2817efa753cf4ae12a934dcd8bab551114fc38d6c38d0958afbc59d2371a62",
        "summary.json": "f4981abc6304c33eb44209700f37e6a768296461b7af3a1c21ce229c4ca43a99",
        "trace_hand2.csv": "e2a2683ed338568c0e6693d2b56199ea451458c55605f62c1dba2b188cc28a95",
        "trace_rep1.csv": "af699699b5c8be164cdd29851126ae907ff32774e0364b617eb2e40488138aeb",
        "trace_rep2.csv": "b66e1136ce5cde149fb47377f28caa940751a3b13f1712f832d50308f89de28a",
    },
    "restart-sweep": {
        "plot.gp": "eabad3ec6665687a2d2ea05da7633acaec8fdd6cdaf0a0d2e6871d40bd503501",
        "summary.json": "88d742e28b1eb2407fb7388d5f35974adccda5182f5e1d1362eed39c6b86680e",
        "sweep.csv": "19f36d386867f2db6f45f98890a1f2f603b8474bdcb670b2c1fdd8439e68e75d",
    },
    "hand2-rate": {
        "plot.gp": "4dedd59e7d9ebd509c0d75f1b1effb67d79dc3be9ecdc30260771dc27730e2c4",
        "summary.json": "4c3ff120cbcd382174c4db48a0e777762e544c27930ef007fd41604f19c4a680",
        "trace.csv": "c5d72a91d3962f29fdfb91684e81b42765679bb98a3f11d4be2ee2982d166ecb",
    },
    "robustness-margin": {
        "bisection.csv": "10bf5f5ef7bed45fea33086113f204fbc12ee2e52412d5f61519b94b5838cf48",
        "plot.gp": "7751f5bed3719aa2905e8d0b147ef88be086c8b21e877439ee64727a2f41de0a",
        "summary.json": "03f2ab9894983aa99577e36f776f2c6243090f583b988e5c8baa984a412cfe79",
    },
    "uniformity-probe": {
        "limiting_integral.csv": "7d237a192964207dc883c39d74ebe0280c6be82c1de14a171996d3a36436dbf8",
        "plot.gp": "9aeb317d6587352a8bb209a3d0f507db0d8ea9dfccc0ef101b25b40d956e4bb0",
        "probe_hand1.csv": "c7415668fd22af8eb88f35afb0e09ddf26626dbc84304ada94a0866ea9b2194f",
        "probe_ode.csv": "43297559f1541b42d707741ba6edbd45bbcbf51f32dcbd62becb4e7f9496b617",
        "summary.json": "f8f20ea51faaa70a01b962adfd2e053c0a15a4c3c26fb6ec8d4896b2b5e8c13f",
    },
    "discretization-order": {
        "orders.csv": "42ff809d24c1af9b5ac30ebfd47f3807a29cf8c25578204ab8f33fb10bc91283",
        "plot.gp": "d4824ae70f1f4927624e9188f430bf5e3a4934b4c9d1c70e0d18c9767fae54e1",
        "stability.csv": "dd56ee90cb13d69c979f15076930b0819c60ac0551f05dea39dae6a5c4b05afc",
        "summary.json": "b36a03821bf6cc81561ca46c6081bc21bd29a7671e2e28b79d8505ac1db00241",
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
    # each jump as its time, its pre-jump j and its two states, and the
    # fault with its state, all read from the rows: GRID_DIGEST hashes them
    # in this layout
    for k in tr.events:
        parts += [_pack(tr.ts[k]), str(tr.js[k - 1]).encode(), tr.zs[k - 1].tobytes(), tr.zs[k].tobytes()]
    if tr.fault is not None:
        parts += [_pack(tr.fault.t), str(tr.fault.j).encode(), tr.fault.kind.encode(), tr.fault.detail.encode(),
                  tr.zs[-1].tobytes()]
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
