"""Tests of the benchmark's own tracing, on a shortened config.

Run from the repository root: python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import Tracer  # noqa: E402

handsim = run.import_handsim()
from handsim.scenarios import apply_override, load_config  # noqa: E402

# hand1 with jump window [1.5, 2] and the `latest` policy: every jump is
# decided by a lookahead step that is then thrown away
SHORT_HAND1 = {
    "cost": "sphere1",
    "hand.t_max": 2.0,
    "hand.t_med": 1.5,
    "solver.t_end": 5.0,
    "solver.h": 0.01,
    "solver.max_jumps": 10,
}


def short_config(path="configs/hand1-rate.json", overrides=SHORT_HAND1):
    config = load_config(os.path.join(run.ROOT, path))
    for key, value in overrides.items():
        config = apply_override(config, key, value)
    return config


def traced_counts(config, out_dir, fine):
    with Tracer(fine=fine) as tracer:
        handsim.scenarios.run_scenario(config, out_dir=str(out_dir), quiet=True)
    return dict(tracer.counts)


@pytest.mark.parametrize("path, overrides, stages", [
    ("configs/hand1-rate.json", SHORT_HAND1, 4),
    ("configs/instability.json", {"solver.h": 0.04, "params.hand_t_end": 50.0}, 1),
])
def test_flow_calls_are_stages_times_steps_and_trials(tmp_path, path, overrides, stages):
    counts = traced_counts(short_config(path, overrides), tmp_path, fine=True)
    assert counts["flow_steps"] > 0
    assert counts["flow_calls"] == stages * (counts["flow_steps"] + counts["trials_discarded"])


def test_discarded_trials_are_the_lookaheads_that_jumped(tmp_path):
    counts = traced_counts(short_config(), tmp_path, fine=True)
    assert counts["jumps"] > 0
    assert counts["jump_calls"] == counts["jumps"]
    assert counts["trials_discarded"] == counts["jumps"]


def test_recorded_rows_match_the_trace():
    from handsim.core import corpus
    from handsim.hands import HandParams, hand2

    f = corpus()["sphere1"]
    params = HandParams(t_min=1.0, t_max=2.0, c=1.0)
    z0 = [f.xstar[0] + 1.0, f.xstar[0] + 1.0, params.t_min]
    cfg = handsim.SolverConfig(h=0.01, t_end=6.0, integrator="rk4", record_stride=7)
    with Tracer(fine=True) as tracer:
        trace = handsim.scenarios.simulate(hand2(f, params), z0, cfg)
    assert tracer.counts["rows_recorded"] == len(trace.ts)
    assert tracer.counts["flow_steps"] == trace.meta["flow_steps"]
    assert tracer.counts["jumps"] == len(trace.events) > 0


def test_coarse_and_fine_counts_agree_and_rows_written_match_files(tmp_path):
    config = short_config()
    coarse = traced_counts(config, tmp_path / "coarse", fine=False)
    fine = traced_counts(config, tmp_path / "fine", fine=True)
    assert {k: fine[k] for k in coarse} == coarse
    with open(tmp_path / "coarse" / "trace_sphere1.csv", "rb") as fh:
        assert coarse["rows_written"] == fh.read().count(b"\n") - 1 == coarse["rows_recorded"]


def _public_attributes():
    import handsim.analysis
    import handsim.cli
    import handsim.engine

    mods = (handsim.scenarios, handsim.analysis, handsim.cli, handsim.engine)
    return {(m.__name__, name): value for m in mods for name, value in vars(m).items()}


def test_every_wrapped_attribute_is_restored(tmp_path):
    before = _public_attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer(fine=True):
            assert _public_attributes() != before
            handsim.scenarios.run_scenario(short_config(), out_dir=str(tmp_path), quiet=True)
            1 / 0
    after = _public_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hand1-rate", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
