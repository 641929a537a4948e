"""Artifacts pinned to recorded sha256 digests.

Reruns being identical (acceptance criterion 10) does not show that a change
to the engine kept its numbers. These digests were recorded from the numpy
engine that preceded the float stepper (Python 3.11.7, numpy 2.4.6, x86-64
Linux); a last-bit change anywhere in a trajectory changes a CSV cell and
fails this test. The configs are the bundled ones shrunk by overrides so the
four runs take about two seconds.
"""

import hashlib
import os

import pytest

from handsim.scenarios import apply_override, load_config, run_scenario

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

OVERRIDES = {
    "hand1-rate": {"solver.h": 0.01},
    "instability": {"solver.h": 0.04, "params.hand_t_end": 3000.0},
    "restart-sweep": {"solver.h": 0.02},
    "hand2-rate": {"solver.h": 0.01},
}

DIGESTS = {
    "hand1-rate": {
        "plot.gp": "a04ecb3ebc82f1390e9433c8f908789cafab5ac460f0dce107c4dd3194c13659",
        "summary.json": "91a3c5df4d73d61e3e8373a140a37ecc0fa3e8db42f9f00d28bd6947c8df4d36",
        "trace_aniso2.csv": "3568ca4e4e6a5003f8fe671980c4c7ac574ed345b3a8ffdca1e4c6ac844afd6e",
        "trace_coupled2.csv": "7c2a1d1b2ea4bda47959cdee6f957bc3bd40cf2f4e1ca438a39d19fe6e37bdbe",
        "trace_example1.csv": "618911b0c0ec19630d0556fcf7485c6459d5715493d05ae3fee86396ae363443",
        "trace_sphere1.csv": "acba708235fc91f40cad5cb8a800a5fca82b9ce51e127c1d39cb72b267895095",
        "trace_sphere2.csv": "a801b34507862692282644e2ae700f737a687c80c5fe230fb4c27b6e98bec5bc",
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
