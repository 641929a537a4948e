"""What every trace that simulate records keeps: the hybrid-time rule that
hand-sim check runs, and the engine's own recording properties."""

import numpy as np

from handsim.core import TAG_FAULT, TAG_JUMP, hybrid_time_fault


def assert_recorded(tr, rel_tol=1e-9):
    """Assert that tr keeps core.hybrid_time_fault's rule, with its jump and
    fault tags as the masks, and that it records as the engine does: finite
    states, flow strides of whole numbers of steps h, equal strides within a
    j-segment but for its last one, and jump records of matching shapes."""
    assert len(tr) > 0, "empty trace"
    assert hybrid_time_fault(tr.ts, tr.js, tr.tags == TAG_JUMP, tr.tags == TAG_FAULT) is None
    assert np.all(np.isfinite(tr.zs)), "recorded state has non-finite coordinates"
    h = tr.meta.get("h")
    if h is not None:
        ts, js = tr.ts, tr.js
        # a fault row written at its predecessor's time closes no stride
        if len(ts) > 1 and tr.tags[-1] == TAG_FAULT and ts[-1] == ts[-2]:
            ts, js = ts[:-1], js[:-1]
        steps = np.diff(ts)[np.diff(js) == 0] / h
        assert np.all(np.abs(steps - np.round(steps)) <= rel_tol * np.maximum(1.0, steps)), \
            "a flow stride is not a whole number of steps h=%g" % h
        for k, seg in enumerate(np.split(ts, np.flatnonzero(np.diff(js)) + 1)):
            dts = np.diff(seg)
            assert len(dts) <= 2 or np.allclose(dts[:-1], dts[0], rtol=1e-9, atol=1e-12), \
                "unequal recording stride inside flow segment %d" % k
    for rec in tr.events:
        assert rec.z_pre.shape == rec.z_post.shape, "jump record shapes disagree"
