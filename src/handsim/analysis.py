"""Runtime certificates for restarting runs: the timer-weighted energy
function, its monotonicity along trajectories, the quadratic and exponential
decay bounds, restart-period design, and the non-uniformity probes for the
time-varying ODE.

All checks run on recorded traces and return RateReport rather than raising:
a violated bound is a result, not an error. Errors are reserved for checks
applied to runs whose preconditions (initial conditions, metadata, convexity
constants) do not match the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .core import TAG_FAULT, CostFunction, HybridTime, SolverConfig, Trace
from .dynamics import OdeParams, make_rep1_flow, make_rep2_flow
from .engine import flow_only_system, simulate
from .hands import HandParams, hand1, validate_dwell

__all__ = [
    "RateReport",
    "lyapunov",
    "lyapunov_curve",
    "flow_derivative",
    "jump_decrease_hand1",
    "jump_decrease_hand2",
    "check_monotonicity",
    "beta_constant",
    "check_inverse_square_rate",
    "k0_constant",
    "k1_constant",
    "check_exponential_rate",
    "check_period_contraction",
    "optimal_restart",
    "convergence_time_estimate",
    "time_to_epsilon",
    "uniformity_probe",
    "hand1_phase_probe",
]


@dataclass
class RateReport:
    """Outcome of a bound check over a trace.

    The margin of a checked sample is bound + tolerance - value (signed;
    negative means violated), worst_margin is their minimum, and the check is
    satisfied iff no margin is negative. A sample whose margin is not finite
    (nan or infinite data) is a violation and makes worst_margin nan.
    bound_curve keeps the bound at each checked sample (the energy curve for
    the monotonicity check).
    """

    label: str
    satisfied: bool
    worst_margin: float
    tolerance: float = 0.0
    violation_times: List[HybridTime] = field(default_factory=list)
    bound_curve: np.ndarray = field(default_factory=lambda: np.empty(0))
    checked: int = 0
    detail: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        return {
            "label": self.label,
            "satisfied": bool(self.satisfied),
            "worst_margin": float(self.worst_margin),
            "tolerance": float(self.tolerance),
            "checked": int(self.checked),
            "violations": [[float(t), int(j)] for (t, j) in self.violation_times[:32]],
            "detail": self.detail,
        }


def _scan(margins: Iterable[float]) -> Tuple[float, List[int]]:
    """Worst margin and the indices of violating samples. A margin that is
    negative or not finite is a violation; a non-finite one makes the worst
    margin nan, so garbage never reads as a pass. inf when margins is empty."""
    worst = math.inf
    bad = []
    for i, margin in enumerate(margins):
        if math.isfinite(margin):
            if margin < worst:
                worst = margin
            if margin >= 0.0:
                continue
        else:
            worst = math.nan
        bad.append(i)
    return worst, bad


def _inverse_square_bound(beta: float, tau: float) -> float:
    """Quadratic-decay bound beta / tau^2; nan (a violation) for tau <= 0."""
    return beta / (tau * tau) if tau > 0.0 else math.nan


def _exponential_bound(k_a: float, k_b: float, d_t: float, r0sq: float, s: float) -> float:
    """Exponential-decay bound k_a exp(-k_b alpha(s)) r0sq at s = t + j, with
    alpha(s) = max(s - dT, 0) / (dT + 1)."""
    alpha = max(s - d_t, 0.0) / (d_t + 1.0)
    return k_a * math.exp(-k_b * alpha) * r0sq


def _require_minimizer(f: CostFunction):
    if f.xstar is None or f.fstar is None:
        raise ValueError("cost %r needs xstar and fstar for certificate checks" % f.name)


def lyapunov(z, f: CostFunction, c: float) -> float:
    """Timer-weighted energy 0.5 |x2 - xstar|^2 + c tau^2 (f(x1) - fstar)."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    n = f.dim
    x1 = z[:n]
    x2 = z[n : 2 * n]
    tau = float(z[-1])
    return 0.5 * float(np.sum((x2 - f.xstar) ** 2)) + c * tau * tau * f.gap(x1)


def lyapunov_curve(trace: Trace, f: CostFunction, c: float) -> np.ndarray:
    """Energy at every recorded point (fault rows get nan)."""
    _require_minimizer(f)
    n = trace.dim
    out = np.empty(len(trace))
    for k in range(len(trace)):
        if trace.tags[k] == TAG_FAULT:
            out[k] = math.nan
            continue
        out[k] = lyapunov(trace.zs[k], f, c)
    return out


def flow_derivative(z, f: CostFunction, c: float) -> float:
    """Energy derivative along the restarting flow:
    -2 c tau (grad f(x1)' (x1 - xstar) - (f(x1) - fstar)), <= 0 for convex f."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    n = f.dim
    x1 = z[:n]
    tau = float(z[-1])
    g = np.asarray(f.gradient(x1), dtype=float)
    return -2.0 * c * tau * (float(g.dot(x1 - f.xstar)) - f.gap(x1))


def jump_decrease_hand1(z, f: CostFunction, params: HandParams) -> float:
    """Closed-form energy change of a timer-reset jump:
    -c (f(x1) - fstar) (tau^2 - t_min^2)."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    tau = float(z[-1])
    return -params.c * f.gap(z[: f.dim]) * (tau * tau - params.t_min**2)


def jump_decrease_hand2(z, f: CostFunction, params: HandParams) -> float:
    """Closed-form energy change of a momentum-reset jump:
    0.5 |x1 - xstar|^2 - 0.5 |x2 - xstar|^2 - c (f(x1) - fstar)(tau^2 - t_min^2)."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    n = f.dim
    x1 = z[:n]
    x2 = z[n : 2 * n]
    tau = float(z[-1])
    return (
        0.5 * float(np.sum((x1 - f.xstar) ** 2))
        - 0.5 * float(np.sum((x2 - f.xstar) ** 2))
        - params.c * f.gap(x1) * (tau * tau - params.t_min**2)
    )


def check_monotonicity(trace: Trace, f: CostFunction, c: float,
                       slack_per_step: float, jump_tol: float = 0.0) -> RateReport:
    """Energy must not increase: along flows by more than slack_per_step per
    integrator step (recorded gaps spanning several steps get the summed
    slack), and across jumps not at all beyond jump_tol (default exact)."""
    _require_minimizer(f)
    h = trace.meta.get("h")
    if h is None:
        raise ValueError("trace has no step size in meta; cannot scale per-step slack")
    V = lyapunov_curve(trace, f, c)
    rows = []
    margins = []
    for k in range(1, len(trace)):
        if trace.tags[k] == TAG_FAULT or trace.tags[k - 1] == TAG_FAULT:
            continue
        dv = V[k] - V[k - 1]
        if trace.js[k] == trace.js[k - 1]:
            steps = max(1, int(round((trace.ts[k] - trace.ts[k - 1]) / h)))
            margins.append(slack_per_step * steps - dv)
        else:
            margins.append(jump_tol - dv)
        rows.append(k)
    worst, bad = _scan(margins)
    if not rows:
        worst = 0.0
    return RateReport(
        label="energy-monotonicity",
        satisfied=not bad,
        worst_margin=worst,
        tolerance=0.0,
        violation_times=[trace.time(rows[i]) for i in bad],
        bound_curve=V,
        checked=len(rows),
        detail={"slack_per_step": slack_per_step, "jump_tol": jump_tol},
    )


def beta_constant(r: float, c: float, t_min: float, f_gap0: float) -> float:
    """Quadratic-decay constant r^2/(2c) + t_min^2 * f_gap0 for runs started
    with matched position/momentum inside the radius-r ball."""
    if r < 0.0 or f_gap0 < 0.0:
        raise ValueError("need r >= 0 and f_gap0 >= 0")
    if not (c > 0.0 and t_min > 0.0):
        raise ValueError("need c > 0 and t_min > 0")
    return r * r / (2.0 * c) + t_min**2 * f_gap0


def _check_rate_ics(trace: Trace, f: CostFunction, t_min: Optional[float]):
    n = trace.dim
    z0 = trace.zs[0]
    x1_0 = z0[:n]
    x2_0 = z0[n : 2 * n]
    scale = max(1.0, float(np.abs(x1_0).max()))
    if float(np.abs(x1_0 - x2_0).max()) > 1e-9 * scale:
        raise ValueError(
            "rate certificates assume matched start x2(0,0) = x1(0,0); got |x1-x2| = %g"
            % float(np.abs(x1_0 - x2_0).max())
        )
    if t_min is not None and abs(float(z0[-1]) - t_min) > 1e-12 * max(1.0, t_min):
        raise ValueError(
            "rate certificates assume the timer starts at t_min = %g; got tau(0,0) = %g"
            % (t_min, float(z0[-1]))
        )
    return x1_0


def check_inverse_square_rate(trace: Trace, f: CostFunction, beta: float,
                    tol: float = 0.0, use_clock: bool = True) -> RateReport:
    """Quadratic decay along the first flow interval: the cost gap at hybrid
    time (t, 0) must stay below beta / tau(t,0)^2 + tol, where tau(t,0) =
    t + t_min. use_clock=False checks the weaker beta / t^2 form instead
    (implied by the timer form since tau > t; reported for reference)."""
    _require_minimizer(f)
    _check_rate_ics(trace, f, trace.meta.get("t_min"))
    denoms = trace.zs[:, -1] if use_clock else trace.ts
    # the t-form has no bound at t = 0
    rows = [k for k in range(len(trace))
            if trace.js[k] == 0 and trace.tags[k] != TAG_FAULT and denoms[k] > 0.0]
    if not rows:
        raise ValueError("trace has no first-flow samples to check")
    bounds = [_inverse_square_bound(beta, float(denoms[k])) for k in rows]
    worst, bad = _scan([bound + tol - f.gap(trace.zs[k, : f.dim]) for bound, k in zip(bounds, rows)])
    return RateReport(
        label="quadratic-decay" + ("" if use_clock else "-tform"),
        satisfied=not bad,
        worst_margin=worst,
        tolerance=tol,
        violation_times=[trace.time(rows[i]) for i in bad],
        bound_curve=np.asarray(bounds),
        checked=len(rows),
        detail={"beta": beta, "use_clock": use_clock},
    )


def k0_constant(c: float, mu: float, t_min: float, t_max: float) -> float:
    """Per-period contraction factor ((c mu)^-1 + t_min^2) / t_max^2."""
    if not (c > 0.0 and mu > 0.0 and 0.0 < t_min < t_max):
        raise ValueError("need c > 0, mu > 0, 0 < t_min < t_max")
    return (1.0 / (c * mu) + t_min**2) / t_max**2


def k1_constant(c: float, mu: float, t_min: float, dT: float) -> float:
    """Window-normalized expansion constant ((c mu)^-1 + t_min^2) / dT^2.

    With dT = t_max - t_min this is the per-restart-period overhead that the
    restart design trades against; with dT = t_min it bounds within-flow
    growth of the cost gap relative to its start-of-period value.
    """
    if not (c > 0.0 and mu > 0.0 and t_min > 0.0 and dT > 0.0):
        raise ValueError("need c > 0, mu > 0, t_min > 0, dT > 0")
    return (1.0 / (c * mu) + t_min**2) / (dT * dT)


def check_exponential_rate(trace: Trace, f: CostFunction, params: HandParams, tol: float = 0.0) -> RateReport:
    """Exponential decay of the cost gap under momentum resets:

        gap(t, j) <= k_a exp(-(1 - k0) alpha(t+j)) |x1(0,0) - xstar|^2 + tol

    with alpha(s) = max(s - dT, 0)/(dT + 1), dT = t_max - t_min,
    k0 the per-period contraction factor and k_a = 0.5 L ((c mu)^-1 +
    t_min^2)/t_min^2 the within-flow expansion times curvature constant.
    Requires mu and lipschitz, a dwell-satisfying window, and matched
    initial conditions.
    """
    _require_minimizer(f)
    if f.mu is None or f.lipschitz is None:
        raise ValueError("exponential certificate needs mu and lipschitz on the cost")
    if not validate_dwell(params, f.mu):
        raise ValueError(
            "dwell condition violated (t_max^2 - t_min^2 <= 1/(mu c)); exponential certificate unavailable"
        )
    x1_0 = _check_rate_ics(trace, f, params.t_min)
    k0 = k0_constant(params.c, f.mu, params.t_min, params.t_max)
    k_a = 0.5 * f.lipschitz * k1_constant(params.c, f.mu, params.t_min, params.t_min)
    dT = params.t_max - params.t_min
    r0sq = float(np.sum((x1_0 - f.xstar) ** 2))
    kb = 1.0 - k0
    rows = [k for k in range(len(trace)) if trace.tags[k] != TAG_FAULT]
    bounds = [_exponential_bound(k_a, kb, dT, r0sq, float(trace.ts[k]) + float(trace.js[k])) for k in rows]
    worst, bad = _scan([bound + tol - f.gap(trace.zs[k, : f.dim]) for bound, k in zip(bounds, rows)])
    return RateReport(
        label="exponential-decay",
        satisfied=not bad,
        worst_margin=worst,
        tolerance=tol,
        violation_times=[trace.time(rows[i]) for i in bad],
        bound_curve=np.asarray(bounds),
        checked=len(rows),
        detail={"k0": k0, "k_a": k_a, "k_b": kb, "dT": dT, "r0sq": r0sq},
    )


def check_period_contraction(trace: Trace, f: CostFunction, params: HandParams,
                           slack: float = 1e-3) -> RateReport:
    """Per-period contraction: across every completed flow period the cost gap
    at the pre-jump state is at most (k0 + slack) times its value at the
    period's start (the previous post-jump state, or the initial state)."""
    _require_minimizer(f)
    if f.mu is None:
        raise ValueError("contraction check needs mu on the cost")
    k0 = k0_constant(params.c, f.mu, params.t_min, params.t_max)
    n = f.dim
    ratios = []
    margins = []
    times = []
    start_x1 = trace.zs[0, :n]
    for rec in trace.events:
        gap_start = f.gap(start_x1)
        gap_end = f.gap(rec.z_pre[:n])
        start_x1 = rec.z_post[:n]
        if gap_start <= 0.0:
            # started the period on the minimizer; nothing to contract
            ratios.append(0.0 if gap_end == 0.0 else math.inf)
            continue
        ratio = gap_end / gap_start
        ratios.append(ratio)
        margins.append((k0 + slack) - ratio)
        times.append(HybridTime(rec.t, rec.j_pre))
    worst, bad = _scan(margins)
    if not trace.events:
        worst = 0.0
    return RateReport(
        label="per-period-contraction",
        satisfied=not bad,
        worst_margin=worst,
        tolerance=slack,
        violation_times=[times[i] for i in bad],
        bound_curve=np.asarray(ratios),
        checked=len(ratios),
        detail={"k0": k0, "slack": slack},
    )


def optimal_restart(c: float, mu: float, t_min: float) -> float:
    """Restart window length e * sqrt(1/(c mu) + t_min^2) minimizing the
    window-normalized expansion constant's decay-per-time."""
    if not (c > 0.0 and mu > 0.0 and t_min > 0.0):
        raise ValueError("need c > 0, mu > 0, t_min > 0")
    return math.e * math.sqrt(1.0 / (c * mu) + t_min**2)


def convergence_time_estimate(c: float, mu: float, t_min: float, f_gap0: float, eps: float) -> float:
    """Predicted time for the cost gap to fall from f_gap0 to eps under the
    optimal restart window: (e/2) sqrt(1/(c mu) + t_min^2) ln(f_gap0/eps)."""
    if not (eps > 0.0 and f_gap0 > 0.0):
        raise ValueError("need f_gap0 > 0 and eps > 0")
    if f_gap0 <= eps:
        return 0.0
    return 0.5 * math.e * math.sqrt(1.0 / (c * mu) + t_min**2) * math.log(f_gap0 / eps)


def time_to_epsilon(trace: Trace, f: CostFunction, eps: float) -> Optional[HybridTime]:
    """First recorded hybrid time at which the cost gap is <= eps and stays
    <= eps for every later recorded sample. None if never."""
    _require_minimizer(f)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    n = f.dim
    idx = [k for k in range(len(trace)) if trace.tags[k] != TAG_FAULT]
    gaps = np.array([f.gap(trace.zs[k, :n]) for k in idx])
    ok_from = None
    for i in range(len(idx) - 1, -1, -1):
        if gaps[i] <= eps:
            ok_from = i
        else:
            break
    if ok_from is None:
        return None
    k = idx[ok_from]
    return HybridTime(float(trace.ts[k]), int(trace.js[k]))


def uniformity_probe(f: CostFunction, params: OdeParams, t0_offsets, x_offset,
                     eps: float, h: float = 1e-2, rep: str = "rep1",
                     t_end_scale: float = 6.0, record_stride: int = 5,
                     integrator: str = "rk4") -> List[dict]:
    """Convergence times of the time-varying ODE started at different absolute
    times t0 (same initial offset from the minimizer, rest start).

    Returns one row per t0 with the elapsed flow time for the cost gap to
    reach and stay below eps (None when the horizon
    max(20, t_end_scale * t0) is not enough). Growth of these times with t0
    is the non-uniformity signature.

    Default integrator is rk4: forward Euler at h=1e-2 pumps the oscillatory
    mode faster than the 3/t damping drains it once t > ~3/(h w^2), so late
    t0 probes would measure the discretization artifact, not the flow.
    """
    _require_minimizer(f)
    if rep not in ("rep1", "rep2"):
        raise ValueError("rep must be 'rep1' or 'rep2'")
    x_offset = np.asarray(x_offset, dtype=float).reshape(f.dim)
    rows = []
    for t0 in t0_offsets:
        if not (t0 > 0.0):
            raise ValueError("start times must be positive, got %r" % (t0,))
        p = OdeParams(p=params.p, c=params.c, ell=params.ell, t0=float(t0))
        flow = make_rep1_flow(p, f) if rep == "rep1" else make_rep2_flow(p, f)
        sys = flow_only_system(flow, f.dim, meta={"kind": "ode-" + rep, "t0": float(t0)})
        x1_0 = f.xstar + x_offset
        x2_0 = np.zeros(f.dim) if rep == "rep1" else x1_0.copy()
        z0 = np.concatenate([x1_0, x2_0, [float(t0)]])
        cfg = SolverConfig(
            h=h,
            t_end=max(20.0, t_end_scale * float(t0)),
            max_jumps=1,
            integrator=integrator,
            record_stride=record_stride,
        )
        trace = simulate(sys, z0, cfg)
        hit = time_to_epsilon(trace, f, eps)
        rows.append({"t0": float(t0), "time": None if hit is None else hit.t, "termination": trace.termination})
    return rows


def hand1_phase_probe(f: CostFunction, params: HandParams, phases, x_offset,
                      eps: float, h: float = 1e-2, t_end: float = 400.0,
                      record_stride: int = 5, integrator: str = "rk4") -> List[dict]:
    """Convergence times of the timer-reset system started at different timer
    phases (same state offset). Phase independence of these times is the
    uniformity signature the restarting regularization restores."""
    _require_minimizer(f)
    x_offset = np.asarray(x_offset, dtype=float).reshape(f.dim)
    sys = hand1(f, params)
    rows = []
    for tau0 in phases:
        if not (params.t_min <= tau0 <= params.t_max):
            raise ValueError("phase tau0=%g outside timer window" % tau0)
        x1_0 = f.xstar + x_offset
        z0 = np.concatenate([x1_0, x1_0, [float(tau0)]])
        cfg = SolverConfig(h=h, t_end=t_end, max_jumps=100_000, integrator=integrator,
                           jump_policy="latest", record_stride=record_stride)
        trace = simulate(sys, z0, cfg)
        hit = time_to_epsilon(trace, f, eps)
        rows.append({"tau0": float(tau0), "time": None if hit is None else hit.t, "termination": trace.termination})
    return rows
