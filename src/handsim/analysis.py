"""Runtime certificates for restarting runs: the timer-weighted energy
function, its monotonicity along trajectories, the quadratic and exponential
decay bounds, restart-period design, and the time for a run's cost gap to
settle within eps. Nothing here runs a simulation.

All checks run on recorded traces and return RateReport rather than raising:
a violated bound is a result, not an error. Errors are reserved for checks
applied to runs whose preconditions (initial conditions, metadata, convexity
constants) do not match the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import TAG_FAULT, CostFunction, HybridTime, Trace, per_row, row_dot
# nothing here calls simulate: the name stays for perfbench's tracer, which patches it
from .engine import simulate
from .hands import HandParams, validate_dwell

__all__ = [
    "RateReport",
    "bound_margins",
    "lyapunov",
    "jump_decrease_hand1",
    "jump_decrease_hand2",
    "check_monotonicity",
    "beta_constant",
    "check_inverse_square_rate",
    "k1_constant",
    "check_exponential_rate",
    "check_period_contraction",
    "optimal_restart",
    "convergence_time_estimate",
    "time_to_epsilon",
]


@dataclass
class RateReport:
    """Outcome of a bound check over a trace.

    The margin of a checked sample is bound + tolerance - value (signed;
    negative means violated), worst_margin is their minimum, and the check is
    satisfied iff no margin is negative. A sample whose margin is not finite
    (nan or infinite data) is a violation and makes worst_margin nan.
    """

    satisfied: bool
    worst_margin: float
    violation_times: List[HybridTime] = field(default_factory=list)
    checked: int = 0
    detail: dict = field(default_factory=dict)


def _scan(margins) -> Tuple[float, List[int]]:
    """Worst margin and the indices of violating samples, in order. A margin
    that is negative or not finite is a violation; a non-finite one makes the
    worst margin nan, so garbage never reads as a pass. inf when margins is
    empty; otherwise the first of the smallest margins, sign of zero kept."""
    m = np.asarray(margins, dtype=float)
    finite = np.isfinite(m)
    bad = np.flatnonzero(~finite | (m < 0.0)).tolist()
    if not len(m):
        return math.inf, bad
    return (float(m[m.argmin()]) if finite.all() else math.nan), bad


def bound_margins(bc: dict, t, j, tau, gap, fault) -> Tuple[float, List[int], List[int]]:
    """Margins (bound + tol) - gap of one certified bound over the rows of a
    trace, given as equal-length numpy arrays of hybrid time (t, j), timer
    tau, cost gap and a boolean fault mask. bc is a summary bound_checks
    entry: its kind with that kind's constants, and tol.

    A bound covers every non-fault row; the inverse-square bound
    beta / tau^2 covers the first flow interval (j == 0) only, and a
    non-positive tau gives it a nan bound, a violation. The exponential bound
    is k_a exp(-k_b alpha(t + j)) r0_sq with alpha(s) = max(s - delta_t, 0) /
    (delta_t + 1). Each is evaluated as numpy blocks, except exp: math.exp
    maps over the exponents, so the bound's last bits are libm's and not
    those of numpy's own exp. Returns the worst margin (inf when no row is
    covered, nan when one is not finite), the violating rows and the
    covered rows.
    """
    covered = ~fault
    kind = bc.get("kind")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind == "inverse-square":
            covered &= j == 0
            s = tau[covered]
            bounds = np.where(s > 0.0, float(bc["beta"]) / (s * s), math.nan)
        elif kind == "exponential":
            k_a, k_b, d_t, r0_sq = (float(bc[key]) for key in ("k_a", "k_b", "delta_t", "r0_sq"))
            s = t[covered] + j[covered]
            exponents = -k_b * (np.maximum(s - d_t, 0.0) / (d_t + 1.0))
            bounds = k_a * np.array(list(map(math.exp, exponents.tolist())), dtype=float) * r0_sq
        else:
            raise ValueError("unknown bound kind %r" % (kind,))
        margins = (bounds + float(bc["tol"])) - gap[covered]
    rows = np.flatnonzero(covered)
    worst, bad = _scan(margins)
    return worst, rows[bad].tolist(), rows.tolist()


def _require_minimizer(f: CostFunction):
    if f.xstar is None or f.fstar is None:
        raise ValueError("cost %r needs xstar and fstar for certificate checks" % f.name)


def lyapunov(z, f: CostFunction, c: float):
    """Timer-weighted energy 0.5 |x2 - xstar|^2 + c tau^2 (f(x1) - fstar) of a
    packed state (2n+1,) as a float, or of every row of a block (rows, 2n+1)
    as an array."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    n = f.dim
    if z.shape[-1:] != (2 * n + 1,):
        raise ValueError("packed state must have length %d, got shape %r" % (2 * n + 1, z.shape))
    d2 = z[..., n : 2 * n] - f.xstar
    tau = z[..., -1]
    return per_row(0.5 * row_dot(d2, d2) + c * tau * tau * f.gap(z[..., :n]))


def jump_decrease_hand1(z, f: CostFunction, params: HandParams):
    """Closed-form energy change -c (f(x1) - fstar) (tau^2 - t_min^2) of a
    timer-reset jump from a pre-jump state (2n+1,), or from each row of a
    block (rows, 2n+1)."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    tau = z[..., -1]
    return per_row(-params.c * f.gap(z[..., : f.dim]) * (tau * tau - params.t_min * params.t_min))


def jump_decrease_hand2(z, f: CostFunction, params: HandParams):
    """Closed-form energy change of a momentum-reset jump: the timer
    reset's plus the momentum reset's,
    0.5 |x1 - xstar|^2 - 0.5 |x2 - xstar|^2 - c (f(x1) - fstar)(tau^2 - t_min^2)."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    n = f.dim
    d1, d2 = z[..., :n] - f.xstar, z[..., n : 2 * n] - f.xstar
    return per_row(0.5 * row_dot(d1, d1) - 0.5 * row_dot(d2, d2) + jump_decrease_hand1(z, f, params))


def check_monotonicity(trace: Trace, f: CostFunction, c: float, slack_per_step: float) -> RateReport:
    """Energy must not increase: along flows by more than slack_per_step per
    integrator step (recorded gaps spanning several steps get the summed
    slack), and across jumps not at all."""
    _require_minimizer(f)
    h = trace.meta.get("h")
    if h is None:
        raise ValueError("trace has no step size in meta; cannot scale per-step slack")
    # energy at every recorded point, nan on fault rows; a margin for each
    # pair of consecutive live rows, named by the later one
    V = np.full(len(trace), math.nan)
    live = trace.tags != TAG_FAULT
    V[live] = lyapunov(trace.zs[live], f, c)
    pair = live[1:] & live[:-1]
    rows = (np.flatnonzero(pair) + 1).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        dv = np.diff(V)[pair]
        # np.rint rounds half to even, as round() does
        steps = np.maximum(1.0, np.rint(np.diff(trace.ts)[pair] / h))
        # 0.0 - dv rather than -dv across a jump, so that an exact tie reads 0, not -0
        margins = np.where(np.diff(trace.js)[pair] == 0, slack_per_step * steps - dv, 0.0 - dv)
    worst, bad = _scan(margins)
    if not rows:
        worst = 0.0
    return RateReport(
        satisfied=not bad,
        worst_margin=worst,
        violation_times=[trace.time(rows[i]) for i in bad],
        checked=len(rows),
        detail={"slack_per_step": slack_per_step},
    )


def beta_constant(r: float, c: float, t_min: float, f_gap0: float) -> float:
    """Quadratic-decay constant r^2/(2c) + t_min^2 * f_gap0 for runs started
    with matched position/momentum inside the radius-r ball."""
    if r < 0.0 or f_gap0 < 0.0:
        raise ValueError("need r >= 0 and f_gap0 >= 0")
    if not (c > 0.0 and t_min > 0.0):
        raise ValueError("need c > 0 and t_min > 0")
    return r * r / (2.0 * c) + t_min * t_min * f_gap0


def _check_rate_ics(trace: Trace, t_min: Optional[float]):
    n = trace.dim
    z0 = trace.zs[0]
    x1_0 = z0[:n]
    mismatch = float(np.abs(x1_0 - z0[n : 2 * n]).max())
    if mismatch > 1e-9 * max(1.0, float(np.abs(x1_0).max())):
        raise ValueError("rate certificates assume matched start x2(0,0) = x1(0,0); got |x1-x2| = %g" % mismatch)
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
    (implied by the timer form since tau > t; reported for reference), which
    has no bound at t = 0 and skips that row. With no sample to check, the
    check fails (checked 0)."""
    _require_minimizer(f)
    _check_rate_ics(trace, trace.meta.get("t_min"))
    fault = trace.tags == TAG_FAULT
    if not use_clock:
        fault = fault | (trace.ts == 0.0)
    bc = {"kind": "inverse-square", "beta": beta, "tol": tol}
    worst, bad, rows = bound_margins(bc, trace.ts, trace.js, trace.zs[:, -1] if use_clock else trace.ts,
                                     f.gap(trace.zs[:, : f.dim]), fault)
    return RateReport(
        satisfied=bool(rows) and not bad,
        worst_margin=worst,
        violation_times=[trace.time(k) for k in bad],
        checked=len(rows),
        detail={"beta": beta, "use_clock": use_clock},
    )


def k1_constant(c: float, mu: float, t_min: float, dT: float) -> float:
    """Window-normalized expansion constant ((c mu)^-1 + t_min^2) / dT^2.

    With dT = t_max - t_min this is the per-restart-period overhead that the
    restart design trades against; with dT = t_min it bounds within-flow
    growth of the cost gap relative to its start-of-period value; with
    dT = t_max it is k0, the per-period contraction factor of momentum resets.
    """
    if not (c > 0.0 and mu > 0.0 and t_min > 0.0 and dT > 0.0):
        raise ValueError("need c > 0, mu > 0, t_min > 0, dT > 0")
    return (1.0 / (c * mu) + t_min * t_min) / (dT * dT)


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
    x1_0 = _check_rate_ics(trace, params.t_min)
    k0 = k1_constant(params.c, f.mu, params.t_min, params.t_max)
    k_a = 0.5 * f.lipschitz * k1_constant(params.c, f.mu, params.t_min, params.t_min)
    dT = params.t_max - params.t_min
    r0sq = row_dot(x1_0 - f.xstar, x1_0 - f.xstar)
    kb = 1.0 - k0
    bc = {"kind": "exponential", "k_a": k_a, "k_b": kb, "delta_t": dT, "r0_sq": r0sq, "tol": tol}
    worst, bad, rows = bound_margins(bc, trace.ts, trace.js, trace.zs[:, -1], f.gap(trace.zs[:, : f.dim]),
                                     trace.tags == TAG_FAULT)
    return RateReport(
        satisfied=not bad,
        worst_margin=worst,
        violation_times=[trace.time(k) for k in bad],
        checked=len(rows),
        detail={"k0": k0, "k_a": k_a, "k_b": kb, "dT": dT, "r0sq": r0sq},
    )


def check_period_contraction(trace: Trace, f: CostFunction, params: HandParams,
                           slack: float = 1e-3) -> RateReport:
    """Per-period contraction: across every completed flow period the cost gap
    at the pre-jump state is at most (k0 + slack) times its value at the
    period's start (the previous jump row, or the initial row)."""
    _require_minimizer(f)
    if f.mu is None:
        raise ValueError("contraction check needs mu on the cost")
    k0 = k1_constant(params.c, f.mu, params.t_min, params.t_max)
    n = f.dim
    jumps = trace.events
    gap_start = f.gap(trace.zs[np.r_[0, jumps][:-1], :n])
    gap_end = f.gap(trace.zs[jumps - 1, :n])
    # a period started on the minimizer has nothing to contract
    scored = np.flatnonzero(~(gap_start <= 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        margins = (k0 + slack) - gap_end[scored] / gap_start[scored]
    worst, bad = _scan(margins)
    if not len(jumps):
        worst = 0.0
    return RateReport(
        satisfied=not bad,
        worst_margin=worst,
        violation_times=[trace.time(jumps[i] - 1) for i in scored[bad]],
        checked=len(jumps),
        detail={"k0": k0, "slack": slack},
    )


def optimal_restart(c: float, mu: float, t_min: float) -> float:
    """Restart window length e * sqrt(1/(c mu) + t_min^2) minimizing the
    window-normalized expansion constant's decay-per-time."""
    if not (c > 0.0 and mu > 0.0 and t_min > 0.0):
        raise ValueError("need c > 0, mu > 0, t_min > 0")
    return math.e * math.sqrt(1.0 / (c * mu) + t_min * t_min)


def convergence_time_estimate(c: float, mu: float, t_min: float, f_gap0: float, eps: float) -> float:
    """Predicted time for the cost gap to fall from f_gap0 to eps under the
    optimal restart window: (e/2) sqrt(1/(c mu) + t_min^2) ln(f_gap0/eps)."""
    if not (eps > 0.0 and f_gap0 > 0.0):
        raise ValueError("need f_gap0 > 0 and eps > 0")
    if f_gap0 <= eps:
        return 0.0
    return 0.5 * math.e * math.sqrt(1.0 / (c * mu) + t_min * t_min) * math.log(f_gap0 / eps)


def time_to_epsilon(trace: Trace, f: CostFunction, eps: float) -> Optional[HybridTime]:
    """First recorded hybrid time at which the cost gap is <= eps and stays
    <= eps for every later recorded sample. None if never."""
    _require_minimizer(f)
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    idx = np.flatnonzero(trace.tags != TAG_FAULT)
    first = _settled_from(f.gap(trace.zs[idx, : f.dim]), eps)
    if first == len(idx):
        return None
    k = idx[first]
    return HybridTime(float(trace.ts[k]), int(trace.js[k]))


def _settled_from(gaps, eps: float) -> int:
    """Index of the first gap after the last one not within eps (a nan gap
    is not within eps): len(gaps) when the last one is not."""
    late = np.flatnonzero(~(np.asarray(gaps) <= eps))
    return int(late[-1]) + 1 if late.size else 0

