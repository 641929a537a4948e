"""Runtime certificates for restarting runs: the timer-weighted energy
function, its monotonicity along trajectories, the quadratic and exponential
decay bounds, restart-period design, the time for a run's cost gap to
settle within eps, and the bound that certifies it settled for good.
Nothing here runs a simulation.

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
    "energy",
    "lyapunov",
    "jump_decrease_hand1",
    "jump_decrease_hand2",
    "check_monotonicity",
    "beta_constant",
    "check_inverse_square_rate",
    "k1_constant",
    "check_exponential_rate",
    "check_period_contraction",
    "check_jump_identity",
    "optimal_restart",
    "convergence_time_estimate",
    "settling_bound",
    "time_to_epsilon",
]


@dataclass
class RateReport:
    """Outcome of a check over a trace.

    The margin of a scored sample is bound + tolerance - value (signed;
    negative means violated), worst_margin is their minimum (inf when none
    is scored) and checked their count. A margin that is not finite is a
    violation and makes worst_margin nan. reason, None where the check
    holds, says why not (_verdict).
    """

    worst_margin: float
    reason: Optional[str]
    violation_times: List[HybridTime] = field(default_factory=list)
    checked: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.reason is None


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


def _verdict(bad: int, scored: int, what: str, empty: str) -> Optional[str]:
    """Every check's rule: None (it holds) with no violating sample and at
    least one scored, else why not. A check that scores nothing proves
    nothing, so it fails with the reason empty."""
    if bad:
        return "violated on %d %s" % (bad, what)
    return None if scored else empty


def _scored_report(trace: Trace, margins, rows, what: str, detail: dict) -> RateReport:
    """The report of a check that scored margins[i] at trace row rows[i]."""
    worst, bad = _scan(margins)
    return RateReport(worst_margin=worst, reason=_verdict(len(bad), len(rows), what, "no %s scored" % what),
                      violation_times=[trace.time(rows[i]) for i in bad], checked=len(rows), detail=detail)


def bound_margins(bc: dict, t, j, tau, gap, fault) -> Tuple[float, List[int], List[int], Optional[str]]:
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
    covered, nan when one is not finite), the violating rows, the covered
    rows, and None where the bound holds, else why not. It holds with no
    violating row and a covered row after t = 0: the start row holds by how
    beta and k_a are built, so it alone proves nothing.
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
    why = _verdict(len(bad), int((t[rows] > 0.0).sum()), "covered rows", "no covered sample after t = 0")
    return worst, rows[bad].tolist(), rows.tolist(), why


def _require_minimizer(f: CostFunction):
    if f.xstar is None or f.fstar is None:
        raise ValueError("cost %r needs xstar and fstar for certificate checks" % f.name)


def energy(x2, target, weight, gap):
    """0.5 |x2 - target|^2 + weight * gap on components: x2 a list of n
    floats, or a block's n columns with weight and gap one value per row.
    The squares sum from the first, in row_dot's order, so both agree."""
    sq = 0.0
    for v, s in zip(x2, target):
        sq += (v - s) * (v - s)
    return 0.5 * sq + weight * gap


def lyapunov(z, f: CostFunction, c: float):
    """Timer-weighted energy 0.5 |x2 - xstar|^2 + c tau^2 (f(x1) - fstar) of a
    packed state (2n+1,) as a float, or of every row of a block (rows, 2n+1)
    as an array: energy at target xstar and weight c tau^2."""
    _require_minimizer(f)
    z = np.asarray(z, dtype=float)
    n = f.dim
    if z.shape[-1:] != (2 * n + 1,):
        raise ValueError("packed state must have length %d, got shape %r" % (2 * n + 1, z.shape))
    tau = z[..., -1]
    return per_row(energy(np.moveaxis(z[..., n:2 * n], -1, 0), f.xstar.tolist(), c * tau * tau, f.gap(z[..., :n])))


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
    return _scored_report(trace, margins, rows, "row pairs", {"slack_per_step": slack_per_step})


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


def _bound_report(trace: Trace, f: CostFunction, bc: dict, detail: dict) -> RateReport:
    """bound_margins' margins and verdict of the bound bc over a trace."""
    worst, bad, rows, why = bound_margins(bc, trace.ts, trace.js, trace.zs[:, -1], f.gap(trace.zs[:, : f.dim]),
                                          trace.tags == TAG_FAULT)
    return RateReport(worst_margin=worst, reason=why, violation_times=[trace.time(k) for k in bad],
                      checked=len(rows), detail=detail)


def check_inverse_square_rate(trace: Trace, f: CostFunction, beta: float, tol: float = 0.0) -> RateReport:
    """Quadratic decay along the first flow interval: the cost gap at hybrid
    time (t, 0) must stay below beta / tau(t,0)^2 + tol, where tau(t,0) =
    t + t_min."""
    _require_minimizer(f)
    _check_rate_ics(trace, trace.meta.get("t_min"))
    return _bound_report(trace, f, {"kind": "inverse-square", "beta": beta, "tol": tol}, {"beta": beta})


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
    return _bound_report(trace, f, bc, {"k0": k0, "k_a": k_a, "k_b": kb, "dT": dT, "r0sq": r0sq})


def check_period_contraction(trace: Trace, f: CostFunction, params: HandParams,
                           slack: float = 1e-3) -> RateReport:
    """Per-period contraction: across every completed flow period the cost gap
    at the pre-jump state is at most (k0 + slack) times its value at the
    period's start (the previous jump row, or the initial row). A period
    started on the minimizer has nothing to contract and is not scored."""
    _require_minimizer(f)
    if f.mu is None:
        raise ValueError("contraction check needs mu on the cost")
    k0 = k1_constant(params.c, f.mu, params.t_min, params.t_max)
    n = f.dim
    jumps = trace.events
    gap_start = f.gap(trace.zs[np.r_[0, jumps][:-1], :n])
    gap_end = f.gap(trace.zs[jumps - 1, :n])
    scored = np.flatnonzero(~(gap_start <= 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        margins = (k0 + slack) - gap_end[scored] / gap_start[scored]
    return _scored_report(trace, margins, jumps[scored] - 1, "periods", {"k0": k0, "slack": slack})


def check_jump_identity(trace: Trace, f: CostFunction, params: HandParams, tol: float) -> RateReport:
    """Each momentum-reset jump's simulated energy change against its closed
    form (jump_decrease_hand2), to a relative error of at most tol; a jump
    whose closed form is within 1e-300 of 0 is scored only where its
    simulated change is not finite, a failure. detail["worst_rel_err"] is
    the largest relative error: not finite where one is not, nan where none
    is scored."""
    jumps = trace.events
    pre, post = trace.zs[jumps - 1], trace.zs[jumps]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dv_sim = lyapunov(post, f, params.c) - lyapunov(pre, f, params.c)
        dv_form = jump_decrease_hand2(pre, f, params)
        scored = ~(np.abs(dv_form) <= 1e-300) | ~np.isfinite(dv_sim)
        rel = np.abs(dv_sim - dv_form)[scored] / np.abs(dv_form[scored])
        margins = tol - rel
    return _scored_report(trace, margins, jumps[scored], "jumps",
                          {"worst_rel_err": float(rel.max()) if rel.size else math.nan})


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


def settling_bound(kind: str, f: CostFunction, params):
    """The certificate that a run's cost gap stays small for good: (bound,
    None), bound(z) an upper bound on the cost gap at every later hybrid time
    of the run from the packed state z (a list of floats), or (None, the
    reason) where the theory gives none. kind is the system's meta kind,
    params its OdeParams ("ode-rep1") or HandParams ("hand1", "hand2"):

      ode-rep1 at p = 2: E = 0.5 |x2|^2 + c p^2 (f - fstar) has
        dE/dt = -(ell/t) |x2|^2 <= 0, so gap <= E / (c p^2);
      hand1: V = 0.5 |x2 - xstar|^2 + c tau^2 (f - fstar) does not increase
        on flows (f convex) or jumps, and tau >= t_min, so
        gap <= V / (c t_min^2);
      hand2: the same, where the dwell condition makes its jumps' energy
        change, at most 0.5 |x1 - xstar|^2 (1 - c mu (tau^2 - t_min^2))
        - 0.5 |x2 - xstar|^2, nonpositive.

    E and V are energy on the state's components, and the gap is the
    cost's value.on_components where it has one. The bounds hold for the
    continuous-time run, and not for a disturbed one."""
    if f.fstar is None:
        return None, "the cost has no fstar"
    on_components, fstar, n, c = getattr(f.value, "on_components", None), f.fstar, f.dim, params.c
    # a CostFunction built by hand, with no value.on_components, takes the
    # numpy gap, as _gradient_components falls back
    gap = ((lambda x: on_components(x) - fstar) if on_components is not None
           else (lambda x: f.gap(np.asarray(x, dtype=float))))
    if kind == "ode-rep1":
        if params.p != 2.0:
            return None, "the velocity-form energy bounds the gap at p = 2 only, not p = %r" % params.p
        cp2, rest = c * params.p * params.p, [0.0] * n

        def bound(z):
            return energy(z[n:2 * n], rest, cp2, gap(z[:n])) / cp2

        return bound, None
    if kind not in ("hand1", "hand2"):
        return None, "no certificate for a %r run" % kind
    if f.xstar is None:
        return None, "the cost has no xstar"
    if kind == "hand2":
        if f.mu is None:
            return None, "the cost has no mu, so hand2's jumps may raise its energy"
        if not validate_dwell(params, f.mu):
            return None, "the dwell condition t_max^2 - t_min^2 > 1/(mu c) fails, so hand2's jumps may raise its energy"
    xstar, ct2 = f.xstar.tolist(), c * params.t_min * params.t_min

    def bound(z):
        tau = z[-1]
        return energy(z[n:2 * n], xstar, c * tau * tau, gap(z[:n])) / ct2

    return bound, None


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

