"""Exact-solution oracle: simulate against the closed-form flow on the corpus
quadratics.

The closed form. On f(x) = 1/2 x'Qx + b'x the restarting field is linear in
y = x1 - x* and w = x2 - x*: y' = (2/tau)(w - y), w' = -2 c tau Q y.
Eliminating w gives y'' + (3/tau) y' + 4 c Q y = 0, so along an eigenvector
of Q with eigenvalue lam > 0

    y = (A J1(om tau) + B Y1(om tau)) / tau,    om = 2 sqrt(c lam)

(Su, Boyd and Candes, JMLR 2016), and, since J1'(s) = J0(s) - J1(s)/s,

    w = y + (tau/2) y' = (om/2) (A J0(om tau) + B Y0(om tau)).

The ODE forms with p = 2 (so ell = 3) are the same equation in the clock t:
rep2's second block is w, rep1's is the velocity y' = om (A J0 + B Y0) / t
- 2 y / t. Per mode a flow from s_a to s_b is the 2x2 matrix
P(s_b) P(s_a)^-1, P the fundamental matrix whose columns are the J and Y
solutions. A hand1 jump keeps (y, w), a hand2 jump sets w = y, and both
reset tau to t_min. With the window [1, 2] and h a power of 2 the discrete
timer reaches t_max = 2 exactly, so a run jumps when the exact solution
does, at t = 1, ..., 9. Q is read off the gradient, whose corpus products
are exact.

What is asserted, fixed before any run was compared with it:

* Order. The error of a method of order p is C h^p (1 + O(h)). The
  least-squares slope of log error against log h over h = 2^-4 ... 2^-7 is
  at least p - 1/2 (p = 1 for euler, 4 for rk4): a wrong field or jump map
  leaves an error that does not shrink with h (slope near 0), and a broken
  order condition or a jump one step off gives a slope near p - 1 or lower.
  A higher slope is allowed.
* Error at the finest h. For a linear field z' = M z with M constant, one
  step of euler or rk4 from the exact state leaves the local error
  (e^{hM} - sum_{k <= p} (hM)^k / k!) z, whose leading term is
  h^{p+1} z^(p+1) / (p+1)!. Step k's local error reaches t_end multiplied
  by the exact propagator Phi(t_end, t_k+1). Over T / h steps the error at
  t_end is then at most

      bound = 10 T G h^p S / (p+1)!,

  S the largest |z^(p+1)| of the (x1, x2) part of the exact run and G the
  largest 2-norm of Phi(t_end, s) over the step points s. The factor 10
  covers what the leading term leaves out: the higher terms (h om is at
  most 1/32 here), M varying with tau, and local errors taken at the
  numerical state rather than the exact one. S and G come from the closed
  form (scipy's Bessel derivatives jvp and yvp, and P), not from a run.
"""

import math

import numpy as np
import pytest
from scipy.special import jv, jvp, yv, yvp

from handsim import HandParams, OdeParams, SolverConfig, corpus, hand1, hand2, simulate
from handsim.dynamics import make_rep1_flow, make_rep2_flow
from handsim.engine import flow_only_system

WINDOW = (1.0, 2.0)
T_END = 10.0
H_GRID = [2.0 ** -k for k in range(4, 8)]
ORDER = {"euler": 1, "rk4": 4}
FORMS = ("hand1", "hand2", "rep1", "rep2")


def _modes(f):
    """Eigenvalues and orthonormal eigenvectors of the Q behind f.gradient."""
    b = np.array(f.gradient([0.0] * f.dim))
    Q = np.array([np.array(f.gradient(list(e))) - b for e in np.eye(f.dim)]).T
    assert np.array_equal(Q, Q.T)
    return np.linalg.eigh(Q)


def _fundamental(form, om, s):
    """P(s) per mode, shape (modes, len(s), 2, 2): columns J and Y, rows y
    and the form's second block."""
    om, s = np.asarray(om)[:, None], np.asarray(s, dtype=float)[None, :]
    x = om * s
    if form == "rep1":
        second = [om * jv(0, x) / s - 2.0 * jv(1, x) / s ** 2, om * yv(0, x) / s - 2.0 * yv(1, x) / s ** 2]
    else:
        second = [0.5 * om * jv(0, x), 0.5 * om * yv(0, x)]
    return np.stack([np.stack([jv(1, x) / s, yv(1, x) / s], -1), np.stack(second, -1)], -2)


def _derivative(form, om, s, coef, k):
    """The k-th s-derivative of (y, second block) per mode, shape
    (modes, len(s), 2), on the segment whose J and Y coefficients are coef
    (modes, 2)."""
    om, s = np.asarray(om)[:, None], np.asarray(s, dtype=float)[None, :]
    x = om * s

    def y_derivative(k):
        # Leibniz on (1/s) * Z1(om s): d^m (1/s) = (-1)^m m! / s^(m+1)
        total = 0.0
        for i in range(k + 1):
            z1 = coef[:, :1] * jvp(1, x, i) + coef[:, 1:] * yvp(1, x, i)
            weight = math.comb(k, i) * (-1.0) ** (k - i) * math.factorial(k - i)
            total = total + weight / s ** (k - i + 1) * om ** i * z1
        return total

    if form == "rep1":
        second = y_derivative(k + 1)
    else:
        second = 0.5 * om ** (k + 1) * (coef[:, :1] * jvp(0, x, k) + coef[:, 1:] * yvp(0, x, k))
    return np.stack([y_derivative(k), second], -1)


def _segments(form):
    """(s_start, s_end, jump matrix after it or None) of each flow segment
    of the exact run over [0, T_END]."""
    if form in ("rep1", "rep2"):
        return [(1.0, 1.0 + T_END, None)]
    jump = np.eye(2) if form == "hand1" else np.array([[1.0, 0.0], [1.0, 0.0]])
    n = int(T_END / (WINDOW[1] - WINDOW[0]))
    return [(WINDOW[0], WINDOW[1], jump if k < n - 1 else None) for k in range(n)]


def _exact(form, f, x0, k):
    """Exact (x1, x2) at T_END from x1 = x0 (and x2 = x0, or velocity 0 for
    rep1), with S, the largest |z^(k)| of its (x1, x2) part, and G, the
    largest 2-norm of Phi(T_END, s), both over the step points of the finest
    h. c is 1 in every run, so om = 2 sqrt(lam)."""
    lam, V = _modes(f)
    om = 2.0 * np.sqrt(lam)
    y = V.T @ (x0 - f.xstar)
    state = np.stack([y, np.zeros_like(y) if form == "rep1" else y], -1)  # (modes, 2)
    h = H_GRID[-1]
    S = 0.0
    carried = []
    for s_a, s_b, jump in _segments(form):
        pts = np.linspace(s_a, s_b, int(round((s_b - s_a) / h)) + 1)
        P = _fundamental(form, om, pts)
        coef = np.linalg.solve(P[:, 0], state[..., None])[..., 0]
        S = max(S, float(np.sqrt((_derivative(form, om, pts, coef, k) ** 2).sum(axis=(0, 2))).max()))
        # from each step point after s_a to s_b, and the whole segment
        carried.append((P[:, -1:] @ np.linalg.inv(P[:, 1:]), P[:, -1] @ np.linalg.inv(P[:, 0]), jump))
        state = (P[:, -1] @ coef[..., None])[..., 0]
        if jump is not None:
            state = state @ jump.T
    G, K = 0.0, np.eye(2)  # K: Phi(T_END, end of the segment), per mode
    for to_end, whole, jump in reversed(carried):
        if jump is not None:
            K = K @ jump
        G = max(G, float(np.linalg.norm(K[..., None, :, :] @ to_end, ord=2, axis=(-2, -1)).max()))
        K = K @ whole
    x1, x2 = V @ state[:, 0], V @ state[:, 1]
    return np.concatenate([x1 + f.xstar, x2 + (0.0 if form == "rep1" else f.xstar)]), S, G


def _run(form, f, x0, integrator, h):
    cfg = SolverConfig(h=h, t_end=T_END, integrator=integrator, record_stride=2 ** 62)
    if form in ("hand1", "hand2"):
        sys = (hand1 if form == "hand1" else hand2)(f, HandParams(t_min=WINDOW[0], t_max=WINDOW[1], c=1.0))
        return simulate(sys, np.concatenate([x0, x0, [WINDOW[0]]]), cfg)
    make = make_rep1_flow if form == "rep1" else make_rep2_flow
    sys = flow_only_system(make(OdeParams(p=2.0, c=1.0, t0=1.0), f), f.dim)
    return simulate(sys, np.concatenate([x0, np.zeros(f.dim) if form == "rep1" else x0, [1.0]]), cfg)


@pytest.mark.filterwarnings("ignore:timer window too short")
@pytest.mark.parametrize("integrator", sorted(ORDER))
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", sorted(corpus()))
def test_simulate_converges_to_the_closed_form(name, form, integrator):
    f = corpus()[name]
    x0 = f.xstar + np.linspace(1.0, -0.5, f.dim)
    p = ORDER[integrator]
    exact, S, G = _exact(form, f, x0, p + 1)
    errs = []
    for h in H_GRID:
        tr = _run(form, f, x0, integrator, h)
        assert tr.termination == "horizon" and tr.ts[-1] == T_END
        assert len(tr.events) == (9 if form in ("hand1", "hand2") else 0)
        errs.append(float(np.linalg.norm(tr.zs[-1][: 2 * f.dim] - exact)))
    slope = float(np.polyfit(np.log(H_GRID), np.log(errs), 1)[0])
    bound = 10.0 * T_END * G * H_GRID[-1] ** p * S / math.factorial(p + 1)
    assert slope >= p - 0.5, (slope, errs)
    assert errs[-1] <= bound, (errs[-1], bound, S, G)
