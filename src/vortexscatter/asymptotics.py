"""
Semiclassical machinery and closed-form cross sections.

Contents
--------
* WKB radial phases of the outside and (uniform-field) inside problem,

      xi_n(X)   = integral_{nu}^{X}  du sqrt(1 - (nu/u)^2),  nu = |n - mu|,
      zeta_n(X) = integral_{y0}^{X} du sqrt(1 - ((n - gamma(u))/u)^2),

  y0 the inner turning point (0 when the classical region reaches the
  axis), with the closed evaluation of both for the uniform profile
  gamma(u) = mu u^2/X^2 (the spin correction is dropped here, consistent
  with the flux regime |mu| << X^2/2; the exact solver keeps it, and the
  difference is itself a measured quantity in the tests),

      xi_n   = W - |n - mu| a0,
      zeta_n = W/2 + (X^2 + 2 mu n)/(4|mu|) a1 - (|n|/2) a2,
      W = sqrt(X^2 - (n - mu)^2),

  and their n-derivatives, all linear in three edge angles.  Each angle
  is an arccos whose argument nears +-1 (by 1 - O(mu^2) for a1 at small
  flux), so it is taken in atan2 form (DLMF 4.23), with nu = n - mu:

      a0 = atan2(W, |nu|),
      a1 = atan2(2|mu| W, X^2 + 2 mu nu),
      a2 = atan2(2|n| W, 2 nu n - X^2);

  nothing cancels and no argument is clamped.
* The classical deflection function 2 d/dn [xi - zeta] and its extremum
  (the rainbow angle -sgn(mu) 2 arcsin(2|mu|/X)).
* A Poisson-summation / stationary-phase evaluator for the mode sums
  sum_n e^{i (n phi + chi(n))} at every angle phi from one grid of chi',
  with Airy uniformisation where stationary points coalesce; and
  ``bracketed_roots``, every bracket of a grid scan refined at once
  (safeguarded Newton or Illinois steps), for the engine and the CLI.
* The penetration amplitude from the WKB phases on scalar or array angles,
  summed by the mode-sum kernel of ``amplitudes`` or by the engine.
* Closed-form differential cross sections: Fraunhofer diffraction,
  strong- and weak-field penetration, the Airy-regularised rainbow, and
  the classical (trajectory-counting) results.  Each takes a scalar angle
  (and returns a float) or an array of angles (and returns an array, one
  vectorised pass).  Penetration and classical values are in units of
  r_c; multiply by X for the 1/k convention.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .amplitudes import _angles, _like, _mode_sum, flux_phase
from .radial import VortexParams, _mode_window

_EDGE_TOL = 1e-12  # relative roundoff slack of the edge test |n - mu| <= X


# ---------------------------------------------------------------------------
# WKB phases for the uniform field
# ---------------------------------------------------------------------------

class ForbiddenModeError(ValueError):
    """The mode has no classical region reaching the vortex edge."""


def _reaches_edge(n: np.ndarray, mu: float, X: float) -> np.ndarray:
    """Mask of the modes n with a classical path to the edge:
    |n - mu| <= X within 1e-12 and X^2 + 4 mu n > 0."""
    return (np.abs(n - mu) <= X * (1.0 + _EDGE_TOL)) & (X * X + 4.0 * mu * n > 0.0)


def _edge_angles(n, mu: float, X: float):
    """The edge angles of the closed WKB phases (module docstring), for
    arrays of n.

    Returns n as a float array, W = sqrt(X^2 - nu^2) with nu = n - mu, the
    mask of :func:`_reaches_edge` (elsewhere the values are placeholders),
    and the angles a0, a1, a2.  With s = sqrt(X^2 + 4 mu n), a1 and a2 are
    arccos((X^2 + 2 mu nu)/(X s)) and arccos((2 nu n - X^2)/(X s)), since
    (X s)^2 - (X^2 + 2 mu nu)^2 = 4 mu^2 W^2 and
    (X s)^2 - (2 nu n - X^2)^2 = 4 n^2 W^2.
    """
    n = np.asarray(n, dtype=float)
    nu = n - mu
    W = np.sqrt(np.maximum(X * X - nu * nu, 0.0))
    return (n, W, _reaches_edge(n, mu, X), np.arctan2(W, np.abs(nu)),
            np.arctan2(2.0 * abs(mu) * W, X * X + 2.0 * mu * nu),
            np.arctan2(2.0 * np.abs(n) * W, 2.0 * nu * n - X * X))


def _require_allowed(n: np.ndarray, ok: np.ndarray, mu: float, X: float) -> None:
    if not ok.all():
        raise ForbiddenModeError(f"mode n={n[~ok][0]}: no classical path to the edge (mu={mu}, X={X})")


def _wkb_phases(n, mu: float, X: float):
    """n as a float array, the edge mask of :func:`_edge_angles`, and the
    inside and outside phases zeta_n and xi_n (placeholders off the mask);
    mu != 0."""
    n, W, ok, a0, a1, a2 = _edge_angles(n, mu, X)
    zeta = 0.5 * W + (X * X + 2.0 * mu * n) / (4.0 * abs(mu)) * a1 - 0.5 * np.abs(n) * a2
    return n, ok, zeta, W - np.abs(n - mu) * a0


def deflection(n: float, mu: float, X: float) -> float:
    """Classical scattering angle of mode n: 2 d/dn [xi - zeta], with
    d(xi)/dn = -sgn(n - mu) a0 and d(zeta)/dn = (sgn(mu) a1 - sgn(n) a2)/2
    (the angles of the module docstring); accepts arrays.

    Zero everywhere for mu = 0; for 2|mu| <= X it has a single extremum
    -sgn(mu) 2 arcsin(2|mu|/X) at the rainbow mode, while for 2|mu| > X it
    is monotone over the allowed window.
    """
    n, _, ok, a0, a1, a2 = _edge_angles(n, mu, X)
    _require_allowed(n, ok, mu, X)
    if mu == 0.0:
        return np.zeros_like(n)[()]
    return (np.where(n >= 0.0, a2, -a2) - math.copysign(1.0, mu) * a1
            - 2.0 * np.where(n >= mu, a0, -a0))


def rainbow_angle(mu: float, X: float) -> float:
    """Extremal deflection -sgn(mu) 2 arcsin(2|mu|/X) (weak field only)."""
    if mu == 0.0:
        return 0.0
    if 2.0 * abs(mu) > X:
        raise ValueError("no deflection extremum for 2|mu| > X")
    return -math.copysign(2.0 * math.asin(2.0 * abs(mu) / X), mu)


# ---------------------------------------------------------------------------
# Poisson summation / stationary phase
# ---------------------------------------------------------------------------

class StationaryPhaseReport(NamedTuple):
    """:func:`poisson_stationary_sum` at every angle phi; the field
    ``angle`` of a row indexes the flattened phi."""

    total: np.ndarray  # point terms + Airy terms + endpoints, shaped like phi
    endpoints: np.ndarray
    points: np.ndarray  # (angle, l, n, d2chi, term) per lone stationary point
    airy: np.ndarray  # (angle, l, n of the inflection, alpha1, alpha3, term) per pair


_ROW = [("angle", np.intp), ("l", np.int64), ("n", float)]
_POINT_ROW = np.dtype(_ROW + [("d2chi", float), ("term", complex)])
_AIRY_ROW = np.dtype(_ROW + [("alpha1", float), ("alpha3", float), ("term", complex)])


def _rows(dtype: np.dtype, *columns) -> np.ndarray:
    rows = np.empty(len(columns[0]), dtype)
    for name, column in zip(dtype.names, columns):
        rows[name] = column
    return rows


_COT_CLAMP = 10.0
_SAMPLES = 2048  # grid on which chi' is sampled to bracket the stationary points
_BLOCK = 64  # angles per block of the grid scan, which holds _BLOCK x _SAMPLES values
_ROOT_STEPS = 128  # Illinois halves a bracket at least every second step


def bracketed_roots(f, a, b, fa, fb, df=None, xtol: float = 1e-12,
                    rtol: float = 4.0 * np.finfo(float).eps) -> np.ndarray:
    """Refine every bracket [a_i, b_i] to a root of f(x, i) = 0 at once.

    fa, fb come from the caller's grid scan and are never evaluated again:
    they differ in sign, or one is 0 and its end is the root.  f and df
    take arrays of points x and bracket indices i.  With df the steps are
    Newton steps, without it Illinois steps; a step that leaves its
    bracket bisects, and so does an Illinois step after one that failed to
    halve the bracket.  A root is frozen once f vanishes, or its bracket or
    last Newton step is below xtol + rtol |x|, so it does not depend on the
    other brackets.  Raises ValueError on end values of one sign, and
    RuntimeError when a bracket has not converged in 128 steps.
    """
    lo, hi, flo, fhi = (np.array(v, dtype=float).ravel() for v in (a, b, fa, fb))
    if (np.sign(flo) * np.sign(fhi) > 0.0).any():
        raise ValueError("bracket end values share a sign")
    roots = np.where(flo == 0.0, lo, hi)
    i = np.nonzero((flo != 0.0) & (fhi != 0.0))[0]
    lo, hi, flo, fhi = lo[i], hi[i], flo[i], fhi[i]
    with np.errstate(all="ignore"):  # an infinite end value gives nan, bisected below
        x = lo - flo * (hi - lo) / (fhi - flo)  # false position
    side = np.zeros(i.size)  # Illinois: +1 when the last point replaced lo, -1 hi
    for _ in range(_ROOT_STEPS):
        if not i.size:
            return roots
        x = np.where((lo <= x) & (x <= hi), x, 0.5 * (lo + hi))
        tol = xtol + rtol * np.abs(x)
        # tol/2 from the ends: a root that close to one collapses the bracket
        x = np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol)
        fx = f(x, i)
        width = hi - lo
        left = (fx > 0.0) == (flo > 0.0)
        if df is None:  # Illinois: halve an end value kept for a second step
            flo = np.where(~left & (side < 0.0), 0.5 * flo, flo)
            fhi = np.where(left & (side > 0.0), 0.5 * fhi, fhi)
            side = np.where(left, 1.0, -1.0)
        lo, flo = np.where(left, x, lo), np.where(left, fx, flo)
        hi, fhi = np.where(left, hi, x), np.where(left, fhi, fx)
        with np.errstate(all="ignore"):  # a flat or non-finite step is bisected
            if df is None:
                nxt = np.where(hi - lo > 0.5 * width, np.nan, lo - flo * (hi - lo) / (fhi - flo))
                done = (fx == 0.0) | (hi - lo < tol)
            else:
                nxt = x - fx / df(x, i)
                done = (fx == 0.0) | (hi - lo < tol) | (np.abs(nxt - x) < tol)
        if done.any():
            roots[i[done]] = x[done]
            go = ~done
            i, lo, hi, flo, fhi, nxt, side = (v[go] for v in (i, lo, hi, flo, fhi, nxt, side))
        x = nxt
    raise RuntimeError(f"{i.size} bracketed roots not converged after {_ROOT_STEPS} steps")


Phase = Callable[[np.ndarray], np.ndarray]


def poisson_stationary_sum(chi: Phase, dchi: Phase, window: tuple[float, float], d2chi: Phase,
                           d3chi: Phase, phi=0.0) -> StationaryPhaseReport:
    """Sum e^{i (n phi + chi(n))} over the integers n in [window] at every
    angle of phi, by Poisson summation and stationary phase.

    chi' is sampled once, on a 2,048-point grid of the window.  Scanned in
    blocks of angles, it gives the stationary points phi + chi'(n) = 2 pi l
    of every angle and l, the exact zeros on the grid and one root per sign
    change, all refined in one :func:`bracketed_roots` call (Newton steps
    with chi'', xtol 1e-12); each weighs sqrt(2 pi/|chi''|) e^{-+ i pi/4},
    the sign set by the convexity.  Two points of one angle and l on either
    side of an inflection (a root of chi'' on the same grid, refined with
    chi''' once for all angles) and within 2 (2/|a3|)^(1/3) of each other
    give way to the uniform Airy term
    2 pi (2/|a3|)^(1/3) Ai(sgn(a3) a1 (2/|a3|)^(1/3)) e^{i (n phi + chi - 2 pi l n)}
    at the inflection, with a1 = phi + chi' - 2 pi l and a3 = chi''' there.
    Each end adds its half-weight Poisson term and the resummed first-order
    boundary term (1/2i) cot(chi'/2) e^{i chi} of the non-stationary
    integrals (exact for linear phases), the cot clamped where the end is
    itself nearly stationary, a half-saddle.

    chi, dchi, d2chi and d3chi are the phase without its n phi term, smooth
    on the window, and its first three derivatives in closed form; each
    acts elementwise on 1-d arrays, and a constant is broadcast.  chi is
    evaluated once, on all points, inflections and both ends.  The window
    (-s_minus, s_plus) is integer-inclusive, its ends integers, where the
    endpoint terms are exact; phi defaults to 0, the sum of e^{i chi(n)}
    alone.  Raises ValueError on an empty window, non-integer window ends,
    or non-finite window, angles or phase data, and RuntimeError on a
    degenerate lone stationary point.
    """
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"stationary-phase window must be finite and non-empty, got {window}")
    if not (a.is_integer() and b.is_integer()):
        raise ValueError(f"stationary-phase window ends must be integers, got {window}")
    shape, angles = np.shape(phi), np.asarray(phi, dtype=float).ravel()

    def on(fn, n):
        v = fn(n)
        return v if np.shape(v) == n.shape else np.broadcast_to(v, n.shape)

    grid = np.linspace(a, b, _SAMPLES)  # hits both ends exactly
    slope = on(dchi, grid)
    if not (np.isfinite(slope).all() and np.isfinite(angles).all()):
        raise ValueError("phi and the phase derivative on the window must be finite")

    brackets = []
    for start in range(0, max(angles.size, 1), _BLOCK):  # no angles: one empty block
        d = (angles[start:start + _BLOCK, None] + slope).ravel()  # one row of samples per angle
        # the lowest level l with 2 pi l >= d, the quotient's rounding corrected
        below = np.ceil(d / (2.0 * math.pi)).astype(np.int64)
        below += 2.0 * math.pi * below < d
        below -= 2.0 * math.pi * (below - 1) >= d
        level = 2.0 * math.pi * below == d
        # d crosses the levels above those <= the lower and below the upper of two samples
        first = np.minimum(below[:-1] + level[:-1], below[1:] + level[1:])
        count = np.maximum(below[:-1], below[1:]) - first
        count[_SAMPLES - 1::_SAMPLES] = 0  # no step from one angle's row to the next
        j = np.flatnonzero(count > 0)
        reps = count[j]
        up = np.repeat(first[j] - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
        z, j = np.flatnonzero(level), np.repeat(j, reps)  # a sample on a level: zero-width bracket
        lo, hi = np.concatenate([z, j]), np.concatenate([z, j + 1])
        lev = np.concatenate([below[z], up])
        brackets.append((start + lo // _SAMPLES, lev, lo % _SAMPLES, hi % _SAMPLES,
                         d[lo] - 2.0 * math.pi * lev, d[hi] - 2.0 * math.pi * lev))
    ang, ls, lo, hi, fa, fb = map(np.concatenate, zip(*brackets))
    pts = bracketed_roots(lambda n, i: angles[ang[i]] + dchi(n) - 2.0 * math.pi * ls[i],
                          grid[lo], grid[hi], fa, fb, df=lambda n, i: d2chi(n))
    inner = (a + 1e-9 < pts) & (pts < b - 1e-9)
    order = np.lexsort((pts[inner], ls[inner], ang[inner]))  # by angle, l, then n
    ang, ls, pts = ang[inner][order], ls[inner][order], pts[inner][order]
    curv, tl = on(d2chi, pts), 2.0 * math.pi * ls
    bad = ~np.isfinite(curv) | (curv == 0.0)  # never in an Airy pair, which needs two signs
    if bad.any():
        raise RuntimeError(f"degenerate stationary point at n={pts[bad][0]}")

    # neighbours of one angle and l on either side of an inflection may be an Airy pair
    m = np.nonzero((ang[:-1] == ang[1:]) & (ls[:-1] == ls[1:])
                   & (np.sign(curv[:-1]) * np.sign(curv[1:]) < 0.0))[0]
    n_inf, free, airy = np.empty(0), np.ones(pts.size, dtype=bool), np.zeros(0, _AIRY_ROW)
    if m.size:
        bend = on(d2chi, grid)
        s = np.sign(bend)
        c = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
        n_inf = np.sort(np.concatenate([grid[s == 0.0], bracketed_roots(
            lambda n, i: d2chi(n), grid[c], grid[c + 1], bend[c], bend[c + 1],
            df=lambda n, i: d3chi(n))]))
        k = np.searchsorted(n_inf, pts[m], side="right")  # the first inflection past the left point
        between = np.append(n_inf, np.inf)[k] < pts[m + 1]
        a3 = np.append(on(d3chi, n_inf), 0.0)[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = (2.0 / np.abs(a3)) ** (1.0 / 3.0)
        ok = between & (a3 != 0.0) & (pts[m + 1] - pts[m] < 2.0 * scale)
        # left to right: in a run of pairs each sharing a point with the last, every second
        q = np.arange(m.size)
        run = np.append(False, ok[1:] & ok[:-1] & (m[1:] == m[:-1] + 1))
        take = ok & ((q - np.maximum.accumulate(np.where(run, 0, q))) % 2 == 0)
        m, k, a3, scale = m[take], k[take], a3[take], scale[take]
        alpha1 = angles[ang[m]] + on(dchi, n_inf)[k] - tl[m]
        free[m] = free[m + 1] = False
    chis = on(chi, np.concatenate([pts, n_inf, [a, b]]))
    if m.size:
        phase = chis[pts.size + k] + n_inf[k] * angles[ang[m]] - tl[m] * n_inf[k]
        airy = _rows(_AIRY_ROW, ang[m], ls[m], n_inf[k], alpha1, a3, np.exp(1j * phase) * 2.0
                     * math.pi * scale * specfun.airy_ai(np.sign(a3) * alpha1 * scale))

    term = (np.exp(1j * (chis[:pts.size] + pts * angles[ang] - tl * pts))
            * np.sqrt(2.0 * math.pi / np.abs(curv))
            * np.where(curv < 0.0, cmath.exp(-1j * math.pi / 4.0), cmath.exp(1j * math.pi / 4.0)))
    points = _rows(_POINT_ROW, ang, ls, pts, curv, term)[free]

    half = (angles[:, None] + slope[[0, -1]]) / 2.0
    with np.errstate(divide="ignore"):  # the (1/2i) cot terms, outward -1 at a and +1 at b
        cot = np.minimum(np.maximum(np.cos(half) / np.sin(half), -_COT_CLAMP), _COT_CLAMP)
    end = (np.exp(1j * (chis[-2:] + np.outer(angles, [a, b]))) * (0.5 + [0.5j, -0.5j] * cot)).sum(1)
    total = np.zeros(angles.size, dtype=complex)
    for rows in (points, airy):  # each angle's terms added in row order
        np.add.at(total, rows["angle"], rows["term"])
    return StationaryPhaseReport((total + end).reshape(shape)[()], end.reshape(shape)[()],
                                 points, airy)


# ---------------------------------------------------------------------------
# penetration amplitude from the WKB phases
# ---------------------------------------------------------------------------

def _penetration_phase(mu: float, X: float):
    """chi(n) = (|n| - |n-mu|) pi + 2 [zeta_n - xi_n] (the engine adds n phi)
    and its first three n-derivatives in closed form, all taking arrays.
    The continuous (|n| - |n-mu|) pi representation of the flux phase
    splices smoothly into the WKB actions: the corner slopes at n = 0 and
    n = mu cancel exactly.  With R = X^2 + 4 mu n and W = sqrt(X^2 - (n-mu)^2),

        chi''  = -4 mu (n + mu) / (R W),
        chi''' = -4 mu / (R W) [1 - (n + mu) (4 mu/R - (n - mu)/W^2)],

    so chi'' vanishes at the rainbow mode n = -mu, where
    chi''' = -4 mu / (X^2 - 4 mu^2)^(3/2)."""

    def chi(n):
        n, ok, zeta, xi = _wkb_phases(n, mu, X)
        _require_allowed(n, ok, mu, X)
        return (np.abs(n) - np.abs(n - mu)) * math.pi + 2.0 * (zeta - xi)

    def dchi(n):
        n = np.asarray(n, dtype=float)
        corners = np.where(n >= 0.0, math.pi, -math.pi) - np.where(n >= mu, math.pi, -math.pi)
        return corners - deflection(n, mu, X)

    @np.errstate(divide="ignore")  # +-inf at a window end where |n - mu| = X
    def d2chi(n):
        return -4.0 * mu * (n + mu) / ((X * X + 4.0 * mu * n) * np.sqrt(X * X - (n - mu) ** 2))

    @np.errstate(divide="ignore")
    def d3chi(n):
        R, W2 = X * X + 4.0 * mu * n, X * X - (n - mu) ** 2
        return -4.0 * mu / (R * np.sqrt(W2)) * (1.0 - (n + mu) * (4.0 * mu / R - (n - mu) / W2))

    return chi, dchi, d2chi, d3chi


def f2_asymptotic(phi, mu: float, X: float, mode: str = "direct"):
    """Penetration amplitude in units 1/sqrt(k) from the WKB phases,

        f2 = -(i/sqrt(2 pi)) sum_{|n-mu|<=X} e^{i[n phi + mu sgn(n-mu) pi]}
             e^{2 i (zeta_n - xi_n)},

    summed directly (``mode="direct"``: the weights once per call, then
    ``amplitudes._mode_sum`` over all angles) or by one stationary-phase
    engine call for all angles (``mode="stationary"``) over the integers
    from the first to the last of those modes.  Modes with no classical
    path to the edge are exponentially suppressed and skipped.  A scalar
    angle gives a complex, a 1-d array the scalar calls' values.
    """
    if mu == 0.0:
        raise ValueError("penetration asymptotics need mu != 0")
    p = _angles(phi, pole=True)
    params = VortexParams(X, mu)
    if not params.is_large_radius:
        raise ValueError("short-wavelength asymptotics need X >= 10")

    modes, _, near = _mode_window(params)
    n = modes[near]
    n = n[_reaches_edge(n, mu, X)]

    if mode == "direct":
        _, _, zeta, xi = _wkb_phases(n, mu, X)
        return _like(phi, -_mode_sum(p, n, flux_phase(n, mu) * np.exp(2j * (zeta - xi))))

    if mode == "stationary":
        chi, dchi, d2chi, d3chi = _penetration_phase(mu, X)
        report = poisson_stationary_sum(chi, dchi, (n[0], n[-1]), d2chi, d3chi, p)
        return _like(phi, -1j / math.sqrt(2.0 * math.pi) * report.total)

    raise ValueError(f"unknown mode {mode!r}; expected 'direct' or 'stationary'")


# ---------------------------------------------------------------------------
# closed-form cross sections (units of r_c)
# ---------------------------------------------------------------------------

def _envelope(phi: np.ndarray, X: float) -> np.ndarray:
    """sin^2(X phi/2)/sin^2(phi/2), with its forward limit X^2."""
    s_half = np.sin(phi / 2.0)
    return np.divide(np.sin(X * phi / 2.0), s_half, out=np.full_like(phi, X),
                     where=s_half != 0.0) ** 2


def fraunhofer_cs(phi, mu: float, X: float):
    """Edge-diffraction cross section in 1/k units,
    k d(sigma1)/(dz dphi) = (2/pi) sin^2(X phi/2)/sin^2(phi/2)
                            * cos^2(mu pi + X phi/2),
    with the analytic forward limit (2/pi) X^2 cos^2(mu pi)."""
    p = _angles(phi)
    return _like(phi, 2.0 / math.pi * _envelope(p, X) * np.cos(mu * math.pi + X * p / 2.0) ** 2)


def fraunhofer_cs_dphi(phi, mu: float, X: float):
    """Analytic d/dphi of :func:`fraunhofer_cs` (for fringe peak finding); the
    envelope is even, so the forward limit is -(X^3/pi) sin(2 mu pi).  No
    angle check: the sweep's lobe |phi| <= 2 pi/X reaches +-pi at kr_c = 2."""
    p = np.atleast_1d(np.asarray(phi, dtype=float))
    s_half = np.sin(p / 2.0)
    sh = np.where(s_half != 0.0, s_half, 1.0)
    sX = np.sin(X * p / 2.0)
    cX = np.cos(X * p / 2.0)
    cosf = np.cos(mu * math.pi + X * p / 2.0)
    sinf = np.sin(mu * math.pi + X * p / 2.0)
    denv = np.where(s_half != 0.0, X * sX * cX / sh ** 2 - sX * sX * np.cos(p / 2.0) / sh ** 3, 0.0)
    return _like(phi, 2.0 / math.pi * (denv * cosf ** 2 - _envelope(p, X) * X * cosf * sinf))


STRONG = "Strong"
WEAK = "Weak"
RAINBOW_BRANCH = "Rainbow"
OUTSIDE = "Outside"


def _ratio2(mu: float, X: float) -> float:
    """(X/2mu)^2 - 1; refuses |mu| <= 5e-155 X, where the square overflows."""
    if not abs(mu) > 5e-155 * X:
        raise ValueError(f"the rainbow and penetration forms need |mu| > {5e-155 * X:g}, "
                         f"got mu = {mu:g}: below it (X/2mu)^2 overflows")
    return (X / (2.0 * mu)) ** 2 - 1.0


def rainbow_window_halfwidth(mu: float, X: float) -> float:
    """Angular half-width of the Airy region around the rainbow angle,
    6 (2|mu|)^(-2/3) [(X/2mu)^2 - 1]^(-1/2)."""
    ratio2 = _ratio2(mu, X)
    if ratio2 <= 0.0:
        return 0.0
    return 6.0 * (2.0 * abs(mu)) ** (-2.0 / 3.0) / math.sqrt(ratio2)


def rainbow_cs(phi, mu: float, X: float):
    """Airy-regularised rainbow cross section in units of r_c (weak field),

        (2 pi / X) (2|mu|)^(4/3) [(X/2mu)^2 - 1]
            Ai^2[-sgn(mu) (phi + 2 arcsin(2mu/X)) (2|mu|)^(2/3)
                 sqrt((X/2mu)^2 - 1)].

    The prefactor follows from the uniform Airy replacement of the
    coalescing stationary-point pair in the penetration mode sum (the
    coefficient of Ai^2 is 2 pi (2/|chi'''|)^(2/3) in 1/k units) and is
    confirmed by the exact solver at the rainbow peak to better than 1%.
    """
    p = _angles(phi)
    if mu == 0.0 or 2.0 * abs(mu) > X:
        raise ValueError("rainbow form needs 0 < 2|mu| <= X")
    ratio2, sgn, phi_r = _ratio2(mu, X), math.copysign(1.0, mu), rainbow_angle(mu, X)
    arg = -sgn * (p - phi_r) * (2.0 * abs(mu)) ** (2.0 / 3.0) * math.sqrt(ratio2)
    if (arg < -specfun.SUPPORTED_MAX_AIRY).any():
        # the deepest angle that keeps arg in Ai's range, rounded inward to 6 decimals
        reach = specfun.SUPPORTED_MAX_AIRY / (2.0 * abs(mu)) ** (2.0 / 3.0) / math.sqrt(ratio2)
        deepest = sgn * math.floor(sgn * (phi_r + sgn * reach) * 1e6) / 1e6
        raise ValueError("angle too deep in the classical region for the rainbow form: needs phi "
                         f"{'<=' if mu > 0.0 else '>='} {deepest:.6f} (rainbow angle {phi_r:.6f})")
    # Ai^2 has underflowed to 0 by the supported edge, so clipping there loses nothing
    ai = specfun.airy_ai(np.minimum(arg, specfun.SUPPORTED_MAX_AIRY))
    return _like(phi, (2.0 * math.pi / X) * (2.0 * abs(mu)) ** (4.0 / 3.0) * ratio2 * ai ** 2)


def penetration_cs(phi, mu: float, X: float):
    """Penetration cross section in units of r_c, with its branch tag.

    Strong field (2|mu| > X): deflection to all angles, the classical
    form.  Weak field: inside the allowed window
    0 <= -sgn(mu) phi < 2 arcsin(2|mu|/X) the two-branch interference
    form; within the Airy width of the window edge the rainbow form;
    elsewhere 0 with the "Outside" tag.  A scalar angle gives a float and
    a str, an array of angles an array of values and one of tags.
    """
    _ratio2(mu, X)  # refuses mu = 0 and a flux too small for X/(2 mu) to square
    p = _angles(phi)
    r = X / (2.0 * mu)  # signed ratio r_B/r_c * sgn(e B)
    if 2.0 * abs(mu) > X:
        val = classical_cs(p, abs(r), 1 if mu > 0.0 else -1)
        return _like(phi, val), _like(phi, np.full(p.shape, STRONG))

    phi_extr = rainbow_angle(mu, X)
    width = rainbow_window_halfwidth(mu, X)
    rainbow = (width > 0.0) & (np.abs(p - phi_extr) <= width)
    t = -math.copysign(1.0, mu) * p
    root2 = 1.0 - r * r * np.sin(p / 2.0) ** 2
    # root2 <= 0 grazes the caustic outside the declared rainbow window: "Outside"
    weak = ~rainbow & (0.0 <= t) & (t < abs(phi_extr)) & ((r * r == 1.0) | (root2 > 0.0))

    val = np.zeros(p.shape)
    val[rainbow] = rainbow_cs(p[rainbow], mu, X)
    q, root2 = p[weak], root2[weak]
    if r * r == 1.0:
        # algebraic limit at 2|mu| = X: the interference coefficient
        # vanishes and sh (1 + cos phi)/|cos(phi/2)| collapses to |sin phi|;
        # evaluating the collapsed form avoids the 1 + cos phi cancellation
        val[weak] = np.abs(np.sin(q))
    else:
        sh = np.abs(np.sin(q / 2.0))
        osc = np.sin(4.0 * abs(mu) * np.arccos(np.minimum(abs(r) * sh, 1.0))
                     - 2.0 * X * sh * np.sqrt(root2))
        val[weak] = sh / np.sqrt(root2) * (1.0 + r * r * np.cos(q) + (r * r - 1.0) * osc)
    return _like(phi, val), _like(phi, np.select([rainbow, weak], [RAINBOW_BRANCH, WEAK], OUTSIDE))


def classical_cs(phi, rb_over_rc: float, sign_eB: int = +1):
    """Classical trajectory-counting cross section in units of r_c.

    Strong field (rb_over_rc < 1): all deflection angles,

        |sin(phi/2)| [ (1 + rho^2 cos phi) / (2 sqrt(1 - rho^2 sin^2(phi/2)))
                       - sgn(eB phi) rho cos(phi/2) ].

    Weak field (rb_over_rc > 1): one-sided window
    0 <= -sgn(eB) phi <= 2 arcsin(1/rho), diverging at the window edge
    (returned as ``math.inf``); rb_over_rc = 1 gives |sin phi| on the
    half-range.  Symmetric under (phi, eB) -> (-phi, -eB).
    """
    p = _angles(phi)
    if not (rb_over_rc > 0.0):
        raise ValueError("rb_over_rc must be positive")
    if sign_eB not in (+1, -1):
        raise ValueError("sign_eB must be +1 or -1")
    rho = rb_over_rc
    s = np.sin(p / 2.0)
    if rho < 1.0:
        return _like(phi, np.abs(s) * (
            0.5 * (1.0 + rho * rho * np.cos(p))
            / np.sqrt(1.0 - rho * rho * s ** 2)
            - (sign_eB * np.copysign(1.0, p)) * rho * np.cos(p / 2.0)))
    t = -sign_eB * p
    if rho == 1.0:
        return _like(phi, np.where(t >= 0.0, np.abs(np.sin(p)), 0.0))
    with np.errstate(invalid="ignore"):  # rho = inf (no field) at phi = 0: 0 * inf = nan
        root2 = 1.0 - rho * rho * s ** 2
        inside = (0.0 <= t) & (t <= 2.0 * math.asin(1.0 / rho))
        val = np.where(inside & (root2 <= 0.0), math.inf, 0.0)
        lit = inside & ~(root2 <= 0.0)
        val[lit] = np.abs(s[lit]) * (1.0 + rho * rho * np.cos(p[lit])) / np.sqrt(root2[lit])
    return _like(phi, val)
