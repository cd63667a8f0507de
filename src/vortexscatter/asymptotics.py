"""
Semiclassical machinery and closed-form cross sections.

Contents
--------
* WKB radial phases of the outside and (uniform-field) inside problem,

      xi_n(X)   = integral_{nu}^{X}  du sqrt(1 - (nu/u)^2),  nu = |n - mu|,
      zeta_n(X) = integral_{y0}^{X} du sqrt(1 - ((n - gamma(u))/u)^2),

  with the closed evaluation of both for the uniform profile
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
* A Poisson-summation / stationary-phase evaluator for oscillatory mode
  sums (chi' on an array grid, chi'' and chi''' in closed form), with
  Airy uniformisation where stationary points coalesce.
* ``bracketed_roots``: every bracket of a grid scan refined at once
  (safeguarded Newton or Illinois steps on arrays); it serves the
  stationary points, the Airy inflections and the CLI's fringe peaks.
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import specfun
from .amplitudes import _mode_sum
from .radial import near_mode_range

_EDGE_TOL = 1e-12  # relative roundoff slack of the edge tests |n - mu| <= X and y0 <= X


# ---------------------------------------------------------------------------
# WKB phases for the uniform field
# ---------------------------------------------------------------------------

class ForbiddenModeError(ValueError):
    """The mode has no classical region reaching the vortex edge."""


def _edge_angles(n, mu: float, X: float):
    """The edge angles of the closed WKB phases (module docstring), for
    arrays of n.

    Returns n as a float array, W = sqrt(X^2 - nu^2) with nu = n - mu, the
    mask of the modes that reach the edge (|nu| <= X within 1e-12 and
    X^2 + 4 mu n > 0; elsewhere the values are placeholders), and the
    angles a0, a1, a2.  With s = sqrt(X^2 + 4 mu n), a1 and a2 are
    arccos((X^2 + 2 mu nu)/(X s)) and arccos((2 nu n - X^2)/(X s)), since
    (X s)^2 - (X^2 + 2 mu nu)^2 = 4 mu^2 W^2 and
    (X s)^2 - (2 nu n - X^2)^2 = 4 n^2 W^2.
    """
    n = np.asarray(n, dtype=float)
    nu = n - mu
    W = np.sqrt(np.maximum(X * X - nu * nu, 0.0))
    ok = (np.abs(nu) <= X * (1.0 + _EDGE_TOL)) & (X * X + 4.0 * mu * n > 0.0)
    return (n, W, ok, np.arctan2(W, np.abs(nu)),
            np.arctan2(2.0 * abs(mu) * W, X * X + 2.0 * mu * nu),
            np.arctan2(2.0 * np.abs(n) * W, 2.0 * nu * n - X * X))


def _require_allowed(n: np.ndarray, ok: np.ndarray, mu: float, X: float) -> None:
    if not ok.all():
        raise ForbiddenModeError(f"mode n={n[~ok][0]}: no classical path to the edge (mu={mu}, X={X})")


def xi_phase(n, mu: float, X: float):
    """Outside WKB phase at the edge,
    xi = sqrt(X^2 - nu^2) - nu arccos(nu/X), nu = |n - mu|; accepts arrays.

    Raises
    ------
    ValueError
        If nu > X (turning point outside the vortex).
    """
    n, W, _, a0, _, _ = _edge_angles(n, mu, X)
    nu = np.abs(n - mu)
    if (nu > X * (1.0 + _EDGE_TOL)).any():
        raise ValueError(f"mode order nu={nu.max()} exceeds the radius X={X}")
    return W - nu * a0


def _wkb_phases(n, mu: float, X: float):
    """n as a float array, the edge mask of :func:`_edge_angles`, and the
    inside and outside phases zeta_n and xi_n (placeholders off the mask);
    mu != 0."""
    n, W, ok, a0, a1, a2 = _edge_angles(n, mu, X)
    zeta = 0.5 * W + (X * X + 2.0 * mu * n) / (4.0 * abs(mu)) * a1 - 0.5 * np.abs(n) * a2
    return n, ok, zeta, W - np.abs(n - mu) * a0


def turning_point(n: float, mu: float, X: float) -> float:
    """Inner turning point y0: the zero of 1 - ((n - gamma(y))/y)^2 closest
    below the edge, or 0 when the classical region extends to the axis."""
    if mu == 0.0:
        return abs(n)
    # the zeros solve a y^2 +- y - n = 0; both branches share the
    # discriminant, and the product-of-roots form q/a, -n/q of each does
    # not cancel however small a is
    a = mu / (X * X)
    disc = 1.0 + 4.0 * a * n
    if disc < 0.0:
        return 0.0
    roots = []
    for sgn in (+1.0, -1.0):
        q = -0.5 * sgn * (1.0 + math.sqrt(disc))
        roots += [q / a, -n / q]
    return max((min(r, X) for r in roots if 0.0 < r <= X * (1.0 + _EDGE_TOL)), default=0.0)


@dataclass(frozen=True)
class WKBPhase:
    """Edge phases of one mode: outside xi, inside zeta, turning point y0."""

    xi: float
    zeta: float
    y0: float


def zeta_phase(n: float, mu: float, X: float) -> WKBPhase:
    """Inside WKB phase at the edge for the uniform profile.

    Parameters
    ----------
    n, mu, X : float
        Mode index (may be real), flux, radius; mu must be nonzero.

    Raises
    ------
    ForbiddenModeError
        If the mode has no classical region reaching x = X.
    """
    if mu == 0.0:
        raise ValueError("zeta_phase needs mu != 0; use xi_phase for the free field")
    n, ok, zeta, xi = _wkb_phases(n, mu, X)
    _require_allowed(n, ok, mu, X)
    return WKBPhase(xi=float(xi), zeta=float(zeta), y0=turning_point(float(n), mu, X))


def deflection(n: float, mu: float, X: float) -> float:
    """Classical scattering angle of mode n: 2 d/dn [xi - zeta], with
    d(xi)/dn = -sgn(n - mu) a0 and d(zeta)/dn = (sgn(mu) a1 - sgn(n) a2)/2
    (the angles of the module docstring); accepts arrays.

    Zero everywhere for mu = 0; for 2|mu| <= X it has a single extremum
    -sgn(mu) 2 arcsin(2|mu|/X) at the rainbow mode, while for 2|mu| > X it
    is monotone over the allowed window.
    """
    if mu == 0.0:
        xi_phase(n, mu, X)  # the same domain error as for mu != 0
        return 0.0
    n, _, ok, a0, a1, a2 = _edge_angles(n, mu, X)
    _require_allowed(n, ok, mu, X)
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

@dataclass(frozen=True)
class StationaryPoint:
    n: float
    l: int
    convexity: str  # "up" for chi'' < 0, "down" for chi'' > 0
    contribution: complex


@dataclass(frozen=True)
class AiryContribution:
    n_inflection: float
    l: int
    alpha1: float
    alpha3: float
    contribution: complex


@dataclass
class StationaryPhaseReport:
    """Result of the stationary-phase evaluation of sum_n e^{i chi(n)}."""

    points: list[StationaryPoint] = field(default_factory=list)
    coalescences: list[AiryContribution] = field(default_factory=list)
    endpoints: complex = 0.0 + 0.0j
    total: complex = 0.0 + 0.0j


_COT_CLAMP = 10.0
_SAMPLES = 2048  # grid on which chi' is sampled to bracket the stationary points
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


def poisson_stationary_sum(chi: Callable[[np.ndarray], np.ndarray],
                           dchi: Callable[[np.ndarray], np.ndarray],
                           window: tuple[float, float],
                           d2chi: Callable[[np.ndarray], np.ndarray],
                           d3chi: Callable[[np.ndarray], np.ndarray]) -> StationaryPhaseReport:
    """Evaluate sum over integers n in [window] of e^{i chi(n)} by Poisson
    summation and stationary phase.

    chi' is evaluated once, as an array, on a grid of the window.  For each
    integer l reachable by chi'/(2 pi), the stationary points
    chi'(n) = 2 pi l are the exact zeros of chi' - 2 pi l on the grid plus
    one root per sign change between neighbouring grid points; the roots
    of every l are refined in one :func:`bracketed_roots` call (Newton
    steps with chi'', xtol 1e-12).  Each point is weighted with
    sqrt(2 pi / |chi''|) e^{-+ i pi/4} (sign from the convexity).  Where
    two stationary points of the same l approach within
    2 (2/|chi'''|)^(1/3) of an inflection (a root of chi'', refined with
    chi'''), the pair is replaced by the uniform Airy contribution
    2 pi (2/|a3|)^(1/3) Ai(sgn(a3) a1 (2/|a3|)^(1/3)) e^{i(chi - 2 pi n l)}
    evaluated at the inflection (a1 = chi' - 2 pi l there).  The two
    half-weight endpoint terms of the Poisson formula are added together
    with the resummed first-order boundary terms of the non-stationary
    integrals, (1/2i) cot(chi'/2) e^{i chi} at each end (this makes the
    evaluation exact for linear phases); the cot factor is clamped when
    an endpoint is itself nearly stationary, where the boundary
    asymptotics degenerates into a half-saddle.

    Parameters
    ----------
    chi, dchi, d2chi, d3chi : callables
        The phase, smooth on the window, and its first three derivatives.
        Each is called on 1-d arrays of points and must act elementwise; a
        constant return value is broadcast.  chi and chi'' are evaluated
        once on the array of all stationary points and inflections.  Pass
        closed forms for the derivatives, as chi'' and chi''' set the point
        weights and the Airy scale.
    window : (float, float)
        Integer-inclusive summation window (-s_minus, s_plus).

    Raises
    ------
    ValueError
        On non-finite phase data.
    RuntimeError
        On a degenerate stationary point outside an Airy pair.
    """
    a, b = float(window[0]), float(window[1])
    if not (b > a):
        raise ValueError("empty stationary-phase window")

    def on(fn, n):
        return np.broadcast_to(fn(n), n.shape)

    grid = np.linspace(a, b, _SAMPLES)  # hits both ends exactly
    dvals = on(dchi, grid)
    if not np.all(np.isfinite(dvals)):
        raise ValueError("phase derivative is not finite on the window")

    l_lo = math.floor(dvals.min() / (2.0 * math.pi)) - 1
    l_hi = math.ceil(dvals.max() / (2.0 * math.pi)) + 1
    targets = 2.0 * math.pi * np.arange(l_lo, l_hi + 1)
    sign = np.sign(dvals - targets[:, None])
    zr, zc = np.nonzero(sign == 0.0)
    br, bc = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    roots = bracketed_roots(lambda n, i: dchi(n) - targets[br[i]], grid[bc], grid[bc + 1],
                            dvals[bc] - targets[br], dvals[bc + 1] - targets[br],
                            df=lambda n, i: d2chi(n))
    rows, pts = np.concatenate([zr, br]), np.concatenate([grid[zc], roots])
    inner = (a + 1e-9 < pts) & (pts < b - 1e-9)
    order = np.lexsort((pts[inner], rows[inner]))  # by l, then by n
    rows, pts = rows[inner][order], pts[inner][order]
    curv = on(d2chi, pts)

    # neighbouring points of one l on either side of an inflection may
    # form an Airy pair
    j = np.nonzero((rows[:-1] == rows[1:]) & (np.sign(curv[:-1]) * np.sign(curv[1:]) < 0.0))[0]
    n_inf = bracketed_roots(lambda n, i: on(d2chi, n), pts[j], pts[j + 1], curv[j], curv[j + 1],
                            df=lambda n, i: d3chi(n))
    chis = on(chi, np.concatenate([pts, n_inf, [a, b]]))
    phase = chis[:-2] - targets[np.concatenate([rows, rows[j]])] * np.concatenate([pts, n_inf])
    a1s = (on(dchi, n_inf) - targets[rows[j]]).tolist()

    report = StationaryPhaseReport()
    free = np.ones(pts.size, dtype=bool)
    for k, (m, a3) in enumerate(zip(j.tolist(), on(d3chi, n_inf).tolist())):
        if not (free[m] and free[m + 1]) or a3 == 0.0 or not math.isfinite(a3):
            continue
        scale = (2.0 / abs(a3)) ** (1.0 / 3.0)
        if pts[m + 1] - pts[m] < 2.0 * scale:
            airy_arg = math.copysign(1.0, a3) * a1s[k] * scale
            contrib = (cmath.exp(1j * phase[pts.size + k]) * 2.0 * math.pi * scale
                       * specfun.airy_ai(airy_arg))
            report.coalescences.append(AiryContribution(
                n_inflection=float(n_inf[k]), l=l_lo + int(rows[m]), alpha1=a1s[k], alpha3=a3,
                contribution=contrib))
            free[m] = free[m + 1] = False

    curv, bad = curv[free], ~np.isfinite(curv[free]) | (curv[free] == 0.0)
    if bad.any():
        raise RuntimeError(f"degenerate stationary point at n={pts[free][bad][0]}")
    contrib = (np.exp(1j * phase[:pts.size][free]) * np.sqrt(2.0 * math.pi / np.abs(curv))
               * np.where(curv < 0.0, cmath.exp(-1j * math.pi / 4.0), cmath.exp(1j * math.pi / 4.0)))
    report.points = [StationaryPoint(n=n, l=l_lo + r, convexity="up" if c < 0.0 else "down",
                                     contribution=z)
                     for n, r, c, z in zip(pts[free].tolist(), rows[free].tolist(),
                                           curv.tolist(), contrib.tolist())]

    def _endpoint(d_end: float, chi_end: float, outward: float) -> complex:
        half = d_end / 2.0
        cot = math.cos(half) / math.sin(half) if math.sin(half) != 0.0 else math.inf
        cot = max(-_COT_CLAMP, min(_COT_CLAMP, cot))
        return cmath.exp(1j * chi_end) * (0.5 + outward * cot / 2j)

    (d_a, d_b), (chi_a, chi_b) = dvals[[0, -1]].tolist(), chis[-2:].tolist()
    report.endpoints = _endpoint(d_b, chi_b, +1.0) + _endpoint(d_a, chi_a, -1.0)
    report.total = (sum(p.contribution for p in report.points)
                    + sum(c.contribution for c in report.coalescences)
                    + report.endpoints)
    return report


# ---------------------------------------------------------------------------
# penetration amplitude from the WKB phases
# ---------------------------------------------------------------------------

def _penetration_phase(phi: float, mu: float, X: float):
    """chi(n) = n phi + (|n| - |n-mu|) pi + 2 [zeta_n - xi_n] and its first
    three n-derivatives in closed form, all taking arrays.  The
    continuous (|n| - |n-mu|) pi representation of the flux phase splices
    smoothly into the WKB actions: the corner slopes at n = 0 and n = mu
    cancel exactly.  With R = X^2 + 4 mu n and W = sqrt(X^2 - (n-mu)^2),

        chi''  = -4 mu (n + mu) / (R W),
        chi''' = -4 mu / (R W) [1 - (n + mu) (4 mu/R - (n - mu)/W^2)],

    so chi'' vanishes at the rainbow mode n = -mu, where
    chi''' = -4 mu / (X^2 - 4 mu^2)^(3/2)."""

    def chi(n):
        n, ok, zeta, xi = _wkb_phases(n, mu, X)
        _require_allowed(n, ok, mu, X)
        return n * phi + (np.abs(n) - np.abs(n - mu)) * math.pi + 2.0 * (zeta - xi)

    def dchi(n):
        n = np.asarray(n, dtype=float)
        corners = np.where(n >= 0.0, math.pi, -math.pi) - np.where(n >= mu, math.pi, -math.pi)
        return phi + corners - deflection(n, mu, X)

    def d2chi(n):
        return -4.0 * mu * (n + mu) / ((X * X + 4.0 * mu * n) * np.sqrt(X * X - (n - mu) ** 2))

    def d3chi(n):
        R, W2 = X * X + 4.0 * mu * n, X * X - (n - mu) ** 2
        return -4.0 * mu / (R * np.sqrt(W2)) * (1.0 - (n + mu) * (4.0 * mu / R - (n - mu) / W2))

    return chi, dchi, d2chi, d3chi


def f2_asymptotic(phi, mu: float, X: float, mode: str = "direct"):
    """Penetration amplitude in units 1/sqrt(k) from the WKB phases,

        f2 = -(i/sqrt(2 pi)) sum_{|n-mu|<=X} e^{i[n phi + mu sgn(n-mu) pi]}
             e^{2 i (zeta_n - xi_n)},

    summed directly (``mode="direct"``: the weights once per call, then
    ``amplitudes._mode_sum`` over all angles) or via the stationary-phase
    engine (``mode="stationary"``, one run per angle).  Modes with no
    classical path to the edge are exponentially suppressed and skipped.
    A scalar angle gives a complex, a 1-d array the scalar calls' values.
    """
    p = np.asarray(phi, dtype=float)
    if mu == 0.0:
        raise ValueError("penetration asymptotics need mu != 0")
    if p.ndim > 1 or not ((0.0 < np.abs(p)) & (np.abs(p) < math.pi)).all():
        raise ValueError("phi must be a scalar or 1-d array in (-pi, pi), excluding 0")
    if X < 10.0:
        raise ValueError("short-wavelength asymptotics need X >= 10")

    lo, hi = near_mode_range(mu, X)

    if mode == "direct":
        n, ok, zeta, xi = _wkb_phases(np.arange(lo, hi + 1), mu, X)
        # mu sgn(n - mu) pi: the (|n| - |n - mu|) pi of the stationary phase
        # modulo 2 pi, without its cancellation at large |n|
        flux = mu * np.where(n[ok] >= mu, 1.0, -1.0) * math.pi
        weights = np.exp(1j * (flux + 2.0 * (zeta[ok] - xi[ok])))
        return _like(phi, -_mode_sum(p, n[ok].astype(int), weights))

    if mode == "stationary":
        # stay clear of the window edges where zeta loses its classical
        # region; the edge modes do not contribute to penetration
        window, f2 = (lo + 1e-6 * X, hi - 1e-6 * X), []
        for a in np.atleast_1d(p).tolist():
            chi, dchi, d2chi, d3chi = _penetration_phase(a, mu, X)
            report = poisson_stationary_sum(chi, dchi, window, d2chi, d3chi)
            f2.append(-1j / math.sqrt(2.0 * math.pi) * report.total)
        return _like(phi, np.array(f2))

    raise ValueError(f"unknown mode {mode!r}; expected 'direct' or 'stationary'")


# ---------------------------------------------------------------------------
# closed-form cross sections (units of r_c)
# ---------------------------------------------------------------------------

def _angles(phi) -> np.ndarray:
    """phi as a float array of at least one dimension, checked to lie in
    (-pi, pi); a scalar then takes the same array kernels as a grid (numpy
    scalars take other paths for powers), so both give the same bits."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if not ((-math.pi < phi) & (phi < math.pi)).all():
        raise ValueError("phi must lie in (-pi, pi)")
    return phi


def _like(phi, value):
    """value as a Python scalar for a scalar phi, else unchanged."""
    return value if np.ndim(phi) else value.item()


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
    range check: the fringe lobe |phi| <= 2 pi/X passes pi for X < 2."""
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
