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
  difference is itself a measured quantity in the tests).
* The classical deflection function 2 d/dn [xi - zeta] and its extremum
  (the rainbow angle -sgn(mu) 2 arcsin(2|mu|/X)).
* A Poisson-summation / stationary-phase evaluator for oscillatory mode
  sums, with Airy uniformisation where stationary points coalesce.
* The penetration amplitude evaluated from the WKB phases, either by
  direct summation or through the stationary-phase engine.
* Closed-form differential cross sections: Fraunhofer diffraction,
  strong- and weak-field penetration, the Airy-regularised rainbow, and
  the classical (trajectory-counting) results.  Penetration and classical
  values are in units of r_c; multiply by X for the 1/k convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import specfun
from .radial import near_mode_range

_CLAMP_TOL = 1e-12


def _clamped_acos(t: float) -> float:
    """arccos with the argument clamped to [-1, 1] within 1e-12; values
    further out are a usage error, not roundoff."""
    if t > 1.0:
        if t > 1.0 + _CLAMP_TOL:
            raise ValueError(f"arccos argument {t} beyond domain tolerance")
        t = 1.0
    elif t < -1.0:
        if t < -1.0 - _CLAMP_TOL:
            raise ValueError(f"arccos argument {t} beyond domain tolerance")
        t = -1.0
    return math.acos(t)


# ---------------------------------------------------------------------------
# WKB phases for the uniform field
# ---------------------------------------------------------------------------

class ForbiddenModeError(ValueError):
    """The mode has no classical region reaching the vortex edge."""


def xi_phase(n: float, mu: float, X: float) -> float:
    """Outside WKB phase at the edge,
    xi = sqrt(X^2 - nu^2) - nu arccos(nu/X), nu = |n - mu|.

    Raises
    ------
    ValueError
        If nu > X (turning point outside the vortex).
    """
    nu = abs(n - mu)
    if nu > X * (1.0 + _CLAMP_TOL):
        raise ValueError(f"mode order nu={nu} exceeds the radius X={X}")
    nu = min(nu, X)
    return math.sqrt(max(X * X - nu * nu, 0.0)) - nu * _clamped_acos(nu / X)


def xi_phase_dn(n: float, mu: float, X: float) -> float:
    """Analytic d(xi)/dn = -sgn(n - mu) arccos(nu/X)."""
    nu = abs(n - mu)
    if nu > X * (1.0 + _CLAMP_TOL):
        raise ValueError(f"mode order nu={nu} exceeds the radius X={X}")
    sgn = 1.0 if n >= mu else -1.0
    return -sgn * _clamped_acos(min(nu / X, 1.0))


def _uniform_acos_args(n: float, mu: float, X: float) -> tuple[float, float, float]:
    """The square root and the two arccos arguments of the closed inside
    phase; raises ForbiddenModeError when the mode cannot reach the edge."""
    R = X * X + 4.0 * mu * n
    if R < 0.0:
        raise ForbiddenModeError(f"mode n={n} classically forbidden at the edge (mu={mu}, X={X})")
    s = math.sqrt(R)
    if s == 0.0:
        raise ForbiddenModeError(f"mode n={n} grazes the edge (degenerate root)")
    try:
        a1 = _clamped_acos((X * X + 2.0 * mu * (n - mu)) / (X * s))
        a2 = _clamped_acos((-X * X + 2.0 * (n - mu) * n) / (X * s))
    except ValueError as exc:
        raise ForbiddenModeError(f"mode n={n}: {exc}") from exc
    return s, a1, a2


def turning_point(n: float, mu: float, X: float) -> float:
    """Inner turning point y0: the zero of 1 - ((n - gamma(y))/y)^2 closest
    below the edge, or 0 when the classical region extends to the axis."""
    if mu == 0.0:
        return abs(n)
    roots = []
    a = mu / (X * X)
    for sgn in (+1.0, -1.0):
        # branch: a y^2 + sgn*y - n = 0
        disc = sgn * sgn - 4.0 * a * (-n)
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        for r in ((-sgn + sq) / (2.0 * a), (-sgn - sq) / (2.0 * a)):
            if 0.0 < r <= X * (1.0 + 1e-12):
                g = mu * r * r / (X * X)
                if abs(r * r - (n - g) ** 2) <= 1e-7 * max(r * r, 1.0):
                    roots.append(min(r, X))
    return max(roots) if roots else 0.0


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
    nu = n - mu
    if abs(nu) > X * (1.0 + _CLAMP_TOL):
        raise ForbiddenModeError(f"mode order |n-mu|={abs(nu)} exceeds the radius X={X}")
    _, a1, a2 = _uniform_acos_args(n, mu, X)
    zeta = (0.5 * math.sqrt(max(X * X - nu * nu, 0.0))
            + (X * X + 2.0 * mu * n) / (4.0 * abs(mu)) * a1
            - 0.5 * abs(n) * a2)
    return WKBPhase(xi=xi_phase(n, mu, X), zeta=zeta, y0=turning_point(n, mu, X))


def zeta_phase_dn(n: float, mu: float, X: float) -> float:
    """Analytic d(zeta)/dn for the uniform profile,
    (1/2) sgn(mu) arccos(arg1) - (1/2) sgn(n) arccos(arg2)."""
    _, a1, a2 = _uniform_acos_args(n, mu, X)
    sn = 1.0 if n >= 0.0 else -1.0
    sm = 1.0 if mu >= 0.0 else -1.0
    return 0.5 * sm * a1 - 0.5 * sn * a2


def deflection(n: float, mu: float, X: float) -> float:
    """Classical scattering angle of mode n: 2 d/dn [xi - zeta].

    Zero everywhere for mu = 0; for 2|mu| <= X it has a single extremum
    -sgn(mu) 2 arcsin(2|mu|/X) at the rainbow mode, while for 2|mu| > X it
    is monotone over the allowed window.
    """
    if mu == 0.0:
        nu = abs(n - mu)
        if nu > X * (1.0 + _CLAMP_TOL):
            raise ForbiddenModeError(f"mode order nu={nu} exceeds the radius X={X}")
        return 0.0
    return 2.0 * (xi_phase_dn(n, mu, X) - zeta_phase_dn(n, mu, X))


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


def _bisect(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise RuntimeError("bisection bracket does not straddle a root")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) < tol:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def poisson_stationary_sum(chi: Callable[[float], float],
                           dchi: Callable[[float], float],
                           window: tuple[float, float],
                           d2chi: Callable[[float], float] | None = None,
                           d3chi: Callable[[float], float] | None = None,
                           samples: int = 2048) -> StationaryPhaseReport:
    """Evaluate sum over integers n in [window] of e^{i chi(n)} by Poisson
    summation and stationary phase.

    For each integer l reachable by chi'/(2 pi) on the window, the
    stationary points chi'(n) = 2 pi l are located by bisection on the
    monotone pieces of chi' and weighted with
    sqrt(2 pi / |chi''|) e^{-+ i pi/4} (sign from the convexity).  Where
    two stationary points of the same l approach within
    2 (2/|chi'''|)^(1/3) of an inflection, the pair is replaced by the
    uniform Airy contribution
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
    chi, dchi : callables
        Phase and its first derivative, smooth on the window.
    window : (float, float)
        Integer-inclusive summation window (-s_minus, s_plus).
    d2chi, d3chi : callables, optional
        Higher derivatives; central differences of dchi by default.
    samples : int
        Grid resolution for locating monotone pieces of chi'.

    Raises
    ------
    ValueError
        On non-finite phase data.
    RuntimeError
        If root bracketing fails to resolve.
    """
    a, b = float(window[0]), float(window[1])
    if not (b > a):
        raise ValueError("empty stationary-phase window")
    h_fd = max(1e-5, (b - a) * 1e-7)
    if d2chi is None:
        d2chi = lambda n: (dchi(n + h_fd) - dchi(n - h_fd)) / (2.0 * h_fd)
    if d3chi is None:
        d3chi = lambda n: (dchi(n + h_fd) - 2.0 * dchi(n) + dchi(n - h_fd)) / (h_fd * h_fd)

    grid = np.linspace(a, b, samples)
    dvals = np.array([dchi(float(g)) for g in grid])
    if not np.all(np.isfinite(dvals)):
        raise ValueError("phase derivative is not finite on the window")

    # monotone pieces of chi': split at sign changes of its slope
    slopes = np.diff(dvals)
    breakpoints = [a]
    for i in range(1, len(slopes)):
        if slopes[i - 1] == 0.0 or (slopes[i - 1] > 0.0) != (slopes[i] > 0.0):
            breakpoints.append(float(grid[i]))
    breakpoints.append(b)

    report = StationaryPhaseReport()
    l_lo = math.floor(dvals.min() / (2.0 * math.pi)) - 1
    l_hi = math.ceil(dvals.max() / (2.0 * math.pi)) + 1

    # locate all stationary points per l
    roots: dict[int, list[float]] = {}
    for l in range(l_lo, l_hi + 1):
        target = 2.0 * math.pi * l
        found: list[float] = []
        for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
            flo, fhi = dchi(lo) - target, dchi(hi) - target
            if flo == 0.0 and lo not in found:
                found.append(lo)
                continue
            if flo * fhi < 0.0:
                found.append(_bisect(lambda n: dchi(n) - target, lo, hi))
        interior = [r for r in found if a + 1e-9 < r < b - 1e-9]
        if interior:
            roots[l] = sorted(interior)

    for l, pts in sorted(roots.items()):
        consumed = [False] * len(pts)
        # pair neighbouring points across an inflection when too close
        for i in range(len(pts) - 1):
            if consumed[i] or consumed[i + 1]:
                continue
            n1, n2 = pts[i], pts[i + 1]
            c1, c2 = d2chi(n1), d2chi(n2)
            if c1 == 0.0 or c2 == 0.0 or (c1 > 0.0) == (c2 > 0.0):
                continue
            n_inf = _bisect(d2chi, n1, n2)
            a3 = d3chi(n_inf)
            if a3 == 0.0 or not math.isfinite(a3):
                continue
            scale = (2.0 / abs(a3)) ** (1.0 / 3.0)
            if (n2 - n1) < 2.0 * scale:
                a1c = dchi(n_inf) - 2.0 * math.pi * l
                phase = chi(n_inf) - 2.0 * math.pi * n_inf * l
                airy_arg = math.copysign(1.0, a3) * a1c * scale
                contrib = (cmath.exp(1j * phase) * 2.0 * math.pi * scale
                           * specfun.airy_ai(airy_arg))
                report.coalescences.append(AiryContribution(
                    n_inflection=n_inf, l=l, alpha1=a1c, alpha3=a3,
                    contribution=contrib))
                consumed[i] = consumed[i + 1] = True
        for i, n_j in enumerate(pts):
            if consumed[i]:
                continue
            curv = d2chi(n_j)
            if curv == 0.0 or not math.isfinite(curv):
                raise RuntimeError(f"degenerate stationary point at n={n_j}")
            convexity = "up" if curv < 0.0 else "down"
            phase = chi(n_j) - 2.0 * math.pi * n_j * l
            weight = math.sqrt(2.0 * math.pi / abs(curv))
            corner = cmath.exp(-1j * math.pi / 4.0) if curv < 0.0 else cmath.exp(1j * math.pi / 4.0)
            contrib = cmath.exp(1j * phase) * weight * corner
            report.points.append(StationaryPoint(
                n=n_j, l=l, convexity=convexity, contribution=contrib))

    def _endpoint(n_end: float, outward: float) -> complex:
        cot = math.cos(dchi(n_end) / 2.0) / math.sin(dchi(n_end) / 2.0) \
            if math.sin(dchi(n_end) / 2.0) != 0.0 else math.inf
        cot = max(-_COT_CLAMP, min(_COT_CLAMP, cot))
        return cmath.exp(1j * chi(n_end)) * (0.5 + outward * cot / 2j)

    report.endpoints = _endpoint(b, +1.0) + _endpoint(a, -1.0)
    report.total = (sum(p.contribution for p in report.points)
                    + sum(c.contribution for c in report.coalescences)
                    + report.endpoints)
    return report


# ---------------------------------------------------------------------------
# penetration amplitude from the WKB phases
# ---------------------------------------------------------------------------

def _penetration_phase(phi: float, mu: float, X: float):
    """chi(n) = n phi + (|n| - |n-mu|) pi + 2 [zeta_n - xi_n] and its
    analytic n-derivative.  The continuous (|n| - |n-mu|) pi representation
    of the flux phase splices smoothly into the WKB actions: the corner
    slopes at n = 0 and n = mu cancel exactly."""

    def chi(n: float) -> float:
        return (n * phi + (abs(n) - abs(n - mu)) * math.pi
                + 2.0 * (zeta_phase(n, mu, X).zeta - xi_phase(n, mu, X)))

    def dchi(n: float) -> float:
        sgn_n = 1.0 if n >= 0.0 else -1.0
        sgn_nm = 1.0 if n >= mu else -1.0
        return (phi + (sgn_n - sgn_nm) * math.pi
                + 2.0 * (zeta_phase_dn(n, mu, X) - xi_phase_dn(n, mu, X)))

    return chi, dchi


@lru_cache(maxsize=64)
def _direct_phase_terms(mu: float, X: float, lo: int, hi: int) -> tuple:
    """Angle-independent phase terms (n, mu sgn(n-mu) pi, 2 (zeta_n - xi_n))
    of the classically allowed modes in [lo, hi], in index order."""
    out = []
    for n in range(lo, hi + 1):
        try:
            ph = zeta_phase(n, mu, X)
        except ForbiddenModeError:
            continue
        sgn = 1.0 if n >= mu else -1.0
        out.append((n, mu * sgn * math.pi, 2.0 * (ph.zeta - ph.xi)))
    return tuple(out)


def f2_asymptotic(phi: float, mu: float, X: float, mode: str = "direct") -> complex:
    """Penetration amplitude in units 1/sqrt(k) from the WKB phases,

        f2 = -(i/sqrt(2 pi)) sum_{|n-mu|<=X} e^{i[n phi + mu sgn(n-mu) pi]}
             e^{2 i (zeta_n - xi_n)},

    summed directly (``mode="direct"``) or via the stationary-phase engine
    (``mode="stationary"``).  Modes with no classical path to the edge are
    exponentially suppressed and skipped.
    """
    if mu == 0.0:
        raise ValueError("penetration asymptotics need mu != 0")
    if not (0.0 < abs(phi) < math.pi):
        raise ValueError("phi must lie in (-pi, pi), excluding 0")
    if X < 10.0:
        raise ValueError("short-wavelength asymptotics need X >= 10")

    lo, hi = near_mode_range(mu, X)

    if mode == "direct":
        total = 0.0 + 0.0j
        comp = 0.0 + 0.0j
        for n, flux, wkb in _direct_phase_terms(mu, X, lo, hi):
            arg = n * phi + flux + wkb
            term = cmath.exp(1j * arg)
            t = total + term
            if abs(total) >= abs(term):
                comp += (total - t) + term
            else:
                comp += (term - t) + total
            total = t
        return -1j / math.sqrt(2.0 * math.pi) * (total + comp)

    if mode == "stationary":
        chi, dchi = _penetration_phase(phi, mu, X)
        # stay clear of the window edges where zeta loses its classical
        # region; the edge modes do not contribute to penetration
        pad = 1e-6 * X
        report = poisson_stationary_sum(chi, dchi, (lo + pad, hi - pad))
        return -1j / math.sqrt(2.0 * math.pi) * report.total

    raise ValueError(f"unknown mode {mode!r}; expected 'direct' or 'stationary'")


# ---------------------------------------------------------------------------
# closed-form cross sections (units of r_c)
# ---------------------------------------------------------------------------

def fraunhofer_cs(phi: float, mu: float, X: float) -> float:
    """Edge-diffraction cross section in 1/k units,
    k d(sigma1)/(dz dphi) = (2/pi) sin^2(X phi/2)/sin^2(phi/2)
                            * cos^2(mu pi + X phi/2),
    with the analytic forward limit (2/pi) X^2 cos^2(mu pi)."""
    if not (-math.pi < phi < math.pi):
        raise ValueError("phi must lie in (-pi, pi)")
    if phi == 0.0:
        return 2.0 / math.pi * X * X * math.cos(mu * math.pi) ** 2
    env = (math.sin(X * phi / 2.0) / math.sin(phi / 2.0)) ** 2
    return 2.0 / math.pi * env * math.cos(mu * math.pi + X * phi / 2.0) ** 2


def fraunhofer_cs_dphi(phi: float, mu: float, X: float) -> float:
    """Analytic d/dphi of :func:`fraunhofer_cs` (for fringe peak finding)."""
    if phi == 0.0:
        return (2.0 / math.pi) * X * X * (-X) * math.sin(2.0 * (mu * math.pi))
    s_half = math.sin(phi / 2.0)
    sX = math.sin(X * phi / 2.0)
    cX = math.cos(X * phi / 2.0)
    cosf = math.cos(mu * math.pi + X * phi / 2.0)
    sinf = math.sin(mu * math.pi + X * phi / 2.0)
    env = (sX / s_half) ** 2
    denv = (X * sX * cX / s_half ** 2
            - sX * sX * math.cos(phi / 2.0) / s_half ** 3)
    return 2.0 / math.pi * (denv * cosf ** 2 - env * X * cosf * sinf)


STRONG = "Strong"
WEAK = "Weak"
RAINBOW_BRANCH = "Rainbow"
OUTSIDE = "Outside"


def rainbow_window_halfwidth(mu: float, X: float) -> float:
    """Angular half-width of the Airy region around the rainbow angle,
    6 (2|mu|)^(-2/3) [(X/2mu)^2 - 1]^(-1/2)."""
    ratio2 = (X / (2.0 * mu)) ** 2 - 1.0
    if ratio2 <= 0.0:
        return 0.0
    return 6.0 * (2.0 * abs(mu)) ** (-2.0 / 3.0) / math.sqrt(ratio2)


def rainbow_cs(phi: float, mu: float, X: float) -> float:
    """Airy-regularised rainbow cross section in units of r_c (weak field),

        (2 pi / X) (2|mu|)^(4/3) [(X/2mu)^2 - 1]
            Ai^2[-sgn(mu) (phi + 2 arcsin(2mu/X)) (2|mu|)^(2/3)
                 sqrt((X/2mu)^2 - 1)].

    The prefactor follows from the uniform Airy replacement of the
    coalescing stationary-point pair in the penetration mode sum (the
    coefficient of Ai^2 is 2 pi (2/|chi'''|)^(2/3) in 1/k units) and is
    confirmed by the exact solver at the rainbow peak to better than 1%.
    """
    if mu == 0.0 or 2.0 * abs(mu) > X:
        raise ValueError("rainbow form needs 0 < 2|mu| <= X")
    ratio2 = (X / (2.0 * mu)) ** 2 - 1.0
    if ratio2 == 0.0:
        return 0.0
    arg = (-math.copysign(1.0, mu)
           * (phi + 2.0 * math.asin(2.0 * mu / X))
           * (2.0 * abs(mu)) ** (2.0 / 3.0) * math.sqrt(ratio2))
    if arg > specfun.SUPPORTED_MAX_AIRY:
        return 0.0
    if arg < -specfun.SUPPORTED_MAX_AIRY:
        raise ValueError("angle too deep in the classical region for the rainbow form")
    return (2.0 * math.pi / X) * (2.0 * abs(mu)) ** (4.0 / 3.0) * ratio2 \
        * specfun.airy_ai(arg) ** 2


def penetration_cs(phi: float, mu: float, X: float) -> tuple[float, str]:
    """Penetration cross section in units of r_c, with its branch tag.

    Strong field (2|mu| > X): deflection to all angles, the classical
    form.  Weak field: inside the allowed window
    0 <= -sgn(mu) phi < 2 arcsin(2|mu|/X) the two-branch interference
    form; within the Airy width of the window edge the rainbow form;
    elsewhere 0 with the "Outside" tag.
    """
    if mu == 0.0:
        raise ValueError("penetration needs mu != 0")
    if not (-math.pi < phi < math.pi):
        raise ValueError("phi must lie in (-pi, pi)")
    r = X / (2.0 * mu)  # signed ratio r_B/r_c * sgn(e B)
    if 2.0 * abs(mu) > X:
        return classical_cs(phi, abs(r), 1 if mu > 0.0 else -1), STRONG

    phi_extr = rainbow_angle(mu, X)
    width = rainbow_window_halfwidth(mu, X)
    if width > 0.0 and abs(phi - phi_extr) <= width:
        return rainbow_cs(phi, mu, X), RAINBOW_BRANCH

    inside = 0.0 <= -math.copysign(1.0, mu) * phi < abs(phi_extr)
    if not inside:
        return 0.0, OUTSIDE

    sh = abs(math.sin(phi / 2.0))
    if r * r == 1.0:
        # algebraic limit at 2|mu| = X: the interference coefficient
        # vanishes and sh (1 + cos phi)/|cos(phi/2)| collapses to |sin phi|;
        # evaluating the collapsed form avoids the 1 + cos phi cancellation
        return abs(math.sin(phi)), WEAK
    root2 = 1.0 - r * r * math.sin(phi / 2.0) ** 2
    if root2 <= 0.0:
        # grazes the caustic outside the declared rainbow window
        return 0.0, OUTSIDE
    osc = math.sin(4.0 * abs(mu) * _clamped_acos(min(abs(r) * sh, 1.0))
                   - 2.0 * X * sh * math.sqrt(root2))
    val = sh / math.sqrt(root2) * (1.0 + r * r * math.cos(phi) + (r * r - 1.0) * osc)
    return val, WEAK


def classical_cs(phi: float, rb_over_rc: float, sign_eB: int = +1) -> float:
    """Classical trajectory-counting cross section in units of r_c.

    Strong field (rb_over_rc < 1): all deflection angles,

        |sin(phi/2)| [ (1 + rho^2 cos phi) / (2 sqrt(1 - rho^2 sin^2(phi/2)))
                       - sgn(eB phi) rho cos(phi/2) ].

    Weak field (rb_over_rc > 1): one-sided window
    0 <= -sgn(eB) phi <= 2 arcsin(1/rho), diverging at the window edge
    (returned as ``math.inf``); rb_over_rc = 1 gives |sin phi| on the
    half-range.  Symmetric under (phi, eB) -> (-phi, -eB).
    """
    if not (-math.pi < phi < math.pi):
        raise ValueError("phi must lie in (-pi, pi)")
    if not (rb_over_rc > 0.0):
        raise ValueError("rb_over_rc must be positive")
    if sign_eB not in (+1, -1):
        raise ValueError("sign_eB must be +1 or -1")
    rho = rb_over_rc
    if rho < 1.0:
        return abs(math.sin(phi / 2.0)) * (
            0.5 * (1.0 + rho * rho * math.cos(phi))
            / math.sqrt(1.0 - rho * rho * math.sin(phi / 2.0) ** 2)
            - (sign_eB * math.copysign(1.0, phi)) * rho * math.cos(phi / 2.0))
    if rho == 1.0:
        if 0.0 <= -sign_eB * phi <= math.pi:
            return abs(math.sin(phi))
        return 0.0
    edge = 2.0 * math.asin(1.0 / rho)
    t = -sign_eB * phi
    if not (0.0 <= t <= edge):
        return 0.0
    root2 = 1.0 - rho * rho * math.sin(phi / 2.0) ** 2
    if root2 <= 0.0:
        return math.inf
    return abs(math.sin(phi / 2.0)) * (1.0 + rho * rho * math.cos(phi)) / math.sqrt(root2)
