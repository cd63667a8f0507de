"""Semiclassical phases, deflection, the stationary-phase engine and the
closed-form cross sections, checked against quadrature and brute force."""

import cmath
import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import ai_zeros

from vortexscatter import asymptotics as asy
from vortexscatter import specfun
from vortexscatter.amplitudes import default_angle_grid
from vortexscatter.asymptotics import (
    ForbiddenModeError,
    classical_cs,
    deflection,
    f2_asymptotic,
    fraunhofer_cs,
    fraunhofer_cs_dphi,
    penetration_cs,
    poisson_stationary_sum,
    rainbow_angle,
    rainbow_cs,
    rainbow_window_halfwidth,
)
from vortexscatter.radial import VortexParams, _mode_window


def near_modes(mu, X):
    """The near modes |n - mu| <= X of the package's one mode window."""
    n, _, near = _mode_window(VortexParams(X, mu))
    return n[near]


# ---------------------------------------------------------------------------
# outside phase
# ---------------------------------------------------------------------------

def quad_xi(n, mu, X):
    nu = abs(n - mu)
    if nu == 0.0:
        return X
    val, _ = quad(lambda u: math.sqrt(max(1.0 - (nu / u) ** 2, 0.0)), nu, X, limit=400)
    return val


def xi_closed(n, mu, X):
    """xi_n of one mode that reaches the edge, from the package's array pass;
    at mu = 0, where that pass divides by |mu|, W - |nu| a0 from its edge
    angles."""
    if mu != 0.0:
        return wkb(n, mu, X)[1]
    _, W, ok, a0, _, _ = asy._edge_angles(n, mu, X)
    assert ok
    return float(W - abs(n) * a0)


def test_xi_trivial_values():
    assert xi_closed(0.7, 0.7, 20.0) == pytest.approx(20.0)
    assert xi_closed(10.7, 0.7, 10.0) == pytest.approx(0.0, abs=1e-12)
    # nu = X/2 has the closed value X (sqrt(3)/2 - pi/6)
    X = 14.0
    assert xi_closed(X / 2, 0.0, X) == pytest.approx(X * (math.sqrt(3) / 2 - math.pi / 6), rel=1e-12)


def test_xi_against_quadrature():
    for n, mu, X in [(3, 0.5, 20.0), (-7, 0.2, 12.0), (40, 2.0, 60.0), (5, 0.0, 12.0)]:
        assert xi_closed(n, mu, X) == pytest.approx(quad_xi(n, mu, X), abs=1e-9)


# ---------------------------------------------------------------------------
# inside phase (uniform profile)
# ---------------------------------------------------------------------------

def wkb(n, mu, X):
    """(zeta_n, xi_n) of one mode with a classical path to the edge, from
    the package's array pass."""
    _, ok, zeta, xi = asy._wkb_phases(n, mu, X)
    assert ok
    return float(zeta), float(xi)


def turning_point(n, mu, X):
    """Inner turning point y0: the largest zero in (0, X] of
    1 - ((n - gamma(y))/y)^2, from the 50-digit roots of
    a y^2 +- y - n = 0 with a = mu/X^2; 0 when the classical region
    reaches the axis."""
    with mpmath.workdps(50):
        a = mpmath.mpf(mu) / X ** 2
        disc = 1 + 4 * a * n
        if disc < 0:
            return 0.0
        sq = mpmath.sqrt(disc)
        roots = [(-sgn + r) / (2 * a) for sgn in (1, -1) for r in (sq, -sq)]
        return float(max((r for r in roots if 0 < r <= X), default=0))


def quad_zeta(n, mu, X):
    """Independent quadrature of the inside phase with the endpoint
    singularity removed by u = y0 + t^2."""
    y0 = turning_point(n, mu, X)

    def p2(u):
        g = mu * u * u / (X * X)
        return 1.0 - ((n - g) / u) ** 2

    if y0 <= 0.0:
        val, _ = quad(lambda u: math.sqrt(max(p2(u), 0.0)), 0.0, X, limit=400)
        return val
    val, _ = quad(lambda t: 2.0 * t * math.sqrt(max(p2(y0 + t * t), 0.0)),
                  0.0, math.sqrt(X - y0), limit=400)
    return val


def test_zeta_closed_vs_quadrature():
    cases = [(3, 0.5, 20.0), (0, 2.0, 20.0), (10, 10.0, 100.0), (-5, 3.0, 30.0),
             (25, 25.0, 100.0), (3, -2.0, 20.0), (-3, -5.0, 40.0), (7, 1.3, 25.0)]
    for n, mu, X in cases:
        assert wkb(n, mu, X)[0] == pytest.approx(quad_zeta(n, mu, X), abs=1e-8)


def test_zeta_small_flux_limit_is_xi():
    # numeric limit scan: zeta -> xi as the flux vanishes
    n, X = 3, 20.0
    errs = [abs(wkb(n, mu, X)[0] - xi_closed(n, 0.0, X))
            for mu in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_zeta_on_axis_mode():
    # n = mu: quadrature oracle for the smallest nontrivial case
    assert wkb(0.5, 0.5, 10.0)[0] == pytest.approx(quad_zeta(0.5, 0.5, 10.0), abs=1e-6)


def test_boundary_slope_matches_outside_momentum():
    # d(zeta)/dy at the upper limit y = X equals sqrt(1 - ((n-mu)/X)^2),
    # the same as d(xi)/dy there: differentiate the quadrature path in its
    # upper limit while the field profile stays that of the radius-X vortex
    n, mu, X = 4, 1.1, 30.0
    h = 1e-5
    y0 = turning_point(n, mu, X)

    def p(u):
        g = mu * u * u / (X * X)
        return math.sqrt(max(1.0 - ((n - g) / u) ** 2, 0.0))

    val_hi, _ = quad(lambda t: 2 * t * p(y0 + t * t), 0.0, math.sqrt(X - y0), limit=400)
    val_lo, _ = quad(lambda t: 2 * t * p(y0 + t * t), 0.0, math.sqrt(X - h - y0), limit=400)
    slope = (val_hi - val_lo) / h
    expected = math.sqrt(1.0 - ((n - mu) / X) ** 2)
    assert slope == pytest.approx(expected, rel=1e-4)


def test_zeta_forbidden_mode():
    # no zeta without a classical path to the edge: nu > X, or the inner
    # and outer turning points merge at the edge (X^2 + 4 mu n = 0)
    for n, mu, X in [(40.0, 2.0, 30.0), (-15.0, 15.0, 30.0)]:
        assert not asy._wkb_phases(n, mu, X)[1]
        with pytest.raises(ForbiddenModeError):
            deflection(n, mu, X)
    with pytest.raises(ValueError):
        deflection(40.0, 0.0, 30.0)  # the free field, by the same edge test


def mp_wkb_phases(n, mu, X):
    """zeta_n and xi_n from their arccos forms in mpmath at the working
    precision, for the exact values of the float inputs."""
    n, mu, X = mpmath.mpf(n), mpmath.mpf(mu), mpmath.mpf(X)
    nu = n - mu
    W = mpmath.sqrt(X * X - nu * nu)
    xs = X * mpmath.sqrt(X * X + 4 * mu * n)
    zeta = (W / 2 + (X * X + 2 * mu * n) / (4 * abs(mu)) * mpmath.acos((X * X + 2 * mu * nu) / xs)
            - abs(n) / 2 * mpmath.acos((2 * nu * n - X * X) / xs))
    return zeta, W - abs(nu) * mpmath.acos(abs(nu) / X)


@pytest.mark.parametrize("X", [30.0, 100.0, 480.0])
def test_wkb_phases_match_mpmath_at_every_flux(X):
    # the closed phases hold to a few ulp of X from the tiny-flux limit,
    # where t1 = 1 - O(mu^2) and the old arccos(t1) form lost up to 86 rad,
    # to the strong field 2|mu| = 2X, on modes across the window and at its edges
    worst = 0.0
    with mpmath.workdps(50):
        for mu in [s * m for m in (1e-5, 1e-3, 0.1, X / 4, X) for s in (1.0, -1.0)]:
            modes = near_modes(mu, X)
            lo, hi = int(modes[0]), int(modes[-1])
            for n in sorted({lo, hi, round(mu), 0, *np.linspace(lo, hi, 9).round()}):
                if not lo <= n <= hi or X * X + 4.0 * mu * n <= 0.0:
                    continue
                zeta, xi = wkb(float(n), mu, X)
                mp_zeta, mp_xi = mp_wkb_phases(n, mu, X)
                worst = max(worst, abs(zeta - float(mp_zeta)), abs(xi - float(mp_xi)))
    assert worst <= 2e-13


# ---------------------------------------------------------------------------
# deflection
# ---------------------------------------------------------------------------

def test_deflection_free_field_is_zero():
    for n in (-5, 0, 9):
        assert deflection(n, 0.0, 20.0) == 0.0
    # an array of n gives an array, and a mode beyond the edge is refused
    # with the error of mu != 0
    n = np.array([-5, 0, 9, 20])
    assert np.array_equal(deflection(n, 0.0, 20.0), np.zeros(4))
    with pytest.raises(ForbiddenModeError):
        deflection(np.array([0, 21]), 0.0, 20.0)


def test_deflection_matches_central_differences():
    # away from the n = 0 and n = mu representation corners, where the
    # phase picks up an exact 2 pi slope jump and is not differentiable
    h = 1e-5
    for n, mu, X in [(3, 0.5, 20.0), (-12, 5.0, 40.0), (20.0, 25.0, 100.0), (7, -2.0, 30.0)]:
        (zeta_hi, xi_hi), (zeta_lo, xi_lo) = wkb(n + h, mu, X), wkb(n - h, mu, X)
        fd = (2.0 * (xi_hi - zeta_hi) - 2.0 * (xi_lo - zeta_lo)) / (2 * h)
        assert deflection(n, mu, X) == pytest.approx(fd, abs=1e-6)


def test_deflection_extremum_is_rainbow_angle():
    # the extremum sits at the mirror mode n = -mu; the search bracket
    # avoids the exact-2pi representation jumps at n = 0 and n = mu
    for mu, X, bounds in [(10.0, 100.0, (-35.0, -2.0)), (-7.0, 50.0, (2.0, 18.0))]:
        sign = 1.0 if mu > 0 else -1.0
        res = minimize_scalar(lambda n: sign * deflection(n, mu, X),
                              bounds=bounds, method="bounded")
        extremal = sign * res.fun
        expected = -math.copysign(2.0 * math.asin(2.0 * abs(mu) / X), mu)
        assert extremal == pytest.approx(expected, abs=1e-9)
        assert abs(res.x - (-mu)) < 0.1
        assert rainbow_angle(mu, X) == pytest.approx(expected)


def test_deflection_monotone_for_strong_field():
    # 2|mu| > X: no extremum inside the allowed window; the sampled values
    # are unwrapped mod 2 pi to undo the representation jumps at n = 0, mu
    mu, X = 30.0, 40.0
    ns = np.linspace(mu - X + 0.5, mu + X - 0.5, 200)
    d = np.unwrap([deflection(float(n), mu, X) for n in ns])
    diffs = np.diff(d)
    assert np.all(diffs > 0.0) or np.all(diffs < 0.0)


# ---------------------------------------------------------------------------
# stationary-phase engine
# ---------------------------------------------------------------------------

def brute_force_sum(chi, lo, hi):
    return sum(cmath.exp(1j * chi(n)) for n in range(lo, hi + 1))


def test_engine_quadratic_phase():
    a = 0.01
    rep = poisson_stationary_sum(lambda n: -a * n * n, lambda n: -2 * a * n,
                                 (-100, 100), d2chi=lambda n: -2 * a,
                                 d3chi=lambda n: 0.0)
    b = brute_force_sum(lambda n: -a * n * n, -100, 100)
    assert abs(rep.total - b) <= 0.03 * abs(b)
    assert len(rep.points) == 1 and not len(rep.airy)
    assert rep.points["d2chi"][0] < 0.0  # a maximum of the phase
    assert rep.points["n"][0] == pytest.approx(0.0, abs=1e-9)


def test_engine_linear_phase_endpoints_only():
    c = 1.0
    rep = poisson_stationary_sum(lambda n: c * n, lambda n: c, (-500, 500),
                                 d2chi=lambda n: 0.0, d3chi=lambda n: 0.0)
    b = brute_force_sum(lambda n: c * n, -500, 500)
    assert not len(rep.points) and not len(rep.airy)
    assert rep.total == rep.endpoints
    # the window holds 1001 unit terms yet the sum is O(1), and the
    # resummed endpoint form reproduces it exactly
    assert abs(b) < 3.0
    assert abs(rep.total - b) <= 1e-9


def test_engine_coalescing_cubic_takes_airy_branch():
    beta, alpha = 1e-4, -0.04  # stationary pair at +-20, inside the Airy width
    chi = lambda n: beta * n ** 3 / 3 + alpha * n
    rep = poisson_stationary_sum(chi, lambda n: beta * n * n + alpha, (-100, 100),
                                 d2chi=lambda n: 2 * beta * n,
                                 d3chi=lambda n: 2 * beta)
    b = brute_force_sum(chi, -100, 100)
    assert len(rep.airy) and not len(rep.points)
    assert rep.airy["alpha3"][0] == pytest.approx(2 * beta)
    assert abs(rep.total - b) <= 0.05 * abs(b)


def test_engine_separated_cubic_uses_standard_branch():
    beta, alpha = 2e-4, -0.9   # pair at +-67, well outside the Airy width
    chi = lambda n: beta * n ** 3 / 3 + alpha * n
    rep = poisson_stationary_sum(chi, lambda n: beta * n * n + alpha, (-100, 100),
                                 d2chi=lambda n: 2 * beta * n,
                                 d3chi=lambda n: 2 * beta)
    b = brute_force_sum(chi, -100, 100)
    assert len(rep.points) == 2 and not len(rep.airy)
    assert set(np.sign(rep.points["d2chi"])) == {-1.0, 1.0}
    assert abs(rep.total - b) <= 0.05 * abs(b)


def test_engine_rejects_bad_input():
    zero = lambda n: 0.0
    with pytest.raises(ValueError):
        poisson_stationary_sum(lambda n: n, lambda n: math.nan, (-10, 10), zero, zero)
    with pytest.raises(ValueError):
        poisson_stationary_sum(lambda n: n, lambda n: 1.0, (10, 10), zero, zero)
    # an infinite window end gave nan+nanj after a numpy RuntimeWarning
    for window in ((-10, math.inf), (-math.inf, 10), (math.nan, 10)):
        with pytest.raises(ValueError, match="window must be finite and non-empty"):
            poisson_stationary_sum(lambda n: n, lambda n: 1.0, window, zero, zero)
    with pytest.raises(ValueError, match="must be finite"):
        poisson_stationary_sum(lambda n: n, lambda n: 1.0, (-10, 10), zero, zero, [0.1, math.nan])


def test_engine_refuses_fractional_window_ends():
    # its endpoint terms are exact only for integer ends; a non-finite end
    # keeps its own message
    zero = lambda n: 0.0
    for window in ((-10.5, 10), (-10, 9.75)):
        with pytest.raises(ValueError, match="window ends must be integers"):
            poisson_stationary_sum(lambda n: n, lambda n: 1.0, window, zero, zero)
    with pytest.raises(ValueError, match="window must be finite and non-empty"):
        poisson_stationary_sum(lambda n: n, lambda n: 1.0, (-10.5, math.inf), zero, zero)


def test_engine_report_total_is_sum_of_parts():
    a = 0.01
    rep = poisson_stationary_sum(lambda n: -a * n * n, lambda n: -2 * a * n,
                                 (-100, 100), lambda n: -2 * a, lambda n: 0.0)
    parts = sum(rep.points["term"].tolist()) + sum(rep.airy["term"].tolist()) + rep.endpoints
    assert rep.total == parts
    # at every angle of an array call, from the rows that carry its index
    X, mu = 100.0, -3.596
    phis = np.array([-0.3, 0.093, 0.135, 0.5])
    chi, dchi, d2chi, d3chi = asy._penetration_phase(mu, X)
    rep = poisson_stationary_sum(chi, dchi, penetration_window(mu, X), d2chi, d3chi, phis)
    assert rep.total.shape == rep.endpoints.shape == phis.shape
    assert len(rep.airy) and len(rep.points)
    for j in range(len(phis)):
        parts = (sum(rep.points["term"][rep.points["angle"] == j].tolist())
                 + sum(rep.airy["term"][rep.airy["angle"] == j].tolist()) + rep.endpoints[j])
        assert rep.total[j] == parts


def test_engine_takes_overlapping_airy_pairs_left_to_right():
    # neighbouring pairs that share a point are taken as a left-to-right
    # pass takes them: of a run of two the first, of a run of three the
    # first and the third
    b, g = 1e-6, 3e-4  # chi' = b n^3 - g n: points 0, +-17.3, inflections +-10
    rep = poisson_stationary_sum(lambda n: b * n ** 4 / 4 - g * n * n / 2,
                                 lambda n: b * n ** 3 - g * n, (-100, 100),
                                 lambda n: 3 * b * n * n - g, lambda n: 6 * b * n)
    assert rep.airy["n"] == pytest.approx([-10.0], abs=1e-9)
    assert rep.points["n"] == pytest.approx([math.sqrt(g / b)], abs=1e-9)
    b = 1e-7  # chi' = b (n^2 - 25)(n^2 - 100): points +-5, +-10, inflections 0, +-7.9
    rep = poisson_stationary_sum(lambda n: b * (n ** 5 / 5 - 125 * n ** 3 / 3 + 2500 * n),
                                 lambda n: b * (n * n - 25) * (n * n - 100), (-30, 30),
                                 lambda n: b * (4 * n ** 3 - 250 * n),
                                 lambda n: b * (12 * n * n - 250))
    assert rep.airy["n"] == pytest.approx([-math.sqrt(62.5), math.sqrt(62.5)], abs=1e-9)
    assert not len(rep.points)


def oracle_roots(dchi, target, window):
    """Interior roots of chi' - target bracketed on a grid 16 times finer
    than the engine's and refined by brentq."""
    a, b = window
    grid = np.linspace(a, b, 16 * 2048)
    g = np.broadcast_to(dchi(grid), grid.shape) - target
    cross = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)[0]
    roots = [brentq(lambda n: dchi(n) - target, grid[i], grid[i + 1], xtol=1e-13)
             for i in cross]
    return [r for r in roots if a + 1e-9 < r < b - 1e-9]


def penetration_window(mu, X):
    """The window f2_asymptotic hands to the engine: the integer ends of
    the near modes of the mode window."""
    modes = near_modes(mu, X)
    return float(modes[0]), float(modes[-1])


@pytest.mark.parametrize("case", ["quadratic", "on a sample", "separated cubic", "penetration"])
def test_engine_finds_every_stationary_point(case):
    phis = [0.0]
    if case == "quadratic":
        a = 0.01
        phase = (lambda n: -a * n * n, lambda n: -2 * a * n, lambda n: -2 * a, lambda n: 0.0)
        window = (-100.0, 100.0)
    elif case == "on a sample":  # chi' = 2 pi exactly at the scan's sample n = 1024
        phase = (lambda n: math.pi * n * n / 1024, lambda n: math.pi * n / 512,
                 lambda n: math.pi / 512, lambda n: 0.0)
        window = (0.0, 2047.0)
    elif case == "separated cubic":
        beta, alpha = 2e-4, -0.9
        phase = (lambda n: beta * n ** 3 / 3 + alpha * n, lambda n: beta * n * n + alpha,
                 lambda n: 2 * beta * n, lambda n: 2 * beta)
        window = (-100.0, 100.0)
    else:  # three angles in one call, each checked on its own rows
        mu, X = 10.0, 100.0
        phase = asy._penetration_phase(mu, X)
        window = penetration_window(mu, X)
        phis = [-0.3, -0.4, 0.2]
    rep = poisson_stationary_sum(phase[0], phase[1], window, phase[2], phase[3], phis)
    found = 0
    for j, phi in enumerate(phis):
        slope = lambda n: phi + phase[1](n)
        points, pairs = rep.points[rep.points["angle"] == j], rep.airy[rep.airy["angle"] == j]
        dvals = slope(np.linspace(*window, 16 * 2048))
        for l in range(math.floor(dvals.min() / (2 * math.pi)) - 1,
                       math.ceil(dvals.max() / (2 * math.pi)) + 2):
            roots = oracle_roots(slope, 2 * math.pi * l, window)
            for n in points["n"][points["l"] == l]:
                assert min(abs(n - r) for r in roots) <= 1e-9
            lone, paired = np.count_nonzero(points["l"] == l), np.count_nonzero(pairs["l"] == l)
            assert len(roots) == lone + 2 * paired
            found += len(roots)
    assert found >= len(phis)


ENGINE = asy.poisson_stationary_sum


def f2_engine_report(monkeypatch, phi, mu, X):
    """The engine's report inside f2_asymptotic("stationary")."""
    reports = []

    def spy(*args):
        reports.append(ENGINE(*args))
        return reports[-1]

    monkeypatch.setattr(asy, "poisson_stationary_sum", spy)
    f2_asymptotic(phi, mu, X, "stationary")
    monkeypatch.setattr(asy, "poisson_stationary_sum", ENGINE)
    return reports[0]


def test_f2_stationary_sums_over_the_near_modes(monkeypatch):
    # the engine gets the integer ends of the near modes, the modes the
    # direct sum takes, with no offset
    windows = []

    def spy(chi, dchi, window, *rest):
        windows.append(window)
        return ENGINE(chi, dchi, window, *rest)

    monkeypatch.setattr(asy, "poisson_stationary_sum", spy)
    for X, mu in ((100.0, 10.0), (480.0, -48.37), (30.0, 2.634)):
        f2_asymptotic(-0.3, mu, X, "stationary")
        modes = near_modes(mu, X)
        assert windows[-1] == (modes[0], modes[-1])
        assert all(float(end).is_integer() for end in windows[-1])


@pytest.mark.parametrize("X, mu", [(100.0, 10.0), (480.0, 48.37)])
def test_engine_on_the_f2_window_is_2pi_periodic(X, mu):
    # on integer ends e^{i n phi} is 2 pi-periodic at every term; ends
    # moved in by 1e-6 X broke this by 9.3e-4 and 2.1e-3 of |f2|
    phis = np.array([-1.1, -0.3, 0.4])
    chi, dchi, d2chi, d3chi = asy._penetration_phase(mu, X)
    total = poisson_stationary_sum(chi, dchi, penetration_window(mu, X), d2chi, d3chi,
                                   np.concatenate([phis, phis + 2.0 * math.pi])).total
    assert (np.abs(total[3:] - total[:3]) <= 1e-12 * np.abs(total[:3])).all()


@pytest.mark.parametrize("X, mu, phi", [(100.0, -3.596, 0.135), (30.0, -2.634, 0.331),
                                        (100.0, 10.0, -0.4)])
def test_f2_airy_coefficient_is_closed_form(monkeypatch, X, mu, phi):
    # at the rainbow mode n = -mu, chi''' = -4 mu / (X^2 - 4 mu^2)^(3/2)
    rep = f2_engine_report(monkeypatch, phi, mu, X)
    assert len(rep.airy)
    expected = -4.0 * mu / (X * X - 4.0 * mu * mu) ** 1.5
    for n, alpha3 in zip(rep.airy["n"], rep.airy["alpha3"]):
        assert n == pytest.approx(-mu, abs=1e-9)
        assert alpha3 == pytest.approx(expected, rel=1e-12)


def test_f2_stationary_does_not_depend_on_roundoff(monkeypatch):
    # one ulp on every other chi' value must not move the result
    X, mu = 100.0, -3.596
    phis = (0.093, 0.11, 0.135, 0.14)
    clean = [f2_asymptotic(phi, mu, X, "stationary") for phi in phis]
    exact_phase = asy._penetration_phase

    def nudged_phase(mu, X):
        chi, dchi, d2chi, d3chi = exact_phase(mu, X)
        calls = itertools.count()

        def dchi_ulp(n):
            v = np.array(dchi(n), dtype=float)
            if v.ndim:
                v[::2] = np.nextafter(v[::2], np.inf)
            elif next(calls) % 2 == 0:
                v = np.nextafter(v, np.inf)
            return v

        return chi, dchi_ulp, d2chi, d3chi

    monkeypatch.setattr(asy, "_penetration_phase", nudged_phase)
    for phi, ref in zip(phis, clean):
        assert abs(f2_asymptotic(phi, mu, X, "stationary") - ref) <= 1e-12 * abs(ref)
    # and at the inner angle the closed forms stay near the direct sum
    direct = f2_asymptotic(phis[0], mu, X, "direct")
    assert abs(clean[0] - direct) <= 0.05 * abs(direct)


@pytest.mark.parametrize("X, mu", [(100.0, 10.0), (100.0, -3.596), (40.0, 30.0), (40.0, -30.0)])
def test_penetration_phase_derivatives_match_differences(X, mu):
    # weak (2|mu| < X) and strong field, both signs of mu, away from the
    # representation corners n = 0 and n = mu and from the zero of chi''
    # at n = -mu
    _, dchi, d2chi, d3chi = asy._penetration_phase(mu, X)
    h = 1e-4 * X
    checked = 0
    for n in np.linspace(mu - 0.8 * X, mu + 0.8 * X, 17):
        n = float(n)
        if min(abs(n), abs(n - mu), abs(n + mu)) < 0.05 * X or X * X + 4 * mu * n < 0.1 * X * X:
            continue
        assert d2chi(n) == pytest.approx((dchi(n + h) - dchi(n - h)) / (2 * h), rel=1e-6)
        assert d3chi(n) == pytest.approx((d2chi(n + h) - d2chi(n - h)) / (2 * h), rel=1e-6)
        checked += 1
    assert checked >= 8


def test_penetration_phase_curvature_is_infinite_at_the_window_ends():
    # at X = 100, mu = 10 both window ends lie on |n - mu| = X, where the
    # second and third derivatives diverge like 1/W: +-inf, with no
    # RuntimeWarning
    _, _, d2chi, d3chi = asy._penetration_phase(10.0, 100.0)
    ends = np.array(penetration_window(10.0, 100.0))
    assert np.abs(ends - 10.0).tolist() == [100.0, 100.0]
    assert np.isinf(d2chi(ends)).all() and np.isinf(d3chi(ends)).all()
    # at X = 399.75, mu = 199.75 the rainbow mode n = -mu lies in the first
    # cell of the engine's grid, next to the end n = -200 where chi'' is
    # infinite: that bracket of the inflection search is bisected
    assert penetration_window(199.75, 399.75)[0] == -200.0
    f2 = f2_asymptotic(np.array([-1.1, -0.3, 0.4]), 199.75, 399.75, "stationary")
    assert np.isfinite(f2).all()


def test_penetration_phase_has_no_roundoff_floor():
    # at a stationary point of this small-flux case chi used to jump by
    # 1.1e-9 over a step of 1e-10, as arccos magnified one ulp of
    # t1 = 1 - 2.1e-6 about 480-fold (NOTES.md); the step of the engine's
    # phase n phi + chi must follow phi + chi'
    X, mu, phi, n, h = 480.0, 3.398, -0.00413, -471.61, 1e-10
    chi, dchi, _, _ = asy._penetration_phase(mu, X)
    x = np.array([n, n + h])
    jump = np.diff(chi(x) + x * phi)[0]
    assert abs(jump - (phi + float(dchi(n))) * h) <= 1e-12


# ---------------------------------------------------------------------------
# bracketed roots
# ---------------------------------------------------------------------------

def grid_brackets(f, lo, hi, samples):
    """Sign-change brackets of f on a grid, as bracketed_roots takes them."""
    grid = np.linspace(lo, hi, samples)
    v = f(grid)
    k = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0.0)[0]
    return grid[k], grid[k + 1], v[k], v[k + 1]


def penetration_brackets(X, mu, phi):
    """The engine's brackets of phi + chi' - 2 pi l for every l, with their
    targets, and phi + chi' and chi''."""
    _, slope, d2chi, _ = asy._penetration_phase(mu, X)
    dchi = lambda n: phi + slope(n)
    window = penetration_window(mu, X)
    d = dchi(np.linspace(*window, 2048))
    out = []
    for l in range(math.floor(d.min() / (2 * math.pi)) - 1, math.ceil(d.max() / (2 * math.pi)) + 2):
        t = 2 * math.pi * l
        out += [(t, *br) for br in zip(*grid_brackets(lambda n: dchi(n) - t, *window, 2048))]
    assert out
    return dchi, d2chi, [np.array(c) for c in zip(*out)]


@pytest.mark.parametrize("X, mu, phi", [(30.0, -2.634, 0.331), (100.0, 10.0, -0.3),
                                        (480.0, 100.37, -0.5)])
def test_bracketed_roots_match_brentq_on_penetration_phase(X, mu, phi):
    dchi, d2chi, (t, a, b, fa, fb) = penetration_brackets(X, mu, phi)
    roots = asy.bracketed_roots(lambda n, i: dchi(n) - t[i], a, b, fa, fb,
                                df=lambda n, i: d2chi(n))
    for r, tk, ak, bk in zip(roots, t, a, b):
        ref = brentq(lambda n: float(dchi(n)) - tk, ak, bk, xtol=1e-12)
        assert abs(r - ref) <= 2e-12  # both lie within their 1e-12 of the root
    # each root alone carries the same bits as in the batch
    for k in range(len(roots)):
        alone = asy.bracketed_roots(lambda n, i: dchi(n) - t[k], a[k], b[k], fa[k], fb[k],
                                    df=lambda n, i: d2chi(n))
        assert alone[0] == roots[k]


@pytest.mark.parametrize("mu, X", [(0.3, 60.0), (0.5, 100.0), (0.77, 480.0)])
def test_bracketed_roots_match_brentq_on_fringe_peaks(mu, X):
    a, b, fa, fb = grid_brackets(lambda p: fraunhofer_cs_dphi(p, mu, X),
                                 -2 * math.pi / X, 2 * math.pi / X, 801)
    roots = asy.bracketed_roots(lambda p, i: fraunhofer_cs_dphi(p, mu, X), a, b, fa, fb,
                                xtol=1e-15, rtol=8.9e-16)
    assert len(roots) >= 2
    for r, ak, bk in zip(roots, a, b):
        ref = brentq(lambda p: fraunhofer_cs_dphi(p, mu, X), ak, bk, xtol=1e-15, rtol=8.9e-16)
        assert abs(r - ref) <= 4e-15


def test_bracketed_roots_exact_zero_at_an_end():
    never = lambda x, i: pytest.fail("the ends must not be evaluated again")
    roots = asy.bracketed_roots(never, [0.0, 1.0], [1.0, 3.0], [-1.0, 0.0], [0.0, 2.0])
    assert roots.tolist() == [1.0, 1.0]
    assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bracketed_roots_illinois_does_not_stall_where_regula_falsi_does():
    # strongly convex: plain false position keeps the right end for ever,
    # and after 1e5 steps its bracket is still 0.2 wide
    f = lambda x: x ** 20 - 0.01
    calls = []

    def counted(x, i):
        calls.append(x.size)
        return f(x)

    root = asy.bracketed_roots(counted, 0.0, 1.0, f(0.0), f(1.0), xtol=1e-14)[0]
    assert abs(root - brentq(f, 0.0, 1.0, xtol=1e-14)) <= 2e-14
    assert len(calls) <= 40


def test_bracketed_roots_refuses_bad_brackets_and_reports_no_convergence():
    f = lambda x, i: x * x - 2.0
    with pytest.raises(ValueError):
        asy.bracketed_roots(f, 1.5, 2.0, 0.25, 2.0)
    for df in (None, lambda x, i: 2.0 * x):
        # sqrt(2) is no float, so with no tolerance no step ever converges
        with pytest.raises(RuntimeError):
            asy.bracketed_roots(f, 1.0, 2.0, -1.0, 2.0, df=df, xtol=0.0, rtol=0.0)


# ---------------------------------------------------------------------------
# penetration amplitude from phases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["direct", "stationary"])
def test_f2_refuses_a_radius_below_ten(mode):
    # the bound of VortexParams.is_large_radius, which the CLI warns on
    assert VortexParams(10.0, 1.0).is_large_radius
    with pytest.raises(ValueError, match="short-wavelength asymptotics need X >= 10"):
        f2_asymptotic(0.3, 1.0, 9.99, mode)


def test_f2_direct_vs_stationary():
    d = f2_asymptotic(-0.3, 10.0, 100.0, "direct")
    s = f2_asymptotic(-0.3, 10.0, 100.0, "stationary")
    assert abs(d - s) <= 0.05 * abs(d)


def f2_direct_per_angle(phi, mu, X):
    """The direct WKB sum with every mode's phases evaluated at the angle."""
    lo, hi = math.ceil(mu - X), math.floor(mu + X)
    total = comp = 0.0 + 0.0j
    for n in range(lo, hi + 1):
        if abs(n - mu) > X:
            continue
        _, ok, zeta, xi = asy._wkb_phases(n, mu, X)
        if not ok:
            continue
        sgn = 1.0 if n >= mu else -1.0
        term = cmath.exp(1j * (n * phi + mu * sgn * math.pi + 2.0 * float(zeta - xi)))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return -1j / math.sqrt(2.0 * math.pi) * (total + comp)


def term_scale(mu, X):
    """K/sqrt(2 pi) for the K allowed modes: the size of the direct sum's
    terms times their count, the scale its roundoff is measured against."""
    K = np.count_nonzero(X * X + 4.0 * mu * near_modes(mu, X) > 0.0)
    return K / math.sqrt(2.0 * math.pi)


def test_f2_direct_matches_per_angle_loop():
    # the mode-sum kernel adds the terms in another order than the loop
    for mu, X in ((10.0, 100.0), (-3.7, 40.0), (60.0, 50.0)):
        for phi in (-2.5, -0.3, 0.01, 1.7):
            err = abs(f2_asymptotic(phi, mu, X, "direct") - f2_direct_per_angle(phi, mu, X))
            assert err <= 1e-14 * term_scale(mu, X)


@pytest.mark.parametrize("X", [30.0, 100.0, 480.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("mode", ["direct", "stationary"])
def test_f2_array_equals_scalar_calls_bit_for_bit(mode, sign, X):
    mu = sign * X / 10.0
    # the direct grid spans more than one block of the mode-sum kernel
    grid = default_angle_grid(257 if mode == "direct" else 101)
    scalars = [f2_asymptotic(phi, mu, X, mode) for phi in grid.tolist()]
    assert all(type(v) is complex for v in scalars)
    assert np.array_equal(f2_asymptotic(grid, mu, X, mode), np.array(scalars))


@pytest.mark.parametrize("mode", ["direct", "stationary"])
def test_f2_of_no_angles_is_an_empty_array(mode):
    out = f2_asymptotic(np.array([]), 10.0, 100.0, mode)
    assert out.shape == (0,) and out.dtype == complex


def test_f2_stationary_memory_on_a_fine_grid():
    # the grid scan runs one block of angles at a time: an angles x levels
    # x samples array would take hundreds of MB here
    grid = default_angle_grid(2001)
    tracemalloc.start()
    try:
        f2 = f2_asymptotic(grid, 48.37, 480.0, "stationary")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(f2).all()
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_f2_stationary_samples_the_phase_once_for_all_angles(monkeypatch):
    # chi' is sampled on the engine's grid once per call, not once per angle
    sizes = []
    exact_phase = asy._penetration_phase

    def spied_phase(mu, X):
        chi, dchi, d2chi, d3chi = exact_phase(mu, X)

        def dchi_spy(n):
            sizes.append(np.size(n))
            return dchi(n)

        return chi, dchi_spy, d2chi, d3chi

    monkeypatch.setattr(asy, "_penetration_phase", spied_phase)
    f2 = f2_asymptotic(default_angle_grid(301), 10.37, 100.0, "stationary")
    assert len(f2) == 301
    assert sizes.count(asy._SAMPLES) == 1


@functools.lru_cache(maxsize=None)
def mp_direct_phases(mu, X):
    """(n, mu sgn(n - mu) pi + 2 (zeta_n - xi_n)) of every allowed mode,
    at 40 digits."""
    with mpmath.workdps(40):
        return [(n, mpmath.mpf(mu) * (1 if n >= mu else -1) * mpmath.pi + 2 * (zeta - xi))
                for n in near_modes(mu, X).tolist() if X * X + 4.0 * mu * n > 0.0
                for zeta, xi in [mp_wkb_phases(n, mu, X)]]


def mp_f2_direct(phi, mu, X):
    """The direct sum with every phase and exponential at 40 digits."""
    with mpmath.workdps(40):
        total = mpmath.fsum(mpmath.expj(n * mpmath.mpf(phi) + ph)
                            for n, ph in mp_direct_phases(mu, X))
        return complex(-1j / mpmath.sqrt(2 * mpmath.pi) * total)


@pytest.mark.parametrize("phi", [-0.3, 0.01])
def test_f2_direct_small_flux_matches_mpmath_sum(phi):
    # mu = 1e-3 at X = 480, where arccos phases put f2 off by 19% at
    # phi = -0.3: the direct sum of 961 unit terms
    X, mu = 480.0, 1e-3
    ref = mp_f2_direct(phi, mu, X)
    assert abs(f2_asymptotic(phi, mu, X, "direct") - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("mu", [1e-3, 40.7])
@pytest.mark.parametrize("phi", [-2.5, 1.7])
def test_f2_direct_shadow_side_matches_mpmath_sum(mu, phi):
    # far from the penetration window |f2| falls to a few hundredths of the
    # terms' unit size, so the roundoff bound is absolute, on the term scale
    X = 480.0
    err = abs(f2_asymptotic(phi, mu, X, "direct") - mp_f2_direct(phi, mu, X))
    assert err <= 1e-14 * term_scale(mu, X)


def test_f2_forward_limit_is_suppressed():
    vals = [abs(f2_asymptotic(phi, 10.0, 100.0, "direct"))
            for phi in (-0.3, -0.03, -0.003)]
    assert vals[0] > vals[-1]
    assert vals[-1] < 0.3 * vals[0]


def test_f2_input_validation():
    with pytest.raises(ValueError):
        f2_asymptotic(0.0, 10.0, 100.0)
    with pytest.raises(ValueError):
        f2_asymptotic(0.3, 0.0, 100.0)
    with pytest.raises(ValueError):
        f2_asymptotic(0.3, 1.0, 5.0)
    for phi in (np.array([-0.3, 0.0]), np.array([0.3, math.pi]), np.full((2, 2), 0.3)):
        with pytest.raises(ValueError):
            f2_asymptotic(phi, 10.0, 100.0)


# ---------------------------------------------------------------------------
# closed-form cross sections
# ---------------------------------------------------------------------------

def test_fraunhofer_fringe_zeros_and_period():
    X, mu = 50.0, 0.5
    # cosine-factor zeros at X phi/2 = pi/2 - mu pi + m pi
    for m in (0, 1, -1):
        phi0 = (math.pi - 2 * mu * math.pi + 2 * m * math.pi) / X
        assert fraunhofer_cs(phi0, mu, X) == pytest.approx(0.0, abs=1e-20)
    assert fraunhofer_cs(0.123, mu + 1.0, X) == pytest.approx(
        fraunhofer_cs(0.123, mu, X), rel=1e-12)
    assert fraunhofer_cs(0.0, 0.3, X) == pytest.approx(
        2.0 / math.pi * X * X * math.cos(0.3 * math.pi) ** 2)


def test_fraunhofer_derivative_is_analytic():
    h = 1e-7
    for phi in (0.01, -0.04, 0.11):
        fd = (fraunhofer_cs(phi + h, 0.3, 60.0) - fraunhofer_cs(phi - h, 0.3, 60.0)) / (2 * h)
        assert fraunhofer_cs_dphi(phi, 0.3, 60.0) == pytest.approx(fd, rel=1e-5)


def test_penetration_equal_radii_limit_is_sine():
    # 2|mu| = X: the interference coefficient vanishes and the weak form
    # collapses to |sin phi| on the allowed half-range
    mu, X = 10.0, 20.0
    for phi in (-0.3, -1.2, -2.5):
        val, branch = penetration_cs(phi, mu, X)
        assert val == pytest.approx(abs(math.sin(phi)), abs=1e-12)
    val, branch = penetration_cs(+0.5, mu, X)
    assert val == 0.0 and branch == "Outside"


def test_penetration_strong_branch_equals_classical():
    mu, X = 30.0, 40.0  # 2|mu| > X
    rho = X / (2 * mu)
    for phi in np.linspace(-3.0, 3.0, 31):
        val, branch = penetration_cs(float(phi), mu, X)
        assert branch == "Strong"
        assert val == classical_cs(float(phi), rho, +1)
        assert penetration_cs(float(phi), -mu, X)[0] == classical_cs(float(phi), rho, -1)


def test_penetration_branch_layout_weak_field():
    mu, X = 10.0, 100.0
    pe = rainbow_angle(mu, X)
    w = rainbow_window_halfwidth(mu, X)
    assert penetration_cs(pe, mu, X)[1] == "Rainbow"
    assert penetration_cs(pe + 1.5 * w, mu, X)[1] == "Weak"
    assert penetration_cs(+0.3, mu, X)[1] == "Outside"
    assert penetration_cs(pe - 2.0 * w, mu, X)[1] == "Outside"


def test_rainbow_peak_sits_at_first_airy_maximum():
    # bracket only the first oscillation: later Airy maxima are lower but
    # a bounded scalar search could land on one
    mu, X = 25.0, 100.0
    scale = (2 * mu) ** (2.0 / 3.0) * math.sqrt((X / (2 * mu)) ** 2 - 1.0)
    phi_peak = rainbow_angle(mu, X) - ai_zeros(1)[1][0] / scale  # first maximum of Ai(-t)
    res = minimize_scalar(lambda p: -rainbow_cs(p, mu, X),
                          bounds=(rainbow_angle(mu, X), rainbow_angle(mu, X) + 2.0 / scale),
                          method="bounded")
    assert res.x == pytest.approx(phi_peak, abs=1e-6)


def test_classical_equal_radii():
    for phi in (-0.4, -1.5, -3.0):
        assert classical_cs(phi, 1.0, +1) == pytest.approx(abs(math.sin(phi)))
    assert classical_cs(0.4, 1.0, +1) == 0.0


def test_classical_symmetry_under_joint_flip():
    for rho in (0.7, 1.8):
        for phi in (0.3, -0.9, 1.4):
            assert classical_cs(phi, rho, +1) == pytest.approx(classical_cs(-phi, rho, -1))


def test_classical_weak_field_edge_divergence_quantum_finite():
    rho = 2.0
    edge = -2.0 * math.asin(1.0 / rho)
    assert classical_cs(edge, rho, +1) == math.inf
    near = [classical_cs(edge * (1 - eps), rho, +1) for eps in (1e-2, 1e-4, 1e-6)]
    assert near[0] < near[1] < near[2]
    # the matching quantum curve stays finite at the same angle
    mu = 100.0 / (2.0 * rho)   # X = 100
    val, branch = penetration_cs(edge, mu, 100.0)
    assert math.isfinite(val) and branch == "Rainbow"


def test_classical_free_field_is_zero_off_forward():
    # rb_over_rc = inf (mu = 0): no deflection away from phi = 0, where the
    # form is undefined (nan); no numpy warning escapes
    val = classical_cs(np.array([-0.5, 0.0, 0.5]), math.inf)
    assert val[0] == val[2] == 0.0 and math.isnan(val[1])
    assert math.isnan(_oracle_classical_cs(0.0, math.inf, +1))


def test_classical_input_validation():
    with pytest.raises(ValueError):
        classical_cs(0.2, -1.0)
    with pytest.raises(ValueError):
        classical_cs(3.5, 1.0)
    with pytest.raises(ValueError):
        classical_cs(0.2, 1.0, 0)


def test_fraunhofer_derivative_forward_limit():
    # the analytic forward limit -(X^3/pi) sin(2 mu pi) against a central
    # difference of the cross section through phi = 0
    h = 1e-7
    for mu, X in ((0.3, 30.0), (0.1, 100.0), (0.77, 200.0)):
        fd = (fraunhofer_cs(h, mu, X) - fraunhofer_cs(-h, mu, X)) / (2 * h)
        assert fraunhofer_cs_dphi(0.0, mu, X) == pytest.approx(fd, rel=1e-6)


def test_rainbow_input_validation():
    with pytest.raises(ValueError):
        rainbow_cs(3.5, 10.0, 100.0)
    with pytest.raises(ValueError):
        rainbow_cs(np.array([0.1, -math.pi]), 10.0, 100.0)
    with pytest.raises(ValueError):
        rainbow_cs(0.1, 60.0, 100.0)
    with pytest.raises(ValueError, match="too deep"):
        rainbow_cs(np.array([-0.5, 2.5]), 70.0, 480.0)


def test_rainbow_forms_refuse_a_flux_whose_ratio_overflows():
    # (X/2mu)^2 used to raise an uncaught OverflowError below |mu| ~ 1e-153 X
    for form in (lambda: penetration_cs(0.1, 1e-300, 30.0), lambda: rainbow_cs(0.1, 1e-300, 30.0),
                 lambda: rainbow_window_halfwidth(-1e-300, 30.0)):
        with pytest.raises(ValueError, match="overflows"):
            form()


# ---------------------------------------------------------------------------
# array closed forms against per-angle scalar oracles
# ---------------------------------------------------------------------------

def _oracle_rainbow_cs(phi, mu, X):
    """Per-angle scalar rainbow form, kept as the reference."""
    ratio2 = (X / (2.0 * mu)) ** 2 - 1.0
    if ratio2 == 0.0:
        return 0.0
    arg = (-math.copysign(1.0, mu)
           * (phi + 2.0 * math.asin(2.0 * mu / X))
           * (2.0 * abs(mu)) ** (2.0 / 3.0) * math.sqrt(ratio2))
    if arg > specfun.SUPPORTED_MAX_AIRY:
        return 0.0
    return (2.0 * math.pi / X) * (2.0 * abs(mu)) ** (4.0 / 3.0) * ratio2 \
        * specfun.airy_ai(arg) ** 2


def _oracle_classical_cs(phi, rho, sign_eB):
    """Per-angle scalar classical form with math-module arithmetic."""
    if rho < 1.0:
        return abs(math.sin(phi / 2.0)) * (
            0.5 * (1.0 + rho * rho * math.cos(phi))
            / math.sqrt(1.0 - rho * rho * math.sin(phi / 2.0) ** 2)
            - (sign_eB * math.copysign(1.0, phi)) * rho * math.cos(phi / 2.0))
    if rho == 1.0:
        return abs(math.sin(phi)) if 0.0 <= -sign_eB * phi <= math.pi else 0.0
    t = -sign_eB * phi
    if not (0.0 <= t <= 2.0 * math.asin(1.0 / rho)):
        return 0.0
    root2 = 1.0 - rho * rho * math.sin(phi / 2.0) ** 2
    if root2 <= 0.0:
        return math.inf
    return abs(math.sin(phi / 2.0)) * (1.0 + rho * rho * math.cos(phi)) / math.sqrt(root2)


def _oracle_penetration_cs(phi, mu, X):
    """Per-angle scalar penetration form: branch tests in the order
    rainbow, outside, weak, caustic."""
    r = X / (2.0 * mu)
    if 2.0 * abs(mu) > X:
        return _oracle_classical_cs(phi, abs(r), 1 if mu > 0.0 else -1), "Strong"
    phi_extr = rainbow_angle(mu, X)
    width = rainbow_window_halfwidth(mu, X)
    if width > 0.0 and abs(phi - phi_extr) <= width:
        return _oracle_rainbow_cs(phi, mu, X), "Rainbow"
    if not (0.0 <= -math.copysign(1.0, mu) * phi < abs(phi_extr)):
        return 0.0, "Outside"
    sh = abs(math.sin(phi / 2.0))
    if r * r == 1.0:
        return abs(math.sin(phi)), "Weak"
    root2 = 1.0 - r * r * math.sin(phi / 2.0) ** 2
    if root2 <= 0.0:
        return 0.0, "Outside"
    osc = math.sin(4.0 * abs(mu) * math.acos(min(abs(r) * sh, 1.0))
                   - 2.0 * X * sh * math.sqrt(root2))
    return sh / math.sqrt(root2) * (1.0 + r * r * math.cos(phi) + (r * r - 1.0) * osc), "Weak"


# (X, mu): strong field, weak field, equal radii 2|mu| = X, both signs of mu
_ORACLE_CASES = [(40.0, 30.0), (40.0, -30.0), (100.0, 12.3), (100.0, -30.0),
                 (480.0, 70.3), (480.0, -150.0), (20.0, 10.0), (20.0, -10.0),
                 (100.0, 49.999)]


def _dense_grids(mu, X):
    """The whole angle range, plus the rainbow window where there is one."""
    grids = [np.linspace(-math.pi + 1e-9, math.pi - 1e-9, 8001)]
    if 2.0 * abs(mu) < X:
        pe, w = rainbow_angle(mu, X), rainbow_window_halfwidth(mu, X)
        grids.append(np.linspace(max(pe - 3.0 * w, -3.14), min(pe + 3.0 * w, 3.14), 2001))
    return grids


@pytest.mark.parametrize("X,mu", _ORACLE_CASES)
def test_array_penetration_and_classical_match_scalar_oracles(X, mu):
    rho, sign = abs(X / (2.0 * mu)), (1 if mu > 0.0 else -1)
    for grid in _dense_grids(mu, X):
        val, tag = penetration_cs(grid, mu, X)
        ref = [_oracle_penetration_cs(float(p), mu, X) for p in grid]
        assert tag.tolist() == [t for _, t in ref]
        np.testing.assert_allclose(val, [v for v, _ in ref], rtol=1e-12, atol=0.0)
        cls = [_oracle_classical_cs(float(p), rho, sign) for p in grid]
        np.testing.assert_allclose(classical_cs(grid, rho, sign), cls, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("X,mu", _ORACLE_CASES)
def test_array_closed_forms_equal_scalar_calls_bit_for_bit(X, mu):
    rho, sign = abs(X / (2.0 * mu)), (1 if mu > 0.0 else -1)
    forms = [lambda p: fraunhofer_cs(p, mu, X), lambda p: fraunhofer_cs_dphi(p, mu, X),
             lambda p: classical_cs(p, rho, sign), lambda p: penetration_cs(p, mu, X)[0]]
    for grid in _dense_grids(mu, X):
        grid = grid[::7]
        for form in forms:
            scalars = [form(float(p)) for p in grid]
            assert all(type(s) is float for s in scalars)
            assert np.array_equal(form(grid), scalars)
        tags = [penetration_cs(float(p), mu, X)[1] for p in grid]
        assert all(type(t) is str for t in tags)
        assert penetration_cs(grid, mu, X)[1].tolist() == tags
        if 2.0 * abs(mu) <= X:
            window = grid[np.abs(grid - rainbow_angle(mu, X)) <= 3.0 * rainbow_window_halfwidth(mu, X)]
            scalars = [rainbow_cs(float(p), mu, X) for p in window]
            assert all(type(s) is float for s in scalars)
            assert np.array_equal(rainbow_cs(window, mu, X), scalars)


def test_array_airy_equals_scalar_calls_bit_for_bit():
    y = np.linspace(-100.0, 100.0, 4001)
    scalars = [specfun.airy_ai(float(v)) for v in y]
    assert all(type(s) is float for s in scalars)
    assert np.array_equal(specfun.airy_ai(y), scalars)
    with pytest.raises(ValueError):
        specfun.airy_ai(np.array([0.0, 100.5]))
