"""Closed-form interior: the Kummer-recurrence edge data against two
independent oracles, mpmath's hypergeometric function and a batched
DOP853 integration of the interior equation, plus its regressions."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import jv, jvp

from vortexscatter.radial import SolverFailure, VortexParams, inside_solution, mode_table


def edge_angle(pair):
    value, derivative = pair
    return math.atan2(derivative, value)


def angle_gap(a, b):
    """Distance of two edge angles on the circle: a sign flip of tau
    counts as pi."""
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def hyp1f1_edge_angle(n, X, mu, sigma, dps=40):
    """atan2(tau'(X), tau(X)) of tau = x^m e^{-z/2} M(a, m+1, z) from
    mpmath's hyp1f1, dropping the positive factor X^m e^{-|mu|/2}."""
    with mpmath.workdps(dps):
        m = abs(n)
        X_, mu_ = mpmath.mpf(X), mpmath.mpf(mu)
        z = abs(mu_)
        a = mpmath.mpf(m + 1) / 2 - (X_ ** 2 + 2 * mu_ * (n + sigma)) / (4 * z)
        # at a Landau level M is a Laguerre polynomial that can vanish at the
        # edge exactly; a sum below 2^-2000 of its largest term counts as 0
        M = mpmath.hyp1f1(a, m + 1, z, zeroprec=2000)
        dM = a / (m + 1) * mpmath.hyp1f1(a + 1, m + 2, z, zeroprec=2000)
        value = M
        derivative = (m - z) / X_ * M + 2 * z / X_ * dM
        return float(mpmath.atan2(derivative, value))


def laguerre_edge_angle(n, X, mu, sigma):
    """atan2(tau'(X), tau(X)) of a first-branch mode (sgn(mu) n >= 0) where
    K = X^2/(4|mu|) is an integer.  Kummer's a is then c0 - K = -k with
    c0 = (1 - sgn(mu) sigma)/2, and M(-k, m+1, z) is a positive multiple
    of the Laguerre polynomial L_k^(m)(z) (DLMF 13.6.19), whose derivative
    is -L_{k-1}^(m+1)(z) (DLMF 18.9.23).  Both come from the explicit sum
    (DLMF 18.5.12) in exact rational arithmetic, so this shares no code
    with hyp1f1."""
    s = 1 if mu >= 0.0 else -1
    m, z, Xq = abs(n), Fraction(abs(mu)), Fraction(X)
    K = Xq * Xq / (4 * z)
    assert s * n >= 0 and K.denominator == 1, (n, X, mu)
    k = int(K) - (1 - s * sigma) // 2

    def laguerre(k, alpha):
        return sum((Fraction(math.comb(k + alpha, k - i), math.factorial(i)) * (-z) ** i
                    for i in range(k + 1)), Fraction(0))

    value = laguerre(k, m)
    slope = (m - z) * value - 2 * z * (laguerre(k - 1, m + 1) if k else 0)
    derivative = slope / Xq
    scale = max(abs(value), abs(derivative))
    return math.atan2(derivative / scale, value / scale)


def ode_edge_table(X, mu, sigma, n_max, rtol=1e-11, segment=25.0, terms=20):
    """(tau, tau')/X^|n| at the edge for |n| <= n_max, integrated as one
    batched system of the reduced equation

        u'' + (2|n|+1) u'/x + (A - B x^2) u = 0,   tau = x^|n| u,
        A = 1 + 2 mu (n + sigma)/X^2,   B = mu^2/X^4,

    from a 20-term Frobenius series start, in DOP853 segments renormalised
    per mode."""
    ns = np.arange(-n_max, n_max + 1)
    m = np.abs(ns).astype(float)
    A = 1.0 + 2.0 * mu * (ns + sigma) / X ** 2
    B = (mu / X ** 2) ** 2
    drag = 2.0 * m + 1.0
    N = len(ns)

    # reduced solutions are flat out to x ~ sqrt(|n|)
    x0 = min(max(1e-6, 1e-4 * X, 0.3 * math.sqrt(n_max + 1.0)), 0.5 * X, 8.0)
    u = np.empty(N)
    du = np.empty(N)
    for i in range(N):
        a = [1.0]
        for k in range(1, terms):
            prev2 = a[k - 2] if k >= 2 else 0.0
            a.append(-(A[i] * a[k - 1] - B * prev2) / (4.0 * k * (k + m[i])))
        uu = dd = 0.0
        for k in range(terms - 1, -1, -1):
            uu = a[k] + uu * x0 * x0
            if k >= 1:
                dd = k * a[k] + dd * x0 * x0
        u[i], du[i] = uu, 2.0 * x0 * dd

    def rhs(x, y):
        return np.concatenate((y[N:], -drag * y[N:] / x - (A - B * x * x) * y[:N]))

    bounds = np.linspace(x0, X, max(1, math.ceil((X - x0) / segment)) + 1)
    y = np.concatenate((u, du))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=rtol, atol=1e-20)
        assert sol.success, sol.message
        y = sol.y[:, -1]
        scale = np.maximum(np.abs(y[:N]), np.abs(y[N:]))
        scale[scale == 0.0] = 1.0
        y = np.concatenate((y[:N] / scale, y[N:] / scale))
    u, du = y[:N], y[N:]
    return {int(n): (float(u[i]), float(du[i] + m[i] * u[i] / X)) for i, n in enumerate(ns)}


def window(p):
    """The mode window round(mu) - n_max <= n <= round(mu) + n_max."""
    c = round(p.mu)
    return range(c - p.n_max, c + p.n_max + 1)


def sampled_modes(p):
    """Window modes of both Kummer branches: the window ends and the flux
    centre, and the axis and modes inside the vortex on either side of it
    where the window holds them."""
    c, third = round(p.mu), int(p.X // 3)
    inner = {-third, -1, 0, 1, third}
    return sorted({c - p.n_max, c - p.n_max // 2, c, c + p.n_max // 2, c + p.n_max}
                  | {n for n in inner if n in window(p)})


# ---------------------------------------------------------------------------
# against hyp1f1
# ---------------------------------------------------------------------------

WEAK = [(X, r) for X in (30.0, 100.0, 200.0, 480.0) for r in (0.001, 0.5, 1.0)]
STRONG = [(X, r) for X in (30.0, 40.0, 60.0) for r in (1.5, 2.0)]


@pytest.mark.parametrize("X,ratio", WEAK + STRONG)
def test_edge_angle_matches_hyp1f1(X, ratio):
    # ratio = 2|mu|/X; both spins and both field directions
    for sigma in (+1, -1):
        for sign in (+1, -1):
            mu = sign * ratio * X / 2.0
            p = VortexParams(X=X, mu=mu, sigma=sigma)
            for n in sampled_modes(p):
                got = edge_angle(inside_solution(n, p))
                ref = hyp1f1_edge_angle(n, X, mu, sigma)
                assert angle_gap(got, ref) <= 1e-12, (X, mu, sigma, n, got, ref)


def test_edge_pairs_are_unit_normalised():
    for mu in (7.5, 30.0):
        p = VortexParams(X=30.0, mu=mu)
        for n in window(p):
            assert math.hypot(*inside_solution(n, p)) == pytest.approx(1.0, abs=1e-15)


def test_orbit_radius_equal_to_vortex_radius():
    # 2|mu| = X with integer mu: for sigma = +1 the second branch meets an
    # exact zero ratio, and n = -29 sits on a Landau level whose tau
    # vanishes at the edge (M(-1, 30, 30) = 0)
    X, mu = 60.0, 30.0
    for sigma in (+1, -1):
        p = VortexParams(X=X, mu=mu, sigma=sigma)
        for n in window(p):
            got = edge_angle(inside_solution(n, p))
            assert angle_gap(got, hyp1f1_edge_angle(n, X, mu, sigma)) <= 1e-12, (sigma, n)
    value, derivative = inside_solution(-29, VortexParams(X=X, mu=mu, sigma=+1))
    assert abs(value) < 1e-15 and abs(derivative) == pytest.approx(1.0)


def test_integer_kummer_parameter():
    # a = -241: M is a Laguerre polynomial (scipy's hyp1f1 returns NaN here)
    X, mu, sigma, n = 100.0, 10.0, +1, -9
    assert (abs(n) + 1) / 2 - (X * X + 2 * mu * (n + sigma)) / (4 * mu) == pytest.approx(-241.0)
    got = edge_angle(inside_solution(n, VortexParams(X=X, mu=mu, sigma=sigma)))
    assert angle_gap(got, hyp1f1_edge_angle(n, X, mu, sigma)) <= 1e-12


@pytest.mark.parametrize("X,mu", [(40.0, 10.0), (40.0, -10.0), (100.0, 25.0), (60.0, 60.0),
                                  (35.0, 43.75), (40.0, 40.0), (60.0, 45.0), (60.0, -45.0),
                                  (200.0, 1000.0), (480.0, 2880.0)])
def test_landau_levels_against_laguerre(X, mu):
    # X^2/(4|mu|) an integer: every first-branch mode sits on a Landau level,
    # and the Laguerre oracle checks the recurrence without hyp1f1; a spread
    # of first-branch window modes, both spins
    s = 1 if mu >= 0.0 else -1
    for sigma in (+1, -1):
        p = VortexParams(X=X, mu=mu, sigma=sigma)
        modes = [n for n in window(p) if s * n >= 0]
        for n in modes[::max(1, len(modes) // 12)] + modes[-1:]:
            got = edge_angle(inside_solution(n, p))
            ref = laguerre_edge_angle(n, X, mu, sigma)
            assert angle_gap(got, ref) <= 1e-12, (X, mu, sigma, n, got, ref)


@pytest.mark.parametrize("X,mu,n,expected", [
    (60.0, 60.0, -15, -0.75),    # integrated ODE: -0.75000861
    (35.0, 43.75, -7, -1.05),    # integrated ODE: -1.0500021
])
def test_landau_level_edge_ratio(X, mu, n, expected):
    # exact Landau levels, where M is a polynomial and tau'/tau is rational
    value, derivative = inside_solution(n, VortexParams(X=X, mu=mu, sigma=+1))
    assert derivative / value == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("X", [30.0, 200.0])
def test_zero_flux_is_bessel_j(X):
    p = VortexParams(X=X, mu=0.0, sigma=-1)
    for n in range(-p.n_max, p.n_max + 1):
        m = abs(n)
        ref = math.atan2(jvp(m, X), jv(m, X))
        assert angle_gap(edge_angle(inside_solution(n, p)), ref) <= 1e-13, n


#: strong-field cases that pass certification: windows that straddle n = 0,
#: and windows far off the axis at 2|mu|/X = 12
CERTIFIED = {(30.0, 3.0), (40.0, 2.5), (200.0, 12.0), (480.0, 12.0)}


@pytest.mark.parametrize("X,ratio", [(80.0, 2.5), (60.0, 2.5), (30.0, 3.0), (40.0, 2.5),
                                     (200.0, 12.0), (480.0, 12.0)])
def test_strong_field_fails_fast_or_is_exact(X, ratio):
    # inside the orbit radius the recurrence is certified at twice the
    # digits from a later start; an uncertified table must raise, and each
    # case keeps its outcome, so an answer cannot turn into a failure (or
    # back) unseen
    mu = ratio * X / 2.0
    p = VortexParams(X=X, mu=mu, sigma=+1)
    try:
        sols = {n: inside_solution(n, p) for n in window(p)}
    except SolverFailure as exc:
        assert (X, ratio) not in CERTIFIED, str(exc)
        assert f"X={X}" in str(exc) and f"mu={mu}" in str(exc) and "n=" in str(exc)
        return
    assert (X, ratio) in CERTIFIED
    for n, sol in sols.items():
        assert angle_gap(edge_angle(sol), hyp1f1_edge_angle(n, X, mu, +1)) <= 1e-12, n


@pytest.mark.parametrize("X", [100.0, 200.0])
def test_strong_field_window_off_the_axis(X):
    # 2|mu|/X = 6 and 3: the window lies on one side of n = 0, so only the
    # first branch runs, and only the modes a table reads are certified
    for mu in (300.37, -300.37):
        for sigma in (+1, -1):
            p = VortexParams(X=X, mu=mu, sigma=sigma)
            tab = mode_table(p)
            assert np.max(np.abs(np.abs(tab.s_n) - 1.0)) <= 1e-15
            for n in window(p)[::p.n_max // 4]:
                got = edge_angle(inside_solution(n, p))
                assert angle_gap(got, hyp1f1_edge_angle(n, X, mu, sigma)) <= 1e-12, (mu, sigma, n)


def test_strong_field_failure_names_a_window_mode():
    p = VortexParams(X=100.0, mu=100.37)
    with pytest.raises(SolverFailure, match="X=100.0, mu=100.37") as err:
        mode_table(p)
    assert int(re.search(r"\bn=(-?\d+)", str(err.value)).group(1)) in window(p)


# ---------------------------------------------------------------------------
# against the integrated interior equation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("X,mu,sigma", [
    (30.0, 0.015, +1), (30.0, -7.5, -1), (30.0, 15.0, +1),
    (100.0, 0.05, -1), (100.0, 25.0, +1), (100.0, -50.0, +1),
])
def test_agrees_with_integrated_ode(X, mu, sigma):
    # the window's modes with |n| <= n_max
    p = VortexParams(X=X, mu=mu, sigma=sigma)
    ode = ode_edge_table(X, mu, sigma, p.n_max)
    for n in set(window(p)) & ode.keys():
        v, d = ode[n]
        assert angle_gap(edge_angle(inside_solution(n, p)), math.atan2(d, v)) <= 1e-9, n
