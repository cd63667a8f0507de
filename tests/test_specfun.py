"""Special-function layer: oracle checks against power series, quadrature
of integral representations and closed half-integer forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airy

from vortexscatter import specfun


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def series_bessel_j(nu, x, terms=200):
    """Power-series oracle: sum_m (-1)^m (x/2)^(nu+2m) / (m! Gamma(nu+m+1)).

    Convergent everywhere; numerically trustworthy for x up to ~25 where
    cancellation stays below ~1e-12 of the leading terms.
    """
    total = 0.0
    lx = math.log(x / 2.0)
    for m in range(terms):
        ln_mag = (nu + 2 * m) * lx - math.lgamma(m + 1) - math.lgamma(nu + m + 1)
        total += (-1.0) ** m * math.exp(ln_mag)
    return total


def quad_bessel_second_integer(n, x):
    """Quadrature oracle for the integer-order irregular solution,
    (1/pi) int_0^pi sin(x sin t - n t) dt
    - (1/pi) int_0^inf [e^{n t} + (-1)^n e^{-n t}] e^{-x sinh t} dt."""
    a, _ = quad(lambda t: math.sin(x * math.sin(t) - n * t), 0.0, math.pi, limit=200)
    b, _ = quad(lambda t: (math.exp(n * t) + (-1) ** n * math.exp(-n * t))
                * math.exp(-x * math.sinh(t)), 0.0, 40.0, limit=200)
    return (a - b) / math.pi


def quad_airy(y):
    """Quadrature oracle for Ai from the oscillatory defining integral,
    pi^-1 int_0^inf cos(y u + u^3/3) du, evaluated on the rotated ray
    u -> e^{i pi/6} s where the integrand decays like exp(-s^3/3):

        Ai(y) = pi^-1 int_0^inf e^{-s^3/3 - y s/2}
                               cos(sqrt(3) y s / 2 + pi/6) ds.
    """
    val, _ = quad(lambda s: math.exp(-s ** 3 / 3.0 - y * s / 2.0)
                  * math.cos(math.sqrt(3.0) * y * s / 2.0 + math.pi / 6.0),
                  0.0, 40.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val / math.pi


# ---------------------------------------------------------------------------
# regular member
# ---------------------------------------------------------------------------

def test_bessel_j_small_argument_limit():
    assert specfun.bessel_j(0.0, 1e-10) == pytest.approx(1.0, abs=1e-12)


def test_bessel_j_half_integer_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x; at x = pi/2 this is 2/pi
    assert specfun.bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-10)


def test_bessel_j_against_series():
    # points inside the series' convergence range (cancellation below
    # ~3e-12 of the result; the alternating series degrades beyond x ~ 15)
    for nu, x in [(5.3, 10.0), (0.0, 3.0), (2.0, 7.5), (11.7, 14.0), (0.25, 8.0)]:
        assert specfun.bessel_j(nu, x) == pytest.approx(series_bessel_j(nu, x), rel=1e-10)


def test_bessel_j_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_j(1.0, 0.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(1.0, -2.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(specfun.SUPPORTED_MAX_ORDER + 1.0, 10.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(1.0, 1001.0)
    # an array of orders is checked as a whole
    with pytest.raises(ValueError):
        specfun.bessel_second(np.array([3.0, specfun.SUPPORTED_MAX_ORDER + 1.0]), 10.0)


def test_cylinder_functions_on_order_arrays_equal_scalar_calls():
    nus = np.array([0.0, 0.37, 12.6, 999.37, 1040.0, 1146.0])
    for fn in (specfun.bessel_j, specfun.bessel_j_deriv,
               specfun.bessel_second, specfun.bessel_second_deriv):
        got = fn(nus, 1000.0)
        assert isinstance(fn(0.37, 1000.0), float)
        assert got.tolist() == [fn(float(nu), 1000.0) for nu in nus]


def test_large_orders_against_mpmath():
    # the mode window at X reaches orders X + 12 X^(1/3) + 25; check J and Y
    # from X - 40 to X + 160 (non-integer orders, every 10) at the largest
    # radii the window uses
    import mpmath

    with mpmath.workdps(30):
        for x in (480.0, 1000.0):
            for nu in x - 40.0 + 10.0 * np.arange(21) + 0.3:
                j = float(mpmath.besselj(nu, x))
                y = float(mpmath.bessely(nu, x))
                assert specfun.bessel_j(nu, x) == pytest.approx(j, rel=1e-12), (nu, x)
                assert specfun.bessel_second(nu, x) == pytest.approx(y, rel=1e-12), (nu, x)


@pytest.mark.parametrize("x", [30.0, 100.0, 200.0, 480.0])
def test_derivative_recurrence_against_mpmath(x):
    # C'_nu = C_{nu-1} - (nu/x) C_nu, for orders nu in [0, 2), where nu - 1
    # is negative, and across the turning point from x - 3 x^(1/3) to
    # x + 12 x^(1/3), the span of the mode window; error relative to
    # |C| + |C'|, worst measured 1.4e-13 (J at x = 480, scipy's own
    # derivative there: 7.7e-14)
    import mpmath

    nus = np.concatenate([np.linspace(0.0, 1.95, 14),
                          np.linspace(x - 3.0 * x ** (1 / 3), x + 12.0 * x ** (1 / 3), 41)])
    with mpmath.workdps(30):
        for deriv, fn in ((specfun.bessel_j_deriv, mpmath.besselj),
                          (specfun.bessel_second_deriv, mpmath.bessely)):
            for nu in nus:
                ref = float(fn(nu, x, derivative=1))
                scale = abs(float(fn(nu, x))) + abs(ref)
                assert abs(deriv(float(nu), x) - ref) <= 3e-13 * scale, (deriv.__name__, nu, x)


def test_cylinder_pairs_equal_the_single_functions():
    # one J and one Y evaluation over the distinct orders of nu and nu - 1
    # give the same bits as the four single functions, duplicates included
    nus = np.array([0.0, 0.37, 1.0, 1.37, 2.0, 12.6, 999.37, 1040.0, 1146.0])
    pairs = specfun.cylinder_pairs(nus, 1000.0)
    for fn, got in zip((specfun.bessel_j, specfun.bessel_j_deriv,
                        specfun.bessel_second, specfun.bessel_second_deriv), pairs):
        assert got.tolist() == fn(nus, 1000.0).tolist()
    with pytest.raises(ValueError):
        specfun.cylinder_pairs(np.array([-0.5, 1.0]), 10.0)


# ---------------------------------------------------------------------------
# second solution
# ---------------------------------------------------------------------------

def test_bessel_second_half_integer_closed_form():
    # companion of order 1/2 is -sqrt(2/(pi x)) cos x; at x = pi the
    # closed form gives +sqrt(2)/pi
    expected = math.sqrt(2.0) / math.pi
    assert specfun.bessel_second(0.5, math.pi) == pytest.approx(expected, rel=1e-10)


def test_bessel_second_integer_order_quadrature_oracle():
    assert specfun.bessel_second(3.0, 4.0) == pytest.approx(
        quad_bessel_second_integer(3, 4.0), rel=1e-9)


def test_wronskian_identity_spot():
    # J Y' - Y J' = 2/(pi x)
    nu, x = 2.7, 5.0
    w = (specfun.bessel_j(nu, x) * specfun.bessel_second_deriv(nu, x)
         - specfun.bessel_second(nu, x) * specfun.bessel_j_deriv(nu, x))
    assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-10)


def test_wronskian_identity_grid():
    # acceptance-style sweep: 200 (nu, x) pairs across the working range
    rng = np.random.default_rng(42)
    nus = rng.uniform(0.0, 60.0, 200)
    xs = rng.uniform(0.5, 300.0, 200)
    for nu, x in zip(nus, xs):
        w = (specfun.bessel_j(nu, x) * specfun.bessel_second_deriv(nu, x)
             - specfun.bessel_second(nu, x) * specfun.bessel_j_deriv(nu, x))
        assert abs(w - 2.0 / (math.pi * x)) <= 1e-9 * abs(2.0 / (math.pi * x))


# ---------------------------------------------------------------------------
# travelling waves
# ---------------------------------------------------------------------------

def _unit_phase(phase):
    return complex(math.cos(phase), math.sin(phase))


def test_hankel_out_asymptotic_phase():
    # ~ x^(-1/2) exp(+-i(x - nu pi/2 - pi/4)) at large x
    nu, x = 0.5, 200.0
    h = specfun.hankel_out(+1, nu, x)
    ref = _unit_phase(x - nu * math.pi / 2 - math.pi / 4) / math.sqrt(x)
    assert abs(h - ref) <= 1e-6 * abs(ref)


def test_hankel_out_conjugation():
    for nu, x in [(0.3, 5.0), (7.7, 12.0), (2.0, 40.0)]:
        hp = specfun.hankel_out(+1, nu, x)
        hm = specfun.hankel_out(-1, nu, x)
        assert hm == hp.conjugate()


def test_hankel_out_recombination():
    # equals sqrt(pi/2) (J + i Y) in the chosen normalisation
    nu, x = 2.3, 7.0
    expected = math.sqrt(math.pi / 2) * complex(
        specfun.bessel_j(nu, x), specfun.bessel_second(nu, x))
    assert specfun.hankel_out(+1, nu, x) == pytest.approx(expected)


def test_hankel_phase_law_convergence():
    # arg h - (x - nu pi/2 - pi/4) -> 0 as x grows at fixed nu; the
    # leading phase correction decays like (4 nu^2 - 1)/(8 x)
    import cmath
    nu = 3.2
    errs = []
    for x in (50.0, 200.0, 800.0):
        h = specfun.hankel_out(+1, nu, x)
        d = cmath.phase(h / _unit_phase(x - nu * math.pi / 2 - math.pi / 4))
        errs.append(abs(d))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1.1 * (4.0 * nu * nu - 1.0) / (8.0 * 800.0)


def test_hankel_kind_validation():
    with pytest.raises(ValueError):
        specfun.hankel_out(2, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Airy function
# ---------------------------------------------------------------------------

def test_airy_at_zero():
    # 3^(-2/3)/Gamma(2/3), frozen from the quadrature oracle
    expected = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert specfun.airy_ai(0.0) == pytest.approx(expected, abs=1e-12)
    assert quad_airy(0.0) == pytest.approx(expected, abs=1e-11)


def test_airy_exponential_damping():
    assert abs(specfun.airy_ai(20.0)) < 1e-12


def test_airy_against_quadrature_oracle():
    for y in (-8.0, -5.0, -1.2, 0.7, 3.0, 9.0):
        assert specfun.airy_ai(y) == pytest.approx(quad_airy(y), abs=1e-9)


def test_airy_differential_relation():
    # Ai''(y) = y Ai(y), central finite differences with O(h^2) residual
    h = 1e-3
    for y in (-30.0, -5.0, -1.0, 0.0, 1.5, 4.0):
        second = (specfun.airy_ai(y + h) - 2.0 * specfun.airy_ai(y)
                  + specfun.airy_ai(y - h)) / h ** 2
        scale = max(abs(specfun.airy_ai(y)), 1e-3)
        assert abs(second - y * specfun.airy_ai(y)) <= 50.0 * h ** 2 * scale * max(1.0, y * y)


def test_airy_range_check():
    with pytest.raises(ValueError):
        specfun.airy_ai(101.0)


def test_airy_first_max_constant():
    # the pinned first maximum of Ai(-t): Ai'(-t) = 0 there
    t = specfun.AIRY_FIRST_MAX
    assert abs(airy(-t)[1]) < 1e-12
