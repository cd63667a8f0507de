"""Special-function layer: oracle checks of ``cylinder_pairs`` and ``airy_ai``
against mpmath, power series, quadrature of integral representations and
closed half-integer forms, and the travelling-wave normalisation of the
Hankel combinations of the pairs."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vortexscatter import radial, specfun


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


def cyl(nu, x):
    """(J, J', Y, Y') at one order as floats, from :func:`specfun.cylinder_pairs`."""
    return [float(a[0]) for a in specfun.cylinder_pairs(np.array([float(nu)]), x)]


def window_pairs(n, nu, mu, x):
    """(J, J', Y, Y') over a mode window as a (4, len(n)) array, from one
    :func:`specfun.cylinder_pairs` call on each side of mu: the orders of
    n < mu read backwards, then those of n >= mu."""
    k = np.count_nonzero(n < mu)
    below, above = (specfun.cylinder_pairs(v, x) for v in (nu[:k][::-1], nu[k:]))
    return np.array([np.concatenate([b[::-1], a]) for b, a in zip(below, above)])


# ---------------------------------------------------------------------------
# regular member
# ---------------------------------------------------------------------------

def test_bessel_j_small_argument_limit():
    assert cyl(0.0, 1e-10)[0] == pytest.approx(1.0, abs=1e-12)


def test_bessel_j_half_integer_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x; at x = pi/2 this is 2/pi
    assert cyl(0.5, math.pi / 2)[0] == pytest.approx(2.0 / math.pi, rel=1e-10)


def test_bessel_j_against_series():
    # points inside the series' convergence range (cancellation below
    # ~3e-12 of the result; the alternating series degrades beyond x ~ 15)
    for nu, x in [(5.3, 10.0), (0.0, 3.0), (2.0, 7.5), (11.7, 14.0), (0.25, 8.0)]:
        assert cyl(nu, x)[0] == pytest.approx(series_bessel_j(nu, x), rel=1e-10)


def test_bessel_j_domain_errors():
    for nu, x in ((1.0, 0.0), (1.0, -2.0), (1.0, 1001.0), (1.0, math.nan), (-0.5, 10.0),
                  (math.nan, 10.0), (math.inf, 10.0)):
        with pytest.raises(ValueError):
            cyl(nu, x)
    # an array of orders is checked as a whole
    for nu in ([3.0, math.nan], [-0.5, 1.0]):
        with pytest.raises(ValueError):
            specfun.cylinder_pairs(np.array(nu), 10.0)
    # a ladder whose top J underflows would carry no digits down to J_1/2(1)
    with pytest.raises(ValueError, match="not a normal float"):
        specfun.cylinder_pairs(np.arange(0.5, 400.0), 1.0)


def test_non_ladder_orders_are_refused():
    # one call takes one ladder: ascending orders of step 1 within rounding
    window = radial._mode_window(radial.VortexParams(X=30.0, mu=7.3))[1]
    for nu in (np.array([]), np.array([2.0, 1.0]), np.array([1.0, 2.5]), np.array([3.0, 3.0]),
               np.array([0.3, 1.3, 2.3, 4.3]), np.array([1e-12, 1.0 - 1e-12]), window,
               np.arange(40.3, 0.0, -1.0)):
        with pytest.raises(ValueError, match="one ladder"):
            specfun.cylinder_pairs(nu, 30.0)
    # step 1 up to the rounding of the difference is a ladder: the orders
    # |n - mu| of n >= mu = 7.3 step by 1 +- 3.6e-15
    nu = np.abs(np.arange(8, 68) - 7.3)
    assert np.abs(np.diff(nu) - 1.0).max() > 0.0
    assert np.isfinite(np.array(specfun.cylinder_pairs(nu, 30.0))).all()


def test_large_orders_against_mpmath():
    # one order per call: each is a ladder of one and holds scipy's J and
    # Y, the path outside_basis_at_edge takes; the window's step-1 ladders
    # are checked in test_window_ladder_against_mpmath.  Non-integer orders
    # from X - 40 to X + 160, past the window's top X + 12 X^(1/3) + 25, at
    # the largest radii the window uses
    import mpmath

    with mpmath.workdps(30):
        for x in (480.0, 1000.0):
            for nu in x - 40.0 + 25.0 * np.arange(9) + 0.3:
                j, _, y, _ = cyl(nu, x)
                assert j == pytest.approx(float(mpmath.besselj(nu, x)), rel=1e-12), (nu, x)
                assert y == pytest.approx(float(mpmath.bessely(nu, x)), rel=1e-12), (nu, x)


@pytest.mark.parametrize("x", [30.0, 100.0, 200.0, 480.0])
def test_derivative_recurrence_against_mpmath(x):
    # C'_nu = C_{nu-1} - (nu/x) C_nu at one order per call, the path
    # outside_basis_at_edge takes: each is a ladder of one and its lower
    # rung C_{nu-1} is scipy's.  Orders nu in
    # [0, 2), where nu - 1 is negative, and across the turning point from
    # x - 3 x^(1/3) to x + 12 x^(1/3); error relative to |C| + |C'|, worst
    # measured 6.8e-14 (J' at x = 480); the window's step-1 ladders are
    # checked in test_window_ladder_against_mpmath
    import mpmath

    nus = np.concatenate([np.linspace(0.0, 1.95, 7),
                          np.linspace(x - 3.0 * x ** (1 / 3), x + 12.0 * x ** (1 / 3), 15)])
    _, jp, _, yp = np.array([cyl(nu, x) for nu in nus]).T
    with mpmath.workdps(30):
        for name, deriv, fn in (("J'", jp, mpmath.besselj), ("Y'", yp, mpmath.bessely)):
            for nu, got in zip(nus, deriv):
                ref = float(fn(nu, x, derivative=1))
                scale = abs(float(fn(nu, x))) + abs(ref)
                assert abs(got - ref) <= 3e-13 * scale, (name, nu, x)


@functools.lru_cache(maxsize=None)
def _mpmath_ladder(f, x, top):
    """30-digit J and Y at the orders f - 1, f, ..., f + top + 1 (f exact in
    [0, 1)): mpmath's besselj at the two highest orders and bessely at the
    two lowest, the exact recurrence C_{v-1} + C_{v+1} = (2v/x) C_v (DLMF
    10.6.1) in between, J downwards and Y upwards.  The far ends and the
    rungs nearest x are checked against mpmath's own values to 1e-20."""
    import mpmath

    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        v = [f - 1 + k for k in range(top + 3)]
        y = [mpmath.bessely(v[0], xm), mpmath.bessely(v[1], xm)]
        for o in v[1:-1]:
            y.append(2 * o / xm * y[-1] - y[-2])
        j = [mpmath.besselj(v[-1], xm), mpmath.besselj(v[-2], xm)]
        for o in v[-2:0:-1]:
            j.append(2 * o / xm * j[-1] - j[-2])
        j.reverse()
        near_x = min(max(int(x - f) + 1, 1), top + 1)
        for fn, c, k in ((mpmath.besselj, j, 0), (mpmath.besselj, j, 1), (mpmath.bessely, y, -1),
                         (mpmath.besselj, j, near_x), (mpmath.bessely, y, near_x)):
            direct = fn(v[k], xm)
            assert abs(c[k] - direct) <= 1e-20 * (abs(direct) + abs(c[k - 1])), (f, x, k)
    return j, y


def mpmath_window_pairs(n, mu, x):
    """(J, J', Y, Y') at the exact orders |n - mu| of a mode window, as four
    float arrays, from the 30-digit ladders of :func:`_mpmath_ladder`."""
    import mpmath

    top = int(np.max(np.abs(n - mu))) + 1
    out = np.empty((4, len(n)))
    with mpmath.workdps(30):
        for i, ni in enumerate(n):
            v = abs(int(ni) - mpmath.mpf(mu))
            k = int(mpmath.floor(v))
            j, y = _mpmath_ladder(v - k, x, top)
            out[:, i] = [float(c) for c in (j[k + 1], j[k] - v / x * j[k + 1],
                                            y[k + 1], y[k] - v / x * y[k + 1])]
    return out


def worst_scaled_error(got, ref):
    """max |got - ref| / (|C| + |C'|) of J, J', Y and Y' over a window."""
    return [float(np.max(np.abs(got[a] - ref[a]) / (np.abs(ref[a]) + np.abs(ref[b]))))
            for a, b in ((0, 1), (1, 0), (2, 3), (3, 2))]


@pytest.mark.parametrize("x", [30.0, 100.0, 200.0, 480.0, 1000.0])
def test_window_ladder_against_mpmath(x):
    # every order of a window, one call on each side of mu, both flux signs:
    # integer, half-integer, k +- 1e-12 (ladders with orders 2e-12 apart)
    # and +-0.0; error
    # relative to |C| + |C'|, worst measured 2.8e-13 (J at x = 1000, set by
    # scipy's J at the top of the ladder; scipy's own values there: 8.9e-13)
    k = 100
    for base in (k, k + 0.5, k + 1e-12, k - 1e-12, 0.0):
        for mu in (base, -base):
            n, nu, _ = radial._mode_window(radial.VortexParams(X=x, mu=mu))
            err = worst_scaled_error(window_pairs(n, nu, mu, x), mpmath_window_pairs(n, mu, x))
            assert max(err) <= 3e-13, (x, mu, err)


def test_window_at_the_bottom_of_the_range():
    # the window's top rung is n_max + 1/2 = 26.5 at most; scipy flushes the
    # integer-order J_26 to zero below x = 1.49e-10 and the recurrence needs
    # a normal float there, so that window is refused; just above, every
    # value is finite (Y at most ~1e294) and within the mpmath bound
    for mu in (0.0, 0.5, 0.37, -7.25):
        n, nu, _ = radial._mode_window(radial.VortexParams(X=1.5e-10, mu=mu))
        pairs = window_pairs(n, nu, mu, 1.5e-10)
        assert np.isfinite(pairs).all()
        assert max(worst_scaled_error(pairs, mpmath_window_pairs(n, mu, 1.5e-10))) <= 3e-13
    n, nu, _ = radial._mode_window(radial.VortexParams(X=1.4e-10, mu=0.0))
    with pytest.raises(ValueError, match="not a normal float"):
        window_pairs(n, nu, 0.0, 1.4e-10)


# ---------------------------------------------------------------------------
# second solution
# ---------------------------------------------------------------------------

def test_bessel_second_half_integer_closed_form():
    # companion of order 1/2 is -sqrt(2/(pi x)) cos x; at x = pi the
    # closed form gives +sqrt(2)/pi
    expected = math.sqrt(2.0) / math.pi
    assert cyl(0.5, math.pi)[2] == pytest.approx(expected, rel=1e-10)


def test_bessel_second_integer_order_quadrature_oracle():
    assert cyl(3.0, 4.0)[2] == pytest.approx(quad_bessel_second_integer(3, 4.0), rel=1e-9)


def test_wronskian_identity_spot():
    # J Y' - Y J' = 2/(pi x)
    j, jp, y, yp = cyl(2.7, 5.0)
    assert j * yp - y * jp == pytest.approx(2.0 / (math.pi * 5.0), rel=1e-10)


def test_wronskian_identity_grid():
    # acceptance-style sweep: 200 (nu, x) pairs across the working range
    rng = np.random.default_rng(42)
    nus = rng.uniform(0.0, 60.0, 200)
    xs = rng.uniform(0.5, 300.0, 200)
    for nu, x in zip(nus, xs):
        j, jp, y, yp = cyl(nu, x)
        assert abs(j * yp - y * jp - 2.0 / (math.pi * x)) <= 1e-9 * abs(2.0 / (math.pi * x))


# ---------------------------------------------------------------------------
# travelling waves sqrt(pi/2) (J +/- i Y) built from the pairs
# ---------------------------------------------------------------------------

def travelling_waves(nu, x):
    """(h+, h+', h-, h-') with h+- = sqrt(pi/2) (J +- i Y), normalised so
    that h+- ~ x^(-1/2) exp(+-i (x - nu pi/2 - pi/4)) as x -> infinity."""
    j, jp, y, yp = cyl(nu, x)
    pref = math.sqrt(math.pi / 2.0)
    return (pref * complex(j, y), pref * complex(jp, yp),
            pref * complex(j, -y), pref * complex(jp, -yp))


def _unit_phase(phase):
    return complex(math.cos(phase), math.sin(phase))


def test_hankel_out_asymptotic_phase():
    # ~ x^(-1/2) exp(+-i(x - nu pi/2 - pi/4)) at large x
    nu, x = 0.5, 200.0
    plus, _, minus, _ = travelling_waves(nu, x)
    ref = _unit_phase(x - nu * math.pi / 2 - math.pi / 4) / math.sqrt(x)
    assert abs(plus - ref) <= 1e-6 * abs(ref)
    assert abs(minus - ref.conjugate()) <= 1e-6 * abs(ref)


def test_hankel_out_conjugation():
    # real J and Y make the incoming wave the conjugate of the outgoing
    # one; their Wronskian is 2i/x
    for nu, x in [(0.3, 5.0), (7.7, 12.0), (2.0, 40.0)]:
        plus, plus_d, minus, minus_d = travelling_waves(nu, x)
        assert minus == plus.conjugate()
        assert minus_d == plus_d.conjugate()
        assert minus * plus_d - plus * minus_d == pytest.approx(2j / x)


def test_hankel_out_recombination():
    # equals sqrt(pi/2) H^(1)_nu, with H' = H_{nu-1} - (nu/x) H, from mpmath
    import mpmath

    nu, x = 2.3, 7.0
    plus, plus_d, _, _ = travelling_waves(nu, x)
    h, h_lower = (complex(mpmath.hankel1(v, x)) for v in (nu, nu - 1.0))
    assert plus == pytest.approx(math.sqrt(math.pi / 2) * h)
    assert plus_d == pytest.approx(math.sqrt(math.pi / 2) * (h_lower - nu / x * h))


def test_hankel_phase_law_convergence():
    # arg h - (x - nu pi/2 - pi/4) -> 0 as x grows at fixed nu; the
    # leading phase correction decays like (4 nu^2 - 1)/(8 x)
    import cmath
    nu = 3.2
    errs = []
    for x in (50.0, 200.0, 800.0):
        h = travelling_waves(nu, x)[0]
        d = cmath.phase(h / _unit_phase(x - nu * math.pi / 2 - math.pi / 4))
        errs.append(abs(d))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1.1 * (4.0 * nu * nu - 1.0) / (8.0 * 800.0)


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
