"""Exact radial solver: interior integration, edge matching, mode tables."""

import math
import types

import numpy as np
import pytest

from vortexscatter import amplitudes, asymptotics, radial, specfun
from vortexscatter.radial import (
    FAR,
    NEAR,
    ModeMatch,
    SolverFailure,
    VortexParams,
    inside_solution,
    mode_table,
    outside_basis_at_edge,
)


def cylinder_functions(nu, x):
    """(J, J', Y, Y') at one order as floats."""
    return [float(a[0]) for a in specfun.cylinder_pairs(np.array([nu]), x)]


def window_rows(n, nu, mu, x):
    """(J, J', Y, Y') over a mode window as a (4, len(n)) array: one ladder
    call on the orders of n < mu read backwards, one on those of n >= mu."""
    k = np.count_nonzero(n < mu)
    below, above = (specfun.cylinder_pairs(v, x) for v in (nu[:k][::-1], nu[k:]))
    return np.array([np.concatenate([b[::-1], a]) for b, a in zip(below, above)])


def match_coefficient(n, params, inside=None, edge=None):
    """Scalar oracle for one mode of the table: CPython complex arithmetic on
    the edge pairs, with the table's Dirichlet limit and its rule that a far
    mode whose irregular member overflows is free.  ``edge`` gives
    (J, J', Y, Y'), by default the cylinder functions of the mode's one
    order; ``inside`` replaces the interior pair (tau, tau') (for the
    scale-invariance check)."""
    X, nu = params.X, abs(n - params.mu)
    near = nu <= X
    j, jp, y, yp = edge or cylinder_functions(nu, X)
    if not near and not (math.isfinite(y) and math.isfinite(yp)):
        return ModeMatch(n=n, nu=nu, regime=FAR, c_n=0j, s_n=1 + 0j)
    if math.isinf(params.kappa):
        p, q = j, y
    else:
        tv, td = inside or inside_solution(n, params)
        kap = params.kappa
        p = j * td - tv * jp + kap * j * tv
        q = y * td - tv * yp + kap * y * tv
    den = complex(p, q)
    s_n = -complex(p, -q) / den
    c_n = -s_n if near else 2.0 * p / den
    return ModeMatch(n=n, nu=nu, regime=NEAR if near else FAR, c_n=c_n, s_n=s_n)


def table_row(params, n):
    """Row n of the mode table of ``params``."""
    tab = mode_table(params)
    return tab[n - int(tab.n[0])]


# ---------------------------------------------------------------------------
# parameters and mode regimes
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        VortexParams(X=0.0, mu=1.0)
    with pytest.raises(ValueError):
        VortexParams(X=10.0, mu=1.0, sigma=2)
    p = VortexParams(X=30.0, mu=0.3, kappa=math.inf)
    assert p.is_large_radius
    assert p.orbit_radius_ratio == 30.0 / 0.6


def test_mode_index_regimes():
    p = VortexParams(X=10.0, mu=0.4)
    assert table_row(p, 3).regime == NEAR
    assert table_row(p, 3).nu == pytest.approx(2.6)
    assert table_row(p, 11).regime == FAR
    assert table_row(p, -10).regime == FAR  # nu = 10.4 > 10
    # the table is the one mode window, and its near modes are those with
    # |n - mu| <= X, also where |n - mu| == X (n = +-10 at X = 9.75)
    for X, mu, lo, hi in ((10.0, 0.4, -9, 10), (9.75, 0.25, -9, 10),
                          (9.75, -0.25, -10, 9), (30.0, -7.5, -37, 22)):
        p = VortexParams(X=X, mu=mu)
        tab, (n, nu, near) = mode_table(p), radial._mode_window(p)
        assert np.array_equal(tab.n, n) and np.array_equal(tab.nu, nu)
        assert np.array_equal(tab.near, near)
        assert tab.n[tab.near].tolist() == list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# interior solution
# ---------------------------------------------------------------------------

def test_interior_free_field_is_regular_cylinder_function():
    # with no field the interior equation is the free cylinder equation,
    # so the boundary pair must be proportional to (J_n, J_n')
    p = VortexParams(X=5.0, mu=0.0)
    value, derivative = inside_solution(0, p)
    j, jp, _, _ = cylinder_functions(0.0, 5.0)
    cross = value * jp - derivative * j
    scale = math.hypot(value, derivative) * math.hypot(j, jp)
    assert abs(cross) <= 1e-9 * scale


def rk4_oracle(n, params, steps=200_000):
    """Independent fixed-step classical RK4 integration of the reduced
    interior equation, used as the cross-check for the adaptive solver."""
    m = abs(n)
    A = 1.0 + 2.0 * params.mu * (n + params.sigma) / params.X ** 2
    B = (params.mu / params.X ** 2) ** 2

    def rhs(x, u, v):
        return v, -(2 * m + 1) * v / x - (A - B * x * x) * u

    x = 0.05 * math.sqrt(m + 1.0)
    # two-term series start; fixed-step error dominates anyway
    c2 = -A / (4.0 * (m + 1.0))
    u, v = 1.0 + c2 * x * x, 2.0 * c2 * x
    h = (params.X - x) / steps
    for _ in range(steps):
        k1u, k1v = rhs(x, u, v)
        k2u, k2v = rhs(x + h / 2, u + h / 2 * k1u, v + h / 2 * k1v)
        k3u, k3v = rhs(x + h / 2, u + h / 2 * k2u, v + h / 2 * k2v)
        k4u, k4v = rhs(x + h, u + h * k3u, v + h * k3v)
        u += h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        x += h
    return u, v + m * u / params.X


def test_interior_against_fixed_step_oracle():
    p = VortexParams(X=10.0, mu=0.5, sigma=+1)
    value, derivative = inside_solution(2, p)
    u_o, d_o = rk4_oracle(2, p)
    # compare the scale-free boundary angle atan2(der, val)
    got = math.atan2(derivative, value)
    ref = math.atan2(d_o, u_o)
    assert abs(got - ref) <= 1e-8


def test_interior_spin_term_is_small_at_large_radius():
    # the spin term shifts the boundary phase by O(|mu|/X) and the shift
    # shrinks like 1/X at fixed flux
    def spin_shift(X):
        pa = VortexParams(X=X, mu=0.3, sigma=+1)
        pb = VortexParams(X=X, mu=0.3, sigma=-1)
        (va, da), (vb, db) = inside_solution(1, pa), inside_solution(1, pb)
        return abs(math.atan2(da, va) - math.atan2(db, vb))

    d40 = spin_shift(40.0)
    assert d40 <= 10.0 * 2.0 * 0.3 / 40.0
    assert spin_shift(80.0) < d40


def test_inside_solution_rejects_out_of_range_mode():
    # exactly the window round(mu) - n_max <= n <= round(mu) + n_max
    p = VortexParams(X=10.0, mu=-3.4)
    lo, hi = -3 - p.n_max, -3 + p.n_max
    for n in (lo, hi):
        assert math.hypot(*inside_solution(n, p)) == pytest.approx(1.0)
    for n in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match="outside the mode window"):
            inside_solution(n, p)


# ---------------------------------------------------------------------------
# outside basis
# ---------------------------------------------------------------------------

def test_outside_basis_near_delegates_to_hankel():
    # a near mode gives the real pair that the Hankel waves sqrt(pi/2)
    # (J +/- i Y) are made of: (J, J', Y, Y') as floats, bit for bit
    basis = outside_basis_at_edge(0, VortexParams(X=10.0, mu=0.0))
    assert all(type(v) is float for v in basis)
    assert list(basis) == cylinder_functions(0.0, 10.0)


def test_outside_basis_far_wronskian_pair():
    p = VortexParams(X=10.0, mu=0.6)
    j, jp, y, yp = basis = outside_basis_at_edge(13, p)  # nu = 12.4 > X
    assert list(basis) == cylinder_functions(abs(13 - 0.6), 10.0)
    assert abs(j) < 0.1 < abs(y)
    assert j * yp - y * jp == pytest.approx(2.0 / (math.pi * 10.0), rel=1e-9)


def test_outside_basis_near_recombination():
    # the pair that recombines into the travelling waves of a near mode is
    # taken at the order nu = |n - mu| = 3.2, not at |n|
    basis = outside_basis_at_edge(4, VortexParams(X=50.0, mu=0.8))
    assert list(basis) == cylinder_functions(abs(4 - 0.8), 50.0)
    assert basis[0] != cylinder_functions(4.0, 50.0)[0]


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_free_case_matching():
    p = VortexParams(X=10.0, mu=0.0, kappa=0.0)
    for n in (0, 3, -7):
        m = table_row(p, n)
        assert m.regime == NEAR
        assert abs(m.c_n + 1.0) < 1e-10
        assert abs(m.s_n - 1.0) < 1e-10
    far = table_row(p, 14)
    assert far.regime == FAR
    assert abs(far.c_n) < 1e-10
    assert abs(far.s_n - 1.0) < 1e-10


def test_dirichlet_limit():
    p_inf = VortexParams(X=30.0, mu=0.37, kappa=math.inf)
    m_inf = table_row(p_inf, 5)
    m_big = table_row(VortexParams(X=30.0, mu=0.37, kappa=1e8), 5)
    assert abs(m_inf.c_n - m_big.c_n) < 1e-6
    # monotone approach ~ C/kappa
    errs = [abs(table_row(VortexParams(X=30.0, mu=0.37, kappa=k), 5).c_n
                - m_inf.c_n) for k in (1e2, 1e4, 1e6, 1e8)]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[1] <= 2.0 * errs[0] * 1e-2


def test_unitarity_and_modulus():
    p = VortexParams(X=20.0, mu=0.3, kappa=0.0)
    for m in mode_table(p):
        assert abs(abs(m.s_n) - 1.0) <= 1e-8
        if m.regime == NEAR:
            assert abs(abs(m.c_n) - 1.0) <= 1e-8


def test_scale_invariance_of_matching():
    p = VortexParams(X=15.0, mu=0.8, kappa=2.0)
    value, derivative = inside_solution(3, p)
    m0 = match_coefficient(3, p)
    for scale in (1e-30, 7.3, 1e+25):
        m1 = match_coefficient(3, p, (value * scale, derivative * scale))
        assert m1.c_n == pytest.approx(m0.c_n, rel=1e-13)
        assert m1.s_n == pytest.approx(m0.s_n, rel=1e-13)


def test_spin_decoupling_scan():
    # max_n |c_n(+1) - c_n(-1)| decreases as the vortex grows at fixed flux
    worst = []
    for X in (25.0, 50.0, 100.0):
        ta = mode_table(VortexParams(X=X, mu=1.7, kappa=0.0, sigma=+1))
        tb = mode_table(VortexParams(X=X, mu=1.7, kappa=0.0, sigma=-1))
        worst.append(max(abs(a.c_n - b.c_n) for a, b in zip(ta, tb)))
    assert worst[0] > worst[1] > worst[2]


def test_spin_channel_pairing_without_shell():
    # exact degeneracy of the two spin channels for kappa = 0: the c of
    # spin-up mode n coincides with the c of spin-down mode n+1
    pa = VortexParams(X=40.0, mu=2.3, kappa=0.0, sigma=+1)
    pb = VortexParams(X=40.0, mu=2.3, kappa=0.0, sigma=-1)
    for n in (-4, 0, 7):
        ca = table_row(pa, n).c_n
        cb = table_row(pb, n + 1).c_n
        assert ca == pytest.approx(cb, abs=1e-9)


# ---------------------------------------------------------------------------
# mode tables
# ---------------------------------------------------------------------------

def test_mode_table_free_case_all_zero_scattering():
    tab = mode_table(VortexParams(X=12.0, mu=0.0, kappa=0.0))
    for m in tab:
        if m.regime == FAR:
            assert abs(m.c_n) < 1e-10


def test_mode_table_determinism_and_coverage():
    p = VortexParams(X=20.0, mu=0.3, kappa=1.0)
    t1 = mode_table(p)
    t2 = mode_table(p)
    assert [m.n for m in t1] == list(range(-p.n_max, p.n_max + 1))
    assert all(a.c_n == b.c_n for a, b in zip(t1, t2))


def test_mode_table_rows_are_its_arrays_built_once():
    # the rows carry Python scalars equal to the arrays, and a second pass
    # over the table returns the same row objects, not rebuilt ones
    tab = mode_table(VortexParams(X=30.0, mu=2.3, kappa=1.0))
    rows = list(tab)
    assert len(rows) == len(tab) == len(tab.n)
    for m, n, nu, near, c, s in zip(rows, tab.n, tab.nu, tab.near, tab.c_n, tab.s_n):
        assert [type(v) for v in (m.n, m.nu, m.regime, m.c_n, m.s_n)] == [int, float, str, complex, complex]
        assert (m.n, m.nu, m.regime, m.c_n, m.s_n) == (n, nu, NEAR if near else FAR, c, s)
    assert all(a is b for a, b in zip(tab, rows))
    assert tab[-1] is rows[-1] and tab[0] is rows[0]


def test_mode_table_cache_is_bounded():
    # a long-running process must not keep every table it ever built
    for k in range(20):
        mode_table(VortexParams(X=10.0, mu=0.05 + 0.1 * k, kappa=math.inf))
    assert mode_table.cache_info().currsize <= 8


def test_mode_table_far_tail_truncated():
    p = VortexParams(X=20.0, mu=0.3, kappa=1.0)
    tab = mode_table(p)
    tail = [m for m in tab if m.n > p.X + 25]
    assert tail and all(m.c_n == 0.0 and m.s_n == 1.0 for m in tail)


def test_mode_table_far_decay_beyond_turning_point():
    p = VortexParams(X=100.0, mu=10.0, kappa=2.0)
    tab = {m.n: m for m in mode_table(p)}
    cut = 100.0 + 10.0 + 100.0 ** (1.0 / 3.0)
    mags = [abs(tab[n].c_n) for n in range(int(cut) + 1, int(cut) + 12)]
    assert all(a > b for a, b in zip(mags, mags[1:]) if b > 0.0)


def test_mode_table_range_validation():
    # an argument beyond the cylinder functions' range is refused up front,
    # naming the scenario
    for X in (1100.0, 1200.0):
        with pytest.raises(SolverFailure, match=f"X={X}, mu=0.3"):
            mode_table(VortexParams(X=X, mu=0.3))


def test_extreme_flux_is_refused_naming_the_scenario():
    # past 2^53 the window's mode indices are no longer exact in float64
    p = VortexParams(X=30.0, mu=1e20)
    for call in (lambda: mode_table(p), lambda: amplitudes.f1_sum(0.1, p),
                 lambda: asymptotics.f2_asymptotic(0.1, p.mu, p.X)):
        with pytest.raises(SolverFailure, match=r"X=30.0, mu=1e\+20"):
            call()


def test_large_flux_table_fails_without_running_up_to_mu():
    # the recurrences start and stop within n_max of round(mu): the
    # certification refuses this table instead of allocating ~3e9 rows
    with pytest.raises(SolverFailure, match="X=30.0, mu=3000000000.0"):
        mode_table(VortexParams(30.0, 3e9))


@pytest.mark.parametrize("X", [30.0, 100.0, 200.0, 480.0])
def test_mode_table_matches_scalar_oracle(X):
    # every mode of both flux signs, three shell strengths and both spins;
    # c_n and s_n differ from the oracle, which matches the same window row
    # of cylinder_pairs (one ladder on each side of mu), only by numpy's
    # complex division
    for mu in (0.15 * X + 0.37, -(0.15 * X + 0.37)):
        n, nu, _ = radial._mode_window(VortexParams(X=X, mu=mu))
        rows = window_rows(n, nu, mu, X)
        # one order from scipy against its row of the window's ladder: each
        # is within 3e-13 of |C| + |C'| from mpmath (tests/test_specfun.py,
        # NOTES.md), so they agree within twice that; worst measured 3.1e-13
        # (J at X = 480, mostly scipy's own error)
        one = np.array([outside_basis_at_edge(int(k), VortexParams(X=X, mu=mu)) for k in n]).T
        for a, b in ((0, 1), (1, 0), (2, 3), (3, 2)):
            assert (np.abs(one[a] - rows[a]) <= 6e-13 * (np.abs(rows[a]) + np.abs(rows[b]))).all()
        for kappa in (0.0, 2.5, math.inf):
            for sigma in (+1, -1):
                p = VortexParams(X=X, mu=mu, kappa=kappa, sigma=sigma)
                tab = mode_table(p)
                assert tab.n.tolist() == list(range(round(mu) - p.n_max, round(mu) + p.n_max + 1))
                free = ~tab.near & (tab.c_n == 0.0) & (tab.s_n == 1.0)
                lo, hi = np.flatnonzero(~free)[[0, -1]]
                assert free[:lo].all() and free[hi + 1:].all() and not free[lo:hi + 1].any()
                for i, m in enumerate(tab):
                    ref = match_coefficient(m.n, p, edge=tuple(float(a) for a in rows[:, i]))
                    assert (m.n, m.nu, m.regime) == (ref.n, ref.nu, ref.regime)
                    if free[i]:  # past the tail cutoff
                        assert abs(ref.c_n) < 1e-14 and abs(ref.s_n - 1.0) < 1e-14
                        continue
                    assert abs(m.c_n - ref.c_n) <= 4.5e-16, (p, m.n)
                    assert abs(m.s_n - ref.s_n) <= 4.5e-16, (p, m.n)


@pytest.mark.parametrize("X, mu, kappa", [
    (480.0, 90.1, 3.0), (480.0, -70.3, 0.0), (480.0, 40.7, math.inf), (1000.0, 50.3, 1.0)])
def test_mode_table_tail_reaches_cutoff_at_large_radius(X, mu, kappa):
    # the outermost computed far mode on each side lies below the 1e-14
    # cutoff; orders above 500 once ended the X = 480 tables at |c_n| ~ 5e-4
    tab = mode_table(VortexParams(X=X, mu=mu, kappa=kappa))
    computed = np.flatnonzero(tab.c_n != 0.0)
    for i in (computed[0], computed[-1]):
        assert not tab.near[i] and abs(tab.c_n[i]) < 1e-14
    assert tab.c_n[0] == 0.0 and tab.c_n[-1] == 0.0


def test_mode_table_refuses_window_without_tail(monkeypatch):
    # no |c_n| falls below a zero cutoff, so no window is wide enough
    monkeypatch.setattr(radial, "_TAIL_EPS", 0.0)
    with pytest.raises(SolverFailure, match="X=30.0, mu=0.123"):
        mode_table.__wrapped__(VortexParams(X=30.0, mu=0.123))


def test_mode_table_checks_the_wronskian(monkeypatch):
    # a ladder whose second anchor is off by 1e-9 breaks pi X/2 W{J, Y} = 1
    # by far more than the 1e-12 bound (worst measured on working code: 2.8e-13)
    recur = specfun._recur
    monkeypatch.setattr(specfun, "_recur", lambda c0, c1, coef: recur(c0, c1 * (1.0 + 1e-9), coef))
    with pytest.raises(SolverFailure, match="X=30.0, mu=0.37: .*Wronskian"):
        mode_table.__wrapped__(VortexParams(X=30.0, mu=0.37))


@pytest.mark.parametrize("X", [30.0, 480.0])
def test_mode_table_evaluates_few_cylinder_functions(monkeypatch, X):
    # the window's two ladders take two J and two Y values each from scipy;
    # one evaluation per order would be about 4 (2 n_max + 1)
    count = []

    def counted(fn):
        def wrapper(nu, x):
            count.append(np.size(nu))
            return fn(nu, x)
        return wrapper

    sp = specfun._sp
    monkeypatch.setattr(specfun, "_sp", types.SimpleNamespace(jv=counted(sp.jv), yv=counted(sp.yv)))
    for mu in (0.3 * X + 0.37, -7.0):
        count.clear()
        mode_table.__wrapped__(VortexParams(X=X, mu=mu, kappa=2.5))
        assert 0 < sum(count) <= 8, (X, mu, count)
