"""Amplitude assembly and cross-section curves: free-case cancellation,
closed-form oracles, decomposition properties."""

import cmath
import math

import numpy as np
import pytest

from vortexscatter import amplitudes as amp
from vortexscatter import asymptotics as asy
from vortexscatter.radial import VortexParams, mode_table


# ---------------------------------------------------------------------------
# incoming coefficients and phase factors
# ---------------------------------------------------------------------------

def test_incoming_coefficient_values():
    assert amp.incoming_coefficient(0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    expected = cmath.exp(1j * 0.75 * math.pi) / math.sqrt(2 * math.pi)
    assert amp.incoming_coefficient(1, 0.5) == pytest.approx(expected)


def test_flux_phase_equivalence():
    # e^{i(|n|-|n-mu|) pi} = e^{i mu sgn(n-mu) pi} for every integer n
    for mu in (0.3, 1.7, 2.5, 5.9, -0.4, -3.3):
        for n in range(-50, 51):
            sgn = 1.0 if n >= mu else -1.0
            lhs = amp.flux_phase(n, mu)
            rhs = cmath.exp(1j * mu * sgn * math.pi)
            assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# flux-line amplitude
# ---------------------------------------------------------------------------

def test_ab_amplitude_integer_flux_vanishes():
    for phi in (0.3, -1.2, 2.9):
        assert abs(amp.ab_amplitude(phi, 1.0)) < 1e-15
        assert abs(amp.ab_amplitude(phi, -2.0)) < 1e-15


def test_ab_amplitude_backscattering_half_quantum():
    # k |f|^2 = sin^2(mu pi)/(2 pi sin^2(phi/2)) -> 1/(2 pi) at mu = 1/2, phi = pi
    val = abs(amp.ab_amplitude(math.pi - 1e-12, 0.5)) ** 2
    assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-9)


def test_ab_amplitude_quarter_flux():
    val = abs(amp.ab_amplitude(math.pi / 2, 0.25)) ** 2
    expected = math.sin(0.25 * math.pi) ** 2 / (2 * math.pi * math.sin(math.pi / 4) ** 2)
    assert val == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0 / (2.0 * math.pi))


def test_ab_amplitude_rejects_forward():
    with pytest.raises(ValueError):
        amp.ab_amplitude(0.0, 0.5)


# ---------------------------------------------------------------------------
# edge-diffraction amplitude
# ---------------------------------------------------------------------------

def test_f1_zero_flux_collapses_to_geometric_sum():
    X, phi = 50.0, math.pi / 2
    p = VortexParams(X=X, mu=0.0)
    M = math.floor(X)
    geometric = math.sin((2 * M + 1) * phi / 2) / math.sin(phi / 2)
    expected = 1j / math.sqrt(2 * math.pi) * geometric
    assert amp.f1_sum(phi, p) == pytest.approx(expected, rel=1e-12)


def test_f1_forward_peak_height():
    p = VortexParams(X=200.0, mu=0.3)
    got = abs(amp.f1_sum(1e-12, p)) ** 2
    expected = 2.0 / math.pi * 200.0 ** 2 * math.cos(0.3 * math.pi) ** 2
    assert got == pytest.approx(expected, rel=2.0 / 200.0)


def test_f1_matches_fraunhofer_curve():
    X, mu = 200.0, 0.3
    p = VortexParams(X=X, mu=mu)
    g = np.linspace(-20 / X, 20 / X, 1501)
    got = np.abs(np.asarray(amp.f1_sum(g, p))) ** 2
    ref = np.array([asy.fraunhofer_cs(x, mu, X) for x in g])
    assert np.linalg.norm(got - ref) <= 0.05 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# penetration and far amplitudes
# ---------------------------------------------------------------------------

def test_fc_sums_free_case_cancellation():
    p = VortexParams(X=30.0, mu=0.0, kappa=0.0)
    tab = mode_table(p)
    for phi in (0.1, -0.7, 2.0):
        f1 = amp.f1_sum(phi, p)
        f2, f3 = amp.fc_sums(phi, p, tab)
        assert abs(f1 + f2) < 1e-6
        assert abs(f3) < 1e-10


def test_fc_sums_forward_penetration_is_small():
    p = VortexParams(X=100.0, mu=10.0, kappa=0.0)
    f2, _ = amp.fc_sums(1e-9, p)
    f1 = amp.f1_sum(1e-9, p)
    assert abs(f2) < 0.05 * abs(f1)


def test_f3_fraction_decreases_with_radius():
    ratios = []
    for X in (25.0, 50.0, 100.0):
        p = VortexParams(X=X, mu=0.3, kappa=0.0)
        tab = mode_table(p)
        g = amp.default_angle_grid(301)
        f1 = np.abs(np.asarray(amp.f1_sum(g, p)))
        _, f3 = amp.fc_sums(g, p, tab)
        ratios.append(np.abs(np.asarray(f3)).max() / f1.max())
    assert ratios[0] > ratios[1] > ratios[2]


def test_fc_sums_requires_covering_table():
    # a table built for other parameters (here the other spin) is refused
    p = VortexParams(X=30.0, mu=0.3, kappa=0.0)
    other = mode_table(VortexParams(X=30.0, mu=0.3, kappa=0.0, sigma=-1))
    with pytest.raises(ValueError):
        amp.fc_sums(0.3, p, other)
    with pytest.raises(ValueError):
        amp.cross_section_curve(p, np.array([0.3]), amp.EXACT, other)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_default_grid_excludes_forward():
    g = amp.default_angle_grid(2001)
    assert len(g) == 2001
    assert np.all(np.abs(g) < math.pi)
    assert np.all(g != 0.0)
    assert np.all(np.diff(g) > 0)


def test_exact_curve_free_case_null():
    p = VortexParams(X=50.0, mu=0.0, kappa=0.0)
    curve = amp.cross_section_curve(p, amp.default_angle_grid(501), amp.EXACT)
    assert np.all(curve.value <= 1e-12)


def test_curve_nonnegative_and_finite():
    p = VortexParams(X=30.0, mu=2.5, kappa=1.0)
    for method in amp.METHOD_TAGS:
        curve = amp.cross_section_curve(p, amp.default_angle_grid(201), method)
        assert np.all(curve.value >= 0.0)
        assert np.all(np.isfinite(curve.value))
        assert curve.method == method


def test_exact_curve_extras_consistent():
    p = VortexParams(X=30.0, mu=2.5, kappa=0.0)
    g = amp.default_angle_grid(101)
    curve = amp.cross_section_curve(p, g, amp.EXACT)
    ex = curve.extras
    total = np.abs(ex["f_ab"] + ex["f1"] + ex["f2"] + ex["f3"]) ** 2
    assert np.allclose(curve.value, total)
    assert np.allclose(ex["interference"], 2.0 * (ex["f1"] * np.conj(ex["f2"])).real)


def test_exact_curve_reuses_mode_sums_bit_for_bit():
    # the Exact curve sums f1 once; it must equal f1_sum, and f2, f3 must
    # equal fc_sums, in every bit
    p = VortexParams(X=30.0, mu=2.5, kappa=1.0)
    g = amp.default_angle_grid(101)
    ex = amp.cross_section_curve(p, g, amp.EXACT).extras
    f2, f3 = amp.fc_sums(g, p)
    assert np.array_equal(ex["f1"], amp.f1_sum(g, p))
    assert np.array_equal(ex["f2"], f2) and np.array_equal(ex["f3"], f3)


def test_spin_flip_curve_symmetry_without_shell():
    # consequence of the exact spin-channel pairing at kappa = 0: the full
    # cross-section curves of the two spin projections coincide
    g = amp.default_angle_grid(401)
    pa = VortexParams(X=50.0, mu=1.7, kappa=0.0, sigma=+1)
    pb = VortexParams(X=50.0, mu=1.7, kappa=0.0, sigma=-1)
    va = amp.cross_section_curve(pa, g, amp.EXACT).value
    vb = amp.cross_section_curve(pb, g, amp.EXACT).value
    assert np.allclose(va, vb, rtol=1e-9, atol=1e-12 * va.max())


def test_mirror_symmetry_under_field_and_spin_flip():
    # reflecting the scattering plane reverses the field direction and the
    # spin projection together: curve(mu, sigma, phi) = curve(-mu, -sigma, -phi)
    g = np.linspace(-2.0, 2.0, 41)
    g = g[np.abs(g) > 1e-9]
    pa = VortexParams(X=30.0, mu=2.5, kappa=1.0, sigma=+1)
    pb = VortexParams(X=30.0, mu=-2.5, kappa=1.0, sigma=-1)
    va = amp.cross_section_curve(pa, g, amp.EXACT).value
    vb = amp.cross_section_curve(pb, -g[::-1], amp.EXACT).value[::-1]
    assert np.allclose(va, vb, rtol=1e-10)


def test_interference_residual_forward_suppression():
    # the f1/f2 interference vanishes toward phi = 0 at the rate of |f2|
    p = VortexParams(X=100.0, mu=10.0, kappa=0.0)
    tab = mode_table(p)
    for phi in (-0.02, -0.005, -0.001):
        f1 = amp.f1_sum(phi, p)
        f2, _ = amp.fc_sums(phi, p, tab)
        resid = abs(2.0 * (f1 * np.conj(f2)).real)
        assert resid <= 2.0 * abs(f1) * abs(f2) * (1 + 1e-12)
        assert resid <= 2.5 * abs(f2) * abs(amp.f1_sum(-1e-9, p))


def test_interference_relative_weight_decreases_with_radius():
    # the diffraction/penetration cross term loses weight as the vortex
    # grows (the two pieces separate in angle)
    vals = []
    for X, mu in ((50.0, 5.0), (100.0, 10.0), (200.0, 20.0)):
        p = VortexParams(X=X, mu=mu, kappa=0.0)
        curve = amp.cross_section_curve(p, amp.default_angle_grid(2001), amp.EXACT)
        m = np.abs(curve.phi) > 5.0 / X
        num = np.linalg.norm(curve.extras["interference"][m])
        den = np.linalg.norm((curve.extras["f1_sq"] + curve.extras["f2_sq"])[m])
        vals.append(num / den)
    assert vals[0] > vals[1] > vals[2]


def test_curve_grid_validation():
    p = VortexParams(X=10.0, mu=0.3)
    with pytest.raises(ValueError):
        amp.cross_section_curve(p, np.array([0.2, 0.1]), amp.EXACT)
    with pytest.raises(ValueError):
        amp.cross_section_curve(p, np.array([0.1, math.pi]), amp.EXACT)
    with pytest.raises(ValueError):
        amp.cross_section_curve(p, np.array([0.1, 0.2]), "Bogus")


def test_classical_and_penetration_units_are_rescaled():
    # curve methods report k dsigma/(dz dphi): X times the r_c-unit forms
    mu, X = 30.0, 40.0
    p = VortexParams(X=X, mu=mu)
    g = np.array([-0.8, 0.3])
    pen = amp.cross_section_curve(p, g, amp.PENETRATION)
    cls = amp.cross_section_curve(p, g, amp.CLASSICAL)
    for i, phi in enumerate(g):
        v, _ = asy.penetration_cs(float(phi), mu, X)
        assert pen.value[i] == pytest.approx(v * X)
        assert cls.value[i] == pytest.approx(
            asy.classical_cs(float(phi), X / (2 * mu), +1) * X)
    assert pen.extras["branch"] == ["Strong", "Strong"]
