"""Amplitude assembly and cross-section curves: free-case cancellation,
closed-form oracles, decomposition properties."""

import cmath
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vortexscatter import amplitudes as amp
from vortexscatter import asymptotics as asy
from vortexscatter.radial import VortexParams, mode_table


# ---------------------------------------------------------------------------
# phase factors
# ---------------------------------------------------------------------------

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
# mode-sum contraction
# ---------------------------------------------------------------------------

def _fsum_amplitudes(phi, params, table):
    """f1, f2 and f3 at each angle, each a math.fsum of its mode terms."""
    p = amp.flux_phase(table.n, params.mu)
    rows = ((table.near, p), (table.near, p * table.c_n), (~table.near, p * table.c_n))
    out = np.empty((3, len(phi)), dtype=complex)
    for j, x in enumerate(phi):
        e = np.exp(1j * table.n * x)
        for i, (m, w) in enumerate(rows):
            t = w[m] * e[m]
            out[i, j] = complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))
    return 1j / math.sqrt(2.0 * math.pi) * out


@pytest.mark.parametrize("X, mu", [(30.0, 2.3), (480.0, 40.7)])
@pytest.mark.parametrize("kappa", [0.0, math.inf])
def test_mode_sums_match_fsum_oracle_across_block_edges(X, mu, kappa):
    # the contraction runs in blocks of 256 angles: grids of 1, 255, 257
    # and 2001 angles end inside, before and after a block edge
    p = VortexParams(X=X, mu=mu, kappa=kappa)
    tab = mode_table(p)
    grids = [np.linspace(-3.0, 3.0, n) for n in (2001, 257, 255)] + [np.array([0.3])]
    refs = [_fsum_amplitudes(g, p, tab) for g in grids]
    peak = np.abs(refs[0][0]).max()  # peak |f1|, on the 2001-angle grid
    for g, ref in zip(grids, refs):
        got = np.array(amp._table_sums(g, p, tab))
        assert np.abs(got - ref).max() <= 1e-13 * peak, len(g)


@pytest.mark.parametrize("kappa", [0.0, math.inf])
def test_f2_forward_sum_matches_fsum_oracle(kappa):
    # in the forward peak |f1| ~ X is far above |f2|: f2 is summed from
    # P_n c_n itself, not as sum P_n (1 + c_n) - f1, which lost up to
    # 3.4e-13 of f2 here
    p = VortexParams(X=480.0, mu=40.7, kappa=kappa)
    tab = mode_table(p)
    g = np.array([-1e-3, 1e-3])
    ref = _fsum_amplitudes(g, p, tab)[1]
    f2 = amp._table_sums(g, p, tab)[1]
    assert (np.abs(f2 - ref) <= 1e-14 * np.abs(ref)).all()


def _fsum_mode_sum(phi, ns, weights):
    """(i/sqrt(2 pi)) sum_n weights_n e^{i n phi} at each angle, a math.fsum
    of the mode terms."""
    out = np.empty(len(phi), dtype=complex)
    for j, x in enumerate(phi):
        t = weights * np.exp(1j * ns * x)
        out[j] = complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))
    return 1j / math.sqrt(2.0 * math.pi) * out


@pytest.mark.parametrize("ns", [
    np.array([7]),                                     # one mode, K = 1
    np.arange(-600, 625),                              # K = 35^2: no padding
    np.arange(-600, 626),                              # K = 35^2 + 1: B = 36, a last row of 2
    np.array([-40, -39, -12, 0, 3, 4, 5, 88, 300]),    # gapped, non-contiguous
], ids=["K=1", "K=B^2", "K=B^2+1", "gapped"])
def test_mode_sum_factorisation_edge_cases_match_fsum_oracle(ns):
    # the baby-step giant-step layout pads the modes to an (A, B) array;
    # whatever the padding, every sum agrees with the oracle to 1e-13 of
    # its peak, on the grid and at a scalar angle
    rng = np.random.default_rng(len(ns))
    weights = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(ns))) * (1.0 + 0.01 * ns ** 2) ** -0.5
    g = np.linspace(-3.1, 3.1, 515)
    ref = _fsum_mode_sum(g, ns, weights)
    peak = np.abs(ref).max()
    assert np.abs(amp._mode_sum(g, ns, weights) - ref).max() <= 1e-13 * peak
    got = amp._mode_sum(0.3, ns, weights)
    assert np.ndim(got) == 0
    assert abs(got - _fsum_mode_sum([0.3], ns, weights)[0]) <= 1e-13 * peak


def test_mode_sums_match_fsum_oracle_on_the_cli_grid():
    # the CLI samples linspace(-0.6, 0.6, 2001) with its zero nudged off
    # the flux-line singularity: a non-uniform grid near phi = 0
    from vortexscatter.cli import Scenario

    p = VortexParams(X=480.0, mu=40.7, kappa=0.0)
    tab = mode_table(p)
    g = Scenario(p, grid=(-0.6, 0.6, 2001)).angles()
    ref = _fsum_amplitudes(g, p, tab)
    got = np.array(amp._table_sums(g, p, tab))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref[0]).max()


def test_fc_sums_memory_is_one_block_of_angles():
    # the phase matrix is built one block of angles at a time: on the
    # 12.7k-angle refined grid the sums must not hold a modes x angles matrix
    p = VortexParams(X=200.0, mu=20.3, kappa=0.0)
    tab = mode_table(p)
    g = amp.refined_angle_grid(0.0, 0.2)
    tracemalloc.start()
    try:
        amp.fc_sums(g, p, tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"{len(g)} angles: peak {peak / 1e6:.1f} MB"


def test_exact_curves_identical_at_any_blas_thread_count():
    # a BLAS product splits the mode sum across its threads, which changes
    # the bits with OPENBLAS_NUM_THREADS; the einsum contraction must not
    code = (
        "import sys\n"
        "from vortexscatter import amplitudes as amp\n"
        "from vortexscatter.radial import VortexParams\n"
        "for X, mu in ((100.0, 10.3), (480.0, 40.7)):\n"
        "    c = amp.cross_section_curve(VortexParams(X=X, mu=mu), amp.default_angle_grid(2001))\n"
        "    for a in (c.value, c.extras['f1'], c.extras['f2'], c.extras['f3']):\n"
        "        sys.stdout.buffer.write(a.tobytes())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(amp.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, timeout=300).stdout)
    assert len(outs[0]) == 2 * 2001 * (8 + 3 * 16) and outs[0] == outs[1]


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


def test_classical_curve_refuses_zero_flux():
    p = VortexParams(X=30.0, mu=0.0)
    with pytest.raises(ValueError, match="mu != 0"):
        amp.cross_section_curve(p, np.array([-0.5, 0.0, 0.5]), amp.CLASSICAL)
