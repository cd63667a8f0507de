"""Amplitude assembly and cross-section curves: free-case cancellation,
closed-form oracles, decomposition properties."""

import cmath
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vortexscatter import amplitudes as amp
from vortexscatter import asymptotics as asy
from vortexscatter import radial
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


@pytest.mark.parametrize("mu", [0.3, -3.3, -70.3, 250.5, 720.37, 1e6 + 0.25])
def test_flux_phase_matches_mpmath(mu):
    # e^{i mu sgn(n - mu) pi} to 40 digits over |n| <= 700: the reduced flux
    # keeps full precision where (|n| - |n - mu|) pi lost up to 3.4e-13
    # (3.6e-10 at mu = 1e6 + 0.25); worst measured 7.9e-17
    import mpmath

    n = np.arange(-700, 701)
    got = amp.flux_phase(n, mu)
    with mpmath.workdps(40):
        e = mpmath.expjpi(mu)
        for k, g in zip(n.tolist(), got.tolist()):
            ref = e if k >= mu else mpmath.conj(e)
            assert abs(mpmath.mpc(g) - ref) <= 2e-16, (k, mu)


# ---------------------------------------------------------------------------
# flux-line amplitude
# ---------------------------------------------------------------------------

def test_ab_amplitude_integer_flux_vanishes():
    for phi in (0.3, -1.2, 2.9):
        assert abs(amp.ab_amplitude(phi, 1.0)) < 1e-15
        assert abs(amp.ab_amplitude(phi, -2.0)) < 1e-15
    # exactly, at any integer flux: sin(mu pi) of the unreduced flux gave
    # 2.1e-13 at mu = -250 and 6e-10 at mu = 1e6
    phi = np.array([0.3, -1.2, 2.9])
    for mu in (100.0, -250.0, 1e6):
        assert (np.abs(amp.ab_amplitude(phi, mu)) == 0.0).all()


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


def test_ab_amplitude_rejects_nan():
    # a NaN angle passed both range checks and came back as NaN, with a
    # RuntimeWarning from sin on the way
    for phi in (math.nan, np.array([0.3, math.nan])):
        with pytest.raises(ValueError, match="excluding 0"):
            amp.ab_amplitude(phi, 0.5)


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


def _fsum_f1(phi, params):
    """f1 at each angle as a math.fsum of the near-mode terms P_n e^{i n phi},
    each phase taken in long double before rounding to a double."""
    n, _, near = radial._mode_window(params)
    n = n[near]
    p = amp.flux_phase(n, params.mu)
    out = np.empty(len(phi), dtype=complex)
    for j, x in enumerate(phi):
        t = (p * np.exp(1j * (n.astype(np.longdouble) * np.longdouble(x)))).astype(complex)
        out[j] = complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))
    return 1j / math.sqrt(2.0 * math.pi) * out


@pytest.mark.parametrize("X", [0.2, 10.0, 30.0, 100.0, 480.0, 1000.0])
def test_f1_closed_form_matches_fsum_oracle(X):
    # the two Dirichlet kernels split at ceil(mu): integer flux, half-integer,
    # k +- 1e-12 on either side of the split, negative flux and
    # 2|mu|/X = 2; on a grid reaching +-(pi - 1e-3), refined over the
    # forward peak, and at the scalar angles 0 and +-1e-12.  At X = 0.2,
    # mu = 3/2 and -1.3 leave no near mode, so the bound asks for exact zeros
    k = max(1, round(0.3 * X))
    g = np.concatenate([np.linspace(-(math.pi - 1e-3), math.pi - 1e-3, 121),
                        np.linspace(-3.0, 3.0, 31) / max(X, 1.0)])
    scalars = [0.0, 1e-12, -1e-12]
    for mu in (k, k + 0.5, k + 1e-12, k - 1e-12, -(k + 0.3), X):
        p = VortexParams(X=X, mu=mu)
        ref, ref_scalar = _fsum_f1(g, p), _fsum_f1(scalars, p)
        peak = max(np.abs(ref).max(), np.abs(ref_scalar).max())
        assert np.abs(amp.f1_sum(g, p) - ref).max() <= 1e-13 * peak, mu
        for x, r in zip(scalars, ref_scalar):
            got = amp.f1_sum(x, p)
            assert np.ndim(got) == 0 and abs(got - r) <= 1e-13 * peak, (mu, x)


@pytest.mark.parametrize("phi", [np.zeros((2, 3)), math.nan, np.array([0.1, math.inf])],
                         ids=["2-d", "nan", "inf"])
def test_mode_sums_refuse_bad_angles(phi):
    # a 2-d grid crashed deep in the mode sum with numpy's "could not
    # broadcast", and a NaN angle gave NaN amplitudes without a word
    p = VortexParams(X=30.0, mu=2.3, kappa=0.0)
    with pytest.raises(ValueError, match="scalar or 1-d array of finite angles"):
        amp.f1_sum(phi, p)
    with pytest.raises(ValueError, match="scalar or 1-d array of finite angles"):
        amp.fc_sums(phi, p)


CONTRACT = re.escape("phi must be a scalar or 1-d array of finite angles in (-pi, pi)")
_P = VortexParams(X=30.0, mu=2.3, kappa=1.0)

#: every public amplitude and closed form, and whether it has a pole at phi = 0
ANGLE_TAKERS = {
    "ab_amplitude": (lambda phi: amp.ab_amplitude(phi, 2.3), True),
    "f1_sum": (lambda phi: amp.f1_sum(phi, _P), False),
    "fc_sums": (lambda phi: amp.fc_sums(phi, _P), False),
    "f2_asymptotic": (lambda phi: asy.f2_asymptotic(phi, 2.3, 30.0), True),
    "fraunhofer_cs": (lambda phi: asy.fraunhofer_cs(phi, 2.3, 30.0), False),
    "penetration_cs": (lambda phi: asy.penetration_cs(phi, 2.3, 30.0), False),
    "rainbow_cs": (lambda phi: asy.rainbow_cs(phi, 2.3, 30.0), False),
    "classical_cs": (lambda phi: asy.classical_cs(phi, 30.0 / 4.6, +1), False),
    "cross_section_curve": (lambda phi: amp.cross_section_curve(_P, phi, amp.EXACT), True),
}


@pytest.mark.parametrize("name", ANGLE_TAKERS)
def test_angle_contract(name):
    # one contract for every angle taker: a scalar or 1-d array of finite
    # angles in (-pi, pi), 0 excluded where the amplitude has its pole; a
    # curve takes grids only, and its methods hold them to the contract
    call, pole = ANGLE_TAKERS[name]
    curve = name == "cross_section_curve"
    for bad in (math.nan, -math.pi, math.pi):
        for phi in ([np.array([-0.2, bad])] if curve else [bad, np.array([-0.2, bad])]):
            with pytest.raises(ValueError, match=CONTRACT):
                call(np.sort(phi) if curve else phi)
    with pytest.raises(ValueError, match="grid must be a non-empty 1-d array" if curve else CONTRACT):
        call(np.full((2, 2), -0.2))
    for phi in ([np.array([-0.2, 0.0])] if curve else [0.0, np.array([-0.2, 0.0])]):
        if pole:
            with pytest.raises(ValueError, match=CONTRACT + ", excluding 0"):
                call(phi)
        else:
            call(phi)
    if not curve:
        out = call(-0.2)
        assert all(type(v) in (float, complex, str) for v in (out if type(out) is tuple else [out]))


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
        got = np.array([amp.f1_sum(g, p), *amp.fc_sums(g, p, tab)])
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
    f2 = amp.fc_sums(g, p, tab)[0]
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
    got = np.array([amp.f1_sum(g, p), *amp.fc_sums(g, p, tab)])
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref[0]).max()


def test_fc_sums_memory_is_one_block_of_angles():
    # the phase matrix is built one block of angles at a time: on the
    # 12.7k-angle refined grid the sums must not hold a modes x angles matrix
    p = VortexParams(X=200.0, mu=20.3, kappa=0.0)
    tab = mode_table(p)
    g = np.linspace(-0.2, 0.2, 12733)  # angle step pi/1e5
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
    # the Exact curve sums f1, f2 and f3 in one call; its f1 must equal
    # f1_sum, and f2, f3 must equal fc_sums, in every bit
    g = amp.default_angle_grid(101)
    for X, mu, kappa in [(30.0, 2.5, 1.0), (480.0, 62.77, 0.0), (480.0, -62.77, 0.0),
                         (480.0, 62.77, math.inf), (480.0, -62.77, math.inf)]:
        p = VortexParams(X=X, mu=mu, kappa=kappa)
        ex = amp.cross_section_curve(p, g, amp.EXACT).extras
        f2, f3 = amp.fc_sums(g, p)
        assert np.array_equal(ex["f1"], amp.f1_sum(g, p))
        assert np.array_equal(ex["f2"], f2) and np.array_equal(ex["f3"], f3)


def test_exact_curve_continuous_as_the_last_near_mode_leaves():
    # at X = 0.2 the mode n = 0 is the only near one for mu < 0.2 and far
    # above it; the near/far bookkeeping must not show in the curve, and a
    # window without near modes has f1 = 0
    g = amp.default_angle_grid(41)
    for kappa in (0.0, 1.0, math.inf):
        below, above = (amp.cross_section_curve(VortexParams(X=0.2, mu=0.2 + d, kappa=kappa), g)
                        for d in (-1e-9, 1e-9))
        assert not np.any(above.extras["f1"]) and not np.any(above.extras["f2"])
        assert np.abs(above.value - below.value).max() <= 1e-7 * below.value.max()


def test_exact_curve_sums_the_kept_span_in_one_call(monkeypatch):
    # f2 and f3 are two weight rows of one call over the kept span, whose
    # ends are the outermost modes with c_n != 0; f1 is in closed form and
    # makes no call, and fc_sums does not compute f1
    calls, f1_calls = [], []

    def counted(phi, ns, weights):
        calls.append((np.shape(weights), int(ns[0]), int(ns[-1])))
        return mode_sum(phi, ns, weights)

    mode_sum, f1_sum = amp._mode_sum, amp.f1_sum
    monkeypatch.setattr(amp, "_mode_sum", counted)
    monkeypatch.setattr(amp, "f1_sum", lambda *args: f1_calls.append(args) or f1_sum(*args))
    g = amp.default_angle_grid(301)
    for p in (VortexParams(X=100.0, mu=10.37, kappa=0.0),
              VortexParams(X=30.0, mu=-4.6, kappa=math.inf)):
        tab = mode_table(p)
        live = tab.n[tab.c_n != 0]
        assert 0 < len(live) < len(tab.n)
        calls.clear()
        f1_calls.clear()
        amp.cross_section_curve(p, g, amp.EXACT)
        assert calls == [((2, live[-1] - live[0] + 1), live[0], live[-1])]
        assert len(f1_calls) == 1
        calls.clear()
        amp.f1_sum(g, p)
        amp.f1_sum(0.3, p)
        assert calls == []
        f1_calls.clear()
        amp.fc_sums(g, p, tab)
        amp.fc_sums(0.3, p)
        assert f1_calls == [] and len(calls) == 2


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
