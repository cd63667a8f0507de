"""
Scattering amplitudes and differential cross sections on angle grids.

All amplitudes are reported in units of 1/sqrt(k) and all cross sections
as the dimensionless combination k d(sigma)/(dz dphi); dividing by X
converts to units of the vortex radius r_c.

The scattered wave splits into four pieces:

    f_ab  flux-line amplitude of the zero-radius limit (Aharonov-Bohm),
          i sin(mu pi)/sqrt(2 pi) * e^{i(floor(mu)+1/2) phi} / sin(phi/2);
    f1    edge-diffraction amplitude, the mode sum
          (i/sqrt(2 pi)) sum_{near} e^{i n phi} P_n  with the flux phase
          P_n = e^{i mu sgn(n - mu) pi}  (Fraunhofer peak at phi = 0);
    f2    penetration amplitude, same sum weighted by the matching
          coefficients c_n of the modes that traverse the vortex;
    f3    far-mode (edge) amplitude, the corresponding sum over modes
          with nu > X.

Only f2 and f3 know about the interior field profile and the shell
strength; f_ab and f1 depend on the flux alone.  In the free case
c_n = -1 on the near modes and f2 cancels f1.  f2 is still summed from
its own weights P_n c_n, not taken as the difference of
sum P_n (1 + c_n) and f1: in the forward peak |f1| ~ X lies far above
|f2|, and the difference would lose f2's leading digits.

f1 is two geometric series: the near modes are contiguous and P_n takes
one value below mu and another from mu on, so f1 is summed in closed form
as two Dirichlet kernels, one on each side of mu.

An Exact curve sums f2 and f3 as two weight rows of one mode sum over
the kept span of :func:`vortexscatter.radial.mode_table`, from the first
to the last mode with c_n != 0, with zero weights on the modes a piece
does not include.  On :func:`default_angle_grid` (M angles, step
2 pi/(M + 1)) that sum is a discrete Fourier transform: the weights are
folded modulo M + 1 and summed by one inverse FFT, at the exact grid
points.  Any other grid or a scalar angle takes the direct sum, which
factors its phases baby-step giant-step,
e^{i n phi} = e^{i (n0 + B a) phi} e^{i b phi} with B ~ sqrt(K) for K
modes, so a block of angles needs ~2 sqrt(K) complex exponentials per
angle instead of K.  Two fixed-order einsum contractions, over b and
then over a, take the sum one block of angles at a time, so no table
exceeds one block.  Neither path calls BLAS, so identical inputs give
identical bits at any BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .radial import ModeTable, VortexParams, _mode_window, mode_table

SQRT_2PI = math.sqrt(2.0 * math.pi)
_BLOCK = 256  # angles per phase-matrix block of a mode sum

#: canonical method tags for cross-section curves
EXACT = "Exact"
FRAUNHOFER = "Fraunhofer"
PENETRATION = "PenetrationAsymptotic"
RAINBOW = "Rainbow"
CLASSICAL = "Classical"
AB = "AB"

METHOD_TAGS = (EXACT, FRAUNHOFER, PENETRATION, RAINBOW, CLASSICAL, AB)


def _half_turns(mu: float) -> complex:
    """e^{i mu pi} from the reduced flux, (-1)^k e^{i (mu - k) pi} with
    k = round(mu): mu - k is exact, so the phase keeps full precision at
    any flux and is exactly real at integer flux."""
    k = round(mu)
    arg = (mu - k) * math.pi
    return (-1.0 if k % 2 else 1.0) * complex(math.cos(arg), math.sin(arg))


def _angles(phi, pole: bool = False) -> np.ndarray:
    """phi as a float array of at least one dimension, refused unless a
    scalar or 1-d array of finite angles in (-pi, pi), with 0 excluded for
    a ``pole``.  A scalar takes the grid's array kernels (numpy scalars take
    other paths for powers), so both give the same bits."""
    p = np.atleast_1d(np.asarray(phi, dtype=float))
    if p.ndim > 1 or not (np.abs(p) < math.pi).all() or (pole and (p == 0.0).any()):
        raise ValueError("phi must be a scalar or 1-d array of finite angles in (-pi, pi)"
                         + (", excluding 0" if pole else ""))
    return p


def _like(phi, value):
    """value as Python scalars for a scalar phi, else unchanged; the last
    axis of value runs over the entries of phi."""
    return value if np.ndim(phi) else value[..., 0].tolist()


def flux_phase(n, mu: float):
    """Mode phase factor P_n = e^{i mu sgn(n - mu) pi}, equal to
    e^{i(|n| - |n - mu|) pi} for every integer n, with sgn(0) = +1;
    accepts scalar or array n."""
    e = _half_turns(mu)
    return _like(n, np.where(np.atleast_1d(n) >= mu, e, e.conjugate()))


def ab_amplitude(phi, mu: float):
    """Flux-line (zero-radius) scattering amplitude in units 1/sqrt(k).

    Parameters
    ----------
    phi : float or ndarray
        Scattering angle(s) in (-pi, pi), excluding 0.
    mu : float
        Flux parameter; integer flux gives exactly 0.

    Raises
    ------
    ValueError
        If ``phi`` breaks the angle contract of :func:`_angles`, 0 excluded.
    """
    p = _angles(phi, pole=True)
    pref = 1j * _half_turns(mu).imag / SQRT_2PI
    return _like(phi, pref * np.exp(1j * (math.floor(mu) + 0.5) * p) / np.sin(p / 2.0))


def _mode_sum(phi, ns: np.ndarray, weights):
    """(i/sqrt(2 pi)) sum_n weights_n e^{i n phi} over a scalar angle or an
    angle grid; ``ns`` holds distinct integers and ``weights`` one row of
    per-mode weights, or a 2-d array with one row per sum.

    Baby-step giant-step phases: over the K integers from min(ns) = n0 up,
    n = n0 + B a + b with 0 <= b < B = ceil(sqrt(K)), so per block of
    _BLOCK angles e^{i n phi} = e^{i (n0 + B a) phi} e^{i b phi} takes two
    exp tables of A + B ~ 2 sqrt(K) rows.  The weights are scattered into
    a zero-padded complex (A, B) array and contracted over b, then over
    a.  einsum's own loops do both contractions; a BLAS product (``@``)
    would change bits with the BLAS thread count.
    """
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    weights = np.asarray(weights)
    n0 = int(ns.min())
    K = int(ns.max()) - n0 + 1
    B = math.isqrt(K - 1) + 1  # ceil(sqrt(K))
    A = -(-K // B)
    padded = np.zeros(weights.shape[:-1] + (A * B,), dtype=complex)
    padded[..., ns - n0] = weights
    padded = padded.reshape(weights.shape[:-1] + (A, B))
    giant = n0 + B * np.arange(A)
    total = np.empty(weights.shape[:-1] + phi_arr.shape, dtype=complex)
    for start in range(0, len(phi_arr), _BLOCK):
        block = phi_arr[start:start + _BLOCK]
        inner = np.einsum("...ab,jb->...ja", padded, np.exp(np.outer(1j * block, np.arange(B))))
        total[..., start:start + _BLOCK] = np.einsum(
            "...ja,ja->...j", inner, np.exp(np.outer(1j * block, giant)))
    return _like(phi, 1j / SQRT_2PI * total)


def _grid_sum(M: int, ns: np.ndarray, weights) -> np.ndarray:
    """:func:`_mode_sum` on ``default_angle_grid(M)``, by one folded
    inverse FFT of length L = M + 1.

    The grid is the first M points phi_j = a + j h of the L-point circle
    with h = 2 pi/L and a = -pi M/L, so sum_n w_n e^{i n phi_j} =
    sum_r W_r e^{2 pi i r j/L} with W_r the sum of w_n e^{i n a} over
    n = r mod L.  The start phase e^{i n a} = e^{i pi k/L} takes
    k = (-n M) mod 2L in integers, reduced to (-L, L], so it is rounded
    as an angle in [-pi, pi], never as the product n a.  The L-th point,
    pi - h/2, is dropped.
    """
    weights = np.asarray(weights)
    L = M + 1
    k = (-ns * M) % (2 * L)
    k = np.where(k > L, k - 2 * L, k)
    folded = np.zeros(weights.shape[:-1] + (L,), dtype=complex)
    np.add.at(folded, (..., ns % L), weights * np.exp(1j * (math.pi / L * k)))
    return 1j / SQRT_2PI * np.fft.ifft(folded, norm="forward")[..., :M]


def _dirichlet(phi: np.ndarray, a: int, b: int) -> np.ndarray:
    """sum_{n=a}^{b} e^{i n phi} = e^{i (a+b) phi/2} sin(N phi/2)/sin(phi/2)
    over the N = b - a + 1 modes, with the limit N where sin(phi/2) = 0;
    exactly 0 for an empty range."""
    N = b - a + 1
    if N <= 0:
        return np.zeros(phi.shape, dtype=complex)
    s = np.sin(0.5 * phi)
    ratio = np.divide(np.sin(0.5 * N * phi), s, out=np.full(phi.shape, float(N)), where=s != 0.0)
    return np.exp(1j * (0.5 * (a + b) * phi)) * ratio


def f1_sum(phi, params: VortexParams):
    """Edge-diffraction amplitude f1, summed over the near modes in closed
    form.

    The near modes lo..hi of :func:`vortexscatter.radial._mode_window` are
    contiguous, and P_n is e^{-i mu pi} below k = ceil(mu) and e^{i mu pi}
    from k on, so f1 = (i/sqrt(2 pi)) [e^{-i mu pi} D(lo, k-1) +
    e^{i mu pi} D(k, hi)] with the Dirichlet kernel D(a, b) =
    sum_{n=a}^{b} e^{i n phi} (k clamped to [lo, hi+1]).  A window with
    no near mode gives exact zeros.  Independent of the interior field and
    of the shell strength; strongly peaked in the forward direction with
    k|f1(0)|^2 ~ (2/pi) X^2 cos^2(mu pi).  An Exact curve takes its f1
    from here.

    Raises
    ------
    ValueError
        If ``phi`` breaks the angle contract of :func:`_angles`.
    """
    p = _angles(phi)
    n, _, near = _mode_window(params)
    f1 = np.zeros(p.shape, dtype=complex)
    if near.any():
        lo, hi = int(n[near][0]), int(n[near][-1])
        k = min(max(math.ceil(params.mu), lo), hi + 1)
        e = _half_turns(params.mu)
        f1 = 1j / SQRT_2PI * (e.conjugate() * _dirichlet(p, lo, k - 1) + e * _dirichlet(p, k, hi))
    return _like(phi, f1)


def fc_sums(phi, params: VortexParams, table: ModeTable | None = None):
    """Penetration and far-mode amplitudes (f2, f3) from a mode table.

    f2 and f3 are two weight rows of one mode sum, P_n c_n on the near
    modes and on the far ones, over the kept span from the first to the
    last mode with c_n != 0 (the modes outside it carry c_n = 0 exactly).
    A ``phi`` equal bit for bit to ``default_angle_grid(M)``, M >= 2,
    takes one folded inverse FFT (:func:`_grid_sum`); scalars and every
    other grid take the direct sum :func:`_mode_sum`.  An Exact curve
    takes f2 and f3 from here.

    Parameters
    ----------
    phi : float or ndarray
    params : VortexParams
    table : ModeTable, optional
        Output of :func:`vortexscatter.radial.mode_table` for ``params``;
        computed (and cached) on demand when omitted.

    Raises
    ------
    ValueError
        If ``phi`` breaks the angle contract of :func:`_angles`, or if
        ``table`` was built for other parameters.
    """
    p = _angles(phi)
    if table is None:
        table = mode_table(params)
    elif table.params != params:
        raise ValueError(f"mode table built for {table.params}, not for {params}")
    live = np.flatnonzero(table.c_n)
    span = slice(live[0], live[-1] + 1)
    n, near = table.n[span], table.near[span]
    pc = flux_phase(n, params.mu) * table.c_n[span]
    rows = [np.where(near, pc, 0.0), np.where(near, 0.0, pc)]
    M = len(p)
    if M >= 2 and np.array_equal(p, default_angle_grid(M)):
        f2, f3 = _grid_sum(M, n, rows)
    else:
        f2, f3 = _like(phi, _mode_sum(p, n, rows))
    return f2, f3


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def default_angle_grid(n: int = 2001) -> np.ndarray:
    """Uniform grid of n angles inside (-pi, pi): the first n of the
    n + 1 points -pi + (j + 1/2) h, h = 2 pi/(n + 1), of the full circle;
    the half-step offset keeps phi = 0 off the grid for odd n.  Exact
    mode sums on this grid take one FFT (:func:`fc_sums`)."""
    if n < 2:
        raise ValueError("need at least 2 grid points")
    h = 2.0 * math.pi / (n + 1)
    return -math.pi + (np.arange(n) + 0.5) * h


@dataclass
class CrossSectionCurve:
    """Sampled dimensionless cross section k d(sigma)/(dz dphi).

    ``extras`` carries method-specific companions: the Exact method stores
    the per-angle amplitude pieces, the decomposed k|f1|^2 and k|f2|^2 and
    the diffraction/penetration interference residual
    k (f1 f2* + f1* f2); the penetration method stores the branch tags.
    """

    phi: np.ndarray
    value: np.ndarray
    method: str
    extras: dict = field(default_factory=dict)


def cross_section_curve(params: VortexParams, grid: np.ndarray | None = None,
                        method: str = EXACT,
                        table: ModeTable | None = None) -> CrossSectionCurve:
    """Differential cross section sampled on an angle grid.

    Parameters
    ----------
    params : VortexParams
    grid : ndarray, optional
        Strictly increasing angles; defaults to :func:`default_angle_grid`.
        Each method's own call holds them to the angle contract of
        :func:`_angles`: finite and in (-pi, pi), and for the methods
        involving the flux-line amplitude (Exact, AB) 0 excluded.
    method : str
        One of ``METHOD_TAGS``.  Asymptotic methods delegate to
        :mod:`vortexscatter.asymptotics` and are converted to 1/k units.
    table : optional precomputed mode table (Exact only).
    """
    from . import asymptotics  # deferred: asymptotics imports _mode_sum from here, a cycle

    if grid is None:
        grid = default_angle_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a non-empty 1-d array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid angles must be strictly increasing")

    mu, X = params.mu, params.X
    extras: dict = {}

    if method == EXACT:
        f_ab = ab_amplitude(grid, mu)
        f1, (f2, f3) = f1_sum(grid, params), fc_sums(grid, params, table)
        value = np.abs(f_ab + f1 + f2 + f3) ** 2
        interference = 2.0 * (f1 * np.conj(f2)).real
        extras = {
            "f_ab": f_ab, "f1": f1, "f2": f2, "f3": f3,
            "f1_sq": np.abs(f1) ** 2,
            "f2_sq": np.abs(f2) ** 2,
            "interference": interference,
        }
    elif method == FRAUNHOFER:
        value = asymptotics.fraunhofer_cs(grid, mu, X)
    elif method == PENETRATION:
        value, branches = asymptotics.penetration_cs(grid, mu, X)
        value = value * X  # r_c units -> 1/k units
        extras = {"branch": branches.tolist()}
    elif method == RAINBOW:
        value = asymptotics.rainbow_cs(grid, mu, X) * X
    elif method == CLASSICAL:
        if mu == 0.0:
            raise ValueError("the Classical method needs mu != 0: without a field "
                             "there is no classical deflection")
        sign = +1 if mu >= 0.0 else -1
        value = asymptotics.classical_cs(grid, params.orbit_radius_ratio, sign) * X
    elif method == AB:
        value = np.abs(ab_amplitude(grid, mu)) ** 2
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_TAGS}")

    return CrossSectionCurve(phi=grid, value=value, method=method, extras=extras)
