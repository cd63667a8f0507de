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
          P_n = e^{i(|n| - |n - mu|) pi}  (Fraunhofer peak at phi = 0);
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

Each mode sum factors its phases baby-step giant-step,
e^{i n phi} = e^{i (n0 + B a) phi} e^{i b phi} with B ~ sqrt(K) for K
modes, so a block of angles needs ~2 sqrt(K) complex exponentials per
angle instead of K.  Two fixed-order einsum contractions, over b and
then over a, take the sum one block of angles at a time, so identical
inputs give identical bits at any BLAS thread count and no table
exceeds one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .radial import ModeTable, VortexParams, mode_table, near_mode_range

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


def flux_phase(n, mu: float):
    """Mode phase factor P_n = e^{i(|n| - |n-mu|) pi}.

    Equals e^{i mu sgn(n - mu) pi} modulo 2 pi for every integer n;
    accepts scalar or array n.
    """
    n = np.asarray(n, dtype=float)
    arg = (np.abs(n) - np.abs(n - mu)) * math.pi
    out = np.cos(arg) + 1j * np.sin(arg)
    return out if out.ndim else complex(out)


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
        If any angle is 0 or outside (-pi, pi).
    """
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr == 0.0) or np.any(np.abs(phi_arr) >= math.pi):
        raise ValueError("ab_amplitude needs angles in (-pi, pi) excluding 0")
    pref = 1j * math.sin(mu * math.pi) / SQRT_2PI
    out = pref * np.exp(1j * (math.floor(mu) + 0.5) * phi_arr) / np.sin(phi_arr / 2.0)
    return out if out.ndim else complex(out)


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
    total = 1j / SQRT_2PI * total
    return total if np.ndim(phi) else total[..., 0][()]


def f1_sum(phi, params: VortexParams):
    """Edge-diffraction amplitude f1 by direct near-mode summation.

    Independent of the interior field and of the shell strength; strongly
    peaked in the forward direction with k|f1(0)|^2 ~ (2/pi) X^2 cos^2(mu pi).
    """
    lo, hi = near_mode_range(params.mu, params.X)
    ns = np.arange(lo, hi + 1)
    weights = np.asarray(flux_phase(ns, params.mu))
    return _mode_sum(phi, ns, weights)


def fc_sums(phi, params: VortexParams, table: ModeTable | None = None):
    """Penetration and far-mode amplitudes (f2, f3) from a mode table.

    f2 sums the near-mode coefficients P_n c_n, f3 the far-mode ones.

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
        If ``table`` was built for other parameters.
    """
    _, f2, f3 = _table_sums(phi, params, table)
    return f2, f3


def _table_sums(phi, params: VortexParams, table: ModeTable | None):
    """(f1, f2, f3) of :func:`fc_sums`; the near modes of the table are
    those of :func:`near_mode_range` in the same order, so f1 equals
    :func:`f1_sum` bit for bit."""
    if table is None:
        table = mode_table(params)
    elif table.params != params:
        raise ValueError(f"mode table built for {table.params}, not for {params}")
    kept = table.near | (table.c_n != 0.0)
    n, near, c = table.n[kept], table.near[kept], table.c_n[kept]
    p = np.asarray(flux_phase(n, params.mu))

    f1 = _mode_sum(phi, n[near], p[near])
    f2, f3 = _mode_sum(phi, n, [np.where(near, p * c, 0.0), np.where(near, 0.0, p * c)])
    return f1, f2, f3


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def default_angle_grid(n: int = 2001) -> np.ndarray:
    """Uniform grid of n angles inside (-pi, pi); the half-step offset
    keeps phi = 0 off the grid."""
    if n < 2:
        raise ValueError("need at least 2 grid points")
    h = 2.0 * math.pi / (n + 1)
    return -math.pi + (np.arange(n) + 0.5) * h


def refined_angle_grid(center: float, halfwidth: float,
                       step: float = math.pi / 1e5) -> np.ndarray:
    """Dense uniform grid around a feature (forward peak, rainbow angle)."""
    lo = max(center - halfwidth, -math.pi + step)
    hi = min(center + halfwidth, math.pi - step)
    n = max(2, int(round((hi - lo) / step)) + 1)
    return np.linspace(lo, hi, n)


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
        Angles in (-pi, pi); defaults to :func:`default_angle_grid`.
        Methods involving the flux-line amplitude (Exact, AB) require 0
        to be excluded.
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
    if np.any(np.abs(grid) >= math.pi):
        raise ValueError("grid must lie inside (-pi, pi)")

    mu, X = params.mu, params.X
    extras: dict = {}

    if method == EXACT:
        f_ab = np.asarray(ab_amplitude(grid, mu))
        f1, f2, f3 = _table_sums(grid, params, table)
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
        value = np.abs(np.asarray(ab_amplitude(grid, mu))) ** 2
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHOD_TAGS}")

    return CrossSectionCurve(phi=grid, value=value, method=method, extras=extras)
