"""
Exact per-mode solution of the vortex radial problem.

Everything is dimensionless: lengths are measured in 1/k (x = k r), the
vortex radius is X = k r_c, the delta-shell strength is kappa/k, and the
flux parameter mu is the enclosed flux in units of the flux quantum.

For each angular-momentum mode n the interior equation

    [x^-1 d/dx x d/dx - x^-2 (n - gamma(x))^2 + sigma gamma'(x)/x + 1] tau = 0

has, for the uniform field, the regular Landau-level solution
tau = x^|n| e^{-z/2} M(a, |n|+1, z) with z = |mu| x^2/X^2 (Kummer's
function, DLMF 13.2).  Its edge data at x = X, for the modes of the
window below only, come from a backward recurrence in the second Kummer
parameter and are matched against the outside cylinder-function basis of
order nu = |n - mu| through the delta-shell jump condition

    psi(X) = tau(X),    psi'(X) = tau'(X) + kappa tau(X).

The matching yields, per mode, the S-matrix entry s_n (|s_n| = 1 for any
real shell strength: scattering is elastic) and the scattered-wave
coefficient c_n multiplying the outgoing wave:

    scattered_n = -(1 + c_n) * outgoing   for near modes (nu <= X),
    scattered_n = -c_n * outgoing         for far  modes (nu >  X),

with the free-field normalisation c_n = -1 (near) / 0 (far), s_n = 1.

Numerically the matching reduces to two real Wronskian combinations
against the (J, Y) pair at the edge,

    p = W(J, tau) + kappa J tau,    q = W(Y, tau) + kappa Y tau,

from which  s_n = -(p - i q)/(p + i q)  exactly, in every regime.

The physics of a scenario sits at n ~ mu, so :func:`mode_table` matches
the window round(mu) - n_max <= n <= round(mu) + n_max, where every order
is at most n_max + 1/2, in one vectorised pass over arrays of modes.  Its
:class:`ModeTable` holds n, nu, the near mask, c_n and s_n as arrays.
Far modes decay under the barrier; past three consecutive far modes with
|c_n| < 1e-14 on each side the table holds their free values.  A window
too narrow for that cutoff, or outside the cylinder functions' range,
raises :class:`SolverFailure`; the table is never truncated silently.
:func:`inside_solution` and :func:`outside_basis_at_edge` give one mode's
edge data, (tau, tau') and (J, J', Y, Y'), as the plain float tuples
that the table matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun


class SolverFailure(RuntimeError):
    """Interior evaluation or matching failed; names the scenario."""


# ---------------------------------------------------------------------------
# parameters and mode bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VortexParams:
    """Dimensionless scattering scenario.

    Attributes
    ----------
    X : float
        Vortex radius in units of the wavelength scale, X = k r_c > 0.
    mu : float
        Flux through the vortex in flux quanta.
    kappa : float
        Delta-shell strength at the edge, in units of k.  ``math.inf``
        (either sign) selects the impenetrable Dirichlet limit.
    sigma : int
        Spin projection on the field axis, +1 or -1.
    """

    X: float
    mu: float
    kappa: float = 0.0
    sigma: int = +1

    def __post_init__(self):
        if not (self.X > 0.0 and math.isfinite(self.X)):
            raise ValueError(f"X must be positive and finite, got {self.X}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if math.isnan(self.kappa):
            raise ValueError("kappa must be a number or +-inf")
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")

    @property
    def n_max(self) -> int:
        """Mode cutoff: covers the Airy edge region beyond nu = X."""
        return math.ceil(self.X + 12.0 * self.X ** (1.0 / 3.0) + 25.0)

    @property
    def is_large_radius(self) -> bool:
        """True when the short-wavelength regime X >= 10 holds."""
        return self.X >= 10.0

    @property
    def flux_regime_ok(self) -> bool:
        """True while the flux obeys |mu| << X^2/2 (factor-10 margin)."""
        return abs(self.mu) <= 0.05 * self.X * self.X

    @property
    def orbit_radius_ratio(self) -> float:
        """Classical orbit radius over vortex radius, X/(2|mu|)."""
        if self.mu == 0.0:
            return math.inf
        return self.X / (2.0 * abs(self.mu))


NEAR = "near"
FAR = "far"


def _mode_window(params: VortexParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode window round(mu) - n_max <= n <= round(mu) + n_max of every
    table and mode sum, as (n, nu = |n - mu|, near mask nu <= X).  Near
    modes have their edge in the oscillatory region; the far ones sit
    under the centrifugal barrier.  A window reaching |n| >= 2^53, where
    float64 stops holding every integer, raises :class:`SolverFailure`."""
    c = round(params.mu)
    if abs(c) + params.n_max >= 2 ** 53:
        raise SolverFailure(f"X={params.X}, mu={params.mu}: the mode window reaches "
                            f"|n| >= 2^53, where float64 mode indices stop being exact")
    n = np.arange(c - params.n_max, c + params.n_max + 1)
    nu = np.abs(n - params.mu)
    return n, nu, nu <= params.X


@dataclass(frozen=True)
class ModeMatch:
    """One row of a :class:`ModeTable`: the matching result of mode n."""

    n: int
    nu: float
    regime: str
    c_n: complex
    s_n: complex


# ---------------------------------------------------------------------------
# interior solution: Landau levels
# ---------------------------------------------------------------------------

_STRONG_FIELD_DPS = 34
_CERTIFY_TOL = 1e-12
_ZERO_GUARD = 1e-300


def _start_pad(X: float) -> int:
    """Recurrence steps run above the highest wanted order, ~ 12 X^(1/3) + 25."""
    return math.ceil(12.0 * X ** (1.0 / 3.0) + 25.0)


def _kummer_branch(X, w, c0: int, top: int, lo: int, hi: int) -> list:
    """Backward recurrence of one Kummer branch at the edge z = |w|.

    For fixed Kummer a = c0 - X^2/(4 w), the edge ratios
    q_b = (b-1) M(a, b-1, w)/M(a, b, w) obey (DLMF 13.3.2 with
    (b-1) M(a, b-1, z) = (b-1) M(a, b, z) + z M'(a, b, z))

        q_b = b - 1 + w - (w (b - c0) + X^2/4) / q_{b+1},

    stable downwards since M is the minimal solution as b grows.  From
    q_{top+1} = top + 1 down to b = lo + 1, returns (q_{m+1}, sign of
    M(a, m+1, w)) at index m - lo for lo <= m <= hi: the sign is +1 at the
    top and flips at each negative ratio.  An exact zero ratio (an exact
    zero of M) is replaced by a tiny one, the limit the next step needs.
    """
    quarter = X * X / 4
    q = top + 1
    sign = 1.0
    out = [None] * (hi - lo + 1)
    for b in range(top, lo, -1):
        if q < 0:
            sign = -sign
        elif q == 0:
            q = _ZERO_GUARD
        q = b - 1 + w - (w * (b - c0) + quarter) / q
        if b <= hi + 1:
            out[b - 1 - lo] = (q, sign)
    return out


def _edge_pairs(X: float, mu: float, sigma: int, n_max: int,
                real=float, extra_start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalised (tau(X), tau'(X)) of the window modes
    |n - round(mu)| <= n_max in arithmetic ``real``, in window order.

    With z = |mu| x^2/X^2 and m = |n| the regular interior solution is the
    Landau-level function tau = x^m e^{-z/2} M(a, m+1, z), with
    a = (m+1)/2 - (X^2 + 2 mu (n + sigma))/(4|mu|) (DLMF 13.2).  Write
    s = sgn(mu), +1 at mu = 0, and c = |round(mu)|.  Modes with s n >= 0
    take the recurrence at w = |mu| and c0 = (1 - s sigma)/2, started
    above max(c + n_max, |mu| + X); the others (none once c >= n_max) take
    it, through Kummer's transformation tau = x^m e^{+z/2} M(m+1-a, m+1, -z),
    at w = -|mu| and c0 = (1 + s sigma)/2, started above c + n_max.  Each
    branch stops at its lowest window mode.  Either way
    tau'/tau = (2 q_{m+1} - m - w)/X at the edge.  At mu = 0 both reduce
    to the Bessel ratio recurrence of J_m(X).
    """
    s = 1 if mu >= 0.0 else -1
    centre = round(mu)
    am, c = abs(mu), abs(centre)
    Xr, w = real(X), real(am)
    pad, lo = _start_pad(X) + extra_start, max(0, c - n_max)
    first = _kummer_branch(Xr, w, (1 - s * sigma) // 2,
                           math.ceil(max(c + n_max, am + X)) + pad, lo, c + n_max)
    second = (_kummer_branch(Xr, -w, (1 + s * sigma) // 2, c + n_max + pad, 1, n_max - c)
              if c < n_max else [])
    values, derivs = np.empty(2 * n_max + 1), np.empty(2 * n_max + 1)
    for i, n in enumerate(range(centre - n_max, centre + n_max + 1)):
        m = abs(n)
        wb, (q, sign) = (w, first[m - lo]) if s * n >= 0 else (-w, second[m - 1])
        t = float((2 * q - m - wb) / Xr)
        h = math.hypot(1.0, t)
        values[i], derivs[i] = sign / h, sign * t / h
    return _frozen(values), _frozen(derivs)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, as every cached array is."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _interior_edge_table(X: float, mu: float, sigma: int,
                         n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalised edge pairs of the window modes |n - round(mu)| <= n_max,
    keeping the sign of tau(X), as (values, derivatives) in window order.
    Cached independently of kappa: the shell strength enters only the matching.

    While the classical orbit is at least as wide as the vortex
    (2|mu| <= X) the recurrence runs in double precision.  Inside that
    orbit radius it amplifies roundoff by up to ~1e12, so it runs over
    34-digit mpmath numbers and is certified, mode by mode of the window,
    against a rerun at twice the digits from a later start.  Within the
    flux regime (``VortexParams.flux_regime_ok``) both runs start ceil(|mu|)
    steps higher, which lets X = 200 and 480 certify at 2|mu|/X = 12 and
    costs 0.4-0.9 ms on 8.5-9 ms at X = 30.  Outside the regime they do
    not, so a flux far beyond it fails fast instead of running up to mu.

    Raises
    ------
    SolverFailure
        If the certification disagrees by more than 1e-12 in any window
        mode; the message names its n.
    """
    if 2.0 * abs(mu) <= X:
        return _edge_pairs(X, mu, sigma, n_max)
    import mpmath

    extra = math.ceil(abs(mu)) if VortexParams(X, mu).flux_regime_ok else 0
    with mpmath.workdps(_STRONG_FIELD_DPS):
        (v, d) = _edge_pairs(X, mu, sigma, n_max, mpmath.mpf, extra)
    with mpmath.workdps(2 * _STRONG_FIELD_DPS):
        (cv, cd) = _edge_pairs(X, mu, sigma, n_max, mpmath.mpf, extra + _start_pad(X))
    gap = np.maximum(np.abs(v - cv), np.abs(d - cd))
    i = int(np.argmax(gap))
    if gap[i] > _CERTIFY_TOL:
        raise SolverFailure(
            f"interior recurrence not certified at X={X}, mu={mu}, n={round(mu) - n_max + i}: "
            f"pairs ({v[i]:.15g}, {d[i]:.15g}) and ({cv[i]:.15g}, {cd[i]:.15g})")
    return v, d


# ---------------------------------------------------------------------------
# edge data of one mode
# ---------------------------------------------------------------------------

def inside_solution(n: int, params: VortexParams) -> tuple[float, float]:
    """Edge data (tau(X), tau'(X)) of the regular interior solution of
    window mode n, |n - round(mu)| <= n_max (else ValueError): the
    unit-normalised pair, with the sign of tau(X), that :func:`mode_table`
    matches.

    Raises
    ------
    SolverFailure
        If the strong-field (2|mu| > X) evaluation cannot be certified.
    """
    lo = round(params.mu) - params.n_max
    if not lo <= n <= lo + 2 * params.n_max:
        raise ValueError(f"n={n} lies outside the mode window [{lo}, {lo + 2 * params.n_max}]")
    v, d = _interior_edge_table(params.X, params.mu, params.sigma, params.n_max)
    return float(v[n - lo]), float(d[n - lo])


def outside_basis_at_edge(n: int, params: VortexParams) -> tuple[float, float, float, float]:
    """Edge data (J, J', Y, Y') at x = X and order nu = |n - mu| of the
    outside pair that :func:`mode_table` matches: scipy's values, a ladder
    of one in :func:`vortexscatter.specfun.cylinder_pairs`.  They agree
    with the table's row, from a ladder recurrence, within the 3e-13 of
    |C| + |C'| that each keeps from mpmath."""
    nu = abs(n - params.mu)
    return tuple(float(a[0]) for a in specfun.cylinder_pairs(np.array([nu]), params.X))


# ---------------------------------------------------------------------------
# mode tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModeTable:
    """Matching results of the mode window [round(mu) - n_max,
    round(mu) + n_max], as read-only arrays in index order.

    ``c_n`` is the coefficient of the outgoing wave in the scattered part
    (module docstring): -s_n for near modes, 1 - s_n for far modes.  Far
    modes past the tail cutoff hold the free values c_n = 0, s_n = 1
    exactly.
    ``len``, indexing and iteration give :class:`ModeMatch` rows.
    """

    params: VortexParams
    n: np.ndarray
    nu: np.ndarray
    near: np.ndarray
    c_n: np.ndarray
    s_n: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i: int) -> ModeMatch:
        return ModeMatch(int(self.n[i]), float(self.nu[i]), NEAR if self.near[i] else FAR,
                         complex(self.c_n[i]), complex(self.s_n[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


_TAIL_EPS = 1e-14
_DEGENERATE_FLOOR = 1e-300
# worst measured defect of a mode window's pairs: 2.8e-13, at X = 1000
_WRONSKIAN_TOL = 1e-12


@lru_cache(maxsize=8)  # a compare run needs 2 tables; ops share no others
def mode_table(params: VortexParams) -> ModeTable:
    """Match every mode of the window around round(mu) in one vectorised
    pass.

    Every order nu = |n - mu| lies in [0, n_max + 1/2].  The table keeps
    the modes outward from round(mu) up to three consecutive far modes
    with |c_n| < 1e-14 on each side; beyond them the free values are
    exact at double precision in any amplitude.  A far mode whose
    irregular member (or its derivative, at X below about 1.5e-10)
    overflows double precision sits so deep under the barrier that its
    coupling is exactly zero.  The edge pairs of every other mode must
    keep the Wronskian pi X/2 (J Y' - Y J') = 1 within 1e-12, a free
    check of the ladder recurrence.  For kappa = +-inf the
    Dirichlet limit is taken exactly: the interior drops out of c_n and
    s_n.  The table is deterministic, and the last 8 tables are cached.

    Raises
    ------
    SolverFailure
        If X lies outside the cylinder functions' supported range, if
        the edge pairs fail the Wronskian check, if a side of the window
        ends before the tail cutoff, if the interior cannot be certified,
        or if a kept mode's matching denominator vanishes (an exact
        interior resonance, which cannot occur for real kappa and is
        reported, not hidden).
    """
    X, mu, kappa = params.X, params.mu, params.kappa
    ic = params.n_max
    n, nu, near = _mode_window(params)
    k = np.count_nonzero(n < mu)  # the window's orders: one ladder each side of mu
    with np.errstate(all="ignore"):
        try:
            j, jp, y, yp = (np.concatenate([b[::-1], a]) for b, a in zip(
                specfun.cylinder_pairs(nu[:k][::-1], X), specfun.cylinder_pairs(nu[k:], X)))
        except ValueError as err:
            raise SolverFailure(f"X={X}, mu={mu}: {err}") from err
        live = near | (np.isfinite(y) & np.isfinite(yp))
        defect = np.where(live, np.abs(0.5 * math.pi * X * (j * yp - y * jp) - 1.0), 0.0)
        worst = int(np.argmax(defect))
        if not defect[worst] <= _WRONSKIAN_TOL:
            raise SolverFailure(
                f"X={X}, mu={mu}: cylinder functions of mode n={n[worst]} fail the Wronskian "
                f"check, pi X/2 (J Y' - Y J') - 1 = {defect[worst]:.3g}")
        if math.isinf(kappa):
            p, q = j, y
        else:
            tv, td = _interior_edge_table(X, mu, params.sigma, ic)
            # W(f, tau) + kappa f tau with W(f, g) = f g' - g f'
            p = j * td - tv * jp + kappa * j * tv
            q = y * td - tv * yp + kappa * y * tv
        den = p + 1j * q
        s_n = -np.conj(den) / den
        c_n = np.where(near, -s_n, 2.0 * p / den)  # far: 1 - s_n without cancellation
    c_n[~live] = 0.0
    tiny = ~near & (np.abs(c_n) < _TAIL_EPS)
    run = tiny[:-2] & tiny[1:-1] & tiny[2:]  # modes i, i+1, i+2 all tiny
    up, down = np.flatnonzero(run[ic:]), np.flatnonzero(run[:ic - 2])
    if not (len(up) and len(down)):
        raise SolverFailure(
            f"X={X}, mu={mu}: |c_n| stays above {_TAIL_EPS:g} up to the end of "
            f"the mode window [{n[0]}, {n[-1]}]")
    kept = np.zeros(len(n), bool)
    kept[down[-1]:ic + up[0] + 3] = True
    bad = np.flatnonzero(kept & live & ~(np.isfinite(den) & (np.abs(den) >= _DEGENERATE_FLOOR)))
    if len(bad):
        raise SolverFailure(
            f"degenerate or non-finite matching denominator for mode n={n[bad[0]]} "
            f"at X={X}, mu={mu} (interior resonance at these parameters)")
    free = ~(kept & live)
    c_n[free], s_n[free] = 0.0, 1.0
    return ModeTable(params, *map(_frozen, (n, nu, near, c_n, s_n)))
