"""
Exact per-mode solution of the vortex radial problem.

Everything is dimensionless: lengths are measured in 1/k (x = k r), the
vortex radius is X = k r_c, the delta-shell strength is kappa/k, and the
flux parameter mu is the enclosed flux in units of the flux quantum.

For each angular-momentum mode n the interior equation

    [x^-1 d/dx x d/dx - x^-2 (n - gamma(x))^2 + sigma gamma'(x)/x + 1] tau = 0

has, for the uniform field, the regular Landau-level solution
tau = x^|n| e^{-z/2} M(a, |n|+1, z) with z = |mu| x^2/X^2 (Kummer's
function, DLMF 13.2).  Its edge data at x = X come from a backward
recurrence in the second Kummer parameter and are matched against the
outside cylinder-function basis of order nu = |n - mu| through the
delta-shell jump condition

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
:class:`ModeTable` holds n, nu, the near mask, c_n, s_n and b_ratio as
arrays.  Far modes decay under the barrier; past three consecutive far
modes with |c_n| < 1e-14 on each side the table holds their free values.
A window too narrow for that cutoff, or outside the cylinder functions'
range, raises :class:`SolverFailure`; the table is never truncated
silently.
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


def near_mode_range(mu: float, X: float) -> tuple[int, int]:
    """Inclusive integer range of the near modes, those with |n - mu| <= X
    (edge in the oscillatory region; the others are far, under the
    centrifugal barrier)."""
    lo = math.ceil(mu - X)
    hi = math.floor(mu + X)
    # guard against roundoff at |n - mu| == X
    if abs(lo - mu) > X:
        lo += 1
    if abs(hi - mu) > X:
        hi -= 1
    return lo, hi


@dataclass(frozen=True)
class InsideSolution:
    """Boundary data of the regular interior solution at x = X.

    The overall scale is arbitrary (every downstream quantity is a ratio);
    the stored pair (tau(X), tau'(X)) has unit length and the sign of
    tau(X).
    """

    value: float
    derivative: float


@dataclass(frozen=True)
class ModeMatch:
    """One row of a :class:`ModeTable`: the matching result of mode n."""

    n: int
    nu: float
    regime: str
    c_n: complex
    s_n: complex
    b_ratio: complex


# ---------------------------------------------------------------------------
# interior solution: Landau levels
# ---------------------------------------------------------------------------

_STRONG_FIELD_DPS = 34
_CERTIFY_TOL = 1e-12
_ZERO_GUARD = 1e-300


def _start_pad(X: float) -> int:
    """Recurrence steps run above the highest wanted order, ~ 12 X^(1/3) + 25."""
    return math.ceil(12.0 * X ** (1.0 / 3.0) + 25.0)


def _kummer_branch(X, w, c0: int, top: int, m_max: int) -> list:
    """Backward recurrence of one Kummer branch at the edge z = |w|.

    For fixed Kummer a = c0 - X^2/(4 w), the edge ratios
    q_b = (b-1) M(a, b-1, w)/M(a, b, w) obey (DLMF 13.3.2 with
    (b-1) M(a, b-1, z) = (b-1) M(a, b, z) + z M'(a, b, z))

        q_b = b - 1 + w - (w (b - c0) + X^2/4) / q_{b+1},

    stable downwards since M is the minimal solution as b grows.  From
    q_{top+1} = top + 1, returns (q_{m+1}, sign of M(a, m+1, w)) for every
    m <= m_max: the sign is +1 at the top and flips at each negative
    ratio.  An exact zero ratio (an exact zero of M) is replaced by a
    tiny one, the limit the next step needs.
    """
    quarter = X * X / 4
    q = top + 1
    sign = 1.0
    out = [None] * (m_max + 1)
    for b in range(top, 0, -1):
        if q < 0:
            sign = -sign
        elif q == 0:
            q = _ZERO_GUARD
        q = b - 1 + w - (w * (b - c0) + quarter) / q
        if b <= m_max + 1:
            out[b - 1] = (q, sign)
    return out


def _edge_pairs(X: float, mu: float, sigma: int, n_max: int,
                real=float, extra_start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalised (tau(X), tau'(X)) for |n| <= n_max in arithmetic
    ``real``, as two arrays indexed by n + n_max.

    With z = |mu| x^2/X^2 and m = |n| the regular interior solution is the
    Landau-level function tau = x^m e^{-z/2} M(a, m+1, z), with
    a = (m+1)/2 - (X^2 + 2 mu (n + sigma))/(4|mu|) (DLMF 13.2).  Write
    s = sgn(mu), +1 at mu = 0.  Modes with s n >= 0 take the recurrence
    at w = |mu| and c0 = (1 - s sigma)/2; the others take it, through
    Kummer's transformation tau = x^m e^{+z/2} M(m+1-a, m+1, -z), at
    w = -|mu| and c0 = (1 + s sigma)/2.  Either way
    tau'/tau = (2 q_{m+1} - m - w)/X at the edge.  At mu = 0 both reduce
    to the Bessel ratio recurrence of J_m(X).
    """
    s = 1 if mu >= 0.0 else -1
    am = abs(mu)
    Xr, w = real(X), real(am)
    pad = _start_pad(X) + extra_start
    first = _kummer_branch(Xr, w, (1 - s * sigma) // 2, math.ceil(max(n_max, am + X)) + pad, n_max)
    second = _kummer_branch(Xr, -w, (1 + s * sigma) // 2, n_max + pad, n_max)
    values, derivs = np.empty(2 * n_max + 1), np.empty(2 * n_max + 1)
    for i, n in enumerate(range(-n_max, n_max + 1)):
        m = abs(n)
        wb, (q, sign) = (w, first[m]) if s * n >= 0 else (-w, second[m])
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
    """Unit-normalised edge pairs of every mode |n| <= n_max, keeping the
    sign of tau(X), as (values, derivatives) indexed by n + n_max.  Cached
    independently of kappa: the shell strength enters only the matching.

    While the classical orbit is at least as wide as the vortex
    (2|mu| <= X) the recurrence runs in double precision.  Inside that
    orbit radius it amplifies roundoff by up to ~1e12, so it runs over
    34-digit mpmath numbers and is certified against a rerun at twice the
    digits from a later start.

    Raises
    ------
    SolverFailure
        If the certification disagrees by more than 1e-12 in any mode.
    """
    if 2.0 * abs(mu) <= X:
        return _edge_pairs(X, mu, sigma, n_max)
    import mpmath

    with mpmath.workdps(_STRONG_FIELD_DPS):
        (v, d) = _edge_pairs(X, mu, sigma, n_max, mpmath.mpf)
    with mpmath.workdps(2 * _STRONG_FIELD_DPS):
        (cv, cd) = _edge_pairs(X, mu, sigma, n_max, mpmath.mpf, _start_pad(X))
    gap = np.maximum(np.abs(v - cv), np.abs(d - cd))
    i = int(np.argmax(gap))
    if gap[i] > _CERTIFY_TOL:
        raise SolverFailure(
            f"interior recurrence not certified at X={X}, mu={mu}, n={i - n_max}: "
            f"pairs ({v[i]:.15g}, {d[i]:.15g}) and ({cv[i]:.15g}, {cd[i]:.15g})")
    return v, d


def _interior_cutoff(params: VortexParams) -> int:
    """Largest |n| of the interior table: the mode window reaches
    |round(mu)| + n_max."""
    return params.n_max + abs(round(params.mu))


def inside_solution(n: int, params: VortexParams) -> InsideSolution:
    """Regular interior solution of mode n, as boundary data at x = X.

    Parameters
    ----------
    n : int
        Angular momentum index, |n| <= params.n_max + |round(params.mu)|.
    params : VortexParams

    Returns
    -------
    InsideSolution
        Unit-normalised pair (tau(X), tau'(X)), with the sign of tau(X).

    Raises
    ------
    SolverFailure
        If the strong-field (2|mu| > X) evaluation cannot be certified.
    """
    nm = _interior_cutoff(params)
    if abs(n) > nm:
        raise ValueError(f"|n|={abs(n)} exceeds the mode cutoff {nm}")
    v, d = _interior_edge_table(params.X, params.mu, params.sigma, nm)
    return InsideSolution(value=float(v[n + nm]), derivative=float(d[n + nm]))

# ---------------------------------------------------------------------------
# outside basis and matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeBasis:
    """Outside basis boundary data at x = X for one mode.

    Near modes carry the travelling-wave pair (incoming, outgoing); far
    modes carry the (regular, irregular) power-law pair (J_nu, Y_nu).
    """

    regime: str
    minus_value: complex
    minus_deriv: complex
    plus_value: complex
    plus_deriv: complex


def outside_basis_at_edge(n: int, params: VortexParams) -> EdgeBasis:
    """Values and x-derivatives at x = X of the regime-appropriate basis."""
    X = params.X
    nu = abs(n - params.mu)
    if nu <= X:
        return EdgeBasis(
            regime=NEAR,
            minus_value=specfun.hankel_out(-1, nu, X),
            minus_deriv=specfun.hankel_out_deriv(-1, nu, X),
            plus_value=specfun.hankel_out(+1, nu, X),
            plus_deriv=specfun.hankel_out_deriv(+1, nu, X),
        )
    return EdgeBasis(
        regime=FAR,
        minus_value=specfun.bessel_j(nu, X),
        minus_deriv=specfun.bessel_j_deriv(nu, X),
        plus_value=specfun.bessel_second(nu, X),
        plus_deriv=specfun.bessel_second_deriv(nu, X),
    )


# ---------------------------------------------------------------------------
# mode tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModeTable:
    """Matching results of the mode window [round(mu) - n_max,
    round(mu) + n_max], as read-only arrays in index order.

    ``c_n`` is the coefficient of the outgoing wave in the scattered part
    (module docstring): -s_n for near modes, 1 - s_n for far modes.
    ``b_ratio`` is the interior coefficient b_n/a_n of the edge-normalised
    interior solution (value^2 + derivative^2 = 1), which makes it
    invariant under rescaling of that solution.  Far modes past the tail
    cutoff hold the free values c_n = 0, s_n = 1, b_ratio = 0 exactly.
    ``len``, indexing and iteration give :class:`ModeMatch` rows.
    """

    params: VortexParams
    n: np.ndarray
    nu: np.ndarray
    near: np.ndarray
    c_n: np.ndarray
    s_n: np.ndarray
    b_ratio: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i: int) -> ModeMatch:
        return ModeMatch(int(self.n[i]), float(self.nu[i]), NEAR if self.near[i] else FAR,
                         complex(self.c_n[i]), complex(self.s_n[i]), complex(self.b_ratio[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


_TAIL_EPS = 1e-14
_DEGENERATE_FLOOR = 1e-300


@lru_cache(maxsize=512)
def mode_table(params: VortexParams) -> ModeTable:
    """Match every mode of the window around round(mu) in one vectorised
    pass.

    Every order nu = |n - mu| lies in [0, n_max + 1/2].  The table keeps
    the modes outward from round(mu) up to three consecutive far modes
    with |c_n| < 1e-14 on each side; beyond them the free values are
    exact at double precision in any amplitude.  A far mode whose
    irregular member overflows double precision sits so deep under the
    barrier that its coupling is exactly zero.  For kappa = +-inf the
    Dirichlet limit is taken exactly: the interior drops out of c_n and
    s_n, and b_ratio is 0.  The table is cached and deterministic.

    Raises
    ------
    SolverFailure
        If an order or X lies outside the cylinder functions' supported
        range, if a side of the window ends before the tail cutoff, if
        the interior cannot be certified, or if a kept mode's matching
        denominator vanishes (an exact interior resonance, which cannot
        occur for real kappa and is reported, not hidden).
    """
    X, mu, kappa = params.X, params.mu, params.kappa
    ic = params.n_max
    n = np.arange(round(mu) - ic, round(mu) + ic + 1)
    nu = np.abs(n - mu)
    near = nu <= X
    if not (nu.max() <= specfun.SUPPORTED_MAX_ORDER and X <= specfun.SUPPORTED_MAX_ARGUMENT):
        raise SolverFailure(
            f"X={X}, mu={mu}: orders up to {nu.max():g} at argument {X:g} lie outside "
            f"the supported range (order <= {specfun.SUPPORTED_MAX_ORDER:g}, "
            f"argument <= {specfun.SUPPORTED_MAX_ARGUMENT:g})")
    with np.errstate(all="ignore"):
        j, jp, y, yp = specfun.cylinder_pairs(nu, X)
        live = near | (np.isfinite(y) & np.isfinite(yp))
        if math.isinf(kappa):
            p, q = j, y
        else:
            nm = _interior_cutoff(params)
            tv, td = (a[n + nm] for a in _interior_edge_table(X, mu, params.sigma, nm))
            # W(f, tau) + kappa f tau with W(f, g) = f g' - g f'
            p = j * td - tv * jp + kappa * j * tv
            q = y * td - tv * yp + kappa * y * tv
        den = p + 1j * q
        s_n = -np.conj(den) / den
        c_n = np.where(near, -s_n, 2.0 * p / den)  # far: 1 - s_n without cancellation
        if math.isinf(kappa):
            b_ratio = np.zeros(len(n), complex)
        else:
            b_ratio = (-2.0j / X) / (math.sqrt(math.pi / 2.0) * den / np.hypot(tv, td))
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
    c_n[free], s_n[free], b_ratio[free] = 0.0, 1.0, 0.0
    return ModeTable(params, *map(_frozen, (n, nu, near, c_n, s_n, b_ratio)))
