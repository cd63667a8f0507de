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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import specfun


class SolverFailure(RuntimeError):
    """Interior evaluation or matching failed; carries the mode index."""


# ---------------------------------------------------------------------------
# parameters and field profile
# ---------------------------------------------------------------------------

_PROFILES = ("uniform",)


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
    profile : str
        Interior field profile tag; only "uniform" is implemented.
    """

    X: float
    mu: float
    kappa: float = 0.0
    sigma: int = +1
    profile: str = "uniform"

    def __post_init__(self):
        if not (self.X > 0.0 and math.isfinite(self.X)):
            raise ValueError(f"X must be positive and finite, got {self.X}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if math.isnan(self.kappa):
            raise ValueError("kappa must be a number or +-inf")
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if self.profile not in _PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; known: {_PROFILES}")

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


def gamma_profile(x: float, params: VortexParams) -> float:
    """Enclosed-flux function gamma(x) of the interior field.

    For the uniform profile gamma(x) = mu x^2 / X^2, so gamma(0) = 0 and
    gamma(X) = mu exactly.

    Raises
    ------
    ValueError
        If x lies outside [0, X].
    """
    if not (0.0 <= x <= params.X):
        raise ValueError(f"x={x} outside the vortex interior [0, {params.X}]")
    return params.mu * (x / params.X) ** 2


def gamma_profile_deriv(x: float, params: VortexParams) -> float:
    """d gamma/dx for the interior profile."""
    if not (0.0 <= x <= params.X):
        raise ValueError(f"x={x} outside the vortex interior [0, {params.X}]")
    return 2.0 * params.mu * x / params.X ** 2


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------

NEAR = "near"
FAR = "far"


@dataclass(frozen=True)
class ModeIndex:
    n: int
    nu: float
    regime: str


def mode_index(n: int, params: VortexParams) -> ModeIndex:
    """Classify mode n: near (nu <= X, edge in the oscillatory region)
    or far (nu > X, edge under the centrifugal barrier)."""
    nu = abs(n - params.mu)
    return ModeIndex(n=n, nu=nu, regime=NEAR if nu <= params.X else FAR)


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
    """Per-mode matching result.

    ``c_n`` is the coefficient of the outgoing wave in the scattered part
    (module docstring); for near modes it equals the edge Wronskian ratio
    of the travelling-wave basis, for far modes it equals 1 - s_n.
    ``b_ratio`` is the interior coefficient b_n/a_n evaluated for the
    edge-normalised interior solution (value^2 + derivative^2 = 1), which
    makes it invariant under rescaling of the interior solution.
    """

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
                real=float, extra_start: int = 0) -> dict[int, tuple[float, float]]:
    """Unit-normalised (tau(X), tau'(X)) for |n| <= n_max in arithmetic ``real``.

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
    out: dict[int, tuple[float, float]] = {}
    for n in range(-n_max, n_max + 1):
        m = abs(n)
        wb, (q, sign) = (w, first[m]) if s * n >= 0 else (-w, second[m])
        t = float((2 * q - m - wb) / Xr)
        h = math.hypot(1.0, t)
        out[n] = (sign / h, sign * t / h)
    return out


@lru_cache(maxsize=64)
def _interior_edge_table(X: float, mu: float, sigma: int,
                         n_max: int) -> dict[int, tuple[float, float]]:
    """Unit-normalised edge pairs of every mode |n| <= n_max, keeping the
    sign of tau(X).  Cached independently of kappa: the shell strength
    enters only the edge matching.

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
        pairs = _edge_pairs(X, mu, sigma, n_max, mpmath.mpf)
    with mpmath.workdps(2 * _STRONG_FIELD_DPS):
        check = _edge_pairs(X, mu, sigma, n_max, mpmath.mpf, _start_pad(X))
    for n, (v, d) in pairs.items():
        cv, cd = check[n]
        if max(abs(v - cv), abs(d - cd)) > _CERTIFY_TOL:
            raise SolverFailure(
                f"interior recurrence not certified at X={X}, mu={mu}, n={n}: "
                f"pairs ({v:.15g}, {d:.15g}) and ({cv:.15g}, {cd:.15g})")
    return pairs


def inside_solution(n: int, params: VortexParams) -> InsideSolution:
    """Regular interior solution of mode n, as boundary data at x = X.

    Parameters
    ----------
    n : int
        Angular momentum index, |n| <= params.n_max.
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
    nm = params.n_max
    if abs(n) > nm:
        raise ValueError(f"|n|={abs(n)} exceeds the mode cutoff {nm}")
    v, d = _interior_edge_table(params.X, params.mu, params.sigma, nm)[n]
    return InsideSolution(value=v, derivative=d)

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
    mode = mode_index(n, params)
    X = params.X
    if mode.regime == NEAR:
        return EdgeBasis(
            regime=NEAR,
            minus_value=specfun.hankel_out(-1, mode.nu, X),
            minus_deriv=specfun.hankel_out_deriv(-1, mode.nu, X),
            plus_value=specfun.hankel_out(+1, mode.nu, X),
            plus_deriv=specfun.hankel_out_deriv(+1, mode.nu, X),
        )
    return EdgeBasis(
        regime=FAR,
        minus_value=specfun.bessel_j(mode.nu, X),
        minus_deriv=specfun.bessel_j_deriv(mode.nu, X),
        plus_value=specfun.bessel_second(mode.nu, X),
        plus_deriv=specfun.bessel_second_deriv(mode.nu, X),
    )


_DEGENERATE_FLOOR = 1e-300


def match_coefficient(n: int, params: VortexParams,
                      inside: InsideSolution | None = None) -> ModeMatch:
    """Match the interior solution of mode n to the outside basis.

    Returns the :class:`ModeMatch` with the scattered-wave coefficient
    c_n, the S-matrix entry s_n and the interior coefficient ratio.  For
    kappa = +-inf the Dirichlet limit is taken exactly (the interior drops
    out of c_n and s_n; the interior wave amplitude b_ratio is 0).

    Raises
    ------
    SolverFailure
        If the matching denominator vanishes (an exact interior resonance,
        which cannot occur for real kappa and is reported, not hidden).
    """
    mode = mode_index(n, params)
    X = params.X
    nu = mode.nu
    j = specfun.bessel_j(nu, X)
    jp = specfun.bessel_j_deriv(nu, X)
    y = specfun.bessel_second(nu, X)
    yp = specfun.bessel_second_deriv(nu, X)

    if mode.regime == FAR and not (math.isfinite(y) and math.isfinite(yp)):
        # the irregular member overflowed double precision: the mode sits
        # so deep under the barrier that its coupling is exactly zero at
        # working precision
        return _trivial_far_match(n, params)

    dirichlet = math.isinf(params.kappa)
    if dirichlet:
        p, q = j, y
        b_ratio = 0.0 + 0.0j
    else:
        if inside is None:
            inside = inside_solution(n, params)
        tv, td = inside.value, inside.derivative
        kap = params.kappa
        # W(f, tau) + kappa f tau with W(f, g) = f g' - g f'
        p = j * td - tv * jp + kap * j * tv
        q = y * td - tv * yp + kap * y * tv
        # interior coefficient for the edge-normalised solution
        h = math.hypot(tv, td)
        denom_b = math.sqrt(math.pi / 2.0) * complex(p, q) / h
        if abs(denom_b) < _DEGENERATE_FLOOR:
            raise SolverFailure(
                f"degenerate matching denominator for mode n={n} "
                f"(interior resonance at these parameters)")
        b_ratio = (-2.0j / X) / denom_b

    den = complex(p, q)
    if abs(den) < _DEGENERATE_FLOOR or not (math.isfinite(den.real) and math.isfinite(den.imag)):
        raise SolverFailure(
            f"degenerate or non-finite matching denominator for mode n={n}")
    s_n = -complex(p, -q) / den
    if mode.regime == NEAR:
        c_n = -s_n
    else:
        c_n = 2.0 * p / den  # equals 1 - s_n without cancellation
    return ModeMatch(n=n, nu=nu, regime=mode.regime, c_n=c_n, s_n=s_n, b_ratio=b_ratio)


# ---------------------------------------------------------------------------
# mode tables
# ---------------------------------------------------------------------------

_TAIL_EPS = 1e-14
_TAIL_RUN = 3


def _trivial_far_match(n: int, params: VortexParams) -> ModeMatch:
    """Placeholder for far modes suppressed below the tail threshold."""
    nu = abs(n - params.mu)
    return ModeMatch(n=n, nu=nu, regime=FAR, c_n=0.0 + 0.0j, s_n=1.0 + 0.0j,
                     b_ratio=0.0 + 0.0j)


@lru_cache(maxsize=512)
def _mode_table_cached(params: VortexParams, n_lo: int, n_hi: int) -> tuple[ModeMatch, ...]:
    center = round(params.mu)
    center = min(max(center, n_lo), n_hi)
    matches: dict[int, ModeMatch] = {}

    def sweep(indices):
        tiny_run = 0
        for n in indices:
            if tiny_run >= _TAIL_RUN:
                matches[n] = _trivial_far_match(n, params)
                continue
            try:
                m = match_coefficient(n, params)
            except ValueError as exc:
                # deep-forbidden modes where the irregular member overflows
                # are physically fully suppressed
                if abs(n - params.mu) > params.X:
                    matches[n] = _trivial_far_match(n, params)
                    tiny_run += 1
                    continue
                raise SolverFailure(f"mode n={n}: {exc}") from exc
            except SolverFailure as exc:
                raise SolverFailure(f"mode n={n}: {exc}") from exc
            matches[n] = m
            if m.regime == FAR and abs(m.c_n) < _TAIL_EPS:
                tiny_run += 1
            else:
                tiny_run = 0

    sweep(range(center, n_hi + 1))
    sweep(range(center - 1, n_lo - 1, -1))
    return tuple(matches[n] for n in range(n_lo, n_hi + 1))


def mode_table(params: VortexParams, n_range: tuple[int, int] | None = None) -> list[ModeMatch]:
    """Matching results for every mode in ``n_range`` (inclusive).

    The default range is [-n_max, n_max].  The table is deterministic and
    independent of evaluation order; far-mode entries are truncated to
    exactly zero once |c_n| < 1e-14 for three consecutive modes on each
    side (their contribution is below double precision in any amplitude).

    Raises
    ------
    SolverFailure
        On any per-mode failure, with the offending mode index attached.
    """
    if n_range is None:
        n_lo, n_hi = -params.n_max, params.n_max
    else:
        n_lo, n_hi = n_range
        if n_lo > n_hi:
            raise ValueError(f"empty mode range {n_range}")
        if max(abs(n_lo), abs(n_hi)) > params.n_max:
            raise ValueError(f"mode range {n_range} exceeds cutoff {params.n_max}")
    return list(_mode_table_cached(params, n_lo, n_hi))
