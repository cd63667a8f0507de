"""
Real-order cylinder functions and the Airy function.

These are the outside-region building blocks for the vortex scattering
problem: every partial wave outside the flux tube is a combination of
cylinder functions of order nu = |n - mu|, and the rainbow formulas need
the Airy function.

Conventions
-----------
``cylinder_pairs(nu, x)``
    J_nu(x), its x-derivative, Y_nu(x) and its x-derivative on a ladder
    of real orders (ascending, step 1).  J is the regular cylinder
    function; Y is the second (irregular) solution, normalised so that

        W{J, Y}(x) = J Y' - Y J' = 2 / (pi x)

    for every real order.  At integer order Y is the logarithmic
    companion, at non-integer order the standard combination built from
    the order -nu regular solution, Y_nu = (J_nu cos(nu pi) - J_{-nu}) /
    sin(nu pi).
``airy_ai(y)``
    Ai(y) = pi^(-1) * integral_0^inf cos(y u + u^3/3) du; exponentially
    damped for y > 0, oscillating for y < 0.

Method.  A mode window's orders nu = |n - mu| are two ladders, n < mu
read backwards and n >= mu, and the mode table calls ``cylinder_pairs``
on each.  Both J and Y obey C_{nu-1} + C_{nu+1} = (2 nu / x) C_nu (DLMF
10.6.1).  Y is dominant as the order grows, so it runs forward from
scipy's values at the lowest order nu_0 and at nu_0 - 1; J is minimal,
so it runs backward from scipy's two highest rungs (Miller's direction,
DLMF 3.6).  That is four scipy evaluations per ladder, eight per window,
whatever its length.  Derivatives come from C'_nu = C_{nu-1} - (nu/x)
C_nu (DLMF 10.6.2), whose lower rung the ladder already holds, never
from finite differences, because the delta-shell matching consumes them
at full precision.  An isolated order is a ladder of one and holds
scipy's values.

Accuracy.  Against 30-digit mpmath, relative to |C| + |C'|, the window
ladders are within 3.2e-14 (x = 30), 6.7e-14 (x = 100), 9.5e-14 (x = 480)
and 2.8e-13 (x = 1000), where scipy's per-order values reach 8.1e-14,
7.7e-14, 3.2e-13 and 8.9e-13 (NOTES.md).  J inherits the relative error of
scipy's top rungs; the forward Y drifts by rounding through the
oscillatory region.

Supported range: 0 < x <= 1000, finite non-negative orders, and J a normal
float at the top of the ladder (the recurrence would carry lost digits
down).  Both ladders of a mode window meet the last condition for every
flux at X >= 1.5e-10.  Where J is normal, |J Y| ~ 1/(pi nu) keeps Y
finite; Y' may overflow to +inf far under the barrier, never to NaN, and
the mode table treats such modes as decoupled.  Ai accepts |y| <= 100,
as a scalar or an array.  All functions are pure and reentrant.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

SUPPORTED_MAX_X = 1000.0
SUPPORTED_MAX_AIRY = 100.0


def _recur(c0: float, c1: float, coef) -> list:
    """[c0, c1, c2, ...] with c_{k+2} = coef_k c_{k+1} - c_k: the three-term
    recurrence of C_nu (DLMF 10.6.1) along a ladder, either direction."""
    out = [c0, c1]
    for t in coef:
        c0, c1 = c1, t * c1 - c0
        out.append(c1)
    return out


def cylinder_pairs(nu: np.ndarray, x: float) -> tuple[np.ndarray, ...]:
    """(J, J', Y, Y') at every order of the ladder ``nu``, ascending orders
    of step 1 up to the rounding of their difference, and argument x, by
    the module's Method.  One order is a ladder of one: scipy's values.

    Raises
    ------
    ValueError
        If the orders are not one ladder, or x or the ladder lies outside
        the supported range (module docstring).
    """
    if not 0.0 < x <= SUPPORTED_MAX_X:
        raise ValueError(f"argument x={x} outside supported range (0, {SUPPORTED_MAX_X}]")
    bad = ~((nu >= 0.0) & (nu < np.inf))
    if bad.any():
        raise ValueError(f"orders must be finite and non-negative, got {nu[bad][:3]}")
    tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, nu[1:])
    if not (len(nu) and (np.abs(np.diff(nu) - 1.0) <= tol).all()):
        raise ValueError(f"orders must ascend by 1 as one ladder, got {nu[:4]}")
    v = np.concatenate([[nu[0] - 1.0], nu])
    jtop = _sp.jv(v[:-3:-1], x)
    if not (np.abs(jtop) >= np.finfo(float).tiny).all():
        raise ValueError(f"J at order {nu[-1]} and x={x} is not a normal float")
    coef = 2.0 * nu[:-1] / x
    jl = _recur(*jtop.tolist(), coef[::-1].tolist())[::-1]
    yl = _recur(*_sp.yv(v[:2], x).tolist(), coef.tolist())
    j, jb, y, yb = map(np.array, (jl[1:], jl[:-1], yl[1:], yl[:-1]))
    with np.errstate(over="ignore"):
        return j, jb - (nu / x) * j, y, yb - (nu / x) * y


def airy_ai(y):
    """Airy function Ai(y) for |y| <= 100; accepts arrays."""
    y = np.asarray(y, dtype=float)
    if not (np.abs(y) <= SUPPORTED_MAX_AIRY).all():
        raise ValueError(f"Airy argument |y| = {np.abs(y).max()} outside supported range "
                         f"|y| <= {SUPPORTED_MAX_AIRY}")
    out = _sp.airy(y)[0]
    return out if y.ndim else float(out)
