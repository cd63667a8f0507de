"""
Real-order cylinder functions and the Airy function.

These are the outside-region building blocks for the vortex scattering
problem: every partial wave outside the flux tube is a combination of
cylinder functions of order nu = |n - mu|, and the rainbow formulas need
the Airy function.

Conventions
-----------
``cylinder_pairs(nu, x)``
    J_nu(x), its x-derivative, Y_nu(x) and its x-derivative on an array
    of real orders.  J is the regular cylinder function; Y is the second
    (irregular) solution, normalised so that

        W{J, Y}(x) = J Y' - Y J' = 2 / (pi x)

    for every real order.  At integer order Y is the logarithmic
    companion, at non-integer order the standard combination built from
    the order -nu regular solution, Y_nu = (J_nu cos(nu pi) - J_{-nu}) /
    sin(nu pi).  J underflows gracefully to 0 deep in the classically
    forbidden region nu >> x, where Y may overflow to -inf; the mode
    table treats such far modes as decoupled.
``airy_ai(y)``
    Ai(y) = pi^(-1) * integral_0^inf cos(y u + u^3/3) du; exponentially
    damped for y > 0, oscillating for y < 0.

Supported range: 0 <= nu <= 1250 and 0 < x <= 1000 for the cylinder
functions, checked over the whole array of orders; |y| <= 100 for Ai,
which accepts a scalar or an array.  Relative accuracy of J and Y is
~1e-13 over the supported range.  All functions are pure and reentrant.

Derivatives are produced by the recurrence C'_nu = C_{nu-1} - (nu/x) C_nu
(DLMF 10.6.2), never by finite differences, because the delta-shell
matching consumes them at full precision.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

SUPPORTED_MAX_ORDER = 1250.0
SUPPORTED_MAX_ARGUMENT = 1000.0
SUPPORTED_MAX_AIRY = 100.0


def _check_order_arg(nu: np.ndarray, x: float) -> None:
    lo, hi = nu.min(), nu.max()
    if not (0.0 <= lo and hi <= SUPPORTED_MAX_ORDER):
        raise ValueError(f"order nu in [{lo}, {hi}] outside supported range "
                         f"[0, {SUPPORTED_MAX_ORDER}]")
    if not (0.0 < x <= SUPPORTED_MAX_ARGUMENT):
        raise ValueError(f"argument x={x} outside supported range (0, {SUPPORTED_MAX_ARGUMENT}]")


def cylinder_pairs(nu: np.ndarray, x: float) -> tuple[np.ndarray, ...]:
    """(J, J', Y, Y') at every order of the array ``nu`` and argument x,
    from one J and one Y evaluation over the distinct orders among nu and
    nu - 1.

    Raises
    ------
    ValueError
        If an order or x lies outside the supported range.
    """
    _check_order_arg(nu, x)
    orders, at = np.unique(np.concatenate([nu, nu - 1.0]), return_inverse=True)
    out = []
    for fn in (_sp.jv, _sp.yv):
        value, below = np.split(fn(orders, x)[at], 2)
        out += [value, below - (nu / x) * value]
    return tuple(out)


def airy_ai(y):
    """Airy function Ai(y) for |y| <= 100; accepts arrays."""
    y = np.asarray(y, dtype=float)
    if not (np.abs(y) <= SUPPORTED_MAX_AIRY).all():
        raise ValueError(f"Airy argument |y| = {np.abs(y).max()} outside supported range "
                         f"|y| <= {SUPPORTED_MAX_AIRY}")
    out = _sp.airy(y)[0]
    return out if y.ndim else float(out)


# First maximum of Ai(-t): root of Ai'(-t), t > 0.  Sets the offset of the
# rainbow peak from the extremal classical deflection angle.
AIRY_FIRST_MAX = 1.0187929716474071
