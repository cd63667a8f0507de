"""
Real-order cylinder functions and the Airy function.

These are the outside-region building blocks for the vortex scattering
problem: every partial wave outside the flux tube is a combination of
cylinder functions of order nu = |n - mu|, and the rainbow formulas need
the Airy function.

Conventions
-----------
``bessel_j(nu, x)``
    The regular cylinder function J_nu(x).
``bessel_second(nu, x)``
    The second (irregular) solution, normalised so that

        W{bessel_j, bessel_second}(x) = 2 / (pi x)

    for every real order.  This is Y_nu(x): at integer order it is the
    logarithmic companion, at non-integer order it is the standard
    combination built from the order -nu regular solution,
    Y_nu = (J_nu cos(nu pi) - J_{-nu}) / sin(nu pi).
``hankel_out(kind, nu, x)``
    Outgoing/incoming radial waves normalised so that

        hankel_out(+1, nu, x) ~ x^(-1/2) exp(+i (x - nu pi/2 - pi/4))
        hankel_out(-1, nu, x) ~ x^(-1/2) exp(-i (x - nu pi/2 - pi/4))

    as x -> infinity, i.e. sqrt(pi/2) * (J +/- i Y).
``airy_ai(y)``
    Ai(y) = pi^(-1) * integral_0^inf cos(y u + u^3/3) du; exponentially
    damped for y > 0, oscillating for y < 0.

Supported range: 0 <= nu <= 1250 and 0 < x <= 1000 for the cylinder
functions, |y| <= 100 for Ai.  The real cylinder functions accept a numpy
array of orders and ``airy_ai`` one of arguments, checked as a whole.
All functions are pure and reentrant.

Derivatives are produced by the recurrence C'_nu = C_{nu-1} - (nu/x) C_nu
(DLMF 10.6.2), never by finite differences, because the delta-shell
matching consumes them at full precision.  :func:`cylinder_pairs` gives
J, J', Y and Y' on an array of orders from one J and one Y evaluation over
the distinct orders among nu and nu - 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

SUPPORTED_MAX_ORDER = 1250.0
SUPPORTED_MAX_ARGUMENT = 1000.0
SUPPORTED_MAX_AIRY = 100.0


def _check_order_arg(nu, x: float) -> None:
    lo, hi = (nu.min(), nu.max()) if isinstance(nu, np.ndarray) else (nu, nu)
    if not (0.0 <= lo and hi <= SUPPORTED_MAX_ORDER):
        raise ValueError(f"order nu in [{lo}, {hi}] outside supported range "
                         f"[0, {SUPPORTED_MAX_ORDER}]")
    if not (0.0 < x <= SUPPORTED_MAX_ARGUMENT):
        raise ValueError(f"argument x={x} outside supported range (0, {SUPPORTED_MAX_ARGUMENT}]")


def _cylinder(fn, nu, x: float):
    """Range-checked ``fn(nu, x)``: an array for an array of orders, else a
    float."""
    _check_order_arg(nu, x)
    out = fn(nu, x)
    return out if isinstance(nu, np.ndarray) else float(out)


def _deriv(below, value, nu, x: float):
    """C'_nu(x) from C_{nu-1}(x) and C_nu(x) (DLMF 10.6.2)."""
    return below - (nu / x) * value


def _derivative(fn):
    """d/dx of the cylinder function ``fn`` through :func:`_deriv`."""
    return lambda nu, x: _deriv(fn(nu - 1.0, x), fn(nu, x), nu, x)


def bessel_j(nu, x):
    """Regular cylinder function J_nu(x) for real nonnegative order.

    Parameters
    ----------
    nu : float or ndarray
        Order, 0 <= nu <= 1250.
    x : float
        Argument, 0 < x <= 1000.

    Returns
    -------
    float or ndarray
        J_nu(x).  Relative accuracy ~1e-13 over the supported range;
        underflows gracefully to 0 deep in the classically forbidden
        region nu >> x.
    """
    return _cylinder(_sp.jv, nu, x)


def bessel_j_deriv(nu, x):
    """d/dx J_nu(x) via the recurrence J_{nu-1} - (nu/x) J_nu."""
    return _cylinder(_derivative(_sp.jv), nu, x)


def bessel_second(nu, x):
    """Second cylinder solution Y_nu(x), see module docstring for the
    normalisation.  May overflow to -inf extremely deep in the forbidden
    region (nu >> x); the mode table treats such far modes as decoupled.
    """
    return _cylinder(_sp.yv, nu, x)


def bessel_second_deriv(nu, x):
    """d/dx Y_nu(x) via the recurrence Y_{nu-1} - (nu/x) Y_nu."""
    return _cylinder(_derivative(_sp.yv), nu, x)


def cylinder_pairs(nu: np.ndarray, x: float) -> tuple[np.ndarray, ...]:
    """(J, J', Y, Y') at every order of ``nu``, bit for bit those of
    :func:`bessel_j`, :func:`bessel_j_deriv`, :func:`bessel_second` and
    :func:`bessel_second_deriv`, from one J and one Y evaluation over the
    distinct orders among nu and nu - 1."""
    _check_order_arg(nu, x)
    orders, at = np.unique(np.concatenate([nu, nu - 1.0]), return_inverse=True)
    out = []
    for fn in (_sp.jv, _sp.yv):
        value, below = np.split(fn(orders, x)[at], 2)
        out += [value, _deriv(below, value, nu, x)]
    return tuple(out)


def hankel_out(kind: int, nu: float, x: float) -> complex:
    """Travelling-wave solution sqrt(pi/2) * (J_nu +/- i Y_nu)(x).

    Parameters
    ----------
    kind : {+1, -1}
        +1 for the outgoing wave ~ x^(-1/2) e^{+i(x - nu pi/2 - pi/4)},
        -1 for its complex conjugate (incoming wave).
    nu, x : float
        Order and argument as in :func:`bessel_j`.
    """
    if kind not in (+1, -1):
        raise ValueError(f"kind must be +1 or -1, got {kind}")
    _check_order_arg(nu, x)
    j = float(_sp.jv(nu, x))
    y = float(_sp.yv(nu, x))
    pref = math.sqrt(math.pi / 2.0)
    return pref * complex(j, kind * y)


def hankel_out_deriv(kind: int, nu: float, x: float) -> complex:
    """d/dx of :func:`hankel_out`, from :func:`bessel_j_deriv` and
    :func:`bessel_second_deriv`."""
    if kind not in (+1, -1):
        raise ValueError(f"kind must be +1 or -1, got {kind}")
    jp, yp = bessel_j_deriv(nu, x), bessel_second_deriv(nu, x)
    pref = math.sqrt(math.pi / 2.0)
    return pref * complex(jp, kind * yp)


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
