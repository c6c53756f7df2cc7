"""Smooth ramp profiles shared by every cutoff construction in the package.

Two families are provided:

* ``mollifier_rise`` / ``mollifier_fall`` -- the classical ramp built from the
  ``exp(-1/t)`` bump.  C-infinity, every one-sided derivative vanishes at the
  endpoints.  Used where only smoothness, monotonicity and support matter.
* ``polyramp`` -- a degree-9 polynomial ramp that is C^4 across its endpoints
  with all derivatives up to order 4 available exactly as polynomials.  Used
  where derivative jets up to fourth order are required in closed form.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as _poly

__all__ = [
    "mollifier_rise",
    "mollifier_fall",
    "polyramp",
    "polyramp_derivative",
    "POLYRAMP_MAX_DERIVATIVE",
]


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0 and 0 otherwise; vanishes to all orders at 0+."""
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _as_grid(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def mollifier_rise(t):
    """Monotone C-infinity ramp: 0 for t <= 0, 1 for t >= 1.

    Defined as S(t) / (S(t) + S(1 - t)) with S(t) = exp(-1/t) for t > 0.
    """
    arr, scalar = _as_grid(t)
    p = _bump(arr)
    q = _bump(1.0 - arr)
    out = np.zeros_like(arr)
    out[arr >= 1.0] = 1.0
    mid = (arr > 0.0) & (arr < 1.0)
    out[mid] = p[mid] / (p[mid] + q[mid])
    return float(out[0]) if scalar else out


def mollifier_fall(t):
    """Monotone C-infinity ramp: 1 for t <= 0, 0 for t >= 1."""
    arr, scalar = _as_grid(t)
    out = 1.0 - mollifier_rise(arr)
    return float(out[0]) if scalar else out


# Degree-9 ramp with P'(u) = 630 u^4 (1-u)^4: the first four derivatives
# vanish at both endpoints, so the clamped extension is globally C^4.
_POLYRAMP_COEFFS = np.zeros(10)
_POLYRAMP_COEFFS[5:] = (126.0, -420.0, 540.0, -315.0, 70.0)

#: Highest derivative order that is continuous across the ramp endpoints.
POLYRAMP_MAX_DERIVATIVE = 4

_POLYRAMP_DERIVS = [_POLYRAMP_COEFFS]
for _ in range(POLYRAMP_MAX_DERIVATIVE):
    _POLYRAMP_DERIVS.append(_poly.polyder(_POLYRAMP_DERIVS[-1]))


def polyramp(u):
    """C^4 polynomial ramp: 0 for u <= 0, 1 for u >= 1."""
    return polyramp_derivative(u, 0)


def polyramp_derivative(u, order: int):
    """Exact derivative of :func:`polyramp` of the given order (0..4).

    Orders 1 through 4 vanish identically outside (0, 1), matching the
    one-sided limits of the interior polynomial, so the returned function
    is globally continuous.
    """
    if not 0 <= order <= POLYRAMP_MAX_DERIVATIVE:
        raise ValueError(
            f"polyramp derivatives are exact only up to order "
            f"{POLYRAMP_MAX_DERIVATIVE}, got {order}"
        )
    arr, scalar = _as_grid(u)
    out = np.zeros_like(arr)
    if order == 0:
        out[arr >= 1.0] = 1.0
    mid = (arr > 0.0) & (arr < 1.0)
    out[mid] = _poly.polyval(arr[mid], _POLYRAMP_DERIVS[order])
    return float(out[0]) if scalar else out
