"""Ports of the few scipy routines the package needs beyond its linalg and
sparse subpackages.

Importing scipy's interpolate, integrate and optimize subpackages, with the
special-function module they pull in, takes longer than the model builds
of a whole run, for five small routines.  Each port below repeats the
arithmetic of the scipy routine it replaces in the same order, so its
results are bitwise scipy's; the tests keep scipy as the oracle.  Two
stand-ins are not bitwise: the monotone fit, which agrees with scipy's
within 1e-15 of the data's scale, and the Gauss-Legendre rule, which
replaces adaptive quadrature on the weighted-depth integral; after the
substitution that ``models.weighted_depth`` applies it agrees with it
within 1e-12 relative up to the forbidden edge.

* ``Spline`` and ``spline_slopes`` -- scipy's ``CubicSpline`` with
  not-a-knot or clamped first-derivative ends: knot slopes from one banded
  solve, ``CubicHermiteSpline``'s coefficients (``hermite_leading``) and
  ``PPoly``'s summation order for the value (``cubic_value``) and the first
  derivative.
* ``cumulative_simpson`` -- scipy's ``cumulative_simpson`` on sample points
  with ``initial=0``.
* ``brentq`` -- the loop of scipy's ``brentq``, with its tolerances and
  iteration cap.
* ``isotonic_fit`` -- a pool-adjacent-violators fit in place of scipy's
  ``isotonic_regression`` (unit weights, nondecreasing).
* ``gauss_legendre`` -- the nodes and weights of the plain 32-point rule
  on an interval, which ``models.weighted_depth`` applies in the variable
  sqrt(edge - t) and ``fcalc.hs_apply`` applies on its contour panels.

Two helpers are no ports: ``count_below``, the Sturm count of a symmetric
tridiagonal, which ``fcalc`` and ``solver`` share, and ``level_norm``, the
one discrete L^2 norm of samples on a level, which ``halfplane``, ``solver``
and ``fcalc`` share.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

__all__ = [
    "Spline",
    "spline_slopes",
    "hermite_leading",
    "cubic_value",
    "cumulative_simpson",
    "brentq",
    "isotonic_fit",
    "gauss_legendre",
    "count_below",
    "level_norm",
]


# --------------------------------------------------------------------------
# cubic splines
# --------------------------------------------------------------------------


def _checked(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, its steps, y in float64 or complex128), validated as scipy does."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    y = y.astype(complex if np.iscomplexobj(y) else float, copy=False)
    if x.ndim != 1 or x.size < 2 or y.ndim < 1 or y.shape[0] != x.size:
        raise ValueError("spline needs 1D nodes, at least 2, matching axis 0 of y")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("spline nodes and values must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("spline nodes must be strictly increasing")
    return x, dx, y


def _slopes(x, dx, y, end_slopes) -> np.ndarray:
    n = x.size
    if end_slopes is None and n < 4:
        raise ValueError("not-a-knot ends need at least 4 nodes")
    dxr = dx.reshape((dx.size,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    # the tridiagonal system for the knot slopes, in banded storage
    A = np.zeros((3, n))
    b = np.empty((n,) + y.shape[1:], dtype=y.dtype)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if end_slopes is None:
        A[1, 0] = dx[1]
        A[0, 1] = x[2] - x[0]
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        A[1, -1] = dx[-2]
        A[-1, -2] = x[-1] - x[-3]
        d = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    else:
        A[1, 0] = 1
        A[0, 1] = 0
        b[0] = end_slopes[0]
        A[1, -1] = 1
        A[-1, -2] = 0
        b[-1] = end_slopes[1]
    s = solve_banded(
        (1, 1), A, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True,
        check_finite=False,
    )
    return s.reshape(b.shape)


def spline_slopes(x, y) -> np.ndarray:
    """Knot slopes of ``CubicSpline(x, y)`` with not-a-knot ends (at least 4
    nodes), splining along axis 0 of y.  Each column of y is splined on its
    own, so batching columns changes no bit of any column's slopes.
    """
    x, dx, y = _checked(x, y)
    return _slopes(x, dx, y, None)


def hermite_leading(y0, y1, d0, d1, dx):
    """(c0, c1), the cubic and quadratic coefficients of the cubic with
    values y0, y1 and slopes d0, d1 at the ends of an interval of width dx,
    in ``CubicHermiteSpline``'s arithmetic."""
    slope = (y1 - y0) / dx
    t = (d0 + d1 - 2 * slope) / dx
    return t / dx, (slope - d0) / dx - t


def cubic_value(c, d):
    """c[0] d^3 + c[1] d^2 + c[2] d + c[3], summed in ascending powers from
    zero as ``PPoly`` sums it."""
    return 0.0 + c[3] + c[2] * d + c[1] * (d * d) + c[0] * (d * d * d)


class Spline:
    """``CubicSpline(x, y)`` along axis 0 of y.

    Not-a-knot ends by default (at least 4 nodes); ``end_slopes=(left,
    right)`` clamps the first derivative at the ends, as ``bc_type=((1,
    left), (1, right))`` does.

    The spline keeps x, y and the knot slopes, one array of y's size, and
    forms the Hermite coefficients of only the intervals a call lands in,
    bitwise those of ``CubicSpline``'s ``c``: the arithmetic is
    elementwise, so a coefficient does not depend on which other intervals
    are formed with it.  Calls extrapolate from the end intervals.
    """

    def __init__(self, x, y, end_slopes=None):
        x, dx, y = _checked(x, y)
        self.x = x
        self._dx = dx
        self._y = y
        self._s = _slopes(x, dx, y, end_slopes)

    def _coefficients(self, k: np.ndarray) -> np.ndarray:
        """c[:, k], the coefficients of the intervals k."""
        y, s = self._y, self._s
        dx = self._dx[k].reshape(k.shape + (1,) * (y.ndim - 1))
        c0, c1 = hermite_leading(y[k], y[k + 1], s[k], s[k + 1], dx)
        return np.stack((c0, c1, s[k], y[k]))

    def __call__(self, t, nu: int = 0):
        """Value (``nu=0``) or first derivative (``nu=1``) at t, summed in
        ascending powers as ``PPoly`` sums them; shape t.shape + y.shape[1:]."""
        t = np.asarray(t, dtype=float)
        x = self.x
        # t's interval x[k] <= t < x[k + 1], the last one closed on the right
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        c = self._coefficients(k)
        d = (t - x[k]).reshape(t.shape + (1,) * (self._y.ndim - 1))
        if nu == 0:
            return cubic_value(c, d)
        if nu == 1:
            return 0.0 + c[2] + c[1] * d * 2.0 + c[0] * (d * d) * 3.0
        raise ValueError(f"derivative order {nu} is not 0 or 1")


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------


def _simpson_panels(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integrals over the first step of each consecutive step pair."""
    x21 = dx[:-1]
    x32 = dx[1:]
    f1 = y[:-2]
    f2 = y[1:-1]
    f3 = y[2:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def cumulative_simpson(y, x) -> np.ndarray:
    """scipy's ``cumulative_simpson(y, x=x, initial=0.0)`` for 1D
    samples y at strictly increasing points x, at least three of them."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape != x.shape or y.size < 3:
        raise ValueError("cumulative Simpson needs matching 1D y and x, at least 3")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    forward = _simpson_panels(y, dx)
    backward = _simpson_panels(y[::-1], dx[::-1])[::-1]
    panels = np.empty(y.size - 1)
    panels[:-1:2] = forward[::2]
    panels[1::2] = backward[::2]
    # only the backward pairs reach the last step
    panels[-1] = backward[-1]
    # scipy adds ``initial`` before prepending it, which turns -0.0 into 0.0
    return np.concatenate(([0.0], np.cumsum(panels) + 0.0))


_GL_NODES, _GL_WEIGHTS = leggauss(32)


def gauss_legendre(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on [a, b]."""
    half = 0.5 * (b - a)
    return a + half * (_GL_NODES + 1.0), half * _GL_WEIGHTS


# --------------------------------------------------------------------------
# the norm on a level
# --------------------------------------------------------------------------


def level_norm(values, weights, axis=-1):
    """The discrete L^2 norm sqrt(sum |v|^2 w) of samples on a level, along
    ``axis``, with line elements ``weights`` broadcast against the values.

    The sum is taken of the moduli scaled by 2^-e, with e the exponent of
    their maximum (Blue's scaling, as BLAS ``dnrm2``), and the root is
    scaled back: a power-of-two scale is exact, so where the plain sum
    neither underflows nor overflows the result is bitwise the plain sum's,
    and a nonzero finite trace keeps a positive norm below 1e-154, where
    the plain squares underflow.
    """
    size = np.abs(values)
    _, e = np.frexp(np.max(size, axis=axis, keepdims=True))
    total = np.sum(np.ldexp(size, -e) ** 2 * weights, axis=axis)
    return np.ldexp(np.sqrt(total), np.squeeze(e, axis))


# --------------------------------------------------------------------------
# Sturm count, root finding and monotone regression
# --------------------------------------------------------------------------


def count_below(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Sturm count: the number of eigenvalues below ``shift`` of the real
    symmetric tridiagonal (diag, off), as the negative pivots of the LDL^T
    factorization of T - shift I; a zero pivot divides as a tiny positive
    one, as at a shift just below."""
    count, pivot = 0, 1.0
    for a, b2 in zip(diag.tolist(), [0.0, *(off**2).tolist()]):
        pivot = (a - shift) - b2 / (pivot or np.finfo(float).tiny)
        count += pivot < 0.0
    return count


_BRENT_MAXITER = 100


def brentq(f, a, b, xtol=2e-12) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    The loop of scipy's ``brentq``, step for step, with its default
    tolerances and iteration cap; f's values are taken as float64.
    """
    rtol = 4 * np.finfo(float).eps

    def value(t: float) -> float:
        ft = float(f(t))
        if math.isnan(ft):
            raise ValueError(f"The function value at x={t} is NaN; solver cannot continue.")
        return ft

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a zero divisor gives an infinite step in C,
                # which bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                divisor = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / divisor if divisor else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(
        f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}"
    )


def isotonic_fit(values) -> np.ndarray:
    """Least-squares nondecreasing fit to values, unit weights, by pooling
    adjacent violators: each value opens a block, which merges into the
    block before it while that block's mean is at least its own."""
    blocks: list[tuple[float, int]] = []  # (sum, count) per block
    for v in np.ravel(values):
        total, count = float(v), 1
        while blocks and blocks[-1][0] / blocks[-1][1] >= total / count:
            prev_total, prev_count = blocks.pop()
            total += prev_total
            count += prev_count
        blocks.append((total, count))
    return np.concatenate([np.full(count, total / count) for total, count in blocks])
