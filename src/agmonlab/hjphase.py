"""Formal power-series solutions of the collar Hamilton-Jacobi equations.

Two conjugation conventions are supported for the imaginary phase
phi_1(x_n, xi') with phi = <x', xi'> + i phi_1:

* "agmon" - the distance-gauged equation in weighted arclength
  coordinates, (d phi_1)^2 + 2 d phi_1 - r = 0 with r the squared metric
  norm of xi' at depth x_n; its solution vanishes on the zero section and
  carries the extra decay beyond exp(-depth/h).
* "ambient" - the ungauged equation (d phi_1)^2 = (V - E) + |xi'|^2 in
  the ambient normal coordinate; its zero-frequency column reproduces the
  weighted distance itself.

Both kinds run one recursion, coefficient by coefficient in extended
precision; each order divides by 2(1 + w_0) (agmon) or
2 sqrt(V - E + |xi'|^2) (ambient), both bounded away from zero on the
shipped barriers, so the recursion is well posed and the decaying branch
is selected by the principal root.  A series keeps the Taylor table it was
built from, and one Horner rule evaluates it and its residual.

Both kinds are built only for barriers that do not depend on the tangent,
so every phase is tangent-invariant: one column of Taylor data per
frequency, and a parametrix that acts as a Fourier multiplier on the mode
grid of ``halfplane.mode_frequencies``, applied by
``halfplane.apply_multiplier`` as ``quantize``'s symbols are.  A
tangent-dependent barrier is rejected by ``models`` before any recursion
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from agmonlab.agmon import separable_level_set
from agmonlab.halfplane import BoundaryFunction, apply_multiplier
from agmonlab.models import ModelProblem, normal_taylor_coefficients
from agmonlab.solver import BoundaryTrace

__all__ = [
    "PhaseSeries",
    "PhaseResidualReport",
    "agmon_metric_taylor",
    "solve_phase_series",
    "evaluate_phase",
    "phase_function",
    "phase_residual",
    "apply_poisson_parametrix",
]

_LD = np.longdouble
_EXTRA_ORDERS = 9  # metric Taylor data kept beyond K for residual checks
_RHO0_TOL = 1e-3


# --------------------------------------------------------------------------
# truncated power-series arithmetic (1D coefficient arrays, extended precision)
# --------------------------------------------------------------------------


def _series_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    return np.convolve(a[: m + 1], b[: m + 1])[: m + 1]


def _series_recip(a: np.ndarray, m: int) -> np.ndarray:
    if a[0] == 0.0:
        raise ZeroDivisionError("series has no reciprocal: zero constant term")
    out = np.zeros(m + 1, dtype=a.dtype)
    out[0] = 1.0 / a[0]
    for k in range(1, m + 1):
        acc = np.dot(a[1 : k + 1], out[k - 1 :: -1][: k])
        out[k] = -acc / a[0]
    return out

def _series_sqrt(a: np.ndarray, m: int) -> np.ndarray:
    if a[0] <= 0.0:
        raise ValueError("series sqrt requires a positive constant term")
    out = np.zeros(m + 1, dtype=a.dtype)
    out[0] = np.sqrt(a[0])
    for k in range(1, m + 1):
        acc = np.dot(out[1:k], out[k - 1 : 0 : -1]) if k >= 2 else 0.0
        a_k = a[k] if k < a.size else 0.0
        out[k] = (a_k - acc) / (2.0 * out[0])
    return out


def _series_integrate(a: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(m + 1, dtype=a.dtype)
    top = min(m, a.size)
    out[1 : top + 1] = a[:top] / (np.arange(1, top + 1, dtype=a.dtype))
    return out


def _series_compose(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    if b[0] != 0.0:
        raise ValueError("series composition requires b(0) = 0")
    top = min(m, a.size - 1)
    out = np.zeros(m + 1, dtype=a.dtype)
    out[0] = a[top]
    for j in range(top - 1, -1, -1):
        out = _series_mul(out, b, m)
        out[0] += a[j]
    return out


def _series_revert(f: np.ndarray, m: int) -> np.ndarray:
    if f[0] != 0.0 or f[1] == 0.0:
        raise ValueError("series reversion requires f(0) = 0, f'(0) != 0")
    tail = np.array(f[: m + 1], dtype=f.dtype)
    tail[1] = 0.0
    g = np.zeros(m + 1, dtype=f.dtype)
    g[1] = 1.0 / f[1]
    for _ in range(m):
        comp = _series_compose(tail, g, m)
        new = -comp
        new[1] += 1.0
        g = new / f[1]
    return g


# --------------------------------------------------------------------------
# metric Taylor data
# --------------------------------------------------------------------------


def agmon_metric_taylor(model: ModelProblem, order: int) -> np.ndarray:
    """Taylor coefficients of the inverse barrier height in weighted arclength.

    For a product barrier A(s) the weighted arclength is
    rho(s) = integral of sqrt(A); the returned series T satisfies
    T(x_n) = 1/A(s(x_n)), so the squared metric norm of a cotangent
    frequency at depth x_n is T(x_n) |xi'|^2.  A barrier that depends on
    the tangent has no such series and is rejected.
    """
    a = normal_taylor_coefficients(model, order).astype(_LD)
    u = _series_sqrt(a, order)
    rho = _series_integrate(u, order)
    s_of = _series_revert(rho, order)
    composed = _series_compose(a, s_of, order)
    return _series_recip(composed, order)


# --------------------------------------------------------------------------
# phase series
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSeries:
    """Truncated series phi_1 = sum_{j=1}^{K+1} c_j(xi') x_n^j.

    ``coefficients`` has shape (K+1, n_frequencies) holding c_1..c_{K+1}
    in extended precision, read-only; ``kind`` selects the conjugation
    convention.  The derivative coefficients w_m = (m+1) c_{m+1} satisfy
    the order-by-order recursion of the corresponding equation through
    order K, leaving a residual O(x_n^{K+2-1}).
    """

    order: int
    coefficients: np.ndarray
    kind: str
    frequencies: np.ndarray
    model: ModelProblem
    meta: dict

    def __post_init__(self) -> None:
        if self.kind not in ("agmon", "ambient"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if np.iscomplexobj(self.coefficients):
            raise ValueError("phase series must be real (decaying branch)")
        expected = (self.order + 1, self.frequencies.size)
        if self.coefficients.shape != expected:
            raise ValueError(
                f"coefficient array shape {self.coefficients.shape} does not "
                f"match (K+1, n_frequencies) = {expected}"
            )
        self.coefficients.setflags(write=False)


def _recursion(
    rhs: np.ndarray, w0: np.ndarray, divisor: np.ndarray, order: int
) -> np.ndarray:
    """Derivative coefficients w_0..w_K of both equations from their order-0 root.

    The gauged equation (w)^2 + 2 w = r and the ambient one (w)^2 = q share
    the order-m relation divisor * w_m + sum_{0<i<m} w_i w_{m-i} = rhs_m,
    with divisor 2 (1 + w_0) or 2 w_0.  A divisor that is not positive
    leaves the decaying branch undetermined and is rejected.
    """
    if not np.all(divisor > 0.0):
        raise ValueError(
            "branch ambiguity: the barrier vanishes on the sampled grid "
            "(V = E), so the leading square root is not determined"
        )
    w = np.zeros((order + 1,) + w0.shape, dtype=rhs.dtype)
    w[0] = w0
    for m in range(1, order + 1):
        acc = np.zeros(w0.shape, dtype=rhs.dtype)
        for i in range(1, m):
            acc = acc + w[i] * w[m - i]
        w[m] = (rhs[m] - acc) / divisor
    return w


def _phase_coefficients(
    kind: str, table: np.ndarray, xi: np.ndarray, order: int
) -> np.ndarray:
    """c_1..c_{K+1} at the frequencies xi, one column each, from the Taylor
    table T of :func:`agmon_metric_taylor` (gauged, right-hand side
    T xi'^2) or of V - E (ambient, right-hand side V - E + xi'^2)."""
    xi2 = xi.astype(_LD) ** 2
    if kind == "agmon":
        rhs = table[: order + 1, None] * xi2[None, :]
        # w_0 = sqrt(1 + r_0) - 1, written to avoid cancellation near xi' = 0
        w0 = rhs[0] / (1.0 + np.sqrt(1.0 + rhs[0]))
        divisor = 2.0 * (1.0 + w0)
    else:
        rhs = np.repeat(table[: order + 1, None], xi.size, axis=1)
        rhs[0] = rhs[0] + xi2
        w0 = np.sqrt(rhs[0])
        divisor = 2.0 * w0
    w = _recursion(rhs, w0, divisor, order)
    return w / np.arange(1, order + 2, dtype=_LD)[:, None]


def solve_phase_series(
    model: ModelProblem, kind: str, order: int, frequencies
) -> PhaseSeries:
    """Build the decaying-branch phase series at the given frequency samples.

    ``meta`` holds what evaluation and the cutoffs read: ``taylor_table``,
    the normal Taylor table extended past the series order (of the gauged
    metric or of V - E), and ``collar_limit``, the collar width the series
    is evaluated on.  Both kinds require a barrier that does not depend on
    the tangent; a tangent-dependent model is rejected before any
    recursion runs.
    """
    if order < 2:
        raise ValueError("series order must be at least 2")
    if kind not in ("agmon", "ambient"):
        raise ValueError(f"unknown series kind {kind!r}")
    xi = np.atleast_1d(np.asarray(frequencies, dtype=float))
    k_ext = order + _EXTRA_ORDERS
    if kind == "agmon":
        table = agmon_metric_taylor(model, k_ext)
        collar_limit = model.collar_width
    else:
        table = normal_taylor_coefficients(model, k_ext).astype(_LD)
        collar_limit = model.collar_width_ambient
    return PhaseSeries(
        order=order,
        coefficients=_phase_coefficients(kind, table, xi, order),
        kind=kind,
        frequencies=xi,
        model=model,
        meta={"taylor_table": table, "collar_limit": float(collar_limit)},
    )


def _horner(coefficients: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j coefficients[j] x^j by Horner's rule, in extended precision;
    x broadcasts against each coefficient row."""
    out = np.zeros(np.broadcast_shapes(np.shape(x), coefficients.shape[1:]), dtype=_LD)
    for row in coefficients[::-1]:
        out = out * x + row
    return out


def evaluate_phase(series: PhaseSeries, x_n) -> np.ndarray:
    """phi_1 at depth x_n: shape (n_frequencies,) per scalar.

    Vector x_n returns a stacked leading axis.  The result is read-only,
    like the coefficients it is evaluated from.
    """
    x = np.asarray(x_n, dtype=_LD)
    depths = np.atleast_1d(x)[:, None]
    result = (depths * _horner(series.coefficients, depths)).astype(float)
    result.setflags(write=False)
    return result[0] if x.ndim == 0 else result


def phase_function(series: PhaseSeries):
    """The series' phi_1(x_n, xi') as a callable at arbitrary frequencies.

    Runs the series' own recursion on its own Taylor table, so at the
    series' sample frequencies it agrees with :func:`evaluate_phase`
    bitwise; used where the phase must be a continuous function of
    frequency (root finding).  Returns a float for a scalar frequency and
    an array of the frequencies' shape otherwise.
    """
    table = series.meta["taylor_table"]

    def phi1(x_n, xi):
        shape = np.shape(xi)
        flat = np.ravel(xi)
        coefficients = _phase_coefficients(series.kind, table, flat, series.order)
        x = _LD(x_n)
        out = (x * _horner(coefficients, x)).astype(float).reshape(shape)
        return float(out) if shape == () else out

    return phi1


# --------------------------------------------------------------------------
# structural checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseResidualReport:
    """Equation residual of the truncated series at the sampled depths, in
    increasing depth order."""

    max_residual: np.ndarray
    relative_residual: np.ndarray
    fitted_exponent: float
    validity_radius: float  # largest depth with relative residual < 1e-3


def _residual_arrays(series: PhaseSeries, x: np.ndarray):
    """|equation residual| per (sample, frequency), extended precision."""
    c = series.coefficients
    w_coeff = c * np.arange(1, series.order + 2, dtype=_LD)[:, None]
    w_val = _horner(w_coeff, x[:, None])
    t_val = _horner(series.meta["taylor_table"], x)
    xi2 = series.frequencies.astype(_LD)[None, :] ** 2
    if series.kind == "agmon":
        rhs = t_val[:, None] * xi2
        residual = w_val**2 + 2.0 * w_val - rhs
    else:
        rhs = t_val[:, None] + xi2
        residual = w_val**2 - rhs
    return np.abs(residual), np.abs(rhs)


def phase_residual(series: PhaseSeries, samples) -> PhaseResidualReport:
    """Substitute the truncated series into its equation at given depths.

    Reports the max absolute residual per depth, the fitted decay order
    (log-log regression over the positive samples), and the empirical
    validity radius: the largest depth below which the relative residual
    stays under 1e-3.  The truncation analysis predicts order K+1.
    """
    x = np.asarray(samples, dtype=_LD)
    if np.any(x <= 0.0):
        raise ValueError("depth samples must be positive")
    limit = series.meta["collar_limit"]
    if np.max(x) > limit + 1e-12:
        raise ValueError(f"depth samples beyond the collar limit {limit:g}")
    x = np.sort(x)
    resid, rhs_mag = _residual_arrays(series, x)
    max_res = np.max(resid, axis=1).astype(float)
    rel = np.max(resid / np.maximum(1.0, rhs_mag), axis=1).astype(float)
    positive = max_res > 0.0
    if np.count_nonzero(positive) >= 2:
        slope = float(
            np.polyfit(np.log(x[positive].astype(float)), np.log(max_res[positive]), 1)[0]
        )
    else:
        slope = math.inf
    below = rel < _RHO0_TOL
    radius = 0.0
    for i in range(x.size):
        if not below[: i + 1].all():
            break
        radius = float(x[i])
    return PhaseResidualReport(
        max_residual=max_res,
        relative_residual=rel,
        fitted_exponent=slope,
        validity_radius=radius,
    )


# --------------------------------------------------------------------------
# parametrix application
# --------------------------------------------------------------------------


def apply_poisson_parametrix(
    series: PhaseSeries, phi: BoundaryFunction, rho: float
) -> BoundaryTrace:
    """Gauged parametrix trace at weighted depth rho.

    Applies the mode-wise multiplier exp(-phi_1(rho, xi'_k)/h) to the
    boundary data (unit amplitude); at rho = 0 the trace is the data
    itself.  The gauged multiplier already includes the exp(rho/h) factor
    relative to the ungauged extension, so the returned trace is O(1) for
    flat data.
    """
    if series.kind != "agmon":
        raise ValueError("parametrix application requires the gauged kind")
    model = series.model
    if rho < 0.0 or rho > model.collar_width:
        raise ValueError(
            f"depth {rho:g} outside the collar [0, {model.collar_width:g}]"
        )
    level = separable_level_set(model, rho, n_tangential=phi.values.size)
    if rho == 0.0:
        return BoundaryTrace(
            values=phi.values.copy(), level=level, rho=0.0, h=phi.h
        )
    multiplier = np.exp(-evaluate_phase(series, rho) / phi.h)
    values = apply_multiplier(phi, multiplier, series.frequencies)
    return BoundaryTrace(values=values, level=level, rho=float(rho), h=phi.h)
