"""Formal power-series solutions of the collar Hamilton-Jacobi equations.

Two conjugation conventions are supported for the imaginary phase
phi_1(x', x_n, xi') with phi = <x', xi'> + i phi_1:

* "agmon" - the distance-gauged equation in weighted arclength
  coordinates, (d phi_1)^2 + 2 d phi_1 - r = 0 with r the squared metric
  norm of xi' at depth x_n; its solution vanishes on the zero section and
  carries the extra decay beyond exp(-depth/h).
* "ambient" - the ungauged equation (d phi_1)^2 = (V - E) + |xi'|^2 in
  the ambient normal coordinate; its zero-frequency column reproduces the
  weighted distance itself.

Series are built coefficient-by-coefficient in extended precision; each
order divides by 2(1 + w_0) (agmon) or 2 sqrt(V - E + |xi'|^2) (ambient),
both bounded away from zero on the shipped barriers, so the recursion is
well posed and the decaying branch is selected by the principal root.

The recursion, the phase evaluation and the residual check run once per
distinct row of the normal Taylor table: one row for a tangentially
invariant barrier (and for every gauged series), one per tangential node
for a separable-product barrier.  The tangent axis of the coefficient
array and of evaluated phases is a read-only broadcast view of those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from agmonlab.agmon import separable_level_set
from agmonlab.halfplane import BoundaryFunction
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
    "mode_frequencies",
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

_AGMON_KINDS = ("constant-barrier", "cosine-well")


def agmon_metric_taylor(model: ModelProblem, order: int) -> np.ndarray:
    """Taylor coefficients of the inverse barrier height in weighted arclength.

    For a product barrier A(s) the weighted arclength is
    rho(s) = integral of sqrt(A); the returned series T satisfies
    T(x_n) = 1/A(s(x_n)), so the squared metric norm of a cotangent
    frequency at depth x_n is T(x_n) |xi'|^2.
    """
    if model.potential.kind not in _AGMON_KINDS:
        raise ValueError(
            f"model {model.name!r} has no tangentially invariant product "
            "barrier; the distance-gauged series is only built for those"
        )
    a = normal_taylor_coefficients(model, order)[:, 0].astype(_LD)
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
    """Truncated series phi_1 = sum_{j=1}^{K+1} c_j(x', xi') x_n^j.

    ``coefficients`` has shape (K+1, n_tangential, n_frequencies) holding
    c_1..c_{K+1} in extended precision; ``kind`` selects the conjugation
    convention.  The derivative coefficients w_m = (m+1) c_{m+1} satisfy
    the order-by-order recursion of the corresponding equation through
    order K, leaving a residual O(x_n^{K+2-1}).

    The series is built from its distinct Taylor rows: the array passed as
    ``coefficients`` may hold one row (a tangentially invariant phase) or
    one per tangential node.  It is kept, read-only, as
    ``row_coefficients``, and ``coefficients`` is a read-only broadcast
    view of it over the tangential nodes.
    """

    order: int
    coefficients: np.ndarray
    kind: str
    tangential_nodes: np.ndarray
    frequencies: np.ndarray
    model: ModelProblem
    meta: dict
    row_coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("agmon", "ambient"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        rows = self.coefficients
        if np.iscomplexobj(rows):
            raise ValueError("phase series must be real (decaying branch)")
        expected = (
            self.order + 1,
            self.tangential_nodes.size,
            self.frequencies.size,
        )
        n_rows = rows.shape[1] if rows.ndim == 3 else 0
        if n_rows not in (1, expected[1]) or rows.shape != (
            expected[0], n_rows, expected[2]
        ):
            raise ValueError(
                f"coefficient array shape {rows.shape} does not match "
                f"(K+1, 1 or n_tangential, n_frequencies) for {expected}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "row_coefficients", rows)
        object.__setattr__(self, "coefficients", np.broadcast_to(rows, expected))


def _agmon_recursion(r: np.ndarray, k_order: int) -> np.ndarray:
    """Derivative coefficients w_0..w_K of (w)^2 + 2 w - r(x_n) = 0."""
    shape = r.shape[1:]
    w = np.zeros((k_order + 1,) + shape, dtype=r.dtype)
    # w_0 = sqrt(1 + r_0) - 1, written to avoid cancellation near xi' = 0
    w[0] = r[0] / (1.0 + np.sqrt(1.0 + r[0]))
    divisor = 2.0 * (1.0 + w[0])
    for m in range(1, k_order + 1):
        acc = np.zeros(shape, dtype=r.dtype)
        for i in range(1, m):
            acc = acc + w[i] * w[m - i]
        w[m] = (r[m] - acc) / divisor
    return w


def _ambient_recursion(q: np.ndarray, k_order: int) -> np.ndarray:
    """Derivative coefficients of (w)^2 = q(x_n), principal branch."""
    if np.min(q[0]) <= 0.0:
        raise ValueError(
            "branch ambiguity: the barrier vanishes on the sampled grid "
            "(V = E), so the leading square root is not determined"
        )
    shape = q.shape[1:]
    w = np.zeros((k_order + 1,) + shape, dtype=q.dtype)
    w[0] = np.sqrt(q[0])
    divisor = 2.0 * w[0]
    for m in range(1, k_order + 1):
        acc = np.zeros(shape, dtype=q.dtype)
        for i in range(1, m):
            acc = acc + w[i] * w[m - i]
        w[m] = (q[m] - acc) / divisor
    return w


def solve_phase_series(
    model: ModelProblem,
    kind: str,
    order: int,
    grid: tuple[np.ndarray, np.ndarray],
) -> PhaseSeries:
    """Build the decaying-branch phase series on a boundary phase-space grid.

    ``grid`` is (tangential nodes, frequency samples).  The distance-gauged
    kind requires a tangentially invariant barrier (its coefficients do
    not depend on the tangent); the ambient kind accepts every shipped
    model and varies with the tangent where the barrier does.
    """
    if order < 2:
        raise ValueError("series order must be at least 2")
    xp = np.atleast_1d(np.asarray(grid[0], dtype=float))
    xi = np.atleast_1d(np.asarray(grid[1], dtype=float))
    k_ext = order + _EXTRA_ORDERS
    xi_ld = xi.astype(_LD)
    if kind == "agmon":
        t_taylor = agmon_metric_taylor(model, k_ext)
        r = t_taylor[:, None, None] * xi_ld[None, None, :] ** 2
        w = _agmon_recursion(r, order)
        divisor_min = float(np.min(2.0 * (1.0 + w[0])))
        table = t_taylor
        collar_limit = model.collar_width
    elif kind == "ambient":
        rows = normal_taylor_coefficients(model, k_ext, tangential_nodes=xp) if (
            model.potential.kind == "separable-product"
        ) else normal_taylor_coefficients(model, k_ext)
        rows = rows.astype(_LD)
        q = rows[:, :, None] * np.ones((1, 1, xi.size), dtype=_LD)
        q[0] = q[0] + xi_ld[None, :] ** 2
        w = _ambient_recursion(q, order)
        divisor_min = float(np.min(2.0 * w[0]))
        table = rows
        collar_limit = model.collar_width_ambient
    else:
        raise ValueError(f"unknown series kind {kind!r}")

    powers = np.arange(1, order + 2, dtype=_LD)
    coefficients = w / powers[:, None, None]
    meta = {
        "divisor_min": divisor_min,
        "taylor_table": table,
        "extended_order": k_ext,
        "collar_limit": float(collar_limit),
    }
    return PhaseSeries(
        order=order,
        coefficients=coefficients,
        kind=kind,
        tangential_nodes=xp,
        frequencies=xi,
        model=model,
        meta=meta,
    )


def _phase_on_rows(series: PhaseSeries, x: np.ndarray) -> np.ndarray:
    """phi_1 on the distinct Taylor rows: shape (x.size, n_rows, n_frequencies)."""
    c = series.row_coefficients
    out = np.zeros((x.size,) + c.shape[1:], dtype=_LD)
    for row in c[::-1]:
        out = (out + row[None]) * x[:, None, None]
    return out.astype(float)


def evaluate_phase(series: PhaseSeries, x_n) -> np.ndarray:
    """phi_1 at depth x_n: shape (n_tangential, n_frequencies) per scalar.

    Vector x_n returns a stacked leading axis.  The result is a read-only
    view, broadcast over the tangent where the phase does not depend on it.
    """
    x = np.asarray(x_n, dtype=_LD)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    result = np.broadcast_to(
        _phase_on_rows(series, x), (x.size,) + series.coefficients.shape[1:]
    )
    return result[0] if scalar else result


def phase_function(model: ModelProblem, kind: str, order: int):
    """A callable phi_1(x_n, xi') evaluating the same recursion on demand.

    Returns a closure vectorized over arbitrary frequency arrays, agreeing
    with :func:`solve_phase_series` at matching sample points; used where
    the phase must be a continuous function of frequency (root finding).
    """
    if kind != "agmon":
        raise ValueError("on-demand phase evaluation is for the gauged kind")
    t_taylor = agmon_metric_taylor(model, order + _EXTRA_ORDERS)

    def phi1(x_n, xi):
        xi_arr = np.asarray(xi, dtype=_LD)
        shape = xi_arr.shape
        flat = np.atleast_1d(xi_arr).ravel()
        r = t_taylor[: order + 1, None] * flat[None, :] ** 2
        w = _agmon_recursion(r, order)
        powers = np.arange(1, order + 2, dtype=_LD)
        coeff = w / powers[:, None]
        x = _LD(x_n)
        acc = np.zeros_like(flat)
        for row in coeff[::-1]:
            acc = (acc + row) * x
        out = acc.astype(float).reshape(shape)
        return float(out) if shape == () else out

    return phi1


# --------------------------------------------------------------------------
# structural checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseResidualReport:
    """Equation residual of the truncated series at sampled depths."""

    samples: np.ndarray
    max_residual: np.ndarray
    relative_residual: np.ndarray
    fitted_exponent: float
    validity_radius: float  # largest depth with relative residual < 1e-3


def _residual_arrays(series: PhaseSeries, x: np.ndarray):
    """|equation residual| per (sample, Taylor row, frequency), extended precision."""
    c = series.row_coefficients
    order = series.order
    w_coeff = c * np.arange(1, order + 2, dtype=_LD)[:, None, None]
    w_val = np.zeros((x.size,) + c.shape[1:], dtype=_LD)
    for row in w_coeff[::-1]:
        w_val = w_val * x[:, None, None] + row[None]
    table = series.meta["taylor_table"]
    xi2 = series.frequencies.astype(_LD)[None, None, :] ** 2
    if series.kind == "agmon":
        t_val = np.zeros(x.size, dtype=_LD)
        for coef in table[::-1]:
            t_val = t_val * x + coef
        rhs = t_val[:, None, None] * xi2
        residual = w_val**2 + 2.0 * w_val - rhs
    else:
        vals = np.zeros((x.size, table.shape[1]), dtype=_LD)
        for row in table[::-1]:
            vals = vals * x[:, None] + row[None]
        rhs = vals[:, :, None] + xi2
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
    max_res = np.max(resid, axis=(1, 2)).astype(float)
    rel = np.max(resid / np.maximum(1.0, rhs_mag), axis=(1, 2)).astype(float)
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
        samples=x.astype(float),
        max_residual=max_res,
        relative_residual=rel,
        fitted_exponent=slope,
        validity_radius=radius,
    )


# --------------------------------------------------------------------------
# parametrix application
# --------------------------------------------------------------------------


def mode_frequencies(n: int, length: float, h: float) -> np.ndarray:
    """Semiclassical frequencies of the circle modes, centred ordering."""
    return h * 2.0 * math.pi * np.arange(-(n // 2), n - n // 2) / length


def apply_poisson_parametrix(
    series: PhaseSeries,
    phi: BoundaryFunction,
    rho: float,
    method: str | None = None,
) -> BoundaryTrace:
    """Gauged parametrix trace at weighted depth rho.

    Applies the mode-wise multiplier exp(-phi_1(x', rho, xi'_k)/h) to the
    boundary data (unit amplitude); when the phase depends on the tangent
    the full oscillatory double sum is evaluated instead.  The gauged
    multiplier already includes the exp(rho/h) factor relative to the
    ungauged extension, so the returned trace is O(1) for flat data.
    """
    if series.kind != "agmon":
        raise ValueError("parametrix application requires the gauged kind")
    model = series.model
    if rho < 0.0 or rho > model.collar_width:
        raise ValueError(
            f"depth {rho:g} outside the collar [0, {model.collar_width:g}]"
        )
    n = phi.values.size
    freqs = mode_frequencies(n, phi.length, phi.h)
    if series.frequencies.size != n or np.max(
        np.abs(series.frequencies - freqs)
    ) > 1e-12:
        raise ValueError(
            "series frequency grid does not match the data's mode frequencies"
        )
    level = separable_level_set(model, rho, n_tangential=n)
    if rho == 0.0:
        return BoundaryTrace(
            values=phi.values.copy(), level=level, rho=0.0, h=phi.h
        )
    phi1 = _phase_on_rows(series, np.array([rho], dtype=_LD))[0]  # (n_rows, nxi)
    tangent_spread = float(np.max(np.ptp(phi1, axis=0)))
    if method is None:
        method = "multiplier" if tangent_spread <= 1e-13 else "oscillatory"
    coeff = np.fft.fftshift(np.fft.fft(phi.values))
    if method == "multiplier":
        mult = np.exp(-phi1[0] / phi.h)
        values = np.fft.ifft(np.fft.ifftshift(coeff * mult))
    elif method == "oscillatory":
        nodes = level.points[:, 0]
        if series.tangential_nodes.size != n or np.max(
            np.abs(series.tangential_nodes - nodes)
        ) > 1e-12:
            raise ValueError(
                "tangent-dependent phase requires the series tangential grid "
                "to match the data nodes"
            )
        modes = np.arange(-(n // 2), n - n // 2)
        osc = np.exp(
            2j * math.pi * modes[None, :] * nodes[:, None] / phi.length
        )
        values = (osc * np.exp(-phi1 / phi.h) * coeff[None, :]).sum(axis=1) / n
    else:
        raise ValueError(f"unknown parametrix method {method!r}")
    return BoundaryTrace(values=values, level=level, rho=float(rho), h=phi.h)
