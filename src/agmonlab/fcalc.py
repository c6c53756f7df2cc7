"""Smoothed spectral projections of the tangential boundary operator.

The central object is the operator function f(P) of the discrete
tangential Laplacian P on a collar level circle, where f rises smoothly
from 0 to 1 across the spectral window [w, 2w] set by a window scale w.
The projection is realized two ways: an eigendecomposition path, and a
complex contour-plus-area Cauchy integral against an almost analytic
extension of the window profile.  On top of it sit the exterior-mass
functional of surface traces, finite-difference norms for the depth
derivatives of the projection family, and a mass-profile comparison that
pits the measured per-depth trace mass against the cosh/sinh solution of
its second-order comparison ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import hessenberg

from agmonlab._smooth import polyramp_derivative
from agmonlab.agmon import LevelSet
from agmonlab.models import ModelProblem, potential_grid
from agmonlab.solver import BoundaryTrace, EigenMode

__all__ = [
    "AlmostAnalyticExtension",
    "DerivativeNormReport",
    "MassProfile",
    "almost_analytic_extension",
    "boundary_operator",
    "comparison_solution",
    "derivative_family",
    "expected_circle_eigenvalue",
    "exterior_mass",
    "family_derivative_norms",
    "hs_apply",
    "integrate_comparison_ode",
    "mass_profile_comparison",
    "spectral_calculus",
    "step_profile",
    "surface_level",
    "surface_trace_of_mode",
]

_PROFILE_SUP_NODES = 20001
_SUPPORT_WEIGHT_FLOOR = 1e-6
_DEFAULT_AREA_CELLS = (256, 256)
_DEFAULT_EDGE_CELLS = 1024
_MIN_AREA_CELLS = (32, 16)
_DENSE_LIMIT = 256
# Taylor order of the almost analytic extension in the imaginary part.  On
# the 20 matrices of acceptance criterion 05, with the default cells, the
# worst operator-norm error of hs_apply against spectral_calculus is 6.1e-7
# at order 2, against 2.5e-5 at order 1 and 1.1e-4 at order 3.
_EXTENSION_ORDER = 2
# The Cauchy resolvent sum streams its quadrature nodes in blocks whose
# complex work buffers, x and y of the principal-minor recurrences, hold
# about this many bytes.  Four hs_apply calls (dense n = 96 and 128, level
# circles n = 32 and 48; 2 cores, one BLAS thread) take 0.35 s with 4 MiB
# blocks against 0.45 s with 2 MiB and 0.33 s with 8 MiB (medians of 6);
# one dense n = 128 call peaks at 6.9 MiB in tracemalloc (10.9 MiB with
# 8 MiB blocks), and 8 MiB blocks raised a window-calculus pass's peak RSS
# by 4 MB.
_NODE_BLOCK_BYTES = 2**22
_COMPLEX_BYTES = np.dtype(complex).itemsize
# Rows per panel of the real upper-triangle product and of the coupling
# factor in _block_weighted_sum; panels of 16, 32 and 64 rows timed alike
# on dense n = 96 and 128.
_PANEL_ROWS = 32
_COARSE_GRID_MESSAGE = (
    "quadrature grid too coarse (resolvent condition number check fails)"
)


# --------------------------------------------------------------------------
# window profile
# --------------------------------------------------------------------------


def step_profile(t, order: int = 0):
    """The window rise profile: 0 below 1, 1 above 2, C^4 ramp between.

    ``order`` selects an exact derivative (0..4); derivatives vanish
    identically outside the open transition band (1, 2).
    """
    return polyramp_derivative(np.asarray(t, dtype=float) - 1.0, order)


def _profile_derivative_sup(order: int) -> float:
    grid = np.linspace(1.0, 2.0, _PROFILE_SUP_NODES)
    return float(np.max(np.abs(step_profile(grid, order))))


# --------------------------------------------------------------------------
# almost analytic extension of the window profile
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlmostAnalyticExtension:
    """Taylor-in-imaginary-part extension of the scaled window profile.

    ``value`` extends t -> profile(t / scale) off the real axis with a
    polynomial of degree ``order`` in the imaginary part; ``dbar`` is the
    conjugate-derivative defect, supported in the closed vertical band
    Re z in [scale, 2 scale] and vanishing to order ``order`` on the real
    axis.  ``c_measured`` is the measured constant of the defect bound
    |dbar(z)| <= c_measured * scale^-(order+1) * |Im z|^order.
    """

    order: int
    lam: float
    h: float
    scale: float
    c_measured: float
    x_samples: np.ndarray
    y_samples: np.ndarray
    f_samples: np.ndarray
    dbar_samples: np.ndarray
    meta: dict = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.x_samples, self.y_samples, self.f_samples, self.dbar_samples):
            arr.setflags(write=False)

    def value(self, z) -> np.ndarray:
        """Extension values at complex points (vectorized)."""
        z = np.asarray(z, dtype=complex)
        x = z.real / self.scale
        iy = 1j * (z.imag / self.scale)
        total = np.asarray(step_profile(x, 0), dtype=complex).copy()
        power = np.ones_like(total)
        factorial = 1.0
        for k in range(1, self.order + 1):
            power = power * iy
            factorial *= k
            total += step_profile(x, k) * power / factorial
        return total

    def dbar(self, z) -> np.ndarray:
        """Conjugate-derivative defect at complex points (vectorized)."""
        z = np.asarray(z, dtype=complex)
        x = z.real / self.scale
        iy = 1j * (z.imag / self.scale)
        factorial = math.factorial(self.order)
        return (
            step_profile(x, self.order + 1)
            * iy**self.order
            / (2.0 * factorial * self.scale)
        )


def almost_analytic_extension(lam: float, h: float) -> AlmostAnalyticExtension:
    """Build the order-2 extension for the window [lam*h, 2*lam*h].

    The defect constant is measured as the sup of the third profile
    derivative over the transition band divided by 2 * 2!, and the sampled
    rectangle invariants (real-axis restriction, band support, defect
    bound) are checked eagerly.
    """
    order = _EXTENSION_ORDER
    scale = float(lam) * float(h)
    if not scale > 0.0:
        raise ValueError("the window scale lam * h must be positive")
    sup_derivative = _profile_derivative_sup(order + 1)
    c_measured = sup_derivative / (2.0 * math.factorial(order))

    x_samples = np.linspace(scale, 2.0 * scale, 257)
    y_samples = np.linspace(-scale, scale, 129)
    zz = x_samples[:, None] + 1j * y_samples[None, :]

    ext = AlmostAnalyticExtension(
        order=order,
        lam=float(lam),
        h=float(h),
        scale=scale,
        c_measured=c_measured,
        x_samples=x_samples,
        y_samples=y_samples,
        f_samples=np.zeros_like(zz),
        dbar_samples=np.zeros_like(zz),
        meta={},
    )
    f_samples = ext.value(zz)
    dbar_samples = ext.dbar(zz)

    axis_error = float(
        np.max(np.abs(ext.value(x_samples + 0j) - step_profile(x_samples / scale)))
    )
    if axis_error > 1e-10:
        raise AssertionError(
            f"real-axis restriction deviates by {axis_error:.3g} from the profile"
        )
    bound = c_measured * scale ** -(order + 1) * np.abs(zz.imag) ** order
    excess = np.max(np.abs(dbar_samples) - bound * (1.0 + 1e-12))
    if excess > 0.0:
        raise AssertionError("defect bound violated on the sample rectangle")

    return AlmostAnalyticExtension(
        order=order,
        lam=float(lam),
        h=float(h),
        scale=scale,
        c_measured=c_measured,
        x_samples=x_samples,
        y_samples=y_samples,
        f_samples=f_samples,
        dbar_samples=dbar_samples,
        meta={
            "profile_sup_derivative": sup_derivative,
            "real_axis_error": axis_error,
        },
    )


# --------------------------------------------------------------------------
# boundary operator on level circles
# --------------------------------------------------------------------------


def boundary_operator(
    model: ModelProblem, r: float, h: float, n: int = 64
) -> np.ndarray:
    """Scaled tangential Laplacian on the level circle at ambient depth r.

    All catalogue geometries have straight level circles, so the induced
    line element equals the tangential spacing and the metric weight is 1;
    the matrix is the periodic three-point stencil times h^2.  Symmetric
    positive semidefinite, with Fourier modes as exact eigenvectors.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if n < 4:
        raise ValueError("level circle needs at least 4 nodes")
    limit = model.collar_width_ambient
    if abs(r) > limit + 1e-12:
        raise ValueError(
            f"depth {r:g} outside the ambient collar [-{limit:g}, {limit:g}]"
        )
    spacing = model.lengths[0] / n
    k = h**2 / spacing**2
    mat = np.zeros((n, n))
    idx = np.arange(n)
    mat[idx, idx] = 2.0 * k
    mat[idx, (idx + 1) % n] = -k
    mat[idx, (idx - 1) % n] = -k
    return mat


def expected_circle_eigenvalue(model: ModelProblem, h: float, k: int, n: int) -> float:
    """Exact eigenvalue of :func:`boundary_operator` on Fourier mode k."""
    spacing = model.lengths[0] / n
    return 4.0 * h**2 / spacing**2 * math.sin(math.pi * k / n) ** 2


# --------------------------------------------------------------------------
# functional calculus: eigendecomposition path
# --------------------------------------------------------------------------


def spectral_calculus(P: np.ndarray, ext: AlmostAnalyticExtension) -> np.ndarray:
    """Exact windowed projection through the eigendecomposition of P."""
    _check_symmetric(P)
    w, u = np.linalg.eigh(P)
    f = (u * step_profile(w / ext.scale)) @ u.T
    return 0.5 * (f + f.T)


def _check_symmetric(P: np.ndarray) -> None:
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.all(np.isfinite(P)):
        raise ValueError("operator must be finite")
    scale = max(1.0, float(np.max(np.abs(P))))
    if float(np.max(np.abs(P - P.T))) > 1e-10 * scale:
        raise ValueError("operator must be symmetric")


# --------------------------------------------------------------------------
# functional calculus: Cauchy contour-plus-area path
# --------------------------------------------------------------------------


def _resolvent_weighted_sum(
    diag: np.ndarray, off: np.ndarray, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Real part of the sum of w_j (z_j I - T)^{-1} for a real symmetric
    tridiagonal T, as a float64 matrix.

    The real part is all :func:`hs_apply` keeps, so no path forms the
    imaginary one.  T is split at every off-diagonal below 1e-12 of its
    scale, so the sum is block diagonal and its entries between blocks are
    exactly 0.  A level circle splits at n/2 this way: the Krylov space of
    e_1 is the even subspace.  Each unreduced block adds its upper triangle
    through :func:`_block_weighted_sum`, 1x1 blocks by the closed form; a
    block whose sum is not finite raises a ValueError naming its rows.  The
    lower triangle is mirrored in after the kernel's buffers are freed.
    """
    n = diag.size
    upper = np.zeros((n, n))
    scale = max(
        float(np.max(np.abs(diag))), float(np.max(np.abs(off), initial=0.0)), 1.0
    )
    cuts = np.flatnonzero(np.abs(off) < 1e-12 * scale) + 1
    bounds = [0, *cuts.tolist(), n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo == 1:
            upper[lo, lo] = np.sum(weights / (nodes - diag[lo])).real
        else:
            _block_weighted_sum(
                diag[lo:hi], off[lo : hi - 1], nodes, weights, upper[lo:hi, lo:hi]
            )
        if not np.all(np.isfinite(np.triu(upper[lo:hi, lo:hi]))):
            raise ValueError(
                f"resolvent sum of the tridiagonal block at rows {lo}..{hi - 1} "
                "is not finite"
            )
    upper = np.triu(upper)
    return upper + np.triu(upper, 1).T


def _block_weighted_sum(
    diag: np.ndarray,
    off: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray,
) -> None:
    """Add the real weighted resolvent sum of one unreduced block to the
    upper triangle of ``out``, leaving the entries below it unusable.

    Principal-minor form of the tridiagonal inverse (Meurant 1992): for
    i <= j, R_ij(z) = theta_i(z) phi_{j+1}(z) c_ij / theta_n(z), with theta_i
    the leading i x i and phi_j the trailing (from row j) principal minors
    of z I - T, and c_ij = off_i ... off_{j-1}.  Both minors obey
    division-free recurrences in off^2, and c_ij does not depend on z, so
    the node sum of x_i y_j (x_i = theta_i, y_j = phi_{j+1} / theta_n) is one
    rank-m product that c_ij multiplies once, after the node loop.  The
    recurrences run on T / sigma, with sigma the geometric mean over rows of
    max(|diag_k|, |off_{k-1}|, |off_k|, min |z|), so the minors neither grow
    nor shrink much across the block, graded ones (the Lanczos tridiagonal
    of a spectrum spread over decades) included.  x starts each node at the
    gauge max(1, |z / sigma|)^(-n/2), so on a far node x_i is of order
    |z / sigma|^(i - n/2) and y_j of order |z / sigma|^(n/2 - j - 1).  c_ij
    is a ratio of cumulative products of frexp mantissas times a power of 2,
    so no coupling product underflows before it meets its sum.
    The nodes go in blocks whose x and y together fill ``_NODE_BLOCK_BYTES``;
    both buffers and two rows of scratch are allocated once, every
    recurrence step runs in place, and no n x n temporary is formed.
    Re(w x_i y_j) is the real dot product of (Re wx_i, Im wx_i) with
    (Re y_j, -Im y_j), so each block conjugates y in place and adds one real
    product with inner size 2m, row panel by row panel of ``_PANEL_ROWS``,
    over the columns at or right of each panel's first row only.
    """
    n = diag.size
    coupled = np.abs(np.concatenate([[0.0], off, [0.0]]))
    row_size = np.maximum(np.abs(diag), np.maximum(coupled[:-1], coupled[1:]))
    row_size = np.maximum(row_size, np.min(np.abs(nodes)))
    sigma = float(np.exp(np.mean(np.log(row_size))))
    a = diag / sigma
    b2 = (off / sigma) ** 2
    block = _NODE_BLOCK_BYTES // (2 * (n + 1) * _COMPLEX_BYTES)
    block = min(nodes.size, max(1, block))
    x = np.empty((n + 1, block), dtype=complex)
    y = np.empty((n, block), dtype=complex)
    zs = np.empty(block, dtype=complex)
    tmp = np.empty(block, dtype=complex)
    # the discarded entries below the diagonal may overflow; a non-finite
    # kept entry is caught by the caller
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, nodes.size, block):
            z = nodes[start : start + block]
            xs, ys = x[:, : z.size], y[:, : z.size]
            zb, tb = zs[: z.size], tmp[: z.size]
            np.divide(z, sigma, out=zb)
            gauge = np.abs(zb, out=xs[0].real)
            np.power(np.maximum(gauge, 1.0, out=gauge), -0.5 * n, out=gauge)
            xs[0].imag = 0.0
            np.subtract(zb, a[0], out=xs[1])
            xs[1] *= xs[0]
            for i in range(2, n + 1):
                np.subtract(zb, a[i - 1], out=tb)
                tb *= xs[i - 1]
                np.multiply(xs[i - 2], b2[i - 2], out=xs[i])
                np.subtract(tb, xs[i], out=xs[i])
            np.divide(1.0, xs[n], out=ys[n - 1])
            np.subtract(zb, a[n - 1], out=ys[n - 2])
            ys[n - 2] *= ys[n - 1]
            for j in range(n - 3, -1, -1):
                np.subtract(zb, a[j + 1], out=tb)
                tb *= ys[j + 1]
                np.multiply(ys[j + 2], b2[j + 1], out=ys[j])
                np.subtract(tb, ys[j], out=ys[j])
            left = xs[:n]
            left *= weights[start : start + block]
            np.conjugate(ys, out=ys)
            left, right = left.view(float), ys.view(float)
            for p in range(0, n, _PANEL_ROWS):
                out[p : p + _PANEL_ROWS, p:] += left[p : p + _PANEL_ROWS] @ right[p:].T
        mantissa, exponent = np.frexp(off / sigma)
        prod = np.concatenate([[1.0], np.cumprod(mantissa)])
        power = np.concatenate([[0], np.cumsum(exponent)])
        for p in range(0, n, _PANEL_ROWS):
            rows = slice(p, p + _PANEL_ROWS)
            out[rows, p:] *= np.ldexp(
                prod[None, p:] / (sigma * prod[rows, None]),
                power[None, p:] - power[rows, None],
            )


def _count_below(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Sturm count: the number of eigenvalues below ``shift`` of the real
    symmetric tridiagonal (diag, off), as the negative pivots of the LDL^T
    factorization of T - shift I; a zero pivot divides as a tiny positive
    one, as at a shift just below."""
    count, pivot = 0, 1.0
    for a, b2 in zip(diag.tolist(), [0.0, *(off**2).tolist()]):
        pivot = (a - shift) - b2 / (pivot or np.finfo(float).tiny)
        count += pivot < 0.0
    return count


def hs_apply(
    P: np.ndarray,
    ext: AlmostAnalyticExtension,
    *,
    area_cells: tuple[int, int] = _DEFAULT_AREA_CELLS,
    edge_cells: int = _DEFAULT_EDGE_CELLS,
    spectrum_tol: float = 1e-3,
) -> np.ndarray:
    """Windowed projection of P through the Cauchy integral of the extension.

    The complement profile (1 at the far left, 0 past the window) is
    reproduced exactly by its boundary contour integral plus the area
    integral of the extension defect over the support band; the window
    projection is the identity minus that.  Midpoint quadrature: the area
    grid covers the band with ``area_cells`` cells, the contour runs over
    the enclosing rectangle with ``edge_cells`` cells per edge.  For real
    symmetric P the resolvent obeys R(conj z) = conj R(z) and the extension
    is conjugate-symmetric, so the lower half of the band, the top edge and
    the lower half of the left edge contribute the conjugates of the upper
    half, the bottom edge and the upper half of the left edge: all three
    are folded in as doubled weights (an odd ``edge_cells`` leaves one left
    edge node on the real axis, which keeps its single weight).  The area
    and contour nodes then go through one resolvent sum that returns only
    the real part the projection needs, on the tridiagonal the Hessenberg
    reduction of P gives; every unreduced block of it takes the same
    principal-minor kernel (:func:`_block_weighted_sum`), whatever its
    norm against the window scale.  Positive semidefiniteness is checked
    by a Sturm count on that tridiagonal, so no eigendecomposition of P
    enters the path the spectral oracle checks.  Nodes are accumulated in
    a fixed order, so results are bytewise reproducible.
    """
    P = np.asarray(P, dtype=float)
    _check_symmetric(P)
    n = P.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(
            f"dense resolvent path is limited to {_DENSE_LIMIT} rows, got {n}"
        )
    if n <= 2:
        diag = P.diagonal().copy()
        off = P.diagonal(-1).copy()
        q = np.eye(n)
    else:
        tri, q = hessenberg(P, calc_q=True)
        diag = tri.diagonal().copy()
        off = 0.5 * (tri.diagonal(-1) + tri.diagonal(1))
    if _count_below(diag, off, -1e-8 * max(1.0, float(np.max(np.abs(P))))):
        raise ValueError("operator must be positive semidefinite")
    nx, ny_full = area_cells
    if nx < _MIN_AREA_CELLS[0] or ny_full < 2 * _MIN_AREA_CELLS[1] or edge_cells < 64:
        raise ValueError(_COARSE_GRID_MESSAGE)
    if ny_full % 2:
        raise ValueError("area cell count across the band must be even")

    scale = ext.scale

    # area: defect integral over the upper half of the support band
    ny = ny_full // 2
    dx = scale / nx
    dy = scale / ny
    x_mid = scale + (np.arange(nx) + 0.5) * dx
    y_mid = (np.arange(ny) + 0.5) * dy
    zz = (x_mid[:, None] + 1j * y_mid[None, :]).ravel()
    area_weights = (dx * dy / math.pi) * ext.dbar(zz)

    # contour: enclosing rectangle [-scale, 2 scale] x [-scale, scale];
    # the right edge carries an identically zero integrand and is skipped,
    # the top edge is the reflected bottom edge, and the left edge keeps
    # its midpoints with Im z >= 0
    m = edge_cells
    tx = -scale + (np.arange(m) + 0.5) * (3.0 * scale / m)
    ty = (np.arange((m + 1) // 2) + 0.5 * (1 - m % 2)) * (2.0 * scale / m)
    bottom = tx - 1j * scale
    left = -scale + 1j * ty
    bottom_weights = (6.0 * scale / m) * (1.0 - ext.value(bottom)) / (2j * math.pi)
    left_weights = (
        np.where(ty > 0.0, 2.0, 1.0)
        * (-2j * scale / m)
        * (1.0 - ext.value(left))
        / (2j * math.pi)
    )

    nodes = np.concatenate([zz, bottom, left])
    weights = np.concatenate([2.0 * area_weights, bottom_weights, left_weights])
    complement_mat = _resolvent_weighted_sum(diag, off, nodes, weights)
    result = q @ (np.eye(n) - complement_mat) @ q.T
    result = 0.5 * (result + result.T)

    window = np.linalg.eigvalsh(result)
    if window.min() < -spectrum_tol or window.max() > 1.0 + spectrum_tol:
        raise ValueError(_COARSE_GRID_MESSAGE)
    return result


# --------------------------------------------------------------------------
# exterior mass of a surface trace
# --------------------------------------------------------------------------


def surface_level(model: ModelProblem, n_tangential: int = 64) -> LevelSet:
    """The distinguished hypersurface as a level set at depth zero."""
    length = model.lengths[0]
    xp = length / n_tangential * np.arange(n_tangential)
    points = np.column_stack([xp, np.zeros(n_tangential)])
    spacing = length / n_tangential
    barrier = potential_grid(model, xp, np.zeros(1))[:, 0] - model.energy
    ambient = np.full(n_tangential, spacing)
    weighted = spacing * np.sqrt(np.maximum(barrier, 0.0))
    return LevelSet(
        rho=0.0,
        points=points,
        ambient_weights=ambient,
        weighted_weights=weighted,
        model=model,
    )


def surface_trace_of_mode(mode: EigenMode, model: ModelProblem) -> BoundaryTrace:
    """Surface restriction of an assembled separable mode.

    Values along the normal axis are interpolated to depth zero with a
    cubic spline (the assembled grids are cell-centered and straddle the
    surface).
    """
    if mode.tangential_mode is None or mode.values.ndim != 2:
        raise ValueError("an assembled separable 2D mode is required")
    spline = CubicSpline(mode.axes[1], mode.values, axis=1)
    values = spline(0.0)
    level = surface_level(model, n_tangential=mode.values.shape[0])
    return BoundaryTrace(values=values, level=level, rho=0.0, h=mode.h)


def exterior_mass(
    trace: BoundaryTrace,
    model: ModelProblem,
    lam: float,
    h: float,
    *,
    path: str = "spectral",
) -> float:
    """Mass of a surface trace above the spectral window threshold.

    The quadratic form of the windowed projection of the level-circle
    Laplacian against the trace, in the ambient line element.  ``path``
    selects the eigendecomposition realization ("spectral") or the Cauchy
    integral realization ("hs").  The value lies in [0, ||u||^2].
    """
    if trace.rho != 0.0 or float(np.max(np.abs(trace.level.points[:, -1]))) > 1e-12:
        raise ValueError("trace must sit on the surface level (depth 0)")
    norm_sq = trace.ambient_norm**2
    if norm_sq == 0.0:
        raise ValueError("zero trace carries no mass")
    values = np.asarray(trace.values)
    n = values.size
    expected = model.lengths[0] / n * np.arange(n)
    if float(np.max(np.abs(trace.level.points[:, 0] - expected))) > 1e-9:
        raise ValueError("trace grid does not match the level-circle operator grid")

    operator = boundary_operator(model, 0.0, h, n=n)
    ext = almost_analytic_extension(lam, h)
    if path == "spectral":
        projection = spectral_calculus(operator, ext)
    elif path == "hs":
        projection = hs_apply(operator, ext)
    else:
        raise ValueError(f"unknown path {path!r}; use 'spectral' or 'hs'")
    spacing = model.lengths[0] / n
    mass = float(np.real(np.vdot(values, projection @ values))) * spacing
    if mass < -1e-8 * norm_sq:
        raise AssertionError(f"mass {mass:.3g} fell below the nonnegativity floor")
    mass = max(mass, 0.0)
    if mass > norm_sq * (1.0 + 1e-8):
        raise AssertionError(f"mass {mass:.3g} exceeds the trace norm {norm_sq:.3g}")
    return min(mass, norm_sq)


# --------------------------------------------------------------------------
# depth-derivative norms of the projection family
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeNormReport:
    """Finite-difference depth-derivative norms across a window sweep.

    ``c_values`` renormalizes each norm by scale^order so a derivative
    obeying the expected norm * (lam h)^order = const law gives flat
    values; ``fitted_exponent`` is the log-log slope of norm against lam
    (None when degenerate), compared against ``expected_exponent``.
    """

    order: int
    h: float
    lams: tuple
    norms: tuple
    c_values: tuple
    fitted_exponent: float | None
    expected_exponent: float
    exponent_ok: bool | None
    step: float | None


def derivative_family(
    model: ModelProblem, h: float, n: int
) -> Callable[[float], np.ndarray]:
    """The catalogue depth family: the level-circle operator at depth r."""
    return lambda r: boundary_operator(model, r, h, n=n)


def family_derivative_norms(
    model: ModelProblem,
    lam,
    h: float,
    order: int,
    *,
    family: Callable[[float], np.ndarray] | None = None,
    n: int = 64,
    step: float | None = None,
) -> DerivativeNormReport:
    """Operator norms of depth derivatives of the windowed projection.

    Central finite differences at depth 0 of the projection, by
    :func:`spectral_calculus`, of the operator family (default: the
    catalogue level-circle family, which is constant in depth).  ``lam``
    may be a scalar or a sweep; a sweep additionally fits the log-log
    exponent of the norm in lam and compares it with -order within 0.3.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1, or 2, got {order}")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lams <= 0.0):
        raise ValueError("window multipliers must be positive")
    if family is None:
        family = derivative_family(model, h, n)

    norms = []
    used_step = step
    for one_lam in lams:
        scale = float(one_lam) * h
        if step is None:
            used_step = (3e-4 if order == 1 else 3e-3) * scale
        if used_step <= 0.0 or used_step < 1e-12 * scale:
            raise ValueError(f"step size underflow: {used_step:g}")
        ext = almost_analytic_extension(one_lam, h)

        def project(r: float) -> np.ndarray:
            return spectral_calculus(np.asarray(family(r), dtype=float), ext)

        if order == 0:
            derivative = project(0.0)
        elif order == 1:
            derivative = (project(used_step) - project(-used_step)) / (2.0 * used_step)
        else:
            plus, center, minus = project(used_step), project(0.0), project(-used_step)
            derivative = (plus - 2.0 * center + minus) / used_step**2
        norms.append(float(np.linalg.norm(derivative, 2)))

    norms_arr = np.asarray(norms)
    c_values = tuple(
        float(v * (one_lam * h) ** order) for v, one_lam in zip(norms_arr, lams)
    )
    fitted = None
    ok: bool | None = None
    if lams.size >= 2 and np.all(norms_arr > 1e-300):
        fitted = float(np.polyfit(np.log(lams), np.log(norms_arr), 1)[0])
        ok = bool(abs(fitted - (-float(order))) <= 0.3)
    return DerivativeNormReport(
        order=order,
        h=h,
        lams=tuple(float(v) for v in lams),
        norms=tuple(float(v) for v in norms_arr),
        c_values=c_values,
        fitted_exponent=fitted,
        expected_exponent=-float(order),
        exponent_ok=ok,
        step=used_step if step is None and lams.size == 1 else step,
    )


# --------------------------------------------------------------------------
# mass profile and comparison ODE
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MassProfile:
    """Per-depth windowed trace mass against its comparison solution.

    ``mass_values`` holds h^2 times the windowed quadratic form of the
    depth-r trace; ``comparison_values`` the closed-form cosh/sinh solution
    of the comparison ODE with the measured constants; ``verdict`` the
    measured inequality chain (see :func:`mass_profile_comparison`).
    """

    r_grid: np.ndarray
    mass_values: np.ndarray
    mass_slope_at_zero: float
    comparison_values: np.ndarray
    t_constant: float
    c_constant: float
    verdict: dict
    meta: dict = field(repr=False)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.r_grid) <= 0.0):
            raise ValueError("depth grid must be strictly increasing")
        if np.any(self.mass_values < 0.0):
            raise ValueError("mass values must be nonnegative")
        for arr in (self.r_grid, self.mass_values, self.comparison_values):
            arr.setflags(write=False)


def comparison_solution(
    mass_at_zero: float,
    c_constant: float,
    t_constant: float,
    lam: float,
    h: float,
    trace_norm_sq: float,
    r,
) -> np.ndarray:
    """Closed-form solution of the comparison ODE z'' = (T/h^2) z.

    Initial values z(0) = mass_at_zero and z'(0) = -C h trace_norm_sq / lam
    give z(r) = z(0) cosh(sqrt(T) r / h)
    - (C / sqrt(T)) lam^-1 h^2 trace_norm_sq sinh(sqrt(T) r / h).
    """
    if t_constant <= 0.0:
        raise ValueError(f"comparison constant T = {t_constant:g} is not positive")
    r = np.asarray(r, dtype=float)
    arg = math.sqrt(t_constant) / h * r
    sinh_coeff = c_constant / math.sqrt(t_constant) / lam * h**2 * trace_norm_sq
    return mass_at_zero * np.cosh(arg) - sinh_coeff * np.sinh(arg)


def integrate_comparison_ode(
    mass_at_zero: float,
    slope_at_zero: float,
    t_constant: float,
    h: float,
    r_grid: np.ndarray,
    *,
    steps: int = 8000,
) -> np.ndarray:
    """Fourth-order (classical Runge-Kutta) integration of z'' = (T/h^2) z.

    Integrates segment by segment so values land exactly on the requested
    grid; the step budget is distributed proportionally to segment length.
    The system is linear, y' = M y, so one RK4 step of size dt is the
    matrix S = I + D with D = A + A^2/2 + A^3/6 + A^4/24 and A = dt M (the
    Taylor polynomial the four stages produce), and a segment of m steps
    applies S^m by repeated squaring (:func:`_step_power_increment`).
    """
    if t_constant <= 0.0:
        raise ValueError(f"comparison constant T = {t_constant:g} is not positive")
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid[0] != 0.0:
        raise ValueError("depth grid must start at 0")
    system = np.array([[0.0, 1.0], [t_constant / h**2, 0.0]])
    total = float(r_grid[-1] - r_grid[0])
    out = np.empty(r_grid.size)
    out[0] = mass_at_zero
    y = np.array([mass_at_zero, slope_at_zero])
    for j in range(1, r_grid.size):
        seg = float(r_grid[j] - r_grid[j - 1])
        m = max(1, int(round(steps * seg / total))) if total > 0.0 else 1
        a = (seg / m) * system
        a2 = a @ a
        increment = a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
        y = y + _step_power_increment(increment, m) @ y
        out[j] = y[0]
    return out


def _step_power_increment(d: np.ndarray, m: int) -> np.ndarray:
    """E with (I + d)^m = I + E, by repeated squaring of the increment.

    Carrying I + d as a rounded matrix would round d to the precision of
    the identity, an error that m steps compound (about 1e-12 relative over
    8000 steps); the increments keep their own precision, as the stepwise
    update y + dt * (...) does.
    """
    total = np.zeros_like(d)
    while m:
        if m & 1:
            total = total + d + total @ d
        d = 2.0 * d + d @ d
        m >>= 1
    return total


def _support_subspace_floor(
    operator: np.ndarray,
    scale: float,
    surface_potential: np.ndarray,
    mode_energy: float,
) -> tuple[float, int]:
    """Min of (P + V - E(h)) restricted to the window-support subspace.

    The support subspace is spanned by eigenvectors of P whose window
    weight exceeds the floor; if none qualify, the infimum over the
    abstract support (window edge plus the surface barrier minimum) is
    returned with support dimension 0.
    """
    w, u = np.linalg.eigh(operator)
    weights = step_profile(w / scale)
    keep = weights > _SUPPORT_WEIGHT_FLOOR
    barrier_floor = float(np.min(surface_potential)) - mode_energy
    if not np.any(keep):
        return scale + barrier_floor, 0
    basis = u[:, keep]
    shifted = operator + np.diag(surface_potential - mode_energy)
    block = basis.T @ shifted @ basis
    return float(np.linalg.eigvalsh(block).min()), int(keep.sum())


def mass_profile_comparison(
    mode: EigenMode,
    model: ModelProblem,
    lam: float,
    h: float,
    *,
    n_r: int = 65,
    ode_steps: int = 8000,
) -> MassProfile:
    """Windowed trace mass of a separable mode across the depth window.

    Requires an assembled separable 2D mode with numerically vanishing
    normal derivative on the surface.  Computes the per-depth mass
    h^2 <f(P) u_r, u_r> on [0, lam*h], the comparison solution with the
    measured constants (T from the support-subspace minimum of
    P + V - E(h) at depth 0, C from the first depth-derivative norm of the
    projection family), cross-checks the closed form against fourth-order
    ODE integration, and records the measured inequality chain in
    ``verdict``:

    - ``comparison_holds``: mass >= comparison solution on the grid;
    - ``trivial_bound_holds``: the mass integral is at most
      lam h^3 ||u||^2 times the measured trace growth factor;
    - ``l0_bound_holds``: the surface mass is at most the bound obtained
      by integrating the comparison solution against the mass integral;
    - reported ratios (``exterior_ratio``, ``trace_growth``,
      ``trivial_bound_constant``, ``l0_bound_ratio``) carry the measured
      constants behind each inequality.
    """
    if mode.tangential_mode is None or mode.values.ndim != 2:
        raise ValueError("an assembled separable 2D mode is required")
    if abs(mode.h - h) > 1e-15 * max(1.0, h):
        raise ValueError(f"mode was assembled at h={mode.h:g}, not h={h:g}")
    scale = float(lam) * h
    if not scale > 0.0:
        raise ValueError("the window scale lam * h must be positive")
    limit = model.collar_width_ambient
    if scale > limit + 1e-12:
        raise ValueError(
            f"depth window [0, {scale:g}] leaves the ambient collar "
            f"[0, {limit:g}]; lower the window multiplier or h"
        )

    n_tangential = mode.values.shape[0]
    length = model.lengths[0]
    spacing = length / n_tangential
    spline = CubicSpline(mode.axes[1], mode.values, axis=1)

    surface_values = spline(0.0)
    norm_sq = spacing * float(np.sum(np.abs(surface_values) ** 2))
    if norm_sq == 0.0:
        raise ValueError("mode trace vanishes on the surface")
    derivative_values = spline(0.0, 1)
    neumann_ratio = math.sqrt(
        float(np.sum(np.abs(derivative_values) ** 2))
        / float(np.sum(np.abs(surface_values) ** 2))
    )
    if neumann_ratio > 1e-8:
        raise ValueError(
            f"Neumann precondition violated: normal-derivative ratio "
            f"{neumann_ratio:.3g} exceeds 1e-08 on the surface"
        )

    operator = boundary_operator(model, 0.0, h, n=n_tangential)
    w, u = np.linalg.eigh(operator)
    window_weights = step_profile(w / scale)

    r_grid = np.linspace(0.0, scale, n_r)
    mass_values = np.empty(n_r)
    trace_sq = np.empty(n_r)
    for j, depth in enumerate(r_grid):
        trace = spline(depth)
        coeffs = u.T @ trace
        trace_sq[j] = spacing * float(np.sum(np.abs(trace) ** 2))
        mass_values[j] = h**2 * spacing * float(
            np.sum(window_weights * np.abs(coeffs) ** 2)
        )

    xp = length / n_tangential * np.arange(n_tangential)
    surface_potential = potential_grid(model, xp, np.zeros(1))[:, 0]
    t_constant, support_dim = _support_subspace_floor(
        operator, scale, surface_potential, mode.energy
    )
    if t_constant <= 0.0:
        raise ValueError(
            f"comparison constant T = {t_constant:g} is not positive; the "
            "window overlaps the mode energy"
        )
    derivative_report = family_derivative_norms(model, lam, h, 1, n=n_tangential)
    c_constant = derivative_report.c_values[0]

    comparison_values = comparison_solution(
        mass_values[0], c_constant, t_constant, lam, h, norm_sq, r_grid
    )
    ode_values = integrate_comparison_ode(
        mass_values[0],
        -c_constant * h * norm_sq / lam,
        t_constant,
        h,
        r_grid,
        steps=ode_steps,
    )
    ode_scale = float(np.max(np.abs(comparison_values)))
    ode_agreement = (
        float(np.max(np.abs(comparison_values - ode_values))) / ode_scale
        if ode_scale > 0.0
        else float(np.max(np.abs(ode_values)))
    )

    delta = r_grid[1] - r_grid[0]
    slope = (
        (-3.0 * mass_values[0] + 4.0 * mass_values[1] - mass_values[2]) / (2.0 * delta)
        if n_r >= 3
        else (mass_values[1] - mass_values[0]) / delta
    )

    mass_floor = max(float(np.max(mass_values)), float(np.max(np.abs(comparison_values))))
    comparison_holds = bool(
        np.all(mass_values - comparison_values >= -1e-9 * max(mass_floor, 1e-300))
    )
    integral = float(np.trapezoid(mass_values, r_grid))
    trace_growth = float(np.max(trace_sq)) / norm_sq
    trivial_cap = lam * h**3 * norm_sq * trace_growth
    trivial_bound_holds = bool(integral <= trivial_cap * (1.0 + 1e-9))

    root = math.sqrt(t_constant)
    arg = root * lam
    l0_bound = (
        integral * root / h
        + c_constant / t_constant / lam * h**2 * norm_sq * (math.cosh(arg) - 1.0)
    ) / math.sinh(arg)
    l0_bound_holds = bool(
        comparison_holds and mass_values[0] <= l0_bound * (1.0 + 1e-9)
    )

    verdict = {
        "neumann_ratio": float(neumann_ratio),
        "ode_agreement": float(ode_agreement),
        "comparison_holds": comparison_holds,
        "exterior_ratio": float(lam * mass_values[0] / (h**2 * norm_sq)),
        "trace_growth": trace_growth,
        "traces_monotone": bool(trace_growth <= 1.0 + 1e-12),
        "integral_value": integral,
        "trivial_bound_constant": float(integral / (lam * h**3 * norm_sq)),
        "trivial_bound_holds": trivial_bound_holds,
        "l0_bound": float(l0_bound),
        "l0_bound_ratio": float(lam * l0_bound / (h**2 * norm_sq)),
        "l0_bound_holds": l0_bound_holds,
    }
    meta = {
        "model": model.name,
        "lam": float(lam),
        "h": float(h),
        "n_tangential": n_tangential,
        "tangential_mode": int(mode.tangential_mode),
        "mode_energy": float(mode.energy),
        "model_energy": float(model.energy),
        "spectral_shift_size": float(
            abs(model.energy - mode.energy)
            / (float(np.min(surface_potential)) - model.energy)
        ),
        "support_dim": support_dim,
        "surface_norm_sq": norm_sq,
        "derivative_step": derivative_report.step,
    }
    return MassProfile(
        r_grid=r_grid,
        mass_values=mass_values,
        mass_slope_at_zero=float(slope),
        comparison_values=comparison_values,
        t_constant=float(t_constant),
        c_constant=float(c_constant),
        verdict=verdict,
        meta=meta,
    )
