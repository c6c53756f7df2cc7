"""Discrete ground truth: eigenmodes, Poisson boundary-value solves, traces.

Second-order symmetric finite differences throughout: they preserve
self-adjointness and the discrete maximum principle that the verification
suite leans on.  Transverse wells are solved as 1D eigenproblems (with an
exact even-parity reduction for symmetric periodic wells), separable 2D
modes are assembled mode-by-mode, and the Poisson operator is realized as
a boundary-value solve with a far Dirichlet closure whose influence is
certified by an explicit tunneling bound.  That solve has one kernel, in
real arithmetic: conjugate gradients preconditioned by the tangential-mean
operator, which a real FFT along the tangent splits into one Dirichlet
tridiagonal per distinct mode; complex data is solved by linearity as its
real and imaginary parts.  For tangentially constant potentials the
preconditioner is exact and no iteration runs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, zpttrs

from agmonlab.agmon import LevelSet
from agmonlab.halfplane import BoundaryFunction
from agmonlab.models import ModelProblem, potential_grid, transverse_potential

__all__ = [
    "TransverseWell",
    "EigenMode",
    "Field2D",
    "BoundaryTrace",
    "DecayFit",
    "transverse_well_from_model",
    "solve_transverse_modes",
    "assemble_separable_mode",
    "poisson_bvp",
    "trace_at",
    "normal_derivative_trace",
    "decay_fit",
]

_MIN_NODES = 256
_RESOLVABILITY = 4.0  # require h >= this multiple of the grid spacing
_CONTAMINATION_TOL = 1e-6
# poisson_bvp's CG stops once max|A u - b| / max|u| <= _PCG_TOL * ||A||_inf.
# Rounding alone leaves about 2.5e-16 there, so the exact preconditioner of a
# tangentially constant potential passes before the first iteration.
_PCG_TOL = 1e-14
_PCG_MAX_ITER = 200
# A field builds its column splines in blocks of about this many bytes of
# field values, one batched cubic spline per block.  On 128x801 and 512x512
# complex fields (2 cores, one BLAS thread), 128 KiB blocks built in 10-17
# and 37 ms against 14-17 and 40 ms for 512 KiB blocks, with a transient
# peak of 3.6 and 6.0 MiB instead of 9.4 and 12.0 MiB (tracemalloc, kept
# slopes included); 32 KiB blocks took twice as long.
_SPLINE_BLOCK_BYTES = 2**17


# --------------------------------------------------------------------------
# transverse eigenproblems
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TransverseWell:
    """A 1D potential for the transverse eigenproblem.

    ``boundary`` is "periodic" (circle of the given length), "dirichlet",
    or "neumann" (ghost-point reflection); ``lo`` is the left end of the
    coordinate interval.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    length: float
    boundary: str
    lo: float = 0.0

    def __post_init__(self) -> None:
        if self.boundary not in ("periodic", "dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.boundary!r}")
        if self.length <= 0.0:
            raise ValueError("length must be positive")


def transverse_well_from_model(model: ModelProblem) -> TransverseWell:
    """The normal-variable well of a product-form model."""
    profile = transverse_potential(model)
    lo, hi = model.axis_bounds(1)
    boundary = "periodic" if model.periodic[1] else "dirichlet"
    return TransverseWell(
        profile=profile, length=hi - lo, boundary=boundary, lo=lo
    )


@dataclass(frozen=True)
class EigenMode:
    """A normalized discrete eigenpair.

    1D transverse modes carry ``tangential_mode=None``; assembled separable
    2D modes carry the integer tangential index.  ``record`` holds the
    normalization and consistency measurements (norm, equation residual,
    odd-part norm for symmetric wells, resolution ratio h/spacing).
    """

    energy: float
    values: np.ndarray
    axes: tuple[np.ndarray, ...]
    h: float
    tangential_mode: int | None
    record: dict

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)


def _well_nodes(well: TransverseWell, n: int) -> np.ndarray:
    d = well.length / n
    if well.boundary == "periodic":
        return well.lo + (np.arange(n) + 0.5) * d  # cell-centered circle
    return np.linspace(well.lo, well.lo + well.length, n)


def _dense_matrix(well: TransverseWell, h: float, nodes: np.ndarray) -> np.ndarray:
    n = nodes.size
    d = nodes[1] - nodes[0]
    w = np.asarray(well.profile(nodes), dtype=float)
    sub = -(h**2) / d**2
    mat = np.diag(2.0 * (h**2) / d**2 + w)
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = sub
    mat[idx + 1, idx] = sub
    if well.boundary == "periodic":
        mat[0, n - 1] = sub
        mat[n - 1, 0] = sub
    elif well.boundary == "neumann":
        mat[0, 0] = (h**2) / d**2 + w[0]  # symmetric reflection rows
        mat[n - 1, n - 1] = (h**2) / d**2 + w[n - 1]
    return mat


def _even_parity_modes(well: TransverseWell, h: float, n: int):
    """Even-about-zero eigenpairs of a symmetric periodic well.

    The even subspace of the cell-centered periodic problem on [lo, lo+L)
    is exactly the half-interval problem with reflection closure at both
    ends, so the reduced tridiagonal spectrum is a subset of the full one.
    """
    if well.boundary != "periodic":
        raise ValueError("parity reduction requires a periodic well")
    if abs(well.lo + well.length / 2.0) > 1e-12:
        raise ValueError("parity reduction requires a circle centred at 0")
    if n % 2:
        raise ValueError("parity reduction requires an even node count")
    m = n // 2
    d = well.length / n
    half = (np.arange(m) + 0.5) * d
    w = np.asarray(well.profile(half), dtype=float)
    diag = 2.0 * (h**2) / d**2 + w
    diag[0] -= (h**2) / d**2
    diag[m - 1] -= (h**2) / d**2
    off = np.full(m - 1, -(h**2) / d**2)
    vals, vecs = eigh_tridiagonal(diag, off)
    nodes = well.lo + (np.arange(n) + 0.5) * d
    full = np.concatenate([vecs[::-1], vecs], axis=0)  # even extension
    return vals, full, nodes


def solve_transverse_modes(
    problem,
    h: float,
    target: float,
    count: int,
    *,
    n: int = 1024,
    parity: str | None = None,
) -> list[EigenMode]:
    """The `count` discrete eigenpairs nearest `target` for a 1D well.

    `problem` is a TransverseWell or a product-form ModelProblem (its
    normal well is extracted).  parity="even" restricts a symmetric
    periodic well to even modes via the exact half-interval reduction.
    Eigenvalues are sorted by |E(h) - target| with ties broken by lower
    index; each mode is unit-normalized with line element = grid spacing.
    """
    well = (
        transverse_well_from_model(problem)
        if isinstance(problem, ModelProblem)
        else problem
    )
    if n < _MIN_NODES:
        raise ValueError(f"grid of {n} nodes is below the minimum {_MIN_NODES}")
    d = well.length / n if well.boundary == "periodic" else well.length / (n - 1)
    if h < _RESOLVABILITY * d:
        raise ValueError(
            f"resolvability violated: h={h:g} is below {_RESOLVABILITY:g} grid "
            f"spacings ({_RESOLVABILITY * d:g}); refine the grid"
        )
    if count < 1:
        raise ValueError("count must be at least 1")

    if parity == "even":
        vals, vecs, nodes = _even_parity_modes(well, h, n)
    elif parity is None:
        nodes = _well_nodes(well, n)
        vals, vecs = eigh(_dense_matrix(well, h, nodes))
    else:
        raise ValueError(f"unknown parity {parity!r}")

    order = np.argsort(np.abs(vals - target), kind="stable")[:count]
    w = np.asarray(well.profile(nodes), dtype=float)
    spacing = float(nodes[1] - nodes[0])
    modes = []
    for idx in order:
        v = vecs[:, idx] / math.sqrt(spacing * float(np.sum(vecs[:, idx] ** 2)))
        energy = float(vals[idx])
        residual = _transverse_residual(v, w, energy, h, spacing, well.boundary)
        odd = v - v[::-1]
        record = {
            "norm": math.sqrt(spacing * float(np.sum(v**2))),
            "residual": residual,
            "odd_part_norm": math.sqrt(spacing * float(np.sum(odd**2))) / 2.0,
            "resolution": h / spacing,
            "boundary": well.boundary,
            "parity": parity or "full",
        }
        modes.append(
            EigenMode(
                energy=energy,
                values=v,
                axes=(nodes,),
                h=h,
                tangential_mode=None,
                record=record,
            )
        )
    return modes


def _transverse_residual(v, w, energy, h, d, boundary) -> float:
    if boundary == "periodic":
        lap = np.roll(v, 1) - 2.0 * v + np.roll(v, -1)
    else:
        lap = np.zeros_like(v)
        lap[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
        if boundary == "neumann":
            lap[0] = v[1] - v[0]
            lap[-1] = v[-2] - v[-1]
        else:  # ghost nodes one spacing outside hold the zero condition
            lap[0] = -2.0 * v[0] + v[1]
            lap[-1] = v[-2] - 2.0 * v[-1]
    res = -(h**2) / d**2 * lap + (w - energy) * v
    return math.sqrt(d * float(np.sum(res**2)))


def assemble_separable_mode(
    transverse: EigenMode, k: int, model: ModelProblem, *, n_tangential: int = 256
) -> EigenMode:
    """Tensor mode e^{i k x'} v(x_n) on the product grid, unit-normalized.

    The total eigenvalue adds the exact discrete tangential dispersion of
    the assembled grid, so the 2D equation residual stays at rounding
    level; the continuum dispersion h^2 (2 pi k / L')^2 is recorded
    alongside for rate predictions.
    """
    odd = transverse.record.get("odd_part_norm", math.inf)
    if odd > 1e-8:
        raise ValueError(
            f"transverse mode has odd-part norm {odd:.3g} > 1e-8; the "
            "assembled mode would violate the Neumann condition"
        )
    L = model.lengths[0]
    xp = L / n_tangential * np.arange(n_tangential)
    dxp = L / n_tangential
    h = transverse.h
    disp_discrete = 4.0 * h**2 / dxp**2 * math.sin(math.pi * k / n_tangential) ** 2
    disp_continuum = h**2 * (2.0 * math.pi * k / L) ** 2
    values = np.exp(2j * math.pi * k * xp / L)[:, None] * transverse.values[None, :]
    d_n = transverse.spacing[0]
    values = values / math.sqrt(
        dxp * d_n * float(np.sum(np.abs(values) ** 2))
    )
    record = {
        "norm": math.sqrt(dxp * d_n * float(np.sum(np.abs(values) ** 2))),
        "transverse_energy": transverse.energy,
        "tangential_dispersion": disp_discrete,
        "tangential_dispersion_continuum": disp_continuum,
        "odd_part_norm": odd,
        "residual": transverse.record["residual"],
        "boundary": transverse.record["boundary"],
    }
    return EigenMode(
        energy=transverse.energy + disp_discrete,
        values=values,
        axes=(xp, transverse.axes[0]),
        h=h,
        tangential_mode=k,
        record=record,
    )


# --------------------------------------------------------------------------
# Poisson boundary-value solves
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Field2D:
    """A solved field on the tangential-circle x normal-interval grid.

    Off-node traces interpolate each tangential column along the normal by
    a not-a-knot cubic spline.  The first such trace builds the splines of
    every column, block by block, and the field keeps only what a later
    trace cannot recompute bitwise from its values: the slope at the left
    node of every normal interval and the last interval's two leading
    coefficients.  That is the field's own size plus 2 * nx entries, in
    the spline dtype (float64 or complex128).  A field traced only on grid
    nodes never builds them, and a field derived by ``replace`` starts
    without them.
    """

    values: np.ndarray
    tangential_nodes: np.ndarray
    normal_nodes: np.ndarray
    h: float
    model: ModelProblem
    meta: dict

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return (self.tangential_nodes, self.normal_nodes)

    @cached_property
    def _spline_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(c[2] per column, shape (nx, n - 1); the last interval's c[0]
        and c[1] per column, shape (2, nx)) of the columns' splines."""
        xn = self.normal_nodes
        nx = self.values.shape[0]
        dtype = complex if np.iscomplexobj(self.values) else float
        slopes = np.empty((nx, xn.size - 1), dtype=dtype)
        last = np.empty((2, nx), dtype=dtype)
        block = max(1, _SPLINE_BLOCK_BYTES // (xn.size * self.values.itemsize))
        for start in range(0, nx, block):
            cols = slice(start, start + block)
            # a column's spline coefficients do not depend on the other
            # columns batched with it
            c = CubicSpline(xn, np.ascontiguousarray(self.values[cols].T)).c
            slopes[cols] = c[2].T
            last[:, cols] = c[:2, -1]
        slopes.setflags(write=False)
        last.setflags(write=False)
        return slopes, last


def _agmon_depth(model: ModelProblem, far: float) -> float:
    """Weighted arclength from the hypersurface to the far boundary,
    minimized over the tangent (a lower bound on every column's depth)."""
    probe = np.linspace(0.0, model.lengths[0], 65)

    def weight(t):
        vals = potential_grid(model, probe, np.array([t]))[:, 0]
        return math.sqrt(max(float(np.min(vals)) - model.energy, 0.0))

    value, _ = quad(weight, 0.0, far, limit=200)
    return float(value)


def _check_far_boundary(model, far, h, rho_max) -> float:
    depth = _agmon_depth(model, far)
    if depth <= rho_max:
        raise ValueError(
            f"far boundary at {far:g} has weighted depth {depth:.4g} <= the "
            f"deepest requested level {rho_max:g}"
        )
    contamination = math.exp(-2.0 * (depth - rho_max) / h)
    if contamination > _CONTAMINATION_TOL:
        reach = depth + 0.5 * h * math.log(_CONTAMINATION_TOL)
        fix = f"keep the deepest level below {reach:.4g}" if reach > 0 else "reduce h"
        raise ValueError(
            f"far-boundary influence bound {contamination:.3g} exceeds "
            f"{_CONTAMINATION_TOL:g}; move the far boundary out or {fix}"
        )
    return contamination


def poisson_bvp(
    model: ModelProblem,
    phi: BoundaryFunction,
    h: float,
    *,
    far: float,
    n_normal: int,
    rho_max: float = 0.0,
) -> Field2D:
    """Solve (-h^2 Laplace + V - E)u = 0, u(.,0) = phi, u(.,far) = 0.

    The operator must be positive on the strip (V > E everywhere).  The
    5-point system is solved by conjugate gradients preconditioned with the
    same operator for the tangential mean of V - E on each normal row
    (Concus & Golub 1973): that operator block-diagonalizes over tangential
    Fourier modes with the exact discrete dispersion, one Dirichlet
    tridiagonal per mode.  The operator is real and so is the kernel
    (float64 over the nx // 2 + 1 rfft modes): complex data is solved by
    linearity as its real and imaginary parts, and real data gives a field
    whose imaginary part is exactly zero.  For potentials independent of the
    tangent the preconditioner is the exact inverse and its first iterate
    already meets the stopping test (0 iterations); otherwise the iteration
    count is governed by max/min of V - E over its row mean, e.g.
    (1+a)/(1-a) on strip-2d.  The far Dirichlet closure's influence on
    traces at weighted depth <= rho_max is certified by the tunneling factor
    exp(-2 (depth - rho_max)/h).  The metadata records that bound, the
    iteration count and the final true residual max|A u - b| / max|u|; a
    solve that misses the stopping test within the iteration cap raises
    instead of returning.
    """
    L = model.lengths[0]
    if abs(phi.length - L) > 1e-12:
        raise ValueError("boundary data circle length does not match the model")
    if abs(phi.h - h) > 0.0:
        raise ValueError("boundary data h does not match the solve h")
    hi = model.axis_bounds(1)[1]
    if not 0.0 < far <= hi + 1e-12:
        raise ValueError(f"far boundary {far:g} outside the normal range (0, {hi:g}]")
    contamination = _check_far_boundary(model, far, h, rho_max)

    nx = phi.values.size
    xp = L / nx * np.arange(nx)
    xn = np.linspace(0.0, far, n_normal)
    v_grid = potential_grid(model, xp, xn) - model.energy
    if np.min(v_grid) <= 0.0:
        j = np.unravel_index(int(np.argmin(v_grid)), v_grid.shape)
        raise ValueError(
            f"operator is indefinite: V - E = {v_grid[j]:.4g} <= 0 at "
            f"({xp[j[0]]:.4g}, {xn[j[1]]:.4g})"
        )

    cn = h**2 / (xn[1] - xn[0]) ** 2
    cp = h**2 / (L / nx) ** 2
    values, iterations, residual = _mode_pcg(phi.values, v_grid, cn, cp)
    meta = {
        "far": far,
        "contamination_bound": contamination,
        "residual": residual,
        "iterations": iterations,
        "path": "mode-pcg",
        "rho_max": rho_max,
    }
    return Field2D(
        values=values,
        tangential_nodes=xp,
        normal_nodes=xn,
        h=h,
        model=model,
        meta=meta,
    )


def _dirichlet_modes(w: np.ndarray, cn: float, dispersion: np.ndarray):
    """Solver for the Dirichlet tridiagonals cn (2 u_j - u_{j-1} - u_{j+1})
    + (w_j + dispersion[k]) u_j, one per mode k.

    The blocks are stacked mode-major into one symmetric positive definite
    tridiagonal with zero coupling between blocks and factored once as
    L D L^T.  The returned function solves for a complex right-hand side
    of shape (..., modes, w.size), in place when it is C-contiguous; the
    leading axes are independent right-hand sides.
    """
    diag = (2.0 * cn + w)[None, :] + dispersion[:, None]
    off = np.full(diag.shape, -cn)
    off[:, -1] = 0.0
    d, e, info = dpttrf(diag.ravel(), off.ravel()[:-1])
    if info:
        raise ValueError(f"mode operator is not positive definite (info={info})")
    e = e.astype(complex)

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, _ = zpttrs(d, e, rhs.reshape(-1, d.size).T, overwrite_b=1)
        return x.T.reshape(rhs.shape)

    return solve


def _stencil(u: np.ndarray, w: np.ndarray, cn: float, cp: float) -> np.ndarray:
    """The 5-point operator at the interior rows of u, shaped (..., nx, ny)
    with the tangent on axis -2; the first and last normal rows hold the
    Dirichlet values, and w is V - E at the interior rows."""
    out = w * u[..., 1:-1]
    tmp = np.add(u[..., :-2], u[..., 2:])
    tmp *= -cn
    out += tmp
    np.multiply(u[..., 1:-1], 2.0 * (cn + cp), out=tmp)
    out += tmp
    np.add(u[..., :-2, 1:-1], u[..., 2:, 1:-1], out=tmp[..., 1:-1, :])
    np.add(u[..., -1, 1:-1], u[..., 1, 1:-1], out=tmp[..., 0, :])
    np.add(u[..., -2, 1:-1], u[..., 0, 1:-1], out=tmp[..., -1, :])
    tmp *= -cp
    out += tmp
    return out


def _modulus_max(a: np.ndarray) -> float:
    """max |a_re + i a_im| over a real stack of one or two parts."""
    if len(a) == 1:
        return float(max(np.max(a), -np.min(a)))
    return float(np.max(np.hypot(a[0], a[1])))


def _mode_pcg(phi, w, cn, cp):
    """Mode-preconditioned CG for the interior of the Dirichlet strip problem.

    A real kernel: the operator is real, so complex data phi is solved by
    linearity as a stack of its real and imaginary parts (one part when
    phi.imag is exactly zero), with CG inner products summed over the
    parts -- the real part of the complex inner product, so the iterates
    are those of complex CG.  The preconditioner takes rfft along the
    tangent and solves the nx // 2 + 1 distinct mode tridiagonals (the
    dispersion is symmetric under k -> nx - k).  The residual is kept as
    r = A u - b, evaluated on the full array with the data row in place.
    Iteration stops when the true residual max|r| / max|u| (complex
    moduli) is within _PCG_TOL of the operator's infinity norm (a normwise
    backward error, so the test is reachable at every grid size); the
    recursive residual only triggers that check.  Returns (complex values,
    iterations, residual).
    """
    nx, ny = w.shape
    w = w[:, 1:-1]
    if np.any(np.imag(phi)):
        data = np.stack([phi.real, phi.imag])
    else:
        data = np.real(phi)[None]
    dispersion = 4.0 * cp * np.sin(math.pi * np.arange(nx // 2 + 1) / nx) ** 2
    solve = _dirichlet_modes(np.mean(w, axis=0), cn, dispersion)
    bound = _PCG_TOL * (4.0 * (cn + cp) + float(np.max(w)))
    values = np.zeros((len(data), nx, ny))
    values[..., 0] = data

    def relative(r):
        scale = _modulus_max(values)
        return _modulus_max(r) / scale if scale else 0.0

    # b is cn * phi on the first interior row only, so its transform is too
    rhs = np.zeros((len(data), nx // 2 + 1, ny - 2), dtype=complex)
    rhs[..., 0] = cn * np.fft.rfft(data)
    values[..., 1:-1] = np.fft.irfft(solve(rhs), nx, axis=-2)
    del rhs
    r = _stencil(values, w, cn, cp)
    residual = relative(r)
    iterations = 0
    p = np.zeros(values.shape)
    rz = 1.0  # any finite value: p starts at zero
    while residual > bound:
        if iterations == _PCG_MAX_ITER:
            raise ValueError(
                f"conjugate gradients did not converge on the {nx} x {ny} grid: "
                f"residual {residual:.3g} > {bound:.3g} after {iterations} "
                "iterations"
            )
        z = np.fft.irfft(solve(np.fft.rfft(r, axis=-2)), nx, axis=-2)
        rz_next = float(np.vdot(r, z))
        p[..., 1:-1] *= rz_next / rz
        p[..., 1:-1] += z
        rz = rz_next
        q = _stencil(p, w, cn, cp)
        alpha = rz / float(np.vdot(p[..., 1:-1], q))
        values[..., 1:-1] -= alpha * p[..., 1:-1]
        r -= alpha * q
        iterations += 1
        residual = relative(r)
        if residual <= bound:  # confirm on the true residual
            r = _stencil(values, w, cn, cp)
            residual = relative(r)
    del r, p  # before the complex copy of the field
    out = np.empty((nx, ny), dtype=complex)
    out.real = values[0]
    out.imag = values[1] if len(values) == 2 else 0.0
    return out, iterations, residual


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTrace:
    """Field values sampled on one level set, with both metric norms."""

    values: np.ndarray
    level: LevelSet
    rho: float
    h: float
    ambient_norm: float = field(init=False)
    agmon_norm: float = field(init=False)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        w2 = np.abs(values) ** 2
        object.__setattr__(
            self,
            "ambient_norm",
            math.sqrt(float(np.sum(w2 * self.level.ambient_weights))),
        )
        object.__setattr__(
            self,
            "agmon_norm",
            math.sqrt(float(np.sum(w2 * self.level.weighted_weights))),
        )


def _column_values(field2d: Field2D, level: LevelSet) -> np.ndarray:
    xp = field2d.tangential_nodes
    xn = field2d.normal_nodes
    pts = level.points
    idx = np.searchsorted(xp, pts[:, 0] - 1e-9)
    idx = np.clip(idx, 0, xp.size - 1)
    if np.max(np.abs(xp[idx] - pts[:, 0])) > 1e-9:
        raise ValueError(
            "level tangential samples do not coincide with field columns; "
            "build the level with the field's tangential resolution"
        )
    if np.min(pts[:, 1]) < xn[0] - 1e-12 or np.max(pts[:, 1]) > xn[-1] + 1e-12:
        raise ValueError("level leaves the field's normal range")
    heights = pts[:, 1]
    # the node nearest a height is one of the two that bracket it
    above = np.clip(np.searchsorted(xn, heights), 0, xn.size - 1)
    below = np.maximum(above - 1, 0)
    node = np.where(np.abs(xn[below] - heights) <= 1e-12, below, above)
    on_node = np.abs(xn[node] - heights) <= 1e-12
    out = field2d.values[idx, node]
    off = np.flatnonzero(~on_node)
    if off.size == 0:
        return out
    slopes, last = field2d._spline_slopes
    cols = idx[off]
    s = heights[off]
    # each sample on its own column's interval x[k] <= s < x[k + 1]
    k = np.clip(np.searchsorted(xn, s, side="right") - 1, 0, xn.size - 2)
    y0 = field2d.values[cols, k]
    y1 = field2d.values[cols, k + 1]
    d0 = slopes[cols, k]
    d1 = slopes[cols, np.minimum(k + 1, xn.size - 2)]
    dx = np.diff(xn)[k]
    # the interval's leading coefficients in scipy's CubicHermiteSpline
    # arithmetic; the slope at the last node is not kept, so the last
    # interval's come from the cache instead
    slope = (y1 - y0) / dx
    t = (d0 + d1 - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - d0) / dx - t
    final = np.flatnonzero(k == xn.size - 2)
    c0[final] = last[0, cols[final]]
    c1[final] = last[1, cols[final]]
    # summed in ascending powers as scipy's PPoly evaluator does
    d = s - xn[k]
    out[off] = y0 + d0 * d + c1 * (d * d) + c0 * (d * d * d)
    return out


def trace_at(
    field2d: Field2D, level: LevelSet, rho: float | None = None
) -> BoundaryTrace:
    """Restrict a solved field to a level set.

    Samples within 1e-12 of a grid node copy that node's value exactly; the
    others are interpolated along their normal columns by not-a-knot cubic
    splines, each column evaluated at its own height, so flat and curved
    levels take one path.  The first off-node trace of a Field2D builds the
    splines of all its columns (one batched spline per 128 KiB block of
    field values) and the field keeps their left-node slopes, the field's
    size again plus 2 * nx entries; every later trace of that field only
    evaluates, bitwise as a fresh spline would.
    """
    rho_val = level.rho if rho is None else rho
    values = _column_values(field2d, level)
    return BoundaryTrace(values=values, level=level, rho=rho_val, h=field2d.h)


def normal_derivative_trace(
    field2d: Field2D, level: LevelSet, h: float
) -> BoundaryTrace:
    """Centered-difference normal derivative restricted to a level set."""
    xn = field2d.normal_nodes
    d = xn[1] - xn[0]
    if np.min(level.points[:, -1]) < xn[0] + 2.0 * d - 1e-12 or np.max(
        level.points[:, -1]
    ) > xn[-1] - 2.0 * d + 1e-12:
        raise ValueError("level is within two cells of the domain edge")
    grad = np.gradient(field2d.values, xn, axis=1)
    shadow = Field2D(
        values=grad,
        tangential_nodes=field2d.tangential_nodes,
        normal_nodes=xn,
        h=field2d.h,
        model=field2d.model,
        meta=dict(field2d.meta),
    )
    values = _column_values(shadow, level)
    return BoundaryTrace(values=values, level=level, rho=level.rho, h=h)


# --------------------------------------------------------------------------
# decay fits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (rho, log norm) samples."""

    rho: np.ndarray
    log_norms: np.ndarray
    slope: float
    intercept: float
    residual: float
    h: float

    @property
    def slope_times_h(self) -> float:
        return self.slope * self.h


def decay_fit(traces, distances, h: float) -> DecayFit:
    """Fit log(trace norm) against weighted distance over >= 4 samples.

    For zero-section-concentrated data the two-sided decay estimates
    predict slope * h = -1.  Accepts any trace objects carrying
    ambient_norm (BoundaryTrace) or norm (BoundaryFunction).
    """
    rho = np.asarray(distances, dtype=float)
    if len(traces) != rho.size:
        raise ValueError("one distance per trace is required")
    if rho.size < 4 or np.unique(rho).size < 4:
        raise ValueError("at least 4 traces at distinct distances are required")
    norms = np.array(
        [float(getattr(t, "ambient_norm", getattr(t, "norm", 0.0))) for t in traces]
    )
    if np.any(norms <= 0.0):
        raise ValueError("every trace must have a positive norm")
    logs = np.log(norms)
    slope, intercept = np.polyfit(rho, logs, 1)
    fit = slope * rho + intercept
    return DecayFit(
        rho=rho,
        log_norms=logs,
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.max(np.abs(fit - logs))),
        h=h,
    )
