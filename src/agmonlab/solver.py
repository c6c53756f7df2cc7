"""Discrete ground truth: eigenmodes, Poisson boundary-value solves, traces.

Second-order symmetric finite differences throughout: they preserve
self-adjointness and the discrete maximum principle that the verification
suite leans on.  The normal well of a model with a periodic normal circle
is solved for its even-parity modes only, through the exact half-interval
reduction to one tridiagonal eigenproblem, windowed around a Sturm count
at the target so that only the requested modes are formed; separable 2D
modes are assembled mode-by-mode, and the Poisson operator is realized as
a boundary-value solve with a far Dirichlet closure inside the forbidden
region, whose influence is certified by an explicit tunneling bound on the
model's weighted depth.  That solve has one kernel, in
real arithmetic: conjugate gradients preconditioned by the tangential-mean
operator, which a real FFT along the tangent splits into one real
Dirichlet tridiagonal per distinct mode; complex data is solved by
linearity as its real and imaginary parts, and real data gives a real
field.  For tangentially constant potentials the preconditioner is exact,
no iteration runs and V - E is held as one normal column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from agmonlab._numerics import count_below, cubic_value, hermite_leading, spline_slopes
from agmonlab.agmon import LevelSet
from agmonlab.halfplane import BoundaryFunction
from agmonlab.models import (
    TANGENT_INVARIANT_MODELS,
    ModelProblem,
    potential_grid,
    transverse_potential,
    weighted_depth,
)

__all__ = [
    "EigenMode",
    "Field2D",
    "BoundaryTrace",
    "DecayFit",
    "solve_transverse_modes",
    "assemble_separable_mode",
    "expected_circle_eigenvalue",
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
# The blocked loops -- a field's column splines, and poisson_bvp's stencil,
# inverse transform and complex residual moduli -- take about this many
# bytes of field values per block.  On 128x801 and 512x512 complex fields
# (2 cores, one BLAS thread), 128 KiB spline blocks built in 10-17 and
# 37 ms against 14-17 and 40 ms for 512 KiB blocks, with a transient peak
# of 3.6 and 6.0 MiB instead of 9.4 and 12.0 MiB (tracemalloc, kept slopes
# included); 32 KiB blocks took twice as long.
# The stencil in 128 KiB blocks took 14.5 ms against 32.5 ms in one pass on
# a real 64x24001 stack, and 1.9 against 2.4 ms on a complex 128x801 one.
_BLOCK_BYTES = 2**17


# --------------------------------------------------------------------------
# transverse eigenproblems
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenMode:
    """A normalized discrete eigenpair.

    1D transverse modes carry ``tangential_mode=None``; assembled separable
    2D modes carry the integer tangential index.  ``record`` holds the
    normalization and consistency measurements (norm, equation residual,
    odd-part norm, resolution ratio h/spacing).
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


def _even_parity_modes(
    profile, lo: float, length: float, h: float, n: int, target: float, count: int
):
    """The `count` even-about-zero eigenpairs nearest `target` of a
    symmetric periodic well, sorted by |E - target| with ties to the lower
    index.

    The even subspace of the cell-centered periodic problem on [lo, lo+L)
    is exactly the half-interval problem with reflection closure at both
    ends, so the reduced tridiagonal spectrum is a subset of the full one.
    The nearest `count` eigenvalues have indices within `count` of the
    Sturm count at `target`, so only that window is computed (bisection and
    inverse iteration, one index of slack each side for a count misplaced
    by rounding) and only its vectors are extended, in O(n * count) memory.
    """
    m = n // 2
    d = length / n
    half = (np.arange(m) + 0.5) * d
    w = np.asarray(profile(half), dtype=float)
    diag = 2.0 * (h**2) / d**2 + w
    diag[0] -= (h**2) / d**2
    diag[m - 1] -= (h**2) / d**2
    off = np.full(m - 1, -(h**2) / d**2)
    below = count_below(diag, off, target)
    window = (max(0, below - count - 1), min(m, below + count + 1) - 1)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=window)
    order = np.argsort(np.abs(vals - target), kind="stable")[:count]
    vals, vecs = vals[order], vecs[:, order]
    nodes = lo + (np.arange(n) + 0.5) * d
    full = np.concatenate([vecs[::-1], vecs], axis=0)  # even extension
    return vals, full, nodes


def solve_transverse_modes(
    model: ModelProblem,
    h: float,
    target: float,
    count: int,
    *,
    n: int = 1024,
    parity: str = "even",
) -> list[EigenMode]:
    """The `count` even-parity eigenpairs nearest `target` of the model's
    normal well.

    The well is the model's transverse potential on its periodic normal
    circle, which must be centred at 0; its even modes come from the exact
    half-interval reduction on n cell-centred nodes (n even), and only the
    modes near `target` are computed, in O(n) memory per mode.  "even" is
    the only parity.  Eigenvalues are sorted by |E(h) - target| with ties broken
    by lower index; each mode is unit-normalized with line element = grid
    spacing.
    """
    if parity != "even":
        raise ValueError(f"unknown parity {parity!r}; only 'even' is supported")
    profile = transverse_potential(model)
    lo, hi = model.axis_bounds(1)
    if not model.periodic[1]:
        raise ValueError(
            f"model {model.name!r} has no periodic normal axis; the even-parity "
            "reduction needs a normal circle"
        )
    length = hi - lo
    if abs(lo + length / 2.0) > 1e-12:
        raise ValueError("parity reduction requires a circle centred at 0")
    if n < _MIN_NODES:
        raise ValueError(f"grid of {n} nodes is below the minimum {_MIN_NODES}")
    if n % 2:
        raise ValueError("parity reduction requires an even node count")
    d = length / n
    if h < _RESOLVABILITY * d:
        raise ValueError(
            f"resolvability violated: h={h:g} is below {_RESOLVABILITY:g} grid "
            f"spacings ({_RESOLVABILITY * d:g}); refine the grid"
        )
    if count < 1:
        raise ValueError("count must be at least 1")

    vals, vecs, nodes = _even_parity_modes(profile, lo, length, h, n, target, count)
    w = np.asarray(profile(nodes), dtype=float)
    spacing = float(nodes[1] - nodes[0])
    modes = []
    for idx in range(vals.size):
        v = vecs[:, idx] / math.sqrt(spacing * float(np.sum(vecs[:, idx] ** 2)))
        energy = float(vals[idx])
        odd = v - v[::-1]
        record = {
            "norm": math.sqrt(spacing * float(np.sum(v**2))),
            "residual": _transverse_residual(v, w, energy, h, spacing),
            "odd_part_norm": math.sqrt(spacing * float(np.sum(odd**2))) / 2.0,
            "resolution": h / spacing,
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


def _transverse_residual(v, w, energy, h, d) -> float:
    """L2 residual of the periodic 3-point eigen-equation."""
    lap = np.roll(v, 1) - 2.0 * v + np.roll(v, -1)
    res = -(h**2) / d**2 * lap + (w - energy) * v
    return math.sqrt(d * float(np.sum(res**2)))


def expected_circle_eigenvalue(model: ModelProblem, h: float, k: int, n: int) -> float:
    """Exact eigenvalue on Fourier mode k of the periodic 3-point h^2
    Laplacian on n nodes of the tangential circle (the level-circle
    operator, ``fcalc.boundary_operator``)."""
    spacing = model.lengths[0] / n
    return 4.0 * h**2 / spacing**2 * math.sin(math.pi * k / n) ** 2


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
    disp_discrete = expected_circle_eigenvalue(model, h, k, n_tangential)
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
    a not-a-knot cubic spline (the ``_numerics`` port, bitwise scipy's
    ``CubicSpline``).  The first such trace builds the splines of
    every column, block by block, and the field keeps only what a later
    trace cannot recompute bitwise from its values: the knot slopes of
    every column.  That is the field's own size, in the dtype of the
    values: float64 for a solve of real data (data whose imaginary part is
    exactly zero), complex128 for complex data.  A field traced only on
    grid nodes never builds them, and a field derived by ``replace``
    starts without them.
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
    def _spline_slopes(self) -> np.ndarray:
        """The knot slopes of the columns' splines, shape (nx, n)."""
        xn = self.normal_nodes
        nx = self.values.shape[0]
        dtype = complex if np.iscomplexobj(self.values) else float
        slopes = np.empty((nx, xn.size), dtype=dtype)
        block = max(1, _BLOCK_BYTES // (xn.size * self.values.itemsize))
        for start in range(0, nx, block):
            cols = slice(start, start + block)
            # a column's spline slopes do not depend on the other columns
            # batched with it
            slopes[cols] = spline_slopes(xn, np.ascontiguousarray(self.values[cols].T)).T
        slopes.setflags(write=False)
        return slopes


def _check_far_boundary(model, far, h, rho_max) -> float:
    edge = model.forbidden_extent
    if not 0.0 < far <= edge + 1e-12:
        hi = model.axis_bounds(1)[1]
        if far <= 0.0 or edge >= hi:
            raise ValueError(f"far boundary {far:g} outside the normal range (0, {hi:g}]")
        raise ValueError(
            f"far boundary {far:g} lies past the forbidden edge x_n = {edge:.4g} "
            "where V - E reaches 0; beyond it the operator is indefinite"
        )
    depth = weighted_depth(model, far)
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
    linearity as its real and imaginary parts into a complex128 field, and
    data whose imaginary part is exactly zero gives a float64 field.  For
    potentials independent of the tangent (``TANGENT_INVARIANT_MODELS``),
    V - E is evaluated on one normal column and read through a broadcast
    view, the preconditioner is the exact inverse and its first iterate
    already meets the stopping test (0 iterations); otherwise the iteration
    count is governed by max/min of V - E over its row mean, e.g.
    (1+a)/(1-a) on strip-2d.  The far Dirichlet closure must lie inside the
    forbidden region, far <= ``model.forbidden_extent``, and its influence on
    traces at weighted depth <= rho_max is certified by the tunneling factor
    exp(-2 (depth - rho_max)/h), with depth from ``models.weighted_depth``.  The metadata records that bound, the
    iteration count and the final true residual max|A u - b| / max|u|; a
    solve that misses the stopping test within the iteration cap raises
    instead of returning.

    Memory, in fields of nx * n_normal float64: on the direct path
    (0 iterations) with real data the solve peaks at about 1.5 fields (1.60
    to 1.76 traced at nx = 64), first the real mode factor (one field at
    nx // 2 + 1 modes) and one unit-row solve per mode (half a field), then
    that solve and the field; the residual check runs block by block, and
    only the returned field is kept.  Complex data shares the unit-row
    solve and assembles the complex field from its two real parts, about
    4.0 fields in all.  A tangent-dependent V - E is held on the full grid,
    and iterating adds the residual, CG's vectors and a second factor of
    the preconditioner.
    """
    L = model.lengths[0]
    if abs(phi.length - L) > 1e-12:
        raise ValueError("boundary data circle length does not match the model")
    if abs(phi.h - h) > 0.0:
        raise ValueError("boundary data h does not match the solve h")
    contamination = _check_far_boundary(model, far, h, rho_max)

    nx = phi.values.size
    xp = L / nx * np.arange(nx)
    xn = np.linspace(0.0, far, n_normal)
    # a tangent-invariant V - E is one column, read through a broadcast view
    columns = xp[:1] if model.name in TANGENT_INVARIANT_MODELS else xp
    v_grid = potential_grid(model, columns, xn)
    v_grid -= model.energy
    v_grid = np.broadcast_to(v_grid, (nx, n_normal))
    if np.min(v_grid) <= 0.0:
        j = np.unravel_index(int(np.argmin(v_grid)), v_grid.shape)
        raise ValueError(
            f"operator is indefinite: V - E = {v_grid[j]:.4g} <= 0 at "
            f"({xp[j[0]]:.4g}, {xn[j[1]]:.4g})"
        )

    cn = h**2 / (xn[1] - xn[0]) ** 2
    cp = h**2 / (L / nx) ** 2
    parts, iterations, residual = _mode_pcg(phi.values, v_grid, cn, cp)
    if len(parts) == 1:
        values = parts[0]
    else:
        values = np.empty((nx, n_normal), dtype=complex)
        values.real, values.imag = parts
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
    L D L^T, in place of the assembled diagonals.  The factor is real, and
    so is the returned function: it solves for a real right-hand side of
    shape (..., modes, w.size), in place when it is C-contiguous, and the
    leading axes are independent right-hand sides (the real and imaginary
    parts of transformed data among them).  It holds the factor (about one
    field) until it is dropped.
    """
    diag = (2.0 * cn + w)[None, :] + dispersion[:, None]
    off = np.full(diag.shape, -cn)
    off[:, -1] = 0.0
    d, e, info = dpttrf(diag.ravel(), off.ravel()[:-1], overwrite_d=1, overwrite_e=1)
    if info:
        raise ValueError(f"mode operator is not positive definite (info={info})")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, _ = dpttrs(d, e, rhs.reshape(-1, d.size).T, overwrite_b=1)
        return x.T.reshape(rhs.shape)

    return solve


def _stencil_blocks(
    u: np.ndarray, w: np.ndarray, cn: float, cp: float, out: np.ndarray | None = None
):
    """The 5-point operator at the interior rows of u, shaped (..., nx, ny)
    with the tangent on axis -2, one block of whole normal columns
    u[..., i, :] at a time; the first and last normal rows hold the
    Dirichlet values, and w is V - E at the interior rows.

    Yields each block's values, written to its columns of ``out`` (u's
    shape less the two Dirichlet rows) when given, else to one block of
    scratch that the next block overwrites.  A block holds about
    _BLOCK_BYTES of u, so the scratch is one block and each block's columns
    and their neighbours stay in cache; every entry takes the same float
    operations in the same order whatever the block size.
    """
    nx = u.shape[-2]
    step = max(1, _BLOCK_BYTES // (u[..., 0, :].size * u.itemsize))
    shape = u.shape[:-2] + (min(step, nx), u.shape[-1] - 2)
    scratch = np.empty(shape)
    own = np.empty(shape) if out is None else None
    for a in range(0, nx, step):
        b = min(a + step, nx)
        o = own[..., : b - a, :] if out is None else out[..., a:b, :]
        t = scratch[..., : b - a, :]
        c = u[..., a:b, 1:-1]
        np.multiply(w[a:b], c, out=o)
        np.add(u[..., a:b, :-2], u[..., a:b, 2:], out=t)
        t *= -cn
        o += t
        np.multiply(c, 2.0 * (cn + cp), out=t)
        o += t
        # tangential neighbours; the circle closes at columns 0 and nx - 1
        lo, hi = max(a, 1), min(b, nx - 1)
        np.add(
            u[..., lo - 1 : hi - 1, 1:-1],
            u[..., lo + 1 : hi + 1, 1:-1],
            out=t[..., lo - a : hi - a, :],
        )
        if a == 0:
            np.add(u[..., -1, 1:-1], u[..., 1, 1:-1], out=t[..., 0, :])
        if b == nx:
            np.add(u[..., -2, 1:-1], u[..., 0, 1:-1], out=t[..., -1, :])
        t *= -cp
        o += t
        yield o


def _stencil(
    u: np.ndarray, w: np.ndarray, cn: float, cp: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The 5-point operator of :func:`_stencil_blocks` on the whole of u,
    written to ``out`` when given."""
    if out is None:
        out = np.empty(u.shape[:-1] + (u.shape[-1] - 2,))
    for _ in _stencil_blocks(u, w, cn, cp, out):
        pass
    return out


def _modulus_max(a: np.ndarray) -> float:
    """max |a_re + i a_im| over a real stack of one or two parts, shaped
    (parts, nx, ...); two parts are taken in blocks of whole columns
    a[:, i], about _BLOCK_BYTES per part, so no field-sized modulus is
    formed."""
    if len(a) == 1:
        return float(max(np.max(a), -np.min(a)))
    step = max(1, _BLOCK_BYTES // a[0, 0].nbytes)
    # np.max, not max(): a NaN in any block must reach the stopping test
    blocks = range(0, a.shape[1], step)
    return float(np.max([np.max(np.hypot(*a[:, i : i + step])) for i in blocks]))


def _residual_max(u: np.ndarray, w: np.ndarray, cn: float, cp: float) -> float:
    """max |A u - b| over the interior, block by block of the stencil, so no
    field-sized residual is formed; bitwise _modulus_max(_stencil(...))."""
    blocks = _stencil_blocks(u, w, cn, cp)
    return float(np.max([_modulus_max(o) for o in blocks]))


def _mode_pcg(phi, w, cn, cp):
    """Mode-preconditioned CG for the interior of the Dirichlet strip problem.

    A real kernel: the operator is real, so complex data phi is solved by
    linearity as a stack of its real and imaginary parts (one part when
    phi.imag is exactly zero), with CG inner products summed over the
    parts -- the real part of the complex inner product, so the iterates
    are those of complex CG.  The preconditioner takes rfft along the
    tangent and solves the nx // 2 + 1 distinct mode tridiagonals (the
    dispersion is symmetric under k -> nx - k) on the real and imaginary
    rows of the transform, with one real factor.  The residual is kept as
    r = A u - b, evaluated on the full array with the data row in place.
    Iteration stops when the true residual max|r| / max|u| (complex
    moduli) is within _PCG_TOL of the operator's infinity norm (a normwise
    backward error, so the test is reachable at every grid size); the
    recursive residual only triggers that check.

    The data enters b only on the first interior row, so the first iterate
    needs one real solve per mode, g_k = T_k^{-1} e_0, half a field at
    nx // 2 + 1 modes whatever the data.  The factor is dropped before the
    field is allocated, and the field is synthesized a block of normal
    columns at a time as irfft(cn rfft(phi)_k g_k).  Its true residual is
    taken block by block of the stencil, so a first iterate that meets the
    test forms no residual array; only one that misses it forms r, factors
    again and iterates.  Returns (the real parts, shaped (parts, nx, ny),
    iterations, residual).
    """
    nx, ny = w.shape
    w = w[:, 1:-1]
    if np.any(np.imag(phi)):
        data = np.stack([phi.real, phi.imag])
    else:
        data = np.real(phi)[None]
    modes = nx // 2 + 1
    dispersion = 4.0 * cp * np.sin(math.pi * np.arange(modes) / nx) ** 2
    row_mean = np.mean(w, axis=0)
    bound = _PCG_TOL * (4.0 * (cn + cp) + float(np.max(w)))

    def relative(r):
        scale = _modulus_max(values)
        return _modulus_max(r) / scale if scale else 0.0

    solve = _dirichlet_modes(row_mean, cn, dispersion)
    unit = np.zeros((modes, ny - 2))
    unit[:, 0] = 1.0
    unit = solve(unit)
    del solve  # the factor goes before the field is allocated
    b = cn * np.fft.rfft(data)  # the transform of b, nonzero on one row
    values = np.zeros((len(data), nx, ny))
    values[..., 0] = data
    step = max(1, _BLOCK_BYTES // b.nbytes)
    block = np.empty(b.shape + (min(step, ny - 2),), dtype=complex)
    for a in range(0, ny - 2, step):
        spectrum = block[..., : min(step, ny - 2 - a)]
        np.multiply(b[..., None], unit[:, a : a + step], out=spectrum)
        columns = values[..., 1 + a : 1 + a + spectrum.shape[-1]]
        np.fft.irfft(spectrum, nx, axis=-2, out=columns)
    del unit, block
    scale = _modulus_max(values)
    residual = _residual_max(values, w, cn, cp) / scale if scale else 0.0
    iterations = 0
    if residual <= bound:
        return values, iterations, residual
    r = _stencil(values, w, cn, cp)
    solve = _dirichlet_modes(row_mean, cn, dispersion)
    p = np.zeros(values.shape)
    q = np.empty(r.shape)
    z = np.empty(r.shape)
    # r's transform; z is free until it is solved, so z's memory holds the
    # transform's real or imaginary part for the real factor
    spectrum = np.empty((len(data), nx // 2 + 1, ny - 2), dtype=complex)
    part = z.reshape(-1)[: spectrum.size].reshape(spectrum.shape)
    rz = 1.0  # any finite value: p starts at zero
    while residual > bound:
        if iterations == _PCG_MAX_ITER:
            raise ValueError(
                f"conjugate gradients did not converge on the {nx} x {ny} grid: "
                f"residual {residual:.3g} > {bound:.3g} after {iterations} "
                "iterations"
            )
        np.fft.rfft(r, axis=-2, out=spectrum)
        for rows in (spectrum.real, spectrum.imag):
            part[...] = rows
            rows[...] = solve(part)
        np.fft.irfft(spectrum, nx, axis=-2, out=z)
        rz_next = float(np.einsum("ijk,ijk->", r, z))
        p[..., 1:-1] *= rz_next / rz
        p[..., 1:-1] += z
        rz = rz_next
        _stencil(p, w, cn, cp, out=q)
        alpha = rz / float(np.einsum("ijk,ijk->", p[..., 1:-1], q))
        np.multiply(p[..., 1:-1], alpha, out=z)  # z is free until the next solve
        values[..., 1:-1] -= z
        q *= alpha
        r -= q
        iterations += 1
        residual = relative(r)
        if residual <= bound:  # confirm on the true residual
            residual = relative(_stencil(values, w, cn, cp, out=r))
    return values, iterations, residual


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
    slopes = field2d._spline_slopes
    cols = idx[off]
    s = heights[off]
    # each sample on its own column's interval x[k] <= s < x[k + 1]
    k = np.clip(np.searchsorted(xn, s, side="right") - 1, 0, xn.size - 2)
    y0 = field2d.values[cols, k]
    d0 = slopes[cols, k]
    c0, c1 = hermite_leading(
        y0, field2d.values[cols, k + 1], d0, slopes[cols, k + 1], np.diff(xn)[k]
    )
    out[off] = cubic_value((c0, c1, d0, y0), s - xn[k])
    return out


def trace_at(field2d: Field2D, level: LevelSet) -> BoundaryTrace:
    """Restrict a solved field to a level set.

    Samples within 1e-12 of a grid node copy that node's value exactly; the
    others are interpolated along their normal columns by not-a-knot cubic
    splines, each column evaluated at its own height, so flat and curved
    levels take one path.  The first off-node trace of a Field2D builds the
    splines of all its columns (one batched spline per 128 KiB block of
    field values) and the field keeps their knot slopes, the field's size
    again; every later trace of that field only evaluates, bitwise as a
    fresh spline would.
    """
    values = _column_values(field2d, level)
    return BoundaryTrace(values=values, level=level, rho=level.rho, h=field2d.h)


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
