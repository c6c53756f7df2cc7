"""Discrete ground truth: eigenmodes, Poisson boundary-value solves, traces.

Second-order symmetric finite differences throughout: they preserve
self-adjointness and the discrete maximum principle that the verification
suite leans on.  The normal well of a model with a periodic normal circle
is solved for its even-parity modes only, through the exact half-interval
reduction to one tridiagonal eigenproblem, windowed around a Sturm count
at the target so that only the requested modes are formed; a separable 2D
mode is held as its two factors, and the Poisson operator is realized as
a boundary-value solve with a far Dirichlet closure inside the forbidden
region, whose influence is certified by an explicit tunneling bound on the
model's weighted depth.  That solve has one kernel, in
real arithmetic: conjugate gradients preconditioned by the tangential-mean
operator, which a real FFT along the tangent splits into one real
Dirichlet tridiagonal per distinct mode; complex data is solved by
linearity as its real and imaginary parts, and real data gives a real
field.  For tangentially constant potentials the preconditioner is exact:
V - E is held as one normal column, no iteration runs, the field is
held only in the modes its data carries and on the rows its certified
traces read, and its residual is checked on the mode systems it solved.
A field is its tangential modes and its Dirichlet data whichever path
solved it (conjugate gradients transforms its finished field once), and
every trace reads the data on row 0 and synthesizes its other samples
from the modes at their own columns, through the splines of the mode
columns between normal nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from agmonlab._numerics import (
    count_below,
    cubic_value,
    hermite_leading,
    level_norm,
    spline_slopes,
)
from agmonlab.agmon import LevelSet, separable_level_height
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
    "SeparableMode",
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
# poisson_bvp's residual test: max|A u - b| / max|u| <= _PCG_TOL * ||A||_inf,
# where CG stops and which a mode-direct solve must meet.  Rounding alone
# leaves about 2.5e-16 there, so the exact preconditioner of a tangentially
# constant potential passes without iterating.
_PCG_TOL = 1e-14
_PCG_MAX_ITER = 200
# The blocked loops -- the splines of a field's mode columns, and
# poisson_bvp's mode factor and unit-row solve, stencil, mode residual and
# complex moduli -- take about this many bytes per block.  On 128x801 and
# 512x512 complex fields (2 cores, one BLAS thread), 128 KiB blocks of
# column splines built in 10-17 and 37 ms against 14-17 and 40 ms for
# 512 KiB blocks, with a transient peak of 3.6 and 6.0 MiB instead of 9.4
# and 12.0 MiB (tracemalloc, kept slopes included); 32 KiB blocks took
# twice as long.  That was measured on field columns; the mode columns of
# every mode take about as many bytes.
# The stencil in 128 KiB blocks took 14.5 ms against 32.5 ms in one pass on
# a real 64x24001 stack, and 1.9 against 2.4 ms on a complex 128x801 one.
_BLOCK_BYTES = 2**17
# A not-a-knot spline's end condition reaches about (2 - sqrt 3)^k ~ 0.268^k
# of the way k knots in (de Boor, A Practical Guide to Splines, 1978, ch.
# IV): 0.268^64 ~ 1e-37, far below rounding.  So a mode-direct solve holds
# rows this far past the interval of its deepest certified level, whose
# traces their splines alone give bitwise as every row's would (on the
# 512 x 512 torus-decay grid they already do from 24 rows on).
_SPLINE_REACH = 64


# --------------------------------------------------------------------------
# transverse eigenproblems
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenMode:
    """A normalized discrete transverse eigenpair on the normal nodes
    ``axes[0]``.  ``record`` holds its consistency measurements: the L2
    residual of the periodic 3-point eigen-equation (``residual``) and the
    norm of its odd part (``odd_part_norm``), which
    :func:`assemble_separable_mode` requires to vanish.
    """

    energy: float
    values: np.ndarray
    axes: tuple[np.ndarray, ...]
    h: float
    record: dict

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@dataclass(frozen=True)
class SeparableMode:
    """A separable torus mode e^{2 pi i k x' / L} v(x_n), unit in the product
    grid's L^2 norm, held as its two factors and never formed: ``profile``,
    the unit transverse mode v over sqrt(L) on ``normal_nodes``, and
    ``phase``, the row e^{2 pi i k x' / L} on phase.size uniform nodes.
    ``energy`` is the transverse energy plus the circle's exact discrete
    dispersion at k; the mode carries no metadata."""

    energy: float
    profile: np.ndarray
    phase: np.ndarray
    normal_nodes: np.ndarray
    h: float

    def __post_init__(self) -> None:
        self.profile.setflags(write=False)
        self.phase.setflags(write=False)


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
            "residual": _transverse_residual(v, w, energy, h, spacing),
            "odd_part_norm": math.sqrt(spacing * float(np.sum(odd**2))) / 2.0,
        }
        modes.append(
            EigenMode(
                energy=energy,
                values=v,
                axes=(nodes,),
                h=h,
                record=record,
            )
        )
    return modes


def _transverse_residual(v, w, energy, h, d) -> float:
    """L2 residual of the periodic 3-point eigen-equation."""
    lap = np.roll(v, 1) - 2.0 * v + np.roll(v, -1)
    res = -(h**2) / d**2 * lap + (w - energy) * v
    return math.sqrt(d * float(np.sum(res**2)))


def expected_circle_eigenvalue(
    model: ModelProblem, h: float, k: int | np.ndarray, n: int
) -> float | np.ndarray:
    """Exact eigenvalue mu_k = 4 (h / dx)^2 sin^2(pi k / n) on Fourier mode
    k of the periodic 3-point h^2 Laplacian on n nodes of the tangential
    circle (the level-circle operator, ``fcalc.boundary_operator``, and the
    tangential part of ``poisson_bvp``'s operator).  ``k`` may be an integer
    or an array of them, any integers, so ``np.arange(n)`` gives the
    eigenvalues in ``np.fft`` order; the one rule for the dispersion."""
    spacing = model.lengths[0] / n
    cp = h**2 / spacing**2
    return 4.0 * cp * np.sin(np.pi * np.asarray(k) / n) ** 2


def assemble_separable_mode(
    transverse: EigenMode, k: int, model: ModelProblem, *, n_tangential: int = 256
) -> SeparableMode:
    """Tensor mode e^{i k x'} v(x_n) on the product grid, unit-normalized,
    as its two factors (:class:`SeparableMode`).

    The total eigenvalue adds the exact discrete tangential dispersion of
    the assembled grid, so the 2D equation residual stays at rounding
    level.  The transverse mode's odd part must vanish, or the assembled
    mode would violate the Neumann condition on the surface.
    """
    odd = transverse.record.get("odd_part_norm", math.inf)
    if odd > 1e-8:
        raise ValueError(
            f"transverse mode has odd-part norm {odd:.3g} > 1e-8; the "
            "assembled mode would violate the Neumann condition"
        )
    L = model.lengths[0]
    xp = L / n_tangential * np.arange(n_tangential)
    h = transverse.h
    disp_discrete = float(expected_circle_eigenvalue(model, h, k, n_tangential))
    return SeparableMode(
        energy=transverse.energy + disp_discrete,
        profile=transverse.values / math.sqrt(L),
        phase=np.exp(2j * math.pi * k * xp / L),
        normal_nodes=transverse.axes[0],
        h=h,
    )


# --------------------------------------------------------------------------
# Poisson boundary-value solves
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Field2D:
    """A solved field on the tangential-circle x normal-interval grid, held
    as its tangential modes.

    ``spectrum[p, i, j]`` is the rfft along the tangent of real part p of
    the field (one part for a solve of real data, data whose imaginary
    part is exactly zero; two, the real and imaginary parts, for complex
    data) at mode ``modes[i]`` on row j of ``normal_nodes``; every other
    mode of the rfft is zero.  ``boundary[p]`` is part p of the Dirichlet
    data a solve was given, row 0 of the field, which the synthesis of the
    held modes gives only to rounding; a field derived by ``replace`` with
    another spectrum passes None, and its row 0 is then synthesized like
    every other row.  A solve on a tangent-invariant model holds only the
    modes its data carries and only the rows that its traces at weighted
    depth <= ``meta["rho_max"]`` read, so its ``normal_nodes`` may end
    short of the far boundary (see :func:`poisson_bvp`); a trace deeper
    than that raises.

    Every read goes through ``boundary`` on row 0 and one synthesis
    elsewhere (:func:`_row_values`), the inverse rfft of the held modes
    with every other mode zero: the value at column c is sum_k m_k Re(s_k
    e^{2 pi i k c / nx}) / nx over the held modes, m_k from
    :func:`_pair_weights`.  Off-node traces also read the knot slopes of
    the not-a-knot cubic splines of the mode columns along the normal (the
    ``_numerics`` port, bitwise scipy's ``CubicSpline``), synthesized the
    same way, which the first such trace builds, block by block, and the
    field keeps: the spectrum's size again.  A field traced only on grid
    nodes never builds them, and a field derived by ``replace`` starts
    without them.
    """

    modes: np.ndarray
    spectrum: np.ndarray
    boundary: np.ndarray | None
    tangential_nodes: np.ndarray
    normal_nodes: np.ndarray
    h: float
    meta: dict

    def __post_init__(self) -> None:
        for array in (self.modes, self.spectrum, self.boundary):
            if array is not None:
                array.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        """The field at every held node, shaped (nx, rows): float64 for one
        part, complex128 for two, read as every trace reads it."""
        parts = _row_values(self, np.arange(self.normal_nodes.size))
        return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]

    @cached_property
    def _spline_slopes(self) -> np.ndarray:
        """The knot slopes of the mode columns' splines, shaped like
        ``spectrum``."""
        return _column_slopes(self.normal_nodes, self.spectrum)


def _column_slopes(xn: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """The knot slopes of the not-a-knot splines over ``xn`` of the mode
    columns spectrum[p, i, :], shaped like ``spectrum``, built a block of
    about _BLOCK_BYTES of columns at a time."""
    slopes = np.empty(spectrum.shape, dtype=complex)
    columns, out = spectrum.reshape(-1, xn.size), slopes.reshape(-1, xn.size)
    block = max(1, _BLOCK_BYTES // (xn.size * columns.itemsize))
    for start in range(0, len(columns), block):
        part = np.ascontiguousarray(columns[start : start + block].T)
        # a column's spline slopes do not depend on the other columns
        # batched with it; the complex columns go in as their real and
        # imaginary parts, interleaved
        s = spline_slopes(xn, part.view(float))
        out[start : start + block] = np.ascontiguousarray(s).view(complex).T
    slopes.setflags(write=False)
    return slopes


def _row_values(field2d: Field2D, rows: np.ndarray, slopes: bool = False):
    """The real field parts on the sorted ``rows`` at every column, shaped
    (parts, nx, rows.size): the boundary data on row 0 when the field holds
    it, elsewhere the one synthesis, the inverse rfft along the tangent of
    the held modes, sum_k m_k Re(s_k e^{2 pi i k c / nx}) / nx, with every
    other mode zero.  With ``slopes``, stacked on the synthesis of the knot
    slopes of the mode columns' splines on those rows, in one transform.
    Each row's transform is its own, so a row is bitwise the same whatever
    other rows are synthesized with it."""
    columns = field2d.spectrum[..., rows]
    if slopes:
        columns = np.stack([columns, field2d._spline_slopes[..., rows]])
    nx = field2d.tangential_nodes.size
    spectrum = np.zeros(columns.shape[:-2] + (nx // 2 + 1, rows.size), dtype=complex)
    spectrum[..., field2d.modes, :] = columns
    read = np.fft.irfft(spectrum, nx, axis=-2)
    if field2d.boundary is not None and rows.size and rows[0] == 0:
        (read[0] if slopes else read)[..., 0] = field2d.boundary
    return read


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


def _resolving_normal_nodes(far: float, h: float) -> int:
    """The least n_normal whose normal spacing far / (n_normal - 1) resolves
    h: h >= _RESOLVABILITY spacings, the transverse eigensolve's rule."""
    return math.ceil(_RESOLVABILITY * far / h) + 1


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
    5-point operator is real and so is the kernel: complex data is solved
    by linearity as its real and imaginary parts into a complex128 field,
    and data whose imaginary part is exactly zero gives a float64 field.
    A real FFT along the tangent splits the same operator for the
    tangential mean of V - E on each normal row into one Dirichlet
    tridiagonal T_k per distinct mode k (nx // 2 + 1 of them), with the
    exact discrete dispersion (:func:`expected_circle_eigenvalue`).  The
    data enters only the first interior row, so that operator's solution
    is irfft(b_k g_k) along the tangent, with b = cn rfft(phi) and one real
    unit-row solve g_k = T_k^{-1} e_0 per mode.

    For potentials independent of the tangent (``TANGENT_INVARIANT_MODELS``)
    that is the solution (``meta["path"]`` "mode-direct"): V - E is one
    normal column, and the field is held as the data and its spectrum,
    rfft(phi) on row 0 and b_k g_k below, only on the rows that its traces
    at weighted depth <= rho_max read, which ``normal_nodes`` lists, and
    only in the modes that the solve factored, which ``modes`` lists; no
    array with an nx axis is formed past the data's own.  Such a solve
    factors only the modes its data carries (:func:`_carried_modes`): 0 <=
    g_k <= g_k[0] < 1/cn on every row (see :func:`_unit_rows`), so mode k
    moves no field value by more than (m_k/nx) |b_k|/cn (m_k = 1 at k = 0
    and at the Nyquist mode, else 2; for complex data the two parts' moduli
    summed), and the modes whose bounds, smallest first, sum to at most eps
    log2(nx) max|phi| -- the synthesis FFT's own rounding (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 24.1) -- keep g_k
    = 0, exact zeros always among them.  Its residual is that of the systems
    solved, r_k = T_k g_k - e_0 with the operator's own V - E column, taken
    on every row a block of modes at a time, before the block's rows past
    the held ones are dropped, and r_k = -e_0 for a mode left out, mapped to
    the field by the triangle bound (1/nx) sum_k m_k |b_k| max_j |r_kj| over
    max|phi|, which is never above max|u|.  The modes left out add at most
    eps log2(nx) cn to it, under 0.0055 log2(nx) of the bound below (3.3 %
    at nx = 64), so only a solve that passes with every mode by less than
    that could fail for them.  Otherwise (path "mode-pcg") every mode is
    factored, and that solution is the first iterate of conjugate gradients
    preconditioned by the mean operator (Concus & Golub 1973), the residual
    is the stencil's true max|A u - b| / max|u|, the iteration count is
    governed by max/min of V - E over its row mean, e.g. (1+a)/(1-a) on
    strip-2d, and the finished field is held as the data and its rfft along
    the tangent, every mode on every row.  Either residual must be within
    _PCG_TOL of the operator's infinity norm; a mode-direct solve that
    misses it, or a CG solve that misses it within the iteration cap, raises
    instead of returning.

    The normal grid must resolve h as the transverse eigensolve's does, h
    >= _RESOLVABILITY spacings far / (n_normal - 1), or the solve raises.
    The far Dirichlet closure must lie inside the forbidden region, far <=
    ``model.forbidden_extent``, and its influence on traces at weighted
    depth <= rho_max is certified by the tunneling factor
    exp(-2 (depth - rho_max)/h), with depth from ``models.weighted_depth``.
    The metadata records that bound, the path, the iteration count, the
    residual, rho_max and n_normal, the normal rows solved.

    Memory: a mode-direct solve factors and solves its modes a block of
    about _BLOCK_BYTES of rows at a time (:func:`_unit_rows`) and keeps g_k
    only on the rows that a trace at weighted depth <= rho_max reads: down
    to node row J, the upper node of the interval holding s(rho_max)
    (``agmon.separable_level_height``) plus the spline reach
    _SPLINE_REACH, bitwise one stacked factor's at any block size (see
    :func:`_mode_factor`).  It keeps the spectrum of rows 0 to J, J + 1
    complex values per carried mode and data part, and peaks at a factor
    block next to g_k and a few normal columns: 0.96 MiB, 7.3 columns of
    n_normal float64, for constant data at 512 x 16,384, where the field
    of rows 0 to J would take 11.9 MiB (h = 0.01, rho_max = 0.4).  A
    tangent-dependent V - E is held on the full grid, the whole mode
    factor (one field of nx * n_normal float64) is kept as CG's
    preconditioner, CG adds the residual and its vectors, and the field's
    transform, which the field keeps in their place, is about one field
    per data part.
    """
    L = model.lengths[0]
    if abs(phi.length - L) > 1e-12:
        raise ValueError("boundary data circle length does not match the model")
    if abs(phi.h - h) > 0.0:
        raise ValueError("boundary data h does not match the solve h")
    contamination = _check_far_boundary(model, far, h, rho_max)
    least = _resolving_normal_nodes(far, h)
    if n_normal < least:
        raise ValueError(
            f"resolvability violated: h={h:g} is below {_RESOLVABILITY:g} normal "
            f"grid spacings on {n_normal} nodes to x_n = {far:g}; refine the "
            f"normal grid to at least {least} nodes"
        )

    nx = phi.values.size
    xp = L / nx * np.arange(nx)
    xn = np.linspace(0.0, far, n_normal)
    invariant = model.name in TANGENT_INVARIANT_MODELS
    # a tangent-invariant V - E is one column
    v_grid = potential_grid(model, xp[:1] if invariant else xp, xn)
    v_grid -= model.energy
    if np.min(v_grid) <= 0.0:
        j = np.unravel_index(int(np.argmin(v_grid)), v_grid.shape)
        raise ValueError(
            f"operator is indefinite: V - E = {v_grid[j]:.4g} <= 0 at "
            f"({xp[j[0]]:.4g}, {xn[j[1]]:.4g})"
        )
    if np.any(np.imag(phi.values)):
        data = np.stack([phi.values.real, phi.values.imag])
    else:
        data = np.real(phi.values)[None]

    cn = h**2 / (xn[1] - xn[0]) ** 2
    cp = h**2 / (L / nx) ** 2
    w = v_grid[:, 1:-1]
    bound = _PCG_TOL * (4.0 * (cn + cp) + float(np.max(w)))
    dispersion = expected_circle_eigenvalue(model, h, np.arange(nx // 2 + 1), nx)
    row_mean = np.mean(np.broadcast_to(w, (nx, w.shape[1])), axis=0)
    coefficients = np.fft.rfft(data)
    b = cn * coefficients
    if invariant:
        kept = _kept_rows(model, xn, rho_max)
        modes = _carried_modes(data, b, cn)
        unit, worst = _unit_rows(row_mean, cn, dispersion[modes], kept, w[0])
        residual = _mode_residual(data, b, modes, worst)
        if not residual <= bound:
            raise ValueError(
                f"mode solve missed the residual test on the {nx} x {n_normal} "
                f"grid: residual {residual:.3g} > {bound:.3g}"
            )
        xn = xn[: kept + 1 if kept < n_normal - 2 else n_normal].copy()
        spectrum = np.zeros((len(data), modes.size, xn.size), dtype=complex)
        spectrum[..., 0] = coefficients[:, modes]
        spectrum[..., 1 : kept + 1] = b[:, modes, None] * unit
        iterations, path = 0, "mode-direct"
    else:
        modes = np.arange(dispersion.size)
        factor = _mode_factor(row_mean, cn, dispersion)  # CG's preconditioner
        unit = np.zeros((dispersion.size, row_mean.size))
        unit[:, 0] = 1.0
        first = np.zeros(data.shape + (n_normal,))
        first[..., 0] = data
        g = _mode_solve(factor, unit)
        np.fft.irfft(b[..., None] * g, nx, axis=-2, out=first[..., 1:-1])
        del unit, g  # g_k goes before CG allocates
        parts, iterations, residual = _mode_pcg(first, w, cn, cp, factor, bound)
        spectrum, path = np.fft.rfft(parts, axis=-2), "mode-pcg"
    meta = {
        "contamination_bound": contamination,
        "residual": residual,
        "iterations": iterations,
        "path": path,
        "rho_max": rho_max,
        "n_normal": n_normal,
    }
    return Field2D(
        modes=modes,
        spectrum=spectrum,
        boundary=data,
        tangential_nodes=xp,
        normal_nodes=xn,
        h=h,
        meta=meta,
    )


def _kept_rows(model: ModelProblem, xn: np.ndarray, rho_max: float) -> int:
    """How many unit rows a mode-direct solve forms: those of field rows 1
    to J, J the upper node of the interval holding s(rho_max) plus
    _SPLINE_REACH, or every one of the xn.size - 2 when J reaches the end."""
    s = separable_level_height(model, max(rho_max, 0.0))
    below = int(np.searchsorted(xn, s, side="right")) - 1
    return min(below + 1 + _SPLINE_REACH, xn.size - 2)


def _carried_modes(data: np.ndarray, b: np.ndarray, cn: float) -> np.ndarray:
    """The rfft modes, in increasing order, that a mode-direct solve of
    ``data`` (b = cn rfft(data)) factors: all but the longest run of the
    smallest bounds (m_k/nx) |b_k|/cn on what mode k moves in the field
    that sum to at most eps log2(nx) max|phi|; see :func:`poisson_bvp`.
    Zero bounds sort first and the budget is not negative, so exact zeros
    are always left out."""
    nx = data.shape[1]
    reach = _pair_weights(nx) * np.sum(np.abs(b), axis=0) / (nx * cn)
    budget = np.finfo(float).eps * math.log2(nx) * _modulus_max(data)
    order = np.argsort(reach, kind="stable")
    left_out = int(np.count_nonzero(np.cumsum(reach[order]) <= budget))
    return np.sort(order[left_out:])


def _mode_factor(w: np.ndarray, cn: float, dispersion: np.ndarray):
    """The real L D L^T factor (d, e) of the Dirichlet tridiagonals
    cn (2 u_j - u_{j-1} - u_{j+1}) + (w_j + dispersion[k]) u_j, one per
    entry k of ``dispersion``, stacked mode-major into one symmetric
    positive definite tridiagonal with zero coupling between modes and
    factored by one ``dpttrf`` call in place of the assembled diagonals.

    LAPACK's L D L^T sweep restarts exactly across a zero coupling: the
    next pivot is its diagonal entry and the multiplier is zero.  So a
    factor of a block of modes, and a solve with it, are bitwise the
    slices of those of the whole stack, and the stack can be factored a
    block of modes at a time.
    """
    diag = (2.0 * cn + w)[None, :] + dispersion[:, None]
    off = np.full(diag.shape, -cn)
    off[:, -1] = 0.0
    d, e, info = dpttrf(diag.ravel(), off.ravel()[:-1], overwrite_d=1, overwrite_e=1)
    if info:
        raise ValueError(f"mode operator is not positive definite (info={info})")
    return d, e


def _mode_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Solve the mode systems of ``factor`` (:func:`_mode_factor`) for a
    real right-hand side shaped (..., modes, w.size), in place when it is
    C-contiguous; the leading axes are independent right-hand sides (the
    real and imaginary parts of transformed data among them)."""
    d, e = factor
    x, _ = dpttrs(d, e, rhs.reshape(-1, d.size).T, overwrite_b=1)
    return x.T.reshape(rhs.shape)


def _unit_rows(
    w: np.ndarray,
    cn: float,
    dispersion: np.ndarray,
    kept: int,
    residual_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(g, worst): the unit-row solutions g_k = T_k^{-1} e_0 of the mode
    systems of :func:`_mode_factor` on their first ``kept`` of the w.size
    rows, shaped (dispersion.size, kept), and the largest entry max_j
    |r_kj| of each mode's residual r_k = T_k g_k - e_0, taken with
    ``residual_w``, the operator's own V - E column.

    Each g_k satisfies 0 <= g_k[j] <= g_k[0] < 1/cn: T_k is an M-matrix, so
    g_k >= 0; each interior row reads cn (2 g_j - g_{j-1} - g_{j+1}) =
    -(w_j + dispersion[k]) g_j <= 0, so g_k is convex and, 0 past its last
    row, decreasing; and then row 0 gives g_k[0] <= 1/(cn + w_0 +
    dispersion[k]).  :func:`_carried_modes` rests on that bound.

    The modes are factored and solved a block of about _BLOCK_BYTES of
    rows at a time; each block's residual is taken on every row, and its
    factor and its rows past ``kept`` are dropped before the next block.
    The same calls in the same order on every call, so g is bitwise the
    same for any ``kept``, and bitwise one stacked solve's."""
    n = w.size
    step = max(1, _BLOCK_BYTES // (8 * n))
    unit = np.empty((dispersion.size, kept))
    worst = np.empty(dispersion.size)
    diag = 2.0 * cn + residual_w
    block = np.empty((min(step, dispersion.size), n))
    for a in range(0, dispersion.size, step):
        shifts = dispersion[a : a + step]
        g = block[: shifts.size]
        g[...] = 0.0
        g[:, 0] = 1.0
        g[...] = _mode_solve(_mode_factor(w, cn, shifts), g)
        r = (diag + shifts[:, None]) * g
        r[:, 1:] -= cn * g[:, :-1]
        r[:, :-1] -= cn * g[:, 1:]
        r[:, 0] -= 1.0
        worst[a : a + step] = np.max(np.abs(r), axis=1)
        unit[a : a + step] = g[:, :kept]
    return unit, worst


def _pair_weights(nx: int) -> np.ndarray:
    """m_k for the nx // 2 + 1 rfft modes: 1 at k = 0 and at the Nyquist
    mode, 2 at every other mode, which stands for the pair k, nx - k."""
    weight = np.full(nx // 2 + 1, 2.0)
    weight[0] = 1.0
    if nx % 2 == 0:
        weight[-1] = 1.0
    return weight


def _mode_residual(
    data: np.ndarray, b: np.ndarray, modes: np.ndarray, worst: np.ndarray
) -> float:
    """The bound on max|A u - b| / max|phi| of the mode-direct field u of
    ``data`` (b = cn rfft(data)) from ``worst``, the largest residual entry
    of each of its mode systems solved, those of ``modes``
    (:func:`_unit_rows`); a mode left out keeps g_k = 0, so r_k = -e_0 and
    its entry is 1.  See :func:`poisson_bvp`."""
    nx = data.shape[1]
    every = np.ones(b.shape[1])
    every[modes] = worst
    scale = _modulus_max(data)
    total = float(np.sum(_pair_weights(nx) * np.sum(np.abs(b), axis=0) * every)) / nx
    return total / scale if scale else 0.0


def _stencil(
    u: np.ndarray, w: np.ndarray, cn: float, cp: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The 5-point operator at the interior rows of u, shaped (..., nx, ny)
    with the tangent on axis -2, written to ``out`` (u's shape less the two
    Dirichlet rows) when given; the first and last normal rows hold the
    Dirichlet values, and w is V - E at the interior rows.

    It runs one block of whole normal columns u[..., i, :] at a time, about
    _BLOCK_BYTES of u, so its one block of scratch and each block's
    columns and their neighbours stay in cache; every entry takes the same
    float operations in the same order whatever the block size.
    """
    nx = u.shape[-2]
    if out is None:
        out = np.empty(u.shape[:-1] + (u.shape[-1] - 2,))
    step = max(1, _BLOCK_BYTES // (u[..., 0, :].size * u.itemsize))
    scratch = np.empty(u.shape[:-2] + (min(step, nx), u.shape[-1] - 2))
    for a in range(0, nx, step):
        b = min(a + step, nx)
        o = out[..., a:b, :]
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


def _mode_pcg(values, w, cn, cp, factor, bound):
    """Mode-preconditioned CG for the interior of the Dirichlet strip
    problem, from the first iterate ``values``, a real stack of one or two
    parts shaped (parts, nx, ny) that it updates in place.

    A real kernel: the operator is real, so complex data is solved by
    linearity as a stack of its real and imaginary parts, with CG inner
    products summed over the parts -- the real part of the complex inner
    product, so the iterates are those of complex CG.  The preconditioner
    takes rfft along the tangent and solves the nx // 2 + 1 distinct mode
    tridiagonals of the tangential mean (the dispersion is symmetric under
    k -> nx - k) on the real and imaginary rows of the transform with
    ``factor``, the real factor of :func:`_mode_factor` that gave the
    first iterate.  The residual is kept as r = A u - b, evaluated on the
    full array with the data row in place.  Iteration stops when the true
    residual max|r| / max|u| (complex moduli) is within ``bound``,
    _PCG_TOL of the operator's infinity norm (a normwise backward error,
    so the test is reachable at every grid size); the recursive residual
    only triggers that check.  Returns (values, iterations, residual).
    """
    nx, ny = values.shape[-2:]

    def relative(r):
        scale = _modulus_max(values)
        return _modulus_max(r) / scale if scale else 0.0

    r = _stencil(values, w, cn, cp)
    residual = relative(r)
    iterations = 0
    if residual <= bound:
        return values, iterations, residual
    p = np.zeros(values.shape)
    q = np.empty(r.shape)
    z = np.empty(r.shape)
    # r's transform; z is free until it is solved, so z's memory holds the
    # transform's real or imaginary part for the real factor
    spectrum = np.empty((len(values), nx // 2 + 1, ny - 2), dtype=complex)
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
            rows[...] = _mode_solve(factor, part)
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
    """Field values sampled on one level set, with their ambient-metric
    norm (:func:`_numerics.level_norm` in the level's line elements)."""

    values: np.ndarray
    level: LevelSet
    rho: float
    h: float
    ambient_norm: float = field(init=False)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        norm = float(level_norm(values, self.level.ambient_weights))
        object.__setattr__(self, "ambient_norm", norm)


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
        rho_max = field2d.meta.get("rho_max")
        fix = "" if rho_max is None else (
            f", the rows of its traces at weighted depth <= rho_max = {rho_max:g}"
            "; solve with rho_max at least the level's depth"
        )
        raise ValueError(
            f"level leaves the field's normal range: the field holds x_n <= "
            f"{xn[-1]:.4g}{fix}"
        )
    heights = pts[:, 1]
    # the node nearest a height is one of the two that bracket it
    above = np.clip(np.searchsorted(xn, heights), 0, xn.size - 1)
    below = np.maximum(above - 1, 0)
    node = np.where(np.abs(xn[below] - heights) <= 1e-12, below, above)
    aligned = np.abs(xn[node] - heights) <= 1e-12
    on, off = np.flatnonzero(aligned), np.flatnonzero(~aligned)
    parts = np.empty((len(field2d.spectrum), idx.size))
    # each distinct row is synthesized once, and each sample reads its column
    if on.size:
        rows, at = np.unique(node[on], return_inverse=True)
        parts[:, on] = _row_values(field2d, rows)[:, idx[on], at]
    if off.size:
        s = heights[off]
        # each sample on its own column's interval x[k] <= s < x[k + 1]
        k = np.clip(np.searchsorted(xn, s, side="right") - 1, 0, xn.size - 2)
        rows, at = np.unique(np.stack([k, k + 1]), return_inverse=True)
        read = _row_values(field2d, rows, slopes=True)[..., idx[off], at]
        (y0, y1), (d0, d1) = np.moveaxis(read, 2, 1)
        c0, c1 = hermite_leading(y0, y1, d0, d1, np.diff(xn)[k])
        parts[:, off] = cubic_value((c0, c1, d0, y0), s - xn[k])
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def trace_at(field2d: Field2D, level: LevelSet) -> BoundaryTrace:
    """Restrict a solved field to a level set.

    Every sample reads its own column of the field at its own height, so
    flat and curved levels take one path through the held modes: a sample
    within 1e-12 of a grid node reads that node's row at its column (the
    boundary data on row 0 of a solved field, elsewhere the synthesis,
    :func:`_row_values`), the others the not-a-knot cubic through the
    values and the synthesized knot slopes of the two rows that bracket
    their height.  The spline is linear in its data, so that is the spline
    of the field's column to within rounding.  Each distinct row a trace
    reads is synthesized once.  A tangent-invariant solve holds the rows of
    its traces at weighted depth <= ``rho_max``, whose values are bitwise
    those of a solve holding every row; a deeper level raises.  The first
    off-node trace of a Field2D builds the splines of its mode columns (a
    batch per 128 KiB block of them) and the field keeps their knot slopes,
    the spectrum's size again; every later trace of that field only
    evaluates.
    """
    values = _column_values(field2d, level)
    return BoundaryTrace(values=values, level=level, rho=level.rho, h=field2d.h)


def normal_derivative_trace(field2d: Field2D, level: LevelSet) -> BoundaryTrace:
    """Centered-difference normal derivative restricted to a level set, read
    by :func:`trace_at`'s rule from the normal differences of the mode
    columns, which the tangential synthesis commutes with."""
    xn = field2d.normal_nodes
    d = xn[1] - xn[0]
    if np.min(level.points[:, -1]) < xn[0] + 2.0 * d - 1e-12 or np.max(
        level.points[:, -1]
    ) > xn[-1] - 2.0 * d + 1e-12:
        raise ValueError("level is within two cells of the domain edge")
    grad = np.gradient(field2d.spectrum, xn, axis=-1)
    return trace_at(replace(field2d, spectrum=grad, boundary=None), level)


# --------------------------------------------------------------------------
# decay fits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (rho, log norm) samples: its slope and the
    largest deviation of a sample from it."""

    slope: float
    residual: float
    h: float

    @property
    def slope_times_h(self) -> float:
        return self.slope * self.h


def decay_fit(traces, distances, h: float) -> DecayFit:
    """Fit log(trace norm) against weighted distance over >= 4 samples.

    For zero-section-concentrated data the two-sided decay estimates
    predict slope * h = -1.  Reads the ``ambient_norm`` of each trace, a
    BoundaryTrace or a BoundaryFunction.
    """
    rho = np.asarray(distances, dtype=float)
    if len(traces) != rho.size:
        raise ValueError("one distance per trace is required")
    if rho.size < 4 or np.unique(rho).size < 4:
        raise ValueError("at least 4 traces at distinct distances are required")
    norms = np.array([t.ambient_norm for t in traces])
    if np.any(norms <= 0.0):
        raise ValueError("every trace must have a positive norm")
    logs = np.log(norms)
    slope, intercept = np.polyfit(rho, logs, 1)
    fit = slope * rho + intercept
    return DecayFit(
        slope=float(slope), residual=float(np.max(np.abs(fit - logs))), h=h
    )
