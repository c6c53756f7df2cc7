"""Weighted distance geometry: distance fields and level sets.

The degenerate conformal metric (V - E)_+ g (ambient g flat in every shipped
model) governs tunneling decay.  This module computes its distance field by
label-setting shortest paths (Dijkstra, run by ``scipy.sparse.csgraph``) on
a weighted grid graph, and extracts level sets with their ambient line
elements.  On a model independent of the tangent the level {distance =
rho} from the hypersurface is the line {normal = s}, where s inverts
``models.weighted_depth``, the package's one rule for the weighted depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from agmonlab._numerics import brentq
from agmonlab.models import (
    ModelProblem,
    domain_axes,
    potential_grid,
    transverse_potential,
    weighted_depth,
)

__all__ = [
    "DistanceField",
    "LevelSet",
    "agmon_distance",
    "level_set_at",
    "separable_level_height",
    "separable_level_set",
]


@dataclass(frozen=True)
class DistanceField:
    """Distance to the hypersurface in the barrier-weighted metric.

    ``values[i, j]`` is the graph-geodesic distance from grid node
    (tangential i, normal j) to the hypersurface row under edge weight
    ``avg(sqrt((V-E)_+)) * edge length``.  Zero exactly on that row.
    """

    values: np.ndarray
    axes: tuple[np.ndarray, ...]
    model: ModelProblem

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@dataclass(frozen=True)
class LevelSet:
    """Samples of one level {distance = rho} with line-element weights.

    ``points`` has shape (m, 2), rows (tangential, normal).
    ``ambient_weights`` are ambient-metric line elements per sample.
    """

    rho: float
    points: np.ndarray
    ambient_weights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.points, self.ambient_weights):
            arr.setflags(write=False)


# --------------------------------------------------------------------------
# distance field by label-setting shortest paths
# --------------------------------------------------------------------------


# the 8 neighbour steps (tangential, normal) of a grid node
_EDGE_OFFSETS = tuple(
    (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
)


def _grid_graph(
    weight: np.ndarray, spacing: tuple[float, ...], periodic: tuple[bool, ...]
) -> csr_matrix:
    """The weighted grid graph over the C-order flattened nodes.

    Row i lists node i's neighbours in the order of ``_EDGE_OFFSETS``,
    wrapping around periodic axes and dropping steps off the others; an
    edge costs the endpoint average of the weight times the Euclidean edge
    length.  Zero-cost edges are stored explicitly, so they stay edges.
    """
    shape = weight.shape
    flat = weight.ravel()
    cols = np.empty((flat.size, len(_EDGE_OFFSETS)), dtype=np.int64)
    cost = np.empty(cols.shape)
    valid = np.ones(cols.shape, dtype=bool)
    for k, off in enumerate(_EDGE_OFFSETS):
        nbr = np.zeros(shape, dtype=np.int64)
        inside = np.ones(shape, dtype=bool)
        for axis, o in enumerate(off):
            view = [1] * len(shape)
            view[axis] = shape[axis]
            j = np.arange(shape[axis]) + o
            if periodic[axis]:
                j %= shape[axis]
            else:
                inside &= ((j >= 0) & (j < shape[axis])).reshape(view)
                j = np.clip(j, 0, shape[axis] - 1)
            nbr = nbr * shape[axis] + j.reshape(view)
        length = math.sqrt(sum((o * d) ** 2 for o, d in zip(off, spacing)))
        cols[:, k] = nbr.ravel()
        cost[:, k] = 0.5 * (flat + flat[cols[:, k]]) * length
        valid[:, k] = inside.ravel()
    indptr = np.concatenate([[0], np.cumsum(valid.sum(axis=1))])
    return csr_matrix((cost[valid], cols[valid], indptr), shape=(flat.size,) * 2)


def agmon_distance(model: ModelProblem, grid_sizes=(129,)) -> DistanceField:
    """Distance field from the hypersurface {normal = 0}.

    Dijkstra label-setting from every hypersurface node at once, run by
    ``scipy.sparse.csgraph.dijkstra`` on the grid graph with 8 neighbours
    per node (periodic axes wrap); edge weight is the endpoint
    average of sqrt((V-E)_+) times the Euclidean edge length, first-order
    accurate against the quadrature oracle on product models.
    """
    axes = domain_axes(model, grid_sizes)
    weight = np.sqrt(np.maximum(potential_grid(model, *axes) - model.energy, 0.0))
    shape = weight.shape
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)

    j0 = int(np.argmin(np.abs(axes[1])))
    if abs(axes[1][j0]) > 1e-12:
        raise ValueError("grid has no node on the hypersurface")
    # the normal axis is the last one, so its node j0 is every
    # shape[1]-th entry of the flattened grid
    seeds = np.arange(j0, weight.size, shape[1])

    graph = _grid_graph(weight, spacing, model.periodic)
    dist = dijkstra(graph, indices=seeds, min_only=True).reshape(shape)
    return DistanceField(values=dist, axes=axes, model=model)


# --------------------------------------------------------------------------
# level sets
# --------------------------------------------------------------------------


# separable_level_set's root find stops within this distance of the normal
# coordinate of its level
_LEVEL_XTOL = 1e-15


def _weights_for_curve(points: np.ndarray, d_xp: float) -> np.ndarray:
    """Ambient line elements for level samples.

    Level curves parametrized by the tangential node spacing get a tilt
    factor sqrt(1 + slope^2) in the ambient element.  The tangent is a
    circle, so the slope is the centred difference at every sample, the
    first and last included.
    """
    heights = points[:, 1]
    slope = (np.roll(heights, -1) - np.roll(heights, 1)) / (2.0 * d_xp)
    return np.sqrt(1.0 + slope**2) * d_xp


def level_set_at(field: DistanceField, rho: float) -> LevelSet:
    """Extract {distance = rho} on the positive side of the hypersurface.

    Linear interpolation along normal grid columns crossing the level,
    matching the first-order accuracy of the distance algorithm.  Requires
    0 < rho < the model's validated collar width.
    """
    model = field.model
    if not 0.0 < rho < model.collar_width:
        raise ValueError(
            f"level {rho:g} outside the collar (0, {model.collar_width:g})"
        )
    xn = field.axes[1]
    pos = xn >= -1e-15
    order = np.argsort(xn[pos])
    x = xn[pos][order]
    # one row per normal column, ordered by increasing normal coordinate;
    # each row's first crossing is its first a < len - 1 with f[a] = rho or
    # a sign change of f - rho between a and a + 1
    g = field.values[:, pos][:, order] - rho
    hit = (g[:, :-1] == 0.0) | (g[:, :-1] * g[:, 1:] < 0.0)
    missed = np.flatnonzero(~hit.any(axis=1))
    if missed.size:
        i = int(missed[0])
        raise ValueError(
            f"level {rho:g} not reached along column {i} "
            f"(tangential {field.axes[0][i]:.6g})"
        )
    a = np.argmax(hit, axis=1)
    rows = np.arange(a.size)
    fa, fb = g[rows, a], g[rows, a + 1]
    t = np.divide(fa, fa - fb, out=np.zeros_like(fa), where=fa != 0.0)
    heights = np.where(fa == 0.0, x[a], x[a] + t * (x[a + 1] - x[a]))

    xp = field.axes[0]
    points = np.column_stack([xp, heights])
    d_xp = float(xp[1] - xp[0])

    return LevelSet(
        rho=float(rho),
        points=points,
        ambient_weights=_weights_for_curve(points, d_xp),
    )


def separable_level_height(model: ModelProblem, rho: float) -> float:
    """s(rho), the normal coordinate at which ``models.weighted_depth``
    reaches rho: a Brent root find on [0, forbidden_extent], so rho = 0
    gives the hypersurface and the deepest level the forbidden edge."""
    edge = model.forbidden_extent
    top = weighted_depth(model, edge)
    if not 0.0 <= rho <= top:
        raise ValueError(f"level {rho:g} outside [0, {top:g}]")
    return brentq(
        lambda s: weighted_depth(model, s) - rho, 0.0, edge, xtol=_LEVEL_XTOL
    )


def separable_level_set(
    model: ModelProblem, rho: float, n_tangential: int = 64
) -> LevelSet:
    """Exact level set {normal = s(rho)} for product-form models.

    s(rho) is :func:`separable_level_height`, a root find instead of a
    sampled distance field.  The fast path behind trace-based experiments;
    agrees with :func:`level_set_at` to grid tolerance.  A model whose V
    depends on the tangent is rejected before any compute.
    """
    transverse_potential(model)
    s_star = separable_level_height(model, rho)
    L = model.lengths[0]
    xp = np.linspace(0.0, L, n_tangential, endpoint=False)
    points = np.column_stack([xp, np.full(n_tangential, s_star)])
    d_xp = L / n_tangential
    return LevelSet(
        rho=float(rho),
        points=points,
        ambient_weights=_weights_for_curve(points, d_xp),
    )
