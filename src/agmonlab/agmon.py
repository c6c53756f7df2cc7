"""Weighted distance geometry: distance fields and level sets.

The degenerate conformal metric (V - E)_+ g (ambient g flat in every shipped
model) governs tunneling decay.  This module computes its distance field by
label-setting shortest paths (Dijkstra, run by ``scipy.sparse.csgraph``) on
a weighted grid graph, and extracts level sets with both ambient and
weighted line elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from agmonlab.models import ModelProblem, domain_axes, potential_grid, transverse_potential

__all__ = [
    "DistanceField",
    "LevelSet",
    "SeparableCollar",
    "separable_collar",
    "agmon_distance",
    "level_set_at",
    "separable_level_set",
]


@dataclass(frozen=True)
class DistanceField:
    """Distance to a source set in the barrier-weighted metric.

    ``values[i, j]`` is the graph-geodesic distance from grid node
    (tangential i, normal j) to the source under edge weight
    ``avg(sqrt((V-E)_+)) * edge length``.  Zero exactly on source nodes.
    """

    values: np.ndarray
    axes: tuple[np.ndarray, ...]
    source: str  # "boundary" | "caustic"
    spacing: tuple[float, ...]
    model: ModelProblem

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@dataclass(frozen=True)
class LevelSet:
    """Samples of one level {distance = rho} with line-element weights.

    ``points`` has shape (m, 2), rows (tangential, normal).
    ``ambient_weights`` are ambient-metric line elements per sample;
    ``weighted_weights`` carry the extra conformal factor sqrt(V - E) per
    tangential direction, so squared-norm ratios of traces stay between the
    min and max of sqrt(V - E) over the level.
    """

    rho: float
    points: np.ndarray
    ambient_weights: np.ndarray
    weighted_weights: np.ndarray
    model: ModelProblem

    def __post_init__(self) -> None:
        for arr in (self.points, self.ambient_weights, self.weighted_weights):
            arr.setflags(write=False)

    @property
    def length(self) -> float:
        return float(self.ambient_weights.sum())


# --------------------------------------------------------------------------
# separable collar reparametrization
# --------------------------------------------------------------------------


class SeparableCollar:
    """Arclength reparametrization of the normal axis for product models.

    For barriers depending on the normal variable only, the weighted distance
    from the hypersurface along the normal direction is
    ``rho(s) = integral_0^s sqrt(W(t) - E) dt``; this class tabulates the map
    and its inverse with spline accuracy on the forbidden extent.
    """

    _NODES = 8193

    def __init__(self, model: ModelProblem, s_max: float | None = None):
        profile = transverse_potential(model)
        if s_max is None:
            s_max = model.forbidden_extent
        s = np.linspace(0.0, s_max, self._NODES)
        weight = np.sqrt(np.maximum(profile(s) - model.energy, 0.0))
        rho = cumulative_simpson(weight, x=s, initial=0.0)
        self.model = model
        self.s_max = float(s_max)
        self.rho_max = float(rho[-1])
        self._rho_of_s = CubicSpline(s, rho)
        self._s_of_rho = CubicSpline(rho, s)

    def rho_of_s(self, s):
        """Weighted arclength from the hypersurface to normal coordinate s."""
        return self._rho_of_s(np.abs(s))

    def s_of_rho(self, rho):
        """Ambient normal coordinate at weighted arclength rho."""
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < 0) or np.any(rho > self.rho_max):
            raise ValueError(f"arclength outside [0, {self.rho_max:g}]")
        return self._s_of_rho(rho)


@lru_cache(maxsize=32)
def _cached_collar(model: ModelProblem) -> SeparableCollar:
    return SeparableCollar(model)


def separable_collar(model: ModelProblem) -> SeparableCollar:
    """Shared arclength map for a product-form model (cached per model)."""
    return _cached_collar(model)


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


def agmon_distance(
    model: ModelProblem,
    source: str = "boundary",
    grid_sizes=(129,),
) -> DistanceField:
    """Distance field from the hypersurface or from the allowed set.

    Dijkstra label-setting from every source node at once, run by
    ``scipy.sparse.csgraph.dijkstra`` on the grid graph with 8 neighbours
    per node (periodic axes wrap); edge weight is the endpoint
    average of sqrt((V-E)_+) times the Euclidean edge length, first-order
    accurate against the quadrature oracle on product models.  ``source``
    is "boundary" (the hypersurface {normal = 0}) or "caustic" (every node
    with V <= E, realizing distance to the boundary of the allowed set).
    """
    if source not in ("boundary", "caustic"):
        raise ValueError(f"unknown source descriptor {source!r}")
    axes = domain_axes(model, grid_sizes)
    weight = np.sqrt(np.maximum(potential_grid(model, *axes) - model.energy, 0.0))
    shape = weight.shape
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)

    if source == "boundary":
        j0 = int(np.argmin(np.abs(axes[1])))
        if abs(axes[1][j0]) > 1e-12:
            raise ValueError("grid has no node on the hypersurface")
        # the normal axis is the last one, so its node j0 is every
        # shape[1]-th entry of the flattened grid
        seeds = np.arange(j0, weight.size, shape[1])
    else:
        allowed = potential_grid(model, *axes) - model.energy <= 0.0
        seeds = np.flatnonzero(allowed)
        if not seeds.size:
            raise ValueError(
                f"model {model.name!r} has no allowed region on the grid; "
                "the caustic source is empty"
            )
        if seeds.size == weight.size:
            raise ValueError("the whole grid is allowed; no forbidden region")

    graph = _grid_graph(weight, spacing, model.periodic)
    dist = dijkstra(graph, indices=seeds, min_only=True).reshape(shape)
    return DistanceField(
        values=dist, axes=axes, source=source, spacing=spacing, model=model
    )


# --------------------------------------------------------------------------
# level sets
# --------------------------------------------------------------------------


def _barrier_at_points(model: ModelProblem, points: np.ndarray) -> np.ndarray:
    from agmonlab.models import _value_fn  # closed-form dispatch

    fn = _value_fn(model)
    return np.asarray(fn(points[:, 0], points[:, 1]), dtype=float) - model.energy


def _weights_for_curve(model: ModelProblem, points: np.ndarray, d_xp: float):
    """Ambient and weighted line elements for level samples.

    Level curves parametrized by the tangential node spacing get a tilt
    factor sqrt(1 + slope^2) in the ambient element and the conformal factor
    sqrt(V-E) on top of it.
    """
    m = points.shape[0]
    heights = points[:, 1]
    slope = np.gradient(heights, d_xp) if m > 2 else np.zeros(m)
    ambient = np.sqrt(1.0 + slope**2) * d_xp
    barrier = _barrier_at_points(model, points)
    weighted = ambient * np.sqrt(np.maximum(barrier, 0.0))
    return ambient, weighted


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

    ambient, weighted = _weights_for_curve(model, points, d_xp)
    return LevelSet(
        rho=float(rho),
        points=points,
        ambient_weights=ambient,
        weighted_weights=weighted,
        model=model,
    )


def separable_level_set(
    model: ModelProblem, rho: float, n_tangential: int = 64
) -> LevelSet:
    """Exact level set {normal = s(rho)} for product-form models.

    Uses the arclength inverse instead of a sampled distance field; rho = 0
    returns the hypersurface itself.  The fast path behind trace-based
    experiments; agrees with :func:`level_set_at` to grid tolerance.
    """
    collar = separable_collar(model)
    if not 0.0 <= rho <= collar.rho_max:
        raise ValueError(f"level {rho:g} outside [0, {collar.rho_max:g}]")
    s_star = float(collar.s_of_rho(rho))
    L = model.lengths[0]
    xp = np.linspace(0.0, L, n_tangential, endpoint=False)
    points = np.column_stack([xp, np.full(n_tangential, s_star)])
    d_xp = L / n_tangential
    ambient, weighted = _weights_for_curve(model, points, d_xp)
    return LevelSet(
        rho=float(rho),
        points=points,
        ambient_weights=ambient,
        weighted_weights=weighted,
        model=model,
    )
