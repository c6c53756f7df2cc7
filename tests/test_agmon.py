"""Distance fields and level sets against quadrature oracles."""

import heapq
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from agmonlab.agmon import (
    DistanceField,
    agmon_distance,
    level_set_at,
    separable_collar,
    separable_level_set,
)
from agmonlab.models import (
    domain_axes,
    make_model,
    potential_grid,
)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def torus_profile_weight(t: float) -> float:
    """sqrt(W - E) for the cosine-well torus with default parameters."""
    return math.sqrt(max(0.5 + math.cos(t), 0.0))


def torus_rho_oracle(s: float) -> float:
    value, _ = quad(torus_profile_weight, 0.0, s, limit=200)
    return value


def torus_s_oracle(rho: float) -> float:
    return brentq(lambda s: torus_rho_oracle(s) - rho, 0.0, 2.0 * math.pi / 3.0)


def reference_dijkstra(model, source, grid_sizes):
    """Independent oracle: heap-based label-setting on the same grid graph.

    Pops nodes in order of tentative distance and relaxes the 8 neighbours
    of each, wrapping periodic axes, with edge weight
    0.5 * (w_i + w_j) * |edge| and w = sqrt((V - E)_+).
    """
    axes = domain_axes(model, grid_sizes)
    weight = np.sqrt(np.maximum(potential_grid(model, *axes) - model.energy, 0.0))
    shape = weight.shape
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)
    if source == "boundary":
        j0 = int(np.argmin(np.abs(axes[1])))
        seeds = [(i, j0) for i in range(shape[0])]
    else:
        allowed = potential_grid(model, *axes) - model.energy <= 0.0
        seeds = [tuple(idx) for idx in np.argwhere(allowed)]
    offsets = [
        (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
    ]

    dist = np.full(shape, np.inf)
    done = np.zeros(shape, dtype=bool)
    heap = []
    for idx in seeds:
        dist[idx] = 0.0
        heapq.heappush(heap, (0.0, idx))
    periodic = model.periodic
    while heap:
        d, idx = heapq.heappop(heap)
        if done[idx]:
            continue
        done[idx] = True
        w_here = weight[idx]
        for off in offsets:
            nxt = []
            length2 = 0.0
            ok = True
            for axis, (i, o) in enumerate(zip(idx, off)):
                j = i + o
                if periodic[axis]:
                    j %= shape[axis]
                elif not 0 <= j < shape[axis]:
                    ok = False
                    break
                nxt.append(j)
                length2 += (o * spacing[axis]) ** 2
            if not ok:
                continue
            nidx = tuple(nxt)
            if done[nidx]:
                continue
            cand = d + 0.5 * (w_here + weight[nidx]) * math.sqrt(length2)
            if cand < dist[nidx]:
                dist[nidx] = cand
                heapq.heappush(heap, (cand, nidx))
    return dist


def reference_crossing(xn, profile, rho):
    """First crossing of the level along increasing normal coordinate, by a
    scalar scan: a node on the level, else linear interpolation across the
    first sign change of profile - rho."""
    pos = xn >= -1e-15
    x, f = xn[pos], profile[pos]
    for a in range(len(x) - 1):
        fa, fb = f[a] - rho, f[a + 1] - rho
        if fa == 0.0:
            return float(x[a])
        if fa * fb < 0.0:
            t = fa / (fa - fb)
            return float(x[a] + t * (x[a + 1] - x[a]))
    return None


# --------------------------------------------------------------------------
# separable collar reparametrization
# --------------------------------------------------------------------------


class TestSeparableCollar:
    def test_torus_inverse_matches_quadrature_oracle(self):
        model = make_model("separable-torus")
        collar = separable_collar(model)
        s = collar.s_of_rho(0.1)
        assert s == pytest.approx(torus_s_oracle(0.1), abs=1e-8)

    def test_torus_forward_matches_quadrature_oracle(self):
        model = make_model("separable-torus")
        collar = separable_collar(model)
        for s in (0.05, 0.3, 0.7, 1.2):
            assert collar.rho_of_s(s) == pytest.approx(torus_rho_oracle(s), abs=1e-9)

    def test_roundtrip_property(self):
        model = make_model("separable-torus")
        collar = separable_collar(model)
        rng = np.random.default_rng(20260815)
        s = rng.uniform(0.0, 0.9 * collar.s_max, size=1000)
        back = collar.s_of_rho(collar.rho_of_s(s))
        np.testing.assert_allclose(back, s, atol=1e-7)

    def test_out_of_range_arclength_rejected(self):
        model = make_model("separable-torus")
        collar = separable_collar(model)
        with pytest.raises(ValueError, match="arclength"):
            collar.s_of_rho(collar.rho_max * 1.01)

    def test_shared_instance_is_cached(self):
        model = make_model("separable-torus")
        assert separable_collar(model) is separable_collar(model)


# --------------------------------------------------------------------------
# distance fields
# --------------------------------------------------------------------------


class TestAgmonDistance:
    def test_constant_weight_halfplane(self):
        model = make_model("halfplane-unit")
        field = agmon_distance(model, source="boundary", grid_sizes=(32, 65))
        assert field.values.shape == (32, 65)
        xn = field.axes[1]
        for i in (0, 7, 31):
            np.testing.assert_allclose(field.values[i], xn, atol=1e-12)

    def test_torus_column_matches_quadrature(self):
        model = make_model("separable-torus")
        field = agmon_distance(model, source="boundary", grid_sizes=(16, 128))
        xn = field.axes[1]
        inside = np.abs(xn) <= 0.9 * model.collar_width_ambient
        oracle = np.array([torus_rho_oracle(abs(t)) for t in xn[inside]])
        np.testing.assert_allclose(field.values[0, inside], oracle, atol=2e-4)

    def test_refinement_improves_torus_distance(self):
        # one-sided: halving the spacing must shrink the worst collar error
        # by at least 1.5x (trapezoid convergence predicts 4x)
        model = make_model("separable-torus")
        errors = []
        for n in (64, 128):
            field = agmon_distance(model, source="boundary", grid_sizes=(8, n))
            xn = field.axes[1]
            inside = (xn >= 0.0) & (xn <= 0.9 * model.collar_width_ambient)
            oracle = np.array([torus_rho_oracle(t) for t in xn[inside]])
            errors.append(np.max(np.abs(field.values[0, inside] - oracle)))
        assert errors[0] / errors[1] >= 1.5

    def test_caustic_source_reaches_barrier_midpoint(self):
        model = make_model("separable-torus")
        field = agmon_distance(model, source="caustic", grid_sizes=(8, 256))
        j0 = int(np.argmin(np.abs(field.axes[1])))
        full_barrier = torus_rho_oracle(2.0 * math.pi / 3.0)
        assert field.values[0, j0] == pytest.approx(full_barrier, rel=0.02)

    def test_caustic_distance_vanishes_on_allowed_set(self):
        model = make_model("separable-torus")
        field = agmon_distance(model, source="caustic", grid_sizes=(8, 128))
        xn = field.axes[1]
        allowed = 0.5 + np.cos(xn) <= 0.0
        assert np.max(field.values[:, allowed]) == 0.0

    @pytest.mark.parametrize(
        "name, source, grid_sizes",
        [
            ("strip-2d", "boundary", (128, 129)),
            ("separable-torus", "boundary", (16, 128)),
            ("separable-torus", "caustic", (8, 256)),
            ("halfplane-unit", "boundary", (32, 65)),
        ],
    )
    def test_matches_reference_dijkstra_bitwise(self, name, source, grid_sizes):
        model = make_model(name)
        field = agmon_distance(model, source=source, grid_sizes=grid_sizes)
        oracle = reference_dijkstra(model, source, grid_sizes)
        assert field.values.shape == oracle.shape
        assert np.all(np.isfinite(oracle))
        assert np.array_equal(field.values, oracle)

    def test_empty_caustic_rejected(self):
        model = make_model("halfplane-unit")
        with pytest.raises(ValueError, match="allowed"):
            agmon_distance(model, source="caustic", grid_sizes=(16, 33))

    def test_unknown_source_rejected(self):
        model = make_model("halfplane-unit")
        with pytest.raises(ValueError, match="source"):
            agmon_distance(model, source="interior")

    def test_values_are_frozen(self):
        model = make_model("halfplane-unit")
        field = agmon_distance(model, grid_sizes=(65,))
        with pytest.raises(ValueError):
            field.values[0, 0] = 1.0


# --------------------------------------------------------------------------
# eikonal consistency
# --------------------------------------------------------------------------


def _eikonal_residual(field: DistanceField) -> float:
    """Max over interior collar nodes of | |grad d|^2 - (V - E) |.

    First-order distances make this O(grid spacing) on product models; the
    gradient is ambient (flat metric) central differencing.
    """
    model = field.model
    axes = field.axes
    grads = np.gradient(field.values, *axes, edge_order=1)
    grad2 = sum(g**2 for g in grads)
    barrier = potential_grid(model, *axes) - model.energy
    xn = axes[1]
    lo = 2 * field.spacing[1]
    hi = model.collar_width_ambient - 2 * field.spacing[1]
    interior = (xn >= lo) & (xn <= hi)
    return float(np.max(np.abs(grad2[:, interior] - barrier[:, interior])))


class TestEikonalResidual:
    def test_linear_distance_has_float_level_residual(self):
        model = make_model("halfplane-unit")
        field = agmon_distance(model, grid_sizes=(16, 129))
        assert _eikonal_residual(field) <= 1e-10

    def test_quadratic_distance_exact_under_central_differences(self):
        # central differences are exact on polynomials of degree <= 2, such
        # as the half-plane distance x_n; (257,) is the one-size shorthand
        model = make_model("halfplane-unit")
        field = agmon_distance(model, grid_sizes=(257,))
        assert _eikonal_residual(field) <= 1e-9

    def test_torus_residual_small_and_refining(self):
        model = make_model("separable-torus")
        res = []
        for n in (128, 256):
            field = agmon_distance(model, grid_sizes=(8, n))
            res.append(_eikonal_residual(field))
        assert res[0] <= 5e-3
        assert res[0] / res[1] >= 1.5


# --------------------------------------------------------------------------
# level sets
# --------------------------------------------------------------------------


class TestLevelSets:
    def test_torus_level_matches_collar_inverse(self):
        model = make_model("separable-torus")
        field = agmon_distance(model, grid_sizes=(16, 128))
        level = level_set_at(field, 0.35)
        s_star = torus_s_oracle(0.35)
        np.testing.assert_allclose(level.points[:, 1], s_star, atol=1e-3)

    def test_separable_fast_path_agrees_with_field_extraction(self):
        model = make_model("separable-torus")
        field = agmon_distance(model, grid_sizes=(16, 128))
        slow = level_set_at(field, 0.35)
        fast = separable_level_set(model, 0.35, n_tangential=16)
        np.testing.assert_allclose(
            fast.points[:, 1], slow.points[:, 1], atol=1e-3
        )
        assert fast.length == pytest.approx(slow.length, rel=1e-3)

    def test_separable_fast_path_accepts_the_hypersurface(self):
        model = make_model("separable-torus")
        level = separable_level_set(model, 0.0, n_tangential=32)
        np.testing.assert_allclose(level.points[:, 1], 0.0, atol=1e-12)
        assert level.length == pytest.approx(2.0 * math.pi, rel=1e-12)
        np.testing.assert_allclose(
            level.weighted_weights / level.ambient_weights,
            math.sqrt(1.5),
            atol=1e-12,
        )

    def test_weight_ratio_uniform_on_torus_level(self):
        # the barrier is constant on each torus level, so the conformal
        # correction equals sqrt(W(s*) - E) exactly
        model = make_model("separable-torus")
        level = separable_level_set(model, 0.4, n_tangential=48)
        s_star = level.points[0, 1]
        expected = math.sqrt(0.5 + math.cos(s_star))
        np.testing.assert_allclose(
            level.weighted_weights / level.ambient_weights, expected, atol=1e-9
        )

    def test_trace_norm_ratio_bracketed_on_strip(self):
        # squared-norm ratio of any trace sits between the extremes of
        # sqrt(V - E) over the level curve
        model = make_model("strip-2d")
        field = agmon_distance(model, grid_sizes=(64, 129))
        level = level_set_at(field, 0.2)
        barrier = (1.0 + 0.2 * np.cos(level.points[:, 0])) * (
            1.0 + level.points[:, 1] ** 2
        )
        root = np.sqrt(barrier)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.normal(size=level.points.shape[0])
            num = float(np.sum(u**2 * level.weighted_weights))
            den = float(np.sum(u**2 * level.ambient_weights))
            ratio = num / den
            assert root.min() - 1e-9 <= ratio <= root.max() + 1e-9

    def test_heights_match_scalar_scan_bitwise(self):
        model = make_model("strip-2d")
        field = agmon_distance(model, grid_sizes=(64, 129))
        xn = field.axes[1]
        # columns that cross each level several times: the first crossing
        # must be the one taken
        wavy = field.values * (1.0 + 0.9 * np.cos(40.0 * xn))
        wavy = DistanceField(wavy, field.axes, field.source, field.spacing, model)
        node_level = float(field.values[5, 70])  # lands on a node in column 5
        for dist, rho in [(field, 0.05), (field, 0.2), (field, node_level),
                          (wavy, 0.05), (wavy, 0.1)]:
            level = level_set_at(dist, rho)
            oracle = [reference_crossing(xn, col, rho) for col in dist.values]
            assert np.array_equal(level.points[:, 1], oracle)
            if dist is field and rho == node_level:
                assert level.points[5, 1] == xn[70]

    def test_missed_level_names_first_column(self):
        model = make_model("strip-2d")
        field = agmon_distance(model, grid_sizes=(16, 129))
        values = np.array(field.values)
        values[[3, 9]] = 0.0
        flat = DistanceField(values, field.axes, field.source, field.spacing, model)
        with pytest.raises(ValueError, match="column 3 "):
            level_set_at(flat, 0.1)

    def test_levels_outside_collar_rejected(self):
        model = make_model("halfplane-unit")
        field = agmon_distance(model, grid_sizes=(65,))
        with pytest.raises(ValueError, match="collar"):
            level_set_at(field, model.collar_width * 1.5)
        with pytest.raises(ValueError, match="collar"):
            level_set_at(field, 0.0)

    def test_level_weights_are_frozen(self):
        model = make_model("separable-torus")
        level = separable_level_set(model, 0.3)
        with pytest.raises(ValueError):
            level.ambient_weights[0] = 2.0
