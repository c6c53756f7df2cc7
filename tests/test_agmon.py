"""Distance fields and level sets against quadrature oracles."""

import heapq
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from agmonlab import agmon
from agmonlab.agmon import (
    DistanceField,
    agmon_distance,
    level_set_at,
    separable_level_set,
)
from agmonlab.models import (
    TANGENT_INVARIANT_MODELS,
    domain_axes,
    make_model,
    potential_grid,
    weighted_depth,
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


def reference_dijkstra(model, grid_sizes):
    """Independent oracle: heap-based label-setting on the same grid graph,
    seeded on the hypersurface row.

    Pops nodes in order of tentative distance and relaxes the 8 neighbours
    of each, wrapping periodic axes, with edge weight
    0.5 * (w_i + w_j) * |edge| and w = sqrt((V - E)_+).
    """
    axes = domain_axes(model, grid_sizes)
    weight = np.sqrt(np.maximum(potential_grid(model, *axes) - model.energy, 0.0))
    shape = weight.shape
    spacing = tuple(float(ax[1] - ax[0]) for ax in axes)
    j0 = int(np.argmin(np.abs(axes[1])))
    seeds = [(i, j0) for i in range(shape[0])]
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


def normal_of(model, rho):
    """The normal coordinate of the separable level at weighted depth rho."""
    return float(separable_level_set(model, rho, n_tangential=4).points[0, 1])


class TestSeparableCollar:
    """The normal arclength map of a product model: ``weighted_depth``
    forward, ``separable_level_set`` backward."""

    def test_torus_inverse_matches_quadrature_oracle(self):
        model = make_model("separable-torus")
        for rho in (0.1, 0.35, 1.0):
            assert normal_of(model, rho) == pytest.approx(torus_s_oracle(rho), abs=1e-12)

    def test_torus_forward_matches_quadrature_oracle(self):
        model = make_model("separable-torus")
        for s in (0.05, 0.3, 0.7, 1.2):
            assert weighted_depth(model, s) == pytest.approx(
                torus_rho_oracle(s), rel=1e-13
            )

    def test_roundtrip_property(self):
        # the inverse is conditioned by 1 / sqrt(V - E), which grows without
        # bound at the forbidden edge: s = edge - 1e-4 is about as close as
        # 1e-13 holds, and the edge itself is returned exactly
        for name in TANGENT_INVARIANT_MODELS:
            model = make_model(name)
            edge = model.forbidden_extent
            s = np.concatenate([np.linspace(0.0, edge, 41), [edge - 1e-4]])
            back = np.array([normal_of(model, weighted_depth(model, t)) for t in s])
            np.testing.assert_allclose(back, s, rtol=0.0, atol=1e-13)
            assert back[0] == 0.0
            assert back[-2] == edge

    def test_depth_past_forbidden_edge_adds_nothing(self):
        # V - E <= 0 beyond the edge, so the weighted depth stops growing
        model = make_model("separable-torus")
        top = weighted_depth(model, model.forbidden_extent)
        for depth in (2.3, 2.8, 3.1, math.pi):
            assert weighted_depth(model, depth) == pytest.approx(top, rel=1e-15)

    def test_out_of_range_arclength_rejected(self):
        model = make_model("separable-torus")
        top = weighted_depth(model, model.forbidden_extent)
        for rho in (top * 1.01, -1e-3):
            with pytest.raises(ValueError, match=rf"outside \[0, {top:g}\]"):
                separable_level_set(model, rho)

    def test_strip_rejected_before_any_compute(self, monkeypatch):
        # weighted_depth would invert the strip's least barrier without
        # complaint; the tangent-dependent potential must be refused first
        calls = []
        monkeypatch.setattr(agmon, "weighted_depth", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="depends on the tangential variable"):
            separable_level_set(make_model("strip-2d"), 0.1)
        assert calls == []


# --------------------------------------------------------------------------
# distance fields
# --------------------------------------------------------------------------


class TestAgmonDistance:
    def test_constant_weight_halfplane(self):
        model = make_model("halfplane-unit")
        field = agmon_distance(model, grid_sizes=(32, 65))
        assert field.values.shape == (32, 65)
        xn = field.axes[1]
        for i in (0, 7, 31):
            np.testing.assert_allclose(field.values[i], xn, atol=1e-12)

    def test_torus_column_matches_quadrature(self):
        model = make_model("separable-torus")
        field = agmon_distance(model, grid_sizes=(16, 128))
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
            field = agmon_distance(model, grid_sizes=(8, n))
            xn = field.axes[1]
            inside = (xn >= 0.0) & (xn <= 0.9 * model.collar_width_ambient)
            oracle = np.array([torus_rho_oracle(t) for t in xn[inside]])
            errors.append(np.max(np.abs(field.values[0, inside] - oracle)))
        assert errors[0] / errors[1] >= 1.5

    # explicit ids keep each case's test name stable
    @pytest.mark.parametrize(
        "name, grid_sizes",
        [
            pytest.param(
                "strip-2d", (128, 129), id="strip-2d-boundary-grid_sizes0"
            ),
            pytest.param(
                "separable-torus",
                (16, 128),
                id="separable-torus-boundary-grid_sizes1",
            ),
            pytest.param(
                "halfplane-unit", (32, 65), id="halfplane-unit-boundary-grid_sizes3"
            ),
        ],
    )
    def test_matches_reference_dijkstra_bitwise(self, name, grid_sizes):
        model = make_model(name)
        field = agmon_distance(model, grid_sizes=grid_sizes)
        oracle = reference_dijkstra(model, grid_sizes)
        assert field.values.shape == oracle.shape
        assert np.all(np.isfinite(oracle))
        assert np.array_equal(field.values, oracle)

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
    lo = 2 * (xn[1] - xn[0])
    hi = model.collar_width_ambient - lo
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
        assert fast.ambient_weights.sum() == pytest.approx(
            slow.ambient_weights.sum(), rel=1e-3
        )

    def test_separable_fast_path_accepts_the_hypersurface(self):
        model = make_model("separable-torus")
        level = separable_level_set(model, 0.0, n_tangential=32)
        np.testing.assert_allclose(level.points[:, 1], 0.0, atol=1e-12)
        assert level.ambient_weights.sum() == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_level_slope_wraps_around_the_circle(self):
        # a cosine graph over the tangent circle: the ambient weight at the
        # first and last samples is sqrt(1 + f'^2) d_xp to O(dx^2), as
        # inside, where one-sided end slopes leave O(dx), 2.4e-4 at m = 64
        errors = []
        for m in (64, 128):
            d_xp = 2.0 * math.pi / m
            x = d_xp * np.arange(m)
            heights = 0.3 + 0.1 * np.cos(x + 0.7)
            exact = np.sqrt(1.0 + (0.1 * np.sin(x + 0.7)) ** 2) * d_xp
            ambient = agmon._weights_for_curve(np.column_stack([x, heights]), d_xp)
            ends = np.abs(ambient - exact)[[0, -1]] / d_xp
            assert np.all(ends <= 0.01 * d_xp**2)
            errors.append(ends)
        assert np.all(errors[1] <= 0.3 * errors[0])  # second order

    def test_heights_match_scalar_scan_bitwise(self):
        model = make_model("strip-2d")
        field = agmon_distance(model, grid_sizes=(64, 129))
        xn = field.axes[1]
        # columns that cross each level several times: the first crossing
        # must be the one taken
        wavy = field.values * (1.0 + 0.9 * np.cos(40.0 * xn))
        wavy = DistanceField(wavy, field.axes, model)
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
        flat = DistanceField(values, field.axes, model)
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
