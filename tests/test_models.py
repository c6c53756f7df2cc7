"""Tests for the model catalogue: validation, evaluators, Taylor data."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from agmonlab import hjphase
from agmonlab._numerics import gauss_legendre
from agmonlab.experiments import ConfigError, parse_config
from agmonlab.models import (
    KNOWN_MODELS,
    TANGENT_INVARIANT_MODELS,
    ModelProblem,
    domain_axes,
    make_model,
    normal_taylor_coefficients,
    potential_grid,
    transverse_potential,
    weighted_depth,
)

ALL_MODELS = sorted(KNOWN_MODELS)


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------


def test_halfplane_unit_is_constant_barrier():
    model = make_model("halfplane-unit")
    xp = np.linspace(0, 2 * math.pi, 17)
    xn = np.linspace(0, 2.0, 13)
    barrier = potential_grid(model, xp, xn) - model.energy
    assert np.all(barrier == 1.0)


def test_separable_torus_collar_halfwidth_matches_root_find():
    model = make_model("separable-torus", {"E": 0.5})
    # oracle: scalar root find for 1 + cos(s) = 0.5
    root = brentq(lambda s: 1.0 + math.cos(s) - 0.5, 1.0, 3.0, xtol=1e-13)
    assert root == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    assert model.forbidden_extent == pytest.approx(root, abs=1e-9)
    # collar rule: half the distance to the point where the barrier halves
    half = brentq(lambda s: 0.5 + math.cos(s) - 0.75, 0.5, 2.0, xtol=1e-13)
    assert model.collar_width_ambient == pytest.approx(half / 2.0, abs=1e-9)


@pytest.mark.parametrize(
    "name, params",
    [
        ("halfplane-unit", {}),
        ("halfplane-unit", {"height": 3.0}),
        ("separable-torus", {}),
        ("separable-torus", {"E": 1.2}),
        ("separable-torus", {"E": -0.5}),
        ("strip-2d", {}),
    ],
)
def test_measurement_is_that_of_the_full_tangential_probe(name, params, monkeypatch):
    # a model with Taylor data is validated on one tangential column; its
    # collar widths and forbidden extent are bitwise those of the
    # 128-column probe, taken here by measuring with the Taylor data hidden
    model = make_model(name, params)
    xp = np.linspace(0.0, model.lengths[0], 128, endpoint=False)
    s = np.linspace(0.0, model.axis_bounds(1)[1], 2049)
    barrier = potential_grid(model, xp, s) - model.energy
    if name in TANGENT_INVARIANT_MODELS:
        assert np.array_equal(barrier.min(axis=0), barrier[0])
    monkeypatch.setitem(
        KNOWN_MODELS, name, replace(KNOWN_MODELS[name], taylor=None)
    )
    probed = make_model(name, params)
    for key in ("collar_width", "collar_width_ambient", "forbidden_extent"):
        assert getattr(model, key) == getattr(probed, key), key


@pytest.mark.parametrize("name", list(TANGENT_INVARIANT_MODELS))
def test_tangent_invariant_model_validates_in_a_small_footprint(name):
    # one probe column of 2,049 normal nodes, not 128 of them (4.1 MiB)
    tracemalloc.start()
    try:
        make_model(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20


def test_degenerate_model_rejected_not_clamped():
    # the hypersurface touches {V = E} when E equals the barrier top
    with pytest.raises(ValueError, match="hypersurface"):
        make_model("separable-torus", {"E": 2.0})


@pytest.mark.parametrize("name, param", [("strip-2d", "a"), ("separable-torus", "E")])
def test_non_finite_parameter_rejected(name, param):
    with pytest.raises(ValueError, match="finite"):
        make_model(name, {param: float("nan")})


def test_unknown_model_name_reports_catalogue():
    with pytest.raises(ValueError, match="known models"):
        make_model("no-such-model")


def test_models_are_hashable_and_frozen():
    model = make_model("halfplane-unit")
    hash(model)
    with pytest.raises(AttributeError):
        model.energy = 1.0  # type: ignore[misc]


def _hand_built(lengths, periodic):
    return ModelProblem(
        name="halfplane-unit",
        energy=0.0,
        lengths=lengths,
        periodic=periodic,
        collar_width=0.5,
        collar_width_ambient=0.5,
        forbidden_extent=1.0,
        params=(),
    )


@pytest.mark.parametrize(
    "lengths, periodic",
    [
        ((1.0,), (False,)),
        ((6.0, 2.0, 1.0), (True, False, False)),
        ((6.0, 2.0), (False, False)),
    ],
    ids=["one-axis", "three-axes", "bounded-tangential-axis"],
)
def test_model_needs_two_axes_with_a_periodic_tangent(lengths, periodic):
    _hand_built((6.0, 2.0), (True, False))  # a (circle, normal) collar builds
    with pytest.raises(ValueError, match="needs exactly two axes"):
        _hand_built(lengths, periodic)


# --------------------------------------------------------------------------
# collar margins
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_MODELS)
def test_collar_margin_positive_and_attained(name):
    # the validated collar keeps V - E positive on an independent probe grid
    model = make_model(name)
    s = np.linspace(0.0, model.collar_width_ambient, 701)
    xp = np.linspace(0.0, model.lengths[0], 97, endpoint=False)
    barrier = potential_grid(model, xp, s) - model.energy
    assert barrier.min() > 0.0


@pytest.mark.parametrize("name", ALL_MODELS)
def test_weighted_depth_outside_the_normal_range_rejected(name):
    # the normal range ends at 2 on halfplane-unit, pi on separable-torus
    # and 0.8 on strip-2d; a far closure's 1e-12 slack is allowed
    model = make_model(name)
    end = model.axis_bounds(1)[1]
    for depth in (-1e-9, end + 1e-9, end + 0.5):
        with pytest.raises(ValueError, match="outside the normal range"):
            weighted_depth(model, depth)
    assert weighted_depth(model, end + 1e-13) == weighted_depth(model, end)
    assert weighted_depth(model, 0.0) == 0.0


@pytest.mark.parametrize("name", ALL_MODELS)
def test_weighted_depth_is_the_least_over_the_full_tangential_probe(name):
    # the rule at the least favourable of 128 tangential columns, computed
    # here: a tangent-invariant model probes one column and must match it
    # bitwise, and strip-2d, whose columns differ, must probe them all; the
    # depths run past the forbidden edge to the end of the normal range
    model = make_model(name)
    xp = np.linspace(0.0, model.lengths[0], 128, endpoint=False)
    edge = model.forbidden_extent
    root = math.sqrt(edge)
    for depth in np.linspace(0.0, model.axis_bounds(1)[1], 7):
        clamped = min(float(depth), edge)
        g, w = gauss_legendre(0.0, clamped / (root + math.sqrt(edge - clamped)))
        u = root - g
        least = potential_grid(model, xp, g * (root + u)).min(axis=0) - model.energy
        expected = float((2.0 * u * w) @ np.sqrt(np.maximum(least, 0.0)))
        assert weighted_depth(model, float(depth)) == expected, depth


# --------------------------------------------------------------------------
# Taylor data and grids
# --------------------------------------------------------------------------


def test_normal_taylor_matches_derivative_oracle():
    """Taylor rows vs numerically differentiated barrier profiles."""
    model = make_model("separable-torus", {"E": 0.5})
    coeffs = normal_taylor_coefficients(model, 6)
    s = 1e-2
    w = transverse_potential(model)
    assert coeffs.shape == (7,)
    series = sum(coeffs[j] * s**j for j in range(7))
    exact = float(w(np.array([s]))[0]) - model.energy
    assert series == pytest.approx(exact, abs=1e-16 + abs(exact) * 1e-12)


def test_normal_taylor_rejects_tangential_dependence():
    with pytest.raises(ValueError, match="'strip-2d' depends on the tangential"):
        normal_taylor_coefficients(make_model("strip-2d"), 4)


def test_transverse_potential_rejects_tangential_dependence():
    with pytest.raises(ValueError, match="tangential"):
        transverse_potential(make_model("strip-2d"))


def test_domain_axes_put_node_on_hypersurface():
    torus = make_model("separable-torus")
    xp, xn = domain_axes(torus, (32, 32))
    assert 0.0 in xn
    strip = make_model("strip-2d")
    _, sn = domain_axes(strip, (16, 16))
    assert 0.0 in sn


# --------------------------------------------------------------------------
# each entry's declaration against its potential
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_MODELS)
def test_taylor_data_declared_exactly_when_tangent_invariant(name):
    model = make_model(name)
    xp = np.linspace(0.0, model.lengths[0], 64, endpoint=False)
    lo, hi = model.axis_bounds(1)
    values = potential_grid(model, xp, np.linspace(lo, hi, 33))
    varies = bool(np.any(values.max(axis=0) > values.min(axis=0)))
    assert varies == (KNOWN_MODELS[name].taylor is None)
    assert (name in TANGENT_INVARIANT_MODELS) == (not varies)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_tangent_dependent_models_rejected_before_any_recursion(name, monkeypatch):
    calls = []
    for helper in ("_series_sqrt", "_recursion"):
        original = getattr(hjphase, helper)

        def counted(*args, _original=original, _helper=helper):
            calls.append(_helper)
            return _original(*args)

        monkeypatch.setattr(hjphase, helper, counted)
    model = make_model(name)
    xi = np.linspace(-0.5, 0.5, 5)
    uses = {
        "normal_taylor_coefficients": lambda: normal_taylor_coefficients(model, 4),
        "transverse_potential": lambda: transverse_potential(model),
        "agmon series": lambda: hjphase.solve_phase_series(model, "agmon", 4, xi),
        "ambient series": lambda: hjphase.solve_phase_series(model, "ambient", 4, xi),
    }
    if name in TANGENT_INVARIANT_MODELS:
        for use in uses.values():
            use()
        assert calls  # the series ran their recursions
        return
    for use in uses.values():
        with pytest.raises(ValueError, match=f"{name!r} depends on the tangential"):
            use()
    assert not calls


@pytest.mark.parametrize("kind", ["phase-residual", "symbol-class"])
def test_phase_kinds_support_exactly_the_tangent_invariant_models(kind, tmp_path):
    supported = []
    for name in KNOWN_MODELS:
        payload = {
            "kind": kind,
            "model": name,
            "h_sweep": [0.1, 0.05, 0.025, 0.0125],
            "rho_grid": [0.05],
            "grid": [16, 128],
            "out": str(tmp_path),
        }
        try:
            parse_config(payload)
        except ConfigError as exc:
            if "does not run on" in exc.field_errors.get("model", ""):
                continue
        supported.append(name)
    assert tuple(supported) == TANGENT_INVARIANT_MODELS
