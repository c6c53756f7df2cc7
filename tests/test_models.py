"""Tests for the model catalogue: validation, evaluators, Taylor data."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from agmonlab.models import (
    ModelProblem,
    PotentialSpec,
    domain_axes,
    make_model,
    normal_taylor_coefficients,
    potential_grid,
    transverse_potential,
)

ALL_MODELS = ["halfplane-unit", "separable-torus", "strip-2d"]


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


def test_degenerate_model_rejected_not_clamped():
    # the hypersurface touches {V = E} when E equals the barrier top
    with pytest.raises(ValueError, match="hypersurface"):
        make_model("separable-torus", {"E": 2.0})


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
        name="hand-built",
        potential=PotentialSpec("constant-barrier", (1.0,), margin=1.0),
        energy=0.0,
        geometry="halfplane-cylinder",
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
    model = make_model(name)
    assert model.potential.margin > 0
    # recompute the collar minimum on an independent probe grid
    s = np.linspace(0.0, model.collar_width_ambient, 701)
    xp = np.linspace(0.0, model.lengths[0], 97, endpoint=False)
    barrier = potential_grid(model, xp, s) - model.energy
    assert barrier.min() >= model.potential.margin - 1e-9


# --------------------------------------------------------------------------
# Taylor data and grids
# --------------------------------------------------------------------------


def test_normal_taylor_matches_derivative_oracle():
    """Taylor rows vs numerically differentiated barrier profiles."""
    model = make_model("separable-torus", {"E": 0.5})
    coeffs = normal_taylor_coefficients(model, 6)
    s = 1e-2
    w = transverse_potential(model)
    series = sum(coeffs[j, 0] * s**j for j in range(7))
    exact = float(w(np.array([s]))[0]) - model.energy
    assert series == pytest.approx(exact, abs=1e-16 + abs(exact) * 1e-12)

    strip = make_model("strip-2d")
    xp = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    cs = normal_taylor_coefficients(strip, 4, xp)
    sn = 0.05
    exact_vals = potential_grid(strip, xp, np.array([sn]))[:, 0] - strip.energy
    series_vals = sum(cs[j] * sn**j for j in range(5))
    assert np.allclose(series_vals, exact_vals, rtol=1e-12)


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
