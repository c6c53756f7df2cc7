"""Tests for the private ports of scipy routines in ``agmonlab._numerics``.

Oracles used here: the scipy routines each port replaces (``CubicSpline``,
``cumulative_simpson``, ``brentq``, ``isotonic_regression`` and adaptive
``quad``), which the tests keep importing.  The spline, Simpson and Brent
ports must match them bitwise, the monotone fit to 1e-15 of the data's
scale, and the Gauss-Legendre rule to 1e-12 relative.  A fresh interpreter
checks that importing agmonlab loads none of the replaced subpackages.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import isotonic_regression

import agmonlab
from agmonlab import _numerics, models, quantize
from agmonlab._numerics import (
    Spline,
    count_below,
    cumulative_simpson,
    gauss_legendre,
    isotonic_fit,
    spline_slopes,
)
from agmonlab.experiments import _DECAY_FAR, _PARAMETRIX_FAR
from agmonlab.halfplane import mode_frequencies
from agmonlab.hjphase import solve_phase_series
from agmonlab.models import (
    KNOWN_MODELS,
    TANGENT_INVARIANT_MODELS,
    make_model,
    potential_grid,
    weighted_depth,
)
from agmonlab.quantize import build_cutoff_profile, build_phase_cutoff


def bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# cubic splines
# --------------------------------------------------------------------------


def coefficients(spline: Spline) -> np.ndarray:
    """The Hermite coefficients of every interval, shaped as ``CubicSpline.c``."""
    return spline._coefficients(np.arange(spline.x.size - 1))


class TestSpline:
    def test_not_a_knot_real_matches_scipy_bitwise(self):
        x = np.linspace(0.0, 2.0, 8193)
        y = np.sqrt(np.abs(np.cos(x))) + x**3
        ours, theirs = Spline(x, y), CubicSpline(x, y)
        assert bitwise(coefficients(ours), theirs.c)
        t = np.random.default_rng(3).uniform(-0.5, 2.5, 1000)
        assert bitwise(ours(t), theirs(t))
        assert bitwise(ours(x), theirs(x))

    def test_complex_columns_match_scipy_along_axis_1_bitwise(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(-1.0, 3.0, 512))
        y = rng.standard_normal((48, 512)) + 1j * rng.standard_normal((48, 512))
        ours, theirs = Spline(x, y.T), CubicSpline(x, y, axis=1)
        assert bitwise(coefficients(ours), theirs.c)
        for t in (0.0, 0.3, x[7]):
            assert bitwise(ours(t), theirs(t))
            assert bitwise(ours(t, 1), theirs(t, 1))

    def test_clamped_ends_match_scipy_bitwise(self):
        x = np.linspace(4.0, 8.0, 8193)
        y = 4.0 + np.cumsum(np.exp(-((x - 6.0) ** 2))) * (x[1] - x[0])
        ours = Spline(x, y, end_slopes=(1.0, 0.0))
        theirs = CubicSpline(x, y, bc_type=((1, 1.0), (1, 0.0)))
        assert bitwise(coefficients(ours), theirs.c)
        t = np.linspace(4.0, 8.0, 777)
        assert bitwise(ours(t), theirs(t))

    def test_one_point_forms_only_its_interval(self):
        # the knot slopes are one array of y's size, and a call forms the
        # coefficients of its own interval only: 4.13 times y's bytes
        # measured, against 7.0 when every interval's were formed
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-1.0, 1.0, 512))
        y = rng.standard_normal((512, 128)) + 1j * rng.standard_normal((512, 128))
        tracemalloc.start()
        try:
            value = Spline(x, y)(0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * y.nbytes
        assert bitwise(value, CubicSpline(x, y)(0.0))

    def test_first_derivative_inside_the_nodes_matches_scipy_bitwise(self):
        x = np.linspace(-1.0, 1.0, 801)
        y = np.exp(x) * np.sin(5.0 * x)
        t = np.random.default_rng(5).uniform(-1.0, 1.0, 500)
        assert bitwise(Spline(x, y)(t, 1), CubicSpline(x, y)(t, 1))

    def test_slopes_are_the_coefficient_rows_and_batch_independent(self):
        rng = np.random.default_rng(6)
        x = np.linspace(0.0, 0.8, 801)
        y = rng.standard_normal((801, 20))
        slopes = spline_slopes(x, y)
        assert bitwise(slopes[:-1], CubicSpline(x, y).c[2])
        assert bitwise(slopes[:, :7], spline_slopes(x, np.ascontiguousarray(y[:, :7])))

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([0.0, 1.0, 2.0], [1.0, 2.0, 0.0], "at least 4"),
            ([0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 0.0, 1.0], "strictly increasing"),
            ([0.0, 1.0, 2.0, 3.0], [1.0, np.nan, 0.0, 1.0], "finite"),
        ],
        ids=["three-nodes", "unsorted", "nan"],
    )
    def test_invalid_nodes_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            Spline(x, y)

    def test_derivative_order_two_rejected(self):
        x = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="derivative order"):
            Spline(x, x**2)(0.5, 2)


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [3, 4, 1025, 8193])
    def test_linspace_grid_matches_scipy_bitwise(self, n):
        x = np.linspace(0.5, 4.0, n)
        y = np.sqrt(np.maximum(np.cos(x) + 1.2, 0.0))
        assert bitwise(cumulative_simpson(y, x), scipy_cumulative_simpson(y, x=x, initial=0.0))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            cumulative_simpson(np.ones(4), np.array([0.0, 1.0, 0.5, 2.0]))


def quad_least_barrier_arclength(model, upper):
    """The adaptive quadrature the Gauss-Legendre rule replaced, over the
    models' tangential validation probe, asked for 1e-13 relative."""
    probe = np.linspace(0.0, model.lengths[0], models._PROBE_TANGENTIAL, endpoint=False)

    def weight(t):
        vals = potential_grid(model, probe, np.array([t]))[:, 0]
        return math.sqrt(max(float(np.min(vals)) - model.energy, 0.0))

    return quad(weight, 0.0, upper, limit=200, epsabs=0.0, epsrel=1e-13)[0]


class TestGaussLegendre:
    def test_rule_integrates_degree_63_exactly(self):
        t, w = gauss_legendre(-1.0, 3.0)
        assert np.all((t > -1.0) & (t < 3.0))
        assert float(w @ t**63) == pytest.approx((3.0**64 - 1.0) / 64.0, rel=1e-13)

    @pytest.mark.parametrize("name", sorted(KNOWN_MODELS))
    def test_collar_width_matches_quad(self, name):
        model = make_model(name)
        oracle = quad_least_barrier_arclength(model, model.collar_width_ambient)
        assert model.collar_width == pytest.approx(oracle, rel=1e-12)

    # the shipped far closures on the models whose normal range reaches
    # them, and two depths inside strip-2d's range [0, 0.8]
    @pytest.mark.parametrize(
        "name, far",
        [
            ("halfplane-unit", _DECAY_FAR),
            ("halfplane-unit", _PARAMETRIX_FAR),
            ("separable-torus", _DECAY_FAR),
            ("separable-torus", _PARAMETRIX_FAR),
            ("strip-2d", 0.4),
            ("strip-2d", 0.8),
        ],
    )
    def test_far_boundary_depth_matches_quad(self, name, far):
        model = make_model(name)
        oracle = quad_least_barrier_arclength(model, far)
        assert weighted_depth(model, far) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("name", TANGENT_INVARIANT_MODELS)
    def test_depth_matches_quad_up_to_the_edge(self, name):
        # on separable-torus sqrt(V - E) has a square-root edge at the
        # forbidden edge, the last depth of the grid, and a branch point
        # just past the interval for the depths close below it
        model = make_model(name)
        edge = model.forbidden_extent
        depths = np.concatenate(
            [np.linspace(0.0, edge, 33)[1:], edge - np.logspace(-8.0, -1.0, 15)]
        )
        for depth in depths:
            oracle = quad_least_barrier_arclength(model, depth)
            assert weighted_depth(model, depth) == pytest.approx(oracle, rel=1e-12)


# --------------------------------------------------------------------------
# Sturm count, root finding and monotone regression
# --------------------------------------------------------------------------


@pytest.fixture
def brent_pairs(monkeypatch):
    """Swap a module's brentq for one that also runs scipy's on the same
    call; the list collects (ours, scipy's) per root."""
    pairs = []

    def compared(f, a, b, **kwargs):
        ours = _numerics.brentq(f, a, b, **kwargs)
        pairs.append((ours, scipy_brentq(f, a, b, **kwargs)))
        return ours

    def install(module):
        monkeypatch.setattr(module, "brentq", compared)
        return pairs

    return install


class TestBrentq:
    def test_model_crossings_match_scipy_bitwise(self, brent_pairs):
        pairs = brent_pairs(models)
        for name in sorted(KNOWN_MODELS):
            make_model(name)
        assert len(pairs) >= 2
        assert all(ours == theirs and type(ours) is float for ours, theirs in pairs)

    def test_phase_level_roots_match_scipy_bitwise(self, brent_pairs):
        pairs = brent_pairs(quantize)
        profile = build_cutoff_profile(8.0)
        for name, h, rho in (("halfplane-unit", 0.05, 0.25), ("separable-torus", 0.04, 0.3)):
            freqs = mode_frequencies(128, 2.0 * math.pi, h)
            series = solve_phase_series(make_model(name), "agmon", 6, freqs)
            build_phase_cutoff(series, profile, rho, h)
        assert len(pairs) == 4
        assert all(ours == theirs for ours, theirs in pairs)

    def test_seeded_roots_match_scipy_bitwise(self):
        rng = np.random.default_rng(7)
        for c in rng.uniform(0.1, 3.0, 40):
            for f in (
                lambda t: math.exp(t) - 1.0 - c,
                lambda t: t**3 - c,
                lambda t: math.tanh(5.0 * (t - c)) + 0.01,
            ):
                for xtol in (2e-12, 1e-12):
                    ours = _numerics.brentq(f, 0.0, 5.0, xtol=xtol)
                    assert ours == scipy_brentq(f, 0.0, 5.0, xtol=xtol)

    def test_same_signs_and_nan_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _numerics.brentq(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            _numerics.brentq(lambda t: math.nan if t > 0.5 else -1.0, 0.0, 1.0)

    def test_iteration_cap_raises_as_scipy_does(self, monkeypatch):
        def step(t):
            return math.tanh(50.0 * (t - math.pi))

        monkeypatch.setattr(_numerics, "_BRENT_MAXITER", 5)
        with pytest.raises(RuntimeError, match="converge after 5 iterations"):
            _numerics.brentq(step, 0.0, 4.0)
        with pytest.raises(RuntimeError, match="converge after 5 iterations"):
            scipy_brentq(step, 0.0, 4.0, maxiter=5)


class TestIsotonicFit:
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(8).standard_normal(9),
            np.random.default_rng(9).standard_normal(60).cumsum(),
            np.full(7, 2.5),
            np.arange(9.0)[::-1],
            np.array([3.0]),
        ],
        ids=["seeded", "seeded-walk", "all-equal", "decreasing", "single"],
    )
    def test_rise_matches_scipy(self, values):
        ours = isotonic_fit(values)
        theirs = isotonic_regression(values, increasing=True).x
        scale = float(np.max(np.abs(values)))
        assert abs((ours[-1] - ours[0]) - (theirs[-1] - theirs[0])) <= 1e-15 * scale
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-15 * scale)
        assert np.all(np.diff(ours) >= 0.0)


class TestCountBelow:
    def test_sturm_count_matches_eigenvalue_count(self):
        rng = np.random.default_rng(4)
        diag, off = rng.normal(size=40), rng.normal(size=39)
        w = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        for shift in np.concatenate([[w[0] - 1.0], 0.5 * (w[1:] + w[:-1]), [w[-1] + 1.0]]):
            assert count_below(diag, off, shift) == np.sum(w < shift)
        # exact zero pivots at the shift 0: eigenvalues -sqrt 2, 0, sqrt 2;
        # -0.80, 0.55, 2.25; and 0 four times
        for diag, below in (([0.0, 0.0, 0.0], 1), ([1.0, 1.0, 0.0], 1), ([0.0] * 4, 0)):
            off = np.ones(len(diag) - 1) if below else np.zeros(len(diag) - 1)
            assert count_below(np.array(diag), off, 0.0) == below


# --------------------------------------------------------------------------
# import graph
# --------------------------------------------------------------------------


def test_importing_agmonlab_loads_only_linalg_and_sparse():
    layers = ("agmon", "experiments", "fcalc", "halfplane", "hjphase", "models", "quantize", "solver")
    code = "\n".join(
        ["import sys", "import agmonlab", "import agmonlab.cli"]
        + [f"import agmonlab.{name}" for name in layers]
        + [
            "banned = ('scipy.integrate', 'scipy.interpolate', 'scipy.optimize', 'scipy.special',"
            " 'urllib.request', 'http.client', 'ssl')",
            "print(' '.join(sorted(m for m in sys.modules if m.startswith(banned))))",
        ]
    )
    src = str(Path(agmonlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert done.stdout.split() == []
