"""Tests for the collar Hamilton-Jacobi phase series.

Oracles used here:
  * closed forms for the flat barrier: phi_1 = x_n (sqrt(1 + xi^2) - 1)
    (gauged) and x_n sqrt(1 + xi^2) (ambient), and for the quadratic
    barrier (1 + x)^2 at zero frequency: ambient phase x + x^2/2 exactly;
  * the collar quadrature/spline inverse as an independent check of the
    metric Taylor data and of the ambient zero-frequency column;
  * the exact composition identity: ambient phase at ambient depth s =
    weighted distance rho(s) + gauged phase at depth rho(s);
  * the half-plane spectral multiplier and the boundary-value solver as
    parametrix oracles;
  * ``reference_phase_series``: the recursion, Horner evaluation and
    equation residual run at every (tangent, frequency) node, against
    which the distinct-row path must agree bitwise.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from agmonlab.agmon import separable_collar, separable_level_set
from agmonlab.halfplane import BoundaryFunction, apply_halfplane_poisson
from agmonlab.hjphase import (
    agmon_metric_taylor,
    apply_poisson_parametrix,
    evaluate_phase,
    mode_frequencies,
    phase_function,
    phase_residual,
    solve_phase_series,
)
from agmonlab.models import make_model, normal_taylor_coefficients
from agmonlab.solver import poisson_bvp, trace_at

TORUS = make_model("separable-torus")
FLAT = make_model("halfplane-unit")
STRIP = make_model("strip-2d")

STRUCT_FREQS = np.array([0.0, 0.001, -0.001, 0.002, 0.1, 0.5, -0.5, 1.0, 2.0, -2.0])


def reference_phase_series(model, kind, order, nodes, freqs):
    """Full-grid oracle: the phase recursion run at every boundary node.

    Expands the right-hand side of the equation to every (tangent,
    frequency) node, (w)^2 + 2 w = T(x_n) xi^2 (agmon) or
    (w)^2 = (V - E)(x', x_n) + xi^2 (ambient), and runs the decaying-branch
    recursion there, carrying 9 Taylor orders beyond K for the residual.
    Returns the coefficients c_1..c_{K+1}, shape (K+1, n_tangential,
    n_frequencies), and two callables on depth arrays: phi_1 by Horner's
    rule, and (|equation residual|, |right-hand side|) per (depth,
    tangent, frequency).
    """
    ld = np.longdouble
    k_ext = order + 9
    xi2 = np.asarray(freqs, dtype=ld) ** 2
    if kind == "agmon":
        table = agmon_metric_taylor(model, k_ext)[:, None]
    else:
        table = normal_taylor_coefficients(
            model, k_ext, tangential_nodes=nodes
        ).astype(ld)
    table = np.broadcast_to(table, (k_ext + 1, nodes.size)).copy()
    if kind == "agmon":
        data = table[:, :, None] * xi2[None, None, :]
    else:
        data = table[:, :, None] * np.ones((1, 1, freqs.size), dtype=ld)
        data[0] = data[0] + xi2[None, :]
    w = np.zeros((order + 1,) + data.shape[1:], dtype=ld)
    if kind == "agmon":
        w[0] = data[0] / (1.0 + np.sqrt(1.0 + data[0]))
        divisor = 2.0 * (1.0 + w[0])
    else:
        w[0] = np.sqrt(data[0])
        divisor = 2.0 * w[0]
    for m in range(1, order + 1):
        acc = np.zeros(data.shape[1:], dtype=ld)
        for i in range(1, m):
            acc = acc + w[i] * w[m - i]
        w[m] = (data[m] - acc) / divisor
    powers = np.arange(1, order + 2, dtype=ld)
    coefficients = w / powers[:, None, None]

    def phase(depths):
        x = np.asarray(depths, dtype=ld)
        out = np.zeros((x.size,) + coefficients.shape[1:], dtype=ld)
        for row in coefficients[::-1]:
            out = (out + row[None]) * x[:, None, None]
        return out.astype(float)

    def residual(depths):
        x = np.asarray(depths, dtype=ld)
        w_val = np.zeros((x.size,) + coefficients.shape[1:], dtype=ld)
        for row in (coefficients * powers[:, None, None])[::-1]:
            w_val = w_val * x[:, None, None] + row[None]
        vals = np.zeros((x.size, nodes.size), dtype=ld)
        for row in table[::-1]:
            vals = vals * x[:, None] + row[None]
        if kind == "agmon":
            rhs = vals[:, :, None] * xi2[None, None, :]
            res = w_val**2 + 2.0 * w_val - rhs
        else:
            rhs = vals[:, :, None] + xi2[None, None, :]
            res = w_val**2 - rhs
        return np.abs(res), np.abs(rhs)

    return coefficients, phase, residual


def torus_height(s):
    return 0.5 + np.cos(s)


def torus_rho_of_s(s: float) -> float:
    val, _ = quad(lambda t: math.sqrt(0.5 + math.cos(t)), 0.0, s)
    return val


def torus_s_of_rho(rho: float) -> float:
    return brentq(lambda s: torus_rho_of_s(s) - rho, 0.0, 2.0 * math.pi / 3 - 1e-9)


def small_frequency_ratios(series, depths):
    """(phi_1 - phi_1|_{xi'=0}) / xi'^2 per depth at the two smallest nonzero
    levels of |xi'| on STRUCT_FREQS, 0.001 and 0.002, each the sup over the
    tangent and the frequency sign."""
    phi = evaluate_phase(series, depths)
    reduced = np.abs(phi - phi[:, :, STRUCT_FREQS == 0.0])
    return tuple(
        np.max(reduced[:, :, np.abs(STRUCT_FREQS) == level], axis=(1, 2)) / level**2
        for level in (0.001, 0.002)
    )


def leading_term_constant(series, depths) -> float:
    """Smallest C with |phi_1 - x_n (sqrt(1 + |xi'|_0^2) - 1)| <= C x_n^2 |xi'|_0
    over the nonzero frequencies, where |xi'|_0 = sqrt(T(0)) |xi'| is the
    metric norm at the hypersurface."""
    xi = series.frequencies
    keep = xi != 0.0
    norm0 = math.sqrt(float(series.meta["taylor_table"][0])) * np.abs(xi[keep])
    lead = np.sqrt(1.0 + norm0**2) - 1.0
    phi = evaluate_phase(series, depths)[:, :, keep]
    x = np.asarray(depths)[:, None, None]
    return float(np.max(np.abs(phi - x * lead) / (x**2 * norm0)))


class TestMetricTaylor:
    def test_flat_is_identity(self):
        t = agmon_metric_taylor(FLAT, 8)
        assert float(t[0]) == 1.0
        assert np.max(np.abs(t[1:].astype(float))) == 0.0

    def test_torus_matches_quadrature_inverse(self):
        t = agmon_metric_taylor(TORUS, 14)
        for rho in (0.1, 0.3):
            val = 0.0
            for coef in t[::-1]:
                val = val * rho + float(coef)
            s_star = torus_s_of_rho(rho)
            exact = 1.0 / (0.5 + math.cos(s_star))
            assert val == pytest.approx(exact, rel=1e-6)

    def test_rejects_tangentially_varying_barrier(self):
        with pytest.raises(ValueError, match="tangentially invariant"):
            agmon_metric_taylor(STRIP, 6)


class TestSolvePhaseSeries:
    def test_flat_closed_form(self):
        xi = np.array([0.0, 0.3, -0.7, 1.5])
        series = solve_phase_series(FLAT, "agmon", 6, (np.array([0.0]), xi))
        lead = np.sqrt(1.0 + xi**2) - 1.0
        c = series.coefficients.astype(float)
        assert c.shape == (7, 1, 4)
        assert c[0, 0] == pytest.approx(lead, abs=1e-15)
        assert np.max(np.abs(c[1:])) < 1e-18
        phi = evaluate_phase(series, 0.4)
        assert phi[0] == pytest.approx(0.4 * lead, rel=1e-14)

    def test_zero_frequency_column_vanishes(self):
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        col = np.where(STRUCT_FREQS == 0.0)[0][0]
        assert np.max(np.abs(series.coefficients[:, :, col].astype(float))) == 0.0

    def test_even_in_frequency(self):
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        c = series.coefficients
        for plus, minus in ((1, 2), (5, 6), (8, 9)):
            assert np.array_equal(c[:, :, plus], c[:, :, minus])

    def test_positivity_on_collar(self):
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        depths = np.linspace(0.05, 0.5, 12) * series.meta["collar_limit"]
        phi = evaluate_phase(series, depths)
        nonzero = STRUCT_FREQS != 0.0
        assert np.min(phi[:, :, nonzero]) > 0.0
        assert np.max(np.abs(phi[:, :, ~nonzero])) == 0.0

    def test_divisor_bounds(self):
        gauged = solve_phase_series(TORUS, "agmon", 4, (np.array([0.0]), STRUCT_FREQS))
        assert gauged.meta["divisor_min"] == pytest.approx(2.0)
        ambient = solve_phase_series(
            TORUS, "ambient", 4, (np.array([0.0]), STRUCT_FREQS)
        )
        # barrier height at the mid-barrier hypersurface is 1.5
        assert ambient.meta["divisor_min"] == pytest.approx(2.0 * math.sqrt(1.5))
        assert ambient.meta["divisor_min"] >= 1.0

    def test_ambient_leading_coefficient(self):
        xp = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
        xi = np.array([0.0, 0.5, 1.0])
        series = solve_phase_series(STRIP, "ambient", 4, (xp, xi))
        expected = np.sqrt(
            (1.0 + 0.2 * np.cos(xp))[:, None] + (xi**2)[None, :]
        )
        assert series.coefficients[0].astype(float) == pytest.approx(
            expected, rel=1e-14
        )

    def test_barrier_1d_ambient_is_exact(self):
        # the one check of odd normal Taylor terms: at zero frequency the
        # Taylor table of the one-variable barrier (1 + x)^2 gives w = 1 + x,
        # so the phase coefficients w_m / (m + 1) are (1, 1/2, 0, ...) exactly
        from agmonlab.hjphase import _ambient_recursion

        q = np.zeros((6, 1, 1), dtype=np.longdouble)
        q[:3, 0, 0] = [1.0, 2.0, 1.0]
        w = _ambient_recursion(q, 5)
        c = (w[:, 0, 0] / np.arange(1, 7, dtype=np.longdouble)).astype(float)
        assert c[0] == 1.0
        assert c[1] == 0.5
        assert np.max(np.abs(c[2:])) == 0.0

    def test_ambient_zero_frequency_column_is_distance(self):
        series = solve_phase_series(
            TORUS, "ambient", 10, (np.array([0.0]), np.array([0.0]))
        )
        collar = separable_collar(TORUS)
        for s in (0.02, 0.05, 0.1):
            phi = float(evaluate_phase(series, s)[0, 0])
            assert phi == pytest.approx(float(collar.rho_of_s(s)), abs=1e-10)

    def test_ambient_equals_distance_plus_gauged(self):
        # exact identity: ambient phase at ambient depth s equals
        # rho(s) + gauged phase at weighted depth rho(s)
        xi = np.array([0.0, 0.4, 1.0])
        ambient = solve_phase_series(TORUS, "ambient", 10, (np.array([0.0]), xi))
        gauged = solve_phase_series(TORUS, "agmon", 10, (np.array([0.0]), xi))
        collar = separable_collar(TORUS)
        for s in (0.02, 0.05, 0.1):
            rho = float(collar.rho_of_s(s))
            lhs = evaluate_phase(ambient, s)[0]
            rhs = rho + evaluate_phase(gauged, rho)[0]
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_branch_ambiguity_rejected(self):
        from agmonlab.hjphase import _ambient_recursion

        q = np.zeros((3, 1, 2), dtype=np.longdouble)
        q[0, 0] = [0.0, 1.0]
        with pytest.raises(ValueError, match="branch ambiguity"):
            _ambient_recursion(q, 2)

    def test_order_guard(self):
        with pytest.raises(ValueError, match="at least 2"):
            solve_phase_series(FLAT, "agmon", 1, (np.array([0.0]), np.array([0.5])))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            solve_phase_series(FLAT, "fermi", 4, (np.array([0.0]), np.array([0.5])))

    def test_coefficients_frozen(self):
        series = solve_phase_series(
            FLAT, "agmon", 4, (np.array([0.0]), np.array([0.5]))
        )
        with pytest.raises(ValueError):
            series.coefficients[0, 0, 0] = 1.0


class TestDistinctRows:
    """The distinct-row path against the full-grid ``reference_phase_series``."""

    NODES = 2.0 * math.pi / 64 * np.arange(64)
    FREQS = mode_frequencies(64, 2.0 * math.pi, 0.05)
    ORDER = 8

    def _check_against_reference(self, model, kind, fractions):
        series = solve_phase_series(model, kind, self.ORDER, (self.NODES, self.FREQS))
        coeff, phase, residual = reference_phase_series(
            model, kind, self.ORDER, self.NODES, self.FREQS
        )
        assert series.coefficients.shape == (self.ORDER + 1, 64, 64)
        assert np.array_equal(series.coefficients, coeff)
        depths = np.asarray(fractions) * series.meta["collar_limit"]
        expected = phase(depths)
        stacked = evaluate_phase(series, depths)
        assert stacked.shape == (depths.size, 64, 64)
        assert np.array_equal(stacked, expected)
        for d, want in zip(depths, expected):
            got = evaluate_phase(series, d)
            assert got.shape == (64, 64)
            assert np.array_equal(got, want)

        report = phase_residual(series, depths)
        x = np.sort(depths.astype(np.longdouble))
        resid, rhs = residual(x)
        max_res = np.max(resid, axis=(1, 2)).astype(float)
        rel = np.max(resid / np.maximum(1.0, rhs), axis=(1, 2)).astype(float)
        slope = float(np.polyfit(np.log(x.astype(float)), np.log(max_res), 1)[0])
        radius = 0.0
        for i in range(x.size):
            if not (rel[: i + 1] < 1e-3).all():
                break
            radius = float(x[i])
        assert np.array_equal(report.samples, x.astype(float))
        assert np.array_equal(report.max_residual, max_res)
        assert np.array_equal(report.relative_residual, rel)
        assert report.fitted_exponent == slope
        assert report.validity_radius == radius
        return series

    @pytest.mark.parametrize("kind", ["agmon", "ambient"])
    def test_torus_matches_full_grid_reference(self, kind):
        series = self._check_against_reference(
            TORUS, kind, [0.01, 0.05, 0.2, 0.5, 0.9]
        )
        assert series.row_coefficients.shape == (self.ORDER + 1, 1, 64)

    def test_strip_ambient_rows_differ_and_match_reference(self):
        series = self._check_against_reference(
            STRIP, "ambient", [0.02, 0.1, 0.3, 0.6]
        )
        assert series.row_coefficients.shape == (self.ORDER + 1, 64, 64)
        assert np.min(np.ptp(series.coefficients[0].astype(float), axis=0)) > 0.1

    @pytest.mark.parametrize("model,kind", [(TORUS, "agmon"), (STRIP, "ambient")])
    def test_coefficients_and_phase_read_only(self, model, kind):
        series = solve_phase_series(model, kind, 4, (self.NODES, self.FREQS))
        assert not series.coefficients.flags.writeable
        assert not series.row_coefficients.flags.writeable
        with pytest.raises(ValueError):
            series.coefficients[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            series.row_coefficients[0, 0, 0] = 1.0
        assert not evaluate_phase(series, 0.1).flags.writeable

    def test_row_count_must_be_one_or_n_tangential(self):
        series = solve_phase_series(STRIP, "ambient", 4, (self.NODES, self.FREQS))
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(
                series, coefficients=np.array(series.row_coefficients[:, :2])
            )


class TestPhaseResidual:
    def test_flat_residual_is_rounding_level(self):
        xi = np.array([0.0, 0.5, 1.0, 2.0])
        series = solve_phase_series(FLAT, "agmon", 4, (np.array([0.0]), xi))
        report = phase_residual(series, np.geomspace(1e-3, 0.5, 10))
        assert np.max(report.max_residual) < 1e-15

    def test_torus_truncation_order(self):
        xi = np.array([0.3, 1.0, 2.0])
        series = solve_phase_series(TORUS, "agmon", 4, (np.array([0.0]), xi))
        report = phase_residual(series, np.geomspace(1e-3, 1e-1, 25))
        assert report.fitted_exponent >= 4.5

    def test_truncation_monotonicity(self):
        xi = np.array([0.3, 1.0, 2.0])
        samples = np.geomspace(1e-3, 1e-1, 25)
        k2 = phase_residual(
            solve_phase_series(TORUS, "agmon", 2, (np.array([0.0]), xi)), samples
        )
        k4 = phase_residual(
            solve_phase_series(TORUS, "agmon", 4, (np.array([0.0]), xi)), samples
        )
        assert np.all(k4.max_residual < k2.max_residual)
        assert k2.fitted_exponent >= 2.5
        assert k4.fitted_exponent - k2.fitted_exponent >= 1.5

    def test_validity_radius_reported(self):
        xi = np.array([0.5, 1.0, 2.0])
        series = solve_phase_series(TORUS, "agmon", 4, (np.array([0.0]), xi))
        limit = series.meta["collar_limit"]
        report = phase_residual(series, np.linspace(0.01, 1.0, 40) * limit)
        assert 0.0 < report.validity_radius <= limit

    def test_sample_guards(self):
        series = solve_phase_series(
            TORUS, "agmon", 4, (np.array([0.0]), np.array([0.5]))
        )
        with pytest.raises(ValueError, match="positive"):
            phase_residual(series, [0.0, 0.1])
        limit = series.meta["collar_limit"]
        with pytest.raises(ValueError, match="collar"):
            phase_residual(series, [0.1, 2.0 * limit])


class TestFrequencyRegimes:
    """The phase series near the zero section and its leading term.

    Small frequencies: (phi_1 - phi_1|_{xi'=0}) / xi'^2 stays bounded as
    xi' -> 0.  Large frequencies: phi_1 deviates from its leading term
    x_n (sqrt(1 + |xi'|_0^2) - 1) by O(x_n^2 |xi'|_0).
    """

    def test_flat_small_frequency_profile(self):
        series = solve_phase_series(FLAT, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        depths = np.linspace(0.1, 0.5, 5) * series.meta["collar_limit"]
        assert np.max(np.abs(evaluate_phase(series, depths)[:, :, 0])) == 0.0
        smallest, next_level = small_frequency_ratios(series, depths)
        assert 0.25 <= np.max(smallest) / np.max(next_level) <= 4.0
        # x_n (sqrt(1 + xi^2) - 1) / xi^2 -> x_n / 2 as xi -> 0
        assert smallest == pytest.approx(depths / 2.0, rel=1e-5)

    def test_torus_small_frequency_bounded(self):
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        depths = np.linspace(0.1, 0.5, 5) * series.meta["collar_limit"]
        smallest, next_level = small_frequency_ratios(series, depths)
        assert 0.25 <= np.max(smallest) / np.max(next_level) <= 4.0

    def test_torus_small_frequency_ratio_is_quadratic(self):
        # a phase c |xi'|^p gives the ratio 2^(2 - p) between the levels
        # 0.001 and 0.002: 1 for p = 2, 2 for p = 1 and 1/2 for p = 3.  The
        # quadratic law leaves only its O(xi'^2) correction, about 5e-7.
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        depths = np.linspace(0.1, 0.5, 5) * series.meta["collar_limit"]
        smallest, next_level = small_frequency_ratios(series, depths)
        np.testing.assert_allclose(smallest / next_level, 1.0, atol=1e-4)

    def test_torus_small_frequency_profile_matches_collar_quadrature(self):
        # w = d phi_1 / d x_n solves w^2 + 2 w = T(x_n) xi'^2, so
        # phi_1 / xi'^2 -> (1/2) int_0^{x_n} T = (1/2) int_0^{s(x_n)} A^(-1/2) ds
        # with A(s) = 0.5 + cos s the barrier height and s the ambient depth
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        depths = np.linspace(0.1, 0.5, 5) * series.meta["collar_limit"]
        smallest, _ = small_frequency_ratios(series, depths)
        oracle = [
            0.5 * quad(lambda s: torus_height(s) ** -0.5, 0.0, torus_s_of_rho(d))[0]
            for d in depths
        ]
        assert smallest == pytest.approx(oracle, rel=1e-5)

    def test_ambient_small_frequency_subtracts_distance(self):
        series = solve_phase_series(
            TORUS, "ambient", 6, (np.array([0.0]), STRUCT_FREQS)
        )
        depths = np.linspace(0.01, 0.1, 5)
        smallest, next_level = small_frequency_ratios(series, depths)
        assert 0.25 <= np.max(smallest) / np.max(next_level) <= 4.0
        # the limit profile is x_n / (2 sqrt(A(0))) to leading order
        assert smallest == pytest.approx(depths / (2.0 * math.sqrt(1.5)), rel=1e-2)

    def test_flat_large_frequency_constant_zero(self):
        series = solve_phase_series(FLAT, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        depths = np.linspace(0.05, 0.5, 10) * series.meta["collar_limit"]
        assert leading_term_constant(series, depths) < 1e-10

    def test_torus_large_frequency_stable_under_refinement(self):
        # the deviation from the leading term is O(x_n^2 |xi'|_0): its
        # constant is positive and stable as the depth samples refine
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), STRUCT_FREQS))
        limit = series.meta["collar_limit"]
        coarse = leading_term_constant(series, np.linspace(0.05, 0.5, 10) * limit)
        fine = leading_term_constant(series, np.linspace(0.05, 0.5, 21) * limit)
        assert coarse > 0.0
        assert fine == pytest.approx(coarse, rel=0.2)


class TestMetricEquivalence:
    """C |xi'|^2 <= T(x_n) |xi'|^2 <= C' |xi'|^2 on the collar, for the
    truncated metric series the phase recursion uses."""

    @staticmethod
    def _sampled_metric(series, depths):
        t = series.meta["taylor_table"]
        out = []
        for rho in depths:
            val = 0.0
            for coef in t[::-1]:
                val = val * float(rho) + float(coef)
            out.append(val)
        return np.array(out)

    def test_flat_constants_are_unit(self):
        series = solve_phase_series(
            FLAT, "agmon", 6, (np.array([0.0]), np.array([1.0]))
        )
        sampled = self._sampled_metric(series, np.linspace(0.0, 0.5, 6))
        np.testing.assert_allclose(sampled, 1.0, rtol=0, atol=1e-12)

    def test_torus_constants_match_quadrature(self):
        # T(x_n) = 1/A(s(x_n)) with A = 0.5 + cos s decreasing on the
        # collar, so the constants are 1/A(0) and 1/A(s(0.5))
        depths = np.linspace(0.0, 0.5, 11)
        lo = 1.0 / 1.5
        hi = 1.0 / (0.5 + math.cos(torus_s_of_rho(0.5)))
        series = solve_phase_series(
            TORUS, "agmon", 6, (np.array([0.0]), np.array([1.0]))
        )
        sampled = self._sampled_metric(series, depths)
        assert sampled[0] == pytest.approx(lo, rel=1e-9)
        assert sampled[-1] == pytest.approx(hi, rel=1e-8)
        assert np.all(np.diff(sampled) > 0.0)
        assert np.all((lo - 1e-5 <= sampled[1:]) & (sampled[1:] <= hi + 1e-5))


class TestPoissonParametrix:
    def _flat_series(self, n, h, order=6):
        freqs = mode_frequencies(n, 2.0 * math.pi, h)
        return solve_phase_series(FLAT, "agmon", order, (np.array([0.0]), freqs))

    def test_matches_halfplane_gauge_composition(self):
        n, h, rho = 128, 0.05, 0.2
        nodes = 2.0 * math.pi / n * np.arange(n)
        data = 1.0 + 0.4 * np.cos(nodes) + 0.2 * np.sin(3.0 * nodes)
        phi = BoundaryFunction(data, 2.0 * math.pi, h)
        series = self._flat_series(n, h)
        trace = apply_poisson_parametrix(series, phi, rho)
        oracle = apply_halfplane_poisson(phi, rho).values * math.exp(rho / h)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(trace.values - oracle)) < 1e-10 * scale

    def test_zero_depth_returns_data(self):
        n, h = 64, 0.1
        phi = BoundaryFunction(np.ones(n), 2.0 * math.pi, h)
        series = self._flat_series(n, h)
        trace = apply_poisson_parametrix(series, phi, 0.0)
        assert np.array_equal(trace.values, phi.values)

    def test_multiplier_and_oscillatory_paths_agree(self):
        n, h, rho = 64, 0.05, 0.3
        nodes = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        freqs = mode_frequencies(n, 2.0 * math.pi, h)
        series = solve_phase_series(TORUS, "agmon", 6, (nodes, freqs))
        data = 1.0 + 0.3 * np.cos(2.0 * nodes)
        phi = BoundaryFunction(data, 2.0 * math.pi, h)
        a = apply_poisson_parametrix(series, phi, rho, method="multiplier")
        b = apply_poisson_parametrix(series, phi, rho, method="oscillatory")
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_torus_trace_converges_to_bvp_at_rate_h(self):
        nx, ny, far = 64, 24001, 1.0
        s_star = 80.0 / (ny - 1)  # node-aligned ambient depth
        collar = separable_collar(TORUS)
        rho_star = float(collar.rho_of_s(s_star))
        nodes = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.4 * np.cos(nodes) + 0.2 * np.cos(2.0 * nodes)
        errors, hs = [], [0.1, 0.05, 0.025]
        level_cache = separable_level_set(TORUS, rho_star, n_tangential=nx)
        for h in hs:
            phi = BoundaryFunction(data, 2.0 * math.pi, h)
            freqs = mode_frequencies(nx, 2.0 * math.pi, h)
            series = solve_phase_series(TORUS, "agmon", 8, (np.array([0.0]), freqs))
            param = apply_poisson_parametrix(series, phi, rho_star)
            field = poisson_bvp(
                TORUS, phi, h, far=far, n_normal=ny, rho_max=rho_star
            )
            bvp = trace_at(field, level_cache)
            gauged = bvp.values * math.exp(rho_star / h)
            err = np.linalg.norm(param.values - gauged) / np.linalg.norm(gauged)
            errors.append(err)
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert 0.7 <= slope <= 1.5

    def test_guards(self):
        n, h = 64, 0.05
        phi = BoundaryFunction(np.ones(n), 2.0 * math.pi, h)
        ambient = solve_phase_series(
            TORUS, "ambient", 4, (np.array([0.0]), mode_frequencies(n, 2.0 * math.pi, h))
        )
        with pytest.raises(ValueError, match="gauged"):
            apply_poisson_parametrix(ambient, phi, 0.1)
        series = self._flat_series(n, h)
        with pytest.raises(ValueError, match="collar"):
            apply_poisson_parametrix(series, phi, FLAT.collar_width + 0.5)
        mismatched = solve_phase_series(
            FLAT, "agmon", 4, (np.array([0.0]), mode_frequencies(n, 2.0 * math.pi, 0.1))
        )
        with pytest.raises(ValueError, match="frequency grid"):
            apply_poisson_parametrix(mismatched, phi, 0.1)


class TestPhaseFunction:
    def test_matches_series_samples(self):
        xi = np.array([0.0, 0.35, 1.2])
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), xi))
        fn = phase_function(TORUS, "agmon", 6)
        direct = fn(0.3, xi)
        sampled = evaluate_phase(series, 0.3)[0]
        assert direct == pytest.approx(sampled, rel=1e-15, abs=1e-18)

    def test_scalar_frequency(self):
        fn = phase_function(FLAT, "agmon", 4)
        val = fn(0.25, 0.8)
        assert val == pytest.approx(0.25 * (math.sqrt(1.64) - 1.0), rel=1e-14)

    def test_requires_gauged_kind(self):
        with pytest.raises(ValueError, match="gauged"):
            phase_function(TORUS, "ambient", 4)
