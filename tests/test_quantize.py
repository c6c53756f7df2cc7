"""Tests for boundary quantization and the plateau cutoff family.

Oracles used here:
  * closed-form inner/outer region constants for the flat barrier, from
    inverting x_n(sqrt(1 + xi^2) - 1) = span*h/2 and = span*h by hand;
  * a brute-force double-sum quantization (explicit DFT loops, no FFT);
  * mode-space Parseval evaluation for multiplier norms and frame ratios;
  * the exp(-x) and plateau branches of the cutoff, which are exact by
    construction and hence assertable bitwise.
"""

import math

import numpy as np
import pytest

from agmonlab.halfplane import BoundaryFunction, zero_section_cutoff
from agmonlab.hjphase import (
    apply_poisson_parametrix,
    mode_frequencies,
    solve_phase_series,
)
from agmonlab.models import make_model
from agmonlab.quantize import (
    CutoffProfile,
    FrameBoundReport,
    Symbol,
    apply_quantized,
    build_cutoff_profile,
    build_phase_cutoff,
    frame_lower_bound_check,
    random_band_probes,
    split_in_out,
    symbol_class_check,
    tail_operator_bound,
)

FLAT = make_model("halfplane-unit")
TORUS = make_model("separable-torus")
LENGTH = 2.0 * math.pi


def flat_series(n, h, order=6):
    freqs = mode_frequencies(n, LENGTH, h)
    return solve_phase_series(FLAT, "agmon", order, (np.array([0.0]), freqs))


def flat_inner_constant(span, h, rho):
    return (1.0 + span * h / (4.0 * rho)) / rho


def flat_outer_constant(span, h, rho):
    return (2.0 + span * h / rho) / rho


def brute_quantize(symbol: Symbol, u: BoundaryFunction) -> np.ndarray:
    """Direct double-sum realization with explicit loops; no FFT."""
    n = u.values.size
    nodes = u.length * np.arange(n) / n
    modes = np.arange(-(n // 2), n - n // 2)
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        acc = 0.0 + 0.0j
        for ki, k in enumerate(modes):
            uhat = 0.0 + 0.0j
            for j in range(n):
                uhat += u.values[j] * np.exp(-2j * math.pi * k * j / n)
            row = 0 if symbol.x_nodes.size == 1 else i
            acc += symbol.values[row, ki] * uhat * np.exp(
                2j * math.pi * k * nodes[i] / u.length
            )
        out[i] = acc / n
    return out


def norm_of(u: BoundaryFunction) -> float:
    dx = u.length / u.values.size
    return math.sqrt(dx * float(np.sum(np.abs(u.values) ** 2)))


class TestCutoffProfile:
    def test_plateau_at_three_quarters_span(self):
        profile = build_cutoff_profile(8.0)
        assert profile.plateau == pytest.approx(math.exp(-6.0), rel=1e-9)
        assert math.exp(-8.0) < profile.plateau < math.exp(-4.0)

    def test_exponential_region_is_exact(self):
        profile = build_cutoff_profile(8.0)
        assert profile(0.0) == 1.0
        assert profile(2.0) == math.exp(-2.0)
        assert profile(4.0) == math.exp(-4.0)

    def test_plateau_region_is_exact(self):
        profile = build_cutoff_profile(8.0)
        for x in (8.0, 9.5, 50.0):
            assert profile(x) == profile.plateau

    def test_monotone_and_dominates_exponential(self):
        profile = build_cutoff_profile(8.0)
        x = np.linspace(0.0, 12.0, 20001)
        vals = profile(x)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= np.exp(-x) - 1e-12)
        assert np.all(vals >= profile.plateau * (1.0 - 1e-12))

    def test_continuous_at_junctions(self):
        profile = build_cutoff_profile(8.0)
        assert profile(4.0 + 1e-9) == pytest.approx(math.exp(-4.0), abs=1e-9)
        assert profile(8.0 - 1e-9) == pytest.approx(profile.plateau, abs=1e-9)

    def test_derivative_ratios_measured(self):
        profile = build_cutoff_profile(8.0)
        c1, c2 = profile.derivative_ratios
        assert c1 == pytest.approx(1.0, abs=1e-9)
        assert 1.0 <= c2 < 3.0
        # independent finite-difference check of |b'| <= c1 * b on the bend
        x = np.linspace(4.0, 8.0, 4001)
        vals = profile(x)
        deriv = np.gradient(vals, x)
        assert np.max(np.abs(deriv[5:-5]) / vals[5:-5]) <= c1 * (1.0 + 1e-3)

    def test_larger_span_allowed_smaller_rejected(self):
        profile = build_cutoff_profile(12.0)
        assert profile.plateau == pytest.approx(math.exp(-9.0), rel=1e-9)
        with pytest.raises(ValueError, match="bridge"):
            build_cutoff_profile(3.0)

    def test_deterministic(self):
        a = build_cutoff_profile(8.0)
        b = build_cutoff_profile(8.0)
        assert a.plateau == b.plateau
        assert np.array_equal(a.values, b.values)

    def test_invariant_violations_rejected(self):
        profile = build_cutoff_profile(8.0)
        with pytest.raises(ValueError, match="plateau"):
            CutoffProfile(
                span=8.0,
                plateau=math.exp(-2.0),
                nodes=profile.nodes,
                values=profile.values,
                derivative_ratios=(1.0, 1.0),
                _bend=profile._bend,
            )


class TestPhaseCutoff:
    def test_flat_region_constants_match_closed_form(self):
        span, h, rho = 8.0, 0.05, 0.25
        profile = build_cutoff_profile(span)
        series = flat_series(256, h)
        sym = build_phase_cutoff(series, profile, rho, h)
        assert sym.meta["inner_constant"] == pytest.approx(
            flat_inner_constant(span, h, rho), rel=1e-8
        )
        assert sym.meta["outer_constant"] == pytest.approx(
            flat_outer_constant(span, h, rho), rel=1e-8
        )
        assert sym.meta["inner_constant"] < sym.meta["outer_constant"]

    def test_zero_frequency_value_is_one(self):
        profile = build_cutoff_profile(8.0)
        series = flat_series(256, 0.05)
        sym = build_phase_cutoff(series, profile, 0.25, 0.05)
        col = np.where(series.frequencies == 0.0)[0][0]
        assert sym.values[0, col] == 1.0

    def test_inner_region_matches_decay_multiplier_bitwise(self):
        span, h, rho = 8.0, 0.05, 0.25
        profile = build_cutoff_profile(span)
        series = flat_series(256, h)
        sym = build_phase_cutoff(series, profile, rho, h)
        from agmonlab.hjphase import evaluate_phase

        scaled = evaluate_phase(series, rho) / h
        c = sym.meta["inner_constant"]
        region = series.frequencies**2 <= c * span * h * (1.0 - 1e-9)
        assert region.sum() > 3
        assert np.array_equal(sym.values[:, region], np.exp(-scaled[:, region]))

    def test_outer_region_equals_plateau(self):
        span, h, rho = 8.0, 0.05, 0.25
        profile = build_cutoff_profile(span)
        series = flat_series(256, h)
        sym = build_phase_cutoff(series, profile, rho, h)
        region = series.frequencies**2 >= sym.meta["outer_constant"] * span * h
        assert region.sum() > 3
        assert np.all(sym.values[:, region] == profile.plateau)

    def test_dominates_plateau_and_monotone_in_frequency(self):
        profile = build_cutoff_profile(8.0)
        series = flat_series(256, 0.05)
        sym = build_phase_cutoff(series, profile, 0.25, 0.05)
        assert np.min(sym.values) >= profile.plateau * (1.0 - 1e-12)
        order = np.argsort(np.abs(series.frequencies), kind="stable")
        sorted_vals = sym.values[0, order]
        assert np.all(np.diff(sorted_vals) <= 1e-14)

    def test_torus_constants_positive_and_ordered(self):
        profile = build_cutoff_profile(8.0)
        h = 0.05
        freqs = mode_frequencies(256, LENGTH, h)
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), freqs))
        sym = build_phase_cutoff(series, profile, 0.3, h)
        assert 0.0 < sym.meta["inner_constant"] < sym.meta["outer_constant"]
        assert sym.class_exponent == 0.5

    def test_guards(self):
        profile = build_cutoff_profile(8.0)
        h = 0.05
        freqs = mode_frequencies(64, LENGTH, h)
        ambient = solve_phase_series(TORUS, "ambient", 4, (np.array([0.0]), freqs))
        with pytest.raises(ValueError, match="gauged"):
            build_phase_cutoff(ambient, profile, 0.2, h)
        series = flat_series(64, h)
        with pytest.raises(ValueError, match="collar"):
            build_phase_cutoff(series, profile, 0.0, h)
        with pytest.raises(ValueError, match="collar"):
            build_phase_cutoff(series, profile, 5.0, h)
        with pytest.raises(ValueError, match="positive"):
            build_phase_cutoff(series, profile, 0.25, -0.05)


class TestSplitInOut:
    def setup_method(self):
        self.h = 0.05
        self.span = 8.0
        self.c = flat_inner_constant(self.span, self.h, 0.25)
        self.freqs = mode_frequencies(256, LENGTH, self.h)
        self.chi_in, self.chi_out = split_in_out(
            self.span, self.h, self.c, self.freqs
        )

    def test_zero_frequency(self):
        col = np.where(self.freqs == 0.0)[0][0]
        assert self.chi_in.values[0, col] == 1.0
        assert self.chi_out.values[0, col] == 0.0

    def test_outside_twice_the_scale(self):
        scale = self.c * self.span * self.h
        region = self.freqs**2 >= 2.0 * scale
        assert region.sum() > 3
        assert np.all(self.chi_out.values[:, region] == 1.0)
        assert np.all(self.chi_in.values[:, region] == 0.0)

    def test_partition_of_unity(self):
        total = self.chi_in.values + self.chi_out.values
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_inner_plateau_inside_half_scale(self):
        scale = self.c * self.span * self.h
        region = self.freqs**2 <= scale / 2.0
        assert np.all(self.chi_in.values[:, region] == 1.0)
        strict = (self.freqs**2 > scale / 2.0) & (self.freqs**2 < scale)
        assert strict.sum() > 0
        band = self.chi_in.values[0, strict]
        assert np.all((band > 0.0) & (band < 1.0))

    def test_outer_passes_exterior_mode_through(self):
        n = self.freqs.size
        k = int(math.ceil(math.sqrt(2.0 * self.c * self.span * self.h) / self.h))
        u = BoundaryFunction(
            np.exp(1j * k * LENGTH * np.arange(n) / n), LENGTH, self.h
        )
        out = apply_quantized(self.chi_out, u)
        assert np.max(np.abs(out.values - u.values)) <= 1e-12 * norm_of(u)


class TestApplyQuantized:
    def test_identity_symbol(self):
        n, h = 128, 0.05
        rng = np.random.default_rng(3)
        u = BoundaryFunction(rng.standard_normal(n), LENGTH, h)
        sym = Symbol(
            values=np.ones((1, n)),
            x_nodes=np.array([0.0]),
            frequencies=mode_frequencies(n, LENGTH, h),
            h=h,
            class_exponent=0.0,
        )
        out = apply_quantized(sym, u)
        assert np.max(np.abs(out.values - u.values)) <= 1e-12 * norm_of(u)

    def test_frequency_only_symbol_equals_spectral_oracle(self):
        n, h = 64, 0.1
        freqs = mode_frequencies(n, LENGTH, h)
        a = np.exp(-(freqs**2)) + 0.3
        rng = np.random.default_rng(5)
        u = BoundaryFunction(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), LENGTH, h
        )
        sym = Symbol(
            values=a[None, :],
            x_nodes=np.array([0.0]),
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        out = apply_quantized(sym, u)
        # independent oracle: explicit DFT loops
        oracle = brute_quantize(sym, u)
        assert np.max(np.abs(out.values - oracle)) <= 1e-10 * norm_of(u)

    def test_tangent_dependent_symbol_matches_double_sum(self):
        n, h = 64, 0.1
        freqs = mode_frequencies(n, LENGTH, h)
        nodes = LENGTH * np.arange(n) / n
        box = np.abs(freqs) <= 0.5 * np.max(np.abs(freqs))
        values = np.outer(nodes, freqs) * box[None, :]
        sym = Symbol(
            values=values,
            x_nodes=nodes,
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        u = BoundaryFunction(np.exp(1j * 3.0 * nodes), LENGTH, h)
        out = apply_quantized(sym, u)
        oracle = brute_quantize(sym, u)
        assert np.max(np.abs(out.values - oracle)) <= 1e-8 * norm_of(u)

    def test_linearity(self):
        n, h = 128, 0.05
        freqs = mode_frequencies(n, LENGTH, h)
        sym = Symbol(
            values=np.cos(freqs)[None, :],
            x_nodes=np.array([0.0]),
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        rng = np.random.default_rng(11)
        u = BoundaryFunction(rng.standard_normal(n), LENGTH, h)
        v = BoundaryFunction(rng.standard_normal(n), LENGTH, h)
        combo = BoundaryFunction(2.0 * u.values - 0.5 * v.values, LENGTH, h)
        lhs = apply_quantized(sym, combo).values
        rhs = 2.0 * apply_quantized(sym, u).values - 0.5 * apply_quantized(
            sym, v
        ).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(norm_of(u), norm_of(v))

    def test_adjoint_symmetry_for_real_multiplier(self):
        n, h = 128, 0.05
        freqs = mode_frequencies(n, LENGTH, h)
        sym = Symbol(
            values=(1.0 / (1.0 + freqs**2))[None, :],
            x_nodes=np.array([0.0]),
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        rng = np.random.default_rng(7)
        u = BoundaryFunction(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), LENGTH, h
        )
        v = BoundaryFunction(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), LENGTH, h
        )
        dx = LENGTH / n
        lhs = dx * np.sum(apply_quantized(sym, u).values * np.conj(v.values))
        rhs = dx * np.sum(u.values * np.conj(apply_quantized(sym, v).values))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_multiplier_composition_is_product(self):
        n, h = 128, 0.05
        freqs = mode_frequencies(n, LENGTH, h)

        def mk(vals):
            return Symbol(
                values=vals[None, :],
                x_nodes=np.array([0.0]),
                frequencies=freqs,
                h=h,
                class_exponent=0.0,
            )

        a = mk(np.exp(-np.abs(freqs)))
        b = mk(1.0 + 0.5 * np.sin(freqs))
        ab = mk(a.values[0] * b.values[0])
        rng = np.random.default_rng(13)
        u = BoundaryFunction(rng.standard_normal(n), LENGTH, h)
        chained = apply_quantized(a, apply_quantized(b, u))
        direct = apply_quantized(ab, u)
        assert np.max(np.abs(chained.values - direct.values)) <= 1e-12 * norm_of(u)

    def test_norm_bound_for_multiplier(self):
        n, h = 256, 0.05
        freqs = mode_frequencies(n, LENGTH, h)
        a = np.sin(3.0 * freqs) * np.exp(-0.1 * freqs**2)
        sym = Symbol(
            values=a[None, :],
            x_nodes=np.array([0.0]),
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        for u in random_band_probes(n, LENGTH, h, count=6, seed=21):
            lhs = norm_of(apply_quantized(sym, u))
            assert lhs <= np.max(np.abs(a)) * norm_of(u) * (1.0 + 1e-12)

    def test_grid_mismatch_errors(self):
        n, h = 64, 0.05
        freqs = mode_frequencies(n, LENGTH, h)
        sym = Symbol(
            values=np.ones((1, n)),
            x_nodes=np.array([0.0]),
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_quantized(sym, BoundaryFunction(np.ones(32), LENGTH, h))
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_quantized(sym, BoundaryFunction(np.ones(n), LENGTH, 0.1))
        nodes = LENGTH * np.arange(n) / n
        bad = Symbol(
            values=np.outer(np.cos(nodes), np.ones(n)),
            x_nodes=nodes + 0.1,
            frequencies=freqs,
            h=h,
            class_exponent=0.0,
        )
        with pytest.raises(ValueError, match="grid mismatch"):
            apply_quantized(bad, BoundaryFunction(np.ones(n), LENGTH, h))

    def test_symbol_invariants(self):
        n, h = 32, 0.05
        freqs = mode_frequencies(n, LENGTH, h)
        with pytest.raises(ValueError, match="class exponent"):
            Symbol(
                values=np.ones((1, n)),
                x_nodes=np.array([0.0]),
                frequencies=freqs,
                h=h,
                class_exponent=1.0,
            )
        with pytest.raises(ValueError, match="finite"):
            vals = np.ones((1, n))
            vals[0, 0] = np.inf
            Symbol(
                values=vals,
                x_nodes=np.array([0.0]),
                frequencies=freqs,
                h=h,
                class_exponent=0.0,
            )
        with pytest.raises(ValueError, match="support"):
            Symbol(
                values=np.ones((1, n)),
                x_nodes=np.array([0.0]),
                frequencies=freqs,
                h=h,
                class_exponent=0.0,
                baseline=0.0,
                support=(-0.5, 0.5),
            )


class TestSymbolClass:
    def test_constant_symbol_is_class_zero(self):
        n = 128

        def builder(h):
            return Symbol(
                values=np.full((1, n), 0.7),
                x_nodes=np.array([0.0]),
                frequencies=mode_frequencies(n, LENGTH, h),
                h=h,
                class_exponent=0.0,
            )

        report = symbol_class_check(builder, 0.7, 0.0, [0.1, 0.05, 0.025, 0.0125])
        assert report.sups.shape == (6, 4)
        assert np.all(report.sups == 0.0)
        assert np.all(np.isinf(report.exponents))
        assert report.passed

    def test_phase_cutoff_has_half_power_growth(self):
        span, rho = 8.0, 0.25
        profile = build_cutoff_profile(span)

        def builder(h):
            return build_phase_cutoff(flat_series(1024, h), profile, rho, h)

        report = symbol_class_check(
            builder, profile.plateau, 0.5, [0.1, 0.05, 0.025, 0.0125]
        )
        assert report.passed
        by_index = dict(zip(report.indices, report.exponents))
        assert by_index[(0, 1)] == pytest.approx(-0.5, abs=0.1)
        assert by_index[(0, 2)] == pytest.approx(-1.0, abs=0.1)
        assert abs(by_index[(0, 0)]) <= 0.1

    def test_fixed_frequency_cutoff_is_class_zero(self):
        n = 1024

        def builder(h):
            freqs = mode_frequencies(n, LENGTH, h)
            # wide transition so every sweep member resolves the profile
            return Symbol(
                values=zero_section_cutoff(freqs, 4.0)[None, :],
                x_nodes=np.array([0.0]),
                frequencies=freqs,
                h=h,
                class_exponent=0.0,
            )

        report = symbol_class_check(builder, 0.0, 0.0, [0.1, 0.05, 0.025, 0.0125])
        finite = np.isfinite(report.exponents)
        assert np.all(np.abs(report.exponents[finite]) <= 0.1)
        assert report.passed

    def test_sweep_too_short(self):
        with pytest.raises(ValueError, match="sweep"):
            symbol_class_check(lambda h: None, 0.0, 0.5, [0.1, 0.05])


class TestFrameLowerBound:
    def test_constant_plateau_symbol_gives_unit_ratio(self):
        n, h = 128, 0.05
        plateau = math.exp(-6.0)
        sym = Symbol(
            values=np.full((1, n), plateau),
            x_nodes=np.array([0.0]),
            frequencies=mode_frequencies(n, LENGTH, h),
            h=h,
            class_exponent=0.0,
        )
        report = frame_lower_bound_check(
            sym, random_band_probes(n, LENGTH, h, count=4), plateau
        )
        assert report.ratios == pytest.approx(np.ones(4), rel=1e-12)

    def test_zero_mode_data_sees_full_cutoff_value(self):
        n, h = 256, 0.05
        profile = build_cutoff_profile(8.0)
        sym = build_phase_cutoff(flat_series(n, h), profile, 0.25, h)
        u = BoundaryFunction(np.ones(n), LENGTH, h)
        report = frame_lower_bound_check(sym, [u], profile.plateau)
        assert report.minimum == pytest.approx(1.0 / profile.plateau, rel=1e-12)

    def test_random_probes_bounded_below_across_sweep(self):
        profile = build_cutoff_profile(8.0)
        n = 256
        minima = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            sym = build_phase_cutoff(flat_series(n, h), profile, 0.25, h)
            report = frame_lower_bound_check(
                sym, random_band_probes(n, LENGTH, h, count=6), profile.plateau
            )
            assert report.minimum >= 1.0 - 1e-12
            minima.append(report.minimum)
        assert max(minima) / min(minima) <= 2.0

    def test_mode_space_oracle(self):
        n, h = 256, 0.05
        profile = build_cutoff_profile(8.0)
        series = flat_series(n, h)
        sym = build_phase_cutoff(series, profile, 0.25, h)
        u = random_band_probes(n, LENGTH, h, count=1, seed=2)[0]
        report = frame_lower_bound_check(sym, [u], profile.plateau)
        spec = np.fft.fftshift(np.fft.fft(u.values))
        oracle = math.sqrt(
            float(np.sum(np.abs(sym.values[0] * spec) ** 2))
            / float(np.sum(np.abs(spec) ** 2))
        ) / profile.plateau
        assert report.minimum == pytest.approx(oracle, rel=1e-12)

    def test_guards(self):
        n, h = 64, 0.05
        sym = Symbol(
            values=np.ones((1, n)),
            x_nodes=np.array([0.0]),
            frequencies=mode_frequencies(n, LENGTH, h),
            h=h,
            class_exponent=0.0,
        )
        with pytest.raises(ValueError, match="nonempty"):
            frame_lower_bound_check(sym, [], 1.0)
        with pytest.raises(ValueError, match="nonzero"):
            frame_lower_bound_check(
                sym, [BoundaryFunction(np.zeros(n), LENGTH, h)], 1.0
            )


class TestTailOperatorBound:
    def build(self, h, n=256, rho=0.25):
        profile = build_cutoff_profile(8.0)
        series = flat_series(n, h)
        sym = build_phase_cutoff(series, profile, rho, h)
        return profile, series, sym

    def test_difference_vanishes_inside_and_stays_under_floor(self):
        profile, series, sym = self.build(0.05)
        report = tail_operator_bound(sym, series, profile.plateau)
        assert report.vanishes_inside
        assert report.sup_ratio <= 1.0
        assert 0.0 < report.constant <= 1.0

    def test_factorizes_through_outer_cutoff(self):
        profile, series, sym = self.build(0.05)
        report = tail_operator_bound(sym, series, profile.plateau)
        assert report.factorization_ok

    def test_constant_stable_across_sweep(self):
        constants = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            profile, series, sym = self.build(h)
            report = tail_operator_bound(sym, series, profile.plateau)
            constants.append(report.constant)
        assert max(constants) / min(constants) <= 2.0

    def test_probe_ratios_below_operator_norm(self):
        profile, series, sym = self.build(0.05)
        report = tail_operator_bound(sym, series, profile.plateau)
        assert np.all(
            report.probe_ratios <= report.constant * profile.plateau * (1 + 1e-12)
        )

    def test_torus_tail(self):
        profile = build_cutoff_profile(8.0)
        h = 0.05
        freqs = mode_frequencies(256, LENGTH, h)
        series = solve_phase_series(TORUS, "agmon", 6, (np.array([0.0]), freqs))
        sym = build_phase_cutoff(series, profile, 0.3, h)
        report = tail_operator_bound(sym, series, profile.plateau)
        assert report.vanishes_inside
        assert report.sup_ratio <= 1.0
        assert report.factorization_ok

    def test_shape_mismatch(self):
        profile, series, sym = self.build(0.05)
        other = flat_series(128, 0.05)
        with pytest.raises(ValueError, match="grid mismatch"):
            tail_operator_bound(sym, other, profile.plateau)


class TestReconstructionChain:
    """Desk-scale shadow of the full lower-bound chain.

    The quantized cutoff is invertible from below (frame bound); peeling
    off the tail operator leaves the pure decay multiplier, whose output
    is exactly the gauged parametrix trace.  For data with small exterior
    mass this yields an h-uniform lower bound on the depth-rho trace.
    """

    def test_flat_chain_uniform_in_h(self):
        span, rho, n = 8.0, 0.25, 256
        profile = build_cutoff_profile(span)
        constants = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            series = flat_series(n, h)
            sym = build_phase_cutoff(series, profile, rho, h)
            freqs = series.frequencies

            # data: low modes plus a small genuinely exterior component
            nodes = LENGTH * np.arange(n) / n
            scale = sym.meta["inner_constant"] * span * h
            k_out = int(math.ceil(math.sqrt(2.0 * scale) / h)) + 1
            data = (
                1.0
                + 0.5 * np.cos(nodes)
                + 0.3 * np.sin(2.0 * nodes)
                + 0.01 * np.cos(k_out * nodes)
            )
            phi = BoundaryFunction(data, LENGTH, h)

            frame = frame_lower_bound_check(sym, [phi], profile.plateau)
            tail = tail_operator_bound(sym, series, profile.plateau)
            _, chi_out = split_in_out(
                span, h, sym.meta["inner_constant"], freqs
            )
            exterior = norm_of(apply_quantized(chi_out, phi)) / norm_of(phi)

            sigma = Symbol(
                values=np.exp(-evaluate_phase_for(series, rho) / h),
                x_nodes=series.tangential_nodes,
                frequencies=freqs,
                h=h,
                class_exponent=0.5,
            )
            trace = apply_quantized(sigma, phi)
            measured = norm_of(trace) / norm_of(phi)

            # the triangle inequality chain, all quantities measured
            lower = profile.plateau * (
                frame.minimum - tail.constant * exterior
            )
            assert lower > 0.0
            assert measured >= lower * (1.0 - 1e-12)
            constants.append(measured)
        assert max(constants) / min(constants) <= 2.0

    def test_decay_multiplier_output_is_parametrix_trace(self):
        n, h, rho = 128, 0.05, 0.25
        series = flat_series(n, h)
        freqs = series.frequencies
        nodes = LENGTH * np.arange(n) / n
        phi = BoundaryFunction(1.0 + 0.4 * np.cos(nodes), LENGTH, h)
        sigma = Symbol(
            values=np.exp(-evaluate_phase_for(series, rho) / h),
            x_nodes=series.tangential_nodes,
            frequencies=freqs,
            h=h,
            class_exponent=0.5,
        )
        via_op = apply_quantized(sigma, phi)
        via_parametrix = apply_poisson_parametrix(series, phi, rho)
        assert np.max(
            np.abs(via_op.values - via_parametrix.values)
        ) <= 1e-14 * norm_of(phi)


def evaluate_phase_for(series, rho):
    from agmonlab.hjphase import evaluate_phase

    return evaluate_phase(series, rho)
