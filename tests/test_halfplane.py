"""Half-plane Poisson model: transform pair, multiplier, chain checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from agmonlab.halfplane import (
    BoundaryFunction,
    apply_halfplane_poisson,
    exterior_mass_fraction,
    fourier_h,
    inverse_fourier_h,
    make_boundary_function,
    poisson_multiplier,
    verify_lower_chain,
    zero_section_cutoff,
)

L = 2.0 * math.pi


def random_data(n=256, h=0.05, seed=20260815) -> BoundaryFunction:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    return BoundaryFunction(values=values, length=L, h=h)


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------


class TestTypes:
    def test_norm_matches_direct_sum(self):
        u = random_data()
        direct = math.sqrt(L / u.values.size * np.sum(np.abs(u.values) ** 2))
        assert u.norm == pytest.approx(direct, rel=1e-15)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            BoundaryFunction(values=np.ones(100), length=L, h=0.1)

    def test_rejects_non_finite(self):
        vals = np.ones(64)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            BoundaryFunction(values=vals, length=L, h=0.1)

    def test_values_frozen(self):
        u = random_data(n=64)
        with pytest.raises(ValueError):
            u.values[0] = 0.0

    def test_spectrum_frequencies(self):
        spec = fourier_h(random_data(n=64, h=0.1))
        assert spec.modes[0] == -32
        assert spec.modes[-1] == 31
        np.testing.assert_allclose(
            spec.frequencies, 0.1 * spec.modes, atol=1e-15
        )
        assert spec.spacing == pytest.approx(0.1, rel=1e-15)


# --------------------------------------------------------------------------
# transform pair
# --------------------------------------------------------------------------


class TestFourier:
    def test_constant_hits_only_zero_mode(self):
        u = BoundaryFunction(values=np.ones(64), length=L, h=0.1)
        spec = fourier_h(u)
        k0 = np.nonzero(spec.modes == 0)[0][0]
        assert spec.coefficients[k0] == pytest.approx(L, rel=1e-14)
        others = np.abs(np.delete(spec.coefficients, k0))
        assert others.max() <= 1e-12

    def test_plancherel(self):
        u = random_data()
        spec = fourier_h(u)
        assert spec.norm == pytest.approx(
            math.sqrt(2.0 * math.pi * u.h) * u.norm, rel=1e-12
        )

    def test_roundtrip_identity(self):
        u = random_data()
        back = inverse_fourier_h(fourier_h(u))
        err = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
        assert err <= 1e-12

    def test_periodized_gaussian_against_quadrature_oracle(self):
        # coefficient k of the periodized Gaussian equals the line integral
        # of exp(-x^2/(2h)) cos(2 pi k x / L); computed independently with
        # adaptive quadrature and compared at every dominant mode
        h = 0.05
        n = 256

        def periodized(x):
            return sum(
                np.exp(-((x - m * L) ** 2) / (2.0 * h)) for m in range(-6, 7)
            )

        u = make_boundary_function(periodized, n, L, h)
        spec = fourier_h(u)
        peak = np.max(np.abs(spec.coefficients))
        for k in range(-16, 17):
            idx = np.nonzero(spec.modes == k)[0][0]
            if abs(spec.coefficients[idx]) < 1e-3 * peak:
                continue
            oracle, _ = quad(
                lambda x: periodized(x) * math.cos(2.0 * math.pi * k * x / L),
                0.0,
                L,
                limit=300,
            )
            assert spec.coefficients[idx].real == pytest.approx(
                oracle, rel=1e-8
            ), f"mode {k}"
            assert abs(spec.coefficients[idx].imag) <= 1e-10 * peak

    def test_periodized_gaussian_profile(self):
        # the same coefficients follow sqrt(2 pi h) exp(-xi'^2 / (2h))
        h = 0.05
        u = make_boundary_function(
            lambda x: sum(
                np.exp(-((x - m * L) ** 2) / (2.0 * h)) for m in range(-6, 7)
            ),
            256,
            L,
            h,
        )
        spec = fourier_h(u)
        dominant = np.abs(spec.coefficients) >= 1e-3 * np.max(
            np.abs(spec.coefficients)
        )
        expected = math.sqrt(2.0 * math.pi * h) * np.exp(
            -spec.frequencies[dominant] ** 2 / (2.0 * h)
        )
        np.testing.assert_allclose(
            spec.coefficients[dominant].real, expected, rtol=1e-8
        )


# --------------------------------------------------------------------------
# multiplier and solution operator
# --------------------------------------------------------------------------


class TestPoisson:
    def test_multiplier_point_values(self):
        assert poisson_multiplier(0.0, 0.1, 0.1) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )
        assert poisson_multiplier(3.7, 0.0, 0.1) == 1.0

    def test_multiplier_monotone(self):
        xi = np.linspace(0.0, 4.0, 50)
        vals = poisson_multiplier(xi, 0.3, 0.1)
        assert np.all(np.diff(vals) < 0)
        v1 = poisson_multiplier(1.0, 0.2, 0.1)
        v2 = poisson_multiplier(1.0, 0.3, 0.1)
        assert v2 < v1

    def test_multiplier_band_floor(self):
        delta, rho, h = 0.5, 0.2, 0.05
        xi = np.linspace(-delta, delta, 101)
        floor = math.exp(-(rho / h) * math.sqrt(delta**2 + 1.0))
        assert np.min(poisson_multiplier(xi, rho, h)) >= floor

    def test_constant_data_decays_at_unit_rate(self):
        u = BoundaryFunction(values=np.full(128, 2.5), length=L, h=0.05)
        for rho in (0.05, 0.1, 0.3):
            v = apply_halfplane_poisson(u, rho)
            np.testing.assert_allclose(
                v.values, 2.5 * math.exp(-rho / u.h), rtol=1e-13
            )
            # two-sided sharp rate: log of the ratio is exactly -rho/h
            assert math.log(v.norm / u.norm) == pytest.approx(
                -rho / u.h, abs=1e-12
            )

    def test_single_mode_exactness(self):
        h, rho = 0.05, 0.15
        for k in (1, 5, -17, 40):
            u = make_boundary_function(
                lambda x: np.exp(2j * math.pi * k * x / L), 128, L, h
            )
            v = apply_halfplane_poisson(u, rho)
            factor = math.exp(-(rho / h) * math.sqrt(1.0 + (h * k) ** 2))
            np.testing.assert_allclose(
                v.values, factor * u.values, rtol=1e-12
            )
            assert v.norm / u.norm == pytest.approx(factor, rel=1e-12)

    def test_height_zero_is_identity(self):
        u = random_data()
        v = apply_halfplane_poisson(u, 0.0)
        np.testing.assert_allclose(v.values, u.values, rtol=1e-12)

    def test_semigroup(self):
        u = random_data()
        two_step = apply_halfplane_poisson(apply_halfplane_poisson(u, 0.07), 0.05)
        one_step = apply_halfplane_poisson(u, 0.12)
        err = np.max(np.abs(two_step.values - one_step.values))
        assert err <= 1e-12 * np.max(np.abs(one_step.values)) + 1e-15

    def test_norm_nonincreasing_in_height(self):
        u = random_data()
        norms = [apply_halfplane_poisson(u, r).norm for r in (0.0, 0.1, 0.2, 0.4)]
        assert all(b < a for a, b in zip(norms, norms[1:]))


# --------------------------------------------------------------------------
# zero-section concentration
# --------------------------------------------------------------------------


class TestExteriorMass:
    def test_constant_data_is_fully_interior(self):
        u = BoundaryFunction(values=np.ones(64), length=L, h=0.1)
        assert exterior_mass_fraction(u, 0.5) == pytest.approx(0.0, abs=1e-13)

    def test_high_mode_is_fully_exterior(self):
        h, delta = 0.1, 0.5
        k = 9  # xi' = 0.9 >= delta
        u = make_boundary_function(
            lambda x: np.exp(2j * math.pi * k * x / L), 128, L, h
        )
        assert exterior_mass_fraction(u, delta) == pytest.approx(1.0, rel=1e-12)

    def test_mixture_bracket(self):
        # amplitudes a (plateau) and b (transition band): the fraction is
        # exactly (1 - chi(xi_b)) * b / sqrt(a^2 + b^2) by the spectral sum
        h, delta = 0.05, 0.5
        k_in, k_band = 2, 7  # frequencies 0.1 and 0.35
        a, b = 1.0, 0.4
        u = make_boundary_function(
            lambda x: a * np.exp(2j * math.pi * k_in * x / L)
            + b * np.exp(2j * math.pi * k_band * x / L),
            256,
            L,
            h,
        )
        frac = exterior_mass_fraction(u, delta)
        tail = float(1.0 - zero_section_cutoff(h * k_band, delta))
        p = b / math.sqrt(a**2 + b**2)
        assert frac == pytest.approx(tail * p, rel=1e-10)
        assert tail * p * 0.999 <= frac <= p

    def test_monotone_in_delta(self):
        u = random_data()
        deltas = np.linspace(0.2, 3.0, 12)
        fracs = [exterior_mass_fraction(u, d) for d in deltas]
        assert all(b <= a + 1e-13 for a, b in zip(fracs, fracs[1:]))

    def test_zero_data_rejected(self):
        u = BoundaryFunction(values=np.zeros(32), length=L, h=0.1)
        with pytest.raises(ValueError, match="vanishes"):
            exterior_mass_fraction(u, 0.5)

    def test_cutoff_profile_support(self):
        delta = 0.5
        xi = np.array([0.0, 0.2, 0.25, 0.3, 0.5, 1.0])
        chi = zero_section_cutoff(xi, delta)
        assert chi[0] == 1.0 and chi[1] == 1.0 and chi[2] == 1.0
        assert 0.0 < chi[3] < 1.0
        assert chi[4] == 0.0 and chi[5] == 0.0


# --------------------------------------------------------------------------
# lower-bound chain
# --------------------------------------------------------------------------


class TestLowerChain:
    def test_constant_data_passes_with_sharp_ratio(self):
        u = BoundaryFunction(values=np.ones(128), length=L, h=0.05)
        report = verify_lower_chain(u, rho=0.1, delta=0.5, epsilon=0.1)
        assert report.passed
        assert report.measured_ratio == pytest.approx(
            math.exp(-0.1 / 0.05), rel=1e-12
        )
        assert report.measured_ratio >= report.lower_bound

    def test_interior_mode_all_steps_pass(self):
        # single mode at |xi'| = delta/4, inside the plateau
        h, delta, rho = 0.05, 0.8, 0.1
        k = round(delta / (4.0 * h))
        u = make_boundary_function(
            lambda x: np.exp(2j * math.pi * k * x / L), 128, L, h
        )
        report = verify_lower_chain(u, rho=rho, delta=delta, epsilon=0.5)
        assert report.passed
        assert [s.passed for s in report.steps] == [True] * 4
        expected = math.exp(-(rho / h) * math.sqrt(1.0 + (h * k) ** 2))
        assert report.measured_ratio == pytest.approx(expected, rel=1e-12)
        assert all(s.margin >= 0.0 for s in report.steps)

    def test_epsilon_guard(self):
        u = BoundaryFunction(values=np.ones(64), length=L, h=0.1)
        with pytest.raises(ValueError, match="1/sqrt"):
            verify_lower_chain(u, rho=0.1, delta=0.5, epsilon=0.9)

    def test_exterior_mass_guard_names_the_condition(self):
        h, delta = 0.1, 0.5
        u = make_boundary_function(
            lambda x: np.exp(2j * math.pi * 9 * x / L), 128, L, h
        )
        with pytest.raises(ValueError, match="exterior mass"):
            verify_lower_chain(u, rho=0.1, delta=delta, epsilon=0.1)
