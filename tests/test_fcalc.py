"""Tests for the windowed spectral calculus on level circles.

Oracles come first: an eigendecomposition realization of the windowed
projection written out inline, the closed-form circulant eigenvalues of the
periodic stencil, and an independent high-accuracy ODE integration.  Every
expected value below is computed from one of these or is an exact algebraic
identity of the inputs.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import hessenberg

from agmonlab import fcalc
from agmonlab._smooth import polyramp, polyramp_derivative
from agmonlab.agmon import LevelSet
from agmonlab.fcalc import (
    AlmostAnalyticExtension,
    _resolvent_weighted_sum,
    almost_analytic_extension,
    boundary_operator,
    comparison_solution,
    derivative_family,
    expected_circle_eigenvalue,
    exterior_mass,
    family_derivative_norms,
    hs_apply,
    integrate_comparison_ode,
    mass_profile_comparison,
    spectral_calculus,
    step_profile,
    surface_level,
    surface_trace_of_mode,
)
from agmonlab.models import make_model, potential_grid
from agmonlab.solver import (
    BoundaryFunction,
    BoundaryTrace,
    EigenMode,
    assemble_separable_mode,
    poisson_bvp,
    solve_transverse_modes,
)

FLAT = make_model("halfplane-unit")
TORUS = make_model("separable-torus")


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def oracle_projection(P: np.ndarray, scale: float) -> np.ndarray:
    """Windowed projection through an explicit eigendecomposition."""
    w, u = np.linalg.eigh(P)
    return (u * polyramp(w / scale - 1.0)) @ u.T


def oracle_circle_eigenvalue(length: float, n: int, h: float, k: int) -> float:
    """Closed-form eigenvalue of the periodic three-point stencil."""
    spacing = length / n
    return 4.0 * h**2 / spacing**2 * math.sin(math.pi * k / n) ** 2


def oracle_window_weight(mu: float, scale: float) -> float:
    """Window value at one operator eigenvalue."""
    return float(polyramp(mu / scale - 1.0))


def oracle_support_floor(model, tmode_energy, k_mode, n, h, scale) -> float:
    """Infimum of dispersion + barrier - mode energy over the window support."""
    length = model.lengths[0]
    mus = np.array(
        [oracle_circle_eigenvalue(length, n, h, j) for j in range(n // 2 + 1)]
    )
    supported = mus[polyramp(mus / scale - 1.0) > 1e-6]
    barrier_top = float(potential_grid(model, np.zeros(1), np.zeros(1))[0, 0])
    e_h = tmode_energy + oracle_circle_eigenvalue(length, n, h, k_mode)
    return float(np.min(supported)) + barrier_top - e_h


def oracle_comparison_ode(l0, slope0, t_constant, h, r_grid) -> np.ndarray:
    """Independent high-accuracy integration of z'' = (T / h^2) z."""
    rate = t_constant / h**2
    sol = solve_ivp(
        lambda _, y: [y[1], rate * y[0]],
        (float(r_grid[0]), float(r_grid[-1])),
        [l0, slope0],
        t_eval=np.asarray(r_grid, dtype=float),
        rtol=1e-12,
        atol=1e-14 * max(abs(l0), 1.0),
        method="DOP853",
    )
    return sol.y[0]


def reference_rk4_loop(l0, slope0, t_constant, h, r_grid, steps=8000):
    """The classical RK4 stages stepped one at a time, with the integrator's
    segment split: steps * segment / total rounded, at least one."""
    rate = t_constant / h**2
    total = float(r_grid[-1] - r_grid[0])
    out = [l0]
    y = np.array([l0, slope0])

    def rhs(state):
        return np.array([state[1], rate * state[0]])

    for j in range(1, len(r_grid)):
        seg = float(r_grid[j] - r_grid[j - 1])
        m = max(1, int(round(steps * seg / total)))
        dt = seg / m
        for _ in range(m):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y[0])
    return np.array(out)


def reference_block_sum(diag, off, nodes, weights):
    """The homogeneous-solution resolvent sum of one unreduced block, with
    x and y built over all nodes at once and one rank-m product."""
    n = diag.size
    b = np.concatenate([-off, [1.0]])
    x = np.empty((n + 1, nodes.size), dtype=complex)
    y = np.empty((n + 1, nodes.size), dtype=complex)
    x[0] = 1.0
    x[1] = -(nodes - diag[0]) / b[0]
    for i in range(2, n + 1):
        x[i] = -((nodes - diag[i - 1]) * x[i - 1] + b[i - 2] * x[i - 2]) / b[i - 1]
    y[n] = 0.0
    y[n - 1] = -1.0 / x[n]
    for j in range(n - 2, -1, -1):
        y[j] = -((nodes - diag[j + 1]) * y[j + 1] + b[j + 1] * y[j + 2]) / b[j]
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    upper = (x[:n] * weights) @ y[:n].T
    return np.triu(upper) + np.tril(upper.T, -1)


def reference_resolvent_sum(diag, off, nodes, weights):
    """reference_block_sum on each block of T split at its zero couplings."""
    n = diag.size
    total = np.zeros((n, n), dtype=complex)
    scale = max(np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0), 1.0)
    cuts = np.flatnonzero(np.abs(off) < 1e-12 * scale) + 1
    bounds = [0, *cuts.tolist(), n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo == 1:
            total[lo, lo] = np.sum(weights / (nodes - diag[lo]))
        else:
            total[lo:hi, lo:hi] = reference_block_sum(
                diag[lo:hi], off[lo : hi - 1], nodes, weights
            )
    return total


def seeded_dense_operator(n, scale, seed):
    """Random dense symmetric operator with spectrum in [0, 4 scale]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    P = (q * rng.uniform(0.0, 4.0 * scale, n)) @ q.T
    return 0.5 * (P + P.T)


def seeded_psd_tridiagonal(n, norm, seed):
    """Random diagonally dominant (so PSD) symmetric tridiagonal of the
    given 2-norm."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.5, 1.0, n - 1)
    diag = np.append(off, 0.0) + np.insert(off, 0, 0.0) + rng.uniform(0.0, 1.0, n)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return T * (norm / np.linalg.norm(T, 2))


def non_finite_operator(entry):
    """A symmetric level-circle operator with one NaN coupling pair or one
    infinite diagonal entry."""
    P = boundary_operator(FLAT, 0.0, 0.05, n=16)
    if entry == "nan off-diagonal":
        P[2, 3] = P[3, 2] = np.nan
    else:
        P[5, 5] = np.inf
    return P


def reference_hs_apply(P, ext, area_cells=(256, 256), edge_cells=1024):
    """The Cauchy-integral window with the full three-edge contour and the
    area and contour sums taken separately over all nodes."""
    n = P.shape[0]
    tri, q = hessenberg(P, calc_q=True)
    diag = tri.diagonal().copy()
    off = 0.5 * (tri.diagonal(-1) + tri.diagonal(1))
    scale = ext.scale
    nx, ny = area_cells[0], area_cells[1] // 2
    dx, dy = scale / nx, scale / ny
    x_mid = scale + (np.arange(nx) + 0.5) * dx
    y_mid = (np.arange(ny) + 0.5) * dy
    zz = (x_mid[:, None] + 1j * y_mid[None, :]).ravel()
    area_weights = (dx * dy / math.pi) * ext.dbar(zz)
    m = edge_cells
    tx = -scale + (np.arange(m) + 0.5) * (3.0 * scale / m)
    ty = -scale + (np.arange(m) + 0.5) * (2.0 * scale / m)
    contour_nodes = np.concatenate([tx - 1j * scale, tx + 1j * scale, -scale + 1j * ty])
    steps = np.concatenate(
        [
            np.full(m, 3.0 * scale / m),
            np.full(m, -3.0 * scale / m),
            np.full(m, -2j * scale / m),
        ]
    )
    contour_weights = steps * (1.0 - ext.value(contour_nodes)) / (2j * math.pi)
    area_sum = reference_resolvent_sum(diag, off, zz, area_weights)
    contour_sum = reference_resolvent_sum(diag, off, contour_nodes, contour_weights)
    result = q @ (np.eye(n) - np.real(contour_sum + 2.0 * area_sum)) @ q.T
    return 0.5 * (result + result.T)


# --------------------------------------------------------------------------
# shared modes (module-scoped: the transverse solves dominate setup cost)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def torus_transverse_coarse():
    return solve_transverse_modes(
        TORUS, 0.1375, target=0.5, count=1, n=2048, parity="even"
    )[0]


@pytest.fixture(scope="module")
def torus_transverse_sweep():
    return solve_transverse_modes(
        TORUS, 0.1, target=0.5, count=1, n=2048, parity="even"
    )[0]


@pytest.fixture(scope="module")
def torus_mode_detailed(torus_transverse_coarse):
    return assemble_separable_mode(
        torus_transverse_coarse, k=7, model=TORUS, n_tangential=256
    )


@pytest.fixture(scope="module")
def detailed_profile(torus_mode_detailed):
    return mass_profile_comparison(torus_mode_detailed, TORUS, lam=4.0, h=0.1375)


# --------------------------------------------------------------------------
# window profile
# --------------------------------------------------------------------------


class TestStepProfile:
    def test_exact_plateaus(self):
        below = np.array([-3.0, 0.0, 0.5, 1.0])
        above = np.array([2.0, 2.5, 10.0])
        assert np.array_equal(step_profile(below), np.zeros(4))
        assert np.array_equal(step_profile(above), np.ones(3))

    def test_derivatives_vanish_outside_transition(self):
        outside = np.array([-1.0, 0.99, 1.0, 2.0, 2.01, 5.0])
        for order in range(1, 5):
            assert np.array_equal(step_profile(outside, order), np.zeros(6))

    def test_interior_rise_is_strict(self):
        grid = np.linspace(1.01, 1.99, 99)
        vals = step_profile(grid)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_derivative_order_above_four_rejected(self):
        with pytest.raises(ValueError, match="order"):
            step_profile(1.5, 5)


# --------------------------------------------------------------------------
# almost analytic extension
# --------------------------------------------------------------------------


class TestAlmostAnalyticExtension:
    def test_real_axis_restriction_is_the_profile(self):
        ext = almost_analytic_extension(4.0, 0.05)
        x = np.linspace(-0.1, 0.6, 141)
        assert np.max(np.abs(ext.value(x + 0j) - step_profile(x / ext.scale))) == 0.0

    def test_defect_vanishes_on_real_axis_exactly(self):
        ext = almost_analytic_extension(4.0, 0.05)
        x = np.linspace(0.0, 0.6, 61)
        assert np.array_equal(ext.dbar(x + 0j), np.zeros(61, dtype=complex))

    def test_defect_supported_in_transition_band(self):
        ext = almost_analytic_extension(4.0, 0.05)
        s = ext.scale
        off_band = np.array([0.5 * s, 0.999 * s, 2.001 * s, 3.0 * s]) + 0.5j * s
        assert np.array_equal(ext.dbar(off_band), np.zeros(4, dtype=complex))
        assert abs(ext.dbar(np.array([1.3 * s + 0.5j * s]))[0]) > 0.0

    def test_defect_power_law_in_imaginary_part(self):
        ext = almost_analytic_extension(4.0, 0.05)
        assert ext.order == 2
        s = ext.scale
        y = s * np.array([1e-3, 1e-2, 1e-1])
        vals = np.abs(ext.dbar(1.3 * s + 1j * y))
        ratios = vals / y**2
        assert np.max(ratios) / np.min(ratios) - 1.0 < 1e-9

    def test_defect_bound_is_sharp_on_samples(self):
        ext = almost_analytic_extension(4.0, 0.05)
        zz = ext.x_samples[:, None] + 1j * ext.y_samples[None, :]
        bound = ext.c_measured * ext.scale ** -(ext.order + 1) * np.abs(zz.imag) ** ext.order
        mask = bound > 0.0
        ratio = np.abs(ext.dbar_samples)[mask] / bound[mask]
        assert float(np.max(ratio)) <= 1.0 + 1e-12
        assert float(np.max(ratio)) > 0.99

    def test_measured_constant_matches_independent_grid(self):
        ext = almost_analytic_extension(4.0, 0.05)
        fine = np.linspace(1.0, 2.0, 100001)
        independent = float(np.max(np.abs(polyramp_derivative(fine - 1.0, 3)))) / (
            2.0 * math.factorial(2)
        )
        assert ext.c_measured == pytest.approx(independent, rel=1e-9)
        assert ext.c_measured == pytest.approx(19.6875, rel=1e-9)

    def test_defect_is_the_conjugate_derivative_of_the_extension(self):
        ext = almost_analytic_extension(4.0, 0.05)
        s = ext.scale
        delta = 1e-6 * s
        for z in (1.3 * s + 0.4j * s, 1.7 * s - 0.25j * s, 1.05 * s + 0.8j * s):
            ddx = (ext.value(z + delta) - ext.value(z - delta)) / (2.0 * delta)
            ddy = (ext.value(z + 1j * delta) - ext.value(z - 1j * delta)) / (
                2.0 * delta
            )
            fd = 0.5 * (ddx + 1j * ddy)
            assert abs(fd - ext.dbar(z)) <= 1e-5 * max(abs(ext.dbar(z)), 1e-3 / s)

    def test_invalid_order_and_scale_rejected(self):
        # the extension order is fixed at 2, recorded on the extension
        with pytest.raises(TypeError, match="order"):
            almost_analytic_extension(4.0, 0.05, order=3)
        with pytest.raises(ValueError, match="must be positive"):
            almost_analytic_extension(0.0, 0.05)

    def test_samples_are_frozen_and_consistent(self):
        ext = almost_analytic_extension(4.0, 0.05)
        zz = ext.x_samples[:, None] + 1j * ext.y_samples[None, :]
        assert np.array_equal(ext.f_samples, ext.value(zz))
        assert np.array_equal(ext.dbar_samples, ext.dbar(zz))
        with pytest.raises(ValueError):
            ext.f_samples[0, 0] = 1.0


# --------------------------------------------------------------------------
# boundary operator on level circles
# --------------------------------------------------------------------------


class TestBoundaryOperator:
    def test_symmetric_positive_semidefinite_with_constant_nullvector(self):
        P = boundary_operator(FLAT, 0.3, 0.05, n=64)
        assert np.array_equal(P, P.T)
        assert float(np.linalg.eigvalsh(P).min()) >= -1e-12
        assert np.max(np.abs(P @ np.ones(64))) <= 1e-12

    def test_fourier_mode_is_exact_eigenvector(self):
        n, h, k = 64, 0.05, 3
        P = boundary_operator(FLAT, 0.0, h, n=n)
        x = 2.0 * math.pi / n * np.arange(n)
        vec = np.cos(k * x)
        mu = oracle_circle_eigenvalue(2.0 * math.pi, n, h, k)
        assert expected_circle_eigenvalue(FLAT, h, k, n) == pytest.approx(
            mu, rel=1e-15
        )
        assert np.max(np.abs(P @ vec - mu * vec)) <= 1e-12 * mu

    def test_eigenvalue_brackets_continuum_dispersion(self):
        n, h, k = 64, 0.05, 3
        mu = oracle_circle_eigenvalue(2.0 * math.pi, n, h, k)
        continuum = h**2 * float(k) ** 2  # length 2 pi: frequency k per radian
        x = math.pi * k / n
        assert mu <= continuum
        assert mu >= continuum * (1.0 - x**2 / 3.0)

    def test_refinement_shrinks_dispersion_error_fourth_order_rate(self):
        h, k = 0.05, 5
        continuum = h**2 * float(k) ** 2
        err = [
            continuum - oracle_circle_eigenvalue(2.0 * math.pi, n, h, k)
            for n in (64, 128)
        ]
        ratio = err[0] / err[1]
        assert 3.5 < ratio < 4.5

    def test_collar_guard(self):
        with pytest.raises(ValueError, match="collar"):
            boundary_operator(TORUS, 0.7, 0.05)
        with pytest.raises(ValueError, match="collar"):
            boundary_operator(FLAT, 1.01, 0.05)
        boundary_operator(TORUS, 0.5, 0.05)  # inside the collar

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            boundary_operator(FLAT, 0.0, 0.05, n=3)
        with pytest.raises(ValueError, match="h must be positive"):
            boundary_operator(FLAT, 0.0, 0.0)


# --------------------------------------------------------------------------
# windowed projection: eigendecomposition path
# --------------------------------------------------------------------------


class TestSpectralCalculus:
    def test_matches_oracle_on_diagonal_operator(self):
        ext = almost_analytic_extension(4.0, 0.05)
        evals = np.array([0.0, 0.1, 0.25, 0.3, 0.45, 0.8])
        F = spectral_calculus(np.diag(evals), ext)
        expected = np.diag(step_profile(evals / ext.scale))
        assert np.max(np.abs(F - expected)) <= 1e-15

    def test_plateau_operators_map_to_zero_and_identity(self):
        ext = almost_analytic_extension(4.0, 0.05)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        low = (q * rng.uniform(0.0, ext.scale, 12)) @ q.T
        high = (q * rng.uniform(2 * ext.scale, 8 * ext.scale, 12)) @ q.T
        assert np.max(np.abs(spectral_calculus(low, ext))) <= 1e-12
        assert np.max(np.abs(spectral_calculus(high, ext) - np.eye(12))) <= 1e-12

    def test_rejects_bad_operators(self):
        ext = almost_analytic_extension(4.0, 0.05)
        with pytest.raises(ValueError, match="symmetric"):
            spectral_calculus(np.array([[0.0, 1.0], [0.0, 0.0]]), ext)
        with pytest.raises(ValueError, match="square"):
            spectral_calculus(np.zeros((2, 3)), ext)

    @pytest.mark.parametrize("entry", ["nan off-diagonal", "inf diagonal"])
    def test_rejects_non_finite_operators(self, entry):
        ext = almost_analytic_extension(4.0, 0.05)
        with pytest.raises(ValueError, match="operator must be finite"):
            spectral_calculus(non_finite_operator(entry), ext)


# --------------------------------------------------------------------------
# windowed projection: Cauchy integral path
# --------------------------------------------------------------------------


class TestHsApply:
    def test_zero_operator_maps_to_zero(self):
        ext = almost_analytic_extension(4.0, 0.05)
        F = hs_apply(np.zeros((8, 8)), ext)
        assert np.max(np.abs(F)) <= 1e-6

    def test_far_plateau_multiple_of_identity(self):
        ext = almost_analytic_extension(4.0, 0.05)
        t = 2.5 * ext.scale
        F = hs_apply(t * np.eye(4), ext)
        assert np.max(np.abs(F - np.eye(4))) <= 1e-6

    def test_matches_spectral_oracle_on_random_operator(self):
        lam, h = 4.0, 0.05
        ext = almost_analytic_extension(lam, h)
        rng = np.random.default_rng(42)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        P = (q * rng.uniform(0.0, 4.0 * ext.scale, 16)) @ q.T
        operators = {"dense n=16": 0.5 * (P + P.T)}
        # eigenvalues log-spaced over six decades: the Hessenberg tridiagonal
        # is graded, its diagonal and couplings falling by decades down the rows
        q, _ = np.linalg.qr(rng.normal(size=(256, 256)))
        P = (q * (ext.scale * np.logspace(-3.0, 3.0, 256))) @ q.T
        operators["graded n=256"] = 0.5 * (P + P.T)
        # norms far below the window scale
        for rel in (1e-4, 1e-2):
            for n in (128, 256):
                operators[f"tridiagonal {rel:g}*scale n={n}"] = seeded_psd_tridiagonal(
                    n, rel * ext.scale, seed=n
                )
        for name, P in operators.items():
            F = hs_apply(P, ext)
            err = float(np.linalg.norm(F - oracle_projection(P, ext.scale), 2))
            assert err <= 1e-6, name

    def test_matches_spectral_oracle_on_level_circle(self):
        ext = almost_analytic_extension(4.0, 0.05)
        for n in (32, 128):
            P = boundary_operator(TORUS, 0.3, 0.05, n=n)
            F = hs_apply(P, ext)
            assert float(np.linalg.norm(F - oracle_projection(P, ext.scale), 2)) <= 1e-6

    def test_output_exactly_symmetric_with_spectrum_in_unit_window(self):
        ext = almost_analytic_extension(4.0, 0.05)
        P = boundary_operator(FLAT, 0.0, 0.05, n=32)
        F = hs_apply(P, ext)
        assert np.array_equal(F, F.T)
        window = np.linalg.eigvalsh(F)
        assert window.min() >= -2e-6 and window.max() <= 1.0 + 2e-6

    def test_quadratic_forms_stay_in_unit_window(self):
        ext = almost_analytic_extension(4.0, 0.05)
        F = hs_apply(boundary_operator(FLAT, 0.0, 0.05, n=32), ext)
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.normal(size=32)
            form = float(v @ F @ v) / float(v @ v)
            assert -1e-6 <= form <= 1.0 + 1e-6

    def test_window_support_starts_at_scale(self):
        ext = almost_analytic_extension(4.0, 0.05)
        P = boundary_operator(FLAT, 0.0, 0.05, n=32)
        F = hs_apply(P, ext)
        w, u = np.linalg.eigh(P)
        diag = np.diag(u.T @ F @ u)
        assert np.all(w[diag > 2e-6] > ext.scale)

    def test_bytewise_deterministic(self):
        ext = almost_analytic_extension(4.0, 0.05)
        P = boundary_operator(FLAT, 0.0, 0.05, n=32)
        assert np.array_equal(hs_apply(P, ext), hs_apply(P, ext))

    def test_coarse_quadrature_rejected(self):
        ext = almost_analytic_extension(4.0, 0.05)
        P = boundary_operator(FLAT, 0.0, 0.05, n=16)
        with pytest.raises(ValueError, match="too coarse"):
            hs_apply(P, ext, area_cells=(8, 8))
        with pytest.raises(ValueError, match="too coarse"):
            hs_apply(P, ext, edge_cells=32)
        with pytest.raises(ValueError, match="must be even"):
            hs_apply(P, ext, area_cells=(64, 33))

    @pytest.mark.parametrize("operator", ["circle n=32", "dense n=128"])
    def test_reflected_contour_matches_three_edge_reference(self, operator):
        ext = almost_analytic_extension(4.0, 0.05)
        if operator == "circle n=32":
            P = boundary_operator(FLAT, 0.0, 0.05, n=32)
        else:
            P = seeded_dense_operator(128, ext.scale, seed=8)
        F = hs_apply(P, ext)
        assert np.max(np.abs(F - reference_hs_apply(P, ext))) <= 1e-13

    def test_odd_edge_cells_keep_the_real_axis_node_once(self):
        ext = almost_analytic_extension(4.0, 0.05)
        P = boundary_operator(FLAT, 0.0, 0.05, n=32)
        F = hs_apply(P, ext, edge_cells=1023)
        assert np.max(np.abs(F - reference_hs_apply(P, ext, edge_cells=1023))) <= 1e-13

    def test_peak_memory_bounded_on_dense_n128(self):
        ext = almost_analytic_extension(4.0, 0.05)
        P = seeded_dense_operator(128, ext.scale, seed=8)
        tracemalloc.start()
        try:
            hs_apply(P, ext)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_operator_validation(self):
        ext = almost_analytic_extension(4.0, 0.05)
        with pytest.raises(ValueError, match="symmetric"):
            hs_apply(np.array([[0.0, 1.0], [0.0, 0.0]]), ext)
        with pytest.raises(ValueError, match="positive semidefinite"):
            hs_apply(-0.1 * np.eye(8), ext)
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(24, 24)))
        spectrum = np.linspace(ext.scale, 4.0 * ext.scale, 24)
        spectrum[7] = -1e-6  # one negative eigenvalue, positive diagonal
        with pytest.raises(ValueError, match="positive semidefinite"):
            hs_apply((q * spectrum) @ q.T, ext)
        with pytest.raises(ValueError, match="256"):
            hs_apply(np.zeros((300, 300)), ext)

    @pytest.mark.parametrize("entry", ["nan off-diagonal", "inf diagonal"])
    def test_rejects_non_finite_operators(self, entry):
        ext = almost_analytic_extension(4.0, 0.05)
        with pytest.raises(ValueError, match="operator must be finite"):
            hs_apply(non_finite_operator(entry), ext)

    def test_sturm_count_matches_eigenvalue_count(self):
        rng = np.random.default_rng(4)
        diag, off = rng.normal(size=40), rng.normal(size=39)
        w = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        for shift in np.concatenate([[w[0] - 1.0], 0.5 * (w[1:] + w[:-1]), [w[-1] + 1.0]]):
            assert fcalc._count_below(diag, off, shift) == np.sum(w < shift)
        # exact zero pivots at the shift 0: eigenvalues -sqrt 2, 0, sqrt 2;
        # -0.80, 0.55, 2.25; and 0 four times
        for diag, below in (([0.0, 0.0, 0.0], 1), ([1.0, 1.0, 0.0], 1), ([0.0] * 4, 0)):
            off = np.ones(len(diag) - 1) if below else np.zeros(len(diag) - 1)
            assert fcalc._count_below(np.array(diag), off, 0.0) == below


class TestResolventWeightedSum:
    def test_split_tridiagonal_matches_dense_inverse(self):
        rng = np.random.default_rng(12)
        n = 12
        diag = rng.uniform(0.0, 4.0, n)
        off = rng.uniform(0.5, 1.5, n - 1)
        off[4] = 0.0  # blocks rows 0..4 and 5..11
        nodes = rng.uniform(-1.0, 5.0, 6) + 1j * rng.choice([-1.0, 1.0], 6) * rng.uniform(
            0.1, 1.0, 6
        )
        weights = rng.normal(size=6) + 1j * rng.normal(size=6)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = sum(w * np.linalg.inv(z * np.eye(n) - T) for z, w in zip(nodes, weights))
        total = _resolvent_weighted_sum(diag, off, nodes, weights)
        assert total.dtype == np.float64
        assert np.max(np.abs(total - expected.real)) <= 1e-12 * np.max(
            np.abs(expected.real)
        )
        assert np.all(total[:5, 5:] == 0.0) and np.all(total[5:, :5] == 0.0)

    def test_blocked_sum_matches_one_shot_reference(self, monkeypatch):
        rng = np.random.default_rng(21)
        n = 12
        diag = rng.uniform(0.0, 4.0, n)
        off = rng.uniform(0.5, 1.5, n - 1)
        off[4] = 0.0  # blocks rows 0..4 and 5..11
        count = 53
        nodes = rng.uniform(-1.0, 5.0, count) + 1j * rng.choice(
            [-1.0, 1.0], count
        ) * rng.uniform(0.1, 1.0, count)
        weights = rng.normal(size=count) + 1j * rng.normal(size=count)
        complex_bytes = np.dtype(complex).itemsize
        monkeypatch.setattr(fcalc, "_NODE_BLOCK_BYTES", 10 * 2 * 8 * complex_bytes)
        for rows in (5, 7):
            block = fcalc._NODE_BLOCK_BYTES // (2 * (rows + 1) * complex_bytes)
            assert count // block >= 3 and count % block > 0
        expected = reference_resolvent_sum(diag, off, nodes, weights)
        total = _resolvent_weighted_sum(diag, off, nodes, weights)
        assert np.max(np.abs(total - expected.real)) <= 1e-13 * np.max(
            np.abs(expected.real)
        )
        assert np.all(total[:5, 5:] == 0.0) and np.all(total[5:, :5] == 0.0)

    @pytest.mark.parametrize("rows", [45, 70])
    def test_multi_panel_block_matches_one_shot_reference(self, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        diag = rng.uniform(0.0, 4.0, rows)
        off = rng.uniform(0.5, 1.5, rows - 1)
        count = 61
        nodes = rng.uniform(-1.0, 5.0, count) + 1j * rng.choice(
            [-1.0, 1.0], count
        ) * rng.uniform(1.0, 2.0, count)
        weights = rng.normal(size=count) + 1j * rng.normal(size=count)
        complex_bytes = np.dtype(complex).itemsize
        monkeypatch.setattr(fcalc, "_NODE_BLOCK_BYTES", 16 * 2 * (rows + 1) * complex_bytes)
        assert rows % fcalc._PANEL_ROWS > 0 and rows > fcalc._PANEL_ROWS
        assert count // 16 >= 3 and count % 16 > 0
        expected = reference_block_sum(diag, off, nodes, weights).real
        total = _resolvent_weighted_sum(diag, off, nodes, weights)
        assert total.dtype == np.float64
        assert np.max(np.abs(total - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_far_nodes_in_a_later_block_match_dense_inverse(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 8
        diag = rng.uniform(0.0, 4.0, n)
        off = rng.uniform(0.5, 1.5, n - 1)
        near = rng.uniform(-1.0, 5.0, 12) + 1j * rng.uniform(0.1, 1.0, 12)
        # |z|^8 overflows an ungauged minor; a weight of z keeps each far
        # node's term near the identity, so dropping one would show
        far = 1e50 * np.exp(1j * rng.uniform(0.1, 3.0, 4))
        nodes = np.concatenate([near, far])
        weights = np.concatenate([rng.normal(size=12) + 0j, far])
        complex_bytes = np.dtype(complex).itemsize
        monkeypatch.setattr(fcalc, "_NODE_BLOCK_BYTES", 4 * 2 * (n + 1) * complex_bytes)
        reference_block_sum(diag, off, near, weights[:12])  # first 3 blocks finite
        total = _resolvent_weighted_sum(diag, off, nodes, weights)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = sum(w * np.linalg.inv(z * np.eye(n) - T) for z, w in zip(nodes, weights))
        assert np.max(np.abs(total - expected.real)) <= 1e-12 * np.max(
            np.abs(expected.real)
        )

    def test_non_finite_block_sum_names_its_rows(self):
        rng = np.random.default_rng(6)
        diag = rng.uniform(0.0, 4.0, 12)
        off = rng.uniform(0.5, 1.5, 11)
        off[4] = 0.0  # blocks rows 0..4 and 5..11
        # the gauge |z|^(-n/2) underflows to 0 on a node this far out
        nodes = np.array([1.0 + 1.0j, 1e200j])
        with pytest.raises(ValueError, match=r"block at rows 0\.\.4 is not finite"):
            _resolvent_weighted_sum(diag, off, nodes, np.ones(2, dtype=complex))

    def test_weakly_coupled_block_matches_spectral_oracle(self):
        ext = almost_analytic_extension(4.0, 0.05)
        rng = np.random.default_rng(0)
        P = np.diag(rng.uniform(0.0, 4.0 * ext.scale, 64))
        idx = np.arange(63)
        P[idx, idx + 1] = P[idx + 1, idx] = 1e-6
        F = hs_apply(P, ext)
        assert float(np.linalg.norm(F - oracle_projection(P, ext.scale), 2)) <= 1e-6


# --------------------------------------------------------------------------
# surface level and trace
# --------------------------------------------------------------------------


class TestSurfaceLevelAndTrace:
    def test_surface_level_weights(self):
        level = surface_level(TORUS, n_tangential=64)
        spacing = 2.0 * math.pi / 64
        barrier = 2.0 - TORUS.energy  # cosine crest minus the energy
        assert level.rho == 0.0
        assert np.allclose(level.points[:, 1], 0.0)
        assert np.allclose(level.ambient_weights, spacing)
        assert np.allclose(level.weighted_weights, spacing * math.sqrt(barrier))

    def test_trace_of_assembled_mode(self, torus_mode_detailed):
        trace = surface_trace_of_mode(torus_mode_detailed, TORUS)
        assert trace.rho == 0.0
        assert trace.values.shape == (256,)
        # tensor structure: modulus constant along the circle
        mods = np.abs(trace.values)
        assert np.max(mods) / np.min(mods) - 1.0 <= 1e-12
        spacing = 2.0 * math.pi / 256
        norm_sq = spacing * float(np.sum(mods**2))
        assert trace.ambient_norm**2 == pytest.approx(norm_sq, rel=1e-12)

    def test_trace_rejects_transverse_mode(self, torus_transverse_coarse):
        with pytest.raises(ValueError, match="separable 2D mode"):
            surface_trace_of_mode(torus_transverse_coarse, TORUS)


# --------------------------------------------------------------------------
# exterior mass
# --------------------------------------------------------------------------


def _flat_surface_trace(values: np.ndarray, h: float) -> BoundaryTrace:
    level = surface_level(FLAT, n_tangential=values.size)
    return BoundaryTrace(values=values, level=level, rho=0.0, h=h)


class TestExteriorMass:
    def test_plateau_mode_carries_full_mass(self):
        n, h, k, lam = 256, 0.05, 14, 4.0
        mu = oracle_circle_eigenvalue(2.0 * math.pi, n, h, k)
        assert mu >= 2.0 * lam * h  # window plateau
        x = 2.0 * math.pi / n * np.arange(n)
        trace = _flat_surface_trace(np.exp(1j * k * x), h)
        mass = exterior_mass(trace, FLAT, lam, h)
        assert mass == pytest.approx(trace.ambient_norm**2, rel=1e-12)

    def test_single_mode_sweep_matches_window_weight(self):
        n, h, k = 256, 0.05, 12
        mu = oracle_circle_eigenvalue(2.0 * math.pi, n, h, k)
        x = 2.0 * math.pi / n * np.arange(n)
        trace = _flat_surface_trace(np.exp(1j * k * x), h)
        norm_sq = trace.ambient_norm**2
        for lam in (4.0, 8.0, 16.0, 32.0):
            mass = exterior_mass(trace, FLAT, lam, h)
            weight = oracle_window_weight(mu, lam * h)
            if weight == 0.0:
                assert mass <= 1e-13 * norm_sq  # projection roundoff floor
            else:
                assert mass == pytest.approx(weight * norm_sq, rel=1e-9)
        assert oracle_window_weight(mu, 4.0 * 0.05) > 0.0
        assert oracle_window_weight(mu, 8.0 * 0.05) == 0.0

    def test_broadband_trace_matches_spectral_sum(self):
        n, h = 256, 0.05
        x = 2.0 * math.pi / n * np.arange(n)
        amps = np.array([1.0 / (1.0 + m**2) for m in range(21)])
        values = sum(a * np.cos(m * x) for m, a in enumerate(amps))
        trace = _flat_surface_trace(values, h)
        spacing = 2.0 * math.pi / n
        masses = []
        for lam in (4.0, 8.0, 16.0, 32.0):
            oracle = spacing * sum(
                a**2
                * (n if m == 0 else n / 2.0)
                * oracle_window_weight(
                    oracle_circle_eigenvalue(2.0 * math.pi, n, h, m), lam * h
                )
                for m, a in enumerate(amps)
            )
            mass = exterior_mass(trace, FLAT, lam, h)
            floor = 1e-13 * trace.ambient_norm**2  # projection roundoff
            assert mass == pytest.approx(oracle, rel=1e-10, abs=floor)
            assert mass <= trace.ambient_norm**2
            masses.append(mass)
        # wider windows keep less mass (up to the same roundoff floor)
        assert np.all(np.diff(masses) <= 1e-13 * trace.ambient_norm**2)

    def test_cauchy_path_agrees_with_spectral_path(self):
        n, h, lam = 128, 0.05, 4.0
        x = 2.0 * math.pi / n * np.arange(n)
        amps = np.array([1.0 / (1.0 + m**2) for m in range(21)])
        values = sum(a * np.cos(m * x) for m, a in enumerate(amps))
        trace = _flat_surface_trace(values, h)
        a = exterior_mass(trace, FLAT, lam, h, path="spectral")
        b = exterior_mass(trace, FLAT, lam, h, path="hs")
        assert abs(a - b) <= 1e-6 * trace.ambient_norm**2

    def test_input_validation(self):
        n, h = 64, 0.05
        x = 2.0 * math.pi / n * np.arange(n)
        good = _flat_surface_trace(np.cos(9 * x), h)
        with pytest.raises(ValueError, match="zero trace"):
            exterior_mass(_flat_surface_trace(np.zeros(n), h), FLAT, 4.0, h)
        deep = BoundaryTrace(values=good.values, level=good.level, rho=0.3, h=h)
        with pytest.raises(ValueError, match="surface level"):
            exterior_mass(deep, FLAT, 4.0, h)
        with pytest.raises(ValueError, match="unknown path"):
            exterior_mass(good, FLAT, 4.0, h, path="contour")
        shifted = LevelSet(
            rho=0.0,
            points=np.column_stack([x + 0.5 * (x[1] - x[0]), np.zeros(n)]),
            ambient_weights=good.level.ambient_weights.copy(),
            weighted_weights=good.level.weighted_weights.copy(),
            model=FLAT,
        )
        mismatched = BoundaryTrace(
            values=good.values, level=shifted, rho=0.0, h=h
        )
        with pytest.raises(ValueError, match="does not match"):
            exterior_mass(mismatched, FLAT, 4.0, h)


# --------------------------------------------------------------------------
# depth-derivative norms of the projection family
# --------------------------------------------------------------------------


class TestFamilyDerivativeNorms:
    def test_catalogue_family_is_depth_constant(self):
        for order in (1, 2):
            report = family_derivative_norms(FLAT, 4.0, 0.05, order, n=64)
            assert report.norms == (0.0,)
            assert report.fitted_exponent is None
            assert report.exponent_ok is None

    def test_order_zero_norm_is_the_window_sup(self):
        report = family_derivative_norms(FLAT, 4.0, 0.05, 0, n=64)
        P = boundary_operator(FLAT, 0.0, 0.05, n=64)
        w = np.linalg.eigvalsh(P)
        expected = float(np.max(step_profile(w / 0.2)))
        assert report.norms[0] == pytest.approx(expected, rel=1e-12)
        assert report.norms[0] <= 1.0 + 1e-9

    def test_dilation_family_matches_chain_rule_oracle(self):
        n, h, lam = 64, 0.05, 4.0
        scale = lam * h
        P0 = boundary_operator(FLAT, 0.0, h, n=n)
        w, u = np.linalg.eigh(P0)
        oracle = float(
            np.max(np.abs(step_profile(w / scale, 1) * w / scale))
        )
        report = family_derivative_norms(
            FLAT, lam, h, 1, family=lambda r: (1.0 + r) * P0, n=n
        )
        assert report.norms[0] == pytest.approx(oracle, rel=1e-4)

    def test_shift_family_norms_and_window_exponents(self):
        n, h = 256, 0.05
        P0 = boundary_operator(FLAT, 0.0, h, n=n)
        w = np.linalg.eigvalsh(P0)
        lams = (4.0, 8.0, 16.0, 32.0)
        first = family_derivative_norms(
            FLAT, lams, h, 1, family=lambda r: P0 + r * np.eye(n), n=n
        )
        for lam, norm in zip(lams, first.norms):
            scale = lam * h
            oracle = float(np.max(np.abs(step_profile(w / scale, 1)))) / scale
            assert norm == pytest.approx(oracle, rel=1e-4)
        assert first.exponent_ok is True
        assert first.fitted_exponent == pytest.approx(-1.0, abs=0.3)
        second = family_derivative_norms(
            FLAT, lams, h, 2, family=lambda r: P0 + r * np.eye(n), n=n
        )
        assert second.exponent_ok is True
        assert second.fitted_exponent == pytest.approx(-2.0, abs=0.3)

    def test_renormalized_constants_are_scale_free(self):
        n, h = 256, 0.05
        P0 = boundary_operator(FLAT, 0.0, h, n=n)
        report = family_derivative_norms(
            FLAT, (4.0, 8.0, 16.0), h, 1, family=lambda r: P0 + r * np.eye(n), n=n
        )
        c = np.asarray(report.c_values)
        assert np.max(c) / np.min(c) < 1.5

    def test_input_validation(self):
        with pytest.raises(ValueError, match="order must be 0, 1, or 2"):
            family_derivative_norms(FLAT, 4.0, 0.05, 3)
        with pytest.raises(ValueError, match="underflow"):
            family_derivative_norms(FLAT, 4.0, 0.05, 1, step=0.0)
        with pytest.raises(ValueError, match="positive"):
            family_derivative_norms(FLAT, (4.0, -1.0), 0.05, 1)


# --------------------------------------------------------------------------
# comparison ODE
# --------------------------------------------------------------------------


class TestComparisonODE:
    def test_closed_form_against_independent_integration(self):
        l0, c, t, lam, h = 2e-4, 0.7, 1.3, 4.0, 0.08
        norm_sq = 0.9
        r = np.linspace(0.0, lam * h, 33)
        closed = comparison_solution(l0, c, t, lam, h, norm_sq, r)
        slope0 = -c * h * norm_sq / lam
        independent = oracle_comparison_ode(l0, slope0, t, h, r)
        scale = float(np.max(np.abs(closed)))
        assert float(np.max(np.abs(closed - independent))) <= 1e-8 * scale

    def test_rk4_integrator_against_closed_form(self):
        l0, c, t, lam, h = 2e-4, 0.7, 1.3, 4.0, 0.08
        norm_sq = 0.9
        r = np.linspace(0.0, lam * h, 33)
        closed = comparison_solution(l0, c, t, lam, h, norm_sq, r)
        numeric = integrate_comparison_ode(l0, -c * h * norm_sq / lam, t, h, r)
        scale = float(np.max(np.abs(closed)))
        assert float(np.max(np.abs(closed - numeric))) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "r, steps",
        [
            (np.linspace(0.0, 0.32, 33), 8000),
            (np.array([0.0, 0.01, 0.05, 0.06, 0.2, 0.32]), 8000),
            (np.array([0.0, 0.001, 0.3]), 50),
        ],
        ids=["uniform", "uneven", "one-step-segment"],
    )
    def test_step_matrix_matches_stepwise_rk4(self, r, steps):
        l0, slope0, t, h = 2e-4, -0.014, 1.3, 0.08
        reference = reference_rk4_loop(l0, slope0, t, h, r, steps)
        numeric = integrate_comparison_ode(l0, slope0, t, h, r, steps=steps)
        scale = float(np.max(np.abs(reference)))
        assert float(np.max(np.abs(numeric - reference))) <= 1e-13 * scale

    def test_zero_initial_mass_gives_pure_decay_branch(self):
        c, t, lam, h, norm_sq = 0.5, 2.0, 4.0, 0.1, 1.0
        r = np.array([0.0, 0.2, 0.4])
        vals = comparison_solution(0.0, c, t, lam, h, norm_sq, r)
        expected = (
            -c / math.sqrt(t) / lam * h**2 * norm_sq * np.sinh(math.sqrt(t) / h * r)
        )
        assert np.allclose(vals, expected, rtol=1e-14)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="not positive"):
            comparison_solution(1.0, 0.5, 0.0, 4.0, 0.1, 1.0, np.array([0.0]))
        with pytest.raises(ValueError, match="not positive"):
            integrate_comparison_ode(1.0, 0.0, -1.0, 0.1, np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match="start at 0"):
            integrate_comparison_ode(1.0, 0.0, 1.0, 0.1, np.array([0.1, 0.2]))


# --------------------------------------------------------------------------
# mass profile against the comparison solution
# --------------------------------------------------------------------------


class TestMassProfileComparison:
    def test_depth_grid_and_constants(self, detailed_profile, torus_mode_detailed):
        profile = detailed_profile
        assert np.array_equal(profile.r_grid, np.linspace(0.0, 0.55, 65))
        assert profile.c_constant == 0.0  # depth-constant catalogue family
        t_oracle = oracle_support_floor(
            TORUS,
            torus_mode_detailed.record["transverse_energy"],
            7,
            256,
            0.1375,
            0.55,
        )
        assert profile.t_constant == pytest.approx(t_oracle, rel=1e-9)
        assert 0.5 < profile.t_constant < 3.0

    def test_surface_mass_matches_window_weight(self, detailed_profile):
        profile = detailed_profile
        mu = oracle_circle_eigenvalue(2.0 * math.pi, 256, 0.1375, 7)
        weight = oracle_window_weight(mu, 0.55)
        norm_sq = profile.meta["surface_norm_sq"]
        assert profile.mass_values[0] == pytest.approx(
            0.1375**2 * weight * norm_sq, rel=1e-9
        )
        assert profile.verdict["exterior_ratio"] == pytest.approx(
            4.0 * weight, rel=1e-9
        )

    def test_comparison_solution_and_bounds(self, detailed_profile):
        profile = detailed_profile
        v = profile.verdict
        root = math.sqrt(profile.t_constant)
        expected = profile.mass_values[0] * np.cosh(root / 0.1375 * profile.r_grid)
        assert np.allclose(profile.comparison_values, expected, rtol=1e-12)
        assert v["comparison_holds"] is True
        assert v["ode_agreement"] <= 1e-8
        assert v["trivial_bound_holds"] is True
        assert v["l0_bound_holds"] is True
        l0_expected = v["integral_value"] * root / 0.1375 / math.sinh(root * 4.0)
        assert v["l0_bound"] == pytest.approx(l0_expected, rel=1e-12)
        assert profile.mass_values[0] <= v["l0_bound"] * (1.0 + 1e-9)

    def test_traces_grow_away_from_the_crest(self, detailed_profile):
        profile = detailed_profile
        v = profile.verdict
        assert v["neumann_ratio"] <= 1e-8
        assert v["traces_monotone"] is False
        assert 1e2 < v["trace_growth"] < 1e8
        # vanishing normal derivative at the crest: the profile starts flat
        # (no first-order decrease) and grows at second order
        span = profile.r_grid[-1] - profile.r_grid[0]
        mean_slope = (profile.mass_values[-1] - profile.mass_values[0]) / span
        assert abs(profile.mass_slope_at_zero) <= 1e-3 * mean_slope
        assert np.all(np.diff(profile.mass_values) > 0.0)

    def test_window_sweep_verdicts(self, torus_transverse_sweep):
        h = 0.1
        for lam, k in ((2.0, 5), (4.0, 7), (6.0, 9)):
            mode = assemble_separable_mode(
                torus_transverse_sweep, k=k, model=TORUS, n_tangential=256
            )
            profile = mass_profile_comparison(mode, TORUS, lam=lam, h=h)
            v = profile.verdict
            assert v["comparison_holds"] is True
            assert v["trivial_bound_holds"] is True
            assert v["l0_bound_holds"] is True
            assert v["traces_monotone"] is False
            assert v["ode_agreement"] <= 1e-8
            mu = oracle_circle_eigenvalue(2.0 * math.pi, 256, h, k)
            weight = oracle_window_weight(mu, lam * h)
            assert weight > 0.0
            assert v["exterior_ratio"] == pytest.approx(lam * weight, rel=1e-6)
            t_oracle = oracle_support_floor(
                TORUS, torus_transverse_sweep.energy, k, 256, h, lam * h
            )
            assert profile.t_constant == pytest.approx(t_oracle, rel=1e-6)

    def test_window_leaving_collar_rejected(self, torus_transverse_sweep):
        mode = assemble_separable_mode(
            torus_transverse_sweep, k=9, model=TORUS, n_tangential=256
        )
        with pytest.raises(ValueError, match="collar"):
            mass_profile_comparison(mode, TORUS, lam=7.0, h=0.1)

    @pytest.mark.parametrize("lam", [0.0, -4.0])
    def test_nonpositive_window_rejected(self, torus_mode_detailed, lam):
        with pytest.raises(ValueError, match="window scale"):
            mass_profile_comparison(torus_mode_detailed, TORUS, lam=lam, h=0.1375)

    def test_h_mismatch_rejected(self, torus_mode_detailed):
        with pytest.raises(ValueError, match="assembled at h"):
            mass_profile_comparison(torus_mode_detailed, TORUS, lam=4.0, h=0.1)

    def test_neumann_precondition_enforced(self, torus_transverse_coarse):
        y = torus_transverse_coarse.axes[0]
        xp = 2.0 * math.pi / 256 * np.arange(256)
        skew = np.sin(y) + 0.01 * np.cos(y)
        values = np.exp(1j * 7 * xp)[:, None] * skew[None, :]
        bad = EigenMode(
            energy=torus_transverse_coarse.energy,
            values=values,
            axes=(xp, y),
            h=0.1375,
            tangential_mode=7,
            record={},
        )
        with pytest.raises(ValueError, match="Neumann precondition"):
            mass_profile_comparison(bad, TORUS, lam=4.0, h=0.1375)

    def test_window_overlapping_mode_energy_rejected(self, torus_mode_detailed):
        hot = EigenMode(
            energy=3.0,
            values=torus_mode_detailed.values.copy(),
            axes=torus_mode_detailed.axes,
            h=0.1375,
            tangential_mode=7,
            record={},
        )
        with pytest.raises(ValueError, match="not positive"):
            mass_profile_comparison(hot, TORUS, lam=4.0, h=0.1375)

    def test_transverse_mode_rejected(self, torus_transverse_coarse):
        with pytest.raises(ValueError, match="separable 2D mode"):
            mass_profile_comparison(torus_transverse_coarse, TORUS, lam=4.0, h=0.1375)

    def test_meta_records_run_coordinates(self, detailed_profile):
        meta = detailed_profile.meta
        assert meta["model"] == TORUS.name
        assert meta["lam"] == 4.0 and meta["h"] == 0.1375
        assert meta["n_tangential"] == 256 and meta["tangential_mode"] == 7
        assert meta["support_dim"] > 200  # window plateau covers most modes
        assert 0.0 < meta["spectral_shift_size"] < 1.0

    def test_recompute_is_bitwise_identical(self, detailed_profile, torus_mode_detailed):
        profile = detailed_profile
        again = mass_profile_comparison(torus_mode_detailed, TORUS, lam=4.0, h=0.1375)
        assert np.array_equal(profile.mass_values, again.mass_values)
        assert np.array_equal(profile.comparison_values, again.comparison_values)
        assert again.t_constant == profile.t_constant


# --------------------------------------------------------------------------
# decaying branch: boundary-value extensions lose windowed mass with depth
# --------------------------------------------------------------------------


class TestDecayingBranchMass:
    def test_windowed_mass_decreases_along_decaying_extension(self):
        n, h, lam = 256, 0.05, 4.0
        x = 2.0 * math.pi / n * np.arange(n)
        phi = BoundaryFunction(np.cos(10 * x) + 0.4 * np.cos(14 * x), 2.0 * math.pi, h)
        field = poisson_bvp(FLAT, phi, h, far=1.0, n_normal=801)
        P = boundary_operator(FLAT, 0.0, h, n=n)
        w, u = np.linalg.eigh(P)
        weights = step_profile(w / (lam * h))
        assert float(np.max(weights)) > 0.0
        spacing = 2.0 * math.pi / n
        depths = np.arange(0, 321, 40)  # normal-node indices, depths 0 .. 0.4
        masses = []
        for j in depths:
            coeffs = u.T @ field.values[:, j]
            masses.append(
                h**2 * spacing * float(np.sum(weights * np.abs(coeffs) ** 2))
            )
        masses = np.asarray(masses)
        assert masses[0] > 0.0
        assert np.all(np.diff(masses) < 0.0)
