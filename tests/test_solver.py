"""Tests for the discrete eigenmode / boundary-value / trace machinery.

Oracles used here:
  * exact discrete dispersion of the periodic 3-point Laplacian
    (4 h^2/dx^2) sin^2(pi k / n), and the exact decay rate of the
    constant-coefficient tridiagonal recurrence
    arccosh(1 + dx^2 c / (2 h^2)) / dx;
  * the harmonic-well spectrum (2m+1) h of -h^2 d^2 + x^2;
  * an independently assembled dense matrix for the cosine well;
  * a sparse direct solve of the full 5-point Poisson system, assembled
    here with Kronecker products (independent of the CG kernel);
  * the Liouville-Green decay law exp(-weighted distance / h) with
    amplitude (V - E)^(-1/4), accurate to O(h) relative error;
  * closed-form half-plane multiplier solutions for constant barriers;
  * per-sample trace extraction: an exact copy on grid nodes, else one
    cubic spline per normal column evaluated at that sample alone.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh
from scipy.sparse.linalg import spsolve

from agmonlab import solver
from agmonlab.agmon import (
    LevelSet,
    agmon_distance,
    level_set_at,
    separable_collar,
    separable_level_set,
)
from agmonlab.halfplane import BoundaryFunction, apply_halfplane_poisson
from agmonlab.models import make_model, potential_grid
from agmonlab.solver import (
    BoundaryTrace,
    EigenMode,
    Field2D,
    TransverseWell,
    assemble_separable_mode,
    decay_fit,
    normal_derivative_trace,
    poisson_bvp,
    solve_transverse_modes,
    trace_at,
    transverse_well_from_model,
)

TORUS = make_model("separable-torus")
FLAT = make_model("halfplane-unit")
STRIP = make_model("strip-2d")


def free_circle_energy(h: float, length: float, n: int, k: int) -> float:
    """Exact discrete eigenvalue of the free periodic 3-point Laplacian."""
    dx = length / n
    return 4.0 * h**2 / dx**2 * math.sin(math.pi * k / n) ** 2


def discrete_rate(c: float, h: float, dx: float) -> float:
    """Exact decay rate of the recurrence -h^2 D2 u + c u = 0."""
    return math.acosh(1.0 + dx**2 * c / (2.0 * h**2)) / dx


def dense_periodic_oracle(profile, length, lo, h, n):
    """Independently assembled dense periodic matrix, by explicit loops."""
    dx = length / n
    nodes = lo + (np.arange(n) + 0.5) * dx
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = 2.0 * h**2 / dx**2 + profile(nodes[i : i + 1])[0]
        mat[i, (i + 1) % n] = -(h**2) / dx**2
        mat[i, (i - 1) % n] = -(h**2) / dx**2
    return np.linalg.eigvalsh(mat)


def sparse_direct_oracle(model, phi, h, far, n_normal):
    """Interior of the Dirichlet strip solve by a sparse direct factorization
    of the full 5-point system, u(., 0) = phi and u(., far) = 0."""
    length = model.lengths[0]
    nx, m = phi.values.size, n_normal - 2
    xp = length / nx * np.arange(nx)
    xn = np.linspace(0.0, far, n_normal)
    w = potential_grid(model, xp, xn)[:, 1:-1] - model.energy
    cn = h**2 / (xn[1] - xn[0]) ** 2
    cp = h**2 / (length / nx) ** 2
    normal = sparse.diags([-cn, 2.0 * cn, -cn], [-1, 0, 1], shape=(m, m))
    circle = sparse.diags(
        [-cp, -cp, 2.0 * cp, -cp, -cp], [1 - nx, -1, 0, 1, nx - 1], shape=(nx, nx)
    )
    mat = (
        sparse.kron(sparse.eye(nx), normal)
        + sparse.kron(circle, sparse.eye(m))
        + sparse.diags(w.ravel())
    )
    rhs = np.zeros((nx, m), dtype=complex)
    rhs[:, 0] = cn * phi.values
    return spsolve(mat.tocsc(), rhs.ravel()).reshape(nx, m)


def per_column_spline_oracle(values, xp, xn, level):
    """Trace values sample by sample: the node value when the sample's
    height is within 1e-12 of a normal node, else a cubic spline through
    that sample's own column alone, evaluated at its height."""
    out = np.empty(level.points.shape[0], dtype=values.dtype)
    for r, (x, s) in enumerate(level.points):
        i = int(np.argmin(np.abs(xp - x)))
        j = int(np.argmin(np.abs(xn - s)))
        if abs(xn[j] - s) <= 1e-12:
            out[r] = values[i, j]
        else:
            out[r] = CubicSpline(xn, values[i])(s)
    return out


def torus_weight(s):
    return np.sqrt(0.5 + np.cos(s))


class TestTransverseWell:
    def test_from_torus_model(self):
        well = transverse_well_from_model(TORUS)
        assert well.boundary == "periodic"
        assert well.lo == pytest.approx(-math.pi)
        assert well.length == pytest.approx(2.0 * math.pi)
        s = np.array([0.0, 1.0])
        assert well.profile(s) == pytest.approx(1.0 + np.cos(s))

    def test_rejects_bad_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            TransverseWell(profile=lambda s: s, length=1.0, boundary="robin")


class TestTransverseModes:
    def test_free_circle_matches_discrete_dispersion(self):
        well = TransverseWell(
            profile=lambda s: np.zeros_like(s),
            length=2.0 * math.pi,
            boundary="periodic",
            lo=-math.pi,
        )
        modes = solve_transverse_modes(well, h=0.1, target=1.0, count=4, n=512)
        e10 = free_circle_energy(0.1, 2.0 * math.pi, 512, 10)
        e9 = free_circle_energy(0.1, 2.0 * math.pi, 512, 9)
        assert modes[0].energy == pytest.approx(e10, abs=1e-10)
        assert modes[1].energy == pytest.approx(e10, abs=1e-10)
        assert modes[2].energy == pytest.approx(e9, abs=1e-10)
        assert modes[3].energy == pytest.approx(e9, abs=1e-10)
        # within 1% of the continuum value h^2 k^2 = 1
        assert abs(modes[0].energy - 1.0) < 0.01

    def test_free_circle_even_parity_subset(self):
        well = TransverseWell(
            profile=lambda s: np.zeros_like(s),
            length=2.0 * math.pi,
            boundary="periodic",
            lo=-math.pi,
        )
        full = solve_transverse_modes(well, h=0.1, target=1.0, count=2, n=512)
        even = solve_transverse_modes(
            well, h=0.1, target=1.0, count=1, n=512, parity="even"
        )
        assert even[0].energy == pytest.approx(full[0].energy, abs=1e-9)
        assert even[0].record["odd_part_norm"] == 0.0

    def test_harmonic_well_level(self):
        well = TransverseWell(
            profile=lambda x: x**2, length=12.0, boundary="dirichlet", lo=-6.0
        )
        h = 0.05
        [mode] = solve_transverse_modes(well, h=h, target=3.0 * h, count=1, n=1024)
        assert mode.energy == pytest.approx(3.0 * h, rel=0.02)

    def test_cosine_well_matches_dense_oracle(self):
        well = transverse_well_from_model(TORUS)
        modes = solve_transverse_modes(well, h=0.05, target=0.5, count=5, n=768)
        oracle = dense_periodic_oracle(
            well.profile, well.length, well.lo, 0.05, 768
        )
        for mode in modes:
            assert np.min(np.abs(oracle - mode.energy)) < 1e-8

    def test_cosine_well_parity_subset_of_full_spectrum(self):
        well = transverse_well_from_model(TORUS)
        oracle = dense_periodic_oracle(
            well.profile, well.length, well.lo, 0.05, 768
        )
        even = solve_transverse_modes(
            well, h=0.05, target=0.5, count=4, n=768, parity="even"
        )
        for mode in even:
            assert np.min(np.abs(oracle - mode.energy)) < 1e-9
            assert mode.record["odd_part_norm"] == 0.0

    def test_normalization_and_residual(self):
        well = transverse_well_from_model(TORUS)
        modes = solve_transverse_modes(well, h=0.05, target=0.5, count=3, n=512)
        for mode in modes:
            assert abs(mode.record["norm"] - 1.0) < 1e-10
            assert mode.record["residual"] < 1e-8

    def test_assembled_matrix_symmetric_real_spectrum(self):
        from agmonlab.solver import _dense_matrix, _well_nodes

        for boundary in ("periodic", "dirichlet", "neumann"):
            well = TransverseWell(
                profile=lambda s: 1.0 + 0.3 * np.sin(s),
                length=2.0 * math.pi,
                boundary=boundary,
                lo=-math.pi,
            )
            nodes = _well_nodes(well, 300)
            mat = _dense_matrix(well, 0.1, nodes)
            assert np.max(np.abs(mat - mat.T)) == 0.0
            assert np.max(np.abs(np.imag(np.linalg.eigvals(mat)))) < 1e-9

    def test_resolvability_guard(self):
        well = transverse_well_from_model(TORUS)
        with pytest.raises(ValueError, match="resolvability"):
            solve_transverse_modes(well, h=0.01, target=0.5, count=1, n=512)

    def test_minimum_grid_guard(self):
        well = transverse_well_from_model(TORUS)
        with pytest.raises(ValueError, match="below the minimum"):
            solve_transverse_modes(well, h=0.5, target=0.5, count=1, n=128)

    def test_parity_requires_periodic(self):
        well = TransverseWell(
            profile=lambda x: x**2, length=12.0, boundary="dirichlet", lo=-6.0
        )
        with pytest.raises(ValueError, match="periodic"):
            solve_transverse_modes(
                well, h=0.05, target=0.15, count=1, n=1024, parity="even"
            )

    def test_values_frozen(self):
        well = transverse_well_from_model(TORUS)
        [mode] = solve_transverse_modes(well, h=0.05, target=0.5, count=1, n=512)
        with pytest.raises(ValueError):
            mode.values[0] = 1.0


class TestAssembleSeparableMode:
    def _even_mode(self, h=0.05, n=768):
        well = transverse_well_from_model(TORUS)
        [mode] = solve_transverse_modes(
            well, h=h, target=TORUS.energy, count=1, n=n, parity="even"
        )
        return mode

    def test_energy_adds_discrete_dispersion(self):
        mode = self._even_mode()
        two_d = assemble_separable_mode(mode, k=3, model=TORUS, n_tangential=256)
        dxp = 2.0 * math.pi / 256
        disp = 4.0 * 0.05**2 / dxp**2 * math.sin(math.pi * 3 / 256) ** 2
        assert two_d.energy == pytest.approx(mode.energy + disp, abs=1e-14)
        cont = 0.05**2 * 3**2
        assert two_d.record["tangential_dispersion_continuum"] == pytest.approx(
            cont, abs=1e-14
        )

    def test_neumann_data_vanishes_across_symmetry_line(self):
        mode = self._even_mode()
        two_d = assemble_separable_mode(mode, k=2, model=TORUS, n_tangential=128)
        xn = two_d.axes[1]
        m = xn.size // 2
        assert xn[m - 1] == pytest.approx(-xn[m])
        jump = np.max(np.abs(two_d.values[:, m] - two_d.values[:, m - 1]))
        assert jump <= 1e-8 * np.max(np.abs(two_d.values))

    def test_unit_normalization(self):
        mode = self._even_mode()
        two_d = assemble_separable_mode(mode, k=1, model=TORUS, n_tangential=64)
        dxp = 2.0 * math.pi / 64
        dxn = two_d.axes[1][1] - two_d.axes[1][0]
        total = dxp * dxn * np.sum(np.abs(two_d.values) ** 2)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_uneven_transverse_mode(self):
        mode = self._even_mode()
        doctored = EigenMode(
            energy=mode.energy,
            values=np.array(mode.values),
            axes=mode.axes,
            h=mode.h,
            tangential_mode=None,
            record={**mode.record, "odd_part_norm": 1.0},
        )
        with pytest.raises(ValueError, match="odd-part"):
            assemble_separable_mode(doctored, k=0, model=TORUS)


class TestPoissonBVP:
    def test_flat_single_mode_matches_multiplier_solution(self):
        # nx = 256 is the least power of two meeting the 1e-6 bound: the
        # tangential stencil error on mode k = 2 reads 3.8e-7 there, 1.5e-6
        # at nx = 128
        h, k, nx, ny, far = 0.05, 2, 256, 24001, 1.0
        length = 2.0 * math.pi
        xp = length / nx * np.arange(nx)
        phi = BoundaryFunction(np.exp(1j * k * xp), length, h)
        field = poisson_bvp(FLAT, phi, h, far=far, n_normal=ny, rho_max=0.3)
        xi = h * k
        kappa = math.sqrt(1.0 + xi**2) / h
        exact = np.exp(1j * k * xp)[:, None] * np.exp(
            -kappa * field.normal_nodes
        )[None, :]
        assert np.max(np.abs(field.values - exact)) < 1e-6
        assert field.meta["residual"] < 1e-8
        assert field.meta["path"] == "mode-pcg"
        assert field.meta["iterations"] == 0

    def test_zero_data_gives_zero_field(self):
        n = 64
        phi = BoundaryFunction(np.zeros(n), 2.0 * math.pi, 0.1)
        field = poisson_bvp(FLAT, phi, 0.1, far=1.0, n_normal=201)
        assert np.max(np.abs(field.values)) == 0.0

    def test_discrete_maximum_principle(self):
        nx = 128
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.5 * np.cos(xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(TORUS, phi, 0.05, far=1.6, n_normal=301, rho_max=0.3)
        vals = np.real(field.values)
        assert np.min(vals) >= -1e-10
        assert np.max(vals) <= 1.5 + 1e-10

    @pytest.mark.parametrize(
        "model, far, n_normal",
        [(TORUS, 1.2, 101), (STRIP, 0.5, 41)],
        ids=["separable-torus", "strip-2d"],
    )
    def test_agrees_with_sparse_direct_oracle(self, model, far, n_normal):
        nx = 32
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.3 * np.cos(2.0 * xp) + 0.2j * np.sin(3.0 * xp)
        phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)
        field = poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)
        oracle = sparse_direct_oracle(model, phi, 0.05, far, n_normal)
        assert np.max(np.abs(field.values[:, 1:-1] - oracle)) < 1e-10
        assert np.array_equal(field.values[:, 0], data)
        assert np.all(field.values[:, -1] == 0.0)
        assert np.min(np.real(field.values)) >= -1e-10  # maximum principle
        assert field.meta["path"] == "mode-pcg"
        assert field.meta["residual"] < 1e-8
        if model is TORUS:  # tangentially constant: the preconditioner is exact
            assert field.meta["iterations"] == 0
        else:
            assert field.meta["iterations"] > 0

    def test_large_strip_solve_converges(self):
        # 128 x 1999 = 255,872 interior unknowns, tangentially varying V
        nx = 128
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.2 * np.cos(xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(STRIP, phi, 0.05, far=0.8, n_normal=2001, rho_max=0.2)
        assert field.meta["residual"] <= 1e-9
        assert 0 < field.meta["iterations"] < 50

    @pytest.mark.parametrize(
        "model, far, n_normal",
        [(TORUS, 1.2, 101), (STRIP, 0.5, 41)],
        ids=["separable-torus", "strip-2d"],
    )
    def test_edge_modes_agree_with_sparse_direct_oracle(self, model, far, n_normal):
        # k = 0 and the Nyquist mode k = nx / 2 are the real-only rfft modes
        nx = 32
        nyquist = (-1.0) ** np.arange(nx)
        data = 1.0 + 0.4 * nyquist + 0.1j * (1.0 - nyquist)
        for values in (data.real, data):
            phi = BoundaryFunction(values, 2.0 * math.pi, 0.05)
            field = poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)
            oracle = sparse_direct_oracle(model, phi, 0.05, far, n_normal)
            assert np.max(np.abs(field.values[:, 1:-1] - oracle)) < 1e-10

    @pytest.mark.parametrize(
        "model, far, n_normal",
        [(TORUS, 1.2, 101), (STRIP, 0.5, 41), (STRIP, 0.8, 801)],
        ids=["separable-torus", "strip-2d", "strip-2d-fine"],
    )
    def test_real_data_gives_real_field(self, model, far, n_normal):
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.3 * np.cos(2.0 * xp) + 0.1 * np.sin(5.0 * xp)
        for values in (data, data.astype(complex)):
            phi = BoundaryFunction(values, 2.0 * math.pi, 0.05)
            field = poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)
            assert field.values.dtype == complex
            assert np.all(field.values.imag == 0.0)

    @pytest.mark.parametrize(
        "model, far, n_normal, combined_tol",
        [(TORUS, 1.2, 101, 1e-14), (STRIP, 0.5, 41, 1e-10), (STRIP, 0.8, 801, 1e-10)],
        ids=["separable-torus", "strip-2d", "strip-2d-fine"],
    )
    def test_complex_data_by_linearity(self, model, far, n_normal, combined_tol):
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        re = 1.0 + 0.3 * np.cos(2.0 * xp) + 0.1 * np.cos(32.0 * xp)
        im = 0.05 + 0.2 * np.sin(3.0 * xp)

        def solve(values):
            phi = BoundaryFunction(values, 2.0 * math.pi, 0.05)
            return poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)

        f_re, f_im = solve(re), solve(im)
        f_i, f_both = solve(1j * re), solve(re + 1j * im)
        scale = np.max(np.abs(f_re.values))
        assert np.max(np.abs(f_i.values - 1j * f_re.values)) <= 1e-14 * scale
        # CG is linear in the data only when the preconditioner is exact (no
        # iteration); otherwise the two solves agree to the stopping test
        combined = f_re.values + 1j * f_im.values
        gap = np.max(np.abs(f_both.values - combined))
        assert gap <= combined_tol * np.max(np.abs(f_both.values))
        counts = {f.meta["iterations"] for f in (f_re, f_im, f_i, f_both)}
        assert len(counts) == 1

    @pytest.mark.parametrize(
        "nx, far, n_normal, rho_max, data, iterations",
        [
            (
                32, 0.5, 41, 0.0,
                lambda x: 1.0 + 0.3 * np.cos(2 * x) + 0.2j * np.sin(3 * x),
                11,
            ),
            (128, 0.8, 2001, 0.2, lambda x: 1.0 + 0.2 * np.cos(x), 9),
        ],
        ids=["complex-32x41", "real-128x2001"],
    )
    def test_strip_iteration_counts(self, nx, far, n_normal, rho_max, data, iterations):
        # the counts of the complex-arithmetic kernel this one replaced
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(data(xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(
            STRIP, phi, 0.05, far=far, n_normal=n_normal, rho_max=rho_max
        )
        assert field.meta["iterations"] == iterations

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "_PCG_MAX_ITER", 2)
        nx = 32
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.2 * np.cos(xp), 2.0 * math.pi, 0.05)
        with pytest.raises(ValueError, match=r"32 x 41 grid: residual .* after 2"):
            poisson_bvp(STRIP, phi, 0.05, far=0.5, n_normal=41)

    def test_doubling_far_boundary_is_negligible(self):
        nx = 64
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, 0.05)
        level = separable_level_set(TORUS, 0.3, n_tangential=nx)
        near = poisson_bvp(TORUS, phi, 0.05, far=0.95, n_normal=951, rho_max=0.3)
        doubled = poisson_bvp(TORUS, phi, 0.05, far=1.9, n_normal=1901, rho_max=0.3)
        t_near = trace_at(near, level)
        t_doubled = trace_at(doubled, level)
        rel = abs(t_near.ambient_norm - t_doubled.ambient_norm) / t_doubled.ambient_norm
        assert rel < 1e-8
        assert near.meta["contamination_bound"] < 1e-6

    def test_far_boundary_guards(self):
        nx = 64
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, 0.3)
        with pytest.raises(ValueError, match="far-boundary influence"):
            poisson_bvp(TORUS, phi, 0.3, far=1.0, n_normal=101, rho_max=0.5)
        phi2 = BoundaryFunction(np.ones(nx), 2.0 * math.pi, 0.05)
        with pytest.raises(ValueError, match="weighted depth"):
            poisson_bvp(TORUS, phi2, 0.05, far=0.3, n_normal=101, rho_max=0.5)

    def test_far_boundary_depth_on_product_model_is_the_collar_distance(self):
        # the torus barrier is 0.5 + cos(x_n) on every column
        oracle, _ = quad(lambda t: math.sqrt(0.5 + math.cos(t)), 0.0, 1.0)
        assert solver._agmon_depth(TORUS, 1.0) == pytest.approx(oracle, rel=1e-10)

    def test_far_boundary_depth_is_a_lower_bound_on_every_column(self):
        # the strip's barrier varies along the tangent; columns between the
        # probe nodes of the minimum must not fall below it either
        depth = solver._agmon_depth(STRIP, 1.0)
        columns = np.linspace(0.0, STRIP.lengths[0], 97)[:-1] + 0.013

        def column_depth(x):
            def weight(t):
                v = potential_grid(STRIP, np.array([x]), np.array([t]))[0, 0]
                return math.sqrt(max(float(v) - STRIP.energy, 0.0))

            return quad(weight, 0.0, 1.0, limit=200)[0]

        depths = np.array([column_depth(x) for x in columns])
        assert np.all(depths >= depth)
        assert np.min(depths) == pytest.approx(depth, rel=1e-4)

    def test_indefinite_operator_rejected(self):
        nx = 64
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, 0.05)
        with pytest.raises(ValueError, match="indefinite"):
            poisson_bvp(TORUS, phi, 0.05, far=2.5, n_normal=301)

    def test_mismatched_data_rejected(self):
        phi = BoundaryFunction(np.ones(64), 1.0, 0.05)
        with pytest.raises(ValueError, match="length"):
            poisson_bvp(FLAT, phi, 0.05, far=1.0, n_normal=101)
        phi2 = BoundaryFunction(np.ones(64), 2.0 * math.pi, 0.1)
        with pytest.raises(ValueError, match="does not match the solve"):
            poisson_bvp(FLAT, phi2, 0.05, far=1.0, n_normal=101)


class TestTraces:
    def _analytic_field(self, ny, fn):
        xp = 2.0 * math.pi / 16 * np.arange(16)
        xn = np.linspace(0.0, 1.0, ny)
        values = np.ones(16)[:, None] * fn(xn)[None, :]
        return Field2D(
            values=values.astype(complex),
            tangential_nodes=xp,
            normal_nodes=xn,
            h=0.05,
            model=FLAT,
            meta={},
        )

    def test_boundary_row_is_exact(self):
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.5 * np.cos(xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(FLAT, phi, 0.05, far=1.0, n_normal=201)
        level = separable_level_set(FLAT, 0.0, n_tangential=nx)
        trace = trace_at(field, level)
        assert np.max(np.abs(trace.values - phi.values)) == 0.0

    def test_constant_field_norm_is_sqrt_length(self):
        field = self._analytic_field(101, lambda s: np.ones_like(s))
        level = separable_level_set(FLAT, 0.25, n_tangential=16)
        trace = trace_at(field, level)
        assert trace.ambient_norm == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_metric_norm_ratio_on_torus(self):
        nx = 32
        xp = 2.0 * math.pi / nx * np.arange(nx)
        xn = np.linspace(0.0, 1.0, 101)
        field = Field2D(
            values=np.ones((nx, 101), dtype=complex),
            tangential_nodes=xp,
            normal_nodes=xn,
            h=0.05,
            model=TORUS,
            meta={},
        )
        level = separable_level_set(TORUS, 0.3, n_tangential=nx)
        trace = trace_at(field, level)
        s_star = float(separable_collar(TORUS).s_of_rho(0.3))
        expected = (0.5 + math.cos(s_star)) ** 0.25
        assert trace.agmon_norm / trace.ambient_norm == pytest.approx(
            expected, rel=1e-12
        )

    def test_interpolation_error_shrinks_with_grid(self):
        fn = lambda s: np.cos(3.0 * s) * np.exp(-s)
        level = separable_level_set(FLAT, 1.0 / 3.0, n_tangential=16)
        errors = []
        for ny in (51, 101):
            trace = trace_at(self._analytic_field(ny, fn), level)
            errors.append(abs(trace.values[0] - fn(np.array([1.0 / 3.0]))[0]))
        assert errors[1] > 1e-15
        assert errors[0] / errors[1] >= 3.0

    def test_tangential_mismatch_rejected(self):
        field = self._analytic_field(101, lambda s: np.exp(-s))
        level = separable_level_set(FLAT, 0.25, n_tangential=48)
        with pytest.raises(ValueError, match="tangential"):
            trace_at(field, level)

    def test_level_outside_normal_range_rejected(self):
        field = self._analytic_field(101, lambda s: np.exp(-s))
        level = separable_level_set(FLAT, 1.5, n_tangential=16)
        with pytest.raises(ValueError, match="normal range"):
            trace_at(field, level)


@pytest.fixture(scope="module")
def strip():
    nx, h = 64, 0.05
    xp = 2.0 * math.pi / nx * np.arange(nx)
    data = 1.0 + 0.3 * np.cos(xp) + 0.1j * np.sin(2.0 * xp)
    phi = BoundaryFunction(data, 2.0 * math.pi, h)
    field = poisson_bvp(STRIP, phi, h, far=0.8, n_normal=401, rho_max=0.2)
    distance = agmon_distance(STRIP, grid_sizes=(nx, 129))
    return field, distance


class TestTraceOracle:
    """trace_at and normal_derivative_trace against per-column splines,
    bitwise, on curved, flat and partly node-aligned levels."""

    @staticmethod
    def _assert_matches_oracle(field, level):
        xp, xn = field.tangential_nodes, field.normal_nodes
        trace = trace_at(field, level)
        assert np.array_equal(
            trace.values, per_column_spline_oracle(field.values, xp, xn, level)
        )
        grad = np.gradient(field.values, xn, axis=1)
        deriv = normal_derivative_trace(field, level, field.h)
        assert np.array_equal(
            deriv.values, per_column_spline_oracle(grad, xp, xn, level)
        )
        return trace

    @pytest.mark.parametrize("block_columns", [None, 5])
    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.2])
    def test_curved_strip_levels(self, strip, rho, block_columns, monkeypatch):
        field, distance = strip
        field = replace(field)  # no kept slopes: this block size builds them
        if block_columns:  # 64 columns in blocks of 5, the last one short
            column_bytes = field.values.shape[1] * field.values.itemsize
            monkeypatch.setattr(
                solver, "_SPLINE_BLOCK_BYTES", block_columns * column_bytes
            )
        level = level_set_at(distance, rho)
        heights = level.points[:, 1]
        assert np.ptp(heights) > 1e-3  # the level really curves
        gaps = np.abs(field.normal_nodes[None, :] - heights[:, None])
        assert np.min(gaps) > 1e-12  # every sample is interpolated
        self._assert_matches_oracle(field, level)

    def test_flat_off_node_level(self, strip):
        field, _ = strip
        nx = field.tangential_nodes.size
        level = separable_level_set(FLAT, 0.1234, n_tangential=nx)
        height = level.points[0, 1]
        assert np.min(np.abs(field.normal_nodes - height)) > 1e-12
        self._assert_matches_oracle(field, level)

    def test_partly_node_aligned_level(self, strip):
        field, distance = strip
        xn = field.normal_nodes
        curved = level_set_at(distance, 0.1)
        points = np.array(curved.points)
        # every third sample within 1e-12 of a node: on it, just above it,
        # just below it in turn
        aligned = np.arange(0, points.shape[0], 3)
        nodes = np.searchsorted(xn, points[aligned, 1])
        shift = np.resize([0.0, 5e-13, -5e-13], aligned.size)
        points[aligned, 1] = xn[nodes] + shift
        assert np.count_nonzero(points[aligned, 1] != xn[nodes]) > 0
        level = LevelSet(
            rho=curved.rho,
            points=points,
            ambient_weights=np.array(curved.ambient_weights),
            weighted_weights=np.array(curved.weighted_weights),
            model=STRIP,
        )
        trace = self._assert_matches_oracle(field, level)
        # node-aligned rows are copies of the field, not spline values
        assert np.array_equal(trace.values[aligned], field.values[aligned, nodes])


def level_at_heights(heights):
    """A level with one sample per field column at the given heights."""
    nx = heights.size
    xp = 2.0 * math.pi / nx * np.arange(nx)
    weights = np.full(nx, 2.0 * math.pi / nx)
    return LevelSet(
        rho=0.0,
        points=np.column_stack([xp, heights]),
        ambient_weights=weights,
        weighted_weights=weights.copy(),
        model=STRIP,
    )


@pytest.fixture
def spline_builds(monkeypatch):
    """Column counts of every CubicSpline the solver builds."""
    columns = []

    def counted(x, y, *args, **kwargs):
        columns.append(np.shape(y)[1])
        return CubicSpline(x, y, *args, **kwargs)

    monkeypatch.setattr(solver, "CubicSpline", counted)
    return columns


class TestKeptSlopes:
    """A field builds its column splines once, on its first off-node trace,
    and every later trace evaluates bitwise as a fresh per-column spline."""

    RHOS = (0.05, 0.1, 0.15, 0.2)

    @pytest.mark.parametrize(
        "order",
        [(0, 1, 2, 3), (3, 2, 1, 0), (1, 1, 3, 1, 3)],
        ids=["ascending", "descending", "repeated"],
    )
    def test_level_order(self, strip, order):
        field, distance = strip
        field = replace(field)
        xp, xn = field.tangential_nodes, field.normal_nodes
        grad = np.gradient(field.values, xn, axis=1)
        for i in order:
            level = level_set_at(distance, self.RHOS[i])
            assert np.array_equal(
                trace_at(field, level).values,
                per_column_spline_oracle(field.values, xp, xn, level),
            )
            assert np.array_equal(
                normal_derivative_trace(field, level, field.h).values,
                per_column_spline_oracle(grad, xp, xn, level),
            )

    @pytest.mark.parametrize("where", ["first", "last", "mixed"])
    def test_end_intervals(self, strip, where):
        field, distance = strip
        field = replace(field)
        xp, xn = field.tangential_nodes, field.normal_nodes
        # warm the kept slopes on an interior level first
        trace_at(field, level_set_at(distance, 0.1))
        fraction = np.linspace(0.05, 0.95, xp.size)
        first = xn[0] + fraction * (xn[1] - xn[0])
        last = xn[-2] + fraction * (xn[-1] - xn[-2])
        heights = {
            "first": first,
            "last": last,
            "mixed": np.where(np.arange(xp.size) % 2 == 0, first, last),
        }[where]
        level = level_at_heights(heights)
        assert np.array_equal(
            trace_at(field, level).values,
            per_column_spline_oracle(field.values, xp, xn, level),
        )

    def test_one_build_pass_per_field(self, strip, spline_builds):
        field, distance = strip
        nx = field.values.shape[0]
        levels = [level_set_at(distance, rho) for rho in self.RHOS]
        for fresh in (replace(field), replace(field)):
            for level in levels:
                trace_at(fresh, level)
        block = solver._SPLINE_BLOCK_BYTES // (
            field.values.shape[1] * field.values.itemsize
        )
        assert block < nx  # the build really runs in several blocks
        assert sum(spline_builds) == 2 * nx
        assert len(spline_builds) == 2 * math.ceil(nx / block)

    def test_node_aligned_level_builds_nothing(self, strip, spline_builds):
        field, _ = strip
        field = replace(field)
        xn = field.normal_nodes
        nodes = np.arange(field.values.shape[0]) % (xn.size - 1)
        # within 1e-12 of a node counts as on it
        heights = xn[nodes] + np.resize([0.0, 5e-13, -5e-13], nodes.size)
        trace = trace_at(field, level_at_heights(heights))
        assert np.array_equal(
            trace.values, field.values[np.arange(nodes.size), nodes]
        )
        assert spline_builds == []
        assert "_spline_slopes" not in vars(field)

    def test_gauged_field_builds_its_own(self, strip, spline_builds):
        field, distance = strip
        field = replace(field)
        xp, xn = field.tangential_nodes, field.normal_nodes
        level = level_set_at(distance, 0.1)
        trace_at(field, level)
        built = sum(spline_builds)
        # a field derived by replace: the field gauged by exp(d / h) for a
        # tangentially varying distance d
        d = xn[None, :] * (1.0 + 0.2 * np.cos(xp))[:, None]
        gauged = replace(field, values=field.values * np.exp(d / field.h))
        assert "_spline_slopes" not in vars(gauged)
        assert np.array_equal(
            trace_at(gauged, level).values,
            per_column_spline_oracle(gauged.values, xp, xn, level),
        )
        assert sum(spline_builds) == 2 * built
        # the parent keeps its own slopes and values
        assert np.array_equal(
            trace_at(field, level).values,
            per_column_spline_oracle(field.values, xp, xn, level),
        )
        assert sum(spline_builds) == 2 * built

    def test_kept_memory_is_one_field(self):
        nx, n = 128, 801
        rng = np.random.default_rng(8)
        values = rng.standard_normal((nx, n)) + 1j * rng.standard_normal((nx, n))
        xn = np.linspace(0.0, 0.8, n)
        field = Field2D(
            values=values,
            tangential_nodes=2.0 * math.pi / nx * np.arange(nx),
            normal_nodes=xn,
            h=0.05,
            model=STRIP,
            meta={},
        )
        trace_at(field, level_at_heights(np.full(nx, 0.5 * (xn[400] + xn[401]))))
        kept = vars(field)["_spline_slopes"]
        # owned arrays only: a view would hide the array it keeps alive
        assert all(a.base is None for a in kept)
        assert sum(a.nbytes for a in kept) <= values.nbytes + 2 * nx * values.itemsize


class TestNormalDerivative:
    def test_flat_mode_ratio(self):
        h, k, nx, ny = 0.05, 20, 64, 2001
        xp = 2.0 * math.pi / nx * np.arange(nx)
        xn = np.linspace(0.0, 1.0, ny)
        kappa = math.sqrt(1.0 + (h * k) ** 2) / h
        values = np.exp(1j * k * xp)[:, None] * np.exp(-kappa * xn)[None, :]
        field = Field2D(
            values=values,
            tangential_nodes=xp,
            normal_nodes=xn,
            h=h,
            model=FLAT,
            meta={},
        )
        level = separable_level_set(FLAT, 0.25, n_tangential=nx)
        trace = trace_at(field, level)
        deriv = normal_derivative_trace(field, level, h)
        ratio = deriv.ambient_norm / trace.ambient_norm
        assert ratio == pytest.approx(kappa, rel=1e-4)

    def test_edge_guard(self):
        h, nx, ny = 0.05, 16, 101
        xp = 2.0 * math.pi / nx * np.arange(nx)
        xn = np.linspace(0.0, 1.0, ny)
        field = Field2D(
            values=np.ones((nx, ny), dtype=complex),
            tangential_nodes=xp,
            normal_nodes=xn,
            h=h,
            model=FLAT,
            meta={},
        )
        level = separable_level_set(FLAT, 0.005, n_tangential=nx)
        with pytest.raises(ValueError, match="two cells"):
            normal_derivative_trace(field, level, h)


class TestDecayFit:
    def test_flat_constant_data_slope_is_exactly_minus_one(self):
        h = 0.05
        phi = BoundaryFunction(np.ones(64), 2.0 * math.pi, h)
        rhos = [0.05, 0.1, 0.15, 0.2, 0.25]
        traces = [apply_halfplane_poisson(phi, r) for r in rhos]
        fit = decay_fit(traces, rhos, h)
        assert abs(fit.slope_times_h + 1.0) < 1e-6
        assert fit.residual < 1e-10

    def test_unit_frequency_mode_rate(self):
        # h |xi_k| = 1 gives slope * h = -sqrt(2); verified against both the
        # continuum value (5%) and the exact discrete-recurrence rate (1e-6)
        h, k, nx, ny, far = 0.05, 20, 256, 2001, 1.0
        length = 2.0 * math.pi
        xp = length / nx * np.arange(nx)
        phi = BoundaryFunction(np.exp(1j * k * xp), length, h)
        field = poisson_bvp(FLAT, phi, h, far=far, n_normal=ny, rho_max=0.3)
        rhos = [0.05, 0.1, 0.15, 0.2, 0.25]
        traces = [
            trace_at(field, separable_level_set(FLAT, r, n_tangential=nx))
            for r in rhos
        ]
        fit = decay_fit(traces, rhos, h)
        assert abs(fit.slope_times_h + math.sqrt(2.0)) < 0.05 * math.sqrt(2.0)
        dxp = length / nx
        xi_d2 = 4.0 * h**2 / dxp**2 * math.sin(math.pi * k / nx) ** 2
        dxn = far / (ny - 1)
        rate = discrete_rate(1.0 + xi_d2, h, dxn)
        assert fit.slope == pytest.approx(-rate, rel=1e-6)

    def test_scale_invariance(self):
        h = 0.05
        base = BoundaryFunction(np.ones(64), 2.0 * math.pi, h)
        scaled = BoundaryFunction(5.0 * np.ones(64), 2.0 * math.pi, h)
        rhos = [0.05, 0.1, 0.15, 0.2]
        fit_a = decay_fit([apply_halfplane_poisson(base, r) for r in rhos], rhos, h)
        fit_b = decay_fit(
            [apply_halfplane_poisson(scaled, r) for r in rhos], rhos, h
        )
        assert fit_a.slope == pytest.approx(fit_b.slope, abs=1e-12)

    def test_guards(self):
        h = 0.05
        phi = BoundaryFunction(np.ones(64), 2.0 * math.pi, h)
        traces = [apply_halfplane_poisson(phi, r) for r in (0.1, 0.2, 0.3)]
        with pytest.raises(ValueError, match="at least 4"):
            decay_fit(traces, [0.1, 0.2, 0.3], h)
        traces4 = traces + [apply_halfplane_poisson(phi, 0.3)]
        with pytest.raises(ValueError, match="at least 4"):
            decay_fit(traces4, [0.1, 0.2, 0.3, 0.3], h)
        with pytest.raises(ValueError, match="one distance per trace"):
            decay_fit(traces4, [0.1, 0.2, 0.3], h)


class TestTorusSandwich:
    """Two-sided decay for the Poisson-extended even-mode trace.

    The globally even mode itself grows toward the turning set, so it only
    obeys the lower decay estimate; the two-sided rate belongs to the
    decaying boundary-value extension of its hypersurface trace.
    """

    def _bvp_ratio(self, h, rho, nx=128):
        ny = max(513, int(round(4.0 * 1.9 / h)) | 1)
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
        field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=ny, rho_max=0.55)
        level = separable_level_set(TORUS, rho, n_tangential=nx)
        gamma = separable_level_set(TORUS, 0.0, n_tangential=nx)
        return trace_at(field, level).ambient_norm / trace_at(field, gamma).ambient_norm

    def test_torus_zero_mode_slope(self):
        h = 0.02
        nx = 128
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
        field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=513, rho_max=0.55)
        rhos = [0.1, 0.2, 0.3, 0.4, 0.5]
        traces = [
            trace_at(field, separable_level_set(TORUS, r, n_tangential=nx))
            for r in rhos
        ]
        fit = decay_fit(traces, rhos, h)
        assert abs(fit.slope_times_h + 1.0) < 0.1

    def test_gauged_constants_stable_across_h(self):
        rho = 0.3
        constants = [
            math.exp(rho / h) * self._bvp_ratio(h, rho) for h in (0.08, 0.04, 0.02)
        ]
        assert max(constants) / min(constants) < 3.0
        assert min(constants) > 0.0

    def test_even_mode_obeys_lower_bound_but_grows(self):
        h = 0.05
        well = transverse_well_from_model(TORUS)
        [mode] = solve_transverse_modes(
            well, h=h, target=TORUS.energy, count=1, n=1024, parity="even"
        )
        spline_nodes = mode.axes[0]
        from scipy.interpolate import CubicSpline

        spl = CubicSpline(spline_nodes, mode.values)
        collar = separable_collar(TORUS)
        gamma_val = abs(float(spl(0.0)))
        assert gamma_val > 0.0
        for rho in (0.1, 0.2, 0.3):
            s = float(collar.s_of_rho(rho))
            ratio = abs(float(spl(s))) / gamma_val
            assert ratio >= 0.5 * math.exp(-rho / h)  # lower estimate holds
        s5 = float(collar.s_of_rho(0.5))
        assert abs(float(spl(s5))) / gamma_val > 1.0  # and the mode grows
