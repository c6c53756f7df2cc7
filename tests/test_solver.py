"""Tests for the discrete eigenmode / boundary-value / trace machinery.

Oracles used here:
  * exact discrete dispersion of the periodic 3-point Laplacian
    (4 h^2/dx^2) sin^2(pi k / n), and the exact decay rate of the
    constant-coefficient tridiagonal recurrence
    arccosh(1 + dx^2 c / (2 h^2)) / dx;
  * an independently assembled dense periodic matrix for the cosine well,
    whose spectrum contains every even-parity mode's energy;
  * a sparse direct solve of the full 5-point Poisson system, assembled
    here with Kronecker products (independent of the CG kernel);
  * the Liouville-Green decay law exp(-weighted distance / h) with
    amplitude (V - E)^(-1/4), accurate to O(h) relative error;
  * closed-form half-plane multiplier solutions for constant barriers;
  * per-sample trace extraction: an exact copy on grid nodes, else one
    cubic spline per normal column evaluated at that sample alone.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import spsolve

import agmonlab
from agmonlab import solver
from agmonlab._numerics import Spline, level_norm, spline_slopes
from agmonlab.agmon import (
    LevelSet,
    agmon_distance,
    level_set_at,
    separable_level_height,
    separable_level_set,
)
from agmonlab.experiments import parse_config, run_experiment
from agmonlab.halfplane import (
    BoundaryFunction,
    apply_halfplane_poisson,
    make_boundary_function,
)
from agmonlab.models import make_model, potential_grid, transverse_potential, weighted_depth
from agmonlab.solver import (
    Field2D,
    assemble_separable_mode,
    decay_fit,
    normal_derivative_trace,
    poisson_bvp,
    solve_transverse_modes,
    trace_at,
)

TORUS = make_model("separable-torus")
FLAT = make_model("halfplane-unit")
STRIP = make_model("strip-2d")


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
    """Every row of the Dirichlet strip solve, u(., 0) = phi and u(., far)
    = 0, its interior by a sparse direct factorization of the full 5-point
    system."""
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
    u = np.zeros((nx, n_normal), dtype=complex)
    u[:, 0] = phi.values
    u[:, 1:-1] = spsolve(mat.tocsc(), rhs.ravel()).reshape(nx, m)
    return u


def single_pass_stencil(u, w, cn, cp):
    """The 5-point operator at the interior normal rows of u, in one pass
    over the whole array: the reference for the blocked solver._stencil."""
    out = w * u[..., 1:-1]
    tmp = np.add(u[..., :-2], u[..., 2:])
    tmp *= -cn
    out += tmp
    np.multiply(u[..., 1:-1], 2.0 * (cn + cp), out=tmp)
    out += tmp
    np.add(u[..., :-2, 1:-1], u[..., 2:, 1:-1], out=tmp[..., 1:-1, :])
    np.add(u[..., -1, 1:-1], u[..., 1, 1:-1], out=tmp[..., 0, :])
    np.add(u[..., -2, 1:-1], u[..., 0, 1:-1], out=tmp[..., -1, :])
    tmp *= -cp
    out += tmp
    return out


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


def data_spectrum(data):
    """The rfft of the one or two real parts of boundary data: what a
    solved field holds on row 0 at its modes."""
    data = np.asarray(data)
    if np.iscomplexobj(data) and np.any(data.imag):
        return np.fft.rfft(np.stack([data.real, data.imag]))
    return np.fft.rfft(np.real(data))[None]


def field_of(values, xn, h=0.05):
    """A Field2D of given values, shaped (nx, rows) on the circle of length
    2 pi: every rfft mode of each real part and the values of row 0, as a
    CG solve holds its field."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        parts = np.stack([values.real, values.imag])
    else:
        parts = values[None]
    nx = values.shape[0]
    return Field2D(
        modes=np.arange(nx // 2 + 1),
        spectrum=np.fft.rfft(parts, axis=-2),
        boundary=parts[..., 0].copy(),
        tangential_nodes=2.0 * math.pi / nx * np.arange(nx),
        normal_nodes=np.asarray(xn, dtype=float),
        h=h,
        meta={},
    )


def mode_rule_oracle(field, level):
    """Trace values sample by sample by the mode rule, with none of the
    solver's batching: a sample within 1e-12 of a normal node reads that
    node's row at its column, the boundary data on row 0 of a field that
    holds it and elsewhere the inverse rfft of that row's held modes alone;
    any other sample reads scipy's cubic Hermite interpolant through the
    values and knot slopes of its two bracketing rows at its column, the
    slopes the inverse rfft of the held modes' knot slopes, the real and
    imaginary parts of each mode column splined on their own."""
    xp, xn, modes = field.tangential_nodes, field.normal_nodes, field.modes
    nx = xp.size
    slopes = np.empty(field.spectrum.shape, dtype=complex)
    for p, i in np.ndindex(field.spectrum.shape[:2]):
        column = field.spectrum[p, i]
        slopes[p, i].real = spline_slopes(xn, column.real)
        slopes[p, i].imag = spline_slopes(xn, column.imag)

    def row(columns, p, j):
        full = np.zeros(nx // 2 + 1, dtype=complex)
        full[modes] = columns[p, :, j]
        if columns is field.spectrum and j == 0 and field.boundary is not None:
            return field.boundary[p]
        return np.fft.irfft(full, nx)

    parts = np.empty((len(field.spectrum), level.points.shape[0]))
    for r, (x, s) in enumerate(level.points):
        c = int(np.argmin(np.abs(xp - x)))
        j = int(np.argmin(np.abs(xn - s)))
        k = min(max(int(np.searchsorted(xn, s, side="right")) - 1, 0), xn.size - 2)
        for p in range(len(parts)):
            if abs(xn[j] - s) <= 1e-12:
                parts[p, r] = row(field.spectrum, p, j)[c]
                continue
            y = [row(field.spectrum, p, i)[c] for i in (k, k + 1)]
            d = [row(slopes, p, i)[c] for i in (k, k + 1)]
            parts[p, r] = CubicHermiteSpline(xn[k : k + 2], y, d)(s)
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def derivative_field(field):
    """The field normal_derivative_trace reads: the normal differences of
    the mode columns, with no boundary row of its own."""
    grad = np.gradient(field.spectrum, field.normal_nodes, axis=-1)
    return replace(field, spectrum=grad, boundary=None)


def assert_near_oracle(values, oracle, tol=1e-14):
    """values within tol of the oracle, relative to its largest modulus."""
    assert np.max(np.abs(values - oracle)) <= tol * np.max(np.abs(oracle))


def torus_weight(s):
    return np.sqrt(0.5 + np.cos(s))


class TestTransverseModes:
    def test_cosine_well_parity_subset_of_full_spectrum(self):
        oracle = dense_periodic_oracle(
            transverse_potential(TORUS), 2.0 * math.pi, -math.pi, 0.05, 768
        )
        even = solve_transverse_modes(TORUS, h=0.05, target=0.5, count=4, n=768)
        for mode in even:
            assert np.min(np.abs(oracle - mode.energy)) < 1e-9
            assert mode.record["odd_part_norm"] == 0.0

    @pytest.mark.parametrize("target", [-1.0, 0.5, 0.51, 200.0])
    def test_nearest_modes_in_the_order_of_the_full_spectrum(self, target):
        # the windowed solve picks the modes an independent dense solve of
        # the half-interval tridiagonal ranks nearest, in its order; the
        # targets sit below the spectrum (which ends near 151), at the
        # model energy, near the midpoint of the eigenvalues 0.446 and 0.577
        # and above the spectrum
        h, n, count = 0.05, 768, 5
        even = solve_transverse_modes(TORUS, h=h, target=target, count=count, n=n)
        d = 2.0 * math.pi / n
        half = (np.arange(n // 2) + 0.5) * d
        matrix = np.diag(2.0 * h**2 / d**2 + transverse_potential(TORUS)(half))
        matrix -= np.diag(np.full(n // 2 - 1, h**2 / d**2), 1)
        matrix -= np.diag(np.full(n // 2 - 1, h**2 / d**2), -1)
        matrix[0, 0] -= h**2 / d**2
        matrix[-1, -1] -= h**2 / d**2
        spectrum = np.linalg.eigvalsh(matrix)
        nearest = spectrum[np.argsort(np.abs(spectrum - target), kind="stable")[:count]]
        energies = np.array([mode.energy for mode in even])
        assert np.max(np.abs(energies - nearest)) < 1e-10

    def test_transverse_solve_memory_is_linear_in_n(self):
        # only the selected vectors are formed and extended: at n = 16,384
        # the full eigendecomposition took 1.5 GiB
        tracemalloc.start()
        try:
            [mode] = solve_transverse_modes(
                TORUS, h=0.025, target=TORUS.energy, count=1, n=16384
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert mode.record["residual"] < 1e-8

    def test_normalization_and_residual(self):
        modes = solve_transverse_modes(TORUS, h=0.05, target=0.5, count=3, n=512)
        for mode in modes:
            spacing = float(mode.axes[0][1] - mode.axes[0][0])
            norm = math.sqrt(spacing * float(np.sum(mode.values**2)))
            assert abs(norm - 1.0) < 1e-10
            assert mode.record["residual"] < 1e-8

    def test_resolvability_guard(self):
        with pytest.raises(ValueError, match="resolvability"):
            solve_transverse_modes(TORUS, h=0.01, target=0.5, count=1, n=512)

    def test_minimum_grid_guard(self):
        with pytest.raises(ValueError, match="below the minimum"):
            solve_transverse_modes(TORUS, h=0.5, target=0.5, count=1, n=128)

    def test_parity_requires_periodic(self):
        with pytest.raises(ValueError, match="'halfplane-unit' has no periodic normal"):
            solve_transverse_modes(FLAT, h=0.05, target=0.15, count=1, n=1024)
        # the strip has no normal circle either, but no transverse well first
        with pytest.raises(ValueError, match="'strip-2d' depends on the tangential"):
            solve_transverse_modes(STRIP, h=0.05, target=0.15, count=1, n=1024)

    def test_rejects_odd_parity(self):
        with pytest.raises(ValueError, match="unknown parity 'odd'"):
            solve_transverse_modes(
                TORUS, h=0.05, target=0.5, count=1, n=1024, parity="odd"
            )

    def test_values_frozen(self):
        [mode] = solve_transverse_modes(TORUS, h=0.05, target=0.5, count=1, n=512)
        with pytest.raises(ValueError):
            mode.values[0] = 1.0


class TestAssembleSeparableMode:
    def _even_mode(self, h=0.05, n=768):
        [mode] = solve_transverse_modes(TORUS, h=h, target=TORUS.energy, count=1, n=n)
        return mode

    def test_energy_adds_discrete_dispersion(self):
        mode = self._even_mode()
        two_d = assemble_separable_mode(mode, k=3, model=TORUS, n_tangential=256)
        dxp = 2.0 * math.pi / 256
        disp = 4.0 * 0.05**2 / dxp**2 * math.sin(math.pi * 3 / 256) ** 2
        assert two_d.energy == pytest.approx(mode.energy + disp, abs=1e-14)

    def test_neumann_data_vanishes_across_symmetry_line(self):
        mode = self._even_mode()
        two_d = assemble_separable_mode(mode, k=2, model=TORUS, n_tangential=128)
        xn = two_d.normal_nodes
        m = xn.size // 2
        assert xn[m - 1] == pytest.approx(-xn[m])
        values = np.outer(two_d.phase, two_d.profile)  # the mode, formed here
        jump = np.max(np.abs(values[:, m] - values[:, m - 1]))
        assert jump <= 1e-8 * np.max(np.abs(values))

    def test_unit_normalization(self):
        mode = self._even_mode()
        two_d = assemble_separable_mode(mode, k=1, model=TORUS, n_tangential=64)
        dxp = 2.0 * math.pi / 64
        dxn = two_d.normal_nodes[1] - two_d.normal_nodes[0]
        values = np.outer(two_d.phase, two_d.profile)  # the mode, formed here
        total = dxp * dxn * np.sum(np.abs(values) ** 2)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_factors_are_frozen(self):
        two_d = assemble_separable_mode(self._even_mode(), k=1, model=TORUS)
        for factor in (two_d.profile, two_d.phase):
            with pytest.raises(ValueError):
                factor[0] = 1.0

    def test_assembly_never_forms_the_product(self):
        # a 1024 x 4096 complex product is 64 MiB; the factors are 48 KiB
        mode = self._even_mode(n=4096)
        tracemalloc.start()
        try:
            two_d = assemble_separable_mode(mode, k=5, model=TORUS, n_tangential=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert two_d.phase.shape == (1024,) and two_d.profile.shape == (4096,)

    def test_rejects_uneven_transverse_mode(self):
        mode = self._even_mode()
        doctored = replace(mode, record={**mode.record, "odd_part_norm": 1.0})
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
        assert field.meta["path"] == "mode-direct"
        assert field.meta["iterations"] == 0

    def test_zero_data_gives_zero_field(self):
        n = 64
        phi = BoundaryFunction(np.zeros(n), 2.0 * math.pi, 0.1)
        field = poisson_bvp(FLAT, phi, 0.1, far=1.0, n_normal=201)
        assert field.modes.size == 0  # zero data carries no mode
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
        held = field.normal_nodes.size  # the rows returned
        assert np.max(np.abs(field.values - oracle[:, :held])) < 1e-10
        assert np.array_equal(field.values[:, 0], data)
        # row 0 holds the data's own transform at the modes held
        row = data_spectrum(data)[:, field.modes]
        assert np.array_equal(field.spectrum[..., 0], row)
        assert np.min(np.real(field.values)) >= -1e-10  # maximum principle
        assert field.meta["residual"] < 1e-8
        if model is TORUS:  # tangentially constant: the preconditioner is exact
            assert field.meta["path"] == "mode-direct"
            assert field.meta["iterations"] == 0
            assert held < n_normal
        else:
            assert field.meta["path"] == "mode-pcg"
            assert field.meta["iterations"] > 0
            assert np.all(field.values[:, -1] == 0.0)

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
            held = field.normal_nodes.size  # the rows returned
            assert np.max(np.abs(field.values - oracle[:, :held])) < 1e-10

    @pytest.mark.parametrize(
        "model, far, n_normal",
        [(TORUS, 1.2, 101), (STRIP, 0.5, 41), (STRIP, 0.8, 801)],
        ids=["separable-torus", "strip-2d", "strip-2d-fine"],
    )
    def test_real_data_gives_real_field(self, model, far, n_normal):
        # data whose imaginary part is exactly zero, given as float or as
        # complex, gives one float64 field; complex data a complex field
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.3 * np.cos(2.0 * xp) + 0.1 * np.sin(5.0 * xp)

        def solve(values):
            phi = BoundaryFunction(values, 2.0 * math.pi, 0.05)
            return poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal).values

        real, promoted = solve(data), solve(data.astype(complex))
        assert real.dtype == promoted.dtype == np.float64
        assert np.array_equal(real, promoted)
        assert solve(data + 0.1j * np.sin(3.0 * xp)).dtype == np.complex128

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

    @pytest.mark.parametrize(
        "model, far, n_normal, modes, blocks, iterations",
        [(TORUS, 1.2, 12001, [0, 2, 3], 3, 0), (STRIP, 0.5, 41, range(17), 1, 11)],
        ids=["separable-torus", "strip-2d"],
    )
    def test_factorizations(
        self, monkeypatch, model, far, n_normal, modes, blocks, iterations
    ):
        # each mode solved is factored once per solve, in order: on the
        # direct path only the modes the data carries (0, 2 and 3), a block
        # of modes at a time (one mode a block at 12,001 normal nodes), and
        # every mode as one whole factor that a solve that iterates keeps as
        # CG's preconditioner
        calls = []
        factor = solver._mode_factor

        def counted(w, cn, dispersion):
            calls.append(dispersion)
            return factor(w, cn, dispersion)

        monkeypatch.setattr(solver, "_mode_factor", counted)
        nx = 32
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.3 * np.cos(2.0 * xp) + 0.2j * np.sin(3.0 * xp)
        phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)
        field = poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)
        factored = solver.expected_circle_eigenvalue(model, 0.05, np.array(modes), nx)
        assert len(calls) == blocks
        assert np.array_equal(np.concatenate(calls), factored)
        assert np.array_equal(field.modes, modes)
        assert field.meta["iterations"] == iterations

    def test_iterating_solve_frees_the_unit_rows_before_cg(self, monkeypatch):
        # the unit-row solutions g_k (half a field, solved in place into
        # their right-hand side) are gone once the first iterate is formed,
        # so CG's vectors never sit next to them
        solved = []
        entered = []
        solve, pcg = solver._mode_solve, solver._mode_pcg

        def tracked(factor, rhs):
            solved.append(weakref.ref(rhs))
            return solve(factor, rhs)

        def checked(*args):
            entered.append(solved[0]() is None)
            return pcg(*args)

        monkeypatch.setattr(solver, "_mode_solve", tracked)
        monkeypatch.setattr(solver, "_mode_pcg", checked)
        nx = 32
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.3 * np.cos(2.0 * xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(STRIP, phi, 0.05, far=0.5, n_normal=41)
        assert field.meta["iterations"] > 0
        assert entered == [True]

    @staticmethod
    def _solve_at_blas_thread_counts(setup):
        """(sha256 of the field, repr of its residual, its iteration count)
        of one solve, run in a fresh process at OPENBLAS_NUM_THREADS 1 and
        at 2; ``setup`` is source that binds ``field``."""
        code = "\n".join(
            [
                "import hashlib, math",
                "import numpy as np",
                "from agmonlab.halfplane import BoundaryFunction",
                "from agmonlab.models import make_model",
                "from agmonlab.solver import poisson_bvp",
                setup,
                "print(hashlib.sha256(field.values.tobytes()).hexdigest(),"
                " repr(field.meta['residual']), field.meta['iterations'])",
            ]
        )
        src = str(Path(agmonlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                check=True,
            ).stdout.split()
            for threads in ("1", "2")
        ]

    def test_iterated_solve_is_the_same_at_any_blas_thread_count(self):
        # CG's inner products must not take their summation order from the
        # BLAS thread count: the same field and residual at one and two
        runs = self._solve_at_blas_thread_counts(
            "xp = 2.0 * math.pi / 128 * np.arange(128)\n"
            "data = 1.0 + 0.3 * np.cos(2.0 * xp) + 0.2j * np.sin(3.0 * xp)\n"
            "phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)\n"
            "field = poisson_bvp(make_model('strip-2d'), phi, 0.05, far=0.8,"
            " n_normal=801)"
        )
        assert int(runs[0][2]) > 0  # CG iterated
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("imag", ["0.0", "0.3j"], ids=["real-data", "complex-data"])
    def test_direct_solve_is_the_same_at_any_blas_thread_count(self, imag):
        # the first iterate's synthesis and residual check must not go
        # through a BLAS product, whose summation order follows the threads
        runs = self._solve_at_blas_thread_counts(
            "xp = 2.0 * math.pi / 64 * np.arange(64)\n"
            "data = 1.0 + 0.4 * np.cos(xp) + 0.2 * np.cos(2.0 * xp)"
            f" + {imag} * np.sin(xp)\n"
            "phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)\n"
            "field = poisson_bvp(make_model('separable-torus'), phi, 0.05, far=1.0,"
            " n_normal=4001, rho_max=0.1)"
        )
        assert int(runs[0][2]) == 0  # the direct path
        assert runs[0] == runs[1]

    @staticmethod
    def _traced_direct_solve(n_normal, imag):
        """(field, (retained, peak)) of a direct solve on the torus: its
        memory in fields of 64 x n_normal float64."""
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.4 * np.cos(xp) + 0.2 * np.cos(2.0 * xp) + imag * np.sin(xp)
        phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)
        field_bytes = nx * n_normal * 8
        tracemalloc.start()
        try:
            field = poisson_bvp(
                TORUS, phi, 0.05, far=1.0, n_normal=n_normal, rho_max=0.1
            )
            solve = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.meta["path"] == "mode-direct"
        assert field.meta["iterations"] == 0
        return field, tuple(x / field_bytes for x in solve)

    @staticmethod
    def _held_rows(n_normal):
        """The rows the traced direct solve holds: 0 to J, J the upper node
        of the interval holding s(rho_max = 0.1) plus the spline reach."""
        xn = np.linspace(0.0, 1.0, n_normal)
        s = separable_level_height(TORUS, 0.1)
        return int(np.searchsorted(xn, s, side="right")) + solver._SPLINE_REACH + 1

    @pytest.mark.parametrize("n_normal", [4001, 24001])
    def test_direct_solve_peak_memory(self, n_normal):
        # the kept unit rows of the data's three modes (g_k of every mode
        # is half a field) are live next to one block of the mode factor
        # (the three modes at 4,001 normal nodes, one at 24,001): 0.24 and
        # 0.13 fields measured, 0.37 and 0.17 when every mode was solved;
        # V - E is one column and the mode residual runs a block of modes
        # at a time.  Only the held rows' spectrum is kept, three complex
        # values a row (0.012 and 0.009 fields retained, with the nodes)
        field, (retained, peak) = self._traced_direct_solve(n_normal, 0.0)
        assert field.values.dtype == np.float64
        assert peak <= {4001: 0.45, 24001: 0.25}[n_normal]
        assert field.spectrum.shape == (1, 3, self._held_rows(n_normal))
        kept = field.spectrum.nbytes + field.normal_nodes.nbytes
        assert abs(retained - kept / (64 * n_normal * 8)) <= 0.005

    @pytest.mark.parametrize("n_normal", [4001, 24001])
    def test_complex_direct_solve_peak_memory(self, n_normal):
        # the two data parts share g_k, so the mode solve is the real one;
        # the spectrum holds both parts, twice the real one: 0.24 and 0.13
        # fields at the peak measured
        field, (retained, peak) = self._traced_direct_solve(n_normal, 0.3j)
        assert field.values.dtype == np.complex128
        assert peak <= {4001: 0.45, 24001: 0.25}[n_normal]
        assert field.spectrum.shape == (2, 3, self._held_rows(n_normal))
        kept = field.spectrum.nbytes + field.normal_nodes.nbytes
        assert abs(retained - kept / (64 * n_normal * 8)) <= 0.005

    @staticmethod
    def _every_row(*args, **kwargs):
        """The same mode-direct solve holding every normal row: poisson_bvp
        with every unit row kept, the kernel otherwise unchanged."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_kept_rows", lambda model, xn, rho: xn.size - 2)
            field = poisson_bvp(*args, **kwargs)
        assert field.normal_nodes.size == field.meta["n_normal"]
        return field

    @pytest.mark.parametrize("imag", [0.0, 0.3j], ids=["real-data", "complex-data"])
    def test_node_trace_of_a_mode_field_is_its_formed_row(self, imag):
        # a node-aligned trace synthesizes a held row, bitwise that row of
        # the field of every row; the rows held are bitwise its leading
        # rows, and row 0 holds the data's transform at its three modes
        nx, ny = 64, 4001
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.4 * np.cos(xp) + 0.2 * np.cos(2.0 * xp) + imag * np.sin(xp)
        phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)
        solve = dict(far=1.0, n_normal=ny, rho_max=0.1)
        field = poisson_bvp(TORUS, phi, 0.05, **solve)
        whole = self._every_row(TORUS, phi, 0.05, **solve).values
        xn = field.normal_nodes
        held = xn.size
        assert held < ny - 1
        assert np.array_equal(xn, np.linspace(0.0, 1.0, ny)[:held])
        assert np.array_equal(field.values, whole[:, :held])
        nodes = np.array([0, 1, 80, held - 1])
        traces = [trace_at(field, level_at_heights(np.full(nx, xn[j]))) for j in nodes]
        mixed = nodes[np.arange(nx) % nodes.size]
        mixed_trace = trace_at(field, level_at_heights(xn[mixed]))
        for j, trace in zip(nodes, traces):
            assert np.array_equal(trace.values, whole[:, j])
        assert np.array_equal(mixed_trace.values, whole[np.arange(nx), mixed])
        assert np.array_equal(field.values[:, 0], data)
        assert np.array_equal(field.spectrum[..., 0], data_spectrum(data)[:, :3])

    @staticmethod
    def _kept_row_field(case, solve=poisson_bvp):
        """A mode-direct field and the levels of its certified traces: the
        shipped torus-decay solve (512 x 512, real data, rho_max = 0.4,
        deepest level between rows 88 and 89) or a 64 x 4,001 one of
        complex data, solved by ``solve``."""
        if case == "torus-decay":
            h, nx = 0.02, 512
            phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
            field = solve(TORUS, phi, h, far=1.9, n_normal=512, rho_max=0.4)
            return field, (0.1, 0.2, 0.3, 0.4)
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.4 * np.cos(xp) + 0.3j * np.sin(2.0 * xp)
        phi = BoundaryFunction(data, 2.0 * math.pi, 0.05)
        field = solve(TORUS, phi, 0.05, far=1.0, n_normal=4001, rho_max=0.1)
        return field, (0.025, 0.05, 0.075, 0.1)

    @pytest.mark.parametrize("case", ["torus-decay", "complex-64x4001"])
    def test_off_node_traces_within_the_kept_rows(self, case, spline_builds):
        # every certified level splines the held rows of the mode columns
        # alone, built once and shared, reads bitwise what the field of
        # every row gives, and agrees with per-column splines of the field
        # of every row to rounding
        field, rhos = self._kept_row_field(case)
        xp, xn = field.tangential_nodes, field.normal_nodes
        assert xn.size < field.meta["n_normal"] - 1
        levels = [separable_level_set(TORUS, r, n_tangential=xp.size) for r in rhos]
        traces = [trace_at(field, level) for level in levels]
        # one build pass over the mode columns, each as two real columns
        assert sum(spline_builds) == 2 * field.spectrum[..., 0].size
        whole, _ = self._kept_row_field(case, self._every_row)
        for level, trace in zip(levels, traces):
            assert np.min(np.abs(xn - level.points[0, 1])) > 1e-12  # off node
            assert np.array_equal(trace.values, trace_at(whole, level).values)
            assert np.array_equal(trace.values, mode_rule_oracle(whole, level))
            assert_near_oracle(
                trace.values,
                per_column_spline_oracle(whole.values, xp, whole.normal_nodes, level),
            )

    def test_traced_field_keeps_its_rows_and_slopes(self):
        # the torus-decay solve and its five traces keep the held rows of
        # its one mode column and their slopes (4.8 KiB) and little else:
        # 32 KiB retained and 0.17 MiB at the peak measured
        h, nx = 0.02, 512
        levels = [
            separable_level_set(TORUS, r, n_tangential=nx)
            for r in (0.1, 0.2, 0.3, 0.4, 0.0)
        ]
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
        tracemalloc.start()
        try:
            field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=512, rho_max=0.4)
            norms = [trace_at(field, level).ambient_norm for level in levels]
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(norm > 0.0 for norm in norms)
        kept = field.spectrum.nbytes + field._spline_slopes.nbytes
        assert retained - kept <= 0.1 * 2**20
        assert peak <= 0.25 * 2**20

    def test_traces_past_the_held_rows_raise(self):
        # an off-node level within the spline reach of the held rows' end
        # splines the held rows; a node row or a level past them raises
        field, _ = self._kept_row_field("complex-64x4001")
        xp, xn = field.tangential_nodes, field.normal_nodes
        held = xn.size
        mid = 0.5 * (xn[held - 10] + xn[held - 9])  # 10 rows inside the held ones
        near_end = trace_at(field, level_at_heights(np.full(xp.size, mid)))
        assert np.array_equal(near_end.values, mode_rule_oracle(field, near_end.level))
        assert_near_oracle(
            near_end.values,
            per_column_spline_oracle(field.values, xp, xn, near_end.level),
        )
        past = np.linspace(0.0, 1.0, field.meta["n_normal"])[held]
        deep = separable_level_set(TORUS, 0.3, n_tangential=xp.size)
        for level in (level_at_heights(np.full(xp.size, past)), deep):
            with pytest.raises(ValueError, match="leaves the field's normal range"):
                trace_at(field, level)

    def test_too_deep_trace_names_rho_max(self):
        # the message gives the last row held, the solve's rho_max and the
        # fix; a hand-built field, with no rho_max, gives the row alone
        nx = 64
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, 0.05)
        field = poisson_bvp(TORUS, phi, 0.05, far=1.0, n_normal=4001, rho_max=0.1)
        deep = separable_level_set(TORUS, 0.3, n_tangential=nx)
        last = f"x_n <= {field.normal_nodes[-1]:.4g}"
        with pytest.raises(ValueError) as raised:
            trace_at(field, deep)
        message = str(raised.value)
        assert last in message
        assert "rho_max = 0.1" in message
        assert "solve with rho_max at least the level's depth" in message
        bare = replace(field, meta={})
        with pytest.raises(ValueError, match=r"holds x_n <= [\d.]+$"):
            trace_at(bare, deep)

    @pytest.mark.parametrize(
        "model, far, n_normal",
        [(TORUS, 0.8, 65), (TORUS, 1.0, 4001), (STRIP, 0.5, 41)],
        ids=["separable-torus-all-rows", "separable-torus", "strip-2d"],
    )
    def test_meta_records_the_normal_rows_solved(self, model, far, n_normal):
        # normal_nodes ends at the rows held, so meta keeps the rows solved
        nx = 32
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.3 * np.cos(2.0 * xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)
        held = field.normal_nodes.size
        assert field.meta["n_normal"] == n_normal
        assert field.values.shape == (nx, held)
        if n_normal == 4001:  # rho_max = 0: row 1 and the spline reach
            assert held == 2 + solver._SPLINE_REACH
        else:
            assert held == n_normal
            assert np.all(field.values[:, -1] == 0.0)

    @pytest.mark.parametrize(
        "model, far", [(TORUS, 1.0), (STRIP, 0.5)], ids=["separable-torus", "strip-2d"]
    )
    def test_under_resolved_normal_grid_rejected(self, model, far):
        # the transverse eigensolve's rule: h >= 4 normal spacings, here
        # 4 far / h + 1 rows
        h, nx = 0.05, 32
        least = round(4.0 * far / h) + 1
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
        with pytest.raises(
            ValueError, match=f"refine the normal grid to at least {least} nodes"
        ):
            poisson_bvp(model, phi, h, far=far, n_normal=least - 1)
        field = poisson_bvp(model, phi, h, far=far, n_normal=least)
        assert field.meta["n_normal"] == least

    def test_mode_residual_can_fail(self, monkeypatch):
        solve = solver._mode_solve

        def perturbed(factor, rhs):
            return solve(factor, rhs) * (1.0 + 1e-8)

        monkeypatch.setattr(solver, "_mode_solve", perturbed)
        phi = BoundaryFunction(np.ones(64), 2.0 * math.pi, 0.05)
        with pytest.raises(
            ValueError, match=r"mode solve missed the residual test on the 64 x 101 "
        ):
            poisson_bvp(TORUS, phi, 0.05, far=1.0, n_normal=101, rho_max=0.1)

    @staticmethod
    def _stacked_factor(w, cn, dispersion):
        """The oracle: every mode's Dirichlet tridiagonal stacked mode-major
        with zero coupling between modes, factored by one dpttrf call."""
        diag = (2.0 * cn + w)[None, :] + dispersion[:, None]
        off = np.full(diag.shape, -cn)
        off[:, -1] = 0.0
        d, e, info = dpttrf(diag.ravel(), off.ravel()[:-1])
        assert info == 0
        return d, e

    @pytest.mark.parametrize(
        "block_modes", [0, 4, 64], ids=["0-bytes", "4-modes", "one-block"]
    )
    def test_blocked_mode_solve_is_the_stacked_solve(self, monkeypatch, block_modes):
        # 0 bytes still makes one-mode blocks, 4 modes do not divide the 33
        # modes of nx = 64, and 64 modes' worth is one block: the spectrum
        # held is bitwise b_k g_k of one stacked solve on the modes the
        # data carries (0 and 2), and CG's preconditioner is bitwise the
        # stacked factor of every mode
        h, ny = 0.05, 1001
        factors = []
        pcg = solver._mode_pcg

        def kept(values, w, cn, cp, factor, bound):
            factors.append(factor)
            return pcg(values, w, cn, cp, factor, bound)

        monkeypatch.setattr(solver, "_mode_pcg", kept)
        monkeypatch.setattr(solver, "_BLOCK_BYTES", block_modes * (ny - 2) * 8)
        for model, nx, far in ((TORUS, 64, 1.0), (STRIP, 32, 0.5)):
            xp = 2.0 * math.pi / nx * np.arange(nx)
            phi = BoundaryFunction(1.0 + 0.3 * np.cos(2.0 * xp), 2.0 * math.pi, h)
            field = poisson_bvp(model, phi, h, far=far, n_normal=ny)
            xn = np.linspace(0.0, far, ny)
            w = np.mean(potential_grid(model, xp, xn)[:, 1:-1] - model.energy, axis=0)
            cn = h**2 / (xn[1] - xn[0]) ** 2
            modes = np.arange(nx // 2 + 1)
            dispersion = solver.expected_circle_eigenvalue(model, h, modes, nx)
            d, e = self._stacked_factor(w, cn, dispersion)
            unit = np.zeros((modes.size, ny - 2))
            unit[:, 0] = 1.0
            unit, info = dpttrs(d, e, unit.ravel())
            assert info == 0
            unit = unit.reshape(modes.size, -1)
            if model is TORUS:
                assert field.meta["path"] == "mode-direct"
                assert factors == []
                held = field.normal_nodes.size
                assert held == 2 + solver._SPLINE_REACH < ny  # rho_max = 0
                carried = [0, 2]
                assert np.array_equal(field.modes, carried)
                coefficients = data_spectrum(phi.values)[:, carried]
                expected = np.empty((1, 2, held), dtype=complex)
                expected[..., 0] = coefficients
                g = unit[carried, : held - 1]
                expected[..., 1:] = cn * coefficients[..., None] * g
                assert np.array_equal(field.spectrum, expected)
                continue
            assert field.meta["path"] == "mode-pcg"
            (factor,) = factors
            assert np.array_equal(factor[0], d) and np.array_equal(factor[1], e)
            rhs = np.random.default_rng(5).standard_normal((2, modes.size, ny - 2))
            expected, info = dpttrs(d, e, rhs.reshape(2, -1).T)
            assert info == 0
            solved = solver._mode_solve(factor, rhs)
            assert np.array_equal(solved, expected.T.reshape(rhs.shape))

    @classmethod
    def _every_mode_spectrum(cls, model, field, phi):
        """The oracle of the rule that leaves modes out: the spectrum of the
        mode-direct field of ``phi`` at every rfft mode, on the rows
        ``field`` holds of a solve to far = 1, as every caller's is:
        rfft(phi) on row 0 and b_k g_k below, with b = cn rfft(phi) and g_k
        = T_k^{-1} e_0 from one stacked factor and solve of every mode, for
        each real part of phi."""
        h, nx = field.h, phi.values.size
        xp = field.tangential_nodes
        xn = np.linspace(0.0, 1.0, field.meta["n_normal"])
        w = np.mean(potential_grid(model, xp, xn)[:, 1:-1] - model.energy, axis=0)
        cn = h**2 / (xn[1] - xn[0]) ** 2
        modes = np.arange(nx // 2 + 1)
        mu = solver.expected_circle_eigenvalue(model, h, modes, nx)
        d, e = cls._stacked_factor(w, cn, mu)
        unit = np.zeros((modes.size, w.size))
        unit[:, 0] = 1.0
        unit, info = dpttrs(d, e, unit.ravel())
        assert info == 0
        held = field.normal_nodes.size
        coefficients = data_spectrum(phi.values)
        spectrum = np.empty(coefficients.shape + (held,), dtype=complex)
        spectrum[..., 0] = coefficients
        g = unit.reshape(modes.size, -1)[:, : held - 1]
        spectrum[..., 1:] = cn * coefficients[..., None] * g
        return spectrum

    @classmethod
    def _assert_every_mode_kept_or_within_budget(cls, model, field, phi, exact):
        """The modes held are bitwise the oracle's; those left out are exact
        zeros when ``exact``, else together move no value of the field by
        more than the budget: (1/nx) sum_k m_k max_j |s_kj| over them and
        the data parts."""
        every = cls._every_mode_spectrum(model, field, phi)
        assert np.array_equal(field.spectrum, every[:, field.modes])
        left_out = np.delete(every, field.modes, axis=1)
        if exact:
            assert not np.any(left_out)
            return
        nx = phi.values.size
        weights = np.delete(solver._pair_weights(nx), field.modes)
        reach = np.sum(np.max(np.abs(left_out), axis=-1), axis=0)
        assert np.sum(weights * reach) / nx <= cls._fft_budget(phi)

    @staticmethod
    def _fft_budget(phi):
        """eps log2(nx) max|phi|: how far leaving modes out may move the
        field."""
        nx = phi.values.size
        return np.finfo(float).eps * math.log2(nx) * np.max(np.abs(phi.values))

    @staticmethod
    def _counted_torus_solve(monkeypatch, ny, data):
        """(field, phi, factored): the mode-direct torus solve of data(x) at
        nx = 64, h = 0.05, far = 1 and rho_max = 0.1, and the dispersions of
        the modes it factored, in order."""
        calls = []
        factor = solver._mode_factor

        def counted(w, cn, dispersion):
            calls.append(dispersion)
            return factor(w, cn, dispersion)

        monkeypatch.setattr(solver, "_mode_factor", counted)
        xp = 2.0 * math.pi / 64 * np.arange(64)
        phi = BoundaryFunction(data(xp), 2.0 * math.pi, 0.05)
        field = poisson_bvp(TORUS, phi, 0.05, far=1.0, n_normal=ny, rho_max=0.1)
        return field, phi, np.concatenate(calls)

    @pytest.mark.parametrize(
        "data, modes, exact",
        [
            (lambda x: 1.0 + 0.4 * np.cos(x) + 0.2 * np.cos(2.0 * x), range(3), False),
            (np.ones_like, [0], True),
            (
                lambda x: np.array([1.0, 1j])
                @ np.random.default_rng(23).standard_normal((2, x.size)),
                range(33),
                True,
            ),
        ],
        ids=["parametrix", "constant", "random-complex"],
    )
    def test_direct_solve_factors_the_modes_its_data_carries(
        self, monkeypatch, data, modes, exact
    ):
        # the parametrix data 1 + 0.4 cos x + 0.2 cos 2x carries modes 0-2
        # of 33, the other 30 coefficients being exact zeros or FFT rounding,
        # and leaving them out moves the field by at most eps log2(nx)
        # max|phi|; rfft of constant data is exactly zero past k = 0, and
        # random data carries every mode, so both hold bitwise the spectrum
        # of every mode, less exact zeros
        field, phi, factored = self._counted_torus_solve(monkeypatch, 4001, data)
        mu = solver.expected_circle_eigenvalue(TORUS, 0.05, np.array(modes), 64)
        assert np.array_equal(factored, mu)
        assert np.array_equal(field.modes, modes)
        self._assert_every_mode_kept_or_within_budget(TORUS, field, phi, exact)

    def test_zero_mean_data_leaves_mode_zero_out(self, monkeypatch):
        # cos 2x has a mean of FFT rounding only, the smallest of its
        # coefficients, so mode 0 is not factored while mode 2 is (a few
        # rounding modes above the budget are factored too)
        field, phi, factored = self._counted_torus_solve(
            monkeypatch, 1001, lambda x: np.cos(2.0 * x)
        )
        assert np.fft.rfft(phi.values.real)[0] != 0.0  # rounding, not an exact zero
        mu = solver.expected_circle_eigenvalue(TORUS, 0.05, np.arange(3), 64)
        assert mu[0] == 0.0 and mu[2] in factored
        assert np.all(factored > 0.0)
        assert field.modes.size == factored.size < 33
        assert 0 not in field.modes and 2 in field.modes
        self._assert_every_mode_kept_or_within_budget(TORUS, field, phi, False)

    def test_modes_left_out_keep_the_residual_test(self):
        # acceptance 03's solve: the modes left out count in the residual at
        # full size, and their bounds together stay within the budget, so
        # the solve passes where cutting each coefficient at eps log2(nx)
        # times the data's 2-norm would not (8.6e-10 against 4e-10)
        h, nx, ny = 0.05, 256, 2001
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(np.exp(20j * xp), 2.0 * math.pi, h)
        field = poisson_bvp(FLAT, phi, h, far=1.0, n_normal=ny, rho_max=0.3)
        assert field.modes.size < nx // 2 + 1
        xn = np.linspace(0.0, 1.0, ny)
        cn, cp = h**2 / (xn[1] - xn[0]) ** 2, h**2 / (xp[1] - xp[0]) ** 2
        w = potential_grid(FLAT, xp, xn)[:, 1:-1] - FLAT.energy
        bound = solver._PCG_TOL * (4.0 * (cn + cp) + np.max(w))
        assert field.meta["residual"] <= bound
        self._assert_every_mode_kept_or_within_budget(FLAT, field, phi, False)

    @pytest.mark.parametrize("h", [0.1, 0.0125])
    def test_shipped_grid_stencil_residual_within_the_bound(self, h):
        # the formed field's own stencil residual, an oracle independent of
        # the mode residual, stays within the bound that residual is held
        # to: 6.3e-9 against 2.3e-7 at h = 0.1 on the parametrix grid
        nx, ny, far = 64, 24001, 1.0
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.4 * np.cos(xp) + 0.2 * np.cos(2.0 * xp)
        phi = BoundaryFunction(data, 2.0 * math.pi, h)
        field = poisson_bvp(TORUS, phi, h, far=far, n_normal=ny, rho_max=0.1)
        xn = field.normal_nodes
        w = potential_grid(TORUS, xp, xn)[:, 1:-1] - TORUS.energy
        cn, cp = h**2 / (xn[1] - xn[0]) ** 2, h**2 / (xp[1] - xp[0]) ** 2
        bound = solver._PCG_TOL * (4.0 * (cn + cp) + np.max(w))
        u = field.values[None]
        stencil = np.max(np.abs(solver._stencil(u, w, cn, cp))) / np.max(np.abs(u))
        assert stencil <= bound
        assert field.meta["residual"] <= bound
        assert stencil <= bound

    @pytest.mark.parametrize("parts", [1, 2], ids=["real-data", "complex-data"])
    @pytest.mark.parametrize("block_columns", [0, 1, 5, 7, 13])
    def test_blocked_stencil_is_the_single_pass_stencil(
        self, monkeypatch, parts, block_columns
    ):
        # 0 columns' worth of bytes still makes one-column blocks; 5 and 7
        # do not divide nx = 12, and 13 is one block
        nx, ny = 12, 9
        rng = np.random.default_rng(19)
        u = rng.standard_normal((parts, nx, ny))
        xp = 2.0 * math.pi / nx * np.arange(nx)
        xn = np.linspace(0.0, 0.5, ny)
        w = potential_grid(STRIP, xp, xn)[:, 1:-1] - STRIP.energy
        cn, cp = 0.05**2 / (xn[1] - xn[0]) ** 2, 0.05**2 / (xp[1] - xp[0]) ** 2
        monkeypatch.setattr(solver, "_BLOCK_BYTES", block_columns * parts * ny * 8)
        expected = single_pass_stencil(u, w, cn, cp)
        assert np.array_equal(solver._stencil(u, w, cn, cp), expected)
        out = np.full(expected.shape, np.nan)
        assert solver._stencil(u, w, cn, cp, out=out) is out
        assert np.array_equal(out, expected)
        # a tangent-invariant V - E as one column read through a broadcast
        # view gives the stencil of the full grid, bitwise
        full = potential_grid(TORUS, xp, xn)[:, 1:-1] - TORUS.energy
        column = potential_grid(TORUS, xp[:1], xn)[:, 1:-1] - TORUS.energy
        view = np.broadcast_to(column, full.shape)
        expected = single_pass_stencil(u, full, cn, cp)
        assert np.array_equal(solver._stencil(u, full, cn, cp), expected)
        assert np.array_equal(solver._stencil(u, view, cn, cp), expected)

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
        # the flat barrier has no forbidden edge: the normal axis bounds far
        for far in (0.0, 2.5):
            with pytest.raises(ValueError, match=r"outside the normal range \(0, 2\]"):
                poisson_bvp(FLAT, phi2, 0.05, far=far, n_normal=101)

    @pytest.mark.parametrize(
        "energy, far",
        [(1.0, 1.9), (1.5, 1.9), (1.9, 1.0), (1.0, 5.0)],
        ids=["E1-decay-far", "E1.5-decay-far", "E1.9-parametrix-far", "E1-two-stretches"],
    )
    def test_far_boundary_past_a_turning_point_rejected(self, energy, far):
        # on separable-torus V - E = 1 + cos s - E vanishes at s = acos(E - 1),
        # the forbidden edge; past it the operator is indefinite
        model = make_model("separable-torus", {"E": energy})
        edge = math.acos(energy - 1.0)
        assert model.forbidden_extent == pytest.approx(edge, abs=1e-9)
        phi = BoundaryFunction(np.ones(64), 2.0 * math.pi, 0.05)
        with pytest.raises(ValueError, match=f"past the forbidden edge x_n = {edge:.4g} "):
            poisson_bvp(model, phi, 0.05, far=far, n_normal=101)

    def test_far_boundary_depth_on_product_model_is_the_collar_distance(self):
        # the torus barrier is 0.5 + cos(x_n) on every column
        oracle, _ = quad(lambda t: math.sqrt(0.5 + math.cos(t)), 0.0, 1.0)
        assert weighted_depth(TORUS, 1.0) == pytest.approx(oracle, rel=1e-10)

    def test_far_boundary_depth_is_a_lower_bound_on_every_column(self):
        # the strip's barrier varies along the tangent; columns between the
        # probe nodes of the minimum must not fall below it either; 0.8 is
        # the end of the strip's normal range
        depth = weighted_depth(STRIP, 0.8)
        columns = np.linspace(0.0, STRIP.lengths[0], 97)[:-1] + 0.013

        def column_depth(x):
            def weight(t):
                v = potential_grid(STRIP, np.array([x]), np.array([t]))[0, 0]
                return math.sqrt(max(float(v) - STRIP.energy, 0.0))

            return quad(weight, 0.0, 0.8, limit=200)[0]

        depths = np.array([column_depth(x) for x in columns])
        assert np.all(depths >= depth)
        assert np.min(depths) == pytest.approx(depth, rel=1e-4)

    def test_indefinite_operator_rejected(self):
        # a model that records no forbidden edge passes the far-boundary
        # check and meets the solve's own check on V - E
        nx = 64
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, 0.05)
        unchecked = replace(TORUS, forbidden_extent=TORUS.axis_bounds(1)[1])
        with pytest.raises(ValueError, match="operator is indefinite: V - E = "):
            poisson_bvp(unchecked, phi, 0.05, far=2.5, n_normal=301)

    def test_mismatched_data_rejected(self):
        phi = BoundaryFunction(np.ones(64), 1.0, 0.05)
        with pytest.raises(ValueError, match="length"):
            poisson_bvp(FLAT, phi, 0.05, far=1.0, n_normal=101)
        phi2 = BoundaryFunction(np.ones(64), 2.0 * math.pi, 0.1)
        with pytest.raises(ValueError, match="does not match the solve"):
            poisson_bvp(FLAT, phi2, 0.05, far=1.0, n_normal=101)


class TestTraces:
    def _analytic_field(self, ny, fn):
        xn = np.linspace(0.0, 1.0, ny)
        values = np.ones(16)[:, None] * fn(xn)[None, :]
        return field_of(values.astype(complex), xn)

    def test_boundary_row_is_exact(self):
        # row 0 of a solved field is the data it was given, on the direct
        # and the CG path, where the synthesis of the held modes gives it
        # only to rounding
        nx = 64
        xp = 2.0 * math.pi / nx * np.arange(nx)
        phi = BoundaryFunction(1.0 + 0.5 * np.cos(xp), 2.0 * math.pi, 0.05)
        level = separable_level_set(FLAT, 0.0, n_tangential=nx)
        for model, far, n_normal in ((FLAT, 1.0, 201), (STRIP, 0.8, 401)):
            field = poisson_bvp(model, phi, 0.05, far=far, n_normal=n_normal)
            trace = trace_at(field, level)
            assert np.max(np.abs(trace.values - phi.values)) == 0.0
            assert np.array_equal(field.values[:, 0], phi.values)

    def test_constant_field_norm_is_sqrt_length(self):
        field = self._analytic_field(101, lambda s: np.ones_like(s))
        level = separable_level_set(FLAT, 0.25, n_tangential=16)
        trace = trace_at(field, level)
        assert trace.ambient_norm == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-12
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


def assert_derivative_near_oracle(field, level, deriv):
    """deriv against the per-column splines of the centred differences of
    ``values``: the differences of values held to rounding eps max|u|
    carry eps max|u| / dx, and 0.4 of that was measured on strip-2d."""
    xp, xn = field.tangential_nodes, field.normal_nodes
    values = field.values
    grad = np.gradient(values, xn, axis=1)
    oracle = per_column_spline_oracle(grad, xp, xn, level)
    scale = np.finfo(float).eps * np.max(np.abs(values)) / (xn[1] - xn[0])
    assert np.max(np.abs(deriv.values - oracle)) <= 4.0 * scale


class TestTraceOracle:
    """trace_at and normal_derivative_trace against the mode rule sample by
    sample, bitwise, and against per-column splines of the field's values
    to rounding, on curved, flat and partly node-aligned levels."""

    @staticmethod
    def _assert_matches_oracle(field, level):
        xp, xn = field.tangential_nodes, field.normal_nodes
        trace = trace_at(field, level)
        assert np.array_equal(trace.values, mode_rule_oracle(field, level))
        assert_near_oracle(
            trace.values, per_column_spline_oracle(field.values, xp, xn, level)
        )
        deriv = normal_derivative_trace(field, level)
        oracle = mode_rule_oracle(derivative_field(field), level)
        assert np.array_equal(deriv.values, oracle)
        assert_derivative_near_oracle(field, level, deriv)
        return trace

    @pytest.mark.parametrize("block_columns", [None, 5])
    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.2])
    def test_curved_strip_levels(self, strip, rho, block_columns, monkeypatch):
        field, distance = strip
        level = level_set_at(distance, rho)
        heights = level.points[:, 1]
        assert np.ptp(heights) > 1e-3  # the level really curves
        gaps = np.abs(field.normal_nodes[None, :] - heights[:, None])
        assert np.min(gaps) > 1e-12  # every sample is interpolated
        default = trace_at(replace(field), level)
        field = replace(field)  # no kept slopes: this block size builds them
        if block_columns:  # 66 mode columns in blocks of 5, the last one short
            column_bytes = field.spectrum.shape[-1] * field.spectrum.itemsize
            monkeypatch.setattr(
                solver, "_BLOCK_BYTES", block_columns * column_bytes
            )
        trace = self._assert_matches_oracle(field, level)
        assert np.array_equal(trace.values, default.values)

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
        )
        trace = self._assert_matches_oracle(field, level)
        # node-aligned samples are the node values, not spline values
        assert np.array_equal(trace.values[aligned], field.values[aligned, nodes])


class TestModeRead:
    """Every read of a field synthesizes from the modes it holds: the one
    rule on the benchmark's strip grid, on complex data and on the normal
    derivative, and a fine-grid solve that forms no nx-column array."""

    def test_strip_traces_match_per_column_splines(self):
        # the strip-decay grid, 128 x 801, and its four curved levels: the
        # traces of a CG field, held as every rfft mode, against the field
        # formed from ``values`` and splined column by column (4.4e-16
        # relative measured)
        nx, h = 128, 0.05
        xp = 2.0 * math.pi / nx * np.arange(nx)
        data = 1.0 + 0.15 * np.cos(xp + 0.3) + 0.1 * np.cos(2.0 * xp + 2.0)
        phi = BoundaryFunction(data + 0.05 * np.cos(3.0 * xp), 2.0 * math.pi, h)
        field = poisson_bvp(STRIP, phi, h, far=0.8, n_normal=801, rho_max=0.2)
        assert field.meta["path"] == "mode-pcg"
        assert field.spectrum.shape == (1, nx // 2 + 1, 801)
        distance = agmon_distance(STRIP, grid_sizes=(nx, 129))
        values, xn = field.values, field.normal_nodes
        for rho in (0.05, 0.1, 0.15, 0.2):
            level = level_set_at(distance, rho)
            oracle = np.array(
                [
                    Spline(xn, values[int(np.argmin(np.abs(xp - x)))])(s)
                    for x, s in level.points
                ]
            )
            assert np.min(np.abs(xn[None, :] - level.points[:, 1:])) > 1e-12
            assert_near_oracle(trace_at(field, level).values, oracle)

    @pytest.mark.parametrize("rho", [0.05, 0.2])
    def test_complex_parts_and_derivative_follow_the_one_rule(self, strip, rho):
        # a complex field's trace is bitwise its two real parts' traces,
        # each read alone, and its normal derivative is bitwise the trace
        # of the normal differences of its mode columns
        field, distance = strip
        level = level_set_at(distance, rho)
        trace = trace_at(field, level)
        re, im = (
            trace_at(
                replace(
                    field,
                    spectrum=field.spectrum[p : p + 1],
                    boundary=field.boundary[p : p + 1],
                ),
                level,
            )
            for p in (0, 1)
        )
        assert re.values.dtype == im.values.dtype == np.float64
        assert np.array_equal(trace.values.real, re.values)
        assert np.array_equal(trace.values.imag, im.values)
        deriv = normal_derivative_trace(field, level)
        expected = trace_at(derivative_field(field), level)
        assert np.array_equal(deriv.values, expected.values)
        assert deriv.h == field.h
        assert_derivative_near_oracle(field, level, deriv)

    def test_fine_grid_direct_solve_forms_no_field(self):
        # item 17's sweep shape: constant data on 512 x 16,384 carries one
        # mode, so the solve holds 2,899 rows of one complex column (46
        # KiB) and peaks at a few normal columns of 16,384 float64: the
        # normal nodes, V - E and its row mean, the factor's two arrays,
        # one mode's unit row and its residual, and the residual's
        # diagonal, 7.3 columns measured.  The field of the rows held, an
        # nx-column array, would take 11.9 MiB
        nx, ny, h = 512, 16384, 0.01
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
        tracemalloc.start()
        try:
            field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=ny, rho_max=0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = field.normal_nodes.size
        assert field.spectrum.shape == (1, 1, rows)
        column = ny * 8
        assert peak <= 8 * column < nx * rows * 8 / 10
        level = separable_level_set(TORUS, 0.4, n_tangential=nx)
        assert np.all(trace_at(field, level).values > 0.0)


def level_at_heights(heights):
    """A level with one sample per field column at the given heights."""
    nx = heights.size
    xp = 2.0 * math.pi / nx * np.arange(nx)
    return LevelSet(
        rho=0.0,
        points=np.column_stack([xp, heights]),
        ambient_weights=np.full(nx, 2.0 * math.pi / nx),
    )


@pytest.fixture
def spline_builds(monkeypatch):
    """Real column counts of every batch of splines the solver builds; a
    complex mode column counts as two."""
    columns = []
    build = solver.spline_slopes

    def counted(x, y, *args, **kwargs):
        columns.append(np.shape(y)[1])
        return build(x, y, *args, **kwargs)

    monkeypatch.setattr(solver, "spline_slopes", counted)
    return columns


class TestKeptSlopes:
    """A field builds the splines of its mode columns once, on its first
    off-node trace, and every later trace evaluates bitwise as a fresh
    field would."""

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
        values, grad = field.values, derivative_field(field)
        for i in order:
            level = level_set_at(distance, self.RHOS[i])
            trace = trace_at(field, level)
            assert np.array_equal(trace.values, mode_rule_oracle(field, level))
            assert_near_oracle(
                trace.values, per_column_spline_oracle(values, xp, xn, level)
            )
            deriv = normal_derivative_trace(field, level)
            assert np.array_equal(deriv.values, mode_rule_oracle(grad, level))
            assert_derivative_near_oracle(field, level, deriv)

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
        trace = trace_at(field, level)
        assert np.array_equal(trace.values, mode_rule_oracle(field, level))
        assert_near_oracle(
            trace.values, per_column_spline_oracle(field.values, xp, xn, level)
        )

    def test_one_build_pass_per_field(self, strip, spline_builds):
        field, distance = strip
        columns = field.spectrum[..., 0].size  # 2 parts x 33 modes
        levels = [level_set_at(distance, rho) for rho in self.RHOS]
        for fresh in (replace(field), replace(field)):
            for level in levels:
                trace_at(fresh, level)
        block = solver._BLOCK_BYTES // (
            field.spectrum.shape[-1] * field.spectrum.itemsize
        )
        assert block < columns  # the build really runs in several blocks
        assert sum(spline_builds) == 2 * 2 * columns
        assert len(spline_builds) == 2 * math.ceil(columns / block)

    def test_node_aligned_level_builds_nothing(self, strip, spline_builds):
        field, _ = strip
        field = replace(field)
        xn = field.normal_nodes
        nodes = np.arange(field.tangential_nodes.size) % (xn.size - 1)
        # within 1e-12 of a node counts as on it
        heights = xn[nodes] + np.resize([0.0, 5e-13, -5e-13], nodes.size)
        trace = trace_at(field, level_at_heights(heights))
        assert np.array_equal(
            trace.values, field.values[np.arange(nodes.size), nodes]
        )
        assert spline_builds == []
        assert "_spline_slopes" not in vars(field)

    def test_shipped_parametrix_run_builds_nothing(self, tmp_path, spline_builds):
        # _PARAMETRIX_DEPTH_STEPS puts the comparison depth on a normal node
        # of the shipped grid, so every trace synthesizes node rows
        path = Path(__file__).resolve().parents[1] / "configs" / "parametrix.json"
        (config,) = parse_config(json.loads(path.read_text()), out_dir=tmp_path)
        assert run_experiment(config).passed
        assert spline_builds == []

    def test_gauged_field_builds_its_own(self, strip, spline_builds):
        field, distance = strip
        field = replace(field)
        xp, xn = field.tangential_nodes, field.normal_nodes
        level = level_set_at(distance, 0.1)
        before = trace_at(field, level)
        built = sum(spline_builds)
        # a field derived by replace: the field gauged by exp(d / h) for a
        # tangentially varying distance d
        d = xn[None, :] * (1.0 + 0.2 * np.cos(xp))[:, None]
        gauged_values = field.values * np.exp(d / field.h)
        held = field_of(gauged_values, xn)
        gauged = replace(field, spectrum=held.spectrum, boundary=held.boundary)
        assert "_spline_slopes" not in vars(gauged)
        trace = trace_at(gauged, level)
        assert np.array_equal(trace.values, mode_rule_oracle(gauged, level))
        assert_near_oracle(
            trace.values, per_column_spline_oracle(gauged_values, xp, xn, level)
        )
        assert sum(spline_builds) == 2 * built
        # the parent keeps its own slopes and spectrum
        assert np.array_equal(trace_at(field, level).values, before.values)
        assert np.array_equal(before.values, mode_rule_oracle(field, level))
        assert sum(spline_builds) == 2 * built

    def test_kept_memory_is_one_field(self):
        nx, n = 128, 801
        rng = np.random.default_rng(8)
        values = rng.standard_normal((nx, n)) + 1j * rng.standard_normal((nx, n))
        xn = np.linspace(0.0, 0.8, n)
        field = field_of(values, xn)
        trace_at(field, level_at_heights(np.full(nx, 0.5 * (xn[400] + xn[401]))))
        kept = vars(field)["_spline_slopes"]
        # an owned array: a view would hide the array it keeps alive
        assert kept.base is None
        assert kept.nbytes == field.spectrum.nbytes


class TestNormalDerivative:
    def test_flat_mode_ratio(self):
        h, k, nx, ny = 0.05, 20, 64, 2001
        xp = 2.0 * math.pi / nx * np.arange(nx)
        xn = np.linspace(0.0, 1.0, ny)
        kappa = math.sqrt(1.0 + (h * k) ** 2) / h
        values = np.exp(1j * k * xp)[:, None] * np.exp(-kappa * xn)[None, :]
        field = field_of(values, xn, h)
        level = separable_level_set(FLAT, 0.25, n_tangential=nx)
        trace = trace_at(field, level)
        deriv = normal_derivative_trace(field, level)
        assert deriv.h == h  # read from the field
        ratio = deriv.ambient_norm / trace.ambient_norm
        assert ratio == pytest.approx(kappa, rel=1e-4)

    def test_edge_guard(self):
        h, nx, ny = 0.05, 16, 101
        xn = np.linspace(0.0, 1.0, ny)
        field = field_of(np.ones((nx, ny), dtype=complex), xn, h)
        level = separable_level_set(FLAT, 0.005, n_tangential=nx)
        with pytest.raises(ValueError, match="two cells"):
            normal_derivative_trace(field, level)


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


class TestLevelNorm:
    """``ambient_norm`` is the one scaled sum of ``_numerics.level_norm``:
    bitwise the plain sum where that sum is in range, and positive where
    the plain squares underflow."""

    def test_deep_torus_trace_keeps_its_norm(self):
        # constant data at h = 0.001: the rho = 0.4 trace is about 2.8e-174,
        # so its plain squares underflow to 0
        h, nx = 0.001, 64
        phi = BoundaryFunction(np.ones(nx), 2.0 * math.pi, h)
        field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=15201, rho_max=0.4)
        rhos = [0.1, 0.2, 0.3, 0.4]
        traces = [
            trace_at(field, separable_level_set(TORUS, r, n_tangential=nx))
            for r in rhos
        ]
        deep = traces[-1]
        assert 0.0 < np.max(np.abs(deep.values)) < 1e-154
        # an independent sum: math.fsum of the weighted squares, scaled into
        # range by 2^1200
        values, weights = deep.values.tolist(), deep.level.ambient_weights.tolist()
        total = math.fsum(
            math.ldexp(abs(v), 600) ** 2 * w for v, w in zip(values, weights)
        )
        oracle = math.ldexp(math.sqrt(total), -600)
        assert deep.ambient_norm > 0.0
        assert deep.ambient_norm == pytest.approx(oracle, rel=1e-14, abs=0.0)
        fit = decay_fit(traces, rhos, h)
        assert abs(fit.slope_times_h + 1.0) <= 0.01

    def test_in_range_norms_are_bitwise_the_plain_sum(self, strip):
        def plain(values, weights):
            return math.sqrt(float(np.sum(np.abs(values) ** 2 * weights)))

        field, distance = strip
        level = level_set_at(distance, 0.1)
        curved = level.ambient_weights
        assert np.ptp(curved) > 0.0  # the line elements vary along the level
        rng = np.random.default_rng(3)
        real = rng.standard_normal(curved.size)
        for values in (real, real + 1j * rng.standard_normal(curved.size)):
            for weights in (curved, 2.0 * math.pi / curved.size):
                for scale in (1e-150, 1.0, 1e150):
                    norm = level_norm(scale * values, weights)
                    assert float(norm) == plain(scale * values, weights)
        trace = trace_at(field, level)
        assert trace.ambient_norm == plain(trace.values, curved)

    def test_torus_data_norm_is_its_depth_zero_trace_norm(self):
        h, nx = 0.02, 128
        phi = make_boundary_function(
            lambda x: 1.0 + 0.5 * np.cos(x) + 0.2 * np.sin(3.0 * x),
            nx,
            2.0 * math.pi,
            h,
        )
        field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=513, rho_max=0.4)
        surface = trace_at(field, separable_level_set(TORUS, 0.0, n_tangential=nx))
        assert surface.ambient_norm == phi.ambient_norm


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
        [mode] = solve_transverse_modes(TORUS, h, TORUS.energy, count=1, n=1024)
        spline_nodes = mode.axes[0]
        spl = CubicSpline(spline_nodes, mode.values)
        gamma_val = abs(float(spl(0.0)))
        assert gamma_val > 0.0
        for rho in (0.1, 0.2, 0.3):
            s = float(separable_level_set(TORUS, rho).points[0, 1])
            ratio = abs(float(spl(s))) / gamma_val
            assert ratio >= 0.5 * math.exp(-rho / h)  # lower estimate holds
        s5 = float(separable_level_set(TORUS, 0.5).points[0, 1])
        assert abs(float(spl(s5))) / gamma_val > 1.0  # and the mode grows
