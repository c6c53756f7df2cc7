"""End-to-end acceptance checks for the package.

Each test exercises one headline claim of the numerical laboratory at its
pinned parameters, prints exactly one pass/fail line with the measured
margins, and then asserts.  Runtime budgets are part of the checks where
stated.
"""

import math
import time

import numpy as np
from scipy.optimize import isotonic_regression

from agmonlab.agmon import separable_level_set
from agmonlab.fcalc import (
    almost_analytic_extension,
    boundary_operator,
    exterior_mass,
    family_derivative_norms,
    hs_apply,
    spectral_calculus,
    surface_trace_of_mode,
)
from agmonlab.halfplane import (
    BoundaryFunction,
    apply_halfplane_poisson,
    mode_frequencies,
    verify_lower_chain,
)
from agmonlab.hjphase import (
    apply_poisson_parametrix,
    evaluate_phase,
    phase_residual,
    solve_phase_series,
)
from agmonlab.models import make_model, potential_grid, weighted_depth
from agmonlab.quantize import (
    build_cutoff_profile,
    build_phase_cutoff,
    frame_lower_bound_check,
    random_band_probes,
    symbol_class_check,
    tail_operator_bound,
)
from agmonlab.solver import (
    decay_fit,
    normal_derivative_trace,
    poisson_bvp,
    solve_transverse_modes,
    assemble_separable_mode,
    trace_at,
)

FLAT = make_model("halfplane-unit")
TORUS = make_model("separable-torus")
LENGTH = 2.0 * math.pi


def announce(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")


def variation(values) -> float:
    top, bottom = max(values), min(values)
    if top == bottom:
        return 1.0
    if bottom <= 0.0:
        return math.inf
    return top / bottom


def test_01_halfplane_trace_chain_nine_pairs(capsys):
    """Concentrated boundary data keeps at least half the damped norm at
    every swept (h, depth) pair, with positive measured margin."""
    start = time.perf_counter()
    n, delta, epsilon = 1024, 0.5, 0.1
    margins, exteriors = [], []
    for h in (0.1, 0.05, 0.025):
        theta = LENGTH / n * np.arange(n)
        k_out = round(0.7 / h)
        data = (
            1.0
            + 0.5 * np.cos(theta)
            + 0.25 * np.cos(2.0 * theta)
            + 0.12 * np.cos(k_out * theta)
        )
        phi = BoundaryFunction(data, LENGTH, h)
        for rho in (0.05, 0.1, 0.2):
            report = verify_lower_chain(phi, rho, delta, epsilon)
            assert all(step.passed for step in report.steps)
            margins.append(report.measured_ratio - report.lower_bound)
            exteriors.append(report.exterior)
    elapsed = time.perf_counter() - start
    ok = all(m > 0.0 for m in margins) and max(exteriors) <= epsilon and elapsed <= 10.0
    announce(
        capsys,
        ok,
        "criterion 01 half-plane trace chain",
        f"9/9 pairs hold, min ratio margin {min(margins):.3g}, "
        f"exterior fraction {max(exteriors):.4f} <= {epsilon}, {elapsed:.1f}s <= 10s",
    )
    assert ok


def test_02_zero_mode_decay_rate_flat_and_torus(capsys):
    """Constant boundary data decays at unit rate: exactly on the flat
    model, within 10% for the discrete torus extension at h = 0.02."""
    start = time.perf_counter()
    h_flat = 0.05
    phi = BoundaryFunction(np.ones(1024), LENGTH, h_flat)
    depths = (0.05, 0.1, 0.15, 0.2, 0.25)
    fit_flat = decay_fit(
        [apply_halfplane_poisson(phi, r) for r in depths], depths, h_flat
    )
    flat_dev = abs(fit_flat.slope_times_h + 1.0)

    h_torus, nx, ny = 0.02, 512, 512
    phi_t = BoundaryFunction(np.ones(nx), LENGTH, h_torus)
    field = poisson_bvp(TORUS, phi_t, h_torus, far=1.9, n_normal=ny, rho_max=0.55)
    rhos = (0.1, 0.2, 0.3, 0.4, 0.5)
    traces = [
        trace_at(field, separable_level_set(TORUS, r, n_tangential=nx)) for r in rhos
    ]
    fit_torus = decay_fit(traces, rhos, h_torus)
    torus_dev = abs(fit_torus.slope_times_h + 1.0)

    elapsed = time.perf_counter() - start
    ok = flat_dev <= 1e-6 and torus_dev <= 0.1 and elapsed <= 120.0
    announce(
        capsys,
        ok,
        "criterion 02 zero-mode decay rate",
        f"flat slope*h = {fit_flat.slope_times_h:.9f} (dev {flat_dev:.2e} <= 1e-6), "
        f"torus slope*h = {fit_torus.slope_times_h:.4f} (dev {torus_dev:.3f} <= 0.1), "
        f"{elapsed:.1f}s <= 120s",
    )
    assert ok


def test_03_unit_frequency_data_decays_strictly_steeper(capsys):
    """Data oscillating at unit semiclassical frequency decays at rate
    sqrt(2), strictly steeper than the concentrated-data rate 1 — which is
    why the lower bound needs the interior-mass hypothesis."""
    start = time.perf_counter()
    h, k, nx, ny = 0.05, 20, 256, 2001
    xp = LENGTH / nx * np.arange(nx)
    phi = BoundaryFunction(np.exp(1j * k * xp), LENGTH, h)
    field = poisson_bvp(FLAT, phi, h, far=1.0, n_normal=ny, rho_max=0.3)
    depths = (0.05, 0.1, 0.15, 0.2, 0.25)
    traces = [
        trace_at(field, separable_level_set(FLAT, r, n_tangential=nx)) for r in depths
    ]
    fit = decay_fit(traces, depths, h)
    target = -math.sqrt(2.0)
    deviation = abs(fit.slope_times_h - target) / abs(target)
    elapsed = time.perf_counter() - start
    ok = deviation <= 0.05 and fit.slope_times_h < -1.0 and elapsed <= 60.0
    announce(
        capsys,
        ok,
        "criterion 03 exterior-mass necessity",
        f"slope*h = {fit.slope_times_h:.4f} vs -sqrt(2) "
        f"(rel dev {deviation:.3%} <= 5%), strictly steeper than -1, "
        f"{elapsed:.1f}s <= 60s",
    )
    assert ok


def test_04_window_mass_bounded_across_lambda_sweep(capsys):
    """Scaled spectral-window mass of low even-mode traces stays bounded
    over the window sweep: no growth trend, variation within factor 4.

    The family's trace frequencies all sit below every swept window, so
    the window mass is exactly zero and the measured values are
    eigendecomposition roundoff; fractions below 1e-12 count as zero.
    """
    start = time.perf_counter()
    h, lams = 0.05, (4.0, 8.0, 16.0, 32.0)
    transverse = solve_transverse_modes(TORUS, h, TORUS.energy, 1, n=512)[0]
    traces = []
    for k in (0, 1, 2, 3):
        mode = assemble_separable_mode(transverse, k, TORUS, n_tangential=256)
        trace = surface_trace_of_mode(mode, TORUS)
        traces.append((trace, float(trace.ambient_norm**2)))
    raw_peaks, q_values = [], []
    for lam in lams:
        peak = max(
            exterior_mass(trace, TORUS, lam, h) / norm_sq for trace, norm_sq in traces
        )
        raw_peaks.append(peak)
        q_values.append(lam * peak if peak > 1e-12 else 0.0)
    factor = variation(q_values)
    rise = float(isotonic_regression(np.array(q_values), increasing=True).x[-1])
    rise -= float(isotonic_regression(np.array(q_values), increasing=True).x[0])
    rise_tol = 1e-9 * max(1.0, max(abs(q) for q in q_values))
    elapsed = time.perf_counter() - start
    ok = factor <= 4.0 and rise <= rise_tol and elapsed <= 60.0
    announce(
        capsys,
        ok,
        "criterion 04 window-mass boundedness",
        f"lambda*mass = {tuple(q_values)} (raw fractions <= {max(raw_peaks):.2e}, "
        f"floor 1e-12), variation factor {factor:g} <= 4, monotone rise "
        f"{rise:.2e} <= {rise_tol:.0e}, {elapsed:.1f}s <= 60s",
    )
    assert ok


def test_05_contour_calculus_matches_spectral_oracle(capsys):
    """The contour-integral realization of the window function agrees with
    the direct eigendecomposition to 1e-6 in operator norm on 20 seeded
    random symmetric matrices up to 128x128."""
    start = time.perf_counter()
    ext = almost_analytic_extension(4.0, 0.05)
    rng = np.random.default_rng(20260815)
    worst, largest = 0.0, 0
    for _ in range(20):
        size = int(rng.integers(8, 129))
        largest = max(largest, size)
        q, _ = np.linalg.qr(rng.normal(size=(size, size)))
        P = (q * rng.uniform(0.0, 4.0 * ext.scale, size)) @ q.T
        P = 0.5 * (P + P.T)
        err = float(np.linalg.norm(hs_apply(P, ext) - spectral_calculus(P, ext), 2))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 120.0
    announce(
        capsys,
        ok,
        "criterion 05 contour calculus vs spectral oracle",
        f"20 matrices (largest {largest}x{largest}, spectrum in [0, 4*{ext.scale:g}]), "
        f"worst operator-norm error {worst:.3g} <= 1e-6, {elapsed:.1f}s <= 120s",
    )
    assert ok


def test_06_window_derivative_norms_scale_with_lambda(capsys):
    """Derivatives of the window function along an operator family shrink
    like the inverse window scale per derivative order."""
    start = time.perf_counter()
    n, h, lams = 256, 0.05, (4.0, 8.0, 16.0, 32.0)
    P0 = boundary_operator(FLAT, h, n=n)
    deviations = {}
    for order in (1, 2):
        report = family_derivative_norms(lambda r: P0 + r * np.eye(n), lams, h, order)
        deviations[order] = abs(report.fitted_exponent + order)
    elapsed = time.perf_counter() - start
    ok = all(dev <= 0.3 for dev in deviations.values()) and elapsed <= 60.0
    announce(
        capsys,
        ok,
        "criterion 06 window derivative scaling",
        f"fitted exponent deviations from -k: k=1 -> {deviations[1]:.3f}, "
        f"k=2 -> {deviations[2]:.3f} (tol 0.3), {elapsed:.1f}s <= 60s",
    )
    assert ok


def test_07_phase_series_closed_form_residual_and_leading_symbol(capsys):
    """The truncated phase series reproduces the flat closed form to
    1e-12, keeps a torus equation residual of order at least K + 0.5, and
    starts from the square-root barrier symbol to 1e-8."""
    start = time.perf_counter()
    order = 4
    xi = np.linspace(-0.75, 0.75, 65)
    depths = (0.05, 0.1, 0.15, 0.2)
    flat_series = solve_phase_series(FLAT, "agmon", order, xi)
    flat_dev = max(
        float(
            np.max(
                np.abs(
                    evaluate_phase(flat_series, s)
                    - s * (np.sqrt(1.0 + xi**2) - 1.0)
                )
            )
        )
        for s in depths
    )
    torus_series = solve_phase_series(TORUS, "agmon", order, xi)
    residual = phase_residual(torus_series, depths)
    leading_dev = 0.0
    for model in (FLAT, TORUS):
        ambient = solve_phase_series(model, "ambient", order, xi)
        barrier = potential_grid(model, np.zeros(1), np.zeros(1))[0, 0] - model.energy
        target = np.sqrt(barrier + xi**2)
        leading_dev = max(
            leading_dev, float(np.max(np.abs(ambient.coefficients[0] - target)))
        )
    elapsed = time.perf_counter() - start
    ok = (
        flat_dev <= 1e-12
        and residual.fitted_exponent >= order + 0.5
        and leading_dev <= 1e-8
    )
    announce(
        capsys,
        ok,
        "criterion 07 phase machinery",
        f"flat closed-form deviation {flat_dev:.2e} <= 1e-12, torus residual "
        f"order {residual.fitted_exponent:.2f} >= {order + 0.5}, leading symbol "
        f"deviation {leading_dev:.2e} <= 1e-8, {elapsed:.1f}s",
    )
    assert ok


def test_08_frequency_cutoff_derivative_decay_exponents(capsys):
    """Frequency derivatives of the shifted cutoff symbol decay with the
    square-root semiclassical rate per derivative."""
    start = time.perf_counter()
    span, rho, n = 8.0, 0.25, 1024
    profile = build_cutoff_profile(span)
    h_values = (0.1, 0.05, 0.025, 0.0125)

    def builder(h):
        series = solve_phase_series(FLAT, "agmon", 4, mode_frequencies(n, LENGTH, h))
        return build_phase_cutoff(series, profile, rho, h)

    report = symbol_class_check(builder, profile.plateau, 0.5, h_values)
    by_index = dict(zip(report.indices, report.exponents))
    dev1 = abs(by_index[(0, 1)] + 0.5)
    dev2 = abs(by_index[(0, 2)] + 1.0)
    elapsed = time.perf_counter() - start
    ok = dev1 <= 0.1 and dev2 <= 0.1
    announce(
        capsys,
        ok,
        "criterion 08 cutoff symbol class",
        f"frequency-derivative exponent deviations: first {dev1:.3f}, "
        f"second {dev2:.3f} (tol 0.1, dyadic sweep of 4), {elapsed:.1f}s",
    )
    assert ok


def test_09_frame_and_tail_constants_uniform_in_h(capsys):
    """The quantized cutoff admits an h-uniform lower frame constant; the
    remainder after peeling the pure damping factors through the outer
    cutoff with an h-uniform constant and vanishes on the inner band."""
    start = time.perf_counter()
    span, rho, n = 8.0, 0.25, 256
    profile = build_cutoff_profile(span)
    frame_constants, tail_constants, inside_ok = [], [], []
    for h in (0.1, 0.05, 0.025, 0.0125):
        series = solve_phase_series(FLAT, "agmon", 6, mode_frequencies(n, LENGTH, h))
        sym = build_phase_cutoff(series, profile, rho, h)
        frame = frame_lower_bound_check(
            sym, random_band_probes(n, LENGTH, h, count=6), profile.plateau
        )
        tail = tail_operator_bound(sym, series, profile.plateau)
        frame_constants.append(frame.minimum)
        tail_constants.append(tail.constant)
        inside_ok.append(tail.vanishes_inside)
    frame_var = variation(frame_constants)
    tail_var = variation(tail_constants)
    elapsed = time.perf_counter() - start
    ok = frame_var <= 2.0 and tail_var <= 2.0 and all(inside_ok)
    announce(
        capsys,
        ok,
        "criterion 09 frame and tail constants",
        f"lower-frame variation {frame_var:.3f} <= 2, tail-constant variation "
        f"{tail_var:.3f} <= 2, difference symbol vanishes on the inner band "
        f"at all 4 h values, {elapsed:.1f}s",
    )
    assert ok


def test_10_parametrix_tracks_discrete_extension_at_rate_h(capsys):
    """The phase-multiplier extension matches the discrete solver at a
    node-aligned depth with relative error of fitted order >= 0.7 in h."""
    start = time.perf_counter()
    nx, ny, far = 64, 24001, 1.0
    s_star = 80.0 * far / (ny - 1)
    rho_star = weighted_depth(TORUS, s_star)
    nodes = LENGTH / nx * np.arange(nx)
    data = 1.0 + 0.4 * np.cos(nodes) + 0.2 * np.cos(2.0 * nodes)
    level = separable_level_set(TORUS, rho_star, n_tangential=nx)
    h_values = (0.1, 0.05, 0.025, 0.0125)
    errors = []
    for h in h_values:
        phi = BoundaryFunction(data, LENGTH, h)
        series = solve_phase_series(TORUS, "agmon", 8, mode_frequencies(nx, LENGTH, h))
        param = apply_poisson_parametrix(series, phi, rho_star)
        field = poisson_bvp(TORUS, phi, h, far=far, n_normal=ny, rho_max=rho_star)
        oracle = trace_at(field, level).values * math.exp(rho_star / h)
        errors.append(
            float(np.linalg.norm(param.values - oracle) / np.linalg.norm(oracle))
        )
    fitted = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    ok = fitted >= 0.7
    announce(
        capsys,
        ok,
        "criterion 10 parametrix consistency",
        f"relative errors {tuple(f'{e:.2e}' for e in errors)}, fitted order "
        f"{fitted:.3f} >= 0.7, {elapsed:.1f}s",
    )
    assert ok


def test_11_trace_upper_constants_and_normal_derivative_scaling(capsys):
    """Gauged decay constants of the discrete extension stay within factor
    3 across h, and the gauged normal derivative grows like 1/h."""
    start = time.perf_counter()
    rho, nx = 0.3, 128
    h_values = (0.04, 0.02, 0.01)
    constants, derivative_values = [], []
    for h in h_values:
        ny = max(513, int(round(4.0 * 1.9 / h)) | 1)
        phi = BoundaryFunction(np.ones(nx), LENGTH, h)
        field = poisson_bvp(TORUS, phi, h, far=1.9, n_normal=ny, rho_max=0.55)
        level = separable_level_set(TORUS, rho, n_tangential=nx)
        gamma = separable_level_set(TORUS, 0.0, n_tangential=nx)
        base = trace_at(field, gamma).ambient_norm
        gauge = math.exp(rho / h)
        constants.append(gauge * trace_at(field, level).ambient_norm / base)
        derivative_values.append(
            gauge * normal_derivative_trace(field, level).ambient_norm / base
        )
    const_var = variation(constants)
    exponent = float(np.polyfit(np.log(h_values), np.log(derivative_values), 1)[0])
    elapsed = time.perf_counter() - start
    ok = const_var <= 3.0 and -1.3 <= exponent <= -0.7
    announce(
        capsys,
        ok,
        "criterion 11 trace upper bounds",
        f"gauged constants {tuple(f'{c:.3f}' for c in constants)} "
        f"(variation {const_var:.3f} <= 3), normal-derivative h-exponent "
        f"{exponent:.3f} in [-1.3, -0.7], {elapsed:.1f}s",
    )
    assert ok
