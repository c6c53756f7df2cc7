"""Semiclassical quantization on the boundary circle and the cutoff family.

The centrepiece is a one-dimensional cutoff profile that follows exp(-x)
up to half its span, bends smoothly, and settles on a strictly positive
plateau.  Composed with the collar phase it yields a frequency cutoff that
equals the gauged decay multiplier on an inner frequency ball and the
plateau constant outside a slightly larger ball; quantizing it gives a
boundary operator that is invertible from below (the plateau provides a
frame bound) while its deviation from the pure decay multiplier is
supported at semiclassically large frequencies.

Quantization is realized mode-wise: a frequency-only symbol acts as a
discrete Fourier multiplier; a tangent-dependent symbol acts by summing
modes against its sampled values at each node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from agmonlab._smooth import mollifier_fall
from agmonlab.halfplane import BoundaryFunction
from agmonlab.hjphase import PhaseSeries, evaluate_phase, mode_frequencies, phase_function

__all__ = [
    "Symbol",
    "CutoffProfile",
    "SymbolClassReport",
    "FrameBoundReport",
    "TailBoundReport",
    "build_cutoff_profile",
    "build_phase_cutoff",
    "apply_quantized",
    "symbol_class_check",
    "frame_lower_bound_check",
    "tail_operator_bound",
    "split_in_out",
    "random_band_probes",
]

_BRIDGE_NODES = 8193
_MIN_SPAN = 4.0
_CHUNK_ROWS = 256
_EDGE_SLACK = 1.0 - 1e-9  # shrink measured regions before exactness claims


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """A sampled boundary phase-space symbol a(x', xi').

    ``values`` has shape (n_x, n_xi); a single tangential node means the
    symbol does not depend on the tangent and quantizes as a multiplier.
    ``baseline`` is the constant the symbol equals outside its ``support``
    frequency window (symbols here are compactly supported only after
    subtracting their plateau).  ``class_exponent`` is the claimed growth
    class: xi-derivatives of order k may grow like h^(-k*class_exponent).
    """

    values: np.ndarray
    x_nodes: np.ndarray
    frequencies: np.ndarray
    h: float
    class_exponent: float
    baseline: float = 0.0
    support: tuple[float, float] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if not 0.0 <= self.class_exponent < 1.0:
            raise ValueError("class exponent must lie in [0, 1)")
        if values.shape != (self.x_nodes.size, self.frequencies.size):
            raise ValueError(
                f"symbol values shape {values.shape} does not match "
                f"(n_x, n_xi) = {(self.x_nodes.size, self.frequencies.size)}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("symbol values must be finite")
        if self.support is not None:
            lo, hi = self.support
            outside = (self.frequencies < lo) | (self.frequencies > hi)
            if outside.any():
                dev = np.max(np.abs(values[:, outside] - self.baseline))
                scale = max(float(np.max(np.abs(values))), 1e-300)
                if dev > 1e-12 * scale:
                    raise ValueError(
                        "symbol deviates from its baseline outside the "
                        f"declared support window by {dev:.3g}"
                    )
        values.setflags(write=False)

    @property
    def tangent_independent(self) -> bool:
        if self.x_nodes.size == 1:
            return True
        spread = float(np.max(np.abs(self.values - self.values[:1])))
        return spread <= 1e-13 * max(float(np.max(np.abs(self.values))), 1e-300)


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth nonincreasing profile: exp(-x) up to span/2, plateau after span.

    The bend on [span/2, span] integrates a symmetric smooth step, which
    pins the plateau at exp(-3*span/4) up to quadrature error; the profile
    dominates exp(-x) everywhere and never drops below the plateau.
    ``derivative_ratios`` holds the measured sups of |b'|/b and |b''|/b.
    """

    span: float
    plateau: float
    nodes: np.ndarray
    values: np.ndarray
    derivative_ratios: tuple[float, float]
    _bend: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not math.exp(-self.span) < self.plateau < math.exp(-self.span / 2.0):
            raise ValueError(
                "plateau must lie strictly between exp(-span) and exp(-span/2)"
            )
        if np.any(np.diff(self.values) > 1e-15):
            raise ValueError("cutoff profile must be nonincreasing")
        if np.any(self.values < np.exp(-self.nodes) - 1e-12):
            raise ValueError("cutoff profile must dominate exp(-x)")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.exp(-np.minimum(arr, self.span / 2.0))
        out[arr >= self.span] = self.plateau
        bend = (arr > self.span / 2.0) & (arr < self.span)
        if bend.any():
            out[bend] = np.exp(-self._bend(arr[bend]))
        return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# cutoff construction
# --------------------------------------------------------------------------


def build_cutoff_profile(span: float) -> CutoffProfile:
    """Bridge exp(-x) to a flat plateau over [span/2, span].

    The bend keeps log-slope between -1 and 0 (a smooth step integrated in
    log scale), so monotonicity and the exp(-x) lower bound hold by
    construction; they are re-measured on the sample grid regardless.
    """
    if span < _MIN_SPAN:
        raise ValueError(
            f"span {span:g} is too small for a smooth monotone bridge; "
            f"need at least {_MIN_SPAN:g}"
        )
    t = np.linspace(0.0, 1.0, _BRIDGE_NODES)
    slope = mollifier_fall(t)  # log-slope magnitude along the bend
    x_nodes = span / 2.0 + t * (span / 2.0)
    log_vals = span / 2.0 + cumulative_simpson(slope, x=x_nodes, initial=0.0)
    log_vals = np.maximum.accumulate(log_vals)
    plateau = float(np.exp(-log_vals[-1]))
    bend = CubicSpline(x_nodes, log_vals, bc_type=((1, 1.0), (1, 0.0)))

    values = np.exp(-log_vals)
    # measured derivative bounds |b'| <= C1 b, |b''| <= C2 b on the bend:
    # b'/b = -slope, b''/b = slope^2 - slope'
    slope_deriv = np.gradient(slope, x_nodes)
    c1 = max(1.0, float(np.max(np.abs(slope))))
    c2 = max(1.0, float(np.max(np.abs(slope**2 - slope_deriv))))
    return CutoffProfile(
        span=float(span),
        plateau=plateau,
        nodes=x_nodes,
        values=values,
        derivative_ratios=(c1, c2),
        _bend=bend,
    )


def _phase_level_frequency(series: PhaseSeries, rho: float, target: float) -> float:
    """|xi'| at which the gauged phase at depth rho reaches the target."""
    fn = phase_function(series.model, "agmon", series.order)
    hi = 1.0
    for _ in range(80):
        if fn(rho, hi) > target:
            break
        hi *= 2.0
    else:
        raise ValueError("phase never reaches the cutoff target on this collar")
    return brentq(lambda xi: fn(rho, xi) - target, 0.0, hi)


def build_phase_cutoff(
    series: PhaseSeries, profile: CutoffProfile, rho: float, h: float
) -> Symbol:
    """The depth-rho frequency cutoff: profile composed with phase/h.

    Equals the decay multiplier exp(-phase/h) on an inner frequency ball
    and the plateau outside an outer ball; the two ball radii squared,
    divided by span*h, are recorded as ``inner_constant < outer_constant``
    in the symbol metadata along with the verified region checks.
    """
    if series.kind != "agmon":
        raise ValueError("phase cutoff requires the gauged (agmon) series kind")
    limit = series.meta["collar_limit"]
    if not 0.0 < rho <= limit:
        raise ValueError(f"depth {rho:g} outside the collar (0, {limit:g}]")
    if h <= 0.0:
        raise ValueError("h must be positive")
    scaled = evaluate_phase(series, rho) / h  # (n_x, n_xi)
    values = profile(scaled.ravel()).reshape(scaled.shape)

    span = profile.span
    xi_inner = _phase_level_frequency(series, rho, span * h / 2.0)
    xi_outer = _phase_level_frequency(series, rho, span * h)
    inner_c = xi_inner**2 / (span * h)
    outer_c = xi_outer**2 / (span * h)
    if not inner_c < outer_c:
        raise ValueError("cutoff regions collapsed; depth too small for this h")

    xi2 = series.frequencies**2
    region_in = xi2 <= inner_c * span * h * _EDGE_SLACK
    region_out = xi2 >= outer_c * span * h / _EDGE_SLACK
    if not np.array_equal(values[:, region_in], np.exp(-scaled[:, region_in])):
        raise ValueError("cutoff failed to match the decay multiplier inside")
    if region_out.any():
        dev = np.max(np.abs(values[:, region_out] - profile.plateau))
        if dev > 1e-9 * profile.plateau:
            raise ValueError("cutoff failed to reach the plateau outside")
    if float(np.min(values)) < profile.plateau * (1.0 - 1e-12):
        raise ValueError("cutoff dropped below the plateau")

    xi_max = float(np.max(np.abs(series.frequencies)))
    window = min(xi_outer / _EDGE_SLACK, xi_max)
    return Symbol(
        values=values,
        x_nodes=series.tangential_nodes,
        frequencies=series.frequencies,
        h=float(h),
        class_exponent=0.5,
        baseline=profile.plateau,
        support=(-window, window),
        meta={
            "rho": float(rho),
            "span": span,
            "plateau": profile.plateau,
            "inner_constant": float(inner_c),
            "outer_constant": float(outer_c),
        },
    )


def split_in_out(
    span: float, h: float, inner_constant: float, frequencies: np.ndarray
) -> tuple[Symbol, Symbol]:
    """Radial frequency partition at the inner cutoff scale.

    The inner piece is 1 where |xi'|^2 <= c*span*h/2 and 0 where
    |xi'|^2 >= c*span*h (c = inner_constant); the outer piece is its exact
    complement, so the pair sums to one bitwise.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    scale = inner_constant * span * h
    inner_vals = mollifier_fall((frequencies**2 - scale / 2.0) / (scale / 2.0))
    outer_vals = 1.0 - inner_vals
    window = math.sqrt(scale)
    common = dict(
        x_nodes=np.array([0.0]),
        frequencies=frequencies,
        h=float(h),
        class_exponent=0.5,
        meta={"span": span, "inner_constant": inner_constant},
    )
    chi_in = Symbol(
        values=inner_vals[None, :], baseline=0.0, support=(-window, window), **common
    )
    chi_out = Symbol(
        values=outer_vals[None, :], baseline=1.0, support=(-window, window), **common
    )
    return chi_in, chi_out


# --------------------------------------------------------------------------
# quantization
# --------------------------------------------------------------------------


def _check_compatible(symbol: Symbol, u: BoundaryFunction) -> None:
    n = u.values.size
    if symbol.frequencies.size != n:
        raise ValueError(
            f"grid mismatch: symbol has {symbol.frequencies.size} frequencies, "
            f"data has {n} nodes"
        )
    expected = mode_frequencies(n, u.length, u.h)
    if np.max(np.abs(symbol.frequencies - expected)) > 1e-12:
        raise ValueError(
            "grid mismatch: symbol frequencies do not match the data's "
            "semiclassical mode grid"
        )
    if abs(symbol.h - u.h) > 1e-15 * abs(u.h):
        raise ValueError("grid mismatch: symbol and data use different h")


def apply_quantized(symbol: Symbol, u: BoundaryFunction) -> BoundaryFunction:
    """Quantize the symbol and apply it to boundary data.

    Frequency-only symbols act as discrete Fourier multipliers; otherwise
    each output node sums the data modes against the symbol sampled at
    that node (the discrete oscillatory-integral realization).
    """
    _check_compatible(symbol, u)
    n = u.values.size
    coeff = np.fft.fftshift(np.fft.fft(u.values))
    if symbol.tangent_independent:
        out = np.fft.ifft(np.fft.ifftshift(coeff * symbol.values[0]))
        return BoundaryFunction(out, u.length, u.h)
    nodes = u.length * np.arange(n) / n
    if symbol.x_nodes.size != n or np.max(np.abs(symbol.x_nodes - nodes)) > 1e-12:
        raise ValueError(
            "grid mismatch: tangent-dependent symbol must be sampled on the "
            "data nodes"
        )
    modes = np.arange(-(n // 2), n - n // 2)
    out = np.empty(n, dtype=complex)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        osc = np.exp(
            2j * math.pi * modes[None, :] * nodes[start:stop, None] / u.length
        )
        out[start:stop] = (
            osc * symbol.values[start:stop] * coeff[None, :]
        ).sum(axis=1) / n
    return BoundaryFunction(out, u.length, u.h)


def _weighted_norm(u: BoundaryFunction) -> float:
    dx = u.length / u.values.size
    return math.sqrt(dx * float(np.sum(np.abs(u.values) ** 2)))


def random_band_probes(
    n: int, length: float, h: float, count: int = 8, seed: int = 0
) -> list[BoundaryFunction]:
    """Deterministic band-limited random probes for operator-norm estimates."""
    rng = np.random.default_rng(seed)
    band = max(1, n // 3)
    probes = []
    for _ in range(count):
        spec = np.zeros(n, dtype=complex)
        modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        keep = np.abs(modes) <= band
        spec[keep] = rng.standard_normal(keep.sum()) + 1j * rng.standard_normal(
            keep.sum()
        )
        probes.append(BoundaryFunction(np.fft.ifft(spec), length, h))
    return probes


# --------------------------------------------------------------------------
# verification reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolClassReport:
    """Fitted h-growth exponents of derivative sups, per multi-index."""

    h_values: np.ndarray
    indices: tuple[tuple[int, int], ...]
    sups: np.ndarray  # (n_indices, n_h)
    exponents: np.ndarray
    thresholds: np.ndarray
    per_index_pass: np.ndarray
    passed: bool


_CLASS_INDICES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _derivative_sup(values: np.ndarray, dx: float, dxi: float, alpha: int, beta: int):
    arr = values.astype(complex)
    for _ in range(alpha):
        if arr.shape[0] < 3:
            return 0.0
        arr = np.gradient(arr, dx, axis=0)
    for _ in range(beta):
        arr = np.gradient(arr, dxi, axis=1)
    return float(np.max(np.abs(arr)))


def symbol_class_check(
    builder, shift: float, class_exponent: float, h_values
) -> SymbolClassReport:
    """Measure derivative sups of builder(h) - shift across a dyadic h sweep.

    For each multi-index (alpha, beta) with |alpha| + |beta| <= 2 the sup of
    the finite-difference derivative is regressed against h in log-log
    scale; the index passes when its fitted exponent is at least
    -class_exponent * beta - 0.1.  Identically vanishing derivative rows
    pass with an infinite exponent.
    """
    h_values = np.asarray(h_values, dtype=float)
    if h_values.size < 4:
        raise ValueError("h sweep too short; need at least 4 dyadic values")
    sups = np.zeros((len(_CLASS_INDICES), h_values.size))
    for j, h in enumerate(h_values):
        sym = builder(float(h))
        vals = sym.values - shift
        if sym.x_nodes.size > 1:
            dx = float(sym.x_nodes[1] - sym.x_nodes[0])
        else:
            dx = 1.0
        dxi = float(sym.frequencies[1] - sym.frequencies[0])
        for i, (alpha, beta) in enumerate(_CLASS_INDICES):
            sups[i, j] = _derivative_sup(vals, dx, dxi, alpha, beta)
    exponents = np.empty(len(_CLASS_INDICES))
    for i in range(len(_CLASS_INDICES)):
        row = sups[i]
        if np.all(row < 1e-300):
            exponents[i] = math.inf
        elif np.any(row < 1e-300):
            exponents[i] = math.inf if np.max(row) < 1e-300 else -math.inf
        else:
            exponents[i] = float(np.polyfit(np.log(h_values), np.log(row), 1)[0])
    thresholds = np.array(
        [-class_exponent * beta - 0.1 for (_, beta) in _CLASS_INDICES]
    )
    per_index = exponents >= thresholds
    return SymbolClassReport(
        h_values=h_values,
        indices=_CLASS_INDICES,
        sups=sups,
        exponents=exponents,
        thresholds=thresholds,
        per_index_pass=per_index,
        passed=bool(per_index.all()),
    )


@dataclass(frozen=True)
class FrameBoundReport:
    """Lower frame ratios ||Op(symbol) u|| / (floor ||u||) over a probe set."""

    ratios: np.ndarray
    minimum: float


def frame_lower_bound_check(
    symbol: Symbol, probes, floor: float
) -> FrameBoundReport:
    """Measure the frame lower constant of the quantized cutoff.

    The plateau keeps the symbol >= floor pointwise, so on the multiplier
    path every ratio is at least one; the minimum over the probe set is the
    measured frame constant for this h.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("probe set must be nonempty")
    ratios = []
    for u in probes:
        denom = _weighted_norm(u)
        if denom == 0.0:
            raise ValueError("probe inputs must be nonzero")
        ratios.append(_weighted_norm(apply_quantized(symbol, u)) / (floor * denom))
    ratios = np.array(ratios)
    return FrameBoundReport(ratios=ratios, minimum=float(ratios.min()))


@dataclass(frozen=True)
class TailBoundReport:
    """Size of the cutoff minus the pure decay multiplier, as an operator."""

    constant: float  # operator norm of the difference divided by the floor
    sup_ratio: float  # sup of the difference symbol divided by the floor
    vanishes_inside: bool
    factorization_ok: bool
    probe_ratios: np.ndarray


def tail_operator_bound(
    symbol: Symbol, series: PhaseSeries, floor: float, probes=None
) -> TailBoundReport:
    """Bound the quantized difference between the cutoff and the multiplier.

    Rebuilds the decay multiplier from the same phase series (bitwise
    identical arithmetic), verifies the difference vanishes on the inner
    frequency ball and stays below the floor in sup norm, measures the
    operator norm on probes, and checks the difference operator factors
    through the outer radial cutoff.
    """
    rho = symbol.meta["rho"]
    span = symbol.meta["span"]
    inner_c = symbol.meta["inner_constant"]
    scaled = evaluate_phase(series, rho) / symbol.h
    if scaled.shape != symbol.values.shape:
        raise ValueError("grid mismatch: series and symbol shapes differ")
    diff = symbol.values - np.exp(-scaled)

    xi2 = symbol.frequencies**2
    region_in = xi2 <= inner_c * span * symbol.h * _EDGE_SLACK
    vanishes = bool(np.all(diff[:, region_in] == 0.0))
    sup_ratio = float(np.max(np.abs(diff))) / floor

    diff_symbol = Symbol(
        values=diff,
        x_nodes=symbol.x_nodes,
        frequencies=symbol.frequencies,
        h=symbol.h,
        class_exponent=symbol.class_exponent,
        baseline=0.0,
        meta={"rho": rho, "span": span},
    )
    n = symbol.frequencies.size
    spacing = float(symbol.frequencies[1] - symbol.frequencies[0])
    length = 2.0 * math.pi * symbol.h / spacing
    if probes is None:
        probes = random_band_probes(n, length, symbol.h)
    probes = list(probes)
    if not probes:
        raise ValueError("probe set must be nonempty")

    if diff_symbol.tangent_independent:
        op_norm = float(np.max(np.abs(diff)))
    else:
        op_norm = 0.0
        for u in probes:
            op_norm = max(
                op_norm,
                _weighted_norm(apply_quantized(diff_symbol, u)) / _weighted_norm(u),
            )

    _, chi_out = split_in_out(span, symbol.h, inner_c, symbol.frequencies)
    ratios, factor_ok = [], True
    for u in probes:
        direct = apply_quantized(diff_symbol, u)
        ratios.append(_weighted_norm(direct) / _weighted_norm(u))
        routed = apply_quantized(diff_symbol, apply_quantized(chi_out, u))
        dev = np.max(np.abs(direct.values - routed.values))
        scale = max(float(np.max(np.abs(direct.values))), 1e-300)
        if dev > 1e-12 * max(scale, _weighted_norm(u)):
            factor_ok = False
    return TailBoundReport(
        constant=op_norm / floor,
        sup_ratio=sup_ratio,
        vanishes_inside=vanishes,
        factorization_ok=factor_ok,
        probe_ratios=np.array(ratios),
    )
