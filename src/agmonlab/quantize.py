"""Semiclassical quantization on the boundary circle and the cutoff family.

The centrepiece is a one-dimensional cutoff profile that follows exp(-x)
up to half its span, bends smoothly, and settles on a strictly positive
plateau.  Composed with the collar phase it yields a frequency cutoff that
equals the gauged decay multiplier on an inner frequency ball and the
plateau constant outside a slightly larger ball; quantizing it gives a
boundary operator that is invertible from below (the plateau provides a
frame bound) while its deviation from the pure decay multiplier is
supported at semiclassically large frequencies.

The collar phase does not depend on the tangent, so every symbol here is
a function of frequency alone, sampled on the mode grid of
``halfplane.mode_frequencies``, and quantizes as a discrete Fourier
multiplier, applied by ``halfplane.apply_multiplier``.  A multiplier's
operator norm is the sup of its symbol, so the tail bound reads its
constant and its factorization off the symbol values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from agmonlab._numerics import Spline, brentq, cumulative_simpson
from agmonlab._smooth import mollifier_fall
from agmonlab.halfplane import BoundaryFunction, apply_multiplier
from agmonlab.hjphase import PhaseSeries, evaluate_phase, phase_function

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
_EDGE_SLACK = 1.0 - 1e-9  # shrink measured regions before exactness claims


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """A sampled frequency symbol a(xi'), the same at every tangential point.

    ``values`` has shape (n_xi,) and quantizes as a Fourier multiplier.
    ``baseline`` is the constant the symbol equals outside its ``support``
    frequency window (symbols here are compactly supported only after
    subtracting their plateau).
    """

    values: np.ndarray
    frequencies: np.ndarray
    h: float
    baseline: float = 0.0
    support: tuple[float, float] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != self.frequencies.shape:
            raise ValueError(
                f"symbol values shape {values.shape} does not match "
                f"(n_xi,) = {self.frequencies.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("symbol values must be finite")
        if self.support is not None:
            lo, hi = self.support
            outside = (self.frequencies < lo) | (self.frequencies > hi)
            if outside.any():
                dev = np.max(np.abs(values[outside] - self.baseline))
                scale = max(float(np.max(np.abs(values))), 1e-300)
                if dev > 1e-12 * scale:
                    raise ValueError(
                        "symbol deviates from its baseline outside the "
                        f"declared support window by {dev:.3g}"
                    )
        values.setflags(write=False)


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth nonincreasing profile: exp(-x) up to span/2, plateau after span.

    The bend on [span/2, span] integrates a symmetric smooth step, which
    pins the plateau at exp(-3*span/4) up to quadrature error; the profile
    dominates exp(-x) everywhere and never drops below the plateau.
    :func:`build_cutoff_profile` checks both on the samples of the bend.
    """

    span: float
    plateau: float
    _bend: Spline = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not math.exp(-self.span) < self.plateau < math.exp(-self.span / 2.0):
            raise ValueError(
                "plateau must lie strictly between exp(-span) and exp(-span/2)"
            )

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
    construction; both are re-measured on the bend's sample nodes
    regardless, monotonicity as a nondecreasing integrated log-profile,
    and a profile that fails either raises.  The log-profile is
    integrated by cumulative Simpson and interpolated by a cubic spline
    clamped to slopes 1 and 0, the ``_numerics`` ports (bitwise scipy's
    ``cumulative_simpson`` and ``CubicSpline``).
    """
    if span < _MIN_SPAN:
        raise ValueError(
            f"span {span:g} is too small for a smooth monotone bridge; "
            f"need at least {_MIN_SPAN:g}"
        )
    t = np.linspace(0.0, 1.0, _BRIDGE_NODES)
    slope = mollifier_fall(t)  # log-slope magnitude along the bend
    bend_nodes = span / 2.0 + t * (span / 2.0)
    log_vals = span / 2.0 + cumulative_simpson(slope, bend_nodes)
    # no slack: rounding keeps a running sum of nonnegative Simpson panels
    # nondecreasing, and every panel of the shipped bend is >= 0 (the
    # log-profile's smallest step is exactly 0.0 at every span from 4 to
    # 100), so only a bend whose log-slope dips below 0 fails
    if np.any(np.diff(log_vals) < 0.0):
        raise ValueError("cutoff profile must be nonincreasing")
    values = np.exp(-log_vals)
    if np.any(values < np.exp(-bend_nodes) - 1e-12):
        raise ValueError("cutoff profile must dominate exp(-x)")
    bend = Spline(bend_nodes, log_vals, end_slopes=(1.0, 0.0))
    return CutoffProfile(
        span=float(span), plateau=float(np.exp(-log_vals[-1])), _bend=bend
    )


def _phase_level_frequency(series: PhaseSeries, rho: float, target: float) -> float:
    """|xi'| at which the gauged phase at depth rho reaches the target."""
    fn = phase_function(series)
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
    and the plateau outside an outer ball; both regions are verified.  The
    symbol's ``support`` is the outer ball, widened by the edge slack and
    capped at the largest sampled frequency, and its metadata records the
    depth (``rho``), the profile's ``span`` and the inner ball's radius
    squared over span*h (``inner_constant``), which the tail bound reads.
    """
    if series.kind != "agmon":
        raise ValueError("phase cutoff requires the gauged (agmon) series kind")
    limit = series.meta["collar_limit"]
    if not 0.0 < rho <= limit:
        raise ValueError(f"depth {rho:g} outside the collar (0, {limit:g}]")
    if h <= 0.0:
        raise ValueError("h must be positive")
    scaled = evaluate_phase(series, rho) / h
    values = profile(scaled)

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
    if not np.array_equal(values[region_in], np.exp(-scaled[region_in])):
        raise ValueError("cutoff failed to match the decay multiplier inside")
    if region_out.any():
        dev = np.max(np.abs(values[region_out] - profile.plateau))
        if dev > 1e-9 * profile.plateau:
            raise ValueError("cutoff failed to reach the plateau outside")
    if float(np.min(values)) < profile.plateau * (1.0 - 1e-12):
        raise ValueError("cutoff dropped below the plateau")

    xi_max = float(np.max(np.abs(series.frequencies)))
    window = min(xi_outer / _EDGE_SLACK, xi_max)
    return Symbol(
        values=values,
        frequencies=series.frequencies,
        h=float(h),
        baseline=profile.plateau,
        support=(-window, window),
        meta={"rho": float(rho), "span": span, "inner_constant": float(inner_c)},
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
        frequencies=frequencies,
        h=float(h),
        meta={"span": span, "inner_constant": inner_constant},
    )
    chi_in = Symbol(
        values=inner_vals, baseline=0.0, support=(-window, window), **common
    )
    chi_out = Symbol(
        values=outer_vals, baseline=1.0, support=(-window, window), **common
    )
    return chi_in, chi_out


# --------------------------------------------------------------------------
# quantization
# --------------------------------------------------------------------------


def apply_quantized(symbol: Symbol, u: BoundaryFunction) -> BoundaryFunction:
    """Quantize the symbol and apply it to boundary data as a Fourier multiplier."""
    out = apply_multiplier(u, symbol.values, symbol.frequencies)
    return BoundaryFunction(out, u.length, u.h)


def random_band_probes(
    n: int, length: float, h: float, count: int = 8
) -> list[BoundaryFunction]:
    """Deterministic band-limited random probes for operator-norm estimates
    (generator seed 0)."""
    rng = np.random.default_rng(0)
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
    """Fitted h-growth exponents of derivative sups, per multi-index.

    The class bound holds iff every exponent is at least its threshold.
    """

    indices: tuple[tuple[int, int], ...]
    sups: np.ndarray  # (n_indices, n_h)
    exponents: np.ndarray
    thresholds: np.ndarray


_CLASS_INDICES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _derivative_sup(values: np.ndarray, dxi: float, alpha: int, beta: int):
    if alpha:
        return 0.0  # a frequency-only symbol has no tangential derivative
    arr = values.astype(complex)
    for _ in range(beta):
        arr = np.gradient(arr, dxi)
    return float(np.max(np.abs(arr)))


def symbol_class_check(
    builder, shift: float, class_exponent: float, h_values
) -> SymbolClassReport:
    """Measure derivative sups of builder(h) - shift across a dyadic h sweep.

    For each multi-index (alpha, beta) with |alpha| + |beta| <= 2 the sup of
    the finite-difference derivative is regressed against h in log-log
    scale; the index passes when its fitted exponent is at least
    -class_exponent * beta - 0.1.  Identically vanishing derivative rows
    pass with an infinite exponent; the tangential rows (alpha > 0) of a
    frequency-only symbol are recorded as 0.
    """
    h_values = np.asarray(h_values, dtype=float)
    if h_values.size < 4:
        raise ValueError("h sweep too short; need at least 4 dyadic values")
    sups = np.zeros((len(_CLASS_INDICES), h_values.size))
    for j, h in enumerate(h_values):
        sym = builder(float(h))
        vals = sym.values - shift
        dxi = float(sym.frequencies[1] - sym.frequencies[0])
        for i, (alpha, beta) in enumerate(_CLASS_INDICES):
            sups[i, j] = _derivative_sup(vals, dxi, alpha, beta)
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
    return SymbolClassReport(
        indices=_CLASS_INDICES,
        sups=sups,
        exponents=exponents,
        thresholds=thresholds,
    )


@dataclass(frozen=True)
class FrameBoundReport:
    """The least lower frame ratio ||Op(symbol) u|| / (floor ||u||) over a
    probe set."""

    minimum: float


def frame_lower_bound_check(
    symbol: Symbol, probes, floor: float
) -> FrameBoundReport:
    """Measure the frame lower constant of the quantized cutoff.

    The plateau keeps the symbol >= floor pointwise, so every ratio is at
    least one; the minimum over the probe set is the measured frame
    constant for this h.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("probe set must be nonempty")
    ratios = []
    for u in probes:
        denom = u.ambient_norm
        if denom == 0.0:
            raise ValueError("probe inputs must be nonzero")
        ratios.append(apply_quantized(symbol, u).ambient_norm / (floor * denom))
    return FrameBoundReport(minimum=float(min(ratios)))


@dataclass(frozen=True)
class TailBoundReport:
    """Size of the cutoff minus the pure decay multiplier, as an operator."""

    constant: float  # operator norm (= sup) of the difference divided by the floor
    vanishes_inside: bool
    factorization_ok: bool


def tail_operator_bound(
    symbol: Symbol, series: PhaseSeries, floor: float
) -> TailBoundReport:
    """Bound the quantized difference between the cutoff and the multiplier.

    Rebuilds the decay multiplier from the same phase series (bitwise
    identical arithmetic), verifies the difference vanishes on the inner
    frequency ball, and reports its sup over the floor as the operator-norm
    constant (exact for a Fourier multiplier).  The difference operator
    factors through the outer radial cutoff chi_out iff its symbol does:
    max |diff * chi_out - diff| <= 1e-12 max |diff|.
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
    vanishes = bool(np.all(diff[region_in] == 0.0))
    op_norm = float(np.max(np.abs(diff)))

    _, chi_out = split_in_out(span, symbol.h, inner_c, symbol.frequencies)
    routed_dev = float(np.max(np.abs(diff * chi_out.values - diff)))
    return TailBoundReport(
        constant=op_norm / floor,
        vanishes_inside=vanishes,
        factorization_ok=routed_dev <= 1e-12 * op_norm,
    )
