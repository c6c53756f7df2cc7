"""Boundary data on the circle, its Fourier layer, and the exact Poisson
model on the flat half-plane cylinder.

This module is the one place that knows the circle's Fourier convention:
:func:`mode_frequencies` is the centred semiclassical frequency grid and
:func:`apply_multiplier` applies a Fourier multiplier on it.  Every boundary
operator in the package is such a multiplier: the half-plane extension
here, the gauged parametrix in ``hjphase`` and the quantized symbols in
``quantize``.  Grid operators are not: ``solver.poisson_bvp`` and
``fcalc``'s window masses diagonalize circulant stencils by a plain
``np.fft`` transform of grid values, in the stencil's own index order.

With a constant unit barrier above a circle of length L, the decaying
solution of (-h^2 Laplace + 1)u = 0 with boundary data phi is diagonal in
the semiclassical Fourier basis: each mode is damped by
exp(-(rho/h) sqrt(xi'^2 + 1)) at height rho.  Frequencies are discrete, so
every inequality in the lower-bound chain can be checked mode-pointwise
with no quadrature error.  The module also houses the transform, the
zero-section concentration measurement, and the four-step chain
culminating in

    |trace at rho| >= (1/2) exp(-(rho/h) sqrt(delta^2 + 1)) |phi|

for data whose spectral mass fraction outside the zero-section cutoff is
at most 1/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from agmonlab._numerics import level_norm
from agmonlab._smooth import mollifier_fall

__all__ = [
    "BoundaryFunction",
    "ChainStep",
    "ChainReport",
    "make_boundary_function",
    "mode_frequencies",
    "fourier_h",
    "apply_multiplier",
    "poisson_multiplier",
    "apply_halfplane_poisson",
    "zero_section_cutoff",
    "exterior_mass_fraction",
    "verify_lower_chain",
]

_EPSILON_MAX = 1.0 / math.sqrt(2.0)
_IDENTITY_TOL = 1e-10


def _check_scales(length: float, h: float) -> None:
    if length <= 0.0:
        raise ValueError("circle length must be positive")
    if h <= 0.0:
        raise ValueError("h must be positive")


@dataclass(frozen=True)
class BoundaryFunction:
    """Complex data on N uniform nodes of a circle of length L at scale h.

    N must be a power of two (the transform is an FFT).  ``ambient_norm``
    is the discrete L^2 norm with line element L/N
    (:func:`_numerics.level_norm`), frozen at construction.
    """

    values: np.ndarray
    length: float
    h: float
    ambient_norm: float = field(init=False)

    def __post_init__(self) -> None:
        _check_scales(self.length, self.h)
        values = np.ascontiguousarray(self.values, dtype=complex)
        n = values.size
        if n < 2 or n & (n - 1):
            raise ValueError(f"node count {n} is not a power of two")
        if not np.all(np.isfinite(values)):
            raise ValueError("boundary values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        norm = float(level_norm(values, self.length / n))
        object.__setattr__(self, "ambient_norm", norm)


def make_boundary_function(fn, n: int, length: float, h: float) -> BoundaryFunction:
    """Sample a callable on the N uniform circle nodes."""
    nodes = length / n * np.arange(n)
    return BoundaryFunction(values=np.asarray(fn(nodes)), length=length, h=h)


def mode_frequencies(n: int, length: float, h: float) -> np.ndarray:
    """Semiclassical frequencies of the circle modes, centred ordering."""
    return h * 2.0 * math.pi * np.arange(-(n // 2), n - n // 2) / length


def fourier_h(u: BoundaryFunction) -> np.ndarray:
    """Semiclassical Fourier coefficients as a weighted DFT.

    Entry k, in the centred ordering of :func:`mode_frequencies`,
    approximates the integral of exp(-i x xi'_k / h) u(x) dx over the
    circle; with xi'_k = h 2 pi k / L the phases are exactly the DFT phases,
    so the quadrature is exact on band-limited data.  The spectral line
    element is 2 pi h / L, so sqrt(2 pi h / L * sum |c_k|^2) is sqrt(2 pi h)
    times the node-side norm (Plancherel).
    """
    n = u.values.size
    return u.length / n * np.fft.fftshift(np.fft.fft(u.values))


def apply_multiplier(
    phi: BoundaryFunction, multiplier: np.ndarray, frequencies: np.ndarray
) -> np.ndarray:
    """Values of the Fourier multiplier applied to boundary data.

    ``multiplier[k]`` scales the data's circle mode of semiclassical
    frequency ``frequencies[k]``, in the centred ordering of
    :func:`mode_frequencies`; those frequencies must be the data's own.
    """
    n = phi.values.size
    expected = mode_frequencies(n, phi.length, phi.h)
    if frequencies.size != n or np.max(np.abs(frequencies - expected)) > 1e-12:
        raise ValueError(
            f"grid mismatch: a frequency grid of {frequencies.size} modes does "
            f"not match the data's {n} mode frequencies at h = {phi.h:g}"
        )
    coeff = np.fft.fftshift(np.fft.fft(phi.values))
    return np.fft.ifft(np.fft.ifftshift(coeff * multiplier))


def poisson_multiplier(xi, rho: float, h: float):
    """Per-frequency damping exp(-(rho/h) sqrt(xi^2 + 1)) of the half-plane
    solution operator; strictly decreasing in |xi| and in rho."""
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    if h <= 0.0:
        raise ValueError("h must be positive")
    xi = np.asarray(xi, dtype=float)
    out = np.exp(-(rho / h) * np.sqrt(xi**2 + 1.0))
    return float(out) if out.ndim == 0 else out


def apply_halfplane_poisson(phi: BoundaryFunction, rho: float) -> BoundaryFunction:
    """Trace at height rho of the decaying solution with boundary data phi."""
    xi = mode_frequencies(phi.values.size, phi.length, phi.h)
    values = apply_multiplier(phi, poisson_multiplier(xi, rho, phi.h), xi)
    return BoundaryFunction(values=values, length=phi.length, h=phi.h)


def zero_section_cutoff(xi, delta: float):
    """Smooth radial profile equal to 1 on |xi| <= delta/2, 0 on |xi| >= delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    t = (np.abs(np.asarray(xi, dtype=float)) - delta / 2.0) / (delta / 2.0)
    return mollifier_fall(t)


def exterior_mass_fraction(phi: BoundaryFunction, delta: float) -> float:
    """Norm fraction of phi surviving the complementary cutoff 1 - chi_delta.

    Computed spectrally: sqrt(sum (1-chi)^2 |c_k|^2 / sum |c_k|^2).  Zero
    when all spectral mass sits on |xi'| <= delta/2, one when it all sits
    on |xi'| >= delta.
    """
    if phi.ambient_norm == 0.0:
        raise ValueError("boundary data vanishes identically")
    xi = mode_frequencies(phi.values.size, phi.length, phi.h)
    chi = zero_section_cutoff(xi, delta)
    weights = np.abs(fourier_h(phi)) ** 2
    return math.sqrt(float(np.sum((1.0 - chi) ** 2 * weights) / np.sum(weights)))


@dataclass(frozen=True)
class ChainStep:
    """One verified inequality with its slack folded into the margin.

    ``tolerance`` is the slack the step grants (absolute on the Plancherel
    deviation, 1e-12 * rhs on the two exact spectral steps, 0 on the
    measured bound); ``margin`` is the signed distance to the pass boundary
    with that slack included, so the step passes iff ``margin >= 0`` (a NaN
    margin fails).
    """

    name: str
    tolerance: float
    margin: float

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)


@dataclass(frozen=True)
class ChainReport:
    """Four-step lower-bound verification at one (delta, epsilon): the
    measured exterior fraction, the steps, and the measured trace ratio
    against its lower bound."""

    delta: float
    epsilon: float
    exterior: float
    steps: tuple[ChainStep, ...]
    measured_ratio: float
    lower_bound: float


def verify_lower_chain(
    phi: BoundaryFunction, rho: float, delta: float, epsilon: float
) -> ChainReport:
    """Check the four-step trace lower bound at height rho.

    Steps: (i) Plancherel identity between node- and frequency-side norms;
    (ii) spectral mass restricted to |xi'| <= delta is at least
    (1 - epsilon^2) of the total; (iii) the multiplier on that band is at
    least exp(-(rho/h) sqrt(delta^2+1)); (iv) the measured trace norm beats
    half that factor times |phi|.  Preconditions (epsilon <= 1/sqrt(2) so
    the final 1/2 is justified, and measured exterior fraction <= epsilon)
    are enforced with errors naming the violated condition.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not 0.0 < epsilon <= _EPSILON_MAX:
        raise ValueError(
            f"epsilon={epsilon:g} violates the precondition "
            f"0 < epsilon <= 1/sqrt(2) ~ {_EPSILON_MAX:.6f}; the final factor "
            "1/2 requires interior mass at least half the total"
        )
    exterior = exterior_mass_fraction(phi, delta)
    if exterior > epsilon:
        raise ValueError(
            f"exterior mass fraction {exterior:.6g} exceeds the claimed "
            f"epsilon={epsilon:g}; the data does not concentrate near the "
            "zero section at this delta"
        )

    h = phi.h
    xi = mode_frequencies(phi.values.size, phi.length, h)
    spacing = 2.0 * math.pi * h / phi.length
    power = np.abs(fourier_h(phi)) ** 2
    weights = power * spacing
    total = float(np.sum(weights))

    lhs1 = math.sqrt(spacing * float(np.sum(power)))
    rhs1 = math.sqrt(2.0 * math.pi * h) * phi.ambient_norm
    dev = abs(lhs1 / rhs1 - 1.0)
    step1 = ChainStep(
        name="plancherel", tolerance=_IDENTITY_TOL, margin=_IDENTITY_TOL - dev
    )

    inside = np.abs(xi) <= delta
    lhs2 = float(np.sum(weights[inside]))
    rhs2 = (1.0 - epsilon**2) * total
    step2 = ChainStep(
        name="zero-section-mass",
        tolerance=1e-12 * rhs2,
        margin=(lhs2 - rhs2) + 1e-12 * rhs2,
    )

    floor = math.exp(-(rho / h) * math.sqrt(delta**2 + 1.0))
    lhs3 = float(np.min(poisson_multiplier(xi[inside], rho, h)))
    step3 = ChainStep(
        name="multiplier-floor",
        tolerance=1e-12 * floor,
        margin=(lhs3 - floor) + 1e-12 * floor,
    )

    trace = apply_halfplane_poisson(phi, rho)
    rhs4 = 0.5 * floor * phi.ambient_norm
    step4 = ChainStep(
        name="trace-lower-bound", tolerance=0.0, margin=trace.ambient_norm - rhs4
    )

    return ChainReport(
        delta=delta,
        epsilon=epsilon,
        exterior=exterior,
        steps=(step1, step2, step3, step4),
        measured_ratio=trace.ambient_norm / phi.ambient_norm,
        lower_bound=0.5 * floor,
    )
