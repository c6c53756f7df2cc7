"""Exact Poisson model on the flat half-plane cylinder.

With a constant unit barrier above a circle of length L, the decaying
solution of (-h^2 Laplace + 1)u = 0 with boundary data phi is diagonal in
the semiclassical Fourier basis: each mode is damped by
exp(-(rho/h) sqrt(xi'^2 + 1)) at height rho.  Frequencies are discrete, so
every inequality in the lower-bound chain can be checked mode-pointwise
with no quadrature error.  This module houses the transform pair, the
multiplier, the zero-section concentration measurement, and the
four-step chain culminating in

    |trace at rho| >= (1/2) exp(-(rho/h) sqrt(delta^2 + 1)) |phi|

for data whose spectral mass fraction outside the zero-section cutoff is
at most 1/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from agmonlab._smooth import mollifier_fall

__all__ = [
    "BoundaryFunction",
    "Spectrum",
    "ChainStep",
    "ChainReport",
    "make_boundary_function",
    "fourier_h",
    "inverse_fourier_h",
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

    N must be a power of two (the transform pair is an FFT).  ``norm`` is
    the discrete L^2 norm with line element L/N, frozen at construction.
    """

    values: np.ndarray
    length: float
    h: float
    norm: float = field(init=False)

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
        norm = math.sqrt(self.length / n * float(np.sum(np.abs(values) ** 2)))
        object.__setattr__(self, "norm", norm)

    @property
    def nodes(self) -> np.ndarray:
        n = self.values.size
        return self.length / n * np.arange(n)


@dataclass(frozen=True)
class Spectrum:
    """Semiclassical Fourier coefficients on modes k = -N/2 .. N/2 - 1.

    Mode k carries frequency xi'_k = h * 2 pi k / L with spectral line
    element 2 pi h / L; ``norm`` is the frequency-side L^2 norm, equal to
    sqrt(2 pi h) times the node-side norm (Plancherel).
    """

    coefficients: np.ndarray
    length: float
    h: float
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        _check_scales(self.length, self.h)
        coeff = np.ascontiguousarray(self.coefficients, dtype=complex)
        n = coeff.size
        if n < 2 or n & (n - 1):
            raise ValueError(f"mode count {n} is not a power of two")
        if not np.all(np.isfinite(coeff)):
            raise ValueError("coefficients must be finite")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        norm = math.sqrt(self.spacing * float(np.sum(np.abs(coeff) ** 2)))
        object.__setattr__(self, "norm", norm)

    @property
    def modes(self) -> np.ndarray:
        n = self.coefficients.size
        return np.arange(-(n // 2), n // 2)

    @property
    def frequencies(self) -> np.ndarray:
        return self.h * 2.0 * math.pi * self.modes / self.length

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi * self.h / self.length


def make_boundary_function(fn, n: int, length: float, h: float) -> BoundaryFunction:
    """Sample a callable on the N uniform circle nodes."""
    nodes = length / n * np.arange(n)
    return BoundaryFunction(values=np.asarray(fn(nodes)), length=length, h=h)


def fourier_h(u: BoundaryFunction) -> Spectrum:
    """Semiclassical Fourier transform as a weighted DFT.

    Coefficient k approximates integral of exp(-i x xi'_k / h) u(x) dx over
    the circle; with xi'_k = h 2 pi k / L the phases are exactly the DFT
    phases, so the quadrature is exact on band-limited data.
    """
    n = u.values.size
    coeff = u.length / n * np.fft.fftshift(np.fft.fft(u.values))
    return Spectrum(coefficients=coeff, length=u.length, h=u.h)


def inverse_fourier_h(spec: Spectrum) -> BoundaryFunction:
    """Inverse transform; a two-sided identity with :func:`fourier_h`."""
    n = spec.coefficients.size
    values = n / spec.length * np.fft.ifft(np.fft.ifftshift(spec.coefficients))
    return BoundaryFunction(values=values, length=spec.length, h=spec.h)


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
    spec = fourier_h(phi)
    damped = spec.coefficients * poisson_multiplier(spec.frequencies, rho, phi.h)
    return inverse_fourier_h(
        Spectrum(coefficients=damped, length=phi.length, h=phi.h)
    )


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
    if phi.norm == 0.0:
        raise ValueError("boundary data vanishes identically")
    spec = fourier_h(phi)
    chi = zero_section_cutoff(spec.frequencies, delta)
    weights = np.abs(spec.coefficients) ** 2
    return math.sqrt(float(np.sum((1.0 - chi) ** 2 * weights) / np.sum(weights)))


@dataclass(frozen=True)
class ChainStep:
    """One verified inequality: pass iff margin >= 0."""

    name: str
    claim: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    """Four-step lower-bound verification at one (h, rho, delta, epsilon)."""

    h: float
    rho: float
    delta: float
    epsilon: float
    exterior: float
    steps: tuple[ChainStep, ...]
    measured_ratio: float
    lower_bound: float

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


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
    spec = fourier_h(phi)
    weights = np.abs(spec.coefficients) ** 2 * spec.spacing
    total = float(np.sum(weights))

    lhs1, rhs1 = spec.norm, math.sqrt(2.0 * math.pi * h) * phi.norm
    dev = abs(lhs1 / rhs1 - 1.0)
    step1 = ChainStep(
        name="plancherel",
        claim="frequency-side norm equals sqrt(2 pi h) times node-side norm",
        lhs=lhs1,
        rhs=rhs1,
        margin=_IDENTITY_TOL - dev,
        passed=dev <= _IDENTITY_TOL,
    )

    inside = np.abs(spec.frequencies) <= delta
    lhs2 = float(np.sum(weights[inside]))
    rhs2 = (1.0 - epsilon**2) * total
    step2 = ChainStep(
        name="zero-section-mass",
        claim="mass on |xi'| <= delta is at least (1 - epsilon^2) of total",
        lhs=lhs2,
        rhs=rhs2,
        margin=lhs2 - rhs2,
        passed=lhs2 >= rhs2 * (1.0 - 1e-12),
    )

    floor = math.exp(-(rho / h) * math.sqrt(delta**2 + 1.0))
    lhs3 = float(np.min(poisson_multiplier(spec.frequencies[inside], rho, h)))
    step3 = ChainStep(
        name="multiplier-floor",
        claim="damping on the band is at least exp(-(rho/h) sqrt(delta^2+1))",
        lhs=lhs3,
        rhs=floor,
        margin=lhs3 - floor,
        passed=lhs3 >= floor * (1.0 - 1e-12),
    )

    trace = apply_halfplane_poisson(phi, rho)
    rhs4 = 0.5 * floor * phi.norm
    step4 = ChainStep(
        name="trace-lower-bound",
        claim="trace norm at rho is at least (1/2) exp(-(rho/h) "
        "sqrt(delta^2+1)) times the data norm",
        lhs=trace.norm,
        rhs=rhs4,
        margin=trace.norm - rhs4,
        passed=trace.norm >= rhs4,
    )

    return ChainReport(
        h=h,
        rho=rho,
        delta=delta,
        epsilon=epsilon,
        exterior=exterior,
        steps=(step1, step2, step3, step4),
        measured_ratio=trace.norm / phi.norm,
        lower_bound=0.5 * floor,
    )
