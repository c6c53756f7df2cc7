"""Model problem catalogue: potentials, energies, geometry, and validation.

A model fixes a closed-form potential V, an energy E strictly below the
barrier on a collar of the distinguished hypersurface, a 2D product geometry
(periodic cylinder, torus, or periodic strip), and the hypersurface itself,
always the axis-aligned level set {normal coordinate = 0}.  Every quantity a
model exposes -- values and Taylor data in the normal variable -- is closed
form, so downstream constructions can be validated against quadrature
oracles.

Coordinate conventions
----------------------
Every geometry orders its two axes as (tangential, normal); the tangential
axis is always a periodic circle.  Fields sampled on grids are indexed
``values[tangential, normal]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from agmonlab._numerics import brentq, gauss_legendre

__all__ = [
    "PotentialSpec",
    "ModelProblem",
    "GEOMETRIES",
    "POTENTIAL_KINDS",
    "KNOWN_MODELS",
    "make_model",
    "potential_grid",
    "normal_taylor_coefficients",
    "transverse_potential",
    "domain_axes",
]

GEOMETRIES = ("halfplane-cylinder", "separable-torus", "strip-2d")
POTENTIAL_KINDS = ("constant-barrier", "cosine-well", "separable-product")

# Probe resolution used when validating invariants at construction time.
_PROBE_NORMAL = 2049
_PROBE_TANGENTIAL = 128


@dataclass(frozen=True)
class PotentialSpec:
    """Closed-form potential with its recorded barrier margin.

    ``margin`` is the minimum of V - E over the validated collar of the
    distinguished hypersurface; construction fails unless it is positive.
    """

    kind: str
    coefficients: tuple[float, ...]
    margin: float

    def __post_init__(self) -> None:
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("potential coefficients must be finite")


@dataclass(frozen=True)
class ModelProblem:
    """A validated potential/energy/geometry triple.

    Instances are immutable and safe to share across concurrently running
    experiments.  ``collar_width`` is measured in arclength of the degenerate
    conformal metric (V - E) g (the units in which decay rates are stated);
    ``collar_width_ambient`` is the same collar measured in the ambient
    normal coordinate.
    """

    name: str
    potential: PotentialSpec
    energy: float
    geometry: str
    lengths: tuple[float, ...]
    periodic: tuple[bool, ...]
    collar_width: float
    collar_width_ambient: float
    forbidden_extent: float
    params: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if len(self.lengths) != 2 or len(self.periodic) != 2 or not self.periodic[0]:
            raise ValueError(
                f"model {self.name!r} needs exactly two axes, (tangential, "
                "normal), with a periodic tangential axis; got lengths "
                f"{self.lengths} and periodic flags {self.periodic}"
            )
        if any(L <= 0 for L in self.lengths):
            raise ValueError("axis lengths must be positive")

    def axis_bounds(self, axis: int) -> tuple[float, float]:
        """Coordinate range of one axis.

        The tangential circle starts at 0; the cylinder normal axis starts at
        the hypersurface and the other normal axes are centred on it.
        """
        L = self.lengths[axis]
        if axis == 0:  # tangential circle
            return (0.0, L)
        if self.geometry == "halfplane-cylinder":
            return (0.0, L)
        return (-L / 2.0, L / 2.0)


# --------------------------------------------------------------------------
# closed-form evaluators
# --------------------------------------------------------------------------


def _value_fn(model: ModelProblem) -> Callable[..., np.ndarray]:
    E = model.energy
    c = model.potential.coefficients
    kind = model.potential.kind
    if kind == "constant-barrier":
        return lambda *x: np.broadcast_to(E + c[0], np.broadcast(*x).shape).copy()
    if kind == "cosine-well":
        return lambda xp, xn: (
            c[0] + c[1] * np.cos(np.asarray(xn, dtype=float))
        ) + 0.0 * np.asarray(xp, dtype=float)
    if kind == "separable-product":
        a, cc = c
        return lambda xp, xn: E + (1.0 + a * np.cos(np.asarray(xp, dtype=float))) * (
            1.0 + cc * np.asarray(xn, dtype=float) ** 2
        )
    raise AssertionError(kind)


def potential_grid(model: ModelProblem, *axes) -> np.ndarray:
    """Vectorized V on the outer product of the given per-axis coordinates.

    Returns an array of shape (len(tangential), len(normal)).
    """
    xp = np.asarray(axes[0], dtype=float)[:, None]
    xn = np.asarray(axes[1], dtype=float)[None, :]
    return np.asarray(_value_fn(model)(xp, xn), dtype=float)


def _require_tangent_invariant(model: ModelProblem) -> None:
    if model.potential.kind == "separable-product":
        raise ValueError(
            f"model {model.name!r} depends on the tangential variable; "
            "no one-dimensional transverse profile or normal Taylor series exists"
        )


def normal_taylor_coefficients(model: ModelProblem, order: int) -> np.ndarray:
    """Taylor coefficients in the normal variable of the barrier V - E.

    Returns an array of shape (order+1,) with entry j holding the
    coefficient of (normal coordinate)^j.  Raises for the periodic strip
    model, whose barrier depends on the tangential variable.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    _require_tangent_invariant(model)
    c = model.potential.coefficients
    out = np.zeros(order + 1)
    if model.potential.kind == "constant-barrier":
        out[0] = c[0]
        return out
    out[0] = c[0] + c[1] - model.energy
    for m in range(1, order // 2 + 1):
        out[2 * m] = c[1] * (-1.0) ** m / math.factorial(2 * m)
    return out


def transverse_potential(model: ModelProblem) -> Callable[[np.ndarray], np.ndarray]:
    """The barrier profile W(normal) for models independent of the tangent.

    Raises for the periodic strip model, whose potential genuinely depends
    on the tangential variable.
    """
    _require_tangent_invariant(model)
    fn = _value_fn(model)
    return lambda s: np.asarray(
        fn(np.zeros_like(np.asarray(s, dtype=float)), np.asarray(s, dtype=float)),
        dtype=float,
    )


def domain_axes(model: ModelProblem, grid_sizes) -> tuple[np.ndarray, ...]:
    """Grid axes guaranteeing a node exactly on the hypersurface.

    Periodic axes carry n equispaced nodes with the endpoint omitted; bounded
    axes carry n nodes including both endpoints.  On the strip geometry the
    normal size is bumped to the next odd integer so 0 is a node.
    """
    sizes = tuple(int(n) for n in np.atleast_1d(grid_sizes))
    if len(sizes) == 1:
        sizes = (sizes[0], sizes[0])
    if len(sizes) != 2:
        raise ValueError("one grid size per axis is required")
    axes = []
    for axis, n in enumerate(sizes):
        lo, hi = model.axis_bounds(axis)
        if model.periodic[axis]:
            if n % 2:
                n += 1  # even count keeps 0 on centred periodic axes
            if lo == 0.0:
                axes.append(np.linspace(lo, hi, n, endpoint=False))
            else:
                axes.append(lo + (hi - lo) / n * np.arange(n))
        else:
            if lo < 0.0 and n % 2 == 0:
                n += 1  # odd count puts a node at 0 on centred axes
            axes.append(np.linspace(lo, hi, n))
    return tuple(axes)


# --------------------------------------------------------------------------
# catalogue and validation
# --------------------------------------------------------------------------


def _builder_halfplane_unit(params: Mapping[str, float]):
    height = float(params.get("height", 2.0))
    length = float(params.get("length", 2.0 * math.pi))
    spec = dict(
        potential_kind="constant-barrier",
        coefficients=(1.0,),
        energy=0.0,
        geometry="halfplane-cylinder",
        lengths=(length, height),
        periodic=(True, False),
        params=(("height", height), ("length", length)),
    )
    return spec


def _builder_separable_torus(params: Mapping[str, float]):
    energy = float(params.get("E", 0.5))
    return dict(
        potential_kind="cosine-well",
        coefficients=(1.0, 1.0),
        energy=energy,
        geometry="separable-torus",
        lengths=(2.0 * math.pi, 2.0 * math.pi),
        periodic=(True, True),
        params=(("E", energy),),
    )


def _builder_strip_2d(params: Mapping[str, float]):
    a = float(params.get("a", 0.2))
    c = float(params.get("c", 1.0))
    energy = float(params.get("E", 0.0))
    half_width = float(params.get("half_width", 0.8))
    return dict(
        potential_kind="separable-product",
        coefficients=(a, c),
        energy=energy,
        geometry="strip-2d",
        lengths=(2.0 * math.pi, 2.0 * half_width),
        periodic=(True, False),
        params=(("E", energy), ("a", a), ("c", c), ("half_width", half_width)),
    )


KNOWN_MODELS: dict[str, Callable[[Mapping[str, float]], dict]] = {
    "halfplane-unit": _builder_halfplane_unit,
    "separable-torus": _builder_separable_torus,
    "strip-2d": _builder_strip_2d,
}


def _positive_extent(model: ModelProblem) -> float:
    """Extent of the normal axis on the positive side of the hypersurface."""
    if model.geometry == "separable-torus":
        return model.lengths[1] / 2.0
    return model.axis_bounds(1)[1]


def _validate_and_measure(model: ModelProblem) -> tuple[float, float, float, float]:
    """Collar validation.

    Returns (margin, collar ambient width, collar arclength width, forbidden
    extent).  The collar half-width rule: find the nearest positive normal
    coordinate where min over the tangent of V - E drops to half its value on
    the hypersurface, and take half that distance; if no such drop occurs,
    take half the available extent.  Rejects models whose hypersurface
    touches the classically allowed set.
    """
    extent = _positive_extent(model)
    s = np.linspace(0.0, extent, _PROBE_NORMAL)
    xp = np.linspace(0.0, model.lengths[0], _PROBE_TANGENTIAL, endpoint=False)
    barrier = potential_grid(model, xp, s) - model.energy

    def least_barrier(t: float) -> float:
        vals = potential_grid(model, xp, np.array([t]))[:, 0]
        return float(vals.min()) - model.energy

    on_surface = barrier[:, 0]
    if on_surface.min() <= 0.0:
        j = int(np.argmin(on_surface))
        raise ValueError(
            f"model {model.name!r}: barrier V - E is {on_surface[j]:.3g} <= 0 "
            f"on the hypersurface at tangential coordinate {xp[j]:.6g}"
        )
    m_surface = float(on_surface.min())

    def first_crossing(threshold: float) -> float | None:
        """Smallest s > 0 with least_barrier(s) <= threshold, or None."""
        profile = barrier.min(axis=0)
        below = np.nonzero(profile <= threshold)[0]
        if not below.size:
            return None
        i = int(below[0])
        if i == 0:
            return 0.0
        return float(
            brentq(lambda t: least_barrier(t) - threshold, s[i - 1], s[i], xtol=1e-12)
        )

    half_drop = first_crossing(m_surface / 2.0)
    r0_ambient = extent / 2.0 if half_drop is None else half_drop / 2.0

    zero_crossing = first_crossing(0.0)
    forbidden_extent = extent if zero_crossing is None else zero_crossing

    s_collar = np.linspace(0.0, r0_ambient, _PROBE_NORMAL)
    collar_barrier = potential_grid(model, xp, s_collar) - model.energy
    margin = float(collar_barrier.min())
    if margin <= 0.0:
        i, j = np.unravel_index(np.argmin(collar_barrier), collar_barrier.shape)
        raise ValueError(
            f"model {model.name!r}: V - E is {margin:.3g} <= 0 inside the "
            f"collar at (tangential={xp[i]:.6g}, normal={s_collar[j]:.6g})"
        )

    # collar width in arclength of the weighted metric, measured along the
    # normal direction at the tangentially least favourable position
    t, w = gauss_legendre(0.0, r0_ambient)
    least = potential_grid(model, xp, t).min(axis=0) - model.energy
    width = float(w @ np.sqrt(np.maximum(least, 0.0)))
    return margin, r0_ambient, width, forbidden_extent


def make_model(name: str, params: Mapping[str, float] | None = None) -> ModelProblem:
    """Build and eagerly validate a catalogue model.

    Raises ``ValueError`` for unknown names and for parameter choices that
    break the barrier positivity required on the collar, reporting the
    offending grid point.
    """
    if name not in KNOWN_MODELS:
        known = ", ".join(sorted(KNOWN_MODELS))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    spec = KNOWN_MODELS[name](params or {})
    provisional = ModelProblem(
        name=name,
        potential=PotentialSpec(
            kind=spec["potential_kind"],
            coefficients=spec["coefficients"],
            margin=float("nan"),
        ),
        energy=spec["energy"],
        geometry=spec["geometry"],
        lengths=spec["lengths"],
        periodic=spec["periodic"],
        collar_width=float("nan"),
        collar_width_ambient=float("nan"),
        forbidden_extent=float("nan"),
        params=spec["params"],
    )
    margin, r0_ambient, r0, forbidden = _validate_and_measure(provisional)
    return ModelProblem(
        name=name,
        potential=PotentialSpec(
            kind=spec["potential_kind"],
            coefficients=spec["coefficients"],
            margin=margin,
        ),
        energy=spec["energy"],
        geometry=spec["geometry"],
        lengths=spec["lengths"],
        periodic=spec["periodic"],
        collar_width=r0,
        collar_width_ambient=r0_ambient,
        forbidden_extent=forbidden,
        params=spec["params"],
    )
