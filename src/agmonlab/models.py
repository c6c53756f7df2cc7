"""Model problem catalogue: potentials, energies, geometry, and validation.

A model fixes a closed-form potential V, an energy E strictly below the
barrier on a collar of the distinguished hypersurface, a product geometry
(interval, periodic cylinder, torus, or periodic strip), and the hypersurface
itself, always the axis-aligned level set {normal coordinate = 0}.  Every
quantity a model exposes -- values, gradients, Taylor data in the normal
variable -- is closed form, so downstream constructions can be validated
against quadrature and finite-difference oracles.

Coordinate conventions
----------------------
1D geometries have a single (normal) axis.  2D geometries order axes as
(tangential, normal); the tangential axis is always a periodic circle.
Fields sampled on 2D grids are indexed ``values[tangential, normal]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.integrate import quad

__all__ = [
    "PotentialSpec",
    "ModelProblem",
    "SemiclassicalParams",
    "GEOMETRIES",
    "POTENTIAL_KINDS",
    "KNOWN_MODELS",
    "make_model",
    "eval_potential",
    "potential_grid",
    "normal_taylor_coefficients",
    "transverse_potential",
    "domain_axes",
]

GEOMETRIES = ("interval-1d", "halfplane-cylinder", "separable-torus", "strip-2d")
POTENTIAL_KINDS = (
    "constant-barrier",
    "polynomial-barrier",
    "cosine-well",
    "separable-product",
)

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
        if len(self.lengths) != len(self.periodic):
            raise ValueError("lengths and periodicity flags must align")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("axis lengths must be positive")

    @property
    def ndim(self) -> int:
        return len(self.lengths)

    def axis_bounds(self, axis: int) -> tuple[float, float]:
        """Coordinate range of one axis.

        Periodic normal axes and all tangential axes are centred circles;
        the interval-1d and cylinder normal axes start at the hypersurface.
        """
        L = self.lengths[axis]
        if self.geometry == "interval-1d":
            return (0.0, L)
        if axis == 0:  # tangential circle
            return (0.0, L)
        if self.geometry == "halfplane-cylinder":
            return (0.0, L)
        return (-L / 2.0, L / 2.0)


@dataclass(frozen=True)
class SemiclassicalParams:
    """Scale parameters for one experiment family.

    ``h`` is the semiclassical parameter, ``lam`` the frequency-cutoff scale,
    ``M`` the cutoff plateau scale, ``delta`` the zero-section cutoff width,
    ``zeta`` the plateau floor of the decay cutoff, ``rho_grid`` the levels at
    which traces are taken, and ``grid_sizes`` the per-axis resolutions.
    """

    h: float
    lam: float
    M: float
    delta: float
    zeta: float
    rho_grid: tuple[float, ...]
    grid_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.h <= 0 or self.lam <= 0 or self.M <= 0 or self.delta <= 0:
            raise ValueError("h, lam, M, delta must all be positive")
        low, high = math.exp(-self.M), math.exp(-self.M / 2.0)
        if not low < self.zeta < high:
            raise ValueError(
                f"zeta={self.zeta:g} must lie strictly inside "
                f"(exp(-M), exp(-M/2)) = ({low:g}, {high:g})"
            )
        rho = self.rho_grid
        if any(r <= 0 for r in rho) or any(b <= a for a, b in zip(rho, rho[1:])):
            raise ValueError("rho_grid must be strictly increasing and positive")
        if any(n < 16 for n in self.grid_sizes):
            raise ValueError("all grid sizes must be at least 16")

    def check_for_model(self, model: ModelProblem) -> None:
        """Verify the level grid stays inside the model's validated collar."""
        if self.rho_grid and self.rho_grid[-1] >= model.collar_width:
            raise ValueError(
                f"rho_grid reaches {self.rho_grid[-1]:g}, beyond the collar "
                f"width {model.collar_width:g} of model {model.name!r}"
            )


# --------------------------------------------------------------------------
# closed-form evaluators
# --------------------------------------------------------------------------


def _value_fn(model: ModelProblem) -> Callable[..., np.ndarray]:
    E = model.energy
    c = model.potential.coefficients
    kind = model.potential.kind
    if kind == "constant-barrier":
        return lambda *x: np.broadcast_to(E + c[0], np.broadcast(*x).shape).copy()
    if kind == "polynomial-barrier":
        return lambda x: E + (c[0] + c[1] * np.asarray(x, dtype=float)) ** 2
    if kind == "cosine-well":
        if model.ndim == 2:
            return lambda xp, xn: (
                c[0] + c[1] * np.cos(np.asarray(xn, dtype=float))
            ) + 0.0 * np.asarray(xp, dtype=float)
        return lambda x: c[0] + c[1] * np.cos(np.asarray(x, dtype=float))
    if kind == "separable-product":
        a, cc = c
        return lambda xp, xn: E + (1.0 + a * np.cos(np.asarray(xp, dtype=float))) * (
            1.0 + cc * np.asarray(xn, dtype=float) ** 2
        )
    raise AssertionError(kind)


def _gradient_fn(model: ModelProblem) -> Callable[..., tuple[np.ndarray, ...]]:
    c = model.potential.coefficients
    kind = model.potential.kind
    if kind == "constant-barrier":
        def grad(*x):
            shape = np.broadcast(*x).shape
            return tuple(np.zeros(shape) for _ in x)
        return grad
    if kind == "polynomial-barrier":
        return lambda x: (2.0 * c[1] * (c[0] + c[1] * np.asarray(x, dtype=float)),)
    if kind == "cosine-well":
        if model.ndim == 2:
            def grad2(xp, xn):
                xp = np.asarray(xp, dtype=float)
                xn = np.asarray(xn, dtype=float)
                shape = np.broadcast(xp, xn).shape
                return (np.zeros(shape), np.broadcast_to(-c[1] * np.sin(xn), shape).copy())
            return grad2
        return lambda x: (-c[1] * np.sin(np.asarray(x, dtype=float)),)
    if kind == "separable-product":
        a, cc = c
        def gradp(xp, xn):
            xp = np.asarray(xp, dtype=float)
            xn = np.asarray(xn, dtype=float)
            gp = -a * np.sin(xp) * (1.0 + cc * xn**2)
            gn = (1.0 + a * np.cos(xp)) * 2.0 * cc * xn
            shape = np.broadcast(xp, xn).shape
            return (np.broadcast_to(gp, shape).copy(), np.broadcast_to(gn, shape).copy())
        return gradp
    raise AssertionError(kind)


def potential_grid(model: ModelProblem, *axes) -> np.ndarray:
    """Vectorized V on the outer product of the given per-axis coordinates.

    For a 2D model, returns an array of shape (len(tangential), len(normal)).
    """
    fn = _value_fn(model)
    if model.ndim == 1:
        return np.asarray(fn(np.asarray(axes[0], dtype=float)), dtype=float)
    xp = np.asarray(axes[0], dtype=float)[:, None]
    xn = np.asarray(axes[1], dtype=float)[None, :]
    return np.asarray(fn(xp, xn), dtype=float)


def eval_potential(model: ModelProblem, point) -> tuple[float, np.ndarray]:
    """Closed-form value and gradient of V at one point.

    Raises ``ValueError`` if the point leaves the domain box along a
    non-periodic axis; periodic coordinates are accepted as given.
    """
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    if pt.shape != (model.ndim,):
        raise ValueError(f"expected a point with {model.ndim} coordinates")
    for axis, (x, per) in enumerate(zip(pt, model.periodic)):
        if per:
            continue
        lo, hi = model.axis_bounds(axis)
        if not lo - 1e-12 <= x <= hi + 1e-12:
            raise ValueError(
                f"coordinate {x:g} outside [{lo:g}, {hi:g}] on axis {axis}"
            )
    value = float(np.asarray(_value_fn(model)(*pt)))
    grad = np.array([float(np.asarray(g)) for g in _gradient_fn(model)(*pt)])
    return value, grad


def normal_taylor_coefficients(
    model: ModelProblem, order: int, tangential_nodes=None
) -> np.ndarray:
    """Taylor coefficients in the normal variable of the barrier V - E.

    Returns an array of shape (order+1, n_tangential) with row j holding the
    coefficient of (normal coordinate)^j at each tangential node; 1D models
    and tangentially constant barriers return n_tangential = 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    kind = model.potential.kind
    c = model.potential.coefficients
    E = model.energy
    if kind == "constant-barrier":
        out = np.zeros((order + 1, 1))
        out[0, 0] = c[0]
        return out
    if kind == "polynomial-barrier":
        out = np.zeros((order + 1, 1))
        full = [c[0] ** 2, 2.0 * c[0] * c[1], c[1] ** 2]
        for j, v in enumerate(full[: order + 1]):
            out[j, 0] = v
        return out
    if kind == "cosine-well":
        out = np.zeros((order + 1, 1))
        out[0, 0] = c[0] + c[1] - E
        for m in range(1, order // 2 + 1):
            out[2 * m, 0] = c[1] * (-1.0) ** m / math.factorial(2 * m)
        return out
    if kind == "separable-product":
        if tangential_nodes is None:
            raise ValueError("separable-product Taylor data needs tangential nodes")
        xp = np.asarray(tangential_nodes, dtype=float)
        a, cc = c
        base = 1.0 + a * np.cos(xp)
        out = np.zeros((order + 1, xp.size))
        out[0] = base
        if order >= 2:
            out[2] = cc * base
        return out
    raise AssertionError(kind)


def transverse_potential(model: ModelProblem) -> Callable[[np.ndarray], np.ndarray]:
    """The barrier profile W(normal) for models independent of the tangent.

    Raises for the periodic strip model, whose potential genuinely depends
    on the tangential variable.
    """
    kind = model.potential.kind
    if kind == "separable-product":
        raise ValueError(
            f"model {model.name!r} depends on the tangential variable; "
            "no one-dimensional transverse profile exists"
        )
    fn = _value_fn(model)
    if model.ndim == 1:
        return lambda s: np.asarray(fn(np.asarray(s, dtype=float)), dtype=float)
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
    if len(sizes) == 1 and model.ndim == 2:
        sizes = (sizes[0], sizes[0])
    if len(sizes) != model.ndim:
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


def _builder_barrier_1d(params: Mapping[str, float]):
    a = float(params.get("a", 1.0))
    length = float(params.get("length", 1.0))
    energy = float(params.get("E", 0.0))
    return dict(
        potential_kind="polynomial-barrier",
        coefficients=(1.0, a),
        energy=energy,
        geometry="interval-1d",
        lengths=(length,),
        periodic=(False,),
        params=(("E", energy), ("a", a), ("length", length)),
    )


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
    "barrier-1d": _builder_barrier_1d,
    "separable-torus": _builder_separable_torus,
    "strip-2d": _builder_strip_2d,
}


def _positive_extent(model: ModelProblem) -> float:
    """Extent of the normal axis on the positive side of the hypersurface."""
    if model.geometry == "separable-torus":
        return model.lengths[1] / 2.0
    lo, hi = model.axis_bounds(model.ndim - 1)
    return hi


def _validate_and_measure(model: ModelProblem) -> tuple[float, float, float, float]:
    """Collar validation.

    Returns (margin, collar ambient width, collar arclength width, forbidden
    extent).  The collar half-width rule: find the nearest positive normal
    coordinate where min over the tangent of V - E drops to half its value on
    the hypersurface, and take half that distance; if no such drop occurs,
    take half the available extent.  Rejects models whose hypersurface
    touches the classically allowed set.
    """
    from scipy.optimize import brentq

    extent = _positive_extent(model)
    s = np.linspace(0.0, extent, _PROBE_NORMAL)
    if model.ndim == 1:
        xp = np.zeros(1)
        barrier = potential_grid(model, s)[None, :] - model.energy

        def least_barrier(t: float) -> float:
            return float(potential_grid(model, np.array([t]))[0]) - model.energy

    else:
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
    if model.ndim == 1:
        collar_barrier = potential_grid(model, s_collar)[None, :] - model.energy
    else:
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
    width, _ = quad(
        lambda t: math.sqrt(max(least_barrier(t), 0.0)), 0.0, r0_ambient, limit=200
    )
    return margin, r0_ambient, float(width), forbidden_extent


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
