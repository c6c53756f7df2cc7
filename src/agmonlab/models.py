"""Model problem catalogue: potentials, energies, domains, and validation.

A model fixes a closed-form potential V, an energy E strictly below the
barrier on a collar of the distinguished hypersurface, a 2D product domain
(periodic cylinder, torus, or periodic strip), and the hypersurface itself,
always the axis-aligned level set {normal coordinate = 0}.  Each model is
one entry of ``KNOWN_MODELS``: the builder of its parameters, energy,
lengths and periodic flags, its closed-form V, and its Taylor data in the
normal variable, which it has exactly when V does not depend on the
tangent.  Other modules ask this one what a model is and derive nothing
themselves.  Every quantity a model exposes is closed form, so downstream
constructions can be validated against quadrature oracles.

Coordinate conventions
----------------------
Every model orders its two axes as (tangential, normal); the tangential
axis is always a periodic circle.  Fields sampled on grids are indexed
``values[tangential, normal]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from agmonlab._numerics import brentq, gauss_legendre

__all__ = [
    "ModelProblem",
    "KNOWN_MODELS",
    "TANGENT_INVARIANT_MODELS",
    "make_model",
    "weighted_depth",
    "potential_at",
    "potential_grid",
    "normal_taylor_coefficients",
    "transverse_potential",
    "domain_axes",
]

# Probe resolution used when validating invariants at construction time.
_PROBE_NORMAL = 2049
_PROBE_TANGENTIAL = 128


@dataclass(frozen=True)
class ModelProblem:
    """A validated catalogue model: its potential, energy and domain.

    Instances are immutable and safe to share across concurrently running
    experiments.  V - E is positive on the validated collar of the
    distinguished hypersurface; ``collar_width`` is measured in arclength
    of the degenerate conformal metric (V - E) g (the units in which decay
    rates are stated); ``collar_width_ambient`` is the same collar measured
    in the ambient normal coordinate.
    """

    name: str
    energy: float
    lengths: tuple[float, ...]
    periodic: tuple[bool, ...]
    collar_width: float
    collar_width_ambient: float
    forbidden_extent: float
    params: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        _entry(self.name)
        if len(self.lengths) != 2 or len(self.periodic) != 2 or not self.periodic[0]:
            raise ValueError(
                f"model {self.name!r} needs exactly two axes, (tangential, "
                "normal), with a periodic tangential axis; got lengths "
                f"{self.lengths} and periodic flags {self.periodic}"
            )
        if any(L <= 0 for L in self.lengths):
            raise ValueError("axis lengths must be positive")
        if not all(math.isfinite(value) for _, value in self.params):
            raise ValueError("model parameters must be finite")

    def axis_bounds(self, axis: int) -> tuple[float, float]:
        """Coordinate range of one axis.

        The tangential circle starts at 0; a one-sided normal axis starts at
        the hypersurface and the other normal axes are centred on it.
        """
        L = self.lengths[axis]
        if axis == 0 or KNOWN_MODELS[self.name].one_sided:
            return (0.0, L)
        return (-L / 2.0, L / 2.0)


# --------------------------------------------------------------------------
# closed-form evaluators
# --------------------------------------------------------------------------


def potential_at(model: ModelProblem, xp, xn) -> np.ndarray:
    """Closed-form V at the points (tangential xp, normal xn), broadcast
    against each other."""
    value = KNOWN_MODELS[model.name].value
    xp = np.asarray(xp, dtype=float)
    xn = np.asarray(xn, dtype=float)
    return np.asarray(value(dict(model.params), model.energy, xp, xn), dtype=float)


def potential_grid(model: ModelProblem, tangential, normal) -> np.ndarray:
    """V on the outer product of the tangential and normal coordinates.

    Returns an array of shape (len(tangential), len(normal)).
    """
    xp = np.asarray(tangential, dtype=float)[:, None]
    return potential_at(model, xp, np.asarray(normal, dtype=float)[None, :])


def _normal_taylor(model: ModelProblem) -> Callable[..., np.ndarray]:
    """The model's normal Taylor data; raises when V depends on the tangent."""
    taylor = KNOWN_MODELS[model.name].taylor
    if taylor is None:
        raise ValueError(
            f"model {model.name!r} depends on the tangential variable; "
            "no one-dimensional transverse profile or normal Taylor series exists"
        )
    return taylor


def normal_taylor_coefficients(model: ModelProblem, order: int) -> np.ndarray:
    """Taylor coefficients in the normal variable of the barrier V - E.

    Returns an array of shape (order+1,) with entry j holding the
    coefficient of (normal coordinate)^j.  Raises for a model whose barrier
    depends on the tangential variable.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _normal_taylor(model)(dict(model.params), model.energy, order)


def transverse_potential(model: ModelProblem) -> Callable[[np.ndarray], np.ndarray]:
    """The barrier profile W(normal) for models independent of the tangent.

    Raises for a model whose potential genuinely depends on the tangential
    variable.
    """
    _normal_taylor(model)
    return lambda s: potential_at(model, np.zeros(np.shape(s)), s)


def domain_axes(model: ModelProblem, grid_sizes) -> tuple[np.ndarray, ...]:
    """Grid axes guaranteeing a node exactly on the hypersurface.

    Periodic axes carry n equispaced nodes with the endpoint omitted; bounded
    axes carry n nodes including both endpoints.  On a centred bounded
    normal axis the size is bumped to the next odd integer so 0 is a node.
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


@dataclass(frozen=True)
class _Entry:
    """One catalogue model.

    ``build`` maps the user's parameters to the model's ``energy``,
    ``lengths``, ``periodic`` flags and recorded ``params``.  ``value(p, E,
    xp, xn)`` is the closed-form V at broadcast points, reading the recorded
    params ``p``.  ``taylor(p, E, order)`` gives the normal Taylor
    coefficients of V - E; it is None exactly when V depends on the tangent.
    A ``one_sided`` normal axis starts on the hypersurface instead of being
    centred on it.
    """

    build: Callable[[Mapping[str, float]], dict]
    value: Callable[..., np.ndarray]
    taylor: Callable[[Mapping[str, float], float, int], np.ndarray] | None
    one_sided: bool = False


def _build_halfplane_unit(params: Mapping[str, float]) -> dict:
    height = float(params.get("height", 2.0))
    length = float(params.get("length", 2.0 * math.pi))
    return dict(
        energy=0.0,
        lengths=(length, height),
        periodic=(True, False),
        params=(("height", height), ("length", length)),
    )


def _halfplane_taylor(p: Mapping[str, float], E: float, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    out[0] = 1.0
    return out


def _build_separable_torus(params: Mapping[str, float]) -> dict:
    energy = float(params.get("E", 0.5))
    return dict(
        energy=energy,
        lengths=(2.0 * math.pi, 2.0 * math.pi),
        periodic=(True, True),
        params=(("E", energy),),
    )


def _torus_taylor(p: Mapping[str, float], E: float, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    out[0] = 2.0 - E
    for m in range(1, order // 2 + 1):
        out[2 * m] = (-1.0) ** m / math.factorial(2 * m)
    return out


def _build_strip_2d(params: Mapping[str, float]) -> dict:
    a = float(params.get("a", 0.2))
    c = float(params.get("c", 1.0))
    energy = float(params.get("E", 0.0))
    half_width = float(params.get("half_width", 0.8))
    return dict(
        energy=energy,
        lengths=(2.0 * math.pi, 2.0 * half_width),
        periodic=(True, False),
        params=(("E", energy), ("a", a), ("c", c), ("half_width", half_width)),
    )


KNOWN_MODELS: dict[str, _Entry] = {
    # V = E + 1: a flat barrier over a one-sided cylinder collar
    "halfplane-unit": _Entry(
        build=_build_halfplane_unit,
        value=lambda p, E, xp, xn: np.broadcast_to(
            E + 1.0, np.broadcast(xp, xn).shape
        ).copy(),
        taylor=_halfplane_taylor,
        one_sided=True,
    ),
    # V = 1 + cos(xn): a cosine well across the torus
    "separable-torus": _Entry(
        build=_build_separable_torus,
        value=lambda p, E, xp, xn: (1.0 + np.cos(xn)) + 0.0 * xp,
        taylor=_torus_taylor,
    ),
    # V = E + (1 + a cos xp)(1 + c xn^2): a product barrier on a periodic strip
    "strip-2d": _Entry(
        build=_build_strip_2d,
        value=lambda p, E, xp, xn: E
        + (1.0 + p["a"] * np.cos(xp)) * (1.0 + p["c"] * xn**2),
        taylor=None,
    ),
}

# The models whose potential does not depend on the tangent: the only ones
# with a transverse profile, normal Taylor data and a collar phase series.
TANGENT_INVARIANT_MODELS = tuple(
    name for name, entry in KNOWN_MODELS.items() if entry.taylor is not None
)


def _entry(name: str) -> _Entry:
    if name not in KNOWN_MODELS:
        known = ", ".join(sorted(KNOWN_MODELS))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    return KNOWN_MODELS[name]


def _validate_and_measure(model: ModelProblem) -> tuple[float, float, float]:
    """Collar validation.

    Returns (collar ambient width, collar arclength width, forbidden
    extent).  The collar half-width rule: find the nearest positive normal
    coordinate where min over the tangent of V - E drops to half its value on
    the hypersurface, and take half that distance; if no such drop occurs,
    take half the available extent.  Rejects models whose hypersurface
    touches the classically allowed set.  A model with Taylor data does not
    depend on the tangent, so one tangential column of the probe is all of
    them.
    """
    extent = model.axis_bounds(1)[1]
    s = np.linspace(0.0, extent, _PROBE_NORMAL)
    xp = _tangential_probe(model)
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

    measured = replace(model, forbidden_extent=forbidden_extent)
    return r0_ambient, weighted_depth(measured, r0_ambient), forbidden_extent


def _tangential_probe(model: ModelProblem) -> np.ndarray:
    """The tangential columns of the validation probe: _PROBE_TANGENTIAL
    uniform ones, or only the first on a model with Taylor data, whose V
    does not depend on the tangent, so that every column is the first."""
    xp = np.linspace(0.0, model.lengths[0], _PROBE_TANGENTIAL, endpoint=False)
    return xp[:1] if _entry(model.name).taylor is not None else xp


def weighted_depth(model: ModelProblem, depth: float) -> float:
    """Arclength of the weighted metric (V - E) g from the hypersurface to
    the normal coordinate ``depth`` at the least favourable tangential
    position: sqrt(least V - E) over the tangential validation probe (one
    column when V does not depend on the tangent), a negative barrier
    counting as zero, integrated in u = sqrt(edge - t) with
    edge = ``forbidden_extent`` by the 32-point Gauss-Legendre rule.
    ``depth`` must lie in [0, end of the normal range] (with the 1e-12
    slack a far closure is allowed) and is clamped to the edge: a zero of
    V - E inside the range, past which the barrier adds nothing, or the
    range's end.  The substitution turns the square-root edge of
    sqrt(V - E) at the forbidden edge into a smooth integrand, so the rule
    stays within 1e-15 of the integral all the way to the edge.  It gives
    ``collar_width``, the depth of a far Dirichlet closure (a lower bound
    on every column's) and the weighted depth of the separable level
    sets."""
    end = model.axis_bounds(1)[1]
    if not 0.0 <= depth <= end + 1e-12:
        raise ValueError(f"depth {depth:g} outside the normal range [0, {end:g}]")
    xp = _tangential_probe(model)
    edge = model.forbidden_extent
    depth = min(depth, edge)
    root = math.sqrt(edge)
    # g = root - u runs over [0, root - sqrt(edge - depth)], written without
    # cancellation; t = edge - u^2 = g (root + u)
    g, w = gauss_legendre(0.0, depth / (root + math.sqrt(edge - depth)))
    u = root - g
    least = potential_grid(model, xp, g * (root + u)).min(axis=0) - model.energy
    return float((2.0 * u * w) @ np.sqrt(np.maximum(least, 0.0)))


def make_model(name: str, params: Mapping[str, float] | None = None) -> ModelProblem:
    """Build and eagerly validate a catalogue model.

    Raises ``ValueError`` for unknown names and for parameter choices that
    break the barrier positivity required on the collar, reporting the
    offending grid point.
    """
    unmeasured = float("nan")
    provisional = ModelProblem(
        name=name,
        collar_width=unmeasured,
        collar_width_ambient=unmeasured,
        forbidden_extent=unmeasured,
        **_entry(name).build(params or {}),
    )
    r0_ambient, r0, forbidden = _validate_and_measure(provisional)
    return replace(
        provisional,
        collar_width=r0,
        collar_width_ambient=r0_ambient,
        forbidden_extent=forbidden,
    )
