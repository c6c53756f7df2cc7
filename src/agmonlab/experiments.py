"""Config-driven experiment sweeps with machine-readable verdict reports.

Seven experiment kinds map the package modules onto reproducible runs:

* ``halfplane-chain``      -- four-step trace lower bound over (h, rho)
* ``decay-sandwich``       -- fitted decay slope of gauge-normalized traces
* ``exterior-mass``        -- spectral-window mass of mode traces over lambda
* ``phase-residual``       -- truncated phase series against its equation
* ``symbol-class``         -- derivative-sup growth of the frequency cutoff
* ``mass-profile``         -- windowed-mass growth against the comparison ODE
* ``parametrix-consistency`` -- phase parametrix against the discrete solver

A kind is defined by its one ``_KindSpec`` entry in ``_KINDS``: its runner,
CSV columns, row flattener, plot builder, the geometries it supports (with
the grid sizes each needs), its sweep-length minimums, its least node
counts and the limits its grid and depths must keep.  The generic code
below only reads that entry, so adding a kind means adding one entry.  A
config that breaks a kind's static limits is rejected by ``parse_config``;
any other module error, in a runner's set-up or at a sweep point, surfaces
as an ``ExperimentError``.

Each run emits one CSV per sweep, one JSON summary carrying every verdict
with its tolerance and measured margin, and one SVG plot.  All outputs are
deterministic: identical configurations produce byte-identical files, and
concurrent sweep execution merges records in submission order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
import scipy
from scipy.optimize import isotonic_regression

from agmonlab import __version__
from agmonlab._svg import Series, render_plot
from agmonlab.agmon import separable_collar, separable_level_set
from agmonlab.fcalc import (
    exterior_mass,
    mass_profile_comparison,
    surface_trace_of_mode,
)
from agmonlab.halfplane import (
    apply_halfplane_poisson,
    make_boundary_function,
    verify_lower_chain,
)
from agmonlab.hjphase import (
    apply_poisson_parametrix,
    evaluate_phase,
    mode_frequencies,
    phase_residual,
    solve_phase_series,
)
from agmonlab.models import (
    GEOMETRIES,
    KNOWN_MODELS,
    ModelProblem,
    make_model,
    potential_grid,
)
from agmonlab.quantize import build_cutoff_profile, build_phase_cutoff, symbol_class_check
from agmonlab.solver import (
    _MIN_NODES,
    _check_far_boundary,
    assemble_separable_mode,
    decay_fit,
    poisson_bvp,
    solve_transverse_modes,
    trace_at,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentResult",
    "ReportRecord",
    "Verdict",
    "emit_plots",
    "load_config",
    "parse_config",
    "run_experiment",
]

_CONFIG_KEYS = (
    "kind",
    "model",
    "params",
    "h_sweep",
    "rho_grid",
    "lambda_sweep",
    "M",
    "delta",
    "grid",
    "out",
    "seed",
)

# Interior-mass hypothesis strength for the chain experiment: the boundary
# data must keep its measured exterior fraction below this value, and the
# final 1/2 factor needs it at most 1/sqrt(2).
_CHAIN_EPSILON = 0.1
# Truncation order of the phase series built by the runners.
_PHASE_ORDER = 4
# The parametrix comparison needs a deeper truncation: its oracle error is
# O(h) only once the phase truncation term (~ depth^(order+2) / h) is
# negligible across the whole h sweep.
_PARAMETRIX_ORDER = 8
# Frequency half-width for phase-residual sampling (inside the metric
# Taylor convergence region of every shipped tangentially invariant model).
_XI_MAX = 0.75
# Far-boundary closures for the discrete extension solves, certified by the
# solver's contamination guard for the shipped periodic-torus geometry.
_DECAY_FAR = 1.9
_PARAMETRIX_FAR = 1.0
# The parametrix comparison depth, in normal-grid steps: node-aligned (no
# oracle interpolation error) and small, since the parametrix carries the
# leading amplitude only, so at depth s it has an h-independent error term
# that vanishes as s -> 0, and the O(h) behaviour is visible only below it.
# parse_config checks that the depth lies inside the collar.
_PARAMETRIX_DEPTH_STEPS = 80
# Tangential mode family for the exterior-mass sweep: low even-symmetry
# modes whose trace frequencies sit below every spectral window.
_EXTERIOR_MODES = (0, 1, 2, 3)
# Relative mass fractions below this are eigendecomposition roundoff of an
# exact zero (all spectral weight sits where the window cutoff vanishes)
# and are reported as zero in the sweep statistic.
_MASS_NOISE_FLOOR = 1e-12
# Target position inside the window band (1, 2) for mass-profile modes.
_WINDOW_TARGET = 1.3
# Version of every per-kind CSV table, echoed in the JSON summary.
_CSV_SCHEMA_VERSION = 1
# Least node counts of the separable-torus mode kinds' grid entries: the
# transverse eigensolve's minimum grid and the four nodes a level circle
# needs for its trace.
_TRANSVERSE_NODES = (_MIN_NODES, "transverse nodes")
_LEVEL_CIRCLE_NODES = (4, "tangential nodes")

_T = TypeVar("_T")


# --------------------------------------------------------------------------
# report and config types
# --------------------------------------------------------------------------


class ConfigError(ValueError):
    """Invalid experiment configuration, reported field by field."""

    def __init__(self, field_errors: Mapping[str, str]):
        self.field_errors = dict(field_errors)
        lines = "; ".join(f"{k}: {v}" for k, v in sorted(self.field_errors.items()))
        super().__init__(f"invalid configuration: {lines}")


class ExperimentError(RuntimeError):
    """A module error while evaluating one sweep point."""

    def __init__(self, kind: str, key: tuple, cause: BaseException):
        self.kind = kind
        self.key = key
        super().__init__(f"{kind} failed at key {key!r}: {cause}")


@dataclass(frozen=True)
class Verdict:
    """One pass/fail check with its tolerance and measured margin.

    Convention: ``margin`` is the signed distance to the pass boundary
    with the slack already folded in, so ``passed == (margin >= 0)`` up to
    float rounding at the exact boundary; ``tolerance`` records the slack
    (or threshold) that was granted.
    """

    name: str
    passed: bool
    tolerance: float
    margin: float


@dataclass(frozen=True)
class ReportRecord:
    """Measured values and verdicts for one input key tuple."""

    kind: str
    key: tuple
    measured: Mapping[str, object]
    verdicts: tuple[Verdict, ...]
    provenance: Mapping[str, object]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment kind with its sweeps, sizes, and output location."""

    kind: str
    model: str
    params: tuple[tuple[str, float], ...]
    h_sweep: tuple[float, ...]
    rho_grid: tuple[float, ...]
    lambda_sweep: tuple[float, ...]
    m_constant: float
    delta: float
    grid: tuple[int, ...]
    out_dir: Path
    seed: int

    def build_model(self) -> ModelProblem:
        return make_model(self.model, dict(self.params))


@dataclass(frozen=True)
class ExperimentResult:
    """Records plus the files one run produced."""

    config: ExperimentConfig
    records: tuple[ReportRecord, ...]
    csv_path: Path
    summary_path: Path
    plot_paths: tuple[Path, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


_Plot = tuple[list[Series], str, str, bool, bool]
_LimitsCheck = Callable[
    [ModelProblem, tuple[int, ...], Mapping[str, tuple[float, ...]]], Mapping[str, str]
]


@dataclass(frozen=True)
class _KindSpec:
    """Everything the generic config, run and report code knows of a kind.

    ``geometries`` maps each supported model geometry to the number of
    ``grid`` entries the kind needs there; ``minimums`` maps a sweep key to
    the least number of distinct values it must hold and what they are;
    ``grid_minimums`` holds the least value of each leading ``grid`` entry
    and what that entry counts; ``limits_check`` maps each config key whose
    values the kind cannot reach on a given model to what is wrong with
    it.  It is given the grid only when the grid is otherwise valid (else
    an empty tuple) and the sweeps by key (empty when invalid).
    """

    run: Callable[[ExperimentConfig, int], list[ReportRecord]]
    columns: tuple[str, ...]
    rows: Callable[[Sequence[ReportRecord]], Iterator[tuple]]
    plot: Callable[[Sequence[ReportRecord]], _Plot]
    geometries: Mapping[str, int]
    minimums: Mapping[str, tuple[int, str]] = field(default_factory=dict)
    grid_minimums: tuple[tuple[int, str], ...] = ()
    limits_check: _LimitsCheck | None = None


# --------------------------------------------------------------------------
# configuration parsing
# --------------------------------------------------------------------------


def load_config(path) -> Mapping:
    """Read a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError({"config": f"cannot read {path}: {exc}"}) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError({"config": f"{path} is not valid JSON: {exc}"}) from exc
    if not isinstance(payload, Mapping):
        raise ConfigError({"config": "top-level JSON value must be an object"})
    return payload


def _float_tuple(raw, name, errors, *, distinct=False) -> tuple[float, ...]:
    if raw is None:
        errors[name] = "required key is missing"
        return ()
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        errors[name] = "must be a nonempty list of numbers"
        return ()
    values = []
    for item in raw:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            errors[name] = f"entry {item!r} is not a number"
            return ()
        if not float(item) > 0.0:
            errors[name] = f"entry {item!r} is not positive"
            return ()
        values.append(float(item))
    if distinct and len(set(values)) != len(values):
        errors[name] = "values must be distinct"
        return ()
    return tuple(values)


def _unsupported_model(kind: str, spec: _KindSpec, model: str, geometry: str) -> str:
    models = [
        name
        for name, build in KNOWN_MODELS.items()
        if build({})["geometry"] in spec.geometries
    ]
    return (
        f"{kind} does not run on {model!r} ({geometry} geometry); it supports "
        f"models {', '.join(models)} (geometries {', '.join(spec.geometries)}): "
        f"set model to one of them or drop {kind} from kind"
    )


def parse_config(
    payload: Mapping, *, out_dir=None, seed: int | None = None
) -> tuple[ExperimentConfig, ...]:
    """Validate a configuration mapping into per-kind configs.

    Every violated field is reported (collected into one ConfigError), not
    just the first.  ``out_dir`` and ``seed`` override the corresponding
    config keys when given.
    """
    errors: dict[str, str] = {}
    for key in payload:
        if key not in _CONFIG_KEYS:
            errors[str(key)] = "unknown configuration key"

    raw_kind = payload.get("kind")
    if isinstance(raw_kind, str):
        kinds = (raw_kind,)
    elif isinstance(raw_kind, (list, tuple)) and raw_kind:
        kinds = tuple(raw_kind)
    else:
        kinds = ()
        errors["kind"] = "must be an experiment kind or nonempty list of kinds"
    for kind in kinds:
        if kind not in EXPERIMENT_KINDS:
            errors["kind"] = (
                f"unknown kind {kind!r}; expected one of {', '.join(EXPERIMENT_KINDS)}"
            )

    model = payload.get("model")
    params_raw = payload.get("params", {})
    params: tuple[tuple[str, float], ...] = ()
    if not isinstance(model, str):
        errors["model"] = "must be a model name string"
    if not isinstance(params_raw, Mapping):
        errors["params"] = "must be an object of numeric model parameters"
    else:
        try:
            params = tuple(
                (str(k), float(params_raw[k])) for k in sorted(params_raw)
            )
        except (TypeError, ValueError):
            errors["params"] = "parameter values must be numbers"
    built = None
    if isinstance(model, str) and "model" not in errors:
        try:
            built = make_model(model, dict(params))
        except ValueError as exc:
            errors["model"] = str(exc)
    geometry = built.geometry if built is not None else None

    h_sweep = _float_tuple(payload.get("h_sweep"), "h_sweep", errors, distinct=True)
    rho_grid = _float_tuple(payload.get("rho_grid"), "rho_grid", errors)
    lambda_sweep = _float_tuple(payload.get("lambda_sweep"), "lambda_sweep", errors)

    m_raw = payload.get("M", 8.0)
    m_constant = 0.0
    if not isinstance(m_raw, (int, float)) or isinstance(m_raw, bool) or m_raw <= 0:
        errors["M"] = "must be a positive number"
    else:
        m_constant = float(m_raw)
    delta_raw = payload.get("delta", 0.5)
    delta = 0.0
    if (
        not isinstance(delta_raw, (int, float))
        or isinstance(delta_raw, bool)
        or delta_raw <= 0
    ):
        errors["delta"] = "must be a positive number"
    else:
        delta = float(delta_raw)

    grid_raw = payload.get("grid")
    grid: tuple[int, ...] = ()
    if (
        not isinstance(grid_raw, (list, tuple))
        or len(grid_raw) == 0
        or not all(isinstance(g, int) and not isinstance(g, bool) for g in grid_raw)
        or any(g <= 0 for g in grid_raw)
    ):
        errors["grid"] = "must be a nonempty list of positive integers"
    else:
        grid = tuple(int(g) for g in grid_raw)

    out_raw = out_dir if out_dir is not None else payload.get("out", "out")
    out_path = Path(out_raw) if isinstance(out_raw, (str, Path)) else None
    if out_path is None:
        errors["out"] = "must be a directory path string"
    else:
        # run_experiment creates the directory once the config is valid;
        # here its nearest existing ancestor must be a writable directory
        target = out_path.absolute()
        existing = next(p for p in (target, *target.parents) if p.exists())
        if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
            errors["out"] = (
                f"cannot write output directory {out_path}: "
                f"{existing} is not a writable directory"
            )

    seed_raw = seed if seed is not None else payload.get("seed", 0)
    seed_val = 0
    if not isinstance(seed_raw, int) or isinstance(seed_raw, bool) or seed_raw < 0:
        errors["seed"] = "must be a nonnegative integer"
    else:
        seed_val = int(seed_raw)

    sweeps = {"h_sweep": h_sweep, "rho_grid": rho_grid}
    for kind in kinds:
        spec = _KINDS.get(kind)
        if spec is None:
            continue
        for name, (least, what) in spec.minimums.items():
            if sweeps[name] and len(set(sweeps[name])) < least:
                errors[name] = f"{kind} needs at least {least} {what}"
        if geometry is not None and geometry not in spec.geometries:
            errors["model"] = _unsupported_model(kind, spec, str(model), geometry)
        # an unsupported or unknown geometry is checked against the least need
        sizes = spec.geometries.get(geometry, min(spec.geometries.values()))
        if grid and len(grid) < sizes:
            errors["grid"] = f"{kind} needs {sizes} grid sizes"
        for entry, (least, what) in enumerate(spec.grid_minimums[: len(grid)]):
            if grid[entry] < least:
                errors["grid"] = (
                    f"{kind} needs at least {least} {what} in grid[{entry}]"
                )
        if spec.limits_check is not None and geometry in spec.geometries:
            usable = grid if len(grid) >= sizes and "grid" not in errors else ()
            for name, problem in spec.limits_check(built, usable, sweeps).items():
                errors.setdefault(name, problem)

    if errors:
        raise ConfigError(errors)
    assert out_path is not None
    return tuple(
        ExperimentConfig(
            kind=kind,
            model=str(model),
            params=params,
            h_sweep=h_sweep,
            rho_grid=rho_grid,
            lambda_sweep=lambda_sweep,
            m_constant=m_constant,
            delta=delta,
            grid=grid,
            out_dir=out_path,
            seed=seed_val,
        )
        for kind in kinds
    )


# --------------------------------------------------------------------------
# shared runner plumbing
# --------------------------------------------------------------------------


def _record(
    config: ExperimentConfig, key: tuple, measured: Mapping, verdicts=()
) -> ReportRecord:
    """A record of the config's kind, carrying the config's provenance."""
    provenance = {
        "grid": list(config.grid),
        "seed": config.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "agmonlab": __version__,
        },
    }
    return ReportRecord(
        kind=config.kind,
        key=key,
        measured=measured,
        verdicts=tuple(verdicts),
        provenance=provenance,
    )


def _guarded(kind: str, key: tuple, fn: Callable[[], _T]) -> _T:
    try:
        return fn()
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(kind, key, exc) from exc


def _map_points(
    kind: str,
    points: list[tuple[tuple, Callable[[], ReportRecord]]],
    jobs: int,
) -> list[ReportRecord]:
    """Evaluate sweep points, merging results in submission order."""
    calls = [partial(_guarded, kind, key, fn) for key, fn in points]
    if jobs <= 1 or len(calls) <= 1:
        return [call() for call in calls]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(call) for call in calls]
        return [future.result() for future in futures]


def _bound_verdict(name: str, measured: float, bound: float, tol: float) -> Verdict:
    """measured <= bound + tol, margin = bound + tol - measured."""
    margin = bound + tol - measured
    return Verdict(name=name, passed=bool(margin >= 0.0), tolerance=tol, margin=margin)


def _variation_factor(values: np.ndarray) -> float:
    """max/min spread; all-equal sweeps (including all-zero) give 1."""
    top = float(np.max(values))
    bottom = float(np.min(values))
    if top == bottom:
        return 1.0
    if bottom <= 0.0:
        return math.inf
    return top / bottom


def _isotonic_rise(values: np.ndarray) -> float:
    """Total rise of the best nondecreasing fit (monotone regression)."""
    fit = isotonic_regression(values, increasing=True).x
    return float(fit[-1] - fit[0])


def _positive_series(label, xs, ys, style) -> Series | None:
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0.0]
    if not pairs:
        return None
    return Series(
        label=label,
        x=tuple(p[0] for p in pairs),
        y=tuple(p[1] for p in pairs),
        style=style,
    )


# --------------------------------------------------------------------------
# experiment: halfplane-chain
# --------------------------------------------------------------------------


def _chain_boundary_data(model: ModelProblem, n: int, h: float):
    """Zero-section-concentrated data with a small exterior component.

    Three low modes plus one mode pinned at frequency 0.7 (outside the
    delta = 0.5 ball), sized so the measured exterior fraction stays below
    the chain hypothesis strength 0.1.
    """
    length = model.lengths[0]
    k_out = max(1, round(0.7 * length / (2.0 * math.pi * h)))

    def data(x):
        theta = 2.0 * math.pi * x / length
        return (
            1.0
            + 0.5 * np.cos(theta)
            + 0.25 * np.cos(2.0 * theta)
            + 0.12 * np.cos(k_out * theta)
        )

    return make_boundary_function(data, n, length, h)


def _chain_point(
    config: ExperimentConfig, model: ModelProblem, h: float, rho: float
) -> ReportRecord:
    phi = _chain_boundary_data(model, config.grid[0], h)
    report = verify_lower_chain(phi, rho, config.delta, _CHAIN_EPSILON)
    # Tolerances mirror the chain checker's own slacks: 1e-10 on the
    # transform identity, relative 1e-12 on the two exact spectral steps,
    # none on the final measured bound.
    verdicts = []
    for step in report.steps:
        if step.name == "plancherel":
            tolerance, margin = 1e-10, float(step.margin)
        elif step.name in ("zero-section-mass", "multiplier-floor"):
            tolerance = 1e-12 * float(step.rhs)
            margin = float(step.margin) + tolerance
        else:
            tolerance, margin = 0.0, float(step.margin)
        verdicts.append(
            Verdict(
                name=step.name,
                passed=step.passed,
                tolerance=tolerance,
                margin=margin,
            )
        )
    measured = {
        "exterior_fraction": report.exterior,
        "measured_ratio": report.measured_ratio,
        "lower_bound": report.lower_bound,
        "epsilon": report.epsilon,
        "delta": report.delta,
    }
    return _record(config, (config.model, h, rho), measured, verdicts)


def _run_halfplane_chain(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.build_model()
    points = [
        ((config.model, h, rho), partial(_chain_point, config, model, h, rho))
        for h in config.h_sweep
        for rho in config.rho_grid
    ]
    return _map_points(config.kind, points, jobs)


def _chain_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    for rec in records:
        _, h, rho = rec.key
        m = rec.measured
        yield (
            h,
            rho,
            m["delta"],
            m["epsilon"],
            m["exterior_fraction"],
            m["measured_ratio"],
            m["lower_bound"],
            rec.verdicts[-1].margin,
            rec.passed,
        )


def _chain_plot(records: Sequence[ReportRecord]) -> _Plot:
    by_h: dict[float, list] = {}
    for rec in records:
        _, h, rho = rec.key
        by_h.setdefault(h, []).append((rho, rec.measured))
    series = []
    for h, items in by_h.items():
        items.sort()
        xs = tuple(r for r, _ in items)
        style = "line" if len(xs) > 1 else "scatter"
        series.append(
            Series(
                label=f"ratio h={h:g}",
                x=xs,
                y=tuple(m["measured_ratio"] for _, m in items),
                style=style,
            )
        )
        if len(xs) > 1:
            series.append(
                Series(
                    label=f"bound h={h:g}",
                    x=xs,
                    y=tuple(m["lower_bound"] for _, m in items),
                    style="dashed",
                )
            )
    return series, "rho", "trace norm ratio", False, True


# --------------------------------------------------------------------------
# experiment: decay-sandwich
# --------------------------------------------------------------------------


def _decay_point(
    config: ExperimentConfig, model: ModelProblem, rho: tuple, h: float
) -> ReportRecord:
    n_t = config.grid[0]
    phi = make_boundary_function(lambda x: np.ones_like(x), n_t, model.lengths[0], h)
    if model.geometry == "halfplane-cylinder":
        tolerance = 1e-6
        traces = [apply_halfplane_poisson(phi, r) for r in rho]
        base = phi.norm
    else:
        tolerance = 0.1
        n_n = config.grid[1]
        bvp = poisson_bvp(
            model, phi, h, far=_DECAY_FAR, n_normal=n_n, rho_max=max(rho)
        )
        traces = [
            trace_at(bvp, separable_level_set(model, r, n_tangential=n_t))
            for r in rho
        ]
        base = trace_at(
            bvp, separable_level_set(model, 0.0, n_tangential=n_t)
        ).ambient_norm
    fit = decay_fit(traces, rho, h)
    ratios = tuple(
        float(getattr(t, "ambient_norm", getattr(t, "norm", 0.0)) / base)
        for t in traces
    )
    deviation = abs(fit.slope_times_h + 1.0)
    measured = {
        "rho": rho,
        "norm_ratio": ratios,
        "slope": fit.slope,
        "slope_times_h": fit.slope_times_h,
        "fit_residual": fit.residual,
    }
    verdict = _bound_verdict("decay-slope", deviation, 0.0, tolerance)
    return _record(config, (config.model, h), measured, (verdict,))


def _run_decay_sandwich(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.build_model()
    rho = tuple(sorted(config.rho_grid))
    points = [
        ((config.model, h), partial(_decay_point, config, model, rho, h))
        for h in config.h_sweep
    ]
    return _map_points(config.kind, points, jobs)


def _decay_limits(model: ModelProblem, grid, sweeps) -> dict[str, str]:
    """On the torus every level must certify against the far closure: the
    solver's own check, at the largest h, where the bound is weakest."""
    del grid  # the far boundary is fixed, whatever the normal grid
    rho, h = sweeps["rho_grid"], sweeps["h_sweep"]
    if model.geometry == "halfplane-cylinder" or not rho or not h:
        return {}
    try:
        _check_far_boundary(model, _DECAY_FAR, max(h), max(rho))
    except ValueError as exc:
        return {"rho_grid": f"decay-sandwich cannot trace depth {max(rho):g}: {exc}"}
    return {}


def _decay_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    for rec in records:
        _, h = rec.key
        m = rec.measured
        for rho, ratio in zip(m["rho"], m["norm_ratio"]):
            yield (h, rho, ratio, m["slope_times_h"], m["fit_residual"])


def _decay_plot(records: Sequence[ReportRecord]) -> _Plot:
    series = []
    for rec in records:
        _, h = rec.key
        rho = rec.measured["rho"]
        style = "line" if len(rho) > 1 else "scatter"
        series.append(
            Series(
                label=f"measured h={h:g}",
                x=rho,
                y=rec.measured["norm_ratio"],
                style=style,
            )
        )
        if len(rho) > 1:
            series.append(
                Series(
                    label=f"exp(-rho/h) h={h:g}",
                    x=rho,
                    y=tuple(math.exp(-r / h) for r in rho),
                    style="dashed",
                )
            )
    return series, "rho", "norm ratio", False, True


# --------------------------------------------------------------------------
# experiment: exterior-mass
# --------------------------------------------------------------------------


def _exterior_point(
    config: ExperimentConfig, model: ModelProblem, traces: list, h: float, lam: float
) -> ReportRecord:
    masses = tuple(
        float(exterior_mass(trace, model, lam, h)) for _, trace, _ in traces
    )
    norms = tuple(norm_sq for _, _, norm_sq in traces)
    fractions = tuple(m / n for m, n in zip(masses, norms))
    peak = max(fractions)
    lambda_mass = lam * peak if peak > _MASS_NOISE_FLOOR else 0.0
    worst = min(min(m, n - m) / n for m, n in zip(masses, norms))
    verdict = _bound_verdict("mass-in-range", -worst, 0.0, 1e-8)
    measured = {
        "modes": _EXTERIOR_MODES,
        "masses": masses,
        "norm_sq": norms,
        "fractions": fractions,
        "lambda_mass": lambda_mass,
    }
    return _record(config, (config.model, lam), measured, (verdict,))


def _run_exterior_mass(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.build_model()
    h = config.h_sweep[0]
    n_transverse, n_tangential = config.grid[0], config.grid[1]

    transverse = solve_transverse_modes(
        model, h, model.energy, 1, n=n_transverse, parity="even"
    )[0]
    traces = []
    for k in _EXTERIOR_MODES:
        mode = assemble_separable_mode(
            transverse, k, model, n_tangential=n_tangential
        )
        trace = surface_trace_of_mode(mode, model)
        traces.append((k, trace, float(trace.ambient_norm**2)))

    points = [
        ((config.model, lam), partial(_exterior_point, config, model, traces, h, lam))
        for lam in config.lambda_sweep
    ]
    records = _map_points(config.kind, points, jobs)

    q_values = np.array([rec.measured["lambda_mass"] for rec in records])
    factor = _variation_factor(q_values)
    rise = _isotonic_rise(q_values)
    rise_tol = 1e-9 * max(1.0, float(np.max(np.abs(q_values))))
    sweep_measured = {
        "lambda": config.lambda_sweep,
        "lambda_mass": tuple(float(q) for q in q_values),
        "variation_factor": factor,
        "isotonic_rise": rise,
    }
    sweep_verdicts = (
        _bound_verdict("bounded-variation", factor, 4.0, 0.0),
        _bound_verdict("no-growth-trend", rise, 0.0, rise_tol),
    )
    records.append(
        _record(config, (config.model, "lambda-sweep"), sweep_measured, sweep_verdicts)
    )
    return records


def _exterior_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    for rec in records:
        if rec.key[-1] == "lambda-sweep":
            continue
        _, lam = rec.key
        m = rec.measured
        for k, mass, norm_sq, fraction in zip(
            m["modes"], m["masses"], m["norm_sq"], m["fractions"]
        ):
            yield (lam, k, mass, norm_sq, fraction, m["lambda_mass"])


def _exterior_plot(records: Sequence[ReportRecord]) -> _Plot:
    sweep = [rec for rec in records if rec.key[-1] == "lambda-sweep"]
    if sweep:
        m = sweep[0].measured
        xs, ys = m["lambda"], m["lambda_mass"]
    else:
        pts = sorted((rec.key[1], rec.measured["lambda_mass"]) for rec in records)
        xs = tuple(p[0] for p in pts)
        ys = tuple(p[1] for p in pts)
    style = "line" if len(xs) > 1 else "scatter"
    series = [Series(label="lambda*mass", x=xs, y=ys, style=style)]
    return series, "lambda", "lambda * mass fraction", False, False


# --------------------------------------------------------------------------
# experiment: phase-residual
# --------------------------------------------------------------------------


def _phase_grid(model: ModelProblem, config: ExperimentConfig):
    n_x, n_xi = config.grid[0], config.grid[1]
    length = model.lengths[0]
    nodes = length / n_x * np.arange(n_x)
    xi = np.linspace(-_XI_MAX, _XI_MAX, n_xi)
    return nodes, xi


def _ambient_phase_point(
    config: ExperimentConfig, model: ModelProblem, nodes, xi
) -> ReportRecord:
    series = solve_phase_series(model, "ambient", _PHASE_ORDER, (nodes, xi))
    barrier = potential_grid(model, nodes, np.zeros(1))[:, 0] - model.energy
    target = np.sqrt(barrier[:, None] + xi[None, :] ** 2)
    deviation = float(np.max(np.abs(series.coefficients[0] - target)))
    verdict = _bound_verdict("ambient-leading-coefficient", deviation, 0.0, 1e-8)
    measured = {"leading_deviation": deviation}
    return _record(config, (config.model, "ambient-leading"), measured, (verdict,))


def _gauged_phase_point(
    config: ExperimentConfig, model: ModelProblem, nodes, xi, depths: tuple
) -> ReportRecord:
    series = solve_phase_series(model, "agmon", _PHASE_ORDER, (nodes, xi))
    report = phase_residual(series, depths)
    measured = {
        "depth": depths,
        "max_residual": tuple(float(v) for v in report.max_residual),
        "relative_residual": tuple(float(v) for v in report.relative_residual),
        "fitted_exponent": float(report.fitted_exponent),
        "validity_radius": float(report.validity_radius),
    }
    if model.geometry == "halfplane-cylinder":
        closed = [
            float(
                np.max(
                    np.abs(
                        evaluate_phase(series, s)
                        - s * (np.sqrt(1.0 + xi**2) - 1.0)[None, :]
                    )
                )
            )
            for s in depths
        ]
        deviation = max(closed)
        verdict = _bound_verdict("flat-closed-form", deviation, 0.0, 1e-12)
        measured["closed_form_deviation"] = deviation
        name = "closed-form"
    else:
        floor = _PHASE_ORDER + 0.5
        verdict = Verdict(
            name="residual-order",
            passed=bool(report.fitted_exponent >= floor),
            tolerance=floor,
            margin=float(report.fitted_exponent - floor),
        )
        name = "residual-order"
    return _record(config, (config.model, name), measured, (verdict,))


def _run_phase_residual(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.build_model()
    nodes, xi = _phase_grid(model, config)
    depths = tuple(sorted(config.rho_grid))
    gauged = partial(_gauged_phase_point, config, model, nodes, xi, depths)
    ambient = partial(_ambient_phase_point, config, model, nodes, xi)
    points = [((config.model, "gauged"), gauged), ((config.model, "ambient"), ambient)]
    return _map_points(config.kind, points, jobs)


def _phase_limits(model: ModelProblem, grid, sweeps) -> dict[str, str]:
    """The gauged series is checked only inside its collar."""
    del grid
    rho, limit = sweeps["rho_grid"], model.collar_width
    if not rho or max(rho) <= limit + 1e-12:
        return {}
    return {
        "rho_grid": f"phase-residual needs every depth at most {limit:g}, "
        f"the gauged collar width of {model.name}"
    }


def _phase_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    for rec in records:
        check = rec.key[-1]
        m = rec.measured
        if "depth" in m:
            for depth, res, rel in zip(
                m["depth"], m["max_residual"], m["relative_residual"]
            ):
                yield (check, depth, res, rel)
        else:
            dev = m["leading_deviation"]
            yield (check, 0.0, dev, dev)


def _phase_plot(records: Sequence[ReportRecord]) -> _Plot:
    series = []
    linear_fallback = []
    for rec in records:
        m = rec.measured
        if "depth" not in m:
            continue
        label = str(rec.key[-1])
        positive = _positive_series(label, m["depth"], m["max_residual"], "line")
        if positive is not None:
            series.append(positive)
        linear_fallback.append(
            Series(label=label, x=m["depth"], y=m["max_residual"], style="scatter")
        )
    if series:
        return series, "depth", "equation residual", True, True
    return linear_fallback, "depth", "equation residual", False, False


# --------------------------------------------------------------------------
# experiment: symbol-class
# --------------------------------------------------------------------------


def _run_symbol_class(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    del jobs  # one aggregate check; the h sweep is a single fit
    model = config.build_model()
    n_xi = config.grid[1]
    length = model.lengths[0]
    rho = config.rho_grid[0]
    profile = build_cutoff_profile(config.m_constant)
    h_values = tuple(sorted(config.h_sweep, reverse=True))

    def builder(h: float):
        series = solve_phase_series(
            model,
            "agmon",
            _PHASE_ORDER,
            (np.array([0.0]), mode_frequencies(n_xi, length, h)),
        )
        return build_phase_cutoff(series, profile, rho, h)

    key = (config.model, rho)
    try:
        report = symbol_class_check(builder, profile.plateau, 0.5, h_values)
    except Exception as exc:
        raise ExperimentError(config.kind, key, exc) from exc

    by_index = dict(zip(report.indices, report.exponents))
    verdicts = []
    for beta in (1, 2):
        exponent = by_index[(0, beta)]
        deviation = abs(exponent + 0.5 * beta)
        verdicts.append(
            _bound_verdict(f"xi-derivative-exponent-beta-{beta}", deviation, 0.0, 0.1)
        )
    finite = [
        exp - thr
        for exp, thr in zip(report.exponents, report.thresholds)
        if math.isfinite(exp)
    ]
    verdicts.append(
        Verdict(
            name="class-bound",
            passed=bool(report.passed),
            tolerance=0.1,
            margin=float(min(finite)) if finite else math.inf,
        )
    )
    measured = {
        "h": h_values,
        "indices": tuple(f"a{a}b{b}" for a, b in report.indices),
        "sups": tuple(tuple(float(v) for v in row) for row in report.sups),
        "exponents": tuple(float(v) for v in report.exponents),
        "plateau": float(profile.plateau),
        "span": float(config.m_constant),
    }
    return [_record(config, key, measured, verdicts)]


def _symbol_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    for rec in records:
        m = rec.measured
        for index, sups in zip(m["indices"], m["sups"]):
            alpha, beta = int(index[1]), int(index[3])
            for h, sup in zip(m["h"], sups):
                yield (alpha, beta, h, sup)


def _symbol_plot(records: Sequence[ReportRecord]) -> _Plot:
    series = []
    for rec in records:
        m = rec.measured
        for index, sups in zip(m["indices"], m["sups"]):
            positive = _positive_series(index, m["h"], sups, "line")
            if positive is not None:
                series.append(positive)
    return series, "h", "derivative sup", True, True


# --------------------------------------------------------------------------
# experiment: mass-profile
# --------------------------------------------------------------------------


def _window_mode(model: ModelProblem, lam: float, h: float, n_tangential: int) -> int:
    """The tangential mode whose eigenvalue best hits the window interior."""
    length = model.lengths[0]
    spacing = length / n_tangential
    k = np.arange(1, n_tangential // 2)
    mu = (2.0 * h / spacing * np.sin(math.pi * k / n_tangential)) ** 2
    ratio = mu / (lam * h)
    inside = (ratio > 1.0) & (ratio < 2.0)
    if not np.any(inside):
        raise ValueError(
            f"no tangential mode eigenvalue lands inside the spectral window "
            f"({lam * h:g}, {2 * lam * h:g}) at lam={lam:g}, h={h:g}"
        )
    candidates = k[inside]
    return int(candidates[np.argmin(np.abs(ratio[inside] - _WINDOW_TARGET))])


def _mass_profile_point(
    config: ExperimentConfig, model: ModelProblem, transverse, h: float, lam, k: int
) -> ReportRecord:
    mode = assemble_separable_mode(transverse, k, model, n_tangential=config.grid[1])
    profile = mass_profile_comparison(mode, model, lam, h)
    verdict_map = profile.verdict
    floor = max(
        float(np.max(profile.mass_values)),
        float(np.max(np.abs(profile.comparison_values))),
        1e-300,
    )
    # Margins mirror the profile checker's relative 1e-9 slacks.
    comparison_margin = 1e-9 + float(
        np.min(profile.mass_values - profile.comparison_values) / floor
    )
    trivial_margin = (
        verdict_map["trace_growth"] * (1.0 + 1e-9)
        - verdict_map["trivial_bound_constant"]
    )
    l0_margin = (1.0 + 1e-9) - (
        verdict_map["exterior_ratio"] / verdict_map["l0_bound_ratio"]
        if verdict_map["l0_bound_ratio"] > 0.0
        else math.inf
    )
    verdicts = (
        _bound_verdict("neumann-precondition", verdict_map["neumann_ratio"], 0.0, 1e-8),
        _bound_verdict("ode-oracle-agreement", verdict_map["ode_agreement"], 0.0, 1e-8),
        Verdict(
            name="comparison-lower-bound",
            passed=bool(verdict_map["comparison_holds"]),
            tolerance=1e-9,
            margin=comparison_margin,
        ),
        Verdict(
            name="windowed-trivial-bound",
            passed=bool(verdict_map["trivial_bound_holds"]),
            tolerance=1e-9,
            margin=float(trivial_margin),
        ),
        Verdict(
            name="initial-mass-bound",
            passed=bool(verdict_map["l0_bound_holds"]),
            tolerance=1e-9,
            margin=float(l0_margin),
        ),
    )
    measured = {
        "r": tuple(float(v) for v in profile.r_grid),
        "mass": tuple(float(v) for v in profile.mass_values),
        "comparison": tuple(float(v) for v in profile.comparison_values),
        "t_constant": profile.t_constant,
        "c_constant": profile.c_constant,
        "exterior_ratio": verdict_map["exterior_ratio"],
        "trace_growth": verdict_map["trace_growth"],
        "integral_value": verdict_map["integral_value"],
        "l0_bound_ratio": verdict_map["l0_bound_ratio"],
        "mass_slope_at_zero": profile.mass_slope_at_zero,
        "mode_energy": profile.meta["mode_energy"],
    }
    return _record(config, (config.model, lam, h, k), measured, verdicts)


def _run_mass_profile(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.build_model()
    h = config.h_sweep[0]
    n_transverse, n_tangential = config.grid[0], config.grid[1]
    transverse = solve_transverse_modes(
        model, h, model.energy, 1, n=n_transverse, parity="even"
    )[0]

    points = []
    for lam in config.lambda_sweep:
        try:
            k = _window_mode(model, lam, h, n_tangential)
        except ValueError as exc:
            raise ExperimentError(config.kind, (config.model, lam, h), exc) from exc
        points.append(
            (
                (config.model, lam, h, k),
                partial(_mass_profile_point, config, model, transverse, h, lam, k),
            )
        )
    return _map_points(config.kind, points, jobs)


def _mass_profile_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    for rec in records:
        _, lam, h, k = rec.key
        m = rec.measured
        for r, mass, comp in zip(m["r"], m["mass"], m["comparison"]):
            yield (lam, h, k, r, mass, comp)


def _mass_profile_plot(records: Sequence[ReportRecord]) -> _Plot:
    series = []
    for rec in records:
        _, lam, _, _ = rec.key
        m = rec.measured
        style = "line" if len(m["r"]) > 1 else "scatter"
        mass = _positive_series(f"L lam={lam:g}", m["r"], m["mass"], style)
        comp = _positive_series(f"Z lam={lam:g}", m["r"], m["comparison"], "dashed")
        if mass is not None:
            series.append(mass)
        if comp is not None:
            series.append(comp)
    return series, "depth r", "windowed mass", False, True


# --------------------------------------------------------------------------
# experiment: parametrix-consistency
# --------------------------------------------------------------------------


def _parametrix_limits(model: ModelProblem, grid, sweeps) -> dict[str, str]:
    """The comparison depth must lie inside the model's ambient collar."""
    del sweeps  # the depth is set by the grid alone
    collar = model.collar_width_ambient
    least = math.ceil(_PARAMETRIX_DEPTH_STEPS * _PARAMETRIX_FAR / collar) + 1
    if not grid or grid[1] >= least:
        return {}
    return {
        "grid": f"parametrix-consistency needs at least {least} normal nodes "
        f"in grid[1], so that its comparison depth lies inside the collar "
        f"[0, {collar:g}]"
    }


def _parametrix_point(
    config: ExperimentConfig, model: ModelProblem, nodes, level, rho: float, h: float
) -> ReportRecord:
    n_tangential, n_normal = config.grid[0], config.grid[1]
    length = model.lengths[0]
    phi = make_boundary_function(
        lambda x: 1.0
        + 0.4 * np.cos(2.0 * math.pi * x / length)
        + 0.2 * np.cos(4.0 * math.pi * x / length),
        n_tangential,
        length,
        h,
    )
    series = solve_phase_series(
        model,
        "agmon",
        _PARAMETRIX_ORDER,
        (nodes, mode_frequencies(n_tangential, length, h)),
    )
    parametrix = apply_poisson_parametrix(series, phi, rho)
    bvp = poisson_bvp(
        model, phi, h, far=_PARAMETRIX_FAR, n_normal=n_normal, rho_max=rho
    )
    oracle = trace_at(bvp, level).values * math.exp(rho / h)
    rel_error = float(
        np.linalg.norm(parametrix.values - oracle) / np.linalg.norm(oracle)
    )
    measured = {"rel_error": rel_error, "rho": rho}
    return _record(config, (config.model, h, rho), measured)


def _run_parametrix_consistency(
    config: ExperimentConfig, jobs: int
) -> list[ReportRecord]:
    model = config.build_model()
    n_tangential, n_normal = config.grid[0], config.grid[1]
    s_star = _PARAMETRIX_DEPTH_STEPS * _PARAMETRIX_FAR / (n_normal - 1)
    rho = float(separable_collar(model).rho_of_s(s_star))
    nodes = model.lengths[0] / n_tangential * np.arange(n_tangential)
    level = separable_level_set(model, rho, n_tangential=n_tangential)

    point = partial(_parametrix_point, config, model, nodes, level, rho)
    points = [((config.model, h, rho), partial(point, h)) for h in config.h_sweep]
    records = _map_points(config.kind, points, jobs)

    h_values = np.array(config.h_sweep)
    errors = np.array([rec.measured["rel_error"] for rec in records])
    order = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    sweep_measured = {
        "h": config.h_sweep,
        "rel_error": tuple(float(e) for e in errors),
        "fitted_order": order,
    }
    verdict = Verdict(
        name="consistency-order",
        passed=bool(order >= 0.7),
        tolerance=0.7,
        margin=order - 0.7,
    )
    records.append(
        _record(config, (config.model, "order-fit"), sweep_measured, (verdict,))
    )
    return records


def _parametrix_rows(records: Sequence[ReportRecord]) -> Iterator[tuple]:
    fits = [rec for rec in records if rec.key[-1] == "order-fit"]
    order = fits[-1].measured["fitted_order"] if fits else None
    for rec in records:
        if rec.key[-1] != "order-fit":
            _, h, rho = rec.key
            yield (h, rho, rec.measured["rel_error"], order)


def _parametrix_plot(records: Sequence[ReportRecord]) -> _Plot:
    pts = sorted(
        (rec.key[1], rec.measured["rel_error"])
        for rec in records
        if rec.key[-1] != "order-fit"
    )
    xs = tuple(p[0] for p in pts)
    ys = tuple(p[1] for p in pts)
    style = "line" if len(xs) > 1 else "scatter"
    series = [Series(label="relative error", x=xs, y=ys, style=style)]
    return series, "h", "relative error", True, True


# --------------------------------------------------------------------------
# the kind table
# --------------------------------------------------------------------------

# The distance-gauged phase series needs a tangentially invariant product
# barrier; the separable-torus kinds need its transverse modes or collar.
_TANGENTIAL_INVARIANT = ("halfplane-cylinder", "separable-torus")

_KINDS: dict[str, _KindSpec] = {
    "halfplane-chain": _KindSpec(
        run=_run_halfplane_chain,
        columns=(
            "h",
            "rho",
            "delta",
            "epsilon",
            "exterior",
            "measured_ratio",
            "lower_bound",
            "margin",
            "passed",
        ),
        rows=_chain_rows,
        plot=_chain_plot,
        geometries=dict.fromkeys(GEOMETRIES, 1),
    ),
    "decay-sandwich": _KindSpec(
        run=_run_decay_sandwich,
        columns=("h", "rho", "norm_ratio", "slope_times_h", "fit_residual"),
        rows=_decay_rows,
        plot=_decay_plot,
        geometries={"halfplane-cylinder": 1, "separable-torus": 2},
        minimums={"rho_grid": (4, "distinct depths")},
        limits_check=_decay_limits,
    ),
    "exterior-mass": _KindSpec(
        run=_run_exterior_mass,
        columns=("lam", "k", "mass", "norm_sq", "fraction", "lambda_mass"),
        rows=_exterior_rows,
        plot=_exterior_plot,
        geometries={"separable-torus": 2},
        grid_minimums=(_TRANSVERSE_NODES, _LEVEL_CIRCLE_NODES),
    ),
    "phase-residual": _KindSpec(
        run=_run_phase_residual,
        columns=("check", "depth", "max_residual", "relative_residual"),
        rows=_phase_rows,
        plot=_phase_plot,
        geometries=dict.fromkeys(_TANGENTIAL_INVARIANT, 2),
        limits_check=_phase_limits,
    ),
    "symbol-class": _KindSpec(
        run=_run_symbol_class,
        columns=("alpha", "beta", "h", "sup"),
        rows=_symbol_rows,
        plot=_symbol_plot,
        geometries=dict.fromkeys(_TANGENTIAL_INVARIANT, 2),
        minimums={"h_sweep": (4, "dyadic h values")},
    ),
    "mass-profile": _KindSpec(
        run=_run_mass_profile,
        columns=("lam", "h", "k", "r", "mass", "comparison"),
        rows=_mass_profile_rows,
        plot=_mass_profile_plot,
        geometries={"separable-torus": 2},
        grid_minimums=(_TRANSVERSE_NODES,),
    ),
    "parametrix-consistency": _KindSpec(
        run=_run_parametrix_consistency,
        columns=("h", "rho", "rel_error", "fitted_order"),
        rows=_parametrix_rows,
        plot=_parametrix_plot,
        geometries={"separable-torus": 2},
        minimums={"h_sweep": (2, "h values")},
        limits_check=_parametrix_limits,
    ),
}

EXPERIMENT_KINDS = tuple(_KINDS)


# --------------------------------------------------------------------------
# report serialization
# --------------------------------------------------------------------------


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_sweep_csv(records: tuple[ReportRecord, ...], kind: str, path: Path) -> None:
    """One CSV per sweep with fixed, versioned columns."""
    spec = _KINDS[kind]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(spec.columns)
        for row in spec.rows(records):
            writer.writerow(["" if v is None else _fmt_cell(v) for v in row])


def _json_value(value):
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _json_value(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def write_summary_json(
    records: tuple[ReportRecord, ...], config: ExperimentConfig, path: Path
) -> bool:
    """The JSON summary: config echo, provenance, all verdicts.  Returns
    whether every verdict passed."""
    all_passed = all(rec.passed for rec in records)
    payload = {
        "kind": config.kind,
        "csv_schema": _CSV_SCHEMA_VERSION,
        "config": {
            "model": config.model,
            "params": dict(config.params),
            "h_sweep": list(config.h_sweep),
            "rho_grid": list(config.rho_grid),
            "lambda_sweep": list(config.lambda_sweep),
            "M": config.m_constant,
            "delta": config.delta,
            "grid": list(config.grid),
            "seed": config.seed,
        },
        "records": [
            {
                "key": _json_value(rec.key),
                "measured": _json_value(rec.measured),
                "verdicts": [
                    {
                        "name": v.name,
                        "passed": v.passed,
                        "tolerance": _json_value(v.tolerance),
                        "margin": _json_value(v.margin),
                    }
                    for v in rec.verdicts
                ],
                "provenance": _json_value(rec.provenance),
            }
            for rec in records
        ],
        "all_passed": all_passed,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return all_passed


# --------------------------------------------------------------------------
# plots
# --------------------------------------------------------------------------


def emit_plots(records, kind: str, out_dir) -> tuple[Path, ...]:
    """Render the per-kind SVG plot for records of a single kind."""
    records = tuple(records)
    if not records:
        raise ValueError("no records to plot")
    kinds = {rec.kind for rec in records}
    if kinds != {kind}:
        raise ValueError(
            f"mixed or mismatched record kinds {sorted(kinds)}; expected {kind!r}"
        )
    if kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    series, xlabel, ylabel, logx, logy = _KINDS[kind].plot(records)
    if not series:
        raise ValueError("records carry no plottable values")
    text = render_plot(
        series,
        title=kind,
        xlabel=xlabel,
        ylabel=ylabel,
        logx=logx,
        logy=logy,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{kind}.svg"
    path.write_text(text, encoding="utf-8")
    return (path,)


# --------------------------------------------------------------------------
# top-level runner
# --------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, *, jobs: int = 1) -> ExperimentResult:
    """Run one experiment kind and write CSV, JSON summary, and SVG."""
    if config.kind not in _KINDS:
        raise ConfigError({"kind": f"unknown experiment kind {config.kind!r}"})
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    run = partial(_KINDS[config.kind].run, config, jobs)
    records = tuple(_guarded(config.kind, (config.model,), run))
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.kind}.csv"
    summary_path = out_dir / f"{config.kind}.json"
    write_sweep_csv(records, config.kind, csv_path)
    write_summary_json(records, config, summary_path)
    plot_paths = emit_plots(records, config.kind, out_dir)
    return ExperimentResult(
        config=config,
        records=records,
        csv_path=csv_path,
        summary_path=summary_path,
        plot_paths=plot_paths,
    )
