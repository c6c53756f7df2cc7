"""Config-driven experiment sweeps with machine-readable verdict reports.

Seven experiment kinds map the package modules onto reproducible runs:

* ``halfplane-chain``      -- four-step trace lower bound over (h, rho)
* ``decay-sandwich``       -- fitted decay slope of gauge-normalized traces
* ``exterior-mass``        -- spectral-window mass of mode traces over lambda
* ``phase-residual``       -- truncated phase series against its equation
* ``symbol-class``         -- derivative-sup growth of the frequency cutoff
* ``mass-profile``         -- windowed-mass growth against the comparison ODE
* ``parametrix-consistency`` -- phase parametrix against the discrete solver

``parse_config`` builds and validates the config's catalogue model once,
and every per-kind ``ExperimentConfig`` carries that one ``ModelProblem``:
runners and sweep points read it from the config and never rebuild it.

A kind is defined by its one ``_KindSpec`` entry in ``_KINDS``: its runner,
the config keys it reads, CSV columns, row flattener, plot builder, the
models it supports (with the grid sizes each needs), its sweep-length
minimums, its least node counts and the limits its grid and depths must
keep.  The generic code below only reads that entry, so adding a kind
means adding one entry.  A config holds the run keys (``kind``, ``model``,
``params``, ``out``, ``seed``) and exactly the keys its kinds read, and a
summary echoes only what its kind read.  A config that breaks a kind's
static limits is rejected by ``parse_config``; any other module error, in
a runner's set-up or at a sweep point, surfaces as an ``ExperimentError``.

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
import reprlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
import scipy

from agmonlab import __version__
from agmonlab._numerics import isotonic_fit
from agmonlab._svg import Series, render_plot
from agmonlab.agmon import separable_level_set
from agmonlab.fcalc import (
    exterior_mass,
    mass_profile_comparison,
    surface_trace_of_mode,
)
from agmonlab.halfplane import (
    apply_halfplane_poisson,
    make_boundary_function,
    mode_frequencies,
    verify_lower_chain,
)
from agmonlab.hjphase import (
    apply_poisson_parametrix,
    evaluate_phase,
    phase_residual,
    solve_phase_series,
)
from agmonlab.models import (
    TANGENT_INVARIANT_MODELS,
    ModelProblem,
    make_model,
    potential_at,
    weighted_depth,
)
from agmonlab.quantize import build_cutoff_profile, build_phase_cutoff, symbol_class_check
from agmonlab.solver import (
    _MIN_NODES,
    _check_far_boundary,
    _resolving_normal_nodes,
    assemble_separable_mode,
    decay_fit,
    expected_circle_eigenvalue,
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

# The keys every run reads; a config holds these plus what its kinds read.
_RUN_KEYS = ("kind", "model", "params", "out", "seed")

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
# solver's contamination guard on the separable-torus model.
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
# Relative mass fractions below this are roundoff of an exact zero (all
# spectral weight sits where the window cutoff vanishes): the DFT leakage of
# a trace's own modes, about 1e-30 relative on the shipped sweep, or the
# dense Cauchy path's projection error.  They are reported as zero in the
# sweep statistic.
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
    """One check: its tolerance and its measured margin.

    ``margin`` is the signed distance to the pass boundary with the slack
    already folded in, as the checker hands it over; ``tolerance`` records
    the slack (or threshold) that was granted.  The verdict passes iff
    ``margin >= 0``; a NaN margin fails.
    """

    name: str
    tolerance: float
    margin: float

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)


@dataclass(frozen=True)
class ReportRecord:
    """Measured values and verdicts for one input key tuple."""

    kind: str
    key: tuple
    measured: Mapping[str, object]
    verdicts: tuple[Verdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment kind with its sweeps, sizes, and output location.

    ``model`` is the validated catalogue model that ``parse_config`` built
    from the config's ``model`` name and ``params``; the configs of one
    ``parse_config`` call share it.  ``params`` echoes the user's input.
    The fields from ``h_sweep`` on are named after their config keys; one
    that no kind of the config reads holds its default, ``()`` or ``None``.
    """

    kind: str
    model: ModelProblem
    params: tuple[tuple[str, float], ...]
    out_dir: Path
    seed: int
    h_sweep: tuple[float, ...] = ()
    rho_grid: tuple[float, ...] = ()
    lambda_sweep: tuple[float, ...] = ()
    M: float | None = None
    delta: float | None = None
    grid: tuple[int, ...] = ()


@dataclass(frozen=True)
class ExperimentResult:
    """Records plus the files one run produced."""

    records: tuple[ReportRecord, ...]
    csv_path: Path
    summary_path: Path
    plot_paths: tuple[Path, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


_Plot = tuple[list[Series], str, str, bool, bool]
_LimitsCheck = Callable[
    [ModelProblem, tuple[int, ...], Mapping[str, object]], Mapping[str, str]
]


@dataclass(frozen=True)
class _KindSpec:
    """Everything the generic config, run and report code knows of a kind.

    ``reads`` holds the config keys beyond the run keys that the runner and
    its limits check read: ``parse_config`` requires each of them, rejects
    a key that no configured kind reads, and the JSON summary echoes only
    these.  ``models`` maps each supported catalogue model to the number of
    ``grid`` entries the kind needs there; ``minimums`` maps a sweep key to
    the least number of distinct values it must hold and what they are;
    ``grid_minimums`` holds the least value of each leading ``grid`` entry
    and what that entry counts; ``limits_check`` maps each config key whose
    values the kind cannot reach on a given model to what is wrong with
    it.  It is given the grid only when the grid is otherwise valid (else
    an empty tuple) and the parsed values of the config's reads by key (a
    sweep is empty when invalid).
    """

    run: Callable[[ExperimentConfig, int], list[ReportRecord]]
    reads: frozenset[str]
    columns: tuple[str, ...]
    rows: Callable[[Sequence[ReportRecord]], Iterator[tuple]]
    plot: Callable[[Sequence[ReportRecord]], _Plot]
    models: Mapping[str, int]
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


def _finite(raw) -> bool:
    """Whether a config value is a finite number: JSON's NaN and Infinity
    literals, strings, bools and integers too large for a float are not."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        return False
    try:
        return math.isfinite(float(raw))
    except OverflowError:
        return False


def _positive(raw) -> bool:
    """Whether a config value is a positive finite number."""
    return _finite(raw) and float(raw) > 0.0


def _float_tuple(raw, name, errors, *, distinct=False) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        errors[name] = "must be a nonempty list of numbers"
        return ()
    for item in raw:
        if not _positive(item):
            errors[name] = f"entry {reprlib.repr(item)} is not a positive finite number"
            return ()
    values = tuple(float(item) for item in raw)
    if distinct and len(set(values)) != len(values):
        errors[name] = "values must be distinct"
        return ()
    return values


def _positive_number(raw, name, errors) -> float | None:
    if not _positive(raw):
        errors[name] = "must be a positive finite number"
        return None
    return float(raw)


def _grid_sizes(raw, name, errors) -> tuple[int, ...]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) == 0
        or not all(isinstance(g, int) and _positive(g) for g in raw)
    ):
        errors[name] = (
            "must be a nonempty list of positive integers within float range"
        )
        return ()
    return tuple(int(g) for g in raw)


# The parse of every key a kind may read, by its ExperimentConfig field.
_PARSERS = {
    "h_sweep": partial(_float_tuple, distinct=True),
    "rho_grid": _float_tuple,
    "lambda_sweep": _float_tuple,
    "M": _positive_number,
    "delta": _positive_number,
    "grid": _grid_sizes,
}


def _one_value(kind: str, key: str, model, grid, sweeps) -> dict[str, str]:
    """The limits check of a kind that runs one value of the sweep ``key``."""
    del model, grid
    count = len(sweeps[key])
    if count <= 1:
        return {}
    return {key: f"{kind} runs one value of {key}, got {count}: give {key} one value"}


def _unsupported_model(kind: str, spec: _KindSpec, model: str) -> str:
    return (
        f"{kind} does not run on {model!r}; it supports models "
        f"{', '.join(spec.models)}: set model to one of them or drop {kind} "
        "from kind"
    )


def parse_config(
    payload: Mapping, *, out_dir=None, seed: int | None = None
) -> tuple[ExperimentConfig, ...]:
    """Validate a configuration mapping into per-kind configs.

    A config holds the run keys plus the keys its kinds read, each of them
    required; a key that no configured kind reads is an error.  Every
    violated field is reported (collected into one ConfigError), not just
    the first.  ``out_dir`` and ``seed`` override the corresponding config
    keys when given.
    """
    errors: dict[str, str] = {}
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
    known = tuple(kind for kind in kinds if kind in EXPERIMENT_KINDS)
    reads = frozenset().union(*(_KINDS[kind].reads for kind in known))
    # the keys a config may hold follow from its kinds, all of them known
    if "kind" not in errors:
        for key in payload:
            if key not in _RUN_KEYS and key not in reads:
                errors[str(key)] = (
                    f"no configured kind reads {key} ({', '.join(kinds)}): drop it"
                )
    for kind in known:
        if known.count(kind) > 1:
            errors["kind"] = f"{kind} is listed {known.count(kind)} times: list it once"

    model = payload.get("model")
    params_raw = payload.get("params", {})
    params: tuple[tuple[str, float], ...] = ()
    if not isinstance(model, str):
        errors["model"] = "must be a model name string"
    if not isinstance(params_raw, Mapping):
        errors["params"] = "must be an object of numeric model parameters"
    elif not all(_finite(value) for value in params_raw.values()):
        errors["params"] = "parameter values must be finite numbers"
    else:
        params = tuple((str(k), float(params_raw[k])) for k in sorted(params_raw))
    built = None
    if isinstance(model, str) and "model" not in errors:
        try:
            built = make_model(model, dict(params))
        except ValueError as exc:
            errors["model"] = str(exc)
    if built is not None:
        # a model reads only the parameters it records
        names = [name for name, _ in built.params]
        unknown = sorted({name for name, _ in params} - set(names))
        if unknown:
            errors["params"] = (
                f"{model} has no parameter {', '.join(unknown)}; "
                f"its parameters are {', '.join(names)}"
            )
    # only a built model is checked against each kind's models
    model_name = model if built is not None else None

    values = {key: _PARSERS[key](payload.get(key), key, errors) for key in reads}
    for key in reads - payload.keys():
        errors[key] = "required key is missing"
    grid = values.get("grid", ())

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

    reader, most = None, 0  # the kind that reads the most grid sizes
    for kind in known:
        spec = _KINDS[kind]
        for name, (least, what) in spec.minimums.items():
            if values[name] and len(set(values[name])) < least:
                errors[name] = f"{kind} needs at least {least} {what}"
        if model_name is not None and model_name not in spec.models:
            errors["model"] = _unsupported_model(kind, spec, model_name)
        # an unsupported or unknown model is checked against the least need
        sizes = spec.models.get(model_name, min(spec.models.values()))
        if grid and len(grid) < sizes:
            errors["grid"] = f"{kind} needs {sizes} grid sizes"
        if model_name in spec.models and sizes > most:
            reader, most = kind, sizes
        for entry, (least, what) in enumerate(spec.grid_minimums[: len(grid)]):
            if grid[entry] < least:
                errors["grid"] = (
                    f"{kind} needs at least {least} {what} in grid[{entry}]"
                )
        if spec.limits_check is not None and model_name in spec.models:
            usable = grid if len(grid) >= sizes and "grid" not in errors else ()
            for name, problem in spec.limits_check(built, usable, values).items():
                errors.setdefault(name, problem)

    if reader is not None and len(grid) > most:
        errors.setdefault(
            "grid",
            f"{reader} reads {most} grid size{'s' if most > 1 else ''}, the most "
            f"of its config's kinds, got {len(grid)}: drop the rest",
        )

    if errors:
        raise ConfigError(errors)
    assert out_path is not None and built is not None
    return tuple(
        ExperimentConfig(
            kind=kind,
            model=built,
            params=params,
            out_dir=out_path,
            seed=seed_val,
            **values,
        )
        for kind in kinds
    )


# --------------------------------------------------------------------------
# shared runner plumbing
# --------------------------------------------------------------------------


def _record(
    config: ExperimentConfig, key: tuple, measured: Mapping, verdicts=()
) -> ReportRecord:
    """A record of the config's kind."""
    return ReportRecord(
        kind=config.kind, key=key, measured=measured, verdicts=tuple(verdicts)
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
    return Verdict(name, tol, bound + tol - measured)


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
    fit = isotonic_fit(values)
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


def _chain_point(config: ExperimentConfig, h: float, rho: float) -> ReportRecord:
    phi = _chain_boundary_data(config.model, config.grid[0], h)
    report = verify_lower_chain(phi, rho, config.delta, _CHAIN_EPSILON)
    verdicts = [Verdict(s.name, s.tolerance, s.margin) for s in report.steps]
    measured = {
        "exterior_fraction": report.exterior,
        "measured_ratio": report.measured_ratio,
        "lower_bound": report.lower_bound,
        "epsilon": report.epsilon,
        "delta": report.delta,
    }
    return _record(config, (config.model.name, h, rho), measured, verdicts)


def _run_halfplane_chain(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    points = [
        ((config.model.name, h, rho), partial(_chain_point, config, h, rho))
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
        series.append(
            Series(
                label=f"ratio h={h:g}",
                x=xs,
                y=tuple(m["measured_ratio"] for _, m in items),
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


def _decay_point(config: ExperimentConfig, rho: tuple, h: float) -> ReportRecord:
    model = config.model
    n_t = config.grid[0]
    phi = make_boundary_function(lambda x: np.ones_like(x), n_t, model.lengths[0], h)
    if model.name == "halfplane-unit":
        tolerance = 1e-6
        traces = [apply_halfplane_poisson(phi, r) for r in rho]
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
    fit = decay_fit(traces, rho, h)
    # the depth-0 level is the boundary circle itself, in the same line
    # elements, so the data's own norm is the trace norm there
    ratios = tuple(float(t.ambient_norm / phi.ambient_norm) for t in traces)
    deviation = abs(fit.slope_times_h + 1.0)
    measured = {
        "rho": rho,
        "norm_ratio": ratios,
        "slope": fit.slope,
        "slope_times_h": fit.slope_times_h,
        "fit_residual": fit.residual,
    }
    verdict = _bound_verdict("decay-slope", deviation, 0.0, tolerance)
    return _record(config, (model.name, h), measured, (verdict,))


def _run_decay_sandwich(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    rho = tuple(sorted(config.rho_grid))
    points = [
        ((config.model.name, h), partial(_decay_point, config, rho, h))
        for h in config.h_sweep
    ]
    return _map_points(config.kind, points, jobs)


def _resolvability_limits(kind: str, far: float, grid, h_sweep) -> dict[str, str]:
    """A Poisson solve to ``far`` on grid[1] normal nodes must resolve the
    smallest h: the solver's own rule."""
    if not grid or not h_sweep:
        return {}
    least = _resolving_normal_nodes(far, min(h_sweep))
    if grid[1] >= least:
        return {}
    return {
        "grid": f"{kind} needs at least {least} normal nodes in grid[1] to "
        f"resolve h = {min(h_sweep):g}; refine the normal grid"
    }


def _decay_limits(model: ModelProblem, grid, sweeps) -> dict[str, str]:
    """On the torus the far closure must lie in the forbidden region, which
    the energy decides, every level must certify against it (the solver's
    own check, at the largest h, where the bound is weakest), and the
    normal grid must resolve the smallest h."""
    rho, h = sweeps["rho_grid"], sweeps["h_sweep"]
    if model.name == "halfplane-unit":
        return {}
    if _DECAY_FAR > model.forbidden_extent:
        # decay-sandwich runs only on tangent-invariant models
        v_far = float(potential_at(model, 0.0, _DECAY_FAR))
        return {
            "params": f"E must stay below V at x_n = {_DECAY_FAR:g}, where "
            f"decay-sandwich closes its solve, that is below {v_far:.3g}; "
            f"E = {model.energy:g} is not"
        }
    if not rho or not h:
        return {}
    try:
        _check_far_boundary(model, _DECAY_FAR, max(h), max(rho))
    except ValueError as exc:
        return {"rho_grid": f"decay-sandwich cannot trace depth {max(rho):g}: {exc}"}
    return _resolvability_limits("decay-sandwich", _DECAY_FAR, grid, h)


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
        series.append(
            Series(label=f"measured h={h:g}", x=rho, y=rec.measured["norm_ratio"])
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
    config: ExperimentConfig, traces: list, h: float, lam: float
) -> ReportRecord:
    masses = tuple(
        float(exterior_mass(trace, config.model, lam, h)) for _, trace, _ in traces
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
    return _record(config, (config.model.name, lam), measured, (verdict,))


def _run_exterior_mass(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.model
    (h,) = config.h_sweep
    n_transverse, n_tangential = config.grid[0], config.grid[1]

    transverse = solve_transverse_modes(model, h, model.energy, 1, n=n_transverse)[0]
    traces = []
    for k in _EXTERIOR_MODES:
        mode = assemble_separable_mode(
            transverse, k, model, n_tangential=n_tangential
        )
        trace = surface_trace_of_mode(mode, model)
        traces.append((k, trace, float(trace.ambient_norm**2)))

    points = [
        ((model.name, lam), partial(_exterior_point, config, traces, h, lam))
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
        _record(config, (model.name, "lambda-sweep"), sweep_measured, sweep_verdicts)
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
    series = [Series(label="lambda*mass", x=xs, y=ys)]
    return series, "lambda", "lambda * mass fraction", False, False


# --------------------------------------------------------------------------
# experiment: phase-residual
# --------------------------------------------------------------------------


def _ambient_phase_point(config: ExperimentConfig, xi) -> ReportRecord:
    model = config.model
    series = solve_phase_series(model, "ambient", _PHASE_ORDER, xi)
    # the one leading coefficient row against the barrier on H, which a
    # tangent-invariant model holds constant along it
    barrier = float(potential_at(model, 0.0, 0.0)) - model.energy
    target = np.sqrt(barrier + xi**2)
    deviation = float(np.max(np.abs(series.coefficients[0] - target)))
    verdict = _bound_verdict("ambient-leading-coefficient", deviation, 0.0, 1e-8)
    measured = {"leading_deviation": deviation}
    return _record(config, (model.name, "ambient-leading"), measured, (verdict,))


def _gauged_phase_point(config: ExperimentConfig, xi, depths: tuple) -> ReportRecord:
    model = config.model
    series = solve_phase_series(model, "agmon", _PHASE_ORDER, xi)
    report = phase_residual(series, depths)
    measured = {
        "depth": depths,
        "max_residual": tuple(float(v) for v in report.max_residual),
        "relative_residual": tuple(float(v) for v in report.relative_residual),
        "fitted_exponent": float(report.fitted_exponent),
        "validity_radius": float(report.validity_radius),
    }
    if model.name == "halfplane-unit":
        closed = [
            float(
                np.max(
                    np.abs(
                        evaluate_phase(series, s)
                        - s * (np.sqrt(1.0 + xi**2) - 1.0)
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
            "residual-order", floor, float(report.fitted_exponent - floor)
        )
        name = "residual-order"
    return _record(config, (model.name, name), measured, (verdict,))


def _run_phase_residual(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    xi = np.linspace(-_XI_MAX, _XI_MAX, config.grid[0])
    depths = tuple(sorted(config.rho_grid))
    gauged = partial(_gauged_phase_point, config, xi, depths)
    ambient = partial(_ambient_phase_point, config, xi)
    name = config.model.name
    points = [((name, "gauged"), gauged), ((name, "ambient"), ambient)]
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
    model = config.model
    n_xi = config.grid[0]
    length = model.lengths[0]
    (rho,) = config.rho_grid
    profile = build_cutoff_profile(config.M)
    h_values = tuple(sorted(config.h_sweep, reverse=True))

    def builder(h: float):
        series = solve_phase_series(
            model, "agmon", _PHASE_ORDER, mode_frequencies(n_xi, length, h)
        )
        return build_phase_cutoff(series, profile, rho, h)

    key = (model.name, rho)
    check = partial(symbol_class_check, builder, profile.plateau, 0.5, h_values)
    report = _guarded(config.kind, key, check)

    by_index = dict(zip(report.indices, report.exponents))
    verdicts = []
    for beta in (1, 2):
        exponent = by_index[(0, beta)]
        deviation = abs(exponent + 0.5 * beta)
        verdicts.append(
            _bound_verdict(f"xi-derivative-exponent-beta-{beta}", deviation, 0.0, 0.1)
        )
    # every row counts: a +inf exponent (an exactly vanishing sup) never
    # binds, and a -inf one fails the bound
    margin = float(np.min(report.exponents - report.thresholds))
    verdicts.append(Verdict("class-bound", 0.1, margin))
    measured = {
        "h": h_values,
        "indices": tuple(f"a{a}b{b}" for a, b in report.indices),
        "sups": tuple(tuple(float(v) for v in row) for row in report.sups),
        "exponents": tuple(float(v) for v in report.exponents),
        "plateau": float(profile.plateau),
        "span": float(config.M),
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
    k = np.arange(1, n_tangential // 2)
    ratio = expected_circle_eigenvalue(model, h, k, n_tangential) / (lam * h)
    inside = (ratio > 1.0) & (ratio < 2.0)
    if not np.any(inside):
        raise ValueError(
            f"no tangential mode eigenvalue lands inside the spectral window "
            f"({lam * h:g}, {2 * lam * h:g}) at lam={lam:g}, h={h:g}"
        )
    candidates = k[inside]
    return int(candidates[np.argmin(np.abs(ratio[inside] - _WINDOW_TARGET))])


def _mass_profile_limits(model: ModelProblem, grid, sweeps) -> dict[str, str]:
    """The kind runs one h.  At that h every depth window [0, lam h] must
    lie inside the ambient collar and every spectral window must hold a
    tangential mode of the grid[1]-node level circle."""
    lams, h_sweep = sweeps["lambda_sweep"], sweeps["h_sweep"]
    problems = _one_value("mass-profile", "h_sweep", model, grid, sweeps)
    if problems or not lams or not h_sweep:
        return problems
    h, limit = h_sweep[0], model.collar_width_ambient
    for lam in lams:
        if lam * h > limit + 1e-12:
            return {
                "lambda_sweep": f"mass-profile needs every lam * h at most "
                f"{limit:g}, the ambient collar width of {model.name}; lam = "
                f"{lam:g} at h = {h:g} is not"
            }
        if grid:
            try:
                _window_mode(model, lam, h, grid[1])
            except ValueError as exc:
                return {
                    "lambda_sweep": "mass-profile needs a tangential mode in "
                    f"every window, but {exc}"
                }
    return {}


def _mass_profile_point(
    config: ExperimentConfig, transverse, h: float, lam, k: int
) -> ReportRecord:
    model = config.model
    mode = assemble_separable_mode(transverse, k, model, n_tangential=config.grid[1])
    profile = mass_profile_comparison(mode, model, lam)
    verdict_map = profile.verdict
    verdicts = (
        _bound_verdict("neumann-precondition", verdict_map["neumann_ratio"], 0.0, 1e-8),
        _bound_verdict("ode-oracle-agreement", verdict_map["ode_agreement"], 0.0, 1e-8),
        Verdict("comparison-lower-bound", 1e-9, verdict_map["comparison_margin"]),
        Verdict("windowed-trivial-bound", 1e-9, verdict_map["trivial_bound_margin"]),
        Verdict("initial-mass-bound", 1e-9, verdict_map["l0_bound_margin"]),
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
        "mode_energy": mode.energy,
    }
    return _record(config, (model.name, lam, h, k), measured, verdicts)


def _run_mass_profile(config: ExperimentConfig, jobs: int) -> list[ReportRecord]:
    model = config.model
    (h,) = config.h_sweep
    n_transverse, n_tangential = config.grid[0], config.grid[1]
    transverse = solve_transverse_modes(model, h, model.energy, 1, n=n_transverse)[0]

    points = []
    for lam in config.lambda_sweep:
        pick = partial(_window_mode, model, lam, h, n_tangential)
        k = _guarded(config.kind, (model.name, lam, h), pick)
        points.append(
            (
                (model.name, lam, h, k),
                partial(_mass_profile_point, config, transverse, h, lam, k),
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
        mass = _positive_series(f"L lam={lam:g}", m["r"], m["mass"], "line")
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
    """The comparison depth must lie inside the model's ambient collar, and
    the normal grid must resolve the smallest h."""
    collar = model.collar_width_ambient
    least = math.ceil(_PARAMETRIX_DEPTH_STEPS * _PARAMETRIX_FAR / collar) + 1
    if not grid or grid[1] >= least:
        return _resolvability_limits(
            "parametrix-consistency", _PARAMETRIX_FAR, grid, sweeps["h_sweep"]
        )
    return {
        "grid": f"parametrix-consistency needs at least {least} normal nodes "
        f"in grid[1], so that its comparison depth lies inside the collar "
        f"[0, {collar:g}]"
    }


def _parametrix_point(
    config: ExperimentConfig, level, rho: float, h: float
) -> ReportRecord:
    model = config.model
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
        model, "agmon", _PARAMETRIX_ORDER, mode_frequencies(n_tangential, length, h)
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
    return _record(config, (model.name, h, rho), measured)


def _run_parametrix_consistency(
    config: ExperimentConfig, jobs: int
) -> list[ReportRecord]:
    model = config.model
    n_tangential, n_normal = config.grid[0], config.grid[1]
    s_star = _PARAMETRIX_DEPTH_STEPS * _PARAMETRIX_FAR / (n_normal - 1)
    rho = weighted_depth(model, s_star)
    level = separable_level_set(model, rho, n_tangential=n_tangential)

    point = partial(_parametrix_point, config, level, rho)
    points = [((model.name, h, rho), partial(point, h)) for h in config.h_sweep]
    records = _map_points(config.kind, points, jobs)

    h_values = np.array(config.h_sweep)
    errors = np.array([rec.measured["rel_error"] for rec in records])
    order = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    sweep_measured = {
        "h": config.h_sweep,
        "rel_error": tuple(float(e) for e in errors),
        "fitted_order": order,
    }
    verdict = Verdict("consistency-order", 0.7, order - 0.7)
    records.append(
        _record(config, (model.name, "order-fit"), sweep_measured, (verdict,))
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
    series = [Series(label="relative error", x=xs, y=ys)]
    return series, "h", "relative error", True, True


# --------------------------------------------------------------------------
# the kind table
# --------------------------------------------------------------------------

# The phase kinds run on every tangent-invariant model; the separable-torus
# kinds need its transverse modes or collar.  halfplane-chain applies the
# flat unit-barrier multiplier, so it runs on halfplane-unit alone.
_KINDS: dict[str, _KindSpec] = {
    "halfplane-chain": _KindSpec(
        run=_run_halfplane_chain,
        reads=frozenset({"h_sweep", "rho_grid", "delta", "grid"}),
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
        models={"halfplane-unit": 1},
    ),
    "decay-sandwich": _KindSpec(
        run=_run_decay_sandwich,
        reads=frozenset({"h_sweep", "rho_grid", "grid"}),
        columns=("h", "rho", "norm_ratio", "slope_times_h", "fit_residual"),
        rows=_decay_rows,
        plot=_decay_plot,
        models={"halfplane-unit": 1, "separable-torus": 2},
        minimums={"rho_grid": (4, "distinct depths")},
        limits_check=_decay_limits,
    ),
    "exterior-mass": _KindSpec(
        run=_run_exterior_mass,
        reads=frozenset({"h_sweep", "lambda_sweep", "grid"}),
        columns=("lam", "k", "mass", "norm_sq", "fraction", "lambda_mass"),
        rows=_exterior_rows,
        plot=_exterior_plot,
        models={"separable-torus": 2},
        grid_minimums=(_TRANSVERSE_NODES, _LEVEL_CIRCLE_NODES),
        limits_check=partial(_one_value, "exterior-mass", "h_sweep"),
    ),
    "phase-residual": _KindSpec(
        run=_run_phase_residual,
        reads=frozenset({"rho_grid", "grid"}),
        columns=("check", "depth", "max_residual", "relative_residual"),
        rows=_phase_rows,
        plot=_phase_plot,
        models=dict.fromkeys(TANGENT_INVARIANT_MODELS, 1),
        limits_check=_phase_limits,
    ),
    "symbol-class": _KindSpec(
        run=_run_symbol_class,
        reads=frozenset({"h_sweep", "rho_grid", "M", "grid"}),
        columns=("alpha", "beta", "h", "sup"),
        rows=_symbol_rows,
        plot=_symbol_plot,
        models=dict.fromkeys(TANGENT_INVARIANT_MODELS, 1),
        minimums={"h_sweep": (4, "dyadic h values")},
        limits_check=partial(_one_value, "symbol-class", "rho_grid"),
    ),
    "mass-profile": _KindSpec(
        run=_run_mass_profile,
        reads=frozenset({"h_sweep", "lambda_sweep", "grid"}),
        columns=("lam", "h", "k", "r", "mass", "comparison"),
        rows=_mass_profile_rows,
        plot=_mass_profile_plot,
        models={"separable-torus": 2},
        grid_minimums=(_TRANSVERSE_NODES, _LEVEL_CIRCLE_NODES),
        limits_check=_mass_profile_limits,
    ),
    "parametrix-consistency": _KindSpec(
        run=_run_parametrix_consistency,
        reads=frozenset({"h_sweep", "grid"}),
        columns=("h", "rho", "rel_error", "fitted_order"),
        rows=_parametrix_rows,
        plot=_parametrix_plot,
        models={"separable-torus": 2},
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
    """``value`` as strict JSON: numpy scalars as Python numbers, and a
    non-finite float as the string "nan", "inf" or "-inf"."""
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _json_value(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _provenance() -> dict:
    """Package versions and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "agmonlab": __version__,
        },
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def write_summary_json(
    records: tuple[ReportRecord, ...], config: ExperimentConfig, path: Path
) -> bool:
    """The JSON summary: config echo (the model, params, seed and the keys
    the kind reads), provenance once, all verdicts.  Returns whether every
    verdict passed."""
    all_passed = all(rec.passed for rec in records)
    payload = {
        "kind": config.kind,
        "csv_schema": _CSV_SCHEMA_VERSION,
        "config": {
            "model": config.model.name,
            "params": dict(config.params),
            "seed": config.seed,
            **{
                key: _json_value(getattr(config, key))
                for key in _KINDS[config.kind].reads
            },
        },
        "provenance": _provenance(),
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
            }
            for rec in records
        ],
        "all_passed": all_passed,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
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
    records = tuple(_guarded(config.kind, (config.model.name,), run))
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.kind}.csv"
    summary_path = out_dir / f"{config.kind}.json"
    write_sweep_csv(records, config.kind, csv_path)
    write_summary_json(records, config, summary_path)
    plot_paths = emit_plots(records, config.kind, out_dir)
    return ExperimentResult(
        records=records,
        csv_path=csv_path,
        summary_path=summary_path,
        plot_paths=plot_paths,
    )
