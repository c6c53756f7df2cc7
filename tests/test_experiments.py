"""Tests for the config-driven experiment runners and their reports."""

import csv
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from agmonlab import experiments, fcalc, hjphase, solver
from agmonlab.experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentError,
    ReportRecord,
    Verdict,
    _isotonic_rise,
    _variation_factor,
    emit_plots,
    load_config,
    parse_config,
    run_experiment,
)
from agmonlab.models import ModelProblem, make_model


# The config keys each kind reads beyond the run keys (kind, model, params,
# out and seed), traced through its runner and limits check.  Written out
# here, not taken from the package, so that the tests check the code's own
# schema against it.
READS = {
    "halfplane-chain": ("h_sweep", "rho_grid", "delta", "grid"),
    "decay-sandwich": ("h_sweep", "rho_grid", "grid"),
    "exterior-mass": ("h_sweep", "lambda_sweep", "grid"),
    "phase-residual": ("rho_grid", "grid"),
    "symbol-class": ("h_sweep", "rho_grid", "M", "grid"),
    "mass-profile": ("h_sweep", "lambda_sweep", "grid"),
    "parametrix-consistency": ("h_sweep", "grid"),
}
# A value for every key some kind reads.
READ_VALUES = {
    "h_sweep": [0.1, 0.05],
    "rho_grid": [0.1, 0.2],
    "lambda_sweep": [2.0, 4.0],
    "M": 8.0,
    "delta": 0.5,
    "grid": [256],
}


def payload(**overrides):
    """A halfplane-unit config that holds exactly the keys its kinds read."""
    kind = overrides.get("kind", "halfplane-chain")
    base = {"kind": "halfplane-chain", "model": "halfplane-unit", "out": "out"}
    for name in [kind] if isinstance(kind, str) else kind:
        base.update((key, READ_VALUES[key]) for key in READS.get(name, ()))
    base.update(overrides)
    return base


# Each kind's fixed CSV header, and small sweeps that run it in well under a
# second on a model it supports.
KIND_COLUMNS = {
    "halfplane-chain": (
        "h,rho,delta,epsilon,exterior,measured_ratio,lower_bound,margin,passed"
    ),
    "decay-sandwich": "h,rho,norm_ratio,slope_times_h,fit_residual",
    "exterior-mass": "lam,k,mass,norm_sq,fraction,lambda_mass",
    "phase-residual": "check,depth,max_residual,relative_residual",
    "symbol-class": "alpha,beta,h,sup",
    "mass-profile": "lam,h,k,r,mass,comparison",
    "parametrix-consistency": "h,rho,rel_error,fitted_order",
}
SMALL_RUNS = {
    "halfplane-chain": {},
    "decay-sandwich": {"rho_grid": [0.05, 0.1, 0.2, 0.3]},
    "exterior-mass": {
        "model": "separable-torus",
        "h_sweep": [0.1],
        "grid": [256, 64],
    },
    "phase-residual": {
        "model": "separable-torus",
        "rho_grid": [0.05, 0.1, 0.15, 0.2],
        "grid": [33],
    },
    "symbol-class": {
        "h_sweep": [0.1, 0.05, 0.025, 0.0125],
        "rho_grid": [0.25],
        "grid": [128],
    },
    "mass-profile": {
        "model": "separable-torus",
        "h_sweep": [0.1],
        "lambda_sweep": [2.0],
        "grid": [256, 128],
    },
    "parametrix-consistency": {
        "model": "separable-torus",
        "grid": [32, 801],
    },
}
# Every catalogue model a kind cannot run on, rejected before any compute.
UNSUPPORTED = [
    ("halfplane-chain", "separable-torus"),
    ("halfplane-chain", "strip-2d"),
    ("decay-sandwich", "strip-2d"),
    ("exterior-mass", "halfplane-unit"),
    ("exterior-mass", "strip-2d"),
    ("phase-residual", "strip-2d"),
    ("symbol-class", "strip-2d"),
    ("mass-profile", "halfplane-unit"),
    ("mass-profile", "strip-2d"),
    ("parametrix-consistency", "halfplane-unit"),
    ("parametrix-consistency", "strip-2d"),
]
SHIPPED_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.json")
)


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "reports"


class TestParseConfig:
    def test_accepts_minimal_payload(self, out_dir):
        (config,) = parse_config(payload(out=str(out_dir)))
        assert config.kind == "halfplane-chain"
        assert config.h_sweep == (0.1, 0.05)
        assert config.out_dir == out_dir
        assert config.seed == 0

    def test_kind_list_yields_one_config_each(self, out_dir):
        configs = parse_config(
            payload(
                kind=["halfplane-chain", "decay-sandwich"],
                rho_grid=[0.05, 0.1, 0.2, 0.3],
                out=str(out_dir),
            )
        )
        assert [c.kind for c in configs] == ["halfplane-chain", "decay-sandwich"]

    def test_reports_every_violated_field(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"kind": "decay-sandwich"})
        fields = excinfo.value.field_errors
        assert "model" in fields
        for name in ("h_sweep", "rho_grid", "grid"):
            assert fields[name] == "required key is missing"
        # only the window kinds read lambda_sweep
        assert "lambda_sweep" not in fields

    def test_empty_h_sweep_is_a_config_error(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(h_sweep=[], out=str(out_dir)))
        assert "h_sweep" in excinfo.value.field_errors

    def test_duplicate_h_values_rejected(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(h_sweep=[0.1, 0.1], out=str(out_dir)))
        assert "distinct" in excinfo.value.field_errors["h_sweep"]

    def test_nonpositive_values_rejected(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(rho_grid=[0.1, -0.2], out=str(out_dir)))
        assert "rho_grid" in excinfo.value.field_errors

    def test_decay_depth_checked_at_the_largest_h(self, out_dir):
        # depth 1.5 lies inside the far closure's weighted depth 1.847, but
        # its tunneling bound certifies only h = 0.05, not h = 0.1
        base = payload(
            kind="decay-sandwich",
            model="separable-torus",
            rho_grid=[0.05, 0.1, 0.2, 1.5],
            grid=[64, 801],
            out=str(out_dir),
        )
        parse_config({**base, "h_sweep": [0.05]})
        with pytest.raises(ConfigError) as excinfo:
            parse_config({**base, "h_sweep": [0.05, 0.1]})
        problem = excinfo.value.field_errors["rho_grid"]
        assert "keep the deepest level below 1.156" in problem

    def test_under_resolved_decay_grid_rejected(self, out_dir):
        # 512 normal rows to x_n = 1.9 give h / dx_n = 0.67 at h = 0.0025,
        # where the run fits decay-slope with margin -0.19; the solver's
        # rule h >= 4 dx_n needs 4 * 1.9 / 0.0025 + 1 = 3,041 rows
        base = payload(
            kind="decay-sandwich",
            model="separable-torus",
            h_sweep=[0.02, 0.0025],
            rho_grid=[0.1, 0.2, 0.3, 0.4],
            grid=[512, 512],
            out=str(out_dir),
        )
        for rows in (512, 3040):
            with pytest.raises(ConfigError) as excinfo:
                parse_config({**base, "grid": [512, rows]})
            errors = excinfo.value.field_errors
            assert set(errors) == {"grid"}
            assert "at least 3041 normal nodes in grid[1]" in errors["grid"]
            assert "h = 0.0025" in errors["grid"]
        parse_config({**base, "grid": [512, 3041]})

    def test_under_resolved_parametrix_grid_rejected(self, out_dir):
        # the collar needs 123 normal rows to x_n = 1; h = 0.001 needs 4,001
        base = payload(
            kind="parametrix-consistency",
            model="separable-torus",
            h_sweep=[0.1, 0.001],
            grid=[32, 801],
            out=str(out_dir),
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(base)
        problem = excinfo.value.field_errors["grid"]
        assert "parametrix-consistency needs at least 4001 normal nodes" in problem
        parse_config({**base, "grid": [32, 4001]})

    def test_decay_energy_past_the_far_closure_rejected_under_params(self, out_dir):
        # V - E = 1 + cos(x_n) - E turns negative before the far closure at
        # x_n = 1.9 once E exceeds 1 + cos 1.9
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(
                    kind="decay-sandwich",
                    model="separable-torus",
                    params={"E": 0.9},
                    rho_grid=[0.1, 0.2, 0.3, 0.4],
                    grid=[64, 801],
                    out=str(out_dir),
                )
            )
        errors = excinfo.value.field_errors
        assert set(errors) == {"params"}
        assert "E must stay below V at x_n = 1.9" in errors["params"]
        assert f"below {1.0 + math.cos(1.9):.3g}" in errors["params"]

    def test_reachable_depths_keep_other_rho_grid_errors(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(
                    kind="decay-sandwich",
                    model="separable-torus",
                    rho_grid=[0.1, 5.0],
                    grid=[64, 801],
                    out=str(out_dir),
                )
            )
        assert "4 distinct depths" in excinfo.value.field_errors["rho_grid"]

    def test_unknown_key_rejected(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(epsilon=0.1, out=str(out_dir)))
        assert "epsilon" in excinfo.value.field_errors

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_key_no_configured_kind_reads_rejected(self, out_dir, kind):
        unread = [key for key in READ_VALUES if key not in READS[kind]]
        for key in [*unread, "epsilon"]:
            overrides = {**SMALL_RUNS[kind], "kind": kind, key: 0.5}
            with pytest.raises(ConfigError) as excinfo:
                parse_config(payload(out=str(out_dir), **overrides))
            assert excinfo.value.field_errors == {
                key: f"no configured kind reads {key} ({kind}): drop it"
            }

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_each_key_a_kind_reads_is_required(self, out_dir, kind):
        for key in READS[kind]:
            raw = payload(out=str(out_dir), **{**SMALL_RUNS[kind], "kind": kind})
            del raw[key]
            with pytest.raises(ConfigError) as excinfo:
                parse_config(raw)
            assert excinfo.value.field_errors == {key: "required key is missing"}

    def test_a_key_one_configured_kind_reads_is_accepted(self, tmp_path):
        # halfplane-chain reads delta, so its decay-sandwich neighbour in
        # the shipped config carries it too; alone, decay-sandwich rejects it
        raw = load_config(SHIPPED_CONFIGS[0].parent / "halfplane.json")
        chain, decay = parse_config(raw, out_dir=tmp_path)
        assert chain.delta == decay.delta == 0.5
        # a field that no configured kind reads holds no value
        assert chain.M is None and chain.lambda_sweep == ()
        with pytest.raises(ConfigError) as excinfo:
            parse_config({**raw, "kind": "decay-sandwich"}, out_dir=tmp_path)
        assert excinfo.value.field_errors == {
            "delta": "no configured kind reads delta (decay-sandwich): drop it"
        }

    def test_list_inside_kind_is_a_config_error(self, out_dir):
        raw = {"kind": [["halfplane-chain"]], "model": "halfplane-unit"}
        with pytest.raises(ConfigError) as excinfo:
            parse_config({**raw, "out": str(out_dir)})
        assert set(excinfo.value.field_errors) == {"kind"}
        assert "unknown kind" in excinfo.value.field_errors["kind"]

    def test_kind_listed_twice_rejected(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(kind=["halfplane-chain", "halfplane-chain"], out=str(out_dir))
            )
        assert set(excinfo.value.field_errors) == {"kind"}
        message = excinfo.value.field_errors["kind"]
        assert "halfplane-chain" in message and "once" in message

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("halfplane-chain", "delta", math.inf),
            ("halfplane-chain", "delta", math.nan),
            ("symbol-class", "M", math.nan),
            ("symbol-class", "M", math.inf),
            ("halfplane-chain", "h_sweep", [0.1, math.inf]),
            ("halfplane-chain", "rho_grid", [math.inf]),
            ("exterior-mass", "lambda_sweep", [2.0, math.inf]),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, kind, key, value):
        # JSON's NaN and Infinity literals load as floats
        overrides = {**SMALL_RUNS[kind], "kind": kind, key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload(out=str(tmp_path), **overrides)))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ConfigError) as excinfo:
            parse_config(load_config(path))
        assert set(excinfo.value.field_errors) == {key}
        assert "finite" in excinfo.value.field_errors[key]

    @pytest.mark.parametrize(
        "key, value",
        [("h_sweep", [10**400]), ("M", 10**400), ("params", {"E": 10**400})],
        ids=["h_sweep", "M", "params"],
    )
    def test_integer_beyond_float_range_rejected(self, tmp_path, key, value):
        # JSON integers load as Python ints of any size; one too large for
        # a float is a config error, not an OverflowError
        overrides = {**SMALL_RUNS["symbol-class"], "kind": "symbol-class", key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload(out=str(tmp_path), **overrides)))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(load_config(path))
        assert set(excinfo.value.field_errors) == {key}

    @pytest.mark.parametrize(
        "params, problem",
        [
            ({"EE": 0.3}, "separable-torus has no parameter EE; its parameters are E"),
            ({"E": "0.3"}, "parameter values must be finite numbers"),
            ({"E": True}, "parameter values must be finite numbers"),
        ],
        ids=["unknown-key", "string", "bool"],
    )
    def test_model_params_rejected(self, out_dir, params, problem):
        # a misspelt key would run at the model's default while the summary
        # echoes it, and a string or a bool is not a JSON number
        overrides = {**SMALL_RUNS["parametrix-consistency"], "params": params}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(kind="parametrix-consistency", out=str(out_dir), **overrides)
            )
        assert excinfo.value.field_errors == {"params": problem}

    def test_negative_model_param_is_a_number(self, out_dir):
        # parameters take any sign; the model validates the values it reads
        overrides = {**SMALL_RUNS["parametrix-consistency"], "params": {"E": -0.5}}
        (config,) = parse_config(
            payload(kind="parametrix-consistency", out=str(out_dir), **overrides)
        )
        assert config.model.energy == -0.5

    @pytest.mark.parametrize(
        "kind, grid",
        [("halfplane-chain", [10**400]), ("parametrix-consistency", [32, 10**400])],
        ids=["halfplane-chain", "parametrix-consistency"],
    )
    def test_grid_entry_beyond_float_range_rejected(self, tmp_path, kind, grid):
        # a grid size too large for a float fails the sweeps' own rule at
        # parse time, not the run at its first point
        overrides = {**SMALL_RUNS[kind], "kind": kind, "grid": grid}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload(out=str(tmp_path), **overrides)))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(load_config(path))
        assert set(excinfo.value.field_errors) == {"grid"}
        assert "float range" in excinfo.value.field_errors["grid"]

    @pytest.mark.parametrize(
        "kinds, model, accepted, grid, reader",
        [
            (
                "halfplane-chain",
                "halfplane-unit",
                [256],
                [256, 999],
                "halfplane-chain reads 1 grid size,",
            ),
            (
                "symbol-class",
                "halfplane-unit",
                [1024],
                [1, 1024],
                "symbol-class reads 1 grid size,",
            ),
            (
                ["parametrix-consistency", "symbol-class"],
                "separable-torus",
                [32, 801],
                [32, 801, 7],
                "parametrix-consistency reads 2 grid sizes,",
            ),
        ],
        ids=["halfplane-chain", "symbol-class-old-layout", "two-kinds"],
    )
    def test_grid_entry_no_kind_reads_rejected(
        self, out_dir, kinds, model, accepted, grid, reader
    ):
        # the grid holds as many sizes as the configured kind that reads
        # the most of them, and no more
        config = payload(kind=kinds, model=model, out=str(out_dir))
        if "symbol-class" in kinds:
            config.update(SMALL_RUNS["symbol-class"])
        parse_config({**config, "grid": accepted})
        with pytest.raises(ConfigError) as excinfo:
            parse_config({**config, "grid": grid})
        assert set(excinfo.value.field_errors) == {"grid"}
        message = excinfo.value.field_errors["grid"]
        assert reader in message and f"got {len(grid)}" in message

    def test_unknown_model_rejected(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(model="no-such-model", out=str(out_dir)))
        assert "model" in excinfo.value.field_errors

    def test_unknown_kind_rejected(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(kind="no-such-kind", out=str(out_dir)))
        assert "kind" in excinfo.value.field_errors

    def test_symbol_class_needs_four_h_values(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(kind="symbol-class", grid=[128], out=str(out_dir)))
        assert "h_sweep" in excinfo.value.field_errors

    @pytest.mark.parametrize(
        "kind, key, values",
        [
            ("exterior-mass", "h_sweep", [0.1, 0.05]),
            ("mass-profile", "h_sweep", [0.1, 0.05]),
            ("symbol-class", "rho_grid", [0.25, 0.5]),
        ],
    )
    def test_kind_running_one_value_rejects_a_longer_sweep(
        self, out_dir, kind, key, values
    ):
        overrides = {**SMALL_RUNS[kind], "kind": kind, key: values}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(out=str(out_dir), **overrides))
        assert set(excinfo.value.field_errors) == {key}
        message = excinfo.value.field_errors[key]
        assert kind in message and "one value" in message

    @pytest.mark.parametrize("kind, model", UNSUPPORTED)
    def test_unsupported_model_rejected_before_compute(self, out_dir, kind, model):
        overrides = {**SMALL_RUNS[kind], "kind": kind, "model": model}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(out=str(out_dir), **overrides))
        message = excinfo.value.field_errors["model"]
        assert kind in message
        assert model in message
        # names a model that works
        works = "halfplane-unit" if kind == "halfplane-chain" else "separable-torus"
        assert works in message

    def test_out_directory_is_left_to_the_run(self, tmp_path):
        nested = tmp_path / "a" / "b"
        (config,) = parse_config(payload(out=str(nested)))
        assert config.out_dir == nested
        assert not (tmp_path / "a").exists()

    def test_out_below_a_file_is_a_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(out=str(blocker / "reports")))
        assert "is not a writable directory" in excinfo.value.field_errors["out"]

    def test_overrides_take_precedence(self, tmp_path):
        (config,) = parse_config(
            payload(out="ignored", seed=3),
            out_dir=str(tmp_path / "o"),
            seed=11,
        )
        assert config.out_dir == tmp_path / "o"
        assert config.seed == 11

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as excinfo:
            load_config(tmp_path / "absent.json")
        assert "config" in excinfo.value.field_errors

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestConfigModel:
    """A parsed config carries its validated model, built once per file."""

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_each_model_is_built_once_per_config_file(
        self, path, tmp_path, monkeypatch
    ):
        built = []

        def counting_make_model(name, params=None):
            built.append(name)
            return make_model(name, params)

        monkeypatch.setattr(experiments, "make_model", counting_make_model)
        raw = load_config(path)
        configs = parse_config(raw, out_dir=tmp_path)
        for config in configs:
            assert run_experiment(config).passed
        assert built == [raw["model"]]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_configs_of_one_parse_share_one_model(self, path, tmp_path):
        raw = load_config(path)
        configs = parse_config(raw, out_dir=tmp_path)
        model = configs[0].model
        assert isinstance(model, ModelProblem)
        assert model.name == raw["model"]
        assert all(config.model is model for config in configs)


# verdicts per (config file, experiment kind) of the shipped configs
SHIPPED_VERDICTS = {
    ("halfplane", "halfplane-chain"): 48,
    ("halfplane", "decay-sandwich"): 3,
    ("parametrix", "parametrix-consistency"): 1,
    ("symbol-class", "symbol-class"): 3,
    ("torus-decay", "decay-sandwich"): 1,
    ("torus-decay", "phase-residual"): 2,
    ("torus-windows", "exterior-mass"): 5,
    ("torus-windows", "mass-profile"): 15,
}


# The traced peak memory every shipped config kind's run must stay under.
# The largest measured is exterior-mass's 3.04 MiB (its 128 assembled
# complex modes); a mode-direct Poisson solve forms only the rows its
# certified traces read and a separable mode is splined as its one normal
# profile, so parametrix-consistency's 64 x 24,001 solves peak at 1.7 MiB,
# torus decay-sandwich at 1.8 MiB and mass-profile at 2.0 MiB.
KIND_PEAK_CEILING = 3.5 * 2**20


def run_shipped_configs(
    out: Path, peaks: dict | None = None
) -> dict[tuple[str, str], list[Verdict]]:
    """Every shipped config at seed 7, as ``agmonlab run --seed 7`` runs it;
    with ``peaks``, each kind's run is traced and its peak memory in bytes
    recorded there by (config file, kind)."""
    verdicts = {}
    for path in SHIPPED_CONFIGS:
        for config in parse_config(
            load_config(path), out_dir=out / path.stem, seed=7
        ):
            key = (path.stem, config.kind)
            if peaks is None:
                result = run_experiment(config)
            else:
                tracemalloc.start()
                try:
                    result = run_experiment(config)
                    peaks[key] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            verdicts[key] = [v for rec in result.records for v in rec.verdicts]
    return verdicts


def test_shipped_configs_pass_and_rerun_byte_identically(tmp_path):
    first = run_shipped_configs(tmp_path / "first")
    counts = {key: len(found) for key, found in first.items()}
    assert counts == SHIPPED_VERDICTS
    assert sum(counts.values()) == 78
    failed = [
        (key, v.name) for key, found in first.items() for v in found if not v.passed
    ]
    assert failed == []

    run_shipped_configs(tmp_path / "second")
    artifacts = sorted(
        p.relative_to(tmp_path / "first")
        for p in (tmp_path / "first").rglob("*")
        if p.suffix in (".csv", ".json", ".svg")
    )
    assert len(artifacts) == 24
    for rel in artifacts:
        again = tmp_path / "second" / rel
        assert again.read_bytes() == (tmp_path / "first" / rel).read_bytes(), rel
    # each config echo holds what its kind read, and nothing else
    for rel in artifacts:
        if rel.suffix == ".json":
            summary = json.loads((tmp_path / "first" / rel).read_text())
            echo = set(summary["config"])
            assert echo == {"model", "params", "seed", *READS[summary["kind"]]}, rel


def test_each_shipped_kind_peaks_under_the_memory_ceiling(tmp_path):
    peaks = {}
    run_shipped_configs(tmp_path, peaks)
    assert set(peaks) == set(SHIPPED_VERDICTS)
    over = {key: peak for key, peak in peaks.items() if peak > KIND_PEAK_CEILING}
    assert over == {}


class Unread:
    """A config value that its kind does not declare: any use raises."""

    def __init__(self, key):
        self.key = key

    def _fail(self, *args):
        raise AssertionError(f"the run used {self.key}, which its kind does not read")

    __getattr__ = __getitem__ = __iter__ = __len__ = __bool__ = _fail
    __float__ = __int__ = __index__ = __format__ = __hash__ = _fail
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _fail
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _fail
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = _fail


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_a_run_uses_only_the_keys_its_kind_reads(tmp_path, kind):
    # every field outside the kind's reads is replaced by a value that
    # raises on any use; the run must write the same CSV
    overrides = {**SMALL_RUNS[kind], "kind": kind}
    (config,) = parse_config(payload(out=str(tmp_path / "parsed"), **overrides))
    unread = {key: Unread(key) for key in READ_VALUES if key not in READS[kind]}
    assert unread
    poisoned = dataclasses.replace(config, out_dir=tmp_path / "poisoned", **unread)
    expected = run_experiment(config).csv_path.read_bytes()
    assert run_experiment(poisoned).csv_path.read_bytes() == expected


def test_symbol_class_builds_one_taylor_table_per_h(tmp_path, monkeypatch):
    # each h builds one gauged series; its phase function reads the series'
    # own Taylor table instead of rebuilding it
    calls = []
    original = hjphase.agmon_metric_taylor

    def counted(model, order):
        calls.append(order)
        return original(model, order)

    monkeypatch.setattr(hjphase, "agmon_metric_taylor", counted)
    raw = load_config(SHIPPED_CONFIGS[0].parent / "symbol-class.json")
    (config,) = parse_config(raw, out_dir=tmp_path)
    assert run_experiment(config).passed
    assert len(raw["h_sweep"]) == 4
    assert len(calls) == 4


class TestSweepStatistics:
    def test_variation_factor_all_zero_is_one(self):
        assert _variation_factor(np.zeros(4)) == 1.0

    def test_variation_factor_with_zero_minimum_is_infinite(self):
        assert math.isinf(_variation_factor(np.array([0.0, 1.0])))

    def test_variation_factor_positive(self):
        assert _variation_factor(np.array([1.0, 3.0, 2.0])) == pytest.approx(3.0)

    def test_isotonic_rise_zero_for_decreasing(self):
        assert _isotonic_rise(np.array([3.0, 2.0, 1.0])) == 0.0

    def test_isotonic_rise_tracks_increase(self):
        assert _isotonic_rise(np.array([1.0, 2.0, 4.0])) == pytest.approx(3.0)


class TestRunExperiment:
    @staticmethod
    def _shipped_parametrix(tmp_path):
        path = Path(__file__).resolve().parents[1] / "configs" / "parametrix.json"
        (config,) = parse_config(json.loads(path.read_text()), out_dir=tmp_path)
        assert config.grid == (64, 24001)
        return config

    def test_shipped_parametrix_run_peaks_near_half_a_field(self, tmp_path):
        # on its own 64 x 24,001 grid each of its four direct solves peaks
        # at one block of the mode factor next to the kept unit rows, and
        # forms only the rows its trace reads: 0.13 fields traced for the
        # whole run
        config = self._shipped_parametrix(tmp_path)
        tracemalloc.start()
        try:
            result = run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak <= 0.7 * 64 * 24001 * 8

    def test_shipped_parametrix_level_is_a_normal_node(self, tmp_path, monkeypatch):
        # the comparison depth lands on normal node _PARAMETRIX_DEPTH_STEPS
        # (1.4e-16 away), so the trace copies node values
        traced = []
        trace_at = experiments.trace_at

        def recorded(field, level):
            traced.append(level.points[:, 1] - field.normal_nodes[steps])
            return trace_at(field, level)

        steps = experiments._PARAMETRIX_DEPTH_STEPS
        monkeypatch.setattr(experiments, "trace_at", recorded)
        assert run_experiment(self._shipped_parametrix(tmp_path)).passed
        assert len(traced) == 4
        assert np.max(np.abs(traced)) <= 1e-12

    def test_shipped_parametrix_run_forms_no_field(self, tmp_path, monkeypatch):
        # its tangent-invariant solves form only the rows that their traces
        # read, a small share of the rows they solve
        held = []
        bvp = experiments.poisson_bvp

        def recorded(*args, **kwargs):
            field = bvp(*args, **kwargs)
            held.append(field.normal_nodes.size / field.meta["n_normal"])
            return field

        monkeypatch.setattr(experiments, "poisson_bvp", recorded)
        assert run_experiment(self._shipped_parametrix(tmp_path)).passed
        assert len(held) == 4
        assert max(held) <= 0.01  # 146 of 24,001 rows

    def test_shipped_configs_decompose_no_operator(self, tmp_path, monkeypatch):
        # the window masses read the closed-form circle eigenvalues and
        # mass-profile states C = 0, so no shipped run projects a matrix
        eigh_calls, spectral_calls = [], []
        eigh, spectral = np.linalg.eigh, fcalc.spectral_calculus

        def counted_eigh(a):
            eigh_calls.append(np.shape(a))
            return eigh(a)

        def counted_spectral(P, ext):
            spectral_calls.append(np.shape(P))
            return spectral(P, ext)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(fcalc, "spectral_calculus", counted_spectral)
        kinds = []
        for path in SHIPPED_CONFIGS:
            for config in parse_config(load_config(path), out_dir=tmp_path / path.stem):
                assert run_experiment(config).passed
                kinds.append(config.kind)
        assert {"exterior-mass", "mass-profile"} <= set(kinds)
        assert eigh_calls == []
        assert spectral_calls == []

    def test_chain_records_and_files(self, out_dir):
        (config,) = parse_config(payload(out=str(out_dir)))
        result = run_experiment(config)
        assert result.passed
        assert len(result.records) == 4  # 2 h values x 2 depths
        names = {v.name for rec in result.records for v in rec.verdicts}
        assert names == {
            "plancherel",
            "zero-section-mass",
            "multiplier-floor",
            "trace-lower-bound",
        }
        assert result.csv_path.exists()
        assert result.summary_path.exists()
        assert all(p.exists() for p in result.plot_paths)

    def test_chain_csv_header(self, out_dir):
        (config,) = parse_config(payload(out=str(out_dir)))
        result = run_experiment(config)
        header = result.csv_path.read_text().splitlines()[0]
        assert header == (
            "h,rho,delta,epsilon,exterior,measured_ratio,lower_bound,margin,passed"
        )

    def test_summary_json_carries_all_verdicts(self, out_dir):
        (config,) = parse_config(payload(out=str(out_dir)))
        result = run_experiment(config)
        summary = json.loads(result.summary_path.read_text())
        assert summary["kind"] == "halfplane-chain"
        assert summary["all_passed"] is True
        assert len(summary["records"]) == 4
        for record in summary["records"]:
            for verdict in record["verdicts"]:
                assert set(verdict) == {"name", "passed", "tolerance", "margin"}

    def test_flat_decay_slope_is_minus_one(self, out_dir):
        (config,) = parse_config(
            payload(
                kind="decay-sandwich",
                rho_grid=[0.05, 0.1, 0.2, 0.3],
                out=str(out_dir),
            )
        )
        result = run_experiment(config)
        assert result.passed
        for rec in result.records:
            assert rec.measured["slope_times_h"] == pytest.approx(-1.0, abs=1e-9)

    def test_torus_decay_slope_within_ten_percent(self, out_dir):
        (config,) = parse_config(
            payload(
                kind="decay-sandwich",
                model="separable-torus",
                h_sweep=[0.05],
                rho_grid=[0.1, 0.2, 0.3, 0.4],
                grid=[128, 2001],
                out=str(out_dir),
            )
        )
        result = run_experiment(config)
        assert result.passed
        slope = result.records[0].measured["slope_times_h"]
        assert abs(slope + 1.0) < 0.1

    def test_decay_rejects_unsupported_geometry(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(
                    kind="decay-sandwich",
                    model="strip-2d",
                    rho_grid=[0.05, 0.1, 0.2, 0.3],
                    grid=[128, 101],
                    out=str(out_dir),
                )
            )
        message = excinfo.value.field_errors["model"]
        assert "decay-sandwich" in message
        assert "halfplane-unit" in message
        assert "separable-torus" in message

    def test_module_error_carries_key_tuple(self, out_dir):
        # 100 nodes is not a power of two; the transform rejects it at the
        # first sweep point and the error names that point.
        (config,) = parse_config(
            payload(h_sweep=[0.1], rho_grid=[0.1], grid=[100], out=str(out_dir))
        )
        with pytest.raises(ExperimentError) as excinfo:
            run_experiment(config)
        assert excinfo.value.key == ("halfplane-unit", 0.1, 0.1)

    def test_exterior_mass_zero_window_family(self, out_dir):
        (config,) = parse_config(
            payload(
                kind="exterior-mass",
                model="separable-torus",
                h_sweep=[0.1],
                lambda_sweep=[2.0, 4.0, 8.0, 16.0],
                grid=[256, 128],
                out=str(out_dir),
            )
        )
        result = run_experiment(config)
        assert result.passed
        sweep = result.records[-1]
        assert sweep.key[-1] == "lambda-sweep"
        assert sweep.measured["lambda_mass"] == (0.0, 0.0, 0.0, 0.0)
        assert sweep.measured["variation_factor"] == 1.0
        names = [v.name for v in sweep.verdicts]
        assert names == ["bounded-variation", "no-growth-trend"]

    def test_mass_profile_verdicts(self, out_dir):
        (config,) = parse_config(
            payload(
                kind="mass-profile",
                model="separable-torus",
                h_sweep=[0.1],
                lambda_sweep=[2.0, 4.0],
                grid=[512, 128],
                out=str(out_dir),
            )
        )
        result = run_experiment(config)
        assert result.passed
        for rec in result.records:
            names = [v.name for v in rec.verdicts]
            assert names == [
                "neumann-precondition",
                "ode-oracle-agreement",
                "comparison-lower-bound",
                "windowed-trivial-bound",
                "initial-mass-bound",
            ]
            # mode selection keeps the trace frequency inside the window
            _, lam, h, k = rec.key
            assert 1 <= k < 128 // 2

    def test_mass_profile_window_can_be_empty(self, out_dir):
        # every circle eigenvalue lies above the window (1e-4, 2e-4)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(
                    kind="mass-profile",
                    model="separable-torus",
                    h_sweep=[0.1],
                    lambda_sweep=[4.0, 0.001],
                    grid=[512, 128],
                    out=str(out_dir),
                )
            )
        assert set(excinfo.value.field_errors) == {"lambda_sweep"}
        message = excinfo.value.field_errors["lambda_sweep"]
        assert "no tangential mode" in message and "lam=0.001" in message

    def test_mass_profile_window_must_fit_the_collar(self, out_dir):
        # lam h = 1.2 at h = 0.1 leaves the torus collar [0, 0.659]; the
        # window itself holds circle modes of the 128-node grid
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(
                    kind="mass-profile",
                    model="separable-torus",
                    h_sweep=[0.1],
                    lambda_sweep=[2.0, 12.0],
                    grid=[512, 128],
                    out=str(out_dir),
                )
            )
        assert set(excinfo.value.field_errors) == {"lambda_sweep"}
        message = excinfo.value.field_errors["lambda_sweep"]
        assert "collar" in message and "lam = 12" in message

    def test_mass_profile_needs_four_tangential_nodes(self, out_dir):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                payload(
                    kind="mass-profile",
                    model="separable-torus",
                    h_sweep=[0.1],
                    lambda_sweep=[2.0],
                    grid=[512, 3],
                    out=str(out_dir),
                )
            )
        assert set(excinfo.value.field_errors) == {"grid"}
        assert "4 tangential nodes in grid[1]" in excinfo.value.field_errors["grid"]

    def test_phase_residual_torus_and_flat(self, out_dir):
        for model, check in (
            ("separable-torus", "residual-order"),
            ("halfplane-unit", "closed-form"),
        ):
            (config,) = parse_config(
                payload(
                    kind="phase-residual",
                    model=model,
                    rho_grid=[0.05, 0.1, 0.15, 0.2],
                    grid=[33],
                    out=str(out_dir),
                )
            )
            result = run_experiment(config)
            assert result.passed
            keys = {rec.key[-1] for rec in result.records}
            assert keys == {check, "ambient-leading"}

    def test_symbol_class_exponents(self, out_dir):
        (config,) = parse_config(
            payload(
                kind="symbol-class",
                h_sweep=[0.1, 0.05, 0.025, 0.0125],
                rho_grid=[0.25],
                grid=[512],
                out=str(out_dir),
            )
        )
        result = run_experiment(config)
        assert result.passed
        (record,) = result.records
        names = [v.name for v in record.verdicts]
        assert names == [
            "xi-derivative-exponent-beta-1",
            "xi-derivative-exponent-beta-2",
            "class-bound",
        ]

    def test_parametrix_consistency_order(self, out_dir):
        (config,) = parse_config(
            payload(
                kind="parametrix-consistency",
                model="separable-torus",
                h_sweep=[0.1, 0.05, 0.025],
                grid=[32, 8001],
                out=str(out_dir),
            )
        )
        result = run_experiment(config, jobs=3)
        assert result.passed
        sweep = result.records[-1]
        assert sweep.measured["fitted_order"] >= 0.7

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            (config,) = parse_config(payload(out=str(out)))
            result = run_experiment(config)
            blobs.append(
                tuple(
                    p.read_bytes()
                    for p in (result.csv_path, result.summary_path, *result.plot_paths)
                )
            )
        assert blobs[0] == blobs[1]

    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        blobs = []
        for name, jobs in (("serial", 1), ("parallel", 4)):
            out = tmp_path / name
            (config,) = parse_config(payload(out=str(out)))
            result = run_experiment(config, jobs=jobs)
            blobs.append(
                tuple(
                    p.read_bytes()
                    for p in (result.csv_path, result.summary_path, *result.plot_paths)
                )
            )
        assert blobs[0] == blobs[1]

    def test_rejects_nonpositive_jobs(self, out_dir):
        (config,) = parse_config(payload(out=str(out_dir)))
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(config, jobs=0)


def _small_run(tmp_path, kind):
    overrides = {**SMALL_RUNS[kind], "kind": kind}
    (config,) = parse_config(payload(out=str(tmp_path), **overrides))
    return run_experiment(config)


def assert_summary_schema(path, overrides):
    """The summary schema: the config echo holds the model, params, seed
    and the keys its kind reads, grid included, and nothing else; one
    provenance block sits at the top, no record carries its own, and each
    verdict's "passed" is its margin >= 0 ("inf"/"-inf" strings decoded)."""
    text = path.read_text()
    summary = json.loads(text)
    assert summary["csv_schema"] == 1
    echo = set(summary["config"])
    assert echo == {"model", "params", "seed", *READS[summary["kind"]]}
    assert summary["config"]["seed"] == 0
    assert summary["config"]["grid"] == overrides.get("grid", [256])
    assert text.count('"provenance"') == 1
    provenance = summary["provenance"]
    assert set(provenance["versions"]) == {"python", "numpy", "scipy", "agmonlab"}
    assert set(provenance["blas"]) == {"name", "version"}
    records = summary["records"]
    assert all(set(rec) == {"key", "measured", "verdicts"} for rec in records)
    verdicts = [v for rec in records for v in rec["verdicts"]]
    for verdict in verdicts:
        margin = verdict["margin"]
        margin = float(margin) if isinstance(margin, str) else margin
        assert verdict["passed"] == (margin >= 0.0)
    assert summary["all_passed"] == all(v["passed"] for v in verdicts)


class TestVerdictRule:
    """A verdict passes iff its margin is >= 0, and the checkers' own
    failures reach the verdict's margin."""

    def test_verdict_passes_iff_margin_nonnegative(self):
        assert Verdict("zero", 0.0, 0.0).passed
        assert not Verdict("below", 1.0, -1e-300).passed
        assert not Verdict("nan", 0.0, math.nan).passed
        assert not Verdict("minus-inf", 0.1, -math.inf).passed
        assert Verdict("plus-inf", 0.1, math.inf).passed

    def test_class_bound_fails_on_a_minus_inf_exponent(self, tmp_path, monkeypatch):
        real_check = experiments.symbol_class_check

        def one_minus_inf(*args, **kwargs):
            report = real_check(*args, **kwargs)
            exponents = report.exponents.copy()
            exponents[-1] = -math.inf
            return dataclasses.replace(report, exponents=exponents)

        monkeypatch.setattr(experiments, "symbol_class_check", one_minus_inf)
        result = _small_run(tmp_path, "symbol-class")
        (record,) = result.records
        bound = record.verdicts[-1]
        assert bound.name == "class-bound"
        assert bound.margin == -math.inf
        assert not bound.passed
        assert not result.passed
        summary = json.loads(result.summary_path.read_text())
        written = summary["records"][0]["verdicts"][-1]
        assert written == {
            "name": "class-bound",
            "passed": False,
            "tolerance": 0.1,
            "margin": "-inf",
        }

    def test_non_finite_values_are_written_as_strict_json(self, tmp_path):
        # strict JSON has no NaN or Infinity token: a NaN margin, which
        # fails, and a numpy infinity are written as strings, as a Python
        # infinity is
        (config,) = parse_config(payload(out=str(tmp_path)))
        record = ReportRecord(
            "halfplane-chain",
            ("halfplane-unit", 0.1, 0.2),
            {"ratio": np.float64(np.inf), "rates": (np.float64(-np.inf), 1.5)},
            (Verdict("nan-margin", 0.0, math.nan),),
        )
        path = tmp_path / "summary.json"
        assert not experiments.write_summary_json((record,), config, path)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        (written,) = json.loads(path.read_text(), parse_constant=reject)["records"]
        assert written["measured"] == {"ratio": "inf", "rates": ["-inf", 1.5]}
        assert written["verdicts"] == [
            {"name": "nan-margin", "passed": False, "tolerance": 0.0, "margin": "nan"}
        ]

    def test_failed_comparison_reads_a_negative_margin(self, tmp_path, monkeypatch):
        real_solution = fcalc.comparison_solution

        def above_the_mass(*args):
            return 1e3 * real_solution(*args)

        monkeypatch.setattr(fcalc, "comparison_solution", above_the_mass)
        result = _small_run(tmp_path, "mass-profile")
        assert not result.passed
        for record in result.records:
            by_name = {v.name: v for v in record.verdicts}
            assert not by_name["comparison-lower-bound"].passed
            assert by_name["comparison-lower-bound"].margin < 0.0
            # the surface-mass bound does not use the comparison solution
            assert by_name["initial-mass-bound"].passed
            for verdict in record.verdicts:
                assert verdict.passed == (verdict.margin >= 0.0)


class TestEmitPlots:
    def _records(self, out_dir, **overrides):
        (config,) = parse_config(payload(out=str(out_dir), **overrides))
        return run_experiment(config).records

    def test_zero_records_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit_plots([], "halfplane-chain", tmp_path)

    def test_mixed_kinds_rejected(self, out_dir, tmp_path):
        chain = self._records(out_dir)
        decay = self._records(
            out_dir, kind="decay-sandwich", rho_grid=[0.05, 0.1, 0.2, 0.3]
        )
        with pytest.raises(ValueError, match="mixed"):
            emit_plots(chain + decay, "halfplane-chain", tmp_path)

    def test_single_point_scatter(self, tmp_path):
        record = ReportRecord(
            kind="parametrix-consistency",
            key=("separable-torus", 0.1, 0.02),
            measured={"rel_error": 1e-3, "rho": 0.02},
            verdicts=(Verdict("demo", 0.0, 1.0),),
        )
        (path,) = emit_plots([record], "parametrix-consistency", tmp_path)
        text = path.read_text()
        assert "<circle" in text
        assert "polyline" not in text

    def test_decay_plot_has_reference_line(self, out_dir, tmp_path):
        records = self._records(
            out_dir, kind="decay-sandwich", rho_grid=[0.05, 0.1, 0.2, 0.3]
        )
        (path,) = emit_plots(records, "decay-sandwich", tmp_path)
        text = path.read_text()
        assert "exp(-rho/h)" in text
        assert "stroke-dasharray" in text

    def test_every_kind_has_a_plot_builder(self):
        assert set(EXPERIMENT_KINDS) == {
            "halfplane-chain",
            "decay-sandwich",
            "exterior-mass",
            "phase-residual",
            "symbol-class",
            "mass-profile",
            "parametrix-consistency",
        }
        assert set(EXPERIMENT_KINDS) == set(KIND_COLUMNS) == set(SMALL_RUNS)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_writes_its_artifacts(self, tmp_path, kind):
        result = _small_run(tmp_path, kind)
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == KIND_COLUMNS[kind]
        width = len(KIND_COLUMNS[kind].split(","))
        rows = list(csv.reader(lines[1:]))
        assert rows
        assert all(len(row) == width for row in rows)
        assert_summary_schema(result.summary_path, SMALL_RUNS[kind])
        assert result.plot_paths == (tmp_path / f"{kind}.svg",)
        assert result.plot_paths[0].exists()
