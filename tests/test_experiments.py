"""Tests for the config-driven experiment runners and their reports."""

import csv
import json
import math

import numpy as np
import pytest

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


def payload(**overrides):
    base = {
        "kind": "halfplane-chain",
        "model": "halfplane-unit",
        "h_sweep": [0.1, 0.05],
        "rho_grid": [0.1, 0.2],
        "lambda_sweep": [2.0, 4.0],
        "M": 8.0,
        "delta": 0.5,
        "grid": [256],
        "out": "out",
    }
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
        "grid": [16, 33],
    },
    "symbol-class": {
        "h_sweep": [0.1, 0.05, 0.025, 0.0125],
        "rho_grid": [0.25],
        "grid": [1, 128],
    },
    "mass-profile": {
        "model": "separable-torus",
        "h_sweep": [0.1],
        "lambda_sweep": [2.0],
        "grid": [256, 128],
    },
    "parametrix-consistency": {
        "model": "separable-torus",
        "rho_grid": [0.25],
        "grid": [32, 801],
    },
}
# Every catalogue model a kind cannot run on, rejected before any compute.
UNSUPPORTED = [
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
        for name in ("model", "h_sweep", "rho_grid", "lambda_sweep", "grid"):
            assert name in fields

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
            parse_config(
                payload(kind="symbol-class", grid=[1, 128], out=str(out_dir))
            )
        assert "h_sweep" in excinfo.value.field_errors

    @pytest.mark.parametrize("kind, model", UNSUPPORTED)
    def test_unsupported_model_rejected_before_compute(self, out_dir, kind, model):
        overrides = {**SMALL_RUNS[kind], "kind": kind, "model": model}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(payload(out=str(out_dir), **overrides))
        message = excinfo.value.field_errors["model"]
        assert kind in message
        assert model in message
        assert "separable-torus" in message  # names a model that works

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
        (config,) = parse_config(
            payload(
                kind="mass-profile",
                model="separable-torus",
                h_sweep=[0.1],
                lambda_sweep=[0.001],
                grid=[512, 128],
                out=str(out_dir),
            )
        )
        with pytest.raises(ExperimentError, match="window"):
            run_experiment(config)

    def test_phase_residual_torus_and_flat(self, out_dir):
        for model, check in (
            ("separable-torus", "residual-order"),
            ("halfplane-unit", "closed-form"),
        ):
            (config,) = parse_config(
                payload(
                    kind="phase-residual",
                    model=model,
                    h_sweep=[0.05],
                    rho_grid=[0.05, 0.1, 0.15, 0.2],
                    grid=[16, 33],
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
                grid=[1, 512],
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
                rho_grid=[0.25],
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
            verdicts=(Verdict("demo", True, 0.0, 1.0),),
            provenance={},
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
        overrides = {**SMALL_RUNS[kind], "kind": kind}
        (config,) = parse_config(payload(out=str(tmp_path), **overrides))
        result = run_experiment(config)
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == KIND_COLUMNS[kind]
        width = len(KIND_COLUMNS[kind].split(","))
        rows = list(csv.reader(lines[1:]))
        assert rows
        assert all(len(row) == width for row in rows)
        summary = json.loads(result.summary_path.read_text())
        assert summary["csv_schema"] == 1
        assert result.plot_paths == (tmp_path / f"{kind}.svg",)
        assert result.plot_paths[0].exists()
