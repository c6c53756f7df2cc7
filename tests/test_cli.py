"""Tests for the command-line runner: flags, exit codes, and outputs."""

import json
import subprocess
import sys

import pytest

from test_experiments import payload

from agmonlab.cli import main


def write_config(tmp_path, **overrides):
    """A config file holding exactly the keys its kinds read."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload(out=str(tmp_path / "out"), **overrides)))
    return path


class TestExitCodes:
    def test_all_verdicts_pass_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "halfplane-chain" in out
        assert "verdicts passed" in out

    def test_failing_verdict_exits_one(self, tmp_path, capsys):
        # A deliberately under-resolved oracle grid: the discrete solver's
        # own error floor hides the h-order of the parametrix, so the
        # fitted order lands below the 0.7 threshold.
        path = write_config(
            tmp_path,
            kind="parametrix-consistency",
            model="separable-torus",
            grid=[32, 501],
        )
        assert main(["run", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "consistency-order" in out

    def test_config_error_exits_two_with_field_lines(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "decay-sandwich"}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        for name in ("model", "h_sweep", "rho_grid"):
            assert f"config error: {name}:" in err

    def test_unread_key_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda_sweep=[2.0, 4.0])
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert (
            "config error: lambda_sweep: no configured kind reads lambda_sweep "
            "(halfplane-chain): drop it" in err
        )
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_float_range_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, h_sweep=[10**400])
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: h_sweep: entry 1000" in err
        assert "is not a positive finite number" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_only_with_absent_kind_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--only", "exterior-mass"]) == 2
        assert "does not appear" in capsys.readouterr().err

    def test_module_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, grid=[100])
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "halfplane-chain" in err
        assert "0.1" in err  # offending key tuple is printed

    def test_grid_below_node_minimum_exits_two_without_traceback(self, tmp_path):
        path = write_config(
            tmp_path, kind="exterior-mass", model="separable-torus", grid=[128, 64]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "agmonlab.cli", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert (
            "config error: grid: exterior-mass needs at least 256 transverse "
            "nodes in grid[0]" in proc.stderr
        )
        assert not (tmp_path / "out" / "exterior-mass.csv").exists()

    @pytest.mark.parametrize("grid", [[64, 101], [64, 3]])
    def test_parametrix_depth_outside_collar_exits_two_without_traceback(
        self, tmp_path, grid
    ):
        # 80 * far / (n_normal - 1) is the ambient comparison depth; it
        # leaves the separable-torus collar [0, 0.659] below 123 nodes.
        path = write_config(
            tmp_path, kind="parametrix-consistency", model="separable-torus", grid=grid
        )
        proc = subprocess.run(
            [sys.executable, "-m", "agmonlab.cli", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert (
            "config error: grid: parametrix-consistency needs at least 123 "
            "normal nodes in grid[1]" in proc.stderr
        )
        assert not (tmp_path / "out" / "parametrix-consistency.csv").exists()

    @pytest.mark.parametrize(
        "kind, rho_grid, grid, message",
        [
            (
                "phase-residual",
                [0.05, 5.0],
                [33],
                "config error: rho_grid: phase-residual needs every depth at "
                "most 0.787695, the gauged collar width of separable-torus",
            ),
            (
                "decay-sandwich",
                [0.05, 0.1, 0.2, 5.0],
                [64, 801],
                "config error: rho_grid: decay-sandwich cannot trace depth 5: "
                "far boundary at 1.9 has weighted depth 1.847 <= the deepest "
                "requested level 5",
            ),
        ],
        ids=["phase-residual", "decay-sandwich"],
    )
    def test_unreachable_depth_exits_two_without_artifacts(
        self, tmp_path, kind, rho_grid, grid, message
    ):
        path = write_config(
            tmp_path,
            kind=kind,
            model="separable-torus",
            rho_grid=rho_grid,
            grid=grid,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "agmonlab.cli", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_runner_set_up_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # A failure in the level set-up, before any sweep point runs, is
        # reported under the run's (model,) key.
        def failing_level_set(*args, **kwargs):
            raise ValueError("level set-up failed")

        monkeypatch.setattr(
            "agmonlab.experiments.separable_level_set", failing_level_set
        )
        path = write_config(
            tmp_path,
            kind="parametrix-consistency",
            model="separable-torus",
            grid=[32, 801],
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: parametrix-consistency failed at key ('separable-torus',)" in err
        assert "level set-up failed" in err

    def test_unsupported_pair_fails_before_any_kind_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, kind=["halfplane-chain", "exterior-mass"])
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: model: exterior-mass" in err
        assert not (tmp_path / "out" / "halfplane-chain.csv").exists()

    def test_bad_jobs_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err


class TestFlags:
    def test_only_selects_single_kind(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            kind=["halfplane-chain", "decay-sandwich"],
            rho_grid=[0.05, 0.1, 0.2, 0.3],
        )
        assert main(["run", str(path), "--only", "decay-sandwich"]) == 0
        out = capsys.readouterr().out
        assert "decay-sandwich" in out
        assert "halfplane-chain" not in out
        assert (tmp_path / "out" / "decay-sandwich.csv").exists()
        assert not (tmp_path / "out" / "halfplane-chain.csv").exists()

    def test_out_override_redirects_files(self, tmp_path):
        path = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["run", str(path), "--out", str(other)]) == 0
        assert (other / "halfplane-chain.csv").exists()
        assert (other / "halfplane-chain.json").exists()
        assert (other / "halfplane-chain.svg").exists()

    def test_seed_recorded_in_summary(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--seed", "17"]) == 0
        summary = json.loads(
            (tmp_path / "out" / "halfplane-chain.json").read_text()
        )
        # the config echo carries the seed and grid; provenance is written
        # once, at the top, and no record repeats it
        assert summary["config"]["seed"] == 17
        assert summary["config"]["grid"] == [256]
        assert set(summary["provenance"]) == {"versions", "blas"}
        assert not any("provenance" in rec for rec in summary["records"])

    def test_verbose_prints_verdict_lines(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "plancherel" in out
        assert "margin=" in out

    def test_quiet_run_prints_summary_only(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" not in out

    def test_jobs_flag_accepted(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--jobs", "4"]) == 0


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "agmonlab.cli", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdicts passed" in proc.stdout
