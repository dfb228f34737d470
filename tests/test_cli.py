"""Command-line interface: subcommands, exit codes, output files."""

import numpy as np
import pytest

from fedsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from fedsim.config import save_config
from fedsim.presets import CATALOG

from conftest import tiny_attack, tiny_config


def write_tiny(tmp_path, **kwargs):
    cfg = tiny_config(**kwargs)
    path = tmp_path / "cfg.yaml"
    save_config(cfg, str(path))
    return str(path)


class TestHelpAndUsage:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "fedsim" in capsys.readouterr().out

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().out

    def test_unknown_preset_lists_presets(self, tmp_path, capsys):
        code = main(["run", "no-such-preset", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "table1-baseline" in err


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in CATALOG:
            assert name in out


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = write_tiny(tmp_path)
        assert main(["validate", path]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_valid_preset(self, capsys):
        assert main(["validate", "table1-baseline"]) == EXIT_OK

    def test_invalid_config_diagnostics(self, tmp_path, capsys):
        from fedsim.config import PartitionSpec
        path = write_tiny(tmp_path, partitioning=PartitionSpec(num_honest=0))
        assert main(["validate", path]) == EXIT_CONFIG
        assert "honest" in capsys.readouterr().out


class TestExportPreset:
    def test_round_trip(self, tmp_path):
        from fedsim.config import load_config
        path = tmp_path / "preset.yaml"
        assert main(["export-preset", "a5-mnist-foolsgold", str(path)]) == EXIT_OK
        assert load_config(str(path)) == CATALOG["a5-mnist-foolsgold"].config


class TestRunCommand:
    def test_run_config_file_writes_outputs(self, tmp_path, capsys):
        path = write_tiny(tmp_path, total_iterations=5,
                          attacks=[tiny_attack()])
        out_dir = tmp_path / "results"
        assert main(["run", path, "--out-dir", str(out_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "accuracy=" in out and "attack_rate=" in out
        assert (out_dir / "tiny-series.csv").exists()
        assert (out_dir / "tiny-summary.json").exists()

    def test_run_deterministic_outputs(self, tmp_path):
        path = write_tiny(tmp_path, total_iterations=5)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["run", path, "--out-dir", str(a_dir)])
        main(["run", path, "--out-dir", str(b_dir)])
        assert (a_dir / "tiny-series.csv").read_bytes() == \
            (b_dir / "tiny-series.csv").read_bytes()

    def test_seed_flag_propagates(self, tmp_path):
        import json
        path = write_tiny(tmp_path, total_iterations=2)
        out = tmp_path / "a"
        main(["run", path, "--out-dir", str(out), "--seed", "77"])
        blob = json.loads((out / "tiny-summary.json").read_text())
        assert blob["config"]["seed"] == 77

    def test_override_flag(self, tmp_path, capsys):
        path = write_tiny(tmp_path, total_iterations=5)
        out_dir = tmp_path / "results"
        code = main(["run", path, "--out-dir", str(out_dir),
                     "--override", "total_iterations=2",
                     "--override", "name=tweaked"])
        assert code == EXIT_OK
        series = (out_dir / "tweaked-series.csv").read_text()
        assert len(series.strip().splitlines()) == 3  # header + 2 rounds

    def test_bad_override_names_field(self, tmp_path, capsys):
        path = write_tiny(tmp_path)
        code = main(["run", path, "--out-dir", str(tmp_path),
                     "--override", "defense.frobnicate=1"])
        assert code == EXIT_CONFIG
        assert "frobnicate" in capsys.readouterr().err

    def test_override_without_equals(self, tmp_path, capsys):
        path = write_tiny(tmp_path)
        code = main(["run", path, "--out-dir", str(tmp_path),
                     "--override", "seed"])
        assert code == EXIT_CONFIG

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        from fedsim.config import PartitionSpec
        path = write_tiny(tmp_path, partitioning=PartitionSpec(num_honest=0))
        assert main(["run", path, "--out-dir", str(tmp_path)]) == EXIT_CONFIG


class TestGridPreset:
    @staticmethod
    def run_small_grid(tmp_path):
        # shrink a grid preset to a fast configuration via overrides
        return main([
            "run", "mixed-data-sweep", "--out-dir", str(tmp_path),
            "--override", "total_iterations=2",
            "--override", "dataset.kind=synthetic",
            "--override", "dataset.num_classes=4",
            "--override", "dataset.num_features=20",
            "--override", "partitioning.num_honest=4",
            "--override", "attacks.0.source=1",
            "--override", "attacks.0.target=2",
            "--override", "eval_subsample=50",
        ])

    def test_grid_runs_and_exports(self, tmp_path, capsys, monkeypatch):
        code = self.run_small_grid(tmp_path)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "poison_fraction=0.2" in out
        assert (tmp_path / "mixed-data-sweep-grid.csv").exists()

    def test_failed_point_exits_runtime(self, tmp_path, capsys, monkeypatch):
        from fedsim import engine
        from fedsim.errors import DivergenceError
        real_run = engine.run

        def run_or_fail(config):
            if config.attacks[0].poison_fraction == 0.4:
                raise DivergenceError("injected")
            return real_run(config)

        monkeypatch.setattr(engine, "run", run_or_fail)
        assert self.run_small_grid(tmp_path) == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "attacks.0.poison_fraction=0.4: failed (injected)" in out
        rows = (tmp_path / "mixed-data-sweep-grid.csv").read_text()
        assert "poison_fraction=0.2" in rows
        assert "poison_fraction=0.4" not in rows
