"""Command-line interface: subcommands, exit codes, output files."""

import contextlib
import copy
import io
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from fedsim.config import (
    ATTACK_TYPES,
    DATASET_KINDS,
    DEFENSE_KINDS,
    apply_override,
    config_from_dict,
    save_config,
    validate_config,
)
from fedsim.errors import ConfigurationError
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

    @staticmethod
    def assert_config_error(tmp_path, capsys, overrides, field):
        path = write_tiny(tmp_path, attacks=[tiny_attack()])
        argv = ["run", path, "--out-dir", str(tmp_path)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("config error:") and field in line
                   for line in lines), lines

    def test_malformed_yaml_override(self, tmp_path, capsys):
        self.assert_config_error(tmp_path, capsys, ["seed=[1"], "seed")

    def test_negative_multikrum_f(self, tmp_path, capsys):
        self.assert_config_error(
            tmp_path, capsys, ["defense.kind=multikrum", "defense.f=-1"],
            "defense.f")

    @pytest.mark.parametrize("field", ["local_learning_rate", "regularization"])
    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_sgd_rate(self, tmp_path, capsys, field, value):
        self.assert_config_error(tmp_path, capsys, [f"sgd.{field}={value}"],
                                 f"sgd.{field}")

    @pytest.mark.parametrize("override,field", [
        ("total_iterations=abc", "total_iterations"),
        ("sgd.local_learning_rate=nan", "sgd.local_learning_rate"),
        ("sgd.batch_size=2.5", "sgd.batch_size"),
        ("attacks.0.num_sybils=x", "attacks[0].num_sybils"),
        ("eval_subsample=null", "eval_subsample"),
        ("partitioning.num_honest=1.5", "partitioning.num_honest"),
        ("partitioning.num_honest=true", "partitioning.num_honest"),
        ("dataset.examples_per_class=5", "dataset.examples_per_class"),
        ("defense.foolsgold.kappa=.inf", "defense.foolsgold.kappa"),
    ])
    def test_value_of_wrong_type(self, tmp_path, capsys, override, field):
        self.assert_config_error(tmp_path, capsys, [override], field)

    def test_int_accepted_for_float(self, tmp_path):
        path = write_tiny(tmp_path)
        assert main(["run", path, "--out-dir", str(tmp_path),
                     "--override", "total_iterations=1",
                     "--override", "sgd.local_learning_rate=1"]) == EXIT_OK


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


class TestSummaryExtras:
    @staticmethod
    def run_summary(tmp_path, **kwargs):
        import json
        from fedsim.config import load_config
        from fedsim.engine import run
        path = write_tiny(tmp_path, total_iterations=4, **kwargs)
        out = tmp_path / "out"
        assert main(["run", path, "--out-dir", str(out)]) == EXIT_OK
        blob = json.loads((out / "tiny-summary.json").read_text())
        return blob["extras"], run(load_config(path))

    def test_roni_decisions_written(self, tmp_path):
        from fedsim.config import DefenseSpec
        extras, result = self.run_summary(
            tmp_path, attacks=[tiny_attack()],
            defense=DefenseSpec(kind="roni", roni_validation_size=100))
        assert extras["roni_cumulative"] == result.extras["roni_cumulative"].tolist()
        assert len(extras["aggregation_times"]) == 4
        assert extras["roles"] == result.extras["roles"]

    def test_adaptive_poison_counts_written(self, tmp_path):
        from fedsim.config import AttackSpec, DefenseSpec
        extras, result = self.run_summary(
            tmp_path,
            attacks=[AttackSpec(type="adaptive", num_sybils=2, source=1,
                                target=2, threshold=1.0)],
            defense=DefenseSpec(kind="foolsgold"))
        assert extras["poison_counts"] == result.extras["poison_counts"].tolist()
        assert len(extras["poison_counts"]) == 4
        assert extras["poison_frequency"] == result.extras["poison_frequency"]
        # 2-D arrays such as the FoolsGold histories stay out of the JSON
        assert result.extras["histories"].ndim == 2
        assert "histories" not in extras


def _leaf_keys(node, prefix=""):
    """Every dotted override key of a config dict; list items by index."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for name, value in items:
        key = f"{prefix}{name}"
        if isinstance(value, (dict, list)) and value:
            yield from _leaf_keys(value, key + ".")
        else:
            yield key


FUZZ_BASE = tiny_config(attacks=[tiny_attack()]).to_dict()
FUZZ_KEYS = sorted(_leaf_keys(FUZZ_BASE))
# Integers stay in -3..40 and text has no digits, so no drawn value can ask
# for a large roster, dataset or run.
YAML_SCALARS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-3.0, 40.0).map(repr),
    st.sampled_from([".nan", ".inf", "-.inf", "nan", "true", "false", "null",
                     "~", "", "[1", "{a: 1", "'x", "a: b: c", "[]", "{}",
                     "- 1"]),
    st.sampled_from(sorted(set(DATASET_KINDS + DEFENSE_KINDS + ATTACK_TYPES
                               + ("none", "hard", "soft", "plain")))),
    st.text(alphabet="abxyz_.-:[]{}'\" ", max_size=6),
)


class TestOverrideFuzz:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(DEFENSE_KINDS),
           overrides=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), YAML_SCALARS),
                              min_size=1, max_size=2))
    # a valid config whose drawn split leaves class 1 without train rows:
    # a runtime error (exit 4), not a config error
    @example(kind="baseline", overrides=[("dataset.examples_per_class.1", "1"),
                                         ("dataset.seed", "5")])
    def test_any_override_ends_in_an_exit_code(self, kind, overrides):
        items = [f"defense.kind={kind}"] + [f"{k}={v}" for k, v in overrides]
        items.append("total_iterations=2")
        # What `validate` decides, through the same parse and checks
        data = copy.deepcopy(FUZZ_BASE)
        try:
            for item in items:
                apply_override(data, *item.split("=", 1))
            rejected = bool(validate_config(config_from_dict(data)))
        except ConfigurationError:
            rejected = True

        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cfg.yaml"
            save_config(config_from_dict(FUZZ_BASE), path)
            argv = ["run", path, "--out-dir", f"{tmp}/out"]
            for item in items:
                argv += ["--override", item]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        if rejected:
            assert code == EXIT_CONFIG, (items, err.getvalue())
        else:
            # a config validate accepts never fails as a config error later
            assert code in (EXIT_OK, EXIT_RUNTIME), (items, err.getvalue())
