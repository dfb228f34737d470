"""Configuration schema: parsing, overrides, validation diagnostics."""

import pytest

from fedsim.config import (
    AttackSpec,
    DefenseSpec,
    ExperimentConfig,
    PartitionSpec,
    apply_override,
    config_from_dict,
    load_config,
    save_config,
    set_path,
    validate_config,
)
from fedsim.defenses import DefenseConfig
from fedsim.errors import ConfigurationError
from fedsim.presets import CATALOG

from conftest import tiny_attack, tiny_config


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = ExperimentConfig()
        assert config_from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_preset_round_trips(self, name):
        cfg = CATALOG[name].config
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_yaml_file_round_trip(self, tmp_path):
        cfg = tiny_config(attacks=[tiny_attack()])
        path = tmp_path / "c.yaml"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(str(path)) == ExperimentConfig()


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            config_from_dict({"nmae": "typo"})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigurationError, match="defense"):
            config_from_dict({"defense": {"knid": "baseline"}})

    def test_attacks_must_be_list(self):
        with pytest.raises(ConfigurationError, match="list"):
            config_from_dict({"attacks": {"type": "labelflip"}})

    def test_nested_attack_error_names_index(self):
        with pytest.raises(ConfigurationError, match=r"attacks\[1\]"):
            config_from_dict({"attacks": [{}, {"sorce": 1}]})


class TestOverride:
    def test_scalar(self):
        data = ExperimentConfig().to_dict()
        apply_override(data, "seed", "99")
        assert data["seed"] == 99

    def test_nested(self):
        data = ExperimentConfig().to_dict()
        apply_override(data, "defense.foolsgold.kappa", "0.5")
        assert data["defense"]["foolsgold"]["kappa"] == 0.5

    def test_list_index(self):
        data = tiny_config(attacks=[tiny_attack()]).to_dict()
        apply_override(data, "attacks.0.num_sybils", "7")
        assert data["attacks"][0]["num_sybils"] == 7

    def test_yaml_typing(self):
        data = ExperimentConfig().to_dict()
        apply_override(data, "dataset.kind", "synthetic")
        apply_override(data, "partitioning.clone_sybil_data", "true")
        assert data["dataset"]["kind"] == "synthetic"
        assert data["partitioning"]["clone_sybil_data"] is True

    def test_unknown_field_named_in_error(self):
        data = ExperimentConfig().to_dict()
        with pytest.raises(ConfigurationError, match="nope"):
            apply_override(data, "defense.nope", "1")

    def test_bad_list_index(self):
        data = tiny_config(attacks=[tiny_attack()]).to_dict()
        with pytest.raises(ConfigurationError):
            apply_override(data, "attacks.5.source", "1")


class TestValidate:
    def test_valid_config_empty_diagnostics(self):
        assert validate_config(tiny_config()) == []

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_preset_valid(self, name):
        assert validate_config(CATALOG[name].config) == []

    def test_zero_honest_clients(self):
        cfg = tiny_config(partitioning=PartitionSpec(num_honest=0))
        assert any("honest" in p for p in validate_config(cfg))

    def test_multikrum_f_too_large(self):
        cfg = tiny_config(defense=DefenseSpec(kind="multikrum", f=3))
        assert any("f + 3" in p for p in validate_config(cfg))

    def test_bad_attack_type(self):
        cfg = tiny_config(attacks=[AttackSpec(type="bribery")])
        assert any("type" in p for p in validate_config(cfg))

    def test_source_equals_target(self):
        cfg = tiny_config(attacks=[AttackSpec(source=1, target=1)])
        assert any("differ" in p for p in validate_config(cfg))

    def test_source_out_of_range(self):
        cfg = tiny_config(attacks=[tiny_attack(source=99)])
        assert any("class range" in p for p in validate_config(cfg))

    def test_odd_noise_sybils(self):
        cfg = tiny_config(attacks=[AttackSpec(type="noise", num_sybils=3)])
        assert any("even" in p for p in validate_config(cfg))

    def test_noise_pairs_fit_model_dimension(self):
        # tiny_config's model is 4 classes x (40 features + bias) = 164
        for kind in ("noise", "adaptive"):
            fits = tiny_config(attacks=[tiny_attack(type=kind, num_sybils=328)])
            assert validate_config(fits) == []
            too_many = tiny_config(attacks=[tiny_attack(type=kind, num_sybils=330)])
            assert any("model dimension 164" in p for p in validate_config(too_many))

    def test_strawman_single_client(self):
        cfg = tiny_config(attacks=[AttackSpec(type="strawman", num_sybils=2)])
        assert any("one client" in p for p in validate_config(cfg))

    def test_bad_mix_ratio(self):
        cfg = tiny_config(partitioning=PartitionSpec(num_honest=4, x_honest=2.0))
        assert any("mix" in p for p in validate_config(cfg))

    def test_non_iid_client_bound(self):
        cfg = tiny_config(partitioning=PartitionSpec(num_honest=9))
        assert any("num_honest" in p for p in validate_config(cfg))

    def test_mnist_needs_data_dir(self):
        data = tiny_config().to_dict()
        data["dataset"]["kind"] = "mnist"
        cfg = config_from_dict(data)
        assert any("data_dir" in p for p in validate_config(cfg))

    @pytest.mark.parametrize("size", [0, -9990])
    def test_roni_validation_size_positive(self, size):
        cfg = tiny_config(defense=DefenseSpec(kind="roni",
                                              roni_validation_size=size))
        assert any("roni_validation_size" in p for p in validate_config(cfg))

    def test_kappa_positive(self):
        cfg = tiny_config(defense=DefenseSpec(
            kind="foolsgold", foolsgold=DefenseConfig(kappa=0.0)))
        assert any("kappa" in p for p in validate_config(cfg))

    @pytest.mark.parametrize("settings,field", [
        ({"dataset.num_classes": 5}, "examples_per_class length"),
        ({"dataset.examples_per_class.0": 0}, "examples_per_class"),
        ({"dataset.num_features": 0}, "num_features"),
        ({"dataset.dead_features": -1}, "dead_features"),
        ({"dataset.dead_features": 40}, "dead_features"),
        ({"dataset.test_fraction": 1e-9}, "test_fraction"),
        ({"dataset.test_fraction": 1.0}, "test_fraction"),
        ({"dataset.centroid_sparsity": 1.5}, "centroid_sparsity"),
        ({"dataset.noise_scale": -0.1}, "noise_scale"),
        ({"seed": -1}, "seed"),
        ({"dataset.seed": -1}, "seed"),
        ({"attacks.0.target": 4}, "class range"),
        ({"attacks.0.trigger": 41}, "trigger"),
        # the MNIST kinds have 10 classes whatever dataset.num_classes says
        ({"dataset.kind": "mnist_like", "dataset.num_classes": 40,
          "attacks.0.target": 35}, "class range"),
    ])
    def test_unrunnable_value_rejected_before_run(self, settings, field):
        data = tiny_config(attacks=[tiny_attack(type="backdoor")]).to_dict()
        assert validate_config(config_from_dict(data)) == []
        for key, value in settings.items():
            set_path(data, key, value)
        assert any(field in p for p in validate_config(config_from_dict(data)))

    def test_multiple_problems_all_listed(self):
        cfg = tiny_config(
            partitioning=PartitionSpec(num_honest=0),
            attacks=[AttackSpec(source=1, target=1)],
        )
        assert len(validate_config(cfg)) >= 2
