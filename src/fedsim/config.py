"""Declarative experiment configuration: schema, parsing, validation.

Configs are plain nested dicts (YAML on disk). Unknown keys are errors so
that typos in sweep definitions fail loudly instead of running the wrong
experiment.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields

import yaml

from .clients import SgdConfig
from .defenses import DefenseConfig
from .errors import ConfigurationError

ATTACK_TYPES = ("labelflip", "backdoor", "noise", "adaptive", "strawman")
DEFENSE_KINDS = ("baseline", "foolsgold", "multikrum", "roni",
                 "foolsgold_multikrum")
DATASET_KINDS = ("mnist", "mnist_like", "synthetic")


@dataclass
class DatasetSpec:
    kind: str = "mnist_like"
    data_dir: str | None = None  # required for kind="mnist"
    seed: int = 0  # synthesis seed (kind="synthetic")
    num_classes: int = 10
    num_features: int = 784
    examples_per_class: list[int] | None = None
    test_fraction: float = 0.3
    centroid_sparsity: float = 0.5
    dead_features: int = 0
    noise_scale: float = 0.08


@dataclass
class PartitionSpec:
    num_honest: int = 10
    x_honest: float = 0.0  # shared-data fraction for honest clients
    x_sybil: float = 0.0  # shared-data fraction used to build sybil data
    clone_sybil_data: bool = False


@dataclass
class AttackSpec:
    type: str = "labelflip"
    num_sybils: int = 5
    source: int = 1
    target: int = 7
    poison_fraction: float = 1.0
    trigger: int | None = None  # backdoor feature index; None = last raw feature
    trigger_value: float = 1.0
    noise_scale: float = 1.0  # intelligent-noise magnitude, x typical update norm
    noise_indicative_ratio: float = 0.1  # noise is confined outside this top set
    threshold: float = 1.0  # adaptive-attack similarity threshold M
    attacker_knows_features: bool = False
    pretrain_iterations: int = 400  # strawman only


@dataclass
class DefenseSpec:
    kind: str = "baseline"
    f: int = 0  # multikrum tolerance
    distance_mode: str = "squared"  # multikrum: squared | plain
    roni_threshold: float = 0.0
    roni_validation_size: int = 10000
    foolsgold: DefenseConfig = field(default_factory=DefenseConfig)


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    total_iterations: int = 3000
    eval_subsample: int = 1000  # per-round metric sample size; 0 = full test set
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partitioning: PartitionSpec = field(default_factory=PartitionSpec)
    attacks: list[AttackSpec] = field(default_factory=list)
    defense: DefenseSpec = field(default_factory=DefenseSpec)
    sgd: SgdConfig = field(default_factory=SgdConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    def copy(self) -> "ExperimentConfig":
        return copy.deepcopy(self)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {type(data).__name__}")
    allowed = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    kwargs = {}
    for name, value in data.items():
        sub = f"{path}.{name}" if path else name
        if name == "dataset":
            kwargs[name] = _build(DatasetSpec, value, sub)
        elif name == "partitioning":
            kwargs[name] = _build(PartitionSpec, value, sub)
        elif name == "defense":
            kwargs[name] = _build(DefenseSpec, value, sub)
        elif name == "foolsgold":
            kwargs[name] = _build(DefenseConfig, value, sub)
        elif name == "sgd":
            kwargs[name] = _build(SgdConfig, value, sub)
        elif name == "attacks":
            if not isinstance(value, list):
                raise ConfigurationError(f"{sub}: expected a list")
            kwargs[name] = [
                _build(AttackSpec, item, f"{sub}[{i}]") for i, item in enumerate(value)
            ]
        else:
            kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True)


def set_path(data: dict, key: str, value) -> None:
    """Set a dotted-path key (e.g. defense.foolsgold.kappa) in a config
    dict. List items use numeric path segments (attacks.0.num_sybils)."""
    *parents, leaf = key.split(".")
    node = data
    for part in parents:
        node = node[_child(node, key, part)]
    node[_child(node, key, leaf)] = value


def _child(node, key: str, part: str):
    """The list index or dict field that `part` names in a config node."""
    if isinstance(node, list):
        try:
            index = int(part)
            node[index]
        except (ValueError, IndexError):
            raise ConfigurationError(
                f"config key {key!r}: bad list index {part!r}") from None
        return index
    if not isinstance(node, dict):
        raise ConfigurationError(f"config key {key!r}: {part!r} is inside a scalar")
    if part not in node:
        raise ConfigurationError(f"config key {key!r}: unknown field {part!r}")
    return part


def apply_override(data: dict, key: str, raw_value: str) -> None:
    """`set_path` with the value parsed as YAML (a KEY=VALUE override)."""
    set_path(data, key, yaml.safe_load(raw_value))


def validate_config(config: ExperimentConfig) -> list[str]:
    """Schema and invariant checks without running; returns all violations."""
    problems: list[str] = []
    ds, part, dfs = config.dataset, config.partitioning, config.defense

    if ds.kind not in DATASET_KINDS:
        problems.append(f"dataset.kind must be one of {DATASET_KINDS}, got {ds.kind!r}")
    if ds.kind == "mnist" and not ds.data_dir:
        problems.append("dataset.kind=mnist requires dataset.data_dir "
                        "(or the FEDSIM_DATA_DIR environment variable)")
    if config.total_iterations < 0:
        problems.append("total_iterations must be >= 0")
    if config.eval_subsample < 0:
        problems.append("eval_subsample must be >= 0")

    if part.num_honest < 1:
        problems.append("at least one honest client is required")
    if not 0.0 <= part.x_honest <= 1.0 or not 0.0 <= part.x_sybil <= 1.0:
        problems.append("mix ratios must be in [0, 1]")
    if part.x_honest == 0.0 and part.num_honest > ds.num_classes:
        problems.append("non-IID partitioning needs num_honest <= num_classes")

    num_sybils = sum(a.num_sybils for a in config.attacks)
    n_total = part.num_honest + num_sybils
    # num_classes x (features + bias); the MNIST kinds are always 10 x 784
    if ds.kind == "synthetic":
        dim = ds.num_classes * (ds.num_features + 1)
    else:
        dim = 10 * (784 + 1)

    for i, atk in enumerate(config.attacks):
        where = f"attacks[{i}]"
        if atk.type not in ATTACK_TYPES:
            problems.append(f"{where}.type must be one of {ATTACK_TYPES}, got {atk.type!r}")
            continue
        if atk.num_sybils < 1:
            problems.append(f"{where}.num_sybils must be >= 1")
        if atk.type in ("labelflip", "noise", "adaptive", "strawman"):
            if atk.source == atk.target:
                problems.append(f"{where}: source and target class must differ")
            if not (0 <= atk.source < ds.num_classes and 0 <= atk.target < ds.num_classes):
                problems.append(f"{where}: source/target out of class range")
        if not 0.0 <= atk.poison_fraction <= 1.0:
            problems.append(f"{where}.poison_fraction must be in [0, 1]")
        if atk.type in ("noise", "adaptive") and atk.num_sybils % 2 != 0:
            problems.append(f"{where}: noise-based attacks need an even sybil count")
        if atk.type in ("noise", "adaptive") and atk.num_sybils // 2 > dim:
            problems.append(f"{where}: {atk.num_sybils // 2} orthogonal noise "
                            f"pairs do not fit the model dimension {dim}")
        if atk.type == "strawman" and atk.num_sybils != 1:
            problems.append(f"{where}: the strawman attack uses exactly one client")

    if dfs.kind not in DEFENSE_KINDS:
        problems.append(f"defense.kind must be one of {DEFENSE_KINDS}, got {dfs.kind!r}")
    if dfs.kind in ("multikrum", "foolsgold_multikrum"):
        if n_total < dfs.f + 3:
            problems.append(
                f"multikrum needs n >= f + 3 (n={n_total}, f={dfs.f})"
            )
        if dfs.distance_mode not in ("squared", "plain"):
            problems.append("defense.distance_mode must be 'squared' or 'plain'")
    if dfs.kind == "roni" and dfs.roni_validation_size < 1:
        problems.append("defense.roni_validation_size must be >= 1")
    fg = dfs.foolsgold
    if fg.feature_mode not in ("none", "hard", "soft"):
        problems.append("foolsgold.feature_mode must be none, hard or soft")
    if fg.feature_mode == "hard" and not 0.0 < fg.hard_ratio <= 1.0:
        problems.append("foolsgold.hard_ratio must be in (0, 1]")
    if fg.kappa <= 0:
        problems.append("foolsgold.kappa must be positive")

    try:
        config.sgd.validate()
    except ConfigurationError as exc:
        problems.append(str(exc))

    return problems
