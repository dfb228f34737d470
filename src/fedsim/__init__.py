"""fedsim: a deterministic simulator for sybil-based poisoning attacks on
federated learning, with similarity-based, Multi-Krum and RONI defenses.
"""

from .clients import (
    AdaptiveSybilCoordinator,
    Client,
    SgdConfig,
    StrawmanClient,
    make_noise_basis,
    noisy_sybil_update,
)
from .config import (
    AttackSpec,
    DatasetSpec,
    DefenseSpec,
    ExperimentConfig,
    PartitionSpec,
    config_from_dict,
    load_config,
    save_config,
    validate_config,
)
from .data import (
    Dataset,
    Partition,
    flip_labels,
    insert_backdoor,
    load_idx,
    make_mnist_like,
    mix_poison,
    partition_non_iid,
    synthesize,
)
from .defenses import (
    DefenseConfig,
    FoolsGold,
    RoniDefense,
    fed_average,
    feature_importance,
    logit_rescale,
    multikrum_round,
    multikrum_scores,
    pardon,
    similarity_matrix,
)
from .engine import load_dataset, measure_overhead, run, run_grid
from .errors import (
    ConfigurationError,
    DataFormatError,
    DivergenceError,
    FedsimError,
    InvalidArgumentError,
    MetricError,
)
from .metrics import (
    RunResult,
    accuracy,
    attack_rate_backdoor,
    attack_rate_labelflip,
    per_class_error,
)
from .model import gradient, predict, sgd_step, softmax_forward
from .presets import CATALOG, get_preset

__version__ = "0.1.0"
