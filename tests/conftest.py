"""Shared fixtures: small datasets and configs sized for fast unit tests."""

import numpy as np
import pytest

from fedsim.config import (
    AttackSpec,
    DatasetSpec,
    DefenseSpec,
    ExperimentConfig,
    PartitionSpec,
)
from fedsim.clients import SgdConfig
from fedsim.data import synthesize, train_test_split


def make_small_dataset():
    """4 well-separated classes, 40 features, 200 examples per class."""
    return synthesize(
        seed=3, num_classes=4, num_features=40,
        examples_per_class=[200] * 4, centroid_sparsity=0.5,
    )


@pytest.fixture(scope="session")
def small_dataset():
    return make_small_dataset()


@pytest.fixture(scope="session")
def small_split():
    # train_test_split reorders its input in place, so the split gets a
    # dataset of its own instead of the shared `small_dataset`.
    return train_test_split(make_small_dataset(), 0.3, seed=3)


def tiny_config(**kwargs) -> ExperimentConfig:
    """A 4-class synthetic experiment that runs in well under a second."""
    defaults = dict(
        name="tiny",
        seed=5,
        total_iterations=20,
        eval_subsample=0,
        dataset=DatasetSpec(kind="synthetic", seed=3, num_classes=4,
                            num_features=40, examples_per_class=[200] * 4,
                            centroid_sparsity=0.5),
        partitioning=PartitionSpec(num_honest=4),
        defense=DefenseSpec(kind="baseline"),
        sgd=SgdConfig(local_learning_rate=0.05, regularization=1e-4,
                      batch_size=20, local_iterations=1),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def tiny_attack(**kwargs) -> AttackSpec:
    defaults = dict(type="labelflip", num_sybils=2, source=1, target=2)
    defaults.update(kwargs)
    return AttackSpec(**defaults)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
