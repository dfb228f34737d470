"""Client implementations: honest SGD clients, naive sybils, intelligent-noise
sybil pairs, the adaptive similarity-gated sybil coordinator, and the ideal
single-adversary strawman.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Partition
from .defenses import feature_importance, row_maxima, similarity_matrix
from .errors import ConfigurationError
from .model import gradient, sgd_step

ROLE_HONEST = "honest"
ROLE_SYBIL = "sybil"


@dataclass
class SgdConfig:
    local_learning_rate: float = 0.05
    regularization: float = 1e-4
    batch_size: int = 50
    local_iterations: int = 1  # 1 = FEDSGD, >1 = FEDAVG

    def validate(self) -> None:
        for name in ("local_learning_rate", "regularization"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"sgd.{name} must be finite and non-negative, got {value}")
        if self.batch_size < 1 or self.local_iterations < 1:
            raise ConfigurationError("batch size and local iterations must be >= 1")


def client_rng(master_seed: int, client_id: int) -> np.random.Generator:
    """Independent per-client stream derived from (master seed, client id)."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, 101, client_id]))


@dataclass
class Client:
    """A client running local SGD on its own partition.

    Honest clients and naive sybils share this implementation; a sybil's
    maliciousness lives entirely in its poisoned partition. Clients only
    ever see the global parameters, never other clients' updates.
    """

    id: int
    partition: Partition
    sgd: SgdConfig
    rng: np.random.Generator
    role: str = ROLE_HONEST

    def sample_batch(self) -> tuple[np.ndarray, np.ndarray]:
        # Uniform with replacement, so batch_size may exceed the partition.
        idx = self.rng.integers(0, len(self.partition), size=self.sgd.batch_size)
        return self.partition.X[self.partition.rows[idx]], self.partition.y[idx]

    def local_update(self, global_params: np.ndarray) -> np.ndarray:
        """Run local_iterations SGD steps; return (local final - global)."""
        w = global_params
        for _ in range(self.sgd.local_iterations):
            X, y = self.sample_batch()
            g = gradient(w, X, y, self.sgd.regularization)
            w = sgd_step(w, g, self.sgd.local_learning_rate)
        return w - global_params


def make_noise_basis(dimension: int, num_sybils: int, seed: int,
                     scale: float = 1.0) -> np.ndarray:
    """Noise vectors {z_k, -z_k} that sum to zero with pairwise cosine 0 or -1.

    Returns (num_sybils, dimension); vector i goes to sybil i. Pairs are
    built from mutually orthogonal unit vectors scaled by `scale`.
    """
    if num_sybils % 2 != 0:
        raise ConfigurationError("noise basis needs an even number of sybils")
    num_pairs = num_sybils // 2
    if num_pairs > dimension:
        raise ConfigurationError(
            f"cannot fit {num_pairs} orthogonal noise vectors in dimension {dimension}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    raw = rng.normal(size=(dimension, num_pairs))
    q, _ = np.linalg.qr(raw)
    basis = np.empty((num_sybils, dimension))
    basis[0::2] = q.T * scale
    basis[1::2] = -q.T * scale
    return basis


def noisy_sybil_update(base_update: np.ndarray, noise_vector: np.ndarray,
                       noise_mask: np.ndarray) -> np.ndarray:
    """base + mask * noise; the mask selects the features allowed to carry noise."""
    if base_update.size != noise_vector.size or base_update.size != noise_mask.size:
        raise ConfigurationError("update, noise and mask dimensions must agree")
    return base_update + (noise_mask.reshape(base_update.shape)
                          * noise_vector.reshape(base_update.shape))


def irrelevant_feature_mask(global_params: np.ndarray,
                            indicative_ratio: float = 0.1) -> np.ndarray:
    """1 on parameters outside the top-magnitude set of each class row.

    Attackers confine their noise to these parameters so it does not
    disturb either the model or the attack.
    """
    indicative = feature_importance(global_params, "hard", indicative_ratio)
    return 1.0 - indicative


@dataclass
class AdaptiveSybilCoordinator:
    """Colluding sybils that send poison only when their own bookkept
    similarity is at or below the threshold, and noise otherwise.

    The coordinator mirrors the server's history/similarity computation
    over the sybils' own sent updates. Feature weighting is mirrored only
    when the attacker knows the server's weighting scheme.
    """

    sybil_ids: list[int]
    threshold: float  # M in [-1, 1]
    noise_basis: np.ndarray  # (num_sybils, dimension)
    attacker_knows_features: bool = False
    feature_mode: str = "none"
    hard_ratio: float = 1.0
    histories: np.ndarray | None = None
    poison_sent: int = 0
    decisions_made: int = 0
    poison_counts: list = field(default_factory=list)  # sybils poisoning, per round

    def decide(self, proposed_updates: np.ndarray,
               global_params: np.ndarray) -> np.ndarray:
        """Boolean per sybil: True = send the poisoned update, False = noise.

        Decisions are made on the histories of what was previously sent, as
        the server would see them at the start of the round. A sybil that
        has not sent anything yet has no similarity evidence against it and
        defaults to sending poison.
        """
        n = len(self.sybil_ids)
        flat = proposed_updates.reshape(n, -1)
        if self.histories is None:
            self.histories = np.zeros_like(flat)
        weights = None
        if self.attacker_knows_features:
            weights = feature_importance(
                global_params, self.feature_mode, self.hard_ratio
            ).ravel()
        cs = similarity_matrix(self.histories, weights)
        v = row_maxima(cs)
        fresh = np.linalg.norm(self.histories, axis=1) == 0.0
        send_poison = (v <= self.threshold) | fresh
        self.decisions_made += n
        self.poison_sent += int(send_poison.sum())
        self.poison_counts.append(int(send_poison.sum()))
        return send_poison

    def commit(self, sent_updates: np.ndarray) -> None:
        """Record what was actually sent (poison or noise) in the local books."""
        self.histories += sent_updates.reshape(len(self.sybil_ids), -1)

    @property
    def poison_frequency(self) -> float:
        if self.decisions_made == 0:
            return 0.0
        return self.poison_sent / self.decisions_made


@dataclass
class StrawmanClient:
    """Ideal single adversary: each round sends a step toward a fixed
    poisoned optimum obtained by pre-training on the poisoned partition.
    """

    id: int
    target_params: np.ndarray
    step_scale: float
    role: str = ROLE_SYBIL

    @classmethod
    def pretrain(cls, client_id: int, partition: Partition, sgd: SgdConfig,
                 init_params: np.ndarray, rng: np.random.Generator,
                 pretrain_iterations: int = 500,
                 step_scale: float | None = None) -> "StrawmanClient":
        trainer = Client(client_id, partition, sgd, rng, role=ROLE_SYBIL)
        w = init_params
        for _ in range(pretrain_iterations):
            w = w + trainer.local_update(w)
        scale = step_scale if step_scale is not None else sgd.local_learning_rate
        return cls(id=client_id, target_params=w, step_scale=scale)

    def local_update(self, global_params: np.ndarray) -> np.ndarray:
        return self.step_scale * (self.target_params - global_params)
