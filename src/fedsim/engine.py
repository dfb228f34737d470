"""Synchronous federated-round orchestration: client update collection,
defense aggregation, per-round metrics, grids, and overhead measurement.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as datamod
from .clients import (
    ROLE_HONEST,
    ROLE_SYBIL,
    AdaptiveSybilCoordinator,
    Client,
    SgdConfig,
    StrawmanClient,
    client_rng,
    irrelevant_feature_mask,
    make_noise_basis,
    noisy_sybil_update,
)
from .config import (AttackSpec, DefenseSpec, ExperimentConfig, config_from_dict,
                     set_path, validate_config)
from .defenses import (FoolsGold, RoniDefense, fed_average, multikrum_round,
                       multikrum_survivors)
from .errors import ConfigurationError, DivergenceError, FedsimError
from .metrics import (
    RunResult,
    accuracy,
    attack_rate_backdoor,
    attack_rate_labelflip,
    per_class_error,
    predictions,
)
from .model import zeros_like_model


# Dataset construction is deterministic in the spec fields, so repeated runs
# (grids, seed averaging) share one in-memory copy. Its arrays are read-only:
# client partitions index into them and RONI validates on a view of them, so
# a write would otherwise corrupt every later run in the process.
_DATASET_CACHE: dict[tuple, tuple[datamod.Dataset, datamod.Dataset]] = {}


def load_dataset(config: ExperimentConfig) -> tuple[datamod.Dataset, datamod.Dataset]:
    ds = config.dataset
    key = (ds.kind, ds.data_dir, ds.seed, ds.num_classes, ds.num_features,
           tuple(ds.examples_per_class or ()), ds.test_fraction,
           ds.centroid_sparsity, ds.dead_features, ds.noise_scale)
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    result = _load_dataset_uncached(config)
    for dataset in result:
        dataset.X.setflags(write=False)
        dataset.y.setflags(write=False)
    if len(_DATASET_CACHE) > 8:
        _DATASET_CACHE.clear()
    _DATASET_CACHE[key] = result
    return result


def _load_dataset_uncached(config: ExperimentConfig
                           ) -> tuple[datamod.Dataset, datamod.Dataset]:
    ds = config.dataset
    if ds.kind == "mnist":
        data_dir = ds.data_dir or datamod.default_data_dir()
        if not datamod.mnist_available(data_dir):
            raise ConfigurationError(
                f"MNIST IDX files not found under {data_dir!r}; set dataset.data_dir "
                f"or {datamod.DATA_DIR_ENV}"
            )
        return datamod.load_mnist(data_dir)
    if ds.kind == "mnist_like":
        return datamod.make_mnist_like()
    if ds.kind == "synthetic":
        counts = ds.examples_per_class or [1000] * ds.num_classes
        full = datamod.synthesize(
            seed=ds.seed,
            num_classes=ds.num_classes,
            num_features=ds.num_features,
            examples_per_class=counts,
            noise_scale=ds.noise_scale,
            centroid_sparsity=ds.centroid_sparsity,
            dead_features=ds.dead_features,
        )
        return datamod.train_test_split(full, ds.test_fraction, seed=ds.seed)
    raise ConfigurationError(f"unknown dataset kind {ds.kind!r}")


@dataclass
class _AttackGroup:
    spec: AttackSpec
    clients: list  # Client or StrawmanClient instances
    noise_basis: np.ndarray | None = None
    coordinator: AdaptiveSybilCoordinator | None = None
    noise_ref: float = 0.0  # running max proposed-update norm, the noise unit


def _build_sybil_partition(train: datamod.Dataset, atk: AttackSpec,
                           mix: float, seed: int) -> datamod.Partition:
    if atk.type == "backdoor":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
        size = max(1, len(train) // train.num_classes)
        idx = rng.choice(len(train), size=size, replace=False)
        subset = datamod.Partition(-1, train.X, train.y[idx], idx)
        return datamod.insert_backdoor(subset, atk.target, atk.trigger,
                                       atk.trigger_value)
    base = datamod.sample_class_partition(train, atk.source, mix, seed)
    flipped = datamod.flip_labels(base, atk.source, atk.target)
    if atk.poison_fraction < 1.0:
        return datamod.mix_poison(base, flipped, atk.poison_fraction, seed)
    return flipped


def _build_clients(config: ExperimentConfig, train: datamod.Dataset,
                   init_params: np.ndarray
                   ) -> tuple[list, list[_AttackGroup]]:
    part = config.partitioning
    honest_parts = datamod.partition_non_iid(
        train, part.num_honest, part.x_honest, config.seed
    )
    clients = [
        Client(p.owner_id, p, config.sgd, client_rng(config.seed, p.owner_id),
               role=ROLE_HONEST)
        for p in honest_parts
    ]

    groups = []
    next_id = part.num_honest
    dim = init_params.size
    for k, atk in enumerate(config.attacks):
        members = []
        shared = None
        for s in range(atk.num_sybils):
            cid = next_id
            next_id += 1
            if atk.type == "strawman":
                partition = _build_sybil_partition(
                    train, atk, part.x_sybil, seed=config.seed * 131 + k
                )
                members.append(StrawmanClient.pretrain(
                    cid, partition, config.sgd, init_params,
                    client_rng(config.seed, cid),
                    pretrain_iterations=atk.pretrain_iterations,
                ))
                continue
            if part.clone_sybil_data:
                if shared is None:
                    shared = _build_sybil_partition(
                        train, atk, part.x_sybil, seed=config.seed * 131 + k
                    )
                partition = shared
            else:
                partition = _build_sybil_partition(
                    train, atk, part.x_sybil, seed=config.seed * 131 + k * 977 + s
                )
            members.append(Client(cid, partition, config.sgd,
                                  client_rng(config.seed, cid), role=ROLE_SYBIL))

        group = _AttackGroup(spec=atk, clients=members)
        if atk.type in ("noise", "adaptive"):
            group.noise_basis = make_noise_basis(
                dim, atk.num_sybils, seed=config.seed * 53 + k
            )
        if atk.type == "adaptive":
            fg = config.defense.foolsgold
            group.coordinator = AdaptiveSybilCoordinator(
                sybil_ids=[c.id for c in members],
                threshold=atk.threshold,
                noise_basis=group.noise_basis,
                attacker_knows_features=atk.attacker_knows_features,
                feature_mode=fg.feature_mode if atk.attacker_knows_features else "none",
                hard_ratio=fg.hard_ratio,
            )
        groups.append(group)
        clients.extend(members)
    return clients, groups


def _sybil_round_updates(group: _AttackGroup, proposed: np.ndarray,
                         global_params: np.ndarray) -> np.ndarray:
    """Post-process a sybil group's proposed updates per its strategy."""
    atk = group.spec
    if atk.type == "noise":
        mask = irrelevant_feature_mask(global_params, atk.noise_indicative_ratio).ravel()
        out = np.empty_like(proposed)
        for i in range(len(proposed)):
            scale = atk.noise_scale * np.linalg.norm(proposed[i])
            out[i] = noisy_sybil_update(proposed[i], group.noise_basis[i] * scale, mask)
        return out
    if atk.type == "adaptive":
        send_poison = group.coordinator.decide(proposed, global_params)
        norms = np.linalg.norm(proposed.reshape(len(proposed), -1), axis=1)
        # Right after a successful poison round the sybils' own objective is
        # met and their proposed updates vanish; keep the noise magnitude
        # pegged to the largest update seen so the disguise never stalls.
        group.noise_ref = max(group.noise_ref, float(norms.max()))
        scale = atk.noise_scale * group.noise_ref
        out = np.empty_like(proposed)
        for i in range(len(proposed)):
            if send_poison[i]:
                out[i] = proposed[i]
            else:
                out[i] = (group.noise_basis[i] * scale).reshape(proposed[i].shape)
        group.coordinator.commit(out)
        return out
    return proposed


def _divergence_message(t: int, clients: list, updates: np.ndarray) -> str:
    """Name the round, the stage and the first client whose update is
    non-finite; the updates are scanned only once a check has failed."""
    finite = np.isfinite(updates.reshape(len(updates), -1)).all(axis=1)
    if finite.all():
        where = "in aggregation (every client update was finite)"
    else:
        client = clients[int(np.argmin(finite))]
        where = (f"in the client update stage (client {client.id} sent "
                 f"a non-finite update)")
    return (f"non-finite model parameters at round {t} {where}; lower the "
            f"learning rate or regularization")


class _Evaluator:
    """Caches the per-round evaluation subsample and final test matrices."""

    def __init__(self, config: ExperimentConfig, test: datamod.Dataset):
        self.test = test
        self.attacks = config.attacks
        self.sub_X, self.sub_y = test.X, test.y
        if config.eval_subsample and config.eval_subsample < len(test):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, 41]))
            idx = rng.choice(len(test), size=config.eval_subsample, replace=False)
            self.sub_X, self.sub_y = test.X[idx], test.y[idx]

    def _attack_rate(self, params: np.ndarray, X: np.ndarray, y: np.ndarray,
                     atk: AttackSpec) -> float:
        if atk.type == "backdoor":
            trigger = atk.trigger if atk.trigger is not None else X.shape[1] - 2
            return attack_rate_backdoor(params, X, y, trigger,
                                        atk.trigger_value, atk.target)
        return attack_rate_labelflip(params, X, y, atk.source, atk.target)

    def round_metrics(self, params: np.ndarray) -> tuple[float, float]:
        preds = predictions(params, self.sub_X)
        acc = float(np.mean(preds == self.sub_y))
        if not self.attacks:
            return acc, 0.0
        atk = self.attacks[0]
        if atk.type == "backdoor":
            rate = self._attack_rate(params, self.sub_X, self.sub_y, atk)
        else:
            mask = self.sub_y == atk.source
            rate = float(np.mean(preds[mask] == atk.target)) if mask.any() else 0.0
        return acc, rate

    def final_attack_rates(self, params: np.ndarray) -> list[float]:
        return [
            self._attack_rate(params, self.test.X, self.test.y, atk)
            for atk in self.attacks
        ]


def _aggregator(spec: DefenseSpec, n: int, test: datamod.Dataset):
    """The run's aggregation rule `aggregate(updates, params) -> (params,
    alphas)` and the stateful defense behind it (None for stateless rules).

    Baseline and Multi-Krum call this module's `fed_average` and
    `multikrum_round` by name, so a wrapper installed there sees each round.
    """
    if spec.kind == "baseline":
        weights = np.full(n, 1.0 / n)
        return (lambda updates, params:
                (fed_average(params, updates, weights), weights)), None
    if spec.kind == "multikrum":
        return (lambda updates, params: multikrum_round(
            updates, spec.f, params, spec.distance_mode)), None
    if spec.kind == "foolsgold":
        fg = FoolsGold(config=spec.foolsgold)
        return fg.aggregate, fg
    if spec.kind == "foolsgold_multikrum":
        fg = FoolsGold(config=spec.foolsgold)
        return (lambda updates, params: fg.aggregate(
            updates, params,
            active=multikrum_survivors(updates, spec.f, spec.distance_mode))), fg
    if spec.kind == "roni":
        k = min(spec.roni_validation_size, len(test))
        roni = RoniDefense(test.X[:k], test.y[:k], threshold=spec.roni_threshold)
        return roni.aggregate, roni
    raise ConfigurationError(f"unknown defense kind {spec.kind!r}")


def run(config: ExperimentConfig) -> RunResult:
    """Execute one experiment; deterministic given the config."""
    problems = validate_config(config)
    if problems:
        raise ConfigurationError("invalid config: " + "; ".join(problems))

    train, test = load_dataset(config)
    params = zeros_like_model(train.num_classes, train.num_features)
    clients, groups = _build_clients(config, train, params)
    n = len(clients)
    evaluator = _Evaluator(config, test)

    aggregate, defense = _aggregator(config.defense, n, test)

    T = config.total_iterations
    acc_series = np.zeros(T)
    rate_series = np.zeros(T)
    alpha_series = np.zeros((T, n))
    round_times = np.zeros(T)
    agg_times = np.zeros(T)

    sybil_slices = []
    pos = config.partitioning.num_honest
    for group in groups:
        sybil_slices.append(slice(pos, pos + len(group.clients)))
        pos += len(group.clients)

    # One round buffer for the whole run: no defense keeps a reference to it.
    updates = np.empty((n,) + params.shape)
    for t in range(T):
        t0 = time.perf_counter()
        for i, client in enumerate(clients):
            updates[i] = client.local_update(params)
        for group, sl in zip(groups, sybil_slices):
            updates[sl] = _sybil_round_updates(group, updates[sl], params)
        # Before any defense sees them: a non-finite update would otherwise
        # reach its scores (or be dropped by them) without a trace.
        if not np.isfinite(updates).all():
            raise DivergenceError(_divergence_message(t, clients, updates))

        a0 = time.perf_counter()
        params, alphas = aggregate(updates, params)
        agg_times[t] = time.perf_counter() - a0

        if not np.all(np.isfinite(params)):
            raise DivergenceError(_divergence_message(t, clients, updates))

        acc_series[t], rate_series[t] = evaluator.round_metrics(params)
        alpha_series[t] = alphas
        round_times[t] = time.perf_counter() - t0

    final_rates = evaluator.final_attack_rates(params)
    extras = {
        "aggregation_times": agg_times,
        "attack_rates": final_rates,
        "roles": [c.role for c in clients],
    }
    if isinstance(defense, FoolsGold):
        extras["degenerate_rounds"] = defense.degenerate_rounds
        extras["histories"] = defense.histories
    elif isinstance(defense, RoniDefense):
        extras["roni_cumulative"] = defense.cumulative
    for group in groups:
        if group.coordinator is not None:
            extras["poison_frequency"] = group.coordinator.poison_frequency
            extras["poison_counts"] = np.array(group.coordinator.poison_counts)

    return RunResult(
        config_dict=config.to_dict(),
        accuracy_series=acc_series,
        attack_rate_series=rate_series,
        alpha_series=alpha_series,
        round_times=round_times,
        final_params=params,
        final_accuracy=accuracy(params, test.X, test.y) if len(test) else float("nan"),
        final_attack_rate=final_rates[0] if final_rates else 0.0,
        final_train_accuracy=accuracy(params, train.X, train.y),
        final_per_class_error=per_class_error(params, test.X, test.y,
                                              test.num_classes),
        extras=extras,
    )


def run_grid(base_config: ExperimentConfig, sweep: dict[str, list],
             derive_seeds: bool = True) -> dict[str, RunResult | Exception]:
    """Cartesian-product runs over dotted config keys.

    Results are keyed by 'key=value;...' strings. A run that fails with a
    FedsimError stores it under its key and the rest of the grid continues;
    any other exception is a programming error and propagates.
    """
    keys = list(sweep)
    results: dict[str, RunResult | Exception] = {}
    if not keys:
        return results
    for idx, combo in enumerate(itertools.product(*(sweep[k] for k in keys))):
        run_key = ";".join(f"{k}={v}" for k, v in zip(keys, combo))
        try:
            data = base_config.to_dict()
            for key, value in zip(keys, combo):
                set_path(data, key, value)
            if derive_seeds and "seed" not in keys:
                data["seed"] = int(
                    np.random.SeedSequence(
                        [base_config.seed, 59, idx]).generate_state(1)[0]
                    % (2**31)
                )
            results[run_key] = run(config_from_dict(data))
        except FedsimError as exc:
            results[run_key] = exc
    return results


def measure_overhead(config: ExperimentConfig, client_counts,
                     rounds: int = 10) -> list[dict]:
    """Median aggregation-step wall clock for the similarity defense vs the
    plain average, isolated from client computation, at each client count.
    """
    train, _ = load_dataset(config)
    dim = (train.num_classes, train.num_features)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 61]))
    rows = []
    for count in client_counts:
        fg = FoolsGold(config=config.defense.foolsgold)
        params = zeros_like_model(*dim)
        base_params = params.copy()
        fg_times = []
        base_times = []
        for _ in range(max(rounds, 10)):
            updates = rng.normal(scale=1e-3, size=(count,) + dim)
            t0 = time.perf_counter()
            params, _alphas = fg.aggregate(updates, params)
            fg_times.append(time.perf_counter() - t0)
            weights = np.full(count, 1.0 / count)
            t0 = time.perf_counter()
            base_params = fed_average(base_params, updates, weights)
            base_times.append(time.perf_counter() - t0)
        rows.append({
            "clients": count,
            "defense_round_s": float(np.median(fg_times)),
            "baseline_round_s": float(np.median(base_times)),
        })
    return rows
