"""Engine: determinism, round accounting, defenses wiring, grids, overhead."""

import numpy as np
import pytest

from fedsim.config import AttackSpec, DefenseSpec, PartitionSpec
from fedsim.defenses import DefenseConfig
from fedsim.engine import load_dataset, measure_overhead, run, run_grid
from fedsim.errors import ConfigurationError, DivergenceError

from conftest import tiny_attack, tiny_config


class TestRunBasics:
    def test_series_lengths(self):
        result = run(tiny_config(total_iterations=7))
        assert result.num_rounds == 7
        assert len(result.attack_rate_series) == 7
        assert result.alpha_series.shape == (7, 4)
        assert len(result.round_times) == 7

    def test_zero_iterations(self):
        result = run(tiny_config(total_iterations=0))
        assert result.num_rounds == 0
        assert np.all(result.final_params == 0.0)

    def test_deterministic(self):
        cfg = tiny_config(attacks=[tiny_attack()],
                          defense=DefenseSpec(kind="foolsgold"))
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.accuracy_series, b.accuracy_series)
        assert np.array_equal(a.alpha_series, b.alpha_series)
        assert np.array_equal(a.final_params, b.final_params)

    def test_seed_changes_results(self):
        a = run(tiny_config(seed=1))
        b = run(tiny_config(seed=2))
        assert not np.array_equal(a.final_params, b.final_params)

    def test_invalid_config_rejected_before_round_zero(self):
        cfg = tiny_config(partitioning=PartitionSpec(num_honest=0))
        with pytest.raises(ConfigurationError):
            run(cfg)

    def test_learning_happens(self):
        result = run(tiny_config(total_iterations=150))
        assert result.final_accuracy >= 0.9

    def test_divergence_detected(self):
        from fedsim.clients import SgdConfig
        cfg = tiny_config(total_iterations=200,
                          sgd=SgdConfig(local_learning_rate=1e6,
                                        regularization=1.0))
        with pytest.raises(DivergenceError):
            run(cfg)

    def test_roles_recorded(self):
        result = run(tiny_config(total_iterations=1, attacks=[tiny_attack()]))
        roles = result.extras["roles"]
        assert roles == ["honest"] * 4 + ["sybil"] * 2


class TestDefenseWiring:
    def test_foolsgold_zeroes_cloned_sybils(self):
        cfg = tiny_config(
            total_iterations=30,
            partitioning=PartitionSpec(num_honest=4, clone_sybil_data=True),
            attacks=[tiny_attack()],
            defense=DefenseSpec(kind="foolsgold"),
        )
        result = run(cfg)
        sybil_alpha = result.alpha_series[-1, 4:]
        honest_alpha = result.alpha_series[-1, :4]
        assert np.all(sybil_alpha < 0.2)
        assert np.all(honest_alpha > 0.8)

    def test_multikrum_masks_f_clients(self):
        cfg = tiny_config(total_iterations=5, attacks=[tiny_attack()],
                          defense=DefenseSpec(kind="multikrum", f=2))
        result = run(cfg)
        alphas = result.alpha_series[0]
        assert int(np.sum(alphas == 0.0)) == 2
        assert np.allclose(alphas[alphas > 0], 1.0 / 4)

    def test_roni_tracks_cumulative(self):
        cfg = tiny_config(total_iterations=5,
                          defense=DefenseSpec(kind="roni",
                                              roni_validation_size=100))
        result = run(cfg)
        assert result.extras["roni_cumulative"].shape == (4,)

    def test_composed_defense_runs(self):
        cfg = tiny_config(total_iterations=5, attacks=[tiny_attack()],
                          defense=DefenseSpec(kind="foolsgold_multikrum", f=1))
        result = run(cfg)
        # exactly one client filtered before the similarity step each round
        assert np.all((result.alpha_series == 0.0).sum(axis=1) >= 1)

    def test_adaptive_attack_records_frequency(self):
        cfg = tiny_config(
            total_iterations=8,
            attacks=[AttackSpec(type="adaptive", num_sybils=2, source=1,
                                target=2, threshold=1.0)],
            defense=DefenseSpec(kind="foolsgold"),
        )
        result = run(cfg)
        assert result.extras["poison_frequency"] == 1.0

    def test_backdoor_attack_runs(self):
        cfg = tiny_config(
            total_iterations=10,
            attacks=[AttackSpec(type="backdoor", num_sybils=2, target=3)],
        )
        result = run(cfg)
        assert 0.0 <= result.final_attack_rate <= 1.0

    def test_strawman_attack_runs(self):
        cfg = tiny_config(
            total_iterations=10,
            attacks=[AttackSpec(type="strawman", num_sybils=1, source=1,
                                target=2, pretrain_iterations=50)],
            defense=DefenseSpec(kind="foolsgold"),
        )
        result = run(cfg)
        assert result.num_rounds == 10

    def test_noise_attack_pair_runs(self):
        cfg = tiny_config(
            total_iterations=10,
            attacks=[AttackSpec(type="noise", num_sybils=2, source=1,
                                target=2, noise_scale=2.0)],
            defense=DefenseSpec(
                kind="foolsgold",
                foolsgold=DefenseConfig(feature_mode="hard", hard_ratio=0.5)),
        )
        result = run(cfg)
        assert result.num_rounds == 10


class TestSeedIsolation:
    def test_extra_client_does_not_perturb_others(self):
        # adding a sybil group must not change honest clients' batch draws;
        # with lr=0 everywhere the model never moves, so honest updates are
        # a pure function of their own streams
        from fedsim.clients import Client, SgdConfig, client_rng
        from fedsim.data import partition_non_iid

        cfg = tiny_config()
        train, _ = load_dataset(cfg)
        parts = partition_non_iid(train, 4, 0.0, cfg.seed)
        sgd = SgdConfig(batch_size=5)
        w = np.zeros((4, train.num_features))
        draws_a = [Client(p.owner_id, p, sgd, client_rng(cfg.seed, p.owner_id))
                   .sample_batch()[1] for p in parts]
        # a fifth client with its own stream
        _ = client_rng(cfg.seed, 4).integers(0, 100, size=10)
        draws_b = [Client(p.owner_id, p, sgd, client_rng(cfg.seed, p.owner_id))
                   .sample_batch()[1] for p in parts]
        for a, b in zip(draws_a, draws_b):
            assert np.array_equal(a, b)


class TestRunGrid:
    def test_grid_keys_and_count(self):
        base = tiny_config(total_iterations=2)
        results = run_grid(base, {"seed": [1, 2], "total_iterations": [1, 2]})
        assert len(results) == 4
        assert "seed=1;total_iterations=2" in results

    def test_empty_grid(self):
        assert run_grid(tiny_config(), {}) == {}

    def test_errors_isolated(self):
        base = tiny_config(total_iterations=1, attacks=[tiny_attack()])
        results = run_grid(base, {"attacks.0.target": [2, 1]})
        # source=1, target=1 is invalid; the other grid point still runs
        assert isinstance(results["attacks.0.target=1"], ConfigurationError)
        assert not isinstance(results["attacks.0.target=2"], Exception)

    def test_derived_seeds_differ(self):
        base = tiny_config(total_iterations=3)
        results = run_grid(base, {"eval_subsample": [0, 0]},)
        # identical settings but distinct grid indices get distinct seeds
        keys = list(results)
        assert len(keys) == 1  # same key string collapses; use separate values
        results = run_grid(base, {"name": ["a", "b"]})
        a, b = results["name=a"], results["name=b"]
        assert not np.array_equal(a.final_params, b.final_params)

    def test_unknown_sweep_key(self):
        base = tiny_config(total_iterations=1)
        results = run_grid(base, {"no_such_field": [1]})
        assert isinstance(results["no_such_field=1"], Exception)


class TestMeasureOverhead:
    def test_rows_and_ordering(self):
        rows = measure_overhead(tiny_config(), [2, 4], rounds=3)
        assert [r["clients"] for r in rows] == [2, 4]
        for r in rows:
            assert r["defense_round_s"] > 0.0
            assert r["baseline_round_s"] > 0.0


class TestLoadDataset:
    def test_mnist_like_shapes(self):
        from fedsim.config import DatasetSpec
        cfg = tiny_config(dataset=DatasetSpec(kind="mnist_like"))
        train, test = load_dataset(cfg)
        assert train.num_features == 785
        assert len(test) == 10000

    def test_cache_returns_same_object(self):
        cfg = tiny_config()
        assert load_dataset(cfg)[0] is load_dataset(cfg)[0]

    def test_cached_arrays_read_only(self):
        cfg = tiny_config()
        train, test = load_dataset(cfg)
        before = [a.copy() for a in (train.X, train.y, test.X, test.y)]
        for array in (train.X, train.y, test.X, test.y):
            with pytest.raises(ValueError):
                array[0] = 0
        again = load_dataset(cfg)
        after = (again[0].X, again[0].y, again[1].X, again[1].y)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_missing_mnist_errors(self):
        from fedsim.config import DatasetSpec
        cfg = tiny_config(dataset=DatasetSpec(kind="mnist",
                                              data_dir="/nonexistent"))
        with pytest.raises(ConfigurationError):
            load_dataset(cfg)

    def test_unknown_kind(self):
        cfg = tiny_config()
        cfg.dataset.kind = "imagenet"
        with pytest.raises(ConfigurationError):
            load_dataset(cfg)
