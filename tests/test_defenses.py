"""Aggregation rules: averaging, the similarity defense, Multi-Krum, RONI."""

import itertools

import numpy as np
import pytest

from fedsim.defenses import (
    LOGIT_EPS,
    DefenseConfig,
    FoolsGold,
    RoniDefense,
    fed_average,
    feature_importance,
    logit_rescale,
    multikrum_round,
    multikrum_scores,
    pardon,
    row_maxima,
    row_norms,
    similarity_matrix,
)
from fedsim.errors import ConfigurationError

from oracles import multikrum_scores_dense, weighted_cosine


class TestFedAverage:
    def test_equal_updates_uniform_weights(self):
        w = np.zeros((2, 2))
        d = np.ones((2, 2))
        updates = np.stack([d, d, d])
        out = fed_average(w, updates, np.full(3, 1 / 3))
        assert np.allclose(out, d)

    def test_zero_weights_unchanged(self, rng):
        w = rng.normal(size=(2, 3))
        updates = rng.normal(size=(4, 2, 3))
        assert np.array_equal(fed_average(w, updates, np.zeros(4)), w)

    def test_hand_arithmetic(self):
        w = np.zeros((1, 2))
        updates = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        out = fed_average(w, updates, np.array([0.5, 0.5]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_empty_updates(self, rng):
        w = rng.normal(size=(2, 2))
        assert fed_average(w, np.zeros((0, 2, 2)), np.zeros(0)) is w

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            fed_average(np.zeros((1, 2)), np.ones((1, 1, 2)), np.array([-0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            fed_average(np.zeros((1, 2)), np.ones((2, 1, 2)), np.array([0.5, bad]))


class TestFeatureImportance:
    def test_none_mode_all_ones(self, rng):
        w = rng.normal(size=(3, 5))
        assert np.all(feature_importance(w, "none") == 1.0)

    def test_soft_equal_magnitudes(self):
        w = np.full((2, 4), -0.7)
        assert np.all(feature_importance(w, "soft") == 1.0)

    def test_soft_row_normalized(self):
        w = np.array([[1.0, 2.0, 4.0]])
        assert np.allclose(feature_importance(w, "soft"), [[0.25, 0.5, 1.0]])

    def test_hard_ratio_one_all_ones(self, rng):
        w = rng.normal(size=(3, 5))
        assert np.all(feature_importance(w, "hard", 1.0) == 1.0)

    def test_hard_keeps_top_per_row(self):
        w = np.array([[0.1, 5.0, 0.2, 3.0],
                      [4.0, 0.0, 2.0, 0.3]])
        out = feature_importance(w, "hard", 0.5)
        assert np.array_equal(out, [[0, 1, 0, 1], [1, 0, 1, 0]])

    def test_hard_count_is_ceil(self):
        w = np.arange(784, dtype=float).reshape(1, 784)
        out = feature_importance(w, "hard", 0.01)
        assert int(out.sum()) == int(np.ceil(0.01 * 784))  # 8 features

    def test_hard_bad_ratio(self):
        with pytest.raises(ConfigurationError):
            feature_importance(np.zeros((1, 4)), "hard", 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            feature_importance(np.zeros((1, 4)), "sharp")


class TestWeightedCosine:
    def test_identical_vectors(self, rng):
        a = rng.normal(size=6)
        assert weighted_cosine(a, a, np.ones(6)) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert weighted_cosine(a, b, np.ones(2)) == 0.0

    def test_mask_creates_similarity(self):
        # the weights hide the disagreeing coordinate entirely
        a = np.array([1.0, 1.0])
        b = np.array([1.0, -1.0])
        w = np.array([1.0, 0.0])
        assert weighted_cosine(a, b, w) == pytest.approx(1.0)

    def test_zero_norm(self):
        assert weighted_cosine(np.zeros(3), np.ones(3), np.ones(3)) == 0.0

    def test_matches_matrix(self, rng):
        H = rng.normal(size=(4, 7))
        w = rng.uniform(size=7)
        cs = similarity_matrix(H, w)
        for i in range(4):
            for j in range(4):
                assert cs[i, j] == pytest.approx(
                    weighted_cosine(H[i], H[j], w), abs=1e-12)


class TestSimilarityMatrix:
    def test_symmetric_and_bounded(self, rng):
        cs = similarity_matrix(rng.normal(size=(5, 9)), np.ones(9))
        assert np.allclose(cs, cs.T)
        assert np.all(cs <= 1.0) and np.all(cs >= -1.0)

    def test_zero_rows_score_zero(self, rng):
        H = rng.normal(size=(3, 4))
        H[1] = 0.0
        cs = similarity_matrix(H, np.ones(4))
        assert np.all(cs[1] == 0.0) and np.all(cs[:, 1] == 0.0)

    def test_no_weights_equals_unit_weights(self, rng):
        H = rng.normal(size=(40, 23))
        H[3] = 0.0
        H[7] = H[5]  # exact duplicates snap to 1
        assert np.array_equal(similarity_matrix(H, None),
                              similarity_matrix(H, np.ones(23)))


class TestRowNorms:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 70])
    def test_equals_linalg_norm(self, rng, n):
        # rows span 300 orders of magnitude; one is all zeros
        H = rng.normal(size=(n, 785)) * 10.0 ** rng.integers(-150, 150, size=(n, 1))
        if n > 2:
            H[2] = 0.0
        assert np.array_equal(row_norms(H), np.linalg.norm(H, axis=1))


class TestRowMaxima:
    def test_ignores_diagonal(self):
        cs = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert np.allclose(row_maxima(cs), [0.2, 0.2])

    def test_single_client(self):
        assert row_maxima(np.array([[1.0]])) == np.array([0.0])


class TestPardon:
    def test_equal_maxima_unchanged(self):
        cs = np.array([[1.0, 0.5], [0.5, 1.0]])
        v = row_maxima(cs)
        assert np.array_equal(pardon(cs, v), cs)

    def test_hand_trace(self):
        # v = [0.8, 0.4]: row 2's entry scaled by 0.4/0.8, row 1 untouched
        cs = np.array([[1.0, 0.8, 0.1],
                       [0.8, 1.0, 0.05],
                       [0.1, 0.05, 1.0]])
        v = np.array([0.8, 0.4, 0.4])
        out = pardon(cs, v)
        assert out[1, 0] == pytest.approx(0.8 * 0.4 / 0.8)
        assert out[0, 1] == pytest.approx(0.8)

    def test_uses_original_v_throughout(self):
        cs = np.array([[1.0, 0.9, 0.3],
                       [0.9, 1.0, 0.2],
                       [0.3, 0.2, 1.0]])
        v = np.array([0.9, 0.9, 0.3])
        out = pardon(cs, v)
        # rows 0 and 1 tie, both keep their mutual entry
        assert out[0, 1] == pytest.approx(0.9)
        assert out[1, 0] == pytest.approx(0.9)
        # row 2 pardoned against both by 0.3/0.9
        assert out[2, 0] == pytest.approx(0.3 / 3)

    def test_never_increases(self, rng):
        for _ in range(50):
            H = rng.normal(size=(5, 6))
            cs = similarity_matrix(H, np.ones(6))
            v = row_maxima(cs)
            out = pardon(cs, v)
            off = ~np.eye(5, dtype=bool)
            assert np.all(out[off] <= cs[off] + 1e-12)

    def test_negative_v_untouched(self):
        cs = np.array([[1.0, -0.5], [-0.5, 1.0]])
        v = np.array([-0.5, 0.5])
        out = pardon(cs, v)
        assert out[0, 1] == pytest.approx(-0.5)

    @pytest.mark.filterwarnings("error")
    def test_unselected_ratio_cannot_overflow(self):
        # v_0 / v_1 overflows, but entry (0, 1) is never rescaled
        cs = np.array([[1.0, 0.5], [0.5, 1.0]])
        out = pardon(cs, np.array([1e300, 1e-300]))
        assert np.array_equal(out, [[1.0, 0.5], [0.0, 1.0]])

    def test_matches_dense_ratio_formula(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            cs = rng.uniform(-1.0, 1.0, size=(n, n))
            v = rng.choice([-0.3, 0.0, 0.2, 0.5, 0.9], size=n)
            with np.errstate(all="ignore"):
                vi, vj = v[:, None], v[None, :]
                factor = np.where((vj > vi) & (vi >= 0.0) & (cs > 0.0),
                                  vi / np.where(vj > 0.0, vj, 1.0), 1.0)
            expected = cs * factor
            np.fill_diagonal(expected, np.diag(cs))
            assert np.array_equal(pardon(cs, v), expected)


class TestLogitRescale:
    def test_half_is_fixed_point(self):
        alphas, degenerate = logit_rescale(np.array([0.5, 1.0]))
        assert not degenerate
        assert alphas[0] == pytest.approx(0.5, abs=1e-6)

    def test_one_clips_to_one(self):
        alphas, _ = logit_rescale(np.array([1.0]))
        assert alphas[0] == 1.0

    def test_zero_maps_to_zero(self):
        alphas, _ = logit_rescale(np.array([0.0, 1.0]))
        assert alphas[0] == 0.0

    def test_lower_boundary_value(self):
        # alpha = e^-0.5 / (1 + e^-0.5): the centered logit crosses zero
        # A leading 1.0 is the row maximum, so a / max == a exactly.
        a = np.exp(-0.5) / (1 + np.exp(-0.5))
        alphas, _ = logit_rescale(np.array([1.0, a]))
        assert alphas[1] == pytest.approx(0.0, abs=1e-4)

    def test_appendix_thresholds_unrescaled(self):
        # max similarity 0.62246 -> raw rate 0.37754 -> pre-clip logit <= 0
        # (a leading 1.0 row maximum leaves the raw rates unscaled)
        low, _ = logit_rescale(np.array([1.0, 1 - 0.62246]))
        assert low[1] <= 1e-4
        # max similarity 0.37754 -> raw rate 0.62246 -> pre-clip logit >= 1
        high, _ = logit_rescale(np.array([1.0, 1 - 0.37754]))
        assert high[1] >= 1.0 - 1e-4
        assert high[1] == 1.0  # after clipping

    def test_degenerate_all_nonpositive(self):
        alphas, degenerate = logit_rescale(np.array([0.0, -0.2]))
        assert degenerate
        assert np.all(alphas == 0.0)

    def test_rescale_sets_max_to_one(self, rng):
        raw = rng.uniform(0.05, 0.9, size=6)
        alphas, _ = logit_rescale(raw)
        assert alphas.max() == 1.0

    def test_logit_disabled_clips_only(self):
        alphas, _ = logit_rescale(np.array([0.25, 0.5]), enable_logit=False)
        assert np.allclose(alphas, [0.5, 1.0])

    def test_kappa_scales_confidence(self):
        a = np.array([1.0, 0.6])
        k1, _ = logit_rescale(a, kappa=1.0)
        k2, _ = logit_rescale(a, kappa=2.0)
        assert k2[1] >= k1[1]

    def test_eps_guard_value(self):
        assert LOGIT_EPS == pytest.approx(1e-5)


def foolsgold_hand_round(updates, histories, weights, kappa=1.0):
    """Independent scalar reimplementation of one defense round."""
    H = histories + updates
    n = len(H)
    cs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cs[i, j] = weighted_cosine(H[i], H[j], weights)
    v = np.array([max(cs[i, j] for j in range(n) if j != i) for i in range(n)])
    out = cs.copy()
    for i in range(n):
        for j in range(n):
            if i != j and v[j] > v[i] and v[i] >= 0 and v[j] > 0 and cs[i, j] > 0:
                out[i, j] = cs[i, j] * v[i] / v[j]
    raw = 1 - np.array([max(out[i, j] for j in range(n) if j != i)
                        for i in range(n)])
    m = raw.max()
    if m <= 0:
        return np.zeros(n)
    a = raw / m
    a = np.clip(a, LOGIT_EPS, 1 - LOGIT_EPS)
    a = kappa * (np.log(a / (1 - a)) + 0.5)
    return np.clip(a, 0.0, 1.0)


def masked_gather_round(histories, updates, global_params, config, active=None):
    """One compute_alphas round as written before the unmasked fast path:
    masked history update and gather, an explicit feature-weighted copy and
    np.linalg.norm row norms. Returns (alphas, new histories)."""
    n = len(updates)
    flat = updates.reshape(n, -1)
    if active is None:
        active = np.ones(n, dtype=bool)
    histories = histories.copy()
    histories[active] += flat[active]
    basis = (histories if config.enable_history else flat)[active]
    H = basis * feature_importance(global_params, config.feature_mode,
                                   config.hard_ratio).ravel()
    norms = np.linalg.norm(H, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    cs = (H @ H.T) / np.outer(safe, safe)
    cs[norms == 0.0, :] = 0.0
    cs[:, norms == 0.0] = 0.0
    np.clip(cs, -1.0, 1.0, out=cs)
    cs[cs > 1.0 - 1e-12] = 1.0
    cs[cs < -1.0 + 1e-12] = -1.0
    if config.enable_pardoning:
        v = row_maxima(cs)
        vi, vj = v[:, None], v[None, :]
        with np.errstate(all="ignore"):
            factor = np.where((vj > vi) & (vi >= 0.0) & (cs > 0.0),
                              vi / np.where(vj > 0.0, vj, 1.0), 1.0)
        pardoned = cs * factor
        np.fill_diagonal(pardoned, np.diag(cs))
        cs = pardoned
    active_alphas, _ = logit_rescale(1.0 - row_maxima(cs), config.kappa,
                                     enable_logit=config.enable_logit)
    alphas = np.zeros(n)
    alphas[active] = active_alphas
    return alphas, histories


class TestFoolsGold:
    @pytest.mark.parametrize("config", [
        DefenseConfig(),
        DefenseConfig(feature_mode="soft"),
        DefenseConfig(feature_mode="hard", hard_ratio=0.4),
        DefenseConfig(enable_history=False, enable_pardoning=False),
        DefenseConfig(enable_logit=False, kappa=0.7),
    ])
    @pytest.mark.parametrize("mask", ["none", "all", "partial"])
    def test_matches_masked_gather_round(self, rng, config, mask):
        n, shape = 40, (3, 9)
        fg = FoolsGold(config=config)
        histories = np.zeros((n, 27))
        for _ in range(4):
            global_params = rng.normal(size=shape)
            updates = rng.normal(size=(n,) + shape)
            updates[5:30] = updates[4]  # cloned sybils
            updates[30] = 0.0  # a silent client
            active = {"none": None, "all": np.ones(n, dtype=bool),
                      "partial": rng.uniform(size=n) < 0.7}[mask]
            expected, histories = masked_gather_round(
                histories, updates, global_params, config, active)
            alphas = fg.compute_alphas(updates, global_params, active)
            assert np.array_equal(alphas, expected)
            assert np.array_equal(fg.histories, histories)

    def test_identical_sybils_get_zero(self, rng):
        fg = FoolsGold()
        w = np.zeros((2, 4))
        honest = rng.normal(size=(1, 2, 4))
        sybil = rng.normal(size=(2, 4))
        updates = np.concatenate([np.stack([sybil, sybil]), honest])
        _, alphas = fg.aggregate(updates, w)
        assert alphas[0] == 0.0 and alphas[1] == 0.0
        assert alphas[2] == 1.0

    def test_orthogonal_honest_clients_all_one(self):
        fg = FoolsGold()
        w = np.zeros((1, 3))
        updates = np.array([[[1.0, 0.0, 0.0]],
                            [[0.0, 1.0, 0.0]],
                            [[0.0, 0.0, 1.0]]])
        new, alphas = fg.aggregate(updates, w)
        assert np.all(alphas == 1.0)
        # identical to plain summation with unit weights
        assert np.allclose(new, w + updates.sum(axis=0))

    def test_matches_scalar_reimplementation(self, rng):
        fg = FoolsGold()
        w = rng.normal(size=(2, 5))
        histories = np.zeros((4, 10))
        for _ in range(3):
            updates = rng.normal(size=(4, 2, 5))
            alphas = fg.compute_alphas(updates, w)
            expected = foolsgold_hand_round(
                updates.reshape(4, -1), histories, np.ones(10))
            histories += updates.reshape(4, -1)
            assert np.allclose(alphas, expected, atol=1e-10)

    def test_history_accumulates(self, rng):
        fg = FoolsGold()
        w = np.zeros((1, 4))
        u = rng.normal(size=(2, 1, 4))
        fg.compute_alphas(u, w)
        fg.compute_alphas(u, w)
        assert np.allclose(fg.histories, 2 * u.reshape(2, -1))

    def test_history_disabled_uses_current_round(self, rng):
        # two clients identical this round but with opposite stored history
        cfg = DefenseConfig(enable_history=False)
        fg = FoolsGold(config=cfg)
        w = np.zeros((1, 4))
        first = np.stack([rng.normal(size=(1, 4))] * 2)
        fg.compute_alphas(np.stack([first[0], -first[1]]), w)
        alphas = fg.compute_alphas(first, w)
        assert np.all(alphas == 0.0)  # current-round duplicates

    def test_roster_change_rejected(self, rng):
        fg = FoolsGold()
        w = np.zeros((1, 3))
        fg.compute_alphas(rng.normal(size=(2, 1, 3)), w)
        with pytest.raises(ConfigurationError):
            fg.compute_alphas(rng.normal(size=(3, 1, 3)), w)

    def test_active_mask_skips_history_and_zeroes_alpha(self, rng):
        fg = FoolsGold()
        w = np.zeros((1, 4))
        updates = rng.normal(size=(3, 1, 4))
        active = np.array([True, True, False])
        alphas = fg.compute_alphas(updates, w, active=active)
        assert alphas[2] == 0.0
        assert np.all(fg.histories[2] == 0.0)

    def test_empty_round_is_noop(self, rng):
        fg = FoolsGold()
        w = rng.normal(size=(1, 3))
        new, alphas = fg.aggregate(np.zeros((0, 1, 3)), w)
        assert np.array_equal(new, w)
        assert len(alphas) == 0

    def test_degenerate_round_counted(self, rng):
        fg = FoolsGold()
        w = np.zeros((1, 4))
        u = rng.normal(size=(1, 1, 4))
        updates = np.concatenate([u, u])
        new, alphas = fg.aggregate(updates, w)
        assert fg.degenerate_rounds == 1
        assert np.all(alphas == 0.0)
        assert np.array_equal(new, w)

    def test_forced_unit_alphas_equal_fed_average(self, rng):
        # with perfectly dissimilar clients the defense reduces to the sum
        w = rng.normal(size=(2, 2))
        updates = np.zeros((4, 2, 2))
        for i in range(4):
            updates[i].flat[i] = 1.0
        fg = FoolsGold()
        new, alphas = fg.aggregate(updates, w)
        assert np.all(alphas == 1.0)
        assert np.allclose(new, fed_average(w, updates, np.ones(4)))


def multikrum_oracle(updates, f, distance_mode):
    """Brute-force per-update score via explicit pairwise loops."""
    n = len(updates)
    flat = updates.reshape(n, -1)
    scores = []
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d2 = float(np.sum((flat[i] - flat[j]) ** 2))
            dists.append(d2 if distance_mode == "squared" else np.sqrt(d2))
        dists.sort()
        scores.append(sum(dists[: n - f - 2]))
    return np.array(scores)


class TestMultiKrum:
    def test_outlier_removed(self):
        updates = np.array([[0.0], [0.0], [0.0], [10.0]]).reshape(4, 1, 1)
        new, alphas = multikrum_round(updates, 1, np.zeros((1, 1)))
        assert list(alphas > 0) == [True, True, True, False]
        assert np.allclose(new, 0.0)

    def test_f_zero_plain_average(self, rng):
        w = rng.normal(size=(2, 3))
        updates = rng.normal(size=(5, 2, 3))
        new, alphas = multikrum_round(updates, 0, w)
        assert np.all(alphas == 1 / 5)
        assert np.allclose(new, w + updates.mean(axis=0))

    def test_oracle_equivalence_fuzzed(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 7))
            f = int(rng.integers(0, max(1, n - 2)))
            if n < f + 3:
                continue
            updates = rng.normal(size=(n, 2, 2))
            for mode in ("squared", "plain"):
                got = multikrum_scores(updates, f, mode)
                want = multikrum_oracle(updates, f, mode)
                assert np.allclose(got, want, atol=1e-9), (n, f, mode)

    def test_pairwise_rows_equal_dense_tensor(self, rng):
        # Each pair's distance is computed once and mirrored; the scores
        # must equal the (n, n, d) difference tensor's bit for bit.
        for _ in range(60):
            n = int(rng.integers(3, 20))
            d = int(rng.choice([1, 5, 300, 7850]))
            scale = 10.0 ** rng.uniform(-6, 2)
            updates = rng.normal(scale=scale, size=(n, 1, d))
            a, b = rng.integers(0, n, size=2)
            updates[a] = updates[b]  # coincident updates
            f = int(rng.integers(0, n - 2))
            for mode in ("squared", "plain"):
                assert np.array_equal(multikrum_scores(updates, f, mode),
                                      multikrum_scores_dense(updates, f, mode))

    def test_too_few_clients(self, rng):
        with pytest.raises(ConfigurationError):
            multikrum_scores(rng.normal(size=(4, 1, 2)), 2)

    def test_unknown_distance_mode(self, rng):
        with pytest.raises(ConfigurationError):
            multikrum_scores(rng.normal(size=(5, 1, 2)), 1, "manhattan")

    def test_survivors_averaged_uniformly(self, rng):
        w = np.zeros((1, 2))
        updates = np.concatenate([rng.normal(scale=0.01, size=(4, 1, 2)),
                                  np.full((1, 1, 2), 50.0)])
        new, alphas = multikrum_round(updates, 1, w)
        assert alphas[4] == 0.0
        assert np.allclose(new, updates[:4].mean(axis=0))


class TestRoni:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.X = np.hstack([rng.uniform(size=(60, 3)), np.ones((60, 1))])
        # class 0 majority, so the zero model scores 2/3 and an
        # always-predict-1 update is strictly harmful
        self.y = np.array([0, 0, 1] * 20)

    def test_zero_update_zero_score(self):
        roni = RoniDefense(self.X, self.y)
        w = np.random.default_rng(1).normal(size=(2, 4))
        roni.aggregate(np.zeros((1, 2, 4)), w)
        assert roni.cumulative[0] == 0.0

    def test_score_is_accuracy_delta(self):
        roni = RoniDefense(self.X, self.y)
        from fedsim.metrics import accuracy
        w = np.zeros((2, 4))
        delta = np.random.default_rng(2).normal(size=(2, 4))
        want = accuracy(w + delta, self.X, self.y) - accuracy(w, self.X, self.y)
        roni.aggregate(delta[None], w)
        assert roni.cumulative[0] == pytest.approx(want)

    def test_flagged_clients_excluded(self):
        roni = RoniDefense(self.X, self.y, threshold=0.0)
        w = np.zeros((2, 4))
        # craft one strongly harmful update: always predict class 1
        bad = np.zeros((2, 4))
        bad[1, :] = 10.0
        good = np.zeros((2, 4))
        updates = np.stack([good, bad])
        new, alphas = roni.aggregate(updates, w)
        assert alphas[1] == 0.0  # flagged
        assert alphas[0] == 0.5
        assert np.allclose(new, w + good / 2)

    def test_cumulative_across_rounds(self):
        roni = RoniDefense(self.X, self.y)
        w = np.zeros((2, 4))
        bad = np.zeros((2, 4))
        bad[1, :] = 10.0
        roni.aggregate(np.stack([np.zeros((2, 4)), bad]), w)
        first = roni.cumulative.copy()
        roni.aggregate(np.stack([np.zeros((2, 4)), bad]), w)
        assert roni.cumulative[1] <= first[1]

    @pytest.mark.parametrize("case", ["tied_logits", "zero_model", "one_candidate"])
    def test_cumulative_matches_per_candidate_accuracy(self, case):
        # The stacked scorer must equal, exactly, one accuracy call per
        # candidate against the shared "before" model, summed over rounds.
        from fedsim.metrics import accuracy
        rng = np.random.default_rng(7)
        n = 1 if case == "one_candidate" else 6
        X = rng.normal(size=(300, 5))
        if case == "tied_logits":
            X = rng.integers(-1, 2, size=(300, 5)).astype(float)
        y = rng.integers(0, 3, size=300)
        w = np.zeros((3, 5))
        if case != "zero_model":
            w = rng.integers(-1, 2, size=(3, 5)).astype(float)
        roni = RoniDefense(X, y)
        want = np.zeros(n)
        for _ in range(2):
            updates = rng.integers(-1, 2, size=(n, 3, 5)).astype(float)
            before = accuracy(w, X, y)
            want += np.array([accuracy(w + u, X, y) - before for u in updates])
            w, _ = roni.aggregate(updates, w)
        assert np.array_equal(roni.cumulative, want)

    def test_empty_validation_set(self):
        roni = RoniDefense(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ConfigurationError):
            roni.aggregate(np.zeros((1, 2, 4)), np.zeros((2, 4)))
