"""Aggregation rules: plain federated averaging, the contribution-similarity
defense (history, feature importance, pardoning, logit rescale), Multi-Krum,
and reject-on-negative-influence (RONI) scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .metrics import accuracy, predictions

LOGIT_EPS = 1e-5


@dataclass
class DefenseConfig:
    """Switches for the similarity defense; every component can be ablated."""

    enable_history: bool = True
    enable_pardoning: bool = True
    enable_logit: bool = True
    feature_mode: str = "none"  # none | hard | soft
    hard_ratio: float = 1.0  # fraction of each class row kept in hard mode
    kappa: float = 1.0


def fed_average(global_params: np.ndarray, updates: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """w + sum_k weight_k * delta_k. Empty update set leaves w unchanged."""
    if len(updates) == 0:
        return global_params
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ConfigurationError("aggregation weights must be finite and non-negative")
    flat = updates.reshape(len(updates), -1)
    return global_params + (weights @ flat).reshape(global_params.shape)


def feature_importance(global_params: np.ndarray, mode: str,
                       hard_ratio: float = 1.0) -> np.ndarray:
    """Per-parameter weights in [0, 1] derived from output-layer magnitudes.

    soft: |w| normalized by each class row's max magnitude.
    hard: the top ceil(ratio * row_length) parameters of each class row get
    weight 1, the rest 0.
    none: all ones.
    """
    if mode == "none":
        return np.ones_like(global_params)
    mags = np.abs(global_params)
    if mode == "soft":
        row_max = mags.max(axis=1, keepdims=True)
        row_max[row_max == 0] = 1.0
        return mags / row_max
    if mode == "hard":
        if not 0.0 < hard_ratio <= 1.0:
            raise ConfigurationError("hard_ratio must be in (0, 1]")
        n_features = global_params.shape[1]
        k = int(np.ceil(hard_ratio * n_features))
        weights = np.zeros_like(global_params)
        if k >= n_features:
            weights[:] = 1.0
        else:
            top = np.argpartition(mags, n_features - k, axis=1)[:, n_features - k:]
            np.put_along_axis(weights, top, 1.0, axis=1)
        return weights
    raise ConfigurationError(f"unknown feature importance mode {mode!r}")


def weighted_cosine(a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> float:
    """Cosine of the feature-weighted vectors; 0 if either has zero norm."""
    aw = (a * weights).ravel()
    bw = (b * weights).ravel()
    na = np.linalg.norm(aw)
    nb = np.linalg.norm(bw)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(aw @ bw / (na * nb), -1.0, 1.0))


def similarity_matrix(histories: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pairwise weighted cosine similarities; zero-norm rows score 0.

    histories is (n, d) with each row a client's aggregate update vector;
    weights is a length-d vector broadcast over all rows.
    """
    H = histories * weights.ravel()
    norms = np.linalg.norm(H, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    cs = (H @ H.T) / np.outer(safe, safe)
    cs[norms == 0.0, :] = 0.0
    cs[:, norms == 0.0] = 0.0
    np.clip(cs, -1.0, 1.0, out=cs)
    # Snap near-unit values so exact duplicates score exactly +-1; the raw
    # rate 1 - max(cs) is later divided by its maximum, which would blow
    # pure roundoff up to a full learning rate otherwise.
    cs[cs > 1.0 - 1e-12] = 1.0
    cs[cs < -1.0 + 1e-12] = -1.0
    return cs


def row_maxima(cs: np.ndarray) -> np.ndarray:
    """max_j cs_ij over j != i."""
    n = len(cs)
    if n == 1:
        return np.zeros(1)
    masked = cs.copy()
    np.fill_diagonal(masked, -np.inf)
    return masked.max(axis=1)


def pardon(cs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rescale cs_ij by v_i/v_j wherever v_j > v_i, using the original v.

    Only positive entries with v_j > v_i >= 0 are rescaled: non-positive
    similarities are already harmless, and scaling them (or using a
    negative ratio) could raise an entry instead of lowering it.
    """
    vi = v[:, None]
    vj = v[None, :]
    factor = np.where((vj > vi) & (vi >= 0.0) & (cs > 0.0),
                      vi / np.where(vj > 0.0, vj, 1.0), 1.0)
    out = cs * factor
    np.fill_diagonal(out, np.diag(cs))
    return out


def logit_rescale(alpha_raw: np.ndarray, kappa: float = 1.0, *,
                  enable_logit: bool = True,
                  rescale: bool = True) -> tuple[np.ndarray, bool]:
    """Turn raw per-client rates into final learning-rate adaptations.

    alpha <- alpha / max(alpha); alpha <- kappa * (ln(alpha/(1-alpha)) + 0.5);
    clip to [0, 1]. The logit input is clamped to [eps, 1-eps] so exact 0
    and 1 map to 0 and 1. Returns (alpha, degenerate) where degenerate is
    True when every raw rate was <= 0 (all clients looked like sybils); all
    rates are then forced to 0.

    `rescale=False` skips the max-normalization step; it exists so the raw
    logit thresholds can be asserted directly in tests.
    """
    alpha = np.asarray(alpha_raw, dtype=float).copy()
    m = alpha.max() if len(alpha) else 0.0
    if m <= 0.0:
        return np.zeros_like(alpha), True
    if rescale:
        alpha = alpha / m
    if enable_logit:
        clamped = np.clip(alpha, LOGIT_EPS, 1.0 - LOGIT_EPS)
        alpha = kappa * (np.log(clamped / (1.0 - clamped)) + 0.5)
    return np.clip(alpha, 0.0, 1.0), False


@dataclass
class FoolsGold:
    """Stateful similarity-based aggregator (per-client update history).

    Call `aggregate(updates, global_params)` once per round; it returns the
    new global parameters and the per-client learning-rate adaptations.
    """

    config: DefenseConfig = field(default_factory=DefenseConfig)
    histories: np.ndarray | None = None
    iteration: int = 0
    degenerate_rounds: int = 0

    def _ensure_histories(self, n: int, d: int) -> None:
        if self.histories is None:
            self.histories = np.zeros((n, d))
        elif self.histories.shape != (n, d):
            raise ConfigurationError(
                "client roster changed mid-run; history store is per-client"
            )

    def compute_alphas(self, updates: np.ndarray, global_params: np.ndarray,
                       active: np.ndarray | None = None) -> np.ndarray:
        """Per-client learning-rate adaptations for this round's updates.

        `active` is an optional boolean mask over the full roster (used when
        another filter, e.g. Multi-Krum, has already removed some updates);
        inactive clients get alpha 0 and their history is left untouched.
        """
        n = len(updates)
        flat = updates.reshape(n, -1)
        self._ensure_histories(n, flat.shape[1])
        if active is None:
            active = np.ones(n, dtype=bool)
        self.histories[active] += flat[active]
        basis = self.histories if self.config.enable_history else flat
        basis = basis[active]
        weights = feature_importance(
            global_params, self.config.feature_mode, self.config.hard_ratio
        ).ravel()
        cs = similarity_matrix(basis, weights)
        v = row_maxima(cs)
        if self.config.enable_pardoning:
            cs = pardon(cs, v)
        alpha_raw = 1.0 - row_maxima(cs)
        active_alphas, degenerate = logit_rescale(
            alpha_raw, self.config.kappa, enable_logit=self.config.enable_logit
        )
        if degenerate:
            self.degenerate_rounds += 1
        alphas = np.zeros(n)
        alphas[active] = active_alphas
        return alphas

    def aggregate(self, updates: np.ndarray, global_params: np.ndarray,
                  active: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
        if len(updates) == 0:
            return global_params, np.zeros(0)
        alphas = self.compute_alphas(updates, global_params, active)
        self.iteration += 1
        # Algorithm applies the adapted rates directly, with no 1/n factor.
        new_params = fed_average(global_params, updates, alphas)
        return new_params, alphas


def multikrum_scores(updates: np.ndarray, f: int,
                     distance_mode: str = "squared") -> np.ndarray:
    """Per-update sum of (squared) distances to its n-f-2 nearest neighbors."""
    n = len(updates)
    if n < f + 3:
        raise ConfigurationError(f"multi-krum needs n >= f + 3 (n={n}, f={f})")
    if distance_mode not in ("squared", "plain"):
        raise ConfigurationError(f"unknown distance mode {distance_mode!r}")
    flat = updates.reshape(n, -1)
    if n * n * flat.shape[1] <= 4_000_000:
        # direct differences: exact for coincident updates
        diff = flat[:, None, :] - flat[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
    else:
        # Gram-matrix form: O(n^2 d) via one matmul, small cancellation error
        sq_norms = np.einsum("ij,ij->i", flat, flat)
        d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (flat @ flat.T)
    np.clip(d2, 0.0, None, out=d2)
    dist = d2 if distance_mode == "squared" else np.sqrt(d2)
    np.fill_diagonal(dist, np.inf)
    k = n - f - 2
    nearest = np.sort(dist, axis=1)[:, :k]
    return nearest.sum(axis=1)


def multikrum_round(updates: np.ndarray, f: int, global_params: np.ndarray,
                    distance_mode: str = "squared"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Drop the f highest-scoring updates, average the rest uniformly.

    Returns (new_params, survivor_mask). Ties break by client index
    (stable argsort).
    """
    n = len(updates)
    if f == 0:
        mask = np.ones(n, dtype=bool)
    else:
        scores = multikrum_scores(updates, f, distance_mode)
        removed = np.argsort(-scores, kind="stable")[:f]
        mask = np.ones(n, dtype=bool)
        mask[removed] = False
    survivors = updates[mask]
    weights = np.full(len(survivors), 1.0 / len(survivors))
    return fed_average(global_params, survivors, weights), mask


@dataclass
class RoniDefense:
    """Cumulative reject-on-negative-influence scoring over a validation set.

    Each round an update is scored by the validation accuracy change it
    would cause in isolation; clients whose cumulative score drops below
    the threshold are flagged and excluded from the average.
    """

    val_X: np.ndarray
    val_y: np.ndarray
    threshold: float = 0.0
    cumulative: np.ndarray | None = None

    def score_update(self, candidate_update: np.ndarray,
                     global_params: np.ndarray) -> float:
        if len(self.val_y) == 0:
            raise ConfigurationError("RONI requires a non-empty validation set")
        before = accuracy(global_params, self.val_X, self.val_y)
        after = accuracy(global_params + candidate_update, self.val_X, self.val_y)
        return after - before

    def aggregate(self, updates: np.ndarray, global_params: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        n = len(updates)
        if self.cumulative is None:
            self.cumulative = np.zeros(n)
        if len(self.val_y) == 0:
            raise ConfigurationError("RONI requires a non-empty validation set")
        # Score the global model and every candidate in one stacked GEMM;
        # row 0 is the "before" model shared by all candidates.
        models = np.concatenate([global_params[None], global_params + updates])
        preds = predictions(models, self.val_X)
        acc = np.mean(preds == self.val_y[:, None], axis=0)
        self.cumulative += acc[1:] - acc[0]
        flagged = self.cumulative < self.threshold
        weights = np.where(flagged, 0.0, 1.0 / n)
        return fed_average(global_params, updates, weights), flagged
