"""End-to-end acceptance runs over the bundled presets.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers. These are full federated training runs and dominate the
suite's runtime; deselect with `-m "not acceptance"` during development.
"""

import copy
import filecmp

import numpy as np
import pytest

from conftest import tiny_attack, tiny_config
from fedsim.clients import make_noise_basis
from fedsim.defenses import (
    DefenseConfig,
    FoolsGold,
    logit_rescale,
    multikrum_scores,
    similarity_matrix,
)
from fedsim.engine import measure_overhead, run
from fedsim.metrics import export_series_csv
from fedsim.model import gradient
from fedsim.presets import CATALOG
from oracles import regularized_loss


pytestmark = pytest.mark.acceptance


@pytest.fixture
def report(capsys):
    def _report(criterion: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
        assert ok, f"{criterion}: {detail}"

    return _report


def _cfg(preset: str, iterations: int | None = None, seed: int | None = None):
    config = copy.deepcopy(CATALOG[preset].config)
    if iterations is not None:
        config.total_iterations = iterations
    if seed is not None:
        config.seed = seed
    return config


def _tail_rate(result, window: int = 100) -> float:
    """Mean attack rate over the last rounds; robust to round-parity flicker."""
    return float(result.attack_rate_series[-window:].mean())


def test_criterion_01_baseline_attack(report):
    accs, rates, digit1_accs = [], [], []
    for seed in range(5):
        accs.append(run(_cfg("table1-baseline", seed=seed)).final_accuracy)
        r = run(_cfg("table1-attack2", seed=seed))
        rates.append(r.final_attack_rate)
        digit1_accs.append(1.0 - r.final_per_class_error[1])
    acc, rate, digit1 = np.mean(accs), np.mean(rates), np.mean(digit1_accs)
    report(
        "criterion-01 baseline-attack",
        acc >= 0.88 and rate >= 0.85 and digit1 <= 0.10,
        f"no-attack acc {acc:.3f} >= 0.88, 2-sybil attack {rate:.3f} >= 0.85, "
        f"digit-1 acc {digit1:.3f} <= 0.10; mean of 5 seeds",
    )


def test_criterion_02_canonical_five_sybils(report):
    acc_na = run(_cfg("fg-na", iterations=1500)).final_accuracy
    r = run(_cfg("a5-mnist-foolsgold", iterations=1500))
    report(
        "criterion-02 five-sybil-defense",
        r.final_attack_rate <= 0.02 and abs(r.final_accuracy - acc_na) <= 0.05,
        f"attack {r.final_attack_rate:.3f} <= 0.02, "
        f"acc {r.final_accuracy:.3f} vs no-attack {acc_na:.3f} within 5pp",
    )


def test_criterion_03_massive_sybil_majority(report):
    fg = run(_cfg("a99", iterations=150))
    nologit = run(_cfg("ablation-logit", iterations=150))
    rate_off = _tail_rate(nologit, window=30)
    report(
        "criterion-03 990-sybils",
        fg.final_attack_rate <= 0.02 and rate_off >= 0.5,
        f"defended attack {fg.final_attack_rate:.3f} <= 0.02, "
        f"logit-ablated attack {rate_off:.3f} >= 0.5",
    )


def test_criterion_04_multikrum_comparison(report):
    rates = {}
    for kind in ("baseline", "multikrum", "foolsgold"):
        for local_iters in (1, 5):
            c = _cfg("multikrum-sweep", iterations=1500)
            c.defense.kind = kind
            c.sgd.local_iterations = local_iters
            rates[(kind, local_iters)] = run(c).final_attack_rate
    ok = all(rates[("multikrum", li)] >= 0.5
             and rates[("foolsgold", li)] <= 0.02
             and rates[("baseline", li)] >= 0.8 for li in (1, 5))
    report(
        "criterion-04 multikrum-comparison",
        ok,
        "attack rates FEDSGD/FEDAVG: "
        + ", ".join(f"{k} {rates[(k, 1)]:.2f}/{rates[(k, 5)]:.2f}"
                    for k in ("baseline", "multikrum", "foolsgold")),
    )


def test_criterion_05_intelligent_noise(report):
    ref = _cfg("noise-attack-sweep", iterations=1000)
    ref.attacks = []
    ref.defense.foolsgold.feature_mode = "none"
    ref_acc = run(ref).final_accuracy

    results = {}
    for mode, ratio in (("none", 1.0), ("hard", 0.1), ("hard", 0.01)):
        c = _cfg("noise-attack-sweep", iterations=1000)
        c.defense.foolsgold.feature_mode = mode
        c.defense.foolsgold.hard_ratio = ratio
        results[(mode, ratio)] = run(c)

    evaded = results[("none", 1.0)].final_attack_rate
    blocked = results[("hard", 0.1)]
    overfiltered = results[("hard", 0.01)]
    ok = (
        evaded >= 0.6
        and blocked.final_attack_rate <= 0.05
        and abs(blocked.final_accuracy - ref_acc) <= 0.05
        and overfiltered.final_accuracy <= ref_acc - 0.05
    )
    report(
        "criterion-05 intelligent-noise",
        ok,
        f"unweighted attack {evaded:.2f} >= 0.6; hard-0.1 attack "
        f"{blocked.final_attack_rate:.3f} <= 0.05 at acc "
        f"{blocked.final_accuracy:.3f} (ref {ref_acc:.3f}); hard-0.01 acc "
        f"{overfiltered.final_accuracy:.3f} <= ref - 0.05",
    )


def test_criterion_06_history_and_pardon_ablations(report):
    hist_rates = {}
    for enabled in (True, False):
        c = _cfg("ablation-history", iterations=1500)
        c.defense.foolsgold.enable_history = enabled
        hist_rates[enabled] = _tail_rate(run(c), window=150)
    hist_gap = hist_rates[False] - hist_rates[True]

    pardon = {}
    for enabled in (True, False):
        c = _cfg("ablation-pardon")
        c.defense.foolsgold.enable_pardoning = enabled
        pardon[enabled] = run(c)
    err_on = pardon[True].final_per_class_error[0]
    err_off = pardon[False].final_per_class_error[0]
    attacks_blocked = all(
        rate <= 0.02
        for r in pardon.values() for rate in r.extras["attack_rates"]
    )
    ok = (hist_gap >= 0.30
          and err_off >= max(2.0 * err_on, 0.10)
          and attacks_blocked)
    report(
        "criterion-06 ablations",
        ok,
        f"history off-on attack gap {hist_gap:.2f} >= 0.30; target-class "
        f"error {err_off:.2f} (pardon off) vs {err_on:.2f} (on), all attack "
        f"rates <= 0.02: {attacks_blocked}",
    )


def test_criterion_07_mix_grid(report):
    worst = 0.0
    for x_sybil in (0.0, 0.25, 0.5, 0.75, 1.0):
        for x_honest in (0.0, 0.25, 0.5, 0.75, 1.0):
            c = _cfg("mix-grid", iterations=600)
            c.partitioning.x_sybil = x_sybil
            c.partitioning.x_honest = x_honest
            worst = max(worst, run(c).final_attack_rate)
    report(
        "criterion-07 mix-grid",
        worst < 0.01,
        f"worst attack rate over 25 data-mix points {worst:.4f} < 0.01",
    )


def test_criterion_08_attack_generalization(report):
    worst = 0.0
    for source in range(10):
        for target in range(10):
            if source == target:
                continue
            c = _cfg("attack-grid", iterations=400)
            c.attacks[0].source = source
            c.attacks[0].target = target
            worst = max(worst, run(c).final_attack_rate)
    report(
        "criterion-08 attack-generalization",
        worst <= 0.02,
        f"worst attack rate over 90 source-target pairs {worst:.4f} <= 0.02",
    )


def test_criterion_09_backdoor(report):
    base_rates, fg_rates = {}, {}
    for num in (5, 9):
        c = _cfg("backdoor-sweep", iterations=1000)
        c.defense.kind = "baseline"
        c.attacks[0].num_sybils = num
        base_rates[num] = run(c).final_attack_rate
    for num in (2, 3, 5, 7, 9):
        c = _cfg("backdoor-sweep", iterations=1000)
        c.attacks[0].num_sybils = num
        fg_rates[num] = run(c).final_attack_rate
    ok = (all(r >= 0.8 for r in base_rates.values())
          and all(r <= 0.05 for r in fg_rates.values()))
    report(
        "criterion-09 backdoor",
        ok,
        f"baseline rate at 5/9 sybils {base_rates[5]:.2f}/{base_rates[9]:.2f} "
        f">= 0.8; defended max over 2-9 {max(fg_rates.values()):.3f} <= 0.05",
    )


def test_criterion_10_mixed_data(report):
    worst = 0.0
    for fraction in (0.2, 0.4, 0.6, 0.8):
        c = _cfg("mixed-data-sweep", iterations=1000)
        c.attacks[0].poison_fraction = fraction
        worst = max(worst, run(c).final_attack_rate)
    report(
        "criterion-10 mixed-data",
        worst <= 0.01,
        f"worst attack rate over poison fractions 0.2-0.8 {worst:.4f} <= 0.01",
    )


def test_criterion_11_batch_sizes(report):
    worst = 0.0
    for batch in (1, 5, 10, 20, 50, 100):
        c = _cfg("batch-sweep", iterations=1000)
        c.sgd.batch_size = batch
        worst = max(worst, run(c).final_attack_rate)
    report(
        "criterion-11 batch-sizes",
        worst <= 0.02,
        f"worst attack rate over batch sizes 1-100 {worst:.4f} <= 0.02",
    )


def test_criterion_12_roni_false_positives(report):
    r = run(_cfg("roni-demo", iterations=1000))
    honest = [i for i, role in enumerate(r.extras["roles"]) if role == "honest"]
    negative = int(np.sum(r.extras["roni_cumulative"][honest] < 0.0))
    report(
        "criterion-12 roni-false-positives",
        negative >= 8,
        f"{negative}/10 honest clients have negative cumulative RONI scores",
    )


def test_criterion_13_adaptive_attack(report):
    detected = _cfg("adaptive-attack", iterations=800)
    detected.attacks[0].threshold = 1.0
    r_detected = run(detected)

    evading = _cfg("adaptive-attack", iterations=1500)
    evading.attacks[0].threshold = 0.01
    r_evading = run(evading)

    # The sybil group is 20x the single honest source-class client, and the
    # pre-success duty cycle shows why that headcount is needed: each sybil
    # only dares to send poison a small fraction of the time.
    rate = r_evading.attack_rate_series
    first_success = (int(np.argmax(rate >= 0.5))
                     if bool((rate >= 0.5).any()) else len(rate))
    counts = r_evading.extras["poison_counts"]
    num_sybils = evading.attacks[0].num_sybils
    pre_freq = counts[:first_success].sum() / (num_sybils * max(first_success, 1))

    ok = (r_detected.final_attack_rate <= 0.02
          and num_sybils >= 10
          and r_evading.final_attack_rate >= 0.5
          and 0.0 < pre_freq <= 0.35)
    report(
        "criterion-13 adaptive-attack",
        ok,
        f"M=1 attack {r_detected.final_attack_rate:.3f} <= 0.02; M=0.01 with "
        f"{num_sybils} sybils attack {r_evading.final_attack_rate:.2f} >= 0.5, "
        f"pre-success poison frequency {pre_freq:.3f} (~1/10 duty cycle)",
    )


def test_criterion_14_property_suites(report, tmp_path):
    rng = np.random.default_rng(20240817)
    checks = []

    # Gradient vs central finite differences, 1e-5 relative.
    X = rng.uniform(0.0, 1.0, size=(12, 6))
    y = rng.integers(0, 3, size=12)
    w = rng.normal(scale=0.5, size=(3, 6))
    grad = gradient(w, X, y, 1e-3)
    fd = np.zeros_like(w)
    h = 1e-6
    for idx in np.ndindex(w.shape):
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        fd[idx] = (regularized_loss(wp, X, y, 1e-3)
                   - regularized_loss(wm, X, y, 1e-3)) / (2 * h)
    rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1.0)
    checks.append(("gradient-fd", rel <= 1e-5))

    # Alpha invariants over fuzzed rounds, plus duplicate-update alpha = 0.
    alpha_ok, dup_ok = True, True
    for _ in range(20):
        fg = FoolsGold(config=DefenseConfig())
        updates = rng.normal(size=(6, 2, 5))
        updates[5] = updates[4]
        _, alphas = fg.aggregate(updates, np.zeros((2, 5)))
        alpha_ok &= bool(np.all(alphas >= 0.0) and np.all(alphas <= 1.0))
        if fg.degenerate_rounds == 0:
            alpha_ok &= bool(np.isclose(alphas.max(), 1.0))
        dup_ok &= bool(alphas[4] == 0.0 and alphas[5] == 0.0)
    checks.append(("alpha-invariants", alpha_ok))
    checks.append(("duplicate-alpha-zero", dup_ok))

    # Logit boundary values at kappa = 1 on unscaled rates: a leading 1.0
    # is the row maximum, so every rate below it is divided by exactly 1.
    alpha_mid = np.exp(-0.5) / (1.0 + np.exp(-0.5))  # similarity 0.62246
    lo = logit_rescale(np.array([1.0, 1.0 - 0.62246, 0.5]), kappa=1.0)[0][1]
    hi = logit_rescale(np.array([1.0, 1.0 - 0.37754, 0.5]), kappa=1.0)[0][1]
    zero = logit_rescale(np.array([1.0, alpha_mid, 0.5]), kappa=1.0)[0][1]
    checks.append(("logit-boundaries",
                   lo <= 1e-4 and hi >= 1.0 - 1e-4 and abs(zero) <= 1e-4))

    # Multi-Krum against a brute-force oracle for n <= 6.
    mk_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 7))
        f = int(rng.integers(0, n - 2))
        ups = rng.normal(size=(n, 3, 4))
        flat = ups.reshape(n, -1)
        expected = np.zeros(n)
        for i in range(n):
            dists = sorted(
                float(np.sum((flat[i] - flat[j]) ** 2))
                for j in range(n) if j != i
            )
            expected[i] = sum(dists[:max(n - f - 2, 0)])
        mk_ok &= bool(np.allclose(multikrum_scores(ups, f, "squared"),
                                  expected, atol=1e-8))
    checks.append(("multikrum-oracle", mk_ok))

    # Noise basis: sums to zero, pairwise cosine in {0, -1}.
    basis = make_noise_basis(40, 8, seed=3)
    cs = similarity_matrix(basis, np.ones(40))
    off_diag = cs[~np.eye(8, dtype=bool)]
    near = (np.isclose(off_diag, 0.0, atol=1e-9)
            | np.isclose(off_diag, -1.0, atol=1e-9))
    checks.append(("noise-basis",
                   np.allclose(basis.sum(axis=0), 0.0) and bool(near.all())))

    # Whole-run determinism: identical CSVs on a repeated seed.
    c = tiny_config(attacks=[tiny_attack()], total_iterations=10)
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"det-{tag}.csv"
        export_series_csv(run(copy.deepcopy(c)), str(path), run_key="det")
        paths.append(path)
    checks.append(("determinism", filecmp.cmp(*map(str, paths), shallow=False)))

    failed = [name for name, ok in checks if not ok]
    report(
        "criterion-14 property-suites",
        not failed,
        "all property checks hold" if not failed
        else "failed: " + ", ".join(failed),
    )


def test_criterion_15_overhead(report):
    config = _cfg("overhead")
    rows = measure_overhead(config, client_counts=[10, 20, 50], rounds=10)
    at_50 = next(r for r in rows if r["clients"] == 50)["defense_round_s"]
    # O(n^2 d) is an upper bound: for t = c0 + a*n*d + b*n^2*d, t/n^2 does not
    # increase with n, so only growth of the per-pair cost is bounded (2x).
    unit_costs = [r["defense_round_s"] / r["clients"] ** 2 for r in rows]
    bounded = all(later <= 2 * earlier
                  for i, earlier in enumerate(unit_costs)
                  for later in unit_costs[i + 1:])
    per_pair_us = ", ".join(
        f"n={r['clients']}: {u * 1e6:.3f} us" for r, u in zip(rows, unit_costs))
    report(
        "criterion-15 overhead",
        at_50 < 1.5 and bounded,
        f"aggregation at 50 clients {at_50 * 1000:.1f} ms < 1500 ms; "
        f"per-pair cost ({per_pair_us}) grows at most 2x: {bounded}",
    )
