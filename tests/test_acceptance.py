"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

The synthetic benchmark fixture runs the shipped configs/synthetic.cfg
protocol once (20 seeds x 5 losses) and is shared by the table, accuracy,
geometry, lower-bound, and determinism criteria. UCI criteria skip with a
notice when the raw data files are absent.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from costbench.costs import binary_alpha_matrix, stock_matrices
from costbench.data import UCI_SPECS, posterior_pos_many, sample_synthetic, split_sizes
from costbench.data import bayes_decision_many
from costbench.diagnostics import monte_carlo_bayes_csl, optimal_boundary_slope
from costbench.embedding import (
    build_embedding_surrogate,
    min_pairwise_gap,
    verify_alpha_separation,
    verify_embedding,
)
from costbench.harness import parse_config, run_experiment, write_rows_csv
from costbench.losses import BoundLoss
from costbench.models import ModelSpec, gradient_check

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

REPORT: list[str] = []


def record(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}" + (f" — {detail}" if detail else "")
    REPORT.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def surrogates():
    return {n: build_embedding_surrogate(m) for n, m in stock_matrices().items()}


@pytest.fixture(scope="module")
def synthetic_cfg():
    return replace(parse_config(CONFIG_DIR / "synthetic.cfg"), workers=2)


@pytest.fixture(scope="module")
def synthetic_rows(synthetic_cfg):
    return run_experiment(synthetic_cfg)


def by_loss(rows, label, field="csl"):
    return np.array(
        [getattr(r, field) for r in rows if r.loss == label and not r.failed],
        dtype=float,
    )


def test_criterion_1_embedding_property(surrogates):
    """Both embedding conditions hold on a 0.01 simplex grid, all matrices."""
    t0 = time.perf_counter()
    worst = []
    for name, s in surrogates.items():
        rep = verify_embedding(s, grid_res=0.01)
        if not rep.ok:
            worst.append(f"{name}: {len(rep.violations)} violations")
    elapsed = time.perf_counter() - t0
    record(
        "criterion 1: embedding conditions, 0.01 grid, exact to 1e-9",
        not worst and elapsed < 60.0,
        f"{len(surrogates)} matrices in {elapsed:.1f}s" + "; ".join(worst),
    )


def test_criterion_2_alpha_separation(surrogates):
    """Link separation at the default radius; inflated radius must fail."""
    t0 = time.perf_counter()
    problems = []
    for name, s in surrogates.items():
        rep = verify_alpha_separation(s, 0.01, 10_000, rng_seed=0)
        if not rep.ok:
            problems.append(f"{name}: {len(rep.violations)} violations")
        gap = min_pairwise_gap(s.phi[list(s.representative_set)], quotient=False)
        neg = verify_alpha_separation(s, 0.05, 2_000, rng_seed=1, alpha=10 * gap)
        if neg.ok:
            problems.append(f"{name}: negative control found no violations")
    elapsed = time.perf_counter() - t0
    record(
        "criterion 2: alpha-separation at default radius + negative control",
        not problems and elapsed < 120.0,
        f"{elapsed:.1f}s" + "; ".join(problems),
    )


def test_criterion_3_decision_rule_agreement():
    """Closed-form decisions match enumerated cost-optimal sets, 10^5 points."""
    t0 = time.perf_counter()
    ds = sample_synthetic(100_000, rng_seed=0)
    x = ds.features
    eta = posterior_pos_many(x)
    total_disagreements = 0
    for alpha in (1 / 6, 1 / 4, 1 / 2):
        closed = bayes_decision_many(x, alpha)
        c = np.column_stack([eta * (1 - alpha), (1 - eta) * alpha])
        in_optimal = c <= c.min(axis=1, keepdims=True) + 1e-9
        want = (closed > 0).astype(int)
        total_disagreements += int((~in_optimal[np.arange(len(x)), want]).sum())
    elapsed = time.perf_counter() - t0
    record(
        "criterion 3: closed-form vs enumerated decisions, 3 alphas x 1e5",
        total_disagreements == 0 and elapsed < 60.0,
        f"{total_disagreements} disagreements in {elapsed:.1f}s",
    )


def test_criterion_4_gradient_correctness(rng):
    """Finite differences agree to 1e-5 for every loss x model combination."""
    t0 = time.perf_counter()
    cost = binary_alpha_matrix(1 / 6)
    x = rng.normal(size=(150, 2))
    y = (rng.random(150) < 0.5).astype(int)
    worst = 0.0
    for kind in ("cross_entropy", "scaled_cross_entropy", "embedding",
                 "embedding_softmax", "weighted_hinge"):
        loss = BoundLoss(kind, cost)
        for hidden in ((), (16, 16)):
            spec = ModelSpec(2, loss.out_dim, hidden_dims=hidden, init_seed=3)
            err = gradient_check(spec, loss, x, y, max_coords=100)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    record(
        "criterion 4: gradient finite-difference checks <= 1e-5",
        worst <= 1e-5 and elapsed < 120.0,
        f"max relative error {worst:.2e} in {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_5_synthetic_table(synthetic_rows):
    """Mean test CSL ordering + banded magnitudes of the benchmark table."""
    means = {
        label: by_loss(synthetic_rows, label).mean()
        for label in ("cross_entropy", "cross_entropy_post", "embedding",
                      "embedding_softmax", "scaled_cross_entropy")
    }
    chain = ("embedding_softmax", "scaled_cross_entropy", "cross_entropy_post",
             "cross_entropy")
    ordering_ok = all(
        means[a] < means[b] for a, b in zip(chain[:-1], chain[1:])
    )
    emb_band_ok = abs(means["embedding_softmax"] - 0.353) <= 0.03
    ce_band_ok = abs(means["cross_entropy"] - 0.412) <= 0.03
    detail = (
        " ".join(f"{k}={v:.3f}" for k, v in means.items())
        + f" | ordering={'ok' if ordering_ok else 'VIOLATED'}"
        + f" emb_band={'ok' if emb_band_ok else 'MISSED'}"
        + f" ce_band={'ok' if ce_band_ok else 'MISSED'}"
    )
    record(
        "criterion 5: synthetic table ordering + magnitude bands (20 seeds)",
        ordering_ok and emb_band_ok and ce_band_ok,
        detail,
    )


@pytest.mark.slow
def test_criterion_6_accuracy_inversion(synthetic_rows):
    """Plain cross-entropy wins accuracy while not winning cost."""
    labels = ("cross_entropy", "cross_entropy_post", "embedding",
              "embedding_softmax", "scaled_cross_entropy")
    accs = {l: by_loss(synthetic_rows, l, "accuracy").mean() for l in labels}
    csls = {l: by_loss(synthetic_rows, l).mean() for l in labels}
    ce_best_acc = max(accs, key=accs.get) == "cross_entropy"
    ce_not_best_csl = min(csls, key=csls.get) != "cross_entropy"
    record(
        "criterion 6: cross-entropy has top accuracy but not lowest cost",
        ce_best_acc and ce_not_best_csl,
        " ".join(f"{l}:acc={accs[l]:.3f}" for l in labels),
    )


@pytest.mark.slow
def test_criterion_7_boundary_geometry():
    """Cost-aware training recovers the sloped boundary; plain CE stays vertical.

    Runs the shipped geometry config (2000 samples per seed, longer training:
    the embedded-segment loss is sigmoid-shaped, so the boundary converges
    slowly and needs more data than the 500-sample table protocol).
    """
    cfg = replace(parse_config(CONFIG_DIR / "geometry.cfg"), workers=2)
    rows = run_experiment(cfg)
    target = optimal_boundary_slope(cfg.alpha)  # about -0.805
    emb_slopes = by_loss(rows, "embedding_softmax", "boundary_slope")
    ce_slopes = by_loss(rows, "cross_entropy", "boundary_slope")
    emb_median = float(np.nanmedian(emb_slopes))
    ce_median_abs = float(np.nanmedian(np.abs(ce_slopes)))
    emb_ok = abs(emb_median - target) <= 0.25
    ce_ok = ce_median_abs <= abs(target) / 2
    record(
        "criterion 7: decision-boundary geometry over 20 seeds",
        emb_ok and ce_ok,
        f"embedding_softmax median slope {emb_median:+.3f} (target {target:+.3f}), "
        f"plain CE median |slope| {ce_median_abs:.3f}",
    )


def _uci_available(name: str) -> bool:
    return UCI_SPECS[name].raw_path().exists()


def test_criterion_8_german_credit_gap():
    """Embedding beats plain CE on lending costs (needs the local UCI file)."""
    if not _uci_available("german_credit"):
        notice = (
            "criterion 8 SKIPPED: data/german_credit/raw.data absent; "
            "fetch with scripts/fetch_uci.py and rerun"
        )
        REPORT.append(notice)
        print("\n" + notice)
        pytest.skip(notice)
    cfg = replace(parse_config(CONFIG_DIR / "german_credit.cfg"), workers=2)
    rows = run_experiment(cfg)
    ce = by_loss(rows, "cross_entropy").mean()
    emb = by_loss(rows, "embedding").mean()
    gap_ok = emb <= ce - 0.1
    cfg_d = replace(
        parse_config(CONFIG_DIR / "german_credit_deferral.cfg"), workers=2
    )
    rows_d = run_experiment(cfg_d)
    ce_d = by_loss(rows_d, "cross_entropy").mean()
    emb_d = by_loss(rows_d, "embedding").mean()
    record(
        "criterion 8: lending-cost gap, plain and deferral variants",
        gap_ok and emb_d < ce_d,
        f"plain: embedding {emb:.3f} vs CE {ce:.3f}; "
        f"deferral: embedding {emb_d:.3f} vs CE {ce_d:.3f}",
    )


@pytest.mark.slow
def test_criterion_9_bayes_lower_bound(synthetic_rows, synthetic_cfg):
    """No trained model beats the Monte-Carlo cost floor beyond noise.

    The yardstick is the fluctuation of a test-split cost mean: realized
    per-sample costs of the cost-optimal rule have a known distribution, and
    a 100-sample average of them swings by sigma/10 per standard error. The
    row's own empirical standard error underestimates this on lucky draws, so
    the reference sigma comes from the Monte-Carlo sample itself.
    """
    scale = 1.0 / synthetic_cfg.alpha
    est = monte_carlo_bayes_csl(synthetic_cfg.alpha, 1_000_000, seed=0,
                                cost_scale=scale)
    ds = sample_synthetic(200_000, rng_seed=1)
    from costbench.costs import synthetic_cost_matrix

    cost = synthetic_cost_matrix(synthetic_cfg.alpha)
    reports01 = (bayes_decision_many(ds.features, synthetic_cfg.alpha) > 0).astype(int)
    realized = cost.entries[reports01, ds.labels]
    n_test = split_sizes(synthetic_cfg.n_samples)[2]
    se_ref = float(realized.std(ddof=1)) / math.sqrt(n_test)
    threshold = est.value - 3 * math.hypot(se_ref, est.stderr)
    violations = [
        f"{r.loss}/seed{r.seed}: {r.csl:.3f}"
        for r in synthetic_rows
        if not r.failed and r.csl < threshold
    ]
    record(
        "criterion 9: every run respects the Monte-Carlo cost floor",
        not violations,
        f"floor {est.value:.4f}, threshold {threshold:.4f} "
        f"(realized-cost se {se_ref:.4f}); "
        + ("; ".join(violations) if violations else
           f"{len(synthetic_rows)} rows clear"),
    )


@pytest.mark.slow
def test_criterion_10_determinism(synthetic_rows, synthetic_cfg, tmp_path):
    """Rerunning the table config reproduces the rows CSV byte for byte."""
    again = run_experiment(synthetic_cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(synthetic_rows, a)
    write_rows_csv(again, b)
    identical = a.read_bytes() == b.read_bytes()
    record(
        "criterion 10: byte-identical rerun of the synthetic table config",
        identical,
        f"{len(again)} rows",
    )


def test_zz_print_report():
    print("\n" + "=" * 72)
    print("ACCEPTANCE SUMMARY")
    for line in REPORT:
        print(" ", line)
    print("=" * 72)
