import math

import numpy as np
import pytest

from costbench.costs import (
    binary_alpha_matrix,
    severity_three_class_matrix,
    synthetic_cost_matrix,
    zero_one_matrix,
)
from costbench.data import posterior_pos_many, sample_synthetic
from costbench.diagnostics import (
    CrossEntropyRisk,
    EmbeddingRisk,
    boundary_slope,
    embedding_regret_profile,
    minimizability_gap,
    monte_carlo_bayes_csl,
    optimal_boundary_slope,
    regret_profile,
    render_scatter_svg,
)
from costbench.embedding import build_embedding_surrogate
from costbench.losses import BoundLoss, LossSpec
from costbench.models import ModelSpec, TrainConfig, TrainedModel, train

ALPHA6 = binary_alpha_matrix(1 / 6)


# --- conditional risk adapters ------------------------------------------------


def test_embedding_risk_minimum_is_bayes_risk():
    from costbench.costs import SimplexDist, bayes_risk

    s = build_embedding_surrogate(severity_three_class_matrix())
    risk = EmbeddingRisk(s)
    rng = np.random.default_rng(0)
    span = max(s.phi.max() - s.phi.min(), 1.0)
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        want = bayes_risk(s.cost, SimplexDist(p))
        best = risk.min_cond_risk(p)
        assert best == pytest.approx(want, abs=1e-9)
        # No local perturbation of an embedded point does better.
        local = s.phi[:, None, :] + rng.uniform(-0.5 * span, 0.5 * span,
                                                size=(3, 200, 3))
        assert risk.cond_risk(local.reshape(-1, 3), p).min() >= best - 1e-9


def test_cross_entropy_risk_minimum_is_entropy():
    risk = CrossEntropyRisk(3)
    p = np.array([0.2, 0.5, 0.3])
    want = -(p * np.log(p)).sum()
    assert risk.min_cond_risk(p) == pytest.approx(want, abs=1e-12)
    # And the conditional risk at the log-probability scores attains it.
    assert risk.cond_risk(np.log(p)[None, :], p)[0] == pytest.approx(want, abs=1e-12)


# --- regret profiles ------------------------------------------------------------


@pytest.mark.parametrize("cost_fn", [lambda: ALPHA6, severity_three_class_matrix])
def test_embedding_profile_calibrated(cost_fn):
    s = build_embedding_surrogate(cost_fn())
    profile = embedding_regret_profile(s, p_grid_res=0.1, n_u=150, seed=0)
    assert (profile.surrogate_regret >= -1e-10).all()
    for eps in (0.2, 0.1, 0.05):
        floor = profile.calibration_floor(eps)
        assert floor > 0, f"eps={eps}: surrogate regret floor {floor}"


def test_embedding_profile_no_cheap_errors():
    # No sampled point errs badly in the target while sitting at a near-zero
    # surrogate regret.
    for cost in (ALPHA6, zero_one_matrix(3), severity_three_class_matrix()):
        s = build_embedding_surrogate(cost)
        profile = embedding_regret_profile(s, p_grid_res=0.1, n_u=200, seed=1)
        bad = (profile.target_regret > 0.05) & (profile.surrogate_regret < 1e-6)
        assert not bad.any()


def test_cross_entropy_profile_calibrated_for_zero_one():
    cost = zero_one_matrix(2)
    risk = CrossEntropyRisk(2)
    profile = regret_profile(
        risk,
        lambda U: np.argmax(U, axis=1),
        cost,
        p_grid_res=0.05,
        n_u=150,
        seed=2,
        loss_id="cross_entropy",
        link_id="argmax",
    )
    for eps in (0.2, 0.1, 0.05):
        assert profile.calibration_floor(eps) > 0


def test_constant_link_not_calibrated():
    s = build_embedding_surrogate(ALPHA6)
    risk = EmbeddingRisk(s)
    profile = regret_profile(
        risk,
        lambda U: np.zeros(len(U), dtype=int),  # always report -1
        ALPHA6,
        p_grid_res=0.05,
        n_u=100,
        seed=3,
    )
    # Zero surrogate regret with large target regret is witnessed.
    floor = profile.calibration_floor(0.1)
    assert floor <= 1e-9


def test_profile_csv_export(tmp_path):
    s = build_embedding_surrogate(ALPHA6)
    profile = embedding_regret_profile(s, p_grid_res=0.25, n_u=20, seed=0)
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("loss,link,p0,p1,u0,u1")
    assert len(lines) == 1 + len(profile.surrogate_regret)


# --- Monte-Carlo bound -----------------------------------------------------------


def test_monte_carlo_half_alpha_is_half_accuracy_bayes():
    est = monte_carlo_bayes_csl(0.5, 200_000, seed=1)
    assert 0 < est.value < 0.25
    # Equals half the 0-1 risk of the same rule.
    est01 = monte_carlo_bayes_csl(0.5, 200_000, seed=1, cost_scale=2.0)
    assert est01.value == pytest.approx(2 * est.value, abs=1e-12)


def test_monte_carlo_pinned_reference():
    est = monte_carlo_bayes_csl(1 / 6, 1_000_000, seed=0)
    assert est.value == pytest.approx(0.049987366685580105, abs=1e-15)
    assert est.stderr == pytest.approx(4.3285056880272034e-05, abs=1e-12)


def test_monte_carlo_scale_linearity():
    a = monte_carlo_bayes_csl(1 / 6, 10_000, seed=4)
    b = monte_carlo_bayes_csl(1 / 6, 10_000, seed=4, cost_scale=6.0)
    assert b.value == pytest.approx(6 * a.value, rel=1e-12)


def test_monte_carlo_rejects_empty():
    with pytest.raises(ValueError):
        monte_carlo_bayes_csl(0.5, 0)


# --- minimizability gap ----------------------------------------------------------


def _posteriors_for(features):
    eta = posterior_pos_many(features)
    return np.column_stack([1 - eta, eta])


def test_gap_small_for_realizable_logistic(rng):
    # Ground truth IS a linear logistic model: the in-class CE fit closes the gap.
    n = 4000
    x = rng.normal(size=(n, 2))
    w_true = np.array([1.5, -2.0])
    eta = 1.0 / (1.0 + np.exp(-(x @ w_true)))
    y = (rng.random(n) < eta).astype(int)
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    model = train(ModelSpec("linear", 2, 2, init_seed=0), loss,
                  (x[:3000], y[:3000]), (x[3000:], y[3000:]),
                  TrainConfig(learning_rate=0.5, n_epochs=3000))
    risk = CrossEntropyRisk(2)
    posts = np.column_stack([1 - eta, eta])
    est = minimizability_gap(model, risk, x[:800], posts[:800])
    assert est.gap >= -3 * est.stderr
    assert est.gap < 0.01


def test_gap_positive_for_raw_embedding_on_synthetic():
    # Raw linear outputs cannot express the piecewise-constant minimizer.
    ds = sample_synthetic(3000, rng_seed=5)
    x, y = ds.features, ds.labels
    cost = synthetic_cost_matrix(1 / 6)
    loss = BoundLoss(LossSpec("embedding", cost))
    model = train(ModelSpec("linear", 2, 2, init_seed=1), loss,
                  (x[:2400], y[:2400]), (x[2400:], y[2400:]),
                  TrainConfig(learning_rate=1.0, n_epochs=2000))
    risk = EmbeddingRisk(loss.surrogate)
    posts = _posteriors_for(x[:600])
    est = minimizability_gap(model, risk, x[:600], posts[:600])
    assert est.gap > 0.02
    assert est.gap >= -3 * est.stderr


def test_gap_never_negative():
    ds = sample_synthetic(500, rng_seed=6)
    x, y = ds.features, ds.labels
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    model = train(ModelSpec("linear", 2, 2, init_seed=2), loss,
                  (x[:300], y[:300]), (x[300:400], y[300:400]),
                  TrainConfig(learning_rate=0.5, n_epochs=200))
    risk = CrossEntropyRisk(2)
    posts = _posteriors_for(x[400:])
    est = minimizability_gap(model, risk, x[400:], posts)
    assert est.gap >= 0.0  # conditional-risk excess is pointwise nonnegative


# --- boundary geometry ------------------------------------------------------------


def test_optimal_slope_values():
    assert optimal_boundary_slope(0.5) == 0.0
    assert optimal_boundary_slope(1 / 6) == pytest.approx(-0.80471895621705, abs=1e-10)


def test_boundary_slope_from_known_weights():
    # Score gap g(x) = 2 x1 + 1.6 x2: boundary x1 = -0.8 x2, slope -0.8.
    params = [(np.array([[0.0, 2.0], [0.0, 1.6]]), np.array([0.0, 0.0]))]
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    model = TrainedModel(ModelSpec("linear", 2, 2, init_seed=0), loss, params,
                         np.zeros((1, 2)), 0)
    rep = boundary_slope(model, "fixture")
    assert not rep.degenerate
    assert rep.slope == pytest.approx(-0.8)
    assert rep.offset == pytest.approx(0.0)


def test_boundary_slope_single_output_head():
    params = [(np.array([[1.0], [0.5]]), np.array([0.25]))]
    loss = BoundLoss(LossSpec("weighted_hinge", ALPHA6))
    model = TrainedModel(ModelSpec("linear", 2, 1, init_seed=0), loss, params,
                         np.zeros((1, 2)), 0)
    rep = boundary_slope(model)
    assert rep.slope == pytest.approx(-0.5)
    assert rep.offset == pytest.approx(-0.25)


def test_boundary_slope_degenerate_flagged():
    params = [(np.array([[0.0, 0.0], [0.0, 1.0]]), np.zeros(2))]
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    model = TrainedModel(ModelSpec("linear", 2, 2, init_seed=0), loss, params,
                         np.zeros((1, 2)), 0)
    rep = boundary_slope(model)
    assert rep.degenerate
    assert math.isinf(rep.slope)


def test_example1_geometry_and_csv():
    params_a = [(np.array([[0.0, 2.0], [0.0, 1.6]]), np.zeros(2))]
    params_b = [(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))]
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    spec = ModelSpec("linear", 2, 2, init_seed=0)
    models = {
        "sloped": TrainedModel(spec, loss, params_a, np.zeros((1, 2)), 0),
        "vertical": TrainedModel(spec, loss, params_b, np.zeros((1, 2)), 0),
    }
    reports = {label: boundary_slope(m, label) for label, m in models.items()}
    assert reports["sloped"].slope == pytest.approx(-0.8)
    assert reports["vertical"].slope == pytest.approx(0.0)
    # The fields of a geometry report row, one row per trained model.
    target = optimal_boundary_slope(1 / 6)
    assert [(r.label, r.offset, r.degenerate) for r in reports.values()] == [
        ("sloped", 0.0, False), ("vertical", 0.0, False)]
    assert reports["sloped"].slope - target == pytest.approx(-0.8 - 0.5 * math.log(0.2))


# --- svg rendering ------------------------------------------------------------------


def test_render_scatter_svg(tmp_path, rng):
    path = tmp_path / "scatter.svg"
    render_scatter_svg(rng.random(50), rng.random(50), path, title="fixture")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 50
    assert "fixture" in text
