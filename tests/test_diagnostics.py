import csv
import dataclasses
import math

import numpy as np
import pytest

from costbench.costs import (
    binary_alpha_matrix,
    severity_three_class_matrix,
    zero_one_matrix,
)
from costbench.diagnostics import (
    RegretProfile,
    _rewrite,
    boundary_slope,
    embedding_regret_profile,
    monte_carlo_bayes_csl,
    optimal_boundary_slope,
    render_scatter_svg,
)
from costbench.embedding import build_embedding_surrogate, game_values
from costbench.losses import BoundLoss
from costbench.models import TrainedModel

ALPHA6 = binary_alpha_matrix(1 / 6)


# --- conditional surrogate risk ---------------------------------------------------


def test_embedding_risk_minimum_is_bayes_risk():
    from costbench.costs import SimplexDist, expected_costs

    s = build_embedding_surrogate(severity_three_class_matrix())

    def cond_risk(U, p):
        return game_values(s, U)[0] - U @ p

    rng = np.random.default_rng(0)
    span = max(s.phi.max() - s.phi.min(), 1.0)
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        want = expected_costs(s.cost, SimplexDist(p)).min()
        best = float(cond_risk(s.phi, p).min())
        assert best == pytest.approx(want, abs=1e-9)
        # No local perturbation of an embedded point does better.
        local = s.phi[:, None, :] + rng.uniform(-0.5 * span, 0.5 * span,
                                                size=(3, 200, 3))
        assert cond_risk(local.reshape(-1, 3), p).min() >= best - 1e-9


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


def test_constant_link_not_calibrated():
    s = build_embedding_surrogate(ALPHA6)
    profile = embedding_regret_profile(s, 0.05, 100, seed=3)
    # Replace the link by one that always reports -1 (report 0).
    costs = profile.p_points @ ALPHA6.entries.T
    profile = dataclasses.replace(profile, target_regret=costs[:, 0] - costs.min(axis=1))
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


def test_profile_csv_bytes_match_csv_writer(tmp_path):
    # Special and extreme floats, written as csv.writer writes them.
    odd = np.array([0.0, -0.0, 1e-300, 5e-324, 1e300, 0.1, -2.5, np.inf, -np.inf, np.nan])
    profile = RegretProfile(np.column_stack([odd, odd[::-1]]), odd[:, None], odd[::-1], odd)
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["loss", "link", "p0", "p1", "u0", "surrogate_regret", "target_regret"])
        w.writerows(["embedding", "nearest-point", *row] for row in
                    np.column_stack([odd, odd[::-1], odd, odd[::-1], odd]).tolist())
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


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


# --- boundary geometry ------------------------------------------------------------


def test_optimal_slope_values():
    assert optimal_boundary_slope(0.5) == 0.0
    assert optimal_boundary_slope(1 / 6) == pytest.approx(-0.80471895621705, abs=1e-10)


def test_boundary_slope_from_known_weights():
    # Score gap g(x) = 2 x1 + 1.6 x2: boundary x1 = -0.8 x2, slope -0.8.
    params = [(np.array([[0.0, 2.0], [0.0, 1.6]]), np.array([0.0, 0.0]))]
    loss = BoundLoss("cross_entropy", ALPHA6)
    model = TrainedModel(loss, params, np.zeros((1, 2)), 0)
    rep = boundary_slope(model)
    assert not rep.degenerate
    assert rep.slope == pytest.approx(-0.8)
    assert rep.offset == pytest.approx(0.0)


def test_boundary_slope_single_output_head():
    params = [(np.array([[1.0], [0.5]]), np.array([0.25]))]
    loss = BoundLoss("weighted_hinge", ALPHA6)
    model = TrainedModel(loss, params, np.zeros((1, 2)), 0)
    rep = boundary_slope(model)
    assert rep.slope == pytest.approx(-0.5)
    assert rep.offset == pytest.approx(-0.25)


def test_boundary_slope_degenerate_flagged():
    params = [(np.array([[0.0, 0.0], [0.0, 1.0]]), np.zeros(2))]
    loss = BoundLoss("cross_entropy", ALPHA6)
    model = TrainedModel(loss, params, np.zeros((1, 2)), 0)
    rep = boundary_slope(model)
    assert rep.degenerate
    assert math.isinf(rep.slope)


def test_example1_geometry_and_csv():
    params_a = [(np.array([[0.0, 2.0], [0.0, 1.6]]), np.zeros(2))]
    params_b = [(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))]
    loss = BoundLoss("cross_entropy", ALPHA6)
    models = {
        "sloped": TrainedModel(loss, params_a, np.zeros((1, 2)), 0),
        "vertical": TrainedModel(loss, params_b, np.zeros((1, 2)), 0),
    }
    reports = {label: boundary_slope(m) for label, m in models.items()}
    assert reports["sloped"].slope == pytest.approx(-0.8)
    assert reports["vertical"].slope == pytest.approx(0.0)
    # The fields of a geometry report row, one row per trained model.
    target = optimal_boundary_slope(1 / 6)
    assert [(label, r.offset, r.degenerate) for label, r in reports.items()] == [
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


@pytest.mark.parametrize("newline", ["", None])
def test_rewrite_bytes_equal_a_truncating_write(newline, tmp_path):
    # Longer over shorter, shorter over longer, and a new file, in \r\n
    # (CSV) and \n (SVG) text.
    line_end = "\r\n" if newline == "" else "\n"
    texts = [line_end.join(["a,b"] * n) + line_end for n in (3, 40, 2, 2, 7)]
    path, plain = tmp_path / "rewritten", tmp_path / "plain"
    assert not path.exists()
    for text in texts:
        _rewrite(path, text, newline=newline)
        with open(plain, "w", newline=newline) as fh:
            fh.write(text)
        assert path.read_bytes() == plain.read_bytes()
