import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costbench.costs import (
    CostMatrix,
    SimplexDist,
    bayes_optimal_reports,
    bayes_risk,
    binary_alpha_matrix,
    severity_three_class_matrix,
    simplex_grid,
    stock_matrices,
    zero_one_matrix,
)
from costbench.embedding import (
    EmbeddingSurrogate,
    _dist_to_hull_lp,
    _quotient_norm,
    build_embedding_surrogate,
    dist_to_optimal_set,
    game_value,
    link,
    link_many,
    min_pairwise_gap,
    sample_predictions,
    surrogate_subgradient,
    surrogate_value,
    verify_alpha_separation,
    verify_embedding,
)
from costbench.losses import BoundLoss, DecisionRule, LossSpec, decide_batch

ALPHA_QUARTER = binary_alpha_matrix(0.25)
STUDENT = severity_three_class_matrix()
HINGE_POINTS = (-1.0, 1.0)  # embedded points of reports 0 and 1 on the hinge axis


def hinge(alpha):
    return BoundLoss(LossSpec("weighted_hinge", binary_alpha_matrix(alpha)))


def hinge_values(loss, us, y):
    us = np.atleast_1d(np.asarray(us, dtype=float))
    return loss.batch(us[:, None], np.full(len(us), y))[0]


def hinge_link(us):
    return decide_batch(DecisionRule("sign"), np.asarray(us, dtype=float)[:, None])


def hinge_axis(s, U):
    """Affine map from binary predictions to the hinge axis.

    Sends the embedded points of reports r0 and r1 to -1 and +1; only the
    shift-invariant coordinate u_1 - u_0 matters.
    """
    r0, r1 = s.representative_set
    g0 = s.phi[r0, 1] - s.phi[r0, 0]
    g1 = s.phi[r1, 1] - s.phi[r1, 0]
    return (2.0 * (U[:, 1] - U[:, 0]) - (g0 + g1)) / (g1 - g0)


@pytest.fixture(scope="module")
def surrogates():
    return {name: build_embedding_surrogate(m) for name, m in stock_matrices().items()}


def grid_game_oracle(cost: CostMatrix, u: np.ndarray, res: float) -> float:
    """Dense-grid maximization of <p, u> + min_r <p, l_r> over the simplex."""
    grid = simplex_grid(cost.n_labels, res)
    vals = grid @ u + (grid @ cost.entries.T).min(axis=1)
    return float(vals.max())


# --- construction ----------------------------------------------------------


def test_embedded_points_are_negated_cost_rows():
    s = build_embedding_surrogate(ALPHA_QUARTER)
    assert np.allclose(s.phi[0], [0.0, -0.75])
    assert np.allclose(s.phi[1], [-0.25, 0.0])
    st3 = build_embedding_surrogate(STUDENT)
    assert np.allclose(st3.phi, [[0, -3, -5], [-1, 0, -3], [-3, -1, 0]])


def test_value_matches_cost_at_embedded_points():
    s = build_embedding_surrogate(ALPHA_QUARTER)
    assert surrogate_value(s, s.phi[1], 0) == pytest.approx(0.25, abs=1e-12)
    assert surrogate_value(s, s.phi[1], 1) == pytest.approx(0.0, abs=1e-12)
    assert surrogate_value(s, s.phi[0], 1) == pytest.approx(0.75, abs=1e-12)


def test_duplicate_rows_collapse_with_warning():
    m = CostMatrix([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    s = build_embedding_surrogate(m)
    assert s.representative_set == (0, 1)
    assert s.report_class == (0, 1, 0)
    assert any("duplicates" in w for w in s.warnings)


def test_alpha_sep_bounds_validated():
    with pytest.raises(ValueError):
        build_embedding_surrogate(ALPHA_QUARTER, alpha_sep=10.0)
    with pytest.raises(ValueError):
        build_embedding_surrogate(ALPHA_QUARTER, alpha_sep=0.0)


def test_zero_one_binary_reduces_to_hinge():
    """The generic construction and the scalar hinge agree for 0-1 costs."""
    s = build_embedding_surrogate(zero_one_matrix(2))
    loss = hinge(0.5)
    assert loss.default_rule().kind == "sign"
    rng = np.random.default_rng(3)
    U = rng.uniform(-4, 4, size=(10_000, 2))
    v = hinge_axis(s, U)
    generic = link_many(s, U)
    scalar = loss.decide_batch(v[:, None], loss.default_rule())
    assert np.array_equal(generic, scalar)
    # The scalar hinge carries the cost values at half scale (its costs are
    # the normalized alpha form); the generic construction carries them 1:1.
    for r, y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert surrogate_value(s, s.phi[r], y) == pytest.approx(
            2.0 * hinge_values(loss, HINGE_POINTS[r], y)[0], abs=1e-12
        )


def test_binary_alpha_hinge_values_match_at_embedded_points():
    for alpha in (1 / 6, 1 / 4):
        s = build_embedding_surrogate(binary_alpha_matrix(alpha))
        loss = hinge(alpha)
        for r, y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert surrogate_value(s, s.phi[r], y) == pytest.approx(
                hinge_values(loss, HINGE_POINTS[r], y)[0], abs=1e-12
            )


def test_binary_alpha_reparameterized_links_agree():
    for alpha in (1 / 6, 1 / 4):
        s = build_embedding_surrogate(binary_alpha_matrix(alpha))
        rng = np.random.default_rng(int(alpha * 100))
        U = rng.uniform(-3, 3, size=(10_000, 2))
        v = hinge_axis(s, U)
        assert np.array_equal(link_many(s, U), hinge_link(v))


# --- game value ------------------------------------------------------------


def test_game_value_zero_at_embedded_points(surrogates):
    for s in surrogates.values():
        for r in s.representative_set:
            sol = game_value(s, s.phi[r])
            assert abs(sol.value) < 1e-10
            assert r in bayes_optimal_reports(s.cost, sol.witness)


def test_game_value_at_origin_binary():
    alpha = 0.25
    s = build_embedding_surrogate(binary_alpha_matrix(alpha))
    sol = game_value(s, np.zeros(2))
    assert sol.value == pytest.approx(alpha * (1 - alpha), abs=1e-12)
    assert np.allclose(sol.witness.probs, [1 - alpha, alpha])


def test_game_value_shift_covariance(surrogates, rng):
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels)
        c = 1.7
        a = game_value(s, u).value
        b = game_value(s, u + c).value
        assert b - a == pytest.approx(c, abs=1e-10)


def test_game_value_matches_grid_oracle(surrogates, rng):
    for s in surrogates.values():
        res = 0.002 if s.n_labels == 2 else 0.02
        lip = np.abs(s.cost.entries).max()
        for _ in range(5):
            u = rng.uniform(-3, 3, size=s.n_labels)
            exact = game_value(s, u).value
            approx = grid_game_oracle(s.cost, u, res)
            assert exact >= approx - 1e-9
            assert exact <= approx + 2 * (np.abs(u).max() + lip) * res


def test_game_witness_invariant(surrogates, rng):
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels) * 2
        sol = game_value(s, u)
        recon = float(sol.witness.probs @ u) + bayes_risk(s.cost, sol.witness)
        assert sol.value == pytest.approx(recon, abs=1e-10)


def test_game_value_rejects_non_finite(surrogates):
    s = next(iter(surrogates.values()))
    with pytest.raises(ValueError):
        game_value(s, np.array([np.nan] * s.n_labels))


# --- surrogate value and subgradients ---------------------------------------


def test_surrogate_shift_invariance(surrogates, rng):
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels)
        for y in range(s.n_labels):
            assert abs(
                surrogate_value(s, u + 5.0, y) - surrogate_value(s, u, y)
            ) <= 1e-10


@given(st.integers(0, 6), st.integers(0, 1000), st.floats(0.01, 0.99))
@settings(max_examples=60)
def test_surrogate_convexity(mat_idx, seed, lam):
    name = list(stock_matrices())[mat_idx]
    s = build_embedding_surrogate(stock_matrices()[name])
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, s.n_labels)) * 3
    for y in range(s.n_labels):
        mid = surrogate_value(s, lam * u + (1 - lam) * v, y)
        avg = lam * surrogate_value(s, u, y) + (1 - lam) * surrogate_value(s, v, y)
        assert mid <= avg + 1e-10


def test_surrogate_nonnegative(surrogates, rng):
    for s in surrogates.values():
        U = sample_predictions(s, 500, rng)
        for y in range(s.n_labels):
            vals = np.array([surrogate_value(s, u, y) for u in U[:50]])
            assert (vals >= -1e-10).all()


def test_subgradient_inequality(surrogates, rng):
    # L(v, y) >= L(u, y) + <g, v - u> for the returned subgradient g.
    for s in surrogates.values():
        for _ in range(20):
            u = rng.normal(size=s.n_labels) * 2
            v = rng.normal(size=s.n_labels) * 2
            for y in range(s.n_labels):
                g = surrogate_subgradient(s, u, y)
                lhs = surrogate_value(s, v, y)
                rhs = surrogate_value(s, u, y) + g @ (v - u)
                assert lhs >= rhs - 1e-9


def test_subgradient_finite_difference(surrogates, rng):
    h = 1e-6
    for s in surrogates.values():
        checked = 0
        while checked < 100:
            u = rng.uniform(-2, 2, size=s.n_labels) * 2
            scores = u @ s.verts_p.T + s.verts_t
            top = np.sort(scores)[-2:]
            if top[1] - top[0] < 1e-4:  # skip kinks
                continue
            y = int(rng.integers(s.n_labels))
            g = surrogate_subgradient(s, u, y)
            for i in range(s.n_labels):
                e = np.zeros(s.n_labels)
                e[i] = h
                fd = (surrogate_value(s, u + e, y) - surrogate_value(s, u - e, y)) / (
                    2 * h
                )
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)
            checked += 1


def test_subgradient_vertex_form():
    # Deep inside the cell where a report is uniquely optimal at a point mass,
    # the subgradient is that point mass minus the label indicator.
    alpha = 1 / 6
    s = build_embedding_surrogate(binary_alpha_matrix(alpha))
    g = surrogate_subgradient(s, np.array([0.0, -10.0]), 0)
    assert np.allclose(g, [0.0, 0.0])
    g2 = surrogate_subgradient(s, np.array([0.0, -10.0]), 1)
    assert np.allclose(g2, [1.0, -1.0])


def test_subgradient_stationarity_at_witness(surrogates, rng):
    # Sum_y p*_y grad(u, y) = p* - p* = 0 at the witness distribution.
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels)
        sol = game_value(s, u)
        total = sum(
            sol.witness.probs[y] * surrogate_subgradient(s, u, y)
            for y in range(s.n_labels)
        )
        assert np.allclose(total, 0.0, atol=1e-12)


# --- link -------------------------------------------------------------------


def test_link_maps_embedded_points_to_reports(surrogates):
    for s in surrogates.values():
        for r in s.representative_set:
            assert link(s, s.phi[r]) == r


def test_link_nearest_point_binary():
    s = build_embedding_surrogate(binary_alpha_matrix(1 / 6))
    # Strictly nearer phi(+1) in the shift-invariant metric.
    u = s.phi[1] + 0.01
    assert link(s, u) == 1
    d0 = _quotient_norm(u - s.phi[0])
    d1 = _quotient_norm(u - s.phi[1])
    assert d1 < d0


def test_link_tie_breaks_low(surrogates):
    for s in surrogates.values():
        reps = list(s.representative_set)
        mid = (s.phi[reps[0]] + s.phi[reps[1]]) / 2.0
        d0 = _quotient_norm(mid - s.phi[reps[0]])
        d1 = _quotient_norm(mid - s.phi[reps[1]])
        if abs(d0 - d1) < 1e-15 and link_many(s, mid[None, :])[0] in reps[:2]:
            assert link(s, mid) == min(reps[0], reps[1])


def test_link_shift_invariant(surrogates, rng):
    for s in surrogates.values():
        U = rng.normal(size=(50, s.n_labels))
        assert np.array_equal(link_many(s, U), link_many(s, U + 3.0))


# --- weighted hinge ---------------------------------------------------------


def test_weighted_hinge_table_values():
    for alpha in (1 / 6, 1 / 4, 1 / 2):
        h = hinge(alpha)
        assert hinge_values(h, -1.0, 1)[0] == pytest.approx(1 - alpha)
        assert hinge_values(h, 1.0, 0)[0] == pytest.approx(alpha)
        assert hinge_values(h, 1.0, 1)[0] == 0.0
        assert hinge_values(h, -1.0, 0)[0] == 0.0


def test_weighted_hinge_risk_flips_at_alpha():
    alpha = 0.3
    h = hinge(alpha)
    us = np.linspace(-1, 1, 2001)
    for p1 in (alpha - 0.05, alpha + 0.05):
        risks = p1 * hinge_values(h, us, 1) + (1 - p1) * hinge_values(h, us, 0)
        best_u = us[int(np.argmin(risks))]
        assert (best_u > 0) == (p1 > alpha)


def test_weighted_hinge_nonnegative_and_zero_at_correct_point(rng):
    h = hinge(0.25)
    us = rng.uniform(-3, 3, 100)
    assert np.all(hinge_values(h, us, 0) >= 0) and np.all(hinge_values(h, us, 1) >= 0)
    assert hinge_values(h, 1.0, 1)[0] == 0.0
    assert hinge_values(h, -1.0, 0)[0] == 0.0


def test_weighted_hinge_rejects_bad_alpha():
    # alpha = 0 or 1 zeroes one off-diagonal cost; a nonzero diagonal is no
    # alpha matrix at all.
    for entries in ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                    [[0.5, 1.0], [1.0, 0.0]]):
        cost = CostMatrix(entries)
        with pytest.raises(ValueError, match="weighted_hinge needs"):
            LossSpec("weighted_hinge", cost)


def test_minimal_surrogate_risk_matches_bayes_risk():
    """Dense u-grid minimization of the expected surrogate loss recovers the
    minimal expected cost at every grid distribution."""
    for cost in (binary_alpha_matrix(1 / 6), zero_one_matrix(2)):
        s = build_embedding_surrogate(cost)
        gaps = np.linspace(-3, 3, 1201)  # ~the shift-invariant coordinate
        U = np.column_stack([np.zeros_like(gaps), gaps]) * (
            s.phi.max() - s.phi.min()
        )
        for p in simplex_grid(2, 0.05):
            from costbench.embedding import game_values

            vals, _ = game_values(s, U)
            risks = vals - U @ p
            want = bayes_risk(cost, SimplexDist(p))
            grid_min = risks.min()
            assert grid_min >= want - 1e-9
            assert grid_min <= want + 0.05 * (s.phi.max() - s.phi.min())


# --- verification sweeps ----------------------------------------------------


def test_verify_embedding_clean_on_stock(surrogates):
    for name, s in surrogates.items():
        res = 0.01 if s.n_labels == 2 else 0.02
        rep = verify_embedding(s, res)
        assert rep.ok, f"{name}: {rep.text()}"


def test_verify_embedding_flags_corruption():
    s = build_embedding_surrogate(binary_alpha_matrix(1 / 6))
    bad_phi = s.phi.copy()
    bad_phi[0, 0] += 0.1  # a constant row shift would be invisible; skew one axis
    corrupted = EmbeddingSurrogate(
        cost=s.cost,
        phi=bad_phi,
        representative_set=s.representative_set,
        alpha_sep=s.alpha_sep,
        verts_p=s.verts_p,
        verts_t=s.verts_t,
        report_class=s.report_class,
    )
    rep = verify_embedding(corrupted, 0.05)
    assert not rep.ok
    assert len(rep.violations) > 0


def test_verify_embedding_rejects_coarse_grid(surrogates):
    s = next(iter(surrogates.values()))
    with pytest.raises(ValueError):
        verify_embedding(s, 0.5)


def test_alpha_separation_clean_at_default(surrogates):
    for name, s in surrogates.items():
        rep = verify_alpha_separation(s, 0.02, 2000, rng_seed=7)
        assert rep.ok, f"{name}: {rep.text()}"


def test_alpha_separation_binary_at_half_gap():
    # Half the shift-invariant gap is exactly the safe radius for binary costs.
    for alpha in (1 / 6, 1 / 4):
        s = build_embedding_surrogate(binary_alpha_matrix(alpha))
        gap = min_pairwise_gap(s.phi, quotient=True)
        rep = verify_alpha_separation(s, 0.01, 10_000, rng_seed=0, alpha=gap / 2)
        assert rep.ok, rep.text()


def test_alpha_separation_negative_control(surrogates):
    for s in surrogates.values():
        gap = min_pairwise_gap(s.phi[list(s.representative_set)], quotient=False)
        rep = verify_alpha_separation(s, 0.05, 1000, rng_seed=1, alpha=10 * gap)
        assert len(rep.violations) > 0


def test_alpha_separation_vacuous_when_linked_correctly():
    # Predictions at embedded points of optimal reports are never flagged.
    s = build_embedding_surrogate(binary_alpha_matrix(0.25))
    rep = verify_alpha_separation(s, 0.25, 10, rng_seed=0)
    assert rep.n_checked >= 0  # runs without error on tiny budgets


# --- hull distances ---------------------------------------------------------


def test_dist_to_optimal_set_matches_lp(rng):
    s = build_embedding_surrogate(STUDENT)
    U = rng.normal(size=(40, 3)) * 3
    for reports in [(0,), (0, 1), (1, 2), (0, 1, 2)]:
        fast = dist_to_optimal_set(s, U, reports)
        ref = np.array([_dist_to_hull_lp(u, s.phi[list(reports)]) for u in U])
        assert np.allclose(fast, ref, atol=1e-9)


def test_triple_hull_path_on_four_reports(rng):
    # Four 0-1 reports, a grid point where three of them tie: exercises the
    # LP hull-distance path with |optimal set| = 3.
    s = build_embedding_surrogate(zero_one_matrix(4))
    rep = verify_alpha_separation(s, 1 / 3, 500, rng_seed=2)
    assert isinstance(rep.ok, bool)  # clean run through the LP branch
    assert rep.ok


def test_quotient_dist_matches_definition(rng):
    for _ in range(50):
        u, v = rng.normal(size=(2, 4)) * 3
        cs = np.linspace(-10, 10, 4001)
        brute = min(np.abs(u - v - c).max() for c in cs)
        assert _quotient_norm(u - v) <= brute + 1e-9


def test_quotient_norm_is_rowwise_along_last_axis(rng):
    d = rng.normal(size=(5, 3, 4))
    got = _quotient_norm(d)
    assert got.shape == (5, 3)
    for i in range(5):
        for j in range(3):
            assert got[i, j] == (d[i, j].max() - d[i, j].min()) / 2.0


def _min_pairwise_gap_loop(points, quotient):
    best = np.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = points[i] - points[j]
            gap = (d.max() - d.min()) / 2.0 if quotient else np.abs(d).max()
            if gap > 0:
                best = min(best, gap)
    return float(best)


def test_min_pairwise_gap_matches_pairwise_loop(surrogates, rng):
    cases = [s.phi for s in surrogates.values()]
    for _ in range(20):
        pts = rng.normal(size=(5, 3))
        pts[3] = pts[1] + 0.7      # equal to row 1 modulo a shift
        pts[4] = pts[0]            # a duplicate row
        cases.append(pts)
    cases += [np.zeros((1, 3)), np.zeros((2, 3)), np.ones((3, 2)) * [[0], [1], [2]]]
    for pts in cases:
        for quotient in (True, False):
            assert min_pairwise_gap(pts, quotient) == _min_pairwise_gap_loop(pts, quotient)
