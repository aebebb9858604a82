import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costbench import embedding
from costbench.costs import (
    CostMatrix,
    SimplexDist,
    bayes_optimal_reports,
    binary_alpha_matrix,
    expected_costs,
    german_credit_deferral_matrix,
    severity_three_class_matrix,
    simplex_grid,
    stock_matrices,
    zero_one_matrix,
)
from costbench.embedding import (
    EmbeddingSurrogate,
    _group_rows,
    _quotient_norm,
    build_embedding_surrogate,
    dist_to_optimal_set,
    game_values,
    link_many,
    min_pairwise_gap,
    sample_predictions,
    surrogate_subgradients,
    surrogate_values,
    verify_alpha_separation,
    verify_embedding,
)
from costbench.losses import BoundLoss

ALPHA_QUARTER = binary_alpha_matrix(0.25)
STUDENT = severity_three_class_matrix()
HINGE_POINTS = (-1.0, 1.0)  # embedded points of reports 0 and 1 on the hinge axis


def hinge(alpha):
    return BoundLoss("weighted_hinge", binary_alpha_matrix(alpha))


def hinge_values(loss, us, y):
    us = np.atleast_1d(np.asarray(us, dtype=float))
    return loss.batch(us[:, None], loss.targets(np.full(len(us), y)))[0]


def hinge_link(us):
    return hinge(0.5).decide_batch(np.asarray(us, dtype=float)[:, None])


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
    assert surrogate_values(s, s.phi[1][None], [0])[0] == pytest.approx(0.25, abs=1e-12)
    assert surrogate_values(s, s.phi[1][None], [1])[0] == pytest.approx(0.0, abs=1e-12)
    assert surrogate_values(s, s.phi[0][None], [1])[0] == pytest.approx(0.75, abs=1e-12)


def test_duplicate_rows_collapse_with_warning():
    m = CostMatrix([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    s = build_embedding_surrogate(m)
    assert s.representative_set == (0, 1)
    assert s.report_class == (0, 1, 0)


def test_alpha_sep_bounds_validated():
    with pytest.raises(ValueError):
        build_embedding_surrogate(ALPHA_QUARTER, alpha_sep=10.0)
    with pytest.raises(ValueError):
        build_embedding_surrogate(ALPHA_QUARTER, alpha_sep=0.0)


def test_zero_one_binary_reduces_to_hinge():
    """The generic construction and the scalar hinge agree for 0-1 costs."""
    s = build_embedding_surrogate(zero_one_matrix(2))
    loss = hinge(0.5)
    # The linked decision is sign(u), ties to report 0.
    edge = np.array([[-1e-12], [0.0], [1e-12]])
    assert np.array_equal(loss.decide_batch(edge), [0, 0, 1])
    rng = np.random.default_rng(3)
    U = rng.uniform(-4, 4, size=(10_000, 2))
    v = hinge_axis(s, U)
    generic = link_many(s, U)
    scalar = loss.decide_batch(v[:, None])
    assert np.array_equal(generic, scalar)
    # The scalar hinge carries the cost values at half scale (its costs are
    # the normalized alpha form); the generic construction carries them 1:1.
    for r, y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert surrogate_values(s, s.phi[r][None], [y])[0] == pytest.approx(
            2.0 * hinge_values(loss, HINGE_POINTS[r], y)[0], abs=1e-12
        )


def test_binary_alpha_hinge_values_match_at_embedded_points():
    for alpha in (1 / 6, 1 / 4):
        s = build_embedding_surrogate(binary_alpha_matrix(alpha))
        loss = hinge(alpha)
        for r, y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert surrogate_values(s, s.phi[r][None], [y])[0] == pytest.approx(
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
            vals, idx = game_values(s, s.phi[r][None])
            assert abs(vals[0]) < 1e-10
            assert r in bayes_optimal_reports(s.cost, SimplexDist(s.verts_p[idx[0]]))


def test_game_value_at_origin_binary():
    alpha = 0.25
    s = build_embedding_surrogate(binary_alpha_matrix(alpha))
    vals, idx = game_values(s, np.zeros((1, 2)))
    assert vals[0] == pytest.approx(alpha * (1 - alpha), abs=1e-12)
    assert np.allclose(s.verts_p[idx[0]], [1 - alpha, alpha])


def test_game_value_shift_covariance(surrogates, rng):
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels)
        c = 1.7
        a = game_values(s, u[None])[0][0]
        b = game_values(s, (u + c)[None])[0][0]
        assert b - a == pytest.approx(c, abs=1e-10)


def test_game_value_matches_grid_oracle(surrogates, rng):
    for s in surrogates.values():
        res = 0.002 if s.n_labels == 2 else 0.02
        lip = np.abs(s.cost.entries).max()
        for _ in range(5):
            u = rng.uniform(-3, 3, size=s.n_labels)
            exact = game_values(s, u[None])[0][0]
            approx = grid_game_oracle(s.cost, u, res)
            assert exact >= approx - 1e-9
            assert exact <= approx + 2 * (np.abs(u).max() + lip) * res


def test_game_witness_invariant(surrogates, rng):
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels) * 2
        vals, idx = game_values(s, u[None])
        witness = SimplexDist(s.verts_p[idx[0]])
        recon = float(witness.probs @ u) + expected_costs(s.cost, witness).min()
        assert vals[0] == pytest.approx(recon, abs=1e-10)


# --- surrogate value and subgradients ---------------------------------------


def test_surrogate_shift_invariance(surrogates, rng):
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels)
        for y in range(s.n_labels):
            assert abs(
                surrogate_values(s, (u + 5.0)[None], [y])[0]
                - surrogate_values(s, u[None], [y])[0]
            ) <= 1e-10


@given(st.integers(0, 6), st.integers(0, 1000), st.floats(0.01, 0.99))
@settings(max_examples=60)
def test_surrogate_convexity(mat_idx, seed, lam):
    name = list(stock_matrices())[mat_idx]
    s = build_embedding_surrogate(stock_matrices()[name])
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=(2, s.n_labels)) * 3
    for y in range(s.n_labels):
        mid = surrogate_values(s, (lam * u + (1 - lam) * v)[None], [y])[0]
        avg = (lam * surrogate_values(s, u[None], [y])[0]
               + (1 - lam) * surrogate_values(s, v[None], [y])[0])
        assert mid <= avg + 1e-10


def test_surrogate_nonnegative(surrogates, rng):
    for s in surrogates.values():
        U = sample_predictions(s, 500, rng)
        for y in range(s.n_labels):
            vals = surrogate_values(s, U[:50], np.full(50, y))
            assert (vals >= -1e-10).all()


def test_subgradient_inequality(surrogates, rng):
    # L(v, y) >= L(u, y) + <g, v - u> for the returned subgradient g.
    for s in surrogates.values():
        for _ in range(20):
            u = rng.normal(size=s.n_labels) * 2
            v = rng.normal(size=s.n_labels) * 2
            for y in range(s.n_labels):
                g = surrogate_subgradients(s, u[None], [y])[0]
                lhs = surrogate_values(s, v[None], [y])[0]
                rhs = surrogate_values(s, u[None], [y])[0] + g @ (v - u)
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
            g = surrogate_subgradients(s, u[None], [y])[0]
            for i in range(s.n_labels):
                e = np.zeros(s.n_labels)
                e[i] = h
                fd = (surrogate_values(s, (u + e)[None], [y])[0]
                      - surrogate_values(s, (u - e)[None], [y])[0]) / (2 * h)
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)
            checked += 1


def test_subgradient_vertex_form():
    # Deep inside the cell where a report is uniquely optimal at a point mass,
    # the subgradient is that point mass minus the label indicator.
    alpha = 1 / 6
    s = build_embedding_surrogate(binary_alpha_matrix(alpha))
    g = surrogate_subgradients(s, np.array([[0.0, -10.0]]), [0])[0]
    assert np.allclose(g, [0.0, 0.0])
    g2 = surrogate_subgradients(s, np.array([[0.0, -10.0]]), [1])[0]
    assert np.allclose(g2, [1.0, -1.0])


def test_subgradient_stationarity_at_witness(surrogates, rng):
    # Sum_y p*_y grad(u, y) = p* - p* = 0 at the witness distribution.
    for s in surrogates.values():
        u = rng.normal(size=s.n_labels)
        _, idx = game_values(s, u[None])
        total = sum(
            s.verts_p[idx[0], y] * surrogate_subgradients(s, u[None], [y])[0]
            for y in range(s.n_labels)
        )
        assert np.allclose(total, 0.0, atol=1e-12)


# --- link -------------------------------------------------------------------


def test_link_maps_embedded_points_to_reports(surrogates):
    for s in surrogates.values():
        for r in s.representative_set:
            assert link_many(s, s.phi[r][None])[0] == r


def test_link_nearest_point_binary():
    s = build_embedding_surrogate(binary_alpha_matrix(1 / 6))
    # Strictly nearer phi(+1) in the shift-invariant metric.
    u = s.phi[1] + 0.01
    assert link_many(s, u[None])[0] == 1
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
            assert link_many(s, mid[None])[0] == min(reps[0], reps[1])


def test_link_shift_invariant(surrogates, rng):
    for s in surrogates.values():
        U = rng.normal(size=(50, s.n_labels))
        assert np.array_equal(link_many(s, U), link_many(s, U + 3.0))


# Every stock matrix, four labels, and a report that duplicates another's row.
PROPERTY_MATRICES = {
    **stock_matrices(),
    "zero_one_4": zero_one_matrix(4),
    "duplicate_row": CostMatrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0],
                                 [0.0, 1.0, 1.0]]),
}


def _link_many_loop(s, U):
    """The link as a loop over the witness vertices that occur, one
    nearest-point search per vertex: the reference for link_many."""
    _, wit = game_values(s, U)
    out = np.empty(len(U), dtype=int)
    for v in np.unique(wit):
        members = np.flatnonzero(wit == v)
        cands = s.vertex_reports[v]
        if len(cands) == 1:
            out[members] = cands[0]
            continue
        diff = U[members][:, None, :] - s.phi[list(cands)][None, :, :]
        out[members] = np.asarray(cands)[np.argmin(_quotient_norm(diff), axis=1)]
    return out


def _property_inputs(s, rng):
    """Named prediction batches: sampled, the embedded points, points on ties
    and no rows at all."""
    k, phi = s.n_labels, s.phi
    # Centroids of two or more embedded points sit on ties between reports;
    # a dyadic lattice holds exact ties of vertex scores and of distances.
    centroids = np.array([phi[list(c)].mean(axis=0)
                          for n in range(2, len(phi) + 1)
                          for c in itertools.combinations(range(len(phi)), n)])
    step = 0.25 if k <= 3 else 0.5
    lattice = np.array(list(itertools.product(np.arange(-2.0, 2.0 + step, step), repeat=k)))
    # Projections onto the plane where two game vertices score alike.
    kinks = []
    for a, b in itertools.combinations(range(len(s.verts_p)), 2):
        normal = s.verts_p[a] - s.verts_p[b]
        u = rng.normal(size=(20, k)) * 2
        offset = (u @ normal + s.verts_t[a] - s.verts_t[b]) / (normal @ normal)
        kinks.append(u - offset[:, None] * normal)
    return {
        "sampled": sample_predictions(s, 5000, rng),
        "normal": rng.normal(size=(2000, k)) * 3,
        "embedded": np.array(phi),
        "ties": np.vstack([centroids, centroids + 1e-12, lattice]),
        "kinks": np.vstack(kinks),
        "empty": np.empty((0, k)),
    }


@pytest.mark.parametrize("name", sorted(PROPERTY_MATRICES))
def test_link_matches_vertex_loop_bit_for_bit(name, rng):
    s = build_embedding_surrogate(PROPERTY_MATRICES[name])
    for kind, U in _property_inputs(s, rng).items():
        got, want = link_many(s, U), _link_many_loop(s, U)
        assert got.dtype == want.dtype and got.shape == want.shape, kind
        assert np.array_equal(got, want), kind


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
            BoundLoss("weighted_hinge", cost)


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
            want = expected_costs(cost, SimplexDist(p)).min()
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


# sha256 of every violation and near-tie flag line, then n_checked, at alpha = 2
# (nearly every mislinked sample is reported) on every stock matrix and on
# zero_one(4). The grouping, its order, each group's representative point and
# size, and the distances all reach these bytes.
ALPHA_SEPARATION_SHA256 = "120adc6bd0343c862c5aa988c42822a5b2d974d443648479fb2ac9f6a9dcf9d7"


def test_alpha_separation_lines_pinned(surrogates):
    h = hashlib.sha256()
    for s in [*surrogates.values(), build_embedding_surrogate(zero_one_matrix(4))]:
        rep = verify_alpha_separation(s, 0.05, 300, alpha=2.0)
        for v in rep.violations + rep.near_tie_flags:
            h.update(v.line().encode() + b"\n")
        h.update(f"n_checked={rep.n_checked}\n".encode())
    assert h.hexdigest() == ALPHA_SEPARATION_SHA256


# --- hull distances ---------------------------------------------------------


def _dist_to_hull_lp(u: np.ndarray, verts: np.ndarray) -> float:
    """Reference: shift-invariant distance from u to conv(verts) + span{1} by LP."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, k = verts.shape
    # Variables: lambda (m), c, sdist. Minimize sdist.
    c_obj = np.zeros(m + 2)
    c_obj[-1] = 1.0
    a_ub = []
    b_ub = []
    for i in range(k):
        a_ub.append(np.concatenate([-verts[:, i], [-1.0, -1.0]]))
        b_ub.append(-u[i])
        a_ub.append(np.concatenate([verts[:, i], [1.0, -1.0]]))
        b_ub.append(u[i])
    a_eq = [np.concatenate([np.ones(m), [0.0, 0.0]])]
    bounds = [(0, None)] * m + [(None, None), (0, None)]
    res = linprog(
        c_obj, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        A_eq=np.array(a_eq), b_eq=[1.0], bounds=bounds, method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def _lp_dists(s, U, reports):
    return np.array([_dist_to_hull_lp(u, s.phi[list(reports)]) for u in U])


def test_dist_to_optimal_set_matches_lp(rng):
    s = build_embedding_surrogate(STUDENT)
    U = rng.normal(size=(40, 3)) * 3
    for reports in [(0,), (0, 1), (1, 2), (0, 1, 2)]:
        fast = dist_to_optimal_set(s, U, reports)
        assert np.allclose(fast, _lp_dists(s, U, reports), atol=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_dist_to_optimal_set_matches_lp_on_random_hulls(k, rng):
    # Hulls of 1 to 4 random embedded points, probed at random predictions
    # and at shifted points inside each hull, where the distance is 0.
    for _ in range(5):
        s = build_embedding_surrogate(CostMatrix(rng.uniform(0.0, 5.0, size=(4, k))))
        for m in range(1, 5):
            reports = tuple(sorted(rng.choice(4, size=m, replace=False)))
            verts = s.phi[list(reports)]
            inside = rng.dirichlet(np.ones(m), size=10) @ verts + rng.normal(size=(10, 1))
            U = np.vstack([rng.normal(size=(30, k)) * 3, inside])
            got = dist_to_optimal_set(s, U, reports)
            assert np.allclose(got, _lp_dists(s, U, reports), rtol=0.0, atol=1e-9)
            assert np.all(np.abs(got[30:]) <= 1e-9)


def test_dist_to_optimal_set_matches_lp_on_collinear_reports(rng):
    # The deferral matrix embeds three points on one line modulo span{1}, so
    # no vertex has all three in its support.
    s = build_embedding_surrogate(german_credit_deferral_matrix())
    U = np.vstack([rng.normal(size=(60, 2)) * 4, s.phi, s.phi.mean(axis=0)])
    got = dist_to_optimal_set(s, U, (0, 1, 2))
    assert np.allclose(got, _lp_dists(s, U, (0, 1, 2)), rtol=0.0, atol=1e-9)
    assert np.all(got[60:] <= 1e-12)


@pytest.mark.parametrize("k", [5, 6])
def test_dist_to_optimal_set_matches_lp_on_wide_hulls(k, rng):
    # k - 1 to k + 1 reports, so supports reach k. Probes: random points,
    # points on a face and inside each hull (distance 0) and points just off
    # those.
    s = build_embedding_surrogate(CostMatrix(rng.uniform(0.0, 5.0, size=(k + 1, k))))
    for m in (k - 1, k, k + 1):
        reports = tuple(range(m))
        lam = rng.dirichlet(np.ones(m), size=8)
        lam[:4, 0] = 0.0
        lam /= lam.sum(axis=1, keepdims=True)
        hull = lam @ s.phi[list(reports)] + rng.normal(size=(8, 1))
        U = np.vstack([hull, rng.normal(size=(12, k)) * 3,
                       hull + rng.normal(size=(8, k)) * 1e-3])
        got = dist_to_optimal_set(s, U, reports)
        assert np.allclose(got, _lp_dists(s, U, reports), rtol=0.0, atol=1e-9)
        assert np.all(got[:8] <= 1e-9)


def test_dist_to_optimal_set_bits_do_not_depend_on_blocks(monkeypatch, rng):
    # One basis per evaluation block gives the default's bits.
    s = build_embedding_surrogate(zero_one_matrix(4))
    U = rng.normal(size=(30, 4)) * 3
    want = dist_to_optimal_set(s, U, (0, 1, 2))
    monkeypatch.setattr(embedding, "_BLOCK", 1)
    assert np.array_equal(dist_to_optimal_set(s, U, (0, 1, 2)), want)


@pytest.mark.parametrize("width", [1, 3, 8, 9, 16, 17, 62, 63, 70])
def test_packed_grouping_matches_unique_rows(width, rng):
    # Widths past 8 pack into several bytes, and past 62 a row no longer
    # fits an integer code; few distinct rows come from a column pattern.
    for n_patterns in (1, 5, 500):
        patterns = rng.random((n_patterns, width)) < 0.4
        keys = patterns[rng.integers(0, n_patterns, 500)]
        got = _group_rows(keys)
        want = np.unique(keys, axis=0, return_index=True, return_counts=True)
        assert sorted(zip(map(bytes, got[0]), got[1].tolist(), got[2].tolist())) \
            == sorted(zip(map(bytes, want[0]), want[1].tolist(), want[2].tolist()))
        assert np.array_equal(got[0], keys[got[1]])


def test_one_report_distance_is_bit_equal_to_quotient_norm(surrogates, rng):
    for s in surrogates.values():
        U = rng.normal(size=(200, s.n_labels)) * 3
        for r in s.representative_set:
            assert np.array_equal(dist_to_optimal_set(s, U, (r,)),
                                  _quotient_norm(U - s.phi[r]))


def _dist_to_optimal_set_bases(s, U, reports):
    """dist_to_optimal_set by basis enumeration for every set size, one
    report included: the reference for the one-report closed form."""
    d = s.phi[list(reports)] - s.phi[reports[0]]
    w = (U - s.phi[reports[0]]).T
    (m, k), n = d.shape, len(U)
    d2, w2 = np.hstack([d, d]), np.vstack([w, w])
    best = np.full(n, np.inf)
    for size in range(1, min(m, k) + 1):
        q = np.array(list(itertools.combinations(range(2 * k), size + 1)))
        labels = np.sort(q % k, axis=1)
        inside = (q[:, 0] == 0) & (q[:, -1] == k)
        keep = (q[:, 0] < k) & (q[:, -1] >= k) & (
            (labels[:, 1:] != labels[:, :-1]).all(axis=1) | inside)
        tights = q[keep][: 1 if size == 1 else None]
        bases = itertools.product(itertools.combinations(range(m), size), tights)
        step = max(1, embedding._BLOCK // max(k * n, (size + 2) ** 2))
        while chunk := list(itertools.islice(bases, step)):
            supp, tight = map(np.array, zip(*chunk))
            a = np.zeros((len(chunk), size + 2, size + 2))
            a[:, 0, :size] = 1.0
            a[:, 1:, :size] = d2[supp[:, None, :], tight[:, :, None]]
            a[:, 1:, size] = tight < k
            a[:, 1:, size + 1] = tight >= k
            ok = np.linalg.cond(a, 1) < 1e12
            inv = np.linalg.inv(a[ok])[:, :size]
            lam = np.maximum(inv[:, :, :1] + inv[:, :, 1:] @ w2[tight[ok]], 0.0)
            lam /= lam.sum(axis=1, keepdims=True)
            v = w - d[supp[ok]].transpose(0, 2, 1) @ lam
            dist = _quotient_norm(v.transpose(0, 2, 1))
            best = np.minimum(best, dist.min(axis=0, initial=np.inf))
    return best


@pytest.mark.parametrize("name", sorted(PROPERTY_MATRICES))
def test_one_report_distance_matches_basis_enumeration(name, rng):
    s = build_embedding_surrogate(PROPERTY_MATRICES[name])
    for kind, U in _property_inputs(s, rng).items():
        for r in s.representative_set:
            got = dist_to_optimal_set(s, U, (r,))
            want = _dist_to_optimal_set_bases(s, U, (r,))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (kind, r)


def test_triple_hull_path_on_four_reports(rng):
    # Four 0-1 reports, a grid point where three of them tie: the distance to
    # an optimal set of three reports, on the same path as every other size.
    s = build_embedding_surrogate(zero_one_matrix(4))
    rep = verify_alpha_separation(s, 1 / 3, 500, rng_seed=2)
    assert isinstance(rep.ok, bool)
    assert rep.ok


def test_alpha_separation_runs_without_scipy(monkeypatch, rng):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    s = build_embedding_surrogate(zero_one_matrix(4))
    assert verify_alpha_separation(s, 1 / 3, 500, rng_seed=2).ok
    d = dist_to_optimal_set(s, rng.normal(size=(50, 4)), (0, 1, 2, 3))
    assert np.all(np.isfinite(d)) and np.all(d >= 0.0)


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
