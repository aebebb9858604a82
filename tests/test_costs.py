import numpy as np
import pytest
from hypothesis import given, strategies as st

from costbench.costs import (
    TIE_EPS,
    CostMatrix,
    SimplexDist,
    accuracy,
    bayes_optimal_reports,
    binary_alpha_matrix,
    confusion,
    cost_sensitive_loss,
    expected_costs,
    load_cost_matrix,
    severity_three_class_matrix,
    simplex_grid,
    synthetic_cost_matrix,
    zero_one_matrix,
)

STUDENT = severity_three_class_matrix()


def dist(*probs):
    return SimplexDist(np.array(probs, dtype=float))


# --- type invariants -------------------------------------------------------


def test_cost_matrix_rejects_negative():
    with pytest.raises(ValueError):
        CostMatrix([[0.0, -1.0], [1.0, 0.0]])


def test_cost_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        CostMatrix([[0.0, np.inf], [1.0, 0.0]])


def test_cost_matrix_rejects_tiny():
    with pytest.raises(ValueError):
        CostMatrix([[0.0, 1.0]])


def test_simplex_dist_tolerance():
    SimplexDist(np.array([0.5, 0.5 + 5e-13]))
    with pytest.raises(ValueError):
        SimplexDist(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SimplexDist(np.array([-0.1, 1.1]))


# --- expected cost ---------------------------------------------------------


def test_expected_cost_alpha_indifference():
    # At p1 = alpha both reports cost alpha * (1 - alpha).
    alpha = 0.25
    cost = binary_alpha_matrix(alpha)
    p = dist(1 - alpha, alpha)
    assert expected_costs(cost, p)[0] == pytest.approx(alpha * (1 - alpha), abs=1e-15)
    assert expected_costs(cost, p)[1] == pytest.approx(alpha * (1 - alpha), abs=1e-15)


def test_expected_cost_point_mass_zero():
    for y in range(3):
        p = SimplexDist(np.eye(3)[y])
        r = int(np.argmin(STUDENT.entries[:, y]))
        assert expected_costs(STUDENT, p)[r] == 0.0


def test_expected_cost_student_uniform():
    assert expected_costs(STUDENT, dist(1 / 3, 1 / 3, 1 / 3))[0] == pytest.approx(8 / 3)


# --- bayes-optimal reports and risk ---------------------------------------


def test_bayes_optimal_alpha_threshold():
    alpha = 0.25
    cost = binary_alpha_matrix(alpha)
    assert bayes_optimal_reports(cost, dist(0.5, 0.5)) == (1,)      # p1 > alpha
    assert bayes_optimal_reports(cost, dist(0.9, 0.1)) == (0,)      # p1 < alpha
    assert bayes_optimal_reports(cost, dist(1 - alpha, alpha)) == (0, 1)


def test_bayes_optimal_point_mass_column_argmin():
    p = SimplexDist(np.eye(3)[1])
    col = STUDENT.entries[:, 1]
    want = tuple(np.flatnonzero(col <= col.min() + TIE_EPS))
    assert bayes_optimal_reports(STUDENT, p) == want


def test_bayes_optimal_student_uniform_tie():
    # Row costs 8/3, 4/3, 4/3: reports 1 and 2 tie.
    assert bayes_optimal_reports(STUDENT, dist(1 / 3, 1 / 3, 1 / 3)) == (1, 2)


def test_bayes_risk_values():
    assert expected_costs(STUDENT, dist(1 / 3, 1 / 3, 1 / 3)).min() == pytest.approx(4 / 3)
    alpha = 0.25
    p = dist(1 - alpha, alpha)
    assert expected_costs(binary_alpha_matrix(alpha), p).min() == pytest.approx(
        alpha * (1 - alpha))
    assert expected_costs(STUDENT, SimplexDist(np.eye(3)[0])).min() == 0.0


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_bayes_risk_concave_midpoints(i, j):
    grid = simplex_grid(3, 0.05)
    p = grid[i % len(grid)]
    q = grid[j % len(grid)]
    mid = SimplexDist((p + q) / 2)
    lhs = expected_costs(STUDENT, mid).min()
    rhs = (0.5 * expected_costs(STUDENT, SimplexDist(p)).min()
           + 0.5 * expected_costs(STUDENT, SimplexDist(q)).min())
    assert lhs >= rhs - 1e-12


@given(st.floats(0.1, 100.0), st.integers(0, 10_000))
def test_bayes_optimal_scale_invariant(factor, idx):
    grid = simplex_grid(3, 0.05)
    p = SimplexDist(grid[idx % len(grid)])
    base = bayes_optimal_reports(STUDENT, p)
    scaled = bayes_optimal_reports(CostMatrix(STUDENT.entries * factor), p,
                                   tie_eps=TIE_EPS * factor)
    assert base == scaled


# --- confusion and metrics -------------------------------------------------


def test_confusion_diagonal_on_perfect():
    preds = labels = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0, 1])
    cm = confusion(preds, labels, 2, 2)
    assert cm[0, 0] == 5 and cm[1, 1] == 5
    assert cm[0, 1] == 0 and cm[1, 0] == 0


def test_confusion_counts_directly():
    cm = confusion([0, 0, 0], [0, 0, 1], 2, 2)
    assert cm[0].tolist() == [2, 1]
    assert cm.sum() == 3


def test_confusion_order_invariance(rng):
    preds = rng.integers(0, 3, 50)
    labels = rng.integers(0, 3, 50)
    perm = rng.permutation(50)
    a = confusion(preds, labels, 3, 3)
    b = confusion(preds[perm], labels[perm], 3, 3)
    assert np.array_equal(a, b)


def test_confusion_matches_per_pair_counting(rng):
    for n_reports, n_labels in [(2, 2), (3, 2), (3, 3), (8, 8)]:
        for n in (0, 1, 500):
            preds = rng.integers(0, n_reports, n)
            labels = rng.integers(0, n_labels, n)
            want = np.zeros((n_reports, n_labels), dtype=np.int64)
            np.add.at(want, (preds, labels), 1)
            got = confusion(preds, labels, n_reports, n_labels)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert not got.flags.writeable


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion([0, 1], [0], 2, 2)


def test_csl_perfect_zero():
    cm = confusion([0, 1, 2], [0, 1, 2], 3, 3)
    assert cost_sensitive_loss(cm, STUDENT) == 0.0


def test_csl_hand_value():
    # alpha = 1/6, 100 samples, 12 false positives: 12 * (1/6) / 100.
    cost = binary_alpha_matrix(1 / 6)
    counts = np.array([[50, 0], [12, 38]])
    assert cost_sensitive_loss(counts, cost) == pytest.approx(0.02)


def test_csl_zero_one_is_error_rate(rng):
    preds = rng.integers(0, 3, 200)
    labels = rng.integers(0, 3, 200)
    cm = confusion(preds, labels, 3, 3)
    csl = cost_sensitive_loss(cm, zero_one_matrix(3))
    assert abs(csl - (1.0 - accuracy(cm))) < 1e-12


def test_csl_shape_mismatch_and_empty():
    cm = confusion([0, 1], [0, 1], 2, 2)
    with pytest.raises(ValueError):
        cost_sensitive_loss(cm, STUDENT)
    empty = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError):
        cost_sensitive_loss(empty, binary_alpha_matrix(0.5))


def test_accuracy_cases():
    assert accuracy(confusion([0, 1], [0, 1], 2, 2)) == 1.0
    assert accuracy(confusion([1, 0], [0, 1], 2, 2)) == 0.0
    counts = np.diag([50, 30, 20])
    assert accuracy(counts) == 1.0
    with pytest.raises(ValueError):
        accuracy(confusion([0], [0], 3, 2))


# --- grids and file round-trip ---------------------------------------------


def test_simplex_grid_shapes():
    assert simplex_grid(2, 0.01).shape == (101, 2)
    assert simplex_grid(3, 0.01).shape == (5151, 3)
    grid = simplex_grid(3, 0.05)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert grid.min() >= 0


def _compositions(total, parts):
    """Reference grid builder: every composition of total, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize(
    "n_labels, q",
    [(k, q) for k in range(1, 7) for q in (1, 2, 3, 10, 20)] + [(2, 100), (3, 100)],
)
def test_simplex_grid_matches_recursive_reference(n_labels, q):
    want = np.array(list(_compositions(q, n_labels)), dtype=float) / q
    got = simplex_grid(n_labels, 1.0 / q)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_simplex_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        simplex_grid(2, 0.3)


def test_cost_matrix_file_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("3 3\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n"
                                       for row in STUDENT.entries))
    loaded = load_cost_matrix(path)
    assert np.array_equal(loaded.entries, STUDENT.entries)


def test_cost_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 1\n")
    with pytest.raises(ValueError):
        load_cost_matrix(bad)
    neg = tmp_path / "neg.txt"
    neg.write_text("2 2\n0 -1\n1 0\n")
    with pytest.raises(ValueError):
        load_cost_matrix(neg)


@pytest.mark.parametrize("rows, cause", [
    ("0 x\n1 0\n", "row '0 x': could not convert string to float: 'x'"),
    ("0 -1\n1 0\n", "must be nonnegative"),
    ("0 nan\n1 0\n", "must be finite"),
    ("0 inf\n1 0\n", "must be finite"),
])
def test_cost_matrix_file_errors_name_the_file(tmp_path, rows, cause):
    path = tmp_path / "costs.txt"
    path.write_text("2 2\n" + rows)
    with pytest.raises(ValueError) as info:
        load_cost_matrix(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and cause in message


def test_synthetic_cost_matrix_integer_scale():
    m = synthetic_cost_matrix(1 / 6)
    assert m.entries.tolist() == [[0.0, 5.0], [1.0, 0.0]]
    # Same decisions as the normalized form on a fine grid.
    base = binary_alpha_matrix(1 / 6)
    for p in simplex_grid(2, 0.01):
        d = SimplexDist(p)
        assert bayes_optimal_reports(m, d) == bayes_optimal_reports(
            base, d, tie_eps=TIE_EPS / 6
        )
