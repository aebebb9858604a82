import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costbench.costs import (
    binary_alpha_matrix,
    label_targets,
    confusion,
    cost_sensitive_loss,
    severity_three_class_matrix,
    stock_matrices,
    synthetic_cost_matrix,
    zero_one_matrix,
)
from costbench.embedding import (
    build_embedding_surrogate,
    game_values,
    surrogate_subgradients,
    surrogate_values,
)
from costbench.losses import (
    LOSS_KINDS,
    LOSS_LABELS,
    BoundLoss,
    NonFiniteScores,
    check_loss,
    class_weights,
    cross_entropy_batch,
    embedding_raw_batch,
    embedding_softmax_batch,
    log_softmax,
    postprocess_search,
    scaled_cross_entropy_batch,
    softmax,
)

STUDENT = severity_three_class_matrix()
ALPHA6 = binary_alpha_matrix(1 / 6)


def finite_diff(fn, x, h=1e-6):
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


# --- narrow-axis kernels against the axis reductions --------------------------


def ref_softmax(scores):
    """softmax as axis reductions: the reference the column-wise kernels match."""
    scores = np.asarray(scores, dtype=float)
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_log_softmax(scores):
    scores = np.asarray(scores, dtype=float)
    z = scores - scores.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _kernel_inputs(n, k, rng):
    """Spread magnitudes up to 700, with exact ties in every fourth row."""
    x = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3, np.log10(700), size=(n, k))
    x[::4] = x[::4, :1]
    if n > 2:
        x[1] = 700.0 * np.sign(rng.normal(size=k))
        x[2, ::2] = -0.0
    return x


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("n", [0, 1, 400])
def test_softmax_kernels_match_axis_reductions(n, k, rng):
    x = _kernel_inputs(n, k, rng)
    _assert_same_bits(softmax(x), ref_softmax(x))
    _assert_same_bits(log_softmax(x), ref_log_softmax(x))


@pytest.mark.parametrize("shape", [(5,), (1,), (3, 50, 4), (2, 7, 9)])
def test_softmax_kernels_other_ranks(shape, rng):
    x = rng.normal(scale=300.0, size=shape)
    _assert_same_bits(softmax(x), ref_softmax(x))
    _assert_same_bits(log_softmax(x), ref_log_softmax(x))


# --- cross-entropy ----------------------------------------------------------


def test_ce_uniform_scores():
    for k in (2, 3, 5):
        (v,), _ = cross_entropy_batch(np.zeros((1, k)), label_targets([0], k))
        assert v == pytest.approx(np.log(k), abs=1e-12)


def test_ce_huge_scores_stable():
    (v,), (g,) = cross_entropy_batch(np.array([[1000.0, 0.0]]), label_targets([0], 2))
    assert np.isfinite(v) and abs(v) < 1e-12
    assert np.all(np.isfinite(g))


def test_ce_rejects_non_finite():
    # A ValueError subclass, so the CLI still exits 2 on non-finite input.
    assert issubclass(NonFiniteScores, ValueError)
    with pytest.raises(NonFiniteScores):
        cross_entropy_batch(np.array([[np.inf, 0.0]]), label_targets([0], 2))


def test_ce_gradient_finite_difference(rng):
    for _ in range(100):
        s = rng.normal(size=4) * 3
        y = int(rng.integers(4))
        t = label_targets([y], 4)
        _, (g,) = cross_entropy_batch(s[None], t)
        fd = finite_diff(lambda u: cross_entropy_batch(u[None], t)[0][0], s)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_ce_strictly_convex_midpoint(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)) * 2
    if np.ptp(a - b) < 1e-6:  # constant direction: CE is flat there
        return
    y = int(rng.integers(3))
    t = label_targets([y], 3)
    mid = cross_entropy_batch(((a + b) / 2)[None], t)[0][0]
    avg = (0.5 * cross_entropy_batch(a[None], t)[0][0]
           + 0.5 * cross_entropy_batch(b[None], t)[0][0])
    assert mid < avg + 1e-12


# --- class weights and scaled CE ---------------------------------------------


def test_class_weights_severity_matrix():
    assert np.allclose(class_weights(STUDENT), [4 / 3, 4 / 3, 8 / 3])


def test_class_weights_binary_alpha():
    w = class_weights(ALPHA6)
    assert np.allclose(w, [(1 / 6) / 2, (5 / 6) / 2])


def test_class_weights_zero_one_gives_plain_ce(rng):
    cost = zero_one_matrix(2)
    w = class_weights(cost)
    assert np.allclose(w, [0.5, 0.5])
    s = rng.normal(size=2)
    (plain,), _ = cross_entropy_batch(s[None], label_targets([1], 2))
    (scaled,), _ = scaled_cross_entropy_batch(w, s[None], label_targets([1], 2))
    assert scaled == pytest.approx(0.5 * plain)


def test_scaled_ce_severity_value():
    (v,), _ = scaled_cross_entropy_batch(class_weights(STUDENT), np.zeros((1, 3)),
                                         label_targets([2], 3))
    assert v == pytest.approx((8 / 3) * np.log(3), abs=1e-12)


def test_scaled_ce_gradient_finite_difference(rng):
    w = class_weights(STUDENT)
    for _ in range(100):
        s = rng.normal(size=3) * 2
        y = int(rng.integers(3))
        t = label_targets([y], 3)
        _, (g,) = scaled_cross_entropy_batch(w, s[None], t)
        fd = finite_diff(lambda u: scaled_cross_entropy_batch(w, u[None], t)[0][0], s)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


# --- embedding softmax loss ---------------------------------------------------


@pytest.fixture(scope="module")
def student_surrogate():
    return build_embedding_surrogate(STUDENT)


def test_embedding_softmax_saturated(student_surrogate):
    s = student_surrogate
    for r in range(3):
        logits = np.full(3, -40.0)
        logits[r] = 40.0
        for y in range(3):
            (v,), _ = embedding_softmax_batch(s, logits[None], label_targets([y], 3))
            assert v == pytest.approx(STUDENT.entries[r, y], abs=1e-8)


def test_embedding_softmax_uniform_binary():
    srg = build_embedding_surrogate(ALPHA6)
    logits = np.zeros(2)
    u = srg.phi.mean(axis=0)
    for y in (0, 1):
        (v,), _ = embedding_softmax_batch(srg, logits[None], label_targets([y], 2))
        assert v == pytest.approx(surrogate_values(srg, u[None], [y])[0], abs=1e-12)


def test_embedding_softmax_gradient_finite_difference(student_surrogate, rng):
    s = student_surrogate
    checked = 0
    while checked < 100:
        logits = rng.normal(size=3) * 2
        y = int(rng.integers(3))
        u = softmax(logits[None, :])[0] @ s.phi
        scores = u @ s.verts_p.T + s.verts_t
        top = np.sort(scores)[-2:]
        if top[1] - top[0] < 1e-4:
            continue
        t_y = label_targets([y], 3)
        _, (g,) = embedding_softmax_batch(s, logits[None], t_y)
        fd = finite_diff(lambda t: embedding_softmax_batch(s, t[None], t_y)[0][0], logits)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)
        checked += 1


def test_embedding_softmax_wrong_width(student_surrogate):
    with pytest.raises(ValueError):
        embedding_softmax_batch(student_surrogate, np.zeros((1, 4)), label_targets([0], 3))


@pytest.mark.parametrize("name", ["student", "alpha6", "synthetic", "german",
                                  "deferral", "zero_one4", "zero_one8"])
def test_fused_embedding_batches_match_separate_calls(name, rng):
    from costbench.costs import german_credit_deferral_matrix, german_credit_matrix

    cost = {"student": STUDENT, "alpha6": ALPHA6,
            "synthetic": synthetic_cost_matrix(1 / 6),
            "german": german_credit_matrix(),
            "deferral": german_credit_deferral_matrix(),
            "zero_one4": zero_one_matrix(4), "zero_one8": zero_one_matrix(8)}[name]
    s = build_embedding_surrogate(cost)
    # Random points, the embedded points (where several vertices tie) and
    # the midpoints between them.
    phi = s.phi
    mids = (phi[:, None, :] + phi[None, :, :]).reshape(-1, phi.shape[1]) / 2.0
    U = np.vstack([rng.normal(scale=2.0, size=(200, phi.shape[1])), phi, mids])
    ys = rng.integers(0, s.n_labels, len(U))
    vals, grads = embedding_raw_batch(s, U, label_targets(ys, s.n_labels))
    # surrogate_values shares the code under test, so the reference is the
    # formula itself: G(u) - u_y, and the maximizing vertex minus e_y.
    G, idx = game_values(s, U)
    assert np.array_equal(vals, G - U[np.arange(len(U)), ys])
    assert np.array_equal(grads, s.verts_p[idx] - np.eye(s.n_labels)[ys])

    rep_phi = s.phi[list(s.representative_set)]
    logits = np.vstack([rng.normal(scale=3.0, size=(200, len(rep_phi))),
                        np.zeros((1, len(rep_phi)))])
    ys = rng.integers(0, s.n_labels, len(logits))
    q = ref_softmax(logits)
    U = q @ rep_phi
    proj = surrogate_subgradients(s, U, ys) @ rep_phi.T
    want_grads = q * (proj - (q * proj).sum(axis=1, keepdims=True))
    vals, grads = embedding_softmax_batch(s, logits, label_targets(ys, s.n_labels))
    assert np.array_equal(vals, surrogate_values(s, U, ys))
    assert np.array_equal(grads, want_grads)


# --- loss specs ----------------------------------------------------------------


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        BoundLoss("nope", ALPHA6)
    with pytest.raises(ValueError):
        BoundLoss("weighted_hinge", STUDENT)  # needs a 2x2 alpha matrix
    BoundLoss("weighted_hinge", ALPHA6)


def _previous_label_check(label, cost):
    """The label rules as harness._loss_kind and losses.check_loss split them
    before check_loss took labels: the kind a label trains, or ValueError."""
    if label not in LOSS_KINDS + ("cross_entropy_post",):
        raise ValueError(f"unknown loss {label!r}")
    kind = label
    if label == "cross_entropy_post":
        if not cost.is_square:
            raise ValueError("cross_entropy_post is undefined when reports != labels "
                             "(weighted argmax has no deferral score)")
        kind = "cross_entropy"
    if kind == "weighted_hinge":
        c = cost.entries
        if c.shape != (2, 2) or c[0, 0] != 0 or c[1, 1] != 0:
            raise ValueError("weighted_hinge needs a zero-diagonal 2x2 matrix")
        if c[1, 0] <= 0 or c[0, 1] <= 0:
            raise ValueError("weighted_hinge needs positive off-diagonal costs")
    return kind


def _outcome(check, label, cost):
    try:
        return check(label, cost)
    except ValueError as exc:
        return "unknown" if str(exc).startswith("unknown loss") else str(exc)


LABEL_MATRICES = {**stock_matrices(), "zero_one_four_class": zero_one_matrix(4)}


@pytest.mark.parametrize("name", sorted(LABEL_MATRICES))
def test_check_loss_matches_the_previous_label_rules(name):
    cost = LABEL_MATRICES[name]
    assert LOSS_LABELS == (*LOSS_KINDS, "cross_entropy_post")
    for label in (*LOSS_LABELS, "nope", "cross_entropy_post ", "CROSS_ENTROPY"):
        want = _outcome(_previous_label_check, label, cost)
        assert _outcome(check_loss, label, cost) == want, label
        if want in LOSS_KINDS:
            assert BoundLoss(label, cost).kind == want
        else:
            with pytest.raises(ValueError):
                BoundLoss(label, cost)


@pytest.mark.parametrize("name", sorted(n for n, c in LABEL_MATRICES.items() if c.is_square))
def test_post_label_binds_the_cross_entropy_loss_bit_for_bit(name):
    cost = LABEL_MATRICES[name]
    post, plain = BoundLoss("cross_entropy_post", cost), BoundLoss("cross_entropy", cost)
    assert post.kind == plain.kind == "cross_entropy"
    assert post.out_dim == plain.out_dim
    scores, labels = _decision_inputs(cost.n_reports, cost.n_labels)
    for a, b in zip(post.batch(scores, post.targets(labels)),
                    plain.batch(scores, plain.targets(labels))):
        assert a.tobytes() == b.tobytes()
    weights = postprocess_search(scores, labels, cost)
    for w in (None, weights):
        assert post.decide_batch(scores, w).tobytes() == plain.decide_batch(scores, w).tobytes()


def test_bound_loss_out_dims():
    assert BoundLoss("cross_entropy", STUDENT).out_dim == 3
    assert BoundLoss("embedding", STUDENT).out_dim == 3
    assert BoundLoss("embedding_softmax", STUDENT).out_dim == 3
    assert BoundLoss("weighted_hinge", ALPHA6).out_dim == 1
    # Deferral: 3 reports over 2 labels.
    from costbench.costs import german_credit_deferral_matrix

    defer = german_credit_deferral_matrix()
    assert BoundLoss("embedding", defer).out_dim == 2
    assert BoundLoss("embedding_softmax", defer).out_dim == 3
    assert BoundLoss("cross_entropy", defer).out_dim == 2


def test_bound_loss_kink_margins():
    u = np.array([[1.0], [-1.0], [0.0], [3.0]])
    hinge = BoundLoss("weighted_hinge", ALPHA6)
    assert np.array_equal(hinge.kink_margin(u), [0.0, 0.0, 1.0, 2.0])
    for kind in ("cross_entropy", "scaled_cross_entropy"):
        margins = BoundLoss(kind, STUDENT).kink_margin(np.zeros((2, 3)))
        assert np.all(np.isinf(margins))
    # Embedded points are kinks of G; the softmax variant measures the gap
    # at the point its scores link to.
    raw = BoundLoss("embedding", STUDENT)
    assert np.all(raw.kink_margin(raw.surrogate.phi) < 1e-12)
    soft = BoundLoss("embedding_softmax", STUDENT)
    logits = np.random.default_rng(1).normal(size=(20, soft.out_dim))
    assert np.array_equal(soft.kink_margin(logits),
                          raw.kink_margin(soft.link_input(logits)))
    assert np.all(soft.kink_margin(logits) > 0)


def test_bound_loss_batches_match_singles(rng):
    for kind in ("cross_entropy", "scaled_cross_entropy", "embedding",
                 "embedding_softmax"):
        loss = BoundLoss(kind, STUDENT)
        S = rng.normal(size=(7, loss.out_dim)) * 2
        ys = rng.integers(0, 3, size=7)
        vals, grads = loss.batch(S, loss.targets(ys))
        assert vals.shape == (7,) and grads.shape == S.shape
        assert np.all(vals >= -1e-10)


@pytest.mark.parametrize("name", sorted(stock_matrices()))
def test_stacked_batch_matches_separate_calls(name):
    # `train` evaluates both splits in one `batch` call on the stacked scores,
    # so every row must come out as a call on its own split would give it.
    # Splits of one row are excluded: numpy runs a one-row matmul as a
    # matrix-vector product, which rounds differently, so `train` keeps a
    # separate call for them.
    cost = stock_matrices()[name]
    rng = np.random.default_rng(len(name))
    for kind in LOSS_KINDS:
        if kind == "weighted_hinge" and cost.entries.shape != (2, 2):
            continue
        loss = BoundLoss(kind, cost)
        for n_tr, n_va in [(2, 2), (37, 13), (300, 100), (600, 200)]:
            scores = rng.normal(scale=3.0, size=(n_tr + n_va, loss.out_dim))
            ys = rng.integers(0, cost.n_labels, n_tr + n_va)
            vals, grads = loss.batch(scores, loss.targets(ys))
            for part in (slice(0, n_tr), slice(n_tr, None)):
                want_vals, want_grads = loss.batch(scores[part], loss.targets(ys[part]))
                _assert_same_bits(vals[part], want_vals)
                _assert_same_bits(grads[part], want_grads)


# --- kernels against the fancy-index formulas they replaced ----------------------
#
# The kernels gather with flat-index `take` and scatter by subtracting the
# one-hot labels. These references keep the row/label fancy indexing the
# kernels used before, and every kernel must match them bit for bit.


def _ref_cross_entropy(scores, ys):
    ls = log_softmax(scores)
    rows = np.arange(len(scores))
    vals = -ls[rows, ys]
    grads = np.exp(ls)
    grads[rows, ys] -= 1.0
    return vals, grads


def _ref_game_values(s, U):
    scores = U @ s.verts_p.T + s.verts_t
    idx = np.argmax(scores, axis=1)
    return scores[np.arange(len(U)), idx], idx


def _ref_surrogate(s, U, ys):
    G, idx = _ref_game_values(s, U)
    rows = np.arange(len(U))
    grads = s.verts_p[idx]
    grads[rows, ys] -= 1.0
    return G - U[rows, ys], grads


def _ref_batch(loss, cost, scores, ys):
    """The loss's batch on labels ys, with the gathers and scatters indexed by row."""
    if loss.kind == "cross_entropy":
        return _ref_cross_entropy(scores, ys)
    if loss.kind == "scaled_cross_entropy":
        vals, grads = _ref_cross_entropy(scores, ys)
        w = class_weights(cost)[ys]
        return w * vals, w[:, None] * grads
    if loss.kind == "embedding":
        return _ref_surrogate(loss.surrogate, scores, ys)
    s = loss.surrogate  # embedding_softmax
    q = softmax(scores)
    vals, g_u = _ref_surrogate(s, q @ s.rep_phi, ys)
    proj = g_u @ s.rep_phi.T
    return vals, q * (proj - (q * proj).sum(axis=1, keepdims=True))


def _kink_scores(loss, n, rng):
    """Random scores with exact ties, and points on kinks of the embedding losses."""
    scores = rng.normal(scale=3.0, size=(n, loss.out_dim))
    scores[::3] = scores[::3, :1]  # every score of the row tied
    if loss.surrogate is not None:
        s = loss.surrogate
        phi = s.phi if loss.kind == "embedding" else np.eye(len(s.rep_phi)) * 1000.0
        mids = (phi[:, None, :] + phi[None, :, :]).reshape(-1, phi.shape[1]) / 2.0
        kinks = np.vstack([phi, mids])  # several game vertices tie at each
        scores[1::3] = kinks[np.arange(len(scores[1::3])) % len(kinks)]
    return scores


@pytest.mark.parametrize("n", [1, 2, 7, 300, 400])
@pytest.mark.parametrize("name", sorted(stock_matrices()))
def test_kernels_match_fancy_index_formulas(name, n):
    cost = stock_matrices()[name]
    rng = np.random.default_rng(n)
    for kind in LOSS_KINDS:
        if kind == "weighted_hinge":
            continue  # it gathers and scatters nothing by label
        loss = BoundLoss(kind, cost)
        scores = _kink_scores(loss, n, rng)
        ys = rng.integers(0, cost.n_labels, n)
        vals, grads = loss.batch(scores, loss.targets(ys))
        want_vals, want_grads = _ref_batch(loss, cost, scores, ys)
        _assert_same_bits(vals, want_vals)
        _assert_same_bits(grads, want_grads)
        if loss.surrogate is not None:
            U = scores if kind == "embedding" else softmax(scores) @ loss.surrogate.rep_phi
            for got, want in zip(game_values(loss.surrogate, U),
                                 _ref_game_values(loss.surrogate, U)):
                _assert_same_bits(got, want)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_targets_reject_labels_out_of_range(kind):
    loss = BoundLoss(kind, ALPHA6)
    scores = np.zeros((2, loss.out_dim))
    for ys in ([-1, 0], [0, 2]):
        with pytest.raises(ValueError, match=re.escape("labels must lie in [0, 2)")):
            loss.batch(scores, loss.targets(ys))
    t = loss.targets([1, 0])
    assert np.array_equal(t.labels, [1, 0]) and np.array_equal(t.flat, [1, 2])
    assert np.array_equal(t.onehot, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="3 score rows for 2 labels"):
        loss.batch(np.zeros((3, loss.out_dim)), t)


# --- decisions -------------------------------------------------------------------


def _decide(cost, scores, weights=None):
    """cross_entropy's decision on cost, or the weighted argmax under weights."""
    return BoundLoss("cross_entropy", cost).decide_batch(scores, weights)


def test_decide_argmax_and_ties():
    got = _decide(STUDENT, np.array([[0.1, 0.9, 0.3], [0.5, 0.5, 0.1]]))
    assert np.array_equal(got, [1, 0])  # tie -> lowest index


def test_weighted_argmax_uniform_equals_argmax(rng):
    S = rng.normal(size=(200, 3))
    assert np.array_equal(_decide(STUDENT, S, np.full(3, 1 / 3)), _decide(STUDENT, S))


def test_weighted_argmax_is_threshold_in_binary():
    # weights (w0, w1) decide 1 iff score gap exceeds log(w0 / w1).
    w = np.array([0.7, 0.3])
    tau = np.log(w[0] / w[1])
    gaps = np.linspace(-3, 3, 601)
    S = np.column_stack([np.zeros_like(gaps), gaps])
    got = _decide(ALPHA6, S, w)
    want = (gaps > tau).astype(int)
    assert np.array_equal(got, want)


def _decision_inputs(width, n_labels):
    rng = np.random.default_rng(0)
    return rng.normal(scale=2.0, size=(500, width)), rng.integers(0, n_labels, 500)


def _digest(preds):
    return hashlib.sha256(np.asarray(preds, dtype=np.int64).tobytes()).hexdigest()


# sha256 of the int64 decisions on _decision_inputs, for every stock matrix and
# every loss kind it takes; cross_entropy_post decides by postprocess_search's
# weights. Taken before BoundLoss carried its own decision, so that moving the
# decisions is checked to change no report.
_ARGMAX2 = "818b6ba4e5f97cb1205c5e64e3fa363b91a8c3881aa437ccf1ad5917756520a3"
_ARGMAX3 = "056dc2d6e144a1704ec5f672bee34c0702ba561affadbc416f61acc3461d783a"
_SIGN = "a701095522d448e000fbade6bdf33cbc6aa7471851bdec73c6d4ad1be21c88d2"
_POST_ALPHA = "61549918be000e66f619405a201d3422a266917573e0b74bc01ddbcb8f0ad40f"
DECISION_DIGESTS = {
    ("binary_alpha_1_6", "cross_entropy"): _ARGMAX2,
    ("binary_alpha_1_6", "scaled_cross_entropy"): _ARGMAX2,
    ("binary_alpha_1_6", "embedding"):
        "105411eb588ac0f747ce4b9fb1e7f431c63755da6bf85ddef6cb148bb5635b2e",
    ("binary_alpha_1_6", "embedding_softmax"): _ARGMAX2,
    ("binary_alpha_1_6", "weighted_hinge"): _SIGN,
    ("binary_alpha_1_6", "cross_entropy_post"): _POST_ALPHA,
    ("binary_alpha_1_4", "cross_entropy"): _ARGMAX2,
    ("binary_alpha_1_4", "scaled_cross_entropy"): _ARGMAX2,
    ("binary_alpha_1_4", "embedding"):
        "c7fa8dfc2adc590cff1c0d83de78f7f9aa7aa41b3132aacd2aeebfdde11f5f1a",
    ("binary_alpha_1_4", "embedding_softmax"): _ARGMAX2,
    ("binary_alpha_1_4", "weighted_hinge"): _SIGN,
    ("binary_alpha_1_4", "cross_entropy_post"): _POST_ALPHA,
    ("zero_one_binary", "cross_entropy"): _ARGMAX2,
    ("zero_one_binary", "scaled_cross_entropy"): _ARGMAX2,
    ("zero_one_binary", "embedding"): _ARGMAX2,
    ("zero_one_binary", "embedding_softmax"): _ARGMAX2,
    ("zero_one_binary", "weighted_hinge"): _SIGN,
    ("zero_one_binary", "cross_entropy_post"):
        "3738eaae420e8fc28c71ccf5cb8cb556de0c329b99d402326622627943164a84",
    ("zero_one_three_class", "cross_entropy"): _ARGMAX3,
    ("zero_one_three_class", "scaled_cross_entropy"): _ARGMAX3,
    ("zero_one_three_class", "embedding"): _ARGMAX3,
    ("zero_one_three_class", "embedding_softmax"): _ARGMAX3,
    ("zero_one_three_class", "cross_entropy_post"):
        "e12711dab8ca096913286fe11be34d20c26b341c6794c07726ff66c3e0d0dd74",
    ("german_credit", "cross_entropy"): _ARGMAX2,
    ("german_credit", "scaled_cross_entropy"): _ARGMAX2,
    ("german_credit", "embedding"):
        "400473cc8b23235dbb98af487469e2baca706e051b2ffb4e40691cfeeec674fa",
    ("german_credit", "embedding_softmax"): _ARGMAX2,
    ("german_credit", "weighted_hinge"): _SIGN,
    ("german_credit", "cross_entropy_post"): _POST_ALPHA,
    ("german_credit_deferral", "cross_entropy"): _ARGMAX2,
    ("german_credit_deferral", "scaled_cross_entropy"): _ARGMAX2,
    ("german_credit_deferral", "embedding"):
        "0a67c1c57289a0688e8bad330f5ba5600cd7d8a8aab0e7b1c0e43a44314dfe69",
    ("german_credit_deferral", "embedding_softmax"):
        "8afb2535a508c6db7629bc77bbc62101fdb6d90a658f7c9bf4a11f603ddbc146",
    ("severity_three_class", "cross_entropy"): _ARGMAX3,
    ("severity_three_class", "scaled_cross_entropy"): _ARGMAX3,
    ("severity_three_class", "embedding"):
        "2b3208d571b5a24e32547ae299d4bdc72a046ee8034b98ca769fbb8516c82bd0",
    ("severity_three_class", "embedding_softmax"):
        "dd68b2399529a80aed818078372a72a682be706df56f5d5f0d5cec43742028d0",
    ("severity_three_class", "cross_entropy_post"):
        "0c567534a09e04a70a606cd8accbfe591bd2cf29a6945ba228aed6c7de612922",
}


def test_decisions_pinned_for_every_loss_kind():
    got = {}
    for name, cost in stock_matrices().items():
        for kind in LOSS_KINDS:
            try:
                loss = BoundLoss(kind, cost)
            except ValueError:
                continue  # weighted_hinge takes only zero-diagonal 2x2 matrices
            scores, _ = _decision_inputs(loss.out_dim, cost.n_labels)
            got[name, kind] = _digest(loss.decide_batch(scores))
        if cost.is_square:
            scores, labels = _decision_inputs(cost.n_reports, cost.n_labels)
            weights = postprocess_search(scores, labels, cost)
            got[name, "cross_entropy_post"] = _digest(_decide(cost, scores, weights))
    assert got == DECISION_DIGESTS


# --- post-processing search -------------------------------------------------------


def _val_csl(scores, labels, cost, weights=None):
    preds = _decide(cost, scores, weights)
    return cost_sensitive_loss(confusion(preds, labels, cost.n_reports, cost.n_labels), cost)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("name", ["synthetic", "student"])
def test_postprocess_never_costs_more_than_argmax(name, seed):
    cost = {"synthetic": synthetic_cost_matrix(1 / 6), "student": STUDENT}[name]
    rng = np.random.default_rng(seed)
    n, k = 100 + 40 * seed, cost.n_reports
    labels = rng.integers(0, cost.n_labels, n)
    scores = rng.normal(size=(n, k)) + 1.5 * (labels[:, None] == np.arange(k))
    w = postprocess_search(scores, labels, cost, 100, rng_seed=seed)
    assert _val_csl(scores, labels, cost, w) <= _val_csl(scores, labels, cost)


@pytest.mark.parametrize("name", ["synthetic", "student", "zero_one3"])
def test_postprocess_equal_scores(name):
    # Equal scores make each candidate predict its largest weight's index for
    # every row. Under 0-1 costs with balanced labels every report costs the
    # same, so every candidate ties and the uniform candidate 0 must win.
    cost = {"synthetic": synthetic_cost_matrix(1 / 6), "student": STUDENT,
            "zero_one3": zero_one_matrix(3)}[name]
    labels = np.arange(90) % cost.n_labels
    scores = np.zeros((90, cost.n_reports))
    w = postprocess_search(scores, labels, cost, 100, rng_seed=4)
    assert _val_csl(scores, labels, cost, w) <= _val_csl(scores, labels, cost)
    if name == "zero_one3":
        assert np.all(w == 1.0 / 3)


def test_postprocess_never_beats_uniform_candidate(rng):
    cost = zero_one_matrix(2)
    scores = rng.normal(size=(120, 2))
    labels = rng.integers(0, 2, 120)
    w = postprocess_search(scores, labels, cost, 50, rng_seed=0)
    got = _val_csl(scores, labels, cost, w)
    base = _val_csl(scores, labels, cost)
    assert got <= base + 1e-12


def test_postprocess_favors_costly_class(rng):
    cost = synthetic_cost_matrix(1 / 6)
    # Scores carry signal; costs make false negatives 5x worse.
    labels = rng.integers(0, 2, 400)
    scores = np.column_stack([np.zeros(400), rng.normal(2.0 * labels - 1.0, 1.5)])
    w = postprocess_search(scores, labels, cost, 100, rng_seed=3)
    assert w.shape == (2,) and np.all(w > 0)
    assert w[1] > w[0]  # leans toward predicting +1
    assert _val_csl(scores, labels, cost, w) <= _val_csl(scores, labels, cost)


def _ref_postprocess_search(scores_val, labels_val, cost, n_candidates, rng_seed):
    """postprocess_search as a loop that scores one candidate at a time."""
    k = scores_val.shape[1]
    rng = np.random.default_rng(rng_seed)
    cands = np.vstack([np.full((1, k), 1.0 / k), rng.dirichlet(np.ones(k), n_candidates)])
    probs = softmax(scores_val)
    best_w, best_csl = None, np.inf
    for w in cands:
        preds = np.argmax(probs * w, axis=1)
        csl = cost_sensitive_loss(
            confusion(preds, labels_val, cost.n_reports, cost.n_labels), cost
        )
        if csl < best_csl - 1e-15:
            best_w, best_csl = w, csl
    return best_w


SQUARE_STOCK = sorted(name for name, cost in stock_matrices().items() if cost.is_square)


@pytest.mark.parametrize("name", SQUARE_STOCK)
@given(seed=st.integers(0, 10**6), n_candidates=st.sampled_from([1, 100]),
       equal=st.booleans())
@settings(max_examples=25, deadline=None)
def test_postprocess_matches_per_candidate_loop(name, seed, n_candidates, equal):
    cost = stock_matrices()[name]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    labels = rng.integers(0, cost.n_labels, n)
    scores = np.zeros((n, cost.n_reports))
    if not equal:
        scores = rng.normal(scale=rng.uniform(0.1, 3.0), size=scores.shape)
        scores += 1.5 * (labels[:, None] == np.arange(cost.n_reports))
    got = postprocess_search(scores, labels, cost, n_candidates, rng_seed=seed)
    want = _ref_postprocess_search(scores, labels, cost, n_candidates, seed)
    assert np.array_equal(got, want)


def test_postprocess_rejects_labels_out_of_range():
    scores = np.zeros((3, 2))
    for labels in ([0, 1, 2], [-1, 0, 1]):
        with pytest.raises(ValueError, match=re.escape("[0, 2)")):
            postprocess_search(scores, labels, ALPHA6, 10, 0)
    with pytest.raises(ValueError, match="one label per score row"):
        postprocess_search(scores, [0, 1], ALPHA6, 10, 0)


def test_postprocess_deterministic(rng):
    scores = rng.normal(size=(60, 3))
    labels = rng.integers(0, 3, 60)
    w1 = postprocess_search(scores, labels, STUDENT, 40, rng_seed=11)
    w2 = postprocess_search(scores, labels, STUDENT, 40, rng_seed=11)
    assert np.array_equal(w1, w2)


def test_postprocess_rejects_empty():
    with pytest.raises(ValueError):
        postprocess_search(np.zeros((0, 2)), np.zeros(0, dtype=int), ALPHA6, 10, 0)
