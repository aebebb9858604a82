import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costbench.costs import (
    binary_alpha_matrix,
    confusion,
    cost_sensitive_loss,
    severity_three_class_matrix,
    synthetic_cost_matrix,
    zero_one_matrix,
)
from costbench.embedding import (
    build_embedding_surrogate,
    surrogate_subgradients,
    surrogate_value,
    surrogate_values,
)
from costbench.losses import (
    BoundLoss,
    DecisionRule,
    LossSpec,
    NonFiniteScores,
    class_weights,
    cross_entropy,
    decide,
    decide_batch,
    embedding_raw_batch,
    embedding_softmax_batch,
    embedding_softmax_loss,
    postprocess_search,
    scaled_cross_entropy,
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


# --- cross-entropy ----------------------------------------------------------


def test_ce_uniform_scores():
    for k in (2, 3, 5):
        v, _ = cross_entropy(np.zeros(k), 0)
        assert v == pytest.approx(np.log(k), abs=1e-12)


def test_ce_huge_scores_stable():
    v, g = cross_entropy(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(v) and abs(v) < 1e-12
    assert np.all(np.isfinite(g))


def test_ce_rejects_non_finite():
    # A ValueError subclass, so the CLI still exits 2 on non-finite input.
    assert issubclass(NonFiniteScores, ValueError)
    with pytest.raises(NonFiniteScores):
        cross_entropy(np.array([np.inf, 0.0]), 0)


def test_ce_gradient_finite_difference(rng):
    for _ in range(100):
        s = rng.normal(size=4) * 3
        y = int(rng.integers(4))
        _, g = cross_entropy(s, y)
        fd = finite_diff(lambda u: cross_entropy(u, y)[0], s)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_ce_strictly_convex_midpoint(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)) * 2
    if np.ptp(a - b) < 1e-6:  # constant direction: CE is flat there
        return
    y = int(rng.integers(3))
    mid = cross_entropy((a + b) / 2, y)[0]
    avg = 0.5 * cross_entropy(a, y)[0] + 0.5 * cross_entropy(b, y)[0]
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
    plain, _ = cross_entropy(s, 1)
    scaled, _ = scaled_cross_entropy(cost, s, 1)
    assert scaled == pytest.approx(0.5 * plain)


def test_scaled_ce_severity_value():
    v, _ = scaled_cross_entropy(STUDENT, np.zeros(3), 2)
    assert v == pytest.approx((8 / 3) * np.log(3), abs=1e-12)


def test_scaled_ce_gradient_finite_difference(rng):
    for _ in range(100):
        s = rng.normal(size=3) * 2
        y = int(rng.integers(3))
        _, g = scaled_cross_entropy(STUDENT, s, y)
        fd = finite_diff(lambda u: scaled_cross_entropy(STUDENT, u, y)[0], s)
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
            v, _ = embedding_softmax_loss(s, logits, y)
            assert v == pytest.approx(STUDENT.entries[r, y], abs=1e-8)


def test_embedding_softmax_uniform_binary():
    srg = build_embedding_surrogate(ALPHA6)
    logits = np.zeros(2)
    u = srg.phi.mean(axis=0)
    for y in (0, 1):
        v, _ = embedding_softmax_loss(srg, logits, y)
        assert v == pytest.approx(surrogate_value(srg, u, y), abs=1e-12)


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
        _, g = embedding_softmax_loss(s, logits, y)
        fd = finite_diff(lambda t: embedding_softmax_loss(s, t, y)[0], logits)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)
        checked += 1


def test_embedding_softmax_wrong_width(student_surrogate):
    with pytest.raises(ValueError):
        embedding_softmax_loss(student_surrogate, np.zeros(4), 0)


@pytest.mark.parametrize("name", ["student", "alpha6", "deferral", "zero_one4"])
def test_fused_embedding_batches_match_separate_calls(name, rng):
    from costbench.costs import german_credit_deferral_matrix

    cost = {"student": STUDENT, "alpha6": ALPHA6,
            "deferral": german_credit_deferral_matrix(),
            "zero_one4": zero_one_matrix(4)}[name]
    s = build_embedding_surrogate(cost)
    # Random points, the embedded points (where several vertices tie) and
    # the midpoints between them.
    phi = s.phi
    mids = (phi[:, None, :] + phi[None, :, :]).reshape(-1, phi.shape[1]) / 2.0
    U = np.vstack([rng.normal(scale=2.0, size=(200, phi.shape[1])), phi, mids])
    ys = rng.integers(0, s.n_labels, len(U))
    vals, grads = embedding_raw_batch(s, U, ys)
    assert np.array_equal(vals, surrogate_values(s, U, ys))
    assert np.array_equal(grads, surrogate_subgradients(s, U, ys))

    rep_phi = s.phi[list(s.representative_set)]
    logits = np.vstack([rng.normal(scale=3.0, size=(200, len(rep_phi))),
                        np.zeros((1, len(rep_phi)))])
    ys = rng.integers(0, s.n_labels, len(logits))
    q = softmax(logits)
    U = q @ rep_phi
    proj = surrogate_subgradients(s, U, ys) @ rep_phi.T
    want_grads = q * (proj - (q * proj).sum(axis=1, keepdims=True))
    vals, grads = embedding_softmax_batch(s, logits, ys)
    assert np.array_equal(vals, surrogate_values(s, U, ys))
    assert np.array_equal(grads, want_grads)


# --- loss specs ----------------------------------------------------------------


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("nope", ALPHA6)
    for kind in ("cross_entropy", "scaled_cross_entropy"):
        with pytest.raises(ValueError, match="requires a cost matrix"):
            LossSpec(kind)
    with pytest.raises(ValueError):
        LossSpec("weighted_hinge", STUDENT)  # needs a 2x2 alpha matrix
    LossSpec("weighted_hinge", ALPHA6)


def test_bound_loss_out_dims():
    assert BoundLoss(LossSpec("cross_entropy", STUDENT)).out_dim == 3
    assert BoundLoss(LossSpec("embedding", STUDENT)).out_dim == 3
    assert BoundLoss(LossSpec("embedding_softmax", STUDENT)).out_dim == 3
    assert BoundLoss(LossSpec("weighted_hinge", ALPHA6)).out_dim == 1
    # Deferral: 3 reports over 2 labels.
    from costbench.costs import german_credit_deferral_matrix

    defer = german_credit_deferral_matrix()
    assert BoundLoss(LossSpec("embedding", defer)).out_dim == 2
    assert BoundLoss(LossSpec("embedding_softmax", defer)).out_dim == 3
    assert BoundLoss(LossSpec("cross_entropy", defer)).out_dim == 2


def test_bound_loss_kink_margins():
    u = np.array([[1.0], [-1.0], [0.0], [3.0]])
    hinge = BoundLoss(LossSpec("weighted_hinge", ALPHA6))
    assert np.array_equal(hinge.kink_margin(u), [0.0, 0.0, 1.0, 2.0])
    for kind in ("cross_entropy", "scaled_cross_entropy"):
        margins = BoundLoss(LossSpec(kind, STUDENT)).kink_margin(np.zeros((2, 3)))
        assert np.all(np.isinf(margins))
    # Embedded points are kinks of G; the softmax variant measures the gap
    # at the point its scores link to.
    raw = BoundLoss(LossSpec("embedding", STUDENT))
    assert np.all(raw.kink_margin(raw.surrogate.phi) < 1e-12)
    soft = BoundLoss(LossSpec("embedding_softmax", STUDENT))
    logits = np.random.default_rng(1).normal(size=(20, soft.out_dim))
    assert np.array_equal(soft.kink_margin(logits),
                          raw.kink_margin(soft.link_input(logits)))
    assert np.all(soft.kink_margin(logits) > 0)


def test_bound_loss_batches_match_singles(rng):
    for kind in ("cross_entropy", "scaled_cross_entropy", "embedding",
                 "embedding_softmax"):
        loss = BoundLoss(LossSpec(kind, STUDENT))
        S = rng.normal(size=(7, loss.out_dim)) * 2
        ys = rng.integers(0, 3, size=7)
        vals, grads = loss.batch(S, ys)
        assert vals.shape == (7,) and grads.shape == S.shape
        assert np.all(vals >= -1e-10)


# --- decision rules -------------------------------------------------------------


def test_decide_argmax_and_ties():
    rule = DecisionRule("argmax")
    assert decide(rule, [0.1, 0.9, 0.3]) == 1
    assert decide(rule, [0.5, 0.5, 0.1]) == 0  # tie -> lowest index


def test_weighted_argmax_uniform_equals_argmax(rng):
    uni = DecisionRule("weighted_argmax", np.full(3, 1 / 3))
    plain = DecisionRule("argmax")
    S = rng.normal(size=(200, 3))
    assert np.array_equal(decide_batch(uni, S), decide_batch(plain, S))


def test_weighted_argmax_is_threshold_in_binary():
    # weights (w0, w1) decide 1 iff score gap exceeds log(w0 / w1).
    w = np.array([0.7, 0.3])
    rule = DecisionRule("weighted_argmax", w)
    tau = np.log(w[0] / w[1])
    gaps = np.linspace(-3, 3, 601)
    S = np.column_stack([np.zeros_like(gaps), gaps])
    got = decide_batch(rule, S)
    want = (gaps > tau).astype(int)
    assert np.array_equal(got, want)


def test_weighted_argmax_requires_positive_weights():
    with pytest.raises(ValueError):
        DecisionRule("weighted_argmax", np.array([0.5, 0.0]))


def test_embedding_link_rule_requires_surrogate():
    with pytest.raises(ValueError):
        decide(DecisionRule("embedding_link"), [0.0, 0.0])


# --- post-processing search -------------------------------------------------------


def _val_csl(scores, labels, cost, rule):
    preds = decide_batch(rule, scores)
    return cost_sensitive_loss(confusion(preds, labels, cost.n_reports, cost.n_labels), cost)


def test_postprocess_never_beats_uniform_candidate(rng):
    cost = zero_one_matrix(2)
    scores = rng.normal(size=(120, 2))
    labels = rng.integers(0, 2, 120)
    rule = postprocess_search(scores, labels, cost, 50, rng_seed=0)
    got = _val_csl(scores, labels, cost, rule)
    base = _val_csl(scores, labels, cost, DecisionRule("argmax"))
    assert got <= base + 1e-12


def test_postprocess_favors_costly_class(rng):
    cost = synthetic_cost_matrix(1 / 6)
    # Scores carry signal; costs make false negatives 5x worse.
    labels = rng.integers(0, 2, 400)
    scores = np.column_stack([np.zeros(400), rng.normal(2.0 * labels - 1.0, 1.5)])
    rule = postprocess_search(scores, labels, cost, 100, rng_seed=3)
    assert rule.kind == "weighted_argmax"
    assert rule.weights[1] > rule.weights[0]  # leans toward predicting +1
    assert _val_csl(scores, labels, cost, rule) <= _val_csl(
        scores, labels, cost, DecisionRule("argmax")
    )


def test_postprocess_deterministic(rng):
    scores = rng.normal(size=(60, 3))
    labels = rng.integers(0, 3, 60)
    r1 = postprocess_search(scores, labels, STUDENT, 40, rng_seed=11)
    r2 = postprocess_search(scores, labels, STUDENT, 40, rng_seed=11)
    assert np.array_equal(r1.weights, r2.weights)


def test_postprocess_rejects_empty():
    with pytest.raises(ValueError):
        postprocess_search(np.zeros((0, 2)), np.zeros(0, dtype=int), ALPHA6, 10, 0)
