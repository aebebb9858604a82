"""Trainable losses: value + gradient in the model scores, and each one's decision.

Five loss kinds sit behind one interface: plain and cost-weighted
cross-entropy, the polyhedral embedding surrogate on raw score vectors, its
softmax-parameterized variant that predicts a convex combination of embedded
points, and the scalar weighted hinge for binary tasks. Gradients are exact
(subgradients at polyhedral kinks) and every kind has a finite-difference
check in the test suite.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .costs import CostMatrix, Targets, check_range, label_targets, reduce_last
from .embedding import (
    EmbeddingSurrogate,
    build_embedding_surrogate,
    link_many,
    surrogate_values_and_subgradients,
)

LOSS_KINDS = (
    "cross_entropy",
    "scaled_cross_entropy",
    "embedding",
    "embedding_softmax",
    "weighted_hinge",
)
# cross_entropy_post: cross-entropy decided by postprocess_search's weighted argmax.
LOSS_LABELS = LOSS_KINDS + ("cross_entropy_post",)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    scores = np.asarray(scores, dtype=float)
    e = np.exp(scores - reduce_last(np.maximum, scores)[..., None])
    return e / reduce_last(np.add, e)[..., None]


def log_softmax(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    z = scores - reduce_last(np.maximum, scores)[..., None]
    return z - np.log(reduce_last(np.add, np.exp(z))[..., None])


class NonFiniteScores(ValueError):
    """A loss was handed non-finite scores: the inputs or the model blew up."""


def _check_scores(scores, targets: Targets) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if len(scores) != len(targets.labels):
        raise ValueError(f"{len(scores)} score rows for {len(targets.labels)} labels")
    if not np.isfinite(scores).all():
        raise NonFiniteScores("scores must be finite")
    return scores


def cross_entropy_batch(scores: np.ndarray, targets: Targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample negative log softmax likelihood and its score gradient."""
    ls = log_softmax(_check_scores(scores, targets))
    grads = np.exp(ls)
    grads -= targets.onehot  # subtracting 0.0 leaves every other entry's bits
    return -ls.take(targets.flat), grads


def class_weights(cost: CostMatrix) -> np.ndarray:
    """Mean misclassification cost per label: the column means of the matrix."""
    return cost.entries.mean(axis=0)


def scaled_cross_entropy_batch(
    weights: np.ndarray, scores: np.ndarray, targets: Targets
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each sample scaled by its label's class weight."""
    vals, grads = cross_entropy_batch(scores, targets)
    w = weights.take(targets.labels)
    grads *= w[:, None]
    return w * vals, grads


def embedding_raw_batch(
    s: EmbeddingSurrogate, U: np.ndarray, targets: Targets
) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate loss on directly-predicted points, with exact subgradients."""
    return surrogate_values_and_subgradients(s, _check_scores(U, targets), targets)


def embedding_softmax_batch(
    s: EmbeddingSurrogate, logits: np.ndarray, targets: Targets
) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate loss at softmax-weighted combinations of embedded points.

    q = softmax(logits) over representative reports, u = sum_r q_r phi(r).
    The gradient chains the surrogate subgradient through the softmax
    Jacobian: grad = q * (Phi g) - q <q, Phi g>.
    """
    logits = _check_scores(logits, targets)
    rep_phi = s.rep_phi
    if logits.shape[1] != len(rep_phi):
        raise ValueError(
            f"logits must have one entry per representative report "
            f"({len(rep_phi)}), got {logits.shape[1]}"
        )
    q = softmax(logits)
    U = q @ rep_phi
    vals, g_u = surrogate_values_and_subgradients(s, U, targets)
    proj = g_u @ rep_phi.T                      # (n, n_rep)
    grads = q * (proj - reduce_last(np.add, q * proj)[..., None])
    return vals, grads


def weighted_hinge_batch(a: float, scale: float, U: np.ndarray, targets: Targets):
    """Scalar hinge on a (n, 1) score column, a = c_fp / (c_fp + c_fn).

    L(u, 1) = scale (1-a)/2 max(0, 1-u) and L(u, 0) = scale a/2 max(0, 1+u)
    reproduce the costs at the embedded points u = -1 and u = +1, with
    scale = c_fp + c_fn; the linked decision is sign(u), ties to label 0.
    """
    u = _check_scores(U, targets)[:, 0]
    pos = targets.labels == 1
    vals = scale * np.where(
        pos,
        (1.0 - a) / 2.0 * np.maximum(0.0, 1.0 - u),
        a / 2.0 * np.maximum(0.0, 1.0 + u),
    )
    grads = scale * np.where(pos, np.where(u < 1.0, -(1.0 - a) / 2.0, 0.0),
                             np.where(u > -1.0, a / 2.0, 0.0))
    return vals, grads[:, None]


def _softmax_link(s: EmbeddingSurrogate, logits: np.ndarray) -> np.ndarray:
    """The convex combination of embedded points that softmax(logits) weights."""
    return softmax(logits) @ s.rep_phi


def _sign_decision(scores: np.ndarray) -> np.ndarray:
    return (scores[:, 0] > 0).astype(int)


def _smooth_kink_margin(scores: np.ndarray) -> np.ndarray:
    return np.full(len(scores), np.inf)


def _hinge_kink_margin(scores: np.ndarray) -> np.ndarray:
    u = scores[:, 0]
    return np.minimum(np.abs(1.0 - u), np.abs(1.0 + u))


def _vertex_gap(s: EmbeddingSurrogate, U: np.ndarray) -> np.ndarray:
    """Gap between the two best game vertices: zero where G has a kink."""
    vertex_scores = U @ s.verts_p.T + s.verts_t
    if vertex_scores.shape[1] < 2:
        return np.full(len(U), np.inf)
    part = np.partition(vertex_scores, -2, axis=1)
    return part[:, -1] - part[:, -2]


def check_loss(label: str, cost: CostMatrix) -> str:
    """The loss kind a loss label trains; ValueError unless it can train on this matrix."""
    if label not in LOSS_LABELS:
        raise ValueError(f"unknown loss {label!r}; one of {LOSS_LABELS}")
    if label == "cross_entropy_post":
        if not cost.is_square:
            raise ValueError("cross_entropy_post is undefined when reports != labels "
                             "(weighted argmax has no deferral score)")
        return "cross_entropy"
    if label == "weighted_hinge":
        c = cost.entries
        if c.shape != (2, 2) or c[0, 0] != 0 or c[1, 1] != 0:
            raise ValueError("weighted_hinge needs a zero-diagonal 2x2 matrix")
        if c[1, 0] <= 0 or c[0, 1] <= 0:
            raise ValueError("weighted_hinge needs positive off-diagonal costs")
    return label


class BoundLoss:
    """A loss label bound to its cost matrix: batched values/grads and decisions.

    kind is the loss kind the label trains (check_loss). The constructor is the
    one place that dispatches on the loss kind. It resolves, once per loss, the
    batch function, the model output width, the decision (argmax, sign or the
    embedding link), the map from scores to the decision's input space and the
    kink margin used by gradient checks.
    """

    def __init__(self, label: str, cost: CostMatrix):
        self.kind = check_loss(label, cost)
        self.n_labels = cost.n_labels
        self.surrogate: EmbeddingSurrogate | None = None
        self.out_dim = cost.n_labels
        self._link = None  # scores -> decision input; None is the identity
        self._kink_margin = _smooth_kink_margin
        self._decide = partial(np.argmax, axis=1)
        if self.kind == "cross_entropy":
            self._batch = cross_entropy_batch
        elif self.kind == "scaled_cross_entropy":
            self._batch = partial(scaled_cross_entropy_batch, class_weights(cost))
        elif self.kind == "weighted_hinge":
            c_fp = float(cost.entries[1, 0])
            c_fn = float(cost.entries[0, 1])
            self._batch = partial(weighted_hinge_batch, c_fp / (c_fp + c_fn), c_fp + c_fn)
            self.out_dim = 1
            self._kink_margin = _hinge_kink_margin
            self._decide = _sign_decision
        else:  # embedding, embedding_softmax
            s = self.surrogate = build_embedding_surrogate(cost)
            self._decide = partial(link_many, s)
            self._kink_margin = partial(_vertex_gap, s)
            if self.kind == "embedding":
                self._batch = partial(embedding_raw_batch, s)
                self.out_dim = s.n_labels
            else:
                self._batch = partial(embedding_softmax_batch, s)
                self._link = partial(_softmax_link, s)
                self.out_dim = len(s.rep_phi)

    def targets(self, ys) -> Targets:
        """The labels, validated and encoded once for every batch call on them."""
        return label_targets(ys, self.n_labels)

    def batch(self, scores: np.ndarray, targets: Targets) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample loss values and score gradients; targets(ys) labels the rows."""
        return self._batch(scores, targets)

    def link_input(self, scores: np.ndarray) -> np.ndarray:
        """Map raw model scores to the space the decision consumes."""
        return scores if self._link is None else self._link(scores)

    def kink_margin(self, scores: np.ndarray) -> np.ndarray:
        """Per-sample distance proxy to the nearest non-smooth point of the loss."""
        return self._kink_margin(self.link_input(np.asarray(scores, dtype=float)))

    def decide_batch(self, scores: np.ndarray, weights: np.ndarray | None = None):
        """Reports for a batch of scores; ties resolve to the lowest report index.

        weights, from postprocess_search, replace the loss's own decision with
        the weighted argmax of softmax(scores): cross_entropy_post's decision.
        """
        scores = np.asarray(scores, dtype=float)
        if weights is not None:
            return np.argmax(softmax(scores) * weights, axis=1)
        return self._decide(self.link_input(scores))


def postprocess_search(
    scores_val: np.ndarray,
    labels_val: np.ndarray,
    cost: CostMatrix,
    n_candidates: int = 100,
    rng_seed: int = 0,
) -> np.ndarray:
    """Pick the weighted-argmax weights minimizing validation cost.

    Candidate 0 is the uniform vector (plain argmax); the rest are drawn
    uniformly from the simplex interior. Deterministic given the seed, and the
    returned weights' validation cost never exceeds plain argmax's.
    """
    scores_val = np.asarray(scores_val, dtype=float)
    labels_val = check_range(labels_val, cost.n_labels, "labels")
    if len(scores_val) == 0 or labels_val.shape != (len(scores_val),):
        raise ValueError("need a nonempty validation set with one label per score row")
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    k = scores_val.shape[1]
    if k != cost.n_reports:
        raise ValueError("weighted argmax needs one score per report")
    rng = np.random.default_rng(rng_seed)
    cands = np.vstack([np.full((1, k), 1.0 / k), rng.dirichlet(np.ones(k), n_candidates)])
    preds = np.argmax(softmax(scores_val)[None] * cands[:, None], axis=2)  # (cands, n)
    # Row c holds candidate c's confusion counts, laid out as cost.entries.ravel().
    shape = (len(cands), *cost.entries.shape)
    cells = np.ravel_multi_index((np.arange(len(cands))[:, None], preds, labels_val), shape)
    counts = np.bincount(cells.ravel(), minlength=np.prod(shape)).reshape(len(cands), -1)
    # Each row sums as cost_sensitive_loss sums its flattened product.
    csls = (counts * cost.entries.ravel()).sum(axis=1) / len(labels_val)
    best, best_csl = 0, np.inf
    for i, csl in enumerate(csls.tolist()):
        if csl < best_csl - 1e-15:
            best, best_csl = i, csl
    return cands[best]
