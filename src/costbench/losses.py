"""Trainable losses (value + gradient in the model scores) and decision rules.

Five loss kinds sit behind one interface: plain and cost-weighted
cross-entropy, the polyhedral embedding surrogate on raw score vectors, its
softmax-parameterized variant that predicts a convex combination of embedded
points, and the scalar weighted hinge for binary tasks. Gradients are exact
(subgradients at polyhedral kinks) and every kind has a finite-difference
check in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .costs import CostMatrix, confusion, cost_sensitive_loss
from .embedding import (
    EmbeddingSurrogate,
    build_embedding_surrogate,
    game_values,
    link_many,
)

LOSS_KINDS = (
    "cross_entropy",
    "scaled_cross_entropy",
    "embedding",
    "embedding_softmax",
    "weighted_hinge",
)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    scores = np.asarray(scores, dtype=float)
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    z = scores - scores.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class NonFiniteScores(ValueError):
    """A loss was handed non-finite scores: the inputs or the model blew up."""


def _check_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScores("scores must be finite")
    return scores


def cross_entropy_batch(scores: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample negative log softmax likelihood and its score gradient."""
    scores = _check_scores(scores)
    ys = np.asarray(ys, dtype=int)
    ls = log_softmax(scores)
    n = len(scores)
    vals = -ls[np.arange(n), ys]
    grads = np.exp(ls)
    grads[np.arange(n), ys] -= 1.0
    return vals, grads


def cross_entropy(scores, y: int) -> tuple[float, np.ndarray]:
    vals, grads = cross_entropy_batch(np.asarray(scores, dtype=float)[None, :], [y])
    return float(vals[0]), grads[0]


def class_weights(cost: CostMatrix) -> np.ndarray:
    """Mean misclassification cost per label: the column means of the matrix."""
    return cost.entries.mean(axis=0)


def scaled_cross_entropy_batch(
    weights: np.ndarray, scores: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each sample scaled by its label's class weight."""
    vals, grads = cross_entropy_batch(scores, ys)
    w = weights[np.asarray(ys, dtype=int)]
    return w * vals, w[:, None] * grads


def scaled_cross_entropy(cost: CostMatrix, scores, y: int) -> tuple[float, np.ndarray]:
    vals, grads = scaled_cross_entropy_batch(
        class_weights(cost), np.asarray(scores, dtype=float)[None, :], [y]
    )
    return float(vals[0]), grads[0]


def _surrogate_values_and_subgradients(
    s: EmbeddingSurrogate, U: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """surrogate_values and surrogate_subgradients from one vertex argmax.

    L(u, y) = G(u) - u_y, and its subgradient is the maximizing vertex minus
    the indicator of y.
    """
    G, idx = game_values(s, U)
    rows = np.arange(len(U))
    grads = s.verts_p[idx]
    grads[rows, ys] -= 1.0
    return G - U[rows, ys], grads


def embedding_raw_batch(
    s: EmbeddingSurrogate, U: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate loss on directly-predicted points, with exact subgradients."""
    U = _check_scores(U)
    ys = np.asarray(ys, dtype=int)
    return _surrogate_values_and_subgradients(s, U, ys)


def embedding_softmax_batch(
    s: EmbeddingSurrogate, logits: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Surrogate loss at softmax-weighted combinations of embedded points.

    q = softmax(logits) over representative reports, u = sum_r q_r phi(r).
    The gradient chains the surrogate subgradient through the softmax
    Jacobian: grad = q * (Phi g) - q <q, Phi g>.
    """
    logits = _check_scores(logits)
    ys = np.asarray(ys, dtype=int)
    rep_phi = s.rep_phi
    if logits.shape[1] != len(rep_phi):
        raise ValueError(
            f"logits must have one entry per representative report "
            f"({len(rep_phi)}), got {logits.shape[1]}"
        )
    q = softmax(logits)
    U = q @ rep_phi
    vals, g_u = _surrogate_values_and_subgradients(s, U, ys)
    proj = g_u @ rep_phi.T                      # (n, n_rep)
    grads = q * (proj - (q * proj).sum(axis=1, keepdims=True))
    return vals, grads


def embedding_softmax_loss(
    s: EmbeddingSurrogate, logits, y: int
) -> tuple[float, np.ndarray]:
    vals, grads = embedding_softmax_batch(
        s, np.asarray(logits, dtype=float)[None, :], [y]
    )
    return float(vals[0]), grads[0]


def weighted_hinge_batch(a: float, scale: float, U: np.ndarray, ys: np.ndarray):
    """Scalar hinge on a (n, 1) score column, a = c_fp / (c_fp + c_fn).

    L(u, 1) = scale (1-a)/2 max(0, 1-u) and L(u, 0) = scale a/2 max(0, 1+u)
    reproduce the costs at the embedded points u = -1 and u = +1, with
    scale = c_fp + c_fn; the linked decision is sign(u), ties to label 0.
    """
    U = _check_scores(U)
    u = U[:, 0]
    ys = np.asarray(ys, dtype=int)
    pos = ys == 1
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


# ---------------------------------------------------------------------------
# Loss specifications: serializable descriptions bound to evaluation closures.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LossSpec:
    """A loss kind plus the cost matrix it is tied to."""

    kind: str
    cost: CostMatrix | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; one of {LOSS_KINDS}")
        if self.cost is None:
            raise ValueError(f"{self.kind} requires a cost matrix")
        if self.kind == "weighted_hinge":
            c = self.cost.entries
            if c.shape != (2, 2) or c[0, 0] != 0 or c[1, 1] != 0:
                raise ValueError("weighted_hinge needs a zero-diagonal 2x2 matrix")
            if c[1, 0] <= 0 or c[0, 1] <= 0:
                raise ValueError("weighted_hinge needs positive off-diagonal costs")


class BoundLoss:
    """A LossSpec materialized for training: batched values/grads and linking.

    The constructor is the one place that dispatches on the loss kind. It
    resolves, once per loss, the batch function, the model output width, the
    default decision rule, the map from scores to the rule's input space and
    the kink margin used by gradient checks.
    """

    def __init__(self, spec: LossSpec):
        self.kind = spec.kind
        cost = spec.cost
        self.surrogate: EmbeddingSurrogate | None = None
        self.out_dim = cost.n_labels
        self._link = None  # scores -> rule input; None is the identity
        self._kink_margin = _smooth_kink_margin
        self._rule = DecisionRule("argmax")
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
            self._rule = DecisionRule("sign")
        else:  # embedding, embedding_softmax
            s = self.surrogate = build_embedding_surrogate(cost)
            self._rule = DecisionRule("embedding_link")
            self._kink_margin = partial(_vertex_gap, s)
            if self.kind == "embedding":
                self._batch = partial(embedding_raw_batch, s)
                self.out_dim = s.n_labels
            else:
                self._batch = partial(embedding_softmax_batch, s)
                self._link = partial(_softmax_link, s)
                self.out_dim = len(s.rep_phi)

    def batch(self, scores: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample loss values and gradients with respect to scores."""
        return self._batch(scores, ys)

    def link_input(self, scores: np.ndarray) -> np.ndarray:
        """Map raw model scores to the space the decision rule consumes."""
        return scores if self._link is None else self._link(scores)

    def kink_margin(self, scores: np.ndarray) -> np.ndarray:
        """Per-sample distance proxy to the nearest non-smooth point of the loss."""
        return self._kink_margin(self.link_input(np.asarray(scores, dtype=float)))

    def default_rule(self) -> "DecisionRule":
        return self._rule

    def decide_batch(self, scores: np.ndarray, rule: "DecisionRule") -> np.ndarray:
        return decide_batch(rule, self.link_input(scores), self.surrogate)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """How surrogate predictions are discretized into reports."""

    kind: str  # argmax | weighted_argmax | embedding_link | sign
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("argmax", "weighted_argmax", "embedding_link", "sign"):
            raise ValueError(f"unknown decision rule {self.kind!r}")
        if self.kind == "weighted_argmax":
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or np.any(w <= 0):
                raise ValueError("weighted_argmax needs strictly positive weights")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError(f"{self.kind} takes no weights")


def decide_batch(
    rule: DecisionRule, vecs: np.ndarray, s: EmbeddingSurrogate | None = None
) -> np.ndarray:
    """Vectorized decisions; ties always resolve to the lowest report index."""
    vecs = np.asarray(vecs, dtype=float)
    if rule.kind == "argmax":
        return np.argmax(vecs, axis=1)
    if rule.kind == "weighted_argmax":
        if vecs.shape[1] != len(rule.weights):
            raise ValueError("weight length must match score width")
        return np.argmax(softmax(vecs) * rule.weights, axis=1)
    if rule.kind == "sign":
        return (vecs[:, 0] > 0).astype(int)
    if s is None:
        raise ValueError("embedding_link rule needs the surrogate")
    return link_many(s, vecs)


def decide(rule: DecisionRule, vec, s: EmbeddingSurrogate | None = None) -> int:
    """Discretize one prediction vector into a report index."""
    vec = np.asarray(vec, dtype=float)
    return int(decide_batch(rule, vec[None, :], s)[0])


def postprocess_search(
    scores_val: np.ndarray,
    labels_val: np.ndarray,
    cost: CostMatrix,
    n_candidates: int = 100,
    rng_seed: int = 0,
) -> DecisionRule:
    """Pick the weighted-argmax weights minimizing validation cost.

    Candidate 0 is the uniform vector (plain argmax); the rest are drawn
    uniformly from the simplex interior. Deterministic given the seed, and the
    returned rule's validation cost never exceeds plain argmax's.
    """
    scores_val = np.asarray(scores_val, dtype=float)
    labels_val = np.asarray(labels_val, dtype=int)
    if len(scores_val) == 0:
        raise ValueError("validation set is empty")
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    k = scores_val.shape[1]
    if k != cost.n_reports:
        raise ValueError("weighted argmax needs one score per report")
    rng = np.random.default_rng(rng_seed)
    cands = np.vstack([np.full((1, k), 1.0 / k), rng.dirichlet(np.ones(k), n_candidates)])
    probs = softmax(scores_val)
    best_rule, best_csl = None, np.inf
    for w in cands:
        preds = np.argmax(probs * w, axis=1)
        csl = cost_sensitive_loss(
            confusion(preds, labels_val, cost.n_reports, cost.n_labels), cost
        )
        if csl < best_csl - 1e-15:
            best_csl = csl
            best_rule = DecisionRule("weighted_argmax", w)
    return best_rule
