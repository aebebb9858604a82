"""Linear and small ReLU-MLP models with deterministic gradient-descent training.

Plain full-batch (sub)gradient descent, no momentum or weight decay; the
returned parameters are the snapshot from the epoch with the lowest recorded
validation loss. Everything is seeded and bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix, Targets, confusion, cost_sensitive_loss
from .costs import accuracy as cm_accuracy
from .embedding import _BLOCK
from .losses import BoundLoss, NonFiniteScores

# Weight init: uniform(-INIT_SCALE/sqrt(fan_in), +INIT_SCALE/sqrt(fan_in)).
INIT_SCALE = 1.0


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelSpec:
    """A ReLU MLP by its layer widths; no hidden layers is a linear model."""

    in_dim: int
    out_dim: int
    hidden_dims: tuple[int, ...] = ()
    init_seed: int = 0

    def __post_init__(self):
        if min(self.layer_dims) < 1:
            raise ValueError(f"layer widths must be positive, got {self.layer_dims}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.in_dim, *self.hidden_dims, self.out_dim)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    n_epochs: int = 2000

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative, "
                             f"got {self.learning_rate!r}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs!r}")


Params = list[tuple[np.ndarray, np.ndarray]]


def init_model(spec: ModelSpec) -> Params:
    rng = np.random.default_rng(spec.init_seed)
    dims = spec.layer_dims
    params: Params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = INIT_SCALE / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append((w, np.zeros(fan_out)))
    return params


def _forward_cache(params: Params, x: np.ndarray, out: np.ndarray | None = None,
                   hidden: list[np.ndarray] | None = None):
    """Scores of x and the input of every layer; the scores are written to out
    and hidden layer i to hidden[i] if given."""
    acts = [x]
    for i, (w, b) in enumerate(params[:-1]):
        z = np.matmul(acts[-1], w, out=None if hidden is None else hidden[i])
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    w, b = params[-1]
    scores = np.matmul(acts[-1], w, out=out)
    scores += b
    acts.append(scores)
    return scores, acts


def forward(params: Params, x) -> np.ndarray:
    """Raw (n, k) scores of (n, d) inputs; any squashing lives in the loss."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"inputs must be (n, d), got shape {x.shape}")
    if x.shape[1] != params[0][0].shape[0]:
        raise ValueError(
            f"input width {x.shape[1]} != model input dim {params[0][0].shape[0]}"
        )
    scores, _ = _forward_cache(params, x)
    return scores


def _backward(params: Params, acts, grad_scores: np.ndarray,
              deltas: list[np.ndarray] | None = None) -> Params:
    """Parameter gradients; the delta into hidden layer i is written to deltas[i] if given."""
    grads: Params = [None] * len(params)
    delta = grad_scores
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = np.matmul(delta, w.T, out=None if deltas is None else deltas[i - 1])
            delta *= acts[i] > 0
    return grads


def mean_loss_and_param_grads(
    params: Params, loss: BoundLoss, x: np.ndarray, targets: Targets
):
    scores, acts = _forward_cache(params, x)
    vals, grad_scores = loss.batch(scores, targets)
    n = len(x)
    return float(vals.mean()), _backward(params, acts, grad_scores / n)


@dataclass(eq=False)
class TrainedModel:
    loss: BoundLoss
    params: Params
    history: np.ndarray  # (n_epochs + 1, 2): train and val loss at each epoch
    best_epoch: int


def train(
    spec: ModelSpec,
    loss: BoundLoss,
    train_xy: tuple[np.ndarray, np.ndarray],
    val_xy: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    selection_metric=None,
) -> TrainedModel:
    """Full-batch gradient descent on the mean loss with best-epoch selection.

    history[e] holds (train loss, val loss) at the parameters after e updates;
    row 0 is the initial model. best_epoch is the first epoch attaining the
    minimal validation loss, and the returned parameters are its snapshot:
    each step builds new parameter arrays and writes into no parameter in place.
    selection_metric, when given, replaces the validation loss as the
    per-epoch selection criterion: a callable from the epoch's validation
    scores to a float, lower is better.

    Each epoch makes one loss pass: one forward pass per split into its row
    block of a fresh array, then one `loss.batch` call on the stacked scores.
    Per-sample losses are independent by row, so both history columns are the
    split means a separate call per split would give. Step e + 1 backpropagates
    the train rows of that pass. A split of one row keeps its own `loss.batch`
    call: numpy runs a one-row matmul as a matrix-vector product, which rounds
    unlike a row of a matrix product, and the embedding losses use matmuls.

    Non-finite scores or losses at the parameters after step e >= 1, on either
    split, raise TrainingDiverged(e); non-finite scores of the initial model
    raise NonFiniteScores. Any other error from a step propagates unchanged.
    """
    x_tr, y_tr = np.asarray(train_xy[0], float), np.asarray(train_xy[1], int)
    x_va, y_va = np.asarray(val_xy[0], float), np.asarray(val_xy[1], int)
    n_tr, n_va = len(x_tr), len(x_va)
    if n_tr == 0 or n_va == 0:
        raise ValueError("train and validation splits must be nonempty")
    if spec.out_dim != loss.out_dim:
        raise ValueError(
            f"model out_dim {spec.out_dim} != loss out_dim {loss.out_dim}"
        )
    params = init_model(spec)
    lr = cfg.learning_rate
    stack = min(n_tr, n_va) > 1
    if stack:
        t_all = loss.targets(np.concatenate([y_tr, y_va]))
    else:
        t_tr, t_va = loss.targets(y_tr), loss.targets(y_va)
    # Hidden activations per split and backward deltas, reused every epoch;
    # fresh ones would take page faults each epoch once glibc trims them.
    h_tr, h_va, d_tr = ([np.empty((n, m)) for m in spec.hidden_dims]
                        for n in (n_tr, n_va, n_tr))
    history = np.empty((cfg.n_epochs + 1, 2))
    best_epoch, best_sel = 0, np.inf

    for epoch in range(cfg.n_epochs + 1):
        # Two matmuls per layer: one over the stacked inputs may round
        # differently, since BLAS can block the rows another way. The array
        # is fresh each epoch, so selection_metric may keep s_va.
        scores = np.empty((n_tr + n_va, spec.out_dim))
        _, acts = _forward_cache(params, x_tr, scores[:n_tr], h_tr)
        s_va = _forward_cache(params, x_va, scores[n_tr:], h_va)[0]
        try:
            if stack:
                vals, g = loss.batch(scores, t_all)
            else:
                (vals, g), (v_va, _) = loss.batch(scores[:n_tr], t_tr), loss.batch(s_va, t_va)
                vals = np.concatenate([vals, v_va])
        except NonFiniteScores as exc:
            if epoch == 0:
                raise  # the inputs, not the optimization, are non-finite
            raise TrainingDiverged(epoch) from exc
        # np.add.reduce(v) / n is what v.mean() computes, without its wrapper.
        tl = float(np.add.reduce(vals[:n_tr]) / n_tr)
        vl = float(np.add.reduce(vals[n_tr:]) / n_va)
        if epoch > 0 and not (math.isfinite(tl) and math.isfinite(vl)):
            raise TrainingDiverged(epoch)
        history[epoch] = (tl, vl)
        sel = vl if selection_metric is None else float(selection_metric(s_va))
        if epoch == 0 or sel < best_sel:
            best_epoch, best_sel, best_params = epoch, sel, params
        if epoch < cfg.n_epochs:
            grads = _backward(params, acts, g[:n_tr] / n_tr, d_tr)
            for gw, gb in grads:  # fresh arrays; g * lr rounds as lr * g
                gw *= lr
                gb *= lr
            params = [(w - gw, b - gb) for (w, b), (gw, gb) in zip(params, grads)]

    return TrainedModel(loss, best_params, history, best_epoch)


@dataclass(frozen=True, eq=False)
class EvalResult:
    csl: float
    accuracy: float | None
    confusion: np.ndarray
    surrogate_loss: float
    cost_se: float  # standard error of the mean per-sample cost


def evaluate(
    model: TrainedModel,
    split_xy: tuple[np.ndarray, np.ndarray],
    cost: CostMatrix,
    weights: np.ndarray | None = None,
) -> EvalResult:
    """Cost-sensitive loss, accuracy (square matrices only), surrogate loss, cost SE.

    weights, from postprocess_search, replace the loss's decision (decide_batch).
    """
    x, y = np.asarray(split_xy[0], float), np.asarray(split_xy[1], int)
    if len(x) == 0:
        raise ValueError("evaluation split is empty")
    scores = forward(model.params, x)
    preds = model.loss.decide_batch(scores, weights)
    counts = confusion(preds, y, cost.n_reports, cost.n_labels)
    csl = cost_sensitive_loss(counts, cost)
    acc = cm_accuracy(counts) if cost.is_square else None
    vals, _ = model.loss.batch(scores, model.loss.targets(y))
    costs = cost.entries[preds, y]
    se = float(costs.std(ddof=1) / np.sqrt(len(costs))) if len(costs) > 1 else 0.0
    return EvalResult(csl, acc, counts, float(vals.mean()), se)


def gradient_check(
    spec: ModelSpec,
    loss: BoundLoss,
    x: np.ndarray,
    y: np.ndarray,
    max_coords: int = 400,
) -> float:
    """Max relative error of analytic parameter gradients vs central differences.

    Samples whose scores sit within `margin` of a polyhedral kink are
    dropped first so the steps of size `h` straddle a smooth region. For
    large models a deterministic subset of coordinates is probed. A NaN
    error at any coordinate makes the result NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    h, margin = 1e-5, 1e-3
    params = init_model(spec)
    scores, acts = _forward_cache(params, x)
    keep = loss.kink_margin(scores) > margin
    # ReLU pre-activations near zero also break finite differences.
    for act, (w, b) in zip(acts, params[:-1]):
        keep &= np.abs(act @ w + b).min(axis=1) > margin
    if not keep.any():
        raise ValueError("every sample sits at a kink; enlarge the batch")
    x, targets = x[keep], loss.targets(y[keep])

    _, grads = mean_loss_and_param_grads(params, loss, x, targets)
    flat_grads = np.concatenate([a.ravel() for layer in grads for a in layer])

    flat = np.concatenate([a.ravel() for layer in params for a in layer])
    n = len(flat)
    coords = np.arange(n)
    if n > max_coords:
        coords = np.linspace(0, n - 1, max_coords).astype(int)
    # Copies 2j and 2j + 1 move coords[j] by +h and -h. The copies of one
    # layer share the forward pass below it, then run as one stacked batch.
    moved = np.repeat(coords, 2)
    values = np.column_stack([flat[coords] + h, flat[coords] - h]).ravel()
    acts, rows, dims = _forward_cache(params, x)[1], len(x), spec.layer_dims
    # Labels for the largest chunk, encoded once; each chunk takes a prefix.
    tiled = loss.targets(np.tile(y[keep], min(len(moved), max(1, _BLOCK // rows))))
    means = np.empty(len(moved))
    offset = 0
    for i, (w, b) in enumerate(params):
        end = offset + w.size + b.size
        lo, hi = np.searchsorted(moved, (offset, end))
        step = max(1, _BLOCK // max(w.size, rows * max(dims[i + 1:])))  # copies per chunk
        for start in range(lo, hi, step):
            chunk = slice(start, min(start + step, hi))
            layer = np.repeat(flat[None, offset:end], chunk.stop - start, axis=0)
            layer[np.arange(len(layer)), moved[chunk] - offset] = values[chunk]
            z = acts[i] @ layer[:, :w.size].reshape(-1, *w.shape)
            z += layer[:, None, w.size:]
            if i < len(params) - 1:
                z = _forward_cache(params[i + 1:], np.maximum(z, 0.0, out=z))[0]
            if rows == 1:  # a one-row matmul rounds its own way; see train
                vals = np.concatenate([loss.batch(zc, targets)[0] for zc in z])
            else:
                part = Targets(*(a[:len(z) * rows] for a in tiled))
                vals = loss.batch(z.reshape(-1, z.shape[-1]), part)[0]
            means[chunk] = np.add.reduce(vals.reshape(-1, rows), axis=1) / rows
        offset = end
    fd, g = (means[0::2] - means[1::2]) / (2 * h), flat_grads[coords]
    return float((np.abs(fd - g) / np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1.0)).max())
