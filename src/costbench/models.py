"""Linear and small ReLU-MLP models with deterministic gradient-descent training.

Plain full-batch (sub)gradient descent, no momentum or weight decay; the
returned parameters are the snapshot from the epoch with the lowest recorded
validation loss. Everything is seeded and bit-reproducible.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costs import CostMatrix, accuracy as cm_accuracy, confusion, cost_sensitive_loss
from .losses import BoundLoss, DecisionRule, NonFiniteScores

# Weight init: uniform(-INIT_SCALE/sqrt(fan_in), +INIT_SCALE/sqrt(fan_in)).
INIT_SCALE = 1.0

DEFAULT_HIDDEN_DIMS = (100, 100, 100, 100)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "linear" | "mlp"
    in_dim: int
    out_dim: int
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    init_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.kind == "mlp" and any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden widths must be positive")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        if self.kind == "linear":
            return (self.in_dim, self.out_dim)
        return (self.in_dim, *self.hidden_dims, self.out_dim)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    n_epochs: int = 2000
    batch_size: int | None = None  # None = full batch
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.n_epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be positive")


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


def _copy_params(params: Params) -> Params:
    return [(w.copy(), b.copy()) for w, b in params]


def n_parameters(spec: ModelSpec) -> int:
    dims = spec.layer_dims
    return sum((i + 1) * o for i, o in zip(dims[:-1], dims[1:]))


def _forward_cache(params: Params, x: np.ndarray):
    acts = [x]
    h = x
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        if i < len(params) - 1:
            h = np.maximum(z, 0.0)
        else:
            h = z
        acts.append(h)
    return h, acts


def forward(params: Params, x) -> np.ndarray:
    """Raw scores; any squashing lives in the loss."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != params[0][0].shape[0]:
        raise ValueError(
            f"input width {x.shape[1]} != model input dim {params[0][0].shape[0]}"
        )
    scores, _ = _forward_cache(params, x)
    return scores[0] if single else scores


def _backward(params: Params, acts, grad_scores: np.ndarray) -> Params:
    grads: Params = [None] * len(params)
    delta = grad_scores
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w.T) * (acts[i] > 0)
    return grads


def mean_loss_and_param_grads(
    params: Params, loss: BoundLoss, x: np.ndarray, y: np.ndarray
):
    scores, acts = _forward_cache(params, x)
    vals, grad_scores = loss.batch(scores, y)
    n = len(x)
    return float(vals.mean()), _backward(params, acts, grad_scores / n)


def _mean_loss(params: Params, loss: BoundLoss, x: np.ndarray, y: np.ndarray) -> float:
    scores, _ = _forward_cache(params, x)
    vals, _ = loss.batch(scores, y)
    return float(vals.mean())


@dataclass(eq=False)
class TrainedModel:
    spec: ModelSpec
    loss: BoundLoss
    params: Params
    history: np.ndarray  # (n_epochs + 1, 2): train and val loss at each epoch
    best_epoch: int

    def scores(self, x) -> np.ndarray:
        return forward(self.params, x)


def _step(params: Params, grads: Params, learning_rate: float) -> Params:
    return [
        (w - learning_rate * gw, b - learning_rate * gb)
        for (w, b), (gw, gb) in zip(params, grads)
    ]


def train(
    spec: ModelSpec,
    loss: BoundLoss,
    train_xy: tuple[np.ndarray, np.ndarray],
    val_xy: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    selection_metric=None,
) -> TrainedModel:
    """Gradient descent on the mean loss with best-validation-epoch selection.

    history[e] holds (train loss, val loss) at the parameters after e updates;
    row 0 is the initial model. best_epoch is the first epoch attaining the
    minimal validation loss, and the returned parameters are its snapshot.
    selection_metric, when given, replaces the validation loss as the
    per-epoch selection criterion: a callable params -> float, lower is better.

    Each epoch evaluates the loss once per split. The val column always comes
    from a forward pass over the validation split. In full-batch mode the
    train column of row e is the mean loss that step e + 1's gradient pass
    computes at those same parameters. In minibatch mode no gradient pass
    sees the whole train set, so a full-train forward pass fills it. In both
    modes one full-train forward pass after the last step fills the final row.

    Non-finite scores or losses at the parameters after step e >= 1 raise
    TrainingDiverged(e), also when the full-batch train loss shows them one
    step later. Any other error from a step propagates unchanged.
    """
    x_tr, y_tr = np.asarray(train_xy[0], float), np.asarray(train_xy[1], int)
    x_va, y_va = np.asarray(val_xy[0], float), np.asarray(val_xy[1], int)
    if len(x_tr) == 0 or len(x_va) == 0:
        raise ValueError("train and validation splits must be nonempty")
    if spec.out_dim != loss.out_dim:
        raise ValueError(
            f"model out_dim {spec.out_dim} != loss out_dim {loss.out_dim}"
        )
    params = init_model(spec)
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    full_batch = cfg.batch_size is None
    history = np.empty((cfg.n_epochs + 1, 2))
    best_epoch, best_sel, best_params = 0, np.inf, params

    def finish_row(epoch: int, p: Params, tl: float, vl: float) -> None:
        nonlocal best_epoch, best_sel, best_params
        if epoch > 0 and not (np.isfinite(tl) and np.isfinite(vl)):
            raise TrainingDiverged(epoch)
        history[epoch] = (tl, vl)
        sel = vl if selection_metric is None else float(selection_metric(p))
        if epoch == 0 or sel < best_sel:
            best_epoch, best_sel, best_params = epoch, sel, _copy_params(p)

    # Step e first completes row e - 1. `at` is the epoch whose parameters
    # the running loss pass evaluates.
    at = 0
    try:
        vl = _mean_loss(params, loss, x_va, y_va)
        for epoch in range(1, cfg.n_epochs + 1):
            at = epoch - 1
            if full_batch:
                tl, grads = mean_loss_and_param_grads(params, loss, x_tr, y_tr)
                finish_row(at, params, tl, vl)
                params = _step(params, grads, lr)
            else:
                finish_row(at, params, _mean_loss(params, loss, x_tr, y_tr), vl)
                at = epoch
                order = rng.permutation(len(x_tr))
                for start in range(0, len(x_tr), cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    _, grads = mean_loss_and_param_grads(params, loss, x_tr[idx], y_tr[idx])
                    params = _step(params, grads, lr)
            at = epoch
            vl = _mean_loss(params, loss, x_va, y_va)
        finish_row(at, params, _mean_loss(params, loss, x_tr, y_tr), vl)
    except NonFiniteScores as exc:
        if at == 0:
            raise  # the inputs, not the optimization, are non-finite
        raise TrainingDiverged(at) from exc

    return TrainedModel(spec, loss, best_params, history, best_epoch)


@dataclass(frozen=True, eq=False)
class EvalResult:
    csl: float
    accuracy: float | None
    confusion: np.ndarray
    surrogate_loss: float
    cost_se: float  # standard error of the mean per-sample cost


def evaluate(
    model: TrainedModel,
    rule: DecisionRule,
    split_xy: tuple[np.ndarray, np.ndarray],
    cost: CostMatrix,
) -> EvalResult:
    """Cost-sensitive loss, accuracy (square matrices only), surrogate loss, cost SE."""
    x, y = np.asarray(split_xy[0], float), np.asarray(split_xy[1], int)
    if len(x) == 0:
        raise ValueError("evaluation split is empty")
    scores = forward(model.params, x)
    preds = model.loss.decide_batch(scores, rule)
    cm = confusion(preds, y, cost.n_reports, cost.n_labels)
    csl = cost_sensitive_loss(cm, cost)
    acc = cm_accuracy(cm) if cost.is_square else None
    vals, _ = model.loss.batch(scores, y)
    costs = cost.entries[preds, y]
    se = float(costs.std(ddof=1) / np.sqrt(len(costs))) if len(costs) > 1 else 0.0
    return EvalResult(csl, acc, cm.counts, float(vals.mean()), se)


def gradient_check(
    spec: ModelSpec,
    loss: BoundLoss,
    x: np.ndarray,
    y: np.ndarray,
    h: float = 1e-5,
    max_coords: int = 400,
    kink_margin: float = 1e-3,
) -> float:
    """Max relative error of analytic parameter gradients vs central differences.

    Samples whose scores sit within kink_margin of a polyhedral kink are
    dropped first so the finite differences straddle a smooth region. For
    large models a deterministic subset of coordinates is probed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    params = init_model(spec)
    scores, acts = _forward_cache(params, x)
    keep = loss.kink_margin(scores) > kink_margin
    # ReLU pre-activations near zero also break finite differences.
    act = x
    for w, b in params[:-1]:
        z = act @ w + b
        keep &= np.abs(z).min(axis=1) > kink_margin
        act = np.maximum(z, 0.0)
    if not keep.any():
        raise ValueError("every sample sits at a kink; enlarge the batch")
    x, y = x[keep], y[keep]

    _, grads = mean_loss_and_param_grads(params, loss, x, y)
    flat_grads = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])

    shapes = [(w.shape, b.shape) for w, b in params]
    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params])

    def unflatten(v: np.ndarray) -> Params:
        out = []
        pos = 0
        for wshape, bshape in shapes:
            wn = int(np.prod(wshape))
            w = v[pos : pos + wn].reshape(wshape)
            pos += wn
            b = v[pos : pos + bshape[0]]
            pos += bshape[0]
            out.append((w, b))
        return out

    n = len(flat)
    coords = np.arange(n)
    if n > max_coords:
        coords = np.linspace(0, n - 1, max_coords).astype(int)
    worst = 0.0
    for c in coords:
        bump = np.zeros(n)
        bump[c] = h
        up = _mean_loss(unflatten(flat + bump), loss, x, y)
        dn = _mean_loss(unflatten(flat - bump), loss, x, y)
        fd = (up - dn) / (2 * h)
        denom = max(abs(fd), abs(flat_grads[c]), 1.0)
        worst = max(worst, abs(fd - flat_grads[c]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Serialization: exact-round-trip text parameters and CSV history.
# ---------------------------------------------------------------------------

_PARAMS_MAGIC = "costbench-params v1"


def save_params(model: TrainedModel, path) -> None:
    lines = [_PARAMS_MAGIC, f"kind {model.spec.kind}", f"layers {len(model.params)}"]
    for i, (w, b) in enumerate(model.params):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append("bias " + " ".join(repr(float(v)) for v in b))
    Path(path).write_text("\n".join(lines) + "\n")


def load_params(path) -> Params:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _PARAMS_MAGIC:
        raise ValueError(f"{path}: not a recognized parameter file")
    params: Params = []
    try:
        n_layers = int(lines[2].split()[1])
        pos = 3
        for i in range(n_layers):
            _, _, n_in, n_out = lines[pos].split()
            n_in, n_out = int(n_in), int(n_out)
            pos += 1
            w = np.array(
                [[float(t) for t in lines[pos + r].split()] for r in range(n_in)]
            )
            pos += n_in
            btoks = lines[pos].split()
            if not btoks or btoks[0] != "bias":
                raise ValueError(f"{path}: layer {i} has no bias line")
            b = np.array([float(t) for t in btoks[1:]])
            pos += 1
            if w.shape != (n_in, n_out) or b.shape != (n_out,):
                raise ValueError(f"{path}: malformed layer block")
            params.append((w, b))
    except IndexError:
        raise ValueError(f"{path}: truncated parameter file") from None
    return params


def export_history_csv(model: TrainedModel, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for epoch, (tl, vl) in enumerate(model.history):
            writer.writerow([epoch, repr(float(tl)), repr(float(vl))])
