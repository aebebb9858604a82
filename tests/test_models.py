import itertools
import math
import re

import numpy as np
import pytest

from costbench import losses, models
from costbench.costs import (
    binary_alpha_matrix,
    severity_three_class_matrix,
    stock_matrices,
    synthetic_cost_matrix,
)
from costbench.losses import LOSS_KINDS, BoundLoss, cross_entropy_batch
from costbench.models import (
    ModelSpec,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    _forward_cache,
    evaluate,
    forward,
    gradient_check,
    init_model,
    mean_loss_and_param_grads,
    train,
)
from costbench.verify import run_verify

ALPHA6 = binary_alpha_matrix(1 / 6)
STUDENT = severity_three_class_matrix()


def make_blobs(n, rng, separation=3.0):
    y = rng.integers(0, 2, n)
    x = rng.normal(size=(n, 2)) + separation * np.column_stack([y, -0.5 * y])
    return x, y


# --- init and forward --------------------------------------------------------


def test_init_deterministic():
    spec = ModelSpec(4, 2, init_seed=9)
    a = init_model(spec)
    b = init_model(spec)
    for (wa, ba), (wb, bb) in zip(a, b):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_init_seed_changes_weights():
    a = init_model(ModelSpec(4, 2, init_seed=1))
    b = init_model(ModelSpec(4, 2, init_seed=2))
    assert not np.array_equal(a[0][0], b[0][0])


def test_init_biases_zero_and_bounded():
    spec = ModelSpec(10, 3, hidden_dims=(20, 20), init_seed=0)
    params = init_model(spec)
    dims = spec.layer_dims
    for (w, b), fan_in in zip(params, dims[:-1]):
        assert np.all(b == 0.0)
        assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in)


def test_forward_zero_weights():
    spec = ModelSpec(3, 2, init_seed=0)
    params = [(np.zeros((3, 2)), np.zeros(2))]
    assert np.array_equal(forward(params, np.ones((4, 3))), np.zeros((4, 2)))


def test_forward_picks_first_feature():
    params = [(np.array([[1.0], [0.0]]), np.zeros(1))]
    x = np.array([[2.5, -1.0], [0.5, 3.0]])
    assert np.allclose(forward(params, x)[:, 0], x[:, 0])


def test_forward_hand_computed_mlp():
    # One hidden layer, hand-checkable ReLU composition.
    w1 = np.array([[1.0, -1.0], [0.0, 1.0]])
    b1 = np.array([0.0, 0.5])
    w2 = np.array([[1.0], [2.0]])
    b2 = np.array([-1.0])
    params = [(w1, b1), (w2, b2)]
    x = np.array([[1.0, 2.0]])
    h = np.maximum(x @ w1 + b1, 0)            # (1.0, 1.5)
    want = h @ w2 + b2                        # 1 + 3 - 1 = 3
    assert np.allclose(forward(params, x), want)
    assert want[0, 0] == pytest.approx(3.0)


def test_forward_dimension_mismatch():
    params = init_model(ModelSpec(3, 2, init_seed=0))
    with pytest.raises(ValueError):
        forward(params, np.ones((4, 5)))


def test_forward_rejects_inputs_that_are_not_rows():
    # Inputs are (n, d) rows only; a 1-D sample or a 3-D stack is an error
    # that names its shape.
    params = init_model(ModelSpec(3, 2, init_seed=0))
    for shape in [(3,), (1, 4, 3)]:
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            forward(params, np.ones(shape))


@pytest.mark.parametrize("hidden", [(), (16, 16)])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_forward_into_a_row_block_matches_a_fresh_array(hidden, n, rng):
    params = init_model(ModelSpec(2, 3, hidden_dims=hidden, init_seed=4))
    x = rng.normal(size=(n, 2))
    want, want_acts = _forward_cache(params, x)
    out = np.full((n + 5, 3), np.nan)
    got, acts = _forward_cache(params, x, out[2:n + 2])
    assert np.shares_memory(got, out)
    assert want.tobytes() == got.tobytes()
    assert np.isnan(out[:2]).all() and np.isnan(out[n + 2:]).all()
    for a, b in zip(acts, want_acts, strict=True):
        assert a.tobytes() == b.tobytes()


# --- training ----------------------------------------------------------------


def test_zero_learning_rate_freezes(rng):
    x, y = make_blobs(40, rng)
    loss = BoundLoss("cross_entropy", ALPHA6)
    spec = ModelSpec(2, 2, init_seed=4)
    model = train(spec, loss, (x[:30], y[:30]), (x[30:], y[30:]),
                  TrainConfig(learning_rate=0.0, n_epochs=20))
    assert np.ptp(model.history[:, 0]) == 0.0
    assert np.ptp(model.history[:, 1]) == 0.0
    init = init_model(spec)
    for (w, b), (wi, bi) in zip(model.params, init):
        assert np.array_equal(w, wi) and np.array_equal(b, bi)


def test_separable_ce_converges(rng):
    x, y = make_blobs(60, rng, separation=6.0)
    loss = BoundLoss("cross_entropy", ALPHA6)
    model = train(ModelSpec(2, 2, init_seed=1), loss,
                  (x[:40], y[:40]), (x[40:], y[40:]),
                  TrainConfig(learning_rate=0.5, n_epochs=800))
    assert model.history[-1, 0] < 0.01


def test_training_deterministic(rng):
    x, y = make_blobs(50, rng)
    loss = BoundLoss("embedding_softmax", ALPHA6)
    cfg = TrainConfig(learning_rate=0.3, n_epochs=150)
    runs = [
        train(ModelSpec(2, 2, init_seed=3), loss,
              (x[:35], y[:35]), (x[35:], y[35:]), cfg)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].history, runs[1].history)
    for (wa, ba), (wb, bb) in zip(runs[0].params, runs[1].params):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    assert runs[0].best_epoch == runs[1].best_epoch


def test_best_epoch_attains_min_val(rng):
    x, y = make_blobs(60, rng)
    loss = BoundLoss("scaled_cross_entropy", ALPHA6)
    model = train(ModelSpec(2, 2, init_seed=2), loss,
                  (x[:40], y[:40]), (x[40:], y[40:]),
                  TrainConfig(learning_rate=0.5, n_epochs=200))
    assert model.history[model.best_epoch, 1] == model.history[:, 1].min()
    # Reported parameters reproduce exactly that validation loss.
    vals, _ = loss.batch(forward(model.params, x[40:]), loss.targets(y[40:]))
    assert vals.mean() == pytest.approx(model.history[model.best_epoch, 1], abs=1e-12)


def test_monotone_first_epochs_small_lr(rng):
    cost = synthetic_cost_matrix(1 / 6)
    from costbench.data import sample_synthetic

    ds = sample_synthetic(200, rng_seed=5)
    x, y = ds.features, ds.labels
    for kind in ("cross_entropy", "scaled_cross_entropy", "embedding",
                 "embedding_softmax", "weighted_hinge"):
        loss = BoundLoss(kind, cost)
        model = train(ModelSpec(2, loss.out_dim, init_seed=6), loss,
                      (x[:150], y[:150]), (x[150:], y[150:]),
                      TrainConfig(learning_rate=0.01, n_epochs=10))
        assert model.history[10, 0] < model.history[0, 0], kind


def test_divergence_raises_with_epoch(rng):
    x, y = make_blobs(30, rng)
    x = x * 1e3
    loss = BoundLoss("cross_entropy", ALPHA6)
    # Steps this large overflow the parameters to non-finite within a step or two.
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train(ModelSpec(2, 2, init_seed=0), loss,
              (x[:20], y[:20]), (x[20:], y[20:]),
              TrainConfig(learning_rate=1e305, n_epochs=50))
    assert err.value.epoch >= 1


def test_plain_value_error_is_not_divergence(rng):
    # A bug inside a step (here: the fourth loss call) must surface as itself,
    # not as "diverged".
    class BuggyLoss(BoundLoss):
        calls = 0

        def batch(self, scores, ys):
            self.calls += 1
            if self.calls == 4:
                raise ValueError("index bug in the loss")
            return super().batch(scores, ys)

    x, y = make_blobs(30, rng)
    loss = BuggyLoss("cross_entropy", ALPHA6)
    with pytest.raises(ValueError, match="index bug"):
        train(ModelSpec(2, 2, init_seed=0), loss,
              (x[:20], y[:20]), (x[20:], y[20:]),
              TrainConfig(learning_rate=0.1, n_epochs=10))


def test_empty_split_rejected(rng):
    x, y = make_blobs(10, rng)
    loss = BoundLoss("cross_entropy", ALPHA6)
    with pytest.raises(ValueError):
        train(ModelSpec(2, 2, init_seed=0), loss,
              (x, y), (x[:0], y[:0]), TrainConfig())


def test_out_dim_mismatch_rejected(rng):
    x, y = make_blobs(10, rng)
    loss = BoundLoss("cross_entropy", STUDENT)
    with pytest.raises(ValueError):
        train(ModelSpec(2, 2, init_seed=0), loss,
              (x, y), (x, y), TrainConfig())


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_train_rejects_labels_out_of_range(kind, rng):
    # A label of -1 used to train as the last label (weighted_hinge: as 0).
    x, y = make_blobs(30, rng)
    loss = BoundLoss(kind, ALPHA6)
    for bad in (-1, 2):
        y_bad = y.copy()
        y_bad[[3, 25]] = bad
        for tr, va in [((x[:20], y_bad[:20]), (x[20:], y[20:])),
                       ((x[:20], y[:20]), (x[20:], y_bad[20:])),
                       ((x[:1], y_bad[3:4]), (x[20:], y[20:]))]:
            with pytest.raises(ValueError, match=re.escape("labels must lie in [0, 2)")):
                train(ModelSpec(2, loss.out_dim, init_seed=0), loss, tr, va,
                      TrainConfig(learning_rate=0.1, n_epochs=3))


# --- evaluation ---------------------------------------------------------------


def test_evaluate_perfect_model():
    # A model whose scores exactly separate the labels has zero cost.
    x = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10)
    y = np.array([1, 0] * 10)
    params = [(np.array([[0.0, 10.0], [0.0, 0.0]]), np.zeros(2))]
    loss = BoundLoss("cross_entropy", ALPHA6)
    from costbench.models import TrainedModel

    model = TrainedModel(loss, params, np.zeros((1, 2)), 0)
    res = evaluate(model, (x, y), ALPHA6)
    assert res.csl == 0.0 and res.accuracy == 1.0


def test_evaluate_constant_prediction_base_rate(rng):
    x = rng.normal(size=(200, 2))
    y = (rng.random(200) < 0.3).astype(int)
    params = [(np.zeros((2, 2)), np.array([5.0, 0.0]))]  # always predict 0
    loss = BoundLoss("cross_entropy", ALPHA6)
    from costbench.models import TrainedModel

    model = TrainedModel(loss, params, np.zeros((1, 2)), 0)
    res = evaluate(model, (x, y), ALPHA6)
    want = y.mean() * ALPHA6.entries[0, 1]  # every positive costs 5/6
    assert res.csl == pytest.approx(want, abs=1e-12)


def test_evaluate_order_invariant(rng):
    x, y = make_blobs(80, rng)
    loss = BoundLoss("cross_entropy", ALPHA6)
    model = train(ModelSpec(2, 2, init_seed=3), loss,
                  (x[:60], y[:60]), (x[60:], y[60:]),
                  TrainConfig(learning_rate=0.2, n_epochs=50))
    perm = rng.permutation(80)
    a = evaluate(model, (x, y), ALPHA6)
    b = evaluate(model, (x[perm], y[perm]), ALPHA6)
    assert a.csl == b.csl and a.accuracy == b.accuracy


@pytest.mark.parametrize("kind", ["cross_entropy", "scaled_cross_entropy", "embedding",
                                  "embedding_softmax", "weighted_hinge"])
def test_evaluate_cost_se_matches_second_pass(kind, rng):
    # The SE of the per-sample test cost, as a separate forward and decide
    # pass over the split computes it.
    x, y = make_blobs(80, rng, separation=1.0)
    loss = BoundLoss(kind, ALPHA6)
    model = train(ModelSpec(2, loss.out_dim, init_seed=3), loss,
                  (x[:60], y[:60]), (x[60:], y[60:]),
                  TrainConfig(learning_rate=0.2, n_epochs=20))
    costs = ALPHA6.entries[loss.decide_batch(forward(model.params, x)), y]
    want = float(costs.std(ddof=1) / np.sqrt(len(costs)))
    assert want > 0
    assert evaluate(model, (x, y), ALPHA6).cost_se == want
    assert evaluate(model, (x[:1], y[:1]), ALPHA6).cost_se == 0.0


def test_evaluate_deferral_has_no_accuracy(rng):
    from costbench.costs import german_credit_deferral_matrix

    cost = german_credit_deferral_matrix()
    x, y = make_blobs(40, rng)
    loss = BoundLoss("embedding", cost)
    model = train(ModelSpec(2, 2, init_seed=3), loss,
                  (x[:30], y[:30]), (x[30:], y[30:]),
                  TrainConfig(learning_rate=0.2, n_epochs=30))
    res = evaluate(model, (x, y), cost)
    assert res.accuracy is None
    assert res.confusion.shape == (3, 2)


# --- gradient check -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cross_entropy", "scaled_cross_entropy",
                                  "embedding", "embedding_softmax",
                                  "weighted_hinge"])
def test_gradient_check_linear(kind, rng):
    loss = BoundLoss(kind, ALPHA6)
    x, y = make_blobs(100, rng)
    err = gradient_check(ModelSpec(2, loss.out_dim, init_seed=7),
                         loss, x, y)
    assert err <= 1e-5, f"{kind}: {err}"


@pytest.mark.parametrize("kind", ["scaled_cross_entropy", "embedding",
                                  "embedding_softmax"])
def test_gradient_check_mlp(kind, rng):
    loss = BoundLoss(kind, ALPHA6)
    x, y = make_blobs(100, rng)
    spec = ModelSpec(2, loss.out_dim, hidden_dims=(12, 12), init_seed=7)
    err = gradient_check(spec, loss, x, y)
    assert err <= 1e-5, f"{kind}: {err}"


# float.hex of gradient_check on the verify suite's inputs (rng_seed 0, 120
# rows, max_coords 60), per loss kind, linear then (16, 16); verify prints
# only three digits of their maximum.
GRADIENT_CHECK_HEX = {
    "cross_entropy": ("0x1.7a3a000000000p-38", "0x1.32125c0000000p-37"),
    "scaled_cross_entropy": ("0x1.29c5000000000p-39", "0x1.c183fb0000000p-39"),
    "embedding": ("0x1.8150000000000p-38", "0x1.84fa080000000p-39"),
    "embedding_softmax": ("0x1.d840000000000p-40", "0x1.8282580000000p-39"),
    "weighted_hinge": ("0x1.eb23000000000p-40", "0x1.be92b80000000p-39"),
}


def test_gradient_check_values_pinned():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 2))
    y = (rng.random(120) < 0.5).astype(int)
    assert set(GRADIENT_CHECK_HEX) == set(LOSS_KINDS)
    for kind, want in GRADIENT_CHECK_HEX.items():
        loss = BoundLoss(kind, ALPHA6)
        got = tuple(
            gradient_check(ModelSpec(2, loss.out_dim, hidden_dims=hidden, init_seed=1),
                           loss, x, y, max_coords=60).hex()
            for hidden in ((), (16, 16))
        )
        assert got == want, kind


def reference_gradient_check(spec, loss, x, y, max_coords=400):
    """The loop that moved one coordinate of one parameter copy at a time.

    `gradient_check` stacks the moved copies instead and must return the
    same bits, or raise the same error.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=int)
    h, margin = 1e-5, 1e-3
    params = init_model(spec)
    scores, acts = _forward_cache(params, x)
    keep = loss.kink_margin(scores) > margin
    for act, (w, b) in zip(acts, params[:-1]):
        keep &= np.abs(act @ w + b).min(axis=1) > margin
    if not keep.any():
        raise ValueError("every sample sits at a kink; enlarge the batch")
    x, targets = x[keep], loss.targets(y[keep])
    _, grads = mean_loss_and_param_grads(params, loss, x, targets)
    flat_grads = np.concatenate([a.ravel() for layer in grads for a in layer])
    flat = np.concatenate([a.ravel() for layer in params for a in layer])
    coords = np.arange(len(flat))
    if len(flat) > max_coords:
        coords = np.linspace(0, len(flat) - 1, max_coords).astype(int)
    moved = flat.copy()
    parts = np.split(moved, np.cumsum([a.size for layer in params for a in layer])[:-1])
    moved_params = [(pw.reshape(w.shape), pb) for (w, _), pw, pb in
                    zip(params, parts[::2], parts[1::2])]
    worst = 0.0
    for c in coords:
        up_dn = []
        for value in (flat[c] + h, flat[c] - h):
            moved[c] = value
            vals, _ = loss.batch(_forward_cache(moved_params, x)[0], targets)
            up_dn.append(float(np.add.reduce(vals) / len(vals)))
        moved[c] = flat[c]
        fd = (up_dn[0] - up_dn[1]) / (2 * h)
        denom = max(abs(fd), abs(flat_grads[c]), 1.0)
        worst = max(worst, abs(fd - flat_grads[c]) / denom)
    return worst


def _hex_or_error(check, *args):
    try:
        return check(*args).hex()
    except ValueError as exc:
        return str(exc)


GRADIENT_HIDDEN = ((), (16, 16), (5,), (3, 4, 3))


@pytest.mark.parametrize("name", sorted(stock_matrices()))
def test_stacked_gradient_check_matches_reference_loop(name):
    # 1, 2 and 3 rows leave batches the kink filter cuts to one kept row.
    cost = stock_matrices()[name]
    for kind in LOSS_KINDS:
        try:
            loss = BoundLoss(kind, cost)
        except ValueError:
            continue  # weighted_hinge takes only the 2x2 zero-diagonal matrices
        for hidden, n, max_coords, seed in itertools.product(
                GRADIENT_HIDDEN, (1, 2, 3, 37, 120), (60, 400), range(4)):
            rng = np.random.default_rng(seed)
            x, y = rng.normal(size=(n, 2)), rng.integers(0, cost.n_labels, n)
            args = (ModelSpec(2, loss.out_dim, hidden, init_seed=seed), loss, x, y,
                    max_coords)
            assert (_hex_or_error(gradient_check, *args)
                    == _hex_or_error(reference_gradient_check, *args)), \
                (kind, hidden, n, max_coords, seed)


def test_gradient_check_bits_do_not_depend_on_chunks(monkeypatch):
    # One moved copy per stacked chunk gives the default's bits.
    cases = []
    for kind, hidden, n in itertools.product(LOSS_KINDS, GRADIENT_HIDDEN, (1, 37)):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(n, 2)), rng.integers(0, 2, n)
        loss = BoundLoss(kind, ALPHA6)
        cases.append((ModelSpec(2, loss.out_dim, hidden, init_seed=2), loss, x, y, 60))
    want = [_hex_or_error(gradient_check, *args) for args in cases]
    monkeypatch.setattr(models, "_BLOCK", 1)
    assert [_hex_or_error(gradient_check, *args) for args in cases] == want


def test_nan_gradient_error_fails_the_check(monkeypatch):
    # A kernel whose gradients are NaN: the error is NaN, not the finite
    # maximum of the rest, and the suite's gradient line fails.
    def nan_gradients(scores, targets):
        vals, grads = cross_entropy_batch(scores, targets)
        return vals, np.full_like(grads, np.nan)

    monkeypatch.setattr(losses, "cross_entropy_batch", nan_gradients)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(120, 2)), (rng.random(120) < 0.5).astype(int)
    loss = BoundLoss("cross_entropy", ALPHA6)
    for hidden in ((), (16, 16)):
        spec = ModelSpec(2, loss.out_dim, hidden_dims=hidden, init_seed=1)
        assert math.isnan(gradient_check(spec, loss, x, y, max_coords=60))
    _, results = run_verify(fast=True)
    line = next(r for r in results if r.name == "gradient-finite-difference")
    assert not line.ok and line.detail == "max relative error nan"


# --- fused epoch against the reference loop ------------------------------------------


def _reference_mean_loss(params, loss, x, y):
    vals, _ = loss.batch(forward(params, x), loss.targets(y))
    return float(vals.mean())


def reference_train(spec, loss, train_xy, val_xy, cfg, selection_metric=None):
    """The training loop that evaluates the loss three times per epoch.

    The train split's loss comes from a separate forward pass after each
    step, and every ValueError from a step counts as divergence. `train`
    must reproduce its history, best epoch, parameters and divergence epoch
    bit for bit.
    """
    x_tr, y_tr = np.asarray(train_xy[0], float), np.asarray(train_xy[1], int)
    x_va, y_va = np.asarray(val_xy[0], float), np.asarray(val_xy[1], int)
    params = init_model(spec)

    def epoch_losses():
        return (_reference_mean_loss(params, loss, x_tr, y_tr),
                _reference_mean_loss(params, loss, x_va, y_va))

    def selection_value():
        if selection_metric is None:
            return _reference_mean_loss(params, loss, x_va, y_va)
        return float(selection_metric(params))

    def step(grads):
        return [(w - cfg.learning_rate * gw, b - cfg.learning_rate * gb)
                for (w, b), (gw, gb) in zip(params, grads)]

    history = np.empty((cfg.n_epochs + 1, 2))
    history[0] = epoch_losses()
    best_epoch = 0
    best_val = selection_value()
    best_params = [(w.copy(), b.copy()) for w, b in params]
    for epoch in range(1, cfg.n_epochs + 1):
        try:
            _, grads = mean_loss_and_param_grads(params, loss, x_tr, loss.targets(y_tr))
            params = step(grads)
            tl, vl = epoch_losses()
        except ValueError as exc:
            raise TrainingDiverged(epoch) from exc
        if not (np.isfinite(tl) and np.isfinite(vl)):
            raise TrainingDiverged(epoch)
        history[epoch] = (tl, vl)
        sel = vl if selection_metric is None else float(selection_metric(params))
        if sel < best_val:
            best_val = sel
            best_epoch = epoch
            best_params = [(w.copy(), b.copy()) for w, b in params]
    return TrainedModel(loss, best_params, history, best_epoch)


LOSS_KIND_NAMES = ("cross_entropy", "scaled_cross_entropy", "embedding",
                   "embedding_softmax", "weighted_hinge")
TRAIN_MODES = {
    "linear_full_batch": (dict(), dict(learning_rate=1.0, n_epochs=60)),
    "mlp_full_batch": (dict(hidden_dims=(16, 16)),
                       dict(learning_rate=0.05, n_epochs=40)),
}


@pytest.fixture(scope="module")
def synthetic_splits():
    from costbench.data import sample_synthetic

    ds = sample_synthetic(200, rng_seed=21)
    x, y = ds.features, ds.labels
    return (x[:120], y[:120]), (x[120:], y[120:])


def _assert_same_model(got, want):
    assert np.array_equal(got.history, want.history)
    assert got.best_epoch == want.best_epoch
    for (w, b), (wr, br) in zip(got.params, want.params):
        assert np.array_equal(w, wr) and np.array_equal(b, br)


@pytest.mark.parametrize("selection", ["val_loss", "val_csl"])
@pytest.mark.parametrize("mode", sorted(TRAIN_MODES))
@pytest.mark.parametrize("kind", LOSS_KIND_NAMES)
def test_train_matches_reference_loop(kind, mode, selection, synthetic_splits):
    from costbench.costs import confusion, cost_sensitive_loss

    cost = synthetic_cost_matrix(1 / 6)
    loss = BoundLoss(kind, cost)
    tr, va = synthetic_splits
    spec_kw, cfg_kw = TRAIN_MODES[mode]
    spec = ModelSpec(in_dim=2, out_dim=loss.out_dim, init_seed=5, **spec_kw)
    cfg = TrainConfig(**cfg_kw)
    metric = None
    if selection == "val_csl":
        def metric(s_va):
            preds = loss.decide_batch(s_va)
            return cost_sensitive_loss(
                confusion(preds, va[1], cost.n_reports, cost.n_labels), cost)

    got = train(spec, loss, tr, va, cfg, selection_metric=metric)
    ref_metric = None if metric is None else (lambda p: metric(forward(p, va[0])))
    want = reference_train(spec, loss, tr, va, cfg, selection_metric=ref_metric)
    _assert_same_model(got, want)
    if selection == "val_loss":
        assert got.best_epoch > 0  # selection moved off the initial model


@pytest.mark.parametrize("n_tr, n_va", [(300, 100), (600, 200), (30, 1), (1, 30)])
@pytest.mark.parametrize("name", sorted(stock_matrices()))
def test_train_matches_reference_loop_on_stock_matrices(name, n_tr, n_va):
    # The stacked loss pass against separate calls per split on the costs the
    # UCI datasets train with, at their split sizes and with one-row splits.
    cost = stock_matrices()[name]
    rng = np.random.default_rng(n_tr + n_va)
    y = rng.integers(0, cost.n_labels, n_tr + n_va)
    x = rng.normal(size=(len(y), 4)) + 2.0 * (y[:, None] == np.arange(4) % cost.n_labels)
    for kind in LOSS_KIND_NAMES:
        if kind == "weighted_hinge" and cost.entries.shape != (2, 2):
            continue
        loss = BoundLoss(kind, cost)
        args = (ModelSpec(4, loss.out_dim, init_seed=3), loss,
                (x[:n_tr], y[:n_tr]), (x[n_tr:], y[n_tr:]),
                TrainConfig(learning_rate=0.5, n_epochs=15))
        _assert_same_model(train(*args), reference_train(*args))


class CappedLoss(BoundLoss):
    """Reports an infinite loss once any score's magnitude passes `cap`."""

    cap = np.inf

    def batch(self, scores, ys):
        vals, grads = super().batch(scores, ys)
        if np.abs(scores).max() > self.cap:
            vals = vals + np.inf
        return vals, grads


def _diverged_epoch(fn, *args):
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        fn(*args)
    return err.value.epoch


@pytest.mark.parametrize("kind", ["cross_entropy", "scaled_cross_entropy",
                                  "embedding", "weighted_hinge"])
def test_divergence_epoch_matches_reference(kind, synthetic_splits):
    # Steps of 1e20 overflow this MLP's activations within a few updates.
    loss = BoundLoss(kind, synthetic_cost_matrix(1 / 6))
    tr, va = synthetic_splits
    args = (ModelSpec(2, loss.out_dim, hidden_dims=(16, 16), init_seed=1),
            loss, tr, va, TrainConfig(learning_rate=1e20, n_epochs=30))
    epoch = _diverged_epoch(reference_train, *args)
    assert epoch > 1
    assert _diverged_epoch(train, *args) == epoch


def test_divergence_seen_only_on_train_split_keeps_its_epoch():
    # An outlier only the train split holds: its score passes the cap after
    # update 4 while every validation score stays below it, so the fused loop
    # sees the infinite train loss one step late and must still report epoch 4.
    from costbench.data import sample_synthetic

    ds = sample_synthetic(60, rng_seed=3)
    x_tr, y_tr = ds.features[:40].copy(), ds.labels[:40]
    x_tr[0] = (50.0, 0.0)
    va = (ds.features[40:], ds.labels[40:])
    loss = CappedLoss("cross_entropy", synthetic_cost_matrix(1 / 6))
    loss.cap = 55.0
    args = (ModelSpec(2, 2, init_seed=1), loss, (x_tr, y_tr), va,
            TrainConfig(learning_rate=1.0, n_epochs=10))
    epoch = _diverged_epoch(reference_train, *args)
    assert epoch == 4
    assert _diverged_epoch(train, *args) == epoch


def test_divergence_seen_only_on_val_split_keeps_its_epoch():
    # The val-only counterpart: the outlier sits in the validation split, and
    # its score passes the cap after update 4 while every train score stays
    # below it.
    from costbench.data import sample_synthetic

    ds = sample_synthetic(60, rng_seed=3)
    tr = (ds.features[:40], ds.labels[:40])
    x_va, y_va = ds.features[40:].copy(), ds.labels[40:]
    x_va[0] = (50.0, 0.0)
    loss = CappedLoss("cross_entropy", synthetic_cost_matrix(1 / 6))
    loss.cap = 55.0
    args = (ModelSpec(2, 2, init_seed=1), loss, tr, (x_va, y_va),
            TrainConfig(learning_rate=1.0, n_epochs=10))
    epoch = _diverged_epoch(reference_train, *args)
    assert epoch == 4
    assert _diverged_epoch(train, *args) == epoch


@pytest.mark.parametrize("selection", ["val_loss", "val_csl"])
@pytest.mark.parametrize("kind", LOSS_KIND_NAMES)
def test_one_loss_pass_per_epoch(kind, selection, synthetic_splits):
    loss = BoundLoss(kind, synthetic_cost_matrix(1 / 6))
    calls = []
    batch = loss.batch

    def counted(scores, ys):
        calls.append(len(scores))
        return batch(scores, ys)

    loss.batch = counted
    tr, va = synthetic_splits
    metric = None
    if selection == "val_csl":
        def metric(s_va):
            return float(np.mean(loss.decide_batch(s_va) != va[1]))

    cfg = TrainConfig(learning_rate=0.5, n_epochs=25)
    train(ModelSpec(2, loss.out_dim, init_seed=2), loss, tr, va, cfg,
          selection_metric=metric)
    assert calls == [len(tr[0]) + len(va[0])] * (cfg.n_epochs + 1)


# --- buffered epoch against the previous epoch ----------------------------------------


def _fresh_forward_cache(params, x, out=None):
    """The forward pass that allocated every hidden activation afresh."""
    acts = [x]
    for w, b in params[:-1]:
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    w, b = params[-1]
    scores = np.matmul(acts[-1], w, out=out)
    scores += b
    acts.append(scores)
    return scores, acts


def _fresh_backward(params, acts, grad_scores):
    """The backward pass that allocated every delta and ReLU product afresh."""
    grads = [None] * len(params)
    delta = grad_scores
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w.T) * (acts[i] > 0)
    return grads


def fresh_train(spec, loss, train_xy, val_xy, cfg, selection_metric=None):
    """`train` as it was before its hidden and delta buffers: the same loop,
    with fresh temporaries each epoch and the update lr * g."""
    x_tr, y_tr = np.asarray(train_xy[0], float), np.asarray(train_xy[1], int)
    x_va, y_va = np.asarray(val_xy[0], float), np.asarray(val_xy[1], int)
    n_tr, n_va = len(x_tr), len(x_va)
    params = init_model(spec)
    stack = min(n_tr, n_va) > 1
    if stack:
        t_all = loss.targets(np.concatenate([y_tr, y_va]))
    else:
        t_tr, t_va = loss.targets(y_tr), loss.targets(y_va)
    history = np.empty((cfg.n_epochs + 1, 2))
    best_epoch, best_sel = 0, np.inf
    for epoch in range(cfg.n_epochs + 1):
        scores = np.empty((n_tr + n_va, spec.out_dim))
        _, acts = _fresh_forward_cache(params, x_tr, scores[:n_tr])
        s_va = _fresh_forward_cache(params, x_va, scores[n_tr:])[0]
        if stack:
            vals, g = loss.batch(scores, t_all)
        else:
            (vals, g), (v_va, _) = loss.batch(scores[:n_tr], t_tr), loss.batch(s_va, t_va)
            vals = np.concatenate([vals, v_va])
        tl = float(np.add.reduce(vals[:n_tr]) / n_tr)
        vl = float(np.add.reduce(vals[n_tr:]) / n_va)
        history[epoch] = (tl, vl)
        sel = vl if selection_metric is None else float(selection_metric(s_va))
        if epoch == 0 or sel < best_sel:
            best_epoch, best_sel, best_params = epoch, sel, params
        if epoch < cfg.n_epochs:
            grads = _fresh_backward(params, acts, g[:n_tr] / n_tr)
            params = [(w - cfg.learning_rate * gw, b - cfg.learning_rate * gb)
                      for (w, b), (gw, gb) in zip(params, grads)]
    return TrainedModel(loss, best_params, history, best_epoch)


@pytest.mark.parametrize("n_tr, n_va", [(120, 80), (1, 30), (30, 1)])
@pytest.mark.parametrize("hidden", [(), (5,), (16, 16), (3, 4, 3)])
def test_buffered_epoch_matches_fresh_temporaries(hidden, n_tr, n_va, synthetic_splits):
    from costbench.costs import confusion, cost_sensitive_loss

    cost = synthetic_cost_matrix(1 / 6)
    (x_tr, y_tr), (x_va, y_va) = synthetic_splits
    tr, va = (x_tr[:n_tr], y_tr[:n_tr]), (x_va[:n_va], y_va[:n_va])
    cfg = TrainConfig(learning_rate=0.05, n_epochs=20)
    for kind, selection in itertools.product(LOSS_KIND_NAMES, ("val_loss", "val_csl")):
        loss = BoundLoss(kind, cost)
        spec = ModelSpec(2, loss.out_dim, hidden_dims=hidden, init_seed=7)
        metric = kept = None
        if selection == "val_csl":
            kept = []

            def metric(s_va):
                kept.append((s_va, s_va.copy()))
                preds = loss.decide_batch(s_va)
                return cost_sensitive_loss(
                    confusion(preds, va[1], cost.n_reports, cost.n_labels), cost)

        want = fresh_train(spec, loss, tr, va, cfg, selection_metric=metric)
        if kept is not None:
            kept.clear()
        got = train(spec, loss, tr, va, cfg, selection_metric=metric)
        _assert_same_model(got, want)
        if kept is not None:
            # No later epoch wrote into an array that an earlier s_va shares.
            assert len(kept) == cfg.n_epochs + 1
            assert all(np.array_equal(s, copy) for s, copy in kept)
