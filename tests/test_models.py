import numpy as np
import pytest

from costbench.costs import binary_alpha_matrix, severity_three_class_matrix, synthetic_cost_matrix
from costbench.losses import BoundLoss, DecisionRule, LossSpec
from costbench.models import (
    ModelSpec,
    TrainConfig,
    TrainedModel,
    TrainingDiverged,
    evaluate,
    forward,
    gradient_check,
    init_model,
    mean_loss_and_param_grads,
    train,
)

ALPHA6 = binary_alpha_matrix(1 / 6)
STUDENT = severity_three_class_matrix()


def make_blobs(n, rng, separation=3.0):
    y = rng.integers(0, 2, n)
    x = rng.normal(size=(n, 2)) + separation * np.column_stack([y, -0.5 * y])
    return x, y


# --- init and forward --------------------------------------------------------


def test_init_deterministic():
    spec = ModelSpec("linear", 4, 2, init_seed=9)
    a = init_model(spec)
    b = init_model(spec)
    for (wa, ba), (wb, bb) in zip(a, b):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def test_init_seed_changes_weights():
    a = init_model(ModelSpec("linear", 4, 2, init_seed=1))
    b = init_model(ModelSpec("linear", 4, 2, init_seed=2))
    assert not np.array_equal(a[0][0], b[0][0])


def test_init_biases_zero_and_bounded():
    spec = ModelSpec("mlp", 10, 3, hidden_dims=(20, 20), init_seed=0)
    params = init_model(spec)
    dims = spec.layer_dims
    for (w, b), fan_in in zip(params, dims[:-1]):
        assert np.all(b == 0.0)
        assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in)


def test_forward_zero_weights():
    spec = ModelSpec("linear", 3, 2, init_seed=0)
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
    params = init_model(ModelSpec("linear", 3, 2, init_seed=0))
    with pytest.raises(ValueError):
        forward(params, np.ones((4, 5)))


# --- training ----------------------------------------------------------------


def test_zero_learning_rate_freezes(rng):
    x, y = make_blobs(40, rng)
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    spec = ModelSpec("linear", 2, 2, init_seed=4)
    model = train(spec, loss, (x[:30], y[:30]), (x[30:], y[30:]),
                  TrainConfig(learning_rate=0.0, n_epochs=20))
    assert np.ptp(model.history[:, 0]) == 0.0
    assert np.ptp(model.history[:, 1]) == 0.0
    init = init_model(spec)
    for (w, b), (wi, bi) in zip(model.params, init):
        assert np.array_equal(w, wi) and np.array_equal(b, bi)


def test_separable_ce_converges(rng):
    x, y = make_blobs(60, rng, separation=6.0)
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    model = train(ModelSpec("linear", 2, 2, init_seed=1), loss,
                  (x[:40], y[:40]), (x[40:], y[40:]),
                  TrainConfig(learning_rate=0.5, n_epochs=800))
    assert model.history[-1, 0] < 0.01


def test_training_deterministic(rng):
    x, y = make_blobs(50, rng)
    loss = BoundLoss(LossSpec("embedding_softmax", ALPHA6))
    cfg = TrainConfig(learning_rate=0.3, n_epochs=150)
    runs = [
        train(ModelSpec("linear", 2, 2, init_seed=3), loss,
              (x[:35], y[:35]), (x[35:], y[35:]), cfg)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].history, runs[1].history)
    for (wa, ba), (wb, bb) in zip(runs[0].params, runs[1].params):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    assert runs[0].best_epoch == runs[1].best_epoch


def test_best_epoch_attains_min_val(rng):
    x, y = make_blobs(60, rng)
    loss = BoundLoss(LossSpec("scaled_cross_entropy", ALPHA6))
    model = train(ModelSpec("linear", 2, 2, init_seed=2), loss,
                  (x[:40], y[:40]), (x[40:], y[40:]),
                  TrainConfig(learning_rate=0.5, n_epochs=200))
    assert model.history[model.best_epoch, 1] == model.history[:, 1].min()
    # Reported parameters reproduce exactly that validation loss.
    vals, _ = loss.batch(forward(model.params, x[40:]), y[40:])
    assert vals.mean() == pytest.approx(model.history[model.best_epoch, 1], abs=1e-12)


def test_monotone_first_epochs_small_lr(rng):
    cost = synthetic_cost_matrix(1 / 6)
    from costbench.data import sample_synthetic

    ds = sample_synthetic(200, rng_seed=5)
    x, y = ds.features, ds.labels
    for kind in ("cross_entropy", "scaled_cross_entropy", "embedding",
                 "embedding_softmax", "weighted_hinge"):
        loss = BoundLoss(LossSpec(kind, cost))
        model = train(ModelSpec("linear", 2, loss.out_dim, init_seed=6), loss,
                      (x[:150], y[:150]), (x[150:], y[150:]),
                      TrainConfig(learning_rate=0.01, n_epochs=10))
        assert model.history[10, 0] < model.history[0, 0], kind


def test_divergence_raises_with_epoch(rng):
    x, y = make_blobs(30, rng)
    x = x * 1e3
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    # Steps this large overflow the parameters to non-finite within a step or two.
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train(ModelSpec("linear", 2, 2, init_seed=0), loss,
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
    loss = BuggyLoss(LossSpec("cross_entropy", ALPHA6))
    with pytest.raises(ValueError, match="index bug"):
        train(ModelSpec("linear", 2, 2, init_seed=0), loss,
              (x[:20], y[:20]), (x[20:], y[20:]),
              TrainConfig(learning_rate=0.1, n_epochs=10))


def test_empty_split_rejected(rng):
    x, y = make_blobs(10, rng)
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    with pytest.raises(ValueError):
        train(ModelSpec("linear", 2, 2, init_seed=0), loss,
              (x, y), (x[:0], y[:0]), TrainConfig())


def test_out_dim_mismatch_rejected(rng):
    x, y = make_blobs(10, rng)
    loss = BoundLoss(LossSpec("cross_entropy", STUDENT))
    with pytest.raises(ValueError):
        train(ModelSpec("linear", 2, 2, init_seed=0), loss,
              (x, y), (x, y), TrainConfig())


# --- evaluation ---------------------------------------------------------------


def test_evaluate_perfect_model():
    # A model whose scores exactly separate the labels has zero cost.
    x = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10)
    y = np.array([1, 0] * 10)
    params = [(np.array([[0.0, 10.0], [0.0, 0.0]]), np.zeros(2))]
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    spec = ModelSpec("linear", 2, 2, init_seed=0)
    from costbench.models import TrainedModel

    model = TrainedModel(spec, loss, params, np.zeros((1, 2)), 0)
    res = evaluate(model, DecisionRule("argmax"), (x, y), ALPHA6)
    assert res.csl == 0.0 and res.accuracy == 1.0


def test_evaluate_constant_prediction_base_rate(rng):
    x = rng.normal(size=(200, 2))
    y = (rng.random(200) < 0.3).astype(int)
    params = [(np.zeros((2, 2)), np.array([5.0, 0.0]))]  # always predict 0
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    from costbench.models import TrainedModel

    model = TrainedModel(ModelSpec("linear", 2, 2, init_seed=0), loss, params,
                         np.zeros((1, 2)), 0)
    res = evaluate(model, DecisionRule("argmax"), (x, y), ALPHA6)
    want = y.mean() * ALPHA6.entries[0, 1]  # every positive costs 5/6
    assert res.csl == pytest.approx(want, abs=1e-12)


def test_evaluate_order_invariant(rng):
    x, y = make_blobs(80, rng)
    loss = BoundLoss(LossSpec("cross_entropy", ALPHA6))
    model = train(ModelSpec("linear", 2, 2, init_seed=3), loss,
                  (x[:60], y[:60]), (x[60:], y[60:]),
                  TrainConfig(learning_rate=0.2, n_epochs=50))
    perm = rng.permutation(80)
    a = evaluate(model, DecisionRule("argmax"), (x, y), ALPHA6)
    b = evaluate(model, DecisionRule("argmax"), (x[perm], y[perm]), ALPHA6)
    assert a.csl == b.csl and a.accuracy == b.accuracy


@pytest.mark.parametrize("kind", ["cross_entropy", "scaled_cross_entropy", "embedding",
                                  "embedding_softmax", "weighted_hinge"])
def test_evaluate_cost_se_matches_second_pass(kind, rng):
    # The SE of the per-sample test cost, as a separate forward and decide
    # pass over the split computes it.
    x, y = make_blobs(80, rng, separation=1.0)
    loss = BoundLoss(LossSpec(kind, ALPHA6))
    model = train(ModelSpec("linear", 2, loss.out_dim, init_seed=3), loss,
                  (x[:60], y[:60]), (x[60:], y[60:]),
                  TrainConfig(learning_rate=0.2, n_epochs=20))
    rule = loss.default_rule()
    costs = ALPHA6.entries[loss.decide_batch(model.scores(x), rule), y]
    want = float(costs.std(ddof=1) / np.sqrt(len(costs)))
    assert want > 0
    assert evaluate(model, rule, (x, y), ALPHA6).cost_se == want
    assert evaluate(model, rule, (x[:1], y[:1]), ALPHA6).cost_se == 0.0


def test_evaluate_deferral_has_no_accuracy(rng):
    from costbench.costs import german_credit_deferral_matrix

    cost = german_credit_deferral_matrix()
    x, y = make_blobs(40, rng)
    loss = BoundLoss(LossSpec("embedding", cost))
    model = train(ModelSpec("linear", 2, 2, init_seed=3), loss,
                  (x[:30], y[:30]), (x[30:], y[30:]),
                  TrainConfig(learning_rate=0.2, n_epochs=30))
    res = evaluate(model, loss.default_rule(), (x, y), cost)
    assert res.accuracy is None
    assert res.confusion.shape == (3, 2)


# --- gradient check -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cross_entropy", "scaled_cross_entropy",
                                  "embedding", "embedding_softmax",
                                  "weighted_hinge"])
def test_gradient_check_linear(kind, rng):
    loss = BoundLoss(LossSpec(kind, ALPHA6))
    x, y = make_blobs(100, rng)
    err = gradient_check(ModelSpec("linear", 2, loss.out_dim, init_seed=7),
                         loss, x, y)
    assert err <= 1e-5, f"{kind}: {err}"


@pytest.mark.parametrize("kind", ["scaled_cross_entropy", "embedding",
                                  "embedding_softmax"])
def test_gradient_check_mlp(kind, rng):
    loss = BoundLoss(LossSpec(kind, ALPHA6))
    x, y = make_blobs(100, rng)
    spec = ModelSpec("mlp", 2, loss.out_dim, hidden_dims=(12, 12), init_seed=7)
    err = gradient_check(spec, loss, x, y)
    assert err <= 1e-5, f"{kind}: {err}"


# --- fused epoch against the reference loop ------------------------------------------


def _reference_mean_loss(params, loss, x, y):
    vals, _ = loss.batch(forward(params, x), y)
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
            _, grads = mean_loss_and_param_grads(params, loss, x_tr, y_tr)
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
    return TrainedModel(spec, loss, best_params, history, best_epoch)


LOSS_KIND_NAMES = ("cross_entropy", "scaled_cross_entropy", "embedding",
                   "embedding_softmax", "weighted_hinge")
TRAIN_MODES = {
    "linear_full_batch": (dict(kind="linear"), dict(learning_rate=1.0, n_epochs=60)),
    "mlp_full_batch": (dict(kind="mlp", hidden_dims=(16, 16)),
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
    loss = BoundLoss(LossSpec(kind, cost))
    tr, va = synthetic_splits
    spec_kw, cfg_kw = TRAIN_MODES[mode]
    spec = ModelSpec(in_dim=2, out_dim=loss.out_dim, init_seed=5, **spec_kw)
    cfg = TrainConfig(**cfg_kw)
    metric = None
    if selection == "val_csl":
        rule = loss.default_rule()

        def metric(params):
            preds = loss.decide_batch(forward(params, va[0]), rule)
            return cost_sensitive_loss(
                confusion(preds, va[1], cost.n_reports, cost.n_labels), cost)

    got = train(spec, loss, tr, va, cfg, selection_metric=metric)
    want = reference_train(spec, loss, tr, va, cfg, selection_metric=metric)
    _assert_same_model(got, want)
    if selection == "val_loss":
        assert got.best_epoch > 0  # selection moved off the initial model


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
    loss = BoundLoss(LossSpec(kind, synthetic_cost_matrix(1 / 6)))
    tr, va = synthetic_splits
    args = (ModelSpec("mlp", 2, loss.out_dim, hidden_dims=(16, 16), init_seed=1),
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
    loss = CappedLoss(LossSpec("cross_entropy", synthetic_cost_matrix(1 / 6)))
    loss.cap = 55.0
    args = (ModelSpec("linear", 2, 2, init_seed=1), loss, (x_tr, y_tr), va,
            TrainConfig(learning_rate=1.0, n_epochs=10))
    epoch = _diverged_epoch(reference_train, *args)
    assert epoch == 4
    assert _diverged_epoch(train, *args) == epoch
