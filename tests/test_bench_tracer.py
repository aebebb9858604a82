"""The benchmark's traced run depends on program names: keep them in reach.

bench/tracer.py rebinds functions and BoundLoss methods by name and names loss
spans after BoundLoss.kind. These tests load the tracer as the benchmark does
and fail when a refactor moves or renames something it needs.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from costbench import harness
from costbench.losses import LOSS_KINDS, LOSS_LABELS, BoundLoss

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracer):
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"costbench.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"costbench.{layer}.{name}"
    for name in ("batch", "decide_batch"):
        assert callable(getattr(BoundLoss, name, None)), f"BoundLoss.{name}"
    assert callable(harness._run_cell_star)


def test_traced_run_records_a_batch_span_per_loss_kind(tracer):
    cfg = harness.ExperimentConfig(n_samples=60, losses=LOSS_KINDS, n_epochs=2,
                                   n_seeds=1, workers=1)
    with tracer.Tracer().installed() as t:
        rows = harness.run_experiment(cfg)
    profile, _ = t.take()
    assert not any(r.failed for r in rows)
    batch_spans = {path[-1] for path in profile if path[-1].startswith("losses.batch.")}
    assert batch_spans == {f"losses.batch.{kind}" for kind in LOSS_KINDS}
    assert {path[0] for path in profile} == {"harness.run_experiment"}


def test_traced_run_records_a_decide_span_per_cell(tracer):
    # cross_entropy_post decides by postprocess_search's weights, through the
    # same traced BoundLoss.decide_batch as every other loss.
    cfg = harness.ExperimentConfig(n_samples=60, losses=LOSS_LABELS, n_epochs=2,
                                   n_seeds=2, workers=1)
    with tracer.Tracer().installed() as t:
        rows = harness.run_experiment(cfg)
    profile, _ = t.take()
    assert not any(r.failed for r in rows)
    decide_calls = {path: rec[tracer.CALLS] for path, rec in profile.items()
                    if path[-1] == "losses.decide_batch"}
    assert decide_calls == {("harness.run_experiment", "harness.run_cell",
                             "models.evaluate", "losses.decide_batch"): len(rows)}
    post = profile.sum(tracer.CALLS, leaf=lambda name: name == "losses.postprocess_search")
    assert post == cfg.n_seeds


def test_traced_train_makes_one_loss_pass_per_epoch(tracer):
    # The loss layer stays visible inside training: every epoch, the initial
    # model's included, makes exactly one traced `BoundLoss.batch` call.
    cfg = harness.ExperimentConfig(n_samples=60, losses=LOSS_KINDS, n_epochs=2,
                                   n_seeds=1, workers=1)
    with tracer.Tracer().installed() as t:
        rows = harness.run_experiment(cfg)
    profile, _ = t.take()
    assert not any(r.failed for r in rows)
    train_path = ("harness.run_experiment", "harness.run_cell", "models.train")
    assert profile[train_path][tracer.CALLS] == len(LOSS_KINDS)
    # One cell per loss kind, so each kind's count is one train span's.
    under_train = {path[-1]: rec[tracer.CALLS] for path, rec in profile.items()
                   if path[:-1] == train_path and path[-1].startswith("losses.batch.")}
    assert under_train == {f"losses.batch.{kind}": cfg.n_epochs + 1 for kind in LOSS_KINDS}
