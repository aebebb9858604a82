"""Configuration-driven experiment harness: seeded cells, aggregation, tables.

A run is a grid of (dataset, loss, seed) cells. Each cell derives its RNG
seeds through the documented 64-bit mixer so adding a loss never perturbs
other cells; the data subsample/split seed deliberately excludes the loss
name, so every loss within one seed index sees the same samples (paired
comparisons). Cells execute independently (optionally in a process pool) and
are sorted by cell key before aggregation, so parallelism never changes
output bytes.
"""
from __future__ import annotations

import concurrent.futures
import configparser
import csv
import io
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .costs import CostMatrix, synthetic_cost_matrix
from .losses import LOSS_KINDS, BoundLoss, LossSpec, postprocess_search
from .models import (
    DEFAULT_HIDDEN_DIMS,
    ModelSpec,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    forward,
    train,
)
from .seeding import mix_seed

DATASET_NAMES = (
    "synthetic",
    "german_credit",
    "german_credit_deferral",
    "student_performance",
    "diabetes",
)

# cross_entropy_post: cross-entropy decided by postprocess_search's weighted argmax.
LOSS_LABELS = LOSS_KINDS + ("cross_entropy_post",)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    n_samples: int = 500
    alpha: float = 1.0 / 6.0          # synthetic only
    losses: tuple[str, ...] = (
        "cross_entropy",
        "cross_entropy_post",
        "embedding",
        "embedding_softmax",
        "scaled_cross_entropy",
    )
    model_kind: str = "linear"
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    learning_rate: float | None = None  # None = per-model default
    n_epochs: int = 10000
    selection: str = "val_loss"         # or "val_csl"
    n_seeds: int = 20
    master_seed: int = 0
    postprocess_candidates: int = 100
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    workers: int = 1
    rows_csv: str = "results/rows.csv"
    table_path: str = "results/table.md"
    table_format: str = "markdown"

    def __post_init__(self):
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if not self.losses:
            raise ConfigError("losses must name at least one loss")
        for label in self.losses:
            if label not in LOSS_LABELS:
                raise ConfigError(f"unknown loss label {label!r}")
        if len(set(self.losses)) != len(self.losses):
            raise ConfigError(f"losses name a loss more than once: {self.losses}")
        if self.model_kind not in ("linear", "mlp"):
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        if self.selection not in ("val_loss", "val_csl"):
            raise ConfigError("selection must be val_loss or val_csl")
        if "cross_entropy_post" in self.losses and self.dataset == "german_credit_deferral":
            raise ConfigError(
                "cross_entropy_post is undefined when reports != labels "
                "(weighted argmax has no deferral score)"
            )
        # Reject a loss the dataset's matrix cannot take before any cell trains.
        try:
            cost = _dataset_cost_matrix(self.dataset, self.alpha)
        except ValueError as exc:
            raise ConfigError(f"bad alpha {self.alpha!r}: {exc}") from exc
        for label in self.losses:
            try:
                _loss_spec(label, cost)
            except ValueError as exc:
                raise ConfigError(
                    f"losses: {label} cannot train on the {self.dataset} "
                    f"cost matrix: {exc}"
                ) from exc

    @property
    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_LINEAR_LR if self.model_kind == "linear" else DEFAULT_MLP_LR


DEFAULT_LINEAR_LR = 1.0
DEFAULT_MLP_LR = 0.01


@dataclass(frozen=True, eq=False)
class ResultRow:
    dataset: str
    loss: str
    seed: int
    csl: float
    accuracy: float | None
    train_loss: float
    val_loss: float
    test_loss: float
    wall_time: float = 0.0           # not serialized: timings are not reproducible
    failed: str = ""                 # nonempty = cell error message
    confusion: np.ndarray | None = None
    test_cost_se: float | None = None
    boundary_slope: float | None = None  # linear 2-feature models only


ROW_FIELDS = ("dataset", "loss", "seed", "csl", "accuracy",
              "train_loss", "val_loss", "test_loss", "failed")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows: list[ResultRow], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ROW_FIELDS)
        for r in rows:
            w.writerow([_fmt(getattr(r, f)) for f in ROW_FIELDS])


def read_rows_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(
                ResultRow(
                    dataset=rec["dataset"],
                    loss=rec["loss"],
                    seed=int(rec["seed"]),
                    csl=float(rec["csl"]) if rec["csl"] else float("nan"),
                    accuracy=float(rec["accuracy"]) if rec["accuracy"] else None,
                    train_loss=float(rec["train_loss"]) if rec["train_loss"] else float("nan"),
                    val_loss=float(rec["val_loss"]) if rec["val_loss"] else float("nan"),
                    test_loss=float(rec["test_loss"]) if rec["test_loss"] else float("nan"),
                    failed=rec.get("failed", "") or "",
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Config file parsing: flat key = value with [section] headers (INI).
# ---------------------------------------------------------------------------

def _parse_fraction(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


# (section, key) in a config file -> (ExperimentConfig field, value parser).
_CONFIG_KEYS = {
    ("experiment", "dataset"): ("dataset", str.strip),
    ("experiment", "n_samples"): ("n_samples", int),
    ("experiment", "alpha"): ("alpha", _parse_fraction),
    ("experiment", "losses"): ("losses", _parse_names),
    ("experiment", "n_seeds"): ("n_seeds", int),
    ("experiment", "master_seed"): ("master_seed", int),
    ("experiment", "workers"): ("workers", int),
    ("model", "kind"): ("model_kind", str.strip),
    ("model", "hidden_dims"): ("hidden_dims", _parse_ints),
    ("train", "learning_rate"): ("learning_rate", float),
    ("train", "n_epochs"): ("n_epochs", int),
    ("train", "selection"): ("selection", str.strip),
    ("postprocess", "n_candidates"): ("postprocess_candidates", int),
    ("output", "rows_csv"): ("rows_csv", str.strip),
    ("output", "table"): ("table_path", str.strip),
    ("output", "format"): ("table_format", str.strip),
}
_CONFIG_SECTIONS = {section for section, _ in _CONFIG_KEYS}


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    kwargs = {}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if (section, key) not in _CONFIG_KEYS:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            name, parse = _CONFIG_KEYS[section, key]
            try:
                kwargs[name] = parse(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(
                    f"{path}: bad value for {key!r} in [{section}]: {exc}"
                ) from exc
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Cell execution.
# ---------------------------------------------------------------------------


def _dataset_cost_matrix(dataset: str, alpha: float) -> CostMatrix:
    """The cost matrix a dataset's cells train against; reads no data file."""
    if dataset == "synthetic":
        return synthetic_cost_matrix(alpha)
    return data_mod.UCI_SPECS[dataset].cost_factory()


def load_dataset(cfg: ExperimentConfig, split_seed: int):
    """Dataset + cost matrix + splits for one seed index."""
    if cfg.dataset == "synthetic":
        ds = data_mod.sample_synthetic(cfg.n_samples, rng_seed=split_seed)
        ds = replace(ds, source={**ds.source, "alpha": cfg.alpha})
    else:
        ds, _ = data_mod.load_uci(cfg.dataset)
    cost = _dataset_cost_matrix(cfg.dataset, cfg.alpha)
    splits = data_mod.subsample_and_split(ds, cfg.n_samples, cfg.fractions, seed=split_seed)
    return ds, cost, splits


def _loss_spec(label: str, cost: CostMatrix) -> LossSpec:
    return LossSpec("cross_entropy" if label == "cross_entropy_post" else label, cost)


def make_loss(label: str, cost: CostMatrix) -> BoundLoss:
    return BoundLoss(_loss_spec(label, cost))


def run_cell(cfg: ExperimentConfig, label: str, seed_index: int) -> ResultRow:
    """Train and evaluate one (dataset, loss, seed) cell."""
    start = time.perf_counter()
    split_seed = mix_seed(cfg.master_seed, cfg.dataset, seed_index, "split")
    cell_seed = mix_seed(cfg.master_seed, cfg.dataset, label, seed_index)
    try:
        ds, cost, splits = load_dataset(cfg, split_seed)
        tr = data_mod.split_xy(ds, splits.train)
        va = data_mod.split_xy(ds, splits.val)
        te = data_mod.split_xy(ds, splits.test)
        loss = make_loss(label, cost)
        spec = ModelSpec(
            kind=cfg.model_kind,
            in_dim=ds.n_features,
            out_dim=loss.out_dim,
            hidden_dims=cfg.hidden_dims,
            init_seed=cell_seed,
        )
        tcfg = TrainConfig(learning_rate=cfg.effective_learning_rate, n_epochs=cfg.n_epochs)
        rule = loss.default_rule()
        selection_metric = None
        if cfg.selection == "val_csl":
            from .costs import confusion as conf_fn, cost_sensitive_loss as csl_fn

            def selection_metric(params, _loss=loss, _rule=rule, _va=va, _cost=cost):
                preds = _loss.decide_batch(forward(params, _va[0]), _rule)
                cm = conf_fn(preds, _va[1], _cost.n_reports, _cost.n_labels)
                return csl_fn(cm, _cost)

        model = train(spec, loss, tr, va, tcfg, selection_metric=selection_metric)
        if label == "cross_entropy_post":
            rule = postprocess_search(
                model.scores(va[0]),
                va[1],
                cost,
                n_candidates=cfg.postprocess_candidates,
                rng_seed=mix_seed(cell_seed, "post"),
            )
        result = evaluate(model, rule, te, cost)
        slope = None
        if cfg.model_kind == "linear" and ds.n_features == 2 and spec.out_dim <= 2:
            from .diagnostics import boundary_slope

            rep = boundary_slope(model, label)
            slope = float("nan") if rep.degenerate else rep.slope
        return ResultRow(
            dataset=cfg.dataset,
            loss=label,
            seed=seed_index,
            csl=result.csl,
            accuracy=result.accuracy,
            train_loss=float(model.history[model.best_epoch, 0]),
            val_loss=float(model.history[model.best_epoch, 1]),
            test_loss=result.surrogate_loss,
            wall_time=time.perf_counter() - start,
            confusion=result.confusion,
            test_cost_se=result.cost_se,
            boundary_slope=slope,
        )
    except TrainingDiverged as exc:
        return ResultRow(cfg.dataset, label, seed_index, float("nan"), None,
                         float("nan"), float("nan"), float("nan"),
                         wall_time=time.perf_counter() - start,
                         failed=f"diverged at epoch {exc.epoch}")


def _run_cell_star(args) -> ResultRow:
    return run_cell(*args)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """All (loss, seed) cells of a config, in deterministic order.

    A cell whose training diverges is recorded as a failed row and the other
    cells still run. Any other exception in a cell propagates and ends the
    run, as do configuration-level errors (missing dataset, bad loss label).
    """
    if cfg.dataset != "synthetic":
        # Surface missing-file errors before any training happens.
        data_mod.load_uci(cfg.dataset)
    tasks = [
        (cfg, label, seed_index)
        for label in cfg.losses
        for seed_index in range(cfg.n_seeds)
    ]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_run_cell_star, tasks, chunksize=1))
    else:
        rows = [run_cell(*t) for t in tasks]
    order = {label: i for i, label in enumerate(cfg.losses)}
    rows.sort(key=lambda r: (r.dataset, order[r.loss], r.seed))
    return rows


# ---------------------------------------------------------------------------
# Aggregation and table output.
# ---------------------------------------------------------------------------

METRICS = ("csl", "accuracy", "train_loss", "val_loss", "test_loss")


@dataclass(frozen=True)
class AggregateCell:
    dataset: str
    loss: str
    metric: str
    mean: float
    sem: float
    n: int
    single: bool = False  # sem is 0 by convention when n == 1


def aggregate(rows: list[ResultRow]) -> list[AggregateCell]:
    """Mean and standard error of the mean per (dataset, loss, metric).

    Ordering follows first appearance of (dataset, loss) in the rows; failed
    cells are excluded from the statistics.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    groups: dict[tuple[str, str], list[ResultRow]] = {}
    for r in rows:
        groups.setdefault((r.dataset, r.loss), []).append(r)
    cells = []
    for (dataset, loss), members in groups.items():
        ok = [m for m in members if not m.failed]
        for metric in METRICS:
            vals = [getattr(m, metric) for m in ok]
            vals = [v for v in vals if v is not None and np.isfinite(v)]
            if not vals:
                continue
            arr = np.array(vals, dtype=float)
            single = len(arr) == 1
            sem = 0.0 if single else float(arr.std(ddof=1) / np.sqrt(len(arr)))
            cells.append(
                AggregateCell(dataset, loss, metric, float(arr.mean()), sem,
                              len(arr), single)
            )
    return cells


def emit_table(cells: list[AggregateCell], fmt: str, path=None) -> str:
    """Render aggregates as CSV or a markdown table; optionally write to path."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["dataset", "loss", "metric", "mean", "sem", "n"])
        for c in cells:
            w.writerow([c.dataset, c.loss, c.metric, repr(c.mean), repr(c.sem), c.n])
        text = buf.getvalue()
    elif fmt == "markdown":
        text = _markdown_table(cells)
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text


def _markdown_table(cells: list[AggregateCell]) -> str:
    by_key: dict[tuple[str, str], dict[str, AggregateCell]] = {}
    dataset_order: list[str] = []
    loss_order: dict[str, list[str]] = {}
    for c in cells:
        by_key.setdefault((c.dataset, c.loss), {})[c.metric] = c
        if c.dataset not in dataset_order:
            dataset_order.append(c.dataset)
            loss_order[c.dataset] = []
        if c.loss not in loss_order[c.dataset]:
            loss_order[c.dataset].append(c.loss)
    lines = [
        "| Dataset | Loss | Cost-Sensitive Loss | Accuracy |",
        "|---|---|---|---|",
    ]
    for dataset in dataset_order:
        best_csl = min(
            by_key[(dataset, loss)]["csl"].mean
            for loss in loss_order[dataset]
            if "csl" in by_key[(dataset, loss)]
        )
        for loss in loss_order[dataset]:
            metrics = by_key[(dataset, loss)]
            csl = metrics.get("csl")
            acc = metrics.get("accuracy")
            csl_text = "-"
            if csl is not None:
                csl_text = f"{csl.mean:.3f} ± {csl.sem:.3f}"
                if csl.mean == best_csl:
                    csl_text = f"**{csl_text}**"
            acc_text = f"{acc.mean:.3f} ± {acc.sem:.3f}" if acc is not None else "-"
            lines.append(f"| {dataset} | {loss} | {csl_text} | {acc_text} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Ablation presets.
# ---------------------------------------------------------------------------

FULL_DATA_SIZES = {
    "synthetic": 10000,
    "german_credit": 1000,
    "german_credit_deferral": 1000,
    "student_performance": 4424,
    "diabetes": 253680,
}

ABLATION_PRESETS = ("full_data", "mlp")


def apply_preset(cfg: ExperimentConfig, preset: str) -> ExperimentConfig:
    if preset == "full_data":
        n = FULL_DATA_SIZES.get(cfg.dataset)
        if n is None:
            raise ConfigError(f"no full-data size known for {cfg.dataset}")
        return replace(cfg, n_samples=n)
    if preset == "mlp":
        return replace(cfg, model_kind="mlp", learning_rate=None)
    raise ConfigError(f"unknown preset {preset!r}; one of {ABLATION_PRESETS}")
