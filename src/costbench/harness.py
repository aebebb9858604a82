"""Configuration-driven experiment harness: seeded cells, aggregation, tables.

A run is a grid of (dataset, loss, seed) cells. Each cell derives its RNG
seeds through the documented 64-bit mixer so adding a loss never perturbs
other cells; the data subsample/split seed deliberately excludes the loss
name, so every loss within one seed index sees the same samples (paired
comparisons). Cells execute independently (optionally in a process pool) and
come back in task order, so parallelism never changes output bytes.
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
from .costs import CostMatrix, confusion, cost_sensitive_loss, synthetic_cost_matrix
from .diagnostics import _rewrite, boundary_slope
from .losses import BoundLoss, check_loss, postprocess_search
from .models import ModelSpec, TrainConfig, TrainingDiverged, evaluate, forward, train
from .seeding import mix_seed

DATASET_NAMES = ("synthetic", *data_mod.UCI_SPECS)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


SYNTHETIC_ALPHA = 1.0 / 6.0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    n_samples: int = 500
    alpha: float = SYNTHETIC_ALPHA    # synthetic only
    losses: tuple[str, ...] = (
        "cross_entropy",
        "cross_entropy_post",
        "embedding",
        "embedding_softmax",
        "scaled_cross_entropy",
    )
    hidden_dims: tuple[int, ...] = ()   # ReLU MLP widths; none is a linear model
    learning_rate: float | None = None  # None = per-model default
    n_epochs: int = 10000
    selection: str = "val_loss"         # or "val_csl"
    n_seeds: int = 20
    master_seed: int = 0
    workers: int = 1
    rows_csv: str = "results/rows.csv"
    table_path: str = "results/table.md"

    def __post_init__(self):
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(f"[experiment] dataset {self.dataset!r} is not one of "
                              f"{DATASET_NAMES}")
        if self.dataset != "synthetic" and self.alpha != SYNTHETIC_ALPHA:
            raise ConfigError(
                f"[experiment] alpha applies to the synthetic dataset only; {self.dataset} "
                f"trains on its own cost matrix (got alpha={self.alpha!r})"
            )
        if self.n_seeds < 1:
            raise ConfigError(f"[experiment] n_seeds must be >= 1, got {self.n_seeds!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"[experiment] master_seed must be in [0, 2**64), "
                              f"got {self.master_seed!r}")
        if self.workers < 1:
            raise ConfigError(f"[experiment] workers must be >= 1, got {self.workers!r}")
        if min(sizes := data_mod.split_sizes(self.n_samples)) < 1:
            raise ConfigError(f"[experiment] n_samples = {self.n_samples} leaves a split "
                              f"empty under fractions {data_mod.SPLIT_FRACTIONS}: {sizes}")
        if not self.losses:
            raise ConfigError("[experiment] losses must name at least one loss")
        if len(set(self.losses)) != len(self.losses):
            raise ConfigError(f"[experiment] losses name a loss more than once: {self.losses}")
        if self.hidden_dims and min(self.hidden_dims) < 1:
            raise ConfigError(f"[model] hidden_dims must be positive, got {self.hidden_dims}")
        if self.selection not in ("val_loss", "val_csl"):
            raise ConfigError(f"[train] selection must be val_loss or val_csl, "
                              f"got {self.selection!r}")
        try:
            TrainConfig(self.effective_learning_rate, self.n_epochs)
        except ValueError as exc:
            raise ConfigError(f"[train] {exc}") from exc
        # Reject a loss the dataset's matrix cannot take before any cell trains.
        try:
            cost = _dataset_cost_matrix(self.dataset, self.alpha)
        except ValueError as exc:
            raise ConfigError(f"[experiment] alpha {self.alpha!r}: {exc}") from exc
        for label in self.losses:
            try:
                check_loss(label, cost)
            except ValueError as exc:
                raise ConfigError(
                    f"[experiment] losses: {label} cannot train on the {self.dataset} "
                    f"cost matrix: {exc}"
                ) from exc

    @property
    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_MLP_LR if self.hidden_dims else DEFAULT_LINEAR_LR


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
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(ROW_FIELDS)
    for r in rows:
        w.writerow([_fmt(getattr(r, f)) for f in ROW_FIELDS])
    _rewrite(path, buf.getvalue(), newline="")


def _float_or_nan(text: str) -> float:
    return float(text) if text else float("nan")


# How read_rows_csv parses each field that is not text.
_ROW_PARSERS = dict(seed=int, accuracy=lambda text: float(text) if text else None,
                    **dict.fromkeys(("csl", "train_loss", "val_loss", "test_loss"),
                                    _float_or_nan))


def read_rows_csv(path) -> list[ResultRow]:
    """Rows of a rows CSV; a missing column or a bad value raises ValueError
    naming the file (and the line)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in ROW_FIELDS if f not in (reader.fieldnames or ROW_FIELDS)]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for rec in reader:
            try:
                if None in rec or None in rec.values():  # a long or a short row
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                rows.append(ResultRow(**{f: _ROW_PARSERS.get(f, str)(rec[f])
                                         for f in ROW_FIELDS}))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
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
    ("model", "hidden_dims"): ("hidden_dims", _parse_ints),
    ("train", "learning_rate"): ("learning_rate", float),
    ("train", "n_epochs"): ("n_epochs", int),
    ("train", "selection"): ("selection", str.strip),
    ("output", "rows_csv"): ("rows_csv", str.strip),
    ("output", "table"): ("table_path", str.strip),
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
    else:
        ds = data_mod.load_uci(cfg.dataset)
    cost = _dataset_cost_matrix(cfg.dataset, cfg.alpha)
    splits = data_mod.subsample_and_split(ds, cfg.n_samples, seed=split_seed)
    return ds, cost, splits


def make_loss(label: str, cost: CostMatrix) -> BoundLoss:
    return BoundLoss(label, cost)


def run_cell(cfg: ExperimentConfig, label: str, seed_index: int) -> ResultRow:
    """Train and evaluate one (dataset, loss, seed) cell."""
    start = time.perf_counter()
    split_seed = mix_seed(cfg.master_seed, cfg.dataset, seed_index, "split")
    cell_seed = mix_seed(cfg.master_seed, cfg.dataset, label, seed_index)
    try:
        ds, cost, splits = load_dataset(cfg, split_seed)
        tr, va, te = (data_mod.split_xy(ds, idx) for idx in splits)
        loss = make_loss(label, cost)
        spec = ModelSpec(
            in_dim=ds.n_features,
            out_dim=loss.out_dim,
            hidden_dims=cfg.hidden_dims,
            init_seed=cell_seed,
        )
        tcfg = TrainConfig(learning_rate=cfg.effective_learning_rate, n_epochs=cfg.n_epochs)
        selection_metric = None
        if cfg.selection == "val_csl":
            def selection_metric(s_va):
                cm = confusion(loss.decide_batch(s_va), va[1], cost.n_reports, cost.n_labels)
                return cost_sensitive_loss(cm, cost)

        model = train(spec, loss, tr, va, tcfg, selection_metric=selection_metric)
        weights = None
        if label == "cross_entropy_post":
            weights = postprocess_search(
                forward(model.params, va[0]),
                va[1],
                cost,
                rng_seed=mix_seed(cell_seed, "post"),
            )
        result = evaluate(model, te, cost, weights)
        slope = None
        if not cfg.hidden_dims and ds.n_features == 2 and spec.out_dim <= 2:
            rep = boundary_slope(model)
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
    """All (loss, seed) cells of a config in task order (losses as listed, seeds
    ascending), which the pool keeps: `Executor.map` yields in input order.

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
    n: int  # sem is 0 by convention when n == 1


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
            sem = 0.0 if len(arr) == 1 else float(arr.std(ddof=1) / np.sqrt(len(arr)))
            cells.append(
                AggregateCell(dataset, loss, metric, float(arr.mean()), sem, len(arr))
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
        _rewrite(path, text)
    return text


def _markdown_table(cells: list[AggregateCell]) -> str:
    # dataset -> loss -> metric; dicts keep the order of first appearance.
    groups: dict[str, dict[str, dict[str, AggregateCell]]] = {}
    for c in cells:
        groups.setdefault(c.dataset, {}).setdefault(c.loss, {})[c.metric] = c
    lines = [
        "| Dataset | Loss | Cost-Sensitive Loss | Accuracy |",
        "|---|---|---|---|",
    ]
    for dataset, by_loss in groups.items():
        best_csl = min((m["csl"].mean for m in by_loss.values() if "csl" in m), default=None)
        for loss, metrics in by_loss.items():
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

FULL_DATA_SYNTHETIC = 10000  # UCI datasets use every row of the raw file
MLP_HIDDEN_DIMS = (100, 100, 100, 100)  # the mlp preset's, if the config names none

ABLATION_PRESETS = ("full_data", "mlp")


def _suffixed(name: str, preset: str) -> str:
    path = Path(name)
    return str(path.with_name(f"{path.stem}_{preset}{path.suffix}"))


def apply_preset(cfg: ExperimentConfig, preset: str) -> ExperimentConfig:
    """The config under a preset; it writes <stem>_<preset><suffix> beside the
    outputs the config names."""
    if preset == "full_data":
        n = (FULL_DATA_SYNTHETIC if cfg.dataset == "synthetic"
             else data_mod.UCI_SPECS[cfg.dataset].expected_rows)
        changes = {"n_samples": n}
    elif preset == "mlp":
        changes = {"hidden_dims": cfg.hidden_dims or MLP_HIDDEN_DIMS, "learning_rate": None}
    else:
        raise ConfigError(f"unknown preset {preset!r}; one of {ABLATION_PRESETS}")
    return replace(cfg, **changes, rows_csv=_suffixed(cfg.rows_csv, preset),
                   table_path=_suffixed(cfg.table_path, preset))
