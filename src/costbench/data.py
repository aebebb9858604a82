"""Datasets: the synthetic two-feature task with known posterior, UCI loaders,
and deterministic subsample/split machinery.

The synthetic task draws a balanced binary label in {-1, +1} (stored as
indices 0 and 1), a scale feature x2 uniform on [0, 1], and x1 normal with
mean y * x2 and standard deviation x2. Its posterior and cost-optimal decision
boundary are available in closed form, which makes it the workhorse for the
calibration diagnostics.

Raw UCI files live under <data_dir>/<name>/raw.<ext> next to an optional
``manifest`` file recording the expected sha256; a mismatch warns rather than
fails. Loading parses the raw file and writes nothing to the data directory.
The data directory is ./data by default, overridden by $COSTBENCH_DATA_DIR.
"""
from __future__ import annotations

import hashlib
import os
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .costs import (
    german_credit_deferral_matrix,
    german_credit_matrix,
    severity_three_class_matrix,
)


def data_dir() -> Path:
    return Path(os.environ.get("COSTBENCH_DATA_DIR", "data"))


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    label_map: dict[str, int]

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        l = np.asarray(self.labels, dtype=int)
        if f.ndim != 2 or l.ndim != 1 or len(f) != len(l):
            raise ValueError("features must be (n, d) with n matching labels")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain non-finite values")
        if l.size and (l.min() < 0 or l.max() >= len(self.label_map)):
            raise ValueError("labels out of range of label_map")
        f.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def split_xy(ds: Dataset, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ds.features[idx], ds.labels[idx]


# ---------------------------------------------------------------------------
# Synthetic task.
# ---------------------------------------------------------------------------

SYNTHETIC_LABEL_MAP = {"-1": 0, "+1": 1}


def sample_synthetic(n: int, rng_seed: int) -> Dataset:
    """Draw n i.i.d. samples of the two-feature synthetic task."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    y_sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    x2 = rng.uniform(0.0, 1.0, n)
    x1 = rng.normal(y_sign * x2, x2)
    labels = (y_sign > 0).astype(int)
    return Dataset(
        features=np.column_stack([x1, x2]),
        labels=labels,
        label_map=dict(SYNTHETIC_LABEL_MAP),
    )


def posterior_pos_many(x: np.ndarray) -> np.ndarray:
    """P[label=+1 | x] for rows of x: the ratio of the two Gaussian densities
    reduces to logistic(2 * x1 / x2). Requires x2 > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x[:, 1] > 0):  # a NaN x2 fails too
        raise ValueError("posterior requires x2 > 0")
    z = 2.0 * x[:, 0] / x[:, 1]
    ez = np.exp(np.where(z >= 0, -z, z))  # exp(-|z|): no overflow, NaN kept
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def bayes_decision_many(x: np.ndarray, alpha: float) -> np.ndarray:
    """Cost-optimal decisions in {-1, +1} for the binary alpha cost matrix.

    Each row decides +1 iff x1 >= (x2 / 2) * log(alpha / (1 - alpha)); the
    boundary itself decides +1. alpha = 1/2 reduces to sign(x1).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    x = np.asarray(x, dtype=float)
    if not np.all(x[:, 1] > 0):  # a NaN x2 fails too
        raise ValueError("bayes decision requires x2 > 0")
    thresh = 0.5 * x[:, 1] * np.log(alpha / (1.0 - alpha))
    return np.where(x[:, 0] >= thresh, 1, -1)


# ---------------------------------------------------------------------------
# UCI loaders.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UciSpec:
    dirname: str
    filename: str
    delimiter: str | None  # None = any whitespace
    label_column: str | int  # header name (the file has a header), or headerless index
    label_values: tuple[str, ...] | None  # ordered raw values; None = numeric codes
    cost_factory: object  # its matrix's n_labels is the number of classes
    url: str
    expected_rows: int

    def raw_path(self) -> Path:
        """The raw file under data_dir(), which reads the environment on each call."""
        return data_dir() / self.dirname / self.filename


_GERMAN_CREDIT = UciSpec(
    dirname="german_credit",
    filename="raw.data",
    delimiter=None,
    label_column=-1,
    label_values=("1", "2"),  # 1 = good risk -> 0, 2 = bad risk -> 1
    cost_factory=german_credit_matrix,
    url="https://archive.ics.uci.edu/dataset/144/statlog+german+credit+data",
    expected_rows=1000,
)

UCI_SPECS: dict[str, UciSpec] = {
    "german_credit": _GERMAN_CREDIT,
    # The same raw file, with an extra defer report in the costs.
    "german_credit_deferral": replace(_GERMAN_CREDIT,
                                      cost_factory=german_credit_deferral_matrix),
    "student_performance": UciSpec(
        dirname="student_performance",
        filename="raw.csv",
        delimiter=";",
        label_column="Target",
        label_values=("Dropout", "Enrolled", "Graduate"),
        cost_factory=severity_three_class_matrix,
        url="https://archive.ics.uci.edu/dataset/697/predict+students+dropout+and+academic+success",
        expected_rows=4424,
    ),
    "diabetes": UciSpec(
        dirname="diabetes",
        filename="raw.csv",
        delimiter=",",
        label_column="Diabetes_012",
        label_values=None,  # 0 = none, 1 = pre-diabetic, 2 = diabetic
        cost_factory=severity_three_class_matrix,
        url="https://archive.ics.uci.edu/dataset/891/cdc+diabetes+health+indicators",
        expected_rows=253680,
    ),
}

_MISSING_TOKENS = {"", "?", "NA", "NaN", "nan"}

# Per-process memo: datasets are immutable, and benchmark runs reload the
# same file once per (loss, seed) cell otherwise.
_LOAD_MEMO: dict = {}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_manifest(name: str, raw_path: Path) -> None:
    digest = _sha256(raw_path)
    manifest = raw_path.parent / "manifest"
    if manifest.exists():
        recorded = {}
        for line in manifest.read_text().splitlines():
            toks = line.split()
            if len(toks) == 2:
                recorded[toks[0]] = toks[1]
        want = recorded.get("sha256")
        if want and want != digest:
            warnings.warn(
                f"{name}: raw file hash {digest[:12]}... does not match "
                f"manifest {want[:12]}...; proceeding with the file on disk"
            )


def _parse_delimited(text: str, spec: UciSpec) -> tuple[list[str] | None, list[list[str]]]:
    rows = []
    header = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        toks = line.split(spec.delimiter) if spec.delimiter else line.split()
        toks = [t.strip().strip('"') for t in toks]
        if header is None and isinstance(spec.label_column, str):
            header = toks
            continue
        rows.append(toks)
    return header, rows


def load_uci(name: str) -> Dataset:
    """Load and preprocess a named UCI dataset from its raw file.

    Incomplete rows are dropped. A column is numeric when every token parses
    as a float; it is standardized to mean 0 and variance 1 over the full
    dataset (before any subsampling), and a constant column is only centered.
    Any other column is one-hot encoded over its sorted distinct values.
    """
    if name not in UCI_SPECS:
        raise ValueError(f"unknown dataset {name!r}; one of {sorted(UCI_SPECS)}")
    spec = UCI_SPECS[name]
    raw_path = spec.raw_path()
    if not raw_path.exists():
        raise FileNotFoundError(
            f"{name}: raw file {raw_path} not found; fetch it from {spec.url} "
            f"(see scripts/fetch_uci.py)"
        )
    stat = raw_path.stat()
    memo_key = (name, str(raw_path), stat.st_mtime_ns, stat.st_size)
    if memo_key in _LOAD_MEMO:
        return _LOAD_MEMO[memo_key]
    _check_manifest(name, raw_path)

    header, rows = _parse_delimited(raw_path.read_text(), spec)
    if not rows:
        raise ValueError(f"{name}: no data rows in {raw_path}")

    # The header sets the row width; without one, the most common row length
    # does, so a short first row is dropped like any other incomplete row.
    if header is not None:
        n_cols = len(header)
    else:
        n_cols = Counter(map(len, rows)).most_common(1)[0][0]
    if isinstance(spec.label_column, int):
        label_idx = spec.label_column % n_cols
    else:
        if header is None or spec.label_column not in header:
            raise ValueError(f"{name}: label column {spec.label_column!r} not found")
        label_idx = header.index(spec.label_column)

    complete = [r for r in rows if len(r) == n_cols and _MISSING_TOKENS.isdisjoint(r)]
    if not complete:
        raise ValueError(f"{name}: every row was incomplete")
    # One list per column. zip(*complete) would allocate an iterator per row,
    # and the garbage collections that triggers double the transpose time.
    columns = [[r[j] for r in complete] for j in range(n_cols)]
    raw_labels = columns.pop(label_idx)

    if spec.label_values is not None:
        label_map = {v: i for i, v in enumerate(spec.label_values)}
        try:
            labels = np.array([label_map[v] for v in raw_labels], dtype=int)
        except KeyError as exc:
            raise ValueError(f"{name}: unexpected label value {exc}") from None
    else:
        codes = []
        for v in raw_labels:
            code = float(v)
            if not code.is_integer():
                raise ValueError(f"{name}: non-integer label value {v!r}")
            codes.append(int(code))
        label_map = {str(c): c for c in sorted(set(codes))}
        labels = np.array(codes, dtype=int)
    n_classes = spec.cost_factory().n_labels
    if len(label_map) != n_classes:
        raise ValueError(
            f"{name}: found {len(label_map)} classes, expected {n_classes}"
        )
    if sorted(label_map.values()) != list(range(n_classes)):
        raise ValueError(f"{name}: label codes must be 0..{n_classes - 1}, "
                         f"got {sorted(label_map.values())}")

    blocks = []
    for column in columns:
        try:
            vals = np.fromiter(map(float, column), float, len(column))
        except ValueError:
            index = {c: j for j, c in enumerate(sorted(set(column)))}
            positions = np.array([index[t] for t in column])
            blocks.append(positions[:, None] == np.arange(len(index)))
            continue
        scale = vals.std()
        if scale == 0.0:
            scale = 1.0  # constant column: centered, left unscaled
        blocks.append(((vals - vals.mean()) / scale)[:, None])

    ds = Dataset(
        features=np.hstack(blocks),
        labels=labels,
        label_map={str(k): v for k, v in label_map.items()},
    )
    if len(ds) != spec.expected_rows:
        warnings.warn(
            f"{name}: parsed {len(ds)} rows, expected {spec.expected_rows}"
        )
    _LOAD_MEMO[memo_key] = ds
    return ds


SPLIT_FRACTIONS = (0.6, 0.2, 0.2)  # train, validation, test


def split_sizes(n: int) -> tuple[int, int, int]:
    """Train, validation and test sizes of an n-row split under SPLIT_FRACTIONS."""
    n_train = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = min(int(round(SPLIT_FRACTIONS[1] * n)), n - n_train)
    return n_train, n_val, n - n_train - n_val


def subsample_and_split(
    ds: Dataset, n: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed-deterministic subsample of n rows, then train, val and test indices.

    The three index arrays are disjoint: they are slices of one draw without
    replacement.
    """
    if n > len(ds):
        raise ValueError(f"cannot subsample {n} rows from {len(ds)}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(ds), size=n, replace=False)
    n_train, n_val, _ = split_sizes(n)
    return chosen[:n_train], chosen[n_train : n_train + n_val], chosen[n_train + n_val :]
