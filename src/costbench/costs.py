"""Cost matrices, conditional risks, Bayes-optimal decisions, and metrics.

Conventions: a cost matrix has one row per report r (the decision) and one
column per label y (the outcome); entry (r, y) is the nonnegative cost of
deciding r when the truth is y. Reports and labels are 0-based indices;
display names are metadata only.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Absolute tolerance for argmin ties in expected cost.
TIE_EPS = 1e-9
# Probability vectors must sum to 1 within this tolerance.
SIMPLEX_SUM_EPS = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Dense reports x labels matrix of nonnegative, finite costs."""

    entries: np.ndarray
    report_names: tuple[str, ...] = ()
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        e = _readonly(self.entries)
        if e.ndim != 2:
            raise ValueError("cost matrix must be 2-dimensional")
        if e.shape[0] < 2 or e.shape[1] < 2:
            raise ValueError("cost matrix needs at least 2 reports and 2 labels")
        if not np.all(np.isfinite(e)):
            raise ValueError("cost matrix entries must be finite")
        if np.any(e < 0):
            raise ValueError("cost matrix entries must be nonnegative")
        object.__setattr__(self, "entries", e)
        if not self.report_names:
            object.__setattr__(
                self, "report_names", tuple(f"r{i}" for i in range(e.shape[0]))
            )
        if not self.label_names:
            object.__setattr__(
                self, "label_names", tuple(f"y{i}" for i in range(e.shape[1]))
            )
        if len(self.report_names) != e.shape[0] or len(self.label_names) != e.shape[1]:
            raise ValueError("name tuples must match matrix shape")

    @property
    def n_reports(self) -> int:
        return self.entries.shape[0]

    @property
    def n_labels(self) -> int:
        return self.entries.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_reports == self.n_labels

    def scaled(self, factor: float) -> "CostMatrix":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return CostMatrix(self.entries * factor, self.report_names, self.label_names)


@dataclass(frozen=True, eq=False)
class SimplexDist:
    """A probability vector over labels."""

    probs: np.ndarray

    def __post_init__(self):
        p = _readonly(self.probs)
        if p.ndim != 1:
            raise ValueError("probability vector must be 1-dimensional")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > SIMPLEX_SUM_EPS:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def n_labels(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts of (predicted report, true label) pairs."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts)
        if c.ndim != 2:
            raise ValueError("confusion counts must be 2-dimensional")
        if np.any(c < 0) or not np.issubdtype(c.dtype, np.integer):
            raise ValueError("confusion counts must be nonnegative integers")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


def _check_dist(cost: CostMatrix, p: SimplexDist) -> np.ndarray:
    if p.n_labels != cost.n_labels:
        raise ValueError(
            f"distribution has {p.n_labels} labels, cost matrix has {cost.n_labels}"
        )
    return p.probs


def expected_cost(cost: CostMatrix, p: SimplexDist, r: int) -> float:
    """Expected cost of deciding r when the label follows p."""
    probs = _check_dist(cost, p)
    if not 0 <= r < cost.n_reports:
        raise IndexError(f"report index {r} out of range [0, {cost.n_reports})")
    return float(cost.entries[r] @ probs)


def expected_costs(cost: CostMatrix, p: SimplexDist) -> np.ndarray:
    """Expected cost of every report under p."""
    return cost.entries @ _check_dist(cost, p)


def bayes_optimal_reports(
    cost: CostMatrix, p: SimplexDist, tie_eps: float = TIE_EPS
) -> tuple[int, ...]:
    """All reports minimizing expected cost under p, ascending, ties within tie_eps."""
    costs = expected_costs(cost, p)
    best = costs.min()
    return tuple(int(r) for r in np.flatnonzero(costs <= best + tie_eps))


def bayes_risk(cost: CostMatrix, p: SimplexDist) -> float:
    """Minimal expected cost over reports; concave piecewise-linear in p."""
    return float(expected_costs(cost, p).min())


def confusion(
    preds, labels, n_reports: int | None = None, n_labels: int | None = None
) -> ConfusionMatrix:
    """Count (prediction, label) pairs into a reports x labels matrix."""
    preds = np.asarray(preds, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("preds and labels must be equal-length 1-d sequences")
    if n_reports is None:
        n_reports = int(preds.max()) + 1 if preds.size else 0
    if n_labels is None:
        n_labels = int(labels.max()) + 1 if labels.size else 0
    if preds.size and (preds.min() < 0 or preds.max() >= n_reports):
        raise ValueError("prediction index out of range")
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError("label index out of range")
    counts = np.zeros((n_reports, n_labels), dtype=np.int64)
    np.add.at(counts, (preds, labels), 1)
    return ConfusionMatrix(counts)


def cost_sensitive_loss(cm: ConfusionMatrix, cost: CostMatrix) -> float:
    """Mean per-sample cost: sum of counts * costs divided by the sample count."""
    if cm.counts.shape != cost.entries.shape:
        raise ValueError(
            f"confusion shape {cm.counts.shape} != cost shape {cost.entries.shape}"
        )
    n = cm.n_samples
    if n == 0:
        raise ValueError("cost-sensitive loss undefined on zero samples")
    return float((cm.counts * cost.entries).sum() / n)


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of correct predictions; requires reports aligned with labels."""
    if cm.counts.shape[0] != cm.counts.shape[1]:
        raise ValueError("accuracy requires a square confusion matrix")
    n = cm.n_samples
    if n == 0:
        raise ValueError("accuracy undefined on zero samples")
    return float(np.trace(cm.counts) / n)


def simplex_grid(n_labels: int, resolution: float) -> np.ndarray:
    """All probability vectors with coordinates that are multiples of resolution.

    resolution must be 1/q for an integer q >= 1. Returns an array of shape
    (n_points, n_labels) in deterministic lexicographic order.
    """
    if resolution <= 0 or resolution > 1:
        raise ValueError("resolution must lie in (0, 1]")
    q = int(round(1.0 / resolution))
    if abs(q * resolution - 1.0) > 1e-9:
        raise ValueError("resolution must be the reciprocal of an integer")

    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in comps(total - head, parts - 1):
                yield (head,) + rest

    pts = np.array(list(comps(q, n_labels)), dtype=float) / q
    return pts


# ---------------------------------------------------------------------------
# Stock cost matrices used throughout the benchmarks.
# ---------------------------------------------------------------------------


def binary_alpha_matrix(alpha: float) -> CostMatrix:
    """Binary matrix where a false positive costs alpha and a false negative 1 - alpha."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    entries = [[0.0, 1.0 - alpha], [alpha, 0.0]]
    return CostMatrix(entries, ("pred -1", "pred +1"), ("-1", "+1"))


def synthetic_cost_matrix(alpha: float) -> CostMatrix:
    """Binary alpha costs rescaled so the cheaper mistake costs exactly 1.

    Same decisions as binary_alpha_matrix(alpha) (rescaling preserves
    argmins); this integer-friendly scale is what the benchmark tables use,
    e.g. alpha = 1/6 gives costs [[0, 5], [1, 0]].
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    fn_cost = (1.0 - alpha) / alpha
    if abs(fn_cost - round(fn_cost)) < 1e-9:
        fn_cost = float(round(fn_cost))
    return CostMatrix(
        [[0.0, fn_cost], [1.0, 0.0]], ("pred -1", "pred +1"), ("-1", "+1")
    )


def zero_one_matrix(n_classes: int) -> CostMatrix:
    """Plain misclassification cost: 1 off-diagonal, 0 on it."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    return CostMatrix(np.ones((n_classes, n_classes)) - np.eye(n_classes))


def german_credit_matrix() -> CostMatrix:
    """Asymmetric lending costs: accepting a bad risk costs 5, rejecting a good one 1."""
    return CostMatrix(
        [[0.0, 5.0], [1.0, 0.0]], ("pred good", "pred bad"), ("good", "bad")
    )


def german_credit_deferral_matrix() -> CostMatrix:
    """Lending costs with a third report that defers at a flat cost of 1/2."""
    return CostMatrix(
        [[0.0, 5.0], [1.0, 0.0], [0.5, 0.5]],
        ("pred good", "pred bad", "defer"),
        ("good", "bad"),
    )


def severity_three_class_matrix() -> CostMatrix:
    """3-class matrix with costs growing in the severity of the mistake."""
    return CostMatrix([[0.0, 3.0, 5.0], [1.0, 0.0, 3.0], [3.0, 1.0, 0.0]])


def stock_matrices() -> dict[str, CostMatrix]:
    """Named registry of the matrices exercised by the verification suite."""
    return {
        "binary_alpha_1_6": binary_alpha_matrix(1.0 / 6.0),
        "binary_alpha_1_4": binary_alpha_matrix(1.0 / 4.0),
        "zero_one_binary": zero_one_matrix(2),
        "zero_one_three_class": zero_one_matrix(3),
        "german_credit": german_credit_matrix(),
        "german_credit_deferral": german_credit_deferral_matrix(),
        "severity_three_class": severity_three_class_matrix(),
    }


def load_cost_matrix(path) -> CostMatrix:
    """Read a cost matrix from a plain-text file.

    First line: "<n_reports> <n_labels>". Then one whitespace-separated row of
    decimal floats per report.
    """
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty cost matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be '<reports> <labels>'")
    try:
        n_reports, n_labels = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer header") from exc
    if len(lines) - 1 != n_reports:
        raise ValueError(
            f"{path}: expected {n_reports} rows, found {len(lines) - 1}"
        )
    rows = []
    for ln in lines[1:]:
        try:
            vals = [float(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: row '{ln}': {exc}") from exc
        if len(vals) != n_labels:
            raise ValueError(f"{path}: row '{ln}' does not have {n_labels} entries")
        rows.append(vals)
    try:
        return CostMatrix(np.array(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_cost_matrix(cost: CostMatrix, path) -> None:
    """Inverse of load_cost_matrix (exact float round-trip via repr)."""
    lines = [f"{cost.n_reports} {cost.n_labels}"]
    for row in cost.entries:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
