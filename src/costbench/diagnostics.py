"""Numerical probes of calibration, minimizability, and decision geometry.

These tools sample (label distribution, prediction) pairs and compare
surrogate regret against target regret, estimate the lowest achievable cost
on the synthetic task by Monte Carlo, measure how far a trained model's risk
sits from the pointwise-optimal risk, and extract decision-boundary slopes
from linear models trained on the synthetic task.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix, simplex_grid
from .data import posterior_pos_many, sample_synthetic
from .embedding import EmbeddingSurrogate, game_values, link_many, sample_predictions
from .losses import log_softmax


# ---------------------------------------------------------------------------
# Conditional-risk adapters: risk of a prediction under p, and its minimum.
# ---------------------------------------------------------------------------


class EmbeddingRisk:
    """Conditional surrogate risk for the polyhedral embedding."""

    def __init__(self, surrogate: EmbeddingSurrogate):
        self.surrogate = surrogate

    def cond_risk(self, U: np.ndarray, p: np.ndarray) -> np.ndarray:
        vals, _ = game_values(self.surrogate, U)
        return vals - U @ p

    def min_cond_risk(self, p: np.ndarray) -> float:
        """Minimal conditional risk over all predictions.

        The minimum over the embedded points, which the embedding property
        makes sufficient.
        """
        return float(self.cond_risk(self.surrogate.phi, p).min())

    def sampler(self):
        return lambda n, rng: sample_predictions(self.surrogate, n, rng)


class CrossEntropyRisk:
    """Conditional cross-entropy risk; its minimum is the entropy of p."""

    def __init__(self, n_labels: int):
        self.n_labels = n_labels

    def cond_risk(self, U: np.ndarray, p: np.ndarray) -> np.ndarray:
        return -(log_softmax(U) @ p)

    def min_cond_risk(self, p: np.ndarray) -> float:
        q = p[p > 0]
        return float(-(q * np.log(q)).sum())

    def sampler(self):
        return lambda n, rng: rng.normal(0.0, 2.0, size=(n, self.n_labels))


@dataclass(frozen=True, eq=False)
class RegretProfile:
    """Sampled (surrogate regret, target regret) pairs for a loss/link pair."""

    loss_id: str
    link_id: str
    p_points: np.ndarray       # (n, n_labels)
    u_points: np.ndarray       # (n, d)
    surrogate_regret: np.ndarray
    target_regret: np.ndarray

    def calibration_floor(self, eps: float) -> float:
        """Empirical delta(eps): min surrogate regret among points whose
        target regret exceeds eps; +inf when no point errs that badly."""
        mask = self.target_regret > eps
        if not mask.any():
            return math.inf
        return float(self.surrogate_regret[mask].min())

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["loss", "link"]
                + [f"p{i}" for i in range(self.p_points.shape[1])]
                + [f"u{i}" for i in range(self.u_points.shape[1])]
                + ["surrogate_regret", "target_regret"]
            )
            for i in range(len(self.surrogate_regret)):
                w.writerow(
                    [self.loss_id, self.link_id]
                    + [repr(float(v)) for v in self.p_points[i]]
                    + [repr(float(v)) for v in self.u_points[i]]
                    + [
                        repr(float(self.surrogate_regret[i])),
                        repr(float(self.target_regret[i])),
                    ]
                )


def regret_profile(
    risk,
    link_fn,
    cost: CostMatrix,
    p_grid_res: float = 0.05,
    u_sampler=None,
    n_u: int = 200,
    seed: int = 0,
    loss_id: str = "loss",
    link_id: str = "link",
) -> RegretProfile:
    """Sample surrogate/target regret pairs over a simplex grid of p's.

    risk provides cond_risk(U, p) and min_cond_risk(p); link_fn maps a batch
    of predictions to report indices.
    """
    rng = np.random.default_rng(seed)
    if u_sampler is None:
        u_sampler = risk.sampler()
    grid = simplex_grid(cost.n_labels, p_grid_res)
    rows = cost.entries
    all_p, all_u, s_reg, t_reg = [], [], [], []
    for p in grid:
        U = u_sampler(n_u, rng)
        c_star = risk.min_cond_risk(p)
        s_r = risk.cond_risk(U, p) - c_star
        reports = link_fn(U)
        target_costs = rows @ p
        t_r = target_costs[reports] - target_costs.min()
        all_p.append(np.repeat(p[None, :], n_u, axis=0))
        all_u.append(U)
        s_reg.append(s_r)
        t_reg.append(t_r)
    return RegretProfile(
        loss_id=loss_id,
        link_id=link_id,
        p_points=np.concatenate(all_p),
        u_points=np.concatenate(all_u),
        surrogate_regret=np.concatenate(s_reg),
        target_regret=np.concatenate(t_reg),
    )


def embedding_regret_profile(
    s: EmbeddingSurrogate, p_grid_res: float = 0.05, n_u: int = 200, seed: int = 0
) -> RegretProfile:
    risk = EmbeddingRisk(s)
    return regret_profile(
        risk,
        lambda U: link_many(s, U),
        s.cost,
        p_grid_res=p_grid_res,
        n_u=n_u,
        seed=seed,
        loss_id="embedding",
        link_id="nearest-point",
    )


# ---------------------------------------------------------------------------
# Monte-Carlo lower bound for the synthetic task.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    n: int


def monte_carlo_bayes_csl(
    alpha: float, n: int, seed: int = 0, cost_scale: float = 1.0
) -> MonteCarloEstimate:
    """Lowest achievable mean cost on the synthetic task, by Monte Carlo.

    Averages min(alpha * (1 - eta), (1 - alpha) * eta) over sampled inputs,
    eta being the exact positive-class posterior; cost_scale rescales to a
    rescaled cost matrix (e.g. 1/alpha for the integer-cost benchmark form).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    ds = sample_synthetic(n, rng_seed=seed)
    eta = posterior_pos_many(ds.features)
    vals = cost_scale * np.minimum(alpha * (1.0 - eta), (1.0 - alpha) * eta)
    return MonteCarloEstimate(
        value=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(n)),
        n=n,
    )


# ---------------------------------------------------------------------------
# Minimizability gap: trained in-class risk vs pointwise-optimal risk.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapEstimate:
    gap: float
    stderr: float
    in_class_risk: float
    pointwise_risk: float


def minimizability_gap(
    trained_model,
    risk,
    features: np.ndarray,
    posteriors: np.ndarray,
) -> GapEstimate:
    """Mean conditional-risk excess of a trained model over the pointwise optimum.

    posteriors[i] is the exact label distribution at features[i]; both risks
    are conditional expectations, so the per-point excess is nonnegative and
    the gap estimate cannot dip below zero up to estimator noise.
    """
    from .models import forward

    scores = forward(trained_model.params, features)
    U = trained_model.loss.link_input(scores)
    cond = np.array([risk.cond_risk(u[None, :], p)[0] for u, p in zip(U, posteriors)])
    best = np.array([risk.min_cond_risk(p) for p in posteriors])
    per_point = cond - best
    return GapEstimate(
        gap=float(per_point.mean()),
        stderr=float(per_point.std(ddof=1) / np.sqrt(len(per_point))),
        in_class_risk=float(cond.mean()),
        pointwise_risk=float(best.mean()),
    )


# ---------------------------------------------------------------------------
# Decision-boundary geometry on the synthetic task.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeReport:
    label: str
    slope: float            # d x1 / d x2 along the decision boundary
    offset: float           # x1-intercept of the boundary
    degenerate: bool        # near-zero x1 coefficient: boundary is unbounded


def boundary_slope(model, label: str = "") -> SlopeReport:
    """Decision-boundary slope of a linear model on two features.

    For a two-output head the boundary is where the score gap vanishes:
    (w1 . x + b1) - (w0 . x + b0) = 0, a line x1 = slope * x2 + offset with
    slope = -w_x2 / w_x1 of the gap weights. Single-output heads use their
    weights directly. Near-zero x1 coefficients are flagged as degenerate
    (the slope is unbounded).
    """
    w, b = model.params[0][0], model.params[0][1]
    if w.shape[0] != 2:
        raise ValueError("slope extraction expects exactly two input features")
    if w.shape[1] == 1:
        gap_w = w[:, 0].copy()
        gap_b = float(b[0])
    elif w.shape[1] == 2:
        gap_w = w[:, 1] - w[:, 0]
        gap_b = float(b[1] - b[0])
    else:
        raise ValueError("slope extraction expects a 1- or 2-output head")
    norm = np.linalg.norm(gap_w)
    if abs(gap_w[0]) < 1e-6 * max(norm, 1e-30):
        return SlopeReport(label, math.inf, math.inf, True)
    return SlopeReport(
        label,
        slope=float(-gap_w[1] / gap_w[0]),
        offset=float(-gap_b / gap_w[0]),
        degenerate=False,
    )


def optimal_boundary_slope(alpha: float) -> float:
    """Slope of the cost-optimal boundary x1 = (x2/2) log(alpha/(1-alpha))."""
    return 0.5 * math.log(alpha / (1.0 - alpha))


# ---------------------------------------------------------------------------
# Plain SVG scatter rendering (no plotting dependency).
# ---------------------------------------------------------------------------


def render_scatter_svg(
    x: np.ndarray,
    y: np.ndarray,
    path,
    xlabel: str = "target regret",
    ylabel: str = "surrogate regret",
    title: str = "",
    size: int = 480,
) -> None:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pad = 56
    span = size - 2 * pad
    x_max = float(x.max()) if len(x) and x.max() > 0 else 1.0
    y_max = float(y.max()) if len(y) and y.max() > 0 else 1.0
    pieces = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" y2="{size - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{size - pad}" stroke="black"/>',
        f'<text x="{size // 2}" y="{size - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="14" y="{size // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {size // 2})">{ylabel}</text>',
    ]
    if title:
        pieces.append(
            f'<text x="{size // 2}" y="24" text-anchor="middle" font-size="14">'
            f"{title}</text>"
        )
    pieces.append(
        f'<text x="{size - pad}" y="{size - pad + 18}" text-anchor="middle" '
        f'font-size="11">{x_max:.3g}</text>'
    )
    pieces.append(
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" font-size="11">'
        f"{y_max:.3g}</text>"
    )
    for xi, yi in zip(x, y):
        cx = pad + span * min(max(xi / x_max, 0.0), 1.0)
        cy = size - pad - span * min(max(yi / y_max, 0.0), 1.0)
        pieces.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.2" fill="steelblue" '
            'fill-opacity="0.5"/>'
        )
    pieces.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(pieces))
