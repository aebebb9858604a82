"""Numerical probes of calibration, the Bayes cost, and decision geometry.

These tools sample (label distribution, prediction) pairs and compare
surrogate regret against target regret, estimate the lowest achievable cost
on the synthetic task by Monte Carlo, and extract decision-boundary slopes
from linear models trained on the synthetic task.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .costs import simplex_grid
from .data import posterior_pos_many, sample_synthetic
from .embedding import EmbeddingSurrogate, game_values, link_many, sample_predictions


@dataclass(frozen=True, eq=False)
class RegretProfile:
    """Sampled (surrogate regret, target regret) pairs for the embedding
    surrogate and its nearest-point link."""

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
            # str of a Python float is its repr: the shortest round-trip text.
            values = np.column_stack(
                [self.p_points, self.u_points, self.surrogate_regret, self.target_regret]
            )
            w.writerows(["embedding", "nearest-point", *row] for row in values.tolist())


def embedding_regret_profile(
    s: EmbeddingSurrogate, p_grid_res: float = 0.05, n_u: int = 200, seed: int = 0
) -> RegretProfile:
    """Sample surrogate/target regret pairs over a simplex grid of p's.

    At each grid point p, n_u predictions u are drawn around the embedded
    points. The surrogate's conditional risk there is G(u) - <u, p>; its
    minimum over all u is attained at an embedded point (the embedding
    property), so the regret subtracts the minimum over phi. The target
    regret is the excess expected cost of the linked report.
    """
    rng = np.random.default_rng(seed)
    rows = s.cost.entries
    g_phi = game_values(s, s.phi)[0]
    all_p, all_u, s_reg, t_reg = [], [], [], []
    for p in simplex_grid(s.n_labels, p_grid_res):
        U = sample_predictions(s, n_u, rng)
        c_star = float((g_phi - s.phi @ p).min())
        s_r = game_values(s, U)[0] - U @ p - c_star
        reports = link_many(s, U)
        costs = rows @ p
        all_p.append(np.repeat(p[None, :], n_u, axis=0))
        all_u.append(U)
        s_reg.append(s_r)
        t_reg.append(costs[reports] - costs.min())
    return RegretProfile(
        p_points=np.concatenate(all_p),
        u_points=np.concatenate(all_u),
        surrogate_regret=np.concatenate(s_reg),
        target_regret=np.concatenate(t_reg),
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
# Decision-boundary geometry on the synthetic task.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeReport:
    slope: float            # d x1 / d x2 along the decision boundary
    offset: float           # x1-intercept of the boundary
    degenerate: bool        # near-zero x1 coefficient: boundary is unbounded


def boundary_slope(model) -> SlopeReport:
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
        return SlopeReport(math.inf, math.inf, True)
    return SlopeReport(
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
    title: str = "",
) -> None:
    """Target regret (x) against surrogate regret (y) on a 480-pixel square."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size, pad = 480, 56
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
        'font-size="13">target regret</text>',
        f'<text x="14" y="{size // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {size // 2})">surrogate regret</text>',
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
    cxs = pad + span * np.minimum(np.maximum(x / x_max, 0.0), 1.0)
    cys = size - pad - span * np.minimum(np.maximum(y / y_max, 0.0), 1.0)
    for cx, cy in zip(cxs.tolist(), cys.tolist()):
        pieces.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.2" fill="steelblue" '
            'fill-opacity="0.5"/>'
        )
    pieces.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(pieces))
