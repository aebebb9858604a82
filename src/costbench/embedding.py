"""Polyhedral embedding surrogates built from cost matrices.

The surrogate for a cost matrix with rows l_r is

    L(u, y) = G(u) - u_y,    G(u) = max_{p in simplex} [ <p, u> + min_r <p, l_r> ],

with embedded points phi(r) = -l_r. G is the support-style maximum of a small
matrix game; we enumerate the vertices of the feasible polytope

    {(p, t) : p in simplex, t <= <p, l_r> for all r}

once per matrix, after which G(u) is a single max over dot products and its
maximizing vertex provides exact subgradients. All evaluations are pure; a
built surrogate is immutable and safe to share across threads.

Distances between predictions are measured in the shift-invariant infinity
metric d(u, v) = (max(u - v) - min(u - v)) / 2, i.e. the infinity distance
between the lines u + span{1} and v + span{1}; the surrogate itself is
invariant under adding a constant to every coordinate of u.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    TIE_EPS,
    CostMatrix,
    SimplexDist,
    simplex_grid,
)


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Value of G(u) together with a maximizing distribution."""

    value: float
    witness: SimplexDist


@dataclass(frozen=True, eq=False)
class EmbeddingSurrogate:
    cost: CostMatrix
    phi: np.ndarray                     # (n_reports, n_labels), phi(r) = -l_r
    representative_set: tuple[int, ...]
    alpha_sep: float
    warnings: tuple[str, ...] = ()
    # Vertices (p, t) of the game polytope; G(u) = max(verts_p @ u + verts_t).
    verts_p: np.ndarray = field(default=None, repr=False)
    verts_t: np.ndarray = field(default=None, repr=False)
    # Maps every report to the representative whose cost row it duplicates.
    report_class: tuple[int, ...] = ()
    # Cost-optimal representative reports at each game vertex, ascending.
    vertex_reports: tuple[tuple[int, ...], ...] = field(default=(), repr=False)
    # phi of the representative reports, in representative_set order.
    rep_phi: np.ndarray = field(default=None, repr=False)

    @property
    def n_labels(self) -> int:
        return self.cost.n_labels

    @property
    def n_reports(self) -> int:
        return self.cost.n_reports


@dataclass(frozen=True)
class Violation:
    kind: str
    p: tuple[float, ...] | None
    report: int | None
    u: tuple[float, ...] | None
    quantity: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        parts = [self.kind]
        if self.p is not None:
            parts.append("p=(" + ", ".join(f"{v:.6g}" for v in self.p) + ")")
        if self.report is not None:
            parts.append(f"r={self.report}")
        if self.u is not None:
            parts.append("u=(" + ", ".join(f"{v:.6g}" for v in self.u) + ")")
        parts.append(f"quantity={self.quantity:.6g}")
        parts.append(f"threshold={self.threshold:.6g}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of a numerical verification sweep."""

    check: str
    violations: tuple[Violation, ...]
    near_tie_flags: tuple[Violation, ...] = ()
    n_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def text(self) -> str:
        lines = [
            f"{self.check}: {len(self.violations)} violations "
            f"({self.n_checked} cases checked)"
        ]
        lines += [v.line() for v in self.violations]
        if self.near_tie_flags:
            lines.append(f"near-tie flags (not failures): {len(self.near_tie_flags)}")
            lines += [v.line() for v in self.near_tie_flags]
        return "\n".join(lines)


def _quotient_norm(d: np.ndarray) -> np.ndarray:
    """Shift-invariant infinity norm of differences d, along the last axis."""
    return (d.max(axis=-1) - d.min(axis=-1)) / 2.0


def _enumerate_game_vertices(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All vertices of {(p, t): p in simplex, t <= <p, row_r> for all r}.

    A vertex makes k+1 independent constraints tight (k = n_labels): the
    simplex equality, a nonempty set A of tight rows, and zeroed coordinates Z
    with |A| + |Z| = k. Small shapes only; combinatorial enumeration is exact
    and dependency-free.
    """
    m, k = rows.shape
    seen = set()
    verts_p, verts_t = [], []
    for n_active in range(1, min(m, k) + 1):
        for active in itertools.combinations(range(m), n_active):
            for zero in itertools.combinations(range(k), k - n_active):
                a = np.zeros((k + 1, k + 1))
                b = np.zeros(k + 1)
                for i, r in enumerate(active):
                    a[i, :k] = rows[r]
                    a[i, k] = -1.0
                for j, z in enumerate(zero):
                    a[n_active + j, z] = 1.0
                a[k, :k] = 1.0
                b[k] = 1.0
                try:
                    x = np.linalg.solve(a, b)
                except np.linalg.LinAlgError:
                    continue
                p = x[:k]
                if p.min() < -1e-9:
                    continue
                t = x[k]
                if (rows @ p - t).min() < -1e-9:
                    continue
                # Clean rounding noise so every stored witness is a valid
                # distribution and t is exactly its minimal expected cost.
                p = np.clip(p, 0.0, None)
                p = p / p.sum()
                t = float((rows @ p).min())
                key = tuple(np.round(p, 12))
                if key in seen:
                    continue
                seen.add(key)
                verts_p.append(p)
                verts_t.append(t)
    order = np.lexsort(np.array(verts_p).T[::-1])
    vp = np.array(verts_p)[order]
    vt = np.array(verts_t)[order]
    return vp, vt


def min_pairwise_gap(points: np.ndarray, quotient: bool = True) -> float:
    """Smallest positive pairwise distance between rows of points; inf if none."""
    i, j = np.triu_indices(len(points), k=1)
    d = points[i] - points[j]
    gaps = _quotient_norm(d) if quotient else np.abs(d).max(axis=-1)
    gaps = gaps[gaps > 0]
    return float(gaps.min()) if len(gaps) else np.inf


def build_embedding_surrogate(
    cost: CostMatrix, alpha_sep: float | None = None
) -> EmbeddingSurrogate:
    """Construct the polyhedral surrogate embedding a cost matrix.

    Duplicate cost rows are collapsed into a single representative report
    (recorded as a warning). alpha_sep defaults to a quarter of the minimum
    pairwise shift-invariant gap between embedded points, the largest radius
    at which the nearest-point link below stays separation-safe on the stock
    matrices.
    """
    rows = cost.entries
    reps: list[int] = []
    report_class: list[int] = []
    warnings: list[str] = []
    for r in range(cost.n_reports):
        match = next((s for s in reps if np.array_equal(rows[s], rows[r])), None)
        if match is None:
            reps.append(r)
            report_class.append(r)
        else:
            report_class.append(match)
            warnings.append(
                f"report {r} duplicates report {match}; collapsed into one"
            )
    phi = -rows
    rep_phi = phi[reps]
    plain_gap = min_pairwise_gap(rep_phi, quotient=False)
    quot_gap = min_pairwise_gap(rep_phi, quotient=True)
    if not np.isfinite(quot_gap):
        raise ValueError("all cost rows coincide modulo constant shifts")
    if alpha_sep is None:
        alpha_sep = quot_gap / 4.0
    if not 0 < alpha_sep < plain_gap:
        raise ValueError(
            f"alpha_sep={alpha_sep} must lie in (0, {plain_gap}) for this matrix"
        )
    verts_p, verts_t = _enumerate_game_vertices(rows)
    vertex_reports = []
    for p, t in zip(verts_p, verts_t):
        optimal = np.flatnonzero(rows @ p <= t + TIE_EPS)
        vertex_reports.append(tuple(sorted({report_class[r] for r in optimal})))
    return EmbeddingSurrogate(
        cost=cost,
        phi=_freeze(phi),
        representative_set=tuple(reps),
        alpha_sep=float(alpha_sep),
        warnings=tuple(warnings),
        verts_p=_freeze(verts_p),
        verts_t=_freeze(verts_t),
        report_class=tuple(report_class),
        vertex_reports=tuple(vertex_reports),
        rep_phi=_freeze(rep_phi),
    )


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_u(s: EmbeddingSurrogate, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (s.n_labels,):
        raise ValueError(f"prediction must have shape ({s.n_labels},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("prediction must be finite")
    return u


def game_values(s: EmbeddingSurrogate, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched G(u): values and the index of the maximizing vertex per row."""
    scores = U @ s.verts_p.T + s.verts_t
    idx = np.argmax(scores, axis=1)
    return scores[np.arange(len(U)), idx], idx


def game_value(s: EmbeddingSurrogate, u) -> GameSolution:
    """Exact optimum of G(u) with a maximizing distribution as witness."""
    u = _check_u(s, u)
    vals, idx = game_values(s, u[None, :])
    return GameSolution(float(vals[0]), SimplexDist(s.verts_p[idx[0]].copy()))


def surrogate_value(s: EmbeddingSurrogate, u, y: int) -> float:
    """L(u, y) = G(u) - u_y; nonnegative, convex and piecewise-linear in u."""
    u = _check_u(s, u)
    if not 0 <= y < s.n_labels:
        raise IndexError(f"label index {y} out of range")
    vals, _ = game_values(s, u[None, :])
    return float(vals[0] - u[y])


def surrogate_values(s: EmbeddingSurrogate, U: np.ndarray, ys: np.ndarray) -> np.ndarray:
    vals, _ = game_values(s, U)
    return vals - U[np.arange(len(U)), ys]


def surrogate_subgradient(s: EmbeddingSurrogate, u, y: int) -> np.ndarray:
    """A subgradient of L(., y) at u: the game witness minus the label indicator.

    At kinks (where the maximizing vertex is not unique) the returned vector is
    the subgradient selected by the stored vertex order; training only ever
    needs some element of the subdifferential.
    """
    u = _check_u(s, u)
    if not 0 <= y < s.n_labels:
        raise IndexError(f"label index {y} out of range")
    _, idx = game_values(s, u[None, :])
    g = s.verts_p[idx[0]].copy()
    g[y] -= 1.0
    return g


def surrogate_subgradients(
    s: EmbeddingSurrogate, U: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    _, idx = game_values(s, U)
    g = s.verts_p[idx].copy()
    g[np.arange(len(U)), ys] -= 1.0
    return g


def link_many(s: EmbeddingSurrogate, U: np.ndarray) -> np.ndarray:
    """Witness-guided nearest-point link, vectorized over rows of U.

    The maximizing game vertex at u certifies a set of cost-optimal reports;
    the link returns the one whose embedded point is nearest to u in the
    shift-invariant infinity metric, ties to the lowest report index. Points
    deep inside a cell (where only one report is optimal at the witness) link
    directly; restricting the nearest-point search to the witness's optimal
    set keeps far-field faces of the optimal region linked correctly.
    """
    _, wit = game_values(s, U)
    out = np.empty(len(U), dtype=int)
    for v in np.unique(wit):
        members = np.flatnonzero(wit == v)
        cands = s.vertex_reports[v]
        if len(cands) == 1:
            out[members] = cands[0]
            continue
        diff = U[members][:, None, :] - s.phi[list(cands)][None, :, :]
        out[members] = np.asarray(cands)[np.argmin(_quotient_norm(diff), axis=1)]
    return out


def link(s: EmbeddingSurrogate, u) -> int:
    """Map a surrogate prediction to a report."""
    u = _check_u(s, u)
    return int(link_many(s, u[None, :])[0])


def sample_predictions(
    s: EmbeddingSurrogate, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw predictions covering the embedded points' hull, inflated, plus tails.

    Uniform over the bounding box of the embedded points inflated to twice its
    half-width, with Gaussian tails added to a fifth of the draws so cell
    interiors and far boundaries both get probed.
    """
    lo = s.phi.min(axis=0)
    hi = s.phi.max(axis=0)
    center = (lo + hi) / 2.0
    half = np.maximum((hi - lo) / 2.0, 1e-3)
    u = rng.uniform(center - 2 * half, center + 2 * half, size=(n, s.n_labels))
    n_tail = n // 5
    if n_tail:
        u[:n_tail] += rng.normal(0.0, 2.0 * half.max(), size=(n_tail, s.n_labels))
    return u


def verify_embedding(s: EmbeddingSurrogate, grid_res: float = 0.01) -> ViolationReport:
    """Check the two embedding conditions on a dense simplex grid.

    (i) L(phi(r), y) equals the cost entry exactly (tolerance 1e-9) for every
    representative report r and label y. (ii) On every grid distribution p,
    the expected surrogate loss of phi(r) equals the minimal expected cost iff
    r is cost-optimal at p; non-optimal reports must exceed it by the tie
    tolerance.
    """
    if not 0 < grid_res <= 0.1:
        raise ValueError("grid_res must lie in (0, 0.1]")
    rows = s.cost.entries
    violations: list[Violation] = []

    # Condition (i), exact at embedded points.
    g_phi, _ = game_values(s, s.phi)
    n_checked = 0
    for r in s.representative_set:
        for y in range(s.n_labels):
            n_checked += 1
            got = g_phi[r] - s.phi[r, y]
            want = rows[r, y]
            if abs(got - want) > 1e-9:
                violations.append(
                    Violation(
                        kind="value-mismatch",
                        p=None,
                        report=r,
                        u=tuple(s.phi[r]),
                        quantity=float(got - want),
                        threshold=1e-9,
                        detail=f"L(phi({r}), {y}) != cost({r}, {y})",
                    )
                )

    # Condition (ii) on the grid. E_p L(phi(r), .) = G(phi(r)) - <p, phi(r)>.
    grid = simplex_grid(s.n_labels, grid_res)
    report_costs = grid @ rows.T                      # (n_p, m)
    lbar = report_costs.min(axis=1)
    surr_risk = g_phi[None, :] - grid @ s.phi.T       # (n_p, m)
    optimal = report_costs <= (lbar + TIE_EPS)[:, None]
    for i, p in enumerate(grid):
        for r in range(s.n_reports):
            n_checked += 1
            excess = surr_risk[i, r] - lbar[i]
            if optimal[i, r]:
                if abs(excess) > 1e-9:
                    violations.append(
                        Violation(
                            kind="optimal-report-risk-mismatch",
                            p=tuple(p),
                            report=r,
                            u=tuple(s.phi[r]),
                            quantity=float(excess),
                            threshold=1e-9,
                        )
                    )
            elif excess <= TIE_EPS:
                violations.append(
                    Violation(
                        kind="non-optimal-report-not-separated",
                        p=tuple(p),
                        report=r,
                        u=tuple(s.phi[r]),
                        quantity=float(excess),
                        threshold=TIE_EPS,
                    )
                )
    return ViolationReport("embedding", tuple(violations), n_checked=n_checked)


def _dist_to_segment(U: np.ndarray, v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Shift-invariant distance from each row of U to the segment [v0, v1].

    Minimizes the convex piecewise-linear map lam -> osc(U - v0 - lam*(v1-v0))/2
    exactly: the oscillation is a max of affine functions of lam indexed by
    ordered coordinate pairs, so the minimum sits at a crossing of two pieces
    or at an endpoint. All candidates are evaluated, vectorized over U.
    """
    w = U - v0
    d = v1 - v0
    k = U.shape[1]
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    cw = np.stack([w[:, i] - w[:, j] for i, j in pairs], axis=1)   # (n, P)
    cd = np.array([d[i] - d[j] for i, j in pairs])                 # (P,)
    cands = [np.zeros(len(U)), np.ones(len(U))]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            denom = cd[a] - cd[b]
            if abs(denom) < 1e-14:
                continue
            lam = (cw[:, a] - cw[:, b]) / denom
            cands.append(np.clip(lam, 0.0, 1.0))
    lam = np.stack(cands, axis=1)                                  # (n, C)
    vals = (cw[:, None, :] - lam[:, :, None] * cd[None, None, :]).max(axis=2) / 2.0
    return vals.min(axis=1)


def _dist_to_hull_lp(u: np.ndarray, verts: np.ndarray) -> float:
    """Shift-invariant distance from u to conv(verts) + span{1} via a small LP."""
    from scipy.optimize import linprog

    m, k = verts.shape
    # Variables: lambda (m), c, sdist. Minimize sdist.
    c_obj = np.zeros(m + 2)
    c_obj[-1] = 1.0
    a_ub = []
    b_ub = []
    for i in range(k):
        row = np.concatenate([-verts[:, i], [-1.0, -1.0]])
        a_ub.append(row)
        b_ub.append(-u[i])
        row = np.concatenate([verts[:, i], [1.0, -1.0]])
        a_ub.append(row)
        b_ub.append(u[i])
    a_eq = [np.concatenate([np.ones(m), [0.0, 0.0]])]
    b_eq = [1.0]
    bounds = [(0, None)] * m + [(None, None), (0, None)]
    res = linprog(
        c_obj, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=bounds, method="highs",
    )
    if not res.success:
        raise RuntimeError(f"hull-distance LP failed: {res.message}")
    return float(res.fun)


def dist_to_optimal_set(
    s: EmbeddingSurrogate, U: np.ndarray, reports: tuple[int, ...]
) -> np.ndarray:
    """Shift-invariant distance from each row of U to conv{phi(r)} + span{1}."""
    verts = s.phi[list(reports)]
    if len(reports) == 1:
        return _quotient_norm(U - verts[0])
    if len(reports) == 2:
        out = np.empty(len(U))
        for start in range(0, len(U), 2048):
            sl = slice(start, start + 2048)
            out[sl] = _dist_to_segment(U[sl], verts[0], verts[1])
        return out
    return np.array([_dist_to_hull_lp(u, verts) for u in U])


def verify_alpha_separation(
    s: EmbeddingSurrogate,
    p_grid_res: float = 0.01,
    n_u_samples: int = 10_000,
    rng_seed: int = 0,
    alpha: float | None = None,
) -> ViolationReport:
    """Check that mislinked predictions sit far from the optimal surrogate set.

    For every grid distribution p and sampled prediction u whose linked report
    is not cost-optimal at p, the distance from u to the inner approximation
    conv{phi(r) : r optimal at p} + span{1} must be at least alpha. The
    distance depends on p only through its optimal-report set, so grid points
    are grouped by that set before the distance computation. Grid points whose
    runner-up cost gap is within twice the grid resolution of a tie are
    reported separately instead of counted as failures.
    """
    if p_grid_res <= 0 or n_u_samples < 1:
        raise ValueError("need positive resolution and sample count")
    if alpha is None:
        alpha = s.alpha_sep
    rows = s.cost.entries
    rng = np.random.default_rng(rng_seed)
    U = sample_predictions(s, n_u_samples, rng)
    psi = link_many(s, U)
    psi_class = np.asarray(s.report_class)[psi]

    grid = simplex_grid(s.n_labels, p_grid_res)
    report_costs = grid @ rows.T
    lbar = report_costs.min(axis=1)
    gaps = report_costs - lbar[:, None]
    optimal = gaps <= TIE_EPS
    # Distance in p-space to a tie boundary is roughly gap / row-scale.
    row_scale = max(
        np.abs(rows[i] - rows[j]).max()
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )
    runner_up = np.where(optimal, np.inf, gaps).min(axis=1)
    near_tie = runner_up <= 2.0 * p_grid_res * row_scale

    groups: dict[tuple[tuple[int, ...], bool], list[int]] = {}
    for i in range(len(grid)):
        classes = {s.report_class[r] for r in np.flatnonzero(optimal[i])}
        key = (tuple(sorted(classes)), bool(near_tie[i]))
        groups.setdefault(key, []).append(i)

    violations: list[Violation] = []
    flags: list[Violation] = []
    n_checked = 0
    for (classes, tie_flag), members in sorted(groups.items()):
        mask = ~np.isin(psi_class, classes)
        n_checked += int(mask.sum()) * len(members)
        if not mask.any():
            continue
        dists = dist_to_optimal_set(s, U[mask], classes)
        bad = dists < alpha
        if not bad.any():
            continue
        rep_p = grid[members[0]]
        idxs = np.flatnonzero(mask)[bad]
        target = flags if tie_flag else violations
        for j, dist in zip(idxs, dists[bad]):
            target.append(
                Violation(
                    kind="link-not-separated",
                    p=tuple(rep_p),
                    report=int(psi[j]),
                    u=tuple(U[j]),
                    quantity=float(dist),
                    threshold=float(alpha),
                    detail=f"(grid group of {len(members)} points)",
                )
            )
    return ViolationReport(
        "alpha-separation", tuple(violations), tuple(flags), n_checked=n_checked
    )
