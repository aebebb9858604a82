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

from .costs import TIE_EPS, CostMatrix, Targets, _readonly, label_targets, reduce_last, simplex_grid


@dataclass(frozen=True, eq=False)
class EmbeddingSurrogate:
    cost: CostMatrix
    phi: np.ndarray                     # (n_reports, n_labels), phi(r) = -l_r
    representative_set: tuple[int, ...]
    alpha_sep: float
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
    return (reduce_last(np.maximum, d) - reduce_last(np.minimum, d)) / 2.0


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
    gaps = _quotient_norm(d) if quotient else reduce_last(np.maximum, np.abs(d))
    gaps = gaps[gaps > 0]
    return float(gaps.min()) if len(gaps) else np.inf


def build_embedding_surrogate(
    cost: CostMatrix, alpha_sep: float | None = None
) -> EmbeddingSurrogate:
    """Construct the polyhedral surrogate embedding a cost matrix.

    Duplicate cost rows are collapsed into a single representative report
    (recorded in report_class). alpha_sep defaults to a quarter of the minimum
    pairwise shift-invariant gap between embedded points. That is not the
    link's separation radius. A local search finds mislinked points at
    1/(2(k - 1)) on zero_one(k), so the default is too large for k >= 4, and
    none nearer than quot_gap / 2, twice the default, on the 2-label stock
    matrices with unequal costs and on severity_three_class.
    """
    rows = cost.entries
    reps: list[int] = []
    report_class: list[int] = []
    for r in range(cost.n_reports):
        match = next((s for s in reps if np.array_equal(rows[s], rows[r])), None)
        if match is None:
            reps.append(r)
            report_class.append(r)
        else:
            report_class.append(match)
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
        phi=_readonly(phi),
        representative_set=tuple(reps),
        alpha_sep=float(alpha_sep),
        verts_p=_readonly(verts_p),
        verts_t=_readonly(verts_t),
        report_class=tuple(report_class),
        vertex_reports=tuple(vertex_reports),
        rep_phi=_readonly(rep_phi),
    )


def game_values(s: EmbeddingSurrogate, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched G(u): values and the index of the maximizing vertex per row."""
    scores = U @ s.verts_p.T + s.verts_t
    idx = np.argmax(scores, axis=1)
    return scores.take(np.arange(0, scores.size, scores.shape[1]) + idx), idx


def surrogate_values_and_subgradients(
    s: EmbeddingSurrogate, U: np.ndarray, targets: Targets
) -> tuple[np.ndarray, np.ndarray]:
    """L(u, y) = G(u) - u_y and a subgradient for each row, from one vertex argmax.

    L is nonnegative, convex and piecewise-linear in u. The subgradient is the
    maximizing vertex minus the indicator of y. At kinks (where the maximizing
    vertex is not unique) it is the one selected by the stored vertex order;
    training only ever needs some element of the subdifferential.
    """
    G, idx = game_values(s, U)
    grads = s.verts_p.take(idx, axis=0)
    grads -= targets.onehot  # subtracting 0.0 leaves every other entry's bits
    return G - U.take(targets.flat), grads


def surrogate_values(s: EmbeddingSurrogate, U: np.ndarray, ys) -> np.ndarray:
    """L(u, y) for each row u of U and label y of ys."""
    return surrogate_values_and_subgradients(s, U, label_targets(ys, s.n_labels))[0]


def surrogate_subgradients(s: EmbeddingSurrogate, U: np.ndarray, ys) -> np.ndarray:
    """A subgradient of L(., y) at each row u of U, for the label y of ys."""
    return surrogate_values_and_subgradients(s, U, label_targets(ys, s.n_labels))[1]


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
    # Each vertex's candidates padded with its last one: a row holds one report
    # iff it starts and ends alike, and argmin never picks a pad over the first.
    width = max(map(len, s.vertex_reports))
    table = np.array([c + c[-1:] * (width - len(c)) for c in s.vertex_reports])
    out = table[:, 0].take(wit)
    rows = np.flatnonzero((table[:, 0] != table[:, -1]).take(wit))
    cands = table.take(wit.take(rows), axis=0)                    # (rows, width)
    dist = _quotient_norm(U.take(rows, axis=0)[:, None, :] - s.phi.take(cands, axis=0))
    out[rows] = cands[np.arange(len(rows)), np.argmin(dist, axis=1)]
    return out


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

    # Condition (i), exact at embedded points: one row per (r, y), r-major.
    reps, k = list(s.representative_set), s.n_labels
    err = surrogate_values(s, np.repeat(s.phi[reps], k, axis=0),
                           np.tile(np.arange(k), len(reps))) - rows[reps].ravel()
    n_checked = err.size
    for i in np.flatnonzero(np.abs(err) > 1e-9):
        r, y = reps[i // k], i % k
        violations.append(
            Violation(
                kind="value-mismatch",
                p=None,
                report=r,
                u=tuple(s.phi[r]),
                quantity=float(err[i]),
                threshold=1e-9,
                detail=f"L(phi({r}), {y}) != cost({r}, {y})",
            )
        )

    # Condition (ii) on the grid. E_p L(phi(r), .) = G(phi(r)) - <p, phi(r)>.
    g_phi, _ = game_values(s, s.phi)
    grid = simplex_grid(s.n_labels, grid_res)
    report_costs = grid @ rows.T                      # (n_p, m)
    lbar = reduce_last(np.minimum, report_costs)
    surr_risk = g_phi[None, :] - grid @ s.phi.T       # (n_p, m)
    optimal = report_costs <= (lbar + TIE_EPS)[:, None]
    excess = surr_risk - lbar[:, None]
    n_checked += excess.size
    for i, r in np.argwhere(np.where(optimal, np.abs(excess) > 1e-9, excess <= TIE_EPS)):
        opt = bool(optimal[i, r])
        violations.append(
            Violation(
                kind="optimal-report-risk-mismatch" if opt
                else "non-optimal-report-not-separated",
                p=tuple(grid[i]),
                report=int(r),
                u=tuple(s.phi[r]),
                quantity=float(excess[i, r]),
                threshold=1e-9 if opt else TIE_EPS,
            )
        )
    return ViolationReport("embedding", tuple(violations), n_checked=n_checked)


_BLOCK = 1 << 18  # floats per array in one block of bases: 2 MB


def dist_to_optimal_set(
    s: EmbeddingSurrogate, U: np.ndarray, reports: tuple[int, ...]
) -> np.ndarray:
    """Shift-invariant distance from each row of U to conv{phi(r)} + span{1}.

    With w = u - phi(r0) and d_r = phi(r) - phi(r0), it is half the optimum of
    the LP min hi - lo s.t. lo <= w_i - lam . d_i <= hi for every label i,
    lam >= 0, sum(lam) = 1, where bound q is hi on label q if q < k, else lo
    on q - k. A vertex has lam = 0 off a support S and |S| + 1 tight bounds
    Q, at least one of each side. Each nonsingular (|S|+2)-square system
    depends on the reports only, so it is inverted once and every row's lam
    comes from one product. Each lam is clipped to the simplex, so every
    candidate is feasible and the row-wise minimum is exact. One report gives
    lam = 1, so its distance is _quotient_norm(u - phi(r)) itself.
    """
    if len(reports) == 1:
        return _quotient_norm(U - s.phi[reports[0]])
    d = s.phi[list(reports)] - s.phi[reports[0]]      # (m, k)
    w = (U - s.phi[reports[0]]).T                     # (k, n)
    (m, k), n = d.shape, len(U)
    d2, w2 = np.hstack([d, d]), np.vstack([w, w])     # rows by bound q
    best = np.full(n, np.inf)
    # More than k points are affinely dependent modulo span{1}, and a null
    # vector of the system follows, so supports stop at k.
    for size in range(1, min(m, k) + 1):
        q = np.array(list(itertools.combinations(range(2 * k), size + 1)))
        labels = np.sort(q % k, axis=1)
        # Above 0 no label is tight on both sides. At 0 every bound is tight,
        # and both bounds of label 0 with size - 1 more hi bounds hold a basis.
        inside = (q[:, 0] == 0) & (q[:, -1] == k)
        keep = (q[:, 0] < k) & (q[:, -1] >= k) & (
            (labels[:, 1:] != labels[:, :-1]).all(axis=1) | inside)
        tights = q[keep][: 1 if size == 1 else None]      # one report: lam = 1
        bases = itertools.product(itertools.combinations(range(m), size), tights)
        step = max(1, _BLOCK // max(k * n, (size + 2) ** 2))  # bases per block
        while chunk := list(itertools.islice(bases, step)):
            supp, tight = map(np.array, zip(*chunk))
            a = np.zeros((len(chunk), size + 2, size + 2))
            a[:, 0, :size] = 1.0
            a[:, 1:, :size] = d2[supp[:, None, :], tight[:, :, None]]
            a[:, 1:, size] = tight < k
            a[:, 1:, size + 1] = tight >= k
            ok = np.linalg.cond(a, 1) < 1e12
            inv = np.linalg.inv(a[ok])[:, :size]          # lam = inv @ (1, w_Q)
            lam = np.maximum(inv[:, :, :1] + inv[:, :, 1:] @ w2[tight[ok]], 0.0)
            lam /= lam.sum(axis=1, keepdims=True)                 # (bases, |S|, n)
            v = w - d[supp[ok]].transpose(0, 2, 1) @ lam          # (bases, k, n)
            dist = _quotient_norm(v.transpose(0, 2, 1))           # (bases, n)
            best = np.minimum(best, dist.min(axis=0, initial=np.inf))
    return best


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a boolean array, each one's first index and count.

    Each row is packed into one byte string, so the sort takes one scalar per
    row at any width; the rows come out in the byte strings' order.
    """
    packed = np.packbits(keys, axis=1)
    _, first, counts = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                 return_index=True, return_counts=True)
    return keys[first], first, counts


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
    distance depends on p only through its optimal-report set, so one pass
    groups the grid points by that set and by their near-tie flag, and the
    distance is computed once per optimal set. Grid points whose runner-up
    cost gap is within twice the grid resolution of a tie are reported
    separately instead of counted as failures.
    """
    if p_grid_res <= 0 or n_u_samples < 1:
        raise ValueError("need positive resolution and sample count")
    if alpha is None:
        alpha = s.alpha_sep
    rows = s.cost.entries
    rng = np.random.default_rng(rng_seed)
    U = sample_predictions(s, n_u_samples, rng)
    psi = link_many(s, U)
    report_class = np.asarray(s.report_class)
    psi_class = report_class[psi]

    grid = simplex_grid(s.n_labels, p_grid_res)
    report_costs = grid @ rows.T
    gaps = report_costs - reduce_last(np.minimum, report_costs)[:, None]
    optimal = gaps <= TIE_EPS
    # Distance in p-space to a tie boundary is roughly gap / row-scale.
    row_scale = np.ptp(rows, axis=0).max()
    runner_up = reduce_last(np.minimum, np.where(optimal, np.inf, gaps))
    near_tie = runner_up <= 2.0 * p_grid_res * row_scale

    # One row per grid point: which report classes are optimal, then the flag.
    in_class = report_class[:, None] == np.arange(len(report_class))
    keys, first, counts = _group_rows(np.column_stack([optimal @ in_class, near_tie]))
    groups = sorted(
        (tuple(np.flatnonzero(key[:-1]).tolist()), bool(key[-1]), int(i), int(n))
        for key, i, n in zip(keys, first, counts)
    )

    violations: list[Violation] = []
    flags: list[Violation] = []
    n_checked = 0
    prev = None
    for classes, tie_flag, first_member, n_members in groups:
        member = np.zeros(len(report_class), bool)
        member[list(classes)] = True
        mask = ~member[psi_class]
        n_checked += int(mask.sum()) * n_members
        if not mask.any():
            continue
        if classes != prev:  # a set's tie-flagged twin follows it and reuses this
            dists, prev = dist_to_optimal_set(s, U[mask], classes), classes
        bad = dists < alpha
        if not bad.any():
            continue
        target = flags if tie_flag else violations
        for j, dist in zip(np.flatnonzero(mask)[bad], dists[bad]):
            target.append(
                Violation(
                    kind="link-not-separated",
                    p=tuple(grid[first_member]),
                    report=int(psi[j]),
                    u=tuple(U[j]),
                    quantity=float(dist),
                    threshold=float(alpha),
                    detail=f"(grid group of {n_members} points)",
                )
            )
    return ViolationReport(
        "alpha-separation", tuple(violations), tuple(flags), n_checked=n_checked
    )
