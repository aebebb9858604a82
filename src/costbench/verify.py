"""End-to-end verification suite behind the `verify` CLI subcommand.

Checks, per stock cost matrix: the embedding conditions on a dense simplex
grid, link separation at the default radius, loss-gradient finite-difference
agreement, and the closed-form-vs-enumerated agreement of cost-optimal
decisions on the synthetic task. Emits one PASS/FAIL line per check and a
regret scatter (CSV + SVG) as a side artifact.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .costs import (
    TIE_EPS,
    CostMatrix,
    SimplexDist,
    bayes_optimal_reports,
    binary_alpha_matrix,
    load_cost_matrix,
    stock_matrices,
)
from .data import bayes_decision_many, posterior_pos_many, sample_synthetic
from .diagnostics import embedding_regret_profile, render_scatter_svg
from .embedding import build_embedding_surrogate, verify_alpha_separation, verify_embedding
from .losses import LOSS_KINDS, BoundLoss
from .models import ModelSpec, gradient_check


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name} ({self.seconds:.1f}s) {self.detail}"


def _timed(name, fn) -> CheckResult:
    t0 = time.perf_counter()
    ok, detail = fn()
    return CheckResult(name, ok, detail, time.perf_counter() - t0)


def run_verify(
    fast: bool = False,
    extra_matrices: dict[str, CostMatrix] | None = None,
    report_dir=None,
    rng_seed: int = 0,
) -> tuple[bool, list[CheckResult]]:
    grid_res = 0.05 if fast else 0.01
    n_u = 1000 if fast else 10_000
    matrices = stock_matrices()
    for name, cost in (extra_matrices or {}).items():
        if name in matrices:
            raise ValueError(f"extra matrix {name!r} has the name of a stock matrix")
        matrices[name] = cost
    results: list[CheckResult] = []

    for name, cost in matrices.items():
        s = build_embedding_surrogate(cost)

        def check_embed(s=s):
            rep = verify_embedding(s, grid_res)
            return rep.ok, f"{len(rep.violations)} violations / {rep.n_checked} checks"

        results.append(_timed(f"embedding-conditions {name}", check_embed))

        def check_sep(s=s):
            rep = verify_alpha_separation(s, grid_res, n_u, rng_seed=rng_seed)
            detail = (
                f"{len(rep.violations)} violations, "
                f"{len(rep.near_tie_flags)} near-tie flags, alpha={s.alpha_sep:.4g}"
            )
            return rep.ok, detail

        results.append(_timed(f"alpha-separation {name}", check_sep))

    def check_grads():
        rng = np.random.default_rng(rng_seed)
        cost = binary_alpha_matrix(1.0 / 6.0)
        x = rng.normal(size=(120, 2))
        y = (rng.random(120) < 0.5).astype(int)
        worst = 0.0
        for kind in LOSS_KINDS:
            loss = BoundLoss(kind, cost)
            for hidden in ((), (16, 16)):
                spec = ModelSpec(2, loss.out_dim, hidden_dims=hidden, init_seed=rng_seed + 1)
                err = gradient_check(spec, loss, x, y, max_coords=60)
                worst = max(worst, err)
        return worst <= 1e-5, f"max relative error {worst:.2e}"

    results.append(_timed("gradient-finite-difference", check_grads))

    def check_decisions():
        n = 10_000 if fast else 100_000
        x = sample_synthetic(n, rng_seed=rng_seed).features
        rng = np.random.default_rng(rng_seed + 1)
        eta = posterior_pos_many(x)
        disagreements = 0
        for alpha in (1.0 / 6.0, 1.0 / 4.0, 1.0 / 2.0):
            cost = binary_alpha_matrix(alpha)
            # Expected cost of each report under the exact posterior; the wanted
            # report must be within the enumerated rule's tie tolerance of the best.
            c0, c1 = eta * (1.0 - alpha), (1.0 - eta) * alpha
            want = (bayes_decision_many(x, alpha) > 0).astype(int)
            in_optimal = np.where(want == 1, c1, c0) <= np.minimum(c0, c1) + TIE_EPS
            disagreements += int((~in_optimal).sum())
            # Spot-check the vectorized set against the reference enumeration.
            for i in rng.choice(n, size=200, replace=False):
                p = SimplexDist(np.array([1.0 - eta[i], eta[i]]))
                ref = bayes_optimal_reports(cost, p)
                if (want[i] in ref) != bool(in_optimal[i]):
                    disagreements += 1
        return disagreements == 0, f"{disagreements} disagreements over 3 alphas x {n}"

    results.append(_timed("cost-optimal-decision-agreement", check_decisions))

    if report_dir is not None and not fast:
        report_dir = Path(report_dir)
        report_dir.mkdir(parents=True, exist_ok=True)
        s = build_embedding_surrogate(stock_matrices()["german_credit"])
        profile = embedding_regret_profile(s, p_grid_res=0.05, n_u=100, seed=rng_seed)
        profile.export_csv(report_dir / "regret_profile.csv")
        render_scatter_svg(
            profile.target_regret,
            profile.surrogate_regret,
            report_dir / "regret_scatter.svg",
            title="lending costs: surrogate vs target regret",
        )

    return all(r.ok for r in results), results


def verify_matrix_files(paths) -> dict[str, CostMatrix]:
    """Load extra matrices for the suite, each named by its file's stem.

    Parse errors propagate. A stem that repeats, or that names a stock
    matrix, raises ValueError naming the paths: the suite would otherwise
    check one matrix in place of another.
    """
    stock, path_of = stock_matrices(), {}
    for p in paths:
        name = Path(p).stem
        if name in stock:
            raise ValueError(f"matrix file {p} has the name of stock matrix {name!r}")
        if name in path_of:
            raise ValueError(f"matrix files {path_of[name]} and {p} share the name {name!r}")
        path_of[name] = p
    return {name: load_cost_matrix(p) for name, p in path_of.items()}
