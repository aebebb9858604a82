#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload synthetic-table --seed 0 --seconds 35 --trace 0

``--trace 0`` runs tasks back to back for ``--seconds`` with tracing off and
reports the end-to-end metrics; between tasks, spread over the run, it times
the program's set-up in fresh processes (``setup_probe.py``). ``--trace 1``
runs each task untraced and then again traced, for ``--seconds``, and reports
the per-layer metrics of one task as the median over those pairs. Workloads and
their inputs are in ``workloads.py``, the spans in ``tracer.py``; ``README.md``
says what each metric should move.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 1 when an operation failed the output check, and
2 when the repository to measure is not there. A record of the run (its
environment, every task, the traced call tree) is written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402  (the package is imported later, once found)

REQUIRED = ("src/costbench/__init__.py", "configs/synthetic.cfg")
SETUP_PROBES = 7
LAYERS = ("harness", "data", "models", "losses", "embedding", "verify")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_until(seconds: float, step, after=lambda elapsed: None) -> None:
    """Call step() at least once, and again while another call fits in `seconds`;
    after(elapsed seconds) runs after every call."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        after(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            return


# ---------------------------------------------------------------------------
# End-to-end metrics (tracing off).
# ---------------------------------------------------------------------------


def setup_probe(workload: str) -> float:
    """Process start to the first cell or suite, in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return seconds


class SetupProbes:
    """SETUP_PROBES probes, due at even shares of the run and taken between tasks.

    None runs before the first task ends: probe processes are children too, so
    the children's peak memory is read then, when it holds only pool workers."""

    def __init__(self, workload: str, seconds: float):
        self.workload, self.seconds, self.times = workload, seconds, []
        self.children_peak_kb = None

    def due(self, elapsed: float) -> None:
        if self.children_peak_kb is None:
            self.children_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        while (len(self.times) < SETUP_PROBES
               and elapsed >= len(self.times) * self.seconds / SETUP_PROBES):
            self.times.append(setup_probe(self.workload))

    def finish(self) -> list[float]:
        self.due(float("inf"))
        return self.times


def peak_rss_mb(pool_workers: int, children_peak_kb: int) -> float:
    """This process's peak RSS, plus the largest pool worker's per pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + (pool_workers * children_peak_kb if pool_workers > 1 else 0)) / 1024.0


def end_to_end(tasks, attempted, failed, setup, peak_mb) -> dict:
    """Medians over the run's tasks; operation quantiles per task on the
    training workloads (a pass of cells), over all suites on verify-suite."""
    if len(tasks[0].ops) > 1:
        per_task = [[op.seconds for op in t.ops] for t in tasks]
        p50 = statistics.median(statistics.median(s) for s in per_task)
        p90_ = statistics.median(p90(s) for s in per_task)
    else:
        seconds = [t.ops[0].seconds for t in tasks]
        p50, p90_ = statistics.median(seconds), p90(seconds)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (statistics.median(t.work / t.wall for t in tasks), "1/s"),
        "task_s_p50": (p50, "s"),
        "task_s_p90": (p90_, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run).
# ---------------------------------------------------------------------------


@dataclass
class Pair:
    plain: object  # TaskResult, untraced
    traced: object  # TaskResult, same key, traced
    parent: tr.Profile  # spans of this process
    workers: tr.Profile  # spans of the pool workers


def check_spans(pair: Pair, profile: tr.Profile) -> dict:
    """The self times of this process's spans must add up to the traced task's
    wall time (the program call alone, without the benchmark's CSV and hashing),
    and the cells' spans must cover the cells' own timers; a layer entry point
    left untraced fails the first. Returns the two shares for the record."""
    covered = pair.parent.sum(tr.SELF) / pair.traced.wall
    if not 0.99 <= covered <= 1.0:
        raise RuntimeError(f"span self times cover {covered:.4f} of the traced wall")
    shares = {"self_s_over_wall": covered}
    if pair.traced.cell_seconds:
        cells = profile.sum(tr.TOTAL, leaf=lambda n: n == "harness.run_cell")
        share = pair.traced.cell_seconds / cells
        if not 0.99 <= share <= 1.0:
            raise RuntimeError(f"cell timers cover {share:.4f} of the cell spans")
        shares["cell_timers_over_spans"] = share
    return shares


def layer_metrics(pair: Pair, profile: tr.Profile, pool_workers: int) -> dict:
    from costbench.losses import LOSS_KINDS
    from workloads import VERIFY_CHECK_KINDS

    def stat(name, field):
        return profile.sum(field, leaf=lambda n: n == name)

    m = {}
    for fn in ("models.train", "models.mean_loss_and_param_grads"):
        m[f"{fn}.calls"] = (stat(fn, tr.CALLS), "count")
        m[f"{fn}.self_s"] = (stat(fn, tr.SELF), "s")
    for fn in ("models.evaluate", "models.gradient_check"):
        m[f"{fn}.total_s"] = (stat(fn, tr.TOTAL), "s")
    batches = {f"losses.batch.{kind}" for kind in LOSS_KINDS}
    for fn in sorted(batches):
        m[f"{fn}.calls"] = (stat(fn, tr.CALLS), "count")
        m[f"{fn}.self_s"] = (stat(fn, tr.SELF), "s")
    in_train = profile.sum(tr.CALLS, leaf=batches.__contains__, under={"models.train"})
    m["losses.batch.calls_per_epoch"] = (ratio(in_train, stat("models.train", tr.WORK)), "count")
    for fn in ("losses.postprocess_search", "losses.decide_batch"):
        m[f"{fn}.total_s"] = (stat(fn, tr.TOTAL), "s")

    gv = "embedding.game_values"
    m[f"{gv}.calls"] = (stat(gv, tr.CALLS), "count")
    m[f"{gv}.rows"] = (stat(gv, tr.WORK), "rows")
    m[f"{gv}.self_s"] = (stat(gv, tr.SELF), "s")
    embedding_batches = {"losses.batch.embedding", "losses.batch.embedding_softmax"}
    m[f"{gv}.calls_per_batch"] = (ratio(
        profile.sum(tr.CALLS, leaf=lambda n: n == gv, under=embedding_batches),
        profile.sum(tr.CALLS, leaf=embedding_batches.__contains__),
    ), "count")
    m["embedding.link_many.calls"] = (stat("embedding.link_many", tr.CALLS), "count")
    m["embedding.link_many.self_s"] = (stat("embedding.link_many", tr.SELF), "s")
    build = "embedding.build_embedding_surrogate"
    m[f"{build}.calls"] = (stat(build, tr.CALLS), "count")
    m[f"{build}.total_s"] = (stat(build, tr.TOTAL), "s")
    for fn in ("embedding.verify_embedding", "embedding.verify_alpha_separation"):
        m[f"{fn}.total_s"] = (stat(fn, tr.TOTAL), "s")

    m["harness.run_cell.self_s"] = (stat("harness.run_cell", tr.SELF), "s")
    m["harness.load_dataset.total_s"] = (stat("harness.load_dataset", tr.TOTAL), "s")
    m["harness.pool.efficiency"] = (
        ratio(pair.plain.cell_seconds, pool_workers * pair.plain.wall), "frac")
    for kind in VERIFY_CHECK_KINDS:
        m[f"verify.{kind}.s"] = (pair.plain.check_seconds.get(kind, 0.0), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (profile.sum(
            tr.SELF, leaf=lambda n: n.split(".")[0] == layer, under=tr.TASK_ROOTS), "s")
    m["trace.overhead_frac"] = (pair.traced.wall / pair.plain.wall - 1.0, "frac")
    return m


def median_metrics(per_pair: list[dict]) -> dict:
    return {
        name: (statistics.median(m[name][0] for m in per_pair), unit)
        for name, (_, unit) in per_pair[0].items()
    }


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_record() -> dict:
    """The BLAS numpy uses and its thread count, as found; never changed."""
    import ctypes

    import numpy as np

    record = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            path = next((ln.split()[-1] for ln in fh if "openblas" in ln.lower()), None)
    except OSError:
        path = None
    if path:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                record["threads"] = fn()
                break
    return record


def environment(args, workload) -> dict:
    import hashlib

    import numpy as np

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "costbench").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workload.workers,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    import workloads as wl

    workload = wl.make(args.workload, ROOT, OUT)
    reference = wl.load_reference(BENCH / "reference.json", workload)
    keys = wl.task_keys(args.seed)
    tasks = []
    record = {"env": environment(args, workload)}
    print("env " + json.dumps(record["env"], sort_keys=True))

    if args.trace == 0:
        probes = SetupProbes(args.workload, args.seconds)
        run_until(args.seconds, lambda: tasks.append(workload.run_task(next(keys))),
                  after=probes.due)
        peak = peak_rss_mb(workload.workers, probes.children_peak_kb)
        setup = probes.finish()
        record["setup_s"] = setup
    else:
        tracer = tr.Tracer()
        pairs: list[Pair] = []

        def traced_pair():
            key = next(keys)
            plain = workload.run_task(key)
            with tracer.installed():
                traced = workload.run_task(key)
            pairs.append(Pair(plain, traced, *tracer.take()))
            tasks.extend((plain, traced))

        run_until(args.seconds, traced_pair)
        per_pair, checks = [], []
        for pair in pairs:
            profile = tr.Profile()
            profile.merge(pair.parent)
            profile.merge(pair.workers)
            checks.append(check_spans(pair, profile))
            per_pair.append(layer_metrics(pair, profile, workload.workers))
            if len(per_pair) == 1:
                record["call_tree"] = profile.rows()
        metrics = median_metrics(per_pair)
        record["span_checks"] = checks

    attempted, failures = 0, []
    for task in tasks:
        n, failed_ops = wl.check(task, reference)
        attempted += n
        failures += failed_ops
    if args.trace == 0:
        metrics = end_to_end(tasks, attempted, len(failures), setup, peak)

    record["tasks"] = [
        {"key": t.key, "wall_s": t.wall, "work": t.work, "ops": len(t.ops)} for t in tasks
    ]
    record["failures"] = failures
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    ops = sum(len(t.ops) for t in tasks)
    print(f"{args.workload}: {len(tasks)} tasks, {ops} operations, "
          f"{len(failures)} failed; record in {out_file.relative_to(ROOT)}")
    for message in failures[:20]:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
