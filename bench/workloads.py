"""The benchmark's workloads, their seeded inputs and their output check.

Every workload runs *tasks*, and every task is made of *operations*:

- ``synthetic-table``: a task is one pass of the ``configs/synthetic.cfg``
  protocol (5 losses x 20 seeds = 100 linear cells, n=500, 300 train) through
  ``harness.run_experiment`` with a 2-worker process pool, at a shortened
  epoch count. An operation is a cell.
- ``mlp-ablation``: the same protocol under the ``mlp`` ablation preset
  (4x100 ReLU MLP, lr 0.01), run serially as ``costbench ablate mlp`` runs the
  shipped config. An operation is a cell.
- ``verify-suite``: a task is one ``run_verify(fast=False)`` with its regret
  report, as ``costbench verify`` runs it. The task is its one operation.

A task's input is a *key* from a bank of ``BANK_SIZE`` keys: the protocol's
``master_seed`` for the training workloads, ``rng_seed`` for the suite. The
workload seed fixes the order in which a run visits the bank. ``reference.json``
holds, for every key, a digest of each operation's output bytes (a rows-CSV line,
or the suite's PASS/FAIL lines plus its regret report), made on the commit that
defined the benchmark. An operation fails when the program reports a failure
or when its output differs from the reference.

The package is always called through module attributes (``harness.run_experiment``
rather than a name imported from it), so the tracer's rebinding sees every call.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from costbench import harness

BANK_SIZE = 16
CONFIG = "configs/synthetic.cfg"


@dataclass(frozen=True)
class Op:
    """One operation: a cell of a training pass, or a whole verify suite."""

    label: str
    seconds: float
    digest: str
    error: str = ""  # a failure the program itself reported


@dataclass
class TaskResult:
    key: int
    wall: float
    work: float  # epoch-cells for a training pass, 1 for a suite
    ops: list[Op]
    cell_seconds: float = 0.0  # sum of ResultRow.wall_time over the pass
    check_seconds: dict[str, float] = field(default_factory=dict)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TrainingWorkload:
    def __init__(self, name: str, root: Path, out: Path, preset: str | None,
                 epochs: int, workers: int):
        cfg = harness.parse_config(root / CONFIG)
        if preset is not None:
            cfg = harness.apply_preset(cfg, preset)
        self.name = name
        self.workers = workers
        self.cfg = replace(cfg, n_epochs=epochs, workers=workers)
        self.params = {"config": CONFIG, "preset": preset, "epochs": epochs,
                       "workers": workers}
        self.rows_csv = out / f"{name}-rows.csv"
        self.first_op = (harness, "run_cell")  # where the set-up probe stops the clock

    def run_smallest(self) -> None:
        """The program's path on its smallest input, for the set-up probe: one
        cell of one epoch through harness.run_experiment, with the same pool."""
        harness.run_experiment(
            replace(self.cfg, losses=self.cfg.losses[:1], n_seeds=1, n_epochs=1))

    def run_task(self, key: int) -> TaskResult:
        cfg = replace(self.cfg, master_seed=key)
        start = time.perf_counter()
        rows = harness.run_experiment(cfg)
        wall = time.perf_counter() - start
        harness.write_rows_csv(rows, self.rows_csv)
        lines = self.rows_csv.read_bytes().splitlines()[1:]
        ops = [
            Op(f"{r.loss}/seed {r.seed}", r.wall_time, digest(line), r.failed)
            for r, line in zip(rows, lines)
        ]
        return TaskResult(key, wall, len(rows) * cfg.n_epochs, ops,
                          cell_seconds=sum(r.wall_time for r in rows))


class VerifyWorkload:
    workers = 1

    def __init__(self, name: str, root: Path, out: Path):
        from costbench import verify

        self.name = name
        self.verify = verify
        self.report_dir = out / "verify_report"
        self.params = {"fast": False, "report": True}
        self.first_op = (verify, "run_verify")

    def run_smallest(self) -> None:
        """The program's path on its smallest input, for the set-up probe."""
        self.verify.run_verify(fast=True, report_dir=self.report_dir / "probe")

    def run_task(self, key: int) -> TaskResult:
        start = time.perf_counter()
        ok, results = self.verify.run_verify(
            fast=False, report_dir=self.report_dir, rng_seed=key
        )
        wall = time.perf_counter() - start
        text = "".join(
            f"{'PASS' if r.ok else 'FAIL'} {r.name} {r.detail}\n" for r in results
        ).encode()
        report = b"".join(
            (self.report_dir / f).read_bytes()
            for f in ("regret_profile.csv", "regret_scatter.svg")
        )
        failing = [r.name for r in results if not r.ok]
        error = "FAIL " + ", ".join(failing) if failing else ""
        check_seconds: dict[str, float] = {}
        for r in results:
            kind = r.name.split()[0]
            check_seconds[kind] = check_seconds.get(kind, 0.0) + r.seconds
        op = Op(f"suite rng_seed={key}", wall, digest(text + report), error)
        return TaskResult(key, wall, 1, [op], check_seconds=check_seconds)


WORKLOADS = {
    "synthetic-table": lambda root, out: TrainingWorkload(
        "synthetic-table", root, out, preset=None, epochs=200, workers=2),
    "mlp-ablation": lambda root, out: TrainingWorkload(
        "mlp-ablation", root, out, preset="mlp", epochs=20, workers=1),
    "verify-suite": lambda root, out: VerifyWorkload("verify-suite", root, out),
}

VERIFY_CHECK_KINDS = (
    "embedding-conditions",
    "alpha-separation",
    "gradient-finite-difference",
    "cost-optimal-decision-agreement",
)


def make(name: str, root: Path, out: Path):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {sorted(WORKLOADS)}")
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, out)


def task_keys(seed: int):
    """The bank keys a run visits, in an order fixed by the workload seed."""
    return itertools.cycle(random.Random(seed).sample(range(BANK_SIZE), BANK_SIZE))


def load_reference(path: Path, workload) -> dict[int, list[str]]:
    """Reference digests per key; refuses a reference made for other settings."""
    entry = json.loads(path.read_text()).get(workload.name)
    if entry is None:
        raise RuntimeError(f"{path} has no reference for {workload.name}")
    if entry["params"] != workload.params:
        raise RuntimeError(
            f"{path} was made with {entry['params']}, the workload runs "
            f"{workload.params}; regenerate it on the parent commit"
        )
    return {int(k): v.split() for k, v in entry["tasks"].items()}


def check(result: TaskResult, reference: dict[int, list[str]]) -> tuple[int, list[str]]:
    """Attempted operations and one message per failed operation."""
    want = reference[result.key]
    attempted = max(len(result.ops), len(want))
    failures = []
    for i in range(attempted):
        op = result.ops[i] if i < len(result.ops) else None
        if op is None:
            failures.append(f"key {result.key}: operation {i} missing")
        elif op.error:
            failures.append(f"key {result.key} {op.label}: {op.error}")
        elif i >= len(want) or op.digest != want[i]:
            failures.append(f"key {result.key} {op.label}: output differs from reference")
    return attempted, failures
