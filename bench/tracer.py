"""Layer spans for the traced run, recorded from the benchmark's own process.

``Tracer.installed()`` rebinds the public functions listed in ``TRACED`` (and
the ``BoundLoss.batch`` and ``BoundLoss.decide_batch`` methods) in every
``costbench`` module that holds them, and restores the originals on exit; no
source file changes. Each call becomes a span named ``<layer>.<function>``
(``losses.batch.<kind>`` for the loss methods). Spans are folded into a
``Profile`` keyed by the path of span names from the root, so every span keeps
its parent, and each path records calls, total time, self time (total minus
the time of its child spans) and a work count.

Cells that run in pool workers are traced there: the workers fork from the
traced process and inherit the rebinding, each cell starts a fresh profile, and
the profile rides back to the parent on the cell's ``ResultRow``.
"""
from __future__ import annotations

import functools
import importlib
import multiprocessing
import sys
import time
from contextlib import contextmanager

CALLS, TOTAL, SELF, WORK = range(4)
TASK_ROOTS = ("harness.run_cell", "verify.run_verify")
TRACE_ATTR = "_bench_trace"

TRACED = {
    "harness": ("run_experiment", "run_cell", "load_dataset", "make_loss"),
    "data": ("sample_synthetic", "subsample_and_split", "split_xy",
             "bayes_decision_many", "posterior_pos_many"),
    "models": ("train", "mean_loss_and_param_grads", "evaluate", "forward",
               "gradient_check", "init_model"),
    "losses": ("postprocess_search",),
    "embedding": ("build_embedding_surrogate", "game_values", "surrogate_values",
                  "surrogate_subgradients", "link_many", "verify_embedding",
                  "verify_alpha_separation", "dist_to_optimal_set"),
    "verify": ("run_verify",),
}


def _train_epochs(args, kwargs) -> int:
    """History rows a train call fills: its epochs plus the initial model."""
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return cfg.n_epochs + 1


WORK_OF = {
    "embedding.game_values": lambda args, kwargs: len(args[1]),
    "models.train": _train_epochs,
}


class Profile(dict):
    """Span path (tuple of names, root first) -> [calls, total_s, self_s, work]."""

    def add(self, path, calls, total, self_s, work) -> None:
        rec = self.get(path)
        if rec is None:
            self[path] = [calls, total, self_s, work]
        else:
            rec[CALLS] += calls
            rec[TOTAL] += total
            rec[SELF] += self_s
            rec[WORK] += work

    def merge(self, other: "Profile") -> None:
        for path, rec in other.items():
            self.add(path, *rec)

    def sum(self, field: int, leaf=None, under=None) -> float:
        """Sum a field over paths whose leaf satisfies `leaf` and that pass
        through a span named in `under` (the leaf itself counts)."""
        return sum(
            rec[field]
            for path, rec in self.items()
            if (leaf is None or leaf(path[-1]))
            and (under is None or any(name in under for name in path))
        )

    def rows(self) -> list[dict]:
        return [
            {"path": ";".join(path), "calls": rec[CALLS], "total_s": rec[TOTAL],
             "self_s": rec[SELF], "work": rec[WORK]}
            for path, rec in sorted(self.items())
        ]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [path, child seconds, start]
        self.profile = Profile()  # spans of this process
        self.worker_profile = Profile()  # spans of pool workers, merged
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        path = self.stack[-1][0] + (name,) if self.stack else (name,)
        frame = [path, 0.0, 0.0]  # path, child seconds, start
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, work: int) -> None:
        elapsed = time.perf_counter() - frame[2]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += elapsed
        self.profile.add(frame[0], 1, elapsed, elapsed - frame[1], work)

    def _wrap(self, fn, name: str, name_of=None):
        """`fn`, recording a span named `name`, or `name_of(first argument)`."""
        work_fn = WORK_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name_of(args[0]) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, work_fn(args, kwargs) if work_fn else 0)

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        homes = {layer: importlib.import_module(f"costbench.{layer}")
                 for layer in (*TRACED, "losses", "harness")}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "costbench" or n.startswith("costbench.")]
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(homes[layer], fname)
                traced = self._wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, traced)
        cls = homes["losses"].BoundLoss
        self._rebind(cls, "batch", self._wrap(
            cls.batch, "losses.batch", lambda loss: f"losses.batch.{loss.kind}"))
        self._rebind(cls, "decide_batch", self._wrap(cls.decide_batch, "losses.decide_batch"))
        harness = homes["harness"]
        self._rebind(harness, "_run_cell_star", self._worker_task(harness._run_cell_star))
        self._rebind(harness, "run_experiment", self._collecting(harness.run_experiment))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _worker_task(self, fn):
        """Runs in a pool worker: trace one cell and ship its profile back."""

        @functools.wraps(fn)
        def task(args):
            self.stack, self.profile = [], Profile()  # drop the parent's open spans
            row = fn(args)
            object.__setattr__(row, TRACE_ATTR, self.profile)
            return row

        return task

    def _collecting(self, fn):
        """Merge the worker profiles that come back on the rows of a pooled run."""

        @functools.wraps(fn)
        def run(cfg, *args, **kwargs):
            if cfg.workers > 1 and multiprocessing.get_start_method() != "fork":
                raise RuntimeError("tracing pooled cells needs the fork start method")
            rows = fn(cfg, *args, **kwargs)
            for row in rows:
                profile = row.__dict__.pop(TRACE_ATTR, None)
                if profile is None and cfg.workers > 1:
                    raise RuntimeError("a pooled cell came back without its trace")
                if profile is not None:
                    self.worker_profile.merge(profile)
            return rows

        return run

    def take(self) -> tuple[Profile, Profile]:
        """The parent's and the workers' spans recorded so far; then reset."""
        if self.stack:
            raise RuntimeError(f"spans left open: {[f[0] for f in self.stack]}")
        taken = self.profile, self.worker_profile
        self.profile, self.worker_profile = Profile(), Profile()
        return taken
