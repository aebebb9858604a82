#!/usr/bin/env python3
"""Compare two commits on the benchmark's end-to-end metrics in alternating pairs.

    python3 scripts/bench_ab.py BASE_REF --number N --first-seed S

The committed files of BASE_REF and of HEAD are exported with `git archive`
into a temporary directory, which is removed afterwards. Uncommitted edits
therefore reach neither side, and nothing is registered in the repository.
`TMPDIR` picks the directory the temporary one is made in; the record names
the type of its filesystem, since timings can differ between a disk and
tmpfs: some disks stall for tens of milliseconds whenever a non-empty file is
truncated as it is opened. The verify suite's report writers no longer do
that, but any other file the workloads rewrite would.
For each workload of BENCHMARK.json the script runs ten pairs of

    python3 bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

one run per side, in that side's directory. Both runs of pair i use seed
S + i, and the side that runs first alternates from pair to pair; pick seeds
the change was not tuned on. One traced run per side (`--seconds 0 --trace 1`,
seed S) then records the per-layer counts, which repeat exactly and carry no
host noise.

It writes BENCH_<N>.json at the repository root: both SHAs, the environment,
every run, and for each workload and metric each side's median and quartiles
with the pairs the change won. Two verdicts follow the benchmark's rules:
`gain` holds when the change wins at least nine pairs in ten (ties count for
neither side) and the medians differ, in the metric's better direction, by
more than the base's interquartile range; `worse_than_bound` holds when the
change's median is worse than the base's by more than the metric's bound,
taken relative to the base median.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up time and allocation depend on these too: without a bytecode cache
# every run compiles the package as it imports it, and glibc's malloc
# settings decide how often fresh temporaries take page faults.
RUNTIME_VARIABLES = ("PYTHONDONTWRITEBYTECODE", "GLIBC_TUNABLES", "MALLOC_ARENA_MAX",
                     "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_")
PAIRS = 10  # the fewest pairs a nine-in-ten win can be read from


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the committed files of `sha` into `dest`."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed no summary "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}") from None
    return {
        "exit": proc.returncode,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
    }


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def compare(pairs: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    base = [p["base"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    b, c = describe(base), describe(change)
    gap = (c["median"] - b["median"]) if higher else (b["median"] - c["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": b,
        "change": c,
        "ratio": c["median"] / b["median"] if b["median"] else None,
        "wins": wins,
        "ties": ties,
        "losses": len(pairs) - wins - ties,
        "gain": wins >= 0.9 * len(pairs) and gap > b["iqr"],
        "worse_than_bound": -gap > metric["bound"] * abs(b["median"]),
    }


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path: that of its deepest mount point."""
    held, kind, depth = path.resolve(), "unknown", -1
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:  # a later mount on the same point shadows an earlier one
        _, point, fstype = line.split()[:3]
        point = Path(point.replace("\\040", " "))
        if point in (held, *held.parents) and len(point.parts) >= depth:
            kind, depth = fstype, len(point.parts)
    return kind


def environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "runtime": {v: os.environ.get(v) for v in sorted(
            {*RUNTIME_VARIABLES, *(v for v in os.environ if v.startswith("MALLOC_"))})},
        "export_fs": filesystem_type(Path(tempfile.gettempdir())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--number", type=int, required=True,
                        help="write BENCH_<number>.json at the repository root")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair i runs both sides on seed first_seed + i")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "rows")]
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    shas = {"base": git("rev-parse", args.base_ref), "change": git("rev-parse", "HEAD")}
    report = {
        "base": {"ref": args.base_ref, "sha": shas["base"]},
        "change": {"ref": "HEAD", "sha": shas["change"]},
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "environment": environment(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        dirs = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            export(sha, dirs[side])
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(dirs[side], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"work_per_s={pair[side]['metrics']['work_per_s']:.6g} "
                          f"failed={pair[side]['failed']}", file=sys.stderr, flush=True)
                pairs.append(pair)
            traced = {side: run_side(dirs[side], workload, args.first_seed, 0, trace=1)
                      for side in shas}
            report["workloads"][workload] = {
                "traced_counts": {name: {side: traced[side]["metrics"][name]
                                         for side in shas} for name in counts},
                "traced_failed": {side: traced[side]["failed"] for side in shas},
                "pairs": pairs,
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in shas},
                "metrics": {m["name"]: compare(pairs, m) for m in bench["end_to_end"]},
            }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
