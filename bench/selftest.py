#!/usr/bin/env python3
"""Smoke self-test of the benchmark, every workload at its smallest length.

    python3 bench/selftest.py

For every workload in BENCHMARK.json and both --trace values, runs run.py with
--seconds 0 (one task, or one untraced and traced pair) and checks that the last
line of its output is a result with exactly the keys correct, attempted, failed
and metrics; that no operation failed; and that every end-to-end (--trace 0) or
per-layer (--trace 1) metric is there, once, with its unit, and that end-to-end
values are above zero. Then checks that the traced run's span check fails when
a layer's entry point is left untraced (``verify.run_verify`` dropped from
``tracer.TRACED`` in that process only), and that run.py exits non-zero without
a result in a directory that holds only BENCHMARK.json and the benchmark's own
files. Prints one line per check and exits 1 if any fails. Takes about a
minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
UNTRACED_ENTRY = (
    "import sys; sys.path.insert(0, 'bench'); import tracer, run; "
    "tracer.TRACED['verify'] = (); "
    "sys.exit(run.main(['--workload', 'verify-suite', '--seed', '0', "
    "'--seconds', '0', '--trace', '1']))"
)


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_result(code: int, last: str, expected: list[dict], positive: bool) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return problems + [f"last line is not JSON: {last[:80]!r}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if sorted(metrics) != sorted(want):
        problems.append(f"metrics missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or (positive and not value > 0):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, last = run(ROOT, workload, trace)
            problems = check_result(code, last, expected, positive=trace == 0)
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}"
                  + "".join(f"\n     {p}" for p in problems), flush=True)

    proc = subprocess.run([sys.executable, "-c", UNTRACED_ENTRY], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    caught = proc.returncode != 0 and "span self times cover" in proc.stderr
    failed += not caught
    print(f"{'ok  ' if caught else 'FAIL'} span check with verify.run_verify untraced: "
          f"exit {proc.returncode}, {(proc.stderr.strip().splitlines() or [''])[-1][:80]!r}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, last = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = code != 0 and not last.startswith("{")
    failed += not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} bare directory: exit {code}, last line {last[:60]!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
