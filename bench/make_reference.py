#!/usr/bin/env python3
"""Write reference.json: the output digests every benchmark task must reproduce.

Run it on the commit whose outputs define "correct", and only when a workload's
run length or inputs change; a commit that changes output bytes must not
regenerate it to pass.

    python3 bench/make_reference.py

Every key of the input bank is run once on every workload, and the file is
written anew. A key on which the program itself reports a failure stops the
script: the benchmark is defined only on inputs where no operation fails.
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, ROOT, ROOT / ".bench_out")
        tasks = {}
        for key in range(workloads.BANK_SIZE):
            result = workload.run_task(key)
            for op in result.ops:
                if op.error:
                    print(f"{name} key {key} {op.label}: {op.error}", file=sys.stderr)
                    return 1
            tasks[str(key)] = " ".join(op.digest for op in result.ops)
            print(f"{name} key {key}: {len(result.ops)} operations, {result.wall:.2f}s",
                  flush=True)
        reference[name] = {"params": workload.params, "tasks": tasks}
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
