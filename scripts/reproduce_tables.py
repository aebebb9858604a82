#!/usr/bin/env python3
"""Run every benchmark config that has its data available and emit the tables.

The synthetic benchmark always runs; UCI benchmarks are skipped with a notice
when their raw file is missing (see scripts/fetch_uci.py). Pass --preset
full_data or --preset mlp to run the ablation variants instead; they write
<stem>_<preset><suffix> beside the main outputs, as `costbench ablate` does.
"""
import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from costbench.cli import report, worker_count
from costbench.data import UCI_SPECS
from costbench.harness import (
    ABLATION_PRESETS,
    ConfigError,
    apply_preset,
    parse_config,
    run_experiment,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _plan(preset, workers):
    """The config of each benchmark whose data is present, under the preset."""
    plans = []
    for cfg_path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = parse_config(cfg_path)
        if cfg.dataset != "synthetic":
            raw = UCI_SPECS[cfg.dataset].raw_path()
            if not raw.exists():
                print(f"SKIP {cfg.dataset}: {raw} missing (fetch_uci.py)")
                continue
        if preset:
            cfg = apply_preset(cfg, preset)
        plans.append(replace(cfg, workers=workers))
    return plans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--preset", choices=ABLATION_PRESETS, default=None)
    parser.add_argument("--workers", type=worker_count, default=2)
    args = parser.parse_args()

    try:
        plans = _plan(args.preset, args.workers)
    except ConfigError as exc:  # every config is read before any cell trains
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for cfg in plans:
        print(f"RUN {cfg.dataset}: {cfg.n_seeds} seeds x {len(cfg.losses)} losses")
        status |= report(run_experiment(cfg), cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
