"""Command-line interface.

Subcommands:
  run <config>                 run an experiment config, write rows + table
  ablate <preset> <config>     run a config under an ablation preset
  verify [--fast]              run the numerical verification suite
  table <rows.csv> --format    re-aggregate a rows file into a table

Exit codes: 0 success, 1 violations or failed cells, 2 configuration and other
errors (a file it cannot read or write, a bad value, running out of memory).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (
    ABLATION_PRESETS,
    ConfigError,
    aggregate,
    apply_preset,
    emit_table,
    parse_config,
    read_rows_csv,
    run_experiment,
    write_rows_csv,
)


def report(rows, cfg) -> int:
    """Write the rows and the markdown table where cfg names them, name every
    failed cell; 1 if any failed."""
    write_rows_csv(rows, cfg.rows_csv)
    print(emit_table(aggregate(rows), "markdown", cfg.table_path))
    failed = [r for r in rows if r.failed]
    for r in failed:
        print(f"cell failed: {r.dataset}/{r.loss}/seed {r.seed}: {r.failed}",
              file=sys.stderr)
    if failed:
        return 1
    print(f"wrote {cfg.rows_csv} and {cfg.table_path}")
    return 0


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return report(run_experiment(cfg), cfg)


def _cmd_ablate(args) -> int:
    cfg = apply_preset(parse_config(args.config), args.preset)
    return report(run_experiment(cfg), cfg)


def _cmd_verify(args) -> int:
    from .verify import run_verify, verify_matrix_files

    extra = verify_matrix_files(args.matrix) if args.matrix else None
    ok, results = run_verify(
        fast=args.fast, extra_matrices=extra, report_dir=args.report_dir
    )
    for r in results:
        print(r.line())
    n_fail = sum(not r.ok for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    rows = read_rows_csv(args.rows_csv)
    if not rows:
        print("no rows found", file=sys.stderr)
        return 2
    print(emit_table(aggregate(rows), args.format, args.out))
    return 0


def worker_count(text: str) -> int:
    """argparse type for --workers, so a bad value is reported against the flag."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costbench",
        description="Cost-sensitive classification benchmarks with embedding surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=worker_count, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_abl = sub.add_parser("ablate", help="run a config under a preset")
    p_abl.add_argument("preset", choices=ABLATION_PRESETS)
    p_abl.add_argument("config")
    p_abl.set_defaults(fn=_cmd_ablate)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--fast", action="store_true", help="reduced grids")
    p_ver.add_argument("--matrix", action="append", default=[],
                       help="extra cost matrix file to include")
    p_ver.add_argument("--report-dir", default="verify_report")
    p_ver.set_defaults(fn=_cmd_verify)

    p_tab = sub.add_parser("table", help="aggregate a rows CSV into a table")
    p_tab.add_argument("rows_csv")
    p_tab.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(fn=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # not a failed check: the host could not run it
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
