"""Command-line entry points: convert raw data, run one arm, run a suite,
regenerate analysis CSVs.

GLT_THREADS caps the linear-algebra thread pools; it must take effect
before the numeric libraries initialize, so the heavy imports happen
inside the handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _apply_thread_cap() -> None:
    from .config import threads_setting
    cap = threads_setting()
    if cap is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(cap))


def _parse_sets(items: list[str]) -> dict:
    out = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        out[key.strip()] = val.strip()
    return out


def _cmd_convert(args) -> int:
    from .data import convert_planetoid
    ds = convert_planetoid(args.raw, args.name, args.out)
    print(f"wrote bundle {args.out}: {ds.num_nodes} nodes, "
          f"{ds.num_edges} undirected edges, {ds.num_features} features, "
          f"{ds.num_classes} classes")
    return 0


def _cmd_run(args) -> int:
    from .config import config_from_dict, load_config
    from .harness import run_experiment

    overrides = _parse_sets(args.set)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.precision:
        overrides["precision"] = args.precision
    try:
        if args.config:
            config = load_config(args.config, overrides)
        else:
            config = config_from_dict(overrides)
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        run = run_experiment(config, args.out)
    except Exception as exc:  # noqa: BLE001 - phase-tagged diagnostics
        print(f"run failed [{config.method}]: {exc}", file=sys.stderr)
        return 1
    rep = run.report
    print(f"{config.method}: s_g={rep.s_g:.4f} s_theta={rep.s_theta:.4f} "
          f"acc_retrained={rep.acc_retrained:.4f} "
          f"-> {args.out}/report.json")
    return 0


def _cmd_suite(args) -> int:
    from .harness import check_suite, run_suite

    try:
        suite = json.loads(Path(args.suite).read_text())
        check_suite(suite)
    except (OSError, ValueError) as exc:
        print(f"config error: {args.suite}: {exc}", file=sys.stderr)
        return 2
    overrides = _parse_sets(args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.precision:
        overrides["precision"] = args.precision
    if overrides:
        suite.setdefault("shared", {}).update(overrides)
    try:
        outcome = run_suite(suite, args.out)
    except Exception as exc:  # noqa: BLE001
        print(f"suite failed: {exc}", file=sys.stderr)
        return 1
    for rep in outcome.reports:
        rel = f"{rep.relative_time:.2f}x" if rep.relative_time else "-"
        print(f"{rep.method:>8}: s_g={rep.s_g:.3f} s_theta={rep.s_theta:.3f}"
              f" acc={rep.acc_retrained:.4f} time={rel}")
    if outcome.extreme:
        for method, level in outcome.extreme["extreme"].items():
            shown = "N/A" if level is None else f"{level:.0%}"
            print(f"extreme sparsity [{method}]: {shown}")
    return 0


def _cmd_analyze(args) -> int:
    from .harness import analyze_dir

    try:
        produced = analyze_dir(args.out)
    except ValueError as exc:       # e.g. reports without a dense arm
        print(exc, file=sys.stderr)
        return 1
    if not produced:
        print(f"no arm reports found under {args.out}", file=sys.stderr)
        return 1
    for name, rows in produced.items():
        print(f"wrote {name} ({rows} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glt",
        description="Joint graph/weight lottery-ticket search for a "
                    "two-layer GCN: one-shot pruning plus gradual "
                    "denoising, with iterative/random/one-shot baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert",
                       help="convert planetoid raw files into a bundle")
    p.add_argument("--raw", required=True,
                   help="directory holding ind.<name>.* files")
    p.add_argument("--name", required=True, help="dataset name, e.g. cora")
    p.add_argument("--out", required=True, help="bundle output directory")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("run", help="run a single method arm")
    p.add_argument("--config", help="JSON config file (flat keys)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=("f32", "f64"))
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (repeatable)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("suite", help="run a multi-arm comparison suite")
    p.add_argument("--suite", required=True, help="suite JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=("f32", "f64"))
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a shared config field (repeatable)")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("analyze",
                       help="regenerate analysis CSVs from stored artifacts")
    p.add_argument("--out", required=True,
                   help="suite output directory to analyze")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
