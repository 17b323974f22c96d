"""Command-line entry points: convert raw data, run one arm, run a suite,
regenerate analysis CSVs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import config_from_dict, load_config
from .data import convert_planetoid
from .harness import analyze_dir, check_suite, run_experiment, run_suite
from .workers import threads_setting


def _overrides(args) -> dict:
    """The ``--set key=value`` pairs, then ``--seed`` and ``--precision``,
    as config overrides."""
    out = {}
    for item in args.set or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        out[key.strip()] = val.strip()
    if args.seed is not None:
        out["seed"] = args.seed
    if args.precision:
        out["precision"] = args.precision
    return out


def _cmd_convert(args) -> int:
    try:
        ds = convert_planetoid(args.raw, args.name, args.out)
    except Exception as exc:  # noqa: BLE001 - unpickling raises many kinds
        print(f"convert failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote bundle {args.out}: {ds.num_nodes} nodes, "
          f"{ds.num_edges} undirected edges, {ds.num_features} features, "
          f"{ds.num_classes} classes")
    return 0


def _cmd_run(args) -> int:
    overrides = _overrides(args)
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
    try:
        suite = json.loads(Path(args.suite).read_text())
        check_suite(suite)
    except (OSError, ValueError) as exc:
        print(f"config error: {args.suite}: {exc}", file=sys.stderr)
        return 2
    overrides = _overrides(args)
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
        threads_setting()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
