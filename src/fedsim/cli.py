"""Command-line entry point.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import data as datamod
from .config import (
    apply_override,
    config_from_dict,
    load_config,
    save_config,
    validate_config,
)
from .engine import measure_overhead, run, run_grid
from .errors import ConfigurationError, FedsimError
from .metrics import export_grid_csv, export_series_csv, export_summary
from .presets import CATALOG, get_preset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning poisoning simulator.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a preset or a YAML config file")
    run_p.add_argument("target", help="preset name or path to a config file")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out-dir", default="results")
    run_p.add_argument("--data-dir", default=None,
                       help=f"dataset directory (default: ${datamod.DATA_DIR_ENV})")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")

    val_p = sub.add_parser("validate", help="check a config file without running")
    val_p.add_argument("target", help="preset name or path to a config file")

    sub.add_parser("presets", help="list available presets")

    exp_p = sub.add_parser("export-preset", help="write a preset's config as YAML")
    exp_p.add_argument("name")
    exp_p.add_argument("path")
    return parser


def _resolve_config(target: str, args) -> tuple:
    """Returns (config, preset-or-None)."""
    if target in CATALOG:
        preset = get_preset(target)
        config = preset.config.copy()
    elif os.path.exists(target):
        config = load_config(target)
        preset = None
    else:
        raise ConfigurationError(
            f"{target!r} is neither a preset nor a config file; "
            f"presets: {', '.join(sorted(CATALOG))}"
        )
    data = config.to_dict()
    for item in getattr(args, "override", []):
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must be KEY=VALUE")
        key, _, value = item.partition("=")
        apply_override(data, key, value)
    config = config_from_dict(data)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "data_dir", None):
        config.dataset.data_dir = args.data_dir
    return config, preset


def _summary_line(key: str, result) -> str:
    return (f"{key}: accuracy={result.final_accuracy:.4f} "
            f"attack_rate={result.final_attack_rate:.4f}")


def _cmd_run(args) -> int:
    config, preset = _resolve_config(args.target, args)
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out_dir, exist_ok=True)
    name = config.name or "run"

    if preset is not None and preset.kind == "overhead":
        rows = measure_overhead(config, preset.client_counts)
        for row in rows:
            print(f"clients={row['clients']} "
                  f"defense_round_s={row['defense_round_s']:.4f} "
                  f"baseline_round_s={row['baseline_round_s']:.6f}")
        path = os.path.join(args.out_dir, f"{name}-overhead.csv")
        with open(path, "w") as fh:
            fh.write("clients,defense_round_s,baseline_round_s\n")
            for row in rows:
                fh.write(f"{row['clients']},{row['defense_round_s']:.8g},"
                         f"{row['baseline_round_s']:.8g}\n")
        print(f"wrote {path}")
        return EXIT_OK

    if preset is not None and preset.kind == "grid":
        results = run_grid(config, preset.sweep)
        ok = {k: r for k, r in results.items() if not isinstance(r, Exception)}
        for key in sorted(results):
            r = results[key]
            if isinstance(r, Exception):
                print(f"{key}: failed ({r})")
            else:
                print(_summary_line(key, r))
        path = os.path.join(args.out_dir, f"{name}-grid.csv")
        export_grid_csv(ok, path)
        print(f"wrote {path}")
        return EXIT_OK if len(ok) == len(results) else EXIT_RUNTIME

    result = run(config)
    print(_summary_line(name, result))
    series_path = os.path.join(args.out_dir, f"{name}-series.csv")
    summary_path = os.path.join(args.out_dir, f"{name}-summary.json")
    export_series_csv(result, series_path, run_key=name)
    export_summary(result, summary_path, run_key=name)
    print(f"wrote {series_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config, _ = _resolve_config(args.target, args)
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(p)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def _cmd_presets() -> int:
    width = max(len(n) for n in CATALOG)
    for name in sorted(CATALOG):
        print(f"{name:<{width}}  {CATALOG[name].description}")
    return EXIT_OK


def _cmd_export_preset(args) -> int:
    preset = get_preset(args.name)
    save_config(preset.config, args.path)
    print(f"wrote {args.path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "presets":
            return _cmd_presets()
        if args.command == "export-preset":
            return _cmd_export_preset(args)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FedsimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
