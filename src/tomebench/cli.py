"""Command-line front end: configure, run, sweep, and visualize.

Settings come from an optional flat key=value config file plus flags; flags
win. Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, HarnessConfig, harness_from_mapping, load_config_file
from .grid import GridShape
from .metrics import speedup_estimate
from .partition import PartitionError, PartitionScheme, make_partition
from .rng import StreamRng
from .runner import execute_run, run_sweep, sweep_points, write_run_artifacts
from .viz import write_partition_ppms

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_run_flags(parser: argparse.ArgumentParser, sweep: bool = False) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    if sweep:
        parser.add_argument("--ratio", help="sweep axis: START:END:STEP or comma list")
        parser.add_argument("--partition", help="comma list of alt|strided:SYxSX|rand:F|rand2x2")
        parser.add_argument("--seed", help="comma list of seeds")
    else:
        parser.add_argument("--ratio", type=float, help="fraction of all tokens to remove")
        parser.add_argument("--partition", help="alt | strided:SYxSX | rand:F | rand2x2")
        parser.add_argument("--seed", type=int, help="run seed (partitions and init noise)")
    parser.add_argument("--ratio-start", type=float, help="schedule start ratio")
    parser.add_argument("--ratio-end", type=float, help="schedule end ratio")
    parser.add_argument("--batch-fix", action=argparse.BooleanOptionalAction, default=None,
                        help="share random partition draws across the batch")
    parser.add_argument("--apply", help="comma list of components to merge: self,cross,mlp")
    parser.add_argument("--min-tokens", type=int, help="only merge in blocks with at least this many tokens")
    parser.add_argument("--steps", type=int, help="diffusion steps")
    parser.add_argument("--latent", metavar="HxW", help="top-scale grid, e.g. 32x32")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--viz-partition", action="store_true", default=None,
                        help="write partition mask and merge map pixmaps")
    parser.add_argument("--compare-baseline", action=argparse.BooleanOptionalAction, default=None,
                        help="also run the ratio-0 baseline and report error metrics")
    parser.add_argument("--prune", action="store_true", default=None,
                        help="prune instead of merge (degradation comparison mode)")


def _flag_mapping(args: argparse.Namespace, sweep: bool = False) -> dict[str, str]:
    mapping: dict[str, str] = {}

    def put(key: str, value) -> None:
        if value is not None:
            mapping[key] = str(value)

    if not sweep:
        put("ratio", args.ratio)
        put("partition", args.partition)
        put("seed", args.seed)
    put("ratio_start", args.ratio_start)
    put("ratio_end", args.ratio_end)
    put("batch_fix", args.batch_fix)
    put("apply", args.apply)
    put("min_tokens", args.min_tokens)
    put("steps", args.steps)
    put("latent", args.latent)
    put("out", args.out)
    put("format", args.format)
    put("viz_partition", args.viz_partition)
    put("compare_baseline", args.compare_baseline)
    put("prune", args.prune)
    return mapping


def _build_harness(args: argparse.Namespace, sweep: bool = False) -> HarnessConfig:
    harness = HarnessConfig()
    if args.config:
        harness = harness_from_mapping(load_config_file(args.config), harness)
    return harness_from_mapping(_flag_mapping(args, sweep), harness)


def _parse_sweep_ratios(text: str) -> list[float]:
    if ":" in text:
        try:
            start, end, step = (float(p) for p in text.split(":"))
        except ValueError:
            raise ConfigError(f"field 'ratio': expected START:END:STEP, got {text!r}")
        if step <= 0:
            raise ConfigError(f"field 'ratio': sweep step must be positive, got {step}")
        ratios = []
        value = start
        while value <= end + 1e-9:
            ratios.append(round(value, 10))
            value += step
        return ratios
    return [float(p) for p in text.split(",") if p.strip()]


def _cmd_run(args: argparse.Namespace) -> int:
    harness = _build_harness(args)
    output = execute_run(harness)
    written = write_run_artifacts(output, harness.out_dir)
    report = output.report
    line = (
        f"run complete: speedup_estimate={speedup_estimate(report):.3f} "
        f"merged_flops={report.flops_merged.total} baseline_flops={report.flops_baseline.total}"
    )
    if report.errors is not None:
        line += f" rel_l2={report.errors.rel_l2:.6f}"
    print(line)
    print(f"report: {written['report']}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    harness = _build_harness(args, sweep=True)
    ratios = _parse_sweep_ratios(args.ratio) if args.ratio else None
    partitions = [p.strip() for p in args.partition.split(",")] if args.partition else None
    seeds = [int(s) for s in args.seed.split(",")] if args.seed else None
    points = sweep_points(harness, ratios, partitions, seeds)
    outputs = run_sweep(points, harness.out_dir)
    print(f"sweep complete: {len(outputs)} points -> {Path(harness.out_dir) / 'sweep.csv'}")
    return EXIT_OK


def _cmd_viz(args: argparse.Namespace) -> int:
    try:
        h, w = (int(p) for p in args.latent.lower().split("x"))
    except ValueError:
        raise ConfigError(f"field 'latent': expected HxW, got {args.latent!r}")
    scheme = PartitionScheme.parse(args.partition, args.batch_fix if args.batch_fix is not None else True)
    plan = make_partition(GridShape(args.batch, h, w), scheme, StreamRng(args.seed), 0, 0)
    paths = write_partition_ppms(plan, args.out, prefix=f"partition_{scheme.spec_string().replace(':', '_')}")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomebench",
        description="Token-merging benchmark harness for a deterministic toy diffusion U-Net.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configured run (plus baseline)")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a grid of configurations")
    _add_run_flags(sweep_p, sweep=True)
    sweep_p.set_defaults(func=_cmd_sweep)

    viz_p = sub.add_parser("viz", help="render partition masks as pixmaps")
    viz_p.add_argument("--partition", required=True, help="alt | strided:SYxSX | rand:F | rand2x2")
    viz_p.add_argument("--latent", required=True, metavar="HxW")
    viz_p.add_argument("--seed", type=int, default=0)
    viz_p.add_argument("--batch", type=int, default=1)
    viz_p.add_argument("--batch-fix", action=argparse.BooleanOptionalAction, default=None)
    viz_p.add_argument("--out", default="viz", metavar="DIR")
    viz_p.set_defaults(func=_cmd_viz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PartitionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
