"""Command-line front end: configure, run, sweep, and visualize.

Settings come from an optional flat key=value config file plus flags; flags
win. Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

from .config import (ConfigError, HarnessConfig, harness_from_mapping, load_config_file,
                     parse_float, parse_int)
from .grid import GridShape
from .metrics import speedup_estimate
from .partition import PARTITION_SYNTAX, make_partition
from .rng import StreamRng
from .runner import (check_partition_sides, execute_run, run_sweep, sweep_points,
                     write_run_artifacts)
from .viz import write_partition_ppms

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_SWEEP_AXES = ("ratio", "partition", "seed")  # in point order, slowest first
_MAX_RANGE_POINTS = 1000

# glibc mallopt parameters and the values `keep_freed_heap` gives them.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 64 * 2**20


def keep_freed_heap() -> None:
    """Keep freed heap in the process instead of handing it back to the OS.

    By default glibc raises its mmap and trim thresholds as the program runs,
    so a denoise step's 1-2 MiB temporaries are freed back to the OS at the
    heap top and their pages fault in again on the next block. Fixing both
    thresholds turns that dynamic adjustment off: allocations below 32 MiB come
    from the heap, and the heap top is trimmed only once 64 MiB of it lies free.
    One arena serves every thread: the attention helper thread would otherwise
    allocate from a second arena, whose freed memory the trim threshold never
    hands back. Values computed do not change. A no-op where the C library has
    no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    mallopt(M_ARENA_MAX, 1)


def _add_run_flags(parser: argparse.ArgumentParser, sweep: bool = False) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    axis = "; a sweep axis takes a comma list" if sweep else ""
    parser.add_argument("--ratio", help="fraction of all tokens to remove"
                        + (f"{axis} or START:END:STEP" if sweep else ""))
    parser.add_argument("--partition", help=f"{PARTITION_SYNTAX}{axis}")
    parser.add_argument("--seed", help=f"run seed (partitions and init noise){axis}")
    parser.add_argument("--ratio-start", help="schedule start ratio")
    parser.add_argument("--ratio-end", help="schedule end ratio")
    parser.add_argument("--batch-fix", action=argparse.BooleanOptionalAction, default=None,
                        help="share random partition draws across the batch")
    parser.add_argument("--apply", help="comma list of components to merge: self,cross,mlp")
    parser.add_argument("--min-tokens", metavar="N|top",
                        help="only merge in blocks with at least N tokens; top = top scale only")
    parser.add_argument("--steps", help="diffusion steps")
    parser.add_argument("--latent", metavar="HxW", help="top-scale grid, e.g. 32x32")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--format", help="report format: json or csv")
    parser.add_argument("--viz-partition", action="store_true", default=None,
                        help="write partition mask and merge map pixmaps")
    parser.add_argument("--compare-baseline", action=argparse.BooleanOptionalAction, default=None,
                        help="also run the ratio-0 baseline and report error metrics")
    parser.add_argument("--prune", action="store_true", default=None,
                        help="prune instead of merge (degradation comparison mode)")


def _build_harness(args: argparse.Namespace, skip: tuple[str, ...] = (),
                   base: HarnessConfig | None = None) -> HarnessConfig:
    """The config file over `base`, then every given flag but `skip`; flags win."""
    harness = base if base is not None else HarnessConfig()
    if getattr(args, "config", None):
        harness = harness_from_mapping(load_config_file(args.config), harness)
    flags = {key: str(value) for key, value in vars(args).items()
             if value is not None and key not in ("command", "func", "config", *skip)}
    return harness_from_mapping(flags, harness)


def _sweep_values(key: str, text: str) -> list[str]:
    """The raw values of one sweep axis: a comma list, or for ratio START:END:STEP."""
    if key != "ratio" or ":" not in text:
        return [p.strip() for p in text.split(",") if p.strip()]
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("ratio", f"expected START:END:STEP, got {text!r}")
    start, end, step = (parse_float("ratio", p) for p in parts)
    if not step > 0:
        raise ConfigError("ratio", f"sweep step must be positive, got {step}")
    if (end - start) / step > _MAX_RANGE_POINTS:
        raise ConfigError("ratio", f"{text!r} names more than {_MAX_RANGE_POINTS} ratios")
    ratios = []
    value = start
    while value <= end + 1e-9:
        ratios.append(repr(round(value, 10)))
        value += step
    return ratios


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
    axes = {key: _sweep_values(key, getattr(args, key))
            for key in _SWEEP_AXES if getattr(args, key) is not None}
    harness = _build_harness(args, skip=_SWEEP_AXES)
    outputs = run_sweep(sweep_points(harness, axes), harness.out_dir)
    print(f"sweep complete: {len(outputs)} points -> {Path(harness.out_dir) / 'sweep.csv'}")
    return EXIT_OK


def _cmd_viz(args: argparse.Namespace) -> int:
    # One scale: the rendered grid need not halve.
    harness = _build_harness(args, skip=("batch",), base=HarnessConfig(num_scales=1))
    batch = parse_int("batch", args.batch)
    if batch < 1:
        raise ConfigError("batch", f"must be >= 1, got {batch}")
    scheme = harness.tome.partition
    check_partition_sides(scheme, *harness.latent)
    plan = make_partition(GridShape(batch, *harness.latent), scheme,
                          StreamRng(harness.tome.seed), 0, 0)
    paths = write_partition_ppms(plan, harness.out_dir,
                                 prefix=f"partition_{scheme.spec_string().replace(':', '_')}")
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
    viz_p.add_argument("--partition", required=True, help=PARTITION_SYNTAX)
    viz_p.add_argument("--latent", required=True, metavar="HxW")
    viz_p.add_argument("--seed", default="0")
    viz_p.add_argument("--batch", default="1")
    viz_p.add_argument("--batch-fix", action=argparse.BooleanOptionalAction, default=None)
    viz_p.add_argument("--out", default="viz", metavar="DIR")
    viz_p.set_defaults(func=_cmd_viz)
    return parser


def main(argv: list[str] | None = None) -> int:
    keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
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
