"""Orchestration: resolve a harness config, execute runs, write artifacts."""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, HarnessConfig, config_dict, harness_from_mapping
from .diffusion import (ErrorMetrics, build_schedule, compare_to_baseline, denoise,
                        make_init_noise, peak_step, ratio_at)
from .grid import GridShape, TokenGrid
from .matching import build_merge_plan, export_edge_list, tokens_to_remove
from .metrics import RunReport, aggregate, report_csv_row, sweep_csv, timing_dict
from .partition import PartitionScheme, expected_dst_count, make_partition
from .rng import StreamRng
from .tensor import blas_threads, single_blas_thread
from .unet import (RunTrace, UNetModel, UNetSpec, attention_threads, build_spec, init_unet,
                   merged_token_counts, policy_covers)
from .viz import merge_map_to_ppm, write_partition_ppms


def check_partition_sides(partition: PartitionScheme, h: int, w: int) -> int:
    """The src count of `partition` on an h x w grid; an empty side is a ConfigError."""
    n = h * w
    dst = expected_dst_count(GridShape(1, h, w), partition)
    if not 0 < dst < n:
        raise ConfigError(
            "partition", f"{partition.spec_string()} puts {dst} of the {n} tokens of the "
            f"{h}x{w} grid in the dst set, leaving an empty src or dst set"
        )
    return n - dst


def validate_capacity(harness: HarnessConfig) -> None:
    """Reject empty partition sides on covered or rendered grids, and infeasible ratios.

    Only the ratios the run's steps use count; the largest of them covers the
    most blocks and removes the most tokens from each. The partition must fit
    every grid the policy covers, also where floor(ratio * N) is 0 and the
    block does not merge.
    """
    tome = harness.tome
    spec = build_spec(harness)
    schedule = build_schedule(harness)
    peak = peak_step(schedule)
    ratio = ratio_at(schedule, peak)
    if harness.viz_partition:
        check_partition_sides(tome.partition, *harness.latent)
    for covered, (_, h, w) in zip(policy_covers(spec, tome, ratio), spec.block_dims()):
        if not covered:
            continue
        src = check_partition_sides(tome.partition, h, w)
        r = tokens_to_remove(ratio, h * w)
        if r > src:
            raise ConfigError(
                tome.endpoint_key("start" if peak == 0 else "end"),
                f"r={r} exceeds the {src}-token src set of the {h}x{w} "
                f"grid under partition {tome.partition.spec_string()}; "
                f"largest feasible ratio is {src / (h * w):.4f}"
            )


def resolve(harness: HarnessConfig) -> dict:
    """Validate and return the canonical resolved config dict."""
    validate_capacity(harness)
    return config_dict(harness)


@dataclass
class RunOutput:
    harness: HarnessConfig
    report: RunReport
    final: TokenGrid
    baseline_final: TokenGrid | None
    trace: RunTrace


def baseline_key(harness: HarnessConfig) -> tuple:
    """The inputs that determine the unmerged denoise of a run.

    Runs with equal keys have bit-identical baselines: the model comes from
    the spec, the start latent from the spec and seed, and an unmerged denoise
    reads neither the ratio schedule nor any other merge setting. The guidance
    scale enters as its hex form, which keeps 0.0 and -0.0 apart.
    """
    return (build_spec(harness), harness.tome.seed, harness.steps,
            float(harness.guidance_scale).hex())


@single_blas_thread()
def execute_run(harness: HarnessConfig, model: UNetModel | None = None,
                baselines: dict[tuple, TokenGrid] | None = None) -> RunOutput:
    """Run the configured denoise (and its baseline when comparison is on).

    `baselines` memoizes baseline finals by `baseline_key`; a hit skips the
    unmerged denoise. Baseline finals are read-only, since runs may share them.
    The whole call computes on one BLAS thread, so the report does not depend
    on the process's thread count.
    """
    resolve(harness)
    spec = build_spec(harness)
    schedule = build_schedule(harness)
    if model is None:
        model = init_unet(spec)
    if baselines is None:
        baselines = {}
    tome = harness.tome
    noise = make_init_noise(spec, tome.seed)

    trace = RunTrace(blas_threads=blas_threads(), attention_threads=attention_threads())
    peak_ratio = ratio_at(schedule, peak_step(schedule))
    merges = any(m is not None for m in merged_token_counts(spec, tome, peak_ratio))
    active_tome = tome if merges else None
    final = denoise(model, noise, schedule, active_tome, harness.guidance_scale, trace)

    baseline_final = None
    errors: ErrorMetrics | None = None
    if harness.compare_baseline:
        if active_tome is None:
            baseline_final = final
        else:
            key = baseline_key(harness)
            if key not in baselines:
                baseline_trace = RunTrace()
                computed = denoise(model, noise, schedule, None, harness.guidance_scale,
                                   baseline_trace)
                trace.baseline_step_times = baseline_trace.step_times
                computed.values.flags.writeable = False
                baselines[key] = computed
            baseline_final = baselines[key]
        errors = compare_to_baseline(baseline_final, final)

    report = aggregate(harness, trace, errors)
    return RunOutput(harness, report, final, baseline_final, trace)


def _write_viz(harness: HarnessConfig, out_dir: Path) -> list[Path]:
    """Render the top-scale partition mask and a step-0 merge map preview."""
    spec = build_spec(harness)
    tome = harness.tome
    h, w, _ = spec.scales[0]
    plan = make_partition(GridShape(2, h, w), tome.partition, StreamRng(tome.seed), 0, 0)
    paths = write_partition_ppms(plan, out_dir)

    noise = make_init_noise(spec, tome.seed)
    ratio = tome.schedule_endpoints()[0]
    if ratio > 0.0:
        pair = np.concatenate([noise.values] * 2)  # the guidance pair `plan` was drawn for
        with single_blas_thread():
            mplan = build_merge_plan(pair, plan, ratio)
        path = out_dir / "merge_map_step0.ppm"
        path.write_bytes(merge_map_to_ppm(mplan, h, w))
        paths.append(path)
        edges_path = out_dir / "merge_edges_step0.txt"
        edges_path.write_text(export_edge_list(mplan))
        paths.append(edges_path)
    return paths


def write_run_artifacts(output: RunOutput, out_dir: str | Path) -> dict[str, Path]:
    """Write report + timing (and visualizations when enabled); returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    if output.harness.report_format == "json":
        report_path = out_dir / "report.json"
        report_path.write_bytes(output.report.to_json_bytes())
    else:
        report_path = out_dir / "report.csv"
        row = report_csv_row(output.report)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row.keys()))
        writer.writeheader()
        writer.writerow(row)
        report_path.write_text(buf.getvalue())
    written["report"] = report_path

    timing_path = out_dir / "timing.json"
    timing_path.write_text(json.dumps(timing_dict(output.trace), indent=2) + "\n")
    written["timing"] = timing_path

    if output.harness.viz_partition:
        for path in _write_viz(output.harness, out_dir):
            written[path.name] = path
    return written


def sweep_points(base: HarnessConfig, axes: dict[str, list[str]]) -> list[HarnessConfig]:
    """One config per combination of axis values; the first axis varies slowest.

    Each point is `base` with one raw value per axis key, parsed by
    `harness_from_mapping` like a config-file line. A ratio axis replaces any
    ratio_start/ratio_end schedule of `base` with its constant ratio.
    """
    for key, values in axes.items():
        if not values:
            raise ConfigError(key, "sweep axis names no value")
    if "ratio" in axes:
        base = replace(base, tome=replace(base.tome, ratio_start=None, ratio_end=None))
    return [harness_from_mapping(dict(zip(axes, point)), base)
            for point in itertools.product(*axes.values())]


def run_sweep(points: list[HarnessConfig], out_dir: str | Path) -> list[RunOutput]:
    """Execute sweep points one at a time, sharing one model per geometry.

    Every point is validated before the first denoise. Each distinct baseline
    (see `baseline_key`) is computed once and shared by the points that need it;
    the memo lives for this call only.
    """
    for point in points:
        resolve(point)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    models: dict[UNetSpec, UNetModel] = {}
    baselines: dict[tuple, TokenGrid] = {}
    outputs = []
    for point in points:
        spec = build_spec(point)
        if spec not in models:
            models[spec] = init_unet(spec)
        outputs.append(execute_run(point, models[spec], baselines))

    for i, output in enumerate(outputs):
        point_dir = out_dir / f"point_{i:03d}"
        write_run_artifacts(output, point_dir)
    (out_dir / "sweep.csv").write_text(sweep_csv([o.report for o in outputs]))
    return outputs
