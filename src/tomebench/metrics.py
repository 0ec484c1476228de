"""Run reports: token ledger, analytic FLOPs, fidelity, serialization.

Reports are deterministic: field order is fixed, values derive only from the
configuration and the instrumented trace, and wall-clock timing is kept in a
separate sidecar structure so two identical runs serialize to byte-identical
JSON.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .config import REPORT_SCHEMA, HarnessConfig, ToMeConfig, config_dict, config_digest
from .diffusion import ErrorMetrics, Schedule, build_schedule, ratio_at
from .flops import RunFlops, peak_live_elements, run_flops
from .unet import RunTrace, UNetSpec, build_spec, merged_token_counts


class AggregationError(ValueError):
    """Trace records are inconsistent with the run configuration."""


@dataclass(frozen=True)
class RunReport:
    """Deterministic summary of one run (plus its optional baseline)."""

    config: dict
    digest: str
    tokens: dict
    flops_baseline: RunFlops
    flops_merged: RunFlops
    memory_baseline: int
    memory_merged: int
    similarity_computes: int
    errors: ErrorMetrics | None = None

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "config_digest": self.digest,
            "config": self.config,
            "tokens": self.tokens,
            "flops": {
                "baseline_total": self.flops_baseline.total,
                "merged_total": self.flops_merged.total,
                "baseline": self.flops_baseline.to_dict(),
                "merged": self.flops_merged.to_dict(),
            },
            "memory": {
                "baseline_peak_elements": self.memory_baseline,
                "merged_peak_elements": self.memory_merged,
                "reduction": (
                    self.memory_baseline / self.memory_merged if self.memory_merged else 1.0
                ),
            },
            "speedup_estimate": speedup_estimate(self),
            "similarity_computes": self.similarity_computes,
            "errors": self.errors.to_dict() if self.errors is not None else None,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2) + "\n").encode("utf-8")


def speedup_estimate(report: RunReport) -> float:
    """Baseline total FLOPs over merged total FLOPs (analytic, not wall clock)."""
    merged = report.flops_merged.total
    if merged == 0:
        return 1.0
    return report.flops_baseline.total / merged


def _expected_ledger(
    spec: UNetSpec, tome: ToMeConfig | None, schedule: Schedule
) -> tuple[int, list[dict]]:
    """Analytic merged-token ledger: per (step, eligible block), N - floor(r*N)."""
    per_step = [
        merged_token_counts(spec, tome, ratio_at(schedule, step)) for step in range(schedule.steps)
    ]
    total = sum(count for counts in per_step for count in counts if count is not None)
    per_block = []
    for layer, (scale, h, w) in enumerate(spec.block_dims()):
        per_block.append({
            "layer": layer, "scale": scale, "height": h, "width": w,
            "n_tokens": h * w,
            "eligible": any(counts[layer] is not None for counts in per_step),
        })
    return total, per_block


def aggregate(
    harness: HarnessConfig, trace: RunTrace, errors: ErrorMetrics | None = None
) -> RunReport:
    """Fold one completed run's trace into a report, cross-checking the ledger.

    Spec and schedule come from `harness`, so the ledger, the FLOPs and the
    memory peak all read the ratio each step of the configured run used.
    """
    tome = harness.tome
    spec = build_spec(harness)
    schedule = build_schedule(harness)
    resolved = config_dict(harness)
    digest = config_digest(resolved)

    steps_seen = sorted({r.step for r in trace.records})
    if steps_seen != list(range(schedule.steps)):
        raise AggregationError(
            f"trace covers steps {steps_seen}, expected 0..{schedule.steps - 1}; "
            "records from mixed runs?"
        )
    per_layer = {(r.step, r.layer) for r in trace.records}
    if len(per_layer) != len(trace.records):
        raise AggregationError("duplicate (step, layer) records; records from mixed runs?")

    expected_total, per_block = _expected_ledger(spec, tome, schedule)
    traced_total = trace.merged_eval_total()
    if traced_total != expected_total:
        raise AggregationError(
            f"merged-token ledger mismatch: traced {traced_total}, analytic {expected_total}"
        )

    merged_per_step = [
        [r.merged_token_count for r in trace.records if r.step == step]
        for step in range(schedule.steps)
    ]

    flops_merged = run_flops(spec, tome, schedule)
    flops_baseline = run_flops(spec, None, schedule)
    if flops_merged.total > flops_baseline.total:
        raise AggregationError("merged FLOPs exceed baseline FLOPs")

    tokens = {
        "per_block": per_block,
        "merged_per_step": merged_per_step,
        "merged_eval_total": traced_total,
    }
    return RunReport(
        config=resolved,
        digest=digest,
        tokens=tokens,
        flops_baseline=flops_baseline,
        flops_merged=flops_merged,
        memory_baseline=peak_live_elements(spec, None, 0.0),
        memory_merged=max(peak_live_elements(spec, tome, ratio_at(schedule, step))
                          for step in range(schedule.steps)),
        similarity_computes=trace.similarity_total,
        errors=errors,
    )


SWEEP_CSV_COLUMNS = (
    "ratio", "ratio_start", "ratio_end", "partition", "batch_fix", "apply",
    "min_tokens", "steps", "seed", "latent", "prune",
    "baseline_flops", "merged_flops", "speedup_estimate", "rel_l2", "max_abs",
)


def report_csv_row(report: RunReport) -> dict:
    cfg = report.config
    return {
        "ratio": cfg["ratio"],
        "ratio_start": cfg["ratio_start"],
        "ratio_end": cfg["ratio_end"],
        "partition": cfg["partition"],
        "batch_fix": cfg["batch_fix"],
        "apply": cfg["apply"],
        "min_tokens": cfg["min_tokens"],
        "steps": cfg["steps"],
        "seed": cfg["seed"],
        "latent": "x".join(str(v) for v in cfg["latent"]),
        "prune": cfg["prune"],
        "baseline_flops": report.flops_baseline.total,
        "merged_flops": report.flops_merged.total,
        "speedup_estimate": speedup_estimate(report),
        "rel_l2": report.errors.rel_l2 if report.errors is not None else "",
        "max_abs": report.errors.max_abs if report.errors is not None else "",
    }


def sweep_csv(reports: list[RunReport]) -> str:
    """Flat CSV table, one row per run, stable column order."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SWEEP_CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow(report_csv_row(report))
    return buf.getvalue()


def timing_dict(trace: RunTrace) -> dict:
    """Wall-clock sidecar; excluded from the deterministic report.

    The baseline's steps are null when the run reused a baseline or needed
    none. The BLAS thread count is the one the run computed with, read inside
    `execute_run`; it is null where it could not be read. The attention
    thread count is the threads the run's large attention, layernorm and MLP
    calls computed on (`unet.attention_threads`).
    """
    baseline = trace.baseline_step_times
    return {
        "wall_time_total_s": float(sum(trace.step_times)),
        "wall_time_per_step_s": [float(t) for t in trace.step_times],
        "minor_faults_per_step": list(trace.step_minor_faults),
        "baseline_wall_time_per_step_s": None if baseline is None else [float(t) for t in baseline],
        "blas_threads": trace.blas_threads,
        "attention_threads": trace.attention_threads,
    }
