import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomebench import HarnessConfig, ToMeConfig, unet
from tomebench.diffusion import Schedule, build_schedule, denoise, make_init_noise, ratio_at
from tomebench.flops import peak_live_elements
from tomebench.merging import MODE_MERGE, MergedTokens
from tomebench.metrics import (
    AggregationError,
    aggregate,
    report_csv_row,
    speedup_estimate,
    sweep_csv,
    timing_dict,
)
from tomebench.runner import execute_run
from tomebench.unet import BlockTraceRecord, RunTrace, build_spec, init_unet


def small_harness(**tome_kw):
    tome = ToMeConfig(**tome_kw) if tome_kw else ToMeConfig()
    return HarnessConfig(latent=(8, 8), channels=16, heads=4, prompt_tokens=4,
                         num_scales=2, steps=3, tome=tome)


class TestAggregate:
    def test_ratio_zero_run_flops_equal(self):
        harness = small_harness(ratio=0.0)
        output = execute_run(harness)
        report = output.report
        assert report.flops_merged.total == report.flops_baseline.total
        assert speedup_estimate(report) == 1.0

    def test_merged_flops_below_baseline(self):
        output = execute_run(small_harness(ratio=0.5))
        assert output.report.flops_merged.total < output.report.flops_baseline.total
        assert speedup_estimate(output.report) > 1.0

    def test_identical_runs_identical_reports(self):
        a = execute_run(small_harness(ratio=0.5, seed=4))
        b = execute_run(small_harness(ratio=0.5, seed=4))
        assert a.report.to_json_bytes() == b.report.to_json_bytes()

    def test_mixed_records_rejected(self):
        harness = small_harness(ratio=0.5)
        output = execute_run(harness)
        trace = output.trace
        trace.add(BlockTraceRecord(step=99, layer=0, n_tokens=64, eligible=False,
                                   r=0, merged_token_count=64, similarity_computes=0))
        with pytest.raises(AggregationError, match="mixed"):
            aggregate(harness, trace)

    def test_ledger_mismatch_rejected(self):
        harness = small_harness(ratio=0.5)
        output = execute_run(harness)
        bad = output.trace
        for record in bad.records:
            if record.eligible:
                record.merged_token_count += 1
                break
        with pytest.raises(AggregationError, match="ledger"):
            aggregate(harness, bad)

    def test_trace_from_another_schedule_rejected(self):
        # recorded at ratio 0.25 (48 of 64 tokens) while the harness asks for 0.5 (32)
        harness = dataclasses.replace(small_harness(ratio=0.5), steps=2)
        spec = build_spec(harness)
        trace = RunTrace()
        denoise(init_unet(spec), make_init_noise(spec, 0), Schedule(2, 0.25, 0.25),
                harness.tome, trace=trace)
        with pytest.raises(AggregationError, match="ledger"):
            aggregate(harness, trace)

    def test_unreduced_components_fail_the_ledger(self, monkeypatch):
        # components that silently receive every row must not pass as merged
        def unreduced(x, plan, mode=MODE_MERGE):
            rows = np.arange(plan.n_tokens)
            return MergedTokens(np.asarray(x), np.ones(plan.n_tokens, np.int64), plan, rows, rows,
                                MODE_MERGE)

        monkeypatch.setattr(unet, "reduce_tokens", unreduced)
        with pytest.raises(AggregationError, match="ledger"):
            execute_run(small_harness(ratio=0.5))

    def test_report_embeds_config_and_digest(self):
        output = execute_run(small_harness(ratio=0.5, seed=1))
        data = json.loads(output.report.to_json_bytes())
        assert data["config"]["seed"] == 1
        assert data["config"]["ratio"] == 0.5
        assert len(data["config_digest"]) == 64
        assert data["errors"] is not None

    def test_timing_separate_from_report(self):
        output = execute_run(small_harness(ratio=0.5))
        data = json.loads(output.report.to_json_bytes())
        assert "wall_time_total_s" not in json.dumps(data)
        timing = timing_dict(output.trace)
        assert timing["wall_time_total_s"] > 0
        assert len(timing["wall_time_per_step_s"]) == 3

    def test_similarity_counter_in_report(self):
        harness = small_harness(ratio=0.5)  # top scale only: 2 blocks x 3 steps
        output = execute_run(harness)
        assert output.report.similarity_computes == 2 * 3


def all_on_16x16(**tome_kw):
    """`--latent 16x16 --steps 3 --apply self,cross,mlp --min-tokens 1`, no baseline."""
    tome = ToMeConfig(apply_self=True, apply_cross=True, apply_mlp=True, min_tokens=1,
                      **tome_kw)
    return HarnessConfig(latent=(16, 16), steps=3, tome=tome, compare_baseline=False)


class TestMemory:
    def test_decaying_schedule_peaks_at_its_largest_step(self):
        # the last step of a 0.7 -> 0.1 decay evaluates as many tokens as a constant 0.1 run
        decay = execute_run(all_on_16x16(ratio_start=0.7, ratio_end=0.1))
        constant = execute_run(all_on_16x16(ratio=0.1))
        assert decay.report.memory_merged == constant.report.memory_merged == 305348

    def test_one_step_run_reports_its_start_ratio(self):
        harness = dataclasses.replace(small_harness(ratio_start=0.2, ratio_end=0.6), steps=1)
        report = execute_run(harness).report
        spec = build_spec(harness)
        assert report.memory_merged == peak_live_elements(spec, harness.tome, 0.2)
        assert report.memory_merged != peak_live_elements(spec, harness.tome, 0.6)

    @settings(max_examples=150, deadline=None)
    @given(steps=st.integers(1, 5), start=st.floats(0.0, 0.7), end=st.floats(0.0, 0.7),
           apply=st.sets(st.sampled_from(["self", "cross", "mlp"]), min_size=1),
           min_tokens=st.sampled_from([1, None]))
    def test_counters_follow_the_run_schedule(self, steps, start, end, apply, min_tokens):
        tome = ToMeConfig(ratio_start=start, ratio_end=end, apply_self="self" in apply,
                          apply_cross="cross" in apply, apply_mlp="mlp" in apply,
                          min_tokens=min_tokens)
        harness = HarnessConfig(latent=(8, 8), channels=8, heads=2, prompt_tokens=2,
                                num_scales=2, blocks_per_scale=1, steps=steps, tome=tome,
                                compare_baseline=False)
        report = execute_run(harness).report
        spec, schedule = build_spec(harness), build_schedule(harness)
        assert report.memory_merged == max(
            peak_live_elements(spec, tome, ratio_at(schedule, s)) for s in range(steps)
        )
        last_step = report.tokens["merged_per_step"][-1]
        assert [b.merged_token_count for b in report.flops_merged.per_block] == last_step


class TestCsv:
    def test_row_fields(self):
        output = execute_run(small_harness(ratio=0.5))
        row = report_csv_row(output.report)
        assert row["ratio"] == 0.5
        assert row["latent"] == "8x8"
        assert row["merged_flops"] < row["baseline_flops"]
        assert row["rel_l2"] > 0

    def test_table_stable_header(self):
        outputs = [execute_run(small_harness(ratio=r)) for r in (0.0, 0.5)]
        table = sweep_csv([o.report for o in outputs])
        lines = table.strip().splitlines()
        assert lines[0].startswith("ratio,ratio_start,ratio_end,partition,batch_fix")
        assert len(lines) == 3


class TestSpeedupMonotone:
    def test_over_ratio_sweep(self):
        speedups = []
        for ratio in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            harness = small_harness(ratio=ratio, apply_self=True, apply_cross=True,
                                    apply_mlp=True, min_tokens=1)
            harness = dataclasses.replace(harness, compare_baseline=False)
            speedups.append(speedup_estimate(execute_run(harness).report))
        assert speedups[0] == 1.0
        for a, b in zip(speedups, speedups[1:]):
            assert b >= a

    def test_half_ratio_brackets(self):
        # all components merged everywhere at 0.5 on an attention-heavy config
        all_on = small_harness(ratio=0.5, apply_self=True, apply_cross=True,
                               apply_mlp=True, min_tokens=1)
        all_on = dataclasses.replace(all_on, compare_baseline=False)
        full = speedup_estimate(execute_run(all_on).report)
        assert 1.5 < full < 4.0
        # default policy (self only, top scale only) lands strictly inside
        default = small_harness(ratio=0.5)
        default = dataclasses.replace(default, compare_baseline=False)
        partial = speedup_estimate(execute_run(default).report)
        assert 1.0 < partial < full
