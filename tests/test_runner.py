"""Runner orchestration: baseline reuse across sweep points, and work skipped or
refused before any denoise."""

import dataclasses

import pytest

from tomebench import runner
from tomebench.cli import main
from tomebench.config import ConfigError, HarnessConfig, ToMeConfig, harness_from_mapping
from tomebench.diffusion import build_schedule, compare_to_baseline, denoise, make_init_noise
from tomebench.metrics import aggregate
from tomebench.runner import execute_run, run_sweep, sweep_points
from tomebench.unet import RunTrace, UNetModel, build_spec, init_unet

STEPS = 2


@pytest.fixture
def forward_calls(monkeypatch):
    """The `tome` argument of every UNetModel.forward call, in call order."""
    calls = []
    original = UNetModel.forward

    def counting(self, grid, prompts, tome=None, *args, **kwargs):
        calls.append(tome)
        return original(self, grid, prompts, tome, *args, **kwargs)

    monkeypatch.setattr(UNetModel, "forward", counting)
    return calls


def tiny_harness(weight_seed=7, guidance=7.5):
    return HarnessConfig(latent=(8, 8), channels=16, heads=4, prompt_tokens=4, num_scales=2,
                         steps=STEPS, weight_seed=weight_seed, guidance_scale=guidance,
                         tome=ToMeConfig(min_tokens=1))


def reuse_points():
    """Ratios x partitions x 2 seeds x 2 guidance values, plus one other weight_seed."""
    points = []
    for guidance in (7.5, 3.0):
        points += sweep_points(tiny_harness(guidance=guidance), {
            "ratio": ["0.2", "0.4"], "partition": ["alt", "rand2x2"], "seed": ["0", "1"]})
    points += sweep_points(tiny_harness(weight_seed=8), {"ratio": ["0.3"], "seed": ["0", "1"]})
    return points


def test_gated_run_denoises_once(forward_calls):
    harness = harness_from_mapping({"latent": "8x8", "steps": str(STEPS), "ratio": "0.5",
                                    "min_tokens": "100000"})
    report = execute_run(harness).report
    assert forward_calls == [None] * STEPS  # one unmerged denoise, no separate baseline
    assert report.errors.rel_l2 == 0.0


def test_run_that_never_merges_at_its_steps_denoises_once(monkeypatch):
    """ratio_end is never reached in a one-step run, so its 0.0 start ratio is all there is."""
    harness = dataclasses.replace(
        tiny_harness(), steps=1, tome=ToMeConfig(ratio_start=0.0, ratio_end=0.6, min_tokens=1))
    # The report of the merged-then-baseline pair, built without the runner.
    model = init_unet(build_spec(harness))
    noise = make_init_noise(model.spec, harness.tome.seed)
    trace = RunTrace()
    merged = denoise(model, noise, build_schedule(harness), harness.tome,
                     harness.guidance_scale, trace)
    baseline = denoise(model, noise, build_schedule(harness), None, harness.guidance_scale)
    expected = aggregate(harness, trace, compare_to_baseline(baseline, merged))

    calls = []

    def counting(model, noise, schedule, tome=None, *args):
        calls.append(tome)
        return denoise(model, noise, schedule, tome, *args)

    monkeypatch.setattr(runner, "denoise", counting)
    output = execute_run(harness)
    assert calls == [None]
    assert output.report.to_json_bytes() == expected.to_json_bytes()
    assert output.final.values.tobytes() == merged.values.tobytes()


def test_trace_keeps_block_zero_step_zero_plan_only_where_block_zero_merged_then():
    merged = execute_run(tiny_harness())  # ratio 0.5 on the 64-token block 0
    part, plan = merged.trace.first_plan
    assert part.shape.batch == 2 and plan.edges.shape == (1, 32, 2)
    assert "grouping" not in vars(plan)  # a one-element copy keeps no Grouping alive
    # floor(0.01 * 64) == 0: block 0 merges only at the last step
    later = dataclasses.replace(merged.harness, tome=ToMeConfig(
        ratio_start=0.01, ratio_end=0.5, min_tokens=1))
    output = execute_run(later)
    assert output.trace.first_plan is None
    assert output.report.similarity_computes > 0


def test_sweep_reuse_changes_no_result(tmp_path, forward_calls):
    points = reuse_points()
    outputs = run_sweep(points, tmp_path / "sweep")
    unmerged = sum(tome is None for tome in forward_calls)
    # Determined by hand from the point list, not through the runner's key.
    distinct = {(p.weight_seed, p.tome.seed, p.guidance_scale) for p in points}
    assert len(distinct) == 6
    assert unmerged == len(distinct) * STEPS

    for point, output in zip(points, outputs):
        alone = execute_run(point)
        assert output.report.to_json_bytes() == alone.report.to_json_bytes()
        assert output.baseline_final.values.tobytes() == alone.baseline_final.values.tobytes()
        assert not output.baseline_final.values.flags.writeable

    by_inputs = {}
    for point, output in zip(points, outputs):
        inputs = (point.weight_seed, point.tome.seed, point.guidance_scale)
        by_inputs.setdefault(inputs, set()).add(id(output.baseline_final))
    assert all(len(ids) == 1 for ids in by_inputs.values())
    assert len(set().union(*by_inputs.values())) == len(distinct)


def test_sweep_memo_lives_for_one_call(tmp_path, forward_calls):
    points = sweep_points(tiny_harness(), {"ratio": ["0.2", "0.4"]})
    for name in ("a", "b"):
        forward_calls.clear()
        run_sweep(points, tmp_path / name)
        assert sum(tome is None for tome in forward_calls) == STEPS


def test_sweep_validates_every_point_before_compute(tmp_path, capsys, forward_calls):
    out = tmp_path / "sweep"
    code = main(["sweep", "--latent", "16x16", "--ratio", "0.5,0.8", "--partition",
                 "strided:2x2", "--out", str(out)])
    assert code == 1
    assert "field 'ratio'" in capsys.readouterr().err
    assert forward_calls == []
    assert not out.exists()


def test_ratio_axis_replaces_schedule():
    base = harness_from_mapping({"ratio_start": "0.7", "ratio_end": "0.3"}, tiny_harness())
    points = sweep_points(base, {"ratio": ["0.2", "0.4"], "seed": ["5", "6"]})
    assert [(p.tome.schedule_endpoints(), p.tome.seed) for p in points] == [
        ((0.2, 0.2), 5), ((0.2, 0.2), 6), ((0.4, 0.4), 5), ((0.4, 0.4), 6)]
    kept = sweep_points(base, {"seed": ["5"]})
    assert kept[0].tome.schedule_endpoints() == (0.7, 0.3)


def test_sweep_axis_items_parse_like_config_lines():
    base = harness_from_mapping({"batch_fix": "false"}, tiny_harness())
    (point,) = sweep_points(base, {"partition": ["rand:0.25"]})
    assert point == harness_from_mapping({"partition": "rand:0.25"}, base)
    assert point.tome.partition.batch_fix is False
    assert sweep_points(base, {}) == [base]


@pytest.mark.parametrize("axes,field", [
    ({"seed": []}, "seed"),
    ({"ratio": ["0.2"], "partition": []}, "partition"),
    ({"seed": ["1", "x"]}, "seed"),
    ({"wat": ["1"]}, "wat"),
])
def test_bad_sweep_axis_names_its_field(axes, field):
    with pytest.raises(ConfigError) as excinfo:
        sweep_points(tiny_harness(), axes)
    assert excinfo.value.field == field
