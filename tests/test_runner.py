"""Runner orchestration: baseline reuse across sweep points, and work skipped or
refused before any denoise."""

import pytest

from tomebench.cli import main
from tomebench.config import HarnessConfig, ToMeConfig, harness_from_mapping
from tomebench.runner import execute_run, run_sweep, sweep_points
from tomebench.unet import UNetModel

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
        points += sweep_points(tiny_harness(guidance=guidance), [0.2, 0.4], ["alt", "rand2x2"],
                               [0, 1])
    points += sweep_points(tiny_harness(weight_seed=8), [0.3], None, [0, 1])
    return points


def test_gated_run_denoises_once(forward_calls):
    harness = harness_from_mapping({"latent": "8x8", "steps": str(STEPS), "ratio": "0.5",
                                    "min_tokens": "100000"})
    report = execute_run(harness).report
    assert forward_calls == [None] * STEPS  # one unmerged denoise, no separate baseline
    assert report.errors.rel_l2 == 0.0


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
    points = sweep_points(tiny_harness(), [0.2, 0.4], None, None)
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
