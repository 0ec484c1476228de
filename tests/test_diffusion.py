import numpy as np
import pytest

from tomebench import RunTrace, ToMeConfig
from tomebench.diffusion import (
    BASE_ALPHA,
    Schedule,
    ScheduleRangeError,
    compare_to_baseline,
    denoise,
    make_init_noise,
    ratio_at,
)
from tomebench.grid import GridShape, TokenGrid
from tomebench.partition import PartitionScheme
from tomebench.tensor import DTYPE, ShapeError

from conftest import capture_partitions


class TestSchedule:
    def test_start_value(self):
        assert ratio_at(Schedule(50, 0.7, 0.3), 0) == 0.7

    def test_constant(self):
        schedule = Schedule(50, 0.5, 0.5)
        assert all(ratio_at(schedule, s) == 0.5 for s in range(50))

    def test_midpoint(self):
        assert ratio_at(Schedule(3, 0.6, 0.4), 1) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("start,end", [(0.7, 0.3), (0.6, 0.4), (0.5, 0.5), (0.4, 0.6), (0.3, 0.7)])
    def test_endpoints_exact(self, start, end):
        schedule = Schedule(50, start, end)
        assert ratio_at(schedule, 0) == start
        assert ratio_at(schedule, 49) == end

    def test_single_step(self):
        assert ratio_at(Schedule(1, 0.4, 0.9), 0) == 0.4

    def test_out_of_range(self):
        schedule = Schedule(10, 0.5, 0.5)
        with pytest.raises(ScheduleRangeError):
            ratio_at(schedule, 10)
        with pytest.raises(ScheduleRangeError):
            ratio_at(schedule, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            Schedule(5, 1.0, 0.5)


class TestDenoise:
    def test_deterministic(self, tiny_model):
        noise = make_init_noise(tiny_model.spec, 3)
        schedule = Schedule(4, 0.5, 0.5)
        tome = ToMeConfig(ratio=0.5, seed=3)
        a = denoise(tiny_model, noise, schedule, tome)
        b = denoise(tiny_model, noise, schedule, tome)
        assert np.array_equal(a.values, b.values)

    def test_ratio_zero_bit_identical_to_plain(self, tiny_model):
        noise = make_init_noise(tiny_model.spec, 1)
        schedule = Schedule(5, 0.0, 0.0)
        plain = denoise(tiny_model, noise, schedule, None)
        wrapped = denoise(tiny_model, noise, schedule, ToMeConfig(ratio=0.0))
        assert np.array_equal(plain.values, wrapped.values)

    def test_merging_changes_output(self, tiny_model):
        noise = make_init_noise(tiny_model.spec, 1)
        base = denoise(tiny_model, noise, Schedule(4, 0.0, 0.0), None)
        out = denoise(tiny_model, noise, Schedule(4, 0.5, 0.5), ToMeConfig(ratio=0.5, seed=1))
        err = compare_to_baseline(base, out)
        assert err.rel_l2 > 0

    def test_init_noise_shape_checked(self, tiny_model):
        bad = make_init_noise(tiny_model.spec, 0)
        import dataclasses
        small = dataclasses.replace(tiny_model.spec, scales=((4, 4, 1),))
        with pytest.raises(ShapeError):
            denoise(tiny_model, make_init_noise(small, 0), Schedule(2, 0.0, 0.0))
        assert bad.shape.batch == 1

    def test_trace_counts(self, tiny_model):
        trace = RunTrace()
        noise = make_init_noise(tiny_model.spec, 0)
        steps = 3
        denoise(tiny_model, noise, Schedule(steps, 0.5, 0.5), ToMeConfig(ratio=0.5, seed=0),
                trace=trace)
        # min_tokens=None -> only the two top-scale blocks are eligible
        assert trace.similarity_total == 2 * steps
        assert len(trace.step_times) == steps
        assert len(trace.step_minor_faults) == steps
        assert all(faults >= 0 for faults in trace.step_minor_faults)
        assert len(trace.records) == len(tiny_model.blocks) * steps


class TestBatchFix:
    def test_masks_identical_when_fixed(self, tiny_model, monkeypatch):
        partitions = capture_partitions(monkeypatch)
        noise = make_init_noise(tiny_model.spec, 2)
        tome = ToMeConfig(ratio=0.5, partition=PartitionScheme.rand_tile(2, 2), seed=2)
        denoise(tiny_model, noise, Schedule(5, 0.5, 0.5), tome)
        assert len(partitions) == 2 * 5  # two top-scale blocks per step
        for part in partitions:
            assert part.shape.batch == 2
            assert (part.dst_mask == part.dst_mask[0]).all()  # identical across the guidance pair

    def test_masks_differ_without_fix(self, tiny_model, monkeypatch):
        partitions = capture_partitions(monkeypatch)
        differing_seeds = 0
        for seed in range(8):
            partitions.clear()
            noise = make_init_noise(tiny_model.spec, seed)
            tome = ToMeConfig(
                ratio=0.5,
                partition=PartitionScheme.random(0.25, batch_fix=False),
                seed=seed,
            )
            denoise(tiny_model, noise, Schedule(2, 0.5, 0.5), tome)
            assert len(partitions) == 2 * 2
            if any((part.dst_mask != part.dst_mask[0]).any() for part in partitions):
                differing_seeds += 1
        assert differing_seeds >= 7

    def test_unfixed_randomness_hurts_fidelity(self, small_model):
        fixed_errs, unfixed_errs = [], []
        schedule = Schedule(4, 0.5, 0.5)
        for seed in range(8):
            noise = make_init_noise(small_model.spec, seed)
            base = denoise(small_model, noise, Schedule(4, 0.0, 0.0), None)
            for fix, acc in ((True, fixed_errs), (False, unfixed_errs)):
                tome = ToMeConfig(ratio=0.5, partition=PartitionScheme.random(0.25, batch_fix=fix),
                                  seed=seed)
                out = denoise(small_model, noise, schedule, tome)
                acc.append(compare_to_baseline(base, out).rel_l2)
        assert np.mean(unfixed_errs) > np.mean(fixed_errs)


class TestGuidance:
    def test_one_step_combines_the_stacked_pair(self, tiny_model):
        noise = make_init_noise(tiny_model.spec, 1)
        x = noise.values
        h, w, _ = tiny_model.spec.scales[0]
        prompts = np.stack([tiny_model.prompt_embedding,
                            np.zeros_like(tiny_model.prompt_embedding)])
        pred = tiny_model.forward(TokenGrid(GridShape(2, h, w), np.concatenate([x, x])),
                                  prompts).values
        cond, uncond = pred[:1], pred[1:]
        want = x - DTYPE(BASE_ALPHA) * (uncond + DTYPE(7.5) * (cond - uncond))
        got = denoise(tiny_model, noise, Schedule(1, 0.0, 0.0), None, guidance_scale=7.5)
        assert got.values.tobytes() == want.tobytes()


class TestCompareToBaseline:
    def test_identical_grids(self, tiny_model):
        grid = make_init_noise(tiny_model.spec, 0)
        err = compare_to_baseline(grid, grid)
        assert err.rel_l2 == 0.0 and err.max_abs == 0.0
        assert all(v == 0.0 for v in err.mean_shift)

    def test_constant_shift(self, tiny_model):
        a = make_init_noise(tiny_model.spec, 0).values
        b = a + np.float32(1.0)
        err = compare_to_baseline(a, b)
        rms = float(np.sqrt(np.mean(a.astype(np.float64) ** 2)))
        assert err.rel_l2 == pytest.approx(1.0 / rms, rel=1e-5)
        assert all(v == pytest.approx(1.0, abs=1e-6) for v in err.mean_shift)
        assert err.max_abs == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compare_to_baseline(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)))
