import numpy as np
import pytest

from tomebench import ToMeConfig, UNetSpec, init_unet
from tomebench.diffusion import Schedule
from tomebench.flops import (
    FlopCount,
    cross_attention_flops,
    flop_count,
    mlp_flops,
    peak_live_elements,
    run_flops,
    self_attention_flops,
)
from tomebench.grid import GridShape, TokenGrid
from tomebench.tensor import DTYPE, FlopCounter, count_matmul_flops
from tomebench.unet import merged_token_counts


def all_on(ratio=0.5, **kw):
    return ToMeConfig(ratio=ratio, apply_self=True, apply_cross=True, apply_mlp=True,
                      min_tokens=1, **kw)


class TestClosedForms:
    def test_self_attention_pairwise_quarter_at_half_tokens(self):
        full = self_attention_flops(1024, 64, 4)
        half = self_attention_flops(512, 64, 4)
        assert half.pairwise * 4 == full.pairwise
        assert half.matmul_pairwise * 4 == full.matmul_pairwise
        assert half.linear * 2 == full.linear

    def test_mlp_halves_linearly(self):
        assert mlp_flops(512, 64).total * 2 == mlp_flops(1024, 64).total

    def test_cross_attention_const_term_fixed(self):
        full = cross_attention_flops(1024, 8, 64, 4)
        half = cross_attention_flops(512, 8, 64, 4)
        assert half.matmul_const == full.matmul_const  # prompt projections never shrink
        assert half.linear * 2 == full.linear

    def test_merged_count(self):
        # n' = N - floor(ratio * N) for a merging block
        spec = UNetSpec(scales=((64, 64, 1),), channels=8, heads=2, prompt_tokens=2)
        assert merged_token_counts(spec, ToMeConfig(), 0.5) == (2048,)
        spec = UNetSpec(scales=((10, 10, 1),), channels=8, heads=2, prompt_tokens=2)
        assert merged_token_counts(spec, ToMeConfig(), 0.333) == (67,)


class TestFlopCountPolicy:
    def test_ratio_zero_equals_baseline(self, tiny_spec):
        tome = ToMeConfig(ratio=0.0)
        with_tome = flop_count(tiny_spec, tome, 0.0)
        plain = flop_count(tiny_spec, None, 0.0)
        assert [b.to_dict() for b in with_tome] == [b.to_dict() for b in plain]

    def test_self_only_ratios(self, tiny_spec):
        # top-scale blocks merged at 0.5: self pairwise 0.25x, self linear 0.5x,
        # cross and mlp untouched; deeper blocks fully untouched
        tome = ToMeConfig(ratio=0.5)  # defaults: self only, top scale only
        merged = flop_count(tiny_spec, tome, 0.5)
        base = flop_count(tiny_spec, None, 0.0)
        for mb, bb in zip(merged, base):
            if mb.n_tokens >= tiny_spec.top_tokens:
                assert mb.self_attn.pairwise * 4 == bb.self_attn.pairwise
                assert mb.self_attn.linear * 2 == bb.self_attn.linear
                assert mb.cross_attn.to_dict() == bb.cross_attn.to_dict()
                assert mb.mlp.to_dict() == bb.mlp.to_dict()
                assert mb.merged_token_count * 2 == mb.n_tokens
            else:
                assert mb.to_dict() == bb.to_dict()

    def test_mlp_merging_halves_mlp(self, tiny_spec):
        tome = all_on(0.5)
        merged = flop_count(tiny_spec, tome, 0.5)
        base = flop_count(tiny_spec, None, 0.0)
        for mb, bb in zip(merged, base):
            assert mb.mlp.total * 2 == bb.mlp.total

    def test_overhead_never_shrinks(self, tiny_spec):
        tome = all_on(0.5)
        merged = flop_count(tiny_spec, tome, 0.5)
        base = flop_count(tiny_spec, None, 0.0)
        for mb, bb in zip(merged, base):
            assert mb.overhead.to_dict() == bb.overhead.to_dict()


class TestRunFlops:
    def test_merged_never_exceeds_baseline(self, tiny_spec):
        schedule = Schedule(5, 0.3, 0.6)
        merged = run_flops(tiny_spec, ToMeConfig(ratio=0.5, ratio_start=0.3, ratio_end=0.6), schedule)
        base = run_flops(tiny_spec, None, schedule)
        assert merged.total <= base.total

    def test_speedup_monotone_in_ratio(self, tiny_spec):
        schedule_steps = 4
        totals = []
        for ratio in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            tome = all_on(ratio) if ratio > 0 else None
            totals.append(run_flops(tiny_spec, tome, Schedule(schedule_steps, ratio, ratio)).total)
        speedups = [totals[0] / t for t in totals]
        assert speedups[0] == 1.0
        for a, b in zip(speedups, speedups[1:]):
            assert b >= a

    def test_schedule_varies_counts(self, tiny_spec):
        constant = run_flops(tiny_spec, ToMeConfig(ratio=0.5), Schedule(10, 0.5, 0.5))
        decaying = run_flops(
            tiny_spec,
            ToMeConfig(ratio=0.5, ratio_start=0.7, ratio_end=0.3),
            Schedule(10, 0.7, 0.3),
        )
        assert constant.total != decaying.total


def counted_and_analytic_matmul_flops(spec, tome):
    """(FlopCounter total of one batch-2 forward, flop_count's matmul total for it)."""
    model = init_unet(spec)
    batch = 2
    h, w, _ = spec.scales[0]
    gen = np.random.default_rng(1)
    grid = TokenGrid(GridShape(batch, h, w),
                     gen.standard_normal((batch, h * w, spec.channels)).astype(DTYPE))
    prompts = np.broadcast_to(model.prompt_embedding, (batch,) + model.prompt_embedding.shape)

    counter = FlopCounter()
    with count_matmul_flops(counter):
        model.forward(grid, prompts, tome=tome)

    blocks = flop_count(spec, tome, 0.0 if tome is None else tome.ratio)
    analytic = sum(
        b.self_attn.matmul_total + b.cross_attn.matmul_total + b.mlp.matmul_total
        for b in blocks
    )
    return counter.matmul, analytic * batch


class TestInstrumentedEquality:
    @pytest.mark.parametrize("use_tome", [False, True])
    def test_matmul_counter_matches_analytic(self, tiny_spec, use_tome):
        tome = all_on(0.5, seed=3) if use_tome else None
        counted, analytic = counted_and_analytic_matmul_flops(tiny_spec, tome)
        assert counted == analytic

    @pytest.mark.parametrize("tome", [
        ToMeConfig(ratio=0.5, seed=3),  # self only, top scale only
        ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                   min_tokens=16, seed=3),  # floor met exactly by the 4x4 blocks
        all_on(0.01, seed=3),  # floor(0.01 * N) == 0 in every block: r = 0
        all_on(0.5, seed=3, prune=True),
    ], ids=["default", "min-tokens-16", "r-zero", "prune"])
    def test_matmul_counter_matches_analytic_policy(self, tiny_spec, tome):
        counted, analytic = counted_and_analytic_matmul_flops(tiny_spec, tome)
        assert counted == analytic


class TestMemoryProxy:
    def test_merging_reduces_peak(self, tiny_spec):
        base = peak_live_elements(tiny_spec, None, 0.0)
        merged = peak_live_elements(tiny_spec, all_on(0.5), 0.5)
        assert merged < base

    def test_peak_monotone_in_ratio(self, tiny_spec):
        peaks = []
        for ratio in (0.1, 0.3, 0.5, 0.7):
            tome = all_on(ratio)
            peaks.append(peak_live_elements(tiny_spec, tome, ratio))
        for a, b in zip(peaks, peaks[1:]):
            assert b <= a


def test_flopcount_addition():
    a = FlopCount(matmul_pairwise=1, other_linear=2)
    b = FlopCount(matmul_pairwise=10, matmul_const=5)
    c = a + b
    assert c.matmul_pairwise == 11 and c.other_linear == 2 and c.matmul_const == 5
    assert c.total == 18
