import numpy as np
import pytest

from tomebench import ConfigError, RunTrace, ToMeConfig, UNetSpec, init_unet
from tomebench.grid import GridShape, TokenGrid
from tomebench.tensor import DTYPE, ShapeError
from tomebench.unet import merged_token_counts


def grid_for(spec, batch=1, seed=0):
    h, w, _ = spec.scales[0]
    gen = np.random.default_rng(seed)
    return TokenGrid(GridShape(batch, h, w), gen.standard_normal((batch, h * w, spec.channels)).astype(DTYPE))


def prompts_for(model, batch):
    return np.broadcast_to(model.prompt_embedding, (batch,) + model.prompt_embedding.shape)


class TestInit:
    def test_bit_identical_rebuild(self, tiny_spec):
        a, b = init_unet(tiny_spec), init_unet(tiny_spec)
        assert np.array_equal(a.blocks[0].self_q, b.blocks[0].self_q)
        assert np.array_equal(a.blocks[-1].mlp_out, b.blocks[-1].mlp_out)
        assert np.array_equal(a.prompt_embedding, b.prompt_embedding)

    def test_block_count(self):
        spec = UNetSpec(scales=((16, 16, 2), (8, 8, 2)), channels=8, heads=2, prompt_tokens=2)
        model = init_unet(spec)
        assert len(model.blocks) == 4

    def test_seed_changes_weights(self, tiny_spec):
        import dataclasses
        other = init_unet(dataclasses.replace(tiny_spec, weight_seed=tiny_spec.weight_seed + 1))
        base = init_unet(tiny_spec)
        assert not np.array_equal(base.blocks[0].self_q, other.blocks[0].self_q)

    def test_scale_halving_enforced(self):
        with pytest.raises(ShapeError):
            UNetSpec(scales=((16, 16, 2), (9, 8, 2)), channels=8, heads=2)


class TestForward:
    def test_shape_preserved(self, tiny_model):
        for batch in (1, 2):
            grid = grid_for(tiny_model.spec, batch)
            tome = ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                              min_tokens=1, seed=1)
            out = tiny_model.forward(grid, prompts_for(tiny_model, batch), tome=tome)
            assert out.values.shape == grid.values.shape

    def test_ratio_zero_bit_identical_to_plain(self, tiny_model):
        grid = grid_for(tiny_model.spec, 2)
        prompts = prompts_for(tiny_model, 2)
        plain = tiny_model.forward(grid, prompts, tome=None)
        wrapped = tiny_model.forward(grid, prompts, tome=ToMeConfig(ratio=0.0), ratio=0.0)
        assert np.array_equal(plain.values, wrapped.values)

    def test_min_tokens_gates_all_blocks(self, tiny_model):
        grid = grid_for(tiny_model.spec, 1)
        prompts = prompts_for(tiny_model, 1)
        tome = ToMeConfig(ratio=0.5, min_tokens=10_000, seed=0)
        gated = tiny_model.forward(grid, prompts, tome=tome)
        plain = tiny_model.forward(grid, prompts, tome=None)
        assert np.array_equal(gated.values, plain.values)

    def test_min_tokens_top_scale_only(self, tiny_model):
        grid = grid_for(tiny_model.spec, 1)
        trace = RunTrace()
        tome = ToMeConfig(ratio=0.5, seed=0)  # min_tokens=None -> top scale (64)
        tiny_model.forward(grid, prompts_for(tiny_model, 1), tome=tome, trace=trace)
        eligible_layers = {r.layer for r in trace.eligible_records()}
        assert eligible_layers == {0, 1}  # the two top-scale blocks
        for record in trace.records:
            if not record.eligible:
                assert record.merged_token_count == record.n_tokens

    def test_batch_elements_independent_with_batch_fix(self, tiny_model):
        a = grid_for(tiny_model.spec, 1, seed=1)
        b = grid_for(tiny_model.spec, 1, seed=2)
        both = TokenGrid(
            GridShape(2, a.shape.height, a.shape.width),
            np.concatenate([a.values, b.values]),
        )
        tome = ToMeConfig(ratio=0.5, seed=3)
        prompts = prompts_for(tiny_model, 2)
        stacked = tiny_model.forward(both, prompts, tome=tome).values
        solo_a = tiny_model.forward(a, prompts[:1], tome=tome).values
        solo_b = tiny_model.forward(b, prompts[1:], tome=tome).values
        assert np.array_equal(stacked[0], solo_a[0])
        assert np.array_equal(stacked[1], solo_b[0])

    def test_wrong_grid_shape(self, tiny_model):
        grid = TokenGrid(GridShape(1, 4, 4), np.zeros((1, 16, 16), DTYPE))
        with pytest.raises(ShapeError):
            tiny_model.forward(grid, prompts_for(tiny_model, 1))

    def test_wrong_prompt_rows(self, tiny_model):
        grid = grid_for(tiny_model.spec, 1)
        bad = np.zeros((1, 3, tiny_model.spec.channels), DTYPE)
        with pytest.raises(ShapeError):
            tiny_model.forward(grid, bad)


class TestBlockMerging:
    def test_one_similarity_per_block_per_step(self, tiny_model):
        trace = RunTrace()
        grid = grid_for(tiny_model.spec, 2)
        tome = ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                          min_tokens=1, seed=0)
        tiny_model.forward(grid, prompts_for(tiny_model, 2), tome=tome, step=4, trace=trace)
        assert all(r.similarity_computes == 1 for r in trace.records)
        assert trace.similarity_total == len(tiny_model.blocks)

    def test_token_counts_recorded(self, tiny_model):
        trace = RunTrace()
        grid = grid_for(tiny_model.spec, 1)
        tome = ToMeConfig(ratio=0.5, min_tokens=1, seed=0)
        tiny_model.forward(grid, prompts_for(tiny_model, 1), tome=tome, trace=trace)
        for record in trace.eligible_records():
            n = record.n_tokens
            assert record.r == int(0.5 * n)
            assert record.merged_token_count == n - record.r

    def test_no_ratio_merges_at_the_step_0_ratio(self):
        # the schedule's start ratio (0.1 of 64 tokens: r = 6), not `ratio` (r = 32)
        spec = UNetSpec(scales=((8, 8, 1),), channels=8, heads=2, prompt_tokens=2)
        model = init_unet(spec)
        tome = ToMeConfig(ratio=0.5, ratio_start=0.1, ratio_end=0.1, min_tokens=1)
        trace = RunTrace()
        model.forward(grid_for(spec, 1), model.prompt_embedding, tome=tome, trace=trace)
        assert [r.r for r in trace.records] == [6]

    @pytest.mark.parametrize("side,seed", [(2, 5), (4, 6)])
    def test_identical_tokens_match_plain_forward(self, side, seed):
        spec = UNetSpec(scales=((side, side, 1),), channels=8, heads=2, prompt_tokens=2,
                        weight_seed=3)
        model = init_unet(spec)
        row = np.random.default_rng(seed).standard_normal(8).astype(DTYPE)
        grid = TokenGrid(GridShape(1, side, side), np.tile(row, (1, side * side, 1)))
        tome = ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                          min_tokens=1, seed=0)
        plain = model.forward(grid, model.prompt_embedding, tome=None)
        merged = model.forward(grid, model.prompt_embedding, tome=tome)
        assert np.array_equal(plain.values, merged.values)

    def test_half_ratio_runs_components_on_half_tokens_4096(self):
        # 64x64 grid: every component evaluates 2048 tokens, output still 4096
        spec = UNetSpec(scales=((64, 64, 1),), channels=64, heads=4, prompt_tokens=8,
                        weight_seed=1)
        model = init_unet(spec)
        grid = grid_for(spec, 1)
        tome = ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                          min_tokens=1, seed=0)
        trace = RunTrace()
        out = model.forward(grid, model.prompt_embedding, tome=tome, trace=trace)
        assert out.values.shape == (1, 4096, 64)
        record = trace.records[0]
        assert record.r == 2048
        assert record.merged_token_count == 2048

    def test_uniform_attention_over_equal_logits(self):
        # hand check behind the identical-token case: equal logits -> 1/n weights
        from tomebench.tensor import softmax_rows
        out = softmax_rows(np.full((1, 4), 2.5, DTYPE))
        assert np.array_equal(out, np.full((1, 4), 0.25, DTYPE))

    def test_prune_mode_differs_from_merge(self, tiny_model):
        grid = grid_for(tiny_model.spec, 1)
        prompts = prompts_for(tiny_model, 1)
        merged = tiny_model.forward(grid, prompts, tome=ToMeConfig(ratio=0.5, seed=0))
        pruned = tiny_model.forward(grid, prompts, tome=ToMeConfig(ratio=0.5, seed=0, prune=True))
        assert not np.array_equal(merged.values, pruned.values)

    def test_share_guidance_edges_smoke(self, tiny_model):
        grid = grid_for(tiny_model.spec, 2)
        prompts = prompts_for(tiny_model, 2)
        tome = ToMeConfig(ratio=0.5, seed=0, share_guidance_edges=True)
        a = tiny_model.forward(grid, prompts, tome=tome)
        b = tiny_model.forward(grid, prompts, tome=tome)
        assert np.array_equal(a.values, b.values)

    def test_disabled_components_run_full_width(self, tiny_model):
        # default policy merges self-attn only; cross/mlp outputs must match a
        # run where only self-attn exists to be merged
        grid = grid_for(tiny_model.spec, 1)
        prompts = prompts_for(tiny_model, 1)
        self_only = ToMeConfig(ratio=0.5, min_tokens=1, seed=9)
        all_on = ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                            min_tokens=1, seed=9)
        assert not np.array_equal(
            tiny_model.forward(grid, prompts, tome=self_only).values,
            tiny_model.forward(grid, prompts, tome=all_on).values,
        )


class TestMergedTokenCounts:
    # tiny_spec blocks in forward order: two 8x8 (64 tokens), then two 4x4 (16)
    def test_default_floor_is_top_scale_only(self, tiny_spec):
        tome = ToMeConfig(ratio=0.5, min_tokens=None)
        assert merged_token_counts(tiny_spec, tome, 0.5) == (32, 32, None, None)

    def test_explicit_floor(self, tiny_spec):
        tome = ToMeConfig(ratio=0.5, min_tokens=1)
        assert merged_token_counts(tiny_spec, tome, 0.5) == (32, 32, 8, 8)
        tome = ToMeConfig(ratio=0.5, min_tokens=65)
        assert merged_token_counts(tiny_spec, tome, 0.5) == (None,) * 4
        with pytest.raises(ConfigError, match="min_tokens"):
            ToMeConfig(min_tokens=0)

    def test_floor_is_inclusive(self, tiny_spec):
        assert merged_token_counts(tiny_spec, ToMeConfig(min_tokens=16), 0.5) == (32, 32, 8, 8)
        assert merged_token_counts(tiny_spec, ToMeConfig(min_tokens=17), 0.5) == (
            32, 32, None, None)
        assert merged_token_counts(tiny_spec, ToMeConfig(min_tokens=64), 0.5) == (
            32, 32, None, None)

    def test_ratio_zero_or_no_policy_merges_nothing(self, tiny_spec):
        assert merged_token_counts(tiny_spec, ToMeConfig(ratio=0.0, min_tokens=1), 0.0) == (
            None,) * 4
        assert merged_token_counts(tiny_spec, None, 0.5) == (None,) * 4

    def test_ratio_removing_no_token_still_merges(self, tiny_spec):
        # floor(0.01 * 64) == floor(0.01 * 16) == 0: eligible, with every token kept
        tome = ToMeConfig(ratio=0.01, min_tokens=1)
        assert merged_token_counts(tiny_spec, tome, 0.01) == (64, 64, 16, 16)
