"""Bit-exactness of the allocation-lean and batched kernels against the reference kernels.

Every comparison is on `tobytes()`, so a single flipped bit (including the
sign of a zero) fails. Where an input makes the reference raise, the new
kernel must raise the same exception type.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels as ref
from tomebench import Schedule, ToMeConfig, UNetSpec, denoise, init_unet, make_init_noise
from tomebench import partition, unet
from tomebench.diffusion import BASE_ALPHA, ratio_at
from tomebench.grid import GridShape, TokenGrid
from tomebench.matching import MergePlan, RatioError, build_merge_plan
from tomebench.merging import MODE_MERGE, MODE_PRUNE, apply_unmerge, reduce_tokens
from tomebench.partition import PartitionError, PartitionPlan, PartitionScheme, make_partition
from tomebench.rng import StreamRng
from tomebench.tensor import (DTYPE, FlopCounter, NonFiniteError, count_matmul_flops,
                              layernorm_rows, softmax_rows)
from conftest import hand_plan, kept_src

INF = float("inf")


def outcome(fn, *args):
    """("ok", bytes) of the result, or ("raised", exception type)."""
    try:
        with np.errstate(all="ignore"):
            return "ok", fn(*args).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc)


# Moderate values are where rounding differences between operation orders show;
# the full range covers overflow, subnormals and signed zeros.
finite32 = st.floats(-8.0, 8.0, width=32) | st.floats(width=32, allow_nan=False,
                                                      allow_infinity=False)


@st.composite
def matrices(draw, min_cols=1, extra=st.nothing()):
    """float32 matrices from 1x1 up; some rows constant, some with `extra` values."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(min_cols, 9))
    a = draw(arrays(DTYPE, (rows, cols), elements=finite32 | extra))
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        a[r] = a[r, 0]
    return a


class TestElementwiseKernels:
    @settings(max_examples=300, deadline=None)
    @given(matrices(extra=st.just(-INF)))
    def test_softmax_rows(self, a):
        assert outcome(softmax_rows, a) == outcome(ref.softmax_rows, a)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_layernorm_rows(self, a):
        assert outcome(layernorm_rows, a) == outcome(ref.layernorm_rows, a)

    @settings(max_examples=300, deadline=None)
    @given(matrices(extra=st.sampled_from([-INF, INF, 0.0, -0.0])))
    def test_gelu(self, a):
        assert outcome(unet._gelu, a) == outcome(ref.gelu, a)

    @pytest.mark.parametrize("new,old", [
        (softmax_rows, ref.softmax_rows),
        (layernorm_rows, ref.layernorm_rows),
        (unet._gelu, ref.gelu),
    ])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_dense_normal_inputs(self, nprng, new, old, scale):
        a = (nprng.standard_normal((128, 96)) * scale).astype(DTYPE)
        assert new(a).tobytes() == old(a).tobytes()

    def test_inputs_not_mutated(self, nprng):
        a = nprng.standard_normal((5, 7)).astype(DTYPE)
        before = a.tobytes()
        softmax_rows(a)
        layernorm_rows(a)
        unet._gelu(a)
        assert a.tobytes() == before


class TestSoftmaxCheckEquivalence:
    """Checking the (n, 1) row sums raises on exactly the inputs where the
    reference's check of the (n, n) output raises."""

    @pytest.mark.parametrize("row", [
        [0.0, float("nan"), 1.0],
        [0.0, INF, 1.0],
        [INF, INF, INF],
        [-INF, -INF, -INF],
        [float("nan")] * 3,
    ])
    def test_bad_row_raises(self, row):
        a = np.array([[0.5, 0.25, 1.0], row], dtype=DTYPE)
        for fn in (softmax_rows, ref.softmax_rows):
            with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
                fn(a)

    @pytest.mark.parametrize("row", [[-INF, 0.0, 1.0], [-INF, -INF, 3.0], [-3e38, 3e38, 0.0]])
    def test_partly_neg_inf_row_passes(self, row):
        a = np.array([[0.5, 0.25, 1.0], row], dtype=DTYPE)
        with np.errstate(over="ignore"):
            assert softmax_rows(a).tobytes() == ref.softmax_rows(a).tobytes()


SCHEMES = ("alt", "strided:2x2", "strided:3x2", "rand:0.3", "rand:0.05", "rand2x2",
           "randtile:3x2")


@st.composite
def merge_cases(draw):
    """(x, plan, partition, reference plans): odd and even grids, ragged tiles, large groups.

    Element e of the partition is the dst mask element e was matched under.

    Batches of one and two elements, with and without `batch_fix` and shared
    guidance edges, and r from 0 up to the src count.
    """
    batch = draw(st.integers(1, 2))
    height, width = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    scheme = PartitionScheme.parse(draw(st.sampled_from(SCHEMES)), draw(st.booleans()))
    share = draw(st.booleans())
    seed = draw(st.integers(0, 2**32))
    try:
        part = make_partition(GridShape(batch, height, width), scheme, StreamRng(seed))
    except PartitionError:
        assume(False)
    n = height * width
    src = int(np.count_nonzero(~part.dst_mask, axis=1).min())
    r = draw(st.integers(0, src))
    channels = draw(st.integers(1, 5))
    x = draw(arrays(DTYPE, (batch * n, channels), elements=finite32))
    feats = np.random.default_rng(seed).standard_normal((batch, n, 3)).astype(DTYPE)
    ratio = r / n
    # floor(ratio * n) can land one below r; either way the plan is valid.
    if share:  # as `UNetModel._block` shares edges: plan element 0, then repeat the plan
        plan = build_merge_plan(feats[:1], part.prefix(1), ratio).repeated(batch)
        refs = [ref.build_merge_plan(feats[0], part, ratio, element=0)] * batch
        part = PartitionPlan(part.shape, np.repeat(part.dst_mask[:1], batch, axis=0))
    else:
        plan = build_merge_plan(feats, part, ratio)
        refs = [ref.build_merge_plan(feats[e], part, ratio, element=e) for e in range(batch)]
    return x, plan, part, refs


def assert_same_plan(plan, part, refs):
    m = plan.merged_token_count
    g = plan.grouping
    for e, old in enumerate(refs):
        assert plan.edges[e].tobytes() == old.edges.tobytes()
        assert kept_src(plan, part, e).tobytes() == old.kept_src.tobytes()
        assert (plan.r, m) == (old.r, old.merged_token_count)
        representatives, group_ids, group_sizes = ref.grouping(old)
        rows, tokens = slice(e * m, (e + 1) * m), slice(e * plan.n_tokens, (e + 1) * plan.n_tokens)
        assert (g.representatives[rows] - e * plan.n_tokens).tobytes() == representatives.tobytes()
        assert (g.group_ids[tokens] - e * m).tobytes() == group_ids.tobytes()
        assert g.group_sizes[rows].tobytes() == group_sizes.tobytes()


def assert_same_merge(x, plan, refs, mode):
    """The stacked reduce and unmerge equal the per-element reference, element by element."""
    n = plan.n_tokens
    new = reduce_tokens(x, plan.grouping, mode)
    old = [ref.reduce_tokens(x[e * n:(e + 1) * n], p, mode) for e, p in enumerate(refs)]
    assert new.tobytes() == np.concatenate(old).tobytes()
    # unmerge component outputs that differ from the reduced rows
    out = -new[::-1]
    m = plan.merged_token_count
    want = [ref.apply_unmerge(out[e * m:(e + 1) * m], p, mode) for e, p in enumerate(refs)]
    assert apply_unmerge(out, plan.grouping, mode).tobytes() == np.concatenate(want).tobytes()


class TestMergePath:
    @settings(max_examples=300, deadline=None)
    @given(merge_cases(), st.sampled_from([MODE_MERGE, MODE_PRUNE]))
    def test_reduce_and_unmerge(self, case, mode):
        x, plan, part, refs = case
        assert_same_plan(plan, part, refs)
        assert_same_merge(x, plan, refs, mode)

    def test_large_groups(self, nprng):
        part = make_partition(GridShape(2, 16, 16), PartitionScheme.random(0.05, False),
                              StreamRng(4))
        feats = nprng.standard_normal((2, 256, 4)).astype(DTYPE)
        plan = build_merge_plan(feats, part, 0.9)
        assert plan.grouping.group_sizes.max() > 8
        refs = [ref.build_merge_plan(feats[e], part, 0.9, element=e) for e in range(2)]
        assert_same_plan(plan, part, refs)
        # Wide dynamic range makes every association order round differently.
        x = (nprng.standard_normal((512, 6)) * 10.0 ** nprng.integers(-20, 20, (512, 6)))
        assert_same_merge(x.astype(DTYPE), plan, refs, MODE_MERGE)

    def test_signed_zero_members(self):
        part = hand_plan([True] + [False] * 3, 1, 4)
        feats = np.ones((1, 4, 1), DTYPE)
        plan = build_merge_plan(feats, part, 0.75)
        refs = [ref.build_merge_plan(feats[0], part, 0.75)]
        x = np.full((4, 2), -0.0, dtype=DTYPE)
        assert_same_merge(x, plan, refs, MODE_MERGE)

    def test_one_token_plan(self):
        plan = MergePlan(1, np.empty((1, 0, 2), np.int64))
        refs = [ref.ElementPlan(1, np.empty((0, 2), np.int64), np.empty(0, np.int64), 1)]
        assert_same_merge(np.array([[-0.0, 2.5]], DTYPE), plan, refs, MODE_MERGE)

    def test_grouping_built_once(self, nprng):
        part = make_partition(GridShape(2, 8, 8), PartitionScheme.rand_tile(2, 2), StreamRng(0))
        plan = build_merge_plan(nprng.standard_normal((2, 64, 4)).astype(DTYPE), part, 0.5)
        assert plan.grouping is plan.grouping
        assert not plan.grouping.group_ids.flags.writeable


class TestRandTileDraw:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 13), st.integers(1, 13), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 2**32))
    def test_matches_per_tile_loop(self, height, width, ty, tx, seed):
        shape, scheme = GridShape(1, height, width), PartitionScheme.rand_tile(ty, tx)
        gen_new, gen_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw checks that both consumed the same stream
            new = partition._rand_tile_mask(shape, scheme, gen_new)
            old = ref.rand_tile_mask(shape, scheme, gen_old)
            assert new.tobytes() == old.tobytes()


def patch_reference_kernels(monkeypatch):
    monkeypatch.setattr(unet, "softmax_rows", ref.softmax_rows)
    monkeypatch.setattr(unet, "_layernorm", ref.layernorm_rows)
    monkeypatch.setattr(unet.UNetModel, "_attention", ref.attention)
    monkeypatch.setattr(unet.UNetModel, "_mlp", ref.mlp)
    monkeypatch.setattr(unet.UNetModel, "_block", ref.block)
    monkeypatch.setattr(partition, "_rand_tile_mask", ref.rand_tile_mask)


class TestAttentionTiles:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 3000), st.integers(1, 3000))
    def test_tiles_cover_each_row_once_within_budget(self, pairs, n, m):
        seen = np.zeros((pairs, n), dtype=np.int64)
        row_counts = set()
        for group, rows in unet.attention_tiles(pairs, n, m):
            seen[group, rows] += 1
            count = rows.stop - rows.start
            assert (group.stop - group.start) * count * m <= max(unet.TILE, m)
            row_counts.add(count)
        assert np.all(seen == 1)
        assert max(row_counts) - min(row_counts) <= 1  # balanced row blocks

    @pytest.mark.parametrize("pairs,n,m,tiles", [
        (8, 64, 64, [(8, 64)]),  # every pair in one tile
        (8, 200, 200, [(6, 200), (2, 200)]),  # a short last group
        (8, 512, 512, [(1, 512)] * 8),  # one pair is exactly one tile
        (2, 1030, 1030, [(1, 206)] * 10),  # row blocks of a ragged n
        (8, 1030, 8, [(8, 1030)]),  # prompt-length keys
    ])
    def test_tile_shapes(self, pairs, n, m, tiles):
        assert [(g.stop - g.start, r.stop - r.start)
                for g, r in unet.attention_tiles(pairs, n, m)] == tiles


@pytest.mark.parametrize("n,m", [(64, 64), (200, 200), (512, 512), (1030, 1030), (1030, 8)])
def test_attention_matches_per_head_reference(nprng, n, m):
    """The batched, tiled kernel on a guidance pair equals the per-element, per-head one."""
    model = init_unet(UNetSpec(scales=((8, 8, 1),), channels=64, heads=4, weight_seed=5))
    w = model.blocks[0]
    weights = (w.self_q, w.self_k, w.self_v, w.self_o)
    q_in = nprng.standard_normal((2, n, 64)).astype(DTYPE)
    kv_in = q_in if m == n else nprng.standard_normal((2, m, 64)).astype(DTYPE)
    new_flops, old_flops = FlopCounter(), FlopCounter()
    with count_matmul_flops(new_flops):
        new = model._attention(q_in, kv_in, *weights)
    with count_matmul_flops(old_flops):
        old = np.stack([ref.attention(model, q_in[e], kv_in[e], *weights) for e in range(2)])
    assert new.tobytes() == old.tobytes()
    assert new_flops.matmul == old_flops.matmul


SPECS = {
    8: UNetSpec(scales=((8, 8, 1), (4, 4, 1)), channels=16, heads=2, prompt_tokens=4,
                weight_seed=3),
    16: UNetSpec(scales=((16, 16, 1), (8, 8, 1), (4, 4, 1)), channels=16, heads=2,
                 prompt_tokens=4, weight_seed=3),
    # 1024-token attention splits into row blocks; dh = 16 as in the default model
    32: UNetSpec(scales=((32, 32, 1), (16, 16, 1)), channels=32, heads=2, prompt_tokens=4,
                 weight_seed=3),
}


@pytest.mark.parametrize("side", [8, 16])
@pytest.mark.parametrize("scheme", ["alt", "strided:2x2", "rand:0.3", "rand2x2"])
@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("share", [False, True])
@pytest.mark.parametrize("batch_fix", [True, False])
def test_denoise_matches_reference_kernels(monkeypatch, side, scheme, prune, share, batch_fix):
    spec = SPECS[side]
    model = init_unet(spec)
    noise = make_init_noise(spec, 1)
    tome = ToMeConfig(ratio=0.4, partition=PartitionScheme.parse(scheme, batch_fix),
                      apply_cross=True, apply_mlp=True, min_tokens=1, seed=2, prune=prune,
                      share_guidance_edges=share)
    schedule = Schedule(2, 0.4, 0.2)
    new = denoise(model, noise, schedule, tome, 7.5).values.tobytes()
    with monkeypatch.context() as m:
        patch_reference_kernels(m)
        old = denoise(model, noise, schedule, tome, 7.5).values.tobytes()
    assert new == old


@pytest.mark.parametrize("side", sorted(SPECS))
def test_baseline_denoise_matches_reference_kernels(monkeypatch, side):
    spec = SPECS[side]
    model = init_unet(spec)
    noise = make_init_noise(spec, 1)
    schedule = Schedule(2, 0.0, 0.0)
    new = denoise(model, noise, schedule, None, 7.5).values.tobytes()
    with monkeypatch.context() as m:
        patch_reference_kernels(m)
        old = denoise(model, noise, schedule, None, 7.5).values.tobytes()
    assert new == old


@pytest.mark.parametrize("tome", [
    ToMeConfig(seed=2),  # default policy: self-attention of the 1024-token block at 0.5
    # 717 merged tokens in every component: ragged row blocks of 359 and 358
    ToMeConfig(ratio=0.3, apply_cross=True, apply_mlp=True, min_tokens=1, seed=2),
], ids=["default", "ratio0.3-all"])
def test_denoise_matches_reference_kernels_side_32(monkeypatch, tome):
    model = init_unet(SPECS[32])
    noise = make_init_noise(SPECS[32], 1)
    schedule = Schedule(1, tome.ratio, tome.ratio)
    new = denoise(model, noise, schedule, tome, 7.5).values.tobytes()
    with monkeypatch.context() as m:
        patch_reference_kernels(m)
        old = denoise(model, noise, schedule, tome, 7.5).values.tobytes()
    assert new == old


def denoise_pair_by_pair(model, noise, schedule, tome, guidance_scale, trace):
    """`denoise` with each step's latent handed to the model as the explicit pair [x, x].

    A grid of the prompts' batch starts expanded, so every block evaluates
    both elements from its first component on.
    """
    prompts = np.stack([model.prompt_embedding, np.zeros_like(model.prompt_embedding)])
    pair_shape = GridShape(2, noise.shape.height, noise.shape.width)
    x = noise.values
    for step in range(schedule.steps):
        pair = TokenGrid(pair_shape, np.concatenate([x, x]))
        pred = model.forward(pair, prompts, tome=tome, ratio=ratio_at(schedule, step),
                             step=step, trace=trace)
        cond, uncond = pred.values[:1], pred.values[1:]
        alpha = DTYPE(BASE_ALPHA * (1.0 - step / schedule.steps))
        x = x - alpha * (uncond + DTYPE(guidance_scale) * (cond - uncond))
    return x


@st.composite
def shared_latent_runs(draw):
    """(model, noise, schedule, policy or None) on tiny one- and two-scale models.

    Covers every partition scheme with and without `batch_fix`, shared edges,
    merge and prune, every `apply` subset, `min_tokens` floors that gate
    blocks, and ratios down to floor(ratio * N) == 0.
    """
    scales = draw(st.integers(1, 2))
    height, width = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6]))
    blocks = draw(st.integers(1, 2))
    spec = UNetSpec(scales=tuple((height >> s, width >> s, blocks) for s in range(scales)),
                    channels=8, heads=2, prompt_tokens=3, weight_seed=draw(st.integers(0, 3)))
    ratios = st.sampled_from([0.01, 0.25, 0.3, 0.45]) | st.floats(0.0, 0.45)
    start, end = draw(ratios), draw(ratios)
    schedule = Schedule(draw(st.integers(1, 3)), start, end)
    if draw(st.integers(0, 4)) == 0:
        return spec, schedule, None
    apply = draw(st.sampled_from([(s, c, m) for s in (0, 1) for c in (0, 1) for m in (0, 1)
                                  if s or c or m]))
    scheme = PartitionScheme.parse(draw(st.sampled_from(SCHEMES)), draw(st.booleans()))
    tome = ToMeConfig(ratio=start, ratio_start=start, ratio_end=end, partition=scheme,
                      apply_self=bool(apply[0]), apply_cross=bool(apply[1]),
                      apply_mlp=bool(apply[2]),
                      min_tokens=draw(st.sampled_from([None, 1, 1, 4, 9, 16])),
                      seed=draw(st.integers(0, 2**32)), prune=draw(st.booleans()),
                      share_guidance_edges=draw(st.booleans()))
    return spec, schedule, tome


def traced_outcome(run, *args):
    """(("ok", bytes) or ("raised", exception type), trace records) of one denoise."""
    trace = unet.RunTrace()
    try:
        result = "ok", np.asarray(run(*args, trace)).tobytes()
    except (PartitionError, RatioError) as exc:
        result = "raised", type(exc)
    return result, trace.records


@settings(max_examples=200, deadline=None)
@given(shared_latent_runs(), st.integers(0, 2**32))
def test_shared_latent_equals_the_explicit_pair(run, noise_seed):
    """Evaluating the pair's shared latent once changes no output byte and no trace record."""
    spec, schedule, tome = run
    model = init_unet(spec)
    noise = make_init_noise(spec, noise_seed)
    shared = traced_outcome(lambda *a: denoise(*a).values, model, noise, schedule, tome, 7.5)
    paired = traced_outcome(denoise_pair_by_pair, model, noise, schedule, tome, 7.5)
    assert shared == paired
