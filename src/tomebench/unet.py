"""Deterministic toy U-Net of transformer blocks over latent token grids.

The model is a stack of pre-norm transformer blocks (self attention, cross
attention over a fixed prompt embedding, mlp) arranged in scales; each scale
halves the grid, blocks run on the way down, and nearest-neighbor upsampled
activations are added back through plain skip connections on the way up.
Weights are randomly initialized from a seed and never trained.

Token merging wraps each block component: one partition and one merge plan
are built per block per step for the whole batch from the block's input,
each enabled component sees only the merged tokens, and its output is
unmerged before the residual add, so the token count entering and leaving
every block is unchanged.
Attention logits never see group sizes (no proportional attention), and
prompt tokens are never merged.

A block evaluates each component once on the whole guidance batch, and
attention serves every (element, head) pair in a few stacked products whose
logits are tiled to at most `TILE` elements (`attention_tiles`); the bytes
equal a loop over elements and heads. When a pair's logits split into row
blocks and OpenBLAS runs on one thread, one helper thread computes the
second half of the tiles (`attention_threads`); every tile issues the same
products, so the bytes do not change. A latent the guidance elements share
is evaluated once up to the first component that reads the prompt, block
0's cross-attention, since every element would compute the same bytes there.

`merged_token_counts` is the single home of the merge policy: which blocks
merge at a given ratio, and how many tokens their merged components evaluate.
The forward pass, the FLOP and memory model and the token ledger all derive
from it. It builds on `policy_covers` (the blocks the policy applies to at
all), which the capacity check reads too.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import HarnessConfig, ToMeConfig
from .grid import GridShape, TokenGrid
from .matching import (SimilarityCounter, build_merge_plan, count_similarity_calls,
                       tokens_to_remove)
from .merging import MODE_MERGE, MODE_PRUNE, apply_unmerge, reduce_tokens
from .partition import make_partition
from .rng import StreamRng
from .tensor import DTYPE, ShapeError, blas_threads, layernorm_rows, matmul, softmax_rows

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

WEIGHT_STD = 0.02

# float32 attention logits per tile (1 MiB): one stacked logits product never
# holds more, unless a single query row over all keys is longer.
TILE = 2**18

FLOAT32_MAX = float(np.finfo(DTYPE).max)


@dataclass(frozen=True)
class UNetSpec:
    """Model geometry: per-scale grids and block counts, channels, heads."""

    scales: tuple[tuple[int, int, int], ...]  # (height, width, blocks) per scale
    channels: int = 64
    heads: int = 4
    prompt_tokens: int = 8
    weight_seed: int = 1234

    def __post_init__(self):
        if not self.scales:
            raise ShapeError("at least one scale required")
        for h, w, blocks in self.scales:
            if h < 1 or w < 1 or blocks < 1:
                raise ShapeError(f"scale dims and block counts must be >= 1, got {(h, w, blocks)}")
        for (h0, w0, _), (h1, w1, _) in zip(self.scales, self.scales[1:]):
            if h1 * 2 != h0 or w1 * 2 != w0:
                raise ShapeError(
                    f"each scale must halve the previous: {(h0, w0)} -> {(h1, w1)}"
                )
        if self.channels % self.heads:
            raise ShapeError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.prompt_tokens < 1:
            raise ShapeError("prompt_tokens must be >= 1")

    @property
    def n_blocks(self) -> int:
        return sum(blocks for _, _, blocks in self.scales)

    @property
    def top_tokens(self) -> int:
        h, w, _ = self.scales[0]
        return h * w

    def block_dims(self) -> tuple[tuple[int, int, int], ...]:
        """(scale_index, height, width) per block, in forward order."""
        dims = []
        for si, (h, w, blocks) in enumerate(self.scales):
            dims.extend((si, h, w) for _ in range(blocks))
        return tuple(dims)


def build_spec(harness: HarnessConfig) -> UNetSpec:
    scales = tuple((h, w, harness.blocks_per_scale) for h, w in harness.scale_dims())
    return UNetSpec(
        scales=scales,
        channels=harness.channels,
        heads=harness.heads,
        prompt_tokens=harness.prompt_tokens,
        weight_seed=harness.weight_seed,
    )


def policy_covers(spec: UNetSpec, tome: ToMeConfig | None, ratio: float) -> tuple[bool, ...]:
    """Per block in forward order: whether the merge policy covers it at `ratio`.

    The policy covers a block when a policy is given, the ratio is positive
    and the block holds at least `min_tokens` tokens (by default, the top
    scale's).
    """
    if tome is None or ratio <= 0.0:
        return (False,) * spec.n_blocks
    min_tokens = tome.min_tokens_for(spec.top_tokens)
    return tuple(h * w >= min_tokens for _, h, w in spec.block_dims())


def merged_token_counts(
    spec: UNetSpec, tome: ToMeConfig | None, ratio: float
) -> tuple[int | None, ...]:
    """Per block in forward order: N - floor(ratio * N) if it merges, else None.

    A block merges when the policy covers it and floor(ratio * N) removes at
    least one token.
    """
    counts = []
    for covered, (_, h, w) in zip(policy_covers(spec, tome, ratio), spec.block_dims()):
        r = tokens_to_remove(ratio, h * w) if covered else 0
        counts.append(h * w - r if r else None)
    return tuple(counts)


def attention_tiles(pairs: int, n: int, m: int) -> list[tuple[slice, slice]]:
    """(pair slice, query-row slice) tiles covering `pairs` n x m logits matrices.

    While one n x m matrix fits in `TILE`, a tile takes whole matrices, as many
    pairs as fit. Otherwise each pair's query rows split into balanced blocks
    of at most `TILE // m` rows (row counts differ by at most one).
    """
    if n * m <= TILE:
        per = max(1, TILE // (n * m))
        return [(slice(g, min(g + per, pairs)), slice(0, n)) for g in range(0, pairs, per)]
    blocks = -(-n // max(1, TILE // m))
    bounds = [b * n // blocks for b in range(blocks + 1)]
    return [(slice(g, g + 1), slice(lo, hi))
            for g in range(pairs) for lo, hi in zip(bounds, bounds[1:])]


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def attention_threads() -> int:
    """The threads a row-block attention call computes on now: 2 or 1.

    Two when OpenBLAS computes on one thread and the process may run on two
    or more CPUs: the caller and `_row_block_helper` then each compute half
    of the call's tiles. Whole-pair tiles always stay on the caller: the
    lock hand-offs of a split cost small products more CPU time than they
    save wall time (README, "Attention kernel").
    """
    return 2 if blas_threads() == 1 and _usable_cpus() >= 2 else 1


@functools.cache
def _row_block_helper() -> ThreadPoolExecutor:
    """The one long-lived helper thread of row-block attention, started on first use."""
    # Imported here: concurrent.futures takes about 6 ms to import (it pulls in
    # logging), which runs that never split a row block need not pay.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tomebench-attention")


# A forked child has no helper thread, so it must start its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_row_block_helper.cache_clear)


def _max_abs(a: np.ndarray) -> float:
    return max(float(a.max()), -float(a.min()))


@dataclass
class BlockTraceRecord:
    """Instrumentation for one block evaluation at one step (whole batch)."""

    step: int
    layer: int
    n_tokens: int
    eligible: bool
    r: int
    merged_token_count: int
    similarity_computes: int
    dst_count: int | None = None
    dst_masks: tuple[bytes, ...] | None = None


class RunTrace:
    """Collects per-block records, per-step wall times and minor page faults for one run.

    `baseline_step_times` holds the wall time of each step of the baseline
    denoise the run computed, and stays None when the run computed none.
    `blas_threads` is the OpenBLAS thread count the run computed with, None
    where it was not read; `attention_threads` the threads its row-block
    attention computed on (see `attention_threads`), None where not read.
    """

    def __init__(self, blas_threads: int | None = None, attention_threads: int | None = None):
        self.records: list[BlockTraceRecord] = []
        self.step_times: list[float] = []
        self.step_minor_faults: list[int] = []
        self.baseline_step_times: list[float] | None = None
        self.blas_threads = blas_threads
        self.attention_threads = attention_threads

    def add(self, record: BlockTraceRecord) -> None:
        self.records.append(record)

    @property
    def similarity_total(self) -> int:
        return sum(r.similarity_computes for r in self.records)

    def eligible_records(self) -> list[BlockTraceRecord]:
        return [r for r in self.records if r.eligible]

    def merged_eval_total(self) -> int:
        return sum(r.merged_token_count for r in self.eligible_records())


@dataclass(frozen=True)
class BlockWeights:
    self_q: np.ndarray
    self_k: np.ndarray
    self_v: np.ndarray
    self_o: np.ndarray
    cross_q: np.ndarray
    cross_k: np.ndarray
    cross_v: np.ndarray
    cross_o: np.ndarray
    mlp_in: np.ndarray
    mlp_out: np.ndarray


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation 0.5 * x * (1 + tanh(c0 * (x + c1 * x * x * x))), evaluated
    # in float32 in exactly that order; the in-place steps only touch the two
    # arrays allocated here.
    c0 = DTYPE(0.7978845608028654)
    c1 = DTYPE(0.044715)
    inner = c1 * x
    inner *= x
    inner *= x
    inner += x
    inner *= c0
    np.tanh(inner, out=inner)
    inner += DTYPE(1.0)
    out = DTYPE(0.5) * x
    out *= inner
    return out


class UNetModel:
    """Immutable weights plus a pure forward pass."""

    def __init__(self, spec: UNetSpec, blocks: list[BlockWeights], prompt_embedding: np.ndarray):
        self.spec = spec
        self.blocks = blocks
        self.prompt_embedding = prompt_embedding

    # -- components ---------------------------------------------------------

    def _attention(self, q_in, kv_in, wq, wk, wv, wo) -> np.ndarray:
        """Multi-head attention of each element's queries over its own keys.

        `q_in` is (batch, n, channels) and `kv_in` (batch, m, channels); the
        result is (batch, n, channels). Projections run once over all rows,
        and the (element, head) pairs share their logits products in tiles
        of at most `TILE` elements (see `attention_tiles`). Row-block tiles
        may split between the caller and a helper thread (see
        `attention_threads`); the caller waits for the helper before it
        returns or raises.
        """
        batch, n, channels = q_in.shape
        m = kv_in.shape[1]
        heads = self.spec.heads
        dh = channels // heads
        pairs = batch * heads
        scale = DTYPE(1.0 / math.sqrt(dh))

        def split_heads(x, w):
            # (batch, length, channels) @ w as a (batch, heads, length, dh) view
            length = x.shape[1]
            out = matmul(x.reshape(batch * length, channels), w)
            return out.reshape(batch, length, heads, dh).transpose(0, 2, 1, 3)

        q = split_heads(q_in, wq).reshape(pairs, n, dh)
        # contiguous (dh, m) key matrices, the layout the per-head loop handed BLAS
        kt = np.ascontiguousarray(split_heads(kv_in, wk).swapaxes(2, 3)).reshape(pairs, dh, m)
        v = split_heads(kv_in, wv).reshape(pairs, m, dh)
        out = np.empty((pairs, n, dh), DTYPE)
        # q and k are finite (their projections were checked), so no logit exceeds
        # dh * max|q| * max|k| by more than float32 rounding, 1 + dh * 2**-23. Below
        # float32 max no logit can be +-inf or NaN, and no tile needs its own check.
        bound = dh * _max_abs(q) * _max_abs(kt) * (1.0 + dh * 2.0**-23)
        check = not bound < FLOAT32_MAX

        def compute(tiles):
            for group, rows in tiles:
                logits = matmul(q[group, rows], kt[group], check=check)
                logits *= scale  # matmul returned a fresh array, so both steps work in place
                out[group, rows] = matmul(softmax_rows(logits, out=logits), v[group])

        tiles = attention_tiles(pairs, n, m)
        if n * m <= TILE or attention_threads() == 1:
            compute(tiles)
        else:
            # Row blocks of one pair write disjoint rows of `out`; the serial loop
            # would raise at the first bad tile, which is in the caller's half if
            # both halves hold one.
            half = (len(tiles) + 1) // 2
            helper = _row_block_helper().submit(compute, tiles[half:])
            try:
                compute(tiles[:half])
            finally:
                helper_error = helper.exception()  # waits, also when the caller's half raised
            if helper_error is not None:
                raise helper_error
        out = out.reshape(batch, heads, n, dh).transpose(0, 2, 1, 3)
        return matmul(out.reshape(batch * n, channels), wo).reshape(batch, n, channels)

    def _self_attention(self, tokens, w: BlockWeights) -> np.ndarray:
        return self._attention(tokens, tokens, w.self_q, w.self_k, w.self_v, w.self_o)

    def _cross_attention(self, tokens, prompt, w: BlockWeights) -> np.ndarray:
        return self._attention(tokens, prompt, w.cross_q, w.cross_k, w.cross_v, w.cross_o)

    def _mlp(self, tokens, w: BlockWeights) -> np.ndarray:
        rows = tokens.reshape(-1, tokens.shape[-1])
        return matmul(_gelu(matmul(rows, w.mlp_in)), w.mlp_out).reshape(tokens.shape)

    # -- block --------------------------------------------------------------

    def _block(
        self,
        values: np.ndarray,
        height: int,
        width: int,
        prompts: np.ndarray,
        tome: ToMeConfig | None,
        ratio: float,
        eligible: bool,
        step: int,
        layer: int,
        trace: RunTrace | None,
    ) -> np.ndarray:
        """One block on `values`, which holds every element of `prompts` or one shared element.

        A shared element stays one until cross-attention, the first component
        that reads the prompt, and is repeated to the prompt batch there. When
        the partition draws a mask per element and edges are not shared, it is
        repeated on entry, so each element merges by its own mask; shared
        edges read element 0's mask alone. The partition is drawn for the
        prompt batch either way.
        """
        batch = prompts.shape[0]
        n_tokens, channels = values.shape[1:]
        weights = self.blocks[layer]
        if eligible:
            part = make_partition(GridShape(batch, height, width), tome.partition,
                                  StreamRng(tome.seed), step, layer)
            if (tome.partition.draws_per_element and not tome.share_guidance_edges
                    and values.shape[0] != batch):
                values = np.repeat(values, batch, axis=0)
            similarity = SimilarityCounter()
            with count_similarity_calls(similarity):
                plan = build_merge_plan(values, part.prefix(values.shape[0]), ratio,
                                        tome.share_guidance_edges)
        mode = MODE_PRUNE if (tome is not None and tome.prune) else MODE_MERGE
        received = n_tokens  # token rows per element the last merged component was given

        def pass_through(merge: bool, component) -> np.ndarray:
            # component(tokens) -> tokens on an (elements, rows, channels) stack;
            # it sees merged tokens when wrapped. Merge and unmerge run once on
            # the stacked (elements * rows, channels) rows.
            nonlocal received
            elements = values.shape[0]
            normed = layernorm_rows(values.reshape(elements * n_tokens, channels))
            if not merge:
                return values + component(normed.reshape(values.shape))
            reduced = reduce_tokens(normed, plan.grouping, mode)
            received = reduced.shape[0] // elements
            out = component(reduced.reshape(elements, received, channels))
            restored = apply_unmerge(out.reshape(-1, channels), plan.grouping, mode)
            return values + restored.reshape(values.shape)

        values = pass_through(eligible and tome.apply_self,
                              lambda t: self._self_attention(t, weights))
        if values.shape[0] != batch:
            values = np.repeat(values, batch, axis=0)
            if eligible:
                plan = plan.repeated(batch)
        values = pass_through(eligible and tome.apply_cross,
                              lambda t: self._cross_attention(t, prompts, weights))
        values = pass_through(eligible and tome.apply_mlp, lambda t: self._mlp(t, weights))

        if trace is not None:
            record = BlockTraceRecord(step=step, layer=layer, n_tokens=n_tokens, eligible=eligible,
                                      r=0, merged_token_count=received, similarity_computes=0)
            if eligible:
                record.r, record.similarity_computes = plan.r, similarity.calls
                record.dst_count, record.dst_masks = part.dst_count, part.packed_masks()
            trace.add(record)
        return values

    # -- model --------------------------------------------------------------

    def _check_prompts(self, prompts, batch: int) -> np.ndarray:
        """(P, prompt_tokens, channels) prompts for a grid of `batch` 1 or P."""
        prompts = np.asarray(prompts, dtype=DTYPE)
        if prompts.ndim == 2:
            prompts = np.broadcast_to(prompts, (batch,) + prompts.shape)
        if prompts.ndim != 3 or batch not in (1, prompts.shape[0]):
            raise ShapeError(f"a batch-{batch} grid needs ({batch}, prompt_tokens, channels) "
                             f"prompts, or any prompt batch at grid batch 1; got {prompts.shape}")
        if prompts.shape[1] != self.spec.prompt_tokens:
            raise ShapeError(
                f"expected {self.spec.prompt_tokens} prompt tokens, got {prompts.shape[1]}"
            )
        if prompts.shape[2] != self.spec.channels:
            raise ShapeError(f"prompt channels {prompts.shape[2]} != {self.spec.channels}")
        return prompts

    def forward(
        self,
        grid: TokenGrid,
        prompts: np.ndarray,
        tome: ToMeConfig | None = None,
        ratio: float | None = None,
        step: int = 0,
        trace: RunTrace | None = None,
    ) -> TokenGrid:
        """Full U-Net evaluation of `grid` under each of the P `prompts`; returns batch P.

        A grid of batch P pairs element by element with the prompts. A grid of
        batch 1 is one latent shared by the P elements: it is evaluated once up
        to the first component that reads the prompt, block 0's
        cross-attention (see `_block`). Without `ratio`, a policy merges at
        its step-0 ratio.
        """
        top_h, top_w, _ = self.spec.scales[0]
        if (grid.shape.height, grid.shape.width) != (top_h, top_w):
            raise ShapeError(
                f"expected a {top_h}x{top_w} top grid, got {grid.shape.height}x{grid.shape.width}"
            )
        if grid.channels != self.spec.channels:
            raise ShapeError(f"grid channels {grid.channels} != {self.spec.channels}")
        prompts = self._check_prompts(prompts, grid.shape.batch)
        if tome is not None and ratio is None:
            ratio = tome.schedule_endpoints()[0]
        ratio = ratio or 0.0
        counts = merged_token_counts(self.spec, tome, ratio)

        h = grid.values
        skips = []
        layer = 0
        for si, (sh, sw, blocks) in enumerate(self.spec.scales):
            for _ in range(blocks):
                h = self._block(h, sh, sw, prompts, tome, ratio, counts[layer] is not None,
                                step, layer, trace)
                layer += 1
            skips.append(h)
            if si < len(self.spec.scales) - 1:
                h = _downsample(h, sh, sw)
        for si in range(len(self.spec.scales) - 2, -1, -1):
            sh, sw, _ = self.spec.scales[si]
            h = _upsample(h, sh // 2, sw // 2)
            h = h + skips[si]

        batch, n_tokens, channels = h.shape
        out = layernorm_rows(h.reshape(batch * n_tokens, channels)).reshape(h.shape)
        return TokenGrid(GridShape(batch, top_h, top_w), out)


def _downsample(values: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor 2x downsample of a (batch, tokens, channels) grid."""
    batch, _, channels = values.shape
    field = values.reshape(batch, height, width, channels)
    picked = np.ascontiguousarray(field[:, ::2, ::2, :])
    return picked.reshape(batch, (height // 2) * (width // 2), channels)


def _upsample(values: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor 2x upsample of a (batch, tokens, channels) grid."""
    batch, _, channels = values.shape
    field = values.reshape(batch, height, width, channels)
    up = np.repeat(np.repeat(field, 2, axis=1), 2, axis=2)
    return up.reshape(batch, 4 * height * width, channels)


def init_unet(spec: UNetSpec) -> UNetModel:
    """Draw all weights deterministically from spec.weight_seed."""
    rng = StreamRng(spec.weight_seed)
    c = spec.channels

    def draw(name: str, layer: int, rows: int, cols: int) -> np.ndarray:
        gen = rng.stream(f"weights/{name}", layer=layer)
        w = (gen.standard_normal((rows, cols)) * WEIGHT_STD).astype(DTYPE)
        w.flags.writeable = False
        return w

    blocks = []
    for layer in range(spec.n_blocks):
        blocks.append(BlockWeights(
            self_q=draw("self_q", layer, c, c),
            self_k=draw("self_k", layer, c, c),
            self_v=draw("self_v", layer, c, c),
            self_o=draw("self_o", layer, c, c),
            cross_q=draw("cross_q", layer, c, c),
            cross_k=draw("cross_k", layer, c, c),
            cross_v=draw("cross_v", layer, c, c),
            cross_o=draw("cross_o", layer, c, c),
            mlp_in=draw("mlp_in", layer, c, 4 * c),
            mlp_out=draw("mlp_out", layer, 4 * c, c),
        ))
    prompt = rng.stream("prompt_embedding").standard_normal(
        (spec.prompt_tokens, c)
    ).astype(DTYPE)
    prompt.flags.writeable = False
    return UNetModel(spec, blocks, prompt)
