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
equal a loop over elements and heads. When OpenBLAS runs on one thread, one
helper thread computes the second half of a large attention call's tiles,
and of a large layernorm or MLP call's rows (`attention_threads`,
`_in_two_halves`); every tile and row issues the same products, so the
bytes do not change. A latent the guidance elements share is evaluated once
up to the first component that reads the prompt, block 0's cross-attention,
since every element would compute the same bytes there.

`merged_token_counts` is the single home of the merge policy: which blocks
merge at a given ratio, and how many tokens their merged components evaluate.
The forward pass, the FLOP and memory model, the token ledger and the merge
map preview all derive from it. It builds on `policy_covers` (the blocks the
policy applies to at all), which the capacity check reads too.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import HarnessConfig, ToMeConfig
from .grid import GridShape, TokenGrid
from .matching import build_merge_plan, tokens_to_remove
from .merging import MODE_MERGE, MODE_PRUNE, apply_unmerge, reduce_tokens
from .partition import make_partition
from .rng import StreamRng
from .tensor import (DTYPE, FlopCounter, ShapeError, blas_threads, count_matmul_flops,
                     layernorm_rows, matmul, softmax_rows)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

WEIGHT_STD = 0.02

# float32 attention logits per tile (1 MiB): one stacked logits product never
# holds more, unless a single query row over all keys is longer.
TILE = 2**18

FLOAT32_MAX = float(np.finfo(DTYPE).max)

# Size rules of the two-thread split (README, "Attention kernel"), chosen on a
# 2-vCPU machine: splitting every attention call of two or more tiles made the
# 24-run 16x16 sweep take 13% more wall time and about 20% more CPU time, while
# these rules leave every 16x16 call on the caller and cut the median merged
# 32x32 step by 8-16% (BENCH_merged_two_threads.json).
# An attention call splits from 4 * TILE logits: the merged 512-token
# self-attention of 4 or 8 (element, head) pairs and every larger call.
SPLIT_LOGITS = 4 * TILE
# A layernorm or MLP call splits from 2**17 input elements (the 2048 stacked
# 64-channel rows of a 32x32 guidance pair), and only where each half keeps
# SPLIT_MIN_ROWS rows: shorter blocks go to another BLAS kernel, whose bits differ.
SPLIT_ROW_ELEMENTS = 2**17
SPLIT_MIN_ROWS = 64


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
    """The threads a large attention, layernorm or MLP call computes on now: 2 or 1.

    Two when OpenBLAS computes on one thread and the process may run on two
    or more CPUs: the caller and `_helper_thread` then each compute half of
    a call that passes its size rule (`SPLIT_LOGITS`, `SPLIT_ROW_ELEMENTS`).
    Smaller calls always stay on the caller: the lock hand-offs of a split
    cost small products more CPU time than they save wall time (README,
    "Attention kernel").
    """
    return 2 if blas_threads() == 1 and _usable_cpus() >= 2 else 1


_on_helper = threading.local()  # `.active` is True on the helper thread only


def _mark_helper() -> None:
    _on_helper.active = True


@functools.cache
def _helper_thread() -> ThreadPoolExecutor:
    """The one long-lived helper thread of large kernels, started on first use."""
    # Imported here: concurrent.futures takes about 6 ms to import (it pulls in
    # logging), which runs that never split a call need not pay.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="tomebench-helper",
                              initializer=_mark_helper)


# A forked child has no helper thread, so it must start its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper_thread.cache_clear)


def _in_two_halves(count: int, run: Callable[[int, int], None]) -> None:
    """run(0, count), or run(0, half) on the caller and run(half, count) on the helper.

    For a call that passed its size rule. The work splits when it holds two
    or more parts, `attention_threads()` reads 2 and the caller is not the
    helper itself (a one-worker pool waiting on itself would deadlock). `run`
    must write each part's results apart from the other's. The caller waits
    for the helper before it returns or raises; if both halves raise, the
    caller's error wins, as the serial loop would have raised it first.
    """
    if count < 2 or getattr(_on_helper, "active", False) or attention_threads() == 1:
        run(0, count)
        return
    half = (count + 1) // 2
    helper = _helper_thread().submit(run, half, count)
    try:
        run(0, half)
    finally:
        helper_error = helper.exception()  # waits, also when the caller's half raised
    if helper_error is not None:
        raise helper_error


def _rowwise(kernel, rows: np.ndarray, columns: int) -> np.ndarray:
    """kernel(rows, out) -> out over (count, channels) rows, out a (count, columns) array.

    A small call passes out=None and the kernel allocates it. Row halves of
    a large one (`SPLIT_ROW_ELEMENTS`) may split across the two threads; a
    row-wise kernel writes the same bytes per row for any block of at least
    `SPLIT_MIN_ROWS` rows.
    """
    count = rows.shape[0]
    if rows.size < SPLIT_ROW_ELEMENTS or count < 2 * SPLIT_MIN_ROWS:
        return kernel(rows, None)
    out = np.empty((count, columns), DTYPE)
    _in_two_halves(count, lambda lo, hi: kernel(rows[lo:hi], out[lo:hi]))
    return out


def _layernorm(rows: np.ndarray) -> np.ndarray:
    return _rowwise(lambda a, out: layernorm_rows(a, out=out), rows, rows.shape[1])


def _max_abs(a: np.ndarray) -> float:
    return max(float(a.max()), -float(a.min()))


@dataclass
class BlockTraceRecord:
    """What the report reads of one block evaluation at one step (whole batch)."""

    step: int
    layer: int
    eligible: bool
    merged_token_count: int
    similarity_computes: int


class RunTrace:
    """Collects per-block records, per-step wall times and minor page faults for one run.

    `baseline_step_times` holds the wall time of each step of the baseline
    denoise the run computed, and stays None when the run computed none.
    `blas_threads` is the OpenBLAS thread count the run computed with, None
    where it was not read; `attention_threads` the threads its large
    attention, layernorm and MLP calls computed on (see `attention_threads`),
    None where not read.
    """

    def __init__(self, blas_threads: int | None = None, attention_threads: int | None = None):
        self.records: list[BlockTraceRecord] = []
        self.step_times: list[float] = []
        self.step_minor_faults: list[int] = []
        self.baseline_step_times: list[float] | None = None
        self.blas_threads = blas_threads
        self.attention_threads = attention_threads

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
        of at most `TILE` elements (see `attention_tiles`). A call of at
        least `SPLIT_LOGITS` logits may split its tiles between the caller
        and the helper thread (see `_in_two_halves`).

        A product needs no finite check of its own where a bound rules
        overflow out; q, k and v are finite, since their projections were
        checked. With u = 2**-24 the float32 unit roundoff and g(k) = k*u /
        (1 - k*u), a float32 dot product of k terms lies within g(k) * sum
        |terms| of the exact one, in any summation order. Logits: at most
        dh * max|q| * max|k| * (1 + dh * 2**-23). Probabilities times values:
        a row's exps e <= 1 have a float32 sum s >= (1 - g(m)) * sum(e), and
        each probability is fl(e / s) <= (1 + u) * e / s, so a row of
        probabilities sums to at most (1 + u) / (1 - g(m)); the product is at
        most (1 + g(m)) times max|v| times that sum, which simplifies to
        max|v| * (1 + 2**-24) / (1 - m * 2**-23). Below float32 max, no
        result can be +-inf or NaN, and the tiles skip that product's check.
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
        logits_bound = dh * _max_abs(q) * _max_abs(kt) * (1.0 + dh * 2.0**-23)
        values_bound = (_max_abs(v) * (1.0 + 2.0**-24) / (1.0 - m * 2.0**-23)
                        if m < 2**23 else math.inf)
        check_logits = not logits_bound < FLOAT32_MAX
        check_values = not values_bound < FLOAT32_MAX

        def compute(tiles):
            for group, rows in tiles:
                logits = matmul(q[group, rows], kt[group], check=check_logits)
                logits *= scale  # matmul returned a fresh array, so both steps work in place
                matmul(softmax_rows(logits, out=logits), v[group], check=check_values,
                       out=out[group, rows])

        # Tiles write disjoint parts of `out`; the serial loop would raise at the
        # first bad tile, which is in the caller's half if both halves hold one.
        tiles = attention_tiles(pairs, n, m)
        if pairs * n * m < SPLIT_LOGITS:
            compute(tiles)
        else:
            _in_two_halves(len(tiles), lambda lo, hi: compute(tiles[lo:hi]))
        out = out.reshape(batch, heads, n, dh).transpose(0, 2, 1, 3)
        return matmul(out.reshape(batch * n, channels), wo).reshape(batch, n, channels)

    def _self_attention(self, tokens, w: BlockWeights) -> np.ndarray:
        return self._attention(tokens, tokens, w.self_q, w.self_k, w.self_v, w.self_o)

    def _cross_attention(self, tokens, prompt, w: BlockWeights) -> np.ndarray:
        return self._attention(tokens, prompt, w.cross_q, w.cross_k, w.cross_v, w.cross_o)

    def _mlp(self, tokens, w: BlockWeights) -> np.ndarray:
        def kernel(rows, out):
            return matmul(_gelu(matmul(rows, w.mlp_in)), w.mlp_out, out=out)

        rows = tokens.reshape(-1, tokens.shape[-1])
        return _rowwise(kernel, rows, w.mlp_out.shape[1]).reshape(tokens.shape)

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
        edges plan element 0 by its mask alone, and that plan serves every
        element. The partition is drawn for the prompt batch either way.
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
            planned = 1 if tome.share_guidance_edges else values.shape[0]
            counted = FlopCounter()
            with count_matmul_flops(counted):
                plan = build_merge_plan(values[:planned], part.prefix(planned), ratio)
            if planned != values.shape[0]:
                plan = plan.repeated(values.shape[0])
        mode = MODE_PRUNE if (tome is not None and tome.prune) else MODE_MERGE
        received = n_tokens  # token rows per element the last merged component was given

        def pass_through(merge: bool, component) -> np.ndarray:
            # component(tokens) -> tokens on an (elements, rows, channels) stack;
            # it sees merged tokens when wrapped. Merge and unmerge run once on
            # the stacked (elements * rows, channels) rows.
            nonlocal received
            elements = values.shape[0]
            normed = _layernorm(values.reshape(elements * n_tokens, channels))
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
            trace.records.append(BlockTraceRecord(
                step=step, layer=layer, eligible=eligible, merged_token_count=received,
                similarity_computes=counted.similarity_calls if eligible else 0))
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
        out = _layernorm(h.reshape(batch * n_tokens, channels)).reshape(h.shape)
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
