"""Deterministic toy U-Net of transformer blocks over latent token grids.

The model is a stack of pre-norm transformer blocks (self attention, cross
attention over a fixed prompt embedding, mlp) arranged in scales; each scale
halves the grid, blocks run on the way down, and nearest-neighbor upsampled
activations are added back through plain skip connections on the way up.
Weights are randomly initialized from a seed and never trained.

Token merging wraps each block component: one partition and one merge plan
are built per block per step from the block's input, each enabled component
sees only the merged tokens, and its output is unmerged before the residual
add, so the token count entering and leaving every block is unchanged.
Attention logits never see group sizes (no proportional attention), and
prompt tokens are never merged.

`merged_token_counts` is the single home of the merge policy: which blocks
merge at a given ratio, and how many tokens their merged components evaluate.
The forward pass, the FLOP and memory model, the token ledger and the
capacity check all derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import HarnessConfig, ToMeConfig
from .grid import GridShape, TokenGrid
from .matching import MergePlan, build_merge_plan, tokens_to_remove
from .merging import MODE_MERGE, MODE_PRUNE, apply_unmerge, reduce_tokens
from .partition import PartitionPlan, make_partition
from .rng import StreamRng
from .tensor import DTYPE, ShapeError, layernorm_rows, matmul, softmax_rows

WEIGHT_STD = 0.02


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


def merged_token_counts(
    spec: UNetSpec, tome: ToMeConfig | None, ratio: float
) -> tuple[int | None, ...]:
    """Per block in forward order: N - floor(ratio * N) if it merges, else None.

    A block merges when a policy is given, the ratio is positive and the
    block holds at least `min_tokens` tokens (by default, the top scale's).
    """
    if tome is None or ratio <= 0.0:
        return (None,) * spec.n_blocks
    min_tokens = tome.min_tokens_for(spec.top_tokens)
    return tuple(
        n - tokens_to_remove(ratio, n) if n >= min_tokens else None
        for n in (h * w for _, h, w in spec.block_dims())
    )


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
    """Collects per-block records and per-step wall times for one run."""

    def __init__(self):
        self.records: list[BlockTraceRecord] = []
        self.step_times: list[float] = []

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
        q = matmul(q_in, wq)
        k = matmul(kv_in, wk)
        v = matmul(kv_in, wv)
        heads = self.spec.heads
        dh = self.spec.channels // heads
        scale = DTYPE(1.0 / math.sqrt(dh))
        outs = []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            logits = matmul(q[:, cols], np.ascontiguousarray(k[:, cols].T))
            logits *= scale  # matmul returned a fresh array
            outs.append(matmul(softmax_rows(logits), v[:, cols]))
        return matmul(np.concatenate(outs, axis=1), wo)

    def _self_attention(self, tokens, w: BlockWeights) -> np.ndarray:
        return self._attention(tokens, tokens, w.self_q, w.self_k, w.self_v, w.self_o)

    def _cross_attention(self, tokens, prompt, w: BlockWeights) -> np.ndarray:
        return self._attention(tokens, prompt, w.cross_q, w.cross_k, w.cross_v, w.cross_o)

    def _mlp(self, tokens, w: BlockWeights) -> np.ndarray:
        return matmul(_gelu(matmul(tokens, w.mlp_in)), w.mlp_out)

    # -- block --------------------------------------------------------------

    def _build_plans(
        self,
        values: np.ndarray,
        height: int,
        width: int,
        tome: ToMeConfig,
        ratio: float,
        step: int,
        layer: int,
    ) -> tuple[PartitionPlan, list[MergePlan]]:
        batch = values.shape[0]
        part = make_partition(
            GridShape(batch, height, width), tome.partition, StreamRng(tome.seed), step, layer
        )
        if tome.share_guidance_edges:
            first = build_merge_plan(values[0], part, ratio, element=0)
            plans = [first] * batch
        else:
            plans = [build_merge_plan(values[e], part, ratio, element=e) for e in range(batch)]
        return part, plans

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
        batch, n_tokens, _ = values.shape
        weights = self.blocks[layer]
        if eligible:
            part, plans = self._build_plans(values, height, width, tome, ratio, step, layer)
        mode = MODE_PRUNE if (tome is not None and tome.prune) else MODE_MERGE
        received: set[int] = set()  # row counts the merged components were given

        def pass_through(merge: bool, component) -> np.ndarray:
            # component(element, tokens) -> tokens; sees merged tokens when wrapped
            rows = []
            for e in range(batch):
                normed = layernorm_rows(values[e])
                if merge:
                    reduced = reduce_tokens(normed, plans[e], mode)
                    received.add(reduced.values.shape[0])
                    out = apply_unmerge(reduced.with_values(component(e, reduced.values)))
                else:
                    out = component(e, normed)
                rows.append(values[e] + out)
            return np.stack(rows)

        values = pass_through(eligible and tome.apply_self,
                              lambda e, t: self._self_attention(t, weights))
        values = pass_through(eligible and tome.apply_cross,
                              lambda e, t: self._cross_attention(t, prompts[e], weights))
        values = pass_through(eligible and tome.apply_mlp, lambda e, t: self._mlp(t, weights))

        if trace is not None:
            if not eligible:
                trace.add(BlockTraceRecord(
                    step=step, layer=layer, n_tokens=n_tokens, eligible=False,
                    r=0, merged_token_count=n_tokens, similarity_computes=0,
                ))
            elif len(received) != 1:
                raise ShapeError(
                    f"block {layer}: merged components received {sorted(received)} token rows"
                )
            else:
                trace.add(BlockTraceRecord(
                    step=step, layer=layer, n_tokens=n_tokens, eligible=True,
                    r=plans[0].r, merged_token_count=received.pop(),
                    similarity_computes=1, dst_count=part.dst_count,
                    dst_masks=part.packed_masks(),
                ))
        return values

    # -- model --------------------------------------------------------------

    def _check_prompts(self, prompts, batch: int) -> np.ndarray:
        prompts = np.asarray(prompts, dtype=DTYPE)
        if prompts.ndim == 2:
            prompts = np.broadcast_to(prompts, (batch,) + prompts.shape)
        if prompts.ndim != 3 or prompts.shape[0] != batch:
            raise ShapeError(f"prompts must be (batch, prompt_tokens, channels), got {prompts.shape}")
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
        """Full U-Net evaluation; output shape equals input shape.

        Without `ratio`, a policy merges at its step-0 ratio.
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
        return TokenGrid(grid.shape, out)


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
