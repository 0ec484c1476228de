"""Closed-form FLOP and peak-memory accounting for the toy U-Net.

Counts model the transformer components only (projections, attention
matmuls, softmax, activations, layernorms, residual adds); the bookkeeping
cost of building partitions and merge plans is excluded, so merged totals
are never larger than baseline totals and speedup estimates isolate the
token-count effect.

Terms are classified by how they scale with the evaluated token count n:
pairwise (n^2), linear (n), or const (independent of n, e.g. prompt key/value
projections). Matmul terms count 2 FLOPs per multiply-add and are exactly
the FLOPs the tensor kernel issues per element of a forward over distinct
latents; softmax, scaling, gelu, and layernorm use fixed per-element costs.
`denoise` gives the guidance pair one shared latent, which the model runs
once up to block 0's cross-attention, so a denoise step issues one element's
block-0 self-attention matmul FLOPs fewer than the pair's count here. The
report keeps this per-image model.

Merged components evaluate n' = N - floor(ratio * N) tokens; the layernorms
feeding each component and the residual adds always run at full N. Every
count takes the ratio of one evaluation from its caller; over a run, that is
`ratio_at(schedule, step)` of the run's own schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .config import ToMeConfig
from .diffusion import GUIDANCE_BATCH, Schedule, ratio_at
from .unet import UNetSpec, merged_token_counts

SOFTMAX_OPS = 5  # per logit element, includes max subtraction and normalize
SCALE_OPS = 1
LAYERNORM_OPS = 5
GELU_OPS = 8


@dataclass(frozen=True)
class FlopCount:
    matmul_pairwise: int = 0
    matmul_linear: int = 0
    matmul_const: int = 0
    other_pairwise: int = 0
    other_linear: int = 0
    other_const: int = 0

    def __add__(self, other: "FlopCount") -> "FlopCount":
        return FlopCount(
            self.matmul_pairwise + other.matmul_pairwise,
            self.matmul_linear + other.matmul_linear,
            self.matmul_const + other.matmul_const,
            self.other_pairwise + other.other_pairwise,
            self.other_linear + other.other_linear,
            self.other_const + other.other_const,
        )

    @property
    def total(self) -> int:
        return (self.matmul_pairwise + self.matmul_linear + self.matmul_const
                + self.other_pairwise + self.other_linear + self.other_const)

    def to_dict(self) -> dict:
        return {
            "matmul_pairwise": self.matmul_pairwise,
            "matmul_linear": self.matmul_linear,
            "matmul_const": self.matmul_const,
            "other_pairwise": self.other_pairwise,
            "other_linear": self.other_linear,
            "other_const": self.other_const,
            "total": self.total,
        }


def self_attention_flops(n: int, channels: int, heads: int) -> FlopCount:
    return FlopCount(
        matmul_pairwise=4 * n * n * channels,  # logits and attention-times-values
        matmul_linear=8 * n * channels * channels,  # q, k, v, o projections
        other_pairwise=(SCALE_OPS + SOFTMAX_OPS) * heads * n * n,
    )


def cross_attention_flops(n: int, prompt_tokens: int, channels: int, heads: int) -> FlopCount:
    return FlopCount(
        matmul_linear=4 * n * channels * channels + 4 * n * prompt_tokens * channels,
        matmul_const=4 * prompt_tokens * channels * channels,  # prompt k, v projections
        other_linear=(SCALE_OPS + SOFTMAX_OPS) * heads * n * prompt_tokens,
    )


def mlp_flops(n: int, channels: int) -> FlopCount:
    return FlopCount(
        matmul_linear=16 * n * channels * channels,
        other_linear=GELU_OPS * 4 * channels * n,
    )


def block_overhead_flops(n_tokens: int, channels: int) -> FlopCount:
    # three pre-norms plus three residual adds, all at full token count
    return FlopCount(other_linear=3 * LAYERNORM_OPS * n_tokens * channels + 3 * n_tokens * channels)


@dataclass(frozen=True)
class BlockFlops:
    """Per-block, per-batch-element counts for one model evaluation."""

    layer: int
    scale: int
    n_tokens: int
    merged_token_count: int
    self_attn: FlopCount
    cross_attn: FlopCount
    mlp: FlopCount
    overhead: FlopCount

    @property
    def total(self) -> int:
        return (self.self_attn + self.cross_attn + self.mlp + self.overhead).total

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "scale": self.scale,
            "n_tokens": self.n_tokens,
            "merged_token_count": self.merged_token_count,
            "self_attn": self.self_attn.to_dict(),
            "cross_attn": self.cross_attn.to_dict(),
            "mlp": self.mlp.to_dict(),
            "overhead": self.overhead.to_dict(),
            "total": self.total,
        }


def _component_tokens(
    spec: UNetSpec, tome: ToMeConfig | None, ratio: float
) -> list[tuple[int, int, int, int, int, int]]:
    """Per block: (scale, N, merged count, self, cross and mlp evaluated tokens)."""
    rows = []
    for (scale, h, w), merged in zip(spec.block_dims(), merged_token_counts(spec, tome, ratio)):
        n = h * w
        if merged is None:
            rows.append((scale, n, n, n, n, n))
        else:
            rows.append((scale, n, merged, merged if tome.apply_self else n,
                         merged if tome.apply_cross else n, merged if tome.apply_mlp else n))
    return rows


def flop_count(spec: UNetSpec, tome: ToMeConfig | None, ratio: float) -> list[BlockFlops]:
    """Per-block FLOP breakdown for one evaluation at `ratio`."""
    c, heads, p = spec.channels, spec.heads, spec.prompt_tokens

    blocks = []
    for layer, (scale, n, merged, n_self, n_cross, n_mlp) in enumerate(
        _component_tokens(spec, tome, ratio)
    ):
        blocks.append(BlockFlops(
            layer=layer,
            scale=scale,
            n_tokens=n,
            merged_token_count=merged,
            self_attn=self_attention_flops(n_self, c, heads),
            cross_attn=cross_attention_flops(n_cross, p, c, heads),
            mlp=mlp_flops(n_mlp, c),
            overhead=block_overhead_flops(n, c),
        ))
    return blocks


def model_overhead_flops(spec: UNetSpec) -> FlopCount:
    """Skip-connection adds and the final output layernorm, per evaluation."""
    flops = FlopCount()
    for h, w, _ in spec.scales[:-1]:
        flops += FlopCount(other_linear=h * w * spec.channels)  # skip add after upsample
    top_h, top_w, _ = spec.scales[0]
    flops += FlopCount(other_linear=LAYERNORM_OPS * top_h * top_w * spec.channels)
    return flops


@dataclass(frozen=True)
class RunFlops:
    """Whole-run totals plus per-block sums over steps (per batch element).

    `total` covers the `GUIDANCE_BATCH` elements of every step.
    """

    steps: int
    per_block: list[BlockFlops]  # summed over steps
    model_overhead: FlopCount  # summed over steps
    total_per_element: int
    total: int

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "batch": GUIDANCE_BATCH,
            "total": self.total,
            "total_per_element": self.total_per_element,
            "per_block": [b.to_dict() for b in self.per_block],
            "model_overhead": self.model_overhead.to_dict(),
        }


def _sum_block_flops(a: BlockFlops, b: BlockFlops) -> BlockFlops:
    return BlockFlops(
        layer=a.layer,
        scale=a.scale,
        n_tokens=a.n_tokens,
        merged_token_count=b.merged_token_count,
        self_attn=a.self_attn + b.self_attn,
        cross_attn=a.cross_attn + b.cross_attn,
        mlp=a.mlp + b.mlp,
        overhead=a.overhead + b.overhead,
    )


def run_flops(spec: UNetSpec, tome: ToMeConfig | None, schedule: Schedule) -> RunFlops:
    """Analytic FLOPs for a full denoise run of `schedule.steps` evaluations."""
    per_step = [flop_count(spec, tome, ratio_at(schedule, s)) for s in range(schedule.steps)]
    acc = [reduce(_sum_block_flops, steps) for steps in zip(*per_step)]
    step_overhead = model_overhead_flops(spec)
    overhead = FlopCount(other_linear=step_overhead.other_linear * schedule.steps)
    per_element = sum(b.total for b in acc) + overhead.total
    return RunFlops(
        steps=schedule.steps,
        per_block=acc,
        model_overhead=overhead,
        total_per_element=per_element,
        total=per_element * GUIDANCE_BATCH,
    )


# -- memory proxy -------------------------------------------------------------


def _component_peak(n_eval: int, channels: int, heads: int, prompt_tokens: int, kind: str) -> int:
    if kind == "self":
        return 4 * n_eval * channels + heads * n_eval * n_eval
    if kind == "cross":
        return 2 * n_eval * channels + 2 * prompt_tokens * channels + heads * n_eval * prompt_tokens
    return 5 * n_eval * channels  # mlp: 4c hidden plus c output


def peak_live_elements(spec: UNetSpec, tome: ToMeConfig | None, ratio: float) -> int:
    """Peak live token-matrix elements per batch element at `ratio` (allocator-free proxy)."""
    c, heads, p = spec.channels, spec.heads, spec.prompt_tokens
    peak = 0
    for _, n, _, n_self, n_cross, n_mlp in _component_tokens(spec, tome, ratio):
        resident = 2 * n * c  # residual stream plus its normalized copy
        comp_peak = max(
            _component_peak(n_self, c, heads, p, "self"),
            _component_peak(n_cross, c, heads, p, "cross"),
            _component_peak(n_mlp, c, heads, p, "mlp"),
        )
        peak = max(peak, resident + comp_peak)
    return peak
