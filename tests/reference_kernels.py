"""Reference kernels: the straightforward allocate-per-operation versions.

These are the earlier implementations of the step's elementwise kernels, the
per-element block loop and per-head attention, the token grouping and merge,
and the rand-tile draw, kept unchanged so tests can assert that the
allocation-lean and batched versions in `tomebench` produce the same bytes.
Nothing in `src/` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from tomebench.grid import GridShape
from tomebench.matching import MergePlan
from tomebench.merging import MODE_MERGE, MODE_PRUNE, MergedTokens, _check_shape
from tomebench.partition import PartitionScheme
from tomebench.tensor import DTYPE, ShapeError, _check_finite, as_matrix, matmul
from tomebench.unet import BlockTraceRecord


def softmax_rows(a) -> np.ndarray:
    """Row-wise softmax with max subtraction; each row sums to 1."""
    a = as_matrix(a)
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted, dtype=DTYPE)
    out = e / e.sum(axis=1, keepdims=True, dtype=DTYPE)
    return _check_finite(out, "softmax_rows")


def layernorm_rows(a, eps: float = 1e-5) -> np.ndarray:
    """Normalize each row to mean 0, variance 1 (no affine), eps in the denominator.

    Moments are taken in double precision so constant rows come out exactly
    zero and the centering is free of float32 cancellation noise; the result
    is cast back to float32.
    """
    a = as_matrix(a)
    if a.shape[1] < 2:
        raise ShapeError(f"layernorm_rows needs >= 2 columns, got {a.shape[1]}")
    wide = a.astype(np.float64)
    centered = wide - wide.mean(axis=1, keepdims=True)
    var = np.mean(centered * centered, axis=1, keepdims=True)
    out = (centered / np.sqrt(var + eps)).astype(DTYPE)
    return _check_finite(out, "layernorm_rows")


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, evaluated in float32
    c0 = DTYPE(0.7978845608028654)
    c1 = DTYPE(0.044715)
    inner = c0 * (x + c1 * x * x * x)
    return DTYPE(0.5) * x * (DTYPE(1.0) + np.tanh(inner))


def attention(self, q_in, kv_in, wq, wk, wv, wo) -> np.ndarray:
    """`UNetModel._attention` with the logit scale as a separate product."""
    q = matmul(q_in, wq)
    k = matmul(kv_in, wk)
    v = matmul(kv_in, wv)
    heads = self.spec.heads
    dh = self.spec.channels // heads
    scale = DTYPE(1.0 / math.sqrt(dh))
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = matmul(q[:, cols], np.ascontiguousarray(k[:, cols].T)) * scale
        outs.append(matmul(softmax_rows(logits), v[:, cols]))
    return matmul(np.concatenate(outs, axis=1), wo)


def block(self, values, height, width, prompts, tome, ratio, eligible, step, layer, trace):
    """`UNetModel._block` evaluating each batch element's components separately."""
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


def grouping(plan: MergePlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(representatives, group_ids, group_sizes) for a plan."""
    n = plan.n_tokens
    target = np.arange(n, dtype=np.int64)
    if plan.r:
        target[plan.edges[:, 0]] = plan.edges[:, 1]
    representatives = np.setdiff1d(np.arange(n, dtype=np.int64), plan.edges[:, 0])
    group_ids = np.searchsorted(representatives, target)
    group_sizes = np.bincount(group_ids, minlength=representatives.size).astype(np.int64)
    return representatives, group_ids, group_sizes


def apply_merge(x, plan: MergePlan) -> MergedTokens:
    """Merge the planned src tokens into their dst groups by group mean."""
    x = _check_shape(x, plan)
    representatives, group_ids, group_sizes = grouping(plan)
    sums = np.zeros((representatives.size, x.shape[1]), dtype=np.float64)
    np.add.at(sums, group_ids, x.astype(np.float64))
    values = (sums / group_sizes[:, None]).astype(DTYPE)
    return MergedTokens(values, group_sizes, plan, group_ids, representatives, MODE_MERGE)


def prune_reduce(x, plan: MergePlan) -> MergedTokens:
    """Drop the planned src tokens, keeping survivors unchanged."""
    x = _check_shape(x, plan)
    representatives, group_ids, group_sizes = grouping(plan)
    return MergedTokens(
        x[representatives].copy(), group_sizes, plan, group_ids, representatives, MODE_PRUNE
    )


def reduce_tokens(x, plan: MergePlan, mode: str = MODE_MERGE) -> MergedTokens:
    if mode == MODE_MERGE:
        return apply_merge(x, plan)
    if mode == MODE_PRUNE:
        return prune_reduce(x, plan)
    raise ValueError(f"unknown reduction mode {mode!r}")


def apply_unmerge(merged: MergedTokens) -> np.ndarray:
    if merged.mode == MODE_MERGE:
        return merged.values[merged.group_ids].copy()
    out = np.zeros((merged.origin.n_tokens, merged.values.shape[1]), dtype=DTYPE)
    out[merged.representatives] = merged.values
    return out


def rand_tile_mask(shape: GridShape, scheme: PartitionScheme, gen: np.random.Generator) -> np.ndarray:
    mask = np.zeros(shape.tokens, dtype=bool)
    for y0 in range(0, shape.height, scheme.ty):
        for x0 in range(0, shape.width, scheme.tx):
            th = min(scheme.ty, shape.height - y0)
            tw = min(scheme.tx, shape.width - x0)
            pick = int(gen.integers(th * tw))
            y, x = y0 + pick // tw, x0 + pick % tw
            mask[shape.flat_index(y, x)] = True
    return mask
