"""Reference kernels: the straightforward allocate-per-operation versions.

These are the earlier implementations of the step's elementwise kernels, the
per-element block loop, per-head attention and the one-product MLP, the
per-element merge planner with its token grouping and merge, and the
rand-tile draw, kept unchanged so tests can assert that the allocation-lean
and batched versions in `tomebench` produce the same bytes.
`brute_force_oracle` re-derives a plan by exhaustive greedy enumeration over
all src->dst edges; it shares the cosine metric (which has its own
directly-verified contract) but none of the selection code. Nothing in
`src/` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tomebench.grid import GridShape
from tomebench.matching import RatioError, cosine_similarity, tokens_to_remove
from tomebench.merging import MODE_MERGE, MODE_PRUNE
from tomebench.partition import PartitionPlan, PartitionScheme, make_partition
from tomebench.rng import StreamRng
from tomebench.tensor import DTYPE, ShapeError, _check_finite, as_matrix, matmul
from tomebench.unet import BlockTraceRecord
from conftest import dst_indices, src_indices


class OracleError(ValueError):
    """The brute-force oracle refuses instances above its size cap."""


@dataclass(frozen=True)
class ElementPlan:
    """One batch element's r selected src->dst edges plus the bookkeeping to unmerge."""

    n_tokens: int
    edges: np.ndarray  # (r, 2) int64 rows of (src_flat, dst_flat), ascending src
    kept_src: np.ndarray  # unmerged src flat indices, ascending
    merged_token_count: int

    @property
    def r(self) -> int:
        return self.edges.shape[0]


def edge_set(edges) -> set[tuple[int, int]]:
    """The (src, dst) pairs of an (r, 2) edge array."""
    return {(int(s), int(d)) for s, d in edges}


def build_merge_plan(x, plan: PartitionPlan, ratio: float, element: int = 0) -> ElementPlan:
    """Select one element's r most similar src tokens and their best dst targets."""
    x = np.asarray(x, dtype=DTYPE)
    n = plan.shape.tokens
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"expected ({n}, channels) features, got {x.shape}")

    src_idx = src_indices(plan, element)
    dst_idx = dst_indices(plan, element)
    r = tokens_to_remove(ratio, n)
    if r > src_idx.size:
        raise RatioError(
            f"r={r} exceeds the src set size {src_idx.size}; "
            f"largest feasible ratio is {src_idx.size / n:.4f}"
        )
    if r == 0:
        return ElementPlan(n, np.empty((0, 2), np.int64), src_idx, n)

    sims = cosine_similarity(x[src_idx], x[dst_idx])
    best_pos = sims.argmax(axis=1)  # first max: lowest dst flat index on ties
    best_sim = sims[np.arange(src_idx.size), best_pos]

    # Primary key: similarity descending; secondary: src flat index ascending.
    order = np.lexsort((np.arange(src_idx.size), -best_sim))
    chosen = np.sort(order[:r])
    kept = np.sort(order[r:])

    edges = np.stack([src_idx[chosen], dst_idx[best_pos[chosen]]], axis=1)
    return ElementPlan(n, edges, src_idx[kept], n - r)


def brute_force_oracle(x, plan: PartitionPlan, ratio: float, element: int = 0) -> ElementPlan:
    """Same contract as build_merge_plan, by exhaustive enumeration."""
    n = plan.shape.tokens
    if n > 64:
        raise OracleError(f"oracle limited to 64 tokens, got {n}")
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"expected ({n}, channels) features, got {x.shape}")

    src_idx = [int(i) for i in src_indices(plan, element)]
    dst_idx = [int(i) for i in dst_indices(plan, element)]
    r = tokens_to_remove(ratio, n)
    if r > len(src_idx):
        raise RatioError(f"r={r} exceeds the src set size {len(src_idx)}")

    sims = cosine_similarity(x[src_idx], x[dst_idx])
    best: dict[int, tuple[float, int]] = {}
    for si, s in enumerate(src_idx):
        top_sim, top_dst = -2.0, -1
        for di, d in enumerate(dst_idx):
            sim = float(sims[si, di])
            if sim > top_sim:  # strict: first (lowest) dst wins ties
                top_sim, top_dst = sim, d
        best[s] = (top_sim, top_dst)

    remaining = list(src_idx)
    selected: list[tuple[int, int]] = []
    for _ in range(r):
        winner = None
        for s in remaining:
            if winner is None or best[s][0] > best[winner][0]:
                winner = s  # scan order is ascending src: ties keep the lower index
        selected.append((winner, best[winner][1]))
        remaining.remove(winner)

    selected.sort()
    edges = np.asarray(selected, dtype=np.int64).reshape(len(selected), 2)
    return ElementPlan(n, edges, np.asarray(sorted(remaining), np.int64), n - r)


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


def mlp(self, tokens, w) -> np.ndarray:
    """`UNetModel._mlp` on one element's (n, channels) rows, in one product per weight."""
    return matmul(gelu(matmul(tokens, w.mlp_in)), w.mlp_out)


def block(self, values, height, width, prompts, tome, ratio, eligible, step, layer, trace):
    """`UNetModel._block` evaluating each batch element's components separately.

    A latent shared by the prompt batch is repeated to it on entry, so every
    element is evaluated on its own from the first component on.
    """
    batch, n_tokens = prompts.shape[0], values.shape[1]
    values = np.broadcast_to(values, (batch,) + values.shape[1:])
    weights = self.blocks[layer]
    if eligible:
        part = make_partition(GridShape(batch, height, width), tome.partition,
                              StreamRng(tome.seed), step, layer)
        if tome.share_guidance_edges:
            plans = [build_merge_plan(values[0], part, ratio, element=0)] * batch
        else:
            plans = [build_merge_plan(values[e], part, ratio, element=e) for e in range(batch)]
    mode = MODE_PRUNE if (tome is not None and tome.prune) else MODE_MERGE
    received: set[int] = set()  # row counts the merged components were given

    def pass_through(merge: bool, component) -> np.ndarray:
        # component(element, tokens) -> tokens; sees merged tokens when wrapped
        rows = []
        for e in range(batch):
            normed = layernorm_rows(values[e])
            if merge:
                reduced = reduce_tokens(normed, plans[e], mode)
                received.add(reduced.shape[0])
                out = apply_unmerge(component(e, reduced), plans[e], mode)
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
            trace.records.append(BlockTraceRecord(
                step=step, layer=layer, eligible=False,
                merged_token_count=n_tokens, similarity_computes=0,
            ))
        elif len(received) != 1:
            raise ShapeError(
                f"block {layer}: merged components received {sorted(received)} token rows"
            )
        else:
            trace.records.append(BlockTraceRecord(
                step=step, layer=layer, eligible=True,
                merged_token_count=received.pop(), similarity_computes=1,
            ))
    return values


def grouping(plan: ElementPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(representatives, group_ids, group_sizes) for a plan."""
    n = plan.n_tokens
    target = np.arange(n, dtype=np.int64)
    if plan.r:
        target[plan.edges[:, 0]] = plan.edges[:, 1]
    representatives = np.setdiff1d(np.arange(n, dtype=np.int64), plan.edges[:, 0])
    group_ids = np.searchsorted(representatives, target)
    group_sizes = np.bincount(group_ids, minlength=representatives.size).astype(np.int64)
    return representatives, group_ids, group_sizes


def apply_merge(x, plan: ElementPlan) -> np.ndarray:
    """Merge the planned src tokens into their dst groups by group mean."""
    x = np.asarray(x, dtype=DTYPE)
    representatives, group_ids, group_sizes = grouping(plan)
    sums = np.zeros((representatives.size, x.shape[1]), dtype=np.float64)
    np.add.at(sums, group_ids, x.astype(np.float64))
    return (sums / group_sizes[:, None]).astype(DTYPE)


def prune_reduce(x, plan: ElementPlan) -> np.ndarray:
    """Drop the planned src tokens, keeping survivors unchanged."""
    return np.asarray(x, dtype=DTYPE)[grouping(plan)[0]].copy()


def reduce_tokens(x, plan: ElementPlan, mode: str = MODE_MERGE) -> np.ndarray:
    if mode == MODE_MERGE:
        return apply_merge(x, plan)
    if mode == MODE_PRUNE:
        return prune_reduce(x, plan)
    raise ValueError(f"unknown reduction mode {mode!r}")


def apply_unmerge(values, plan: ElementPlan, mode: str = MODE_MERGE) -> np.ndarray:
    representatives, group_ids, _ = grouping(plan)
    if mode == MODE_MERGE:
        return values[group_ids].copy()
    out = np.zeros((plan.n_tokens, values.shape[1]), dtype=DTYPE)
    out[representatives] = values
    return out


def rand_tile_mask(shape: GridShape, scheme: PartitionScheme, gen: np.random.Generator) -> np.ndarray:
    mask = np.zeros(shape.tokens, dtype=bool)
    for y0 in range(0, shape.height, scheme.ty):
        for x0 in range(0, shape.width, scheme.tx):
            th = min(scheme.ty, shape.height - y0)
            tw = min(scheme.tx, shape.width - x0)
            pick = int(gen.integers(th * tw))
            y, x = y0 + pick // tw, x0 + pick % tw
            mask[y * shape.width + x] = True
    return mask
