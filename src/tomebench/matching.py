"""Bipartite soft matching between src and dst tokens.

Similarity is cosine similarity over the full channel dimension of the block
input (not attention keys, and with no head splitting). Each src token is
paired with its most similar dst token, and the r src tokens whose best edge
has the highest similarity are selected for merging. Ties are broken toward
the lower src flat index, then the lower dst flat index, so plans are fully
deterministic.

A plan covers the whole batch at once: one stacked similarity product
matches every element against its own dst set, and one `Grouping` indexes
the elements' tokens stacked as `batch * n_tokens` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .partition import PartitionPlan
from .tensor import DTYPE, ShapeError, add_counts


class RatioError(ValueError):
    """The requested reduction exceeds what the src set can supply."""


def tokens_to_remove(ratio: float, n_tokens: int) -> int:
    """r = floor(ratio * N): the token count removed by merging."""
    if not 0.0 <= ratio < 1.0:
        raise RatioError(f"ratio must be in [0, 1), got {ratio}")
    return math.floor(ratio * n_tokens)


def cosine_similarity(src_feats, dst_feats) -> np.ndarray:
    """Cosine similarities in [-1, 1] of (..., n, C) against (..., m, C) rows.

    Matrices of a stack pair off one to one, giving (..., n, m); zero-norm
    rows score 0.
    """
    a = np.asarray(src_feats, dtype=DTYPE)
    b = np.asarray(dst_feats, dtype=DTYPE)
    if a.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"feature stacks do not pair: {a.shape} vs {b.shape}")

    def _unit(rows: np.ndarray) -> np.ndarray:
        norms = np.sqrt(np.sum(rows * rows, axis=-1, keepdims=True, dtype=DTYPE), dtype=DTYPE)
        safe = np.where(norms > 0, norms, DTYPE(1.0))
        return np.where(norms > 0, rows / safe, DTYPE(0.0))

    add_counts(similarity_calls=1)
    sims = _unit(a) @ np.swapaxes(_unit(b), -1, -2)
    return np.clip(sims, DTYPE(-1.0), DTYPE(1.0), out=sims)  # a fresh product: clip in place


@dataclass(frozen=True)
class MergePlan:
    """Each batch element's r selected src->dst edges; every other token is kept as it is."""

    n_tokens: int  # per element
    edges: np.ndarray  # (batch, r, 2) int64 rows of (src_flat, dst_flat), ascending src

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).copy()
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def r(self) -> int:
        return self.edges.shape[1]

    @property
    def merged_token_count(self) -> int:
        """Token rows per element after merging."""
        return self.n_tokens - self.r

    def repeated(self, batch: int) -> "MergePlan":
        """This one-element plan serving each of `batch` elements."""
        if self.edges.shape[0] != 1:
            raise ShapeError(f"only a one-element plan repeats, got {self.edges.shape[0]}")
        return MergePlan(self.n_tokens, np.repeat(self.edges, batch, axis=0))

    @cached_property
    def grouping(self) -> "Grouping":
        """Token groups of this plan, built on first use and shared by every component."""
        return _group(self)


@dataclass(frozen=True)
class Grouping:
    """Which merged row every stacked token joins, plus the order merging sums them in.

    Token `e * n_tokens + i` is token i of batch element e, and element e's
    merged rows follow those of the elements before it. Within an element,
    merged rows are ordered by ascending representative index (the dst token
    for merged groups, the token itself otherwise). `sum_order` lists the
    tokens rank by rank: first the lowest-index member of every group, then
    the second member of every group that has one, and so on, with the groups
    ordered by descending size so the groups still summing at rank k are a
    prefix of length `rank_counts[k]`. `slot[row]` is the position of merged
    row `row` in that size order.
    """

    representatives: np.ndarray  # (batch * merged_token_count,) int64
    group_ids: np.ndarray  # (batch * n_tokens,) int64
    group_sizes: np.ndarray  # (batch * merged_token_count,) int64
    sum_order: np.ndarray  # (batch * n_tokens,) int64
    rank_counts: tuple[int, ...]
    slot: np.ndarray  # (batch * merged_token_count,) int64


def _group(plan: MergePlan) -> Grouping:
    batch = plan.edges.shape[0]
    n = batch * plan.n_tokens
    offsets = np.arange(batch)[:, None] * plan.n_tokens
    src = (plan.edges[..., 0] + offsets).ravel()
    dst = (plan.edges[..., 1] + offsets).ravel()
    keep = np.ones(n, dtype=bool)
    keep[src] = False
    representatives = np.flatnonzero(keep)
    # A kept token's row is the number of kept tokens before it.
    row_of = np.cumsum(keep) - 1
    target = np.arange(n, dtype=np.int64)
    target[src] = dst
    group_ids = row_of[target]
    group_sizes = np.bincount(group_ids, minlength=representatives.size)

    members = np.argsort(group_ids, kind="stable")  # by row, ascending index within a row
    rows = group_ids[members]
    rank = np.arange(n) - (np.cumsum(group_sizes) - group_sizes)[rows]
    slot = np.argsort(np.argsort(-group_sizes, kind="stable"))  # row -> position by size
    sum_order = members[np.argsort(rank * representatives.size + slot[rows], kind="stable")]
    rank_counts = tuple(np.bincount(rank).tolist())
    for arr in (representatives, group_ids, group_sizes, sum_order, slot):
        arr.flags.writeable = False  # shared by every component that merges with this plan
    return Grouping(representatives, group_ids, group_sizes, sum_order, rank_counts, slot)


def build_merge_plan(x, plan: PartitionPlan, ratio: float) -> MergePlan:
    """Select each element's r most similar src tokens and their best dst targets.

    `x` is the block input, (batch, tokens, channels); the plan is built once
    per block per step from it and reused by every component. Each element
    is matched by its own dst mask.
    """
    x = np.asarray(x, dtype=DTYPE)
    batch, n = plan.shape.batch, plan.shape.tokens
    if x.ndim != 3 or x.shape[:2] != (batch, n):
        raise ShapeError(f"expected ({batch}, {n}, channels) features, got {x.shape}")

    rows = np.arange(batch)[:, None]
    # Every element has the same dst count, so each side stacks to one array.
    src_idx = np.nonzero(~plan.dst_mask)[1].reshape(batch, -1)
    dst_idx = np.nonzero(plan.dst_mask)[1].reshape(batch, -1)
    n_src = src_idx.shape[1]
    r = tokens_to_remove(ratio, n)
    if r > n_src:
        raise RatioError(
            f"r={r} exceeds the src set size {n_src}; "
            f"largest feasible ratio is {n_src / n:.4f}"
        )

    sims = cosine_similarity(x[rows, src_idx], x[rows, dst_idx])
    best_pos = sims.argmax(axis=-1)  # first max: lowest dst flat index on ties
    best_sim = np.take_along_axis(sims, best_pos[..., None], axis=-1)[..., 0]

    # Similarity descending; the stable sort keeps ties in ascending src flat index.
    order = np.argsort(-best_sim, axis=-1, kind="stable")
    chosen = np.sort(order[:, :r], axis=-1)

    edges = np.stack([src_idx[rows, chosen], dst_idx[rows, best_pos[rows, chosen]]], axis=-1)
    return MergePlan(n, edges)


def export_edge_list(plan: MergePlan) -> str:
    """Batch element 0's edges as text, one `src_index dst_index` pair per line."""
    return "".join(f"{int(s)} {int(d)}\n" for s, d in plan.edges[0])
