"""Bipartite soft matching between src and dst tokens.

Similarity is cosine similarity over the full channel dimension of the block
input (not attention keys, and with no head splitting). Each src token is
paired with its most similar dst token, and the r src tokens whose best edge
has the highest similarity are selected for merging. Ties are broken toward
the lower src flat index, then the lower dst flat index, so plans are fully
deterministic.

`brute_force_oracle` re-derives the same plan by exhaustive greedy
enumeration over all src->dst edges; it shares the cosine metric (which has
its own directly-verified contract) but none of the selection code, and is
used only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .partition import PartitionPlan
from .tensor import DTYPE, ShapeError


class RatioError(ValueError):
    """The requested reduction exceeds what the src set can supply."""


class OracleError(ValueError):
    """The brute-force oracle refuses instances above its size cap."""


def tokens_to_remove(ratio: float, n_tokens: int) -> int:
    """r = floor(ratio * N): the token count removed by merging."""
    if not 0.0 <= ratio < 1.0:
        raise RatioError(f"ratio must be in [0, 1), got {ratio}")
    return math.floor(ratio * n_tokens)


def cosine_similarity(src_feats, dst_feats) -> np.ndarray:
    """|src| x |dst| cosine similarities in [-1, 1]; zero-norm rows score 0."""
    a = np.asarray(src_feats, dtype=DTYPE)
    b = np.asarray(dst_feats, dtype=DTYPE)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("feature matrices must be 2D")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"channel mismatch: {a.shape[1]} vs {b.shape[1]}")

    def _unit(rows: np.ndarray) -> np.ndarray:
        norms = np.sqrt(np.sum(rows * rows, axis=1, keepdims=True, dtype=DTYPE), dtype=DTYPE)
        safe = np.where(norms > 0, norms, DTYPE(1.0))
        return np.where(norms > 0, rows / safe, DTYPE(0.0))

    sims = _unit(a) @ _unit(b).T
    return np.clip(sims, DTYPE(-1.0), DTYPE(1.0))


@dataclass(frozen=True)
class MergePlan:
    """The r selected src->dst edges plus the bookkeeping needed to unmerge."""

    partition: PartitionPlan
    element: int
    n_tokens: int
    edges: np.ndarray  # (r, 2) int64 rows of (src_flat, dst_flat), ascending src
    kept_src: np.ndarray  # unmerged src flat indices, ascending
    merged_token_count: int

    def __post_init__(self):
        for name in ("edges", "kept_src"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def r(self) -> int:
        return self.edges.shape[0]

    @cached_property
    def grouping(self) -> "Grouping":
        """Token groups of this plan, built on first use and shared by every component."""
        return _group(self)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(s), int(d)) for s, d in self.edges}


@dataclass(frozen=True)
class Grouping:
    """Which merged row every token joins, plus the order merging sums them in.

    Merged rows are ordered by ascending representative index (the dst token
    for merged groups, the token itself otherwise). `sum_order` lists the
    tokens rank by rank: first the lowest-index member of every group, then
    the second member of every group that has one, and so on, with the groups
    ordered by descending size so the groups still summing at rank k are a
    prefix of length `rank_counts[k]`. `slot[row]` is the position of merged
    row `row` in that size order.
    """

    representatives: np.ndarray  # (merged_token_count,) int64
    group_ids: np.ndarray  # (n_tokens,) int64
    group_sizes: np.ndarray  # (merged_token_count,) int64
    sum_order: np.ndarray  # (n_tokens,) int64
    rank_counts: tuple[int, ...]
    slot: np.ndarray  # (merged_token_count,) int64


def _group(plan: MergePlan) -> Grouping:
    n = plan.n_tokens
    src, dst = plan.edges[:, 0], plan.edges[:, 1]
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
        arr.flags.writeable = False  # shared by every MergedTokens built from this plan
    return Grouping(representatives, group_ids, group_sizes, sum_order, rank_counts, slot)


def build_merge_plan(x, plan: PartitionPlan, ratio: float, element: int = 0) -> MergePlan:
    """Select the r most similar src tokens and their best dst targets.

    `x` is one batch element's (tokens, channels) block input; the plan is
    built once per block per step from it and reused by every component.
    """
    x = np.asarray(x, dtype=DTYPE)
    n = plan.shape.tokens
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"expected ({n}, channels) features, got {x.shape}")

    src_idx = plan.src_indices(element)
    dst_idx = plan.dst_indices(element)
    r = tokens_to_remove(ratio, n)
    if r > src_idx.size:
        raise RatioError(
            f"r={r} exceeds the src set size {src_idx.size}; "
            f"largest feasible ratio is {src_idx.size / n:.4f}"
        )
    if r == 0:
        return MergePlan(plan, element, n, np.empty((0, 2), np.int64), src_idx, n)

    sims = cosine_similarity(x[src_idx], x[dst_idx])
    best_pos = sims.argmax(axis=1)  # first max: lowest dst flat index on ties
    best_sim = sims[np.arange(src_idx.size), best_pos]

    # Primary key: similarity descending; secondary: src flat index ascending.
    order = np.lexsort((np.arange(src_idx.size), -best_sim))
    chosen = np.sort(order[:r])
    kept = np.sort(order[r:])

    edges = np.stack([src_idx[chosen], dst_idx[best_pos[chosen]]], axis=1)
    return MergePlan(plan, element, n, edges, src_idx[kept], n - r)


def brute_force_oracle(x, plan: PartitionPlan, ratio: float, element: int = 0) -> MergePlan:
    """Same contract as build_merge_plan, by exhaustive enumeration. Test use only."""
    n = plan.shape.tokens
    if n > 64:
        raise OracleError(f"oracle limited to 64 tokens, got {n}")
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError(f"expected ({n}, channels) features, got {x.shape}")

    src_idx = [int(i) for i in plan.src_indices(element)]
    dst_idx = [int(i) for i in plan.dst_indices(element)]
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
    return MergePlan(plan, element, n, edges, np.asarray(sorted(remaining), np.int64), n - r)


def export_edge_list(plan: MergePlan) -> str:
    """Edge list as text, one `src_index dst_index` pair per line."""
    return "".join(f"{int(s)} {int(d)}\n" for s, d in plan.edges)
