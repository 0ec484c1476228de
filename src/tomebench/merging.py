"""Apply and invert token merging, plus the prune mode used for contrast.

Merging replaces each dst token and the src tokens matched to it with their
arithmetic mean; unmerging copies the merged value back to every original
position of the group. Each group sum is accumulated in double precision,
starting from zero and adding one member at a time in ascending
original-index order, then divided once and cast back to float32. That makes
the mean of identical members exactly reproduce the member value, and makes
every merged value bit-deterministic.

The accumulation runs rank by rank over the plan's `Grouping`, which is built
once per plan and shared by every component: step k adds the k-th member of
every group that has one, as one contiguous slice add. Each group therefore
sees the same left-to-right sum as a scalar loop, while the Python loop runs
only as many times as the largest group has members. (`np.add.reduceat` is
not used: it adds the first member to a pairwise sum of the rest, which
rounds differently.)

Prune mode keeps the same surviving token set but leaves survivors untouched
and writes zero vectors at the removed positions on restore.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matching import MergePlan
from .tensor import DTYPE, ShapeError

MODE_MERGE = "merge"
MODE_PRUNE = "prune"


@dataclass(frozen=True)
class MergedTokens:
    """Reduced token set produced by apply_merge / the prune reducer.

    `group_ids` maps every original token index to its merged row;
    `representatives` maps each merged row back to the surviving original
    index (the dst token for merged groups, the token itself otherwise).
    Rows are ordered by ascending representative index.
    """

    values: np.ndarray  # (merged_token_count, channels) float32
    group_sizes: np.ndarray  # (merged_token_count,) int64
    origin: MergePlan
    group_ids: np.ndarray  # (n_tokens,) int64
    representatives: np.ndarray  # (merged_token_count,) int64
    mode: str = MODE_MERGE

    def __post_init__(self):
        if int(self.group_sizes.sum()) != self.origin.n_tokens:
            raise ShapeError("group sizes must cover every original token exactly once")

    @property
    def merged_token_count(self) -> int:
        return self.values.shape[0]

    def members(self, row: int) -> np.ndarray:
        """Original token indices belonging to a merged row, ascending."""
        return np.flatnonzero(self.group_ids == row)

    def with_values(self, values: np.ndarray) -> "MergedTokens":
        values = np.asarray(values, dtype=DTYPE)
        if values.shape[0] != self.merged_token_count:
            raise ShapeError(
                f"expected {self.merged_token_count} rows, got {values.shape[0]}"
            )
        return replace(self, values=values)


def _check_shape(x: np.ndarray, plan: MergePlan) -> np.ndarray:
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2 or x.shape[0] != plan.n_tokens:
        raise ShapeError(f"expected ({plan.n_tokens}, channels) tokens, got {x.shape}")
    return x


def apply_merge(x, plan: MergePlan) -> MergedTokens:
    """Merge the planned src tokens into their dst groups by group mean."""
    x = _check_shape(x, plan)
    g = plan.grouping
    ranked = x[g.sum_order].astype(np.float64)
    sums = np.zeros((g.representatives.size, x.shape[1]), dtype=np.float64)
    start = 0
    for count in g.rank_counts:
        sums[:count] += ranked[start:start + count]
        start += count
    values = (sums[g.slot] / g.group_sizes[:, None]).astype(DTYPE)
    return MergedTokens(values, g.group_sizes, plan, g.group_ids, g.representatives, MODE_MERGE)


def prune_reduce(x, plan: MergePlan) -> MergedTokens:
    """Drop the planned src tokens, keeping survivors unchanged."""
    x = _check_shape(x, plan)
    g = plan.grouping
    return MergedTokens(
        x[g.representatives], g.group_sizes, plan, g.group_ids, g.representatives, MODE_PRUNE
    )


def apply_unmerge(merged: MergedTokens) -> np.ndarray:
    """Restore the original token count.

    Merge mode duplicates each group's value to all of its original
    positions; prune mode writes zeros at removed positions instead.
    """
    if merged.mode == MODE_MERGE:
        return merged.values[merged.group_ids]
    out = np.zeros((merged.origin.n_tokens, merged.values.shape[1]), dtype=DTYPE)
    out[merged.representatives] = merged.values
    return out


def apply_prune(x, plan: MergePlan) -> np.ndarray:
    """Round trip of prune mode: survivors unchanged, removed positions zero."""
    return apply_unmerge(prune_reduce(x, plan))


def reduce_tokens(x, plan: MergePlan, mode: str = MODE_MERGE) -> MergedTokens:
    """Uniform entry point for the block wrapper: merge or prune reduction."""
    if mode == MODE_MERGE:
        return apply_merge(x, plan)
    if mode == MODE_PRUNE:
        return prune_reduce(x, plan)
    raise ValueError(f"unknown reduction mode {mode!r}")
