"""Apply and invert token merging, plus the prune mode used for contrast.

Both operators work on a batch's tokens stacked as `(batch * n_tokens,
channels)` rows and take the plan's `Grouping` over those rows, so one call
serves every batch element.

Merging replaces each dst token and the src tokens matched to it with their
arithmetic mean; unmerging copies the merged value back to every original
position of the group. Each group sum is accumulated in double precision,
starting from zero and adding one member at a time in ascending
original-index order, then divided once and cast back to float32. That makes
the mean of identical members exactly reproduce the member value, and makes
every merged value bit-deterministic.

The accumulation runs rank by rank over the `Grouping`, which is built once
per plan and shared by every component: step k adds the k-th member of
every group that has one, as one contiguous slice add. Each group therefore
sees the same left-to-right sum as a scalar loop, while the Python loop runs
only as many times as the largest group has members. (`np.add.reduceat` is
not used: it adds the first member to a pairwise sum of the rest, which
rounds differently.)

Prune mode keeps the same surviving token set but leaves survivors untouched
and writes zero vectors at the removed positions on restore.
"""

from __future__ import annotations

import numpy as np

from .matching import Grouping
from .tensor import DTYPE, ShapeError

MODE_MERGE = "merge"
MODE_PRUNE = "prune"


def reduce_tokens(rows, grouping: Grouping, mode: str = MODE_MERGE) -> np.ndarray:
    """One row per group: the group mean (merge) or the surviving token (prune)."""
    rows = np.asarray(rows, dtype=DTYPE)
    if rows.ndim != 2 or rows.shape[0] != grouping.group_ids.size:
        raise ShapeError(f"expected ({grouping.group_ids.size}, channels) rows, got {rows.shape}")
    if mode == MODE_PRUNE:
        return rows[grouping.representatives]
    if mode != MODE_MERGE:
        raise ValueError(f"unknown reduction mode {mode!r}")
    ranked = rows[grouping.sum_order].astype(np.float64)
    sums = np.zeros((grouping.representatives.size, rows.shape[1]), dtype=np.float64)
    start = 0
    for count in grouping.rank_counts:
        sums[:count] += ranked[start:start + count]
        start += count
    return (sums[grouping.slot] / grouping.group_sizes[:, None]).astype(DTYPE)


def apply_unmerge(rows, grouping: Grouping, mode: str = MODE_MERGE) -> np.ndarray:
    """Restore the original token count.

    Merge mode duplicates each group's value to all of its original
    positions; prune mode writes zeros at removed positions instead.
    """
    if mode == MODE_MERGE:
        return rows[grouping.group_ids]
    out = np.zeros((grouping.group_ids.size, rows.shape[1]), dtype=DTYPE)
    out[grouping.representatives] = rows
    return out
