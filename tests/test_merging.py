import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomebench.grid import GridShape
from tomebench.matching import build_merge_plan
from tomebench.merging import MODE_MERGE, MODE_PRUNE, apply_unmerge, reduce_tokens
from tomebench.partition import PartitionScheme, make_partition
from tomebench.rng import StreamRng
from tomebench.tensor import DTYPE, ShapeError
from conftest import hand_plan, src_indices


def plan_for(x, plan, ratio):
    """Merge plan of a single-element batch from its (tokens, channels) features."""
    return build_merge_plan(x[None], plan, ratio)


def round_trip(x, mplan, mode=MODE_MERGE):
    return apply_unmerge(reduce_tokens(x, mplan.grouping, mode), mplan.grouping, mode)


def pair_plan():
    """1x2 grid: token 0 = dst, token 1 = src, one forced edge."""
    plan = hand_plan([True, False], 1, 2)
    x = np.array([[2.0], [4.0]], dtype=DTYPE)
    return x, plan_for(x, plan, 0.5)


def group_mean_reference(x, grouping):
    """Independent mean: double-precision scalar loop, ascending original index."""
    out = np.empty((grouping.group_sizes.size, x.shape[1]), dtype=DTYPE)
    for row in range(grouping.group_sizes.size):
        members = np.flatnonzero(grouping.group_ids == row)
        acc = np.zeros(x.shape[1], dtype=np.float64)
        for token in members:
            acc += x[token].astype(np.float64)
        out[row] = (acc / len(members)).astype(DTYPE)
    return out


class TestApplyMerge:
    def test_pair_mean(self):
        x, mplan = pair_plan()
        merged = reduce_tokens(x, mplan.grouping)
        assert merged.shape == (1, 1)
        assert merged[0, 0] == 3.0
        assert mplan.grouping.group_sizes[0] == 2

    def test_three_way_group_mean(self):
        # dst token [1] at flat 0; src tokens [3], [5] both merge into it
        x = np.array([[1.0], [3.0], [5.0]], dtype=DTYPE)
        plan = hand_plan([True, False, False], 1, 3)
        mplan = plan_for(x, plan, 0.6)  # r = floor(1.8) = 1 ... need 2
        assert mplan.r == 1
        mplan2 = plan_for(x, plan, 0.67)  # floor(2.01) = 2
        merged = reduce_tokens(x, mplan2.grouping)
        assert merged[0, 0] == 3.0  # (1+3+5)/3

    def test_empty_edges_identity(self, nprng):
        x = nprng.standard_normal((16, 4)).astype(DTYPE)
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.strided(2, 2), StreamRng(0))
        mplan = plan_for(x, plan, 0.0)
        merged = reduce_tokens(x, mplan.grouping)
        assert np.array_equal(merged, x)
        assert np.array_equal(apply_unmerge(merged, mplan.grouping), x)

    def test_shape_mismatch(self):
        x, mplan = pair_plan()
        with pytest.raises(ShapeError):
            reduce_tokens(np.ones((3, 1), DTYPE), mplan.grouping)

    def test_row_order_is_ascending_survivor(self, nprng):
        x = nprng.standard_normal((16, 3)).astype(DTYPE)
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.rand_tile(2, 2), StreamRng(1))
        mplan = plan_for(x, plan, 0.5)
        reps = mplan.grouping.representatives
        assert list(reps) == sorted(reps)
        survivors = set(range(16)) - {int(s) for s, _ in mplan.edges[0]}
        assert {int(r) for r in reps} == survivors


class TestApplyUnmerge:
    def test_pair_round_trip(self):
        x, mplan = pair_plan()
        out = round_trip(x, mplan)
        assert np.array_equal(out, [[3.0], [3.0]])

    def test_no_edges_bit_identical(self, nprng):
        x = nprng.standard_normal((12, 5)).astype(DTYPE)
        plan = make_partition(GridShape(1, 3, 4), PartitionScheme.alternating(), StreamRng(0))
        out = round_trip(x, plan_for(x, plan, 0.0))
        assert np.array_equal(out, x)

    def test_identical_tokens_exact_for_any_plan(self):
        value = np.float32(0.1)  # awkward mantissa
        x = np.full((16, 4), value, dtype=DTYPE)
        for seed in range(10):
            plan = make_partition(GridShape(1, 4, 4), PartitionScheme.rand_tile(2, 2), StreamRng(seed))
            out = round_trip(x, plan_for(x, plan, 0.5))
            assert np.array_equal(out, x)


class TestApplyPrune:
    def test_pair_round_trip_zeroes_src(self):
        x, mplan = pair_plan()
        out = round_trip(x, mplan, MODE_PRUNE)
        assert np.array_equal(out, [[2.0], [0.0]])

    def test_empty_edges_identity(self, nprng):
        x = nprng.standard_normal((8, 2)).astype(DTYPE)
        plan = make_partition(GridShape(1, 2, 4), PartitionScheme.alternating(), StreamRng(0))
        out = round_trip(x, plan_for(x, plan, 0.0), MODE_PRUNE)
        assert np.array_equal(out, x)

    def test_all_src_pruned_half_zero(self):
        x = np.ones((4, 1), dtype=DTYPE)
        plan = make_partition(GridShape(1, 2, 2), PartitionScheme.alternating(), StreamRng(0))
        out = round_trip(x, plan_for(x, plan, 0.5), MODE_PRUNE)
        assert int((out == 0).sum()) == 2
        assert int((out == 1).sum()) == 2

    def test_reduce_keeps_survivor_values(self, nprng):
        x = nprng.standard_normal((16, 3)).astype(DTYPE)
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.rand_tile(2, 2), StreamRng(3))
        mplan = plan_for(x, plan, 0.5)
        reduced = reduce_tokens(x, mplan.grouping, MODE_PRUNE)
        assert np.array_equal(reduced, x[mplan.grouping.representatives])

    def test_unknown_mode(self):
        x, mplan = pair_plan()
        with pytest.raises(ValueError, match="mode"):
            reduce_tokens(x, mplan.grouping, "average")


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 0.7))
    def test_round_trip_contract(self, seed, ratio):
        nprng = np.random.default_rng(seed)
        h, w = int(nprng.integers(2, 7)), int(nprng.integers(2, 7))
        c = int(nprng.integers(1, 6))
        x = nprng.standard_normal((h * w, c)).astype(DTYPE)
        plan = make_partition(GridShape(1, h, w), PartitionScheme.rand_tile(2, 2), StreamRng(seed))
        ratio = min(ratio, src_indices(plan, 0).size / (h * w))
        mplan = plan_for(x, plan, ratio)
        g = mplan.grouping
        merged = reduce_tokens(x, g)
        out = apply_unmerge(merged, g)

        merged_positions = {int(s) for s, _ in mplan.edges[0]}
        assert np.array_equal(merged, group_mean_reference(x, g))
        for token in range(h * w):
            row = g.group_ids[token]
            if token in merged_positions or g.group_sizes[row] > 1:
                assert np.array_equal(out[token], merged[row])
            else:
                assert np.array_equal(out[token], x[token])

    def test_error_monotone_in_nested_plans(self, nprng):
        # selections at increasing r are nested, so round-trip error cannot shrink
        for trial in range(20):
            x = nprng.standard_normal((36, 4)).astype(DTYPE)
            plan = make_partition(GridShape(1, 6, 6), PartitionScheme.rand_tile(2, 2),
                                  StreamRng(trial))
            errors = []
            max_ratio = src_indices(plan, 0).size / 36
            for ratio in np.linspace(0.0, max_ratio, 8):
                out = round_trip(x, plan_for(x, plan, float(ratio)))
                errors.append(float(np.linalg.norm((out - x).astype(np.float64))))
            for smaller, larger in zip(errors, errors[1:]):
                assert smaller <= larger + 1e-9

    def test_group_count_invariant(self, nprng):
        for _ in range(20):
            x = nprng.standard_normal((24, 2)).astype(DTYPE)
            plan = make_partition(GridShape(1, 4, 6), PartitionScheme.random(0.25),
                                  StreamRng(int(nprng.integers(1 << 20))))
            ratio = float(nprng.uniform(0, 0.7))
            ratio = min(ratio, src_indices(plan, 0).size / 24)
            mplan = plan_for(x, plan, ratio)
            merged = reduce_tokens(x, mplan.grouping)
            assert merged.shape[0] == mplan.merged_token_count == 24 - mplan.r
            assert int(mplan.grouping.group_sizes.sum()) == 24
