import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tomebench.grid import GridShape
from tomebench.partition import (
    PARTITION_SYNTAX,
    PartitionError,
    PartitionScheme,
    expected_dst_count,
    make_partition,
)
from tomebench.rng import StreamRng
from conftest import dst_fractions, dst_indices, src_indices

RNG = StreamRng(0)


class TestSchemes:
    def test_alternating_row_grid(self):
        plan = make_partition(GridShape(1, 1, 4), PartitionScheme.alternating(), RNG)
        assert list(dst_indices(plan, 0)) == [1, 3]

    def test_alternating_even_width_makes_columns(self):
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.alternating(), RNG)
        field = plan.dst_mask[0].reshape(4, 4)
        # odd flat index on even width = odd column, for every row
        assert np.array_equal(field, np.tile([False, True, False, True], (4, 1)))

    def test_strided_2x2_on_4x4(self):
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.strided(2, 2), RNG)
        assert np.count_nonzero(plan.dst_mask, axis=1).tolist() == [4]
        assert dst_fractions(plan).tolist() == [0.25]
        ys, xs = np.divmod(dst_indices(plan, 0), 4)
        assert set(zip(ys, xs)) == {(0, 0), (0, 2), (2, 0), (2, 2)}

    @pytest.mark.parametrize("sy,sx,frac", [
        (1, 2, 0.5), (2, 1, 0.5), (2, 2, 0.25), (2, 4, 0.125), (4, 2, 0.125), (4, 4, 0.0625),
    ])
    def test_strided_fractions_on_8x8(self, sy, sx, frac):
        plan = make_partition(GridShape(1, 8, 8), PartitionScheme.strided(sy, sx), RNG)
        assert dst_fractions(plan).tolist() == [frac]

    def test_rand_tile_one_per_tile(self):
        scheme = PartitionScheme.rand_tile(2, 2)
        plan = make_partition(GridShape(1, 4, 4), scheme, RNG)
        assert np.count_nonzero(plan.dst_mask, axis=1).tolist() == [4]
        field = plan.dst_mask[0].reshape(4, 4)
        for y0 in range(0, 4, 2):
            for x0 in range(0, 4, 2):
                assert field[y0:y0 + 2, x0:x0 + 2].sum() == 1

    def test_rand_tile_edge_tiles(self):
        # 5x5 grid with 2x2 tiles: 3x3 tile grid, edge tiles smaller but still one dst
        plan = make_partition(GridShape(1, 5, 5), PartitionScheme.rand_tile(2, 2), RNG)
        assert np.count_nonzero(plan.dst_mask, axis=1).tolist() == [9]

    def test_random_count(self):
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.random(0.25), RNG)
        assert np.count_nonzero(plan.dst_mask, axis=1).tolist() == [4]

    def test_random_rounds_ties_to_even(self):
        # 0.25 * 10 = 2.5 -> 2 under banker's rounding
        plan = make_partition(GridShape(1, 2, 5), PartitionScheme.random(0.25), RNG)
        assert np.count_nonzero(plan.dst_mask, axis=1).tolist() == [2]


class TestBatchFix:
    def test_fixed_masks_identical_across_batch(self):
        plan = make_partition(GridShape(2, 4, 4), PartitionScheme.random(0.25), RNG, 3, 1)
        assert np.array_equal(plan.dst_mask[0], plan.dst_mask[1])

    def test_unfixed_masks_differ_for_some_seed(self):
        differing = 0
        for seed in range(10):
            scheme = PartitionScheme.random(0.25, batch_fix=False)
            plan = make_partition(GridShape(2, 8, 8), scheme, StreamRng(seed), 0, 0)
            if not np.array_equal(plan.dst_mask[0], plan.dst_mask[1]):
                differing += 1
        assert differing >= 9

    def test_batch_slice_equals_smaller_batch(self):
        scheme = PartitionScheme.rand_tile(2, 2)
        big = make_partition(GridShape(8, 4, 4), scheme, StreamRng(5), 2, 3)
        small = make_partition(GridShape(2, 4, 4), scheme, StreamRng(5), 2, 3)
        assert np.array_equal(big.dst_mask[:2], small.dst_mask)


class TestProperties:
    @pytest.mark.parametrize("scheme", [
        PartitionScheme.alternating(),
        PartitionScheme.strided(2, 2),
        PartitionScheme.random(0.3),
        PartitionScheme.rand_tile(2, 2),
    ])
    def test_every_token_src_xor_dst(self, scheme):
        plan = make_partition(GridShape(2, 6, 8), scheme, StreamRng(3), 1, 2)
        for b in range(2):
            union = np.concatenate([src_indices(plan, b), dst_indices(plan, b)])
            assert sorted(union) == list(range(48))

    def test_rand_tile_count_over_seeds(self):
        for seed in range(50):
            plan = make_partition(GridShape(1, 8, 8), PartitionScheme.rand_tile(2, 2), StreamRng(seed))
            assert np.count_nonzero(plan.dst_mask, axis=1).tolist() == [16]

    def test_deterministic_in_inputs(self):
        scheme = PartitionScheme.random(0.4)
        a = make_partition(GridShape(3, 4, 8), scheme, StreamRng(11), 7, 2)
        b = make_partition(GridShape(3, 4, 8), scheme, StreamRng(11), 7, 2)
        assert np.array_equal(a.dst_mask, b.dst_mask)

    def test_expected_dst_count_matches(self):
        shape = GridShape(2, 6, 8)
        for scheme in (PartitionScheme.alternating(), PartitionScheme.strided(2, 2),
                       PartitionScheme.random(0.3), PartitionScheme.rand_tile(2, 2),
                       PartitionScheme.random(0.3, batch_fix=False),
                       PartitionScheme.rand_tile(2, 2, batch_fix=False)):
            plan = make_partition(shape, scheme, StreamRng(1))
            counts = np.count_nonzero(plan.dst_mask, axis=1)
            assert counts.tolist() == [expected_dst_count(shape, scheme)] * 2


class TestErrors:
    def test_single_token_grid_fails(self):
        with pytest.raises(PartitionError):
            make_partition(GridShape(1, 1, 1), PartitionScheme.alternating(), RNG)

    def test_stride_1x1_leaves_no_src(self):
        with pytest.raises(PartitionError):
            make_partition(GridShape(1, 4, 4), PartitionScheme.strided(1, 1), RNG)

    @pytest.mark.parametrize("frac,side", [(0.01, 4), (0.9, 2)],
                             ids=["no-dst", "no-src"])  # round(f * N) is 0 and N
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("batch_fix", [True, False])
    def test_random_scheme_with_an_empty_side_fails(self, frac, side, batch, batch_fix):
        scheme = PartitionScheme.random(frac, batch_fix=batch_fix)
        with pytest.raises(PartitionError, match="leaves an empty src or dst set"):
            make_partition(GridShape(batch, side, side), scheme, RNG)

    def test_bad_scheme_params(self):
        with pytest.raises(PartitionError):
            PartitionScheme.strided(0, 2)
        with pytest.raises(PartitionError):
            PartitionScheme.random(1.0)
        with pytest.raises(PartitionError):
            PartitionScheme.rand_tile(0, 1)


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("alt", PartitionScheme.alternating()),
        ("strided:2x4", PartitionScheme.strided(2, 4)),
        ("rand:0.25", PartitionScheme.random(0.25)),
        ("rand2x2", PartitionScheme.rand_tile(2, 2)),
        ("randtile:3x2", PartitionScheme.rand_tile(3, 2)),
    ])
    def test_round_trip(self, text, expected):
        scheme = PartitionScheme.parse(text)
        assert scheme == expected
        assert PartitionScheme.parse(scheme.spec_string()) == scheme

    @given(st.one_of(
        st.builds(PartitionScheme.alternating, st.booleans()),
        st.builds(PartitionScheme.strided, st.integers(1, 8), st.integers(1, 8), st.booleans()),
        st.builds(PartitionScheme.random, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.booleans()),
        st.builds(PartitionScheme.rand_tile, st.integers(1, 8), st.integers(1, 8), st.booleans()),
    ))
    @example(PartitionScheme.rand_tile(3, 2))
    @example(PartitionScheme.random(0.12353516))  # more significant digits than `:g` writes
    def test_spec_string_parses_back_to_the_scheme(self, scheme):
        assert PartitionScheme.parse(scheme.spec_string(), scheme.batch_fix) == scheme

    def test_bad_syntax(self):
        for text in ("rand", "strided:ax2", "strided:2", "alt:", "rand2x2:1", "randtile:3",
                     "randtile:3x2x1", "rand:x", "tile:2x2"):
            with pytest.raises(PartitionError, match=re.escape(f"expected {PARTITION_SYNTAX}")):
                PartitionScheme.parse(text)

    @pytest.mark.parametrize("text", ["strided:0x2", "randtile:2x0", "rand:1.0", "rand:nan"])
    def test_out_of_range_values_keep_the_constructor_error(self, text):
        with pytest.raises(PartitionError, match="must be"):
            PartitionScheme.parse(text)
