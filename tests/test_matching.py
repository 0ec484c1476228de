import tracemalloc

import numpy as np
import pytest

from tomebench.grid import GridShape
from tomebench.matching import (
    RatioError,
    build_merge_plan,
    cosine_similarity,
    export_edge_list,
    tokens_to_remove,
)
from tomebench.partition import PartitionScheme, make_partition
from tomebench.rng import StreamRng
from tomebench.tensor import DTYPE, FlopCounter, ShapeError, count_matmul_flops

from conftest import dst_indices, hand_plan, kept_src, src_indices
from reference_kernels import OracleError, brute_force_oracle, edge_set

SCHEMES = (
    PartitionScheme.alternating(),
    PartitionScheme.strided(2, 2),
    PartitionScheme.random(0.25),
    PartitionScheme.rand_tile(2, 2),
)


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine_similarity([[1.0, 0.0]], [[1.0, 0.0]])[0, 0] == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([[1.0, 0.0]], [[0.0, 1.0]])[0, 0] == 0.0

    def test_45_degrees(self):
        sim = cosine_similarity([[1.0, 1.0]], [[1.0, 0.0]])[0, 0]
        assert sim == pytest.approx(0.7071, abs=1e-4)

    def test_zero_norm_rows_score_zero(self):
        sims = cosine_similarity([[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(sims, [[0.0, 0.0]])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(np.zeros((2, 3), DTYPE), np.zeros((2, 4), DTYPE))

    def test_range_clipped(self, nprng):
        a = nprng.standard_normal((20, 5)).astype(DTYPE)
        sims = cosine_similarity(a, a)
        assert sims.max() <= 1.0 and sims.min() >= -1.0

    def test_stack_pairs_matrix_by_matrix(self, nprng):
        a = nprng.standard_normal((2, 7, 5)).astype(DTYPE)
        b = nprng.standard_normal((2, 3, 5)).astype(DTYPE)
        sims = cosine_similarity(a, b)
        for e in range(2):
            assert sims[e].tobytes() == cosine_similarity(a[e], b[e]).tobytes()

    def test_stack_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(np.zeros((2, 3, 4), DTYPE), np.zeros((1, 3, 4), DTYPE))

    def test_counts_calls_inside_the_with_body(self):
        counter = FlopCounter()
        with count_matmul_flops(counter):
            cosine_similarity([[1.0]], [[1.0]])
            cosine_similarity(np.ones((2, 3, 1), DTYPE), np.ones((2, 1, 1), DTYPE))
        cosine_similarity([[1.0]], [[1.0]])
        assert counter.similarity_calls == 2


class TestTokensToRemove:
    def test_floor(self):
        assert tokens_to_remove(0.5, 5) == 2
        assert tokens_to_remove(0.5, 4096) == 2048
        assert tokens_to_remove(0.0, 100) == 0

    def test_range(self):
        with pytest.raises(RatioError):
            tokens_to_remove(1.0, 10)
        with pytest.raises(RatioError):
            tokens_to_remove(-0.1, 10)


class TestBuildMergePlan:
    def test_identical_tokens_tie_break(self):
        x = np.ones((1, 4, 3), dtype=DTYPE)
        plan = make_partition(GridShape(1, 2, 2), PartitionScheme.alternating(), StreamRng(0))
        mplan = build_merge_plan(x, plan, 0.5)
        assert mplan.r == 2
        assert mplan.merged_token_count == 2
        # both src tokens (0, 2) merge into the first dst (flat 1)
        assert edge_set(mplan.edges[0]) == {(0, 1), (2, 1)}
        assert list(kept_src(mplan, plan, 0)) == []

    def test_enumerated_selection(self):
        # tokens: src0=[1,0] src1=[0,1] src2=[0.6,0.8] dst0=[1,0] dst1=[0,1]
        x = np.array([[[1, 0], [0, 1], [0.6, 0.8], [1, 0], [0, 1]]], dtype=DTYPE)
        plan = hand_plan([False, False, False, True, True], 1, 5)
        mplan = build_merge_plan(x, plan, 0.2)  # floor(0.2*5) = 1
        assert mplan.r == 1
        # src0 and src1 both have best similarity 1.0; the lower src index wins,
        # and src0's best dst is the lower-index dst0 (flat 3)
        assert edge_set(mplan.edges[0]) == {(0, 3)}
        assert list(kept_src(mplan, plan, 0)) == [1, 2]

    def test_ratio_zero_is_identity_plan(self):
        x = np.ones((1, 16, 2), dtype=DTYPE)
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.strided(2, 2), StreamRng(0))
        mplan = build_merge_plan(x, plan, 0.0)
        assert mplan.r == 0
        assert mplan.merged_token_count == 16
        assert list(kept_src(mplan, plan, 0)) == list(src_indices(plan, 0))

    def test_ratio_beyond_src_capacity(self):
        x = np.ones((1, 16, 2), dtype=DTYPE)
        plan = make_partition(GridShape(1, 4, 4), PartitionScheme.alternating(), StreamRng(0))
        with pytest.raises(RatioError, match="feasible"):
            build_merge_plan(x, plan, 0.6)

    def test_selected_dominate_unselected(self, nprng):
        for _ in range(50):
            x = nprng.standard_normal((24, 4)).astype(DTYPE)
            plan = make_partition(GridShape(1, 4, 6), PartitionScheme.rand_tile(2, 2),
                                  StreamRng(int(nprng.integers(1 << 30))))
            mplan = build_merge_plan(x[None], plan, 0.3)
            sims = cosine_similarity(x[src_indices(plan, 0)], x[dst_indices(plan, 0)])
            best = dict(zip(src_indices(plan, 0), sims.max(axis=1)))
            selected = {int(s) for s, _ in mplan.edges[0]}
            if not selected:
                continue
            worst_selected = min(best[s] for s in selected)
            for s in kept_src(mplan, plan, 0):
                assert best[int(s)] <= worst_selected

    def test_wrong_token_count(self):
        plan = make_partition(GridShape(1, 2, 2), PartitionScheme.alternating(), StreamRng(0))
        with pytest.raises(ShapeError):
            build_merge_plan(np.ones((1, 5, 2), DTYPE), plan, 0.5)
        with pytest.raises(ShapeError):
            build_merge_plan(np.ones((4, 2), DTYPE), plan, 0.5)  # no batch axis

    def test_peak_memory_holds_one_similarity_matrix(self, nprng):
        """At 64x64, batch 2, the plan's traced peak stays near its (2, 3072, 1024) similarity.

        The similarity is clipped where the product wrote it, with no second copy.
        """
        part = make_partition(GridShape(2, 64, 64), PartitionScheme.rand_tile(2, 2), StreamRng(0))
        x = nprng.standard_normal((2, 64 * 64, 64)).astype(DTYPE)
        n_dst = int(np.count_nonzero(part.dst_mask[0]))
        sims_bytes = 2 * (64 * 64 - n_dst) * n_dst * np.dtype(DTYPE).itemsize
        tracemalloc.start()
        try:
            build_merge_plan(x, part, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sims_bytes


class TestOracle:
    def test_forced_single_edge(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=DTYPE)
        plan = make_partition(GridShape(1, 1, 2), PartitionScheme.alternating(), StreamRng(0))
        mplan = brute_force_oracle(x, plan, 0.5)
        assert edge_set(mplan.edges) == {(0, 1)}

    def test_identical_grid_matches(self):
        x = np.ones((4, 3), dtype=DTYPE)
        plan = make_partition(GridShape(1, 2, 2), PartitionScheme.alternating(), StreamRng(0))
        got = build_merge_plan(x[None], plan, 0.5)
        want = brute_force_oracle(x, plan, 0.5)
        assert edge_set(got.edges[0]) == edge_set(want.edges)

    def test_size_cap(self):
        plan = make_partition(GridShape(1, 10, 10), PartitionScheme.alternating(), StreamRng(0))
        with pytest.raises(OracleError):
            brute_force_oracle(np.ones((100, 2), DTYPE), plan, 0.5)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_differential_small(self, scheme, nprng):
        for case in range(100):
            h, w = int(nprng.integers(2, 9)), int(nprng.integers(2, 9))
            c = int(nprng.integers(1, 8))
            x = nprng.standard_normal((h * w, c)).astype(DTYPE)
            plan = make_partition(GridShape(1, h, w), scheme, StreamRng(case), case % 5, case % 3)
            src = src_indices(plan, 0).size
            ratio = float(nprng.uniform(0.0, src / (h * w)))
            got = build_merge_plan(x[None], plan, ratio)
            want = brute_force_oracle(x, plan, ratio)
            assert edge_set(got.edges[0]) == edge_set(want.edges)
            assert np.array_equal(got.edges[0], want.edges)
            assert np.array_equal(kept_src(got, plan, 0), want.kept_src)
            assert got.merged_token_count == want.merged_token_count


def test_export_edge_list():
    x = np.array([[[1, 0], [0, 1], [0.6, 0.8], [1, 0], [0, 1]]], dtype=DTYPE)
    plan = hand_plan([False, False, False, True, True], 1, 5)
    mplan = build_merge_plan(x, plan, 0.4)  # r = 2
    text = export_edge_list(mplan)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert all(len(line.split()) == 2 for line in lines)
    srcs = [int(line.split()[0]) for line in lines]
    assert srcs == sorted(srcs)
