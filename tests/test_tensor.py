import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tomebench import tensor
from tomebench.matching import cosine_similarity
from tomebench.tensor import (
    DTYPE,
    FlopCounter,
    NonFiniteError,
    ShapeError,
    count_matmul_flops,
    layernorm_rows,
    matmul,
    softmax_rows,
)

finite_matrices = arrays(
    DTYPE,
    st.tuples(st.integers(1, 8), st.integers(2, 8)),
    elements=st.floats(-1e4, 1e4, width=32),
)


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2, dtype=DTYPE)
        b = np.array([[3, 4], [5, 6]], dtype=DTYPE)
        assert np.array_equal(matmul(eye, b), b)

    def test_scalar(self):
        assert matmul([[2.0]], [[3.0]])[0, 0] == 6.0

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((3, 5), DTYPE), np.zeros((4, 2), DTYPE))

    def test_deterministic(self, nprng):
        a = nprng.standard_normal((17, 9)).astype(DTYPE)
        b = nprng.standard_normal((9, 13)).astype(DTYPE)
        assert np.array_equal(matmul(a, b), matmul(a.copy(), b.copy()))

    def test_overflow_raises(self):
        big = np.full((2, 2), 1e38, dtype=DTYPE)
        with pytest.raises(NonFiniteError):
            matmul(big, big)

    def test_flop_counter(self):
        counter = FlopCounter()
        with count_matmul_flops(counter):
            matmul(np.zeros((3, 4), DTYPE), np.zeros((4, 5), DTYPE))
        assert counter.matmul == 2 * 3 * 4 * 5
        # nested scopes each receive every count, matmul FLOPs and similarity calls alike
        inner = FlopCounter()
        with count_matmul_flops(counter), count_matmul_flops(inner):
            matmul(np.zeros((2, 3), DTYPE), np.zeros((3, 1), DTYPE))
            cosine_similarity([[1.0]], [[1.0]])
        assert (counter.matmul, counter.similarity_calls) == (2 * 3 * 4 * 5 + 2 * 2 * 3, 1)
        assert (inner.matmul, inner.similarity_calls) == (2 * 2 * 3, 1)


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows([[0.0, 0.0]])
        assert np.allclose(out, [[0.5, 0.5]])

    def test_stability_no_overflow(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-30)

    def test_log2_row(self):
        # exp(ln 2) / (exp(ln 2) + 1) = 2/3
        out = softmax_rows([[math.log(2.0), 0.0]])
        assert out[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert out[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(finite_matrices)
    def test_rows_sum_to_one(self, a):
        sums = softmax_rows(a).sum(axis=1, dtype=np.float64)
        assert np.all(np.abs(sums - 1.0) <= 1e-6)


class TestLayernormRows:
    def test_constant_row(self):
        assert np.array_equal(layernorm_rows([[5.0, 5.0, 5.0, 5.0]]), np.zeros((1, 4), DTYPE))

    def test_already_normalized(self):
        out = layernorm_rows([[1.0, -1.0]])
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-5)

    def test_zero_two_row(self):
        out = layernorm_rows([[0.0, 2.0]])
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-5)

    def test_needs_two_columns(self):
        with pytest.raises(ShapeError):
            layernorm_rows([[1.0]])

    @settings(max_examples=200, deadline=None)
    @given(finite_matrices)
    def test_rows_standardized(self, a):
        out = layernorm_rows(a).astype(np.float64)
        assert np.all(np.abs(out.mean(axis=1)) <= 1e-5)
        # eps shrinks the output variance to v/(v+eps); exact for v >> eps
        v = a.astype(np.float64).var(axis=1)
        expected = v / (v + 1e-5)
        assert np.all(np.abs(out.var(axis=1) - expected) <= 1e-3)


class TestBlasThreads:
    def test_reads_the_count_the_process_was_given(self):
        read = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", "from tomebench.tensor import blas_threads; "
                 "print(blas_threads())"],
                capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            read.append(proc.stdout.strip())
        if read == ["None", "None"]:
            pytest.skip("no OpenBLAS thread-count getter in this numpy build")
        assert read == ["1", "2"]

    def test_none_without_a_known_getter(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLAS_THREAD_GETTERS", ("no_such_getter",))
        assert tensor._blas_thread_getter.__wrapped__() is None
        monkeypatch.setattr(tensor, "_blas_thread_getter", lambda: None)
        assert tensor.blas_threads() is None
