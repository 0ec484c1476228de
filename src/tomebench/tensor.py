"""Minimal dense float32 kernel: matmul, row softmax, row layernorm.

All public operations are pure (inputs are never mutated; an op writes
only into the `out` array its caller passes, if any) and deterministic:
repeated evaluation on the same inputs is bit-identical. `matmul` and
`softmax_rows` accept stacked operands: `matmul` multiplies `(..., n, k) @
(..., k, m)` matrix by matrix, and `softmax_rows` normalizes along the last
axis of any array of two or more dimensions. `layernorm_rows` takes a 2D
array. Inside an op, in-place arithmetic is used only on temporaries that
the op allocated itself, in the same operation order as the plain
expression, so it saves allocations and memory traffic without changing a
single bit of the result.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

DTYPE = np.float32


# Thread-count getters and setters of the scipy-openblas build numpy 2 wheels
# ship, of the ILP64 OpenBLAS of numpy 1.22-1.26 wheels, and of a system OpenBLAS.
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads")


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


@dataclass
class FlopCounter:
    """What ran inside a `count_matmul_flops` scope.

    `matmul` accumulates multiply-add FLOPs (2 per MAC) of `matmul` calls, and
    `similarity_calls` counts `matching.cosine_similarity` calls. Calls from
    every thread count, also from a helper thread that computes part of an
    attention call; the update is locked, so none is lost.
    """

    matmul: int = 0
    similarity_calls: int = 0


_active_counters: list[FlopCounter] = []
_counters_lock = threading.Lock()


@contextmanager
def count_matmul_flops(counter: FlopCounter):
    """Record what runs inside the `with` body into `counter`; nested scopes each get every count."""
    _active_counters.append(counter)
    try:
        yield counter
    finally:
        _active_counters.pop()


def add_counts(matmul: int = 0, similarity_calls: int = 0) -> None:
    """Add to every open counter."""
    with _counters_lock:
        for counter in _active_counters:
            counter.matmul += matmul
            counter.similarity_calls += similarity_calls


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2D float32 ndarray, rejecting anything else."""
    out = np.asarray(a, dtype=DTYPE)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2D, got ndim={out.ndim}")
    return out


def as_stack(a, name: str = "stack") -> np.ndarray:
    """Coerce to a float32 ndarray of two or more dimensions, rejecting anything else."""
    out = np.asarray(a, dtype=DTYPE)
    if out.ndim < 2:
        raise ShapeError(f"{name} must have at least 2 dims, got ndim={out.ndim}")
    return out


def _check_finite(a: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{op} produced non-finite values")
    return a


def matmul(a, b, check: bool = True, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product a @ b with a shape check and finite output.

    Stacked operands `(..., n, k) @ (..., k, m)` must have equal stack shapes
    (no broadcasting); each matrix of the stack is one product. `check=False`
    skips the finite check, for a caller that has bounded the product below
    float32 max itself. The product goes into a new array, or into `out`
    when given (a float32 array of the product's shape).
    """
    a = as_stack(a, "a")
    b = as_stack(b, "b")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul dimension mismatch: {'x'.join(map(str, a.shape))} @ "
            f"{'x'.join(map(str, b.shape))}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(a, b, out=out)
    if _active_counters:
        add_counts(matmul=2 * a.size * b.shape[-1])
    return _check_finite(out, "matmul") if check else out


def softmax_rows(a, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis with max subtraction; each row sums to 1.

    The result goes into a new array, or into `out` when given: `out=a` lets a
    caller normalize a temporary of its own in place, with the same bits.
    """
    a = as_stack(a)
    out = np.subtract(a, a.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    sums = out.sum(axis=-1, keepdims=True, dtype=DTYPE)
    # A row with a finite maximum holds exp(0) = 1 and nothing above 1, so its
    # sum is finite and >= 1. A NaN or +inf in a row, or a row of only -inf,
    # makes its sum NaN. The quotient is therefore finite exactly when every
    # row sum is, so checking the (..., n, 1) sums raises on exactly the inputs a
    # check of `out` would.
    _check_finite(sums, "softmax_rows")
    out /= sums
    return out


def layernorm_rows(a, eps: float = 1e-5, out: np.ndarray | None = None) -> np.ndarray:
    """Normalize each row to mean 0, variance 1 (no affine), eps in the denominator.

    Moments are taken in double precision so constant rows come out exactly
    zero and the centering is free of float32 cancellation noise; the result
    is cast back to float32, into a new array or into `out` when given (a
    float32 array of `a`'s shape).
    """
    a = as_matrix(a)
    if a.shape[1] < 2:
        raise ShapeError(f"layernorm_rows needs >= 2 columns, got {a.shape[1]}")
    centered = a.astype(np.float64)
    centered -= centered.mean(axis=1, keepdims=True)
    var = np.mean(np.square(centered), axis=1, keepdims=True)
    # Divides in double precision and rounds once into the float32 result.
    if out is None:
        out = np.empty(a.shape, DTYPE)
    np.divide(centered, np.sqrt(var + eps), out=out)
    return _check_finite(out, "layernorm_rows")


@functools.cache
def _openblas_libraries() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries mapped into this process, opened through ctypes.

    They are found among the files mapped into the process (Linux
    `/proc/self/maps`); they stay loaded, so the search runs once. Empty where
    the map cannot be read or names no OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libraries)


def _blas_function(names: tuple[str, ...], argtypes: tuple, restype):
    """The first of `names` exported by a mapped OpenBLAS, typed; None if none is."""
    for lib in _openblas_libraries():
        for name in names:
            function = getattr(lib, name, None)
            if function is not None:
                function.argtypes = argtypes
                function.restype = restype
                return function
    return None


@functools.cache
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS this process loaded, or None."""
    return _blas_function(BLAS_THREAD_GETTERS, (), ctypes.c_int)


@functools.cache
def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS this process loaded, or None."""
    return _blas_function(BLAS_THREAD_SETTERS, (ctypes.c_int,), None)


def blas_threads() -> int | None:
    """The current thread count of the OpenBLAS this process loaded.

    None where the count cannot be read: no process map, no OpenBLAS among
    the mapped files, or no known getter in it.
    """
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


@contextmanager
def single_blas_thread():
    """Compute the `with` body on one OpenBLAS thread; restore the count on exit.

    Every product here is skinny (16-wide heads, 64 channels): a second
    thread shortens few of them but spins on a core after each call, which
    nearly doubles a run's CPU time. The thread count also decides how
    OpenBLAS splits a product, and so the bits of its result; on one thread,
    results do not depend on `OPENBLAS_NUM_THREADS`. The previous count comes
    back also when the body raises. A no-op where no setter or no getter is
    found.
    """
    setter, getter = _blas_thread_setter(), _blas_thread_getter()
    if setter is None or getter is None:
        yield
        return
    previous = int(getter())
    setter(1)
    try:
        yield
    finally:
        setter(previous)
