"""Runs compute on one OpenBLAS thread: reports and timing do not depend on the
process's thread count, and the count comes back after every run."""

import json
import os
import subprocess
import sys
import types

import pytest
from test_allocator import DIRECT_RUN

from tomebench import runner, tensor
from tomebench.config import HarnessConfig, ToMeConfig
from tomebench.metrics import timing_dict
from tomebench.runner import execute_run

# The config whose max_abs read 0.04244518280029297 at two threads and
# 0.04244512319564819 at one before runs were pinned.
THREAD_SENSITIVE_32 = {"latent": "32x32", "steps": "2", "ratio": "0.3",
                       "apply": "self,cross,mlp", "min_tokens": "1"}


def tiny_harness():
    return HarnessConfig(latent=(8, 8), channels=16, heads=4, prompt_tokens=4, num_scales=2,
                         steps=2, tome=ToMeConfig(ratio=0.5, min_tokens=1))


@pytest.fixture
def two_blas_threads():
    """The process's OpenBLAS at two threads for the test, then at its own count again."""
    setter, ambient = tensor._blas_thread_setter(), tensor.blas_threads()
    if setter is None or ambient is None:
        pytest.skip("no OpenBLAS thread-count setter and getter in this numpy build")
    setter(2)
    yield
    setter(ambient)


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in OpenBLAS at three threads; returns the list of counts set."""
    count, calls = [3], []

    def setter(threads):
        calls.append(threads)
        count[0] = threads

    monkeypatch.setattr(tensor, "_blas_thread_setter", lambda: setter)
    monkeypatch.setattr(tensor, "_blas_thread_getter", lambda: lambda: count[0])
    return calls


def test_report_bytes_do_not_depend_on_the_thread_count(tmp_path):
    reports, timings = [], []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-c", DIRECT_RUN, json.dumps(THREAD_SENSITIVE_32), str(out)],
            capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
        timings.append(json.loads((out / "timing.json").read_text())["blas_threads"])
    assert reports[0] == reports[1]
    assert timings in ([1, 1], [None, None])


def test_run_computes_on_one_thread_and_restores_the_count(two_blas_threads, monkeypatch):
    seen = []
    original = runner.denoise

    def recording(*args, **kwargs):
        seen.append(tensor.blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "denoise", recording)
    output = execute_run(tiny_harness())
    assert seen == [1, 1]  # the merged denoise and its baseline
    assert output.trace.blas_threads == timing_dict(output.trace)["blas_threads"] == 1
    assert tensor.blas_threads() == 2


def test_run_that_raises_restores_the_count(two_blas_threads, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("denoise failed")

    monkeypatch.setattr(runner, "denoise", failing)
    with pytest.raises(RuntimeError, match="denoise failed"):
        execute_run(tiny_harness())
    assert tensor.blas_threads() == 2


def test_timing_records_the_count_the_run_computed_with(fake_blas):
    output = execute_run(tiny_harness())
    assert fake_blas == [1, 3]
    assert tensor.blas_threads() == 3
    assert timing_dict(output.trace)["blas_threads"] == 1


def test_pin_restores_the_count_when_its_body_raises(fake_blas):
    with pytest.raises(ValueError):
        with tensor.single_blas_thread():
            assert tensor.blas_threads() == 1
            raise ValueError
    assert fake_blas == [1, 3]


def test_numpy_1_ilp64_openblas_names_are_found(monkeypatch):
    # numpy 1.22-1.26 wheels ship an ILP64 OpenBLAS whose symbols end in `64_`
    def getter():
        return 3

    def setter(threads):
        pass

    library = types.SimpleNamespace(openblas_get_num_threads64_=getter,
                                    openblas_set_num_threads64_=setter)
    monkeypatch.setattr(tensor, "_openblas_libraries", lambda: (library,))
    assert tensor._blas_thread_getter.__wrapped__() is getter
    assert tensor._blas_thread_setter.__wrapped__() is setter


def test_pin_is_a_no_op_without_a_setter(monkeypatch):
    monkeypatch.setattr(tensor, "BLAS_THREAD_SETTERS", ("no_such_setter",))
    assert tensor._blas_thread_setter.__wrapped__() is None
    monkeypatch.setattr(tensor, "_blas_thread_setter", lambda: None)
    ambient = tensor.blas_threads()
    with tensor.single_blas_thread():
        assert tensor.blas_threads() == ambient
    assert tensor.blas_threads() == ambient
