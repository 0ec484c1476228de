"""Row-block attention on a caller and a helper thread: same bytes, same errors,
same FLOP counts as the serial loop, and the helper only where it may run."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from test_flops import counted_and_analytic_matmul_flops

import reference_kernels as ref
from tomebench import UNetSpec, init_unet, runner, tensor, unet
from tomebench.config import HarnessConfig, ToMeConfig
from tomebench.metrics import timing_dict
from tomebench.tensor import (DTYPE, FlopCounter, NonFiniteError, count_matmul_flops,
                              single_blas_thread)

CHANNELS, HEADS = 64, 4
DH = CHANNELS // HEADS

# Runs the CLI with the given affinity, or the default one when the argument is "".
CLI_ON_CPUS = """
import os, sys
from tomebench import cli
if sys.argv[1]:
    os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(",")})
sys.exit(cli.main(sys.argv[2:]))
"""

# Row-block attention on the helper, then again in a forked child.
FORK_AFTER_HELPER = """
import os, signal, sys
import numpy as np
from tomebench import UNetSpec, init_unet, unet
from tomebench.tensor import single_blas_thread
unet._usable_cpus = lambda: 2
model = init_unet(UNetSpec(scales=((8, 8, 1),), channels=64, heads=4))
w = model.blocks[0]
x = np.ones((1, 1024, 64), np.float32)
attend = lambda: model._attention(x, x, w.self_q, w.self_k, w.self_v, w.self_o)
with single_blas_thread():
    attend()
    pid = os.fork()
    if pid == 0:
        signal.alarm(60)  # a child stuck waiting for a helper that is gone dies
        attend()
        os._exit(0)
    _, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.fixture(scope="module")
def model():
    return init_unet(UNetSpec(scales=((8, 8, 1),), channels=CHANNELS, heads=HEADS,
                              weight_seed=5))


@pytest.fixture
def pinned():
    """One OpenBLAS thread for the test, as in a run."""
    with single_blas_thread():
        if tensor.blas_threads() != 1:
            pytest.skip("no OpenBLAS thread-count setter and getter in this numpy build")
        yield


def use_cpus(monkeypatch, cpus: int) -> None:
    """Make the process look as if it may run on `cpus` CPUs."""
    monkeypatch.setattr(unet, "_usable_cpus", lambda: cpus)


@pytest.fixture(params=[1, 2], ids=["serial", "helper"])
def threads(request, pinned, monkeypatch):
    """Row-block attention forced onto one thread, or onto the caller and the helper."""
    use_cpus(monkeypatch, request.param)
    assert unet.attention_threads() == request.param
    return request.param


def weights_of(model):
    w = model.blocks[0]
    return w.self_q, w.self_k, w.self_v, w.self_o


def only_head(head: int, wq):
    """`wq` with the columns of every head but `head` zeroed."""
    out = np.zeros_like(wq)
    out[:, head * DH:(head + 1) * DH] = wq[:, head * DH:(head + 1) * DH]
    return out


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("n", [1024, 1030])
def test_row_blocks_equal_the_serial_loop_and_the_reference(model, threads, nprng, batch, n):
    assert n * n > unet.TILE
    weights = weights_of(model)
    q_in = nprng.standard_normal((batch, n, CHANNELS)).astype(DTYPE)
    counter = FlopCounter()
    with count_matmul_flops(counter):
        out = model._attention(q_in, q_in, *weights)
    reference_flops = FlopCounter()
    with count_matmul_flops(reference_flops):
        reference = np.stack([ref.attention(model, q_in[e], q_in[e], *weights)
                              for e in range(batch)])
    assert out.tobytes() == reference.tobytes()
    assert counter.matmul == reference_flops.matmul


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "neg-inf"])
def test_overflowing_logits_in_the_helper_half_raise_the_serial_message(
        model, threads, nprng, sign):
    """Logits of the last pair alone, in the helper's half, overflow to +-inf."""
    _, _, wv, wo = weights_of(model)
    wq = only_head(HEADS - 1, weights_of(model)[0])
    n = 1024
    q_in = nprng.standard_normal((1, n, CHANNELS)).astype(DTYPE)
    q_in[:, -8:] *= DTYPE(1e20)  # finite projections, logits far beyond float32 max
    assert unet.attention_tiles(HEADS, n, n)[-1][0] == slice(HEADS - 1, HEADS)
    with pytest.raises(NonFiniteError, match="^matmul produced non-finite values$"):
        model._attention(q_in, sign * q_in, wq, wq, wv, wo)


def test_a_raising_caller_half_waits_for_the_helper(model, pinned, nprng, monkeypatch):
    """The caller's first tile raises; every helper tile has finished before the
    error leaves `_attention`, and no helper FLOP lands in a later counter."""
    use_cpus(monkeypatch, 2)
    _, _, wv, wo = weights_of(model)
    wq = only_head(0, weights_of(model)[0])
    n = 1024
    q_in = nprng.standard_normal((1, n, CHANNELS)).astype(DTYPE)
    q_in[:, :8] *= DTYPE(1e20)  # rows of the caller's first tile
    helper_tiles = []
    original = unet.softmax_rows

    def slow_in_helper(a, out=None):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.02)
            helper_tiles.append(a.shape)
        return original(a, out=out)

    monkeypatch.setattr(unet, "softmax_rows", slow_in_helper)
    tiles = unet.attention_tiles(HEADS, n, n)
    with pytest.raises(NonFiniteError, match="^matmul produced non-finite values$"):
        model._attention(q_in, q_in, wq, wq, wv, wo)
    assert len(helper_tiles) == len(tiles) - (len(tiles) + 1) // 2
    later = FlopCounter()
    with count_matmul_flops(later):
        time.sleep(0.1)
    assert later.matmul == 0


def test_flop_counter_is_exact_under_two_threads(pinned, monkeypatch):
    """A lost update of the shared counter would show as a short count."""
    spec = UNetSpec(scales=((32, 32, 1), (16, 16, 1)), channels=32, heads=2, prompt_tokens=4,
                    weight_seed=3)
    use_cpus(monkeypatch, 1)
    serial, analytic = counted_and_analytic_matmul_flops(spec, None)
    assert serial == analytic
    use_cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = {counted_and_analytic_matmul_flops(spec, None)[0] for _ in range(20)}
    finally:
        sys.setswitchinterval(interval)
    assert counts == {serial}


@pytest.mark.parametrize("blas, cpus", [(2, 8), (None, 8), (1, 1)])
def test_helper_stays_off(model, nprng, monkeypatch, blas, cpus):
    """More than one BLAS thread, an unknown count, or one CPU: no helper."""
    monkeypatch.setattr(unet, "blas_threads", lambda: blas)
    use_cpus(monkeypatch, cpus)

    def no_helper():
        raise AssertionError("the helper thread was asked for")

    monkeypatch.setattr(unet, "_row_block_helper", no_helper)
    assert unet.attention_threads() == 1
    q_in = nprng.standard_normal((1, 1024, CHANNELS)).astype(DTYPE)
    model._attention(q_in, q_in, *weights_of(model))


def test_whole_pair_tiles_stay_on_the_caller(model, pinned, nprng, monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(unet, "_row_block_helper", lambda: pytest.fail("helper used"))
    q_in = nprng.standard_normal((2, 512, CHANNELS)).astype(DTYPE)
    model._attention(q_in, q_in, *weights_of(model))


@pytest.mark.parametrize("cpus", [1, 2])
def test_timing_records_the_attention_threads(monkeypatch, cpus):
    if tensor._blas_thread_setter() is None or tensor.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count setter and getter in this numpy build")
    use_cpus(monkeypatch, cpus)
    harness = HarnessConfig(latent=(8, 8), channels=16, heads=4, prompt_tokens=4, num_scales=2,
                            steps=1, tome=ToMeConfig(ratio=0.5, min_tokens=1))
    timing = timing_dict(runner.execute_run(harness).trace)
    assert timing["attention_threads"] == cpus
    assert timing["blas_threads"] == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_report_bytes_do_not_depend_on_the_affinity(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    argv = ["run", "--latent", "32x32", "--steps", "2"]
    reports, threads = [], []
    for label, cpus in (("one", str(cpu)), ("default", "")):
        out = tmp_path / label
        proc = subprocess.run([sys.executable, "-c", CLI_ON_CPUS, cpus, *argv, "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
        threads.append(json.loads((out / "timing.json").read_text())["attention_threads"])
    assert reports[0] == reports[1]
    assert threads[0] == 1
    two = len(os.sched_getaffinity(0)) >= 2 and tensor.blas_threads() is not None
    assert threads[1] == (2 if two else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_starts_its_own_helper():
    proc = subprocess.run([sys.executable, "-c", FORK_AFTER_HELPER], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
