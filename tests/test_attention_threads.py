"""Large attention, layernorm and MLP calls on a caller and a helper thread: same
bytes, same errors, same FLOP counts as the serial loop, and the helper only
where it may run and the call is large."""

import dataclasses
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
from tomebench.partition import PartitionScheme
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

# Split attention on the helper, then again in a forked child.
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

# A large split asked for on the helper thread itself.
SPLIT_ON_THE_HELPER = """
import os
from concurrent.futures import TimeoutError
from tomebench import unet
from tomebench.tensor import single_blas_thread
unet._usable_cpus = lambda: 2
ran = []
with single_blas_thread():
    nested = lambda: unet._in_two_halves(2, lambda lo, hi: ran.append((lo, hi)))
    done = unet._helper_thread().submit(nested)
    try:
        done.result(timeout=10)
    except TimeoutError:
        os._exit(3)
print(ran)
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


class CountingHelper:
    """The helper thread, counting the work submitted to it."""

    def __init__(self):
        self.pool = unet._helper_thread()
        self.submits = 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


@pytest.fixture(params=[1, 2], ids=["serial", "helper"])
def threads(request, pinned, monkeypatch):
    """Large calls forced onto one thread, or onto the caller and the helper.

    Returns the counting helper; it counts submits only under "helper".
    """
    use_cpus(monkeypatch, request.param)
    assert unet.attention_threads() == request.param
    helper = CountingHelper()
    monkeypatch.setattr(unet, "_helper_thread", lambda: helper)
    return helper


def no_helper():
    raise AssertionError("the helper thread was asked for")


def weights_of(model):
    w = model.blocks[0]
    return w.self_q, w.self_k, w.self_v, w.self_o


def only_head(head: int, wq):
    """`wq` with the columns of every head but `head` zeroed."""
    out = np.zeros_like(wq)
    out[:, head * DH:(head + 1) * DH] = wq[:, head * DH:(head + 1) * DH]
    return out


def assert_split_attention_equals_the_reference(model, helper, q_in):
    """Bytes and FLOPs of `_attention` equal the per-head reference; the call split
    exactly when two threads are available."""
    weights = weights_of(model)
    counter = FlopCounter()
    with count_matmul_flops(counter):
        out = model._attention(q_in, q_in, *weights)
    reference_flops = FlopCounter()
    with count_matmul_flops(reference_flops):
        reference = np.stack([ref.attention(model, q_in[e], q_in[e], *weights)
                              for e in range(q_in.shape[0])])
    assert out.tobytes() == reference.tobytes()
    assert counter.matmul == reference_flops.matmul
    assert helper.submits == (unet.attention_threads() == 2)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("n", [1024, 1030])
def test_row_blocks_equal_the_serial_loop_and_the_reference(model, threads, nprng, batch, n):
    assert n * n > unet.TILE
    q_in = nprng.standard_normal((batch, n, CHANNELS)).astype(DTYPE)
    assert_split_attention_equals_the_reference(model, threads, q_in)


@pytest.mark.parametrize("batch", [1, 2])
def test_whole_pair_tiles_of_a_merged_32x32_step_split_with_the_same_bytes(
        model, threads, nprng, batch):
    """The merged 512-token self-attention: one whole pair per tile, 4 or 8 tiles."""
    n = 512
    assert unet.attention_tiles(HEADS * batch, n, n) == [
        (slice(g, g + 1), slice(0, n)) for g in range(HEADS * batch)]
    assert HEADS * batch * n * n >= unet.SPLIT_LOGITS
    q_in = nprng.standard_normal((batch, n, CHANNELS)).astype(DTYPE)
    assert_split_attention_equals_the_reference(model, threads, q_in)


@pytest.mark.parametrize("rows", [2048, 2049, 4097])
def test_split_layernorm_and_mlp_equal_the_serial_loop_and_the_reference(
        model, threads, nprng, rows):
    """2048 rows: the stacked 32x32 guidance pair; an odd count splits unevenly."""
    assert rows * CHANNELS >= unet.SPLIT_ROW_ELEMENTS
    w = model.blocks[0]
    x = nprng.standard_normal((rows, CHANNELS)).astype(DTYPE)
    normed = unet._layernorm(x)
    assert normed.tobytes() == tensor.layernorm_rows(x).tobytes()
    assert normed.tobytes() == ref.layernorm_rows(x).tobytes()
    counter, reference_flops = FlopCounter(), FlopCounter()
    with count_matmul_flops(counter):
        out = model._mlp(x.reshape(2, -1, CHANNELS) if rows % 2 == 0 else x, w)
    with count_matmul_flops(reference_flops):
        reference = ref.mlp(model, x, w)
    assert out.tobytes() == reference.tobytes()
    assert counter.matmul == reference_flops.matmul
    assert threads.submits == 2 * (unet.attention_threads() == 2)


@pytest.mark.parametrize("failing", ["caller", "helper", "both"])
def test_a_failing_half_raises_the_serial_error_after_the_helper_finished(
        pinned, monkeypatch, failing):
    use_cpus(monkeypatch, 2)
    helper_done = threading.Event()

    def run(lo, hi):
        on_helper = lo > 0
        try:
            if on_helper:
                time.sleep(0.05)
            if failing in ("both", "helper" if on_helper else "caller"):
                raise ValueError("helper" if on_helper else "caller")
        finally:
            if on_helper:
                helper_done.set()

    with pytest.raises(ValueError) as raised:
        unet._in_two_halves(4, run)
    assert helper_done.is_set()
    assert str(raised.value) == ("helper" if failing == "helper" else "caller")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad_rows", [[0], [-1], [0, -1]], ids=["caller", "helper", "both"])
def test_non_finite_rows_in_either_half_raise_the_serial_message(
        model, threads, nprng, bad_rows):
    x = nprng.standard_normal((2048, CHANNELS)).astype(DTYPE)
    x[bad_rows] = np.inf
    with pytest.raises(NonFiniteError, match="^layernorm_rows produced non-finite values$"):
        unet._layernorm(x)
    x[bad_rows] = DTYPE(1e37)  # finite rows whose first MLP product overflows
    w = dataclasses.replace(model.blocks[0], mlp_in=np.ones((CHANNELS, 4 * CHANNELS), DTYPE))
    with pytest.raises(NonFiniteError, match="^matmul produced non-finite values$"):
        model._mlp(x, w)


def test_no_split_is_entered_from_the_helper():
    """The one helper waiting on work queued behind itself would never finish; a
    subprocess, since a deadlocked helper would also hang this process's exit."""
    proc = subprocess.run([sys.executable, "-c", SPLIT_ON_THE_HELPER], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[(0, 2)]\n"


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


def matmul_checks(monkeypatch):
    """Record (b's shape, check) of every `unet.matmul` call."""
    calls = []
    original = unet.matmul

    def recorded(a, b, check=True, out=None):
        calls.append((np.shape(b), check))
        return original(a, b, check=check, out=out)

    monkeypatch.setattr(unet, "matmul", recorded)
    return calls


def test_bounded_values_skip_the_finite_check(model, pinned, nprng, monkeypatch):
    calls = matmul_checks(monkeypatch)
    q_in = nprng.standard_normal((1, 64, CHANNELS)).astype(DTYPE)
    model._attention(q_in, q_in, *weights_of(model))
    assert ((HEADS, 64, DH), False) in calls  # probabilities times values


@pytest.mark.parametrize("m", [6, 10])
def test_values_near_float32_max_are_checked_and_an_overflow_raises(
        model, pinned, monkeypatch, m):
    """Equal logits over m keys give probabilities whose float32 sum exceeds 1, so
    values of float32 max overflow; their bound is not below float32 max."""
    calls = matmul_checks(monkeypatch)
    kv_in = np.ones((1, m, CHANNELS), DTYPE)
    wv = np.full((CHANNELS, CHANNELS), unet.FLOAT32_MAX / CHANNELS, DTYPE)  # v = float32 max
    wk = np.zeros((CHANNELS, CHANNELS), DTYPE)  # logits 0
    wq, _, _, wo = weights_of(model)
    q_in = np.ones((1, 4, CHANNELS), DTYPE)
    with pytest.raises(NonFiniteError, match="^matmul produced non-finite values$"):
        model._attention(q_in, kv_in, wq, wk, wv, wo)
    assert calls[-1] == ((HEADS, m, DH), True)  # the product raised, before the output matmul


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
    """A lost update of the shared counter would show as a short count.

    The batch-2 forward's top scale splits its attention, layernorm and MLP calls.
    """
    spec = UNetSpec(scales=((32, 32, 1), (16, 16, 1)), channels=CHANNELS, heads=HEADS,
                    prompt_tokens=4, weight_seed=3)
    assert 2 * 32 * 32 * CHANNELS >= unet.SPLIT_ROW_ELEMENTS
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
    monkeypatch.setattr(unet, "_helper_thread", no_helper)
    assert unet.attention_threads() == 1
    q_in = nprng.standard_normal((1, 1024, CHANNELS)).astype(DTYPE)
    model._attention(q_in, q_in, *weights_of(model))
    rows = q_in.reshape(-1, CHANNELS)
    unet._layernorm(np.concatenate([rows, rows]))
    model._mlp(np.concatenate([rows, rows]), model.blocks[0])


@pytest.mark.parametrize("partition", ["rand2x2", "strided:2x2"])
def test_sweep_16_calls_stay_on_the_caller(pinned, monkeypatch, partition):
    """Every ratio of the 16x16 sweep, its batch-1 shared latent, batch-2 steps and
    baseline: no attention, layernorm or MLP call is large enough to split."""
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(unet, "_helper_thread", no_helper)
    assert unet.attention_threads() == 2
    for ratio in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        harness = HarnessConfig(latent=(16, 16), steps=2, tome=ToMeConfig(
            ratio=ratio, partition=PartitionScheme.parse(partition)))
        runner.execute_run(harness)


def test_a_32x32_run_splits_attention_layernorm_and_mlp(pinned, monkeypatch):
    """The control of the test above: the top scale of a 32x32 run does split."""
    use_cpus(monkeypatch, 2)
    on_helper = set()

    def recording(name):
        kernel = getattr(unet, name)

        def recorded(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                on_helper.add(name)
            return kernel(*args, **kwargs)
        return recorded

    for name in ("softmax_rows", "layernorm_rows", "_gelu"):
        monkeypatch.setattr(unet, name, recording(name))
    runner.execute_run(HarnessConfig(latent=(32, 32), steps=1, tome=ToMeConfig(ratio=0.5)))
    assert on_helper == {"softmax_rows", "layernorm_rows", "_gelu"}


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
