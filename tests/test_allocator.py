"""The CLI's allocator setting: steady-state steps stop faulting, bytes do not move."""

import json
import platform
import subprocess
import sys

import pytest

from tomebench import cli

ALL_COMPONENTS_16 = {"latent": "16x16", "steps": "3", "ratio": "0.5",
                     "apply": "self,cross,mlp", "min_tokens": "1", "seed": "3"}

# Runs the configured run without `cli.main`, so glibc keeps its default thresholds.
DIRECT_RUN = """
import json, sys
from tomebench.config import harness_from_mapping
from tomebench.runner import execute_run, write_run_artifacts
harness = harness_from_mapping(json.loads(sys.argv[1]))
write_run_artifacts(execute_run(harness), sys.argv[2])
"""


# Runs the CLI with row-block attention split onto the helper thread, whatever
# the CPU count of the machine.
CLI_WITH_HELPER = """
import sys
from tomebench import cli, unet
unet._usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_keep_freed_heap_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli.keep_freed_heap()


def test_keep_freed_heap_sets_one_arena(monkeypatch):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc)
    cli.keep_freed_heap()
    assert (cli.M_ARENA_MAX, 1) in calls
    assert {param for param, _ in calls} == {cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD,
                                             cli.M_ARENA_MAX}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_steady_state_steps_do_not_fault(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "tomebench", "run", "--latent", "32x32", "--steps", "6",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads((out / "timing.json").read_text())["minor_faults_per_step"]
    assert len(faults) == 6
    assert all(count < 500 for count in faults[2:]), faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_steady_state_steps_do_not_fault_with_the_attention_helper(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-c", CLI_WITH_HELPER, "run", "--latent", "32x32", "--steps", "6",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    timing = json.loads((out / "timing.json").read_text())
    if timing["blas_threads"] is None:
        pytest.skip("no OpenBLAS thread count to read, so no helper thread")
    assert timing["attention_threads"] == 2
    faults = timing["minor_faults_per_step"]
    assert len(faults) == 6
    assert all(count < 500 for count in faults[2:]), faults


def test_report_bytes_do_not_depend_on_the_allocator(tmp_path):
    direct, via_cli = tmp_path / "direct", tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-c", DIRECT_RUN, json.dumps(ALL_COMPONENTS_16), str(direct)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    flags = [arg for key, value in ALL_COMPONENTS_16.items()
             for arg in (f"--{key.replace('_', '-')}", value)]
    proc = subprocess.run(
        [sys.executable, "-m", "tomebench", "run", *flags, "--out", str(via_cli)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (direct / "report.json").read_bytes() == (via_cli / "report.json").read_bytes()
