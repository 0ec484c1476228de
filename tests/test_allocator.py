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


def test_keep_freed_heap_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli.keep_freed_heap()


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
