"""Self-test of the benchmark at tiny scale (8x8 grid, 2 steps).

Run from the repository root:

    python3 perfbench/selftest.py

Goes through each workload's path once with tracing off and once with it on,
and checks that every metric BENCHMARK.json names is emitted with its unit,
that the per-layer self times add up to the traced wall time, and that the
tracer keeps per-thread stacks, restores what it wrapped and reports missing
targets as absent. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import types
from dataclasses import replace
from pathlib import Path

from run import E2E_UNITS, WORKLOADS, BenchError, bench
from tracer import Tracer


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_emitted(result: dict, wanted: list[dict], label: str) -> None:
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    expect(set(metrics) == names,
           f"{label}: missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}")
    for m in wanted:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']!r} != {m['unit']!r}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{label}: {m['name']} value {got['value']!r}")


def check_workloads(root: Path, spec: dict) -> None:
    expect([(w["name"], w["why"]) for w in spec["workloads"]]
           == [(w.name, w.why) for w in WORKLOADS.values()],
           "BENCHMARK.json workloads differ from run.py's")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS,
           "BENCHMARK.json end_to_end metrics differ from run.py's")
    for workload in WORKLOADS.values():
        tiny = replace(workload, latent=8, steps=2)
        label = f"{workload.name} (8x8, 2 steps)"
        result, _ = bench(tiny, 5, 0.0, False, root, setup_probes=1)
        expect(result["correct"] and result["attempted"] >= 1, f"{label}: {result}")
        check_emitted(result, spec["end_to_end"], label)

        result, lines = bench(tiny, 5, 0.0, True, root)
        expect(result["correct"], f"{label} traced: {result}")
        check_emitted(result, spec["per_layer"], label + " traced")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        covered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        expect(math.isclose(covered, metrics["trace.wall_s"], rel_tol=1e-9),
               f"{label}: self times sum to {covered}, traced wall is {metrics['trace.wall_s']}")
        expect(not any(line.startswith("absent") for line in lines),
               f"{label}: wrap targets absent at this commit")
        print(f"ok {label}")


def check_tracer() -> None:
    fake = types.ModuleType("perfbench_selftest_fake")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(inner(x))\n",
        fake.__dict__,
    )
    sys.modules[fake.__name__] = fake
    originals = (fake.inner, fake.outer)
    tracer = Tracer(targets=(
        ("fake.outer", fake.__name__, "outer"),
        ("fake.inner", fake.__name__, "inner"),
        ("fake.gone", fake.__name__, "no_such_function"),
        ("fake.nomodule", "perfbench_selftest_no_such_module", "f"),
    ))
    threads_n, calls_n = 4, 300
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.installed():
            expect(fake.outer is not originals[1], "target was not wrapped")

            def worker():
                for i in range(calls_n):
                    fake.outer(i)

            pool = [threading.Thread(target=worker) for _ in range(threads_n)]
            begin = time.perf_counter_ns()
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            end = time.perf_counter_ns()
            expect(not any(t.is_alive() for t in pool), "tracer stress threads did not finish")
    finally:
        sys.setswitchinterval(previous)
        del sys.modules[fake.__name__]
    expect((fake.inner, fake.outer) == originals, "originals were not restored")
    expect(len(tracer.absent) == 2, f"absent targets: {tracer.absent}")
    calls = tracer.calls()
    expect(calls == {"fake.outer": threads_n * calls_n, "fake.inner": 2 * threads_n * calls_n},
           f"calls {calls}")

    spans = tracer.span_arrays()
    outer_id = spans["names"].index("fake.outer")
    rows = {gid: i for i, gid in enumerate(spans["id"])}
    for thread, name, parent, start, end_ns in zip(spans["thread"], spans["name"], spans["parent"],
                                                  spans["start_ns"], spans["end_ns"]):
        if name == outer_id:
            expect(parent == -1, "a root span in a worker thread got a parent")
            continue
        p = rows[parent]
        expect(spans["thread"][p] == thread and spans["name"][p] == outer_id,
               "an inner span's parent is not an outer span of its own thread")
        expect(spans["start_ns"][p] <= start and end_ns <= spans["end_ns"][p],
               "an inner span is not nested in its parent")
    self_s, untraced = tracer.self_times(begin, end)
    expect(math.isclose(sum(self_s.values()) + untraced, (end - begin) / 1e9, rel_tol=1e-9),
           "self times do not add up to the traced interval")
    print("ok tracer (thread-local stacks, restore, absent targets)")


def check_refuses_empty_checkout(root: Path) -> None:
    empty = root / ".perfbench_work" / "selftest-empty"
    empty.mkdir(parents=True, exist_ok=True)
    try:
        bench(WORKLOADS["run-default-32"], 0, 0.0, False, empty)
    except BenchError:
        print("ok refuses a checkout without sources")
        return
    finally:
        empty.rmdir()
    expect(False, "bench ran without sources")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_tracer()
    check_refuses_empty_checkout(root)
    check_workloads(root, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
