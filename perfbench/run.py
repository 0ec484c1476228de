"""tomebench benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload run-default-32 --seed 1 --seconds 20 --trace 0

The benchmark imports the package from `src/` and drives
`tomebench.cli.main(argv)` in this process, exactly as the `tomebench`
command does, timing each invocation from outside. It is single-process; the
program's own threads (the sweep's default pool, OpenBLAS's default threads)
are recorded and left as they are.

- `--trace 0`: set-up probes in fresh processes, one warm-up invocation, then
  invocations until `--seconds` have passed; prints the end-to-end metrics.
- `--trace 1`: after the warm-up, untraced and traced invocations alternate;
  prints the per-layer metrics of the traced invocation with the median wall
  time, and writes its spans to `.perfbench_work/`.

Every operation (one run, or one sweep point) is checked; failures are
counted, not raised. Earlier stdout lines are a readable summary; the last
line is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import TARGETS, Tracer
from workloads import WORKLOADS, Workload, check_invocation, expected_ledger

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Which end-to-end metric each per-layer figure should move, and where.
MOVES = {
    "tensor.softmax_rows": "baseline_step_ms_p50 on run-default-32",
    "tensor.matmul": "wall_s on sweep-16, merged_step_ms_p50 on run-all-32",
    "tensor.layernorm_rows": "wall_s on sweep-16",
    "unet.forward": "wall_s on sweep-16 (self time is U-Net glue)",
    "partition.make_partition": "merged_step_ms_p50 on run-all-32, no baseline_step_ms_*",
    "matching.build_merge_plan": "merged_step_ms_p50 on run-all-32, no baseline_step_ms_*",
    "matching.cosine_similarity": "merged_step_ms_p50 on run-all-32, no baseline_step_ms_*",
    "merging.reduce_tokens": "merged_step_ms_p50 on run-all-32, no baseline_step_ms_*",
    "merging.apply_unmerge": "merged_step_ms_p50 on run-all-32, no baseline_step_ms_*",
    "rng.stream": "merged_step_ms_p50 on run-all-32, no baseline_step_ms_*",
    "matching.similarity_per_block_step": "merged_step_ms_p50 on run-all-32 (1.0 is useful)",
    "runner.execute_run": "wall_s on sweep-16",
    "runner.run_sweep": "wall_s on sweep-16",
    "runner.write_run_artifacts": "wall_s on sweep-16",
    "metrics.aggregate": "wall_s on sweep-16",
    "flops.run_flops": "wall_s on sweep-16",
    "diffusion.denoise": "wall_s on sweep-16",
    "diffusion.compare_to_baseline": "wall_s on sweep-16",
    "runner.baseline_useful_ratio": "wall_s on sweep-16",
    "unet.init_unet": "setup_s on all workloads",
    "config.harness_from_mapping": "setup_s on all workloads",
}

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s",
    "merged_step_ms_p50": "ms", "merged_step_ms_tail": "ms",
    "baseline_step_ms_p50": "ms", "baseline_step_ms_tail": "ms",
    "cpu_s": "s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


# -- statistics ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    That is the 11th largest sample, at percentile 100 * (n - 10) / n. With
    ten samples or fewer no percentile qualifies and the maximum is given.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


# -- environment ----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it is not found."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np
    from tomebench import cli

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        workers = cli.build_parser().parse_args(["sweep"]).workers
    except (AttributeError, SystemExit):
        workers = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "sweep_workers_default": workers,
        "git_commit": commit,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


# -- measurement ------------------------------------------------------------------


def _arg(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


@contextlib.contextmanager
def step_timer(samples: dict):
    """Time every U-Net evaluation (one denoise step) into samples['merged'|'baseline']."""
    from tomebench import unet

    original = unet.UNetModel.forward

    def timed(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - t0
            kind = "baseline" if _arg(args, kwargs, 3, "tome") is None else "merged"
            samples[kind].append(elapsed / 1e6)
            samples["threads"].add(threading.get_ident())

    unet.UNetModel.forward = timed
    try:
        yield samples
    finally:
        unet.UNetModel.forward = original


def measure_setup(workload: Workload, seed: int, work: Path, root: Path, probes: int) -> list[float]:
    """Seconds from process start to the first denoise step, one fresh process each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = workload.argv(seed, work / "probe")
    values = []
    for _ in range(probes):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=150)
        lines = proc.stdout.split()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")
        values.append((int(lines[-1]) - t0) / 1e9)
    return values


class Invoker:
    """Runs CLI invocations of one workload and checks every operation."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from tomebench import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out = work / "out"
        self.references: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, tracer: Tracer | None = None) -> tuple[float, float, int, int]:
        """One invocation: (wall_s, cpu_s, begin_ns, end_ns)."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.workload.argv(self.seed, self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
            with scope:
                cpu0 = time.process_time()
                begin = time.perf_counter_ns()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - a crash fails every operation
                    code = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter_ns()
                cpu = time.process_time() - cpu0
        for problems in check_invocation(self.workload, self.seed, self.out, code,
                                         self.references):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(p for p in problems if p not in self.problems)
        return (end - begin) / 1e9, cpu, begin, end


def _rate(amount: float | None, seconds: float | None, scale: float) -> float:
    if not amount or not seconds:
        return 0.0
    return amount / seconds / scale


def layer_metrics(tracer: Tracer, begin: int, end: int, eligible_block_steps: int) -> dict:
    self_s, untraced = tracer.self_times(begin, end)
    calls = tracer.calls()
    work = tracer.work()
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["tensor.matmul.gflop_per_s"] = (
        _rate(work.get("tensor.matmul"), self_s.get("tensor.matmul"), 1e9), "GFLOP/s")
    m["tensor.softmax_rows.melem_per_s"] = (
        _rate(work.get("tensor.softmax_rows"), self_s.get("tensor.softmax_rows"), 1e6), "Melem/s")
    m["matching.similarity_per_block_step"] = (
        calls.get("matching.cosine_similarity", 0) / eligible_block_steps, "ratio")
    baselines = [key for key in tracer.keys("diffusion.denoise") if key is not None]
    m["runner.baseline_useful_ratio"] = (
        len(set(baselines)) / len(baselines) if baselines else 0.0, "ratio")
    m["untraced.self_s"] = (untraced, "s")
    m["trace.wall_s"] = ((end - begin) / 1e9, "s")
    return m


def _baseline_key(args, kwargs):
    """Identity of an unmerged denoise call: model, start latent, step count, guidance.

    The schedule's ratios are left out: an unmerged run does not read them.
    """
    if _arg(args, kwargs, 3, "tome") is not None:
        return None
    noise = _arg(args, kwargs, 1, "init_noise")
    values = getattr(noise, "values", noise)
    return (repr(getattr(_arg(args, kwargs, 0, "model"), "spec", None)),
            hash(values.tobytes()) if hasattr(values, "tobytes") else None,
            getattr(_arg(args, kwargs, 2, "schedule"), "steps", None),
            _arg(args, kwargs, 4, "guidance_scale"))


def _matmul_flops(args, kwargs) -> float:
    a, b = args[0], args[1]
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def _elements(args, kwargs) -> float:
    return float(args[0].size)


def make_tracer() -> Tracer:
    return Tracer(work={"tensor.matmul": _matmul_flops, "tensor.softmax_rows": _elements},
                  keys={"diffusion.denoise": _baseline_key})


def write_spans(tracer: Tracer, path: Path) -> None:
    import numpy as np

    spans = tracer.span_arrays()
    columns = {k: np.frombuffer(v, dtype=np.int64) for k, v in spans.items() if k != "names"}
    np.savez(path, names=np.array(spans["names"]), **columns)


# -- the benchmark --------------------------------------------------------------------


def bench(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
          setup_probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, summary lines)."""
    if not (root / "src" / "tomebench" / "cli.py").is_file():
        raise BenchError(f"no tomebench sources under {root / 'src'}; run from the repository root")
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    env = environment(root)

    lines = [f"workload {workload.name} seed {seed}: {workload.why}",
             "argv: tomebench " + " ".join(workload.argv(seed, Path("OUT"))),
             "env " + json.dumps(env, sort_keys=True)]
    base = root / ".perfbench_work"
    work = base / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        invoke = Invoker(workload, seed, work)
        eligible = sum(expected_ledger(workload, r)[1] for r, _, _ in workload.points(seed))
        if trace:
            metrics = _bench_traced(invoke, seconds, eligible, base, lines)
        else:
            setup = measure_setup(workload, seed, work, root, setup_probes)
            metrics = _bench_e2e(invoke, seconds, setup, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ratio = invoke.failed / invoke.attempted if invoke.attempted else 1.0
    lines.append(f"failed_ratio {ratio:.4f} ({invoke.failed} of {invoke.attempted} operations; "
                 f"an operation is one {'sweep point' if workload.command == 'sweep' else 'run'})")
    lines.extend(f"check failed: {p}" for p in invoke.problems[:10])
    result = {
        "correct": invoke.attempted > 0 and invoke.failed == 0,
        "attempted": invoke.attempted,
        "failed": invoke.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def _bench_e2e(invoke: Invoker, seconds: float, setup: list[float], lines: list[str]) -> dict:
    samples = {"merged": [], "baseline": [], "threads": set()}
    walls, cpus = [], []
    with step_timer(samples):
        invoke()  # warm-up: first-call costs, reference reports
        samples["merged"].clear()
        samples["baseline"].clear()
        deadline = time.perf_counter() + seconds
        while True:
            wall, cpu, _, _ = invoke()
            walls.append(wall)
            cpus.append(cpu)
            if time.perf_counter() >= deadline:
                break
    if not samples["merged"] or not samples["baseline"]:
        raise BenchError("no merged or no baseline denoise steps were timed")

    series = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus,
              "merged_step_ms": samples["merged"], "baseline_step_ms": samples["baseline"]}
    metrics = {}
    for name, values in series.items():
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        key = f"{name}_p50" if name.endswith("_ms") else name
        metrics[key] = (median, E2E_UNITS[key])
        lines.append(f"{key} {median:.6g} {E2E_UNITS[key]} (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})")
        if name.endswith("_ms"):
            p, value = tail(values)
            metrics[f"{name}_tail"] = (value, "ms")
            lines.append(f"{name}_tail {value:.6g} ms (p{p:.4g} of n {len(values)})")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    lines.append(f"peak_rss_mb {rss_mb:.6g} MB (this process, whole run)")
    lines.append(f"threads that ran the U-Net: {len(samples['threads'])}")

    if invoke.workload.command == "run" and 0 in invoke.references:
        report = json.loads(invoke.references[0])
        flops = report["flops"]
        measured = metrics["baseline_step_ms_p50"][0] / metrics["merged_step_ms_p50"][0]
        lines.append(
            f"analytic flops.speedup_estimate {report['speedup_estimate']:.4f} "
            f"= baseline {flops['baseline_total']} FLOP / merged {flops['merged_total']} FLOP; "
            f"measured diffusion.measured_speedup {measured:.4f} "
            f"= baseline_step_ms_p50 {metrics['baseline_step_ms_p50'][0]:.4g} ms "
            f"/ merged_step_ms_p50 {metrics['merged_step_ms_p50'][0]:.4g} ms (not gated)")
    return {name: metrics[name] for name in E2E_UNITS}


def _bench_traced(invoke: Invoker, seconds: float, eligible: int, base: Path,
                  lines: list[str]) -> dict:
    invoke()  # warm-up
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(invoke()[0])
        tracer = make_tracer()
        _, _, begin, end = invoke(tracer)
        traced.append((layer_metrics(tracer, begin, end, eligible), tracer))
        if time.perf_counter() >= deadline:
            break
    traced.sort(key=lambda item: item[0]["trace.wall_s"][0])
    metrics, tracer = traced[(len(traced) - 1) // 2]
    wall = metrics["trace.wall_s"][0]
    metrics["trace.overhead"] = (wall / statistics.median(untraced), "ratio")

    spans_path = base / f"spans-{invoke.workload.name}-seed{invoke.seed}.npz"
    write_spans(tracer, spans_path)
    covered = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    lines.append(f"traced invocations {len(traced)}, untraced {len(untraced)}; "
                 f"reporting the median traced one, spans in {spans_path}")
    lines.append(f"self times + untraced.self_s = {covered:.6f} s; trace.wall_s = {wall:.6f} s")
    if tracer.absent:
        lines.append("absent wrap targets: " + ", ".join(tracer.absent))
    for name, (value, unit) in metrics.items():
        span = name.rsplit(".", 1)[0]
        moves = MOVES.get(span, MOVES.get(name))
        note = f"  [moves {moves}]" if moves else ""
        lines.append(f"{name} {value:.6g} {unit}{note}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="feeds the run --seed, and the sweep seed list SEED,SEED+1")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, lines = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
