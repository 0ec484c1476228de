"""The benchmark's workloads and the output checks run on every operation.

An operation is one `tomebench run` or one point of a `tomebench sweep`. The
checks re-derive what they expect from the workload definition alone; none of
them calls the package's flops, metrics or config code.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Geometry the CLI uses when no config file says otherwise.
NUM_SCALES = 3
BLOCKS_PER_SCALE = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    latent: int  # side of the square top-scale grid
    steps: int
    ratio_arg: str  # the --ratio flag as passed
    ratios: tuple[float, ...]  # the ratios that flag stands for
    partitions: tuple[str, ...]
    apply: str | None  # --apply, None keeps the default (self only)
    min_tokens: int | None  # --min-tokens, None keeps the default (top scale only)
    why: str

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--latent", f"{self.latent}x{self.latent}",
                "--steps", str(self.steps), "--ratio", self.ratio_arg,
                "--out", str(out)]
        if self.command == "sweep":
            argv += ["--partition", ",".join(self.partitions), "--seed", f"{seed},{seed + 1}"]
        else:
            argv += ["--seed", str(seed)]
        if self.apply is not None:
            argv += ["--apply", self.apply]
        if self.min_tokens is not None:
            argv += ["--min-tokens", str(self.min_tokens)]
        return argv

    def points(self, seed: int) -> list[tuple[float, str, int]]:
        """(ratio, partition, seed) of every operation one invocation performs."""
        if self.command == "run":
            return [(self.ratios[0], self.partitions[0], seed)]
        return [(r, p, s) for r in self.ratios for p in self.partitions for s in (seed, seed + 1)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-default-32", "run", 32, 10, "0.5", (0.5,), ("rand2x2",), None, None,
            "paper recipe on the default 32x32 model: the n=1024 unmerged baseline "
            "dominates, so large-attention kernels show and the ~3% merge path does not",
        ),
        Workload(
            "run-all-32", "run", 32, 10, "0.5", (0.5,), ("rand2x2",), "self,cross,mlp", 1,
            "merging in every component of every block down to 8x8: the workload a "
            "merge-path change must move, with its baseline steps as the bypassed control",
        ),
        Workload(
            "sweep-16", "sweep", 16, 2, "0.1:0.6:0.1",
            (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), ("rand2x2", "strided:2x2"), None, None,
            "24 small 16x16 runs in the default thread pool: per-call overhead, runner "
            "glue, repeated baselines and strided masks, not large-n BLAS",
        ),
    )
}


def expected_ledger(workload: Workload, ratio: float) -> tuple[int, int]:
    """(merged-token total, eligible block-steps) of one merged run.

    Follows the documented rule: at step s the ratio is interpolated between
    the schedule endpoints, and every block with N >= min_tokens evaluates
    N - floor(ratio * N) tokens.
    """
    top = workload.latent * workload.latent
    floor_tokens = top if workload.min_tokens is None else workload.min_tokens
    merged = eligible = 0
    for step in range(workload.steps):
        if workload.steps == 1:
            r = ratio
        else:
            t = step / (workload.steps - 1)
            r = ratio * (1.0 - t) + ratio * t
        for scale in range(NUM_SCALES):
            n = (workload.latent >> scale) ** 2
            if r > 0.0 and n >= floor_tokens:
                merged += BLOCKS_PER_SCALE * (n - math.floor(r * n))
                eligible += BLOCKS_PER_SCALE
    return merged, eligible


def _check_report(data: bytes, workload: Workload, want: tuple[float, str, int],
                  reference: bytes | None) -> list[str]:
    problems = []
    if reference is not None and data != reference:
        problems.append("report.json differs from the first repeat")
    report = json.loads(data)
    merged, _ = expected_ledger(workload, want[0])
    if report["tokens"]["merged_eval_total"] != merged:
        problems.append(f"merged_eval_total {report['tokens']['merged_eval_total']} != {merged}")
    rel_l2 = (report.get("errors") or {}).get("rel_l2")
    if not (isinstance(rel_l2, float) and math.isfinite(rel_l2) and rel_l2 > 0.0):
        problems.append(f"errors.rel_l2 {rel_l2!r} is not finite and > 0")
    return problems


def check_invocation(workload: Workload, seed: int, out: Path, exit_code,
                     references: dict[int, bytes]) -> list[list[str]]:
    """Problems found per operation of one invocation; an empty list means it passed.

    `references` holds the first report bytes seen per operation index for this
    (workload, seed) and is filled in here.
    """
    points = workload.points(seed)
    if exit_code != 0:
        return [[f"exit code {exit_code}"]] * len(points)
    if workload.command == "run":
        dirs = [out]
    else:
        try:
            with open(out / "sweep.csv", newline="") as f:
                rows = list(csv.DictReader(f))
        except OSError as exc:
            return [[f"sweep.csv unreadable: {exc}"]] * len(points)
        if len(rows) != len(points):
            return [[f"sweep.csv has {len(rows)} rows for {len(points)} points"]] * len(points)
        dirs = [out / f"point_{i:03d}" for i in range(len(points))]

    # Points are matched to reports by their config, not by sweep order.
    pending = {(round(r, 9), p, s): (r, p, s) for r, p, s in points}
    results = []
    for i, point_dir in enumerate(dirs):
        try:
            data = (point_dir / "report.json").read_bytes()
            cfg = json.loads(data)["config"]
            want = pending.pop((round(cfg["ratio"], 9), cfg["partition"], cfg["seed"]), None)
            if want is None:
                results.append([f"{point_dir.name}: unexpected or repeated point"])
                continue
            problems = _check_report(data, workload, want, references.get(i))
            references.setdefault(i, data)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"{point_dir.name}: unreadable report: {exc!r}"]
        results.append(problems)
    return results
