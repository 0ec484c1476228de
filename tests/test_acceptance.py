"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from tomebench import (
    HarnessConfig,
    RunTrace,
    Schedule,
    ToMeConfig,
    UNetSpec,
    build_merge_plan,
    compare_to_baseline,
    denoise,
    init_unet,
    make_init_noise,
    make_partition,
    ratio_at,
    speedup_estimate,
)
from tomebench.grid import GridShape
from tomebench.merging import apply_unmerge, reduce_tokens
from tomebench.partition import PartitionScheme
from tomebench.rng import StreamRng
from tomebench.runner import execute_run
from tomebench.tensor import DTYPE
from conftest import capture_partitions, dst_fractions, kept_src, linear, pairwise, src_indices
from reference_kernels import brute_force_oracle, edge_set


def _pass(criterion: int, message: str) -> None:
    print(f"\n[acceptance] criterion {criterion:2d}: PASS - {message}")


SCHEMES = (
    PartitionScheme.alternating(),
    PartitionScheme.strided(2, 2),
    PartitionScheme.random(0.25),
    PartitionScheme.rand_tile(2, 2),
)

TOY_SPEC = UNetSpec(scales=((32, 32, 2), (16, 16, 2), (8, 8, 2)), channels=64,
                    heads=4, prompt_tokens=8, weight_seed=1234)


@pytest.fixture(scope="module")
def toy_model():
    return init_unet(TOY_SPEC)


@pytest.fixture(scope="module")
def fifty_step_run(toy_model):
    """One 50-step instrumented run at toy scale, shared by criteria 3, 6, 11.

    Also returns the partitions its blocks drew, in draw order.
    """
    trace = RunTrace()
    schedule = Schedule(50, 0.5, 0.5)
    tome = ToMeConfig(ratio=0.5, seed=0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        partitions = capture_partitions(monkeypatch)
        started = time.perf_counter()
        denoise(toy_model, make_init_noise(TOY_SPEC, 0), schedule, tome, trace=trace)
        elapsed = time.perf_counter() - started
    return trace, schedule, tome, elapsed, partitions


def test_criterion_1_matching_oracle_equivalence():
    started = time.perf_counter()
    nprng = np.random.default_rng(2024)
    cases = 0
    while cases < 1000:
        h = int(nprng.integers(2, 9))
        w = int(nprng.integers(2, 9))
        if h * w > 64:
            continue
        c = int(nprng.integers(1, 9))
        scheme = SCHEMES[cases % len(SCHEMES)]
        x = nprng.standard_normal((h * w, c)).astype(DTYPE)
        if cases % 7 == 0:
            x[nprng.integers(0, h * w)] = x[nprng.integers(0, h * w)]  # force ties
        plan = make_partition(GridShape(1, h, w), scheme, StreamRng(cases), cases % 11, cases % 5)
        src = src_indices(plan, 0).size
        ratio = float(nprng.uniform(0.0, src / (h * w)))
        got = build_merge_plan(x[None], plan, ratio)
        want = brute_force_oracle(x, plan, ratio)
        assert edge_set(got.edges[0]) == edge_set(want.edges)
        assert np.array_equal(got.edges[0], want.edges)
        assert np.array_equal(kept_src(got, plan, 0), want.kept_src)
        assert got.merged_token_count == want.merged_token_count
        cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(1, f"1000 oracle-equal instances in {elapsed:.2f}s (< 10s)")


def _group_mean_oracle(x, grouping):
    """Independent group mean: double-precision scalar loop, ascending index."""
    out = np.empty((grouping.group_sizes.size, x.shape[1]), dtype=DTYPE)
    for row in range(grouping.group_sizes.size):
        members = np.flatnonzero(grouping.group_ids == row)
        acc = np.zeros(x.shape[1], dtype=np.float64)
        for token in members:
            acc = acc + x[token].astype(np.float64)
        out[row] = (acc / np.float64(len(members))).astype(DTYPE)
    return out


def test_criterion_2_merge_unmerge_contract():
    nprng = np.random.default_rng(7)
    for case in range(1000):
        h = int(nprng.integers(2, 7))
        w = int(nprng.integers(2, 7))
        c = int(nprng.integers(1, 6))
        scheme = SCHEMES[case % len(SCHEMES)]
        x = (nprng.standard_normal((h * w, c)) * 10 ** nprng.uniform(-2, 2)).astype(DTYPE)
        plan = make_partition(GridShape(1, h, w), scheme, StreamRng(case))
        src = src_indices(plan, 0).size
        ratio = float(nprng.uniform(0.0, src / (h * w)))
        g = build_merge_plan(x[None], plan, ratio).grouping
        merged = reduce_tokens(x, g)
        out = apply_unmerge(merged, g)

        assert np.array_equal(merged, _group_mean_oracle(x, g))
        for token in range(h * w):
            row = g.group_ids[token]
            if g.group_sizes[row] == 1:
                assert np.array_equal(out[token], x[token])  # untouched positions exact
            else:
                assert np.array_equal(out[token], merged[row])

        # equal group members -> exact round trip, same plan
        x_eq = x.copy()
        for row in range(g.group_sizes.size):
            members = np.flatnonzero(g.group_ids == row)
            x_eq[members] = x_eq[members[0]]
        round_trip = apply_unmerge(reduce_tokens(x_eq, g), g)
        assert np.array_equal(round_trip, x_eq)
    _pass(2, "1000 round trips: unmerged exact, merged == ascending-order group mean, equal groups exact")


def _check_ledger(trace: RunTrace, schedule: Schedule, spec: UNetSpec) -> int:
    checked = 0
    dims = spec.block_dims()
    for record in trace.records:
        if not record.eligible:
            continue
        _, h, w = dims[record.layer]
        expected = h * w - math.floor(ratio_at(schedule, record.step) * h * w)
        assert record.merged_token_count == expected
        checked += 1
    return checked


def test_criterion_3_token_ledger(fifty_step_run, toy_model):
    trace, schedule, _, _, _ = fifty_step_run
    checked = _check_ledger(trace, schedule, toy_model.spec)
    assert checked == 2 * 50  # two top-scale blocks per step

    # a second instrumented run with a decaying schedule and all scales eligible
    small = UNetSpec(scales=((8, 8, 2), (4, 4, 2)), channels=16, heads=4,
                     prompt_tokens=4, weight_seed=7)
    model = init_unet(small)
    sched = Schedule(9, 0.7, 0.3)
    trace2 = RunTrace()
    tome = ToMeConfig(ratio=0.5, ratio_start=0.7, ratio_end=0.3, min_tokens=1, seed=1)
    denoise(model, make_init_noise(small, 1), sched, tome, trace=trace2)
    checked2 = _check_ledger(trace2, sched, small)
    assert checked2 == 4 * 9
    _pass(3, f"merged count == N - floor(r*N) on {checked + checked2} instrumented block evaluations")


def test_criterion_4_flop_scaling():
    harness = HarnessConfig(latent=(16, 16), channels=64, heads=4, prompt_tokens=8,
                            num_scales=2, steps=2, tome=ToMeConfig(ratio=0.5, seed=0),
                            compare_baseline=False)
    report = execute_run(harness).report
    eligible_seen = 0
    for mb, bb in zip(report.flops_merged.per_block, report.flops_baseline.per_block):
        if mb.n_tokens >= 256:  # top scale: eligible under the default policy
            assert pairwise(mb.self_attn) * 4 == pairwise(bb.self_attn)
            assert linear(mb.self_attn) * 2 == linear(bb.self_attn)
            eligible_seen += 1
        else:
            assert mb.to_dict() == bb.to_dict()
    assert eligible_seen == 2

    speedups = []
    for ratio in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        point = HarnessConfig(latent=(8, 8), channels=16, heads=4, prompt_tokens=4,
                              num_scales=2, steps=2, compare_baseline=False,
                              tome=ToMeConfig(ratio=ratio, apply_self=True, apply_cross=True,
                                              apply_mlp=True, min_tokens=1, seed=0))
        speedups.append(speedup_estimate(execute_run(point).report))
    assert speedups[0] == 1.0
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))
    _pass(4, f"pairwise 0.25x / linear 0.5x exact at ratio 0.5; speedup {speedups[0]:.2f} -> {speedups[-1]:.2f} monotone")


def test_criterion_5_partition_statistics():
    for sy, sx in ((1, 2), (2, 1), (2, 2), (2, 4), (4, 2), (4, 4)):
        plan = make_partition(GridShape(1, 8, 8), PartitionScheme.strided(sy, sx), StreamRng(0))
        assert dst_fractions(plan).tolist() == [1.0 / (sy * sx)]
    for seed in range(100):
        plan = make_partition(GridShape(1, 8, 8), PartitionScheme.rand_tile(2, 2), StreamRng(seed))
        field = plan.dst_mask[0].reshape(8, 8)
        for y0 in range(0, 8, 2):
            for x0 in range(0, 8, 2):
                assert field[y0:y0 + 2, x0:x0 + 2].sum() == 1
    _pass(5, "strided dst fractions exact on six stride shapes; rand 2x2 one-per-tile over 100 seeds")


def test_criterion_6_batch_fix_semantics(fifty_step_run, toy_model):
    started = time.perf_counter()
    trace, _, _, fifty_elapsed, partitions = fifty_step_run

    assert len(trace.eligible_records()) == len(partitions) == 2 * 50
    for part in partitions:
        assert part.shape.batch == 2
        assert (part.dst_mask == part.dst_mask[0]).all()  # guidance pair shares every mask

    schedule = Schedule(4, 0.5, 0.5)
    fixed_errs, unfixed_errs = [], []
    for seed in range(20):
        noise = make_init_noise(TOY_SPEC, seed)
        baseline = denoise(toy_model, noise, Schedule(4, 0.0, 0.0), None)
        for fix, acc in ((True, fixed_errs), (False, unfixed_errs)):
            tome = ToMeConfig(ratio=0.5, partition=PartitionScheme.random(0.25, batch_fix=fix),
                              seed=seed)
            out = denoise(toy_model, noise, schedule, tome)
            acc.append(compare_to_baseline(baseline, out).rel_l2)
    fixed_mean = float(np.mean(fixed_errs))
    unfixed_mean = float(np.mean(unfixed_errs))
    assert unfixed_mean > fixed_mean

    elapsed = (time.perf_counter() - started) + fifty_elapsed
    assert elapsed < 300.0
    _pass(6, f"masks identical across 50-step pair; no-fix err {unfixed_mean:.2e} > fix err "
             f"{fixed_mean:.2e} over 20 seeds; {elapsed:.0f}s (< 300s)")


def test_criterion_7_ratio_zero_identity():
    spec = UNetSpec(scales=((16, 16, 2), (8, 8, 2)), channels=64, heads=4,
                    prompt_tokens=8, weight_seed=1234)
    model = init_unet(spec)
    noise = make_init_noise(spec, 5)
    schedule = Schedule(8, 0.0, 0.0)
    plain = denoise(model, noise, schedule, None)
    wrapped = denoise(model, noise, schedule, ToMeConfig(ratio=0.0, seed=5))
    assert np.array_equal(plain.values, wrapped.values)
    _pass(7, "ratio-0 denoise bit-identical to the plain model over 8 steps")


def test_criterion_8_schedule_endpoints():
    rows = ((0.70, 0.30), (0.60, 0.40), (0.50, 0.50), (0.40, 0.60), (0.30, 0.70))
    for start, end in rows:
        schedule = Schedule(50, start, end)
        assert ratio_at(schedule, 0) == start
        assert ratio_at(schedule, 49) == end
    _pass(8, "ratio_at hits start/end exactly for all five schedule rows")


def test_criterion_9_merge_beats_prune():
    spec = UNetSpec(scales=((16, 16, 2), (8, 8, 2), (4, 4, 2)), channels=32, heads=4,
                    prompt_tokens=8, weight_seed=1234)
    model = init_unet(spec)
    schedule = Schedule(4, 0.5, 0.5)
    merge_errs, prune_errs = [], []
    for seed in range(20):
        noise = make_init_noise(spec, seed)
        baseline = denoise(model, noise, Schedule(4, 0.0, 0.0), None)
        for prune, acc in ((False, merge_errs), (True, prune_errs)):
            tome = ToMeConfig(ratio=0.5, seed=seed, prune=prune)
            out = denoise(model, noise, schedule, tome)
            acc.append(compare_to_baseline(baseline, out).rel_l2)
    merge_mean = float(np.mean(merge_errs))
    prune_mean = float(np.mean(prune_errs))
    assert prune_mean > merge_mean
    _pass(9, f"prune err {prune_mean:.2e} > merge err {merge_mean:.2e} over 20 seeds at ratio 0.5")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["run", "--latent", "16x16", "--steps", "5", "--ratio", "0.5",
            "--partition", "rand2x2", "--seed", "7"]
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tomebench", *args, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    digest = json.loads(reports[0])["config_digest"]
    _pass(10, f"two CLI runs byte-identical (config digest {digest[:12]}...)")


def test_criterion_11_single_similarity_per_block(fifty_step_run):
    trace, _, _, _, _ = fifty_step_run
    assert trace.similarity_total == 2 * 50  # two eligible blocks, fifty steps

    small = UNetSpec(scales=((8, 8, 2), (4, 4, 2)), channels=16, heads=4,
                     prompt_tokens=4, weight_seed=7)
    model = init_unet(small)
    for min_tokens, eligible_blocks in ((1, 4), (64, 2), (10_000, 0)):
        trace2 = RunTrace()
        tome = ToMeConfig(ratio=0.5, apply_self=True, apply_cross=True, apply_mlp=True,
                          min_tokens=min_tokens, seed=0)
        denoise(model, make_init_noise(small, 0), Schedule(6, 0.5, 0.5), tome, trace=trace2)
        assert trace2.similarity_total == eligible_blocks * 6
    _pass(11, "similarity computes == eligible blocks x steps across policies")
