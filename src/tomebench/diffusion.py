"""Toy denoising loop with classifier-free-guidance-style paired batches.

Each step evaluates the U-Net once on a batch of two copies of the current
latent grid: element 0 conditioned on the model's prompt embedding, element 1
on a zero prompt. The two predictions are combined with a guidance scale and
the latent is updated with a fixed linear-decay rule. The sampler is
deliberately simple; its only job is to iterate the model deterministically
so the merging machinery can be measured end to end.

The token-reduction ratio is linearly interpolated between schedule endpoints
across steps, and the same latent update is used with or without merging, so
a ratio-0 run is bit-identical to running the plain model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import HarnessConfig, ToMeConfig
from .grid import GridShape, TokenGrid
from .rng import StreamRng
from .tensor import DTYPE, ShapeError
from .unet import RunTrace, UNetModel, UNetSpec

BASE_ALPHA = 0.1
DEFAULT_GUIDANCE_SCALE = 7.5


class ScheduleRangeError(IndexError):
    """Step outside [0, steps)."""


@dataclass(frozen=True)
class Schedule:
    """Linear token-reduction schedule across diffusion steps."""

    steps: int
    ratio_start: float
    ratio_end: float

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        for name in ("ratio_start", "ratio_end"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


def ratio_at(schedule: Schedule, step: int) -> float:
    """Ratio at `step`, exactly ratio_start at step 0 and ratio_end at the last step."""
    if not 0 <= step < schedule.steps:
        raise ScheduleRangeError(f"step {step} outside [0, {schedule.steps})")
    if schedule.steps == 1:
        return schedule.ratio_start
    t = step / (schedule.steps - 1)
    return schedule.ratio_start * (1.0 - t) + schedule.ratio_end * t


def build_schedule(harness: HarnessConfig) -> Schedule:
    """The run's schedule: the one source of every step's ratio."""
    return Schedule(harness.steps, *harness.tome.schedule_endpoints())


def make_init_noise(spec: UNetSpec, seed: int) -> TokenGrid:
    """Standard-normal starting latent for the top-scale grid, batch 1."""
    h, w, _ = spec.scales[0]
    gen = StreamRng(seed).stream("init_noise")
    values = gen.standard_normal((1, h * w, spec.channels)).astype(DTYPE)
    return TokenGrid(GridShape(1, h, w), values)


def denoise(
    model: UNetModel,
    init_noise: TokenGrid,
    schedule: Schedule,
    tome: ToMeConfig | None = None,
    guidance_scale: float = DEFAULT_GUIDANCE_SCALE,
    trace: RunTrace | None = None,
) -> TokenGrid:
    """Iterate the model over the schedule; returns the final latent grid."""
    top_h, top_w, _ = model.spec.scales[0]
    if (init_noise.shape.height, init_noise.shape.width) != (top_h, top_w):
        raise ShapeError(
            f"init noise must match the top scale {top_h}x{top_w}, "
            f"got {init_noise.shape.height}x{init_noise.shape.width}"
        )
    if init_noise.shape.batch != 1:
        raise ShapeError("denoise drives a single latent; init noise batch must be 1")

    prompts = np.stack([model.prompt_embedding, np.zeros_like(model.prompt_embedding)])
    pair_shape = GridShape(2, top_h, top_w)

    x = init_noise.values
    for step in range(schedule.steps):
        t0 = time.perf_counter()
        ratio = ratio_at(schedule, step)
        stacked = TokenGrid(pair_shape, np.concatenate([x, x], axis=0))
        pred = model.forward(stacked, prompts, tome=tome, ratio=ratio, step=step, trace=trace)
        cond, uncond = pred.values[:1], pred.values[1:]
        alpha = DTYPE(BASE_ALPHA * (1.0 - step / schedule.steps))
        x = x - alpha * (uncond + DTYPE(guidance_scale) * (cond - uncond))
        if trace is not None:
            trace.step_times.append(time.perf_counter() - t0)
    return TokenGrid(init_noise.shape, x)


@dataclass(frozen=True)
class ErrorMetrics:
    """Desk-scale fidelity metrics of a run against its baseline."""

    rel_l2: float
    max_abs: float
    mean_shift: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "rel_l2": self.rel_l2,
            "max_abs": self.max_abs,
            "mean_shift": list(self.mean_shift),
        }


def compare_to_baseline(a, b) -> ErrorMetrics:
    """Error of `b` relative to baseline `a`: relative L2, max abs, per-channel mean shift."""
    va = a.values if isinstance(a, TokenGrid) else np.asarray(a)
    vb = b.values if isinstance(b, TokenGrid) else np.asarray(b)
    if va.shape != vb.shape:
        raise ShapeError(f"shape mismatch: {va.shape} vs {vb.shape}")
    va64 = va.astype(np.float64)
    diff = vb.astype(np.float64) - va64
    denom = float(np.linalg.norm(va64.reshape(-1)))
    dist = float(np.linalg.norm(diff.reshape(-1)))
    if denom == 0.0:
        rel = 0.0 if dist == 0.0 else float("inf")
    else:
        rel = dist / denom
    mean_shift = tuple(float(v) for v in diff.reshape(-1, diff.shape[-1]).mean(axis=0))
    return ErrorMetrics(rel_l2=rel, max_abs=float(np.abs(diff).max()), mean_shift=mean_shift)
