"""Run configuration: merging policy, harness geometry, config files, digests.

Configuration flows exclusively through CLI flags and a flat key=value config
file (flags win); there are no environment variables. Every run embeds the
fully resolved configuration and its SHA-256 digest in the report, so a report
is reproducible from its own config section.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .partition import PartitionScheme

REPORT_SCHEMA = "tomebench-report/1"

_APPLY_NAMES = ("self", "cross", "mlp")


class ConfigError(ValueError):
    """A configuration field failed to parse or validate."""


@dataclass(frozen=True)
class ToMeConfig:
    """Token-merging policy knobs.

    Defaults follow the best known recipe: merge only in self-attention,
    only in the largest-token blocks (min_tokens=None means "top scale"),
    constant ratio 0.5, one random dst per 2x2 tile, batch-fixed randomness.
    """

    ratio: float = 0.5
    ratio_start: float | None = None
    ratio_end: float | None = None
    partition: PartitionScheme = field(default_factory=lambda: PartitionScheme.rand_tile(2, 2))
    apply_self: bool = True
    apply_cross: bool = False
    apply_mlp: bool = False
    min_tokens: int | None = None
    seed: int = 0
    prune: bool = False
    share_guidance_edges: bool = False

    def __post_init__(self):
        for name in ("ratio", "ratio_start", "ratio_end"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.min_tokens is not None and self.min_tokens < 1:
            raise ConfigError(f"min_tokens must be >= 1, got {self.min_tokens}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not self.enabled_components():
            raise ConfigError("apply must name at least one component of self,cross,mlp")

    def min_tokens_for(self, top_tokens: int) -> int:
        """The block token-count floor; min_tokens=None means the top scale only."""
        return top_tokens if self.min_tokens is None else self.min_tokens

    def schedule_endpoints(self) -> tuple[float, float]:
        """Effective (start, end) ratio: explicit endpoints override `ratio`."""
        start = self.ratio if self.ratio_start is None else self.ratio_start
        end = self.ratio if self.ratio_end is None else self.ratio_end
        return start, end

    def max_ratio(self) -> float:
        return max(self.schedule_endpoints())

    def enabled_components(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, on in zip(_APPLY_NAMES, (self.apply_self, self.apply_cross, self.apply_mlp))
            if on
        )


@dataclass(frozen=True)
class HarnessConfig:
    """Full benchmark run description: model geometry, schedule, policy, output."""

    latent: tuple[int, int] = (32, 32)
    channels: int = 64
    heads: int = 4
    prompt_tokens: int = 8
    num_scales: int = 3
    blocks_per_scale: int = 2
    weight_seed: int = 1234
    steps: int = 50
    guidance_scale: float = 7.5
    tome: ToMeConfig = field(default_factory=ToMeConfig)
    out_dir: str = "runs"
    report_format: str = "json"
    compare_baseline: bool = True
    viz_partition: bool = False

    def __post_init__(self):
        h, w = self.latent
        if h < 1 or w < 1:
            raise ConfigError(f"latent dims must be >= 1, got {h}x{w}")
        div = 2 ** (self.num_scales - 1)
        if self.num_scales < 1:
            raise ConfigError(f"num_scales must be >= 1, got {self.num_scales}")
        if h % div or w % div:
            raise ConfigError(
                f"latent {h}x{w} not divisible by 2^(num_scales-1)={div}; "
                f"shrink num_scales or change latent"
            )
        if self.blocks_per_scale < 1:
            raise ConfigError(f"blocks_per_scale must be >= 1, got {self.blocks_per_scale}")
        if self.channels < 2:
            raise ConfigError(f"channels must be >= 2, got {self.channels}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by heads {self.heads}")
        if self.prompt_tokens < 1:
            raise ConfigError(f"prompt_tokens must be >= 1, got {self.prompt_tokens}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.weight_seed < 2**64:
            raise ConfigError(
                f"weight_seed must be a 64-bit unsigned integer, got {self.weight_seed}"
            )
        if not math.isfinite(self.guidance_scale):
            raise ConfigError(f"guidance_scale must be finite, got {self.guidance_scale}")
        if self.report_format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.report_format!r}")

    def scale_dims(self) -> tuple[tuple[int, int], ...]:
        h, w = self.latent
        return tuple((h >> i, w >> i) for i in range(self.num_scales))


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"field {key!r}: expected a boolean, got {text!r}")


def _parse_hw(text: str, key: str) -> tuple[int, int]:
    try:
        h, w = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"field {key!r}: expected HxW, got {text!r}")
    return h, w


def _parse_apply(text: str) -> tuple[bool, bool, bool]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    for p in parts:
        if p not in _APPLY_NAMES:
            raise ConfigError(f"field 'apply': unknown component {p!r}, expected self,cross,mlp")
    return ("self" in parts, "cross" in parts, "mlp" in parts)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file with # comments into raw strings."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value in {raw!r}")
        mapping[key.replace("-", "_")] = value
    return mapping


_INT_KEYS = {
    "channels", "heads", "prompt_tokens", "num_scales", "blocks_per_scale",
    "weight_seed", "steps", "seed",
}
_FLOAT_KEYS = {"ratio", "ratio_start", "ratio_end", "guidance"}
_BOOL_KEYS = {
    "batch_fix", "prune", "compare_baseline", "viz_partition", "share_guidance_edges",
}
_OTHER_KEYS = {"partition", "apply", "min_tokens", "latent", "out", "format"}


def harness_from_mapping(mapping: dict[str, str], base: HarnessConfig | None = None) -> HarnessConfig:
    """Build a HarnessConfig from raw string settings, starting from `base`.

    Raises ConfigError naming the offending field on any problem.
    """
    cfg = base if base is not None else HarnessConfig()
    tome = cfg.tome
    harness_updates: dict = {}
    tome_updates: dict = {}

    for key, text in mapping.items():
        try:
            if key in _INT_KEYS:
                value = int(text)
                if key == "seed":
                    tome_updates["seed"] = value
                else:
                    harness_updates[key] = value
            elif key in _FLOAT_KEYS:
                value = float(text)
                if key == "guidance":
                    harness_updates["guidance_scale"] = value
                else:
                    tome_updates[key] = value
            elif key in _BOOL_KEYS:
                value = _parse_bool(text, key)
                if key == "batch_fix":
                    tome_updates["partition"] = tome_updates.get(
                        "partition", tome.partition
                    ).with_batch_fix(value)
                elif key in ("prune", "share_guidance_edges"):
                    tome_updates[key] = value
                else:
                    harness_updates[key] = value
            elif key == "partition":
                batch_fix = tome_updates.get("partition", tome.partition).batch_fix
                tome_updates["partition"] = PartitionScheme.parse(text, batch_fix)
            elif key == "apply":
                sf, cr, ml = _parse_apply(text)
                tome_updates.update(apply_self=sf, apply_cross=cr, apply_mlp=ml)
            elif key == "min_tokens":
                tome_updates["min_tokens"] = None if text.strip() == "top" else int(text)
            elif key == "latent":
                harness_updates["latent"] = _parse_hw(text, key)
            elif key == "out":
                harness_updates["out_dir"] = text
            elif key == "format":
                harness_updates["report_format"] = text.strip()
            else:
                raise ConfigError(f"unknown configuration field {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from exc

    if tome_updates:
        try:
            tome = replace(tome, **tome_updates)
        except ConfigError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return replace(cfg, tome=tome, **harness_updates)
    except ConfigError:
        raise


def config_dict(cfg: HarnessConfig) -> dict:
    """Canonical resolved configuration, embedded in every report."""
    tome = cfg.tome
    start, end = tome.schedule_endpoints()
    h, w = cfg.latent
    return {
        "latent": list(cfg.latent),
        "channels": cfg.channels,
        "heads": cfg.heads,
        "prompt_tokens": cfg.prompt_tokens,
        "num_scales": cfg.num_scales,
        "blocks_per_scale": cfg.blocks_per_scale,
        "weight_seed": cfg.weight_seed,
        "steps": cfg.steps,
        "guidance_scale": cfg.guidance_scale,
        "ratio": tome.ratio,
        "ratio_start": start,
        "ratio_end": end,
        "partition": tome.partition.spec_string(),
        "batch_fix": tome.partition.batch_fix,
        "apply": ",".join(tome.enabled_components()),
        "min_tokens": tome.min_tokens_for(h * w),
        "seed": tome.seed,
        "prune": tome.prune,
        "share_guidance_edges": tome.share_guidance_edges,
        "compare_baseline": cfg.compare_baseline,
    }


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
