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
from typing import Any, Callable

from .partition import PartitionError, PartitionScheme

REPORT_SCHEMA = "tomebench-report/1"

_APPLY_NAMES = ("self", "cross", "mlp")
_MAX_BLOCKS_PER_SCALE = 1024


class ConfigError(ValueError):
    """A configuration value failed to parse or validate.

    `field` is the key as the user writes it (`guidance`, not `guidance_scale`),
    or None for a config-file line that names no key.
    """

    def __init__(self, field: str | None, message: str):
        super().__init__(message if field is None else f"field '{field}': {message}")
        self.field = field


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
                raise ConfigError(name, f"must be in [0, 1), got {value}")
        if self.min_tokens is not None and self.min_tokens < 1:
            raise ConfigError("min_tokens", f"must be >= 1 or top, got {self.min_tokens}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {self.seed}")
        if not self.enabled_components():
            raise ConfigError("apply", "must name at least one component of self,cross,mlp")

    def min_tokens_for(self, top_tokens: int) -> int:
        """The block token-count floor; min_tokens=None means the top scale only."""
        return top_tokens if self.min_tokens is None else self.min_tokens

    def schedule_endpoints(self) -> tuple[float, float]:
        """Effective (start, end) ratio: explicit endpoints override `ratio`."""
        start = self.ratio if self.ratio_start is None else self.ratio_start
        end = self.ratio if self.ratio_end is None else self.ratio_end
        return start, end

    def endpoint_key(self, endpoint: str) -> str:
        """The key that sets the "start" or "end" ratio: the explicit endpoint, else `ratio`."""
        key = f"ratio_{endpoint}"
        return key if getattr(self, key) is not None else "ratio"

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
        if h < 1 or w < 1 or h * w >= 2**63:
            raise ConfigError("latent", f"dims must be >= 1 with h*w < 2^63, got {h}x{w}")
        # Each scale halves the grid, so this bounds 2 ** (num_scales - 1) by min(h, w).
        most = min(h, w).bit_length()
        if not 1 <= self.num_scales <= most:
            raise ConfigError(
                "num_scales", f"must be in [1, {most}] for latent {h}x{w}, got {self.num_scales}"
            )
        div = 2 ** (self.num_scales - 1)
        if h % div or w % div:
            raise ConfigError(
                "latent", f"{h}x{w} not divisible by 2^(num_scales-1)={div}; "
                f"shrink num_scales or change latent"
            )
        # Validation and the model walk every block; the cap keeps both finite.
        if not 1 <= self.blocks_per_scale <= _MAX_BLOCKS_PER_SCALE:
            raise ConfigError("blocks_per_scale", f"must be in [1, {_MAX_BLOCKS_PER_SCALE}], "
                              f"got {self.blocks_per_scale}")
        if self.channels < 2:
            raise ConfigError("channels", f"must be >= 2, got {self.channels}")
        if self.heads < 1:
            raise ConfigError("heads", f"must be >= 1, got {self.heads}")
        if self.channels % self.heads:
            raise ConfigError("channels", f"{self.channels} not divisible by heads {self.heads}")
        if self.prompt_tokens < 1:
            raise ConfigError("prompt_tokens", f"must be >= 1, got {self.prompt_tokens}")
        if self.steps < 1:
            raise ConfigError("steps", f"must be >= 1, got {self.steps}")
        if not 0 <= self.weight_seed < 2**64:
            raise ConfigError(
                "weight_seed", f"must be a 64-bit unsigned integer, got {self.weight_seed}"
            )
        if not math.isfinite(self.guidance_scale):
            raise ConfigError("guidance", f"must be finite, got {self.guidance_scale}")
        if self.report_format not in ("json", "csv"):
            raise ConfigError("format", f"must be json or csv, got {self.report_format!r}")

    def scale_dims(self) -> tuple[tuple[int, int], ...]:
        h, w = self.latent
        return tuple((h >> i, w >> i) for i in range(self.num_scales))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _parse_hw(text: str) -> tuple[int, int]:
    h, w = (int(p) for p in text.lower().split("x"))
    return h, w


def _parse_apply(text: str) -> tuple[bool, ...]:
    parts = {p.strip() for p in text.split(",") if p.strip()}
    if not parts <= set(_APPLY_NAMES):
        raise ValueError(text)
    return tuple(name in parts for name in _APPLY_NAMES)


def _parser(convert: Callable[[str], Any], expected: str) -> Callable[[str, str], Any]:
    """`convert` as a key parser: a ValueError becomes a ConfigError naming the key."""

    def parse(key: str, text: str):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(key, f"expected {expected}, got {text!r}") from None

    return parse


def _parse_partition(key: str, text: str) -> PartitionScheme:
    """`PartitionScheme.parse` as a key parser; its error states the syntax and the reason."""
    try:
        return PartitionScheme.parse(text)
    except PartitionError as err:
        raise ConfigError(key, str(err)) from None


parse_int = _parser(int, "an integer")
parse_float = _parser(float, "a number")
_parse_flag = _parser(_parse_bool, "true or false")

# Every key a config file, a flag or a sweep axis may set, with its parser.
_PARSERS = {
    **dict.fromkeys(("channels", "heads", "prompt_tokens", "num_scales", "blocks_per_scale",
                     "weight_seed", "steps", "seed"), parse_int),
    **dict.fromkeys(("ratio", "ratio_start", "ratio_end", "guidance"), parse_float),
    **dict.fromkeys(("batch_fix", "prune", "compare_baseline", "viz_partition",
                     "share_guidance_edges"), _parse_flag),
    "partition": _parse_partition,
    "apply": _parser(_parse_apply, "a comma list of self,cross,mlp"),
    "min_tokens": _parser(lambda text: None if text.strip() == "top" else int(text),
                          "an integer or top"),
    "latent": _parser(_parse_hw, "HxW"),
    "out": _parser(str, "a directory"),
    "format": _parser(str.strip, "json or csv"),
}
# Keys that set the ToMeConfig field of the same name. `partition` and
# `batch_fix` combine into one scheme, `apply` sets three flags, and every
# other key sets a HarnessConfig field, renamed where _HARNESS_FIELDS says.
_TOME_KEYS = ("ratio", "ratio_start", "ratio_end", "min_tokens", "seed", "prune",
              "share_guidance_edges")
_HARNESS_FIELDS = {"guidance": "guidance_scale", "out": "out_dir", "format": "report_format"}


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file with # comments into raw strings.

    A file that cannot be read as UTF-8 text is a ConfigError naming `config`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(None, f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if not key or not value:
            raise ConfigError(key or None, f"{path}:{lineno}: empty key or value in {raw!r}")
        mapping[key] = value
    return mapping


def harness_from_mapping(mapping: dict[str, str], base: HarnessConfig | None = None) -> HarnessConfig:
    """Build a HarnessConfig from raw string settings, starting from `base`.

    The one parser of user-supplied values: config-file lines, flags and
    sweep-axis items all come through here. Raises ConfigError naming the
    offending key on any problem.
    """
    cfg = base if base is not None else HarnessConfig()
    values = {}
    for key, text in mapping.items():
        if key not in _PARSERS:
            raise ConfigError(key, "unknown configuration field")
        values[key] = _PARSERS[key](key, text)

    tome_updates = {key: values.pop(key) for key in _TOME_KEYS if key in values}
    if "apply" in values:
        tome_updates.update(zip(("apply_self", "apply_cross", "apply_mlp"), values.pop("apply")))
    if "partition" in values or "batch_fix" in values:
        scheme = values.pop("partition", cfg.tome.partition)
        batch_fix = values.pop("batch_fix", cfg.tome.partition.batch_fix)
        tome_updates["partition"] = replace(scheme, batch_fix=batch_fix)
    tome = replace(cfg.tome, **tome_updates)
    return replace(cfg, tome=tome, **{_HARNESS_FIELDS.get(k, k): v for k, v in values.items()})


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
