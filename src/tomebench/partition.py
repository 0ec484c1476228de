"""Split a token grid into src and dst sets.

Four schemes are supported:

- alternating: dst tokens at odd flat indices. On even widths this puts dst
  in regular columns, which is exactly the failure mode the other schemes
  exist to avoid; it is kept as the reference behavior.
- strided(sy, sx): dst at positions with y % sy == 0 and x % sx == 0,
  anchored at (0, 0), giving a dst fraction of 1/(sy*sx) up to edge effects.
- random(f): exactly round(f * N) dst tokens drawn without replacement.
- rand_tile(ty, tx): the grid is tiled into ty x tx regions (edge tiles may
  be smaller) and one dst token is drawn uniformly in each tile.

`PARTITION_SYNTAX` states the spec strings that name them. `spec_string`
writes one, and `parse` with the same `batch_fix` reads it back to the scheme
that wrote it, so a report's `partition` re-runs the scheme that ran.

For the random schemes, `batch_fix` (default on) draws the randomness once
per (step, layer) and reuses it for every batch element. This keeps paired
guidance batches aligned: both elements always get the same dst mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridShape
from .rng import StreamRng

_KINDS = ("alternating", "strided", "random", "rand_tile")
PARTITION_SYNTAX = "alt | strided:SYxSX | rand:F with 0 < F < 1 | rand2x2 | randtile:TYxTX"


class PartitionError(ValueError):
    """The scheme cannot produce a valid partition for this grid."""


@dataclass(frozen=True)
class PartitionScheme:
    kind: str
    y: int = 2  # strided: the strides sy, sx; rand_tile: the tile dims ty, tx
    x: int = 2
    dst_frac: float = 0.25
    batch_fix: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PartitionError(f"unknown partition kind {self.kind!r}")
        if self.kind == "strided" and (self.y < 1 or self.x < 1):
            raise PartitionError(f"strides must be >= 1, got {self.y}x{self.x}")
        if self.kind == "rand_tile" and (self.y < 1 or self.x < 1):
            raise PartitionError(f"tile dims must be >= 1, got {self.y}x{self.x}")
        if self.kind == "random" and not 0.0 < self.dst_frac < 1.0:
            raise PartitionError(f"dst fraction must be in (0, 1), got {self.dst_frac}")

    @classmethod
    def alternating(cls, batch_fix: bool = True) -> "PartitionScheme":
        return cls("alternating", batch_fix=batch_fix)

    @classmethod
    def strided(cls, sy: int, sx: int, batch_fix: bool = True) -> "PartitionScheme":
        return cls("strided", y=sy, x=sx, batch_fix=batch_fix)

    @classmethod
    def random(cls, dst_frac: float, batch_fix: bool = True) -> "PartitionScheme":
        return cls("random", dst_frac=dst_frac, batch_fix=batch_fix)

    @classmethod
    def rand_tile(cls, ty: int, tx: int, batch_fix: bool = True) -> "PartitionScheme":
        return cls("rand_tile", y=ty, x=tx, batch_fix=batch_fix)

    @property
    def draws_per_element(self) -> bool:
        """Whether each batch element gets its own random draw, so masks can differ."""
        return self.kind in ("random", "rand_tile") and not self.batch_fix

    def spec_string(self) -> str:
        """The scheme in `PARTITION_SYNTAX`, which `parse` reads back to this scheme."""
        if self.kind == "alternating":
            return "alt"
        if self.kind == "strided":
            return f"strided:{self.y}x{self.x}"
        if self.kind == "random":
            return f"rand:{self.dst_frac!r}"
        if self.y == 2 and self.x == 2:
            return "rand2x2"
        return f"randtile:{self.y}x{self.x}"

    @classmethod
    def parse(cls, text: str, batch_fix: bool = True) -> "PartitionScheme":
        """The scheme `text` names in `PARTITION_SYNTAX`; undoes `spec_string` exactly.

        The error quotes `text` and states the syntax, plus the reason when
        the syntax holds but a value is out of range.
        """
        name, colon, arg = text.strip().partition(":")
        reason = ""
        try:
            if name == "alt" and not colon:
                return cls.alternating(batch_fix)
            if name == "rand2x2" and not colon:
                return cls.rand_tile(2, 2, batch_fix)
            if name == "rand" and colon:
                return cls.random(float(arg), batch_fix)
            if name in ("strided", "randtile") and colon:
                a, b = (int(p) for p in arg.split("x"))
                return (cls.strided if name == "strided" else cls.rand_tile)(a, b, batch_fix)
        except PartitionError as err:
            reason = f" ({err})"
        except ValueError:
            pass
        raise PartitionError(f"bad partition {text!r}{reason}, expected {PARTITION_SYNTAX}")


@dataclass(frozen=True)
class PartitionPlan:
    """Per-batch-element dst mask over the tokens of a grid."""

    shape: GridShape
    dst_mask: np.ndarray  # (batch, tokens) bool, True = dst

    def __post_init__(self):
        mask = np.asarray(self.dst_mask, dtype=bool)
        mask = mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "dst_mask", mask)

    def prefix(self, batch: int) -> "PartitionPlan":
        """The plan of the first `batch` elements, as `make_partition` draws it for that batch."""
        return PartitionPlan(replace(self.shape, batch=batch), self.dst_mask[:batch])


def expected_dst_count(shape: GridShape, scheme: PartitionScheme) -> int:
    """Analytic dst-set size, used for capacity validation and reporting."""
    n = shape.tokens
    if scheme.kind == "alternating":
        return n // 2
    if scheme.kind == "random":
        return round(scheme.dst_frac * n)
    return math.ceil(shape.height / scheme.y) * math.ceil(shape.width / scheme.x)


def _alternating_mask(shape: GridShape) -> np.ndarray:
    return (np.arange(shape.tokens) % 2) == 1


def _strided_mask(shape: GridShape, scheme: PartitionScheme) -> np.ndarray:
    ys = np.arange(shape.height) % scheme.y == 0
    xs = np.arange(shape.width) % scheme.x == 0
    return np.outer(ys, xs).reshape(-1)


def _random_mask(shape: GridShape, scheme: PartitionScheme, gen: np.random.Generator) -> np.ndarray:
    n = shape.tokens
    k = round(scheme.dst_frac * n)
    mask = np.zeros(n, dtype=bool)
    mask[gen.choice(n, size=k, replace=False)] = True
    return mask


def _rand_tile_mask(shape: GridShape, scheme: PartitionScheme, gen: np.random.Generator) -> np.ndarray:
    # Tiles in row-major order; edge tiles are clipped to the grid. One
    # `integers` call with an array of bounds consumes the stream exactly like
    # one scalar call per tile in that order.
    y0 = np.arange(0, shape.height, scheme.y)[:, None]
    x0 = np.arange(0, shape.width, scheme.x)[None, :]
    th = np.minimum(scheme.y, shape.height - y0)
    tw = np.minimum(scheme.x, shape.width - x0)
    pick = gen.integers(th * tw)
    y, x = y0 + pick // tw, x0 + pick % tw
    mask = np.zeros(shape.tokens, dtype=bool)
    mask[(y * shape.width + x).ravel()] = True
    return mask


def make_partition(
    shape: GridShape,
    scheme: PartitionScheme,
    rng: StreamRng,
    step: int = 0,
    layer: int = 0,
) -> PartitionPlan:
    """Build the dst mask for every batch element.

    Deterministic in (shape, scheme, rng.seed, step, layer). Unless the
    scheme draws per element, one mask serves every element; with batch_fix
    on, the random draw happens once and is replicated. Either way the plan
    restricted to any batch prefix equals the plan built for that smaller
    batch.
    """
    def draw(gen):
        if scheme.kind == "random":
            return _random_mask(shape, scheme, gen)
        return _rand_tile_mask(shape, scheme, gen)

    if scheme.draws_per_element:
        gen = rng.stream("partition", step, layer)
        masks = np.stack([draw(gen) for _ in range(shape.batch)])
    else:
        if scheme.kind == "alternating":
            base = _alternating_mask(shape)
        elif scheme.kind == "strided":
            base = _strided_mask(shape, scheme)
        else:
            base = draw(rng.stream("partition", step, layer))
        masks = np.broadcast_to(base, (shape.batch, shape.tokens)).copy()

    counts = masks.sum(axis=1)
    if counts.min() < 1 or counts.max() > shape.tokens - 1:
        raise PartitionError(
            f"scheme {scheme.spec_string()} leaves an empty src or dst set on {shape}"
        )
    return PartitionPlan(shape, masks)
