"""Token grids: batches of 2D token fields in row-major scan order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE, ShapeError


@dataclass(frozen=True)
class GridShape:
    """Batch of height x width token fields; token index = y * width + x."""

    batch: int
    height: int
    width: int

    def __post_init__(self):
        if self.batch < 1 or self.height < 1 or self.width < 1:
            raise ShapeError(f"grid dims must be >= 1, got {self}")

    @property
    def tokens(self) -> int:
        return self.height * self.width

    def flat_index(self, y: int, x: int) -> int:
        return y * self.width + x


@dataclass(frozen=True)
class TokenGrid:
    """float32 token values of shape (batch, tokens, channels) over a GridShape."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=DTYPE)
        if v.ndim != 3:
            raise ShapeError(f"token values must be 3D (batch, tokens, channels), got ndim={v.ndim}")
        if v.shape[0] != self.shape.batch or v.shape[1] != self.shape.tokens:
            raise ShapeError(
                f"values shape {v.shape} does not match grid {self.shape} "
                f"(expected ({self.shape.batch}, {self.shape.tokens}, channels))"
            )
        if not np.all(np.isfinite(v)):
            raise ShapeError("token values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    def element(self, b: int) -> np.ndarray:
        """The (tokens, channels) matrix of one batch element."""
        return self.values[b]
