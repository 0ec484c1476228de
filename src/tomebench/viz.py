"""Portable pixmap renderings of partition masks and merge maps."""

from __future__ import annotations

import colorsys
from pathlib import Path

import numpy as np

from .matching import MergePlan
from .partition import PartitionPlan

WHITE = (255, 255, 255)
BLACK = (0, 0, 0)


def _ppm(pixels: np.ndarray) -> bytes:
    """ASCII P3 pixmap from an (H, W, 3) uint8 array."""
    h, w, _ = pixels.shape
    lines = [f"P3\n{w} {h}\n255\n"]
    for row in pixels:
        lines.append(" ".join(str(int(v)) for rgb in row for v in rgb) + "\n")
    return "".join(lines).encode("ascii")


def mask_to_ppm(mask: np.ndarray, height: int, width: int) -> bytes:
    """dst tokens render white, src tokens black."""
    flat = np.asarray(mask, dtype=bool).reshape(height, width)
    pixels = np.where(flat[..., None], np.uint8(255), np.uint8(0))
    return _ppm(np.broadcast_to(pixels, (height, width, 3)))


def group_color(index: int) -> tuple[int, int, int]:
    """Deterministic, well-separated palette via golden-angle hues."""
    hue = (index * 0.61803398875) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.65, 0.95)
    return int(r * 255), int(g * 255), int(b * 255)


def merge_map_to_ppm(plan: MergePlan, height: int, width: int) -> bytes:
    """Batch element 0's merged groups, one color each; singleton tokens stay dark gray."""
    g = plan.grouping
    rows = plan.merged_token_count  # element 0's merged rows come first
    colors = np.array([group_color(row) for row in range(rows)], dtype=np.uint8).reshape(rows, 3)
    colors[g.group_sizes[:rows] == 1] = (40, 40, 40)
    pixels = colors[g.group_ids[:plan.n_tokens]]
    return _ppm(pixels.reshape(height, width, 3))


def write_partition_ppms(plan: PartitionPlan, out_dir: str | Path, prefix: str = "partition") -> list[Path]:
    """One image per batch element; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for b in range(plan.shape.batch):
        path = out_dir / f"{prefix}_b{b}.ppm"
        path.write_bytes(mask_to_ppm(plan.dst_mask[b], plan.shape.height, plan.shape.width))
        paths.append(path)
    return paths
