import numpy as np

from tomebench.grid import GridShape
from tomebench.matching import build_merge_plan
from tomebench.partition import PartitionScheme, make_partition
from tomebench.rng import StreamRng
from tomebench.tensor import DTYPE
from tomebench.viz import mask_to_ppm, merge_map_to_ppm, write_partition_ppms

from conftest import kept_src


def parse_p3(data: bytes) -> np.ndarray:
    tokens = data.decode("ascii").split()
    assert tokens[0] == "P3"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert maxval == 255
    pixels = np.array(tokens[4:], dtype=np.int64).reshape(h, w, 3)
    return pixels


def test_strided_2x2_is_white_dot_lattice():
    plan = make_partition(GridShape(1, 8, 8), PartitionScheme.strided(2, 2), StreamRng(0))
    pixels = parse_p3(mask_to_ppm(plan.dst_mask[0], 8, 8))
    white = (pixels == 255).all(axis=2)
    expected = np.zeros((8, 8), dtype=bool)
    expected[::2, ::2] = True
    assert np.array_equal(white, expected)
    assert white.sum() == 16


def test_alternating_even_width_columns():
    plan = make_partition(GridShape(1, 6, 8), PartitionScheme.alternating(), StreamRng(0))
    pixels = parse_p3(mask_to_ppm(plan.dst_mask[0], 6, 8))
    white = (pixels == 255).all(axis=2)
    for col in range(8):
        assert white[:, col].all() == bool(col % 2)


def test_rand2x2_one_white_per_tile():
    plan = make_partition(GridShape(1, 8, 8), PartitionScheme.rand_tile(2, 2), StreamRng(9))
    pixels = parse_p3(mask_to_ppm(plan.dst_mask[0], 8, 8))
    white = (pixels == 255).all(axis=2)
    for y0 in range(0, 8, 2):
        for x0 in range(0, 8, 2):
            assert white[y0:y0 + 2, x0:x0 + 2].sum() == 1


def test_merge_map_groups_share_color(nprng):
    x = nprng.standard_normal((16, 4)).astype(DTYPE)
    plan = make_partition(GridShape(1, 4, 4), PartitionScheme.rand_tile(2, 2), StreamRng(2))
    mplan = build_merge_plan(x[None], plan, 0.5)
    pixels = parse_p3(merge_map_to_ppm(mplan, 4, 4)).reshape(16, 3)
    for src, dst in mplan.edges[0]:
        assert np.array_equal(pixels[src], pixels[dst])
    for kept in kept_src(mplan, plan, 0):
        assert np.array_equal(pixels[kept], [40, 40, 40])


def test_write_partition_ppms(tmp_path):
    plan = make_partition(GridShape(2, 4, 4), PartitionScheme.rand_tile(2, 2), StreamRng(0))
    paths = write_partition_ppms(plan, tmp_path)
    assert [p.name for p in paths] == ["partition_b0.ppm", "partition_b1.ppm"]
    assert paths[0].read_bytes() == paths[1].read_bytes()  # batch-fixed masks
