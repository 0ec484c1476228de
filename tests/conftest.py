import numpy as np
import pytest

from tomebench import UNetSpec, init_unet
from tomebench.flops import FlopCount
from tomebench.grid import GridShape
from tomebench.partition import PartitionPlan, PartitionScheme


def hand_plan(mask, height, width):
    """PartitionPlan from an explicit dst mask over a single-element batch."""
    mask = np.asarray([mask], dtype=bool)
    return PartitionPlan(GridShape(1, height, width), PartitionScheme.alternating(),
                         mask, int(mask[0].sum()))


def dst_indices(plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's dst tokens, ascending."""
    return np.flatnonzero(plan.dst_mask[element])


def src_indices(plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's src tokens, ascending."""
    return np.flatnonzero(~plan.dst_mask[element])


def matmul_total(count: FlopCount) -> int:
    """The matmul FLOPs of a `FlopCount`, over every scaling class."""
    return count.matmul_pairwise + count.matmul_linear + count.matmul_const


@pytest.fixture(scope="session")
def tiny_spec():
    return UNetSpec(scales=((8, 8, 2), (4, 4, 2)), channels=16, heads=4,
                    prompt_tokens=4, weight_seed=7)


@pytest.fixture(scope="session")
def tiny_model(tiny_spec):
    return init_unet(tiny_spec)


@pytest.fixture(scope="session")
def small_spec():
    return UNetSpec(scales=((16, 16, 2), (8, 8, 2), (4, 4, 2)), channels=32, heads=4,
                    prompt_tokens=8, weight_seed=1234)


@pytest.fixture(scope="session")
def small_model(small_spec):
    return init_unet(small_spec)


@pytest.fixture()
def nprng():
    return np.random.default_rng(0)
