import numpy as np
import pytest

from tomebench import UNetSpec, init_unet
from tomebench.flops import FlopCount
from tomebench.grid import GridShape
from tomebench.matching import MergePlan
from tomebench.partition import PartitionPlan


def hand_plan(mask, height, width):
    """PartitionPlan from an explicit dst mask over a single-element batch."""
    return PartitionPlan(GridShape(1, height, width), np.asarray([mask], dtype=bool))


def dst_indices(plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's dst tokens, ascending."""
    return np.flatnonzero(plan.dst_mask[element])


def src_indices(plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's src tokens, ascending."""
    return np.flatnonzero(~plan.dst_mask[element])


def dst_fraction(plan: PartitionPlan) -> float:
    """dst tokens as a fraction of all tokens, per batch element."""
    return plan.dst_count / plan.shape.tokens


def kept_src(mplan: MergePlan, plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's src tokens that merge into no dst, ascending."""
    return np.setdiff1d(src_indices(plan, element), mplan.edges[element, :, 0])


def matmul_total(count: FlopCount) -> int:
    """The matmul FLOPs of a `FlopCount`, over every scaling class."""
    return count.matmul_pairwise + count.matmul_linear + count.matmul_const


def pairwise(count: FlopCount) -> int:
    """The FLOPs of a `FlopCount` that scale with n^2."""
    return count.matmul_pairwise + count.other_pairwise


def linear(count: FlopCount) -> int:
    """The FLOPs of a `FlopCount` that scale with n."""
    return count.matmul_linear + count.other_linear


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
