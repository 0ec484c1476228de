import numpy as np
import pytest

from tomebench import UNetSpec, init_unet, unet
from tomebench.flops import FlopCount
from tomebench.grid import GridShape
from tomebench.matching import MergePlan
from tomebench.partition import PartitionPlan, make_partition


def hand_plan(mask, height, width):
    """PartitionPlan from an explicit dst mask over a single-element batch."""
    return PartitionPlan(GridShape(1, height, width), np.asarray([mask], dtype=bool))


def dst_indices(plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's dst tokens, ascending."""
    return np.flatnonzero(plan.dst_mask[element])


def src_indices(plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's src tokens, ascending."""
    return np.flatnonzero(~plan.dst_mask[element])


def dst_fractions(plan: PartitionPlan) -> np.ndarray:
    """dst tokens as a fraction of all tokens, one per batch element."""
    return np.count_nonzero(plan.dst_mask, axis=1) / plan.shape.tokens


def kept_src(mplan: MergePlan, plan: PartitionPlan, element: int) -> np.ndarray:
    """Flat indices of one element's src tokens that merge into no dst, ascending."""
    return np.setdiff1d(src_indices(plan, element), mplan.edges[element, :, 0])


def capture_partitions(monkeypatch: pytest.MonkeyPatch) -> list[PartitionPlan]:
    """Every partition a model's blocks draw from now on, in draw order.

    Wraps `tomebench.unet.make_partition`, so a run is observed from outside;
    the patch lasts as long as `monkeypatch`'s scope.
    """
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(make_partition(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(unet, "make_partition", recording)
    return drawn


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
