"""Training-free token merging for transformer dense prediction, at desk scale.

A deterministic toy diffusion U-Net wrapped with merge/unmerge operators,
src/dst partition schemes, and application policies, plus FLOP accounting
and a benchmarking CLI.
"""

from .config import ConfigError, HarnessConfig, ToMeConfig
from .diffusion import (
    ErrorMetrics,
    Schedule,
    compare_to_baseline,
    denoise,
    make_init_noise,
    ratio_at,
)
from .flops import FlopCount, flop_count, peak_live_elements, run_flops
from .grid import GridShape, TokenGrid
from .matching import (
    MergePlan,
    RatioError,
    build_merge_plan,
    cosine_similarity,
    export_edge_list,
    tokens_to_remove,
)
from .merging import apply_unmerge, reduce_tokens
from .metrics import RunReport, aggregate, speedup_estimate, sweep_csv
from .partition import (
    PartitionError,
    PartitionPlan,
    PartitionScheme,
    make_partition,
)
from .rng import StreamRng
from .unet import RunTrace, UNetModel, UNetSpec, init_unet

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ErrorMetrics",
    "FlopCount",
    "GridShape",
    "HarnessConfig",
    "MergePlan",
    "PartitionError",
    "PartitionPlan",
    "PartitionScheme",
    "RatioError",
    "RunReport",
    "RunTrace",
    "Schedule",
    "StreamRng",
    "ToMeConfig",
    "TokenGrid",
    "UNetModel",
    "UNetSpec",
    "aggregate",
    "apply_unmerge",
    "build_merge_plan",
    "compare_to_baseline",
    "cosine_similarity",
    "denoise",
    "export_edge_list",
    "flop_count",
    "init_unet",
    "make_init_noise",
    "make_partition",
    "peak_live_elements",
    "ratio_at",
    "reduce_tokens",
    "run_flops",
    "speedup_estimate",
    "sweep_csv",
    "tokens_to_remove",
]
