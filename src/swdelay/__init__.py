"""Low-delay universal distributed source coding toolkit.

Simulates deferred-encoding and deferred-decoding transmission strategies
over a constant-rate channel for sources whose joint statistics are known
only through a finite hypothesis set, evaluates the matching closed-form
delay bounds, provides a desk-scale random-binning codec, and builds models
from paired symbol traces.
"""

from .bounds import LowerBound, bounds_report, gamma_coefficient, lb_delay, ub_delay
from .channel import ChannelQueue
from .codec import (
    Codebook,
    CodecConfig,
    CodecTrialReport,
    decode,
    encode,
    error_breakdown,
    is_typical,
    jointly_typical,
    run_codec_trials,
)
from .ingest import IngestResult, TraceBlock, blockify, quantize_model
from .model import (
    BlockTrace,
    CdfEntry,
    EntropyStats,
    ModelError,
    SourceModel,
    bsc_pair_model,
    compute_stats,
    demo_model,
    load_model,
    sample_trace,
    save_model,
    validate_model,
)
from .rate import ChernoffBatch, RateAccumulator, SumDistribution, k_c, k_c_chernoff, rate_unconditional
from .strategies import (
    BatchOutcome,
    SimulationResult,
    run_baseline_accumulate,
    run_baseline_blockwise,
    run_baseline_known_joint,
    run_adaptive,
    run_strategy,
    run_wait_to_decode,
    run_wait_to_encode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
