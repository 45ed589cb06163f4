"""Low-delay universal distributed source coding toolkit.

Simulates deferred-encoding and deferred-decoding transmission strategies
over a constant-rate channel for sources whose joint statistics are known
only through a finite hypothesis set, evaluates the matching closed-form
delay bounds, provides a desk-scale random-binning codec, and builds models
from paired symbol traces.
"""

from types import ModuleType as _ModuleType

from .bounds import (ChernoffBatch, LowerBound, bounds_report, gamma_coefficient, k_c_chernoff,
                     lb_delay, ub_delay)
from .channel import ChannelQueue
from .codec import Codebook, CodecTrialReport, run_codec_trials
from .ingest import IngestResult, blockify, quantize_model
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
from .rate import RateAccumulator, k_c, rate_unconditional
from .strategies import SimulationResult, block_delays, simulate

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]  # a submodule is bound here too
__version__ = "0.1.0"
