"""Hierarchical beam-search channel estimation for sparse mmWave MIMO links.

The library models a single-path channel between two half-wavelength linear
arrays, estimates its angles and fading gain through a staged beam search
(overlapped design using log2(k+1) beams per stage, or the classic
non-overlapped one-beam-per-sub-range search), predicts the failure
probability in closed form and benchmarks everything with a reproducible
Monte Carlo harness.
"""

from .analysis import BoundResult, pcef_upper_bound
from .arrays import (
    AngleGrid,
    ChannelRealization,
    MeasurementNoise,
    build_channel,
    measure_block,
    steering_vector,
    substream,
)
from .codebook import (
    BeamPatternMatrix,
    IndexRange,
    StageCodebook,
    SubrangePartition,
    identity_pattern_matrix,
    overlapped_pattern_matrix,
    synthesize_vector,
    target_profile,
)
from .estimator import (
    ALPHA_FINAL,
    ALPHA_MMSE_ALL,
    NON_OVERLAPPED,
    OVERLAPPED,
    VARIANTS,
    Design,
    EstimationTrace,
    EstimatorConfig,
    estimate_alpha_mmse,
    fuse_measurements,
    run_estimation,
    search_batch,
    select_path,
    stage_count,
)
from .montecarlo import (
    ExperimentConfig,
    ResultTable,
    bound_table,
    power_for_energy,
    run_sweep,
    sample_channel,
    wilson_interval,
)

__version__ = "0.1.0"
