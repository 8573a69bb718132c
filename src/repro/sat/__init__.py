"""Summed-area-table algorithms on the asynchronous HMM.

The paper's full algorithm family, all running as real programs on the
macro executor and verified against the :func:`sat_reference` oracle:

========  ==============================================================
2R2W      column scan + stride row scan (Section IV)
4R4W      two scans around two coalesced transposes (Section IV)
4R1W      element-wise anti-diagonal recurrence, Formula (1) (Section VI)
2R1W      block sums / scans / fix-up with recursion (Section V)
1R1W      block anti-diagonal stages — memory-access optimal (Section VI)
kR1W      2R1W corner triangles around a 1R1W band (Section VII);
          ``1.25R1W`` is its ``p = 1/2`` instance
========  ==============================================================

plus the sequential CPU baselines of Section VIII and the rectangle-sum
query machinery that motivates SATs in the first place.
"""

from .algo_1r1w import OneReadOneWrite
from .algo_2r1w import TwoReadOneWrite, recursion_depth
from .algo_2r2w import TwoReadTwoWrite
from .algo_4r1w import FourReadOneWrite
from .algo_4r4w import FourReadFourWrite
from .algo_kr1w import CombinedKR1W, OnePointTwoFiveR1W
from .base import MATRIX_BUFFER, SATAlgorithm, SATResult
from .batch import BatchSession, batch_counters, sat_batch, sat_batch_list
from .cpu import CPU_ALGORITHMS, cpu_2r2w, cpu_4r1w, cpu_4r1w_strict, cpu_numpy_2r2w
from .reference import (
    assert_sat_equal,
    rectangle_sum,
    rectangle_sums,
    sat_reference,
    undo_sat,
)
from .out_of_core import (
    BandPrefetcher,
    PeakMemoryMeter,
    ResilientBandProvider,
    StreamCheckpoint,
    StreamReport,
    carry_checksum,
    hmm_band_sat,
    sat_out_of_core,
    sat_streamed,
)
from .registry import ALGORITHM_NAMES, describe, list_algorithms, make_algorithm
from .tuning import TuningResult, candidate_ps, tune_analytic, tune_measured

__all__ = [
    "ALGORITHM_NAMES",
    "CPU_ALGORITHMS",
    "BandPrefetcher",
    "BatchSession",
    "CombinedKR1W",
    "FourReadFourWrite",
    "FourReadOneWrite",
    "MATRIX_BUFFER",
    "OnePointTwoFiveR1W",
    "PeakMemoryMeter",
    "ResilientBandProvider",
    "StreamCheckpoint",
    "StreamReport",
    "batch_counters",
    "carry_checksum",
    "hmm_band_sat",
    "sat_batch",
    "sat_batch_list",
    "sat_out_of_core",
    "sat_streamed",
    "OneReadOneWrite",
    "SATAlgorithm",
    "SATResult",
    "TuningResult",
    "TwoReadOneWrite",
    "TwoReadTwoWrite",
    "assert_sat_equal",
    "candidate_ps",
    "cpu_2r2w",
    "cpu_4r1w",
    "cpu_4r1w_strict",
    "cpu_numpy_2r2w",
    "describe",
    "list_algorithms",
    "make_algorithm",
    "recursion_depth",
    "rectangle_sum",
    "rectangle_sums",
    "sat_reference",
    "tune_analytic",
    "tune_measured",
    "undo_sat",
]
