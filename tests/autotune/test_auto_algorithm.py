"""``algorithm="auto"`` end to end: registry, bit-identity, batch.

The delegation contract: ``auto`` adds no compute of its own, so its SAT
is bit-for-bit the SAT of the algorithm it picked — which is itself
bit-for-bit the numpy cumsum chain on the suite's integer-valued inputs
(the conformance contract). Checked here across the conformance dtypes
and both entry points (``SATAlgorithm.compute`` and ``BatchSession``).
"""

import numpy as np
import pytest

from repro.autotune import AutoSAT, AutotunePlanner, default_planner
from repro.errors import ConfigurationError, ShapeError
from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.params import MachineParams
from repro.sat import BatchSession, sat_batch_list
from repro.sat.registry import describe, list_algorithms, make_algorithm

PARAMS = MachineParams(width=8, latency=16)

#: Integer-valued inputs in the conformance dtypes: the float64 SAT is
#: exact regardless of summation order, so equality can be bitwise.
DTYPES = [np.int32, np.float32, np.float64]


def _int_matrix(rng, shape, dtype):
    return rng.integers(-50, 50, size=shape).astype(dtype)


def _oracle(a):
    return np.cumsum(np.cumsum(np.asarray(a, dtype=np.float64), axis=0), axis=1)


def fresh_auto(**planner_kwargs):
    planner_kwargs.setdefault("path", None)
    return AutoSAT(planner=AutotunePlanner(**planner_kwargs))


# --- registry ----------------------------------------------------------------


class TestRegistry:
    def test_auto_is_listed_with_parametrics(self):
        names = list_algorithms(include_parametric=True)
        assert "auto" in names
        assert "auto" not in list_algorithms(include_parametric=False)

    def test_describe_covers_auto(self):
        info = describe()
        assert "auto" in info
        assert info["auto"]["summary"]
        assert "planner" in info["auto"]["kwargs"]

    def test_make_algorithm_builds_an_autosat(self):
        assert isinstance(make_algorithm("auto"), AutoSAT)

    def test_unknown_name_error_suggests_auto(self):
        with pytest.raises(ConfigurationError, match="auto"):
            make_algorithm("3R3W")


# --- compute entry point -----------------------------------------------------


class TestComputeBitIdentity:
    @pytest.mark.parametrize("dtype", DTYPES, ids=[np.dtype(d).name for d in DTYPES])
    def test_auto_matches_oracle_and_explicit(self, rng, dtype):
        matrix = _int_matrix(rng, (24, 24), dtype)
        auto = fresh_auto()
        result = auto.compute(matrix, PARAMS)
        assert result.algorithm != "auto"  # the delegate's own result
        assert np.array_equal(result.sat, _oracle(matrix))

        # Re-derive the decision with an identical planner and run that
        # algorithm explicitly: bit-for-bit the same SAT.
        decision = AutotunePlanner(path=None).decide_compute(
            24, 24, dtype, PARAMS
        )
        assert decision.algorithm == result.algorithm
        explicit = make_algorithm(
            decision.algorithm, **decision.arm.algorithm_kwargs()
        ).compute(matrix, PARAMS)
        assert np.array_equal(result.sat, explicit.sat)

    def test_rectangular_input(self, rng):
        matrix = _int_matrix(rng, (16, 40), np.float64)
        result = fresh_auto().compute(matrix, PARAMS)
        assert np.array_equal(result.sat, _oracle(matrix))

    def test_non_multiple_shape_falls_to_4r1w(self, rng):
        matrix = _int_matrix(rng, (15, 15), np.float64)
        result = fresh_auto().compute(matrix, PARAMS)
        assert result.algorithm == "4R1W"
        assert np.array_equal(result.sat, _oracle(matrix))

    def test_open_params_pick_a_width(self, rng):
        matrix = _int_matrix(rng, (64, 64), np.float64)
        result = fresh_auto().compute(matrix)
        assert result.params.width in (16, 32)
        assert np.array_equal(result.sat, _oracle(matrix))

    def test_fast_path_matches_counted(self, rng):
        matrix = _int_matrix(rng, (32, 32), np.float64)
        auto = fresh_auto()
        counted = auto.compute(matrix, PARAMS)
        fast = auto.compute(matrix, PARAMS, fast=True)
        assert np.array_equal(counted.sat, fast.sat)

    def test_compute_feeds_the_planner(self, rng):
        auto = fresh_auto()
        matrix = _int_matrix(rng, (16, 16), np.float64)
        auto.compute(matrix, PARAMS)
        stats = auto.planner.stats()
        assert stats["decisions"] == 1
        assert stats["measurements"] == 1

    def test_empty_and_non_2d_rejected(self):
        auto = fresh_auto()
        with pytest.raises(ShapeError):
            auto.compute(np.zeros((0, 4)), PARAMS)
        with pytest.raises(ShapeError):
            auto.compute(np.zeros(4), PARAMS)

    def test_engine_stats_report_autotune_activity(self, rng):
        engine = ExecutionEngine(cache=PlanCache())
        assert engine.stats()["autotune"] == {"active": False}
        matrix = _int_matrix(rng, (16, 16), np.float64)
        make_algorithm("auto").compute(matrix, PARAMS, engine=engine)
        auto_stats = engine.stats()["autotune"]
        assert auto_stats["active"] is True
        assert auto_stats["decisions"] >= 1
        assert default_planner().stats()["measurements"] >= 1


# --- batch entry point -------------------------------------------------------


class TestBatchSession:
    def test_serial_auto_matches_explicit(self, rng):
        mats = [_int_matrix(rng, (16, 16), np.float64) for _ in range(4)]
        auto_sats = sat_batch_list(mats, "auto", PARAMS, workers=1)
        for m, s in zip(mats, auto_sats):
            assert np.array_equal(s, _oracle(m))

    def test_pool_auto_matches_serial(self, rng):
        mats = [_int_matrix(rng, (16, 16), np.float64) for _ in range(6)]
        serial = sat_batch_list(mats, "auto", PARAMS, workers=1)
        pooled = sat_batch_list(mats, "auto", PARAMS, workers=2)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s, p)

    def test_session_reuse_keeps_identity(self, rng):
        mats = [_int_matrix(rng, (24, 24), np.float64) for _ in range(3)]
        with BatchSession("auto", PARAMS, workers=1) as session:
            first = list(session.map(mats))
            second = list(session.map(mats))
        for m, a, b in zip(mats, first, second):
            assert np.array_equal(a, _oracle(m))
            assert np.array_equal(a, b)
