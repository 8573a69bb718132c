"""The vectorized fast execution path: exact equivalence to the reference."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.macro.executor import HMMExecutor
from repro.machine.params import MachineParams
from repro.sat import ALGORITHM_NAMES, make_algorithm
from repro.sat.algo_4r1w import FourReadOneWrite
from repro.sat.algo_kr1w import CombinedKR1W

PARAMS = MachineParams(width=8, latency=16)

ALL_ALGORITHMS = [make_algorithm(name) for name in ALGORITHM_NAMES] + [
    CombinedKR1W(p=0.25),
    CombinedKR1W(p=0.75),
]


def fresh_engine() -> ExecutionEngine:
    return ExecutionEngine(cache=PlanCache())


@pytest.mark.parametrize(
    "algo", ALL_ALGORITHMS, ids=lambda a: a.display_name if hasattr(a, "display_name") else a.name
)
def test_fast_path_matches_reference_exactly(algo, rng):
    """The fast path must be bit-identical in outputs AND counters.

    The reference is the plan-less counted path (``use_plan_cache=False``);
    the fast path runs the cached plan with memoized per-kernel
    tallies. HMM access patterns are data-independent, so the counters
    must agree *exactly*, not approximately.
    """
    a = rng.integers(0, 50, size=(24, 24)).astype(np.float64)
    reference = algo.compute(a, PARAMS, use_plan_cache=False)
    engine = fresh_engine()
    algo.compute(a, PARAMS, engine=engine)  # populate plan + tallies
    fast = algo.compute(a, PARAMS, engine=engine, fast=True)
    assert np.array_equal(fast.sat, reference.sat)
    assert fast.counters.as_dict() == reference.counters.as_dict()
    assert [t.label for t in fast.traces] == [t.label for t in reference.traces]
    assert [t.blocks for t in fast.traces] == [t.blocks for t in reference.traces]


def test_first_fast_run_at_a_new_shape_is_still_exact(rng):
    """With no memoized tallies yet, fast transparently runs counted."""
    a = rng.integers(0, 50, size=(16, 16)).astype(np.float64)
    algo = make_algorithm("1R1W")
    reference = algo.compute(a, PARAMS, use_plan_cache=False)
    fast = algo.compute(a, PARAMS, engine=fresh_engine(), fast=True)
    assert np.array_equal(fast.sat, reference.sat)
    assert fast.counters.as_dict() == reference.counters.as_dict()


def test_fast_requires_the_engine_path(rng):
    a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
    algo = make_algorithm("1R1W")
    with pytest.raises(ConfigurationError):
        algo.compute(a, PARAMS, engine=fresh_engine(), fast=True, use_plan_cache=False)


def test_fast_rejects_plan_unsafe_configurations(rng):
    a = rng.integers(0, 9, size=(12, 12)).astype(np.float64)
    algo = FourReadOneWrite(snapshot_after_stage=2)
    with pytest.raises(ConfigurationError):
        algo.compute(a, PARAMS, engine=fresh_engine(), fast=True)


def test_fast_rejects_custom_executors(rng):
    a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
    algo = make_algorithm("1R1W")
    with pytest.raises(ConfigurationError):
        algo.compute(a, PARAMS, executor=HMMExecutor(PARAMS), fast=True)
