"""Differential conformance sweep: every algorithm vs the numpy oracle.

A seeded, randomized grid of shapes, dtypes, and machine parameters, run
through all three execution modes — counted, numpy fused, and native
(compiled megakernels; bit-identically equal to the numpy fused path
even on hosts without a C toolchain, where it degrades to it) — and
compared **bit-for-bit** against
``np.cumsum(np.cumsum(a, 0), 1)``.
Exactness is legitimate: inputs are integer-valued, so every partial sum
is an integer far below 2**53 and float64 arithmetic is exact regardless
of summation order. Each counted run is additionally fed to
:class:`~repro.obs.CostAudit`, so the sweep doubles as the audit's
zero-divergence acceptance check.

The default grid is the quick form CI runs on every push; set
``REPRO_DIFF_FULL=1`` for the expanded grid (more sizes, more machine
configurations).
"""

import os

import numpy as np
import pytest

from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.params import MachineParams
from repro.obs import SIX_ALGORITHMS, CostAudit
from repro.sat.registry import make_algorithm

#: Environment toggle expanding the sweep beyond the quick CI grid.
FULL_ENV_VAR = "REPRO_DIFF_FULL"
FULL = os.environ.get(FULL_ENV_VAR, "").strip().lower() in {"1", "true", "yes", "on"}

#: Algorithms accepting non-square inputs (the rectangular extension).
RECTANGULAR = ["2R2W", "4R4W", "4R1W", "1R1W"]

#: (width, latency) machine points; the quick pair spans the Figure 4
#: scale and the suite's standard small machine.
MACHINES = [(4, 3), (8, 16)] + ([(4, 64), (8, 512), (16, 32)] if FULL else [])

#: Side lengths as multiples of the width.
MULTIPLES = [2, 3] + ([1, 4, 5] if FULL else [])

#: Integer-valued inputs in several dtypes: the float64 SAT stays exact.
DTYPES = [np.int32, np.float32, np.float64]


def _int_matrix(rng, shape, dtype):
    return rng.integers(-50, 50, size=shape).astype(dtype)


def _oracle(a):
    return np.cumsum(np.cumsum(np.asarray(a, dtype=np.float64), axis=0), axis=1)


def _square_cases():
    cases = []
    for name in SIX_ALGORITHMS:
        for w, latency in MACHINES:
            for m in MULTIPLES:
                i = len(cases)
                cases.append((name, w * m, w, latency, DTYPES[i % len(DTYPES)], i))
    return cases


def _case_id(case):
    name, n, w, latency, dtype, seed = case
    return f"{name}-n{n}-w{w}-l{latency}-{np.dtype(dtype).name}"


def _assert_all_modes_match(algo, a, params, p=None):
    """Counted, numpy-fused, and native runs must bit-match the oracle
    and preserve the counted run's traffic accounting exactly."""
    engine = ExecutionEngine(cache=PlanCache())
    expected = _oracle(a)
    counted = algo.compute(a, params, engine=engine)
    fused = algo.compute(a, params, engine=engine, fast=True, fused="numpy")
    native = algo.compute(a, params, engine=engine, fast=True, fused="native")
    assert np.array_equal(counted.sat, expected)
    assert np.array_equal(fused.sat, expected)
    assert np.array_equal(native.sat, expected)
    assert fused.counters.as_dict() == counted.counters.as_dict()
    assert native.counters.as_dict() == counted.counters.as_dict()
    return counted


@pytest.mark.parametrize(
    "name,n,w,latency,dtype,seed", _square_cases(), ids=map(_case_id, _square_cases())
)
def test_square_differential(name, n, w, latency, dtype, seed):
    params = MachineParams(width=w, latency=latency)
    rng = np.random.default_rng(1000 + seed)
    a = _int_matrix(rng, (n, n), dtype)
    algo = make_algorithm(name, **({"p": 0.5} if name == "kR1W" else {}))
    counted = _assert_all_modes_match(algo, a, params)
    # The cost-model audit must agree with the counted run exactly.
    record = CostAudit().check(counted, p=0.5 if name == "kR1W" else None)
    assert record.supported
    assert not record.divergent


RECT_SHAPES = [(8, 16), (24, 8), (16, 24)] + ([(8, 40), (40, 16)] if FULL else [])


@pytest.mark.parametrize("name", RECTANGULAR)
@pytest.mark.parametrize("shape", RECT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_rectangular_differential(name, shape):
    params = MachineParams(width=8, latency=16)
    rng = np.random.default_rng(sum(shape))
    a = _int_matrix(rng, shape, DTYPES[(shape[0] + shape[1]) % len(DTYPES)])
    _assert_all_modes_match(make_algorithm(name), a, params)


# 4R1W has no block-multiple requirement, so it is the one algorithm that
# reaches the truly degenerate shapes at a realistic width.
DEGENERATE_SHAPES = [(1, 17), (17, 1), (1, 1), (3, 5)]


@pytest.mark.parametrize("shape", DEGENERATE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_degenerate_differential_4r1w(shape):
    params = MachineParams(width=4, latency=3)
    rng = np.random.default_rng(77)
    a = _int_matrix(rng, shape, np.int32)
    _assert_all_modes_match(make_algorithm("4R1W"), a, params)


@pytest.mark.parametrize("name", RECTANGULAR)
@pytest.mark.parametrize("shape", [(1, 16), (16, 1)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_degenerate_differential_width_one(name, shape):
    """1xn / nx1 for every rectangular algorithm, at width 1 so the
    block-multiple constraint is satisfiable."""
    params = MachineParams(width=1, latency=3)
    rng = np.random.default_rng(78)
    a = _int_matrix(rng, shape, np.float64)
    _assert_all_modes_match(make_algorithm(name), a, params)


def test_full_grid_toggle_is_documented():
    """The env toggle the CI quick job relies on exists and defaults off."""
    assert FULL_ENV_VAR == "REPRO_DIFF_FULL"
    if os.environ.get(FULL_ENV_VAR) is None:
        assert not FULL
