"""Measured-vs-predicted traffic: the cost model validation (Table I core).

Every analytic predictor in ``repro.analysis.formulas`` must match the
macro executor's measured counters *exactly*, for every algorithm, at
several sizes and widths. This is the load-bearing test of the repo: it
ties the implementations to the formulas Table II's 18K-scale rows are
computed from.
"""

import numpy as np
import pytest

from repro.analysis.formulas import predicted_counters
from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.params import MachineParams
from repro.sat import CombinedKR1W, make_algorithm
from repro.util.matrices import random_matrix

WIDTHS = [(4, 7), (8, 13)]
NAMED = ["2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "1.25R1W"]


@pytest.mark.parametrize("w,l", WIDTHS)
@pytest.mark.parametrize("blocks", [1, 2, 4, 6])
@pytest.mark.parametrize("name", NAMED)
def test_exact_counter_match(name, blocks, w, l):
    params = MachineParams(width=w, latency=l)
    n = blocks * w
    result = make_algorithm(name).compute(random_matrix(n, seed=blocks), params)
    pred = predicted_counters(name, n, params)
    assert result.counters.coalesced_elements == pred.coalesced
    assert result.counters.stride_ops == pred.stride
    assert result.counters.kernels_launched == pred.kernels
    assert result.counters.barriers == pred.barriers


@pytest.mark.parametrize("p", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
def test_kr1w_counter_match_over_p(p):
    params = MachineParams(width=4, latency=7)
    n = 32
    result = CombinedKR1W(p=p).compute(random_matrix(n, seed=3), params)
    pred = predicted_counters("kR1W", n, params, p=p)
    assert result.counters.coalesced_elements == pred.coalesced
    assert result.counters.stride_ops == pred.stride
    assert result.counters.kernels_launched == pred.kernels


def test_2r1w_recursive_counter_match():
    """Depth-2 recursion at w=4 (n=128): formulas must track the recursion."""
    params = MachineParams(width=4, latency=7)
    n = 128
    result = make_algorithm("2R1W").compute(random_matrix(n), params)
    pred = predicted_counters("2R1W", n, params)
    assert result.counters.coalesced_elements == pred.coalesced
    assert result.counters.stride_ops == pred.stride
    assert result.counters.kernels_launched == pred.kernels


def test_transactions_never_below_element_bound():
    """Exact transactions >= ceil(elements / w) on every algorithm run."""
    params = MachineParams(width=8, latency=3)
    for name in NAMED:
        res = make_algorithm(name).compute(random_matrix(16), params)
        c = res.counters
        assert c.coalesced_transactions >= -(-c.coalesced_elements // params.width)


def _4r1w_stage_closed_form(k: int, rows: int, cols: int, w: int):
    """Stage ``k`` of 4R1W: (stride ops, blocks) in closed form.

    The diagonal has ``L`` elements. Only ``(k, 0)`` lacks a left
    neighbour (when ``k < rows``) and only ``(0, k)`` an upper one (when
    ``k < cols``); they are one element at ``k == 0``. Each element is
    read and written once, plus one read per neighbour it has.
    """
    length = min(k, rows - 1) - max(0, k - (cols - 1)) + 1
    left = length - (k < rows)
    up = length - (k < cols)
    corner = length - (k < rows) - (k < cols) + (k == 0)
    return 2 * length + left + up + corner, -(-length // w)


@pytest.mark.parametrize("path", ["counted", "fused"])
@pytest.mark.parametrize(
    "shape", [(1, 37), (37, 1), (1, 1), (37, 64), (64, 37), (16, 16)]
)
def test_4r1w_per_kernel_traffic(shape, path):
    rows, cols = shape
    w = 8
    params = MachineParams(width=w, latency=13)
    algo = make_algorithm("4R1W")
    a = random_matrix(rows, m=cols, seed=5, dtype=np.int64).astype(np.float64)
    engine = ExecutionEngine(cache=PlanCache())
    result = algo.compute(a, params, engine=engine)
    if path == "fused":
        result = algo.compute(a, params, engine=engine, fast=True, fused="numpy")
    assert np.array_equal(result.sat, a.cumsum(axis=0).cumsum(axis=1))
    assert len(result.traces) == rows + cols - 1
    for k, trace in enumerate(result.traces):
        stride, blocks = _4r1w_stage_closed_form(k, rows, cols, w)
        assert trace.label == f"stage{k}"
        assert trace.blocks == blocks
        assert trace.counters.stride_ops == stride
        assert trace.counters.coalesced_elements == 0
        assert trace.counters.coalesced_transactions == 0
    c = result.counters
    assert c.blocks_executed == sum(
        _4r1w_stage_closed_form(k, rows, cols, w)[1] for k in range(rows + cols - 1)
    )
    assert c.stride_ops == 5 * rows * cols - 2 * rows - 2 * cols + 1
    assert c.kernels_launched == rows + cols - 1
    assert c.barriers == rows + cols - 2
