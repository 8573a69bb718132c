"""The fused batched backend: bit-identity with the counted reference.

The fused path replaces per-task Python closures by whole-kernel numpy
schedules (precomputed gather indices -> batched per-block compute ->
scatter). Because HMM access patterns are data-independent and every
fused spec reproduces the per-task floating-point operation order
exactly, outputs, counters, and traces must match the plan-less counted
reference *bit for bit*, at kernel granularity.
"""

import numpy as np
import pytest

from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.engine.fused import (
    ROW_SWEEP_MIN_COLS,
    FusedKernelSpec,
    build_fused_schedule,
    prefix_sum_rows,
)
from repro.machine.macro.counters import AccessCounters
from repro.machine.macro.executor import HMMExecutor
from repro.machine.params import MachineParams
from repro.sat import ALGORITHM_NAMES, make_algorithm
from repro.sat.algo_kr1w import CombinedKR1W

PARAMS = MachineParams(width=8, latency=16)

ALL_ALGORITHMS = [make_algorithm(name) for name in ALGORITHM_NAMES] + [
    CombinedKR1W(p=0.25),
    CombinedKR1W(p=0.75),
]


def fresh_engine() -> ExecutionEngine:
    return ExecutionEngine(cache=PlanCache())


def _assert_identical(fused, reference):
    assert np.array_equal(fused.sat, reference.sat)
    assert fused.counters.as_dict() == reference.counters.as_dict()
    assert [t.label for t in fused.traces] == [t.label for t in reference.traces]
    assert [t.blocks for t in fused.traces] == [t.blocks for t in reference.traces]


@pytest.mark.parametrize(
    "algo",
    ALL_ALGORITHMS,
    ids=lambda a: a.display_name if hasattr(a, "display_name") else a.name,
)
@pytest.mark.parametrize("side", [8, 24, 64])
def test_fused_matches_reference_exactly(algo, side, rng):
    """Every algorithm, several shapes: fused warm run == counted run."""
    a = rng.integers(0, 50, size=(side, side)).astype(np.float64)
    reference = algo.compute(a, PARAMS, use_plan_cache=False)
    engine = fresh_engine()
    algo.compute(a, PARAMS, engine=engine)  # populate plan + tallies
    fused = algo.compute(a, PARAMS, engine=engine, fast=True, fused=True)
    _assert_identical(fused, reference)


@pytest.mark.parametrize(
    "algo",
    ALL_ALGORITHMS,
    ids=lambda a: a.display_name if hasattr(a, "display_name") else a.name,
)
def test_fused_matches_reference_on_float_inputs(algo, rng):
    """Non-integer values: summation *order* must match, not just totals.

    np.cumsum is sequential like the scalar loops, and the fused tile
    reductions sum over axes in the same pairwise order as the per-task
    code; signed floats with a wide exponent range would expose any
    reassociation immediately.
    """
    a = rng.standard_normal((24, 24)) * np.exp(rng.uniform(-6, 6, (24, 24)))
    reference = algo.compute(a, PARAMS, use_plan_cache=False)
    engine = fresh_engine()
    algo.compute(a, PARAMS, engine=engine)
    fused = algo.compute(a, PARAMS, engine=engine, fast=True, fused=True)
    _assert_identical(fused, reference)


@pytest.mark.parametrize("params", [MachineParams(width=4, latency=3),
                                    MachineParams(width=16, latency=64)])
def test_fused_across_machine_params(params, rng):
    """Width/latency changes reshape every index array; identity must hold."""
    a = rng.integers(0, 50, size=(32, 32)).astype(np.float64)
    for algo in ALL_ALGORITHMS:
        reference = algo.compute(a, params, use_plan_cache=False)
        engine = fresh_engine()
        algo.compute(a, params, engine=engine)
        fused = algo.compute(a, params, engine=engine, fast=True, fused=True)
        _assert_identical(fused, reference)


@pytest.mark.parametrize("name", ["2R2W", "4R1W", "1R1W"])
def test_fused_rectangular_inputs(name, rng):
    a = rng.integers(0, 50, size=(16, 40)).astype(np.float64)
    algo = make_algorithm(name)
    reference = algo.compute(a, PARAMS, use_plan_cache=False)
    engine = fresh_engine()
    algo.compute(a, PARAMS, engine=engine)
    fused = algo.compute(a, PARAMS, engine=engine, fast=True, fused=True)
    _assert_identical(fused, reference)


def _wide_range_floats(rng, shape):
    """Signed floats over many magnitudes: any reassociation shows."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-6, 6, shape))


def _assert_fused_matches_counted(algo, a, params=PARAMS):
    engine = fresh_engine()
    counted = algo.compute(a, params, engine=engine)
    fused = algo.compute(a, params, engine=engine, fast=True, fused="numpy")
    _assert_identical(fused, counted)


@pytest.mark.parametrize("name", ["2R2W", "4R4W"])
@pytest.mark.parametrize("shape", [(64, 1024), (1024, 64)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_fused_column_scans_on_both_sides_of_the_row_sweep(name, shape, rng):
    """One of the two column scans is wider than ROW_SWEEP_MIN_COLS (row
    sweep) and one narrower (cumsum); both must match the counted strips."""
    assert min(shape) < ROW_SWEEP_MIN_COLS <= max(shape)
    _assert_fused_matches_counted(make_algorithm(name), _wide_range_floats(rng, shape))


@pytest.mark.parametrize(
    "shape", [(16, 40), (40, 16), (8, 64), (64, 8)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def test_fused_rectangular_1r1w_grids_on_float_inputs(shape, rng):
    """Whole-block gathers on non-square tile views, one-block-wide too."""
    _assert_fused_matches_counted(make_algorithm("1R1W"), _wide_range_floats(rng, shape))


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("side", [16, 40])
def test_fused_kr1w_triangles_on_float_inputs(p, side, rng):
    """Both triangles hold blocks on the matrix edges (first and last block
    row and column), where the fix phase skips publishing."""
    _assert_fused_matches_counted(CombinedKR1W(p=p), _wide_range_floats(rng, (side, side)))


@pytest.mark.parametrize(
    "shape",
    [
        (1, 5),
        (9, 1),
        (1, ROW_SWEEP_MIN_COLS),
        (37, ROW_SWEEP_MIN_COLS - 1),
        (37, ROW_SWEEP_MIN_COLS),
        (3, 5, ROW_SWEEP_MIN_COLS + 8),
        (3, 5, 8),
    ],
    ids=lambda s: "x".join(map(str, s)),
)
def test_prefix_sum_rows_is_cumsum_bit_for_bit(shape, rng):
    x = _wide_range_floats(rng, shape) * 10.0 ** rng.integers(-200, 200, shape)
    x.reshape(-1)[::3] = -0.0  # zero signs survive only in cumsum's order
    expected = np.cumsum(x, axis=-2)
    prefix_sum_rows(x)
    assert np.array_equal(x, expected)
    assert np.array_equal(np.signbit(x), np.signbit(expected))


def test_prefix_sum_rows_writes_through_a_strided_region(rng):
    """ColumnScanSpec hands it a sub-region view of the buffer."""
    buf = _wide_range_floats(rng, (20, ROW_SWEEP_MIN_COLS + 40))
    expected = buf.copy()
    expected[3:17, 8:] = np.cumsum(expected[3:17, 8:], axis=0)
    prefix_sum_rows(buf[3:17, 8:])
    assert np.array_equal(buf, expected)


@pytest.mark.parametrize("cols", [ROW_SWEEP_MIN_COLS - 1, ROW_SWEEP_MIN_COLS + 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_prefix_sum_rows_out_leaves_its_input_and_matches_cumsum(rng, cols, dtype):
    """The serving store scans ``raw`` into ``local`` through strided
    ``(bands, t, cols)`` views of two row-major matrices."""
    if dtype is np.int64:
        src = rng.integers(-2**40, 2**40, size=(24, cols + 4), dtype=np.int64)
    else:
        src = (_wide_range_floats(rng, (24, cols + 4)) * 1e6).astype(dtype)
        src.reshape(-1)[::5] = -0.0
    before = src.copy()
    dst = np.full_like(src, 7)
    x = src[:, 2 : cols + 2].reshape(3, 8, cols)
    out = dst[:, 2 : cols + 2].reshape(3, 8, cols)
    prefix_sum_rows(x, out=out)
    expected = np.cumsum(x, axis=-2)
    assert np.array_equal(out.view(np.uint8), expected.view(np.uint8))
    assert np.array_equal(src, before)
    assert (dst[:, :2] == 7).all() and (dst[:, cols + 2 :] == 7).all()


def test_fusion_actually_engages(rng):
    """Guard against silent fallback: the cached plans must carry fused
    specs covering (nearly) all tasks, not degenerate to per-task lists."""
    a = rng.integers(0, 9, size=(32, 32)).astype(np.float64)
    for algo in ALL_ALGORITHMS:
        engine = fresh_engine()
        algo.compute(a, PARAMS, engine=engine)
        plan = engine.plan_for(
            algo, 32, 32, PARAMS, input_buffer="A"
        )
        kernel_ops = [op for op in plan.ops if hasattr(op, "tasks")]
        assert kernel_ops
        specs = 0
        for op in kernel_ops:
            schedule = op.fused_schedule()
            specs += sum(
                1 for item in schedule if getattr(item, "fused_spec", False)
            )
        assert specs > 0, f"{algo.name}: no kernel fused at all"


def test_fused_run_refuses_faulty_executors():
    """The fused path must never absorb fault/retry state."""
    retrying = HMMExecutor(PARAMS, max_task_retries=2)
    with pytest.raises(ValueError):
        retrying.run_kernel_fused((), 0, AccessCounters())


class _CountingSpec(FusedKernelSpec):
    def __init__(self):
        self.calls = 0

    def execute(self, gm):
        self.calls += 1


def _task(spec):
    t = lambda ctx: None
    t._fused_group = spec
    return t


def test_build_fused_schedule_groups_complete_runs():
    spec = _CountingSpec()
    spec.num_tasks = 3
    plain = lambda ctx: None
    tasks = [plain, _task(spec), _task(spec), _task(spec), plain]
    schedule = build_fused_schedule(tasks)
    assert schedule == (plain, spec, plain)


def test_build_fused_schedule_rejects_partial_groups():
    """A split or truncated group falls back to its per-task closures."""
    spec = _CountingSpec()
    spec.num_tasks = 3
    t1, t2, t3 = _task(spec), _task(spec), _task(spec)
    plain = lambda ctx: None
    schedule = build_fused_schedule([t1, t2, plain, t3])
    assert schedule == (t1, t2, plain, t3)


def test_fused_counters_are_applied_wholesale():
    executor = HMMExecutor(PARAMS)
    spec = _CountingSpec()
    spec.num_tasks = 2
    tally = AccessCounters()
    tally.coalesced_elements = 640
    tally.stride_ops = 5
    tally.blocks_executed = 2
    trace = executor.run_kernel_fused((spec,), 2, tally, label="k")
    assert spec.calls == 1
    assert trace.label == "k"
    assert trace.blocks == 2
    assert executor.counters.coalesced_elements == 640
    assert executor.counters.stride_ops == 5
    assert executor.counters.kernels_launched == 1
    assert executor.counters.barriers == 0  # first kernel has no barrier
    ran = []
    executor.run_kernel_fused(
        (lambda ctx: ran.append(ctx.block_index),), 1, AccessCounters(),
        label="k2",
    )
    assert ran == [0]  # a plain task in the schedule runs
    assert executor.counters.barriers == 1
    assert executor.counters.kernels_launched == 2
