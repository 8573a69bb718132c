"""Cross-algorithm correctness: every HMM algorithm equals the oracle."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.macro.executor import HMMExecutor
from repro.machine.params import MachineParams
from repro.sat import ALGORITHM_NAMES, make_algorithm
from repro.sat.reference import assert_sat_equal, sat_reference
from repro.util.matrices import (
    FIGURE3_INPUT,
    gradient_matrix,
    ones_matrix,
    random_matrix,
)

ALL_ALGOS = ALGORITHM_NAMES  # 2R2W, 4R4W, 4R1W, 2R1W, 1R1W, 1.25R1W


@pytest.fixture(params=[MachineParams(width=4, latency=5), MachineParams(width=8, latency=11)])
def params(request):
    return request.param


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL_ALGOS)
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 5])
    def test_random_matrices(self, name, n_blocks, params):
        n = n_blocks * params.width
        a = random_matrix(n, seed=n_blocks)
        result = make_algorithm(name).compute(a, params)
        assert_sat_equal(result.sat, a)

    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_ones_matrix_closed_form(self, name, params):
        n = 3 * params.width
        result = make_algorithm(name).compute(ones_matrix(n), params)
        i, j = np.mgrid[0:n, 0:n]
        assert np.allclose(result.sat, (i + 1.0) * (j + 1.0))

    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_gradient_matrix(self, name, params):
        n = 2 * params.width
        a = gradient_matrix(n)
        result = make_algorithm(name).compute(a, params)
        assert_sat_equal(result.sat, a)

    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_zero_matrix(self, name, params):
        n = params.width
        result = make_algorithm(name).compute(np.zeros((n, n)), params)
        assert (result.sat == 0).all()

    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_negative_values(self, name, params):
        n = 2 * params.width
        a = random_matrix(n, seed=9) - 0.5
        result = make_algorithm(name).compute(a, params)
        assert_sat_equal(result.sat, a)

    @pytest.mark.parametrize("name", ["2R1W", "1R1W", "1.25R1W"])
    def test_figure3_matrix_with_w3(self, name):
        """The paper's 9x9 example runs at w=3 (3x3 blocks of 3x3)."""
        params = MachineParams(width=3, latency=2)
        result = make_algorithm(name).compute(FIGURE3_INPUT, params)
        assert_sat_equal(result.sat, FIGURE3_INPUT)
        assert result.sat[-1, -1] == 71


class TestAsynchrony:
    """Results must not depend on the (randomized) block execution order."""

    @pytest.mark.parametrize("name", ALL_ALGOS)
    def test_block_order_invariance(self, name):
        params = MachineParams(width=4, latency=5)
        a = random_matrix(16, seed=0)
        sats = [
            make_algorithm(name).compute(a, params, seed=seed).sat for seed in range(4)
        ]
        for s in sats[1:]:
            assert np.array_equal(sats[0], s)


class TestResultObject:
    def test_summary_mentions_algorithm(self):
        params = MachineParams(width=4, latency=5)
        res = make_algorithm("1R1W").compute(random_matrix(8), params)
        assert "1R1W" in res.summary()
        assert res.n == 8

    def test_cost_positive_and_decomposes(self):
        params = MachineParams(width=4, latency=5)
        res = make_algorithm("2R1W").compute(random_matrix(16), params)
        assert res.cost > 0
        assert np.isclose(res.breakdown.total, res.cost)

    def test_cost_exact_uses_transactions(self):
        params = MachineParams(width=4, latency=5)
        res = make_algorithm("4R4W").compute(random_matrix(8), params)
        assert res.cost_exact >= res.breakdown.latency

    def test_input_not_mutated(self):
        params = MachineParams(width=4, latency=5)
        a = random_matrix(8)
        before = a.copy()
        make_algorithm("2R2W").compute(a, params)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("name", ALL_ALGOS)
    @pytest.mark.parametrize(
        "path",
        [
            {"use_plan_cache": False},
            {},
            {"fast": True, "fused": "numpy"},
            {"fast": True, "fused": "native"},
        ],
        ids=["direct", "counted", "fused", "native"],
    )
    @pytest.mark.parametrize("kind", ["float64", "fortran", "readonly", "int"])
    def test_result_owns_its_memory(self, name, path, kind):
        """compute copies its input once and hands that copy back as the
        SAT: the input is never written, and no result shares memory with
        the input or with another call's result."""
        params = MachineParams(width=4, latency=5)
        a = random_matrix(8, seed=3, dtype=np.int64 if kind == "int" else np.float64)
        if kind == "fortran":
            a = np.asfortranarray(a)
        elif kind == "readonly":
            a.setflags(write=False)
        before = a.copy()
        algo = make_algorithm(name)
        engine = ExecutionEngine(cache=PlanCache())
        algo.compute(a, params, engine=engine)  # plan and per-kernel tallies
        first = algo.compute(a, params, engine=engine, **path)
        second = algo.compute(a, params, engine=engine, **path)
        assert np.array_equal(a, before)
        assert_sat_equal(first.sat, before)
        assert not np.shares_memory(first.sat, a)
        assert not np.shares_memory(second.sat, a)
        assert not np.shares_memory(first.sat, second.sat)

    def test_result_is_a_copy_of_a_supplied_executor_buffer(self):
        """A caller's executor outlives the call, so its buffer stays its own."""
        params = MachineParams(width=4, latency=5)
        a = random_matrix(8)
        executor = HMMExecutor(params)
        result = make_algorithm("1R1W").compute(a, params, executor=executor)
        assert not np.shares_memory(result.sat, executor.gm.array("A"))
        assert np.array_equal(result.sat, executor.gm.array("A"))

    def test_reads_writes_per_element_ordering(self):
        """1R1W must touch fewer global words per element than 2R1W, which
        must touch fewer than 2R2W (the paper's naming scheme)."""
        params = MachineParams(width=32, latency=5)
        a = random_matrix(256)
        by_name = {
            name: make_algorithm(name).compute(a, params).reads_writes_per_element
            for name in ("1R1W", "2R1W", "2R2W", "4R4W")
        }
        assert by_name["1R1W"] < by_name["2R1W"] < by_name["2R2W"] < by_name["4R4W"]


class TestRectangular:
    """Extension: 2R2W, 4R1W, and 1R1W accept non-square matrices."""

    @pytest.mark.parametrize("name", ["2R2W", "4R4W", "1R1W"])
    @pytest.mark.parametrize("shape", [(8, 16), (16, 8), (4, 24)])
    def test_block_multiples(self, name, shape):
        params = MachineParams(width=4, latency=3)
        a = random_matrix(shape[0], m=shape[1], seed=1)
        result = make_algorithm(name).compute(a, params)
        assert result.sat.shape == shape
        assert_sat_equal(result.sat, a)

    def test_4r1w_arbitrary_shape(self):
        params = MachineParams(width=4, latency=3)
        a = random_matrix(5, m=11, seed=2)
        assert_sat_equal(make_algorithm("4R1W").compute(a, params).sat, a)

    def test_1r1w_rectangular_barriers(self):
        """Stages = block_rows + block_cols - 1 on rectangles."""
        params = MachineParams(width=4, latency=3)
        a = random_matrix(8, m=24, seed=3)  # 2 x 6 blocks -> 7 stages
        result = make_algorithm("1R1W").compute(a, params)
        assert result.counters.kernels_launched == 7


class TestValidation:
    def test_non_square_rejected_for_square_only_algos(self):
        with pytest.raises(ShapeError):
            make_algorithm("2R1W").compute(np.zeros((4, 8)), MachineParams(width=4))
        with pytest.raises(ShapeError):
            make_algorithm("1.25R1W").compute(np.zeros((4, 8)), MachineParams(width=4))

    def test_non_multiple_rejected_for_block_algos(self):
        with pytest.raises(ShapeError):
            make_algorithm("1R1W").compute(np.zeros((6, 6)), MachineParams(width=4))

    def test_4r1w_accepts_any_size(self):
        params = MachineParams(width=4, latency=2)
        a = random_matrix(6)
        res = make_algorithm("4R1W").compute(a, params)
        assert_sat_equal(res.sat, a)

    def test_unknown_algorithm(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_algorithm("3R3W")

    def test_executor_buffer_collision(self):
        from repro.machine.macro.executor import HMMExecutor

        params = MachineParams(width=4, latency=2)
        ex = HMMExecutor(params)
        ex.gm.alloc("A", (4, 4))
        with pytest.raises(ShapeError):
            make_algorithm("2R2W").compute(np.zeros((4, 4)), params, executor=ex)
