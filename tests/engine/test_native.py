"""The native JIT/C backend: selection, lowering, fallback, bit-identity.

Three layers under test:

* **selection** — how ``fused=True/False/"numpy"/"native"`` and the
  ``REPRO_FUSED_BACKEND`` / ``REPRO_NATIVE_JIT`` environment variables
  resolve to an execution path, including the graceful-degradation
  contract: on a host without any JIT toolchain, ``fused="native"``
  must run the numpy fused path bit-identically, warn exactly once per
  process, and count the fallback in the observability registry;
* **lowering** — fused specs become :class:`NativeGroup` bindings, the
  per-plan native schedule is cached like the fused schedule, and
  unknown specs keep their numpy execution (partial lowering stays
  correct);
* **execution** — where a toolchain exists (cffi + cc in this image,
  numba in the CI native-backend job), the compiled kernels must be
  bit-identical to the counted reference, and the individual kernels
  must match the numpy operations they lower.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machine.engine import ExecutionEngine, PlanCache, native_stats
from repro.machine.engine import native
from repro.machine.engine.plan import KernelPlan
from repro.machine.params import MachineParams
from repro.obs import runtime as obs_runtime
from repro.sat import ALGORITHM_NAMES, make_algorithm

PARAMS = MachineParams(width=8, latency=16)


@pytest.fixture
def clean_native():
    """Reset backend resolution before and after, restoring real state."""
    native.reset()
    yield
    native.reset()


def fresh_engine() -> ExecutionEngine:
    return ExecutionEngine(cache=PlanCache())


class TestOneThread:
    def test_before_load_resolves_nothing(self, clean_native):
        assert native_stats()["one_thread"] is False
        native.use_one_thread()
        stats = native_stats()
        assert stats["resolved"] is False
        assert stats["one_thread"] is True


class TestBackendSelection:
    def test_resolve_false_stays_false(self):
        assert native.resolve_fused(False) is False

    def test_resolve_true_defaults_to_numpy(self, monkeypatch):
        monkeypatch.delenv(native.BACKEND_ENV_VAR, raising=False)
        assert native.resolve_fused(True) == "numpy"

    def test_resolve_true_honors_env_default(self, monkeypatch):
        monkeypatch.setenv(native.BACKEND_ENV_VAR, "native")
        assert native.resolve_fused(True) == "native"

    def test_explicit_string_beats_env(self, monkeypatch):
        monkeypatch.setenv(native.BACKEND_ENV_VAR, "native")
        assert native.resolve_fused("numpy") == "numpy"

    def test_strings_are_case_insensitive(self):
        assert native.resolve_fused("Native") == "native"

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            native.resolve_fused("fortran")
        with pytest.raises(ConfigurationError):
            native.resolve_fused(3)
        monkeypatch.setenv(native.BACKEND_ENV_VAR, "fortran")
        with pytest.raises(ConfigurationError):
            native.resolve_fused(True)

    def test_invalid_jit_preference_raises(self, monkeypatch, clean_native):
        monkeypatch.setenv(native.JIT_ENV_VAR, "tcc")
        with pytest.raises(ConfigurationError):
            native.ensure_backend()


class TestGracefulFallback:
    """fused="native" without a JIT toolchain: the degradation contract."""

    def test_fallback_is_bit_identical_warns_once_and_counts(
        self, monkeypatch, clean_native, rng
    ):
        monkeypatch.setenv(native.JIT_ENV_VAR, "none")  # no-toolchain host
        a = rng.integers(0, 50, size=(16, 16)).astype(np.float64)
        algo = make_algorithm("2R1W")
        engine = fresh_engine()
        obs_runtime.reset()
        with obs_runtime.enabled_scope(True):
            counted = algo.compute(a, PARAMS, engine=engine)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = algo.compute(
                    a, PARAMS, engine=engine, fast=True, fused="native"
                )
                second = algo.compute(
                    a, PARAMS, engine=engine, fast=True, fused="native"
                )
            fallbacks = obs_runtime.registry().counter_value(
                "native_fallbacks_total"
            )
        ours = [
            w for w in caught
            if issubclass(w.category, native.NativeBackendUnavailable)
        ]
        assert len(ours) == 1  # warned exactly once across repeated use
        assert "falling back" in str(ours[0].message)
        assert np.array_equal(first.sat, counted.sat)
        assert np.array_equal(second.sat, counted.sat)
        assert first.counters.as_dict() == counted.counters.as_dict()
        assert fallbacks >= 2  # every degraded compute is counted
        stats = native_stats()
        assert stats["available"] is False
        assert "none" in stats["failure"]

    def test_fallback_mode_is_reported_as_fused(self, monkeypatch, clean_native, rng):
        # The observability mode tag must name the path that actually ran.
        monkeypatch.setenv(native.JIT_ENV_VAR, "none")
        a = rng.integers(0, 50, size=(16, 16)).astype(np.float64)
        algo = make_algorithm("1R1W")
        engine = fresh_engine()
        obs_runtime.reset()
        with obs_runtime.enabled_scope(True):
            algo.compute(a, PARAMS, engine=engine)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                algo.compute(a, PARAMS, engine=engine, fast=True, fused="native")
            reg = obs_runtime.registry()
            assert (
                reg.counter_value(
                    "sat_computes_total", algorithm="1R1W", mode="fused"
                )
                == 1
            )
            assert (
                reg.counter_value(
                    "sat_computes_total", algorithm="1R1W", mode="native"
                )
                == 0
            )


class TestLowering:
    def test_generated_source_contains_every_kernel(self):
        src = native.generate_c_source()
        for symbol in (
            "repro_set_threads",
            "repro_pairwise",
            "repro_tile_sat",
            "repro_column_scan",
            "repro_row_scan",
            "repro_transpose",
            "repro_single_block_sat",
            "repro_scatter_stage",
            "repro_step1",
            "repro_step3",
            "repro_block_stage",
            "repro_triangle_sums",
            "repro_triangle_fix",
        ):
            assert symbol in src
        # IEEE-ordering guard: contraction must be disabled at compile
        # time, so no fma() may sneak into the source either.
        assert "fma(" not in src

    def test_unknown_spec_keeps_numpy_execution(self):
        class OddSpec:
            fused_spec = True
            num_tasks = 3

        schedule = native.build_native_schedule((OddSpec(),), backend=object())
        assert len(schedule) == 1
        assert isinstance(schedule[0], OddSpec)  # untouched, still executable

    def test_plain_tasks_pass_through(self):
        task = lambda ctx: None  # noqa: E731
        schedule = native.build_native_schedule((task,), backend=object())
        assert schedule == (task,)

    def test_native_group_duck_types_fused_spec(self):
        class Spec:
            fused_spec = True
            num_tasks = 7

        group = native.NativeGroup(Spec(), run=lambda gm: None)
        assert group.fused_spec is True
        assert group.num_tasks == 7

    def test_native_schedule_cached_on_plan(self):
        available = native.ensure_backend()
        if available is None:
            pytest.skip("no JIT toolchain in this environment")
        algo = make_algorithm("2R1W")
        engine = fresh_engine()
        a = np.arange(64, dtype=np.float64).reshape(8, 8)
        small = MachineParams(width=4, latency=3)
        algo.compute(a, small, engine=engine)
        plan = engine.plan_for(algo, 8, 8, small, input_buffer="A")
        kernel = next(op for op in plan.ops if isinstance(op, KernelPlan))
        first = kernel.native_schedule(available)
        assert kernel.native_schedule(available) is first  # built once


needs_toolchain = pytest.mark.skipif(
    not native.native_available(), reason="no JIT toolchain in this environment"
)


@needs_toolchain
class TestNativeExecution:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_bit_identical_to_counted_reference(self, name, rng):
        algo = make_algorithm(name, **({"p": 0.5} if name == "kR1W" else {}))
        a = rng.standard_normal((24, 24))  # floats: the hard case
        engine = fresh_engine()
        counted = algo.compute(a, PARAMS, engine=engine)
        result = algo.compute(a, PARAMS, engine=engine, fast=True, fused="native")
        assert np.array_equal(result.sat, counted.sat)
        assert result.counters.as_dict() == counted.counters.as_dict()

    @pytest.mark.parametrize("name", ["2R1W", "1R1W", "4R1W"])
    def test_fortran_ordered_input(self, name, rng):
        # Global memory is row-major whatever the input's layout; the
        # native kernels take C-contiguous buffers only.
        a = np.asfortranarray(rng.standard_normal((24, 24)))
        algo = make_algorithm(name)
        engine = fresh_engine()
        counted = algo.compute(a, PARAMS, engine=engine)
        result = algo.compute(a, PARAMS, engine=engine, fast=True, fused="native")
        assert np.array_equal(result.sat, counted.sat)

    def test_mode_tagged_native_in_observability(self, rng):
        a = rng.integers(0, 50, size=(16, 16)).astype(np.float64)
        algo = make_algorithm("2R1W")
        engine = fresh_engine()
        obs_runtime.reset()
        with obs_runtime.enabled_scope(True):
            algo.compute(a, PARAMS, engine=engine)
            algo.compute(a, PARAMS, engine=engine, fast=True, fused="native")
            reg = obs_runtime.registry()
            assert (
                reg.counter_value(
                    "sat_computes_total", algorithm="2R1W", mode="native"
                )
                == 1
            )

    def test_stats_report_lowered_groups(self, rng):
        before = native_stats()["lowered_groups"]
        a = rng.integers(0, 50, size=(16, 16)).astype(np.float64)
        algo = make_algorithm("1R1W")
        engine = fresh_engine()
        algo.compute(a, PARAMS, engine=engine)
        algo.compute(a, PARAMS, engine=engine, fast=True, fused="native")
        after = native_stats()
        assert after["available"] is True
        assert after["lowered_groups"] > before
        assert after["toolchain"] in ("numba", "cffi")


@needs_toolchain
class TestKernelUnits:
    """Each compiled kernel against the numpy operation it lowers."""

    @pytest.fixture()
    def backend(self):
        return native.ensure_backend()

    def test_column_scan_matches_cumsum(self, backend, rng):
        a = rng.standard_normal((13, 17))
        expected = a.copy()
        region = expected[2:11, 3:15]
        np.cumsum(region, axis=0, out=region)
        backend.column_scan(a, 2, 3, 9, 12)
        assert np.array_equal(a, expected)

    def test_row_scan_matches_cumsum(self, backend, rng):
        a = rng.standard_normal((9, 21))
        expected = a.copy()
        np.cumsum(expected[:7, :19], axis=1, out=expected[:7, :19])
        backend.row_scan(a, 7, 19)
        assert np.array_equal(a, expected)

    def test_transpose(self, backend, rng):
        src = rng.standard_normal((11, 5))
        dst = np.zeros((5, 11))
        backend.transpose(dst, src)
        assert np.array_equal(dst, src.T)

    def test_single_block_sat(self, backend, rng):
        a = rng.standard_normal((8, 8))
        expected = a.copy()
        region = expected[:6, :6]
        np.cumsum(region, axis=0, out=region)
        np.cumsum(region, axis=1, out=region)
        backend.single_block_sat(a, 6)
        assert np.array_equal(a, expected)

    def test_scatter_stage_applies_formula_one(self, backend, rng):
        a = rng.standard_normal((6, 6))
        expected = a.copy()
        i = np.array([0, 1, 2], dtype=np.int64)
        j = np.array([2, 1, 0], dtype=np.int64)
        vals = expected[i, j].copy()
        vals[0] += expected[0, 1]  # j>0 neighbor
        vals[1] += expected[1, 0] + expected[0, 1] - expected[0, 0]
        vals[2] += expected[1, 0]  # i>0 neighbor
        expected[i, j] = vals
        backend.scatter_stage(a, i, j)
        assert np.array_equal(a, expected)

    def test_pairwise_reductions_match_numpy_sum(self, backend, rng):
        # step1's row totals lower np.sum over the contiguous last axis;
        # numpy uses pairwise summation there, and bit-identity depends
        # on replicating it. w=16 rows exercise the 8-accumulator base
        # case; the (m*m, w*w) totals at w=16 exercise the recursive
        # split (256 > 128).
        m, w = 3, 16
        n = m * w
        a = rng.standard_normal((n, n))
        c = np.zeros((m - 1, n))
        rt = np.zeros((m - 1, n))
        mm = np.zeros((m - 1, m - 1))
        tiles = np.ascontiguousarray(
            a.reshape(m, w, m, w).transpose(0, 2, 1, 3)
        )
        exp_c = tiles.sum(axis=2).reshape(m, n)[: m - 1]
        exp_rt = tiles.sum(axis=3).transpose(1, 0, 2).reshape(m, n)[: m - 1]
        exp_mm = (
            tiles.reshape(m * m, w * w).sum(axis=1).reshape(m, m)[: m - 1, : m - 1]
        )
        backend.step1(a, c, rt, mm, m, w)
        assert np.array_equal(c, exp_c)
        assert np.array_equal(rt, exp_rt)
        assert np.array_equal(mm, exp_mm)
