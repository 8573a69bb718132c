"""End-to-end wiring: instrumented layers actually hit the registry.

These tests run real workloads (engine computes, batches, streams) under
``enabled_scope`` / ``obs=`` and assert the instrumentation points fired —
and, just as importantly, that nothing records when observability is off.
"""

import numpy as np

from repro.machine.engine import ExecutionEngine, PlanCache
from repro.machine.params import MachineParams
from repro.obs import runtime
from repro.sat import BatchSession, make_algorithm
from repro.sat.out_of_core import (
    sat_out_of_core,
    sat_out_of_core_resilient,
    sat_streamed,
)

PARAMS = MachineParams(width=8, latency=16)


def fresh_engine():
    return ExecutionEngine(cache=PlanCache())


class TestDefaultOff:
    def test_compute_records_nothing_by_default(self, rng):
        a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
        engine = fresh_engine()
        algo = make_algorithm("1R1W")
        algo.compute(a, PARAMS, engine=engine)
        algo.compute(a, PARAMS, engine=engine, fast=True)
        assert runtime.registry().series_names() == []
        assert len(runtime.spans()) == 0

    def test_obs_false_silences_inside_an_enabled_process(self, rng):
        a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
        runtime.enable()
        make_algorithm("1R1W").compute(a, PARAMS, engine=fresh_engine(), obs=False)
        assert runtime.registry().series_names() == []


class TestComputeWiring:
    def test_cold_compute_records_compile_kernels_and_cache_miss(self, rng):
        a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
        result = make_algorithm("1R1W").compute(
            a, PARAMS, engine=fresh_engine(), obs=True
        )
        reg = runtime.registry()
        assert reg.counter_value("plan_compiles_total", algorithm="1R1W") == 1.0
        assert reg.counter_value("plan_cache_misses_total") == 1.0
        assert reg.counter_value("plan_cache_hits_total") == 0.0
        assert reg.gauge_value("plan_cache_size") == 1.0
        assert (
            reg.counter_value("sat_computes_total", algorithm="1R1W", mode="counted")
            == 1.0
        )
        # Kernel instrumentation sees every launch with the counted tally.
        assert (
            reg.counter_value("kernel_launches_total", mode="counted")
            == result.counters.kernels_launched
        )
        spans = runtime.spans()
        assert "plan_compile" in spans.names()
        assert "sat_compute" in spans.names()
        kernel_spans = spans.tail(name="kernel")
        assert len(kernel_spans) == result.counters.kernels_launched
        assert (
            sum(s.attrs["coalesced"] for s in kernel_spans)
            == result.counters.coalesced_elements
        )

    def test_warm_fused_compute_records_hit_and_fused_kernels(self, rng):
        a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
        engine = fresh_engine()
        algo = make_algorithm("1R1W")
        algo.compute(a, PARAMS, engine=engine)  # cold, unrecorded
        algo.compute(a, PARAMS, engine=engine, fast=True, obs=True)
        reg = runtime.registry()
        assert reg.counter_value("plan_cache_hits_total") == 1.0
        assert reg.counter_total("plan_compiles_total") == 0.0
        assert reg.counter_value("kernel_launches_total", mode="fused") > 0
        assert reg.counter_value("kernel_launches_total", mode="counted") == 0.0
        assert (
            reg.counter_value("sat_computes_total", algorithm="1R1W", mode="fused")
            == 1.0
        )
        assert "fused_build" in runtime.spans().names()

    def test_direct_mode_is_labelled_direct(self, rng):
        a = rng.integers(0, 9, size=(16, 16)).astype(np.float64)
        make_algorithm("1R1W").compute(
            a, PARAMS, use_plan_cache=False, obs=True
        )
        assert (
            runtime.registry().counter_value(
                "sat_computes_total", algorithm="1R1W", mode="direct"
            )
            == 1.0
        )


class TestBatchWiring:
    def test_serial_batch_records_counts_and_roundtrips(self, rng):
        mats = [
            rng.integers(0, 9, size=(16, 16)).astype(np.float64) for _ in range(3)
        ]
        with runtime.enabled_scope(True):
            with BatchSession("1R1W", PARAMS, workers=1) as session:
                list(session.map(mats))
        reg = runtime.registry()
        assert reg.counter_value("batch_batches_total", mode="serial") == 1.0
        assert reg.counter_value("batch_matrices_total", mode="serial") == 3.0
        assert reg.histogram("batch_roundtrip_seconds", mode="serial").count == 3
        assert "batch_map" in runtime.spans().names()


class TestStreamingWiring:
    def test_plain_stream_records_bands_and_prefetches(self):
        a = np.ones((16, 8))
        with runtime.enabled_scope(True):
            for _ in sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 4, prefetch_depth=1
            ):
                pass
        reg = runtime.registry()
        assert reg.counter_value("stream_bands_total", resilient="false") == 4.0
        assert reg.counter_value("band_prefetches_total") == 4.0
        assert reg.histogram("band_fetch_wait_seconds").count == 4
        assert "band_compute" in runtime.spans().names()

    def test_unprefetched_stream_records_no_fetch_waits(self):
        a = np.ones((16, 8))
        with runtime.enabled_scope(True):
            sat_out_of_core(a, 4)
        reg = runtime.registry()
        assert reg.counter_value("band_prefetches_total") == 0.0
        assert reg.histogram("band_fetch_wait_seconds") is None
        assert reg.counter_value("stream_bands_total", resilient="false") == 4.0

    def test_resilient_stream_records_retries_degrades_checkpoints(self):
        from repro.errors import TransientFault
        from repro.sat.out_of_core import StreamReport, sat_streamed_resilient

        a = np.ones((16, 8))
        calls = {"n": 0}

        def flaky_band_sat(band):
            calls["n"] += 1
            raise TransientFault("kernel fault")  # every attempt fails

        report = StreamReport()
        with runtime.enabled_scope(True):
            for _ in sat_streamed_resilient(
                lambda r0, r1: a[r0:r1], a.shape, 8,
                band_sat=flaky_band_sat, max_band_attempts=2,
                on_checkpoint=lambda cp: None, report=report,
            ):
                pass
        reg = runtime.registry()
        assert reg.counter_value("stream_bands_total", resilient="true") == 2.0
        assert reg.counter_value("stream_band_retries_total") == 2.0  # 1 per band
        assert reg.counter_value("stream_degraded_bands_total") == 2.0
        assert reg.counter_value("stream_checkpoints_total") == 2.0
        assert report.degraded

    def test_healthy_resilient_stream_records_no_faults(self):
        a = np.ones((16, 8))
        with runtime.enabled_scope(True):
            sat, report = sat_out_of_core_resilient(a, 4)
        reg = runtime.registry()
        assert reg.counter_value("stream_bands_total", resilient="true") == 4.0
        assert reg.counter_value("stream_band_retries_total") == 0.0
        assert reg.counter_value("stream_degraded_bands_total") == 0.0
        assert not report.degraded
