"""Pipelined (double-buffered) out-of-core streaming."""

import threading

import numpy as np
import pytest

from repro.errors import RetryExhausted, ShapeError, TransientFault
from repro.faults import FaultInjector, FaultPlan
from repro.sat.out_of_core import (
    BandPrefetcher,
    ResilientBandProvider,
    StreamReport,
    _band_spans,
    sat_streamed,
)
from repro.sat.reference import sat_reference


def collect(stream, shape):
    out = np.full(shape, np.nan)
    for row0, band in stream:
        out[row0 : row0 + band.shape[0]] = band
    return out


def integer_matrix(rng, shape):
    """Integer-valued input so banded and full summation agree bitwise."""
    return rng.integers(0, 100, size=shape).astype(np.float64)


class TestBandSpans:
    def test_covers_the_matrix_in_order(self):
        assert _band_spans(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_resume_offset(self):
        assert _band_spans(10, 4, start_row=4) == [(4, 8), (8, 10)]


class TestBandPrefetcher:
    def test_serves_bands_in_order(self, rng):
        a = integer_matrix(rng, (20, 6))
        spans = _band_spans(20, 8)
        prefetcher = BandPrefetcher(lambda r0, r1: a[r0:r1], spans, depth=2)
        try:
            for row0, row1 in spans:
                assert np.array_equal(prefetcher.fetch(row0, row1), a[row0:row1])
        finally:
            prefetcher.close()

    def test_out_of_order_fetch_rejected(self, rng):
        a = integer_matrix(rng, (16, 4))
        spans = _band_spans(16, 8)
        prefetcher = BandPrefetcher(lambda r0, r1: a[r0:r1], spans)
        try:
            with pytest.raises(ShapeError):
                prefetcher.fetch(8, 16)
        finally:
            prefetcher.close()

    def test_depth_must_be_positive(self):
        with pytest.raises(ShapeError):
            BandPrefetcher(lambda r0, r1: None, [(0, 4)], depth=0)

    def test_provider_runs_off_the_consumer_thread(self, rng):
        a = integer_matrix(rng, (8, 4))
        threads = []

        def provider(r0, r1):
            threads.append(threading.current_thread())
            return a[r0:r1]

        out = collect(sat_streamed(provider, a.shape, 4, prefetch_depth=1), a.shape)
        assert np.array_equal(out, sat_reference(a))
        assert all(t is not threading.main_thread() for t in threads)


RESILIENT = {"max_band_attempts": 3, "oracle_fallback": True}


class TestPipelinedStreams:
    @pytest.mark.parametrize(
        "depth, resilience",
        [(1, {}), (2, {}), (3, {}), (0, RESILIENT), (1, RESILIENT), (2, RESILIENT)],
        ids=["1", "2", "3", "resilient-0", "resilient-1", "resilient-2"],
    )
    def test_pipelined_equals_serial(self, rng, depth, resilience):
        a = integer_matrix(rng, (37, 21))
        provider = lambda r0, r1: a[r0:r1]
        serial = collect(sat_streamed(provider, a.shape, 8), a.shape)
        pipelined = collect(
            sat_streamed(provider, a.shape, 8, prefetch_depth=depth, **resilience),
            a.shape,
        )
        assert np.array_equal(pipelined, serial)
        assert np.array_equal(pipelined, sat_reference(a))

    def test_provider_error_surfaces_at_the_failing_band(self, rng):
        a = integer_matrix(rng, (32, 8))

        def bad(r0, r1):
            if r0 >= 16:
                raise RetryExhausted("disk gone")
            return a[r0:r1]

        seen = []
        with pytest.raises(RetryExhausted):
            for row0, _band in sat_streamed(bad, a.shape, 8, prefetch_depth=2):
                seen.append(row0)
        # All bands before the failing one were still delivered, even
        # though the prefetcher hit the error while they were consumed.
        assert seen == [0, 8]

    def test_retry_exhausted_surfaces_under_fault_injection(self, rng):
        """PR 1's injector + PR 2's prefetcher: a persistent fault must
        end in RetryExhausted, never a hang or a silently wrong answer."""
        a = integer_matrix(rng, (32, 8))
        plan = FaultPlan(seed=5, provider_failure_rate=1.0)  # always faulting
        injector = FaultInjector(plan)
        provider = ResilientBandProvider(
            injector.wrap_provider(lambda r0, r1: a[r0:r1]), max_retries=2
        )
        with pytest.raises(RetryExhausted):
            collect(
                sat_streamed(provider, a.shape, 8, prefetch_depth=1, **RESILIENT),
                a.shape,
            )

    def test_transient_faults_recover_under_prefetch(self, rng):
        a = integer_matrix(rng, (40, 8))
        plan = FaultPlan(seed=3, provider_failure_rate=0.3)
        injector = FaultInjector(plan)
        provider = ResilientBandProvider(
            injector.wrap_provider(lambda r0, r1: a[r0:r1]), max_retries=8
        )
        out = collect(
            sat_streamed(provider, a.shape, 8, prefetch_depth=2, **RESILIENT),
            a.shape,
        )
        assert np.array_equal(out, sat_reference(a))
        assert injector.stats["provider_failures"] > 0

    def test_degrade_to_oracle_still_works_under_prefetch(self, rng):
        a = integer_matrix(rng, (24, 8))

        def broken_band_sat(band):
            raise TransientFault("kernel always faults")

        report = StreamReport()
        out = collect(
            sat_streamed(
                lambda r0, r1: a[r0:r1],
                a.shape,
                8,
                band_sat=broken_band_sat,
                max_band_attempts=2,
                oracle_fallback=True,
                prefetch_depth=1,
                report=report,
            ),
            a.shape,
        )
        assert np.array_equal(out, sat_reference(a))
        assert report.degraded_bands == [0, 8, 16]

    def test_early_consumer_exit_shuts_the_prefetcher_down(self, rng):
        a = integer_matrix(rng, (64, 8))
        stream = sat_streamed(lambda r0, r1: a[r0:r1], a.shape, 8, prefetch_depth=2)
        next(stream)
        stream.close()  # generator finalizer must close the worker cleanly
        live = [
            t
            for t in threading.enumerate()
            if t.name.startswith("band-prefetch") and t.is_alive()
        ]
        for t in live:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in live)


class TestCopyBands:
    def test_default_still_copies_defensively(self, rng):
        a = integer_matrix(rng, (16, 4))
        received = []

        def spying_band_sat(band):
            received.append(band)
            return sat_reference(band)

        collect(
            sat_streamed(lambda r0, r1: a[r0:r1], a.shape, 8, band_sat=spying_band_sat),
            a.shape,
        )
        assert not any(np.shares_memory(band, a) for band in received)

    def test_resilient_zero_copy_keeps_retries_safe(self, rng):
        """Every band_sat attempt gets a private copy, so an in-place
        kernel cannot corrupt the retry, even when the provider returns
        views of the source."""
        a = integer_matrix(rng, (16, 4))
        attempts = {"n": 0}

        def mutating_then_failing(band):
            band += 1000.0  # in-place damage to whatever it was given
            attempts["n"] += 1
            if attempts["n"] % 2 == 1:
                raise TransientFault("first attempt dies after mutating")
            return sat_reference(band - 1000.0)

        original = a.copy()
        out = collect(
            sat_streamed(
                lambda r0, r1: a[r0:r1],
                a.shape,
                8,
                band_sat=mutating_then_failing,
                max_band_attempts=3,
            ),
            a.shape,
        )
        assert np.array_equal(out, sat_reference(a))
        assert np.array_equal(a, original)
