"""Resilient out-of-core streaming: retries, checksums, checkpoints, fallback."""

import numpy as np
import pytest

from repro.errors import (
    CorruptionDetected,
    RetryExhausted,
    ShapeError,
    TransientFault,
)
from repro.faults import FaultInjector, FaultPlan
from repro.machine.params import MachineParams
from repro.sat.out_of_core import (
    PeakMemoryMeter,
    ResilientBandProvider,
    StreamCheckpoint,
    StreamReport,
    carry_checksum,
    sat_out_of_core,
    sat_streamed,
)
from repro.sat.reference import sat_reference
from repro.util.backoff import ExponentialBackoff, FakeClock


def collect(stream, shape):
    out = np.full(shape, np.nan)
    for row0, band in stream:
        out[row0 : row0 + band.shape[0]] = band
    return out


class TestResilientBandProvider:
    def test_transient_failures_retried_with_deterministic_backoff(self, rng):
        a = rng.random((24, 8))
        failures = iter([True, True, False])

        def flaky(r0, r1):
            if next(failures, False):
                raise TransientFault("fetch hiccup")
            return a[r0:r1]

        clock = FakeClock()
        provider = ResilientBandProvider(
            flaky, clock=clock, backoff=ExponentialBackoff(base=0.5, factor=2.0)
        )
        band = provider(0, 8)
        assert np.array_equal(band, a[:8])
        assert provider.retries == 2
        assert clock.sleeps == [0.5, 1.0]  # recorded, never really slept

    def test_retry_exhausted_after_budget(self):
        def always_down(r0, r1):
            raise TransientFault("dead disk")

        provider = ResilientBandProvider(always_down, max_retries=2)
        with pytest.raises(RetryExhausted) as excinfo:
            provider(0, 8)
        assert isinstance(excinfo.value.__cause__, TransientFault)
        assert provider.retries == 2

    def test_double_fetch_catches_finite_garbage(self, rng):
        """'garbage' corruption is finite, so only redundancy detects it."""
        a = rng.random((16, 8))
        plan = FaultPlan(seed=1, provider_corruption_rate=0.2, corruption_mode="garbage")
        injector = FaultInjector(plan)
        provider = ResilientBandProvider(
            injector.wrap_provider(lambda r0, r1: a[r0:r1]), max_retries=6
        )
        out = collect(
            sat_streamed(provider, a.shape, 4), a.shape
        )
        assert np.allclose(out, sat_reference(a))
        assert injector.stats["provider_corruptions"] > 0
        assert provider.corruptions_detected > 0

    def test_nan_poison_detected_without_verification(self, rng):
        a = rng.random((8, 4))

        def poisoned(r0, r1):
            band = a[r0:r1].copy()
            band[0, 0] = np.nan
            return band

        provider = ResilientBandProvider(poisoned, max_retries=1, verify_reads=False)
        with pytest.raises(RetryExhausted) as excinfo:
            provider(0, 4)
        assert isinstance(excinfo.value.__cause__, CorruptionDetected)

    def test_negative_retries_rejected(self):
        with pytest.raises(ShapeError):
            ResilientBandProvider(lambda r0, r1: None, max_retries=-1)


class TestCheckpoints:
    def test_checkpoints_resume_without_recompute(self, rng):
        a = rng.random((40, 8))
        expected = sat_reference(a)
        checkpoints = []
        out = collect(
            sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 8, on_checkpoint=checkpoints.append
            ),
            a.shape,
        )
        assert np.allclose(out, expected)
        assert [c.row0 for c in checkpoints] == [8, 16, 24, 32, 40]

        # Resume from the middle: only the remaining bands are computed.
        report = StreamReport()
        resumed = list(
            sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 8,
                checkpoint=checkpoints[2], report=report,
            )
        )
        assert [row0 for row0, _ in resumed] == [24, 32]
        assert report.resumed_at == 24
        assert np.allclose(np.vstack([b for _, b in resumed]), expected[24:])

    def test_consumer_death_resumes_at_the_band_it_was_handling(self, rng):
        """A checkpoint covers only bands the consumer moved past, so a
        consumer that dies mid-band resumes by redoing that band."""
        a = rng.random((40, 8))
        checkpoints = []
        handled = []
        with pytest.raises(RuntimeError):
            for row0, _band in sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 8, on_checkpoint=checkpoints.append
            ):
                if row0 == 16:
                    raise RuntimeError("consumer died handling band 16")
                handled.append(row0)
        assert checkpoints[-1].row0 == 16
        resumed = list(
            sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 8, checkpoint=checkpoints[-1]
            )
        )
        handled += [row0 for row0, _ in resumed]
        assert handled == [0, 8, 16, 24, 32]
        assert np.allclose(resumed[0][1], sat_reference(a)[16:24])

    def test_resume_residency_stays_one_band(self, rng):
        """Resuming must not refetch finished bands: residency and fetch
        count are those of the remaining suffix only."""
        a = rng.random((64, 32))
        checkpoints = []
        list(
            sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 8, on_checkpoint=checkpoints.append
            )
        )
        meter = PeakMemoryMeter(a)
        list(
            sat_streamed(meter, a.shape, 8, checkpoint=checkpoints[4])
        )
        assert meter.peak_elements == 8 * 32  # O(band_rows * n_cols)
        assert meter.bands_served == 3  # bands 5..7 only

    def test_corrupted_checkpoint_detected(self, rng):
        a = rng.random((16, 4))
        checkpoints = []
        list(
            sat_streamed(
                lambda r0, r1: a[r0:r1], a.shape, 4, on_checkpoint=checkpoints.append
            )
        )
        good = checkpoints[1]
        # Bit-rot the stored carry without updating the checksum.
        rotten = StreamCheckpoint(
            row0=good.row0, carry=good.carry + 1e-9, checksum=good.checksum
        )
        with pytest.raises(CorruptionDetected):
            list(sat_streamed(lambda r0, r1: a[r0:r1], a.shape, 4, checkpoint=rotten))

    def test_nan_checkpoint_detected(self):
        carry = np.array([1.0, np.nan])
        cp = StreamCheckpoint(row0=4, carry=carry, checksum=carry_checksum(carry))
        with pytest.raises(CorruptionDetected):
            cp.restore()

    def test_checkpoint_shape_and_range_validated(self, rng):
        a = rng.random((8, 4))
        wrong_cols = StreamCheckpoint.at(4, np.zeros(3))
        with pytest.raises(ShapeError):
            list(sat_streamed(lambda r0, r1: a[r0:r1], a.shape, 4, checkpoint=wrong_cols))
        out_of_range = StreamCheckpoint.at(99, np.zeros(4))
        with pytest.raises(ShapeError):
            list(sat_streamed(lambda r0, r1: a[r0:r1], a.shape, 4, checkpoint=out_of_range))


class TestDegradation:
    def test_flaky_hmm_band_sat_recovers_by_retry(self, rng):
        a = rng.random((16, 8))
        calls = []

        def flaky_band_sat(band):
            calls.append(True)
            if len(calls) % 2 == 1:
                raise TransientFault("simulated HMM kernel died")
            return sat_reference(band)

        report = StreamReport()
        sat = sat_out_of_core(
            a, 4, band_sat=flaky_band_sat, max_band_attempts=3, report=report
        )
        assert report.bands_completed == 4  # the caller's report is filled
        assert np.allclose(sat, sat_reference(a))
        assert report.band_sat_retries == 4  # one retry per band
        assert not report.degraded

    def test_persistent_band_sat_failure_degrades_to_oracle(self, rng):
        a = rng.random((12, 6))

        def dead_band_sat(band):
            raise TransientFault("kernel always dies")

        report = StreamReport()
        sat = sat_out_of_core(
            a, 4, band_sat=dead_band_sat, max_band_attempts=3,
            oracle_fallback=True, report=report,
        )
        assert np.allclose(sat, sat_reference(a))
        assert report.degraded
        assert report.degraded_bands == [0, 4, 8]
        assert any("degrading to numpy oracle" in e for e in report.events)

    def test_fallback_disabled_raises_typed_error(self, rng):
        a = rng.random((8, 4))

        def dead_band_sat(band):
            raise TransientFault("kernel always dies")

        with pytest.raises(RetryExhausted):
            sat_out_of_core(a, 4, band_sat=dead_band_sat, max_band_attempts=3)

    def test_mutating_band_sat_cannot_poison_fallback(self, rng):
        """Each attempt gets a private copy: a kernel that trashes its
        input before dying must not corrupt the oracle fallback."""
        a = rng.random((8, 4))

        def vandal(band):
            band[:] = np.nan
            raise TransientFault("died after trashing its input")

        report = StreamReport()
        sat = sat_out_of_core(
            a, 4, band_sat=vandal, max_band_attempts=3, oracle_fallback=True,
            report=report,
        )
        assert np.allclose(sat, sat_reference(a))
        assert np.isfinite(a).all()
        assert report.degraded_bands == [0, 4]

    def test_nan_band_sat_output_is_corruption(self, rng):
        a = rng.random((8, 4))

        def nan_kernel(band):
            out = sat_reference(band)
            out[0, 0] = np.nan
            return out

        # Deterministically bad output: retried, then degraded to oracle.
        report = StreamReport()
        sat = sat_out_of_core(
            a, 4, band_sat=nan_kernel, max_band_attempts=3, oracle_fallback=True,
            report=report,
        )
        assert np.allclose(sat, sat_reference(a))
        assert report.degraded

    def test_quiet_run_reports_nothing(self, rng):
        a = rng.random((16, 8))
        report = StreamReport()
        sat = sat_out_of_core(a, 4, report=report)
        assert np.allclose(sat, sat_reference(a))
        assert not report.degraded
        assert report.band_sat_retries == 0
        assert report.bands_completed == 4
        assert report.events == []

    def test_resume_rejected_by_convenience_wrapper(self, rng):
        a = rng.random((8, 4))
        cp = StreamCheckpoint.at(4, np.zeros(4))
        with pytest.raises(ShapeError):
            sat_out_of_core(a, 4, checkpoint=cp)


class TestEndToEndFaultSandwich:
    def test_flaky_provider_and_flaky_kernel_still_exact(self, rng):
        """Everything at once: provider faults + corruption under retry,
        a sometimes-dying band kernel, checkpoints — result oracle-exact."""
        a = rng.random((48, 16))
        plan = FaultPlan(
            seed=5, provider_failure_rate=0.2, provider_corruption_rate=0.15
        )
        injector = FaultInjector(plan)
        clock = FakeClock()
        provider = ResilientBandProvider(
            injector.wrap_provider(lambda r0, r1: a[r0:r1]),
            max_retries=8,
            clock=clock,
        )
        calls = []

        def sometimes_dying(band):
            calls.append(True)
            if len(calls) % 3 == 0:
                raise TransientFault("kernel died")
            return sat_reference(band)

        report = StreamReport()
        out = collect(
            sat_streamed(
                provider, a.shape, 8, band_sat=sometimes_dying,
                max_band_attempts=3, clock=clock, report=report,
            ),
            a.shape,
        )
        assert np.allclose(out, sat_reference(a))
        assert provider.retries > 0  # the plan really did inject
        assert report.bands_completed == 6
