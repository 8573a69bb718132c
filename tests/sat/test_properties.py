"""Property-based tests (hypothesis) for SAT invariants and the substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.layout.diagonal import DiagonalArrangement
from repro.machine.macro.global_memory import transactions_for_run
from repro.machine.params import MachineParams
from repro.sat import make_algorithm
from repro.sat.cpu import cpu_2r2w, cpu_4r1w
from repro.sat.reference import rectangle_sum, sat_reference, undo_sat

# Bounded floats keep accumulated rounding far from tolerances.
ELEMENTS = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)


def square(n_max=12):
    return st.integers(1, n_max).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=ELEMENTS)
    )


class TestSatAlgebra:
    @given(square())
    def test_roundtrip(self, a):
        assert np.allclose(undo_sat(sat_reference(a)), a, atol=1e-6)

    @given(square(8), square(8))
    def test_linearity(self, a, b):
        n = min(a.shape[0], b.shape[0])
        a, b = a[:n, :n], b[:n, :n]
        assert np.allclose(
            sat_reference(a + b), sat_reference(a) + sat_reference(b), atol=1e-6
        )

    @given(square(8), st.floats(-10, 10, allow_nan=False))
    def test_scaling(self, a, c):
        assert np.allclose(sat_reference(c * a), c * sat_reference(a), atol=1e-5)

    @given(square())
    def test_monotone_for_nonnegative(self, a):
        sat = sat_reference(np.abs(a))
        assert (np.diff(sat, axis=0) >= -1e-9).all()
        assert (np.diff(sat, axis=1) >= -1e-9).all()

    @given(square(10), st.data())
    def test_rectangle_query_matches_direct_sum(self, a, data):
        n = a.shape[0]
        top = data.draw(st.integers(0, n - 1))
        left = data.draw(st.integers(0, n - 1))
        bottom = data.draw(st.integers(top, n - 1))
        right = data.draw(st.integers(left, n - 1))
        sat = sat_reference(a)
        direct = a[top : bottom + 1, left : right + 1].sum()
        assert np.isclose(rectangle_sum(sat, top, left, bottom, right), direct, atol=1e-6)

    @given(square(10))
    def test_transpose_commutes(self, a):
        assert np.allclose(sat_reference(a.T), sat_reference(a).T, atol=1e-6)


class TestAlgorithmsAgree:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["2R2W", "4R4W", "2R1W", "1R1W", "1.25R1W"]),
        st.integers(1, 3),
        st.sampled_from([3, 4, 5]),
        st.integers(0, 10_000),
    )
    def test_hmm_algorithms_match_oracle(self, name, blocks, w, seed):
        n = blocks * w
        a = np.random.default_rng(seed).random((n, n)) * 10 - 5
        params = MachineParams(width=w, latency=3)
        result = make_algorithm(name).compute(a, params)
        assert np.allclose(result.sat, sat_reference(a), atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(square(16))
    def test_cpu_baselines_agree(self, a):
        assert np.allclose(cpu_2r2w(a), cpu_4r1w(a), atol=1e-6)


class TestExtensionProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    def test_rectangular_1r1w_matches_oracle(self, br, bc, seed):
        from repro.sat.algo_1r1w import OneReadOneWrite
        from repro.sat.reference import sat_reference as oracle

        w = 4
        a = np.random.default_rng(seed).random((br * w, bc * w))
        params = MachineParams(width=w, latency=3)
        result = OneReadOneWrite().compute(a, params)
        assert np.allclose(result.sat, oracle(a), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 12), st.integers(1, 20), st.integers(0, 10_000))
    def test_out_of_core_any_banding(self, rows, cols, band, seed):
        from repro.sat.out_of_core import sat_out_of_core
        from repro.sat.reference import sat_reference as oracle

        a = np.random.default_rng(seed).random((rows, cols))
        assert np.allclose(sat_out_of_core(a, band), oracle(a), atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 30), st.integers(1, 12), st.integers(1, 20),
        st.integers(0, 10_000), st.integers(0, 2), st.integers(1, 3),
        st.booleans(), st.lists(st.integers(0, 3), max_size=30),
    )
    def test_streamed_band_faults_any_banding(
        self, rows, cols, band, seed, depth, attempts, fallback, fails
    ):
        from repro.errors import RetryExhausted, TransientFault
        from repro.sat.out_of_core import StreamReport, sat_streamed

        rng = np.random.default_rng(seed)
        a = rng.integers(-50, 50, size=(rows, cols)).astype(np.float64)
        starts = list(range(0, rows, band))
        failures = {r0: fails[i] if i < len(fails) else 0 for i, r0 in enumerate(starts)}
        calls = dict.fromkeys(starts, 0)
        taken = []

        def flaky(b):
            # The stream computes band i inside the next() that yields it,
            # after the consumer has taken bands 0..i-1.
            row0 = starts[len(taken)]
            calls[row0] += 1
            if calls[row0] <= failures[row0]:
                raise TransientFault(f"band {row0} attempt {calls[row0]}")
            return sat_reference(b)

        retries, degraded, fails_at = 0, [], None
        for row0 in starts:
            retries += min(failures[row0], attempts - 1)
            if failures[row0] >= attempts:
                if not fallback:
                    fails_at = row0
                    break
                degraded.append(row0)

        report = StreamReport()
        stream = sat_streamed(
            lambda r0, r1: a[r0:r1], a.shape, band, band_sat=flaky,
            prefetch_depth=depth, max_band_attempts=attempts,
            oracle_fallback=fallback, report=report,
        )
        out = np.full(a.shape, np.nan)
        if fails_at is None:
            for row0, sat_band in stream:
                taken.append(row0)
                out[row0:row0 + sat_band.shape[0]] = sat_band
                sat_band[:] = np.nan  # the consumer owns what it took
            assert np.array_equal(out, sat_reference(a))
            assert report.bands_completed == len(starts)
        else:
            with pytest.raises(TransientFault if attempts == 1 else RetryExhausted):
                for row0, sat_band in stream:
                    taken.append(row0)
                    out[row0:row0 + sat_band.shape[0]] = sat_band
            assert taken == starts[:starts.index(fails_at)]
            assert np.array_equal(out[:fails_at], sat_reference(a)[:fails_at])
        assert report.band_sat_retries == retries
        assert report.degraded_bands == degraded


class TestSubstrateProperties:
    @given(st.integers(1, 64))
    def test_diagonal_always_conflict_free(self, w):
        d = DiagonalArrangement(w)
        assert d.max_row_conflict() == 1
        assert d.max_column_conflict() == 1

    @given(st.integers(0, 1000), st.integers(0, 200), st.integers(1, 64))
    def test_transactions_bounds(self, start, length, w):
        txn = transactions_for_run(start, length, w)
        lo = -(-length // w)
        assert lo <= txn <= lo + 1 or length == 0

    @given(st.integers(0, 1000), st.integers(1, 200), st.integers(1, 64))
    def test_transactions_aligned_exact(self, group, length, w):
        """Runs starting on a group boundary cost exactly ceil(len/w)."""
        assert transactions_for_run(group * w, length, w) == -(-length // w)
