"""Out-of-core SAT: matrices larger than (simulated) device memory.

Section VIII notes the GTX 780 Ti's 3 GB global memory caps the evaluation
at 18K x 18K. This extension lifts that cap the way a production pipeline
would: stream the matrix through in horizontal *bands*, carrying the last
SAT row of each band into the next. Correctness rests on the same identity
the block algorithms use — for rows below a finished band,

    F(i, j) = bandSAT(i, j) + F(band_top - 1, j)

because everything above the band contributes column-wise totals only.
Each band can itself be computed by any in-core algorithm (including the
HMM-simulated ones), so the carry row plays exactly the role of 1R1W's
``AuxB`` boundary buffer, stretched across device-memory generations.
:func:`sat_streamed` is the one band driver: band retries, the oracle
fallback and checkpoints are its arguments, off by default.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CorruptionDetected, RetryExhausted, ReproError, ShapeError, TransientFault
from ..obs import runtime as obs
from ..util.backoff import Clock, ExponentialBackoff, FakeClock
from ..util.validation import require_finite
from .reference import sat_reference

logger = logging.getLogger("repro.sat.out_of_core")

#: A band provider maps (row0, row1) -> the matrix rows [row0, row1).
BandProvider = Callable[[int, int], np.ndarray]


def _band_spans(n_rows: int, band_rows: int, start_row: int = 0) -> List[Tuple[int, int]]:
    """The ``(row0, row1)`` spans a banded stream visits, in order."""
    return [
        (row0, min(row0 + band_rows, n_rows))
        for row0 in range(start_row, n_rows, band_rows)
    ]


class BandPrefetcher:
    """Double-buffered band fetcher: fetch band ``i+1`` while ``i`` computes.

    A single worker thread runs the provider ahead of the consumer, with
    at most ``depth`` fetched-but-unconsumed bands in flight (a bounded
    queue, so residency stays ``O((depth + 1) * band_rows * n_cols)``
    rather than growing to the whole matrix). Provider exceptions —
    including :class:`~repro.errors.RetryExhausted` raised after a wrapped
    :class:`ResilientBandProvider` burns its retry budget — are captured
    by the future and re-raised at the consumer's ``fetch`` call for the
    failing band, so pipelining never changes *which* band an error is
    attributed to.
    """

    def __init__(
        self,
        provider: BandProvider,
        spans: Sequence[Tuple[int, int]],
        depth: int = 1,
    ):
        if depth < 1:
            raise ShapeError(f"prefetch depth must be >= 1, got {depth}")
        self._provider = provider
        self._spans = list(spans)
        self._depth = depth
        self._next = 0
        self._pending: "deque[Future]" = deque()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="band-prefetch"
        )
        for _ in range(min(depth, len(self._spans))):
            self._submit()

    def _submit(self) -> None:
        row0, row1 = self._spans[self._next]
        self._pending.append(self._pool.submit(self._provider, row0, row1))
        self._next += 1
        obs.inc("band_prefetches_total")

    def fetch(self, row0: int, row1: int) -> np.ndarray:
        """Return the band for the next span (must be called in order)."""
        expected = self._spans[self._next - len(self._pending)]
        if (row0, row1) != expected:
            raise ShapeError(
                f"prefetcher serves spans in order; expected {expected}, "
                f"got {(row0, row1)}"
            )
        future = self._pending.popleft()
        if self._next < len(self._spans):
            self._submit()
        if obs.is_enabled():
            # How long the consumer blocks here is the part of fetch
            # latency prefetching failed to hide behind compute.
            t0 = time.perf_counter()
            band = future.result()
            obs.observe("band_fetch_wait_seconds", time.perf_counter() - t0)
            return band
        return future.result()

    def close(self) -> None:
        """Stop prefetching and drop any bands still in flight."""
        for future in self._pending:
            future.cancel()
        self._pending.clear()
        self._pool.shutdown(wait=False, cancel_futures=True)


def hmm_band_sat(algorithm="1R1W", params=None) -> Callable[[np.ndarray], np.ndarray]:
    """Build a ``band_sat`` that runs every band through ONE session engine.

    The factory owns a single
    :class:`~repro.machine.engine.ExecutionEngine` for the stream's
    lifetime, so every band of the same height resolves to one cached
    plan (bands of a regular stream all share ``(rows, cols)`` except
    possibly the last), and warm bands execute through the fused batched
    backend (``fast=True``).

    ``algorithm`` is a registry name or an algorithm instance (build one
    with :func:`~repro.sat.registry.make_algorithm` to choose kR1W's
    ``p``). The returned callable exposes the engine as ``.engine`` so
    callers can assert cache behavior.
    """
    from ..machine.engine import ExecutionEngine, PlanCache
    from ..machine.params import MachineParams
    from .registry import make_algorithm

    algo = make_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    if params is None:
        params = MachineParams()
    engine = ExecutionEngine(cache=PlanCache())

    def band_sat(band: np.ndarray) -> np.ndarray:
        return algo.compute(band, params, engine=engine, fast=True).sat

    band_sat.engine = engine
    return band_sat


def carry_checksum(carry: np.ndarray) -> int:
    """CRC-32 of a carry row's bytes — the streaming layer's integrity tag.

    The carry row is the only state threaded between bands; a corrupted
    carry poisons every band after it, so it is the one thing worth
    checksumming at each hand-off.
    """
    arr = np.ascontiguousarray(np.asarray(carry, dtype=np.float64))
    return zlib.crc32(arr.tobytes())


@dataclasses.dataclass(frozen=True)
class StreamCheckpoint:
    """Resumable position of a banded SAT stream.

    ``row0`` is the first row *not yet* computed; ``carry`` is the
    finished SAT's row ``row0 - 1`` (zeros at ``row0 == 0``). ``checksum``
    guards the carry across whatever storage the checkpoint lived in.
    """

    row0: int
    carry: np.ndarray
    checksum: int

    @classmethod
    def initial(cls, n_cols: int) -> "StreamCheckpoint":
        carry = np.zeros(n_cols)
        return cls(row0=0, carry=carry, checksum=carry_checksum(carry))

    @classmethod
    def at(cls, row0: int, carry: np.ndarray) -> "StreamCheckpoint":
        carry = np.array(carry, dtype=np.float64, copy=True)
        return cls(row0=row0, carry=carry, checksum=carry_checksum(carry))

    def restore(self) -> np.ndarray:
        """Validate and return a private copy of the carry row."""
        carry = np.asarray(self.carry, dtype=np.float64)
        if carry.ndim != 1:
            raise ShapeError(f"checkpoint carry must be 1-D, got ndim={carry.ndim}")
        if carry_checksum(carry) != self.checksum:
            raise CorruptionDetected(
                f"checkpoint at row {self.row0} failed its carry checksum "
                f"(expected {self.checksum}, got {carry_checksum(carry)})"
            )
        require_finite(carry, what=f"checkpoint carry at row {self.row0}")
        return carry.copy()


@dataclasses.dataclass
class StreamReport:
    """What a :func:`sat_streamed` run survived — surfaced, not just logged."""

    bands_completed: int = 0
    #: band_sat invocations that raised a ReproError and were retried.
    band_sat_retries: int = 0
    #: ``row0`` of every band that fell back to the numpy oracle.
    degraded_bands: List[int] = dataclasses.field(default_factory=list)
    #: ``row0`` the stream resumed from (``None`` for a fresh run).
    resumed_at: Optional[int] = None
    checkpoints_written: int = 0
    #: Human-readable fault log, in order.
    events: List[str] = dataclasses.field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_bands)

    def note(self, message: str) -> None:
        self.events.append(message)
        logger.warning("%s", message)

    def summary(self) -> str:
        return (
            f"bands={self.bands_completed}, band_sat_retries={self.band_sat_retries}, "
            f"degraded={len(self.degraded_bands)}, "
            f"resumed_at={self.resumed_at}, checkpoints={self.checkpoints_written}"
        )


class ResilientBandProvider:
    """Wraps a flaky provider with bounded retry and read verification.

    * :class:`~repro.errors.TransientFault` from the provider is retried
      with deterministic exponential backoff on an injected clock (a
      :class:`~repro.util.backoff.FakeClock` by default — no real
      sleeping, ever, unless a caller opts into a real clock).
    * With ``verify_reads`` (default), every band is fetched twice and the
      two copies compared; a disagreement means a transient corruption and
      is retried too. Redundant fetching doubles traffic but is the only
      detector that catches *finite* garbage, not just NaN poison.
    * A band containing non-finite values in both fetches raises
      :class:`~repro.errors.CorruptionDetected`, which is also retried —
      a deterministic corruption thus ends in
      :class:`~repro.errors.RetryExhausted` rather than an infinite loop.
    """

    def __init__(
        self,
        provider: BandProvider,
        *,
        max_retries: int = 3,
        backoff: Optional[ExponentialBackoff] = None,
        clock: Optional[Clock] = None,
        verify_reads: bool = True,
    ):
        if max_retries < 0:
            raise ShapeError(f"max_retries must be >= 0, got {max_retries}")
        self._provider = provider
        self.max_retries = max_retries
        self.backoff = backoff if backoff is not None else ExponentialBackoff()
        self.clock = clock if clock is not None else FakeClock()
        self.verify_reads = verify_reads
        self.fetches = 0
        self.retries = 0
        self.corruptions_detected = 0

    def _fetch(self, row0: int, row1: int) -> np.ndarray:
        self.fetches += 1
        return np.array(self._provider(row0, row1), dtype=np.float64, copy=True)

    def _attempt(self, row0: int, row1: int) -> np.ndarray:
        band = self._fetch(row0, row1)
        if self.verify_reads:
            again = self._fetch(row0, row1)
            same = band.shape == again.shape and np.array_equal(
                band, again, equal_nan=True
            )
            if not same:
                self.corruptions_detected += 1
                raise CorruptionDetected(
                    f"band [{row0}, {row1}): redundant fetches disagree — "
                    "transient corruption"
                )
        require_finite(band, what=f"band [{row0}, {row1})")
        return band

    def __call__(self, row0: int, row1: int) -> np.ndarray:
        for attempt in range(self.max_retries + 1):
            try:
                return self._attempt(row0, row1)
            except (TransientFault, CorruptionDetected) as fault:
                if attempt == self.max_retries:
                    raise RetryExhausted(
                        f"band [{row0}, {row1}) still failing after "
                        f"{attempt + 1} attempt(s): {fault}"
                    ) from fault
                self.retries += 1
                delay = self.backoff.pause(self.clock, attempt)
                logger.warning(
                    "band [%d, %d) attempt %d failed (%s: %s); retrying after %gs",
                    row0, row1, attempt, type(fault).__name__, fault, delay,
                )
        raise AssertionError("unreachable")  # pragma: no cover


def sat_streamed(
    provider: BandProvider,
    shape: Tuple[int, int],
    band_rows: int,
    *,
    band_sat: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    prefetch_depth: int = 0,
    max_band_attempts: int = 1,
    oracle_fallback: bool = False,
    backoff: Optional[ExponentialBackoff] = None,
    clock: Optional[Clock] = None,
    checkpoint: Optional[StreamCheckpoint] = None,
    on_checkpoint: Optional[Callable[[StreamCheckpoint], None]] = None,
    report: Optional[StreamReport] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(row0, sat_band)`` pairs covering the full SAT, in order.

    Parameters
    ----------
    provider:
        Called once per band with ``(row0, row1)``; must return rows
        ``[row0, row1)`` of the input. This indirection is what makes the
        input "larger than memory" — only one band (plus any prefetched
        bands) is resident at a time. Wrap a flaky source in
        :class:`ResilientBandProvider` for fetch retries.
    shape:
        Full matrix shape ``(n_rows, n_cols)``.
    band_rows:
        Rows per band (the memory budget).
    band_sat:
        In-core SAT kernel applied to each band; defaults to the numpy
        oracle. Pass :func:`hmm_band_sat` to run the bands on the
        simulated HMM through one session engine (every same-height band
        reuses one cached plan; band shapes must satisfy the chosen
        algorithm's block-multiple/rectangular requirements). Each call
        gets a private copy of the band, so a kernel that works in place
        never reaches back through a provider's view, nor into a retry or
        the oracle fallback. The stream takes ownership of the array the
        kernel returns: it adds the carry into it in place and yields it.
        ``SATResult.sat`` and :func:`sat_reference` both return fresh
        arrays.
    prefetch_depth:
        ``0`` (default) fetches serially. ``>= 1`` overlaps data movement
        with compute: a worker thread runs the provider up to this many
        bands ahead while the current band's SAT is computed — the
        double-buffering that hides fetch latency behind compute, exactly
        as the GPU algorithms hide global-memory latency behind arithmetic.
        A provider error surfaces when the stream reaches the failing band.
    max_band_attempts:
        ``band_sat`` calls per band. A call that raises a
        :class:`~repro.errors.ReproError` or returns a wrong shape or a
        non-finite band is retried after ``backoff.pause(clock, attempt)``
        (a :class:`~repro.util.backoff.FakeClock` by default, which never
        sleeps). A band that fails its only attempt raises the kernel's
        own error; one that fails several raises
        :class:`~repro.errors.RetryExhausted`.
    oracle_fallback:
        Instead of raising, compute a band that failed every attempt with
        the numpy oracle and record it in ``report.degraded_bands``.
    checkpoint:
        Resume from a :class:`StreamCheckpoint`: only the bands from
        ``checkpoint.row0`` on are fetched and computed, and a carry that
        fails its checksum raises :class:`~repro.errors.CorruptionDetected`
        instead of poisoning every remaining band.
    on_checkpoint:
        Receives ``StreamCheckpoint(row1, carry)`` once the consumer has
        taken band ``[row0, row1)`` and asked for the next one. A
        checkpoint therefore covers only bands the consumer has moved
        past: a consumer that dies while handling a band resumes by
        recomputing it, never by skipping it.
    report:
        A :class:`StreamReport` to fill with what the stream survived.
    """
    n_rows, n_cols = shape
    if n_rows <= 0 or n_cols <= 0:
        raise ShapeError(f"matrix shape must be positive, got {shape}")
    if band_rows <= 0:
        raise ShapeError(f"band_rows must be positive, got {band_rows}")
    if max_band_attempts < 1:
        raise ShapeError(f"max_band_attempts must be >= 1, got {max_band_attempts}")
    if band_sat is None:
        band_sat = sat_reference
    if backoff is None:
        backoff = ExponentialBackoff()
    if clock is None:
        clock = FakeClock()
    if report is None:
        report = StreamReport()

    start_row = 0
    carry = np.zeros(n_cols)
    if checkpoint is not None:
        restored = checkpoint.restore()
        if restored.shape != (n_cols,):
            raise ShapeError(
                f"checkpoint carry has {restored.shape[0]} columns, "
                f"stream has {n_cols}"
            )
        if not 0 <= checkpoint.row0 <= n_rows:
            raise ShapeError(
                f"checkpoint row {checkpoint.row0} outside matrix of {n_rows} rows"
            )
        start_row, carry = checkpoint.row0, restored
        report.resumed_at = checkpoint.row0
        report.note(f"resumed from checkpoint at row {checkpoint.row0}")

    spans = _band_spans(n_rows, band_rows, start_row)
    prefetcher: Optional[BandPrefetcher] = None
    fetch: BandProvider = provider
    if prefetch_depth > 0:
        prefetcher = BandPrefetcher(provider, spans, depth=prefetch_depth)
        fetch = prefetcher.fetch
    try:
        for row0, row1 in spans:
            band = np.asarray(fetch(row0, row1), dtype=np.float64)
            if band.shape != (row1 - row0, n_cols):
                raise ShapeError(
                    f"provider returned shape {band.shape} for rows "
                    f"[{row0}, {row1}) of a {shape} matrix"
                )
            require_finite(band, what=f"provider band rows [{row0}, {row1})")
            what = f"SAT band rows [{row0}, {row1})"

            sat_band: Optional[np.ndarray] = None
            last_fault: Optional[ReproError] = None
            for attempt in range(max_band_attempts):
                try:
                    with obs.span(
                        "band_compute", row0=row0, rows=row1 - row0, attempt=attempt
                    ):
                        candidate = np.asarray(band_sat(band.copy()), dtype=np.float64)
                    if candidate.shape != band.shape:
                        raise ShapeError("band_sat must preserve the band's shape")
                    candidate += carry
                    # One scan catches a corrupt kernel, an overflow and a
                    # bad next carry (the band's last row).
                    sat_band = require_finite(candidate, what=what)
                    break
                except ReproError as fault:
                    last_fault = fault
                    if attempt + 1 < max_band_attempts:
                        report.band_sat_retries += 1
                        obs.inc("stream_band_retries_total")
                        delay = backoff.pause(clock, attempt)
                        report.note(
                            f"band [{row0}, {row1}) attempt {attempt} failed "
                            f"({type(fault).__name__}: {fault}); retrying after {delay}s"
                        )
            if sat_band is None:
                if oracle_fallback:
                    report.degraded_bands.append(row0)
                    obs.inc("stream_degraded_bands_total")
                    report.note(
                        f"band [{row0}, {row1}) failed {max_band_attempts} attempts "
                        f"({type(last_fault).__name__}); degrading to numpy oracle"
                    )
                    sat_band = sat_reference(band)
                    sat_band += carry
                    require_finite(sat_band, what=what)
                elif max_band_attempts == 1:
                    raise last_fault
                else:
                    raise RetryExhausted(
                        f"band [{row0}, {row1}) failed {max_band_attempts} "
                        f"band_sat attempt(s): {last_fault}"
                    ) from last_fault

            carry = sat_band[-1].copy()
            report.bands_completed += 1
            obs.inc("stream_bands_total")
            yield row0, sat_band
            if on_checkpoint is not None:
                on_checkpoint(StreamCheckpoint.at(row1, carry))
                report.checkpoints_written += 1
                obs.inc("stream_checkpoints_total")
    finally:
        if prefetcher is not None:
            prefetcher.close()


def sat_out_of_core(a: np.ndarray, band_rows: int, **kwargs) -> np.ndarray:
    """Stream an in-memory matrix band by band and return its SAT.

    Accepts every :func:`sat_streamed` keyword except ``checkpoint`` and
    fills the ``report=`` a caller passes in. With the matrix already
    resident it is equivalent to :func:`sat_reference`, but it exercises
    the exact carry logic a disk/network-backed provider would use.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"SAT input must be 2-D, got ndim={a.ndim}")
    if kwargs.get("checkpoint") is not None:
        # A resumed stream only yields the *remaining* bands; this wrapper
        # promises the full SAT, so resume callers must drive
        # sat_streamed themselves (keeping their earlier bands).
        raise ShapeError("sat_out_of_core cannot resume; use sat_streamed")
    out = np.empty_like(a)
    for row0, sat_band in sat_streamed(
        lambda r0, r1: a[r0:r1], a.shape, band_rows, **kwargs
    ):
        out[row0 : row0 + sat_band.shape[0]] = sat_band
    return out


class PeakMemoryMeter:
    """Wraps a provider and records the largest band served (in elements).

    Used by tests to prove the streaming pipeline's residency really is
    ``O(band_rows * n_cols)`` rather than ``O(n^2)``.
    """

    def __init__(self, a: np.ndarray):
        self._a = np.asarray(a)
        self.peak_elements = 0
        self.bands_served = 0

    def __call__(self, row0: int, row1: int) -> np.ndarray:
        band = self._a[row0:row1]
        self.peak_elements = max(self.peak_elements, band.size)
        self.bands_served += 1
        return band
