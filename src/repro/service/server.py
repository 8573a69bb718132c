"""Asyncio serving front end: admission control, micro-batching, deadlines.

:class:`SATServer` is the request plane over a
:class:`~repro.service.store.TiledSATStore`:

* **bounded ingest queue with admission control** — :meth:`submit` never
  blocks and never queues past ``max_queue``: over the bound it raises
  :class:`~repro.errors.Overloaded` *synchronously*, so overload sheds at
  the door instead of growing latency (and the scheduler can never
  deadlock on a full queue it is itself draining);
* **FIFO scheduling with micro-batching** — the scheduler drains the
  queue in submission order and coalesces each maximal contiguous run of
  compatible requests (same dataset, batchable kind) into one vectorized
  call (:func:`~repro.service.queries.region_sums`,
  :func:`~repro.service.queries.local_stats_many`). Batching only
  contiguous runs preserves global FIFO order, so same-dataset updates
  and queries interleave exactly as submitted — the property the loadgen
  oracle checks;
* **per-request deadlines** — a request whose deadline passed while it
  queued resolves to :class:`~repro.errors.DeadlineExceeded` instead of
  burning compute on an answer nobody is waiting for;
* **graceful drain** — :meth:`drain` stops admission (late submits shed
  as ``Overloaded``) and runs the queue dry before stopping the
  scheduler; nothing already admitted is lost;
* **compute offload** — blocking work (an ingest's tile build, cluster
  router calls) runs in a worker thread so the event loop keeps admitting
  and shedding;
* **observability** — queue-depth gauge, per-kind latency histograms,
  shed/deadline counters, and update/query spans through
  :mod:`repro.obs`.

Every response carries the request's sequence number and a server-side
completion index, so clients can verify the zero-lost / zero-misordered
contract end to end.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, DeadlineExceeded, DrainTimeout, Overloaded
from ..obs import runtime as obs
from . import queries as q
from .adaptive import AdaptiveController, ControllerConfig
from .store import TiledSATStore

if TYPE_CHECKING:  # pragma: no cover — typing only, no import cycle at runtime
    from .router import ShardRouter

__all__ = ["Request", "Response", "SATServer"]

#: Kinds the micro-batcher may coalesce (vectorized execution exists and
#: the results are independent per request).
BATCHABLE = frozenset({"region_sum", "local_stats"})

#: Default bound for :meth:`SATServer.close` when neither the call nor the
#: constructor configured one — generous (shutdown should normally win by
#: orders of magnitude) but finite, so close() can never hang forever.
DEFAULT_CLOSE_TIMEOUT = 30.0

#: Sentinel distinguishing "use the constructor's drain_timeout" from an
#: explicit ``timeout=None`` (wait forever) at the drain() call site.
_UNSET = object()

logger = logging.getLogger("repro.service")


@dataclass
class Request:
    """One admitted unit of work."""

    kind: str
    dataset: str
    payload: Any
    seq: int
    enqueued_at: float
    deadline: Optional[float]  # absolute, on the server clock
    future: "asyncio.Future[Response]"


@dataclass
class Response:
    """The result envelope every request future resolves to."""

    seq: int
    value: Any
    completed_index: int
    latency: float
    batch_size: int = 1


@dataclass
class ServerStats:
    """Monotonic counters mirrored to ``repro.obs`` (readable without it)."""

    admitted: int = 0
    completed: int = 0
    shed: int = 0
    deadline_missed: int = 0
    batches: int = 0
    max_queue_depth: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_missed": self.deadline_missed,
            "batches": self.batches,
            "max_queue_depth": self.max_queue_depth,
            "by_kind": dict(self.by_kind),
        }


class SATServer:
    """Async request scheduler over a :class:`TiledSATStore`.

    Use as an async context manager, or pair :meth:`start` with
    :meth:`drain`. ``clock`` is injectable for deterministic deadline
    tests.
    """

    def __init__(
        self,
        store: Optional[TiledSATStore] = None,
        *,
        max_queue: int = 256,
        max_batch: int = 64,
        clock: Callable[[], float] = time.monotonic,
        drain_timeout: Optional[float] = None,
        router: Optional["ShardRouter"] = None,
        adaptive=None,
    ):
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if drain_timeout is not None and drain_timeout <= 0:
            raise ConfigurationError(
                f"drain_timeout must be positive (or None), got {drain_timeout}"
            )
        self.router = router
        self.store = store if store is not None else TiledSATStore()
        self.max_queue = max_queue
        self.max_batch = max_batch
        # Adaptive micro-batching: pass True for the default closed-loop
        # controller (capped at this server's max_batch), a
        # ControllerConfig for tuned thresholds, or a ready
        # AdaptiveController (tests inject fake-clocked ones). When set,
        # the controller's live batch_size replaces the fixed max_batch
        # as the micro-batch ceiling, its coalesce_window adds a bounded
        # wait for undersized batchable runs (and retunes the cluster
        # router's coalescer), and predicted-deadline shedding runs at
        # admission.
        if adaptive is None or adaptive is False:
            self.controller: Optional[AdaptiveController] = None
        elif isinstance(adaptive, AdaptiveController):
            self.controller = adaptive
        elif isinstance(adaptive, ControllerConfig):
            self.controller = AdaptiveController(adaptive, clock=clock)
        elif adaptive is True:
            self.controller = AdaptiveController(
                ControllerConfig(
                    max_batch=max_batch,
                    initial_batch=max(1, min(8, max_batch)),
                ),
                clock=clock,
            )
        else:
            raise ConfigurationError(
                f"adaptive must be True, a ControllerConfig, or an "
                f"AdaptiveController, got {adaptive!r}"
            )
        self.clock = clock
        self.drain_timeout = drain_timeout
        self.stats = ServerStats()
        self._queue: "asyncio.Queue[Request]" = asyncio.Queue()
        self._held: Optional[Request] = None  # incompatible head, runs next
        self._accepting = False
        self._busy = False  # a dequeued batch is executing
        self._executing: List[Request] = []  # the dequeued batch itself
        self._scheduler: Optional[asyncio.Task] = None
        self._seq = 0
        self._completed = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "SATServer":
        if self._scheduler is not None:
            raise ConfigurationError("server already started")
        self._accepting = True
        self._scheduler = asyncio.ensure_future(self._run())
        return self

    async def drain(self, timeout=_UNSET) -> None:
        """Stop admission, run the queue dry, stop the scheduler.

        ``timeout`` (seconds; default: the constructor's ``drain_timeout``)
        bounds the wait. If work is still queued or executing when it
        expires — a wedged worker thread, typically — every unfinished
        request's future receives :class:`~repro.errors.DrainTimeout`, the
        in-flight count is logged, the scheduler is cancelled, and the
        same ``DrainTimeout`` raises to the caller. ``timeout=None`` waits
        forever (the pre-timeout behavior).
        """
        if timeout is _UNSET:
            timeout = self.drain_timeout
        self._accepting = False
        deadline = None if timeout is None else self.clock() + timeout
        while self._held is not None or not self._queue.empty() or self._busy:
            if deadline is not None and self.clock() > deadline:
                await self._abort_drain(timeout)
                return  # _abort_drain always raises
            await asyncio.sleep(0.001)
        # Nothing queued, held, or in flight, and admission is closed: the
        # scheduler can only be parked on queue.get(), so cancelling here
        # cannot lose an admitted request.
        await self._stop_scheduler()

    async def close(self, timeout: Optional[float] = None) -> None:
        """Drain with a *bounded* wait — shutdown can never hang forever.

        Uses ``timeout``, else the constructor's ``drain_timeout``, else
        :data:`DEFAULT_CLOSE_TIMEOUT`; raises
        :class:`~repro.errors.DrainTimeout` if the bound expires.
        """
        if timeout is None:
            timeout = self.drain_timeout
        if timeout is None:
            timeout = DEFAULT_CLOSE_TIMEOUT
        await self.drain(timeout=timeout)

    async def _abort_drain(self, timeout) -> None:
        """Fail everything still pending with DrainTimeout, then raise it."""
        pending: List[Request] = list(self._executing)
        if self._held is not None:
            pending.append(self._held)
            self._held = None
        while True:
            try:
                pending.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        error = DrainTimeout(
            f"server drain did not finish within {timeout}s; "
            f"{len(pending)} request(s) still in flight"
        )
        logger.warning(
            "drain timed out after %ss with %d in-flight request(s); "
            "failing them with DrainTimeout", timeout, len(pending),
        )
        obs.inc("serving_drain_timeouts_total")
        for request in pending:
            if not request.future.done():
                request.future.set_exception(error)
        await self._stop_scheduler()
        raise error

    async def _stop_scheduler(self) -> None:
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None

    async def __aenter__(self) -> "SATServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() + (1 if self._held is not None else 0)

    @property
    def batch_limit(self) -> int:
        """The live micro-batch ceiling: the controller's when adaptive,
        the fixed ``max_batch`` otherwise."""
        if self.controller is not None:
            return self.controller.batch_size
        return self.max_batch

    def _controller_tick(self, *, force: bool = False) -> None:
        """Run one (rate-limited) control decision off the live queue
        state, and propagate a retuned coalesce window to the router."""
        controller = self.controller
        if controller is None:
            return
        if force:
            ticked = controller.tick(
                controller.snapshot(self.queue_depth, self.max_queue),
                force=True,
            )
        else:
            ticked = controller.maybe_tick(self.queue_depth, self.max_queue)
        if ticked and self.router is not None:
            self.router.coalesce_window = controller.coalesce_window

    # -- admission -----------------------------------------------------------

    def submit(self, kind: str, dataset: str, payload: Any = None, *,
               timeout: Optional[float] = None) -> "asyncio.Future[Response]":
        """Admit one request, or shed it with :class:`Overloaded`.

        Non-blocking by construction: either the request fits under the
        queue bound and a future is returned, or ``Overloaded`` raises
        immediately. ``timeout`` (seconds) sets the request's deadline
        relative to now.
        """
        if not self._accepting:
            obs.inc("serving_shed_total", reason="draining")
            self.stats.shed += 1
            raise Overloaded(
                "server is not accepting requests (not started, or draining)"
            )
        # Tick on the admission path too: under a burst the scheduler may
        # be deep in compute, and shedding must engage from live queue
        # depth, not from the last time a batch finished. Rate-limited, so
        # the common case is one comparison.
        self._controller_tick()
        if self.queue_depth >= self.max_queue:
            obs.inc("serving_shed_total", reason="queue_full")
            self.stats.shed += 1
            raise Overloaded(
                f"ingest queue is full ({self.max_queue} requests); retry "
                f"with backoff"
            )
        if self.controller is not None and self.controller.should_shed(timeout):
            obs.inc("serving_shed_total", reason="predicted_deadline")
            self.stats.shed += 1
            raise Overloaded(
                f"shedding engaged and the {timeout}s deadline budget is "
                f"below the live p99 estimate; this request would expire "
                f"in the queue"
            )
        now = self.clock()
        self._seq += 1
        request = Request(
            kind=kind,
            dataset=dataset,
            payload=payload,
            seq=self._seq,
            enqueued_at=now,
            deadline=None if timeout is None else now + timeout,
            future=asyncio.get_running_loop().create_future(),
        )
        self._queue.put_nowait(request)
        self.stats.admitted += 1
        self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        depth = self.queue_depth
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        obs.inc("serving_requests_total", kind=kind)
        obs.set_gauge("serving_queue_depth", depth)
        return request.future

    # Typed conveniences — each returns the resolved Response.

    async def ingest(self, name: str, matrix: np.ndarray, *,
                     tile: Optional[int] = None, track_squares: bool = False,
                     timeout: Optional[float] = None) -> Response:
        payload = {"matrix": matrix, "tile": tile, "track_squares": track_squares}
        return await self.submit("ingest", name, payload, timeout=timeout)

    async def region_sum(self, name: str, top: int, left: int, bottom: int,
                         right: int, *, timeout: Optional[float] = None) -> Response:
        return await self.submit(
            "region_sum", name, (top, left, bottom, right), timeout=timeout
        )

    async def local_stats(self, name: str, r: int, c: int, radius: int, *,
                          timeout: Optional[float] = None) -> Response:
        return await self.submit("local_stats", name, (r, c, radius), timeout=timeout)

    async def box_filter(self, name: str, radius: int, *,
                         timeout: Optional[float] = None) -> Response:
        return await self.submit("box_filter", name, radius, timeout=timeout)

    async def update_point(self, name: str, r: int, c: int, *,
                           delta=None, value=None,
                           timeout: Optional[float] = None) -> Response:
        return await self.submit(
            "update_point", name,
            {"r": r, "c": c, "delta": delta, "value": value}, timeout=timeout,
        )

    async def update_region(self, name: str, top: int, left: int,
                            values: np.ndarray, *, add: bool = False,
                            timeout: Optional[float] = None) -> Response:
        return await self.submit(
            "update_region", name,
            {"top": top, "left": left, "values": values, "add": add},
            timeout=timeout,
        )

    # -- scheduling ----------------------------------------------------------

    async def _next_request(self) -> Request:
        if self._held is not None:
            request, self._held = self._held, None
            return request
        return await self._queue.get()

    def _take_compatible(self, head: Request) -> List[Request]:
        """The maximal contiguous batchable run starting at ``head``."""
        batch = [head]
        if head.kind not in BATCHABLE:
            return batch
        while len(batch) < self.batch_limit:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt.kind == head.kind and nxt.dataset == head.dataset:
                batch.append(nxt)
            else:
                self._held = nxt  # preserve FIFO: run it next, alone or as
                break             # the head of its own batch
        return batch

    async def _run(self) -> None:
        while True:
            head = await self._next_request()
            # _busy flips synchronously with the dequeue (no await between),
            # so drain() can never observe "queue empty, nothing in flight"
            # while a batch is actually executing.
            self._busy = True
            try:
                batch = self._take_compatible(head)
                self._executing = batch  # visible to a timing-out drain
                batch = await self._maybe_extend(batch)
                obs.set_gauge("serving_queue_depth", self.queue_depth)
                try:
                    await self._execute(batch)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # defensive: never kill the loop
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(exc)
                self._controller_tick()
            finally:
                self._executing = []
                self._busy = False

    async def _maybe_extend(self, batch: List[Request]) -> List[Request]:
        """Adaptive coalesce window: an undersized batchable run waits up
        to the controller's window for more compatible arrivals before
        executing — the local analogue of the cluster coalescer's window.
        No-op without a controller (fixed-knob servers never wait)."""
        controller = self.controller
        if (controller is None or controller.coalesce_window <= 0.0
                or batch[0].kind not in BATCHABLE
                or len(batch) >= self.batch_limit
                # An incompatible request is already parked in the single-slot
                # _held; waiting would let the loop below overwrite it (its
                # future would never resolve) and would invert FIFO. Run the
                # current batch now so the held request goes next.
                or self._held is not None):
            return batch
        await asyncio.sleep(controller.coalesce_window)
        head = batch[0]
        while len(batch) < self.batch_limit:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt.kind == head.kind and nxt.dataset == head.dataset:
                batch.append(nxt)
            else:
                self._held = nxt
                break
        self._executing = batch
        return batch

    async def _execute(self, batch: List[Request]) -> None:
        now = self.clock()
        live: List[Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self.stats.deadline_missed += 1
                obs.inc("serving_deadline_missed_total", kind=request.kind)
                self._resolve_exc(
                    request,
                    DeadlineExceeded(
                        f"request {request.seq} ({request.kind}) queued "
                        f"{now - request.enqueued_at:.3f}s, past its deadline"
                    ),
                )
            else:
                live.append(request)
        if not live:
            return
        self.stats.batches += 1
        obs.inc("serving_batches_total", kind=live[0].kind)
        obs.observe("serving_batch_size", len(live), kind=live[0].kind)
        if self.controller is not None and live[0].kind in BATCHABLE:
            self.controller.observe_batch(len(live))
        try:
            values = await self._dispatch(live)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            for request in live:
                self._resolve_exc(request, exc)
            return
        done = self.clock()
        for request, value in zip(live, values):
            self._completed += 1
            self.stats.completed += 1
            latency = done - request.enqueued_at
            obs.observe("serving_request_seconds", latency, kind=request.kind)
            if self.controller is not None:
                self.controller.observe_latency(latency)
            if not request.future.done():
                request.future.set_result(Response(
                    seq=request.seq, value=value,
                    completed_index=self._completed, latency=latency,
                    batch_size=len(live),
                ))

    def _resolve_exc(self, request: Request, exc: BaseException) -> None:
        self._completed += 1
        if not request.future.done():
            request.future.set_exception(exc)

    async def _dispatch(self, live: List[Request]) -> List[Any]:
        """Execute one compatible batch and return one value per request."""
        if self.router is not None:
            return await self._dispatch_cluster(live)
        kind = live[0].kind
        if kind == "region_sum":
            ds = self.store.get(live[0].dataset)
            rects = np.array([r.payload for r in live], dtype=np.int64)
            sums = q.region_sums(ds, rects)
            return [s.item() for s in sums]
        if kind == "local_stats":
            ds = self.store.get(live[0].dataset)
            radius = live[0].payload[2]
            if any(r.payload[2] != radius for r in live):
                # Mixed radii still vectorize per distinct radius.
                out = []
                for r in live:
                    mean, var = q.local_stats(ds, r.payload[0], r.payload[1],
                                              r.payload[2])
                    out.append((mean, var))
                return out
            points = np.array([r.payload[:2] for r in live], dtype=np.int64)
            mean, var = q.local_stats_many(ds, points, radius)
            return list(zip(mean.tolist(), var.tolist()))
        request = live[0]
        if kind == "box_filter":
            ds = self.store.get(request.dataset)
            return [q.box_filter(ds, request.payload)]
        if kind == "update_point":
            ds = self.store.get(request.dataset)
            p = request.payload
            ds.update_point(p["r"], p["c"], delta=p["delta"], value=p["value"])
            return [ds.version]
        if kind == "update_region":
            ds = self.store.get(request.dataset)
            p = request.payload
            if p["add"]:
                ds.add_region(p["top"], p["left"], p["values"])
            else:
                ds.update_region(p["top"], p["left"], p["values"])
            return [ds.version]
        if kind == "ingest":
            p = request.payload
            with obs.span("serving_ingest", dataset=request.dataset):
                # Decomposition + folding is blocking numpy work; keep the
                # event loop free to admit and shed meanwhile.
                ds = await asyncio.to_thread(
                    self.store.put, request.dataset, p["matrix"],
                    tile=p["tile"], track_squares=p["track_squares"],
                )
            return [ds.shape]
        raise ConfigurationError(f"unknown request kind {kind!r}")

    async def _dispatch_cluster(self, live: List[Request]) -> List[Any]:
        """Cluster mode: execute a compatible batch through the router.

        A whole micro-batch of ``region_sum`` requests becomes *one*
        :meth:`~repro.service.router.ShardRouter.region_sums` call — the
        server's FIFO batcher feeding the router's per-range coalescer is
        exactly the "wire micro-batching into the coalescer" path, so a
        burst of scalar queries costs one worker round trip per range per
        wave. Blocking router calls run on a worker thread; the loop
        keeps admitting and shedding.
        """
        router = self.router
        assert router is not None
        kind = live[0].kind
        name = live[0].dataset
        if kind == "region_sum":
            rects = np.array([r.payload for r in live], dtype=np.int64)
            sums = await asyncio.to_thread(router.region_sums, name, rects)
            return [s.item() for s in sums]
        request = live[0]
        if kind == "update_point":
            p = request.payload
            await asyncio.to_thread(
                router.update_point, name, p["r"], p["c"],
                delta=p["delta"], value=p["value"],
            )
            return [router.checkpoints.dataset(name).version]
        if kind == "update_region":
            p = request.payload
            apply_fn = router.add_region if p["add"] else router.update_region
            await asyncio.to_thread(
                apply_fn, name, p["top"], p["left"], p["values"]
            )
            return [router.checkpoints.dataset(name).version]
        if kind == "ingest":
            p = request.payload
            if p["track_squares"]:
                raise ConfigurationError(
                    "the cluster router does not serve squared aggregates; "
                    "ingest with track_squares=False (or serve locally)"
                )
            with obs.span("serving_ingest", dataset=name):
                kwargs = {} if p["tile"] is None else {"tile": p["tile"]}
                ds = await asyncio.to_thread(
                    router.ingest, name, p["matrix"], **kwargs
                )
            return [ds.shape]
        raise ConfigurationError(
            f"request kind {kind!r} is not servable through the cluster "
            f"router; serve it from a local TiledSATStore"
        )
