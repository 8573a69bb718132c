"""Shard routing with failover, circuit breaking, and graceful degradation.

The :class:`ShardRouter` is the cluster's front door. It owns *policy*:
where each dataset's tile ranges live (contiguous row-major placement,
primary + replica), which worker a corner lookup should try first, when
to stop trying a flapping worker (per-worker circuit breaker), and what
to do when every replica of a range is dark (degrade to the local
authoritative oracle — slower, never wrong). Mechanism — processes,
heartbeats, restarts, checkpoints — lives in
:mod:`repro.service.cluster`.

Query path: a region sum is at most four corner evaluations of the
global SAT (the 2R1W decomposition's O(1) serving guarantee). Each
corner maps to one tile, hence one range, hence an ordered candidate
list ``[primary, replica, ...]``. The router tries candidates with
closed breakers first, laying :class:`~repro.util.backoff.ExponentialBackoff`
pauses between attempts; a :class:`~repro.errors.WorkerUnavailable` from
the supervisor records a breaker failure and moves on. The four corner
values are stitched with the same inclusion–exclusion, in the same
order, as the single-store :func:`repro.service.queries.region_sum`, so a
clustered answer is bit-identical to the local one no matter which
replica served each corner.

Admission control mirrors :class:`~repro.service.server.SATServer`:
requests beyond ``max_inflight`` are shed with
:class:`~repro.errors.Overloaded` at submission, and a request whose
deadline has passed gets :class:`~repro.errors.DeadlineExceeded` before
any worker is bothered.

Throughput comes from amortizing the round trip, the latency-``l`` term
of the paper's ``C/w + S + (B+1)l`` cost model, the same way the 2R1W
kernels amortize global-memory access:

* **Coalescing** — concurrent corner lookups headed for the same tile
  range merge into one multi-point RPC (leader/follower per range: the
  first arrival flushes immediately, arrivals during an in-flight RPC
  accumulate and ride the next one, so an idle router adds zero latency).
* **Pipelining** — a query whose corners span several ranges fans out to
  all owners concurrently instead of serializing the groups; results are
  stitched in the same deterministic order either way.
* **Fast path** — a rectangle whose ≤ 4 corners land in one range skips
  the fan-out machinery for a single round trip.
* The hot transport underneath is the supervisor's shared-memory
  :class:`~repro.service.cluster.LookupRing` (pipe fallback preserved).

Every path stitches with the canonical inclusion–exclusion order, so all
answers stay bit-identical to the local store.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    ConfigurationError,
    CorruptionDetected,
    DeadlineExceeded,
    Overloaded,
    ShapeError,
    WorkerUnavailable,
)
from ..obs import runtime as obs
from ..util.backoff import Clock, ExponentialBackoff, SystemClock
from .cluster import ALIVE, CheckpointStore, WorkerSupervisor
from .queries import region_sums as _local_region_sums
from .store import DEFAULT_TILE, Dataset
from .update import point_update, region_add, region_update

__all__ = ["CircuitBreaker", "ShardRouter", "make_placement"]

logger = logging.getLogger("repro.service.router")


# =============================================================================
# Placement
# =============================================================================


def make_placement(nb_tiles: int, n_workers: int,
                   replicas: int = 2) -> List[Tuple[Tuple[int, int], List[int]]]:
    """Contiguous tile-range shards with primary + replica copies.

    Splits ``nb_tiles`` row-major linearized tile indices into
    ``min(n_workers, nb_tiles)`` contiguous ranges (balanced to within
    one tile) and assigns range ``w`` to workers ``[w, w+1, ...] mod N``
    — primary first, then ``replicas - 1`` successors, so losing any one
    worker leaves every range with a live copy and a restarted worker's
    shards are disjoint contiguous blocks (cheap to re-hydrate).

    Returns ``[((lo, hi), [worker, ...]), ...]`` indexed by range id.
    """
    if n_workers < 1:
        raise ConfigurationError(f"placement needs >= 1 worker, got {n_workers}")
    if replicas < 1:
        raise ConfigurationError(f"placement needs >= 1 replica, got {replicas}")
    n_ranges = min(n_workers, nb_tiles)
    copies = min(replicas, n_workers)
    out: List[Tuple[Tuple[int, int], List[int]]] = []
    for w in range(n_ranges):
        lo = (w * nb_tiles) // n_ranges
        hi = ((w + 1) * nb_tiles) // n_ranges
        owners = [(w + k) % n_workers for k in range(copies)]
        out.append(((lo, hi), owners))
    return out


# =============================================================================
# Circuit breaker
# =============================================================================


@dataclass
class CircuitBreaker:
    """Per-worker breaker: open after K consecutive failures, half-open probe.

    Closed (healthy) → ``failures_to_open`` consecutive failures → open
    (skip this worker) → after ``cooldown`` seconds → half-open (admit
    *one* probe; success closes, failure re-opens). A worker restart
    (visible as a new supervisor epoch) closes the breaker immediately —
    the restarted process shares nothing with the one that failed.
    """

    failures_to_open: int = 3
    cooldown: float = 1.0
    clock: Clock = field(default_factory=SystemClock)
    failures: int = 0
    opened_at: Optional[float] = None
    half_open: bool = False
    epoch_seen: int = -1
    lock: threading.Lock = field(default_factory=threading.Lock)

    def allows(self, epoch: int) -> bool:
        """May we send this worker a request right now?"""
        with self.lock:
            if epoch != self.epoch_seen:  # restarted since we tripped
                self._reset(epoch)
            if self.opened_at is None:
                return True
            if self.half_open:  # a probe is already in flight
                return False
            if self.clock.now() - self.opened_at >= self.cooldown:
                self.half_open = True  # this caller is the probe
                return True
            return False

    def record_success(self, epoch: int) -> None:
        with self.lock:
            self._reset(epoch)

    def record_failure(self, epoch: int) -> bool:
        """Record a failure; returns True if this transition *opened* it."""
        with self.lock:
            if epoch != self.epoch_seen:
                self._reset(epoch)
            self.failures += 1
            if self.half_open:  # failed probe: straight back to open
                self.half_open = False
                self.opened_at = self.clock.now()
                return False
            if self.opened_at is None and self.failures >= self.failures_to_open:
                self.opened_at = self.clock.now()
                return True
            return False

    def _reset(self, epoch: int) -> None:
        self.failures = 0
        self.opened_at = None
        self.half_open = False
        self.epoch_seen = epoch

    @property
    def state(self) -> str:
        with self.lock:
            if self.opened_at is None:
                return "closed"
            return "half-open" if self.half_open else "open"


# =============================================================================
# Router
# =============================================================================


class _DatasetRoute:
    """Routing state for one dataset: its placement and geometry."""

    __slots__ = ("name", "tile", "nb_c", "placement", "_los", "_hi")

    def __init__(self, name: str, tile: int, nb_c: int,
                 placement: List[Tuple[Tuple[int, int], List[int]]]):
        self.name = name
        self.tile = tile
        self.nb_c = nb_c
        self.placement = placement
        # Ranges are contiguous and sorted, so a searchsorted over the
        # lower edges resolves a whole batch of tiles in one shot.
        self._los = np.array([lo for (lo, _hi), _ in placement], dtype=np.int64)
        self._hi = placement[-1][0][1] if placement else 0

    def range_of(self, lin: int) -> int:
        for rid, ((lo, hi), _owners) in enumerate(self.placement):
            if lo <= lin < hi:
                return rid
        raise ShapeError(f"tile {lin} outside every range of {self.name!r}")

    def range_of_many(self, lins: np.ndarray) -> np.ndarray:
        if len(lins) and (lins.min() < 0 or lins.max() >= self._hi):
            bad = int(lins[(lins < 0) | (lins >= self._hi)][0])
            raise ShapeError(f"tile {bad} outside every range of {self.name!r}")
        return np.searchsorted(self._los, lins, side="right") - 1


class _PendingLookup:
    """One caller's share of a coalesced per-range lookup batch."""

    __slots__ = ("points", "deadline", "values", "error", "done")

    def __init__(self, points: np.ndarray, deadline: Optional[float]):
        self.points = points
        self.deadline = deadline
        self.values: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done = False


class _RangeChannel:
    """Coalescing point for one ``(dataset, range)``: leader + followers.

    At most one RPC per channel is in flight (``busy``); arrivals during
    that flight queue in ``pending`` and are swept into the next batch by
    whoever becomes leader. The first arrival on an idle channel leads
    immediately, so coalescing adds no latency when there is no
    concurrency to exploit.
    """

    __slots__ = ("lock", "cond", "busy", "pending")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.busy = False
        self.pending: List[_PendingLookup] = []


class ShardRouter:
    """Front end of the sharded cluster: ingest, update fan-out, queries.

    Writes go through the *authoritative* dataset first (the ordinary
    bit-exact incremental-update paths), then fan the changed shard state
    out to every live worker under the supervisor's topology lock — a
    worker therefore either holds state at the authoritative version or
    is down and will re-hydrate to it. Reads fan ≤ 4 corner lookups out
    to shards and stitch; failures fail over primary → replica with
    backoff, breakers skip flapping workers, and a range with no
    servable replica degrades the *whole query* to the authoritative
    oracle (counted, logged — degraded mode is loud, never silent).
    """

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        *,
        replicas: int = 2,
        max_attempts: int = 3,
        backoff: Optional[ExponentialBackoff] = None,
        clock: Optional[Clock] = None,
        max_inflight: int = 256,
        degrade: bool = True,
        rpc_timeout: float = 2.0,
        breaker_failures: int = 3,
        breaker_cooldown: float = 1.0,
        coalesce: bool = True,
        coalesce_window: float = 0.0,
        coalesce_max_points: int = 4096,
        pipeline: bool = True,
        fanout_threads: Optional[int] = None,
    ):
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
        if coalesce_window < 0:
            raise ConfigurationError(
                f"coalesce_window must be >= 0, got {coalesce_window}"
            )
        if coalesce_max_points < 1:
            raise ConfigurationError(
                f"coalesce_max_points must be >= 1, got {coalesce_max_points}"
            )
        self.supervisor = supervisor
        self.checkpoints: CheckpointStore = supervisor.checkpoints
        self.replicas = replicas
        self.max_attempts = max_attempts
        self.backoff = backoff or ExponentialBackoff(base=0.005, factor=2.0, cap=0.05)
        self.clock = clock if clock is not None else SystemClock()
        self.max_inflight = max_inflight
        self.degrade = degrade
        self.rpc_timeout = rpc_timeout
        self.breakers = [
            CircuitBreaker(
                failures_to_open=breaker_failures,
                cooldown=breaker_cooldown,
                clock=self.clock,
            )
            for _ in range(supervisor.workers)
        ]
        self.coalesce = coalesce
        self.coalesce_window = coalesce_window
        self.coalesce_max_points = coalesce_max_points
        self.pipeline = pipeline
        self.fanout_threads = (
            fanout_threads if fanout_threads is not None
            else max(4, 2 * supervisor.workers)
        )
        self._routes: Dict[str, _DatasetRoute] = {}
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._channels: Dict[Tuple[str, int], _RangeChannel] = {}
        self._channels_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "requests": 0, "failovers": 0, "retries": 0, "degraded": 0,
            "shed": 0, "deadline_missed": 0, "breaker_opens": 0,
            "fast_path": 0, "coalesced_batches": 0, "coalesced_points": 0,
        }

    # -- ingest ---------------------------------------------------------------

    def ingest(self, name: str, matrix: np.ndarray, *,
               tile: int = DEFAULT_TILE) -> Dataset:
        """Build the dataset, register checkpoints, push shards to workers.

        The authoritative copy lives in the checkpoint store; each range's
        checkpoint is cut once and shipped to all of its owners (the same
        checksummed flat checkpoint a post-crash re-hydration would load,
        so ingest exercises the recovery path on every run). An owner that
        is down, or whose load fails or is rejected as corrupt, is left
        marked down for the monitor to re-hydrate; the other owners still
        load and the route is published.
        """
        sup = self.supervisor
        ds = Dataset(name, matrix, tile)
        nb_tiles = ds.values.nb_r * ds.values.nb_c
        placement = make_placement(nb_tiles, sup.workers, self.replicas)
        route = _DatasetRoute(name, ds.values.t, ds.values.nb_c, placement)
        with sup.topology_lock:
            self.checkpoints.register(ds, [rng for rng, _ in placement])
            # Rebuild each worker's assignment list for this dataset.
            for worker_id, assigned in sup.assignments.items():
                sup.assignments[worker_id] = [
                    (n, r) for (n, r) in assigned if n != name
                ]
            fresh: set = set()
            for rid, (_rng, owners) in enumerate(placement):
                cp = self.checkpoints.payload_for(name, rid)
                for worker_id in owners:
                    sup.assignments[worker_id].append((name, rid))
                    if sup.handles[worker_id].state != ALIVE:
                        continue  # restart will re-hydrate from the checkpoint
                    try:
                        sup.load_shard(worker_id, name, cp,
                                       reset=worker_id not in fresh)
                        fresh.add(worker_id)
                    except (WorkerUnavailable, CorruptionDetected):
                        pass  # marked down; the monitor owns its recovery
            self._routes[name] = route
        obs.inc("cluster_ingests_total")
        return ds

    def drop(self, name: str) -> None:
        sup = self.supervisor
        with sup.topology_lock:
            self._routes.pop(name, None)
            self.checkpoints.drop(name)
            with self._channels_lock:
                for key in [k for k in self._channels if k[0] == name]:
                    del self._channels[key]
            for worker_id, assigned in sup.assignments.items():
                sup.assignments[worker_id] = [
                    (n, r) for (n, r) in assigned if n != name
                ]
                if sup.handles[worker_id].state == ALIVE:
                    try:
                        sup.rpc(worker_id, ("drop", name), timeout=self.rpc_timeout)
                    except WorkerUnavailable:
                        pass

    # -- updates --------------------------------------------------------------

    def update_point(self, name: str, r: int, c: int, *,
                     delta=None, value=None) -> None:
        ds = self.checkpoints.dataset(name)
        t = ds.values.t
        with self.supervisor.topology_lock:
            point_update(ds, r, c, delta=delta, value=value)
            self._push_delta(name, ds, r // t, c // t, r // t, c // t)

    def update_region(self, name: str, top: int, left: int,
                      values: np.ndarray) -> None:
        self._region_write(name, top, left, np.asarray(values), region_update)

    def add_region(self, name: str, top: int, left: int,
                   delta: np.ndarray) -> None:
        self._region_write(name, top, left, np.asarray(delta), region_add)

    def _region_write(self, name, top, left, block, apply_fn) -> None:
        ds = self.checkpoints.dataset(name)
        t = ds.values.t
        bottom = top + block.shape[0] - 1
        right = left + block.shape[1] - 1
        with self.supervisor.topology_lock:
            apply_fn(ds, top, left, block)
            self._push_delta(name, ds, top // t, left // t, bottom // t, right // t)

    def _push_delta(self, name: str, ds: Dataset,
                    i0: int, j0: int, i1: int, j1: int) -> None:
        """Fan an update's changed shard state out to every live owner.

        Caller holds the topology lock (so this cannot interleave with a
        re-hydration) and has already applied the update to the
        authoritative dataset. A push failure marks the worker down — it
        will re-hydrate to the current version, so a missed delta can
        never leave a stale replica serving.
        """
        components = ds.values.shard_delta(i0, j0, i1, j1)
        version = ds.version
        sup = self.supervisor
        pushed = 0
        for worker_id, assigned in sup.assignments.items():
            if not any(n == name for (n, _r) in assigned):
                continue
            if sup.handles[worker_id].state != ALIVE:
                continue
            try:
                sup.rpc(worker_id, ("delta", name, version, components),
                        timeout=self.rpc_timeout)
                pushed += 1
            except WorkerUnavailable:
                logger.warning(
                    "delta push for %r v%d lost worker %d; it will re-hydrate",
                    name, version, worker_id,
                )
        obs.inc("cluster_delta_pushes_total", pushed)

    # -- queries --------------------------------------------------------------

    def region_sum(self, name: str, top: int, left: int, bottom: int,
                   right: int, *, timeout: Optional[float] = None):
        """Rectangle sum served from the shards, bit-identical to local.

        Sheds with :class:`Overloaded` beyond ``max_inflight``; honors
        ``timeout`` (seconds from now) with :class:`DeadlineExceeded`
        both at admission and between failover attempts. If any corner's
        range has no servable replica the whole query degrades to the
        authoritative oracle (when ``degrade=True``) or raises the last
        :class:`WorkerUnavailable`.
        """
        route = self._route(name)
        rows_cols = self.checkpoints.dataset(name).shape
        _check_rect(rows_cols, top, left, bottom, right)
        deadline = None if timeout is None else self.clock.now() + timeout
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self.counters["shed"] += 1
                obs.inc("cluster_shed_total")
                raise Overloaded(
                    f"cluster router at max_inflight={self.max_inflight}; "
                    f"retry with backoff"
                )
            self._inflight += 1
        try:
            self.counters["requests"] += 1
            obs.inc("cluster_requests_total", kind="region_sum")
            if deadline is not None and self.clock.now() > deadline:
                self.counters["deadline_missed"] += 1
                obs.inc("cluster_deadline_missed_total")
                raise DeadlineExceeded(
                    f"deadline passed before dispatch of region_sum on {name!r}"
                )
            # The four SAT corners, in the canonical stitch order of
            # queries.region_sum (term order fixes the float rounding).
            corners: List[Tuple[Tuple[int, int], int]] = [((bottom, right), +1)]
            if top > 0:
                corners.append(((top - 1, right), -1))
            if left > 0:
                corners.append(((bottom, left - 1), -1))
            if top > 0 and left > 0:
                corners.append(((top - 1, left - 1), +1))
            values = self._lookup_corners(
                route, [pt for pt, _sign in corners], deadline
            )
            total = values[0]
            for (_pt, sign), value in zip(corners[1:], values[1:]):
                total = total + value if sign > 0 else total - value
            return total
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def region_sums(self, name: str, rects: np.ndarray, *,
                    timeout: Optional[float] = None) -> np.ndarray:
        """Vectorized rectangle-sum batch served from the shards.

        Rows of ``rects`` are ``(top, left, bottom, right)`` inclusive —
        the same contract, validation, and (bit-identical) stitch as the
        local :func:`repro.service.queries.region_sums`. All 4k corners
        ship as one coalesced multi-point lookup per owning range, ranges
        in parallel, so the round-trip cost is amortized over the whole
        batch instead of paid per rectangle.
        """
        route = self._route(name)
        ds = self.checkpoints.dataset(name)
        rects = np.asarray(rects, dtype=np.int64)
        if rects.ndim != 2 or rects.shape[1] != 4:
            raise ShapeError(f"rects must have shape (k, 4), got {rects.shape}")
        top, left, bottom, right = rects.T
        rows, cols = ds.shape
        if (
            (top < 0).any() or (left < 0).any()
            or (top > bottom).any() or (left > right).any()
            or (bottom >= rows).any() or (right >= cols).any()
        ):
            raise ShapeError("some rectangles fall outside the dataset")
        k = len(rects)
        if k == 0:
            return np.zeros(0, dtype=ds.values.dtype)
        deadline = None if timeout is None else self.clock.now() + timeout
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self.counters["shed"] += 1
                obs.inc("cluster_shed_total")
                raise Overloaded(
                    f"cluster router at max_inflight={self.max_inflight}; "
                    f"retry with backoff"
                )
            self._inflight += 1
        try:
            self.counters["requests"] += k
            obs.inc("cluster_requests_total", k, kind="region_sums")
            if deadline is not None and self.clock.now() > deadline:
                self.counters["deadline_missed"] += 1
                obs.inc("cluster_deadline_missed_total")
                raise DeadlineExceeded(
                    f"deadline passed before dispatch of region_sums on {name!r}"
                )
            # All four corner vectors at once; negative indices are the
            # branch-free zeros of sat_at_many, applied router-side.
            corner_r = np.concatenate([bottom, top - 1, bottom, top - 1])
            corner_c = np.concatenate([right, right, left - 1, left - 1])
            valid = (corner_r >= 0) & (corner_c >= 0)
            pts = np.stack([corner_r[valid], corner_c[valid]], axis=1)
            lins = (pts[:, 0] // route.tile) * route.nb_c + (pts[:, 1] // route.tile)
            rids = route.range_of_many(lins)
            unique = np.unique(rids)
            idx_groups = [(int(rid), np.nonzero(rids == rid)[0]) for rid in unique]
            if len(idx_groups) == 1:
                self.counters["fast_path"] += 1
                obs.inc("cluster_fast_path_total")
            try:
                results = self._dispatch_groups(
                    route, [(rid, pts[idxs]) for rid, idxs in idx_groups],
                    deadline,
                )
            except WorkerUnavailable:
                if not self.degrade:
                    raise
                return self._degraded_batch(name, rects)
            served = np.zeros(len(pts), dtype=ds.values.dtype)
            for (_rid, idxs), values in zip(idx_groups, results):
                served[idxs] = np.asarray(values)
            vals = np.zeros(4 * k, dtype=ds.values.dtype)
            vals[valid] = served
            v = vals.reshape(4, k)
            # Same elementwise term order as queries.region_sums.
            return v[0] - v[1] - v[2] + v[3]
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def lookup(self, name: str, r: int, c: int, *,
               timeout: Optional[float] = None):
        """One global-SAT point ``F(r, c)`` served from the shards."""
        route = self._route(name)
        rows, cols = self.checkpoints.dataset(name).shape
        if not (0 <= r < rows and 0 <= c < cols):
            raise ShapeError(
                f"point ({r}, {c}) outside dataset of shape ({rows}, {cols})"
            )
        deadline = None if timeout is None else self.clock.now() + timeout
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                self.counters["shed"] += 1
                obs.inc("cluster_shed_total")
                raise Overloaded(
                    f"cluster router at max_inflight={self.max_inflight}; "
                    f"retry with backoff"
                )
            self._inflight += 1
        try:
            self.counters["requests"] += 1
            obs.inc("cluster_requests_total", kind="lookup")
            if deadline is not None and self.clock.now() > deadline:
                self.counters["deadline_missed"] += 1
                obs.inc("cluster_deadline_missed_total")
                raise DeadlineExceeded(
                    f"deadline passed before dispatch of lookup on {name!r}"
                )
            return self._lookup_corners(route, [(r, c)], deadline)[0]
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    # -- lookup machinery -----------------------------------------------------

    def _lookup_corners(self, route: _DatasetRoute,
                        points: Sequence[Tuple[int, int]],
                        deadline: Optional[float]) -> List[Any]:
        """Evaluate SAT corners via the shards, grouped by range.

        A single-range batch (the overwhelmingly common case for one
        rectangle: all ≤ 4 corners in one tile range) takes the fast
        path — one coalesced round trip, no fan-out machinery. Any
        unservable group degrades the *whole* call — partial mixing of
        shard answers and oracle answers is pointless once the oracle
        (which can answer every corner) has to run anyway.
        """
        pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        if len(pts) <= 8:
            # A single rectangle's corners: plain-Python grouping beats
            # the vectorized unique/nonzero machinery at this size.
            grouped: Dict[int, List[int]] = {}
            tile, nb_c = route.tile, route.nb_c
            for idx, (r, c) in enumerate(points):
                lin = (int(r) // tile) * nb_c + (int(c) // tile)
                grouped.setdefault(route.range_of(lin), []).append(idx)
            idx_groups = list(grouped.items())
        else:
            lins = (pts[:, 0] // route.tile) * route.nb_c + (pts[:, 1] // route.tile)
            rids = route.range_of_many(lins)
            unique = np.unique(rids)
            idx_groups = [
                (int(rid), np.nonzero(rids == rid)[0]) for rid in unique
            ]
        try:
            if len(idx_groups) == 1:
                self.counters["fast_path"] += 1
                obs.inc("cluster_fast_path_total")
                values = self._coalesced_lookup(
                    route, idx_groups[0][0], pts, deadline
                )
                return list(values)
            results = self._dispatch_groups(
                route, [(rid, pts[idxs]) for rid, idxs in idx_groups], deadline
            )
        except WorkerUnavailable:
            if not self.degrade:
                raise
            return self._degraded_corners(
                route.name, [(int(r), int(c)) for r, c in pts]
            )
        out: List[Any] = [None] * len(pts)
        for (_rid, idxs), values in zip(idx_groups, results):
            for i, v in zip(idxs, values):
                out[int(i)] = v
        return out

    def _dispatch_groups(self, route: _DatasetRoute,
                         groups: List[Tuple[int, np.ndarray]],
                         deadline: Optional[float]) -> List[np.ndarray]:
        """One coalesced lookup per range — pipelined when there are several.

        Instead of walking corner groups serially (paying one worker
        round trip after another), every owning range's RPC is in flight
        at once; the caller stitches results in its own deterministic
        order, so pipelining changes latency, never values. Deadline
        failures outrank replica exhaustion when both happen.
        """
        if len(groups) == 1 or not self.pipeline:
            return [
                self._coalesced_lookup(route, rid, pts, deadline)
                for rid, pts in groups
            ]
        # The calling thread leads the first group itself while the rest
        # are in flight on the pool — one fewer thread handoff per call,
        # and the same wall clock as submitting everything.
        executor = self._fanout_executor()
        futures = [
            executor.submit(self._coalesced_lookup, route, rid, pts, deadline)
            for rid, pts in groups[1:]
        ]
        results: List[Any] = []
        errors: List[BaseException] = []
        try:
            results.append(
                self._coalesced_lookup(route, groups[0][0], groups[0][1], deadline)
            )
        except BaseException as exc:  # noqa: BLE001 — collected, re-raised
            results.append(None)
            errors.append(exc)
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 — collected, re-raised
                results.append(None)
                errors.append(exc)
        if errors:
            for exc in errors:
                if isinstance(exc, DeadlineExceeded):
                    raise exc
            for exc in errors:
                if isinstance(exc, WorkerUnavailable):
                    raise exc
            raise errors[0]
        return results

    def _coalesced_lookup(self, route: _DatasetRoute, rid: int,
                          points: np.ndarray,
                          deadline: Optional[float]) -> np.ndarray:
        """Point lookups on one range, merged across concurrent callers.

        Leader/follower per range channel: the first caller on an idle
        channel becomes leader and flushes immediately (zero added
        latency when idle); callers arriving while the leader's RPC is in
        flight queue up and are swept into the next batch — one worker
        round trip per *wave* of concurrent queries instead of one per
        query. Values come back in request order per caller, so
        coalescing is invisible to the stitch.
        """
        if not self.coalesce:
            return self._lookup_on_range(route, rid, points, deadline)
        ch = self._channel(route.name, rid)
        me = _PendingLookup(points, deadline)
        batch: Optional[List[_PendingLookup]] = None
        with ch.cond:
            ch.pending.append(me)
            while True:
                if me.done:
                    break
                if not ch.busy:
                    ch.busy = True
                    if self.coalesce_window > 0 and len(ch.pending) == 1:
                        # Optional batching window: hold leadership briefly
                        # to let concurrent callers pile on.
                        ch.cond.wait(self.coalesce_window)
                    batch = self._take_batch(ch, me)
                    break
                # A caller still queued enforces its own deadline; one
                # already swept into a batch is resolved by its leader
                # (who serves under the batch's earliest deadline).
                if (me.deadline is not None and me in ch.pending
                        and self.clock.now() > me.deadline):
                    ch.pending.remove(me)
                    self.counters["deadline_missed"] += 1
                    obs.inc("cluster_deadline_missed_total")
                    raise DeadlineExceeded(
                        f"deadline passed while queued for range {rid} "
                        f"of {route.name!r}"
                    )
                ch.cond.wait(0.05)
        if batch is None:  # a leader served us while we waited
            if me.error is not None:
                raise me.error
            assert me.values is not None
            return me.values
        if len(batch) > 1:
            n_points = sum(len(p.points) for p in batch)
            self.counters["coalesced_batches"] += 1
            self.counters["coalesced_points"] += n_points
            obs.inc("cluster_coalesced_batches_total")
            obs.inc("cluster_coalesced_points_total", n_points)
        self._serve_batch(route, rid, ch, batch)
        if me.error is not None:
            raise me.error
        assert me.values is not None
        return me.values

    def _serve_batch(self, route: _DatasetRoute, rid: int,
                     ch: _RangeChannel, batch: List[_PendingLookup]) -> None:
        """Leader duty: serve the swept batch under per-caller deadlines.

        The RPC runs under the batch's *earliest* deadline, so a caller
        with a short timeout never waits out another caller's full retry
        ladder. When that earliest deadline fires, only the callers whose
        own deadline has actually passed are resolved with
        :class:`DeadlineExceeded`; the remainder retries under the
        next-earliest deadline. Each round resolves at least one caller,
        so the loop terminates.
        """
        remaining = batch
        try:
            while remaining:
                deadlines = [p.deadline for p in remaining if p.deadline is not None]
                batch_deadline = min(deadlines) if deadlines else None
                merged = (
                    remaining[0].points if len(remaining) == 1
                    else np.concatenate([p.points for p in remaining])
                )
                try:
                    values = self._lookup_on_range(
                        route, rid, merged, batch_deadline
                    )
                except DeadlineExceeded as exc:
                    now = self.clock.now()
                    expired = [
                        p for p in remaining
                        if p.deadline is not None and now > p.deadline
                    ]
                    if not expired:  # at minimum, the earliest holder
                        expired = [
                            p for p in remaining if p.deadline == batch_deadline
                        ]
                    self._resolve_pending(ch, expired, error=exc)
                    remaining = [p for p in remaining if p not in expired]
                except BaseException as exc:  # noqa: BLE001 — fanned out
                    self._resolve_pending(ch, remaining, error=exc)
                    remaining = []
                else:
                    self._resolve_pending(ch, remaining, values=values)
                    remaining = []
        finally:
            with ch.cond:
                ch.busy = False
                ch.cond.notify_all()

    @staticmethod
    def _resolve_pending(ch: _RangeChannel, batch: List[_PendingLookup],
                         values: Optional[np.ndarray] = None,
                         error: Optional[BaseException] = None) -> None:
        with ch.cond:
            offset = 0
            for p in batch:
                n = len(p.points)
                if error is not None:
                    p.error = error
                else:
                    assert values is not None
                    p.values = values[offset:offset + n]
                offset += n
                p.done = True
            ch.cond.notify_all()

    def _take_batch(self, ch: _RangeChannel,
                    me: _PendingLookup) -> List[_PendingLookup]:
        """Sweep pending callers into the leader's batch (size-capped)."""
        ch.pending.remove(me)
        batch = [me]
        budget = self.coalesce_max_points - len(me.points)
        while ch.pending and len(ch.pending[0].points) <= budget:
            p = ch.pending.pop(0)
            batch.append(p)
            budget -= len(p.points)
        return batch

    def _channel(self, name: str, rid: int) -> _RangeChannel:
        key = (name, rid)
        ch = self._channels.get(key)
        if ch is None:
            with self._channels_lock:
                ch = self._channels.setdefault(key, _RangeChannel())
        return ch

    def _fanout_executor(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=self.fanout_threads,
                        thread_name_prefix="repro-router-fanout",
                    )
                    self._executor = executor
        return executor

    def _lookup_on_range(self, route: _DatasetRoute, rid: int,
                         points: np.ndarray,
                         deadline: Optional[float]) -> np.ndarray:
        """Try a range's owners primary-first with breaker gating + backoff."""
        sup = self.supervisor
        owners = route.placement[rid][1]
        last_error: Optional[WorkerUnavailable] = None
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self.counters["retries"] += 1
                obs.inc("cluster_retries_total")
                self.backoff.pause(self.clock, attempt - 1)
            if deadline is not None and self.clock.now() > deadline:
                self.counters["deadline_missed"] += 1
                obs.inc("cluster_deadline_missed_total")
                raise DeadlineExceeded(
                    f"deadline passed after {attempt} attempt(s) on range {rid} "
                    f"of {route.name!r}"
                )
            for nth, worker_id in enumerate(owners):
                handle = sup.handles[worker_id]
                if handle.state != ALIVE:
                    continue
                breaker = self.breakers[worker_id]
                if not breaker.allows(handle.epoch):
                    continue
                try:
                    values, _version = sup.rpc(
                        worker_id, ("lookup", route.name, points),
                        timeout=self.rpc_timeout,
                    )
                except WorkerUnavailable as exc:
                    last_error = exc
                    if breaker.record_failure(handle.epoch):
                        self.counters["breaker_opens"] += 1
                        obs.inc("cluster_circuit_open_total")
                        logger.warning(
                            "circuit opened for worker %d (epoch %d)",
                            worker_id, handle.epoch,
                        )
                    continue
                breaker.record_success(handle.epoch)
                if nth > 0:
                    self.counters["failovers"] += 1
                    obs.inc("cluster_failovers_total")
                return values
        raise last_error if last_error is not None else WorkerUnavailable(
            f"no servable replica for range {rid} of {route.name!r} "
            f"(owners {owners})"
        )

    def _degraded_corners(self, name: str,
                          points: Sequence[Tuple[int, int]]) -> List[Any]:
        """Answer corners from the authoritative oracle — slow, never wrong."""
        self.counters["degraded"] += 1
        obs.inc("cluster_degraded_total")
        logger.warning(
            "degraded mode: serving %d corner(s) of %r from the local oracle",
            len(points), name,
        )
        ds = self.checkpoints.dataset(name)
        with ds.lock:
            return [ds.values.sat_at(r, c) for (r, c) in points]

    def _degraded_batch(self, name: str, rects: np.ndarray) -> np.ndarray:
        """Answer a rectangle batch from the authoritative oracle."""
        self.counters["degraded"] += 1
        obs.inc("cluster_degraded_total")
        logger.warning(
            "degraded mode: serving %d rectangle(s) of %r from the local oracle",
            len(rects), name,
        )
        ds = self.checkpoints.dataset(name)
        return _local_region_sums(ds, rects)

    # -- plumbing -------------------------------------------------------------

    def _route(self, name: str) -> _DatasetRoute:
        route = self._routes.get(name)
        if route is None:
            self.checkpoints.dataset(name)  # raises UnknownDataset
            raise ConfigurationError(
                f"dataset {name!r} is registered but has no placement — "
                f"ingest it through the router"
            )
        return route

    def stats(self) -> Dict[str, Any]:
        return {
            **self.counters,
            "inflight": self._inflight,
            "breakers": {
                w: b.state for w, b in enumerate(self.breakers)
            },
            "supervisor": self.supervisor.stats(),
            "checkpoints": self.checkpoints.stats(),
        }

    def close(self) -> None:
        executor = self._executor
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.supervisor.stop()


def _check_rect(shape: Tuple[int, int], top, left, bottom, right) -> None:
    rows, cols = shape
    if not (0 <= top <= bottom < rows and 0 <= left <= right < cols):
        raise ShapeError(
            f"rectangle ({top},{left})-({bottom},{right}) outside dataset "
            f"of shape {shape}"
        )
