"""Deterministic load generator for the serving layer, with an oracle.

Drives a :class:`~repro.service.server.SATServer` with a seeded mix of
updates and queries and *verifies every response* against a shadow copy
of the dataset:

* the shadow matrix is updated at submission time (only for updates that
  were actually admitted), and each query's expected value is computed
  from the shadow at submission — correct because the server executes
  same-dataset requests in FIFO submission order, which is exactly the
  contract under test: any lost, reordered, or double-applied request
  makes some later region sum disagree with the oracle;
* all payloads are integer-valued, so sums are exact in float64 and the
  comparison is bit-strict, not approximate;
* ``completed_index`` monotonicity across the submission sequence is
  checked independently, so a reorder is caught even where values happen
  to collide.

Three phases: **steady** bounded-depth rounds (micro-batching visible),
one **overload** volley past the queue bound (sheds exactly the excess,
serves the rest — never deadlocks), and an optional **deadline** volley
with an already-expired deadline (every request resolves to
``DeadlineExceeded``; expired is an answer, lost is a bug).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, DeadlineExceeded, Overloaded
from .server import SATServer
from .store import TiledSATStore

__all__ = [
    "ClusterLoadgenReport",
    "LoadgenReport",
    "run_cluster_loadgen",
    "run_loadgen",
    "run_overload_comparison",
]


@dataclass
class LoadgenReport:
    """Everything the CLI prints and CI gates on."""

    n: int
    tile: int
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    deadline_missed: int = 0
    lost: int = 0
    mismatches: int = 0
    misordered: int = 0
    updates: int = 0
    queries: int = 0
    elapsed: float = 0.0
    latencies: List[float] = field(default_factory=list)
    server_stats: Dict = field(default_factory=dict)
    store_stats: Dict = field(default_factory=dict)
    adaptive_stats: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.lost == 0 and self.mismatches == 0 and self.misordered == 0

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else float("inf")

    def quantile(self, fraction: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.quantile(np.array(self.latencies), fraction))

    def summary(self) -> str:
        lines = [
            f"loadgen: n={self.n} tile={self.tile} "
            f"submitted={self.submitted} admitted={self.admitted} "
            f"completed={self.completed} shed={self.shed} "
            f"deadline_missed={self.deadline_missed}",
            f"  {self.queries} queries / {self.updates} updates in "
            f"{self.elapsed:.3f}s ({self.throughput:.0f} responses/s), "
            f"latency p50={self.quantile(0.5) * 1e3:.2f}ms "
            f"p99={self.quantile(0.99) * 1e3:.2f}ms, "
            f"max queue depth {self.server_stats.get('max_queue_depth', 0)}",
            f"  verification: lost={self.lost} mismatches={self.mismatches} "
            f"misordered={self.misordered} -> "
            f"{'OK' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)


def _expected_region_sum(shadow: np.ndarray, rect) -> float:
    top, left, bottom, right = rect
    return float(shadow[top : bottom + 1, left : right + 1].sum())


async def _drive(report: LoadgenReport, *, n, tile, rounds, burst, max_queue,
                 max_batch, update_frac, seed, overload, deadline_volley,
                 session, adaptive=None) -> None:
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
    shadow = matrix.copy()
    store = TiledSATStore(default_tile=tile)
    async with SATServer(
        store, max_queue=max_queue, max_batch=max_batch, session=session,
        adaptive=adaptive,
    ) as server:
        await server.ingest("img", matrix, tile=tile, track_squares=True)

        def random_rect():
            r0, r1 = np.sort(rng.integers(0, n, size=2))
            c0, c1 = np.sort(rng.integers(0, n, size=2))
            return int(r0), int(c0), int(r1), int(c1)

        pending = []  # (future, expected value or None, is_update)

        def submit_one():
            report.submitted += 1
            if rng.random() < update_frac:
                r, c = (int(v) for v in rng.integers(0, n, size=2))
                delta = float(rng.integers(-20, 20))
                try:
                    fut = server.submit(
                        "update_point", "img",
                        {"r": r, "c": c, "delta": delta, "value": None},
                    )
                except Overloaded:
                    report.shed += 1
                    return
                shadow[r, c] += delta  # only after admission
                report.updates += 1
                pending.append((fut, None))
            else:
                rect = random_rect()
                try:
                    fut = server.submit("region_sum", "img", rect)
                except Overloaded:
                    report.shed += 1
                    return
                report.queries += 1
                pending.append((fut, _expected_region_sum(shadow, rect)))
            report.admitted += 1

        async def settle():
            nonlocal pending
            batch, pending = pending, []
            results = await asyncio.gather(
                *(fut for fut, _ in batch), return_exceptions=True
            )
            order = []
            for (fut, expected), outcome in zip(batch, results):
                if isinstance(outcome, DeadlineExceeded):
                    report.deadline_missed += 1
                    continue
                if isinstance(outcome, BaseException):
                    report.lost += 1
                    continue
                report.completed += 1
                report.latencies.append(outcome.latency)
                order.append(outcome.completed_index)
                if expected is not None and outcome.value != expected:
                    report.mismatches += 1
            # FIFO contract: completion indices of one submission sequence
            # must come back strictly increasing.
            report.misordered += sum(
                1 for a, b in zip(order, order[1:]) if b <= a
            )

        t0 = time.perf_counter()
        # Phase 1: steady rounds under the queue bound.
        for _ in range(rounds):
            for _ in range(burst):
                submit_one()
            await settle()
        # Phase 2: one volley past the bound — the excess sheds, the rest
        # serves, and nothing deadlocks.
        if overload:
            for _ in range(2 * max_queue):
                submit_one()
            await settle()
        # Phase 3: already-expired deadlines resolve as DeadlineExceeded.
        if deadline_volley:
            for _ in range(deadline_volley):
                rect = random_rect()
                report.submitted += 1
                try:
                    fut = server.submit("region_sum", "img", rect, timeout=-1.0)
                except Overloaded:
                    report.shed += 1
                    continue
                report.admitted += 1
                report.queries += 1
                pending.append((fut, _expected_region_sum(shadow, rect)))
            await settle()
        report.elapsed = time.perf_counter() - t0

        # Final end-to-end check: the served state equals the shadow the
        # oracle accumulated (catches a lost-but-acked update).
        final = await server.region_sum("img", 0, 0, n - 1, n - 1)
        if final.value != float(shadow.sum()):
            report.mismatches += 1
        report.server_stats = server.stats.as_dict()
        if server.controller is not None:
            report.adaptive_stats = server.controller.describe()
    report.store_stats = store.stats()


# =============================================================================
# Cluster chaos loadgen
# =============================================================================


@dataclass
class ClusterLoadgenReport:
    """Chaos-volley outcome for the sharded cluster; CI gates on ``ok``.

    The contract is stricter than "survives": with a worker SIGKILLed
    mid-run, **zero** responses may be lost (``Overloaded`` shedding is
    an answer; an unhandled exception is not), every served value must
    stay bit-exact against the shadow oracle, and the killed worker must
    *rejoin* — restart on a fresh epoch, re-hydrate its shards from
    checksummed checkpoints, and demonstrably serve lookups again.
    """

    n: int
    tile: int
    workers: int
    replicas: int
    chaos: bool
    concurrency: int = 1
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    lost: int = 0
    mismatches: int = 0
    updates: int = 0
    queries: int = 0
    degraded: int = 0
    failovers: int = 0
    retries: int = 0
    restarts: int = 0
    killed_worker: int = -1
    kill_round: int = -1
    rejoined: bool = False
    elapsed: float = 0.0
    router_stats: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        healthy = self.lost == 0 and self.mismatches == 0
        if not self.chaos:
            return healthy
        return healthy and self.restarts >= 1 and self.rejoined

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else float("inf")

    def summary(self) -> str:
        chaos_bits = (
            f"killed worker {self.killed_worker} at round {self.kill_round}, "
            f"restarts={self.restarts} rejoined={self.rejoined}"
            if self.chaos
            else "chaos off"
        )
        lines = [
            f"cluster loadgen: n={self.n} tile={self.tile} "
            f"workers={self.workers} replicas={self.replicas} "
            f"concurrency={self.concurrency} | {chaos_bits}",
            f"  {self.queries} queries / {self.updates} updates in "
            f"{self.elapsed:.3f}s ({self.throughput:.0f} responses/s); "
            f"failovers={self.failovers} retries={self.retries} "
            f"degraded={self.degraded} shed={self.shed}",
            f"  verification: lost={self.lost} mismatches={self.mismatches} "
            f"-> {'OK' if self.ok else 'FAILED'}",
        ]
        return "\n".join(lines)


def run_cluster_loadgen(*, n: int = 256, tile: int = 32, workers: int = 4,
                        replicas: int = 2, rounds: int = 8, burst: int = 32,
                        update_frac: float = 0.25, seed: int = 0,
                        chaos: bool = True, kill_round: Optional[int] = None,
                        inline: bool = False,
                        concurrency: int = 1) -> ClusterLoadgenReport:
    """Drive the sharded cluster with a seeded volley, optionally killing
    a worker mid-run, and verify every answer against a shadow oracle.

    The victim is the primary owner of the dataset's middle tile range —
    a worker that is definitely load-bearing — SIGKILLed at the start of
    round ``kill_round`` (default: the middle round) while the health
    monitor runs, so detection, failover, restart, and checkpoint
    re-hydration all happen under live query traffic. ``inline=True``
    swaps worker processes for in-process state (fast deterministic runs;
    no real SIGKILL, the supervisor drops the worker's state instead).

    ``concurrency > 1`` keeps that many queries in flight per round (on a
    thread pool), which is what exercises the router's coalescer and
    pipelined fan-out: each round's updates still apply serially first —
    the shadow oracle needs a deterministic prefix — then the round's
    queries race, every answer still compared bit-exact against the
    shadow state they were issued against.
    """
    from .cluster import WorkerSupervisor
    from .router import ShardRouter

    if concurrency < 1:
        raise ConfigurationError(f"concurrency must be >= 1, got {concurrency}")
    report = ClusterLoadgenReport(
        n=n, tile=tile, workers=workers, replicas=replicas, chaos=chaos,
        concurrency=concurrency,
    )
    if kill_round is None:
        kill_round = rounds // 2
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
    shadow = matrix.copy()
    supervisor = WorkerSupervisor(
        workers, inline=inline, heartbeat_interval=0.05,
    )
    router = ShardRouter(supervisor, replicas=replicas)
    try:
        router.ingest("img", matrix, tile=tile)
        placement = router._routes["img"].placement
        victim = placement[len(placement) // 2][1][0]
        victim_handle = supervisor.handles[victim]
        epoch_before = victim_handle.epoch
        if not inline:
            supervisor.start_monitor()

        def one_op() -> None:
            report.submitted += 1
            if rng.random() < update_frac:
                r, c = (int(v) for v in rng.integers(0, n, size=2))
                delta = float(rng.integers(-20, 20))
                try:
                    router.update_point("img", r, c, delta=delta)
                except Exception:  # noqa: BLE001 — any escape is a loss
                    report.lost += 1
                    return
                shadow[r, c] += delta
                report.updates += 1
                report.completed += 1
                return
            r0, r1 = np.sort(rng.integers(0, n, size=2))
            c0, c1 = np.sort(rng.integers(0, n, size=2))
            rect = (int(r0), int(c0), int(r1), int(c1))
            try:
                value = router.region_sum("img", *rect)
            except Overloaded:
                report.shed += 1
                return
            except Exception:  # noqa: BLE001
                report.lost += 1
                return
            report.queries += 1
            report.completed += 1
            if value != _expected_region_sum(shadow, rect):
                report.mismatches += 1

        executor = (
            ThreadPoolExecutor(
                max_workers=concurrency, thread_name_prefix="repro-loadgen"
            )
            if concurrency > 1 else None
        )

        def one_round() -> None:
            if executor is None:
                for _ in range(burst):
                    one_op()
                return
            # Concurrent mode: draw the round's ops up front (the rng is
            # not thread-safe), apply updates serially so the oracle has a
            # deterministic prefix, then race the queries with up to
            # ``concurrency`` in flight.
            rects = []
            for _ in range(burst):
                report.submitted += 1
                if rng.random() < update_frac:
                    r, c = (int(v) for v in rng.integers(0, n, size=2))
                    delta = float(rng.integers(-20, 20))
                    try:
                        router.update_point("img", r, c, delta=delta)
                    except Exception:  # noqa: BLE001 — any escape is a loss
                        report.lost += 1
                        continue
                    shadow[r, c] += delta
                    report.updates += 1
                    report.completed += 1
                else:
                    r0, r1 = np.sort(rng.integers(0, n, size=2))
                    c0, c1 = np.sort(rng.integers(0, n, size=2))
                    rects.append((int(r0), int(c0), int(r1), int(c1)))
            expected = [_expected_region_sum(shadow, rect) for rect in rects]
            futures = [
                executor.submit(router.region_sum, "img", *rect)
                for rect in rects
            ]
            for future, want in zip(futures, expected):
                try:
                    value = future.result()
                except Overloaded:
                    report.shed += 1
                    continue
                except Exception:  # noqa: BLE001
                    report.lost += 1
                    continue
                report.queries += 1
                report.completed += 1
                if value != want:
                    report.mismatches += 1

        t0 = time.perf_counter()
        for round_idx in range(rounds):
            if chaos and round_idx == kill_round:
                report.killed_worker = victim
                report.kill_round = round_idx
                supervisor.kill_worker(victim)
                if inline:
                    # No monitor thread in inline mode: recovery rides the
                    # next health pass, exactly what the monitor would do.
                    supervisor.check_health()
            one_round()
            if inline and chaos and round_idx >= kill_round:
                supervisor.check_health()
        report.elapsed = time.perf_counter() - t0
        if executor is not None:
            executor.shutdown(wait=True)

        if chaos:
            # Rejoin: wait for the victim to come back on a fresh epoch...
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if (victim_handle.state == "alive"
                        and victim_handle.epoch > epoch_before):
                    break
                if inline:
                    supervisor.check_health()
                time.sleep(0.02)
            supervisor.wait_healthy(5.0)
            # ...then prove the restarted worker *serves*: aim queries at
            # its primary range and watch its lookup counter move.
            served_before = victim_handle.lookups_served
            if victim < len(placement):
                (lo, _hi), _owners = placement[victim]
                nb_c = router._routes["img"].nb_c
                r = (lo // nb_c) * tile
                c = (lo % nb_c) * tile
                for _ in range(4):
                    rect = (r, c, min(r + tile, n) - 1, min(c + tile, n) - 1)
                    report.submitted += 1
                    try:
                        value = router.region_sum("img", *rect)
                    except Exception:  # noqa: BLE001
                        report.lost += 1
                        continue
                    report.queries += 1
                    report.completed += 1
                    if value != _expected_region_sum(shadow, rect):
                        report.mismatches += 1
            report.rejoined = (
                victim_handle.state == "alive"
                and victim_handle.epoch > epoch_before
                and victim_handle.lookups_served > served_before
            )

        # Final end-to-end check against the shadow (catches lost-but-acked
        # updates and stale rehydrated state alike).
        final = router.region_sum("img", 0, 0, n - 1, n - 1)
        if final != float(shadow.sum()):
            report.mismatches += 1
        report.restarts = supervisor.restarts_total
        stats = router.stats()
        report.failovers = stats["failovers"]
        report.retries = stats["retries"]
        report.degraded = stats["degraded"]
        report.router_stats = stats
    finally:
        router.close()
    return report


def run_loadgen(*, n: int = 256, tile: int = 64, rounds: int = 8,
                burst: int = 48, max_queue: int = 64, max_batch: int = 32,
                update_frac: float = 0.25, seed: int = 0,
                overload: bool = True, deadline_volley: int = 8,
                session=None, adaptive=None) -> LoadgenReport:
    """Run the seeded load-generation workload; see the module docstring.

    A ``session`` (a :class:`~repro.sat.batch.BatchSession`) routes the
    initial ingest's tile SATs through the multi-core HMM backend.
    ``adaptive`` is forwarded to :class:`SATServer` (True, a
    ``ControllerConfig``, or a ready controller) to serve the same
    oracle-verified workload with closed-loop micro-batching.
    """
    report = LoadgenReport(n=n, tile=tile)
    asyncio.run(_drive(
        report, n=n, tile=tile, rounds=rounds, burst=burst,
        max_queue=max_queue, max_batch=max_batch, update_frac=update_frac,
        seed=seed, overload=overload, deadline_volley=deadline_volley,
        session=session, adaptive=adaptive,
    ))
    return report


async def _overload_arm(arm: Dict, *, n, tile, rounds, burst, max_queue,
                        max_batch, seed, adaptive) -> None:
    """One arm of the overload comparison: query-only volleys with a
    precomputed oracle, so the submit loop is tight and the latencies
    measure the serving path alone."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
    store = TiledSATStore(default_tile=tile)

    def random_rect():
        r0, r1 = np.sort(rng.integers(0, n, size=2))
        c0, c1 = np.sort(rng.integers(0, n, size=2))
        return int(r0), int(c0), int(r1), int(c1)

    # Volley plan drawn (and oracle evaluated) before the server exists:
    # identical across arms for the same seed, zero numpy work at submit.
    volleys = []
    for _ in range(rounds):
        rects = [random_rect() for _ in range(burst)]
        volleys.append([
            (rect, _expected_region_sum(matrix, rect)) for rect in rects
        ])
    # The final volley is the overload one — past the queue bound, the
    # regime the controller exists for.
    rects = [random_rect() for _ in range(2 * max_queue)]
    volleys.append([
        (rect, _expected_region_sum(matrix, rect)) for rect in rects
    ])

    latencies: List[float] = []
    shed = lost = mismatches = 0
    async with SATServer(
        store, max_queue=max_queue, max_batch=max_batch, adaptive=adaptive,
    ) as server:
        await server.ingest("img", matrix, tile=tile)
        for volley in volleys:
            inflight = []
            for rect, expected in volley:
                try:
                    inflight.append(
                        (server.submit("region_sum", "img", rect), expected)
                    )
                except Overloaded:
                    shed += 1
            outcomes = await asyncio.gather(
                *(fut for fut, _ in inflight), return_exceptions=True
            )
            for (_fut, expected), outcome in zip(inflight, outcomes):
                if isinstance(outcome, BaseException):
                    lost += 1
                    continue
                latencies.append(outcome.latency)
                if outcome.value != expected:
                    mismatches += 1
        arm["adaptive_stats"] = (
            server.controller.describe() if server.controller is not None else {}
        )
    arm["completed"] = len(latencies)
    arm["shed"] = shed
    arm["lost"] = lost
    arm["mismatches"] = mismatches
    arm["ok"] = lost == 0 and mismatches == 0 and latencies != []
    arm["p99"] = (
        float(np.quantile(np.array(latencies), 0.99)) if latencies else 0.0
    )


def run_overload_comparison(*, n: int = 128, tile: int = 32, repeats: int = 3,
                            rounds: int = 3, burst: int = 96,
                            max_queue: int = 128, fixed_batch: int = 4,
                            adaptive_cap: int = 64,
                            seed: int = 0) -> Dict:
    """The closed-loop gate: overload volleys, fixed knobs vs adaptive.

    Both arms serve the *same* seeded workload (query-only volleys deep
    enough to flood the queue) through the same oracle-verified driver.
    The fixed arm runs with a small static micro-batch ceiling
    (``fixed_batch``); the adaptive arm starts at that same ceiling and
    lets the controller react — under a volley the queue-growth rule
    doubles the ceiling toward ``adaptive_cap``, so the backlog drains in
    a few large vectorized calls instead of many small dispatches, which
    is where the p99 improvement comes from. The coalesce window is
    pinned to zero here so the measured delta isolates batch-size
    adaptation (the window helps streaming arrivals, not replayed
    volleys).

    Each arm runs ``repeats`` times and keeps its best (minimum) p99 —
    paired best-of-rounds, the same noise-rejection scheme the other
    benchmarks use. Oracle verification stays on in both arms, so the
    comparison re-proves bit-identity under adaptation for free.

    Unlike :func:`run_loadgen`, the comparison driver precomputes every
    volley's oracle values *before* submitting (the volley is query-only,
    so the shadow never changes): the submit loop then does no numpy
    work, and the measured latencies isolate the serving path the
    controller actually tunes instead of being diluted by oracle
    bookkeeping that is identical in both arms. Every response is still
    verified bit-exact against the precomputed oracle.

    Returns a JSON-ready dict with both p99s, the improvement ratio
    (fixed p99 / adaptive p99 — > 1.0 means adaptation won), both arms'
    ``ok`` verdicts, and the adaptive arm's controller trace.
    """
    from .adaptive import ControllerConfig

    def controller_config():
        # A fast tick (the volleys are milliseconds long) and a pinned
        # window; everything else is the documented default loop.
        return ControllerConfig(
            min_batch=1, max_batch=adaptive_cap, initial_batch=fixed_batch,
            tick_interval=0.002, initial_window=0.0, window_min=0.0,
            window_max=0.0,
        )

    def one(arm_seed, adaptive):
        arm: Dict = {}
        asyncio.run(_overload_arm(
            arm, n=n, tile=tile, rounds=rounds, burst=burst,
            max_queue=max_queue,
            max_batch=fixed_batch if adaptive is None else adaptive_cap,
            seed=arm_seed, adaptive=adaptive,
        ))
        return arm

    fixed_p99 = []
    adaptive_p99 = []
    fixed_ok = True
    adaptive_ok = True
    adaptive_stats: Dict = {}
    for i in range(repeats):
        fixed = one(seed + i, None)
        fixed_ok = fixed_ok and fixed["ok"]
        fixed_p99.append(fixed["p99"])
        adapted = one(seed + i, controller_config())
        adaptive_ok = adaptive_ok and adapted["ok"]
        adaptive_p99.append(adapted["p99"])
        adaptive_stats = adapted["adaptive_stats"]
    best_fixed = min(fixed_p99)
    best_adaptive = min(adaptive_p99)
    return {
        "repeats": repeats,
        "rounds": rounds,
        "burst": burst,
        "max_queue": max_queue,
        "fixed_batch": fixed_batch,
        "adaptive_cap": adaptive_cap,
        "fixed_p99_s": best_fixed,
        "adaptive_p99_s": best_adaptive,
        "p99_improvement": (
            best_fixed / best_adaptive if best_adaptive > 0 else float("inf")
        ),
        "fixed_ok": fixed_ok,
        "adaptive_ok": adaptive_ok,
        "adaptive_controller": adaptive_stats,
    }
