"""Cluster-serving benchmarks: chaos volley, failover, checkpoint rejoin.

Measures the claims the fault-tolerant sharded serving tier makes and
writes them to ``results/BENCH_cluster.json``:

1. **Chaos volley** — the seeded cluster loadgen against real worker
   processes: a 4-worker cluster serves a mixed update/query volley while
   the primary owner of the middle tile range is SIGKILLed mid-run with
   the health monitor live. The CI gates are the robustness contract
   itself: **zero** lost responses (``Overloaded`` shedding is an answer,
   an unhandled exception is not), every served value bit-exact against
   the shadow oracle, the victim restarted at least once, and the
   restarted worker demonstrably *rejoined* — fresh epoch, shards
   re-hydrated from checksummed checkpoints, serving lookups again.
2. **Fan-out overhead** — median ``region_sum`` latency through the
   router's ≤4-corner shard fan-out (pipe RPC to worker processes) vs
   the same query answered directly from the local tile aggregates. No
   gate; this is the price tag of process isolation for EXPERIMENTS.md.
3. **Failover latency** — median query latency against a healthy primary
   vs the first volley after its SIGKILL (detection + replica failover,
   breaker and retry machinery engaged). Gate: the post-kill volley
   still answers bit-exactly.
4. **Checkpoint re-hydration** — wall time for a supervisor ``restart()``
   of one worker: respawn + re-hydrate every assigned shard from the
   checkpoint store. Gate: the restarted worker answers bit-exactly.
5. **Coalesced fan-out** — per-rectangle cost of the batched
   ``ShardRouter.region_sums`` path (corner coalescing + pipelined
   multi-point RPC over the shared-memory lookup ring) vs a scalar
   ``region_sum`` per rect, for both the ring and the pipe transport,
   against the local-store price. Gates: batched results bit-identical
   to ``queries.region_sums`` (values *and* dtype) on both transports,
   and the coalesced per-rect overhead <= 8x a local region_sum — the
   headline that the shards now pay for themselves (the scalar fan-out
   baseline was ~24x).
6. **Concurrent load** — aggregate ``region_sums`` throughput with many
   client threads driving the 4-worker cluster vs the same workload
   answered serially by a single-process local store. Gate: clustered
   throughput >= 1.0x local — but only where the host actually has a
   CPU per worker; on smaller hosts the numbers are still measured and
   the gate is recorded as skipped (``gate_skipped: true`` plus the
   reason) so the results file shows *why* it is absent. CI runs this
   gate in report-only mode (``--throughput-report-only``): failures
   print as warnings, bit-exactness still hard-fails.

Runnable standalone (``python benchmarks/bench_cluster.py [--quick]``,
exits non-zero if a gate fails) and as a pytest benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.service.cluster import WorkerSupervisor
from repro.service.loadgen import run_cluster_loadgen
from repro.service.queries import region_sum, region_sums
from repro.service.router import ShardRouter
from repro.service.store import Dataset

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)
JSON_NAME = "BENCH_cluster.json"

WORKERS = 4
REPLICAS = 2


def _median_time(fn, reps: int) -> float:
    """Median seconds per call over ``reps`` timed calls (one warm-up)."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _random_rects(rng, n: int, k: int):
    for _ in range(k):
        r0, r1 = np.sort(rng.integers(0, n, size=2))
        c0, c1 = np.sort(rng.integers(0, n, size=2))
        yield int(r0), int(c0), int(r1), int(c1)


def bench_chaos_volley(n: int, tile: int, rounds: int, burst: int) -> Dict[str, object]:
    """The headline: kill a worker mid-run, lose nothing, stay bit-exact."""
    report = run_cluster_loadgen(
        n=n, tile=tile, workers=WORKERS, replicas=REPLICAS,
        rounds=rounds, burst=burst, update_frac=0.25, seed=0, chaos=True,
    )
    return {
        "n": n,
        "tile": tile,
        "workers": report.workers,
        "replicas": report.replicas,
        "submitted": report.submitted,
        "completed": report.completed,
        "shed": report.shed,
        "lost": report.lost,
        "mismatches": report.mismatches,
        "killed_worker": report.killed_worker,
        "kill_round": report.kill_round,
        "restarts": report.restarts,
        "rejoined": report.rejoined,
        "failovers": report.failovers,
        "retries": report.retries,
        "degraded": report.degraded,
        "responses_per_sec": report.throughput,
        "ok": report.ok,
    }


def bench_fanout_overhead(n: int, tile: int, reps: int) -> Dict[str, object]:
    """Router fan-out (pipe RPC to processes) vs direct local lookup."""
    rng = np.random.default_rng(1)
    a = rng.integers(-100, 100, size=(n, n)).astype(np.float64)
    local = Dataset("bench", a, tile)
    supervisor = WorkerSupervisor(WORKERS)
    router = ShardRouter(supervisor, replicas=REPLICAS)
    try:
        router.ingest("bench", a, tile=tile)
        rects = list(_random_rects(rng, n, 4 * reps)) * 2
        it_r = iter(rects)
        it_l = iter(rects)

        def via_router() -> None:
            router.region_sum("bench", *next(it_r))

        def via_local() -> None:
            region_sum(local, *next(it_l))

        router_sec = _median_time(via_router, reps)
        local_sec = _median_time(via_local, reps)
        match = all(
            router.region_sum("bench", *rect) == region_sum(local, *rect)
            for rect in rects[:16]
        )
    finally:
        router.close()
    return {
        "n": n,
        "tile": tile,
        "router_usec": router_sec * 1e6,
        "local_usec": local_sec * 1e6,
        "fanout_overhead_x": router_sec / local_sec,
        "bit_identical": bool(match),
    }


def bench_failover(n: int, tile: int, reps: int) -> Dict[str, object]:
    """Query latency against a healthy primary vs right after its SIGKILL."""
    rng = np.random.default_rng(2)
    a = rng.integers(-100, 100, size=(n, n)).astype(np.float64)
    shadow = a.copy()
    supervisor = WorkerSupervisor(WORKERS)
    # A long breaker cooldown keeps the dead primary in every owner list
    # during the measured volley: each sample pays the real failover path.
    router = ShardRouter(supervisor, replicas=REPLICAS, breaker_failures=10_000)
    try:
        router.ingest("bench", a, tile=tile)
        placement = router._routes["bench"].placement
        victim_range = len(placement) // 2
        (lo, hi), owners = placement[victim_range]
        victim = owners[0]
        nb_c = router._routes["bench"].nb_c
        # Rectangles whose bottom-right corner lands in the victim's
        # primary range, so every query needs the (dead) primary.
        rects = []
        for lin in range(lo, hi):
            r = (lin // nb_c) * tile
            c = (lin % nb_c) * tile
            rects.append((0, 0, min(r + tile, n) - 1, min(c + tile, n) - 1))
        rects = (rects * (reps * 2 // len(rects) + 2))[: 4 * reps]
        it_h = iter(rects)

        def healthy() -> None:
            router.region_sum("bench", *next(it_h))

        healthy_sec = _median_time(healthy, reps)
        supervisor.kill_worker(victim)
        samples = []
        exact = True
        for rect in rects[:reps]:
            t0 = time.perf_counter()
            value = router.region_sum("bench", *rect)
            samples.append(time.perf_counter() - t0)
            t, l, b, r = rect
            exact &= value == shadow[t:b + 1, l:r + 1].sum()
        failover_sec = float(np.median(samples))
        first_sec = samples[0]
    finally:
        router.close()
    return {
        "n": n,
        "tile": tile,
        "killed_worker": victim,
        "healthy_usec": healthy_sec * 1e6,
        "failover_usec": failover_sec * 1e6,
        "first_failover_usec": first_sec * 1e6,
        "bit_identical_after_kill": bool(exact),
    }


def bench_rehydration(n: int, tile: int) -> Dict[str, object]:
    """Restart one worker and time the checkpoint re-hydration."""
    rng = np.random.default_rng(3)
    a = rng.integers(-100, 100, size=(n, n)).astype(np.float64)
    supervisor = WorkerSupervisor(WORKERS, auto_restart=False)
    router = ShardRouter(supervisor, replicas=REPLICAS)
    try:
        router.ingest("bench", a, tile=tile)
        placement = router._routes["bench"].placement
        victim = placement[0][1][0]
        shards = sum(
            1 for _rng, owners in placement if victim in owners
        )
        epoch_before = supervisor.handles[victim].epoch
        supervisor.kill_worker(victim)
        # Detection is not part of the timed window: a health pass marks
        # the corpse down (kill_worker leaves that to the real paths), and
        # the stopwatch covers respawn + checkpoint re-hydration only.
        supervisor.check_health()
        t0 = time.perf_counter()
        restarted = supervisor.restart(victim)
        restart_sec = time.perf_counter() - t0
        restarted &= supervisor.handles[victim].epoch > epoch_before
        # The restarted worker must answer its primary range bit-exactly.
        (lo, _hi), _owners = placement[0]
        nb_c = router._routes["bench"].nb_c
        r = (lo // nb_c) * tile
        c = (lo % nb_c) * tile
        rect = (r, c, min(r + tile, n) - 1, min(c + tile, n) - 1)
        value = router.region_sum("bench", *rect)
        t, l, b, rr = rect
        exact = value == a[t:b + 1, l:rr + 1].sum()
        cp_stats = router.checkpoints.stats()
    finally:
        router.close()
    return {
        "n": n,
        "tile": tile,
        "shards_rehydrated": shards,
        "restarted": bool(restarted),
        "restart_msec": restart_sec * 1e3,
        "checkpoint_bytes": cp_stats["checkpoint_bytes"],
        "bit_identical_after_restart": bool(exact),
    }


def bench_coalesced_fanout(
    n: int, tile: int, reps: int, batch: int
) -> Dict[str, object]:
    """Batched ``region_sums`` per-rect cost vs scalar, ring vs pipe.

    The batched path coalesces all ``4 * batch`` rectangle corners into
    one multi-point lookup per owning worker and fans the RPCs out
    concurrently, so the per-hop latency the paper's ``(B + 1)l`` term
    charges is amortized across the whole batch instead of paid four
    times per rectangle.
    """
    rng = np.random.default_rng(4)
    a = rng.integers(-100, 100, size=(n, n)).astype(np.float64)
    local = Dataset("bench", a, tile)
    rects = np.array(list(_random_rects(rng, n, batch)), dtype=np.int64)
    scalar_rects = list(_random_rects(rng, n, 4 * reps)) * 2
    want = region_sums(local, rects)

    def measure(use_ring: bool) -> Dict[str, object]:
        supervisor = WorkerSupervisor(WORKERS, use_ring=use_ring)
        router = ShardRouter(supervisor, replicas=REPLICAS)
        try:
            router.ingest("bench", a, tile=tile)
            it = iter(scalar_rects)

            def scalar() -> None:
                router.region_sum("bench", *next(it))

            def batched() -> None:
                router.region_sums("bench", rects)

            scalar_sec = _median_time(scalar, reps)
            batched_sec = _median_time(batched, reps)
            got = router.region_sums("bench", rects)
            transport = supervisor.stats()
        finally:
            router.close()
        return {
            "transport": "ring" if use_ring else "pipe",
            "scalar_usec": scalar_sec * 1e6,
            "batched_usec_per_rect": batched_sec / batch * 1e6,
            "ring_lookups": sum(transport["ring_lookups"].values()),
            "pipe_lookups": sum(transport["pipe_lookups"].values()),
            "bit_identical": bool(
                np.array_equal(got, want) and got.dtype == want.dtype
            ),
        }

    ring = measure(True)
    pipe = measure(False)
    it_l = iter(scalar_rects)

    def local_scalar() -> None:
        region_sum(local, *next(it_l))

    local_sec = _median_time(local_scalar, reps)
    return {
        "n": n,
        "tile": tile,
        "batch": batch,
        "local_usec": local_sec * 1e6,
        "ring": ring,
        "pipe": pipe,
        # The headline: batched-over-ring per-rect cost vs a local
        # scalar region_sum. This is the number the <= 8x gate bounds.
        "coalesced_overhead_x": ring["batched_usec_per_rect"] / (local_sec * 1e6),
        "scalar_overhead_x": ring["scalar_usec"] / (local_sec * 1e6),
    }


def bench_concurrent_load(
    n: int, tile: int, threads: int, batch: int, rounds: int
) -> Dict[str, object]:
    """Threaded clustered ``region_sums`` throughput vs local serial.

    ``threads`` client threads each push ``rounds`` batches of ``batch``
    rectangles through the router concurrently; the local side answers
    the identical workload serially from one ``TiledSATStore`` process.
    With a CPU per worker the cluster should win on aggregate
    throughput; without, the >= 1.0x gate is recorded as skipped with
    the reason rather than silently dropped.
    """
    rng = np.random.default_rng(5)
    a = rng.integers(-100, 100, size=(n, n)).astype(np.float64)
    local = Dataset("bench", a, tile)
    rect_sets = [
        np.array(list(_random_rects(rng, n, batch)), dtype=np.int64)
        for _ in range(threads)
    ]
    supervisor = WorkerSupervisor(WORKERS)
    router = ShardRouter(supervisor, replicas=REPLICAS)
    try:
        router.ingest("bench", a, tile=tile)
        match = True
        for rects in rect_sets:  # warm-up + bit-identity in one pass
            got = router.region_sums("bench", rects)
            want = region_sums(local, rects)
            match &= bool(np.array_equal(got, want) and got.dtype == want.dtype)

        def client(rects: np.ndarray) -> None:
            for _ in range(rounds):
                router.region_sums("bench", rects)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            t0 = time.perf_counter()
            list(pool.map(client, rect_sets))
            cluster_sec = time.perf_counter() - t0
        counters = dict(router.counters)
    finally:
        router.close()

    region_sums(local, rect_sets[0])  # warm the local path too
    t0 = time.perf_counter()
    for rects in rect_sets:
        for _ in range(rounds):
            region_sums(local, rects)
    local_sec = time.perf_counter() - t0

    total = threads * rounds * batch
    cpus = os.cpu_count() or 1
    gate_skipped = cpus < WORKERS
    return {
        "n": n,
        "tile": tile,
        "threads": threads,
        "batch": batch,
        "rounds": rounds,
        "cpu_count": cpus,
        "rects_total": total,
        "cluster_rects_per_sec": total / cluster_sec,
        "local_rects_per_sec": total / local_sec,
        "cluster_over_local": local_sec / cluster_sec,
        "fast_path": counters["fast_path"],
        "coalesced_batches": counters["coalesced_batches"],
        "bit_identical": match,
        # The throughput gate only means something where the 4 workers
        # get real CPUs to run on; record the skip instead of silently
        # disabling it so BENCH_cluster.json shows why it is absent.
        "gate_skipped": gate_skipped,
        "gate_skip_reason": (
            f"cluster >= 1.0x local needs >= {WORKERS} CPUs for "
            f"{WORKERS} workers; host has {cpus}"
        ) if gate_skipped else None,
    }


def run_cluster_benchmark(
    *, chaos_n: int = 256, chaos_tile: int = 32, chaos_rounds: int = 8,
    chaos_burst: int = 32, fanout_n: int = 512, fanout_reps: int = 30,
    failover_reps: int = 20, rehydrate_n: int = 512,
    coalesced_reps: int = 20, coalesced_batch: int = 64,
    concurrent_threads: int = 8, concurrent_batch: int = 32,
    concurrent_rounds: int = 6,
) -> Dict[str, object]:
    chaos = bench_chaos_volley(chaos_n, chaos_tile, chaos_rounds, chaos_burst)
    fanout = bench_fanout_overhead(fanout_n, 64, fanout_reps)
    failover = bench_failover(fanout_n, 64, failover_reps)
    rehydrate = bench_rehydration(rehydrate_n, 64)
    coalesced = bench_coalesced_fanout(
        fanout_n, 64, coalesced_reps, coalesced_batch
    )
    concurrent = bench_concurrent_load(
        fanout_n, 64, concurrent_threads, concurrent_batch, concurrent_rounds
    )
    return {
        "config": {
            "workers": WORKERS, "replicas": REPLICAS, "chaos_n": chaos_n,
            "chaos_tile": chaos_tile, "fanout_n": fanout_n,
            "rehydrate_n": rehydrate_n, "coalesced_batch": coalesced_batch,
            "concurrent_threads": concurrent_threads,
            "concurrent_batch": concurrent_batch,
        },
        "chaos": chaos,
        "fanout": fanout,
        "failover": failover,
        "rehydration": rehydrate,
        "coalesced": coalesced,
        "concurrent": concurrent,
        "summary": {
            "chaos_ok": chaos["ok"],
            "chaos_lost": chaos["lost"],
            "chaos_rejoined": chaos["rejoined"],
            "fanout_overhead_x": fanout["fanout_overhead_x"],
            "failover_usec": failover["failover_usec"],
            "restart_msec": rehydrate["restart_msec"],
            "coalesced_overhead_x": coalesced["coalesced_overhead_x"],
            "scalar_overhead_x": coalesced["scalar_overhead_x"],
            "cluster_over_local": concurrent["cluster_over_local"],
            "throughput_gate_skipped": concurrent["gate_skipped"],
        },
    }


#: Ceiling on the coalesced batched per-rect cost vs a local region_sum.
#: The scalar fan-out baseline was ~24x; coalescing the corners into one
#: multi-point ring RPC per worker must bring the amortized price under
#: this.
COALESCED_OVERHEAD_GATE = 8.0


def check_gates(
    results: Dict[str, object], *, throughput_report_only: bool = False
) -> list:
    """The regression gates CI enforces; returns failure messages.

    ``throughput_report_only`` demotes the concurrent-load *speed* gate
    to a warning (for CI runners whose CPU count is unknowable in
    advance); bit-exactness gates are never demoted.
    """
    failures = []
    chaos = results["chaos"]
    if chaos["lost"] > 0:
        failures.append(
            f"chaos volley lost {chaos['lost']} response(s) — the cluster "
            "must answer or shed, never drop"
        )
    if chaos["mismatches"] > 0:
        failures.append(
            f"chaos volley served {chaos['mismatches']} wrong value(s) vs "
            "the shadow oracle"
        )
    if chaos["restarts"] < 1:
        failures.append("the SIGKILLed worker was never restarted")
    if not chaos["rejoined"]:
        failures.append(
            "the restarted worker did not rejoin from checkpoints and serve"
        )
    if not results["fanout"]["bit_identical"]:
        failures.append("router fan-out disagreed with local tile aggregates")
    if not results["failover"]["bit_identical_after_kill"]:
        failures.append("replica failover served wrong values after SIGKILL")
    if not results["rehydration"]["bit_identical_after_restart"]:
        failures.append("restarted worker served wrong values after re-hydration")
    co = results["coalesced"]
    for side in ("ring", "pipe"):
        if not co[side]["bit_identical"]:
            failures.append(
                f"coalesced region_sums over the {side} transport disagreed "
                "with the local tile aggregates"
            )
    if co["coalesced_overhead_x"] > COALESCED_OVERHEAD_GATE:
        failures.append(
            f"coalesced batched region_sums costs "
            f"{co['coalesced_overhead_x']:.1f}x a local region_sum per rect "
            f"— gate is <= {COALESCED_OVERHEAD_GATE:.0f}x"
        )
    cl = results["concurrent"]
    if not cl["bit_identical"]:
        failures.append(
            "concurrent clustered region_sums disagreed with the local store"
        )
    if (
        not cl["gate_skipped"]
        and not throughput_report_only
        and cl["cluster_over_local"] < 1.0
    ):
        failures.append(
            f"clustered region_sums throughput is not >= 1.0x local "
            f"single-process ({cl['cluster_over_local']:.2f}x on "
            f"{cl['cpu_count']} CPUs)"
        )
    return failures


def skipped_gates(
    results: Dict[str, object], *, throughput_report_only: bool = False
) -> list:
    """Gates present in the contract but not enforced on this run."""
    skipped = []
    cl = results["concurrent"]
    if cl["gate_skipped"]:
        skipped.append(
            f"concurrent-load >= 1.0x local: {cl['gate_skip_reason']}"
        )
    elif throughput_report_only:
        verdict = "met" if cl["cluster_over_local"] >= 1.0 else "MISSED"
        skipped.append(
            "concurrent-load >= 1.0x local: report-only mode "
            f"({cl['cluster_over_local']:.2f}x measured, {verdict})"
        )
    return skipped


def write_json(results: Dict[str, object], results_dir: Optional[str] = None) -> str:
    results_dir = results_dir or RESULTS_DIR
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, JSON_NAME)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def summary_text(results: Dict[str, object]) -> str:
    ch = results["chaos"]
    fo = results["fanout"]
    fv = results["failover"]
    rh = results["rehydration"]
    co = results["coalesced"]
    cl = results["concurrent"]
    return "\n".join([
        f"chaos volley (n={ch['n']}, {ch['workers']} workers, "
        f"{ch['replicas']} replicas): killed worker {ch['killed_worker']} at "
        f"round {ch['kill_round']}; {ch['completed']}/{ch['submitted']} "
        f"answered, lost {ch['lost']}, mismatches {ch['mismatches']}, "
        f"failovers {ch['failovers']}, restarts {ch['restarts']}, "
        f"rejoined={ch['rejoined']} -> {'OK' if ch['ok'] else 'FAILED'}",
        f"fan-out overhead (n={fo['n']}): router {fo['router_usec']:.0f}us vs "
        f"local {fo['local_usec']:.1f}us per region_sum "
        f"({fo['fanout_overhead_x']:.1f}x, bit-identical={fo['bit_identical']})",
        f"failover (n={fv['n']}): healthy {fv['healthy_usec']:.0f}us, "
        f"after SIGKILL {fv['failover_usec']:.0f}us median "
        f"(first {fv['first_failover_usec']:.0f}us), "
        f"bit-identical={fv['bit_identical_after_kill']}",
        f"re-hydration (n={rh['n']}): {rh['shards_rehydrated']} shard(s), "
        f"{rh['checkpoint_bytes'] / 1e6:.1f} MB of checkpoints, restart "
        f"{rh['restart_msec']:.1f}ms, "
        f"bit-identical={rh['bit_identical_after_restart']}",
        f"coalesced fan-out (n={co['n']}, batch={co['batch']}): local "
        f"{co['local_usec']:.1f}us; scalar ring "
        f"{co['ring']['scalar_usec']:.0f}us / pipe "
        f"{co['pipe']['scalar_usec']:.0f}us; batched "
        f"{co['ring']['batched_usec_per_rect']:.1f}us/rect ring / "
        f"{co['pipe']['batched_usec_per_rect']:.1f}us/rect pipe "
        f"({co['coalesced_overhead_x']:.1f}x local, scalar was "
        f"{co['scalar_overhead_x']:.1f}x)",
        f"concurrent load ({cl['threads']} threads x {cl['rounds']} rounds "
        f"x {cl['batch']} rects): cluster "
        f"{cl['cluster_rects_per_sec']:.0f} rect/s vs local "
        f"{cl['local_rects_per_sec']:.0f} rect/s "
        f"({cl['cluster_over_local']:.2f}x, "
        f"{'gate skipped: ' + cl['gate_skip_reason'] if cl['gate_skipped'] else 'gate enforced'})",
    ])


#: Quick-mode sizes shared by ``--quick`` and the pytest benchmark.
QUICK_SIZES = dict(
    chaos_n=128, chaos_tile=16, chaos_rounds=6, chaos_burst=16,
    fanout_n=256, fanout_reps=10, failover_reps=8, rehydrate_n=256,
    coalesced_reps=8, coalesced_batch=64, concurrent_threads=8,
    concurrent_batch=32, concurrent_rounds=4,
)


def test_cluster_benchmark(once, report):
    """Quick-size cluster run with the CI gates asserted."""
    results = once(run_cluster_benchmark, **QUICK_SIZES)
    write_json(results)
    report("BENCH_cluster", summary_text(results), persist=False)
    assert not check_gates(results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chaos-n", type=int, default=256)
    ap.add_argument("--chaos-rounds", type=int, default=8)
    ap.add_argument("--fanout-n", type=int, default=512)
    ap.add_argument(
        "--quick", "--ci", dest="quick", action="store_true",
        help="small fixed sizes for the CI smoke job",
    )
    ap.add_argument(
        "--throughput-report-only", action="store_true",
        help="demote the concurrent-load speed gate to a warning "
        "(bit-exactness still hard-fails); for CI runners with few CPUs",
    )
    ap.add_argument("--out", default=None, help="results directory override")
    args = ap.parse_args(argv)
    if args.quick:
        results = run_cluster_benchmark(**QUICK_SIZES)
    else:
        results = run_cluster_benchmark(
            chaos_n=args.chaos_n, chaos_rounds=args.chaos_rounds,
            fanout_n=args.fanout_n,
        )
    path = write_json(results, args.out)
    print(summary_text(results))
    print(f"wrote {path}")
    report_only = args.throughput_report_only
    for msg in skipped_gates(results, throughput_report_only=report_only):
        print(f"GATE SKIPPED: {msg}")
    failures = check_gates(results, throughput_report_only=report_only)
    for msg in failures:
        print(f"GATE FAILED: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
