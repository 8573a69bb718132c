"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``      compute a SAT on the simulated HMM and print the traffic summary
``table1``    measured access counts per algorithm (Table I)
``table2``    calibrated runtime predictions vs the published Table II
``tune``      sweep the kR1W mixing parameter at one size
``crossover`` locate the 1R1W/2R1W crossover under both runtime models
``batch``     multi-core batch SAT throughput (warm BatchSession over a
              ProcessPoolExecutor with shared-memory matrix transport)
``chaos``     run every algorithm under a seeded fault plan; assert the
              resilience invariant (correct SAT or typed error, never a
              silently wrong answer)
``stats``     run a small instrumented workload with observability on and
              export the collected metrics (JSON / Prometheus text), plus
              the cost-model audit across all six algorithms and the
              autotune planner's decision accounting
``autotune``  print the live cost-model decision table (what
              ``algorithm="auto"`` picks per size) against the published
              Table II winners; optionally run a measured refinement
              session and persist the learned choices
``serve``     in-process demo of the tiled SAT serving layer: ingest
              datasets into the bounded store, apply incremental updates
              (timed against full recompute), answer queries, print the
              server/store stats
``loadgen``   drive the async server with a seeded, oracle-verified load
              mix; exit non-zero on any lost/misordered/mismatched
              response (the CI smoke gate)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .machine.params import MachineParams
from .sat import ALGORITHM_NAMES, make_algorithm
from .util.formatting import format_table
from .util.matrices import random_matrix


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=32, help="machine width w (default 32)")
    p.add_argument("--latency", type=int, default=512, help="latency l in units")


def _params(args) -> MachineParams:
    return MachineParams(width=args.width, latency=args.latency)


def cmd_demo(args) -> int:
    """Run one SAT on the simulated HMM and verify it against numpy.

    ``--repeat`` reruns the same shape to exercise the plan cache;
    ``--fast`` runs the warm repeats on the fast path (memoized traffic
    tallies), and ``--fused`` picks that path's backend (batched numpy or
    the compiled native megakernels).
    """
    from .machine.engine import ExecutionEngine, PlanCache

    a = random_matrix(args.n, seed=args.seed)
    algo = make_algorithm(args.algorithm, **({"p": args.p} if args.algorithm == "kR1W" else {}))
    engine = ExecutionEngine(cache=PlanCache())
    result = algo.compute(a, _params(args), engine=engine)
    expected = np.cumsum(np.cumsum(a, axis=0), axis=1)
    ok = np.allclose(result.sat, expected)
    for _ in range(max(0, args.repeat - 1)):
        warm = algo.compute(
            a, _params(args), engine=engine, fast=args.fast, fused=args.fused
        )
        ok = ok and np.array_equal(warm.sat, result.sat)
    print(result.summary())
    if args.repeat > 1:
        stats = engine.stats()
        native = stats["native"]
        backend_note = ""
        if args.fast and args.fused == "native":
            backend_note = (
                f" [native: {native['toolchain'] or 'unavailable -> numpy'}"
                f", {native['lowered_groups']} group(s) lowered]"
            )
        print(
            f"plan cache over {args.repeat} runs"
            f"{' (fast path)' if args.fast else ''}: "
            f"{stats['compiles']} compile(s), {stats['hits']} hit(s), "
            f"warm runs bit-identical: {'OK' if ok else 'MISMATCH'}"
            f"{backend_note}"
        )
    print(f"verified against numpy oracle: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_table1(args) -> int:
    """Print measured per-algorithm access counts (Table I)."""
    params = _params(args)
    rows = []
    n2 = args.n * args.n
    for name in ALGORITHM_NAMES:
        res = make_algorithm(name).compute(random_matrix(args.n, seed=0), params)
        c = res.counters
        rows.append(
            [
                name,
                f"{c.coalesced_elements / n2:.3f}",
                f"{c.stride_ops / n2:.3f}",
                c.barriers,
                f"{res.cost:.0f}",
            ]
        )
    print(
        format_table(
            ["algorithm", "coalesced/elt", "stride/elt", "barriers", "cost"],
            rows,
            title=f"Table I measured at n={args.n}, w={params.width}, l={params.latency}",
        )
    )
    return 0


def cmd_table2(args) -> int:
    """Print calibrated runtime predictions against the published Table II."""
    from .analysis.calibration import calibrate
    from .analysis.model import predict_table2_row
    from .analysis.occupancy import calibrate_occupancy
    from .analysis.published import TABLE2_GPU_ALGORITHMS, TABLE2_MS, TABLE2_SIZES_K

    if args.occupancy:
        cal = calibrate_occupancy()
        model = cal.model
        print(cal.summary())

        def row_for(n):
            out = {name: model.predict_ms(name, n) for name in TABLE2_GPU_ALGORITHMS if name != "kR1W"}
            p, ms = model.best_p(n)
            out["kR1W"], out["best_p"] = ms, p
            return out

    else:
        cal = calibrate()
        model = cal.model
        print(cal.summary())

        def row_for(n):
            return predict_table2_row(model, n)

    rows = []
    for name in TABLE2_GPU_ALGORITHMS + ["best_p"]:
        cells = [name]
        for i, k in enumerate(TABLE2_SIZES_K):
            r = row_for(1024 * k)
            pub = TABLE2_MS[name][i] if name in TABLE2_MS else None
            cells.append(
                f"{r[name]:.2f}" + (f"/{pub:.2f}" if pub is not None else "")
            )
        rows.append(cells)
    print(
        format_table(
            ["algorithm"] + [f"{k}K" for k in TABLE2_SIZES_K],
            rows,
            title="predicted ms / published ms",
        )
    )
    return 0


def cmd_tune(args) -> int:
    """Sweep the kR1W mixing parameter and report the argmin."""
    from .sat.tuning import tune_analytic, tune_measured

    params = _params(args)
    if args.measured:
        result = tune_measured(random_matrix(args.n, seed=0), params)
    else:
        result = tune_analytic(args.n, params)
    print(format_table(["p", "cost"], [[f"{p:.3f}", f"{c:.0f}"] for p, c in result.sweep]))
    print(f"best p = {result.best_p:.4f}  (k = {result.best_k:.4f}R1W), "
          f"cost = {result.best_cost:.0f}")
    return 0


def cmd_crossover(args) -> int:
    """Locate the 1R1W/2R1W crossover under both runtime models."""
    from .analysis.calibration import calibrate
    from .analysis.model import crossover_size
    from .analysis.occupancy import calibrate_occupancy

    flat = calibrate().model
    x_flat = crossover_size(flat)
    occ = calibrate_occupancy().model
    x_occ = None
    n = flat.params.width * 8
    last_2r1w_win = None
    while n <= (1 << 15):
        if occ.predict_ms("2R1W", n) <= occ.predict_ms("1R1W", n):
            last_2r1w_win = n
        n += flat.params.width * 8
    if last_2r1w_win is not None and last_2r1w_win < (1 << 15):
        x_occ = last_2r1w_win + flat.params.width * 8
    print(f"flat model:      1R1W overtakes 2R1W at n = {x_flat}")
    print(f"occupancy model: 1R1W overtakes 2R1W at n = {x_occ}")
    print("paper (GTX 780 Ti): between 6K (6144) and 7K (7168)")
    return 0


def cmd_batch(args) -> int:
    """Compute SATs for a batch of same-shape matrices across cores.

    Measures warm steady-state throughput through a
    :class:`~repro.sat.batch.BatchSession` (the pool and each worker's
    plan cache are warmed before timing) and spot-checks one result
    against the numpy oracle. Exit code 0 on a verified batch.
    """
    import time

    from .sat.batch import BatchSession
    from .sat.reference import sat_reference

    params = _params(args)
    rng = np.random.default_rng(args.seed)
    matrices = [
        rng.integers(0, 100, size=(args.n, args.n)).astype(np.float64)
        for _ in range(args.count)
    ]
    workers = args.workers
    with BatchSession(
        args.algorithm, params, workers=workers,
        **({"p": args.p} if args.algorithm == "kR1W" else {}),
    ) as session:
        session.warm((args.n, args.n))
        start = time.perf_counter()
        sats = list(session.map(matrices))
        elapsed = time.perf_counter() - start
    check = args.count // 2
    ok = np.array_equal(sats[check], sat_reference(matrices[check]))
    throughput = args.count / elapsed if elapsed > 0 else float("inf")
    print(
        f"{args.algorithm}: {args.count} matrices of {args.n}x{args.n} "
        f"in {elapsed:.3f}s ({throughput:.1f} matrices/s, "
        f"{session.workers} worker{'s' if session.workers != 1 else ''}, warm)"
    )
    print(f"spot check vs numpy oracle: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    """Run the chaos suite: all algorithms under one seeded fault plan.

    Exit code 0 means the resilience invariant held for every algorithm
    (each run ended in an oracle-correct SAT or a typed ``ReproError``);
    1 means some run produced a silently wrong answer. The whole fault
    schedule is a pure function of ``--seed``, so a failure reproduces
    exactly.
    """
    from .errors import ConfigurationError
    from .faults import SILENT_WRONG, FaultPlan, run_chaos_suite
    from .sat.registry import ALGORITHM_NAMES

    plan = FaultPlan.chaos(seed=args.seed, intensity=args.intensity)
    params = _params(args)
    algorithms = args.algorithms.split(",") if args.algorithms else None
    # A typo'd name is a configuration error, not a chaos outcome: reject
    # it up front instead of reporting "typed error, invariant HELD".
    if algorithms is not None:
        known = ALGORITHM_NAMES + ["kR1W"]
        unknown = [a for a in algorithms if a not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown algorithm(s) {unknown}; choose from {known}"
            )
    outcomes = run_chaos_suite(
        plan,
        n=args.n,
        params=params,
        algorithms=algorithms,
        max_task_retries=args.retries,
    )
    print(
        format_table(
            ["algorithm", "outcome", "error", "retries", "faults injected"],
            [o.row() for o in outcomes],
            title=(
                f"chaos sweep: seed={args.seed}, intensity={args.intensity}, "
                f"n={args.n}, w={params.width}, l={params.latency}, "
                f"task retries={args.retries}"
            ),
        )
    )
    violations = [o for o in outcomes if o.status == SILENT_WRONG]
    ok = sum(1 for o in outcomes if o.status == "ok")
    print(
        f"invariant: {'HELD' if not violations else 'VIOLATED'} "
        f"({ok}/{len(outcomes)} recovered to a correct SAT, "
        f"{len(outcomes) - ok - len(violations)} ended in a typed error, "
        f"{len(violations)} silently wrong)"
    )
    return 1 if violations else 0


def cmd_stats(args) -> int:
    """Run an instrumented workload and export the observability state.

    Exercises every instrumented layer with observability forced on for
    the run — a cold compile + counted execution, warm fused runs, one
    warm native-backend run (so compiled-kernel accounting, or the
    fallback counter on hosts without a C toolchain, appears in the
    export), a serial :class:`~repro.sat.batch.BatchSession` batch, and a
    prefetched band stream — then prints the collected metrics as JSON
    and/or Prometheus text exposition. Also runs the
    :class:`~repro.obs.CostAudit` sweep (predicted ``C/w + S + (B+1)l``
    vs counted accesses) across all six algorithms; any divergence sets
    exit code 1. The human-readable audit summary goes to stderr so
    stdout stays machine-parseable.
    """
    from .machine.engine import ExecutionEngine, PlanCache
    from .obs import CostAudit
    from .obs import runtime as obs_runtime
    from .obs.export import to_json, to_prometheus
    from .sat.batch import BatchSession
    from .sat.out_of_core import sat_streamed

    params = _params(args)
    obs_runtime.reset()
    with obs_runtime.enabled_scope(True):
        a = random_matrix(args.n, seed=args.seed)
        algo = make_algorithm(
            args.algorithm, **({"p": args.p} if args.algorithm == "kR1W" else {})
        )
        engine = ExecutionEngine(cache=PlanCache())
        algo.compute(a, params, engine=engine)
        for _ in range(max(0, args.repeat - 1)):
            algo.compute(a, params, engine=engine, fast=True)
        algo.compute(a, params, engine=engine, fast=True, fused="native")
        with BatchSession(
            args.algorithm, params, workers=1,
            **({"p": args.p} if args.algorithm == "kR1W" else {}),
        ) as session:
            for _ in session.map([a] * 4):
                pass
        streamed = random_matrix(args.n, seed=args.seed + 1)
        band_rows = max(1, args.n // 4)
        for _ in sat_streamed(
            lambda r0, r1: streamed[r0:r1], streamed.shape, band_rows,
            prefetch_depth=1,
        ):
            pass
        # Autotune: a few algorithm="auto" computes so the planner's
        # decision counters, modes, and per-shape winners appear in the
        # export (via engine.stats()["autotune"]).
        auto = make_algorithm("auto")
        for _ in range(2):
            auto.compute(a, params, engine=engine)
        if args.serving:
            # Serving layer: a miniature oracle-verified loadgen run so the
            # queue-depth gauge, shed counters, and per-kind latency
            # histograms appear in the export. The process-wide flag is
            # raised for this section because ingest folding runs in a
            # worker thread, outside the scope's thread-local override.
            from .service import run_loadgen

            obs_runtime.enable()
            try:
                run_loadgen(
                    n=64, tile=16, rounds=2, burst=16, max_queue=24,
                    max_batch=8, seed=args.seed,
                )
            finally:
                obs_runtime.refresh_from_env()
        audit = CostAudit()
        audit.sweep(args.n, params, p=args.p, seed=args.seed)
    if args.format in ("json", "both"):
        engine_stats = engine.stats()
        print(
            to_json(
                extra={
                    "cost_audit": audit.as_dict(),
                    "native_backend": engine_stats["native"],
                    "autotune": engine_stats["autotune"],
                }
            )
        )
    if args.format in ("prom", "both"):
        print(to_prometheus(), end="")
    print(audit.summary(), file=sys.stderr)
    return 1 if audit.divergences else 0


def cmd_autotune(args) -> int:
    """Live decision table from the autotune planner (Table II, online).

    ``--sweep`` (the default) asks the planner for its zero-measurement
    decision at each Table II size — pure cost-model prior — and prints
    the chosen configuration next to the algorithm the published table
    bolds. The selections must change with ``n`` and match the published
    winner at every size (``1.25R1W`` and ``kR1W`` count as one family:
    1.25R1W *is* kR1W at ``p = 0.5``); any miss, or a selection that
    never changes, sets exit code 1 — this is the CI smoke gate for the
    crossover reproduction.

    ``--measure N`` additionally runs a short live-refinement session at
    size ``N``: ``algorithm="auto"`` computes on real inputs, wall-clock
    fed back into the planner, then the per-mode decision counts and the
    measured winner are printed. With persistence enabled (the default)
    the learned statistics are saved to the sidecar, so a later process
    starts from them.
    """
    from .analysis.published import TABLE2_SIZES_K, fastest_gpu_algorithm
    from .autotune import AutoSAT, AutotunePlanner

    if args.no_state:
        planner = AutotunePlanner(path=None)
    elif args.state:
        planner = AutotunePlanner(path=args.state)
    else:
        planner = AutotunePlanner()
    params = _params(args)
    sizes_k = (
        [int(v) for v in args.sizes_k.split(",") if v]
        if args.sizes_k
        else list(TABLE2_SIZES_K)
    )

    def family(name: str) -> str:
        return "kR1W" if name in ("kR1W", "1.25R1W") else name

    rows = []
    selections = []
    matched = True
    for k in sizes_k:
        n = 1024 * k
        decision = planner.decide_compute(
            n, n, np.float64, params, max_p_candidates=args.p_candidates,
            explore=False,
        )
        published = (
            fastest_gpu_algorithm(k) if k in TABLE2_SIZES_K else "-"
        )
        match = (
            family(decision.algorithm) == family(published)
            if published != "-"
            else None
        )
        if match is False:
            matched = False
        selections.append(decision.algorithm)
        rows.append([
            n, decision.arm_id, decision.predicted, decision.mode,
            published, {True: "yes", False: "NO", None: "-"}[match],
        ])
    crossed = len({family(s) for s in selections}) > 1
    print(format_table(
        ["n", "selected", "pred ms", "mode", "published", "match"],
        rows,
        title=f"autotune decisions (w={params.width}, l={params.latency})",
        float_fmt="{:.2f}",
    ))
    print(
        f"selection changes with n: {'yes' if crossed else 'NO'}; "
        f"published-winner match: {'yes' if matched else 'NO'}"
    )

    if args.measure:
        n = args.measure
        a = random_matrix(n, seed=args.seed)
        auto = AutoSAT(planner=planner)
        for _ in range(args.rounds):
            auto.compute(a, params)
        stats = planner.stats()
        print(
            f"measured {args.rounds} round(s) at n={n}: "
            f"modes={stats['modes']}"
        )
        key = planner.key_for(n, n, np.float64, params)
        winner = planner.winners().get(key)
        if winner is not None:
            mean = winner["mean_seconds"]
            mean_txt = f"{mean * 1e3:.2f} ms" if mean is not None else "model prior"
            print(
                f"winner at {key}: {winner['arm']} "
                f"({winner['measurements']} measurement(s), {mean_txt})"
            )
    if planner.path is not None:
        saved = planner.save()
        print(f"learned state saved to {saved}", file=sys.stderr)
    return 0 if (crossed and matched) else 1


def _cmd_serve_cluster(args) -> int:
    """Serve through the sharded worker cluster instead of one process.

    Ingests ``--datasets`` matrices into a
    :class:`~repro.service.ShardRouter` over ``--cluster-workers``
    supervised worker processes (``--replicas`` owners per tile range),
    pushes ``--updates`` incremental deltas, answers ``--queries``
    region sums through the shard fan-out, and prints the router and
    supervisor statistics. Exit code 0 iff every answer matches the
    numpy shadow oracle bit-exactly.
    """
    from .service import ShardRouter, WorkerSupervisor

    rng = np.random.default_rng(args.seed)
    matrices = {
        f"dataset-{i}": rng.integers(0, 100, size=(args.n, args.n)).astype(np.float64)
        for i in range(args.datasets)
    }
    ok = True
    supervisor = WorkerSupervisor(args.cluster_workers)
    router = ShardRouter(supervisor, replicas=args.replicas)
    try:
        for name, m in matrices.items():
            router.ingest(name, m, tile=args.tile)
        supervisor.start_monitor()
        name = list(matrices)[-1]
        shadow = matrices[name].copy()
        for _ in range(args.updates):
            r, c = (int(v) for v in rng.integers(0, args.n, size=2))
            delta = float(rng.integers(1, 10))
            router.update_point(name, r, c, delta=delta)
            shadow[r, c] += delta
        for _ in range(args.queries):
            r0, r1 = np.sort(rng.integers(0, args.n, size=2))
            c0, c1 = np.sort(rng.integers(0, args.n, size=2))
            value = router.region_sum(name, int(r0), int(c0), int(r1), int(c1))
            ok &= value == shadow[r0:r1 + 1, c0:c1 + 1].sum()
        stats = router.stats()
    finally:
        router.close()
    sup = stats["supervisor"]
    print(
        f"cluster served {args.datasets} dataset(s) of {args.n}x{args.n} "
        f"(tile={args.tile}) across {sup['workers']} worker(s), "
        f"{args.replicas} replica(s) per range"
    )
    print(
        f"requests: {stats['requests']} lookups fanned out, "
        f"{stats['failovers']} failovers, {stats['retries']} retries, "
        f"{stats['degraded']} degraded, {stats['shed']} shed; "
        f"workers alive {sup['alive']}/{sup['workers']}, "
        f"restarts {sup['restarts']}"
    )
    print(f"all query responses vs numpy oracle: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_serve(args) -> int:
    """Demonstrate the serving layer end to end, in process.

    Ingests ``--datasets`` matrices into a byte-bounded
    :class:`~repro.service.TiledSATStore` through a running
    :class:`~repro.service.SATServer`, applies ``--updates`` incremental
    point updates (timing them against ``sat_reference`` full
    recomputes), answers region/local-stats queries, and prints the
    store/server statistics. Exit code 0 iff every answer matches the
    numpy oracle. With ``--cluster-workers N`` the datasets are instead
    sharded across N supervised worker processes (see
    :func:`_cmd_serve_cluster`).
    """
    import asyncio
    import time

    from .sat.reference import sat_reference
    from .service import SATServer, TiledSATStore

    if args.cluster_workers > 0:
        return _cmd_serve_cluster(args)
    rng = np.random.default_rng(args.seed)
    store = TiledSATStore(
        capacity_bytes=args.capacity_mb * 1024 * 1024, default_tile=args.tile
    )
    matrices = {
        f"dataset-{i}": rng.integers(0, 100, size=(args.n, args.n)).astype(np.float64)
        for i in range(args.datasets)
    }

    async def drive():
        ok = True
        async with SATServer(
            store, max_queue=args.queue, max_batch=args.max_batch,
            adaptive=args.adaptive,
        ) as server:
            for name, m in matrices.items():
                await server.ingest(name, m, tile=args.tile, track_squares=True)
            # Update/query the last-ingested dataset: under a tight
            # --capacity-mb the earlier ones are the LRU eviction victims.
            name = list(matrices)[-1]
            shadow = matrices[name]
            t0 = time.perf_counter()
            for _ in range(args.updates):
                r, c = (int(v) for v in rng.integers(0, args.n, size=2))
                delta = float(rng.integers(1, 10))
                await server.update_point(name, r, c, delta=delta)
                shadow[r, c] += delta
            incremental = (time.perf_counter() - t0) / max(1, args.updates)
            t0 = time.perf_counter()
            sat_reference(shadow)
            recompute = time.perf_counter() - t0
            for _ in range(args.queries):
                r0, r1 = np.sort(rng.integers(0, args.n, size=2))
                c0, c1 = np.sort(rng.integers(0, args.n, size=2))
                resp = await server.region_sum(
                    name, int(r0), int(c0), int(r1), int(c1)
                )
                ok &= resp.value == shadow[r0 : r1 + 1, c0 : c1 + 1].sum()
            mean, var = (
                await server.local_stats(name, args.n // 2, args.n // 2, 4)
            ).value
            win = shadow[
                args.n // 2 - 4 : args.n // 2 + 5, args.n // 2 - 4 : args.n // 2 + 5
            ]
            ok &= bool(np.isclose(mean, win.mean()) and np.isclose(var, win.var()))
            stats = server.stats.as_dict()
            knobs = (
                server.controller.describe() if server.controller else None
            )
        return ok, incremental, recompute, stats, knobs

    ok, incremental, recompute, server_stats, knobs = asyncio.run(drive())
    s = store.stats()
    print(
        f"served {args.datasets} dataset(s) of {args.n}x{args.n} "
        f"(tile={args.tile}): {int(s['datasets'])} resident, "
        f"{s['bytes'] / 1e6:.1f}/{s['capacity_bytes'] / 1e6:.1f} MB, "
        f"{int(s['evictions'])} eviction(s)"
    )
    print(
        f"incremental point update: {incremental * 1e6:.0f} us vs full "
        f"recompute {recompute * 1e6:.0f} us "
        f"({recompute / incremental:.1f}x)" if incremental > 0 else ""
    )
    print(
        f"requests: {server_stats['admitted']} admitted, "
        f"{server_stats['completed']} completed, {server_stats['shed']} shed, "
        f"{server_stats['batches']} executor batches "
        f"(max queue depth {server_stats['max_queue_depth']})"
    )
    if knobs is not None:
        print(
            f"adaptive controller: batch ceiling {knobs['batch_size']}, "
            f"window {knobs['coalesce_window'] * 1e3:.2f}ms, "
            f"{knobs['ticks']} ticks, adjustments {knobs['adjustments'] or '{}'}"
        )
    print(f"all query responses vs numpy oracle: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_loadgen_cluster(args) -> int:
    """Oracle-verified volley against the sharded worker cluster.

    Spins up ``--cluster-workers`` shard worker processes behind a
    :class:`~repro.service.ShardRouter`. With ``--chaos`` it SIGKILLs one
    mid-run while the health monitor is live and gates on the full
    robustness contract: zero lost responses, every answer bit-exact
    against the shadow oracle, and the killed worker restarted,
    re-hydrated from checksummed checkpoints, and serving again. With
    plain ``--cluster`` the workers stay up and the volley measures the
    query path itself; ``--concurrency N`` keeps N queries in flight so
    the router's coalescer and pipelined fan-out carry real load.
    """
    from .service import run_cluster_loadgen

    chaos = bool(args.chaos)
    if args.quick:
        report = run_cluster_loadgen(
            n=96, tile=16, workers=args.cluster_workers,
            replicas=args.replicas, rounds=4, burst=16, seed=args.seed,
            chaos=chaos, concurrency=args.concurrency,
        )
    else:
        report = run_cluster_loadgen(
            n=args.n, tile=args.tile, workers=args.cluster_workers,
            replicas=args.replicas, rounds=args.rounds, burst=args.burst,
            update_frac=args.update_frac, seed=args.seed,
            chaos=chaos, concurrency=args.concurrency,
        )
    print(report.summary())
    if not report.ok:
        if report.lost:
            print(f"FAIL: {report.lost} response(s) lost", file=sys.stderr)
        if report.mismatches:
            print(f"FAIL: {report.mismatches} mismatch(es) vs shadow oracle",
                  file=sys.stderr)
        if report.chaos and report.restarts < 1:
            print("FAIL: killed worker was never restarted", file=sys.stderr)
        if report.chaos and not report.rejoined:
            print("FAIL: killed worker did not rejoin and serve",
                  file=sys.stderr)
    return 0 if report.ok else 1


def cmd_loadgen(args) -> int:
    """Run the oracle-verified load generator against an in-process server.

    Exit code 0 iff zero responses were lost, misordered, or wrong, the
    overload volley shed (rather than deadlocked), and the expired-
    deadline volley resolved as typed errors. With ``--cluster`` or
    ``--chaos`` the volley instead targets the sharded worker cluster,
    the latter also killing a worker mid-run (see
    :func:`_cmd_loadgen_cluster`).
    """
    from .service import run_loadgen

    if args.chaos or args.cluster:
        return _cmd_loadgen_cluster(args)
    if args.quick:
        report = run_loadgen(
            n=128, tile=32, rounds=4, burst=24, max_queue=32,
            max_batch=16, seed=args.seed, adaptive=args.adaptive,
        )
    else:
        report = run_loadgen(
            n=args.n, tile=args.tile, rounds=args.rounds, burst=args.burst,
            max_queue=args.queue, max_batch=args.max_batch,
            update_frac=args.update_frac, seed=args.seed,
            adaptive=args.adaptive,
        )
    print(report.summary())
    if args.adaptive and report.adaptive_stats:
        knobs = report.adaptive_stats
        print(
            f"adaptive controller: batch ceiling {knobs['batch_size']}, "
            f"window {knobs['coalesce_window'] * 1e3:.2f}ms, "
            f"{knobs['ticks']} ticks, adjustments {knobs['adjustments'] or '{}'}"
        )
    shed_ok = report.shed > 0  # the overload volley must actually shed
    deadline_ok = report.deadline_missed > 0
    if not shed_ok:
        print("FAIL: overload volley did not shed", file=sys.stderr)
    if not deadline_ok:
        print("FAIL: expired deadlines were not reported", file=sys.stderr)
    return 0 if (report.ok and shed_ok and deadline_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAT algorithms on the asynchronous Hierarchical Memory Machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="compute one SAT and verify it")
    p.add_argument("-n", type=int, default=256)
    p.add_argument("--algorithm", default="1R1W", help="Table II name or kR1W")
    p.add_argument("--p", type=float, default=0.5, help="kR1W mixing parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--repeat", type=int, default=1,
        help="run the same shape this many times through the plan cache",
    )
    p.add_argument(
        "--fast", action="store_true",
        help="run warm repeats on the fast path (memoized traffic tallies)",
    )
    p.add_argument(
        "--fused", choices=["numpy", "native"], default="numpy",
        help="fused backend for --fast warm repeats: batched numpy "
        "(default) or compiled native megakernels (native degrades to "
        "numpy without a C toolchain)",
    )
    _add_machine_args(p)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("table1", help="measured access counts per algorithm")
    p.add_argument("-n", type=int, default=256)
    _add_machine_args(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", help="calibrated runtime predictions vs paper")
    p.add_argument("--occupancy", action="store_true", help="use the occupancy model")
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("tune", help="sweep the kR1W mixing parameter")
    p.add_argument("-n", type=int, default=2048)
    p.add_argument("--measured", action="store_true", help="run the executor per p")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("crossover", help="locate the 1R1W/2R1W crossover")
    p.set_defaults(fn=cmd_crossover)

    p = sub.add_parser("batch", help="multi-core batch SAT throughput")
    p.add_argument("-n", type=int, default=256, help="matrix side length")
    p.add_argument("-k", "--count", type=int, default=32, help="batch size")
    p.add_argument("--algorithm", default="1R1W", help="Table II name or kR1W")
    p.add_argument("--p", type=float, default=0.5, help="kR1W mixing parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all cores; 1 = serial in-process)",
    )
    _add_machine_args(p)
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("chaos", help="fault-inject every algorithm; check the invariant")
    p.add_argument("-n", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument("--intensity", type=float, default=1.0, help="fault-rate scale")
    p.add_argument("--retries", type=int, default=2, help="executor task retries")
    p.add_argument(
        "--algorithms", default="", help="comma-separated subset (default: all)"
    )
    _add_machine_args(p)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "stats", help="instrumented workload; export metrics + cost audit"
    )
    p.add_argument("-n", type=int, default=64, help="matrix side length")
    p.add_argument("--algorithm", default="1R1W", help="Table II name or kR1W")
    p.add_argument(
        "--p", type=float, default=0.5,
        help="kR1W mixing parameter (also used for the audit's kR1W run)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--repeat", type=int, default=3,
        help="same-shape runs (first cold/counted, the rest warm fused)",
    )
    p.add_argument(
        "--format", choices=["json", "prom", "both"], default="both",
        help="export format(s) printed to stdout",
    )
    p.add_argument(
        "--no-serving", dest="serving", action="store_false",
        help="skip the serving-layer workload section",
    )
    p.add_argument(
        "--width", type=int, default=8,
        help="machine width w (default 8 keeps the workload quick)",
    )
    p.add_argument("--latency", type=int, default=32, help="latency l in units")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "autotune", help="live cost-model decision table (Table II crossover)"
    )
    p.add_argument(
        "--sweep", action="store_true",
        help="print the decision table (default behavior; flag kept for "
        "explicit invocation in scripts/CI)",
    )
    p.add_argument(
        "--sizes-k", default="",
        help="comma-separated sizes in 1024-units (default: Table II's)",
    )
    p.add_argument(
        "--p-candidates", type=int, default=9,
        help="kR1W mixing-parameter grid density per decision",
    )
    p.add_argument(
        "--measure", type=int, default=0, metavar="N",
        help="also run a live refinement session at size N",
    )
    p.add_argument(
        "--rounds", type=int, default=6,
        help="algorithm='auto' computes for --measure",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--state", default="",
        help="sidecar path for learned choices (default: "
        "$REPRO_AUTOTUNE_PATH or ~/.cache/repro/autotune.json)",
    )
    p.add_argument(
        "--no-state", action="store_true",
        help="do not load or save learned choices",
    )
    _add_machine_args(p)
    p.set_defaults(fn=cmd_autotune)

    def _add_serving_args(p, *, queue_default):
        p.add_argument("--tile", type=int, default=64, help="tile side t")
        p.add_argument(
            "--queue", type=int, default=queue_default,
            help="ingest queue bound (admission control)",
        )
        p.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch size cap")
        p.add_argument(
            "--adaptive", action="store_true",
            help="close the loop on the serving knobs: an "
                 "AdaptiveController retunes the micro-batch ceiling, "
                 "coalesce window, and deadline shedding each tick from "
                 "live queue depth / p99 signals (--max-batch becomes the "
                 "ceiling's upper bound)",
        )
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("serve", help="in-process tiled SAT serving demo")
    p.add_argument("-n", type=int, default=512, help="dataset side length")
    p.add_argument("--datasets", type=int, default=2)
    p.add_argument("--updates", type=int, default=64,
                   help="incremental point updates to apply (and time)")
    p.add_argument("--queries", type=int, default=256)
    p.add_argument("--capacity-mb", type=int, default=256,
                   help="store LRU capacity in MiB")
    p.add_argument(
        "--cluster-workers", type=int, default=0,
        help="serve through this many supervised shard worker processes "
             "instead of the in-process server (0 = off)",
    )
    p.add_argument(
        "--replicas", type=int, default=2,
        help="shard replicas per tile range for --cluster-workers",
    )
    _add_serving_args(p, queue_default=256)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("loadgen", help="oracle-verified serving load generator")
    p.add_argument("-n", type=int, default=256, help="dataset side length")
    p.add_argument("--rounds", type=int, default=8,
                   help="steady-phase submission rounds")
    p.add_argument("--burst", type=int, default=48,
                   help="requests per steady round (kept under --queue)")
    p.add_argument("--update-frac", type=float, default=0.25,
                   help="fraction of requests that are point updates")
    p.add_argument(
        "--quick", action="store_true",
        help="small fixed workload for the CI smoke step",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="drive the sharded worker cluster and SIGKILL one worker "
             "mid-run; gate on zero lost responses and checkpoint rejoin",
    )
    p.add_argument(
        "--cluster", action="store_true",
        help="drive the sharded worker cluster (no chaos): the "
             "oracle-verified volley exercises the coalesced/pipelined "
             "query path instead of the in-process server",
    )
    p.add_argument(
        "--concurrency", type=int, default=1,
        help="cluster mode: queries kept in flight per round (>1 "
             "exercises the router's request coalescer)",
    )
    p.add_argument(
        "--cluster-workers", type=int, default=4,
        help="shard worker processes for --chaos/--cluster (default 4)",
    )
    p.add_argument(
        "--replicas", type=int, default=2,
        help="shard replicas per tile range for --chaos/--cluster (default 2)",
    )
    _add_serving_args(p, queue_default=64)
    p.set_defaults(fn=cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
