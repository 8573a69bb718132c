"""Which entry points the traced run wraps, and how its spans become
per-layer metrics.

Each ``trace_*`` function installs wrappers around public entry points
of the program's layers (plus ``SATServer._dispatch``, the one boundary
between the server and the store or router that has no public name);
each ``*_layer_metrics`` function turns the recorded spans into the
metrics named in BENCHMARK.json. Spans are grouped by the phase the
workload was in when they started, so set-up and warm-up work never
mixes into a measured phase.
"""

from __future__ import annotations

from common import RunContext, mean, median, percentile

ALGORITHMS = ("2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "1.25R1W")


def _compute_mode(self, *args, fast=False, fused=True, **kwargs):
    if not fast:
        return {"algorithm": self.name, "mode": "counted"}
    return {"algorithm": self.name, "mode": "native" if fused == "native" else "fused"}


def trace_compute_layers(tracer) -> None:
    from repro.autotune import AutotunePlanner, AutoSAT
    from repro.machine import ExecutionEngine, HMMExecutor
    from repro.machine.engine import native
    from repro.sat import SATAlgorithm

    tracer.wrap(native, "ensure_backend", "native.ensure_backend")
    tracer.wrap(
        ExecutionEngine, "plan_for", "engine.plan_for",
        tag=lambda self, *a, **k: {"before": self.compiles, "engine": id(self)},
        after=lambda tags, result, self, *a, **k: tags.update(
            miss=self.compiles > tags["before"]),
    )
    tracer.wrap(SATAlgorithm, "compute", "sat.compute",
                tag=lambda self, *a, **k: _compute_mode(self, **k))
    tracer.wrap(AutoSAT, "compute", "autotune.auto")
    tracer.wrap(AutotunePlanner, "decide_compute", "autotune.decide")
    tracer.wrap(HMMExecutor, "run_kernel", "kernel",
                tag=lambda *a, **k: {"mode": "counted"})
    tracer.wrap(HMMExecutor, "run_kernel_fused", "kernel",
                tag=lambda *a, mode="fused", **k: {"mode": mode})


def compute_layer_metrics(ctx: RunContext, *, n, results, pool_times,
                          serial_times, stream_stats, explore_counts) -> None:
    from repro.machine import default_engine

    tracer = ctx.tracer
    # The first call builds, loads and self-checks the module; the calls
    # nested in its self-check return at once.
    builds = tracer.select("native.ensure_backend", phase="setup")
    ctx.layer("engine.native_build_s", max(s.seconds for s in builds), "s")
    compiles = tracer.select("engine.plan_for", phase="setup", miss=True,
                             engine=id(default_engine()))
    ctx.layer("engine.plan_compile_ms", sum(s.seconds for s in compiles) * 1e3, "ms")

    prefix = {"counted": "macro", "fused": "fused", "native": "native"}
    for mode in ("counted", "fused", "native"):
        overheads = []
        for name in ALGORITHMS:
            spans = tracer.select("sat.compute", phase=mode, algorithm=name)
            kernels = []
            for span in spans:
                inside = [c for c in tracer.children(span)
                          if c.name in ("kernel", "engine.plan_for")]
                kernel = sum(c.seconds for c in inside if c.name == "kernel")
                kernels.append(kernel)
                overheads.append(span.seconds - sum(c.seconds for c in inside))
            ctx.layer(f"{prefix[mode]}.kernel_ms.{name}", mean(kernels) * 1e3, "ms")
        ctx.layer(f"sat.overhead_ms.{mode}", mean(overheads) * 1e3, "ms")

    for name in ALGORITHMS:
        result = results[name]
        c = result.counters
        ctx.layer(f"hmm.kernels.{name}", c.kernels_launched, "count")
        ctx.layer(f"hmm.traffic_mib.{name}",
                  (c.coalesced_elements + c.stride_ops) * 8 / 2**20, "MiB")
        ctx.layer(f"hmm.cost.{name}", result.cost, "model-units")

    ctx.layer("batch.map_ms", median(pool_times) * 1e3, "ms")
    ctx.layer("batch.serial_map_ms", median(serial_times) * 1e3, "ms")

    bands = tracer.select("stream.band", phase="stream")
    band_s = sum(s.seconds for s in bands)
    ctx.layer("stream.band_ms", band_s / len(bands) * 1e3, "ms")
    ctx.layer("stream.overhead_ms",
              (stream_stats["generator_s"] - band_s) / stream_stats["bands"] * 1e3,
              "ms")

    decides = tracer.select("autotune.decide", phase="auto")
    ctx.layer("autotune.decide_us", mean(s.seconds for s in decides) * 1e6, "us")
    ctx.layer("autotune.explore_decisions", mean(explore_counts), "count")
    delegated = [c.seconds for s in tracer.select("autotune.auto", phase="auto")
                 for c in tracer.children(s) if c.name == "sat.compute"]
    ctx.layer("autotune.delegate_ms", mean(delegated) * 1e3, "ms")


def trace_serving_layers(tracer) -> None:
    from repro.service import (
        SATServer, ShardRouter, TiledSATStore, WorkerSupervisor, queries, router,
        update,
    )

    tracer.wrap(SATServer, "submit", "server.submit")
    tracer.wrap(SATServer, "_dispatch", "server.dispatch",
                tag=lambda self, live: {"seqs": [r.seq for r in live]})
    traced_update = tracer.traced(update.point_update, "update.point_update")
    update.point_update = traced_update
    router.point_update = traced_update  # the router's authoritative copy
    tracer.wrap(queries, "region_sums", "queries.region_sums")
    tracer.wrap(TiledSATStore, "put", "store.put")
    tracer.wrap(ShardRouter, "region_sums", "router.region_sums")
    tracer.wrap(ShardRouter, "update_point", "router.update_point")
    tracer.wrap(ShardRouter, "ingest", "router.ingest")
    tracer.wrap(WorkerSupervisor, "rpc", "cluster.rpc",
                tag=lambda self, worker_id, msg, *a, **k: {"kind": msg[0]})
    tracer.wrap(WorkerSupervisor, "load_shard", "cluster.load")


def _span_mean(spans, scale=1e3) -> float:
    """Mean span duration times ``scale`` (1e3: ms, 1e6: us)."""
    return mean(s.seconds for s in spans) * scale


def serving_layer_metrics(ctx: RunContext, *, fixed, best, router) -> None:
    tracer = ctx.tracer
    late = [(o.sent - o.due) * 1e3 for o in fixed.outcomes]
    ctx.layer("loadgen.late_p50_ms", percentile(late, 50), "ms")
    ctx.layer("loadgen.late_p99_ms", percentile(late, 99), "ms")
    ctx.layer("server.submit_us",
              _span_mean(tracer.select("server.submit", phase="fixed"), 1e6), "us")
    executed = {}
    for span in tracer.select("server.dispatch", phase="fixed"):
        for seq in span.tags["seqs"]:
            executed[seq] = span.seconds
    done = [o for o in fixed.outcomes if o.done and o.seq in executed]
    ctx.layer("server.wait_ms",
              mean(o.server_latency - executed[o.seq] for o in done) * 1e3, "ms")
    ctx.layer("server.batch_size", mean(o.batch_size for o in done), "count")
    if best is not None:
        ctx.layer("server.batch_size.max_rps",
                  mean(o.batch_size for o in best.outcomes if o.done), "count")
    ctx.layer("update.point_update_us",
              _span_mean(tracer.select("update.point_update", phase="fixed"), 1e6), "us")
    if router is None:
        ctx.layer("queries.region_sums_us",
                  _span_mean(tracer.select("queries.region_sums", phase="fixed"), 1e6),
                  "us")
        ctx.layer("store.put_ms", _span_mean(tracer.select("store.put", phase="ingest")),
                  "ms")
        return

    ctx.layer("router.region_sums_us",
              _span_mean(tracer.select("router.region_sums", phase="fixed"), 1e6), "us")
    for kind in ("lookup", "delta"):
        ctx.layer(f"cluster.rpc_us.{kind}",
                  _span_mean(tracer.select("cluster.rpc", phase="fixed", kind=kind), 1e6),
                  "us")
    ctx.layer("cluster.rpc_us.load",
              _span_mean(tracer.select("cluster.load", phase="ingest"), 1e6), "us")
    answered = sum(1 for op, o in zip(fixed.ops, fixed.outcomes)
                   if op.kind == "region_sum" and o.done)
    lookups = len(tracer.select("cluster.rpc", phase="fixed", kind="lookup"))
    ctx.layer("cluster.lookup_rpcs_per_query", lookups / answered, "count")
    stats = router.stats()
    supervisor = stats["supervisor"]
    ctx.layer("cluster.ring_lookups", sum(supervisor["ring_lookups"].values()), "count")
    ctx.layer("cluster.pipe_lookups", sum(supervisor["pipe_lookups"].values()), "count")
    ctx.layer("router.coalesced_batches", stats["coalesced_batches"], "count")
    ctx.layer("router.fast_path", stats["fast_path"], "count")
    pushes = [s.seconds - tracer.child_seconds(s, "update.point_update")
              for s in tracer.select("router.update_point", phase="fixed")]
    ctx.layer("router.update_push_us", mean(pushes) * 1e6, "us")
    ctx.layer("router.ingest_ms", _span_mean(tracer.select("router.ingest", phase="ingest")),
              "ms")
