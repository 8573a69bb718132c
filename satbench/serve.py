"""The ``serve-local`` and ``serve-cluster`` workloads.

An in-process ``SATServer`` holds several integer-valued datasets,
over a ``TiledSATStore`` (``serve-local``) or over
``ShardRouter(WorkerSupervisor(nproc), replicas=2)`` with the health
monitor running (``serve-cluster``). A single-threaded open-loop
generator sends about 90% ``region_sum`` and 10% ``update_point`` at one
fixed rate, then probes higher rates to find ``max_rps``; an ingest
phase re-ingests two datasets under fixed names.

Every answer is checked after its phase against a shadow the benchmark
keeps itself: each ``region_sum`` must equal the exact sum of the shadow
matrix at the request's submission point, completions must come back in
submission order per dataset, and the final totals must match.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from common import RunContext, median, nproc, peak_rss_mib, percentile

FULL = {"n": 1024, "datasets": 4, "ingest_names": 2,
        "fixed_rps": {"serve-local": 1000.0, "serve-cluster": 300.0}}
SMOKE = {"n": 128, "datasets": 2, "ingest_names": 2,
         "fixed_rps": {"serve-local": 200.0, "serve-cluster": 200.0}}

#: The ``max_rps`` latency limit: query p90, timed from each request's
#: due time, over the whole probe and over its second half.
QUERY_P90_LIMIT_MS = 50.0

UPDATE_SHARE = 0.1

LOADGEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "loadgen.py")

#: Share of ``--seconds`` for each phase. Ingest gives the bounded rate
#: (``sat_melem_per_s``) and gets the largest share; the request phases
#: give reference figures and the traced run's per-layer metrics.
SHARES = {"fixed": 0.3, "search": 0.2, "ingest": 0.5}

#: Windows the fixed-rate phase is split into for its latency medians.
WINDOWS = 8


@dataclass
class Op:
    kind: str  # "region_sum" or "update_point"
    dataset: int
    args: tuple  # (top, left, bottom, right) or (r, c, delta)


@dataclass
class Outcome:
    """What happened to one generated request."""

    due: float
    sent: float = 0.0
    seq: int = 0
    shed: bool = False
    error: Optional[BaseException] = None
    done: float = 0.0
    value: object = None
    completed_index: int = 0
    batch_size: int = 0
    server_latency: float = 0.0

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class PhaseResult:
    ops: List[Op]
    outcomes: List[Outcome]
    accepted: List[int] = field(default_factory=list)  # op indices, submission order

    def latencies_ms(self, kind: str, window=(0, 1)) -> List[float]:
        """Latencies of ``kind`` requests in window ``k`` of ``count``
        equal slices of the phase (default: the whole phase)."""
        k, count = window
        lo, hi = len(self.ops) * k // count, len(self.ops) * (k + 1) // count
        return [self.outcomes[i].latency * 1e3 for i in range(lo, hi)
                if self.ops[i].kind == kind and self.outcomes[i].done]

    @property
    def shed(self) -> int:
        return sum(o.shed for o in self.outcomes)

    def completion_rate(self) -> float:
        done = [o.done for o in self.outcomes if o.done]
        return len(done) / (max(done) - self.outcomes[0].due)


class OpenLoop:
    """Sends ``ops`` at ``rate`` per second, open loop.

    The request clock runs in its own single-threaded process
    (``loadgen.py``); each byte it writes hands the next request to the
    server's event loop. Nothing waits for a reply, so a slow server
    builds a queue instead of slowing the clock. Latency is taken from
    each request's due time, and lateness from due time to submission.
    """

    def __init__(self, loop, server, names: List[str], ops: List[Op], rate: float):
        self.loop, self.server, self.names = loop, server, names
        self.ops, self.rate = ops, rate
        self.result = PhaseResult(ops, [])
        self.pending = 0
        self.finished = asyncio.Event()
        self._next = 0
        self._fd = -1

    def _on_clock(self) -> None:
        try:
            ticks = len(os.read(self._fd, 65536))
        except BlockingIOError:
            return
        if ticks == 0:  # the clock process is done
            self.loop.remove_reader(self._fd)
            self._next = len(self.ops)
            if self.pending == 0:
                self.finished.set()
            return
        stop = min(len(self.ops), self._next + ticks)
        indices, self._next = range(self._next, stop), stop
        self._submit(indices)

    def _submit(self, indices) -> None:
        from repro.errors import Overloaded

        for i in indices:
            op, outcome = self.ops[i], self.result.outcomes[i]
            outcome.sent = time.monotonic()
            name = self.names[op.dataset]
            if op.kind == "region_sum":
                payload = op.args
            else:
                r, c, delta = op.args
                payload = {"r": r, "c": c, "delta": delta, "value": None}
            try:
                future = self.server.submit(op.kind, name, payload)
            except Overloaded:
                outcome.shed = True
                continue
            self.result.accepted.append(i)
            self.pending += 1
            future.add_done_callback(lambda f, i=i: self._done(i, f))

    def _done(self, i: int, future) -> None:
        outcome = self.result.outcomes[i]
        outcome.done = time.monotonic()
        if future.exception() is not None:
            outcome.error = future.exception()
        else:
            response = future.result()
            outcome.seq = response.seq
            outcome.value = response.value
            outcome.completed_index = response.completed_index
            outcome.batch_size = response.batch_size
            outcome.server_latency = response.latency
        self.pending -= 1
        if self._next == len(self.ops) and self.pending == 0:
            self.finished.set()

    async def run(self, timeout: float) -> PhaseResult:
        # Leave the clock process time to start before request 0 is due.
        start = time.monotonic() + 0.2
        interval = 1.0 / self.rate
        self.result.outcomes = [Outcome(due=start + i * interval)
                                for i in range(len(self.ops))]
        clock = subprocess.Popen(
            [sys.executable, LOADGEN, "--start", repr(start),
             "--rate", repr(self.rate), "--count", str(len(self.ops))],
            stdout=subprocess.PIPE,
        )
        self._fd = clock.stdout.fileno()
        os.set_blocking(self._fd, False)
        self.loop.add_reader(self._fd, self._on_clock)
        try:
            await asyncio.wait_for(self.finished.wait(), timeout)
        finally:
            self.loop.remove_reader(self._fd)
            if clock.poll() is None:
                clock.kill()
            clock.wait()
            clock.stdout.close()
        return self.result


class Shadow:
    """The benchmark's own copy of each served dataset, as an exact
    integer SAT, updated in submission order."""

    def __init__(self, matrices):
        import numpy as np

        self.sats = [np.cumsum(np.cumsum(m.astype(np.int64), 0), 1) for m in matrices]

    def region_sum(self, d: int, top: int, left: int, bottom: int, right: int) -> int:
        s = self.sats[d]
        total = int(s[bottom, right])
        if top > 0:
            total -= int(s[top - 1, right])
        if left > 0:
            total -= int(s[bottom, left - 1])
        if top > 0 and left > 0:
            total += int(s[top - 1, left - 1])
        return total

    def update(self, d: int, r: int, c: int, delta: int) -> None:
        self.sats[d][r:, c:] += delta


def make_ops(rng, count: int, datasets: int, n: int) -> List[Op]:
    ops = []
    for _ in range(count):
        d = int(rng.integers(datasets))
        if rng.random() < UPDATE_SHARE:
            r, c = (int(v) for v in rng.integers(0, n, size=2))
            ops.append(Op("update_point", d, (r, c, float(rng.integers(1, 10)))))
        else:
            top, bottom = sorted(int(v) for v in rng.integers(0, n, size=2))
            left, right = sorted(int(v) for v in rng.integers(0, n, size=2))
            ops.append(Op("region_sum", d, (top, left, bottom, right)))
    return ops


def verify(ctx: RunContext, phase: PhaseResult, shadow: Shadow, *,
           shed_fails: bool) -> None:
    """Replay the accepted requests in submission order against the shadow."""
    last_index: Dict[int, int] = {}
    for i, outcome in enumerate(phase.outcomes):
        if outcome.shed:
            if shed_fails:
                ctx.checks.attempt()
                ctx.checks.fail(f"request {i} shed at the fixed rate")
    for i in phase.accepted:
        op, outcome = phase.ops[i], phase.outcomes[i]
        ctx.checks.attempt()
        if op.kind == "update_point":
            r, c, delta = op.args
            shadow.update(op.dataset, r, c, int(delta))
        if outcome.error is not None:
            ctx.checks.fail(f"{op.kind} raised {outcome.error!r}")
            continue
        if not outcome.done:
            ctx.checks.fail(f"{op.kind} never completed")
            continue
        if op.kind == "region_sum":
            expected = shadow.region_sum(op.dataset, *op.args)
            ctx.checks.expect(outcome.value == expected,
                              f"region_sum {op.args} = {outcome.value}, shadow {expected}")
        previous = last_index.get(op.dataset, 0)
        ctx.checks.expect(outcome.completed_index > previous,
                          f"dataset {op.dataset}: completion out of submission order")
        last_index[op.dataset] = outcome.completed_index


def run(ctx: RunContext) -> Optional[str]:
    return asyncio.run(_run(ctx))


async def _run(ctx: RunContext) -> Optional[str]:
    import numpy as np

    from repro.service import SATServer, ShardRouter, TiledSATStore, WorkerSupervisor

    cluster = ctx.workload == "serve-cluster"
    if ctx.tracer is not None:
        from layers import trace_serving_layers

        trace_serving_layers(ctx.tracer)
    size = dict(SMOKE if ctx.smoke else FULL)
    n, datasets = size["n"], size["datasets"]
    rng = np.random.default_rng(ctx.seed)
    with ctx.not_setup():
        matrices = [rng.integers(0, 256, size=(n, n)).astype(np.float64)
                    for _ in range(datasets)]
    names = [f"dataset-{d}" for d in range(datasets)]

    router = None
    if cluster:
        router = ShardRouter(WorkerSupervisor(nproc()), replicas=2)
        server = SATServer(router=router)
    else:
        server = SATServer(TiledSATStore())
    loop = asyncio.get_running_loop()
    await server.start()
    try:
        for name, m in zip(names, matrices):
            await server.ingest(name, m)
        if router is not None:
            router.supervisor.start_monitor()
        with ctx.not_setup():
            shadow = Shadow(matrices)
        ctx.setup_done()

        budget = {k: v * ctx.seconds for k, v in SHARES.items()}
        fixed_rps = size["fixed_rps"][ctx.workload]

        async def phase(rate: float, seconds: float) -> PhaseResult:
            ops = make_ops(rng, max(1, int(rate * seconds)), datasets, n)
            return await OpenLoop(loop, server, names, ops, rate).run(
                timeout=seconds + 30.0)

        # -- fixed rate --------------------------------------------------------
        ctx.phase("warmup")
        verify(ctx, await phase(fixed_rps, min(0.5, budget["fixed"] / 4)), shadow,
               shed_fails=True)
        ctx.phase("fixed")
        fixed = await phase(fixed_rps, budget["fixed"])
        verify(ctx, fixed, shadow, shed_fails=True)
        # Host stalls come in bursts of a second or two: each latency is
        # the median over equal windows of the phase of that window's
        # percentile, so one stalled window cannot move it.
        for kind, label in (("region_sum", "query"), ("update_point", "update")):
            windows = [fixed.latencies_ms(kind, window=(w, WINDOWS))
                       for w in range(WINDOWS)]
            for q in (50, 90):
                ctx.e2e(f"{label}_p{q}_ms",
                        median([percentile(w, q) for w in windows if w]), "ms")
            ctx.info[f"{label}_p99_ms (whole phase)"] = round(
                percentile(fixed.latencies_ms(kind), 99), 4)
        ctx.info["fixed_rps"] = fixed_rps
        ctx.info["fixed_requests"] = len(fixed.ops)

        # -- max_rps search ----------------------------------------------------
        ctx.phase("search")
        probe_s = max(0.25, 0.03 * ctx.seconds)
        search_start = time.perf_counter()
        lo, hi, best = None, None, None
        rate = fixed_rps
        probes = []
        while time.perf_counter() - search_start < budget["search"] and len(probes) < 16:
            result = await phase(rate, probe_s)
            verify(ctx, result, shadow, shed_fails=False)
            q_all = result.latencies_ms("region_sum")
            q_late = result.latencies_ms("region_sum", window=(1, 2))
            passed = (result.shed == 0 and bool(q_all) and bool(q_late)
                      and percentile(q_all, 90) <= QUERY_P90_LIMIT_MS
                      and percentile(q_late, 90) <= QUERY_P90_LIMIT_MS)
            probes.append((round(rate, 1), passed, result.shed))
            if passed:
                lo, best = rate, result
            else:
                hi = rate
            if hi is None:
                rate *= 1.5
            elif lo is None:
                rate /= 1.5
            elif hi / lo < 1.04:
                break
            else:
                rate = (lo + hi) / 2.0
        if best is not None:
            ctx.e2e("max_rps", best.completion_rate(), "req/s")
        ctx.info["probes (rate, passed, shed)"] = probes

        # -- ingest ------------------------------------------------------------
        ctx.phase("ingest")
        with ctx.not_setup():
            fresh = [rng.integers(0, 256, size=(n, n)).astype(np.float64)
                     for _ in range(size["ingest_names"])]
        ingest_names = [f"ingest-{k}" for k in range(len(fresh))]
        ingest_times = []
        ingest_start = time.perf_counter()
        while (not ingest_times
               or time.perf_counter() - ingest_start < budget["ingest"]):
            for name, m in zip(ingest_names, fresh):
                t0 = time.perf_counter()
                await server.ingest(name, m)
                ingest_times.append(time.perf_counter() - t0)
                ctx.checks.attempt()
        ctx.e2e("sat_melem_per_s", median([n * n / t for t in ingest_times]) / 1e6,
                "Melem/s")
        ctx.info["ingests"] = len(ingest_times)

        # -- final checks, outside every timed window -------------------------
        ctx.phase("check")
        for name, m in zip(ingest_names, fresh):
            response = await server.region_sum(name, 0, 0, n - 1, n - 1)
            ctx.checks.attempt()
            ctx.checks.expect(response.value == int(m.sum()),
                              f"{name}: total {response.value} != {int(m.sum())}")
        for d, name in enumerate(names):
            response = await server.region_sum(name, 0, 0, n - 1, n - 1)
            expected = shadow.region_sum(d, 0, 0, n - 1, n - 1)
            ctx.checks.attempt()
            ctx.checks.expect(response.value == expected,
                              f"{name}: final total {response.value} != shadow {expected}")

        if ctx.tracer is not None:
            from layers import serving_layer_metrics

            serving_layer_metrics(ctx, fixed=fixed, best=best, router=router)
        else:
            late = [(o.sent - o.due) * 1e3 for o in fixed.outcomes]
            ctx.info["loadgen_late_p50_ms"] = round(percentile(late, 50), 4)
        ctx.e2e("peak_rss_mib", peak_rss_mib(), "MiB")
    finally:
        await server.close()
        if router is not None:
            router.close()
    return None
