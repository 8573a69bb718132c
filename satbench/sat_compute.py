"""The ``sat-compute`` workload.

Integer-valued square matrices on the paper's GTX 780 Ti machine
(``w=32, l=512``) go through every Table II algorithm on the counted,
numpy-fused and native paths, through a warm ``BatchSession`` pool,
through ``sat_streamed`` with the HMM band kernel, and through
``algorithm="auto"``. The serving layers do no work here.

Every result is checked, outside the timed calls, against a numpy
``cumsum`` computed by the benchmark and, for the counted traffic,
against the arithmetic Table I predictor and the paper's step counts.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List

from common import RunContext, geometric_mean, median, nproc, peak_rss_mib

ALGORITHMS = ("2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "1.25R1W")

#: compute() keyword arguments of each measured path.
PATHS = {
    "counted": {},
    "fused": {"fast": True, "fused": "numpy"},
    "native": {"fast": True, "fused": "native"},
}

#: Share of ``--seconds`` each phase may use. One counted pass takes
#: about 3.7 s at n=1024 and repeats within 2%, so it gets one pass; the
#: short fast-path passes are noisier and get more of the run.
SHARES = {
    "counted": 0.18, "fused": 0.14, "native": 0.12,
    "pool": 0.2, "stream": 0.16, "auto": 0.2,
}

#: Paths whose rates make up ``sat_melem_per_s`` (their geometric mean).
#: The native and auto rates are printed for reference only: see README.
RATE_PATHS = ("counted", "fused", "pool", "stream")

FULL = {"n": 1024, "batch": 8, "tall": (4096, 1024), "band_rows": 256,
        "auto_shapes": ((1024, 1024), (256, 256)), "auto_calls": 12}
SMOKE = {"n": 64, "batch": 4, "tall": (256, 64), "band_rows": 64,
         "auto_shapes": ((64, 64), (32, 32)), "auto_calls": 3}


def paper_kernels(name: str, n: int, w: int):
    """The paper's step counts (None where the paper gives none)."""
    return {"2R2W": 2, "4R4W": 4, "4R1W": 2 * n - 1, "2R1W": 3,
            "1R1W": 2 * n // w - 1}.get(name)


def passes(budget: float, one_pass: Callable[[], float]) -> List[float]:
    """Run whole passes until ``budget`` wall seconds are (about) used.

    ``one_pass`` returns the seconds it timed; checks it runs outside
    its timed calls still count against the budget. At least one pass.
    """
    timed: List[float] = []
    start = time.perf_counter()
    while True:
        timed.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(timed) >= budget:
            return timed


def run(ctx: RunContext) -> str:
    import numpy as np

    from repro import gtx_780_ti, make_algorithm
    from repro.analysis.formulas import predicted_counters
    from repro.autotune import compute_arms, default_planner, set_default_planner
    from repro.machine import default_engine
    from repro.machine.engine import native_available, native_stats
    from repro.sat import MATRIX_BUFFER, BatchSession, hmm_band_sat, sat_streamed

    if ctx.tracer is not None:
        from layers import trace_compute_layers

        trace_compute_layers(ctx.tracer)

    size = SMOKE if ctx.smoke else FULL
    n = size["n"]
    params = gtx_780_ti()
    workers = nproc()
    rng = np.random.default_rng(ctx.seed)

    def matrix(shape):
        return rng.integers(0, 256, size=shape).astype(np.float64)

    def reference(a):
        return np.cumsum(np.cumsum(a, axis=0), axis=1)

    # -- set-up: pool fork and warm-up, native build and self-check from
    # an empty cache, plan compiles, stream engine warm-up -----------------
    session = BatchSession(workers=workers, params=params, warm_shapes=[(n, n)])
    try:
        native = native_available()
        toolchain = native_stats()["toolchain"]
        algos = {name: make_algorithm(name) for name in ALGORITHMS}
        engine = default_engine()
        for algo in algos.values():
            engine.plan_for(algo, n, n, params, input_buffer=MATRIX_BUFFER)
        rows, cols = size["tall"]
        band_rows = size["band_rows"]
        band_kernel = hmm_band_sat(params=params)
        if ctx.tracer is not None:
            band_kernel = ctx.tracer.traced(band_kernel, "stream.band")
        probe = np.ones((band_rows, cols))
        band_kernel(probe)  # compiles the band plan and counts its traffic
        band_kernel(probe)  # builds the fused schedule

        with ctx.not_setup():
            a = matrix((n, n))
            ref = reference(a)
            batch = [matrix((n, n)) for _ in range(size["batch"])]
            batch_refs = [reference(m) for m in batch]
            tall = matrix((rows, cols))
            tall_ref = reference(tall)
            auto_inputs = {s: matrix(s) for s in size["auto_shapes"]}
            auto_refs = {s: reference(m) for s, m in auto_inputs.items()}
            predicted = {
                name: predicted_counters(name, n, params) for name in ALGORITHMS
            }
        ctx.setup_done()

        def check_sat(result, expected, what):
            ctx.checks.attempt()
            ctx.checks.expect(np.array_equal(result, expected), f"{what}: SAT differs")

        def check_counters(name, result, what):
            c, p = result.counters, predicted[name]
            ctx.checks.expect(
                (c.coalesced_elements, c.stride_ops, c.kernels_launched)
                == (p.coalesced, p.stride, p.kernels),
                f"{what}: counters (C={c.coalesced_elements}, S={c.stride_ops}, "
                f"K={c.kernels_launched}) != predicted ({p.coalesced}, {p.stride}, "
                f"{p.kernels})",
            )
            steps = paper_kernels(name, n, params.width)
            if steps is not None:
                ctx.checks.expect(
                    c.kernels_launched == steps,
                    f"{what}: {c.kernels_launched} kernels, the paper has {steps}",
                )

        results = {}

        def path_pass(path):
            kwargs = PATHS[path]

            def one_pass():
                spent = 0.0
                for name, algo in algos.items():
                    t0 = time.perf_counter()
                    result = algo.compute(a, params, **kwargs)
                    spent += time.perf_counter() - t0
                    what = f"{path} {name}"
                    check_sat(result.sat, ref, what)
                    check_counters(name, result, what)
                    results[name] = result
                return spent

            return one_pass

        element_pass = len(ALGORITHMS) * n * n
        rates = {}
        budget = {k: v * ctx.seconds for k, v in SHARES.items()}
        for path in PATHS:
            ctx.phase(path)
            if path != "counted":
                # The first fast pass builds the fused schedule, or lowers
                # it to native code; let that finish before timing.
                ctx.phase("warmup")
                path_pass(path)()
                ctx.phase(path)
            times = passes(budget[path], path_pass(path))
            rates[path] = median([element_pass / t for t in times]) / 1e6
            ctx.e2e(f"{path}_melem_per_s", rates[path], "Melem/s")
            ctx.info[f"{path}_passes"] = len(times)

        # -- warm batch pool ------------------------------------------------
        def pool_pass(target):
            def one_pass():
                t0 = time.perf_counter()
                outs = list(target.map(batch))
                spent = time.perf_counter() - t0
                for out, expected in zip(outs, batch_refs):
                    check_sat(out, expected, f"pool workers={target.workers}")
                return spent

            return one_pass

        ctx.phase("warmup")
        pool_pass(session)()  # first map sizes the shared-memory slabs
        ctx.phase("pool")
        pool_times = passes(budget["pool"], pool_pass(session))
        rates["pool"] = median([len(batch) * n * n / t for t in pool_times]) / 1e6
        ctx.e2e("pool_melem_per_s", rates["pool"], "Melem/s")
        ctx.info["pool_batches"] = len(pool_times)
        ctx.info["pool_workers"] = workers

        # -- band streaming, one band prefetched -----------------------------
        stream_stats = {"bands": 0, "generator_s": 0.0}

        def stream_pass():
            out = np.empty((rows, cols))
            spent = 0.0
            stream = sat_streamed(
                lambda r0, r1: tall[r0:r1], (rows, cols), band_rows,
                band_sat=band_kernel, prefetch_depth=1,
            )
            while True:
                t0 = time.perf_counter()
                try:
                    row0, band = next(stream)
                except StopIteration:
                    spent += time.perf_counter() - t0
                    break
                spent += time.perf_counter() - t0
                out[row0:row0 + band.shape[0]] = band
                stream_stats["bands"] += 1
            stream_stats["generator_s"] += spent
            check_sat(out, tall_ref, "stream")
            return spent

        ctx.phase("stream")
        times = passes(budget["stream"], stream_pass)
        rates["stream"] = median([rows * cols / t for t in times]) / 1e6
        ctx.e2e("stream_melem_per_s", rates["stream"], "Melem/s")
        ctx.e2e("sat_melem_per_s", geometric_mean([rates[p] for p in RATE_PATHS]),
                "Melem/s")
        ctx.info["stream_passes"] = len(times)

        # -- algorithm="auto" from empty autotune state ----------------------
        # Warm every plan the planner may pick, so that a timed round never
        # compiles; each round then starts from an empty planner.
        ctx.phase("warmup")
        backends = ("numpy", "native") if native else ("numpy",)
        for shape in size["auto_shapes"]:
            warm_probe = np.ones(shape)
            seen = set()
            for arm in compute_arms(shape[0], shape[1], params,
                                    fused_options=backends):
                key = (arm.algorithm, arm.p)
                if key in seen or (shape == (n, n) and arm.p is None):
                    continue  # the path phases already warmed these
                seen.add(key)
                algo = make_algorithm(arm.algorithm, **arm.algorithm_kwargs())
                algo.compute(warm_probe, params)
                for backend in backends:
                    algo.compute(warm_probe, params, fast=True, fused=backend)
        auto = make_algorithm("auto")
        sidecar = os.environ["REPRO_AUTOTUNE_PATH"]
        sequence = [s for _ in range(size["auto_calls"]) for s in size["auto_shapes"]]
        explore_counts: List[int] = []

        def auto_pass():
            if os.path.exists(sidecar):
                os.remove(sidecar)
            set_default_planner(None)
            spent = 0.0
            for shape in sequence:
                t0 = time.perf_counter()
                result = auto.compute(auto_inputs[shape], params, fast=True)
                spent += time.perf_counter() - t0
                check_sat(result.sat, auto_refs[shape], f"auto {shape}")
            explore_counts.append(default_planner().stats()["modes"].get("explore", 0))
            return spent

        ctx.phase("auto")
        times = passes(budget["auto"], auto_pass)
        elements = sum(r * c for r, c in sequence)
        ctx.e2e("auto_melem_per_s", median([elements / t for t in times]) / 1e6,
                "Melem/s")
        ctx.info["auto_rounds"] = len(times)
        ctx.info["auto_explore_decisions"] = explore_counts

        if ctx.tracer is not None:
            ctx.phase("serial")
            serial = BatchSession(workers=1, params=params, warm_shapes=[(n, n)])
            try:
                pool_pass(serial)()
                serial_times = passes(budget["pool"], pool_pass(serial))
            finally:
                serial.close()
            from layers import compute_layer_metrics

            compute_layer_metrics(
                ctx, n=n, results=results, pool_times=pool_times,
                serial_times=serial_times, stream_stats=stream_stats,
                explore_counts=explore_counts,
            )
        ctx.e2e("peak_rss_mib", peak_rss_mib(), "MiB")
    finally:
        session.close()
    return toolchain
