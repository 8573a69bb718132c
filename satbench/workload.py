"""One workload in one fresh process (launched by ``run.py``).

Prints a human-readable report and, last, a ``SATBENCH_RESULT`` line
that ``run.py`` turns into the benchmark's result.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from common import RunContext, emit, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("sat-compute", "serve-local", "serve-cluster"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    process_start = float(os.environ.get("SATBENCH_LAUNCHED", time.monotonic()))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ctx = RunContext(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        smoke=args.smoke, tracer=tracer,
        process_start=process_start,
    )
    if args.workload == "sat-compute":
        import sat_compute as workload
    else:
        import serve as workload
    toolchain = workload.run(ctx)
    ctx.e2e("setup_s", ctx.setup_s, "s")
    if toolchain is None:
        # The serving workloads never use the native backend; resolve it
        # after measuring, for the fingerprint only.
        from repro.machine.engine import native_available, native_stats

        native_available()
        toolchain = native_stats()["toolchain"]
    emit(ctx, fingerprint(toolchain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
