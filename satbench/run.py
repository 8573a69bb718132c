#!/usr/bin/env python3
"""Benchmark entry point for the SAT compute and serving workloads.

Usage, from the root of a checkout::

    python3 satbench/run.py --workload sat-compute --seed 1 --seconds 20 --trace 0
    python3 satbench/run.py --smoke          # all workloads, tiny sizes

Each invocation runs one workload against the program in ``src/``, in
fresh processes whose program caches live in a per-run directory under
``.satbench-state/`` (removed at the end). An untraced run splits
``--seconds`` over three processes that each set up and measure; every
end-to-end metric is the median over them, and the last line of standard
output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``. A traced run is one process measuring for the whole
``--seconds``; its last line holds every per-layer metric, 0 for a layer
the workload does not exercise. See ``satbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import RESULT_PREFIX, ROOT, manifest_metrics, median, nproc  # noqa: E402

WORKLOADS = ("sat-compute", "serve-local", "serve-cluster")

#: Fresh processes an untraced run is split into. A process can stay in
#: a slow mode for its whole life (README, "Why three processes"); the
#: median over three keeps one such process from moving the result.
PROCESSES = 3

#: Wall-clock limit for one invocation, children included.
DEADLINE_S = 170.0

#: Program settings read from the environment: cleared, so every run
#: sees the program's defaults.
CLEARED_ENV = ("REPRO_OBS", "REPRO_FUSED_BACKEND", "REPRO_NATIVE_JIT",
               "REPRO_PLAN_CACHE_SIZE")


class RunFailed(Exception):
    pass


def child_env(state: str, tag: str) -> dict:
    env = dict(os.environ)
    for var in CLEARED_ENV:
        env.pop(var, None)
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": str(nproc()),
        "TMPDIR": tmp,
        # An empty native cache per process: set-up includes the build.
        "REPRO_NATIVE_CACHE_DIR": os.path.join(state, f"native-{tag}"),
        "REPRO_AUTOTUNE_PATH": os.path.join(state, f"autotune-{tag}.json"),
    })
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _stop_group(pgid: int) -> None:
    """Stop what is left of a workload's process group and wait for it."""
    deadline = time.monotonic() + 5.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        while _group_alive(pgid):
            time.sleep(0.05)


def run_child(args, state: str, tag: str, deadline: float, *, trace: int,
              seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = child_env(state, tag)
    env["SATBENCH_LAUNCHED"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{args.workload} ({tag}) did not finish in time")
    finally:
        _stop_group(proc.pid)
    result = None
    for line in out.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(f"[{tag}] {line}")
    if proc.returncode != 0 or result is None:
        raise RunFailed(f"{args.workload} ({tag}) exited with {proc.returncode}")
    return result


def run_workload(args, trace: int) -> dict:
    """Run one workload; returns the benchmark's result object."""
    expected = manifest_metrics("per_layer" if trace else "end_to_end")
    deadline = time.monotonic() + DEADLINE_S
    state = os.path.join(ROOT, ".satbench-state", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(state)
    try:
        if trace:
            runs = [run_child(args, state, "traced", deadline, trace=1,
                              seconds=args.seconds)]
        else:
            runs = [run_child(args, state, f"p{k}", deadline, trace=0,
                              seconds=args.seconds / PROCESSES)
                    for k in range(PROCESSES)]
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if trace:
        measured = runs[0]["per_layer"]
    else:
        measured = {}
        for name in sorted(set().union(*(r["end_to_end"] for r in runs))):
            values = [r["end_to_end"][name] for r in runs if name in r["end_to_end"]]
            if len(values) < len(runs):
                raise RunFailed(f"{name} missing from some processes")
            measured[name] = (median(v for v, _ in values), values[0][1])
            print(f"{name} per process: "
                  f"{', '.join(f'{v:.6g}' for v, _ in values)} -> median "
                  f"{measured[name][0]:.6g} {values[0][1]}")
    stray = sorted(set(measured) - set(expected))
    if stray:
        raise RunFailed(f"{args.workload} measured metrics BENCHMARK.json lacks: {stray}")
    metrics = {}
    for name, unit in sorted(expected.items()):
        if name in measured:
            value, measured_unit = measured[name]
            if measured_unit != unit:
                raise RunFailed(f"{name} measured in {measured_unit}, "
                                f"BENCHMARK.json says {unit}")
        elif trace:
            value = 0.0  # the workload does not exercise this layer
        else:
            raise RunFailed(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default 20; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, runs every workload "
                             "untraced and traced")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 20.0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or pass --smoke)")

    if args.workload is not None:
        try:
            result = run_workload(args, args.trace)
        except RunFailed as exc:
            print(f"benchmark run failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        args.workload = workload
        for trace in (0, 1):
            try:
                result = run_workload(args, trace)
            except RunFailed as exc:
                print(f"smoke {workload} trace={trace}: {exc}", file=sys.stderr)
                ok = False
                continue
            passed = result["correct"] and result["failed"] == 0
            ok &= passed
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if passed else 'FAILED'} {json.dumps(result)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
