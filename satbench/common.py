"""Helpers shared by the workloads: run context, checks, statistics,
host fingerprint and memory accounting.

Nothing here imports the program under test: the workloads import it
after the run context exists, so import time is part of set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import fmean as mean, geometric_mean, median  # noqa: F401 - re-exported
from typing import Dict, List, Optional

#: Prefix of the line a workload process prints its result on; the
#: entry point turns it into the benchmark's final JSON result line.
RESULT_PREFIX = "SATBENCH_RESULT "

#: The checkout's root, which holds BENCHMARK.json and the program.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def manifest_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


#: Every workload reports each end-to-end metric with the same meaning
#: (see README); every other end-to-end figure a workload measures is
#: printed for reference only, because its run-to-run spread on the
#: reference host is wider than the largest bound a metric may have, or
#: because only one workload could report it.
END_TO_END = manifest_metrics("end_to_end")


def nproc() -> int:
    """CPUs this process may run on; pools and threads are sized to it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


@dataclass
class Checks:
    """Attempted/failed operation counts and correctness verdicts.

    ``attempt`` counts an operation the workload expects to succeed;
    ``fail`` marks one that raised or was refused; ``wrong`` marks one
    that completed with an answer the benchmark's own computation
    disagrees with. ``correct`` is about the operations that did not fail.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    messages: List[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note("FAILED " + message)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.wrong += 1
            self._note("WRONG " + message)
        return ok

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)
            print(message, file=sys.stderr, flush=True)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


@dataclass
class RunContext:
    """What one workload process was asked to do, and what it found."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    tracer: Optional[object]  # tracer.Tracer when --trace 1
    process_start: float  # time.monotonic() just before the process was launched
    checks: Checks = field(default_factory=Checks)
    end_to_end: Dict[str, tuple] = field(default_factory=dict)
    per_layer: Dict[str, tuple] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    setup_s: Optional[float] = None
    _excluded: float = 0.0

    @contextlib.contextmanager
    def not_setup(self):
        """Benchmark-side work (inputs, references) kept out of ``setup_s``."""
        start = time.monotonic()
        try:
            yield
        finally:
            self._excluded += time.monotonic() - start

    def setup_done(self) -> None:
        """Mark the first timed operation: set-up ends here."""
        self.setup_s = time.monotonic() - self.process_start - self._excluded
        self.phase("measure")

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def e2e(self, name: str, value: float, unit: str) -> None:
        if name in END_TO_END:
            self.end_to_end[name] = (float(value), unit)
        else:
            self.info[name] = f"{value:.6g} {unit}"

    def layer(self, name: str, value: float, unit: str) -> None:
        self.per_layer[name] = (float(value), unit)


def _cc_version() -> str:
    try:
        proc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({type(exc).__name__})"
    lines = proc.stdout.strip().splitlines()
    return lines[0] if lines else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openmp_threads() -> object:
    """``omp_get_max_threads()`` of the host's libgomp, else the env value."""
    import ctypes

    try:
        lib = ctypes.CDLL("libgomp.so.1")
        lib.omp_get_max_threads.restype = ctypes.c_int
        lib.omp_get_max_threads.argtypes = []
        return int(lib.omp_get_max_threads())
    except (OSError, AttributeError):
        return os.environ.get("OMP_NUM_THREADS", "unset")


def fingerprint(toolchain: Optional[str]) -> Dict[str, object]:
    import numpy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "cc": _cc_version(),
        "native_toolchain": toolchain,
        "openmp_threads": _openmp_threads(),
    }


def _status_kib(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _descendants(root: int) -> List[int]:
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields after it are fixed.
        fields = stat[stat.rfind(")") + 2:].split()
        parents.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        children = parents.get(todo.pop(), [])
        out.extend(children)
        todo.extend(children)
    return out


def peak_rss_mib() -> float:
    """Peak resident set (VmHWM) of this process plus its live descendants.

    Forked workers share pages with their parent; each process's peak
    counts them again, so this is an upper bound that repeats run to run.
    """
    pids = [os.getpid()] + _descendants(os.getpid())
    return sum(_status_kib(pid, "VmHWM") for pid in pids) / 1024.0


def emit(ctx: RunContext, fingerprint_info: Dict[str, object]) -> None:
    """Print the human-readable report and the result line."""
    print("fingerprint: " + json.dumps(fingerprint_info, sort_keys=True))
    for key, value in sorted(ctx.info.items()):
        print(f"info: {key} = {value}")
    label = "traced" if ctx.tracer is not None else "untraced"
    for name, (value, unit) in sorted(ctx.end_to_end.items()):
        print(f"end-to-end ({label}): {name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(ctx.per_layer.items()):
        print(f"per-layer: {name} = {value:.6g} {unit}")
    print(
        f"checks: attempted={ctx.checks.attempted} failed={ctx.checks.failed} "
        f"wrong={ctx.checks.wrong}"
    )
    result = {
        "correct": ctx.checks.correct,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "setup_s": ctx.setup_s,
        "end_to_end": {k: list(v) for k, v in ctx.end_to_end.items()},
        "per_layer": {k: list(v) for k, v in ctx.per_layer.items()},
    }
    print(RESULT_PREFIX + json.dumps(result), flush=True)
