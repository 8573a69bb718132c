"""Compiled execution plans: plan construction separated from execution.

Every SAT algorithm's kernel structure — which buffers it allocates, which
kernels it launches, which block tasks each kernel holds — is a pure
function of ``(algorithm configuration, matrix shape, machine params)``;
it never depends on the matrix *contents* (access patterns on the HMM are
data-oblivious, which is also why the paper can count accesses in closed
form). This module exploits that: an algorithm's ``_run`` is executed once
against a *recorder* that captures the operation sequence without moving
any data, producing an :class:`ExecutionPlan` that can be replayed against
any number of executors at the same shape. Repeated traffic at one shape —
the production serving case — therefore skips all task-list construction.

A plan additionally memoizes each kernel's measured
:class:`~repro.machine.macro.counters.AccessCounters` diff after its first
counted execution. Because the access patterns are data-independent, those
diffs are exact for every later run at the same key, which is what enables
the fast execution path (:func:`execute_plan` with ``fast=True``): run the
tasks with per-access charging disabled and apply the recorded per-kernel
tallies wholesale.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import AccessError, PlanCompileError
from ...obs import runtime as obs
from ..params import MachineParams
from ..macro.counters import AccessCounters
from ..macro.executor import BlockTask, HMMExecutor, KernelTrace
from .fused import build_fused_schedule


@dataclasses.dataclass(frozen=True)
class PlanKey:
    """Cache key identifying one compiled plan.

    ``extras`` carries algorithm-specific configuration that changes the
    kernel structure (e.g. kR1W's mixing parameter ``p``) as a sorted
    tuple of ``(name, value)`` pairs so the key stays hashable.
    """

    algorithm: str
    rows: int
    cols: int
    width: int
    latency: int
    extras: Tuple[Tuple[str, Hashable], ...] = ()

    @classmethod
    def make(
        cls,
        algorithm: str,
        rows: int,
        cols: int,
        params: MachineParams,
        extras: Optional[Dict[str, Hashable]] = None,
    ) -> "PlanKey":
        return cls(
            algorithm=algorithm,
            rows=int(rows),
            cols=int(cols),
            width=int(params.width),
            latency=int(params.latency),
            extras=tuple(sorted((extras or {}).items())),
        )


@dataclasses.dataclass(frozen=True)
class AllocOp:
    """Replayable ``gm.alloc`` — a zeroed buffer created mid-program."""

    name: str
    shape: Tuple[int, ...]
    dtype: str = "float64"


@dataclasses.dataclass(frozen=True)
class FreeOp:
    """Replayable ``gm.free`` (4R4W releases its transpose scratch)."""

    name: str


@dataclasses.dataclass
class KernelPlan:
    """One kernel launch: its label, tasks, and (once measured) traffic.

    ``counters`` starts ``None`` and is filled in by the first counted
    execution of the plan; after that the fast path can replay it.
    ``schedule`` is the kernel's *fused* execution schedule — the task
    list partitioned into :class:`~repro.machine.engine.fused
    .FusedKernelSpec` groups (batched numpy execution) and leftover
    per-task entries — built lazily on first fused execution and cached
    for the plan's lifetime; its block coordinates and edge-case subsets
    are what "precomputed at compile time" means operationally. ``native`` is the same schedule
    lowered one level further, with each spec bound to its compiled
    megakernel (:mod:`~repro.machine.engine.native`); it too is built
    once and cached, so the compiled-kernel bindings are keyed exactly
    like the plan that owns them.
    """

    label: str
    tasks: Tuple[BlockTask, ...]
    counters: Optional[AccessCounters] = None
    schedule: Optional[Tuple] = None
    native: Optional[Tuple] = None

    def fused_schedule(self) -> Tuple:
        if self.schedule is None:
            with obs.span("fused_build", label=self.label, tasks=len(self.tasks)):
                self.schedule = build_fused_schedule(self.tasks)
            obs.inc("fused_schedule_builds_total")
        return self.schedule

    def native_schedule(self, backend) -> Tuple:
        if self.native is None:
            from .native import build_native_schedule

            with obs.span("native_build", label=self.label, tasks=len(self.tasks)):
                self.native = build_native_schedule(self.fused_schedule(), backend)
            obs.inc("native_schedule_builds_total")
        return self.native


PlanOp = Union[AllocOp, FreeOp, KernelPlan]


@dataclasses.dataclass
class ExecutionPlan:
    """The full replayable program: ordered allocs, frees, and kernels."""

    key: PlanKey
    ops: List[PlanOp]

    @property
    def kernels(self) -> List[KernelPlan]:
        return [op for op in self.ops if isinstance(op, KernelPlan)]

    @property
    def num_kernels(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, KernelPlan))

    @property
    def num_tasks(self) -> int:
        return sum(len(op.tasks) for op in self.ops if isinstance(op, KernelPlan))

    @property
    def counted(self) -> bool:
        """Whether every kernel's traffic has been measured (fast-path ready)."""
        return all(k.counters is not None for k in self.kernels)


class _RecordingMemory:
    """Stands in for :class:`GlobalMemory` during plan compilation.

    Supports exactly the metadata operations an algorithm may perform
    while *constructing* its kernels — allocation, shape and dtype
    queries, frees. Anything touching buffer contents raises
    :class:`~repro.errors.PlanCompileError`, which marks the algorithm
    instance as non-compilable (the driver then falls back to direct
    execution rather than risk baking data-dependent structure into a
    reusable plan).
    """

    def __init__(self, recorder: "_PlanRecorder"):
        self._recorder = recorder
        self._shapes: Dict[str, Tuple[int, ...]] = {}
        self._dtypes: Dict[str, np.dtype] = {}

    def seed(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> None:
        """Register a buffer that exists before the plan runs (the input)."""
        self._shapes[name] = tuple(shape)
        self._dtypes[name] = np.dtype(dtype)

    def alloc(self, name: str, shape, dtype=np.float64) -> None:
        if name in self._shapes:
            raise AccessError(f"buffer {name!r} already allocated")
        shape = tuple(shape) if not np.isscalar(shape) else (int(shape),)
        self._shapes[name] = shape
        self._dtypes[name] = np.dtype(dtype)
        self._recorder.ops.append(AllocOp(name, shape, np.dtype(dtype).name))

    def free(self, name: str) -> None:
        self._require(name)
        del self._shapes[name]
        del self._dtypes[name]
        self._recorder.ops.append(FreeOp(name))

    def has(self, name: str) -> bool:
        return name in self._shapes

    def _require(self, name: str) -> None:
        if name not in self._shapes:
            raise AccessError(f"no buffer named {name!r}")

    def shape(self, name: str) -> Tuple[int, ...]:
        self._require(name)
        return self._shapes[name]

    def dtype(self, name: str) -> np.dtype:
        self._require(name)
        return self._dtypes[name]

    def __getattr__(self, attr: str):
        raise PlanCompileError(
            f"GlobalMemory.{attr} depends on buffer contents and cannot be "
            "used while a plan is being compiled; only kernel-structure "
            "operations (alloc/free/has/shape/dtype) are recordable"
        )


class _PlanRecorder:
    """Stands in for :class:`HMMExecutor` while ``_run`` is being recorded.

    ``run_kernel`` captures the task list instead of executing it; the
    attached :class:`_RecordingMemory` captures allocation structure. Any
    other executor capability an algorithm reaches for raises
    :class:`~repro.errors.PlanCompileError`.
    """

    def __init__(self, params: MachineParams):
        self.params = params
        self.gm = _RecordingMemory(self)
        self.counters = AccessCounters()
        self.ops: List[PlanOp] = []

    def run_kernel(self, tasks, label: str = "") -> KernelTrace:
        tasks = tuple(tasks)
        self.ops.append(KernelPlan(label=label, tasks=tasks))
        self.counters.kernels_launched += 1
        return KernelTrace(label=label, blocks=len(tasks), counters=AccessCounters())

    def map_blocks(self, fn, count: int, label: str = "") -> KernelTrace:
        def make(i: int) -> BlockTask:
            return lambda ctx: fn(ctx, i)

        return self.run_kernel([make(i) for i in range(count)], label=label)

    def __getattr__(self, attr: str):
        raise PlanCompileError(
            f"HMMExecutor.{attr} is not available while a plan is being "
            "compiled; algorithms whose kernel structure needs it must run "
            "uncompiled"
        )


def compile_plan(
    algorithm,
    rows: int,
    cols: int,
    params: MachineParams,
    *,
    input_buffer: str,
) -> ExecutionPlan:
    """Record ``algorithm._run`` into a reusable :class:`ExecutionPlan`.

    ``input_buffer`` is the name of the pre-installed matrix buffer (it is
    seeded into the recorder so the algorithm sees it as already present,
    and is deliberately *not* part of the plan's alloc ops). Raises
    :class:`~repro.errors.PlanCompileError` if the algorithm's structure
    cannot be captured (callers fall back to direct execution).
    """
    if not getattr(algorithm, "plan_safe", True):
        raise PlanCompileError(
            f"algorithm {algorithm.name!r} is configured with per-run state "
            "(snapshots/intermediates) and cannot be compiled into a plan"
        )
    recorder = _PlanRecorder(params)
    recorder.gm.seed(input_buffer, (rows, cols))
    algorithm._run(recorder, rows, cols)
    key = PlanKey.make(
        algorithm.name, rows, cols, params, getattr(algorithm, "plan_extras", dict)()
    )
    return ExecutionPlan(key=key, ops=recorder.ops)


def execute_plan(
    plan: ExecutionPlan,
    executor: HMMExecutor,
    *,
    fast: bool = False,
    fused: Union[bool, str] = True,
) -> None:
    """Replay a plan against a live executor (input buffer already installed).

    With ``fast=False`` every kernel runs through the fully counted
    :meth:`~repro.machine.macro.executor.HMMExecutor.run_kernel` path —
    bit-identical to direct execution, including the seeded adversarial
    block shuffle — and each kernel's measured traffic diff is memoized
    into the plan. With ``fast=True``, kernels whose diffs are already
    memoized skip per-access charging and apply the recorded tally
    wholesale through
    :meth:`~repro.machine.macro.executor.HMMExecutor.run_kernel_fused`:
    by default (``fused=True`` or ``"numpy"``) each kernel's task groups
    run as batched numpy gather/compute/scatter over the plan's
    precomputed block coordinates; with ``fused="native"`` those groups
    run as compiled native megakernels instead
    (:mod:`~repro.machine.engine.native`; degrades to the numpy schedule,
    bit-identically, when the module cannot be built). Unmeasured kernels
    fall back to the counted path, so the very first fast run both works
    and completes the plan's accounting.
    """
    from .native import ensure_backend, resolve_fused

    backend = None
    fused = resolve_fused(fused)
    use_fused = (
        fast and executor.injector is None and executor.max_task_retries == 0
    )
    if use_fused and fused == "native":
        backend = ensure_backend()  # None -> numpy fused fallback (warned)
    for op in plan.ops:
        if isinstance(op, AllocOp):
            executor.gm.alloc(op.name, op.shape, dtype=np.dtype(op.dtype))
        elif isinstance(op, FreeOp):
            executor.gm.free(op.name)
        elif use_fused and op.counters is not None:
            if backend is not None:
                executor.run_kernel_fused(
                    op.native_schedule(backend), len(op.tasks), op.counters,
                    label=op.label, mode="native",
                )
            else:
                executor.run_kernel_fused(
                    op.fused_schedule(), len(op.tasks), op.counters,
                    label=op.label,
                )
        else:
            trace = executor.run_kernel(op.tasks, label=op.label)
            if op.counters is None:
                op.counters = trace.counters.copy()
