"""The asynchronous-HMM macro executor: kernels, blocks, and barriers.

A program for the asynchronous HMM is a sequence of *kernels* separated by
*barrier synchronization steps* (on a GPU: separate CUDA kernel launches).
Each kernel is a collection of independent *block tasks*; each task runs on
some DMM with freshly allocated shared memory, reads and writes global
memory through the counted :class:`~repro.machine.macro.global_memory.GlobalMemory`
API, and must leave everything it wants to survive in global memory,
because the asynchronous HMM resets every DMM at each barrier.

The executor enforces exactly those semantics:

* block tasks within a kernel are run in a *randomized order* (seeded), so
  any inter-block ordering assumption an algorithm smuggles in breaks in
  tests — this is the "asynchronous" in asynchronous HMM;
* shared memory is zeroed and invalidated after every task;
* the barrier count in the shared :class:`AccessCounters` equals the number
  of kernel boundaries (launches minus one), matching the paper's counting
  where an algorithm with ``k`` phases performs ``k - 1`` barrier steps;
* a per-kernel trace records the traffic of each phase so Figure 5-style
  timing charts and per-step cost breakdowns can be reconstructed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ...errors import IdempotenceViolation, RetryExhausted, TransientFault
from ...obs import runtime as obs
from ..params import MachineParams
from .counters import AccessCounters
from .global_memory import GlobalMemory, WriteLog
from .shared import SharedAllocator


@dataclass
class KernelTrace:
    """Traffic attributable to one kernel (one barrier-delimited phase)."""

    label: str
    blocks: int
    counters: AccessCounters

    @property
    def stages(self) -> int:
        """Pipeline stages this phase occupies (transactions + stride ops)."""
        return self.counters.coalesced_transactions + self.counters.stride_ops


class BlockContext:
    """Execution context handed to each block task.

    Exposes the counted global memory, a per-block shared allocator, the
    machine parameters, and the block's index within its kernel.
    """

    def __init__(
        self,
        gm: GlobalMemory,
        shared: SharedAllocator,
        params: MachineParams,
        block_index: int,
        num_blocks: int,
    ):
        self.gm = gm
        self.shared = shared
        self.params = params
        self.block_index = block_index
        self.num_blocks = num_blocks


BlockTask = Callable[[BlockContext], None]


class TaskFaultHook:
    """Interface the executor calls around each block-task attempt.

    :class:`repro.faults.FaultInjector` implements it; either hook may
    raise :class:`~repro.errors.TransientFault` to kill the attempt —
    ``on_task_start`` before any write lands, ``on_task_end`` after the
    task's whole write set has landed (the harsher case for replay).
    """

    def on_task_start(self, kernel_index: int, block_index: int, attempt: int) -> None:
        """Called before the attempt runs; may raise TransientFault."""

    def on_task_end(self, kernel_index: int, block_index: int, attempt: int) -> None:
        """Called after the attempt's writes landed; may raise TransientFault."""


def _verify_idempotent_replay(
    failed: WriteLog, replay: WriteLog, kernel: str, block_index: int
) -> None:
    """Check a successful replay against a failed attempt's write set.

    Two hazards make a replay unsafe (the task is not idempotent):

    * the replay never rewrote an address the failed attempt dirtied — the
      stale partial write would survive into the final state;
    * the replay wrote a *different* value to a shared address — the task
      read global state its own failed attempt had modified (e.g. a
      read-modify-write accumulation), so retrying double-applies it.

    Values are compared with NaN treated as equal to itself so poisoned
    words do not masquerade as divergence of the program logic.

    The comparison is fully vectorized: both write sets are consolidated
    to sorted address/value arrays and matched with one ``searchsorted``,
    so verifying a task that wrote a whole block costs a few numpy calls
    rather than a Python loop over every word.
    """
    failed_addr, failed_val = failed.consolidated()
    if failed_addr.size == 0:
        return
    replay_addr, replay_val = replay.consolidated()
    positions = np.searchsorted(replay_addr, failed_addr)
    clipped = np.minimum(positions, max(replay_addr.size - 1, 0))
    missing = (
        np.ones(failed_addr.size, dtype=bool)
        if replay_addr.size == 0
        else replay_addr[clipped] != failed_addr
    )
    if missing.any():
        address = int(failed_addr[missing][0])
        raise IdempotenceViolation(
            f"block {block_index} of kernel {kernel!r}: replay abandoned "
            f"address {address} written by the failed attempt — stale "
            "partial write would survive"
        )
    replayed = replay_val[clipped]
    same = (replayed == failed_val) | (np.isnan(replayed) & np.isnan(failed_val))
    if not same.all():
        i = int(np.flatnonzero(~same)[0])
        raise IdempotenceViolation(
            f"block {block_index} of kernel {kernel!r}: replay wrote "
            f"{replayed[i]!r} where the failed attempt wrote {failed_val[i]!r} "
            f"(address {int(failed_addr[i])}) — task is not idempotent under replay"
        )


class HMMExecutor:
    """Runs asynchronous-HMM programs and accounts their memory traffic."""

    def __init__(
        self,
        params: MachineParams,
        gm: Optional[GlobalMemory] = None,
        *,
        seed: Optional[int] = 0,
        shuffle_blocks: bool = True,
        max_task_retries: int = 0,
        injector: Optional["TaskFaultHook"] = None,
    ):
        self.params = params
        self.counters = AccessCounters()
        self.gm = gm if gm is not None else GlobalMemory(params, self.counters)
        if gm is not None:
            # Share one counter object between memory and executor.
            self.gm.counters = self.counters
        self.traces: List[KernelTrace] = []
        self._rng = random.Random(seed)
        self._shuffle = shuffle_blocks
        if max_task_retries < 0:
            raise ValueError(f"max_task_retries must be >= 0, got {max_task_retries}")
        self.max_task_retries = max_task_retries
        self.injector = injector

    def run_kernel(self, tasks: Iterable[BlockTask], label: str = "") -> KernelTrace:
        """Launch one kernel: run all block tasks (in randomized order).

        Charges one barrier step for the boundary between this kernel and
        the previous one (the first kernel has no preceding barrier).
        """
        tasks = list(tasks)
        if self.counters.kernels_launched > 0:
            self.counters.barriers += 1
        self.counters.kernels_launched += 1
        order = list(range(len(tasks)))
        if self._shuffle:
            self._rng.shuffle(order)
        before = self.counters.copy()
        kernel_index = self.counters.kernels_launched - 1
        kernel_name = label or f"kernel{kernel_index}"
        recording = obs.is_enabled()
        t0 = time.perf_counter() if recording else 0.0
        for i in order:
            self._run_task(tasks[i], i, len(tasks), kernel_index, kernel_name)
            self.counters.blocks_executed += 1
        trace = KernelTrace(
            label=kernel_name,
            blocks=len(tasks),
            counters=self.counters.diff(before),
        )
        self.traces.append(trace)
        if recording:
            obs.record_kernel(
                kernel_name, "counted", len(tasks),
                time.perf_counter() - t0, trace.counters,
            )
        return trace

    def run_kernel_fused(
        self,
        schedule: Sequence,
        num_blocks: int,
        counters: AccessCounters,
        label: str = "",
        mode: str = "fused",
    ) -> KernelTrace:
        """Fused launch: execute a kernel's precompiled batched schedule.

        ``schedule`` is the kernel's fused schedule from
        :meth:`~repro.machine.engine.plan.KernelPlan.fused_schedule` —
        a mix of fused spec objects (recognized by their ``fused_spec``
        duck-typing marker; each stands for a whole task group and applies
        it as batched numpy gather/compute/scatter against the raw buffer
        arrays) and leftover plain block tasks, each run in schedule order
        with a fresh DMM (shared memory), as :meth:`run_kernel` runs it but
        without the block shuffle. A *native* schedule
        (:meth:`~repro.machine.engine.plan.KernelPlan.native_schedule`)
        runs through here unchanged — its groups duck-type the same
        marker but dispatch into compiled megakernels; pass
        ``mode="native"`` so the observability stream tags the kernel
        with the backend that actually executed it.

        ``counters`` must be the per-kernel traffic diff measured by a
        prior :meth:`run_kernel` of the *same* kernel at the same machine
        shape (access patterns on the HMM are data-independent, so the
        tally is exact, not an estimate); it is applied wholesale, with
        the launch's barrier, and per-access charging is off for the
        duration. Requires a fault-free configuration (no injector, no
        retry budget).
        """
        if self.injector is not None or self.max_task_retries > 0:
            raise ValueError(
                "run_kernel_fused requires a fault-free executor "
                "(no injector, max_task_retries=0); use run_kernel"
            )
        if self.counters.kernels_launched > 0:
            self.counters.barriers += 1
        self.counters.kernels_launched += 1
        kernel_name = label or f"kernel{self.counters.kernels_launched - 1}"
        scratch = AccessCounters()
        shared = SharedAllocator(self.params, scratch)
        recording = obs.is_enabled()
        t0 = time.perf_counter() if recording else 0.0
        self.gm.counting = False
        try:
            block_index = 0
            for item in schedule:
                if getattr(item, "fused_spec", False):
                    item.execute(self.gm)
                    block_index += item.num_tasks
                else:
                    item(
                        BlockContext(
                            self.gm, shared, self.params, block_index, num_blocks
                        )
                    )
                    shared.reset_all()  # asynchronous-HMM DMM reset
                    block_index += 1
        finally:
            self.gm.counting = True
        diff = counters.copy()
        self.counters.add(diff)
        trace = KernelTrace(label=kernel_name, blocks=num_blocks, counters=diff)
        self.traces.append(trace)
        if recording:
            obs.record_kernel(
                kernel_name, mode, num_blocks, time.perf_counter() - t0, diff
            )
        return trace

    def _run_task(
        self,
        task: BlockTask,
        block_index: int,
        num_blocks: int,
        kernel_index: int,
        kernel_name: str,
    ) -> None:
        """Run one block task, replaying transient faults up to the budget.

        Every attempt gets a fresh DMM (shared memory), exactly as a GPU
        rescheduling a failed block would. With ``max_task_retries == 0``
        and no injector this reduces to the plain fault-free path; with
        retries enabled, each attempt's global writes are logged so a
        replay can be verified idempotent before it is accepted.
        """
        track_writes = self.max_task_retries > 0
        failed_log: Optional[WriteLog] = None
        for attempt in range(self.max_task_retries + 1):
            shared = SharedAllocator(self.params, self.counters)
            ctx = BlockContext(self.gm, shared, self.params, block_index, num_blocks)
            log = self.gm.begin_write_log() if track_writes else None
            try:
                if self.injector is not None:
                    self.injector.on_task_start(kernel_index, block_index, attempt)
                task(ctx)
                if self.injector is not None:
                    self.injector.on_task_end(kernel_index, block_index, attempt)
            except TransientFault as fault:
                if attempt == self.max_task_retries:
                    raise RetryExhausted(
                        f"block {block_index} of kernel {kernel_name!r} still "
                        f"failing after {attempt + 1} attempt(s): {fault}"
                    ) from fault
                self.counters.task_retries += 1
                if log is not None:
                    # Accumulate the dirtied addresses of every failed
                    # attempt; all of them must be re-covered by the replay.
                    if failed_log is None:
                        failed_log = log
                    else:
                        failed_log.merge_from(log)
                continue
            else:
                if failed_log is not None and log is not None:
                    _verify_idempotent_replay(
                        failed_log, log, kernel_name, block_index
                    )
                return
            finally:
                if track_writes:
                    self.gm.end_write_log()
                shared.reset_all()  # asynchronous-HMM DMM reset

    def map_blocks(
        self,
        fn: Callable[[BlockContext, int], None],
        count: int,
        label: str = "",
    ) -> KernelTrace:
        """Convenience: launch ``count`` blocks running ``fn(ctx, block_id)``."""

        def make(i: int) -> BlockTask:
            return lambda ctx: fn(ctx, i)

        return self.run_kernel([make(i) for i in range(count)], label=label)

    # --- results -----------------------------------------------------------

    def cost(self) -> float:
        """Global-memory access cost of everything run so far (Section III)."""
        from ..cost import access_cost

        return access_cost(self.counters, self.params)

    def phase_stages(self) -> List[int]:
        """Occupied pipeline stages per kernel, for timing charts."""
        return [t.stages for t in self.traces]
