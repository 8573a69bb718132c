"""Fault injection: wrappers that apply a :class:`FaultPlan` to live objects.

The injector is the stateful counterpart of the pure plan: it keeps the
per-stream event counters (read calls, access calls, provider calls) whose
indices the plan's hash decisions are keyed on, and tallies what it
actually injected in :attr:`FaultInjector.stats` so harnesses can report
the fault load alongside the outcome.
"""

from __future__ import annotations

import collections
import logging
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import TransientFault
from ..machine.macro.counters import AccessCounters
from ..machine.macro.global_memory import GlobalMemory
from ..machine.params import MachineParams
from .plan import FaultPlan

logger = logging.getLogger("repro.faults")

#: Matches out_of_core.BandProvider (not imported — keeps this package
#: free of sat dependencies).
_Provider = Callable[[int, int], np.ndarray]


class FaultInjector:
    """Applies one :class:`FaultPlan`; reusable across layers of one run.

    One injector instance should drive a single run end to end (executor
    hooks, global memory, band provider): its event counters are the
    plan's notion of time, so sharing an injector across runs would shift
    every schedule.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = collections.Counter()
        self._read_calls = 0
        self._access_calls = 0
        self._provider_calls = 0

    # --- executor TaskFaultHook interface ------------------------------------

    def on_task_start(self, kernel_index: int, block_index: int, attempt: int) -> None:
        if self.plan.task_fault_mode(kernel_index, block_index, attempt) == "before":
            self.stats["task_failures_before"] += 1
            logger.debug(
                "injected pre-write failure: kernel %d block %d attempt %d",
                kernel_index, block_index, attempt,
            )
            raise TransientFault(
                f"injected: block {block_index} of kernel {kernel_index} died "
                f"before writing (attempt {attempt})"
            )

    def on_task_end(self, kernel_index: int, block_index: int, attempt: int) -> None:
        if self.plan.task_fault_mode(kernel_index, block_index, attempt) == "after":
            self.stats["task_failures_after"] += 1
            logger.debug(
                "injected post-write failure: kernel %d block %d attempt %d",
                kernel_index, block_index, attempt,
            )
            raise TransientFault(
                f"injected: block {block_index} of kernel {kernel_index} died "
                f"after its writes landed (attempt {attempt})"
            )

    # --- global-memory read filtering ----------------------------------------

    def _maybe_spike(self, counters: AccessCounters) -> None:
        spike = self.plan.latency_spike(self._access_calls)
        self._access_calls += 1
        if spike:
            counters.fault_latency_units += spike
            self.stats["latency_spikes"] += 1
            self.stats["latency_units_injected"] += spike

    def filter_read(self, values: np.ndarray, counters: AccessCounters) -> np.ndarray:
        """Possibly corrupt one element of a read run; charge any spike."""
        self._maybe_spike(counters)
        call = self._read_calls
        self._read_calls += 1
        if not self.plan.read_corrupted(call):
            return values
        values = np.array(values, copy=True)
        if values.size == 0 or not np.issubdtype(values.dtype, np.inexact):
            return values  # nothing corruptible in an empty/integer run
        flat = values.reshape(-1)
        offset = self.plan.corruption_offset(call, flat.size)
        flat[offset] = self.plan.corrupt_value(call)
        self.stats["reads_corrupted"] += 1
        logger.debug("corrupted read call %d at offset %d", call, offset)
        return values

    def filter_read_scalar(self, value, counters: AccessCounters):
        """Scalar variant of :meth:`filter_read` (for ``read_at``)."""
        self._maybe_spike(counters)
        call = self._read_calls
        self._read_calls += 1
        if self.plan.read_corrupted(call) and isinstance(value, (float, np.floating)):
            self.stats["reads_corrupted"] += 1
            return self.plan.corrupt_value(call)
        return value

    # --- band-provider wrapping ----------------------------------------------

    def wrap_provider(self, provider: _Provider) -> _Provider:
        """A provider that raises or corrupts per the plan, else delegates.

        Corruption here always produces a *copy* — the underlying
        provider's data is never damaged, exactly like a transient
        transfer error.
        """

        def faulty(row0: int, row1: int) -> np.ndarray:
            call = self._provider_calls
            self._provider_calls += 1
            if self.plan.provider_fails(call):
                self.stats["provider_failures"] += 1
                logger.debug("injected provider failure on call %d", call)
                raise TransientFault(
                    f"injected: band fetch [{row0}, {row1}) failed (call {call})"
                )
            band = np.array(provider(row0, row1), dtype=np.float64, copy=True)
            if self.plan.provider_corrupts(call) and band.size:
                flat = band.reshape(-1)
                offset = self.plan.corruption_offset(call, flat.size)
                flat[offset] = self.plan.corrupt_value(call)
                self.stats["provider_corruptions"] += 1
                logger.debug("corrupted provider call %d at offset %d", call, offset)
            return band

        return faulty


class FaultyGlobalMemory(GlobalMemory):
    """A :class:`GlobalMemory` whose reads pass through a fault injector.

    Writes are never tampered with — data lands intact and is corrupted
    (or not) on the way *out*, like a transient bus/DRAM fault. This keeps
    the executor's write-set idempotence verification grounded in what the
    program actually wrote.
    """

    def __init__(
        self,
        params: MachineParams,
        counters: Optional[AccessCounters] = None,
        *,
        injector: FaultInjector,
    ):
        super().__init__(params, counters)
        self.injector = injector

    def read_hrun(self, name: str, row: int, col: int, length: int) -> np.ndarray:
        return self.injector.filter_read(
            super().read_hrun(name, row, col, length), self.counters
        )

    def read_block(
        self, name: str, row: int, col: int, height: int, width: int
    ) -> np.ndarray:
        return self.injector.filter_read(
            super().read_block(name, row, col, height, width), self.counters
        )

    def read_strip(
        self, name: str, row: int, col: int, height: int, width: int
    ) -> np.ndarray:
        return self.injector.filter_read(
            super().read_strip(name, row, col, height, width), self.counters
        )

    def read_strip_stride(
        self, name: str, row: int, col: int, height: int, width: int
    ) -> np.ndarray:
        return self.injector.filter_read(
            super().read_strip_stride(name, row, col, height, width), self.counters
        )

    def read_drun(self, name: str, row: int, col: int, length: int) -> np.ndarray:
        return self.injector.filter_read(
            super().read_drun(name, row, col, length), self.counters
        )

    def read_vrun(self, name: str, col: int, row: int, length: int) -> np.ndarray:
        return self.injector.filter_read(
            super().read_vrun(name, col, row, length), self.counters
        )

    def read_at(self, name: str, row: int, col: int = 0):
        return self.injector.filter_read_scalar(
            super().read_at(name, row, col), self.counters
        )
