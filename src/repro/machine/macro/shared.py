"""Per-block shared memory with capacity enforcement and barrier reset.

Each block task running on a DMM may allocate shared arrays up to the
DMM's capacity (``4 w^2`` words, Section II). When the task finishes — and
in any case at the next barrier — the asynchronous HMM *resets* all DMMs:
the executor zeroes every shared array and marks it dead, so a program
that (incorrectly) tries to carry shared state across a barrier reads
zeros and, through the guarded accessors, raises
:class:`~repro.errors.BarrierViolation`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ...errors import BarrierViolation, SharedMemoryOverflow
from ..params import MachineParams
from .counters import AccessCounters


class SharedArray:
    """A shared-memory allocation owned by one block task.

    Guarded element access (``load``/``store``) counts shared traffic and
    enforces liveness; ``data`` exposes the backing numpy array for bulk
    per-block computation (the model treats intra-DMM computation as free,
    hidden under global-memory latency — callers should charge bulk traffic
    via :meth:`charge`).
    """

    def __init__(self, shape: Tuple[int, ...], dtype, counters: AccessCounters):
        self._array = np.zeros(shape, dtype=dtype)
        self._counters = counters
        self._alive = True

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._array.shape

    @property
    def words(self) -> int:
        return int(self._array.size)

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def data(self) -> np.ndarray:
        """Backing array for bulk numpy computation within the block."""
        self._check_alive()
        return self._array

    def _check_alive(self) -> None:
        if not self._alive:
            raise BarrierViolation(
                "shared memory was reset at a barrier; stage data through "
                "global memory to reuse it"
            )

    def load(self, index):
        self._check_alive()
        self._counters.shared_reads += 1
        return self._array[index]

    def store(self, index, value) -> None:
        self._check_alive()
        self._counters.shared_writes += 1
        self._array[index] = value

    def fill(self, values: np.ndarray) -> None:
        """Bulk store counted as one shared write per element."""
        self._check_alive()
        values = np.asarray(values)
        self._counters.shared_writes += int(values.size)
        self._array[...] = values

    def read_all(self) -> np.ndarray:
        """Bulk load counted as one shared read per element."""
        self._check_alive()
        self._counters.shared_reads += int(self._array.size)
        return self._array.copy()

    def charge(self, reads: int = 0, writes: int = 0) -> None:
        """Explicitly account shared traffic done through ``data``."""
        self._counters.shared_reads += reads
        self._counters.shared_writes += writes

    def _reset(self) -> None:
        """Zero and kill the allocation (asynchronous-HMM DMM reset)."""
        self._array[...] = 0
        self._alive = False


class SharedAllocator:
    """Allocates shared arrays for one block task, enforcing capacity."""

    def __init__(self, params: MachineParams, counters: AccessCounters):
        self._params = params
        self._counters = counters
        self._allocations: List[SharedArray] = []
        self._used_words = 0

    @property
    def used_words(self) -> int:
        return self._used_words

    @property
    def free_words(self) -> int:
        return self._params.shared_capacity_words - self._used_words

    def alloc(self, shape, dtype=np.float64) -> SharedArray:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        words = 1
        for extent in shape:
            words *= int(extent)
        if words < 0:
            raise SharedMemoryOverflow(f"invalid allocation shape {shape!r}")
        if self._used_words + words > self._params.shared_capacity_words:
            raise SharedMemoryOverflow(
                f"block requested {words} words with {self.free_words} free "
                f"(capacity {self._params.shared_capacity_words}); the HMM "
                "bounds shared memory at 4*w*w words per DMM"
            )
        arr = SharedArray(shape, dtype, self._counters)
        self._allocations.append(arr)
        self._used_words += words
        return arr

    def reset_all(self) -> None:
        for a in self._allocations:
            a._reset()
        self._allocations.clear()
        self._used_words = 0
