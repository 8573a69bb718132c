"""Counted, numpy-backed global memory for the macro HMM executor.

Global memory holds named 2-D (or 1-D) buffers laid out row-major, exactly
as a CUDA program would place matrices in device memory. Every access goes
through an API that both *moves the data* (so algorithm correctness is
checked for real) and *classifies the traffic*:

* horizontal runs (``read_hrun`` / ``write_hrun``) and blocks
  (``read_block`` / ``write_block``, one horizontal run per block row)
  are coalesced — a warp of ``w`` threads reading ``w`` consecutive words
  in one transaction. The exact transaction count is derived from the
  linear addresses, so misaligned runs are charged the extra address
  group they straddle.
* vertical runs (``read_vrun`` / ``write_vrun``), anti-diagonal runs
  (``read_drun`` / ``write_drun``) and single words (``read_at`` /
  ``write_at``) are stride — each element occupies its own pipeline
  stage, the pattern the paper shows dominating 2R2W's and 4R1W's running
  time. Anti-diagonal neighbours are ``cols - 1`` words apart, so a
  diagonal run is one strided view of the row-major buffer.

Every run is monotone in both coordinates, so each access is
bounds-checked in O(1) by its two ends and moves its data as one slice —
no per-element index arrays.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import AccessError, ShapeError
from ..params import MachineParams
from .counters import AccessCounters


class WriteLog:
    """Records every global-memory write issued while it is attached.

    Used by the executor's retry path: each block-task attempt runs under
    its own log, and a replayed attempt is checked against the failed
    attempt's log — same addresses, same values — before the replay is
    accepted as idempotent (see
    :class:`~repro.errors.IdempotenceViolation`).

    Addresses are the flat linear addresses of
    :meth:`GlobalMemory.linear_address`, so a single log covers every
    buffer without name bookkeeping. Writes are accumulated as chunked
    address/value arrays (appending a run is one ``np.arange`` plus two
    list appends, never a per-word Python loop) and consolidated to a
    last-write-wins sorted view only when the log is actually compared.
    """

    __slots__ = ("_address_chunks", "_value_chunks", "writes_recorded")

    def __init__(self):
        self._address_chunks: list = []
        self._value_chunks: list = []
        self.writes_recorded: int = 0

    def record(self, start_address: int, values: np.ndarray) -> None:
        """Record a contiguous run of written words starting at ``start``."""
        flat = np.array(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        self._address_chunks.append(
            np.arange(start_address, start_address + flat.size, dtype=np.int64)
        )
        self._value_chunks.append(flat)
        self.writes_recorded += int(flat.size)

    def record_scatter(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Record scattered single-word writes."""
        flat_a = np.array(addresses, dtype=np.int64).ravel()
        flat_v = np.array(values, dtype=np.float64).ravel()
        if flat_a.size == 0:
            return
        self._address_chunks.append(flat_a)
        self._value_chunks.append(flat_v)
        self.writes_recorded += int(flat_a.size)

    def record_block(
        self, start_address: int, row_stride: int, values: np.ndarray
    ) -> None:
        """Record a 2-D block of writes: row ``r`` starts at
        ``start_address + r * row_stride``. One numpy address computation
        replaces a per-row Python loop."""
        vals = np.array(values, dtype=np.float64)
        if vals.size == 0:
            return
        h, width = vals.shape
        addresses = (
            start_address
            + np.arange(h, dtype=np.int64)[:, None] * row_stride
            + np.arange(width, dtype=np.int64)[None, :]
        )
        self._address_chunks.append(addresses.ravel())
        self._value_chunks.append(vals.ravel())
        self.writes_recorded += int(vals.size)

    def merge_from(self, other: "WriteLog") -> None:
        """Append another log's writes after this log's own (in write order)."""
        self._address_chunks.extend(other._address_chunks)
        self._value_chunks.extend(other._value_chunks)
        self.writes_recorded += other.writes_recorded

    def consolidated(self) -> Tuple[np.ndarray, np.ndarray]:
        """Last-write-wins view: ``(sorted unique addresses, final values)``."""
        if not self._address_chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        addresses = np.concatenate(self._address_chunks)
        values = np.concatenate(self._value_chunks)
        # Stable sort keeps write order within each address, so the last
        # element of every equal-address run is the final value written.
        order = np.argsort(addresses, kind="stable")
        addresses = addresses[order]
        values = values[order]
        is_last = np.empty(addresses.size, dtype=bool)
        is_last[-1] = True
        np.not_equal(addresses[:-1], addresses[1:], out=is_last[:-1])
        return addresses[is_last], values[is_last]

    @property
    def values(self) -> Dict[int, float]:
        """Address -> final value dict (kept for inspection/debugging)."""
        addresses, values = self.consolidated()
        return dict(zip(addresses.tolist(), values.tolist()))


def transactions_for_run(start_address: int, length: int, width: int) -> int:
    """Address groups touched by a contiguous run of ``length`` words.

    A run beginning at ``start_address`` spans groups
    ``start // w .. (start + length - 1) // w``; each group is one
    coalesced transaction (one pipeline stage).
    """
    if length <= 0:
        return 0
    return (start_address + length - 1) // width - start_address // width + 1


def drun_view(
    arr: np.ndarray, row: int, col: int, length: int, name: str = ""
) -> np.ndarray:
    """Writable view of ``(row + t, col - t)`` for ``t < length`` in ``arr``.

    ``arr`` is a row-major 2-D buffer, so the run is one strided slice
    with step ``cols - 1``. Both coordinates are monotone along the run,
    so its two ends bound every element: the check is O(1) whatever the
    length, and raises :class:`~repro.errors.AccessError`.
    """
    if arr.ndim != 2:
        raise AccessError(f"drun requires a 2-D buffer, {name!r} is {arr.ndim}-D")
    rows, cols = arr.shape
    if length <= 0:
        if length < 0:
            raise AccessError(f"drun length {length} is negative")
        return arr.reshape(-1)[:0]
    if row < 0 or row + length > rows or col >= cols or col - length + 1 < 0:
        raise AccessError(
            f"drun from ({row}, {col}) of length {length} outside buffer "
            f"{name!r} of shape {arr.shape}"
        )
    step = cols - 1 or 1  # one column: a run holds at most one word
    start = row * cols + col
    return arr.reshape(-1)[start : start + (length - 1) * step + 1 : step]


class GlobalMemory:
    """Named row-major buffers with coalesced/stride access accounting."""

    def __init__(self, params: MachineParams, counters: Optional[AccessCounters] = None):
        self.params = params
        self.counters = counters if counters is not None else AccessCounters()
        self._buffers: Dict[str, np.ndarray] = {}
        self._base_addresses: Dict[str, int] = {}
        self._next_base = 0
        self._write_log: Optional[WriteLog] = None
        self._counting = True

    @property
    def counting(self) -> bool:
        """Whether accesses are being charged to the counters.

        The execution engine's fast path disables counting while replaying
        a plan whose per-kernel traffic totals were already measured, then
        applies those totals wholesale — the data still moves, only the
        per-access accounting arithmetic is skipped.
        """
        return self._counting

    @counting.setter
    def counting(self, enabled: bool) -> None:
        self._counting = bool(enabled)

    # --- write-set tracking -------------------------------------------------

    def begin_write_log(self) -> WriteLog:
        """Attach (and return) a fresh :class:`WriteLog` capturing all writes."""
        self._write_log = WriteLog()
        return self._write_log

    def end_write_log(self) -> Optional[WriteLog]:
        """Detach and return the active write log (``None`` if none)."""
        log, self._write_log = self._write_log, None
        return log

    def _log_run_write(self, name: str, row: int, col: int, values) -> None:
        if self._write_log is not None and np.asarray(values).size:
            self._write_log.record(self.linear_address(name, row, col), values)

    def _log_scatter_write(self, addresses, values) -> None:
        if self._write_log is not None:
            self._write_log.record_scatter(addresses, values)

    def _log_block_write(self, name: str, row: int, col: int, values: np.ndarray) -> None:
        """Log a 2-D block write (one row-strided record, no Python loop)."""
        if self._write_log is not None and np.asarray(values).size:
            arr = self._require(name)
            self._write_log.record_block(
                self.linear_address(name, row, col), arr.shape[1], values
            )

    # --- allocation --------------------------------------------------------

    def alloc(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Allocate a zeroed buffer; returns the backing array for test use."""
        return self.adopt(name, np.zeros(shape, dtype=dtype))

    def install(self, name: str, array: np.ndarray) -> np.ndarray:
        """Place an existing array into global memory under ``name``.

        The array is copied so the caller's data cannot alias device state.
        """
        # Defensive copy, keeps dtype.
        return self.adopt(name, np.array(array, order="C"))

    def adopt(self, name: str, array: np.ndarray) -> np.ndarray:
        """Place ``array`` itself into global memory under ``name``, uncopied.

        The caller hands the array over: it must be a C-contiguous array
        nothing else writes. Row-major like device memory, so a diagonal
        run is one strided view of the flat buffer.
        """
        if name in self._buffers:
            raise AccessError(f"buffer {name!r} already allocated")
        if array.ndim not in (1, 2):
            raise ShapeError(f"buffers must be 1-D or 2-D, got ndim={array.ndim}")
        if not array.flags.c_contiguous:
            raise ShapeError(f"buffer {name!r} must be C-contiguous")
        self._buffers[name] = array
        # Buffers are padded to a group boundary so each row-major buffer
        # starts aligned, as cudaMalloc guarantees.
        self._base_addresses[name] = self._next_base
        w = self.params.width
        self._next_base += ((array.size + w - 1) // w) * w
        return array

    def free(self, name: str) -> None:
        self._require(name)
        del self._buffers[name]
        del self._base_addresses[name]

    def has(self, name: str) -> bool:
        return name in self._buffers

    def _require(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise AccessError(f"no buffer named {name!r}") from None

    def shape(self, name: str) -> Tuple[int, ...]:
        return self._require(name).shape

    def dtype(self, name: str) -> np.dtype:
        """Element dtype of a buffer (metadata only — never reads contents)."""
        return self._require(name).dtype

    def array(self, name: str) -> np.ndarray:
        """Uncounted view of a buffer — host-side inspection only.

        Algorithms must not use this; tests and result extraction do.
        """
        return self._require(name)

    # --- address math -------------------------------------------------------

    def linear_address(self, name: str, row: int, col: int = 0) -> int:
        arr = self._require(name)
        if arr.ndim == 1:
            # 1-D buffers accept the offset in either coordinate (hrun
            # passes it as `col` with row 0).
            index = row + col
        else:
            index = row * arr.shape[1] + col
        if not 0 <= index < arr.size:
            raise AccessError(f"({row}, {col}) outside buffer {name!r} of shape {arr.shape}")
        return self._base_addresses[name] + index

    # --- coalesced (horizontal-run) access -----------------------------------

    def _hrun_slice(self, name: str, row: int, col: int, length: int):
        arr = self._require(name)
        if arr.ndim == 1:
            if row != 0:
                raise AccessError("1-D buffer hrun must use row=0")
            if col < 0 or col + length > arr.shape[0]:
                raise AccessError(f"hrun [{col}:{col + length}) outside 1-D buffer {name!r}")
            return arr, (slice(col, col + length),)
        if not (0 <= row < arr.shape[0]) or col < 0 or col + length > arr.shape[1]:
            raise AccessError(
                f"hrun row={row} cols[{col}:{col + length}) outside buffer "
                f"{name!r} of shape {arr.shape}"
            )
        return arr, (row, slice(col, col + length))

    def _charge_coalesced(self, name: str, row: int, col: int, length: int) -> None:
        if not self._counting:
            return
        start = self.linear_address(name, row, col) if length else 0
        self.counters.coalesced_elements += length
        self.counters.coalesced_transactions += transactions_for_run(
            start, length, self.params.width
        )

    def read_hrun(self, name: str, row: int, col: int, length: int) -> np.ndarray:
        """Coalesced read of ``length`` consecutive words of one row."""
        arr, idx = self._hrun_slice(name, row, col, length)
        self._charge_coalesced(name, row, col, length)
        return arr[idx].copy()

    def write_hrun(self, name: str, row: int, col: int, values: np.ndarray) -> None:
        """Coalesced write of consecutive words into one row."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ShapeError("write_hrun takes a 1-D value array")
        arr, idx = self._hrun_slice(name, row, col, values.shape[0])
        self._charge_coalesced(name, row, col, values.shape[0])
        self._log_run_write(name, row, col, values)
        arr[idx] = values

    def read_block(self, name: str, row: int, col: int, height: int, width: int) -> np.ndarray:
        """Coalesced read of a ``height x width`` block (one hrun per row).

        Equivalent to ``height`` :meth:`read_hrun` calls — identical
        accounting — but executed as a single 2-D slice.
        """
        if height == 0:
            return np.empty((0, width))
        if self._require(name).ndim == 1:
            # A 1-D buffer is one row: only a one-row block at row 0 fits.
            if height != 1:
                raise AccessError(f"1-D buffer {name!r} has one row, not {height}")
            arr, idx = self._hrun_slice(name, row, col, width)
            self._charge_coalesced(name, row, col, width)
            return arr[idx][None, :].copy()
        arr = self._strip_slice(name, row, col, height, width)
        self._charge_strip_coalesced(name, row, col, height, width)
        return arr[row : row + height, col : col + width].copy()

    def write_block(self, name: str, row: int, col: int, values: np.ndarray) -> None:
        """Coalesced write of a 2-D block (one hrun per row, vectorized)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ShapeError("write_block takes a 2-D value array")
        if values.shape[0] == 0:
            return
        if self._require(name).ndim == 1:
            for r in range(values.shape[0]):
                self.write_hrun(name, row + r, col, values[r])
            return
        h, wdt = values.shape
        arr = self._strip_slice(name, row, col, h, wdt)
        self._charge_strip_coalesced(name, row, col, h, wdt)
        self._log_block_write(name, row, col, values)
        arr[row : row + h, col : col + wdt] = values

    # --- vectorized 2-D strips (coalesced) ------------------------------------

    def _strip_slice(self, name: str, row: int, col: int, height: int, width: int):
        arr = self._require(name)
        if arr.ndim != 2:
            raise AccessError("strip access requires a 2-D buffer")
        if (
            row < 0
            or col < 0
            or row + height > arr.shape[0]
            or col + width > arr.shape[1]
        ):
            raise AccessError(
                f"strip rows[{row}:{row + height}) cols[{col}:{col + width}) "
                f"outside buffer {name!r} of shape {arr.shape}"
            )
        return arr

    def _charge_strip_coalesced(
        self, name: str, row: int, col: int, height: int, width: int
    ) -> None:
        if height <= 0 or width <= 0 or not self._counting:
            return
        arr = self._require(name)
        base = self._base_addresses[name] + col
        ncols = arr.shape[1]
        w = self.params.width
        self.counters.coalesced_elements += height * width
        if ncols % w == 0:
            # Every row of the strip has identical alignment.
            start = base + row * ncols
            self.counters.coalesced_transactions += height * transactions_for_run(
                start, width, w
            )
        else:
            # Rows straddle groups differently when ncols is not a
            # multiple of w; compute every row's transaction count in one
            # vectorized expression (same formula as transactions_for_run).
            starts = base + np.arange(row, row + height, dtype=np.int64) * ncols
            txn = (starts + width - 1) // w - starts // w + 1
            self.counters.coalesced_transactions += int(txn.sum())

    def read_strip(self, name: str, row: int, col: int, height: int, width: int) -> np.ndarray:
        """Coalesced read of a 2-D strip (one horizontal run per row).

        Equivalent to ``height`` calls of :meth:`read_hrun` but vectorized;
        the accounting is identical. Intended for streaming scans where the
        data is register-resident per thread rather than staged in shared
        memory (so no shared-capacity charge applies).
        """
        arr = self._strip_slice(name, row, col, height, width)
        self._charge_strip_coalesced(name, row, col, height, width)
        return arr[row : row + height, col : col + width].copy()

    def write_strip(self, name: str, row: int, col: int, values: np.ndarray) -> None:
        """Coalesced write of a 2-D strip (one horizontal run per row)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ShapeError("write_strip takes a 2-D value array")
        h, wdt = values.shape
        arr = self._strip_slice(name, row, col, h, wdt)
        self._charge_strip_coalesced(name, row, col, h, wdt)
        self._log_block_write(name, row, col, values)
        arr[row : row + h, col : col + wdt] = values

    def read_strip_stride(
        self, name: str, row: int, col: int, height: int, width: int
    ) -> np.ndarray:
        """Stride read of a 2-D strip: warps sweep *columns* of the strip.

        Models ``width`` threads each walking a row while the warp advances
        down column after column (the 2R2W row-scan pattern): every element
        access lands in its own address group, so each is one stride op.
        """
        arr = self._strip_slice(name, row, col, height, width)
        if self._counting:
            self.counters.stride_ops += height * width
        return arr[row : row + height, col : col + width].copy()

    def write_strip_stride(self, name: str, row: int, col: int, values: np.ndarray) -> None:
        """Stride write of a 2-D strip (see :meth:`read_strip_stride`)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ShapeError("write_strip_stride takes a 2-D value array")
        h, wdt = values.shape
        arr = self._strip_slice(name, row, col, h, wdt)
        if self._counting:
            self.counters.stride_ops += h * wdt
        self._log_block_write(name, row, col, values)
        arr[row : row + h, col : col + wdt] = values

    # --- stride access: anti-diagonal runs, vertical runs, single words -------

    def read_drun(self, name: str, row: int, col: int, length: int) -> np.ndarray:
        """Stride read of ``length`` words down-left along an anti-diagonal."""
        view = drun_view(self._require(name), row, col, length, name)
        if self._counting:
            self.counters.stride_ops += length
        return view.copy()

    def write_drun(self, name: str, row: int, col: int, values: np.ndarray) -> None:
        """Stride write of words down-left along an anti-diagonal."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ShapeError("write_drun takes a 1-D value array")
        length = values.shape[0]
        arr = self._require(name)
        view = drun_view(arr, row, col, length, name)
        if self._counting:
            self.counters.stride_ops += length
        if self._write_log is not None and length:
            start = self.linear_address(name, row, col)
            steps = np.arange(length, dtype=np.int64) * (arr.shape[1] - 1)
            self._log_scatter_write(start + steps, values)
        view[...] = values

    def _vrun_check(self, name: str, col: int, row: int, length: int) -> np.ndarray:
        arr = self._require(name)
        if arr.ndim != 2:
            raise AccessError("vrun requires a 2-D buffer")
        if not (0 <= col < arr.shape[1]) or row < 0 or row + length > arr.shape[0]:
            raise AccessError(
                f"vrun col={col} rows[{row}:{row + length}) outside buffer "
                f"{name!r} of shape {arr.shape}"
            )
        return arr

    def read_vrun(self, name: str, col: int, row: int, length: int) -> np.ndarray:
        """Stride read of ``length`` words down one column."""
        arr = self._vrun_check(name, col, row, length)
        if self._counting:
            self.counters.stride_ops += length
        return arr[row : row + length, col].copy()

    def write_vrun(self, name: str, col: int, row: int, values: np.ndarray) -> None:
        """Stride write of words down one column."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ShapeError("write_vrun takes a 1-D value array")
        arr = self._vrun_check(name, col, row, values.shape[0])
        if self._counting:
            self.counters.stride_ops += values.shape[0]
        if self._write_log is not None and values.shape[0]:
            base = self._base_addresses[name] + col
            addresses = base + (row + np.arange(values.shape[0])) * arr.shape[1]
            self._log_scatter_write(addresses, values)
        arr[row : row + values.shape[0], col] = values

    def read_at(self, name: str, row: int, col: int = 0):
        """Stride read of a single word."""
        self.linear_address(name, row, col)  # bounds check
        if self._counting:
            self.counters.stride_ops += 1
        arr = self._require(name)
        return arr[row] if arr.ndim == 1 else arr[row, col]

    def write_at(self, name: str, row: int, col: int, value) -> None:
        """Stride write of a single word."""
        address = self.linear_address(name, row, col)
        if self._counting:
            self.counters.stride_ops += 1
        if self._write_log is not None:
            self._write_log.record(address, np.asarray([value]))
        arr = self._require(name)
        if arr.ndim == 1:
            arr[row] = value
        else:
            arr[row, col] = value
