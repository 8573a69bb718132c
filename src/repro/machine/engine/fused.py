"""Fused (vectorized) kernel execution: whole kernels as batched numpy.

The access pattern of every SAT kernel on the HMM is *data-oblivious*
(Sections IV-VI of the paper): which words a kernel touches is a pure
function of the shape, never of the matrix contents. The fast replay path
of PR 2 already exploits this for *accounting* (per-kernel traffic tallies
are exact across runs); this module exploits it for *execution*. Instead
of running a kernel's block tasks one Python closure at a time, the task
factory that built the kernel attaches a :class:`FusedKernelSpec`
describing the whole task group declaratively, and the engine's fused
backend executes the group as a handful of batched numpy operations —
stacked gather of every task's block addresses (precomputed index arrays),
one vectorized per-block compute, stacked scatter back. This is the
software-systolic fusion argument for memory-bound GPU kernels applied to
the simulator itself.

Bit-identity contract
---------------------
A spec's :meth:`~FusedKernelSpec.execute` must leave global memory in the
*exact* state the per-task path leaves it in — not approximately: the test
suite asserts ``np.array_equal`` on outputs for every algorithm. The specs
therefore perform the same floating-point operations in the same order as
the tasks they replace:

* cumulative sums run along the same axes (``np.cumsum`` is sequential,
  so per-block and stacked evaluation are elementwise identical);
* reductions run along axes with the same length and memory stride as the
  per-block reduction, so numpy picks the same (pairwise) summation order;
* boundary offsets are added in the task order — top row, left column,
  corner — with the same "skip when absent" masking.

Tasks within one kernel write disjoint address sets (the executor's
seeded shuffle enforces this in tests), so executing a kernel group-by-
group instead of task-by-task cannot change the result.

Counters are not charged here at all: the fused backend runs only under
the engine's fast path, which applies the kernel's memoized
:class:`~repro.machine.macro.counters.AccessCounters` tally wholesale
(see :meth:`~repro.machine.macro.executor.HMMExecutor.run_kernel_fused`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..macro.global_memory import drun_view

__all__ = [
    "FusedKernelSpec",
    "BlockStageSpec",
    "ColumnScanSpec",
    "RowScanStrideSpec",
    "ScatterStageSpec",
    "SingleBlockSatSpec",
    "Step1Spec",
    "Step3Spec",
    "TransposeSpec",
    "TriangleFixSpec",
    "TriangleSumsSpec",
    "attach_fused_spec",
]


class FusedKernelSpec:
    """Base class: a declarative, batchable description of one task group.

    ``num_tasks`` is the number of block tasks the spec stands for; the
    plan compiler only substitutes the spec when the kernel's task list
    contains the *complete* group (partial groups fall back to per-task
    execution, preserving correctness unconditionally).
    """

    #: Duck-typing marker checked by the executor's fused runner (the
    #: executor cannot import this module without an import cycle).
    fused_spec = True
    num_tasks: int = 0

    def execute(self, gm) -> None:  # pragma: no cover - abstract
        """Apply the whole task group's effect to global memory."""
        raise NotImplementedError


def attach_fused_spec(tasks: List, spec: FusedKernelSpec) -> List:
    """Mark every task in ``tasks`` as belonging to ``spec``'s group."""
    spec.num_tasks = len(tasks)
    for task in tasks:
        task._fused_group = spec
    return tasks


def _block_indices(w: int, r0: np.ndarray, c0: np.ndarray):
    """Gather/scatter index arrays for a batch of ``w x w`` blocks.

    Returns ``(row_idx, col_idx)`` with shapes ``(T, w, 1)`` and
    ``(T, 1, w)``; broadcasting them against a 2-D buffer gathers the
    stacked ``(T, w, w)`` block array in one fancy-indexing call.
    """
    offs = np.arange(w, dtype=np.int64)
    return (
        r0[:, None, None] + offs[None, :, None],
        c0[:, None, None] + offs[None, None, :],
    )


class ColumnScanSpec(FusedKernelSpec):
    """All strips of a column scan: one in-place cumsum over the region."""

    def __init__(self, buf: str, row0: int, col0: int, n_rows: int, n_cols: int):
        self.buf = buf
        self.row0, self.col0 = row0, col0
        self.n_rows, self.n_cols = n_rows, n_cols

    def execute(self, gm) -> None:
        arr = gm.array(self.buf)
        region = arr[
            self.row0 : self.row0 + self.n_rows,
            self.col0 : self.col0 + self.n_cols,
        ]
        np.cumsum(region, axis=0, out=region)


class RowScanStrideSpec(FusedKernelSpec):
    """All strips of a stride row scan: one in-place cumsum along rows."""

    def __init__(self, buf: str, n_rows: int, n_cols: int):
        self.buf = buf
        self.n_rows, self.n_cols = n_rows, n_cols

    def execute(self, gm) -> None:
        arr = gm.array(self.buf)
        region = arr[: self.n_rows, : self.n_cols]
        np.cumsum(region, axis=1, out=region)


class TransposeSpec(FusedKernelSpec):
    """All block tasks of an HMM transpose: one whole-buffer transpose."""

    def __init__(self, src: str, dst: str):
        self.src, self.dst = src, dst

    def execute(self, gm) -> None:
        np.copyto(gm.array(self.dst), gm.array(self.src).T)


class SingleBlockSatSpec(FusedKernelSpec):
    """One DMM taking the SAT of a whole (at most ``w x w``) region."""

    def __init__(self, buf: str, side: int):
        self.buf = buf
        self.side = side

    def execute(self, gm) -> None:
        region = gm.array(self.buf)[: self.side, : self.side]
        np.cumsum(region, axis=0, out=region)
        np.cumsum(region, axis=1, out=region)


class ScatterStageSpec(FusedKernelSpec):
    """One 4R1W anti-diagonal stage: Formula (1) over strided views.

    Holds only the stage ``k``, its first row ``i0`` and its ``length``
    (every chunk task of the diagonal, in chunk order). Execution makes
    the tasks' five accesses on four strided views of the whole diagonal
    — the run itself, read and updated in place, and its left, upper and
    corner neighbours — each bounds-checked by its two ends, with no
    index arrays.
    """

    def __init__(self, buf: str, k: int, i0: int, length: int):
        self.buf = buf
        self.k, self.i0, self.length = k, i0, length

    def execute(self, gm) -> None:
        a = gm.array(self.buf)
        i0, length = self.i0, self.length
        j0 = self.k - i0
        u0 = 1 if i0 == 0 else 0  # first element with an upper neighbour
        n_left = min(length, j0)  # elements with a left neighbour
        s = drun_view(a, i0, j0, length, self.buf)  # updated in place
        if n_left > 0:
            s[:n_left] += drun_view(a, i0, j0 - 1, n_left, self.buf)
        if length > u0:
            s[u0:] += drun_view(a, i0 + u0 - 1, j0 - u0, length - u0, self.buf)
        if n_left > u0:
            s[u0:n_left] -= drun_view(
                a, i0 + u0 - 1, j0 - u0 - 1, n_left - u0, self.buf
            )


class Step1Spec(FusedKernelSpec):
    """2R1W Step 1: every block's column sums, row sums, and total.

    The reductions run over stacked contiguous ``(w, w)`` tiles, matching
    the per-task reductions' axis length and stride exactly.
    """

    def __init__(self, buf: str, c_buf: str, rt_buf: str, m_buf: str, m: int, w: int):
        self.buf, self.c_buf, self.rt_buf, self.m_buf = buf, c_buf, rt_buf, m_buf
        self.m, self.w = m, w

    def execute(self, gm) -> None:
        m, w = self.m, self.w
        n = m * w
        a = gm.array(self.buf)
        # (m, m, w, w): tiles[bi, bj] is block (bi, bj), each C-contiguous.
        tiles = np.ascontiguousarray(
            a[:n, :n].reshape(m, w, m, w).transpose(0, 2, 1, 3)
        )
        col_sums = tiles.sum(axis=2)  # (m, m, w): per-block tile.sum(axis=0)
        row_sums = tiles.sum(axis=3)  # (m, m, w): per-block tile.sum(axis=1)
        totals = tiles.reshape(m * m, w * w).sum(axis=1).reshape(m, m)
        gm.array(self.c_buf)[: m - 1, :] = col_sums.reshape(m, n)[: m - 1]
        gm.array(self.rt_buf)[: m - 1, :] = (
            row_sums.transpose(1, 0, 2).reshape(m, n)[: m - 1]
        )
        gm.array(self.m_buf)[: m - 1, : m - 1] = totals[: m - 1, : m - 1]


class Step3Spec(FusedKernelSpec):
    """2R1W Step 3: fold scanned boundaries into every block, SAT, write back."""

    def __init__(self, buf: str, c_buf: str, rt_buf: str, m_buf: str, m: int, w: int):
        self.buf, self.c_buf, self.rt_buf, self.m_buf = buf, c_buf, rt_buf, m_buf
        self.m, self.w = m, w

    def execute(self, gm) -> None:
        m, w = self.m, self.w
        n = m * w
        a = gm.array(self.buf)
        tiles = np.ascontiguousarray(
            a[:n, :n].reshape(m, w, m, w).transpose(0, 2, 1, 3)
        )
        c = gm.array(self.c_buf)
        rt = gm.array(self.rt_buf)
        mm = gm.array(self.m_buf)
        # Offsets in task order: top row, then left column, then corner.
        tiles[1:, :, 0, :] += c[: m - 1].reshape(m - 1, m, w)
        tiles[:, 1:, :, 0] += rt[: m - 1].reshape(m - 1, m, w).transpose(1, 0, 2)
        corner = mm[: m - 1, : m - 1]
        nz = corner != 0  # apply_offsets skips zero corners
        tiles[1:, 1:, 0, 0][nz] += corner[nz]
        np.cumsum(tiles, axis=2, out=tiles)
        np.cumsum(tiles, axis=3, out=tiles)
        a[:n, :n] = tiles.transpose(0, 2, 1, 3).reshape(n, n)


class _CornerPrefixedGather:
    """Precomputed index plan for a batched corner-prefixed aux read.

    Mirrors :func:`~repro.sat.algo_1r1w.read_corner_prefixed` for the
    subset of blocks that have the neighbor at all: ``read`` returns the
    ``(k, w + 1)`` stacked ``[corner, run of w]`` rows (zero corner at the
    matrix edge), and ``idx`` maps those ``k`` rows back to positions in
    the spec's block list.
    """

    def __init__(
        self, aux_rows: np.ndarray, starts: np.ndarray, idx: np.ndarray, w: int
    ):
        self.idx = idx
        self.w = w
        starts = starts[idx]
        self.rows = aux_rows[idx][:, None]
        self.cols = starts[:, None] + np.arange(w, dtype=np.int64)
        wc = np.flatnonzero(starts > 0)  # blocks whose corner word exists
        self.wc = wc
        self.wc_rows = aux_rows[idx][wc]
        self.wc_cols = starts[wc] - 1

    def read(self, aux: np.ndarray) -> np.ndarray:
        out = np.zeros((self.idx.size, self.w + 1))
        out[:, 1:] = aux[self.rows, self.cols]
        if self.wc.size:
            out[self.wc, 0] = aux[self.wc_rows, self.wc_cols]
        return out


class BlockStageSpec(FusedKernelSpec):
    """One 1R1W block anti-diagonal stage, batched over its blocks.

    Gathers every block through precomputed index arrays, reconstructs the
    boundary offsets by pairwise subtraction of the published aux rows,
    folds them in, takes the stacked block SATs, scatters the results, and
    publishes the new boundary rows — all index arrays and edge-case
    subsets resolved at construction (i.e. at plan-compile time).
    """

    def __init__(
        self,
        buf: str,
        w: int,
        blocks: Sequence[Tuple[int, int]],
        block_rows: int,
        block_cols: int,
        aux_bottom: str,
        aux_right: str,
    ):
        self.buf = buf
        self.w = w
        self.aux_bottom, self.aux_right = aux_bottom, aux_right
        bi = np.array([b[0] for b in blocks], dtype=np.int64)
        bj = np.array([b[1] for b in blocks], dtype=np.int64)
        # Kept for the native backend, which lowers the stage from the
        # block list rather than the expanded index arrays below.
        self.bi, self.bj = bi, bj
        self.block_rows, self.block_cols = block_rows, block_cols
        self.num_blocks = bi.size
        r0, c0 = bi * w, bj * w
        self.row_idx, self.col_idx = _block_indices(w, r0, c0)
        ha = np.flatnonzero(bi > 0)
        hl = np.flatnonzero(bj > 0)
        self.above = _CornerPrefixedGather(bi - 1, c0, ha, w)
        self.left = _CornerPrefixedGather(bj - 1, r0, hl, w)
        # Interior diagonals have every block's neighbor present; a basic
        # slice then beats fancy indexing on the += below.
        self.all_above = ha.size == bi.size
        self.all_left = hl.size == bi.size
        # Blocks whose corner comes from the left neighbor (no block above).
        self.hl_only_sub = np.flatnonzero(bi[hl] == 0)
        self.hl_only = hl[self.hl_only_sub]
        offs = np.arange(w, dtype=np.int64)
        pb = np.flatnonzero(bi < block_rows - 1)
        pr = np.flatnonzero(bj < block_cols - 1)
        self.pb = pb
        self.pb_rows, self.pb_cols = bi[pb][:, None], c0[pb][:, None] + offs
        self.pr = pr
        self.pr_rows, self.pr_cols = bj[pr][:, None], r0[pr][:, None] + offs

    def execute(self, gm) -> None:
        w = self.w
        a = gm.array(self.buf)
        aux_b = gm.array(self.aux_bottom)
        aux_r = gm.array(self.aux_right)
        tiles = a[self.row_idx, self.col_idx]  # (T, w, w) stacked gather
        corner = np.zeros(self.num_blocks)
        if self.above.idx.size:
            above = self.above.read(aux_b)
            top = above[:, 1:] - above[:, :-1]  # np.diff without the wrapper
            if self.all_above:
                tiles[:, 0, :] += top
            else:
                tiles[self.above.idx, 0, :] += top
            corner[self.above.idx] = above[:, 0]
        if self.left.idx.size:
            left_t = self.left.read(aux_r)
            left = left_t[:, 1:] - left_t[:, :-1]
            if self.all_left:
                tiles[:, :, 0] += left
            else:
                tiles[self.left.idx, :, 0] += left
            if self.hl_only.size:
                corner[self.hl_only] = left_t[self.hl_only_sub, 0]
        nz = np.flatnonzero(corner)  # apply_offsets skips zero corners
        if nz.size:
            tiles[nz, 0, 0] += corner[nz]
        np.cumsum(tiles, axis=1, out=tiles)
        np.cumsum(tiles, axis=2, out=tiles)
        a[self.row_idx, self.col_idx] = tiles  # stacked scatter
        if self.pb.size:
            aux_b[self.pb_rows, self.pb_cols] = tiles[self.pb, w - 1, :]
        if self.pr.size:
            aux_r[self.pr_rows, self.pr_cols] = tiles[self.pr, :, w - 1]


class TriangleSumsSpec(FusedKernelSpec):
    """kR1W triangle phase 1: per-block column/row sums, batched."""

    def __init__(
        self, buf: str, cs_buf: str, rs_buf: str, w: int, blocks: Sequence[Tuple[int, int]]
    ):
        self.buf, self.cs_buf, self.rs_buf = buf, cs_buf, rs_buf
        self.w = w
        self.bi = np.array([b[0] for b in blocks], dtype=np.int64)
        self.bj = np.array([b[1] for b in blocks], dtype=np.int64)
        self.row_idx, self.col_idx = _block_indices(w, self.bi * w, self.bj * w)

    def execute(self, gm) -> None:
        w = self.w
        tiles = gm.array(self.buf)[self.row_idx, self.col_idx]
        offs = np.arange(w, dtype=np.int64)
        gm.array(self.cs_buf)[
            self.bi[:, None], self.bj[:, None] * w + offs
        ] = tiles.sum(axis=1)
        gm.array(self.rs_buf)[
            self.bj[:, None], self.bi[:, None] * w + offs
        ] = tiles.sum(axis=2)


class TriangleFixSpec(FusedKernelSpec):
    """kR1W triangle phase 4: fold offsets, block SAT, publish boundaries."""

    def __init__(
        self,
        buf: str,
        col_above_buf: str,
        row_left_buf: str,
        g_buf: str,
        aux_bottom: str,
        aux_right: str,
        w: int,
        m: int,
        blocks: Sequence[Tuple[int, int]],
    ):
        self.buf = buf
        self.col_above_buf, self.row_left_buf, self.g_buf = (
            col_above_buf, row_left_buf, g_buf,
        )
        self.aux_bottom, self.aux_right = aux_bottom, aux_right
        self.w, self.m = w, m
        self.bi = np.array([b[0] for b in blocks], dtype=np.int64)
        self.bj = np.array([b[1] for b in blocks], dtype=np.int64)
        self.r0 = self.bi * w
        self.c0 = self.bj * w
        self.row_idx, self.col_idx = _block_indices(w, self.r0, self.c0)
        self.publish_bottom = self.bi < m - 1
        self.publish_right = self.bj < m - 1

    def execute(self, gm) -> None:
        w = self.w
        a = gm.array(self.buf)
        offs = np.arange(w, dtype=np.int64)
        tiles = a[self.row_idx, self.col_idx]
        top = gm.array(self.col_above_buf)[self.bi[:, None], self.c0[:, None] + offs]
        left = gm.array(self.row_left_buf)[self.bj[:, None], self.r0[:, None] + offs]
        corner = gm.array(self.g_buf)[self.bi, self.bj]
        tiles[:, 0, :] += top
        tiles[:, :, 0] += left
        nz = corner != 0
        tiles[nz, 0, 0] += corner[nz]
        np.cumsum(tiles, axis=1, out=tiles)
        np.cumsum(tiles, axis=2, out=tiles)
        a[self.row_idx, self.col_idx] = tiles
        pb, pr = self.publish_bottom, self.publish_right
        if pb.any():
            gm.array(self.aux_bottom)[
                self.bi[pb][:, None], self.c0[pb][:, None] + offs
            ] = tiles[pb, w - 1, :]
        if pr.any():
            gm.array(self.aux_right)[
                self.bj[pr][:, None], self.r0[pr][:, None] + offs
            ] = tiles[pr, :, w - 1]


def build_fused_schedule(tasks: Sequence) -> Tuple:
    """Partition a kernel's task list into fused specs and leftover tasks.

    Consecutive tasks carrying the same :class:`FusedKernelSpec` (by
    identity) collapse into that spec, provided the run covers the spec's
    whole group; anything else stays a per-task entry. The result is the
    kernel's fused execution schedule, computed once per plan and cached
    on the :class:`~repro.machine.engine.plan.KernelPlan`.
    """
    items: List = []
    i = 0
    n = len(tasks)
    while i < n:
        spec: Optional[FusedKernelSpec] = getattr(tasks[i], "_fused_group", None)
        if spec is None:
            items.append(tasks[i])
            i += 1
            continue
        j = i
        while j < n and getattr(tasks[j], "_fused_group", None) is spec:
            j += 1
        if j - i == spec.num_tasks:
            items.append(spec)
        else:  # partial group (defensive): run those tasks unfused
            items.extend(tasks[i:j])
        i = j
    return tuple(items)
