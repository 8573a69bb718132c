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
stacked gather of every task's block through the buffer's tile view,
indexed by block coordinate, one vectorized per-block compute, stacked
scatter back. This is the software-systolic fusion argument for
memory-bound GPU kernels applied to the simulator itself.

Bit-identity contract
---------------------
A spec's :meth:`~FusedKernelSpec.execute` must leave global memory in the
*exact* state the per-task path leaves it in — not approximately: the test
suite asserts ``np.array_equal`` on outputs for every algorithm. The specs
therefore perform the same floating-point operations in the same order as
the tasks they replace:

* cumulative sums run along the same axes (``np.cumsum`` is sequential,
  so per-block and stacked evaluation are elementwise identical); a prefix
  sum down wide rows runs as a row sweep (:func:`prefix_sum_rows`), which
  makes cumsum's additions in cumsum's order;
* whole-block gathers (``tiles[bi, bj]`` on the tile view) return the
  same C-contiguous ``(T, w, w)`` stack the per-task reads build, so
  reductions run along axes with the same length and memory stride as the
  per-block reduction, and numpy picks the same (pairwise) summation order;
* boundary offsets are added in the task order — top row, left column,
  corner — with the same "skip when absent" masking;
* specs that work in place on the tile view (2R1W Step 3) make only
  elementwise adds and prefix sums along one block's rows or columns, so
  no block needs a private copy.

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
    "prefix_sum_rows",
    "tile_view",
]

#: Row width (in elements) from which :func:`prefix_sum_rows` sweeps whole
#: rows instead of calling ``np.cumsum(axis=-2)``. numpy's cumsum down a
#: C-order array slows as rows widen, while the sweep pays one call per
#: row. On a 2-vCPU x86_64 host (numpy 2.4), 1024 rows of 256 columns took
#: 1.32 ms by cumsum and 2.07 ms by sweep; 320 columns 1.18 and 1.34 ms;
#: 384 columns 1.41 and 1.23 ms; 512 columns 3.56 and 1.67 ms; 1024
#: columns 7.9 and 1.6 ms. Narrow regions keep cumsum: 4096 x 32 took
#: 0.48 ms by cumsum and 8.6 ms by sweep.
ROW_SWEEP_MIN_COLS = 384


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


def prefix_sum_rows(x: np.ndarray, out: Optional[np.ndarray] = None) -> None:
    """``np.cumsum(x, axis=-2, out=out)``, bit for bit; in place without ``out``.

    ``out`` has ``x``'s shape and dtype. From :data:`ROW_SWEEP_MIN_COLS`
    columns on, the prefix sum runs as a sweep
    ``out[..., r, :] = out[..., r - 1, :] + x[..., r, :]`` after copying
    row 0 — the same additions in the same order as cumsum's sequential
    accumulation.
    """
    if out is None:
        out = x
    if x.shape[-1] < ROW_SWEEP_MIN_COLS:
        np.cumsum(x, axis=-2, out=out)
        return
    if out is not x:
        out[..., 0, :] = x[..., 0, :]
    for r in range(1, x.shape[-2]):
        np.add(out[..., r - 1, :], x[..., r, :], out=out[..., r, :])


def tile_view(a: np.ndarray, w: int) -> np.ndarray:
    """View of a 2-D buffer as its ``w x w`` blocks: ``[bi, bj]`` is block ``(bi, bj)``.

    Splitting axes never copies, so writes through the view reach ``a``.
    """
    rows, cols = a.shape
    return a.reshape(rows // w, w, cols // w, w).transpose(0, 2, 1, 3)


def _runs(a: np.ndarray, w: int) -> np.ndarray:
    """View of a 2-D buffer's rows as ``w``-word runs: ``[r, k]`` is
    ``a[r, k*w:(k+1)*w]``."""
    return a.reshape(a.shape[0], a.shape[1] // w, w)


class ColumnScanSpec(FusedKernelSpec):
    """All strips of a column scan: one in-place prefix sum over the region."""

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
        prefix_sum_rows(region)


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
        tiles = np.ascontiguousarray(tile_view(a[:n, :n], w))
        col_sums = tiles.sum(axis=2)  # (m, m, w): per-block tile.sum(axis=0)
        row_sums = tiles.sum(axis=3)  # (m, m, w): per-block tile.sum(axis=1)
        totals = tiles.reshape(m * m, w * w).sum(axis=1).reshape(m, m)
        gm.array(self.c_buf)[: m - 1, :] = col_sums.reshape(m, n)[: m - 1]
        gm.array(self.rt_buf)[: m - 1, :] = (
            row_sums.transpose(1, 0, 2).reshape(m, n)[: m - 1]
        )
        gm.array(self.m_buf)[: m - 1, : m - 1] = totals[: m - 1, : m - 1]


class Step3Spec(FusedKernelSpec):
    """2R1W Step 3: fold scanned boundaries into every block and take its SAT.

    Works in place on the tile view of the buffer; every operation is
    elementwise or runs along one block's rows or columns, so no block
    needs a private copy.
    """

    def __init__(self, buf: str, c_buf: str, rt_buf: str, m_buf: str, m: int, w: int):
        self.buf, self.c_buf, self.rt_buf, self.m_buf = buf, c_buf, rt_buf, m_buf
        self.m, self.w = m, w

    def execute(self, gm) -> None:
        m, w = self.m, self.w
        n = m * w
        a = gm.array(self.buf)[:n, :n]
        tiles = tile_view(a, w)
        c = gm.array(self.c_buf)
        rt = gm.array(self.rt_buf)
        mm = gm.array(self.m_buf)
        # Offsets in task order: top row, then left column, then corner.
        tiles[1:, :, 0, :] += c[: m - 1].reshape(m - 1, m, w)
        tiles[:, 1:, :, 0] += rt[: m - 1].reshape(m - 1, m, w).transpose(1, 0, 2)
        corner = mm[: m - 1, : m - 1]
        nz = corner != 0  # apply_offsets skips zero corners
        tiles[1:, 1:, 0, 0][nz] += corner[nz]
        prefix_sum_rows(a.reshape(m, w, n))  # down the rows of every block
        np.cumsum(tiles, axis=3, out=tiles)


class _CornerPrefixedGather:
    """Batched corner-prefixed aux read, indexed by block coordinate.

    Mirrors :func:`~repro.sat.algo_1r1w.read_corner_prefixed` for the
    subset of blocks that have the neighbor at all: ``read`` returns the
    ``(k, w + 1)`` stacked ``[corner, run of w]`` rows (zero corner at the
    matrix edge), and ``idx`` maps those ``k`` rows back to positions in
    the spec's block list. ``aux_rows`` and ``run_idx`` give each block's
    aux row and the index of its ``w``-word run along that row.
    """

    def __init__(
        self, aux_rows: np.ndarray, run_idx: np.ndarray, idx: np.ndarray, w: int
    ):
        self.idx = idx
        self.w = w
        self.rows = aux_rows[idx]
        self.run_idx = run_idx[idx]
        wc = np.flatnonzero(self.run_idx > 0)  # blocks whose corner word exists
        self.wc = wc
        self.wc_rows = self.rows[wc]
        self.wc_run_idx = self.run_idx[wc] - 1

    def read(self, aux: np.ndarray) -> np.ndarray:
        w = self.w
        view = _runs(aux, w)
        out = np.zeros((self.idx.size, w + 1))
        out[:, 1:] = view[self.rows, self.run_idx]
        if self.wc.size:
            out[self.wc, 0] = view[self.wc_rows, self.wc_run_idx, w - 1]
        return out


class BlockStageSpec(FusedKernelSpec):
    """One 1R1W block anti-diagonal stage, batched over its blocks.

    Gathers every block from the buffer's tile view by block coordinate,
    reconstructs the boundary offsets by pairwise subtraction of the
    published aux rows, folds them in, takes the stacked block SATs,
    scatters the results, and publishes the new boundary rows — all block
    coordinates and edge-case subsets resolved at construction (i.e. at
    plan-compile time).
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
        self.bi, self.bj = bi, bj
        self.block_rows, self.block_cols = block_rows, block_cols
        self.num_blocks = bi.size
        ha = np.flatnonzero(bi > 0)
        hl = np.flatnonzero(bj > 0)
        self.above = _CornerPrefixedGather(bi - 1, bj, ha, w)
        self.left = _CornerPrefixedGather(bj - 1, bi, hl, w)
        # Interior diagonals have every block's neighbor present; a basic
        # slice then beats fancy indexing on the += below.
        self.all_above = ha.size == bi.size
        self.all_left = hl.size == bi.size
        # Blocks whose corner comes from the left neighbor (no block above).
        self.hl_only_sub = np.flatnonzero(bi[hl] == 0)
        self.hl_only = hl[self.hl_only_sub]
        # Blocks publishing a bottom row / right column, and where to.
        self.pb = np.flatnonzero(bi < block_rows - 1)
        self.pb_at = (bi[self.pb], bj[self.pb])
        self.pr = np.flatnonzero(bj < block_cols - 1)
        self.pr_at = (bj[self.pr], bi[self.pr])

    def execute(self, gm) -> None:
        w = self.w
        grid = tile_view(gm.array(self.buf), w)
        aux_b = gm.array(self.aux_bottom)
        aux_r = gm.array(self.aux_right)
        bi, bj = self.bi, self.bj
        tiles = grid[bi, bj]  # (T, w, w) stacked gather
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
        grid[bi, bj] = tiles  # stacked scatter
        if self.pb.size:
            _runs(aux_b, w)[self.pb_at] = tiles[self.pb, w - 1, :]
        if self.pr.size:
            _runs(aux_r, w)[self.pr_at] = tiles[self.pr, :, w - 1]


class TriangleSumsSpec(FusedKernelSpec):
    """kR1W triangle phase 1: per-block column/row sums, batched."""

    def __init__(
        self, buf: str, cs_buf: str, rs_buf: str, w: int, blocks: Sequence[Tuple[int, int]]
    ):
        self.buf, self.cs_buf, self.rs_buf = buf, cs_buf, rs_buf
        self.w = w
        self.bi = np.array([b[0] for b in blocks], dtype=np.int64)
        self.bj = np.array([b[1] for b in blocks], dtype=np.int64)

    def execute(self, gm) -> None:
        w, bi, bj = self.w, self.bi, self.bj
        tiles = tile_view(gm.array(self.buf), w)[bi, bj]
        _runs(gm.array(self.cs_buf), w)[bi, bj] = tiles.sum(axis=1)
        _runs(gm.array(self.rs_buf), w)[bj, bi] = tiles.sum(axis=2)


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
        # Blocks publishing a bottom row / right column, and where to.
        self.pb = np.flatnonzero(self.bi < m - 1)
        self.pb_at = (self.bi[self.pb], self.bj[self.pb])
        self.pr = np.flatnonzero(self.bj < m - 1)
        self.pr_at = (self.bj[self.pr], self.bi[self.pr])

    def execute(self, gm) -> None:
        w, bi, bj = self.w, self.bi, self.bj
        grid = tile_view(gm.array(self.buf), w)
        tiles = grid[bi, bj]
        top = _runs(gm.array(self.col_above_buf), w)[bi, bj]
        left = _runs(gm.array(self.row_left_buf), w)[bj, bi]
        corner = gm.array(self.g_buf)[bi, bj]
        tiles[:, 0, :] += top
        tiles[:, :, 0] += left
        nz = corner != 0
        tiles[nz, 0, 0] += corner[nz]
        np.cumsum(tiles, axis=1, out=tiles)
        np.cumsum(tiles, axis=2, out=tiles)
        grid[bi, bj] = tiles
        if self.pb.size:
            _runs(gm.array(self.aux_bottom), w)[self.pb_at] = tiles[self.pb, w - 1, :]
        if self.pr.size:
            _runs(gm.array(self.aux_right), w)[self.pr_at] = tiles[self.pr, :, w - 1]


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
