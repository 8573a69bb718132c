"""Numba lowering of the fused kernel specs.

The primary JIT target of :mod:`repro.machine.engine.native`: each fused
megakernel as an ``@njit(parallel=True, cache=True)`` function whose loop
nests mirror, operation for operation, the generated C of
:func:`~repro.machine.engine.native.generate_c_source` — single pass per
block (stage into a contiguous tile, fold offsets, block SAT, scatter),
``prange`` across the independent blocks, and numpy's exact reduction
orders (:func:`pairwise` for contiguous-last-axis sums, sequential row
accumulation elsewhere) so outputs stay bit-identical to every other
execution path.

This module must import cleanly on hosts without numba: the import
happens inside :func:`build`, and the caller treats any failure —
missing package, unsupported version, compilation error — as "toolchain
unavailable" and falls through to the cffi/C path or the numpy fused
path. ``cache=True`` persists compiled kernels to numba's on-disk cache
(``NUMBA_CACHE_DIR``), which CI restores between runs so only the first
run pays cold compiles; :func:`build` warms every kernel on miniature
inputs inside the caller's ``native_compile`` obs span, so compile cost
is visible in one place instead of smeared over first uses.
"""

from __future__ import annotations

__all__ = ["build"]


def build():
    """Compile the kernel family and return the backend namespace.

    Raises whatever numba raises when the toolchain is unusable; the
    caller degrades gracefully.
    """
    import numpy as np
    from numba import njit, prange, set_num_threads

    @njit(cache=True)
    def pairwise(a, lo, n):
        # numpy's pairwise summation: 8-accumulator base case up to
        # blocksize 128, splits rounded down to multiples of 8.
        if n < 8:
            res = 0.0
            for i in range(n):
                res += a[lo + i]
            return res
        elif n <= 128:
            r0 = a[lo]
            r1 = a[lo + 1]
            r2 = a[lo + 2]
            r3 = a[lo + 3]
            r4 = a[lo + 4]
            r5 = a[lo + 5]
            r6 = a[lo + 6]
            r7 = a[lo + 7]
            i = 8
            while i < n - (n % 8):
                r0 += a[lo + i]
                r1 += a[lo + i + 1]
                r2 += a[lo + i + 2]
                r3 += a[lo + i + 3]
                r4 += a[lo + i + 4]
                r5 += a[lo + i + 5]
                r6 += a[lo + i + 6]
                r7 += a[lo + i + 7]
                i += 8
            res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            while i < n:
                res += a[lo + i]
                i += 1
            return res
        else:
            n2 = n // 2
            n2 -= n2 % 8
            return pairwise(a, lo, n2) + pairwise(a, lo + n2, n - n2)

    @njit(cache=True)
    def tile_sat(tile, w):
        # In-place SAT of one contiguous tile: cumsum down rows, then
        # along them — np.cumsum's sequential adds.
        for r in range(1, w):
            for x in range(w):
                tile[r, x] += tile[r - 1, x]
        for r in range(w):
            for x in range(1, w):
                tile[r, x] += tile[r, x - 1]

    @njit(parallel=True, cache=True)
    def column_scan(a, row0, col0, nr, nc):
        if nr <= 1 or nc <= 0:
            return
        nchunks = (nc + 255) // 256
        for chunk in prange(nchunks):
            clo = chunk * 256
            chi = min(clo + 256, nc)
            for r in range(1, nr):
                for c in range(clo, chi):
                    a[row0 + r, col0 + c] += a[row0 + r - 1, col0 + c]

    @njit(parallel=True, cache=True)
    def row_scan(a, nr, nc):
        for r in prange(nr):
            for c in range(1, nc):
                a[r, c] += a[r, c - 1]

    @njit(parallel=True, cache=True)
    def transpose(dst, src):
        rows, cols = src.shape
        for rb in prange((rows + 63) // 64):
            r0 = rb * 64
            r1 = min(r0 + 64, rows)
            for cb in range((cols + 63) // 64):
                c0 = cb * 64
                c1 = min(c0 + 64, cols)
                for r in range(r0, r1):
                    for c in range(c0, c1):
                        dst[c, r] = src[r, c]

    @njit(cache=True)
    def single_block_sat(a, side):
        for r in range(1, side):
            for c in range(side):
                a[r, c] += a[r - 1, c]
        for r in range(side):
            for c in range(1, side):
                a[r, c] += a[r, c - 1]

    @njit(parallel=True, cache=True)
    def scatter_stage(a, iarr, jarr):
        for k in prange(iarr.size):
            i = iarr[k]
            j = jarr[k]
            s = a[i, j]
            if j > 0:
                s += a[i, j - 1]
            if i > 0:
                s += a[i - 1, j]
            if i > 0 and j > 0:
                s -= a[i - 1, j - 1]
            a[i, j] = s

    @njit(parallel=True, cache=True)
    def step1(a, c, rt, mm, m, w):
        for t in prange(m * m):
            bi = t // m
            bj = t % m
            if bi == m - 1 and bj == m - 1:
                continue
            tile = np.empty((w, w))
            for r in range(w):
                for x in range(w):
                    tile[r, x] = a[bi * w + r, bj * w + x]
            if bi < m - 1:
                # column sums: sequential row accumulation (np.sum over
                # a non-final axis)
                for x in range(w):
                    c[bi, bj * w + x] = tile[0, x]
                for r in range(1, w):
                    for x in range(w):
                        c[bi, bj * w + x] += tile[r, x]
            if bj < m - 1:
                for r in range(w):
                    rt[bj, bi * w + r] = pairwise(tile[r], 0, w)
            if bi < m - 1 and bj < m - 1:
                mm[bi, bj] = pairwise(tile.ravel(), 0, w * w)

    @njit(parallel=True, cache=True)
    def step3(a, c, rt, mm, m, w):
        for t in prange(m * m):
            bi = t // m
            bj = t % m
            tile = np.empty((w, w))
            for r in range(w):
                for x in range(w):
                    tile[r, x] = a[bi * w + r, bj * w + x]
            # offsets in task order: top row, left column, corner
            if bi > 0:
                for x in range(w):
                    tile[0, x] += c[bi - 1, bj * w + x]
            if bj > 0:
                for r in range(w):
                    tile[r, 0] += rt[bj - 1, bi * w + r]
            if bi > 0 and bj > 0:
                corner = mm[bi - 1, bj - 1]
                if corner != 0.0:
                    tile[0, 0] += corner
            tile_sat(tile, w)
            for r in range(w):
                for x in range(w):
                    a[bi * w + r, bj * w + x] = tile[r, x]

    @njit(parallel=True, cache=True)
    def block_stage(a, auxb, auxr, biarr, bjarr, w, block_rows, block_cols):
        for k in prange(biarr.size):
            bi = biarr[k]
            bj = bjarr[k]
            r0 = bi * w
            c0 = bj * w
            tile = np.empty((w, w))
            for r in range(w):
                for x in range(w):
                    tile[r, x] = a[r0 + r, c0 + x]
            corner = 0.0
            if bi > 0:
                # top offsets: pairwise differences of the neighbor's
                # published bottom row, corner-prefixed (implicit zero
                # at the matrix edge)
                prev = auxb[bi - 1, c0 - 1] if c0 > 0 else 0.0
                corner = prev
                for x in range(w):
                    cur = auxb[bi - 1, c0 + x]
                    tile[0, x] += cur - prev
                    prev = cur
            if bj > 0:
                prevl = auxr[bj - 1, r0 - 1] if r0 > 0 else 0.0
                if bi == 0:
                    corner = prevl
                prev = prevl
                for r in range(w):
                    cur = auxr[bj - 1, r0 + r]
                    tile[r, 0] += cur - prev
                    prev = cur
            if corner != 0.0:
                tile[0, 0] += corner
            tile_sat(tile, w)
            for r in range(w):
                for x in range(w):
                    a[r0 + r, c0 + x] = tile[r, x]
            if bi < block_rows - 1:
                for x in range(w):
                    auxb[bi, c0 + x] = tile[w - 1, x]
            if bj < block_cols - 1:
                for r in range(w):
                    auxr[bj, r0 + r] = tile[r, w - 1]

    @njit(parallel=True, cache=True)
    def triangle_sums(a, cs, rs, biarr, bjarr, w):
        for k in prange(biarr.size):
            bi = biarr[k]
            bj = bjarr[k]
            r0 = bi * w
            c0 = bj * w
            for x in range(w):
                cs[bi, c0 + x] = a[r0, c0 + x]
            for r in range(1, w):
                for x in range(w):
                    cs[bi, c0 + x] += a[r0 + r, c0 + x]
            for r in range(w):
                rs[bj, r0 + r] = pairwise(a[r0 + r], c0, w)

    @njit(parallel=True, cache=True)
    def triangle_fix(a, ca, rl, g, auxb, auxr, biarr, bjarr, w, m):
        for k in prange(biarr.size):
            bi = biarr[k]
            bj = bjarr[k]
            r0 = bi * w
            c0 = bj * w
            tile = np.empty((w, w))
            for r in range(w):
                for x in range(w):
                    tile[r, x] = a[r0 + r, c0 + x]
            for x in range(w):
                tile[0, x] += ca[bi, c0 + x]
            for r in range(w):
                tile[r, 0] += rl[bj, r0 + r]
            corner = g[bi, bj]
            if corner != 0.0:
                tile[0, 0] += corner
            tile_sat(tile, w)
            for r in range(w):
                for x in range(w):
                    a[r0 + r, c0 + x] = tile[r, x]
            if bi < m - 1:
                for x in range(w):
                    auxb[bi, c0 + x] = tile[w - 1, x]
            if bj < m - 1:
                for r in range(w):
                    auxr[bj, r0 + r] = tile[r, w - 1]

    class NumbaBackend:
        kind = "numba"

        def __init__(self):
            self.set_threads = set_num_threads
            self.column_scan = column_scan
            self.row_scan = row_scan
            self.transpose = transpose
            self.single_block_sat = single_block_sat
            self.scatter_stage = scatter_stage
            self.step1 = step1
            self.step3 = step3
            self.block_stage = block_stage
            self.triangle_sums = triangle_sums
            self.triangle_fix = triangle_fix

    backend = NumbaBackend()
    _warm(np, backend)
    return backend


def _warm(np, backend) -> None:
    """Force-compile every kernel on miniature inputs.

    Keeps all of numba's lazy compilation inside the caller's
    ``native_compile`` span (and, with ``cache=True``, primes the
    on-disk cache), instead of paying compiles piecemeal inside timed
    kernel executions. The argument types match real use — float64 2-d
    buffers, int64 index arrays, Python ints — so no recompilation
    happens later.
    """
    a = np.arange(16, dtype=np.float64).reshape(4, 4)
    backend.column_scan(a.copy(), 0, 0, 4, 4)
    backend.row_scan(a.copy(), 4, 4)
    backend.transpose(np.empty((4, 4)), a.copy())
    backend.single_block_sat(a.copy(), 4)
    idx = np.array([1], dtype=np.int64)
    backend.scatter_stage(a.copy(), idx, idx)
    vec = np.zeros((1, 4))
    one = np.zeros((1, 1))
    backend.step1(a.copy(), vec.copy(), vec.copy(), one.copy(), 2, 2)
    backend.step3(a.copy(), vec.copy(), vec.copy(), one.copy(), 2, 2)
    zero = np.array([0], dtype=np.int64)
    backend.block_stage(
        a.copy(), vec.copy(), vec.copy(), zero, zero, 2, 2, 2
    )
    two = np.zeros((2, 4))
    backend.triangle_sums(a.copy(), two.copy(), two.copy(), zero, zero, 2)
    backend.triangle_fix(
        a.copy(), two.copy(), two.copy(), np.zeros((2, 2)),
        vec.copy(), vec.copy(), zero, zero, 2, 2,
    )
