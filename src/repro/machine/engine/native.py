"""Native backend: lower fused kernel schedules to generated-C megakernels.

The numpy fused backend (:mod:`repro.machine.engine.fused`) executes each
kernel as a handful of *batched numpy calls* — stacked whole-block
gather by block coordinate, vectorized per-block compute, stacked scatter.
That already removed the per-task Python loop, but each kernel still
costs several full passes over global memory (the gather copy, each
cumsum, the scatter copy) plus temporary allocation for the stacked
tiles. This module lowers the same :class:`~repro.machine.engine.fused
.FusedKernelSpec` IR one level further, into *native megakernels* that
make a single pass per block: gather the block into a contiguous staging
tile, fold the boundary offsets, take the block SAT, and scatter the
result — one loop nest, no numpy round trips (the software-systolic
argument of Chen et al., arXiv:1907.06154, applied to the simulator's
own execution).

The C source is *generated in this module* from the specs' parameters,
with allocation/layout/access lowering delegated to the SYS_ATL-style
memory objects of :mod:`repro.machine.engine.memobj`, compiled once with
the host C compiler (OpenMP when available), cached on disk keyed by
source hash (``REPRO_NATIVE_CACHE_DIR``) and loaded through cffi.
``REPRO_NATIVE_JIT=none`` treats the host as having no toolchain.

When the module cannot be built the backend degrades gracefully:
requesting ``fused="native"`` falls back to the numpy fused path with a
single :class:`NativeBackendUnavailable` warning and an obs counter —
outputs are bit-identical either way, only the speed differs.

Bit-exactness
-------------
The native kernels inherit the fused backend's contract: leave global
memory in the *exact* state the counted path leaves it in. Cumulative
sums are sequential in every backend, so they agree trivially; numpy
*reductions* do not — ``np.sum`` over a contiguous last axis uses
pairwise summation (eight-accumulator base case, blocksize 128), while
reductions over outer axes accumulate sequentially. The generated
kernels replicate both orders exactly (``repro_pairwise`` in the C
prelude), and a one-time **self-check probe** verifies the whole family:
on first use the backend computes all six algorithms on integer *and*
float inputs and compares against the numpy fused path bit-for-bit,
permanently disabling itself (with a warning) on any mismatch rather
than serving approximately-right answers.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ...errors import ConfigurationError
from ...obs import runtime as obs
from .memobj import GlobalRowMajor, tile_memory

__all__ = [
    "JIT_ENV_VAR",
    "CACHE_DIR_ENV_VAR",
    "NativeBackendUnavailable",
    "NativeGroup",
    "build_native_schedule",
    "ensure_backend",
    "generate_c_source",
    "native_available",
    "native_stats",
    "reset",
    "resolve_fused",
    "use_one_thread",
]

#: ``auto`` (default) builds the generated C; ``none`` treats the host as
#: having no toolchain — the fallback-path switch.
JIT_ENV_VAR = "REPRO_NATIVE_JIT"

#: Directory for the compiled shared-object cache. Defaults to
#: ``~/.cache/repro-native``.
CACHE_DIR_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"


class NativeBackendUnavailable(RuntimeWarning):
    """Warned (once per process) when ``fused="native"`` degrades to numpy."""


# --------------------------------------------------------------------------- #
# C code generation
# --------------------------------------------------------------------------- #

#: The memory object lowering global-buffer accesses in generated code.
_GM = GlobalRowMajor

#: The memory object lowering per-block staging tiles. The tile shape is
#: runtime (``w`` is a kernel argument), so this resolves to the guarded
#: stack/heap hybrid.
_TILE, _TILE_STATIC = tile_memory("w*w")


def _gm(buf: str, r: str, c: str, ld: str) -> str:
    """Global row-major element lvalue ``buf[r, c]`` with leading dim ``ld``."""
    return _GM.window(buf, (r, c), ("/*rows*/", ld))


def _tile_at(r: str, c: str) -> str:
    return _TILE.window("tile", (r, c), ("w", "w"))


def _tile_block() -> Tuple[str, str, str]:
    """(alloc, free, stage-in) C snippets for one ``w x w`` staging tile.

    The staging copy is the "stacked gather" of the numpy backend
    collapsed to one block: ``w`` contiguous row copies into the
    block-contiguous layout every reduction and scan below is defined
    over.
    """
    alloc = _TILE.alloc("tile", "double", ("w", "w"))
    free = _TILE.free("tile")
    stage = (
        "for (i64 r = 0; r < w; r++)\n"
        "        memcpy(tile + r * w, src + r * ld_a, (size_t)w * sizeof(double));"
    )
    return alloc, free, stage


_C_PRELUDE = r"""
#include <stdlib.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#endif

typedef long long i64;

/* Thread count of later parallel regions. A forked child of a process
 * that already ran a parallel region must set 1 before its first one:
 * libgomp's thread pool does not survive fork. */
void repro_set_threads(i64 n) {
#ifdef _OPENMP
    omp_set_num_threads((int)n);
#else
    (void)n;
#endif
}

/* numpy's pairwise summation over a contiguous run, reproduced exactly
 * (eight-accumulator base case, blocksize 128, left-leaning splits
 * rounded down to multiples of 8). Reductions lowered from np.sum over
 * a contiguous last axis must run through this to stay bit-identical. */
static double repro_pairwise(const double *a, i64 n) {
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    } else if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i];     r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    } else {
        i64 n2 = n / 2;
        n2 -= n2 % 8;
        return repro_pairwise(a, n2) + repro_pairwise(a + n2, n - n2);
    }
}

/* In-place SAT of one block-contiguous w x w tile: cumsum down the
 * rows, then along them — the same sequential adds np.cumsum performs. */
static void repro_tile_sat(double *tile, i64 w) {
    for (i64 r = 1; r < w; r++)
        for (i64 x = 0; x < w; x++)
            tile[r * w + x] += tile[(r - 1) * w + x];
    for (i64 r = 0; r < w; r++)
        for (i64 x = 1; x < w; x++)
            tile[r * w + x] += tile[r * w + x - 1];
}
"""


def _gen_column_scan() -> str:
    at = _gm("base", "r", "c", "ld")
    prev = _gm("base", "r - 1", "c", "ld")
    return f"""
void repro_column_scan(double *a, i64 ld, i64 row0, i64 col0, i64 nr, i64 nc) {{
    if (nr <= 1 || nc <= 0) return;
    double *base = a + row0 * ld + col0;
    i64 nchunks = (nc + 255) / 256;
    #pragma omp parallel for schedule(static)
    for (i64 chunk = 0; chunk < nchunks; chunk++) {{
        i64 clo = chunk * 256;
        i64 chi = clo + 256 < nc ? clo + 256 : nc;
        for (i64 r = 1; r < nr; r++)
            for (i64 c = clo; c < chi; c++)
                {at} += {prev};
    }}
}}
"""


def _gen_row_scan() -> str:
    at = _gm("a", "r", "c", "ld")
    prev = _gm("a", "r", "c - 1", "ld")
    return f"""
void repro_row_scan(double *a, i64 ld, i64 nr, i64 nc) {{
    #pragma omp parallel for schedule(static)
    for (i64 r = 0; r < nr; r++)
        for (i64 c = 1; c < nc; c++)
            {at} += {prev};
}}
"""


def _gen_transpose() -> str:
    src = _gm("src", "r", "c", "cols")
    dst = _gm("dst", "c", "r", "rows")
    return f"""
void repro_transpose(double *dst, const double *src, i64 rows, i64 cols) {{
    #pragma omp parallel for schedule(static)
    for (i64 rb = 0; rb < rows; rb += 64)
        for (i64 cb = 0; cb < cols; cb += 64) {{
            i64 rhi = rb + 64 < rows ? rb + 64 : rows;
            i64 chi = cb + 64 < cols ? cb + 64 : cols;
            for (i64 r = rb; r < rhi; r++)
                for (i64 c = cb; c < chi; c++)
                    {dst} = {src};
        }}
}}
"""


def _gen_single_block_sat() -> str:
    return """
void repro_single_block_sat(double *a, i64 ld, i64 side) {
    for (i64 r = 1; r < side; r++)
        for (i64 c = 0; c < side; c++)
            a[r * ld + c] += a[(r - 1) * ld + c];
    for (i64 r = 0; r < side; r++)
        for (i64 c = 1; c < side; c++)
            a[r * ld + c] += a[r * ld + c - 1];
}
"""


def _gen_scatter_stage() -> str:
    """4R1W anti-diagonal stage: Formula (1) at precomputed positions.

    All positions lie on one anti-diagonal and their stencil neighbors on
    other diagonals, so reads never alias writes within the stage and the
    loop parallelizes without staging.
    """
    return """
void repro_scatter_stage(double *a, i64 ld, const i64 *is, const i64 *js,
                         i64 count) {
    #pragma omp parallel for schedule(static)
    for (i64 k = 0; k < count; k++) {
        i64 i = is[k], j = js[k];
        double s = a[i * ld + j];
        if (j > 0) s += a[i * ld + j - 1];
        if (i > 0) s += a[(i - 1) * ld + j];
        if (i > 0 && j > 0) s -= a[(i - 1) * ld + j - 1];
        a[i * ld + j] = s;
    }
}
"""


def _gen_step1() -> str:
    alloc, free, stage = _tile_block()
    return f"""
void repro_step1(const double *a, i64 ld_a, double *c, i64 ld_c,
                 double *rt, i64 ld_rt, double *mm, i64 ld_mm,
                 i64 m, i64 w) {{
    #pragma omp parallel for collapse(2) schedule(static)
    for (i64 bi = 0; bi < m; bi++)
        for (i64 bj = 0; bj < m; bj++) {{
            if (bi == m - 1 && bj == m - 1) continue;
            const double *src = a + (bi * w) * ld_a + bj * w;
            {alloc}
            {stage}
            if (bi < m - 1) {{
                /* column sums: sequential row accumulation, the order
                 * np.sum uses over a non-final axis */
                double *crow = c + bi * ld_c + bj * w;
                for (i64 x = 0; x < w; x++) crow[x] = {_tile_at("0", "x")};
                for (i64 r = 1; r < w; r++)
                    for (i64 x = 0; x < w; x++)
                        crow[x] += {_tile_at("r", "x")};
            }}
            if (bj < m - 1)
                for (i64 r = 0; r < w; r++)
                    rt[bj * ld_rt + bi * w + r] = repro_pairwise(tile + r * w, w);
            if (bi < m - 1 && bj < m - 1)
                mm[bi * ld_mm + bj] = repro_pairwise(tile, w * w);
            {free}
        }}
}}
"""


def _gen_step3() -> str:
    alloc, free, stage = _tile_block()
    return f"""
void repro_step3(double *a, i64 ld_a, const double *c, i64 ld_c,
                 const double *rt, i64 ld_rt, const double *mm, i64 ld_mm,
                 i64 m, i64 w) {{
    #pragma omp parallel for collapse(2) schedule(static)
    for (i64 bi = 0; bi < m; bi++)
        for (i64 bj = 0; bj < m; bj++) {{
            double *src = a + (bi * w) * ld_a + bj * w;
            {alloc}
            {stage}
            /* offsets in task order: top row, left column, corner */
            if (bi > 0) {{
                const double *top = c + (bi - 1) * ld_c + bj * w;
                for (i64 x = 0; x < w; x++) {_tile_at("0", "x")} += top[x];
            }}
            if (bj > 0) {{
                const double *left = rt + (bj - 1) * ld_rt + bi * w;
                for (i64 r = 0; r < w; r++) {_tile_at("r", "0")} += left[r];
            }}
            if (bi > 0 && bj > 0) {{
                double corner = mm[(bi - 1) * ld_mm + (bj - 1)];
                if (corner != 0.0) {_tile_at("0", "0")} += corner;
            }}
            repro_tile_sat(tile, w);
            for (i64 r = 0; r < w; r++)
                memcpy(src + r * ld_a, tile + r * w, (size_t)w * sizeof(double));
            {free}
        }}
}}
"""


def _gen_block_stage() -> str:
    """1R1W/kR1W block anti-diagonal stage, one pass per block.

    Within a stage every block reads aux rows published by *earlier*
    diagonals and publishes to its own columns, so the per-block loop is
    parallel-safe (the publish targets of any block are disjoint from
    every same-stage block's reads and writes).
    """
    alloc, free, stage = _tile_block()
    return f"""
void repro_block_stage(double *a, i64 ld_a, double *auxb, i64 ld_ab,
                       double *auxr, i64 ld_ar, const i64 *bis,
                       const i64 *bjs, i64 count, i64 w,
                       i64 block_rows, i64 block_cols) {{
    #pragma omp parallel for schedule(static)
    for (i64 k = 0; k < count; k++) {{
        i64 bi = bis[k], bj = bjs[k];
        i64 r0 = bi * w, c0 = bj * w;
        double *src = a + r0 * ld_a + c0;
        {alloc}
        {stage}
        double corner = 0.0;
        if (bi > 0) {{
            /* top offsets: pairwise differences of the neighbor's
             * published bottom row, corner-prefixed (implicit zero at
             * the matrix edge) */
            const double *row = auxb + (bi - 1) * ld_ab + c0;
            double prev = (c0 > 0) ? row[-1] : 0.0;
            corner = prev;
            for (i64 x = 0; x < w; x++) {{
                double cur = row[x];
                {_tile_at("0", "x")} += cur - prev;
                prev = cur;
            }}
        }}
        if (bj > 0) {{
            const double *row = auxr + (bj - 1) * ld_ar + r0;
            double prevl = (r0 > 0) ? row[-1] : 0.0;
            if (bi == 0) corner = prevl;
            double prev = prevl;
            for (i64 r = 0; r < w; r++) {{
                double cur = row[r];
                {_tile_at("r", "0")} += cur - prev;
                prev = cur;
            }}
        }}
        if (corner != 0.0) {_tile_at("0", "0")} += corner;
        repro_tile_sat(tile, w);
        for (i64 r = 0; r < w; r++)
            memcpy(src + r * ld_a, tile + r * w, (size_t)w * sizeof(double));
        if (bi < block_rows - 1)
            memcpy(auxb + bi * ld_ab + c0, tile + (w - 1) * w,
                   (size_t)w * sizeof(double));
        if (bj < block_cols - 1)
            for (i64 r = 0; r < w; r++)
                auxr[bj * ld_ar + r0 + r] = {_tile_at("r", "w - 1")};
        {free}
    }}
}}
"""


def _gen_triangle_sums() -> str:
    return """
void repro_triangle_sums(const double *a, i64 ld_a, double *cs, i64 ld_cs,
                         double *rs, i64 ld_rs, const i64 *bis,
                         const i64 *bjs, i64 count, i64 w) {
    #pragma omp parallel for schedule(static)
    for (i64 k = 0; k < count; k++) {
        i64 bi = bis[k], bj = bjs[k];
        const double *src = a + (bi * w) * ld_a + bj * w;
        double *csrow = cs + bi * ld_cs + bj * w;
        for (i64 x = 0; x < w; x++) csrow[x] = src[x];
        for (i64 r = 1; r < w; r++)
            for (i64 x = 0; x < w; x++)
                csrow[x] += src[r * ld_a + x];
        for (i64 r = 0; r < w; r++)
            rs[bj * ld_rs + bi * w + r] = repro_pairwise(src + r * ld_a, w);
    }
}
"""


def _gen_triangle_fix() -> str:
    alloc, free, stage = _tile_block()
    return f"""
void repro_triangle_fix(double *a, i64 ld_a, const double *ca, i64 ld_ca,
                        const double *rl, i64 ld_rl, const double *g,
                        i64 ld_g, double *auxb, i64 ld_ab, double *auxr,
                        i64 ld_ar, const i64 *bis, const i64 *bjs,
                        i64 count, i64 w, i64 m) {{
    #pragma omp parallel for schedule(static)
    for (i64 k = 0; k < count; k++) {{
        i64 bi = bis[k], bj = bjs[k];
        i64 r0 = bi * w, c0 = bj * w;
        double *src = a + r0 * ld_a + c0;
        {alloc}
        {stage}
        const double *top = ca + bi * ld_ca + c0;
        for (i64 x = 0; x < w; x++) {_tile_at("0", "x")} += top[x];
        const double *left = rl + bj * ld_rl + r0;
        for (i64 r = 0; r < w; r++) {_tile_at("r", "0")} += left[r];
        double corner = g[bi * ld_g + bj];
        if (corner != 0.0) {_tile_at("0", "0")} += corner;
        repro_tile_sat(tile, w);
        for (i64 r = 0; r < w; r++)
            memcpy(src + r * ld_a, tile + r * w, (size_t)w * sizeof(double));
        if (bi < m - 1)
            memcpy(auxb + bi * ld_ab + c0, tile + (w - 1) * w,
                   (size_t)w * sizeof(double));
        if (bj < m - 1)
            for (i64 r = 0; r < w; r++)
                auxr[bj * ld_ar + r0 + r] = {_tile_at("r", "w - 1")};
        {free}
    }}
}}
"""


def generate_c_source() -> str:
    """Emit the full C megakernel module from the spec generators."""
    return _C_PRELUDE + "".join(
        gen()
        for gen in (
            _gen_column_scan,
            _gen_row_scan,
            _gen_transpose,
            _gen_single_block_sat,
            _gen_scatter_stage,
            _gen_step1,
            _gen_step3,
            _gen_block_stage,
            _gen_triangle_sums,
            _gen_triangle_fix,
        )
    )


_CDEF = """
void repro_set_threads(long long n);
void repro_column_scan(double *a, long long ld, long long row0,
                       long long col0, long long nr, long long nc);
void repro_row_scan(double *a, long long ld, long long nr, long long nc);
void repro_transpose(double *dst, const double *src, long long rows,
                     long long cols);
void repro_single_block_sat(double *a, long long ld, long long side);
void repro_scatter_stage(double *a, long long ld, const long long *is,
                         const long long *js, long long count);
void repro_step1(const double *a, long long ld_a, double *c, long long ld_c,
                 double *rt, long long ld_rt, double *mm, long long ld_mm,
                 long long m, long long w);
void repro_step3(double *a, long long ld_a, const double *c, long long ld_c,
                 const double *rt, long long ld_rt, const double *mm,
                 long long ld_mm, long long m, long long w);
void repro_block_stage(double *a, long long ld_a, double *auxb,
                       long long ld_ab, double *auxr, long long ld_ar,
                       const long long *bis, const long long *bjs,
                       long long count, long long w, long long block_rows,
                       long long block_cols);
void repro_triangle_sums(const double *a, long long ld_a, double *cs,
                         long long ld_cs, double *rs, long long ld_rs,
                         const long long *bis, const long long *bjs,
                         long long count, long long w);
void repro_triangle_fix(double *a, long long ld_a, const double *ca,
                        long long ld_ca, const double *rl, long long ld_rl,
                        const double *g, long long ld_g, double *auxb,
                        long long ld_ab, double *auxr, long long ld_ar,
                        const long long *bis, const long long *bjs,
                        long long count, long long w, long long m);
"""


# --------------------------------------------------------------------------- #
# Compilation and loading
# --------------------------------------------------------------------------- #


def _cache_dir() -> str:
    configured = os.environ.get(CACHE_DIR_ENV_VAR)
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-native")


def _find_cc() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile_module(source: str, cc: str, out_path: str) -> None:
    """Compile ``source`` to a shared object at ``out_path`` (atomically).

    ``-ffp-contract=off`` forbids FMA contraction so the generated adds
    stay the exact IEEE operations the numpy path performs; OpenMP is
    attempted first and dropped if the toolchain lacks it.
    """
    workdir = tempfile.mkdtemp(prefix="repro-native-")
    try:
        c_path = os.path.join(workdir, "kernels.c")
        so_path = os.path.join(workdir, "kernels.so")
        with open(c_path, "w") as fh:
            fh.write(source)
        base = [cc, "-O3", "-fPIC", "-shared", "-ffp-contract=off"]
        attempts = [base + ["-fopenmp"], base]
        last_error = None
        for cmd in attempts:
            proc = subprocess.run(
                cmd + ["-o", so_path, c_path],
                capture_output=True,
                text=True,
            )
            if proc.returncode == 0:
                os.makedirs(os.path.dirname(out_path), exist_ok=True)
                # Keep the source next to the module for debuggability.
                shutil.copy(c_path, out_path[: -len(".so")] + ".c")
                os.replace(so_path, out_path)
                return
            last_error = proc.stderr.strip()
        raise RuntimeError(f"{cc} failed to compile native kernels: {last_error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class CffiBackend:
    """Generated-C kernels behind cffi, presenting numpy-array entry points.

    One shared object holds every megakernel; it is compiled once per
    source hash and re-used from the on-disk cache afterwards (the
    warm-compile path is a ``dlopen``).
    """

    kind = "cffi"

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib

    @classmethod
    def load(cls) -> "CffiBackend":
        import cffi

        cc = _find_cc()
        if cc is None:
            raise RuntimeError("no C compiler found (CC, cc, gcc, clang)")
        source = generate_c_source()
        digest = hashlib.sha256(
            (source + "\0v1\0" + cc).encode()
        ).hexdigest()[:16]
        so_path = os.path.join(_cache_dir(), f"repro_native_{digest}.so")
        if os.path.exists(so_path):
            obs.inc("native_module_loads_total", source="disk_cache")
        else:
            with obs.span("native_compile", toolchain="cffi"):
                _compile_module(source, cc, so_path)
            obs.inc("native_module_compiles_total")
            obs.inc("native_module_loads_total", source="compiled")
            _STATE.stats["modules_compiled"] += 1
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        return cls(ffi, ffi.dlopen(so_path))

    # -- pointer plumbing ---------------------------------------------------

    def _p(self, arr: np.ndarray):
        if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
            raise TypeError(
                f"native kernels require C-contiguous float64, got "
                f"{arr.dtype}/{arr.flags['C_CONTIGUOUS']}"
            )
        return self._ffi.cast("double *", self._ffi.from_buffer(arr))

    def _ip(self, arr: np.ndarray):
        if arr.dtype != np.int64 or not arr.flags["C_CONTIGUOUS"]:
            raise TypeError("native kernels require C-contiguous int64 indices")
        return self._ffi.cast("long long *", self._ffi.from_buffer(arr))

    # -- entry points -------------------------------------------------------

    def set_threads(self, count):
        self._lib.repro_set_threads(count)

    def column_scan(self, a, row0, col0, nr, nc):
        self._lib.repro_column_scan(self._p(a), a.shape[1], row0, col0, nr, nc)

    def row_scan(self, a, nr, nc):
        self._lib.repro_row_scan(self._p(a), a.shape[1], nr, nc)

    def transpose(self, dst, src):
        self._lib.repro_transpose(
            self._p(dst), self._p(src), src.shape[0], src.shape[1]
        )

    def single_block_sat(self, a, side):
        self._lib.repro_single_block_sat(self._p(a), a.shape[1], side)

    def scatter_stage(self, a, i, j):
        self._lib.repro_scatter_stage(
            self._p(a), a.shape[1], self._ip(i), self._ip(j), i.size
        )

    def step1(self, a, c, rt, mm, m, w):
        self._lib.repro_step1(
            self._p(a), a.shape[1], self._p(c), c.shape[1],
            self._p(rt), rt.shape[1], self._p(mm), mm.shape[1], m, w,
        )

    def step3(self, a, c, rt, mm, m, w):
        self._lib.repro_step3(
            self._p(a), a.shape[1], self._p(c), c.shape[1],
            self._p(rt), rt.shape[1], self._p(mm), mm.shape[1], m, w,
        )

    def block_stage(self, a, auxb, auxr, bi, bj, w, block_rows, block_cols):
        self._lib.repro_block_stage(
            self._p(a), a.shape[1], self._p(auxb), auxb.shape[1],
            self._p(auxr), auxr.shape[1], self._ip(bi), self._ip(bj),
            bi.size, w, block_rows, block_cols,
        )

    def triangle_sums(self, a, cs, rs, bi, bj, w):
        self._lib.repro_triangle_sums(
            self._p(a), a.shape[1], self._p(cs), cs.shape[1],
            self._p(rs), rs.shape[1], self._ip(bi), self._ip(bj), bi.size, w,
        )

    def triangle_fix(self, a, ca, rl, g, auxb, auxr, bi, bj, w, m):
        self._lib.repro_triangle_fix(
            self._p(a), a.shape[1], self._p(ca), ca.shape[1],
            self._p(rl), rl.shape[1], self._p(g), g.shape[1],
            self._p(auxb), auxb.shape[1], self._p(auxr), auxr.shape[1],
            self._ip(bi), self._ip(bj), bi.size, w, m,
        )


# --------------------------------------------------------------------------- #
# Backend state: resolution, probe, stats
# --------------------------------------------------------------------------- #


class _State:
    def __init__(self):
        self.resolved = False
        self.backend = None  # object with the kernel entry points
        self.failure: Optional[str] = None
        self.warned = False
        self.probing = False
        self.one_thread = False
        self.stats: Dict[str, int] = {
            "modules_compiled": 0,
            "lowered_groups": 0,
            "fallback_groups": 0,
            "native_kernels_run": 0,
        }


_STATE = _State()
_LOCK = threading.RLock()


def reset() -> None:
    """Forget the resolved backend (tests exercising resolution paths)."""
    global _STATE
    with _LOCK:
        _STATE = _State()


def _build_backend() -> Tuple[Optional[object], Optional[str]]:
    """Build (or load) the generated-C module; return (backend, failure)."""
    raw = os.environ.get(JIT_ENV_VAR, "auto").strip().lower() or "auto"
    if raw not in {"auto", "none"}:
        raise ConfigurationError(f"{JIT_ENV_VAR}={raw!r} must be auto or none")
    if raw == "none":
        return None, f"{JIT_ENV_VAR}=none disables the native backend"
    try:
        return CffiBackend.load(), None
    except Exception as exc:  # noqa: BLE001 — any build failure degrades
        return None, f"cffi: {exc}"


def _probe(backend) -> Optional[str]:
    """One-time whole-family bit-exactness check of a fresh backend.

    Runs all six algorithms on integer and float inputs and compares the
    native results bit-for-bit against the numpy fused path (itself
    asserted identical to counted execution by the test suite). Returns
    an error description on the first mismatch, ``None`` when clean. The
    float inputs matter: they catch a platform whose numpy reduction
    order differs from the pairwise/sequential orders the generated
    kernels replicate.
    """
    from ..params import MachineParams
    from ...sat.registry import make_algorithm
    from . import ExecutionEngine
    from .cache import PlanCache

    params = MachineParams(width=4, latency=3)
    rng = np.random.default_rng(0x5EED)
    inputs = [
        rng.integers(-9, 9, size=(8, 8)).astype(np.float64),
        rng.standard_normal((8, 8)),
    ]
    for name in ("2R1W", "1R1W", "2R2W", "4R4W", "4R1W", "kR1W"):
        algo = make_algorithm(name, **({"p": 0.5} if name == "kR1W" else {}))
        for which, a in enumerate(inputs):
            engine = ExecutionEngine(cache=PlanCache())
            try:
                algo.compute(a, params, engine=engine)  # populate tallies
                fused = algo.compute(
                    a, params, engine=engine, fast=True, fused="numpy"
                )
                native = algo.compute(
                    a, params, engine=engine, fast=True, fused="native"
                )
            except Exception as exc:  # noqa: BLE001 — disable, don't crash
                return f"{name} probe raised {type(exc).__name__}: {exc}"
            if not np.array_equal(native.sat, fused.sat):
                kind = "int" if which == 0 else "float"
                return (
                    f"{name} native output diverged from the numpy fused "
                    f"path on {kind} input"
                )
    return None


def ensure_backend() -> Optional[object]:
    """The process-wide native backend, or ``None`` when unavailable.

    First call resolves the toolchain, compiles (or ``dlopen``s) the
    kernels, and runs the self-check probe; later calls return the
    cached result. Unavailability is sticky and warned exactly once —
    callers then execute the numpy fused path, bit-identical but slower.
    """
    with _LOCK:
        if _STATE.probing:
            return _STATE.backend
        if not _STATE.resolved:
            backend, failure = _build_backend()
            if backend is not None and failure is None:
                if _STATE.one_thread:
                    backend.set_threads(1)
                _STATE.backend = backend
                _STATE.probing = True
                try:
                    failure = _probe(backend)
                finally:
                    _STATE.probing = False
                if failure is not None:
                    obs.inc("native_probe_failures_total")
                    _STATE.backend = None
            _STATE.failure = failure
            _STATE.resolved = True
        if _STATE.backend is None:
            obs.inc("native_fallbacks_total")
            if not _STATE.warned:
                _STATE.warned = True
                warnings.warn(
                    "native fused backend unavailable "
                    f"({_STATE.failure}); falling back to the numpy fused "
                    "path (bit-identical, slower)",
                    NativeBackendUnavailable,
                    stacklevel=3,
                )
        return _STATE.backend


def use_one_thread() -> None:
    """Run this process's native kernels on one thread from now on.

    A forked batch-pool worker calls this before its first task: libgomp
    is not fork-safe, so a child of a process that already ran a parallel
    region would block forever in its own first one on more threads; one
    thread per worker also keeps workers times threads within the CPUs.
    Applied to the loaded backend at once, or else when it loads (before
    its self-check probe); never builds or loads the backend itself, so
    a worker that runs no native kernel pays nothing. Takes no lock: in a
    forked child, a lock another parent thread held at the fork stays
    held.
    """
    _STATE.one_thread = True
    if _STATE.backend is not None:
        _STATE.backend.set_threads(1)


def native_available() -> bool:
    """Whether ``fused="native"`` would actually run native kernels here."""
    return ensure_backend() is not None


def native_stats() -> Dict[str, object]:
    """Backend health: toolchain, probe status, lowering/compile counts."""
    with _LOCK:
        stats: Dict[str, object] = dict(_STATE.stats)
        stats["resolved"] = _STATE.resolved
        stats["available"] = _STATE.backend is not None
        stats["toolchain"] = getattr(_STATE.backend, "kind", None)
        stats["failure"] = _STATE.failure
        stats["one_thread"] = _STATE.one_thread
        return stats


# --------------------------------------------------------------------------- #
# Backend selection for SATAlgorithm.compute(fused=...)
# --------------------------------------------------------------------------- #

#: Values ``compute(fused=...)`` accepts besides ``True``.
FUSED_BACKENDS = ("numpy", "native")


def resolve_fused(fused) -> str:
    """Normalize a ``fused`` argument to ``"numpy"`` or ``"native"``.

    ``True`` means ``"numpy"``; strings are case-insensitive.
    """
    if fused is True:
        return "numpy"
    if isinstance(fused, str):
        backend = fused.strip().lower()
        if backend in FUSED_BACKENDS:
            return backend
    raise ConfigurationError(
        f"fused={fused!r} must be True or one of {FUSED_BACKENDS}"
    )


# --------------------------------------------------------------------------- #
# Spec lowering
# --------------------------------------------------------------------------- #


class NativeGroup:
    """A fused spec bound to its compiled megakernel.

    Duck-types as a fused spec (the executor's schedule runner calls
    ``execute(gm)``), so a native schedule slots into
    :meth:`~repro.machine.macro.executor.HMMExecutor.run_kernel_fused`
    unchanged; the difference is that ``execute`` dispatches into
    generated native code instead of batched numpy.
    """

    fused_spec = True
    __slots__ = ("spec", "num_tasks", "_run")

    def __init__(self, spec, run: Callable):
        self.spec = spec
        self.num_tasks = spec.num_tasks
        self._run = run

    def execute(self, gm) -> None:
        _STATE.stats["native_kernels_run"] += 1
        self._run(gm)


def _lower_column_scan(spec, backend):
    def run(gm):
        backend.column_scan(
            gm.array(spec.buf), spec.row0, spec.col0, spec.n_rows, spec.n_cols
        )

    return run


def _lower_row_scan(spec, backend):
    def run(gm):
        backend.row_scan(gm.array(spec.buf), spec.n_rows, spec.n_cols)

    return run


def _lower_transpose(spec, backend):
    def run(gm):
        backend.transpose(gm.array(spec.dst), gm.array(spec.src))

    return run


def _lower_single_block_sat(spec, backend):
    def run(gm):
        backend.single_block_sat(gm.array(spec.buf), spec.side)

    return run


def _lower_scatter_stage(spec, backend):
    i = np.arange(spec.i0, spec.i0 + spec.length, dtype=np.int64)
    j = spec.k - i

    def run(gm):
        backend.scatter_stage(gm.array(spec.buf), i, j)

    return run


def _lower_step1(spec, backend):
    def run(gm):
        backend.step1(
            gm.array(spec.buf), gm.array(spec.c_buf), gm.array(spec.rt_buf),
            gm.array(spec.m_buf), spec.m, spec.w,
        )

    return run


def _lower_step3(spec, backend):
    def run(gm):
        backend.step3(
            gm.array(spec.buf), gm.array(spec.c_buf), gm.array(spec.rt_buf),
            gm.array(spec.m_buf), spec.m, spec.w,
        )

    return run


def _lower_block_stage(spec, backend):
    bi = np.ascontiguousarray(spec.bi, dtype=np.int64)
    bj = np.ascontiguousarray(spec.bj, dtype=np.int64)

    def run(gm):
        backend.block_stage(
            gm.array(spec.buf), gm.array(spec.aux_bottom),
            gm.array(spec.aux_right), bi, bj, spec.w,
            spec.block_rows, spec.block_cols,
        )

    return run


def _lower_triangle_sums(spec, backend):
    bi = np.ascontiguousarray(spec.bi, dtype=np.int64)
    bj = np.ascontiguousarray(spec.bj, dtype=np.int64)

    def run(gm):
        backend.triangle_sums(
            gm.array(spec.buf), gm.array(spec.cs_buf), gm.array(spec.rs_buf),
            bi, bj, spec.w,
        )

    return run


def _lower_triangle_fix(spec, backend):
    bi = np.ascontiguousarray(spec.bi, dtype=np.int64)
    bj = np.ascontiguousarray(spec.bj, dtype=np.int64)

    def run(gm):
        backend.triangle_fix(
            gm.array(spec.buf), gm.array(spec.col_above_buf),
            gm.array(spec.row_left_buf), gm.array(spec.g_buf),
            gm.array(spec.aux_bottom), gm.array(spec.aux_right),
            bi, bj, spec.w, spec.m,
        )

    return run


#: Spec class name -> lowering builder. Keyed by name so this module
#: needs no import of :mod:`.fused` (which must stay importable without
#: any JIT toolchain).
_LOWERINGS: Dict[str, Callable] = {
    "ColumnScanSpec": _lower_column_scan,
    "RowScanStrideSpec": _lower_row_scan,
    "TransposeSpec": _lower_transpose,
    "SingleBlockSatSpec": _lower_single_block_sat,
    "ScatterStageSpec": _lower_scatter_stage,
    "Step1Spec": _lower_step1,
    "Step3Spec": _lower_step3,
    "BlockStageSpec": _lower_block_stage,
    "TriangleSumsSpec": _lower_triangle_sums,
    "TriangleFixSpec": _lower_triangle_fix,
}


def lower_spec(spec, backend) -> Optional[Callable]:
    """Bind one fused spec to its compiled kernel, or ``None`` if unknown."""
    builder = _LOWERINGS.get(type(spec).__name__)
    if builder is None:
        return None
    return builder(spec, backend)


def build_native_schedule(schedule: Tuple, backend) -> Tuple:
    """Lower a kernel's fused schedule to its native execution schedule.

    Every fused spec with a known lowering becomes a :class:`NativeGroup`
    bound to the compiled kernels; unknown specs keep their batched numpy
    execution and plain block tasks stay per-task — a partially-lowered
    schedule is still bit-identical, just partially accelerated.
    """
    items = []
    for item in schedule:
        if getattr(item, "fused_spec", False) and not isinstance(item, NativeGroup):
            run = lower_spec(item, backend)
            if run is not None:
                items.append(NativeGroup(item, run))
                _STATE.stats["lowered_groups"] += 1
                obs.inc("native_lowered_groups_total")
                continue
            _STATE.stats["fallback_groups"] += 1
            obs.inc("native_group_fallbacks_total")
        items.append(item)
    return tuple(items)
