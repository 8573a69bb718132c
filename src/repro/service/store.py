"""Tiled SAT storage: per-tile local SATs plus downstream aggregates.

The paper's 2R1W decomposition (after Nehab et al. 2011) splits the
matrix into ``w x w`` blocks, gives each block its *local* SAT, and
carries the cross-block state in three small aggregates — per-column
sums-above, per-row sums-to-the-left, and the corner sums
(:mod:`repro.sat.blockops`, :mod:`repro.sat.triangle2r1w`). This module
keeps exactly that representation *resident* so SAT workloads can be
served, not just computed:

* a **point query** ``F(r, c)`` touches one tile::

      F = local[I,J][i,j] + col_above[I,J][j] + row_left[I,J][i] + corner[I,J]

  so a rectangle sum is at most four corner-tile lookups, ``O(1)`` in
  the matrix size;
* a **point update** dirties one tile's local SAT plus only the
  aggregate suffixes downstream of it — ``O(t^2 + (n/t)^2 + n)`` work
  instead of the ``O(n^2)`` full recompute.

Layout
------
The tile payloads and local SATs live in two zero-padded row-major
``(nb_r * t, nb_c * t)`` matrices, like the buffer 2R1W's Step 3 scans
with coalesced row accesses. Per-tile indexing ``[I, J, i, j]`` is a view
of each (``reshape(nb_r, t, nb_c, t).transpose(0, 2, 1, 3)``), so the
lookups, folds and updates index tiles while the build, a region patch
and :meth:`TileAggregates.matrix` work on whole rows. The edge and
corner aggregates are small and stay tile-indexed arrays.

Bit-identity contract
---------------------
Every aggregate is defined as a *sequential* accumulation chain (numpy
``cumsum``), and the incremental re-fold recomputes each dirty chain
suffix **seeded with the stored prefix value** — the identical sequence
of floating-point additions a fresh build performs. An incrementally
updated :class:`Dataset` is therefore bit-identical to one rebuilt from
the updated matrix, for every dtype (verified against ``sat_reference``
in ``tests/service/``). Queries combine four exactly-maintained terms;
on integer-valued data every partial sum is exact, so query results
bit-match the numpy full-recompute oracle as well.

:class:`TiledSATStore` hosts many named :class:`Dataset`\\ s behind a
bounded LRU with byte accounting, because a serving process holds *state*
and must bound it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ShapeError, UnknownDataset
from ..machine.engine.fused import prefix_sum_rows, tile_view
from ..obs import runtime as obs

__all__ = ["Dataset", "TileAggregates", "TileRange", "TiledSATStore"]

#: Default tile side. 64 balances update cost (``O(t^2)``) against
#: aggregate size (``O((n/t)^2)``) around the n=1K-4K serving sweet spot;
#: see the tile-size tradeoff appendix in EXPERIMENTS.md.
DEFAULT_TILE = 64


def _sat_dtype(dtype: np.dtype) -> np.dtype:
    """The dtype a cumsum-built SAT of this input dtype would have."""
    return np.cumsum(np.zeros(1, dtype=dtype)).dtype


class TileRange:
    """Tiles ``[lo, hi)`` (row-major tile order) of a ``(nb_r, nb_c, t, t)``
    tile view, as a ``(hi - lo, t, t)`` array-like.

    One tile row's tiles are one strided view of a row-major matrix, but
    a range that wraps to the next tile row is not, and ``reshape(k, t,
    t)`` would copy the whole grid. :meth:`copy_into` packs the range
    into a contiguous ``(k, t, t)`` destination with one copy, one tile
    row at a time, and ``np.asarray`` gathers a new array the same way.
    It reads the live tiles, like any view.
    """

    __slots__ = ("tiles", "lo", "hi", "shape", "dtype", "nbytes")

    def __init__(self, tiles: np.ndarray, lo: int, hi: int):
        self.tiles, self.lo, self.hi = tiles, lo, hi
        self.shape = (hi - lo,) + tiles.shape[2:]
        self.dtype = tiles.dtype
        self.nbytes = (hi - lo) * tiles[0, 0].nbytes

    def copy_into(self, out: np.ndarray) -> None:
        """Write the tiles into ``out``, a ``(hi - lo, t, t)`` array, one
        tile row's view at a time."""
        nb_c = self.tiles.shape[1]
        lin = self.lo
        while lin < self.hi:
            i, j = divmod(lin, nb_c)
            end = min(self.hi, lin - j + nb_c)
            out[lin - self.lo : end - self.lo] = self.tiles[i, j : j + end - lin]
            lin = end

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, dtype=self.dtype)
        self.copy_into(out)
        return out if dtype is None else out.astype(dtype, copy=False)


class TileAggregates:
    """One matrix decomposed into ``t x t`` tiles with serving aggregates.

    Storage (``nb_r x nb_c`` tiles, zero-padded at the ragged edges):

    ``raw2d``
        ``(nb_r * t, nb_c * t)`` row-major copy of the matrix (the update
        paths need the pre-SAT values to re-fold a tile exactly).
    ``local2d``
        ``(nb_r * t, nb_c * t)`` row-major matrix of per-tile local SATs.

    Tile-indexed arrays; the first two are views of the matrices above:

    ``raw``
        ``(nb_r, nb_c, t, t)`` view of ``raw2d``: ``raw[I, J]`` is tile
        ``(I, J)``'s payload.
    ``local``
        ``(nb_r, nb_c, t, t)`` view of ``local2d``: per-tile local SATs.
    ``col_above``
        ``(nb_r, nb_c, t)``; ``col_above[I, J, j]`` is the sum of all
        elements *above* tile ``(I, J)`` in its global columns
        ``J*t .. J*t+j`` — the exclusive column-chain of tile bottom rows.
    ``row_left``
        ``(nb_r, nb_c, t)``; symmetric, over tile right columns.
    ``tot_col``
        ``(nb_r, nb_c)`` column-chain (inclusive) of tile totals — the
        stored intermediate that lets the corner grid re-fold only its
        dirty quadrant.
    ``corner``
        ``(nb_r + 1, nb_c + 1)`` zero-padded *exclusive* prefix of tile
        totals: ``corner[I, J]`` is the mass strictly above-left of tile
        ``(I, J)``'s origin.
    """

    __slots__ = (
        "rows", "cols", "t", "nb_r", "nb_c", "dtype", "version",
        "raw2d", "local2d", "raw", "local",
        "col_above", "row_left", "tot_col", "corner",
    )

    def __init__(self, matrix: np.ndarray, tile: int):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or 0 in matrix.shape:
            raise ShapeError(
                f"dataset matrix must be non-empty and 2-D, got shape {matrix.shape}"
            )
        if tile < 1:
            raise ConfigurationError(f"tile size must be >= 1, got {tile}")
        self.rows, self.cols = matrix.shape
        self.t = int(tile)
        self.nb_r = -(-self.rows // self.t)
        self.nb_c = -(-self.cols // self.t)
        self.dtype = _sat_dtype(matrix.dtype)
        self.version = 0
        t = self.t
        self.raw2d = np.empty((self.nb_r * t, self.nb_c * t), dtype=self.dtype)
        self.raw2d[: self.rows, : self.cols] = matrix
        self.raw2d[self.rows :] = 0
        self.raw2d[: self.rows, self.cols :] = 0
        self.local2d = np.empty_like(self.raw2d)
        self.raw = tile_view(self.raw2d, t)
        self.local = tile_view(self.local2d, t)
        # np.cumsum(np.cumsum(tile, 0), 1)'s additions in its order: the
        # in-tile column scan as a sweep of whole matrix rows, then the
        # in-tile row scan as one in-place cumsum along the rows.
        width = self.nb_c * t
        prefix_sum_rows(self.raw2d.reshape(self.nb_r, t, width),
                        out=self.local2d.reshape(self.nb_r, t, width))
        runs = self.local2d.reshape(self.nb_r * t, self.nb_c, t)
        np.cumsum(runs, axis=2, out=runs)
        self.col_above = np.zeros((self.nb_r, self.nb_c, t), dtype=self.dtype)
        self.row_left = np.zeros((self.nb_r, self.nb_c, t), dtype=self.dtype)
        self.tot_col = np.zeros((self.nb_r, self.nb_c), dtype=self.dtype)
        self.corner = np.zeros((self.nb_r + 1, self.nb_c + 1), dtype=self.dtype)
        self._fold_columns(0, 0, self.nb_c - 1)
        self._fold_rows(0, self.nb_r - 1, 0)
        self._fold_corners(0, 0)

    # -- folding (the canonical accumulation chains) -------------------------
    #
    # Each helper recomputes a chain *suffix* seeded with the stored value
    # just before the dirty range, by prepending that value to the cumsum
    # input: cumsum([s, x0, x1, ...]) = [s, s+x0, (s+x0)+x1, ...] — the
    # exact addition sequence a from-scratch build performs, so re-folds
    # are bit-identical to full rebuilds (including -0.0: chains that
    # start at the matrix edge branch to the unseeded canonical form
    # rather than adding a +0.0 seed).

    def _fold_columns(self, i0: int, j0: int, j1: int) -> None:
        """Re-fold ``col_above`` rows ``i0+1..`` for tile columns ``j0..j1``."""
        t = self.t
        bottoms = self.local[:, j0 : j1 + 1, t - 1, :]
        if i0 == 0:
            self.col_above[0, j0 : j1 + 1] = 0
            if self.nb_r > 1:
                self.col_above[1:, j0 : j1 + 1] = np.cumsum(bottoms[:-1], axis=0)
        else:
            seeded = np.concatenate(
                [self.col_above[i0 : i0 + 1, j0 : j1 + 1], bottoms[i0:-1]], axis=0
            )
            self.col_above[i0:, j0 : j1 + 1] = np.cumsum(seeded, axis=0)

    def _fold_rows(self, i0: int, i1: int, j0: int) -> None:
        """Re-fold ``row_left`` columns ``j0+1..`` for tile rows ``i0..i1``."""
        t = self.t
        rights = self.local[i0 : i1 + 1, :, :, t - 1]
        if j0 == 0:
            self.row_left[i0 : i1 + 1, 0] = 0
            if self.nb_c > 1:
                self.row_left[i0 : i1 + 1, 1:] = np.cumsum(rights[:, :-1], axis=1)
        else:
            seeded = np.concatenate(
                [self.row_left[i0 : i1 + 1, j0 : j0 + 1], rights[:, j0:-1]], axis=1
            )
            self.row_left[i0 : i1 + 1, j0:] = np.cumsum(seeded, axis=1)

    def _fold_corners(self, i0: int, j0: int) -> None:
        """Re-fold the corner-aggregate quadrant downstream of tile (i0, j0)."""
        t = self.t
        totals = self.local[:, :, t - 1, t - 1]
        if i0 == 0:
            self.tot_col[:, j0:] = np.cumsum(totals[:, j0:], axis=0)
        else:
            seeded = np.concatenate(
                [self.tot_col[i0 - 1 : i0, j0:], totals[i0:, j0:]], axis=0
            )
            self.tot_col[i0 - 1 :, j0:] = np.cumsum(seeded, axis=0)
        # corner[1:, 1:] is the inclusive row-chain of tot_col; rows >= i0
        # changed, and within them only columns >= j0.
        if j0 == 0:
            self.corner[i0 + 1 :, 1:] = np.cumsum(self.tot_col[i0:, :], axis=1)
        else:
            seeded = np.concatenate(
                [self.corner[i0 + 1 :, j0 : j0 + 1], self.tot_col[i0:, j0:]], axis=1
            )
            self.corner[i0 + 1 :, j0:] = np.cumsum(seeded, axis=1)

    def refold(self, i0: int, j0: int, i1: int, j1: int) -> None:
        """Recompute dirty tiles' local SATs and downstream aggregates.

        Callers patch ``raw`` for tiles in the inclusive tile-index box
        ``(i0, j0)..(i1, j1)`` first; this re-folds exactly the state that
        depends on them: the box tiles' local SATs, ``col_above`` below
        the box's columns, ``row_left`` right of the box's rows, and the
        corner quadrant — nothing else is touched.
        """
        # Into a fresh tile stack, then one write back: scanning down the
        # box in place would write rows a whole matrix row apart (slower
        # for the one-tile box of a point update).
        box = self.raw[i0 : i1 + 1, j0 : j1 + 1]
        self.local[i0 : i1 + 1, j0 : j1 + 1] = np.cumsum(
            np.cumsum(box, axis=2), axis=3
        )
        self._fold_columns(i0, j0, j1)
        self._fold_rows(i0, i1, j0)
        self._fold_corners(i0, j0)
        self.version += 1

    # -- shard extraction (the cluster's unit of placement) ------------------
    #
    # A *shard* is a contiguous range [lo, hi) of row-major linearized tile
    # indices (lin = I * nb_c + J). Everything a point lookup needs for a
    # tile — its local SAT, the two edge-prefix vectors, and the corner
    # scalar — is gathered per tile, so a worker holding a shard answers
    # F(r, c) for any (r, c) inside its tiles without the rest of the grid.

    def shard_arrays(self, lo: int, hi: int) -> Tuple[object, ...]:
        """Per-tile serving state ``(local, col, row, corner)`` for
        linearized tiles ``[lo, hi)``: ``(k, t, t)``, ``(k, t)``,
        ``(k, t)`` and ``(k,)`` for ``k = hi - lo``.

        Nothing full-size is copied. ``local`` is a :class:`TileRange`
        over the tile view of the row-major ``local2d``, which
        :func:`~repro.service.cluster.write_checkpoint` packs straight
        into the checkpoint. ``col`` and ``row`` are views: the
        tile-indexed edge arrays flattened to ``(nb_r * nb_c, t)`` make a
        lin range one contiguous slice. The corners are gathered out of
        the zero-padded grid. The views follow later updates, so a caller
        that keeps the state copies it under the dataset lock.
        """
        k = self.nb_r * self.nb_c
        t = self.t
        i, j = np.divmod(np.arange(lo, hi, dtype=np.int64), self.nb_c)
        return (
            TileRange(self.local, lo, hi),
            self.col_above.reshape(k, t)[lo:hi],
            self.row_left.reshape(k, t)[lo:hi],
            self.corner[i, j],
        )

    def shard_delta(self, i0: int, j0: int, i1: int, j1: int) -> Dict[str, tuple]:
        """Changed per-tile state after a re-fold of the tile box.

        Returns ``component -> (lins, values)`` covering every tile whose
        serving state *may* have changed when ``refold(i0, j0, i1, j1)``
        ran — the same downstream suffixes the re-fold recomputes: local
        SATs for the box, ``col_above`` below the box's tile columns,
        ``row_left`` right of its tile rows, and the corner quadrant.
        Supersets are safe (values are the current truth); the point is
        that the payload is ``O(update work)``, not ``O(grid)``.
        """

        def grid(ri0, ri1, ci0, ci1, arr):
            i, j = np.meshgrid(
                np.arange(ri0, ri1 + 1), np.arange(ci0, ci1 + 1), indexing="ij"
            )
            i = i.reshape(-1)
            j = j.reshape(-1)
            return (i * self.nb_c + j).astype(np.int64), np.ascontiguousarray(arr[i, j])

        last_r, last_c = self.nb_r - 1, self.nb_c - 1
        return {
            "local": grid(i0, i1, j0, j1, self.local),
            "col": grid(i0, last_r, j0, j1, self.col_above),
            "row": grid(i0, i1, j0, last_c, self.row_left),
            "corner": grid(i0, last_r, j0, last_c, self.corner),
        }

    # -- lookups -------------------------------------------------------------

    def sat_at(self, r: int, c: int):
        """The global SAT value ``F(r, c)`` from one tile's state."""
        t = self.t
        i_tile, i = divmod(r, t)
        j_tile, j = divmod(c, t)
        return (
            self.local[i_tile, j_tile, i, j]
            + self.col_above[i_tile, j_tile, j]
            + self.row_left[i_tile, j_tile, i]
            + self.corner[i_tile, j_tile]
        )

    def sat_at_many(self, rs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sat_at`; entries with a negative index are 0.

        The negative-index convention makes rectangle inclusion-exclusion
        (``F(top-1, ...)`` at the matrix edge) branch-free for batches.
        """
        rs = np.asarray(rs, dtype=np.int64)
        cs = np.asarray(cs, dtype=np.int64)
        valid = (rs >= 0) & (cs >= 0)
        r = np.where(valid, rs, 0)
        c = np.where(valid, cs, 0)
        t = self.t
        i_tile, i = np.divmod(r, t)
        j_tile, j = np.divmod(c, t)
        vals = (
            self.local[i_tile, j_tile, i, j]
            + self.col_above[i_tile, j_tile, j]
            + self.row_left[i_tile, j_tile, i]
            + self.corner[i_tile, j_tile]
        )
        return np.where(valid, vals, np.zeros((), dtype=self.dtype))

    def materialize(self) -> np.ndarray:
        """The full SAT (logical shape) assembled from tile state.

        ``O(n^2)`` — for bulk consumers like whole-image filters; the
        query paths never call this.
        """
        full = (
            self.local
            + self.col_above[:, :, None, :]
            + self.row_left[:, :, :, None]
            + self.corner[:-1, :-1, None, None]
        )
        t = self.t
        out = full.transpose(0, 2, 1, 3).reshape(self.nb_r * t, self.nb_c * t)
        return out[: self.rows, : self.cols]

    def matrix(self) -> np.ndarray:
        """A copy of the current (updated) source matrix."""
        return self.raw2d[: self.rows, : self.cols].copy()

    @property
    def nbytes(self) -> int:
        return (
            self.raw.nbytes + self.local.nbytes + self.col_above.nbytes
            + self.row_left.nbytes + self.tot_col.nbytes + self.corner.nbytes
        )


class Dataset:
    """A named, updatable SAT dataset: value aggregates plus optional
    squared-value aggregates (for O(1) local mean/variance queries).

    Thread-safety: each dataset carries a reentrant lock; the update and
    query entry points in :mod:`repro.service.update` /
    :mod:`repro.service.queries` take it, so a server thread offloading
    ingest can coexist with event-loop queries.
    """

    __slots__ = ("name", "values", "squares", "tile", "lock", "_sat_cache")

    def __init__(self, name: str, matrix: np.ndarray, tile: int = DEFAULT_TILE,
                 *, track_squares: bool = False):
        matrix = np.asarray(matrix)
        self.name = name
        self.tile = int(tile)
        self.values = TileAggregates(matrix, tile)
        self.squares = (
            TileAggregates(
                np.square(matrix.astype(self.values.dtype, copy=False)), tile
            )
            if track_squares
            else None
        )
        self.lock = threading.RLock()
        self._sat_cache: Optional[Tuple[int, np.ndarray]] = None

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.values.rows, self.values.cols)

    @property
    def version(self) -> int:
        return self.values.version

    @property
    def nbytes(self) -> int:
        total = self.values.nbytes
        if self.squares is not None:
            total += self.squares.nbytes
        if self._sat_cache is not None:
            total += self._sat_cache[1].nbytes
        return total

    def padded_sat(self) -> np.ndarray:
        """The full SAT with a zero guard row/column, cached per version.

        This is the representation :mod:`repro.apps.filters` accepts as a
        precomputed SAT, so repeated whole-image filters on a served
        dataset pay the ``O(n^2)`` materialization once per update epoch,
        not once per call.
        """
        with self.lock:
            if self._sat_cache is None or self._sat_cache[0] != self.version:
                sat = self.values.materialize()
                padded = np.zeros(
                    (sat.shape[0] + 1, sat.shape[1] + 1), dtype=sat.dtype
                )
                padded[1:, 1:] = sat
                self._sat_cache = (self.version, padded)
            return self._sat_cache[1]

    # Convenience forwarding (implementations live in update.py/queries.py).

    def update_point(self, r: int, c: int, *, delta=None, value=None) -> None:
        from .update import point_update

        point_update(self, r, c, delta=delta, value=value)

    def update_region(self, top: int, left: int, values: np.ndarray) -> None:
        from .update import region_update

        region_update(self, top, left, values)

    def add_region(self, top: int, left: int, delta: np.ndarray) -> None:
        from .update import region_add

        region_add(self, top, left, delta)

    def region_sum(self, top: int, left: int, bottom: int, right: int):
        from .queries import region_sum

        return region_sum(self, top, left, bottom, right)


class TiledSATStore:
    """Named datasets behind a bounded LRU with byte accounting.

    ``capacity_bytes`` bounds the *sum* of resident dataset footprints
    (tile payloads + local SATs + aggregates + any cached materialized
    SAT). Admitting a dataset evicts least-recently-used others as
    needed; a dataset bigger than the whole capacity is refused with
    :class:`~repro.errors.ConfigurationError` rather than thrashing the
    store empty. All public methods are thread-safe.
    """

    def __init__(self, capacity_bytes: int = 256 * 1024 * 1024,
                 default_tile: int = DEFAULT_TILE):
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"store capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.default_tile = int(default_tile)
        self._datasets: "OrderedDict[str, Dataset]" = OrderedDict()
        self._lock = threading.RLock()
        self.evictions = 0

    # -- admission / lookup --------------------------------------------------

    def put(self, name: str, matrix: np.ndarray, *, tile: Optional[int] = None,
            track_squares: bool = False) -> Dataset:
        """Ingest (or replace) a dataset; may evict LRU datasets to fit."""
        ds = Dataset(
            name, matrix, tile or self.default_tile, track_squares=track_squares,
        )
        if ds.nbytes > self.capacity_bytes:
            raise ConfigurationError(
                f"dataset {name!r} needs {ds.nbytes} bytes; store capacity is "
                f"{self.capacity_bytes} (raise capacity_bytes or the tile size)"
            )
        with self._lock:
            self._datasets.pop(name, None)
            self._datasets[name] = ds
            self._evict_to_fit(keep=name)
            self._record_gauges()
        return ds

    def get(self, name: str) -> Dataset:
        """Fetch a dataset by name, marking it most-recently-used."""
        with self._lock:
            try:
                ds = self._datasets[name]
            except KeyError:
                raise UnknownDataset(
                    f"no dataset named {name!r} is resident (held: "
                    f"{list(self._datasets) or 'none'}); it may have been "
                    f"evicted — re-ingest it"
                ) from None
            self._datasets.move_to_end(name)
            return ds

    def drop(self, name: str) -> bool:
        """Remove a dataset; returns whether it was present."""
        with self._lock:
            present = self._datasets.pop(name, None) is not None
            self._record_gauges()
            return present

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def names(self) -> List[str]:
        """Resident dataset names, least- to most-recently used."""
        with self._lock:
            return list(self._datasets)

    # -- accounting ----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(ds.nbytes for ds in self._datasets.values())

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "datasets": len(self._datasets),
                "bytes": sum(ds.nbytes for ds in self._datasets.values()),
                "capacity_bytes": self.capacity_bytes,
                "evictions": self.evictions,
            }

    def _evict_to_fit(self, keep: str) -> None:
        used = sum(ds.nbytes for ds in self._datasets.values())
        while used > self.capacity_bytes:
            victim_name = next(iter(self._datasets))
            if victim_name == keep:  # everything else is already gone
                break
            victim = self._datasets.pop(victim_name)
            used -= victim.nbytes
            self.evictions += 1
            obs.inc("serving_store_evictions_total")

    def _record_gauges(self) -> None:
        if obs.is_enabled():
            obs.set_gauge(
                "serving_store_bytes",
                sum(ds.nbytes for ds in self._datasets.values()),
            )
            obs.set_gauge("serving_store_datasets", len(self._datasets))
