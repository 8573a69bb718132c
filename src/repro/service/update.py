"""Incremental updates for :class:`~repro.service.store.Dataset`.

A point update at ``(r, c)`` dirties one ``t x t`` tile; everything else
that depends on it is an accumulation-chain *suffix*: ``col_above``
below it in its tile column, ``row_left`` right of it in its tile row,
and the corner-aggregate quadrant below-right. The re-fold recomputes
exactly those suffixes, seeded with stored prefix values — the same
floating-point addition order a full rebuild performs, so the updated
dataset is **bit-identical** to a fresh
:class:`~repro.service.store.TileAggregates` of the updated matrix (and
its materialized SAT bit-matches ``sat_reference`` wherever the chains'
arithmetic is exact, e.g. all integer-valued data).

Work per point update: ``O(t^2)`` for the tile's local SAT plus
``O((n/t) t)`` for the two edge chains and ``O((n/t)^2)`` for the corner
quadrant — at ``n = 1024, t = 64`` about 2^12 + 2^14 elements versus the
2^20 a full recompute touches (the >= 10x wall-clock gate lives in
``benchmarks/bench_serving.py``). Region updates generalize to the
bounding tile box of the region.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from ..obs import runtime as obs
from .store import Dataset

__all__ = ["point_update", "region_add", "region_update"]


def _check_point(ds: Dataset, r: int, c: int) -> None:
    rows, cols = ds.shape
    if not (0 <= r < rows and 0 <= c < cols):
        raise ShapeError(f"point ({r}, {c}) outside dataset of shape {ds.shape}")


def _as_region(ds: Dataset, top: int, left: int, block: np.ndarray) -> np.ndarray:
    block = np.asarray(block)
    if block.ndim != 2 or 0 in block.shape:
        raise ShapeError(f"region payload must be non-empty 2-D, got {block.shape}")
    rows, cols = ds.shape
    bottom = top + block.shape[0] - 1
    right = left + block.shape[1] - 1
    if not (0 <= top <= bottom < rows and 0 <= left <= right < cols):
        raise ShapeError(
            f"region ({top},{left})-({bottom},{right}) outside dataset "
            f"of shape {ds.shape}"
        )
    return block


def _patch_raw(agg, top: int, left: int, block: np.ndarray, *, add: bool):
    """Write ``block`` into ``agg.raw2d`` (set or +=); returns the tile box."""
    bottom = top + block.shape[0] - 1
    right = left + block.shape[1] - 1
    dst = agg.raw2d[top : bottom + 1, left : right + 1]
    if add:
        dst += block.astype(agg.dtype, copy=False)
    else:
        dst[...] = block
    t = agg.t
    return top // t, left // t, bottom // t, right // t


def point_update(ds: Dataset, r: int, c: int, *,
                 delta=None, value=None) -> None:
    """Set (``value=``) or adjust (``delta=``) one element.

    Exactly one of ``delta`` / ``value`` must be given. ``O(t^2 +
    (n/t)^2 + (n/t) t)`` — one tile re-SAT plus the downstream chain
    suffixes.
    """
    if (delta is None) == (value is None):
        raise ShapeError("pass exactly one of delta= / value=")
    _check_point(ds, r, c)
    t = ds.values.t
    i_tile, i = divmod(r, t)
    j_tile, j = divmod(c, t)
    with ds.lock, obs.span("serving_update", kind="point", dataset=ds.name):
        if value is None:
            value = ds.values.raw[i_tile, j_tile, i, j] + delta
        ds.values.raw[i_tile, j_tile, i, j] = value
        ds.values.refold(i_tile, j_tile, i_tile, j_tile)
        if ds.squares is not None:
            ds.squares.raw[i_tile, j_tile, i, j] = np.square(
                ds.values.raw[i_tile, j_tile, i, j]
            )
            ds.squares.refold(i_tile, j_tile, i_tile, j_tile)
        obs.inc("serving_updates_total", kind="point")


def region_update(ds: Dataset, top: int, left: int, values: np.ndarray) -> None:
    """Overwrite the rectangle anchored at ``(top, left)`` with ``values``."""
    _apply_region(ds, top, left, values, add=False)


def region_add(ds: Dataset, top: int, left: int, delta: np.ndarray) -> None:
    """Add ``delta`` elementwise to the rectangle anchored at ``(top, left)``."""
    _apply_region(ds, top, left, delta, add=True)


def _apply_region(ds: Dataset, top: int, left: int, block: np.ndarray, *,
                  add: bool) -> None:
    block = _as_region(ds, top, left, block)
    with ds.lock, obs.span(
        "serving_update", kind="region", dataset=ds.name,
        cells=int(block.size),
    ):
        i0, j0, i1, j1 = _patch_raw(ds.values, top, left, block, add=add)
        ds.values.refold(i0, j0, i1, j1)
        if ds.squares is not None:
            # Re-square the touched tiles from the updated values so the
            # squares aggregates stay exactly what a fresh build of
            # square(matrix) would hold.
            box = ds.values.raw[i0 : i1 + 1, j0 : j1 + 1]
            ds.squares.raw[i0 : i1 + 1, j0 : j1 + 1] = np.square(box)
            ds.squares.refold(i0, j0, i1, j1)
        obs.inc("serving_updates_total", kind="region")
