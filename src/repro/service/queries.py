"""Region queries answered from tile aggregates — ``O(tiles touched)``.

A rectangle sum over a served dataset is four corner evaluations of the
global SAT, each reconstructed from **one** tile's state (local SAT value
+ two edge-prefix entries + corner aggregate), so a query touches at most
four tiles no matter how large the dataset or the rectangle — the
memory-bound serving analogue of keeping the hot path off the ``O(n^2)``
table. Batched variants take ``(k, 4)`` / ``(k, 2)`` arrays and are what
the async server's micro-batcher executes: one vectorized gather for a
whole run of compatible requests.

Local statistics reuse the clamped-window convention of
:mod:`repro.apps.filters` (via :func:`clamped_window_bounds`), and the
whole-image filters accept the dataset's cached materialized SAT so a
served image pays its ``O(n^2)`` assembly once per update epoch rather
than once per filter call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..apps.filters import box_filter as _box_filter
from ..apps.filters import clamped_window_bounds
from ..errors import ConfigurationError, ShapeError
from ..obs import runtime as obs
from .store import Dataset

__all__ = [
    "box_filter",
    "local_stats",
    "local_stats_many",
    "region_mean",
    "region_sum",
    "region_sums",
]


def _check_rect(shape: Tuple[int, int], top, left, bottom, right) -> None:
    rows, cols = shape
    if not (0 <= top <= bottom < rows and 0 <= left <= right < cols):
        raise ShapeError(
            f"rectangle ({top},{left})-({bottom},{right}) outside dataset "
            f"of shape {shape}"
        )


def region_sum(ds: Dataset, top: int, left: int, bottom: int, right: int):
    """Sum of the inclusive rectangle — at most four corner-tile lookups."""
    _check_rect(ds.shape, top, left, bottom, right)
    with ds.lock:
        agg = ds.values
        total = agg.sat_at(bottom, right)
        if top > 0:
            total = total - agg.sat_at(top - 1, right)
        if left > 0:
            total = total - agg.sat_at(bottom, left - 1)
        if top > 0 and left > 0:
            total = total + agg.sat_at(top - 1, left - 1)
    obs.inc("serving_queries_total", kind="region_sum")
    return total


def region_sums(ds: Dataset, rects: np.ndarray) -> np.ndarray:
    """Vectorized :func:`region_sum` for a ``(k, 4)`` rectangle batch.

    Rows are ``(top, left, bottom, right)`` inclusive. This is the
    micro-batch execution path: one fancy-indexed gather over the tile
    aggregates answers the whole batch. A batch of one — what a
    lightly loaded server mostly forms — takes four scalar lookups
    instead, because the gather's fixed numpy cost is about ten times
    the lookups themselves.
    """
    rects = np.asarray(rects, dtype=np.int64)
    if rects.ndim != 2 or rects.shape[1] != 4:
        raise ShapeError(f"rects must have shape (k, 4), got {rects.shape}")
    if len(rects) == 1:
        return _region_sums_one(ds, *rects[0].tolist())
    top, left, bottom, right = rects.T
    rows, cols = ds.shape
    if (
        (top < 0).any() or (left < 0).any()
        or (top > bottom).any() or (left > right).any()
        or (bottom >= rows).any() or (right >= cols).any()
    ):
        raise ShapeError("some rectangles fall outside the dataset")
    with ds.lock:
        agg = ds.values
        out = (
            agg.sat_at_many(bottom, right)
            - agg.sat_at_many(top - 1, right)
            - agg.sat_at_many(bottom, left - 1)
            + agg.sat_at_many(top - 1, left - 1)
        )
    obs.inc("serving_queries_total", len(rects), kind="region_sum")
    return out


def _region_sums_one(ds: Dataset, top: int, left: int, bottom: int,
                     right: int) -> np.ndarray:
    """:func:`region_sums` of one rectangle, bitwise as the gather does it.

    The terms keep the vectorized expression's order, and a corner
    outside the matrix reads a dtype zero as ``sat_at_many``'s does:
    skipping the term instead would keep a ``-0.0`` total that the
    gather's ``+ 0.0`` turns into ``+0.0``. The arithmetic runs on a
    one-element array, as the gather's does, so integer wrap-around
    stays silent.
    """
    rows, cols = ds.shape
    if not (0 <= top <= bottom < rows and 0 <= left <= right < cols):
        raise ShapeError("some rectangles fall outside the dataset")
    with ds.lock:
        agg = ds.values
        zero = agg.dtype.type(0)
        out = (
            np.array([agg.sat_at(bottom, right)], dtype=agg.dtype)
            - (agg.sat_at(top - 1, right) if top > 0 else zero)
            - (agg.sat_at(bottom, left - 1) if left > 0 else zero)
            + (agg.sat_at(top - 1, left - 1) if top > 0 and left > 0 else zero)
        )
    obs.inc("serving_queries_total", kind="region_sum")
    return out


def region_mean(ds: Dataset, top: int, left: int, bottom: int, right: int) -> float:
    """Mean over the inclusive rectangle."""
    area = (bottom - top + 1) * (right - left + 1)
    return float(region_sum(ds, top, left, bottom, right)) / area


def local_stats(ds: Dataset, r: int, c: int, radius: int):
    """Clamped-window ``(mean, variance)`` around one pixel, ``O(1)``.

    Requires the dataset to track squared values
    (``track_squares=True`` at ingest) so ``E[x^2]`` is a region query
    too; without them the variance would need an ``O(window)`` scan,
    which is exactly what a serving path must not do.
    """
    mean, var = local_stats_many(ds, np.array([[r, c]]), radius)
    return float(mean[0]), float(var[0])


def local_stats_many(ds: Dataset, points: np.ndarray, radius: int):
    """Vectorized :func:`local_stats` for a ``(k, 2)`` batch of pixels."""
    if ds.squares is None:
        raise ConfigurationError(
            f"dataset {ds.name!r} does not track squared values; ingest it "
            f"with track_squares=True to serve local-stats queries"
        )
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ShapeError(f"points must have shape (k, 2), got {points.shape}")
    rows, cols = ds.shape
    rs, cs = points.T
    if (rs < 0).any() or (cs < 0).any() or (rs >= rows).any() or (cs >= cols).any():
        raise ShapeError("some points fall outside the dataset")
    top, bottom, left, right = clamped_window_bounds(ds.shape, rs, cs, radius)
    with ds.lock:
        def window_sums(agg):
            return (
                agg.sat_at_many(bottom, right)
                - agg.sat_at_many(top - 1, right)
                - agg.sat_at_many(bottom, left - 1)
                + agg.sat_at_many(top - 1, left - 1)
            )

        sums = window_sums(ds.values).astype(np.float64)
        sums_sq = window_sums(ds.squares).astype(np.float64)
    areas = ((bottom - top + 1) * (right - left + 1)).astype(np.float64)
    mean = sums / areas
    var = np.maximum(sums_sq / areas - mean * mean, 0.0)
    obs.inc("serving_queries_total", len(points), kind="local_stats")
    return mean, var


def box_filter(ds: Dataset, radius: int) -> np.ndarray:
    """Whole-image clamped box-mean over the dataset's *current* contents.

    Delegates to :func:`repro.apps.filters.box_filter` with the dataset's
    cached padded SAT — the SAT is materialized from tile state at most
    once per update epoch, never recomputed from pixels.
    """
    with ds.lock, obs.span("serving_query", kind="box_filter", dataset=ds.name):
        # The filter reads only the SAT; the image argument supplies the
        # shape, so a zero placeholder avoids reassembling the pixels.
        out = _box_filter(np.zeros(ds.shape), radius, sat=ds.padded_sat())
    obs.inc("serving_queries_total", kind="box_filter")
    return out
