"""Region queries against numpy oracles."""

import numpy as np
import pytest

from repro.apps.filters import box_filter as apps_box_filter
from repro.errors import ConfigurationError, ShapeError
from repro.service.queries import (
    box_filter,
    local_stats,
    local_stats_many,
    region_mean,
    region_sum,
    region_sums,
)
from repro.service.store import Dataset


@pytest.fixture
def dataset(rng):
    return Dataset(
        "img", rng.integers(0, 100, size=(23, 17)).astype(np.float64), 5,
        track_squares=True,
    )


class TestRegionSum:
    def test_random_rects_exact(self, rng, dataset):
        a = dataset.values.matrix()
        for _ in range(50):
            top, bottom = sorted(rng.integers(0, 23, size=2))
            left, right = sorted(rng.integers(0, 17, size=2))
            got = region_sum(dataset, int(top), int(left), int(bottom), int(right))
            assert got == a[top:bottom + 1, left:right + 1].sum()

    def test_single_cell_and_full_matrix(self, dataset):
        a = dataset.values.matrix()
        assert region_sum(dataset, 4, 4, 4, 4) == a[4, 4]
        assert region_sum(dataset, 0, 0, 22, 16) == a.sum()

    def test_bad_rect_rejected(self, dataset):
        for rect in [(5, 0, 4, 0), (0, 5, 0, 4), (-1, 0, 0, 0), (0, 0, 23, 0)]:
            with pytest.raises(ShapeError):
                region_sum(dataset, *rect)

    def test_region_mean(self, dataset):
        a = dataset.values.matrix()
        assert region_mean(dataset, 2, 3, 6, 9) == pytest.approx(a[2:7, 3:10].mean())


class TestRegionSums:
    def test_batch_matches_scalar_path(self, rng, dataset):
        rects = []
        for _ in range(20):
            top, bottom = sorted(rng.integers(0, 23, size=2))
            left, right = sorted(rng.integers(0, 17, size=2))
            rects.append((int(top), int(left), int(bottom), int(right)))
        batch = region_sums(dataset, np.array(rects))
        for rect, got in zip(rects, batch):
            assert got == region_sum(dataset, *rect)

    def test_edge_touching_rects_branch_free(self, dataset):
        a = dataset.values.matrix()
        rects = np.array([[0, 0, 5, 5], [0, 3, 4, 16], [7, 0, 22, 2]])
        got = region_sums(dataset, rects)
        for (t, l, b, r), v in zip(rects, got):
            assert v == a[t:b + 1, l:r + 1].sum()

    def test_shape_validation(self, dataset):
        with pytest.raises(ShapeError):
            region_sums(dataset, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ShapeError):
            region_sums(dataset, np.array([[0, 0, 99, 0]]))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_one_rect_is_bitwise_the_batched_answer(self, rng, dtype):
        """A batch of one takes scalar lookups; its answer, dtype included,
        must equal the same rectangle answered inside a larger batch."""
        a = rng.integers(-100, 100, size=(23, 17))
        if dtype is not np.int64:
            a = a * 0.37
        ds = Dataset("img", a.astype(dtype), 5)
        other = np.array([3, 4, 20, 15])
        rects = [(0, 0, 0, 0), (0, 0, 22, 16), (0, 6, 9, 12), (7, 0, 19, 3),
                 (4, 5, 11, 13)]
        for rect in rects:
            one = region_sums(ds, np.array([rect]))
            pair = region_sums(ds, np.array([rect, other]))
            assert one.dtype == pair.dtype == ds.values.dtype
            assert one.tobytes() == pair[:1].tobytes(), rect


class TestLocalStats:
    def test_matches_window_oracle(self, rng, dataset):
        a = dataset.values.matrix()
        for _ in range(25):
            r, c = int(rng.integers(23)), int(rng.integers(17))
            radius = int(rng.integers(0, 6))
            win = a[max(0, r - radius):r + radius + 1,
                    max(0, c - radius):c + radius + 1]
            mean, var = local_stats(dataset, r, c, radius)
            assert mean == pytest.approx(win.mean())
            assert var == pytest.approx(win.var(), abs=1e-8)

    def test_many_matches_scalar(self, rng, dataset):
        points = np.column_stack([rng.integers(0, 23, 10), rng.integers(0, 17, 10)])
        means, vars_ = local_stats_many(dataset, points, 2)
        for (r, c), m, v in zip(points, means, vars_):
            sm, sv = local_stats(dataset, int(r), int(c), 2)
            assert m == sm and v == sv

    def test_requires_squares(self, rng):
        ds = Dataset("plain", rng.random((8, 8)), 4)  # no track_squares
        with pytest.raises(ConfigurationError, match="track_squares"):
            local_stats(ds, 2, 2, 1)

    def test_out_of_bounds_point_rejected(self, dataset):
        with pytest.raises(ShapeError):
            local_stats(dataset, 23, 0, 1)

    def test_variance_never_negative(self, dataset):
        points = np.array([[r, c] for r in range(0, 23, 3) for c in range(0, 17, 3)])
        _, var = local_stats_many(dataset, points, 4)
        assert (var >= 0).all()


class TestBoxFilter:
    def test_matches_apps_filter_on_current_contents(self, rng, dataset):
        a = dataset.values.matrix()
        assert np.allclose(box_filter(dataset, 3), apps_box_filter(a, 3))

    def test_reflects_updates(self, dataset):
        before = box_filter(dataset, 2).copy()
        dataset.update_point(5, 5, delta=1000.0)
        after = box_filter(dataset, 2)
        assert not np.allclose(before, after)
        assert np.allclose(after, apps_box_filter(dataset.values.matrix(), 2))
