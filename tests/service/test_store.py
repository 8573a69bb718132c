"""TileAggregates construction and the bounded LRU store."""

import asyncio
import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError, UnknownDataset
from repro.sat.reference import sat_reference
from repro.service.server import SATServer
from repro.service.store import Dataset, TileAggregates, TiledSATStore


def _padded_construction(matrix, t):
    """The tile build by way of a zero-padded copy, with every aggregate
    folded from scratch: the reference the direct tile-aligned build
    must match bit for bit."""
    rows, cols = matrix.shape
    nb_r, nb_c = -(-rows // t), -(-cols // t)
    dtype = np.cumsum(np.zeros(1, dtype=matrix.dtype)).dtype
    padded = np.zeros((nb_r * t, nb_c * t), dtype=dtype)
    padded[:rows, :cols] = matrix
    raw = np.ascontiguousarray(
        padded.reshape(nb_r, t, nb_c, t).transpose(0, 2, 1, 3)
    )
    local = np.cumsum(np.cumsum(raw, axis=2), axis=3)
    col_above = np.zeros((nb_r, nb_c, t), dtype=dtype)
    col_above[1:] = np.cumsum(local[:-1, :, t - 1, :], axis=0)
    row_left = np.zeros((nb_r, nb_c, t), dtype=dtype)
    row_left[:, 1:] = np.cumsum(local[:, :-1, :, t - 1], axis=1)
    tot_col = np.cumsum(local[:, :, t - 1, t - 1], axis=0)
    corner = np.zeros((nb_r + 1, nb_c + 1), dtype=dtype)
    corner[1:, 1:] = np.cumsum(tot_col, axis=1)
    return {"raw": raw, "local": local, "col_above": col_above,
            "row_left": row_left, "tot_col": tot_col, "corner": corner}


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32, np.float64, np.bool_])
@pytest.mark.parametrize("shape", [(64, 64), (64, 72), (1, 37), (37, 1)])
def test_tile_build_is_bit_identical_to_the_padded_construction(rng, dtype, shape):
    if dtype is np.bool_:
        m = rng.integers(0, 2, size=shape).astype(bool)
    elif np.issubdtype(dtype, np.floating):
        m = (rng.standard_normal(shape) * 10).astype(dtype)
        m[:8, :8] = -0.0  # a whole tile of -0.0 keeps -0.0 sums
        m.flat[::7] = -0.0
    else:
        m = rng.integers(-99, 100, size=shape).astype(dtype)
    agg = TileAggregates(m, 8)
    for name, want in _padded_construction(m, 8).items():
        got = getattr(agg, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), name


class TestTileAggregates:
    @pytest.mark.parametrize("shape,tile", [
        ((8, 8), 4), ((7, 11), 3), ((1, 9), 4), ((9, 1), 2),
        ((16, 16), 16), ((5, 5), 8), ((1, 1), 1), ((12, 4), 5),
    ])
    def test_materialize_matches_reference(self, rng, shape, tile):
        a = rng.integers(-99, 99, size=shape).astype(np.float64)
        agg = TileAggregates(a, tile)
        assert np.array_equal(agg.materialize(), sat_reference(a))

    def test_materialize_float_close(self, rng):
        a = rng.standard_normal((17, 23))
        agg = TileAggregates(a, 4)
        assert np.allclose(agg.materialize(), sat_reference(a))

    def test_matrix_roundtrip(self, rng):
        a = rng.standard_normal((10, 13))
        agg = TileAggregates(a, 4)
        assert np.array_equal(agg.matrix(), a)

    def test_sat_at_is_reference_value(self, rng):
        a = rng.integers(0, 50, size=(14, 9)).astype(np.float64)
        agg = TileAggregates(a, 4)
        ref = sat_reference(a)
        for r, c in [(0, 0), (3, 3), (13, 8), (4, 7), (7, 0)]:
            assert agg.sat_at(r, c) == ref[r, c]

    def test_sat_at_many_negative_indices_are_zero(self, rng):
        a = rng.integers(0, 9, size=(6, 6)).astype(np.float64)
        agg = TileAggregates(a, 4)
        vals = agg.sat_at_many(np.array([-1, 0, 5]), np.array([2, -1, 5]))
        assert vals[0] == 0 and vals[1] == 0 and vals[2] == a.sum()

    def test_dtype_follows_cumsum_promotion(self):
        agg = TileAggregates(np.ones((4, 4), dtype=np.int32), 2)
        assert agg.dtype == np.cumsum(np.ones(1, dtype=np.int32)).dtype
        assert TileAggregates(np.ones((4, 4), dtype=np.float32), 2).dtype == np.float32

    def test_rejects_bad_shapes_and_tiles(self):
        with pytest.raises(ShapeError):
            TileAggregates(np.ones(3), 2)
        with pytest.raises(ShapeError):
            TileAggregates(np.ones((0, 4)), 2)
        with pytest.raises(ConfigurationError):
            TileAggregates(np.ones((4, 4)), 0)


class TestDataset:
    def test_padded_sat_cached_until_update(self, rng):
        a = rng.integers(0, 9, size=(9, 9)).astype(np.float64)
        ds = Dataset("d", a, 4)
        first = ds.padded_sat()
        assert ds.padded_sat() is first  # same epoch: cached object
        ds.update_point(2, 2, delta=1.0)
        second = ds.padded_sat()
        assert second is not first
        assert np.array_equal(second[1:, 1:], sat_reference(ds.values.matrix()))

    def test_nbytes_counts_squares_and_cache(self, rng):
        a = rng.integers(0, 9, size=(8, 8)).astype(np.float64)
        plain = Dataset("d", a, 4)
        squares = Dataset("d", a, 4, track_squares=True)
        assert squares.nbytes > plain.nbytes
        before = squares.nbytes
        squares.padded_sat()
        assert squares.nbytes > before


class TestTiledSATStore:
    def test_get_unknown_raises_typed_error(self):
        store = TiledSATStore()
        with pytest.raises(UnknownDataset, match="no dataset named 'ghost'"):
            store.get("ghost")

    def test_put_get_roundtrip_marks_mru(self, rng):
        store = TiledSATStore()
        store.put("a", rng.integers(0, 9, size=(8, 8)), tile=4)
        store.put("b", rng.integers(0, 9, size=(8, 8)), tile=4)
        assert store.names() == ["a", "b"]
        store.get("a")
        assert store.names() == ["b", "a"]

    def test_lru_eviction_under_byte_pressure(self, rng):
        one = Dataset("x", rng.integers(0, 9, size=(16, 16)), 4)
        store = TiledSATStore(capacity_bytes=int(one.nbytes * 2.5))
        for name in ("a", "b", "c"):
            store.put(name, rng.integers(0, 9, size=(16, 16)), tile=4)
        assert store.names() == ["b", "c"]  # oldest evicted
        assert store.evictions == 1
        assert store.nbytes <= store.capacity_bytes
        with pytest.raises(UnknownDataset):
            store.get("a")

    def test_get_refreshes_lru_order_for_eviction(self, rng):
        one = Dataset("x", rng.integers(0, 9, size=(16, 16)), 4)
        store = TiledSATStore(capacity_bytes=int(one.nbytes * 2.5))
        store.put("a", rng.integers(0, 9, size=(16, 16)), tile=4)
        store.put("b", rng.integers(0, 9, size=(16, 16)), tile=4)
        store.get("a")  # now b is LRU
        store.put("c", rng.integers(0, 9, size=(16, 16)), tile=4)
        assert store.names() == ["a", "c"]

    def test_oversized_dataset_refused(self, rng):
        store = TiledSATStore(capacity_bytes=1024)
        with pytest.raises(ConfigurationError, match="capacity"):
            store.put("big", rng.integers(0, 9, size=(64, 64)), tile=8)
        assert "big" not in store

    def test_replacement_keeps_one_copy(self, rng):
        store = TiledSATStore()
        store.put("a", rng.integers(0, 9, size=(8, 8)), tile=4)
        ds = store.put("a", rng.integers(0, 9, size=(12, 12)), tile=4)
        assert store.names() == ["a"]
        assert store.get("a") is ds

    def test_drop(self, rng):
        store = TiledSATStore()
        store.put("a", rng.integers(0, 9, size=(8, 8)), tile=4)
        assert store.drop("a") and not store.drop("a")
        assert store.stats()["datasets"] == 0

    def test_stats_accounting(self, rng):
        store = TiledSATStore(capacity_bytes=10**9)
        store.put("a", rng.integers(0, 9, size=(8, 8)), tile=4)
        s = store.stats()
        assert s["datasets"] == 1
        assert s["bytes"] == store.get("a").nbytes
        assert s["capacity_bytes"] == 10**9


# --- datasets that are not float64 stay bit-exact through every entry ---
#
# Each test builds through the store's one tile build and checks it bit for
# bit: none of these dtypes may take a float64 round trip anywhere.

#: Past 2**53 an int64 loses bits in a float64 round trip.
BIG = 2**60 + 1


def _assert_same_state(got, want):
    for name in ("raw", "local", "col_above", "row_left", "tot_col", "corner"):
        a = getattr(got, name)
        b = want[name] if isinstance(want, dict) else getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


def _non_float64_matrices(rng, n):
    """A float32 matrix whose float64 tile sums round differently, and an
    int64 one that a float64 round trip cannot hold."""
    return {
        "float32": (rng.standard_normal((n, n)) * 100).astype(np.float32),
        "int64": np.full((n, n), BIG, dtype=np.int64),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int32, np.bool_,
                                   np.complex128])
def test_backends_are_never_handed_other_dtypes(rng, dtype):
    """Ingest keeps cumsum's dtype, and updates re-fold in it: an updated
    dataset equals a fresh build of its updated matrix, bit for bit."""
    m = rng.integers(0, 2, size=(12, 12)).astype(dtype)
    ds = Dataset("d", m, 4)
    _assert_same_state(ds.values, _padded_construction(m, 4))
    ds.update_point(5, 6, delta=1)
    ds.add_region(2, 3, np.ones((6, 5), dtype=dtype))
    _assert_same_state(ds.values, TileAggregates(ds.values.matrix(), 4))


def test_store_put_auto_keeps_non_float64_bit_identical(rng):
    store = TiledSATStore()
    for name, m in _non_float64_matrices(rng, 64).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no lossy cast
            ds = store.put(name, m, tile=32)
        _assert_same_state(ds.values, _padded_construction(m, 32))
    assert store.get("int64").region_sum(0, 0, 1, 1) == 4 * BIG


def test_server_session_ingest_keeps_non_float64_bit_identical(rng):
    matrices = _non_float64_matrices(rng, 16)

    async def main():
        async with SATServer(TiledSATStore()) as server:
            for name, m in matrices.items():
                await server.ingest(name, m, tile=8)
            response = await server.region_sum("int64", 0, 0, 1, 1)
            return server.store, response.value

    store, value = asyncio.run(main())
    assert value == 4 * BIG
    for name, m in matrices.items():
        _assert_same_state(store.get(name).values, _padded_construction(m, 8))


def test_update_backend_keeps_non_float64_bit_identical(rng):
    for name, m in _non_float64_matrices(rng, 16).items():
        ds = Dataset(name, m, 8)
        ds.update_point(1, 1, delta=m.dtype.type(1))
        ds.add_region(3, 2, np.full((9, 7), 3, dtype=m.dtype))
        _assert_same_state(ds.values, TileAggregates(ds.values.matrix(), 8))
        if name == "int64":
            assert ds.region_sum(0, 0, 1, 1) == 4 * BIG + 1
