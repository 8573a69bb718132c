"""The supervised worker cluster: protocol, checkpoints, crash recovery.

Most tests use the supervisor's *inline* mode — the same
:class:`~repro.service.cluster.ShardWorkerState` protocol machine the
real processes run, minus the pipes — so crash/restart/re-hydration
logic is exercised deterministically and fast. A small set of
process-mode tests at the end covers what inline cannot: real SIGKILL,
broken pipes, and the per-worker shared-memory load slab.
"""

import dataclasses
import sys
import threading
import time
import tracemalloc
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionDetected, UnknownDataset, WorkerUnavailable
from repro.service import cluster as cluster_module
from repro.service.cluster import (
    ALIVE,
    DOWN,
    CheckpointStore,
    LookupRing,
    RingUnavailable,
    ShardCheckpoint,
    ShardWorkerState,
    WorkerSupervisor,
    checkpoint_checksum,
    read_checkpoint,
    write_checkpoint,
    _pack_lookup_request,
    _pack_lookup_response,
    _unpack_lookup_request,
    _unpack_lookup_response,
)
from repro.service.queries import region_sum as local_region_sum
from repro.service.router import ShardRouter, make_placement
from repro.service.store import Dataset
from repro.util.backoff import ExponentialBackoff, FakeClock

TILE = 8


def _dataset(rng, n=32, name="img"):
    a = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
    return Dataset(name, a, TILE)


def _checkpointed(ds):
    """A CheckpointStore holding ``ds`` split into two ranges."""
    store = CheckpointStore()
    nb = ds.values.nb_r * ds.values.nb_c
    ranges = [(lo, hi) for (lo, hi), _ in make_placement(nb, 2, replicas=1)]
    store.register(ds, ranges)
    return store, ranges


def _meta(ds, range_id, reset):
    """The load message's meta, as load_shard builds it."""
    return {"range_id": range_id, "version": ds.version,
            "nb_c": ds.values.nb_c, "reset": reset}


def _load_worker(worker, store, ds, name="img", range_ids=None):
    """Install checkpoints into a bare ShardWorkerState, as load_shard would."""
    for i, rid in enumerate(range_ids or range(len(store.ranges(name)))):
        cp = store.payload_for(name, rid)
        reply = worker.handle(("load", name, _meta(ds, rid, i == 0), cp.blob))
        assert reply[0] == "ok", reply


def _flip_bit(blob, bit):
    """A copy of ``blob`` with one bit flipped."""
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# --- worker protocol ----------------------------------------------------------


def test_worker_ping_reports_epoch_and_datasets(rng):
    worker = ShardWorkerState(3, epoch=7)
    ok, info = worker.handle(("ping",))
    assert ok == "ok"
    assert info["worker"] == 3 and info["epoch"] == 7 and info["datasets"] == {}


def test_worker_lookup_matches_local_sat(rng):
    ds = _dataset(rng)
    store, _ranges = _checkpointed(ds)
    worker = ShardWorkerState(0)
    _load_worker(worker, store, ds)
    points = [(int(r), int(c)) for r, c in rng.integers(0, 32, size=(16, 2))]
    ok, (values, version) = worker.handle(("lookup", "img", points))
    assert ok == "ok" and version == ds.version
    for (r, c), got in zip(points, values):
        assert got == ds.values.sat_at(r, c)  # bitwise: same addition order


def test_worker_rejects_corrupt_checkpoint(rng):
    ds = _dataset(rng)
    store, _ranges = _checkpointed(ds)
    cp = store.payload_for("img", 0)
    bad = _flip_bit(cp.blob, 4 * len(cp.blob))  # a bit mid-payload
    worker = ShardWorkerState(0)
    status, _detail = worker.handle(("load", "img", _meta(ds, 0, True), bad))
    assert status == "corrupt"
    assert worker.datasets == {}  # nothing half-installed


def test_worker_delta_applies_only_owned_tiles(rng):
    ds = _dataset(rng)
    store, ranges = _checkpointed(ds)
    worker = ShardWorkerState(0)
    _load_worker(worker, store, ds, range_ids=[0])  # first range only
    ds.update_point(1, 1, delta=5.0)  # tile (0,0) = lin 0, inside range 0
    comps = ds.values.shard_delta(0, 0, 0, 0)
    ok, version = worker.handle(("delta", "img", ds.version, comps))
    assert ok == "ok" and version == ds.version
    ok, (values, _v) = worker.handle(("lookup", "img", [(1, 1)]))
    assert ok == "ok" and values[0] == ds.values.sat_at(1, 1)


def test_worker_lookup_outside_shards_is_an_error_not_a_guess(rng):
    ds = _dataset(rng)
    store, ranges = _checkpointed(ds)
    worker = ShardWorkerState(0)
    _load_worker(worker, store, ds, range_ids=[0])
    (lo, hi) = ranges[1]
    r = (lo // ds.values.nb_c) * TILE  # a point in the uninstalled range
    c = (lo % ds.values.nb_c) * TILE
    status, detail = worker.handle(("lookup", "img", [(r, c)]))
    assert status == "error" and "outside this worker" in detail


def test_worker_unknown_op_and_unknown_dataset(rng):
    worker = ShardWorkerState(0)
    assert worker.handle(("warp", 1))[0] == "error"
    assert worker.handle(("lookup", "ghost", [(0, 0)]))[0] == "error"
    assert worker.handle(("delta", "ghost", 1, {}))[0] == "error"
    assert worker.handle(("drop", "ghost"))[0] == "ok"  # drop is idempotent


# --- checkpoint store ---------------------------------------------------------


def test_checkpoints_are_cached_until_the_version_moves(rng):
    ds = _dataset(rng)
    store, ranges = _checkpointed(ds)
    first = store.payload_for("img", 0)
    assert store.payload_for("img", 0) is first  # same version: cached
    assert store.rebuilds == 1
    ds.update_point(0, 0, delta=1.0)
    second = store.payload_for("img", 0)
    assert second is not first and second.version == ds.version
    assert store.rebuilds == 2
    # The rebuilt checkpoint reflects the update and passes verification.
    t, block = read_checkpoint(second.blob, ds.version)
    assert t == TILE and (block.lo, block.hi) == ranges[0]
    assert block.local[0, 0, 0] == ds.values.local[0, 0, 0, 0]
    with pytest.raises(CorruptionDetected):
        read_checkpoint(first.blob, ds.version)  # built at the old version


def test_checkpoint_store_unknown_dataset():
    store = CheckpointStore()
    with pytest.raises(UnknownDataset):
        store.dataset("ghost")
    with pytest.raises(UnknownDataset):
        store.payload_for("ghost", 0)


# --- flat checkpoint format ---------------------------------------------------


def _reference_checksum(data: bytes):
    """The checksum pair by its definition, in Python integers."""
    words = [int.from_bytes(data[i:i + 8], sys.byteorder)
             for i in range(0, len(data), 8)]
    block = cluster_module._SUM_BLOCK
    return (sum(words) % 2**64,
            sum((i // block + 1) * w for i, w in enumerate(words)) % 2**64)


@pytest.mark.parametrize("n_words", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_checkpoint_checksum_matches_its_definition(rng, n_words):
    words = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
    data = words.tobytes()
    assert checkpoint_checksum(data) == _reference_checksum(data)
    padded = b"\xff" * 16 + data
    assert checkpoint_checksum(padded, 16) == _reference_checksum(data)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64, np.complex128])
def test_flat_checkpoint_round_trips_bitwise(rng, dtype):
    # Tile 5 puts the float32 sections off the 8-byte grid (padding).
    m = (rng.standard_normal((23, 31)) * 10).astype(dtype)
    ds = Dataset("img", m, 5)
    lo, hi = 3, 20
    blob = write_checkpoint(ds.values.shard_arrays(lo, hi), lo=lo, hi=hi,
                            version=ds.version)
    assert len(blob) % 8 == 0 and blob.readonly
    t, block = read_checkpoint(blob, ds.version)
    assert (t, block.lo, block.hi) == (5, lo, hi)
    got = (block.local, block.col, block.row, block.corner)
    for array, want in zip(got, ds.values.shard_arrays(lo, hi)):
        assert array.dtype == want.dtype and array.shape == want.shape
        assert array.tobytes() == np.ascontiguousarray(want).tobytes()
        assert array.flags.owndata and array.flags.writeable  # copied out


def _tile_major_checkpoint(ds, lo, hi):
    """The checkpoint packed from contiguous tile-major copies of the
    shard's arrays, as a tile-major store laid them out."""
    agg = ds.values
    k, t = agg.nb_r * agg.nb_c, agg.t
    i, j = np.divmod(np.arange(lo, hi), agg.nb_c)
    arrays = (
        np.ascontiguousarray(agg.local).reshape(k, t, t)[lo:hi],
        np.ascontiguousarray(agg.col_above).reshape(k, t)[lo:hi],
        np.ascontiguousarray(agg.row_left).reshape(k, t)[lo:hi],
        np.ascontiguousarray(agg.corner[i, j]),
    )
    return write_checkpoint(arrays, lo=lo, hi=hi, version=ds.version)


def test_packing_a_range_copies_that_range_not_the_grid(rng):
    """A range's tiles are one view per tile row of the row-major local
    SATs; packing them is the checkpoint's one copy. A gather through
    ``reshape(k, t, t)`` would copy the whole 8 MiB grid first."""
    ds = Dataset("img", rng.integers(0, 256, size=(1024, 1024)).astype(np.float64), 64)
    ds.update_point(700, 300, delta=5.0)
    # Ranges that start and end mid tile row (16 tiles per row).
    ranges = [(0, 37), (37, 200), (200, 256)]
    store = CheckpointStore()
    store.register(ds, ranges)
    for range_id, (lo, hi) in enumerate(ranges):
        tracemalloc.start()
        try:
            blob = store.payload_for("img", range_id).blob
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(blob) + 64 * 1024
        assert bytes(blob) == bytes(_tile_major_checkpoint(ds, lo, hi))


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex128])
@pytest.mark.parametrize("shape,tile", [((23, 31), 5), ((8, 40), 8), ((40, 3), 4)])
def test_checkpoint_bytes_match_the_tile_major_packing(rng, dtype, shape, tile):
    ds = Dataset("img", (rng.standard_normal(shape) * 10).astype(dtype), tile)
    ds.add_region(0, 1, np.ones((3, 2), dtype=dtype))
    k = ds.values.nb_r * ds.values.nb_c
    for lo, hi in [(0, k), (0, 1), (k - 1, k), (1, k - 1), (k // 3, 2 * k // 3)]:
        blob = write_checkpoint(ds.values.shard_arrays(lo, hi), lo=lo, hi=hi,
                                version=ds.version)
        assert bytes(blob) == bytes(_tile_major_checkpoint(ds, lo, hi))


def test_read_checkpoint_leaves_no_view_of_its_buffer(rng):
    """A load reads straight from the slab; a view that outlived it would
    make the memoryview's release raise BufferError."""
    ds = _dataset(rng)
    store, _ranges = _checkpointed(ds)
    good = bytearray(store.payload_for("img", 0).blob)
    with memoryview(good) as view:
        _t, block = read_checkpoint(view, ds.version)
    bad = bytearray(_flip_bit(good, 8 * 100))
    with memoryview(bad) as view:
        with pytest.raises(CorruptionDetected):
            read_checkpoint(view, ds.version)
    good[:] = bytes(len(good))  # the installed arrays are copies
    assert block.local[0, 0, 0] == ds.values.local[0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(fault=st.sampled_from(["flip", "truncate", "stale"]),
       reingest=st.booleans(), data=st.data())
def test_flat_checkpoint_faults_are_typed_and_change_nothing(fault, reingest, data):
    """One flipped bit anywhere (header included), a truncation at any
    length, or a checkpoint presented under a version it was not built
    at: each load raises CorruptionDetected and leaves the worker as it
    was — nothing installed for a fresh name, the previous version still
    served bit-exact for a re-ingest."""
    rng = np.random.default_rng(7)
    old, new = (
        Dataset("img", rng.integers(-50, 50, size=(32, 32)).astype(np.float64), TILE)
        for _ in range(2)
    )
    whole = [(0, old.values.nb_r * old.values.nb_c)]
    sup = WorkerSupervisor(1, inline=True, auto_restart=False)
    try:
        if reingest:
            sup.checkpoints.register(old, whole)
            sup.load_shard(0, "img", sup.checkpoints.payload_for("img", 0), reset=True)
        sup.checkpoints.register(new, whole)
        cp = sup.checkpoints.payload_for("img", 0)
        if fault == "flip":
            bit = data.draw(st.integers(0, 8 * len(cp.blob) - 1), label="bit")
            cp = dataclasses.replace(cp, blob=_flip_bit(cp.blob, bit))
        elif fault == "truncate":
            cut = data.draw(st.integers(0, len(cp.blob) - 1), label="length")
            cp = dataclasses.replace(cp, blob=bytes(cp.blob[:cut]))
        else:
            new.update_point(3, 3, delta=1.0)  # cp now predates the dataset
        with pytest.raises(CorruptionDetected):
            sup.load_shard(0, "img", cp, reset=True)
        assert sup.handles[0].state == DOWN
        worker = sup.handles[0].inline_state
        if not reingest:
            assert worker.datasets == {}
            return
        pts = [(r, c) for r in range(0, 32, 5) for c in range(0, 32, 7)]
        ok, (values, version) = worker.handle(("lookup", "img", pts))
        assert ok == "ok" and version == old.version
        assert values == [old.values.sat_at(r, c).item() for r, c in pts]
    finally:
        sup.stop()


# --- supervisor (inline mode) -------------------------------------------------


def test_inline_crash_detection_and_auto_restart(rng):
    sup = WorkerSupervisor(3, inline=True)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        router.ingest("img", a, tile=TILE)
        sup.kill_worker(1)
        # kill_worker leaves detection to the real paths: the handle still
        # *claims* alive until an RPC or health pass touches the corpse.
        assert sup.handles[1].state == ALIVE
        sup.check_health()
        # One pass detects the death; auto_restart re-hydrates on a fresh
        # epoch (inline restart happens within the same pass or the next).
        assert sup.wait_healthy(2.0)
        assert sup.handles[1].epoch == 1
        assert sup.restarts_total == 1
        info = sup.rpc(1, ("ping",))
        assert info["epoch"] == 1 and "img" in info["datasets"]
    finally:
        router.close()


def test_restarted_worker_serves_from_checkpoints_bit_exactly(rng):
    sup = WorkerSupervisor(2, inline=True, auto_restart=False)
    router = ShardRouter(sup, replicas=1)  # no replicas: restart must work
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        ds.update_point(9, 9, delta=4.0)  # direct update: checkpoint is stale
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))
        assert sup.handles[0].state == DOWN
        assert sup.restart(0)
        assert sup.handles[0].state == ALIVE and sup.handles[0].epoch == 1
        # Re-hydration pulled a checkpoint at the *current* version.
        values, version = sup.rpc(0, ("lookup", "img", [(9, 9)]))
        assert version == ds.version
        assert values[0] == ds.values.sat_at(9, 9)
    finally:
        router.close()


def test_restart_gives_up_after_max_attempts(rng, monkeypatch):
    clock = FakeClock()
    sup = WorkerSupervisor(
        2, inline=True, auto_restart=False, clock=clock,
        max_restart_attempts=3,
        restart_backoff=ExponentialBackoff(base=0.01, factor=2.0, cap=1.0),
    )
    try:
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))

        def explode(handle):
            raise WorkerUnavailable("spawn always fails")

        monkeypatch.setattr(sup, "_rehydrate", explode)
        assert not sup.restart(0)
        assert sup.handles[0].state == DOWN
        # Deterministic backoff schedule between the three attempts.
        assert clock.sleeps == [0.01, 0.02, 0.04]
    finally:
        sup.stop()


def test_load_shard_crc_rejection_raises_corruption_detected(rng):
    sup = WorkerSupervisor(1, inline=True)
    try:
        ds = _dataset(rng)
        store, ranges = _checkpointed(ds)
        sup.checkpoints.register(ds, ranges)
        good = sup.checkpoints.payload_for("img", 0)
        tampered = ShardCheckpoint(
            range_id=good.range_id, lo=good.lo, hi=good.hi,
            version=good.version,
            blob=_flip_bit(good.blob, 8 * len(good.blob) - 1),
        )  # stale checksum: the worker must notice
        with pytest.raises(CorruptionDetected):
            sup.load_shard(0, "img", tampered)
        assert sup.handles[0].state == DOWN
    finally:
        sup.stop()


def test_ingest_with_a_corrupt_owner_load_still_publishes_the_route(
        rng, monkeypatch):
    """Regression: a corrupt load on one owner used to escape ingest after
    the dataset was registered but before its route was published, so the
    remaining ranges reached no owner and every later query raised
    ConfigurationError. The owner is now left down for recovery."""
    sup = WorkerSupervisor(2, inline=True, auto_restart=False)
    router = ShardRouter(sup, replicas=2)
    real = sup._rpc_inline
    armed = [True]

    def tamper(handle, msg):
        if armed[0] and msg[0] == "load" and handle.worker_id == 1:
            msg = msg[:3] + (_flip_bit(msg[3], 8 * 200 + 5),)
        return real(handle, msg)

    monkeypatch.setattr(sup, "_rpc_inline", tamper)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        assert sup.handles[1].state == DOWN
        for rect in [(0, 0, 31, 31), (5, 7, 20, 22), (16, 0, 31, 15), (9, 9, 12, 12)]:
            assert router.region_sum("img", *rect) == local_region_sum(ds, *rect)
        assert router.counters["degraded"] == 0  # worker 0 got every range
        armed[0] = False
        assert sup.restart(1)
        pts = [(r, c) for r in range(0, 32, 3) for c in range(0, 32, 5)]
        values, version = sup.rpc(1, ("lookup", "img", pts))
        assert version == ds.version
        assert values == [ds.values.sat_at(r, c).item() for r, c in pts]
    finally:
        router.close()


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype,tile,inline", [
    (np.int64, TILE, True),
    (np.float32, 5, True),
    (np.float64, TILE, True),
    (np.float32, 5, False),
])
def test_cluster_answers_match_the_single_store_bitwise(rng, dtype, tile, inline):
    """After ingest, after updates, and after every worker restarted and
    re-hydrated from checkpoints."""
    if np.issubdtype(dtype, np.integer):
        a = rng.integers(-50, 50, size=(23, 31)).astype(dtype)
    else:
        a = (rng.standard_normal((23, 31)) * 10).astype(dtype)
    ref = Dataset("ref", a, tile)
    rects = [(0, 0, 22, 30), (3, 4, 17, 25), (10, 0, 22, 14), (7, 7, 7, 7)]
    sup = WorkerSupervisor(2, inline=inline, auto_restart=False)
    router = ShardRouter(sup, replicas=2)

    def check():
        for rect in rects:
            assert _same_bits(router.region_sum("img", *rect),
                              local_region_sum(ref, *rect)), rect
        assert router.counters["degraded"] == 0

    try:
        router.ingest("img", a, tile=tile)
        check()
        router.update_point("img", 4, 6, value=dtype(3))
        ref.update_point(4, 6, value=dtype(3))
        patch = np.full((4, 3), 2, dtype=dtype)
        router.update_region("img", 12, 20, patch)
        ref.update_region(12, 20, patch)
        check()
        for w in range(sup.workers):
            sup.kill_worker(w)
            with pytest.raises(WorkerUnavailable):
                sup.rpc(w, ("ping",))
            assert sup.restart(w)
        check()
    finally:
        router.close()


def test_supervisor_stats_shape(rng):
    with WorkerSupervisor(2, inline=True) as sup:
        stats = sup.stats()
        assert stats["workers"] == 2 and stats["alive"] == 2
        assert stats["restarts"] == 0 and stats["failures"] == 0
        assert set(stats["states"]) == {0, 1}


# --- process mode (real crashes, real pipes) ----------------------------------


def test_process_worker_sigkill_detected_and_restarted(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))  # broken pipe -> marked down
        assert sup.handles[0].state == DOWN
        assert sup.restart(0)
        assert sup.handles[0].epoch == 1
        values, _v = sup.rpc(0, ("lookup", "img", [(31, 31)]))
        assert values[0] == ds.values.sat_at(31, 31)
    finally:
        router.close()


def test_process_loads_reuse_one_slab_and_growth_unlinks_it(
        rng, created_shm):
    """Same-size loads to one worker share one load slab; a bigger
    checkpoint grows it into one new segment and unlinks the old one."""
    created, real = created_shm
    sup = WorkerSupervisor(1)
    router = ShardRouter(sup, replicas=1)
    try:
        created.clear()  # count from here: the spawn made the lookup ring
        for _ in range(3):
            a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
            ds = router.ingest("img", a, tile=TILE)
            values, _v = sup.rpc(0, ("lookup", "img", [(31, 31)]))
            assert values[0] == ds.values.sat_at(31, 31)
        assert len(created) == 1 and sup.handles[0].slab.name == created[0]

        big = rng.integers(-50, 50, size=(96, 96)).astype(np.float64)
        ds = router.ingest("big", big, tile=TILE)
        values, _v = sup.rpc(0, ("lookup", "big", [(95, 95)]))
        assert values[0] == ds.values.sat_at(95, 95)
        assert len(created) == 2 and sup.handles[0].slab.name == created[1]
        with pytest.raises(FileNotFoundError):
            real(name=created[0])
    finally:
        router.close()


def test_process_restart_and_stop_unlink_retired_slabs(rng):
    sup = WorkerSupervisor(1)
    router = ShardRouter(sup, replicas=1)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        first = sup.handles[0].slab.name
        sup.kill_worker(0)
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("ping",))  # broken pipe -> marked down
        assert sup.restart(0)
        second = sup.handles[0].slab.name  # the re-hydration's fresh slab
        assert second != first
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=first)
        values, _v = sup.rpc(0, ("lookup", "img", [(31, 31)]))
        assert values[0] == ds.values.sat_at(31, 31)
    finally:
        router.close()
    assert sup.handles[0].slab is None
    with pytest.raises(FileNotFoundError):
        SharedMemory(name=second)


def test_process_concurrent_loads_never_tear_the_slab(rng):
    """Loads from more threads than cores share one worker's slab, which
    grows mid-stream; the RPC lock keeps each slab write with the read
    that consumes it, so every load passes its checksum and serves
    exactly."""
    sup = WorkerSupervisor(1)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        datasets = []
        for k, n in enumerate((32, 40, 48, 56, 64, 80)):
            a = rng.integers(-50, 50, size=(n, n)).astype(np.float64)
            ds = Dataset(f"d{k}", a, TILE)
            sup.checkpoints.register(ds, [(0, ds.values.nb_r * ds.values.nb_c)])
            datasets.append(ds)
        errors = []

        def loader(ds):
            try:
                cp = sup.checkpoints.payload_for(ds.name, 0)
                for _ in range(10):
                    sup.load_shard(0, ds.name, cp, reset=True)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=loader, args=(ds,)) for ds in datasets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for ds in datasets:
            n = ds.shape[0]
            values, _v = sup.rpc(0, ("lookup", ds.name, [(n - 1, n - 1)]))
            assert values[0] == ds.values.sat_at(n - 1, n - 1)
    finally:
        sys.setswitchinterval(previous)
        sup.stop()


def test_process_tampered_checkpoint_through_the_slab_is_rejected(rng):
    sup = WorkerSupervisor(1)
    try:
        ds = _dataset(rng)
        _store, ranges = _checkpointed(ds)
        sup.checkpoints.register(ds, ranges)
        good = sup.checkpoints.payload_for("img", 0)
        tampered = dataclasses.replace(
            good, blob=_flip_bit(good.blob, 8 * len(good.blob) - 1)
        )  # stale checksum: the worker must notice
        with pytest.raises(CorruptionDetected):
            sup.load_shard(0, "img", tampered, reset=True)
        assert sup.handles[0].slab is not None  # it did ride the slab
        assert sup.handles[0].state == DOWN
        info = sup._rpc_process(sup.handles[0], ("ping",), 5.0)[1]
        assert info["datasets"] == {}  # nothing half-installed
    finally:
        sup.stop()


def test_process_owner_killed_mid_load_during_ingest(rng, monkeypatch):
    """SIGKILL one owner after its slab write and before its load reply:
    the ingest still publishes the route, the other owner serves, the
    victim re-hydrates bit-exact, and no slab outlives stop()."""
    sup = WorkerSupervisor(2, auto_restart=False)
    router = ShardRouter(sup, replicas=2)
    real_exchange = sup._exchange
    killed = []

    def exchange(handle, msg, timeout):
        if msg[0] == "load" and handle.worker_id == 1 and not killed:
            killed.append(handle.slab.name)  # written, not yet read
            handle.process.kill()
            handle.process.join(timeout=2.0)
        return real_exchange(handle, msg, timeout)

    monkeypatch.setattr(sup, "_exchange", exchange)
    slabs = []
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        assert killed and sup.handles[1].state == DOWN
        for rect in [(0, 0, 31, 31), (5, 7, 20, 22), (16, 0, 31, 15)]:
            assert router.region_sum("img", *rect) == local_region_sum(ds, *rect)
        assert router.counters["degraded"] == 0
        assert sup.restart(1)
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=killed[0])  # retired with the dead epoch
        pts = np.array([[r, c] for r in range(0, 32, 3) for c in (0, 17, 31)],
                       dtype=np.int64)
        values, version = sup.rpc(1, ("lookup", "img", pts))
        assert version == ds.version
        assert np.array_equal(values, [ds.values.sat_at(r, c) for r, c in pts])
        slabs = [h.slab.name for h in sup.handles]
    finally:
        router.close()
    assert all(h.slab is None for h in sup.handles)
    for name in slabs:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


def test_monitor_thread_recovers_a_killed_worker(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        sup.start_monitor()
        sup.kill_worker(1)
        # wait_healthy alone is not enough right after a SIGKILL — the
        # corpse still *claims* alive until a heartbeat touches it. The
        # epoch bump is the proof the monitor detected and restarted it.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and sup.handles[1].epoch < 1:
            time.sleep(0.01)
        assert sup.handles[1].epoch >= 1
        assert sup.wait_healthy(10.0)
        values, _v = sup.rpc(1, ("lookup", "img", [(0, 0)]))
        assert values[0] == ds.values.sat_at(0, 0)
    finally:
        router.close()


# --- shared-memory lookup ring ------------------------------------------------


def test_ring_codec_roundtrips_points_and_values():
    pts = np.array([[0, 0], [7, 31], [120, 3]], dtype=np.int64)
    name, got = _unpack_lookup_request(_pack_lookup_request("img", pts))
    assert name == "img" and np.array_equal(got, pts)
    empty_name, empty = _unpack_lookup_request(
        _pack_lookup_request("squares", np.empty((0, 2), dtype=np.int64))
    )
    assert empty_name == "squares" and empty.shape == (0, 2)
    for values in (
        np.array([1.5, -2.5, 1e300], dtype=np.float64),
        np.arange(-3, 3, dtype=np.int64),
        np.array([0.25], dtype=np.float32),
    ):
        got_v, version = _unpack_lookup_response(_pack_lookup_response(values, 7))
        assert version == 7
        assert got_v.dtype == values.dtype
        assert np.array_equal(got_v, values)


def test_lookup_ring_serves_and_rejects_oversized_payloads():
    ring = LookupRing.create(slots=2, slot_payload=64)
    server = LookupRing.attach(ring.name)
    stop = threading.Event()

    def serve_loop():
        while not stop.is_set():
            if server.serve(lambda payload: (0, payload[::-1])) == 0:
                time.sleep(0.001)

    t = threading.Thread(target=serve_loop, daemon=True)
    t.start()
    try:
        status, resp = ring.request(b"doorbell", timeout=5.0)
        assert status == 0 and resp == b"llebrood"
        # A payload that cannot fit any slot is refused up front, so the
        # supervisor can fall back to the pipe instead of blocking.
        with pytest.raises(RingUnavailable):
            ring.request(b"x" * 65, timeout=1.0)
    finally:
        stop.set()
        t.join()
        server.close()
        ring.retire()


def test_process_bulk_lookup_rides_the_ring(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    if not sup.use_ring:
        pytest.skip("ring transport needs the fork start method")
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        # More points than the scalar/pipe cutoff: bulk batches always
        # take the ring, whatever the host's CPU count.
        pts = np.array(
            [[r, c] for r in range(0, 32, 4) for c in (0, 31)], dtype=np.int64
        )
        assert len(pts) > 8
        values, _v = sup.rpc(0, ("lookup", "img", pts))
        want = np.array([ds.values.sat_at(r, c) for r, c in pts])
        assert np.array_equal(values, want)
        assert sum(sup.stats()["ring_lookups"].values()) >= 1
    finally:
        router.close()


def test_process_oversized_ring_batch_falls_back_to_the_pipe(rng):
    # Slots too small for even the request header + 16 points: every
    # bulk lookup must quietly detour over the pipe and still be exact.
    sup = WorkerSupervisor(1, heartbeat_interval=0.02, ring_slot_bytes=64)
    if not sup.use_ring:
        pytest.skip("ring transport needs the fork start method")
    router = ShardRouter(sup, replicas=1)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        pts = np.array(
            [[r, c] for r in range(0, 32, 4) for c in (1, 30)], dtype=np.int64
        )
        values, _v = sup.rpc(0, ("lookup", "img", pts))
        want = np.array([ds.values.sat_at(r, c) for r, c in pts])
        assert np.array_equal(values, want)
        assert sup.handles[0].state == ALIVE  # fallback is not a failure
        assert sup.stats()["pipe_lookups"][0] >= 1
        assert sup.stats()["ring_lookups"][0] == 0
    finally:
        router.close()


def test_process_use_ring_false_serves_over_the_pipe(rng):
    sup = WorkerSupervisor(1, heartbeat_interval=0.02, use_ring=False)
    router = ShardRouter(sup, replicas=1)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        assert sup.handles[0].ring is None
        pts = np.array(
            [[r, c] for r in range(0, 32, 4) for c in (0, 31)], dtype=np.int64
        )
        values, _v = sup.rpc(0, ("lookup", "img", pts))
        want = np.array([ds.values.sat_at(r, c) for r, c in pts])
        assert np.array_equal(values, want)
        assert sum(sup.stats()["ring_lookups"].values()) == 0
    finally:
        router.close()


def test_process_tiny_pipe_lookup_preserves_dataset_dtype(rng):
    """Regression: the tiny list-encoded pipe path must restore the
    dataset dtype. Rebuilding float32 corners as float64 made
    region_sum stitch at the wrong precision *and* return the wrong
    dtype — and only on the pipe, so results depended on the transport.
    """
    sup = WorkerSupervisor(2, heartbeat_interval=0.02, use_ring=False)
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float32)
        ds = router.ingest("img", a, tile=TILE)
        pts = np.array([[3, 3], [9, 9], [31, 31]], dtype=np.int64)
        values, _v = sup.rpc(0, ("lookup", "img", pts))  # tiny: list wire
        assert values.dtype == np.float32
        for (r, c), got in zip(pts, values):
            assert got == ds.values.sat_at(r, c)
        # End-to-end: scalar region_sum (which sums raw corner values)
        # must match the local oracle bit-for-bit, dtype included.
        for top, left, bottom, right in [(0, 0, 31, 31), (5, 7, 20, 22),
                                         (9, 9, 12, 12), (0, 3, 3, 30)]:
            got = router.region_sum("img", top, left, bottom, right)
            want = local_region_sum(ds, top, left, bottom, right)
            assert got == want
            assert np.asarray(got).dtype == np.asarray(want).dtype
        assert router.counters["degraded"] == 0
    finally:
        router.close()


def test_ring_is_disabled_on_weakly_ordered_machines(monkeypatch):
    """The ring's fence-free publication protocol assumes x86-TSO; on
    any other machine the supervisor must keep lookups on the pipe."""
    monkeypatch.setattr(cluster_module, "_RING_TSO_SAFE", False)
    sup = WorkerSupervisor(1, heartbeat_interval=0.02, use_ring=True)
    try:
        assert not sup.use_ring
        assert sup.handles[0].ring is None
        assert sup.handles[0].doorbell_w == -1
    finally:
        sup.stop()


def test_process_ring_lookup_fails_fast_when_worker_dies(rng):
    sup = WorkerSupervisor(2, heartbeat_interval=0.02)
    if not sup.use_ring:
        pytest.skip("ring transport needs the fork start method")
    router = ShardRouter(sup, replicas=2)
    try:
        a = rng.integers(-50, 50, size=(32, 32)).astype(np.float64)
        ds = router.ingest("img", a, tile=TILE)
        pts = np.array(
            [[r, c] for r in range(0, 32, 4) for c in (0, 31)], dtype=np.int64
        )
        sup.kill_worker(0)
        # The ring client must notice the corpse (dead doorbell or the
        # alive() probe) well before the 5s RPC timeout, not spin it out.
        t0 = time.monotonic()
        with pytest.raises(WorkerUnavailable):
            sup.rpc(0, ("lookup", "img", pts))
        assert time.monotonic() - t0 < 4.0
        assert sup.handles[0].state == DOWN
        assert sup.restart(0)
        values, _v = sup.rpc(0, ("lookup", "img", pts))
        want = np.array([ds.values.sat_at(r, c) for r, c in pts])
        assert np.array_equal(values, want)
    finally:
        router.close()
