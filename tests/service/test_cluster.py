"""The supervised worker cluster: protocol, checkpoints, crash recovery.

Most tests use the supervisor's *inline* mode — the same
:class:`~repro.service.cluster.ShardWorkerState` protocol machine the
real processes run, minus the pipes — so crash/restart/re-hydration
logic is exercised deterministically and fast. A small set of
process-mode tests at the end covers what inline cannot: real SIGKILL,
broken pipes, and the per-worker shared-memory load slab.
"""

import dataclasses
import pickle
import sys
import threading
import time
import zlib
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

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


def _load_worker(worker, store, ds, name="img", range_ids=None):
    """Install checkpoints into a bare ShardWorkerState, as load_shard would."""
    for i, rid in enumerate(range_ids or range(len(store.ranges(name)))):
        cp = store.payload_for(name, rid)
        meta = {
            "range_id": cp.range_id, "version": cp.version, "crc": cp.crc,
            "t": ds.values.t, "nb_c": ds.values.nb_c,
            "rows": ds.values.rows, "cols": ds.values.cols, "reset": i == 0,
        }
        reply = worker.handle(("load", name, meta, cp.blob))
        assert reply[0] == "ok", reply


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
    bad = bytearray(cp.blob)
    bad[len(bad) // 2] ^= 0xFF
    meta = {
        "range_id": 0, "version": cp.version, "crc": cp.crc,
        "t": ds.values.t, "nb_c": ds.values.nb_c,
        "rows": ds.values.rows, "cols": ds.values.cols, "reset": True,
    }
    worker = ShardWorkerState(0)
    status, detail = worker.handle(("load", "img", meta, bytes(bad)))
    assert status == "error" and "CRC" in detail
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
    store, _ranges = _checkpointed(ds)
    first = store.payload_for("img", 0)
    assert store.payload_for("img", 0) is first  # same version: cached
    assert store.rebuilds == 1
    ds.update_point(0, 0, delta=1.0)
    second = store.payload_for("img", 0)
    assert second is not first and second.version == ds.version
    assert store.rebuilds == 2
    # The rebuilt blob reflects the update and round-trips its CRC.
    assert zlib.crc32(second.blob) == second.crc
    state = pickle.loads(second.blob)
    assert state["local"][0, 0, 0] == ds.values.local[0, 0, 0, 0]


def test_checkpoint_store_unknown_dataset():
    store = CheckpointStore()
    with pytest.raises(UnknownDataset):
        store.dataset("ghost")
    with pytest.raises(UnknownDataset):
        store.payload_for("ghost", 0)


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
            blob=good.blob[:-1] + bytes([good.blob[-1] ^ 0xFF]),
            crc=good.crc,  # stale CRC: the worker must notice
        )
        with pytest.raises(CorruptionDetected):
            sup.load_shard(0, "img", tampered)
    finally:
        sup.stop()


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
    that consumes it, so every load passes its CRC and serves exactly."""
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
            good, blob=good.blob[:-1] + bytes([good.blob[-1] ^ 0xFF])
        )  # stale CRC: the worker must notice
        with pytest.raises(CorruptionDetected):
            sup.load_shard(0, "img", tampered, reset=True)
        assert sup.handles[0].slab is not None  # it did ride the slab
        assert sup.handles[0].state == DOWN
        info = sup._rpc_process(sup.handles[0], ("ping",), 5.0)[1]
        assert info["datasets"] == {}  # nothing half-installed
    finally:
        sup.stop()


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
