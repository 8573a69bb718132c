"""Supervised worker cluster for sharded SAT serving.

The paper's 2R1W decomposition gives every tile a self-contained serving
record — local SAT, two edge-prefix vectors, one corner scalar — so a
*contiguous range of row-major tile indices* is a natural shard: a worker
process holding that range answers the global SAT value ``F(r, c)`` for
any point inside its tiles with no other state. This module owns the
process side of that design; routing policy (placement, failover,
circuit breaking) lives in :mod:`repro.service.router`.

Three pieces:

* :class:`ShardWorkerState` — the worker-side state machine: install a
  checksum-verified shard checkpoint, apply update deltas, answer point
  lookups. It is transport-agnostic, so the same code runs inside a real
  worker process (``_worker_main``) and inline in the supervisor's
  process (``inline=True``), which is what the deterministic router
  tests drive.
* :class:`CheckpointStore` — the durable tier the cluster recovers from:
  the authoritative :class:`~repro.service.store.Dataset` per name plus
  lazily rebuilt *flat* shard checkpoints, one per range and version: a
  fixed header (format tag, dtype, tile side, tile range, dataset
  version, payload length, checksum) followed by the shard's raw arrays.
  The checksum is a Fletcher-style pair over uint64 words — a plain sum
  and a block-position-weighted sum, both mod 2^64 — computed once when
  the checkpoint is built. A restarted worker re-hydrates from here, and
  the router's degraded mode answers from the authoritative matrix when
  a whole range is dark.
* :class:`WorkerSupervisor` — owns the pool: spawn, heartbeat health
  checks, crash detection (a failed RPC *or* missed pings), automatic
  restart with :class:`~repro.util.backoff.ExponentialBackoff` pacing,
  and re-hydration of every shard the restarted worker is assigned.

Shard checkpoints cross the process boundary through one persistent
:mod:`multiprocessing.shared_memory` *load slab* per worker epoch (the
:mod:`repro.sat.batch` slab pattern, through the same
:mod:`repro.util.slab` helpers): the supervisor creates it at the
epoch's first load, grows it geometrically when a bigger checkpoint
arrives, and retires it with the epoch's lookup ring when the worker is
restarted or stopped. A load copies the whole checkpoint into the slab
in one copy and sends only ``(slab name, nbytes)``; the worker keeps the
slab attached between loads, so neither side pays a fresh segment's
page faults per load. The worker checks the header and recomputes the
checksum over the exact slab bytes, then copies the arrays out and
installs them; neither side pickles. A torn, truncated or tampered
checkpoint, or one built at a version other than the authoritative
one, is answered with a ``"corrupt"`` reply that the supervisor raises
as :class:`~repro.errors.CorruptionDetected` — it is never served, and
nothing the worker already holds is touched. The slab write and its
load RPC hold the worker's RPC lock together. A load that fails or
times out marks the worker down (or fails the restart attempt that
issued it), and the restart that makes the worker loadable again brings
a new slab, so a late reader never sees its bytes rewritten. Inline
workers receive the checkpoint buffer directly.

Hot *lookup* traffic takes a fourth piece, :class:`LookupRing`: a
fixed-slot shared-memory request/response ring per worker (raw int64
point batches in, raw value arrays out — no pickle on either side), with
a 1-byte doorbell pipe so an idle worker blocks instead of busy-polling.
The control pipe stays the fallback for oversized or slot-starved
requests and everything that is not a lookup.

Consistency contract: shard installs and update pushes are serialized by
the supervisor's topology lock, so a worker is only marked alive when
its state matches the authoritative version; queries never take that
lock (a mid-rehydration query simply fails over).
"""

from __future__ import annotations

import logging
import os
import platform
import selectors
import struct
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, CorruptionDetected, UnknownDataset, WorkerUnavailable
from ..obs import runtime as obs
from ..util.backoff import Clock, ExponentialBackoff, SystemClock
from ..util.slab import Attached, attach_slab, detach_slabs, grow_slab, release_slab
from .store import Dataset, TileRange

__all__ = [
    "CheckpointStore",
    "LookupRing",
    "RingUnavailable",
    "ShardCheckpoint",
    "ShardWorkerState",
    "WorkerSupervisor",
    "checkpoint_checksum",
    "read_checkpoint",
    "write_checkpoint",
]

logger = logging.getLogger("repro.service.cluster")

#: Worker states, supervisor-side.
ALIVE = "alive"
DOWN = "down"
RESTARTING = "restarting"

#: Lookup-ring geometry. Eight slots cover the router's fan-out
#: concurrency comfortably (≤ 4 corner groups in flight per worker plus
#: coalesced batches); 128 KiB of request payload fits the coalescer's
#: default 4096-point batch (16 bytes/point) with room for the name.
#: Point batches at or under this size take scalar (non-vectorized)
#: serving and list (non-ndarray) pipe encoding: a single rectangle's
#: <= 4 corners does not amortize numpy's and pickle's fixed costs.
_SCALAR_LOOKUP_MAX = 8

RING_SLOTS = 8
RING_SLOT_PAYLOAD = 128 * 1024

#: The lookup ring's lock-free publication protocol (payload and meta
#: stores issued before a single-byte state flip, reads only after
#: observing it) is sound only under x86-TSO store ordering. On weakly
#: ordered machines (aarch64, ppc64le, ...) a worker could observe
#: REQUEST before the payload bytes land and decode a torn request, so
#: hot lookups stay on the pipe there.
_RING_TSO_SAFE = platform.machine().lower() in (
    "x86_64", "amd64", "i686", "i586", "i486", "i386", "x86",
)


# =============================================================================
# Worker side
# =============================================================================


@dataclass
class _ShardBlock:
    """One installed shard: per-tile serving state for lins ``[lo, hi)``."""

    lo: int
    hi: int
    local: np.ndarray   # (k, t, t)
    col: np.ndarray     # (k, t)
    row: np.ndarray     # (k, t)
    corner: np.ndarray  # (k,)


@dataclass
class _WorkerDataset:
    """A worker's view of one dataset: geometry + its installed shards."""

    t: int
    nb_c: int
    version: int
    blocks: Dict[int, _ShardBlock] = field(default_factory=dict)  # range_id ->


class ShardWorkerState:
    """The transport-agnostic worker state machine.

    ``handle(msg) -> reply`` implements the whole protocol; both the real
    process loop and the supervisor's inline mode call it. Messages are
    tuples ``(op, *args)``; replies are ``("ok", payload)``,
    ``("error", detail)``, or ``("corrupt", detail)`` for a shard
    checkpoint that failed verification — a worker never lets an
    exception escape its loop (the supervisor treats a dead pipe, not a
    reply, as a crash).
    """

    def __init__(self, worker_id: int, epoch: int = 0):
        self.worker_id = worker_id
        self.epoch = epoch
        self.datasets: Dict[str, _WorkerDataset] = {}

    # -- protocol -------------------------------------------------------------

    def handle(self, msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
        op = msg[0]
        try:
            if op == "ping":
                return ("ok", {
                    "worker": self.worker_id,
                    "epoch": self.epoch,
                    "datasets": {n: d.version for n, d in self.datasets.items()},
                })
            if op == "load":
                return self._load(*msg[1:])
            if op == "delta":
                return self._delta(*msg[1:])
            if op == "lookup":
                return self._lookup(*msg[1:])
            if op == "lookup_t":
                return self._lookup_tiny(*msg[1:])
            if op == "drop":
                self.datasets.pop(msg[1], None)
                return ("ok", None)
            return ("error", f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — reply, don't die
            return ("error", f"{type(exc).__name__}: {exc}")

    def _load(self, name: str, meta: Dict[str, Any], blob) -> Tuple[Any, ...]:
        # ``blob`` is bytes inline and a view of the load slab in a worker
        # process. It is verified in full before any state changes, so a
        # rejected load leaves what the worker already serves in place.
        try:
            t, block = read_checkpoint(blob, meta["version"])
        except CorruptionDetected as exc:
            return ("corrupt",
                    f"shard checkpoint for {name!r} range {meta['range_id']}: {exc}")
        ds = self.datasets.get(name)
        if ds is None or meta["reset"]:
            ds = _WorkerDataset(t=t, nb_c=meta["nb_c"], version=meta["version"])
            self.datasets[name] = ds
        ds.blocks[meta["range_id"]] = block
        ds.version = meta["version"]
        return ("ok", meta["version"])

    def _delta(self, name: str, version: int,
               components: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> Tuple[Any, ...]:
        ds = self.datasets.get(name)
        if ds is None:
            return ("error", f"no dataset {name!r} installed on this worker")
        for block in ds.blocks.values():
            for comp, (lins, values) in components.items():
                mask = (lins >= block.lo) & (lins < block.hi)
                if not mask.any():
                    continue
                k = lins[mask] - block.lo
                getattr(block, comp)[k] = values[mask]
        ds.version = version
        return ("ok", version)

    def _lookup(self, name: str, points) -> Tuple[Any, ...]:
        if isinstance(points, list) and len(points) <= _SCALAR_LOOKUP_MAX:
            reply = self._lookup_tiny(name, points)
            if reply[0] != "ok":
                return reply
            out, version, _dtype = reply[1]
            return ("ok", (out, version))
        pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        ok, payload = self._lookup_values(name, pts)
        if not ok:
            return ("error", payload)
        values, version = payload
        if isinstance(points, np.ndarray):
            return ("ok", (values, version))
        # Pipe callers send plain point lists and index the reply like one.
        return ("ok", (values.tolist(), version))

    def _lookup_tiny(self, name: str, points) -> Tuple[Any, ...]:
        """List-wire tiny-batch lookup: ``("ok", (values, version, dtype))``.

        Tiny pipe-encoded batches skip numpy entirely: building and
        tearing down (k, 2) arrays costs more than the lookups. Values
        travel as Python floats (``.item()`` round-trips every bit), but
        that alone loses the dataset dtype — a float32 corner rebuilt as
        float64 stitches at the wrong precision router-side. The dtype
        tag lets the supervisor restore the exact serving dtype, keeping
        the pipe path bit-identical to the ring and ndarray paths.
        """
        ds = self.datasets.get(name)
        if ds is None:
            return ("error", f"no dataset {name!r} installed on this worker")
        out = []
        dtype: Optional[str] = None
        for r, c in points:
            i_tile, i = divmod(r, ds.t)
            j_tile, j = divmod(c, ds.t)
            lin = i_tile * ds.nb_c + j_tile
            for block in ds.blocks.values():
                if block.lo <= lin < block.hi:
                    k = lin - block.lo
                    # Same addition order as TileAggregates.sat_at.
                    value = (block.local[k, i, j] + block.col[k, j]
                             + block.row[k, i] + block.corner[k])
                    if dtype is None:
                        dtype = value.dtype.str
                    out.append(value.item())
                    break
            else:
                return ("error",
                        f"tile {lin} of {name!r} is outside this worker's "
                        f"shards — routing bug or stale placement")
        return ("ok", (out, ds.version, dtype))

    def _lookup_values(self, name: str,
                       pts: np.ndarray) -> Tuple[bool, Any]:
        """Vectorized point-batch SAT lookup: ``(True, (values, version))``.

        ``pts`` is ``(k, 2)`` int64 row/col pairs. Errors come back as
        ``(False, message)`` so both the pipe protocol and the ring
        transport can wrap them in their own envelopes.
        """
        ds = self.datasets.get(name)
        if ds is None:
            return (False, f"no dataset {name!r} installed on this worker")
        if len(pts) == 0:
            return (True, (np.zeros(0, dtype=np.float64), ds.version))
        if len(pts) <= _SCALAR_LOOKUP_MAX:
            return self._lookup_values_scalar(ds, name, pts)
        i_tile, i = np.divmod(pts[:, 0], ds.t)
        j_tile, j = np.divmod(pts[:, 1], ds.t)
        lins = i_tile * ds.nb_c + j_tile
        out: Optional[np.ndarray] = None
        unserved = np.ones(len(pts), dtype=bool)
        for block in ds.blocks.values():
            mask = (lins >= block.lo) & (lins < block.hi)
            if not mask.any():
                continue
            k = lins[mask] - block.lo
            # Same addition order as TileAggregates.sat_at — the stitched
            # answer must be bit-identical to the single-store path.
            values = (block.local[k, i[mask], j[mask]] + block.col[k, j[mask]]
                      + block.row[k, i[mask]] + block.corner[k])
            if out is None:
                out = np.zeros(len(pts), dtype=values.dtype)
            out[mask] = values
            unserved[mask] = False
        if unserved.any():
            lin = int(lins[unserved][0])
            return (False,
                    f"tile {lin} of {name!r} is outside this worker's "
                    f"shards — routing bug or stale placement")
        assert out is not None  # len(pts) >= 1 and all points served
        return (True, (out, ds.version))

    def _lookup_values_scalar(self, ds: "_WorkerDataset", name: str,
                              pts: np.ndarray) -> Tuple[bool, Any]:
        """Scalar-indexed variant of :meth:`_lookup_values` for tiny batches.

        A handful of points (a single rectangle's corners) does not
        amortize the vectorized path's fixed numpy cost; plain indexing
        is ~2x faster per RPC. Same addition order, so the values are
        bit-identical with the vectorized path.
        """
        t = ds.t
        blocks = ds.blocks.values()
        vals: List[Any] = []
        for r, c in pts:
            i_tile, i = divmod(int(r), t)
            j_tile, j = divmod(int(c), t)
            lin = i_tile * ds.nb_c + j_tile
            for block in blocks:
                if block.lo <= lin < block.hi:
                    k = lin - block.lo
                    vals.append(block.local[k, i, j] + block.col[k, j]
                                + block.row[k, i] + block.corner[k])
                    break
            else:
                return (False,
                        f"tile {lin} of {name!r} is outside this worker's "
                        f"shards — routing bug or stale placement")
        out = np.empty(len(vals), dtype=vals[0].dtype)
        out[:] = vals
        return (True, (out, ds.version))


def _worker_main(worker_id: int, epoch: int, conn,
                 ring_name: Optional[str] = None,
                 doorbell_fd: Optional[int] = None) -> None:
    """Entry point of a shard worker process: recv → handle → send.

    With a lookup ring attached, the loop blocks on *both* the control
    pipe and the ring's doorbell pipe — a doorbell byte means "scan the
    ring", so hot lookups are served at shared-memory speed while the
    worker still costs nothing when idle (no busy polling).
    """
    state = ShardWorkerState(worker_id, epoch)
    ring = LookupRing.attach(ring_name) if ring_name is not None else None
    slabs: Attached = {}  # this epoch's load slab, attached once
    sel = None
    if ring is not None and doorbell_fd is not None:
        # One selector for the process's lifetime — building one per
        # message (what multiprocessing.connection.wait does) costs more
        # than a small lookup itself.
        sel = selectors.DefaultSelector()
        sel.register(conn, selectors.EVENT_READ)
        sel.register(doorbell_fd, selectors.EVENT_READ)
    try:
        while True:
            if sel is not None:
                try:
                    ready = {key.fileobj for key, _ in sel.select(1.0)}
                except (OSError, KeyboardInterrupt):
                    break
                if doorbell_fd in ready:
                    try:
                        os.read(doorbell_fd, 65536)  # drain pending doorbells
                    except OSError:
                        pass
                    ring.serve(lambda payload: _serve_ring_lookup(state, payload))
                if conn not in ready:
                    continue
            try:
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            if msg[0] == "shutdown":
                try:
                    conn.send(("ok", None))
                except (BrokenPipeError, OSError):
                    pass
                break
            reply = (_load_from_slab(state, slabs, msg) if msg[0] == "load"
                     else state.handle(msg))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        detach_slabs(slabs)
        if ring is not None:
            ring.close()


def _load_from_slab(state: ShardWorkerState, slabs: Attached,
                    msg: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Serve a ``load`` whose checkpoint blob sits in the load slab.

    The message names the slab and the checkpoint's length; the slab
    stays attached across loads, and the checkpoint is verified straight
    from the mapping. Its arrays are copied out, so nothing installed
    refers to slab memory the next load overwrites, and no view is left
    to block the memoryview's release.
    """
    _op, name, meta, (slab_name, nbytes) = msg
    try:
        slab = attach_slab(slabs, "load", slab_name)
    except OSError as exc:
        return ("error", f"cannot attach load slab {slab_name!r}: {exc}")
    with slab.buf[:nbytes] as blob:
        return state.handle(("load", name, meta, blob))


# =============================================================================
# Shared-memory lookup ring
# =============================================================================
#
# The hot query path pays for the pipe twice: a pickle on each side and a
# wakeup through the connection buffer — the latency-`l` term of the
# paper's C/w + S + (B+1)l cost, charged per round trip. The ring keeps
# the wakeup (a 1-byte doorbell down an os.pipe, so the worker never busy
# polls) but replaces the payload path with fixed slots in one
# multiprocessing.shared_memory segment: the client packs raw int64
# points into a free slot, flips the slot's state word, and rings the
# doorbell; the worker answers in place and flips the state back.
#
# Slot layout: a 4-byte state word (FREE → REQUEST → RESPONSE → FREE),
# then a 16-byte meta block (seq, req_len, resp_len, status), then the
# payload area. Every state transition changes exactly one byte of the
# little-endian word, so even a byte-wise copy publishes atomically; the
# payload and meta are always written *before* the state flip and read
# *after* observing it. That publication order is only guaranteed by
# x86-TSO store ordering, so the supervisor enables the ring strictly on
# x86 hosts (_RING_TSO_SAFE) — weakly ordered machines keep the pipe,
# which is slower but never torn. The seq echo guards
# against a stale slot ever being read as a fresh answer: a slot whose
# request timed out is leaked, never recycled — the whole ring is
# replaced when its worker restarts.

_RING_MAGIC = 0x53415452  # "SATR"
_RING_HEADER = struct.Struct("<III4x")   # magic, slots, slot_payload
_SLOT_STATE = struct.Struct("<I")        # the publication word
_SLOT_META = struct.Struct("<IIII")      # seq, req_len, resp_len, status
_SLOT_HEADER_BYTES = 24                  # state + meta, padded to 8 bytes
_SLOT_FREE, _SLOT_REQUEST, _SLOT_RESPONSE = 0, 1, 2

_REQ_HEADER = struct.Struct("<HI")       # name_len, n_points
_RESP_HEADER = struct.Struct("<QI8s")    # version, n_values, dtype str

_RING_OK, _RING_ERROR = 0, 1


class RingUnavailable(Exception):
    """This request cannot ride the ring (no free slot / oversized payload).

    Purely an internal signal: the supervisor catches it and falls back
    to the pipe, which has no size or slot limits.
    """


def _pack_lookup_request(name: str, pts: np.ndarray) -> bytes:
    name_bytes = name.encode("utf-8")
    return (_REQ_HEADER.pack(len(name_bytes), len(pts))
            + name_bytes
            + np.ascontiguousarray(pts, dtype=np.int64).tobytes())


def _unpack_lookup_request(payload: bytes) -> Tuple[str, np.ndarray]:
    name_len, n_points = _REQ_HEADER.unpack_from(payload, 0)
    off = _REQ_HEADER.size
    name = payload[off:off + name_len].decode("utf-8")
    pts = np.frombuffer(
        payload, dtype=np.int64, count=2 * n_points, offset=off + name_len
    ).reshape(n_points, 2)
    return name, pts


def _pack_lookup_response(values: np.ndarray, version: int) -> bytes:
    dtype_str = values.dtype.str.encode("ascii")
    return (_RESP_HEADER.pack(version, len(values), dtype_str)
            + np.ascontiguousarray(values).tobytes())


def _unpack_lookup_response(payload: bytes) -> Tuple[np.ndarray, int]:
    version, n_values, dtype_str = _RESP_HEADER.unpack_from(payload, 0)
    dtype = np.dtype(dtype_str.rstrip(b"\x00").decode("ascii"))
    values = np.frombuffer(
        payload, dtype=dtype, count=n_values, offset=_RESP_HEADER.size
    ).copy()
    return values, version


def _serve_ring_lookup(state: ShardWorkerState, payload: bytes) -> Tuple[int, bytes]:
    """Ring request handler: decode, evaluate, encode — never raise."""
    try:
        name, pts = _unpack_lookup_request(payload)
        ok, result = state._lookup_values(name, pts)
        if not ok:
            return (_RING_ERROR, result.encode("utf-8"))
        values, version = result
        return (_RING_OK, _pack_lookup_response(values, version))
    except Exception as exc:  # noqa: BLE001 — reply, don't die
        return (_RING_ERROR, f"{type(exc).__name__}: {exc}".encode("utf-8"))


class LookupRing:
    """Fixed-slot shared-memory request/response ring (one per worker).

    The supervisor (single client process, many threads) owns slot
    allocation behind a lock; the worker scans all slots on each doorbell.
    Per slot there is exactly one writer at a time — the client until the
    state word says REQUEST, the worker until it says RESPONSE — so no
    cross-process lock exists anywhere on the hot path.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 slot_payload: int, *, owner: bool):
        self._shm = shm
        self._owner = owner
        self.slots = slots
        self.slot_payload = slot_payload
        self._slot_size = _SLOT_HEADER_BYTES + slot_payload
        self._lock = threading.Lock()
        self._free = list(range(slots))
        self._seq = 0
        # With spare cores the worker answers while we spin (~5-20us);
        # on a crowded host every spin steals the timeslice the worker
        # needs, so yield almost immediately.
        self._spin_limit = 50 if (os.cpu_count() or 1) >= 2 else 2

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, slots: int = RING_SLOTS,
               slot_payload: int = RING_SLOT_PAYLOAD) -> "LookupRing":
        size = _RING_HEADER.size + slots * (_SLOT_HEADER_BYTES + slot_payload)
        shm = shared_memory.SharedMemory(create=True, size=size)
        _RING_HEADER.pack_into(shm.buf, 0, _RING_MAGIC, slots, slot_payload)
        ring = cls(shm, slots, slot_payload, owner=True)
        for slot in range(slots):
            _SLOT_STATE.pack_into(shm.buf, ring._base(slot), _SLOT_FREE)
        return ring

    @classmethod
    def attach(cls, name: str) -> "LookupRing":
        shm = shared_memory.SharedMemory(name=name)
        magic, slots, slot_payload = _RING_HEADER.unpack_from(shm.buf, 0)
        if magic != _RING_MAGIC:
            shm.close()
            raise CorruptionDetected(
                f"shared block {name!r} is not a lookup ring "
                f"(magic {magic:#x})"
            )
        return cls(shm, slots, slot_payload, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def _base(self, slot: int) -> int:
        return _RING_HEADER.size + slot * self._slot_size

    def close(self) -> None:
        """Detach from the segment (worker side, or owner after retire)."""
        try:
            self._shm.close()
        except BufferError:
            # A reader thread still holds a view mid-request; the mapping
            # leaks until process exit, which is bounded (restarts are
            # rare and each replaces the ring exactly once).
            pass

    def retire(self) -> None:
        """Owner-side teardown: unlink the segment, then detach."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        self.close()

    # -- client side ----------------------------------------------------------

    def request(self, payload: bytes, timeout: float, *,
                notify: Optional[Callable[[], None]] = None,
                alive: Optional[Callable[[], bool]] = None) -> Tuple[int, bytes]:
        """Ship one request, wait for its answer: ``(status, response)``.

        Raises :class:`RingUnavailable` when the payload is oversized or
        every slot is busy (caller falls back to the pipe), and
        :class:`TimeoutError` when the worker never answers — the slot is
        then *leaked* on purpose: the worker may still write a late
        response into it, so it must never be handed to a new request.
        ``notify`` is called once, after the request is published (the
        doorbell); ``alive`` lets the wait fail fast when the worker
        process dies instead of burning the whole timeout.
        """
        if len(payload) > self.slot_payload:
            raise RingUnavailable(
                f"payload of {len(payload)} bytes exceeds the ring's "
                f"{self.slot_payload}-byte slots"
            )
        with self._lock:
            if not self._free:
                raise RingUnavailable("all ring slots are in flight")
            slot = self._free.pop()
            self._seq = (self._seq + 1) & 0xFFFFFFFF or 1  # 0 marks a fresh slot
            seq = self._seq
        base = self._base(slot)
        buf = self._shm.buf
        try:
            buf[base + _SLOT_HEADER_BYTES:
                base + _SLOT_HEADER_BYTES + len(payload)] = payload
            _SLOT_META.pack_into(buf, base + 4, seq, len(payload), 0, 0)
            _SLOT_STATE.pack_into(buf, base, _SLOT_REQUEST)
            if notify is not None:
                notify()
            deadline = time.monotonic() + timeout
            spins = 0
            spin_limit = self._spin_limit
            while True:
                state = _SLOT_STATE.unpack_from(buf, base)[0]
                if state == _SLOT_RESPONSE:
                    rseq, _req_len, resp_len, status = _SLOT_META.unpack_from(
                        buf, base + 4
                    )
                    if rseq == seq:
                        resp = bytes(
                            buf[base + _SLOT_HEADER_BYTES:
                                base + _SLOT_HEADER_BYTES + resp_len]
                        )
                        _SLOT_STATE.pack_into(buf, base, _SLOT_FREE)
                        with self._lock:
                            self._free.append(slot)
                        return status, resp
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"no ring response within {timeout}s (slot {slot} leaked)"
                    )
                spins += 1
                if spins > spin_limit:
                    if (spins % 64 == 0 and alive is not None
                            and not alive()):
                        # One last look — the answer may have landed just
                        # before the worker died.
                        if _SLOT_STATE.unpack_from(buf, base)[0] != _SLOT_RESPONSE:
                            raise TimeoutError(
                                "worker process died before answering "
                                f"(slot {slot} leaked)"
                            )
                        continue
                    # Yield the CPU first — on a host with fewer cores
                    # than workers the server needs our timeslice to
                    # answer at all, and sleep(0) hands it over without
                    # the ~100us timer quantum a real sleep costs. Only
                    # back off to timed sleeps once the answer is
                    # genuinely slow.
                    time.sleep(0 if spins < 4000 else 0.00005)
        except ValueError as exc:
            # The segment's buffer was released under us (teardown race).
            raise TimeoutError(f"lookup ring torn down mid-request: {exc}") from exc

    # -- worker side ----------------------------------------------------------

    def serve(self, handler: Callable[[bytes], Tuple[int, bytes]]) -> int:
        """Answer every pending request in place; returns requests served."""
        served = 0
        buf = self._shm.buf
        for slot in range(self.slots):
            base = self._base(slot)
            if _SLOT_STATE.unpack_from(buf, base)[0] != _SLOT_REQUEST:
                continue
            seq, req_len, _resp_len, _status = _SLOT_META.unpack_from(buf, base + 4)
            payload = bytes(
                buf[base + _SLOT_HEADER_BYTES: base + _SLOT_HEADER_BYTES + req_len]
            )
            status, resp = handler(payload)
            if len(resp) > self.slot_payload:  # never overrun the slot
                status = _RING_ERROR
                resp = (f"ring response of {len(resp)} bytes exceeds the "
                        f"{self.slot_payload}-byte slot").encode("utf-8")
            buf[base + _SLOT_HEADER_BYTES:
                base + _SLOT_HEADER_BYTES + len(resp)] = resp
            _SLOT_META.pack_into(buf, base + 4, seq, req_len, len(resp), status)
            _SLOT_STATE.pack_into(buf, base, _SLOT_RESPONSE)
            served += 1
        return served


# =============================================================================
# Checkpoint store (the durable tier)
# =============================================================================


#
# A shard checkpoint is flat: a fixed header, then the shard's raw arrays
# (local SATs, column and row edge prefixes, corners), each padded to a
# whole number of 8-byte words. Nothing is pickled on either side.
#
# Header: checksum pair (plain, weighted), format tag, dtype string, t,
# lo, hi, dataset version and payload length (the bytes after the
# header). The checksum covers every byte after its own two words, so a
# flip anywhere, header included, shows.
#
# Checksum: the covered bytes as little-endian uint64 words, split into
# blocks of _SUM_BLOCK words (the last may be short). The pair is the sum
# of all words and the sum of each block's word sum times its 1-based
# block index, both mod 2^64 (Fletcher-style, at block granularity). A
# single flipped bit moves the plain sum by +-2^k, never 0 mod 2^64;
# moving data between blocks moves the weighted sum. A truncation that
# happens to drop only zero words is caught by the header's length.

_CKPT_HEADER = struct.Struct("<QQ4s4x8sqqqqq")
_CKPT_SUMS = struct.Struct("<QQ")
_CKPT_TAG = b"SCK1"
_SUM_BLOCK = 4096  # words (32 KiB)


def _words(nbytes: int) -> int:
    """Bytes rounded up to a whole number of 8-byte words."""
    return -(-nbytes // 8) * 8


def checkpoint_checksum(buf, offset: int = 0) -> Tuple[int, int]:
    """The checkpoint checksum pair over ``buf[offset:]`` (8-byte words)."""
    words = np.frombuffer(buf, dtype=np.uint64, offset=offset)
    full = len(words) - len(words) % _SUM_BLOCK
    sums = np.empty(full // _SUM_BLOCK + 1, dtype=np.uint64)
    np.sum(words[:full].reshape(-1, _SUM_BLOCK), axis=1, out=sums[:-1])
    sums[-1] = words[full:].sum()
    weights = np.arange(1, len(sums) + 1, dtype=np.uint64)
    return int(sums.sum()), int((sums * weights).sum())


def write_checkpoint(arrays: Tuple[Any, ...], *, lo: int, hi: int,
                     version: int) -> memoryview:
    """Pack a shard's ``(local, col, row, corner)`` — ``(k, t, t)``,
    ``(k, t)``, ``(k, t)`` and ``(k,)`` for ``k = hi - lo`` tiles — into
    one flat, checksummed checkpoint (a read-only buffer).

    Each array is copied once, straight into the checkpoint: an ndarray
    by assignment, a :class:`~repro.service.store.TileRange` (the
    ``local`` of :meth:`~repro.service.store.TileAggregates.shard_arrays`)
    one tile row at a time.
    """
    dtype = arrays[0].dtype
    t = arrays[0].shape[-1]
    if dtype.hasobject:
        raise ConfigurationError(f"cannot checkpoint a {dtype} dataset")
    sizes = [_words(a.nbytes) for a in arrays]
    buf = np.empty(_CKPT_HEADER.size + sum(sizes), dtype=np.uint8)
    off = _CKPT_HEADER.size
    for array, size in zip(arrays, sizes):
        end = off + array.nbytes
        dst = buf[off:end].view(dtype).reshape(array.shape)
        if isinstance(array, TileRange):
            array.copy_into(dst)
        else:
            dst[...] = array
        buf[end:off + size] = 0  # padding: the checksum covers it
        off += size
    _CKPT_HEADER.pack_into(buf, 0, 0, 0, _CKPT_TAG, dtype.str.encode("ascii"),
                           t, lo, hi, version, len(buf) - _CKPT_HEADER.size)
    _CKPT_SUMS.pack_into(buf, 0, *checkpoint_checksum(buf, _CKPT_SUMS.size))
    buf.flags.writeable = False
    return buf.data


def read_checkpoint(blob, version: int) -> Tuple[int, "_ShardBlock"]:
    """Verify a flat checkpoint and copy its arrays out: ``(t, block)``.

    ``blob`` may be a view of a shared-memory slab: every array is
    copied out and no view of ``blob`` outlives this call. Raises
    :class:`~repro.errors.CorruptionDetected` on a torn, truncated or
    tampered checkpoint, and on one built at a version other than
    ``version``.
    """
    nbytes = len(blob)
    if nbytes < _CKPT_HEADER.size or nbytes % 8:
        raise CorruptionDetected(f"{nbytes} bytes is not a whole checkpoint")
    stored = _CKPT_SUMS.unpack_from(blob, 0)
    computed = checkpoint_checksum(blob, _CKPT_SUMS.size)
    if computed != stored:
        raise CorruptionDetected(
            f"checkpoint failed its checksum (stored {stored}, computed {computed})"
        )
    (_s, _w, tag, dtype_str, t, lo, hi, built, payload
     ) = _CKPT_HEADER.unpack_from(blob, 0)
    if tag != _CKPT_TAG:
        raise CorruptionDetected(f"unknown checkpoint format {tag!r}")
    if payload != nbytes - _CKPT_HEADER.size:
        raise CorruptionDetected(
            f"checkpoint declares {payload} payload bytes but carries "
            f"{nbytes - _CKPT_HEADER.size}"
        )
    if built != version:
        raise CorruptionDetected(
            f"checkpoint is for version {built}, expected version {version}"
        )
    dtype = np.dtype(dtype_str.rstrip(b"\x00").decode("ascii"))
    k = hi - lo
    shapes = ((k, t, t), (k, t), (k, t), (k,))
    sizes = [_words(int(np.prod(s)) * dtype.itemsize) for s in shapes]
    if sum(sizes) != payload:
        raise CorruptionDetected(
            f"checkpoint payload of {payload} bytes does not hold "
            f"{k} tiles of side {t} ({dtype})"
        )
    arrays = []
    off = _CKPT_HEADER.size
    for shape, size in zip(shapes, sizes):
        arrays.append(np.frombuffer(
            blob, dtype=dtype, count=int(np.prod(shape)), offset=off
        ).reshape(shape).copy())
        off += size
    return t, _ShardBlock(lo, hi, *arrays)


@dataclass(frozen=True)
class ShardCheckpoint:
    """One shard at one dataset version, as a flat checkpoint."""

    range_id: int
    lo: int
    hi: int
    version: int
    blob: Any  # bytes-like: write_checkpoint's read-only buffer


class _CheckpointEntry:
    __slots__ = ("dataset", "ranges", "checkpoints")

    def __init__(self, dataset: Dataset, ranges: List[Tuple[int, int]]):
        self.dataset = dataset
        self.ranges = ranges  # range_id -> (lo, hi)
        self.checkpoints: Dict[int, ShardCheckpoint] = {}


class CheckpointStore:
    """Authoritative datasets plus checksummed flat shard checkpoints.

    The store is what the cluster *recovers from*: ingest registers the
    dataset and its range decomposition here, updates mutate the
    authoritative copy (through the ordinary bit-exact incremental-update
    paths), and :meth:`payload_for` serves a flat shard checkpoint at the
    current version — rebuilt lazily, so steady-state updates never pay
    for checkpoints nobody is restoring.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _CheckpointEntry] = {}
        self._lock = threading.RLock()
        self.rebuilds = 0

    def register(self, dataset: Dataset, ranges: List[Tuple[int, int]]) -> None:
        with self._lock:
            self._entries[dataset.name] = _CheckpointEntry(dataset, ranges)

    def drop(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def dataset(self, name: str) -> Dataset:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownDataset(
                f"no dataset named {name!r} is registered with the cluster "
                f"(held: {self.names() or 'none'})"
            )
        return entry.dataset

    def ranges(self, name: str) -> List[Tuple[int, int]]:
        self.dataset(name)  # raises UnknownDataset
        with self._lock:
            return list(self._entries[name].ranges)

    def payload_for(self, name: str, range_id: int) -> ShardCheckpoint:
        """The shard's checkpoint at the dataset's *current* version."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownDataset(f"no dataset named {name!r} is registered")
            ds = entry.dataset
            with ds.lock:
                version = ds.version
                cp = entry.checkpoints.get(range_id)
                if cp is not None and cp.version == version:
                    return cp
                lo, hi = entry.ranges[range_id]
                blob = write_checkpoint(
                    ds.values.shard_arrays(lo, hi), lo=lo, hi=hi, version=version,
                )
            cp = ShardCheckpoint(
                range_id=range_id, lo=lo, hi=hi, version=version, blob=blob,
            )
            entry.checkpoints[range_id] = cp
            self.rebuilds += 1
            obs.inc("cluster_checkpoints_built_total")
            obs.observe("cluster_checkpoint_bytes", len(blob))
            return cp

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "datasets": len(self._entries),
                "checkpoint_rebuilds": self.rebuilds,
                "checkpoint_bytes": sum(
                    len(cp.blob)
                    for e in self._entries.values()
                    for cp in e.checkpoints.values()
                ),
            }


# =============================================================================
# Supervisor
# =============================================================================


@dataclass
class WorkerHandle:
    """Supervisor-side record of one worker slot."""

    worker_id: int
    state: str = DOWN
    epoch: int = -1
    process: Any = None
    conn: Any = None
    inline_state: Optional[ShardWorkerState] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    missed_pings: int = 0
    lookups_served: int = 0
    restarts: int = 0
    ring: Optional[LookupRing] = None
    doorbell_w: int = -1
    #: Guards ``doorbell_w``/``ring`` lifecycle against in-flight ring
    #: notifies — a tiny critical section, never held across an RPC (so
    #: it cannot serialize behind ``lock``'s pipe round trips).
    ring_lock: threading.Lock = field(default_factory=threading.Lock)
    ring_lookups: int = 0
    pipe_lookups: int = 0
    #: The epoch's checkpoint load slab (process mode): written only
    #: under ``lock``, retired with the ring when the epoch ends.
    slab: Optional[shared_memory.SharedMemory] = None


class WorkerSupervisor:
    """Owns a pool of shard workers: health, crashes, restart, rehydrate.

    ``inline=True`` swaps the worker processes for in-process
    :class:`ShardWorkerState` objects behind the same RPC seam — the
    deterministic mode the router unit tests (and any single-process
    deployment) use; a "crash" there is the supervisor dropping the
    worker's state object, which loses its shards exactly like a killed
    process does.

    Crash detection is two-pronged: any failed RPC marks the worker down
    immediately (the common case — the router trips over the corpse), and
    the heartbeat monitor catches workers that die while idle. Restarts
    re-hydrate every assigned shard from the :class:`CheckpointStore`
    (checksum-verified on install) under the topology lock, so a restarted
    worker is only marked alive with state at the authoritative version.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        checkpoints: Optional[CheckpointStore] = None,
        inline: bool = False,
        clock: Optional[Clock] = None,
        rpc_timeout: float = 5.0,
        heartbeat_interval: float = 0.1,
        heartbeat_misses: int = 3,
        auto_restart: bool = True,
        restart_backoff: Optional[ExponentialBackoff] = None,
        max_restart_attempts: int = 3,
        use_ring: bool = True,
        ring_slots: int = RING_SLOTS,
        ring_slot_bytes: int = RING_SLOT_PAYLOAD,
    ):
        if workers < 1:
            raise ConfigurationError(f"cluster needs >= 1 worker, got {workers}")
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointStore()
        self.inline = inline
        self.clock = clock if clock is not None else SystemClock()
        self.rpc_timeout = rpc_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.auto_restart = auto_restart
        self.restart_backoff = restart_backoff or ExponentialBackoff(
            base=0.01, factor=2.0, cap=0.25
        )
        self.max_restart_attempts = max_restart_attempts
        self.ring_slots = ring_slots
        self.ring_slot_bytes = ring_slot_bytes
        #: worker_id -> [(dataset, range_id), ...], maintained by the router.
        self.assignments: Dict[int, List[Tuple[str, int]]] = {
            w: [] for w in range(workers)
        }
        #: Serializes topology changes (ingest pushes, update pushes,
        #: rehydration) so a restarting worker cannot install a payload
        #: that an in-flight update has already superseded. Queries never
        #: take it.
        self.topology_lock = threading.RLock()
        self._ctx = get_context()
        # The ring relies on the doorbell pipe fds surviving into the
        # child (so it needs the fork start method, the default on
        # Linux) and on x86-TSO store ordering for its fence-free
        # publication protocol; elsewhere hot lookups simply stay on
        # the pipe.
        self.use_ring = (bool(use_ring) and not inline
                         and self._ctx.get_start_method() == "fork"
                         and _RING_TSO_SAFE)
        # Transport split for lookups: bulk point batches always take
        # the ring (no pickling, payload stays in shared memory), but a
        # tiny batch — one rectangle's corners — only wins there when
        # the workers have cores to answer on while the client polls.
        # On a crowded host the pipe's blocking recv gets a directed
        # kernel wakeup the poll loop cannot match, so small lookups
        # stay on the pipe.
        self._ring_small_lookups = (os.cpu_count() or 1) > workers
        if not inline:
            # Start the shared-memory resource tracker *before* forking any
            # worker. Forked workers then inherit it, so their attach-time
            # registrations dedupe against the sender's create-time one and
            # the single unlink() balances the books. A worker forked with
            # no tracker running would lazily start its own and warn at
            # exit about segments the sender already unlinked.
            resource_tracker.ensure_running()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self.restarts_total = 0
        self.failures_total = 0
        self.handles = [WorkerHandle(worker_id=w) for w in range(workers)]
        for handle in self.handles:
            self._spawn(handle)

    # -- lifecycle ------------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self.handles)

    def handle(self, worker_id: int) -> WorkerHandle:
        return self.handles[worker_id]

    def _spawn(self, handle: WorkerHandle) -> None:
        """(Re)create the worker behind ``handle`` with a fresh epoch."""
        handle.epoch += 1
        handle.missed_pings = 0
        if self.inline:
            handle.inline_state = ShardWorkerState(handle.worker_id, handle.epoch)
        else:
            self._retire_shared_memory(handle)  # never reused by a new epoch
            ring: Optional[LookupRing] = None
            doorbell_r = -1
            if self.use_ring:
                ring = LookupRing.create(self.ring_slots, self.ring_slot_bytes)
                doorbell_r, doorbell_w = os.pipe()
                os.set_blocking(doorbell_w, False)
                with handle.ring_lock:
                    handle.doorbell_w = doorbell_w
            parent, child = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(handle.worker_id, handle.epoch, child,
                      ring.name if ring is not None else None,
                      doorbell_r if ring is not None else None),
                daemon=True,
                name=f"repro-shard-worker-{handle.worker_id}",
            )
            process.start()
            child.close()
            if doorbell_r != -1:
                os.close(doorbell_r)  # the child holds the only read end now
            handle.process = process
            handle.conn = parent
            handle.ring = ring
        handle.state = ALIVE

    def _retire_shared_memory(self, handle: WorkerHandle) -> None:
        """Unlink the epoch's lookup ring and load slab, close its doorbell."""
        # Detach the fd/ring from the handle *under the ring lock* before
        # closing: an in-flight _rpc_ring notify re-reads doorbell_w under
        # the same lock, so it can never write to an fd number the OS has
        # already recycled for a new epoch's pipes.
        with handle.ring_lock:
            ring, handle.ring = handle.ring, None
            doorbell_w, handle.doorbell_w = handle.doorbell_w, -1
        # A load holds ``lock`` from its slab write to the worker's reply.
        with handle.lock:
            slab, handle.slab = handle.slab, None
        if ring is not None:
            ring.retire()
        if slab is not None:
            release_slab(slab)
        if doorbell_w != -1:
            try:
                os.close(doorbell_w)
            except OSError:
                pass

    def stop(self) -> None:
        """Stop the monitor and terminate every worker."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for handle in self.handles:
            if self.inline:
                handle.inline_state = None
            else:
                with handle.lock:
                    if handle.conn is not None:
                        try:
                            handle.conn.send(("shutdown",))
                        except (BrokenPipeError, OSError):
                            pass
                        handle.conn.close()
                        handle.conn = None
                if handle.process is not None:
                    handle.process.join(timeout=2.0)
                    if handle.process.is_alive():
                        handle.process.kill()
                        handle.process.join(timeout=2.0)
                    handle.process = None
                self._retire_shared_memory(handle)
            handle.state = DOWN

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- RPC ------------------------------------------------------------------

    def rpc(self, worker_id: int, msg: Tuple[Any, ...],
            timeout: Optional[float] = None) -> Any:
        """One request/reply exchange; failures mark the worker down.

        Raises :class:`~repro.errors.WorkerUnavailable` when the worker is
        not alive, its pipe breaks, the reply times out, or it answers
        with an error envelope. The caller (router) treats that as "this
        replica is gone": record the failure and try the next one.
        """
        handle = self.handles[worker_id]
        if handle.state != ALIVE:
            raise WorkerUnavailable(
                f"worker {worker_id} is {handle.state} (epoch {handle.epoch})"
            )
        timeout = self.rpc_timeout if timeout is None else timeout
        op = msg[0]
        is_lookup = op == "lookup"
        if self.inline:
            reply = self._rpc_inline(handle, msg)
        elif (is_lookup and handle.ring is not None
              and (self._ring_small_lookups
                   or len(msg[2]) > _SCALAR_LOOKUP_MAX)):
            reply = self._rpc_ring(handle, msg, timeout)
        else:
            if is_lookup:
                handle.pipe_lookups += 1
                wire, decode = self._encode_pipe_lookup(msg)
                reply = decode(self._rpc_process(handle, wire, timeout))
            else:
                reply = self._rpc_process(handle, msg, timeout)
        if reply[0] != "ok":
            self._mark_down(handle, f"error reply: {reply[1]}")
            raise WorkerUnavailable(
                f"worker {worker_id} rejected {op!r}: {reply[1]}"
            )
        if is_lookup:
            handle.lookups_served += 1
        return reply[1]

    @staticmethod
    def _encode_pipe_lookup(msg):
        """Choose the pipe wire format for a lookup's point batch.

        Tiny ndarray batches go over as ``lookup_t`` plain point lists —
        pickling a small ndarray (and its ndarray reply) costs several
        times the list encoding. Values survive exactly (``tolist``
        round-trips every float bit-for-bit) and the reply carries the
        dataset's dtype tag, so the rebuilt ndarray matches the ring and
        ndarray paths bit-for-bit — float32 corners must not come back
        as float64, or the router's stitch sums at the wrong precision.
        """
        points = msg[2]
        if not isinstance(points, np.ndarray) or len(points) > _SCALAR_LOOKUP_MAX:
            return msg, lambda reply: reply

        def decode(reply):
            if reply[0] != "ok":
                return reply
            values, version, dtype = reply[1]
            return ("ok", (np.asarray(values, dtype=dtype), version))

        return ("lookup_t", msg[1], [(int(r), int(c)) for r, c in points]), decode

    def _rpc_ring(self, handle: WorkerHandle, msg, timeout: float):
        """Ship a lookup over the worker's shared-memory ring.

        Falls back to the pipe when the ring cannot take the request
        (all slots busy, oversized batch); a transport failure marks the
        worker down exactly like a broken pipe would.
        """
        ring = handle.ring
        _op, name, points = msg
        payload = _pack_lookup_request(
            name, np.asarray(points, dtype=np.int64).reshape(-1, 2)
        )
        epoch = handle.epoch
        process = handle.process

        def notify() -> None:
            # Re-read the fd under the ring lock and gate on the epoch: a
            # concurrent restart closes doorbell_w and the fresh pipes may
            # reuse the same fd number, so a captured fd could write a
            # stray byte into an unrelated descriptor (worst case, the new
            # control pipe's framed stream).
            with handle.ring_lock:
                if handle.epoch != epoch or handle.doorbell_w == -1:
                    return
                try:
                    os.write(handle.doorbell_w, b"!")
                except BlockingIOError:
                    pass  # doorbells already pending; the worker will scan
                except OSError:
                    pass  # teardown race; the request path will time out

        try:
            status, data = ring.request(
                payload, timeout, notify=notify,
                alive=lambda: process is not None and process.is_alive(),
            )
        except RingUnavailable:
            handle.pipe_lookups += 1
            return self._rpc_process(handle, msg, timeout)
        except (TimeoutError, OSError, ValueError) as exc:
            self._mark_down(handle, f"ring: {type(exc).__name__}: {exc}")
            raise WorkerUnavailable(
                f"worker {handle.worker_id} (epoch {handle.epoch}) is "
                f"unreachable over its lookup ring: {exc}"
            ) from exc
        handle.ring_lookups += 1
        if status != _RING_OK:
            return ("error", data.decode("utf-8", "replace"))
        return ("ok", _unpack_lookup_response(data))

    def _rpc_inline(self, handle: WorkerHandle, msg) -> Tuple[Any, ...]:
        state = handle.inline_state
        if state is None:
            self._mark_down(handle, "inline state dropped")
            raise WorkerUnavailable(f"worker {handle.worker_id} has no state")
        return state.handle(msg)

    def _rpc_process(self, handle: WorkerHandle, msg, timeout: float):
        # No state check here: the public rpc() gates on ALIVE, while the
        # supervisor's own rehydration path talks to a RESTARTING worker.
        with handle.lock:
            return self._exchange(handle, msg, timeout)

    def _load_process(self, handle: WorkerHandle, name: str,
                      meta: Dict[str, Any], blob):
        """Ship a checkpoint through the worker's load slab.

        The slab write and the load RPC share one ``lock`` critical
        section, so nothing rewrites the slab while the worker reads it.
        A load that fails or times out marks the worker down (or fails
        the restart attempt that issued it); the next load this worker
        slot takes follows a restart, which retires this slab, so a late
        reader in the dead epoch never sees reused bytes.
        """
        nbytes = len(blob)
        with handle.lock:
            self._require_conn(handle)  # a stopped worker gets no new slab
            slab = handle.slab = grow_slab(handle.slab, nbytes)
            slab.buf[:nbytes] = blob
            return self._exchange(
                handle, ("load", name, meta, (slab.name, nbytes)),
                self.rpc_timeout,
            )

    @staticmethod
    def _require_conn(handle: WorkerHandle) -> Any:
        if handle.conn is None:
            raise WorkerUnavailable(
                f"worker {handle.worker_id} has no connection "
                f"(state {handle.state})"
            )
        return handle.conn

    def _exchange(self, handle: WorkerHandle, msg, timeout: float):
        """Send ``msg`` and wait for the reply; the caller holds ``lock``."""
        conn = self._require_conn(handle)
        try:
            conn.send(msg)
            if not conn.poll(timeout):
                raise TimeoutError(
                    f"no reply to {msg[0]!r} within {timeout}s"
                )
            return conn.recv()
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError,
                TimeoutError) as exc:
            self._mark_down(handle, f"{type(exc).__name__}: {exc}")
            raise WorkerUnavailable(
                f"worker {handle.worker_id} (epoch {handle.epoch}) is "
                f"unreachable: {exc}"
            ) from exc

    def _mark_down(self, handle: WorkerHandle, reason: str) -> None:
        if handle.state == ALIVE:
            handle.state = DOWN
            self.failures_total += 1
            obs.inc("cluster_worker_failures_total")
            logger.warning(
                "worker %d (epoch %d) marked down: %s",
                handle.worker_id, handle.epoch, reason,
            )

    # -- chaos ----------------------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL a worker (chaos hook) — no cleanup, like a real crash.

        The supervisor does *not* mark the worker down here: detection
        must go through the same paths a real crash exercises (a failed
        RPC or missed heartbeats).
        """
        handle = self.handles[worker_id]
        if self.inline:
            handle.inline_state = None  # its memory — and shards — are gone
        elif handle.process is not None:
            handle.process.kill()
            handle.process.join(timeout=2.0)
        obs.inc("cluster_workers_killed_total")
        logger.info("chaos: killed worker %d (epoch %d)", worker_id, handle.epoch)

    # -- recovery -------------------------------------------------------------

    def restart(self, worker_id: int) -> bool:
        """Restart a down worker and re-hydrate its shards; True on success."""
        handle = self.handles[worker_id]
        if handle.state == ALIVE:
            return True
        handle.state = RESTARTING
        for attempt in range(self.max_restart_attempts):
            try:
                self._teardown_process(handle)
                with self.topology_lock:
                    self._spawn(handle)
                    handle.state = RESTARTING  # not routable until hydrated
                    self._rehydrate(handle)
                    handle.state = ALIVE
                handle.restarts += 1
                self.restarts_total += 1
                obs.inc("cluster_worker_restarts_total")
                logger.info(
                    "worker %d restarted (epoch %d, %d shard(s) re-hydrated)",
                    worker_id, handle.epoch, len(self.assignments[worker_id]),
                )
                return True
            except (WorkerUnavailable, CorruptionDetected, OSError) as exc:
                logger.warning(
                    "restart attempt %d for worker %d failed: %s",
                    attempt, worker_id, exc,
                )
                self.restart_backoff.pause(self.clock, attempt)
        handle.state = DOWN
        return False

    def _teardown_process(self, handle: WorkerHandle) -> None:
        if self.inline:
            handle.inline_state = None
            return
        with handle.lock:
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=2.0)
            handle.process = None
        self._retire_shared_memory(handle)

    def _rehydrate(self, handle: WorkerHandle) -> None:
        """Install every assigned shard from its current checkpoint."""
        seen: set = set()
        for name, range_id in self.assignments[handle.worker_id]:
            cp = self.checkpoints.payload_for(name, range_id)
            self.load_shard(handle.worker_id, name, cp, reset=name not in seen)
            seen.add(name)
            obs.inc("cluster_shards_rehydrated_total")

    def load_shard(self, worker_id: int, name: str, cp: ShardCheckpoint,
                   *, reset: bool = False) -> None:
        """Ship one checkpoint to a worker (through its load slab).

        The worker verifies the checkpoint's header and checksum, and
        that it was built at the authoritative dataset's current version,
        before installing; a checkpoint that fails raises
        :class:`~repro.errors.CorruptionDetected` and marks the worker
        down. ``reset=True`` drops any state the worker already holds for
        the dataset (the first shard of a rehydration, so a half-dead
        epoch's leftovers can never mix with fresh state).
        """
        ds = self.checkpoints.dataset(name)
        meta = {
            "range_id": cp.range_id, "version": ds.version,
            "nb_c": ds.values.nb_c, "reset": reset,
        }
        handle = self.handles[worker_id]
        state = handle.state
        if state != ALIVE and state != RESTARTING:
            raise WorkerUnavailable(f"worker {worker_id} is {state}")
        if self.inline:
            reply = self._rpc_inline(handle, ("load", name, meta, cp.blob))
        else:
            reply = self._load_process(handle, name, meta, cp.blob)
        if reply[0] != "ok":
            self._mark_down(handle, f"load rejected: {reply[1]}")
            if reply[0] == "corrupt":
                raise CorruptionDetected(f"worker {worker_id}: {reply[1]}")
            raise WorkerUnavailable(
                f"worker {worker_id} rejected shard load: {reply[1]}"
            )

    # -- health monitoring ----------------------------------------------------

    def start_monitor(self) -> None:
        """Run heartbeat checks (and auto-restarts) on a background thread."""
        if self._monitor is not None:
            return
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.check_health()
            except Exception:  # noqa: BLE001 — the monitor must survive
                logger.exception("cluster health check failed")

    def check_health(self) -> Dict[int, str]:
        """One health pass: ping alive workers, restart down ones."""
        for handle in self.handles:
            if handle.state == ALIVE:
                try:
                    self.rpc(handle.worker_id, ("ping",),
                             timeout=self.rpc_timeout)
                    handle.missed_pings = 0
                    obs.inc("cluster_heartbeats_total", result="ok")
                except WorkerUnavailable:
                    handle.missed_pings += 1
                    obs.inc("cluster_heartbeats_total", result="missed")
                    # rpc already marked it down on transport failure; a
                    # worker that is alive but slow gets `heartbeat_misses`
                    # grace before the monitor declares it dead.
                    if (handle.state == ALIVE
                            and handle.missed_pings >= self.heartbeat_misses):
                        self._mark_down(handle, "missed heartbeats")
            if handle.state == DOWN and self.auto_restart:
                self.restart(handle.worker_id)
        return {h.worker_id: h.state for h in self.handles}

    def wait_healthy(self, timeout: float = 10.0) -> bool:
        """Block until every worker is alive (or the timeout passes)."""
        deadline = self.clock.now() + timeout
        while self.clock.now() < deadline:
            if all(h.state == ALIVE for h in self.handles):
                return True
            if self._monitor is None:
                self.check_health()
            self.clock.sleep(min(self.heartbeat_interval, 0.05))
        return all(h.state == ALIVE for h in self.handles)

    # -- accounting -----------------------------------------------------------

    def alive_workers(self) -> List[int]:
        return [h.worker_id for h in self.handles if h.state == ALIVE]

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "alive": len(self.alive_workers()),
            "restarts": self.restarts_total,
            "failures": self.failures_total,
            "states": {h.worker_id: h.state for h in self.handles},
            "epochs": {h.worker_id: h.epoch for h in self.handles},
            "lookups_served": {
                h.worker_id: h.lookups_served for h in self.handles
            },
            "ring_lookups": {
                h.worker_id: h.ring_lookups for h in self.handles
            },
            "pipe_lookups": {
                h.worker_id: h.pipe_lookups for h in self.handles
            },
        }
