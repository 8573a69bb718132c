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
arrives, and retires it when the worker is restarted or stopped. A load
copies the whole checkpoint into the slab in one copy and sends only
``(slab name, nbytes)``; the worker keeps the slab attached between
loads, so neither side pays a fresh segment's
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

Every other RPC, lookups included, takes the worker's control pipe. A
lookup has one wire format for process and inline workers alike: the
points go out as raw int64 bytes and the values come back as raw bytes
with their dtype string and the dataset version, so the reply carries
the serving dtype whatever the batch size.

Consistency contract: shard installs and update pushes are serialized by
the supervisor's topology lock, so a worker is only marked alive when
its state matches the authoritative version; queries never take that
lock (a mid-rehydration query simply fails over).
"""

from __future__ import annotations

import logging
import struct
import threading
from dataclasses import dataclass, field
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, CorruptionDetected, UnknownDataset, WorkerUnavailable
from ..obs import runtime as obs
from ..util.backoff import Clock, ExponentialBackoff, SystemClock
from ..util.slab import Attached, attach_slab, detach_slabs, grow_slab, release_slab
from .store import Dataset, TileRange

__all__ = [
    "CheckpointStore",
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

#: Point batches at or under this size take scalar (non-vectorized)
#: serving: a single rectangle's <= 4 corners do not amortize numpy's
#: fixed costs.
_SCALAR_LOOKUP_MAX = 8


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

    def _lookup(self, name: str, points: bytes) -> Tuple[Any, ...]:
        """Point lookups on the wire: raw int64 ``(row, col)`` pairs in,
        ``("ok", (value bytes, dtype str, version))`` out."""
        if len(points) % 16:
            return ("error", f"{len(points)} bytes of points are not whole "
                             f"int64 (row, col) pairs")
        pts = np.frombuffer(points, dtype=np.int64).reshape(-1, 2)
        ok, payload = self._lookup_values(name, pts)
        if not ok:
            return ("error", payload)
        values, version = payload
        return ("ok", (values.tobytes(), values.dtype.str, version))

    def _lookup_values(self, name: str,
                       pts: np.ndarray) -> Tuple[bool, Any]:
        """Vectorized point-batch SAT lookup: ``(True, (values, version))``.

        ``pts`` is ``(k, 2)`` int64 row/col pairs. Errors come back as
        ``(False, message)`` for :meth:`_lookup` to wrap.
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


def _worker_main(worker_id: int, epoch: int, conn) -> None:
    """Entry point of a shard worker process: recv → handle → send."""
    state = ShardWorkerState(worker_id, epoch)
    slabs: Attached = {}  # this epoch's load slab, attached once
    try:
        while True:
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
    pipe_lookups: int = 0
    #: The epoch's checkpoint load slab (process mode): written only
    #: under ``lock``, retired when the epoch ends.
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
            self._retire_slab(handle)  # never reused by a new epoch
            parent, child = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(handle.worker_id, handle.epoch, child),
                daemon=True,
                name=f"repro-shard-worker-{handle.worker_id}",
            )
            process.start()
            child.close()
            handle.process = process
            handle.conn = parent
        handle.state = ALIVE

    def _retire_slab(self, handle: WorkerHandle) -> None:
        """Unlink the epoch's load slab."""
        # A load holds ``lock`` from its slab write to the worker's reply.
        with handle.lock:
            slab, handle.slab = handle.slab, None
        if slab is not None:
            release_slab(slab)

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
                self._retire_slab(handle)
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
        ``("lookup", name, points)`` returns ``(values, version)``, the
        values a read-only array in the dataset's dtype.
        """
        handle = self.handles[worker_id]
        if handle.state != ALIVE:
            raise WorkerUnavailable(
                f"worker {worker_id} is {handle.state} (epoch {handle.epoch})"
            )
        timeout = self.rpc_timeout if timeout is None else timeout
        op = msg[0]
        if op == "lookup":
            _op, name, points = msg
            msg = (op, name, np.ascontiguousarray(points, dtype=np.int64).tobytes())
        if self.inline:
            reply = self._rpc_inline(handle, msg)
        else:
            if op == "lookup":
                handle.pipe_lookups += 1
            reply = self._rpc_process(handle, msg, timeout)
        if reply[0] != "ok":
            self._mark_down(handle, f"error reply: {reply[1]}")
            raise WorkerUnavailable(
                f"worker {worker_id} rejected {op!r}: {reply[1]}"
            )
        if op != "lookup":
            return reply[1]
        handle.lookups_served += 1
        values, dtype, version = reply[1]
        return np.frombuffer(values, dtype=dtype), version

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
        self._retire_slab(handle)

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
            # Always zero since lookups left the shared-memory ring; kept
            # for readers of the per-transport split.
            "ring_lookups": {h.worker_id: 0 for h in self.handles},
            "pipe_lookups": {
                h.worker_id: h.pipe_lookups for h in self.handles
            },
        }
