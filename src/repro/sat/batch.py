"""Multi-core batch SAT frontend: persistent warm workers, pinned slabs.

The simulator is single-threaded Python, so one process leaves most of
the host idle. For the production-serving pattern — a stream of
same-shape matrices — this module keeps a pool of **persistent warm
worker processes** alive for the whole session:

* workers are forked once, at session construction, and survive across
  ``map`` calls; each holds ONE warm
  :class:`~repro.machine.engine.ExecutionEngine` for its whole life, so
  its first matrix at a shape compiles + measures the plan and every
  later matrix replays it through the fused backend — the per-worker
  analogue of the plan-cache serving loop. Plans can also be pre-warmed
  explicitly (:meth:`BatchSession.warm`, ``warm_shapes=``) through the
  engine's :meth:`~repro.machine.engine.ExecutionEngine.warm_plan` hook
  so the first *measured* batch already runs hot;
* matrices cross the process boundary through two **pinned
  shared-memory slabs** (one input, one output) leased to the batch in
  flight. The slabs are allocated once, grown geometrically when a
  bigger batch arrives, and unlinked only at
  :meth:`BatchSession.close`; workers keep their mapping attached
  between batches. Inputs are written straight into the slab (no pickle,
  no staging copy, dtype preserved) and workers write each SAT straight
  into its output slot — zero-copy in *and* out across the boundary;
* work dispatch is one small pipe message per worker per batch (a
  strided index list), and completion streams back as tiny ``(done,
  index)`` records, so the results iterator yields in input order as
  matrices finish — whatever order the workers run them in;
* a worker that dies mid-slab is detected immediately (its process
  sentinel wakes the collector), restarted fresh, and its unfinished
  indices are re-dispatched ONCE — SAT tasks are pure compute into
  disjoint output slots, so the retry is idempotent. A second death in
  the same batch is a systematic fault and surfaces as
  :class:`~repro.errors.WorkerCrashed`.

:class:`BatchSession` is the serving-shaped API: the pool, the slabs,
and each worker's plan cache survive across ``map`` calls, so pool
startup and per-worker warm-up are one-time costs amortized over the
session. One-shot :func:`sat_batch` wraps a session around a single
batch.

Counters are not shipped back per matrix: HMM access patterns are
data-independent, so every matrix of the batch has the *same* tallies.
:func:`batch_counters` recomputes them once, in-process.
"""

from __future__ import annotations

import os
import time
from multiprocessing import get_all_start_methods, get_context, shared_memory
from multiprocessing import resource_tracker
from multiprocessing.connection import wait as _connection_wait
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, ShapeError, WorkerCrashed
from ..machine.params import MachineParams
from ..obs import runtime as obs
from ..util.slab import attach_slab, detach_slabs, grow_slab, release_slab

#: Environment knob used by the crash-surfacing tests: a worker processing
#: this batch index dies mid-task (``os._exit``), which is how a segfault
#: or OOM kill looks to the session. Never set outside tests.
CRASH_ENV_VAR = "REPRO_BATCH_CRASH_INDEX"

#: Companion knob for *transient*-crash tests: when set to a file path,
#: the poison task above only fires while that file exists — and removes
#: it on the way down — so the crash happens exactly once and the retry
#: of the unfinished indices succeeds. Never set outside tests.
CRASH_ONCE_ENV_VAR = "REPRO_BATCH_CRASH_ONCE_FLAG"

#: Timeout for one collector wait. Worker death wakes the collector via
#: the process sentinel, so this is pure belt-and-braces against a lost
#: wakeup, not the detection latency.
_WAIT_TIMEOUT = 1.0


def _batch_context():
    """Fork where available (workers inherit warm module state and the
    parent's resource tracker); the platform default elsewhere."""
    if "fork" in get_all_start_methods():
        return get_context("fork")
    return get_context()


def _validate_batch(matrices) -> Tuple[Sequence[np.ndarray], Tuple[int, int, int], np.dtype]:
    """Validate a batch; return (indexable arrays, (k, rows, cols), dtype).

    Accepts a sequence of 2-D matrices or an already-stacked ``(k, rows,
    cols)`` array. The dtype is the numpy common type of the inputs and
    is preserved across the slab transport — the float64 cast happens at
    compute time, exactly where the serial path does it, so pool results
    stay bit-identical to serial for every input dtype.
    """
    if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
        k, rows, cols = matrices.shape
        if k and (rows == 0 or cols == 0):
            raise ShapeError(
                f"batch matrices must be non-empty 2-D, got {(rows, cols)}"
            )
        return matrices, matrices.shape, matrices.dtype
    arrays = [np.asarray(m) for m in matrices]
    if not arrays:
        return arrays, (0, 0, 0), np.dtype(np.float64)
    for i, a in enumerate(arrays):
        if a.ndim != 2 or 0 in a.shape:
            raise ShapeError(f"batch[{i}] must be a non-empty 2-D matrix, got {a.shape}")
        if a.shape != arrays[0].shape:
            raise ShapeError(
                f"batch matrices must share one shape (one cached plan, one "
                f"shared-memory layout): batch[0] is {arrays[0].shape}, "
                f"batch[{i}] is {a.shape}"
            )
    dtype = np.result_type(*arrays)
    return arrays, (len(arrays), *arrays[0].shape), dtype


def _stack_batch(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Validate a batch and stack it into one (k, rows, cols) float64 array.

    Kept for callers that want an eager stacked copy; the session itself
    writes validated inputs straight into its shared slab instead.
    """
    arrays, shape, _dtype = _validate_batch(matrices)
    if shape[0] == 0:
        return np.empty((0, 0, 0), dtype=np.float64)
    if isinstance(arrays, np.ndarray):
        return arrays.astype(np.float64, copy=False)
    return np.stack(arrays).astype(np.float64, copy=False)


def _make_algorithm(algorithm, algo_kwargs):
    from .registry import make_algorithm

    if isinstance(algorithm, str):
        return make_algorithm(algorithm, **algo_kwargs)
    if algo_kwargs:
        raise TypeError("algorithm kwargs only apply to registry names")
    return algorithm


# =============================================================================
# Worker side
# =============================================================================


def _maybe_crash(index: int) -> None:
    """The poison-task hook: die at a configured batch index (tests only)."""
    crash_at = os.environ.get(CRASH_ENV_VAR)
    if crash_at is None or int(crash_at) != index:
        return
    once_flag = os.environ.get(CRASH_ONCE_ENV_VAR)
    if once_flag is None:
        os._exit(13)
    if os.path.exists(once_flag):
        os.unlink(once_flag)  # arm-once: the retried task survives
        os._exit(13)


def _warm_worker_main(worker_id, conn, algorithm, params, fast, fused, seed,
                      warm_shapes) -> None:
    """The persistent worker loop: one warm engine, attached slabs, RPCs.

    Messages are small tuples; bulk data never rides the pipe. Every
    reply to a ``run`` echoes the batch generation so the parent can
    discard stragglers from an abandoned batch. A worker never lets a
    task exception escape the loop — it ships the exception back as a
    ``task_error`` record instead (the parent treats a dead pipe, not a
    reply, as a crash).
    """
    from ..machine.engine import ExecutionEngine, PlanCache, native

    native.use_one_thread()  # before any native kernel; see its docstring
    engine = ExecutionEngine(cache=PlanCache())
    attached: dict = {}
    seen_shapes = set()
    warmed: List[Tuple[int, int]] = []
    tasks_done = 0
    batches = 0

    def warm_one(rows: int, cols: int) -> bool:
        info = engine.warm_plan(
            algorithm, rows, cols, params, fused=fused, seed=seed
        )
        seen_shapes.add((rows, cols))
        warmed.append((rows, cols))
        return info["compiled"]

    for rows, cols in warm_shapes:
        warm_one(rows, cols)

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "run":
                gen, in_name, out_name, shape, dtype_str, indices = msg[1:]
                shm_in = attach_slab(attached, "in", in_name)
                shm_out = attach_slab(attached, "out", out_name)
                inputs = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm_in.buf)
                outputs = np.ndarray(shape, dtype=np.float64, buffer=shm_out.buf)
                matrix_shape = shape[1:]
                for index in indices:
                    _maybe_crash(index)
                    try:
                        result = algorithm.compute(
                            inputs[index], params, engine=engine,
                            fast=fast and matrix_shape in seen_shapes,
                            fused=fused, seed=seed,
                        )
                    except Exception as exc:  # noqa: BLE001 — ship, don't die
                        try:
                            conn.send(("task_error", gen, index, exc))
                        except Exception:  # unpicklable exception
                            conn.send((
                                "task_error", gen, index,
                                RuntimeError(f"{type(exc).__name__}: {exc}"),
                            ))
                        continue
                    seen_shapes.add(matrix_shape)
                    outputs[index] = result.sat
                    tasks_done += 1
                    conn.send(("done", gen, index))
                batches += 1
                conn.send(("batch_end", gen))
            elif op == "warm":
                compiled = warm_one(msg[1], msg[2])
                conn.send(("warmed", {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "compiled": compiled,
                }))
            elif op == "stats":
                conn.send(("stats", {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "tasks": tasks_done,
                    "batches": batches,
                    "warmed_shapes": list(warmed),
                    "engine": engine.stats(),
                }))
            elif op == "stop":
                break
    finally:
        detach_slabs(attached)
        conn.close()


# =============================================================================
# Parent side
# =============================================================================


class _WorkerHandle:
    """Parent-side record of one persistent worker."""

    __slots__ = ("worker_id", "proc", "conn", "epoch", "inflight_gen", "assigned")

    def __init__(self, worker_id, proc, conn, epoch):
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.epoch = epoch
        self.inflight_gen: Optional[int] = None
        self.assigned: set = set()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid


class BatchSession:
    """A long-lived multi-core SAT server: warm workers, warm plan caches.

    Construction forks the persistent workers; every ``map`` call streams
    one batch through them over the session's pinned shared-memory slabs.
    Worker state — the process itself, its attached slab mapping, and its
    engine's plan cache — persists across batches, so repeated same-shape
    batches run entirely on the fused fast path after each worker's first
    matrix (or immediately, after :meth:`warm`). Use as a context
    manager, or call :meth:`close`.

    ``workers=1`` (or ``0``) degenerates to an in-process serial loop
    with one warm engine — same iterator contract, no pool — which is
    also the measurement baseline for the throughput benchmark.

    ``warm_shapes`` pre-compiles those plans (and their fused schedules)
    in every worker before the constructor returns; restarted workers
    re-warm the same set, so a crash never silently cools the pool.
    """

    def __init__(
        self,
        algorithm="1R1W",
        params: Optional[MachineParams] = None,
        *,
        workers: Optional[int] = None,
        fast: bool = True,
        fused: Union[bool, str] = True,
        seed: int = 0,
        warm_shapes: Sequence[Tuple[int, int]] = (),
        **algo_kwargs,
    ):
        self.algo = _make_algorithm(algorithm, algo_kwargs)
        self.params = params if params is not None else MachineParams()
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, workers)
        self.fast = fast
        self.fused = fused
        self.seed = seed
        self._ctx = _batch_context()
        self._workers: Optional[List[_WorkerHandle]] = None
        self._engine = None  # serial path's session engine
        self._warm_shapes = set()  # serial path's fast-run gate
        self._slabs: dict = {}  # role -> SharedMemory
        self._gen = 0
        self._restarts = 0
        self._prewarmed: List[Tuple[int, int]] = []
        self._batch_ctx: Optional[tuple] = None  # (in_name, out_name, shape, dtype_str)
        self._closed = False
        if self.workers > 1:
            # Pre-start the tracker so forked workers share it with the
            # parent instead of each spawning (and leak-warning from)
            # their own.
            resource_tracker.ensure_running()
            self._workers = [self._spawn(i) for i in range(self.workers)]
        for shape in warm_shapes:
            self.warm((int(shape[0]), int(shape[1])))

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_warm_worker_main,
            args=(worker_id, child_conn, self.algo, self.params, self.fast,
                  self.fused, self.seed, list(self._prewarmed)),
            daemon=True,
            name=f"repro-batch-{worker_id}",
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(worker_id, proc, parent_conn, epoch=0)

    def _restart_worker(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker in place; its replacement re-warms the
        session's pre-warmed shapes but starts with a cold plan cache for
        everything else — correctness is unaffected (the fused backend's
        outputs are identical counted or warm)."""
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.proc.join(timeout=1.0)
        fresh = self._spawn(handle.worker_id)
        handle.proc = fresh.proc
        handle.conn = fresh.conn
        handle.epoch += 1
        handle.inflight_gen = None
        handle.assigned = set()
        self._restarts += 1
        obs.inc("batch_worker_restarts_total")

    def close(self) -> None:
        if self._workers is not None:
            for handle in self._workers:
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for handle in self._workers:
                handle.proc.join(timeout=3.0)
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=1.0)
                try:
                    handle.conn.close()
                except OSError:
                    pass
            self._workers = None
        self._release_slabs()
        self._closed = True

    def __enter__(self) -> "BatchSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- slabs ---------------------------------------------------------------

    def _ensure_slab(self, role: str, nbytes: int) -> shared_memory.SharedMemory:
        """The pinned slab for ``role``, grown geometrically on demand
        (:func:`~repro.util.slab.grow_slab`)."""
        current = self._slabs.get(role)
        slab = grow_slab(current, nbytes)
        if slab is not current:
            self._slabs[role] = slab
            obs.set_gauge(
                "batch_slab_bytes", sum(s.size for s in self._slabs.values())
            )
        return slab

    def _release_slabs(self) -> None:
        for slab in self._slabs.values():
            release_slab(slab)
        self._slabs = {}

    def slab_bytes(self) -> int:
        """Total bytes currently pinned in the session's slabs."""
        return sum(s.size for s in self._slabs.values())

    # -- warm-up and introspection -------------------------------------------

    def warm(self, shape: Tuple[int, int]) -> None:
        """Pre-warm every worker's plan cache (and fused schedule) for
        ``shape`` through :meth:`ExecutionEngine.warm_plan`, so later
        batches at this shape start on the fused fast path immediately.
        Optional — the first batch warms implicitly — but it moves the
        one-time compile + counted run out of measured steady-state
        throughput."""
        shape = (int(shape[0]), int(shape[1]))
        if self._workers is None:
            from ..machine.engine import ExecutionEngine, PlanCache

            if self._engine is None:
                self._engine = ExecutionEngine(cache=PlanCache())
            self._engine.warm_plan(
                self.algo, shape[0], shape[1], self.params,
                fused=self.fused, seed=self.seed,
            )
            self._warm_shapes.add(shape)
        else:
            self._quiesce()
            for handle in self._workers:
                handle.conn.send(("warm", shape[0], shape[1]))
            for handle in self._workers:
                self._recv_reply(handle, "warmed")
        if shape not in self._prewarmed:
            self._prewarmed.append(shape)
        obs.inc("batch_plan_prewarms_total")

    def worker_stats(self) -> List[dict]:
        """Per-worker identity and engine statistics (pid, tasks served,
        batches, warmed shapes, plan-cache hits/misses/compiles). For the
        serial session this is the one in-process engine. Call between
        batches — a batch in flight is drained first."""
        if self._workers is None:
            engine = self._engine.stats() if self._engine is not None else {}
            return [{
                "worker": 0, "pid": os.getpid(), "tasks": None,
                "batches": None, "warmed_shapes": sorted(self._warm_shapes),
                "engine": engine,
            }]
        self._quiesce()
        for handle in self._workers:
            handle.conn.send(("stats",))
        return [self._recv_reply(handle, "stats") for handle in self._workers]

    def describe(self) -> dict:
        """The session's warm-worker configuration, benchmark-reportable."""
        return {
            "mode": "serial" if self._workers is None else "pool",
            "workers": self.workers,
            "slab_in_bytes": self._slabs["in"].size if "in" in self._slabs else 0,
            "slab_out_bytes": self._slabs["out"].size if "out" in self._slabs else 0,
            "prewarmed_shapes": [list(s) for s in self._prewarmed],
            "worker_restarts": self._restarts,
        }

    def _recv_reply(self, handle: _WorkerHandle, op: str):
        """Wait for one typed RPC reply, skipping stale batch stragglers."""
        while True:
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrashed(
                    f"batch worker {handle.worker_id} died during {op!r}"
                ) from exc
            if msg[0] == op:
                return msg[1] if len(msg) > 1 else None

    # -- batch execution -----------------------------------------------------

    def map(self, matrices, *, copy: bool = True) -> Iterator[np.ndarray]:
        """SATs for one same-shape batch, as an input-ordered iterator.

        ``copy=False`` yields zero-copy views into the session's output
        slab — valid until the next ``map``/``close`` (the slab lease
        passes to the next batch); copy them if they must outlive it.
        """
        if self._closed:
            raise ConfigurationError("batch session is closed")
        arrays, shape, dtype = _validate_batch(matrices)
        if shape[0] == 0:
            return iter(())
        mode = "serial" if self._workers is None else "pool"
        obs.inc("batch_batches_total", mode=mode)
        obs.inc("batch_matrices_total", shape[0], mode=mode)
        if self._workers is None:
            return self._map_serial(arrays, shape)
        return self._map_pool(arrays, shape, dtype, copy)

    def _map_serial(self, arrays, shape) -> Iterator[np.ndarray]:
        from ..machine.engine import ExecutionEngine, PlanCache

        if self._engine is None:
            self._engine = ExecutionEngine(cache=PlanCache())
        matrix_shape = shape[1:]
        recording = obs.is_enabled()
        with obs.span("batch_map", mode="serial", matrices=shape[0]):
            for i in range(shape[0]):
                t0 = time.perf_counter() if recording else 0.0
                result = self.algo.compute(
                    arrays[i], self.params, engine=self._engine,
                    fast=self.fast and matrix_shape in self._warm_shapes,
                    fused=self.fused, seed=self.seed,
                )
                if recording:
                    obs.observe(
                        "batch_roundtrip_seconds",
                        time.perf_counter() - t0,
                        mode="serial",
                    )
                self._warm_shapes.add(matrix_shape)
                yield result.sat

    def _quiesce(self) -> None:
        """Run every worker's in-flight batch dry (an abandoned ``map``
        iterator leaves one behind). The slabs are about to be re-leased,
        so no worker may still be writing into them."""
        if self._workers is None:
            return
        for handle in self._workers:
            while handle.inflight_gen is not None:
                if handle.conn.poll(0.05):
                    try:
                        msg = handle.conn.recv()
                    except (EOFError, OSError):
                        self._restart_worker(handle)
                        break
                    if msg[0] == "batch_end" and msg[1] == handle.inflight_gen:
                        handle.inflight_gen = None
                        handle.assigned = set()
                elif not handle.proc.is_alive():
                    self._restart_worker(handle)
                    break

    def _map_pool(self, arrays, shape, dtype, copy) -> Iterator[np.ndarray]:
        k, rows, cols = shape
        self._quiesce()
        itemsize = np.dtype(dtype).itemsize
        shm_in = self._ensure_slab("in", k * rows * cols * itemsize)
        shm_out = self._ensure_slab("out", k * rows * cols * 8)
        inputs = np.ndarray(shape, dtype=dtype, buffer=shm_in.buf)
        outputs = np.ndarray(shape, dtype=np.float64, buffer=shm_out.buf)
        if isinstance(arrays, np.ndarray):
            inputs[:] = arrays
        else:
            for i, a in enumerate(arrays):
                inputs[i] = a
        self._gen += 1
        gen = self._gen
        dtype_str = np.dtype(dtype).str
        self._batch_ctx = (shm_in.name, shm_out.name, shape, dtype_str)
        for handle in self._workers:
            indices = list(range(handle.worker_id, k, self.workers))
            if not indices:
                continue
            handle.assigned = set(indices)
            handle.inflight_gen = gen
            handle.conn.send((
                "run", gen, shm_in.name, shm_out.name, shape, dtype_str, indices,
            ))
        recording = obs.is_enabled()
        ready: set = set()
        next_yield = 0
        retried = False
        last = time.perf_counter() if recording else 0.0
        with obs.span("batch_map", mode="pool", matrices=k):
            while next_yield < k:
                while next_yield in ready:
                    ready.discard(next_yield)
                    if recording:
                        now = time.perf_counter()
                        obs.observe(
                            "batch_roundtrip_seconds", now - last, mode="pool"
                        )
                        last = now
                    yield outputs[next_yield].copy() if copy else outputs[next_yield]
                    next_yield += 1
                if next_yield >= k:
                    break
                retried = self._pump(gen, ready, retried, next_yield,
                                     k, rows, cols)

    def _pump(self, gen: int, ready: set, retried: bool, next_yield: int,
              k: int, rows: int, cols: int) -> bool:
        """Wait for progress on the in-flight batch; handle one wave of
        messages and crashes. Returns the updated retried flag."""
        live = [h for h in self._workers if h.inflight_gen == gen]
        if not live:
            # Every worker reported batch_end yet results are missing —
            # a protocol fault, not a crash; never spin silently.
            missing = k - next_yield - len(ready)
            raise WorkerCrashed(
                f"batch workers finished but {missing} result(s) "
                f"were never delivered"
            )
        waitables = []
        by_obj = {}
        for handle in live:
            waitables.append(handle.conn)
            by_obj[id(handle.conn)] = handle
            waitables.append(handle.proc.sentinel)
            by_obj[handle.proc.sentinel] = handle
        crashed: List[_WorkerHandle] = []
        for obj in _connection_wait(waitables, timeout=_WAIT_TIMEOUT):
            handle = by_obj[id(obj)] if not isinstance(obj, int) else by_obj[obj]
            if handle in crashed:
                continue
            if obj is handle.conn:
                try:
                    msg = handle.conn.recv()
                except (EOFError, OSError):
                    crashed.append(handle)
                    continue
                self._handle_message(handle, gen, msg, ready)
            else:
                # Process sentinel: drain anything it managed to send,
                # then treat the remainder as crashed work.
                try:
                    while handle.conn.poll():
                        self._handle_message(handle, gen, handle.conn.recv(), ready)
                except (EOFError, OSError):
                    pass
                if handle.inflight_gen == gen:
                    crashed.append(handle)
        for handle in crashed:
            retried = self._recover_crash(handle, gen, retried, k, rows, cols)
        return retried

    def _handle_message(self, handle: _WorkerHandle, gen: int, msg: tuple,
                        ready: set) -> None:
        op = msg[0]
        if len(msg) > 1 and msg[1] != gen:
            return  # straggler from an abandoned batch
        if op == "done":
            handle.assigned.discard(msg[2])
            ready.add(msg[2])
        elif op == "batch_end":
            handle.inflight_gen = None
            handle.assigned = set()
        elif op == "task_error":
            handle.assigned.discard(msg[2])
            raise msg[3]

    def _recover_crash(self, handle: _WorkerHandle, gen: int, retried: bool,
                       k: int, rows: int, cols: int) -> bool:
        """Restart a dead worker and re-dispatch its unfinished indices —
        once per batch. The retry is idempotent: tasks are pure compute
        into disjoint output slots of the same leased slab."""
        obs.inc("batch_worker_crashes_total")
        exitcode = handle.proc.exitcode
        cause = RuntimeError(
            f"batch worker {handle.worker_id} (pid {handle.pid}) exited "
            f"with code {exitcode} mid-batch"
        )
        unfinished = sorted(handle.assigned)
        if retried:
            handle.inflight_gen = None
            raise WorkerCrashed(
                f"a batch worker died while computing {self.algo.name} on a "
                f"{k}x{rows}x{cols} batch (task retry crashed too)"
            ) from cause
        obs.inc("batch_task_retries")
        self._restart_worker(handle)
        in_name, out_name, shape, dtype_str = self._batch_ctx
        handle.assigned = set(unfinished)
        handle.inflight_gen = gen
        handle.conn.send((
            "run", gen, in_name, out_name, shape, dtype_str, unfinished,
        ))
        return True


def sat_batch(
    matrices,
    algorithm="1R1W",
    params: Optional[MachineParams] = None,
    *,
    workers: Optional[int] = None,
    fast: bool = True,
    fused: Union[bool, str] = True,
    seed: int = 0,
    **algo_kwargs,
) -> Iterator[np.ndarray]:
    """Compute the SAT of every matrix in a same-shape batch, in parallel.

    One-shot wrapper over :class:`BatchSession`: returns an iterator
    yielding one float64 SAT per input matrix, in input order (delivery
    is ordered even when workers finish out of order, so downstream
    consumers see a deterministic stream). The session — warm workers
    and slabs included — is torn down when the iterator is exhausted;
    amortize worker startup across batches by using
    :class:`BatchSession` directly.

    Parameters
    ----------
    matrices:
        Same-shape 2-D matrices (or a stacked 3-D array). Mixed shapes
        raise :class:`~repro.errors.ShapeError` — a batch is one plan,
        one slab layout.
    algorithm:
        Registry name (kwargs like kR1W's ``p`` forwarded) or an
        algorithm instance.
    workers:
        Worker-process count; defaults to ``os.cpu_count()`` capped by
        the batch size. ``workers <= 1`` (or a single-matrix batch) runs
        serially in-process — same iterator contract, no pool.
    fast / fused:
        Forwarded to :meth:`~repro.sat.base.SATAlgorithm.compute` for
        warm runs; each worker's first matrix at a shape always runs
        counted to populate its plan tallies.
    seed:
        Block-ordering seed used for every matrix (results are
        order-independent; this keeps traces reproducible).

    Raises
    ------
    WorkerCrashed
        When a worker process dies mid-batch and its single idempotent
        retry dies too.
    """
    arrays, shape, _dtype = _validate_batch(matrices)
    k = shape[0]
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, k or 1))

    def run() -> Iterator[np.ndarray]:
        with BatchSession(
            algorithm, params, workers=workers, fast=fast, fused=fused,
            seed=seed, **algo_kwargs,
        ) as session:
            yield from session.map(arrays)

    return run()


def batch_counters(shape: Tuple[int, int], algorithm="1R1W",
                   params: Optional[MachineParams] = None, **algo_kwargs):
    """The per-matrix access counters a batch of this shape incurs.

    One counted run on an all-ones matrix — exact for the whole batch
    because HMM access patterns are data-independent. (All-ones, not
    zeros: the one value-sensitive micro-optimization in the block code
    skips the corner-offset write when the correction is exactly 0.0,
    which an all-zeros probe would hit everywhere.)
    """
    algo = _make_algorithm(algorithm, algo_kwargs)
    if params is None:
        params = MachineParams()
    result = algo.compute(np.ones(shape), params, use_plan_cache=False)
    return result.counters


def sat_batch_list(matrices, algorithm="1R1W",
                   params: Optional[MachineParams] = None,
                   **kwargs) -> List[np.ndarray]:
    """Eager convenience wrapper: the batch's SATs as a list."""
    return list(sat_batch(matrices, algorithm, params, **kwargs))
