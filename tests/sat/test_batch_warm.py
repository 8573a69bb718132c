"""The persistent warm-worker pool: reuse, zero-copy slabs, crash recovery.

These tests pin the three properties the warm rework was bought for:

* **workers persist** — the same processes (same pids) serve successive
  batches, and their plan caches stay warm across batches (hits grow,
  compiles don't);
* **the slab transport is zero-copy and dtype-faithful** — results read
  straight out of the output slab are bit-identical to the serial
  oracle for every conformance dtype (float32/float64/int64), because
  the slab carries the inputs' own dtype and the float64 cast happens at
  compute time exactly where the serial path does it;
* **a crash mid-slab never deadlocks** — the poison-task pattern from
  the PR 6 crash tests, extended: the victim is detected via its process
  sentinel, restarted in place, its unfinished slab indices re-run, and
  the *session* (not just the batch) keeps serving afterwards.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.machine.engine import native
from repro.machine.params import MachineParams
from repro.obs import runtime as obs
from repro.sat import BatchSession
from repro.sat.batch import CRASH_ENV_VAR, CRASH_ONCE_ENV_VAR
from repro.sat.reference import sat_reference

PARAMS = MachineParams(width=8, latency=16)


def _random_batch(rng, k, shape=(16, 16), dtype=np.float64):
    if np.issubdtype(np.dtype(dtype), np.integer):
        return [rng.integers(0, 50, size=shape).astype(dtype) for _ in range(k)]
    return [rng.integers(0, 50, size=shape).astype(dtype) for _ in range(k)]


# --- worker reuse -------------------------------------------------------------


def test_workers_persist_across_batches(rng):
    """The same worker processes (same pids) serve batch after batch, and
    each one's plan cache warms up: compiles stay at one per worker while
    hits grow with every further matrix."""
    mats = _random_batch(rng, 4)
    with BatchSession("1R1W", PARAMS, workers=2) as session:
        list(session.map(mats))
        stats1 = {s["worker"]: s for s in session.worker_stats()}
        list(session.map(mats))
        stats2 = {s["worker"]: s for s in session.worker_stats()}

    assert set(stats1) == set(stats2) == {0, 1}
    parent = os.getpid()
    pids = {s["pid"] for s in stats1.values()}
    assert len(pids) == 2 and parent not in pids  # two real worker processes
    for wid in (0, 1):
        assert stats2[wid]["pid"] == stats1[wid]["pid"]  # no respawn
        # One compile per worker ever (its first matrix); everything after
        # replays the cached plan.
        assert stats1[wid]["engine"]["compiles"] == 1
        assert stats2[wid]["engine"]["compiles"] == 1
        assert stats2[wid]["engine"]["hits"] > stats1[wid]["engine"]["hits"]
        assert stats2[wid]["batches"] == 2
    assert sum(s["tasks"] for s in stats2.values()) == 8


def test_warm_precompiles_every_worker(rng):
    """An explicit warm() compiles the plan in EVERY worker before any
    batch runs, so the first measured batch is all plan-cache hits."""
    mats = _random_batch(rng, 6, shape=(16, 16))
    with BatchSession("1R1W", PARAMS, workers=2) as session:
        session.warm((16, 16))
        warmed = {s["worker"]: s for s in session.worker_stats()}
        out = list(session.map(mats))
        after = {s["worker"]: s for s in session.worker_stats()}

    for wid in (0, 1):
        assert warmed[wid]["warmed_shapes"] == [(16, 16)]
        assert warmed[wid]["engine"]["compiles"] == 1
        # Every batch task was a hit: no further compiles, misses frozen.
        assert after[wid]["engine"]["compiles"] == 1
        assert after[wid]["engine"]["misses"] == warmed[wid]["engine"]["misses"]
        assert after[wid]["engine"]["hits"] - warmed[wid]["engine"]["hits"] == 3
    for m, s in zip(mats, out):
        assert np.array_equal(s, sat_reference(m))


def test_warm_shapes_constructor_prewarms(rng):
    mats = _random_batch(rng, 4, shape=(8, 8))
    with BatchSession(
        "1R1W", PARAMS, workers=2, warm_shapes=[(8, 8)]
    ) as session:
        stats = {s["worker"]: s for s in session.worker_stats()}
        out = list(session.map(mats))
        assert session.describe()["prewarmed_shapes"] == [[8, 8]]
    for wid in (0, 1):
        assert stats[wid]["warmed_shapes"] == [(8, 8)]
    for m, s in zip(mats, out):
        assert np.array_equal(s, sat_reference(m))


def test_serial_session_warm_and_stats(rng):
    """The workers=1 degenerate keeps the same warm API: one in-process
    engine, pre-warmable, reported by worker_stats()."""
    mats = _random_batch(rng, 3, shape=(16, 16))
    with BatchSession("1R1W", PARAMS, workers=1, warm_shapes=[(16, 16)]) as session:
        out = list(session.map(mats))
        (stats,) = session.worker_stats()
    assert stats["pid"] == os.getpid()
    assert stats["engine"]["compiles"] == 1  # warm compiled it; batch reused
    for m, s in zip(mats, out):
        assert np.array_equal(s, sat_reference(m))


# --- zero-copy slab round trip, across dtypes ---------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_slab_round_trip_bit_identical_across_dtypes(rng, dtype):
    """Inputs ride the slab in their own dtype; pooled results read
    straight from the output slab (copy=False) are bit-identical to the
    serial path for float32, float64, and int64 batches."""
    mats = _random_batch(rng, 6, dtype=dtype)
    assert mats[0].dtype == np.dtype(dtype)
    serial = [
        sat
        for sat in BatchSession("1R1W", PARAMS, workers=1).map(mats)
    ]
    with BatchSession("1R1W", PARAMS, workers=3) as session:
        pooled = []
        for sat in session.map(mats, copy=False):
            # Zero-copy out: the yielded array is a view into the session's
            # pinned output slab, not a fresh allocation.
            assert not sat.flags["OWNDATA"]
            assert sat.base is not None
            pooled.append(sat.copy())  # keep past the lease for comparison
    assert len(pooled) == 6
    for s, p in zip(serial, pooled):
        assert s.dtype == p.dtype == np.float64
        assert np.array_equal(s, p)


def test_slabs_persist_and_grow_across_batches(rng):
    """The slabs are allocated once and only grow: a same-size second
    batch reuses them, a bigger batch grows them geometrically."""
    small = _random_batch(rng, 2, shape=(8, 8))
    with BatchSession("1R1W", PARAMS, workers=2) as session:
        list(session.map(small))
        first = session.slab_bytes()
        assert first > 0
        list(session.map(small))
        assert session.slab_bytes() == first  # reused, not reallocated
        list(session.map(_random_batch(rng, 8, shape=(8, 8))))
        assert session.slab_bytes() > first
    assert session.slab_bytes() == 0  # released at close


# --- crash mid-slab: recovery without deadlock --------------------------------


def test_crash_mid_slab_restarts_worker_and_session_survives(
    rng, tmp_path, monkeypatch
):
    """A worker killed mid-slab is restarted in place: the batch completes
    bit-exactly via the single idempotent retry, only the victim's pid
    changes, and the SAME session serves further batches afterwards."""
    flag = tmp_path / "crash-once"
    flag.touch()
    monkeypatch.setenv(CRASH_ENV_VAR, "1")  # index 1 -> worker 1 of 2
    monkeypatch.setenv(CRASH_ONCE_ENV_VAR, str(flag))
    mats = _random_batch(rng, 6, shape=(8, 8))
    more = _random_batch(rng, 4, shape=(8, 8))
    obs.enable()
    obs.reset()
    try:
        with BatchSession("1R1W", PARAMS, workers=2) as session:
            pids_before = {s["worker"]: s["pid"] for s in session.worker_stats()}
            out1 = list(session.map(mats))  # crash + in-place retry inside
            monkeypatch.delenv(CRASH_ENV_VAR)
            out2 = list(session.map(more))  # session still healthy
            pids_after = {s["worker"]: s["pid"] for s in session.worker_stats()}
            desc = session.describe()
        crashes = obs.registry().counter_value("batch_worker_crashes_total")
        restarts = obs.registry().counter_value("batch_worker_restarts_total")
    finally:
        obs.disable()
        obs.reset()

    assert not flag.exists()  # the poison actually fired
    for m, s in zip(mats + more, out1 + out2):
        assert np.array_equal(s, sat_reference(m))
    assert pids_after[0] == pids_before[0]  # the survivor was left alone
    assert pids_after[1] != pids_before[1]  # the victim was replaced
    assert desc["worker_restarts"] == 1
    assert crashes == 1 and restarts == 1


def test_restarted_worker_rewarms_prewarmed_shapes(rng, tmp_path, monkeypatch):
    """A replacement worker re-warms the session's pre-warmed shapes, so a
    crash never silently cools the pool."""
    flag = tmp_path / "crash-once"
    flag.touch()
    monkeypatch.setenv(CRASH_ENV_VAR, "1")
    monkeypatch.setenv(CRASH_ONCE_ENV_VAR, str(flag))
    mats = _random_batch(rng, 4, shape=(8, 8))
    with BatchSession(
        "1R1W", PARAMS, workers=2, warm_shapes=[(8, 8)]
    ) as session:
        out = list(session.map(mats))
        stats = {s["worker"]: s for s in session.worker_stats()}
    for m, s in zip(mats, out):
        assert np.array_equal(s, sat_reference(m))
    # The replacement (worker 1) warmed (8, 8) at startup, exactly like
    # the original cohort did.
    assert stats[1]["warmed_shapes"] == [(8, 8)]
    assert stats[1]["engine"]["compiles"] == 1


def test_abandoned_iterator_does_not_wedge_the_session(rng):
    """Dropping a map() iterator mid-batch must not deadlock the next
    batch: the session runs the leftover work dry before re-leasing the
    slabs."""
    mats = [np.full((8, 8), float(i + 1)) for i in range(6)]
    with BatchSession("1R1W", PARAMS, workers=2) as session:
        it = session.map(mats)
        next(it)  # take one result, then abandon the iterator
        del it
        out = list(session.map(mats))
    for i, s in enumerate(out):
        assert s[0, 0] == float(i + 1)
        assert np.array_equal(s, sat_reference(mats[i]))


def test_describe_reports_warm_worker_config(rng):
    with BatchSession("1R1W", PARAMS, workers=2, warm_shapes=[(8, 8)]) as session:
        list(session.map(_random_batch(rng, 4, shape=(8, 8))))
        desc = session.describe()
    assert desc["mode"] == "pool"
    assert desc["workers"] == 2
    assert desc["slab_in_bytes"] >= 4 * 8 * 8 * 8
    assert desc["slab_out_bytes"] >= 4 * 8 * 8 * 8
    assert desc["prewarmed_shapes"] == [[8, 8]]
    assert desc["worker_restarts"] == 0


# --- native kernels in forked workers ----------------------------------------

#: Native 1R1W in the parent starts an OpenMP team; then a pool whose
#: workers run native kernels too. libgomp's thread pool does not survive
#: fork, so a worker that ran its first parallel region on more than one
#: thread would block forever. SIGALRM turns such a hang into exit 3, after
#: the session's close() has stopped the workers and unlinked its slabs.
_NATIVE_AFTER_FORK = r"""
import signal, sys
import numpy as np
from repro import make_algorithm
from repro.machine.params import MachineParams
from repro.sat import BatchSession

class Hung(Exception):
    pass

def on_alarm(*_):
    raise Hung()

signal.signal(signal.SIGALRM, on_alarm)
params = MachineParams(width=8, latency=4)
rng = np.random.default_rng(0)
algo = make_algorithm("1R1W")
a = rng.integers(0, 9, (64, 64)).astype(float)
algo.compute(a, params)
algo.compute(a, params, fast=True, fused="native")
batch = [rng.integers(0, 9, (64, 64)).astype(float) for _ in range(4)]
signal.alarm(30)
try:
    with BatchSession("1R1W", params, workers=2, fused="native") as session:
        outs = list(session.map(batch))
except Hung:
    print("hung")
    sys.exit(3)
signal.alarm(0)
exact = all(
    np.array_equal(o, np.cumsum(np.cumsum(m, 0), 1)) for o, m in zip(outs, batch)
)
print("exact" if exact else "mismatch")
"""

#: A pool on the numpy fused path: no worker may build the native module.
_NUMPY_POOL = r"""
import numpy as np
from repro.machine.params import MachineParams
from repro.sat import BatchSession

rng = np.random.default_rng(0)
batch = [rng.integers(0, 9, (16, 16)).astype(float) for _ in range(4)]
with BatchSession("1R1W", MachineParams(width=8, latency=4), workers=2) as session:
    outs = list(session.map(batch))
exact = all(
    np.array_equal(o, np.cumsum(np.cumsum(m, 0), 1)) for o, m in zip(outs, batch)
)
print("exact" if exact else "mismatch")
"""


def _run_python(script: str, **env_overrides) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.update(env_overrides)
    env.pop("REPRO_FUSED_BACKEND", None)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_native_pool_after_native_parent_does_not_hang():
    """Regression: a pool forked after the parent ran a native kernel on
    two OpenMP threads used to block in its workers' first native kernel."""
    if not native.native_available():
        pytest.skip("no native toolchain resolves on this host")
    proc = _run_python(_NATIVE_AFTER_FORK, OMP_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["exact"], proc.stdout + proc.stderr


def test_numpy_pool_never_builds_the_native_module(tmp_path):
    cache = tmp_path / "native-cache"
    proc = _run_python(_NUMPY_POOL, REPRO_NATIVE_CACHE_DIR=str(cache))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["exact"]
    assert not cache.exists()
