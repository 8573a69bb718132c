"""SATServer: admission, batching, deadlines, drain, error routing."""

import asyncio

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    DrainTimeout,
    Overloaded,
    UnknownDataset,
)
from repro.service.server import SATServer
from repro.service.store import TiledSATStore


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def run(coro):
    return asyncio.run(coro)


def make_matrix(rng, n=24):
    return rng.integers(0, 100, size=(n, n)).astype(np.float64)


class TestLifecycle:
    def test_submit_before_start_sheds(self):
        async def main():
            server = SATServer(TiledSATStore())
            with pytest.raises(Overloaded):
                server.submit("region_sum", "d", (0, 0, 1, 1))
            assert server.stats.shed == 1

        run(main())

    def test_submit_after_drain_sheds(self, rng):
        async def main():
            async with SATServer(TiledSATStore()) as server:
                await server.ingest("d", make_matrix(rng), tile=8)
            with pytest.raises(Overloaded):
                server.submit("region_sum", "d", (0, 0, 1, 1))

        run(main())

    def test_double_start_rejected(self):
        async def main():
            async with SATServer() as server:
                with pytest.raises(ConfigurationError):
                    await server.start()

        run(main())

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            SATServer(max_queue=0)
        with pytest.raises(ConfigurationError):
            SATServer(max_batch=0)


class TestRoundTrip:
    def test_ingest_query_update_fifo(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(TiledSATStore()) as server:
                await server.ingest("img", a, tile=8, track_squares=True)
                r1 = await server.region_sum("img", 0, 0, 23, 23)
                assert r1.value == a.sum()
                await server.update_point("img", 3, 3, delta=10.0)
                r2 = await server.region_sum("img", 0, 0, 23, 23)
                assert r2.value == a.sum() + 10.0
                mean, var = (await server.local_stats("img", 5, 5, 2)).value
                shadow = a.copy()
                shadow[3, 3] += 10.0
                w = shadow[3:8, 3:8]
                assert mean == pytest.approx(w.mean())
                assert var == pytest.approx(w.var(), abs=1e-8)
                out = (await server.box_filter("img", 2)).value
                assert out.shape == a.shape
                assert r2.completed_index > r1.completed_index

        run(main())

    def test_update_region_through_server(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer() as server:
                await server.ingest("img", a, tile=8)
                block = np.full((4, 4), 7.0)
                await server.update_region("img", 2, 2, block)
                shadow = a.copy()
                shadow[2:6, 2:6] = 7.0
                resp = await server.region_sum("img", 0, 0, 23, 23)
                assert resp.value == shadow.sum()
                await server.update_region("img", 2, 2, block, add=True)
                shadow[2:6, 2:6] += 7.0
                resp = await server.region_sum("img", 0, 0, 23, 23)
                assert resp.value == shadow.sum()

        run(main())

    def test_unknown_dataset_routes_to_future(self):
        async def main():
            async with SATServer() as server:
                with pytest.raises(UnknownDataset):
                    await server.region_sum("ghost", 0, 0, 1, 1)
            # the scheduler survives the error: server drained cleanly

        run(main())

    def test_unknown_kind_routes_to_future(self, rng):
        async def main():
            async with SATServer() as server:
                await server.ingest("d", make_matrix(rng), tile=8)
                with pytest.raises(ConfigurationError):
                    await server.submit("teleport", "d", None)

        run(main())


class TestAdmissionControl:
    def test_overload_sheds_exactly_the_excess(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(max_queue=8, max_batch=4) as server:
                await server.ingest("img", a, tile=8)
                futures, shed = [], 0
                # No await between submits: the scheduler cannot drain,
                # so everything past max_queue must shed.
                for i in range(20):
                    try:
                        futures.append(
                            server.submit("region_sum", "img", (0, 0, i % 24, i % 24))
                        )
                    except Overloaded:
                        shed += 1
                assert len(futures) == 8 and shed == 12
                responses = await asyncio.gather(*futures)
                assert len(responses) == 8  # nothing admitted is lost
                indices = [r.completed_index for r in responses]
                assert indices == sorted(indices)  # FIFO preserved

        run(main())

    def test_queue_depth_metricized(self, rng):
        async def main():
            async with SATServer(max_queue=4) as server:
                await server.ingest("img", make_matrix(rng), tile=8)
                for _ in range(3):
                    server.submit("region_sum", "img", (0, 0, 1, 1))
                assert server.stats.max_queue_depth >= 3

        run(main())


class TestMicroBatching:
    def test_contiguous_compatible_run_batches(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(max_batch=16) as server:
                await server.ingest("img", a, tile=8)
                futures = [
                    server.submit("region_sum", "img", (0, 0, i, i))
                    for i in range(6)
                ]
                responses = await asyncio.gather(*futures)
                for i, resp in enumerate(responses):
                    assert resp.value == a[: i + 1, : i + 1].sum()
                # submitted back-to-back with an idle scheduler: the tail
                # requests coalesce (the head may have run alone first)
                assert max(r.batch_size for r in responses) > 1
                assert server.stats.batches < len(responses)

        run(main())

    def test_incompatible_head_breaks_batch_not_order(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(max_batch=16) as server:
                await server.ingest("img", a, tile=8, track_squares=True)
                shadow = a.copy()
                futures = []
                for i in range(3):
                    futures.append(server.submit("region_sum", "img", (0, 0, 23, 23)))
                futures.append(
                    server.submit(
                        "update_point", "img",
                        {"r": 0, "c": 0, "delta": 5.0, "value": None},
                    )
                )
                futures.append(server.submit("region_sum", "img", (0, 0, 23, 23)))
                responses = await asyncio.gather(*futures)
                # queries before the update see the old sum; after, the new
                assert all(r.value == shadow.sum() for r in responses[:3])
                assert responses[4].value == shadow.sum() + 5.0
                indices = [r.completed_index for r in responses]
                assert indices == sorted(indices)

        run(main())

    def test_mixed_radius_local_stats_batch(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(max_batch=16) as server:
                await server.ingest("img", a, tile=8, track_squares=True)
                futures = [
                    server.submit("local_stats", "img", (5, 5, radius))
                    for radius in (1, 2, 3)
                ]
                responses = await asyncio.gather(*futures)
                for radius, resp in zip((1, 2, 3), responses):
                    w = a[5 - radius:6 + radius, 5 - radius:6 + radius]
                    mean, var = resp.value
                    assert mean == pytest.approx(w.mean())
                    assert var == pytest.approx(w.var(), abs=1e-8)

        run(main())

    def test_max_batch_respected(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(max_batch=3) as server:
                await server.ingest("img", a, tile=8)
                futures = [
                    server.submit("region_sum", "img", (0, 0, 1, 1))
                    for _ in range(9)
                ]
                responses = await asyncio.gather(*futures)
                assert max(r.batch_size for r in responses) <= 3

        run(main())


class TestDeadlines:
    def test_expired_deadline_rejected_cheaply(self, rng):
        a = make_matrix(rng)
        clock = FakeClock()

        async def main():
            async with SATServer(clock=clock) as server:
                await server.ingest("img", a, tile=8)
                fut = server.submit("region_sum", "img", (0, 0, 1, 1), timeout=5.0)
                clock.now += 10.0  # deadline passes while queued
                with pytest.raises(DeadlineExceeded):
                    await fut
                assert server.stats.deadline_missed == 1
                # a live deadline still completes
                resp = await server.region_sum("img", 0, 0, 1, 1, timeout=5.0)
                assert resp.value == a[:2, :2].sum()

        run(main())

    def test_mixed_expiry_within_one_batch(self, rng):
        a = make_matrix(rng)
        clock = FakeClock()

        async def main():
            async with SATServer(max_batch=8, clock=clock) as server:
                await server.ingest("img", a, tile=8)
                doomed = server.submit("region_sum", "img", (0, 0, 1, 1), timeout=1.0)
                alive = server.submit("region_sum", "img", (0, 0, 2, 2), timeout=100.0)
                clock.now += 2.0
                with pytest.raises(DeadlineExceeded):
                    await doomed
                resp = await alive
                assert resp.value == a[:3, :3].sum()

        run(main())


class TestDrain:
    def test_drain_completes_all_admitted(self, rng):
        a = make_matrix(rng)

        async def main():
            store = TiledSATStore()
            server = SATServer(store, max_queue=32)
            await server.start()
            await server.ingest("img", a, tile=8)
            futures = [
                server.submit("region_sum", "img", (0, 0, i, i)) for i in range(10)
            ]
            await server.drain()
            for i, fut in enumerate(futures):
                assert fut.done()
                assert fut.result().value == a[: i + 1, : i + 1].sum()

        run(main())

    def test_drain_is_idempotent(self):
        async def main():
            server = SATServer()
            await server.start()
            await server.drain()
            await server.drain()

        run(main())


def _wedge(server):
    """Make the server's dispatch hang forever (a wedged worker thread)."""
    stuck = asyncio.Event()

    async def hang(live):
        await stuck.wait()  # never set

    server._dispatch = hang
    return stuck


class TestDrainTimeout:
    def test_drain_timeout_raises_and_fails_inflight(self, rng, caplog):
        a = make_matrix(rng)

        async def main():
            store = TiledSATStore()
            store.put("img", a, tile=8)
            server = SATServer(store, max_queue=8)
            await server.start()
            _wedge(server)
            executing = server.submit("region_sum", "img", (0, 0, 1, 1))
            await asyncio.sleep(0.01)  # let the scheduler dequeue it
            queued = server.submit("update_point", "img",
                                   {"r": 0, "c": 0, "delta": 1.0, "value": None})
            with pytest.raises(DrainTimeout, match="2 request"):
                await server.drain(timeout=0.05)
            # Every unfinished request resolved to DrainTimeout — no client
            # awaits forever, and the stream stays complete.
            for fut in (executing, queued):
                assert fut.done()
                with pytest.raises(DrainTimeout):
                    fut.result()
            assert server._scheduler is None  # shutdown actually finished

        with caplog.at_level("WARNING", logger="repro.service"):
            run(main())
        assert any("2 in-flight" in r.message for r in caplog.records)

    def test_close_uses_constructor_drain_timeout(self, rng):
        a = make_matrix(rng)

        async def main():
            store = TiledSATStore()
            store.put("img", a, tile=8)
            server = SATServer(store, drain_timeout=0.05)
            await server.start()
            _wedge(server)
            fut = server.submit("region_sum", "img", (0, 0, 1, 1))
            await asyncio.sleep(0.01)
            with pytest.raises(DrainTimeout):
                await server.close()
            with pytest.raises(DrainTimeout):
                fut.result()  # the wedged request was failed, not lost

        run(main())

    def test_close_on_healthy_server_drains_cleanly(self, rng):
        a = make_matrix(rng)

        async def main():
            server = SATServer(TiledSATStore(), drain_timeout=5.0)
            await server.start()
            await server.ingest("img", a, tile=8)
            fut = server.submit("region_sum", "img", (0, 0, 2, 2))
            await server.close()  # everything admitted completes
            assert fut.result().value == a[:3, :3].sum()

        run(main())

    def test_explicit_none_timeout_still_waits_forever_semantics(self, rng):
        # drain(timeout=None) must override a constructor drain_timeout;
        # with nothing pending it returns immediately either way.
        async def main():
            server = SATServer(drain_timeout=0.01)
            await server.start()
            await server.drain(timeout=None)

        run(main())

    def test_bad_drain_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SATServer(drain_timeout=0.0)
        with pytest.raises(ConfigurationError):
            SATServer(drain_timeout=-1.0)


class TestStats:
    def test_counters_consistent(self, rng):
        a = make_matrix(rng)

        async def main():
            async with SATServer(max_queue=4) as server:
                await server.ingest("img", a, tile=8)
                done = 0
                for _ in range(10):
                    try:
                        await server.region_sum("img", 0, 0, 1, 1)
                        done += 1
                    except Overloaded:
                        pass
                s = server.stats.as_dict()
                assert s["admitted"] == done + 1  # + the ingest
                assert s["completed"] == done + 1
                assert s["by_kind"]["region_sum"] == done
                assert s["by_kind"]["ingest"] == 1

        run(main())


class TestClusterMode:
    """SATServer(router=...): micro-batches feed the cluster coalescer."""

    @staticmethod
    def _cluster():
        from repro.service.cluster import WorkerSupervisor
        from repro.service.router import ShardRouter

        sup = WorkerSupervisor(2, inline=True)
        return ShardRouter(sup, replicas=2)

    def test_micro_batched_region_sums_are_bit_exact(self, rng):
        from repro.service.queries import region_sums as local_region_sums
        from repro.service.store import Dataset

        a = make_matrix(rng, n=32)
        router = self._cluster()
        oracle = Dataset("img", a.copy(), 8)
        rects = [(i % 5, i % 7, 16 + i % 9, 20 + i % 11) for i in range(24)]

        async def main():
            async with SATServer(router=router) as server:
                await server.ingest("img", a, tile=8)
                got = await asyncio.gather(
                    *[server.region_sum("img", *rect) for rect in rects]
                )
                want = local_region_sums(
                    oracle, np.array(rects, dtype=np.int64)
                )
                for resp, w in zip(got, want):
                    assert resp.value == w.item()
                # A burst of scalar queries rode shared micro-batches,
                # not one router call each.
                assert 1 <= server.stats.batches < server.stats.admitted

        try:
            run(main())
        finally:
            router.close()

    def test_cluster_updates_flow_through_the_router(self, rng):
        from repro.service.queries import region_sums as local_region_sums
        from repro.service.store import Dataset

        a = make_matrix(rng, n=32)
        router = self._cluster()
        oracle = Dataset("img", a.copy(), 8)
        patch = rng.integers(-5, 5, size=(4, 4)).astype(np.float64)

        async def main():
            async with SATServer(router=router) as server:
                await server.ingest("img", a, tile=8)
                await server.update_point("img", 3, 4, delta=7.5)
                oracle.update_point(3, 4, delta=7.5)
                await server.update_region("img", 10, 10, patch)
                oracle.update_region(10, 10, patch)
                rects = np.array([[0, 0, 31, 31], [2, 3, 12, 12]],
                                 dtype=np.int64)
                want = local_region_sums(oracle, rects)
                for rect, w in zip(rects, want):
                    resp = await server.region_sum("img", *map(int, rect))
                    assert resp.value == w.item()

        try:
            run(main())
        finally:
            router.close()

    def test_non_cluster_servable_kinds_are_rejected(self, rng):
        a = make_matrix(rng, n=32)
        router = self._cluster()

        async def main():
            async with SATServer(router=router) as server:
                await server.ingest("img", a, tile=8)
                with pytest.raises(ConfigurationError):
                    await server.local_stats("img", 5, 5, 2)
                with pytest.raises(ConfigurationError):
                    await server.ingest("sq", a, tile=8, track_squares=True)
                # The rejections cost nothing: the dataset still serves.
                resp = await server.region_sum("img", 0, 0, 31, 31)
                assert resp.value == a.sum()

        try:
            run(main())
        finally:
            router.close()
