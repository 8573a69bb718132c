"""Tests for the seeded fault plan: determinism, independence, validation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, TransientFault
from repro.faults import FaultInjector, FaultPlan, FaultyGlobalMemory
from repro.machine.cost import access_cost, breakdown
from repro.machine.macro.global_memory import GlobalMemory
from repro.machine.params import MachineParams

#: Arguments for every public read method of GlobalMemory on a 4x4 "A".
#: A read method missing here fails the walk below, so no read path can
#: slip past fault injection unnoticed.
READ_CALLS = {
    "read_at": ("A", 1, 1),
    "read_block": ("A", 0, 0, 2, 4),
    "read_drun": ("A", 0, 3, 4),
    "read_hrun": ("A", 1, 0, 4),
    "read_strip": ("A", 0, 0, 2, 4),
    "read_strip_stride": ("A", 0, 0, 2, 4),
    "read_vrun": ("A", 1, 0, 3),
}


def task_schedule(plan, kernels=20, blocks=20):
    return [
        plan.task_fault_mode(k, b, 0) for k in range(kernels) for b in range(blocks)
    ]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.chaos(seed=7)
        b = FaultPlan.chaos(seed=7)
        assert task_schedule(a) == task_schedule(b)
        assert [a.read_corrupted(i) for i in range(500)] == [
            b.read_corrupted(i) for i in range(500)
        ]
        assert [a.provider_fails(i) for i in range(100)] == [
            b.provider_fails(i) for i in range(100)
        ]

    def test_different_seeds_differ(self):
        a = FaultPlan.chaos(seed=0)
        b = FaultPlan.chaos(seed=1)
        assert task_schedule(a) != task_schedule(b)

    def test_no_global_rng_consumed(self):
        np.random.seed(0)
        before = np.random.get_state()[1].copy()
        plan = FaultPlan.chaos(seed=0)
        task_schedule(plan)
        [plan.read_corrupted(i) for i in range(100)]
        assert (np.random.get_state()[1] == before).all()


class TestRates:
    def test_rates_roughly_honored(self):
        plan = FaultPlan(seed=0, task_failure_rate=0.25)
        modes = task_schedule(plan, kernels=40, blocks=40)
        frac = sum(m is not None for m in modes) / len(modes)
        assert 0.18 < frac < 0.32

    def test_mode_split_roughly_honored(self):
        """Pre- and post-write failures both occur (the CRC-correlation bug
        this guards against made every faulty site fail 'before')."""
        plan = FaultPlan(
            seed=0, task_failure_rate=0.3, task_failure_after_writes_fraction=0.5
        )
        modes = [m for m in task_schedule(plan, 40, 40) if m is not None]
        after = sum(m == "after" for m in modes) / len(modes)
        assert 0.3 < after < 0.7

    def test_zero_rates_inject_nothing(self):
        plan = FaultPlan.quiet(seed=9)
        assert all(m is None for m in task_schedule(plan))
        assert not any(plan.read_corrupted(i) for i in range(1000))
        assert not any(plan.provider_fails(i) for i in range(1000))
        assert all(plan.latency_spike(i) == 0 for i in range(1000))

    def test_depth_limits_attempts(self):
        plan = FaultPlan(seed=0, task_failure_rate=1.0, task_failure_depth=2)
        assert plan.task_fault_mode(0, 0, 0) is not None
        assert plan.task_fault_mode(0, 0, 1) is not None
        assert plan.task_fault_mode(0, 0, 2) is None


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_failure_rate": 1.5},
            {"task_failure_rate": -0.1},
            {"corrupt_read_rate": 2.0},
            {"task_failure_depth": 0},
            {"latency_spike_units": -1},
            {"corruption_mode": "zap"},
        ],
    )
    def test_bad_plan_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(seed=0, **kwargs)

    def test_bad_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.chaos(seed=0, intensity=-1)

    def test_plan_is_immutable(self):
        plan = FaultPlan.quiet()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 1


class TestFaultyGlobalMemory:
    def params(self):
        return MachineParams(width=4, latency=3)

    def test_corrupt_reads_are_nan_and_deterministic(self):
        plan = FaultPlan(seed=0, corrupt_read_rate=0.5)

        def run():
            gm = FaultyGlobalMemory(self.params(), injector=FaultInjector(plan))
            gm.install("A", np.ones((4, 4)))
            return np.concatenate([gm.read_hrun("A", r, 0, 4) for r in range(4)])

        first, second = run(), run()
        assert np.array_equal(first, second, equal_nan=True)
        assert np.isnan(first).any()  # rate 0.5 over 4 reads: seed chosen to hit

    def test_every_read_method_is_corrupted(self):
        methods = {m for m in dir(GlobalMemory) if m.startswith("read_")}
        assert methods == set(READ_CALLS)
        for method in sorted(methods):
            plan = FaultPlan(seed=0, corrupt_read_rate=1.0)
            gm = FaultyGlobalMemory(self.params(), injector=FaultInjector(plan))
            gm.install("A", np.ones((4, 4)))
            out = getattr(gm, method)(*READ_CALLS[method])
            assert np.isnan(out).any(), f"{method} escaped fault injection"
            assert gm.injector.stats["reads_corrupted"] == 1, method

    def test_writes_never_tampered(self):
        plan = FaultPlan(seed=0, corrupt_read_rate=1.0)
        gm = FaultyGlobalMemory(self.params(), injector=FaultInjector(plan))
        gm.install("A", np.zeros((2, 4)))
        gm.write_hrun("A", 0, 0, np.arange(4.0))
        # The backing store (uncounted host view) holds the clean values.
        assert np.array_equal(gm.array("A")[0], np.arange(4.0))

    def test_garbage_mode_stays_finite(self):
        plan = FaultPlan(seed=1, corrupt_read_rate=1.0, corruption_mode="garbage")
        gm = FaultyGlobalMemory(self.params(), injector=FaultInjector(plan))
        gm.install("A", np.ones((1, 4)))
        out = gm.read_hrun("A", 0, 0, 4)
        assert np.isfinite(out).all() and np.abs(out).max() > 1e20

    def test_latency_spikes_charged_to_cost(self):
        plan = FaultPlan(seed=0, latency_spike_rate=1.0, latency_spike_units=10)
        injector = FaultInjector(plan)
        params = self.params()
        gm = FaultyGlobalMemory(params, injector=injector)
        gm.install("A", np.ones((4, 4)))
        base = access_cost(gm.counters, params)
        for r in range(4):
            gm.read_hrun("A", r, 0, 4)
        assert gm.counters.fault_latency_units == 40
        assert access_cost(gm.counters, params) >= base + 40
        assert breakdown(gm.counters, params).total == pytest.approx(
            access_cost(gm.counters, params)
        )
        assert injector.stats["latency_spikes"] == 4

    def test_integer_buffers_not_corrupted(self):
        plan = FaultPlan(seed=0, corrupt_read_rate=1.0)
        gm = FaultyGlobalMemory(self.params(), injector=FaultInjector(plan))
        gm.install("I", np.arange(4, dtype=np.int64))
        out = gm.read_hrun("I", 0, 0, 4)
        assert np.array_equal(out, np.arange(4))

    def test_provider_wrapper_raises_and_corrupts(self):
        a = np.ones((8, 4))
        plan = FaultPlan(seed=0, provider_failure_rate=0.5, provider_corruption_rate=0.5)
        injector = FaultInjector(plan)
        provider = injector.wrap_provider(lambda r0, r1: a[r0:r1])
        failures = corruptions = 0
        for _ in range(50):
            try:
                band = provider(0, 8)
            except TransientFault:
                failures += 1
            else:
                corruptions += np.isnan(band).any()
        assert failures > 0 and corruptions > 0
        assert np.isfinite(a).all()  # source data never damaged
