"""Planner decision logic: the prior property, refinement, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import Arm, AutotunePlanner, compute_arms, serving_tile_arms
from repro.machine.params import MachineParams


def fresh_planner(**kwargs):
    kwargs.setdefault("path", None)
    return AutotunePlanner(**kwargs)


# A generic arm set: unique ids, positive finite priors.
arm_sets = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
).map(lambda priors: [Arm(arm_id=f"arm{i}", prior=p) for i, p in enumerate(priors)])


class TestPriorProperty:
    @given(arm_sets)
    @settings(max_examples=50, deadline=None)
    def test_no_measurements_means_model_argmin(self, arms):
        """With zero measurements, auto's predicted cost is never worse
        than the model-best candidate — it IS the model-best candidate."""
        decision = fresh_planner().decide("k", arms)
        assert decision.mode == "prior"
        assert decision.predicted == min(arm.prior for arm in arms)

    @given(arm_sets)
    @settings(max_examples=25, deadline=None)
    def test_zero_measurement_decision_is_deterministic(self, arms):
        first = fresh_planner(seed=1).decide("k", arms)
        second = fresh_planner(seed=99).decide("k", arms)
        assert first.arm_id == second.arm_id

    @given(st.sampled_from([32, 64, 96, 128, 256]), st.sampled_from([16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_compute_decision_matches_enumerated_model_best(self, n, width):
        params = MachineParams(width=width)
        planner = fresh_planner()
        decision = planner.decide_compute(n, n, np.float64, params)
        arms = compute_arms(n, n, params, model=planner.model)
        assert decision.predicted == min(arm.prior for arm in arms)


class TestArmMemo:
    def test_memoized_arms_keep_the_decision_sequence(self, monkeypatch):
        """decide_compute prices each argument tuple once, and a fresh
        planner still decides exactly as one re-pricing every call."""
        import repro.autotune.planner as planner_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:3] + (kwargs.get("fused_options"),))
            return compute_arms(*args, **kwargs)

        reference = fresh_planner(epsilon=0.3, seed=7)
        monkeypatch.setattr(planner_module, "compute_arms", counting)
        memoized = fresh_planner(epsilon=0.3, seed=7)
        requests = [(64, 64, None, (None,)), (32, 32, MachineParams(width=16), (None,)),
                    (64, 64, None, ("numpy", "native"))] * 4
        for i, (n, _n, params, fused) in enumerate(requests):
            got = memoized.decide_compute(n, n, np.float64, params,
                                          fused_options=fused)
            key = AutotunePlanner.key_for(n, n, np.float64, params)
            want = reference.decide(key, compute_arms(
                n, n, params, model=reference.model, fused_options=fused))
            assert (got.key, got.arm_id, got.mode) == (want.key, want.arm_id, want.mode)
            seconds = 0.001 * (1 + i % 3)
            memoized.observe(got, seconds)
            reference.observe(want, seconds)
        assert len(calls) == len(set(calls)) == 3


class TestRefinement:
    def test_measured_faster_arm_takes_over(self):
        planner = fresh_planner()
        arms = [Arm("model_pick", prior=1.0), Arm("sleeper", prior=3.0)]
        assert planner.decide("k", arms, explore=False).arm_id == "model_pick"
        # Reality disagrees with the model, repeatedly.
        for _ in range(10):
            planner.observe_arm("k", "model_pick", 0.9)
            planner.observe_arm("k", "sleeper", 0.05)
        decision = planner.decide("k", arms, explore=False)
        assert decision.arm_id == "sleeper"
        assert decision.mode == "exploit"

    def test_epsilon_probes_least_measured(self):
        planner = fresh_planner(epsilon=1.0)  # always probe once measured
        arms = [Arm("a", prior=1.0), Arm("b", prior=50.0)]
        planner.observe_arm("k", "a", 0.1)
        decision = planner.decide("k", arms)
        assert decision.mode == "explore"
        assert decision.arm_id == "b"  # zero measurements

    def test_explore_false_never_explores(self):
        planner = fresh_planner(epsilon=1.0)
        arms = [Arm("a", prior=1.0), Arm("b", prior=50.0)]
        planner.observe_arm("k", "a", 0.1)
        for _ in range(10):
            assert planner.decide("k", arms, explore=False).mode == "exploit"

    def test_stale_remembered_arm_is_clamped_to_feasible(self):
        planner = fresh_planner()
        planner.observe_arm("k", "retired_arm", 0.001)  # not offered below
        decision = planner.decide("k", [Arm("current", prior=2.0)], explore=False)
        assert decision.arm_id == "current"

    def test_keys_are_independent(self):
        planner = fresh_planner()
        arms = [Arm("a", prior=1.0), Arm("b", prior=2.0)]
        for _ in range(5):
            planner.observe_arm("k1", "b", 0.001)
            planner.observe_arm("k1", "a", 0.9)
        assert planner.decide("k1", arms, explore=False).arm_id == "b"
        assert planner.decide("k2", arms, explore=False).arm_id == "a"


class TestAccounting:
    def test_stats_counts_modes_and_measurements(self):
        planner = fresh_planner()
        arms = [Arm("a", prior=1.0), Arm("b", prior=2.0)]
        d = planner.decide("k", arms)
        planner.observe(d, 0.25)
        planner.decide("k", arms, explore=False)
        stats = planner.stats()
        assert stats["active"] is True
        assert stats["decisions"] == 2
        assert stats["measurements"] == 1
        assert stats["modes"]["prior"] == 1
        assert stats["modes"]["exploit"] == 1
        assert stats["sidecar"]["path"] is None

    def test_winners_report_measured_best(self):
        planner = fresh_planner()
        arms = [Arm("a", prior=1.0), Arm("b", prior=2.0)]
        for _ in range(8):
            planner.observe_arm("k", "b", 0.01)
            planner.observe_arm("k", "a", 0.8)
        planner.decide("k", arms)
        winner = planner.winners()["k"]
        assert winner["arm"] == "b"
        assert winner["measurements"] == 8
        assert winner["mean_seconds"] == pytest.approx(0.01)

    def test_key_encodes_shape_dtype_params_kind_mode(self):
        key = AutotunePlanner.key_for(
            128, 256, np.float32, MachineParams(width=16, latency=64),
            kind="batch", mode="fast",
        )
        assert key == "128x256/float32/w=16,l=64/batch/fast"
        open_key = AutotunePlanner.key_for(64, 64, np.int32, None)
        assert open_key == "64x64/int32/w=auto/compute/counted"

    def test_empty_arms_rejected(self):
        with pytest.raises(ValueError):
            fresh_planner().decide("k", [])


class TestArmEnumeration:
    def test_square_multiple_offers_full_family(self):
        arms = compute_arms(128, 128, MachineParams(width=32))
        names = {arm.algorithm for arm in arms}
        assert names == {"2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "1.25R1W", "kR1W"}
        assert sum(1 for a in arms if a.algorithm == "kR1W") > 1  # p grid

    def test_rectangular_restricts_to_capable_algorithms(self):
        arms = compute_arms(64, 128, MachineParams(width=32))
        names = {arm.algorithm for arm in arms}
        assert names == {"2R2W", "4R4W", "4R1W", "1R1W"}

    def test_non_multiple_shape_keeps_only_4r1w(self):
        arms = compute_arms(20, 20, MachineParams(width=32))
        assert {arm.algorithm for arm in arms} == {"4R1W"}

    def test_open_params_offers_width_arms(self):
        arms = compute_arms(64, 64, None)
        widths = {arm.width for arm in arms}
        assert widths == {16, 32}

    def test_pinned_params_pins_width(self):
        arms = compute_arms(64, 64, MachineParams(width=16))
        assert all(arm.width is None for arm in arms)

    def test_fused_options_multiply_arms(self):
        base = compute_arms(64, 64, MachineParams(width=32))
        doubled = compute_arms(
            64, 64, MachineParams(width=32), fused_options=("numpy", "native")
        )
        assert len(doubled) == 2 * len(base)
        assert any(arm.fused == "native" for arm in doubled)

    def test_serving_tile_priors_reflect_the_tradeoff(self):
        arms = serving_tile_arms(1024, 1024, [8, 32, 1024], update_weight=1.0)
        by_tile = {arm.tile: arm.prior for arm in arms}
        # Extreme tiles pay either the grid (t=8) or the re-SAT (t=1024);
        # the middle tile must beat both — the EXPERIMENTS appendix shape.
        assert by_tile[32] < by_tile[8]
        assert by_tile[32] < by_tile[1024]


class TestWarmHook:
    def test_warm_compiles_the_chosen_plan(self):
        from repro.machine.engine import ExecutionEngine, PlanCache

        engine = ExecutionEngine(cache=PlanCache())
        planner = fresh_planner()
        decision = planner.warm(
            64, 64, params=MachineParams(width=16), engine=engine
        )
        assert decision.algorithm is not None
        assert engine.compiles >= 1
