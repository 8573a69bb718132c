"""The online planner: model-ranked decisions refined by measurement.

:class:`AutotunePlanner` owns one :class:`~repro.autotune.bandit.KeyState`
per ``(shape, dtype, kind, mode)`` key. A :meth:`decide` ranks the
candidate arms — cost-model prior blended with measured latencies, UCB
optimism for under-measured arms, an epsilon-greedy probe floor — and
returns a :class:`Decision` naming the winning configuration and *why*
(``prior`` / ``exploit`` / ``explore``). Callers execute the winner and
feed the wall-clock back through :meth:`observe`, which also trickles the
latency into the :mod:`repro.obs` histograms (``autotune_latency_seconds``)
so the same numbers surface in ``python -m repro stats``.

Learned statistics persist through the JSON sidecar
(:mod:`repro.autotune.sidecar`): loaded once at construction, autosaved
every ``autosave_every`` observations (only from the process that created
the planner — forked batch workers inherit the state read-only rather
than racing each other's writes), and saved explicitly via :meth:`save`.

The process-wide planner behind ``algorithm="auto"`` is
:func:`default_planner`; :func:`autotune_stats` reports it without
creating it, which is what ``ExecutionEngine.stats()`` calls into.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..machine.params import MachineParams
from ..obs import runtime as obs_runtime
from . import sidecar
from .arms import Arm, compute_arms
from .bandit import KeyState

__all__ = [
    "Decision",
    "AutotunePlanner",
    "default_planner",
    "set_default_planner",
    "autotune_stats",
]

#: Sentinel distinguishing "use the configured default path" from an
#: explicit ``path=None`` (no persistence at all).
_UNSET = object()

#: Arm lists a planner remembers (least recently used out first): a
#: decision costs microseconds, but enumerating and pricing the arms
#: costs milliseconds at 1024^2, so decide_compute prices each argument
#: tuple once.
_ARMS_CACHE_SIZE = 64


@dataclasses.dataclass(frozen=True)
class Decision:
    """One planner choice: which arm to run, under which key, and why."""

    key: str
    arm: Arm
    mode: str  # "prior" (no measurements), "exploit", or "explore"
    predicted: float  # the winning arm's model prior

    @property
    def algorithm(self) -> Optional[str]:
        return self.arm.algorithm

    @property
    def arm_id(self) -> str:
        return self.arm.arm_id


class AutotunePlanner:
    """Cost-model-guided online configuration planner (thread-safe)."""

    def __init__(
        self,
        *,
        model=None,
        path: Union[str, None, object] = _UNSET,
        prior_weight: float = 1.0,
        ucb_c: float = 0.35,
        epsilon: float = 0.05,
        seed: int = 0,
        autosave_every: int = 64,
    ):
        if model is None:
            from ..analysis.calibration import default_model

            model = default_model()
        self.model = model
        self.prior_weight = float(prior_weight)
        self.ucb_c = float(ucb_c)
        self.epsilon = float(epsilon)
        self.autosave_every = int(autosave_every)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._keys: Dict[str, KeyState] = {}
        self._arms: "OrderedDict[tuple, Tuple[Arm, ...]]" = OrderedDict()
        self._pid = os.getpid()
        self._observations_since_save = 0
        self.path: Optional[str]
        if path is _UNSET:
            self.path = sidecar.default_path()
        else:
            self.path = path  # type: ignore[assignment]
        self.sidecar_status = "disabled"
        if self.path is not None:
            self._keys, self.sidecar_status = sidecar.load(self.path)
            obs_runtime.inc(
                "autotune_sidecar_loads_total", status=self.sidecar_status
            )

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key_for(
        rows: int,
        cols: int,
        dtype,
        params: Optional[MachineParams],
        kind: str = "compute",
        mode: str = "counted",
    ) -> str:
        """PlanCache-style key: shape + dtype + machine params + request
        kind + execution mode (fast and counted runs must not share
        latency pools — they differ by orders of magnitude)."""
        if params is None:
            machine = "w=auto"
        else:
            machine = f"w={params.width},l={params.latency}"
        return (
            f"{rows}x{cols}/{np.dtype(dtype).name}/{machine}/{kind}/{mode}"
        )

    # -- deciding ------------------------------------------------------------

    def decide(
        self,
        key: str,
        arms: Sequence[Arm],
        *,
        explore: bool = True,
    ) -> Decision:
        """Pick an arm for ``key``.

        With zero recorded measurements the choice is deterministic — the
        lowest model prior, ties broken on arm id — so a fresh planner is
        exactly the cost model. ``explore=False`` forces the exploit
        choice (steady-state serving, benchmark gates).
        """
        if not arms:
            raise ValueError(f"no feasible arms for autotune key {key!r}")
        by_id = {arm.arm_id: arm for arm in arms}
        with self._lock:
            state = self._keys.get(key)
            if state is None:
                state = self._keys[key] = KeyState()
            state.merge_priors({arm.arm_id: arm.prior for arm in arms})
            measured = state.total_measurements()
            if measured == 0:
                chosen = min(arms, key=lambda a: (a.prior, a.arm_id)).arm_id
                mode = "prior"
            elif explore and self._rng.random() < self.epsilon:
                chosen = self._restrict(state.least_measured(), by_id, arms)
                mode = "explore"
            else:
                best = self._restrict(state.best(self.prior_weight), by_id, arms)
                if explore:
                    ranked = [
                        arm_id
                        for arm_id, _ in state.ranked(self.prior_weight, self.ucb_c)
                        if arm_id in by_id
                    ]
                    chosen = ranked[0] if ranked else best
                else:
                    chosen = best
                mode = "exploit" if chosen == best else "explore"
            state.decisions += 1
            state.modes[mode] += 1
            arm = by_id[chosen]
        obs_runtime.inc("autotune_decisions_total", key=key, mode=mode)
        obs_runtime.set_gauge("autotune_arms", float(len(arms)), key=key)
        return Decision(key=key, arm=arm, mode=mode, predicted=arm.prior)

    def _compute_arms(
        self,
        rows: int,
        cols: int,
        params: Optional[MachineParams],
        fused_options: Tuple[Optional[str], ...],
        max_p_candidates: Optional[int],
    ) -> Tuple[Arm, ...]:
        """:func:`compute_arms`, memoized on its arguments, model included.

        Sharing one arm tuple between decisions is safe: :class:`Arm` is
        frozen and :meth:`decide` never mutates the sequence it gets.
        """
        memo_key = (rows, cols, params, self.model, fused_options, max_p_candidates)
        with self._lock:
            arms = self._arms.get(memo_key)
            if arms is not None:
                self._arms.move_to_end(memo_key)
                return arms
        kwargs = {}
        if max_p_candidates is not None:
            kwargs["max_p_candidates"] = max_p_candidates
        arms = tuple(compute_arms(
            rows, cols, params, model=self.model,
            fused_options=fused_options, **kwargs,
        ))
        with self._lock:
            self._arms[memo_key] = arms
            if len(self._arms) > _ARMS_CACHE_SIZE:
                self._arms.popitem(last=False)
        return arms

    @staticmethod
    def _restrict(arm_id: Optional[str], by_id: Dict[str, Arm], arms) -> str:
        """Clamp a bandit suggestion to the arms feasible *this* call
        (stats may remember arms a different enumeration offered)."""
        if arm_id in by_id:
            return arm_id
        return min(arms, key=lambda a: (a.prior, a.arm_id)).arm_id

    def decide_compute(
        self,
        rows: int,
        cols: int,
        dtype,
        params: Optional[MachineParams] = None,
        *,
        kind: str = "compute",
        mode: str = "counted",
        fused_options: Sequence[Optional[str]] = (None,),
        max_p_candidates: Optional[int] = None,
        explore: bool = True,
    ) -> Decision:
        """Enumerate + decide for one SAT compute request."""
        arms = self._compute_arms(rows, cols, params, tuple(fused_options),
                                  max_p_candidates)
        key = self.key_for(rows, cols, dtype, params, kind=kind, mode=mode)
        with obs_runtime.span(
            "autotune_decide", key=key, kind=kind, arms=len(arms)
        ):
            return self.decide(key, arms, explore=explore)

    # -- observing -----------------------------------------------------------

    def observe(self, decision: Decision, seconds: float) -> None:
        """Feed the measured latency of an executed decision back in."""
        self.observe_arm(decision.key, decision.arm_id, seconds)

    def observe_arm(self, key: str, arm_id: str, seconds: float) -> None:
        with self._lock:
            state = self._keys.get(key)
            if state is None:
                state = self._keys[key] = KeyState()
            state.observe(arm_id, float(seconds))
            self._observations_since_save += 1
            due = (
                self.path is not None
                and self._observations_since_save >= self.autosave_every
            )
            if due:
                self._observations_since_save = 0
        obs_runtime.inc("autotune_observations_total", key=key)
        obs_runtime.observe("autotune_latency_seconds", float(seconds), key=key, arm=arm_id)
        if due:
            self.maybe_autosave()

    # -- persistence ---------------------------------------------------------

    def save(self) -> Optional[str]:
        """Write learned state to the sidecar now; returns the path."""
        if self.path is None:
            return None
        with self._lock:
            snapshot = dict(self._keys)
            sidecar.save(self.path, snapshot)
        obs_runtime.inc("autotune_sidecar_saves_total")
        return self.path

    def maybe_autosave(self) -> None:
        """Autosave, but only from the planner's creating process — forked
        batch workers share the file and must not thrash it."""
        if self.path is None or os.getpid() != self._pid:
            return
        try:
            self.save()
        except OSError:
            # Persistence is best-effort; a read-only cache dir must not
            # fail the compute that triggered the save.
            obs_runtime.inc("autotune_sidecar_saves_total", status="failed")

    # -- warm hook -----------------------------------------------------------

    def warm(
        self,
        rows: int,
        cols: int,
        dtype=np.float64,
        params: Optional[MachineParams] = None,
        *,
        engine=None,
        kind: str = "compute",
        mode: str = "fast",
        seed: int = 0,
    ) -> Decision:
        """Decide for a shape and pre-warm the chosen plan in the engine.

        The serving/batch warm path calls this before traffic arrives:
        the winning algorithm's plan (and fast-path tallies) are compiled
        via :meth:`ExecutionEngine.warm_plan`, so the first real request
        runs hot.
        """
        from ..machine.engine import default_engine
        from ..sat.registry import make_algorithm

        decision = self.decide_compute(
            rows, cols, dtype, params, kind=kind, mode=mode, explore=False
        )
        algorithm = make_algorithm(decision.algorithm, **decision.arm.algorithm_kwargs())
        run_params = params
        if run_params is None and decision.arm.width is not None:
            run_params = MachineParams(width=decision.arm.width)
        (engine or default_engine()).warm_plan(
            algorithm, rows, cols, run_params, seed=seed
        )
        return decision

    # -- reporting -----------------------------------------------------------

    def winners(self) -> Dict[str, Dict[str, object]]:
        """Current best arm per key (blended mean, no exploration bonus)."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for key, state in sorted(self._keys.items()):
                best = state.best(self.prior_weight)
                if best is None:
                    continue
                stats = state.stats.get(best)
                out[key] = {
                    "arm": best,
                    "measurements": stats.count if stats else 0,
                    "mean_seconds": stats.mean if stats else None,
                    "decisions": state.decisions,
                }
        return out

    def stats(self) -> Dict[str, object]:
        """Aggregate decision/measurement accounting for ``repro stats``."""
        with self._lock:
            modes = {"prior": 0, "exploit": 0, "explore": 0}
            decisions = 0
            measurements = 0
            for state in self._keys.values():
                decisions += state.decisions
                measurements += state.total_measurements()
                for mode_name, count in state.modes.items():
                    modes[mode_name] = modes.get(mode_name, 0) + count
            key_count = len(self._keys)
        return {
            "active": True,
            "keys": key_count,
            "decisions": decisions,
            "measurements": measurements,
            "modes": modes,
            "sidecar": {"path": self.path, "status": self.sidecar_status},
            "winners": self.winners(),
        }

    # -- timing helper -------------------------------------------------------

    @staticmethod
    def clock() -> float:
        return time.perf_counter()


# ---------------------------------------------------------------------------
# process-wide default planner (behind algorithm="auto")
# ---------------------------------------------------------------------------

_default_planner: Optional[AutotunePlanner] = None
_default_lock = threading.Lock()


def default_planner() -> AutotunePlanner:
    """The process-wide planner, created on first use (sidecar-backed)."""
    global _default_planner
    with _default_lock:
        if _default_planner is None:
            _default_planner = AutotunePlanner()
        return _default_planner


def set_default_planner(planner: Optional[AutotunePlanner]) -> Optional[AutotunePlanner]:
    """Swap the process-wide planner (tests, custom sidecar paths).

    Returns the previous planner so callers can restore it.
    """
    global _default_planner
    with _default_lock:
        previous, _default_planner = _default_planner, planner
        return previous


def autotune_stats() -> Dict[str, object]:
    """Stats of the default planner *without* creating one.

    This is what ``ExecutionEngine.stats()`` surfaces: a process that
    never used ``algorithm="auto"`` reports ``{"active": False}`` instead
    of paying for a planner (and a sidecar read) it never needed.
    """
    with _default_lock:
        planner = _default_planner
    if planner is None:
        return {"active": False}
    return planner.stats()
