"""The high-throughput execution engine: cached plans, fast execution.

The engine layer separates *plan construction* from *plan execution* for
programs on the asynchronous HMM (the software-systolic idea of reusing
compiled access plans across invocations):

* :mod:`repro.machine.engine.plan` — :class:`ExecutionPlan` compilation by
  recording an algorithm's ``_run``, and replay against live executors,
  including the ``fast=True`` mode that skips per-access accounting by
  replaying memoized per-kernel traffic diffs;
* :mod:`repro.machine.engine.cache` — the bounded LRU :class:`PlanCache`;
* :mod:`repro.machine.engine.native` — the generated-C backend lowering each
  plan's fused schedule to compiled megakernels (``fused="native"``),
  with the :mod:`~repro.machine.engine.memobj` memory objects deciding
  allocation and layout in the generated code;
* :class:`ExecutionEngine` — the facade the SAT driver talks to: look up
  or compile the plan for ``(algorithm, shape, params)``, then execute.

A module-level default engine serves
:meth:`repro.sat.base.SATAlgorithm.compute`; independent engines can be
constructed for isolation (tests, benchmarks).
"""

from __future__ import annotations

from typing import Optional, Union

from ...obs import runtime as obs
from ..params import MachineParams
from ..macro.executor import HMMExecutor
from .cache import PlanCache
from .native import native_available, native_stats
from .plan import (
    AllocOp,
    ExecutionPlan,
    FreeOp,
    KernelPlan,
    PlanKey,
    compile_plan,
    execute_plan,
)


class ExecutionEngine:
    """Looks up or compiles plans, executes them, and tracks cache stats."""

    def __init__(self, cache: Optional[PlanCache] = None):
        self.cache = cache if cache is not None else PlanCache()
        self.compiles = 0

    def key_for(self, algorithm, rows: int, cols: int, params: MachineParams) -> PlanKey:
        return PlanKey.make(
            algorithm.name, rows, cols, params,
            getattr(algorithm, "plan_extras", dict)(),
        )

    def plan_for(
        self,
        algorithm,
        rows: int,
        cols: int,
        params: MachineParams,
        *,
        input_buffer: str,
    ) -> ExecutionPlan:
        """Return the cached plan for this shape, compiling it on a miss.

        Raises :class:`~repro.errors.PlanCompileError` when the algorithm
        instance cannot be compiled (snapshot-capturing configurations);
        callers fall back to direct execution.
        """
        key = self.key_for(algorithm, rows, cols, params)
        plan = self.cache.get(key)
        if plan is None:
            with obs.span(
                "plan_compile", algorithm=algorithm.name, rows=rows, cols=cols
            ):
                plan = compile_plan(
                    algorithm, rows, cols, params, input_buffer=input_buffer
                )
            self.compiles += 1
            obs.inc("plan_compiles_total", algorithm=algorithm.name)
            self.cache.put(key, plan)
        return plan

    def execute(
        self,
        plan: ExecutionPlan,
        executor: HMMExecutor,
        *,
        fast: bool = False,
        fused: Union[bool, str] = True,
    ) -> None:
        """Execute a plan. ``fast=True`` replays memoized traffic tallies
        and runs each fast kernel through its batched numpy schedule
        (``fused=True`` or ``"numpy"``) or through compiled native
        megakernels (``fused="native"``, see
        :mod:`repro.machine.engine.native`)."""
        execute_plan(plan, executor, fast=fast, fused=fused)

    def warm_plan(
        self,
        algorithm,
        rows: int,
        cols: int,
        params: Optional[MachineParams] = None,
        *,
        fused: Union[bool, str] = True,
        seed: Optional[int] = 0,
    ) -> dict:
        """Pre-warm everything a steady-state run at this shape needs.

        One counted probe compiles the plan and populates its memoized
        per-kernel traffic tallies; one ``fast`` probe builds the fused
        schedule (and, with ``fused="native"``, lowers and compiles the
        megakernels) so the *first measured* request at this shape already
        runs the hot path. The probe is all-ones, not zeros: the one
        value-sensitive micro-optimization in the block code skips the
        corner-offset write for exactly-0.0 corrections, which an
        all-zeros probe would hit everywhere and leave out of the tallies.

        Returns ``{"algorithm", "rows", "cols", "compiled"}`` where
        ``compiled`` says whether this call did the compile (False means
        the plan was already cached — the warm-worker reuse signal).
        """
        import numpy as np

        if params is None:
            params = MachineParams()
        before = self.compiles
        probe = np.ones((rows, cols))
        algorithm.compute(probe, params, engine=self, seed=seed)
        algorithm.compute(
            probe, params, engine=self, fast=True, fused=fused, seed=seed
        )
        compiled = self.compiles > before
        obs.inc(
            "plan_prewarms_total",
            algorithm=algorithm.name,
            compiled=compiled,
        )
        return {
            "algorithm": algorithm.name,
            "rows": rows,
            "cols": cols,
            "compiled": compiled,
        }

    def stats(self) -> dict:
        out = self.cache.stats()
        out["compiles"] = self.compiles
        out["native"] = native_stats()
        out["autotune"] = _autotune_stats()
        return out

    def cache_stats(self) -> dict:
        """Plan-cache statistics alone: size, capacity, hits, misses,
        evictions — the serving-layer health numbers, without the engine's
        compile counter mixed in."""
        return self.cache.stats()


def _autotune_stats() -> dict:
    """Autotuner section of :meth:`ExecutionEngine.stats`.

    Reported through the already-loaded :mod:`repro.autotune` module so
    an engine-only process neither imports the subsystem nor touches its
    sidecar: until something used ``algorithm="auto"``, the section is
    just ``{"active": False}``.
    """
    import sys

    module = sys.modules.get("repro.autotune")
    if module is None:
        return {"active": False}
    return module.autotune_stats()


#: Process-wide engine used by ``SATAlgorithm.compute`` unless overridden.
#: Capacity honors ``REPRO_PLAN_CACHE_SIZE`` (read at import).
_DEFAULT_ENGINE = ExecutionEngine(cache=PlanCache())


def default_engine() -> ExecutionEngine:
    """The shared engine behind ``SATAlgorithm.compute``'s plan cache."""
    return _DEFAULT_ENGINE


__all__ = [
    "AllocOp",
    "ExecutionEngine",
    "ExecutionPlan",
    "FreeOp",
    "KernelPlan",
    "PlanCache",
    "PlanKey",
    "compile_plan",
    "default_engine",
    "execute_plan",
    "native_available",
    "native_stats",
]
