"""Common driver for SAT algorithms on the asynchronous HMM.

Every HMM SAT algorithm in this package is a subclass of
:class:`SATAlgorithm` implementing :meth:`SATAlgorithm._run`, which issues
kernels against an :class:`~repro.machine.macro.HMMExecutor` holding the
input in global-memory buffer ``"A"`` and must leave the SAT there in
place. The base class handles validation, buffer setup, result extraction,
and packaging the measured counters into a :class:`SATResult`.
"""

from __future__ import annotations

import abc
import contextlib
import dataclasses
from typing import Dict, Hashable, List, Optional, Union

import numpy as np

from ..errors import ConfigurationError, PlanCompileError, ShapeError
from ..obs import runtime as obs_runtime
from ..machine.cost import CostBreakdown, access_cost, breakdown, transaction_cost
from ..machine.engine import ExecutionEngine, default_engine
from ..machine.macro.counters import AccessCounters
from ..machine.macro.executor import HMMExecutor, KernelTrace
from ..machine.params import MachineParams
from ..util.validation import as_square_matrix, require_multiple

#: Name of the global-memory buffer holding the input and, on completion,
#: the summed area table.
MATRIX_BUFFER = "A"


@dataclasses.dataclass
class SATResult:
    """The SAT plus everything measured while computing it.

    ``n`` is the row count; for the (extension) rectangular inputs the full
    shape is ``sat.shape``.
    """

    sat: np.ndarray
    algorithm: str
    n: int
    params: MachineParams
    counters: AccessCounters
    traces: List[KernelTrace]

    @property
    def cost(self) -> float:
        """Global-memory access cost ``C/w + S + (B+1) l`` (Section III)."""
        return access_cost(self.counters, self.params)

    @property
    def cost_exact(self) -> float:
        """Cost using exact transaction counts instead of ``C/w``."""
        return transaction_cost(self.counters, self.params)

    @property
    def breakdown(self) -> CostBreakdown:
        """Bandwidth vs latency split of the cost."""
        return breakdown(self.counters, self.params)

    @property
    def reads_writes_per_element(self) -> float:
        """Global element accesses per matrix element — the paper's xRyW figure."""
        return self.counters.global_reads_writes / float(self.sat.size)

    def summary(self) -> str:
        c = self.counters
        return (
            f"{self.algorithm}: n={self.n}, cost={self.cost:.0f} "
            f"(bandwidth={self.breakdown.bandwidth:.0f}, "
            f"latency={self.breakdown.latency:.0f}), "
            f"coalesced={c.coalesced_elements}, stride={c.stride_ops}, "
            f"barriers={c.barriers}, accesses/elt={self.reads_writes_per_element:.3f}"
        )


class SATAlgorithm(abc.ABC):
    """Base class: validates input, runs kernels, extracts the SAT."""

    #: Short name used by the registry and in benchmark tables.
    name: str = "abstract"

    #: Whether the input side length must be a multiple of the width.
    requires_block_multiple: bool = True

    #: Whether non-square inputs are accepted (an extension beyond the
    #: paper, implemented for 2R2W, 4R1W, and 1R1W).
    supports_rectangular: bool = False

    @abc.abstractmethod
    def _run(self, executor: HMMExecutor, rows: int, cols: int) -> None:
        """Issue the algorithm's kernels; the SAT must end up in ``A``."""

    # --- execution-engine hooks ---------------------------------------------

    @property
    def plan_safe(self) -> bool:
        """Whether this *instance*'s kernel structure can be plan-compiled.

        False for configurations with per-run side effects that read
        buffer contents between kernels (snapshot captures, kept
        intermediates); those always execute directly.
        """
        return True

    def plan_extras(self) -> Dict[str, Hashable]:
        """Configuration that shapes the kernel structure, for the plan key.

        Anything beyond ``(name, shape, params)`` that changes which
        kernels are launched must appear here (e.g. kR1W's ``p``), or two
        differently-configured instances would share one cached plan.
        """
        return {}

    def compute(
        self,
        matrix: np.ndarray,
        params: Optional[MachineParams] = None,
        *,
        executor: Optional[HMMExecutor] = None,
        seed: Optional[int] = 0,
        engine: Optional[ExecutionEngine] = None,
        use_plan_cache: bool = True,
        fast: bool = False,
        fused: Union[bool, str] = True,
        obs: Optional[bool] = None,
    ) -> SATResult:
        """Compute the SAT of ``matrix`` on the asynchronous HMM.

        The input is copied once, converted to float64 in C order, and
        never written. The returned ``SATResult.sat`` owns its buffer: it
        is that copy, summed in place, when this call built the executor,
        and a copy of the executor's buffer when the caller supplied one.

        Parameters
        ----------
        matrix:
            Square input matrix. Block-based algorithms require the side
            to be a multiple of ``params.width`` (use
            :func:`repro.util.pad_to_multiple` otherwise).
        params:
            Machine configuration; defaults to :class:`MachineParams()`.
        executor:
            Optionally supply a pre-built executor (for custom global
            memory, fault injection, or deterministic block ordering); it
            must not already contain a buffer named ``"A"``. Supplying an
            executor bypasses the plan cache — fault/retry configuration
            is per-run state a shared plan must not absorb.
        seed:
            Seed for the executor's randomized block ordering.
        engine:
            Execution engine holding the plan cache; defaults to the
            process-wide engine. Pass a private engine to isolate caching.
        use_plan_cache:
            Set ``False`` to force direct (plan-less) execution — the
            always-cold reference path used by benchmarks and tests.
        fast:
            Execute through the engine's fast path: per-access traffic
            accounting is replaced by applying the plan's memoized
            per-kernel tallies (exact, because HMM access patterns are
            data-independent; asserted bit-identical in the test suite).
            The first fast run at a new shape transparently runs counted
            to populate those tallies. Requires the engine path.
        fused:
            With ``fast=True``, selects how each kernel's batched
            schedule executes. ``True`` (default) and ``"numpy"`` run the
            batched numpy schedule (whole-block gather → per-block
            compute → scatter over the plan's precomputed block
            coordinates); ``"native"`` runs the same schedule lowered to
            compiled megakernels (:mod:`repro.machine.engine.native` —
            generated C, bit-identical, degrading to the numpy schedule
            with a single warning when it cannot be built).
        obs:
            Per-run observability toggle. ``True`` records this run's
            metrics and spans into :mod:`repro.obs` even when the
            process-wide flag (``REPRO_OBS`` / :func:`repro.obs.enable`)
            is off; ``False`` silences this run; ``None`` (default)
            inherits the process-wide setting. See :mod:`repro.obs`.
        """
        if self.supports_rectangular:
            matrix = np.asarray(matrix)
            if matrix.ndim != 2 or 0 in matrix.shape:
                raise ShapeError(f"matrix must be non-empty 2-D, got {matrix.shape}")
        else:
            matrix = as_square_matrix(matrix)
        rows, cols = matrix.shape
        if params is None:
            params = MachineParams()
        if self.requires_block_multiple:
            require_multiple(rows, params.width, what="row count")
            require_multiple(cols, params.width, what="column count")
        scope = (
            obs_runtime.enabled_scope(obs) if obs is not None
            else contextlib.nullcontext()
        )
        with scope:
            plan = None
            own_executor = executor is None
            if own_executor:
                if use_plan_cache and self.plan_safe:
                    try:
                        plan = (engine or default_engine()).plan_for(
                            self, rows, cols, params, input_buffer=MATRIX_BUFFER
                        )
                    except PlanCompileError:
                        plan = None
                executor = HMMExecutor(params, seed=seed)
            elif executor.params is not params:
                raise ShapeError("executor was built with different MachineParams")
            if fast and plan is None:
                raise ConfigurationError(
                    "fast=True requires the plan-cached engine path (no custom "
                    "executor, plan-safe algorithm, use_plan_cache=True)"
                )
            if executor.gm.has(MATRIX_BUFFER):
                raise ShapeError(f"executor already holds a {MATRIX_BUFFER!r} buffer")
            if fast and plan is not None:
                # Resolve the backend now so the observability mode tag
                # names the path that will actually execute: a "native"
                # request on a host without a C toolchain runs (and is
                # recorded as) the numpy fused path.
                from ..machine.engine.native import ensure_backend, resolve_fused

                fused = resolve_fused(fused)
                if fused == "native" and ensure_backend() is None:
                    fused = "numpy"
            if plan is None:
                mode = "direct"
            elif not fast:
                mode = "counted"
            elif fused == "native":
                mode = "native"
            else:
                mode = "fused"
            # The one copy of the input: converted, C-ordered, and owned by
            # the executor from here on.
            executor.gm.adopt(
                MATRIX_BUFFER, np.array(matrix, dtype=np.float64, order="C")
            )
            with obs_runtime.span(
                "sat_compute", algorithm=self.name, rows=rows, cols=cols, mode=mode
            ):
                if plan is not None:
                    (engine or default_engine()).execute(
                        plan, executor, fast=fast, fused=fused
                    )
                else:
                    self._run(executor, rows, cols)
            obs_runtime.inc("sat_computes_total", algorithm=self.name, mode=mode)
            sat = executor.gm.array(MATRIX_BUFFER)
            return SATResult(
                # An executor built for this call dies with it, so its
                # buffer becomes the result; a caller's executor keeps its
                # own.
                sat=sat if own_executor else sat.copy(),
                algorithm=self.name,
                n=rows,
                params=params,
                counters=executor.counters.copy(),
                traces=list(executor.traces),
            )

    def __repr__(self) -> str:
        return f"<SATAlgorithm {self.name}>"
