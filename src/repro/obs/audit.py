"""CostAudit: runtime verification of the ``C/w + S + (B+1)l`` accounting.

The paper's Section III cost model predicts an algorithm's cost from three
counted quantities — coalesced element accesses ``C``, stride operations
``S``, and barrier steps ``B`` — and the analysis layer carries *exact*
per-algorithm predictors (:func:`repro.analysis.formulas.predicted_counters`)
that mirror each implementation's control flow arithmetically. Three PRs
of performance work (plan cache, memoized tallies, fused kernels) all lean
on the claim that the fast paths preserve that accounting bit-for-bit;
:class:`CostAudit` makes the claim *runtime-checkable* instead of only
test-asserted: feed it any :class:`~repro.sat.base.SATResult` and it
compares the measured counters (and the cost they imply) against the
model's prediction, flags divergence, and mirrors the outcome into the
observability metrics (``cost_audit_checks_total`` /
``cost_audit_divergences_total``).

Predictors exist for square inputs of the six paper algorithms (2R2W,
4R4W, 4R1W, 2R1W, 1R1W, kR1W — and 1.25R1W, kR1W's fixed-``p`` alias);
anything else (rectangular extensions, non-block-multiple shapes) is
reported as *unsupported*, never as divergence — an audit must not cry
wolf on inputs the model was never defined for.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from . import runtime

__all__ = ["CostAudit", "CostAuditRecord", "SIX_ALGORITHMS"]

#: The paper's six algorithms, in Table I order (kR1W audited at a given p).
SIX_ALGORITHMS = ("2R2W", "4R4W", "4R1W", "2R1W", "1R1W", "kR1W")


@dataclasses.dataclass(frozen=True)
class CostAuditRecord:
    """One predicted-vs-measured comparison for a single run."""

    algorithm: str
    n: int
    width: int
    latency: int
    supported: bool
    reason: str = ""
    predicted_coalesced: int = 0
    predicted_stride: int = 0
    predicted_barriers: int = 0
    predicted_cost: float = 0.0
    measured_coalesced: int = 0
    measured_stride: int = 0
    measured_barriers: int = 0
    measured_cost: float = 0.0

    @property
    def divergent(self) -> bool:
        """True when the model and the run disagree on any counted term."""
        return self.supported and (
            self.predicted_coalesced != self.measured_coalesced
            or self.predicted_stride != self.measured_stride
            or self.predicted_barriers != self.measured_barriers
            or self.predicted_cost != self.measured_cost
        )

    def as_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["divergent"] = self.divergent
        return out

    def summary(self) -> str:
        head = f"{self.algorithm} n={self.n} w={self.width}"
        if not self.supported:
            return f"{head}: unaudited ({self.reason})"
        verdict = "DIVERGENT" if self.divergent else "ok"
        return (
            f"{head}: {verdict} — predicted C={self.predicted_coalesced} "
            f"S={self.predicted_stride} B={self.predicted_barriers} "
            f"cost={self.predicted_cost:.0f}; measured C={self.measured_coalesced} "
            f"S={self.measured_stride} B={self.measured_barriers} "
            f"cost={self.measured_cost:.0f}"
        )


class CostAudit:
    """Accumulates predicted-vs-counted comparisons across runs.

    ``check`` audits an existing :class:`~repro.sat.base.SATResult`;
    ``sweep`` runs every algorithm once at a given size and audits each
    run — the self-contained form ``python -m repro stats`` reports.
    Records accumulate on the instance; ``divergences`` is the subset a
    monitoring hook would alert on.
    """

    def __init__(self):
        self.records: List[CostAuditRecord] = []

    @property
    def divergences(self) -> List[CostAuditRecord]:
        return [r for r in self.records if r.divergent]

    def check(self, result, p: Optional[float] = None) -> CostAuditRecord:
        """Audit one run. ``p`` is required to audit a ``kR1W`` result
        (the mixing parameter is not carried on the result object)."""
        from ..analysis.formulas import predicted_counters
        from ..machine.cost import access_cost

        rows, cols = result.sat.shape
        params = result.params
        record: Optional[CostAuditRecord] = None
        if rows != cols:
            record = self._unsupported(
                result, f"no predictor for rectangular {rows}x{cols} inputs"
            )
        elif result.algorithm == "kR1W" and p is None:
            record = self._unsupported(
                result, "kR1W audit requires the mixing parameter p"
            )
        else:
            try:
                pred = predicted_counters(result.algorithm, rows, params, p=p)
            except ReproError as exc:
                record = self._unsupported(result, str(exc))
            else:
                c = result.counters
                record = CostAuditRecord(
                    algorithm=result.algorithm,
                    n=rows,
                    width=params.width,
                    latency=params.latency,
                    supported=True,
                    predicted_coalesced=pred.coalesced,
                    predicted_stride=pred.stride,
                    predicted_barriers=pred.barriers,
                    predicted_cost=pred.cost(params),
                    measured_coalesced=c.coalesced_elements,
                    measured_stride=c.stride_ops,
                    measured_barriers=c.barriers,
                    measured_cost=access_cost(c, params),
                )
        self.records.append(record)
        runtime.inc("cost_audit_checks_total", algorithm=record.algorithm)
        if record.divergent:
            runtime.inc("cost_audit_divergences_total", algorithm=record.algorithm)
        return record

    @staticmethod
    def _unsupported(result, reason: str) -> CostAuditRecord:
        return CostAuditRecord(
            algorithm=result.algorithm,
            n=result.sat.shape[0],
            width=result.params.width,
            latency=result.params.latency,
            supported=False,
            reason=reason,
        )

    def sweep(
        self,
        n: int,
        params=None,
        *,
        algorithms: Optional[Sequence[str]] = None,
        p: float = 0.5,
        seed: int = 0,
        **compute_kwargs,
    ) -> List[CostAuditRecord]:
        """Run and audit every algorithm at size ``n``; returns the records.

        ``compute_kwargs`` forward to ``compute`` (e.g. ``fast=True`` with
        a shared engine to audit the fused path's accounting rather than
        the counted path's).
        """
        from ..machine.params import MachineParams
        from ..sat.registry import make_algorithm
        from ..util.matrices import random_matrix

        if params is None:
            params = MachineParams()
        names = list(algorithms) if algorithms is not None else list(SIX_ALGORITHMS)
        out: List[CostAuditRecord] = []
        for name in names:
            kwargs = {"p": p} if name == "kR1W" else {}
            algo = make_algorithm(name, **kwargs)
            result = algo.compute(random_matrix(n, seed=seed), params, **compute_kwargs)
            out.append(self.check(result, p=p if name == "kR1W" else None))
        return out

    def summary(self) -> str:
        if not self.records:
            return "cost audit: no runs checked"
        audited = [r for r in self.records if r.supported]
        lines = [
            f"cost audit: {len(audited)}/{len(self.records)} runs audited, "
            f"{len(self.divergences)} divergent"
        ]
        lines.extend(r.summary() for r in self.records)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "checks": len(self.records),
            "audited": sum(1 for r in self.records if r.supported),
            "divergences": len(self.divergences),
            "records": [r.as_dict() for r in self.records],
        }
