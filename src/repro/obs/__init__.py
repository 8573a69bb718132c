"""``repro.obs`` — the observability layer: metrics, spans, cost auditing.

Production serving needs a measurement surface, not ad-hoc prints. This
package provides one, in three pieces:

* :mod:`repro.obs.metrics` / :mod:`repro.obs.spans` — the primitives: a
  thread-safe :class:`MetricsRegistry` of counters, gauges, and
  bounded-reservoir histograms, and a bounded :class:`SpanRecorder` of
  recent timed events.
* :mod:`repro.obs.runtime` — the switchboard: the off-by-default enabled
  flag (``REPRO_OBS`` env var, :func:`enable`/:func:`disable`, or the
  per-run ``compute(obs=True)`` scope), the process-wide registry/span
  ring, and the one-line gated helpers instrumented layers call.
* :mod:`repro.obs.export` — JSON and Prometheus text exporters behind
  ``python -m repro stats``.
* :mod:`repro.obs.audit` — :class:`CostAudit`, the runtime check that a
  run's counted traffic still matches the paper's ``C/w + S + (B+1)l``
  model (imported lazily: it sits on the analysis layer, which itself
  uses instrumented machinery).

Instrumented layers: :class:`~repro.machine.macro.executor.HMMExecutor`
(per-kernel spans/counters on the counted, fused, and native paths),
:class:`~repro.machine.engine.ExecutionEngine` (plan-compile spans),
:class:`~repro.machine.engine.cache.PlanCache` (hit/miss/eviction
counters), the fused schedule builder, :class:`~repro.sat.batch
.BatchSession` (batch sizes, worker round trips, crash counts), the
out-of-core streaming layer (bands, prefetch waits, retries, degrades),
and the :mod:`repro.autotune` planner — ``autotune_decisions_total``
(labelled by key and ``prior``/``exploit``/``explore`` mode),
``autotune_observations_total``, ``autotune_latency_seconds`` (per-arm
measured-latency histograms), ``autotune_arms`` (candidate count gauge),
``autotune_sidecar_loads_total``/``autotune_sidecar_saves_total``, and
``autotune_decide`` decision spans.
"""

from __future__ import annotations

from .metrics import Histogram, MetricsRegistry
from .spans import Span, SpanRecorder
from .runtime import (
    ENV_VAR,
    disable,
    enable,
    enabled_scope,
    is_enabled,
    registry,
    reset,
    span,
    spans,
)
from .export import snapshot, to_json, to_prometheus

__all__ = [
    "ENV_VAR",
    "CostAudit",
    "CostAuditRecord",
    "Histogram",
    "MetricsRegistry",
    "SIX_ALGORITHMS",
    "Span",
    "SpanRecorder",
    "disable",
    "enable",
    "enabled_scope",
    "is_enabled",
    "registry",
    "reset",
    "snapshot",
    "span",
    "spans",
    "to_json",
    "to_prometheus",
]

_LAZY_AUDIT = {"CostAudit", "CostAuditRecord", "SIX_ALGORITHMS"}


def __getattr__(name: str):
    # CostAudit pulls in repro.analysis (which imports the instrumented
    # machine layer); deferring the import keeps ``import repro.obs``
    # cycle-free for the layers that instrument themselves through it.
    if name in _LAZY_AUDIT:
        from . import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
