"""The observability switchboard: one flag, one registry, one span ring.

Every instrumented layer (executor, engine, plan cache, fused backend,
batch frontend, streaming) funnels through this module:

* :func:`is_enabled` — the gate every instrumentation point checks.
  Observability is **off by default**; production perf work paid for the
  warm paths and idle instrumentation must cost nothing but a flag test.
  Enable it process-wide with the ``REPRO_OBS`` environment variable
  (read at import; ``1``/``true``/``yes``/``on``), programmatically with
  :func:`enable`/:func:`disable`, or per-call with
  :meth:`repro.sat.base.SATAlgorithm.compute`'s ``obs=`` argument (a
  thread-scoped override, see :func:`enabled_scope`).
* :func:`registry` / :func:`spans` — the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` and
  :class:`~repro.obs.spans.SpanRecorder` the helpers write into.
* :func:`inc` / :func:`observe` / :func:`set_gauge` / :func:`span` —
  enabled-gated conveniences so call sites stay one line.

This module deliberately imports nothing from the rest of the package
(only stdlib), so any layer — including :mod:`repro.machine`, which the
analysis layer sits on top of — can import it without cycles.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .spans import SpanRecorder

__all__ = [
    "ENV_VAR",
    "disable",
    "enable",
    "enabled_scope",
    "inc",
    "is_enabled",
    "observe",
    "registry",
    "reset",
    "set_gauge",
    "span",
    "spans",
]

#: Environment variable that switches observability on process-wide.
ENV_VAR = "REPRO_OBS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


_enabled: bool = _env_enabled()
_local = threading.local()

_REGISTRY = MetricsRegistry()
_SPANS = SpanRecorder()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def spans() -> SpanRecorder:
    """The process-wide span ring."""
    return _SPANS


def is_enabled() -> bool:
    """Whether instrumentation points should record right now.

    A thread-scoped override (:func:`enabled_scope`, ``compute(obs=...)``)
    wins over the process-wide flag.
    """
    override = getattr(_local, "override", None)
    return _enabled if override is None else override


def enable() -> None:
    """Switch observability on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch observability off process-wide (the default state)."""
    global _enabled
    _enabled = False


def refresh_from_env() -> bool:
    """Re-read ``REPRO_OBS`` (normally read once at import); returns the flag."""
    global _enabled
    _enabled = _env_enabled()
    return _enabled


@contextmanager
def enabled_scope(value: bool = True) -> Iterator[None]:
    """Force observability on (or off) for the current thread's scope.

    Scopes nest; the innermost wins. This is the mechanism behind the
    per-run ``obs=`` toggle: one run can be recorded without flipping the
    process-wide flag (or silenced inside an instrumented service).
    """
    previous = getattr(_local, "override", None)
    _local.override = bool(value)
    try:
        yield
    finally:
        _local.override = previous


def reset() -> None:
    """Clear all recorded metrics and spans (the enabled flag is kept)."""
    with _DRAIN_LOCK:
        _PENDING_KERNELS.clear()  # discard staged, not-yet-drained events too
    _REGISTRY.reset()
    _SPANS.reset()


# -- enabled-gated one-liners for instrumentation sites -----------------------


def inc(name: str, amount: float = 1.0, **labels) -> None:
    if is_enabled():
        _REGISTRY.inc(name, amount, **labels)


def observe(name: str, value: float, **labels) -> None:
    if is_enabled():
        _REGISTRY.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    if is_enabled():
        _REGISTRY.set_gauge(name, value, **labels)


#: Per-mode pre-resolved series handles for the kernel-event drain:
#: ``mode -> (registry generation, launches key, blocks key, histogram)``.
_KERNEL_HANDLES: dict = {}

#: Staged kernel events awaiting the drain: ``(label, mode, blocks,
#: duration_s, coalesced, stride)`` tuples. Kernel launches are by far the
#: hottest instrumentation point (one per kernel, ~15 per warm compute),
#: so :func:`record_kernel` only appends one tuple here — GIL-atomic and
#: cache-friendly — and the registry/span-ring updates happen in batch at
#: the next read (both stores call :func:`_drain_kernel_events` through
#: their ``pre_read_hook`` before serving any reader) or when the buffer
#: hits :data:`_PENDING_FLUSH_AT`.
_PENDING_KERNELS: list = []
_PENDING_FLUSH_AT = 4096
_DRAIN_LOCK = threading.Lock()


def _drain_kernel_events() -> None:
    """Flush staged kernel events into the registry and span ring."""
    if not _PENDING_KERNELS:
        return
    with _DRAIN_LOCK:
        n = len(_PENDING_KERNELS)
        batch = _PENDING_KERNELS[:n]
        del _PENDING_KERNELS[:n]
    for label, mode, blocks, duration_s, coalesced, stride in batch:
        entry = _KERNEL_HANDLES.get(mode)
        if entry is None or entry[0] != _REGISTRY.generation:
            entry = (
                _REGISTRY.generation,
                _REGISTRY._key("kernel_launches_total", {"mode": mode}),
                _REGISTRY._key("kernel_blocks_total", {"mode": mode}),
                _REGISTRY.histogram_handle("kernel_duration_seconds", mode=mode),
            )
            _KERNEL_HANDLES[mode] = entry
        _REGISTRY.kernel_event(
            entry[1], entry[2], entry[3], float(blocks), duration_s
        )
        attrs = {"label": label, "mode": mode, "blocks": blocks}
        if coalesced is not None:
            attrs["coalesced"] = coalesced
            attrs["stride"] = stride
        _SPANS.record_span("kernel", duration_s, attrs)


_REGISTRY.pre_read_hook = _drain_kernel_events
_SPANS.pre_read_hook = _drain_kernel_events


def record_kernel(label: str, mode: str, blocks: int, duration_s: float,
                  counters=None) -> None:
    """Record one kernel launch (executor hot path; call only when enabled).

    ``mode`` distinguishes the three execution paths — ``counted``
    (per-access charging), ``fused`` (memoized tallies, batched numpy)
    and ``native`` (memoized tallies, compiled megakernels). ``counters``
    is the kernel's :class:`~repro.machine.macro.counters.AccessCounters`
    traffic diff (duck-typed; this module cannot import the machine
    layer).

    The event is staged, not applied: one tuple append per launch, drained
    into the metric/span stores at the next read. Readers always see a
    complete picture — both stores drain before serving.
    """
    if counters is not None:
        _PENDING_KERNELS.append((
            label, mode, blocks, duration_s,
            counters.coalesced_elements, counters.stride_ops,
        ))
    else:
        _PENDING_KERNELS.append((label, mode, blocks, duration_s, None, None))
    if len(_PENDING_KERNELS) >= _PENDING_FLUSH_AT:
        _drain_kernel_events()


class _LiveSpan:
    """Context manager that times its body and records a span + histogram."""

    __slots__ = ("name", "attrs", "_t0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._t0
        # Drain staged kernel events first so the ring keeps causal order:
        # a compute's kernel spans get lower sequence numbers than the
        # enclosing sat_compute span that closes after them.
        _drain_kernel_events()
        _SPANS.record_span(self.name, duration, self.attrs)
        _REGISTRY.observe("span_duration_seconds", duration, span=self.name)


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Time a block as a named span (no-op unless observability is on)."""
    if not is_enabled():
        return _NULL_SPAN
    return _LiveSpan(name, attrs)
