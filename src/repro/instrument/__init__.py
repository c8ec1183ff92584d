"""repro.instrument -- dependency-free tracing and metrics.

The observability subsystem for the recovery pipeline: nestable timing
spans (:mod:`.tracer`), thread-safe counters/gauges/histograms
(:mod:`.metrics`) and JSON/table reporters (:mod:`.report`).  Hooks
are wired through the hot paths (solvers, encoder, pipeline); see
``docs/INSTRUMENTATION.md`` for naming conventions and the JSON schema.
Wall-clock gates live in :mod:`repro.bench`, not here.

Design rule: **zero overhead when disabled**.  Instrumentation is off by
default; every hook funnels through :func:`span`, :func:`incr`,
:func:`observe` or :func:`set_gauge`, each of which is a single flag
check when disabled (``span`` returns the inert :data:`NULL_SPAN`
singleton, whose ``active`` attribute lets per-iteration recording be
skipped with one attribute lookup).

Typical use::

    from repro import instrument

    instrument.enable()
    points = run_fig6a(num_frames=2)
    report = instrument.report(meta={"experiment": "fig6a_rmse"})
    print(instrument.render_table(report))

or, scoped::

    with instrument.profiled() as session:
        run_fig6a(num_frames=2)
    report = session.report()

Set ``REPRO_INSTRUMENT=1`` in the environment to enable collection at
import time (used by the instrumented benchmark mode).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import (
    SCHEMA,
    build_report,
    counter_value,
    gauge_value,
    iter_span_dicts,
    json_safe,
    render_table,
    select_counters,
    validate_report,
    write_report,
)
from .tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SCHEMA",
    "Span",
    "Tracer",
    "build_report",
    "counter_value",
    "disable",
    "enable",
    "enabled",
    "gauge_value",
    "get_registry",
    "get_tracer",
    "incr",
    "iter_span_dicts",
    "json_safe",
    "observe",
    "profiled",
    "render_table",
    "report",
    "reset",
    "select_counters",
    "set_gauge",
    "span",
    "validate_report",
    "write_report",
]

_tracer = Tracer()
_registry = MetricsRegistry()
_enabled = os.environ.get("REPRO_INSTRUMENT", "") not in ("", "0")


def enabled() -> bool:
    """Whether collection is currently on."""
    return _enabled


def enable() -> None:
    """Turn collection on (spans and metrics start recording)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off (hooks revert to no-ops)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear all collected spans and metrics (keeps the on/off state)."""
    _tracer.reset()
    _registry.reset()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def span(name: str, **attributes):
    """Open a span context manager, or :data:`NULL_SPAN` when disabled.

    The returned object always supports ``with``, ``.set(**attrs)``,
    ``.record(value)`` and ``.active`` -- call sites need no branches
    beyond an optional ``if sp.active`` around expensive-to-compute
    recordings.
    """
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, **attributes)


def incr(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` (no-op when disabled)."""
    if _enabled:
        _registry.counter(name).add(amount)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    if _enabled:
        _registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op when disabled)."""
    if _enabled:
        _registry.gauge(name).set(value)


def report(meta: dict | None = None) -> dict:
    """Build the JSON-safe report from the process-wide collectors."""
    return build_report(_tracer, _registry, meta=meta)


class ProfileSession:
    """Handle yielded by :func:`profiled`; builds reports after the fact."""

    def __init__(self, meta: dict | None = None):
        self.meta = dict(meta or {})

    def report(self, extra_meta: dict | None = None) -> dict:
        """The session's report (process-wide collectors + session meta)."""
        meta = dict(self.meta)
        meta.update(extra_meta or {})
        return build_report(_tracer, _registry, meta=meta)


@contextmanager
def profiled(meta: dict | None = None, reset_first: bool = True):
    """Enable collection for a ``with`` block, restoring state after.

    Parameters
    ----------
    meta:
        Context stamped into reports built from the yielded session.
    reset_first:
        Clear previously collected data on entry (default) so the
        session's report covers exactly the block.
    """
    global _enabled
    previous = _enabled
    if reset_first:
        reset()
    _enabled = True
    try:
        yield ProfileSession(meta)
    finally:
        _enabled = previous
