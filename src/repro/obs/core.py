"""Tracing spans and the metrics registry (process-local side).

One process-wide :class:`ObsState` holds everything the instrumentation
hooks touch: whether observability is on, the output directory for this
process's shard, the injectable clock, the per-thread span stack and the
in-memory metric aggregates.  The state is resolved lazily from the
environment (``REPRO_OBS=1`` enables, ``REPRO_OBS_DIR`` sets the shard
directory) so worker processes spawned with the parent's environment
instrument themselves with no extra plumbing.

Disabled is the default and must cost (almost) nothing: every public
hook starts with one module-level boolean check and returns a shared
no-op object, so instrumented hot loops run at uninstrumented speed
(``tests/test_obs_overhead.py`` guards this).

All timestamps come from the state's *clock*, ``time.perf_counter`` by
default: a monotonic duration source (observability never feeds
calendar time into result paths) whose epoch is shared across processes
on the platforms we run on, so spans from a worker pool merge onto one
timeline.  Tests inject a fake clock through :func:`configure` for
deterministic records.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
# time.perf_counter is imported as a named callable so the default clock
# is explicit and swappable.
from time import perf_counter as _default_clock
from typing import Callable, Mapping

from repro.obs.shards import append_record, shard_path

__all__ = [
    "ObsState",
    "cg_callback",
    "configure",
    "enabled",
    "flush",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
    "span",
]


#: Histogram buckets per doubling of the observed value: a quantile read
#: back from the buckets is within ``2 ** (1 / 16) - 1`` (4.4%) of an
#: observed value.
BUCKETS_PER_OCTAVE = 16
#: Observations at or below this share the lowest bucket.
_BUCKET_FLOOR = 1e-12


def _bucket_of(value: float) -> int:
    """The log-spaced histogram bucket that ``value`` falls in."""
    return math.floor(math.log2(max(value, _BUCKET_FLOOR))
                      * BUCKETS_PER_OCTAVE)


class _Histogram:
    """Streaming aggregate of one observed series: count/sum/min/max and
    log-spaced bucket counts, which merge across processes and give
    quantiles back (:func:`repro.obs.export.histogram_quantile`)."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        bucket = _bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {str(bucket): self.buckets[bucket]
                        for bucket in sorted(self.buckets)},
        }


class ObsState:
    """Process-local observability state (spans, metrics, shard writer)."""

    def __init__(
        self,
        enabled: bool,
        directory: str,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.enabled = enabled
        self.directory = directory
        self.clock: Callable[[], float] = clock or _default_clock
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, _Histogram] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span_id = 0
        self._flush_seq = 0
        # Distinguishes two processes that reused one pid (pool rebuilds):
        # shard records carry it so metric snapshots never merge across
        # distinct process lifetimes.
        self.instance = round(self.clock() * 1e6)
        # Serving shard id (REPRO_SHARD_ID, stamped by shard_main before
        # any hook fires): lets the exporter break serve.* counters out
        # per shard as well as merging the fleet total.
        label = os.environ.get("REPRO_SHARD_ID", "").strip()
        self.shard: int | None = int(label) if label.isdigit() else None

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def next_span_id(self) -> int:
        with self._lock:
            self._next_span_id += 1
            return self._next_span_id

    # -- metrics -----------------------------------------------------------

    def inc(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = _Histogram()
            histogram.observe(value)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """In-memory metric aggregates of *this* process."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.as_dict()
                               for name, h in sorted(
                                   self.histograms.items())},
            }

    # -- shard writing -----------------------------------------------------

    def write(self, record: dict[str, object]) -> None:
        pid = os.getpid()
        record.setdefault("pid", pid)
        record.setdefault("inst", self.instance)
        if self.shard is not None:
            record.setdefault("shard", self.shard)
        append_record(shard_path(self.directory, pid), record)

    def flush_metrics(self) -> None:
        """Append this process's current metric totals to its shard.

        Totals are cumulative, so the merger keeps only the
        highest-``seq`` record per process instance; flushing often
        (after every fan-out, at exit) narrows the loss window when a
        worker is killed, without double counting.
        """
        with self._lock:
            self._flush_seq += 1
            seq = self._flush_seq
        payload = self.snapshot()
        if not any(payload.values()):
            return
        self.write({"t": "metrics", "seq": seq, **payload})


class _Span:
    """Context manager recording one timed, attributed span."""

    __slots__ = ("_state", "_name", "_attrs", "_id", "_parent", "_start")

    def __init__(self, state: ObsState, name: str,
                 attrs: Mapping[str, object]) -> None:
        self._state = state
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        state = self._state
        stack = state._stack()
        self._parent = stack[-1] if stack else 0
        self._id = state.next_span_id()
        stack.append(self._id)
        self._start = state.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        state = self._state
        end = state.clock()
        stack = state._stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        record: dict[str, object] = {
            "t": "span",
            "name": self._name,
            "id": self._id,
            "parent": self._parent,
            "start": self._start,
            "dur": end - self._start,
        }
        if self._attrs:
            record["attrs"] = dict(self._attrs)
        state.write(record)


class _NullSpan:
    """Shared no-op span: the disabled-path cost is one boolean check."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Module-level fast-path flag; kept in sync with the state by
#: :func:`configure` / :func:`_resolve`.
_ENABLED = False
_STATE: ObsState | None = None
_ATEXIT_REGISTERED = False


def _resolve() -> ObsState:
    """The process's state, created from the environment on first use."""
    global _STATE, _ENABLED
    if _STATE is None:
        on = os.environ.get("REPRO_OBS", "").strip() not in ("", "0")
        directory = os.environ.get("REPRO_OBS_DIR", ".repro_obs")
        _STATE = ObsState(enabled=on, directory=directory)
        _ENABLED = on
        if on:
            _register_atexit()
    return _STATE


def _register_atexit() -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(flush)
        _ATEXIT_REGISTERED = True


def configure(
    enabled: bool | None = None,
    directory: str | None = None,
    clock: Callable[[], float] | None = None,
) -> ObsState:
    """Override the process state (tests, scripts).

    Any argument left ``None`` keeps the current (or environment-derived)
    value.  Returns the active state so callers can inspect it.
    """
    global _STATE, _ENABLED
    current = _resolve()
    _STATE = ObsState(
        enabled=current.enabled if enabled is None else enabled,
        directory=current.directory if directory is None else directory,
        clock=clock or current.clock,
    )
    _ENABLED = _STATE.enabled
    if _ENABLED:
        _register_atexit()
    return _STATE


def reset_from_env() -> None:
    """Drop any configured state; the next call re-reads the environment."""
    global _STATE, _ENABLED
    _STATE = None
    _ENABLED = False


def enabled() -> bool:
    """Whether observability is recording in this process."""
    if _STATE is None:
        _resolve()
    return _ENABLED


def span(name: str, **attrs: object) -> _Span | _NullSpan:
    """A context manager timing one named, attributed unit of work."""
    if not enabled():
        return _NULL_SPAN
    assert _STATE is not None
    return _Span(_STATE, name, attrs)


def inc(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` (no-op when disabled)."""
    if enabled():
        assert _STATE is not None
        _STATE.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    if enabled():
        assert _STATE is not None
        _STATE.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name`` (no-op when
    disabled)."""
    if enabled():
        assert _STATE is not None
        _STATE.observe(name, value)


def _count_cg_iteration(*_ignored: object) -> None:
    inc("cg.iterations")


def cg_callback() -> Callable[..., None] | None:
    """Per-iteration hook for :func:`repro.model.optimizer.minimize_cg`.

    Returns ``None`` when disabled so the optimiser's fast path (no
    callback at all) is preserved; when enabled, the callback counts
    accepted CG iterates into the ``cg.iterations`` counter.  Purely
    observational either way: it never touches the iterate.
    """
    return _count_cg_iteration if enabled() else None


def snapshot() -> dict[str, dict[str, object]]:
    """This process's in-memory metric aggregates (empty when disabled)."""
    if not enabled():
        return {"counters": {}, "gauges": {}, "histograms": {}}
    assert _STATE is not None
    return _STATE.snapshot()


def flush() -> None:
    """Write this process's metric totals to its shard (no-op when
    disabled)."""
    if enabled():
        assert _STATE is not None
        _STATE.flush_metrics()
