"""Dependency-free observability: tracing spans, metrics, exporters.

Disabled by default; enable with ``REPRO_OBS=1`` (shards land under
``REPRO_OBS_DIR``, default ``.repro_obs``).  See ``docs/observability.md``
for naming conventions and the export formats.
"""

from repro.obs.core import (
    ObsState,
    cg_callback,
    configure,
    enabled,
    flush,
    inc,
    observe,
    reset_from_env,
    set_gauge,
    snapshot,
    span,
)
from repro.obs.export import (
    chrome_trace,
    export_all,
    histogram_quantile,
    merge_records,
    metrics_snapshot,
    render_summary,
)
from repro.obs.shards import append_jsonl_line, append_record

__all__ = [
    "ObsState",
    "append_jsonl_line",
    "append_record",
    "cg_callback",
    "chrome_trace",
    "configure",
    "enabled",
    "export_all",
    "flush",
    "histogram_quantile",
    "inc",
    "merge_records",
    "metrics_snapshot",
    "observe",
    "render_summary",
    "reset_from_env",
    "set_gauge",
    "snapshot",
    "span",
]
