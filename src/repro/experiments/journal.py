"""Append-only run journal for fault-tolerant experiment execution.

:class:`RunJournal` records every attempt, outcome, timeout, pool
rebuild and quarantine decision of a :class:`~repro.experiments.runner.
PhaseRunner` run as one JSON object per line.  Because it is append-only
and flushed per record, an interrupted run leaves a readable journal;
the next run loads it, skips phases that were quarantined, and (together
with the :class:`~repro.experiments.datastore.DataStore` cache) resumes
exactly where the previous run stopped.

Journal keys are plain strings (phase keys are rendered ``program/id``)
so the journal stays greppable and diffable.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.obs.shards import append_jsonl_line

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.datastore import DataStore

__all__ = ["RunJournal"]

#: Events that end a key's lifecycle (until a new attempt re-opens it).
_TERMINAL_EVENTS = {"success", "quarantine", "quarantine-cleared"}


def _sanitize(tag: str) -> str:
    return re.sub(r"[^A-Za-z0-9._,-]", "_", tag)


class RunJournal:
    """JSONL journal of per-phase execution history."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._records: list[dict] = []
        if self.path.exists():
            self._records = list(self._read())

    @classmethod
    def for_store(cls, store: "DataStore", tag: str) -> "RunJournal":
        """The canonical journal location for a store + scale tag."""
        return cls(store.directory / "journals" / f"{_sanitize(tag)}.jsonl")

    def _read(self) -> Iterator[dict]:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a killed process: skip
                if isinstance(record, dict):
                    yield record

    # -- writing ---------------------------------------------------------------

    def record(self, key: str, event: str, **fields: object) -> dict:
        """Append one event (flushed immediately; crash-safe)."""
        # The timestamp is observability metadata (when did the attempt
        # happen), never an input to any cached result or decision.
        entry: dict = {"ts": round(time.time(), 3),
                       "key": key, "event": event}
        entry.update({k: v for k, v in fields.items() if v is not None})
        self._records.append(entry)
        # O_APPEND single-write framing: pool workers and the parent
        # append to one journal concurrently, and a buffered text-mode
        # append may split a line across several underlying writes.
        append_jsonl_line(self.path, json.dumps(entry, sort_keys=True))
        return entry

    # -- reading ---------------------------------------------------------------

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def events(self, key: str) -> list[dict]:
        return [r for r in self._records if r.get("key") == key]

    def attempts(self, key: str) -> int:
        """Attempts ever made on ``key`` (across interrupted runs)."""
        return sum(1 for r in self._records
                   if r.get("key") == key and r.get("event") == "attempt")

    def outcome(self, key: str) -> str | None:
        """The latest terminal event for ``key`` (``None`` if in flight)."""
        for record in reversed(self._records):
            if record.get("key") == key and record["event"] in _TERMINAL_EVENTS:
                return record["event"]
        return None

    def quarantined(self) -> list[str]:
        """Keys whose latest terminal event is a quarantine."""
        return sorted(
            key for key in {r.get("key") for r in self._records}
            if key is not None and self.outcome(key) == "quarantine"
        )

    def clear_quarantine(self, key: str) -> None:
        """Allow a quarantined key to run again on the next resume."""
        self.record(key, "quarantine-cleared")

    def summary(self) -> dict:
        """Aggregate counters for reporting and assertions."""
        counts = Counter(r["event"] for r in self._records)
        durations = [r["duration"] for r in self._records
                     if r.get("event") == "success" and "duration" in r]
        return {
            "attempts": counts.get("attempt", 0),
            "successes": counts.get("success", 0),
            "failures": counts.get("failure", 0),
            "timeouts": counts.get("timeout", 0),
            "retries": max(0, counts.get("attempt", 0)
                           - counts.get("success", 0)
                           - len(self.quarantined())),
            "pool_rebuilds": counts.get("pool-rebuild", 0),
            "degraded_serial": counts.get("degrade-serial", 0),
            "quarantined": len(self.quarantined()),
            "total_success_duration": round(sum(durations), 3),
        }

    def render(self) -> str:
        """Human-readable one-screen summary."""
        summary = self.summary()
        lines = [f"run journal: {self.path}"]
        lines += [f"  {name:<22} {value}" for name, value in summary.items()]
        quarantined = self.quarantined()
        if quarantined:
            lines.append("  quarantined keys:")
            for key in quarantined:
                last = next((r for r in reversed(self._records)
                             if r.get("key") == key
                             and r["event"] in ("failure", "timeout")), None)
                reason = last.get("error", "?") if last else "?"
                lines.append(f"    {key}: {reason}")
        return "\n".join(lines)
