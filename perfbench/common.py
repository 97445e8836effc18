"""Shared pieces of the benchmark: statistics, digests, provenance, memory."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "Check",
    "Digest",
    "WorkloadResult",
    "input_seed",
    "percentile",
    "peak_rss_mb",
    "proc_cpu_seconds",
    "provenance",
    "tail_percentile",
]

#: Percentiles the tail rule chooses from, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def input_seed(seed: int, index: int) -> int:
    """The program's seed for input ``index`` of a run with ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return n - _rank(n, q) >= BEYOND


def tail_percentile(samples: Sequence[float], wanted: float = 99.0
                    ) -> tuple[float, float] | None:
    """``(q, value)`` for the highest percentile up to ``wanted`` that has
    at least ten samples beyond it, or ``None`` when even the median
    does not."""
    for q in TAIL_CANDIDATES:
        if q <= wanted and supports(len(samples), q):
            return q, percentile(samples, q)
    return None


class Digest:
    """SHA-256 over a canonical text form of simulated outputs.

    Floats are written with ``repr`` so two runs agree only when every
    digit agrees.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts: Any) -> None:
        self._hash.update(_canonical(parts).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _canonical(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        items = sorted((_canonical(k), _canonical(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if hasattr(value, "as_indices"):
        return "cfg" + _canonical(tuple(int(i) for i in value.as_indices()))
    if hasattr(value, "item"):  # numpy scalar
        return _canonical(value.item())
    return repr(value)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """What one pass of a workload measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: the workload's own named metrics: name -> (value, unit)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0  # the timed work (tracing overhead compares it)
    detail: dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)


def _status_kb(pid: int | str, key: str) -> float | None:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return float(line.split()[1])
    return None


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    kb = _status_kb(pid, "VmHWM")
    if kb is None:
        import resource

        kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(files: Iterable[Path], root: Path) -> str:
    """SHA-256 over the program's source files (identifies the code when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, seed: int, workload: str,
               shape: dict[str, Any]) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "shape": shape,
        "commit": _commit(root),
        "source_sha256": source_digest(
            (root / "src" / "repro").rglob("*.py"), root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)
