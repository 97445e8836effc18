"""The newline-delimited-JSON wire protocol of the prediction service.

One request per line, one response per line, UTF-8 JSON — parseable
with nothing but a socket and ``json.loads``, which is the point: the
controller this models lives next to system software, not behind an
RPC stack.

Request frame::

    {"id": "mcf/3", "features": [0.12, ...],
     "deadline_ms": 50.0, "program": "mcf"}

* ``id`` — client-chosen correlation token, echoed verbatim (responses
  may be reordered by batching);
* ``features`` — the counter feature vector (finite numbers);
* ``deadline_ms`` — optional per-request deadline, measured from server
  receipt; a request that cannot be answered by the model engines in
  time is answered early from the static fallback chain rather than
  late;
* ``program`` — optional workload name, used by the ``static`` tier to
  pick the per-program static-best configuration.

Response frame::

    {"id": "mcf/3", "status": "ok", "tier": "quantized",
     "config": {"width": 4, ...}}

``status`` is ``ok`` (with ``tier`` + the full 14-parameter ``config``),
``shed`` (admission control refused the request; ``reason`` says why —
the client should back off and retry), or ``error`` (the frame was
malformed; ``reason`` explains, ``id`` is echoed when it could be
recovered).  Shedding is an explicit, immediate answer by design:
backpressure the client can see beats unbounded buffering it cannot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

from repro.config.configuration import MicroarchConfig

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "PredictRequest",
    "PredictResponse",
]

#: Upper bound on one request line.  The widest real feature vector
#: (advanced extractor, ~100 floats) serialises to a few KB; anything
#: near this limit is garbage or abuse, and bounding the line length
#: bounds per-connection buffer growth.
MAX_FRAME_BYTES = 64 * 1024

#: The types ``json.loads`` gives numbers (``bool`` is neither).
_NUMBER_TYPES = frozenset((int, float))


class ProtocolError(ValueError):
    """A malformed request frame; carries the request id if recoverable."""

    def __init__(self, reason: str, request_id: str | None = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.request_id = request_id


@dataclass(frozen=True)
class PredictRequest:
    """One parsed request frame."""

    id: str
    features: tuple[float, ...]
    deadline_ms: float | None = None
    program: str | None = None

    @classmethod
    def parse(cls, line: bytes) -> "PredictRequest":
        """Parse one wire frame.

        Raises:
            ProtocolError: on any malformation — oversized frame, bad
                JSON (integers too long to convert and nesting too deep
                to decode included), missing/mistyped fields, non-finite
                features (integers too large for a float included),
                non-positive deadline.
        """
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame exceeds {MAX_FRAME_BYTES} bytes")
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as error:
            # Bad syntax, bad UTF-8, an integer longer than the
            # interpreter's int/str digit limit (4300 by default), or
            # arrays/objects nested deeper than the recursion limit.
            raise ProtocolError(f"invalid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ProtocolError("frame must be a JSON object")
        raw_id = payload.get("id")
        if raw_id is None or isinstance(raw_id, (dict, list, bool)):
            raise ProtocolError("missing or non-scalar 'id'")
        request_id = str(raw_id)
        raw_features = payload.get("features")
        if not isinstance(raw_features, list) or not raw_features:
            raise ProtocolError("'features' must be a non-empty array",
                                request_id)
        numbers = raw_features
        if not set(map(type, raw_features)) <= _NUMBER_TYPES:
            # The first bad element names the reason, so a non-finite
            # number ahead of the first non-number still reads "finite".
            numbers = raw_features[:list(map(
                _NUMBER_TYPES.__contains__, map(type, raw_features))
            ).index(False)]
        try:
            features = tuple(map(float, numbers))
        except OverflowError:  # an integer too large for a float
            features = (math.inf,)
        if not all(map(math.isfinite, features)):
            raise ProtocolError("'features' must be finite", request_id)
        if numbers is not raw_features:
            raise ProtocolError("'features' must be numbers", request_id)
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            try:
                deadline_ms = (float(deadline_ms)
                               if type(deadline_ms) in _NUMBER_TYPES
                               else math.nan)
            except OverflowError:
                deadline_ms = math.nan
            if not 0.0 < deadline_ms < math.inf:
                raise ProtocolError(
                    "'deadline_ms' must be a positive number", request_id)
        program = payload.get("program")
        if program is not None and not isinstance(program, str):
            raise ProtocolError("'program' must be a string", request_id)
        return cls(id=request_id, features=features,
                   deadline_ms=deadline_ms, program=program)


@dataclass(frozen=True)
class PredictResponse:
    """One response frame (``ok`` / ``shed`` / ``error``)."""

    id: str | None
    status: str
    tier: str | None = None
    config: Mapping[str, int] | None = None
    reason: str | None = None

    @classmethod
    def ok(cls, request_id: str, config: MicroarchConfig,
           tier: str) -> "PredictResponse":
        return cls(id=request_id, status="ok", tier=tier,
                   config=config.as_dict())

    @classmethod
    def shed(cls, request_id: str | None, reason: str) -> "PredictResponse":
        return cls(id=request_id, status="shed", reason=reason)

    @classmethod
    def error(cls, request_id: str | None, reason: str) -> "PredictResponse":
        return cls(id=request_id, status="error", reason=reason)

    def encode(self) -> bytes:
        """The wire form: one JSON object, newline-terminated."""
        payload: dict[str, object] = {"status": self.status}
        if self.id is not None:
            payload["id"] = self.id
        if self.tier is not None:
            payload["tier"] = self.tier
        if self.config is not None:
            payload["config"] = dict(self.config)
        if self.reason is not None:
            payload["reason"] = self.reason
        return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"

    @classmethod
    def decode(cls, line: bytes) -> "PredictResponse":
        """Parse a response frame (the client half; used by the drill,
        the bench harness and tests)."""
        payload = json.loads(line)
        config = payload.get("config")
        return cls(
            id=None if payload.get("id") is None else str(payload["id"]),
            status=str(payload.get("status", "error")),
            tier=payload.get("tier"),
            config=None if config is None
            else {str(k): int(v) for k, v in config.items()},
            reason=payload.get("reason"),
        )

    def microarch_config(self) -> MicroarchConfig:
        """The answered configuration as a :class:`MicroarchConfig`."""
        if self.config is None:
            raise ValueError(f"response has no config (status={self.status})")
        return MicroarchConfig.from_dict(self.config)
