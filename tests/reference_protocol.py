"""The request parser as it was before its validation moved to C-level
passes, kept as a test oracle.

:meth:`repro.serving.protocol.PredictRequest.parse` is the only parser
in ``src/repro``.  This module keeps the straightforward per-element
loop it replaced, verbatim, so ``tests/test_serving_protocol_oracle.py``
can check that the production parser accepts and rejects the same
frames, with the same reasons and equal features.  One difference is
intended: here an integer too large for a float raises
``OverflowError``, and one longer than the int/str digit limit lets the
``ValueError`` of ``json.loads`` out, where the production parser
rejects the frame.
"""

from __future__ import annotations

import json
import math

from repro.serving.protocol import MAX_FRAME_BYTES, PredictRequest, ProtocolError


def parse(line: bytes) -> PredictRequest:
    """Parse one wire frame.

    Raises:
        ProtocolError: on any malformation — oversized frame, bad
            JSON, missing/mistyped fields, non-finite features,
            non-positive deadline.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
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
    features: list[float] = []
    for value in raw_features:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("'features' must be numbers", request_id)
        number = float(value)
        if not math.isfinite(number):
            raise ProtocolError("'features' must be finite", request_id)
        features.append(number)
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not math.isfinite(float(deadline_ms))
                or float(deadline_ms) <= 0):
            raise ProtocolError(
                "'deadline_ms' must be a positive number", request_id)
        deadline_ms = float(deadline_ms)
    program = payload.get("program")
    if program is not None and not isinstance(program, str):
        raise ProtocolError("'program' must be a string", request_id)
    return PredictRequest(id=request_id, features=tuple(features),
                          deadline_ms=deadline_ms, program=program)
