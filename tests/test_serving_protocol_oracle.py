"""The request parser against the per-element loop it replaced.

``tests/reference_protocol.py`` keeps that loop verbatim.  Frames are
drawn as JSON text, so they carry what a client can actually send:
floats in repr form, integers (some too large for a float), booleans,
strings, ``null``, nested and empty arrays, the ``NaN``/``Infinity``
tokens ``json.loads`` accepts, ``1e400`` and bad deadlines.  Both
parsers must accept the same frames with ``==`` fields and reject the
same frames with the same reason and request id.

The one intended difference is an integer too large: the reference
raises on it, and the production parser rejects the frame.  One too
large for a float makes the reference raise ``OverflowError`` where the
production parser rejects it like an infinite number, so the reference
reads each such integer as ``1e400`` (a JSON number that parses as
infinity), in the feature and deadline positions where it is converted
to a float.  One longer than the interpreter's int/str digit limit
makes ``json.loads`` itself raise ``ValueError``, which the reference
lets out and the production parser answers as invalid JSON; the
parametrized cases at the end cover both.  So does a frame nested
deeper than the recursion limit, on which ``json.loads`` raises
``RecursionError``.
"""

from __future__ import annotations

import json
import sys

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is a dev dependency")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.serving.protocol import PredictRequest, ProtocolError  # noqa: E402
from tests import reference_protocol  # noqa: E402


def same(text: str) -> tuple[str, str]:
    """A token the reference reads as it is sent: (wire, oracle)."""
    return text, text


def _huge(value: int) -> tuple[str, str]:
    return str(value), "-1e400" if value < 0 else "1e400"


def weighted(*choices):
    """One of the strategies, each drawn in proportion to its weight."""
    return st.sampled_from([strategy for weight, strategy in choices
                            for _ in range(weight)]).flatmap(lambda s: s)


floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ints = st.integers(-10**18, 10**18).map(str)
huge_ints = st.one_of(st.integers(10**309, 10**400),
                      st.integers(-10**400, -10**309))
odd = st.one_of(
    st.sampled_from(["true", "false", "null", "NaN", "Infinity",
                     "-Infinity", "1e400", "-1e400", "0", "-0.0"]),
    st.text(max_size=4).map(json.dumps),
)
scalars = st.one_of(floats, ints, odd)
#: Tokens in the positions the parser converts to float: mostly finite
#: numbers, so that most frames get as far as the later checks.
numeric = weighted((12, floats.map(same)), (4, ints.map(same)),
                   (1, odd.map(same)), (1, huge_ints.map(_huge)))
nested = st.lists(scalars, max_size=3).map(
    lambda items: same("[" + ", ".join(items) + "]"))
feature_arrays = st.lists(weighted((30, numeric), (1, nested)),
                          min_size=1, max_size=6).map(
    lambda items: ("[" + ", ".join(w for w, _ in items) + "]",
                   "[" + ", ".join(o for _, o in items) + "]"))
features = weighted((10, feature_arrays), (1, scalars.map(same)),
                    (1, st.sampled_from(["[]", "{}"]).map(same)))
deadlines = weighted((8, numeric), (1, nested), (1, st.just(same("{}"))))
ids = weighted((10, st.one_of(floats, ints,
                              st.text(max_size=4).map(json.dumps))),
               (1, odd), (1, st.sampled_from(["[]", '{"a": 1}']))).map(same)
programs = st.one_of(st.text(max_size=4).map(json.dumps), ints,
                     st.just("null")).map(same)


@st.composite
def frames(draw) -> tuple[bytes, bytes]:
    """(wire frame, the frame as the reference should read it)."""
    if draw(st.sampled_from(range(20))) == 0:
        text = draw(st.sampled_from(
            ["[1, 2]", '"x"', "null", "not json", '{"id": 1,', "", "{}"]))
        return text.encode(), text.encode()
    fields = []
    for key, values, chance in (("id", ids, 19), ("features", features, 19),
                                ("deadline_ms", deadlines, 10),
                                ("program", programs, 6)):
        if draw(st.sampled_from(range(20))) < chance:
            fields.append((key, draw(values)))
    order = draw(st.permutations(fields))
    wire = "{" + ", ".join(f'"{k}": {w}' for k, (w, _) in order) + "}"
    oracle = "{" + ", ".join(f'"{k}": {o}' for k, (_, o) in order) + "}"
    return wire.encode(), oracle.encode()


def outcome(parse, line: bytes):
    try:
        request = parse(line)
    except ProtocolError as error:
        return "reject", error.reason, error.request_id
    return "accept", request


@given(frames())
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_reference_loop(frame):
    wire, oracle = frame
    assert outcome(PredictRequest.parse, wire) == outcome(
        reference_protocol.parse, oracle)


#: An integer past CPython's default int/str digit limit (4300 digits):
#: ``json.loads`` raises ``ValueError`` on it wherever it sits.
PAST_LIMIT = b"1" + b"0" * 5000
past_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
    reason="this interpreter converts a 5001-digit integer")


@pytest.mark.parametrize("frame, raised, reason, request_id", [
    pytest.param(b'{"id": "a", "features": [1.0, 1' + b"0" * 400 + b"]}",
                 OverflowError, "'features' must be finite", "a",
                 id="float-overflow-feature"),
    pytest.param(b'{"id": "a", "features": [-1' + b"0" * 400 + b', "x"]}',
                 OverflowError, "'features' must be finite", "a",
                 id="float-overflow-before-a-string"),
    pytest.param(b'{"id": "a", "features": [1.0], "deadline_ms": 1'
                 + b"0" * 400 + b"}", OverflowError,
                 "'deadline_ms' must be a positive number", "a",
                 id="float-overflow-deadline"),
    pytest.param(b'{"id": "a", "features": [1.0, ' + PAST_LIMIT + b"]}",
                 ValueError, None, None, marks=past_limit,
                 id="digit-limit-feature"),
    pytest.param(b'{"id": -' + PAST_LIMIT + b', "features": [1.0]}',
                 ValueError, None, None, marks=past_limit,
                 id="digit-limit-id"),
    pytest.param(b'{"id": "a", "features": [1.0], "deadline_ms": '
                 + PAST_LIMIT + b"}", ValueError, None, None,
                 marks=past_limit, id="digit-limit-deadline"),
    pytest.param(b'{"id": "deep", "features": ' + b"[" * 60_000,
                 RecursionError, None, None, id="nesting-past-recursion-limit"),
])
def test_huge_integers_are_rejected_where_the_reference_raised(
        frame, raised, reason, request_id):
    """``reason`` None: the reference's own error, as invalid JSON."""
    with pytest.raises(raised) as reference:
        reference_protocol.parse(frame)
    assert not isinstance(reference.value, ProtocolError)
    with pytest.raises(ProtocolError) as excinfo:
        PredictRequest.parse(frame)
    assert excinfo.value.reason == (
        reason or f"invalid JSON: {reference.value}")
    assert excinfo.value.request_id == request_id
