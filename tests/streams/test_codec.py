"""The stream tier's JSON codec against the standard library.

``encode_json`` reuses one C encoder and ``decode_json`` scans UTF-8
text without ``json.loads``'s encoding sniff; both must be
indistinguishable from the plain calls — bytes, values and exceptions.
"""

import json
import random

import pytest

from repro.streams import state
from repro.streams.state import decode_json, encode_json


def _scalar(rng: random.Random) -> object:
    return rng.choice([
        None, True, False, 0, -7, 2 ** 100, -(3 ** 70),
        rng.random() * 10 ** rng.randrange(-5, 20),
        float("nan"), float("inf"), float("-inf"), -0.0,
        "", "plain", "née ☃ 日本", "quote\" back\\slash\n\t", "\U0001f600",
        "\x00\x1f", "\ud800",
    ])


def _value(rng: random.Random, depth: int = 0) -> object:
    shape = rng.randrange(3) if depth < 4 else 0
    if shape == 0:
        return _scalar(rng)
    if shape == 1:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {rng.choice(["k", "ä", "z", "a b", "10", "2"]) + str(i):
            _value(rng, depth + 1) for i in range(rng.randrange(5))}


CORPUS = [_value(random.Random(seed)) for seed in range(300)] + [
    "a top-level str", "ü", {"nested": {"deep": [[[{}]]]}}, [], {}]


def _reference(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _outcome(call, payload: bytes) -> tuple[str, str]:
    """What a decode did: the value's repr (``nan`` compares equal to
    itself that way), or the exception's type and message."""
    try:
        return "value", repr(call(payload))
    except Exception as exc:        # compared, not swallowed
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("c_encoder", [True, False])
def test_encode_json_is_byte_equal_to_json_dumps(monkeypatch, c_encoder):
    if not c_encoder:                   # the pure-python fallback
        monkeypatch.setattr(state, "_C_ENCODE", None)
    for obj in CORPUS:
        assert encode_json(obj) == _reference(obj), obj


def _decode_inputs() -> list[bytes]:
    inputs = [b"", b" ", b"nan", b"NaN", b"-Infinity", b"1 2", b"[1,",
              b"{\"a\":", b"\"\\ud800\"", b"\"\xed\xa0\x80\"", b"\xff",
              b"\"\x01\"", b"[" * 50 + b"]" * 50]
    for obj in CORPUS:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        data = text.encode()
        inputs += [
            data,
            b" \n" + data, data + b"\r\n\t",        # whitespace padding
            data + b"x", data + b" " + data,        # trailing data
            b"\xef\xbb\xbf" + data,                 # UTF-8 BOM
            text.encode("utf-16"), text.encode("utf-16-le"),
            data[:len(data) // 2],                  # truncated
        ]
    return inputs


def test_decode_json_matches_json_loads_value_and_exception():
    inputs = _decode_inputs()
    outcomes = [(_outcome(json.loads, data), _outcome(decode_json, data))
                for data in inputs]
    assert all(ours == theirs for theirs, ours in outcomes)
    kinds = {theirs[0] for theirs, _ in outcomes}
    # the corpus reaches every branch: values, malformed JSON, bad UTF-8
    assert {"value", "JSONDecodeError", "UnicodeDecodeError"} <= kinds


def test_a_failed_encode_does_not_poison_the_next_one():
    """The reused encoder shares its circular-reference markers across
    calls: an encode that raises halfway through a dict must not leave
    that dict marked, or re-encoding it reads as a cycle."""
    shared = {"x": [1, {"y": 2}]}
    graph = {"a": shared, "b": object(), "c": shared}
    with pytest.raises(TypeError):
        encode_json(graph)
    del graph["b"]
    assert encode_json(graph) == _reference(graph)
    cycle: list = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        encode_json({"loop": cycle})
    assert encode_json(graph) == _reference(graph)
    assert encode_json([shared, shared]) == _reference([shared, shared])
