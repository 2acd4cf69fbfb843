"""Message framing, sets, compression, offset arithmetic."""

import hashlib
import struct
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ChecksumError, SerializationError
from repro.kafka.message import (
    ATTR_GZIP,
    ATTR_NONE,
    FRAME_OVERHEAD,
    Message,
    MessageSet,
    decode_span,
    encode_payloads,
    iter_messages,
)


def test_encode_decode_single():
    message = Message(b"test msg str")
    decoded = list(iter_messages(message.encode()))
    assert len(decoded) == 1
    assert decoded[0].message.payload == b"test msg str"
    assert decoded[0].next_offset == message.wire_size


def test_next_offset_is_cumulative_length():
    """'To compute the id of the next message, we have to add the
    length of the current message to its id.'"""
    messages = [Message(b"a"), Message(b"bb"), Message(b"ccc")]
    data = MessageSet(messages).encode()
    decoded = list(iter_messages(data, base_offset=100))
    expected = 100
    for original, got in zip(messages, decoded):
        expected += original.wire_size
        assert got.next_offset == expected


def test_partial_tail_ignored():
    data = MessageSet([Message(b"whole")]).encode()
    truncated = data + Message(b"partial").encode()[:-3]
    decoded = list(iter_messages(truncated))
    assert [d.message.payload for d in decoded] == [b"whole"]


def test_crc_corruption_detected():
    data = bytearray(Message(b"payload-bytes").encode())
    data[-1] ^= 0xFF
    with pytest.raises(ChecksumError):
        list(iter_messages(bytes(data)))


def test_compressed_set_roundtrip():
    originals = [Message(f"event-{i}".encode()) for i in range(50)]
    compressed = MessageSet.compressed(originals)
    assert len(compressed) == 1
    assert compressed.messages[0].attributes == ATTR_GZIP
    decoded = list(iter_messages(compressed.encode()))
    assert [d.message.payload for d in decoded] == \
        [m.payload for m in originals]


def test_compressed_messages_share_wrapper_next_offset():
    originals = [Message(b"a"), Message(b"b")]
    compressed = MessageSet.compressed(originals)
    wrapper_size = compressed.wire_size
    decoded = list(iter_messages(compressed.encode(), base_offset=10))
    assert all(d.next_offset == 10 + wrapper_size for d in decoded)


def test_compression_shrinks_redundant_data():
    originals = [Message(b"page_view member=123 page=feed " * 4)
                 for _ in range(100)]
    plain = MessageSet(originals)
    compressed = MessageSet.compressed(originals)
    assert compressed.wire_size < plain.wire_size / 2


def test_wire_size_accounts_overhead():
    assert Message(b"xyz").wire_size == FRAME_OVERHEAD + 3
    assert len(Message(b"xyz").encode()) == Message(b"xyz").wire_size


@given(st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=30))
def test_roundtrip_property(payloads):
    data = MessageSet([Message(p) for p in payloads]).encode()
    decoded = [d.message.payload for d in iter_messages(data)]
    assert decoded == payloads


@given(st.lists(st.binary(min_size=1, max_size=100), min_size=1, max_size=20))
def test_compression_roundtrip_property(payloads):
    compressed = MessageSet.compressed([Message(p) for p in payloads])
    decoded = [d.message.payload for d in iter_messages(compressed.encode())]
    assert decoded == payloads


# -- the span path against the per-message reference -------------------------
#
# ``reference_encode`` and ``reference_iter`` are the per-message encoder
# and decoder this package shipped before the message set became a byte
# span.  They stay here as the format's independent statement: the
# one-pass encoder must produce their bytes and the one-pass decoder
# must read spans the way they did.

_REFERENCE_HEADER = struct.Struct("<II")   # length, crc


def reference_encode(payload: bytes, attributes: int = ATTR_NONE) -> bytes:
    body = bytes([attributes]) + payload
    return _REFERENCE_HEADER.pack(len(body), zlib.crc32(body)) + body


def reference_iter(data: bytes, base_offset: int = 0):
    """Yields ``(payload, next_offset)`` the way the old
    ``iter_messages`` yielded ``MessageAndOffset``."""
    position = 0
    total = len(data)
    while position + _REFERENCE_HEADER.size <= total:
        length, crc = _REFERENCE_HEADER.unpack_from(data, position)
        if length < 1:
            raise SerializationError(f"invalid frame length {length}")
        end = position + _REFERENCE_HEADER.size + length
        if end > total:
            return
        body = data[position + _REFERENCE_HEADER.size:end]
        if zlib.crc32(body) != crc:
            raise ChecksumError(
                f"corrupt message at offset {base_offset + position}")
        next_offset = base_offset + end
        if body[0] & ATTR_GZIP:
            for inner, _ in reference_iter(zlib.decompress(body[1:])):
                yield inner, next_offset
        else:
            yield body[1:], next_offset
        position = end


def outcome(decoder, data, base_offset=0):
    """What a decoder delivered before it stopped, and how it stopped."""
    delivered = []
    try:
        for pair in decoder(data, base_offset):
            delivered.append(pair)
    except (ChecksumError, SerializationError) as exc:
        return delivered, type(exc)
    return delivered, None


payload_lists = st.lists(
    st.one_of(st.just(b""), st.binary(min_size=1, max_size=300),
              st.binary(min_size=1, max_size=1).map(lambda b: b * 65536)),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(payload_lists, st.booleans())
def test_one_pass_encoder_matches_reference_bytes(payloads, compress):
    expected = b"".join(reference_encode(p) for p in payloads)
    assert encode_payloads(payloads) == expected
    message_set = MessageSet.from_payloads(payloads)
    legacy = MessageSet([Message(p) for p in payloads])
    if compress:
        expected = reference_encode(zlib.compress(expected, 6), ATTR_GZIP)
        message_set = message_set.deflated()
        legacy = MessageSet.compressed([Message(p) for p in payloads])
    assert message_set.encode() == legacy.encode() == expected
    assert message_set.wire_size == legacy.wire_size == len(expected)
    assert len(message_set) == len(legacy) == (1 if compress
                                               else len(payloads))
    assert [m.payload for m in message_set.messages] == \
        [m.payload for m in legacy.messages]
    assert [p for p, _ in decode_span(expected)] == payloads


def test_format_is_pinned():
    payloads = [b"", b"a", b"page_view member=%d" % 7, bytes(range(256)) * 3]
    plain = MessageSet.from_payloads(payloads).encode()
    mixed = MessageSet([Message(b"x"), Message(b"y", 0x40),
                        Message(zlib.compress(plain, 6), ATTR_GZIP),
                        Message(b"z")]).encode()
    assert hashlib.sha256(plain).hexdigest() == (
        "1109d6288462289456506f97c321385ec25487b12eb5b4905f1891815a046b1b")
    assert hashlib.sha256(mixed).hexdigest() == (
        "a591f14925657a929cf5f90a22211c4abc99be0797faf7ccb7f0bb1d2e06280d")
    assert mixed == (reference_encode(b"x") + reference_encode(b"y", 0x40)
                     + reference_encode(zlib.compress(plain, 6), ATTR_GZIP)
                     + reference_encode(b"z"))


def fifty_message_span():
    plain = [b"event-%03d-" % i + bytes([i]) * (i % 7) for i in range(47)]
    plain[5] = plain[31] = b""      # length 1: one flipped bit makes it 0
    wrapped = [b"inner-a", b"", b"inner-c"]
    span = (encode_payloads(plain[:20])
            + MessageSet.from_payloads(wrapped).deflated().encode()
            + encode_payloads(plain[20:]))
    return span, plain[:20] + wrapped + plain[20:]


def test_decoder_agrees_with_reference_at_every_truncation():
    span, payloads = fifty_message_span()
    assert [p for p, _ in decode_span(span, 1000)] == payloads
    for cut in range(len(span) + 1):
        assert outcome(decode_span, span[:cut], 1000) == \
            outcome(reference_iter, span[:cut], 1000), cut


def test_decoder_agrees_with_reference_on_every_flipped_region():
    span, _ = fifty_message_span()
    starts = [0]
    for _, end in decode_span(span, shallow=True):
        starts.append(end)
    raised = set()
    for start, end in zip(starts, starts[1:]):
        # one bit in the length, the crc, the attributes, and the first,
        # middle and last payload byte (where the frame has a payload)
        targets = {start, start + 3, start + 4, start + 7, start + 8}
        if end - start > FRAME_OVERHEAD:
            targets |= {start + FRAME_OVERHEAD, (start + FRAME_OVERHEAD
                                                 + end) // 2, end - 1}
        for position in sorted(targets):
            for bit in (0x01, 0x80):
                damaged = bytearray(span)
                damaged[position] ^= bit
                got = outcome(decode_span, bytes(damaged))
                assert got == outcome(reference_iter, bytes(damaged)), \
                    (position, bit)
                raised.add(got[1])
    assert raised == {ChecksumError, SerializationError, None}


def test_zero_length_frame_is_rejected():
    span = encode_payloads([b"ok"]) + struct.pack("<IIB", 0, 0, 0) + b"tail"
    assert outcome(decode_span, span) == outcome(reference_iter, span) == \
        ([(b"ok", FRAME_OVERHEAD + 2)], SerializationError)


def test_shallow_walk_keeps_wrappers_whole():
    span, _ = fifty_message_span()
    frames = list(decode_span(span, shallow=True))
    assert len(frames) == 48                    # 47 plain + one wrapper
    assert [end for _, end in frames] == sorted({
        end for _, end in decode_span(span)})
    wrapper = frames[20][0]
    assert [p for p, _ in decode_span(zlib.decompress(wrapper))] == \
        [b"inner-a", b"", b"inner-c"]


# -- cost guards --------------------------------------------------------------

def test_span_consumption_builds_nothing_per_message_it_does_not_deliver():
    """Walking a 10 000-message span costs the caller the payload and
    the offset it is handed — two objects a message — and nothing else
    that outlives the step."""
    count = 10_000
    span = encode_payloads([b"m%07d" % i for i in range(count)])
    payloads, offsets = [None] * count, [None] * count
    index = 0
    before = sys.getallocatedblocks()
    for payload, next_offset in decode_span(span, 1 << 20):
        payloads[index] = payload
        offsets[index] = next_offset
        index += 1
    allocated = sys.getallocatedblocks() - before
    assert index == count
    assert allocated <= 2 * count + 50


def test_fetch_decodes_lazily_and_poll_keeps_three_objects_a_message():
    """``SimpleConsumer.fetch`` hands over the span, not a list built
    from it, and what ``MessageStream.poll`` returns is the payload,
    the offset and one slotted ``FetchedMessage`` per message."""
    from repro.common.clock import SimClock
    from repro.kafka import KafkaCluster, MessageStream, SimpleConsumer

    count = 10_000
    cluster = KafkaCluster(1, "kafka", clock=SimClock(),
                           partitions_per_topic=1)
    cluster.create_topic("t")
    cluster.broker_for("t", 0).produce("t", 0, MessageSet.from_payloads(
        [b"m%07d" % i for i in range(count)]))
    consumer = SimpleConsumer(cluster, fetch_max_bytes=1 << 20)

    before = sys.getallocatedblocks()
    span = consumer.fetch("t", 0, 0)
    assert sys.getallocatedblocks() - before < 50     # nothing decoded yet
    assert sum(1 for _ in span) == count

    stream = MessageStream(consumer, [("t", 0)], {("t", 0): 0})
    before = sys.getallocatedblocks()
    batch = stream.poll(max_messages=count)
    allocated = sys.getallocatedblocks() - before
    assert len(batch) == count
    assert allocated <= 3 * count + 100
    assert not hasattr(batch[0], "__dict__")
    cluster.shutdown()


def test_producer_built_set_answers_size_and_bytes_without_its_messages(
        monkeypatch):
    class Exploding:
        def __iter__(self):
            raise AssertionError("the message list was walked")

    payloads = [b"a" * 10, b"b" * 20, b"c" * 30]
    for message_set in (MessageSet.from_payloads(payloads),
                        MessageSet.from_payloads(payloads).deflated()):
        expected = message_set.encode()
        monkeypatch.setattr(MessageSet, "messages", Exploding())
        assert message_set.wire_size == len(expected)
        assert message_set.encode() is expected
        assert len(message_set) in (1, 3)
        monkeypatch.undo()
