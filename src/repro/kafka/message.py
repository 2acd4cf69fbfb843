"""Kafka message framing and compression (§V.A, §V.B).

"A message is defined to contain just a payload of bytes."  On the
wire and on disk each message is

    [length : 4B][crc32 : 4B][attributes : 1B][payload]

where ``length`` counts attributes + payload and the CRC covers the
same bytes.  A *message set* is a concatenation of framed messages;
producers send sets ("the producer can send a set of messages in a
single publish request") and the broker appends the set verbatim —
which is what makes the produce path cheap.

**The span path.**  The unit every layer hands to the next is the
framed byte span, never a list of message objects:

* :func:`encode_payloads` is the one framing loop.  A producer batch of
  payloads is framed once into one ``bytes``; the :class:`MessageSet`
  built around it answers ``wire_size`` with a ``len()`` and
  ``encode()`` by returning it, and the broker and the partition log
  pass those same bytes down to the disk write.
* :func:`decode_span` is the one frame walk.  It reads each header with
  ``unpack_from``, slices the payload out of the fetched range — the
  only copy, and the object the application receives — and checks the
  CRC over that copy, seeded with the CRC of the attributes byte so no
  ``attributes + payload`` body is ever rebuilt.  It yields
  ``(payload, next_offset)`` and nothing else per message.

:class:`Message`, :class:`MessageAndOffset` and :func:`iter_messages`
are the object view of the same bytes, for callers that want one; the
produce and consume hot paths do not go through them.

Compression (§V.B): "each producer can compress a set of messages and
send it to the broker.  The compressed data is stored in the broker and
is eventually delivered to the consumer, where it is uncompressed."  A
compressed set is one wrapper message whose attributes mark gzip and
whose payload is the deflated inner message set.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

from repro.common.errors import ChecksumError, SerializationError

_HEADER = struct.Struct("<IIB")   # length, crc, attributes
_LENGTH = struct.Struct("<I")     # the header's first field alone
ATTR_NONE = 0x00
ATTR_GZIP = 0x01
FRAME_OVERHEAD = _HEADER.size
_LENGTH_PREFIX = FRAME_OVERHEAD - 1   # bytes before what ``length`` counts
# the frame CRC covers attributes + payload; starting the payload's CRC
# from the attributes byte's gives the same value without joining them
_ATTR_CRC = tuple(zlib.crc32(bytes((a,))) for a in range(256))


def encode_payloads(payloads: Iterable[bytes],
                    attributes: int = ATTR_NONE) -> bytes:
    """Frame ``payloads`` back-to-back: the one encoding loop."""
    pack = _HEADER.pack
    crc32 = zlib.crc32
    seed = _ATTR_CRC[attributes]
    parts: list[bytes] = []
    append = parts.append
    for payload in payloads:
        append(pack(len(payload) + 1, crc32(payload, seed), attributes))
        append(payload)
    return b"".join(parts)


def decode_span(data: bytes, base_offset: int = 0,
                shallow: bool = False) -> Iterator[tuple[bytes, int]]:
    """Walk a fetched byte range: ``(payload, next_offset)`` per message.

    Stops silently at a trailing partial frame (fetches read fixed byte
    ranges, so the tail may be cut mid-message — the consumer just
    re-fetches from the last complete offset).  Raises
    :class:`ChecksumError` on CRC mismatch of a complete frame.

    Compressed wrapper messages are expanded transparently; every
    message produced from one wrapper shares the wrapper's
    ``next_offset`` (the consumer can only checkpoint at wrapper
    granularity, exactly like early Kafka), so a reader that stops
    early must stop where ``next_offset`` changes.  With ``shallow`` a
    wrapper is yielded as the one stored message it is, still deflated:
    what recovery and byte-offset bookkeeping want.
    """
    # every name the loop reads is a local: it runs once per message
    unpack_from = _HEADER.unpack_from
    crc32 = zlib.crc32
    attr_crc = _ATTR_CRC
    overhead = FRAME_OVERHEAD
    prefix = _LENGTH_PREFIX
    expand = 0 if shallow else ATTR_GZIP
    position = 0
    total = len(data)
    last_header = total - overhead
    while position <= last_header:
        length, crc, attributes = unpack_from(data, position)
        if length < 1:
            raise SerializationError(f"invalid frame length {length}")
        end = position + prefix + length
        if end > total:
            return
        payload = data[position + overhead:end]
        if crc32(payload, attr_crc[attributes]) != crc:
            raise ChecksumError(
                f"corrupt message at offset {base_offset + position}")
        position = end
        if attributes & expand:
            for inner, _ in decode_span(zlib.decompress(payload)):
                yield inner, base_offset + end
        else:
            yield payload, base_offset + end


def frame_size(data: bytes) -> int:
    """Bytes the frame at the start of ``data`` occupies, header
    included — what a reader must fetch to get past a frame that a
    byte window cut; ``FRAME_OVERHEAD`` while even its length is cut."""
    if len(data) < _LENGTH.size:
        return FRAME_OVERHEAD
    return _LENGTH_PREFIX + _LENGTH.unpack_from(data)[0]


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable payload (plus compression attribute)."""

    payload: bytes
    attributes: int = ATTR_NONE

    def encode(self) -> bytes:
        return encode_payloads((self.payload,), self.attributes)

    @property
    def wire_size(self) -> int:
        return FRAME_OVERHEAD + len(self.payload)


@dataclass(frozen=True, slots=True)
class MessageAndOffset:
    """A decoded message plus the offset of the *next* message —
    what a consumer checkpoints after processing this one."""

    message: Message
    next_offset: int


class MessageSet:
    """A batch of messages framed back-to-back, held as that byte span."""

    __slots__ = ("_span", "_count")

    def __init__(self, messages: list[Message] | None = None):
        messages = list(messages or [])
        self._count = len(messages)
        self._span = b"".join(
            encode_payloads(map(attrgetter("payload"), run), attributes)
            for attributes, run in groupby(messages,
                                           attrgetter("attributes")))

    @classmethod
    def _of_span(cls, span: bytes, count: int) -> "MessageSet":
        message_set = cls.__new__(cls)
        message_set._span = span
        message_set._count = count
        return message_set

    @classmethod
    def from_payloads(cls, payloads: list[bytes]) -> "MessageSet":
        """Frame a batch of payloads in one pass (the producer path)."""
        return cls._of_span(encode_payloads(payloads), len(payloads))

    @classmethod
    def compressed(cls, messages: list[Message], level: int = 6) -> "MessageSet":
        """Wrap ``messages`` into a single gzip wrapper message."""
        return cls(messages).deflated(level)

    def deflated(self, level: int = 6) -> "MessageSet":
        """This set as a single gzip wrapper message."""
        wrapper = encode_payloads((zlib.compress(self._span, level),),
                                  ATTR_GZIP)
        return self._of_span(wrapper, 1)

    @property
    def messages(self) -> list[Message]:
        """The stored messages as objects, decoded from the span."""
        span = self._span
        return [Message(payload, span[end - len(payload) - 1])
                for payload, end in decode_span(span, shallow=True)]

    def encode(self) -> bytes:
        return self._span

    @property
    def wire_size(self) -> int:
        return len(self._span)

    def __len__(self) -> int:
        return self._count


def iter_messages(data: bytes, base_offset: int = 0
                  ) -> Iterator[MessageAndOffset]:
    """:func:`decode_span` as :class:`MessageAndOffset` objects."""
    for payload, next_offset in decode_span(data, base_offset):
        yield MessageAndOffset(Message(payload), next_offset)
