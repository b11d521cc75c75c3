"""The typed message codec: tag registry, layouts, frames.

Every concrete protocol message declares a ``WIRE_LAYOUT`` — an ordered
tuple of ``(attribute name, field kind)`` pairs — and registers a 4-bit
type tag via :func:`register`.  The layout is the single source of
truth for the message's bit cost, its encoder and its decoder: a frame
is the type tag followed by the layout's fields in order, every field
either fixed-width (resolved against the :class:`~repro.wire.format.
WireFormat`) or self-delimiting, so concatenated frames need no
padding or out-of-band lengths.

Field kinds
-----------
========== ==========================================================
``ID``      a node identifier, ``wire.id_bits`` bits
``ROUND``   a round stamp, ``wire.round_bits`` bits
``DISTANCE`` a hop distance / diameter, ``wire.distance_bits`` bits
``FLAG``    one bit
``UINT``    an unbounded count, self-delimiting varint
``SIGMA``   a shortest-path count in the run's arithmetic
``PSI``     a dependency value in the run's arithmetic
========== ==========================================================

``SIGMA`` and ``PSI`` widths are type-driven (varints for exact ints
and rationals, ``2L + 1`` bits for L-floats); *decoding* them needs an
arithmetic context to know which representation — and which directed
rounding semantics — the bits carry.

The registry holds at most ``2**TYPE_TAG_BITS`` message types.  Message
classes without a tag can still be *sized* (their ``payload_bits`` is
honest) but cannot appear in an encoded frame, which the simulator's
frame audit turns into a hard error rather than a silent estimate.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import FrameChecksumError, WireCodecError
from repro.wire.bits import BitReader, BitWriter, uint_bits
from repro.wire.format import TYPE_TAG_BITS, WireFormat
from repro.wire.values import value_bits, write_value

#: Field kinds for ``WIRE_LAYOUT`` declarations (identity-compared).
ID = "id"
ROUND = "round"
DISTANCE = "distance"
FLAG = "flag"
UINT = "uint"
SIGMA = "sigma"
PSI = "psi"

#: One ``WIRE_LAYOUT`` entry.
Field = Tuple[str, str]

#: tag -> registered message class (populated by :func:`register`).
_BY_TAG: Dict[int, type] = {}

#: The modules whose import registers the built-in tags.  Package
#: imports are lazy, so a process may decode a frame (say, a trace read
#: from disk) before anything has imported the class that wrote it.
_BUILTIN_MESSAGE_MODULES = ("repro.wire.messages", "repro.congest.primitives")


def _load_builtin_messages() -> None:
    for name in _BUILTIN_MESSAGE_MODULES:
        importlib.import_module(name)


def register(tag: int):
    """Class decorator assigning a stable 4-bit wire tag.

    Tags are part of the wire format (documented in
    ``docs/wire-format.md``); re-using one or running past the 4-bit
    space is a hard error, not a silent reassignment.
    """

    def decorate(cls: type) -> type:
        if not 0 <= tag < (1 << TYPE_TAG_BITS):
            raise WireCodecError(
                "wire tag {} outside the {}-bit tag space".format(
                    tag, TYPE_TAG_BITS
                )
            )
        claimed = _BY_TAG.get(tag)
        if claimed is not None and claimed is not cls:
            raise WireCodecError(
                "wire tag {} already registered to {}".format(
                    tag, claimed.__name__
                )
            )
        cls.wire_tag = tag
        _BY_TAG[tag] = cls
        return cls

    return decorate


def registered_types() -> Dict[int, type]:
    """A copy of the tag registry (tag -> message class)."""
    _load_builtin_messages()
    return dict(_BY_TAG)


def layout_bits(message: Any, wire: WireFormat) -> int:
    """Payload width implied by the message's ``WIRE_LAYOUT``."""
    layout = type(message).WIRE_LAYOUT
    if layout is None:
        raise WireCodecError(
            "{} declares no WIRE_LAYOUT".format(type(message).__name__)
        )
    total = 0
    for name, kind in layout:
        if kind is ID:
            total += wire.id_bits
        elif kind is ROUND:
            total += wire.round_bits
        elif kind is DISTANCE:
            total += wire.distance_bits
        elif kind is FLAG:
            total += 1
        elif kind is UINT:
            total += uint_bits(getattr(message, name))
        elif kind is SIGMA or kind is PSI:
            total += value_bits(getattr(message, name))
        else:
            raise WireCodecError("unknown field kind {!r}".format(kind))
    return total


def encode_message(message: Any, wire: WireFormat, writer: BitWriter) -> None:
    """Append one message frame (type tag + layout fields) to ``writer``."""
    cls = type(message)
    tag = cls.wire_tag
    if tag is None:
        raise WireCodecError(
            "{} has no registered wire tag".format(cls.__name__)
        )
    writer.write(tag, TYPE_TAG_BITS)
    layout = cls.WIRE_LAYOUT
    if layout is None:
        # Opaque payloads (PayloadMessage) write their declared width.
        message._encode_payload(writer, wire)
        return
    for name, kind in layout:
        value = getattr(message, name)
        if kind is ID:
            writer.write(value, wire.id_bits)
        elif kind is ROUND:
            writer.write(value, wire.round_bits)
        elif kind is DISTANCE:
            writer.write(value, wire.distance_bits)
        elif kind is FLAG:
            writer.write(1 if value else 0, 1)
        elif kind is UINT:
            writer.write_uint(value)
        elif kind is SIGMA or kind is PSI:
            write_value(writer, value)
        else:
            raise WireCodecError("unknown field kind {!r}".format(kind))


def decode_message(reader: BitReader, wire: WireFormat, arith=None) -> Any:
    """Decode one message frame; inverse of :func:`encode_message`.

    ``arith`` (an :class:`~repro.arithmetic.context.ArithmeticContext`)
    is required for messages carrying ``SIGMA`` / ``PSI`` fields.
    """
    tag = reader.read(TYPE_TAG_BITS)
    cls = _BY_TAG.get(tag)
    if cls is None:
        _load_builtin_messages()
        cls = _BY_TAG.get(tag)
    if cls is None:
        raise WireCodecError("unknown wire tag {}".format(tag))
    layout = cls.WIRE_LAYOUT
    if layout is None:
        raise WireCodecError(
            "{} carries an opaque payload and cannot be decoded".format(
                cls.__name__
            )
        )
    args: List[Any] = []
    for _name, kind in layout:
        if kind is ID:
            args.append(reader.read(wire.id_bits))
        elif kind is ROUND:
            args.append(reader.read(wire.round_bits))
        elif kind is DISTANCE:
            args.append(reader.read(wire.distance_bits))
        elif kind is FLAG:
            args.append(bool(reader.read(1)))
        elif kind is UINT:
            args.append(reader.read_uint())
        elif kind is SIGMA:
            if arith is None:
                raise WireCodecError(
                    "decoding {} needs an arithmetic context".format(
                        cls.__name__
                    )
                )
            args.append(arith.read_sigma(reader))
        elif kind is PSI:
            if arith is None:
                raise WireCodecError(
                    "decoding {} needs an arithmetic context".format(
                        cls.__name__
                    )
                )
            args.append(arith.read_psi(reader))
        else:
            raise WireCodecError("unknown field kind {!r}".format(kind))
    return cls(*args)


def encode_frame(messages, wire: WireFormat) -> Tuple[int, int]:
    """Coalesce messages into one per-edge frame: ``(word, bit_length)``.

    The frame is the concatenation of the individual message frames, so
    its length is exactly the sum of the messages'
    :meth:`~repro.wire.messages.Message.bit_size` — the identity the
    simulator's frame audit enforces.
    """
    writer = BitWriter()
    for message in messages:
        encode_message(message, wire, writer)
    return writer.getvalue()


def decode_frame(
    word: int, bit_length: int, wire: WireFormat, arith=None
) -> List[Any]:
    """Decode a coalesced frame back into its message sequence."""
    reader = BitReader(word, bit_length)
    out: List[Any] = []
    while reader.remaining:
        out.append(decode_message(reader, wire, arith))
    return out


# ----------------------------------------------------------------------
# checked frames: CRC-8 protected encode/decode (the fault model's
# corruption-rejecting receive path)
# ----------------------------------------------------------------------
#: Width of the frame checksum field.
CHECKSUM_BITS = 8

#: CRC-8/ATM generator polynomial x^8 + x^2 + x + 1 (0x07) — detects
#: every single-bit error and every burst up to 8 bits, which covers
#: the fault injector's default single-bit flips with certainty.
_CRC8_POLY = 0x07


def _crc8_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ _CRC8_POLY) & 0xFF if crc & 0x80 else crc << 1
        table.append(crc)
    return table


_CRC8_TABLE = _crc8_table()


def frame_checksum(word: int, bit_length: int) -> int:
    """CRC-8 of a ``(word, bit_length)`` bit string.

    The bit string is right-padded with zeros to a whole number of
    bytes and prefixed with its bit length (as one varint byte stream)
    so that frames differing only in trailing zero-padding hash
    differently.
    """
    if bit_length < 0 or word < 0 or word >> bit_length:
        raise WireCodecError(
            "word does not fit in the declared {} bits".format(bit_length)
        )
    num_bytes = (bit_length + 7) // 8
    padded = word << (num_bytes * 8 - bit_length)
    data = bit_length.to_bytes(4, "big") + padded.to_bytes(num_bytes, "big")
    crc = 0
    table = _CRC8_TABLE
    for byte in data:
        crc = table[crc ^ byte]
    return crc


def encode_frame_checked(messages, wire: WireFormat) -> Tuple[int, int]:
    """Like :func:`encode_frame`, with a trailing CRC-8 checksum field.

    The checksum models the link-layer frame check sequence of a real
    network stack: it rides *outside* the CONGEST bit accounting (a
    constant per physical frame, like preamble bits), so enabling
    checked frames does not change any billed size — which is what
    keeps zero-fault runs bit-identical to unchecked ones.
    """
    word, bits = encode_frame(messages, wire)
    return (word << CHECKSUM_BITS) | frame_checksum(word, bits), (
        bits + CHECKSUM_BITS
    )


def decode_frame_checked(
    word: int, bit_length: int, wire: WireFormat, arith=None
) -> List[Any]:
    """Verify the trailing CRC-8, then decode the payload frame.

    Verification happens *before* any parsing — a corrupted frame is
    rejected with :class:`~repro.exceptions.FrameChecksumError` without
    ever interpreting its (possibly malformed) contents.
    """
    if bit_length < CHECKSUM_BITS:
        raise WireCodecError(
            "checked frame of {} bits is shorter than its {}-bit "
            "checksum".format(bit_length, CHECKSUM_BITS)
        )
    payload_bits = bit_length - CHECKSUM_BITS
    actual = word & ((1 << CHECKSUM_BITS) - 1)
    payload = word >> CHECKSUM_BITS
    expected = frame_checksum(payload, payload_bits)
    if actual != expected:
        raise FrameChecksumError(expected, actual)
    return decode_frame(payload, payload_bits, wire, arith)


def same_fields(a: Any, b: Any) -> bool:
    """Layout-wise equality of two messages (used by round-trip tests)."""
    if type(a) is not type(b):
        return False
    layout: Optional[Tuple[Field, ...]] = type(a).WIRE_LAYOUT
    if layout is None:
        return False
    return all(getattr(a, name) == getattr(b, name) for name, _kind in layout)
