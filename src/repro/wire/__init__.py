"""repro.wire — the typed message codec and canonical message layer.

One package owns everything about what goes over an edge: the bit-level
primitives (:mod:`~repro.wire.bits`), the per-network size constants
(:mod:`~repro.wire.format`), the arithmetic payload codecs
(:mod:`~repro.wire.values`), the tag registry / frame codec
(:mod:`~repro.wire.codec`) and the message classes themselves
(:mod:`~repro.wire.messages`).

See ``docs/wire-format.md`` for the bit layout of every frame.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bits": ("BitReader", "BitWriter", "uint_bits"),
    ".format": ("TYPE_TAG_BITS", "WireFormat", "int_bits"),
    ".values": (
        "WireValue",
        "read_fraction",
        "read_int",
        "value_bits",
        "write_value",
    ),
    ".codec": (
        "ID",
        "ROUND",
        "DISTANCE",
        "FLAG",
        "UINT",
        "SIGMA",
        "PSI",
        "Field",
        "register",
        "registered_types",
        "layout_bits",
        "encode_message",
        "decode_message",
        "encode_frame",
        "decode_frame",
        "CHECKSUM_BITS",
        "frame_checksum",
        "encode_frame_checked",
        "decode_frame_checked",
        "same_fields",
    ),
    ".messages": (
        "Message",
        "TokenMessage",
        "IntMessage",
        "PayloadMessage",
        "TreeWave",
        "TreeJoin",
        "SubtreeCount",
        "Announce",
        "DfsToken",
        "BfsWave",
        "DoneReport",
        "AggStart",
        "AggValue",
        "PROTOCOL_MESSAGES",
    ),
})
