"""Message kinds and realistic wire sizes.

Every frame the fabric charges has a kind and a byte size, so the energy
model and bandwidth counters reflect what a MANET radio would actually
move. Vector payloads dominate: 8 bytes per float64 coordinate plus a fixed header.
"""

from __future__ import annotations

import enum

#: Fixed per-message header: ids, lengths, checksums (bytes).
HEADER_BYTES = 32
#: Bytes per vector coordinate (float64 on the wire).
BYTES_PER_COORD = 8
#: Bytes for scalar metadata fields (radius, count, …).
BYTES_PER_SCALAR = 8


class MessageKind(enum.Enum):
    """What a message is for — drives per-operation accounting."""

    JOIN = "join"
    INSERT = "insert"
    REPLICATE = "replicate"
    PUBLISH_DELTA = "publish_delta"
    LOOKUP = "lookup"
    RANGE_QUERY = "range_query"
    RESPONSE = "response"
    RETRIEVE = "retrieve"
    DATA = "data"


def vector_message_size(
    dimensionality: int, *, scalars: int = 0, header: int = HEADER_BYTES
) -> int:
    """Wire size of a message carrying one vector plus ``scalars`` metadata."""
    if dimensionality < 0 or scalars < 0:
        raise ValueError("dimensionality and scalars must be >= 0")
    return header + dimensionality * BYTES_PER_COORD + scalars * BYTES_PER_SCALAR
