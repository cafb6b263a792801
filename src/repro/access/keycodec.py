"""Order-preserving key encoding.

B+-trees and the extendible hash index store keys as byte strings; this
module guarantees that ``encode_key(a) < encode_key(b)`` (bytewise) exactly
when ``a < b`` under SQL ordering (NULL first, then typed comparison).
That lets index nodes compare keys with plain ``bytes`` comparison and keeps
composite keys (tuples) correctly ordered component-wise.

Encoding per component (1 tag byte + body):

- ``0x00`` NULL (no body)
- ``0x01`` BOOL: one byte
- ``0x02`` NUMBER (int within float-safe range, and float): 8-byte
  sortable-double transform; ints beyond 2^53 use tag ``0x03`` with
  offset-binary i64 placed *after* numbers is avoided by normalising all
  ints to the i64 encoding and floats to the double encoding under a single
  numeric tag — see below.
- ``0x04`` TEXT: UTF-8 with ``0x00`` escaped as ``0x00 0xFF`` and terminated
  by ``0x00 0x00`` (so prefixes order correctly).
- ``0x05`` BYTES: same escaping as TEXT.

Numbers: SQL compares ints and floats in one domain.  We encode every
number as the IEEE-754 sortable transform of ``float(value)``, with the
original i64 appended for exactness when the value is an integer outside
the 2^53-exact range; the float prefix provides ordering, the suffix
disambiguates equal prefixes.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

from repro.errors import RecordCodecError

_TAG_NULL = b"\x00"
_TAG_BOOL = b"\x01"
_TAG_NUM = b"\x02"
_TAG_TEXT = b"\x04"
_TAG_BYTES = b"\x05"

_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")


def _sortable_double(value: float) -> bytes:
    """IEEE-754 double → 8 bytes whose bytewise order matches numeric order."""
    (bits,) = _U64.unpack(_F64.pack(value))
    if bits & 0x8000000000000000:
        bits ^= 0xFFFFFFFFFFFFFFFF  # negative: flip all bits
    else:
        bits ^= 0x8000000000000000  # positive: flip sign bit
    return _U64.pack(bits)


def _unsortable_double(data: bytes) -> float:
    (bits,) = _U64.unpack(data)
    if bits & 0x8000000000000000:
        bits ^= 0x8000000000000000
    else:
        bits ^= 0xFFFFFFFFFFFFFFFF
    return _F64.unpack(_U64.pack(bits))[0]


def _escape(raw: bytes) -> bytes:
    return raw.replace(b"\x00", b"\x00\xFF") + b"\x00\x00"


def _unescape(data: bytes, pos: int) -> tuple[bytes, int]:
    out = bytearray()
    while True:
        idx = data.index(b"\x00", pos)
        nxt = data[idx + 1]
        out += data[pos:idx]
        if nxt == 0xFF:
            out += b"\x00"
            pos = idx + 2
        elif nxt == 0x00:
            return bytes(out), idx + 2
        else:
            raise RecordCodecError("bad escape in key encoding")


def encode_component(value: Any) -> bytes:
    """Encode a single key component."""
    if value is None:
        return _TAG_NULL
    if isinstance(value, bool):
        return _TAG_BOOL + (b"\x01" if value else b"\x00")
    if isinstance(value, (int, float)):
        as_float = float(value)
        if as_float == 0.0:
            # Collapse -0.0: it compares equal to 0.0/0 in SQL, but its
            # sign-flipped IEEE image would sort below the positive zero.
            as_float = 0.0
        body = _sortable_double(as_float)
        if isinstance(value, int):
            # Exact i64 suffix breaks ties among ints sharing a float image.
            try:
                body += _sortable_i64(value)
            except struct.error:
                raise RecordCodecError(
                    f"integer key {value} out of 64-bit range") from None
        else:
            body += _sortable_i64(_float_rank_suffix(as_float))
        return _TAG_NUM + body
    if isinstance(value, str):
        return _TAG_TEXT + _escape(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _TAG_BYTES + _escape(bytes(value))
    raise RecordCodecError(
        f"unsupported key component type {type(value).__name__}")


def _sortable_i64(value: int) -> bytes:
    return _U64.pack((value + (1 << 63)) & 0xFFFFFFFFFFFFFFFF)


def _float_rank_suffix(value: float) -> int:
    """Suffix for floats so that a float and an equal-valued int compare
    equal-ish but deterministically: use the integer part when exact."""
    if value == int(value) and abs(value) < (1 << 62):
        return int(value)
    return 0


def encode_key(values: Any) -> bytes:
    """Encode a key (scalar or tuple of scalars) order-preservingly."""
    if not isinstance(values, tuple):
        return encode_component(values)
    if len(values) == 1:
        return encode_component(values[0])
    return b"".join(encode_component(v) for v in values)


def decode_key(data: bytes, arity: int = 1) -> Any:
    """Inverse of :func:`encode_key`; returns a scalar when ``arity == 1``.

    Numeric components decode to ``int`` when the exact suffix matches the
    float image, else ``float``.
    """
    values: list[Any] = []
    pos = 0
    while pos < len(data):
        tag = data[pos:pos + 1]
        pos += 1
        if tag == _TAG_NULL:
            values.append(None)
        elif tag == _TAG_BOOL:
            values.append(data[pos] != 0)
            pos += 1
        elif tag == _TAG_NUM:
            as_float = _unsortable_double(data[pos:pos + 8])
            (raw_suffix,) = _U64.unpack(data[pos + 8:pos + 16])
            suffix = raw_suffix - (1 << 63)
            pos += 16
            if float(suffix) == as_float and as_float == int(as_float):
                values.append(suffix)
            else:
                values.append(as_float)
        elif tag in (_TAG_TEXT, _TAG_BYTES):
            raw, pos = _unescape(data, pos)
            values.append(raw.decode("utf-8") if tag == _TAG_TEXT else raw)
        else:
            raise RecordCodecError(f"bad key tag {tag!r}")
    if arity == 1 and len(values) == 1:
        return values[0]
    return tuple(values)


def sql_key(values: Iterable[Any]) -> bytes:
    """Convenience: encode an iterable of components as a composite key."""
    return b"".join(encode_component(v) for v in values)
