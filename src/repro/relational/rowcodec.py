"""Binary row serialization for the slotted-page heap.

Rows are stored as a null bitmap followed by per-column encoded values.
The codec is schema-driven: both directions require the row's
:class:`~repro.relational.schema.TableSchema`, so no type tags are stored
per value (saving space, as the 1983-era systems did).

Wire format::

    [null bitmap: ceil(arity/8) bytes, LSB-first per column]
    then for each non-NULL column, in schema order:
      INT    -> varint (zig-zag)
      FLOAT  -> 8 bytes IEEE-754 big-endian
      TEXT   -> varint length + UTF-8 bytes
      BOOL   -> 1 byte (0/1)
      DATE   -> varint ordinal (days since 0001-01-01)
"""

from __future__ import annotations

import datetime
import struct
from typing import Any, Callable, List, Sequence, Tuple

from repro.errors import StorageError
from repro.relational.schema import TableSchema
from repro.relational.types import ColumnType


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if n < 0 else (n << 1)


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to *out*."""
    if value < 0:
        raise StorageError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint from *buf* at *pos*; return (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise StorageError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise StorageError("varint too long")


def encode_row(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Serialize a validated row tuple to bytes."""
    arity = schema.arity
    if len(row) != arity:
        raise StorageError(
            f"row arity {len(row)} != schema arity {arity} for {schema.name!r}"
        )
    bitmap = bytearray((arity + 7) // 8)
    body = bytearray()
    for i, (col, value) in enumerate(zip(schema.columns, row)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
            continue
        ctype = col.ctype
        if ctype is ColumnType.INT:
            write_varint(body, _zigzag(value))
        elif ctype is ColumnType.FLOAT:
            body += struct.pack(">d", value)
        elif ctype is ColumnType.TEXT:
            raw = value.encode("utf-8")
            write_varint(body, len(raw))
            body += raw
        elif ctype is ColumnType.BOOL:
            body.append(1 if value else 0)
        elif ctype is ColumnType.DATE:
            write_varint(body, value.toordinal())
        else:  # pragma: no cover - exhaustive over ColumnType
            raise StorageError(f"cannot encode type {ctype}")
    return bytes(bitmap) + bytes(body)


def decode_row(schema: TableSchema, data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_row`."""
    arity = schema.arity
    bitmap_len = (arity + 7) // 8
    if len(data) < bitmap_len:
        raise StorageError("row record shorter than its null bitmap")
    pos = bitmap_len
    values: List[Any] = []
    for i, col in enumerate(schema.columns):
        if data[i // 8] & (1 << (i % 8)):
            values.append(None)
            continue
        ctype = col.ctype
        if ctype is ColumnType.INT:
            z, pos = read_varint(data, pos)
            values.append(_unzigzag(z))
        elif ctype is ColumnType.FLOAT:
            if pos + 8 > len(data):
                raise StorageError("truncated FLOAT value")
            values.append(struct.unpack_from(">d", data, pos)[0])
            pos += 8
        elif ctype is ColumnType.TEXT:
            length, pos = read_varint(data, pos)
            if pos + length > len(data):
                raise StorageError("truncated TEXT value")
            values.append(data[pos : pos + length].decode("utf-8"))
            pos += length
        elif ctype is ColumnType.BOOL:
            if pos >= len(data):
                raise StorageError("truncated BOOL value")
            values.append(bool(data[pos]))
            pos += 1
        elif ctype is ColumnType.DATE:
            ordinal, pos = read_varint(data, pos)
            values.append(datetime.date.fromordinal(ordinal))
        else:  # pragma: no cover
            raise StorageError(f"cannot decode type {ctype}")
    if pos != len(data):
        raise StorageError(
            f"trailing bytes after row record ({len(data) - pos} extra)"
        )
    return tuple(values)


# ---------------------------------------------------------------------------
# Batch decoding
# ---------------------------------------------------------------------------
# The batch executor decodes whole pages at a time: one shared buffer plus
# (start, end) spans per record, instead of one bytes copy + decode_row
# call per record.  The schema is fixed for the lifetime of a table, so the
# decoder is specialised: one generated function per schema with the
# column dispatch unrolled, the varint reads inlined (INT, TEXT, and DATE
# all start with one), and the null-bitmap bytes loaded once.  Same wire
# format, same error messages — just no per-column interpretation.  The
# generated source for a (INT, TEXT) schema looks like::
#
#     def _decode(buf, start, end):
#         pos = start + 1
#         bm0 = buf[start]
#         if bm0 & 1:
#             v0 = None
#         else:
#             <inlined varint>; v0 = (value >> 1) ^ -(value & 1)
#         ...
#         return (v0, v1)

_unpack_double_from = struct.Struct(">d").unpack_from
_date_fromordinal = datetime.date.fromordinal


def _codec_ctypes(schema: TableSchema) -> Tuple[ColumnType, ...]:
    ctypes = getattr(schema, "_codec_ctypes", None)
    if ctypes is None:
        ctypes = tuple(col.ctype for col in schema.columns)
        schema._codec_ctypes = ctypes
    return ctypes


_VARINT_TEMPLATE = """\
        value = 0
        shift = 0
        while True:
            if pos >= end:
                raise _err("truncated varint")
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise _err("varint too long")
"""

_FIELD_TEMPLATES = {
    ColumnType.INT: _VARINT_TEMPLATE + """\
        v{i} = (value >> 1) ^ -(value & 1)
""",
    ColumnType.TEXT: _VARINT_TEMPLATE + """\
        npos = pos + value
        if npos > end:
            raise _err("truncated TEXT value")
        v{i} = buf[pos:npos].decode("utf-8")
        pos = npos
""",
    ColumnType.DATE: _VARINT_TEMPLATE + """\
        v{i} = _fromordinal(value)
""",
    ColumnType.FLOAT: """\
        if pos + 8 > end:
            raise _err("truncated FLOAT value")
        v{i} = _unpack(buf, pos)[0]
        pos += 8
""",
    ColumnType.BOOL: """\
        if pos >= end:
            raise _err("truncated BOOL value")
        v{i} = buf[pos] != 0
        pos += 1
""",
}


def _generate_decoder(ctypes: Tuple[ColumnType, ...]) -> Callable[[bytes, int, int], Tuple[Any, ...]]:
    arity = len(ctypes)
    bitmap_len = (arity + 7) // 8
    lines = [
        "def _decode(buf, start, end):",
        f"    if end - start < {bitmap_len}:",
        '        raise _err("row record shorter than its null bitmap")',
        f"    pos = start + {bitmap_len}",
    ]
    for byte_no in range(bitmap_len):
        offset = f" + {byte_no}" if byte_no else ""
        lines.append(f"    bm{byte_no} = buf[start{offset}]")
    for i, ctype in enumerate(ctypes):
        lines.append(f"    if bm{i >> 3} & {1 << (i & 7)}:")
        lines.append(f"        v{i} = None")
        lines.append("    else:")
        lines.append(_FIELD_TEMPLATES[ctype].format(i=i).rstrip("\n"))
    lines.append("    if pos != end:")
    lines.append(
        '        raise _err(f"trailing bytes after row record ({end - pos} extra)")'
    )
    lines.append("    return (" + "".join(f"v{i}, " for i in range(arity)) + ")")
    source = "\n".join(lines) + "\n"
    namespace = {
        "_err": StorageError,
        "_unpack": _unpack_double_from,
        "_fromordinal": _date_fromordinal,
    }
    exec(compile(source, "<rowcodec>", "exec"), namespace)
    fn = namespace["_decode"]
    fn.__source__ = source  # debugging aid
    return fn


def span_decoder(schema: TableSchema) -> Callable[[bytes, int, int], Tuple[Any, ...]]:
    """The compiled ``decode(buf, start, end)`` function for *schema*.

    Generated on first use and cached on the schema object (schemas are
    immutable once a table exists; ALTER TABLE builds a new schema).
    """
    decoder = getattr(schema, "_codec_decoder", None)
    if decoder is None:
        decoder = _generate_decoder(_codec_ctypes(schema))
        schema._codec_decoder = decoder
    return decoder
