"""Token codec for the input table (BASELINE.json input_hint).

Each input row is a pre-tokenized log line: ``tokens: list<int32>`` with
one token per UTF-8 byte of the raw line (trivially invertible). The
per-row invariant of the whole pipeline is that ``tokens`` flows from the
input to the routed sinks untouched (token-array equality).

Decoding is vectorized and (nearly) zero-copy: the list offsets of the
Arrow ``list<int32>`` column become the string offsets, and the int32
values are narrowed to a uint8 byte buffer in one Arrow cast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def encode_lines(lines: list[str]):
    """str -> list<int32> of UTF-8 bytes (synthesizer / test helper).

    Built in bounded chunks: a single ListArray's int32 offsets overflow
    once total payload exceeds 2^31 bytes (hit at ~16M realistic log
    lines), so large inputs return a ChunkedArray of safe chunks."""
    CHUNK = 2_000_000  # lines per chunk; ~bytes stays far under 2^31
    if len(lines) <= CHUNK:
        return _encode_chunk(lines)
    chunks = [
        _encode_chunk(lines[i : i + CHUNK]) for i in range(0, len(lines), CHUNK)
    ]
    return pa.chunked_array(chunks)


def _encode_chunk(lines: list[str]) -> pa.ListArray:
    payload = "".join(lines)
    data = np.frombuffer(payload.encode("utf-8"), dtype=np.uint8).astype(np.int32)
    lengths = np.fromiter(
        (len(s.encode("utf-8")) for s in lines), dtype=np.int64, count=len(lines)
    )
    total = int(lengths.sum())
    if total >= 1 << 31:
        raise ValueError("chunk exceeds int32 list-offset range")
    offsets = np.zeros(len(lines) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    return pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), pa.array(data, type=pa.int32())
    )


def one_array(col) -> pa.Array:
    """``col`` as one Array: a ChunkedArray's only chunk shared as it is
    (``combine_chunks`` copies even a single chunk), several chunks
    combined; an Array passes through."""
    if not isinstance(col, pa.ChunkedArray):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def decode_tokens(tokens: pa.Array) -> pa.Array:
    """list<int32> byte-tokens -> string array, vectorized.

    Reuses the list offsets directly as string offsets and casts the
    int32 token values to a uint8 data buffer — no per-row Python.
    """
    tokens = one_array(tokens)
    if isinstance(tokens, pa.LargeListArray):  # normalize
        tokens = tokens.cast(pa.list_(pa.int32()))
    # .offsets respects slicing; .values does not — slice values to the
    # window covered by the offsets, then rebase offsets to zero.
    off = tokens.offsets.to_numpy()
    start, end = int(off[0]), int(off[-1])
    values = tokens.values.slice(start, end - start)
    byte_values = values.cast(pa.uint8())
    rebased = (off - start).astype(np.int32)
    data_buf = byte_values.buffers()[1]
    if byte_values.offset != 0:
        data_buf = data_buf.slice(byte_values.offset)
    return pa.StringArray.from_buffers(
        length=len(tokens),
        value_offsets=pa.py_buffer(rebased.tobytes()),
        data=data_buf,
    )
