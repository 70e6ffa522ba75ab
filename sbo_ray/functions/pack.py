"""Sequence packing: the one statement of where a row's tokens land in
the packed stream.

Rows concatenate in ingestion order and the stream is cut every
``seq_len`` tokens. A row's stream offset is its chunk's exclusive base
(the tokens of every earlier chunk) plus its exclusive cumsum within
the chunk, so packing is a two-pass prefix sum:

- pass 1: each block emits bounded per-chunk token sums
  (``chunk_sums``); the caller sums them per chunk (``exchange.merge``
  or ``exchange.sum_refs``) and ``bases`` turns the totals into sorted
  chunk ids and exclusive bases, O(corpus / chunk_docs) ints broadcast
  once;
- pass 2: a partition holding whole chunks turns their rows' lengths,
  in stream order, into offsets (``offsets``), then the (row,
  sequence) spans each row's tokens cover (``spans``) and
  per-fragment checksums (``fragments``). Only the narrow keys (run,
  ingestion index, length) are ever sorted: ``fragments`` reads the
  token payload in place, in whatever order its rows arrived, and a
  row dropped before packing is a zero-length row.

A run of ``offsets`` is any key the rows sort by within a partition:
the chunk for one stream, or (source, chunk) when each source packs
as its own stream (the by-source op resets its bases per source).

Pure numpy/Arrow, no Ray. Callers: the query pack family (one head,
``queries._pack_shard``; one fragment combine, ``queries._pack_combine``;
one span wave for the two diagnostics, ``queries._span_combine``), the
doc-side packers (``dp_text._doc_chunk_bases``) and ``cli pack``'s one
per-shard writer (``cli._pack_partition``).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

CHUNK_SUMS = pa.schema([("chunk", pa.int64()), ("tok_sum", pa.int64())])


def chunk_sums(chunk: np.ndarray, n: np.ndarray) -> pa.Table:
    """Pass-1 partial: the total of ``n`` (tokens per row) per chunk id."""
    uk, inv = np.unique(chunk, return_inverse=True)
    return pa.table({
        "chunk": pa.array(uk, pa.int64()),
        "tok_sum": pa.array(np.bincount(inv, weights=n).astype(np.int64)),
    }, schema=CHUNK_SUMS)


def bases(sums: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Summed (chunk, tok_sum) rows, one per chunk, -> sorted chunk ids
    and their exclusive token bases (tokens before the chunk)."""
    g = sums.sort_by("chunk")
    tot = g.column("tok_sum").to_numpy(
        zero_copy_only=False).astype(np.int64)
    return (g.column("chunk").to_numpy(zero_copy_only=False).astype(np.int64),
            np.cumsum(tot) - tot)


def offsets(chunk: np.ndarray, n: np.ndarray, base) -> np.ndarray:
    """Global stream offset per row: the exclusive cumsum of ``n``
    within each run of equal ``chunk`` plus that chunk's base from
    ``base`` = (sorted chunk ids, exclusive bases). Rows must be in
    stream order, each chunk's rows contiguous."""
    cids, cbases = base
    csum = np.cumsum(n) - n
    new = np.ones(len(chunk), dtype=bool)
    new[1:] = chunk[1:] != chunk[:-1]
    first = np.maximum.accumulate(np.where(new, np.arange(len(chunk)), 0))
    return csum - csum[first] + cbases[np.searchsorted(cids, chunk)]


def spans(off: np.ndarray, n: np.ndarray, seq_len: int) -> tuple:
    """One entry per (row, sequence) the rows' tokens cover, rows in
    order: ``(row, seq_id, lo, hi)`` with ``[lo, hi)`` the fragment's
    token range within its row. Zero-token rows cover no sequence."""
    nz = np.flatnonzero(n > 0)
    first = off[nz] // seq_len
    k = (off[nz] + n[nz] - 1) // seq_len - first + 1
    row = np.repeat(nz, k)
    seq = (np.repeat(first, k) + np.arange(int(k.sum()), dtype=np.int64)
           - np.repeat(np.cumsum(k) - k, k))
    o = off[row]
    lo = np.maximum(seq * seq_len, o) - o
    hi = np.minimum((seq + 1) * seq_len, o + n[row]) - o
    return row, seq, lo, hi


def fragments(ids: pa.Table, vals: np.ndarray, toffs: np.ndarray,
              n: np.ndarray, off: np.ndarray, seq_len: int) -> pa.Table:
    """The packed fragments of rows whose tokens start at ``toffs`` in
    the flat ``vals`` (rebased to 0), with ``n`` tokens each and stream
    offsets ``off``: ``ids``' columns for each fragment's row, then
    ``seq_id``, ``n_frag_tokens`` and exact checksums (``frag_sum`` from
    one flat cumsum, ``first_tok``, ``last_tok``), rows in input order.

    A dropped row is a zero-length row: with ``n`` 0 it emits no
    fragment and adds nothing to the offsets, whatever tokens ``toffs``
    gives it. So callers read a payload in place and drop rows by their
    lengths, never by filtering the payload."""
    vals = vals.astype(np.int64, copy=False)
    row, seq, lo, hi = spans(off, n, seq_len)
    s = toffs[row] + lo
    e = toffs[row] + hi
    C = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(vals, out=C[1:])
    t = ids.take(pa.array(row))
    for name, col in (("seq_id", seq), ("n_frag_tokens", hi - lo),
                      ("frag_sum", C[e] - C[s]), ("first_tok", vals[s]),
                      ("last_tok", vals[e - 1])):
        t = t.append_column(name, pa.array(col, pa.int64()))
    return t
