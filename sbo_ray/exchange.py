"""Raw-task hash exchange plumbing, shared by every shard -> combine op.

Ray Data's sort/groupby sizes post-shuffle blocks by bytes, so stages
that are compute-heavy per byte (packing, dedup, compat replay, label
propagation) run their exchange as plain Ray tasks instead. This module
owns the parts of that layout that every site used to re-solve:

- ``block_refs(ds)``: the Dataset's non-empty block refs (an empty
  parquet read yields a schemaless block that poisons downstream
  concats, so zero-row blocks drop by bundle metadata);
  ``sized_block_refs`` also sums their rows.
- ``split(part, P, *cols)``: one stable argsort by partition id, then
  contiguous slices of tables or numpy arrays (``table_shard`` is the
  whole-row form keyed by the Fibonacci hash of one int64 column).
- ``shard`` / ``combine``: launch one wave of tasks and return a
  partition-major ref matrix, so multi-wave and two-sided exchanges
  compose; Ray's ``num_returns=1`` bare-ref convention is handled here.
- ``combine(..., out_schema=...)``: zero-row table inputs are dropped
  inside the task, and a partition left with none returns
  ``out_schema.empty_table()`` without calling the site's function.
- ``fold(ds, partial, schema)``: the bounded per-block partial ->
  driver concat, seeded with a typed empty table (an empty Dataset
  yields zero batches) and skipping ``partial`` on empty blocks;
  ``collect`` is the same concat without the map, ``gather`` the same
  for combine-task refs.

Each site keeps its own partition function; P is read at call time
through ``n_parts()`` (patch it to force a partition count).
"""
from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from .pipelines.logpipe import _cpus


def n_parts() -> int:
    """Hash-partition count for the partition-grouped pattern: Ray's
    ``groupby().map_groups`` pays ~60us of per-group pandas overhead, so
    grouping millions of tiny buckets (LSH bands, users) directly is
    minutes of pure overhead. Instead group by ``key_hash % P`` and do
    the real (vectorized) grouping inside each partition — same rows
    shuffled, P pandas calls instead of millions. Partitioning
    assumption: one hash partition fits in a worker; raise P for bigger
    inputs."""
    return max(16, _cpus() * 4)


def groupby_parts() -> int:
    """Partition count of the log ops' ``groupby("part")`` layout: one
    partition per cpu, at least 4."""
    return max(4, int(ray.cluster_resources().get("CPU", 4)))


def fib_partition(x: np.ndarray, P: int) -> np.ndarray:
    """int64 keys -> partition ids via a Fibonacci mixing hash (plain
    ``x % P`` would correlate with any stride structure in the ids)."""
    h = x.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)


def sized_block_refs(ds: rd.Dataset) -> tuple[list, int]:
    """The Dataset's non-empty block refs (one execution) and their
    total row count, both from bundle metadata."""
    blocks = [(r, md.num_rows) for b in ds.iter_internal_ref_bundles()
              for r, md in b.blocks if md.num_rows != 0]
    return [r for r, _ in blocks], sum(n or 0 for _, n in blocks)


def block_refs(ds: rd.Dataset) -> list:
    """The Dataset's non-empty block refs (one execution)."""
    return sized_block_refs(ds)[0]


def split(part: np.ndarray, P: int, *cols) -> list:
    """Slice ``cols`` (pyarrow tables or numpy arrays, all aligned with
    ``part``) into P partitions by the ids in ``part``. Returns one
    entry per partition: the bare slice for a single column, else a
    tuple of slices."""
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    cols = [c.take(pa.array(order)) if isinstance(c, pa.Table) else c[order]
            for c in cols]
    out = [tuple(c[s:e] for c in cols)
           for s, e in zip(bounds[:-1], bounds[1:])]
    return [o[0] for o in out] if len(cols) == 1 else out


def table_shard(block: pa.Table, P: int, key_col: str) -> list:
    """Route one block's ROWS (all columns) by the Fibonacci hash of the
    int64 ``key_col`` into P table slices."""
    keys = block.column(key_col).to_numpy(
        zero_copy_only=False).astype(np.int64)
    return split(fib_partition(keys, P), P, block)


CHUNK_SUMS = pa.schema([("chunk", pa.int64()), ("tok_sum", pa.int64())])


def chunk_bases(sums: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The packing prefix sum: fold per-block (chunk, tok_sum) partials
    into sorted chunk ids and their exclusive token bases (tokens
    before the chunk) — O(corpus / chunk_docs) ints, broadcast once."""
    g = sums.group_by("chunk").aggregate([("tok_sum", "sum")]) \
        .sort_by("chunk")
    tot = g.column("tok_sum_sum").to_numpy(
        zero_copy_only=False).astype(np.int64)
    return (g.column("chunk").to_numpy(zero_copy_only=False).astype(np.int64),
            np.cumsum(tot) - tot)


def _task(fn, n: int | None, sizes: list = (), out_schema=None):
    """``fn`` as a Ray task taking its per-partition inputs flat.

    - ``sizes``: re-split the trailing inputs into one list per side.
    - ``out_schema``: drop zero-row table inputs; when none is left,
      return typed empties without calling ``fn``.
    - ``n``: ``fn`` returns a list of ``n`` pieces; with ``n == 1`` the
      task returns the bare piece (Ray's ``num_returns=1`` stores the
      return value as-is).

    The wrapper keeps ``fn``'s name, which is the task's name."""
    if not sizes and out_schema is None and n != 1:
        return ray.remote(fn)

    def task(*a):
        k = len(a) - sum(sizes)  # leading args, then the shard inputs
        args, flat, sides = a[:k], a[k:], []
        for m in sizes:
            sides.append(list(flat[:m]))
            flat = flat[m:]
        if out_schema is not None:
            # empty partition: no input at all, or only zero-row tables
            # (numpy shards with no table input pass through)
            had = len(a) == k or any(isinstance(x, pa.Table)
                                     for x in a[k:])
            sides = [[x for x in s if not (isinstance(x, pa.Table)
                                           and x.num_rows == 0)]
                     for s in sides]
            if had and not any(isinstance(x, pa.Table)
                               for s in sides for x in s):
                empty = out_schema.empty_table()
                return empty if n is None or n == 1 else [empty] * n
        if not sizes:
            out = fn(*a)
        elif len(sides) == 1:
            out = fn(*args, *sides[0])
        else:
            out = fn(*args, *sides)
        return out[0] if n == 1 else out

    functools.update_wrapper(task, fn)
    # Ray binds call arguments against inspect.signature, which would
    # follow __wrapped__ to fn's signature
    del task.__wrapped__
    return ray.remote(task)


def _transpose(outs: list, n: int) -> list:
    """Per-task return refs -> ``m[q][t]`` = return q of task t."""
    if not outs:
        return [[] for _ in range(n)]
    return [list(col) for col in zip(*[[o] if n == 1 else o for o in outs])]


def shard(fn, refs: list, P: int, *args, **opts) -> list:
    """One ``fn(block, *args)`` task per block ref, each returning a
    list of P pieces. Returns the partition-major matrix ``m[p][i]`` =
    piece p of block i. ``opts`` go to ``.options`` (e.g. ``num_cpus``)."""
    f = _task(fn, P).options(num_returns=P, **opts)
    return _transpose([f.remote(r, *args) for r in refs], P)


def combine(fn, parts, *args, num_returns: int | None = None,
            out_schema: pa.Schema | None = None) -> list:
    """One ``fn(*args, *parts[p])`` task per partition p. ``parts`` is a
    partition-major matrix from ``shard``/``combine``, or a tuple of
    such matrices (a multi-sided exchange: ``fn`` then gets one list per
    side, ``fn(*args, side_0, side_1, ...)``).

    With ``out_schema``, zero-row table inputs are dropped and a
    partition with no table input left returns ``out_schema``'s empty
    table (one per return) without calling ``fn``.

    Returns one ref per partition, or, when ``fn`` returns a list of
    ``num_returns`` pieces, the partition-major matrix ``m[q][p]`` =
    piece q of partition p."""
    sides = parts if isinstance(parts, tuple) else (parts,)
    sizes = [len(s[0]) if s else 0 for s in sides] \
        if len(sides) > 1 or out_schema is not None else ()
    f = _task(fn, num_returns, sizes, out_schema)
    if num_returns is not None:
        f = f.options(num_returns=num_returns)
    outs = [f.remote(*args, *[r for s in sides for r in s[p]])
            for p in range(len(sides[0]))]
    return outs if num_returns is None else _transpose(outs, num_returns)


def gather(refs: list, schema: pa.Schema) -> pa.Table:
    """Fetch bounded combine outputs and concat them after a typed
    empty seed."""
    return pa.concat_tables([schema.empty_table()] + ray.get(refs))


def collect(ds: rd.Dataset, schema: pa.Schema) -> pa.Table:
    """A bounded Dataset's batches, cast to ``schema`` and concatenated
    on the driver after a typed empty seed (an empty Dataset yields
    zero batches)."""
    return pa.concat_tables([schema.empty_table()] + [
        b.select(schema.names).cast(schema)
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)])


def fold(ds: rd.Dataset, partial, schema: pa.Schema) -> pa.Table:
    """Bounded per-block partials folded on the driver: ``partial`` runs
    on every non-empty block and the outputs are collected."""
    @functools.wraps(partial)
    def run(t: pa.Table) -> pa.Table:
        return partial(t) if t.num_rows else schema.empty_table()

    return collect(ds.map_batches(run, batch_format="pyarrow"), schema)
