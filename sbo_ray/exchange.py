"""Raw-task hash exchange plumbing, shared by every shard -> combine op.

Ray Data's sort/groupby sizes post-shuffle blocks by bytes and pays a
fixed sample/sort overhead per shuffle, so the engine's hash exchanges
run as plain Ray tasks instead. This module owns the parts of
that layout that every site used to re-solve:

- ``part_exchange(ds, partial, key, fold, out_schema)``: the one
  hash-grouped fold (a block partial fused into the read, rows routed
  by ``fib_partition(key(rows), P)``, one ``fold`` per partition that
  takes a ``pa.Table`` and returns a ``pa.Table`` or a
  ``pd.DataFrame``), returning one ref per partition. Its two-sided
  form is every join: ``ds``, ``partial`` and ``key`` are pairs, and
  ``fold(left, right)`` runs Arrow's ``Table.join`` on the partition's
  rows of both sides. Every "group by a hash partition, then fold each
  partition" op and every join goes through it; none runs through a
  Ray Data groupby, join or aggregate. The exchanges that stay written
  out with ``shard``/``combine`` are the ones it cannot express
  without a new option: multi-wave exchanges (the pack family's one
  head, ``queries._pack_shard``, whose chunk shard also emits each
  op's pass-1 side output — the dedup ops' hash slices included — and
  whose payload ops all end in ``_pack_combine``; the
  label-propagation rounds; and ``queries._flag_count``, the near-dup
  screens' flag-then-count), shard tasks that reserve cpus
  (``q_log_ngram_novelty``, ``_flag_count``), sites that reuse their
  block refs for a second pass (``emb_semdedup``'s centroid sample),
  compat's two-return combine, the cli's per-shard dedup exchanges
  (one ``cli._winners_combine``) and the range splits
  (``_shuf_slice``, ``_ccnet_slice``).
- ``block_refs(ds)``: the Dataset's non-empty block refs (an empty
  parquet read yields a schemaless block that poisons downstream
  concats, so zero-row blocks drop by bundle metadata);
  ``sized_block_refs`` also sums their rows and bytes.
- ``n_parts(nbytes)``: the partition count P (its docstring is the
  one statement of the rule). A site that holds its block refs before
  it picks P passes their bytes; one that picks P first calls
  ``n_parts()`` and gets the cap.
- ``fib_partition(keys, P)``: the hash partition rule (a Fibonacci
  mix, so strided ids still spread); ``crc_hash(values)`` is the int64
  key of a string array (crc32 per distinct value).
- ``split(part, P, *cols)``: one stable argsort by partition id (none
  when the ids are already sorted, as at P = 1), then contiguous
  slices of tables or numpy arrays (``table_shard`` is the whole-row
  form keyed by the Fibonacci hash of one int64 column).
- ``shard`` / ``combine``: launch one wave of tasks and return a
  partition-major ref matrix, so multi-wave and two-sided exchanges
  compose; Ray's ``num_returns=1`` bare-ref convention is handled here.
- ``combine(..., out_schema=...)``: zero-row table inputs are dropped
  inside the task, and a partition left with none returns
  ``out_schema.empty_table()`` without calling the site's function.
- ``merge(ds, partial, keys, schema)``: the one keyed partial merge
  (the metric/counter combiner): ``partial`` fused into the map, then
  every non-key column of ``schema`` summed per key. Its partial blocks
  stream to one driver concat + ``group_by``, or, past ``DRIVER_ROWS``
  partial rows or ``DRIVER_BLOCKS`` blocks, through a remote tree of
  ``FANIN``-way ``_merge_partials`` tasks, so no unbounded partial
  stream is concatenated on the driver.
- ``fold(ds, partial, schema)``: keyless per-block partials (top-k,
  sketches, vector sums, min/max) -> driver concat, seeded with a typed
  empty table (an empty Dataset yields zero batches) and skipping
  ``partial`` on empty blocks; ``collect`` is the same concat without
  the map, ``gather`` the same for combine-task refs: bounded
  outputs that are not summed (top-k, pairs). A per-row output is
  never gathered: it stays a Dataset over its refs.
- ``sum_refs(refs, keys, schema)``: the one bounded keyed sum of
  combine outputs (``merge``'s combine over P partition refs, sorted
  by ``keys``); every shard -> combine op whose partitions emit
  per-key partial counts or sums ends in it.

The hand-written exchanges keep their own partition functions; P is
read at call time through ``n_parts`` (patch it to force a partition
count).
"""
from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data import DataContext

from .codec import one_array

# merge's tree switch: past DRIVER_ROWS partial rows or DRIVER_BLOCKS
# blocks, every FANIN pending partials merge in one remote task
FANIN = 16
DRIVER_ROWS = 1 << 20
DRIVER_BLOCKS = 256


def _cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def n_parts(nbytes: int | None = None) -> int:
    """Hash-partition count P for an exchange whose shard wave splits
    ``nbytes`` of blocks:
    ``min(max(16, 4 * cpus), max(cpus, ceil(nbytes / block_size)))``
    with Ray Data's ``target_max_block_size`` as the block size.

    Every partition costs one combine task and one return per shard
    task whatever its size, so small inputs get few partitions (P = 1
    for a 32 MB table at 1 cpu). The cpu floor keeps every cpu busy in
    the combine wave; the cap bounds the task count on big inputs,
    where a partition then holds more than one block's bytes (one hash
    partition must still fit in a worker). With no bytes, P is the
    cap."""
    cpus = _cpus()
    cap = max(16, 4 * cpus)
    if nbytes is None:
        return cap
    block = DataContext.get_current().target_max_block_size
    return min(cap, max(cpus, -(-nbytes // block)))


def row_parts(rows: int) -> int:
    """Partition count for an exchange sized by its ``rows`` (the
    label-propagation rounds' graph edges): one partition per 32768
    rows, at least 2 and at most :func:`n_parts`'s cap. It scales with
    the graph, not the corpus, so tiny graphs do not pay for no-op tasks
    every round."""
    return max(2, min(n_parts(), 1 + rows // 32768))


def fib_partition(x: np.ndarray, P: int) -> np.ndarray:
    """int64 keys -> partition ids via a Fibonacci mixing hash (plain
    ``x % P`` would correlate with any stride structure in the ids)."""
    h = x.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)


def crc_hash(values) -> np.ndarray:
    """int64 hash of a string array: crc32 of each value's UTF-8 bytes,
    computed once per distinct value and expanded through dictionary
    codes (content-deterministic across tasks and processes)."""
    import zlib

    values = one_array(values)
    enc = values.dictionary_encode()
    uh = np.array([zlib.crc32(u.encode("utf-8"))
                   for u in enc.dictionary.to_pylist()], dtype=np.int64)
    return uh[enc.indices.to_numpy(zero_copy_only=False)]


def sized_block_refs(ds: rd.Dataset) -> tuple[list, int, int]:
    """The Dataset's non-empty block refs (one execution) and their
    total rows and bytes, all from bundle metadata."""
    blocks = [(r, md) for b in ds.iter_internal_ref_bundles()
              for r, md in b.blocks if md.num_rows != 0]
    return ([r for r, _ in blocks],
            sum(md.num_rows or 0 for _, md in blocks),
            sum(md.size_bytes or 0 for _, md in blocks))


def block_refs(ds: rd.Dataset) -> list:
    """The Dataset's non-empty block refs (one execution)."""
    return sized_block_refs(ds)[0]


def split(part: np.ndarray, P: int, *cols) -> list:
    """Slice ``cols`` (pyarrow tables or numpy arrays, all aligned with
    ``part``) into P partitions by the ids in ``part``. Returns one
    entry per partition: the bare slice for a single column, else a
    tuple of slices. When ``part`` is already non-decreasing (always at
    P = 1) the slices are zero-copy views of ``cols``: no argsort and
    no take."""
    if (part[1:] < part[:-1]).any():
        order = np.argsort(part, kind="stable")
        part = part[order]
        cols = [c.take(pa.array(order)) if isinstance(c, pa.Table)
                else c[order] for c in cols]
    bounds = np.searchsorted(part, np.arange(P + 1))
    out = [tuple(c[s:e] for c in cols)
           for s, e in zip(bounds[:-1], bounds[1:])]
    return [o[0] for o in out] if len(cols) == 1 else out


def table_shard(block: pa.Table, P: int, key_col: str) -> list:
    """Route one block's ROWS (all columns) by the Fibonacci hash of the
    int64 ``key_col`` into P table slices."""
    keys = block.column(key_col).to_numpy(
        zero_copy_only=False).astype(np.int64)
    return split(fib_partition(keys, P), P, block)


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


def _combine_partials(keys: list[str], value, tables) -> pa.Table | None:
    """Concat + ``group_by(keys)`` sum of ``value`` (one column name or a
    list) over partial tables, skipping None, zero-row and converting
    pandas inputs; None when no row is left. The one combine of
    ``merge``'s driver path, its tree nodes, ``sum_refs`` and the
    checkpointed runner, so the regimes cannot drift."""
    values = [value] if isinstance(value, str) else list(value)
    ts = []
    for t in tables:
        if t is None:
            continue
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows:
            ts.append(t)
    if not ts:
        return None
    g = pa.concat_tables(ts).group_by(keys).aggregate(
        [(v, "sum") for v in values])
    return g.select(keys + [f"{v}_sum" for v in values]).rename_columns(
        keys + values)


def sum_refs(refs: list, keys: list[str], schema: pa.Schema) -> pa.Table:
    """Combine-task outputs summed per ``keys`` on the driver
    (``_combine_partials`` over every non-key column of ``schema``),
    sorted by ``keys`` and typed by ``schema``; ``schema``'s empty
    table when no rows come back."""
    values = [c for c in schema.names if c not in keys]
    t = _combine_partials(keys, values, ray.get(refs))
    if t is None:
        return schema.empty_table()
    return t.sort_by([(k, "ascending") for k in keys]).cast(schema)


@ray.remote
def _merge_partials(keys: list[str], value, *tables) -> pa.Table | None:
    """One node of ``merge``'s remote tree."""
    return _combine_partials(keys, value, tables)


def merge(ds: rd.Dataset, partial, keys: list[str],
          schema: pa.Schema) -> pa.Table:
    """Keyed partial merge: every non-key column of ``schema`` summed per
    ``keys`` (``[]``: one total row), typed by ``schema``; an input with
    no rows gives ``schema``'s empty table.

    ``partial(block)`` (or None: the blocks as they are) runs inside
    ``ds``'s own map on every non-empty block, cast to ``schema``. The
    partial blocks are consumed as one stream of refs
    (``iter_internal_ref_bundles``: a single execution, so side-effect
    stages never rerun). Until ``DRIVER_ROWS`` partial rows or
    ``DRIVER_BLOCKS`` blocks have streamed, they are fetched and
    combined in one driver concat + ``group_by``; past either, every
    ``FANIN`` pending refs merge in a ``_merge_partials`` task (while
    upstream still runs), recursively down to one table, so driver
    memory stays O(final keys) however many blocks stream."""
    values = [n for n in schema.names if n not in keys]
    if partial is not None:
        @functools.wraps(partial)
        def run(t: pa.Table) -> pa.Table:
            if not t.num_rows:
                return schema.empty_table()
            return partial(t).select(schema.names).cast(schema)

        ds = ds.map_batches(run, batch_format="pyarrow")

    def reduce(pending: list) -> list:
        batch, rest = pending[:FANIN], pending[FANIN:]
        return rest + [(_merge_partials.remote(
            keys, values, *[r for r, _ in batch]), True)]

    pending: list = []  # (ref, is a tree node's output)
    rows = blocks = 0
    tree = False
    for bundle in ds.iter_internal_ref_bundles():
        for ref, md in bundle.blocks:
            pending.append((ref, False))
            blocks += 1
            rows += md.num_rows or 0
            tree = tree or rows > DRIVER_ROWS or blocks > DRIVER_BLOCKS
            while tree and len(pending) >= FANIN:
                pending = reduce(pending)
    if tree:
        while len(pending) > 1:
            pending = reduce(pending)
        ref, merged = pending[0]
        if not merged:
            # one oversized raw block switched to the tree before any
            # merge round: run the combine it skipped
            ref = _merge_partials.remote(keys, values, ref)
        out = ray.get(ref)
    else:
        out = _combine_partials(keys, values,
                                ray.get([r for r, _ in pending]))
    if out is None:
        return schema.empty_table()
    return out.select(schema.names).cast(schema)


def part_exchange(ds, partial, key, fold, out_schema: pa.Schema) -> list:
    """The hash-grouped fold, as raw tasks; returns one ref per partition.

    ``partial(block)`` (or None: the blocks as read) runs inside
    ``ds``'s own map, fused into the read, so only its output is
    materialized for the shuffle. The ``part_shard`` task routes those
    rows by ``fib_partition(key(rows), P)`` (``key`` gives the site's
    int64 hash per row) and one ``part_combine`` task per partition runs
    ``fold`` over every row of its partition: one ``pa.Table`` in block
    order in, a ``pa.Table`` or ``pd.DataFrame`` out, typed by
    ``out_schema``.

    Two-sided (a join): ``ds``, ``partial`` and ``key`` are pairs, one
    entry per side. Each side's partial is fused into its own read, both
    sides' rows route by the same rule, and ``fold(left, right)`` gets
    each side's rows of its partition (the join inside it is Arrow's
    ``Table.join``). The right side always arrives with its columns: a
    side that has no rows at all ships one typed empty block, its
    Dataset's schema passed through its partial.

    P follows the partial outputs' bytes (both sides'), the bytes that
    actually move. A partition without rows on its first side returns
    ``out_schema``'s empty table without calling ``fold``, so the refs
    always hold typed tables: a per-row op returns them as
    ``rd.from_arrow_refs(refs)``, a bounded one folds
    ``gather(refs, out_schema)`` or ``sum_refs(refs, keys, out_schema)``."""
    sides = list(zip(ds, partial, key)) if isinstance(ds, tuple) \
        else [(ds, partial, key)]
    blocks, nbytes = [], 0
    for d, part, _ in sides:
        m = d
        if part is not None:
            def run(t: pa.Table, part=part) -> pa.Table:
                return part(t) if t.num_rows else t  # zero-row blocks drop

            m = d.map_batches(functools.wraps(part)(run),
                              batch_format="pyarrow", batch_size=None)
        refs, _, b = sized_block_refs(m)
        if blocks and not refs:
            empty = d.schema().base_schema.empty_table()
            refs = [ray.put(part(empty) if part else empty)]
        blocks.append(refs)
        nbytes += b
    P = n_parts(nbytes)

    def part_shard(t: pa.Table, key) -> list:
        return split(fib_partition(key(t), P), P, t)

    def part_combine(*got) -> pa.Table:
        got = got if len(sides) > 1 else [got]
        rows = [[t for t in s if t.num_rows] for s in got]
        if not rows[0]:
            return out_schema.empty_table()
        out = fold(*[pa.concat_tables(r or s[:1]) for r, s in zip(rows, got)])
        if isinstance(out, pa.Table):
            return out.select(out_schema.names).cast(out_schema)
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    mats = tuple(shard(part_shard, refs, P, k)
                 for refs, (_, _, k) in zip(blocks, sides))
    return combine(part_combine, mats if len(mats) > 1 else mats[0])
