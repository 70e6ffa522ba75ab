"""Assembled Ray Data pipelines for the log engine.

The Dataset DAG mirroring the reference's lifecycle (SURVEY.md §3.4):

    read_parquet(shards)                       # S1: the token table
      -> map_batches(ParseEnrich, actors)      # P1-P12 + ST1, zero-copy Arrow
      -> (a) metric fan-out + partial agg -> stream merge  # A1/A2/ST2
         (b) counter melt -> stream merge                   # A4/A5/ST3
         (c) relevance filter + projection -> routed sink   # F3/K5
         (d) top-N: groupby.count -> sort.limit             # A6

Nothing here calls ray.init(); the caller (driver / bench.py / tests)
owns the session. All stages stream; only final small aggregates are
materialized by callers.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..config import JobConfig
from ..stages.metrics import (
    COUNTER_SCHEMA,
    GROUP_KEYS,
    METRIC_SCHEMA,
    counter_melt,
    global_counter_partial,
    metric_fanout,
)
from ..stages.parse import ParseEnrich, make_parse_fn  # noqa: F401 (actor variant exported)
from ..stages.route import routed_projection


def _cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def tune_context() -> None:
    """Shuffle knobs sized to the session instead of the fixed
    200-partition default, which burns constant overhead per shuffle at
    small scale. The strategy is the pull-based sort shuffle:
    hash-shuffle aggregator actors linger for 300s holding CPU
    reservations (min_hash_shuffle_aggregator_wait_time_in_s), which
    starves small-CPU sessions across repeated shuffles."""
    from ray.data.context import DataContext, ShuffleStrategy

    ctx = DataContext.get_current()
    cpus = _cpus()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    ctx.default_hash_shuffle_parallelism = max(4, cpus)
    ctx.min_parallelism = max(4, cpus)


def read_input(input_paths) -> rd.Dataset:
    """Read the token table shards, one block per shard file.

    Ray's default read parallelism estimation splits/coalesces blocks in
    a way that serializes badly here (measured 2.7x slower than
    file-aligned blocks on this workload); our shards are written at a
    deliberate size, so file-aligned blocks are the right unit — and they
    are also the checkpoint/lineage partition unit."""
    if isinstance(input_paths, str):
        import glob as g

        files = sorted(g.glob(os.path.join(input_paths, "*.parquet")))
        input_paths = files if files else input_paths
    n = len(input_paths) if isinstance(input_paths, list) else None
    if n:
        return rd.read_parquet(input_paths, override_num_blocks=n)
    return rd.read_parquet(input_paths)


def enriched_dataset_from(ds: rd.Dataset, job: JobConfig,
                          batch_size: int | None = None) -> rd.Dataset:
    """Parse+enrich an already-constructed input Dataset (token schema)."""
    tune_context()
    return ds.map_batches(
        make_parse_fn(job),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def enriched_dataset(input_dir: str, job: JobConfig,
                     batch_size: int | None = None) -> rd.Dataset:
    """Token table -> enriched table.

    Runs as a *task pool* (stateless map_batches): Ray reuses worker
    processes, so the parse stage's per-unique-value caches live at
    module level in each worker and amortize exactly like actor state,
    without per-query actor-pool startup latency. (SURVEY.md §2.4 ST1;
    an actor-pool variant is available via ``ParseEnrich`` directly.)"""
    tune_context()  # before the read: the Dataset copies the context then
    return enriched_dataset_from(read_input(input_dir), job, batch_size)


def _combine_partials(keys: list[str], value: str, tables) -> pa.Table | None:
    """Normalize (None-skip, pandas tolerance, empty-skip) + concat +
    group_by sum — the ONE combine used by both the worker-side tree
    nodes and the driver-side small-stream path, so the two regimes
    cannot drift."""
    ts = []
    for t in tables:
        if t is None:
            continue
        if not isinstance(t, pa.Table):  # tolerate pandas blocks
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows:
            ts.append(t)
    if not ts:
        return None
    g = pa.concat_tables(ts).group_by(keys).aggregate([(value, "sum")])
    return g.rename_columns(keys + [value])


@ray.remote
def _merge_partials(keys: list[str], value: str, *tables) -> pa.Table | None:
    """Worker-side combine of partial-aggregate tables (one tree node)."""
    return _combine_partials(keys, value, tables)


def _stream_merge(long_ds: rd.Dataset, keys: list[str], value: str,
                  fanin: int = 16, driver_rows_budget: int = 1 << 20,
                  schema: pa.Schema | None = None) -> pa.Table:
    """Final combine of block-local partial aggregates.

    The heavy reduction already happened distributed (the per-block
    partial agg inside map_batches). The partial blocks are consumed as
    a stream of object refs (``iter_internal_ref_bundles`` — single
    execution, safe with side-effect stages). Two regimes:

    - small partial stream (the bounded-cardinality common case):
      blocks stream to the driver and one Arrow group_by merges them —
      measured 4-5x faster locally than Ray's all-to-all operators,
      which carry multi-second fixed costs per execution;
    - once the streamed partial rows exceed ``driver_rows_budget`` (or
      block count grows past 256 with unknown counts — data-dependent
      key spaces like PATH/REFERER at high block counts), the combine
      auto-switches to a distributed TREE: every ``fanin`` pending
      partials are merged by a worker task (overlapping the still-
      running upstream), recursively, so driver memory is bounded by
      O(final distinct keys + fanin x per-block keys) instead of
      growing linearly with block count.

    ``schema`` is the expected result schema, used only for the typed
    empty result when no partial row survives: on a fully empty input
    ``long_ds.schema()`` can be None (Ray returns no blocks at all), so
    callers should pass it explicitly."""

    def _empty() -> pa.Table:
        if schema is not None:
            return schema.empty_table()
        return long_ds.schema().base_schema.empty_table()
    pending: list = []          # (ref, is_merged_result)
    rows_seen = 0
    blocks_seen = 0
    merging = False
    for bundle in long_ds.iter_internal_ref_bundles():
        for block_ref, md in bundle.blocks:
            pending.append((block_ref, False))
            blocks_seen += 1
            rows_seen += md.num_rows or 0
            if not merging and (rows_seen > driver_rows_budget or blocks_seen > 256):
                merging = True
            while merging and len(pending) >= fanin:
                batch, pending = pending[:fanin], pending[fanin:]
                merged = _merge_partials.remote(keys, value,
                                                *[r for r, _ in batch])
                pending.append((merged, True))
    if merging:
        # finish the reduction remotely down to ONE table so the driver
        # only ever reads the final result (zero-copy from the object
        # store), never an intermediate concat
        while len(pending) > 1:
            batch, pending = pending[:fanin], pending[fanin:]
            merged = _merge_partials.remote(keys, value, *[r for r, _ in batch])
            pending.append((merged, True))
        ref, is_merged = pending[0]
        if not is_merged:
            # a single oversized RAW block flipped merging without any
            # merge round: run the combine it skipped (pandas tolerance
            # + group_by)
            ref = _merge_partials.remote(keys, value, ref)
        final = ray.get(ref)
        if final is None or final.num_rows == 0:
            return _empty()
        return final
    final = _combine_partials(keys, value, ray.get([r for r, _ in pending]))
    if final is None or final.num_rows == 0:
        return _empty()
    return final


def metrics_dataset(enriched: rd.Dataset) -> rd.Dataset:
    """Enriched -> exact per-window metric totals (the sbo_metrics sink in
    add-merge mode, SURVEY.md §2.6 A3): melt + block-local partial agg,
    then the streaming combine (``_stream_merge``)."""
    long_ds = enriched.map_batches(metric_fanout, batch_format="pyarrow")
    return rd.from_arrow(_stream_merge(long_ds, GROUP_KEYS, "metric_value",
                                      schema=METRIC_SCHEMA))


def keyed_counters_dataset(enriched: rd.Dataset) -> rd.Dataset:
    """All nine keyed counter dimensions, per source, in one pass."""
    long_ds = enriched.map_batches(counter_melt, batch_format="pyarrow")
    keys = ["source", "dimension", "key_value"]
    return rd.from_arrow(_stream_merge(long_ds, keys, "cnt",
                                      schema=COUNTER_SCHEMA))


def global_counters(enriched: rd.Dataset) -> dict[str, int]:
    """The six global counters + parse errors, as one small dict."""
    partials = enriched.map_batches(global_counter_partial, batch_format="pyarrow")
    out = partials.aggregate(
        Sum("handled", alias_name="handled"),
        Sum("requests", alias_name="requests"),
        Sum("bytes_sent", alias_name="bytes_sent"),
        Sum("humans", alias_name="humans"),
        Sum("non_humans", alias_name="non_humans"),
        Sum("malicious", alias_name="malicious"),
        Sum("parse_errors", alias_name="parse_errors"),
    )
    return {k: int(v) for k, v in out.items()}


def to_pandas_with_schema(ds: rd.Dataset, schema: pa.Schema) -> "pd.DataFrame":
    """Materialize a SMALL final aggregate as pandas, preserving column
    schema when the Dataset is empty: Ray's empty-Dataset ``to_pandas()``
    returns a zero-column frame (CLAUDE.md soft spot), which breaks any
    downstream ``sort_values``/column access. ``schema`` is the expected
    Arrow schema; it is only consulted on the empty path (consulting
    ``ds.schema()`` would execute the plan twice)."""
    df = ds.to_pandas()
    if len(df) == 0:
        return schema.empty_table().to_pandas()
    return df


def routed_dataset(enriched: rd.Dataset, mask_ips: bool = False,
                   relevant_only: bool = True) -> rd.Dataset:
    return enriched.map_batches(
        lambda b: routed_projection(b, mask_ips=mask_ips, relevant_only=relevant_only),
        batch_format="pyarrow",
    )


def top_n_dataset(keyed_counters: rd.Dataset, dimension: str, n: int = 10) -> pa.Table:
    """Exact per-source top-N for one counter dimension with deterministic
    (count desc, key asc) tie-break (vs the reference's nondeterministic
    map-order ties, counter.go:305-321 — documented divergence).

    The keyed-counter aggregate is small (bounded key cardinality), so the
    per-source head-N runs as a grouped map over the aggregate, not over
    raw rows."""
    df = to_pandas_with_schema(
        keyed_counters.filter(expr=f'dimension == "{dimension}"'),
        pa.schema([("source", pa.string()), ("dimension", pa.string()),
                   ("key_value", pa.string()), ("cnt", pa.int64())]),
    )
    df = df.sort_values(["source", "cnt", "key_value"],
                        ascending=[True, False, True])
    df = df.groupby("source", group_keys=False).head(n)
    return pa.Table.from_pandas(
        df[["source", "key_value", "cnt"]].reset_index(drop=True),
        preserve_index=False,
    )


UNIFIED_SCHEMA = pa.schema([
    ("kind", pa.int8()),          # 0=windowed metric, 1=keyed counter, 2=global counter
    ("source", pa.string()),
    ("metric_type", pa.int32()),  # 0 for counters
    ("dimension", pa.string()),   # "" for metrics; counter dim / global name
    ("key_value", pa.string()),
    ("time_window", pa.int64()),  # 0 for counters
    ("value", pa.int64()),
])

UNIFIED_KEYS = ["kind", "source", "metric_type", "dimension", "key_value", "time_window"]


def partial_stage(job: JobConfig, mask_ips: bool = False,
                  relevant_only: bool = True):
    """Build the flagship's per-batch stage, ``stage(batch, routed_root)``:
    parse+enrich the batch, write its routed fragment under
    ``routed_root`` and return its unified pre-aggregated partial
    (``UNIFIED_SCHEMA``) for every metric/counter sink. Shared by
    ``full_pipeline`` and the checkpointed runner, so the two cannot
    drift; one parse function per build, so its run-scoped auto-detect
    state spans the whole execution."""
    import hashlib

    from .. import fsio

    parse_fn = make_parse_fn(job)

    def stage(batch: pa.Table, routed_root: str) -> pa.Table:
        enriched = parse_fn(batch)
        routed = routed_projection(enriched, mask_ips=mask_ips,
                                   relevant_only=relevant_only)
        if routed.num_rows:
            # one flat fragment per batch (source rides as a column; use
            # write_routed() for the per-source hive layout). The name is
            # derived from the batch's doc_id span, so a RETRIED task
            # rewrites the same file instead of duplicating rows
            # (at-least-once side effects made idempotent).
            ids = batch.column("doc_id")
            span = f"{ids[0].as_py()}|{ids[-1].as_py()}|{batch.num_rows}"
            part = hashlib.sha1(span.encode()).hexdigest()[:16]
            fsio.write_fragment(routed_root, f"part-{part}.parquet", routed)

        m = metric_fanout(enriched)
        c = counter_melt(enriched)
        g = global_counter_partial(enriched)
        n_m, n_c = m.num_rows, c.num_rows
        g_cols = g.column_names
        return pa.Table.from_arrays(
            [
                pa.concat_arrays([
                    pa.array([0] * n_m, pa.int8()),
                    pa.array([1] * n_c, pa.int8()),
                    pa.array([2] * len(g_cols), pa.int8()),
                ]),
                pa.concat_arrays([
                    m.column("source").combine_chunks(),
                    c.column("source").combine_chunks(),
                    pa.array([""] * len(g_cols), pa.string()),
                ]),
                pa.concat_arrays([
                    m.column("metric_type").combine_chunks(),
                    pa.array([0] * n_c, pa.int32()),
                    pa.array([0] * len(g_cols), pa.int32()),
                ]),
                pa.concat_arrays([
                    pa.array([""] * n_m, pa.string()),
                    c.column("dimension").combine_chunks(),
                    pa.array(g_cols, pa.string()),
                ]),
                pa.concat_arrays([
                    m.column("key_value").combine_chunks(),
                    c.column("key_value").combine_chunks(),
                    pa.array([""] * len(g_cols), pa.string()),
                ]),
                pa.concat_arrays([
                    m.column("time_window").combine_chunks(),
                    pa.array([0] * n_c, pa.int64()),
                    pa.array([0] * len(g_cols), pa.int64()),
                ]),
                pa.concat_arrays([
                    m.column("metric_value").combine_chunks(),
                    c.column("cnt").combine_chunks(),
                    pa.array([g.column(col)[0].as_py() for col in g_cols], pa.int64()),
                ]),
            ],
            schema=UNIFIED_SCHEMA,
        )

    return stage


def split_unified(table: pa.Table) -> dict:
    """Combined unified partial -> the three result shapes by ``kind``:
    {"metrics": METRIC_SCHEMA table, "keyed_counters": COUNTER_SCHEMA
    table, "global_counters": {name: total}}. Other kinds are ignored."""
    import pyarrow.compute as pc_

    kinds = table.column("kind")
    metrics = (
        table.filter(pc_.equal(kinds, 0))
        .select(["source", "metric_type", "key_value", "time_window", "value"])
        .rename_columns(["source", "metric_type", "key_value", "time_window", "metric_value"])
    )
    counters = (
        table.filter(pc_.equal(kinds, 1))
        .select(["source", "dimension", "key_value", "value"])
        .rename_columns(["source", "dimension", "key_value", "cnt"])
    )
    glob = table.filter(pc_.equal(kinds, 2)).select(["dimension", "value"])
    return {
        "metrics": metrics,
        "keyed_counters": counters,
        "global_counters": {
            d: v for d, v in zip(glob.column("dimension").to_pylist(),
                                 glob.column("value").to_pylist())
        },
    }


def full_pipeline(input_paths, job: JobConfig, out_dir: str,
                  mask_ips: bool = False, relevant_only: bool = True,
                  batch_size: int | None = None) -> dict:
    """The flagship single-pass pipeline (the reference's whole lifecycle,
    SURVEY.md §3): ONE streaming read of the token table; each task
    parses+enriches its batch, writes its routed raw-log fragment
    (per-source hive layout) directly, and emits unified pre-aggregated
    partials for every metric/counter sink; one tree combine finalizes
    all aggregates. No stage reads the input twice.

    Returns {"metrics": ..., "keyed_counters": ..., "global_counters": ...}
    pyarrow Tables; routed rows land under ``out_dir``/routed/source=*/.

    ``out_dir`` may be a plain local path (default) or an fsspec URI
    (``file://``, ``s3://``, ...) — on a multi-node cluster pass shared
    storage; worker tasks resolve the URI per process (`sbo_ray.fsio`).
    """
    from .. import fsio

    tune_context()

    routed_root = fsio.join(out_dir, "routed")
    fsio.makedirs(routed_root)
    # clear fragments from any previous invocation: content-derived names
    # make RETRIES idempotent within a run, but a reused out_dir with
    # different input/batching would otherwise mix stale fragments in
    fsio.clear_fragments(routed_root)

    ds = read_input(input_paths).map_batches(
        partial_stage(job, mask_ips, relevant_only), fn_args=(routed_root,),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )
    # NOTE: consume via iter_batches — to_arrow_refs() runs the plan twice
    # (an extra limit=1 schema pass), which would duplicate the routed
    # side-effect writes
    result = split_unified(
        _stream_merge(ds, UNIFIED_KEYS, "value", schema=UNIFIED_SCHEMA))
    fsio.write_table(fsio.join(out_dir, "metrics"), "metrics.parquet",
                     result["metrics"])
    return result


def write_enriched_jsonl(enriched: rd.Dataset, out_dir: str) -> None:
    """K3: the WRITE_TO_FILE handler analog — one JSON record per parsed
    row (handlers/writetofile.go:50-90). The reference marshals the
    SBOHttpRequestLog struct; we emit the enriched columns minus the
    token payload."""
    parsed = enriched.map_batches(
        lambda t: t.filter(t.column("parse_ok")).drop_columns(["tokens"]),
        batch_format="pyarrow",
    )
    parsed.write_json(out_dir)


def write_metrics(metrics: rd.Dataset, out_dir: str) -> None:
    """Metrics sink: partitioned Parquet keyed on source (the sbo_metrics
    table analog, db/mysqldb.go:145-151). ``out_dir`` may be a URI —
    Ray's write_parquet resolves it through pyarrow.fs (file://, s3://,
    gcs://; not memory://)."""
    metrics.write_parquet(out_dir, partition_cols=["source"])


def write_routed(routed: rd.Dataset, out_dir: str) -> None:
    """Routed raw-log sink partitioned by source (sbo_rawlogs analog).
    ``out_dir`` may be a URI (see write_metrics)."""
    routed.write_parquet(out_dir, partition_cols=["source"])
