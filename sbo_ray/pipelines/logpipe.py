"""Assembled Ray Data pipelines for the log engine.

The Dataset DAG mirroring the reference's lifecycle (SURVEY.md §3.4):

    read_parquet(shards)                       # S1: the token table
      -> map_batches(make_parse_fn(job))       # P1-P12 + ST1, task pool, Arrow
      -> (a) metric fan-out + partial agg -> exchange.merge  # A1/A2/ST2
         (b) counter melt -> exchange.merge                  # A4/A5/ST3
         (c) relevance filter + projection -> routed sink    # F3/K5
         (d) top-N: pandas sort + per-source head over the
             merged keyed counters                           # A6

``full_pipeline`` fuses (a)-(c) into one per-batch stage and one merge.

Nothing here calls ray.init(); the caller (driver / bench.py / tests)
owns the session. All stages stream; only final small aggregates are
materialized by callers.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data as rd

from .. import exchange as X
from ..config import JobConfig
from ..exchange import _combine_partials, _cpus  # noqa: F401 (perfbench replays the combine)
from ..stages.metrics import (
    COUNTER_SCHEMA,
    GLOBAL_COUNTER_SCHEMA,
    GROUP_KEYS,
    METRIC_SCHEMA,
    counter_melt,
    global_counter_partial,
    metric_fanout,
)
from ..stages.parse import ParseEnrich, make_parse_fn  # noqa: F401 (actor variant exported)
from ..stages.route import routed_projection


def tune_context() -> None:
    """Floor a read's block count at the session's cpus (at least 4),
    in place of Ray's default floor of 200 blocks (capped by a 1 MB
    minimum block size), which gives a 1-cpu session tens of small
    blocks per table. Only reads without ``override_num_blocks``
    consult it. A plan runs under the context its last Dataset copied
    when it was built, so the floor is set before that Dataset (and
    stays set in the process)."""
    from ray.data.context import DataContext

    DataContext.get_current().read_op_min_num_blocks = max(4, _cpus())


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
    tune_context()
    return rd.read_parquet(input_paths)


def enriched_dataset_from(ds: rd.Dataset, job: JobConfig,
                          batch_size: int | None = None) -> rd.Dataset:
    """Parse+enrich an already-constructed input Dataset (token schema).

    Sets the read floor too: a plan runs under the context of its last
    Dataset, so the floor set here reaches a read built before it (the
    cli's ``rd.read_parquet(inputs)``: 4 blocks instead of 36 for the
    sf0.01 token shards at 1 cpu)."""
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
    return enriched_dataset_from(read_input(input_dir), job, batch_size)


def metrics_dataset(enriched: rd.Dataset) -> rd.Dataset:
    """Enriched -> exact per-window metric totals (the sbo_metrics sink in
    add-merge mode, SURVEY.md §2.6 A3): melt + block-local partial agg,
    then the keyed merge (``exchange.merge``)."""
    return rd.from_arrow(X.merge(enriched, metric_fanout, GROUP_KEYS,
                                 METRIC_SCHEMA))


def keyed_counters_dataset(enriched: rd.Dataset) -> rd.Dataset:
    """All nine keyed counter dimensions, per source, in one pass."""
    return rd.from_arrow(X.merge(enriched, counter_melt,
                                 ["source", "dimension", "key_value"],
                                 COUNTER_SCHEMA))


def global_counters(enriched: rd.Dataset) -> dict[str, int]:
    """The six global counters + parse errors, as one small dict."""
    t = X.merge(enriched, global_counter_partial, [], GLOBAL_COUNTER_SCHEMA)
    return {k: sum(t.column(k).to_pylist()) for k in t.column_names}


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


def _const(value, typ: pa.DataType, n: int) -> pa.Array:
    """``n`` copies of ``value`` as one ``typ`` array, no Python list."""
    return pa.repeat(pa.scalar(value, typ), n)


def unified_partial(enriched: pa.Table) -> pa.Table:
    """One enriched batch's pre-aggregated partial for every metric and
    counter sink, as ``UNIFIED_SCHEMA`` rows (``kind`` 0/1/2: windowed
    metrics, keyed counters, global counters)."""
    m = metric_fanout(enriched)
    c = counter_melt(enriched)
    g = global_counter_partial(enriched)
    n_m, n_c = m.num_rows, c.num_rows
    g_cols = g.column_names
    n_g = len(g_cols)
    return pa.Table.from_arrays(
        [
            pa.concat_arrays([
                _const(0, pa.int8(), n_m),
                _const(1, pa.int8(), n_c),
                _const(2, pa.int8(), n_g),
            ]),
            pa.concat_arrays([
                m.column("source").combine_chunks(),
                c.column("source").combine_chunks(),
                _const("", pa.string(), n_g),
            ]),
            pa.concat_arrays([
                m.column("metric_type").combine_chunks(),
                _const(0, pa.int32(), n_c),
                _const(0, pa.int32(), n_g),
            ]),
            pa.concat_arrays([
                _const("", pa.string(), n_m),
                c.column("dimension").combine_chunks(),
                pa.array(g_cols, pa.string()),
            ]),
            pa.concat_arrays([
                m.column("key_value").combine_chunks(),
                c.column("key_value").combine_chunks(),
                _const("", pa.string(), n_g),
            ]),
            pa.concat_arrays([
                m.column("time_window").combine_chunks(),
                _const(0, pa.int64(), n_c),
                _const(0, pa.int64(), n_g),
            ]),
            pa.concat_arrays([
                m.column("metric_value").combine_chunks(),
                c.column("cnt").combine_chunks(),
                pa.array([g.column(col)[0].as_py() for col in g_cols], pa.int64()),
            ]),
        ],
        schema=UNIFIED_SCHEMA,
    )


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
            # one flat fragment per batch (source rides as a column).
            # The name is derived from the batch's doc_id span, so a
            # RETRIED task rewrites the same file instead of duplicating
            # rows (at-least-once side effects made idempotent).
            ids = batch.column("doc_id")
            span = f"{ids[0].as_py()}|{ids[-1].as_py()}|{batch.num_rows}"
            part = hashlib.sha1(span.encode()).hexdigest()[:16]
            fsio.write_fragment(routed_root, f"part-{part}.parquet", routed)

        return unified_partial(enriched)

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
    directly, and emits unified pre-aggregated
    partials for every metric/counter sink; one keyed merge finalizes
    all aggregates. No stage reads the input twice.

    Returns {"metrics": ..., "keyed_counters": ..., "global_counters": ...}
    pyarrow Tables. Routed rows land as flat ``part-<sha1>.parquet``
    fragments under ``out_dir``/routed/, with ``source`` as a column; the
    metric rows are also written to ``out_dir``/metrics/metrics.parquet.

    ``out_dir`` may be a plain local path (default) or an fsspec URI
    (``file://``, ``s3://``, ...) — on a multi-node cluster pass shared
    storage; worker tasks resolve the URI per process (`sbo_ray.fsio`).
    """
    from .. import fsio

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
    # NOTE: merge consumes the stream in one execution; to_arrow_refs()
    # runs the plan twice (an extra limit=1 schema pass), which would
    # duplicate the routed side-effect writes
    result = split_unified(X.merge(ds, None, UNIFIED_KEYS, UNIFIED_SCHEMA))
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

