"""Metric fan-out + partial pre-aggregation (the shuffle shrinker).

The reference's MetricGeneratorHandler.HandleEntry
(``handlers/metricgenerator.go:86-126``) turns one parsed row into up to
12 metric emissions keyed ``(metric_type, key_value, time_window)`` which
a bounded in-memory map accumulates (``metrics/SBOMetrics.go:102-210``).

Ray-Data-first re-expression (SURVEY.md §2.6 A1): a stateless
``map_batches`` melts each enriched batch into the long metric format and
**pre-aggregates inside the batch** (Arrow ``Table.group_by`` — the
classic partial/combiner), so the global
``groupby(["source","metric_type","key_value","time_window"]).sum``
shuffles ~#distinct-groups-per-block rows instead of ~12x input rows.
With a 10-minute window the group cardinality per block is tiny compared
to row count, which is what makes this viable at 10^12 rows.

Key-space note (SURVEY.md §4): the merge key includes ``key_value`` and
``time_window``, so a hot ``source`` does NOT concentrate on one key;
the key space stays wide without explicit salting. The partials merge
through ``exchange.merge``.

Column discipline: each sink here selects the enriched columns it reads
(``FANOUT_COLUMNS``, the counter dimensions, three global-counter
columns) before it filters ``parse_ok``, so no sink copies the
``tokens`` payload; only the routed sink (``stages/route.py``) moves it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import one_array
from ..functions.sbometrics import (
    METRIC_BYTES_SENT,
    METRIC_DEVICE_TYPE,
    METRIC_HTTP_STATUS,
    METRIC_IS_HUMAN,
    METRIC_METHOD,
    METRIC_OS_FAMILY,
    METRIC_PATH,
    METRIC_REFERER,
    METRIC_REQ_COUNT,
    METRIC_REQUEST_INTENT,
    METRIC_UA_FAMILY,
)

METRIC_SCHEMA = pa.schema([
    ("source", pa.string()),
    ("metric_type", pa.int32()),
    ("key_value", pa.string()),
    ("time_window", pa.int64()),
    ("metric_value", pa.int64()),
])

GROUP_KEYS = ["source", "metric_type", "key_value", "time_window"]


def const_str(n: int, value: str) -> pa.Array:
    """Constant string column without a per-row Python loop."""
    return pa.repeat(pa.scalar(value, type=pa.string()), n)


# the enriched columns the emission rules read
FANOUT_COLUMNS = (
    "source", "time_window", "bytes_sent", "status", "method", "referer",
    "path1", "path2", "path3", "ua_family", "ua_os", "ua_device_type",
    "ua_human", "ua_intent",
)


def parsed_columns(batch: pa.Table, columns) -> pa.Table:
    """The batch's parse_ok rows of ``columns`` only: selecting first
    keeps the filter from copying columns the sink never reads (the
    ``tokens`` payload above all)."""
    return batch.select(list(columns)).filter(batch.column("parse_ok"))


def fanout_long(batch: pa.Table, carry: str | None) -> pa.Table:
    """HandleEntry's emission rules (metricgenerator.go:86-126), the one
    copy: the batch's parse_ok rows -> one long METRIC_SCHEMA row per
    emission, not aggregated. ``carry`` names a batch column appended to
    every emission (compat's arrival order), or None."""
    batch = parsed_columns(
        batch, FANOUT_COLUMNS if carry is None else (*FANOUT_COLUMNS, carry))
    schema, extra = METRIC_SCHEMA, []
    if carry is not None:
        schema = schema.append(batch.schema.field(carry))
        extra = [batch.column(carry).combine_chunks()]
    n = batch.num_rows
    if n == 0:
        return schema.empty_table()

    source = batch.column("source").combine_chunks()
    tw = batch.column("time_window").combine_chunks()
    ones = pa.array(np.ones(n, dtype=np.int64))
    empty_key = const_str(n, "")

    pieces: list[pa.Table] = []

    def emit(mtype: int, key: pa.Array, value: pa.Array,
             mask: pa.Array | None = None) -> None:
        cols = [source, tw, key, value, *extra]
        if mask is not None:
            cols = [c.filter(mask) for c in cols]
        s, t, k, v, *rest = cols
        if len(k) == 0:
            return
        mt = pa.array(np.full(len(k), mtype, dtype=np.int32))
        pieces.append(
            pa.Table.from_arrays([s, mt, k, t, v, *rest], schema=schema)
        )

    emit(METRIC_REQ_COUNT, empty_key, ones)
    emit(METRIC_BYTES_SENT, empty_key, batch.column("bytes_sent").combine_chunks())
    emit(METRIC_HTTP_STATUS, batch.column("status").combine_chunks(), ones)
    emit(METRIC_METHOD, batch.column("method").combine_chunks(), ones)

    referer = batch.column("referer").combine_chunks()
    emit(METRIC_REFERER, referer, ones, mask=pc.not_equal(referer, ""))

    # PATH only for 2xx (metricgenerator.go:106-117); path1 always, 2/3 if set
    is2xx = pc.starts_with(batch.column("status").combine_chunks(), "2")
    p1 = batch.column("path1").combine_chunks()
    p2 = batch.column("path2").combine_chunks()
    p3 = batch.column("path3").combine_chunks()
    emit(METRIC_PATH, p1, ones, mask=is2xx)
    emit(METRIC_PATH, p2, ones, mask=pc.and_(is2xx, pc.not_equal(p2, "")))
    emit(METRIC_PATH, p3, ones, mask=pc.and_(is2xx, pc.not_equal(p3, "")))

    emit(METRIC_UA_FAMILY, batch.column("ua_family").combine_chunks(), ones)
    emit(METRIC_OS_FAMILY, batch.column("ua_os").combine_chunks(), ones)
    emit(METRIC_DEVICE_TYPE, batch.column("ua_device_type").combine_chunks(), ones)
    emit(METRIC_IS_HUMAN, batch.column("ua_human").combine_chunks(), ones)
    emit(METRIC_REQUEST_INTENT, batch.column("ua_intent").combine_chunks(), ones)

    long_t = pa.concat_tables(pieces)
    # the sbo_metrics sink truncates key_value to 100 bytes
    # (ReduceToMaxColumnLen, db/mysqldb.go:152), merging counts for keys
    # sharing a 100-byte prefix; applied BEFORE any aggregation so the
    # merge happens here instead of in a DB upsert
    from .route import _truncate

    kv = one_array(long_t.column("key_value"))
    return long_t.set_column(
        long_t.schema.get_field_index("key_value"), "key_value",
        _truncate(kv, 100),
    )


def metric_fanout(batch: pa.Table) -> pa.Table:
    """Enriched batch -> pre-aggregated long metric rows."""
    long_t = fanout_long(batch, None)
    if long_t.num_rows == 0:
        return long_t
    # partial pre-aggregation: shrink before the global shuffle
    agg = long_t.group_by(GROUP_KEYS).aggregate([("metric_value", "sum")])
    agg = agg.rename_columns(GROUP_KEYS + ["metric_value"])
    return agg.cast(METRIC_SCHEMA)


COUNTER_DIMENSIONS = (
    # dimension name -> enriched column (counter.go:147-226; note the
    # paths dimension counts the FULL Path, not Path1-3, counter.go:222)
    ("clients", "client_ip"),
    ("status_codes", "status"),
    ("methods", "method"),
    ("ua_families", "ua_family"),
    ("os_families", "ua_os"),
    ("device_types", "ua_device_type"),
    ("referers", "referer"),
    ("paths", "path"),
    ("intents", "ua_intent"),
)

COUNTER_SCHEMA = pa.schema([
    ("source", pa.string()),
    ("dimension", pa.string()),
    ("key_value", pa.string()),
    ("cnt", pa.int64()),
])


def counter_melt(batch: pa.Table) -> pa.Table:
    """All 9 keyed counter dimensions (counter.go:147-226) melted into one
    long table with per-batch partial counts: one shuffle for all nine.
    Keyed by ``source`` because the reference runs one CounterHandler per
    monitored file (main.go:692-694)."""
    batch = parsed_columns(
        batch, ("source", *(col for _, col in COUNTER_DIMENSIONS)))
    if batch.num_rows == 0:
        return COUNTER_SCHEMA.empty_table()
    n = batch.num_rows
    ones = pa.array(np.ones(n, dtype=np.int64))
    source = batch.column("source").combine_chunks()
    pieces = []
    for dim, col in COUNTER_DIMENSIONS:
        dim_arr = const_str(n, dim)
        pieces.append(
            pa.Table.from_arrays(
                [source, dim_arr, batch.column(col).combine_chunks(), ones],
                schema=COUNTER_SCHEMA,
            )
        )
    long_t = pa.concat_tables(pieces)
    agg = long_t.group_by(["source", "dimension", "key_value"]).aggregate(
        [("cnt", "sum")]
    )
    return agg.rename_columns(
        ["source", "dimension", "key_value", "cnt"]
    ).cast(COUNTER_SCHEMA)


GLOBAL_COUNTER_SCHEMA = pa.schema([
    ("handled", pa.int64()),
    ("requests", pa.int64()),
    ("bytes_sent", pa.int64()),
    ("humans", pa.int64()),
    ("non_humans", pa.int64()),
    ("malicious", pa.int64()),
    ("parse_errors", pa.int64()),
])


def global_counter_partial(batch: pa.Table) -> pa.Table:
    """One-row partial of the global counters (counter.go:58-84, 137-229)
    plus the parse-error count (main.go:700-707)."""
    good = parsed_columns(batch, ("ua_human", "malicious", "bytes_sent"))
    n = good.num_rows
    human = pc.sum(pc.equal(good.column("ua_human"), "Human")).as_py() or 0
    nonhuman = pc.sum(pc.equal(good.column("ua_human"), "NonHuman")).as_py() or 0
    malicious = pc.sum(pc.not_equal(good.column("malicious"), 0)).as_py() or 0
    bytes_sent = pc.sum(good.column("bytes_sent")).as_py() or 0
    errors = batch.num_rows - n
    return pa.Table.from_pydict(
        {
            "handled": [n],
            "requests": [n],
            "bytes_sent": [bytes_sent],
            "humans": [human],
            "non_humans": [nonhuman],
            "malicious": [malicious],
            "parse_errors": [errors],
        },
        schema=GLOBAL_COUNTER_SCHEMA,
    )
