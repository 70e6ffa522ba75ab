"""Raw-log routing sink: relevance filter + SaveRawLog projection.

Re-expresses the reference's MySQL raw-log sink as a per-``source``
partitioned Parquet writer:

- relevance gate (``SaveLogsToDbOnlyRelevant==1``, ``main.go:768-779``):
  keep iff malicious==UNKNOWN AND status starts with 2 or 5 AND
  device_type != Script AND family not in {Scanner, SEOBot, Script}
  (SocialBot/SearchBot are commented out in the reference — kept);
- column projection with byte-wise truncation, the path3->path2->path1
  fallback and IP masking (null IP + keep-last-part UA truncation)
  (``db/mysqldb.go:161-238``);
- the untouched ``tokens`` column rides along for the per-row
  token-array-equality invariant (BASELINE.json input_hint).

It is the one per-batch sink that moves ``tokens``, and it copies them
once: ``parse_ok`` and the relevance gate form one mask, and one filter
over the projection's own columns (``ROUTED_COLUMNS``) keeps the routed
rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..codec import one_array
from ..functions.loglines import reduce_to_max_len, reduce_to_max_len_keeping_last

ROUTED_SCHEMA = pa.schema([
    ("source", pa.string()),
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("request_ts", pa.timestamp("s")),
    ("client_ip", pa.string()),
    ("remote_user", pa.string()),
    ("http_method", pa.string()),
    ("path3", pa.string()),
    ("request_uri", pa.string()),
    ("http_status", pa.string()),
    ("bytes_sent", pa.int64()),
    ("referer", pa.string()),
    ("is_malicious", pa.int8()),
    ("ua_string", pa.string()),
    ("ua_os", pa.string()),
    ("ua_family", pa.string()),
    ("ua_device_type", pa.string()),
    ("ua_is_human", pa.string()),
    ("ua_intent", pa.string()),
])


# the enriched columns the projection reads
ROUTED_COLUMNS = (
    "source", "doc_id", "tokens", "ts", "client_ip", "remote_user", "method",
    "path1", "path2", "path3", "path", "status", "bytes_sent", "referer",
    "malicious", "ua_fullname", "ua_os", "ua_family", "ua_device_type",
    "ua_human", "ua_intent",
)


def relevance_mask(batch: pa.Table) -> pa.Array:
    """main.go:768-779, applied to parsed rows."""
    status = batch.column("status").combine_chunks()
    fam = batch.column("ua_family").combine_chunks()
    return pc.and_(
        pc.and_(
            pc.equal(batch.column("malicious").combine_chunks(), 0),
            pc.or_(pc.starts_with(status, "2"), pc.starts_with(status, "5")),
        ),
        pc.and_(
            pc.not_equal(batch.column("ua_device_type").combine_chunks(), "Script"),
            pc.and_(
                pc.not_equal(fam, "Scanner"),
                pc.and_(pc.not_equal(fam, "SEOBot"), pc.not_equal(fam, "Script")),
            ),
        ),
    )


def _truncate(arr: pa.Array, limit: int, keep_last: bool = False) -> pa.Array:
    """Byte-wise truncation (db/mysqldb.go:224-238). Fast path: if no value
    exceeds the byte limit, return the array untouched; otherwise fix the
    *dictionary* (unique values) and expand with an Arrow take — the
    Python truncation runs once per distinct long value, not per row."""
    arr = one_array(arr)
    lengths = pc.binary_length(arr.cast(pa.binary()))
    mx = pc.max(lengths).as_py()
    if mx is None or mx <= limit:
        return arr
    fn = reduce_to_max_len_keeping_last if keep_last else reduce_to_max_len
    enc = pc.dictionary_encode(arr)
    fixed = [
        v if v is None or len(v.encode()) <= limit else fn(v, limit)
        for v in enc.dictionary.to_pylist()
    ]
    return pa.DictionaryArray.from_arrays(
        enc.indices, pa.array(fixed, type=pa.string())
    ).cast(pa.string())


def routed_projection(batch: pa.Table, mask_ips: bool = False,
                      relevant_only: bool = True) -> pa.Table:
    """Enriched batch -> routed raw-log rows (SaveRawLog projection)."""
    keep = batch.column("parse_ok")
    if relevant_only:
        # Kleene AND: a parse failure is false whatever its fields hold
        keep = pc.and_kleene(keep, relevance_mask(batch))
    batch = batch.select(list(ROUTED_COLUMNS)).filter(keep)
    n = batch.num_rows
    if n == 0:
        return ROUTED_SCHEMA.empty_table()

    p1 = batch.column("path1").combine_chunks()
    p2 = batch.column("path2").combine_chunks()
    p3 = batch.column("path3").combine_chunks()
    path_up_to_3 = pc.if_else(
        pc.not_equal(p3, ""), p3, pc.if_else(pc.not_equal(p2, ""), p2, p1)
    )

    if mask_ips:
        client_ip = pa.nulls(n, pa.string())
        ua_string = _truncate(batch.column("ua_fullname"), 100, keep_last=True)
    else:
        client_ip = batch.column("client_ip").combine_chunks()
        ua_string = _truncate(batch.column("ua_fullname"), 100)

    cols = {
        "source": batch.column("source"),
        "doc_id": batch.column("doc_id"),
        "tokens": batch.column("tokens"),
        "request_ts": batch.column("ts"),
        "client_ip": client_ip,
        "remote_user": _truncate(batch.column("remote_user"), 100),
        "http_method": _truncate(batch.column("method"), 20),
        "path3": _truncate(path_up_to_3, 100),
        "request_uri": _truncate(batch.column("path"), 100),
        "http_status": batch.column("status"),
        "bytes_sent": batch.column("bytes_sent"),
        "referer": _truncate(batch.column("referer"), 100),
        "is_malicious": batch.column("malicious"),
        "ua_string": ua_string,
        "ua_os": _truncate(batch.column("ua_os"), 20),
        "ua_family": _truncate(batch.column("ua_family"), 20),
        "ua_device_type": _truncate(batch.column("ua_device_type"), 20),
        "ua_is_human": _truncate(batch.column("ua_human"), 20),
        "ua_intent": _truncate(batch.column("ua_intent"), 20),
    }
    arrays = []
    for name, typ in zip(ROUTED_SCHEMA.names, ROUTED_SCHEMA.types):
        col = one_array(cols[name])
        if col.type != typ:
            col = col.cast(typ)
        arrays.append(col)
    return pa.Table.from_arrays(arrays, schema=ROUTED_SCHEMA)
