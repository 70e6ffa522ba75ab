"""Relational + events family: broadcast joins, semi/anti joins, TPC-H-style rollups, RFM, incremental/Bloom dedup, embedding-gated curation, sessionization, sliding windows, attribution, cohort LTV.

Imports what it uses by name from the module that defines it, and
callers import this module's ops from here. Monkeypatch a helper where
the op resolves it.
"""
from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .. import exchange as X
from ..functions import dedup as D
from ..functions import text as T

from .dp_common import _col_key, _distinct_users, _read, _user_key
from .dp_dedup import _text_hash_key
from .dp_emb import emb_outlier_scores

# ---- relational demos (broadcast join, grouped aggregates) -----------------


def customer_nation_agg(sf_dir: str):
    """Broadcast hash join customer->nation (ray.put the 25-row dim
    table) + grouped aggregate: count + total acctbal per nation."""
    nation = X.fold(
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]), None,
        pa.schema([("n_nationkey", pa.int32()), ("n_name", pa.string())]))
    lookup = dict(zip(nation.column("n_nationkey").to_pylist(),
                      nation.column("n_name").to_pylist()))
    lookup_ref = ray.put(lookup)

    def enrich(batch: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        keys = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
        names = pa.array([lk.get(int(k), "") for k in keys], type=pa.string())
        t = batch.append_column("n_name", names)
        g = t.group_by("n_name").aggregate([("c_custkey", "count"), ("c_acctbal", "sum")])
        return g.rename_columns(["n_name", "n_customers", "total_acctbal"])

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])
    g = X.merge(ds, enrich, ["n_name"], pa.schema([
        ("n_name", pa.string()), ("n_customers", pa.int64()),
        ("total_acctbal", pa.float64())]))
    return pa.table({
        "n_name": g.column("n_name"),
        "n_customers": g.column("n_customers"),
        "total_acctbal": np.round(g.column("total_acctbal").to_numpy(), 2),
    })


_SEMI_ORD = pa.schema([("o_orderpriority", pa.string()),
                       ("n_orders", pa.int64()),
                       ("total_price", pa.float64())])


def _semi_orders_fold(orders: pa.Table, li: pa.Table) -> pa.Table:
    """One orderkey partition of the orders SEMI-join: orders whose
    orderkey appears among the lineitem keys, folded to per-priority
    (count, price-sum) partials."""
    hit = orders.join(li, "o_orderkey", "l_orderkey", join_type="left semi")
    g = hit.group_by("o_orderpriority").aggregate(
        [("o_orderkey", "count"), ("o_totalprice", "sum")])
    return g.rename_columns(_SEMI_ORD.names)


def orders_with_returns(sf_dir: str, flag: str = "R"):
    """Distributed hash SEMI-join (TPC-H Q4's shape, the EXISTS
    complement of customer_no_orders' anti-join): orders with at least
    one returned lineitem, aggregated per order priority. Both sides
    are corpus-sized, so neither broadcasts: the returnflag filter runs
    in the lineitem read, lineitem ships KEYS ONLY (8 bytes/row),
    orders ship their three needed columns, one two-sided
    ``exchange.part_exchange`` co-locates them by orderkey, and each
    partition emits |priorities|-sized partials the driver sums
    (``exchange.sum_refs``).
    Membership (not join multiplicity) is the semi-join semantics —
    duplicate lineitem keys collapse in Arrow's left-semi join."""
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority", "o_totalprice"])
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def returned(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["l_returnflag"], flag)).select(
            ["l_orderkey"])

    g = X.sum_refs(X.part_exchange(
        (orders, li), (None, returned),
        (_col_key("o_orderkey"), _col_key("l_orderkey")),
        _semi_orders_fold, _SEMI_ORD), ["o_orderpriority"], _SEMI_ORD)
    # np.round: Arrow's round passes a value within an ulp of a cent
    # through unrounded, so the last bit of the sum would show
    return g.set_column(2, "total_price", pa.array(
        np.round(g.column("total_price").to_numpy(), 2)))


_LV_Q = pa.schema([("l_orderkey", pa.int64()), ("sum_qty", pa.int64())])


def _lv_part(thresh: int, t: pa.Table) -> pa.Table:
    """One orderkey partition of the large-volume scan: sum each
    order's quantities, keep orders whose total exceeds ``thresh``."""
    uk, inv = np.unique(t.column("l_orderkey").to_numpy(),
                        return_inverse=True)
    qty = t.column("l_quantity").to_numpy().astype(np.int64)
    sums = np.bincount(inv, weights=qty).astype(np.int64)
    keep = sums > thresh
    return pa.table({"l_orderkey": uk[keep], "sum_qty": sums[keep]},
                    schema=_LV_Q)


def orders_large_volume(sf_dir: str, min_qty: int = 200):
    """TPC-H Q18's shape (large-volume customers): orders whose total
    lineitem quantity exceeds ``min_qty``, joined back to the order and
    its customer name. Distributed shape for a HIGH-CARDINALITY
    aggregate feeding a selective join: lineitem ships its 16-byte
    (orderkey, qty) rows through one orderkey exchange
    (``exchange.part_exchange`` — native groupby over ~distinct
    orderkeys is the 49-vs-6.4 s trap, CLAUDE.md), each partition
    folds sums and applies the HAVING locally, and only the
    OUTPUT-SIZED qualifying key set returns to the driver. That set
    broadcasts once (sorted + searchsorted, the emit_slots idiom) to
    filter the orders scan, and the resulting custkeys broadcast once
    to filter the customer scan — no big-side-vs-big-side shuffle join
    anywhere. Exact-integer
    quantities; o_totalprice is a source passthrough (no arithmetic),
    so the gate is hash-exact."""
    out_schema = pa.schema([
        ("o_orderkey", pa.int64()), ("c_custkey", pa.int64()),
        ("c_name", pa.string()), ("o_totalprice", pa.float64()),
        ("sum_qty", pa.int64()),
    ])
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    q = X.gather(X.part_exchange(li, None, _col_key("l_orderkey"),
                                 functools.partial(_lv_part, min_qty),
                                 _LV_Q), _LV_Q)
    if q.num_rows == 0:
        return out_schema.empty_table()
    qk = np.sort(q.column("l_orderkey").to_numpy(zero_copy_only=False))
    qk_ref = ray.put(qk)

    def hit_orders(t: pa.Table) -> pa.Table:
        k = ray.get(qk_ref)
        ok = t.column("o_orderkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(k, ok)
        m = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == ok)
        return t.filter(pa.array(m))

    hits = X.fold(_read(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_totalprice"]),
                  hit_orders, pa.schema([("o_orderkey", pa.int64()),
                                         ("o_custkey", pa.int64()),
                                         ("o_totalprice", pa.float64())]))
    ck = np.unique(hits.column("o_custkey").to_numpy(zero_copy_only=False))
    ck_ref = ray.put(ck)

    def hit_cust(t: pa.Table) -> pa.Table:
        k = ray.get(ck_ref)
        cc = t.column("c_custkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(k, cc)
        m = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == cc)
        return t.filter(pa.array(m))

    cust = X.fold(_read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
                  hit_cust, pa.schema([("c_custkey", pa.int64()),
                                       ("c_name", pa.string())]))
    # output-bounded driver assembly
    df = (hits.to_pandas()
          .merge(q.to_pandas(), left_on="o_orderkey", right_on="l_orderkey")
          .merge(cust.to_pandas(), left_on="o_custkey",
                 right_on="c_custkey"))
    return pa.table({
        "o_orderkey": pa.array(df["o_orderkey"], pa.int64()),
        "c_custkey": pa.array(df["c_custkey"], pa.int64()),
        "c_name": pa.array(df["c_name"], pa.string()),
        "o_totalprice": pa.array(df["o_totalprice"], pa.float64()),
        "sum_qty": pa.array(df["sum_qty"], pa.int64()),
    })


_RFM = pa.schema([("c_custkey", pa.int64()), ("recency_days", pa.int64()),
                  ("frequency", pa.int64()), ("monetary", pa.float64())])


def _rfm_part(asof_us: int, t: pa.Table) -> pa.Table:
    """One custkey partition of the RFM fold: per-customer last-order
    timestamp (maximum.at), order count (bincount) and revenue sum
    (weighted bincount) over the co-located order rows. Recency rides
    an INTEGER day division ((asof - last) // 86400e6 us) — numpy and
    DuckDB `//` agree exactly on positive int64, no float gate needed
    (the emb_pq_codes idiom)."""
    ck = t.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
    od = t.column("o_orderdate").to_numpy(zero_copy_only=False) \
        .astype("datetime64[us]").astype(np.int64)
    tp = t.column("o_totalprice").to_numpy(zero_copy_only=False)
    uk, inv = np.unique(ck, return_inverse=True)
    freq = np.bincount(inv, minlength=len(uk)).astype(np.int64)
    mon = np.bincount(inv, weights=tp, minlength=len(uk))
    last = np.full(len(uk), np.iinfo(np.int64).min)
    np.maximum.at(last, inv, od)
    rec = (asof_us - last) // 86_400_000_000
    return pa.table({"c_custkey": pa.array(uk, pa.int64()),
                     "recency_days": pa.array(rec, pa.int64()),
                     "frequency": pa.array(freq, pa.int64()),
                     "monetary": pa.array(np.round(mon, 2), pa.float64())},
                    schema=_RFM)


def customer_rfm(sf_dir: str):
    """Per-customer RFM feature table (recency / frequency / monetary —
    the classic CRM segmentation input, here the customer-level feature
    build a ranking job would run): recency in whole days from the
    customer's last order to the corpus max order date, order count,
    and revenue sum. HIGH-CARDINALITY key (customers ~ corpus-sized),
    so the shape is one custkey exchange (``exchange.part_exchange``;
    CLAUDE.md: native groupby over ~distinct keys is the 49-vs-6.4 s
    trap): orders ship their three needed columns as table slices,
    each partition folds its customers with bincount/maximum.at, and
    the customer-sized OUTPUT becomes a Dataset straight from the
    combine-task refs (``from_arrow_refs``) — it never concats on the
    driver. The as-of date is a separate column-pruned scan folding one
    int64 per block (mirrors the oracle's scalar subquery).

    Analog of the reference's keyed-counter rollup over a persistent
    key space (metrics/SBOMetrics.go keyed counters), applied to the
    orders table."""
    asof = _read(sf_dir, "orders", columns=["o_orderdate"])

    def block_max(t: pa.Table) -> pa.Table:
        m = pc.max(t.column("o_orderdate"))
        v = [] if m.value is None else \
            [np.datetime64(m.value, "us").astype(np.int64)]
        return pa.table({"m": pa.array(v, pa.int64())})

    maxes = X.fold(asof, block_max, pa.schema([("m", pa.int64())]))
    if not maxes.num_rows:
        return rd.from_arrow(_RFM.empty_table())
    asof_us = pc.max(maxes.column("m")).as_py()
    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderdate", "o_totalprice"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, None, _col_key("o_custkey"),
        functools.partial(_rfm_part, asof_us), _RFM))


_INC_DD = pa.schema([("doc_id", pa.int64()), ("n_copies", pa.int64())])


def _inc_dedup_part(t: pa.Table) -> pa.Table:
    """One hash partition of the incremental dedup: (text_hash, doc_id)
    rows where even ids are the EXISTING corpus and odd ids the new
    snapshot. Emits, per hash absent from the existing side, the new
    side's min doc_id + copy count (sorted-unique anti-probe, then one
    lexsort + segment fold). Sorted by doc_id for determinism."""
    ks = t.column("text_hash").to_numpy()
    ids = t.column("doc_id").to_numpy()
    is_new = (ids % 2) == 1
    old_k = np.unique(ks[~is_new])
    fresh = is_new & ~np.isin(ks, old_k)
    nk, nid = ks[fresh], ids[fresh]
    o = np.lexsort((nid, nk))
    nk, nid = nk[o], nid[o]
    first = np.ones(len(nk), dtype=bool)
    first[1:] = nk[1:] != nk[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(nk)))
    keep_ids = nid[starts]
    oo = np.argsort(keep_ids, kind="stable")
    return pa.table({"doc_id": keep_ids[oo],
                     "n_copies": counts[oo].astype(np.int64)},
                    schema=_INC_DD)


def doc_dedup_incremental(sf_dir: str):
    """INCREMENTAL exact dedup — dedup a new snapshot against an
    already-ingested corpus (the pass a rolling CommonCrawl pipeline
    runs per crawl: new docs survive only if their content hash is
    unseen in ALL previous snapshots, then first-wins within the new
    batch). Even doc_ids stand in for the existing corpus, odd for the
    incoming snapshot. Both sides are corpus-sized, so this is the
    distributed hash ANTI-join (customer_no_orders idiom) on the
    content hash: one fused scan hashes per-unique and routes 16-byte
    (hash, doc_id) rows by hash (``exchange.part_exchange``); each
    partition anti-probes the existing side via sorted uniques and
    folds the survivors' min-id + copy count in one lexsort. Text
    never enters the exchange; no driver state; output rides
    ``from_arrow_refs``."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def hash_rows(t: pa.Table) -> pa.Table:
        return D.add_text_hash(t).select(["text_hash", "doc_id"])

    return rd.from_arrow_refs(X.part_exchange(
        ds, hash_rows, _text_hash_key, _inc_dedup_part, _INC_DD))


_BLOOM_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5],
                      dtype=np.uint64)


def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions for 63-bit content hashes: k independent
    multiplicative mixes of the same hash, top bits, mod m."""
    hu = h.astype(np.uint64)
    return np.stack([((hu * _BLOOM_MIX[i]) >> np.uint64(17))
                     % np.uint64(m_bits) for i in range(k)],
                    axis=1).astype(np.int64)


def _bloom_test(bloom: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Membership test: all k bits set (bloom = packed uint8 bits)."""
    bits = (bloom[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return bits.all(axis=1)


def doc_dedup_bloom(sf_dir: str, m_bits: int = 1 << 22, k: int = 4):
    """Bloom-filter INCREMENTAL dedup — the sketch-mode twin of
    ``doc_dedup_incremental`` (the at-scale first-pass filter a rolling
    crawl pipeline runs before any exact exchange): build a Bloom
    filter over the EXISTING corpus (even doc_ids), broadcast it once,
    and keep snapshot docs (odd ids) whose k bits are not all set —
    "definitely new". One-sided error by construction: NO false
    negatives (every true duplicate is dropped; pinned in tests), a
    bounded false-positive rate ((1 - e^(-kn/m))^k, asserted), and the
    block bitmaps OR-merge associatively (merge law, asserted).

    Distributed shape: per-block packed bitmaps (m/8 bytes, corpus
    independent) fold on the driver by OR — the bounded-partial idiom;
    the merged filter broadcasts via ray.put; the filter pass is
    block-local. SQL-gated since r5 (SQL_DOC_DEDUP_BLOOM): the sketch
    is deterministic integer arithmetic, so its false positives
    reproduce bit-for-bit in DuckDB (HUGEINT mod-2^64 mixes).
    Exactness twin: doc_dedup_incremental."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    m_bytes = m_bits // 8

    def block_bloom(t: pa.Table) -> pa.Table:
        h = D.add_text_hash(t).column("text_hash").to_numpy(
            zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        h = h[ids % 2 == 0]  # existing corpus side only
        bm = np.zeros(m_bits, dtype=np.uint8)
        if len(h):
            pos = _bloom_positions(h, m_bits, k).ravel()
            bm[pos] = 1
        return pa.table({"bloom": pa.array([np.packbits(
            bm, bitorder="little").tobytes()], pa.binary())})

    merged = np.zeros(m_bytes, dtype=np.uint8)
    for b in ds.map_batches(block_bloom, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow", batch_size=None):
        for blob in b.column("bloom").to_pylist():
            np.bitwise_or(merged, np.frombuffer(blob, dtype=np.uint8),
                          out=merged)
    bloom_ref = ray.put(merged)

    def keep_new(t: pa.Table) -> pa.Table:
        bloom = ray.get(bloom_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        snap = t.filter(pa.array(ids % 2 == 1))
        if snap.num_rows == 0:
            return pa.schema([("doc_id", pa.int64())]).empty_table()
        h = D.add_text_hash(snap).column("text_hash").to_numpy(
            zero_copy_only=False)
        seen = _bloom_test(bloom, _bloom_positions(h, m_bits, k))
        return pa.table({"doc_id": snap.column("doc_id").cast(
            pa.int64()).filter(pa.array(~seen))})

    return ds.map_batches(keep_new, batch_format="pyarrow")


_NO_ORD = pa.schema([("c_nationkey", pa.int64()),
                     ("n_no_order_customers", pa.int64())])


def _no_orders_fold(cust: pa.Table, orders: pa.Table) -> pa.Table:
    """One custkey partition of the customer ANTI-join: customers whose
    custkey no order carries, counted per nation."""
    return cust.join(orders, "c_custkey", "o_custkey",
                     join_type="left anti").group_by("c_nationkey") \
        .aggregate([([], "count_all")]).rename_columns(_NO_ORD.names)


def customer_no_orders(sf_dir: str, status: str = "F"):
    """Distributed ANTI-join (TPC-H Q22's core): customers with NO
    fulfilled (``o_orderstatus == status``) orders, counted per
    nation. Both sides are corpus-sized at scale, so neither
    broadcasts: one two-sided ``exchange.part_exchange`` co-locates
    every custkey's customer row and order keys in the same partition
    (8-16 bytes/row), each partition emits per-nation missing counts
    via Arrow's left-anti join, and the driver sums P x |nations| tiny
    partials (``exchange.sum_refs``). The status filter runs in the
    orders read (predicate before the exchange)."""
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus"])

    def with_status(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["o_orderstatus"], status)).select(
            ["o_custkey"])

    return X.sum_refs(X.part_exchange(
        (cust, orders), (None, with_status),
        (_col_key("c_custkey"), _col_key("o_custkey")), _no_orders_fold,
        _NO_ORD), ["c_nationkey"], _NO_ORD)


_EMB_CUR = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                      ("cos_mean", pa.float64())])


def _emb_cur_fold(ts: pa.Table, es: pa.Table) -> pa.Table:
    """One hash partition of the text x embedding curation join:
    ``ts`` are (doc_id, n_tokens) gate-passing text rows, ``es``
    (vec_id, cos-in-micro-units) inlier embedding rows; output sorted
    by doc_id for per-partition determinism. ``cos_int / 1e6``
    reproduces ROUND(cos, 6) exactly: both are the nearest double to
    the same decimal."""
    j = ts.join(es, "doc_id", "vec_id", join_type="inner").sort_by("doc_id")
    return j.set_column(2, "cos_mean", pc.divide(
        j.column("cos_int").cast(pa.float64()), 1e6))


def doc_emb_curation(sf_dir: str, lang: str = "en", min_tokens: int = 20,
                     max_tokens: int = 1000, min_stop_ratio: float = 0.015,
                     cos_threshold: float = 0.0):
    """JOINT text + embedding curation — the multi-signal quality gate a
    production pretraining pipeline runs (e.g. DataComp-LM-style
    filtering): a document survives only if its TEXT passes the
    language/length/stopword gates AND its EMBEDDING is an inlier
    (cosine vs the corpus mean >= threshold, emb_outlier_scores'
    criterion). Documents and embeddings are BOTH corpus-sized, so
    neither side broadcasts: each side gates block-locally first (text
    stats via one fused scan, cosines via the two-pass broadcast-mean
    scorer), then ONE two-sided ``exchange.part_exchange`` (16
    bytes/row, survivors only) co-locates every doc's text row and
    embedding row, and each partition emits matches via Arrow's inner
    join. Output rides ``from_arrow_refs`` — kept rows never concat on
    the driver.
    Cosines cross the exchange as ROUND-6 micro-units (int64) so the
    join carries integers only and the float reconstruction is exact
    on both engine and oracle sides."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    SCALE = 10000
    thr = int(round(min_stop_ratio * SCALE))

    def text_gate(batch: pa.Table) -> pa.Table:
        stats = T.annotate_stats(batch)
        alpha = pc.max_element_wise(stats.column("n_alpha_tokens"), 1)
        ratio_ok = pc.greater_equal(
            pc.multiply(pc.cast(stats.column("n_stop_en"), pa.int64()),
                        pa.scalar(SCALE, pa.int64())),
            pc.multiply(pc.cast(alpha, pa.int64()),
                        pa.scalar(thr, pa.int64())),
        )
        m = pc.and_(
            pc.equal(stats.column("pred_lang"), lang),
            pc.and_(
                pc.and_(
                    pc.greater_equal(stats.column("n_tokens"), min_tokens),
                    pc.less_equal(stats.column("n_tokens"), max_tokens)),
                ratio_ok,
            ),
        )
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(stats.column("n_tokens"), pa.int64()),
        }).filter(m)

    def emb_gate(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.greater_equal(t.column("cos_mean"),
                                         pa.scalar(cos_threshold)))
        micro = pc.round(pc.multiply(keep.column("cos_mean"),
                                     pa.scalar(1e6)))
        return pa.table({"vec_id": keep.column("vec_id"),
                         "cos_int": pc.cast(micro, pa.int64())})

    trefs = X.block_refs(docs.map_batches(text_gate, batch_format="pyarrow"))
    if not trefs:
        return rd.from_arrow(_EMB_CUR.empty_table())
    # scored only when a document survives: the scorer's mean pass
    # reads every embedding eagerly
    return rd.from_arrow_refs(X.part_exchange(
        (rd.from_arrow_refs(trefs),
         emb_outlier_scores(sf_dir, threshold=cos_threshold)),
        (None, emb_gate), (_col_key("doc_id"), _col_key("vec_id")),
        _emb_cur_fold, _EMB_CUR))


def orders_mktsegment_revenue(sf_dir: str):
    """Both-sides-distributed hash join (a two-sided
    ``exchange.part_exchange`` on the custkey): orders x customer ->
    revenue per market segment. Complements the broadcast-join path
    (customer_nation_agg) with the shuffle-join primitive."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    out = pa.schema([("c_mktsegment", pa.string()), ("revenue", pa.float64()),
                     ("n_orders", pa.int64())])

    def fold(o: pa.Table, c: pa.Table) -> pa.Table:
        g = o.join(c, "o_custkey", "c_custkey", join_type="inner").group_by(
            "c_mktsegment").aggregate([("o_totalprice", "sum"),
                                       ("o_totalprice", "count")])
        return g.rename_columns(out.names)

    g = X.sum_refs(X.part_exchange(
        (orders, customer), (None, None),
        (_col_key("o_custkey"), _col_key("c_custkey")), fold, out),
        ["c_mktsegment"], out)
    return pa.table({
        "c_mktsegment": g.column("c_mktsegment"),
        "n_orders": g.column("n_orders"),
        "revenue": np.round(g.column("revenue").to_numpy(), 2),
    })


_Q3 = pa.schema([("l_orderkey", pa.int64()),
                 ("o_orderdate", pa.timestamp("us")),
                 ("revenue", pa.float64())])


def _q3_top(t: pa.Table, k: int) -> pa.Table:
    """TPC-H Q3's top-k rule over (l_orderkey, o_orderdate, revenue)
    rows: round2(revenue) desc, o_orderdate asc, key asc."""
    keys = t.column("l_orderkey").to_numpy()
    dates = t.column("o_orderdate").to_numpy() \
        .astype("datetime64[us]").astype(np.int64)
    rev = np.round(t.column("revenue").to_numpy(), 2)
    order = np.lexsort((keys, dates, -rev))[:k]
    return pa.table({
        "l_orderkey": keys[order],
        "o_orderdate": t.column("o_orderdate").take(pa.array(order)),
        "revenue": rev[order],
    }, schema=_Q3)


def orders_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                             date: str = "1995-03-15", k: int = 10):
    """TPC-H Q3 (shipping priority): top-k unshipped orders by revenue
    for one market segment — the canonical 3-table analytical join.
    Distributed shape, over two two-sided ``exchange.part_exchange``
    joins (every side corpus-sized, so none broadcasts): date-filtered
    orders x segment-filtered customers on the custkey, then
    date-filtered lineitem (per-block, per-order partial revenues)
    x those orders on the orderkey. The second exchange routes by
    orderkey, so each partition's per-order sums are exact, and each
    partition keeps its local top-k under the FINAL
    (round2(revenue) desc, o_orderdate asc, key asc) rule
    (``_q3_top``, which the driver applies again to the P x k rows).
    Exact SQL mirror."""
    cutoff = pa.scalar(pd.Timestamp(date))
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])
    dated = pa.schema([("o_orderkey", pa.int64()),
                       ("o_orderdate", pa.timestamp("us"))])

    def in_segment(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["c_mktsegment"], segment)).select(
            ["c_custkey"])

    def placed(o: pa.Table) -> pa.Table:
        return o.filter(pc.less(o["o_orderdate"], cutoff))

    def revenue(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], cutoff))
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "revenue": pc.multiply(t["l_extendedprice"], pc.subtract(
                pa.scalar(1.0), t["l_discount"])),
        }).group_by("l_orderkey").aggregate([("revenue", "sum")]) \
            .rename_columns(["l_orderkey", "revenue"])

    def top_part(rev: pa.Table, o: pa.Table) -> pa.Table:
        j = rev.join(o, "l_orderkey", "o_orderkey", join_type="inner")
        return _q3_top(j.group_by(["l_orderkey", "o_orderdate"]).aggregate(
            [("revenue", "sum")]).rename_columns(_Q3.names), k)

    orders_ds = rd.from_arrow_refs(X.part_exchange(
        (orders, cust), (placed, in_segment),
        (_col_key("o_custkey"), _col_key("c_custkey")),
        lambda o, c: o.join(c, "o_custkey", "c_custkey", join_type="inner"),
        dated))
    return _q3_top(X.gather(X.part_exchange(
        (li, orders_ds), (revenue, None),
        (_col_key("l_orderkey"), _col_key("o_orderkey")), top_part, _Q3),
        _Q3), k)


def lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary (grouped multi-aggregate): a
    bounded keyed sum, so one ``exchange.merge`` of per-block partials.
    The money columns sum as decimals (TPC-H's DECIMAL(15,2)), so each
    sum is exact and ROUND(.., 2) rounds a half cent up: a float sum's
    last bit follows the block layout and arrival order, and two
    groups' exact sums sit on a half cent (sf0.001, sf0.1)."""
    cutoff = pa.scalar(pd.Timestamp("1998-09-02"))
    keys = ["l_returnflag", "l_linestatus"]
    cents, micros = pa.decimal128(38, 2), pa.decimal128(38, 4)
    schema = pa.schema([
        ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
        ("sum_qty", pa.float64()), ("sum_base_price", cents),
        ("sum_disc_price", micros), ("count_order", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        price = t["l_extendedprice"].cast(pa.decimal128(15, 2))
        disc = pc.multiply(price, pc.subtract(
            pa.scalar(1, price.type), t["l_discount"].cast(price.type)))
        return t.append_column("price", price.cast(cents)) \
            .append_column("disc_price", disc.cast(micros)) \
            .group_by(keys).aggregate(
                [("l_quantity", "sum"), ("price", "sum"),
                 ("disc_price", "sum"), ([], "count_all")]) \
            .rename_columns(schema.names)

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_shipdate"])
    g = X.merge(ds, partial, keys, schema).sort_by(
        [(k, "ascending") for k in keys])
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        g = g.set_column(g.schema.get_field_index(c), c, pc.round(
            g[c], 2, round_mode="half_towards_infinity").cast(pa.float64()))
    return g


def orders_by_month(sf_dir: str):
    """Orders per month: count + rounded revenue."""

    def partial(t: pa.Table) -> pa.Table:
        month = pc.strftime(t["o_orderdate"], format="%Y-%m")
        g = pa.table({
            "month": month,
            "o_totalprice": t["o_totalprice"],
        }).group_by("month").aggregate([("o_totalprice", "sum"), ("o_totalprice", "count")])
        return g.rename_columns(["month", "revenue", "n_orders"])

    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
    g = X.merge(ds, partial, ["month"], pa.schema([
        ("month", pa.string()), ("revenue", pa.float64()),
        ("n_orders", pa.int64())]))
    return pa.table({
        "month": g.column("month"),
        "n_orders": g.column("n_orders"),
        "revenue": np.round(g.column("revenue").to_numpy(), 2),
    })


def events_sliding_window(sf_dir: str, size_minutes: int = 60,
                          slide_minutes: int = 15):
    """Sliding (hopping) window aggregate — the overlapping-window
    operator the brief names alongside as-of/range join. Every event
    belongs to ``k = size/slide`` windows (size must be a multiple of
    slide); the expansion happens INSIDE the block-local partial (row
    indices repeated k times via Arrow take + one group_by per block),
    so only (window_start, event_type) partial rows — never expanded
    events — leave a worker. Same partial+merge shape as
    events_hourly: bounded-cardinality merge on the driver."""
    if size_minutes % slide_minutes:
        raise ValueError("size must be a multiple of slide")
    k = size_minutes // slide_minutes
    slide_us = np.int64(slide_minutes) * 60 * 1_000_000

    def partial(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ts = t.column("ts").to_numpy(zero_copy_only=False)
        bucket = ts.astype("datetime64[us]").astype(np.int64) // slide_us
        idx = np.repeat(np.arange(n), k)
        wstart = (bucket[:, None] - np.arange(k)[None, :]).ravel() * slide_us
        g = pa.table({
            "window_start": pa.array(wstart.astype("datetime64[us]")),
            "event_type": t.column("event_type").take(pa.array(idx)),
            "value": t.column("value").take(pa.array(idx)),
        }).group_by(["window_start", "event_type"]).aggregate(
            [("value", "sum"), ("value", "count")])
        return g.rename_columns(
            ["window_start", "event_type", "sum_value", "n_events"])

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    g = X.merge(ds, partial, ["window_start", "event_type"], pa.schema([
        ("window_start", pa.timestamp("us")), ("event_type", pa.string()),
        ("sum_value", pa.float64()), ("n_events", pa.int64())]))
    return pa.table({
        "window_start": g.column("window_start"),
        "event_type": g.column("event_type"),
        "n_events": g.column("n_events"),
        "sum_value": np.round(g.column("sum_value").to_numpy(), 2),
    })


def events_sliding_distinct(sf_dir: str, size_minutes: int = 60,
                            slide_minutes: int = 15):
    """Sliding-window DISTINCT users — the overlapping-window form of
    exact DAU (concurrent-user curves, rolling reach). Distinct counts
    don't partial-sum, so this composes the two proven layouts: the
    sliding expansion happens block-locally (every event joins its
    k = size/slide windows, then the block dedupes its (window, user)
    pairs — volume drops before anything leaves the worker), ONE
    user_id exchange (``exchange.part_exchange``, the
    events_daily_active layout) co-locates every copy of a user, each
    partition dedupes and counts per window over its DISJOINT user set,
    and the driver sums P x |windows| ints (``exchange.sum_refs``).
    Nothing user-sized lands anywhere central.
    COUNT(DISTINCT)-over-expansion SQL mirror."""
    if size_minutes % slide_minutes:
        raise ValueError("size must be a multiple of slide")
    k = size_minutes // slide_minutes
    slide_us = np.int64(slide_minutes) * 60 * 1_000_000

    def pairs(block: pa.Table) -> pa.Table:
        n = block.num_rows
        ts = block.column("ts").to_numpy(zero_copy_only=False)
        bucket = ts.astype("datetime64[us]").astype(np.int64) // slide_us
        idx = np.repeat(np.arange(n), k)
        wstart = (bucket[:, None] - np.arange(k)[None, :]).ravel() * slide_us
        return pa.table({
            "window_start": pa.array(wstart.astype("datetime64[us]")),
            "user_id": block.column("user_id").take(pa.array(idx)),
        }).group_by(["window_start", "user_id"]).aggregate([])

    OUT = pa.schema([("window_start", pa.timestamp("us")),
                     ("n_users", pa.int64())])
    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    return X.sum_refs(X.part_exchange(
        ds, pairs, _user_key,
        functools.partial(_distinct_users, "window_start"), OUT),
        ["window_start"], OUT)


def events_transitions(sf_dir: str):
    """Per-user next-event transition counts (sequence bigrams) — the
    Markov-chain / funnel building block. Hash-partition by user so
    each partition holds complete user histories, sort once per
    partition by (user, ts, event_id), vectorized shift-compare for
    adjacency (a pair exists only when the shifted row is the SAME
    user), then a block-local (from_type, to_type) partial count; the
    driver sums the tiny |types|^2 partial rows (``exchange.sum_refs``).
    Text of events never leaves its partition unaggregated."""

    def bigrams_part(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = np.zeros(len(g), dtype=bool)
        same[:-1] = uid[:-1] == uid[1:]
        out = pd.DataFrame({
            "from_type": et[:-1][same[:-1]],
            "to_type": et[1:][same[:-1]],
        })
        return (out.groupby(["from_type", "to_type"], as_index=False)
                .size().rename(columns={"size": "n"}))

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    out_schema = pa.schema([("from_type", pa.string()),
                            ("to_type", pa.string()), ("n", pa.int64())])
    return X.sum_refs(X.part_exchange(ds, None, _user_key, bigrams_part,
                                      out_schema),
                      ["from_type", "to_type"], out_schema)


_QUANTS = pa.schema([("event_type", pa.string()), ("p50", pa.float64()),
                     ("p90", pa.float64()), ("p99", pa.float64())])


def events_quantiles(sf_dir: str, qs: tuple = (0.5, 0.9, 0.99)):
    """Exact per-group continuous quantiles (p50/p90/p99 of value per
    event_type) — linear interpolation at rank q*(n-1), the
    quantile_cont definition numpy's 'linear' percentile shares.
    Groups route by crc32(event_type) (``exchange.part_exchange``), so
    each group's values land in one partition and one vectorized
    np.percentile call per group suffices; one row per group comes
    back to the driver. Partitioning assumption: one group's values
    fit a worker — for heavy groups or unbounded cardinality the
    approximate path is the CMS/HLL sketch family (stages/sketch.py);
    exact quantiles fundamentally need the group's order statistics
    co-located."""

    def quants_part(t: pa.Table) -> pd.DataFrame:
        rows = []
        for et, v in t.to_pandas().groupby("event_type")["value"]:
            p = np.percentile(v.to_numpy(), [q * 100 for q in qs],
                              method="linear")
            rows.append([et] + [round(float(x), 6) for x in p[:3]])
        return pd.DataFrame(rows, columns=_QUANTS.names)

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return X.gather(X.part_exchange(
        ds, None, lambda t: X.crc_hash(t.column("event_type")),
        quants_part, _QUANTS), _QUANTS).sort_by("event_type")


_ULTV = pa.schema([("user_id", pa.int64()), ("n_events", pa.int64()),
                   ("total_value", pa.float64())])


def _ultv_top(t: pa.Table, k: int) -> pa.Table:
    """events_user_value_topk's top-k rule over (user_id, n_events,
    total_value) rows: round2(value) desc, n desc, user asc."""
    u = t.column("user_id").to_numpy()
    n = t.column("n_events").to_numpy()
    v = np.round(t.column("total_value").to_numpy(), 2)
    order = np.lexsort((u, -n, -v))[:k]
    return pa.table({"user_id": u[order], "n_events": n[order],
                     "total_value": v[order]}, schema=_ULTV)


def events_user_value_topk(sf_dir: str, k: int = 100):
    """Top-k users by lifetime summed value — exact heavy hitters over
    a high-cardinality key (users are unbounded at scale, so the
    vocab_topk-style driver merge is a memory cliff; the CMS sketch is
    the approximate twin). Same layout as doc_vocab_bigrams: block
    partials (one group_by per block — volume drops to block-distinct
    users), ONE user_id exchange (``exchange.part_exchange``),
    per-partition exact sums + LOCAL top-k under the FINAL
    (round2(value) desc, n desc, user asc) key — a user lives in
    exactly one partition, so P local top-ks contain the global top-k;
    driver merges P x k rows. Exact SQL mirror."""
    def partial(block: pa.Table) -> pa.Table:
        return block.group_by("user_id").aggregate(
            [("value", "sum"), ("value", "count")]).rename_columns(
            ["user_id", "total_value", "n_events"])

    def top_part(t: pa.Table) -> pa.Table:
        return _ultv_top(t.group_by("user_id").aggregate(
            [("total_value", "sum"), ("n_events", "sum")]).rename_columns(
            ["user_id", "total_value", "n_events"]), k)

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    return _ultv_top(X.gather(X.part_exchange(
        ds, partial, _user_key, top_part, _ULTV), _ULTV), k)


def events_quantiles_kll(sf_dir: str, qs: tuple = (0.5, 0.9, 0.99)):
    """Approximate per-type value percentiles via mergeable KLL
    sketches — the scale twin of ``events_quantiles`` for heavy groups
    or unbounded group cardinality, where co-locating a group's order
    statistics is the bottleneck the sketch removes (same pairing as
    log_bytes_quantiles / _kll on the log side). One bounded compactor
    ladder per (block, event_type); driver merges |types| x blocks
    sketches. No SQL gate (approximate by construction); rank-error
    and merge law are pinned in tests/test_sketch.py and the exact
    twin brackets it in the query-level test."""
    from ..stages.kll import KLLSketch

    K = 256

    def partial(t: pa.Table) -> pa.Table:
        srcs, sketches = [], []
        enc = pc.dictionary_encode(t.column("event_type").combine_chunks())
        vals = t.column("value").combine_chunks().to_numpy(
            zero_copy_only=False)
        idx = enc.indices.to_numpy(zero_copy_only=False)
        for i, et in enumerate(enc.dictionary.to_pylist()):
            sk = KLLSketch(K)
            sk.add(vals[idx == i])
            srcs.append(et)
            sketches.append(sk.to_bytes())
        return pa.table({
            "event_type": pa.array(srcs, type=pa.string()),
            "sketch": pa.array(sketches, type=pa.binary()),
        })

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    parts = X.fold(ds, partial, pa.schema([("event_type", pa.string()),
                                           ("sketch", pa.binary())]))
    merged: dict = {}
    for et, blob in zip(parts.column("event_type").to_pylist(),
                        parts.column("sketch").to_pylist()):
        sk = KLLSketch.from_bytes(blob)
        if et in merged:
            merged[et].merge(sk)
        else:
            merged[et] = sk
    schema = pa.schema([("event_type", pa.string()), ("p50", pa.float64()),
                        ("p90", pa.float64()), ("p99", pa.float64())])
    rows = sorted(merged.items())
    return pa.table({
        "event_type": pa.array([s for s, _ in rows], type=pa.string()),
        "p50": pa.array([r.quantile(qs[0]) for _, r in rows]),
        "p90": pa.array([r.quantile(qs[1]) for _, r in rows]),
        "p99": pa.array([r.quantile(qs[2]) for _, r in rows]),
    }, schema=schema)


_SESSIONS = pa.schema([
    ("user_id", pa.int64()), ("session_start", pa.timestamp("us")),
    ("session_end", pa.timestamp("us")), ("n_events", pa.int64()),
    ("sum_value", pa.float64()),
])


def events_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows over the events stream: per user, events closer
    than ``gap_minutes`` belong to one session (the classic stream
    sessionization, expressed as one hash-grouped fold over ts-sorted
    user runs).

    Partitioning assumption: one hash partition of users fits in a
    worker (hash-grouped, see exchange.part_exchange). For hot single
    users where even that breaks, use ``events_sessionize_salted`` —
    the two-phase time-bucketed variant with identical output.
    Output: one row per session."""

    def sessions_part(g: pa.Table) -> pd.DataFrame:
        # all users of one hash partition, fully vectorized: session
        # boundaries = user change OR gap > threshold
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        new_user = np.ones(len(g), dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        gaps = g["ts"].diff().dt.total_seconds().to_numpy()
        new_sess = new_user | (gaps > gap_minutes * 60)
        sid = np.cumsum(new_sess)
        out = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "count"),
            sum_value=("value", "sum"),
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = out["sum_value"].round(2)
        return out.reset_index(drop=True)

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, None, _user_key, sessions_part, _SESSIONS))


_RUNNING = pa.schema([
    ("event_id", pa.int64()), ("user_id", pa.int64()),
    ("ts", pa.timestamp("us")), ("running_n", pa.int64()),
    ("running_value", pa.float64()),
])


def events_running_total(sf_dir: str):
    """CUMULATIVE window (ROWS UNBOUNDED PRECEDING) per user — the
    running-balance/LTV-to-date primitive, completing the window
    family next to the time-framed sliding window and the sessionizer:
    every event gets its user's running event count and running value
    sum under the total (ts, event_id) order. Partition-grouped by
    user hash (the sessionize pattern); inside a partition one lexsort
    + cumsum with segment-base subtraction — no per-user Python, no
    per-row state. Running sums are sequential prefix sums on BOTH
    engines (np.cumsum and DuckDB's window accumulate in the same
    order), ROUND-6 absorbs the residue."""
    def running_part(g: pa.Table) -> pd.DataFrame:
        o = np.lexsort((g["event_id"].to_numpy(),
                        g["ts"].to_numpy(), g["user_id"].to_numpy()))
        uid = g["user_id"].to_numpy()[o]
        v = g["value"].to_numpy()[o]
        new = np.ones(len(uid), dtype=bool)
        new[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(new) - 1
        cs = np.cumsum(v)
        starts = np.flatnonzero(new)
        base = (cs[starts] - v[starts])[seg]
        pos = np.arange(len(uid), dtype=np.int64)
        running_n = pos - starts[seg] + 1
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy()[o],
            "user_id": uid,
            "ts": g["ts"].to_numpy()[o],
            "running_n": running_n,
            "running_value": np.round(cs - base, 6),
        })

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, None, _user_key, running_part, _RUNNING))


def events_attribution(sf_dir: str,
                       touch_types: tuple = ("click", "view"),
                       conv_type: str = "purchase",
                       mode: str = "last"):
    """LAST- or FIRST-TOUCH attribution — the marketing-analytics join
    of a conversion event to the same user's most recent (``last``) or
    earliest (``first``) preceding touch event (click/view), under the
    total (ts, event_id) order; revenue and conversion counts fold per
    attributed channel, with 'none' for conversions with no prior
    touch.

    Partition-grouped by user hash (the sessionize pattern); inside a
    partition one lexsort, a fill of touch positions cut at user-run
    starts (maximum.accumulate of positions for last-touch; the same
    accumulate over first-touch-run-anchored positions for first), and
    a shifted lookup — no per-user Python. Partitions emit per-channel
    sufficient stats (n, sum value); the driver sums |channels|+1
    rows (``exchange.sum_refs``). ROUND-2 on the revenue sum (the
    revenue-query convention)."""
    out_schema = pa.schema([("touch_type", pa.string()),
                            ("n_purchases", pa.int64()),
                            ("total_value", pa.float64())])

    def attr_part(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        val = g["value"].to_numpy()
        n = len(g)
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        run_start = np.maximum.accumulate(
            np.where(new_user, np.arange(n), 0))
        touch = np.isin(et, list(touch_types))
        pos = np.where(touch, np.arange(n), -1)
        ff = np.maximum.accumulate(pos)
        prev_ff = np.empty(n, dtype=np.int64)
        prev_ff[0] = -1
        prev_ff[1:] = ff[:-1]
        if mode == "first":
            # a touch is its run's FIRST iff no earlier touch exists in
            # the run; that lone candidate then forward-fills like last
            is_first = touch & (prev_ff < run_start)
            pos_f = np.where(is_first, np.arange(n), -1)
            fff = np.maximum.accumulate(pos_f)
            prev_ff = np.empty(n, dtype=np.int64)
            prev_ff[0] = -1
            prev_ff[1:] = fff[:-1]
        conv = et == conv_type
        valid = conv & (prev_ff >= run_start)
        channel = np.where(valid, et[np.maximum(prev_ff, 0)], "none")
        channel = np.where(conv, channel, "none")
        ch, inv = np.unique(channel[conv], return_inverse=True)
        cnt = np.bincount(inv)
        sv = np.bincount(inv, weights=val[conv])
        return pd.DataFrame({"touch_type": ch,
                             "n_purchases": cnt.astype("int64"),
                             "total_value": sv})

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type", "value"])
    g = X.sum_refs(X.part_exchange(ds, None, _user_key, attr_part,
                                   out_schema), ["touch_type"], out_schema)
    return g.set_column(2, "total_value", pa.array(np.round(
        g.column("total_value").to_numpy(), 2)))


def events_cohort_ltv(sf_dir: str):
    """COHORT LTV table — the classic product-analytics rollup: users
    cohorted by their first-event week, every event bucketed by weeks
    since that cohort week, and per (cohort_week, age_weeks) cell the
    active-user count, event count and purchase revenue. Week indexes
    are exact integer math on microsecond epochs (no float epoch —
    DuckDB CAST rounds where // truncates).

    Partition-grouped by user hash: a user's whole history lands in
    one partition, so per-cell distinct-user counts are exact as
    plain partial sums; inside a partition one lexsort, segment-start
    cohort lookup, and composite-key unique folds. The driver sums
    cells x partitions rows (``exchange.sum_refs``; bounded by the
    corpus time span)."""
    W_US = 604800 * 1_000_000  # one week of microseconds
    out_schema = pa.schema([
        ("cohort_week", pa.int64()), ("age_weeks", pa.int64()),
        ("n_users", pa.int64()), ("n_events", pa.int64()),
        ("revenue", pa.float64()),
    ])

    def cohort_part(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        # normalize pandas' datetime unit explicitly (ns vs us varies)
        e_us = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        et = g["event_type"].to_numpy()
        val = g["value"].to_numpy()
        n = len(g)
        w = e_us // W_US
        new = np.ones(n, dtype=bool)
        new[1:] = uid[1:] != uid[:-1]
        run_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
        cw = w[run_start]  # first row of the user run = min ts = cohort
        age = w - cw
        B = int(age.max()) + 1 if n else 1
        cell = cw * B + age
        uc, inv = np.unique(cell, return_inverse=True)
        n_events = np.bincount(inv)
        rev = np.bincount(inv, weights=np.where(et == "purchase", val, 0.0))
        # distinct users per cell: unique (user, cell) pairs
        pair = np.unique(np.stack([uid, cell], axis=1), axis=0)
        n_users = np.bincount(
            np.searchsorted(uc, pair[:, 1]), minlength=len(uc))
        return pd.DataFrame({
            "cohort_week": (uc // B).astype("int64"),
            "age_weeks": (uc % B).astype("int64"),
            "n_users": n_users.astype("int64"),
            "n_events": n_events.astype("int64"),
            "revenue": rev,
        })

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type", "value"])
    g = X.sum_refs(X.part_exchange(ds, None, _user_key, cohort_part,
                                   out_schema),
                   ["cohort_week", "age_weeks"], out_schema)
    return g.set_column(4, "revenue", pa.array(np.round(
        g.column("revenue").to_numpy(), 2)))


def events_attribution_first(sf_dir: str):
    """FIRST-touch attribution (the other standard model): conversions
    credit the user's EARLIEST preceding touch. Same engine as
    events_attribution with mode='first'; gated against a
    first_value(... IGNORE NULLS) window mirror."""
    return events_attribution(sf_dir, mode="first")


def events_ab_ttest(sf_dir: str):
    """A/B experiment readout — the experimentation-analytics
    primitive: users hash-split into two arms (md5 of the user id, the
    repo's deterministic-assignment idiom — same user always lands in
    the same arm across reruns and partitionings), then Welch's
    t-statistic over per-event values. Distributed shape: ONE streaming
    pass of per-block (arm, n, sum, sumsq) partials, a 2-row driver
    fold — nothing corpus-sized anywhere, the 100-TB shape of every
    sufficient-statistics test. Variance comes EXPLICITLY from the
    (n, sum, sumsq) moments on both sides (DuckDB's VAR_SAMP uses a
    different update rule, so the oracle computes the same closed form
    instead); ROUND-6 absorbs summation-order noise."""
    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    PART = pa.schema([("arm", pa.int64()), ("n", pa.int64()),
                      ("sv", pa.float64()), ("svv", pa.float64())])

    def partial(t: pa.Table) -> pa.Table:
        uid_s = pa.table(
            {"u": t.column("user_id").cast(pa.string())})
        h = D.add_text_hash(uid_s, column="u").column(
            "text_hash").to_numpy(zero_copy_only=False)
        arm = (h % 2).astype(np.int64)
        v = t.column("value").to_numpy(zero_copy_only=False)
        n = np.bincount(arm, minlength=2)
        sv = np.bincount(arm, weights=v, minlength=2)
        svv = np.bincount(arm, weights=v * v, minlength=2)
        return pa.table({"arm": pa.array([0, 1], pa.int64()),
                         "n": pa.array(n.astype(np.int64)),
                         "sv": pa.array(sv), "svv": pa.array(svv)},
                        schema=PART)

    OUT = pa.schema([("n_a", pa.int64()), ("n_b", pa.int64()),
                     ("mean_a", pa.float64()), ("mean_b", pa.float64()),
                     ("t_stat", pa.float64())])
    g = X.merge(ds, partial, ["arm"], PART)
    idx = g.column("arm").to_numpy(zero_copy_only=False)
    n = np.zeros(2, np.int64)
    sv = np.zeros(2)
    svv = np.zeros(2)
    n[idx] = g.column("n").to_numpy(zero_copy_only=False)
    sv[idx] = g.column("sv").to_numpy(zero_copy_only=False)
    svv[idx] = g.column("svv").to_numpy(zero_copy_only=False)
    if (n < 2).any():
        # an arm with <2 events has no sample variance; the SQL mirror
        # likewise emits no row (its a JOIN b finds no pair)
        return OUT.empty_table()
    mean = sv / n
    var = (svv - sv * sv / n) / (n - 1)
    t_stat = (mean[0] - mean[1]) / np.sqrt(var[0] / n[0] + var[1] / n[1])
    return pa.table({
        "n_a": pa.array([n[0]]), "n_b": pa.array([n[1]]),
        "mean_a": pa.array([round(mean[0], 6)]),
        "mean_b": pa.array([round(mean[1], 6)]),
        "t_stat": pa.array([round(float(t_stat), 6)]),
    })


_USER_FEATS = pa.schema([
    ("user_id", pa.int64()), ("n_events", pa.int64()),
    ("total_value", pa.float64()), ("n_event_types", pa.int64()),
    ("first_ts", pa.timestamp("us")), ("last_ts", pa.timestamp("us")),
    ("n_active_days", pa.int64()),
])


def events_user_features(sf_dir: str):
    """Per-user feature engineering — the user-level feature table a
    ranking/recommendation training job materializes: event count,
    total value, distinct event types, first/last timestamps and
    distinct active days. Needs per-user DISTINCT sets, so it is
    hash-grouped by user (the sessionize pattern, never a per-user Ray
    Data groupby) with everything inside a partition vectorized: one
    lexsort per distinct-feature, segment boundaries, bincount folds.
    Output is user-sized (the op's own output), per-partition."""

    def feats_part(g: pa.Table) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        uu, codes = np.unique(uid, return_inverse=True)
        nu = len(uu)
        ts = g["ts"].to_numpy()
        v = g["value"].to_numpy()
        n_events = np.bincount(codes, minlength=nu).astype(np.int64)
        sum_value = np.bincount(codes, weights=v, minlength=nu)
        tsi = ts.astype("datetime64[us]").astype(np.int64)
        first_ts = np.full(nu, np.iinfo(np.int64).max)
        np.minimum.at(first_ts, codes, tsi)
        last_ts = np.full(nu, np.iinfo(np.int64).min)
        np.maximum.at(last_ts, codes, tsi)

        def n_distinct(vals: np.ndarray) -> np.ndarray:
            o = np.lexsort((vals, codes))
            cs, vs = codes[o], vals[o]
            newseg = np.ones(len(cs), dtype=bool)
            newseg[1:] = (cs[1:] != cs[:-1]) | (vs[1:] != vs[:-1])
            return np.bincount(cs[newseg], minlength=nu).astype(np.int64)

        et_codes = pd.factorize(g["event_type"].to_numpy())[0]
        days = tsi // 86_400_000_000
        return pd.DataFrame({
            "user_id": uu,
            "n_events": n_events,
            "total_value": np.round(sum_value, 6),
            "n_event_types": n_distinct(et_codes),
            "first_ts": first_ts.astype("datetime64[us]"),
            "last_ts": last_ts.astype("datetime64[us]"),
            "n_active_days": n_distinct(days),
        })

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type", "value"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, None, _user_key, feats_part, _USER_FEATS))


def events_sessionize_salted(sf_dir: str, gap_minutes: int = 30,
                             bucket: str = "day"):
    """Skew-safe sessionization (the scale path for hot users): phase 1
    groups by (user, coarse time bucket) — a hot user's events split
    across buckets, bounding any single group — and builds partial
    sessions inside each bucket; phase 2 groups by user over the PARTIAL
    SESSION rows (orders of magnitude fewer than events: bounded by
    events/bucket compression) and merges sessions whose boundary gap is
    within ``gap_minutes``. Result is exactly equal to the single-pass
    sessionization — a session spanning a bucket edge is reassembled in
    the merge — so the same SQL oracle gates it.

    Partitioning assumption: one user's SESSIONS (not events) fit in a
    worker; the bucket granularity is the skew knob."""

    def partial_sessions_part(g: pa.Table) -> pd.DataFrame:
        # all (user, bucket) groups of one hash partition, vectorized:
        # partial-session boundary = user/bucket change OR gap
        g = g.to_pandas()
        g = g.sort_values(["user_id", "bucket", "ts", "event_id"], kind="stable")
        uid = g["user_id"].to_numpy()
        bk = g["bucket"].to_numpy()
        newg = np.ones(len(g), dtype=bool)
        newg[1:] = (uid[1:] != uid[:-1]) | (bk[1:] != bk[:-1])
        gaps = g["ts"].diff().dt.total_seconds().to_numpy()
        sid = np.cumsum(newg | (gaps > gap_minutes * 60))
        out = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "count"),
            sum_value=("value", "sum"),
        )
        return out.reset_index(drop=True)

    def merge_sessions_part(g: pa.Table) -> pd.DataFrame:
        # all users of one hash partition: merge boundary = user change
        # OR boundary gap > threshold over the ordered partial sessions
        g = g.to_pandas()
        g = g.sort_values(["user_id", "session_start", "session_end"],
                          kind="stable")
        uid = g["user_id"].to_numpy()
        new_user = np.ones(len(g), dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        gaps = (g["session_start"] - g["session_end"].shift()).dt.total_seconds()
        new_session = np.cumsum(new_user | (gaps.to_numpy() > gap_minutes * 60))
        out = g.groupby(new_session).agg(
            user_id=("user_id", "first"),
            session_start=("session_start", "min"),
            session_end=("session_end", "max"),
            n_events=("n_events", "sum"),
            sum_value=("sum_value", "sum"),
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = out["sum_value"].round(2)
        return out.reset_index(drop=True)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket", pc.floor_temporal(t["ts"], unit=bucket).cast(pa.int64())
        )

    def user_bucket_key(t: pa.Table) -> np.ndarray:
        return (t.column("user_id").to_numpy() * 8191
                + t.column("bucket").to_numpy())

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    partials = X.part_exchange(ds, add_bucket, user_bucket_key,
                               partial_sessions_part, _SESSIONS)
    return rd.from_arrow_refs(X.part_exchange(
        rd.from_arrow_refs(partials), None, _user_key, merge_sessions_part,
        _SESSIONS))
