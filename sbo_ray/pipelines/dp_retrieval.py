"""Retrieval + LM-scoring family: chunking, triplet mining, label centroids, as-of/window joins, funnels, retention, BM25, TF-IDF, kNN join, regional rollups, unigram/bigram log-prob, CCNet buckets.

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
from ..codec import one_array
from ..exchange import _cpus
from ..functions import dedup as D
from ..functions import similarity as S
from ..functions import text as T

from .dp_common import (
    _bw_task_cpus, _col_key, _distinct_users, _parquet_num_rows, _read,
    _user_key,
)
from .dp_dedup import _chunk_pair_join
from .dp_text import _shuf_count, doc_vocab_bigrams, doc_vocab_topk


def doc_chunk(sf_dir: str, chunk_tokens: int = 32):
    """Fixed-window document chunking (sequence-length prep): each doc
    fans out to one row per ``chunk_tokens``-token window via the
    zero-copy re-slice + binary_join kernel in functions/text.chunk_docs
    — a pure map_batches fan-out, no shuffle. The SQL oracle rebuilds
    the same chunks with positional unnest + ordered string_agg."""
    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda b: T.chunk_docs(b, chunk_tokens), batch_format="pyarrow"
    )


def emb_triplet_mining(sf_dir: str, n_anchors: int = 10):
    """HARD-NEGATIVE triplet mining — the metric-learning data op: for
    each anchor (the ``n_anchors`` lowest vec_ids), find the nearest
    SAME-label vector (the retrieval positive) and the nearest
    DIFFERENT-label vector (the hard negative — the pair that makes
    triplet losses informative). Broadcast the anchor matrix once;
    each block emits one
    (anchor, class) -> best-key partial (blocks x 2k rows); the driver
    max-folds. Selection routes through the FLOORED integer composite
    key (floor(cos*1e6)+offset)*2^33 + (2^33-1-vec_id) on BOTH sides —
    the emb_pq_codes argmax idiom (f64 ulp noise cannot flip an
    integer key off measure-zero boundaries), so the gate is
    hash-exact on ids."""
    B33 = 1 << 33
    OFF = 2_000_000  # makes the floored cos term non-negative

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    head = X.fold(ds, lambda t: t.sort_by("vec_id").slice(0, n_anchors),
                  ds.schema().base_schema)
    head = head.sort_by("vec_id").slice(0, n_anchors)
    a_ids = head.column("vec_id").to_numpy(zero_copy_only=False)
    a_lab = head.column("label").to_numpy(zero_copy_only=False)
    a_m = D.normalize_rows(S.embedding_matrix(head))
    a_ref = ray.put((a_ids.astype(np.int64), a_lab.astype(np.int64), a_m))

    part_schema = pa.schema([("aid", pa.int64()), ("same", pa.int64()),
                             ("key", pa.int64())])

    def block_best(t: pa.Table) -> pa.Table:
        aid, alab, am = ray.get(a_ref)
        ids = t.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.max() >= B33 - 1:
            raise ValueError("vec_id exceeds the 2^33 key range")
        lab = t.column("label").to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = D.normalize_rows(S.embedding_matrix(t))
        cos = m @ am.T  # n x n_anchors
        key = ((np.floor(cos * 1e6).astype(np.int64) + OFF) * B33
               + (B33 - 1 - ids)[:, None])
        rows = []
        for j in range(len(aid)):
            kj = key[:, j]
            notself = ids != aid[j]
            for same in (1, 0):
                mask = notself & ((lab == alab[j]) == bool(same))
                if mask.any():
                    rows.append((int(aid[j]), same, int(kj[mask].max())))
        if not rows:
            return part_schema.empty_table()
        return pa.table({
            "aid": pa.array([r[0] for r in rows], pa.int64()),
            "same": pa.array([r[1] for r in rows], pa.int64()),
            "key": pa.array([r[2] for r in rows], pa.int64()),
        })

    parts = X.fold(ds, block_best, part_schema)
    out_schema = pa.schema([
        ("anchor_id", pa.int64()), ("anchor_label", pa.int64()),
        ("pos_id", pa.int64()), ("neg_id", pa.int64()),
    ])
    if parts.num_rows == 0:
        return out_schema.empty_table()
    g = parts.group_by(["aid", "same"]).aggregate([("key", "max")])
    best = {(a, s): k for a, s, k in zip(
        g.column("aid").to_pylist(), g.column("same").to_pylist(),
        g.column("key_max").to_pylist())}
    rows = []
    for j in range(len(a_ids)):
        pk = best.get((int(a_ids[j]), 1))
        nk = best.get((int(a_ids[j]), 0))
        rows.append((
            int(a_ids[j]), int(a_lab[j]),
            (B33 - 1 - pk % B33) if pk is not None else -1,
            (B33 - 1 - nk % B33) if nk is not None else -1,
        ))
    return pa.table({
        "anchor_id": pa.array([r[0] for r in rows], pa.int64()),
        "anchor_label": pa.array([r[1] for r in rows], pa.int64()),
        "pos_id": pa.array([r[2] for r in rows], pa.int64()),
        "neg_id": pa.array([r[3] for r in rows], pa.int64()),
    })


def emb_label_centroids(sf_dir: str):
    """Per-label embedding centroid (the vector-mean aggregate behind
    IVF training / cluster profiling), exploded to (label, dim,
    centroid) rows so the SQL oracle can gate it exactly. Block-local
    float64 sum+count partials per label (one np.add.at per block — the
    payload never shuffles), tiny driver merge over labels x dims."""
    def partial(batch: pa.Table) -> pa.Table:
        emb = one_array(batch.column("embedding"))
        n = len(emb)
        offs = emb.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        d = int(widths[0])
        if not (widths == d).all():
            raise ValueError("ragged embedding dims in block")
        m = emb.flatten().to_numpy(zero_copy_only=False).reshape(n, d).astype(np.float64)
        labels = batch.column("label").to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), d), dtype=np.float64)
        np.add.at(sums, codes, m)
        cnts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq.astype(np.int64), d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(uniq))),
            "s": pa.array(sums.reshape(-1)),
            "cnt": pa.array(np.repeat(cnts, d)),
        })

    g = X.merge(
        _read(sf_dir, "embeddings", columns=["label", "embedding"]), partial,
        ["label", "dim"],
        pa.schema([("label", pa.int64()), ("dim", pa.int64()),
                   ("s", pa.float64()), ("cnt", pa.int64())]))
    centroid = pc.round(pc.divide(g.column("s"),
                                  g.column("cnt").cast(pa.float64())), 4)
    return pa.table({
        "label": g.column("label"),
        "dim": g.column("dim"),
        "centroid": centroid,
    })


def events_props_extract(sf_dir: str):
    """Semi-structured extraction: pull the integer ``k`` field out of
    the JSON ``props`` column with one vectorized RE2 kernel
    (extract_regex), then a bounded-cardinality grouped sum per
    event_type (block partials + tiny driver merge). The SQL oracle
    goes through DuckDB's real JSON parser — agreement shows the regex
    fast path extracts exactly what a JSON parser would."""
    def partial(batch: pa.Table) -> pa.Table:
        props = one_array(batch.column("props"))
        ex = pc.extract_regex(props, r'"k": (?P<k>[0-9]+)')
        k = pc.struct_field(ex, "k").cast(pa.int64())
        return pa.table({
            "event_type": batch.column("event_type"),
            "k": k,
        }).group_by("event_type").aggregate([("k", "sum"), ("k", "count")])

    g = X.merge(_read(sf_dir, "events", columns=["event_type", "props"]),
                partial, ["event_type"],
                pa.schema([("event_type", pa.string()), ("k_sum", pa.int64()),
                           ("k_count", pa.int64())]))
    return pa.table({
        "event_type": g.column("event_type"),
        "n_events": g.column("k_count"),
        "sum_k": g.column("k_sum"),
    })


def _keep_types(types: tuple, t: pa.Table) -> pa.Table:
    """The block's rows whose event_type is one of ``types`` (the two
    stream-join ops' read-side filter)."""
    et = one_array(t.column("event_type"))
    return t.filter(pc.is_in(et, value_set=pa.array(list(types))))


_ASOF = pa.schema([
    ("event_id", pa.int64()), ("user_id", pa.int64()),
    ("ts", pa.timestamp("us")), ("matched_event_id", pa.int64()),
    ("gap_us", pa.int64()),
])
_WINDOW_JOIN = pa.schema([
    ("event_id", pa.int64()), ("user_id", pa.int64()),
    ("ts", pa.timestamp("us")), ("n_right", pa.int64()),
    ("sum_right_value", pa.float64()),
])


def events_asof_join(sf_dir: str, left_type: str = "purchase",
                     right_type: str = "view"):
    """As-of join — a stream-enrichment operator Ray Data lacks
    natively: each ``left_type`` event joins the same user's most
    recent ``right_type`` event at-or-before its timestamp. Expressed
    as a hash-grouped transform (``exchange.part_exchange``):
    row-filter to the two types in the read's map, hash-partition by
    user so each partition holds complete user histories, then one
    vectorized merge per partition (sort + forward-filled
    last-right-index, no per-row Python). Tie rule matches SQL
    ``v.ts <= p.ts``: right rows sort BEFORE left rows at equal
    (user, ts), and among equal-(user, ts) right rows the max event_id
    wins (the forward fill keeps the last; the oracle CTE dedupes the
    same way). Output: one row per left event with the matched right
    event_id (-1 = none) and the gap in microseconds.
    Partitioning assumption: one hash partition of users fits a worker
    (same contract as events_sessionize)."""
    def asof_part(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        g = g.assign(_is_left=(g["event_type"] == left_type).astype(np.int8))
        g = g.sort_values(["user_id", "ts", "_is_left", "event_id"],
                          kind="stable")
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        eid = g["event_id"].to_numpy()
        is_left = g["_is_left"].to_numpy().astype(bool)
        idx = np.arange(len(g))
        fill = np.maximum.accumulate(np.where(~is_left, idx, -1))
        lpos = idx[is_left]
        lf = fill[lpos]
        # a filled index from a previous user points at a smaller uid —
        # sorted by user, so uid equality is the validity test
        valid = (lf >= 0) & (uid[np.maximum(lf, 0)] == uid[lpos])
        matched = np.where(valid, eid[np.maximum(lf, 0)], -1)
        gap = np.where(
            valid,
            (ts[lpos] - ts[np.maximum(lf, 0)]) // np.timedelta64(1, "us"),
            -1,
        )
        return pd.DataFrame({
            "event_id": eid[lpos],
            "user_id": uid[lpos],
            "ts": ts[lpos],
            "matched_event_id": matched.astype(np.int64),
            "gap_us": gap.astype(np.int64),
        })

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, functools.partial(_keep_types, (left_type, right_type)),
        _user_key, asof_part, _ASOF))


def events_window_join(sf_dir: str, left_type: str = "purchase",
                       right_type: str = "view", window_minutes: int = 60):
    """Range join — the second stream-enrichment operator Ray Data
    lacks natively (the brief names as-of join, range join, windowed
    aggregate): each ``left_type`` event is joined to ALL of the same
    user's ``right_type`` events in the half-open window
    ``[l.ts - window, l.ts)`` and aggregated (count + value sum).
    Ray-Data-first shape: filter to the two types in a map pass,
    hash-partition by user, then ONE vectorized sweep per partition —
    right rows and the two window endpoints of every left row are
    lexsorted together (user, ts, rank) and per-user exclusive prefix
    counts/sums turn each window into two prefix lookups; no per-row
    Python and no pairwise blow-up even when a window holds thousands
    of right rows. Endpoint tie rank (lo=0, view=1, hi=2) encodes the
    half-open interval exactly.
    Partitioning assumption: one hash partition of users fits a worker
    (same contract as events_sessionize)."""
    win_us = np.int64(window_minutes) * 60 * 1_000_000

    def window_part(g: pa.Table) -> pd.DataFrame:
        is_left = g["event_type"].to_numpy() == left_type
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy()
        val = g["value"].to_numpy()
        lu, lt, le = uid[is_left], ts[is_left], eid[is_left]
        ru, rt, rv = uid[~is_left], ts[~is_left], val[~is_left]
        nl, nr = len(lu), len(ru)
        # combined point set: right rows (rank 2) + per-left lo (rank 0)
        # and hi (rank 1) endpoints, lexsorted by (user, ts, rank).
        # Both endpoints sort BEFORE right rows at equal ts, so the
        # exclusive prefixes realize the half-open [lo, hi) exactly:
        # a right row at ts == lo is counted, at ts == hi it is not.
        cu = np.concatenate([lu, ru, lu])
        ct = np.concatenate([lt - win_us, rt, lt])
        rank = np.concatenate([
            np.zeros(nl, np.int8), np.full(nr, 2, np.int8),
            np.ones(nl, np.int8)])
        order = np.lexsort((rank, ct, cu))
        su, sr = cu[order], rank[order]
        is_right = sr == 2
        sv = np.zeros(len(order))
        sv[is_right] = np.concatenate([np.zeros(nl), rv, np.zeros(nl)])[order][is_right]
        # exclusive prefix count/sum of right rows; per-user segment
        # starts make prefixes user-local
        cumn = np.concatenate([[0], np.cumsum(is_right)])[:-1]
        cums = np.concatenate([[0.0], np.cumsum(sv)])[:-1]
        pos_in_sorted = np.empty(len(order), np.int64)
        pos_in_sorted[order] = np.arange(len(order))
        lo_pos = pos_in_sorted[:nl]
        hi_pos = pos_in_sorted[nl + nr:]
        n_in = cumn[hi_pos] - cumn[lo_pos]
        s_in = cums[hi_pos] - cums[lo_pos]
        # endpoints straddling a user boundary can't happen: both
        # endpoints carry the left row's own user and sort inside its
        # segment (any position between them shares that user)
        assert np.array_equal(su[lo_pos], lu) and np.array_equal(su[hi_pos], lu)
        return pd.DataFrame({
            "event_id": le,
            "user_id": lu,
            "ts": g["ts"].to_numpy()[is_left],
            "n_right": n_in.astype(np.int64),
            "sum_right_value": np.where(n_in > 0, s_in, 0.0).round(2),
        })

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "event_type", "value"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, functools.partial(_keep_types, (left_type, right_type)),
        _user_key, window_part, _WINDOW_JOIN))


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window aggregate over the events stream table."""

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        g = pa.table({
            "event_type": t["event_type"],
            "hour": hour,
            "value": t["value"],
        }).group_by(["event_type", "hour"]).aggregate([("value", "sum"), ("value", "count")])
        return g.rename_columns(["event_type", "hour", "sum_value", "n_events"])

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    g = X.merge(ds, partial, ["event_type", "hour"], pa.schema([
        ("event_type", pa.string()), ("hour", pa.timestamp("us")),
        ("sum_value", pa.float64()), ("n_events", pa.int64())]))
    return pa.table({
        "event_type": g.column("event_type"),
        "hour": g.column("hour"),
        "n_events": g.column("n_events"),
        "sum_value": np.round(g.column("sum_value").to_numpy(), 2),
    })

def events_daily_active(sf_dir: str):
    """Exact daily-active-users (DAU) — the canonical distinct-count
    over an event stream, distributed the same way as the log side's
    ``log_distinct_clients``: each block dedupes its own (day, user)
    pairs (volume drops from events to block-distinct pairs before
    anything leaves the worker), ONE user_id exchange
    (``exchange.part_exchange``) co-locates every copy of a user, each
    partition dedupes and counts per day, and the driver sums
    P x |days| tiny partials (``exchange.sum_refs``). Distinct users
    are unbounded at scale — nothing user-sized ever lands on the
    driver."""
    def pairs(block: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.floor_temporal(block.column("ts"), unit="day"),
            "user_id": block.column("user_id"),
        }).group_by(["day", "user_id"]).aggregate([])

    OUT = pa.schema([("day", pa.timestamp("us")), ("n_users", pa.int64())])
    ds = _read(sf_dir, "events", columns=["ts", "user_id"])
    return X.sum_refs(X.part_exchange(
        ds, pairs, _user_key, functools.partial(_distinct_users, "day"),
        OUT), ["day"], OUT)


_ANOM_MAD = pa.schema([
    ("event_type", pa.string()), ("day", pa.timestamp("us")),
    ("n_events", pa.int64()), ("med", pa.float64()),
    ("mad", pa.float64()), ("is_anomaly", pa.int64()),
])


def events_anomaly_mad(sf_dir: str, threshold: float = 3.0):
    """Per-type daily-volume ANOMALY screen via median absolute
    deviation — the robust outlier detector an ops pipeline runs over
    event telemetry (MAD ignores the outliers it is hunting, unlike a
    z-score whose mean/stddev they contaminate). A day is anomalous
    for a type when |count - median| > threshold * MAD of that type's
    daily counts.

    Engine shape: per-block (type, day) count partials — bounded
    cardinality (enum types x the fixed time span), the A1 idiom — fold
    on the driver; medians are numpy over the tiny folded table. The
    gate stays EXACT across engine and SQL: daily counts are integers,
    medians of integers are binary fractions (.5 grain; MAD .25), so
    both sides compare identical f64 values — no rounding boundary."""
    ds = _read(sf_dir, "events", columns=["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t.column("ts"), unit="day")
        g = pa.table({
            "event_type": t.column("event_type"), "day": day,
        }).group_by(["event_type", "day"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "day", "n"])

    g = X.merge(ds, partial, ["event_type", "day"],
                pa.schema([("event_type", pa.string()),
                           ("day", pa.timestamp("us")), ("n", pa.int64())]))
    if not g.num_rows:
        return _ANOM_MAD.empty_table()
    df = g.to_pandas().sort_values(["event_type", "day"]).reset_index(drop=True)
    ets, days, ns, meds, mads, flags = [], [], [], [], [], []
    for et, sub in df.groupby("event_type", sort=True):
        c = sub["n"].to_numpy(np.float64)
        med = float(np.median(c))
        mad = float(np.median(np.abs(c - med)))
        fl = (np.abs(c - med) > threshold * mad).astype(np.int64)
        ets.extend([et] * len(sub))
        days.extend(sub["day"].tolist())
        ns.extend(sub["n"].astype("int64").tolist())
        meds.extend([med] * len(sub))
        mads.extend([mad] * len(sub))
        flags.extend(fl.tolist())
    return pa.table({
        "event_type": pa.array(ets, pa.string()),
        "day": pa.array(days, pa.timestamp("us")),
        "n_events": pa.array(ns, pa.int64()),
        "med": pa.array(meds, pa.float64()),
        "mad": pa.array(mads, pa.float64()),
        "is_anomaly": pa.array(flags, pa.int64()),
    }, schema=_ANOM_MAD)


def events_funnel(sf_dir: str,
                  stages: tuple = ("view", "click", "purchase")):
    """Ordered funnel attainment per user: the first ``stages[0]`` event,
    the first ``stages[1]`` at-or-after it, the first ``stages[2]``
    at-or-after that (ts comparisons; the >= endpoint rule is pinned by
    the SQL mirror's join predicate). Output: one row per distinct user
    with max_stage 0..3 and the three stage timestamps as epoch-us
    (-1 = not reached).

    Engine shape: hash-partition by user (hash-grouped,
    ``exchange.part_exchange``) so every user's history is co-located, then one fully
    vectorized pass per partition — per-user first-event times via
    lexsort + segment-first, the at-or-after gate via a searchsorted
    lookup of the previous stage's time. No per-user Python, no
    whole-stream sort; the only shuffle is the user-hash partition.
    Funnel analysis over event streams is the reference's metric-window
    family generalized to ordered multi-step conversion
    (metrics/SBOMetrics.go:64-90 holds per-key time windows; this holds
    per-user stage fronts)."""
    SENT = np.iinfo(np.int64).max

    def funnel_part(g: pa.Table) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()
        users = np.unique(u)

        def first_at_or_after(mask, gate):
            uu, tt = u[mask], t[mask]
            if gate is not None:
                idx = np.searchsorted(users, uu)
                ok = tt >= gate[idx]  # gate==SENT (unreached) keeps none
                uu, tt = uu[ok], tt[ok]
            out = np.full(len(users), SENT, dtype=np.int64)
            if len(uu):
                order = np.lexsort((tt, uu))
                uu, tt = uu[order], tt[order]
                first = np.ones(len(uu), dtype=bool)
                first[1:] = uu[1:] != uu[:-1]
                out[np.searchsorted(users, uu[first])] = tt[first]
            return out

        t1 = first_at_or_after(et == stages[0], None)
        t2 = first_at_or_after(et == stages[1], t1)
        t3 = first_at_or_after(et == stages[2], t2)
        reached = ((t1 < SENT).astype(np.int64) + (t2 < SENT)
                   + (t3 < SENT))
        return pd.DataFrame({
            "user_id": users,
            "max_stage": reached.astype(np.int64),
            "t_stage1_us": np.where(t1 < SENT, t1, -1),
            "t_stage2_us": np.where(t2 < SENT, t2, -1),
            "t_stage3_us": np.where(t3 < SENT, t3, -1),
        })

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("max_stage", pa.int64()),
        ("t_stage1_us", pa.int64()), ("t_stage2_us", pa.int64()),
        ("t_stage3_us", pa.int64()),
    ])
    return rd.from_arrow_refs(X.part_exchange(ds, None, _user_key,
                                              funnel_part, out_schema))


_BM25 = pa.schema([("doc_id", pa.int64()), ("score", pa.float64())])
_BM25_STAT = pa.schema([("term", pa.string()), ("df", pa.int64()),
                        ("dl_sum", pa.int64()), ("n_docs", pa.int64())])


def doc_bm25_topk(sf_dir: str, k: int = 100, n_terms: int = 3,
                  k1: float = 1.2, b: float = 0.75):
    """Okapi BM25 retrieval over the corpus (Robertson et al.; the
    lexical-relevance scorer retrieval-augmented pipelines pair with
    the embedding ANN ops): score every document against the corpus'
    top-``n_terms`` tokens (a deterministic query both sides can
    rebuild) and emit the global top-k docs. Three streaming passes,
    all bounded:

      vocab  doc_vocab_topk(n_terms) -> the query terms (broadcast);
      stats  per-block partials of df per term (distinct docs
             containing it), total token count and doc count — one
             (n_terms + 2)-int row per block;
      score  broadcast (terms, idf, avgdl) once; each block computes
             per-doc tf for the query terms via dictionary codes +
             bincount (no per-row Python), scores docs with >= 1 hit,
             and keeps its local top-k under the FINAL
             (round6(score) desc, doc_id asc) key — merge-closed.

    idf = ln((N - df + 0.5)/(df + 0.5) + 1) (the +1 keeps common terms
    positive). Exact SQL mirror: same tokenization, same f64 formula;
    ROUND-6 + id tie-break absorbs libm's last-ulp ln differences."""
    terms = doc_vocab_topk(sf_dir, k=n_terms).column("token").to_pylist()
    if not terms:
        return _BM25.empty_table()
    terms_sorted = np.array(sorted(terms), dtype=object)
    tref = ray.put(terms_sorted)

    def stat_partial(t: pa.Table) -> pa.Table:
        col = one_array(t.column("text"))
        ts = ray.get(tref)
        toks = pc.split_pattern(col.cast(pa.string()), " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(col), dtype=np.int64), lens)
        enc = toks.values.dictionary_encode()
        uniq = np.array(enc.dictionary.to_pylist(), dtype=object)
        pos = np.searchsorted(ts, uniq)
        slot = np.where((pos < len(ts)) & (ts[np.minimum(pos, len(ts) - 1)]
                                           == uniq), pos, len(ts))
        tok_slot = slot[enc.indices.to_numpy(zero_copy_only=False)]
        hit = tok_slot < len(ts)
        # distinct (doc, term) pairs -> df per term
        pairs = np.unique(doc_idx[hit] * len(ts) + tok_slot[hit])
        df = np.bincount(pairs % len(ts), minlength=len(ts))
        return pa.table({
            "term": pa.array(list(ts), pa.string()),
            "df": pa.array(df.astype(np.int64)),
            "dl_sum": pa.array([int(lens.sum())] * len(ts), pa.int64()),
            "n_docs": pa.array([len(col)] * len(ts), pa.int64()),
        }, schema=_BM25_STAT)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # every block partial is one row per term, in terms_sorted order
    st = X.fold(ds, stat_partial, _BM25_STAT)
    nt = len(terms_sorted)
    df_tot = st.column("df").to_numpy(zero_copy_only=False) \
        .reshape(-1, nt).sum(axis=0)
    dl_sum = int(st.column("dl_sum").to_numpy(zero_copy_only=False)[::nt]
                 .sum())
    n_docs = int(st.column("n_docs").to_numpy(zero_copy_only=False)[::nt]
                 .sum())
    if n_docs == 0:
        return _BM25.empty_table()
    avgdl = dl_sum / n_docs
    idf = np.log((n_docs - df_tot + 0.5) / (df_tot + 0.5) + 1.0)
    sref = ray.put((terms_sorted, idf, avgdl))

    def score_topk(t: pa.Table) -> pa.Table:
        col = one_array(t.column("text"))
        ts, idf_b, avg_b = ray.get(sref)
        nt = len(ts)
        toks = pc.split_pattern(col.cast(pa.string()), " ")
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.float64)
        doc_idx = np.repeat(np.arange(len(col), dtype=np.int64),
                            lens.astype(np.int64))
        enc = toks.values.dictionary_encode()
        uniq = np.array(enc.dictionary.to_pylist(), dtype=object)
        pos = np.searchsorted(ts, uniq)
        slot = np.where((pos < nt) & (ts[np.minimum(pos, nt - 1)] == uniq),
                        pos, nt)
        tok_slot = slot[enc.indices.to_numpy(zero_copy_only=False)]
        hit = tok_slot < nt
        tf = np.bincount(doc_idx[hit] * nt + tok_slot[hit],
                         minlength=len(col) * nt).reshape(len(col), nt) \
            .astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * lens[:, None] / avg_b)
        score = (idf_b * tf * (k1 + 1.0) / denom * (tf > 0)).sum(axis=1)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        has = tf.sum(axis=1) > 0
        ids, score = ids[has], score[has]
        take = min(k, len(ids))
        order = np.lexsort((ids, -np.round(score, 6)))[:take]
        return pa.table({"doc_id": pa.array(ids[order].astype(np.int64)),
                         "score": pa.array(np.round(score[order], 6))},
                        schema=_BM25)

    merged = X.fold(ds, score_topk, _BM25)
    ids = merged.column("doc_id").to_numpy(zero_copy_only=False)
    sc = merged.column("score").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -sc))[:k]
    return pa.table({"doc_id": pa.array(ids[order]),
                     "score": pa.array(sc[order])}, schema=_BM25)


def doc_tfidf(sf_dir: str, k: int = 3):
    """Top-k TF-IDF terms per document (space-split tokens,
    idf = ln(N/df), score = tf*idf) — the classic relevance/keyword
    extraction primitive for a training-data corpus.

    Engine shape: two streaming passes. Pass 1 computes block-local
    (token, df) partials (per-doc DISTINCT inside the block, so volume
    drops to block-unique tokens before anything leaves the worker) and
    the driver merges the vocabulary-bounded histogram (Heaps' law —
    same contract as doc_vocab_topk). The df map is broadcast ONCE with
    ray.put. Pass 2 is embarrassingly parallel: each doc lives wholly
    in one row/block, so per-doc tf, score and exact top-k are computed
    block-locally (vectorized unique/lexsort/segment-rank; no shuffle at
    all). Ranking uses ROUND(score, 6) then token ASC on BOTH engine
    and oracle sides: mathematically-tied scores (e.g. 2*ln(10) vs
    ln(100)) land on the same rounded value regardless of last-ulp libm
    differences, so the tie-break is deterministic across engines."""

    def df_partial(batch: pa.Table) -> pa.Table:
        col = one_array(batch.column("text"))
        toks = pc.split_pattern(col, " ")
        doc_idx = np.repeat(
            np.arange(len(batch), dtype=np.int64),
            pc.list_value_length(toks).to_numpy(zero_copy_only=False))
        # per-doc DISTINCT via int composite keys over batch-local
        # dictionary codes — string group_by here was ~6x the cost
        enc = toks.values.dictionary_encode()
        nv = len(enc.dictionary)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = np.unique(doc_idx * max(nv, 1) + codes)
        df_n = np.bincount(uniq % max(nv, 1), minlength=nv)
        g = pa.table({"token": enc.dictionary,
                      "df_n": pa.array(df_n[:nv], pa.int64())})
        return g.append_column(
            "n_docs", pa.array([len(batch)] + [0] * (g.num_rows - 1)
                               if g.num_rows else [], pa.int64()))

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    dfa = X.merge(docs, df_partial, ["token"], pa.schema([
        ("token", pa.string()), ("df_n", pa.int64()), ("n_docs", pa.int64())]))
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("token", pa.string()),
        ("score", pa.float64()), ("rnk", pa.int64()),
    ])
    n_docs = int(pc.sum(dfa.column("n_docs")).as_py() or 0)
    if n_docs == 0:
        return out_schema.empty_table()
    # broadcast the vocabulary SORTED: index_in positions then double as
    # the alphabetical tie-break codes (token ASC), globally consistent
    order = pc.sort_indices(dfa.column("token"))
    vocab = dfa.column("token").take(order).combine_chunks()
    df_arr = dfa.column("df_n").take(order).to_numpy(
        zero_copy_only=False).astype(np.float64)
    df_ref = ray.put((vocab, df_arr))

    def topk_scores(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        vocab_a, df_v = ray.get(df_ref)
        col = one_array(batch.column("text"))
        toks = pc.split_pattern(col, " ")
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(
            np.arange(len(batch), dtype=np.int64),
            pc.list_value_length(toks).to_numpy(zero_copy_only=False))
        # tf per (doc, token) via int composite keys over global vocab
        # positions — no Python strings anywhere in the hot path (the
        # string-group_by + to_pylist + dict-lookup version was ~10x)
        nv = len(vocab_a)
        tcode = pc.index_in(toks.values, value_set=vocab_a).to_numpy(
            zero_copy_only=False).astype(np.int64)
        uk, c = np.unique(doc_idx * nv + tcode, return_counts=True)
        d, tc = uk // nv, uk % nv
        score = np.round(c * np.log(n_docs / df_v[tc]), 6)
        order = np.lexsort((tc, -score, d))
        sd = d[order]
        new_grp = np.ones(len(sd), dtype=bool)
        new_grp[1:] = sd[1:] != sd[:-1]
        starts = np.maximum.accumulate(
            np.where(new_grp, np.arange(len(sd)), 0))
        rank = np.arange(len(sd)) - starts
        keep = order[rank < k]
        return pa.table({
            "doc_id": pa.array(doc_ids[d[keep]], pa.int64()),
            "token": vocab_a.take(pa.array(tc[keep])),
            "score": pa.array(score[keep], pa.float64()),
            "rnk": pa.array(rank[rank < k] + 1, pa.int64()),
        })

    return docs.map_batches(topk_scores, batch_format="pyarrow")


_KNN_PART = pa.schema([("vec_id", pa.int64()), ("neighbor_id", pa.int64()),
                       ("cos", pa.float64())])
_KNN = _KNN_PART.append(pa.field("rnk", pa.int64()))


def _side_topk(cm, rid, cid, k: int):
    """Per-ROW top-k of the cos matrix under (cos desc, col-id asc) in
    O(na*nb) via argpartition on ONE composite int64 key (1000*cos then
    -id; cos is already rounded to 3 so the int encoding is lossless) —
    the flattened-lexsort formulation costs O(na*nb*log) plus 3x the
    allocations and measured ~25x slower at 6k x 6k chunk pairs.
    Ordering is identical, so partial top-k selection stays consistent
    with the final merge."""
    na, nb = cm.shape
    key = (np.rint(cm * 1000.0).astype(np.int64) * (1 << 33)
           - cid[None, :])
    kk = min(k, nb)
    if kk < nb:
        part = np.argpartition(-key, kk - 1, axis=1)[:, :kk]
    else:
        part = np.broadcast_to(np.arange(nb), (na, nb)).copy()
    pk = np.take_along_axis(key, part, axis=1)
    order = np.argsort(-pk, axis=1, kind="stable")
    sel = np.take_along_axis(part, order, axis=1)
    cosv = np.take_along_axis(cm, sel, axis=1).ravel()
    ok = cosv >= -1.5  # drop the -2.0 self sentinel
    return (np.repeat(rid, kk)[ok], cid[sel.ravel()][ok], cosv[ok])


def _knn_pair(k: int, na_parts: int, *parts) -> pa.Table:
    """One chunk pair of emb_knn_join: ``parts[:na_parts]`` are the
    A-chunk slices, the remainder the B-chunk slices (none = the
    diagonal A x A pair, self matches excluded). Emits each side's
    partial top-k neighbors from the other side."""
    a_tbl = pa.concat_tables(parts[:na_parts])
    diag = na_parts == len(parts)
    b_tbl = a_tbl if diag else pa.concat_tables(parts[na_parts:])
    if a_tbl.num_rows == 0 or b_tbl.num_rows == 0:
        return _KNN_PART.empty_table()
    ids_a = a_tbl.column("vec_id").to_numpy(zero_copy_only=False)
    ids_b = b_tbl.column("vec_id").to_numpy(zero_copy_only=False)
    top = max(int(ids_a.max()), int(ids_b.max()))
    if top >= 1 << 33:
        # _side_topk packs (round3(cos) * 2^33 - neighbor_id) into one
        # int64: an id >= 2^33 bleeds into the cos term and the partial
        # ordering silently diverges from the final merge — fail loudly
        # instead (ADVICE r3); widen the encoding if a corpus ever
        # legitimately exceeds ~8.6e9 vec_ids
        raise ValueError(
            f"vec_id {top} >= 2^33 breaks the composite top-k ordering key")
    m_a = D.normalize_rows(S.embedding_matrix(a_tbl))
    if diag:
        cos = np.round(m_a @ m_a.T, 3)
        np.fill_diagonal(cos, -2.0)  # finite self sentinel
        sides = [(cos, ids_a, ids_a)]
    else:
        m_b = D.normalize_rows(S.embedding_matrix(b_tbl))
        cos = np.round(m_a @ m_b.T, 3)
        sides = [(cos, ids_a, ids_b),
                 (np.ascontiguousarray(cos.T), ids_b, ids_a)]
    outs = []
    for cm, rid, cid in sides:
        vid, nid, cc = _side_topk(cm, rid, cid, k)
        outs.append(pa.Table.from_arrays([
            pa.array(vid, pa.int64()), pa.array(nid, pa.int64()),
            pa.array(cc, pa.float64())], schema=_KNN_PART))
    return pa.concat_tables(outs)


def emb_knn_join(sf_dir: str, k: int = 5, n_chunks: int | None = None):
    """Exact k-NN SELF-join: for EVERY vector, its k nearest neighbors
    by cosine (the retrieval-evaluation / hard-negative-mining
    primitive — emb_similarity_topk generalized from one query to all
    rows). Same raw-task chunk-pair join as ``emb_dedup_cosine``: B
    ``vec_id % B`` chunks, one matmul per chunk-pair task, but each
    task emits a PARTIAL top-k per vector (``_knn_pair``) instead of
    threshold pairs, so the exchange carries n x B x k partial rows,
    not O(n^2) pairs. The final per-vector merge is partition-grouped
    (``exchange.part_exchange`` on vec_id), so no stage holds more than
    a partition of partials, and the n x k output stays a Dataset of
    the merge's partition blocks.

    Ranking is (ROUND(cos, 3) DESC, neighbor_id ASC) at BOTH the
    partial and final stage — the partial ordering must equal the
    final ordering or boundary ties could drop a would-be winner. The
    SQL oracle casts embeddings to DOUBLE[] before
    list_cosine_similarity: at 2500 output values, float32
    accumulation error (~1e-6) flips 3rd-decimal roundings with
    near-certainty, while float64-vs-float64 disagreement
    probability is ~1e-13."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    if n_chunks:
        B = n_chunks
    else:
        # size chunks to ~1k vectors: the emb_dedup_cosine default
        # (B ~ sqrt(2*cpus), i.e. n/8 per chunk) makes each pair task
        # allocate O((n/B)^2) cos/key matrices — measured 235 s at 50k
        # vectors from 36 concurrent ~1 GB-temporary tasks thrashing
        # memory vs ~10 s with ~1k-row chunks. Capped at 128: past
        # that, the B(B+1)/2 pair-task count dominates (exact
        # all-pairs is O(n^2); cap the candidates, see bench).
        # Row count from the Parquet footer — ds.count() would execute
        # the whole read an extra time just to size B (VERDICT r3 #7).
        n = _parquet_num_rows(sf_dir, "embeddings")
        B = int(min(128, max(4, np.sqrt(2 * _cpus()), -(-n // 1000))))
    refs = X.block_refs(ds)
    if not refs:
        return rd.from_arrow(_KNN.empty_table())

    def final_part(g: pa.Table) -> pa.Table:
        """top-k rows per vec_id under (cos desc, neighbor asc)."""
        vid = g["vec_id"].to_numpy()
        nid = g["neighbor_id"].to_numpy()
        cc = g["cos"].to_numpy()
        order = np.lexsort((nid, -cc, vid))
        vv = vid[order]
        new_grp = np.ones(len(vv), dtype=bool)
        new_grp[1:] = vv[1:] != vv[:-1]
        starts = np.maximum.accumulate(
            np.where(new_grp, np.arange(len(vv)), 0))
        rank = np.arange(len(vv)) - starts
        keep = order[rank < k]
        return pa.Table.from_arrays([
            pa.array(vid[keep]), pa.array(nid[keep]), pa.array(cc[keep]),
            pa.array(rank[rank < k] + 1, pa.int64())], schema=_KNN)

    # bandwidth cap: big-matmul tasks, as in emb_dedup_cosine
    pairs = _chunk_pair_join(refs, "vec_id", B, _knn_pair, k,
                             num_cpus=_bw_task_cpus(16))
    return rd.from_arrow_refs(X.part_exchange(
        rd.from_arrow_refs(pairs), None, _col_key("vec_id"), final_part,
        _KNN))


def supplier_nation_revenue(sf_dir: str):
    """Three-table star-schema aggregate (lineitem x supplier x nation
    -> revenue per nation) in ONE fact-table scan: both dimension
    tables are tiny (the classic star shape), so they are pre-joined
    DRIVER-side into a single suppkey -> nation-name map and broadcast
    once with ray.put; each lineitem block resolves the composed map
    and emits a per-nation partial (count + discounted revenue), and
    the driver merges |nations| rows. No shuffle at all — the 100-TB
    shape for dimension-join aggregation (two chained Dataset.joins
    would pay two all-to-all exchanges for the same answer)."""
    supplier = X.fold(
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]), None,
        pa.schema([("s_suppkey", pa.int64()), ("s_nationkey", pa.int32())]))
    nation = X.fold(
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name"]), None,
        pa.schema([("n_nationkey", pa.int32()), ("n_name", pa.string())]))
    n_name = dict(zip(nation.column("n_nationkey").to_pylist(),
                      nation.column("n_name").to_pylist()))
    lookup = {
        int(sk): n_name.get(int(nk), "")
        for sk, nk in zip(supplier.column("s_suppkey").to_pylist(),
                          supplier.column("s_nationkey").to_pylist())
    }
    lookup_ref = ray.put(lookup)

    def partial(batch: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        keys = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        names = pa.array([lk.get(int(k), "") for k in keys],
                         type=pa.string())
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")))
        g = pa.table({
            "n_name": names, "revenue": rev,
        }).group_by("n_name").aggregate([("revenue", "sum"),
                                         ("revenue", "count")])
        return g.rename_columns(["n_name", "revenue", "n_items"])

    ds = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])
    g = X.merge(ds, partial, ["n_name"], pa.schema([
        ("n_name", pa.string()), ("revenue", pa.float64()),
        ("n_items", pa.int64())]))
    return pa.table({
        "n_name": g.column("n_name"),
        "n_items": g.column("n_items"),
        "revenue": np.round(g.column("revenue").to_numpy(), 2),
    })


def events_retention(sf_dir: str):
    """Cohort retention matrix over the events stream: cohort = a
    user's first active DAY; one output row per (cohort_day,
    offset_days) with the number of cohort users active that day — the
    standard DAU-retention triangle. Partition-grouped by user (every
    user's history co-located), fully vectorized per partition: one
    lexsort gives distinct (user, day) pairs AND each user's first day
    by segment-first forward-fill; per-partition (cohort, offset)
    partial counts add across partitions because users never span
    partitions. The driver sums the tiny |days|^2/2-bounded matrix
    (``exchange.sum_refs``)."""

    def retention_part(g: pa.Table) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        day = g["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        order = np.lexsort((day, u))
        u, day = u[order], day[order]
        new_pair = np.ones(len(u), dtype=bool)
        new_pair[1:] = (u[1:] != u[:-1]) | (day[1:] != day[:-1])
        du, dday = u[new_pair], day[new_pair]
        seg_first = np.ones(len(du), dtype=bool)
        seg_first[1:] = du[1:] != du[:-1]
        cohort = dday[np.maximum.accumulate(
            np.where(seg_first, np.arange(len(du)), 0))]
        out = pd.DataFrame({
            "cohort_day": cohort.astype("datetime64[D]").astype(
                "datetime64[us]"),
            "offset_days": dday - cohort,
        })
        return (out.groupby(["cohort_day", "offset_days"], as_index=False)
                .size().rename(columns={"size": "n_users"}))

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    out_schema = pa.schema([
        ("cohort_day", pa.timestamp("us")), ("offset_days", pa.int64()),
        ("n_users", pa.int64())])
    return X.sum_refs(X.part_exchange(ds, None, _user_key, retention_part,
                                      out_schema),
                      ["cohort_day", "offset_days"], out_schema)


def part_brand_revenue(sf_dir: str):
    """Fact x mid-size dimension (lineitem x part) via a two-sided
    ``exchange.part_exchange`` on the partkey, then brand rollup. At
    TPC-H proportions ``part`` is ~1/30 of lineitem — too big to
    broadcast comfortably at the 100-TB tier, so this is deliberately
    the SHUFFLE-join primitive (contrast supplier_nation_revenue, where
    both dims are tiny and a composed broadcast map wins). Each
    partition folds its join to per-brand partials, so only |brands|
    rows per partition follow the join."""
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity", "l_extendedprice",
                        "l_discount"])
    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand"])
    out = pa.schema([
        ("p_brand", pa.string()), ("sum_qty", pa.float64()),
        ("revenue", pa.float64()), ("n_items", pa.int64())])

    def fold(li: pa.Table, part: pa.Table) -> pa.Table:
        t = li.join(part, "l_partkey", "p_partkey", join_type="inner")
        rev = pc.multiply(
            t.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        g = pa.table({
            "p_brand": t.column("p_brand"),
            "sum_qty": t.column("l_quantity"),
            "revenue": rev,
        }).group_by("p_brand").aggregate(
            [("sum_qty", "sum"), ("revenue", "sum"), ("revenue", "count")])
        return g.rename_columns(out.names)

    g = X.sum_refs(X.part_exchange(
        (li, part), (None, None),
        (_col_key("l_partkey"), _col_key("p_partkey")), fold, out),
        ["p_brand"], out)
    return pa.table({
        "p_brand": g.column("p_brand"),
        "n_items": g.column("n_items"),
        "sum_qty": np.round(g.column("sum_qty").to_numpy(), 2),
        "revenue": np.round(g.column("revenue").to_numpy(), 2),
    })


def region_revenue_by_year(sf_dir: str):
    """Revenue per (region, order year): the shuffle join (orders x
    customer, both fact-sized, a two-sided ``exchange.part_exchange``)
    CHAINED with the composed broadcast dim map (nationkey -> region
    name through nation x region, both tiny) — one exchange total for
    a four-table query. The dim composition happens driver-side on
    25+5 rows; the year is extracted vectorized; each partition folds
    its join to |regions x years| partial rows."""
    nation = X.fold(
        _read(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"]), None,
        pa.schema([("n_nationkey", pa.int32()), ("n_regionkey", pa.int32())]))
    region = X.fold(
        _read(sf_dir, "region", columns=["r_regionkey", "r_name"]), None,
        pa.schema([("r_regionkey", pa.int32()), ("r_name", pa.string())]))
    r_name = dict(zip(region.column("r_regionkey").to_pylist(),
                      region.column("r_name").to_pylist()))
    lookup = {
        int(nk): r_name.get(int(rk), "")
        for nk, rk in zip(nation.column("n_nationkey").to_pylist(),
                          nation.column("n_regionkey").to_pylist())
    }
    lookup_ref = ray.put(lookup)

    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_totalprice", "o_orderdate"])
    customer = _read(sf_dir, "customer",
                     columns=["c_custkey", "c_nationkey"])
    out = pa.schema([
        ("r_name", pa.string()), ("year", pa.int64()),
        ("revenue", pa.float64()), ("n_orders", pa.int64())])

    def fold(o: pa.Table, c: pa.Table) -> pa.Table:
        t = o.join(c, "o_custkey", "c_custkey", join_type="inner")
        lk = ray.get(lookup_ref)
        nk = t.column("c_nationkey").to_numpy(zero_copy_only=False)
        names = pa.array([lk.get(int(k), "") for k in nk],
                         type=pa.string())
        year = pc.year(t.column("o_orderdate")).cast(pa.int64())
        g = pa.table({
            "r_name": names, "year": year,
            "revenue": t.column("o_totalprice"),
        }).group_by(["r_name", "year"]).aggregate(
            [("revenue", "sum"), ("revenue", "count")])
        return g.rename_columns(out.names)

    g = X.sum_refs(X.part_exchange(
        (orders, customer), (None, None),
        (_col_key("o_custkey"), _col_key("c_custkey")), fold, out),
        ["r_name", "year"], out)
    return pa.table({
        "r_name": g.column("r_name"),
        "year": g.column("year"),
        "n_orders": g.column("n_orders"),
        "revenue": np.round(g.column("revenue").to_numpy(), 2),
    })


def _unigram_vocab_ref(docs):
    """Pass 1 of the unigram-LM scorers (doc_unigram_logprob,
    doc_ccnet_buckets): vocabulary-bounded driver merge of block token
    histograms (Heaps' law contract — same as doc_tfidf), vocabulary
    broadcast ONCE sorted with its count array so scoring passes work
    entirely in index_in positions. Returns (object ref to
    (sorted_vocab, counts_f64), total_tokens) or (None, 0) on empty."""
    agg = X.merge(docs, T.vocab_partial, ["token"], pa.schema([
        ("token", pa.string()), ("n", pa.int64())]))
    total = int(pc.sum(agg.column("n")).as_py() or 0)
    if total == 0:
        return None, 0
    order = pc.sort_indices(agg.column("token"))
    vocab = agg.column("token").take(order).combine_chunks()
    cnt_arr = agg.column("n").take(order).to_numpy(
        zero_copy_only=False).astype(np.float64)
    return ray.put((vocab, cnt_arr)), total


def doc_unigram_logprob(sf_dir: str):
    """Corpus-unigram-LM quality score per document: the mean negative
    log-probability of the doc's tokens under the corpus unigram
    distribution — the classic perplexity-proxy quality filter for
    training-data curation (high value = rare/garbled text). Same
    two-pass shape as ``doc_tfidf``: pass 1 reuses the vocab_partial
    block histograms (vocabulary-bounded driver merge, Heaps' law
    contract) and broadcasts the count map ONCE; pass 2 is
    shuffle-free — per-doc token counts and the weighted mean are
    block-local (docs never span blocks), with the per-doc sum done by
    one bincount over per-unique-token terms, not a token loop."""

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    empty = pa.schema([
        ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
        ("avg_neg_logprob", pa.float64()),
    ]).empty_table()
    cnt_ref, total = _unigram_vocab_ref(docs)
    if cnt_ref is None:
        return empty

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        vocab_a, gc_arr = ray.get(cnt_ref)
        col = one_array(batch.column("text"))
        toks = pc.split_pattern(col, " ")
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(
            np.arange(len(batch), dtype=np.int64),
            pc.list_value_length(toks).to_numpy(zero_copy_only=False))
        nv = len(vocab_a)
        tcode = pc.index_in(toks.values, value_set=vocab_a).to_numpy(
            zero_copy_only=False).astype(np.int64)
        uk, c = np.unique(doc_idx * nv + tcode, return_counts=True)
        d, tc = uk // nv, uk % nv
        neg_lp = -np.log(gc_arr[tc] / total)
        n_tok = np.bincount(d, weights=c, minlength=len(batch))
        lp_sum = np.bincount(d, weights=c * neg_lp, minlength=len(batch))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_tokens": pa.array(n_tok.astype(np.int64)),
            "avg_neg_logprob": pa.array(
                np.round(lp_sum / np.maximum(n_tok, 1), 6)),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def doc_bigram_logprob(sf_dir: str, k_big: int = 2000,
                       backoff: float = 0.4):
    """Bigram-LM quality score with unigram BACKOFF — the next-order
    perplexity proxy after doc_unigram_logprob: each adjacent token
    pair scores -ln(c12/c1) if the bigram is in the corpus TOP-K
    bigram table, else -ln(backoff * c(w2)/total) (the Katz-style
    escape). The bigram model is truncated to top-K BY CONSTRUCTION
    because full bigram vocabularies run ~10x unigram (the
    doc_vocab_bigrams driver-memory cliff): the top-K table comes from
    that op's distributed hash exchange and is broadcast once, bounded
    and corpus-independent, alongside the unigram vocab ref. Scoring
    is one shuffle-free block-local pass (pairs never leave their
    block; index_in + where, no token loop). Docs with < 2 tokens have
    no bigrams and drop on both sides.

    Complement of ``doc_perplexity_bigram``, which is the OTHER
    standard smoothing family: add-one over a dense truncated-id
    (V+1)^2 table (every transition gets mass from the prior). This op
    keeps exact counts for the head (top-K bigram TABLE, raw tokens,
    no id truncation) and handles the tail by Katz-style backoff to
    the unigram model — the two disagree exactly where smoothing
    choices matter."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    empty = pa.schema([
        ("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
        ("avg_neg_logprob", pa.float64()),
    ]).empty_table()
    cnt_ref, total = _unigram_vocab_ref(docs)
    if cnt_ref is None:
        return empty
    top = doc_vocab_bigrams(sf_dir, k=k_big)
    bo = pc.sort_indices(top.column("bigram"))
    big_ref = ray.put((
        top.column("bigram").take(bo).combine_chunks(),
        top.column("n").take(bo).to_numpy(
            zero_copy_only=False).astype(np.float64),
    ))

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        vocab_a, gc = ray.get(cnt_ref)
        bgv, bgc = ray.get(big_ref)
        col = one_array(batch.column("text"))
        toks = pc.split_pattern(col, " ")
        n_tok = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        doc_of = np.repeat(np.arange(len(n_tok), dtype=np.int64), n_tok)
        mask = np.ones(len(flat), dtype=bool)
        ends = np.cumsum(n_tok) - 1
        mask[ends[n_tok > 0]] = False
        left_pos = np.flatnonzero(mask)
        if not len(left_pos):
            return empty.schema.empty_table()
        lefts = flat.take(pa.array(left_pos))
        rights = flat.take(pa.array(left_pos + 1))
        bg = pc.binary_join_element_wise(lefts, rights, " ")
        c1 = gc[pc.index_in(lefts, value_set=vocab_a).to_numpy(
            zero_copy_only=False).astype(np.int64)]
        c2 = gc[pc.index_in(rights, value_set=vocab_a).to_numpy(
            zero_copy_only=False).astype(np.int64)]
        bix = pc.fill_null(pc.index_in(bg, value_set=bgv), -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        in_top = bix >= 0
        lp = np.where(in_top,
                      -np.log(bgc[np.maximum(bix, 0)] / c1),
                      -np.log(backoff * c2 / total))
        dpair = doc_of[left_pos]
        n_pairs = np.maximum(n_tok - 1, 0)
        lp_sum = np.bincount(dpair, weights=lp, minlength=len(n_tok))
        keep = n_pairs > 0
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_bigrams": pa.array(n_pairs[keep]),
            "avg_neg_logprob": pa.array(
                np.round(lp_sum[keep] / n_pairs[keep], 6)),
        })

    return docs.map_batches(score, batch_format="pyarrow")


_CCNET_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("score", pa.float64()),
    ("ccnet_rank", pa.int64()), ("bucket", pa.int64()),
])


def _ccnet_sample(block: pa.Table, per_block: int) -> np.ndarray:
    k = block.column("key").to_numpy(zero_copy_only=False)
    if len(k) <= per_block:
        return k.astype(np.int64)
    idx = np.linspace(0, len(k) - 1, per_block).astype(np.int64)
    return k[idx].astype(np.int64)


def _ccnet_slice(block: pa.Table, splits: np.ndarray) -> list:
    """Route one scored block into len(splits)+1 key RANGES
    (searchsorted side='right': equal keys always land in one range,
    so cross-range order == key order regardless of split quality).
    16 bytes/row leave the scan."""
    ids = block.column("doc_id").to_numpy(
        zero_copy_only=False).astype(np.int64)
    keys = block.column("key").to_numpy(
        zero_copy_only=False).astype(np.int64)
    return X.split(np.searchsorted(splits, keys, side="right"),
                   len(splits) + 1, ids, keys)


def _ccnet_rank(base: int, n_total: int, *shards) -> pa.Table:
    """One key range: local (key, doc_id) sort; global rank = prefix-sum
    base + local rank; tertile bucket = 3*rank // n."""
    ids = np.concatenate([s[0] for s in shards])
    if not len(ids):
        return _CCNET_SCHEMA.empty_table()
    keys = np.concatenate([s[1] for s in shards])
    order = np.lexsort((ids, keys))
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = base + np.arange(len(ids), dtype=np.int64)
    return pa.Table.from_arrays([
        pa.array(ids), pa.array(np.round(keys / 1e6, 6)),
        pa.array(rank), pa.array(3 * rank // n_total)],
        schema=_CCNET_SCHEMA)


def doc_ccnet_buckets(sf_dir: str, sample_per_block: int = 64):
    """CCNet-style corpus bucketing (Wenzek et al. 2020): rank every
    document by its unigram-LM quality score (doc_unigram_logprob's
    mean -ln p) and split the corpus into equal-count head / middle /
    tail tertiles — the standard quality-stratified pretraining layout
    (head = most fluent). Output: (doc_id, score, ccnet_rank, bucket),
    rank 0-based under (round6-int score key asc, doc_id asc),
    bucket = 3*rank // n in {0, 1, 2}.

    Engine shape — exact global RANK BY A DERIVED, NON-UNIFORM key
    (doc_shuffle_order's md5 key was uniform, so equal-width ranges
    balanced with no extra step; a score key is skewed, so this adds
    the one missing piece):

      pass 1  token-histogram partials -> vocabulary-bounded driver
              merge, count map broadcast once (shared with
              doc_unigram_logprob via _unigram_vocab_ref);
      pass 2  block-local scoring emits (doc_id, int64 round6-score
              key) — 16 bytes/row, text never leaves the scan;
      splits  a bounded per-block key SAMPLE (sample_per_block rows)
              picks P-1 range splits on the driver — sample quality
              affects only balance, never correctness, because ranges
              partition the key space and equal keys cannot straddle
              a boundary (side='right' routing);
      rank    P range tasks sort locally; prefix sum of range counts
              (P ints) gives global ranks and tertile buckets.

    The float score is gated through the round6-int composite key on
    both sides (the doc_sample_weighted idiom: libm last-ulp noise
    cannot flip an integer key off a measure-zero boundary). Exact SQL
    mirror: ROW_NUMBER under the same CAST(ROUND(score,6)*1e6 AS
    BIGINT), doc_id order."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cnt_ref, total = _unigram_vocab_ref(docs)
    if cnt_ref is None:
        return rd.from_arrow(_CCNET_SCHEMA.empty_table())

    def score_keys(batch: pa.Table) -> pa.Table:
        vocab_a, gc_arr = ray.get(cnt_ref)
        col = one_array(batch.column("text"))
        toks = pc.split_pattern(col, " ")
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(
            np.arange(len(batch), dtype=np.int64),
            pc.list_value_length(toks).to_numpy(zero_copy_only=False))
        nv = len(vocab_a)
        tcode = pc.index_in(toks.values, value_set=vocab_a).to_numpy(
            zero_copy_only=False).astype(np.int64)
        uk, c = np.unique(doc_idx * nv + tcode, return_counts=True)
        d, tc = uk // nv, uk % nv
        neg_lp = -np.log(gc_arr[tc] / total)
        n_tok = np.bincount(d, weights=c, minlength=len(batch))
        lp_sum = np.bincount(d, weights=c * neg_lp, minlength=len(batch))
        key = np.rint(
            np.round(lp_sum / np.maximum(n_tok, 1), 6) * 1e6
        ).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "key": pa.array(key),
        })

    scored = docs.map_batches(score_keys, batch_format="pyarrow")
    refs = X.block_refs(scored)
    if not refs:
        return rd.from_arrow(_CCNET_SCHEMA.empty_table())
    P = X.n_parts()
    sample_task = ray.remote(_ccnet_sample)
    sample = np.sort(np.concatenate(ray.get(
        [sample_task.remote(r, sample_per_block) for r in refs])))
    splits = np.unique(
        sample[(np.arange(1, P) * len(sample)) // P]) \
        if len(sample) else np.array([], dtype=np.int64)
    sl = X.shard(_ccnet_slice, refs, len(splits) + 1, splits)
    counts = ray.get(X.combine(_shuf_count, sl))
    n_total = int(sum(counts))
    bases = np.cumsum(counts) - counts
    # one rank task per key range, each with its own prefix-sum base
    rank_task = ray.remote(_ccnet_rank)
    return rd.from_arrow_refs([rank_task.remote(int(b), n_total, *part)
                               for b, part in zip(bases, sl)])
