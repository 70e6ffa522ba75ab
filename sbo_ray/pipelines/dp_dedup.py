"""Dedup + sampling family: exact/near dedup (minhash, simhash, ngram, containment, substring), LSH candidate plumbing, label-prop clustering, decontamination, hash/weighted/reservoir/stratified sampling, split assignment.

Imports what it uses by name from the module that defines it, and
callers import this module's ops from here. Monkeypatch a helper where
the op resolves it.
"""
from __future__ import annotations

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

from .dp_common import _bw_task_cpus, _col_key, _read

# ---- dedup -----------------------------------------------------------------


def _text_hash_key(t: pa.Table) -> np.ndarray:
    """Partition key of the exact-dedup exchanges: the int64 text_hash."""
    return t.column("text_hash").to_numpy(zero_copy_only=False)


def _min_doc_per_hash(g: pa.Table, with_counts: bool) -> pd.DataFrame:
    """Per-partition vectorized dedup kernel: min doc_id (and optionally
    the duplicate count) per distinct text_hash — one lexsort + segment
    boundaries, no per-key work."""
    h = g["text_hash"].to_numpy()
    d = g["doc_id"].to_numpy()
    order = np.lexsort((d, h))
    hs, ds_ = h[order], d[order]
    new = np.ones(len(hs), dtype=bool)
    new[1:] = hs[1:] != hs[:-1]
    if not with_counts:
        return pd.DataFrame({"doc_id": ds_[new]})
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(hs)))
    return pd.DataFrame({"doc_id": ds_[starts], "n_dupes": counts})


_DEDUP_EXACT = pa.schema([("doc_id", pa.int64()), ("n_dupes", pa.int64())])


def doc_dedup_exact(sf_dir: str):
    """Exact dedup: hash-partitioned min(doc_id)+count per distinct text.
    Only the 8-byte hash + ids shuffle; payload stays put.

    Hash-grouped (``exchange.part_exchange``): with ~4M mostly-distinct
    keys, Ray's native ``groupby(key).aggregate`` sort-aggregates the whole
    exchange (49 s at 4M docs); shuffling the same rows to P hash
    partitions and doing the per-key min+count vectorized inside each
    (``_min_doc_per_hash``) is 6.4 s — identical rows."""
    def hashed(t: pa.Table) -> pa.Table:
        return D.add_text_hash(t).select(["doc_id", "text_hash"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return rd.from_arrow_refs(X.part_exchange(
        ds, hashed, _text_hash_key,
        lambda g: _min_doc_per_hash(g, with_counts=True), _DEDUP_EXACT))


def doc_sample_hash(sf_dir: str, rate: float = 0.1, salt: str = "s1"):
    """Deterministic content-hash sampling — the reproducible
    downsampling primitive a 100 TB curation job needs (same doc is
    kept or dropped regardless of partitioning, cluster size or rerun):
    keep doc iff md5(text || salt) as a 63-bit integer < rate * 2^63.
    Pure map filter — no shuffle, no state; the salt decorrelates
    successive sampling stages. Exact SQL mirror (same md5 arithmetic
    in DuckDB)."""
    thresh = int(rate * (1 << 63))

    def keep(t: pa.Table) -> pa.Table:
        h = D.add_text_hash(
            t.append_column("__salted", pc.binary_join_element_wise(
                t.column("text").cast(pa.string()), salt, "")),
            column="__salted",
        ).column("text_hash").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(h < thresh)).select(["doc_id", "text"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(keep, batch_format="pyarrow")


def doc_mix_epochs(sf_dir: str):
    """Data-mixing epoch expansion — the Dolma/DCLM mixture primitive:
    each source gets a (possibly fractional) epoch weight and every doc
    is repeated floor(w) times plus one more with probability frac(w),
    decided by the doc's deterministic content hash (so the extra-epoch
    draw is reproducible across reruns, partitionings and cluster
    sizes, and exact duplicates draw identically — content-determinism
    by design). Weights derive from the source name's numeric suffix
    mod 4 -> w in {1.0, 1.75, 2.5, 3.25}, so the op works over any
    source set; thresholds are exact power-of-two integers (frac * 2^63
    with frac in {0, .75, .5, .25}) — no float arithmetic crosses the
    engine/oracle boundary. Pure map expansion (repeat-take inside one
    map_batches): no shuffle, no state, embarrassingly parallel at
    100 TB."""
    FULL = np.array([1, 1, 2, 3], np.int64)
    THR = np.array([0, 3 << 61, 1 << 62, 1 << 61], np.int64)

    def expand(t: pa.Table) -> pa.Table:
        src = one_array(t.column("source"))
        digits = pc.extract_regex(src, r"(?P<d>[0-9]+)")
        # digit-less source names fall into weight class 0 (w = 1.0) on
        # both sides (the oracle's TRY_CAST -> COALESCE 0)
        mk = pc.fill_null(
            pc.cast(pc.struct_field(digits, "d"), pa.int64()), 0
        ).to_numpy(zero_copy_only=False).astype(np.int64) % 4
        h = D.add_text_hash(
            t.append_column("__salted", pc.binary_join_element_wise(
                t.column("text").cast(pa.string()), "mix", "")),
            column="__salted",
        ).column("text_hash").to_numpy(zero_copy_only=False)
        reps = FULL[mk] + (h < THR[mk])
        total = int(reps.sum())
        starts = np.cumsum(reps) - reps
        doc_of = np.repeat(np.arange(len(reps)), reps)
        return pa.table({
            "doc_id": t.column("doc_id").take(pa.array(doc_of)),
            "source": src.take(pa.array(doc_of)),
            "epoch": pa.array(
                np.arange(total, dtype=np.int64) - starts[doc_of]),
        })

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    return ds.map_batches(expand, batch_format="pyarrow")


def doc_sample_weighted(sf_dir: str, k: int = 100):
    """Weighted exact-k sample (the exponential-clock / Gumbel form of
    Efraimidis-Spirakis 2006): every row draws u in (0, 1] from its
    deterministic 63-bit md5 key and ranks by -ln(u)/w ascending with
    w = its whitespace token count, so inclusion probability tracks
    the weight (the quality- or length-weighted draw a curation
    pipeline uses to bias toward substantive documents) while staying
    reproducible across reruns, partitionings and cluster sizes. Same
    monoid top-k shape as doc_sample_reservoir: each block keeps its
    bottom-k under the FINAL (round6(wkey), doc_id) ordering — so the
    partial selection is closed under merge — and the driver merges
    <= k x blocks rows; no shuffle, corpus never materializes. Exact
    SQL mirror through the same md5 + ln arithmetic (u is built from
    identical double ops on both sides; only libm's last-ulp ln noise
    remains, far inside ROUND-6 + the id tie-break)."""
    import hashlib

    def local_bottomk(t: pa.Table) -> pa.Table:
        ids_c = one_array(t.column("doc_id"))
        ids = ids_c.to_numpy(zero_copy_only=False)
        text = one_array(t.column("text"))
        payload = pc.binary_join_element_wise(
            ids_c.cast(pa.string()), text.cast(pa.string()), ":")
        u63 = np.fromiter(
            (int.from_bytes(hashlib.md5(v.as_py().encode()).digest()[:8],
                            "big") >> 1 for v in payload),
            dtype=np.int64, count=len(payload))
        w = pc.list_value_length(pc.split_pattern(text, " ")) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        u = (u63.astype(np.float64) + 1.0) * 2.0 ** -63
        wkey = np.round(-np.log(u) / w, 6)
        sel = np.lexsort((ids, wkey))[:k]
        return pa.table({
            "doc_id": pa.array(ids[sel], type=pa.int64()),
            "wkey": pa.array(wkey[sel], type=pa.float64()),
        })

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    merged = X.fold(ds, local_bottomk, pa.schema([("doc_id", pa.int64()),
                                                  ("wkey", pa.float64())]))
    order = pc.sort_indices(merged, sort_keys=[("wkey", "ascending"),
                                               ("doc_id", "ascending")])
    return merged.take(order[:k])


def doc_compression_ratio(sf_dir: str):
    """Per-doc zlib compression ratio — the classic cheap repetition /
    junk heuristic (boilerplate and template spam compress far below
    natural text; near-random noise compresses above 1.0). Pure map
    over blocks (stdlib zlib level 6 per doc, the fingerprint-precedent
    per-doc loop); emits (doc_id, raw_bytes, zlib_bytes, ratio round6).
    zlib output bytes have no closed form, so there is no SQL oracle —
    rows-only driver gate; a pytest pins exact equality with direct
    zlib.compress and the repetitive-vs-random ordering property."""
    import zlib

    schema = pa.schema([("doc_id", pa.int64()), ("raw_bytes", pa.int64()),
                        ("zlib_bytes", pa.int64()), ("ratio", pa.float64())])

    def ratios(t: pa.Table) -> pa.Table:
        texts = [x or "" for x in t.column("text").to_pylist()]
        raw = np.array([len(x.encode("utf-8")) for x in texts],
                       dtype=np.int64)
        comp = np.array([len(zlib.compress(x.encode("utf-8"), 6))
                         for x in texts], dtype=np.int64)
        ratio = np.round(comp / np.maximum(raw, 1), 6)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "raw_bytes": pa.array(raw),
            "zlib_bytes": pa.array(comp),
            "ratio": pa.array(ratio),
        }, schema=schema)

    return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(ratios, batch_format="pyarrow")


def doc_length_histogram(sf_dir: str, bucket_tokens: int = 10):
    """Token-length distribution of the corpus — the first diagnostic
    a curation run prints (truncation/packing budgets, length-filter
    thresholds): docs bucketed by ``n_tokens // bucket_tokens``, with
    per-bucket doc and token totals. One streaming scan emitting
    per-block bucket partials (bincount — a few dozen ints each); the
    driver folds partials. All-integer arithmetic, so the SQL mirror
    gates exactly."""
    PART = pa.schema([("bucket", pa.int64()), ("n_docs", pa.int64()),
                      ("sum_tokens", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        col = one_array(t.column("text"))
        n_tok = pc.list_value_length(pc.split_pattern(col, " ")) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        b = n_tok // bucket_tokens
        n_docs = np.bincount(b)
        sum_tok = np.bincount(b, weights=n_tok).astype(np.int64)
        nz = np.flatnonzero(n_docs)
        return pa.Table.from_arrays([
            pa.array(nz.astype(np.int64)),
            pa.array(n_docs[nz].astype(np.int64)),
            pa.array(sum_tok[nz]),
        ], schema=PART)

    return X.merge(_read(sf_dir, "documents", columns=["text"]), partial,
                   ["bucket"], PART).sort_by("bucket")


def doc_split_assign(sf_dir: str, val: float = 0.05, test: float = 0.05,
                     salt: str = "sp1"):
    """Deterministic train/val/test split assignment by content-hash
    range — the dataset-split step with the leakage guarantee that
    matters at 100 TB: the SAME text always lands in the same split
    (duplicate or re-crawled documents can never straddle train and
    eval), regardless of partitioning, rerun or cluster size.
    h = md5(text || salt) as 63-bit int; h < val*2^63 -> 'val',
    < (val+test)*2^63 -> 'test', else 'train'. Pure map — no shuffle,
    no state; exact SQL mirror (same md5 arithmetic)."""
    t_val = int(val * (1 << 63))
    t_test = int((val + test) * (1 << 63))

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "split": pa.array([], pa.string())})
        h = D.add_text_hash(
            t.append_column("__salted", pc.binary_join_element_wise(
                t.column("text").cast(pa.string()), salt, "")),
            column="__salted",
        ).column("text_hash").to_numpy(zero_copy_only=False)
        split = np.where(h < t_val, "val",
                         np.where(h < t_test, "test", "train"))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "split": pa.array(split.astype(object), pa.string()),
        })

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(assign, batch_format="pyarrow")


def doc_sample_reservoir(sf_dir: str, k: int = 100):
    """Exact-k uniform sample (deterministic reservoir): every ROW gets
    the 63-bit key md5(doc_id ':' text) and the global bottom-k by
    (key, doc_id) is the sample — equivalent to a k-reservoir under a
    fixed random order, but reproducible across reruns, partitionings
    and cluster sizes (the property doc_sample_hash provides for
    rate-based sampling, here for exact-count sampling). Distributed
    shape: each block keeps its local bottom-k (the partial ordering IS
    the final ordering, so block top-k is closed under merge — the
    doc_group_topk monoid), and the driver merges <= k x blocks rows;
    no shuffle, corpus never materializes. Keying on doc_id:text (not
    text alone) makes duplicate texts independent rows in the draw.
    Exact SQL mirror: ORDER BY the same md5 arithmetic LIMIT k."""
    import hashlib

    def local_bottomk(t: pa.Table) -> pa.Table:
        ids_c = one_array(t.column("doc_id"))
        ids = ids_c.to_numpy(zero_copy_only=False)
        # one md5 per row (keys are per-row unique by construction, so
        # the per-unique dictionary idiom degenerates — the md5 itself
        # is the work, same as add_text_hash on an all-distinct corpus)
        payload = pc.binary_join_element_wise(
            ids_c.cast(pa.string()), t.column("text").cast(pa.string()), ":")
        keys = np.fromiter(
            (int.from_bytes(hashlib.md5(v.as_py().encode()).digest()[:8],
                            "big") >> 1 for v in payload),
            dtype=np.int64, count=len(payload))
        sel = np.lexsort((ids, keys))[:k]
        return pa.table({
            "doc_id": pa.array(ids[sel], type=pa.int64()),
            "sample_key": pa.array(keys[sel], type=pa.int64()),
        })

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    merged = X.fold(ds, local_bottomk, pa.schema([
        ("doc_id", pa.int64()), ("sample_key", pa.int64())]))
    order = pc.sort_indices(merged, sort_keys=[("sample_key", "ascending"),
                                               ("doc_id", "ascending")])
    return merged.take(order[:k])


def doc_sample_stratified(sf_dir: str, rates: dict[str, float] | None = None,
                          default_rate: float = 0.05, salt: str = "s2"):
    """Per-stratum deterministic sampling (e.g. language rebalancing in
    a training mix): each ``lang`` stratum gets its own keep rate, the
    keep decision stays content-hash deterministic. The rate map rides
    the closure (tiny); no shuffle."""
    rates = rates if rates is not None else {"en": 0.5, "de": 0.2}

    def keep(t: pa.Table) -> pa.Table:
        h = D.add_text_hash(
            t.append_column("__salted", pc.binary_join_element_wise(
                t.column("text").cast(pa.string()), salt, "")),
            column="__salted",
        ).column("text_hash").to_numpy(zero_copy_only=False)
        # vectorized per-stratum thresholds: one equality mask per rate
        # entry (rate maps are tiny by contract), not per-row Python
        lang_col = t.column("lang")
        th = np.full(t.num_rows, int(default_rate * (1 << 63)),
                     dtype=np.int64)
        for lg, r in rates.items():
            m = pc.equal(lang_col, lg).to_numpy(zero_copy_only=False)
            th[m] = int(r * (1 << 63))
        return t.filter(pa.array(h < th)).select(["doc_id", "lang"])

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return ds.map_batches(keep, batch_format="pyarrow")


_DECONTAM_DEFAULT = ("table value part hash", "spark order data column",
                     "vector table fast batch")


def doc_decontaminate(sf_dir: str, blocklist: tuple[str, ...] | None = None):
    """Test-set DECONTAMINATION — the canonical pre-training hygiene
    step: flag every document whose text contains any blocklist phrase
    (e.g. benchmark prompts). The blocklist is broadcast once
    (``ray.put``) and each block runs vectorized substring matches
    (Arrow match_substring per phrase) — no shuffle, no state; at 100 TB
    this is a pure map scan. Output: (doc_id, contaminated, n_hits)."""
    phrases = tuple(blocklist) if blocklist is not None else _DECONTAM_DEFAULT
    bref = ray.put(phrases)

    def scan(t: pa.Table) -> pa.Table:
        ps = ray.get(bref)
        col = one_array(t.column("text"))
        n = t.num_rows
        hits = np.zeros(n, dtype=np.int64)
        for p in ps:
            hits += pc.match_substring(col, p).to_numpy(
                zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "contaminated": pa.array((hits > 0).astype(np.int64)),
            "n_hits": pa.array(hits),
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        scan, batch_format="pyarrow")


def doc_dedup_substring(sf_dir: str, k: int = 10):
    """Substring-level dedup: count, per document, the k-token windows
    that also appear (verbatim) in at least one OTHER document — the
    repeated-passage primitive from "Deduplicating Training Data Makes
    Language Models Better" (Lee et al., 2022), where dedup acts on
    spans, not whole documents (boilerplate, licenses, quoted chunks).

    Engine shape: one corpus scan builds 64-bit polynomial rolling
    hashes over the whitespace token stream (per-UNIQUE-token crc32
    through dictionary codes, k shifted uint64 multiply-adds — no gram
    strings ever materialize), emits block-deduped (window_hash,
    doc_id, n_positions) partials sliced by ``whash % P``
    (``num_returns=P`` raw-task exchange — the window partials stream
    shard-by-shard with no Sort materialization; 22-34 s -> 17 s warm
    at 4M docs); each whash partition keeps hashes seen in >= 2
    distinct docs, re-aggregates per doc, and routes the per-doc sums
    by ``doc_id % P`` into the second (tiny) combine. Output:
    (doc_id, n_dup_windows) for affected docs only. Shuffle volume is
    (distinct windows per block) x 24 bytes — the corpus text never
    moves. 64-bit window hashes may collide (~1e-4 at 1e8 windows,
    birthday) exactly like the engine-wide 63-bit text_hash contract;
    the string-exact SQL mirror gates the fixed testdata
    value-for-value."""
    P = X.n_parts()

    def window_partial(t: pa.Table):
        import zlib

        col = one_array(t.column("text"))
        # split_pattern " " == DuckDB string_split (keeps empty tokens)
        words = pc.split_pattern(col, " ")
        offsets = words.offsets.to_numpy().astype(np.int64)
        flat = words.values
        nw = len(flat)
        E = np.zeros(0, np.uint64), np.zeros(0, np.int64), \
            np.zeros(0, np.int64)
        if nw < k:
            return [E for _ in range(P)]
        enc = flat.dictionary_encode()
        uh = np.array([zlib.crc32(u.encode("utf-8"))
                       for u in enc.dictionary.to_pylist()], dtype=np.uint64)
        th = uh[enc.indices.to_numpy(zero_copy_only=False)]
        nwin = nw - k + 1
        H = np.zeros(nwin, dtype=np.uint64)
        B = np.uint64(1099511628211)  # odd base; uint64 wraparound ring
        p = np.uint64(1)
        with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
            for j in range(k - 1, -1, -1):
                H += th[j:j + nwin] * p
                p = p * B
        starts = np.arange(nwin, dtype=np.int64)
        doc_of = np.searchsorted(offsets, starts, "right") - 1
        valid = starts + k <= offsets[doc_of + 1]
        if not valid.any():
            return [E for _ in range(P)]
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        wh = H[valid]
        wdoc = ids[doc_of[valid]]
        # block-local (hash, doc) position counts (docs never split
        # across batches, so these partials are per-doc complete)
        order = np.lexsort((wdoc, wh))
        hs, ds_ = wh[order], wdoc[order]
        new = np.ones(len(hs), dtype=bool)
        new[1:] = (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])
        sidx = np.flatnonzero(new)
        cnt = np.diff(np.append(sidx, len(hs)))
        hu, du = hs[sidx], ds_[sidx]
        cnt = cnt.astype(np.int64)
        # slice into P whash-hash shards (the raw-task exchange: same
        # two-phase shape as compat/label-prop; the 3.5 GB of window
        # partials stream shard-by-shard instead of through a Sort)
        return X.split((hu % np.uint64(P)).astype(np.int64), P, hu, du, cnt)

    def dup_part(P2: int, *shards) -> list:
        h = np.concatenate([s[0] for s in shards])
        E = np.zeros(0, np.int64), np.zeros(0, np.int64)
        if not len(h):
            return [E for _ in range(P2)]
        d = np.concatenate([s[1] for s in shards])
        c = np.concatenate([s[2] for s in shards])
        order = np.lexsort((d, h))
        h, d, c = h[order], d[order], c[order]
        new_h = np.ones(len(h), dtype=bool)
        new_h[1:] = h[1:] != h[:-1]
        hid = np.cumsum(new_h) - 1
        # distinct docs per hash (rows are (hash, doc)-distinct already)
        ndocs = np.bincount(hid)
        dupm = ndocs[hid] >= 2
        if not dupm.any():
            return [E for _ in range(P2)]
        dd, cc = d[dupm], c[dupm]
        uniq, code = np.unique(dd, return_inverse=True)
        n = np.bincount(code, weights=cc).astype(np.int64)
        # route the per-doc sums by doc hash for the second exchange
        return X.split(uniq % P2, P2, uniq, n)

    OUT = pa.schema([("doc_id", pa.int64()), ("n_dup_windows", pa.int64())])

    def doc_sum(*shards) -> pa.Table:
        d = np.concatenate([s[0] for s in shards])
        if not len(d):
            return OUT.empty_table()
        w = np.concatenate([s[1] for s in shards])
        uniq, code = np.unique(d, return_inverse=True)
        n = np.bincount(code, weights=w).astype(np.int64)
        return pa.Table.from_arrays([pa.array(uniq), pa.array(n)],
                                    schema=OUT)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    refs = X.block_refs(ds)
    if not refs:
        return rd.from_arrow(OUT.empty_table())
    sl = X.shard(window_partial, refs, P)
    dl = X.combine(dup_part, sl, P, num_returns=P)
    return rd.from_arrow_refs(X.combine(doc_sum, dl))


def doc_decontaminate_ngram(sf_dir: str,
                            blocklist: tuple[str, ...] | None = None,
                            n: int = 3):
    """N-GRAM overlap decontamination — the realistic benchmark-leak
    test (how WMDP/benchmark decontamination is actually run): a doc is
    contaminated if it shares ANY word n-gram with a blocklist phrase,
    catching partial/reworded inclusions the whole-phrase substring
    scan (``doc_decontaminate``) misses.

    Engine shape: the blocklist's n-gram STRING set (tiny — grams of a
    handful of phrases) is broadcast once; each block builds its docs'
    n-grams vectorized (one whitespace split, two shifted
    ``binary_join_element_wise`` concats over the flat word array,
    doc-boundary grams masked) and counts exact membership via
    ``pc.is_in`` + per-doc ``bincount``. No shuffle, no hashing —
    string-exact, so the SQL mirror (unnest n-grams, IN blocklist
    grams) gates it value-for-value."""
    phrases = tuple(blocklist) if blocklist is not None else _DECONTAM_DEFAULT
    grams = set()
    for p in phrases:
        ws = p.split(" ")
        grams.update(" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1))
    gram_ref = ray.put(pa.array(sorted(grams), pa.string()))

    def scan(t: pa.Table) -> pa.Table:
        gset = ray.get(gram_ref)
        col = one_array(t.column("text"))
        # split_pattern " " == DuckDB string_split (keeps empty tokens)
        words = pc.split_pattern(col, " ")
        offsets = words.offsets.to_numpy().astype(np.int64)
        flat = words.values
        nw = len(flat)
        hits = np.zeros(t.num_rows, dtype=np.int64)
        if nw >= n:
            parts = [flat.slice(k, nw - n + 1) for k in range(n)]
            doc_grams = parts[0]
            for p_ in parts[1:]:
                doc_grams = pc.binary_join_element_wise(doc_grams, p_, " ")
            hit = pc.is_in(doc_grams, value_set=gset).to_numpy(
                zero_copy_only=False).astype(np.int64)
            # drop grams that straddle a doc boundary: gram at flat
            # position i belongs to the doc iff i + n <= doc's end
            doc_idx = np.repeat(
                np.arange(t.num_rows), np.diff(offsets))[:nw - n + 1]
            valid = (np.arange(nw - n + 1) + n) <= offsets[1:][doc_idx]
            hits = np.bincount(doc_idx, weights=hit * valid,
                               minlength=t.num_rows).astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "contaminated": pa.array((hits > 0).astype(np.int64)),
            "n_hits": pa.array(hits),
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        scan, batch_format="pyarrow")


_CAND_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])


def _bucket_pairs_combine(t: pa.Table) -> pa.Table:
    """One band-hash partition of the LSH candidate exchange: every pair
    of docs sharing a bucket in its (band_hash, doc_id) rows (sorted ids
    per bucket, deduped within the partition), looping only over
    buckets with >= 2 members."""
    bh = t.column("band_hash").to_numpy()
    ids = t.column("doc_id").to_numpy()
    order = np.lexsort((ids, bh))
    bh, ids = bh[order], ids[order]
    nb = np.ones(len(bh), dtype=bool)
    nb[1:] = bh[1:] != bh[:-1]
    bounds = np.append(np.flatnonzero(nb), len(bh))
    sizes = np.diff(bounds)
    outs_a, outs_b = [], []
    for bi in np.flatnonzero(sizes >= 2):
        s, e = bounds[bi], bounds[bi + 1]
        bucket_ids = ids[s:e]  # ascending via the lexsort secondary key
        iu, ju = np.triu_indices(e - s, 1)
        outs_a.append(bucket_ids[iu])
        outs_b.append(bucket_ids[ju])
    if not outs_a:
        return _CAND_SCHEMA.empty_table()
    pairs = np.unique(
        np.stack([np.concatenate(outs_a), np.concatenate(outs_b)], axis=1),
        axis=0)
    return pa.Table.from_arrays(
        [pa.array(pairs[:, 0]), pa.array(pairs[:, 1])],
        schema=_CAND_SCHEMA)


def _candidate_pair_block_refs(sf_dir: str) -> list:
    """LSH candidate generation as OBJECT-STORE block refs via one
    band-hash exchange (``exchange.part_exchange``): each doc block
    computes its band rows inside the read, and one combine task per
    partition emits its bucket pairs. Locally this times the same as
    the former groupby+Sort (signatures dominate: ~9 s of the ~15 s
    warm stage at 4M); it's kept for the same reason the other
    exchanges use it — no all-to-all barrier, shards stream to combines
    as soon as each block is signed. No candidate pair ever lands on
    the driver — assembly, slot-map construction and edge sharding all
    happen in downstream remote tasks."""
    return X.part_exchange(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        D.minhash_bands, _col_key("band_hash"), _bucket_pairs_combine,
        _CAND_SCHEMA)


def _pair_cols(block: pa.Table) -> np.ndarray:
    """(n, 2) int64 pair array from a typed pair block."""
    return np.stack([
        block.column("id_a").to_numpy(zero_copy_only=False),
        block.column("id_b").to_numpy(zero_copy_only=False),
    ], axis=1)


def _assemble_pairs(*blocks):
    """Remote task: concat candidate blocks, canonical (a < b) order,
    global dedup (the same pair can surface from different bands in
    different partitions). Returns (pairs (n,2) int64, n) — the array
    stays in the object store; callers ray.get only the count."""
    arrs = [_pair_cols(b) for b in blocks]
    if not arrs:
        return np.empty((0, 2), dtype=np.int64), 0
    cn = np.concatenate(arrs).astype(np.int64, copy=False)
    order = np.lexsort((cn[:, 1], cn[:, 0]))
    cn = cn[order]
    keep = np.ones(len(cn), dtype=bool)
    keep[1:] = (cn[1:, 0] != cn[:-1, 0]) | (cn[1:, 1] != cn[:-1, 1])
    pairs = cn[keep]
    return pairs, len(pairs)


def _build_slot_map(pairs: np.ndarray):
    """Remote task: the (doc -> pair slots) lookup for the distributed
    verify, sorted by doc_id for searchsorted. Output-sized (2 rows per
    candidate pair); built and stored in the object store, read by
    every scan task via its ref."""
    npairs = len(pairs)
    slot_doc = pairs.reshape(-1)  # [a0, b0, a1, b1, ...]
    so = np.argsort(slot_doc, kind="stable")
    return (slot_doc[so],
            np.repeat(np.arange(npairs, dtype=np.int64), 2)[so],
            np.tile(np.array([0, 1], dtype=np.int64), npairs)[so],
            pairs)


_PAIR_SCHEMA = pa.schema([
    ("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64()),
])


def _verified_pairs_ds(sf_dir: str, bc_ref, threshold: float):
    """Distributed exact-Jaccard verify WITHOUT a corpus-wide join: the
    slot map (bc_ref, object-store resident) is read inside every scan
    task and candidate texts are emitted as (pair_id, side, text) slot
    rows straight from the corpus scan via searchsorted — only candidate
    TEXTS enter the pair-id hash exchange. The native slots.join(corpus)
    alternative hash-partitioned all 4M texts for 400k slots (~2x the
    wall time of this whole verify). Returns the verified pairs as a
    Dataset over the combine tasks' outputs; no pair row touches the
    driver."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def emit_slots(t: pa.Table) -> pa.Table:
        sd, sp, ss, prs = ray.get(bc_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        lo = np.searchsorted(sd, ids, "left")
        cnt = np.searchsorted(sd, ids, "right") - lo
        m = cnt > 0
        tot = cnt[m]
        n_out = int(tot.sum())
        # flatten each matching row's [lo, lo+cnt) slot range
        pos = (np.arange(n_out, dtype=np.int64)
               - np.repeat(np.cumsum(tot) - tot, tot)
               + np.repeat(lo[m], tot))
        pid = sp[pos]
        rows = np.repeat(np.flatnonzero(m), tot)
        return pa.table({
            "pair_id": pa.array(pid, pa.int64()),
            "id_a": pa.array(prs[pid, 0], pa.int64()),
            "id_b": pa.array(prs[pid, 1], pa.int64()),
            "side": pa.array(ss[pos], pa.int64()),
            "text": t.column("text").take(pa.array(rows)),
        })

    def verify_part(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        g = g.sort_values(["pair_id", "side"], kind="stable")
        pid = g["pair_id"].to_numpy()
        texts = g["text"].tolist()
        ia = g["id_a"].to_numpy()
        ib = g["id_b"].to_numpy()
        nb = np.ones(len(g), dtype=bool)
        nb[1:] = pid[1:] != pid[:-1]
        bounds = np.append(np.flatnonzero(nb), len(g))
        out_a, out_b, out_j = [], [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s == 2:
                j = D.jaccard(texts[s], texts[s + 1])
                if j >= threshold:
                    out_a.append(int(ia[s]))
                    out_b.append(int(ib[s]))
                    out_j.append(round(j, 3))
        return pd.DataFrame({"id_a": pd.array(out_a, dtype="int64"),
                             "id_b": pd.array(out_b, dtype="int64"),
                             "jaccard": pd.array(out_j, dtype="float64")})

    def pair_key(t: pa.Table) -> np.ndarray:
        return t.column("pair_id").to_numpy()

    return rd.from_arrow_refs(X.part_exchange(
        ds, emit_slots, pair_key, verify_part, _PAIR_SCHEMA))


def doc_dedup_minhash(sf_dir: str, threshold: float = 0.8):
    """MinHash+LSH near-dup pairs: shingle->minhash->band rows ->
    bucket groupby -> candidate pairs -> exact-Jaccard verify.

    Scale shape: signatures, bucket pair-finding AND the verify are
    fully distributed, and since r4 the candidate pair list NEVER
    touches the driver either — per-partition candidate blocks are
    assembled, deduped and turned into the verify slot map by REMOTE
    tasks (refs only on the driver). Candidate texts never move: each
    pair becomes two slot rows emitted from the corpus scan via
    searchsorted against the object-store slot map, then a part-grouped
    verify computes the exact Jaccard where the two texts land. The
    driver materializes only the VERIFIED output (this query's public
    contract: a pair table). An adversarial one-giant-bucket pytest
    pins the bounded-driver-memory property.

    Partitioning assumption: one LSH bucket fits in a worker (standard
    LSH contract; bands/rows tuned so buckets stay small)."""
    empty = _PAIR_SCHEMA.empty_table()
    refs = _candidate_pair_block_refs(sf_dir)
    assemble = ray.remote(_assemble_pairs)
    pairs_ref, n_ref = assemble.options(num_returns=2).remote(*refs)
    if ray.get(n_ref) == 0:
        return empty
    bc_ref = ray.remote(_build_slot_map).remote(pairs_ref)
    verified = X.collect(_verified_pairs_ds(sf_dir, bc_ref, threshold),
                         _PAIR_SCHEMA)
    return verified.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def doc_decontaminate_neardup(sf_dir: str, threshold: float = 0.8,
                              eval_mod: int = 7):
    """DOC-level eval decontamination — the third decontamination mode
    beside the substring and n-gram phrase checks: training documents
    that are near-duplicates (word-shingle Jaccard >= threshold) of an
    EVAL-set document, the realistic whole-document leak check (eval
    rewrites, re-crawls, boilerplate-wrapped copies). The eval set here
    is the membership predicate ``doc_id % eval_mod == 0`` (mod 7 ~
    a 14% eval slice, sized so the fixed testdata actually contains
    cross-set leaks to gate) so the SQL mirror stays exact; at scale
    it would be a broadcast id/hash set — the pipeline is identical. Rides the full distributed MinHash-LSH
    machinery (signatures -> raw-task bucket exchange -> driver-free
    verify) and filters the verified pairs to cross-set ones; output
    (train_id, eval_id, jaccard), one row per leaking pair."""
    pairs = doc_dedup_minhash(sf_dir, threshold)
    a = pairs.column("id_a").to_numpy(zero_copy_only=False)
    b = pairs.column("id_b").to_numpy(zero_copy_only=False)
    j = pairs.column("jaccard").to_numpy(zero_copy_only=False)
    ea, eb = a % eval_mod == 0, b % eval_mod == 0
    keep = ea ^ eb
    a, b, j, ea = a[keep], b[keep], j[keep], ea[keep]
    train = np.where(ea, b, a)
    ev = np.where(ea, a, b)
    order = np.lexsort((ev, train))
    return pa.table({
        "train_id": pa.array(train[order].astype(np.int64)),
        "eval_id": pa.array(ev[order].astype(np.int64)),
        "jaccard": pa.array(j[order], pa.float64()),
    })


def doc_dedup_simhash(sf_dir: str, max_hamming: int = 3):
    """SimHash near-dup pairs via 4x16-bit pigeonhole bucketing, fully
    distributed: per-block signatures -> (seg, seg_val) bucket rows
    routed by ``seg_val*4 + seg`` (``exchange.part_exchange`` —
    bucket rows stream shard-by-shard, no Sort) -> per-partition
    vectorized Hamming verify -> driver dedupe of the (output-sized)
    pair list. No corpus materialization; per-worker memory is bounded
    by the partition's bucket rows."""
    def seg_rows(block: pa.Table) -> pa.Table:
        return D.simhash_segment_rows(D.simhash_batch(block))

    def seg_key(t: pa.Table) -> np.ndarray:
        return t.column("seg_val").to_numpy().astype(np.int64) * 4 \
            + t.column("seg").to_numpy()

    PAIRS = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                       ("hamming", pa.int64())])

    def bucket_verify_part(t: pa.Table) -> pa.Table:
        seg = t.column("seg").to_numpy()
        sv = t.column("seg_val").to_numpy()
        order = np.lexsort((sv, seg))
        seg, sv = seg[order], sv[order]
        ids_all = t.column("doc_id").to_numpy().astype(np.int64)[order]
        sigs_all = t.column("simhash").to_numpy().astype(np.int64)[order]
        nb = np.ones(len(seg), dtype=bool)
        nb[1:] = (seg[1:] != seg[:-1]) | (sv[1:] != sv[:-1])
        bounds = np.append(np.flatnonzero(nb), len(seg))
        sizes = np.diff(bounds)
        out_a, out_b, out_h = [], [], []
        for bi in np.flatnonzero(sizes >= 2):
            s, e = bounds[bi], bounds[bi + 1]
            lo, hi, ham = D.simhash_bucket_pairs(
                ids_all[s:e], sigs_all[s:e], max_hamming)
            if len(lo):
                out_a.append(lo)
                out_b.append(hi)
                out_h.append(ham)
        if not out_a:
            return PAIRS.empty_table()
        return pa.Table.from_arrays([
            pa.array(np.concatenate(out_a).astype(np.int64)),
            pa.array(np.concatenate(out_b).astype(np.int64)),
            pa.array(np.concatenate(out_h).astype(np.int64)),
        ], schema=PAIRS)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = X.gather(X.part_exchange(ds, seg_rows, seg_key,
                                     bucket_verify_part, PAIRS),
                     PAIRS).to_pandas()
    if pairs.empty:
        return PAIRS.empty_table()
    # a pair is found once per shared segment (<=4): dedupe + sort; this
    # is the OUTPUT, orders of magnitude smaller than the corpus
    pairs = pairs.drop_duplicates().sort_values(["id_a", "id_b"])
    return pa.Table.from_pandas(pairs.reset_index(drop=True),
                                preserve_index=False)


def doc_dedup_clusters(sf_dir: str, threshold: float = 0.8):
    """Near-dup CLUSTERS: MinHash-LSH pairs -> connected components ->
    one row per clustered doc with its cluster representative (min
    doc_id). Docs without any near-dup are omitted (singletons)."""
    pairs_t = doc_dedup_minhash(sf_dir, threshold)
    pairs = list(zip(pairs_t.column("id_a").to_pylist(),
                     pairs_t.column("id_b").to_pylist()))
    labels = D.connected_components(pairs)
    items = sorted(labels.items())
    return pa.table({
        "doc_id": pa.array([k for k, _ in items], type=pa.int64()),
        "cluster_id": pa.array([v for _, v in items], type=pa.int64()),
    })


_NGRAM_PAIRS_SCHEMA = pa.schema([
    ("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64()),
])

_CONTAIN_PAIRS_SCHEMA = pa.schema([
    ("id_contained", pa.int64()), ("id_container", pa.int64()),
    ("containment", pa.float64()),
])


def _chunk_slice(block: pa.Table, B: int, id_col: str) -> list:
    """Split one read block into B chunk slices (``id % B``) — the
    exchange half of the raw-task chunk-pair join; each slice is
    consumed by the B pair tasks whose pair contains its chunk."""
    ids = block.column(id_col).to_numpy(zero_copy_only=False)
    return X.split((ids % B).astype(np.int64), B, block)


def _chunk_pair_join(refs: list, id_col: str, B: int, pair_fn, *args,
                     num_cpus: int, **kw) -> list:
    """The raw-task chunk-pair join (the classic all-pairs "triangle"
    layout): every block ships once, sliced into B chunks, and each of
    the B(B+1)/2 ``pair_fn(*args, n_a, *a_slices, *b_slices, **kw)``
    tasks pulls exactly the two chunks it compares (no b slices = the
    in-chunk upper triangle). Returns the pair-task refs. The engine's
    one all-pairs layout: doc_dedup_ngram, doc_dedup_containment,
    emb_dedup_cosine and emb_knn_join."""
    sl = X.shard(_chunk_slice, refs, B, B, id_col)
    task = ray.remote(pair_fn).options(num_cpus=num_cpus)
    return [task.remote(*args, len(sl[a]), *sl[a],
                        *(sl[b] if b > a else ()), **kw)
            for a in range(B) for b in range(a, B)]


def _ngram_pair(threshold: float, n: int, na_parts: int,
                *parts, metric: str = "jaccard") -> pa.Table:
    """One chunk pair: ``parts[:na_parts]`` are the A-chunk slices, the
    remainder the B-chunk slices (no remainder = the diagonal A x A
    pair). Inverted-index co-occurrence counting: shared gram codes ->
    sorted (gram, doc) postings per side -> aligned common-gram runs,
    hot grams as one indicator matmul (BLAS), cold grams as COO
    bincount in bounded-memory slices. Exact — same intersection
    counts as per-pair set intersections."""
    a_tbl = pa.concat_tables(parts[:na_parts])
    diag = na_parts == len(parts)
    b_tbl = a_tbl if diag else pa.concat_tables(parts[na_parts:])
    ids_a = a_tbl.column("doc_id").to_numpy(zero_copy_only=False)
    ids_b = ids_a if diag else \
        b_tbl.column("doc_id").to_numpy(zero_copy_only=False)
    texts = a_tbl.column("text").to_pylist()
    if not diag:
        texts = texts + b_tbl.column("text").to_pylist()
    # int32 throughout the counting kernel (codes/postings/COO keys all
    # fit 2^31 at the documented 20k cap): the dense count matrices are
    # memory-bandwidth bound under 32-way task concurrency, and halving
    # the element width is a direct wall-time win
    code: dict = {}
    doc_codes = []
    for t in texts:
        gs = D.char_ngrams(t, n)
        doc_codes.append(np.fromiter(
            (code.setdefault(s, len(code)) for s in gs),
            dtype=np.int32, count=len(gs)))
    sizes = np.array([len(a) for a in doc_codes], dtype=np.int64)
    a_idx = np.arange(len(ids_a))
    b_idx = a_idx if diag else len(ids_a) + np.arange(len(ids_b))

    def postings(idxs):
        if len(idxs) == 0:
            return np.zeros(0, np.int32), np.zeros(0, np.int32)
        grams_f = np.concatenate([doc_codes[i] for i in idxs])
        docs_f = np.repeat(np.arange(len(idxs), dtype=np.int32),
                           sizes[idxs])
        order = np.argsort(grams_f, kind="stable")
        return grams_f[order], docs_f[order]

    def ranges(starts, ends):
        lens = ends - starts
        total = int(lens.sum())
        out_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        return (np.arange(total, dtype=np.int64)
                - np.repeat(out_starts, lens) + np.repeat(starts, lens))

    ga, da = postings(a_idx)
    gb, db = postings(b_idx)
    n_a, n_b = len(a_idx), len(b_idx)
    counts = np.zeros((n_a, n_b), dtype=np.int32)
    if len(ga) and len(gb):
        common = np.intersect1d(ga, gb)
        sa = np.searchsorted(ga, common)
        ea = np.searchsorted(ga, common, side="right")
        sb = np.searchsorted(gb, common)
        eb = np.searchsorted(gb, common, side="right")
        na, nb = ea - sa, eb - sb
        tot = na * nb
        # HOT grams (appear in many docs on both sides) contribute a
        # rank-1 all-ones update over their doc sets: batch them as
        # one indicator matmul (BLAS) instead of COO expansion
        hot_thresh = max(16384, (n_a * n_b) >> 6)
        hot = tot > hot_thresh
        hot_idx = np.flatnonzero(hot)
        hot_mask = hot
        for side_sel in range(0, len(hot_idx), 512):
            hs = hot_idx[side_sel:side_sel + 512]
            H = len(hs)
            Ah = np.zeros((n_a, H), dtype=np.float32)
            Bh = np.zeros((n_b, H), dtype=np.float32)
            Ah[da[ranges(sa[hs], ea[hs])],
               np.repeat(np.arange(H), (ea - sa)[hs])] = 1.0
            Bh[db[ranges(sb[hs], eb[hs])],
               np.repeat(np.arange(H), (eb - sb)[hs])] = 1.0
            counts += (Ah @ Bh.T).astype(np.int32)
        # COLD grams: COO expansion accumulated with bincount
        cold = np.flatnonzero(~hot_mask)
        cum = np.cumsum(tot[cold])
        budget = 16_000_000
        start = 0
        while start < len(cold):
            base = int(cum[start - 1]) if start else 0
            end = int(np.searchsorted(cum, base + budget, side="right")) + 1
            end = min(max(end, start + 1), len(cold))
            ks = cold[start:end]
            na_k, nb_k, tot_k = na[ks], nb[ks], tot[ks]
            rows = np.repeat(da[ranges(sa[ks], ea[ks])],
                             np.repeat(nb_k, na_k))
            t_off = np.concatenate([[0], np.cumsum(tot_k)[:-1]])
            within = (np.arange(int(tot_k.sum()), dtype=np.int64)
                      - np.repeat(t_off, tot_k))
            cols = db[np.repeat(sb[ks], tot_k) + within % np.repeat(nb_k, tot_k)]
            counts += np.bincount(
                rows.astype(np.int64) * n_b + cols,
                minlength=n_a * n_b).reshape(n_a, n_b).astype(np.int32)
            start = end
    sz_a, sz_b = sizes[a_idx], sizes[b_idx]
    if metric == "containment":
        # asymmetric: intersection over the SMALLER distinct-gram set
        denom = np.maximum(np.minimum(sz_a[:, None], sz_b[None, :]), 1)
        score = counts / denom
        mask = score >= threshold
        if diag:
            mask &= np.triu(np.ones_like(mask, dtype=bool), 1)
        ii, jj = np.nonzero(mask)
        a_ids, b_ids = ids_a[ii], ids_b[jj]
        a_sz, b_sz = sz_a[ii], sz_b[jj]
        # contained = the smaller set; size tie -> the larger doc_id
        a_in = (a_sz < b_sz) | ((a_sz == b_sz) & (a_ids > b_ids))
        # round-3 half-away via EXACT integer arithmetic — numpy's
        # half-to-even on c/min hits .0005 boundaries constantly here
        # (small integer denominators), so float round() is a coin flip
        # vs SQL ROUND; the mirror computes the same integer quotient
        c = counts[mask].astype(np.int64)
        d = denom[mask].astype(np.int64)
        r3 = np.floor((c * 2000 + d) / (2.0 * d)) / 1000.0
        return pa.Table.from_arrays([
            pa.array(np.where(a_in, a_ids, b_ids).astype(np.int64)),
            pa.array(np.where(a_in, b_ids, a_ids).astype(np.int64)),
            pa.array(r3, type=pa.float64()),
        ], schema=_CONTAIN_PAIRS_SCHEMA)
    union = sz_a[:, None] + sz_b[None, :] - counts
    jac = np.where(union > 0, counts / np.maximum(union, 1), 1.0)
    mask = jac >= threshold
    if diag:
        mask &= np.triu(np.ones_like(mask, dtype=bool), 1)
    ii, jj = np.nonzero(mask)
    aa, bb = ids_a[ii], ids_b[jj]
    return pa.Table.from_arrays([
        pa.array(np.minimum(aa, bb).astype(np.int64)),
        pa.array(np.maximum(aa, bb).astype(np.int64)),
        pa.array(np.round(jac[mask], 3), type=pa.float64()),
    ], schema=_NGRAM_PAIRS_SCHEMA)


def doc_dedup_ngram(sf_dir: str, threshold: float = 0.4, n: int = 5,
                    n_chunks: int | None = None):
    """Exact character-n-gram Jaccard near-dup pairs via the raw-task
    chunk-pair join: each read block is sliced once into B ``doc_id %
    B`` chunk slices (``num_returns=B`` — no replication, no sort), and
    each of the B(B+1)/2 pair tasks pulls exactly the two chunks it
    compares; n-gram sets are built ONCE per doc inside the pair task.
    Per-worker memory O(2 n_docs/B x doc n-grams); no corpus
    materialization; the pair-above-threshold output is bounded so it
    concats on the driver. Finer-grained than the word-shingle MinHash
    pipeline (catches char-level edits); exact, so the brute-force SQL
    oracle gates it directly."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    B = n_chunks or max(4, int(np.sqrt(2 * _cpus())))
    refs = X.block_refs(ds)
    if not refs:
        return _NGRAM_PAIRS_SCHEMA.empty_table()
    # bandwidth cap (target 8/node): each pair task churns dense
    # (n/B)^2 count matrices (~0.5 GB allocation traffic) — at 32-way
    # concurrency they thrash (measured 40-68 s); 8 concurrent tasks
    # run the same 36 pairs in 21-31 s. Also honest accounting on a
    # shared cluster: these are not 1-cpu-sized tasks.
    return X.gather(_chunk_pair_join(refs, "doc_id", B, _ngram_pair,
                                     threshold, n,
                                     num_cpus=_bw_task_cpus(8)),
                    _NGRAM_PAIRS_SCHEMA)


def doc_dedup_containment(sf_dir: str, threshold: float = 0.6, n: int = 5,
                          n_chunks: int | None = None):
    """ASYMMETRIC near-dup pairs by n-gram containment — intersection
    over the SMALLER distinct-gram set (|A∩B| / min(|A|, |B|)): catches
    quote-expansions and supersets whose symmetric Jaccard dilutes
    below any threshold (a doc fully contained in one 10x its size has
    containment 1.0 but Jaccard 0.1). Same raw-task chunk-pair join
    and inverted-index counting kernel as doc_dedup_ngram (the O(n^2)
    exact mode is capped by the same contract; MinHash-LSH is the
    scale path); the emit identifies the contained side (smaller set;
    size tie -> larger doc_id). Exact brute-force SQL mirror."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    B = n_chunks or max(4, int(np.sqrt(2 * _cpus())))
    refs = X.block_refs(ds)
    if not refs:
        return _CONTAIN_PAIRS_SCHEMA.empty_table()
    # the doc_dedup_ngram kernel, so the same bandwidth cap (target 8)
    return X.gather(_chunk_pair_join(refs, "doc_id", B, _ngram_pair,
                                     threshold, n,
                                     num_cpus=_bw_task_cpus(8),
                                     metric="containment"),
                    _CONTAIN_PAIRS_SCHEMA)


def _lp_propagate(P, edges: list, labels: list, shortcut_shards: list):
    """Round phase 1 (one task per edge partition): look up label[u] for
    every (u, v) edge co-located here — ``u`` values are guaranteed
    present in this partition's (sorted) node array because edges were
    partitioned by the same hash — and return the (v, label) offers
    sharded by destination partition of ``v`` (``num_returns=P``, so a
    downstream combine task pulls only its own shard). ``edges`` and
    ``labels`` hold this partition's one shard each."""
    (nodes, lab), = labels
    (u, v), = edges
    if shortcut_shards:
        u = np.concatenate([u] + [s[0] for s in shortcut_shards])
        v = np.concatenate([v] + [s[1] for s in shortcut_shards])
    offers = lab[np.searchsorted(nodes, u)]
    return X.split(X.fib_partition(v, P), P, v, offers)


def _lp_combine(P, make_shortcut, labels: list, offer_shards: list):
    """Round phase 2 (one task per label partition): min-merge the
    incoming (v, label) offers into this partition's labels — grouped
    min via the sorted-``reduceat`` idiom, and each node keeps its own
    current label as the identity. Returns the new labels, the partial
    label-sum (driver convergence check), and — when the next round
    pointer-doubles — the shortcut edges ``label(u) -> u`` generated
    from the NEW labels, pre-sharded by the partition OWNING label(u)
    (a shortcut edge's join key is its label value)."""
    (nodes, lab), = labels
    new = lab.copy()
    if offer_shards:
        vs = np.concatenate([s[0] for s in offer_shards])
        ls = np.concatenate([s[1] for s in offer_shards])
        if len(vs):
            idx = np.searchsorted(nodes, vs)
            order = np.argsort(idx, kind="stable")
            si, sl = idx[order], ls[order]
            starts = np.flatnonzero(
                np.concatenate([[True], si[1:] != si[:-1]]))
            tgt = si[starts]
            new[tgt] = np.minimum(new[tgt], np.minimum.reduceat(sl, starts))
    psum = int(new.sum())
    if make_shortcut:
        m = new != nodes  # self-pointers add nothing
        return ((nodes, new), psum,
                *X.split(X.fib_partition(new[m], P), P, new[m], nodes[m]))
    return (nodes, new), psum


def _lp_edge_shard(block, P: int):
    """Remote task: one verified-pair block -> P symmetrized edge shards
    by the Fibonacci hash of u (num_returns=P, so each seed task pulls
    only its shard). Pair rows never touch the driver."""
    pr = _pair_cols(block)
    u = np.concatenate([pr[:, 0], pr[:, 1]])
    v = np.concatenate([pr[:, 1], pr[:, 0]])
    return X.split(X.fib_partition(u, P), P, u, v)


def _lp_seed_partition(*shards):
    """Remote task: concat this partition's edge shards, derive its node
    set (sorted unique u — exactly the nodes hashed here, since edges
    are symmetrized and routed by u) and the initial labels. Returns
    (edges, labels, n_nodes, node_sum); the driver reads only the two
    ints."""
    us = [s[0] for s in shards if len(s[0])]
    vs = [s[1] for s in shards if len(s[1])]
    if not us:
        e = np.empty(0, dtype=np.int64)
        return (e, e), (e, e.copy()), 0, 0
    u = np.concatenate(us)
    v = np.concatenate(vs)
    nodes = np.unique(u)
    return (u, v), (nodes, nodes.copy()), len(nodes), int(nodes.sum())


def _label_prop(pair_refs: list, P: int,
                max_rounds: int) -> tuple[pa.Table, int]:
    """Distributed min-label propagation with ADAPTIVE pointer doubling
    over the undirected pairs in ``pair_refs`` (typed ``id_a``/``id_b``
    blocks) at P partitions; returns (sorted (u, label) table, rounds
    run). Pair rows never touch the driver: each block is symmetrized
    and sharded by ``u`` (``_lp_edge_shard``) and each partition seeds
    its edges and labels in the object store (``_lp_seed_partition``).

    Each round is a two-phase hash shuffle over raw Ray tasks (the one
    place the Dataset API genuinely doesn't fit: an iterative fixpoint
    re-executes the exchange every round, and Ray Data's native
    join + groupby pay seconds of fixed all-to-all overhead PER ROUND —
    measured ~25 s/round at 4M docs locally vs <1 s/round for this
    layout, identical labels). Edges are hash-partitioned by ``u`` ONCE
    into the object store and never move again; only the label table
    (|nodes| rows, not |corpus|) ping-pongs:

      phase 1  per edge partition: vectorized ``searchsorted`` label
               lookup, offers (v, label[u]) sharded by owner of ``v``
               (``num_returns=P`` — each combine pulls only its shard);
      phase 2  per label partition: grouped-min merge (sorted
               ``reduceat``), emitting one partial label-sum.

    From round 2 on, phase 2 also emits SHORTCUT edges
    ``label(u) -> u`` pre-sharded by the partition owning label(u), so
    phase 1 of the next round resolves ``label(label(u))`` in the same
    lookup — pointer doubling, dropping the remaining rounds from
    O(cluster diameter) to O(log diameter): a 64-node path graph
    converges in ~8 rounds, not 63. The doubling is gated because real
    near-dup graphs almost always converge within 2 rounds (dense LSH
    clusters have tiny diameters; measured 2 rounds at 4M docs).
    Shortcut edges stay inside a component, so the fixpoint (every node
    = component min) is unchanged and monotone convergence still holds.

    Driver traffic per round: 2P task submissions, P^2 shard refs and P
    partial-sum ints — never row data. Min-propagation labels only ever
    DECREASE, so the label-sum is strictly monotone and "sum unchanged"
    == "no label changed" (the convergence check costs no extra
    exchange). Partitioning assumption (same as ``exchange.n_parts``): one hash
    partition of the CANDIDATE-PAIR graph fits in a worker; raise P for
    bigger graphs."""
    edge_refs, label_refs, cnt_refs, sum_refs = X.combine(
        _lp_seed_partition, X.shard(_lp_edge_shard, pair_refs, P, P),
        num_returns=4)
    if sum(ray.get(cnt_refs)) == 0:  # no pair: no node to label
        e = pa.array([], type=pa.int64())
        return pa.table({"u": e, "label": e}), 0
    label_sum = sum(ray.get(sum_refs))
    edges = [[r] for r in edge_refs]
    shortcuts = [[] for _ in range(P)]  # [dest p][source q]
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        offers = X.combine(_lp_propagate,
                           (edges, [[r] for r in label_refs], shortcuts),
                           P, num_returns=P)
        make_sc = rounds >= 2
        out = X.combine(_lp_combine, ([[r] for r in label_refs], offers),
                        P, make_sc, num_returns=2 + (P if make_sc else 0))
        label_refs, sum_refs = out[0], out[1]
        shortcuts = out[2:] if make_sc else [[] for _ in range(P)]
        new_sum = sum(ray.get(sum_refs))
        if new_sum == label_sum:  # labels only decrease: sum fixed == converged
            break
        label_sum = new_sum
    else:
        # silent wrong labels would break the ==union-find contract on
        # exactly the large components this scale path exists for
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds; "
            f"a cluster's diameter exceeds 2^max_rounds — raise max_rounds"
        )
    parts = ray.get(label_refs)
    nodes_all = np.concatenate([p[0] for p in parts])
    labs_all = np.concatenate([p[1] for p in parts])
    order = np.argsort(nodes_all, kind="stable")
    return pa.table({
        "u": pa.array(nodes_all[order], type=pa.int64()),
        "label": pa.array(labs_all[order], type=pa.int64()),
    }), rounds


def doc_dedup_clusters_lp(sf_dir: str, threshold: float = 0.8,
                          max_rounds: int = 50):
    """Near-dup clusters via DISTRIBUTED min-label propagation — the
    scale path for candidate sets too large for driver union-find
    (doc_dedup_clusters documents that contract). Fully driver-free
    end to end (VERDICT r3 item 6): candidate assembly, the verify slot
    map, verified-pair blocks AND the edge shards all live in the
    object store; the driver holds refs, per-partition node counts/sums
    (P ints) and the final (doc_id, cluster_id) output. The propagation
    loop (pointer-doubled, O(log diameter) rounds; see _label_prop)
    ping-pongs only label tables. Output == union-find exactly (same
    min-id cluster labels), so the same recursive-CTE SQL oracle gates
    it."""
    empty_out = pa.schema([("doc_id", pa.int64()),
                           ("cluster_id", pa.int64())]).empty_table()
    refs = _candidate_pair_block_refs(sf_dir)
    assemble = ray.remote(_assemble_pairs)
    pairs_ref, n_ref = assemble.options(num_returns=2).remote(*refs)
    if ray.get(n_ref) == 0:
        return empty_out
    bc_ref = ray.remote(_build_slot_map).remote(pairs_ref)
    verified = _verified_pairs_ds(sf_dir, bc_ref, threshold)
    vrefs, total, _ = X.sized_block_refs(verified)
    if not vrefs:
        return empty_out
    out, _rounds = _label_prop(vrefs, X.row_parts(2 * total), max_rounds)
    return pa.table({
        "doc_id": out.column("u"),
        "cluster_id": out.column("label"),
    })


def doc_dedup_near_keep(sf_dir: str, threshold: float = 0.8,
                        max_rounds: int = 50):
    """The deduplicated CORPUS emit — what a training-data pipeline
    actually materializes after near-dup detection: every doc_id that
    survives keeping exactly one representative (the min doc_id) per
    near-dup cluster. Composes the driver-free minhash->label-prop
    path: drop set = cluster members whose label != their own id
    (bounded by the near-dup graph's node count, the same output-size
    contract as doc_dedup_clusters_lp), broadcast sorted once, and the
    kept ids stream out of a corpus scan via a searchsorted mask — the
    corpus itself never shuffles. SQL gate: NOT IN the recursive-CTE
    transitive-closure drop set."""
    clusters = doc_dedup_clusters_lp(sf_dir, threshold, max_rounds)
    d = clusters.column("doc_id").to_numpy(zero_copy_only=False)
    c = clusters.column("cluster_id").to_numpy(zero_copy_only=False)
    dropped = np.sort(d[d != c])
    drop_ref = ray.put(dropped)

    def keep(t: pa.Table) -> pa.Table:
        dr = ray.get(drop_ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(dr, ids)
        hit = (pos < len(dr)) & (dr[np.minimum(pos, len(dr) - 1)] == ids)
        return pa.table({"doc_id": pa.array(ids[~hit], pa.int64())})

    return _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        keep, batch_format="pyarrow")


_COS_PAIRS_SCHEMA = pa.schema([
    ("id_a", pa.int64()), ("id_b", pa.int64()), ("cos", pa.float64()),
])


def _cos_pair(threshold: float, na_parts: int, *parts) -> pa.Table:
    """One chunk pair: cross (or in-chunk upper-triangle when no B
    slices follow the A slices) chunked-cosine above-threshold pairs."""
    a_tbl = pa.concat_tables(parts[:na_parts])
    diag = na_parts == len(parts)
    ids_a = a_tbl.column("vec_id").to_numpy(zero_copy_only=False)
    if a_tbl.num_rows == 0:
        return _COS_PAIRS_SCHEMA.empty_table()
    m_a = D.normalize_rows(S.embedding_matrix(a_tbl))
    if diag:
        lo, hi, cos = D.cosine_pairs_cross(
            m_a, ids_a, m_a, ids_a, threshold, same=True)
    else:
        b_tbl = pa.concat_tables(parts[na_parts:])
        if b_tbl.num_rows == 0:
            return _COS_PAIRS_SCHEMA.empty_table()
        ids_b = b_tbl.column("vec_id").to_numpy(zero_copy_only=False)
        m_b = D.normalize_rows(S.embedding_matrix(b_tbl))
        lo, hi, cos = D.cosine_pairs_cross(
            m_a, ids_a, m_b, ids_b, threshold, same=False)
    return pa.Table.from_arrays([
        pa.array(lo.astype(np.int64)), pa.array(hi.astype(np.int64)),
        pa.array(np.round(cos, 3), type=pa.float64()),
    ], schema=_COS_PAIRS_SCHEMA)


def emb_dedup_cosine(sf_dir: str, threshold: float = 0.35,
                     n_chunks: int | None = None):
    """Embedding near-dup pairs via the raw-task chunk-pair join (the
    classic distributed all-pairs "triangle" layout, same exchange as
    ``doc_dedup_ngram``): each read block is sliced once into B
    ``vec_id % B`` chunk slices (``num_returns=B`` — vectors ship once,
    not B times through a sort), and each of the B(B+1)/2 pair tasks
    pulls the two chunks it compares and runs one cross-chunk (or
    in-chunk upper-triangle) chunked matmul. Exact — same threshold
    semantics as the brute force — with

    - per-worker memory O(2n/B x dim), independent of corpus size,
    - no driver materialization and no whole-corpus broadcast,
    - exchange volume n rows sliced + each slice read by B pair tasks
      (object-store reads, not a shuffle).

    For approximate high-threshold dedup at extreme scale, LSH-bucket
    both sides instead (see ``emb_ann_lsh``'s bucketing); exact
    all-pairs at cos>0.35 is inherently O(n^2) compute anywhere."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    B = n_chunks or max(4, int(np.sqrt(2 * _cpus())))
    refs = X.block_refs(ds)
    if not refs:
        return _COS_PAIRS_SCHEMA.empty_table()
    # bandwidth cap: big-matmul tasks; see doc_dedup_ngram's sizing
    # note and _bw_task_cpus for the per-node-concurrency rule. The
    # threshold-pair OUTPUT is small, so it concats on the driver
    return X.gather(_chunk_pair_join(refs, "vec_id", B, _cos_pair, threshold,
                                     num_cpus=_bw_task_cpus(16)),
                    _COS_PAIRS_SCHEMA)
