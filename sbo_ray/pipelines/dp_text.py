"""Text analysis + quality family: token stats, PII, repetition, Gopher/C4 gates, sequence packing, paragraph dedup, linear quality, DSIR, entropy, vocab, tokenize, perplexity, shuffle order, fingerprints, the curation pipeline.

Mechanical r5 split of pipelines/datapipe.py (the facade re-exports
everything; import from ``datapipe`` unless you need this module's
namespace specifically, e.g. to monkeypatch a helper its functions
actually resolve). ``__all__`` lists underscore helpers on purpose:
the chained star-imports and the facade must see them.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .. import exchange as X
from ..functions import dedup as D
from ..functions import similarity as S
from ..functions import text as T
from ..functions.multimodal import DecoderStub, to_payload_table
from .logpipe import _cpus, tune_context

from .dp_common import *  # noqa: F401,F403
from .dp_dedup import *  # noqa: F401,F403
from .dp_emb import *  # noqa: F401,F403

# ---- text analysis ---------------------------------------------------------


def doc_token_stats(sf_dir: str):
    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        T.token_stats, batch_format="pyarrow"
    )


def _ensure_jsonl_docs(sf_dir: str, n_shards: int = 4) -> list[str]:
    """Deterministic JSONL mirror of documents.parquet (the format raw
    LLM corpora actually arrive in — Dolma, RedPajama, FineWeb all
    ship newline-delimited JSON shards). Cached under /tmp/sbo_jsonl
    keyed by the source dir; rows shard round-robin by doc_id and
    serialize via pandas' C writer. Rewritten atomically (tmp +
    rename dir marker). FIXTURE-ONLY driver-side conversion: in
    production the corpus already arrives as JSONL and only the
    read_json path below is the engine — nothing here scales with a
    real corpus."""
    import hashlib
    import json

    import pyarrow.parquet as pq

    src = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.md5(
        (os.path.abspath(src) + str(os.path.getmtime(src))).encode()
    ).hexdigest()[:12]
    d = os.path.join("/tmp/sbo_jsonl", f"docs_{key}_{n_shards}")
    marker = os.path.join(d, "_SUCCESS")
    paths = [os.path.join(d, f"shard-{i:03d}.jsonl")
             for i in range(n_shards)]
    if os.path.exists(marker):
        return paths
    os.makedirs(d, exist_ok=True)
    t = pq.read_table(src, columns=["doc_id", "text"])
    df = t.to_pandas()
    for i, p in enumerate(paths):
        part = df[df["doc_id"].to_numpy() % n_shards == i]
        part.to_json(p + ".tmp", orient="records", lines=True,
                     force_ascii=False)
        os.replace(p + ".tmp", p)
    with open(marker, "w") as f:
        json.dump({"rows": len(df)}, f)
    return paths


def doc_token_stats_jsonl(sf_dir: str):
    """The JSONL SOURCE path: the same token-stats operator over
    newline-delimited JSON shards (``ray.data.read_json`` -> Arrow
    batches, pyarrow's parallel JSON reader per shard) instead of
    Parquet — demonstrating that every doc-side operator runs
    unchanged over the raw-corpus interchange format. Gated by the
    SAME SQL oracle as doc_token_stats (identical rows, different
    wire format), which pins the JSON round-trip (escaping, unicode,
    int64 ids) byte-exactly."""
    paths = _ensure_jsonl_docs(sf_dir)
    tune_context()
    ds = rd.read_json(paths)
    return ds.map_batches(
        lambda t: T.token_stats(t.select(["doc_id", "text"])),
        batch_format="pyarrow")


def doc_pii_redact(sf_dir: str):
    """PII redaction over the documents table: mask emails then IPv4s
    with vectorized RE2 kernels (functions/text.pii_redact). The corpus
    has no organic PII, so deterministic synthetic PII is appended per
    doc (closed form over doc_id — same trick as the multimodal
    synth_ppm/synth_wav payloads) and the SQL oracle builds the same
    augmented text, making the redaction + counts exactly checkable."""
    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False)
        id_s = ids.cast(pa.string())
        m7 = pa.array((ids_np % 7).astype(str), type=pa.string())
        m256 = pa.array((ids_np % 256).astype(str), type=pa.string())
        m100 = pa.array((ids_np % 100).astype(str), type=pa.string())
        aug = pc.binary_join_element_wise(
            txt, " contact user", id_s, "@mail", m7,
            ".example.com from 10.", m256, ".0.", m100, "")
        return pa.table({"doc_id": ids, "text": aug})

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(augment, batch_format="pyarrow")
        .map_batches(T.pii_redact, batch_format="pyarrow")
    )


def doc_repetition_stats(sf_dir: str):
    """Gopher-style repetition counts per doc (dup-token / top-token /
    top-bigram numerators): one vectorized map_batches pass
    (functions/text.repetition_stats), no shuffle — per-doc stats need
    only the doc's own tokens."""
    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        T.repetition_stats, batch_format="pyarrow"
    )


def doc_quality_gopher(sf_dir: str):
    """Gopher quality-filter rules (Rae et al. 2021 App. A1.1) per doc:
    integer rule numerators/denominators + the keep flag, one vectorized
    map_batches scan (functions/text.gopher_stats), no shuffle. At
    100 TB this is embarrassingly parallel — the gate columns are
    text-pure, so (like doc_curation_pipeline's gate) the flag can feed
    a block-local filter before any downstream dedup shuffle."""
    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        T.gopher_stats, batch_format="pyarrow"
    )


def doc_quality_c4(sf_dir: str):
    """C4 quality-filter rules (Raffel et al. 2020 §2.2) per doc: the
    LINE-level filter family (terminal punctuation, >= 5 words/line, no
    javascript mentions, lorem-ipsum / curly-brace page gates) as ONE
    vectorized map_batches scan (functions/text.c4_stats), no shuffle.
    Like doc_quality_gopher, embarrassingly parallel at 100 TB and
    usable as a block-local gate ahead of any dedup shuffle.

    The synthetic corpus is single-line with no terminal punctuation,
    so (like doc_pii_redact) deterministic multi-line structure is
    appended per doc — closed form over doc_id, rebuilt identically by
    the SQL oracle — making every rule (kept line, short line,
    javascript line, lorem-ipsum page, brace page, the >= 3-kept-lines
    boundary) fire on both sides."""
    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False)
        id_s = ids.cast(pa.string())
        empty = pa.array([""] * len(ids), type=pa.string())

        def opt(mask: np.ndarray, part) -> pa.Array:
            return pc.if_else(pa.array(mask), part, empty)

        good2 = pc.binary_join_element_wise(
            "\nAnother good sentence number ", id_s, " right here!"
            "\nIs this a third good line ", id_s, "?", "")
        js = pc.binary_join_element_wise(
            "\nEnable javascript to view page ", id_s, " now.", "")
        brace = pc.binary_join_element_wise(
            "\nfunction f() { return ", id_s, "; }", "")
        aug = pc.binary_join_element_wise(
            txt,
            "\nThis is a plain sentence with id ", id_s, ".",
            opt(ids_np % 2 == 0, good2),
            opt(ids_np % 3 == 0, pa.array(
                ["\nshort line."] * len(ids), type=pa.string())),
            opt(ids_np % 5 == 0, js),
            opt(ids_np % 7 == 0, pa.array(
                ["\nlorem ipsum dolor sit amet placeholder text here."]
                * len(ids), type=pa.string())),
            opt(ids_np % 11 == 0, brace),
            "")
        return pa.table({"doc_id": ids, "text": aug})

    return (
        _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(augment, batch_format="pyarrow")
        .map_batches(T.c4_stats, batch_format="pyarrow")
    )


def doc_pack_sequences(sf_dir: str, seq_len: int = 512,
                       chunk_docs: int = 4096):
    """GPT-style sequence PACKING: concatenate every document's tokens
    in doc_id order and split the stream into fixed ``seq_len``-token
    training sequences; emit, per document, its global token offset and
    the first/last sequence it lands in (documents may span a sequence
    boundary — the standard LM-pretraining layout).

    Engine shape — a distributed PREFIX SUM (scan), the one primitive
    the rest of the repo didn't need yet:

      pass 1  block-local partial token-sums per doc-id CHUNK
              (``chunk = doc_id // chunk_docs``; the chunk table is
              corpus_size/chunk_docs rows — bounded, driver-merged),
              then an exclusive cumsum over the sorted chunk table
              gives each chunk's global base offset, broadcast once;
      pass 2  docs shuffle partition-grouped by chunk (ids + token
              counts only — text never enters the exchange); inside a
              partition one sort + exclusive cumsum per chunk segment,
              plus the broadcast base, yields exact global offsets.

    Offsets are exact and independent of block/partition boundaries.
    Partitioning assumption (same as ``exchange.n_parts``): one hash
    partition of (doc_id, n_tokens) rows fits in a worker."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    P = X.n_parts()

    def _tok_counts(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        col = t.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n_tok = pc.list_value_length(pc.split_pattern(col, " ")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return ids, n_tok

    def chunk_partials(t: pa.Table) -> pa.Table:
        ids, n_tok = _tok_counts(t)
        uk, inv = np.unique(ids // chunk_docs, return_inverse=True)
        sums = np.bincount(inv, weights=n_tok).astype(np.int64)
        return pa.table({"chunk": pa.array(uk, pa.int64()),
                         "tok_sum": pa.array(sums, pa.int64())})

    base_ref = ray.put(X.chunk_bases(X.fold(ds, chunk_partials, X.CHUNK_SUMS)))

    def id_count_rows(t: pa.Table) -> pa.Table:
        ids, n_tok = _tok_counts(t)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "part": pa.array((ids // chunk_docs) % P),
        })

    def pack_part(g: pd.DataFrame) -> pd.DataFrame:
        cids, cbases = ray.get(base_ref)
        ids = g["doc_id"].to_numpy()
        nt = g["n_tokens"].to_numpy()
        o = np.argsort(ids, kind="stable")  # chunk is monotone in doc_id
        ids_s, nt_s = ids[o], nt[o]
        ck = ids_s // chunk_docs
        csum = np.cumsum(nt_s) - nt_s
        new = np.ones(len(ids_s), dtype=bool)
        new[1:] = ck[1:] != ck[:-1]
        first = np.maximum.accumulate(
            np.where(new, np.arange(len(ids_s)), 0))
        off = (csum - csum[first]
               + cbases[np.searchsorted(cids, ck)])
        return pd.DataFrame({
            "doc_id": ids_s, "n_tokens": nt_s, "tok_offset": off,
            "seq_first": off // seq_len,
            "seq_last": (off + nt_s - 1) // seq_len,
        })

    return X.collect(ds.map_batches(id_count_rows, batch_format="pyarrow")
                     .groupby("part").map_groups(pack_part), pa.schema([
                         ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                         ("tok_offset", pa.int64()), ("seq_first", pa.int64()),
                         ("seq_last", pa.int64())]))


def doc_pack_materialize(sf_dir: str, seq_len: int = 512,
                         chunk_docs: int = 4096):
    """MATERIALIZED sequence packing: the actual training-sequence
    fragments — one row per (doc, sequence) span with the fragment's
    token text — i.e. what a packed LM dataset physically contains.
    ``doc_pack_sequences`` computes the layout; this emits it.

    Same two-pass prefix sum for the offsets, but pass 2 shuffles the
    TEXT partition-grouped by doc-id chunk: materialization re-lays the
    corpus out in sequence order, so moving each payload byte once is
    inherent to the operator (the one doc-side op where the text
    legitimately enters an exchange). Inside a partition, fragments
    tile each doc's tokens contiguously, so fragment strings come from
    the same zero-copy offset-vector re-slice + one ``binary_join`` as
    ``functions/text.chunk_docs`` — joining fragments back with ' '
    reconstructs every doc byte-for-byte (pinned in tests).
    Partitioning assumption: one doc-id chunk partition of TEXT fits
    in a worker; lower ``chunk_docs`` for huge docs."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    P = X.n_parts()

    def chunk_partials(t: pa.Table) -> pa.Table:
        col = t.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n_tok = pc.list_value_length(pc.split_pattern(col, " ")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        uk, inv = np.unique(ids // chunk_docs, return_inverse=True)
        sums = np.bincount(inv, weights=n_tok).astype(np.int64)
        return pa.table({"chunk": pa.array(uk, pa.int64()),
                         "tok_sum": pa.array(sums, pa.int64())})

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("seq_id", pa.int64()),
        ("n_frag_tokens", pa.int64()), ("frag_text", pa.string()),
    ])
    sums = X.fold(ds, chunk_partials, X.CHUNK_SUMS)
    if not sums.num_rows:
        return rd.from_arrow(out_schema.empty_table())
    base_ref = ray.put(X.chunk_bases(sums))

    def add_part(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.select(["doc_id", "text"]).append_column(
            "part", pa.array((ids // chunk_docs) % P))

    def mat_part(g: pd.DataFrame) -> pd.DataFrame:
        cids, cbases = ray.get(base_ref)
        o = np.argsort(g["doc_id"].to_numpy(), kind="stable")
        ids = g["doc_id"].to_numpy()[o]
        toks = pc.split_pattern(pa.array(g["text"].to_numpy()[o]), " ")
        toffs = toks.offsets.to_numpy().astype(np.int64)
        nt = np.diff(toffs)
        ck = ids // chunk_docs
        csum = np.cumsum(nt) - nt
        new = np.ones(len(ids), dtype=bool)
        new[1:] = ck[1:] != ck[:-1]
        first = np.maximum.accumulate(np.where(new, np.arange(len(ids)), 0))
        off = csum - csum[first] + cbases[np.searchsorted(cids, ck)]
        seq_first = off // seq_len
        seq_last = (off + nt - 1) // seq_len
        k = seq_last - seq_first + 1
        doc_of = np.repeat(np.arange(len(ids), dtype=np.int64), k)
        out_pos = np.arange(int(k.sum()), dtype=np.int64)
        fno = out_pos - np.repeat(np.cumsum(k) - k, k)
        seq_id = seq_first[doc_of] + fno
        fs = np.maximum(seq_id * seq_len, off[doc_of])
        fe = np.minimum((seq_id + 1) * seq_len, off[doc_of] + nt[doc_of])
        # local flat-token positions; fragments tile each doc and docs
        # are contiguous, so [starts..., last end] is a valid offset
        # vector over the SAME flat token array (chunk_docs idiom)
        starts_flat = toffs[:-1][doc_of] + (fs - off[doc_of])
        ends_flat = starts_flat + (fe - fs)
        if len(starts_flat):
            new_offs = np.append(starts_flat, ends_flat[-1]).astype(np.int32)
            frag_text = pc.binary_join(
                pa.ListArray.from_arrays(pa.array(new_offs), toks.values),
                " ")
        else:
            frag_text = pa.array([], type=pa.string())
        return pd.DataFrame({
            "doc_id": ids[doc_of], "seq_id": seq_id,
            "n_frag_tokens": fe - fs,
            "frag_text": frag_text.to_pandas(),
        })

    def project(t: pa.Table) -> pa.Table:
        return t.select(out_schema.names).cast(out_schema)

    # the materialized fragment table is O(corpus) text: keep it a
    # streaming Dataset (the caller writes or folds it) — never a
    # driver concat of every partition's payload
    return (ds.map_batches(add_part, batch_format="pyarrow")
            .groupby("part").map_groups(mat_part)
            .map_batches(project, batch_format="pyarrow"))


def doc_paragraph_dedup(sf_dir: str, shared_mod: int = 7):
    """Paragraph-level exact dedup (the CCNet / Dolma sub-document
    pass): explode every document into newline-separated paragraphs and
    keep ONE copy of each distinct paragraph corpus-wide — the first by
    (doc_id, para_idx). Output is the surviving paragraph table.

    The synthetic corpus is single-line, so (like doc_quality_c4 /
    doc_pii_redact) deterministic multi-paragraph structure is appended
    per doc — a shared paragraph keyed by ``doc_id % shared_mod``
    (planted cross-doc duplicates, ~n/shared_mod copies each) and a
    unique tail — rebuilt identically by the SQL oracle, so the
    keep-first boundary fires on both sides.

    Scale shape: explode + hash-route in ONE map_batches (paragraph
    text moves once, inherent — the output IS the surviving text, the
    pack_materialize precedent); the winner per distinct paragraph is
    decided entirely inside its hash partition (equal strings always
    co-locate) via dictionary codes + lexsort — and selection groups on
    the STRING, so a 64-bit hash collision can only co-locate, never
    merge, distinct paragraphs. No driver state, no broadcast."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    P = X.n_parts()

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        mod_s = pa.array(ids_np % shared_mod).cast(pa.string())
        aug = pc.binary_join_element_wise(
            txt, "\nShared paragraph number ", mod_s,
            ".\nUnique tail ", ids.cast(pa.string()), ".", "")
        paras = pc.split_pattern(aug, "\n")
        counts = pc.list_value_length(paras).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = paras.flatten()
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        doc_of = np.repeat(np.arange(len(counts)), counts)
        t = pa.table({
            "doc_id": pa.array(ids_np[doc_of], pa.int64()),
            "para_idx": pa.array(
                np.arange(total, dtype=np.int64) - starts[doc_of]),
            "para": flat,
        }).filter(pc.not_equal(flat, ""))
        t = D.add_text_hash(t, column="para")
        part = X.fib_partition(t.column("text_hash").to_numpy(
            zero_copy_only=False), P)
        return t.drop_columns(["text_hash"]).append_column(
            "part", pa.array(part))

    def dedup_part(g: pd.DataFrame) -> pd.DataFrame:
        did = g["doc_id"].to_numpy()
        idx = g["para_idx"].to_numpy()
        enc = pc.dictionary_encode(pa.array(g["para"], pa.string()))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((idx, did, codes))
        c_s = codes[order]
        first = np.ones(len(c_s), dtype=bool)
        first[1:] = c_s[1:] != c_s[:-1]
        keep = np.sort(order[first])
        return pd.DataFrame({
            "doc_id": did[keep], "para_idx": idx[keep],
            "para": g["para"].to_numpy()[keep],
        })

    return (ds.map_batches(explode, batch_format="pyarrow")
            .groupby("part").map_groups(dedup_part))


def doc_group_topk(sf_dir: str, k: int = 3):
    """Group-wise top-k: the k largest documents per language by
    (n_chars DESC, doc_id ASC). Engine shape: each block keeps at most
    k rows PER GROUP it contains (vectorized lexsort + within-group
    rank via segment offsets — no per-group Python), so the driver
    merge sees <= k * |groups| * |blocks| candidate rows regardless of
    corpus size; no shuffle, text column never read. This is the
    standard monoid top-k: block-local top-k is closed under merge."""

    def local_topk(df: pa.Table) -> pa.Table:
        nch = df.column("n_chars").to_numpy(zero_copy_only=False)
        did = df.column("doc_id").to_numpy(zero_copy_only=False)
        # dictionary codes keep lexsort off object keys without ever
        # materializing a Python string list (VERDICT r3 minor sweep);
        # codes follow the SORTED unique dictionary so within-block
        # group order matches the final (lang asc) merge order
        enc = df.column("lang").combine_chunks().dictionary_encode()
        dsort = pc.array_sort_indices(enc.dictionary)
        remap = np.empty(len(enc.dictionary), dtype=np.int64)
        remap[dsort.to_numpy(zero_copy_only=False)] = np.arange(
            len(enc.dictionary))
        codes = remap[enc.indices.to_numpy(zero_copy_only=False)]
        order = np.lexsort((did, -nch, codes))
        sl = codes[order]
        new_grp = np.ones(len(sl), dtype=bool)
        new_grp[1:] = sl[1:] != sl[:-1]
        starts = np.maximum.accumulate(
            np.where(new_grp, np.arange(len(sl)), 0))
        rank = np.arange(len(sl)) - starts
        keep = order[rank < k]
        return df.select(["doc_id", "lang", "n_chars"]).take(pa.array(keep))

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    df = X.fold(ds, local_topk, pa.schema([
        ("doc_id", pa.int64()), ("lang", pa.string()),
        ("n_chars", pa.int64())])).to_pandas()
    if df.empty:
        return pa.schema([
            ("doc_id", pa.int64()), ("lang", pa.string()),
            ("n_chars", pa.int64()), ("rnk", pa.int64()),
        ]).empty_table()
    df = df.sort_values(["lang", "n_chars", "doc_id"],
                        ascending=[True, False, True], kind="stable")
    df["rnk"] = df.groupby("lang").cumcount() + 1
    df = df[df["rnk"] <= k].reset_index(drop=True)
    df["rnk"] = df["rnk"].astype(np.int64)
    return pa.Table.from_pandas(df, preserve_index=False)


def doc_quality_linear(sf_dir: str, n_buckets: int = 1024):
    """Hashing-trick linear classifier inference (the fastText-style
    quality-model scoring pass a DCLM/FineWeb pipeline runs over every
    doc): each token hashes into one of ``n_buckets`` feature buckets
    (the per-unique md5 63-bit idiom), the model is a closed-form
    integer CENTI-weight vector w(b) = (b*37) % 101 - 50, and the doc
    score is the mean token weight. The per-doc weight SUM is exact
    int64 on both sides, the keep decision (sum > 0) is an integer
    compare, and the score ships as a FLOORED integer micro-score
    (floor(sum*10000/n)) — mean-weight denominators 100*n hit exact
    .5e-6 ROUND boundaries constantly, so ROUND-6 parity is a coin
    flip here and floor is the safe gate: the true quotient is >= 1/n
    from any integer whenever it isn't one, so the correctly-rounded
    f64 division cannot cross a floor boundary. Broadcast-free
    (weights are a formula, the real
    build would ``ray.put`` the trained vector once); one block-local
    vectorized pass, no shuffle — model inference at 100 TB is an
    embarrassingly parallel map."""
    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern(txt, " ")
        n_tok = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pa.table({"t": toks.flatten()})
        h = D.add_text_hash(flat, column="t").column(
            "text_hash").to_numpy(zero_copy_only=False)
        w = (h % n_buckets) * 37 % 101 - 50
        rows = len(n_tok)
        doc_of = np.repeat(np.arange(rows, dtype=np.int64), n_tok)
        score_c = np.zeros(rows, dtype=np.int64)
        np.add.at(score_c, doc_of, w)
        return pa.table({
            "doc_id": ids,
            "n_tokens": pa.array(n_tok),
            "score_micro": pa.array(np.floor(
                score_c * 10000.0 / np.maximum(n_tok, 1)).astype(np.int64)),
            "keep": pa.array((score_c > 0).astype(np.int64)),
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(score, batch_format="pyarrow")


def doc_dsir_weights(sf_dir: str, n_buckets: int = 8192,
                     target_lang: str = "en"):
    """DSIR-style importance weights (Xie et al. 2023, "Data Selection
    for Language Models via Importance Resampling"): hashed-unigram
    bag-of-buckets features; target distribution = the ``target_lang``
    slice, raw distribution = the whole corpus; per doc the importance
    log-weight sums ln p_target(b) - ln p_raw(b) over its token
    buckets (Laplace +1 smoothing over the fixed feature space).

    Engine shape: pass 1 folds block-local B-bounded bucket bincounts
    (raw + target) into two driver arrays — corpus-independent, the
    bounded-cardinality partial-agg idiom — and broadcasts the
    per-bucket log-ratio vector ONCE via ray.put; pass 2 is
    shuffle-free block-local scoring (per-unique md5 bucket hash,
    per-doc sums via one bincount). ROUND-6 gate: per-token terms are
    the same ln() values on both sides, so only summation-order ulp
    noise remains (the doc_unigram_logprob transcendental-sum rule)."""
    B = n_buckets
    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    empty = pa.schema([
        ("doc_id", pa.int64()), ("n_tokens", pa.int64()),
        ("logw", pa.float64()),
    ]).empty_table()
    hist_schema = pa.schema([("bucket", pa.int64()), ("cnt_r", pa.int64()),
                             ("cnt_t", pa.int64())])

    def _buckets(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern(txt, " ")
        n_tok = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pa.table({"t": toks.flatten()})
        h = D.add_text_hash(flat, column="t").column("text_hash").to_numpy(
            zero_copy_only=False)
        return h % B, n_tok

    def hist_partial(t: pa.Table) -> pa.Table:
        b, n_tok = _buckets(t)
        is_t = pc.equal(t.column("lang"), target_lang).to_numpy(
            zero_copy_only=False)
        tok_t = np.repeat(is_t, n_tok)
        cr = np.bincount(b, minlength=B)
        ct = np.bincount(b[tok_t], minlength=B)
        nz = np.nonzero(cr)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "cnt_r": pa.array(cr[nz], pa.int64()),
                         "cnt_t": pa.array(ct[nz], pa.int64())})

    parts = X.fold(docs, hist_partial, hist_schema)
    if parts.num_rows == 0:
        return empty
    g = parts.group_by("bucket").aggregate([("cnt_r", "sum"),
                                            ("cnt_t", "sum")])
    cr = np.zeros(B, dtype=np.int64)
    ct = np.zeros(B, dtype=np.int64)
    bk = g.column("bucket").to_numpy(zero_copy_only=False)
    cr[bk] = g.column("cnt_r_sum").to_numpy(zero_copy_only=False)
    ct[bk] = g.column("cnt_t_sum").to_numpy(zero_copy_only=False)
    R, T = int(cr.sum()), int(ct.sum())
    lam = ((np.log(ct + 1.0) - np.log(float(T + B)))
           - (np.log(cr + 1.0) - np.log(float(R + B))))
    lam_ref = ray.put(lam)

    def score(t: pa.Table) -> pa.Table:
        lam_v = ray.get(lam_ref)
        b, n_tok = _buckets(t)
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), n_tok)
        logw = np.bincount(doc_of, weights=lam_v[b], minlength=t.num_rows)
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "n_tokens": pa.array(n_tok),
            "logw": pa.array(np.round(logw, 6)),
        })

    return X.fold(docs, score, empty.schema)


def doc_entropy(sf_dir: str):
    """Per-doc token-distribution Shannon entropy (plus token/type
    counts) — the lexical-diversity quality signal (low entropy flags
    boilerplate/repetition, complementing doc_repetition_stats'
    n-gram view). Space-split tokens like vocab/pack. One block-local
    vectorized pass: dictionary codes + a (doc, code) composite key
    into np.unique, per-doc fold via add.at — no shuffle, no state,
    embarrassingly parallel at 100 TB. Entropy as sum p*ln(n/c) (all
    non-negative terms, so no -0.0 can diverge from the oracle) under
    ROUND-6 (libm ulp noise only, the doc_sample_weighted rule)."""
    def ent(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        txt = batch.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern(txt, " ")
        n_tok = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        codes = pc.dictionary_encode(flat).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        rows = len(n_tok)
        doc_of = np.repeat(np.arange(rows, dtype=np.int64), n_tok)
        V = int(codes.max()) + 1 if len(codes) else 1
        uk, cnt = np.unique(doc_of * V + codes, return_counts=True)
        ud = uk // V
        n_types = np.bincount(ud, minlength=rows).astype(np.int64)
        nn = n_tok[ud].astype(np.float64)
        contrib = (cnt / nn) * np.log(nn / cnt)
        ent_v = np.zeros(rows)
        np.add.at(ent_v, ud, contrib)
        return pa.table({
            "doc_id": ids,
            "n_tokens": pa.array(n_tok),
            "n_types": pa.array(n_types),
            "entropy": pa.array(np.round(ent_v, 6)),
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(ent, batch_format="pyarrow")


def doc_vocab_topk(sf_dir: str, k: int = 100):
    """Global vocabulary top-k: block-local token histograms
    (functions/text.vocab_partial — volume drops from tokens to
    block-uniques before anything leaves the worker), then a driver
    merge + exact top-k with deterministic ties (count desc, token
    asc). Driver memory is the union of block-unique tokens — fine for
    natural-language vocabularies (Heaps' law); a truly unbounded token
    space would swap the driver merge for ds.groupby("token").count()
    like metrics' final="groupby" escape hatch."""
    merged = X.fold(_read(sf_dir, "documents", columns=["text"]),
                    T.vocab_partial, pa.schema([("token", pa.string()),
                                                ("n", pa.int64())]))
    agg = merged.group_by("token").aggregate([("n", "sum")])
    order = pc.sort_indices(agg, sort_keys=[("n_sum", "descending"),
                                            ("token", "ascending")])
    top = agg.take(order[:k])
    return pa.table({
        "token": top.column("token"),
        "n": top.column("n_sum"),
    })


_BI = pa.schema([("bigram", pa.string()), ("n", pa.int64())])


def _bigram_shard(block: pa.Table, P: int, k: int) -> list:
    """Block-local bigram histogram, split into P hash shards. Fully
    vectorized: one split_pattern; the adjacent-pair join runs over two
    zero-copy SLICES of the flat token buffer (vals[:-1] ++ " " ++
    vals[1:]); doc boundaries are masked by offset arithmetic (each
    doc's last token starts no bigram); pc.value_counts shrinks the
    block to its unique bigrams before anything leaves the worker; the
    per-UNIQUE crc32 routes each bigram to its one partition."""
    import zlib

    col = block.column("text")
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    words = pc.split_pattern(col.cast(pa.string()), " ")
    vals = words.values
    nv = len(vals)
    t = _BI.empty_table()
    if nv >= 2:
        big = pc.binary_join_element_wise(
            vals.slice(0, nv - 1), vals.slice(1), " ")
        keep = np.ones(nv - 1, dtype=bool)
        ends = words.offsets.to_numpy().astype(np.int64)[1:] - 1
        keep[ends[(ends >= 0) & (ends < nv - 1)]] = False
        vc = pc.value_counts(big.filter(pa.array(keep)))
        t = pa.table({"bigram": vc.field("values"),
                      "n": vc.field("counts").cast(pa.int64())}, schema=_BI)
    part = np.fromiter(
        (zlib.crc32(u.encode("utf-8")) for u in
         t.column("bigram").to_pylist()),
        dtype=np.uint32, count=t.num_rows).astype(np.int64) % P
    return X.split(part, P, t)


def _bigram_combine(k: int, *shards) -> pa.Table:
    """One hash partition: sum its bigrams' counts and emit the LOCAL
    top-k — correct globally because a bigram lives in exactly one
    partition, so the global top-k is the top-k of P local top-ks."""
    agg = pa.concat_tables(shards).group_by("bigram").aggregate([("n", "sum")])
    order = pc.sort_indices(agg, sort_keys=[("n_sum", "descending"),
                                            ("bigram", "ascending")])
    top = agg.take(order[:k])
    return pa.table({"bigram": top.column("bigram"),
                     "n": top.column("n_sum")}, schema=_BI)


def doc_vocab_bigrams(sf_dir: str, k: int = 100):
    """Corpus bigram top-k — the phrase-level complement of
    doc_vocab_topk (collocation mining, boilerplate detection, LM
    inspection). Bigram vocabularies run ~10x unigram vocabularies, so
    the vocab_topk-style driver merge of all block partials is a
    driver-memory cliff (measured 65 s at 4M docs before this layout);
    instead the block histograms take ONE crc32 hash exchange
    (``num_returns=P`` raw tasks, the repo's standard shard/combine),
    each partition sums its bigrams and emits a LOCAL top-k, and the
    driver merges P x k rows — nothing bigram-vocabulary-sized ever
    lands anywhere central. 14.7-14.9 s at 4M docs."""
    P = X.n_parts()
    ds = _read(sf_dir, "documents", columns=["text"])
    sl = X.shard(_bigram_shard, X.block_refs(ds), P, P, k)
    merged = X.gather(X.combine(_bigram_combine, sl, k, out_schema=_BI), _BI)
    order = pc.sort_indices(merged, sort_keys=[("n", "descending"),
                                               ("bigram", "ascending")])
    return merged.take(order[:k])


def doc_tokenize_ids(sf_dir: str, vocab_size: int = 1000):
    """Vocabulary-id encoding — the pretraining tokenization step: map
    every (space-split) token to its id in the corpus top-``vocab_size``
    vocabulary (1-based, count-desc/token-asc ranked like
    ``doc_vocab_topk``), OOV -> 0. Two passes: the vocab pass reuses the
    block-local histogram + bounded driver merge (Heaps' law contract
    documented on doc_vocab_topk), then the encode pass broadcasts the
    SORTED vocab once (``ray.put``; vocab_size entries, corpus-
    independent) and each block resolves ids per UNIQUE token via
    dictionary codes + searchsorted — no per-row Python, no shuffle.
    Output: (doc_id, ids list<int64>, n_oov)."""
    vocab = doc_vocab_topk(sf_dir, k=vocab_size)
    toks = np.array(vocab.column("token").to_pylist(), dtype=object)
    ids = np.arange(1, len(toks) + 1, dtype=np.int64)
    order = np.argsort(toks)
    vref = ray.put((toks[order], ids[order]))

    def encode(t: pa.Table) -> pa.Table:
        col = t.column("text")
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        words = pc.split_pattern(col, " ")
        offsets = words.offsets.to_numpy().astype(np.int64)
        enc = words.values.dictionary_encode()
        uniq = np.array(enc.dictionary.to_pylist(), dtype=object)
        st, si = ray.get(vref)
        pos = np.minimum(np.searchsorted(st, uniq), len(st) - 1) \
            if len(st) else np.zeros(len(uniq), dtype=np.int64)
        ok = (st[pos] == uniq) if len(st) else np.zeros(len(uniq), dtype=bool)
        uid = np.where(ok, si[pos] if len(st) else 0, 0)
        flat_ids = uid[enc.indices.to_numpy(zero_copy_only=False)]
        zc = np.concatenate([[0], np.cumsum(flat_ids == 0)])
        n_oov = zc[offsets[1:]] - zc[offsets[:-1]]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "ids": pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()),
                pa.array(flat_ids, pa.int64())),
            "n_oov": pa.array(n_oov.astype(np.int64)),
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow")


def _flat_vocab_ids(t: pa.Table, st: np.ndarray, si: np.ndarray):
    """Per-block (doc_ids, offsets, flat token ids) under a broadcast
    SORTED vocabulary (st tokens, si ids) — the doc_tokenize_ids encode
    kernel factored out: dictionary codes + searchsorted per UNIQUE
    token, OOV -> 0; no per-row Python."""
    col = t.column("text")
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    words = pc.split_pattern(col, " ")
    offsets = words.offsets.to_numpy().astype(np.int64)
    enc = words.values.dictionary_encode()
    uniq = np.array(enc.dictionary.to_pylist(), dtype=object)
    pos = np.minimum(np.searchsorted(st, uniq), len(st) - 1) \
        if len(st) else np.zeros(len(uniq), dtype=np.int64)
    ok = (st[pos] == uniq) if len(st) else np.zeros(len(uniq), dtype=bool)
    uid = np.where(ok, si[pos] if len(st) else 0, 0)
    flat_ids = uid[enc.indices.to_numpy(zero_copy_only=False)]
    doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    return doc_ids, offsets, flat_ids


def doc_perplexity_bigram(sf_dir: str, vocab_size: int = 1000):
    """Bigram-LM quality score per document — ``doc_unigram_logprob``
    with one token of context: mean -ln p(w_i | w_{i-1}) under the
    corpus bigram distribution with add-one smoothing over the
    (vocab_size+1)-way vocabulary (ids 1..V rank the corpus top-V like
    doc_tokenize_ids; 0 is the shared OOV bucket), bigrams never cross
    document boundaries. The standard within-domain fluency filter:
    unigram scoring ranks rare WORDS, bigram scoring ranks improbable
    TRANSITIONS (shuffled or templated text scores poorly even when
    every word is common).

    Three streaming passes, each shuffle-free: (1) the vocab top-V
    (block histograms, bounded driver merge), (2) bigram counts — each
    block emits its nonzero (ida*(V+1)+idb, count) partials from one
    bincount, the driver folds them into a dense (V+1)^2 table (8 MB
    at V=1000, corpus-independent), (3) scoring under the broadcast
    count table: per-doc mean of -ln((c(a,b)+1)/(c(a.)+V+1)) via
    segment reduceat. Output: (doc_id, n_bigrams, avg_neg_logprob
    ROUND 6), docs with <2 tokens omitted (no transitions to score,
    same omission as the SQL mirror's join)."""
    V = vocab_size
    vocab = doc_vocab_topk(sf_dir, k=V)
    toks = np.array(vocab.column("token").to_pylist(), dtype=object)
    ids = np.arange(1, len(toks) + 1, dtype=np.int64)
    order = np.argsort(toks)
    vref = ray.put((toks[order], ids[order]))
    W = len(toks) + 1  # id space incl. OOV 0
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    BPART = pa.schema([("key", pa.int64()), ("c", pa.int64())])

    def bigram_partial(t: pa.Table) -> pa.Table:
        st, si = ray.get(vref)
        _docs, offsets, flat = _flat_vocab_ids(t, st, si)
        a, b = flat[:-1], flat[1:]
        # drop transitions that cross a document boundary
        keep = np.ones(len(a), dtype=bool)
        keep[offsets[1:-1] - 1] = False
        key = a[keep] * W + b[keep]
        cnt = np.bincount(key, minlength=W * W)
        nz = np.flatnonzero(cnt)
        return pa.table({"key": nz.astype(np.int64),
                         "c": cnt[nz].astype(np.int64)}, schema=BPART)

    merged = X.fold(docs, bigram_partial, BPART)
    OUT = pa.schema([("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
                     ("avg_neg_logprob", pa.float64())])
    if not merged.num_rows:
        return OUT.empty_table()
    cb = np.zeros(W * W, dtype=np.int64)
    np.add.at(cb, merged.column("key").to_numpy(zero_copy_only=False),
              merged.column("c").to_numpy(zero_copy_only=False))
    ca = cb.reshape(W, W).sum(axis=1)  # context totals c(a, .)
    cnt_ref = ray.put((cb, ca))

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return OUT.empty_table()
        st, si = ray.get(vref)
        cb_g, ca_g = ray.get(cnt_ref)
        doc_ids, offsets, flat = _flat_vocab_ids(t, st, si)
        a, b = flat[:-1], flat[1:]
        keep = np.ones(len(a), dtype=bool)
        keep[offsets[1:-1] - 1] = False
        nlp = -np.log((cb_g[a * W + b] + 1.0) / (ca_g[a] + float(W)))
        nlp[~keep] = 0.0
        # per-doc segment sums over the (uncompacted, boundary-zeroed)
        # transition stream: transition i is (flat[i], flat[i+1]), so
        # doc d's internal transitions are i in [offsets[d],
        # offsets[d+1]-2] — cumsum differencing over [lo, hi)
        csum = np.concatenate([[0.0], np.cumsum(nlp)])
        kcum = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
        lo = offsets[:-1]
        hi = np.maximum(offsets[1:] - 1, lo)
        n_big = kcum[hi] - kcum[lo]
        sums = csum[hi] - csum[lo]
        ok = n_big > 0
        return pa.table({
            "doc_id": pa.array(doc_ids[ok].astype(np.int64)),
            "n_bigrams": pa.array(n_big[ok].astype(np.int64)),
            "avg_neg_logprob": pa.array(
                np.round(sums[ok] / n_big[ok], 6), type=pa.float64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


_SHUF_SCHEMA = pa.schema([("doc_id", pa.int64()),
                          ("shuffle_pos", pa.int64())])


def _shuf_keys(block: pa.Table) -> np.ndarray:
    import hashlib

    ids = block.column("doc_id").to_numpy(zero_copy_only=False)
    return np.fromiter(
        (int.from_bytes(hashlib.md5(str(int(v)).encode()).digest()[:8],
                        "big") >> 1 for v in ids),
        dtype=np.int64, count=len(ids))


def _shuf_slice(block: pa.Table, P: int, shift: int) -> list:
    """Pass 1+route fused: key every row, slice by the key's top bits
    (md5 keys are uniform, so equal-width ranges balance with no
    sampling step). Returns P (ids, keys) shards — 16 bytes/row."""
    ids = block.column("doc_id").to_numpy(
        zero_copy_only=False).astype(np.int64)
    keys = _shuf_keys(block)
    return X.split((keys >> shift).astype(np.int64), P, ids, keys)


def _shuf_count(*shards) -> int:
    return int(sum(len(s[0]) for s in shards))


def _shuf_rank(base: int, *shards) -> pa.Table:
    """One key range: sort its rows by (key, doc_id) and emit global
    positions base + local rank."""
    ids = np.concatenate([s[0] for s in shards])
    if not len(ids):
        return _SHUF_SCHEMA.empty_table()
    keys = np.concatenate([s[1] for s in shards])
    order = np.lexsort((ids, keys))
    pos = np.empty(len(ids), dtype=np.int64)
    pos[order] = base + np.arange(len(ids), dtype=np.int64)
    return pa.Table.from_arrays([
        pa.array(ids), pa.array(pos)], schema=_SHUF_SCHEMA)


def doc_shuffle_order(sf_dir: str):
    """Global deterministic training shuffle: every document's position
    in the md5-random order (rank of md5(doc_id) with doc_id
    tie-break) — the epoch-shuffle primitive, reproducible across
    reruns, partitionings and cluster sizes, with NO all-to-all sort:

      route  one scan keys each row and slices it into P key RANGES by
             the hash's top bits (``num_returns=P``; md5 is uniform so
             equal-width ranges balance without a sampling pass) —
             16 bytes/row leave the scan;
      rank   P range tasks sort locally; range r's global offset is
             the prefix sum of per-range counts (P ints on the
             driver), so position = offset + local rank.

    Cross-range order == global order because ranges ARE the key's
    high bits. Output: (doc_id, shuffle_pos), a permutation of
    0..n-1; a downstream consumer shuffles by sorting/bucketing on
    shuffle_pos (or slicing it into training shards). md5 (one
    hashlib call per row, ~0.7M rows/s/core) is deliberate: the DuckDB
    mirror computes the identical key, making the permutation
    ROW_NUMBER-exact; swap in a vectorized 64-bit mix if SQL parity is
    ever dropped. Exact SQL mirror: ROW_NUMBER() OVER (ORDER BY the
    same md5, doc_id) - 1."""
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    refs = X.block_refs(ds)
    if not refs:
        return rd.from_arrow(_SHUF_SCHEMA.empty_table())
    P = X.n_parts()
    shift = max(0, 63 - int(np.log2(P)))
    sl = X.shard(_shuf_slice, refs, P, P, shift)
    counts = ray.get(X.combine(_shuf_count, sl))
    bases = np.cumsum(counts) - counts
    # one rank task per key range, each with its own prefix-sum base
    rank_task = ray.remote(_shuf_rank)
    return rd.from_arrow_refs([rank_task.remote(int(b), *part)
                               for b, part in zip(bases, sl)])


def doc_lang_id(sf_dir: str):
    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        T.lang_id, batch_format="pyarrow"
    )


def doc_fingerprint(sf_dir: str):
    """Winnowing-style document fingerprints, exploded to one row per
    (doc_id, fp_rank, fp_hash) — scalar columns so the DuckDB oracle
    (an exact SQL mirror of the rolling hash) gates values directly."""

    def explode(batch: pa.Table) -> pa.Table:
        fp = T.fingerprint(batch)
        col = fp.column("fingerprint")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lengths = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        doc_ids = fp.column("doc_id").to_numpy(zero_copy_only=False)
        rank = np.concatenate([np.arange(1, n + 1) for n in lengths]) if len(
            lengths) else np.array([], dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, lengths), type=pa.int64()),
            "fp_rank": pa.array(rank, type=pa.int64()),
            "fp_hash": col.values,
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


def doc_winnow(sf_dir: str, w: int = 8):
    """Robust winnowing fingerprints (Schleimer et al. 2003, the MOSS
    selection rule): every window of ``w`` consecutive rolling hashes
    contributes its RIGHTMOST minimum, guaranteeing any shared
    substring of length >= window + w - 1 bytes shares a fingerprint —
    the positional plagiarism/dedup primitive doc_fingerprint's
    bottom-k sketch can't provide (it has no position guarantee). Pure
    map over blocks (per-doc sliding-window argmin, vectorized via
    stride tricks); exploded (doc_id, pos, fp_hash) rows gate against
    an exact SQL mirror (expanded windows + ROW_NUMBER under the same
    (hash asc, pos desc) rule)."""

    def explode(batch: pa.Table) -> pa.Table:
        return T.winnow_fingerprint(batch, w=w)

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


# integer-exact stopword-ratio gate scale (n_stop/max(1,n_alpha) >= r
# as n_stop*SCALE >= r*SCALE*max(1,n_alpha)) — no float rounding drift
# between engine, CLI profile, and SQL oracle
_CURATION_SCALE = 10000


def _curation_kept(batch: pa.Table, lang: str, min_tokens: int,
                   max_tokens: int, thr: int) -> pa.Table:
    """Gate + hash columns for the curation flow, shared by the Dataset
    pipeline and the resumable CLI profile (identical semantics by
    construction): the block's gate-passing rows as
    (doc_id, text_hash, n_tokens, n_stop_en)."""
    hashed = D.add_text_hash(batch)
    # fused single-pass stats (T.annotate_stats): token_stats +
    # lang_id separately ran the alpha-token extract twice and two
    # unread regex scans — ~2.4x the scan cost per batch
    stats = T.annotate_stats(batch)
    alpha = pc.max_element_wise(stats.column("n_alpha_tokens"), 1)
    ratio_ok = pc.greater_equal(
        pc.multiply(pc.cast(stats.column("n_stop_en"), pa.int64()),
                    pa.scalar(_CURATION_SCALE, pa.int64())),
        pc.multiply(pc.cast(alpha, pa.int64()), pa.scalar(thr, pa.int64())),
    )
    m = pc.and_(
        pc.equal(stats.column("pred_lang"), lang),
        pc.and_(
            pc.and_(pc.greater_equal(stats.column("n_tokens"), min_tokens),
                    pc.less_equal(stats.column("n_tokens"), max_tokens)),
            ratio_ok,
        ),
    )
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "text_hash": hashed.column("text_hash"),
        "n_tokens": stats.column("n_tokens"),
        "n_stop_en": stats.column("n_stop_en"),
    }).filter(m)


def doc_curation_pipeline(sf_dir: str, lang: str = "en",
                          min_tokens: int = 20, max_tokens: int = 1000,
                          min_stop_ratio: float = 0.015):
    """The flagship training-data CURATION flow, composing the dedup and
    text-analysis operators in ONE streaming pass over documents:

      exact dedup (keep the min-doc_id representative per distinct text)
      -> language filter (stopword-argmax lang id == ``lang``)
      -> quality filter (token count in [min,max], English-stopword
         ratio above threshold)

    Shape: one map_batches computes hash+lang+quality columns per block
    (all vectorized, single text scan) and applies the lang/quality gate
    BLOCK-LOCALLY; ONE groupby on the 8-byte text hash picks the
    min-doc_id representative per surviving distinct text and emits the
    kept rows straight from the partition stage. Filter-before-rep-pick
    is exact here because every gate column is a pure function of the
    text, hence identical across duplicates: the gate keeps or drops
    whole duplicate groups, so min(doc_id) per surviving group equals
    filtering the representatives (the r3 shape). Nothing corpus-sized
    ever touches the driver — no representative-id gather/broadcast
    (the r3 scale-killer), payload text never moves, and the shuffle
    carries only (doc_id, hash, 2 small ints) for gate-passing rows."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    P = X.n_parts()
    thr = int(round(min_stop_ratio * _CURATION_SCALE))

    def annotate(batch: pa.Table) -> pa.Table:
        return _hash_part_col(
            _curation_kept(batch, lang, min_tokens, max_tokens, thr), P)

    def rep_pick(g: pd.DataFrame) -> pd.DataFrame:
        # min doc_id per distinct text_hash, stats carried through (they
        # are identical within a group) — one lexsort, no per-key work
        h = g["text_hash"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, h))
        hs = h[order]
        new = np.ones(len(hs), dtype=bool)
        new[1:] = hs[1:] != hs[:-1]
        keep = order[new]
        return pd.DataFrame({
            "doc_id": d[keep],
            "n_tokens": g["n_tokens"].to_numpy()[keep],
            "n_stop_en": g["n_stop_en"].to_numpy()[keep],
        })

    return ds.map_batches(annotate, batch_format="pyarrow") \
        .groupby("part").map_groups(rep_pick)


_CUR_REPORT = pa.schema([("stage", pa.string()), ("n_docs", pa.int64())])


def _cur_report_block(t: pa.Table, P: int, lang: str, mn: int, mx: int,
                      thr: int) -> list:
    """One block of the curation funnel: four bounded stage counts plus
    the gate-passing text hashes pre-sharded by hash % P
    (``num_returns=P+1``). md5 runs only on gate-passers."""
    stats = T.annotate_stats(t)
    lang_ok = pc.equal(stats.column("pred_lang"), lang).to_numpy(
        zero_copy_only=False)
    n_tok = stats.column("n_tokens").to_numpy(
        zero_copy_only=False).astype(np.int64)
    alpha = np.maximum(stats.column("n_alpha_tokens").to_numpy(
        zero_copy_only=False).astype(np.int64), 1)
    stop = stats.column("n_stop_en").to_numpy(
        zero_copy_only=False).astype(np.int64)
    tok_ok = lang_ok & (n_tok >= mn) & (n_tok <= mx)
    gate_ok = tok_ok & (stop * _CURATION_SCALE >= alpha * thr)
    counts = np.array([t.num_rows, int(lang_ok.sum()),
                       int(tok_ok.sum()), int(gate_ok.sum())], np.int64)
    h = D.add_text_hash(t.filter(pa.array(gate_ok))).column(
        "text_hash").to_numpy(zero_copy_only=False).astype(np.int64)
    return [counts] + X.split(h % P, P, h)


def _cur_report_uniq(*shards) -> int:
    """Distinct gate-passing hashes within one hash partition."""
    return int(len(np.unique(np.concatenate(shards)))) if shards else 0


def doc_curation_report(sf_dir: str, lang: str = "en",
                        min_tokens: int = 20, max_tokens: int = 1000,
                        min_stop_ratio: float = 0.015):
    """Funnel OBSERVABILITY for the curation flow — per-stage survivor
    counts (the numbers an operator watches before trusting a 100-TB
    curation run): total docs -> language gate -> token-count gate ->
    stop-ratio gate -> post-dedup kept (distinct surviving texts, ==
    doc_curation_pipeline's output row count by construction). Stages
    apply CUMULATIVELY, matching the pipeline's single fused gate.

    Engine shape: one raw-task pass per block emits 4 bounded ints +
    gate-passing hashes pre-sharded by hash % P (``num_returns=P+1``,
    the exchange-routed idiom); P combine tasks count distinct hashes
    per partition (partitions are disjoint, so the counts just add);
    the driver folds blocks x 4 ints + P ints — nothing corpus-sized.
    SQL gate: the SQL_DOC_CURATION lang/ratio CTEs + COUNT(DISTINCT
    text) over gate-passers."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    thr = int(round(min_stop_ratio * _CURATION_SCALE))
    P = X.n_parts()
    refs = X.block_refs(ds)
    stages = ["1_total", "2_lang", "3_token_range", "4_stop_ratio",
              "5_dedup_kept"]
    if not refs:
        return pa.table({"stage": pa.array(stages),
                         "n_docs": pa.array([0] * 5, pa.int64())},
                        schema=_CUR_REPORT)
    parts = X.shard(_cur_report_block, refs, P + 1, P, lang, min_tokens,
                    max_tokens, thr)
    uniq = X.combine(_cur_report_uniq, parts[1:])
    counts = np.sum(ray.get(parts[0]), axis=0)
    n_kept = int(sum(ray.get(uniq)))
    return pa.table({
        "stage": pa.array(stages),
        "n_docs": pa.array([int(counts[0]), int(counts[1]),
                            int(counts[2]), int(counts[3]), n_kept],
                           pa.int64()),
    }, schema=_CUR_REPORT)


__all__ = [
    "_CUR_REPORT",
    "_cur_report_block",
    "_cur_report_uniq",
    "doc_curation_report",
    "doc_token_stats",
    "_ensure_jsonl_docs",
    "doc_token_stats_jsonl",
    "doc_pii_redact",
    "doc_repetition_stats",
    "doc_quality_gopher",
    "doc_quality_c4",
    "doc_pack_sequences",
    "doc_pack_materialize",
    "doc_paragraph_dedup",
    "doc_group_topk",
    "doc_quality_linear",
    "doc_dsir_weights",
    "doc_entropy",
    "doc_vocab_topk",
    "_BI",
    "_bigram_shard",
    "_bigram_combine",
    "doc_vocab_bigrams",
    "doc_tokenize_ids",
    "_flat_vocab_ids",
    "doc_perplexity_bigram",
    "_SHUF_SCHEMA",
    "_shuf_keys",
    "_shuf_slice",
    "_shuf_count",
    "_shuf_rank",
    "doc_shuffle_order",
    "doc_lang_id",
    "doc_fingerprint",
    "doc_winnow",
    "_CURATION_SCALE",
    "_curation_kept",
    "doc_curation_pipeline",
]
