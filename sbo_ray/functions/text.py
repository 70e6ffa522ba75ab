"""Text-analysis operators for the training-data pipeline: token
counting, quality stats, language-ID heuristic, document fingerprinting.

These extend the engine beyond the reference's operator set (the
reference processes access logs only) toward the large-scale
training-data pipeline the north star describes. Every function is a
vectorized ``map_batches`` body over the ``documents`` table.

The language-ID heuristic is deliberately simple and *exactly mirrored*
by the DuckDB oracle SQL: count per-language stopword hits over
lowercase alphabetic tokens and take the argmax with a deterministic
lexicographic tie-break (de < en < es < fr).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import one_array

TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
ALPHA_RE = re.compile(r"[a-z]+")
PUNCT_RE = re.compile(r"[.,;:!?]")
# GPT2-style pretokenizer restricted to ASCII classes so Python re and
# DuckDB RE2 agree exactly (both leftmost-first): contractions, then
# space-prefixed letter runs, digit runs, symbol runs, whitespace runs
BPE_RE_PATTERN = r"'(?:s|d|m|t|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"
BPE_RE = re.compile(BPE_RE_PATTERN)

# keep in lockstep with the oracle SQL in pipelines/dataqueries.py
LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "de": frozenset({"der", "die", "das", "und", "ist", "nicht", "ein"}),
    "en": frozenset({"the", "a", "and", "of", "to", "in", "is"}),
    "es": frozenset({"el", "la", "de", "y", "que", "los", "un"}),
    "fr": frozenset({"le", "la", "de", "et", "les", "un", "une"}),
}
LANGS = sorted(LANG_STOPWORDS)  # de, en, es, fr — tie-break order


def _text_col(batch: pa.Table) -> pa.Array:
    col = one_array(batch.column("text"))
    return pc.fill_null(col, "")


def _alpha_tokens(col: pa.Array):
    """(doc_of, codes, uniques, n_alpha_per_doc) for the lowercase
    [a-z]+ token runs of each doc — vectorized: regex split + dictionary
    encode; per-unique work only (the engine's per-unique idiom)."""
    toks = pc.split_pattern_regex(pc.utf8_lower(col), "[^a-z]+")
    offsets = toks.offsets.to_numpy().astype(np.int64)
    wcounts = np.diff(offsets)
    enc = pc.dictionary_encode(toks.values)
    uniq = enc.dictionary.to_pylist()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of = np.repeat(np.arange(len(col), dtype=np.int64), wcounts)
    # the split yields '' entries at boundaries (Python findall doesn't)
    nonempty = pc.utf8_length(toks.values).to_numpy(zero_copy_only=False) > 0
    codes, doc_of = codes[nonempty], doc_of[nonempty]
    n_alpha = np.bincount(doc_of, minlength=len(col)).astype(np.int64)
    return doc_of, codes, uniq, n_alpha


def _count_re(col: pa.Array, pattern: str) -> pa.Array:
    return pc.cast(pc.count_substring_regex(col, pattern), pa.int64())


def token_stats(batch: pa.Table) -> pa.Table:
    """Per-doc token/quality stats: token count, punct count, alpha token
    count, English-stopword count, stopword ratio. Vectorized (r3): RE2
    match counting + dictionary-coded stopword membership; semantics
    identical to the re.findall implementation (same RE2-compatible
    patterns; pinned by the SQL oracle)."""
    col = _text_col(batch)
    doc_of, codes, uniq, n_alpha = _alpha_tokens(col)
    en = LANG_STOPWORDS["en"]
    is_stop = np.fromiter((u in en for u in uniq), dtype=bool, count=len(uniq))
    n_stop_en = np.bincount(doc_of[is_stop[codes]],
                            minlength=len(col)).astype(np.int64)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": _count_re(col, TOKEN_RE.pattern),
        "n_punct": _count_re(col, PUNCT_RE.pattern),
        "n_alpha_tokens": pa.array(n_alpha),
        "n_stop_en": pa.array(n_stop_en),
        "n_bpe_tokens": _count_re(col, BPE_RE_PATTERN),
    })


def annotate_stats(batch: pa.Table) -> pa.Table:
    """Fused curation-scan stats: exactly the columns
    ``doc_curation_pipeline`` consumes (n_tokens, n_alpha_tokens,
    n_stop_en, pred_lang), computed from ONE ``_alpha_tokens`` pass —
    calling ``token_stats`` + ``lang_id`` separately ran that extract
    twice and paid two regex scans (punct, BPE) the pipeline never
    reads. Semantics identical to the standalone functions (same
    arrays, same argmax tie-break)."""
    col = _text_col(batch)
    doc_of, codes, uniq, n_alpha = _alpha_tokens(col)
    counts = np.zeros((len(col), len(LANGS)), dtype=np.int64)
    n_stop_en = None
    for j, lang in enumerate(LANGS):
        sw = LANG_STOPWORDS[lang]
        member = np.fromiter((u in sw for u in uniq), dtype=bool,
                             count=len(uniq))
        counts[:, j] = np.bincount(doc_of[member[codes]], minlength=len(col))
        if lang == "en":
            n_stop_en = counts[:, j]
    pred_idx = counts.argmax(axis=1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "pred_lang": pc.take(pa.array(LANGS, type=pa.string()),
                             pa.array(pred_idx)),
        "n_tokens": _count_re(col, TOKEN_RE.pattern),
        "n_alpha_tokens": pa.array(n_alpha),
        "n_stop_en": pa.array(n_stop_en.astype(np.int64)),
    })


def lang_id(batch: pa.Table) -> pa.Table:
    """Stopword-count argmax language ID with deterministic tie-break
    (first max in sorted LANGS order). Vectorized like token_stats."""
    col = _text_col(batch)
    doc_of, codes, uniq, _ = _alpha_tokens(col)
    counts = np.zeros((len(col), len(LANGS)), dtype=np.int64)
    for j, lang in enumerate(LANGS):
        sw = LANG_STOPWORDS[lang]
        member = np.fromiter((u in sw for u in uniq), dtype=bool,
                             count=len(uniq))
        counts[:, j] = np.bincount(doc_of[member[codes]], minlength=len(col))
    pred_idx = counts.argmax(axis=1)  # first max wins == lexicographic tie-break
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "pred_lang": pc.take(pa.array(LANGS, type=pa.string()),
                             pa.array(pred_idx)),
    })


# ---- fingerprinting (rolling Karp-Rabin + min-sampling) --------------------
_FP_BASE = np.uint64(1099511628211)
_FP_WINDOW = 16


def _rolling_hashes(data: bytes, window: int = _FP_WINDOW) -> np.ndarray:
    """Polynomial rolling hashes of every `window`-byte substring
    (uint64 wraparound arithmetic), vectorized."""
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    if len(b) < window:
        b = np.pad(b, (0, window - len(b)), constant_values=0)
    # prefix polynomial trick: H[i] = sum b[i+k] * BASE^(window-1-k)
    powers = np.power(_FP_BASE, np.arange(window - 1, -1, -1, dtype=np.uint64))
    n = len(b) - window + 1
    out = np.zeros(n, dtype=np.uint64)
    for k in range(window):  # window is small; n is the long axis
        out += b[k : k + n] * powers[k]
    return out


def _winnow(h: np.ndarray, w: int) -> np.ndarray:
    """Robust winnowing (Schleimer et al. 2003): for every window of
    ``w`` consecutive rolling hashes select the RIGHTMOST minimal one;
    return the selected positions (0-based, strictly increasing). The
    rightmost-tie rule makes selections non-decreasing as the window
    slides, so adjacent dedup yields the distinct fingerprint set."""
    n = len(h)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n <= w:
        return np.array([n - 1 - int(np.argmin(h[::-1]))], dtype=np.int64)
    from numpy.lib.stride_tricks import sliding_window_view

    win = sliding_window_view(h, w)
    rev_idx = win[:, ::-1].argmin(axis=1)
    pos = np.arange(n - w + 1, dtype=np.int64) + (w - 1 - rev_idx)
    keep = np.ones(len(pos), dtype=bool)
    keep[1:] = pos[1:] != pos[:-1]
    return pos[keep]


def winnow_fingerprint(batch: pa.Table, w: int = 8) -> pa.Table:
    """Per-doc winnowed fingerprints exploded to (doc_id, pos, fp_hash)
    rows — positions are 1-based hash positions (matching the SQL
    mirror's range(1, ...)); hashes are the same polynomial rolling
    hashes as ``fingerprint`` reinterpreted as int64."""
    texts = [t or "" for t in batch.column("text").to_pylist()]
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    out_id, out_pos, out_h = [], [], []
    for i, t in enumerate(texts):
        h = _rolling_hashes(t.encode("utf-8"))
        pos = _winnow(h, w)
        out_id.append(np.full(len(pos), ids[i], dtype=np.int64))
        out_pos.append(pos + 1)
        out_h.append(h[pos].astype(np.int64))
    cat = (lambda xs: np.concatenate(xs) if xs
           else np.zeros(0, dtype=np.int64))
    return pa.table({
        "doc_id": pa.array(cat(out_id)),
        "pos": pa.array(cat(out_pos)),
        "fp_hash": pa.array(cat(out_h)),
    })


def fingerprint(batch: pa.Table, n_min: int = 8) -> pa.Table:
    """Document fingerprint: the n_min smallest rolling-window hashes
    (a winnowing-style min-sample; equal docs -> equal fingerprints,
    high overlap -> high fingerprint overlap)."""
    texts = [t or "" for t in batch.column("text").to_pylist()]  # null -> ""
    fps = []
    for t in texts:
        h = _rolling_hashes(t.encode("utf-8"))
        smallest = np.unique(h)[:n_min]  # unique() is already sorted
        fps.append([int(x) for x in smallest.astype(np.int64)])
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "fingerprint": pa.array(fps, type=pa.list_(pa.int64())),
    })


# ---- PII redaction ---------------------------------------------------------
# Patterns restricted to RE2-compatible constructs so pyarrow (RE2) and
# DuckDB (also RE2) agree byte-for-byte — the redaction oracle is exact.
PII_EMAIL_RE = r"[A-Za-z0-9._]+@[A-Za-z0-9][A-Za-z0-9.-]*\.[A-Za-z]{2,}"
PII_IPV4_RE = r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}"


def pii_redact(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Mask emails then IPv4s in a text column (vectorized RE2 kernels).
    Email masking runs FIRST so digits inside an email's domain are
    never double-counted as an IP — the SQL oracle mirrors the order.
    Emits the redacted text plus per-doc match counts."""
    col = one_array(batch.column(text_col))
    n_email = pc.count_substring_regex(col, PII_EMAIL_RE).cast(pa.int64())
    red = pc.replace_substring_regex(col, PII_EMAIL_RE, "<EMAIL>")
    n_ip = pc.count_substring_regex(red, PII_IPV4_RE).cast(pa.int64())
    red = pc.replace_substring_regex(red, PII_IPV4_RE, "<IP>")
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "text_redacted": red,
        "n_emails": n_email,
        "n_ips": n_ip,
    })


# ---- repetition / quality stats (Gopher-style) -----------------------------


def repetition_stats(batch: pa.Table) -> pa.Table:
    """Per-doc repetition counts over space-split tokens: total tokens,
    distinct tokens, the most-frequent token's count, and the
    most-frequent adjacent-bigram's count (0 when < 2 tokens). These
    are the integer numerators/denominators of the Gopher repetition
    filters (dup-token fraction = 1 - distinct/total, top-2-gram
    fraction = top_bigram/ (total-1)); integers keep the SQL oracle
    hash-exact. Fully vectorized: Arrow dictionary codes + sorted
    composite-key runs with reduceat maxima, no per-doc Python."""
    col = one_array(batch.column("text"))
    toks = pc.split_pattern(col, " ")
    offs = toks.offsets.to_numpy(zero_copy_only=False)
    counts = np.diff(offs).astype(np.int64)
    n_docs = len(col)
    # dictionary codes straight from Arrow — the previous
    # to_pandas() + pd.factorize materialized every token as a Python
    # object (~4x this whole function)
    enc = pc.dictionary_encode(toks.values)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nu = max(len(enc.dictionary), 1)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    def _seg_max(tgt: np.ndarray, run_doc: np.ndarray,
                 run_len: np.ndarray) -> None:
        # run_doc is sorted: per-doc max run length via one reduceat
        # (ufunc .at was ~10x slower here)
        seg = np.flatnonzero(
            np.concatenate([[True], run_doc[1:] != run_doc[:-1]]))
        tgt[run_doc[seg]] = np.maximum.reduceat(run_len, seg)

    # distinct + top-token: run lengths of sorted (doc, code) keys
    top_tok = np.zeros(n_docs, dtype=np.int64)
    n_distinct = np.zeros(n_docs, dtype=np.int64)
    if len(codes):
        key = np.sort(doc_of * nu + codes)
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        run_doc = (key[new] // nu)
        run_len = np.diff(np.append(np.flatnonzero(new), len(key)))
        n_distinct = np.bincount(run_doc, minlength=n_docs).astype(np.int64)
        _seg_max(top_tok, run_doc, run_len)

    # top-bigram: same trick over adjacent (code_i, code_i+1) pairs as
    # one composite int key per pair
    top_big = np.zeros(n_docs, dtype=np.int64)
    if len(codes) > 1:
        pair_mask = doc_of[1:] == doc_of[:-1]
        pd_doc = doc_of[:-1][pair_mask]
        if len(pd_doc):
            a = codes[:-1][pair_mask]
            b = codes[1:][pair_mask]
            if nu * nu < (1 << 62) // max(n_docs, 1):
                bkey = np.sort((pd_doc * nu + a) * nu + b)
                new2 = np.ones(len(bkey), dtype=bool)
                new2[1:] = bkey[1:] != bkey[:-1]
                run2_doc = bkey[new2] // (nu * nu)
                run2_len = np.diff(
                    np.append(np.flatnonzero(new2), len(bkey)))
            else:  # int64-overflow fallback for giant per-batch vocabs
                order2 = np.lexsort((b, a, pd_doc))
                d2, a2, b2 = pd_doc[order2], a[order2], b[order2]
                new2 = np.ones(len(d2), dtype=bool)
                new2[1:] = ((d2[1:] != d2[:-1]) | (a2[1:] != a2[:-1])
                            | (b2[1:] != b2[:-1]))
                run2_doc = d2[new2]
                run2_len = np.diff(
                    np.append(np.flatnonzero(new2), len(d2)))
            _seg_max(top_big, run2_doc, run2_len)

    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": pa.array(counts, type=pa.int64()),
        "n_distinct_tokens": pa.array(n_distinct, type=pa.int64()),
        "top_token_count": pa.array(top_tok, type=pa.int64()),
        "top_bigram_count": pa.array(top_big, type=pa.int64()),
    })


# Gopher rule 7's fixed English stopword list (Rae et al. 2021,
# "Scaling Language Models: ... Gopher", App. A1.1) — distinct from the
# lang-ID LANG_STOPWORDS; keep in lockstep with SQL_DOC_QUALITY_GOPHER.
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_stats(batch: pa.Table) -> pa.Table:
    """Per-doc Gopher quality-filter stats + keep flag (Rae et al. 2021
    App. A1.1), one vectorized pass. Every emitted column is an INTEGER
    numerator/denominator and every gate is evaluated in integer
    arithmetic (e.g. mean word length in [3, 10] as
    ``3*n_words <= sum_word_len <= 10*n_words``), so the DuckDB oracle
    is hash-exact with no float rounding concerns. Words are the
    space-split tokens (empties kept — same ``string_split(text, ' ')``
    as the oracle); lines split on newline.

    Gates (doc kept iff ALL hold):
      50 <= n_words <= 100000; mean word length in [3, 10];
      symbol-to-word ratio ('#' + non-overlapping '...') <= 0.1;
      bullet-started lines <= 90%; ellipsis-ended lines <= 30%;
      >= 80% of words contain an alphabetic char; >= 2 Gopher stopwords.
    """
    col = _text_col(batch)
    n_docs = len(col)
    words = pc.split_pattern(col, " ")
    n_words = pc.list_value_length(words).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    # each space removed exactly once by the split, so the word-length
    # sum is total chars minus (n_words - 1) separators — O(1) per doc
    sum_word_len = (pc.utf8_length(col).cast(pa.int64())
                    .to_numpy(zero_copy_only=False) - (n_words - 1))
    flat = words.values
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64),
                       np.diff(words.offsets.to_numpy(zero_copy_only=False)))
    alpha = pc.match_substring_regex(flat, "[A-Za-z]") \
        .to_numpy(zero_copy_only=False)
    n_alpha_words = np.bincount(doc_of[alpha], minlength=n_docs) \
        .astype(np.int64)
    stop = pc.is_in(pc.utf8_lower(flat),
                    value_set=pa.array(GOPHER_STOPWORDS)) \
        .to_numpy(zero_copy_only=False)
    n_stop = np.bincount(doc_of[stop], minlength=n_docs).astype(np.int64)
    n_sym = (pc.count_substring(col, "#").cast(pa.int64())
             .to_numpy(zero_copy_only=False)
             + pc.count_substring(col, "...").cast(pa.int64())
             .to_numpy(zero_copy_only=False))
    lines = pc.split_pattern(col, "\n")
    n_lines = pc.list_value_length(lines).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    lflat = lines.values
    line_of = np.repeat(np.arange(n_docs, dtype=np.int64),
                        np.diff(lines.offsets.to_numpy(zero_copy_only=False)))
    bullet = pc.or_(pc.starts_with(lflat, "-"),
                    pc.starts_with(lflat, "•")) \
        .to_numpy(zero_copy_only=False)
    ell = pc.or_(pc.ends_with(lflat, "..."),
                 pc.ends_with(lflat, "…")) \
        .to_numpy(zero_copy_only=False)
    n_bullet = np.bincount(line_of[bullet], minlength=n_docs).astype(np.int64)
    n_ell = np.bincount(line_of[ell], minlength=n_docs).astype(np.int64)
    keep = ((n_words >= 50) & (n_words <= 100000)
            & (3 * n_words <= sum_word_len) & (sum_word_len <= 10 * n_words)
            & (10 * n_sym <= n_words)
            & (10 * n_bullet <= 9 * n_lines) & (10 * n_ell <= 3 * n_lines)
            & (5 * n_alpha_words >= 4 * n_words) & (n_stop >= 2))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_words": pa.array(n_words, type=pa.int64()),
        "sum_word_len": pa.array(sum_word_len, type=pa.int64()),
        "n_alpha_words": pa.array(n_alpha_words),
        "n_stop_gopher": pa.array(n_stop),
        "n_sym": pa.array(n_sym, type=pa.int64()),
        "n_lines": pa.array(n_lines, type=pa.int64()),
        "n_bullet_lines": pa.array(n_bullet),
        "n_ellipsis_lines": pa.array(n_ell),
        "keep": pa.array(keep.astype(np.int64)),
    })


def c4_stats(batch: pa.Table) -> pa.Table:
    """Per-doc C4 quality-filter stats + keep flag (Raffel et al. 2020
    §2.2 — the LINE-level companion to ``gopher_stats``'s word-level
    rules), one vectorized pass. A line is KEPT iff it ends in a
    terminal punctuation mark ('.', '!', '?', '"'), has >= 5
    space-split words, and does not mention "javascript"
    (case-insensitive). The doc is kept iff it has >= 3 kept lines
    (C4's >= 3-sentences gate, applied to the filtered page), no
    "lorem ipsum", and no '{'. Every column is an INTEGER and every
    gate is integer arithmetic, so the DuckDB mirror
    (SQL_DOC_QUALITY_C4) is hash-exact."""
    col = _text_col(batch)
    n_docs = len(col)
    low = pc.utf8_lower(col)
    lines = pc.split_pattern(col, "\n")
    n_lines = pc.list_value_length(lines).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    lflat = lines.values
    line_of = np.repeat(np.arange(n_docs, dtype=np.int64),
                        np.diff(lines.offsets.to_numpy(zero_copy_only=False)))
    terminal = np.zeros(len(lflat), dtype=bool)
    for p in (".", "!", "?", '"'):
        terminal |= pc.ends_with(lflat, p).to_numpy(zero_copy_only=False)
    line_words = pc.list_value_length(pc.split_pattern(lflat, " ")) \
        .cast(pa.int64()).to_numpy(zero_copy_only=False)
    js = pc.match_substring(pc.utf8_lower(lflat), "javascript") \
        .to_numpy(zero_copy_only=False)
    kept = terminal & (line_words >= 5) & ~js
    n_kept = np.bincount(line_of[kept], minlength=n_docs).astype(np.int64)
    n_kept_words = np.bincount(line_of[kept], weights=line_words[kept],
                               minlength=n_docs).astype(np.int64)
    n_js = np.bincount(line_of[js], minlength=n_docs).astype(np.int64)
    has_lorem = pc.match_substring(low, "lorem ipsum") \
        .to_numpy(zero_copy_only=False)
    has_brace = (pc.count_substring(col, "{").cast(pa.int64())
                 .to_numpy(zero_copy_only=False) > 0)
    keep = (n_kept >= 3) & ~has_lorem & ~has_brace
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_lines": pa.array(n_lines, type=pa.int64()),
        "n_kept_lines": pa.array(n_kept),
        "n_kept_words": pa.array(n_kept_words),
        "n_js_lines": pa.array(n_js),
        "has_lorem": pa.array(has_lorem.astype(np.int64)),
        "has_brace": pa.array(has_brace.astype(np.int64)),
        "keep": pa.array(keep.astype(np.int64)),
    })


def vocab_partial(batch: pa.Table) -> pa.Table:
    """Block-local token histogram (space-split): the partial-aggregate
    half of the global vocabulary count. Emits (token, n) per unique
    token in the block — volume drops from tokens to block-uniques
    before anything shuffles or reaches the driver."""
    col = one_array(batch.column("text"))
    toks = pc.split_pattern(col, " ")
    flat = toks.values
    t = pa.table({"token": flat}).group_by("token").aggregate([("token", "count")])
    return pa.table({
        "token": t.column("token"),
        "n": t.column("token_count").cast(pa.int64()),
    })


def chunk_docs(batch: pa.Table, chunk_tokens: int = 32) -> pa.Table:
    """Split each doc into fixed-size token windows (sequence-length
    prep for training): one output row per chunk of ``chunk_tokens``
    space-split tokens (last chunk short). Fully vectorized: chunk
    boundaries are computed as a re-slicing of the SAME flattened token
    values array (zero-copy ListArray over new offsets), and the chunk
    text is rebuilt with one ``binary_join`` kernel — joining the
    space-split tokens with ' ' reproduces the original substring
    byte-for-byte, including runs of consecutive spaces (empty
    tokens)."""
    col = one_array(batch.column("text"))
    toks = pc.split_pattern(col, " ")
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    n_toks = np.diff(offs)
    n_chunks = (n_toks + chunk_tokens - 1) // chunk_tokens
    n_chunks = np.maximum(n_chunks, 0)
    doc_of = np.repeat(np.arange(len(col)), n_chunks)
    chunk_no = np.concatenate([np.arange(c) for c in n_chunks]) \
        if len(n_chunks) else np.zeros(0, dtype=np.int64)
    starts = offs[:-1][doc_of] + chunk_no * chunk_tokens
    ends = np.minimum(starts + chunk_tokens, offs[1:][doc_of])
    # interleave starts/ends? ListArray.from_arrays needs monotone
    # offsets; starts are monotone and each end == next start or a doc
    # boundary, so [starts..., last_end] is the valid offset vector
    if len(starts):
        new_offs = np.append(starts, ends[-1]).astype(np.int32)
        # chunks are contiguous within a doc and docs are contiguous in
        # the flat array, so ends[i] == starts[i+1] except at the last
        # chunk of each doc where the next doc starts there too
        chunk_list = pa.ListArray.from_arrays(pa.array(new_offs),
                                              toks.values)
        texts = pc.binary_join(chunk_list, " ")
    else:
        texts = pa.array([], type=pa.string())
    ids = one_array(batch.column("doc_id"))
    return pa.table({
        "doc_id": ids.take(pa.array(doc_of)),
        "chunk_no": pa.array(chunk_no, type=pa.int64()),
        "chunk_text": texts,
        "n_chunk_tokens": pa.array((ends - starts), type=pa.int64()),
    })
