"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine — the training-data-pipeline extensions of the engine.

Scale notes (the 10^12-row story, per the Ray guide patterns):

- exact: content-hash column added vectorized in ``map_batches``, then a
  hash groupby (``first``/min per group) — the hash column (16 bytes)
  shuffles, never the payload.
- MinHash+LSH: per-batch shingle->minhash signatures (numpy matrix ops),
  explode to (band, band_hash, doc_id) rows, group by bucket — only
  same-bucket docs are ever compared; candidate pairs are verified with
  exact shingle-set Jaccard.
- SimHash: 64-bit signature per doc; pigeonhole bucketing on 4 x 16-bit
  segments finds all pairs within Hamming distance 3 without O(n^2).
- embedding cosine: normalized blocks x broadcast matrix (numpy matmul).

Each bucket's pair-join runs inside one exchange partition; the
partitioning assumption (bucket fits a worker) is the standard LSH
contract and holds when bands/rows are tuned so buckets stay small.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import one_array

# ---- exact -----------------------------------------------------------------


def add_text_hash(batch: pa.Table, column: str = "text") -> pa.Table:
    """Append an md5-based 64-bit content hash column. md5 runs once per
    DISTINCT value (dictionary-encode + hash uniques + vectorized take),
    matching the engine's per-unique idiom."""
    import pyarrow.compute as pc

    col = batch.column(column)
    enc = pc.dictionary_encode(one_array(col))
    uniques = enc.dictionary.to_pylist()
    uhash = np.fromiter(
        (int.from_bytes(hashlib.md5(v.encode()).digest()[:8], "big") >> 1
         for v in uniques),
        dtype=np.int64, count=len(uniques),
    )
    hashes = uhash[enc.indices.to_numpy(zero_copy_only=False)]
    return batch.append_column("text_hash", pa.array(hashes))


def min_index_winners(h: np.ndarray, idx: np.ndarray, *cols) -> tuple:
    """Exact dedup's winner rule: of the rows sharing a content hash
    ``h``, the one with the smallest ``idx`` survives. Returns the
    winner mask, ``idx`` and ``cols``, all in (h, idx) order."""
    o = np.lexsort((idx, h))
    h = h[o]
    first = np.ones(len(h), dtype=bool)
    first[1:] = h[1:] != h[:-1]
    return (first, idx[o], *(c[o] for c in cols))


# ---- shingles / minhash ----------------------------------------------------


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (crc32 of the joined shingle)."""
    words = text.split()
    if len(words) < k:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return np.fromiter(
        (zlib.crc32(s.encode()) for s in set(shingles)),
        dtype=np.uint64, count=len(set(shingles)),
    )


_MIX = (np.uint64(0x9E3779B185EBCA87), np.uint64(0xC2B2AE3D27D4EB4F),
        np.uint64(0x165667B19E3779F9))


def _odd_multipliers(n_perm: int, seed: int = 7) -> np.ndarray:
    """Odd 64-bit multipliers: x -> a*x (mod 2^64) is a bijection, so
    min over the mapped values is a valid minhash permutation family."""
    rng = np.random.RandomState(seed)
    a = rng.randint(0, 1 << 62, size=n_perm, dtype=np.int64).astype(np.uint64)
    return (a << np.uint64(1)) | np.uint64(1)


def minhash_bands(batch: pa.Table, n_perm: int = 64, bands: int = 16,
                  text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """doc -> (band, band_hash, doc_id) rows for the LSH bucket groupby.

    Fully vectorized (r3; the per-doc Python signature loop was the
    dominant cost of doc_dedup_minhash at 4M docs): Arrow whitespace
    split -> per-UNIQUE-word crc32 (dictionary hash) -> order-dependent
    3-shingle mix over the flat word-hash array -> multiply-permute
    minhash via np.minimum.reduceat over ragged per-doc segments. The
    hash family only shifts LSH candidate RECALL; the verified
    exact-Jaccard output is pinned by the brute-force SQL oracle and
    planted-dup tests. Docs with < 3 words get a single degenerate
    shingle."""
    n = batch.num_rows
    empty = pa.table({
        "band_hash": pa.array([], type=pa.int64()),
        "doc_id": pa.array([], type=pa.int64()),
    })
    if n == 0:
        return empty
    col = batch.column(text_col)
    words = pc.utf8_split_whitespace(one_array(col))
    offsets = words.offsets.to_numpy().astype(np.int64)
    flat = words.values
    wcounts = np.diff(offsets)
    # per-unique word crc32, expanded (the engine's per-unique idiom)
    enc = pc.dictionary_encode(flat)
    uniq = enc.dictionary.to_pylist()
    uh = np.fromiter((zlib.crc32(u.encode()) for u in uniq),
                     dtype=np.uint64, count=len(uniq))
    wh = (uh[enc.indices.to_numpy(zero_copy_only=False)]
          if len(uniq) else np.zeros(0, dtype=np.uint64))
    c1, c2, c3 = _MIX
    if len(wh) >= 3:
        sh_all = (wh[:-2] * c1) ^ (wh[1:-1] * c2) ^ (wh[2:] * c3)
    else:
        sh_all = np.zeros(0, dtype=np.uint64)
    sh_all = np.concatenate([sh_all, np.zeros(2, dtype=np.uint64)])  # pad

    counts = np.where(wcounts >= 3, wcounts - 2, 1).astype(np.int64)
    starts_out = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())
    out_pos = np.arange(total, dtype=np.int64)
    src = out_pos - np.repeat(starts_out, counts) + np.repeat(offsets[:-1], counts)
    S = sh_all[src]
    # degenerate docs (<3 words): one shingle from whatever words exist
    small = wcounts < 3
    if small.any():
        s0 = offsets[:-1][small]
        wc = wcounts[small]
        whp = np.concatenate([wh, np.zeros(2, dtype=np.uint64)])
        h = np.where(wc >= 1, whp[s0] * c1, np.uint64(0x0DD0))
        h = np.where(wc >= 2, h ^ (whp[np.minimum(s0 + 1, len(whp) - 1)] * c2), h)
        S[starts_out[small]] = h

    A = _odd_multipliers(n_perm)
    sig = np.empty((n, n_perm), dtype=np.uint64)
    for p in range(n_perm):
        sig[:, p] = np.minimum.reduceat(A[p] * S, starts_out)

    rows_per_band = n_perm // bands
    d1, d2 = np.uint64(0x2545F4914F6CDD1D), np.uint64(0x9E6C63D0876A9A57)
    band_hash = np.zeros((n, bands), dtype=np.uint64)
    for r in range(rows_per_band):
        band_hash ^= (sig[:, r::rows_per_band][:, :bands] + np.uint64(r)) * (
            d1 if r % 2 == 0 else d2)
    # fold the band INDEX into the 64-bit bucket hash instead of
    # shipping it as its own column: docs agreeing on a band still
    # collide (same values, same index -> same hash), and a cross-band
    # 64-bit collision merely adds a candidate pair the exact-Jaccard
    # verify filters — one less column through the 64M-row LSH shuffle
    band_hash ^= (np.arange(1, bands + 1, dtype=np.uint64)[None, :]
                  * np.uint64(0x9E3779B97F4A7C15))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "band_hash": pa.array(band_hash.reshape(-1).astype(np.int64)),
        "doc_id": pa.array(np.repeat(ids, bands)),
    })


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-shingle Jaccard (the verify stage for LSH candidates)."""
    a = set(np.asarray(_shingle_hashes(text_a, k)).tolist())
    b = set(np.asarray(_shingle_hashes(text_b, k)).tolist())
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


# ---- character n-gram Jaccard ----------------------------------------------


def char_ngrams(text: str, n: int = 5) -> set[str]:
    """Distinct character n-grams; texts shorter than n yield the whole
    text (mirrors the word-shingle short-text rule)."""
    if len(text) < n:
        return {text}
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 5) -> float:
    sa, sb = char_ngrams(a, n), char_ngrams(b, n)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


# ---- simhash ---------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (crc-based token hashes)."""
    words = text.split()
    if not words:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for w in set(words):
        h = np.uint64(int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big"))
        bits = (h >> shifts) & np.uint64(1)
        acc += np.where(bits == np.uint64(1), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_batch(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Vectorized simhash64 over a batch (r3; the per-doc loop dominated
    doc_dedup_simhash at 4M docs): Arrow whitespace split, per-doc word
    DEDUP via np.unique over (doc, word-code) pairs, md5 once per UNIQUE
    word, then 64 per-bit bincount votes. Bit-identical to simhash64
    (asserted in tests/test_dataops.py)."""
    n = batch.num_rows
    if n == 0:
        return pa.table({
            id_col: pa.array([], type=pa.int64()),
            "simhash": pa.array([], type=pa.int64()),
            **{f"seg{i}": pa.array([], type=pa.int32()) for i in range(4)},
        })
    col = batch.column(text_col)
    words = pc.utf8_split_whitespace(one_array(col))
    offsets = words.offsets.to_numpy().astype(np.int64)
    wcounts = np.diff(offsets)
    enc = pc.dictionary_encode(words.values)
    uniq = enc.dictionary.to_pylist()
    uh = np.fromiter(
        (int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big")
         for u in uniq), dtype=np.uint64, count=len(uniq))
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), wcounts)
    # Arrow's split yields [''] for empty/whitespace-only strings where
    # Python's str.split() yields [] — drop empty words
    nonempty = pc.utf8_length(words.values).to_numpy(zero_copy_only=False) > 0
    codes, doc_of = codes[nonempty], doc_of[nonempty]
    # per-doc word sets (simhash votes once per DISTINCT word)
    pair_key = doc_of * max(len(uniq), 1) + codes
    uniq_pairs = np.unique(pair_key)
    p_doc = uniq_pairs // max(len(uniq), 1)
    p_hash = uh[uniq_pairs % max(len(uniq), 1)] if len(uniq) else np.zeros(
        0, dtype=np.uint64)
    # per-bit vote "acc = ones - zeros > 0" as the integer
    # "2*ones > total" (exactly equivalent, ties -> 0). p_doc is SORTED
    # (np.unique of doc-major pair keys), so per-doc ones come from one
    # segment reduceat per bit — 2.6x the float-weighted bincount loop,
    # bit-identical (pinned by the simhash64 equality test).
    sig = np.zeros(n, dtype=np.uint64)
    if len(p_doc):
        starts = np.flatnonzero(
            np.concatenate([[True], p_doc[1:] != p_doc[:-1]]))
        docs_present = p_doc[starts]
        cnt_seg = np.diff(np.append(starts, len(p_doc)))
        for b in range(64):
            bits = ((p_hash >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            ones = np.add.reduceat(bits, starts)
            sig[docs_present] |= (
                (2 * ones > cnt_seg).astype(np.uint64) << np.uint64(b))
    sig[wcounts == 0] = 0  # empty docs: simhash64('') == 0
    # pigeonhole: 4 x 16-bit segments; pairs within Hamming<=3 share at
    # least one exact segment
    cols = {
        id_col: batch.column(id_col),
        "simhash": pa.array(sig.astype(np.int64)),
    }
    for i in range(4):
        cols[f"seg{i}"] = pa.array(
            ((sig >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.int32))
    return pa.table(cols)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def simhash_segment_rows(batch: pa.Table) -> pa.Table:
    """Explode a simhash signature batch (seg0..seg3 columns) into
    ``(seg, seg_val, doc_id, simhash)`` rows — the pigeonhole-bucket keys
    for the distributed ``groupby(["seg","seg_val"])`` pair search."""
    n = batch.num_rows
    ids = one_array(batch.column("doc_id"))
    sigs = one_array(batch.column("simhash"))
    pieces = []
    for seg in range(4):
        seg_val = one_array(batch.column(f"seg{seg}"))
        pieces.append(pa.table({
            "seg": pa.array(np.full(n, seg, dtype=np.int32)),
            "seg_val": seg_val,
            "doc_id": ids,
            "simhash": sigs,
        }))
    return pa.concat_tables(pieces)


def simhash_bucket_pairs(ids: np.ndarray, sigs_i64: np.ndarray,
                         max_hamming: int,
                         row_chunk: int = 1024) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-bucket Hamming verify, vectorized xor + SWAR popcount computed
    in ROW CHUNKS: peak extra memory is O(row_chunk x b), never O(b^2),
    so a skewed pigeonhole bucket degrades to more chunks instead of an
    OOM. Compute stays O(b^2) — that is inherent to in-bucket verify."""
    sigs = sigs_i64.astype(np.int64).view(np.uint64)
    b = len(ids)
    lo_parts, hi_parts, ham_parts = [], [], []
    for start in range(0, b, row_chunk):
        stop = min(start + row_chunk, b)
        # each row i in [start, stop) pairs with columns j > i only
        xo = sigs[start:stop, None] ^ sigs[None, :]
        ham = popcount64(xo.reshape(-1)).reshape(xo.shape)
        ii, jj = np.nonzero(ham <= max_hamming)
        gi = ii + start
        keep = jj > gi  # upper triangle: each unordered pair once
        ii, gi, jj = ii[keep], gi[keep], jj[keep]
        if len(gi) == 0:
            continue
        a, c = ids[gi], ids[jj]
        lo_parts.append(np.minimum(a, c))
        hi_parts.append(np.maximum(a, c))
        ham_parts.append(ham[ii, jj].astype(np.int64))
    if not lo_parts:
        z = np.array([], dtype=np.int64)
        return z, z, z
    return (np.concatenate(lo_parts).astype(np.int64),
            np.concatenate(hi_parts).astype(np.int64),
            np.concatenate(ham_parts))


# ---- clustering over near-dup pairs ---------------------------------------


def connected_components(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find over candidate pairs -> {doc_id: cluster_root(min id)}.

    Runs on the driver: LSH verification leaves a candidate set orders of
    magnitude smaller than the corpus (the guide's "union-find on the
    driver only if the candidate set is provably small" case). For
    candidate sets that rival the corpus, iterate min-label propagation
    with groupby rounds instead.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo
            parent.setdefault(lo, lo)
    return {x: find(x) for x in parent}


# ---- embedding cosine ------------------------------------------------------


def cosine_pairs_cross(ma: np.ndarray, ids_a: np.ndarray,
                       mb: np.ndarray, ids_b: np.ndarray,
                       threshold: float,
                       same: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold pairs between two normalized chunks (one matmul).

    ``same=True`` means the two sides are the SAME chunk: only the upper
    triangle is scanned (each unordered pair once). Cross-chunk, every
    (i, j) cell is a distinct unordered pair (ids are disjoint). Returned
    as (min_id, max_id, cos) arrays."""
    sims = ma @ mb.T
    if same:
        iu, ju = np.triu_indices(len(ids_a), k=1)
        hit = sims[iu, ju] > threshold
        ia, ib, s = ids_a[iu[hit]], ids_b[ju[hit]], sims[iu, ju][hit]
    else:
        ia_ix, ib_ix = np.nonzero(sims > threshold)
        ia, ib, s = ids_a[ia_ix], ids_b[ib_ix], sims[ia_ix, ib_ix]
    lo, hi = np.minimum(ia, ib), np.maximum(ia, ib)
    return lo.astype(np.int64), hi.astype(np.int64), s.astype(np.float64)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    m = m.astype(np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms
