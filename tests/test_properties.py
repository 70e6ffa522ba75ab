"""Property-based tests (hypothesis) for the codec, scalar semantics and
the exchange-side combine kernels."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sbo_ray.codec import decode_tokens, encode_lines
from sbo_ray.functions import loglines as L
from sbo_ray.oracle.pipeline import top_n


@given(st.lists(st.text(max_size=200), max_size=50))
@settings(max_examples=50, deadline=None)
def test_codec_roundtrip_any_unicode(lines):
    arr = encode_lines(lines)
    assert decode_tokens(arr).to_pylist() == lines


@given(st.text(max_size=120))
@settings(max_examples=100, deadline=None)
def test_split_path_total(uri):
    """split_path never raises and keeps the malicious precedence domain."""
    p = L.split_path(uri)
    assert p.malicious in (0, 1, 10, 20, 30)
    if p.malicious == 1:
        assert p.path1 == p.path2 == p.path3 == ""


@given(st.text(max_size=120), st.text(max_size=120))
@settings(max_examples=60, deadline=None)
def test_normalize_referer_total(referer, uri):
    out = L.normalize_referer(referer, uri)
    assert isinstance(out, str)
    assert not out.startswith("www.") or "utm_source=" in uri


@given(st.dictionaries(st.text(min_size=1, max_size=8),
                       st.integers(min_value=0, max_value=100), max_size=30),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_top_n_properties(counts, n):
    out = top_n(counts, n)
    assert len(out) == min(n, len(counts))
    if out and len(counts) > n:
        kept_min = min(out.values())
        dropped = {k: v for k, v in counts.items() if k not in out}
        assert all(v <= kept_min for v in dropped.values())


# ---- round-2 scalar functions ----------------------------------------------

@given(st.text(max_size=300), st.integers(min_value=1, max_value=120))
@settings(max_examples=150, deadline=None)
def test_truncation_always_valid_utf8_and_within_limit(s, n):
    """Byte truncation yields valid UTF-8 of <= n bytes, idempotent."""
    out = L.reduce_to_max_len(s, n)
    b = out.encode("utf-8")  # must not raise
    assert len(b) <= n
    assert L.reduce_to_max_len(out, n) == out
    out2 = L.reduce_to_max_len_keeping_last(s, n)
    assert len(out2.encode("utf-8")) <= n


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_popcount64_matches_python(vals):
    import numpy as np

    from sbo_ray.functions.dedup import popcount64

    arr = np.array(vals, dtype=np.uint64)
    got = popcount64(arr)
    assert [int(x) for x in got] == [bin(v).count("1") for v in vals]


@given(st.text(max_size=200), st.text(max_size=200),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_ngram_jaccard_bounds_and_symmetry(a, b, n):
    from sbo_ray.functions.dedup import ngram_jaccard

    j = ngram_jaccard(a, b, n)
    assert 0.0 <= j <= 1.0
    assert ngram_jaccard(b, a, n) == j
    assert ngram_jaccard(a, a, n) == 1.0


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_ppm_roundtrip_any_size(w, h, seed):
    import numpy as np

    from sbo_ray.functions.multimodal import decode_ppm, make_ppm

    rng = np.random.RandomState(seed % 2**31)
    px = rng.randint(0, 256, size=3 * w * h).astype(np.uint8)
    got_w, got_h, maxval, raster = decode_ppm(make_ppm(w, h, px))
    assert (got_w, got_h, maxval) == (w, h, 255)
    assert (raster == px).all()


@given(st.text(max_size=200))
@settings(max_examples=100, deadline=None)
def test_referer_hostname_total_and_fragment_free(ref):
    """go_referer_hostname never raises; a '#' never survives into the
    hostname (url.Parse cuts fragments first)."""
    from sbo_ray.functions.gourl import go_referer_hostname

    host = go_referer_hostname(ref)
    if host is not None:
        assert "#" not in host


@given(st.lists(st.lists(st.sampled_from("ab c"), max_size=12)
                .map("".join), min_size=0, max_size=20))
@settings(max_examples=100, deadline=None)
def test_repetition_stats_matches_naive(texts):
    """The vectorized repetition kernel (dictionary codes + sorted
    composite-key runs + reduceat maxima) must equal a per-doc Python
    Counter reference on arbitrary texts, including empties, repeated
    spaces (empty tokens count — string_split semantics) and repeated
    grams."""
    from collections import Counter

    import pyarrow as pa

    from sbo_ray.functions.text import repetition_stats

    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    got = repetition_stats(batch).to_pandas()
    for i, text in enumerate(texts):
        toks = text.split(" ")
        bigrams = list(zip(toks, toks[1:]))
        assert got.loc[i, "n_tokens"] == len(toks)
        assert got.loc[i, "n_distinct_tokens"] == len(set(toks))
        assert got.loc[i, "top_token_count"] == max(Counter(toks).values())
        assert got.loc[i, "top_bigram_count"] == (
            max(Counter(bigrams).values()) if bigrams else 0)


@given(st.lists(st.integers(min_value=1, max_value=40),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=32),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=30, deadline=None)
def test_pack_sequences_matches_cumsum(token_counts, seq_len, chunk_docs):
    """doc_pack_sequences' distributed prefix sum must equal the plain
    exclusive cumsum for ANY chunk size and sequence length (chunk
    boundaries and partition grouping are implementation details)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import tempfile

    from sbo_ray.pipelines.datapipe import doc_pack_sequences

    texts = [" ".join(["w"] * c) for c in token_counts]
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }), f"{d}/documents.parquet")
        got = doc_pack_sequences(
            d, seq_len=seq_len, chunk_docs=chunk_docs).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    counts = np.asarray(token_counts)
    offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
    assert got["tok_offset"].tolist() == offs.tolist()
    assert got["seq_first"].tolist() == (offs // seq_len).tolist()
    assert got["seq_last"].tolist() == (
        (offs + counts - 1) // seq_len).tolist()


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_png_roundtrip_any_size(w, h, seed):
    """PNG encode/decode round-trips arbitrary RGB8 rasters at any
    dimensions — every scanline filter type (r % 5 cycling) must invert
    exactly, including 1-px-wide images where left/upper-left are the
    zero pixel."""
    import numpy as np

    from sbo_ray.functions.multimodal import decode_png, make_png

    rng = np.random.RandomState(seed % 2**31)
    px = rng.randint(0, 256, size=3 * w * h).astype(np.uint8)
    got_w, got_h, depth, ctype, fsum, raster = decode_png(make_png(w, h, px))
    assert (got_w, got_h, depth, ctype) == (w, h, 8, 2)
    assert fsum == sum(r % 5 for r in range(h))
    assert (raster == px).all()


def test_png_malformed_inputs_raise():
    """Corrupt PNGs fail loudly, never silently: bad signature, CRC
    mismatch, truncated chunk, unsupported color type, interlacing."""
    import struct
    import zlib

    import numpy as np
    import pytest

    from sbo_ray.functions.multimodal import decode_png, make_png, synth_png

    good = synth_png(7)
    with pytest.raises(ValueError, match="not a PNG"):
        decode_png(b"GIF89a" + good)
    # flip one IDAT byte -> CRC mismatch
    idat_at = good.index(b"IDAT")
    bad = bytearray(good)
    bad[idat_at + 6] ^= 0xFF
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(bad))
    with pytest.raises(ValueError, match="truncated|missing"):
        decode_png(good[:40])
    # RGBA color type (6): rebuild IHDR with correct CRC
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 6, 0, 0, 0)
    rgba = (b"\x89PNG\r\n\x1a\n"
            + struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
            + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF))
    with pytest.raises(NotImplementedError, match="RGB8"):
        decode_png(rgba + good[good.index(b"IDAT") - 4:])
    # Adam7 interlace flag
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 1)
    adam = (b"\x89PNG\r\n\x1a\n"
            + struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
            + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr) & 0xFFFFFFFF))
    with pytest.raises(NotImplementedError, match="interlac"):
        decode_png(adam + good[good.index(b"IDAT") - 4:])
    # wrong media type routed to the PNG decoder
    from sbo_ray.functions.multimodal import PngDecoder
    import pyarrow as pa

    t = pa.table({
        "doc_id": pa.array([1], type=pa.int64()),
        "payload": pa.array([b"x"], type=pa.binary()),
        "media_type": pa.array(["image/jpeg"], type=pa.string()),
        "payload_bytes": pa.array([1], type=pa.int64()),
    })
    with pytest.raises(NotImplementedError, match="jpeg"):
        PngDecoder()(t)


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 50)),
                max_size=200),
       st.integers(min_value=2, max_value=7))
@settings(max_examples=60, deadline=None)
def test_bucket_pairs_combine_matches_set_reference(rows, P):
    """The raw-task candidate combine (per-partition bucket triangles,
    deduped) equals the naive all-at-once set reference, for ANY
    split of the band rows into shards."""
    import numpy as np
    import pyarrow as pa

    from sbo_ray.pipelines.datapipe import _bucket_pairs_combine

    bh = np.array([r[0] for r in rows], dtype=np.int64)
    ids = np.array([r[1] for r in rows], dtype=np.int64)
    # arbitrary shard split: round-robin into 3 shards
    shards = [(bh[i::3], ids[i::3]) for i in range(3)]
    got = _bucket_pairs_combine(*shards)
    got_pairs = set(zip(got.column("id_a").to_pylist(),
                        got.column("id_b").to_pylist()))
    want = set()
    for h in set(bh.tolist()):
        bucket = sorted(set(ids[bh == h].tolist()))
        # the engine pairs bucket MEMBERS (row occurrences): duplicate
        # ids in one bucket emit no self-pair after dedup, matching the
        # set reference over distinct ids, EXCEPT identical ids pair to
        # nothing — replicate via occurrences
        occ = sorted(ids[bh == h].tolist())
        for i in range(len(occ)):
            for j in range(i + 1, len(occ)):
                if occ[i] != occ[j]:
                    want.add((min(occ[i], occ[j]), max(occ[i], occ[j])))
                else:
                    want.add((occ[i], occ[j]))
    # identical-id pairs: the triangle includes (x, x) when the same id
    # appears twice in one bucket — mirror exactly
    assert got_pairs == want


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)),
                max_size=120),
       st.lists(st.integers(0, 40), max_size=120))
@settings(max_examples=60, deadline=None)
def test_anti_combine_matches_set_reference(custs, orders):
    """The anti-join combine (missing keys counted per carry) equals a
    naive set-difference reference for any shard split."""
    import numpy as np

    from sbo_ray.pipelines.datapipe import _anti_combine

    ck = np.array([c[0] for c in custs], dtype=np.int64)
    cn = np.array([c[1] for c in custs], dtype=np.int64)
    ok = np.array(orders, dtype=np.int64)
    left = [(ck[i::2], cn[i::2]) for i in range(2)]
    right = [(ok[i::2], np.zeros(0, np.int64)) for i in range(2)]
    got = _anti_combine(left, right)
    got_map = dict(zip(got.column("key").to_pylist(),
                       got.column("cnt").to_pylist()))
    want = {}
    oset = set(orders)
    for k, n in custs:
        if k not in oset:
            want[n] = want.get(n, 0) + 1
    assert got_map == want


# ---- token-native kernels (pure, no Ray) -----------------------------------
import numpy as np
import pyarrow as pa


def _ragged(rows):
    vals = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows]) \
        if any(len(r) for r in rows) else np.zeros(0, np.int32)
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=off[1:])
    return vals, off


@given(st.lists(st.lists(st.integers(min_value=0, max_value=255),
                         max_size=30), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_seq_hash_matches_tuple_equality(rows):
    """Equal rows hash equal; distinct rows in the sample hash distinct
    (the polynomial is effectively injective on short byte rows)."""
    from sbo_ray.pipelines.queries import _seq_hash64

    vals, off = _ragged(rows)
    h = _seq_hash64(vals, off)
    tup = [tuple(r) for r in rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert (h[i] == h[j]) == (tup[i] == tup[j])


@given(st.lists(st.lists(st.integers(min_value=0, max_value=255),
                         max_size=12), min_size=1, max_size=25),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_pack_combine_matches_naive(rows, seq_len, chunk_docs):
    """_pack_combine == a naive Python packer on arbitrary ragged rows,
    any seq_len, any chunk granularity (single shard, all chunks)."""
    from sbo_ray.pipelines.queries import _pack_combine

    n = len(rows)
    idx = np.arange(n, dtype=np.int64)
    chunk = idx // chunk_docs
    # naive reference
    stream, doc_of_tok = [], []
    for i, r in enumerate(rows):
        stream.extend(r)
        doc_of_tok.extend([i] * len(r))
    want = {}
    for t_pos, (tok, d) in enumerate(zip(stream, doc_of_tok)):
        sid = t_pos // seq_len
        key = (f"d{d:012d}", sid)
        agg = want.setdefault(key, [0, 0, None, None])
        agg[0] += 1
        agg[1] += tok
        if agg[2] is None:
            agg[2] = tok
        agg[3] = tok
    # chunk bases = exclusive cumsum of per-chunk token counts
    lens = np.array([len(r) for r in rows], dtype=np.int64)
    cids = np.unique(chunk)
    per_chunk = np.array([lens[chunk == c].sum() for c in cids])
    bases = np.cumsum(per_chunk) - per_chunk
    g = pa.table({
        "doc_id": pa.array([f"d{i:012d}" for i in idx], pa.string()),
        "tokens": pa.array([list(map(int, r)) for r in rows],
                           pa.list_(pa.int32())),
        "idx": pa.array(idx), "chunk": pa.array(chunk),
    })
    got = _pack_combine((cids, bases), seq_len, g).to_pandas()
    got_d = {(r.doc_id, r.seq_id): [r.n_frag_tokens, r.frag_sum,
                                    r.first_tok, r.last_tok]
             for r in got.itertuples(index=False)}
    assert got_d == {k: v for k, v in want.items()}


@given(st.lists(st.lists(st.integers(min_value=0, max_value=255),
                         max_size=16), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=6),
       st.sampled_from([300_000, 500_000, 900_000, 1_000_001]))
@settings(max_examples=80, deadline=None)
def test_quality_gate_mask_matches_counter(rows, min_tok, max_dom_ppm):
    """_quality_gate_mask == the Counter reference on arbitrary ragged
    rows: empties always drop, constant rows drop below the 1e6+1 ppm
    ceiling, the integer floor matches Python // exactly."""
    from collections import Counter

    from sbo_ray.pipelines.queries import _quality_gate_mask

    vals, off = _ragged(rows)
    got = _quality_gate_mask(vals, off, min_tok, max_dom_ppm)
    for i, r in enumerate(rows):
        want = (len(r) >= min_tok and
                max(Counter(r).values()) * 1_000_000 // len(r)
                < max_dom_ppm) if r else False
        assert got[i] == want, (i, r, min_tok, max_dom_ppm)
