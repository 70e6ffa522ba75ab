"""Property-based tests (hypothesis) for the codec, scalar semantics and
the exchange-side combine kernels."""

import string

from hypothesis import example, given, settings
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


_URI_PIECES = st.one_of(
    st.sampled_from("/?&=%.'<>#" + string.ascii_letters),
    st.sampled_from("/?&=%.'<>#" + string.ascii_letters),
    st.sampled_from(["utm_source=", "/../", "%00", "script>", "alert", "' exec"]),
    st.sampled_from([chr(c) for c in range(0x20)] + ["\x7f"]),
    st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
)
_URIS = st.one_of(
    st.lists(_URI_PIECES, max_size=14).map(lambda p: "/" + "".join(p)),
    st.lists(_URI_PIECES, max_size=14).map("".join),
    st.sampled_from(["", "*", "http://h/p"]),
)


@given(st.lists(_URIS, max_size=30), st.lists(_URIS, max_size=30))
@example(["/p?' exec alert", "/a/../b?script>' insert"], ["/x?' update"])
@settings(max_examples=200, deadline=None)
def test_vectorized_uri_classification_matches_split_path(head, tail):
    """The parse stage's Arrow URI classification equals scalar
    ``split_path`` + ``RE_UTM_SOURCE`` on every value. Each array holds
    URIs of both the Arrow path ("/..." without "%" or control bytes)
    and the scalar fallback, so the scatter back to value order is
    covered too."""
    import pyarrow as pa

    from sbo_ray.stages.parse import _classify_uris

    uris = [*head, "/a/b?utm_source=x&c", *tail, "%zz"]
    path, p1, p2, p3, mal, utm = _classify_uris(pa.array(uris, pa.string()))
    for i, uri in enumerate(uris):
        want = L.split_path(uri)
        m = L.RE_UTM_SOURCE.search(uri)
        got = (path[i].as_py(), p1[i].as_py(), p2[i].as_py(), p3[i].as_py(),
               int(mal[i]), utm[i].as_py())
        assert got == (*want, m.group(2) if m else None), uri


# ---- parse stage: batch-wide field split and integer timestamps ------------
# Line pieces for the five formats. The alphabet keeps to characters on
# which Python's re and RE2 agree (no newline, vertical tab, \x1c-\x1f or
# Unicode spaces: Python's \s and "$" treat those differently).
_WORD = st.text(st.sampled_from("ab09-./:?=&%é"), min_size=1, max_size=5)
_ODD = st.sampled_from(['"', " ", "  ", "\t", "[", "]", "", "-", '" "'])
_FIELD = st.integers(0, 19).flatmap(lambda k: st.one_of(
    _ODD, st.tuples(_WORD, _ODD, _WORD).map("".join)) if k == 0 else _WORD)
_DIGITS = st.integers(0, 9).flatmap(lambda k: _FIELD if k == 0 else st.text(
    st.sampled_from("0123456789"), min_size=1, max_size=4))
_STAMP = st.one_of(
    st.sampled_from(["10/Oct/2000:13:55:36 -0700", "10/Oct/2000:3:55:36 +0100",
                     "weird ts here", "nospacets", "01/Jan/2024:00:00:00 +2500"]),
    st.tuples(_FIELD, _FIELD).map(" ".join),
)


@st.composite
def _log_line(draw):
    """(format code, line): a line laid out for one format, with fuzzed
    fields, sometimes a stray bracket, tail or format code."""
    layout = draw(st.integers(0, len(L.FORMATS) - 1))
    fmt = L.FORMATS[layout]
    f = {k: draw(_FIELD) for k in ("domain", "ip", "logname", "user", "method",
                                   "uri", "proto", "ref", "ua", "rt", "urt")}
    status, nbytes, ts = draw(_DIGITS), draw(_DIGITS), draw(_STAMP)
    logname = "-" if fmt in (L.FORMAT_NGINX_COMBINED, L.FORMAT_NGINX_CUSTOM) \
        else f["logname"]
    line = (f'{f["ip"]} {logname} {f["user"]} [{ts}] '
            f'"{f["method"]} {f["uri"]} {f["proto"]}" {status} {nbytes}')
    if fmt != L.FORMAT_APACHE_COMMON:
        line += f' "{f["ref"]}" "{f["ua"]}"'
    if fmt == L.FORMAT_APACHE_VHOST_COMBINED:
        line = f'{f["domain"]} {line}'
    if fmt == L.FORMAT_NGINX_CUSTOM:
        line += f' {f["rt"]} {f["urt"]}'
    if draw(st.integers(0, 9)) == 0:
        line = line.replace("[", "", 1)
    if draw(st.integers(0, 9)) == 0:
        line += " " + draw(_WORD)
    code = layout if draw(st.integers(0, 4)) else draw(st.integers(0, len(L.FORMATS) - 1))
    return code, line


_ADVERSARIAL = [  # test_parse_edge_cases.test_fast_path_fallback_adversarial
    (1, '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a"b HTTP/1.1" 200 5 "-" "curl/8"'),
    (1, '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /x HTTP/1.1" 200 5 "ref"er" "curl/8"'),
    (1, '1.2.3.4 - - [weird ts here] "GET /x HTTP/1.1" 200 5 "-" "curl/8"'),
    (1, '1.2.3.4 - - [nospacets] "GET /x HTTP/1.1" 200 5 "-" "curl/8"'),
    (1, '1.2.3.4 - frank [10/Oct/2000:13:55:36 -0700] "GET /x?q=1 HTTP/1.1" 404 55 '
        '"http://www.e.com/" "curl/8"'),
]


@given(st.lists(_log_line(), min_size=1, max_size=25))
@example(_ADVERSARIAL)
@example([(0, '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 10'),
          (4, '4.4.4.4 - - [10/Oct/2000:13:55:36 -0700] "GET /d HTTP/1.1" 200 40 '
              '"-" "curl/8" 0.001 0.001'),
          (2, 'x.com 3.3.3.3 - - [10/Oct/2000:3:55:36 -0700] "GET /c HTTP/2.0" '
              '500 30 "-" "Bytespider"')])
@settings(max_examples=200, deadline=None)
def test_batch_field_split_matches_per_line_regex(rows):
    """The parse stage's one-split extraction equals a per-row Python
    match of the row's own format pattern: parse_ok, and all 12 fields
    ("" where the pattern captures no such field or the line does not
    match), in input row order, on batches mixing all five formats."""
    import numpy as np
    import pyarrow as pa

    from sbo_ray.stages.parse import _FIELD_NAMES, _split_fields

    codes = np.array([c for c, _ in rows], dtype=np.int8)
    lines = [line for _, line in rows]
    ok, fields = _split_fields(pa.array(lines, pa.string()), codes)
    for i, (code, line) in enumerate(rows):
        m = L._COMPILED[L.FORMATS[code]].match(line)
        assert bool(ok[i]) == (m is not None), line
        for name in _FIELD_NAMES:
            want = m.group(name) if m and name in m.re.groupindex else ""
            assert fields[name][i].as_py() == want, (name, line)


_TWO = st.integers(0, 99).map("{:02d}".format)
_ZONE = st.integers(0, 9999).map("{:04d}".format)
_MON = st.sampled_from(list(L._MONTHS) + ["jan", "FEB", "Xyz", "Ma"])


@given(st.lists(st.tuples(
    st.one_of(_TWO, st.integers(0, 9).map(str)),                      # day
    _MON,
    st.one_of(st.integers(0, 9999).map("{:04d}".format),
              st.sampled_from(["2024", "2023", "1900", "2000", "0001"])),
    st.one_of(_TWO, st.integers(0, 9).map(str), st.just("123")),      # hour
    _TWO, _TWO,                                                       # minute, second
    st.sampled_from("+-"), _ZONE,
    st.sampled_from([1, 5, 10, 15, 30, 60, 7]),                       # window size
), min_size=1, max_size=30))
@example([("29", "Feb", "2023", "03", "05", "05", "+", "0000", 10),
          ("29", "Feb", "2024", "3", "05", "05", "-", "0130", 5),
          ("31", "Dec", "9999", "23", "59", "59", "-", "2359", 60),
          ("01", "Jan", "0001", "00", "00", "00", "+", "0000", 1),
          ("01", "Jan", "2024", "00", "00", "00", "+", "2400", 15),
          ("01", "Jan", "2024", "24", "00", "00", "+", "0000", 10),
          ("01", "Jan", "2024", "23", "60", "00", "+", "0000", 10),
          ("01", "Jan", "2024", "23", "59", "60", "+", "0000", 10),
          ("00", "Jan", "2024", "00", "00", "00", "+", "0000", 10),
          ("31", "Apr", "2025", "10", "00", "00", "+", "0000", 10),
          ("29", "Feb", "2000", "10", "00", "00", "+", "0000", 10),
          ("29", "Feb", "1900", "10", "00", "00", "+", "0000", 10)])
@example([("10", "Oct", "2000", "13", "55", "36", "-", "0700", 10),   # all 26 bytes
          ("29", "Feb", "2023", "03", "05", "05", "+", "0000", 10),
          ("01", "Jan", "1970", "00", "00", "00", "+", "0100", 30)])
@settings(max_examples=150, deadline=None)
def test_integer_timestamps_match_scalar_parse(stamps):
    """The parse stage's ts and time_window equal the scalar
    parse_apache_timestamp + calculate_time_window, and ts_offset_sec is
    the captured zone, 0 when nothing matched or |zone| >= 24h."""
    from datetime import datetime, timezone

    import pyarrow as pa

    from sbo_ray.config import JobConfig, SourceConfig
    from sbo_ray.stages.parse import ParseEnrich
    from sbo_ray.synth import SCHEMA

    values = [f"{d}/{mo}/{y}:{h}:{mi}:{s} {sg}{z}"
              for d, mo, y, h, mi, s, sg, z, _ in stamps]
    sources = [f"w{w}" for *_, w in stamps]
    lines = [f'1.1.1.1 - - [{v}] "GET /a HTTP/1.0" 200 1' for v in values]
    job = JobConfig(default=SourceConfig(log_format="apache_common"),
                    sources={s: SourceConfig(log_format="apache_common",
                                             time_window_minutes=int(s[1:]))
                             for s in set(sources)})
    out = ParseEnrich(job)(pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(lines))]),
        "tokens": encode_lines(lines),
        "n_tok": pa.array([len(x.encode()) for x in lines], type=pa.int32()),
        "source": pa.array(sources),
    }, schema=SCHEMA))
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    got = zip(out.column("ts").cast(pa.int64()).to_pylist(),
              out.column("time_window").to_pylist(),
              out.column("ts_offset_sec").to_pylist())
    for value, (_, w), (ts, tw, off) in zip(values, [(0, x[-1]) for x in stamps], got):
        dt = L.parse_apache_timestamp(value)
        want_ts = None if dt is L.GO_ZERO_TIME else int((dt - epoch).total_seconds())
        m = L._RE_APACHE_TS.match(value)
        zone = ((int(m.group(8)) * 3600 + int(m.group(9)) * 60)
                * (-1 if m.group(7) == "-" else 1)) if m else 0
        assert (ts, tw, off) == (want_ts, L.calculate_time_window(dt, w),
                                 zone if abs(zone) < 86400 else 0), value


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

    from sbo_ray.pipelines.dp_text import doc_pack_sequences

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

    from sbo_ray.pipelines.dp_dedup import _bucket_pairs_combine

    bh = np.array([r[0] for r in rows], dtype=np.int64)
    ids = np.array([r[1] for r in rows], dtype=np.int64)
    # arbitrary shard split: round-robin into 3 shards, concatenated
    # in shard order as the partition's combine receives them
    got = _bucket_pairs_combine(pa.table({
        "band_hash": np.concatenate([bh[i::3] for i in range(3)]),
        "doc_id": np.concatenate([ids[i::3] for i in range(3)])}))
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
    """The anti-join fold (missing keys counted per nation, Arrow's
    left-anti join) equals a naive set-difference reference, with
    repeated keys on either side and either side empty."""
    from sbo_ray.pipelines.dp_rel_events import _no_orders_fold

    cust = pa.table({"c_custkey": [c[0] for c in custs],
                     "c_nationkey": [c[1] for c in custs]},
                    schema=pa.schema([("c_custkey", pa.int64()),
                                      ("c_nationkey", pa.int32())]))
    got = _no_orders_fold(cust, pa.table(
        {"o_custkey": pa.array(orders, pa.int64())}))
    got_map = dict(zip(got.column("c_nationkey").to_pylist(),
                       got.column("n_no_order_customers").to_pylist()))
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


def _pack_input(rows, chunk_docs: int, perm, cuts: list):
    """The pack combine's input for ``rows`` = [(source, tokens)]: idx
    = row number, chunk = idx // chunk_docs, the rows in ``perm``
    order cut into slices at ``cuts``."""
    idx = np.arange(len(rows), dtype=np.int64)
    g = pa.table({
        "doc_id": pa.array([f"d{i:012d}" for i in idx], pa.string()),
        "tokens": pa.array([list(map(int, r)) for _, r in rows],
                           pa.list_(pa.int32())),
        "source": pa.array([s for s, _ in rows], pa.string()),
        "idx": pa.array(idx), "chunk": pa.array(idx // chunk_docs),
    }).take(pa.array(np.asarray(perm, np.int64)))
    bounds = [0, *cuts, len(rows)]
    return [g.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.lists(st.integers(min_value=0, max_value=255),
                                   max_size=12), st.booleans()),
                min_size=1, max_size=25),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=6),
       st.booleans(), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_pack_combine_matches_naive(rows, seq_len, chunk_docs, by_source,
                                    n_slices, rnd):
    """_pack_combine == a naive Python packer on arbitrary ragged rows,
    any seq_len, any chunk granularity, under both run keys: the chunk
    (one stream) and (source, chunk) (one stream per source). The rows
    arrive as up to four slices in shuffled order, and the ids flagged
    as dropped (the dedup ops' losers, split over two id arrays) pack as
    nothing. The output rows come in stream order, then seq_id."""
    import functools

    from sbo_ray.pipelines.queries import (_chunk_run, _pack_combine,
                                           _source_run)

    n = len(rows)
    idx = np.arange(n, dtype=np.int64)
    chunk = idx // chunk_docs
    stream = [s if by_source else "" for s, _, _ in rows]
    kept = [not d for _, _, d in rows]
    # naive reference: each stream concatenates its kept rows in idx
    # order; its fragments come stream by stream, row by row
    want, pos = {}, {}
    for i, (s, (_, r, _)) in enumerate(zip(stream, rows)):
        for tok in r if kept[i] else []:
            key = (f"d{i:012d}", pos.get(s, 0) // seq_len)
            pos[s] = pos.get(s, 0) + 1
            agg = want.setdefault(key, [0, 0, tok, tok])
            agg[0] += 1
            agg[1] += tok
            agg[3] = tok
    order = sorted(want, key=lambda k: (stream[int(k[0][1:])], k))
    # run bases = exclusive cumsum of per-run kept token counts, per stream
    lens = np.array([len(r) if k else 0 for (_, r, _), k in zip(rows, kept)],
                    dtype=np.int64)
    C = int(chunk.max()) + 1
    srcs = np.unique(np.asarray(stream))
    rid = np.searchsorted(srcs, np.asarray(stream)) * C + chunk
    runs = np.unique(rid)
    bases, acc = [], {}
    for r in runs:
        bases.append(acc.get(r // C, 0))
        acc[r // C] = bases[-1] + int(lens[rid == r].sum())
    run = functools.partial(_source_run, srcs, C) if by_source else _chunk_run
    perm = rnd.sample(range(n), n)
    cuts = sorted(rnd.sample(range(1, n), min(n_slices, n) - 1))
    tabs = _pack_input([(s, r) for s, r, _ in rows], chunk_docs, perm, cuts)
    drop = idx[~np.asarray(kept)]
    got = _pack_combine((run, (runs, np.array(bases, np.int64))), seq_len,
                        ["doc_id"], [drop[::2], drop[1::2]], tabs).to_pandas()
    assert list(zip(got.doc_id, got.seq_id)) == order
    got_d = {(r.doc_id, r.seq_id): [r.n_frag_tokens, r.frag_sum,
                                    r.first_tok, r.last_tok]
             for r in got.itertuples(index=False)}
    assert got_d == want


def test_pack_combine_row_order():
    """One partition's output rows: in stream order (here idx, one
    stream), each row's fragments by seq_id, whatever order its slices
    and their rows arrive in; a dropped row leaves no row and no gap."""
    from sbo_ray.pipelines.queries import _chunk_run, _pack_combine

    rows = [("a", [1, 2]), ("a", [3, 4, 5, 6, 7]), ("a", [8]),
            ("a", []), ("a", [9, 10, 11, 12])]
    tabs = _pack_input(rows, 2, [4, 2, 0, 3, 1], [2])
    got = _pack_combine((_chunk_run, (np.arange(3), np.array([0, 7, 7]))),
                        3, ["doc_id"], [np.array([2])], tabs)
    assert [(d[-1:], s) for d, s in zip(got.column("doc_id").to_pylist(),
                                        got.column("seq_id").to_pylist())
            ] == [("0", 0), ("1", 0), ("1", 1), ("1", 2), ("4", 2),
                  ("4", 3)]
    assert got.column("frag_sum").to_pylist() == [3, 3, 15, 7, 19, 23]


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


@given(st.lists(st.lists(st.integers(min_value=0, max_value=255),
                         max_size=20), max_size=12),
       st.integers(min_value=2, max_value=8), st.sampled_from([1, 3, 8]))
@settings(max_examples=100, deadline=None)
def test_window_key_engine_equals_sql(rows, n, mod):
    """The engine's one window pack (``_sampled_window_keys``) and the
    gates' one SQL key (``_sql_window_key``) give the same key for every
    window of any byte rows, and the engine's first-token sample is the
    gates' ``key % mod = 0`` when mod | 256."""
    import duckdb
    import pyarrow as pa

    from sbo_ray.pipelines import queries as Q

    tokens = pa.array(rows, pa.list_(pa.int32()))
    k, r = Q._sampled_window_keys(*Q._token_lists(tokens), n, mod)
    got = list(zip(r.tolist(), k.tolist()))

    con = duckdb.connect()
    con.register("t", pa.table({"r": pa.array(range(len(rows)), pa.int64()),
                                "tokens": tokens}))
    sql = f"""
SELECT r, ({Q._sql_window_key(n)}) AS key, tokens[i] AS first
FROM (SELECT r, tokens, UNNEST(range(1, len(tokens) - {n - 2})) AS i
      FROM t WHERE len(tokens) >= {n})
ORDER BY r, i
"""
    windows = con.execute(sql).fetchall()
    assert got == [(r_, key) for r_, key, first in windows
                   if first % mod == 0]
    if 256 % mod == 0:
        assert got == [(r_, key) for r_, key, _ in windows
                       if key % mod == 0]


@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.lists(st.integers(min_value=0, max_value=255),
                                   max_size=10)), max_size=25))
@settings(max_examples=100, deadline=None)
def test_key_counts_and_pair_keys_match_counter(rows):
    """The bounded count kernels == a Counter on arbitrary ragged token
    rows, empty rows included: ``_pair_keys`` yields each row's adjacent
    pairs and never a pair across rows, and ``_key_counts`` per source
    gives every non-zero (source, key) bin, its count and a sum column."""
    from collections import Counter

    from sbo_ray.pipelines.queries import (_key_counts, _pair_keys,
                                           _source_codes, _token_lists)

    t = pa.table({
        "source": pa.array([s for s, _ in rows], pa.string()),
        "tokens": pa.array([r for _, r in rows], pa.list_(pa.int32())),
    })
    vals, off = _token_lists(t.column("tokens"))
    dic, codes = _source_codes(t)
    tok_src = np.repeat(codes, np.diff(off))
    key, valid = _pair_keys(vals, off)

    def rows_of(c: pa.Table) -> dict:
        return {(s, k): rest for s, k, *rest in zip(
            *[c.column(n).to_pylist() for n in c.column_names])}

    want = Counter((s, a * 256 + b) for s, r in rows for a, b in zip(r, r[1:]))
    assert Counter(key.tolist()) == Counter(k for _, k in want.elements())
    got = rows_of(_key_counts(key, 65536, (dic, tok_src[:-1][valid])))
    assert got == {k: [c] for k, c in want.items()}

    want = Counter((s, tok) for s, r in rows for tok in r)
    got = rows_of(_key_counts(vals, 256, (dic, tok_src), tok_sum=vals))
    assert got == {(s, tok): [c, tok * c] for (s, tok), c in want.items()}
