"""Training-data operators: SQL-oracle parity for the expressible ones
(covered in test_driver_contract-style comparison here at sf0.001) and
planted-duplicate verification for the sketch operators."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"

SQL_NAMES = [
    "doc_dedup_exact", "doc_sample_hash", "doc_sample_stratified", "doc_decontaminate", "emb_dedup_cosine", "emb_similarity_topk",
    "doc_token_stats", "doc_lang_id", "multimodal_payload_stats",
    "customer_nation_agg", "orders_mktsegment_revenue",
    "lineitem_pricing_summary", "orders_by_month",
    "events_hourly", "events_sessionize", "events_sessionize_salted",
    "doc_dedup_minhash", "doc_dedup_ngram", "doc_dedup_simhash",
    "doc_dedup_clusters", "doc_dedup_clusters_lp", "doc_fingerprint",
    "emb_ann_lsh", "emb_ann_ivf", "multimodal_features",
    "doc_curation_pipeline", "multimodal_frame_sample",
    "multimodal_audio_features", "doc_pii_redact",
    "doc_repetition_stats", "doc_vocab_topk", "doc_chunk",
    "emb_label_centroids", "events_props_extract", "events_asof_join",
    "events_window_join", "events_sliding_window", "events_transitions",
    "events_quantiles", "doc_group_topk", "events_funnel", "doc_tfidf",
    "emb_knn_join", "supplier_nation_revenue", "events_retention",
    "part_brand_revenue", "region_revenue_by_year",
    "doc_unigram_logprob", "multimodal_png_features",
    "doc_dedup_substring", "doc_dedup_near_keep", "doc_tokenize_ids",
    "doc_quality_gopher", "doc_quality_c4", "doc_ccnet_buckets",
    "doc_sample_reservoir",
    "multimodal_image_resize", "emb_project_rp",
    "emb_pq_codes", "emb_ann_pq", "emb_ann_ivfpq", "emb_covariance",
    "emb_outlier_scores", "doc_sample_weighted", "doc_vocab_bigrams",
    "doc_bm25_topk", "doc_winnow", "multimodal_bmp_features",
    "events_sliding_distinct", "orders_shipping_priority",
    "emb_pq_error", "doc_dedup_containment", "events_user_value_topk",
    "doc_emb_curation", "doc_paragraph_dedup", "doc_mix_epochs",
    "emb_kmeans_step", "multimodal_gif_features", "doc_entropy", "doc_quality_linear",
    "doc_dedup_incremental", "doc_bigram_logprob", "events_ab_ttest",
    "events_user_features", "orders_with_returns", "doc_token_stats_jsonl",
    "multimodal_ulaw_features", "events_running_total", "emb_batch_search",
    "multimodal_alaw_features", "doc_dsir_weights", "events_attribution",
    "orders_large_volume", "multimodal_qoi_features",
    "events_attribution_first", "events_cohort_ltv", "emb_triplet_mining",
    "customer_rfm",
]


def _con():
    con = duckdb.connect()
    for t in ("documents", "embeddings", "customer", "nation", "orders",
              "lineitem", "events", "supplier", "part", "region"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", SQL_NAMES)
def test_dataop_matches_sql(ray_session, name):
    from sbo_ray.pipelines.dataqueries import data_oracle_sql, data_queries

    import ray.data as rd

    res = data_queries()[name](SF)
    got = res.to_pandas() if isinstance(res, (rd.Dataset, pa.Table)) else res
    want = _con().execute(data_oracle_sql()[name]).df()
    got, want = _norm(got), _norm(want)
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    assert list(got.columns) == list(want.columns)
    for c in got.columns:
        if got[c].dtype.kind == "f":
            assert np.allclose(got[c].values, want[c].values, atol=1e-6), c
        else:
            assert (got[c].astype(str).values == want[c].astype(str).values).all(), c


# ---- sketch operators vs brute force on planted duplicates ----------------


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """documents table with planted exact + near duplicates."""
    rng = np.random.RandomState(4)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa", "data", "table", "row", "scan"]
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(60)]
    texts[10] = texts[3]                       # exact dup
    words = texts[5].split(); words[7] = "MUTATED"
    texts[20] = " ".join(words)                # near dup (1 of 40 words)
    words = texts[8].split(); words[0] = "X"; words[39] = "Y"
    texts[30] = " ".join(words)                # near dup (2 of 40 words)
    t = pa.table({
        "doc_id": pa.array(range(60), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    d = tmp_path_factory.mktemp("planted")
    import pyarrow.parquet as pq

    pq.write_table(t, str(d / "documents.parquet"))
    return str(d), texts


def test_minhash_finds_planted_dups(ray_session, planted):
    from sbo_ray.functions.dedup import jaccard
    from sbo_ray.pipelines.dp_dedup import doc_dedup_minhash

    d, texts = planted
    got = doc_dedup_minhash(d, threshold=0.5).to_pandas()
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert (3, 10) in pairs   # exact dup
    assert (5, 20) in pairs   # near dup
    # brute-force check: every reported pair really is >= threshold
    for a, b in pairs:
        assert jaccard(texts[a], texts[b]) >= 0.5


def test_minhash_one_giant_bucket_distributed_verify(ray_session, tmp_path):
    """Adversarial LSH input: 36 IDENTICAL documents collapse every band
    into one bucket, producing all C(36,2)=630 candidate pairs. The
    distributed verify (slot-join + per-pair groupby, VERDICT r2 item 4)
    must resolve them all without the driver ever holding candidate
    texts — only the pair list and the verified output."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import doc_dedup_minhash

    n_dup, text = 36, " ".join(f"tok{i % 17}" for i in range(120))
    texts = [text] * n_dup + [f"unique doc number {i} with its own words "
                              f"{'x' * i}" for i in range(8)]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_dedup_minhash(str(tmp_path), threshold=0.8).to_pandas()
    dup_pairs = got[(got["id_a"] < n_dup) & (got["id_b"] < n_dup)]
    assert len(dup_pairs) == n_dup * (n_dup - 1) // 2
    assert (dup_pairs["jaccard"] == 1.0).all()
    assert (got["id_a"] < got["id_b"]).all()


def test_simhash_finds_exact_dup(ray_session, planted):
    from sbo_ray.pipelines.dp_dedup import doc_dedup_simhash

    d, texts = planted
    got = doc_dedup_simhash(d, max_hamming=6).to_pandas()
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert (3, 10) in pairs   # identical text -> hamming 0


def test_simhash_batch_matches_scalar():
    """The vectorized simhash_batch must be bit-identical to the scalar
    simhash64 (the SQL oracle replicates the md5 word hashing exactly),
    including empty/whitespace-only docs where Arrow's split yields ['']
    but Python's yields []."""
    from sbo_ray.functions.dedup import simhash64, simhash_batch

    texts = ["", "a", "a a a", "the quick brown fox", "x " * 500,
             "  padded   spaces  ", "unicode é ü tokens é", " ", "\t\n",
             "single", "dup dup dup unique"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    out = simhash_batch(t)
    for txt, s in zip(texts, out.column("simhash").to_pylist()):
        want = simhash64(txt)
        w_signed = want if want < (1 << 63) else want - (1 << 64)
        assert s == w_signed, repr(txt[:20])


def test_fingerprint_deterministic_and_dup_sensitive(ray_session, planted):
    from sbo_ray.pipelines.dp_text import doc_fingerprint

    d, texts = planted
    got = doc_fingerprint(d).to_pandas()

    def fp(df, doc):
        sub = df[df["doc_id"] == doc].sort_values("fp_rank")
        return list(sub["fp_hash"])

    assert fp(got, 3) == fp(got, 10)  # identical text -> identical fingerprint
    got2 = doc_fingerprint(d).to_pandas()
    assert fp(got, 0) == fp(got2, 0)  # deterministic across runs


def test_ann_lsh_recall(ray_session):
    from sbo_ray.pipelines.dp_emb import emb_ann_lsh, emb_similarity_topk

    exact = set(emb_similarity_topk(SF).to_pandas()["vec_id"])
    approx = set(emb_ann_lsh(SF, n_bits=4).to_pandas()["vec_id"])
    # bucket-restricted search must find a reasonable share of true top-k
    assert len(approx & exact) >= 3


def test_multimodal_features_real_decode(ray_session):
    from sbo_ray.functions.multimodal import DecoderStub
    from sbo_ray.pipelines.dp_multimodal import multimodal_features

    got = multimodal_features(SF).to_pandas().set_index("doc_id")
    assert len(got) == 500
    # golden: doc 0's raster byte k is (k*17 + 23) % 256; channel sums
    # computed independently here
    import numpy as np

    k = np.arange(288)
    vals = (0 * 31 + k * 17 + 23) % 256
    assert got.loc[0, "sum_r"] == vals[0::3].sum()
    assert got.loc[0, "sum_g"] == vals[1::3].sum()
    assert got.loc[0, "sum_b"] == vals[2::3].sum()
    assert (got["width"] == 12).all() and (got["height"] == 8).all()
    # media types without a native codec still raise explicitly
    import pyarrow as pa_

    with pytest.raises(NotImplementedError):
        DecoderStub(fake=False)(pa_.table({
            "doc_id": [1], "payload": [b"x"], "media_type": ["image/png"],
            "payload_bytes": [1],
        }))


def test_ppm_decode_roundtrip_and_malformed():
    import numpy as np

    from sbo_ray.functions.multimodal import decode_ppm, make_ppm, synth_ppm

    px = np.arange(3 * 4 * 2) % 256
    data = make_ppm(4, 2, px)
    w, h, maxval, raster = decode_ppm(data)
    assert (w, h, maxval) == (4, 2, 255)
    assert (raster == px).all()
    # comment-tolerant header
    commented = b"P6\n# a comment\n4 2\n255\n" + px.astype("uint8").tobytes()
    assert decode_ppm(commented)[3].tolist() == px.tolist()
    # deterministic synth
    assert synth_ppm(7) == synth_ppm(7)
    with pytest.raises(ValueError):
        decode_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        decode_ppm(make_ppm(4, 2, px)[:-10])


def test_rp_sign_matrix_deterministic_and_balanced():
    """The ±1 projection matrix must be deterministic, reasonably
    balanced, and NOT the LCG low-bit alternating pattern (the trap the
    middle-bit sampling exists to dodge)."""
    import numpy as np

    from sbo_ray.pipelines.dp_emb import _rp_signs

    s = _rp_signs(64, 16)
    assert s.shape == (64, 16) and set(np.unique(s)) == {-1, 1}
    assert (s == _rp_signs(64, 16)).all()
    frac_pos = (s == 1).mean()
    assert 0.35 < frac_pos < 0.65
    flat = s.reshape(-1)
    # an alternating low-bit pattern would make every adjacent pair differ
    assert (flat[1:] == flat[:-1]).any()


def test_mean_pool_2x2_kernel():
    """Integer floor-mean pooling: known tiny case, odd-dim truncation,
    and mixed-dims batches through the ImageResizer actor body."""
    import numpy as np

    from sbo_ray.functions.multimodal import (
        ImageResizer, PPM_MEDIA_TYPE, make_ppm, mean_pool_2x2,
    )

    # 2x2 RGB image -> one output pixel = floor(mean of 4) per channel
    px = np.array([
        # (r, c) = (0,0) RGB   (0,1) RGB
        1, 10, 100,            2, 20, 200,
        # (1,0)                (1,1)
        3, 30, 44,             5, 41, 255,
    ], dtype=np.uint8)
    out = mean_pool_2x2(px[None, :], width=2, height=2)
    assert out.shape == (1, 1, 1, 3)
    assert out[0, 0, 0].tolist() == [(1 + 2 + 3 + 5) // 4,
                                     (10 + 20 + 30 + 41) // 4,
                                     (100 + 200 + 44 + 255) // 4]
    # odd trailing row/col truncated (5x3 -> 2x1 output)
    odd = (np.arange(3 * 5 * 3) % 256).astype(np.uint8)
    pooled = mean_pool_2x2(odd[None, :], width=5, height=3)
    assert pooled.shape == (1, 1, 2, 3)
    with pytest.raises(ValueError):
        mean_pool_2x2(odd[:9][None, :], width=3, height=1)

    # mixed dimensions in one batch group correctly
    small = np.full(3 * 2 * 2, 8, dtype=np.uint8)
    big = np.full(3 * 4 * 2, 100, dtype=np.uint8)
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "payload": pa.array(
            [make_ppm(2, 2, small), make_ppm(4, 2, big), make_ppm(2, 2, small)],
            type=pa.binary()),
        "media_type": pa.array([PPM_MEDIA_TYPE] * 3),
        "payload_bytes": pa.array([0, 0, 0], type=pa.int64()),
    })
    got = ImageResizer()(batch)
    assert got.column("out_width").to_pylist() == [1, 2, 1]
    assert got.column("out_height").to_pylist() == [1, 1, 1]
    assert got.column("sum_r").to_pylist() == [8, 200, 8]
    # non-PPM media raises (no codec in this container)
    bad = batch.set_column(2, "media_type", pa.array(["image/jpeg"] * 3))
    with pytest.raises(NotImplementedError):
        ImageResizer()(bad)


def test_multimodal_frame_sample_and_resize(ray_session):
    import pyarrow as pa

    from sbo_ray.functions.multimodal import (
        FRAME_BYTES, DecoderStub, frame_sample, resize_features, to_payload_table,
    )

    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["x" * 300, "y" * 10], type=pa.string()),
    })
    payload = to_payload_table(t)
    frames = frame_sample(payload, every_k=2)
    # doc 1: 300 bytes -> 5 frames -> sampled frames 0, 2, 4
    d1 = frames.filter(pa.compute.equal(frames["doc_id"], 1))
    assert d1.column("frame_no").to_pylist() == [0, 2, 4]
    assert len(d1.column("frame")[0].as_py()) == FRAME_BYTES
    # resize pools 16-dim features to 8
    feats = DecoderStub(fake=True)(payload)
    resized = resize_features(feats, out_dim=8)
    assert len(resized.column("features")[0].as_py()) == 8


def test_dedup_clusters_on_planted(ray_session, planted):
    from sbo_ray.functions.dedup import connected_components
    from sbo_ray.pipelines.dp_dedup import doc_dedup_clusters

    d, texts = planted
    got = doc_dedup_clusters(d, threshold=0.5).to_pandas()
    labels = dict(zip(got["doc_id"], got["cluster_id"]))
    assert labels[3] == labels[10] == 3   # exact dups cluster to min id
    assert labels[5] == labels[20] == 5
    # transitivity sanity on a synthetic chain
    cc = connected_components([(1, 2), (2, 3), (7, 8)])
    assert cc[1] == cc[2] == cc[3] == 1
    assert cc[7] == cc[8] == 7


def test_ann_ivf_recall_and_exactness(ray_session):
    from sbo_ray.pipelines.dp_emb import emb_ann_ivf, emb_similarity_topk

    exact_df = emb_similarity_topk(SF).to_pandas()
    # default settings: exact-equal (gated by the exact SQL oracle too)
    assert emb_ann_ivf(SF).to_pandas().equals(exact_df)
    # shallow probe: prunes most lists, still finds a good share on
    # isotropic (worst-case) data
    shallow = set(emb_ann_ivf(SF, nlist=32, nprobe=8).to_pandas()["vec_id"])
    assert len(shallow & set(exact_df["vec_id"])) >= 2


def test_ann_ivfpq_recall_and_exactness(ray_session):
    from sbo_ray.pipelines.dp_emb import emb_ann_ivfpq, emb_similarity_topk

    exact_df = emb_similarity_topk(SF).to_pandas()
    # default settings: the ADC shortlist + exact re-rank is exact-equal
    # (gated by the exact SQL oracle too)
    assert emb_ann_ivfpq(SF).to_pandas().equals(exact_df)
    # shallow settings (few probes, narrow shortlist) still recover a
    # good share on isotropic (worst-case) data
    shallow = set(emb_ann_ivfpq(SF, nlist=32, nprobe=8, shortlist=32)
                  .to_pandas()["vec_id"])
    assert len(shallow & set(exact_df["vec_id"])) >= 2


def test_sessionize_salted_equals_single_pass(ray_session):
    """The two-phase skew-safe sessionization must reproduce the
    single-pass result exactly, including sessions spanning bucket
    edges (hour buckets force many boundary merges)."""
    from sbo_ray.pipelines.dp_rel_events import (
        events_sessionize, events_sessionize_salted,
    )

    def norm(df):
        return df.reindex(sorted(df.columns), axis=1).sort_values(
            ["user_id", "session_start"]).reset_index(drop=True)

    plain = norm(events_sessionize(SF).to_pandas())
    for bucket in ("day", "hour"):
        salted = norm(events_sessionize_salted(SF, bucket=bucket).to_pandas())
        assert salted.equals(plain), bucket


def test_clusters_label_propagation_equals_union_find(ray_session, planted):
    from sbo_ray.pipelines.dp_dedup import (
        doc_dedup_clusters, doc_dedup_clusters_lp,
    )

    d, _ = planted
    uf = doc_dedup_clusters(d, threshold=0.5).to_pandas()
    lp = doc_dedup_clusters_lp(d, threshold=0.5).to_pandas()
    assert lp.sort_values("doc_id").reset_index(drop=True).equals(
        uf.sort_values("doc_id").reset_index(drop=True))


def test_ngram_jaccard_dedup_planted(ray_session, planted):
    from sbo_ray.functions.dedup import ngram_jaccard
    from sbo_ray.pipelines.dp_dedup import doc_dedup_ngram

    d, texts = planted
    got = doc_dedup_ngram(d, threshold=0.5).to_pandas()
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert (3, 10) in pairs   # exact dup -> jaccard 1.0
    for a, b in pairs:        # every reported pair really is >= threshold
        assert ngram_jaccard(texts[a], texts[b]) >= 0.5


def test_bmp_decode_roundtrip_and_malformed():
    import struct

    from sbo_ray.functions.multimodal import decode_bmp, make_bmp, synth_bmp

    # round-trip across all four padding values
    for d in range(24):
        w, h, bpp, pad, px = decode_bmp(synth_bmp(d))
        assert (w, h, bpp) == (7 + d % 6, 5 + d % 4, 24)
        assert pad == (4 - (w * 3) % 4) % 4
        k = np.arange(3 * w * h, dtype=np.int64)
        assert (px == (d * 53 + k * 17 + 3) % 256).all()
    # top-down variant (negative height) decodes to the same raster
    data = bytearray(synth_bmp(3))
    w, h, _, _, want = decode_bmp(bytes(data))
    struct.pack_into("<i", data, 22, -h)
    pad = (4 - (w * 3) % 4) % 4
    stride = w * 3 + pad
    rows = data[54:]
    flipped = b"".join(rows[(h - 1 - r) * stride:(h - r) * stride]
                       for r in range(h))
    top_down = bytes(data[:54]) + flipped
    assert (decode_bmp(top_down)[4] == want).all()
    # malformed inputs raise cleanly
    import pytest as _pytest
    with _pytest.raises(ValueError, match="signature"):
        decode_bmp(b"XX" + bytes(60))
    with _pytest.raises(ValueError, match="truncated BMP pixel"):
        decode_bmp(synth_bmp(1)[:-4])
    bad = bytearray(synth_bmp(2))
    struct.pack_into("<H", bad, 28, 32)  # 32 bpp unsupported
    with _pytest.raises(ValueError, match="bpp=32"):
        decode_bmp(bytes(bad))


def test_containment_catches_supersets_jaccard_misses(ray_session, tmp_path):
    """A doc fully contained in one ~10x its size has containment 1.0
    but Jaccard ~0.1 — the asymmetric metric's whole point. Also pins
    the contained-side rule and the exact-integer round-3."""
    import pyarrow.parquet as pq

    from sbo_ray.functions.dedup import char_ngrams
    from sbo_ray.pipelines.dp_dedup import (
        doc_dedup_containment, doc_dedup_ngram,
    )

    rng = np.random.RandomState(41)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    small = " ".join(rng.choice(vocab, 8))
    big = small + " " + " ".join(rng.choice(vocab, 80))
    other = " ".join(rng.choice(["xx", "yy", "zz", "ww"], 40))
    texts = [big, small, other]
    t = pa.table({"doc_id": pa.array(range(3), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    got = doc_dedup_containment(str(tmp_path), threshold=0.9).to_pandas()
    pairs = set(zip(got["id_contained"], got["id_container"]))
    assert (1, 0) in pairs  # small contained in big
    row = got[(got["id_contained"] == 1) & (got["id_container"] == 0)]
    sa, sb = char_ngrams(big, 5), char_ngrams(small, 5)
    c, d = len(sa & sb), min(len(sa), len(sb))
    assert float(row["containment"].iloc[0]) == \
        np.floor((c * 2000 + d) / (2.0 * d)) / 1000.0
    # symmetric Jaccard misses the same pair at the same threshold
    jac = doc_dedup_ngram(str(tmp_path), threshold=0.9).to_pandas()
    assert (0, 1) not in set(zip(jac["id_a"], jac["id_b"]))
    assert not any(got["id_contained"] == 2)


def test_wav_decode_roundtrip_and_malformed():
    import struct

    import numpy as np

    from sbo_ray.functions.multimodal import (
        AudioDecoder, decode_wav, make_wav, synth_wav,
    )

    s = (np.arange(10) * 1000 - 5000).astype(np.int16)
    sr, ch, got = decode_wav(make_wav(44100, s))
    assert (sr, ch) == (44100, 1) and (got == s).all()
    # stereo interleaved round-trips with the channel count preserved
    sr, ch, got = decode_wav(make_wav(16000, s, n_channels=2))
    assert (sr, ch) == (16000, 2) and (got == s).all()
    # chunk walker skips unknown chunks (incl. odd-size word padding)
    body = make_wav(8000, s)
    junk = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size -> pad
    padded = body[:12] + junk + body[12:]
    assert (decode_wav(padded)[2] == s).all()
    assert synth_wav(9) == synth_wav(9)
    with pytest.raises(ValueError):
        decode_wav(b"RIFX" + body[4:])
    with pytest.raises(ValueError):
        decode_wav(body[:-4])  # truncated data chunk
    with pytest.raises(ValueError):
        decode_wav(body[:12])  # no fmt/data chunks
    # non-PCM format code -> NotImplementedError (no codec libs here)
    mulaw = bytearray(body)
    struct.pack_into("<H", mulaw, 20, 7)
    with pytest.raises(NotImplementedError):
        decode_wav(bytes(mulaw))
    with pytest.raises(NotImplementedError):
        AudioDecoder()(pa.table({
            "doc_id": [1], "payload": [b"x"], "media_type": ["audio/mpeg"],
            "payload_bytes": [1],
        }))


def test_multimodal_audio_features_real_decode(ray_session):
    from sbo_ray.pipelines.dp_multimodal import multimodal_audio_features

    got = multimodal_audio_features(SF).to_pandas().set_index("doc_id")
    assert len(got) == 500
    # golden: doc 0's sample k is ((k*29 + 11) % 65536) - 32768, computed
    # independently here
    k = np.arange(256, dtype=np.int64)
    vals = ((0 * 37 + k * 29 + 11) % 65536) - 32768
    assert got.loc[0, "sum_amp"] == vals.sum()
    assert got.loc[0, "sum_abs_amp"] == np.abs(vals).sum()
    assert got.loc[0, "max_abs_amp"] == np.abs(vals).max()
    assert (got["sample_rate"] == 8000).all()
    assert (got["n_samples"] == 256).all()


def test_label_prop_pointer_doubling(ray_session):
    """A 64-node path graph has diameter 63: plain neighbor propagation
    needs ~63 rounds, pointer doubling must converge in O(log n). Also
    checks the labels equal the component min everywhere on a graph with
    two components."""
    import ray

    from sbo_ray.pipelines.dp_dedup import _label_prop

    # path 0-1-...-63 plus a disjoint triangle 100-101-102
    a = list(range(63)) + [100, 101]
    b = list(range(1, 64)) + [101, 102]
    pairs = pa.table({"id_a": pa.array(a, type=pa.int64()),
                      "id_b": pa.array(b, type=pa.int64())})
    out, rounds = _label_prop([ray.put(pairs)], 2, max_rounds=15)
    got = dict(zip(out.column("u").to_pylist(), out.column("label").to_pylist()))
    assert all(got[i] == 0 for i in range(64))
    assert all(got[i] == 100 for i in (100, 101, 102))
    assert rounds <= 10, f"pointer doubling should need ~log2(63) rounds, took {rounds}"


def test_label_prop_many_partitions(ray_session):
    """Pin the raw-task shuffle's cross-partition routing at high P:
    with P=7 every round fans offers (and, past round 2, shortcut
    shards) across 7x7 ref routes, and node/edge partitions are sparse.
    Same fixpoint as P=2 on a deep path + disjoint star + isolated
    pair, and still O(log diameter) rounds."""
    import ray

    from sbo_ray.pipelines.dp_dedup import _label_prop

    # path 0..40, star centered at 500 with leaves 501..520, pair (900, 901)
    a = list(range(40)) + [500] * 20 + [900]
    b = list(range(1, 41)) + list(range(501, 521)) + [901]
    pairs = pa.table({"id_a": pa.array(a, type=pa.int64()),
                      "id_b": pa.array(b, type=pa.int64())})
    out, rounds = _label_prop([ray.put(pairs)], 7, max_rounds=15)
    got = dict(zip(out.column("u").to_pylist(), out.column("label").to_pylist()))
    assert all(got[i] == 0 for i in range(41))
    assert all(got[i] == 500 for i in range(500, 521))
    assert got[900] == 900 and got[901] == 900
    assert rounds <= 9, f"took {rounds}"
    ref, _ = _label_prop([ray.put(pairs)], 2, max_rounds=15)
    assert ref.equals(out)


def test_exact_dedup_single_hot_key(ray_session, tmp_path):
    """Worst case for the partition-grouped rep-pick: EVERY doc is the
    same text, so one hash partition receives the whole corpus and the
    per-partition kernel must still emit exactly one representative
    with the full duplicate count (min doc_id wins)."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import doc_dedup_exact

    n = 5000
    t = pa.table({
        "doc_id": pa.array(range(100, 100 + n), type=pa.int64()),
        "text": pa.array(["same text for everyone"] * n, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_dedup_exact(str(tmp_path)).to_pandas()
    assert len(got) == 1
    assert got.loc[0, "doc_id"] == 100
    assert got.loc[0, "n_dupes"] == n


def test_decontaminate_ngram_planted(ray_session, tmp_path):
    """Pin the n-gram overlap semantics: a PARTIAL phrase inclusion
    (3 of 4 words) must flag where the substring scan would not; a
    repeated gram counts per position; a doc ending with the first
    words of a blocklist phrase must NOT match across the doc boundary
    into the next doc's words; short docs (<3 words) never match."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import doc_decontaminate_ngram

    texts = [
        "intro table value part ending",          # gram 'table value part'
        "table value part hash table value part", # 2 positions hit
        "clean words only here",                  # no hit
        "ends with table value",                  # boundary: next doc
        "part hash something",                    # starts with rest
        "xy",                                     # <3 words
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_decontaminate_ngram(str(tmp_path)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert got["n_hits"].tolist() == [1, 3, 0, 0, 0, 0]
    assert got["contaminated"].tolist() == [1, 1, 0, 0, 0, 0]


def test_pack_sequences_planted(ray_session, tmp_path):
    """Pin the distributed prefix sum on hand-built token counts:
    tok_offset must equal the exclusive cumsum in doc_id order, a doc
    straddling a sequence boundary must span seq_first < seq_last, and
    chunk_docs=4 forces multiple chunks so the broadcast chunk bases
    and within-chunk cumsums both participate."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_pack_sequences

    counts = [3, 5, 4, 2, 7, 1, 6, 3, 2, 9]
    texts = [" ".join(f"w{i}" for i in range(c)) for c in counts]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_pack_sequences(
        str(tmp_path), seq_len=8, chunk_docs=4).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
    assert got["tok_offset"].tolist() == offs.tolist()
    assert got["n_tokens"].tolist() == counts
    assert got["seq_first"].tolist() == (offs // 8).tolist()
    last = (offs + np.array(counts) - 1) // 8
    assert got["seq_last"].tolist() == last.tolist()
    # doc 2 (offset 8? no: offsets are 0,3,8,12,14,21,22,28,31,33):
    # doc 4 spans tokens 14..20 -> sequences 1..2 (a straddler exists)
    assert (got["seq_last"] > got["seq_first"]).any()


def test_pack_materialize_reconstructs(ray_session, tmp_path):
    """The packed fragments must tile the corpus exactly: per doc,
    joining its fragments (seq order) with ' ' reproduces the original
    text byte-for-byte (including double spaces -> empty tokens), and
    per sequence the fragment sizes sum to seq_len except the last.
    chunk_docs=3 + seq_len=8 force both chunk bases and straddling."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_pack_materialize

    texts = ["a bb  ccc", "dd e", "f g h i j k", "", "xx yy zz qq rr",
             "m n o p q r s t u v w", "z"]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_pack_materialize(
        str(tmp_path), seq_len=8, chunk_docs=3).to_pandas().sort_values(
        ["doc_id", "seq_id"]).reset_index(drop=True)
    for i, text in enumerate(texts):
        frags = got[got["doc_id"] == i]
        assert " ".join(frags["frag_text"]) == text
        assert frags["n_frag_tokens"].sum() == len(text.split(" "))
    # every sequence except the last is exactly full
    per_seq = got.groupby("seq_id")["n_frag_tokens"].sum()
    assert (per_seq.iloc[:-1] == 8).all()


def test_pii_and_repetition_function_edges():
    from sbo_ray.functions.text import pii_redact, repetition_stats, vocab_partial

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], type=pa.int64()),
        "text": [
            "a@b.co and c.d@e-f.org plus 1.2.3.4 or 255.255.255.255",
            "",                       # splits to one empty token
            "w w w",                  # all-duplicate tokens
        ],
    })
    p = pii_redact(t)
    assert p.column("n_emails").to_pylist() == [2, 0, 0]
    assert p.column("n_ips").to_pylist() == [2, 0, 0]
    assert p.column("text_redacted").to_pylist()[0] == \
        "<EMAIL> and <EMAIL> plus <IP> or <IP>"
    r = repetition_stats(t)
    assert r.column("n_tokens").to_pylist()[1] == 1      # [''] has one token
    assert r.column("top_bigram_count").to_pylist() == [1, 0, 2]
    assert r.column("n_distinct_tokens").to_pylist()[2] == 1
    v = vocab_partial(t)
    d = dict(zip(v.column("token").to_pylist(), v.column("n").to_pylist()))
    assert d["w"] == 3 and d[""] == 1


def test_gopher_stats_edges_and_gates():
    """Edge semantics the sf tables never exercise: newline-split lines,
    bullet/ellipsis line rules, '#'/'...' symbol counting, empty text,
    and each gate firing in integer arithmetic. A synthetic 60-word doc
    passes all rules; variants each violate exactly one."""
    from sbo_ray.functions.text import gopher_stats

    good = " ".join(["the"] + ["word"] * 59)           # 60 words, mean 4.0
    texts = [
        good,                                          # keep
        "",                                            # too few words
        " ".join(["the"] + ["word"] * 59) + " ###" * 9,  # 69 words, 27 syms
        "- the bullet\n- and bullet\nthe plain " + "word " * 57,  # 2/3 bullets ok
        "a...\nb...\nthe plain " + "word " * 57,       # 2/3 ellipsis lines > 30%
        " ".join(["word"] * 60),                       # no stopwords
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": texts})
    g = gopher_stats(t)
    assert g.column("n_words").to_pylist()[0] == 60
    assert g.column("sum_word_len").to_pylist()[0] == 3 + 59 * 4
    assert g.column("n_stop_gopher").to_pylist()[0] == 1  # 'the' once...
    # ...so the good doc needs a second stopword to pass rule 7
    texts[0] = "the and " + " ".join(["word"] * 58)
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": texts})
    g = gopher_stats(t).to_pandas().set_index("doc_id")
    assert g.loc[0, "keep"] == 1
    assert g.loc[1, "keep"] == 0 and g.loc[1, "n_words"] == 1
    assert g.loc[2, "n_sym"] == 9 * 3 and g.loc[2, "keep"] == 0
    assert g.loc[3, "n_lines"] == 3 and g.loc[3, "n_bullet_lines"] == 2
    assert g.loc[3, "keep"] == 1                       # 66% bullets <= 90%
    assert g.loc[4, "n_ellipsis_lines"] == 2 and g.loc[4, "keep"] == 0
    assert g.loc[5, "n_stop_gopher"] == 0 and g.loc[5, "keep"] == 0


def test_reservoir_bottomk_merge_invariant(ray_session):
    """The reservoir is partitioning-invariant: merging per-slice
    bottom-k partials gives the same k rows as one global pass (the
    monoid property the distributed shape relies on), and the result
    equals the brute-force (key, doc_id) order head."""
    import hashlib

    from sbo_ray.pipelines.dp_dedup import doc_sample_reservoir

    res = doc_sample_reservoir("/root/testdata/sf0.001", k=25).to_pandas()
    assert len(res) == 25
    t = pa.parquet.read_table("/root/testdata/sf0.001/documents.parquet",
                              columns=["doc_id", "text"])
    keys = np.array([
        int.from_bytes(hashlib.md5(f"{i}:{s}".encode()).digest()[:8],
                       "big") >> 1
        for i, s in zip(t.column("doc_id").to_pylist(),
                        t.column("text").to_pylist())], dtype=np.int64)
    ids = np.asarray(t.column("doc_id"))
    want = ids[np.lexsort((ids, keys))[:25]]
    assert list(res["doc_id"]) == list(want)
    # merge of per-slice bottom-k == global bottom-k
    parts = []
    for lo in range(0, len(ids), 97):
        sl = slice(lo, lo + 97)
        sel = np.lexsort((ids[sl], keys[sl]))[:25]
        parts.append((ids[sl][sel], keys[sl][sel]))
    mi = np.concatenate([p[0] for p in parts])
    mk = np.concatenate([p[1] for p in parts])
    assert list(mi[np.lexsort((mi, mk))[:25]]) == list(want)


def test_chunk_docs_reconstructs_text():
    """Joining each doc's chunks with ' ' must reproduce the original
    text byte-for-byte (the chunker is a zero-copy reslice), including
    consecutive-space runs and texts shorter than one chunk."""
    from sbo_ray.functions.text import chunk_docs

    texts = ["a b c d e f g", "x  y", "", "one", "t " * 40]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": texts})
    out = chunk_docs(t, chunk_tokens=3).to_pandas()
    for i, txt in enumerate(texts):
        sub = out[out["doc_id"] == i].sort_values("chunk_no")
        assert " ".join(sub["chunk_text"]) == txt, repr(txt)
        assert (sub["n_chunk_tokens"] <= 3).all()


def test_window_join_boundaries(ray_session, tmp_path):
    """Half-open [p.ts - 1h, p.ts) boundary cases: a view exactly 1h
    before IS counted, a view exactly AT the purchase ts is NOT, empty
    windows give (0, 0.0), and users never cross-match."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import events_window_join

    ts = pd.to_datetime([
        "2024-01-01 09:00:00",  # u1 view exactly 1h before -> counted
        "2024-01-01 09:30:00",  # u1 view inside -> counted
        "2024-01-01 10:00:00",  # u1 view AT purchase ts -> excluded
        "2024-01-01 10:00:00",  # u1 purchase: n=2, sum=1.0+2.0
        "2024-01-01 08:00:00",  # u2 view far away
        "2024-01-01 12:00:00",  # u2 purchase: empty window
    ])
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([1, 1, 1, 1, 2, 2], type=pa.int64()),
        "event_type": ["view", "view", "view", "purchase", "view",
                       "purchase"],
        "value": pa.array([1.0, 2.0, 4.0, 0.0, 8.0, 0.0]),
        "props": ['{"k": 1}'] * 6,
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = events_window_join(str(tmp_path)).to_pandas().set_index("event_id")
    assert got.loc[4, "n_right"] == 2 and got.loc[4, "sum_right_value"] == 3.0
    assert got.loc[6, "n_right"] == 0 and got.loc[6, "sum_right_value"] == 0.0


def test_asof_join_tie_rules(ray_session, tmp_path):
    """Planted as-of corner cases: a view at the SAME timestamp as a
    purchase must match (SQL's v.ts <= p.ts), two views at the same
    (user, ts) resolve to the max event_id, a purchase before any view
    gets -1, and users never cross-match."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import events_asof_join

    ts = pd.to_datetime([
        "2024-01-01 10:00:00",  # u1 purchase before any view -> -1
        "2024-01-01 11:00:00",  # u1 view (eid 11)
        "2024-01-01 11:00:00",  # u1 view same ts (eid 12) -> max wins
        "2024-01-01 11:00:00",  # u1 purchase AT the view ts -> matches 12
        "2024-01-01 12:00:00",  # u1 purchase -> matches 12
        "2024-01-01 09:00:00",  # u2 view
        "2024-01-01 13:00:00",  # u2 purchase -> matches u2's view only
    ])
    t = pa.table({
        "event_id": pa.array([10, 11, 12, 13, 14, 20, 21], type=pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([1, 1, 1, 1, 1, 2, 2], type=pa.int64()),
        "event_type": ["purchase", "view", "view", "purchase", "purchase",
                       "view", "purchase"],
        "value": pa.array([0.0] * 7),
        "props": ['{"k": 1}'] * 7,
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = events_asof_join(str(tmp_path)).to_pandas().set_index("event_id")
    assert got.loc[10, "matched_event_id"] == -1 and got.loc[10, "gap_us"] == -1
    assert got.loc[13, "matched_event_id"] == 12 and got.loc[13, "gap_us"] == 0
    assert got.loc[14, "matched_event_id"] == 12
    assert got.loc[14, "gap_us"] == 3600 * 1_000_000
    assert got.loc[21, "matched_event_id"] == 20


def test_funnel_endpoint_and_order_rules(ray_session, tmp_path):
    """Planted funnel corner cases: a click AT the first-view timestamp
    counts (>= endpoint), a click BEFORE the first view does not, stage
    3 gates on stage 2's time (not stage 1's), and a user with no view
    stays at stage 0 even with clicks and purchases."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import events_funnel

    ts = pd.to_datetime([
        # u1: click at the exact view ts -> stage 2; purchase after -> 3
        "2024-01-01 10:00:00", "2024-01-01 10:00:00", "2024-01-01 11:00:00",
        # u2: click strictly before the view -> stuck at stage 1, and the
        # purchase (after the view but with no gated click) doesn't count
        "2024-01-01 09:00:00", "2024-01-01 10:00:00", "2024-01-01 11:00:00",
        # u3: no view at all -> stage 0
        "2024-01-01 08:00:00", "2024-01-01 09:00:00",
    ])
    t = pa.table({
        "event_id": pa.array(list(range(1, 9)), type=pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([1, 1, 1, 2, 2, 2, 3, 3], type=pa.int64()),
        "event_type": ["view", "click", "purchase",
                       "click", "view", "purchase",
                       "click", "purchase"],
        "value": pa.array([0.0] * 8),
        "props": ['{"k": 1}'] * 8,
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = events_funnel(str(tmp_path)).to_pandas().set_index("user_id")
    assert got.loc[1, "max_stage"] == 3
    assert got.loc[1, "t_stage1_us"] == got.loc[1, "t_stage2_us"]
    assert got.loc[2, "max_stage"] == 1
    assert got.loc[2, "t_stage2_us"] == -1 and got.loc[2, "t_stage3_us"] == -1
    assert got.loc[3, "max_stage"] == 0 and got.loc[3, "t_stage1_us"] == -1


def test_tfidf_mathematical_tie_breaks_on_token(ray_session, tmp_path):
    """Planted score tie across DIFFERENT (tf, df) pairs: with N=100
    docs, a tf=2 token with df=10 scores 2*ln(10) and a tf=1 token with
    df=1 scores ln(100) — mathematically equal. Both engines round to
    the same 1e-6 value, so the tie must break on token ASC on both
    sides (the exact hazard the rounded-rank rule exists for)."""
    import duckdb
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import doc_tfidf
    from sbo_ray.pipelines.dataqueries import SQL_DOC_TFIDF

    # doc 0: 'bbb' twice (df 10 with the 9 fillers) + unique 'aaa' (df 1)
    texts = ["bbb bbb aaa"] + ["bbb"] * 9 + ["zz"] * 90
    t = pa.table({
        "doc_id": pa.array(range(100), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 100),
        "source": pa.array(["s"] * 100),
        "n_chars": pa.array([len(x) for x in texts], type=pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_tfidf(str(tmp_path)).to_pandas()
    d0 = got[got.doc_id == 0].sort_values("rnk")
    # tie at 4.60517: 'aaa' (ln 100) beats 'bbb' (2 ln 10) on token ASC
    assert list(d0.token) == ["aaa", "bbb"]
    assert abs(d0.score.iloc[0] - d0.score.iloc[1]) < 1e-9
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(SQL_DOC_TFIDF).df()
    w0 = want[want.doc_id == 0].sort_values("rnk")
    assert list(d0.token) == list(w0.token)
    assert list(d0.rnk) == list(w0.rnk)


def test_knn_join_planted_neighbors(ray_session, tmp_path):
    """Planted geometry: vectors 7 and 23 are identical, so each must be
    the other's rank-1 neighbor at cos 1.0; every vector gets exactly k
    neighbors; rnk is 1..k with (cos desc, neighbor asc) ordering."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import emb_knn_join

    rng = np.random.RandomState(11)
    m = rng.randn(40, 16).astype(np.float32)
    m[23] = m[7]
    t = pa.table({
        "vec_id": pa.array(range(40), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * 40, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_knn_join(str(tmp_path), k=5).to_pandas()
    assert len(got) == 40 * 5
    assert got.groupby("vec_id")["rnk"].apply(
        lambda r: sorted(r) == [1, 2, 3, 4, 5]).all()
    top7 = got[(got.vec_id == 7) & (got.rnk == 1)].iloc[0]
    top23 = got[(got.vec_id == 23) & (got.rnk == 1)].iloc[0]
    assert top7.neighbor_id == 23 and top7.cos == 1.0
    assert top23.neighbor_id == 7 and top23.cos == 1.0


def test_retention_cohort_and_offsets(ray_session, tmp_path):
    """Planted cohort geometry: u1 first active day 1 and again days 2
    and 4 (offsets 0,1,3); u2 first active day 2 only (offset 0); two
    events on the same (user, day) count once. Cohort day-1 has one
    user at each of its offsets, day-2 cohort has one user at offset
    0."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import events_retention

    ts = pd.to_datetime([
        "2024-01-01 09:00:00", "2024-01-01 17:30:00",  # u1 day1 twice
        "2024-01-02 08:00:00", "2024-01-04 23:59:59",  # u1 days 2, 4
        "2024-01-02 12:00:00",                          # u2 day2
    ])
    t = pa.table({
        "event_id": pa.array(range(5), type=pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([1, 1, 1, 1, 2], type=pa.int64()),
        "event_type": ["view"] * 5,
        "value": pa.array([0.0] * 5),
        "props": ['{"k": 1}'] * 5,
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = events_retention(str(tmp_path)).to_pandas()
    got["cohort_day"] = got["cohort_day"].astype(str)
    rows = {(r.cohort_day[:10], r.offset_days): r.n_users
            for r in got.itertuples()}
    assert rows == {("2024-01-01", 0): 1, ("2024-01-01", 1): 1,
                    ("2024-01-01", 3): 1, ("2024-01-02", 0): 1}


def test_curation_no_driver_gather(ray_session, tmp_path):
    """The flagship curation op must never hold a corpus-sized object on
    the driver (the r3 shape gathered + broadcast every representative
    doc_id). Pin the rewrite structurally — no driver gather/broadcast
    in the function body — and semantically on a no-dup corpus where
    representatives == the whole gate-passing corpus (worst case for
    any rep-id materialization)."""
    import inspect

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_curation_pipeline

    src = inspect.getsource(doc_curation_pipeline)
    for pattern in ("ray.put", "iter_batches", "to_pandas", "take_all",
                    "materialize"):
        assert pattern not in src, f"driver gather reintroduced: {pattern}"

    # no-dup corpus: every text unique, all English-looking, lengths
    # straddling the token gate
    n = 4000
    texts = [
        "the quick brown fox jumps over the lazy dog number %d with "
        "some more of the usual english filler words and that is it" % i
        for i in range(n)
    ]
    texts[0] = "tiny"  # fails min_tokens
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_curation_pipeline(str(tmp_path), min_tokens=10,
                                max_tokens=10_000).to_pandas()
    assert sorted(got["doc_id"]) == list(range(1, n))


def test_clusters_lp_no_driver_pair_bytes(ray_session, tmp_path, monkeypatch):
    """The lp path must be driver-free end to end: 300 identical docs
    produce C(300,2) = 44,850 candidate pairs (~700 KB as an int64
    array) and the driver must never ray.put anything that large —
    candidates assemble, the slot map builds and the edge shards split
    all in REMOTE tasks (their returns go to the object store without a
    driver copy). The UF twin keeps its documented driver pair list."""
    import pyarrow.parquet as pq
    import ray as ray_mod

    from sbo_ray.pipelines.dp_dedup import doc_dedup_clusters_lp

    n_dup = 300
    text = " ".join(f"tok{i % 23}" for i in range(90))
    texts = [text] * n_dup + [
        f"unique doc {i} " + " ".join(f"w{i}{j}" for j in range(30))
        for i in range(20)
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    put_sizes = []
    real_put = ray_mod.put

    def spy_put(obj, **kw):
        size = 0
        for a in (obj if isinstance(obj, tuple) else (obj,)):
            if isinstance(a, np.ndarray):
                size += a.nbytes
        put_sizes.append(size)
        return real_put(obj, **kw)

    monkeypatch.setattr(ray_mod, "put", spy_put)
    got = doc_dedup_clusters_lp(str(tmp_path), threshold=0.8).to_pandas()
    monkeypatch.setattr(ray_mod, "put", real_put)

    labels = dict(zip(got["doc_id"], got["cluster_id"]))
    assert len(labels) == n_dup
    assert all(labels[i] == 0 for i in range(n_dup))
    big = [s for s in put_sizes if s > 64 * 1024]
    assert not big, f"driver ray.put carried pair-sized arrays: {big}"


def test_dedup_substring_planted(ray_session, tmp_path):
    """Pin the substring-dedup window semantics: two docs sharing one
    verbatim k-token passage count each of its k-window POSITIONS; a
    window repeated twice inside one doc counts both positions (when
    the gram is shared across docs); a doc-internal-only repeat does
    NOT count (distinct-doc threshold); windows never cross doc
    boundaries; docs shorter than k emit nothing."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import doc_dedup_substring

    k = 4
    passage = "alpha beta gamma delta epsilon"        # 5 words -> 2 windows of 4
    texts = [
        f"intro words here {passage} closing words",   # doc 0: shares passage
        f"{passage} and then something entirely else", # doc 1: shares passage
        "only unique words appear in this document",   # doc 2: clean
        "rep rep rep rep rep rep rep",                 # doc 3: internal repeat only
        "tiny doc",                                    # doc 4: < k tokens
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_dedup_substring(str(tmp_path), k=k).to_pandas()
    m = dict(zip(got["doc_id"], got["n_dup_windows"]))
    # shared grams: the 2 windows inside the passage ("alpha beta gamma
    # delta", "beta gamma delta epsilon") — each occurs at one position
    # in each doc; surrounding windows differ between the docs
    assert m == {0: 2, 1: 2}


def test_semdedup_planted_and_sound(ray_session, tmp_path):
    """SemDeDup semantics: identical vectors always co-cluster
    (deterministic assignment), so each planted duplicate group loses
    every member except its min vec_id, with rep_id == that min; clean
    vectors are never dropped (soundness vs the exact brute force: a
    dropped vector must have SOME corpus neighbor above threshold)."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_semdedup

    rng = np.random.RandomState(5)
    n, d = 120, 16
    m = rng.randn(n, d).astype(np.float32)
    # two duplicate groups: {10, 40, 41} identical, {77, 99} identical
    m[40] = m[10]
    m[41] = m[10]
    m[99] = m[77]
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_semdedup(str(tmp_path), nlist=8, threshold=0.999,
                       sample_stride=3).to_pandas()
    reps = dict(zip(got["vec_id"], got["rep_id"]))
    assert reps == {40: 10, 41: 10, 99: 77}

    # soundness at a looser threshold: every dropped vector has a true
    # above-threshold neighbor in the exact all-pairs brute force
    thr = 0.8
    got2 = emb_semdedup(str(tmp_path), nlist=8, threshold=thr,
                        sample_stride=3).to_pandas()
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    cos = mn @ mn.T
    np.fill_diagonal(cos, -2.0)
    has_neighbor = (cos >= thr - 1e-6).any(axis=1)
    assert got2["vec_id"].map(lambda v: bool(has_neighbor[v])).all()
    # exact dups still dropped at the looser threshold
    assert {40, 41, 99} <= set(got2["vec_id"])


def test_dedup_near_keep_complement(ray_session, tmp_path):
    """doc_dedup_near_keep == all doc_ids minus non-representative
    cluster members, on a corpus with one 4-doc near-dup cluster."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import (
        doc_dedup_clusters_lp, doc_dedup_near_keep,
    )

    base = " ".join(f"tok{i % 13}" for i in range(60))
    texts = [base, base, base + " tail", base]  # docs 0-3 cluster
    texts += [f"standalone document {i} " + " ".join(
        f"w{i}{j}" for j in range(25)) for i in range(12)]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    kept = sorted(doc_dedup_near_keep(str(tmp_path)).to_pandas()["doc_id"])
    cl = doc_dedup_clusters_lp(str(tmp_path)).to_pandas()
    dropped = set(cl[cl.doc_id != cl.cluster_id]["doc_id"])
    assert dropped  # the planted cluster must actually cluster
    assert kept == sorted(set(range(len(texts))) - dropped)
    assert 0 in kept  # representative survives


def test_kmeans_matches_numpy_reference(ray_session, tmp_path):
    """Distributed Lloyd == a numpy reference running the identical
    algorithm (same strided seed pass, same spherical update) on
    planted well-separated clusters; member counts recover the plant."""
    import pyarrow.parquet as pq

    from sbo_ray.functions.similarity import ivf_centroids
    from sbo_ray.functions.dedup import normalize_rows
    from sbo_ray.pipelines.dp_emb import emb_kmeans

    rng = np.random.RandomState(9)
    base = rng.randn(3, 16).astype(np.float64) * 10
    sizes = [50, 30, 20]
    m = np.concatenate([
        base[i] + rng.randn(s, 16) * 0.05 for i, s in enumerate(sizes)
    ]).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(100), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * 100, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_kmeans(str(tmp_path), k=3, iters=4, sample_stride=5).to_pandas()
    assert int(got["n_members"].sum()) == 100

    # numpy reference: identical seed pass + 4 spherical Lloyd rounds
    sample = m[np.arange(100) % 5 == 0]
    cent = ivf_centroids(sample, 3, iters=1)
    mn = normalize_rows(m).astype(np.float64)
    for _ in range(4):
        asg = np.argmax(mn @ cent.T, axis=1)
        new = cent.copy()
        for c in range(3):
            mem = mn[asg == c]
            if len(mem):
                new[c] = mem.mean(axis=0)
        norms = np.linalg.norm(new, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cent = new / norms
    want = {c: int((np.argmax(mn @ cent.T, axis=1) == c).sum())
            for c in range(3)}
    got_map = dict(zip(got["cluster"], got["n_members"]))
    assert got_map == want
    eng_cent = np.stack(got.sort_values("cluster")["centroid"].map(np.asarray))
    assert np.allclose(eng_cent, cent, atol=1e-9)


def test_quantize_sq8_matches_numpy_reference(ray_session, tmp_path):
    """SQ8 codes equal the numpy reference exactly: global per-dim
    min/max, floor((x-mn)/(mx-mn)*256) clamped to [0,255]; the per-dim
    max encodes 255, the min 0, and a constant dimension encodes 0."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_quantize_sq8

    rng = np.random.RandomState(11)
    n, d = 200, 12
    m = rng.randn(n, d).astype(np.float32)
    m[:, 7] = 1.25  # constant dimension -> all-zero codes
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_quantize_sq8(str(tmp_path)).to_pandas()
    got = got.sort_values("vec_id").reset_index(drop=True)
    codes = np.stack(got["codes"].map(np.asarray))

    x = m.astype(np.float64)
    mn, mx = x.min(axis=0), x.max(axis=0)
    rngs = mx - mn
    live = rngs > 0
    want = np.clip(np.floor((x - mn) / np.where(live, rngs, 1.0) * 256.0),
                   0.0, 255.0).astype(np.int64)
    want[:, ~live] = 0
    assert (codes == want).all()
    assert codes.min() >= 0 and codes.max() <= 255
    for j in range(d):
        if not live[j]:
            assert (codes[:, j] == 0).all()
            continue
        assert codes[x[:, j].argmax(), j] == 255
        assert codes[x[:, j].argmin(), j] == 0


def test_ann_sq8_matches_numpy_reference(ray_session, tmp_path):
    """Asymmetric SQ8 top-k equals a numpy mirror (codes -> midpoint
    reconstruct -> cosine -> round3/id ordering), and on well-separated
    clusters the quantized top-1 agrees with full-precision top-1."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_ann_sq8

    rng = np.random.RandomState(3)
    n, d = 300, 16
    centers = rng.randn(3, d) * 6
    m = (centers[np.arange(n) % 3] + rng.randn(n, d)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_ann_sq8(str(tmp_path), k=10).to_pandas()

    x = m.astype(np.float64)
    mn, mx = x.min(axis=0), x.max(axis=0)
    rngs = mx - mn
    live = rngs > 0
    codes = np.clip(np.floor((x - mn) / np.where(live, rngs, 1.0) * 256.0),
                    0.0, 255.0)
    codes[:, ~live] = 0.0
    xh = mn + (codes + 0.5) * (rngs / 256.0)
    q = x[0] / np.linalg.norm(x[0])
    sims = (xh / np.linalg.norm(xh, axis=1, keepdims=True)) @ q
    ids = np.arange(1, n)  # exclude the query row
    r = np.round(sims[1:], 3)
    order = np.lexsort((ids, -r))[:10]
    assert list(got["vec_id"]) == list(ids[order])
    assert np.allclose(got["cos"], r[order])
    # recall property: quantized winner is the full-precision winner
    full = (x / np.linalg.norm(x, axis=1, keepdims=True)) @ q
    assert got["vec_id"].iloc[0] == int(np.argmax(full[1:]) + 1)


def _pq_numpy_reference(m: np.ndarray, M: int = 8, ksub: int = 16):
    """Mirror of the PQ contract: strided codebook (first ksub vec_id
    multiples of n // ksub), per-subspace argmin under the
    (floor(d2*1e6), code) composite key."""
    n, d = m.shape
    x = m.astype(np.float64)
    stride = max(1, n // ksub)
    cb_ids = np.arange(n)[np.arange(n) % stride == 0][:ksub]
    cb = x[cb_ids]
    dsub = d // M
    codes = np.empty((n, M), dtype=np.int64)
    for mi in range(M):
        d2 = ((x[:, None, mi * dsub:(mi + 1) * dsub]
               - cb[None, :, mi * dsub:(mi + 1) * dsub]) ** 2).sum(axis=2)
        key = (np.floor(d2 * 1e6).astype(np.int64) * 64
               + np.arange(ksub, dtype=np.int64))
        codes[:, mi] = key.argmin(axis=1)
    return cb, codes


def test_pq_codes_matches_numpy_reference(ray_session, tmp_path):
    """PQ codes equal the numpy mirror exactly, and every codebook row
    encodes to its own code in every subspace (self-distance is exact
    zero, the smallest possible composite key for that row)."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_pq_codes

    rng = np.random.RandomState(7)
    n, d = 300, 16
    m = rng.randn(n, d).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_pq_codes(str(tmp_path)).to_pandas()
    got = got.sort_values("vec_id").reset_index(drop=True)
    codes = np.stack(got["codes"].map(np.asarray))

    _, want = _pq_numpy_reference(m)
    assert (codes == want).all()
    assert codes.min() >= 0 and codes.max() <= 15
    stride = n // 16
    cb_ids = np.arange(n)[np.arange(n) % stride == 0][:16]
    for c, vid in enumerate(cb_ids):
        assert (codes[vid] == c).all()


def test_ann_pq_matches_numpy_reference(ray_session, tmp_path):
    """ADC top-k equals the numpy mirror (codes -> LUT sum ->
    (round6, id) ascending ordering), and on well-separated clusters
    the PQ winner lies in the query's cluster."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_ann_pq

    rng = np.random.RandomState(5)
    n, d = 300, 16
    centers = rng.randn(3, d) * 8
    m = (centers[np.arange(n) % 3] + rng.randn(n, d)).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_ann_pq(str(tmp_path), k=10).to_pandas()

    cb, codes = _pq_numpy_reference(m)
    x = m.astype(np.float64)
    M, dsub = 8, d // 8
    lut = np.empty((M, cb.shape[0]))
    for mi in range(M):
        diff = x[0, mi * dsub:(mi + 1) * dsub] \
            - cb[:, mi * dsub:(mi + 1) * dsub]
        lut[mi] = (diff ** 2).sum(axis=1)
    adc = lut[np.arange(M), codes].sum(axis=1)
    ids = np.arange(1, n)  # exclude the query row
    r = np.round(adc[1:], 6)
    order = np.lexsort((ids, r))[:10]
    assert list(got["vec_id"]) == list(ids[order])
    assert np.allclose(got["adc"], r[order])
    # the nearest ADC neighbors share the query's planted cluster
    assert all(v % 3 == 0 for v in got["vec_id"][:3])


def test_pq_error_matches_numpy_and_beats_random(ray_session, tmp_path):
    """Per-subspace PQ MSE equals the numpy mirror and is strictly
    below the variance of a random-assignment baseline (the quantizer
    actually quantizes)."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_pq_error

    rng = np.random.RandomState(31)
    n, d = 300, 16
    m = rng.randn(n, d).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_pq_error(str(tmp_path)).to_pandas()

    cb, codes = _pq_numpy_reference(m)
    x = m.astype(np.float64)
    M, dsub = 8, d // 8
    for mi in range(M):
        diff = x[:, mi * dsub:(mi + 1) * dsub] \
            - cb[codes[:, mi], mi * dsub:(mi + 1) * dsub]
        want = round(float((diff ** 2).sum() / n), 6)
        assert abs(got["mse"][mi] - want) < 2e-6, mi
    # nearest-entry assignment beats assigning everyone to entry 0
    base = ((x[:, :dsub] - cb[0, :dsub]) ** 2).sum() / n
    assert got["mse"][0] < base


def test_compression_ratio_reference_and_ordering(ray_session, tmp_path):
    """Ratios equal direct zlib, and repetitive text compresses far
    below high-entropy text (the heuristic's point)."""
    import zlib

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import doc_compression_ratio

    rng = np.random.RandomState(37)
    rep = "spam ham " * 200
    rand = "".join(chr(33 + rng.randint(90)) for _ in range(1600))
    texts = [rep, rand, "", "short"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = pa.concat_tables(
        doc_compression_ratio(str(tmp_path)).iter_batches(
            batch_format="pyarrow", batch_size=None)).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    for i, txt in enumerate(texts):
        raw = len(txt.encode())
        comp = len(zlib.compress(txt.encode(), 6))
        assert got["raw_bytes"][i] == raw
        assert got["zlib_bytes"][i] == comp
        assert got["ratio"][i] == round(comp / max(raw, 1), 6)
    assert got["ratio"][0] < 0.1 < got["ratio"][1]


def test_winnow_reference_and_guarantee(ray_session, tmp_path):
    """Winnowed fingerprints equal a brute-force rightmost-window-min
    reference, and the winnowing GUARANTEE holds: two docs sharing a
    substring of >= byte_window + w - 1 bytes share a fingerprint."""
    import pyarrow.parquet as pq

    from sbo_ray.functions.text import _FP_WINDOW, _rolling_hashes
    from sbo_ray.pipelines.dp_text import doc_winnow

    w = 8
    shared = "the quick brown fox jumps over the lazy dog"  # 44 bytes
    texts = ["AAA " + shared + " 111", "zzz " + shared + " qq", "unrelated"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_winnow(str(tmp_path), w=w).to_pandas()

    for i, txt in enumerate(texts):
        h = _rolling_hashes(txt.encode())
        sel = set()
        m = len(h)
        for ws in range(max(1, m - w + 1)):
            win = h[ws:ws + w]
            mn = win.min()
            sel.add(ws + max(j for j in range(len(win)) if win[j] == mn))
        sub = got[got["doc_id"] == i]
        assert set(sub["pos"]) == {p + 1 for p in sel}, i
        for _, r in sub.iterrows():
            assert np.int64(r["fp_hash"]) == h[r["pos"] - 1].astype(np.int64)
    assert len(shared.encode()) >= _FP_WINDOW + w - 1
    h0 = set(got[got["doc_id"] == 0]["fp_hash"])
    h1 = set(got[got["doc_id"] == 1]["fp_hash"])
    assert h0 & h1  # the guarantee
    h2 = set(got[got["doc_id"] == 2]["fp_hash"])
    assert not (h0 & h2)


def test_bm25_matches_python_reference(ray_session, tmp_path):
    """BM25 top-k equals a per-doc Python reference (same query-term
    selection, same Okapi formula), and docs with no query-term hit
    are absent."""
    import math

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import doc_bm25_topk

    texts = ["apple apple banana", "banana cherry", "apple cherry cherry",
             "durian elderberry", "apple banana cherry apple", "durian"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_bm25_topk(str(tmp_path), k=10).to_pandas()

    from collections import Counter
    corpus = Counter(w for txt in texts for w in txt.split(" "))
    terms = [t_ for t_, _ in sorted(corpus.items(),
                                    key=lambda kv: (-kv[1], kv[0]))[:3]]
    n = len(texts)
    dls = [len(txt.split(" ")) for txt in texts]
    avgdl = sum(dls) / n
    df = {t_: sum(t_ in txt.split(" ") for txt in texts) for t_ in terms}
    want = []
    for i, txt in enumerate(texts):
        cnt = Counter(txt.split(" "))
        s = 0.0
        hits = 0
        for t_ in terms:
            tf = cnt.get(t_, 0)
            if not tf:
                continue
            hits += 1
            idf = math.log((n - df[t_] + 0.5) / (df[t_] + 0.5) + 1)
            s += idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * dls[i] / avgdl))
        if hits:
            want.append((round(s, 6), i))
    want = sorted(want, key=lambda kv: (-kv[0], kv[1]))
    assert list(got["doc_id"]) == [i for _, i in want]
    assert np.allclose(got["score"], [s for s, _ in want])
    # durian-only docs carry no query term and never appear
    assert 5 not in set(got["doc_id"])


def test_vocab_bigrams_reference_and_boundaries(ray_session, tmp_path):
    """Bigram top-k equals a Python reference, and pairs never cross
    document boundaries (the flat-buffer adjacent join masks each
    doc's last token)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_vocab_bigrams

    texts = ["a b c", "c a b", "b", "", "a b"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_vocab_bigrams(str(tmp_path), k=10).to_pandas()

    ref = Counter()
    for txt in texts:
        toks = txt.split(" ")
        ref.update(f"{x} {y}" for x, y in zip(toks, toks[1:]))
    want = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["bigram"], got["n"])) == want
    assert "c c" not in set(got["bigram"])  # doc 0 -> doc 1 boundary


def test_outlier_scores_planted(ray_session, tmp_path):
    """Cosine-to-mean scores equal a numpy mirror, and a planted
    anti-mean vector is flagged while aligned vectors are not."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_outlier_scores

    rng = np.random.RandomState(29)
    n, d = 200, 16
    base = rng.randn(d) * 3
    m = (base + rng.randn(n, d) * 0.5).astype(np.float32)
    m[0] = -base  # planted outlier, anti-aligned with the mean
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_outlier_scores(str(tmp_path)).to_pandas()
    got = got.sort_values("vec_id").reset_index(drop=True)

    x = m.astype(np.float64)
    mu = x.mean(axis=0)
    want = np.round(
        (x @ mu) / (np.linalg.norm(x, axis=1) * np.linalg.norm(mu)), 6)
    assert np.allclose(got["cos_mean"], want, atol=2e-6)
    assert bool(got["is_outlier"][0])
    assert got["is_outlier"][1:].sum() == (want[1:] < 0).sum() == 0


def test_sample_weighted_reference_and_bias(ray_session, tmp_path):
    """Weighted sampling equals a per-row Python reference (same md5 /
    exponential-clock arithmetic), is invariant to the block layout,
    and actually biases toward heavy (long) docs."""
    import hashlib
    import math

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_dedup import doc_sample_weighted

    rng = np.random.RandomState(23)
    n = 600
    # half the corpus short (3 tokens), half long (60 tokens)
    texts = [" ".join(f"w{rng.randint(99)}" for _ in range(3 if i % 2 else 60))
             for i in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_sample_weighted(str(tmp_path), k=50).to_pandas()

    keys = []
    for i, txt in enumerate(texts):
        u63 = int.from_bytes(
            hashlib.md5(f"{i}:{txt}".encode()).digest()[:8], "big") >> 1
        u = (float(u63) + 1.0) * 2.0 ** -63
        w = len(txt.split(" "))
        keys.append((round(-math.log(u) / w, 6), i))
    want = sorted(keys)[:50]
    assert list(got["doc_id"]) == [i for _, i in want]
    assert np.allclose(got["wkey"], [k_ for k_, _ in want])
    # long docs (even ids, 20x the weight) dominate the sample
    assert (got["doc_id"] % 2 == 0).mean() > 0.8


def test_covariance_matches_numpy_reference(ray_session, tmp_path):
    """Distributed one-dgemm-per-block covariance equals numpy's
    population covariance to round-6 (the gate's resolution)."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_covariance

    rng = np.random.RandomState(13)
    n, d = 400, 12
    m = rng.randn(n, d).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_covariance(str(tmp_path)).to_pandas()
    assert len(got) == d * (d + 1) // 2
    want = np.cov(m.astype(np.float64), rowvar=False, bias=True)
    for _, r in got.iterrows():
        assert abs(r["cov"] - want[int(r["dim_i"]), int(r["dim_j"])]) < 1e-6


def test_pca_project_matches_numpy_reference(ray_session, tmp_path):
    """PCA projections equal a numpy mirror exactly (same moments, same
    eigh, same sign canonicalization), and the top component captures
    the planted high-variance direction."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_pca_project

    rng = np.random.RandomState(17)
    n, d, k = 400, 12, 4
    m = rng.randn(n, d)
    m[:, 3] *= 10.0  # planted dominant direction
    m = m.astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in m],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * n, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_pca_project(str(tmp_path), k=k).to_pandas()
    got = got.sort_values("vec_id").reset_index(drop=True)
    proj = np.stack(got["proj"].map(np.asarray))

    x = m.astype(np.float64)
    mu = x.mean(axis=0)
    cov = (x.T @ x) / n - np.outer(mu, mu)
    w, v = np.linalg.eigh(cov)
    comps = v[:, np.argsort(w)[::-1][:k]]
    flip = comps[np.abs(comps).argmax(axis=0), np.arange(k)] < 0
    comps = np.where(flip, -comps, comps)
    want = np.round((x - mu) @ comps, 6)
    assert np.allclose(proj, want, atol=2e-6)
    # the dominant component is the planted axis
    assert np.abs(comps[:, 0]).argmax() == 3


def test_perplexity_bigram_matches_python_reference(ray_session, tmp_path):
    """Bigram LM scores equal a per-doc Python reference (add-one
    smoothing over the (V+1)-way id space); transitions never cross
    document boundaries; <2-token docs are omitted."""
    import math

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_perplexity_bigram

    texts = [
        "a b a b c",
        "b a b",
        "solo",           # 1 token -> omitted
        "a a a a",
        "c b a",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_perplexity_bigram(str(tmp_path), vocab_size=1000) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)

    # reference: vocab ranked (count desc, token asc), ids 1..V, OOV 0
    from collections import Counter
    toks = [w for x in texts for w in x.split(" ")]
    cnt = Counter(toks)
    ranked = sorted(cnt, key=lambda w: (-cnt[w], w))
    vid = {w: i + 1 for i, w in enumerate(ranked)}
    W = len(ranked) + 1
    big = Counter()
    ctx = Counter()
    docs_ids = [[vid.get(w, 0) for w in x.split(" ")] for x in texts]
    for idseq in docs_ids:
        for a, b in zip(idseq[:-1], idseq[1:]):
            big[(a, b)] += 1
            ctx[a] += 1
    want = {}
    for did, idseq in enumerate(docs_ids):
        trans = list(zip(idseq[:-1], idseq[1:]))
        if not trans:
            continue
        s = sum(-math.log((big[(a, b)] + 1.0) / (ctx[a] + W))
                for a, b in trans)
        want[did] = (len(trans), round(s / len(trans), 6))
    assert list(got["doc_id"]) == sorted(want)
    for _, row in got.iterrows():
        n, v = want[row["doc_id"]]
        assert row["n_bigrams"] == n
        assert abs(row["avg_neg_logprob"] - v) < 1e-9


def test_sample_balanced_exact_k_per_label(ray_session, tmp_path):
    """Exactly min(k, label size) rows per label, chosen by the global
    md5 bottom-k — invariant to block partitioning (single-file input
    vs the engine's block-local monoid must agree with a global sort)."""
    import hashlib

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_emb import emb_sample_balanced

    rng = np.random.RandomState(7)
    n = 150
    labels = np.array([0] * 100 + [1] * 45 + [2] * 5)
    t = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(r) for r in
                               rng.randn(n, 4).astype(np.float32)],
                              type=pa.list_(pa.float32())),
        "label": pa.array(labels, type=pa.int32()),
    })
    pq.write_table(t, str(tmp_path / "embeddings.parquet"))
    got = emb_sample_balanced(str(tmp_path), per_label=10).to_pandas()
    sizes = got.groupby("label").size().to_dict()
    assert sizes == {0: 10, 1: 10, 2: 5}

    keys = np.array([int.from_bytes(
        hashlib.md5(str(i).encode()).digest()[:8], "big") >> 1
        for i in range(n)], dtype=np.int64)
    for lab in (0, 1, 2):
        ids = np.flatnonzero(labels == lab)
        order = np.lexsort((ids, keys[ids]))[:10]
        want = set(ids[order].tolist())
        assert set(got[got["label"] == lab]["vec_id"]) == want


def test_shuffle_order_is_md5_rank_permutation(ray_session, tmp_path):
    """shuffle_pos is a permutation of 0..n-1 equal to the rank under
    (md5(doc_id) >> 1, doc_id) — the distributed range-partition rank
    must equal one global argsort."""
    import hashlib

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_shuffle_order

    n = 500
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(n)]),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["s"] * n),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = doc_shuffle_order(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert sorted(got["shuffle_pos"]) == list(range(n))

    keys = np.array([int.from_bytes(
        hashlib.md5(str(i).encode()).digest()[:8], "big") >> 1
        for i in range(n)], dtype=np.int64)
    ids = np.arange(n)
    want = np.empty(n, dtype=np.int64)
    want[np.lexsort((ids, keys))] = np.arange(n)
    assert list(got["shuffle_pos"]) == want.tolist()


def test_shuffle_order_partition_invariant_multiblock(ray_session, tmp_path):
    """The range-partition rank must not depend on the block layout:
    a 3-file documents table (3+ read blocks) produces the same
    permutation as the global single-array reference."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_shuffle_order

    n = 300
    d = tmp_path / "documents.parquet"
    os.makedirs(d)
    for part in range(3):
        ids = list(range(part, n, 3))
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array([f"doc {i}" for i in ids]),
            "lang": pa.array(["en"] * len(ids)),
            "source": pa.array(["s"] * len(ids)),
        }), str(d / f"part-{part}.parquet"))
    got = doc_shuffle_order(str(tmp_path)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    keys = np.array([int.from_bytes(
        hashlib.md5(str(i).encode()).digest()[:8], "big") >> 1
        for i in range(n)], dtype=np.int64)
    want = np.empty(n, dtype=np.int64)
    want[np.lexsort((np.arange(n), keys))] = np.arange(n)
    assert list(got["shuffle_pos"]) == want.tolist()


def test_sliding_distinct_multiblock_matches_pandas(ray_session, tmp_path):
    """Sliding-window distinct users over a 3-file events table (window
    expansion + user exchange) equals a pandas expand-then-nunique
    reference."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_rel_events import events_sliding_distinct

    rng = np.random.RandomState(11)
    n = 3000
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = base + (rng.randint(0, 86400, n) * 1_000_000).astype(
        "timedelta64[us]")
    users = rng.randint(0, 150, n)
    d = tmp_path / "events.parquet"
    os.makedirs(d)
    for part in range(3):
        sel = np.arange(part, n, 3)
        pq.write_table(pa.table({
            "event_id": pa.array(sel, type=pa.int64()),
            "ts": pa.array(ts[sel], type=pa.timestamp("us")),
            "user_id": pa.array(users[sel], type=pa.int64()),
            "event_type": pa.array(["view"] * len(sel)),
            "value": pa.array(np.ones(len(sel))),
            "props": pa.array(["{}"] * len(sel)),
        }), str(d / f"part-{part}.parquet"))
    got = events_sliding_distinct(str(tmp_path)).to_pandas()

    slide_us = 15 * 60 * 1_000_000
    bucket = ts.astype(np.int64) // slide_us
    rows = []
    for o in range(4):
        rows.append(pd.DataFrame({
            "ws": (bucket - o) * slide_us, "user": users}))
    ref = pd.concat(rows)
    want = ref.groupby("ws")["user"].nunique().sort_index()
    got = got.sort_values("window_start").reset_index(drop=True)
    assert list(got["n_users"]) == want.tolist()
    assert [int(x.value) for x in pd.to_datetime(got["window_start"])] \
        == [int(w * 1000) for w in want.index]


def test_daily_active_multiblock_matches_pandas(ray_session, tmp_path):
    """Exact DAU over a 3-file events table (multi-block exchange)
    equals a pandas groupby-nunique reference."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import events_daily_active

    rng = np.random.RandomState(9)
    n = 3000
    base = np.datetime64("2024-03-01T00:00:00", "us")
    ts = base + (rng.randint(0, 5 * 86400, n) * 1_000_000).astype(
        "timedelta64[us]")
    users = rng.randint(0, 200, n)
    d = tmp_path / "events.parquet"
    os.makedirs(d)
    for part in range(3):
        sel = np.arange(part, n, 3)
        pq.write_table(pa.table({
            "event_id": pa.array(sel, type=pa.int64()),
            "ts": pa.array(ts[sel], type=pa.timestamp("us")),
            "user_id": pa.array(users[sel], type=pa.int64()),
            "event_type": pa.array(["view"] * len(sel)),
            "value": pa.array(np.ones(len(sel))),
            "props": pa.array(["{}"] * len(sel)),
        }), str(d / f"part-{part}.parquet"))
    got = events_daily_active(str(tmp_path)).to_pandas()
    ref = pd.DataFrame({"day": pd.Series(ts).dt.floor("D"),
                        "user": users})
    want = ref.groupby("day")["user"].nunique().sort_index()
    got = got.sort_values("day").reset_index(drop=True)
    assert list(got["n_users"]) == want.tolist()
    assert list(pd.to_datetime(got["day"])) == list(want.index)


def test_gif_lzw_codec_and_malformed():
    """Pins the LZW bitstream itself (hand-packed fixture: mcs=3, one
    pixel idx 5 -> codes CLEAR(8),5,END(9) LSB-first = 58 09), the
    width-growth and 12-bit-reset round-trips, the full container walk
    (incl. an 89a extension block), and malformed-input errors."""
    import pytest as _pytest

    from sbo_ray.functions.multimodal import (
        _lzw_decode, _lzw_encode, decode_gif, make_gif, synth_gif,
    )

    assert _lzw_encode(np.array([5]), 3) == b"\x58\x09"
    assert list(_lzw_decode(b"\x58\x09", 3, 1)) == [5]
    rng = np.random.RandomState(7)
    for n in (1, 2, 70, 500, 60000):  # 60000 crosses the 12-bit reset
        seq = rng.randint(0, 8, n)
        assert (_lzw_decode(_lzw_encode(seq, 3), 3, n) == seq).all()
    for d in range(15):
        w, h, npal, pal, idx = decode_gif(synth_gif(d))
        assert (w, h, npal) == (6 + d % 5, 4 + d % 3, 8)
        k = np.arange(w * h, dtype=np.int64)
        assert (idx == (d * 31 + k * 7 + 1) % 8).all()
        j = np.arange(8, dtype=np.int64)
        assert (pal[:, 0] == (j * 37 + 5) % 256).all()
    # an 89a graphic-control extension before the image must be skipped
    g = bytearray(synth_gif(4))
    g[:6] = b"GIF89a"
    ext = b"\x21\xf9\x04\x00\x00\x00\x00\x00"
    data = bytes(g[:13 + 24]) + ext + bytes(g[13 + 24:])
    w, h, _, _, idx = decode_gif(data)
    assert (w, h) == (6 + 4 % 5, 4 + 4 % 3) and len(idx) == w * h
    with _pytest.raises(ValueError, match="signature"):
        decode_gif(b"NOTAGIF" + bytes(20))
    with _pytest.raises(ValueError, match="truncated GIF sub-blocks"):
        decode_gif(synth_gif(1)[:-6])
    bad = bytearray(synth_gif(2))
    bad[13 + 24 + 9] |= 0x40  # image-descriptor packed byte: interlace
    with _pytest.raises(NotImplementedError, match="interlaced"):
        decode_gif(bytes(bad))


def test_ulaw_decode_known_vectors_and_container():
    """Pins the G.711 expansion against the canonical ulaw2linear
    values (0x00 -> -32124, 0x80 -> +32124, 0xFF/0x7F -> 0) and the
    format-7 RIFF walk end-to-end; PCM16 stays the format-1 path and
    other formats still raise."""
    import struct

    import pytest as _pytest

    from sbo_ray.functions.multimodal import (
        _ULAW_LUT, decode_wav, make_wav_ulaw, synth_wav_ulaw,
    )

    assert _ULAW_LUT[0x00] == -32124 and _ULAW_LUT[0x80] == 32124
    assert _ULAW_LUT[0xFF] == 0 and _ULAW_LUT[0x7F] == 0
    sr, ch, samples = decode_wav(make_wav_ulaw(8000, bytes([0, 0x80, 0xFF])))
    assert (sr, ch) == (8000, 1)
    assert list(samples) == [-32124, 32124, 0]
    d = 9
    sr, ch, samples = decode_wav(synth_wav_ulaw(d))
    k = np.arange(256, dtype=np.int64)
    assert (samples == _ULAW_LUT[(d * 13 + k * 7 + 5) % 256]).all()
    # A-law decodes too (canonical vectors: 0x55 -> -8, 0xD5 -> +8,
    # 0x2A -> -32256, sign bit SET = positive — the polarity flip
    # vs mu-law); ADPCM (format 2) still refuses
    from sbo_ray.functions.multimodal import (
        _ALAW_LUT, make_wav_alaw, synth_wav_alaw,
    )

    assert _ALAW_LUT[0x55] == -8 and _ALAW_LUT[0xD5] == 8
    assert _ALAW_LUT[0x2A] == -32256 and _ALAW_LUT[0xAA] == 32256
    sr, ch, samples = decode_wav(make_wav_alaw(8000, bytes([0x55, 0xD5])))
    assert list(samples) == [-8, 8]
    d2 = 4
    _, _, s2 = decode_wav(synth_wav_alaw(d2))
    k2 = np.arange(256, dtype=np.int64)
    assert (s2 == _ALAW_LUT[(d2 * 19 + k2 * 11 + 3) % 256]).all()
    bad = bytearray(make_wav_ulaw(8000, bytes(4)))
    struct.pack_into("<H", bad, 20, 2)
    with _pytest.raises(NotImplementedError, match="format=2"):
        decode_wav(bytes(bad))


def test_events_anomaly_mad_planted(ray_session, tmp_path):
    """Pin the MAD screen: a constant-volume type never flags (MAD 0,
    deviation 0), a single spiked day flags (deviation > 3*0), and a
    mildly varying type stays under the 3*MAD fence."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_retrieval import events_anomaly_mad

    rows = []
    eid = 0

    def day_events(et, day, n):
        nonlocal eid
        for i in range(n):
            rows.append((eid, f"2024-03-{day:02d} 10:{i % 60:02d}:00",
                         100 + i, et, 1.0, "{}"))
            eid += 1

    for d in range(1, 6):
        day_events("steady", d, 4)
    for d, n in zip(range(1, 6), [4, 4, 40, 4, 4]):   # spike on day 3
        day_events("spiky", d, n)
    for d, n in zip(range(1, 6), [3, 4, 5, 4, 3]):    # mild variation
        day_events("wobbly", d, n)
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([pd.Timestamp(r[1]) for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array([r[5] for r in rows], pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = events_anomaly_mad(str(tmp_path)).to_pandas()
    st = out[out.event_type == "steady"]
    assert (st["is_anomaly"] == 0).all() and (st["mad"] == 0).all()
    sp = out[out.event_type == "spiky"].sort_values("day")
    assert sp["is_anomaly"].tolist() == [0, 0, 1, 0, 0]
    wb = out[out.event_type == "wobbly"]
    assert (wb["is_anomaly"] == 0).all()
    assert wb["med"].iloc[0] == 4.0 and wb["mad"].iloc[0] == 1.0


def test_curation_report_planted(ray_session, tmp_path):
    """Pin the funnel semantics on a hand-built corpus: stages apply
    cumulatively (counts monotonically non-increasing), each gate drops
    exactly the planted offenders, and the dedup stage equals the
    pipeline's kept-row count."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import (
        doc_curation_pipeline, doc_curation_report,
    )

    good = ("the cat and the dog are in the house with a mouse and "
            "they all see it of course over there")
    texts = [
        good,                                     # 0 passes
        good,                                     # 1 dup of 0
        "el perro y el gato en la casa con un " +
        "raton y todos los vemos alli por supuesto",   # 2 fails lang
        "the doc is tiny",                        # 3 en, fails token count
        good + " extra words",                    # 4 passes (distinct)
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    rep = doc_curation_report(str(tmp_path)).to_pandas().set_index(
        "stage")["n_docs"]
    assert rep["1_total"] == 5
    assert rep["2_lang"] == 4          # doc 2 out
    assert rep["3_token_range"] == 3   # doc 3 out
    assert rep["4_stop_ratio"] == 3    # planted docs all stopword-rich
    assert rep["5_dedup_kept"] == 2    # dup 1 collapses into 0
    assert (rep.values[:-1][1:] <= rep.values[:-1][:-1]).all()
    pipe = doc_curation_pipeline(str(tmp_path)).to_pandas()
    assert len(pipe) == rep["5_dedup_kept"]


def test_bw_task_cpus_scales(ray_session, monkeypatch):
    """The bandwidth cap must track per-node cpus (constant per-node
    concurrency), not encode the dev box: num_cpus doubles with node
    width and floors at 1 on small sessions."""
    # patch the DEFINING module (dp_common): _bw_task_cpus resolves
    # _cpus in its own module's globals
    from sbo_ray.pipelines import dp_common as DPC

    for cpus, target, want in [(32, 16, 2), (32, 8, 4), (64, 16, 4),
                               (128, 16, 8), (8, 16, 1), (4, 8, 1),
                               (112, 16, 7)]:
        monkeypatch.setattr(DPC, "_cpus", lambda c=cpus: c)
        assert DPC._bw_task_cpus(target) == want, (cpus, target)


@pytest.mark.parametrize("op", ["doc_dedup_ngram", "doc_dedup_containment",
                                "emb_knn_join"])
def test_chunk_pair_tasks_follow_bw_cap(ray_session, monkeypatch, op):
    """The chunk-pair joins size their pair tasks by the bandwidth cap,
    never a hard-coded count: a fixed num_cpus above the session's CPUs
    leaves the tasks unschedulable and the query hangs."""
    import sys

    import ray.data as rd

    from sbo_ray.pipelines import dp_common as DPC
    from sbo_ray.pipelines import dp_dedup as DPD
    from sbo_ray.pipelines.dataqueries import data_queries

    seen = []
    join = DPD._chunk_pair_join

    def spy(*args, num_cpus, **kw):
        seen.append(num_cpus)
        return join(*args, num_cpus=num_cpus, **kw)

    fn = data_queries()[op]
    # patch the name where the op resolves it
    monkeypatch.setattr(sys.modules[fn.__module__], "_chunk_pair_join", spy)
    # a one-cpu node: the cap floors at one cpu per task
    monkeypatch.setattr(DPC, "_cpus", lambda: 1)
    out = fn("/root/testdata/sf0.001", n_chunks=2)
    assert seen == [1]
    n = out.count() if isinstance(out, rd.Dataset) else out.num_rows
    assert n >= 0


def test_money_sums_round_to_the_cent(ray_session, tmp_path):
    """The money aggregates round with np.round, as DuckDB's ROUND
    does. Arrow's round returns a sum within an ulp of a cent unchanged
    (5579342238.309999 stays 5579342238.309999), so its last bit would
    show in the result and miss the gate's 5579342238.31."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_rel_events import (customer_nation_agg,
                                                 events_sliding_window,
                                                 orders_by_month)
    from sbo_ray.pipelines.dp_retrieval import (events_hourly,
                                                supplier_nation_revenue)

    v, cents = 5579342238.309999, 5579342238.31
    assert pc.round(pa.array([v]), 2)[0].as_py() != cents
    ts = pa.array([np.datetime64("2020-01-15T10:20", "us")])
    for name, cols in {
        "nation": {"n_nationkey": pa.array([1], pa.int32()),
                   "n_name": ["N"]},
        "customer": {"c_custkey": [1], "c_nationkey": pa.array([1], pa.int32()),
                     "c_acctbal": [v]},
        "orders": {"o_orderdate": ts, "o_totalprice": [v]},
        "events": {"event_type": ["e"], "ts": ts, "value": [v]},
        "supplier": {"s_suppkey": [1], "s_nationkey": pa.array([1], pa.int32())},
        "lineitem": {"l_suppkey": [1], "l_extendedprice": [v],
                     "l_discount": [0.0]},
    }.items():
        pq.write_table(pa.table(cols), str(tmp_path / f"{name}.parquet"))
    sf = str(tmp_path)
    for fn, col in [(customer_nation_agg, "total_acctbal"),
                    (orders_by_month, "revenue"),
                    (events_sliding_window, "sum_value"),
                    (events_hourly, "sum_value"),
                    (supplier_nation_revenue, "revenue")]:
        got = fn(sf).column(col).to_pylist()
        assert got and set(got) == {cents}, (fn.__name__, got)


def test_decode_pool_leaves_a_cpu_for_reads(monkeypatch):
    """The decode actor pool's minimum starts before any input is read:
    it must leave a read task a CPU, or the query hangs (it did at 1 and
    2 CPUs with a fixed minimum of two one-CPU actors)."""
    from sbo_ray.pipelines import dp_multimodal as DPM

    for cpus, want in [(1, ((1, 1), 0)), (2, ((1, 1), 1)), (3, ((2, 2), 1)),
                       (4, ((2, 3), 1)), (32, ((2, 31), 1))]:
        monkeypatch.setattr(DPM, "_cpus", lambda c=cpus: c)
        pool = DPM._decode_pool()
        assert (pool["concurrency"], pool["num_cpus"]) == want, cpus
        lo, _ = pool["concurrency"]
        assert lo * pool["num_cpus"] <= cpus - 1, cpus


def test_ann_recall_brackets(ray_session):
    """The recall evaluator's invariants: per-query recall in [0,1]
    with n_hits consistent, exact self-agreement when every bucket is
    probed (probe_hamming >= n_bits -> candidates = everything ->
    recall 1.0 for all queries), and a sane pruning fraction."""
    from sbo_ray.pipelines.dp_emb import emb_ann_recall

    SF = "/root/testdata/sf0.001"
    r = emb_ann_recall(SF).to_pandas()
    assert len(r) > 0
    assert ((r["recall"] >= 0) & (r["recall"] <= 1)).all()
    assert (r["n_hits"] == (r["recall"] * 10).round()).all()
    assert ((r["n_cand_pairs"] > 0) &
            (r["n_cand_pairs"] <= r["n_pairs"])).all()
    full = emb_ann_recall(SF, probe_hamming=6).to_pandas()
    assert (full["recall"] == 1.0).all()
    assert (full["n_cand_pairs"] == full["n_pairs"]).all()


def test_events_attribution_planted(ray_session, tmp_path):
    """Pin the last-touch semantics on hand-built events: attribution
    picks the most recent PRECEDING touch under (ts, event_id) order,
    touches after the conversion don't count, 'none' when no prior
    touch, and users are isolated."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_rel_events import events_attribution

    TS = pd.Timestamp("2026-01-01")
    rows = [
        # user 1: click -> purchase(10) -> view -> purchase(5)
        (1, 1, TS, "click", 0.0),
        (2, 1, TS + pd.Timedelta(minutes=1), "purchase", 10.0),
        (3, 1, TS + pd.Timedelta(minutes=2), "view", 0.0),
        (4, 1, TS + pd.Timedelta(minutes=3), "purchase", 5.0),
        # user 2: purchase with NO prior touch; later click irrelevant
        (5, 2, TS, "purchase", 7.0),
        (6, 2, TS + pd.Timedelta(minutes=1), "click", 0.0),
        # user 3: same-timestamp tie — event_id orders click before
        # purchase, so it IS a preceding touch
        (7, 3, TS, "click", 0.0),
        (8, 3, TS, "purchase", 3.0),
        # user 4's touch must not leak into user 5
        (9, 4, TS, "view", 0.0),
        (10, 5, TS + pd.Timedelta(minutes=1), "purchase", 2.0),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "ts": pa.array([r[2] for r in rows],
                       type=pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
        "value": pa.array([r[4] for r in rows], type=pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = events_attribution(str(tmp_path)).to_pandas().set_index(
        "touch_type")
    assert out.loc["click", "n_purchases"] == 2    # users 1 (first), 3
    assert out.loc["click", "total_value"] == 13.0
    assert out.loc["view", "n_purchases"] == 1     # user 1 second buy
    assert out.loc["view", "total_value"] == 5.0
    assert out.loc["none", "n_purchases"] == 2     # users 2, 5
    assert out.loc["none", "total_value"] == 9.0


def test_qoi_decode_roundtrip_and_malformed():
    """Full-spec QOI codec: byte-exact roundtrip, every op family
    exercised by the synthetic generator, and malformed streams fail
    loudly instead of returning garbage."""
    import numpy as np
    import pytest as _pytest

    from sbo_ray.functions.multimodal import decode_qoi, make_qoi, synth_qoi

    ops = set()
    for d in (0, 1, 7, 13, 29):
        p = synth_qoi(d)
        w, h, ch, px = decode_qoi(p)
        assert (w, h, ch) == (8 + d % 5, 6 + d % 3, 3)
        k = np.arange(w * h)
        j = k // 4
        anchor = (j % 7) == 0
        assert (px[:, 0] == np.where(anchor, 10, (d * 11 + j * 5) % 256)).all()
        assert (px[:, 1] == np.where(anchor, 200, (d * 23 + j * 3) % 256)).all()
        assert (px[:, 2] == (np.where(anchor, 60, (d * 5 + j) % 256)
                             + (k % 4 == 3)) % 256).all()
        body, i = p[14:-8], 0
        while i < len(body):
            op = body[i]
            if op == 0xFE:
                ops.add("RGB"); i += 4
            elif op == 0xFF:
                ops.add("RGBA"); i += 5
            elif op >> 6 == 0:
                ops.add("INDEX"); i += 1
            elif op >> 6 == 1:
                ops.add("DIFF"); i += 1
            elif op >> 6 == 2:
                ops.add("LUMA"); i += 2
            else:
                ops.add("RUN"); i += 1
    assert {"RGB", "INDEX", "DIFF", "LUMA", "RUN"} <= ops

    good = synth_qoi(3)
    with _pytest.raises(ValueError):
        decode_qoi(b"nope" + good[4:])            # bad magic
    with _pytest.raises(ValueError):
        decode_qoi(good[:20])                     # truncated stream
    with _pytest.raises(ValueError):
        decode_qoi(good[:-8] + b"\x00" * 8)       # missing end marker
    # run past image end: an RGB op then a 62-run on a 2x1 image
    two = make_qoi(2, 1, np.array([[9, 9, 9], [9, 9, 9]]))
    bad = two[:14] + bytes([0xFE, 9, 9, 9, 0xC0 | 61]) + two[-8:]
    with _pytest.raises(ValueError):
        decode_qoi(bad)


def test_new_ops_empty_inputs(ray_session, tmp_path):
    """Typed-empty behavior for the late-r4 ops (the empty-Dataset
    to_pandas schema-loss soft spot)."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_text import doc_dsir_weights
    from sbo_ray.pipelines.dp_rel_events import (
        events_attribution, orders_large_volume,
    )

    pq.write_table(pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()),
        ("lang", pa.string()), ("source", pa.string()),
        ("n_chars", pa.int64())]).empty_table(),
        str(tmp_path / "documents.parquet"))
    pq.write_table(pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("event_type", pa.string()),
        ("value", pa.float64()), ("props", pa.string())]).empty_table(),
        str(tmp_path / "events.parquet"))
    pq.write_table(pa.schema([
        ("l_orderkey", pa.int64()),
        ("l_quantity", pa.float64())]).empty_table(),
        str(tmp_path / "lineitem.parquet"))

    out = doc_dsir_weights(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["doc_id", "n_tokens", "logw"]
    out = events_attribution(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["touch_type", "n_purchases", "total_value"]
    out = orders_large_volume(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["o_orderkey", "c_custkey", "c_name",
                                "o_totalprice", "sum_qty"]


def test_customer_rfm_empty_and_semantics(ray_session, tmp_path):
    """customer_rfm: typed-empty passthrough, and recency/frequency/
    monetary semantics on a hand-computed 2-customer fixture."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_rel_events import customer_rfm

    sch = pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_totalprice", pa.float64()),
        ("o_orderdate", pa.timestamp("us"))])
    pq.write_table(sch.empty_table(), str(tmp_path / "orders.parquet"))
    out = customer_rfm(str(tmp_path))
    assert out.count() == 0
    # empty-Dataset to_pandas loses columns (CLAUDE.md); check ds schema
    assert out.schema().names == ["c_custkey", "recency_days",
                                  "frequency", "monetary"]

    d = np.datetime64("2024-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    t = pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_custkey": pa.array([7, 7, 7, 9], pa.int64()),
        "o_totalprice": pa.array([10.25, 4.75, 1.0, 2.5], pa.float64()),
        "o_orderdate": pa.array(
            [d, d + 3 * day, d + 5 * day, d + 9 * day],
            pa.timestamp("us")),
    })
    pq.write_table(t, str(tmp_path / "orders.parquet"))
    got = customer_rfm(str(tmp_path)).to_pandas() \
        .sort_values("c_custkey").reset_index(drop=True)
    # as-of = 2024-01-10; cust 7 last orders on day 5 -> recency 4
    assert got["c_custkey"].tolist() == [7, 9]
    assert got["recency_days"].tolist() == [4, 0]
    assert got["frequency"].tolist() == [3, 1]
    assert got["monetary"].tolist() == [16.0, 2.5]


def test_dedup_bloom_one_sided_error(ray_session, tmp_path):
    """Bloom incremental dedup: NO false negatives (every snapshot doc
    whose text exists in the even-id corpus is dropped), bounded false
    positives vs the exact incremental twin, the incremental twin agrees
    with exact dedup, and the block bitmaps OR-merge associatively."""
    import numpy as np

    from sbo_ray.pipelines.dp_dedup import doc_dedup_exact
    from sbo_ray.pipelines.dp_rel_events import (
        _bloom_positions, _bloom_test, doc_dedup_bloom, doc_dedup_incremental,
    )

    kept = set(doc_dedup_bloom(SF).to_pandas()["doc_id"])
    inc = doc_dedup_incremental(SF).to_pandas()
    exact = set(inc["doc_id"])
    # an incremental survivor's hash has no even (existing) id, so its
    # min odd id is its whole group's min and its copies are the whole
    # group: every (doc_id, n_copies) row is an exact-dedup row with
    # n_dupes == n_copies. SF has no duplicate text, so a planted corpus
    # adds groups that are new-only, mixed and existing-only.
    import pyarrow.parquet as pq

    texts = {1: "a", 3: "a", 5: "a", 2: "b", 7: "b", 9: "c", 4: "d",
             6: "d", 8: "e", 11: "e", 13: "e"}
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()))}),
        str(tmp_path / "documents.parquet"))
    planted = doc_dedup_incremental(str(tmp_path)).to_pandas()
    assert sorted(zip(planted["doc_id"], planted["n_copies"])) == [
        (1, 3), (9, 1)]
    for d, rows in ((SF, inc), (str(tmp_path), planted)):
        ex = doc_dedup_exact(d).to_pandas()
        n_dupes = dict(zip(ex["doc_id"], ex["n_dupes"]))
        assert all(n_dupes.get(i) == n
                   for i, n in zip(rows["doc_id"], rows["n_copies"]))
    # one-sided: bloom-kept is a SUBSET of exactly-new (no false
    # negatives: nothing truly duplicated survives)
    assert kept <= exact
    # bounded false-positive loss on this corpus (m=2^22, k=4, n~250)
    assert len(exact) - len(kept) <= max(2, len(exact) // 100)
    assert len(kept) > 0

    # merge law on the kernel: bits(A ∪ B) == bits(A) | bits(B)
    m, k = 1 << 12, 4
    ha = np.array([11, 22, 33], dtype=np.int64)
    hb = np.array([33, 44], dtype=np.int64)
    def bits(h):
        bm = np.zeros(m, dtype=np.uint8)
        bm[_bloom_positions(h, m, k).ravel()] = 1
        return np.packbits(bm, bitorder="little")
    assert (bits(np.concatenate([ha, hb])) == (bits(ha) | bits(hb))).all()
    # membership: every inserted hash tests positive
    bm = np.frombuffer(bits(ha).tobytes(), dtype=np.uint8)
    assert _bloom_test(bm, _bloom_positions(ha, m, k)).all()


def test_events_attribution_first_planted(ray_session, tmp_path):
    """First-touch twin: user 1's second purchase credits the run's
    FIRST touch (click), where last-touch credits the view."""
    import pyarrow.parquet as pq

    from sbo_ray.pipelines.dp_rel_events import events_attribution_first

    TS = pd.Timestamp("2026-01-01")
    rows = [
        (1, 1, TS, "click", 0.0),
        (2, 1, TS + pd.Timedelta(minutes=1), "purchase", 10.0),
        (3, 1, TS + pd.Timedelta(minutes=2), "view", 0.0),
        (4, 1, TS + pd.Timedelta(minutes=3), "purchase", 5.0),
        (5, 2, TS, "purchase", 7.0),
        (6, 2, TS + pd.Timedelta(minutes=1), "view", 0.0),
        (7, 2, TS + pd.Timedelta(minutes=2), "purchase", 4.0),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
        "value": pa.array([r[4] for r in rows], type=pa.float64()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = events_attribution_first(str(tmp_path)).to_pandas().set_index(
        "touch_type")
    # user 1: BOTH purchases credit the first touch (click)
    assert out.loc["click", "n_purchases"] == 2
    assert out.loc["click", "total_value"] == 15.0
    # user 2: first purchase has no prior touch; the view that follows
    # becomes the run's first touch for the SECOND purchase
    assert out.loc["view", "n_purchases"] == 1
    assert out.loc["view", "total_value"] == 4.0
    assert out.loc["none", "n_purchases"] == 1


def test_triplet_mining_semantics(ray_session):
    """Triplets: positive shares the anchor's label, negative doesn't,
    neither is the anchor, and a brute-force numpy check agrees on the
    composite-key ordering."""
    import numpy as np

    from sbo_ray.functions import dedup as D
    from sbo_ray.functions import similarity as S
    from sbo_ray.pipelines.dp_common import _read
    from sbo_ray.pipelines.dp_retrieval import emb_triplet_mining

    out = emb_triplet_mining(SF).to_pandas()
    assert len(out) == 10
    emb = pa.concat_tables(
        _read(SF, "embeddings").iter_batches(batch_format="pyarrow",
                                             batch_size=None))
    ids = emb.column("vec_id").to_numpy(zero_copy_only=False)
    lab = emb.column("label").to_numpy(zero_copy_only=False)
    m = D.normalize_rows(S.embedding_matrix(emb))
    by_id = {int(i): j for j, i in enumerate(ids)}
    B33, OFF = 1 << 33, 2_000_000
    for r in out.itertuples(index=False):
        assert r.pos_id != r.anchor_id and r.neg_id != r.anchor_id
        assert lab[by_id[r.pos_id]] == r.anchor_label
        assert lab[by_id[r.neg_id]] != r.anchor_label
        # brute-force key argmax agrees
        aj = by_id[r.anchor_id]
        cos = m @ m[aj]
        key = (np.floor(cos * 1e6).astype(np.int64) + OFF) * B33 \
            + (B33 - 1 - ids)
        same = (lab == r.anchor_label) & (ids != r.anchor_id)
        diff = (lab != r.anchor_label)
        assert ids[same][np.argmax(key[same])] == r.pos_id
        assert ids[diff][np.argmax(key[diff])] == r.neg_id


def test_per_row_doc_scorers_return_datasets(ray_session):
    """The per-doc scorers stream their output as a Dataset (no driver
    concat of per-row results), like doc_perplexity_bigram."""
    import ray.data as rd

    from sbo_ray.pipelines.dp_text import doc_dsir_weights
    from sbo_ray.pipelines.dp_retrieval import (
        doc_bigram_logprob, doc_tfidf, doc_unigram_logprob,
    )

    for op in (doc_tfidf, doc_unigram_logprob, doc_bigram_logprob,
               doc_dsir_weights):
        out = op(SF)
        assert isinstance(out, rd.Dataset), op.__name__
        assert out.count() > 0, op.__name__
