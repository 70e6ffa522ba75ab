"""Token-native operators over the raw pre-tokenized payload
(north-rule input: tokens list<int32>): global token histogram,
adjacent-token bigram top-k, and exact duplicate-sequence dedup.

Gated engine-vs-DuckDB at the sf0.001 scale (the same comparison the
correctness driver runs at sf0.01) plus empty / degenerate edges.
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sbo_ray import synth
from sbo_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"


def _duck(sql: str) -> pd.DataFrame:
    return duckdb.connect().execute(sql).df()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def cache(ray_session):
    return synth.ensure_input(SF)


def test_token_histogram_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_histogram(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_histogram(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_token_bigrams_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_bigrams(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_bigrams(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_seq_dedup_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_dedup(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_dedup(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the synthesizer reuses lines across rows, so duplicates must exist
    assert got["n_dup_rows"].sum() > 0


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    """Hand-built shard with empty rows, a single-token row, and exact
    duplicate sequences split across two shards."""
    d = tmp_path_factory.mktemp("tiny_tokens")
    rows1 = [
        ("a", [], "s1"),          # empty sequence
        ("b", [65], "s1"),        # single token
        ("c", [65, 66, 67], "s1"),
        ("d", [], "s1"),          # duplicate empty
    ]
    rows2 = [
        ("e", [65, 66, 67], "s1"),  # duplicate of c, in the OTHER shard
        ("f", [66, 65], "s2"),      # reversal — must NOT collide
        ("g", [65, 66], "s2"),
    ]
    for i, rows in enumerate((rows1, rows2)):
        t = pa.table({
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
            "source": pa.array([r[2] for r in rows], type=pa.string()),
        })
        pq.write_table(t, str(d / f"shard-{i:05d}.parquet"))
    return str(d)


def _patch_paths(monkeypatch, d):
    import glob
    import os

    monkeypatch.setattr(
        Q, "_input_paths",
        lambda sf: sorted(glob.glob(os.path.join(d, "shard-*.parquet"))))


def test_seq_dedup_edges(ray_session, tiny_dir, monkeypatch):
    _patch_paths(monkeypatch, tiny_dir)
    out = Q.q_log_seq_dedup("ignored").to_pandas().set_index("source")
    # s1: 5 rows (a b c d e), uniques {[], [65], [65,66,67]} -> 3, dups 2
    assert out.loc["s1", "n_rows"] == 5
    assert out.loc["s1", "n_uniq_seq"] == 3
    assert out.loc["s1", "n_dup_rows"] == 2
    # s2: reversal and prefix are distinct sequences
    assert out.loc["s2", "n_rows"] == 2
    assert out.loc["s2", "n_uniq_seq"] == 2


def test_token_ops_edges(ray_session, tiny_dir, monkeypatch):
    _patch_paths(monkeypatch, tiny_dir)
    hist = Q.q_log_token_histogram("ignored").to_pandas().set_index("token")
    assert hist.loc[65, "cnt"] == 5  # one each in b, c, e, f, g
    assert hist.loc[66, "cnt"] == 4
    assert hist.loc[67, "cnt"] == 2
    big = Q.q_log_token_bigrams("ignored").to_pandas()
    got = {(a, b): c for a, b, c in zip(big["a"], big["b"], big["cnt"])}
    # (65,66) from c, e, g; (66,67) from c, e; (66,65) from f only
    assert got == {(65, 66): 3, (66, 67): 2, (66, 65): 1}


def test_token_ops_empty(ray_session, tmp_path, monkeypatch):
    pq.write_table(synth.SCHEMA.empty_table(),
                   str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    assert Q.q_log_token_histogram("ignored").num_rows == 0
    assert Q.q_log_token_bigrams("ignored").num_rows == 0
    out = Q.q_log_seq_dedup("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "n_rows", "n_uniq_seq",
                                "n_dup_rows"]


def test_pack_tokens_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_tokens(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_tokens(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # fragment conservation: per-sequence token counts fill every
    # sequence except the last
    per_seq = got.groupby("seq_id")["n_frag_tokens"].sum()
    assert (per_seq.iloc[:-1] == 512).all()


@pytest.fixture(scope="module")
def pack_dir(tmp_path_factory):
    """Rows with 12-digit ingestion suffix: a doc spanning 3 sequences
    (L=4), a zero-token row mid-stream, and exact boundary fits."""
    d = tmp_path_factory.mktemp("pack_tokens")
    rows = [
        ("s1-000000000000", [1, 2, 3], "s1"),        # offset 0
        ("s2-000000000001", [], "s2"),               # consumes nothing
        ("s1-000000000002", [4, 5, 6, 7, 8, 9, 10, 11, 12], "s1"),
        ("s2-000000000003", [13, 14, 15, 16], "s2"),  # lands at 12: exact fit
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t.slice(0, 2), str(d / "shard-00000.parquet"))
    pq.write_table(t.slice(2), str(d / "shard-00001.parquet"))
    return str(d)


def test_pack_tokens_edges(ray_session, pack_dir, monkeypatch):
    _patch_paths(monkeypatch, pack_dir)
    out = (Q.q_log_pack_tokens("ignored", seq_len=4)
           .to_pandas().sort_values(["doc_id", "seq_id"])
           .reset_index(drop=True))
    rows = [tuple(r) for r in out.itertuples(index=False)]
    assert rows == [
        # doc 0: tokens 1,2,3 -> seq 0 positions 0..2
        ("s1-000000000000", 0, 3, 6, 1, 3),
        # doc 2: 9 tokens at offset 3 -> spans seqs 0,1,2
        ("s1-000000000002", 0, 1, 4, 4, 4),
        ("s1-000000000002", 1, 4, 5 + 6 + 7 + 8, 5, 8),
        ("s1-000000000002", 2, 4, 9 + 10 + 11 + 12, 9, 12),
        # doc 3: exact fit in seq 3; zero-token doc 1 emits nothing
        ("s2-000000000003", 3, 4, 13 + 14 + 15 + 16, 13, 16),
    ]


def test_pack_tokens_empty(ray_session, tmp_path, monkeypatch):
    pq.write_table(synth.SCHEMA.empty_table(),
                   str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_pack_tokens("ignored")  # Dataset since r5
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "seq_id", "n_frag_tokens",
                                  "frag_sum", "first_tok", "last_tok"]


def test_seq_dedup_prefix_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_dedup_prefix(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_dedup_prefix(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # prefix identity is coarser than full-sequence identity
    full = Q.q_log_seq_dedup(SF).to_pandas().set_index("source")
    pre = Q.q_log_seq_dedup_prefix(SF).to_pandas().set_index("source")
    assert (pre["n_uniq_prefix"] <= full["n_uniq_seq"]).all()
    assert (pre["n_dup_rows"] >= full["n_dup_rows"]).all()


def test_seq_dedup_prefix_planted(ray_session, tmp_path, monkeypatch):
    """k=3: rows sharing their first 3 tokens collapse regardless of
    tail; shorter-than-k rows key on their whole (padded-by-length)
    sequence — [1,2] and [1,2,9] must NOT collide."""
    rows = [
        ("s1-000000000000", [1, 2, 3, 4, 5], "s1"),
        ("s1-000000000001", [1, 2, 3, 9, 9, 9], "s1"),  # same 3-prefix
        ("s1-000000000002", [1, 2], "s1"),              # short
        ("s1-000000000003", [1, 2, 9], "s1"),           # != [1,2]
        ("s2-000000000004", [7, 7, 7], "s2"),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = (Q.q_log_seq_dedup_prefix("ignored", k=3).to_pandas()
           .set_index("source"))
    assert out.loc["s1", "n_rows"] == 4
    assert out.loc["s1", "n_uniq_prefix"] == 3  # {123*, 12, 129}
    assert out.loc["s1", "n_dup_rows"] == 1
    assert out.loc["s2", "n_uniq_prefix"] == 1


def test_source_drift_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_source_drift(SF).to_pandas())
    want = _norm(_duck(Q.sql_source_drift(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # TVD numerator is bounded by 2*n1*n2 (TVD <= 1)
    s = Q.q_log_source_drift(SF).to_pandas()
    assert (s["tvd_num"] <=
            2 * s["n_early_tokens"] * s["n_late_tokens"]).all()


def test_source_drift_planted(ray_session, tmp_path, monkeypatch):
    """Identical halves -> zero drift; disjoint token alphabets ->
    maximal drift (tvd_num == 2*n1*n2, i.e. TVD 1)."""
    rows = [
        # s1: same distribution early (idx 0,1) and late (idx 8,9)
        ("s1-000000000000", [1, 2], "s1"),
        ("s1-000000000001", [3], "s1"),
        ("s1-000000000008", [1, 2], "s1"),
        ("s1-000000000009", [3], "s1"),
        # s2: early all 5s, late all 7s
        ("s2-000000000000", [5, 5], "s2"),
        ("s2-000000000009", [7, 7, 7], "s2"),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_source_drift("ignored").to_pandas().set_index("source")
    assert out.loc["s1", "tvd_num"] == 0
    assert out.loc["s1", "n_early_tokens"] == 3
    assert out.loc["s2", "tvd_num"] == 2 * 2 * 3
    assert out.loc["s2", "n_early_tokens"] == 2
    assert out.loc["s2", "n_late_tokens"] == 3


def test_pack_tokens_sep_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_tokens_sep(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_tokens_sep(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # every sequence except the last is exactly full, and the stream
    # grew by exactly one separator per input row vs the plain pack
    per_seq = got.groupby("seq_id")["n_frag_tokens"].sum()
    assert (per_seq.iloc[:-1] == 512).all()
    plain = Q.q_log_pack_tokens(SF).to_pandas()
    n_rows_in = len(set(got["doc_id"]))
    assert got["n_frag_tokens"].sum() >= \
        plain["n_frag_tokens"].sum() + n_rows_in - 1


def test_pack_tokens_sep_edges(ray_session, pack_dir, monkeypatch):
    """Separator packing at L=4, sep=99: zero-token doc 1 still emits
    its boundary marker; fragments straddling a separator include it
    in count/sum/last."""
    _patch_paths(monkeypatch, pack_dir)
    out = (Q.q_log_pack_tokens_sep("ignored", seq_len=4, sep=99)
           .to_pandas().sort_values(["doc_id", "seq_id"])
           .reset_index(drop=True))
    rows = [tuple(r) for r in out.itertuples(index=False)]
    assert rows == [
        # doc 0: [1,2,3,SEP] fills seq 0 exactly
        ("s1-000000000000", 0, 4, 1 + 2 + 3 + 99, 1, 99),
        # doc 2: 9 tokens + SEP at offsets 5..14 -> seqs 1,2,3
        ("s1-000000000002", 1, 3, 4 + 5 + 6, 4, 6),
        ("s1-000000000002", 2, 4, 7 + 8 + 9 + 10, 7, 10),
        ("s1-000000000002", 3, 3, 11 + 12 + 99, 11, 99),
        # zero-token doc 1 emits ONLY its separator at offset 4
        ("s2-000000000001", 1, 1, 99, 99, 99),
        # doc 3: [13,14,15,16,SEP] at offsets 15..19 straddles seqs 3,4
        ("s2-000000000003", 3, 1, 13, 13, 13),
        ("s2-000000000003", 4, 4, 14 + 15 + 16 + 99, 14, 99),
    ]


def test_log_sessionize_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_sessionize(SF).to_pandas())
    want = _norm(_duck(Q.sql_log_sessionize(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # structural invariants: per (source, ip) sessions are disjoint and
    # separated by more than the gap
    s = (Q.q_log_sessionize(SF).to_pandas()
         .sort_values(["source", "client_ip", "session_start"]))
    assert (s["session_end"] >= s["session_start"]).all()
    same = (s[["source", "client_ip"]].shift() ==
            s[["source", "client_ip"]]).all(axis=1)
    gaps = s["session_start"] - s["session_end"].shift()
    assert (gaps[same] > 600).all()


def test_pack_tokens_by_source_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_tokens_by_source(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_tokens_by_source(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # per-source streams: every (source, sequence) fills to 512 except
    # each source's LAST sequence
    s = Q.q_log_pack_tokens_by_source(SF).to_pandas()
    per = s.groupby(["source", "seq_id"])["n_frag_tokens"].sum()
    for src, grp in per.groupby(level=0):
        assert (grp.iloc[:-1] == 512).all()


def test_pack_tokens_by_source_edges(ray_session, pack_dir, monkeypatch):
    """Two interleaved sources pack as INDEPENDENT streams."""
    _patch_paths(monkeypatch, pack_dir)
    out = (Q.q_log_pack_tokens_by_source("ignored", seq_len=4)
           .to_pandas().sort_values(["source", "doc_id", "seq_id"])
           .reset_index(drop=True))
    rows = [tuple(r) for r in out.itertuples(index=False)]
    assert rows == [
        # s1 stream: docs 0 (3 tokens) and 2 (9 tokens) -> offsets 0, 3
        ("s1", "s1-000000000000", 0, 3, 6, 1, 3),
        ("s1", "s1-000000000002", 0, 1, 4, 4, 4),
        ("s1", "s1-000000000002", 1, 4, 5 + 6 + 7 + 8, 5, 8),
        ("s1", "s1-000000000002", 2, 4, 9 + 10 + 11 + 12, 9, 12),
        # s2 stream: zero-token doc 1, then doc 3 starts its OWN
        # stream at offset 0 (not the global 12)
        ("s2", "s2-000000000003", 0, 4, 13 + 14 + 15 + 16, 13, 16),
    ]


def test_pack_tokens_dedup_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_tokens_dedup(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_tokens_dedup(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # survivors pack to full sequences except the last, and dedup must
    # strictly shrink the stream (the synthesizer plants exact dups)
    s = Q.q_log_pack_tokens_dedup(SF).to_pandas()
    per_seq = s.groupby("seq_id")["n_frag_tokens"].sum()
    assert (per_seq.iloc[:-1] == 512).all()
    plain = Q.q_log_pack_tokens(SF).to_pandas()
    assert s["n_frag_tokens"].sum() < plain["n_frag_tokens"].sum()
    assert s["seq_id"].max() <= plain["seq_id"].max()


@pytest.fixture(scope="module")
def dedup_pack_dir(tmp_path_factory):
    """Duplicate mid-stream row: doc 2 repeats doc 0's tokens, so the
    packed stream must skip it and close up the offsets."""
    d = tmp_path_factory.mktemp("dedup_pack")
    rows = [
        ("s1-000000000000", [1, 2, 3], "s1"),
        ("s1-000000000001", [4, 5, 6, 7, 8], "s1"),
        ("s1-000000000002", [1, 2, 3], "s1"),   # dup of doc 0 — dropped
        ("s1-000000000003", [9, 10, 11, 12], "s1"),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t.slice(0, 2), str(d / "shard-00000.parquet"))
    pq.write_table(t.slice(2), str(d / "shard-00001.parquet"))
    return str(d)


def test_pack_tokens_dedup_edges(ray_session, dedup_pack_dir, monkeypatch):
    _patch_paths(monkeypatch, dedup_pack_dir)
    out = (Q.q_log_pack_tokens_dedup("ignored", seq_len=4)
           .to_pandas().sort_values(["doc_id", "seq_id"])
           .reset_index(drop=True))
    rows = [tuple(r) for r in out.itertuples(index=False)]
    # kept stream: [1,2,3] [4,5,6,7,8] [9,10,11,12] -> offsets 0, 3, 8
    assert rows == [
        ("s1-000000000000", 0, 3, 6, 1, 3),
        ("s1-000000000001", 0, 1, 4, 4, 4),
        ("s1-000000000001", 1, 4, 5 + 6 + 7 + 8, 5, 8),
        ("s1-000000000003", 2, 4, 9 + 10 + 11 + 12, 9, 12),
    ]


@pytest.mark.parametrize("name", [
    # the pack family: table shard / combine waves
    "log_pack_tokens", "log_pack_tokens_by_source", "log_pack_tokens_dedup",
    # per-row exchange.part_exchange outputs
    "log_sessionize", "events_funnel", "events_sessionize", "customer_rfm",
    "doc_dedup_exact", "doc_dedup_substring",
    # the chunk-pair join, then a part_exchange merge
    "emb_knn_join",
])
def test_per_row_ops_no_driver_table(ray_session, monkeypatch, name):
    """Per-row ops return Datasets of per-partition combine blocks: the
    driver may ray.get only bounded partials (chunk sums, bases, block
    metadata), never the per-row output. Spy every ray.get during query
    CONSTRUCTION and bound the Arrow bytes that reach the driver per
    call; the packed sf0.001 output alone is ~0.5 MB, so a 256 KB
    ceiling fails if a pack variant reintroduces the driver concat."""
    import ray as ray_mod
    import ray.data as rd

    import __ray_entry__ as E

    got_bytes = []
    real_get = ray_mod.get

    def table_bytes(o):
        if isinstance(o, pa.Table):
            return o.nbytes
        if isinstance(o, (list, tuple)):
            return sum(table_bytes(x) for x in o)
        return 0

    def spy_get(refs, **kw):
        out = real_get(refs, **kw)
        b = table_bytes(out)
        if b:
            got_bytes.append(b)
        return out

    query = E.queries()[name]
    monkeypatch.setattr(ray_mod, "get", spy_get)
    out = query(SF)
    monkeypatch.setattr(ray_mod, "get", real_get)

    big = [b for b in got_bytes if b > 256 * 1024]
    assert not big, f"driver ray.get pulled output-sized tables: {big}"
    assert isinstance(out, rd.Dataset)
    assert out.count() > 0


def test_pack_tokens_dedup_empty(ray_session, tmp_path, monkeypatch):
    pq.write_table(synth.SCHEMA.empty_table(),
                   str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_pack_tokens_dedup("ignored")  # Dataset since r5
    assert out.count() == 0
    assert out.schema().names == list(Q._PACK_SCHEMA.names)


def test_source_ce_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_source_ce(SF).to_pandas())
    want = _norm(_duck(Q.sql_source_ce(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # cross-entropy of any source under the corpus LM is >= the
    # corpus entropy floor: positive, finite
    s = Q.q_log_source_ce(SF).to_pandas()
    assert (s["ce"] > 0).all() and s["ce"].notna().all()


def test_token_entropy_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_entropy(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_entropy(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    import numpy as np

    s = Q.q_log_token_entropy(SF).to_pandas()
    # 0 <= H <= ln(vocab) (byte codec: vocab <= 256)
    assert (s["token_entropy"] >= 0).all()
    assert (s["token_entropy"] <= np.log(256)).all()


def test_oov_rate_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_oov_rate(SF).to_pandas())
    want = _norm(_duck(Q.sql_oov_rate(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_oov_rate(SF).to_pandas()
    assert (s["n_oov"] <= s["n_tokens"]).all()
    assert (s["oov_ppm"] <= 1_000_000).all()
    # with v covering the whole byte vocab, nothing is OOV
    full = Q.q_log_oov_rate(SF, v=256).to_pandas()
    assert (full["n_oov"] == 0).all() and (full["oov_ppm"] == 0).all()


def test_seq_len_buckets_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_len_buckets(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_len_buckets(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_seq_len_buckets(SF).to_pandas()
    # every sequence fits under its bucket cap: 0 <= pad < 1e6 ppm, and
    # sum_tokens lies within [bucket*w*n, (bucket+1)*w*n]
    assert (s["pad_ppm"] >= 0).all() and (s["pad_ppm"] < 1_000_000).all()
    assert (s["sum_tokens"] >= s["bucket"] * 128 * s["n_seqs"]).all()
    assert (s["sum_tokens"] <= (s["bucket"] + 1) * 128 * s["n_seqs"]).all()


def test_token_ngram_dedup_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_ngram_dedup(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_ngram_dedup(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_token_ngram_dedup(SF).to_pandas()
    assert (s["n_flagged"] <= s["n_docs"]).all()
    # the synthesizer reuses lines across rows (seq_dedup proves exact
    # duplicates exist), so SOME sequence must share a sampled window
    assert s["n_flagged"].sum() > 0
    # the exhaustive variant (mod=1) flags a superset of the sampled one
    full = _norm(Q.q_log_token_ngram_dedup(SF, mod=1).to_pandas())
    wantf = _norm(_duck(Q.sql_token_ngram_dedup(cache, mod=1)))
    pd.testing.assert_frame_equal(full, wantf, check_dtype=False)
    assert (full["n_flagged"] >= got["n_flagged"]).all()


@pytest.fixture(scope="module")
def ngram_dir(tmp_path_factory):
    """Planted window-sharing fixture split across two shards: a shared
    8-window between a and b, an internal-repeat-only doc c, a
    too-short doc d, and a cross-shard match e for c."""
    d = tmp_path_factory.mktemp("ngram_tokens")
    rows1 = [
        ("s1-000000000000", [1, 2, 3, 4, 5, 6, 7, 8, 50, 60], "s1"),
        ("s1-000000000001", [99, 1, 2, 3, 4, 5, 6, 7, 8], "s1"),
        ("s1-000000000002", [9] * 20, "s1"),   # self-repeats only
        ("s2-000000000003", [1, 2, 3, 4, 5, 6, 7], "s2"),  # len < n
    ]
    rows2 = [
        ("s2-000000000004", [9] * 8, "s2"),    # shares [9]*8 with c
    ]
    for i, rows in enumerate((rows1, rows2)):
        t = pa.table({
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "tokens": pa.array([r[1] for r in rows],
                               type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
            "source": pa.array([r[2] for r in rows], type=pa.string()),
        })
        pq.write_table(t, str(d / f"shard-{i:05d}.parquet"))
    return str(d)


def test_token_ngram_dedup_edges(ray_session, ngram_dir, monkeypatch):
    _patch_paths(monkeypatch, ngram_dir)
    out = (Q.q_log_token_ngram_dedup("ignored", mod=1)
           .to_pandas().set_index("source"))
    # s1: a+b share window [1..8]; c's repeats are all its OWN -> c not
    # flagged without its cross-shard partner... but e IS present, so c
    # and e share [9]*8 across shards
    assert out.loc["s1", "n_docs"] == 3
    assert out.loc["s1", "n_flagged"] == 3  # a, b, c
    assert out.loc["s2", "n_docs"] == 2
    assert out.loc["s2", "n_flagged"] == 1  # e (d too short)


def test_token_ngram_dedup_self_repeat_not_flagged(
        ray_session, tmp_path, monkeypatch):
    """A window repeated WITHIN one sequence only never flags it."""
    t = pa.table({
        "doc_id": pa.array(["s1-000000000000", "s1-000000000001"],
                           type=pa.string()),
        "tokens": pa.array([[7] * 30, [1, 2, 3, 4, 5, 6, 7, 8]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([30, 8], type=pa.int32()),
        "source": pa.array(["s1", "s1"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_ngram_dedup("ignored", mod=1).to_pandas()
    assert out["n_docs"].tolist() == [2]
    assert out["n_flagged"].tolist() == [0]


def test_source_token_tfidf_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_source_token_tfidf(SF).to_pandas())
    want = _norm(_duck(Q.sql_source_token_tfidf(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_source_token_tfidf(SF).to_pandas()
    # exactly k rows per source; corpus-wide tokens (df == S) score 0,
    # so a top entry with positive score marks a genuinely distinctive
    # token
    assert (s.groupby("source").size() == 5).all()
    assert (s["tfidf"] >= 0).all()


def test_token_stat_ops_empty(ray_session, tmp_path, monkeypatch):
    pq.write_table(synth.SCHEMA.empty_table(),
                   str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_entropy("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "n_tokens", "token_entropy"]
    out = Q.q_log_oov_rate("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "n_tokens", "n_oov", "oov_ppm"]
    out = Q.q_log_seq_len_buckets("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "bucket", "n_seqs",
                                "sum_tokens", "pad_ppm"]
    out = Q.q_log_token_ngram_dedup("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "n_docs", "n_flagged"]
    out = Q.q_log_source_token_tfidf("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "token", "cnt", "tfidf"]


def test_ip_entropy_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_ip_entropy(SF).to_pandas())
    want = _norm(_duck(Q.sql_ip_entropy(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_ip_entropy(SF).to_pandas()
    # 0 <= H <= ln(n_requests); strictly positive with >1 distinct ip
    import numpy as np
    assert (s["ip_entropy"] >= 0).all()
    assert (s["ip_entropy"] <= np.log(s["n_requests"]) + 1e-9).all()


def test_seq_dedup_minhash_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_dedup_minhash(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_dedup_minhash(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_seq_dedup_minhash(SF).to_pandas()
    assert (s["n_flagged"] <= s["n_sig"]).all()
    assert (s["n_sig"] <= s["n_rows"]).all()
    # exact duplicates exist in the synth (seq_dedup proves it) and
    # identical sequences share identical signatures -> some flags
    assert s["n_flagged"].sum() > 0
    # a band collision implies a shared min shingle (up to 64-bit
    # mixing collisions), and shared SAMPLED windows are exactly what
    # the one-window ngram screen flags: minhash flags a subset
    ng = (Q.q_log_token_ngram_dedup(SF).to_pandas().set_index("source"))
    mh = s.set_index("source")
    assert (mh["n_flagged"] <= ng["n_flagged"]).all()


def test_seq_dedup_minhash_planted(ray_session, tmp_path, monkeypatch):
    """Identical and sampled-shingle-identical rows collide in every
    band; disjoint-shingle rows don't; rows without a sampled window
    (or shorter than n) carry no signature."""
    # only position 0 holds a multiple of 8, so the ONE sampled window
    # is tokens[0:8]; the tail is invisible to the sampled shingle set
    base = [8, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17]
    # near-dup: identical sampled shingles, different tail -> identical
    # signatures -> collides in EVERY band (deterministic flag)
    near = base[:-1] + [99]
    rows = [
        ("s1-000000000000", base, "s1"),
        ("s1-000000000001", list(base), "s1"),        # exact dup
        ("s1-000000000002", near, "s1"),              # near dup
        ("s1-000000000003", [16, 9, 9, 9, 9, 9, 9, 9], "s1"),  # unrelated
        ("s1-000000000004", [1, 1, 1, 1, 1, 1, 1, 1, 1], "s1"),  # no sample
        ("s2-000000000005", [1, 2, 3], "s2"),         # too short
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = (Q.q_log_seq_dedup_minhash("ignored").to_pandas()
           .set_index("source"))
    assert out.loc["s1", "n_rows"] == 5
    assert out.loc["s1", "n_sig"] == 4   # the all-1s row has no sample
    assert out.loc["s1", "n_flagged"] == 3  # base, dup, near
    assert out.loc["s2", "n_rows"] == 1
    assert out.loc["s2", "n_sig"] == 0
    assert out.loc["s2", "n_flagged"] == 0
    # fixture invariant: no sampled window start besides position 0
    # (a change anywhere past index 7 can't alter the shingle set)
    assert all(v % 8 != 0 for v in base[1:9])


def test_ngram_novelty_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_ngram_novelty(SF).to_pandas())
    want = _norm(_duck(Q.sql_ngram_novelty(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_ngram_novelty(SF).to_pandas()
    assert set(s["quartile"].unique()) <= {0, 1, 2, 3}
    # quartile 0 contains each source's first doc: it always mints the
    # source's first distinct n-grams
    q0 = s[s["quartile"] == 0].set_index("source")["n_new"]
    assert (q0 > 0).all()


def test_ngram_novelty_planted(ray_session, tmp_path, monkeypatch):
    """First occurrence decides the quartile; repeats never recount;
    unsampled windows are invisible."""
    rows = [
        ("s1-000000000000", [8, 1, 1, 1, 1, 1, 1, 1], "s1"),  # gram A, q0
        ("s1-000000000005", [8, 1, 1, 1, 1, 1, 1, 1], "s1"),  # A again
        ("s1-000000000007", [8, 3, 3, 3, 3, 3, 3, 3], "s1"),  # gram B, q2
        ("s1-000000000009", [8, 4, 4, 4, 4, 4, 4, 4], "s1"),  # gram C, q3
        ("s1-000000000001", [1, 1, 1, 1, 1, 1, 1, 1], "s1"),  # unsampled
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_ngram_novelty("ignored").to_pandas()
    got = {(r.source, r.quartile): r.n_new for r in out.itertuples()}
    # idx range 0..9 -> width 10; q = (fi - 0) * 4 // 10
    assert got == {("s1", 0): 1, ("s1", 2): 1, ("s1", 3): 1}


def test_dup_cluster_sizes_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_dup_cluster_sizes(SF).to_pandas())
    want = _norm(_duck(Q.sql_dup_cluster_sizes(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the histogram must re-derive log_seq_dedup's totals exactly
    s = Q.q_log_dup_cluster_sizes(SF).to_pandas()
    tot = (s.assign(rows=s["copies"] * s["n_clusters"])
           .groupby("source")[["rows", "n_clusters"]].sum())
    full = Q.q_log_seq_dedup(SF).to_pandas().set_index("source")
    assert (tot["rows"] == full["n_rows"]).all()
    assert (tot["n_clusters"] == full["n_uniq_seq"]).all()


def test_dup_cluster_sizes_planted(ray_session, tmp_path, monkeypatch):
    rows = [
        ("s1-000000000000", [1, 2, 3], "s1"),
        ("s1-000000000001", [1, 2, 3], "s1"),
        ("s1-000000000002", [1, 2, 3], "s1"),   # cluster of 3
        ("s1-000000000003", [4, 5], "s1"),      # singleton
        ("s1-000000000004", [6], "s1"),
        ("s1-000000000005", [6], "s1"),         # pair
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_dup_cluster_sizes("ignored").to_pandas()
    got = {(r.source, r.copies): r.n_clusters for r in out.itertuples()}
    assert got == {("s1", 1): 1, ("s1", 2): 1, ("s1", 3): 1}


def test_token_positional_stats_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_positional_stats(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_positional_stats(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    s = Q.q_log_token_positional_stats(SF).to_pandas()
    # bucket token volume re-derives each source's total token count
    tot = s.groupby("source")["n_tokens"].sum()
    drift = Q.q_log_source_drift(SF).to_pandas().set_index("source")
    assert (tot == drift["n_early_tokens"] + drift["n_late_tokens"]).all()
    assert (s["n_distinct"] <= 256).all()
    assert (s["sum_tok"] <= 255 * s["n_tokens"]).all()


def test_token_positional_stats_planted(ray_session, tmp_path, monkeypatch):
    """width=2: buckets split [p0 p1 | p2 p3 | ...]; distinct counts
    are per (source, bucket) across rows."""
    rows = [
        ("s1-000000000000", [10, 10, 20], "s1"),
        ("s1-000000000001", [10, 30], "s1"),
        ("s2-000000000002", [5], "s2"),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
        "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r[1]) for r in rows], type=pa.int32()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_positional_stats("ignored", width=2).to_pandas()
    got = {(r.source, r.pos_bucket): (r.n_tokens, r.sum_tok, r.n_distinct)
           for r in out.itertuples()}
    assert got == {
        ("s1", 0): (4, 60, 2),   # 10,10 / 10,30
        ("s1", 1): (1, 20, 1),   # 20
        ("s2", 0): (1, 5, 1),
    }


def test_cross_source_leakage_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_cross_source_leakage(SF).to_pandas())
    want = _norm(_duck(Q.sql_cross_source_leakage(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the synthesizer reuses lines across sources: leakage must exist
    assert got["n_shared"].sum() > 0
    assert (got["src_a"] < got["src_b"]).all()


def test_cross_source_leakage_planted(ray_session, tmp_path, monkeypatch):
    """Shared sequence counted once per pair regardless of copy count;
    within-source duplicates never pair; shards split the evidence."""
    t1 = pa.table({
        "doc_id": pa.array(["a-000000000000", "a-000000000001",
                            "a-000000000002"], type=pa.string()),
        "tokens": pa.array([[1, 2], [1, 2], [9]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 2, 1], type=pa.int32()),
        "source": pa.array(["s1", "s1", "s3"], type=pa.string()),
    })
    t2 = pa.table({
        "doc_id": pa.array(["b-000000000003", "b-000000000004",
                            "b-000000000005"], type=pa.string()),
        "tokens": pa.array([[1, 2], [9], [7, 7]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1, 2], type=pa.int32()),
        "source": pa.array(["s2", "s2", "s2"], type=pa.string()),
    })
    pq.write_table(t1, str(tmp_path / "shard-00000.parquet"))
    pq.write_table(t2, str(tmp_path / "shard-00001.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_cross_source_leakage("ignored").to_pandas()
    got = {(r.src_a, r.src_b): r.n_shared for r in out.itertuples()}
    assert got == {("s1", "s2"): 1, ("s2", "s3"): 1}


def test_token_pmi_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_pmi(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_pmi(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) == 32


def test_token_pmi_planted(ray_session, tmp_path, monkeypatch):
    """A rare-but-always-together pair outranks a frequent independent
    one; min_cnt floors singles; pairs never cross row boundaries."""
    rows = [[7, 9]] * 5 + [[1, 2, 1, 3, 1, 4, 1, 5, 1]] * 5 + [[250, 251]]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(len(rows))],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s"] * len(rows), type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_pmi("ignored", k=8, min_cnt=5).to_pandas()
    # (250,251) occurs once -> floored out entirely
    assert not ((out.a == 250) & (out.b == 251)).any()
    # (7,9) is a perfect collocation: top rank; total pairs N = 46
    # (5 + 5*8 + 1 — the floored pair still counts in N and marginals)
    assert (out.iloc[0].a, out.iloc[0].b) == (7, 9)
    import math
    assert out.iloc[0].pmi == round(math.log(46 * 5 / (5 * 5)), 6)
    # the frequent-but-independent (1,x) family ranks below (7,9)
    assert out.iloc[0].pmi > out[(out.a == 1)].pmi.max()


def test_pack_doc_mix_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_doc_mix(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_doc_mix(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # histogram covers every packed sequence exactly once
    total = _duck(f"SELECT CAST(CEIL(SUM(n_tok) / 512.0) AS BIGINT) AS n "
                  f"FROM read_parquet('{cache}/shard-*.parquet')")
    assert got.n_seqs.sum() == total.n.iloc[0]


def test_pack_doc_mix_planted(ray_session, tmp_path, monkeypatch):
    """seq_len=4 over docs [3,3,2,5,1]: stream cuts at 4/8/12 ->
    seqs span {d0,d1}, {d1,d2}, {d3}, {d3,d4}; zero-length docs never
    count; shards split the stream."""
    t1 = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(3)],
                           type=pa.string()),
        "tokens": pa.array([[1, 1, 1], [2, 2, 2], [3, 3]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([3, 3, 2], type=pa.int32()),
        "source": pa.array(["s"] * 3, type=pa.string()),
    })
    t2 = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(3, 6)],
                           type=pa.string()),
        "tokens": pa.array([[4, 4, 4, 4, 4], [], [5]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([5, 0, 1], type=pa.int32()),
        "source": pa.array(["s"] * 3, type=pa.string()),
    })
    pq.write_table(t1, str(tmp_path / "shard-00000.parquet"))
    pq.write_table(t2, str(tmp_path / "shard-00001.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_pack_doc_mix("ignored", seq_len=4).to_pandas()
    got = dict(zip(out.n_docs, out.n_seqs))
    # stream: 111 222 33 44444 5 (14 tokens, 4 seqs of len 4)
    # seq0=[1112] 2 docs, seq1=[2233] 2 docs, seq2=[4444] 1 doc,
    # seq3=[45] 2 docs (the empty doc contributes nothing)
    assert got == {1: 1, 2: 3}


def test_seq_dominant_ratio_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_dominant_ratio(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_dominant_ratio(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    n_docs = _duck(f"SELECT COUNT(*) AS n FROM "
                   f"read_parquet('{cache}/shard-*.parquet') "
                   f"WHERE n_tok > 0")
    assert got.n_seqs.sum() == n_docs.n.iloc[0]


def test_seq_dominant_ratio_planted(ray_session, tmp_path, monkeypatch):
    """Constant payload lands in decile 10; an even 2-token split in
    decile 5; 3-of-7 dominance floors to decile 4 (428571 ppm)."""
    rows = [[5, 5, 5, 5], [1, 2, 1, 2], [1, 1, 1, 2, 3, 4, 5]]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(3)],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s1", "s1", "s2"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_seq_dominant_ratio("ignored").to_pandas()
    got = {(r.source, r.decile): r.n_seqs for r in out.itertuples()}
    assert got == {("s1", 10): 1, ("s1", 5): 1, ("s2", 4): 1}


def test_token_burstiness_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_burstiness(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_burstiness(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # total occurrences reconcile with the corpus token volume
    tot = _duck(f"SELECT CAST(SUM(n_tok) AS BIGINT) AS n FROM "
                f"read_parquet('{cache}/shard-*.parquet')")
    assert got.n_occ.sum() == tot.n.iloc[0]
    # sum_sq >= n_occ always (c^2 >= c), equality iff never repeated
    assert (got.sum_sq >= got.n_occ).all()


def test_token_burstiness_planted(ray_session, tmp_path, monkeypatch):
    """Bursty token (4 occurrences in ONE row) vs spread token (4 rows
    x 1): same n_occ, different sum_sq/n_seqs; shards split rows."""
    t1 = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(2)],
                           type=pa.string()),
        "tokens": pa.array([[7, 7, 7, 7, 3], [3]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([5, 1], type=pa.int32()),
        "source": pa.array(["s", "s"], type=pa.string()),
    })
    t2 = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(2, 4)],
                           type=pa.string()),
        "tokens": pa.array([[3], [3]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], type=pa.int32()),
        "source": pa.array(["s", "s"], type=pa.string()),
    })
    pq.write_table(t1, str(tmp_path / "shard-00000.parquet"))
    pq.write_table(t2, str(tmp_path / "shard-00001.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_burstiness("ignored").to_pandas()
    got = {r.token: (r.n_occ, r.sum_sq, r.n_seqs) for r in out.itertuples()}
    assert got == {7: (4, 16, 1), 3: (4, 4, 4)}


def test_pack_source_purity_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_source_purity(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_source_purity(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # every packed sequence appears exactly once in the histogram
    total = _duck(f"SELECT CAST(CEIL(SUM(n_tok) / 512.0) AS BIGINT) AS n "
                  f"FROM read_parquet('{cache}/shard-*.parquet')")
    assert got.n_seqs.sum() == total.n.iloc[0]


def test_pack_source_purity_planted(ray_session, tmp_path, monkeypatch):
    """seq_len=4 over docs [3(sA), 3(sB), 2(sA), 5(sC), 1(sA)]:
    seq0 mixes {A,B}, seq1 {B,A}, seq2 {C}, seq3 {C,A}; two docs of
    the SAME source in one seq count once."""
    t1 = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(3)],
                           type=pa.string()),
        "tokens": pa.array([[1, 1, 1], [2, 2, 2], [3, 3]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([3, 3, 2], type=pa.int32()),
        "source": pa.array(["sA", "sB", "sA"], type=pa.string()),
    })
    t2 = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(3, 5)],
                           type=pa.string()),
        "tokens": pa.array([[4, 4, 4, 4, 4], [5]],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([5, 1], type=pa.int32()),
        "source": pa.array(["sC", "sA"], type=pa.string()),
    })
    pq.write_table(t1, str(tmp_path / "shard-00000.parquet"))
    pq.write_table(t2, str(tmp_path / "shard-00001.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_pack_source_purity("ignored", seq_len=4).to_pandas()
    got = dict(zip(out.n_sources, out.n_seqs))
    # stream: 111 222 33 44444 5 -> seqs [1112][2233][4444][45]
    # sources {A,B} {B,A} {C} {C,A}
    assert got == {1: 1, 2: 3}


def test_token_run_lengths_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_run_lengths(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_run_lengths(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # run lengths weighted by count reconcile with total token volume
    tot = _duck(f"SELECT CAST(SUM(n_tok) AS BIGINT) AS n FROM "
                f"read_parquet('{cache}/shard-*.parquet')")
    assert (got.run_len * got.n_runs).sum() == tot.n.iloc[0]


def test_token_run_lengths_planted(ray_session, tmp_path, monkeypatch):
    """Runs break at row boundaries (trailing 7s + leading 7s stay two
    runs) and at value changes; empty rows contribute nothing."""
    rows = [[7, 7, 7], [7, 7, 1], [], [1, 1, 1, 1]]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(len(rows))],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s"] * len(rows), type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_run_lengths("ignored").to_pandas()
    got = dict(zip(out.run_len, out.n_runs))
    # runs: [777] [77] [1] [1111] -> lens 3,2,1,4
    assert got == {1: 1, 2: 1, 3: 1, 4: 1}


def test_seq_len_percentiles_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_len_percentiles(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_len_percentiles(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert (got.p50 <= got.p90).all() and (got.p90 <= got.p99).all()


def test_seq_len_percentiles_planted(ray_session, tmp_path, monkeypatch):
    """Rank boundaries pinned: n=4 lengths [1,2,3,4] -> p50 is the
    2nd order statistic (100*cum >= 50*n with equality), p90/p99 the
    4th; a second source with n=5 -> p50 = ceil(2.5) = 3rd."""
    rows_s1 = [[1], [2, 2], [3, 3, 3], [4, 4, 4, 4]]
    rows_s2 = [[1], [2, 2], [3, 3, 3], [4, 4, 4, 4], [5] * 5]
    rows = rows_s1 + rows_s2
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(len(rows))],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s1"] * 4 + ["s2"] * 5, type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_seq_len_percentiles("ignored").to_pandas()
    got = {r.source: (r.p50, r.p90, r.p99) for r in out.itertuples()}
    assert got == {"s1": (2, 4, 4), "s2": (3, 5, 5)}


def test_token_zipf_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_token_zipf(SF).to_pandas())
    want = _norm(_duck(Q.sql_token_zipf(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # log-shaped byte payloads are Zipf-ish: strictly negative slopes
    assert (got.slope < 0).all()


def test_token_zipf_planted(ray_session, tmp_path, monkeypatch):
    """Exact slope on a hand-computable distribution: counts 4/2/1 for
    tokens 5/6/7 -> ranks 1/2/3; rank ties break by token id (two
    count-2 tokens order 6 then 9)."""
    import math

    rows = [[5, 5, 5, 5, 6, 6, 7], [9, 9, 6, 5]]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(2)],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s1", "s1"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_token_zipf("ignored").to_pandas()
    # counts: 5->5, 6->3, 9->2, 7->1 ; ranks 1..4 by (cnt desc, tok)
    x = [math.log(r) for r in (1, 2, 3, 4)]
    y = [math.log(c) for c in (5, 3, 2, 1)]
    xm, ym = sum(x) / 4, sum(y) / 4
    slope = (sum((a - xm) * (b - ym) for a, b in zip(x, y))
             / sum((a - xm) ** 2 for a in x))
    assert out.n_distinct.iloc[0] == 4
    assert out.slope.iloc[0] == round(slope, 6)


def test_dup_gap_histogram_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_dup_gap_histogram(SF).to_pandas())
    want = _norm(_duck(Q.sql_dup_gap_histogram(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # pair count reconciles with cluster sizes: sum(copies - 1)
    cl = _duck(f"SELECT CAST(SUM(c - 1) AS BIGINT) AS n FROM "
               f"(SELECT COUNT(*) AS c FROM "
               f"read_parquet('{cache}/shard-*.parquet') "
               f"GROUP BY tokens) WHERE c > 1")
    assert got.n_pairs.sum() == cl.n.iloc[0]


def test_dup_gap_histogram_planted(ray_session, tmp_path, monkeypatch):
    """Copies at idx 0/1/9: gaps 1 (bucket 0) and 8 (bucket 3);
    consecutive-copy gaps only (never 0->9); singletons contribute
    nothing; shards split the copies."""
    t1 = pa.table({
        "doc_id": pa.array(["a-000000000000", "a-000000000001"],
                           type=pa.string()),
        "tokens": pa.array([[1, 2], [1, 2]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 2], type=pa.int32()),
        "source": pa.array(["s", "s"], type=pa.string()),
    })
    t2 = pa.table({
        "doc_id": pa.array(["a-000000000009", "a-000000000012"],
                           type=pa.string()),
        "tokens": pa.array([[1, 2], [7]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1], type=pa.int32()),
        "source": pa.array(["s", "s"], type=pa.string()),
    })
    pq.write_table(t1, str(tmp_path / "shard-00000.parquet"))
    pq.write_table(t2, str(tmp_path / "shard-00001.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_dup_gap_histogram("ignored").to_pandas()
    got = dict(zip(out.gap_bucket, out.n_pairs))
    assert got == {0: 1, 3: 1}


def test_decontaminate_eval_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_decontaminate_eval(SF).to_pandas())
    want = _norm(_duck(Q.sql_decontaminate_eval(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the synthesizer reuses lines: eval leakage must be detected
    assert got.n_flagged.sum() > 0
    assert (got.n_flagged <= got.n_rows).all()


def test_decontaminate_eval_planted(ray_session, tmp_path, monkeypatch):
    """idx 0 is eval (every=2 here): a train row sharing its sampled
    window flags; a disjoint train row doesn't; eval rows are excluded
    from n_rows entirely."""
    seq = list(range(0, 16))            # eval, idx 0
    leaky = list(range(0, 16))          # train dup of eval, idx 1
    clean = list(range(101, 117))       # train, idx 3 (no sampled overlap)
    evl2 = list(range(50, 58))          # eval, idx 2
    rows = [seq, leaky, evl2, clean]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(len(rows))],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s1", "s1", "s2", "s2"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_decontaminate_eval("ignored", every=2).to_pandas()
    got = {r.source: (r.n_rows, r.n_flagged) for r in out.itertuples()}
    assert got == {"s1": (1, 1), "s2": (1, 0)}


def test_source_minhash_sim_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_source_minhash_sim(SF).to_pandas())
    want = _norm(_duck(Q.sql_source_minhash_sim(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the synthesizer reuses lines across sources: some pair must agree
    assert got.n_match.sum() > 0
    assert (got.n_match <= 8).all()


def test_source_minhash_sim_planted(ray_session, tmp_path, monkeypatch):
    """Identical shingle sets -> all 8 components match; a disjoint
    source matches neither (its sampled windows differ)."""
    seq = list(range(0, 16))          # windows sampled at key%8==0
    other = list(range(100, 116))
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(3)],
                           type=pa.string()),
        "tokens": pa.array([seq, seq, other], type=pa.list_(pa.int32())),
        "n_tok": pa.array([16, 16, 16], type=pa.int32()),
        "source": pa.array(["s1", "s2", "s3"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_source_minhash_sim("ignored").to_pandas()
    got = {(r.src_a, r.src_b): r.n_match for r in out.itertuples()}
    assert got.get(("s1", "s2")) == 8
    assert ("s1", "s3") not in got and ("s2", "s3") not in got


def test_seq_internal_repeats_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_seq_internal_repeats(SF).to_pandas())
    want = _norm(_duck(Q.sql_seq_internal_repeats(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert (got.n_rep_windows >= got.n_seqs_repeat).all()


def test_seq_internal_repeats_planted(ray_session, tmp_path, monkeypatch):
    """[1..8]x2 concatenated: windows repeat (9 of 9 distinct... the
    repeated copy makes positions 0 and 8 identical -> rep mass 1 per
    repeated alignment); a pure loop [7]*16 has 9 windows, 1 distinct
    -> rep 8; short and diverse rows contribute zeros."""
    rows = [
        list(range(1, 9)) * 2,   # window at pos 0 == pos 8 -> rep 1
        [7] * 16,                # 9 identical windows -> rep 8
        list(range(20, 28)),     # single window, no repeat
        [1, 2, 3],               # too short: no windows
    ]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(len(rows))],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s1", "s1", "s2", "s2"], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = Q.q_log_seq_internal_repeats("ignored").to_pandas()
    got = {r.source: (r.n_seqs_repeat, r.n_rep_windows)
           for r in out.itertuples()}
    assert got == {"s1": (2, 9), "s2": (0, 0)}


def test_pack_tokens_curated_vs_duckdb(ray_session, cache):
    got = _norm(Q.q_log_pack_tokens_curated(SF).to_pandas())
    want = _norm(_duck(Q.sql_pack_tokens_curated(cache)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # curated output is a subset-stream of plain dedup (equality when
    # the synth corpus has no gate-tripping payloads at this scale;
    # gate bite itself is pinned by the planted fixture below)
    dedup_only = Q.q_log_pack_tokens_dedup(SF).to_pandas()
    assert got.n_frag_tokens.sum() <= dedup_only.n_frag_tokens.sum()


def test_pack_tokens_curated_planted(ray_session, tmp_path, monkeypatch):
    """Gate order pinned: a near-constant EARLY copy is dropped by the
    quality gate and must NOT shadow a later duplicate; runts go; the
    survivor stream packs contiguously."""
    rows = [
        [9, 9, 9, 9, 9, 9, 9, 1],   # idx 0: dominant 7/8 = 875000 ppm, kept
        [1, 2],                     # idx 1: runt (< 4), dropped
        [5, 5, 5, 5, 5],            # idx 2: constant -> 1e6 ppm, dropped
        [1, 2, 3, 4],               # idx 3: kept
        [1, 2, 3, 4],               # idx 4: dup of idx 3, dropped by dedup
        [5, 5, 5, 5, 5, 6, 7, 8],   # idx 5: 5/8 = 625000 ppm, kept
    ]
    t = pa.table({
        "doc_id": pa.array([f"a-{i:012d}" for i in range(len(rows))],
                           type=pa.string()),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["s"] * len(rows), type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    out = (Q.q_log_pack_tokens_curated("ignored", seq_len=8)
           .to_pandas().sort_values(["seq_id", "doc_id"]))
    # survivor stream: idx0 (8 toks) | idx3 (4) | idx5 (8) = 20 tokens
    kept = set(out.doc_id)
    assert kept == {"a-000000000000", "a-000000000003", "a-000000000005"}
    assert out.n_frag_tokens.sum() == 20
    # idx3's fragment starts seq 1 at offset 8
    frag3 = out[out.doc_id == "a-000000000003"]
    assert list(frag3.seq_id) == [1] and list(frag3.n_frag_tokens) == [4]


# (engine call, gate) pairs of the six window-key screens; token
# ngram dedup also at mod=1 (every window) and mod=3 (mod does not
# divide 256: every window packed, then key % 3 filtered)
_WINDOW_SCREENS = {
    "token_ngram_dedup": (Q.q_log_token_ngram_dedup,
                          Q.sql_token_ngram_dedup, {}),
    "token_ngram_dedup_mod1": (Q.q_log_token_ngram_dedup,
                               Q.sql_token_ngram_dedup, {"mod": 1}),
    "token_ngram_dedup_mod3": (Q.q_log_token_ngram_dedup,
                               Q.sql_token_ngram_dedup, {"mod": 3}),
    "seq_dedup_minhash": (Q.q_log_seq_dedup_minhash,
                          Q.sql_seq_dedup_minhash, {}),
    "decontaminate_eval": (Q.q_log_decontaminate_eval,
                           Q.sql_decontaminate_eval, {}),
    "seq_internal_repeats": (Q.q_log_seq_internal_repeats,
                             Q.sql_seq_internal_repeats, {}),
    "source_minhash_sim": (Q.q_log_source_minhash_sim,
                           Q.sql_source_minhash_sim, {}),
    "ngram_novelty": (Q.q_log_ngram_novelty, Q.sql_ngram_novelty, {}),
}


@pytest.mark.parametrize("last", [("hello wCat one", "s1"),
                                  ("pppp yyyy", "s1")])
@pytest.mark.parametrize("screen", sorted(_WINDOW_SCREENS))
def test_window_screens_equal_gates_on_non_ascii(
        ray_session, tmp_path, monkeypatch, screen, last):
    """UTF-8 'Ã' is bytes 0xC3 0x83, and 0xC3 differs from 'C' (0x43)
    only in bit 7: the windows ending at 'C' and at 0xC3 share the
    gates' key, so every engine screen must count them as one window,
    exactly like its SQL gate."""
    from sbo_ray.codec import encode_lines

    rows = [("hello wCat one", "s0"), ("hello wÃat two", "s1"),
            ("qqqq zzzz", "s0"), last]
    t = pa.table({
        "doc_id": pa.array([f"{s}-{i:012d}" for i, (_, s) in enumerate(rows)],
                           type=pa.string()),
        "tokens": encode_lines([r for r, _ in rows]),
        "n_tok": pa.array([len(r.encode()) for r, _ in rows],
                          type=pa.int32()),
        "source": pa.array([s for _, s in rows], type=pa.string()),
    })
    pq.write_table(t, str(tmp_path / "shard-00000.parquet"))
    _patch_paths(monkeypatch, str(tmp_path))
    q, sql, kw = _WINDOW_SCREENS[screen]
    got = _norm(q("ignored", **kw).to_pandas())
    want = _norm(_duck(sql(str(tmp_path), **kw)))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
