"""Empty-input behavior: Ray's empty-Dataset ``to_pandas()`` loses
column schema (CLAUDE.md soft spot); callers that sort/select columns on
a materialized aggregate must go through
``logpipe.to_pandas_with_schema`` or an explicit typed-empty guard
(VERDICT r2 item 5, ADVICE r2 simhash finding)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sbo_ray import synth
from sbo_ray.config import JobConfig
from sbo_ray.pipelines import logpipe


@pytest.fixture(scope="module")
def empty_token_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_tokens")
    pq.write_table(synth.SCHEMA.empty_table(), str(d / "shard-0000.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def empty_doc_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_docs")
    pq.write_table(
        pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                   ("lang", pa.string()), ("n_chars", pa.int64())]).empty_table(),
        str(d / "documents.parquet"),
    )
    return str(d)


def _job():
    return JobConfig.from_format_map(synth.source_config(2))


def test_top_n_dataset_empty(ray_session, empty_token_dir):
    enr = logpipe.enriched_dataset(
        sorted([f"{empty_token_dir}/shard-0000.parquet"]), _job())
    kc = logpipe.keyed_counters_dataset(enr)
    out = logpipe.top_n_dataset(kc, "paths", n=5)
    assert out.num_rows == 0
    assert out.schema.names == ["source", "key_value", "cnt"]


def test_distinct_clients_empty(ray_session, empty_token_dir, monkeypatch):
    from sbo_ray.pipelines import queries as Q

    monkeypatch.setattr(
        Q, "_input_paths", lambda sf: [f"{empty_token_dir}/shard-0000.parquet"])
    monkeypatch.setattr(Q, "_job", _job)
    out = Q.q_log_distinct_clients("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "n_clients"]


def test_parse_stats_empty(ray_session, empty_token_dir, monkeypatch):
    from sbo_ray.pipelines import queries as Q

    monkeypatch.setattr(
        Q, "_input_paths", lambda sf: [f"{empty_token_dir}/shard-0000.parquet"])
    monkeypatch.setattr(Q, "_job", _job)
    out = Q.q_log_parse_stats("ignored")
    assert out.num_rows == 0
    assert out.schema.names == ["source", "total_lines", "parsed", "parse_errors"]


def test_simhash_empty_documents(ray_session, empty_doc_dir):
    from sbo_ray.pipelines.dp_dedup import doc_dedup_simhash

    out = doc_dedup_simhash(empty_doc_dir)
    assert out.num_rows == 0
    assert out.schema.names == ["id_a", "id_b", "hamming"]
    assert out.schema.field("id_a").type == pa.int64()


def test_dedup_family_empty_documents(ray_session, empty_doc_dir):
    from sbo_ray.pipelines import dp_dedup, dp_retrieval, dp_text

    for fn, cols in (
        (dp_dedup.doc_dedup_minhash, ["id_a", "id_b", "jaccard"]),
        (dp_dedup.doc_dedup_ngram, ["id_a", "id_b", "jaccard"]),
        (dp_dedup.doc_dedup_clusters, ["doc_id", "cluster_id"]),
        (dp_dedup.doc_dedup_clusters_lp, ["doc_id", "cluster_id"]),
        (dp_text.doc_group_topk, ["doc_id", "lang", "n_chars", "rnk"]),
        (dp_retrieval.doc_tfidf, ["doc_id", "token", "score", "rnk"]),
        (dp_retrieval.doc_unigram_logprob, ["doc_id", "n_tokens",
                                            "avg_neg_logprob"]),
        (dp_text.doc_pack_sequences, ["doc_id", "n_tokens", "tok_offset",
                                      "seq_first", "seq_last"]),
        (dp_text.doc_pack_materialize, ["doc_id", "seq_id",
                                        "n_frag_tokens", "frag_text"]),
    ):
        out = fn(empty_doc_dir)
        if hasattr(out, "count"):  # Dataset-returning ops (r5 pack)
            assert out.count() == 0, fn.__name__
            assert out.schema().names == cols, fn.__name__
        else:
            assert out.num_rows == 0, fn.__name__
            assert out.schema.names == cols, fn.__name__
    # streaming scan ops return a Dataset; empty input -> zero rows
    assert dp_dedup.doc_decontaminate_ngram(empty_doc_dir).count() == 0


@pytest.fixture(scope="module")
def empty_events_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_events")
    pq.write_table(
        pa.schema([("event_id", pa.int64()),
                   ("ts", pa.timestamp("us")),
                   ("user_id", pa.int64()),
                   ("event_type", pa.string()),
                   ("value", pa.float64()),
                   ("props", pa.string())]).empty_table(),
        str(d / "events.parquet"),
    )
    return str(d)


@pytest.fixture(scope="module")
def empty_emb_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("empty_embeddings")
    pq.write_table(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float32())),
                   ("label", pa.int32())]).empty_table(),
        str(d / "embeddings.parquet"),
    )
    return str(d)


_I64, _F64, _TS, _STR = (pa.int64(), pa.float64(), pa.timestamp("us"),
                         pa.string())
_SESSION_COLS = [("user_id", _I64), ("session_start", _TS),
                 ("session_end", _TS), ("n_events", _I64),
                 ("sum_value", _F64)]


@pytest.mark.parametrize("name, table, cols", [
    ("events_sessionize", "events", _SESSION_COLS),
    ("events_sessionize_salted", "events", _SESSION_COLS),
    ("events_running_total", "events",
     [("event_id", _I64), ("user_id", _I64), ("ts", _TS),
      ("running_n", _I64), ("running_value", _F64)]),
    ("events_user_features", "events",
     [("user_id", _I64), ("n_events", _I64), ("total_value", _F64),
      ("n_event_types", _I64), ("first_ts", _TS), ("last_ts", _TS),
      ("n_active_days", _I64)]),
    ("events_asof_join", "events",
     [("event_id", _I64), ("user_id", _I64), ("ts", _TS),
      ("matched_event_id", _I64), ("gap_us", _I64)]),
    ("events_window_join", "events",
     [("event_id", _I64), ("user_id", _I64), ("ts", _TS),
      ("n_right", _I64), ("sum_right_value", _F64)]),
    ("doc_paragraph_dedup", "documents",
     [("doc_id", _I64), ("para_idx", _I64), ("para", _STR)]),
    ("doc_dedup_exact", "documents", [("doc_id", _I64), ("n_dupes", _I64)]),
    ("doc_curation_pipeline", "documents",
     [("doc_id", _I64), ("n_tokens", _I64), ("n_stop_en", _I64)]),
    ("events_funnel", "events",
     [("user_id", _I64), ("max_stage", _I64), ("t_stage1_us", _I64),
      ("t_stage2_us", _I64), ("t_stage3_us", _I64)]),
    ("emb_knn_join", "embeddings",
     [("vec_id", _I64), ("neighbor_id", _I64), ("cos", _F64),
      ("rnk", _I64)]),
    ("doc_emb_curation", "documents",
     [("doc_id", _I64), ("n_tokens", _I64), ("cos_mean", _F64)]),
])
def test_per_row_exchange_ops_empty(ray_session, empty_events_dir,
                                    empty_doc_dir, empty_emb_dir, name,
                                    table, cols):
    """Per-row hash-exchange ops over an empty events/documents/
    embeddings table return a zero-row Dataset with the op's declared
    columns and types (every partition takes the combine's typed
    empty), never a zero-column one."""
    from sbo_ray.pipelines.dataqueries import data_queries

    d = {"events": empty_events_dir, "documents": empty_doc_dir,
         "embeddings": empty_emb_dir}[table]
    out = data_queries()[name](d)
    assert out.count() == 0
    schema = out.schema()
    assert list(zip(schema.names, schema.types)) == cols


@pytest.mark.parametrize("name, cols", [
    ("events_transitions", [("from_type", _STR), ("to_type", _STR),
                            ("n", _I64)]),
    ("events_retention", [("cohort_day", _TS), ("offset_days", _I64),
                          ("n_users", _I64)]),
    ("events_sliding_distinct", [("window_start", _TS), ("n_users", _I64)]),
    ("events_attribution", [("touch_type", _STR), ("n_purchases", _I64),
                            ("total_value", _F64)]),
    ("events_cohort_ltv", [("cohort_week", _I64), ("age_weeks", _I64),
                           ("n_users", _I64), ("n_events", _I64),
                           ("revenue", _F64)]),
])
def test_bounded_event_ops_empty(ray_session, empty_events_dir, name, cols):
    """Bounded hash-exchange event ops over an empty events table: a
    zero-row table with the op's columns and types (the typed empty of
    the driver's keyed sum), never an untyped or null column."""
    from sbo_ray.pipelines.dataqueries import data_queries

    out = data_queries()[name](empty_events_dir)
    assert out.num_rows == 0
    assert list(zip(out.schema.names, out.schema.types)) == cols


def test_quantize_sq8_empty_embeddings(ray_session, tmp_path):
    from sbo_ray.pipelines.dp_emb import emb_quantize_sq8

    pq.write_table(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float32())),
                   ("label", pa.int32())]).empty_table(),
        str(tmp_path / "embeddings.parquet"),
    )
    out = emb_quantize_sq8(str(tmp_path))
    assert out.count() == 0
    assert out.schema().names == ["vec_id", "codes"]


def test_pq_empty_embeddings(ray_session, tmp_path):
    from sbo_ray.pipelines.dp_emb import emb_ann_pq, emb_pq_codes

    pq.write_table(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float32())),
                   ("label", pa.int32())]).empty_table(),
        str(tmp_path / "embeddings.parquet"),
    )
    out = emb_pq_codes(str(tmp_path))
    assert out.count() == 0
    assert out.schema().names == ["vec_id", "codes"]
    ann = emb_ann_pq(str(tmp_path))
    assert ann.num_rows == 0
    assert ann.schema.names == ["vec_id", "adc"]


def test_bigrams_weighted_empty_documents(ray_session, empty_doc_dir):
    from sbo_ray.pipelines.dp_dedup import doc_sample_weighted
    from sbo_ray.pipelines.dp_text import doc_vocab_bigrams

    out = doc_vocab_bigrams(empty_doc_dir)
    assert out.num_rows == 0
    assert out.schema.names == ["bigram", "n"]
    w = doc_sample_weighted(empty_doc_dir)
    assert w.num_rows == 0
    assert w.schema.names == ["doc_id", "wkey"]


def test_outlier_scores_empty_embeddings(ray_session, tmp_path):
    from sbo_ray.pipelines.dp_emb import emb_outlier_scores

    pq.write_table(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float32())),
                   ("label", pa.int32())]).empty_table(),
        str(tmp_path / "embeddings.parquet"),
    )
    out = emb_outlier_scores(str(tmp_path))
    assert out.count() == 0
    assert out.schema().names == ["vec_id", "cos_mean", "is_outlier"]


def test_covariance_pca_empty_embeddings(ray_session, tmp_path):
    from sbo_ray.pipelines.dp_emb import emb_covariance, emb_pca_project

    pq.write_table(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float32())),
                   ("label", pa.int32())]).empty_table(),
        str(tmp_path / "embeddings.parquet"),
    )
    cov = emb_covariance(str(tmp_path))
    assert cov.num_rows == 0
    assert cov.schema.names == ["dim_i", "dim_j", "cov"]
    p = emb_pca_project(str(tmp_path))
    assert p.count() == 0
    assert p.schema().names == ["vec_id", "proj"]


def test_raw_task_pair_ops_empty_embeddings(ray_session, tmp_path):
    """The raw-task chunk-pair ops must survive a schemaless empty read
    (zero-row blocks are dropped by metadata before slicing)."""
    from sbo_ray.pipelines.dp_dedup import emb_dedup_cosine
    from sbo_ray.pipelines.dp_emb import emb_semdedup

    pq.write_table(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float32())),
                   ("label", pa.int32())]).empty_table(),
        str(tmp_path / "embeddings.parquet"),
    )
    out = emb_dedup_cosine(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["id_a", "id_b", "cos"]
    sem = emb_semdedup(str(tmp_path))
    assert sem.count() == 0
    assert sem.schema().names == ["vec_id", "rep_id", "cluster"]


def test_late_r5_token_ops_empty(ray_session, empty_token_dir, monkeypatch):
    """Every late-r5 token operator returns a ZERO-row, full-schema
    result on an empty shard (no schemaless empty-Dataset leak, no
    div-by-zero in the integer folds)."""
    from sbo_ray.pipelines import queries as Q

    monkeypatch.setattr(
        Q, "_input_paths",
        lambda sf: [f"{empty_token_dir}/shard-0000.parquet"])
    cases = [
        (Q.q_log_cross_source_leakage, ["src_a", "src_b", "n_shared"]),
        (Q.q_log_token_pmi, ["a", "b", "cnt", "pmi"]),
        (Q.q_log_pack_doc_mix, ["n_docs", "n_seqs"]),
        (Q.q_log_pack_source_purity, ["n_sources", "n_seqs"]),
        (Q.q_log_seq_dominant_ratio, ["source", "decile", "n_seqs"]),
        (Q.q_log_token_burstiness,
         ["token", "n_occ", "sum_sq", "n_seqs"]),
        (Q.q_log_token_run_lengths, ["run_len", "n_runs"]),
        (Q.q_log_seq_len_percentiles, ["source", "p50", "p90", "p99"]),
        (Q.q_log_source_minhash_sim, ["src_a", "src_b", "n_match"]),
        (Q.q_log_seq_internal_repeats,
         ["source", "n_seqs_repeat", "n_rep_windows"]),
    ]
    for fn, cols in cases:
        out = fn("ignored")
        assert out.num_rows == 0, fn.__name__
        assert out.schema.names == cols, fn.__name__
    # the curated pack returns a (lazy) Dataset; materialize
    packed = Q.q_log_pack_tokens_curated("ignored")
    import ray.data as rd

    assert isinstance(packed, rd.Dataset)
    assert packed.count() == 0


@pytest.mark.parametrize("name, cols", [
    ("q_log_status_class_counts", ["source", "status_class", "cnt"]),
    ("q_log_geo_counts", ["source", "geo", "cnt"]),
    ("q_log_distinct_clients_hll", ["source", "n_clients_est"]),
    # the raw-task hash-exchange log ops (exchange.part_exchange)
    ("q_log_distinct_clients", ["source", "n_clients"]),
    ("q_log_sessionize", ["source", "client_ip", "session_start",
                          "session_end", "n_requests"]),
    ("q_log_ip_entropy", ["source", "n_requests", "ip_entropy"]),
    ("q_log_seq_dedup", ["source", "n_rows", "n_uniq_seq", "n_dup_rows"]),
    ("q_log_seq_dedup_prefix", ["source", "n_rows", "n_uniq_prefix",
                                "n_dup_rows"]),
    ("q_log_dup_gap_histogram", ["gap_bucket", "n_pairs"]),
    ("q_log_dup_cluster_sizes", ["source", "copies", "n_clusters"]),
    ("q_log_cross_source_leakage", ["src_a", "src_b", "n_shared"]),
])
def test_log_block_folds_empty(ray_session, empty_token_dir, monkeypatch,
                               name, cols):
    """Bounded per-block folds and hash-exchange log ops over an empty
    token table: zero batches reach the driver (no block reaches a
    shard task, every partition takes the combine's empty rule), and
    the result is still typed, no null column, with the gate's columns:
    a table for the bounded ops (the seeded concats of
    exchange.fold/gather), a Dataset over the typed partition empties
    for the per-row sessionize."""
    import ray.data as rd

    from sbo_ray.pipelines import queries as Q

    monkeypatch.setattr(
        Q, "_input_paths", lambda sf: [f"{empty_token_dir}/shard-0000.parquet"])
    monkeypatch.setattr(Q, "_job", _job)
    out = getattr(Q, name)("ignored")
    if isinstance(out, rd.Dataset):
        assert out.count() == 0
        schema = out.schema()
    else:
        assert out.num_rows == 0
        schema = out.schema
    assert schema.names == cols
    assert not any(pa.types.is_null(t) for t in schema.types), schema


def test_semi_join_empty_orders(ray_session, tmp_path):
    """orders_with_returns with no orders but returned lineitems: a
    semi-join with an empty side is a typed empty table (no combine
    task may see key shards without any order table)."""
    from sbo_ray.pipelines.dp_rel_events import orders_with_returns
    from sbo_ray.pipelines.queries import SF_CORRECTNESS

    sf = os.path.join(os.path.dirname(SF_CORRECTNESS), "sf0.001")
    orders = pq.read_schema(os.path.join(sf, "orders.parquet"))
    pq.write_table(orders.empty_table(), str(tmp_path / "orders.parquet"))
    pq.write_table(pq.read_table(os.path.join(sf, "lineitem.parquet")),
                   str(tmp_path / "lineitem.parquet"))
    out = orders_with_returns(str(tmp_path))
    assert out.num_rows == 0
    assert out.schema.names == ["o_orderpriority", "n_orders", "total_price"]
