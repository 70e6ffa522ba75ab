"""End-to-end equality: Ray engine == pure-Python oracle on synthetic
token tables (the correctness gate of BASELINE.json north_rule)."""

import pandas as pd
import pytest

from sbo_ray import synth
from sbo_ray.config import JobConfig
from sbo_ray.oracle.pipeline import run_oracle
from sbo_ray.pipelines import logpipe

N_ROWS = 4000
SEED = 21


@pytest.fixture(scope="module")
def synth_data():
    doc_ids, lines, sources = synth.synth_lines(N_ROWS, seed=SEED)
    cfg = synth.source_config(12)
    return doc_ids, lines, sources, cfg


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory, synth_data):
    doc_ids, lines, sources, _ = synth_data
    table = synth.build_table(doc_ids, lines, sources)
    out = tmp_path_factory.mktemp("sbo_input")
    synth.write_sharded(table, str(out), n_shards=4)
    return str(out)


@pytest.fixture(scope="module")
def oracle_result(synth_data):
    doc_ids, lines, sources, cfg = synth_data
    return run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)


@pytest.fixture(scope="module")
def enriched(ray_session, input_dir, synth_data):
    _, _, _, cfg = synth_data
    job = JobConfig.from_format_map(cfg)
    return logpipe.enriched_dataset(input_dir, job)


def test_metrics_equal_oracle(enriched, oracle_result):
    got = logpipe.metrics_dataset(enriched).to_pandas()
    got = got.sort_values(["source", "metric_type", "key_value", "time_window"]).reset_index(drop=True)
    want = pd.DataFrame(
        oracle_result.metrics,
        columns=["source", "metric_type", "key_value", "time_window", "metric_value"],
    )
    want["metric_type"] = want["metric_type"].astype("int32")
    want = want.sort_values(["source", "metric_type", "key_value", "time_window"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_global_counters_equal_oracle(enriched, oracle_result):
    got = logpipe.global_counters(enriched)
    c = oracle_result.counters
    assert got["requests"] == c["requests"]
    assert got["bytes_sent"] == c["bytes_sent"]
    assert got["humans"] == c.get("humans", 0)
    assert got["non_humans"] == c["non_humans"]
    assert got["malicious"] == c["malicious"]
    assert got["parse_errors"] == oracle_result.parse_errors


def test_keyed_counters_equal_oracle(enriched, oracle_result):
    got = logpipe.keyed_counters_dataset(enriched).to_pandas()
    for dim, want_counts in oracle_result.keyed_counters.items():
        sub = got[got["dimension"] == dim]
        got_counts = dict(zip(zip(sub["source"], sub["key_value"]), sub["cnt"]))
        assert got_counts == want_counts, f"dimension {dim} differs"


def test_routed_rows_equal_oracle(enriched, oracle_result):
    got = logpipe.routed_dataset(enriched).to_pandas()
    want = pd.DataFrame(oracle_result.routed)
    assert len(got) == len(want)
    got = got.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    # token-array equality per row (the invariant)
    for g, w in zip(got["tokens"], want["tokens"] if "tokens" in want else [None] * len(want)):
        pass  # oracle rows don't carry tokens; checked against input below
    for col in ["source", "doc_id", "client_ip", "remote_user", "http_method",
                "path3", "request_uri", "http_status", "bytes_sent", "referer",
                "is_malicious", "ua_string", "ua_os", "ua_family",
                "ua_device_type", "ua_is_human", "ua_intent"]:
        assert list(got[col]) == list(want[col]), f"column {col} differs"
    assert list(got["request_ts"]) == list(want["request_ts"])


def test_routed_token_invariant(enriched, synth_data):
    doc_ids, lines, sources, _ = synth_data
    by_id = dict(zip(doc_ids, lines))
    routed = logpipe.routed_dataset(enriched).to_pandas()
    sample = routed.sample(n=min(200, len(routed)), random_state=0)
    for _, row in sample.iterrows():
        original = by_id[row["doc_id"]]
        decoded = bytes(int(t) for t in row["tokens"]).decode("utf-8")
        assert decoded == original


def test_top_n(enriched, oracle_result, ray_session):
    from sbo_ray.oracle.pipeline import top_n

    kc = logpipe.keyed_counters_dataset(enriched)
    got = logpipe.top_n_dataset(kc, "paths", 10).to_pylist()
    per_source = {}
    for (src, key), cnt in oracle_result.keyed_counters["paths"].items():
        per_source.setdefault(src, {})[key] = cnt
    want = {
        (src, key): cnt
        for src, counts in per_source.items()
        for key, cnt in top_n(counts, 10).items()
    }
    assert {(r["source"], r["key_value"]): r["cnt"] for r in got} == want


def test_actor_pool_parse_variant(ray_session, input_dir, synth_data):
    """The documented actor-pool stage (SURVEY §2.4 ST1) produces the
    same result as the default task-pool path."""
    import ray
    import ray.data as rd

    from sbo_ray.stages.parse import ParseEnrich

    _, _, _, cfg = synth_data
    job = JobConfig.from_format_map(cfg)
    job_ref = ray.put(job)
    ds = rd.read_parquet(input_dir).map_batches(
        ParseEnrich,
        fn_constructor_args=(job_ref,),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=2,
        num_cpus=1,
    )
    got = logpipe.global_counters(ds)
    want = logpipe.global_counters(logpipe.enriched_dataset(input_dir, job))
    assert got == want


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_metrics_equal_oracle_multi_seed(ray_session, tmp_path, seed):
    """Seed sweep: engine==oracle holds across independent synthetic
    corpora (different source mixes, specials, formats)."""
    doc_ids, lines, sources = synth.synth_lines(1500, seed=seed)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    paths = synth.write_sharded(table, str(tmp_path), n_shards=2)
    job = JobConfig.from_format_map(cfg)
    got = logpipe.metrics_dataset(logpipe.enriched_dataset(paths, job)).to_pandas()
    got_map = {
        (r.source, int(r.metric_type), r.key_value, int(r.time_window)): int(r.metric_value)
        for r in got.itertuples()
    }
    oracle = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)
    want = {}
    for s, t, k, tw, v in oracle.metrics:
        want[(s, t, k, tw)] = want.get((s, t, k, tw), 0) + v
    assert got_map == want


def test_full_pipeline_unique_paths_equal_oracle(ray_session, tmp_path):
    """The URI miss side: every ordinary URL distinct, as in the
    ``unique_url_flagship`` benchmark, through the flagship pipeline."""
    import glob
    import os

    import pyarrow.parquet as pq

    doc_ids, lines, sources = synth.synth_lines(2000, seed=SEED,
                                                unique_paths=True)
    cfg = synth.source_config(12)
    paths = synth.write_sharded(synth.build_table(doc_ids, lines, sources),
                                str(tmp_path / "in"), n_shards=2)
    out = str(tmp_path / "out")
    result = logpipe.full_pipeline(paths, JobConfig.from_format_map(cfg), out)
    oracle = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)

    got_m = {(r["source"], r["metric_type"], r["key_value"], r["time_window"]):
             r["metric_value"] for r in result["metrics"].to_pylist()}
    want_m = {}
    for s, t, k, tw, v in oracle.metrics:
        want_m[(s, t, k, tw)] = want_m.get((s, t, k, tw), 0) + v
    assert got_m == want_m

    kc = result["keyed_counters"].to_pylist()
    for dim, want_counts in oracle.keyed_counters.items():
        got_counts = {(r["source"], r["key_value"]): r["cnt"]
                      for r in kc if r["dimension"] == dim}
        assert got_counts == want_counts, f"dimension {dim} differs"

    names = ("handled", "requests", "bytes_sent", "humans", "non_humans",
             "malicious")
    want_g = {k: oracle.counters.get(k, 0) for k in names}
    want_g["parse_errors"] = oracle.parse_errors
    assert result["global_counters"] == want_g

    files = glob.glob(os.path.join(out, "routed", "**", "*.parquet"),
                      recursive=True)
    got_ids = sorted(i for f in files
                     for i in pq.read_table(f, columns=["doc_id"])
                     .column("doc_id").to_pylist())
    assert got_ids
    assert got_ids == sorted(r["doc_id"] for r in oracle.routed)
