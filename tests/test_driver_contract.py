"""Simulate the driver's correctness gate: run each queries() entry and
its oracle_sql() side-by-side (at sf0.001 scale for speed; the driver
uses sf0.01) and compare row-counts + order-insensitive values."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def _to_pandas(res):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.fixture(scope="module")
def contract(ray_session):
    from sbo_ray.pipelines.queries import log_oracle_sql, log_queries

    return log_queries(), log_oracle_sql(SF)


@pytest.mark.parametrize("name", [
    "log_metrics", "log_metrics_compat", "log_metrics_basic",
    "log_keyed_counters", "log_global_counters", "log_routed",
    "log_routed_masked",
    "log_top_paths", "log_parse_stats", "log_geo_counts",
    "log_status_class_counts", "log_distinct_clients",
    "log_parse_stats_auto", "log_metrics_basic_auto",
    "log_counter_deltas", "log_repeat_offenders",
    "log_rate_zscore", "log_bytes_quantiles",
    "log_pack_doc_mix", "log_pack_source_purity", "log_pack_tokens_curated",
])
def test_query_matches_oracle_sql(contract, name):
    queries, sqls = contract
    got = _normalize(_to_pandas(queries[name](SF)))
    want = _normalize(duckdb.sql(sqls[name]).df())
    assert len(got) == len(want), f"{name}: rowcount {len(got)} != {len(want)}"
    assert list(got.columns) == list(want.columns), f"{name}: columns differ"
    for c in got.columns:
        if got[c].dtype.kind == "f" or want[c].dtype.kind == "f":
            pd.testing.assert_series_equal(
                got[c], want[c], check_dtype=False, check_exact=False, atol=1e-9
            )
        else:
            same = (got[c].astype(str).values == want[c].astype(str).values)
            assert same.all(), f"{name}: column {c} values differ"


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    df = _to_pandas(res)
    assert len(df) >= 0
    assert "metric_value" in df.columns
