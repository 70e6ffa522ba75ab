"""The shared raw-task exchange (``sbo_ray/exchange.py``): unit behavior
of split / shard / combine / fold, and partition-count invariance of
every exchange shape against its SQL gate at sf0.001.

P is forced by patching ``exchange.n_parts`` (every exchange site reads
it at call time, with or without the input's bytes), so these run at
P = 1, 2 and 128 on any cpu count."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sbo_ray import exchange as X
from sbo_ray.pipelines.queries import SF_CORRECTNESS

SF = os.path.join(os.path.dirname(SF_CORRECTNESS), "sf0.001")
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def gate(ray_session):
    """check(name, **kw): the query's result == its SQL gate."""
    import ray.data as rd

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    qs, sqls = E.queries(), E.oracle_sql(SF)

    def check(name, **kw):
        res = qs[name](SF, **kw)
        got = res.to_pandas() if isinstance(res, (rd.Dataset, pa.Table)) \
            else res
        pd.testing.assert_frame_equal(
            _norm(got), _norm(con.execute(sqls[name]).df()),
            check_dtype=False)

    return check


# ---- primitives ------------------------------------------------------------


def test_n_parts_rule(monkeypatch):
    """``exchange.n_parts``: the cpu floor, the cap, and P = 1 for the
    1-cpu benchmark's token table."""
    from ray.data import DataContext

    block = DataContext.get_current().target_max_block_size
    monkeypatch.setattr(X, "_cpus", lambda: 1)
    assert X.n_parts(32 << 20) == 1         # the 1-cpu benchmark's tokens
    assert X.n_parts(3 * block + 1) == 4
    assert X.n_parts(100 * block) == 16     # cap
    assert X.n_parts() == 16                # no bytes: the cap
    monkeypatch.setattr(X, "_cpus", lambda: 8)
    assert X.n_parts(0) == X.n_parts(1) == 8    # cpu floor
    assert X.n_parts(20 * block) == 20
    assert X.n_parts(100 * block) == X.n_parts() == 32


def test_row_parts_rule(monkeypatch):
    """``exchange.row_parts``: one partition per 32768 rows, at least 2,
    at most ``n_parts``'s cap (which a forced P replaces)."""
    monkeypatch.setattr(X, "_cpus", lambda: 1)
    assert X.row_parts(0) == X.row_parts(32767) == 2
    assert X.row_parts(2 * 32768) == 3
    assert X.row_parts(10 * 32768) == 11
    assert X.row_parts(1 << 30) == X.n_parts() == 16
    monkeypatch.setattr(X, "n_parts", lambda *_: 1)
    assert X.row_parts(1 << 30) == 2


def test_split_tables_and_arrays():
    part = np.array([2, 0, 2, 1, 0])
    t = pa.table({"k": [10, 11, 12, 13, 14]})
    out = X.split(part, 3, t)
    assert [s.column("k").to_pylist() for s in out] == [[11, 14], [13],
                                                        [10, 12]]
    a, b = np.arange(5), np.arange(5) * 10
    pairs = X.split(part, 4, a, b)
    assert len(pairs) == 4 and pairs[3][0].size == 0
    assert pairs[2][1].tolist() == [0, 20]
    assert [s.num_rows for s in X.split(part[:0], 2, t.slice(0, 0))] == [0, 0]


# Task functions are built inside the tests: workers cannot import this
# test module, so they must pickle by value.
def _fns():
    def pieces(t: pa.Table, P: int) -> list:
        k = t.column("k").to_numpy()
        return X.split(k % P, P, t)

    def never_on_empty(*tabs):
        if not all(t.num_rows for t in tabs):
            raise AssertionError("called on a zero-row input")
        return pa.concat_tables(tabs)

    def count_sides(left: list, right: list) -> list:
        return [len(left), len(right)]

    def raise_on_empty(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            raise AssertionError("partial called on an empty block")
        return t.select(["x"])

    return pieces, never_on_empty, count_sides, raise_on_empty


@pytest.mark.parametrize("P", [1, 2, 5])
def test_shard_combine_matrix_and_empty_partitions(ray_session, P):
    import ray

    _pieces, _never_on_empty, _, _ = _fns()
    refs = [ray.put(pa.table({"k": pa.array([0, 2, 4], pa.int64())})),
            ray.put(pa.table({"k": pa.array([6], pa.int64())}))]
    m = X.shard(_pieces, refs, P, P)
    assert len(m) == P and all(len(col) == len(refs) for col in m)
    schema = pa.schema([("k", pa.int64())])
    outs = ray.get(X.combine(_never_on_empty, m, out_schema=schema))
    # odd partitions receive only zero-row slices: typed empties, and
    # the site's function is never called on them
    assert sorted(v for o in outs for v in o.column("k").to_pylist()) \
        == [0, 2, 4, 6]
    assert all(o.schema == schema for o in outs)


def test_combine_sides_and_num_returns(ray_session):
    import ray

    _pieces, _, _count_sides, _ = _fns()
    refs = [ray.put(pa.table({"k": pa.array([1, 2], pa.int64())}))]
    a = X.shard(_pieces, refs, 2, 2)
    b = X.shard(_pieces, refs * 3, 2, 2)
    m = X.combine(_count_sides, (a, b), num_returns=2)
    assert ray.get(m[0]) == [1, 1] and ray.get(m[1]) == [3, 3]
    one = X.combine(_count_sides, (a, b), num_returns=1)
    assert ray.get(one[0]) == [1, 1]  # first piece of each partition


def test_fold_skips_empty_blocks(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    _raise_on_empty = _fns()[3]
    schema = pa.schema([("x", pa.int64())])
    pq.write_table(pa.table({"x": pa.array([], pa.int64())}),
                   str(tmp_path / "empty.parquet"))
    empty = X.fold(rd.read_parquet(str(tmp_path / "empty.parquet")),
                   _raise_on_empty, schema)
    assert empty.num_rows == 0 and empty.schema == schema
    full = X.fold(rd.from_arrow(pa.table({"x": [1, 2, 3]})),
                  _raise_on_empty, schema)
    assert sorted(full.column("x").to_pylist()) == [1, 2, 3]


@pytest.mark.parametrize("fold_format", ["arrow", "pandas"])
def test_part_exchange_fib_routing_typed_folds(ray_session, monkeypatch,
                                               fold_format):
    """``part_exchange``: keys that are all multiples of 32 spread over
    P = 16 partitions (``key % P`` would put them all in partition 0),
    a fold returning a ``pa.Table`` or a ``pd.DataFrame`` comes back
    typed by ``out_schema``, and a partition with no rows never calls
    the fold."""
    import ray
    import ray.data as rd

    monkeypatch.setattr(X, "n_parts", lambda *_: 16)
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def fold(t: pa.Table):
        if not t.num_rows:
            raise AssertionError("fold called on a partition with no rows")
        k = t.column("k").to_numpy()
        n = np.array([len(k)], np.int32)  # narrower than out_schema
        if fold_format == "arrow":
            return pa.table({"n": n, "k": [int(k.min())]})
        return pd.DataFrame({"n": n, "k": [int(k.min())]})

    def key(t: pa.Table) -> np.ndarray:
        return t.column("k").to_numpy()

    for n_keys in (64, 3):  # 3 keys leave at least 13 partitions empty
        ds = rd.from_arrow(pa.table({"k": np.arange(n_keys) * 32}))
        outs = ray.get(X.part_exchange(ds, None, key, fold, schema))
        assert len(outs) == 16 and all(o.schema == schema for o in outs)
        assert sum(sum(o.column("n").to_pylist()) for o in outs) == n_keys
        assert sum(o.num_rows for o in outs) > 1


# ---- partition invariance vs the SQL gates ---------------------------------


@pytest.mark.parametrize("P", [16, 128])
def test_events_daily_active_high_p(gate, monkeypatch, P):
    """P=16 and P=128 leave most DAU partitions without rows; the
    combine's empty-partition rule must keep them out of the fold."""
    monkeypatch.setattr(X, "n_parts", lambda *_: P)
    gate("events_daily_active")


@pytest.mark.parametrize("P", [1, 2, 128])
@pytest.mark.parametrize("name", [
    "log_pack_tokens",          # single-wave table shard
    "log_pack_tokens_sep",      # separator appended in the read's map
    "log_pack_tokens_by_source",  # per-source composite key via offsets
    "log_pack_doc_mix",         # two waves, pre-sharded per-seq combine
    "log_seq_dedup",            # block partial + split, pandas fold
    "log_sessionize",           # parsed-log partial, pandas fold
    "log_pack_tokens_dedup",    # pre-sharded multi-wave
    "log_token_ngram_dedup",    # pre-sharded multi-wave (numpy + tables)
    "log_seq_dedup_minhash",    # the same flag-then-count exchange, bands
    "log_ngram_novelty",        # cpu-reserving shard, broadcast ranges
    "orders_with_returns",      # two-sided join
    "doc_dedup_substring",      # numpy-tuple carry, two waves
    "doc_shuffle_order",        # range split + prefix-sum bases
    # exchange.part_exchange shapes
    "events_sessionize",        # per-row Dataset over combine refs
    "events_asof_join",         # read-side filter partial
    "events_sessionize_salted",  # two waves, the second over the first's refs
    "doc_pack_sequences",       # doc-id chunk key + broadcast bases
    "log_repeat_offenders",     # parsed-log partial, crc32 client key
    "log_metrics_compat",       # crc32-by-group routing, two returns
    # bounded keyed sums of the combine outputs (exchange.sum_refs)
    "log_distinct_clients",     # per-source distinct counts
    "log_ip_entropy",           # float sufficient stats, derived column
    "log_dup_gap_histogram",    # numpy-bucketed pandas fold
    "log_cross_source_leakage",  # per-partition self-join counts
    "events_transitions",       # user-key pandas fold
    "events_retention",         # timestamp key from the fold
    "customer_no_orders",       # two-sided anti-join
    "events_sliding_distinct",  # block-expanded pairs, raw-task shard
    "events_cohort_ltv",        # rounded float sum
    # one-sided folds moved onto exchange.part_exchange
    "events_user_value_topk",   # local top-k, driver top-k
    "doc_vocab_bigrams",        # crc32 key of block-unique bigrams
    "customer_rfm",             # per-row Dataset, custkey key
    "orders_large_volume",      # HAVING in the fold, broadcast probes
    "doc_dedup_incremental",    # hash anti-probe per partition
    "doc_dedup_simhash",        # (seg, seg_val) bucket key
    "doc_dedup_minhash",        # band-hash key, then the verify exchange
    "orders_shipping_priority",  # over two native joins, local top-k
])
def test_exchange_partition_invariance(gate, monkeypatch, name, P):
    monkeypatch.setattr(X, "n_parts", lambda *_: P)
    gate(name)


@pytest.mark.parametrize("B", [1, 2])
def test_chunk_pair_join_invariance(gate, B):
    """doc_dedup_ngram fans out over B chunk pairs, not P partitions."""
    gate("doc_dedup_ngram", n_chunks=B)
