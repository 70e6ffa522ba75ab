"""``exchange.merge``'s remote-tree regime gives the driver regime's
results.

Patching ``exchange.DRIVER_ROWS`` below zero switches every merge to the
``_merge_partials`` tree at its first partial block; ``FANIN = 2`` also
runs merge rounds while blocks still stream in."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from sbo_ray import exchange as X
from sbo_ray import synth
from sbo_ray.config import JobConfig
from sbo_ray.pipelines import logpipe
from sbo_ray.pipelines import queries as Q

JOB = JobConfig.from_format_map(synth.source_config(12))


class _Spy:
    """Counts ``_merge_partials`` launches and delegates to the task."""

    def __init__(self, task):
        self.task, self.calls = task, 0

    def remote(self, *args):
        self.calls += 1
        return self.task.remote(*args)


@pytest.fixture
def spy(monkeypatch):
    s = _Spy(X._merge_partials)
    monkeypatch.setattr(X, "_merge_partials", s)
    return s


def _tree(monkeypatch, fanin: int = 16) -> None:
    monkeypatch.setattr(X, "DRIVER_ROWS", -1)
    monkeypatch.setattr(X, "FANIN", fanin)


def _rows(t: pa.Table) -> list:
    return sorted(zip(*[t.column(c).to_pylist() for c in t.column_names]))


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    # test_engine_vs_oracle's input: 4000 synthetic lines, seed 21, 4 shards
    doc_ids, lines, sources = synth.synth_lines(4000, seed=21)
    out = tmp_path_factory.mktemp("merge_tree_in")
    return synth.write_sharded(synth.build_table(doc_ids, lines, sources),
                               str(out), n_shards=4)


@pytest.mark.parametrize("fanin", [2, 16])
def test_full_pipeline_tree_equals_driver(ray_session, shards, tmp_path,
                                          monkeypatch, spy, fanin):
    want = logpipe.full_pipeline(shards, JOB, str(tmp_path / "driver"))
    assert spy.calls == 0
    _tree(monkeypatch, fanin)
    got = logpipe.full_pipeline(shards, JOB, str(tmp_path / "tree"))
    assert spy.calls > 0
    assert want["metrics"].num_rows > 0
    for k in ("metrics", "keyed_counters"):
        assert got[k].schema == want[k].schema
        assert _rows(got[k]) == _rows(want[k])
    assert got["global_counters"] == want["global_counters"]


# one bounded count op per kernel shape: global and per-source bincounts,
# the pair keys, a bucket radix with a sum column, a multi-sum bincount
# and the Arrow row count
@pytest.mark.parametrize("op, kw", [
    pytest.param(op, kw, id=op) for op, kw in [
        ("q_log_token_histogram", {"k": 256}),
        ("q_log_source_ce", {}),
        ("q_log_token_entropy", {}),
        ("q_log_token_positional_stats", {}),
        ("q_log_seq_len_buckets", {}),
        ("q_log_token_burstiness", {}),
        ("q_log_rate_zscore", {}),
    ]])
def test_count_op_tree_equals_driver(ray_session, shards, monkeypatch, spy,
                                     op, kw):
    monkeypatch.setattr(Q, "_input_paths", lambda sf: shards)
    want = getattr(Q, op)("ignored", **kw)
    _tree(monkeypatch, 2)
    got = getattr(Q, op)("ignored", **kw)
    assert spy.calls > 0
    assert want.num_rows > 0
    assert got.schema == want.schema
    assert _rows(got) == _rows(want)


def test_keyless_merge_tree_equals_driver(ray_session, shards, monkeypatch,
                                          spy):
    want = logpipe.global_counters(logpipe.enriched_dataset(shards, JOB))
    _tree(monkeypatch)
    got = logpipe.global_counters(logpipe.enriched_dataset(shards, JOB))
    assert spy.calls > 0
    assert want["requests"] > 0
    assert got == want


@pytest.mark.parametrize("partial", [None, lambda t: t])
def test_single_raw_block_runs_the_skipped_combine(ray_session, monkeypatch,
                                                   spy, partial):
    schema = pa.schema([("k", pa.string()), ("v", pa.int64())])
    ds = rd.from_arrow(pa.table({"k": ["a", "b", "a"], "v": [1, 2, 3]}))
    _tree(monkeypatch)
    got = X.merge(ds, partial, ["k"], schema)
    assert spy.calls == 1  # no merge round ran; the final combine did
    assert got.schema == schema
    assert _rows(got) == [("a", 4), ("b", 2)]


@pytest.mark.parametrize("tree", [False, True])
def test_empty_input_gives_typed_empty(ray_session, tmp_path, monkeypatch,
                                       tree):
    path = str(tmp_path / "shard-00000.parquet")
    pq.write_table(synth.SCHEMA.empty_table(), path)
    if tree:
        _tree(monkeypatch)
    schema = pa.schema([("source", pa.string()), ("n", pa.int64())])
    for keys in (["source"], []):
        out_schema = schema if keys else pa.schema([("n", pa.int64())])
        got = X.merge(rd.read_parquet(path), lambda t: t, keys, out_schema)
        assert got.num_rows == 0
        assert got.schema == out_schema
    monkeypatch.setattr(Q, "_input_paths", lambda sf: [path])
    got = Q.q_log_token_histogram("ignored")
    assert got.num_rows == 0
    assert got.schema.names == ["token", "cnt"]
