"""Checkpoint/resume: killed run resumes from last committed partition
without recount drift (north-rule criterion)."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from sbo_ray import synth
from sbo_ray.config import JobConfig
from sbo_ray.oracle.pipeline import run_oracle
from sbo_ray.state.lineage import CheckpointedPipeline, CheckpointManifest

N_ROWS = 3000
SEED = 77


@pytest.fixture(scope="module")
def setup(ray_session, tmp_path_factory):
    doc_ids, lines, sources = synth.synth_lines(N_ROWS, seed=SEED)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    in_dir = tmp_path_factory.mktemp("ckpt_in")
    paths = synth.write_sharded(table, str(in_dir), n_shards=6)
    job = JobConfig.from_format_map(cfg)
    oracle = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)
    return paths, job, oracle, tmp_path_factory


def _metrics_df(t):
    return (t.to_pandas()
            .sort_values(["source", "metric_type", "key_value", "time_window"])
            .reset_index(drop=True))


def test_resume_without_recount_drift(setup):
    paths, job, oracle, tmp = setup
    out = str(tmp.mktemp("ckpt_out"))
    cp = CheckpointedPipeline(paths, job, out, group_size=2)

    # phase 1: two groups, then "the job is killed"
    assert cp.run_once() is True
    assert cp.run_once() is True
    committed_after_kill = set(cp.manifest.committed_shards())
    assert len(committed_after_kill) == 4

    # phase 2: a NEW process resumes from the manifest
    cp2 = CheckpointedPipeline(paths, job, out, group_size=2)
    assert set(cp2.manifest.committed_shards()) == committed_after_kill
    assert len(cp2.pending_shards()) == 2
    cp2.run_all()
    assert cp2.pending_shards() == []

    final = cp2.finalize()
    want = pd.DataFrame(
        oracle.metrics,
        columns=["source", "metric_type", "key_value", "time_window", "metric_value"],
    ).sort_values(["source", "metric_type", "key_value", "time_window"]).reset_index(drop=True)
    got = _metrics_df(final["metrics"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert final["global_counters"]["requests"] == oracle.counters["requests"]
    assert final["global_counters"]["parse_errors"] == oracle.parse_errors

    # routed rows: every committed run contributes exactly once
    routed_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in cp2.routed_files())
    assert routed_rows == len(oracle.routed)

    # rerunning a completed job is a no-op and does not drift anything
    cp3 = CheckpointedPipeline(paths, job, out, group_size=2)
    assert cp3.run_once() is False
    again = cp3.finalize()
    pd.testing.assert_frame_equal(_metrics_df(again["metrics"]), want, check_dtype=False)


def test_manifest_lineage_and_prometheus(setup):
    paths, job, oracle, tmp = setup
    out = str(tmp.mktemp("ckpt_out2"))
    cp = CheckpointedPipeline(paths, job, out, group_size=3)
    cp.run_all()
    recs = cp.manifest.committed_shards()
    assert set(recs) == set(paths)
    for rec in recs.values():
        assert rec.stage_hash == cp.stage_hash
        assert rec.rows_in > 0
        assert rec.row_range[1] == rec.rows_in - 1
    total = cp.manifest.counters_total()
    assert total["rows_in"] == N_ROWS
    assert total["parse_errors"] == oracle.parse_errors
    text = cp.manifest.prometheus_text()
    assert "sbo_ray_rows_in_total" in text
    assert f"sbo_ray_parse_errors_total {oracle.parse_errors}" in text


def test_config_change_changes_stage_hash(setup):
    paths, job, oracle, tmp = setup
    out = str(tmp.mktemp("ckpt_out3"))
    cp = CheckpointedPipeline(paths, job, out, group_size=3)
    job2 = JobConfig.from_format_map(synth.source_config(12),
                                     time_window_minutes=30)
    cp2 = CheckpointedPipeline(paths, job2, out, group_size=3)
    assert cp.stage_hash != cp2.stage_hash


def test_follow_mode_incremental_shards(setup):
    """New shards appearing after the first run are picked up by
    refresh() and the final aggregates equal the full-input oracle
    (the follow-mode/log-rotation analog, SURVEY.md §2.1 S3)."""
    import shutil

    paths, job, oracle, tmp = setup
    in2 = str(tmp.mktemp("follow_in"))
    out = str(tmp.mktemp("follow_out"))
    # wave 1: first 3 shards
    for p in paths[:3]:
        shutil.copy(p, in2)
    cp = CheckpointedPipeline(os.path.join(in2, "*.parquet"), job, out,
                              group_size=2)
    cp.run_all()
    assert len(cp.manifest.committed_shards()) == 3
    # wave 2: remaining shards "arrive"
    for p in paths[3:]:
        shutil.copy(p, in2)
    assert cp.refresh() == len(paths) - 3
    cp.run_all()
    assert len(cp.manifest.committed_shards()) == len(paths)
    final = cp.finalize()
    want = pd.DataFrame(
        oracle.metrics,
        columns=["source", "metric_type", "key_value", "time_window", "metric_value"],
    ).sort_values(["source", "metric_type", "key_value", "time_window"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(_metrics_df(final["metrics"]), want,
                                  check_dtype=False)


def test_torn_trailing_manifest_line_is_skipped(tmp_path):
    """A crash mid-append may tear the FINAL record; resume must treat it
    as uncommitted instead of raising."""
    import json

    from sbo_ray.state.lineage import CheckpointManifest, CommitRecord

    m = CheckpointManifest(str(tmp_path))
    rec = CommitRecord(shard="s1", run_id="r1", rows_in=5, row_range=[0, 4],
                       stage_hash="h")
    m.commit([rec])
    with open(m.path, "a") as f:
        f.write('{"shard": "s2", "run_id": "r2", "rows_')  # torn append
    got = m.committed_shards()
    assert set(got) == {"s1"}
    # the read SKIPS the torn tail (side-effect-free); the WRITER
    # (commit()) truncates it before appending so torn bytes never end
    # up mid-file
    rec3 = CommitRecord(shard="s3", run_id="r3", rows_in=1, row_range=[0, 0],
                        stage_hash="h")
    m.commit([rec3])
    assert set(m.committed_shards()) == {"s1", "s3"}
    # torn bytes that end up mid-file WITHOUT a repairing read in between
    # are real corruption -> raise
    with open(m.path, "a") as f:
        f.write('{"shard": "s4", "run_id"')
        f.write("\n" + json.dumps({"shard": "s5", "run_id": "r5", "rows_in": 1,
                                    "row_range": [0, 0],
                                    "stage_hash": "h"}) + "\n")
    try:
        m.committed_shards()
        raised = False
    except Exception:
        raised = True
    assert raised


def _want_metrics(oracle):
    return pd.DataFrame(
        oracle.metrics,
        columns=["source", "metric_type", "key_value", "time_window", "metric_value"],
    ).sort_values(["source", "metric_type", "key_value", "time_window"]).reset_index(drop=True)


def _assert_matches_oracle(cp, oracle):
    final = cp.finalize()
    pd.testing.assert_frame_equal(_metrics_df(final["metrics"]),
                                  _want_metrics(oracle), check_dtype=False)
    g = final["global_counters"]
    assert g["requests"] == oracle.counters["requests"]
    assert g["parse_errors"] == oracle.parse_errors
    # every input row is either a request or a parse error
    assert g["requests"] + g["parse_errors"] == cp.manifest.counters_total()["rows_in"]
    routed = sum(pq.ParquetFile(f).metadata.num_rows for f in cp.routed_files())
    assert routed == len(oracle.routed)


def _copy_shards(paths, dst, names=None):
    import shutil

    os.makedirs(dst, exist_ok=True)
    out = []
    for i, p in enumerate(paths):
        q = os.path.join(dst, names[i] if names else os.path.basename(p))
        shutil.copy(p, q)
        out.append(q)
    return out


def test_same_named_shards_in_two_dirs_are_separate_runs(setup):
    """Run ids hash full paths: day1/shard-00000 and day2/shard-00000 are
    different runs, so neither run dir clears the other's partials."""
    paths, job, oracle, tmp = setup
    root = str(tmp.mktemp("two_days"))
    names = [f"shard-{k:05d}.parquet" for k in range(3)]
    local = (_copy_shards(paths[:3], os.path.join(root, "day1"), names)
             + _copy_shards(paths[3:], os.path.join(root, "day2"), names))
    cp = CheckpointedPipeline(local, job, os.path.join(root, "out"), group_size=1)
    cp.run_all()
    assert len(cp.manifest.committed_run_ids()) == len(local)
    assert cp.manifest.counters_total()["rows_in"] == N_ROWS
    _assert_matches_oracle(cp, oracle)


def test_batch_spanning_shards_routes_rows_to_their_own_run(setup):
    """A batch_size larger than a shard makes one batch span shards and
    groups: each run dir still holds exactly its own shard's routed rows."""
    paths, job, oracle, tmp = setup
    out = str(tmp.mktemp("ckpt_batch"))
    shard_rows = pq.ParquetFile(paths[0]).metadata.num_rows
    cp = CheckpointedPipeline(paths, job, out, group_size=1,
                              batch_size=2 * shard_rows + 7)
    cp.run_all()
    _assert_matches_oracle(cp, oracle)
    routed_ids = {r["doc_id"] for r in oracle.routed}
    for shard, rec in cp.manifest.committed_shards().items():
        want = (set(pq.read_table(shard, columns=["doc_id"])
                    .column("doc_id").to_pylist()) & routed_ids)
        routed_dir = os.path.join(out, "runs", rec.run_id, "routed")
        got = [d for f in os.listdir(routed_dir) if f.endswith(".parquet")
               for d in pq.read_table(os.path.join(routed_dir, f),
                                      columns=["doc_id"]).column("doc_id").to_pylist()]
        assert sorted(got) == sorted(want)


def test_zero_row_shard_commits_its_group(setup):
    paths, job, oracle, tmp = setup
    empty_dir = str(tmp.mktemp("ckpt_empty_in"))
    empty = os.path.join(empty_dir, "shard-empty.parquet")
    pq.write_table(pq.read_schema(paths[0]).empty_table(), empty)
    cp = CheckpointedPipeline(paths + [empty], job,
                              str(tmp.mktemp("ckpt_empty_out")), group_size=1)
    cp.run_all()
    recs = cp.manifest.committed_shards()
    assert set(recs) == set(paths) | {empty}
    assert recs[empty].rows_in == 0
    _assert_matches_oracle(cp, oracle)


@pytest.mark.parametrize("bad", [5, 2], ids=["last_shard", "middle_shard"])
def test_failed_shard_leaves_only_its_group_uncommitted(setup, monkeypatch, bad):
    """A shard that fails mid-execution (its footer reads, its rows do
    not parse) fails run_all; every other group commits, its own does
    not. After the shard is repaired, resume runs only that group."""
    import ray.data as rd
    from ray.data.context import DataContext

    paths, job, oracle, tmp = setup
    local = _copy_shards(paths, str(tmp.mktemp("crash_in")))
    out = str(tmp.mktemp("crash_out"))
    good = pq.read_table(local[bad])
    pq.write_table(good.drop_columns(["tokens"]), local[bad])
    ctx = DataContext.get_current()
    limits = ctx.execution_options.resource_limits
    # one task at a time, in file order
    ctx.execution_options.resource_limits = limits.copy(cpu=1)
    try:
        cp = CheckpointedPipeline(local, job, out, group_size=2)
        with pytest.raises(RuntimeError, match="left uncommitted"):
            cp.run_all()
    finally:
        ctx.execution_options.resource_limits = limits
    failed = local[bad - bad % 2: bad - bad % 2 + 2]
    assert set(cp.manifest.committed_shards()) == set(local) - set(failed)

    pq.write_table(good, local[bad])
    reads = []
    real = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda p, **kw: reads.append(list(p)) or real(p, **kw))
    cp2 = CheckpointedPipeline(local, job, out, group_size=2)
    assert cp2.pending_shards() == failed
    cp2.run_all()
    assert reads == [failed]
    _assert_matches_oracle(cp2, oracle)


def test_one_read_per_run_all_and_one_group_per_run_once(setup, monkeypatch):
    import ray.data as rd

    paths, job, oracle, tmp = setup
    reads = []
    real = rd.read_parquet
    monkeypatch.setattr(rd, "read_parquet",
                        lambda p, **kw: reads.append(list(p)) or real(p, **kw))
    once = CheckpointedPipeline(paths, job, str(tmp.mktemp("ckpt_once")),
                                group_size=2)
    assert once.run_once() is True
    assert reads == [paths[:2]]
    assert set(once.manifest.committed_shards()) == set(paths[:2])

    reads.clear()
    cp = CheckpointedPipeline(paths, job, str(tmp.mktemp("ckpt_one_read")),
                              group_size=2)
    cp.run_all()
    assert len(reads) == 1                   # 3 groups, one execution
    assert len(cp.manifest.committed_run_ids()) == 3
    _assert_matches_oracle(cp, oracle)


@pytest.mark.parametrize("where", ["local", "memory"])
def test_manifest_commit_reads_manifest_once(tmp_path, where):
    """The one writer learns the valid manifest length on its first
    commit; later commits append without re-parsing the manifest."""
    from sbo_ray.state.lineage import CommitRecord

    out = str(tmp_path) if where == "local" else "memory://sbo-test/commit-once"
    m = CheckpointManifest(out)

    def rec(i):
        return CommitRecord(shard=f"s{i}", run_id=f"r{i}", rows_in=1,
                            row_range=[0, 0], stage_hash="h")

    m.commit([rec(0)])
    calls = []
    real = m.committed_shards
    m.committed_shards = lambda: calls.append(1) or real()
    for i in range(1, 4):
        m.commit([rec(i)])
    assert calls == []
    assert set(CheckpointManifest(out).committed_shards()) == {"s0", "s1", "s2", "s3"}


def test_finalize_without_commits_returns_typed_empty_tables(tmp_path):
    from sbo_ray.stages.metrics import COUNTER_SCHEMA, METRIC_SCHEMA

    job = JobConfig.from_format_map(synth.source_config(12))
    final = CheckpointedPipeline([], job, str(tmp_path)).finalize()
    assert final["metrics"].schema == METRIC_SCHEMA
    assert final["keyed_counters"].schema == COUNTER_SCHEMA
    assert final["metrics"].num_rows == final["keyed_counters"].num_rows == 0
    assert final["global_counters"] == {}
