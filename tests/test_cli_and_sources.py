"""Raw text-log source, skip-regex filter (F6), JSONL sink (K3), counter
report rendering (K1) and the CLI entry."""

import glob
import json
import os

import pytest

from sbo_ray import synth
from sbo_ray.config import JobConfig, SourceConfig
from sbo_ray.oracle.pipeline import run_oracle
from sbo_ray.pipelines import logpipe

N_ROWS = 1200
SEED = 91


@pytest.fixture(scope="module")
def log_files(tmp_path_factory):
    """Raw .log files equivalent to the synthetic token table: one file
    per source, lines in synth order."""
    doc_ids, lines, sources = synth.synth_lines(N_ROWS, seed=SEED)
    cfg = synth.source_config(12)
    d = tmp_path_factory.mktemp("rawlogs")
    per_source: dict[str, list[str]] = {}
    for line, src in zip(lines, sources):
        per_source.setdefault(src, []).append(line)
    paths = []
    for src, ls in sorted(per_source.items()):
        p = d / f"{src}.log"
        p.write_text("\n".join(ls) + "\n")
        paths.append(str(p))
    return paths, doc_ids, lines, sources, cfg


def test_text_source_matches_oracle_counts(ray_session, log_files):
    from sbo_ray.sources.textlog import read_text_logs

    paths, doc_ids, lines, sources, cfg = log_files
    # source names are file basenames: web-XX.log -> config keyed likewise
    job = JobConfig.from_format_map(
        {f"{k}.log": v for k, v in cfg.items()}
    )
    ds = read_text_logs(paths)
    assert ds.count() == N_ROWS
    enriched = logpipe.enriched_dataset_from(ds, job)
    g = logpipe.global_counters(enriched)
    oracle = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)
    assert g["requests"] == oracle.counters["requests"]
    assert g["bytes_sent"] == oracle.counters["bytes_sent"]
    assert g["parse_errors"] == oracle.parse_errors


def test_text_source_skip_rows(ray_session, log_files):
    from sbo_ray.sources.textlog import read_text_logs

    paths, *_ = log_files
    full = read_text_logs(paths[:1]).count()
    skipped = read_text_logs(paths[:1], skip_rows=5).count()
    assert skipped == full - 5
    assert read_text_logs(paths[:1], skip_rows=-1).count() == 0


def test_skip_line_regex_f6(ray_session, tmp_path):
    doc_ids, lines, sources = synth.synth_lines(800, seed=12)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    paths = synth.write_sharded(table, str(tmp_path), n_shards=2)
    job = JobConfig.from_format_map(cfg)
    base = logpipe.enriched_dataset(paths, job).count()
    # drop every HEAD request before parsing
    job2 = JobConfig.from_format_map(cfg)
    for scfg in job2.sources.values():
        scfg.skip_line_regex = r'"HEAD '
    n2 = logpipe.enriched_dataset(paths, job2).count()
    n_head = sum(1 for ln in lines if '"HEAD ' in ln)
    assert n_head > 0
    assert n2 == base - n_head


def test_jsonl_sink(ray_session, tmp_path):
    doc_ids, lines, sources = synth.synth_lines(300, seed=13)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    paths = synth.write_sharded(table, str(tmp_path / "in"), n_shards=1)
    job = JobConfig.from_format_map(cfg)
    out = str(tmp_path / "jsonl")
    logpipe.write_enriched_jsonl(logpipe.enriched_dataset(paths, job), out)
    rows = []
    for f in glob.glob(os.path.join(out, "*.json")):
        with open(f) as fh:
            rows.extend(json.loads(l) for l in fh if l.strip())
    oracle = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)
    assert len(rows) == oracle.counters["requests"]
    assert "ua_family" in rows[0] and "tokens" not in rows[0]


def test_counter_report_render(ray_session, tmp_path):
    from sbo_ray.report import keyed_counters_table_to_dict, render_counter_report

    doc_ids, lines, sources = synth.synth_lines(300, seed=14)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    paths = synth.write_sharded(table, str(tmp_path), n_shards=1)
    job = JobConfig.from_format_map(cfg)
    g = logpipe.global_counters(logpipe.enriched_dataset(paths, job))
    kd = keyed_counters_table_to_dict(
        logpipe.keyed_counters_dataset(logpipe.enriched_dataset(paths, job)).to_pandas()
    )
    text = render_counter_report(g, kd, 10)
    assert "Total requests" in text
    assert "Status codes:" in text
    assert "200" in text
    # top-N limiting applies to clients/referers/paths
    clients_block = text.split("Clients:")[1].split("User agents:")[0]
    assert len([l for l in clients_block.splitlines() if l.strip()]) <= 10


def test_cli_run_and_count(ray_session, tmp_path, capsys, monkeypatch):
    import ray.data as rd

    from sbo_ray import cli
    from sbo_ray.report import (
        keyed_counters_table_to_dict, render_counter_report,
    )

    doc_ids, lines, sources = synth.synth_lines(400, seed=15)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    paths = synth.write_sharded(table, str(tmp_path / "in"), n_shards=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"--default--": {"log_format": "apache_combined"},
         **{k: {"log_format": v} for k, v in cfg.items()}}
    ))
    out = str(tmp_path / "run_out")
    rc = cli.main(["run", *paths, "--config", str(cfg_path), "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "metrics.parquet"))
    assert os.path.exists(os.path.join(out, "metrics.prom"))
    capsys.readouterr()
    reads = []
    input_dataset = cli._input_dataset

    def counted(inputs):
        reads.append(inputs)
        return input_dataset(inputs)

    monkeypatch.setattr(cli, "_input_dataset", counted)
    rc = cli.main(["count", *paths, "--config", str(cfg_path)])
    assert rc == 0
    got = capsys.readouterr().out
    assert "Total requests" in got
    assert len(reads) == 1  # one read and parse for both counter kinds
    # the same report as the two separate counter merges
    job = JobConfig.from_json(cfg_path.read_text())
    g = logpipe.global_counters(
        logpipe.enriched_dataset_from(rd.read_parquet(paths), job))
    keyed = logpipe.keyed_counters_dataset(
        logpipe.enriched_dataset_from(rd.read_parquet(paths), job))
    want = render_counter_report(
        g, keyed_counters_table_to_dict(keyed.to_pandas()), 10)
    assert got == want + "\n"


def test_text_source_tolerates_invalid_utf8(ray_session, tmp_path):
    """Raw-log ingestion must not crash on junk bytes (binary requests
    are routine in real logs); invalid bytes become U+FFFD and the line
    counts as a parse error downstream."""
    import ray.data as rd

    from sbo_ray.sources.textlog import read_text_logs

    p = tmp_path / "junk.log"
    p.write_bytes(b'GET /a\x80\xfeb\n1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /ok HTTP/1.0" 200 5\n')
    ds = read_text_logs([str(p)])
    rows = ds.take_all()
    assert len(rows) == 2


def test_tail_text_log_incremental_partial_and_rotation(tmp_path):
    """S3 follow-mode core: byte-offset tail, partial-line holdback,
    rotation reopen (main.go:863-922 semantics, poll-based)."""
    from sbo_ray.sources.textlog import TailState, tail_text_log

    p = tmp_path / "app.log"
    p.write_bytes(b"line0\nline1\n")
    t, st = tail_text_log(str(p))
    assert t.num_rows == 2
    # append one complete + one partial line: partial held back
    with open(p, "ab") as f:
        f.write(b"line2\npart")
    t2, st = tail_text_log(str(p), st)
    assert t2.num_rows == 1
    assert t2.column("doc_id").to_pylist() == ["app.log:000000000002"]
    # nothing new -> empty
    t3, st = tail_text_log(str(p), st)
    assert t3.num_rows == 0
    # the partial line completes
    with open(p, "ab") as f:
        f.write(b"ial\n")
    t4, st = tail_text_log(str(p), st)
    assert t4.num_rows == 1
    from sbo_ray.codec import decode_tokens

    assert decode_tokens(t4.column("tokens")).to_pylist() == ["partial"]
    # rotation: replace with a fresh (shorter) file -> reopen from 0,
    # line numbering continues so doc_ids never collide
    p.unlink()
    p.write_bytes(b"rotated0\n")
    t5, st = tail_text_log(str(p), st)
    assert t5.num_rows == 1
    assert decode_tokens(t5.column("tokens")).to_pylist() == ["rotated0"]
    assert t5.column("doc_id").to_pylist() == ["app.log:000000000004"]


def test_tail_start_from_end_and_skip(tmp_path):
    from sbo_ray.sources.textlog import tail_text_log

    p = tmp_path / "s.log"
    p.write_bytes(b"old0\nold1\n")
    # StartFrom -1: only lines appended AFTER the first poll
    t, st = tail_text_log(str(p), start_from=-1)
    assert t.num_rows == 0
    with open(p, "ab") as f:
        f.write(b"new0\n")
    t2, st = tail_text_log(str(p), st, start_from=-1)
    assert t2.num_rows == 1
    # StartFrom N: skip first N lines
    t3, _ = tail_text_log(str(p), start_from=2)
    assert t3.num_rows == 1  # only new0 (old0/old1 skipped)


def test_follow_feeds_the_engine_incrementally(ray_session, tmp_path):
    """follow -> enriched_dataset_from -> metrics: the incremental analog
    of the reference's live handler chain."""
    import ray.data as rd

    from sbo_ray.config import JobConfig, SourceConfig
    from sbo_ray.pipelines import logpipe
    from sbo_ray.sources.textlog import follow_text_log

    p = tmp_path / "live.log"
    line = '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /ok HTTP/1.0" 200 5\n'
    p.write_text(line * 3)
    job = JobConfig(default=SourceConfig(log_format="apache_common"))
    total = 0
    for t in follow_text_log(str(p), poll_sec=0.01, max_rounds=2):
        enr = logpipe.enriched_dataset_from(rd.from_arrow(t), job)
        total += logpipe.global_counters(enr)["requests"]
    assert total == 3


def test_cli_follow_cumulative_counters_match_engine(ray_session, tmp_path,
                                                      monkeypatch, capsys):
    """``follow --rounds 2``: lines appended between the two poll rounds
    add to the cumulative keyed counters, and the final counters equal
    ``keyed_counters_dataset`` over the whole file."""
    import pandas as pd

    from sbo_ray import cli, report
    from sbo_ray.sources.textlog import read_text_logs

    lines = [f'10.0.0.{i % 3} - - [10/Oct/2000:13:{i:02d}:36 -0700] '
             f'"GET /p{i % 4}/x HTTP/1.0" {404 if i % 5 == 0 else 200} {i}\n'
             for i in range(20)]
    p = tmp_path / "live.log"
    p.write_text("".join(lines[:12]))
    seen = []
    render = report.keyed_counters_table_to_dict

    def spy(table, *a, **kw):
        seen.append(table)
        if len(seen) == 1:  # the second poll round reads these lines
            with open(p, "a") as f:
                f.write("".join(lines[12:]))
        return render(table, *a, **kw)

    monkeypatch.setattr(report, "keyed_counters_table_to_dict", spy)
    assert cli.main(["follow", str(p), "--format", "apache_common",
                     "--rounds", "2", "--interval", "0.01"]) == 0
    assert len(seen) == 2
    assert "interval deltas" in capsys.readouterr().out

    job = JobConfig(default=SourceConfig(log_format="apache_common"))
    want = logpipe.keyed_counters_dataset(logpipe.enriched_dataset_from(
        read_text_logs([str(p)]), job)).to_pandas()
    keys = ["source", "dimension", "key_value"]
    got, want = (df[keys + ["cnt"]].sort_values(keys).reset_index(drop=True)
                 for df in (seen[-1].to_pandas(), want))
    assert sum(seen[0].column("cnt").to_pylist()) < got["cnt"].sum()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_cli_curate_partitioned_resume(ray_session, tmp_path, capsys):
    """The resumable data-side run: one committed partition per input
    shard, a second invocation without --resume refuses, --resume
    SKIPS committed partitions and reruns only the missing one, and
    the partitioned output unions to exactly the per-shard stats."""
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from sbo_ray import cli

    shards = []
    for i in range(2):
        p = tmp_path / f"docs{i}.parquet"
        pq.write_table(pa.table({
            "doc_id": pa.array([2 * i, 2 * i + 1], pa.int64()),
            "text": pa.array([f"alpha beta {i}", f"gamma {i}"]),
        }), p)
        shards.append(str(p))
    out = str(tmp_path / "curated")
    rc = cli.main(["curate", *shards, "--out", out])
    assert rc == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(res["ran"]) == ["docs0", "docs1"] and res["skipped"] == []
    # committed partitions exist, one per shard, markers carry rows
    for s in ("docs0", "docs1"):
        m = _json.load(open(f"{out}/shard={s}/_SUCCESS"))
        assert m["rows"] == 2
    # rerun without --resume refuses (exit 2)
    assert cli.main(["curate", *shards, "--out", out]) == 2
    capsys.readouterr()
    # drop one marker -> --resume reruns ONLY that partition
    import os as _os

    _os.remove(f"{out}/shard=docs1/_SUCCESS")
    rc = cli.main(["curate", *shards, "--out", out, "--resume"])
    assert rc == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["ran"] == ["docs1"] and res["skipped"] == ["docs0"]
    # the partitioned output unions to all 4 docs
    import glob as _glob

    frags = _glob.glob(f"{out}/shard=*/part-*.parquet")
    total = sum(pq.read_table(f).num_rows for f in frags)
    assert total == 4


def test_cli_curate_stats_byte_identical(ray_session, tmp_path, capsys):
    """curate (stats) writes each shard's rows in file order, so two
    runs over the same multi-row-group shard write byte-identical part
    files (a partition recomputed after a kill is the same file)."""
    import glob as _glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from sbo_ray import cli

    p = tmp_path / "docs.parquet"
    n = 600
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"word{i} and the {i % 7} of it" for i in range(n)]),
    }), p, row_group_size=50)
    files = {}
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert cli.main(["curate", str(p), "--out", out]) == 0
        files[run] = {f[len(out):]: open(f, "rb").read() for f in sorted(
            _glob.glob(f"{out}/shard=*/part-*.parquet"))}
    capsys.readouterr()
    assert files["a"] and files["a"] == files["b"]
    ids = pa.concat_tables([pq.read_table(tmp_path / "a" / f.lstrip("/"))
                            for f in files["a"]]).column("doc_id")
    assert ids.to_pylist() == list(range(n))


def test_cli_pack_partitioned_resume(ray_session, tmp_path, capsys):
    """Resumable sequence packing: global offsets stay EXACT across a
    resume because pass 1's bases are deterministic — a partition
    recomputed after a kill produces byte-identical fragments, and the
    union of partitions equals a single-pass naive packer."""
    import json as _json
    import os as _os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sbo_ray import cli

    rows = [("a", [1, 2, 3]), ("b", []), ("c", [4, 5, 6, 7, 8]),
            ("d", [9, 10]), ("e", [11, 12, 13, 14]), ("f", [15])]
    shards = []
    for i in range(2):
        chunk = rows[i * 3:(i + 1) * 3]
        p = tmp_path / f"tok{i}.parquet"
        pq.write_table(pa.table({
            "doc_id": pa.array([r[0] for r in chunk], pa.string()),
            "tokens": pa.array([r[1] for r in chunk], pa.list_(pa.int32())),
            "n_tok": pa.array([len(r[1]) for r in chunk], pa.int32()),
            "source": pa.array(["s"] * len(chunk), pa.string()),
        }), p)
        shards.append(str(p))
    out = str(tmp_path / "packed")
    assert cli.main(["pack", *shards, "--out", out, "--seq-len", "4"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(res["ran"]) == ["tok0", "tok1"]
    # rerun refuses without --resume; resume after dropping a marker
    assert cli.main(["pack", *shards, "--out", out, "--seq-len", "4"]) == 2
    capsys.readouterr()
    before = open(f"{out}/shard=tok1/part-00000.parquet", "rb").read()
    _os.remove(f"{out}/shard=tok1/_SUCCESS")
    assert cli.main(["pack", *shards, "--out", out, "--seq-len", "4",
                     "--resume"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["ran"] == ["tok1"] and res["skipped"] == ["tok0"]
    after = open(f"{out}/shard=tok1/part-00000.parquet", "rb").read()
    assert before == after  # deterministic bases -> byte-identical redo
    # union == naive single-stream packer at L=4
    import glob as _glob

    frags = pa.concat_tables([pq.read_table(f) for f in sorted(
        _glob.glob(f"{out}/shard=*/part-*.parquet"))])
    got = {(r["doc_id"], r["seq_id"]): (r["n_frag_tokens"], r["frag_sum"],
                                        r["first_tok"], r["last_tok"])
           for r in frags.to_pylist()}
    stream, doc_of = [], []
    for did, toks in rows:
        stream.extend(toks)
        doc_of.extend([did] * len(toks))
    want = {}
    for pos, (tok, did) in enumerate(zip(stream, doc_of)):
        key = (did, pos // 4)
        n, s, ft, lt = want.get(key, (0, 0, tok, tok))
        want[key] = (n + 1, s + tok, ft, tok)
    assert got == want


def test_cli_curate_full_resume_byte_identical(ray_session, tmp_path,
                                               capsys):
    """curate --pipeline full: the checkpointed doc_curation_pipeline.
    Cross-shard dedup winners recompute deterministically from the full
    input list on every invocation, so a partition redone after a kill
    is BYTE-identical, committed partitions are skipped, and the union
    matches the hand-computed curation (cross-shard dups dropped to the
    min-doc_id winner, gate-failing docs gone)."""
    import glob as _glob
    import json as _json
    import os as _os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from sbo_ray import cli

    good = ("the cat and the dog are in the house with a mouse and "
            "they all see it of course over there")          # gate-pass
    other = ("a bird in the hand is worth two of them in the bush "
             "so the saying goes and we all know it is true")  # gate-pass
    third = ("it was the best of times and it was the worst of times "
             "for all of us in the city by the sea")           # gate-pass
    shards = []
    data = [
        [(0, good), (1, "tiny")],          # 1 fails the token gate
        [(2, other), (3, good)],           # 3 dups shard 0's winner
        [(4, good), (5, third)],           # 4 dups it again
    ]
    for i, chunk in enumerate(data):
        p = tmp_path / f"cdocs{i}.parquet"
        pq.write_table(pa.table({
            "doc_id": pa.array([r[0] for r in chunk], pa.int64()),
            "text": pa.array([r[1] for r in chunk], pa.string()),
        }), p)
        shards.append(str(p))
    out = str(tmp_path / "curated_full")
    assert cli.main(["curate", *shards, "--out", out,
                     "--pipeline", "full"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(res["ran"]) == ["cdocs0", "cdocs1", "cdocs2"]
    # rerun refuses without --resume
    assert cli.main(["curate", *shards, "--out", out,
                     "--pipeline", "full"]) == 2
    capsys.readouterr()
    # kill-and-resume: drop shard 2's marker; the redo must be
    # byte-identical (winners don't depend on which shards committed)
    before = open(f"{out}/shard=cdocs2/part-00000.parquet", "rb").read()
    _os.remove(f"{out}/shard=cdocs2/_SUCCESS")
    assert cli.main(["curate", *shards, "--out", out,
                     "--pipeline", "full", "--resume"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["ran"] == ["cdocs2"]
    assert sorted(res["skipped"]) == ["cdocs0", "cdocs1"]
    after = open(f"{out}/shard=cdocs2/part-00000.parquet", "rb").read()
    assert before == after
    # union == hand-computed curation: dups 3 and 4 lose to winner 0,
    # doc 1 fails the gate
    frags = pa.concat_tables([pq.read_table(f) for f in sorted(
        _glob.glob(f"{out}/shard=*/part-*.parquet"))])
    assert sorted(frags.column("doc_id").to_pylist()) == [0, 2, 5]
    assert frags.schema.names == ["doc_id", "n_tokens", "n_stop_en"]
    # and it agrees with the Dataset pipeline over the same corpus
    from sbo_ray.pipelines.dp_text import doc_curation_pipeline

    merged_dir = tmp_path / "merged"
    merged_dir.mkdir()
    pq.write_table(pa.concat_tables(
        [pq.read_table(s) for s in shards]),
        str(merged_dir / "documents.parquet"))
    pipe = doc_curation_pipeline(str(merged_dir)).to_pandas()
    assert sorted(pipe["doc_id"]) == sorted(frags.column(
        "doc_id").to_pylist())


def test_cli_pack_curated_resume_byte_identical(ray_session, tmp_path,
                                                capsys, monkeypatch):
    """pack --curated: gate -> dedup -> pack, checkpointed. Pass-1
    winners AND survivor-stream bases recompute deterministically from
    the full input list, so a partition redone after a kill is
    byte-identical; the union of partitions equals the
    log_pack_tokens_curated query over the same shards (doc_id
    suffixes aligned with stream order)."""
    import glob as _glob
    import json as _json
    import os as _os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sbo_ray import cli
    from sbo_ray.pipelines import queries as Q

    data = [
        [[9, 9, 9, 9, 9, 9, 9, 1], [1, 2]],           # kept | runt
        [[5, 5, 5, 5, 5], [1, 2, 3, 4], [6, 7, 8, 9, 10]],  # const | kept | kept
        [[1, 2, 3, 4], [11, 12, 13, 14, 15, 16]],      # dup of s1 | kept
    ]
    shards, gid = [], 0
    for i, chunk in enumerate(data):
        p = tmp_path / f"tok{i}.parquet"
        pq.write_table(pa.table({
            "doc_id": pa.array([f"a-{gid + j:012d}"
                                for j in range(len(chunk))], pa.string()),
            "tokens": pa.array(chunk, pa.list_(pa.int32())),
            "n_tok": pa.array([len(r) for r in chunk], pa.int32()),
            "source": pa.array(["s"] * len(chunk), pa.string()),
        }), p)
        gid += len(chunk)
        shards.append(str(p))
    out = str(tmp_path / "packed_curated")
    assert cli.main(["pack", *shards, "--out", out, "--seq-len", "8",
                     "--curated"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(res["ran"]) == ["tok0", "tok1", "tok2"]
    # rerun refuses without --resume
    assert cli.main(["pack", *shards, "--out", out, "--seq-len", "8",
                     "--curated"]) == 2
    capsys.readouterr()
    # kill-and-resume: redo shard 1 byte-identically
    before = open(f"{out}/shard=tok1/part-00000.parquet", "rb").read()
    _os.remove(f"{out}/shard=tok1/_SUCCESS")
    assert cli.main(["pack", *shards, "--out", out, "--seq-len", "8",
                     "--curated", "--resume"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["ran"] == ["tok1"]
    assert sorted(res["skipped"]) == ["tok0", "tok2"]
    after = open(f"{out}/shard=tok1/part-00000.parquet", "rb").read()
    assert before == after
    # union == the query flagship over the same shards
    frags = pa.concat_tables([pq.read_table(f) for f in sorted(
        _glob.glob(f"{out}/shard=*/part-*.parquet"))]).to_pandas()
    monkeypatch.setattr(
        Q, "_input_paths",
        lambda sf: shards)
    want = (Q.q_log_pack_tokens_curated("ignored", seq_len=8)
            .to_pandas())
    key = ["doc_id", "seq_id"]
    pd.testing.assert_frame_equal(
        frags.sort_values(key).reset_index(drop=True)[want.columns],
        want.sort_values(key).reset_index(drop=True),
        check_dtype=False)
    # hand-check: survivors are docs 0, 3, 4, 6 (runt 1, const 2 gated;
    # 5 dups 3) -> stream 8+4+5+6=23 tokens, 3 seqs
    assert sorted(set(frags.doc_id)) == [
        "a-000000000000", "a-000000000003", "a-000000000004",
        "a-000000000006"]
    assert frags.n_frag_tokens.sum() == 23
