"""Per-batch sinks read only their own columns: each one selects what it
reads before it filters, and the routed rows are filtered once. These
cases pin that every sink's output equals the old semantics, which
filter the whole enriched batch (``tokens`` included) first, on one
mixed batch: every format, parse failures, irrelevant rows."""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from sbo_ray import synth
from sbo_ray.config import JobConfig
from sbo_ray.functions import loglines as L
from sbo_ray.pipelines import logpipe
from sbo_ray.stages.compat import ordered_fanout
from sbo_ray.stages.metrics import (
    counter_melt,
    fanout_long,
    global_counter_partial,
    metric_fanout,
)
from sbo_ray.stages.parse import make_parse_fn
from sbo_ray.stages.route import relevance_mask, routed_projection
from sbo_ray.state.lineage import _grouped_stage

_N_SOURCES = 10  # two sources per format
_TS = "10/Oct/2000:13:55:36 -0700"
_LONG_UA = "Mozilla/5.0 (X11; Linux x86_64) " + "Gecko/20100101 " * 12 + "Firefox/138.0"
_LONG_URI = "/" + "/".join(["segment" + "x" * 20] * 6) + "?q=1"


def _hand_lines() -> list[tuple[str, str]]:
    """(source, line) rows the synthetic pool does not reliably hold: a
    bot on every format with a UA, 3xx/4xx, malicious URIs, values over
    the routed sink's byte limits, and lines of the wrong format."""
    rows = []
    for i, fmt in enumerate(L.FORMATS):
        src = f"web-{i:02d}"
        for status, uri, ua in [
            ("200", "/robots.txt", "Mozilla/5.0 (compatible; AhrefsBot/7.0)"),
            ("301", "/moved", "curl/8.0"),
            ("404", "/a/../etc/passwd", _LONG_UA),
            ("500", _LONG_URI, _LONG_UA),
            ("200", "/search?q=<script>alert(1)", "Bytespider"),
        ]:
            req = f'"GET {uri} HTTP/1.1" {status} 123'
            tail = f'"http://www.ref.example/{uri[:150]}" "{ua}"'
            if fmt == L.FORMAT_APACHE_COMMON:
                line = f"10.0.0.{i} - - [{_TS}] {req}"
            elif fmt == L.FORMAT_APACHE_VHOST_COMBINED:
                line = f"{src}.example.com:443 10.0.0.{i} - - [{_TS}] {req} {tail}"
            elif fmt == L.FORMAT_NGINX_CUSTOM:
                line = f"10.0.0.{i} - - [{_TS}] {req} {tail} 0.010 0.010"
            else:
                line = f"10.0.0.{i} - - [{_TS}] {req} {tail}"
            rows.append((src, line))
        rows.append((src, "### not a log line"))
    return rows


@pytest.fixture(scope="module")
def mixed():
    """One enriched batch of 600 synthetic rows (special URIs at 30%)
    plus the hand rows, and its job."""
    doc_ids, lines, sources = synth.synth_lines(
        600, seed=17, n_sources=_N_SOURCES, special_frac=0.3)
    for k, (src, line) in enumerate(_hand_lines()):
        doc_ids.append(f"hand-{k:04d}")
        lines.append(line)
        sources.append(src)
    job = JobConfig.from_format_map(synth.source_config(_N_SOURCES))
    raw = synth.build_table(doc_ids, lines, sources)
    enriched = make_parse_fn(job)(raw)

    ok = enriched.column("parse_ok")
    good = enriched.filter(ok)
    rel = relevance_mask(good)
    assert 0 < good.num_rows < enriched.num_rows  # parse failures present
    assert 0 < pc.sum(rel).as_py() < good.num_rows  # irrelevant rows present
    assert pc.sum(pc.not_equal(good.column("malicious"), 0)).as_py() > 0
    assert set(good.column("ua_family").to_pylist()) & {"Scanner", "SEOBot", "Script"}
    assert {s[0] for s in good.column("status").to_pylist()} >= {"2", "3", "4", "5"}
    parsed_sources = set(good.column("source").to_pylist())
    assert {synth.source_format(int(s[4:])) for s in parsed_sources} == set(L.FORMATS)
    return job, raw, enriched


def _parsed(enriched: pa.Table) -> pa.Table:
    """The old sinks' first step: the whole batch filtered to parse_ok."""
    return enriched.filter(enriched.column("parse_ok"))


def _rows(t: pa.Table) -> pa.Table:
    """``t`` sorted by every column: the row order of an Arrow hash
    ``group_by`` (``metric_fanout``, ``counter_melt``) depends on its
    thread count and is not part of a sink's output."""
    return t.sort_by([(c, "ascending") for c in t.column_names])


def test_metric_sinks_equal_filter_whole_batch_first(mixed):
    _, _, enriched = mixed
    good = _parsed(enriched)
    assert _rows(metric_fanout(enriched)).equals(_rows(metric_fanout(good)))
    assert fanout_long(enriched, None).equals(fanout_long(good, None))
    assert _rows(counter_melt(enriched)).equals(_rows(counter_melt(good)))
    assert metric_fanout(enriched).num_rows > 0
    # the sinks never read the token payload
    bare = enriched.drop_columns(["tokens", "n_tok"])
    assert _rows(metric_fanout(bare)).equals(_rows(metric_fanout(enriched)))
    assert _rows(counter_melt(bare)).equals(_rows(counter_melt(enriched)))
    assert global_counter_partial(bare).equals(global_counter_partial(enriched))


def test_global_counter_partial_equals_filter_whole_batch_first(mixed):
    _, _, enriched = mixed
    good = _parsed(enriched)
    got = global_counter_partial(enriched).to_pylist()[0]
    want = global_counter_partial(good).to_pylist()[0]
    assert want["parse_errors"] == 0
    want["parse_errors"] = enriched.num_rows - good.num_rows
    assert got == want
    assert got["handled"] == got["requests"] == good.num_rows


def test_compat_carry_fanout_equals_filter_whole_batch_first(mixed):
    _, _, enriched = mixed
    good = _parsed(enriched)
    assert ordered_fanout(enriched).equals(ordered_fanout(good))
    carried = enriched.append_column(
        "arrival", enriched.column("doc_id").cast(pa.string()))
    long_t = fanout_long(carried, carry="arrival")
    assert long_t.schema.names[-1] == "arrival"
    assert long_t.equals(fanout_long(_parsed(carried), carry="arrival"))


@pytest.mark.parametrize("relevant_only", [True, False])
@pytest.mark.parametrize("mask_ips", [True, False])
def test_routed_projection_filters_once_like_twice(mixed, relevant_only, mask_ips):
    _, _, enriched = mixed
    old = _parsed(enriched)
    if relevant_only:
        old = old.filter(relevance_mask(old))
    got = routed_projection(enriched, mask_ips=mask_ips,
                            relevant_only=relevant_only)
    want = routed_projection(old, mask_ips=mask_ips,
                             relevant_only=relevant_only)
    assert got.num_rows == old.num_rows > 0
    assert got.equals(want)
    # the routed sink moves the token payload of exactly its rows
    assert got.column("tokens").equals(old.column("tokens"))


def _group_rows(out: pa.Table, g: int) -> pa.Table:
    rows = out.filter(pc.equal(out.column("group"), g)).drop_columns(["group"])
    return rows.sort_by([(k, "ascending") for k in logpipe.UNIFIED_KEYS])


def _routed_rows(root) -> pa.Table:
    frags = sorted(root.iterdir())
    return pa.concat_tables([pq.read_table(f) for f in frags]).sort_by("doc_id")


def test_grouped_stage_one_group_equals_split(mixed, tmp_path):
    """A batch holding one group passes whole; the same rows inside a
    batch that spans two groups give the same per-group partials and
    routed rows."""
    job, raw, _ = mixed
    half = raw.num_rows // 2
    paths = pa.array(["a.parquet"] * half + ["b.parquet"] * (raw.num_rows - half))
    batch = raw.append_column("path", paths)
    keys = ["a.parquet", "b.parquet"]
    stage = logpipe.partial_stage(job)

    split_dirs = [tmp_path / "split0", tmp_path / "split1"]
    for d in split_dirs:
        d.mkdir()
    split = _grouped_stage(stage, keys, [0, 1], [str(d) for d in split_dirs])(batch)
    assert sorted(set(split.column("group").to_pylist())) == [0, 1]

    for g, (lo, n) in enumerate([(0, half), (half, raw.num_rows - half)]):
        whole_dirs = [tmp_path / f"whole{g}_0", tmp_path / f"whole{g}_1"]
        for d in whole_dirs:
            d.mkdir()
        one = _grouped_stage(stage, keys, [0, 1], [str(d) for d in whole_dirs])(
            batch.slice(lo, n))
        assert set(one.column("group").to_pylist()) == {g}
        assert one.column("group").type == pa.int32()
        assert _group_rows(one, g).equals(_group_rows(split, g))
        assert _routed_rows(whole_dirs[g]).equals(_routed_rows(split_dirs[g]))
