"""Parse-stage edge cases: all-garbage batches, unknown sources,
empty batches, mixed formats in one batch."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from sbo_ray.codec import encode_lines
from sbo_ray.config import JobConfig, SourceConfig
from sbo_ray.stages.parse import ENRICHED_SCHEMA, ParseEnrich
from sbo_ray.synth import SCHEMA


def _table(lines, sources):
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(lines))]),
        "tokens": encode_lines(lines),
        "n_tok": pa.array([len(l.encode()) for l in lines], type=pa.int32()),
        "source": pa.array(sources),
    }, schema=SCHEMA)


def _job(**src):
    return JobConfig(default=SourceConfig(log_format="apache_combined"),
                     sources={k: SourceConfig(log_format=v) for k, v in src.items()})


def test_all_garbage_batch():
    pe = ParseEnrich(_job())
    t = _table(["garbage", "", "also not a log line \x01"], ["s", "s", "s"])
    out = pe(t)
    assert out.num_rows == 3
    assert out.schema.equals(ENRICHED_SCHEMA)
    assert out.column("parse_ok").to_pylist() == [False, False, False]
    assert out.column("time_window").to_pylist() == [101010000] * 3


def test_unknown_source_uses_default_format():
    pe = ParseEnrich(_job())
    line = '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.1" 200 5 "-" "curl/8.0"'
    out = pe(_table([line], ["never-configured"]))
    assert out.column("parse_ok").to_pylist() == [True]
    assert out.column("ua_family").to_pylist() == ["Script"]


def test_empty_batch():
    pe = ParseEnrich(_job())
    out = pe(SCHEMA.empty_table())
    assert out.num_rows == 0
    assert out.schema.equals(ENRICHED_SCHEMA)


def test_mixed_formats_one_batch():
    clf = '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 10'
    combined = '2.2.2.2 - - [10/Oct/2000:13:55:36 -0700] "GET /b HTTP/1.1" 404 20 "-" "curl/8"'
    vhost = 'x.com:443 3.3.3.3 - - [10/Oct/2000:13:55:36 -0700] "GET /c HTTP/2.0" 500 30 "-" "Bytespider"'
    pe = ParseEnrich(_job(a="apache_common", b="apache_combined",
                          c="apache_vhost_combined"))
    out = pe(_table([clf, combined, vhost], ["a", "b", "c"]))
    by_ip = {r["client_ip"]: r for r in out.to_pylist()}
    assert by_ip["1.1.1.1"]["parse_ok"] and by_ip["1.1.1.1"]["path"] == "/a"
    assert by_ip["2.2.2.2"]["status"] == "404"
    assert by_ip["3.3.3.3"]["domain"] == "x.com:443"
    assert by_ip["3.3.3.3"]["ua_family"] == "SocialBot"
    # CLF has no UA -> empty-string classification (documented divergence)
    assert by_ip["1.1.1.1"]["ua_family"] == "Other"
    assert by_ip["1.1.1.1"]["ua_human"] == "NonHuman"


_MIXED_JOB = dict(a="apache_common", b="apache_combined",
                  c="apache_vhost_combined")


def test_mixed_formats_keep_input_order():
    clf = '1.1.1.{} - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 10'
    combined = '2.2.2.{} - - [10/Oct/2000:13:55:36 -0700] "GET /b HTTP/1.1" 404 20 "-" "curl/8"'
    vhost = 'x.com 3.3.3.{} - - [10/Oct/2000:13:55:36 -0700] "GET /c HTTP/2.0" 500 30 "-" "Bytespider"'
    tmpl = {"a": clf, "b": combined, "c": vhost}
    sources = ["b", "a", "c", "a", "b", "c", "c", "a"]
    lines = [tmpl[s].format(i) for i, s in enumerate(sources)]
    out = ParseEnrich(_job(**_MIXED_JOB))(_table(lines, sources))
    assert out.column("doc_id").to_pylist() == [f"d{i}" for i in range(len(lines))]
    assert out.column("source").to_pylist() == sources
    assert out.column("parse_ok").to_pylist() == [True] * len(lines)
    assert [ip.rsplit(".", 1)[1] for ip in out.column("client_ip").to_pylist()] == [
        str(i) for i in range(len(lines))]


def test_utm_source_overrides_referer_only_on_formats_with_ua():
    uri = "/p?utm_source=x"
    clf = f'1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET {uri} HTTP/1.0" 200 10'
    combined = (f'2.2.2.2 - - [10/Oct/2000:13:55:36 -0700] "GET {uri} HTTP/1.1" '
                '200 20 "http://www.ref.com/a" "curl/8"')
    out = ParseEnrich(_job(**_MIXED_JOB))(_table([clf, combined], ["a", "b"]))
    assert out.column("parse_ok").to_pylist() == [True, True]
    assert out.column("path").to_pylist() == ["/p", "/p"]
    assert out.column("referer").to_pylist() == ["", "x"]


def test_mixed_batch_equals_per_source_batches():
    from sbo_ray import synth

    doc_ids, lines, sources = synth.synth_lines(600, seed=5)
    job = JobConfig.from_format_map(synth.source_config(12))
    table = synth.build_table(doc_ids, lines, sources)
    assert len(set(synth.source_config(12)[s] for s in sources)) > 1
    mixed = ParseEnrich(job)(table).sort_by("doc_id")
    per_source = pa.concat_tables([
        ParseEnrich(job)(table.filter(pc.equal(table.column("source"), s)))
        for s in sorted(set(sources))
    ]).sort_by("doc_id")
    assert mixed.equals(per_source)


def test_nondefault_window_size_per_source():
    line = '1.1.1.1 - - [10/Oct/2000:13:57:36 -0700] "GET /a HTTP/1.1" 200 10 "-" "curl/8"'
    job = JobConfig(
        default=SourceConfig(log_format="apache_combined"),
        sources={"s60": SourceConfig(log_format="apache_combined",
                                     time_window_minutes=60),
                 "s5": SourceConfig(log_format="apache_combined",
                                    time_window_minutes=5)},
    )
    pe = ParseEnrich(job)
    out = pe(_table([line, line], ["s60", "s5"]))
    tw = dict(zip(out.column("source").to_pylist(),
                  out.column("time_window").to_pylist()))
    assert tw["s60"] == 200010101300
    assert tw["s5"] == 200010101355


def test_fast_path_fallback_adversarial():
    """Structurally ambiguous lines (quote inside the \\S+ URI, spaced or
    bracketless timestamps) must fall back to exact regex extraction and
    still match the row-at-a-time oracle field-for-field."""
    from sbo_ray.functions import loglines as L

    adversarial = [
        # quote inside URI (regex matches; quote-split misaligns)
        '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /a"b HTTP/1.1" 200 5 "-" "curl/8"',
        # another quote pattern
        '1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] "GET /x HTTP/1.1" 200 5 "ref"er" "curl/8"',
        # timestamp with two spaces inside brackets
        '1.2.3.4 - - [weird ts here] "GET /x HTTP/1.1" 200 5 "-" "curl/8"',
        # timestamp with no space
        '1.2.3.4 - - [nospacets] "GET /x HTTP/1.1" 200 5 "-" "curl/8"',
        # normal fast-path line for contrast
        '1.2.3.4 - frank [10/Oct/2000:13:55:36 -0700] "GET /x?q=1 HTTP/1.1" 404 55 "http://www.e.com/" "curl/8"',
    ]
    fmt = "apache_combined"
    pe = ParseEnrich(_job())
    out = pe(_table(adversarial, ["s"] * len(adversarial))).to_pylist()
    for line, row in zip(adversarial, out):
        o = L.parse_line(line, fmt)
        assert row["parse_ok"] == o.ok, line
        if not o.ok:
            continue
        assert row["client_ip"] == o.client_ip, line
        assert row["method"] == o.method, line
        assert row["path"] == o.path, line
        assert row["status"] == o.status, line
        assert row["bytes_sent"] == o.bytes_sent, line
        assert row["referer"] == o.referer, line
        assert row["ua_fullname"] == (o.ua.full_name if o.ua else ""), line
        assert row["remote_user"] == o.remote_user, line


# ---- format auto-detection (S-auto, main.go:728-748) -----------------------

CLF = '1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 10'
COMBINED = '2.2.2.2 - frank [10/Oct/2000:13:55:36 -0700] "GET /b HTTP/1.1" 404 20 "-" "curl/8"'
VHOST = 'x.com:443 3.3.3.3 - - [10/Oct/2000:13:55:36 -0700] "GET /c HTTP/2.0" 500 30 "-" "Bytespider"'
NGINX_CUSTOM = '4.4.4.4 - - [10/Oct/2000:13:55:36 -0700] "GET /d HTTP/1.1" 200 40 "-" "curl/8" 0.001 0.001'


def _auto_job():
    return JobConfig(default=SourceConfig(log_format="auto"))


def test_auto_detect_mixed_sources_no_format_map():
    pe = ParseEnrich(_auto_job())
    out = pe(_table([CLF, COMBINED, VHOST, NGINX_CUSTOM],
                    ["s1", "s2", "s3", "s4"]))
    by_ip = {r["client_ip"]: r for r in out.to_pylist()}
    assert all(r["parse_ok"] for r in by_ip.values())
    assert by_ip["1.1.1.1"]["path"] == "/a"
    assert by_ip["2.2.2.2"]["remote_user"] == "frank"
    assert by_ip["3.3.3.3"]["domain"] == "x.com:443"
    assert by_ip["4.4.4.4"]["path"] == "/d"


def test_auto_detect_last_match_wins_like_reference():
    """An apache_combined line also matches nginx_combined; the reference's
    detection loop has no break, so the LAST match (nginx_combined) wins —
    reproduced bug-for-bug (main.go:741-747)."""
    pe = ParseEnrich(_auto_job())
    pe(_table([COMBINED], ["s"]))
    assert pe._detected["s"] == "nginx_combined"


def test_auto_detect_skips_leading_garbage_then_locks():
    pe = ParseEnrich(_auto_job())
    out = pe(_table(["### garbage", CLF, "### more", CLF], ["s"] * 4))
    assert out.column("parse_ok").to_pylist() == [False, True, False, True]
    # the detection line itself is parsed (the reference drops it;
    # documented fix)
    assert out.column("path").to_pylist()[1] == "/a"
    assert pe._detected["s"] == "apache_common"


def test_auto_detect_never_matches_all_errors():
    pe = ParseEnrich(_auto_job())
    out = pe(_table(["junk1", "junk2"], ["s", "s"]))
    assert out.column("parse_ok").to_pylist() == [False, False]
    assert "s" not in pe._detected  # keeps trying on later batches


def test_auto_vs_explicit_same_fields():
    """Auto-detected parse must produce the same enriched fields as the
    explicit config (modulo remote_logname for combined-as-nginx, which
    matches the reference's own detection outcome)."""
    lines = [CLF, COMBINED, VHOST, NGINX_CUSTOM] * 3
    sources = ["a", "b", "c", "d"] * 3
    explicit = ParseEnrich(_job(a="apache_common", b="apache_combined",
                                c="apache_vhost_combined", d="nginx_custom"))
    auto = ParseEnrich(_auto_job())
    t = _table(lines, sources)
    e, o = explicit(t).to_pylist(), auto(t).to_pylist()
    for re_, ro in zip(sorted(e, key=lambda r: r["doc_id"]),
                       sorted(o, key=lambda r: r["doc_id"])):
        for k in re_:
            if k == "remote_logname":
                continue
            assert re_[k] == ro[k], k


# ---- Go time.Parse layout fidelity + metric key truncation ----------------

def test_timestamp_day_must_be_two_digits_hour_may_be_one():
    """Go layout '02' is fixed-width (1-digit day -> parse error -> zero
    time), '15' is not (1-digit hour parses)."""
    from sbo_ray.functions.loglines import GO_ZERO_TIME, parse_apache_timestamp

    assert parse_apache_timestamp("2/Oct/2000:13:55:36 -0700") == GO_ZERO_TIME
    ok = parse_apache_timestamp("10/Oct/2000:3:55:36 -0700")
    assert ok.hour == 3 and ok.year == 2000
    # vectorized engine path agrees
    one_digit_day = '1.1.1.1 - - [2/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 1'
    one_digit_hour = '1.1.1.1 - - [02/Oct/2000:3:55:36 -0700] "GET /a HTTP/1.0" 200 1'
    pe = ParseEnrich(_job(s="apache_common"))
    out = pe(_table([one_digit_day, one_digit_hour], ["s", "s"]))
    tw = out.column("time_window").to_pylist()
    assert tw[0] == 101010000          # zero-time window marker
    assert tw[1] == 200010020350       # real window from the 1-digit hour


def test_metric_key_100_byte_truncation_engine_and_oracle():
    """ReduceToMaxColumnLen at the metrics sink (db/mysqldb.go:152):
    keys sharing a 100-byte prefix merge; engine and oracle agree."""
    from sbo_ray.functions import loglines as L
    from sbo_ray.oracle.pipeline import METRIC_PATH, metric_fanout as oracle_fanout
    from sbo_ray.stages.metrics import metric_fanout

    long_seg = "x" * 120
    line = (f'1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] '
            f'"GET /{long_seg} HTTP/1.1" 200 5 "-" "curl/8"')
    pe = ParseEnrich(_job(s="apache_combined"))
    enriched = pe(_table([line, line], ["s", "s"]))
    m = metric_fanout(enriched)
    path_keys = [r["key_value"] for r in m.to_pylist()
                 if r["metric_type"] == METRIC_PATH]
    assert path_keys == ["/" + "x" * 99]          # truncated AND merged
    row = L.parse_line(line, "apache_combined")
    okeys = [k for mt, k, v in oracle_fanout(row) if mt == METRIC_PATH]
    assert okeys == ["/" + "x" * 99]


# ---- hostile-input robustness (round-2 hardening) --------------------------

def test_truncation_mid_multibyte_char_drops_partial():
    """Byte truncation that splits a UTF-8 char drops the partial char
    (Arrow strings must be valid UTF-8; ≤3 bytes shorter than Go's raw
    byte cut — documented divergence)."""
    from sbo_ray.functions.loglines import (
        reduce_to_max_len,
        reduce_to_max_len_keeping_last,
    )

    s = "a" * 99 + "é" + "rest"   # é = 2 bytes, straddles the 100 limit
    out = reduce_to_max_len(s, 100)
    assert out == "a" * 99
    out.encode("utf-8")  # must be valid UTF-8
    s2 = "x" * 50 + "€" + "y" * 98  # € = 3 bytes; keep-last cut mid-char
    out2 = reduce_to_max_len_keeping_last(s2, 100)
    assert out2.endswith("y" * 98)
    out2.encode("utf-8")


def test_truncated_long_nonascii_path_through_engine():
    """A >100-byte path with a multibyte char at the boundary flows
    through routed_projection + metric_fanout without UnicodeEncodeError."""
    from sbo_ray.stages.metrics import metric_fanout
    from sbo_ray.stages.route import routed_projection

    path = "/" + "p" * 97 + "éxx"
    line = (f'1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] '
            f'"GET {path} HTTP/1.1" 200 5 "-" "curl/8"')
    pe = ParseEnrich(_job(s="apache_combined"))
    enriched = pe(_table([line], ["s"]))
    routed = routed_projection(enriched, relevant_only=False)
    m = metric_fanout(enriched)
    assert routed.num_rows == 1 and m.num_rows > 0


def test_bytes_sent_overflow_clamps_like_go_atoi():
    """Go's strconv.Atoi returns the RANGE-CLAMPED MaxInt64 alongside
    ErrRange; the reference ignores the error (httpservers.go:175-176),
    so >int64 digit runs store MaxInt64 — not 0 (ADVICE r3)."""
    from sbo_ray.functions.loglines import parse_line

    MAX = 9223372036854775807
    big = "9" * 25
    line = f'1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 {big}'
    # oracle scalar path
    row = parse_line(line, "apache_common")
    assert row.ok and row.bytes_sent == MAX
    # vectorized engine path
    pe = ParseEnrich(_job(s="apache_common"))
    out = pe(_table([line], ["s"]))
    assert out.column("parse_ok").to_pylist() == [True]
    assert out.column("bytes_sent").to_pylist() == [MAX]
    # 19-digit boundary: max int64 accepted, max+1 -> clamp
    okmax = line.replace(big, "9223372036854775807")
    over = line.replace(big, "9223372036854775808")
    out2 = pe(_table([okmax, over], ["s", "s"]))
    assert out2.column("bytes_sent").to_pylist() == [MAX, MAX]


def test_bytes_sent_leading_zeros_parse_like_go_atoi():
    """Zero-padded digit strings are small values, not overflow: Go's
    strconv.Atoi('0000...0123') == 123 regardless of string length
    (ADVICE r2). Engine and scalar oracle must agree."""
    from sbo_ray.functions.loglines import parse_line

    padded = "0" * 19 + "123"        # 22 chars, value 123
    zeros = "0" * 25                  # all zeros, value 0
    padmax = "00" + "9223372036854775807"  # padded max int64
    padover = "00" + "9223372036854775808"  # padded max+1 -> clamp to max
    lines = [
        f'1.1.1.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 {v}'
        for v in (padded, zeros, padmax, padover)
    ]
    want = [123, 0, 9223372036854775807, 9223372036854775807]
    for line, w in zip(lines, want):
        row = parse_line(line, "apache_common")
        assert row.ok and row.bytes_sent == w, line
    pe = ParseEnrich(_job(s="apache_common"))
    out = pe(_table(lines, ["s"] * len(lines)))
    assert out.column("parse_ok").to_pylist() == [True] * len(lines)
    assert out.column("bytes_sent").to_pylist() == want


def test_extreme_zone_offset_zero_time_engine_and_oracle():
    from sbo_ray.functions.loglines import GO_ZERO_TIME, parse_apache_timestamp

    assert parse_apache_timestamp("01/Jan/2024:00:00:00 +2500") == GO_ZERO_TIME
    line = '1.1.1.1 - - [01/Jan/2024:00:00:00 +2500] "GET /a HTTP/1.0" 200 1'
    pe = ParseEnrich(_job(s="apache_common"))
    out = pe(_table([line], ["s"]))
    assert out.column("time_window").to_pylist() == [101010000]


def test_referer_fragment_stripped_like_go_url_parse():
    from sbo_ray.functions.gourl import go_referer_hostname

    assert go_referer_hostname("http://example.com#sec") == "example.com"
    assert go_referer_hostname("http://example.com/p#a%zz") is None  # bad frag escape
    # ParseRequestURI does NOT cut fragments (request path keeps '#')
    from sbo_ray.functions.gourl import go_parse_request_uri

    u = go_parse_request_uri("/a#b")
    assert u is not None and u.path == "/a#b"
