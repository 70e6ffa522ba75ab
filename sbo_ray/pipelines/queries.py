"""Driver-contract query registry: name -> (Ray callable, DuckDB oracle SQL).

Every log oracle is an independent DuckDB implementation of the same
semantics over the raw line view ``lines.parquet`` (regexp parse, window
math, Go net/url, the UA tree and the malicious classifier in SQL) or
over the token shards themselves.

All SQL strings target the sf0.01 cache (the driver's correctness
scale); ``log_oracle_sql()`` materializes that cache before returning.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import exchange as X
from .. import synth
from ..codec import one_array
from ..config import JobConfig
from ..functions import pack
from ..functions.dedup import min_index_winners
from . import logpipe

SF_CORRECTNESS = "/root/testdata/sf0.01"

# ---- DuckDB patterns (same RE2 semantics as the engine's, unnamed groups)
_P = {
    0: r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d+) (\d+)$',
    1: r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d+) (\d+) "([^"]*)" "([^"]*)"$',
    2: r'^(\S+) (\S+) (\S+) (\S+) \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d+) (\d+) "([^"]*)" "([^"]*)"$',
    3: r'^(\S+) - (\S+) \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d+) (\d+) "([^"]*)" "([^"]*)"$',
    4: r'^(\S+) - (\S+) \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d+) (\d+) "([^"]*)" "([^"]*)" (\S+) (\S+)$',
}


# per-field (format -> capture-group index); DuckDB needs constant
# pattern+group per regexp call, so every extraction is a CASE over fi
_GROUPS = {
    "ts": {0: 4, 1: 4, 2: 5, 3: 3, 4: 3},
    "method": {0: 5, 1: 5, 2: 6, 3: 4, 4: 4},
    "uri": {0: 6, 1: 6, 2: 7, 3: 5, 4: 5},
    "status": {0: 8, 1: 8, 2: 9, 3: 7, 4: 7},
    "bytes": {0: 9, 1: 9, 2: 10, 3: 8, 4: 8},
    "client_ip": {0: 1, 1: 1, 2: 2, 3: 1, 4: 1},
    "remote_user": {0: 3, 1: 3, 2: 4, 3: 2, 4: 2},
    # fi=0 (CLF) captures no referer/UA -> coalesced to '' (_extract_opt)
    "referer": {1: 10, 2: 11, 3: 9, 4: 9},
    "ua": {1: 11, 2: 12, 3: 10, 4: 10},
}


def _single_group(pattern: str, keep: int) -> str:
    """Rewrite a pattern so only capture group ``keep`` stays capturing
    (DuckDB's regexp_extract group index is limited to 0..9)."""
    out, gi = [], 0
    for ch in pattern:
        if ch == "(":
            gi += 1
            out.append("(" if gi == keep else "(?:")
        else:
            out.append(ch)
    return "".join(out)


def _extract_case(field: str) -> str:
    arms = " ".join(
        "WHEN {} THEN regexp_extract(line, '{}', 1)".format(
            fi, _single_group(_P[fi], _GROUPS[field][fi])
        )
        for fi in range(5)
        if fi in _GROUPS[field]
    )
    return f"CASE fi {arms} END"


def _extract_opt(field: str) -> str:
    """Like _extract_case but '' for formats that lack the field."""
    return f"coalesce({_extract_case(field)}, '')"


def _matches_case() -> str:
    arms = " ".join(
        f"WHEN {fi} THEN regexp_matches(line, '{_P[fi]}')" for fi in range(5)
    )
    return f"CASE fi {arms} END"


def _pattern_cte(cache: str) -> str:
    """Shared SQL prefix: per-source format index (mirrors
    synth.source_format: source index %% 5 over FORMATS)."""
    return f"""
WITH pat AS (
  SELECT doc_id, line, source, CAST(substr(source, 5) AS INT) % 5 AS fi
  FROM read_parquet('{cache}/lines.parquet')
)"""


def sql_metrics_basic(cache: str) -> str:
    """Independent SQL: REQ_COUNT / BYTES_SENT / HTTP_STATUS / METHOD
    metrics (types 1,2,3,5) incl. the local-clock time-window rule."""
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source,
    {_extract_case("ts")} AS ts_str,
    {_extract_case("method")} AS method,
    {_extract_case("status")} AS status,
    CAST({_extract_case("bytes")} AS BIGINT) AS bytes_sent
  FROM pat WHERE {_matches_case()}
), win AS (
  SELECT source, method, status, bytes_sent,
    try_strptime(split_part(ts_str, ' ', 1), '%d/%b/%Y:%H:%M:%S') AS lt
  FROM parsed
), w2 AS (
  SELECT source, method, status, bytes_sent,
    CAST(year(lt) AS BIGINT)*100000000 + month(lt)*1000000 + day(lt)*10000
      + hour(lt)*100 + (minute(lt) - minute(lt)%10) AS time_window
  FROM win
)
SELECT source, CAST(1 AS INTEGER) AS metric_type, '' AS key_value,
       time_window, CAST(COUNT(*) AS BIGINT) AS metric_value
FROM w2 GROUP BY source, time_window
UNION ALL
SELECT source, CAST(2 AS INTEGER), '', time_window, CAST(SUM(bytes_sent) AS BIGINT)
FROM w2 GROUP BY source, time_window
UNION ALL
SELECT source, CAST(3 AS INTEGER), status, time_window, CAST(COUNT(*) AS BIGINT)
FROM w2 GROUP BY source, status, time_window
UNION ALL
SELECT source, CAST(5 AS INTEGER), method, time_window, CAST(COUNT(*) AS BIGINT)
FROM w2 GROUP BY source, method, time_window
"""


def sql_parse_stats(cache: str) -> str:
    """Independent SQL: per-source line/parse/error counts (the lineage
    counters, main.go:700-707)."""
    return _pattern_cte(cache) + f"""
SELECT source,
  CAST(COUNT(*) AS BIGINT) AS total_lines,
  CAST(SUM(CASE WHEN {_matches_case()} THEN 1 ELSE 0 END) AS BIGINT) AS parsed,
  CAST(SUM(CASE WHEN {_matches_case()} THEN 0 ELSE 1 END) AS BIGINT) AS parse_errors
FROM pat GROUP BY source
"""


def sql_geo_counts(cache: str) -> str:
    """Independent SQL mirror of the broadcast geo lookup (/24 prefixes)."""
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source, {_extract_case("client_ip")} AS ip
  FROM pat WHERE {_matches_case()}
)
SELECT source,
  CASE WHEN ip LIKE '192.0.2.%' THEN 'testnet-1'
       WHEN ip LIKE '198.51.100.%' THEN 'testnet-2'
       WHEN ip LIKE '203.0.113.%' THEN 'testnet-3'
       ELSE 'unknown' END AS geo,
  CAST(COUNT(*) AS BIGINT) AS cnt
FROM parsed GROUP BY 1, 2
"""


def sql_status_class_counts(cache: str) -> str:
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source, {_extract_case("status")} AS status
  FROM pat WHERE {_matches_case()}
)
SELECT source, substr(status, 1, 1) || 'xx' AS status_class,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM parsed GROUP BY 1, 2
"""


def sql_counter_deltas(cache: str) -> str:
    """Independent SQL: windowed counter deltas (counter.go:53-56,
    255-284) — the reference's per-tick report is (current cumulative,
    current-previous); in event-time the per-window count IS that delta
    and the running sum is the cumulative, via SUM OVER."""
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source,
    {_extract_case("ts")} AS ts_str,
    {_extract_case("method")} AS method,
    {_extract_case("status")} AS status,
    {_extract_case("client_ip")} AS ip
  FROM pat WHERE {_matches_case()}
), w2 AS (
  SELECT source, method, status, ip,
    CAST(year(lt) AS BIGINT)*100000000 + month(lt)*1000000 + day(lt)*10000
      + hour(lt)*100 + (minute(lt) - minute(lt)%10) AS time_window
  FROM (SELECT *, try_strptime(split_part(ts_str, ' ', 1),
                               '%d/%b/%Y:%H:%M:%S') AS lt FROM parsed)
), counts AS (
  SELECT source, 'status_codes' AS dimension, status AS key_value,
         time_window, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM w2 GROUP BY source, status, time_window
  UNION ALL
  SELECT source, 'methods', method, time_window, CAST(COUNT(*) AS BIGINT)
  FROM w2 GROUP BY source, method, time_window
  UNION ALL
  SELECT source, 'clients', ip, time_window, CAST(COUNT(*) AS BIGINT)
  FROM w2 GROUP BY source, ip, time_window
)
SELECT source, dimension, key_value, time_window, cnt,
       CAST(SUM(cnt) OVER (PARTITION BY source, dimension, key_value
                           ORDER BY time_window
                           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cumulative
FROM counts
"""


def sql_rate_zscore(cache: str) -> str:
    """Independent SQL: per-source window request-rate z-scores (the
    telemetry anomaly view over the SAME 10-minute event-time windows
    the counter report uses). STDDEV_SAMP matches numpy ddof=1."""
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source, {_extract_case("ts")} AS ts_str
  FROM pat WHERE {_matches_case()}
), w2 AS (
  SELECT source,
    CAST(year(lt) AS BIGINT)*100000000 + month(lt)*1000000 + day(lt)*10000
      + hour(lt)*100 + (minute(lt) - minute(lt)%10) AS time_window
  FROM (SELECT *, try_strptime(split_part(ts_str, ' ', 1),
                               '%d/%b/%Y:%H:%M:%S') AS lt FROM parsed)
), wc AS (
  SELECT source, time_window, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM w2 GROUP BY 1, 2
), st AS (
  SELECT source, AVG(cnt) AS mean_c, STDDEV_SAMP(cnt) AS sd
  FROM wc GROUP BY 1
)
SELECT wc.source, wc.time_window, wc.cnt,
       ROUND((wc.cnt - st.mean_c) / st.sd, 6) AS zscore
FROM wc JOIN st USING (source)
WHERE st.sd > 0 AND ABS((wc.cnt - st.mean_c) / st.sd) >= 1.5
"""


def sql_bytes_quantiles(cache: str) -> str:
    """Independent SQL: per-source byte-size percentiles. quantile_cont
    == numpy 'linear' (rank q*(n-1), linear interpolation). Formats
    without a bytes field and empty captures count as 0, matching the
    engine's Atoi("")->0 fill."""
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source,
    CASE WHEN {_extract_opt("bytes")} = '' THEN 0
         ELSE CAST({_extract_opt("bytes")} AS BIGINT) END AS bytes_sent
  FROM pat WHERE {_matches_case()}
)
SELECT source,
  ROUND(quantile_cont(bytes_sent, 0.5), 6) AS p50,
  ROUND(quantile_cont(bytes_sent, 0.9), 6) AS p90,
  ROUND(quantile_cont(bytes_sent, 0.99), 6) AS p99
FROM parsed GROUP BY source
"""


# ---- Go net/url parse + malicious classifier, in pure SQL ------------------
#
# A genuinely independent third implementation of split_path
# (httpservers.go:95-165 / functions/gourl.py + loglines.split_path):
# scheme scan, ForceQuery / first-'?' query cut, authority + userinfo
# strip, strict %-escape validation, Latin-1-style byte decode (chr per
# byte — matches Go's byte-string unescape), path1-3 splitting and the
# INVALID > TRAVERSAL > XSS > SQLI precedence. Validated against the
# Python port over 63 adversarial URIs + every distinct corpus URI
# (tests/test_sql_url_parity.py).

_HEXD = "0123456789abcdef"


def _sql_hexval(c: str) -> str:
    return f"(strpos('{_HEXD}', lower({c}))-1)"


def _sql_bad_escapes(col: str) -> str:
    """True iff ``col`` contains a '%' not starting a valid 2-hex escape
    (RE2 has no lookahead, so check the split parts)."""
    parts = f"str_split({col}, '%')"
    return (f"(strpos({col}, '%') > 0 AND list_bool_or(list_transform("
            f"list_slice({parts}, 2, len({parts})),"
            f" p -> NOT regexp_matches(substr(p, 1, 2), '^[0-9a-fA-F]{{2}}$'))))")


def _sql_decode(col: str) -> str:
    """Percent-decode (escapes pre-validated): chr(byte) per %XX, i.e.
    Latin-1 code points exactly like the engine's _unescape_path."""
    parts = f"str_split({col}, '%')"
    return (f"CASE WHEN strpos({col}, '%') = 0 THEN {col} ELSE "
            f"list_extract({parts}, 1) || list_aggregate("
            f"list_transform(list_slice({parts}, 2, len({parts})),"
            f" p -> chr(CAST({_sql_hexval('substr(p,1,1)')}*16"
            f" + {_sql_hexval('substr(p,2,1)')} AS INTEGER)) || substr(p, 3)),"
            f" 'string_agg', '') END")


def _sql_url_ctes() -> str:
    """CTE chain ``u0``..``urlparsed``: expects a prior CTE ``parsedu``
    with a ``uri`` column (other columns pass through); yields ``path``,
    ``path1..3`` and ``malicious``."""
    return f"""
, u0 AS (
  SELECT *,
    regexp_matches(uri, '[\\x00-\\x1f\\x7f]') AS has_ctl,
    CASE WHEN regexp_matches(uri, '^[A-Za-z][A-Za-z0-9+.\\-]*:')
         THEN lower(regexp_extract(uri, '^([A-Za-z][A-Za-z0-9+.\\-]*):', 1)) ELSE '' END AS scheme,
    CASE WHEN regexp_matches(uri, '^[A-Za-z][A-Za-z0-9+.\\-]*:')
         THEN regexp_extract(uri, '^[A-Za-z][A-Za-z0-9+.\\-]*:(.*)$', 1) ELSE uri END AS rest
  FROM parsedu
), u1 AS (
  SELECT *,
    CASE WHEN ends_with(rest, '?') AND strpos(substr(rest, 1, len(rest)-1), '?') = 0
         THEN substr(rest, 1, len(rest)-1) ELSE split_part(rest, '?', 1) END AS rest2,
    CASE WHEN ends_with(rest, '?') AND strpos(substr(rest, 1, len(rest)-1), '?') = 0 THEN ''
         WHEN strpos(rest, '?') > 0 THEN substr(rest, strpos(rest, '?')+1)
         ELSE '' END AS raw_query
  FROM u0
), u2 AS (
  SELECT *,
    (scheme <> '' AND rest2 LIKE '//%') AS has_auth,
    CASE WHEN scheme <> '' AND rest2 LIKE '//%' THEN substr(rest2, 3) ELSE '' END AS authfull
  FROM u1
), u3 AS (
  SELECT *,
    CASE WHEN has_auth AND strpos(authfull, '/') > 0
         THEN substr(authfull, 1, strpos(authfull, '/')-1)
         WHEN has_auth THEN authfull ELSE '' END AS auth,
    CASE WHEN has_auth AND strpos(authfull, '/') > 0 THEN substr(authfull, strpos(authfull, '/'))
         WHEN has_auth THEN ''
         ELSE rest2 END AS prepath
  FROM u2
), u4 AS (
  SELECT *,
    CASE WHEN strpos(auth, '@') > 0 THEN regexp_extract(auth, '@([^@]*)$', 1) ELSE auth END AS hostp
  FROM u3
), u5 AS (
  SELECT *,
    (uri = '*') AS is_star,
    (uri <> '*' AND scheme <> '' AND NOT rest2 LIKE '/%') AS is_opaque,
    (has_ctl OR uri = '' OR uri LIKE ':%'
      OR (uri <> '*' AND scheme = '' AND NOT rest2 LIKE '/%')
      OR (has_auth AND (regexp_matches(hostp, '[\\x00-\\x1f\\x7f]') OR {_sql_bad_escapes('hostp')}))
      OR (uri <> '*' AND NOT (scheme <> '' AND NOT rest2 LIKE '/%') AND {_sql_bad_escapes('prepath')})
    ) AS parse_fail
  FROM u4
), u6 AS (
  SELECT *,
    CASE WHEN parse_fail THEN split_part(uri, '?', 1)
         WHEN is_star THEN '*'
         WHEN is_opaque THEN ''
         ELSE {_sql_decode('prepath')} END AS path,
    CASE WHEN parse_fail OR is_star THEN '' ELSE raw_query END AS rq
  FROM u5
), u7 AS (
  SELECT *, CASE WHEN parse_fail THEN 0 ELSE len(str_split(path, '/')) END AS nseg
  FROM u6
), urlparsed AS (
  SELECT *,
    CASE WHEN parse_fail OR path = '' THEN '' WHEN nseg = 1 THEN '/'
         ELSE '/' || str_split(path,'/')[2] END AS path1,
    CASE WHEN NOT parse_fail AND path <> '' AND nseg > 2
         THEN '/' || str_split(path,'/')[2] || '/' || str_split(path,'/')[3] ELSE '' END AS path2,
    CASE WHEN NOT parse_fail AND path <> '' AND nseg > 3
         THEN '/' || str_split(path,'/')[2] || '/' || str_split(path,'/')[3] || '/' || str_split(path,'/')[4]
         ELSE '' END AS path3,
    CASE WHEN parse_fail THEN 1
         WHEN strpos(path, '/../') > 0 OR strpos(uri, '%00') > 0 THEN 30
         WHEN regexp_matches(rq, '<script|script>|alert|onmouseover|onmouseout') THEN 20
         WHEN regexp_matches(rq, $sqli${_SQLI_RE}$sqli$) THEN 10
         ELSE 0 END AS malicious
  FROM u7
)"""


_SQLI_RE = "'.*(insert|update|exec|execute)"


# ---- UA classification + referer hostname, in pure SQL ---------------------
#
# Independent third implementations of useragent.go's NewSBOUserAgent
# (functions/ua.py) and httpservers.go's referer normalization
# (loglines.normalize_referer + gourl.go_referer_hostname). The token
# scan's state machine collapses to last-non-NULL-wins per field over
# the extracted token list (human/intent/found-flags are
# order-independent: they only ever switch one way), so no fold is
# needed. Parity pinned in tests/test_sql_url_parity.py over
# adversarial UAs/referers + the corpus pools.

_UA_TT = r"ltrim(t, ' \t')"
_UA_ISP = f"starts_with({_UA_TT}, '(')"
_UA_P = f"substr({_UA_TT}, 2, len({_UA_TT})-2)"

_UA_STRUCT = r"""
list_transform(
  regexp_extract_all(after, '\s*\(([^)]+)\)|\s*([^/]+/[^ ]+)'),
  t -> struct_pack(
      os := CASE
        WHEN __ISP__ THEN CASE
          WHEN starts_with(__P__, 'Windows') THEN 'Windows'
          WHEN starts_with(__P__, 'Mac') THEN 'MacOS'
          WHEN starts_with(__P__, 'iPhone') OR starts_with(__P__, 'iPad') THEN 'IOS'
          WHEN contains(__P__, 'Android') THEN 'Android'
          WHEN contains(__P__, 'Linux') THEN 'Linux'
          ELSE NULL END
        ELSE CASE
          WHEN starts_with(__Q__, 'CriOS') THEN 'IOS'
          WHEN starts_with(__Q__, 'Edg') THEN 'Windows'
          ELSE NULL END
        END,
      dev := CASE
        WHEN __ISP__ THEN CASE
          WHEN starts_with(__P__, 'Windows') OR starts_with(__P__, 'Mac') THEN 'Desktop'
          WHEN starts_with(__P__, 'iPhone') OR starts_with(__P__, 'iPad') THEN 'Mobile'
          WHEN contains(__P__, 'Android') THEN 'Mobile'
          WHEN contains(__P__, 'Linux') THEN 'Desktop'
          WHEN starts_with(__P__, 'compatible') AND contains(lower(__P__), 'bot')
            THEN CASE WHEN contains(lower(__P__), 'blex') THEN 'SEOBot' ELSE 'Script' END
          WHEN contains(__P__, 'Claude') THEN 'Script'
          ELSE NULL END
        ELSE CASE
          WHEN starts_with(__Q__, 'Chrome') OR starts_with(__Q__, 'Safari')
            OR starts_with(__Q__, 'CriOS') OR starts_with(__Q__, 'Edg')
            OR starts_with(__Q__, 'Firefox') THEN NULL
          WHEN contains(__Q__, 'compatible') AND contains(lower(__Q__), 'bot')
            THEN CASE WHEN contains(lower(__Q__), 'blex') THEN 'SEOBot' ELSE 'Script' END
          WHEN contains(__Q__, 'openai') THEN 'Script'
          WHEN contains(__Q__, 'Claude') THEN 'Script'
          ELSE NULL END
        END,
      fam := CASE
        WHEN __ISP__ THEN CASE
          WHEN starts_with(__P__, 'Windows') OR starts_with(__P__, 'Mac')
            OR starts_with(__P__, 'iPhone') OR starts_with(__P__, 'iPad')
            OR contains(__P__, 'Android') OR contains(__P__, 'Linux') THEN NULL
          WHEN starts_with(__P__, 'compatible') AND contains(lower(__P__), 'bot') THEN 'OtherBot'
          WHEN contains(__P__, 'Claude') THEN 'AIBot'
          ELSE NULL END
        ELSE CASE
          WHEN starts_with(__Q__, 'Chrome') THEN 'Chrome'
          WHEN starts_with(__Q__, 'Safari') THEN 'Safari'
          WHEN starts_with(__Q__, 'CriOS') THEN 'Chrome'
          WHEN starts_with(__Q__, 'Edg') THEN 'Edge'
          WHEN starts_with(__Q__, 'Firefox') THEN 'Firefox'
          WHEN contains(__Q__, 'compatible') AND contains(lower(__Q__), 'bot') THEN 'OtherBot'
          WHEN contains(__Q__, 'openai') THEN 'AIBot'
          WHEN contains(__Q__, 'Claude') THEN 'AIBot'
          ELSE NULL END
        END,
      hum := (__ISP__ AND (
                (contains(__P__, 'Android') AND contains(__P__, 'Googlebot'))
                OR (starts_with(__P__, 'compatible') AND contains(lower(__P__), 'bot'))
                OR contains(__P__, 'Claude')))
             OR (NOT __ISP__ AND (
                (contains(__Q__, 'compatible') AND contains(lower(__Q__), 'bot'))
                OR contains(__Q__, 'openai') OR contains(__Q__, 'Claude'))),
      intp := (__ISP__ AND starts_with(__P__, 'compatible') AND contains(lower(__P__), 'bot')
               AND contains(lower(__P__), 'blex'))
           OR (NOT __ISP__ AND contains(__Q__, 'compatible') AND contains(lower(__Q__), 'bot')
               AND contains(lower(__Q__), 'blex')),
      f_chrome := NOT __ISP__ AND starts_with(__Q__, 'Chrome'),
      f_safari := NOT __ISP__ AND starts_with(__Q__, 'Safari'),
      f_crios := NOT __ISP__ AND starts_with(__Q__, 'CriOS'),
      f_edge := NOT __ISP__ AND starts_with(__Q__, 'Edg'),
      f_ff := NOT __ISP__ AND starts_with(__Q__, 'Firefox')
  )
)
"""


def _ua_tok_struct() -> str:
    return (_UA_STRUCT.replace("__ISP__", _UA_ISP).replace("__P__", _UA_P)
            .replace("__Q__", _UA_TT))


def _ua_last(field: str) -> str:
    return (f"list_reverse(list_filter(list_transform(toks, s -> s.{field}),"
            f" x -> x IS NOT NULL))[1]")


def _ua_any(field: str) -> str:
    return f"coalesce(list_bool_or(list_transform(toks, s -> s.{field})), false)"


def _sql_ua_ctes() -> str:
    """CTE chain expecting ``urlparsed`` with a ``ua`` column; yields
    ``uadone`` with ua_os/ua_family/ua_device/ua_human/ua_intent
    (PRE-robots-override; apply the override where path1 is at hand)."""
    return f"""
, ua0 AS (
  SELECT *, lower(ua) AS lua, strpos(ua, ' ') AS sp,
    CASE WHEN strpos(ua, ' ') > 0 THEN substr(ua, 1, strpos(ua, ' ')-1) ELSE ua END AS before,
    CASE WHEN strpos(ua, ' ') > 0 THEN substr(ua, strpos(ua, ' ')+1) ELSE '' END AS after
  FROM urlparsed
), ua1 AS (
  SELECT *,
    CASE
      WHEN regexp_matches(lua, 'googlebot|bingbot|baiduspider|yandexbot|duckduckbot') THEN 'search'
      WHEN regexp_matches(lua, 'facebookexternalhit|twitterbot|linkedinbot|pinterestbot|slackbot|bytespider') THEN 'social'
      WHEN regexp_matches(lua, 'ahrefs|semrush|dotbot|mj12bot|seobilitybot|siteauditbot|yandex.') THEN 'seo'
      WHEN regexp_matches(lua, 'gptbot|chatgpt|google-extended|claudebot|meta-externalagent|amazonbot|perplexitybot|youbot') THEN 'ai'
      WHEN regexp_matches(lua, 'censysinspect|expanse|aliyunsecbot|nmap|masscan|zgrab|shodanbot|urlscan|tchelebi') THEN 'scanner'
      WHEN regexp_matches(lua, 'curl|scrapy|wget|python|go-http-client|java|ruby|okhttp|postman|axios|guzzlehttp|headlesschrome|phantomjs|cloudflare-traffic-manager') THEN 'script'
      ELSE NULL END AS tier
  FROM ua0
), ua2 AS (
  SELECT *, {_ua_tok_struct()} AS toks FROM ua1
), ua3 AS (
  SELECT *,
    {_ua_last('os')} AS t_os, {_ua_last('dev')} AS t_dev, {_ua_last('fam')} AS t_fam,
    {_ua_any('hum')} AS t_hum, {_ua_any('intp')} AS t_intp,
    {_ua_any('f_chrome')} AS f_chrome, {_ua_any('f_safari')} AS f_safari,
    {_ua_any('f_crios')} AS f_crios, {_ua_any('f_edge')} AS f_edge,
    {_ua_any('f_ff')} AS f_ff
  FROM ua2
), ua4 AS (
  SELECT *,
    CASE WHEN f_crios THEN 'Chrome'
         WHEN f_edge THEN 'Edge'
         WHEN f_safari AND f_chrome THEN 'Chrome'
         WHEN f_safari AND NOT f_chrome AND NOT f_edge AND NOT f_ff THEN 'Safari'
         ELSE coalesce(t_fam, 'Other') END AS scan_fam0,
    CASE WHEN f_crios THEN 'IOS' WHEN f_edge THEN 'Windows'
         ELSE coalesce(t_os, 'Other') END AS scan_os0,
    coalesce(t_dev, 'Unknown') AS scan_dev0
  FROM ua3
), uadone AS (
  SELECT *,
    CASE WHEN tier IS NOT NULL THEN 'Other'
         WHEN sp = 0 THEN 'Other'
         WHEN scan_fam0 IN ('SearchBot', 'OtherBot') THEN 'Other'
         ELSE scan_os0 END AS ua_os,
    CASE WHEN tier = 'search' THEN 'SearchBot'
         WHEN tier = 'social' THEN 'SocialBot'
         WHEN tier = 'seo' THEN 'SEOBot'
         WHEN tier = 'ai' THEN 'AIBot'
         WHEN tier = 'scanner' THEN 'Scanner'
         WHEN tier = 'script' THEN 'Script'
         WHEN sp = 0 THEN CASE
           WHEN contains(lower(before), 'google') THEN 'SearchBot'
           WHEN starts_with(lower(before), 'facebook') THEN 'OtherBot'
           WHEN starts_with(lower(before), 'meta-') THEN 'AIBot'
           WHEN contains(lower(before), 'curl') OR starts_with(lower(before), 'go-')
             OR contains(lower(before), 'java') OR contains(lower(before), 'apache')
             OR contains(lower(before), 'php') OR contains(lower(before), 'python')
             OR contains(lower(before), 'requests') THEN 'Script'
           ELSE 'Other' END
         ELSE scan_fam0 END AS ua_family,
    CASE WHEN tier IS NOT NULL THEN 'Script'
         WHEN sp = 0 THEN CASE
           WHEN starts_with(lower(before), 'facebook')
             OR starts_with(lower(before), 'meta-') THEN 'Script'
           ELSE 'Unknown' END
         WHEN scan_fam0 IN ('SearchBot', 'OtherBot') THEN 'Script'
         ELSE scan_dev0 END AS ua_device,
    CASE WHEN tier IS NOT NULL THEN 'NonHuman'
         WHEN sp = 0 THEN 'NonHuman'
         WHEN scan_fam0 IN ('SearchBot', 'OtherBot') THEN 'NonHuman'
         WHEN t_hum THEN 'NonHuman'
         ELSE 'Unknown' END AS ua_human,
    CASE WHEN tier IN ('search', 'social', 'seo', 'ai') THEN 'Processing'
         WHEN tier = 'scanner' THEN 'Scanning'
         WHEN tier = 'script' THEN 'Scraping'
         WHEN sp > 0 AND t_intp THEN 'Processing'
         ELSE 'Unknown' END AS ua_intent
  FROM ua4
)"""


def _sql_ref_ctes() -> str:
    """CTE chain expecting ``uadone`` with a ``ref`` column (raw referer
    header); yields ``refdone`` with ``ref_host`` (hostname, www.
    stripped, '' on parse error/empty — go_referer_hostname)."""
    return f"""
, r0 AS (
  SELECT *,
    split_part(ref, '#', 1) AS r_rawurl,
    CASE WHEN strpos(ref, '#') > 0 THEN substr(ref, strpos(ref, '#')+1) ELSE '' END AS r_frag,
    (strpos(ref, '#') > 0) AS r_has_frag
  FROM uadone
), r1 AS (
  SELECT *,
    (r_has_frag AND {_sql_bad_escapes('r_frag')}) AS r_frag_bad,
    regexp_matches(r_rawurl, '[\\x00-\\x1f\\x7f]') AS r_has_ctl,
    CASE WHEN regexp_matches(r_rawurl, '^[A-Za-z][A-Za-z0-9+.\\-]*:')
         THEN lower(regexp_extract(r_rawurl, '^([A-Za-z][A-Za-z0-9+.\\-]*):', 1)) ELSE '' END AS r_scheme,
    CASE WHEN regexp_matches(r_rawurl, '^[A-Za-z][A-Za-z0-9+.\\-]*:')
         THEN regexp_extract(r_rawurl, '^[A-Za-z][A-Za-z0-9+.\\-]*:(.*)$', 1) ELSE r_rawurl END AS r_rest
  FROM r0
), r2 AS (
  SELECT *,
    CASE WHEN ends_with(r_rest, '?') AND strpos(substr(r_rest, 1, len(r_rest)-1), '?') = 0
         THEN substr(r_rest, 1, len(r_rest)-1) ELSE split_part(r_rest, '?', 1) END AS r_rest2
  FROM r1
), r3 AS (
  SELECT *,
    ((r_scheme <> '' OR NOT starts_with(r_rest2, '///')) AND starts_with(r_rest2, '//')) AS r_has_auth
  FROM r2
), r4 AS (
  SELECT *, CASE WHEN r_has_auth THEN substr(r_rest2, 3) ELSE '' END AS r_authfull
  FROM r3
), r5 AS (
  SELECT *,
    CASE WHEN r_has_auth AND strpos(r_authfull, '/') > 0
         THEN substr(r_authfull, 1, strpos(r_authfull, '/')-1)
         WHEN r_has_auth THEN r_authfull ELSE '' END AS r_auth,
    CASE WHEN r_has_auth AND strpos(r_authfull, '/') > 0
         THEN substr(r_authfull, strpos(r_authfull, '/'))
         WHEN r_has_auth THEN ''
         ELSE r_rest2 END AS r_prepath
  FROM r4
), r6 AS (
  SELECT *,
    CASE WHEN strpos(r_auth, '@') > 0 THEN regexp_extract(r_auth, '@([^@]*)$', 1)
         ELSE r_auth END AS r_hostp
  FROM r5
), r7 AS (
  SELECT *,
    (r_frag_bad OR r_has_ctl OR r_rawurl LIKE ':%'
      OR (r_rawurl <> '*' AND r_scheme = '' AND NOT starts_with(r_rest2, '/')
          AND strpos(split_part(r_rest2, '/', 1), ':') > 0)
      OR (r_has_auth AND (regexp_matches(r_hostp, '[\\x00-\\x1f\\x7f]')
                          OR {_sql_bad_escapes('r_hostp')}))
      OR (r_rawurl <> '*' AND NOT (r_scheme <> '' AND NOT starts_with(r_rest2, '/'))
          AND {_sql_bad_escapes('r_prepath')})
    ) AS r_fail,
    CASE WHEN r_rawurl = '*' OR NOT r_has_auth THEN '' ELSE r_hostp END AS r_host0
  FROM r6
), r8 AS (
  SELECT *,
    CASE WHEN strpos(r_host0, ':') > 0
              AND (len(r_host0) - strpos(reverse(r_host0), ':') + 1)
                  > coalesce(nullif(len(r_host0) - strpos(reverse(r_host0), ']') + 1,
                                    len(r_host0)+1), 0)
         THEN substr(r_host0, 1, len(r_host0) - strpos(reverse(r_host0), ':'))
         ELSE r_host0 END AS r_host1
  FROM r7
), r9 AS (
  SELECT *,
    CASE WHEN starts_with(r_host1, '[') AND ends_with(r_host1, ']')
         THEN substr(r_host1, 2, len(r_host1)-2) ELSE r_host1 END AS r_hostn
  FROM r8
), refdone AS (
  SELECT *,
    CASE WHEN ref = '' OR r_fail THEN ''
         WHEN starts_with(r_hostn, 'www.') THEN substr(r_hostn, 5)
         ELSE r_hostn END AS ref_host
  FROM r9
)"""


_BOTLIKE_SQL = "('AIBot', 'SEOBot', 'Script', 'SearchBot', 'SocialBot')"


def _sql_enriched_cte(cache: str) -> str:
    """The full independent-SQL enrichment: parse -> URL -> UA -> referer
    -> robots override + utm referer, ending in CTE ``enr`` with the
    engine's enriched columns (source, client_ip, status, method, path,
    ua_family/os/device/human/intent POST-robots-override, referer,
    malicious, bytes)."""
    return _pattern_cte(cache) + f"""
, parsedu AS (
  SELECT source, fi, doc_id,
    {_extract_case("client_ip")} AS client_ip,
    {_extract_case("status")} AS status,
    {_extract_case("method")} AS method,
    {_extract_case("remote_user")} AS remote_user,
    CAST({_extract_case("bytes")} AS BIGINT) AS bytes_sent,
    {_extract_case("uri")} AS uri,
    {_extract_case("ts")} AS ts_str,
    {_extract_opt("ua")} AS ua,
    {_extract_opt("referer")} AS ref
  FROM pat WHERE {_matches_case()}
)""" + _sql_url_ctes() + _sql_ua_ctes() + _sql_ref_ctes() + f"""
, enr AS MATERIALIZED (
  SELECT source, doc_id, client_ip, status, method, remote_user,
    bytes_sent, path, malicious, path1, path2, path3, ua,
    (SELECT CAST(year(lt) AS BIGINT)*100000000 + month(lt)*1000000
            + day(lt)*10000 + hour(lt)*100 + (minute(lt) - minute(lt)%10)
     FROM (SELECT try_strptime(split_part(ts_str, ' ', 1),
                               '%d/%b/%Y:%H:%M:%S') AS lt)) AS time_window,
    (SELECT lt - CAST(
        (CASE WHEN substr(z, 1, 1) = '-' THEN -1 ELSE 1 END)
        * (coalesce(TRY_CAST(substr(z, 2, 2) AS INTEGER), 0) * 3600
           + coalesce(TRY_CAST(substr(z, 4, 2) AS INTEGER), 0) * 60)
        AS BIGINT) * INTERVAL 1 SECOND
     FROM (SELECT try_strptime(split_part(ts_str, ' ', 1),
                               '%d/%b/%Y:%H:%M:%S') AS lt,
                  split_part(ts_str, ' ', 2) AS z)) AS ts_utc,
    ua_os, ua_intent,
    CASE WHEN path1 = '/robots.txt' THEN
      CASE WHEN ua_family IN {_BOTLIKE_SQL} THEN ua_family ELSE 'OtherBot' END
    ELSE ua_family END AS ua_family_f,
    CASE WHEN path1 = '/robots.txt' THEN 'Script' ELSE ua_device END AS ua_device_f,
    CASE WHEN path1 = '/robots.txt' THEN 'NonHuman' ELSE ua_human END AS ua_human_f,
    CASE WHEN fi = 0 THEN ''  -- CLF captures no referer; the engine
                              -- skips the utm path entirely for it
         WHEN regexp_extract(uri, '(\\?|&)utm_source=([^&]+)(&|$)', 2) <> ''
         THEN regexp_extract(uri, '(\\?|&)utm_source=([^&]+)(&|$)', 2)
         ELSE ref_host END AS referer_f
  FROM refdone
)"""


def sql_keyed_counters(cache: str) -> str:
    """Independent SQL: all nine keyed counter dimensions
    (counter.go:147-226) from the raw line view — regex parse + the
    pure-SQL Go-URL / UA-tree / referer implementations."""
    dims = [
        ("clients", "client_ip"), ("status_codes", "status"),
        ("methods", "method"), ("ua_families", "ua_family_f"),
        ("os_families", "ua_os"), ("device_types", "ua_device_f"),
        ("referers", "referer_f"), ("paths", "path"),
        ("intents", "ua_intent"),
    ]
    unions = "\nUNION ALL\n".join(
        f"SELECT source, '{dim}' AS dimension, {col} AS key_value, "
        f"CAST(COUNT(*) AS BIGINT) AS cnt FROM enr GROUP BY source, {col}"
        for dim, col in dims
    )
    return _sql_enriched_cte(cache) + "\n" + unions


def sql_global_counters(cache: str) -> str:
    """Independent SQL: the one-row global counter set
    (counter.go:58-84, 137-229 + main.go:700-707 parse errors)."""
    return _sql_enriched_cte(cache) + f"""
, errs AS (
  SELECT CAST(SUM(CASE WHEN {_matches_case()} THEN 0 ELSE 1 END) AS BIGINT) AS parse_errors
  FROM pat
)
SELECT
  CAST(COUNT(*) AS BIGINT) AS requests,
  CAST(SUM(bytes_sent) AS BIGINT) AS bytes_sent,
  CAST(SUM(CASE WHEN ua_human_f = 'Human' THEN 1 ELSE 0 END) AS BIGINT) AS humans,
  CAST(SUM(CASE WHEN ua_human_f = 'NonHuman' THEN 1 ELSE 0 END) AS BIGINT) AS non_humans,
  CAST(SUM(CASE WHEN malicious <> 0 THEN 1 ELSE 0 END) AS BIGINT) AS malicious,
  (SELECT parse_errors FROM errs) AS parse_errors
FROM enr
"""


def _sql_trunc(col: str, limit: int = 100) -> str:
    """Engine metric-key truncation in SQL (db/mysqldb.go:152 /
    stages/route.reduce_to_max_len): cut at ``limit`` BYTES, dropping a
    split multibyte char — equivalently the longest char prefix with
    byte length <= limit (probed via a list-valued generate_series; only
    runs on the rare over-limit keys)."""
    probe = (f"list_max(list_filter(generate_series(1, length({col})), "
             f"k -> octet_length(encode(substr({col}, 1, CAST(k AS INTEGER)))) <= {limit}))"
             )
    return (f"CASE WHEN octet_length(encode({col})) <= {limit} THEN {col} ELSE "
            f"substr({col}, 1, CAST({probe} AS INTEGER)) END")


def _sql_trunc100(col: str) -> str:
    return _sql_trunc(col, 100)


def _sql_trunc_keep_last(col: str, limit: int = 100) -> str:
    """reduce_to_max_len_keeping_last in SQL: longest char SUFFIX with
    byte length <= limit (the MaskIPs UA truncation, db/mysqldb.go:208)."""
    probe = (f"list_max(list_filter(generate_series(1, length({col})), "
             f"k -> octet_length(encode(substr({col}, length({col}) - CAST(k AS INTEGER) + 1)))"
             f" <= {limit}))")
    return (f"CASE WHEN octet_length(encode({col})) <= {limit} THEN {col} ELSE "
            f"substr({col}, length({col}) - CAST({probe} AS INTEGER) + 1) END")


def sql_metrics(cache: str) -> str:
    """Independent SQL: the FULL metric fan-out (all 11 emitted metric
    types, metricgenerator.go:86-126) incl. the Go-URL path pieces, the
    utm/hostname referer, the UA tree, the robots override and the
    100-byte key truncation — the add-merge sink totals on
    chronological input."""
    emits = [
        ("1", "''", None, "COUNT(*)"),
        ("2", "''", None, "SUM(bytes_sent)"),
        ("3", "status", None, "COUNT(*)"),
        ("5", "method", None, "COUNT(*)"),
        ("6", _sql_trunc100("referer_f"), "referer_f <> ''", "COUNT(*)"),
        ("7", _sql_trunc100("path1"), "status LIKE '2%'", "COUNT(*)"),
        ("7", _sql_trunc100("path2"), "status LIKE '2%' AND path2 <> ''", "COUNT(*)"),
        ("7", _sql_trunc100("path3"), "status LIKE '2%' AND path3 <> ''", "COUNT(*)"),
        ("11", "ua_family_f", None, "COUNT(*)"),
        ("12", "ua_os", None, "COUNT(*)"),
        ("13", "ua_device_f", None, "COUNT(*)"),
        ("14", "ua_human_f", None, "COUNT(*)"),
        ("15", "ua_intent", None, "COUNT(*)"),
    ]
    unions = "\nUNION ALL\n".join(
        f"SELECT source, {mt} AS metric_type, {key} AS key_value, time_window,"
        f" CAST({val} AS BIGINT) AS metric_value FROM enr"
        + (f" WHERE {cond}" if cond else "")
        + f" GROUP BY source, {key}, time_window"
        for mt, key, cond, val in emits
    )
    return _sql_enriched_cte(cache) + f"""
, fanout AS (
{unions}
)
SELECT source, CAST(metric_type AS INTEGER) AS metric_type, key_value,
       time_window, CAST(SUM(metric_value) AS BIGINT) AS metric_value
FROM fanout
GROUP BY source, metric_type, key_value, time_window
"""


def sql_routed(cache: str, masked: bool = False) -> str:
    """Independent SQL: the routed raw-log sink projection (SaveRawLog,
    db/mysqldb.go:161-222) minus the token payload — relevance gate
    (main.go:768-779), byte truncations, UTC request_ts from the local
    clock + numeric zone, and the MaskIPs variant (NULL client_ip,
    keep-LAST-100-bytes UA truncation)."""
    ip_expr = "CAST(NULL AS VARCHAR)" if masked else "client_ip"
    ua_expr = (_sql_trunc_keep_last("ua", 100) if masked
               else _sql_trunc("ua", 100))
    return _sql_enriched_cte(cache) + f"""
, rel AS (
  SELECT * FROM enr
  WHERE malicious = 0
    AND (status LIKE '2%' OR status LIKE '5%')
    AND ua_device_f <> 'Script'
    AND ua_family_f NOT IN ('Scanner', 'SEOBot', 'Script')
)
SELECT source, doc_id,
  ts_utc AS request_ts,
  {ip_expr} AS client_ip,
  {_sql_trunc('remote_user', 100)} AS remote_user,
  {_sql_trunc('method', 20)} AS http_method,
  {_sql_trunc("CASE WHEN path3 <> '' THEN path3 WHEN path2 <> '' THEN path2 ELSE path1 END", 100)} AS path3,
  {_sql_trunc('path', 100)} AS request_uri,
  status AS http_status,
  bytes_sent,
  {_sql_trunc('referer_f', 100)} AS referer,
  CAST(malicious AS TINYINT) AS is_malicious,
  {ua_expr} AS ua_string,
  ua_os,
  ua_family_f AS ua_family,
  ua_device_f AS ua_device_type,
  ua_human_f AS ua_is_human,
  ua_intent
FROM rel
"""


def sql_top_paths(cache: str) -> str:
    """Independent SQL: per-source exact top-10 full paths with the
    engine's deterministic (cnt desc, key asc) tie-break — the counter
    'paths' dimension counts the FULL decoded path of every parsed row
    (counter.go:222), including the raw-cut path of INVALID URIs."""
    return _pattern_cte(cache) + f"""
, parsedu AS (
  SELECT source, {_extract_case("uri")} AS uri
  FROM pat WHERE {_matches_case()}
)""" + _sql_url_ctes() + """
, counts AS (
  SELECT source, path AS key_value, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM urlparsed GROUP BY source, path
), ranked AS (
  SELECT source, key_value, cnt,
    ROW_NUMBER() OVER (PARTITION BY source ORDER BY cnt DESC, key_value ASC) AS rk
  FROM counts
)
SELECT source, key_value, cnt FROM ranked WHERE rk <= 10
"""


def sql_repeat_offenders(cache: str) -> str:
    """Independent SQL: the lastN ring-buffer flagging (the
    metricgenerator.go:73 TODO implemented as intended) — per (source,
    client) sliding last-50 window over parsed rows in file order,
    flagged when the window ever holds >= 3 malicious requests."""
    return _pattern_cte(cache) + f"""
, parsedu AS (
  SELECT source, doc_id, {_extract_case("client_ip")} AS client_ip,
         {_extract_case("uri")} AS uri
  FROM pat WHERE {_matches_case()}
)""" + _sql_url_ctes() + """
, rolled AS (
  SELECT source, client_ip,
    SUM(CASE WHEN malicious <> 0 THEN 1 ELSE 0 END) OVER (
      PARTITION BY source, client_ip ORDER BY doc_id
      ROWS BETWEEN 49 PRECEDING AND CURRENT ROW) AS win_bad
  FROM urlparsed
)
SELECT source, client_ip,
  CAST(COUNT(*) AS BIGINT) AS n_requests,
  CAST(MAX(win_bad) AS BIGINT) AS max_malicious_in_window,
  CAST(CASE WHEN MAX(win_bad) >= 3 THEN 1 ELSE 0 END AS BIGINT) AS flagged
FROM rolled GROUP BY source, client_ip
"""


def sql_distinct_clients(cache: str) -> str:
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source, {_extract_case("client_ip")} AS ip
  FROM pat WHERE {_matches_case()}
)
SELECT source, CAST(COUNT(DISTINCT ip) AS BIGINT) AS n_clients
FROM parsed GROUP BY source
"""


# ---- Ray-side callables ----------------------------------------------------
def _input_paths(sf_dir: str) -> list[str]:
    cache = synth.ensure_input(sf_dir)
    return sorted(glob.glob(os.path.join(cache, "shard-*.parquet")))


def _job() -> JobConfig:
    return JobConfig.from_format_map(synth.source_config(synth.N_SOURCES))


def _enriched(sf_dir: str):
    return logpipe.enriched_dataset(_input_paths(sf_dir), _job())


def _h_key(t: pa.Table) -> np.ndarray:
    """Partition key of the sequence-hash ops: the int64 ``h`` column."""
    return t.column("h").to_numpy()


def _ip_key(t: pa.Table) -> np.ndarray:
    """Partition key of the per-ip log ops: crc32 of ``client_ip``."""
    return X.crc_hash(t.column("client_ip"))


# ---- the bounded count kernels: every keyed-count block partial in this
# module counts through ``_key_counts`` (a numpy bincount) or
# ``_count_rows`` (an Arrow group-by), its sources coded by ``_source_codes``
def _source_codes(t: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """The block's source dictionary (first-appearance order) and each
    row's int64 code into it."""
    enc = pc.dictionary_encode(one_array(t.column("source")))
    return enc.dictionary, enc.indices.to_numpy(
        zero_copy_only=False).astype(np.int64)


def _key_counts(key, radix: int, src=None, **sums) -> pa.Table:
    """One numpy bincount of an int64 ``key`` in ``[0, radix)``; per
    source when ``src`` is ``_source_codes``' (dictionary, codes) with
    the codes aligned to ``key`` (one bin per ``code * radix + key``).
    Returns the non-zero bins in bin order as (source?, key, cnt,
    *sums), each ``sums`` column the int64 bincount of its weights.
    ``key=0, radix=1`` counts rows per source."""
    n = radix
    if src is not None:
        key = src[1] * radix + key
        n *= len(src[0])
    cnt = np.bincount(key, minlength=n)
    nz = np.flatnonzero(cnt)
    cols = {} if src is None else {
        "source": src[0].take(pa.array(nz // radix))}
    cols["key"] = pa.array(nz % radix, pa.int64())
    cols["cnt"] = pa.array(cnt[nz], pa.int64())
    for name, w in sums.items():
        cols[name] = pa.array(np.bincount(key, weights=w, minlength=n)[nz]
                              .astype(np.int64))
    return pa.table(cols)


def _count_rows(t: pa.Table, cols: list) -> pa.Table:
    """The one Arrow group-by row count: ``t``'s distinct ``cols`` rows
    and an int64 ``cnt`` of each."""
    return (pa.table({c: one_array(t.column(c)) for c in cols})
            .group_by(cols).aggregate([([], "count_all")])
            .rename_columns([*cols, "cnt"]))


def _parsed_counts(enr, key: str, dtype: pa.DataType, col=None) -> pa.Table:
    """Per-(source, ``key``) counts of the parsed lines, merged: the one
    partial of the four parse_ok log counters. ``col(t)``, when given,
    derives the ``key`` column from the parsed block."""
    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("parse_ok"))
        if col is not None:
            t = t.append_column(key, col(t))
        return _count_rows(t, ["source", key])

    return X.merge(enr, partial, ["source", key], pa.schema([
        ("source", pa.string()), (key, dtype), ("cnt", pa.int64())]))


def q_log_metrics(sf_dir: str):
    return logpipe.metrics_dataset(_enriched(sf_dir))


def _metrics_basic_from(enr):
    """Basic metric types (1,2,3,5) — shared by the explicit-config and
    auto-detect queries so the filter cannot drift between them."""
    basic = pa.array([1, 2, 3, 5], type=pa.int32())
    return logpipe.metrics_dataset(enr).map_batches(
        lambda t: t.filter(pc.is_in(t["metric_type"], value_set=basic)),
        batch_format="pyarrow",
    )


def q_log_metrics_basic(sf_dir: str):
    return _metrics_basic_from(_enriched(sf_dir))


def q_log_metrics_compat(sf_dir: str):
    """Faithful streaming bounded-window semantics (stages/compat.py).
    On chronological input (the default synth) its totals coincide with
    the exact sums, so ``sql_metrics`` gates it."""
    from ..stages.compat import metrics_dataset_compat

    return metrics_dataset_compat(_enriched(sf_dir), window_size=3)


def q_log_keyed_counters(sf_dir: str):
    return logpipe.keyed_counters_dataset(_enriched(sf_dir))


def q_log_global_counters(sf_dir: str):
    c = logpipe.global_counters(_enriched(sf_dir))
    return pa.table({
        "requests": pa.array([c["requests"]], type=pa.int64()),
        "bytes_sent": pa.array([c["bytes_sent"]], type=pa.int64()),
        "humans": pa.array([c["humans"]], type=pa.int64()),
        "non_humans": pa.array([c["non_humans"]], type=pa.int64()),
        "malicious": pa.array([c["malicious"]], type=pa.int64()),
        "parse_errors": pa.array([c["parse_errors"]], type=pa.int64()),
    })


def q_log_routed(sf_dir: str):
    routed = logpipe.routed_dataset(_enriched(sf_dir))
    cols = [c for c in routed.schema().names if c != "tokens"]
    return routed.select_columns(cols)


def q_log_routed_masked(sf_dir: str):
    """IP-masked raw-log sink (MaskIPs=1): null client_ip, keep-last-part
    UA truncation (db/mysqldb.go:166-170, 208)."""
    routed = logpipe.routed_dataset(_enriched(sf_dir), mask_ips=True)
    cols = [c for c in routed.schema().names if c != "tokens"]
    return routed.select_columns(cols)


def q_log_top_paths(sf_dir: str):
    kc = logpipe.keyed_counters_dataset(_enriched(sf_dir))
    return logpipe.top_n_dataset(kc, "paths", 10)


def q_log_geo_counts(sf_dir: str):
    """GeoIP-style broadcast-lookup enrich -> per (source, geo) counts."""
    from ..stages.geo import make_geo_enricher

    return _parsed_counts(_enriched(sf_dir).map_batches(
        make_geo_enricher(), batch_format="pyarrow"), "geo", pa.string())


def q_log_rate_zscore(sf_dir: str, z_cut: float = 1.5):
    """Per-source request-rate anomaly view: the z-score of each
    10-minute window's request count against the source's own
    window-count distribution (mean/STDDEV over its windows, sample
    ddof=1), emitting windows with |z| >= ``z_cut`` — the telemetry
    alerting primitive on top of the windowed counters. Distributed
    shape: block-local (source, window) partial counts -> keyed merge
    (bounded: sources x windows, windows bounded by the corpus time
    span) -> per-source vectorized stats on the driver-held aggregate
    (the same bounded-table contract as the counter report)."""
    df = _parsed_counts(_enriched(sf_dir), "time_window",
                        pa.int64()).to_pandas()
    if df.empty:
        return pa.schema([("source", pa.string()),
                          ("time_window", pa.int64()), ("cnt", pa.int64()),
                          ("zscore", pa.float64())]).empty_table()
    stats = df.groupby("source")["cnt"].agg(["mean", "std"])  # std ddof=1
    df = df.join(stats, on="source")
    df = df[df["std"] > 0].copy()
    df["zscore"] = np.round((df["cnt"] - df["mean"]) / df["std"], 6)
    df = df[np.abs((df["cnt"] - df["mean"]) / df["std"]) >= z_cut]
    df = df.sort_values(["source", "time_window"]).reset_index(drop=True)
    return pa.table({
        "source": pa.array(df["source"], pa.string()),
        "time_window": pa.array(df["time_window"], pa.int64()),
        "cnt": pa.array(df["cnt"], pa.int64()),
        "zscore": pa.array(df["zscore"], pa.float64()),
    })


def q_log_bytes_quantiles(sf_dir: str, qs: tuple = (0.5, 0.9, 0.99)):
    """Per-source exact response-size percentiles (p50/p90/p99 of
    bytes_sent over parsed lines) — the latency/size-distribution view
    log analytics adds on top of the counters. Distributed shape:
    value-HISTOGRAM quantiles — block-local (source, bytes_sent) partial
    counts -> keyed merge (bounded by sources x distinct byte values,
    a bounded value domain in log data; the CMS/HLL sketch family is
    the unbounded-domain path) -> the driver interpolates the order
    statistic from the weighted histogram per source without ever
    expanding the multiset. Matches numpy's 'linear' (= DuckDB
    quantile_cont) definition: rank q*(n-1), v[lo] + frac*(v[hi]-v[lo]).
    Missing/absent byte fields count as 0, the parse stage's Atoi("")
    semantics (httpservers.go:175-176)."""
    df = _parsed_counts(_enriched(sf_dir), "bytes_sent",
                        pa.int64()).to_pandas()
    out_schema = pa.schema([("source", pa.string()), ("p50", pa.float64()),
                            ("p90", pa.float64()), ("p99", pa.float64())])
    if df.empty:
        return out_schema.empty_table()
    out = {"source": [], "p50": [], "p90": [], "p99": []}
    for src, g in df.sort_values(["source", "bytes_sent"]).groupby(
            "source", sort=True):
        v = g["bytes_sent"].to_numpy(dtype=np.float64)
        cum = np.cumsum(g["cnt"].to_numpy(dtype=np.int64))
        n = int(cum[-1])
        ps = []
        for q in qs:
            r = q * (n - 1)
            lo = int(np.floor(r))
            i = np.searchsorted(cum, lo, side="right")
            j = np.searchsorted(cum, min(lo + 1, n - 1), side="right")
            ps.append(round(float(v[i] + (r - lo) * (v[j] - v[i])), 6))
        out["source"].append(src)
        out["p50"].append(ps[0])
        out["p90"].append(ps[1])
        out["p99"].append(ps[2])
    return pa.table(out, schema=out_schema)


_SKETCH_PART = pa.schema([("source", pa.string()), ("sketch", pa.binary())])


def q_log_bytes_quantiles_kll(sf_dir: str, qs: tuple = (0.5, 0.9, 0.99)):
    """Approximate per-source byte-size percentiles via mergeable KLL
    sketches (one bounded compactor ladder per (block, source),
    merge-combined on the driver) — the scale twin of the exact
    histogram path `q_log_bytes_quantiles`, for value domains where
    the distinct-count is NOT bounded (latencies, scores) and the
    histogram would be input-sized. No SQL gate (the sketch is
    approximate by construction); the rank-error bound and the merge
    law are pinned in tests/test_sketch.py, and the driver compares
    row counts with the exact twin. The sketches merge in a fixed
    order, so the result does not depend on block completion order."""
    from ..stages.kll import KLLSketch

    K = 256

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("parse_ok"))
        srcs, sketches = [], []
        dic, idx = _source_codes(t)
        bs = t.column("bytes_sent").combine_chunks().to_numpy(
            zero_copy_only=False)
        for i, src in enumerate(dic.to_pylist()):
            sk = KLLSketch(K)
            sk.add(bs[idx == i])
            srcs.append(src)
            sketches.append(sk.to_bytes())
        return pa.table({
            "source": pa.array(srcs, type=pa.string()),
            "sketch": pa.array(sketches, type=pa.binary()),
        })

    # a KLL merge is not order-invariant once a compactor fires, so the
    # partials merge in (source, sketch) order, not fold arrival order
    parts = X.fold(_enriched(sf_dir), partial, _SKETCH_PART).sort_by(
        [("source", "ascending"), ("sketch", "ascending")])
    merged: dict[str, KLLSketch] = {}
    for src, blob in zip(parts.column("source").to_pylist(),
                         parts.column("sketch").to_pylist()):
        sk = KLLSketch.from_bytes(blob)
        if src in merged:
            merged[src].merge(sk)
        else:
            merged[src] = sk
    out_schema = pa.schema([("source", pa.string()), ("p50", pa.float64()),
                            ("p90", pa.float64()), ("p99", pa.float64())])
    rows = sorted(merged.items())
    return pa.table({
        "source": pa.array([s for s, _ in rows], type=pa.string()),
        "p50": pa.array([r.quantile(qs[0]) for _, r in rows]),
        "p90": pa.array([r.quantile(qs[1]) for _, r in rows]),
        "p99": pa.array([r.quantile(qs[2]) for _, r in rows]),
    }, schema=out_schema)


def q_log_status_class_counts(sf_dir: str):
    """Status-class (2xx/3xx/4xx/5xx) enrichment counts per source."""
    def status_class(t: pa.Table) -> pa.Array:
        return pc.binary_join_element_wise(pc.utf8_slice_codeunits(
            t.column("status").combine_chunks(), 0, 1), "xx", "")

    return _parsed_counts(_enriched(sf_dir), "status_class", pa.string(),
                          status_class)


def q_log_distinct_clients(sf_dir: str):
    """Distinct client IPs per source (the distinct/unique operator),
    fully distributed: block-local (source, ip) pair dedup shrinks the
    exchange to distinct-pairs-per-block, ONE hash exchange on
    crc32(ip) % P co-locates every copy of an ip, each partition
    vectorized-dedups its pairs and emits per-source counts, and the
    driver sums only P x |sources| tiny count rows (``exchange.sum_refs``)
    — never the pair set (unbounded distinct IPs at scale; the r3 shape
    materialized the whole per-(source, ip) aggregate as driver
    pandas). The HLL twin (below) stays the single-scan sketch path."""
    def pair_partial(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("parse_ok"))
        return (t.select(["source", "client_ip"])
                .group_by(["source", "client_ip"]).aggregate([]))

    def count_part(g: pa.Table) -> pa.Table:
        return _count_rows(g.group_by(["source", "client_ip"]).aggregate([]),
                           ["source"]).rename_columns(["source", "n_clients"])

    out_schema = pa.schema([("source", pa.string()),
                            ("n_clients", pa.int64())])
    return X.sum_refs(X.part_exchange(_enriched(sf_dir), pair_partial,
                                      _ip_key, count_part, out_schema),
                      ["source"], out_schema)


def q_log_distinct_clients_hll(sf_dir: str):
    """Approximate distinct clients per source via mergeable HyperLogLog
    sketches (one 2^p-register sketch per block, max-merged — the scale
    path where exact distinct counting would shuffle every key). No SQL
    gate (estimates are approximate by nature); accuracy vs the exact
    count is asserted in tests/test_joins_hll.py and in the driver by
    comparing row counts with log_distinct_clients."""
    import numpy as np

    from ..stages.hll import HyperLogLog, _hash_strings

    P = 12

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("parse_ok"))
        srcs, sketches = [], []
        dic, idx = _source_codes(t)
        ips = t.column("client_ip").combine_chunks()
        for i, src in enumerate(dic.to_pylist()):
            uniq = pc.unique(ips.filter(pa.array(idx == i))).to_pylist()
            hll = HyperLogLog(P)
            hll.add_hashes(_hash_strings([str(u) for u in uniq]))
            srcs.append(src)
            sketches.append(hll.registers.tobytes())
        return pa.table({
            "source": pa.array(srcs, type=pa.string()),
            "sketch": pa.array(sketches, type=pa.binary()),
        })

    parts = X.fold(_enriched(sf_dir), partial, _SKETCH_PART)
    merged: dict[str, HyperLogLog] = {}
    for src, blob in zip(parts.column("source").to_pylist(),
                         parts.column("sketch").to_pylist()):
        hll = merged.get(src)
        if hll is None:
            hll = merged[src] = HyperLogLog(P)
        other = HyperLogLog(P)
        other.registers = np.frombuffer(blob, dtype=np.uint8).copy()
        hll.merge(other)
    rows = sorted((s, int(round(h.estimate()))) for s, h in merged.items())
    return pa.table({
        "source": pa.array([r[0] for r in rows], type=pa.string()),
        "n_clients_est": pa.array([r[1] for r in rows], type=pa.int64()),
    })


def q_log_sessionize(sf_dir: str, gap_sec: int = 600):
    """Session windows over the PARSED log stream: per (source,
    client_ip), requests closer than ``gap_sec`` belong to one session
    — the log-side twin of events_sessionize, run on the flagship
    payload (web session reconstruction from access logs). One row per
    session with start/end epoch and request count.

    Distributed shape: the distinct_clients exchange — block batches
    route by crc32(ip) % P so every request of an ip lands in one
    partition; inside a partition one lexsort + vectorized gap/key
    boundaries (no per-session Python). Session boundaries depend only
    on ts gaps, so equal-timestamp ordering ambiguity cannot move
    them; epochs are exact integers. The sessions stay a Dataset of
    the partition blocks."""
    import ray.data as rd

    out_schema = pa.schema([("source", pa.string()),
                            ("client_ip", pa.string()),
                            ("session_start", pa.int64()),
                            ("session_end", pa.int64()),
                            ("n_requests", pa.int64())])

    def route(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(t.column("parse_ok"),
                             pc.is_valid(t.column("ts"))))
        return pa.table({
            "source": t.column("source"),
            "client_ip": t.column("client_ip"),
            "e": t.column("ts").cast(pa.int64()),
        })

    def sessions_part(g: pa.Table):
        import pandas as pd

        g = g.to_pandas()
        g = g.sort_values(["source", "client_ip", "e"], kind="stable")
        key = (g["source"].astype(str) + "\x00"
               + g["client_ip"].astype(str)).to_numpy()
        e = g["e"].to_numpy()
        new = np.ones(len(g), dtype=bool)
        new[1:] = (key[1:] != key[:-1]) | (e[1:] - e[:-1] > gap_sec)
        sid = np.cumsum(new)
        out = g.groupby(sid).agg(
            source=("source", "first"), client_ip=("client_ip", "first"),
            session_start=("e", "min"), session_end=("e", "max"),
            n_requests=("e", "count"))
        out["session_start"] = out["session_start"].astype("int64")
        out["session_end"] = out["session_end"].astype("int64")
        out["n_requests"] = out["n_requests"].astype("int64")
        return out.reset_index(drop=True)

    return rd.from_arrow_refs(X.part_exchange(
        _enriched(sf_dir), route, _ip_key, sessions_part, out_schema))


def sql_log_sessionize(cache: str, gap_sec: int = 600) -> str:
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT doc_id, source, {_extract_case("client_ip")} AS client_ip,
    CAST(epoch(try_strptime({_extract_case("ts")},
         '%d/%b/%Y:%H:%M:%S %z')) AS BIGINT) AS e
  FROM pat WHERE {_matches_case()}
), w AS (
  -- doc_id tiebreak: LAG and the cumulative SUM are separate window
  -- computations; without a TOTAL order, equal-epoch rows can take
  -- different tie orders in each and split sessions incoherently
  SELECT doc_id, source, client_ip, e,
         LAG(e) OVER (PARTITION BY source, client_ip
                      ORDER BY e, doc_id) AS pe
  FROM parsed WHERE e IS NOT NULL
), s AS (
  SELECT source, client_ip, e,
    SUM(CASE WHEN pe IS NULL OR e - pe > {gap_sec} THEN 1 ELSE 0 END)
      OVER (PARTITION BY source, client_ip ORDER BY e, doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS sid
  FROM w
)
SELECT source, client_ip,
       CAST(MIN(e) AS BIGINT) AS session_start,
       CAST(MAX(e) AS BIGINT) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_requests
FROM s GROUP BY source, client_ip, sid
"""


# ---- token-native operators (the north-rule payload: tokens list<int32>) --
def _token_lists(col) -> tuple["np.ndarray", "np.ndarray"]:
    """(values int32, offsets int64 rebased to 0) from a list<int32>
    column — the zero-copy slicing idiom of ``codec.decode_tokens``."""
    arr = one_array(col)
    if isinstance(arr, pa.LargeListArray):
        arr = arr.cast(pa.list_(pa.int32()))
    off = arr.offsets.to_numpy().astype(np.int64)
    start, end = int(off[0]), int(off[-1])
    vals = arr.values.slice(start, end - start).to_numpy(zero_copy_only=False)
    return vals, off - start


def _read_tokens(sf_dir: str, columns: list[str]) -> X.FileRead:
    """Column-pruned, file-aligned read of the raw token table: the
    shard paths from ``_input_paths`` (resolved at call time) and
    ``columns``. The value starts nothing: ``exchange.merge``/``fold``/
    ``part_exchange``/``block_refs`` read each shard in one raw task
    that also runs the op's partial, so a token op runs no Ray Data
    execution for its read."""
    return X.FileRead(_input_paths(sf_dir), columns)


def _pair_keys(vals: np.ndarray, off: np.ndarray) -> tuple:
    """Adjacent token pairs of flat ``vals`` / ``off`` that stay inside
    one row: keys ``a * 256 + b``, and the mask over all ``len(vals) -
    1`` adjacent positions that selects them (one boolean mask, not a
    gather: the bigram partials' hot path)."""
    key = vals[:-1].astype(np.int64) * 256 + vals[1:]
    valid = np.ones(len(key), dtype=bool)
    ends = off[1:-1] - 1  # last token of each non-final row
    valid[ends[(ends >= 0) & (ends < len(valid))]] = False
    return key[valid], valid


_PAIR_COUNTS = pa.schema([("pair", pa.int64()), ("cnt", pa.int64())])
_TOKEN_COUNTS = pa.schema([("source", pa.string()), ("token", pa.int64()),
                           ("cnt", pa.int64())])


def _pair_counts(sf_dir: str) -> pa.Table:
    """Corpus bigram counts (pair = a * 256 + b, pairs inside rows):
    the one <=65536-row block partial of token_bigrams and token_pmi."""
    def partial(t: pa.Table) -> pa.Table:
        return _key_counts(_pair_keys(*_token_lists(t.column("tokens")))[0],
                           65536).rename_columns(_PAIR_COUNTS.names)

    return X.merge(_read_tokens(sf_dir, ["tokens"]), partial, ["pair"],
                   _PAIR_COUNTS)


def _token_counts(sf_dir: str) -> pa.Table:
    """Per-(source, token) counts: the one |sources| x <=256-row block
    partial of the entropy, tf-idf, OOV and Zipf ops."""
    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        dic, codes = _source_codes(t)
        return _key_counts(vals, 256, (dic, np.repeat(codes, np.diff(off)))
                           ).rename_columns(_TOKEN_COUNTS.names)

    return X.merge(_read_tokens(sf_dir, ["tokens", "source"]), partial,
                   ["source", "token"], _TOKEN_COUNTS)


def q_log_token_histogram(sf_dir: str, k: int = 32):
    """Global token-id frequency top-k over the pre-tokenized payload.

    The vocabulary is bounded (byte codec, ids < 256), so each block
    emits a <=256-row bincount partial and the driver folds a few KB —
    the canonical bounded-cardinality aggregate shape. Deterministic
    boundary: (cnt desc, token asc)."""
    part_schema = pa.schema([("token", pa.int64()), ("cnt", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        return _key_counts(_token_lists(t.column("tokens"))[0], 256) \
            .rename_columns(part_schema.names)

    g = X.merge(_read_tokens(sf_dir, ["tokens"]), partial, ["token"],
                part_schema)
    return g.sort_by([("cnt", "descending"), ("token", "ascending")]).slice(0, k)


def sql_token_histogram(cache: str, k: int = 32) -> str:
    return f"""
SELECT CAST(u.tok AS BIGINT) AS token, CAST(COUNT(*) AS BIGINT) AS cnt
FROM read_parquet('{cache}/shard-*.parquet') t, UNNEST(t.tokens) AS u(tok)
GROUP BY token ORDER BY cnt DESC, token LIMIT {k}
"""


def q_log_token_bigrams(sf_dir: str, k: int = 32):
    """Top-k adjacent token pairs over the token payload (corpus bigram
    statistics on the token table — the doc-side twin is
    ``doc_vocab_bigrams``). Pairs never cross row boundaries; each block
    bincounts packed keys a*256+b into a <=65536-row partial.
    Deterministic boundary: (cnt desc, a asc, b asc)."""
    g = _pair_counts(sf_dir)
    pair = g.column("pair").to_numpy(zero_copy_only=False)
    t = pa.table({"a": pair // 256, "b": pair % 256, "cnt": g.column("cnt")})
    return t.sort_by([("cnt", "descending"), ("a", "ascending"),
                      ("b", "ascending")]).slice(0, k)


def sql_token_bigrams(cache: str, k: int = 32) -> str:
    return f"""
WITH pairs AS (
  SELECT UNNEST(list_zip(t.tokens, t.tokens[2:])) AS pr
  FROM read_parquet('{cache}/shard-*.parquet') t
)
SELECT CAST(pr[1] AS BIGINT) AS a, CAST(pr[2] AS BIGINT) AS b,
       CAST(COUNT(*) AS BIGINT) AS cnt
FROM pairs WHERE pr[2] IS NOT NULL
GROUP BY a, b ORDER BY cnt DESC, a, b LIMIT {k}
"""


def q_log_token_pmi(sf_dir: str, k: int = 32, min_cnt: int = 5):
    """Top-k token collocations by pointwise mutual information — which
    adjacent byte pairs co-occur far above chance (the collocation /
    delimiter-structure signal; raw bigram counts only surface the
    frequent pairs, PMI surfaces the BOUND ones).

    All probabilities come from the one bigram table (marginals are
    the row/column sums), so the whole statistic folds from
    ``_pair_counts``, the merge ``log_token_bigrams`` reads too — no
    second pass, no exchange. PMI = ln(c_ab * N / (ra * cb)) is a
    transcendental of integer counts: ROUND-6 is safe (the
    doc_tfidf rule — never gate on raw transcendental output), rank
    under (pmi6 desc, a, b) on both sides. ``min_cnt`` floors the
    long tail where PMI degenerates to noise."""
    g = _pair_counts(sf_dir)
    pair = g.column("pair").to_numpy(zero_copy_only=False)
    cnt = g.column("cnt").to_numpy(zero_copy_only=False)
    a, b = pair // 256, pair % 256
    ra = np.bincount(a, weights=cnt, minlength=256).astype(np.int64)
    cb = np.bincount(b, weights=cnt, minlength=256).astype(np.int64)
    n = int(cnt.sum())
    keep = cnt >= min_cnt
    a, b, cab = a[keep], b[keep], cnt[keep]
    pmi = np.round(np.log(cab.astype(np.float64) * n /
                          (ra[a].astype(np.float64) * cb[b])), 6)
    order = np.lexsort((b, a, -pmi))[:k]
    return pa.table({
        "a": pa.array(a[order], pa.int64()),
        "b": pa.array(b[order], pa.int64()),
        "cnt": pa.array(cab[order], pa.int64()),
        "pmi": pa.array(pmi[order], pa.float64()),
    })


def sql_token_pmi(cache: str, k: int = 32, min_cnt: int = 5) -> str:
    return f"""
WITH pr AS (
  SELECT UNNEST(list_zip(t.tokens, t.tokens[2:])) AS pr
  FROM read_parquet('{cache}/shard-*.parquet') t
), bg AS (
  SELECT CAST(pr[1] AS BIGINT) AS a, CAST(pr[2] AS BIGINT) AS b,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM pr WHERE pr[2] IS NOT NULL GROUP BY a, b
), tot AS (SELECT SUM(cnt) AS n FROM bg),
ra AS (SELECT a, SUM(cnt) AS ca FROM bg GROUP BY a),
cb AS (SELECT b, SUM(cnt) AS cb FROM bg GROUP BY b)
SELECT bg.a, bg.b, bg.cnt,
       ROUND(LN(CAST(bg.cnt AS DOUBLE) * tot.n / (ra.ca * cb.cb)), 6) AS pmi
FROM bg JOIN ra USING (a) JOIN cb USING (b) CROSS JOIN tot
WHERE bg.cnt >= {min_cnt}
ORDER BY pmi DESC, bg.a, bg.b LIMIT {k}
"""


_SEQ_FNV = np.uint64(1099511628211)


def _seq_hash64(vals: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Length-mixed polynomial hash of each ragged int32 row (reduceat
    over segments, uint64 wraparound). Pure kernel — property-tested
    for injectivity on samples in tests/test_properties.py."""
    lens = np.diff(off)
    h = np.zeros(len(lens), dtype=np.uint64)
    if len(vals):
        pos = (np.arange(len(vals), dtype=np.int64)
               - np.repeat(off[:-1], lens))
        maxlen = int(lens.max())
        pows = np.ones(maxlen, dtype=np.uint64)
        if maxlen > 1:
            np.multiply.accumulate(
                np.full(maxlen - 1, _SEQ_FNV, dtype=np.uint64), out=pows[1:])
        terms = (vals.astype(np.uint64) + np.uint64(1)) * pows[pos]
        nz = lens > 0
        h[nz] = np.add.reduceat(terms, off[:-1][nz])
    return h * np.uint64(31) + lens.astype(np.uint64)


def q_log_ip_entropy(sf_dir: str):
    """Per-source Shannon entropy of the client-IP distribution — the
    traffic-diversity / bot-concentration signal (low entropy = a few
    IPs dominate). Exact even with unbounded distinct IPs: the
    distinct_clients exchange co-locates every copy of an ip, so each
    partition owns its ips' GLOBAL counts and emits two bounded
    sufficient-stat rows per source (sum c*ln c, sum c); the driver
    sums them (``exchange.sum_refs``) and derives
    H = ln N - (sum c ln c)/N. ROUND-6 (transcendental sums)."""
    out_schema = pa.schema([("source", pa.string()),
                            ("n_requests", pa.int64()),
                            ("ip_entropy", pa.float64())])

    def pair_partial(t: pa.Table) -> pa.Table:
        return _count_rows(t.filter(t.column("parse_ok")),
                           ["source", "client_ip"])

    def fold_part(g: pa.Table):
        import pandas as pd

        g = g.to_pandas()
        per_ip = (g.groupby(["source", "client_ip"], sort=False)["cnt"]
                  .sum().reset_index())
        c = per_ip["cnt"].to_numpy().astype(np.float64)
        per_ip["clnc"] = c * np.log(c)
        out = per_ip.groupby("source", sort=False).agg(
            n_requests=("cnt", "sum"), clnc=("clnc", "sum")).reset_index()
        return pd.DataFrame({"source": out["source"],
                             "n_requests": out["n_requests"].astype("int64"),
                             "clnc": out["clnc"]})

    part_schema = pa.schema([("source", pa.string()),
                             ("n_requests", pa.int64()),
                             ("clnc", pa.float64())])
    t = X.sum_refs(X.part_exchange(_enriched(sf_dir), pair_partial, _ip_key,
                                   fold_part, part_schema),
                   ["source"], part_schema)
    n = t.column("n_requests").to_numpy().astype(np.float64)
    ent = np.log(n) - t.column("clnc").to_numpy() / n
    return pa.table({
        "source": t.column("source"),
        "n_requests": t.column("n_requests"),
        "ip_entropy": pa.array(np.round(ent, 6)),
    }, schema=out_schema)


def sql_ip_entropy(cache: str) -> str:
    return _pattern_cte(cache) + f"""
, parsed AS (
  SELECT source, {_extract_case("client_ip")} AS ip
  FROM pat WHERE {_matches_case()}
), c AS (
  SELECT source, ip, CAST(COUNT(*) AS BIGINT) AS c
  FROM parsed GROUP BY source, ip
)
SELECT source, CAST(SUM(c) AS BIGINT) AS n_requests,
       ROUND(ln(SUM(c)) - SUM(c * ln(c)) / SUM(c), 6) AS ip_entropy
FROM c GROUP BY source
"""


def q_log_source_ce(sf_dir: str):
    """Per-source cross-entropy of the token stream under the CORPUS
    bigram LM (MLE, no smoothing — every observed bigram has mass) —
    the domain-shift / divergence signal over the raw payload: sources
    whose byte statistics deviate from the corpus score high.

    ONE streaming pass: each block bincounts (source, packed-pair)
    into bounded partials (|sources| x 65536 worst case, KBs real);
    the driver folds them, derives per-pair log-probs from the global
    counts, and computes each source's count-weighted mean -ln p(b|a).
    Both engines weight by COUNTS (sum c*lp, not per-occurrence adds),
    so only summation-order ulp remains — ROUND-6 (the transcendental-
    sum rule)."""
    part_schema = pa.schema([("source", pa.string()), ("pair", pa.int64()),
                             ("cnt", pa.int64())])
    out_schema = pa.schema([("source", pa.string()),
                            ("n_bigrams", pa.int64()),
                            ("ce", pa.float64())])

    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        key, valid = _pair_keys(vals, off)
        dic, codes = _source_codes(t)
        return _key_counts(key, 65536, (
            dic, np.repeat(codes, np.diff(off))[:-1][valid])).rename_columns(
            part_schema.names)

    g = X.merge(_read_tokens(sf_dir, ["tokens", "source"]), partial,
                ["source", "pair"], part_schema)
    if g.num_rows == 0:
        return out_schema.empty_table()
    src = g.column("source").to_numpy(zero_copy_only=False)
    pair = g.column("pair").to_numpy(zero_copy_only=False)
    cnt = g.column("cnt").to_numpy(zero_copy_only=False)
    glob = np.bincount(pair, weights=cnt, minlength=65536)
    ca = np.zeros(256)
    np.add.at(ca, pair // 256, cnt)
    lp = np.log(glob[pair] / ca[pair // 256])
    import pandas as pd

    df = pd.DataFrame({"source": src, "w": cnt.astype(np.float64),
                       "t": -cnt.astype(np.float64) * lp})
    agg = df.groupby("source", sort=True).sum()
    return pa.table({
        "source": pa.array(agg.index, pa.string()),
        "n_bigrams": pa.array(agg["w"].astype(np.int64)),
        "ce": pa.array(np.round(agg["t"] / agg["w"], 6)),
    })


def sql_source_ce(cache: str) -> str:
    return f"""
WITH pairs AS (
  SELECT t.source, UNNEST(list_zip(t.tokens, t.tokens[2:])) AS pr
  FROM read_parquet('{cache}/shard-*.parquet') t
), p2 AS (
  SELECT source, CAST(pr[1] AS BIGINT) AS a, CAST(pr[2] AS BIGINT) AS b
  FROM pairs WHERE pr[2] IS NOT NULL
), sc AS (
  SELECT source, a, b, CAST(COUNT(*) AS BIGINT) AS c
  FROM p2 GROUP BY 1, 2, 3
), cnt AS (
  SELECT a, b, SUM(c) AS c FROM sc GROUP BY a, b
), ca AS (
  SELECT a, SUM(c) AS ca FROM cnt GROUP BY a
), lp AS (
  SELECT cnt.a, cnt.b, ln(CAST(cnt.c AS DOUBLE) / ca.ca) AS lp
  FROM cnt JOIN ca USING (a)
)
SELECT sc.source, CAST(SUM(sc.c) AS BIGINT) AS n_bigrams,
       ROUND(SUM(-sc.c * lp.lp) / SUM(sc.c), 6) AS ce
FROM sc JOIN lp ON sc.a = lp.a AND sc.b = lp.b
GROUP BY sc.source
"""


_SEQ_COUNTS = pa.schema([("source", pa.string()), ("n_rows", pa.int64()),
                         ("n_uniq", pa.int64())])


def _seq_counts(source, vals: np.ndarray, off: np.ndarray) -> pa.Table:
    """Block partial of the sequence-hash ops: one ``_seq_hash64`` per
    row of flat ``vals`` / ``off``, then (source, h, cnt) with ``cnt``
    the row's copies within the block."""
    return _count_rows(pa.table({
        "source": source,
        "h": pa.array(_seq_hash64(vals, off).view(np.int64)),
    }), ["source", "h"])


def _seq_count_part(g: pa.Table):
    """One hash partition of (source, h, cnt) sequence-hash partials ->
    per-source row and distinct-sequence counts (the seq-dedup fold)."""
    import pandas as pd

    g = g.to_pandas()
    per_seq = (g.groupby(["source", "h"], sort=False)["cnt"].sum()
               .reset_index())
    out = per_seq.groupby("source", sort=False).agg(
        n_rows=("cnt", "sum"), n_uniq=("h", "size")).reset_index()
    return pd.DataFrame({"source": out["source"],
                         "n_rows": out["n_rows"].astype("int64"),
                         "n_uniq": out["n_uniq"].astype("int64")})


def q_log_seq_dedup(sf_dir: str):
    """Exact duplicate token *sequences* per source — dedup keyed on the
    whole tokens array (the sequence-level twin of doc_dedup_exact).

    Block-local: one vectorized polynomial hash per row (reduceat over
    ragged segments, uint64 wraparound), then block dedup of
    (source, hash) with a per-block copy count. ONE hash exchange on
    h % P co-locates every copy of a sequence; each partition counts
    distinct hashes and total rows per source, and the driver sums
    P x |sources| tiny rows. Sequences themselves never move."""
    def partial(t: pa.Table) -> pa.Table:
        return _seq_counts(t.column("source"),
                           *_token_lists(t.column("tokens")))

    t = X.sum_refs(X.part_exchange(
        _read_tokens(sf_dir, ["tokens", "source"]), partial, _h_key,
        _seq_count_part, _SEQ_COUNTS), ["source"], _SEQ_COUNTS)
    return t.rename_columns(["source", "n_rows", "n_uniq_seq"]).append_column(
        "n_dup_rows", pc.subtract(t.column("n_rows"), t.column("n_uniq")))


def sql_seq_dedup(cache: str) -> str:
    return f"""
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(DISTINCT tokens) AS BIGINT) AS n_uniq_seq,
       CAST(COUNT(*) - COUNT(DISTINCT tokens) AS BIGINT) AS n_dup_rows
FROM read_parquet('{cache}/shard-*.parquet') GROUP BY source
"""


def q_log_seq_dedup_prefix(sf_dir: str, k: int = 32):
    """PREFIX-keyed duplicate screen per source — sequences identical in
    their first ``k`` tokens count as copies (the truncation-near-dup a
    crawl produces when the same content is cut at different lengths;
    exact dedup misses these, full near-dup is overkill for them).
    Same engine shape as log_seq_dedup — block-local polynomial hash
    (over the CLAMPED prefix slice of the flat value array), one
    h % P exchange, bounded per-source fold — sequences never move."""
    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        nt = np.diff(off)
        # clamp every row to its first min(k, n) tokens: keep flat
        # positions whose in-row index is < k, rebuild offsets
        if len(vals):
            in_row = (np.arange(len(vals), dtype=np.int64)
                      - np.repeat(off[:-1], nt))
            keep = in_row < k
            pvals = vals[keep]
        else:
            pvals = vals
        pnt = np.minimum(nt, k)
        poff = np.empty(len(nt) + 1, dtype=np.int64)
        poff[0] = 0
        np.cumsum(pnt, out=poff[1:])
        return _seq_counts(t.column("source"), pvals, poff)

    t = X.sum_refs(X.part_exchange(
        _read_tokens(sf_dir, ["tokens", "source"]), partial, _h_key,
        _seq_count_part, _SEQ_COUNTS), ["source"], _SEQ_COUNTS)
    return t.rename_columns(
        ["source", "n_rows", "n_uniq_prefix"]).append_column(
        "n_dup_rows", pc.subtract(t.column("n_rows"), t.column("n_uniq")))


def _source_idx_range(sf_dir: str) -> pa.Table:
    """Per-source (mn_min, mx_max) ingestion-index range: one pass of
    bounded |sources|-row block partials."""
    def minmax(t: pa.Table) -> pa.Table:
        idx = _pack_idx(t.column("doc_id"))
        g = pa.table({"source": t.column("source"),
                      "idx": pa.array(idx, pa.int64())}).group_by(
            "source").aggregate([("idx", "min"), ("idx", "max")])
        return g.rename_columns(["source", "mn", "mx"])

    return X.fold(_read_tokens(sf_dir, ["doc_id", "source"]), minmax,
                  pa.schema([("source", pa.string()), ("mn", pa.int64()),
                             ("mx", pa.int64())])).group_by(
        "source").aggregate([("mn", "min"), ("mx", "max")])


def q_log_source_drift(sf_dir: str):
    """Per-source token-distribution DRIFT between the early and late
    half of the stream — the data-shift monitor a training pipeline
    runs before mixing a new crawl snapshot (a source whose token
    distribution moved is re-weighted or quarantined). "Early" is
    idx <= (min+max)/2 of the source's ingestion-index RANGE (the synth
    is chronological per source, so the range midpoint is the time
    midpoint; bounded pass-1 partials, no order statistic needed).

    Drift ships as the EXACT INTEGER numerator of total variation
    distance: tvd_num = sum_t |c_early[t]*n_late - c_late[t]*n_early|,
    with TVD = tvd_num / (2*n_early*n_late) — quotients of arbitrary
    denominators sit on rounding boundaries (the doc_quality_linear
    rule), integers gate exactly. int64 holds c*n up to n ~ 3e9 tokens
    per source; beyond that, compute per-shard drift or normalize
    first.

    Engine shape: pass 1 folds |sources| (min,max) idx partials; pass 2
    folds |sources| x 2 x 256 bincount partials (byte vocab). Nothing
    unbounded leaves the workers."""
    OUT = pa.schema([("source", pa.string()),
                     ("n_early_tokens", pa.int64()),
                     ("n_late_tokens", pa.int64()),
                     ("tvd_num", pa.int64())])
    mm = _source_idx_range(sf_dir)
    if not mm.num_rows:
        return OUT.empty_table()
    srcs_sorted = np.sort(np.asarray(mm.column("source").to_pylist()))
    mid_of = {}
    for s, mn, mx in zip(mm.column("source").to_pylist(),
                         mm.column("mn_min").to_pylist(),
                         mm.column("mx_max").to_pylist()):
        mid_of[s] = (mn + mx) // 2
    import ray

    mid_ref = ray.put(mid_of)
    p2 = pa.schema([("source", pa.string()), ("early", pa.int64()),
                    ("token", pa.int64()), ("cnt", pa.int64())])

    def counts(t: pa.Table) -> pa.Table:
        mids = ray.get(mid_ref)
        idx = _pack_idx(t.column("doc_id"))
        src = np.asarray(t.column("source").to_pylist())
        mid = np.asarray([mids[s] for s in src], np.int64)
        early = (idx <= mid).astype(np.int64)
        vals, off = _token_lists(t.column("tokens"))
        nt = np.diff(off)
        # composite key: (source_idx, early, token) -> one bincount
        su = np.searchsorted(srcs_sorted, src)
        key_row = su * 2 + early
        key = (np.repeat(key_row, nt) * 256
               + vals.astype(np.int64))
        bc = np.bincount(key, minlength=len(srcs_sorted) * 2 * 256)
        nz = np.flatnonzero(bc)
        return pa.table({
            "source": pa.array(srcs_sorted[nz // 512]),
            "early": pa.array((nz // 256) % 2, pa.int64()),
            "token": pa.array(nz % 256, pa.int64()),
            "cnt": pa.array(bc[nz], pa.int64()),
        }, schema=p2)

    df = X.merge(_read_tokens(sf_dir, ["doc_id", "tokens", "source"]),
                 counts, ["source", "early", "token"], p2).to_pandas()
    rows = []
    for s, sub in df.groupby("source", sort=True):
        c = np.zeros((2, 256), np.int64)
        c[sub["early"].to_numpy(), sub["token"].to_numpy()] = \
            sub["cnt"].to_numpy()
        n_late, n_early = int(c[0].sum()), int(c[1].sum())
        tvd = int(np.abs(c[1] * n_late - c[0] * n_early).sum())
        rows.append((s, n_early, n_late, tvd))
    return pa.table({
        "source": pa.array([r[0] for r in rows], pa.string()),
        "n_early_tokens": pa.array([r[1] for r in rows], pa.int64()),
        "n_late_tokens": pa.array([r[2] for r in rows], pa.int64()),
        "tvd_num": pa.array([r[3] for r in rows], pa.int64()),
    }, schema=OUT)


def sql_source_drift(cache: str) -> str:
    return f"""
WITH t AS (
  SELECT source, CAST(right(doc_id, 12) AS BIGINT) AS idx, tokens
  FROM read_parquet('{cache}/shard-*.parquet')
), mm AS (
  SELECT source, (MIN(idx) + MAX(idx)) // 2 AS mid FROM t GROUP BY source
), u AS (
  SELECT t.source, CAST(t.idx <= mm.mid AS BIGINT) AS early,
         CAST(unnest(t.tokens) AS BIGINT) AS tok
  FROM t JOIN mm USING (source)
), c AS (
  SELECT source, tok,
         SUM(CASE WHEN early = 1 THEN 1 ELSE 0 END) AS c1,
         SUM(CASE WHEN early = 0 THEN 1 ELSE 0 END) AS c2
  FROM u GROUP BY source, tok
), n AS (
  SELECT source, CAST(SUM(c1) AS BIGINT) AS n1,
         CAST(SUM(c2) AS BIGINT) AS n2
  FROM c GROUP BY source
)
SELECT c.source,
       CAST(MAX(n.n1) AS BIGINT) AS n_early_tokens,
       CAST(MAX(n.n2) AS BIGINT) AS n_late_tokens,
       CAST(SUM(ABS(c.c1 * n.n2 - c.c2 * n.n1)) AS BIGINT) AS tvd_num
FROM c JOIN n USING (source) GROUP BY c.source
"""


def sql_seq_dedup_prefix(cache: str, k: int = 32) -> str:
    return f"""
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(DISTINCT list_slice(tokens, 1, {k})) AS BIGINT)
         AS n_uniq_prefix,
       CAST(COUNT(*) - COUNT(DISTINCT list_slice(tokens, 1, {k}))
         AS BIGINT) AS n_dup_rows
FROM read_parquet('{cache}/shard-*.parquet') GROUP BY source
"""


def q_log_token_entropy(sf_dir: str):
    """Per-source Shannon entropy of the token-id distribution — the
    token-stream twin of ``log_ip_entropy`` (low entropy = a source
    emitting near-constant payloads, the stuck-sensor / bot signal).
    Vocabulary is bounded (byte codec), so each block emits a
    |sources| x <=256 bincount partial (``_token_counts``) and the
    driver folds KBs:
    H = ln N - (sum c ln c)/N. ROUND-6 (transcendental sums)."""
    out_schema = pa.schema([("source", pa.string()),
                            ("n_tokens", pa.int64()),
                            ("token_entropy", pa.float64())])

    g = _token_counts(sf_dir)
    if g.num_rows == 0:
        return out_schema.empty_table()
    import pandas as pd

    c = g.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
    df = pd.DataFrame({"source": g.column("source").to_numpy(
        zero_copy_only=False), "n": c, "clnc": c * np.log(c)})
    agg = df.groupby("source", sort=True).sum()
    n = agg["n"].to_numpy()
    ent = np.log(n) - agg["clnc"].to_numpy() / n
    return pa.table({
        "source": pa.array(agg.index, pa.string()),
        "n_tokens": pa.array(agg["n"].astype(np.int64)),
        "token_entropy": pa.array(np.round(ent, 6)),
    }, schema=out_schema)


def sql_token_entropy(cache: str) -> str:
    return f"""
WITH tok AS (
  SELECT source, UNNEST(tokens) AS t
  FROM read_parquet('{cache}/shard-*.parquet')
), c AS (
  SELECT source, t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY 1, 2
)
SELECT source, CAST(SUM(c) AS BIGINT) AS n_tokens,
       ROUND(ln(SUM(c)) - SUM(c * ln(c)) / SUM(c), 6) AS token_entropy
FROM c GROUP BY source
"""


def q_log_source_token_tfidf(sf_dir: str, k: int = 5):
    """Top-``k`` DISTINCTIVE tokens per source by tf-idf over the token
    stream — the per-domain vocabulary signature (which byte values
    characterize a source against the corpus). Its counts are
    ``_token_counts``, the merge the entropy/OOV/Zipf ops read; the
    driver derives df (distinct sources per token) and score = c * ln(S/df)
    (unnormalized tf — a count QUOTIENT tf would hit the .5e-6
    boundary trap; c * ln(...) is a transcendental product, ROUND-6
    safe). Rank selection rides the integer composite key
    (round6(score) desc, token asc) on BOTH sides (the doc_tfidf
    rule)."""
    out_schema = pa.schema([("source", pa.string()), ("token", pa.int64()),
                            ("cnt", pa.int64()), ("tfidf", pa.float64())])

    g = _token_counts(sf_dir)
    if g.num_rows == 0:
        return out_schema.empty_table()
    import pandas as pd

    df = pd.DataFrame({
        "source": g.column("source").to_numpy(zero_copy_only=False),
        "token": g.column("token").to_numpy(zero_copy_only=False),
        "cnt": g.column("cnt").to_numpy(zero_copy_only=False),
    })
    nsrc = df["source"].nunique()
    dfreq = df.groupby("token")["source"].nunique()
    score = np.round(
        df["cnt"].to_numpy().astype(np.float64)
        * np.log(nsrc / dfreq.loc[df["token"]].to_numpy()), 6)
    df["tfidf"] = score
    # integer composite rank key: (round6 desc, token asc)
    df["_key"] = (np.rint(score * 1e6).astype(np.int64) * 256
                  - df["token"].to_numpy())
    df = (df.sort_values("_key", ascending=False, kind="stable")
          .groupby("source", sort=True).head(k)
          .sort_values(["source", "_key"],
                       ascending=[True, False], kind="stable"))
    return pa.table({
        "source": pa.array(df["source"], pa.string()),
        "token": pa.array(df["token"], pa.int64()),
        "cnt": pa.array(df["cnt"], pa.int64()),
        "tfidf": pa.array(df["tfidf"], pa.float64()),
    }, schema=out_schema)


def sql_source_token_tfidf(cache: str, k: int = 5) -> str:
    return f"""
WITH tok AS (
  SELECT source, UNNEST(tokens) AS t
  FROM read_parquet('{cache}/shard-*.parquet')
), c AS (
  SELECT source, CAST(t AS BIGINT) AS token,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM tok GROUP BY 1, 2
), d AS (
  SELECT token, COUNT(*) AS df FROM c GROUP BY token
), s AS (SELECT COUNT(DISTINCT source) AS n FROM c
), sc AS (
  SELECT c.source, c.token, c.cnt,
         ROUND(c.cnt * ln(CAST(s.n AS DOUBLE) / d.df), 6) AS tfidf
  FROM c JOIN d USING (token) CROSS JOIN s
), r AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY source
    ORDER BY CAST(ROUND(tfidf * 1000000) AS BIGINT) * 256 - token DESC
  ) AS rk
  FROM sc
)
SELECT source, token, cnt, tfidf FROM r WHERE rk <= {k}
"""


def q_log_oov_rate(sf_dir: str, v: int = 64):
    """Per-source out-of-vocabulary rate against the corpus top-``v``
    token vocabulary — the domain-shift screen a tokenizer-refresh job
    runs (a source whose traffic falls outside the head vocabulary is
    drifting). ONE bounded pass: ``_token_counts`` (the merge the
    entropy/tf-idf/Zipf ops read) yields BOTH the global histogram
    (top-v under the deterministic cnt-desc, token-asc boundary) and
    the per-source counts; the rate ships as a FLOORED integer ppm
    ((oov * 1e6) // n — the doc_quality_linear rule: count quotients
    land on exact .5e-6 boundaries, ROUND-6 is a coin flip)."""
    out_schema = pa.schema([("source", pa.string()),
                            ("n_tokens", pa.int64()),
                            ("n_oov", pa.int64()),
                            ("oov_ppm", pa.int64())])

    g = _token_counts(sf_dir)
    if g.num_rows == 0:
        return out_schema.empty_table()
    tok = g.column("token").to_numpy(zero_copy_only=False)
    cnt = g.column("cnt").to_numpy(zero_copy_only=False)
    glob = np.zeros(256, dtype=np.int64)
    np.add.at(glob, tok, cnt)
    # top-v under (cnt desc, token asc): lexsort on (-cnt, token)
    order = np.lexsort((np.arange(256), -glob))
    vocab = np.zeros(256, dtype=bool)
    vocab[order[:v][glob[order[:v]] > 0]] = True
    import pandas as pd

    df = pd.DataFrame({"source": g.column("source").to_numpy(
        zero_copy_only=False), "n": cnt,
        "oov": np.where(vocab[tok], 0, cnt)})
    agg = df.groupby("source", sort=True).sum()
    n = agg["n"].to_numpy().astype(np.int64)
    oov = agg["oov"].to_numpy().astype(np.int64)
    return pa.table({
        "source": pa.array(agg.index, pa.string()),
        "n_tokens": pa.array(n),
        "n_oov": pa.array(oov),
        "oov_ppm": pa.array(oov * 1_000_000 // n),
    }, schema=out_schema)


def sql_oov_rate(cache: str, v: int = 64) -> str:
    return f"""
WITH tok AS (
  SELECT source, UNNEST(tokens) AS t
  FROM read_parquet('{cache}/shard-*.parquet')
), g AS (
  SELECT t, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY t
), voc AS (
  SELECT t FROM g ORDER BY c DESC, t LIMIT {v}
), sc AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(CASE WHEN t IN (SELECT t FROM voc) THEN 0 ELSE 1 END)
              AS BIGINT) AS oov
  FROM tok GROUP BY source
)
SELECT source, n AS n_tokens, oov AS n_oov,
       CAST((oov * 1000000) // n AS BIGINT) AS oov_ppm
FROM sc
"""


def q_log_seq_len_buckets(sf_dir: str, width: int = 128):
    """Per-(source, length-bucket) sequence histogram with padding
    efficiency — the batch-shape audit a packing/padding training job
    runs before choosing seq_len: bucket = n_tok // width, padded cap =
    (bucket+1)*width, and pad_ppm = the FLOORED ppm of wasted slots if
    each sequence padded to its bucket cap. Reads only (source, n_tok)
    — the payload never leaves storage. Bounded partials:
    |sources| x (max_len/width) rows per block. All-integer outputs
    (the floored-micro-score rule)."""
    part_schema = pa.schema([("source", pa.string()), ("bucket", pa.int64()),
                             ("n_seqs", pa.int64()),
                             ("sum_tokens", pa.int64())])
    out_schema = pa.schema([("source", pa.string()), ("bucket", pa.int64()),
                            ("n_seqs", pa.int64()),
                            ("sum_tokens", pa.int64()),
                            ("pad_ppm", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        nt = t.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        b = nt // width
        return _key_counts(b, int(b.max()) + 1, _source_codes(t),
                           sum_tokens=nt).rename_columns(part_schema.names)

    g = X.merge(_read_tokens(sf_dir, ["n_tok", "source"]), partial,
                ["source", "bucket"], part_schema)
    if g.num_rows == 0:
        return out_schema.empty_table()
    b = g.column("bucket").to_numpy(zero_copy_only=False)
    n = g.column("n_seqs").to_numpy(zero_copy_only=False)
    s = g.column("sum_tokens").to_numpy(zero_copy_only=False)
    cap = (b + 1) * width * n
    return pa.table({
        "source": g.column("source"),
        "bucket": pa.array(b, pa.int64()),
        "n_seqs": pa.array(n, pa.int64()),
        "sum_tokens": pa.array(s, pa.int64()),
        "pad_ppm": pa.array((cap - s) * 1_000_000 // cap, pa.int64()),
    }, schema=out_schema)


def sql_seq_len_buckets(cache: str, width: int = 128) -> str:
    return f"""
WITH b AS (
  SELECT source, CAST(n_tok // {width} AS BIGINT) AS bucket,
         CAST(n_tok AS BIGINT) AS n_tok
  FROM read_parquet('{cache}/shard-*.parquet')
), g AS (
  SELECT source, bucket, CAST(COUNT(*) AS BIGINT) AS n_seqs,
         CAST(SUM(n_tok) AS BIGINT) AS sum_tokens
  FROM b GROUP BY 1, 2
)
SELECT source, bucket, n_seqs, sum_tokens,
       CAST(((bucket + 1) * {width} * n_seqs - sum_tokens) * 1000000
            // ((bucket + 1) * {width} * n_seqs) AS BIGINT) AS pad_ppm
FROM g
"""


def _sampled_window_keys(vals: np.ndarray, off: np.ndarray, n: int,
                         mod: int) -> tuple:
    """The engine's one n-token window key: the packed keys of the
    within-row n-token windows whose FIRST token is 0 mod ``mod``
    (``mod=1``: every position), plus each window's row id.

    Token j of a window adds its byte at bit 8*j, except the last,
    which adds only its low 7 bits: an 8-token key tops out at
    2^63 - 1 and is the same integer the SQL gates compute in BIGINT
    (``_sql_window_key``). So windows that differ only in bit 7 of
    their last token (on the byte codec: non-ASCII text) share a key;
    the engine adopts the gates' key on purpose. When mod | 256 and
    n >= 2, key % mod == first token % mod, so sampling is decided
    before packing and keys are gathered only at sampled positions. A
    position's row comes from searchsorted on the offsets, never a
    corpus-length np.repeat."""
    m = len(vals) - n + 1
    if m <= 0:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    sel = (np.arange(m, dtype=np.int64) if mod == 1
           else np.flatnonzero(vals[:m] % mod == 0))
    r0 = np.searchsorted(off, sel, side="right") - 1
    r1 = np.searchsorted(off, sel + n - 1, side="right") - 1
    same = r0 == r1
    sel, r0 = sel[same], r0[same]
    if not len(sel):
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    k = np.zeros(len(sel), np.uint64)
    for j in range(n - 1):
        k += vals[sel + j].astype(np.uint64) << np.uint64(8 * j)
    k += (vals[sel + n - 1].astype(np.uint64)
          % np.uint64(128)) << np.uint64(8 * (n - 1))
    return k, r0


def _sql_window_key(n: int) -> str:
    """DuckDB twin of ``_sampled_window_keys``' key for the window
    ``tokens[i .. i + n - 1]`` (1-based ``i``), in BIGINT: capping the
    last token to 7 bits keeps an 8-token key at or under 2^63 - 1,
    where the full 8-byte pack would overflow BIGINT (and a wrapped
    negative key would flip the sign of ``%``). The gates sample with
    ``key % mod = 0``, which reads only the first token when mod | 256."""
    return " + ".join(
        [f"CAST(tokens[i + {j}] AS BIGINT) * {256 ** j}"
         for j in range(n - 1)]
        + [f"(CAST(tokens[i + {n - 1}] AS BIGINT) % 128) * {256 ** (n - 1)}"])


def _flag_count(sf_dir: str, pairs, out: pa.Schema) -> pa.Table:
    """The near-dup screens' flag-then-count exchange: a row is FLAGGED
    when one of its keys is shared with a different row, and ``out`` =
    (source, row count, *extra sums, n_flagged) is counted per source.
    ``pairs(idx, vals, off)`` maps one block (ingestion ids, token
    values and offsets) to its (key, idx) int64 pairs and a dict of
    extra per-row integer columns named as in ``out``.

    Three raw-task waves; payload tokens never move:
      A (per read block, ``num_returns=2P``): distinct (key, idx) pairs
        route by the key's Fibonacci hash (first P slots); (idx,
        source, extras) rows route by idx hash (last P slots).
      B (per key partition): flag the ids whose key carries >= 2
        distinct ids; re-route them by idx hash (``num_returns=P``).
      C (per idx partition): flagged membership per row, then bounded
        per-source partials, summed by ``X.sum_refs``."""
    from .dp_common import _bw_task_cpus

    P = X.n_parts()
    extras = out.names[2:-1]

    def distinct(ks, ds_):
        o = np.lexsort((ds_, ks))
        ks, ds_ = ks[o], ds_[o]
        first = np.ones(len(ks), dtype=bool)
        first[1:] = (ks[1:] != ks[:-1]) | (ds_[1:] != ds_[:-1])
        return ks[first], ds_[first]

    def window_shard(t: pa.Table) -> list:
        idx = _pack_idx(t.column("doc_id"))
        ks, ds_, cols = pairs(idx, *_token_lists(t.column("tokens")))
        ks, ds_ = distinct(ks, ds_)
        dtab = pa.table({"idx": pa.array(idx, pa.int64()),
                         "source": t.column("source"),
                         **{c: pa.array(v) for c, v in cols.items()}})
        return (X.split(X.fib_partition(ks, P), P, ks, ds_)
                + X.split(X.fib_partition(idx, P), P, dtab))

    def flag_part(*shards) -> list:
        ks = np.concatenate([s[0] for s in shards])
        if not len(ks):
            return [np.zeros(0, np.int64)] * P
        ks, ds_ = distinct(ks, np.concatenate([s[1] for s in shards]))
        newk = np.ones(len(ks), dtype=bool)
        newk[1:] = ks[1:] != ks[:-1]
        kid = np.cumsum(newk) - 1
        flagged = np.unique(ds_[np.bincount(kid)[kid] >= 2])
        return X.split(X.fib_partition(flagged, P), P, flagged)

    def count_part(flagged: list, tabs: list) -> pa.Table:
        t = pa.concat_tables(tabs)
        fl = np.isin(t.column("idx").to_numpy(zero_copy_only=False),
                     np.concatenate(flagged))
        g = pa.table({"source": t.column("source"),
                      "fl": pa.array(fl.astype(np.int64)),
                      **{c: t.column(c).cast(pa.int64()) for c in extras}}
                     ).group_by("source").aggregate(
            [("fl", "count"), ("fl", "sum")] + [(c, "sum") for c in extras])
        return pa.table({"source": g.column("source"),
                         out.names[1]: g.column("fl_count"),
                         **{c: g.column(f"{c}_sum") for c in extras},
                         "n_flagged": g.column("fl_sum")}, schema=out)

    refs = X.block_refs(_read_tokens(sf_dir, ["doc_id", "tokens", "source"]))
    if not refs:
        return out.empty_table()
    # bandwidth cap (target 16/node): the window stage streams ~0.5 GB
    # of temporaries per block — at 32 concurrent tasks it is
    # memory-BANDWIDTH-bound (the ivf_assign rule) and measured 36 s;
    # at 16 concurrent it is 6.9 s for the same 64 tasks. The cap
    # derives from per-node cpus (dp_common._bw_task_cpus).
    sl = X.shard(window_shard, refs, 2 * P, num_cpus=_bw_task_cpus(16))
    fl = X.combine(flag_part, sl[:P], num_returns=P)
    return X.sum_refs(X.combine(count_part, (fl, sl[P:]), out_schema=out),
                      ["source"], out)


_NGRAM_OUT = pa.schema([("source", pa.string()), ("n_docs", pa.int64()),
                        ("n_flagged", pa.int64())])


def q_log_token_ngram_dedup(sf_dir: str, n: int = 8, mod: int = 8):
    """Cross-sequence token n-gram duplication per source — the
    Rao-style contamination / near-dup screen at the TOKEN level: a
    sequence is FLAGGED when it shares an n-token window with a
    DIFFERENT sequence (exact duplicates share all windows; partial
    copies share their overlap). Windows key by the engine's one
    window pack (``_sampled_window_keys``: no probabilistic hashing;
    windows that differ only in bit 7 of their last byte share a key,
    like the SQL gate's). MOD-sampling (keep keys with key % mod == 0)
    bounds the exchange to ~1/mod of the token volume; it is a
    DETERMINISTIC fingerprint subset the SQL gate reproduces from the
    same integer packing (``mod=1`` is the exhaustive variant). When
    mod | 256 the pack samples by first token; otherwise every window
    is packed and its key filtered.

    Runs on ``_flag_count``'s three-wave exchange with the distinct
    (window key, doc) pairs of each block."""
    def pairs(idx, vals, off):
        if 256 % mod:
            k, rows = _sampled_window_keys(vals, off, n, 1)
            keep = k % np.uint64(mod) == 0
            k, rows = k[keep], rows[keep]
        else:
            k, rows = _sampled_window_keys(vals, off, n, mod)
        return k.view(np.int64), idx[rows], {}

    return _flag_count(sf_dir, pairs, _NGRAM_OUT)


def sql_token_ngram_dedup(cache: str, n: int = 8, mod: int = 8) -> str:
    # the engine's window key (_sampled_window_keys) in BIGINT, on any
    # byte; the `% mod` sample reads only the first token when mod | 256
    key_expr = _sql_window_key(n)
    return f"""
WITH t AS (
  SELECT doc_id, source, tokens
  FROM read_parquet('{cache}/shard-*.parquet')
), w AS (
  SELECT doc_id, UNNEST(range(1, len(tokens) - {n - 2})) AS i, tokens
  FROM t WHERE len(tokens) >= {n}
), k AS (
  SELECT DISTINCT doc_id, ({key_expr}) AS key
  FROM w WHERE ({key_expr}) % {mod} = 0
), dup AS (
  SELECT key FROM k GROUP BY key HAVING COUNT(*) >= 2
), f AS (
  SELECT DISTINCT doc_id FROM k JOIN dup USING (key)
)
SELECT t.source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN t.doc_id IN (SELECT doc_id FROM f)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_flagged
FROM t GROUP BY t.source
"""


# MinHash permutations for the sequence-level LSH screen: fixed
# splitmix64-derived literals (seed 0x5B0D15EA5E) inlined IDENTICALLY
# in engine and SQL so both sides share even the measure-zero bucket
# collisions (the SQL_DOC_DEDUP_BLOOM idiom). `a` odd and < 2^63 keeps
# the HUGEINT product key*a under 2^126; multiplication is a bijection
# mod 2^64, so MIN over mixed values is a true random-permutation
# minhash over the shingle set.
_MH_PERMS = [
    (6698740489981662329, 3961510563213103532),
    (9122142385165379629, 15575342289356118037),
    (4981005850455499555, 2032176840757408894),
    (8044840983104390915, 13583538345556976089),
    (7003095758439198859, 14421731125339708525),
    (3006245995960931799, 16635559838824503520),
    (5831616574936867065, 10851766758036684565),
    (6838381415049370237, 13593236666999549439),
]
# band-bucket composite constants (odd, < 2^63: see the >>1 note below)
_MH_C1 = 360839617768999383
_MH_C2 = 6902168378812320377

_MH_OUT = pa.schema([("source", pa.string()), ("n_rows", pa.int64()),
                     ("n_sig", pa.int64()), ("n_flagged", pa.int64())])


def q_log_seq_dedup_minhash(sf_dir: str, n: int = 8, mod: int = 8):
    """MinHash-LSH NEAR-duplicate screen over token sequences — the
    probabilistic sibling of log_token_ngram_dedup (which flags on ONE
    shared window, catching any overlap): here a sequence is flagged
    only when a whole LSH band collides, i.e. estimated shingle-Jaccard
    is high (4 bands x 2 rows -> ~50% threshold), the Broder-style
    near-dup filter a crawl-curation pipeline runs between exact dedup
    and O(n^2) verification.

    Shingles are the mod-sampled n-token window keys
    (``_sampled_window_keys``, the SQL gate's key). Minhash = min over
    sampled shingles of (key*a + b) mod 2^64 per fixed permutation;
    bands pair consecutive mins; the band bucket is a shared-literal
    composite mod 2^64, so the SQL mirror reproduces the ENGINE's
    buckets bit-for-bit (including its vanishing collision
    probability) — the gate is exact, not approximate.

    Runs on ``_flag_count``'s three-wave exchange with (band bucket,
    doc) pairs instead of window keys, plus the per-row ``n_sig``
    column (the row has at least one sampled shingle). The exchange
    carries 4 x 16 bytes per row."""
    nbands = len(_MH_PERMS) // 2

    def pairs(idx, vals, off):
        k, r0 = _sampled_window_keys(vals, off, n, mod)
        sig = np.zeros(len(idx), dtype=bool)
        if not len(k):
            return np.zeros(0, np.int64), np.zeros(0, np.int64), \
                {"n_sig": sig}
        # r0 is non-decreasing: one contiguous segment per signed row
        seg_starts = np.r_[0, np.flatnonzero(np.diff(r0)) + 1]
        seg_rows = r0[seg_starts]
        sig[seg_rows] = True
        mins = np.empty((len(_MH_PERMS), len(seg_starts)), np.uint64)
        for j, (a, b) in enumerate(_MH_PERMS):
            mixed = k * np.uint64(a) + np.uint64(b)
            mins[j] = np.minimum.reduceat(mixed, seg_starts)
        bands = []
        for band in range(nbands):
            # >>1 before the composite so the SQL twin's HUGEINT
            # products stay under 2^126 (the bloom th >> 1 trick);
            # uint64 wraparound == mod 2^64
            b0 = mins[2 * band] >> np.uint64(1)
            b1 = mins[2 * band + 1] >> np.uint64(1)
            bk = (b0 * np.uint64(_MH_C1) + b1 * np.uint64(_MH_C2)
                  + np.uint64(band + 1))
            bands.append(bk.view(np.int64))
        return (np.concatenate(bands), np.tile(idx[seg_rows], nbands),
                {"n_sig": sig})

    return _flag_count(sf_dir, pairs, _MH_OUT)


def sql_seq_dedup_minhash(cache: str, n: int = 8, mod: int = 8) -> str:
    # The engine's window key (_sql_window_key, max 2^63 - 1). All
    # mod-2^64 arithmetic runs in HUGEINT: key*a < 2^126, and the band
    # composite uses mv // 2 so each product stays < 2^126 (their sum
    # < 2^127 - 1, HUGEINT's ceiling) — the bloom-gate wraparound
    # idiom. MIN over HUGEINT values in [0, 2^64) equals uint64 MIN.
    key_expr = _sql_window_key(n)
    perms = ", ".join(f"({j}, {a}::HUGEINT, {b}::HUGEINT)"
                      for j, (a, b) in enumerate(_MH_PERMS))
    m64 = "18446744073709551616::HUGEINT"
    return f"""
WITH t AS (
  SELECT doc_id, source, tokens
  FROM read_parquet('{cache}/shard-*.parquet')
), w AS (
  SELECT doc_id, UNNEST(range(1, len(tokens) - {n - 2})) AS i, tokens
  FROM t WHERE len(tokens) >= {n}
), k AS (
  SELECT DISTINCT doc_id, ({key_expr})::HUGEINT AS key
  FROM w WHERE ({key_expr}) % {mod} = 0
), mh AS (
  SELECT doc_id, p.j, MIN((k.key * p.a + p.b) % {m64}) AS mv
  FROM k CROSS JOIN (VALUES {perms}) p(j, a, b)
  GROUP BY doc_id, p.j
), sig AS (
  SELECT doc_id, j // 2 AS band,
         MIN(CASE WHEN j % 2 = 0 THEN mv END) AS mv0,
         MIN(CASE WHEN j % 2 = 1 THEN mv END) AS mv1
  FROM mh GROUP BY doc_id, j // 2
), bk AS (
  SELECT doc_id,
         ((mv0 // 2) * {_MH_C1}::HUGEINT + (mv1 // 2) * {_MH_C2}::HUGEINT
          + band + 1) % {m64} AS bucket
  FROM sig
), dup AS (
  SELECT bucket FROM bk GROUP BY bucket HAVING COUNT(*) >= 2
), f AS (
  SELECT DISTINCT doc_id FROM bk JOIN dup USING (bucket)
), s AS (
  SELECT DISTINCT doc_id FROM k
)
SELECT t.source, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN t.doc_id IN (SELECT doc_id FROM s)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_sig,
       CAST(SUM(CASE WHEN t.doc_id IN (SELECT doc_id FROM f)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_flagged
FROM t GROUP BY t.source
"""


_ZIPF_OUT = pa.schema([("source", pa.string()), ("slope", pa.float64()),
                       ("n_distinct", pa.int64())])


def q_log_token_zipf(sf_dir: str):
    """Per-source Zipf slope: the least-squares slope of ln(freq) on
    ln(rank) over the source's token frequency distribution (rank ties
    broken by token id, matching the SQL ROW_NUMBER) — natural-ish
    payloads sit near -1, near-uniform machine noise near 0, and
    near-constant payloads go steeply negative; the corpus-health
    scalar a mixing job tracks per source.

    The per-(source, token) counts are ``_token_counts``' bounded
    histogram partials (|sources| x 256), so the regression itself is
    driver-side arithmetic on KBs. The slope is a quotient of
    transcendental sums — ROUND-6 safe (last-ulp noise only; the
    doc_tfidf rule), with integer rank/count inputs identical on both
    sides."""

    df = _token_counts(sf_dir).to_pandas()
    rows = []
    for src, grp in df.groupby("source", sort=True):
        grp = grp.sort_values(["cnt", "token"],
                              ascending=[False, True])
        n = len(grp)
        x = np.log(np.arange(1, n + 1, dtype=np.float64))
        y = np.log(grp["cnt"].to_numpy(dtype=np.float64))
        xm, ym = x.mean(), y.mean()
        den = ((x - xm) ** 2).sum()
        slope = float(((x - xm) * (y - ym)).sum() / den) if den else 0.0
        rows.append((src, round(slope, 6), n))
    return pa.table({
        "source": pa.array([r[0] for r in rows], pa.string()),
        "slope": pa.array([r[1] for r in rows], pa.float64()),
        "n_distinct": pa.array([r[2] for r in rows], pa.int64()),
    }, schema=_ZIPF_OUT)


def sql_token_zipf(cache: str) -> str:
    return f"""
WITH c AS (
  SELECT source, CAST(tok AS BIGINT) AS token,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM read_parquet('{cache}/shard-*.parquet') t, UNNEST(t.tokens) AS u(tok)
  GROUP BY source, token
), r AS (
  SELECT source, cnt,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY cnt DESC, token) AS rank
  FROM c
), s AS (
  SELECT source, LN(rank) AS x, LN(cnt) AS y FROM r
)
SELECT source,
       COALESCE(ROUND(SUM((x - ax) * (y - ay))
             / NULLIF(SUM((x - ax) * (x - ax)), 0), 6), 0.0) AS slope,
       CAST(COUNT(*) AS BIGINT) AS n_distinct
FROM (SELECT source, x, y,
             AVG(x) OVER (PARTITION BY source) AS ax,
             AVG(y) OVER (PARTITION BY source) AS ay
      FROM s)
GROUP BY source ORDER BY source
"""


_DECON_OUT = pa.schema([("source", pa.string()), ("n_rows", pa.int64()),
                        ("n_flagged", pa.int64())])


def q_log_decontaminate_eval(sf_dir: str, n: int = 8, mod: int = 8,
                             every: int = 1000):
    """Train/eval DECONTAMINATION on the token axis: hold out every
    ``every``-th ingestion index as the eval slice, then flag every
    TRAIN sequence sharing a sampled 8-token window with any eval
    sequence — the n-gram leakage screen run before an eval split is
    trusted (the doc-side twin is doc_decontaminate_ngram; here the
    grams are token windows, no text).

    Two bounded passes over the same pruned read: pass 1 reduces eval
    rows (a 1/``every`` sliver) to their distinct sampled window keys
    (``_sampled_window_keys``, the gate's key) — a small sorted array
    broadcast once via ray.put; pass 2 flags
    train rows by searchsorted membership, block-locally, and emits
    |sources| x 2 integer partials. No exchange: the blocklist is the
    only shared state (the broadcast-small-side rule)."""
    import ray

    def eval_keys(t: pa.Table) -> pa.Table:
        idx = _pack_idx(t.column("doc_id"))
        sel_rows = idx % every == 0
        if not sel_rows.any():
            return pa.schema([("key", pa.int64())]).empty_table()
        sub = t.filter(pa.array(sel_rows))
        vals, off = _token_lists(sub.column("tokens"))
        k = _sampled_window_keys(vals, off, n, mod)[0]
        return pa.table({"key": pa.array(np.unique(k).view(np.int64))})

    parts = X.fold(_read_tokens(sf_dir, ["doc_id", "tokens"]), eval_keys,
                   pa.schema([("key", pa.int64())]))
    block = np.unique(parts.column("key").to_numpy(zero_copy_only=False))
    block_ref = ray.put(block)

    def flag(t: pa.Table) -> pa.Table:
        bl = ray.get(block_ref)
        idx = _pack_idx(t.column("doc_id"))
        train = idx % every != 0
        sub = t.filter(pa.array(train))
        vals, off = _token_lists(sub.column("tokens"))
        k, rows = _sampled_window_keys(vals, off, n, mod)
        hit = np.zeros(sub.num_rows, dtype=bool)
        if len(k) and len(bl):
            ks = k.view(np.int64)
            pos = np.searchsorted(bl, ks)
            m = (pos < len(bl)) & (bl[np.minimum(pos, len(bl) - 1)] == ks)
            hit[rows[m]] = True
        return _key_counts(0, 1, _source_codes(sub), n_flagged=hit) \
            .rename_columns(["source", "key", "n_rows", "n_flagged"])

    return X.merge(_read_tokens(sf_dir, ["doc_id", "tokens", "source"]), flag,
                   ["source"], _DECON_OUT).sort_by("source")


def sql_decontaminate_eval(cache: str, n: int = 8, mod: int = 8,
                           every: int = 1000) -> str:
    key_expr = _sql_window_key(n)
    return f"""
WITH t AS (
  SELECT doc_id, source, tokens,
         CAST(right(doc_id, 12) AS BIGINT) AS idx
  FROM read_parquet('{cache}/shard-*.parquet')
), w AS (
  SELECT doc_id, source, idx,
         UNNEST(range(1, len(tokens) - {n - 2})) AS i, tokens
  FROM t WHERE len(tokens) >= {n}
), k AS (
  SELECT DISTINCT doc_id, source, idx, ({key_expr}) AS key
  FROM w WHERE ({key_expr}) % {mod} = 0
), ek AS (
  SELECT DISTINCT key FROM k WHERE idx % {every} = 0
), f AS (
  SELECT DISTINCT doc_id FROM k
  WHERE idx % {every} != 0 AND key IN (SELECT key FROM ek)
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN t.doc_id IN (SELECT doc_id FROM f)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_flagged
FROM t WHERE idx % {every} != 0
GROUP BY source ORDER BY source
"""


_DUPGAP_OUT = pa.schema([("gap_bucket", pa.int64()),
                         ("n_pairs", pa.int64())])


def q_log_dup_gap_histogram(sf_dir: str):
    """How FAR APART duplicate copies arrive: histogram of
    floor(log2(ingestion-index gap)) over consecutive copies of each
    duplicated sequence — the measurement that sizes a streaming-dedup
    window (mass in low buckets = a bounded LRU window catches most
    duplicates; heavy high buckets = only global dedup works).

    The log_seq_dedup exchange shape: (h, idx) pairs route by h % P so
    every copy of a sequence lands in one partition; the fold sorts,
    diffs consecutive idx per h, and buckets gaps through the EXACT
    frexp exponent (integer for gaps < 2^53 — never a raw log2, the
    transcendental-gating rule); the SQL twin buckets via
    strlen(bin(gap)) - 1, bit-identical."""
    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        h = _seq_hash64(vals, off)
        idx = _pack_idx(t.column("doc_id"))
        return pa.table({"h": pa.array(h.view(np.int64)),
                         "idx": pa.array(idx, pa.int64())})

    def fold_part(g: pa.Table):
        import pandas as pd

        h = g["h"].to_numpy()
        idx = g["idx"].to_numpy()
        o = np.lexsort((idx, h))
        h, idx = h[o], idx[o]
        same = np.zeros(len(h), dtype=bool)
        same[1:] = h[1:] == h[:-1]
        gaps = (idx[1:] - idx[:-1])[same[1:]]
        if not len(gaps):
            return pd.DataFrame({"gap_bucket": pd.Series([], dtype="int64"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        bk = (np.frexp(gaps.astype(np.float64))[1] - 1).astype(np.int64)
        ub, cnt = np.unique(bk, return_counts=True)
        return pd.DataFrame({"gap_bucket": ub,
                             "n_pairs": cnt.astype("int64")})

    return X.sum_refs(X.part_exchange(
        _read_tokens(sf_dir, ["doc_id", "tokens"]), partial, _h_key,
        fold_part, _DUPGAP_OUT), ["gap_bucket"], _DUPGAP_OUT)


def sql_dup_gap_histogram(cache: str) -> str:
    return f"""
WITH t AS (
  SELECT tokens, CAST(right(doc_id, 12) AS BIGINT) AS idx
  FROM read_parquet('{cache}/shard-*.parquet')
), g AS (
  SELECT idx - LAG(idx) OVER (PARTITION BY tokens ORDER BY idx) AS gap
  FROM t
)
SELECT CAST(strlen(bin(gap)) - 1 AS BIGINT) AS gap_bucket,
       CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM g WHERE gap IS NOT NULL GROUP BY 1 ORDER BY 1
"""


_INTREP_OUT = pa.schema([("source", pa.string()),
                         ("n_seqs_repeat", pa.int64()),
                         ("n_rep_windows", pa.int64())])


def q_log_seq_internal_repeats(sf_dir: str, n: int = 8):
    """WITHIN-sequence repetition screen at 8-token-window granularity
    (the Gopher duplicate-n-gram quality signal on the token axis):
    per source, how many sequences contain at least one repeated
    window, and the total repeated-window mass (windows minus
    per-sequence distinct windows) — loops and copy-paste inside a
    payload that cross-sequence dedup can never see.

    Block-local and exchange-free: windows key by
    ``_sampled_window_keys`` at ``mod=1`` (ALL positions — no sampling;
    repetition is a per-row property), a (row, key) sort yields
    distinct counts per row, partials are |sources| x 2 integers.
    Exact on both sides: the SQL mirror is COUNT(*) - COUNT(DISTINCT
    key) per doc over the same key (``_sql_window_key``).
    (Measured: bandwidth-capping this map via num_cpus made it 4-5x
    SLOWER — num_cpus on a map_batches breaks read->map fusion, so the
    raw-task _bw_task_cpus rule does NOT transfer to fused map stages;
    17 s at 4M as-is.)"""

    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        reps = np.zeros(t.num_rows, np.int64)
        k, r0 = _sampled_window_keys(vals, off, n, 1)
        if len(k):
            o = np.lexsort((k, r0))
            rr, kk = r0[o], k[o]
            first = np.ones(len(kk), dtype=bool)
            first[1:] = (rr[1:] != rr[:-1]) | (kk[1:] != kk[:-1])
            # repeated mass per row = windows - distinct windows
            reps = (np.bincount(rr, minlength=t.num_rows)
                    - np.bincount(rr[first], minlength=t.num_rows))
        return _key_counts(0, 1, _source_codes(t), n_seqs_repeat=reps > 0,
                           n_rep_windows=reps)

    return X.merge(_read_tokens(sf_dir, ["tokens", "source"]), partial,
                   ["source"], _INTREP_OUT).sort_by("source")


def sql_seq_internal_repeats(cache: str, n: int = 8) -> str:
    key_expr = _sql_window_key(n)
    return f"""
WITH w AS (
  SELECT doc_id, source, UNNEST(range(1, len(tokens) - {n - 2})) AS i,
         tokens
  FROM read_parquet('{cache}/shard-*.parquet') WHERE len(tokens) >= {n}
), k AS (
  SELECT doc_id, source, ({key_expr}) AS key FROM w
), d AS (
  SELECT doc_id, source,
         COUNT(*) - COUNT(DISTINCT key) AS rep FROM k
  GROUP BY doc_id, source
)
SELECT s.source,
       CAST(COALESCE(SUM(CASE WHEN d.rep > 0 THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS n_seqs_repeat,
       CAST(COALESCE(SUM(d.rep), 0) AS BIGINT) AS n_rep_windows
FROM (SELECT DISTINCT source
      FROM read_parquet('{cache}/shard-*.parquet')) s
LEFT JOIN d USING (source)
GROUP BY s.source ORDER BY s.source
"""


_SRCSIM_OUT = pa.schema([("src_a", pa.string()), ("src_b", pa.string()),
                         ("n_match", pa.int64())])


def q_log_source_minhash_sim(sf_dir: str, n: int = 8, mod: int = 8):
    """Source-pair content similarity by MinHash signature agreement:
    each source's element set is its mod-sampled 8-token windows, the
    signature is the 8 fixed-permutation minima, and the output counts
    matching components per source pair (E[n_match]/8 ~ Jaccard) —
    the corpus-level overlap triage run before the per-sequence
    near-dup screens (leakage counts exact sequence collisions; this
    sees fuzzy content reuse between whole sources).

    Exchange-FREE: the signature is a pure min-monoid, so each block
    emits a <= |sources| x 8 partial and the driver folds minima — at
    any corpus size the state is |sources| x 8 uint64s. Same window
    key (``_sampled_window_keys``) and shared mix literals as
    log_seq_dedup_minhash, so the SQL mirror reproduces every
    signature component bit-for-bit."""
    part_schema = pa.schema([("source", pa.string()), ("j", pa.int64()),
                             ("mv", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        k, r0 = _sampled_window_keys(*_token_lists(t.column("tokens")),
                                     n, mod)
        if not len(k):
            return part_schema.empty_table()
        dic, src = _source_codes(t)
        src = src[r0]
        o = np.argsort(src, kind="stable")
        src, k = src[o], k[o]
        seg = np.r_[0, np.flatnonzero(np.diff(src)) + 1]
        seg_src = src[seg]
        rows = {"source": [], "j": [], "mv": []}
        for j, (a, b) in enumerate(_MH_PERMS):
            mixed = k * np.uint64(a) + np.uint64(b)
            mins = np.minimum.reduceat(mixed, seg)
            rows["source"].append(seg_src)
            rows["j"].append(np.full(len(seg), j, np.int64))
            rows["mv"].append(mins.view(np.int64))
        return pa.table({
            "source": dic.take(pa.array(np.concatenate(rows["source"]))),
            "j": pa.array(np.concatenate(rows["j"])),
            "mv": pa.array(np.concatenate(rows["mv"])),
        })

    parts = X.fold(_read_tokens(sf_dir, ["tokens", "source"]), partial,
                   part_schema)
    df = parts.to_pandas()
    if not len(df):
        return _SRCSIM_OUT.empty_table()
    # uint64 MIN: compare unsigned, carry the int64 bit pattern
    df["u"] = df["mv"].to_numpy().view(np.uint64)
    sig = df.groupby(["source", "j"], sort=True)["u"].min().reset_index()
    srcs = sorted(sig["source"].unique())
    bysrc = {s: g.set_index("j")["u"] for s, g in sig.groupby("source")}
    out = {"src_a": [], "src_b": [], "n_match": []}
    for i, sa in enumerate(srcs):
        for sb in srcs[i + 1:]:
            a, b = bysrc[sa].align(bysrc[sb], join="inner")
            nm = int((a == b).sum())
            if nm:
                out["src_a"].append(sa)
                out["src_b"].append(sb)
                out["n_match"].append(nm)
    return pa.table({
        "src_a": pa.array(out["src_a"], pa.string()),
        "src_b": pa.array(out["src_b"], pa.string()),
        "n_match": pa.array(out["n_match"], pa.int64()),
    }, schema=_SRCSIM_OUT)


def sql_source_minhash_sim(cache: str, n: int = 8, mod: int = 8) -> str:
    # same window key (_sql_window_key) + HUGEINT mix as
    # sql_seq_dedup_minhash
    key_expr = _sql_window_key(n)
    perms = ", ".join(f"({j}, {a}::HUGEINT, {b}::HUGEINT)"
                      for j, (a, b) in enumerate(_MH_PERMS))
    m64 = "18446744073709551616::HUGEINT"
    return f"""
WITH w AS (
  SELECT source, UNNEST(range(1, len(tokens) - {n - 2})) AS i, tokens
  FROM read_parquet('{cache}/shard-*.parquet') WHERE len(tokens) >= {n}
), k AS (
  SELECT DISTINCT source, ({key_expr})::HUGEINT AS key
  FROM w WHERE ({key_expr}) % {mod} = 0
), mh AS (
  SELECT source, p.j, MIN((k.key * p.a + p.b) % {m64}) AS mv
  FROM k CROSS JOIN (VALUES {perms}) p(j, a, b)
  GROUP BY source, p.j
)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(COUNT(*) AS BIGINT) AS n_match
FROM mh a JOIN mh b ON a.j = b.j AND a.mv = b.mv AND a.source < b.source
GROUP BY 1, 2
"""


_NOV_OUT = pa.schema([("source", pa.string()), ("quartile", pa.int64()),
                      ("n_new", pa.int64())])


def q_log_ngram_novelty(sf_dir: str, n: int = 8, mod: int = 8):
    """Content-novelty curve per source — for each quartile of the
    source's ingestion-index range, how many DISTINCT (mod-sampled)
    8-token windows appear there for the FIRST time. The
    crawl-freshness audit a data-mixing job runs before re-ingesting a
    source: a snapshot whose late quartiles add no new n-grams is
    stale (re-crawl overlap), one that keeps minting them is fresh.
    The distinct-ngram growth curve is the high-cardinality analogue
    of Heaps' law (the raw token vocabulary is bytes — saturated by
    the first block).

    Engine shape: bounded pass-1 (min,max) idx partials per source
    (the log_source_drift pass); pass 2 packs sampled window keys
    (``_sampled_window_keys``, the gate's key) and reduces each block
    to distinct (key, source) with the block-min idx, routes by key
    hash (``num_returns=P``), and each combine task
    re-mins per (key, source), maps first-idx -> quartile via the
    broadcast ranges ON INTEGER arithmetic (q = min(3, (fi - mn) * 4
    // (mx - mn + 1)) — no float boundary crosses the gate), and
    emits <= |sources| x 4 rows. Tokens never move; the exchange
    carries distinct-per-block (key, src, idx) triples."""
    from .dp_common import _bw_task_cpus

    P = X.n_parts()
    mm = _source_idx_range(sf_dir)
    if not mm.num_rows:
        return _NOV_OUT.empty_table()
    srcs = np.sort(np.asarray(mm.column("source").to_pylist()))
    mn_of = np.empty(len(srcs), np.int64)
    mx_of = np.empty(len(srcs), np.int64)
    for s, mn, mx in zip(mm.column("source").to_pylist(),
                         mm.column("mn_min").to_pylist(),
                         mm.column("mx_max").to_pylist()):
        i = int(np.searchsorted(srcs, s))
        mn_of[i], mx_of[i] = mn, mx

    def window_partial(t: pa.Table) -> list:
        empty = (np.zeros(0, np.int64),) * 3
        idx = _pack_idx(t.column("doc_id"))
        k, r0 = _sampled_window_keys(*_token_lists(t.column("tokens")),
                                     n, mod)
        if not len(k):
            return [empty] * P
        kk = k.view(np.int64)
        su = np.searchsorted(
            srcs, np.asarray(t.column("source").to_pylist()))[r0]
        fi = idx[r0]
        # block-local first occurrence per (key, source): sort by
        # (key, src, idx), keep the first of each (key, src) run
        o = np.lexsort((fi, su, kk))
        kk, su, fi = kk[o], su[o], fi[o]
        first = np.ones(len(kk), dtype=bool)
        first[1:] = (kk[1:] != kk[:-1]) | (su[1:] != su[:-1])
        kk, su, fi = kk[first], su[first], fi[first]
        return X.split(X.fib_partition(kk, P), P, kk, su, fi)

    def combine(*shards) -> pa.Table:
        kk = np.concatenate([s[0] for s in shards])
        if not len(kk):
            return _NOV_OUT.empty_table()
        su = np.concatenate([s[1] for s in shards])
        fi = np.concatenate([s[2] for s in shards])
        o = np.lexsort((fi, su, kk))
        kk, su, fi = kk[o], su[o], fi[o]
        first = np.ones(len(kk), dtype=bool)
        first[1:] = (kk[1:] != kk[:-1]) | (su[1:] != su[:-1])
        su, fi = su[first], fi[first]
        width = np.maximum(mx_of[su] - mn_of[su] + 1, 1)
        q = np.minimum(3, (fi - mn_of[su]) * 4 // width)
        cnt = np.bincount(su * 4 + q, minlength=len(srcs) * 4)
        nz = np.flatnonzero(cnt)
        return pa.table({"source": pa.array(srcs[nz // 4]),
                         "quartile": pa.array(nz % 4, pa.int64()),
                         "n_new": pa.array(cnt[nz], pa.int64())},
                        schema=_NOV_OUT)

    sl = X.shard(window_partial,
                 X.block_refs(_read_tokens(sf_dir, ["doc_id", "tokens",
                                                    "source"])),
                 P, num_cpus=_bw_task_cpus(16))
    return X.sum_refs(X.combine(combine, sl, out_schema=_NOV_OUT),
                      ["source", "quartile"], _NOV_OUT)


def sql_ngram_novelty(cache: str, n: int = 8, mod: int = 8) -> str:
    key_expr = _sql_window_key(n)
    return f"""
WITH t AS (
  SELECT source, CAST(right(doc_id, 12) AS BIGINT) AS idx, tokens
  FROM read_parquet('{cache}/shard-*.parquet')
), mm AS (
  SELECT source, MIN(idx) AS mn, MAX(idx) AS mx FROM t GROUP BY source
), w AS (
  SELECT source, idx, UNNEST(range(1, len(tokens) - {n - 2})) AS i, tokens
  FROM t WHERE len(tokens) >= {n}
), k AS (
  SELECT source, ({key_expr}) AS key, MIN(idx) AS fi
  FROM w WHERE ({key_expr}) % {mod} = 0
  GROUP BY source, key
)
SELECT k.source,
       CAST(LEAST(3, (k.fi - mm.mn) * 4 // (mm.mx - mm.mn + 1))
            AS BIGINT) AS quartile,
       CAST(COUNT(*) AS BIGINT) AS n_new
FROM k JOIN mm USING (source)
GROUP BY 1, 2
"""


_DUPSZ_OUT = pa.schema([("source", pa.string()), ("copies", pa.int64()),
                        ("n_clusters", pa.int64())])


def q_log_dup_cluster_sizes(sf_dir: str):
    """Exact-duplicate CLUSTER-SIZE histogram per source — how many
    distinct sequences occur once, twice, k times. The dedup-policy
    audit that decides between keep-first and frequency-weighted
    sampling: a corpus whose mass sits in a few huge clusters needs a
    different dedup rate than one with many pairs (log_seq_dedup only
    reports the total, not the shape).

    Same engine shape as log_seq_dedup — block-local polynomial
    sequence hash with per-block copy counts, ONE h % P exchange — but
    the partition fold emits the bounded (source, copies, n_clusters)
    histogram instead of two scalars. Sequences never move."""
    def partial(t: pa.Table) -> pa.Table:
        return _seq_counts(t.column("source"),
                           *_token_lists(t.column("tokens")))

    def fold_part(g: pa.Table):
        import pandas as pd

        g = g.to_pandas()
        per_seq = (g.groupby(["source", "h"], sort=False)["cnt"].sum()
                   .reset_index())
        hist = (per_seq.groupby(["source", "cnt"], sort=False)["h"].size()
                .reset_index())
        return pd.DataFrame({"source": hist["source"],
                             "copies": hist["cnt"].astype("int64"),
                             "n_clusters": hist["h"].astype("int64")})

    return X.sum_refs(X.part_exchange(
        _read_tokens(sf_dir, ["tokens", "source"]), partial, _h_key,
        fold_part, _DUPSZ_OUT), ["source", "copies"], _DUPSZ_OUT)


def sql_dup_cluster_sizes(cache: str) -> str:
    return f"""
WITH c AS (
  SELECT source, tokens, CAST(COUNT(*) AS BIGINT) AS copies
  FROM read_parquet('{cache}/shard-*.parquet') GROUP BY source, tokens
)
SELECT source, copies, CAST(COUNT(*) AS BIGINT) AS n_clusters
FROM c GROUP BY source, copies
"""


_POSB_OUT = pa.schema([("source", pa.string()), ("pos_bucket", pa.int64()),
                       ("n_tokens", pa.int64()), ("sum_tok", pa.int64()),
                       ("n_distinct", pa.int64())])


def q_log_token_positional_stats(sf_dir: str, width: int = 64):
    """Token distribution BY POSITION bucket (pos // width) per source
    — the boilerplate detector a packing job runs before deciding what
    to truncate: positions dominated by a few token values (low
    n_distinct, skewed sum) are headers/templates, late buckets show
    where content diverges. All-integer outputs (count, sum, distinct
    over the byte vocabulary).

    Bounded partials: |sources| x n_buckets x 256 bincount per block
    (a few MB), folded exactly on the driver — the token payload never
    leaves the read tasks."""
    part_schema = pa.schema([("source", pa.string()), ("pb", pa.int64()),
                             ("token", pa.int64()), ("cnt", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        if not len(vals):
            return part_schema.empty_table()
        nt = np.diff(off)
        pos = (np.arange(len(vals), dtype=np.int64)
               - np.repeat(off[:-1], nt))
        pb = pos // width
        dic, codes = _source_codes(t)
        c = _key_counts(pb * 256 + vals, (int(pb.max()) + 1) * 256,
                        (dic, np.repeat(codes, nt)))
        k = c.column("key").to_numpy()
        return pa.table({"source": c.column("source"), "pb": k // 256,
                         "token": k % 256, "cnt": c.column("cnt")},
                        schema=part_schema)

    df = X.merge(_read_tokens(sf_dir, ["tokens", "source"]), partial,
                 ["source", "pb", "token"], part_schema).to_pandas()
    if df.empty:
        return _POSB_OUT.empty_table()
    agg = (df.assign(st=df["token"] * df["cnt"])
           .groupby(["source", "pb"], sort=True)
           .agg(n_tokens=("cnt", "sum"), sum_tok=("st", "sum"),
                n_distinct=("token", "size")).reset_index())
    return pa.table({
        "source": pa.array(agg["source"], type=pa.string()),
        "pos_bucket": pa.array(agg["pb"], type=pa.int64()),
        "n_tokens": pa.array(agg["n_tokens"], type=pa.int64()),
        "sum_tok": pa.array(agg["sum_tok"], type=pa.int64()),
        "n_distinct": pa.array(agg["n_distinct"], type=pa.int64()),
    }, schema=_POSB_OUT)


def sql_token_positional_stats(cache: str, width: int = 64) -> str:
    return f"""
WITH w AS (
  SELECT source, UNNEST(range(1, len(tokens) + 1)) AS i, tokens
  FROM read_parquet('{cache}/shard-*.parquet')
), tok AS (
  SELECT source, CAST((i - 1) // {width} AS BIGINT) AS pos_bucket,
         CAST(tokens[i] AS BIGINT) AS t
  FROM w
)
SELECT source, pos_bucket, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       CAST(SUM(t) AS BIGINT) AS sum_tok,
       CAST(COUNT(DISTINCT t) AS BIGINT) AS n_distinct
FROM tok GROUP BY source, pos_bucket
"""


_BURST_OUT = pa.schema([("token", pa.int64()), ("n_occ", pa.int64()),
                        ("sum_sq", pa.int64()), ("n_seqs", pa.int64())])


def q_log_token_burstiness(sf_dir: str):
    """Per-token burstiness sufficient statistics: total occurrences,
    sum of squared per-sequence counts, and the number of sequences
    containing the token (Church-Gale dispersion — a token whose
    sum_sq is large relative to n_occ**2/N clumps into few sequences:
    template/boilerplate bytes; a uniform token spreads thin). The
    variance-to-mean ratio derives exactly from these integers, so the
    op ships the sufficient stats and no float ever crosses the gate.

    Exchange-free: per-(row, token) counts via the same sorted-key
    segmented pass as the dominant-ratio screen, squared and bincounted
    into a <=256-row partial per block; the driver folds KBs."""

    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        row_of = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                           np.diff(off))
        uk, cnt = np.unique(row_of * 256 + vals, return_counts=True)
        return _key_counts(uk & 255, 256, n_occ=cnt, sum_sq=cnt * cnt) \
            .rename_columns(["token", "n_seqs", "n_occ", "sum_sq"])

    return X.merge(_read_tokens(sf_dir, ["tokens"]), partial, ["token"],
                   _BURST_OUT).sort_by("token")


def sql_token_burstiness(cache: str) -> str:
    return f"""
WITH u AS (
  SELECT doc_id, CAST(tok AS BIGINT) AS token,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM read_parquet('{cache}/shard-*.parquet') t, UNNEST(t.tokens) AS u(tok)
  GROUP BY doc_id, tok
)
SELECT token, CAST(SUM(c) AS BIGINT) AS n_occ,
       CAST(SUM(c * c) AS BIGINT) AS sum_sq,
       CAST(COUNT(*) AS BIGINT) AS n_seqs
FROM u GROUP BY token ORDER BY token
"""


_LENP_OUT = pa.schema([("source", pa.string()), ("p50", pa.int64()),
                       ("p90", pa.int64()), ("p99", pa.int64())])


def q_log_seq_len_percentiles(sf_dir: str):
    """Exact per-source sequence-length percentiles (p50/p90/p99 of
    n_tok) — the numbers a packing job reads before choosing seq_len
    (len_buckets shows the shape; this gives the order statistics).

    Lengths are bounded, so each block emits a (source, n_tok, count)
    partial and the driver folds a tiny histogram per source — exact
    order statistics WITHOUT a sort or sample pass (a Dataset.sort
    would shuffle the corpus to rank what a bincount already ranks).
    Rank convention pinned to SQL PERCENTILE_DISC empirically: the
    smallest value whose cumulative count r satisfies 100*r >= p*n —
    integer arithmetic on both sides, no float rank ever computed."""
    part_schema = pa.schema([("source", pa.string()), ("n_tok", pa.int64()),
                             ("cnt", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        return _count_rows(t, ["source", "n_tok"])

    df = X.merge(_read_tokens(sf_dir, ["source", "n_tok"]), partial,
                 ["source", "n_tok"], part_schema).to_pandas()
    rows = []
    for src, grp in df.groupby("source", sort=True):
        grp = grp.sort_values("n_tok")
        lens = grp["n_tok"].to_numpy()
        cum = grp["cnt"].to_numpy().cumsum()
        n = int(cum[-1])
        pick = [int(lens[np.searchsorted(cum * 100, p * n)])
                for p in (50, 90, 99)]
        rows.append((src, *pick))
    return pa.table({
        "source": pa.array([r[0] for r in rows], pa.string()),
        "p50": pa.array([r[1] for r in rows], pa.int64()),
        "p90": pa.array([r[2] for r in rows], pa.int64()),
        "p99": pa.array([r[3] for r in rows], pa.int64()),
    }, schema=_LENP_OUT)


def sql_seq_len_percentiles(cache: str) -> str:
    return f"""
SELECT source,
  CAST(PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY n_tok) AS BIGINT) AS p50,
  CAST(PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY n_tok) AS BIGINT) AS p90,
  CAST(PERCENTILE_DISC(0.99) WITHIN GROUP (ORDER BY n_tok) AS BIGINT) AS p99
FROM read_parquet('{cache}/shard-*.parquet')
GROUP BY source ORDER BY source
"""


_RUN_OUT = pa.schema([("run_len", pa.int64()), ("n_runs", pa.int64())])


def q_log_token_run_lengths(sf_dir: str):
    """Histogram of maximal same-token run lengths across the corpus —
    the RLE-compressibility / stuck-byte signal at sub-sequence
    granularity (the per-sequence dominant-ratio screen can miss a
    long run buried in an otherwise-diverse payload; this can't). Runs
    never cross sequence boundaries.

    Exchange-free: run starts are one vectorized comparison per block
    (value change OR row start), lengths diff out of the start
    indices, and each block emits a <=max-n_tok-row bincount partial;
    the driver folds KBs. Exact integers end-to-end."""

    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        n = len(vals)
        if not n:
            return _RUN_OUT.empty_table()
        start = np.zeros(n, dtype=bool)
        starts = off[:-1][np.diff(off) > 0]  # first token of nonempty rows
        start[starts] = True
        start[1:] |= vals[1:] != vals[:-1]
        lens = np.diff(np.r_[np.flatnonzero(start), n])
        return _key_counts(lens, int(lens.max()) + 1).rename_columns(
            _RUN_OUT.names)

    return X.merge(_read_tokens(sf_dir, ["tokens"]), partial, ["run_len"],
                   _RUN_OUT).sort_by("run_len")


def sql_token_run_lengths(cache: str) -> str:
    # pos gives the window a TOTAL order within each doc (the
    # log_sessionize rule: never two window clauses over an ambiguous
    # sort), and doc_id partitioning keeps runs inside sequences
    return f"""
WITH p AS (
  SELECT doc_id, unnest(tokens) AS tok,
         generate_subscripts(tokens, 1) AS pos
  FROM read_parquet('{cache}/shard-*.parquet')
), i AS (
  SELECT doc_id, pos,
         CASE WHEN LAG(tok) OVER (PARTITION BY doc_id ORDER BY pos)
                   IS DISTINCT FROM tok THEN 1 ELSE 0 END AS brk
  FROM p
), r AS (
  SELECT doc_id, SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos
           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS run_id
  FROM i
), l AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS run_len
  FROM r GROUP BY doc_id, run_id
)
SELECT run_len, CAST(COUNT(*) AS BIGINT) AS n_runs
FROM l GROUP BY run_len ORDER BY run_len
"""


_DOM_OUT = pa.schema([("source", pa.string()), ("decile", pa.int64()),
                      ("n_seqs", pa.int64())])


def q_log_seq_dominant_ratio(sf_dir: str):
    """Per-SEQUENCE stuck-payload screen: for every sequence, the
    dominant-token ratio (count of its most frequent token / n_tok),
    histogrammed in ppm deciles per source. A source whose mass sits in
    high deciles emits near-constant payloads (the per-sequence twin of
    the per-source entropy screen — a source can look healthy on
    average while individual sensors are stuck).

    Block-local and exchange-free: per-row dominant counts come from a
    sorted-key segmented max (rows never span blocks), each block emits
    a <= |sources| x 11 histogram partial, the driver folds a few KB.
    Ratio rides an exact INTEGER ppm floor — count quotients are never
    ROUND-6 safe (the doc_quality_linear rule)."""

    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        if not len(vals):
            return _DOM_OUT.empty_table()
        nt = np.diff(off)
        row_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), nt)
        key = row_of * 256 + vals.astype(np.int64)
        uk, cnt = np.unique(key, return_counts=True)
        rows_u = uk >> 8
        bnd = np.flatnonzero(np.r_[True, rows_u[1:] != rows_u[:-1]])
        mx = np.maximum.reduceat(cnt, bnd)
        rid = rows_u[bnd]  # rows with nt == 0 never appear
        dec = mx * 1_000_000 // nt[rid] // 100_000
        dic, codes = _source_codes(t)
        return _key_counts(dec, 11, (dic, codes[rid])).rename_columns(
            _DOM_OUT.names)

    return X.merge(_read_tokens(sf_dir, ["tokens", "source"]), partial,
                   ["source", "decile"], _DOM_OUT).sort_by(
        [("source", "ascending"), ("decile", "ascending")])


def sql_seq_dominant_ratio(cache: str) -> str:
    # decile 10 = exactly-constant payloads (ppm == 1,000,000): kept
    # unclamped on both sides so the constant bucket stays separable
    return f"""
WITH u AS (
  SELECT doc_id, source, CAST(n_tok AS BIGINT) AS n_tok,
         CAST(tok AS BIGINT) AS tok, CAST(COUNT(*) AS BIGINT) AS c
  FROM read_parquet('{cache}/shard-*.parquet') t, UNNEST(t.tokens) AS u(tok)
  GROUP BY doc_id, source, n_tok, tok
), m AS (
  SELECT doc_id, source, MAX(c) * 1000000 // n_tok // 100000 AS decile
  FROM u GROUP BY doc_id, source, n_tok
)
SELECT source, CAST(decile AS BIGINT) AS decile,
       CAST(COUNT(*) AS BIGINT) AS n_seqs
FROM m GROUP BY source, decile ORDER BY source, decile
"""


_LEAK_OUT = pa.schema([("src_a", pa.string()), ("src_b", pa.string()),
                       ("n_shared", pa.int64())])


def q_log_cross_source_leakage(sf_dir: str):
    """Cross-SOURCE sequence leakage matrix — for every source pair,
    how many distinct token sequences occur in BOTH (the contamination
    audit run before treating sources as independent train/eval
    slices; per-source dedup cannot see these by construction).

    Same exchange as log_seq_dedup — block-distinct (source, h)
    presence pairs, ONE h % P exchange — but the partition fold
    self-joins the presence rows on h (fan-out bounded by |sources|
    per hash) and emits per-pair counts; the driver sums
    P x |sources|^2 tiny rows (``exchange.sum_refs``). Sequences never
    move."""
    def partial(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        h = _seq_hash64(vals, off)
        return pa.table({
            "source": t.column("source"),
            "h": pa.array(h.view(np.int64)),
        }).group_by(["source", "h"]).aggregate([])

    def fold_part(g: pa.Table):
        import pandas as pd

        g = g.to_pandas()
        d = g.drop_duplicates(["source", "h"])
        m = d.merge(d, on="h")
        m = m[m["source_x"] < m["source_y"]]
        out = (m.groupby(["source_x", "source_y"], sort=False)
               .size().reset_index(name="n"))
        return pd.DataFrame({"src_a": out["source_x"],
                             "src_b": out["source_y"],
                             "n_shared": out["n"].astype("int64")})

    return X.sum_refs(X.part_exchange(
        _read_tokens(sf_dir, ["tokens", "source"]), partial, _h_key,
        fold_part, _LEAK_OUT), ["src_a", "src_b"], _LEAK_OUT)


def sql_cross_source_leakage(cache: str) -> str:
    return f"""
WITH d AS (
  SELECT DISTINCT source, tokens
  FROM read_parquet('{cache}/shard-*.parquet')
)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(COUNT(*) AS BIGINT) AS n_shared
FROM d a JOIN d b ON a.tokens = b.tokens AND a.source < b.source
GROUP BY 1, 2
"""


_PACK_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("seq_id", pa.int64()),
    ("n_frag_tokens", pa.int64()), ("frag_sum", pa.int64()),
    ("first_tok", pa.int64()), ("last_tok", pa.int64()),
])
_PACK_SRC_SCHEMA = pa.schema([pa.field("source", pa.string()),
                              *_PACK_SCHEMA])
_PACK_SRC_SUMS = pa.schema([("source", pa.string()), ("chunk", pa.int64()),
                            ("tok_sum", pa.int64())])


def _pack_idx(col) -> np.ndarray:
    """Ingestion index: the numeric 12-digit suffix of doc_id."""
    return pc.cast(pc.utf8_slice_codeunits(one_array(col), -12),
                   pa.int64()).to_numpy(zero_copy_only=False)


def _with_sep(t: pa.Table, sep: int) -> pa.Table:
    """``t`` with one ``sep`` token appended to every row's ``tokens``
    (a null row becomes ``[sep]``)."""
    vals, off = _token_lists(t.column("tokens"))
    noff = off + np.arange(len(off))
    out = np.full(len(vals) + len(off) - 1, sep, dtype=np.int32)
    keep = np.ones(len(out), dtype=bool)
    keep[noff[1:] - 1] = False
    out[keep] = vals
    return t.set_column(t.column_names.index("tokens"), "tokens",
                        pa.ListArray.from_arrays(pa.array(noff, pa.int32()),
                                                 pa.array(out)))


def _pack_shard(sf_dir: str, cols: list, chunk_docs: int, side,
                wide: bool = False, prep=None) -> tuple[list, list]:
    """The one head of the pack family. One file-aligned read of
    ``doc_id`` + ``cols`` (``_read_tokens``); each shard's read task
    also runs ``add_keys`` as its partial: keep ``cols``, add the
    ingestion index ``idx`` and ``chunk = idx // chunk_docs``, then
    apply ``prep`` (the separator, the dedup ops' hash and gate). P
    follows the keyed blocks' bytes, and one task per block slices its
    rows into P partitions by chunk (``exchange.table_shard``) and
    appends ``side(block, P)``: one bounded pass-1 partial, or with
    ``wide`` P slices for a second wave. Returns the partition-major
    chunk slices and side outputs, both empty when the input has no
    rows."""
    def add_keys(t: pa.Table) -> pa.Table:
        idx = _pack_idx(t.column("doc_id"))
        t = (t.select(cols).append_column("idx", pa.array(idx, pa.int64()))
             .append_column("chunk", pa.array(idx // chunk_docs, pa.int64())))
        return t if prep is None else prep(t)

    refs, _, nbytes = X.sized_block_refs(
        _read_tokens(sf_dir, list(dict.fromkeys(["doc_id", *cols]))),
        add_keys)
    if not refs:
        return [], []
    P = X.n_parts(nbytes)

    def chunk_shard(block: pa.Table) -> list:
        return X.table_shard(block, P, "chunk") + side(block, P)

    sl = X.shard(chunk_shard, refs, 2 * P if wide else P + 1)
    return sl[:P], sl[P:]


def _chunk_tok_sums(block: pa.Table, P: int) -> list:
    """Pass-1 side output of the single-stream pack ops: the block's
    per-chunk token totals, from ``n_tok`` when the op reads it, else
    from the ``tokens`` lengths."""
    n = (block.column("n_tok") if "n_tok" in block.column_names
         else pc.list_value_length(block.column("tokens")))
    return [pack.chunk_sums(
        block.column("chunk").to_numpy(zero_copy_only=False),
        n.to_numpy(zero_copy_only=False).astype(np.int64))]


def _chunk_run(g: pa.Table) -> np.ndarray:
    """Run key of the single-stream pack ops: the row's chunk."""
    return g.column("chunk").to_numpy(zero_copy_only=False)


def _source_run(srcs: np.ndarray, C: int, g: pa.Table) -> np.ndarray:
    """Run key of the by-source packing: (source, chunk) as ``rank * C +
    chunk``, with the source's rank in the driver's sorted ``srcs``."""
    dic, codes = _source_codes(g)
    rank = np.searchsorted(srcs, np.asarray(dic.to_pylist()))
    return rank[codes] * C + _chunk_run(g)


def _pack_bases(sums: list):
    """(chunk, tok_sum) partial refs summed on the driver into the
    broadcast base of the single-stream pack ops: the chunk run key and
    ``pack.bases``."""
    import ray

    return ray.put((_chunk_run, pack.bases(
        X.sum_refs(sums, ["chunk"], pack.CHUNK_SUMS))))


def _stream_order(run, g: pa.Table) -> tuple:
    """A chunk partition's rows in stream order: the order that sorts
    them by (run key ``run(g)``, idx), and their run keys in that order.
    A partition holds whole chunks, so it holds whole runs, and
    ``pack.offsets`` turns the sorted keys into exact stream offsets."""
    r = run(g)
    o = np.lexsort((g.column("idx").to_numpy(zero_copy_only=False), r))
    return o, r[o]


def _pack_combine(base, seq_len: int, ids: list, dropped: list,
                  tabs: list) -> pa.Table:
    """One chunk partition of every payload pack op: the kept rows'
    fragments in stream order, with ``ids``' columns.

    The ``tokens`` payload is read in place, slice by slice, and never
    concatenated, sorted or taken: only the key columns are
    concatenated and put in stream order (``_stream_order``), which is
    all ``pack.offsets`` needs. A row whose ``idx`` is in ``dropped``
    (the dedup ops' losers, routed to this partition; none for the
    others) becomes a zero-length row, so offsets count kept rows only,
    as the kept-only chunk sums do. Each slice emits its own fragments;
    the small fragments table is then taken into stream order (the
    row's stream rank, then ``seq_id``)."""
    run, bases = base
    toks = [_token_lists(t.column("tokens")) for t in tabs]
    n = np.concatenate([np.diff(toffs) for _, toffs in toks])
    g = pa.concat_tables([t.drop_columns(["tokens"])
                          for t in tabs]).combine_chunks()
    drop = np.concatenate([np.empty(0, np.int64), *dropped])
    if len(drop):
        n[np.isin(g.column("idx").to_numpy(zero_copy_only=False), drop)] = 0
    o, r = _stream_order(run, g)
    off, rank = np.empty_like(n), np.empty_like(n)
    off[o] = pack.offsets(r, n[o], bases)
    rank[o] = np.arange(len(o))
    g = g.select(ids).append_column("rank", pa.array(rank))
    frags, lo = [], 0
    for (vals, toffs), t in zip(toks, tabs):
        hi = lo + t.num_rows
        frags.append(pack.fragments(g.slice(lo, t.num_rows), vals, toffs,
                                    n[lo:hi], off[lo:hi], seq_len))
        lo = hi
    f = pa.concat_tables(frags)
    return f.take(pa.array(np.argsort(
        f.column("rank").to_numpy(), kind="stable"))).drop_columns(["rank"])


def _pack_fragments(sl: list, base, seq_len: int, ids: list,
                    schema: pa.Schema, dropped: list | None = None):
    """The payload pack ops' last wave: one ``_pack_combine`` per chunk
    partition, with its dropped ids when the op dedups. The packed
    corpus is O(input) rows, so it ships as a Dataset of per-partition
    blocks, never a driver concat."""
    import ray.data as rd

    return rd.from_arrow_refs(X.combine(
        _pack_combine, (dropped or [[]] * len(sl), sl), base, seq_len, ids,
        out_schema=schema))


def _pack_stream(sf_dir: str, seq_len: int, chunk_docs: int, prep=None):
    """Single-stream packing of ``tokens`` (after ``prep``): the pack
    head, chunk bases, the fragment wave."""
    import ray.data as rd

    sl, side = _pack_shard(sf_dir, ["doc_id", "tokens"], chunk_docs,
                           _chunk_tok_sums, prep=prep)
    if not sl:
        return rd.from_arrow(_PACK_SCHEMA.empty_table())
    return _pack_fragments(sl, _pack_bases(side[0]), seq_len, ["doc_id"],
                           _PACK_SCHEMA)


def _pack_src_chunk_sums(block: pa.Table, P: int) -> list:
    """Pass-1 side output of the by-source packing: the block's
    per-(source, chunk) token sums."""
    nt = pc.list_value_length(block.column("tokens"))
    g = pa.table({
        "source": block.column("source"),
        "chunk": block.column("chunk"),
        "nt": nt.cast(pa.int64()),
    }).group_by(["source", "chunk"]).aggregate([("nt", "sum")])
    return [g.rename_columns(["source", "chunk", "tok_sum"])]


def q_log_pack_tokens_by_source(sf_dir: str, seq_len: int = 512,
                                chunk_docs: int = 4096):
    """SOURCE-SEPARATED sequence packing: each source's tokens form
    their OWN stream, packed independently into fixed seq_len-token
    training rows (domain-pure sequences — the curriculum/domain-mixing
    layout, vs q_log_pack_tokens' single global stream). Same ingestion
    order within a source.

    Engine shape: q_log_pack_tokens' with the run key (source, chunk)
    in place of chunk. The chunk exchange already co-locates every
    (source, chunk) run (run ⊆ chunk), so only pass 1 changes —
    bounded per-(source, chunk) sums, driver cumsum RESET per source,
    composite-key bases broadcast once. SQL mirror: the same window
    cumsum PARTITIONed BY source."""
    import functools

    import ray
    import ray.data as rd

    sl, side = _pack_shard(sf_dir, ["doc_id", "tokens", "source"],
                           chunk_docs, _pack_src_chunk_sums)
    if not sl:
        return rd.from_arrow(_PACK_SRC_SCHEMA.empty_table())
    t = X.sum_refs(side[0], ["source", "chunk"], _PACK_SRC_SUMS)
    srcs, rank = np.unique(np.asarray(t.column("source").to_pylist()),
                           return_inverse=True)
    chunk = t.column("chunk").to_numpy()
    C = int(chunk.max()) + 1
    # per-source exclusive cumsum: the offsets rule with the source as
    # the run key and zero bases
    zero = (np.arange(len(srcs)), np.zeros(len(srcs), np.int64))
    bases = (rank * C + chunk,
             pack.offsets(rank, t.column("tok_sum").to_numpy(), zero))
    return _pack_fragments(
        sl, ray.put((functools.partial(_source_run, srcs, C), bases)),
        seq_len, ["source", "doc_id"], _PACK_SRC_SCHEMA)


def q_log_pack_tokens(sf_dir: str, seq_len: int = 512,
                      chunk_docs: int = 4096):
    """GPT-style sequence packing over the RAW token payload: concatenate
    every row's ``tokens`` in ingestion order (the numeric suffix of
    doc_id — the synthesizer's global row index) and split the stream
    into fixed ``seq_len``-token training sequences; emit one row per
    (doc, sequence) fragment with its exact boundary + content checksums
    (count / sum / first / last token).

    Engine shape (the doc_pack_materialize semantics on the raw-task
    exchange layout): ``_pack_shard`` makes ONE file-aligned read
    (keys added in the same fused map) and one task per block that
    slices its rows by chunk hash (``exchange.table_shard``) and emits
    its bounded per-chunk token sums, which fold on the driver into
    exclusive chunk bases broadcast once; then the ONE justified
    payload exchange combines on raw tasks (``_pack_combine``; Ray
    Data's sort-based groupby sizes post-shuffle blocks by bytes,
    capping concurrency for this stage — the compat/semdedup rule)
    with full P-way combine parallelism. Fragment stats are exact
    integers (tokens < 256, fragments <= seq_len), so the SQL gate is
    hash-exact."""
    return _pack_stream(sf_dir, seq_len, chunk_docs)


def _sql_pack(cache: str, seq_len: int, cols: str = "doc_id", *,
              tokens: str = "tokens", n_tok: str = "n_tok",
              rows: str = "SELECT * FROM raw", part: str = "") -> str:
    """The pack gates' one CTE chain, up to ``f``: one row per (row,
    sequence) its tokens cover. ``raw`` reads ``cols``, ``tokens`` AS
    tokens, ``n_tok`` and the ingestion index ``idx``; ``t`` is ``rows``
    over it (the dedup and curation filters); ``o`` adds each row's
    exclusive stream offset, a window cumsum over ``part`` (the
    by-source gate's PARTITION BY) ordered by idx; ``f`` unnests the seq
    ids. ``_sql_fragments`` or ``_sql_seq_hist`` ends the query."""
    return f"""
WITH raw AS (
  SELECT {cols}, {tokens} AS tokens, CAST({n_tok} AS BIGINT) AS n_tok,
         CAST(right(doc_id, 12) AS BIGINT) AS idx
  FROM read_parquet('{cache}/shard-*.parquet')
), t AS (
  {rows}
), o AS (
  SELECT *,
         CAST(COALESCE(SUM(n_tok) OVER ({part}ORDER BY idx
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS tok_offset
  FROM t
), f AS (
  SELECT *,
         unnest(generate_series(tok_offset // {seq_len},
                                (tok_offset + n_tok - 1) // {seq_len}))
           AS seq_id
  FROM o WHERE n_tok > 0
)"""


def _sql_fragments(cols: str, seq_len: int) -> str:
    """The fragment gates' end of ``_sql_pack``: each (row, seq)
    fragment's token range and exact checksums, with ``cols``."""
    return f""", s AS (
  SELECT {cols}, CAST(seq_id AS BIGINT) AS seq_id, tokens,
         GREATEST(seq_id * {seq_len}, tok_offset) - tok_offset + 1 AS a,
         LEAST((seq_id + 1) * {seq_len}, tok_offset + n_tok) - tok_offset AS b
  FROM f
)
SELECT {cols}, seq_id,
       CAST(b - a + 1 AS BIGINT) AS n_frag_tokens,
       CAST(list_sum(list_slice(tokens, a, b)) AS BIGINT) AS frag_sum,
       CAST(tokens[a] AS BIGINT) AS first_tok,
       CAST(tokens[b] AS BIGINT) AS last_tok
FROM s
"""


def _sql_seq_hist(name: str, count: str) -> str:
    """The diagnostic gates' end of ``_sql_pack``: ``count`` per seq,
    then how many seqs have each count, as (``name``, n_seqs)."""
    return f""", d AS (
  SELECT seq_id, {count} AS n FROM f GROUP BY seq_id
)
SELECT CAST(n AS BIGINT) AS {name}, CAST(COUNT(*) AS BIGINT) AS n_seqs
FROM d GROUP BY n ORDER BY n
"""


# the dedup gates' rule: the min-idx copy of each distinct tokens array
_SQL_FIRST_COPY = "QUALIFY idx = MIN(idx) OVER (PARTITION BY tokens)"


def sql_pack_tokens_by_source(cache: str, seq_len: int = 512) -> str:
    return (_sql_pack(cache, seq_len, "source, doc_id",
                      part="PARTITION BY source ")
            + _sql_fragments("source, doc_id", seq_len))


def sql_pack_tokens(cache: str, seq_len: int = 512) -> str:
    return _sql_pack(cache, seq_len) + _sql_fragments("doc_id", seq_len)


_SEQ_PAIRS = pa.schema([("seq", pa.int64()), ("key", pa.int64())])
_MIX_SCHEMA = pa.schema([("n_docs", pa.int64()), ("n_seqs", pa.int64())])
_PUR_SCHEMA = pa.schema([("n_sources", pa.int64()), ("n_seqs", pa.int64())])


def _distinct_pairs(seq: np.ndarray, key: np.ndarray) -> tuple:
    """The distinct (seq, key) pairs, sorted."""
    o = np.lexsort((key, seq))
    seq, key = seq[o], key[o]
    keep = np.ones(len(seq), dtype=bool)
    keep[1:] = (seq[1:] != seq[:-1]) | (key[1:] != key[:-1])
    return seq[keep], key[keep]


def _span_combine(base, seq_len: int, P2: int, key, *shards) -> list:
    """Wave 1 of the payload-free pack diagnostics, one chunk partition:
    exact stream offsets from ``n_tok``, every row's (row, seq) spans,
    and the distinct (seq, ``key(rows)``) pairs, returned PRE-SHARDED by
    seq hash for the per-seq wave (num_returns=P2)."""
    run, bases = base
    g = pa.concat_tables(shards).combine_chunks()
    o, r = _stream_order(run, g)
    nt = g.column("n_tok").to_numpy(
        zero_copy_only=False).astype(np.int64)[o]
    row, seq, _, _ = pack.spans(pack.offsets(r, nt, bases), nt, seq_len)
    seq, k = _distinct_pairs(seq, key(g)[o[row]])
    return X.split(X.fib_partition(seq, P2), P2, pa.table(
        [pa.array(seq, pa.int64()), pa.array(k, pa.int64())],
        schema=_SEQ_PAIRS))


def _seq_hist_combine(schema: pa.Schema, *parts) -> pa.Table:
    """Wave 2, one seq partition: distinct keys per seq (a pair repeats
    when a seq crosses chunk partitions), folded straight into the
    bounded (count, n_seqs) histogram ``schema``."""
    t = pa.concat_tables(parts)
    seq, _ = _distinct_pairs(t.column("seq").to_numpy(zero_copy_only=False),
                             t.column("key").to_numpy(zero_copy_only=False))
    _, n = np.unique(seq, return_counts=True)
    d, nsq = np.unique(n, return_counts=True)
    return pa.table([pa.array(d, pa.int64()), pa.array(nsq, pa.int64())],
                    schema=schema)


def _seq_histogram(sf_dir: str, seq_len: int, chunk_docs: int, cols: list,
                   key, schema: pa.Schema) -> pa.Table:
    """The payload-free pack diagnostics: the sequence grid depends only
    on (idx, n_tok), so the pack head reads ``cols`` (``n_tok`` and the
    key's column, no payload) and two raw-task waves follow —
    ``_span_combine`` per chunk partition, ``_seq_hist_combine`` per seq
    partition — then the driver sums P bounded histograms. Every stream
    position belongs to a row, so every seq appears in some pair.
    Exact integers end-to-end."""
    sl, side = _pack_shard(sf_dir, cols, chunk_docs, _chunk_tok_sums)
    if not sl:
        return schema.empty_table()
    P = len(sl)
    mids = X.combine(_span_combine, sl, _pack_bases(side[0]), seq_len, P,
                     key, num_returns=P, out_schema=_SEQ_PAIRS)
    return X.sum_refs(
        X.combine(_seq_hist_combine, mids, schema, out_schema=schema),
        [schema.names[0]], schema)


def _idx_key(t: pa.Table) -> np.ndarray:
    """Pair key of log_pack_doc_mix: the row's ingestion index."""
    return t.column("idx").to_numpy(zero_copy_only=False)


def _source_key(t: pa.Table) -> np.ndarray:
    """Pair key of log_pack_source_purity: 64-bit FNV-1a of the row's
    source (identity only — distinct counting needs equality, never
    order; collisions among a bounded source set are measure-zero and
    deterministic)."""
    dic, idx = _source_codes(t)
    uniq = dic.to_pylist()
    h = np.empty(len(uniq), dtype=np.uint64)
    for i, s in enumerate(uniq):
        acc = np.uint64(0xCBF29CE484222325)
        for by in s.encode():
            acc = np.uint64((int(acc) ^ by) *
                            0x100000001B3 % (1 << 64))
        h[i] = acc
    return h[idx].view(np.int64)


def q_log_pack_source_purity(sf_dir: str, seq_len: int = 512,
                             chunk_docs: int = 4096):
    """Domain purity of the packed layout: how many distinct SOURCES
    each fixed-length training sequence mixes (the domain-mixing twin
    of log_pack_doc_mix — log_pack_tokens_by_source exists precisely
    to drive this histogram to all-1s; this op measures how impure the
    global layout actually is). Doc_mix's waves with the source hash
    as the pair key."""
    return _seq_histogram(sf_dir, seq_len, chunk_docs, ["n_tok", "source"],
                          _source_key, _PUR_SCHEMA)


def sql_pack_source_purity(cache: str, seq_len: int = 512) -> str:
    return (_sql_pack(cache, seq_len, "source")
            + _sql_seq_hist("n_sources", "COUNT(DISTINCT source)"))


def q_log_pack_doc_mix(sf_dir: str, seq_len: int = 512,
                       chunk_docs: int = 4096):
    """Packing fragmentation histogram: how many DOCUMENTS each packed
    training sequence mixes (the cross-doc attention-contamination
    diagnostic for the log_pack_tokens layout — a seq_len too large for
    the doc-length distribution shows up as a heavy n_docs tail).
    Payload-free (``_seq_histogram``), with the doc's ingestion index
    as the pair key."""
    return _seq_histogram(sf_dir, seq_len, chunk_docs, ["n_tok"], _idx_key,
                          _MIX_SCHEMA)


def sql_pack_doc_mix(cache: str, seq_len: int = 512) -> str:
    return _sql_pack(cache, seq_len) + _sql_seq_hist("n_docs", "COUNT(*)")


def q_log_pack_tokens_sep(sf_dir: str, seq_len: int = 512,
                          chunk_docs: int = 4096, sep: int = 256):
    """EOS-SEPARATED sequence packing — the standard LLM training
    layout: each row's tokens are followed by one document-separator
    token (``sep``, outside the byte alphabet) before the stream is cut
    into fixed seq_len-token sequences, so a model can learn document
    boundaries and attention masks can be rebuilt from the separators.
    Zero-token rows still contribute their separator (a boundary
    marker). This is plain q_log_pack_tokens over ``tokens + [sep]``:
    the pack head appends the separator in the read's map. The fragment
    checksums are exact integers including covered separators, so the
    SQL gate (list_concat(tokens, [sep]) + the same window cumsum) is
    hash-exact."""
    return _pack_stream(sf_dir, seq_len, chunk_docs,
                        prep=lambda t: _with_sep(t, sep))


def sql_pack_tokens_sep(cache: str, seq_len: int = 512,
                        sep: int = 256) -> str:
    return (_sql_pack(cache, seq_len, tokens=f"list_concat(tokens, [{sep}])",
                      n_tok="n_tok + 1")
            + _sql_fragments("doc_id", seq_len))


def q_log_pack_tokens_dedup(sf_dir: str, seq_len: int = 512,
                            chunk_docs: int = 4096):
    """The token-axis CURATION COMPOSITION: exact sequence dedup (keep
    the min-ingestion-index copy of each distinct tokens array) fused
    into GPT-style packing of the SURVIVING stream — what a training-
    data job actually runs (dedup feeding the packer), in one pipeline
    with no intermediate materialization.

    Raw-task waves over ONE read (the pack head):
      1. One shard task per block slices the payload rows by chunk hash
         (``exchange.table_shard``) and (h, idx, n_tok) triples by the
         sequence hash, ``num_returns=2P``.
      2. Each hash partition keeps the min idx per h, emits (a) bounded
         per-chunk KEPT-token sums and (b) the dropped ids PRE-SHARDED
         by their chunk's Fibonacci hash (``num_returns=P+1`` — dropped
         ids never concat on the driver, the clusters_lp rule).
      3. The driver folds chunk sums into exclusive bases (the pack
         prefix-sum contract: O(corpus/chunk_docs) ints) broadcast once.
      4. Each chunk partition's payload slices meet its dropped-id shard
         in the one pack combine, where a dropped row packs as a
         zero-length row (the payload is read in place, never filtered).

    Sequence identity rides the property-tested 64-bit polynomial row
    hash (the log_seq_dedup contract: collisions ~ n^2/2^64); the SQL
    gate dedups on the exact tokens array."""
    return _dedup_pack_pipeline(sf_dir, seq_len, chunk_docs)


def _dedup_pack_pipeline(sf_dir: str, seq_len: int, chunk_docs: int,
                         gate=None):
    """The dedup-feeding-pack waves, shared by log_pack_tokens_dedup and
    log_pack_tokens_curated, on the pack head: the read's map adds the
    sequence hash ``h``; ``gate(vals, off)``, when given, returns the
    per-row keep mask of a filter applied there, before any row enters
    the dedup."""
    import ray.data as rd

    def add_hash(t: pa.Table) -> pa.Table:
        vals, off = _token_lists(t.column("tokens"))
        # .view, not .astype: bit-exact uint64->int64 reinterpretation
        # (the log_seq_dedup idiom; astype of out-of-range uint64 is a
        # platform-defined C cast)
        t = t.append_column("h", pa.array(_seq_hash64(vals, off).view(np.int64)))
        return t if gate is None else t.filter(pa.array(gate(vals, off)))

    def hash_slices(t: pa.Table, P: int) -> list:
        h = _h_key(t)
        nt = pc.list_value_length(t.column("tokens")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return X.split(X.fib_partition(h, P), P, h,
                       t.column("idx").to_numpy(zero_copy_only=False), nt)

    sl, hs = _pack_shard(sf_dir, ["doc_id", "tokens"], chunk_docs,
                         hash_slices, wide=True, prep=add_hash)
    if not sl:
        return rd.from_arrow(_PACK_SCHEMA.empty_table())
    P = len(sl)

    def dedup_combine(*shards) -> list:
        # kept-token chunk sums, plus the dropped ids split by their
        # chunk's partition
        h, idx, nt = (np.concatenate([s[i] for s in shards])
                      for i in range(3))
        first, idx, nt = min_index_winners(h, idx, nt)
        dropped = idx[~first]
        return ([pack.chunk_sums(idx[first] // chunk_docs, nt[first])]
                + X.split(X.fib_partition(dropped // chunk_docs, P), P,
                          dropped))

    fl = X.combine(dedup_combine, hs, num_returns=P + 1)
    return _pack_fragments(sl, _pack_bases(fl[0]), seq_len, ["doc_id"],
                           _PACK_SCHEMA, dropped=fl[1:])


def sql_pack_tokens_dedup(cache: str, seq_len: int = 512) -> str:
    return (_sql_pack(cache, seq_len, rows=f"SELECT * FROM raw {_SQL_FIRST_COPY}")
            + _sql_fragments("doc_id", seq_len))


def _quality_gate_mask(vals: np.ndarray, off: np.ndarray,
                       min_tok: int, max_dom_ppm: int) -> np.ndarray:
    """Per-row keep mask for the curation quality gate: at least
    ``min_tok`` tokens AND dominant-token ratio under ``max_dom_ppm``
    ppm (integer floor — the log_seq_dominant_ratio pass, as a
    filter). Pure numpy; property-tested against a Counter reference
    in tests/test_properties.py."""
    nrows = len(off) - 1
    nt = np.diff(off)
    keep = np.zeros(nrows, dtype=bool)
    if len(vals):
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), nt)
        key = row_of * 256 + vals.astype(np.int64)
        uk, cnt = np.unique(key, return_counts=True)
        rows_u = uk >> 8
        bnd = np.flatnonzero(np.r_[True, rows_u[1:] != rows_u[:-1]])
        mx = np.maximum.reduceat(cnt, bnd)
        rid = rows_u[bnd]
        ok = (nt[rid] >= min_tok) & (
            mx * 1_000_000 // nt[rid] < max_dom_ppm)
        keep[rid[ok]] = True
    return keep


def q_log_pack_tokens_curated(sf_dir: str, seq_len: int = 512,
                              chunk_docs: int = 4096,
                              max_dom_ppm: int = 900_000,
                              min_tok: int = 4):
    """The FULL token-axis curation flagship: quality gate -> exact
    dedup -> pack, one pipeline over one read. The gate drops
    near-constant payloads (dominant-token ratio >= ``max_dom_ppm``
    ppm — the stuck-sensor screen applied as a filter) and runt
    sequences (< ``min_tok`` tokens) BLOCK-LOCALLY inside the key
    stage, so the dedup exchange and the packer only ever see
    survivors; dedup then keeps the min-ingestion-index copy per
    distinct tokens array and the survivor stream packs into
    ``seq_len`` sequences (the log_pack_tokens_dedup waves, gated).

    Gate ordering matters and is pinned by the SQL mirror: a copy
    dropped by the QUALITY gate never shadows a later duplicate."""
    return _dedup_pack_pipeline(
        sf_dir, seq_len, chunk_docs,
        gate=lambda vals, off: _quality_gate_mask(vals, off, min_tok,
                                                  max_dom_ppm))


def sql_pack_tokens_curated(cache: str, seq_len: int = 512,
                            max_dom_ppm: int = 900_000,
                            min_tok: int = 4) -> str:
    return _sql_pack(cache, seq_len, rows=f"""SELECT raw.* FROM raw JOIN (
    SELECT doc_id, MAX(c) AS mx FROM (
      SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS c
      FROM read_parquet('{cache}/shard-*.parquet') t, UNNEST(t.tokens) AS z(tok)
      GROUP BY doc_id, tok
    ) GROUP BY doc_id
  ) dom USING (doc_id)
  WHERE raw.n_tok >= {min_tok}
    AND dom.mx * 1000000 // raw.n_tok < {max_dom_ppm}
  {_SQL_FIRST_COPY}""") + _sql_fragments("doc_id", seq_len)


def q_log_top_paths_cms(sf_dir: str):
    """Approximate top-K paths via per-partition count-min + merge (the
    north-star sketch mode; exact `log_top_paths` is its oracle). No SQL
    gate: estimates are upper bounds, asserted in tests/test_sketch.py."""
    from ..stages.sketch import topk_count_min

    enriched = _enriched(sf_dir).map_batches(
        lambda t: t.filter(t.column("parse_ok")), batch_format="pyarrow"
    )
    return topk_count_min(enriched, "path", k=10)


def _parse_stats_from(enr) -> pa.Table:
    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([("parse_ok", "sum"), ("parse_ok", "count")])
        return g.rename_columns(["source", "parsed", "total_lines"])

    t = X.merge(enr, partial, ["source"], pa.schema([
        ("source", pa.string()), ("parsed", pa.int64()),
        ("total_lines", pa.int64())])).sort_by("source")
    return pa.table({
        "source": t.column("source"),
        "total_lines": t.column("total_lines"),
        "parsed": t.column("parsed"),
        "parse_errors": pc.subtract(t.column("total_lines"),
                                    t.column("parsed")),
    })


def q_log_parse_stats(sf_dir: str):
    return _parse_stats_from(_enriched(sf_dir))


def q_log_repeat_offenders(sf_dir: str):
    """ST5 lastN window, implemented AS INTENDED (the reference's ring
    buffer is write-only dead code; its TODO at metricgenerator.go:73
    says "check if we received invalid requests from a client repeatedly
    -> malicious"): per (source, client_ip), a sliding window over the
    client's last 50 parsed entries in file order counts malicious
    requests; a client whose window ever holds >=3 is flagged.

    Ray shape: hash-grouped by client (``exchange.part_exchange`` —
    client count is unbounded at scale, so a per-client Ray groupby would
    pay ~60us per tiny group), then one vectorized windowed cumsum scan
    per partition; the oracle is an independent SQL window query (and
    the literal ring-buffer dump in pytest)."""
    import pandas as pd
    import ray.data as rd

    out_schema = pa.schema([("source", pa.string()),
                            ("client_ip", pa.string()),
                            ("n_requests", pa.int64()),
                            ("max_malicious_in_window", pa.int64()),
                            ("flagged", pa.int64())])

    def parsed(t: pa.Table) -> pa.Table:
        return t.filter(t.column("parse_ok")).select(
            ["source", "client_ip", "doc_id", "malicious"])

    def client_key(t: pa.Table) -> np.ndarray:
        key = pc.binary_join_element_wise(
            t.column("source").cast(pa.string()),
            t.column("client_ip").cast(pa.string()), "\x00")
        return X.crc_hash(key)

    def offenders_part(g: pa.Table) -> pd.DataFrame:
        g = g.to_pandas()
        g = g.sort_values(["source", "client_ip", "doc_id"], kind="stable")
        src = g["source"].to_numpy()
        cli = g["client_ip"].to_numpy()
        n = len(g)
        nb = np.ones(n, dtype=bool)
        nb[1:] = (src[1:] != src[:-1]) | (cli[1:] != cli[:-1])
        seg = np.cumsum(nb) - 1
        starts = np.flatnonzero(nb)
        bad = (g["malicious"].to_numpy() != 0).astype(np.int64)
        cs = np.cumsum(bad)
        idx = np.arange(n)
        j = np.maximum(idx - 49, starts[seg])  # window = last 50 rows in segment
        prev = np.where(j >= 1, cs[np.maximum(j - 1, 0)], 0)
        rolling = cs - prev
        nseg = int(seg[-1]) + 1 if n else 0
        max_in = np.zeros(nseg, dtype=np.int64)
        np.maximum.at(max_in, seg, rolling)
        return pd.DataFrame({
            "source": src[starts],
            "client_ip": cli[starts],
            "n_requests": np.bincount(seg).astype(np.int64),
            "max_malicious_in_window": max_in,
            "flagged": (max_in >= 3).astype(np.int64),
        })

    return rd.from_arrow_refs(X.part_exchange(
        _enriched(sf_dir), parsed, client_key, offenders_part, out_schema))


def q_log_counter_deltas(sf_dir: str):
    """K1-deltas: the counter report's per-interval view (counter.go
    53-56 CurrentValue/PreviousValue, 255-284 startNewWindow) in
    event-time: per (source, dimension, key_value, time_window) the
    in-window count (== current-previous of the cumulative counter) and
    the running cumulative. Distributed melt + partial agg + keyed
    combine; the running sum runs over the (bounded, aggregate-sized)
    counter table on the driver — same contract as the top-N report."""
    import numpy as np

    from ..stages.metrics import const_str

    enr = _enriched(sf_dir)
    dims = (("status_codes", "status"), ("methods", "method"),
            ("clients", "client_ip"))

    def melt(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("parse_ok"))
        n = t.num_rows
        pieces = []
        if n:
            ones = pa.array(np.ones(n, dtype=np.int64))
            for dim, col in dims:
                pieces.append(pa.table({
                    "source": t.column("source").combine_chunks(),
                    "dimension": const_str(n, dim),
                    "key_value": t.column(col).combine_chunks(),
                    "time_window": t.column("time_window").combine_chunks(),
                    "cnt": ones,
                }))
        if not pieces:
            return schema.empty_table()
        return X._combine_partials(keys, "cnt", pieces)

    keys = ["source", "dimension", "key_value", "time_window"]
    schema = pa.schema([
        ("source", pa.string()), ("dimension", pa.string()),
        ("key_value", pa.string()), ("time_window", pa.int64()),
        ("cnt", pa.int64()),
    ])
    df = X.merge(enr, melt, keys, schema).to_pandas().sort_values(keys)
    df["cumulative"] = df.groupby(
        ["source", "dimension", "key_value"])["cnt"].cumsum().astype("int64")
    return pa.Table.from_pandas(df.reset_index(drop=True), preserve_index=False)


def _auto_job() -> JobConfig:
    """No format map at all — every source sniffs its format from its
    first parseable line (S-auto, main.go:728-748)."""
    from ..config import SourceConfig

    return JobConfig(default=SourceConfig(log_format="auto"))


def q_log_parse_stats_auto(sf_dir: str):
    """Format auto-detection mode on mixed-format input (the 12 synth
    sources cycle through all 5 formats) with NO explicit format config;
    gated by the same independent SQL as log_parse_stats — detection must
    reproduce the explicit-config parse outcome per line."""
    return _parse_stats_from(
        logpipe.enriched_dataset(_input_paths(sf_dir), _auto_job())
    )


def q_log_metrics_basic_auto(sf_dir: str):
    """Auto-detected formats must yield identical parsed FIELDS, not just
    parse counts: the windowed basic metrics under auto detection, gated
    by the same independent SQL as log_metrics_basic."""
    return _metrics_basic_from(
        logpipe.enriched_dataset(_input_paths(sf_dir), _auto_job())
    )


def log_queries() -> dict:
    return {
        "log_metrics": q_log_metrics,
        "log_metrics_compat": q_log_metrics_compat,
        "log_metrics_basic": q_log_metrics_basic,
        "log_keyed_counters": q_log_keyed_counters,
        "log_global_counters": q_log_global_counters,
        "log_routed": q_log_routed,
        "log_routed_masked": q_log_routed_masked,
        "log_top_paths": q_log_top_paths,
        "log_top_paths_cms": q_log_top_paths_cms,
        "log_parse_stats": q_log_parse_stats,
        "log_parse_stats_auto": q_log_parse_stats_auto,
        "log_metrics_basic_auto": q_log_metrics_basic_auto,
        "log_counter_deltas": q_log_counter_deltas,
        "log_repeat_offenders": q_log_repeat_offenders,
        "log_geo_counts": q_log_geo_counts,
        "log_status_class_counts": q_log_status_class_counts,
        "log_rate_zscore": q_log_rate_zscore,
        "log_bytes_quantiles": q_log_bytes_quantiles,
        "log_bytes_quantiles_kll": q_log_bytes_quantiles_kll,
        "log_distinct_clients": q_log_distinct_clients,
        "log_distinct_clients_hll": q_log_distinct_clients_hll,
        "log_token_histogram": q_log_token_histogram,
        "log_token_bigrams": q_log_token_bigrams,
        "log_seq_dedup": q_log_seq_dedup,
        "log_seq_dedup_minhash": q_log_seq_dedup_minhash,
        "log_ngram_novelty": q_log_ngram_novelty,
        "log_dup_cluster_sizes": q_log_dup_cluster_sizes,
        "log_token_positional_stats": q_log_token_positional_stats,
        "log_cross_source_leakage": q_log_cross_source_leakage,
        "log_seq_dominant_ratio": q_log_seq_dominant_ratio,
        "log_token_burstiness": q_log_token_burstiness,
        "log_token_run_lengths": q_log_token_run_lengths,
        "log_seq_len_percentiles": q_log_seq_len_percentiles,
        "log_source_minhash_sim": q_log_source_minhash_sim,
        "log_seq_internal_repeats": q_log_seq_internal_repeats,
        "log_dup_gap_histogram": q_log_dup_gap_histogram,
        "log_decontaminate_eval": q_log_decontaminate_eval,
        "log_token_zipf": q_log_token_zipf,
        "log_token_pmi": q_log_token_pmi,
        "log_pack_doc_mix": q_log_pack_doc_mix,
        "log_pack_source_purity": q_log_pack_source_purity,
        "log_pack_tokens_curated": q_log_pack_tokens_curated,
        "log_pack_tokens": q_log_pack_tokens,
        "log_pack_tokens_sep": q_log_pack_tokens_sep,
        "log_seq_dedup_prefix": q_log_seq_dedup_prefix,
        "log_source_drift": q_log_source_drift,
        "log_pack_tokens_by_source": q_log_pack_tokens_by_source,
        "log_sessionize": q_log_sessionize,
        "log_source_ce": q_log_source_ce,
        "log_ip_entropy": q_log_ip_entropy,
        "log_token_entropy": q_log_token_entropy,
        "log_oov_rate": q_log_oov_rate,
        "log_seq_len_buckets": q_log_seq_len_buckets,
        "log_token_ngram_dedup": q_log_token_ngram_dedup,
        "log_pack_tokens_dedup": q_log_pack_tokens_dedup,
        "log_source_token_tfidf": q_log_source_token_tfidf,
    }


def log_oracle_sql(sf_dir: str = SF_CORRECTNESS) -> dict:
    """Materializes the input shards and line view for ``sf_dir``, then
    returns the SQL map (driver default: the sf0.01 correctness scale)."""
    cache = synth.ensure_line_view(sf_dir)
    return {
        # independent SQL implementations
        "log_metrics_basic": sql_metrics_basic(cache),
        "log_parse_stats": sql_parse_stats(cache),
        # auto-detection must reproduce the explicit-config results, so
        # the SAME independent SQL gates the auto-mode queries
        "log_parse_stats_auto": sql_parse_stats(cache),
        "log_metrics_basic_auto": sql_metrics_basic(cache),
        "log_counter_deltas": sql_counter_deltas(cache),
        "log_geo_counts": sql_geo_counts(cache),
        "log_status_class_counts": sql_status_class_counts(cache),
        "log_rate_zscore": sql_rate_zscore(cache),
        "log_bytes_quantiles": sql_bytes_quantiles(cache),
        "log_distinct_clients": sql_distinct_clients(cache),
        # moved to independent SQL in r3 (Go net/url + malicious
        # classifier re-implemented in pure SQL, see _sql_url_ctes)
        "log_top_paths": sql_top_paths(cache),
        "log_repeat_offenders": sql_repeat_offenders(cache),
        # moved to independent SQL in r3: the full enrichment chain
        # (Go-URL + UA tree + referer + robots override + 100-byte
        # truncation) is re-implemented in pure SQL (_sql_enriched_cte);
        # compat shares sql_metrics because chronological input makes
        # the faithful-streaming totals equal the exact sums
        "log_metrics": sql_metrics(cache),
        "log_metrics_compat": sql_metrics(cache),
        "log_keyed_counters": sql_keyed_counters(cache),
        "log_global_counters": sql_global_counters(cache),
        # r3: the routed sink pair too — every log-query oracle is now
        # independent SQL (the Python oracle is a pytest cross-check)
        "log_routed": sql_routed(cache),
        "log_routed_masked": sql_routed(cache, masked=True),
        # token-native operators gate directly against the raw shards
        # (unnest / list equality in DuckDB — fully independent SQL)
        "log_token_histogram": sql_token_histogram(cache),
        "log_token_bigrams": sql_token_bigrams(cache),
        "log_seq_dedup": sql_seq_dedup(cache),
        "log_seq_dedup_minhash": sql_seq_dedup_minhash(cache),
        "log_ngram_novelty": sql_ngram_novelty(cache),
        "log_dup_cluster_sizes": sql_dup_cluster_sizes(cache),
        "log_token_positional_stats": sql_token_positional_stats(cache),
        "log_cross_source_leakage": sql_cross_source_leakage(cache),
        "log_seq_dominant_ratio": sql_seq_dominant_ratio(cache),
        "log_token_burstiness": sql_token_burstiness(cache),
        "log_token_run_lengths": sql_token_run_lengths(cache),
        "log_seq_len_percentiles": sql_seq_len_percentiles(cache),
        "log_source_minhash_sim": sql_source_minhash_sim(cache),
        "log_seq_internal_repeats": sql_seq_internal_repeats(cache),
        "log_dup_gap_histogram": sql_dup_gap_histogram(cache),
        "log_decontaminate_eval": sql_decontaminate_eval(cache),
        "log_token_zipf": sql_token_zipf(cache),
        "log_token_pmi": sql_token_pmi(cache),
        "log_pack_doc_mix": sql_pack_doc_mix(cache),
        "log_pack_source_purity": sql_pack_source_purity(cache),
        "log_pack_tokens_curated": sql_pack_tokens_curated(cache),
        "log_pack_tokens": sql_pack_tokens(cache),
        "log_pack_tokens_sep": sql_pack_tokens_sep(cache),
        "log_seq_dedup_prefix": sql_seq_dedup_prefix(cache),
        "log_source_drift": sql_source_drift(cache),
        "log_pack_tokens_by_source": sql_pack_tokens_by_source(cache),
        "log_sessionize": sql_log_sessionize(cache),
        "log_source_ce": sql_source_ce(cache),
        "log_ip_entropy": sql_ip_entropy(cache),
        "log_token_entropy": sql_token_entropy(cache),
        "log_oov_rate": sql_oov_rate(cache),
        "log_seq_len_buckets": sql_seq_len_buckets(cache),
        "log_token_ngram_dedup": sql_token_ngram_dedup(cache),
        "log_pack_tokens_dedup": sql_pack_tokens_dedup(cache),
        "log_source_token_tfidf": sql_source_token_tfidf(cache),
    }
