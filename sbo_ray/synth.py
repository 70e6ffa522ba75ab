"""Deterministic synthesizer for the input table.

Per BASELINE.json ``input_hint`` the engine's input is a Parquet table of
pre-tokenized log lines: ``(doc_id:string, tokens:list<int32>,
n_tok:int32, source:string)``. The reference consumes raw log files
(``main.go:801-924``); our ``source`` column plays the file-path role
(``main.go:83-96``). This module renders valid Apache/Nginx lines for the
five reference formats (``logparsers/httpservers.go:169-318``), tokenizes
them with the byte codec and writes sharded Parquet.

Determinism: a single ``random.Random(seed)`` drives everything; the same
(n_rows, seed, n_sources) always produces byte-identical tables. The
``source`` distribution is Zipf-skewed so one source is hot (exercises
the skew handling the north rule demands). Timestamps are chronological
per source by default (the reference assumes chronological logs,
``main.go:1046-1050``); ``ooo_frac`` injects bounded out-of-order rows for
eviction tests.
"""

from __future__ import annotations

import os
import random
from datetime import datetime, timedelta, timezone

import pyarrow as pa
import pyarrow.parquet as pq

from .codec import encode_lines
from .functions import loglines as L

SEED_DEFAULT = 20250817
N_SOURCES = 12

# UA pool: the reference's own test corpus (useragent_test.go) + extras.
UA_POOL = [
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/136.0.0.0 Safari/537.36",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/91.0.4472.124 Safari/537.36 Edg/91.0.864.59",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/18.3.1 Safari/605.1.15",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.15; rv:138.0) Gecko/20100101 Firefox/138.0",
    "Mozilla/5.0 (iPhone; CPU iPhone OS 17_7_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/18.4 Mobile/15E148 Safari/604.1",
    "Mozilla/5.0 (iPhone; CPU iPhone OS 17_7_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) CriOS/137.0.7151.51 Mobile/15E148 Safari/604.1",
    "Mozilla/5.0 (Linux; Android 15) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/136.0.7103.127 Mobile Safari/537.36",
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Mozilla/5.0 (compatible; AhrefsBot/7.0; +http://ahrefs.com/robot/)",
    "Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko); compatible; GPTBot/1.1; +https://openai.com/gptbot",
    "Bytespider",
    "facebookexternalhit/1.1 (+http://www.facebook.com/externalhit_uatext.php)",
    "facebook/1.1",
    "meta-externalagent/1.1 (+https://developers.facebook.com/docs/sharing/webmasters/crawler)",
    "Mozilla/5.0 zgrab/0.x",
    "curl/8.5.0",
    "python-requests/2.31.0",
    "Dalvik/2.1.0 (Linux; U; Android 9.0; ZTE BA520 Build/MRA58K)",
    "Mozilla/5.0 (compatible; BLEXBot/1.0; +http://webmeup-crawler.com/)",
    "Mozilla/5.0 (compatible; BLEXBot/1.0) Chrome/99.0",
    "Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko; compatible; Amazonbot/0.1; +https://developer.amazon.com/support/amazonbot) Chrome/119.0.6045.214 Safari/537.36",
]

REFERER_POOL = [
    "-", "-", "-", "-",  # most requests carry no referer
    "https://www.google.com/",
    "https://example.com/somepage",
    "http://casualgames.dev/page",
    "https://news.ycombinator.com/item?id=1",
    "https://www.bing.com/search?q=x",
]

SEGMENTS = ["api", "img", "css", "js", "blog", "shop", "v1", "v2", "users",
            "items", "static", "index.html", "about", "p1", "p2", "p3"]

SPECIAL_URIS = [
    "/a/../etc/passwd",            # traversal
    "/download?file=a%00.txt",     # null byte -> traversal
    "/search?q=<script>alert(1)",  # xss
    "/q?id='1 insert into x",      # sqli
    "badrequest",                  # ParseRequestURI error -> INVALID
    "/bad%zzescape",               # invalid escape -> INVALID
    "/robots.txt",                 # robots override
    "/?a=b&utm_source=justexample",
    "/x?apx=upx&AAAutm_source=google",       # utm anchor non-match
    "/x?apx=upx&utm_source=google&otherparam=1",
]

METHODS = ["GET"] * 8 + ["POST", "HEAD"]
PROTOCOLS = ["HTTP/1.1"] * 7 + ["HTTP/1.0", "HTTP/2.0"]
STATUSES = ["200"] * 14 + ["301", "304", "404", "404", "403", "500", "502", "204", "206"]

SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
])


def source_format(source_index: int) -> str:
    """Per-source log format (config-driven, not sniffed — SURVEY.md §2.2)."""
    return L.FORMATS[source_index % len(L.FORMATS)]


def make_source_names(n_sources: int) -> list[str]:
    return [f"web-{i:02d}" for i in range(n_sources)]


def source_config(n_sources: int) -> dict[str, str]:
    names = make_source_names(n_sources)
    return {name: source_format(i) for i, name in enumerate(names)}


def _zipf_weights(n: int, s: float = 1.1) -> list[float]:
    w = [1.0 / (i + 1) ** s for i in range(n)]
    total = sum(w)
    return [x / total for x in w]


def synth_lines(
    n_rows: int,
    seed: int = SEED_DEFAULT,
    n_sources: int = 12,
    ooo_frac: float = 0.0,
    special_frac: float = 0.05,
    unique_paths: bool = False,
) -> tuple[list[str], list[str], list[str]]:
    """Generate (doc_ids, lines, sources), deterministic in all args."""
    rng = random.Random(seed)
    names = make_source_names(n_sources)
    weights = _zipf_weights(n_sources)
    fmts = {name: source_format(i) for i, name in enumerate(names)}

    # per-source clocks: distinct base time + zone offset per source.
    # The log SPAN is fixed (~7 days) regardless of n_rows — real logs
    # get denser with more traffic, they don't stretch over more time —
    # so aggregate-key cardinality (windows x keys) stays bounded as data
    # grows instead of scaling with row count.
    span_sec = 7 * 86400
    base = datetime(2025, 7, 2, 10, 0, 0, tzinfo=timezone.utc)
    clocks = {name: base + timedelta(minutes=7 * i) for i, name in enumerate(names)}
    mean_step = {
        name: span_sec / max(1.0, n_rows * weights[i])
        for i, name in enumerate(names)
    }
    zones = {name: [ "+0000", "-0700", "+0200", "+0530"][i % 4] for i, name in enumerate(names)}

    ip_pool = [f"192.0.2.{i}" for i in range(1, 40)] + [f"198.51.100.{i}" for i in range(1, 15)]
    users = ["-"] * 9 + ["frank", "alice"]

    # Zipf-ish URL space: a finite popular-path pool with an exponential
    # popularity profile (real access logs concentrate on few URLs), plus
    # query-string variants; the uncapped random tail lives in SPECIAL_URIS
    # and the ?page= variants.
    path_pool = []
    for _ in range(400):
        depth = rng.randint(0, 5)
        path_pool.append(
            "/" + "/".join(rng.choice(SEGMENTS) for _ in range(depth)) if depth else "/"
        )

    doc_ids: list[str] = []
    lines: list[str] = []
    sources: list[str] = []
    src_choices = rng.choices(names, weights=weights, k=n_rows)
    for i, src in enumerate(src_choices):
        fmt = fmts[src]
        clocks[src] += timedelta(seconds=rng.expovariate(1.0 / mean_step[src]))
        ts = clocks[src]
        if ooo_frac > 0 and rng.random() < ooo_frac:
            ts = ts - timedelta(minutes=rng.randint(5, 90))
        zone = zones[src]
        # format the *local* clock for that zone so windows use local fields
        sign = 1 if zone[0] == "+" else -1
        zdelta = timedelta(hours=int(zone[1:3]), minutes=int(zone[3:5])) * sign
        local = ts.astimezone(timezone(zdelta))
        ts_str = local.strftime("%d/%b/%Y:%H:%M:%S ") + zone

        ip = rng.choice(ip_pool) if rng.random() < 0.9 else \
            f"203.0.113.{rng.randint(1, 254)}"
        user = rng.choice(users)
        method = rng.choice(METHODS)
        if rng.random() < special_frac:
            uri = rng.choice(SPECIAL_URIS)
        elif unique_paths:
            # adversarial high-cardinality variant: every row a distinct
            # URL, so PATH metrics / paths counters get ~row-count keys
            # and per-block partial aggregation cannot shrink anything
            uri = f"/u/{i:012d}"
        else:
            uri = path_pool[min(int(rng.expovariate(0.03)), len(path_pool) - 1)]
            if rng.random() < 0.15:
                uri += f"?page={rng.randint(1, 9)}"
        protocol = rng.choice(PROTOCOLS)
        status = rng.choice(STATUSES)
        nbytes = rng.randint(0, 200_000)
        referer = rng.choice(REFERER_POOL)
        ua = rng.choice(UA_POOL)

        req = f'"{method} {uri} {protocol}" {status} {nbytes}'
        if fmt == L.FORMAT_APACHE_COMMON:
            line = f"{ip} - {user} [{ts_str}] {req}"
        elif fmt == L.FORMAT_APACHE_COMBINED:
            line = f'{ip} - {user} [{ts_str}] {req} "{referer}" "{ua}"'
        elif fmt == L.FORMAT_APACHE_VHOST_COMBINED:
            line = f'{src}.example.com:443 {ip} - {user} [{ts_str}] {req} "{referer}" "{ua}"'
        elif fmt == L.FORMAT_NGINX_COMBINED:
            line = f'{ip} - {user} [{ts_str}] {req} "{referer}" "{ua}"'
        else:  # nginx_custom
            rt = f"{rng.randint(0, 2)}.{rng.randint(0, 999):03d}"
            line = f'{ip} - {user} [{ts_str}] {req} "{referer}" "{ua}" {rt} {rt}'
        # a small share of unparseable garbage lines (error counting path)
        if rng.random() < 0.01:
            line = "### corrupted " + line[: rng.randint(0, 20)]
        doc_ids.append(f"{src}-{i:012d}")
        lines.append(line)
        sources.append(src)
    return doc_ids, lines, sources


def build_table(doc_ids: list[str], lines: list[str], sources: list[str]) -> pa.Table:
    tokens = encode_lines(lines)
    n_tok = pa.array((len(s.encode()) for s in lines), type=pa.int32())
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.string()),
            "tokens": tokens,
            "n_tok": n_tok,
            "source": pa.array(sources, type=pa.string()),
        },
        schema=SCHEMA,
    )


def write_sharded(table: pa.Table, out_dir: str, n_shards: int = 8,
                  row_group_size: int = 65536) -> list[str]:
    """Write the input table as multiple Parquet shards (the 100 TB layout
    in miniature: many independently readable fragments)."""
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    paths = []
    per = (n + n_shards - 1) // n_shards
    for k in range(n_shards):
        chunk = table.slice(k * per, per)
        if chunk.num_rows == 0:
            break
        path = os.path.join(out_dir, f"shard-{k:05d}.parquet")
        pq.write_table(chunk, path, row_group_size=row_group_size)
        paths.append(path)
    return paths


def _sf_rows(sf_dir: str) -> int:
    """Scale the synthetic log table to the testdata sf (lineitem rowcount)."""
    li = os.path.join(sf_dir, "lineitem.parquet")
    if os.path.exists(li):
        return pq.ParquetFile(li).metadata.num_rows
    return 6000


def ensure_input(sf_dir: str, seed: int = SEED_DEFAULT,
                 n_sources: int = N_SOURCES,
                 cache_root: str = "/tmp/sbo_synth") -> str:
    """Idempotently materialize the synthetic input table for a testdata
    scale dir; returns the directory of Parquet shards."""
    return ensure_rows(_sf_rows(sf_dir), seed=seed, n_sources=n_sources,
                       cache_root=cache_root)


def rows_dir(n_rows: int, seed: int = SEED_DEFAULT, n_sources: int = 12,
             cache_root: str = "/tmp/sbo_synth",
             unique_paths: bool = False) -> str:
    """The cache directory ``ensure_rows`` fills for these arguments (a
    ``_SUCCESS`` file marks it complete): the one spelling of the cache
    key and its version tag, which a change to the synthesizer's output
    bumps."""
    tag = "v5hc" if unique_paths else "v5"
    return os.path.join(cache_root, f"{tag}_n{n_rows}_s{seed}_k{n_sources}")


def ensure_rows(n_rows: int, seed: int = SEED_DEFAULT, n_sources: int = 12,
                cache_root: str = "/tmp/sbo_synth",
                unique_paths: bool = False) -> str:
    """Idempotently materialize a synthetic input table of n_rows.
    ``unique_paths=True`` is the adversarial high-key-cardinality variant
    (own cache key)."""
    out = rows_dir(n_rows, seed, n_sources, cache_root, unique_paths)
    marker = os.path.join(out, "_SUCCESS")
    if os.path.exists(marker):
        return out
    doc_ids, lines, sources = synth_lines(n_rows, seed=seed, n_sources=n_sources,
                                          unique_paths=unique_paths)
    table = build_table(doc_ids, lines, sources)
    n_shards = max(8, min(64, n_rows // 50_000 + 8))
    import shutil

    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    write_sharded(table, tmp, n_shards=n_shards)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    shutil.rmtree(out, ignore_errors=True)  # stale partial dir
    os.replace(tmp, out)
    return out


def ensure_line_view(sf_dir: str) -> str:
    """``ensure_input`` plus ``lines.parquet`` next to the shards: the
    synthesizer's own ``(doc_id, line, source)`` rows, not a decode of
    the shards, so the SQL gates that parse it check the codec too.
    Idempotent and written atomically; returns the cache dir."""
    cache = ensure_input(sf_dir)
    path = os.path.join(cache, "lines.parquet")
    if os.path.exists(path):
        return cache
    doc_ids, lines, sources = synth_lines(_sf_rows(sf_dir), seed=SEED_DEFAULT,
                                          n_sources=N_SOURCES)
    tmp = f"{path}.{os.getpid()}.tmp"
    pq.write_table(pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "line": pa.array(lines, type=pa.string()),
        "source": pa.array(sources, type=pa.string()),
    }), tmp)
    os.replace(tmp, path)
    return cache
