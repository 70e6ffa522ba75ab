"""Pure-Python row-at-a-time oracle for the full reference pipeline.

Independently re-implements the *aggregation layer* of the reference —
the metric fan-out rules
(``handlers/metricgenerator.go:86-126``), the global/keyed counters
(``handlers/counter.go:137-229``), top-N (``counter.go:286-324``) and the
raw-log routing filter + projection (``main.go:768-779``,
``db/mysqldb.go:161-238``) — so the Ray engine's vectorized results can
be checked against a second implementation. Scalar per-line semantics
(parse/UA/referer/path) and the bounded-window metric accumulator
(``metrics/SBOMetrics.go:102-210``, which compat mode replays) are
shared with the engine via ``sbo_ray.functions`` and are pinned
separately by golden tests.

Test-only: pytest equality tests and perfbench's reference tables run
it; no engine module imports it.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import timezone

from ..functions import loglines as L
from ..functions.sbometrics import (
    METRIC_BYTES_SENT,
    METRIC_DEVICE_TYPE,
    METRIC_HTTP_STATUS,
    METRIC_IS_HUMAN,
    METRIC_METHOD,
    METRIC_OS_FAMILY,
    METRIC_PATH,
    METRIC_REFERER,
    METRIC_REQ_COUNT,
    METRIC_REQUEST_INTENT,
    METRIC_UA_FAMILY,
    SBOMetricsManager,
)

_UTC = timezone.utc


def metric_fanout(row: L.ParsedLine) -> list[tuple[int, str, int]]:
    """HandleEntry fan-out (metricgenerator.go:86-126): one parsed row ->
    up to 12 (metric_type, key_value, value) emissions. Keys are
    truncated to 100 bytes like the sbo_metrics sink
    (ReduceToMaxColumnLen, db/mysqldb.go:152)."""
    out = [
        (METRIC_REQ_COUNT, "", 1),
        (METRIC_BYTES_SENT, "", row.bytes_sent),
        (METRIC_HTTP_STATUS, row.status, 1),
        (METRIC_METHOD, row.method, 1),
    ]
    if row.referer:
        out.append((METRIC_REFERER, row.referer, 1))
    if row.status.startswith("2"):
        out.append((METRIC_PATH, row.path1, 1))
        if row.path2:
            out.append((METRIC_PATH, row.path2, 1))
        if row.path3:
            out.append((METRIC_PATH, row.path3, 1))
    ua = row.ua
    out.extend([
        (METRIC_UA_FAMILY, ua.family, 1),
        (METRIC_OS_FAMILY, ua.os, 1),
        (METRIC_DEVICE_TYPE, ua.device_type, 1),
        (METRIC_IS_HUMAN, ua.human, 1),
        (METRIC_REQUEST_INTENT, ua.intent, 1),
    ])
    return [(mt, L.reduce_to_max_len(k, 100), v) for mt, k, v in out]


def is_relevant(row: L.ParsedLine) -> bool:
    """SaveLogsToDbOnlyRelevant gate (main.go:768-779): keep only clean
    2xx/5xx traffic from non-script agents."""
    return (
        row.malicious == L.MALICIOUS_UNKNOWN
        and (row.status.startswith("2") or row.status.startswith("5"))
        and row.ua.device_type != "Script"
        and row.ua.family not in ("Scanner", "SEOBot", "Script")
    )


def routed_projection(row: L.ParsedLine, doc_id: str, source: str,
                      mask_ips: bool = False) -> dict:
    """SaveRawLog column projection (db/mysqldb.go:161-222): truncation,
    path3->path2->path1 fallback, IP masking (null + keep-last-part UA)."""
    path_up_to_3 = row.path3 or row.path2 or row.path1
    ua = row.ua
    return {
        "source": source,
        "doc_id": doc_id,
        "request_ts": None if row.ts == L.GO_ZERO_TIME
        else row.ts.astimezone(_UTC).replace(tzinfo=None),
        "client_ip": None if mask_ips else row.client_ip,
        "remote_user": L.reduce_to_max_len(row.remote_user, 100),
        "http_method": L.reduce_to_max_len(row.method, 20),
        "path3": L.reduce_to_max_len(path_up_to_3, 100),
        "request_uri": L.reduce_to_max_len(row.path, 100),
        "http_status": row.status,
        "bytes_sent": row.bytes_sent,
        "referer": L.reduce_to_max_len(row.referer, 100),
        "is_malicious": row.malicious,
        "ua_string": (
            L.reduce_to_max_len_keeping_last(ua.full_name, 100)
            if mask_ips else L.reduce_to_max_len(ua.full_name, 100)
        ),
        "ua_os": L.reduce_to_max_len(ua.os, 20),
        "ua_family": L.reduce_to_max_len(ua.family, 20),
        "ua_device_type": L.reduce_to_max_len(ua.device_type, 20),
        "ua_is_human": L.reduce_to_max_len(ua.human, 20),
        "ua_intent": L.reduce_to_max_len(ua.intent, 20),
    }


class OracleResult:
    def __init__(self) -> None:
        self.metrics: list[tuple[str, int, str, int, int]] = []
        self.counters: dict[str, int] = {}
        self.keyed_counters: dict[str, dict[str, int]] = {}
        self.routed: list[dict] = []
        self.parse_errors = 0
        self.dropped_late = 0


def run_oracle(
    doc_ids: list[str],
    lines: list[str],
    sources: list[str],
    source_formats: dict[str, str],
    window_minutes: int = 10,
    metrics_window_size: int = 3,
    relevant_only: bool = True,
    mask_ips: bool = False,
    exact_totals: bool = False,
) -> OracleResult:
    """End-to-end oracle: parse -> enrich -> metric accumulate -> flush,
    counters, routed rows.

    ``exact_totals=True`` bypasses the bounded-window eviction and sums
    every (type,key,window) exactly — the order-insensitive batch answer;
    with chronological input both modes coincide (asserted in tests).
    """
    res = OracleResult()
    mgr = SBOMetricsManager(metrics_window_size)
    exact: dict[tuple[str, int, str, int], int] = defaultdict(int)
    emitted: list[tuple[str, int, str, int, int]] = []

    totals = defaultdict(int)
    # keyed per (source, key): one CounterHandler per monitored file in the
    # reference (main.go:692-694)
    keyed: dict[str, dict[tuple[str, str], int]] = {
        k: defaultdict(int)
        for k in ("clients", "status_codes", "methods", "ua_families",
                  "os_families", "device_types", "referers", "paths", "intents")
    }

    for doc_id, line, source in zip(doc_ids, lines, sources):
        if len(line) < 1:  # empty-line skip (main.go:721-723)
            res.parse_errors += 1
            continue
        row = L.parse_line(line, source_formats[source])
        if not row.ok:
            res.parse_errors += 1
            continue

        tw = L.calculate_time_window(row.ts, window_minutes)
        for mtype, key, value in metric_fanout(row):
            if exact_totals:
                exact[(source, mtype, key, tw)] += value
            else:
                ev = mgr.add(source, mtype, key, tw, value)
                if ev is not None:
                    emitted.append((source, mtype, key, ev[0], ev[1]))

        # counters (counter.go:137-229)
        totals["handled"] += 1
        totals["requests"] += 1
        totals["bytes_sent"] += row.bytes_sent
        if row.ua.human == "Human":
            totals["humans"] += 1
        if row.ua.human == "NonHuman":
            totals["non_humans"] += 1
        if row.malicious != L.MALICIOUS_UNKNOWN:
            totals["malicious"] += 1
        keyed["clients"][(source, row.client_ip)] += 1
        keyed["status_codes"][(source, row.status)] += 1
        keyed["methods"][(source, row.method)] += 1
        keyed["ua_families"][(source, row.ua.family)] += 1
        keyed["os_families"][(source, row.ua.os)] += 1
        keyed["device_types"][(source, row.ua.device_type)] += 1
        keyed["referers"][(source, row.referer)] += 1
        keyed["paths"][(source, row.path)] += 1  # full Path (counter.go:222-226)
        keyed["intents"][(source, row.ua.intent)] += 1

        if (not relevant_only) or is_relevant(row):
            res.routed.append(routed_projection(row, doc_id, source, mask_ips))

    if exact_totals:
        res.metrics = [
            (s, t, k, tw, v) for (s, t, k, tw), v in sorted(exact.items())
        ]
    else:
        res.metrics = sorted(emitted + list(mgr.flush()))
        res.dropped_late = mgr.dropped_late
    res.counters = dict(totals)
    res.keyed_counters = {k: dict(v) for k, v in keyed.items()}
    return res


def top_n(counts: dict[str, int], n: int) -> dict[str, int]:
    """Exact top-N with deterministic (count desc, key asc) tie-break —
    the engine's contract; the reference's map-iteration tie order is
    nondeterministic (counter.go:305-321), documented divergence."""
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return dict(items)
