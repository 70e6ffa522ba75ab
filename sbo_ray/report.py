"""Counter report rendering — the reference's stdout COUNTER profile
output (handlers/counter.go:326-445): global totals followed by each
keyed dimension sorted descending and top-N-limited, fixed width.

Batch semantics: one report per run (the reference's interval deltas are
a follow-mode display artifact; SURVEY.md §2.6 A4/ST3)."""

from __future__ import annotations

DIMENSION_TITLES = [
    ("status_codes", "Status codes"),
    ("methods", "Methods"),
    ("clients", "Clients"),
    ("ua_families", "User agents"),
    ("os_families", "Operating systems"),
    ("device_types", "Device types"),
    ("intents", "Request intents"),
    ("referers", "Referers"),
    ("paths", "Requested paths"),
]

# dimensions the reference shrinks to top-N at print time (counter.go:382-388)
TOP_N_LIMITED = {"clients", "referers", "paths"}


def render_counter_report(global_counters: dict[str, int],
                          keyed: dict[str, dict[str, int]],
                          top_n_size: int = 10) -> str:
    g = global_counters
    out = [
        f"Total log lines   : {g.get('handled', g.get('requests', 0))}",
        f"Total requests    : {g.get('requests', 0)}",
        f"Total bytes sent  : {g.get('bytes_sent', 0)}",
        f"Requests from humans     : {g.get('humans', 0)}",
        f"Requests from non-humans : {g.get('non_humans', 0)}",
        f"Malicious requests       : {g.get('malicious', 0)}",
        f"Parse errors             : {g.get('parse_errors', 0)}",
    ]
    for dim, title in DIMENSION_TITLES:
        # deterministic (count desc, key asc) order and top-N tie-break;
        # the reference's map-iteration tie order is nondeterministic
        # (counter.go:305-321), documented divergence
        items = sorted(keyed.get(dim, {}).items(),
                       key=lambda kv: (-kv[1], kv[0]))
        if dim in TOP_N_LIMITED:
            items = items[:top_n_size]
        out.append(f"{title}:")
        for key, cnt in items:
            shown = key if key else "(empty)"
            out.append(f"  {shown:<40.40} : {cnt}")
    return "\n".join(out) + "\n"


def metrics_json_dump(metrics_table, source: str | None = None) -> str:
    """K2: the MetricGeneratorHandler debug dump analog
    (metricgenerator.go:79-83, End()): the metric map as indented JSON,
    nested {metric_type: {key_value: {time_window: value}}} per source."""
    import json

    df = metrics_table.to_pandas() if hasattr(metrics_table, "to_pandas") else metrics_table
    if source is not None:
        df = df[df["source"] == source]
    out: dict = {}
    for r in df.itertuples():
        out.setdefault(r.source, {}).setdefault(str(int(r.metric_type)), {}) \
           .setdefault(r.key_value, {})[str(int(r.time_window))] = int(r.metric_value)
    return json.dumps(out, indent=4, sort_keys=True)


def keyed_counters_table_to_dict(table, source: str | None = None
                                 ) -> dict[str, dict[str, int]]:
    """(source, dimension, key_value, cnt) rows -> {dim: {key: cnt}},
    optionally restricted to one source (the reference reports per
    monitored file)."""
    df = table.to_pandas() if hasattr(table, "to_pandas") else table
    if source is not None:
        df = df[df["source"] == source]
    out: dict[str, dict[str, int]] = {}
    for r in df.itertuples():
        out.setdefault(r.dimension, {})
        out[r.dimension][r.key_value] = out[r.dimension].get(r.key_value, 0) + int(r.cnt)
    return out
