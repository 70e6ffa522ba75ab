"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; nothing inside ``sbo_ray/`` is edited.
Three sources feed the per-layer table:

- a serial replay in the driver, shard by shard, through each layer's
  function (read, decode, parse, route, fsio writes, metric fan-out,
  combine kernel);
- the real Ray run of the workload body, with ``ray.get``,
  ``full_pipeline`` and the checkpoint manifest calls wrapped;
- ``ray.timeline()`` task events of that run, folded into exchange
  phases by remote-function name.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

# name -> (unit, better, measured by, end-to-end metric and workload it
# should move). BENCHMARK.json lists the same names; the smoke test keeps
# the two in step.
LAYER_METRICS = {
    "parse.busy_s": ("s", "lower", "replay",
        "rows_per_s, cpu_s_per_mrow on unique_url and checkpointed; none on token_exchange"),
    "codec.decode.busy_s": ("s", "lower", "replay",
        "rows_per_s, cpu_s_per_mrow on unique_url and checkpointed"),
    "parse.uri_cache.miss_ratio": ("ratio", "lower", "replay",
        "~1 on unique_url_flagship, near 0 on checkpointed_run"),
    "parse.ua_cache.miss_ratio": ("ratio", "lower", "replay",
        "rows_per_s on unique_url and checkpointed"),
    "parse.error_rows": ("count", "lower", "replay",
        "fixed by the input (1% garbage lines)"),
    "route.busy_s": ("s", "lower", "replay",
        "rows_per_s on unique_url and checkpointed"),
    "route.rows_out": ("count", "lower", "replay",
        "rows_per_s on unique_url and checkpointed"),
    "metrics.fanout.busy_s": ("s", "lower", "replay",
        "rows_per_s on unique_url and checkpointed"),
    "metrics.fanout.rows_out": ("count", "lower", "replay",
        "rows_per_s on unique_url and checkpointed"),
    "logpipe.combine.busy_s": ("s", "lower", "replay",
        "rows_per_s, driver_peak_rss_mb on unique_url most, checkpointed less"),
    "logpipe.combine.partial_rows": ("count", "lower", "replay",
        "driver_peak_rss_mb on unique_url_flagship"),
    "logpipe.combine.reduction": ("ratio", "lower", "replay",
        "rows_per_s on unique_url_flagship"),
    "logpipe.read.busy_s": ("s", "lower", "replay",
        "the floor of rows_per_s on all workloads"),
    "logpipe.read.bytes": ("bytes", "lower", "replay",
        "the floor of rows_per_s on all workloads"),
    "logpipe.fixed_s": ("s", "lower", "ray",
        "rows_per_s on checkpointed_run (paid once per group)"),
    "lineage.commit.busy_s": ("s", "lower", "ray",
        "rows_per_s on checkpointed_run"),
    "lineage.finalize.busy_s": ("s", "lower", "ray",
        "rows_per_s on checkpointed_run"),
    "lineage.groups": ("count", "lower", "ray",
        "rows_per_s on checkpointed_run"),
    "fsio.write.busy_s": ("s", "lower", "replay",
        "rows_per_s on checkpointed_run"),
    "fsio.write.bytes": ("bytes", "lower", "replay",
        "rows_per_s on checkpointed_run"),
    "fsio.write.files": ("count", "lower", "replay",
        "rows_per_s on checkpointed_run"),
    "exchange.map.task_s": ("s", "lower", "timeline",
        "rows_per_s, cpu_s_per_mrow on token_exchange; elsewhere = the parse map stage"),
    "exchange.shard.task_s": ("s", "lower", "timeline",
        "rows_per_s, cpu_s_per_mrow on token_exchange; none elsewhere"),
    "exchange.combine.task_s": ("s", "lower", "timeline",
        "rows_per_s, cpu_s_per_mrow on token_exchange; none elsewhere"),
    "exchange.task_overhead_s": ("s", "lower", "timeline",
        "cpu_s_per_mrow on token_exchange"),
    "exchange.tasks": ("count", "lower", "timeline",
        "cpu_s_per_mrow on token_exchange"),
    "exchange.partition_skew": ("ratio", "lower", "timeline",
        "rows_per_s on token_exchange"),
    "driver.get_bytes": ("bytes", "lower", "ray",
        "driver_peak_rss_mb on token_exchange and unique_url_flagship"),
    "driver.get_calls": ("count", "lower", "ray",
        "driver_peak_rss_mb on token_exchange and unique_url_flagship"),
    "logpipe.unattributed_cpu_s": ("s", "lower", "ray-replay",
        "cpu_s_per_mrow on checkpointed_run"),
}


class Tracer:
    """In-memory spans: name, start, end (epoch seconds), parent, run id.
    Each thread nests its own spans; spans opened on a thread with no open
    span (Ray Data's executor threads calling ``ray.get``) hang off
    ``root``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        rec = {"run_id": self.run_id, "id": sid, "name": name,
               "parent": stack[-1] if stack else self.root,
               "start": time.time(), "attrs": attrs}
        stack.append(sid)
        try:
            yield rec
        finally:
            stack.pop()
            rec["end"] = time.time()
            with self._lock:
                self.spans.append(rec)

    def add(self, name: str, start: float, end: float, parent: int | None,
            **attrs) -> None:
        """Record a span measured elsewhere (a Ray timeline event)."""
        with self._lock:
            self.spans.append({"run_id": self.run_id, "id": next(self._ids),
                               "name": name, "parent": parent, "start": start,
                               "end": end, "attrs": attrs})

    @contextlib.contextmanager
    def wrap(self, owner, attr: str, name: str, measure=None):
        """Replace ``owner.attr`` with a spanned call for the duration of
        the block; ``measure(result)`` returns attrs to store on the span."""
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name) as rec:
                out = original(*args, **kwargs)
                if measure is not None:
                    rec["attrs"].update(measure(out))
                return out

        setattr(owner, attr, spanned)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: sum of (duration - time covered by children).
        Ray task spans (``remote``) ran in worker processes, in parallel
        with the driver, so they do not reduce their parent's self time."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and not s["attrs"].get("remote"):
                child_s[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child_s[s["id"]]
        return out

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write_jsonl(self, path: str, head: list[dict], tail: list[dict]) -> None:
        with open(path, "w") as f:
            for rec in head + [{"type": "span", **s} for s in self.spans] + tail:
                f.write(json.dumps(rec, default=str) + "\n")


def nbytes(obj) -> int:
    """Bytes of a value fetched by ``ray.get`` (Arrow, NumPy, containers)."""
    import numpy as np

    if isinstance(obj, (pa.Table, pa.RecordBatch, pa.Array, pa.ChunkedArray,
                        np.ndarray)):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(nbytes(x) for x in obj.values())
    return 0


def traced_ray_body(tracer: Tracer, body):
    """Run ``body()`` with ``ray.get``, ``full_pipeline`` and the checkpoint
    manifest calls spanned; returns its result."""
    import ray

    from sbo_ray.pipelines import logpipe
    from sbo_ray.state import lineage

    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.wrap(ray, "get", "driver.get",
                                        lambda out: {"bytes": nbytes(out)}))
        stack.enter_context(tracer.wrap(logpipe, "full_pipeline",
                                        "logpipe.full_pipeline"))
        stack.enter_context(tracer.wrap(lineage.CheckpointManifest, "commit",
                                        "lineage.commit"))
        stack.enter_context(tracer.wrap(lineage.CheckpointedPipeline,
                                        "finalize", "lineage.finalize"))
        return body()


def _phase(name: str) -> str:
    """Exchange phase of a Ray task, by remote-function name."""
    short = name.rsplit(".", 1)[-1]
    if short == "_map_task":
        return "map"
    if "sort_task_spec" in name:  # Ray Data's sort-based groupby exchange
        return "combine" if short == "reduce" else "shard"
    if short.endswith("_shard") or short == "hshard":
        return "shard"
    if short.endswith("_combine") or short == "_merge_partials":
        return "combine"
    return "other"


def fold_timeline(tracer: Tracer, events: list[dict], parent: int,
                  ops: list[tuple]) -> dict:
    """Fold the task events that started during the body (inside one of
    ``ops``' wall-clock windows) into exchange-phase metrics, and record
    each task as a span under ``parent``."""
    def op_of(ts: float):
        for name, t0, t1 in ops:
            if t0 <= ts <= t1:
                return name
        return None

    phase_s: dict[str, float] = defaultdict(float)
    combine_by_op: dict[str, list[float]] = defaultdict(list)
    overhead = 0.0
    tasks = 0
    for e in events:
        if e.get("ph") != "X":
            continue
        start, dur = e["ts"] / 1e6, e.get("dur", 0) / 1e6
        op = op_of(start)
        if op is None:
            continue
        cat = e.get("cat", "")
        if cat in ("task:deserialize_arguments", "task:store_outputs"):
            overhead += dur
        elif cat.startswith("task::"):
            phase = _phase(e.get("name", ""))
            tasks += 1
            phase_s[phase] += dur
            if phase == "combine":
                combine_by_op[op].append(dur)
            tracer.add(f"exchange.{phase}", start, start + dur, parent,
                       task=e.get("name"), op=op, remote=True)
    skews = [max(d) / statistics.median(d) for d in combine_by_op.values()
             if statistics.median(d) > 0]
    return {
        "exchange.map.task_s": phase_s["map"],
        "exchange.shard.task_s": phase_s["shard"],
        "exchange.combine.task_s": phase_s["combine"],
        "exchange.task_overhead_s": overhead,
        "exchange.tasks": tasks,
        # 0 when the body ran no combine task
        "exchange.partition_skew": max(skews, default=0.0),
    }


def replay(tracer: Tracer, workload: str, inputs, out_dir: str) -> dict:
    """Serial, in-driver replay of the workload's layers, shard by shard.

    Flagship workloads combine all shards at once; ``checkpointed_run``
    combines per group of ``GROUP_SIZE`` shards and writes the group's
    partial files as ``CheckpointedPipeline.run_once`` does;
    ``token_exchange`` only reads (its exchange runs as Ray tasks, which
    the timeline covers). Returns the counts measured at each boundary."""
    from sbo_ray import fsio
    from sbo_ray.pipelines import logpipe
    from sbo_ray.stages import parse as P
    from sbo_ray.stages.metrics import (
        GROUP_KEYS, counter_melt, global_counter_partial, metric_fanout)
    from sbo_ray.stages.route import routed_projection

    from workloads import GROUP_SIZE, job

    c: dict[str, float] = defaultdict(float)
    parse_fn = P.make_parse_fn(job())
    # the same warm-up shard the timed jobs' workers saw
    parse_fn(pq.read_table(inputs.warm_paths[0]))

    def write(kind, dir_path, name, table):
        with tracer.span("fsio.write"):
            getattr(fsio, kind)(dir_path, name, table)
        c["fsio.write.bytes"] += os.path.getsize(os.path.join(dir_path, name))
        c["fsio.write.files"] += 1

    group = GROUP_SIZE if workload == "checkpointed_run" else len(inputs.paths)
    with tracer.wrap(P, "decode_tokens", "codec.decode"), \
            tracer.span("replay", workload=workload):
        for g0 in range(0, len(inputs.paths), group):
            gdir = os.path.join(out_dir, f"group-{g0 // group}")
            os.makedirs(os.path.join(gdir, "routed"), exist_ok=True)
            m_parts, c_parts = [], []
            for i, path in enumerate(inputs.paths[g0:g0 + group]):
                with tracer.span("logpipe.read"):
                    batch = pq.read_table(path)
                c["logpipe.read.bytes"] += os.path.getsize(path)
                if workload == "token_exchange":
                    continue
                uri0, ua0 = len(P._CACHES.uri), len(P._CACHES.ua)
                with tracer.span("parse"):
                    enriched = parse_fn(batch)
                c["parse.rows"] += batch.num_rows
                c["parse.uri_misses"] += max(0, len(P._CACHES.uri) - uri0)
                c["parse.ua_misses"] += max(0, len(P._CACHES.ua) - ua0)
                c["parse.error_rows"] += enriched.num_rows - enriched.filter(
                    enriched.column("parse_ok")).num_rows
                with tracer.span("route"):
                    routed = routed_projection(enriched, mask_ips=False,
                                               relevant_only=True)
                c["route.rows_out"] += routed.num_rows
                if routed.num_rows:
                    write("write_fragment", os.path.join(gdir, "routed"),
                          f"part-{i}.parquet", routed)
                with tracer.span("metrics.fanout"):
                    m = metric_fanout(enriched)
                    k = counter_melt(enriched)
                    g = global_counter_partial(enriched)
                c["metrics.fanout.rows_out"] += m.num_rows + k.num_rows + g.num_rows
                m_parts.append(m)
                c_parts.append(k)
            if workload == "token_exchange":
                continue
            c["logpipe.combine.partial_rows"] += sum(
                t.num_rows for t in m_parts + c_parts)
            with tracer.span("logpipe.combine"):
                mt = logpipe._combine_partials(GROUP_KEYS, "metric_value", m_parts)
                ct = logpipe._combine_partials(
                    ["source", "dimension", "key_value"], "cnt", c_parts)
            c["logpipe.combine.rows_out"] += mt.num_rows + ct.num_rows
            write("write_table", gdir, "metrics.parquet", mt)
            if workload == "checkpointed_run":
                write("write_table", gdir, "metrics_partial.parquet", mt)
                write("write_table", gdir, "counters_partial.parquet", ct)
    return c


def layer_metrics(tracer: Tracer, counts: dict, timeline: dict,
                  body_cpu_s: float, fixed_s: float) -> dict[str, float]:
    """Assemble every LAYER_METRICS value from the spans and counts."""
    busy = tracer.self_times()
    rows = counts.get("parse.rows", 0)
    partial = counts.get("logpipe.combine.partial_rows", 0)

    def ratio(num: str, den: float) -> float:
        return counts.get(num, 0) / den if den else 0.0

    gets = tracer.named("driver.get")
    replay_busy = sum(busy[n] for n in ("logpipe.read", "codec.decode", "parse",
                                         "route", "fsio.write", "metrics.fanout",
                                         "logpipe.combine"))
    out = {
        "parse.busy_s": busy["parse"],
        "codec.decode.busy_s": busy["codec.decode"],
        "parse.uri_cache.miss_ratio": ratio("parse.uri_misses", rows),
        "parse.ua_cache.miss_ratio": ratio("parse.ua_misses", rows),
        "parse.error_rows": counts.get("parse.error_rows", 0),
        "route.busy_s": busy["route"],
        "route.rows_out": counts.get("route.rows_out", 0),
        "metrics.fanout.busy_s": busy["metrics.fanout"],
        "metrics.fanout.rows_out": counts.get("metrics.fanout.rows_out", 0),
        "logpipe.combine.busy_s": busy["logpipe.combine"],
        "logpipe.combine.partial_rows": partial,
        "logpipe.combine.reduction": ratio("logpipe.combine.rows_out", partial),
        "logpipe.read.busy_s": busy["logpipe.read"],
        "logpipe.read.bytes": counts.get("logpipe.read.bytes", 0),
        "logpipe.fixed_s": fixed_s,
        "lineage.commit.busy_s": busy["lineage.commit"],
        "lineage.finalize.busy_s": busy["lineage.finalize"],
        "lineage.groups": len(tracer.named("lineage.commit")),
        "fsio.write.busy_s": busy["fsio.write"],
        "fsio.write.bytes": counts.get("fsio.write.bytes", 0),
        "fsio.write.files": counts.get("fsio.write.files", 0),
        **timeline,
        "driver.get_bytes": sum(s["attrs"].get("bytes", 0) for s in gets),
        "driver.get_calls": len(gets),
        "logpipe.unattributed_cpu_s": body_cpu_s - replay_busy,
    }
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError(f"layer metrics out of step: {set(out) ^ set(LAYER_METRICS)}")
    return out


def format_table(values: dict[str, float], workload: str) -> str:
    lines = [f"per-layer metrics, workload {workload}",
             f"{'metric':32} {'value':>14} {'unit':6} {'from':10} should move"]
    for name, (unit, _, source, moves) in LAYER_METRICS.items():
        lines.append(f"{name:32} {values[name]:>14.6g} {unit:6} {source:10} {moves}")
    return "\n".join(lines)
