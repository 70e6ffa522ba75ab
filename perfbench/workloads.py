"""Workload inputs, bodies and output checks.

Each workload is a batch job over a seeded synthetic token table:

- ``unique_url_flagship``: ``logpipe.full_pipeline`` over
  ``unique_paths=True``, where every ordinary URL is distinct (the
  per-unique parse caches miss, the combine carries more partial rows);
- ``token_exchange``: ``q_log_seq_dedup``, ``q_log_pack_tokens`` and
  ``q_log_pack_tokens_dedup`` over the default table (raw-task
  shard->combine exchanges, no parse);
- ``checkpointed_run``: what ``cli run`` does from an empty out dir
  over the default table (Zipf-skewed sources and paths, so the parse
  caches hit): ``CheckpointedPipeline(..., group_size=2)``,
  ``run_all``, ``finalize``, then the three result files.

Outputs are checked against references computed once per (workload,
seed) in a separate process: the pure-Python oracle
(``run_oracle(..., exact_totals=True)``) for the pipeline tables, DuckDB
running the repo's SQL gates for the token ops.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("unique_url_flagship", "token_exchange", "checkpointed_run")
# Input rows per table: ensure_rows writes max(8, rows // 50k + 8) shards,
# so 50k rows are 9 shards and checkpointed_run commits 5 groups. Kept
# small so a run (fresh sessions, reference build, jobs) fits the
# benchmark's time budget; it must stay the same on every commit.
ROWS = 50_000
WARM_ROWS = 8_000
WARM_SEED_XOR = 0x5EED   # the warm-up table's seed differs from the timed one
GROUP_SIZE = 2
N_SOURCES = 12
GLOBAL_COUNTERS = ("handled", "requests", "bytes_sent", "humans", "non_humans",
                   "malicious")
TOKEN_OPS = ("q_log_seq_dedup", "q_log_pack_tokens", "q_log_pack_tokens_dedup")
TOKEN_SQL = {"q_log_seq_dedup": "sql_seq_dedup",
             "q_log_pack_tokens": "sql_pack_tokens",
             "q_log_pack_tokens_dedup": "sql_pack_tokens_dedup"}


def job():
    from sbo_ray import synth
    from sbo_ray.config import JobConfig

    return JobConfig.from_format_map(synth.source_config(N_SOURCES))


@dataclass
class Inputs:
    table_dir: str
    paths: list[str]
    warm_paths: list[str]   # one shard of a table made from another seed
    rows: int
    bytes: int
    seed: int
    unique_paths: bool


def make_inputs(workload: str, seed: int, rows: int, cache_root: str) -> Inputs:
    """Build (or reuse) the seeded input table and the warm-up shard.

    The warm-up table is always the Zipf variant: a unique-URL warm-up
    table would hold the same ``/u/<row>`` URIs as the timed input and
    pre-fill the parse caches with them."""
    from sbo_ray import synth

    unique = workload == "unique_url_flagship"
    table_dir = synth.ensure_rows(rows, seed=seed, n_sources=N_SOURCES,
                                  cache_root=cache_root, unique_paths=unique)
    warm_dir = synth.ensure_rows(WARM_ROWS, seed=seed ^ WARM_SEED_XOR,
                                 n_sources=N_SOURCES, cache_root=cache_root)
    paths = sorted(glob.glob(os.path.join(table_dir, "shard-*.parquet")))
    warm = sorted(glob.glob(os.path.join(warm_dir, "shard-*.parquet")))[:1]
    return Inputs(table_dir=table_dir, paths=paths, warm_paths=warm,
                  rows=sum(pq.ParquetFile(p).metadata.num_rows for p in paths),
                  bytes=sum(os.path.getsize(p) for p in paths),
                  seed=seed, unique_paths=unique)


# ---- references --------------------------------------------------------------
def source_digest(root: str) -> str:
    """Content hash of the engine package: identifies the code measured
    (the benchmark may run outside a git checkout) and keys the
    reference cache, so a changed oracle or SQL gate is never served a
    stale reference."""
    h = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(root, "sbo_ray", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def _build_pipeline_ref(inputs: Inputs, out: str) -> None:
    """Oracle tables over the lines the synthesizer generated (not the
    engine's decode of the shards, so the codec is checked too)."""
    from sbo_ray import synth
    from sbo_ray.oracle.pipeline import run_oracle

    doc_ids, lines, sources = synth.synth_lines(
        inputs.rows, seed=inputs.seed, n_sources=N_SOURCES,
        unique_paths=inputs.unique_paths)
    res = run_oracle(doc_ids, lines, sources, synth.source_config(N_SOURCES),
                     exact_totals=True)
    cols = list(zip(*res.metrics)) or [()] * 5
    pq.write_table(pa.table({
        "source": pa.array(cols[0], pa.string()),
        "metric_type": pa.array(cols[1], pa.int32()),
        "key_value": pa.array(cols[2], pa.string()),
        "time_window": pa.array(cols[3], pa.int64()),
        "metric_value": pa.array(cols[4], pa.int64()),
    }), os.path.join(out, "metrics.parquet"))
    kc = [(src, dim, key, cnt)
          for dim, counts in res.keyed_counters.items()
          for (src, key), cnt in counts.items()]
    cols = list(zip(*kc)) or [()] * 4
    pq.write_table(pa.table({
        "source": pa.array(cols[0], pa.string()),
        "dimension": pa.array(cols[1], pa.string()),
        "key_value": pa.array(cols[2], pa.string()),
        "cnt": pa.array(cols[3], pa.int64()),
    }), os.path.join(out, "counters.parquet"))
    pq.write_table(pa.table({"doc_id": pa.array(
        sorted(r["doc_id"] for r in res.routed), pa.string())}),
        os.path.join(out, "routed.parquet"))
    # the oracle's counters only hold keys that were incremented
    totals = {k: res.counters.get(k, 0) for k in GLOBAL_COUNTERS}
    with open(os.path.join(out, "globals.json"), "w") as f:
        json.dump({**totals, "parse_errors": res.parse_errors}, f)


def _build_token_ref(inputs: Inputs, out: str) -> None:
    import duckdb

    from sbo_ray.pipelines import queries as Q

    con = duckdb.connect()
    try:
        for op, sql_fn in TOKEN_SQL.items():
            table = con.sql(getattr(Q, sql_fn)(inputs.table_dir)).arrow()
            if isinstance(table, pa.RecordBatchReader):
                table = table.read_all()
            pq.write_table(table, os.path.join(out, f"{op}.parquet"))
    finally:
        con.close()


def _build_ref(kind: str, inputs: Inputs, out: str) -> None:
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    (_build_token_ref if kind == "token" else _build_pipeline_ref)(inputs, tmp)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


def reference(workload: str, inputs: Inputs, cache_root: str,
              digest: str) -> dict:
    """Load the reference for (workload, seed), building it first in a
    child process when it is not cached. The child keeps the oracle's
    Python heap out of the driver, whose peak RSS is a metric."""
    kind = "token" if workload == "token_exchange" else "pipeline"
    out = os.path.join(cache_root,
                       f"{kind}-{os.path.basename(inputs.table_dir)}-{digest}")
    if not os.path.isdir(out):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)}
        subprocess.run([sys.executable, os.path.abspath(__file__), kind, out,
                        json.dumps(asdict(inputs))], check=True, timeout=600,
                       env=env)
    ref = {os.path.basename(p)[:-len(".parquet")]: pq.read_table(p)
           for p in glob.glob(os.path.join(out, "*.parquet"))}
    if kind == "pipeline":
        with open(os.path.join(out, "globals.json")) as f:
            ref["globals"] = json.load(f)
    return ref


# ---- bodies --------------------------------------------------------------------
@contextlib.contextmanager
def token_input(paths: list[str]):
    """Point the token ops at ``paths``. They take an sf_dir and resolve
    it through ``queries._input_paths`` to a fixed-seed table under
    /tmp; the benchmark's tables are seeded and live in its tree."""
    from sbo_ray.pipelines import queries as Q

    saved = Q._input_paths
    Q._input_paths = lambda _sf_dir: paths
    try:
        yield
    finally:
        Q._input_paths = saved


def _fetch(ds) -> pa.Table:
    """Pull a result Dataset's blocks to the driver, as a consumer would."""
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def run_body(workload: str, paths: list[str], table_dir: str,
             out_dir: str) -> dict:
    """One job of ``workload`` over ``paths``; returns what the check
    needs plus ``ops``: (name, start, end) wall-clock spans of each call."""
    from sbo_ray.pipelines import logpipe

    ops = []

    def timed(name, fn, *args):
        t0 = time.time()
        out = fn(*args)
        ops.append((name, t0, time.time()))
        return out

    if workload == "unique_url_flagship":
        res = timed("full_pipeline", logpipe.full_pipeline, paths, job(), out_dir)
        return {**res, "ops": ops,
                "routed": glob.glob(os.path.join(out_dir, "routed", "*.parquet"))}
    if workload == "checkpointed_run":
        from sbo_ray.state.lineage import CheckpointedPipeline

        def cli_run():
            cp = CheckpointedPipeline(paths, job(), out_dir, group_size=GROUP_SIZE)
            cp.run_all()
            final = cp.finalize()
            pq.write_table(final["metrics"], os.path.join(out_dir, "metrics.parquet"))
            pq.write_table(final["keyed_counters"],
                           os.path.join(out_dir, "counters.parquet"))
            with open(os.path.join(out_dir, "metrics.prom"), "w") as f:
                f.write(cp.manifest.prometheus_text())
            return {**final, "routed": cp.routed_files()}

        return {**timed("cli_run", cli_run), "ops": ops}
    from sbo_ray.pipelines import queries as Q

    out = {"ops": ops}
    with token_input(paths):
        out["q_log_seq_dedup"] = timed("q_log_seq_dedup", Q.q_log_seq_dedup,
                                       table_dir)
        for op in TOKEN_OPS[1:]:
            out[op] = timed(op, lambda op=op: _fetch(getattr(Q, op)(table_dir)))
    return out


# ---- checks ----------------------------------------------------------------------
def same_rows(got: pa.Table, want: pa.Table) -> str | None:
    """None when ``got`` holds exactly the rows of ``want`` in any order."""
    if sorted(got.column_names) != sorted(want.column_names):
        return f"columns {sorted(got.column_names)} != {sorted(want.column_names)}"
    if got.num_rows != want.num_rows:
        return f"{got.num_rows} rows != {want.num_rows}"
    try:
        got = got.select(want.column_names).cast(want.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
        return f"cast failed: {e}"
    keys = [(c, "ascending") for c in want.column_names]
    if not got.sort_by(keys).equals(want.sort_by(keys)):
        return "values differ"
    return None


def check(workload: str, result: dict, ref: dict) -> list[str]:
    """Mismatches between one job's outputs and the reference."""
    problems = []

    def cmp(name, got, want):
        err = same_rows(got, want)
        if err:
            problems.append(f"{name}: {err}")

    if workload == "token_exchange":
        for op in TOKEN_OPS:
            cmp(op, result[op], ref[op])
        return problems
    cmp("metrics", result["metrics"], ref["metrics"])
    cmp("keyed_counters", result["keyed_counters"], ref["counters"])
    got_g = {k: int(v) for k, v in result["global_counters"].items()}
    if got_g != ref["globals"]:
        problems.append(f"global_counters: {got_g} != {ref['globals']}")
    routed = [pq.read_table(p, columns=["doc_id"]) for p in result["routed"]]
    got_r = (pa.concat_tables(routed) if routed
             else pa.table({"doc_id": pa.array([], pa.string())}))
    cmp("routed", got_r, ref["routed"])
    return problems


if __name__ == "__main__":
    # reference build, run by reference() in a child process:
    #   workloads.py <pipeline|token> <out_dir> <Inputs as JSON>
    _build_ref(sys.argv[1], Inputs(**json.loads(sys.argv[3])), sys.argv[2])
