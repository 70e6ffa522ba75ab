"""Checkpointed, resumable execution with per-partition lineage.

North-rule contract: every partition emits lineage records (input shard,
row range, stage hash) and Prometheus-style metrics to a checkpoint
manifest so a killed run resumes from the last committed partition
without recount drift.

Design (SURVEY.md §4 "Checkpoint / resume"):

- The **commit unit is a run**: a deterministic batch of uncommitted
  input shards (``group_size`` at a time). Each run writes its routed
  fragments and unified aggregate *partials* under
  ``out/runs/<run_id>/`` (the run dir is cleared at run start, so a
  crashed run's leftovers are overwritten, never double-counted), then
  appends one commit record per shard to ``manifest.jsonl``.
- **One execution, many commits**: ``run_all`` reads every pending
  shard in ONE Ray Data read->stage execution; each run commits as
  soon as all of its input rows are counted, so a crash mid-execution
  keeps every run completed before it.
- ``run_id`` is a content hash of (shard paths + config hash) — no
  wall-clock, so a retried run lands in the same directory.
- **Resume** = skip shards already in the manifest; reprocess the rest.
- **No recount drift**: final aggregates are derived only from the
  partials of committed runs; each shard belongs to exactly one
  committed run.
- Counters (rows_in, parse_errors, routed_rows, partial_rows) ride in
  each commit record and are exportable in Prometheus text format.

The reference's only analog is the manual ``StartFrom`` line offset
(``main.go:926-978``); this generalizes it to partitioned batch runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq


@dataclass
class CommitRecord:
    shard: str              # input shard path (the partition id)
    run_id: str
    rows_in: int
    row_range: tuple[int, int] | list  # (first_row_index, last_row_index) within shard
    stage_hash: str         # hash of the transform config (lineage)
    counters: dict = field(default_factory=dict)


class CheckpointManifest:
    """Append-only JSONL commit log + Prometheus-style counter export."""

    def __init__(self, out_dir: str) -> None:
        from .. import fsio

        self._fsio = fsio
        self.out_dir = out_dir
        fsio.makedirs(out_dir)
        self.path = fsio.join(out_dir, "manifest.jsonl")
        self._local = fsio.is_local_path(out_dir)
        # length of the committed (newline-terminated, parseable) prefix;
        # None until first learned by a read
        self._valid_bytes: int | None = None

    def committed_shards(self) -> dict[str, CommitRecord]:
        out: dict[str, CommitRecord] = {}
        if not self._fsio.exists(self.path):
            self._valid_bytes = 0
            return out
        with self._fsio.open_file(self.path, "rb") as f:
            raw = f.read()
        lines = raw.splitlines(keepends=True)
        consumed = 0
        for i, bline in enumerate(lines):
            if not bline.endswith(b"\n"):
                # a record is committed only once its NEWLINE landed: a
                # newline-less tail — even if it parses as JSON — is a
                # torn append (the shard reruns, idempotently). Counting
                # it would let the next append merge two records into
                # one unparseable line and silently lose BOTH.
                if i == len(lines) - 1:
                    continue
                raise ValueError("manifest line without newline mid-file")
            line = bline.strip()
            if not line:
                consumed += len(bline)
                continue
            try:
                rec = CommitRecord(**json.loads(line))
            except (json.JSONDecodeError, TypeError, UnicodeDecodeError):
                if i == len(lines) - 1:
                    # torn FINAL record: uncommitted; the READ never
                    # mutates the file (a concurrent writer may still be
                    # appending) — the WRITER repairs in commit().
                    continue
                raise  # torn bytes mid-file: real corruption, surface it
            out[rec.shard] = rec
            consumed += len(bline)
        self._valid_bytes = consumed
        return out

    def committed_run_ids(self) -> set[str]:
        return {r.run_id for r in self.committed_shards().values()}

    def commit(self, records: list[CommitRecord]) -> None:
        """Atomic-enough append: one write+flush+fsync of all records.

        Before appending, the WRITER (which owns the file; one resume per
        out_dir is the contract) truncates a torn tail left by a previous
        crash so its append cannot bury torn bytes mid-file — the repair
        lives on the write path so readers stay side-effect-free.

        Non-local filesystems have no append/truncate: the writer
        re-PUTs the whole manifest (valid bytes + new records) in one
        atomic object write — correct under the same one-writer
        contract, O(manifest) per commit (the manifest is record-sized,
        not data-sized).

        Under the same contract the writer learns the valid length once
        (its first commit reads the manifest) and then adds each payload
        it appends, so a run of N commits parses the manifest once, not
        N times."""
        payload = "".join(json.dumps(asdict(r)) + "\n" for r in records).encode()
        if self._valid_bytes is None:
            self.committed_shards()  # computes _valid_bytes
        valid = self._valid_bytes
        if self._local:
            _, lpath = self._fsio.resolve(self.path)
            if os.path.exists(lpath) and valid < os.path.getsize(lpath):
                with open(lpath, "r+b") as f:
                    f.truncate(valid)
            with open(lpath, "ab") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
        else:
            valid_raw = b""
            if valid:
                with self._fsio.open_file(self.path, "rb") as f:
                    valid_raw = f.read()[:valid]
            with self._fsio.open_file(self.path, "wb") as f:
                f.write(valid_raw + payload)
        self._valid_bytes = valid + len(payload)

    def counters_total(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for rec in self.committed_shards().values():
            for k, v in rec.counters.items():
                total[k] = total.get(k, 0) + int(v)
        return total

    def prometheus_text(self) -> str:
        lines = []
        for k, v in sorted(self.counters_total().items()):
            name = f"sbo_ray_{k}_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {v}")
        return "\n".join(lines) + "\n"


def _stage_hash(job) -> str:
    from dataclasses import fields

    def cfg_dict(cfg):
        return {f.name: getattr(cfg, f.name) for f in fields(cfg)}

    blob = json.dumps(
        {
            "default": cfg_dict(job.default),
            "sources": {k: cfg_dict(v) for k, v in sorted(job.sources.items())},
            "engine": "sbo_ray.full_pipeline.v1",
        },
        sort_keys=True, default=str,
    )
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


def _run_id(shards: list[str], stage_hash: str) -> str:
    # full paths: same-named shards in different directories are
    # different runs (hashing basenames made their run dirs collide)
    blob = json.dumps([sorted(shards), stage_hash])
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


# unified-partial kind of the per-group input row counts (0-2: logpipe's)
_ROWS_IN_KIND = 3


def _grouped_stage(stage, keys: list[str], key_groups: list[int],
                   routed: list[str]):
    """Wrap ``logpipe.partial_stage`` for a read over many groups: map
    each row's ``path`` (``keys``, normalized as ``include_paths``
    reports them) to its group, run the stage per group present with
    that group's routed dir, and tag the partials with an int32
    ``group`` column plus one ``_ROWS_IN_KIND`` row holding the group's
    input rows in the batch."""
    import pyarrow.compute as pc

    from ..pipelines.logpipe import UNIFIED_SCHEMA

    keys = pa.array(keys, pa.string())
    key_groups = pa.array(key_groups, pa.int32())
    out_schema = UNIFIED_SCHEMA.append(pa.field("group", pa.int32()))

    def group_stage(batch: pa.Table) -> pa.Table:
        # a batch may span shards and groups (batch_size): split it; the
        # one-shard batch (the default) holds one group and passes whole
        gid = key_groups.take(pc.index_in(batch.column("path"), keys))
        batch = batch.drop_columns(["path"])
        present = pc.unique(gid).to_pylist()
        outs = []
        for g in present:
            sub = batch if len(present) == 1 else batch.filter(pc.equal(gid, g))
            count = pa.table({
                "kind": pa.array([_ROWS_IN_KIND], pa.int8()), "source": [""],
                "metric_type": pa.array([0], pa.int32()), "dimension": ["rows_in"],
                "key_value": [""], "time_window": [0], "value": [sub.num_rows],
            }, schema=UNIFIED_SCHEMA)
            unified = pa.concat_tables([stage(sub, routed[g]), count])
            outs.append(unified.append_column(
                "group", pa.repeat(pa.scalar(g, pa.int32()), unified.num_rows)))
        return pa.concat_tables(outs) if outs else out_schema.empty_table()

    return group_stage


class CheckpointedPipeline:
    """Resumable wrapper around the single-pass flagship pipeline."""

    def __init__(self, input_paths: list[str] | str, job, out_dir: str,
                 group_size: int = 8, **pipeline_kwargs) -> None:
        self._input_spec = input_paths  # list of files OR a glob pattern
        self.input_paths = self._resolve_inputs()
        self.job = job
        self.out_dir = out_dir
        self.group_size = group_size
        self.pipeline_kwargs = pipeline_kwargs
        self.manifest = CheckpointManifest(out_dir)
        self.stage_hash = _stage_hash(job)

    def _resolve_inputs(self) -> list[str]:
        if isinstance(self._input_spec, str):
            import glob as g

            return sorted(g.glob(self._input_spec))
        return sorted(self._input_spec)

    def refresh(self) -> int:
        """Follow-mode analog (the reference's fsnotify tail,
        main.go:863-922, re-expressed for batch): re-glob the input spec;
        shards that appeared since the last resolve become pending.
        Returns the number of newly discovered shards."""
        before = set(self.input_paths)
        self.input_paths = self._resolve_inputs()
        return len(set(self.input_paths) - before)

    def follow(self, poll_seconds: float = 5.0, idle_rounds: int = 3) -> None:
        """Poll-process loop: process pending shards, re-glob, repeat;
        stops after ``idle_rounds`` consecutive empty polls."""
        import time as _time

        idle = 0
        while idle < idle_rounds:
            self.run_all()
            if self.refresh() == 0 and not self.pending_shards():
                idle += 1
                _time.sleep(poll_seconds)
            else:
                idle = 0

    def pending_shards(self) -> list[str]:
        done = set(self.manifest.committed_shards())
        return [p for p in self.input_paths if p not in done]

    def _pending_groups(self) -> list[list[str]]:
        pending = self.pending_shards()
        return [pending[i:i + self.group_size]
                for i in range(0, len(pending), self.group_size)]

    def run_once(self) -> bool:
        """Process the next group of uncommitted shards; returns True if
        work remains afterwards."""
        groups = self._pending_groups()
        if groups:
            self._run(groups[:1])
        return len(groups) > 1

    def run_all(self) -> None:
        groups = self._pending_groups()
        if groups:
            self._run(groups)

    def _run(self, groups: list[list[str]]) -> None:
        """Process ``groups`` in ONE Ray Data read->stage execution and
        commit each group as soon as every one of its input rows is
        counted.

        Each task runs ``_grouped_stage``: routed fragments land in their
        group's run dir, and each group's partial carries the count of
        its input rows before parse (``skip_line_regex`` drops rows
        inside parse). The driver pulls each partial block as it
        streams, folds it into its group (at most every ``exchange.FANIN``
        blocks, so memory stays bounded) and commits a group once its
        counted rows equal the parquet footer total of its shards. A
        failed task leaves its groups uncommitted (the run raises after
        the others commit); resume clears their run dirs."""
        import pyarrow.compute as pc
        import ray
        import ray.data as rd
        from ray.data.datasource.path_util import _resolve_paths_and_filesystem

        from .. import exchange as X
        from .. import fsio
        from ..pipelines import logpipe

        opts = dict(self.pipeline_kwargs)
        batch_size = opts.pop("batch_size", None)
        stage = logpipe.partial_stage(self.job, **opts)
        run_ids = [_run_id(g, self.stage_hash) for g in groups]
        run_dirs = [fsio.join(self.out_dir, "runs", r) for r in run_ids]
        routed = [fsio.join(d, "routed") for d in run_dirs]
        for run_dir, routed_dir in zip(run_dirs, routed):
            # a crashed attempt at this run left uncommitted fragments: clear
            fsio.rmtree(run_dir)
            fsio.makedirs(routed_dir)
        shard_rows = [{p: pq.ParquetFile(p).metadata.num_rows for p in g}
                      for g in groups]
        expected = [sum(r.values()) for r in shard_rows]
        counted = [0] * len(groups)
        parts: list[list[pa.Table]] = [[] for _ in groups]
        open_groups = set(range(len(groups)))

        def commit(i: int) -> None:
            self._commit(groups[i], run_ids[i], run_dirs[i], shard_rows[i],
                         parts[i])
            parts[i] = []
            open_groups.discard(i)

        for i in range(len(groups)):
            if expected[i] == 0:  # zero-row shards yield no block
                commit(i)
        # zero-row shards add no rows, so they need no read task
        todo = [p for r in shard_rows for p, n in r.items() if n]
        if todo:
            # include_paths reports each path as read_parquet resolved it
            # (relative stays relative, URI schemes are stripped): key the
            # path -> group map the same way
            group_of = {p: i for i, g in enumerate(groups) for p in g}
            group_stage = _grouped_stage(
                stage, _resolve_paths_and_filesystem(todo)[0],
                [group_of[p] for p in todo], routed)
            ds = rd.read_parquet(
                todo, include_paths=True, override_num_blocks=len(todo),
            ).map_batches(group_stage, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)
            # a failed task (bad shard) must not abort the groups around
            # it: its rows go uncounted, so its group stays uncommitted
            # and the run raises below once every other group committed
            ds.context.max_errored_blocks = -1
            # single execution, consumed as a stream of block refs (see
            # exchange.merge: side-effect stages must not rerun)
            for bundle in ds.iter_internal_ref_bundles():
                for block in ray.get([ref for ref, _ in bundle.blocks]):
                    if not block.num_rows:
                        continue
                    gcol = block.column("group")
                    present = pc.unique(gcol).to_pylist()
                    for g in present:
                        sub = block if len(present) == 1 else block.filter(
                            pc.equal(gcol, g))
                        sub = sub.drop_columns(["group"])
                        rows_in = sub.filter(pc.equal(sub.column("kind"), _ROWS_IN_KIND))
                        counted[g] += pc.sum(rows_in.column("value")).as_py() or 0
                        parts[g].append(sub)
                        if counted[g] == expected[g]:
                            commit(g)
                        elif len(parts[g]) >= X.FANIN:
                            folded = X._combine_partials(
                                logpipe.UNIFIED_KEYS, "value", parts[g])
                            parts[g] = [] if folded is None else [folded]
        if open_groups:
            missing = sorted(open_groups)
            raise RuntimeError(
                f"left uncommitted: {[groups[i] for i in missing]} "
                f"(counted {[counted[i] for i in missing]} of "
                f"{[expected[i] for i in missing]} input rows; the Ray Data "
                f"log holds the failed tasks' errors)")

    def _commit(self, group: list[str], run_id: str, run_dir: str,
                shard_rows: dict[str, int], parts: list[pa.Table]) -> None:
        """Persist one complete group's aggregate partials, then append
        its commit records: the run counts only once the manifest says so."""
        from .. import exchange as X
        from .. import fsio
        from ..pipelines import logpipe

        table = X._combine_partials(logpipe.UNIFIED_KEYS, "value", parts)
        result = logpipe.split_unified(
            logpipe.UNIFIED_SCHEMA.empty_table() if table is None else table)
        fsio.write_table(run_dir, "metrics_partial.parquet", result["metrics"])
        fsio.write_table(run_dir, "counters_partial.parquet",
                         result["keyed_counters"])
        with fsio.open_file(fsio.join(run_dir, "global_partial.json"), "w") as f:
            json.dump(result["global_counters"], f)

        g = result["global_counters"]
        records = []
        for p in group:
            records.append(CommitRecord(
                shard=p,
                run_id=run_id,
                rows_in=shard_rows[p],
                row_range=[0, shard_rows[p] - 1],
                stage_hash=self.stage_hash,
                counters={
                    # per-run totals attributed once (on the first shard of
                    # the group) so manifest sums equal run sums
                    **({"rows_in_group": sum(shard_rows.values()),
                        "parse_errors": g.get("parse_errors", 0),
                        "requests": g.get("requests", 0)}
                       if p == group[0] else {}),
                    "rows_in": shard_rows[p],
                },
            ))
        self.manifest.commit(records)

    # ---- finalization -----------------------------------------------------
    def finalize(self) -> dict:
        """Merge the partials of every committed run into final tables.
        Derived only from committed runs: a shard contributes exactly
        once, so reruns never drift the counts."""
        from .. import exchange as X
        from .. import fsio
        from ..stages.metrics import COUNTER_SCHEMA, GROUP_KEYS, METRIC_SCHEMA

        run_ids = sorted(self.manifest.committed_run_ids())
        metrics_parts, counter_parts = [], []
        glob: dict[str, int] = {}
        for rid in run_ids:
            run_dir = fsio.join(self.out_dir, "runs", rid)
            with fsio.open_file(
                    fsio.join(run_dir, "metrics_partial.parquet")) as f:
                metrics_parts.append(pq.read_table(f))
            with fsio.open_file(
                    fsio.join(run_dir, "counters_partial.parquet")) as f:
                counter_parts.append(pq.read_table(f))
            with fsio.open_file(
                    fsio.join(run_dir, "global_partial.json"), "r") as f:
                for k, v in json.load(f).items():
                    glob[k] = glob.get(k, 0) + int(v)
        metrics = X._combine_partials(GROUP_KEYS, "metric_value",
                                      metrics_parts)
        counters = X._combine_partials(["source", "dimension", "key_value"],
                                       "cnt", counter_parts)
        if metrics is None:
            metrics = METRIC_SCHEMA.empty_table()
        if counters is None:
            counters = COUNTER_SCHEMA.empty_table()
        return {"metrics": metrics, "keyed_counters": counters,
                "global_counters": glob}

    def routed_files(self) -> list[str]:
        from .. import fsio

        out = []
        for rid in sorted(self.manifest.committed_run_ids()):
            routed = fsio.join(self.out_dir, "runs", rid, "routed")
            out.extend(p for p in fsio.listdir(routed)
                       if p.endswith(".parquet"))
        return out
