"""Command-line entry point — the ``sbologp`` analog (main.go:238-340).

Profiles (the reference's ``-p`` + config-file modes, re-expressed):

    python -m sbo_ray.cli count  INPUT...  [--format F] [--top-n N]
    python -m sbo_ray.cli metrics INPUT... [--config cfg.json] [--out DIR]
    python -m sbo_ray.cli run    INPUT...  [--config cfg.json] [--out DIR]
                                 [--resume] [--group-size N]

INPUT is either Parquet shards of the token table or raw ``.log``/.txt
files (auto-lifted through sources.textlog). ``--config`` takes the
JSON config with ``--default--`` merge semantics (config.py). ``run``
is the single-pass flagship with the checkpoint manifest; ``--resume``
continues a killed run.

Owns its Ray session (the only module besides bench.py and tests that
does): guarded init, shutdown at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray() -> None:
    """Guarded session init. ``SBO_RAY_ADDRESS`` selects the cluster:
    unset/"local" starts a local session (the sandbox default); "auto"
    attaches to a running cluster — i.e. under ``ray job submit`` on a
    multi-node cluster, run with SBO_RAY_ADDRESS=auto (num_cpus is then
    left to the cluster; RAY_GRAFT_CPUS only applies locally)."""
    import ray

    if not ray.is_initialized():
        address = os.environ.get("SBO_RAY_ADDRESS", "local")
        kwargs = dict(
            address=address,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if address == "local":
            kwargs["num_cpus"] = (
                int(os.environ.get("RAY_GRAFT_CPUS", "0")) or None)
            kwargs["include_dashboard"] = False
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _load_job(args, inputs: list[str]):
    from .config import JobConfig, SourceConfig

    if args.config:
        with open(args.config) as f:
            job = JobConfig.from_json(f.read())
    else:
        job = JobConfig(default=SourceConfig(log_format=args.format))
    return job


def _input_dataset(inputs: list[str]):
    from .sources.textlog import read_text_logs

    if all(p.endswith(".parquet") or os.path.isdir(p) for p in inputs):
        import ray.data as rd

        return rd.read_parquet(inputs), True
    return read_text_logs(inputs), False


def cmd_count(args) -> int:
    from . import exchange as X
    from .pipelines import logpipe
    from .report import keyed_counters_table_to_dict, render_counter_report

    _init_ray()
    job = _load_job(args, args.inputs)
    ds, _ = _input_dataset(args.inputs)
    # one read and parse: the global and keyed counters come out of the
    # same unified partial merge as the flagship's
    out = logpipe.split_unified(X.merge(
        logpipe.enriched_dataset_from(ds, job), logpipe.unified_partial,
        logpipe.UNIFIED_KEYS, logpipe.UNIFIED_SCHEMA))
    kd = keyed_counters_table_to_dict(out["keyed_counters"])
    print(render_counter_report(out["global_counters"], kd, args.top_n))
    return 0


def cmd_metrics(args) -> int:
    from .pipelines import logpipe

    _init_ray()
    ds, _ = _input_dataset(args.inputs)
    job = _load_job(args, args.inputs)
    enriched = logpipe.enriched_dataset_from(ds, job)
    metrics = logpipe.metrics_dataset(enriched)
    out = args.out or "/tmp/sbo_ray_out/metrics"
    metrics.write_parquet(out)
    print(f"metrics written to {out}")
    return 0


def cmd_follow(args) -> int:
    """The reference's live counter profile (``sbologp -p count -f FILE``,
    main.go:863-922 + handlers/counter.go): tail one raw log file and
    print a counter report per poll round with CUMULATIVE totals and the
    per-interval DELTA (current - previous, counter.go:53-56). Bounded
    rounds via --rounds (0 = follow until interrupted)."""
    from .exchange import _combine_partials
    from .report import keyed_counters_table_to_dict, render_counter_report
    from .sources.textlog import follow_text_log
    from .stages.metrics import counter_melt, global_counter_partial
    from .stages.parse import make_parse_fn

    if len(args.inputs) != 1:
        print("follow takes exactly one raw log file", file=sys.stderr)
        return 2
    if not os.path.exists(args.inputs[0]):
        print(f"no such file: {args.inputs[0]}", file=sys.stderr)
        return 2
    job = _load_job(args, args.inputs)
    # tail rounds are small incremental batches: parse them DRIVER-side
    # with the same stage functions the Ray pipeline uses (one parse per
    # round, no per-round Ray executions; the reference's handler chain
    # is likewise in-process). Large backlogs go through `run`.
    parse_fn = make_parse_fn(job)
    totals: dict[str, int] = {}
    kc_acc = None  # cumulative keyed counters across the tail session
    rounds = args.rounds if args.rounds > 0 else None
    start_from = -1 if args.from_end else 0
    for t in follow_text_log(args.inputs[0], start_from=start_from,
                             poll_sec=args.interval, max_rounds=rounds):
        enriched = parse_fn(t)
        g_t = global_counter_partial(enriched)
        round_g = {c: g_t.column(c)[0].as_py() for c in g_t.column_names}
        for k, v in round_g.items():
            totals[k] = totals.get(k, 0) + v
        kc_acc = _combine_partials(["source", "dimension", "key_value"],
                                   "cnt", [kc_acc, counter_melt(enriched)])
        kd = keyed_counters_table_to_dict(kc_acc) if kc_acc else {}
        print(render_counter_report(totals, kd, args.top_n))
        # per-interval view (current - previous cumulative == this
        # round's increments, counter.go:53-56)
        print("interval deltas:",
              json.dumps({k: v for k, v in sorted(round_g.items()) if v}))
        sys.stdout.flush()
    return 0


def cmd_run(args) -> int:
    from .config import JobConfig
    from .state.lineage import CheckpointedPipeline

    _init_ray()
    job = _load_job(args, args.inputs)
    out = args.out or "/tmp/sbo_ray_out/run"
    paths = args.inputs
    cp = CheckpointedPipeline(paths, job, out, group_size=args.group_size)
    if not args.resume and cp.manifest.committed_shards():
        print("existing manifest found; pass --resume to continue it",
              file=sys.stderr)
        return 2
    cp.run_all()
    final = cp.finalize()
    import pyarrow.parquet as pq

    pq.write_table(final["metrics"], os.path.join(out, "metrics.parquet"))
    pq.write_table(final["keyed_counters"], os.path.join(out, "counters.parquet"))
    with open(os.path.join(out, "metrics.prom"), "w") as f:
        f.write(cp.manifest.prometheus_text())
    print(json.dumps({
        "out": out,
        "shards": len(cp.manifest.committed_shards()),
        "counters": cp.manifest.counters_total(),
    }))
    return 0


def _partitions(args, out: str, start) -> int:
    """The resumable per-shard loop of ``curate`` and ``pack``: one
    output PARTITION per input shard (``out/shard=<stem>/``), its
    fragments written as idempotent two-phase files (fsio) and committed
    with a ``_SUCCESS`` marker holding ``rows`` and the writer's fields.
    A committed partition is skipped with ``--resume`` and refused (exit
    2) without it. When any partition is pending, ``start()`` runs once
    — pass 1 over ALL inputs, so its state never depends on which
    partitions already committed — and returns ``write(si, path)`` ->
    (marker fields, fragment tables) for each pending shard."""
    from . import fsio

    todo, done_before, ran = [], [], []
    for si, p in enumerate(args.inputs):
        stem = os.path.splitext(os.path.basename(p))[0]
        pdir = os.path.join(out, f"shard={stem}")
        if not fsio.exists(os.path.join(pdir, "_SUCCESS")):
            todo.append((si, p, stem, pdir))
        elif args.resume:
            done_before.append(stem)
        else:
            print(f"partition shard={stem} already committed; "
                  "pass --resume to skip it and continue", file=sys.stderr)
            return 2
    write = start() if todo else None
    for si, p, stem, pdir in todo:
        meta, frags = write(si, p)
        fsio.makedirs(pdir)
        fsio.clear_fragments(pdir)
        n_rows = 0
        for i, frag in enumerate(frags):
            fsio.write_fragment(pdir, f"part-{i:05d}.parquet", frag)
            n_rows += frag.num_rows
        with fsio.open_file(os.path.join(pdir, "_SUCCESS"), "wb") as f:
            f.write(json.dumps({"rows": n_rows, **meta}).encode())
        ran.append(stem)
    print(json.dumps({"out": out, "ran": ran, "skipped": done_before}))
    return 0


def _shard_batches(path: str, columns: list[str]):
    """One input shard's batches in file order (one read block)."""
    import ray.data as rd

    return rd.read_parquet(path, columns=columns, override_num_blocks=1
                           ).iter_batches(batch_format="pyarrow",
                                          batch_size=None)


def _curation_shard_parts(src: tuple, P: int, lang: str, min_tokens: int,
                          max_tokens: int, thr: int) -> list:
    """Pass-1 partial for one (shard_idx, path) input shard of the FULL
    curation profile: gate-passing (text_hash, doc_id, shard_idx, 0)
    rows hash-routed into P partitions (``num_returns=P``) for
    ``_winners_combine``; each return is a (4, n) int64 array. Gate
    semantics are the pipeline's own ``_curation_kept`` — identical by
    construction."""
    import numpy as np
    import pyarrow.parquet as pq

    from . import exchange as X
    from .pipelines.dp_text import _curation_kept

    shard_idx, path = src
    t = pq.read_table(path, columns=["doc_id", "text"])
    kept = _curation_kept(t, lang, min_tokens, max_tokens, thr)
    h = kept.column("text_hash").to_numpy(
        zero_copy_only=False).astype(np.int64)
    d = kept.column("doc_id").to_numpy(
        zero_copy_only=False).astype(np.int64)
    # text_hash is a 63-bit non-negative md5 prefix
    return [np.stack([hs, ds, np.full(len(hs), shard_idx, np.int64),
                      np.zeros(len(hs), np.int64)])
            for hs, ds in X.split(h % P, P, h, d)]


def _winners_combine(S: int, *parts) -> list:
    """One hash partition of the cli's dedup exchanges, over (h, id,
    shard, n_tok) rows: the min-id copy per distinct h survives
    (``min_index_winners``). Returns [per-shard KEPT ``n_tok`` sums (S
    ints)] + every OTHER id, routed back to its input shard
    (``num_returns=S+1``) so each writer filters its own; the driver
    holds only refs."""
    import numpy as np

    from .functions.dedup import min_index_winners

    h, i, si, nt = np.concatenate(parts, axis=1)
    first, i, si, nt = min_index_winners(h, i, si, nt)
    sums = np.bincount(si[first], weights=nt[first], minlength=S)
    di, dsi = i[~first], si[~first]
    return [sums.astype(np.int64)] + [di[dsi == s] for s in range(S)]


def cmd_curate(args) -> int:
    """Resumable DATA-side run — the 100-TB operational shape for the
    curation stages: one output PARTITION per input shard
    (``out/shard=<stem>/``), each written as an idempotent two-phase
    fragment (fsio) and committed with a marker, so a killed run
    resumes by SKIPPING finished partitions — never one giant file,
    never recomputing finished work.

    ``--pipeline stats`` (default): shard-local quality stats — resume
    exact by construction (no cross-shard state, and each shard's rows
    are read and written in file order, so a recomputed partition is
    byte-identical).

    ``--pipeline full``: the checkpointed ``doc_curation_pipeline``
    (exact dedup + lang/quality gate). Cross-shard state is the dedup
    winner set; pass 1 recomputes it DETERMINISTICALLY from the full
    input list on every invocation (the pack-bases precedent), as a
    distributed hash exchange whose dropped-id outputs come back
    pre-routed per input shard — so a partition recomputed after a
    kill is byte-identical, regardless of which partitions already
    committed. Output columns match doc_curation_pipeline
    (doc_id, n_tokens, n_stop_en)."""
    from .functions import text as T

    _init_ray()
    out = args.out or "/tmp/sbo_ray_out/curate"
    if getattr(args, "pipeline", "stats") == "full":
        return _cmd_curate_full(args, out)

    def write(si: int, path: str):
        return {}, map(T.token_stats, _shard_batches(path, ["doc_id", "text"]))

    return _partitions(args, out, lambda: write)


def _cmd_curate_full(args, out: str) -> int:
    """``curate --pipeline full`` body: see cmd_curate's docstring."""
    import numpy as np
    import pyarrow as pa
    import ray

    from . import exchange as X
    from .pipelines.dp_text import _CURATION_SCALE, _curation_kept

    lang, mn, mx = "en", 20, 1000
    thr = int(round(0.015 * _CURATION_SCALE))
    S = len(args.inputs)

    def start():
        # pass 1: the deterministic global dedup exchange; dropped ids
        # come back pre-routed per input shard
        P = X.n_parts()
        cl = X.combine(_winners_combine, X.shard(
            _curation_shard_parts, list(enumerate(args.inputs)), P, P,
            lang, mn, mx, thr), S, num_returns=S + 1)

        def write(si: int, path: str):
            dropped = np.concatenate(ray.get(cl[1 + si]))

            def frags():
                for b in _shard_batches(path, ["doc_id", "text"]):
                    kept = _curation_kept(b, lang, mn, mx, thr)
                    ids = kept.column("doc_id").to_numpy(
                        zero_copy_only=False).astype(np.int64)
                    yield kept.select(["doc_id", "n_tokens", "n_stop_en"]
                                      ).filter(pa.array(~np.isin(ids, dropped)))
            return {}, frags()
        return write

    return _partitions(args, out, start)


def _pack_shard_parts(src: tuple, P: int, min_tok: int,
                      max_dom_ppm: int) -> list:
    """Curated-pack pass 1, one (shard_idx, path) input shard: gate rows
    block-locally (_quality_gate_mask), hash the survivors' token
    arrays, and return (h, rownum, shard_idx, n_tok) rows pre-sharded by
    h (num_returns=P) for ``_winners_combine``. A rownum is
    ``_rownum``'s shard-major position. Gated-out rows are not dedup
    candidates and contribute nothing."""
    import numpy as np
    import pyarrow.parquet as pq

    from . import exchange as X
    from .pipelines.queries import (_quality_gate_mask, _seq_hash64,
                                    _token_lists)

    si, path = src
    vals, off = _token_lists(
        pq.read_table(path, columns=["tokens"]).column("tokens"))
    keep = _quality_gate_mask(vals, off, min_tok, max_dom_ppm)
    h = _seq_hash64(vals, off).view(np.int64)[keep]
    rn = _rownum(si, np.flatnonzero(keep))
    return [np.stack([*s[:2], np.full(len(s[0]), si, np.int64), s[2]])
            for s in X.split(X.fib_partition(h, P), P, h, rn,
                             np.diff(off)[keep])]


def _rownum(si: int, rows) -> "np.ndarray":
    """Ingestion order of ``pack --curated``: shards in the given order,
    rows in file order, as one int64 (shard index in the high bits)."""
    import numpy as np

    return (np.int64(si) << 40) + np.asarray(rows, dtype=np.int64)


def _pack_partition(path: str, base: int, seq_len: int, keep=None):
    """The one per-shard pack writer: one input shard's fragments,
    batch by batch, its stream starting at token ``base``, rows in file
    order. ``keep(b, row0)``, when given, is the keep mask of batch
    ``b`` (its first row is the shard's ``row0``-th); a row it drops is
    a zero-length row (``pack.fragments``), so offsets count kept rows
    only and the payload is read in place."""
    import numpy as np

    from .functions import pack
    from .pipelines.queries import _token_lists

    row0 = 0
    for b in _shard_batches(path, ["doc_id", "tokens"]):
        vals, off = _token_lists(b.column("tokens"))
        nt = np.diff(off)
        if keep is not None:
            nt[~keep(b, row0)] = 0
            row0 += b.num_rows
        yield pack.fragments(b.select(["doc_id"]), vals, off, nt,
                             base + np.cumsum(nt) - nt, seq_len)
        base += int(nt.sum())


def _cmd_pack_curated(args, out: str) -> int:
    """``pack --curated`` body: quality gate -> exact dedup -> pack,
    resumable (the log_pack_tokens_curated flagship in the curate
    profile's operational shape). Cross-shard state is the dedup
    winner set AND the survivor-stream bases; pass 1 recomputes both
    DETERMINISTICALLY from the full input list on every invocation
    (the _cmd_curate_full contract), so a partition recomputed after a
    kill is byte-identical regardless of commit state. Ingestion
    order: shards in the given order, rows in file order."""
    import numpy as np
    import ray

    from . import exchange as X
    from .pipelines.queries import _quality_gate_mask, _token_lists

    min_tok, max_dom_ppm = 4, 900_000
    S = len(args.inputs)

    def start():
        P = X.n_parts()
        cl = X.combine(_winners_combine, X.shard(
            _pack_shard_parts, list(enumerate(args.inputs)), P, P, min_tok,
            max_dom_ppm), S, num_returns=S + 1)
        sums = np.sum(ray.get(cl[0]), axis=0).astype(np.int64)
        bases = np.cumsum(sums) - sums

        def write(si: int, path: str):
            dropped = np.concatenate(ray.get(cl[1 + si]))

            def keep(b, row0: int):
                vals, off = _token_lists(b.column("tokens"))
                rn = _rownum(si, row0 + np.arange(b.num_rows))
                return (_quality_gate_mask(vals, off, min_tok, max_dom_ppm)
                        & ~np.isin(rn, dropped))

            base = int(bases[si])
            return {"base": base}, _pack_partition(path, base, args.seq_len,
                                                   keep)
        return write

    return _partitions(args, out, start)


def cmd_pack(args) -> int:
    """Resumable sequence-PACKING run over token shards — the
    token-native flagship op in the curate profile's operational shape
    (one output partition per input shard, two-phase fragments, commit
    markers, resume skips finished partitions).

    Packing has GLOBAL state (stream offsets), but it is a prefix sum:
    pass 1 reads ONLY the n_tok column per shard (remote tasks) and
    folds per-shard token totals into exclusive bases — deterministic
    for a fixed input list, so a resumed run recomputes IDENTICAL
    bases and every shard's fragments are exact regardless of which
    partitions already committed. Ingestion order contract: shards in
    the given order, rows in file order.

    ``--curated`` switches to the gated curation flagship (quality
    gate -> exact dedup -> pack; see _cmd_pack_curated)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    _init_ray()
    out = args.out or "/tmp/sbo_ray_out/pack"
    if getattr(args, "curated", False):
        return _cmd_pack_curated(args, out)

    @ray.remote
    def shard_total(path: str) -> int:
        return int(pq.read_table(path, columns=["n_tok"])
                   .column("n_tok").to_numpy(zero_copy_only=False)
                   .astype("int64").sum())

    def start():
        totals = np.array(ray.get([shard_total.remote(p)
                                   for p in args.inputs]), dtype=np.int64)
        bases = np.cumsum(totals) - totals

        def write(si: int, path: str):
            base = int(bases[si])
            return {"base": base}, _pack_partition(path, base, args.seq_len)
        return write

    return _partitions(args, out, start)


def cmd_osmetrics(args) -> int:
    """The reference's periodic host OS-metrics collection (its host
    cron into sbo_os_metrics, db/mysqldb.go:240-269) as a CLI profile —
    no Ray session needed (single-host sampling)."""
    from .functions.osmetrics import collect_and_write

    n = collect_and_write(args.out, samples=args.samples,
                          interval_sec=args.interval, host_id=args.host_id)
    print(json.dumps({"out": args.out, "rows": n}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="sbo_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, fn in (("count", cmd_count), ("metrics", cmd_metrics),
                     ("run", cmd_run), ("follow", cmd_follow),
                     ("curate", cmd_curate)):
        sp = sub.add_parser(name)
        sp.add_argument("inputs", nargs="+")
        sp.add_argument("--config", default=None)
        sp.add_argument("--format", default="apache_combined")
        sp.add_argument("--out", default=None)
        sp.add_argument("--top-n", type=int, default=10)
        sp.add_argument("--group-size", type=int, default=8)
        sp.add_argument("--resume", action="store_true")
        sp.add_argument("--rounds", type=int, default=0,
                        help="follow: stop after N poll rounds (0=forever)")
        sp.add_argument("--interval", type=float, default=1.0,
                        help="follow: poll interval seconds")
        sp.add_argument("--from-end", action="store_true",
                        help="follow: StartFrom -1 (only new lines)")
        sp.add_argument("--pipeline", choices=("stats", "full"),
                        default="stats",
                        help="curate: shard-local quality stats, or the"
                             " checkpointed full curation (dedup + gate)")
        sp.set_defaults(fn=fn)
    pk = sub.add_parser("pack", help="resumable sequence packing over "
                        "token shards (one committed partition per shard)")
    pk.add_argument("inputs", nargs="+")
    pk.add_argument("--out", default=None)
    pk.add_argument("--seq-len", type=int, default=512)
    pk.add_argument("--resume", action="store_true")
    pk.add_argument("--curated", action="store_true",
                    help="quality gate + exact dedup before packing "
                         "(the log_pack_tokens_curated flagship)")
    pk.set_defaults(fn=cmd_pack)
    so = sub.add_parser("osmetrics", help="live host OS-metrics sink "
                        "(S5+K6: sample uptime/free -> Parquet)")
    so.add_argument("--out", required=True)
    so.add_argument("--samples", type=int, default=1)
    so.add_argument("--interval", type=float, default=30.0)
    so.add_argument("--host-id", type=int, default=1)
    so.set_defaults(fn=cmd_osmetrics)
    args = p.parse_args(argv)
    import ray

    owned_session = not ray.is_initialized()
    try:
        return args.fn(args)
    finally:
        # only tear down a session this invocation created (embedding
        # callers — tests, notebooks — keep theirs)
        if owned_session and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
