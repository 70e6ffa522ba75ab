"""Order-sensitive compat mode: faithful bounded-window metric semantics.

The default engine computes exact order-insensitive totals (batch
groupby), which equals the reference's add-merge sink totals on
chronological input (SURVEY.md §2.6 A2/A3). This module reproduces the
reference's *streaming* semantics bit-for-bit — bounded window eviction,
the keys[0]-overwrite quirk, and silent late-data drops
(metrics/SBOMetrics.go:183-210) — for out-of-order inputs:

    enriched -> ordered metric fan-out (arrival order = input row order)
             -> hash exchange on (source, metric_type, key_value)
             -> per key: replay the Go accumulator in arrival
                order -> emissions (evictions + End() flush)

The per-key replay is sequential by construction (the reference's state
is per (file, type, key), so key-partitioned replay is exact); the
exchange (``exchange.part_exchange``) distributes keys across workers.
Arrival order is the input row order, tracked with an explicit
``arrival`` column derived from the per-shard row position (Ray blocks
preserve intra-block order; ``doc_id`` carries the global synth order
for the tests' inputs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import exchange as X
from ..functions.sbometrics import SBOMetricsManager
from .metrics import fanout_long

COMPAT_SCHEMA = pa.schema([
    ("source", pa.string()),
    ("metric_type", pa.int32()),
    ("key_value", pa.string()),
    ("time_window", pa.int64()),
    ("metric_value", pa.int64()),
])


ORDERED_SCHEMA = pa.schema([
    ("source", pa.string()),
    ("metric_type", pa.int32()),
    ("key_value", pa.string()),
    ("time_window", pa.int64()),
    ("value", pa.int64()),
    ("arrival", pa.string()),
])


def ordered_fanout(batch: pa.Table, order_col: str = "doc_id") -> pa.Table:
    """Enriched batch -> long metric rows WITH the arrival-order key:
    ``metrics.fanout_long``'s emissions without the pre-aggregation
    (the accumulator is order-sensitive)."""
    batch = batch.append_column(
        "arrival", batch.column(order_col).cast(pa.string()))
    return fanout_long(batch, carry="arrival").rename_columns(
        ORDERED_SCHEMA.names)


def replay_group(g: pd.DataFrame, window_size: int = 3,
                 replace_existing: bool = False) -> pd.DataFrame:
    """Replay one (source, metric_type, key_value) group through the
    faithful Go accumulator in arrival order; emit evictions + flush.

    ``replace_existing`` selects the sink merge policy
    (db/mysqldb.go:147-151): add-merge (default; re-emissions for the
    same window accumulate) vs replace (ON DUPLICATE KEY UPDATE
    metric_value=VALUES: last write wins). They differ only when a
    window is re-emitted, i.e. evicted and later re-created by
    out-of-order arrivals."""
    g = g.sort_values("arrival", kind="stable")
    src = g["source"].iloc[0]
    mtype = int(g["metric_type"].iloc[0])
    key = g["key_value"].iloc[0]
    mgr = SBOMetricsManager(window_size)
    emitted: list[tuple[int, int]] = []
    for tw, val in zip(g["time_window"].to_numpy(), g["value"].to_numpy()):
        ev = mgr.add(src, mtype, key, int(tw), int(val))
        if ev is not None:
            emitted.append(ev)
    for (_, _, _, tw, val) in mgr.flush():
        emitted.append((tw, val))
    acc: dict[int, int] = {}
    for tw, val in emitted:
        if replace_existing:
            acc[tw] = val
        else:
            acc[tw] = acc.get(tw, 0) + val
    return pd.DataFrame({
        "source": src,
        "metric_type": np.int32(mtype),
        "key_value": key,
        "time_window": np.array(sorted(acc), dtype=np.int64),
        "metric_value": np.array([acc[tw] for tw in sorted(acc)], dtype=np.int64),
    })


# ---- monotonic fast path (VERDICT r2 item 2) -------------------------------
#
# Correctness argument (why per-window sums equal the faithful replay for
# an ELIGIBLE group; the eligibility test is deliberately conservative):
#
# A group is eligible iff, in arrival order, (a) its time_windows are
# non-decreasing and (b) every add's value is >= 1. Under (a)+(b):
#
# 1. No late drop. A drop needs keys[0] == tw after the overwrite+sort
#    (SBOMetrics.go:192-196), i.e. tw <= every retained key. Retained
#    keys are earlier arrivals (or the 0 sentinels); with non-decreasing
#    arrivals tw >= all of them, and equality with ALL retained keys
#    would need the buffer filled with duplicates of tw — reachable only
#    through the ``Values[tw] < 1`` re-insertion quirk, which (b) rules
#    out (stored value is a sum of >=1 adds, never < 1).
# 2. Every tw's adds accumulate into one cell. The first add inserts
#    values[tw]; later equal-tw adds hit the ``>= 1`` accumulate branch
#    (possible under (a) only while tw is still the maximum, and a
#    window leaves ``values`` only by eviction of keys[0] < max, so the
#    current maximum is never evicted).
# 3. Each cell is emitted exactly once (eviction pops it; re-creation
#    would need a later arrival of an already-evicted tw < max — a
#    decreasing arrival, excluded by (a)). Hence add-merge and replace
#    sink policies coincide and both equal the plain per-window sums.
#
# The eviction/keys[0]-overwrite quirk only produces *orphaned* windows
# (dropped from keys, value retained), which still accumulate and still
# flush — totals unaffected. So the quirks only bite on reordered
# arrivals or zero-valued adds, exactly what eligibility excludes;
# ineligible groups take the faithful Python replay unchanged.
# Adversarial coverage: tests/test_compat_mode.py (OOO fixtures),
# test_compat_fastpath.py (property check vs replay, zero-value corner).

# The distributed representation is RUN STATISTICS, not raw rows: a
# "run" is a maximal stretch of consecutive same-window adds (in arrival
# order, within one block portion). A run is fully described by
# (n_adds, lead_zeros, first_nonzero, sum) because per-add granularity
# only matters while the stored value is < 1 (the re-insertion quirk):
# once a window's stored value is >= 1 every further add of that run
# takes the pure accumulate branch, so their order and individual values
# collapse into the sum. ``_replay_runs`` below simulates at most
# window_size+2 individual adds per run and bulk-accumulates the rest —
# exact for ARBITRARY sequences, O(runs) instead of O(adds). Splitting
# a true run at a block boundary is harmless: the simulator's per-run
# entry check (stored >= 1?) makes run partitioning associative.

COMPAT_PARTIAL_SCHEMA = pa.schema([
    ("kind", pa.int8()),          # 0 = run-statistics row, 1 = group-portion summary
    ("source", pa.string()),
    ("metric_type", pa.int32()),
    ("key_value", pa.string()),
    ("time_window", pa.int64()),
    ("value", pa.int64()),        # run sum
    ("n_adds", pa.int64()),
    ("lead_zeros", pa.int64()),
    ("first_nz", pa.int64()),
    ("run_seq", pa.int64()),      # arrival order of runs within the block
    ("mono", pa.int8()),
    ("min_tw", pa.int64()),
    ("max_tw", pa.int64()),
    ("min_arr", pa.string()),
    ("max_arr", pa.string()),
    ("min_val", pa.int64()),
])

_GKEYS = ["source", "metric_type", "key_value"]


def compat_partial(t: pa.Table) -> pa.Table:
    """Block-local compat partial: one sorted vectorized scan emitting
    (a) per-run sufficient statistics and (b) one summary row per group
    PORTION in this block (monotone flag, tw range, arrival range, min
    value). Arrival order within a block is (arrival, original row
    position) — arrivals are unique per group (one doc emits at most one
    row per (metric_type, key)), the position tiebreak is belt and
    braces for determinism."""
    if t.num_rows == 0:
        return COMPAT_PARTIAL_SCHEMA.empty_table()
    df = t.to_pandas()
    df["_pos"] = np.arange(len(df))
    df = df.sort_values(_GKEYS + ["arrival", "_pos"], kind="stable")
    src = df["source"].to_numpy()
    mt = df["metric_type"].to_numpy()
    kv = df["key_value"].to_numpy()
    n = len(df)
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (src[1:] != src[:-1]) | (mt[1:] != mt[:-1]) | (kv[1:] != kv[:-1])
    tw = df["time_window"].to_numpy()
    val = df["value"].to_numpy()
    ok_step = np.ones(n, dtype=bool)
    ok_step[1:] = tw[1:] >= tw[:-1]
    ok_step |= new_group
    df["_gid"] = np.cumsum(new_group) - 1
    df["_ok"] = ok_step

    g = df.groupby("_gid", sort=False)
    summ = g.agg(
        source=("source", "first"), metric_type=("metric_type", "first"),
        key_value=("key_value", "first"), mono=("_ok", "min"),
        min_tw=("time_window", "min"), max_tw=("time_window", "max"),
        min_arr=("arrival", "first"), max_arr=("arrival", "last"),
        min_val=("value", "min"),
    )

    # ---- run statistics (all numpy; no per-row Python) ---------------------
    new_run = new_group.copy()
    new_run[1:] |= tw[1:] != tw[:-1]
    rid = np.cumsum(new_run) - 1
    nruns = int(rid[-1]) + 1
    pos = np.arange(n)
    run_starts = pos[new_run]                     # len nruns
    n_adds = np.diff(np.append(run_starts, n))
    vsum = np.zeros(nruns, dtype=np.int64)
    np.add.at(vsum, rid, val)
    pos_in_run = pos - run_starts[rid]
    nzmask = val >= 1
    first_nz_pos = np.full(nruns, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_nz_pos, rid[nzmask], pos_in_run[nzmask])
    has_nz = first_nz_pos < n_adds
    lead_zeros = np.where(has_nz, first_nz_pos, n_adds)
    first_nz = np.zeros(nruns, dtype=np.int64)
    first_nz[has_nz] = val[(run_starts + lead_zeros)[has_nz]]
    # each run carries its portion's min_arr: the cross-block order key
    # (within a portion run_seq orders; across portions min_arr does)
    arr = df["arrival"].to_numpy()
    portion_starts = pos[new_group]
    pid_run = df["_gid"].to_numpy()[run_starts]
    run_min_arr = arr[portion_starts[pid_run]]

    def col(vals, typ):
        return pa.array(vals, type=typ)

    run_t = pa.Table.from_arrays([
        col(np.zeros(nruns, np.int8), pa.int8()),
        col(src[run_starts], pa.string()), col(mt[run_starts], pa.int32()),
        col(kv[run_starts], pa.string()), col(tw[run_starts], pa.int64()),
        col(vsum, pa.int64()), col(n_adds.astype(np.int64), pa.int64()),
        col(lead_zeros.astype(np.int64), pa.int64()), col(first_nz, pa.int64()),
        col(np.arange(nruns, dtype=np.int64), pa.int64()),
        col(np.zeros(nruns, np.int8), pa.int8()),
        col(np.zeros(nruns, np.int64), pa.int64()),
        col(np.zeros(nruns, np.int64), pa.int64()),
        col(run_min_arr, pa.string()), col([""] * nruns, pa.string()),
        col(np.zeros(nruns, np.int64), pa.int64()),
    ], schema=COMPAT_PARTIAL_SCHEMA)
    n_g = len(summ)
    summ_t = pa.Table.from_arrays([
        col(np.ones(n_g, np.int8), pa.int8()),
        col(summ["source"], pa.string()), col(summ["metric_type"], pa.int32()),
        col(summ["key_value"], pa.string()),
        col(np.zeros(n_g, np.int64), pa.int64()),
        col(np.zeros(n_g, np.int64), pa.int64()),
        col(np.zeros(n_g, np.int64), pa.int64()),
        col(np.zeros(n_g, np.int64), pa.int64()),
        col(np.zeros(n_g, np.int64), pa.int64()),
        col(np.zeros(n_g, np.int64), pa.int64()),
        col(summ["mono"].astype(np.int8), pa.int8()),
        col(summ["min_tw"], pa.int64()), col(summ["max_tw"], pa.int64()),
        col(summ["min_arr"], pa.string()), col(summ["max_arr"], pa.string()),
        col(summ["min_val"], pa.int64()),
    ], schema=COMPAT_PARTIAL_SCHEMA)
    return pa.concat_tables([run_t, summ_t])


def _classify_groups(summary_df: pd.DataFrame):
    """Group-portion summaries -> (run_replay_groups, overlap_groups).
    Portions are ordered by arrival range (block portions of one group
    never interleave because arrivals are globally unique; an
    overlapping or equal range means run order across portions is
    unknowable -> those groups take the raw second-pass fallback).
    Groups absent from both frames are sum-eligible."""
    sdf = summary_df.sort_values(_GKEYS + ["min_arr"], kind="stable")
    grp = sdf.groupby(_GKEYS, sort=False)
    prev_max_arr = grp["max_arr"].shift()
    prev_max_tw = grp["max_tw"].shift()
    overlap = ~(prev_max_arr.isna() | (prev_max_arr < sdf["min_arr"]))
    ok = (
        sdf["mono"].astype(bool)
        & (sdf["min_val"] >= 1)
        & ~overlap
        & (prev_max_tw.isna() | (prev_max_tw <= sdf["min_tw"]))
    )
    sdf = sdf.assign(_ok=ok, _ov=overlap)
    agg = sdf.groupby(_GKEYS, sort=False).agg(good=("_ok", "all"), ov=("_ov", "any"))
    bad = agg[~agg["good"]].reset_index()
    overlap_g = bad[bad["ov"]][_GKEYS]
    run_replay_g = bad[~bad["ov"]][_GKEYS]
    return run_replay_g, overlap_g


def _replay_runs(runs: pd.DataFrame, window_size: int,
                 replace_existing: bool) -> pd.DataFrame:
    """Exact replay of ineligible groups from run statistics, O(runs).

    ``runs`` holds every run row of the affected groups, sorted by
    (group, portion min_arr, run_seq) — i.e. true arrival order. Per
    run: individually simulate the leading zero-valued adds (capped at
    window_size+1 — beyond that the key buffer is saturated with this
    window and every further stored-<1 add is a guaranteed silent drop)
    and the first nonzero add, then bulk-accumulate the remainder iff
    the stored value is >= 1 (the pure accumulate branch); a stored
    value still < 1 means the first nonzero add was late-dropped, and
    every remaining add of the run drops identically."""
    out_rows: list[pd.DataFrame] = []
    src_a = runs["source"].to_numpy()
    mt_a = runs["metric_type"].to_numpy()
    kv_a = runs["key_value"].to_numpy()
    tw_a = runs["time_window"].to_numpy()
    sum_a = runs["value"].to_numpy()
    n_a = runs["n_adds"].to_numpy()
    lz_a = runs["lead_zeros"].to_numpy()
    fnz_a = runs["first_nz"].to_numpy()
    n = len(runs)
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = ((src_a[1:] != src_a[:-1]) | (mt_a[1:] != mt_a[:-1])
                     | (kv_a[1:] != kv_a[:-1]))
    starts = np.flatnonzero(new_group)
    bounds = np.append(starts, n)
    for s, e in zip(bounds[:-1], bounds[1:]):
        src, mtype, key = src_a[s], int(mt_a[s]), kv_a[s]
        mgr = SBOMetricsManager(window_size)
        emitted: list[tuple[int, int]] = []

        def add(tw, v):
            ev = mgr.add(src, mtype, key, int(tw), int(v))
            if ev is not None:
                emitted.append(ev)

        for i in range(s, e):
            tw = int(tw_a[i])
            m = mgr.metrics.get((src, mtype, key))
            stored = m.values.get(tw, 0) if m is not None else 0
            if stored >= 1:
                # whole run accumulates (zeros included)
                mgr.metrics[(src, mtype, key)].values[tw] += int(sum_a[i])
                continue
            lz, na = int(lz_a[i]), int(n_a[i])
            for _ in range(min(lz, window_size + 1)):
                add(tw, 0)
            if na > lz:
                add(tw, int(fnz_a[i]))
                rest = na - lz - 1
                if rest > 0:
                    m2 = mgr.metrics[(src, mtype, key)]
                    if m2.values.get(tw, 0) >= 1:
                        m2.values[tw] += int(sum_a[i]) - int(fnz_a[i])
                    # else: first nonzero was late-dropped -> the rest
                    # of the run drops identically (no state change)
        for (_, _, _, tw, v) in mgr.flush():
            emitted.append((tw, v))
        acc: dict[int, int] = {}
        for tw, v in emitted:
            acc[tw] = v if replace_existing else acc.get(tw, 0) + v
        out_rows.append(pd.DataFrame({
            "source": src, "metric_type": np.int32(mtype), "key_value": key,
            "time_window": np.array(sorted(acc), dtype=np.int64),
            "metric_value": np.array([acc[tw] for tw in sorted(acc)],
                                     dtype=np.int64),
        }))
    if not out_rows:
        return pd.DataFrame(columns=[f.name for f in COMPAT_SCHEMA])
    return pd.concat(out_rows, ignore_index=True)


def _compat_shard(t, P: int):
    """Phase 1 of the compat-partial exchange: split one partial block's
    rows (runs + portion summaries together) by a stable hash of the
    group key into P shards (``num_returns=P``), so each combine task
    pulls only its groups' rows. Routing hash is crc32 over the UNIQUE
    key strings (content-deterministic across tasks and processes —
    pd.util.hash_array's categorize path is NOT: the same string can
    hash differently in different arrays), expanded through dictionary
    codes (``exchange.crc_hash``). No partial row ever lands on the
    driver."""
    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t, preserve_index=False)
    return X.split(X.crc_hash(_group_key_expr(t)) % P, P, t)


def _compat_combine(window_size: int, replace_existing: bool, *shards):
    """Phase 2: one hash partition's partial rows — ALL portions of its
    groups, by the phase-1 routing — classified and finalized locally:
    per-window Arrow sums for eligible groups, run-statistics replay
    (O(runs), ``_replay_runs``) for groups that reorder or carry
    zero-valued adds. Returns (final COMPAT_SCHEMA rows, overlap group
    keys); overlap groups (interleaved arrival ranges across blocks) are
    the irreducible corner the caller re-replays from raw rows."""
    import pyarrow.compute as pc

    tables = [s for s in shards if s is not None and s.num_rows]
    if not tables:
        return COMPAT_SCHEMA.empty_table(), []
    allt = pa.concat_tables(tables)
    kinds = allt.column("kind")
    runs = allt.filter(pc.equal(kinds, 0))
    summary = allt.filter(pc.equal(kinds, 1)).select(
        _GKEYS + ["mono", "min_tw", "max_tw", "min_arr", "max_arr", "min_val"])
    run_replay_g, overlap_g = _classify_groups(summary.to_pandas())

    def keyset(df: pd.DataFrame) -> pa.Array:
        return pa.array([
            f"{s}\x00{m}\x00{k}" for s, m, k in
            zip(df["source"], df["metric_type"], df["key_value"])
        ], type=pa.string())

    pieces: list[pa.Table] = []
    bad_all = pd.concat([run_replay_g, overlap_g], ignore_index=True)
    run_keys = _group_key_expr(runs)
    if len(bad_all):
        good_runs = runs.filter(
            pc.invert(pc.is_in(run_keys, value_set=keyset(bad_all))))
    else:
        good_runs = runs
    if good_runs.num_rows:
        pieces.append(
            good_runs.select(_GKEYS + ["time_window", "value"])
            .group_by(_GKEYS + ["time_window"])
            .aggregate([("value", "sum")])
            .rename_columns(_GKEYS + ["time_window", "metric_value"])
            .cast(COMPAT_SCHEMA)
        )
    if len(run_replay_g):
        # true arrival order of a group's runs: (portion min_arr,
        # run_seq) — portions of these groups are non-overlapping (the
        # overlapping case goes to the raw fallback)
        rr = runs.filter(pc.is_in(run_keys, value_set=keyset(run_replay_g)))
        rr_df = rr.to_pandas().sort_values(
            _GKEYS + ["min_arr", "run_seq"], kind="stable")
        replay_df = _replay_runs(rr_df, window_size, replace_existing)
        if len(replay_df):
            pieces.append(pa.Table.from_pandas(
                replay_df, preserve_index=False).cast(COMPAT_SCHEMA))
    out = pa.concat_tables(pieces) if pieces else COMPAT_SCHEMA.empty_table()
    return out, (keyset(overlap_g).to_pylist() if len(overlap_g) else [])


def _group_key_expr(t: pa.Table):
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        t.column("source").cast(pa.string()),
        t.column("metric_type").cast(pa.string()),
        t.column("key_value").cast(pa.string()),
        "\x00",
    )


def _replay(ds, partial, window_size: int, replace_existing: bool) -> list:
    """Full per-group replay: ``replay_group`` on every (source,
    metric_type, key_value) group of ``partial``'s ordered fan-out rows,
    the groups routed by ``exchange.crc_hash`` of the group key through
    ``exchange.part_exchange``. Returns one COMPAT_SCHEMA ref per
    partition."""
    def fold(t: pa.Table) -> pd.DataFrame:
        return pd.concat([
            replay_group(g, window_size, replace_existing)
            for _, g in t.to_pandas().groupby(_GKEYS, sort=False,
                                              dropna=False)],
            ignore_index=True)

    return X.part_exchange(ds, partial,
                           lambda t: X.crc_hash(_group_key_expr(t)), fold,
                           COMPAT_SCHEMA)


def metrics_dataset_compat(enriched, window_size: int = 3,
                           replace_existing: bool = False, fast: bool = True):
    """Faithful streaming-window metric totals as a Ray pipeline.

    ``fast=True`` (default): monotonic fast path — one distributed pass
    computes per-run sufficient statistics plus per-group order
    summaries, which then take a two-phase hash exchange over raw Ray
    tasks (the ``dp_dedup._label_prop`` layout): each partial block is split
    by group-key hash into P shards, and P combine tasks — each seeing
    every portion of its groups — classify locally, finalize eligible
    groups from Arrow per-window sums (see the correctness argument
    above), and replay ONLY groups that actually reorder (or carry
    zero-valued adds) through the O(runs) run-statistics simulator. The
    driver holds block/shard REFS, the P result refs, and the overlap
    group keys — never partial rows (round-3's driver concat of all
    run partials was the scale cliff on OOO-heavy high-cardinality
    corpora). Chronological input therefore costs ~the exact path; the
    replay cost scales with the reordered fraction, not the input. The
    rare overlap corner re-executes the (lazy) enriched pipeline
    filtered to those groups, through the full replay (``_replay``).

    ``fast=False``: the full per-group replay of every group
    (``_replay``; used by tests as the semantics reference)."""
    import ray
    import ray.data as rd

    if not fast:
        return rd.from_arrow_refs(_replay(enriched, ordered_fanout,
                                          window_size, replace_existing))
    refs, _, nbytes = X.sized_block_refs(enriched.map_batches(
        ordered_fanout, batch_format="pyarrow").map_batches(
        compat_partial, batch_format="pyarrow"))
    if not refs:
        return rd.from_arrow(COMPAT_SCHEMA.empty_table())
    import pyarrow.compute as pc

    P = X.n_parts(nbytes)
    table_refs, key_refs = X.combine(
        _compat_combine, X.shard(_compat_shard, refs, P, P),
        window_size, replace_existing, num_returns=2)
    overlap_keys: set[str] = set()
    for ks in ray.get(key_refs):
        overlap_keys.update(ks)
    if overlap_keys:
        # irreducible corner (interleaved arrival ranges across blocks —
        # requires non-unique or cross-shard-reordered doc_ids): raw
        # second-pass replay, filtered to those groups (driver holds
        # only the O(overlap groups) key list)
        ov_ref = ray.put(pa.array(sorted(overlap_keys), type=pa.string()))

        def only_bad(t: pa.Table) -> pa.Table:
            t = ordered_fanout(t)
            return t.filter(
                pc.is_in(_group_key_expr(t), value_set=ray.get(ov_ref)))

        table_refs += _replay(enriched, only_bad, window_size,
                              replace_existing)
    return rd.from_arrow_refs(table_refs)
