"""Count-min top-K vs exact top-K (the north-star approximate scale
path for heavy hitters)."""

import numpy as np
import pyarrow as pa
import pytest


def test_cms_estimates_upper_bound_and_tight():
    from sbo_ray.stages.sketch import CountMinSketch, _hash_keys

    rng = np.random.RandomState(0)
    keys = [f"k{i}" for i in range(500)]
    counts = rng.zipf(1.5, 500).astype(np.int64)
    cms = CountMinSketch(width=4096, depth=4)
    cms.add_many(_hash_keys(keys), counts)
    est = cms.estimate(_hash_keys(keys))
    assert (est >= counts).all()            # CMS never underestimates
    assert (est - counts).sum() < counts.sum() * 0.05  # and is tight here


def test_topk_count_min_matches_exact_on_paths(ray_session):
    import ray.data as rd

    from sbo_ray import synth
    from sbo_ray.config import JobConfig
    from sbo_ray.pipelines import logpipe
    from sbo_ray.stages.sketch import topk_count_min

    import tempfile

    doc_ids, lines, sources = synth.synth_lines(5000, seed=42)
    cfg = synth.source_config(12)
    table = synth.build_table(doc_ids, lines, sources)
    d = tempfile.mkdtemp()
    paths = synth.write_sharded(table, d, n_shards=4)
    job = JobConfig.from_format_map(cfg)
    enriched = logpipe.enriched_dataset(paths, job).map_batches(
        lambda t: t.filter(t.column("parse_ok")), batch_format="pyarrow"
    )
    approx = topk_count_min(enriched, "path", k=10).to_pandas()

    kc = logpipe.keyed_counters_dataset(logpipe.enriched_dataset(paths, job))
    df = kc.to_pandas()
    paths_counts = (
        df[df["dimension"] == "paths"].groupby("key_value")["cnt"].sum()
        .sort_values(ascending=False)
    )
    exact_top = set(paths_counts.head(10).index)
    # heavy hitters are recovered (allow boundary ties to differ)
    overlap = len(set(approx["key_value"]) & exact_top)
    assert overlap >= 8
    # estimates upper-bound the true counts
    for key, est in zip(approx["key_value"], approx["est_count"]):
        assert est >= paths_counts.get(key, 0)


def test_kll_rank_error_bound():
    """KLL with k=256 holds the published O(1/k) rank-error bound with
    plenty of slack (2% of n) on a heavy-tailed 100k stream."""
    from sbo_ray.stages.kll import KLLSketch

    rng = np.random.RandomState(1)
    data = rng.lognormal(3.0, 1.5, size=100_000)
    sk = KLLSketch(256)
    for chunk in np.array_split(data, 40):
        sk.add(chunk)
    assert sk.n == len(data)
    srt = np.sort(data)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        est = sk.quantile(q)
        rank = np.searchsorted(srt, est, side="right")
        assert abs(rank - q * len(data)) <= 0.02 * len(data), q
    # retained-item memory is sketch-sized, not input-sized
    assert sum(len(lv) for lv in sk.levels) < 8 * 256


def test_kll_merge_law_and_roundtrip():
    """Merging per-chunk sketches meets the same rank-error bound as a
    single-stream sketch (mergeability is the whole point: one sketch
    per Ray block, tree-combined), and the wire format round-trips."""
    from sbo_ray.stages.kll import KLLSketch

    rng = np.random.RandomState(7)
    data = rng.exponential(50.0, size=80_000)
    merged = KLLSketch(256)
    for chunk in np.array_split(data, 16):
        part = KLLSketch(256)
        part.add(chunk)
        part = KLLSketch.from_bytes(part.to_bytes())  # ship like a block
        merged.merge(part)
    assert merged.n == len(data)
    srt = np.sort(data)
    for q in (0.5, 0.9, 0.99):
        rank = np.searchsorted(srt, merged.quantile(q), side="right")
        assert abs(rank - q * len(data)) <= 0.02 * len(data), q


def test_kll_events_quantiles_query_accuracy(ray_session):
    """The events-side KLL twin brackets the exact per-type quantiles
    at q +/- 0.05 (same contract as the log-side twin)."""
    from sbo_ray.pipelines.dp_rel_events import (
        events_quantiles, events_quantiles_kll,
    )

    SF = "/root/testdata/sf0.001"
    est = events_quantiles_kll(SF).to_pandas().set_index("event_type")
    lo = events_quantiles(SF, qs=(0.45, 0.85, 0.94)).to_pandas() \
        .set_index("event_type")
    hi = events_quantiles(SF, qs=(0.55, 0.95, 1.0)).to_pandas() \
        .set_index("event_type")
    assert sorted(est.index) == sorted(lo.index)
    for col in ("p50", "p90", "p99"):
        j = est[[col]].join(lo[[col]], rsuffix="_lo").join(
            hi[[col]], rsuffix="_hi")
        assert (j[col] >= j[f"{col}_lo"]).all(), col
        assert (j[col] <= j[f"{col}_hi"]).all(), col


def test_kll_bytes_quantiles_query_accuracy(ray_session):
    """The KLL twin brackets the exact per-source percentiles: each
    estimate lies between the exact quantiles at q +/- 0.05 (rank-error
    form of the contract; at sf0.001 block sizes the sketch rarely
    compacts at all, so the slack is generous)."""
    from sbo_ray.pipelines.queries import (
        q_log_bytes_quantiles,
        q_log_bytes_quantiles_kll,
    )

    SF = "/root/testdata/sf0.001"
    est = q_log_bytes_quantiles_kll(SF).to_pandas().set_index("source")
    lo = q_log_bytes_quantiles(SF, qs=(0.45, 0.85, 0.94)).to_pandas() \
        .set_index("source")
    hi = q_log_bytes_quantiles(SF, qs=(0.55, 0.95, 1.0)).to_pandas() \
        .set_index("source")
    assert sorted(est.index) == sorted(lo.index)
    for col in ("p50", "p90", "p99"):
        j = est[[col]].join(lo[[col]], rsuffix="_lo").join(
            hi[[col]], rsuffix="_hi")
        assert (j[col] >= j[f"{col}_lo"]).all(), col
        assert (j[col] <= j[f"{col}_hi"]).all(), col


def test_kll_bytes_quantiles_merge_order_invariant(ray_session, monkeypatch):
    """The per-(block, source) KLL sketches merge in a fixed order: with
    ``X.fold``'s partials reversed (another block completion order),
    the quantile table is identical. sf0.01's blocks are large enough
    for the compactors to fire, where a KLL merge stops commuting."""
    from sbo_ray import exchange as X
    from sbo_ray.pipelines.queries import q_log_bytes_quantiles_kll

    SF = "/root/testdata/sf0.01"
    want = q_log_bytes_quantiles_kll(SF)
    fold = X.fold

    def reversed_fold(*a, **k):
        t = fold(*a, **k)
        return t.take(pa.array(np.arange(t.num_rows)[::-1]))

    monkeypatch.setattr(X, "fold", reversed_fold)
    assert q_log_bytes_quantiles_kll(SF).equals(want)
