"""Oracle pipeline tests: window accumulator semantics
(metrics/SBOMetrics_test.go:26-38 + pinned eviction behavior,
FIXTURES.md §5.4) and synth determinism."""

from sbo_ray import synth
from sbo_ray.functions.sbometrics import SBOMetricsManager
from sbo_ray.oracle.pipeline import run_oracle, top_n


def test_window_accumulator_smoke():
    # SBOMetrics_test.go:26-38: windowSize=5, one add
    mgr = SBOMetricsManager(5)
    ev = mgr.add("f", 1, "", 202511172034, 100)
    assert ev is None
    assert list(mgr.flush()) == [("f", 1, "", 202511172034, 100)]


def test_window_eviction_emits_second_smallest():
    # Go quirk (SBOMetrics.go:189-201): keys[0] is overwritten before the
    # sort, so the oldest window w1 is orphaned (flushes at End) and w2 is
    # what gets evicted when the 4th distinct window arrives.
    mgr = SBOMetricsManager(3)
    for tw in (101, 102, 103):
        assert mgr.add("f", 1, "k", tw, 1) is None
    ev = mgr.add("f", 1, "k", 104, 1)
    assert ev == (102, 1)
    flushed = list(mgr.flush())
    assert ("f", 1, "k", 101, 1) in flushed  # orphan survives to End()
    assert ("f", 1, "k", 103, 1) in flushed
    assert ("f", 1, "k", 104, 1) in flushed


def test_window_late_drop():
    mgr = SBOMetricsManager(3)
    for tw in (101, 102, 103, 104):
        mgr.add("f", 1, "k", tw, 1)
    ev = mgr.add("f", 1, "k", 50, 7)  # older than all retained -> dropped
    assert ev is None
    assert mgr.dropped_late == 1
    total = sum(v for *_, v in mgr.flush()) + 1  # +1 evicted at tw=102
    assert total == 4  # the late 7 never lands anywhere


def test_same_window_adds_sum():
    mgr = SBOMetricsManager(3)
    mgr.add("f", 2, "", 101, 10)
    mgr.add("f", 2, "", 101, 32)
    assert list(mgr.flush()) == [("f", 2, "", 101, 42)]


def test_top_n_deterministic_tiebreak():
    counts = {"a": 5, "b": 5, "c": 3, "d": 1}
    assert top_n(counts, 2) == {"a": 5, "b": 5}
    assert top_n(counts, 3) == {"a": 5, "b": 5, "c": 3}


def test_synth_deterministic():
    a = synth.synth_lines(500, seed=7)
    b = synth.synth_lines(500, seed=7)
    assert a == b
    c = synth.synth_lines(500, seed=8)
    assert a != c


def test_oracle_exact_equals_faithful_on_chronological_input():
    # chronological per-source input -> no late drops -> the bounded-window
    # flush totals equal the exact groupby totals (SURVEY.md §2.6 A2)
    doc_ids, lines, sources = synth.synth_lines(3000, seed=11)
    cfg = synth.source_config(12)
    faithful = run_oracle(doc_ids, lines, sources, cfg, exact_totals=False)
    exact = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)
    assert faithful.dropped_late == 0

    def totals(metrics):
        agg = {}
        for s, t, k, tw, v in metrics:
            agg[(s, t, k, tw)] = agg.get((s, t, k, tw), 0) + v
        return agg

    assert totals(faithful.metrics) == totals(exact.metrics)
    assert faithful.parse_errors == exact.parse_errors
    assert faithful.parse_errors > 0  # synth injects ~1% garbage lines
    assert len(faithful.routed) == len(exact.routed)


def test_oracle_counters_consistent():
    doc_ids, lines, sources = synth.synth_lines(2000, seed=3)
    cfg = synth.source_config(12)
    res = run_oracle(doc_ids, lines, sources, cfg, exact_totals=True)
    n_parsed = res.counters["requests"]
    assert n_parsed + res.parse_errors == 2000
    assert sum(res.keyed_counters["methods"].values()) == n_parsed
    assert sum(res.keyed_counters["status_codes"].values()) == n_parsed
    # routed is a strict subset under the relevance filter
    assert 0 < len(res.routed) < n_parsed
