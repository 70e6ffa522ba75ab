"""Smoke tests for the benchmark itself (not part of the engine's suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once at a tiny scale in both modes, from a foreign
working directory, and checks the result line against BENCHMARK.json;
shows that the output check catches a corrupted result; and checks that
the benchmark refuses to run without the engine next to it.
"""

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(0, HERE)

import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_ROWS = 2000

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _bench(args, cwd, script=os.path.join(HERE, "run.py")):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in tracing.LAYER_METRICS.items()}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace, tmp_path):
    p = _bench(["--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--rows", str(SMOKE_ROWS)], cwd=tmp_path)
    assert p.returncode == 0, p.stderr[-4000:]
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1, p.stdout  # stdout carries only the result
    out = json.loads(lines[0])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, p.stderr[-4000:]
    assert out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))


def _pipeline_result(ref, tmp_path):
    routed = tmp_path / "routed.parquet"
    pq.write_table(ref["routed"], routed)
    return {"metrics": ref["metrics"], "keyed_counters": ref["counters"],
            "global_counters": dict(ref["globals"]), "routed": [str(routed)]}


def _bump(table, column, row=0):
    vals = table.column(column).to_pylist()
    vals[row] += 1
    i = table.column_names.index(column)
    return table.set_column(i, column, pa.array(vals, table.schema.field(column).type))


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    inputs = {w: workloads.make_inputs(w, 9, SMOKE_ROWS, cache)
              for w in ("checkpointed_run", "token_exchange")}
    refs = {w: workloads.reference(w, inputs[w], cache, "test")
            for w in inputs}
    return inputs, refs


def test_check_catches_corrupted_pipeline_result(small_inputs, tmp_path):
    ref = small_inputs[1]["checkpointed_run"]
    good = _pipeline_result(ref, tmp_path)
    assert workloads.check("checkpointed_run", good, ref) == []
    corrupted = [
        {**good, "metrics": _bump(ref["metrics"], "metric_value")},
        {**good, "keyed_counters": ref["counters"].slice(1)},
        {**good, "global_counters": {**good["global_counters"],
                                     "bytes_sent": good["global_counters"]["bytes_sent"] + 1}},
        {**good, "routed": []},
    ]
    for bad in corrupted:
        assert workloads.check("checkpointed_run", bad, ref), bad.keys()


def test_check_catches_corrupted_token_result(small_inputs):
    ref = small_inputs[1]["token_exchange"]
    good = {op: ref[op] for op in workloads.TOKEN_OPS}
    assert workloads.check("token_exchange", good, ref) == []
    for op, col in (("q_log_seq_dedup", "n_uniq_seq"),
                    ("q_log_pack_tokens", "frag_sum"),
                    ("q_log_pack_tokens_dedup", "seq_id")):
        bad = {**good, op: _bump(ref[op], col)}
        assert workloads.check("token_exchange", bad, ref), op


def test_stolen_share():
    # (busy, steal) ticks: 300 busy and 100 stolen -> a quarter withheld
    assert session.stolen_share((1000, 50), (1300, 150)) == 0.25
    assert session.stolen_share((1000, 50), (1000, 50)) == 0.0
    busy, steal = session.host_cpu_ticks()
    assert busy > 0 and steal >= 0


def test_refuses_without_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run fails fast and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(["--workload", "checkpointed_run", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path,
               script=str(tmp_path / "perfbench" / "run.py"))
    assert p.returncode != 0
    assert p.stdout.strip() == ""
