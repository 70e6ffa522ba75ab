"""Replicate the correctness driver: run __ray_entry__ queries vs DuckDB.

Usage:
    python tools/verify_queries.py [--sf /root/testdata/sf0.01] \
        [--cpus 32] [name ...]

With no names, runs every query that has an oracle_sql entry. For each
query: runs the Ray callable and the DuckDB SQL over pre-registered
views, sorts columns by name and rows by all values, normalizes floats
(round 6), and reports rows/schema/values match. Exit 1 on any mismatch.
The first output line names the Ray session's cpu count. The default,
32, is the session shape the correctness gate runs at; the cpu count
sets the exchange partition count P.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pandas as pd


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        res = res.to_pandas()
    elif isinstance(res, pa.Table):
        res = res.to_pandas()
    return res


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = np.round(df[c].astype("float64"), 6)
        elif df[c].dtype == object:
            # list-of-float columns (embeddings): round elementwise
            s = df[c]
            if len(s) and isinstance(s.iloc[0], (list, np.ndarray)):
                df[c] = s.map(lambda v: tuple(np.round(np.asarray(v, dtype="float64"), 6)))
    if len(df):
        df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("names", nargs="*")
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    print(f"cpus={int(ray.cluster_resources().get('CPU', 0))} sf={args.sf}",
          flush=True)
    import duckdb

    # this checkout's code, the same tree the Ray workers import
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{args.sf}/{t}.parquet')")

    # Bind the log-family oracle cache to the SAME scale the engine
    # reads (r4 verdict: calling oracle_sql() bare always gated log
    # queries against the sf0.01 cache regardless of --sf).
    qs, sqls = E.queries(), E.oracle_sql(args.sf)
    names = args.names or [n for n in qs if n in sqls]
    bad = []
    for name in names:
        if name not in qs:
            print(f"{name}: NOT IN queries()")
            bad.append(name)
            continue
        t0 = time.time()
        try:
            eng = _norm(_to_df(qs[name](args.sf)))
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: ENGINE ERROR {type(exc).__name__}: {exc}")
            bad.append(name)
            continue
        t1 = time.time()
        if name not in sqls:
            print(f"{name}: rows={len(eng)} (no oracle) eng={t1-t0:.1f}s")
            continue
        try:
            ora = _norm(con.sql(sqls[name]).df())
        except Exception as exc:  # noqa: BLE001
            print(f"{name}: ORACLE ERROR {type(exc).__name__}: {exc}")
            bad.append(name)
            continue
        rows = len(eng) == len(ora)
        schema = list(eng.columns) == list(ora.columns)
        if rows and schema:
            try:
                vals = bool(
                    eng.astype(str).values.tolist() == ora.astype(str).values.tolist()
                )
            except Exception:  # noqa: BLE001
                vals = False
        else:
            vals = False
        status = "PASS" if (rows and schema and vals) else "FAIL"
        print(f"{name}: {status} rows={len(eng)}/{len(ora)} "
              f"schema={schema} values={vals} eng={t1-t0:.1f}s")
        if status == "FAIL":
            bad.append(name)
            if not schema:
                print(f"  eng cols: {list(eng.columns)}")
                print(f"  ora cols: {list(ora.columns)}")
            elif rows and len(eng):
                neq = (eng.astype(str).values != ora.astype(str).values)
                r, c = np.argwhere(neq)[0] if neq.any() else (0, 0)
                if neq.any():
                    print(f"  first diff row {r} col {eng.columns[c]}: "
                          f"eng={eng.iloc[r, c]!r} ora={ora.iloc[r, c]!r}")
    print(json.dumps({"checked": len(names), "failed": bad}))
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
