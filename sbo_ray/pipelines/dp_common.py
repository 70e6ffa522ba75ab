"""Shared infrastructure for the data-side family modules: pruned reads, partition sizing, the exchange keys and the distinct-user fold, and the bandwidth-cap rule.

Each data-side family module (``dp_*``) imports the helpers it uses
from here by name.
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from ..exchange import _cpus
from .logpipe import tune_context


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    tune_context()
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _parquet_num_rows(sf_dir: str, table: str) -> int:
    """Row count straight from the Parquet footer — sizing decisions
    (chunk counts, partition fan-outs) must not cost a full dataset
    execution the way ``ds.count()`` does."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows


def _user_key(t: pa.Table) -> np.ndarray:
    """Partition key of the per-user event exchanges: the int64 user_id."""
    return t.column("user_id").to_numpy()


def _col_key(col: str):
    """Partition key of an exchange keyed on the integer column ``col``."""
    return lambda t: t.column(col).to_numpy()


def _distinct_users(col: str, t: pa.Table) -> pa.Table:
    """Fold of the distinct-user exchanges: one user partition's
    (``col``, user_id) pairs -> distinct users per ``col`` value."""
    return t.group_by([col, "user_id"]).aggregate([]).group_by(col) \
        .aggregate([([], "count_all")]).rename_columns([col, "n_users"])


def _bw_task_cpus(target_concurrency: int) -> int:
    """CPU reservation for memory-BANDWIDTH-bound tasks (dense-matmul /
    large-temp stages: the ivf_assign rule). Memory bandwidth is a
    per-NODE resource that does NOT grow with core count, so the right
    invariant is "at most ``target_concurrency`` such tasks per node",
    expressed to Ray as num_cpus = node_cpus / target. Measured bands
    on the 32-cpu dev box: ~0.5 GB-temp-churn tasks peak at 16
    concurrent (36 s -> 6.9 s for the token window stage; 94 -> 7.9 s
    semdedup), heavier dense-count tasks at 8 (40-68 s -> 21-31 s for
    ngram pairs) — hence targets 16 and 8 at the call sites (hardware
    bandwidth/core ratios differ; re-measure with
    `python bench.py --tokens`)."""
    try:
        n_nodes = max(1, sum(1 for nd in ray.nodes() if nd.get("Alive")))
    except Exception:
        n_nodes = 1
    node_cpus = max(1, _cpus() // n_nodes)
    return max(1, round(node_cpus / target_concurrency))
