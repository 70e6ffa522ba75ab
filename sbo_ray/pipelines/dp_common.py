"""Shared infrastructure for the datapipe family modules: pruned reads, partition sizing, and the bandwidth-cap rule.

Mechanical r5 split of pipelines/datapipe.py (the facade re-exports
everything; import from ``datapipe`` unless you need this module's
namespace specifically, e.g. to monkeypatch a helper its functions
actually resolve). ``__all__`` lists underscore helpers on purpose:
the chained star-imports and the facade must see them.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions import dedup as D
from ..functions import similarity as S
from ..functions import text as T
from ..functions.multimodal import DecoderStub, to_payload_table
from .logpipe import _cpus, tune_context



def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    tune_context()
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _parquet_num_rows(sf_dir: str, table: str) -> int:
    """Row count straight from the Parquet footer — sizing decisions
    (chunk counts, partition fan-outs) must not cost a full dataset
    execution the way ``ds.count()`` does."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows




def _bw_task_cpus(target_concurrency: int) -> int:
    """CPU reservation for memory-BANDWIDTH-bound tasks (dense-matmul /
    large-temp stages: the ivf_assign rule). Memory bandwidth is a
    per-NODE resource that does NOT grow with core count, so the right
    invariant is "at most ``target_concurrency`` such tasks per node",
    expressed to Ray as num_cpus = node_cpus / target. Measured bands
    on the 32-cpu dev box: ~0.5 GB-temp-churn tasks peak at 16
    concurrent (36 s -> 6.9 s for the token window stage; 94 -> 7.9 s
    semdedup), heavier dense-count tasks at 8 (40-68 s -> 21-31 s for
    ngram pairs) — hence targets 16 and 8 at the call sites. Override
    per cluster with SBO_BW_TASK_CPUS (hardware bandwidth/core ratios
    differ; re-measure with `python bench.py --tokens`)."""
    env = os.environ.get("SBO_BW_TASK_CPUS")
    if env:
        return max(1, int(env))
    try:
        n_nodes = max(1, sum(1 for nd in ray.nodes() if nd.get("Alive")))
    except Exception:
        n_nodes = 1
    node_cpus = max(1, _cpus() // n_nodes)
    return max(1, round(node_cpus / target_concurrency))


__all__ = [
    "_read",
    "_parquet_num_rows",
    "_bw_task_cpus",
]
