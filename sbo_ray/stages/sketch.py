"""Count-min-sketch top-K: the approximate scale path for heavy hitters.

North-star operator: "top-K paths via per-partition count-min + merge".
Exact top-K (``logpipe.top_n_dataset``) is the oracle; this module is the
10^12-row mode where exact per-key counting is too wide:

- each block builds a count-min sketch + its local top candidates
  (numpy, vectorized hashing);
- sketches are linear, so the driver (or a tree) merges them by
  addition and unions the candidate sets;
- the merged sketch upper-bounds each candidate's count; the global
  top-K comes from the merged estimates.

Guarantee: any key with true count > (total x eps) survives the
per-block candidate cut with high probability, and CMS estimates are
within eps x total with prob 1-delta (standard CMS bounds; width/depth
chosen from eps/delta).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..codec import one_array


class CountMinSketch:
    __slots__ = ("width", "depth", "table", "seeds")

    def __init__(self, width: int = 2048, depth: int = 4) -> None:
        self.width = width
        self.depth = depth
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.seeds = np.arange(1, depth + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

    def _rows(self, hashes: np.ndarray) -> np.ndarray:
        """(depth, n) bucket indices from base hashes (splitmix scramble)."""
        h = hashes[None, :] * self.seeds[:, None]
        h ^= h >> np.uint64(31)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        return (h % np.uint64(self.width)).astype(np.int64)

    def add_many(self, hashes: np.ndarray, counts: np.ndarray) -> None:
        rows = self._rows(hashes)
        for d in range(self.depth):
            np.add.at(self.table[d], rows[d], counts)

    def estimate(self, hashes: np.ndarray) -> np.ndarray:
        rows = self._rows(hashes)
        est = self.table[0][rows[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self.table[d][rows[d]])
        return est

    def merge(self, other: "CountMinSketch") -> None:
        self.table += other.table


def _hash_keys(keys: list[str]) -> np.ndarray:
    """64-bit md5-based base hash per key: depth rows are derived from it
    by independent scrambles, so a full-row collision needs a 64-bit
    collision (2^-64/pair), not a crc32 one (2^-32/pair) — preserving the
    depth-based error guarantee at large key cardinalities."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(k.encode()).digest()[:8], "big")
         for k in keys),
        dtype=np.uint64, count=len(keys),
    )


def sketch_partial(batch: pa.Table, key_col: str, n_candidates: int = 64,
                   width: int = 2048, depth: int = 4) -> pa.Table:
    """One block -> (serialized sketch, local candidates) row."""
    keys_arr = one_array(batch.column(key_col))
    vc = keys_arr.value_counts()
    uniq = vc.field("values").to_pylist()
    counts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
    cms = CountMinSketch(width, depth)
    if uniq:
        cms.add_many(_hash_keys(uniq), counts)
    order = np.argsort(-counts)[:n_candidates]
    cand = [uniq[i] for i in order]
    cand_counts = counts[order]
    return pa.table({
        "sketch": pa.array([cms.table.tobytes()], type=pa.binary()),
        "width": pa.array([width], type=pa.int32()),
        "depth": pa.array([depth], type=pa.int32()),
        "candidates": pa.array([cand], type=pa.list_(pa.string())),
        "cand_counts": pa.array([[int(c) for c in cand_counts]],
                                type=pa.list_(pa.int64())),
    })


def topk_count_min(ds: rd.Dataset, key_col: str, k: int = 10,
                   width: int = 2048, depth: int = 4,
                   n_candidates: int = 64) -> pa.Table:
    """Approximate top-K heavy hitters over ``key_col``."""
    parts = ds.map_batches(
        lambda b: sketch_partial(b, key_col, n_candidates, width, depth),
        batch_format="pyarrow", batch_size=None,
    )
    merged: CountMinSketch | None = None
    candidates: set[str] = set()
    # column access per batch, not iter_rows (same idiom as hll.py)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        cols = {n: b.column(n).to_pylist()
                for n in ("width", "depth", "sketch", "candidates")}
        for w, d, sk, cand in zip(cols["width"], cols["depth"],
                                  cols["sketch"], cols["candidates"]):
            cms = CountMinSketch(w, d)
            cms.table = np.frombuffer(sk, dtype=np.int64).reshape(d, w).copy()
            if merged is None:
                merged = cms
            else:
                merged.merge(cms)
            candidates.update(cand)
    if merged is None or not candidates:
        return pa.table({"key_value": pa.array([], type=pa.string()),
                         "est_count": pa.array([], type=pa.int64())})
    cand = sorted(candidates)
    est = merged.estimate(_hash_keys(cand))
    order = np.lexsort((np.array(cand, dtype=object), -est))[:k]
    return pa.table({
        "key_value": pa.array([cand[i] for i in order], type=pa.string()),
        "est_count": pa.array([int(est[i]) for i in order], type=pa.int64()),
    })
