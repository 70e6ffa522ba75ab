"""Similarity search over an embedding column (list<float>).

- Brute-force cosine top-k (the exact baseline): the query matrix is
  broadcast once (``ray.put``), each ``map_batches`` task does one numpy
  matmul against its block and emits its local top-k; the driver merges
  block-local top-ks (k rows per block, tiny).
- LSH-bucketed ANN (the scale path): random-hyperplane signatures bucket
  the corpus; a query only scans its own bucket (+ optional multiprobe of
  neighboring buckets). Recall measured against the exact baseline in
  tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import normalize_rows


def embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False)
    return flat.reshape(len(arr), -1)


_EMPTY_TOPK = pa.schema([("vec_id", pa.int64()), ("cos", pa.float64())])


def topk_rows(ids: np.ndarray, sims: np.ndarray, k: int,
              round_digits: int = 3) -> pa.Table:
    """Block-local top-k by the SAME ordering the merge and the SQL
    oracle use — (round(cos) desc, vec_id asc) — so rounding ties at the
    block's k-boundary cannot prune differently from the oracle."""
    take = min(k, len(ids))
    if take == 0:
        return _EMPTY_TOPK.empty_table()
    order = np.lexsort((ids, -np.round(sims, round_digits)))[:take]
    return pa.table({
        "vec_id": pa.array(ids[order].astype(np.int64)),
        "cos": pa.array(sims[order].astype(np.float64)),
    })


def topk_block(batch: pa.Table, query: np.ndarray, k: int,
               exclude_id: int | None = None) -> pa.Table:
    """Block-local cosine top-k against a (normalized) query vector.
    The excluded (query) row is REMOVED, not just deprioritized — with
    blocks smaller than k a -inf row would leak into the result."""
    if batch.num_rows == 0:
        return _EMPTY_TOPK.empty_table()
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    m = normalize_rows(embedding_matrix(batch))
    if exclude_id is not None:
        keep = ids != exclude_id
        ids, m = ids[keep], m[keep]
    return topk_rows(ids, m @ query, k)


def merge_topk(t: pa.Table, k: int, round_digits: int = 3) -> pa.Table:
    """Merge concatenated block-local top-ks: order by (round(cos) desc,
    vec_id asc) — the deterministic tie-break mirrored by the oracle
    SQL."""
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    cos = t.column("cos").to_numpy(zero_copy_only=False)
    r = np.round(cos, round_digits)
    order = np.lexsort((ids, -r))[:k]
    return pa.table({
        "vec_id": pa.array(ids[order].astype(np.int64)),
        "cos": pa.array(r[order].astype(np.float64)),
    })


# ---- LSH (random hyperplanes) ----------------------------------------------


def hyperplanes(dim: int, n_bits: int = 12, seed: int = 11) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.normal(size=(n_bits, dim))


def lsh_bucket(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-pattern bucket id per row."""
    bits = (m @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0])).astype(np.int64)
    return bits.astype(np.int64) @ weights


def lsh_index_batch(batch: pa.Table, planes: np.ndarray) -> pa.Table:
    m = normalize_rows(embedding_matrix(batch))
    buckets = lsh_bucket(m, planes)
    return batch.append_column("bucket", pa.array(buckets))


# ---- IVF (inverted-file coarse quantizer) ----------------------------------


def ivf_centroids(sample: np.ndarray, nlist: int, iters: int = 10,
                  seed: int = 5) -> np.ndarray:
    """Deterministic spherical k-means over a (small, driver-side) sample:
    seeded init, cosine assignment, mean + renormalize. The sample is a
    few hundred vectors regardless of corpus size (the IVF training set);
    assignment of the full corpus happens distributed."""
    rng = np.random.RandomState(seed)
    sample = normalize_rows(sample)
    if len(sample) == 0:
        raise ValueError("IVF training sample is empty")
    nlist = min(nlist, len(sample))  # small corpora: fewer lists, not a crash
    cent = sample[rng.choice(len(sample), size=nlist, replace=False)].copy()
    for _ in range(iters):
        assign = ivf_assign(sample, cent)
        sums = np.zeros_like(cent)
        np.add.at(sums, assign, sample)
        counts = np.bincount(assign, minlength=nlist)
        nonempty = counts > 0
        # empty lists keep their previous centroid (same as the old
        # per-centroid loop, which skipped memberless clusters)
        cent[nonempty] = sums[nonempty] / counts[nonempty, None]
        cent = normalize_rows(cent)
    return cent


def ivf_assign(m: np.ndarray, centroids: np.ndarray,
               chunk: int = 4096) -> np.ndarray:
    """Nearest-centroid (max cosine) list id per (normalized) row.

    Chunked argmax: the naive ``(m @ c.T).argmax`` materializes an
    n x nlist similarity matrix (450 MB f64 for a 55k-row block at
    nlist=1024); with 32 such tasks concurrent the allocation churn
    saturates memory bandwidth and each task runs ~8x slower than
    alone. Bounding the temp to ``chunk x nlist`` keeps every worker
    in cache-friendly territory at identical f64 arithmetic."""
    n = len(m)
    if n <= chunk:
        return (m @ centroids.T).argmax(axis=1).astype(np.int64)
    out = np.empty(n, dtype=np.int64)
    ct = centroids.T
    for s in range(0, n, chunk):
        out[s:s + chunk] = (m[s:s + chunk] @ ct).argmax(axis=1)
    return out
