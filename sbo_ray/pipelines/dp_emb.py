"""Embedding family: similarity/ANN search (brute force, LSH, IVF, SQ8, PQ, IVFPQ), recall evaluation, k-means, quantization, random projection, covariance/PCA, SemDeDup.

Imports what it uses by name from the module that defines it, and
callers import this module's ops from here. Monkeypatch a helper where
the op resolves it.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .. import exchange as X
from ..functions import dedup as D
from ..functions import similarity as S

from .dp_common import _parquet_num_rows, _read

# ---- similarity search -----------------------------------------------------


def _strided_sample(ds: rd.Dataset, stride: int) -> pa.Table:
    """The deterministic strided sample behind the codebooks and coarse
    quantizers: rows with ``vec_id % stride == 0``, sorted by vec_id
    (block arrival order is nondeterministic)."""
    def strided(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % stride == 0))

    return X.fold(ds, strided, ds.schema().base_schema).sort_by("vec_id")


def _topk_fold(ds: rd.Dataset, block_topk, k: int) -> pa.Table:
    """Block-local cosine top-ks folded on the driver and merged."""
    return S.merge_topk(X.fold(ds, block_topk, S._EMPTY_TOPK), k)


def _min_id_row(ds: rd.Dataset) -> dict:
    """The min-vec_id row, in one execution: each block keeps its
    min-id row (``exchange.fold``) and the driver takes the smallest."""
    def block_min(t: pa.Table) -> pa.Table:
        return t.slice(int(np.argmin(t.column("vec_id").to_numpy())), 1)

    return block_min(X.fold(ds, block_min, ds.schema().base_schema)) \
        .to_pylist()[0]


def emb_similarity_topk(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k of the min-vec_id query against the rest:
    broadcast query, block-local top-k, driver merge (k rows per block)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    first = _min_id_row(ds)
    q_id = first["vec_id"]
    q = np.asarray(first["embedding"], dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(q)

    def block_topk(batch: pa.Table) -> pa.Table:
        return S.topk_block(batch, ray.get(q_ref), k, exclude_id=q_id)

    return _topk_fold(ds, block_topk, k)


_BATCH_SEARCH = pa.schema([
    ("query_id", pa.int64()), ("neighbor_id", pa.int64()),
    ("cos", pa.float64()), ("rnk", pa.int64()),
])


def emb_batch_search(sf_dir: str, n_queries: int = 32, k: int = 10):
    """Brute-force cosine top-k for a BATCH of queries — the broadcast
    query-MATRIX baseline (one ray.put of the Q x d panel, ONE
    streaming corpus pass, per-block `X @ Q.T` matmul) that
    emb_similarity_topk's single-query path generalizes to and the
    LSH/IVF variants approximate. Queries are the deterministic
    strided sample (the codebook pick). Per block each query keeps
    its top-k under the knn composite key (round3-micro * 2^33 - id,
    loud 2^33 assert), so block partials stay closed under the final
    merge; the driver folds blocks x Q x k rows. 100-TB shape: the
    corpus streams once regardless of Q; per-block temp is rows x Q."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    qm = _pq_codebook(ds, n, n_queries)
    if qm is None:
        return _BATCH_SEARCH.empty_table()
    stride = max(1, n // n_queries)

    qids = _strided_sample(ds, stride).column(
        "vec_id").to_numpy(zero_copy_only=False)[:n_queries].astype(np.int64)
    q_ref = ray.put((qids, D.normalize_rows(qm)))
    PART = pa.schema([("query_id", pa.int64()), ("neighbor_id", pa.int64()),
                      ("key", pa.int64())])

    def block_topk(t: pa.Table) -> pa.Table:
        qi, qn = ray.get(q_ref)
        ids = t.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.max() >= (1 << 33):
            raise ValueError(
                f"vec_id {int(ids.max())} >= 2^33 breaks the composite "
                f"top-k ordering key")
        m = D.normalize_rows(S.embedding_matrix(t)).astype(np.float64)
        cos = np.round(m @ qn.T, 3)                      # rows x Q
        key = np.rint(cos * 1000.0).astype(np.int64) * (1 << 33) \
            - ids[:, None]
        key[np.isin(ids, qi)[:, None] &
            (ids[:, None] == qi[None, :])] = np.iinfo(np.int64).min
        kk = min(k, key.shape[0])
        # top-kk WITHOUT negating: -int64.min overflows back to
        # int64.min, which made sentinel rows sort as the LARGEST keys
        # and crowd real candidates out of the block partial (caught by
        # the r5 emb_ann_recall SQL gate)
        part = np.argpartition(key, key.shape[0] - kk,
                               axis=0)[key.shape[0] - kk:]
        rows = part.reshape(-1)
        qcol = np.tile(np.arange(len(qi), dtype=np.int64),
                       (kk, 1)).reshape(-1)
        return pa.table({
            "query_id": pa.array(qi[qcol]),
            "neighbor_id": pa.array(ids[rows]),
            "key": pa.array(key[rows, qcol]),
        }, schema=PART)

    return _batch_topk_merge(X.fold(ds, block_topk, PART), k)


def _batch_topk_merge(parts: pa.Table, k: int) -> pa.Table:
    """Fold blocks x Q x k batch-search partials into per-query
    (neighbor, cos, rank) rows — block partials were selected under
    the SAME composite key, so the merge is closed (the knn rule)."""
    if parts.num_rows == 0:
        return _BATCH_SEARCH.empty_table()
    qid = parts.column("query_id").to_numpy(zero_copy_only=False)
    nid = parts.column("neighbor_id").to_numpy(zero_copy_only=False)
    key = parts.column("key").to_numpy(zero_copy_only=False)
    drop = key == np.iinfo(np.int64).min
    qid, nid, key = qid[~drop], nid[~drop], key[~drop]
    if not len(qid):
        return _BATCH_SEARCH.empty_table()
    order = np.lexsort((-key, qid))
    qid, nid, key = qid[order], nid[order], key[order]
    new = np.ones(len(qid), dtype=bool)
    new[1:] = qid[1:] != qid[:-1]
    seg = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    rnk = np.arange(len(qid), dtype=np.int64) - starts[seg] + 1
    keep = rnk <= k
    cos = (key[keep] + nid[keep]) / (1 << 33) / 1000.0
    return pa.table({
        "query_id": pa.array(qid[keep]),
        "neighbor_id": pa.array(nid[keep]),
        "cos": pa.array(np.round(cos, 3)),
        "rnk": pa.array(rnk[keep]),
    }, schema=_BATCH_SEARCH)


def emb_ann_recall(sf_dir: str, n_queries: int = 32, k: int = 10,
                   n_bits: int = 6, n_tables: int = 4,
                   probe_hamming: int = 2):
    """ANN quality EVALUATION — recall@k of the multi-table LSH path
    against the exact batch search over the same strided query panel:
    the measure-don't-guess diagnostic you run before trusting an
    approximate index at 10^12 rows. Two streaming passes over the
    corpus (exact matmul top-k; LSH-pruned top-k where non-candidates
    — hamming > probe in EVERY table — are masked to the sentinel),
    identical composite-key ordering, then a Q x k driver intersect.
    Output: one row per query (n_hits, recall) + the exact candidate
    pair counts (integers, not a ratio: n_cand_pairs/n_pairs quotients
    sit on .5e-6 rounding boundaries — the doc_quality_linear rule).
    SQL-gated since r5: the hyperplane matrix is a deterministic
    seeded constant, so the oracle inlines it as literals and
    re-derives bucketing, multiprobe candidacy, both top-k passes and
    the intersect in SQL (sign-of-dot gates are measure-zero float
    boundaries, the emb_pq_codes idiom). pytest brackets remain:
    recall in [0, 1], recall == 1 when probing every bucket
    (probe_hamming >= n_bits)."""
    exact = emb_batch_search(sf_dir, n_queries=n_queries, k=k)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    qm = _pq_codebook(ds, n, n_queries)
    OUT = pa.schema([("query_id", pa.int64()), ("n_hits", pa.int64()),
                     ("recall", pa.float64()),
                     ("n_cand_pairs", pa.int64()), ("n_pairs", pa.int64())])
    if qm is None or exact.num_rows == 0:
        return OUT.empty_table()
    qn = D.normalize_rows(qm)
    dim = qn.shape[1]
    planes = [S.hyperplanes(dim, n_bits, seed=11 + t)
              for t in range(n_tables)]
    qcodes = np.stack([S.lsh_bucket(qn, p) for p in planes])  # T x Q
    qids = np.unique(exact.column("query_id").to_numpy(
        zero_copy_only=False))
    q_ref = ray.put((qids, qn, planes, qcodes))
    PART = pa.schema([("query_id", pa.int64()), ("neighbor_id", pa.int64()),
                      ("key", pa.int64()), ("n_cand", pa.int64()),
                      ("n_rows", pa.int64())])

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return PART.empty_table()
        qi, qnm, pls, qc = ray.get(q_ref)
        ids = t.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.max() >= (1 << 33):
            raise ValueError(
                f"vec_id {int(ids.max())} >= 2^33 breaks the composite "
                f"top-k ordering key")
        m = D.normalize_rows(S.embedding_matrix(t)).astype(np.float64)
        cand = np.zeros((len(ids), len(qi)), dtype=bool)
        for ti, p in enumerate(pls):
            codes = S.lsh_bucket(m, p)
            x = codes[:, None] ^ qc[ti][None, :]
            ham = np.zeros_like(x)
            while True:
                ham += x & 1
                x >>= 1
                if not x.any():
                    break
            cand |= ham <= probe_hamming
        cos = np.round(m @ qnm.T, 3)
        key = np.rint(cos * 1000.0).astype(np.int64) * (1 << 33) \
            - ids[:, None]
        key[~cand] = np.iinfo(np.int64).min
        key[ids[:, None] == qi[None, :]] = np.iinfo(np.int64).min
        kk = min(k, key.shape[0])
        # top-kk WITHOUT negating (-int64.min wraps to int64.min: the
        # sentinel-crowding bug the r5 SQL gate caught — masked rows
        # displaced true candidates from every block partial and
        # systematically underestimated recall)
        part = np.argpartition(key, key.shape[0] - kk,
                               axis=0)[key.shape[0] - kk:]
        rows = part.reshape(-1)
        qcol = np.tile(np.arange(len(qi), dtype=np.int64),
                       (kk, 1)).reshape(-1)
        return pa.table({
            "query_id": pa.array(qi[qcol]),
            "neighbor_id": pa.array(ids[rows]),
            "key": pa.array(key[rows, qcol]),
            # block-level pruning stats ride on the FIRST row only, so
            # a plain driver sum counts each block exactly once
            "n_cand": pa.array(np.where(
                np.arange(len(rows)) == 0, int(cand.sum()), 0)
                .astype(np.int64)),
            "n_rows": pa.array(np.where(
                np.arange(len(rows)) == 0, len(ids) * len(qi), 0)
                .astype(np.int64)),
        }, schema=PART)

    parts = X.fold(ds, block_topk, PART)
    approx = _batch_topk_merge(parts.select(
        ["query_id", "neighbor_id", "key"]), k)
    tot_rows = int(pc.sum(parts.column("n_rows")).as_py() or 0)
    tot_cand = int(pc.sum(parts.column("n_cand")).as_py() or 0)
    eq = exact.column("query_id").to_numpy(zero_copy_only=False)
    en = exact.column("neighbor_id").to_numpy(zero_copy_only=False)
    aq = approx.column("query_id").to_numpy(zero_copy_only=False)
    an = approx.column("neighbor_id").to_numpy(zero_copy_only=False)
    hits, recs = [], []
    for q in qids:
        want = set(en[eq == q].tolist())
        got = set(an[aq == q].tolist())
        h = len(want & got)
        hits.append(h)
        recs.append(round(h / max(len(want), 1), 6))
    return pa.table({
        "query_id": pa.array(qids),
        "n_hits": pa.array(np.array(hits, np.int64)),
        "recall": pa.array(np.array(recs)),
        "n_cand_pairs": pa.array(np.full(len(qids), tot_cand, np.int64)),
        "n_pairs": pa.array(np.full(len(qids), tot_rows, np.int64)),
    }, schema=OUT)


def emb_ann_lsh(sf_dir: str, k: int = 10, n_bits: int = 6,
                n_tables: int = 4, probe_hamming: int = 2):
    """Multi-table LSH ANN, distributed: ``n_tables`` independent
    hyperplane tables; every block assigns its OWN rows' buckets per
    table (the planes are tiny closure constants), keeps rows falling in
    the query's multiprobe set (Hamming<=probe_hamming) of ANY table
    (the standard union-of-candidates recall booster), scans candidates
    against the broadcast query, and emits a block-local top-k; the
    driver merges k rows per block. No corpus materialization; per-block
    compute is pruned to the candidate fraction.

    Recall/speed knobs: (n_tables, probe_hamming). The defaults are
    exact-equal to the brute-force top-k on the test corpora (gated by
    the exact-SQL oracle) — note the test embeddings are ISOTROPIC
    random vectors (nearest cos ~0.33), the worst case for LSH, so the
    default probe set covers ~80% of buckets; on real clustered
    embedding corpora radius 1 and a few tables prune to a few percent.
    Recall at shallower settings is asserted in tests."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    first = _min_id_row(ds)
    q_id = first["vec_id"]
    q = np.asarray(first["embedding"], dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    tables = []
    for ti in range(n_tables):
        planes = S.hyperplanes(len(q), n_bits, seed=11 + ti)
        q_bucket = int(S.lsh_bucket(q[None, :], planes)[0])
        probe = np.asarray(
            [b for b in range(1 << n_bits)
             if bin(b ^ q_bucket).count("1") <= probe_hamming],
            dtype=np.int64,
        )
        tables.append((planes, probe))
    bcast = ray.put((q, tables))

    def block_scan(batch: pa.Table) -> pa.Table:
        qv, tabs = ray.get(bcast)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = D.normalize_rows(S.embedding_matrix(batch))
        mask = np.zeros(len(ids), dtype=bool)
        for planes, probe_arr in tabs:
            mask |= np.isin(S.lsh_bucket(m, planes), probe_arr)
        mask &= ids != q_id
        return S.topk_rows(ids[mask], m[mask] @ qv, k)

    return _topk_fold(ds, block_scan, k)


def emb_ann_ivf(sf_dir: str, k: int = 10, nlist: int = 32, nprobe: int = 24,
                sample_stride: int | None = None):
    """IVF ANN (the coarse-quantizer scale path): train a tiny spherical
    k-means on a strided SAMPLE (deterministic, driver-side, a few
    hundred vectors regardless of corpus size), broadcast the centroids,
    assign each block's rows distributed, scan only rows whose list is
    among the query's ``nprobe`` nearest centroids, block-local top-k,
    driver merge of k/block. Per-worker memory O(batch); no corpus
    materialization.

    Recall/speed knob: nprobe/nlist. The defaults (24/32 lists probed)
    are exact-equal to the brute-force top-k on the test corpora and
    gated by the exact-SQL oracle — the test embeddings are isotropic
    (no cluster structure, the IVF worst case), so most lists must be
    probed for full recall; on real clustered corpora nprobe of 1-2
    out of hundreds suffices. Recall at shallow settings is asserted
    in tests."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    first = _min_id_row(ds)
    q_id = first["vec_id"]
    q = np.asarray(first["embedding"], dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    # deterministic strided sample for the coarse quantizer (distributed
    # filter; only the sample rows reach the driver). The stride scales
    # with the corpus so the DRIVER k-means input stays ~2k vectors
    # regardless of corpus size (r3: a fixed stride shipped n/7 vectors
    # to the driver at 4M, making IVF slower than brute force).
    if sample_stride is None:
        target = max(512, nlist * 64)
        sample_stride = max(7, _parquet_num_rows(sf_dir, "embeddings") // target)

    sample_t = _strided_sample(ds, sample_stride)
    centroids = S.ivf_centroids(S.embedding_matrix(sample_t), nlist)
    probe = np.argsort(-(centroids @ q))[:nprobe]
    bcast = ray.put((q, centroids, np.asarray(probe, dtype=np.int64)))

    def block_scan(batch: pa.Table) -> pa.Table:
        qv, cent, probe_arr = ray.get(bcast)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = D.normalize_rows(S.embedding_matrix(batch))
        lists = S.ivf_assign(m, cent)
        mask = np.isin(lists, probe_arr) & (ids != q_id)
        return S.topk_rows(ids[mask], m[mask] @ qv, k)

    return _topk_fold(ds, block_scan, k)


def emb_kmeans(sf_dir: str, k: int = 16, iters: int = 5,
               sample_stride: int | None = None):
    """Distributed Lloyd k-means over the embedding corpus — the
    cluster-then-curate primitive (SemDeDup bucketing, diversity
    sampling, domain discovery). Classic broadcast-iterate shape:

      init   deterministic strided sample -> driver seed pass
             (S.ivf_centroids with 1 refinement iter, tiny input);
      round  broadcast centroids (ray.put once per round) -> one
             map_batches pass emits per-block PARTIAL (sum_vec, count)
             per cluster -> driver reduces k x (dim+1) floats and
             updates centroids.  Empty clusters keep their previous
             centroid (the standard Lloyd convention).

    Each round is one streaming corpus pass; driver state is k x dim
    floats — nothing corpus-sized anywhere. Output: k rows (cluster,
    n_members, centroid). Iterative fixpoints are not SQL-expressible
    -> rows-only driver gate; pytest pins exact equality with a numpy
    Lloyd reference on planted separated clusters."""
    # iterative passes (sample + iters rounds + final count) re-consume
    # the corpus: materialize the pruned read ONCE into the object store
    # (blocks stay distributed; Ray spills past store capacity) instead
    # of re-decoding parquet every round
    ds = _read(sf_dir, "embeddings",
               columns=["vec_id", "embedding"]).materialize()
    n = _parquet_num_rows(sf_dir, "embeddings")
    if sample_stride is None:
        sample_stride = max(1, n // max(256, k * 16))

    # sorted by vec_id so the seeding (rng.choice over row INDICES) is
    # deterministic run to run
    sample_t = _strided_sample(ds, sample_stride)
    cent = S.ivf_centroids(S.embedding_matrix(sample_t), k, iters=1)

    PART = pa.schema([("cluster", pa.int64()), ("cnt", pa.int64()),
                      ("vsum", pa.list_(pa.float64()))])

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partial(b: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            # spherical k-means like ivf_centroids: normalized rows, so
            # the mean/renormalize update matches the seed pass exactly
            m = D.normalize_rows(S.embedding_matrix(b)).astype(np.float64)
            asg = np.argmax(m @ c.T, axis=1)
            kk = c.shape[0]
            cnt = np.bincount(asg, minlength=kk)
            vs = np.zeros((kk, m.shape[1]))
            np.add.at(vs, asg, m)
            dim = m.shape[1]
            flat = pa.array(vs.reshape(-1))
            offs = pa.array(np.arange(0, (kk + 1) * dim, dim, dtype=np.int32))
            return pa.Table.from_arrays([
                pa.array(np.arange(kk, dtype=np.int64)),
                pa.array(cnt.astype(np.int64)),
                pa.ListArray.from_arrays(offs, flat),
            ], schema=PART)

        parts = X.fold(ds, partial, PART)
        cl = parts.column("cluster").to_numpy(zero_copy_only=False)
        vsc = parts.column("vsum").combine_chunks()
        # np.add.at accumulates rows in block order, like a streaming fold
        tot_cnt = np.zeros(k, dtype=np.int64)
        tot_sum = np.zeros((k, cent.shape[1]))
        np.add.at(tot_cnt, cl, parts.column("cnt").to_numpy(
            zero_copy_only=False))
        np.add.at(tot_sum, cl, vsc.values.to_numpy(
            zero_copy_only=False).reshape(len(cl), -1))
        nz = tot_cnt > 0
        new_cent = cent.copy()
        new_cent[nz] = tot_sum[nz] / tot_cnt[nz, None]
        # cosine-space Lloyd like ivf_centroids: renormalize means
        norms = np.linalg.norm(new_cent, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cent = new_cent / norms

    # reported membership is w.r.t. the RETURNED centroids (one final
    # count-only pass; the loop's counts lag the update by one round)
    fin_ref = ray.put(cent)

    def count_pass(b: pa.Table) -> pa.Table:
        m = D.normalize_rows(S.embedding_matrix(b)).astype(np.float64)
        asg = np.argmax(m @ ray.get(fin_ref).T, axis=1)
        cnt = np.bincount(asg, minlength=k)
        return pa.table({"cluster": pa.array(np.arange(k, dtype=np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    counts = X.merge(ds, count_pass, ["cluster"], pa.schema([
        ("cluster", pa.int64()), ("cnt", pa.int64())]))
    tot_cnt = np.zeros(k, dtype=np.int64)  # zero-member clusters stay 0
    tot_cnt[counts.column("cluster").to_numpy()] = \
        counts.column("cnt").to_numpy()

    dim = cent.shape[1]
    flat = pa.array(cent.reshape(-1))
    offs = pa.array(np.arange(0, (k + 1) * dim, dim, dtype=np.int32))
    return pa.table({
        "cluster": pa.array(np.arange(k, dtype=np.int64)),
        "n_members": pa.array(tot_cnt),
        "centroid": pa.ListArray.from_arrays(offs, flat),
    })


_MM_SCHEMA = pa.schema([("mn", pa.list_(pa.float64())),
                        ("mx", pa.list_(pa.float64()))])


def _sq8_minmax(ds: rd.Dataset):
    """Streaming per-dim global (min, max) over the embedding column:
    one 2 x dim partial row leaves each block, the driver reduce is
    blocks x dim floats. Returns (mn, mx) or (None, None) on empty."""

    def mm_partial(t: pa.Table) -> pa.Table:
        m = S.embedding_matrix(t).astype(np.float64)
        return pa.table({"mn": [m.min(axis=0)], "mx": [m.max(axis=0)]},
                        schema=_MM_SCHEMA)

    parts = X.fold(ds, mm_partial, _MM_SCHEMA)
    if parts.num_rows == 0:
        return None, None
    mns = np.stack([np.asarray(r) for r in parts.column("mn").to_pylist()])
    mxs = np.stack([np.asarray(r) for r in parts.column("mx").to_pylist()])
    return mns.min(axis=0), mxs.max(axis=0)


def emb_quantize_sq8(sf_dir: str):
    """Scalar (int8) quantization of the embedding corpus — the
    standard 4x memory reduction that makes 100-TB-scale ANN indexes
    fit in cluster RAM (FAISS's SQ8 codec shape). Two streaming passes:

      pass 1  per-block partial (per-dim min, per-dim max) — one
              2 x dim row leaves each block; driver reduce is
              blocks x dim floats (corpus-independent width);
      pass 2  broadcast (mn, range) once (``ray.put``) and each block
              encodes codes[d] = clamp(floor((x-mn)/(mx-mn)*256), 0,
              255) vectorized over the (rows x dim) matrix.

    Codes ship as list<int64> so the DuckDB gate compares exact BIGINT
    values (production storage would be uint8 — same arithmetic). The
    engine computes in float64 from the float32 values — identical IEEE
    op order to the oracle's CAST AS DOUBLE, and ``floor`` (not round)
    on BOTH sides dodges numpy-bankers vs SQL half-away rounding.
    Constant dimensions (mx == mn) encode 0."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    mn, mx = _sq8_minmax(ds)
    if mn is None:
        return rd.from_arrow(pa.schema([
            ("vec_id", pa.int64()),
            ("codes", pa.list_(pa.int64()))]).empty_table())
    mm_ref = ray.put((mn, mx))

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "codes": pa.array([], pa.list_(pa.int64()))})
        lo, hi = ray.get(mm_ref)
        m = S.embedding_matrix(t).astype(np.float64)
        rng = hi - lo
        live = rng > 0
        scaled = np.floor((m - lo) / np.where(live, rng, 1.0) * 256.0)
        codes = np.clip(scaled, 0.0, 255.0).astype(np.int64)
        codes[:, ~live] = 0
        n, dim = codes.shape
        offs = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
        return pa.table({
            "vec_id": t.column("vec_id"),
            "codes": pa.ListArray.from_arrays(offs,
                                              pa.array(codes.reshape(-1))),
        })

    return ds.map_batches(encode, batch_format="pyarrow")


def _rp_signs(dim: int, k: int) -> np.ndarray:
    """Deterministic ±1 projection matrix (dim x k): sign of middle bit
    16 of an LCG over the flat index — closed-form integer arithmetic
    the DuckDB oracle reproduces exactly (the LCG's LOW bit alternates
    with period 2, so a middle bit is the one to sample)."""
    idx = np.arange(dim, dtype=np.int64)[:, None] * k + np.arange(k, dtype=np.int64)
    h = (1103515245 * idx + 12345) % 2147483648
    return np.where((h >> 16) & 1 == 0, 1, -1).astype(np.int64)


def emb_project_rp(sf_dir: str, k: int = 16):
    """Signed random projection over the SQ8-quantized corpus — the
    dimensionality-reduction sketch (dim -> k) that LSH-style indexes
    and cheap pre-filters run before exact scoring, computed entirely
    in integers so the gate is hash-exact. Same two streaming passes as
    ``emb_quantize_sq8`` (per-dim min/max partials, then broadcast
    encode); each block then runs ONE (rows x dim) @ (dim x k) int64
    matmul against the deterministic ±1 sign matrix (``_rp_signs``,
    built per batch — dim x k is tiny). Output list<int64> of the k
    projections per vector; no shuffle, corpus never materializes."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    mn, mx = _sq8_minmax(ds)
    empty = pa.schema([("vec_id", pa.int64()),
                       ("proj", pa.list_(pa.int64()))]).empty_table()
    if mn is None:
        return rd.from_arrow(empty)
    mm_ref = ray.put((mn, mx))

    def project(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        lo, hi = ray.get(mm_ref)
        m = S.embedding_matrix(t).astype(np.float64)
        rng = hi - lo
        live = rng > 0
        scaled = np.floor((m - lo) / np.where(live, rng, 1.0) * 256.0)
        codes = np.clip(scaled, 0.0, 255.0).astype(np.int64)
        codes[:, ~live] = 0
        # BLAS dgemm, not int64 matmul (numpy integer matmul has no SIMD
        # path — measured 3x the whole stage). Exact: |proj| <= dim*255
        # << 2^53, so float64 accumulation is integer-exact.
        proj = (codes.astype(np.float64)
                @ _rp_signs(codes.shape[1], k).astype(np.float64)
                ).astype(np.int64)
        n = proj.shape[0]
        offs = pa.array(np.arange(0, (n + 1) * k, k, dtype=np.int32))
        return pa.table({
            "vec_id": t.column("vec_id"),
            "proj": pa.ListArray.from_arrays(offs,
                                             pa.array(proj.reshape(-1))),
        })

    return ds.map_batches(project, batch_format="pyarrow")


def emb_sample_balanced(sf_dir: str, per_label: int = 10):
    """Cluster-balanced subsample — exactly ``per_label`` vectors per
    label, drawn by a deterministic reservoir (the dataset-rebalancing
    step: equal representation per class/domain regardless of the
    corpus mix). Key = md5(vec_id) >> 1, bottom-k per LABEL under
    (key, vec_id): block-local per-label bottom-k is closed under merge
    (the doc_group_topk monoid — partial ordering == final ordering),
    so each block emits <= labels x k rows and the driver merge is
    bounded; no shuffle, reproducible across partitionings. Exact SQL
    mirror: ROW_NUMBER() PARTITION BY label ORDER BY the same md5."""
    import hashlib

    SCHEMA = pa.schema([("vec_id", pa.int64()), ("label", pa.int64()),
                        ("sample_key", pa.int64())])

    def local_bottomk(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        labels = t.column("label").to_numpy(
            zero_copy_only=False).astype(np.int64)
        keys = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(int(v)).encode()).digest()[:8],
                "big") >> 1 for v in ids),
            dtype=np.int64, count=len(ids))
        order = np.lexsort((ids, keys, labels))
        sl, sk, si = labels[order], keys[order], ids[order]
        new = np.ones(len(sl), dtype=bool)
        new[1:] = sl[1:] != sl[:-1]
        starts = np.maximum.accumulate(
            np.where(new, np.arange(len(sl)), 0))
        rank = np.arange(len(sl)) - starts
        keep = rank < per_label
        return pa.table({
            "vec_id": pa.array(si[keep], type=pa.int64()),
            "label": pa.array(sl[keep], type=pa.int64()),
            "sample_key": pa.array(sk[keep], type=pa.int64()),
        })

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "label"])
    merged = X.fold(ds, local_bottomk, SCHEMA)
    labels = merged.column("label").to_numpy(zero_copy_only=False)
    keys = merged.column("sample_key").to_numpy(zero_copy_only=False)
    ids = merged.column("vec_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, keys, labels))
    sl = labels[order]
    new = np.ones(len(sl), dtype=bool)
    new[1:] = sl[1:] != sl[:-1]
    starts = np.maximum.accumulate(np.where(new, np.arange(len(sl)), 0))
    keep = (np.arange(len(sl)) - starts) < per_label
    sel = order[keep]
    return pa.table({
        "vec_id": pa.array(ids[sel], type=pa.int64()),
        "label": pa.array(labels[sel], type=pa.int64()),
        "sample_key": pa.array(keys[sel], type=pa.int64()),
    })


def emb_ann_sq8(sf_dir: str, k: int = 10):
    """Asymmetric SQ8 search (the FAISS SQ8 query path): brute-force
    cosine top-k of the FULL-PRECISION min-vec_id query against the
    SQ8-quantized corpus, each corpus vector midpoint-reconstructed
    from its codes (x^ = mn + (code + 0.5) * (mx - mn) / 256) — the
    memory story of ``emb_quantize_sq8`` made queryable: the scan
    touches 1 byte/dim instead of 4 at full scale. Two streaming
    passes (min/max partials, then encode+reconstruct+score per block
    with block-local top-k); driver sees k rows per block. Exact SQL
    mirror: the oracle reconstructs through the same integer codes and
    f64 arithmetic, so values gate exactly (not a recall contract)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mn, mx = _sq8_minmax(ds)
    if mn is None:
        return pa.schema([("vec_id", pa.int64()),
                          ("cos", pa.float64())]).empty_table()
    first = _min_id_row(ds)
    q_id = first["vec_id"]
    q = np.asarray(first["embedding"], dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    ref = ray.put((q, mn, mx))

    def block_topk(batch: pa.Table) -> pa.Table:
        qv, lo, hi = ray.get(ref)
        m = S.embedding_matrix(batch).astype(np.float64)
        rng = hi - lo
        live = rng > 0
        codes = np.clip(
            np.floor((m - lo) / np.where(live, rng, 1.0) * 256.0),
            0.0, 255.0)
        codes[:, ~live] = 0.0
        # rng == 0 dims reconstruct to mn with no special case
        xh = lo + (codes + 0.5) * (rng / 256.0)
        norms = np.linalg.norm(xh, axis=1)
        norms[norms == 0] = 1.0
        sims = (xh / norms[:, None]) @ qv
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        keep = ids != q_id
        return S.topk_rows(ids[keep], sims[keep], k)

    return _topk_fold(ds, block_topk, k)


_PQ_SCHEMA = pa.schema([("vec_id", pa.int64()),
                        ("codes", pa.list_(pa.int64()))])
_ADC_SCHEMA = pa.schema([("vec_id", pa.int64()), ("adc", pa.float64())])


def _pq_codebook(ds: rd.Dataset, n: int, ksub: int) -> np.ndarray | None:
    """Deterministic strided-sample codebook: the first ``ksub`` corpus
    vectors (by vec_id) with ``vec_id % stride == 0``, stride =
    ``n // ksub`` — sample-seeded quantizers are the standard cheap
    init, and a closed-form pick (unlike k-means) keeps the SQL mirror
    exact. One tiny streaming pass; returns a ksub x dim float64
    matrix (or None on an empty corpus)."""
    t = _strided_sample(ds, max(1, n // ksub)).slice(0, ksub)
    if not t.num_rows:
        return None
    return S.embedding_matrix(t).astype(np.float64)


def _pq_encode(m: np.ndarray, cb: np.ndarray, M: int) -> np.ndarray:
    """Exact-int PQ assignment: per subspace, argmin over the codebook
    under the (floor(d2 * 1e6), code) composite BIGINT key. The float
    squared-L2 enters ONLY through the floored integer, so DuckDB's
    ``arg_min`` over the same key picks identical codes (floor on both
    sides — numpy rounds half-to-even, SQL ROUND half-away, so round()
    parity would be a coin flip at .5; see emb_quantize_sq8). Chunked
    at 4096 rows so the rows x ksub x dsub diff temp stays bounded at
    any block size (the ivf_assign lesson: unbounded per-block matmul
    temps make 32 concurrent workers bandwidth-bound)."""
    rows, dim = m.shape
    ksub = cb.shape[0]
    dsub = dim // M
    codes = np.empty((rows, M), dtype=np.int64)
    code_ix = np.arange(ksub, dtype=np.int64)
    for mi in range(M):
        xs = m[:, mi * dsub:(mi + 1) * dsub]
        cs = cb[:, mi * dsub:(mi + 1) * dsub]
        for s in range(0, rows, 4096):
            x = xs[s:s + 4096]
            d2 = ((x[:, None, :] - cs[None, :, :]) ** 2).sum(axis=2)
            key = np.floor(d2 * 1e6).astype(np.int64) * 64 + code_ix
            codes[s:s + 4096, mi] = key.argmin(axis=1)
    return codes


def emb_kmeans_step(sf_dir: str, k: int = 16):
    """ONE exactly-gated Lloyd iteration: assign every vector to its
    nearest deterministic strided seed (the _pq_codebook pick) and emit
    each cluster's size and updated mean, exploded to (cluster, dim)
    rows like emb_label_centroids. ``emb_kmeans`` stays the iterative
    fixpoint (rows-only by nature); this gates the assign+update STEP
    against SQL exactly: assignment routes the squared-L2 through the
    (floor(d2*1e6)*64 + j) composite BIGINT key (the _pq_encode idiom
    at full dim — summation-order noise is ~1e-15 relative and cannot
    flip an integer key except at measure-zero boundaries, and a seed's
    own distance is exactly 0 in the direct diff-square form on both
    sides), means under ROUND-4. One streaming pass, k x dim driver
    state, chunked 4096-row diff temps (the ivf_assign lesson)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    OUT = pa.schema([("cluster", pa.int64()), ("dim", pa.int64()),
                     ("n_members", pa.int64()), ("centroid", pa.float64())])
    cb = _pq_codebook(ds, n, k)
    if cb is None:
        return OUT.empty_table()
    cb_ref = ray.put(cb)
    PART = pa.schema([("cluster", pa.int64()), ("dim", pa.int64()),
                      ("s", pa.float64()), ("cnt", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        c = ray.get(cb_ref)
        kk, d = c.shape
        x = S.embedding_matrix(t).astype(np.float64)
        asg = np.empty(len(x), dtype=np.int64)
        jix = np.arange(kk, dtype=np.int64)
        for s in range(0, len(x), 4096):
            xx = x[s:s + 4096]
            d2 = ((xx[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            key = np.floor(d2 * 1e6).astype(np.int64) * 64 + jix
            asg[s:s + 4096] = key.argmin(axis=1)
        uniq, codes = np.unique(asg, return_inverse=True)
        sums = np.zeros((len(uniq), d), dtype=np.float64)
        np.add.at(sums, codes, x)
        cnts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "cluster": pa.array(np.repeat(uniq, d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                    len(uniq))),
            "s": pa.array(sums.reshape(-1)),
            "cnt": pa.array(np.repeat(cnts, d)),
        }, schema=PART)

    g = X.merge(ds, partial, ["cluster", "dim"], PART)
    return pa.table({
        "cluster": g.column("cluster"),
        "dim": g.column("dim"),
        "n_members": g.column("cnt"),
        "centroid": pc.round(pc.divide(g.column("s"),
                                       pc.cast(g.column("cnt"),
                                               pa.float64())), 4),
    }, schema=OUT)


def emb_pq_codes(sf_dir: str, M: int = 8, ksub: int = 16):
    """Product quantization of the embedding corpus (Jegou et al. 2011,
    the codec behind FAISS IVFPQ): split dim into M subspaces and store
    each sub-vector as the index of its nearest codebook entry — here
    64 float32 -> 8 codes, the 32x compression that lets a 10^12-row
    ANN index live in cluster RAM. Distributed shape mirrors
    emb_quantize_sq8: one tiny codebook sample pass, ``ray.put`` the
    ksub x dim matrix once, then ONE streaming encode pass
    (_pq_encode's chunked integer-keyed argmin). Gate: codes are exact
    BIGINTs — the only float step is floored identically on both
    sides. k-means codebook refinement is deliberately emb_kmeans'
    territory (iterative fixpoints are not SQL-expressible)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    cb = _pq_codebook(ds, n, ksub)
    if cb is None:
        return rd.from_arrow(_PQ_SCHEMA.empty_table())
    if cb.shape[1] % M:
        raise ValueError(f"dim {cb.shape[1]} not divisible by M={M}")
    cb_ref = ray.put(cb)

    def encode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PQ_SCHEMA.empty_table()
        codes = _pq_encode(S.embedding_matrix(t).astype(np.float64),
                           ray.get(cb_ref), M)
        rows = codes.shape[0]
        offs = pa.array(np.arange(0, (rows + 1) * M, M, dtype=np.int32))
        return pa.Table.from_arrays([
            t.column("vec_id"),
            pa.ListArray.from_arrays(offs, pa.array(codes.reshape(-1))),
        ], schema=_PQ_SCHEMA)

    return ds.map_batches(encode, batch_format="pyarrow")


def emb_pq_error(sf_dir: str, M: int = 8, ksub: int = 16):
    """Per-subspace PQ quantization error (mean squared L2 between each
    sub-vector and its assigned codebook entry) — the codec-quality
    diagnostic that tells you whether M/ksub are adequate before you
    build the 10^12-row index on them. One streaming pass after the
    codebook sample: each block encodes (same _pq_encode integer-key
    assignment) and emits an M x (sum_d2, count) partial; the driver
    folds M pairs. Exact SQL mirror through the same integer codes;
    ROUND-6 on the mean."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    schema = pa.schema([("m", pa.int64()), ("mse", pa.float64())])
    cb = _pq_codebook(ds, n, ksub)
    if cb is None:
        return schema.empty_table()
    if cb.shape[1] % M:
        raise ValueError(f"dim {cb.shape[1]} not divisible by M={M}")
    dsub = cb.shape[1] // M
    cb_ref = ray.put(cb)
    PART = pa.schema([("m", pa.int64()), ("sum_d2", pa.float64()),
                      ("cnt", pa.int64())])

    def err_partial(t: pa.Table) -> pa.Table:
        cbm = ray.get(cb_ref)
        x = S.embedding_matrix(t).astype(np.float64)
        codes = _pq_encode(x, cbm, M)
        sums = np.empty(M)
        for mi in range(M):
            diff = x[:, mi * dsub:(mi + 1) * dsub] \
                - cbm[codes[:, mi], mi * dsub:(mi + 1) * dsub]
            sums[mi] = (diff ** 2).sum()
        return pa.table({"m": pa.array(np.arange(M, dtype=np.int64)),
                         "sum_d2": pa.array(sums),
                         "cnt": pa.array([t.num_rows] * M, pa.int64())},
                        schema=PART)

    parts = X.fold(ds, err_partial, PART)
    mi = parts.column("m").to_numpy(zero_copy_only=False)
    # np.add.at accumulates rows in block order, like a streaming fold
    tot = np.zeros(M)
    np.add.at(tot, mi, parts.column("sum_d2").to_numpy(zero_copy_only=False))
    cnt = int(parts.column("cnt").to_numpy(
        zero_copy_only=False)[mi == 0].sum())
    return pa.table({"m": pa.array(np.arange(M, dtype=np.int64)),
                     "mse": pa.array(np.round(tot / cnt, 6))}, schema=schema)


def emb_ann_pq(sf_dir: str, k: int = 10, M: int = 8, ksub: int = 16):
    """Asymmetric-distance PQ search (ADC, the FAISS query path over
    emb_pq_codes' codec): the full-precision min-vec_id query expands
    once into an M x ksub lookup table of partial squared-L2 distances;
    each corpus vector then scores as M table lookups + an M-term sum —
    per-vector cost independent of dim, the property that makes PQ the
    trillion-scale scan. Two streaming passes (codebook sample, then
    encode+LUT-score+block-local top-k); the driver merges k rows per
    block under the SAME (round6(adc), vec_id asc) key the blocks used
    (partial top-k is closed under merge only when partial ordering ==
    final ordering). Exact SQL mirror: the oracle routes through the
    identical integer codes, so adc values gate exactly at round-6."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    cb = _pq_codebook(ds, n, ksub)
    if cb is None:
        return _ADC_SCHEMA.empty_table()
    if cb.shape[1] % M:
        raise ValueError(f"dim {cb.shape[1]} not divisible by M={M}")
    first = _min_id_row(ds)
    q_id = first["vec_id"]
    q = np.asarray(first["embedding"], dtype=np.float64)
    dsub = cb.shape[1] // M
    lut = np.empty((M, cb.shape[0]))
    for mi in range(M):
        d = q[mi * dsub:(mi + 1) * dsub] - cb[:, mi * dsub:(mi + 1) * dsub]
        lut[mi] = (d ** 2).sum(axis=1)
    ref = ray.put((cb, lut))

    def topk_asc(ids: np.ndarray, adc: np.ndarray) -> pa.Table:
        take = min(k, len(ids))
        order = np.lexsort((ids, np.round(adc, 6)))[:take]
        return pa.Table.from_arrays([
            pa.array(ids[order].astype(np.int64)),
            pa.array(np.round(adc[order], 6)),
        ], schema=_ADC_SCHEMA)

    def block_topk(t: pa.Table) -> pa.Table:
        cbm, lutm = ray.get(ref)
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        keep = ids != q_id
        if not keep.any():
            return _ADC_SCHEMA.empty_table()
        codes = _pq_encode(
            S.embedding_matrix(t).astype(np.float64)[keep], cbm, M)
        adc = lutm[np.arange(M), codes].sum(axis=1)
        return topk_asc(ids[keep], adc)

    t = X.fold(ds, block_topk, _ADC_SCHEMA)
    return topk_asc(t.column("vec_id").to_numpy(zero_copy_only=False),
                    t.column("adc").to_numpy(zero_copy_only=False))


def emb_ann_ivfpq(sf_dir: str, k: int = 10, nlist: int = 32,
                  nprobe: int = 24, shortlist: int | None = None,
                  M: int = 8, ksub: int = 16):
    """IVF+PQ with exact re-ranking — the production trillion-scale
    index shape (FAISS IVFPQ + refine), composed from the repo's own
    pieces: the coarse quantizer (emb_ann_ivf's sampled spherical
    k-means) prunes each block's scan to the query's nprobe nearest
    lists, the PQ ADC table (emb_ann_pq's M x ksub LUT over NORMALIZED
    vectors, so squared-L2 = 2 - 2cos ranks like cosine) shortlists
    within them at M lookups per vector, and only the block-local
    shortlist is re-scored in full precision. Everything broadcast
    rides ONE ray.put (centroids + probe set + codebook + LUT); each
    block emits the exact cosine top-k of its shortlist and the driver
    merges k rows per block under the (round3 desc, id asc) key.

    Gate: with the defaults the result is exact-equal to brute-force
    top-k on the test corpora (same contract as emb_ann_lsh /
    emb_ann_ivf — the recall knobs are nprobe/nlist and the shortlist
    width; shallow-setting recall is asserted in tests)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    if shortlist is None:
        shortlist = max(64, 8 * k)
    first = _min_id_row(ds)
    q_id = first["vec_id"]
    q = np.asarray(first["embedding"], dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    # coarse quantizer sample (same stride policy as emb_ann_ivf)
    target = max(512, nlist * 64)
    sample_stride = max(7, n // target)

    sample_t = _strided_sample(ds, sample_stride)
    centroids = S.ivf_centroids(S.embedding_matrix(sample_t), nlist)
    probe = np.argsort(-(centroids @ q))[:nprobe]

    # PQ codec over NORMALIZED vectors (ADC L2 then ranks like cosine)
    cb = _pq_codebook(ds, n, ksub)
    if cb is None:
        return S._EMPTY_TOPK.empty_table()
    if cb.shape[1] % M:
        raise ValueError(f"dim {cb.shape[1]} not divisible by M={M}")
    cb = D.normalize_rows(cb.astype(np.float64)).astype(np.float64)
    dsub = cb.shape[1] // M
    lut = np.empty((M, cb.shape[0]))
    for mi in range(M):
        d = q[mi * dsub:(mi + 1) * dsub] - cb[:, mi * dsub:(mi + 1) * dsub]
        lut[mi] = (d ** 2).sum(axis=1)
    bcast = ray.put((q, centroids, np.asarray(probe, dtype=np.int64),
                     cb, lut))

    def block_scan(batch: pa.Table) -> pa.Table:
        qv, cent, probe_arr, cbm, lutm = ray.get(bcast)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = D.normalize_rows(S.embedding_matrix(batch)).astype(np.float64)
        lists = S.ivf_assign(m, cent)
        mask = np.isin(lists, probe_arr) & (ids != q_id)
        if not mask.any():
            return S._EMPTY_TOPK.empty_table()
        ids, m = ids[mask], m[mask]
        codes = _pq_encode(m, cbm, M)
        adc = lutm[np.arange(M), codes].sum(axis=1)
        keep = np.lexsort((ids, np.round(adc, 6)))[:shortlist]
        # exact re-rank of the shortlist only
        return S.topk_rows(ids[keep], m[keep] @ qv, k)

    return _topk_fold(ds, block_scan, k)


_MEAN_PART = pa.schema([("xsum", pa.list_(pa.float64())),
                        ("cnt", pa.int64())])


def emb_outlier_scores(sf_dir: str, threshold: float = 0.0):
    """Corpus-outlier scoring: cosine of every embedding against the
    corpus MEAN vector — the cheap first-pass quality gate for
    embedding spaces (off-manifold junk scores near or below zero
    while inliers cluster positive; the per-cluster refinement is
    emb_semdedup's territory). Two streaming passes: per-block
    (column-sum, count) partials — one dim+1 row per block — then the
    broadcast mean scores each block vectorized. Exact SQL mirror:
    per-dim AVG, the same f64 dot/norm arithmetic, ROUND-6; the
    is_outlier flag compares the ROUNDED cosine on both sides so the
    boundary is deterministic."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def mean_partial(t: pa.Table) -> pa.Table:
        m = S.embedding_matrix(t).astype(np.float64)
        return pa.table({"xsum": [m.sum(axis=0)], "cnt": [m.shape[0]]},
                        schema=_MEAN_PART)

    parts = X.fold(ds, mean_partial, _MEAN_PART)
    n = int(pc.sum(parts.column("cnt")).as_py() or 0)
    xsum = None
    for s in parts.column("xsum").to_pylist():  # block order, sequential
        xsum = np.asarray(s) if xsum is None else xsum + np.asarray(s)
    schema = pa.schema([("vec_id", pa.int64()), ("cos_mean", pa.float64()),
                        ("is_outlier", pa.bool_())])
    if n == 0:
        return rd.from_arrow(schema.empty_table())
    mu = xsum / n
    mnorm = float(np.sqrt((mu * mu).sum()))
    ref = ray.put(mu)

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        m = S.embedding_matrix(t).astype(np.float64)
        norms = np.sqrt((m * m).sum(axis=1)) * mnorm
        cos = np.zeros(m.shape[0])
        live = norms > 0
        cos[live] = (m @ ray.get(ref))[live] / norms[live]
        cos = np.round(cos, 6)
        return pa.Table.from_arrays([
            t.column("vec_id"), pa.array(cos),
            pa.array(cos < threshold),
        ], schema=schema)

    return ds.map_batches(score, batch_format="pyarrow")


_COV_PART = pa.schema([("xtx", pa.list_(pa.float64())),
                       ("xsum", pa.list_(pa.float64())),
                       ("cnt", pa.int64())])


def _cov_moments(ds: rd.Dataset):
    """One streaming pass of second-moment partials: each block emits
    its dim x dim Gram matrix (ONE dgemm), its column sum and its row
    count — the classic distributed-covariance layout where the driver
    reduce is blocks x (dim^2 + dim + 1) floats, corpus-independent.
    Returns (xtx, xsum, n) or (None, None, 0) on empty."""

    def partial(t: pa.Table) -> pa.Table:
        m = S.embedding_matrix(t).astype(np.float64)
        return pa.table({
            "xtx": [(m.T @ m).reshape(-1)],
            "xsum": [m.sum(axis=0)],
            "cnt": [m.shape[0]],
        }, schema=_COV_PART)

    parts = X.fold(ds, partial, _COV_PART)
    xtx, xsum = None, None
    for g, s in zip(parts.column("xtx").to_pylist(),  # block order
                    parts.column("xsum").to_pylist()):
        g, s = np.asarray(g), np.asarray(s)
        xtx, xsum = (g, s) if xtx is None else (xtx + g, xsum + s)
    n = int(pc.sum(parts.column("cnt")).as_py() or 0)
    if xtx is None:
        return None, None, 0
    dim = len(xsum)
    return xtx.reshape(dim, dim), xsum, n


def emb_covariance(sf_dir: str):
    """Population covariance matrix of the embedding corpus — the
    one-pass distributed Gram-matrix primitive under PCA / whitening /
    Mahalanobis scoring: cov = X'X/n - mu mu'. Each block contributes
    one dgemm partial (_cov_moments); nothing corpus-sized ships
    anywhere. Output: the upper triangle as (dim_i, dim_j, cov) rows,
    ROUND-6 — the SQL mirror recomputes the same moments through a
    positional-unnest self-join, so values gate exactly (both sides
    divide the same f64 sums by the same n)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    xtx, xsum, n = _cov_moments(ds)
    schema = pa.schema([("dim_i", pa.int64()), ("dim_j", pa.int64()),
                        ("cov", pa.float64())])
    if n == 0:
        return schema.empty_table()
    mu = xsum / n
    cov = xtx / n - np.outer(mu, mu)
    dim = cov.shape[0]
    ii, jj = np.triu_indices(dim)
    return pa.table({
        "dim_i": pa.array(ii.astype(np.int64)),
        "dim_j": pa.array(jj.astype(np.int64)),
        "cov": pa.array(np.round(cov[ii, jj], 6)),
    }, schema=schema)


def emb_pca_project(sf_dir: str, k: int = 8):
    """PCA projection of the embedding corpus onto its top-k principal
    components: the covariance comes from the same one-dgemm-per-block
    moment pass as emb_covariance, the 64 x 64 eigendecomposition runs
    on the driver (dim-sized, corpus-independent), and the projection
    is one more streaming pass against the broadcast component matrix.
    Components are sign-canonicalized (largest-|loading| coordinate
    made positive) so the output is deterministic up to eigh itself.
    Iterative/linear-algebra semantics are not SQL-expressible ->
    rows-only driver gate; pytest pins exact equality with a numpy
    reference (same eigh, same BLAS)."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    xtx, xsum, n = _cov_moments(ds)
    schema = pa.schema([("vec_id", pa.int64()),
                        ("proj", pa.list_(pa.float64()))])
    if n == 0:
        return rd.from_arrow(schema.empty_table())
    mu = xsum / n
    cov = xtx / n - np.outer(mu, mu)
    w, v = np.linalg.eigh(cov)
    comps = v[:, np.argsort(w)[::-1][:k]]  # dim x k, eigenvalue desc
    flip = comps[np.abs(comps).argmax(axis=0), np.arange(comps.shape[1])] < 0
    comps = np.where(flip, -comps, comps)
    ref = ray.put((mu, comps))

    def project(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        mu_b, c_b = ray.get(ref)
        p = np.round((S.embedding_matrix(t).astype(np.float64) - mu_b)
                     @ c_b, 6)
        rows, kk = p.shape
        offs = pa.array(np.arange(0, (rows + 1) * kk, kk, dtype=np.int32))
        return pa.Table.from_arrays([
            t.column("vec_id"),
            pa.ListArray.from_arrays(offs, pa.array(p.reshape(-1))),
        ], schema=schema)

    return ds.map_batches(project, batch_format="pyarrow")


_SEM_SCHEMA = pa.schema([
    ("vec_id", pa.int64()), ("rep_id", pa.int64()),
    ("cluster", pa.int64()),
])


def _sem_sample(block: pa.Table, stride: int) -> pa.Table:
    ids = block.column("vec_id").to_numpy(zero_copy_only=False)
    return block.filter(pa.array(ids % stride == 0))


def _sem_shard(block: pa.Table, P: int, cent: np.ndarray) -> list:
    """Assign + route one block: normalize (f64), nearest-centroid
    cluster id (f64, the same arithmetic the sample Lloyd used), then
    slice into P per-``cl % P`` shards. Vectors ship normalized as
    float32 (half the exchange bytes; the prune threshold compare is
    insensitive to f32 at any realistic margin — pinned by the planted
    soundness test)."""
    ids = block.column("vec_id").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    m = D.normalize_rows(S.embedding_matrix(block))
    cl = S.ivf_assign(m, cent)
    return X.split(cl % P, P, ids, cl, m.astype(np.float32))


def _sem_combine(threshold: float, chunk: int, *shards) -> pa.Table:
    """One hash partition: concat its shards, per-cluster chunked
    cosine triangle (precomputed triu mask — no per-tile index-array
    allocation), union-find over above-threshold pairs, emit every
    dropped member with its min-vec_id representative."""
    ids = np.concatenate([s[0] for s in shards])
    cl = np.concatenate([s[1] for s in shards])
    if not len(ids):
        return _SEM_SCHEMA.empty_table()
    m = np.concatenate([s[2] for s in shards])
    order = np.lexsort((ids, cl))
    cl, ids, m = cl[order], ids[order], np.ascontiguousarray(m[order])
    new = np.ones(len(cl), dtype=bool)
    new[1:] = cl[1:] != cl[:-1]
    bounds = np.append(np.flatnonzero(new), len(cl))
    triu = ~np.tri(chunk, chunk, k=0, dtype=bool)
    thr = np.float32(threshold)
    out_v, out_r, out_c = [], [], []
    for s, e in zip(bounds[:-1], bounds[1:]):
        sz = e - s
        if sz < 2:
            continue
        cm, cids = m[s:e], ids[s:e]  # ids ascending within cluster
        parent = np.arange(sz)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ci in range(0, sz, chunk):
            a = cm[ci:ci + chunk]
            for cj in range(ci, sz, chunk):
                hit = a @ cm[cj:cj + chunk].T >= thr
                if ci == cj:
                    hit &= triu[:hit.shape[0], :hit.shape[1]]
                pi, pj = np.nonzero(hit)
                for x, y in zip(pi + ci, pj + cj):
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        # root at the smaller index == smaller vec_id
                        if rx < ry:
                            parent[ry] = rx
                        else:
                            parent[rx] = ry
        roots = np.array([find(x) for x in range(sz)])
        dropped = np.flatnonzero(roots != np.arange(sz))
        if len(dropped):
            out_v.append(cids[dropped])
            out_r.append(cids[roots[dropped]])
            out_c.append(np.full(len(dropped), cl[s], dtype=np.int64))
    if not out_v:
        return _SEM_SCHEMA.empty_table()
    return pa.Table.from_arrays([
        pa.array(np.concatenate(out_v), pa.int64()),
        pa.array(np.concatenate(out_r), pa.int64()),
        pa.array(np.concatenate(out_c), pa.int64()),
    ], schema=_SEM_SCHEMA)


def emb_semdedup(sf_dir: str, nlist: int | None = None,
                 threshold: float = 0.95, chunk: int = 2048,
                 sample_stride: int | None = None):
    """SemDeDup (Abbas et al. 2023): semantic dedup by k-means
    bucketing + within-cluster cosine near-dup pruning — the scale path
    that turns O(n^2) embedding dedup into O(n^2 / nlist) by only
    comparing vectors that land in the same coarse cluster (the method
    accepts missing cross-cluster near-dups by design; exact all-pairs
    is ``emb_dedup_cosine``). Identical vectors always co-cluster
    (deterministic assignment), so exact duplicates are never missed.

    Engine shape: ONE parquet read materialized as block refs; a
    deterministic strided sample of those blocks -> driver Lloyd
    (S.ivf_centroids, same as IVF) -> broadcast centroids -> raw-task
    two-phase hash exchange (the ``_compat_shard`` pattern): each block
    is assigned + sliced into ``cl % P`` shards (``num_returns=P``), and
    P combine tasks pull only their shard, run the per-cluster chunked
    cosine triangle + union-find, and emit one row per DROPPED vector
    (vec_id, rep_id, cluster). The result Dataset is built
    ``from_arrow_refs`` — dropped rows never concat on the driver.

    Why not a Ray Data ``groupby('part')`` fold (the usual partition-grouped
    idiom): the prune is compute-heavy per byte, and Ray Data sizes the
    sort's output blocks BY BYTES, capping the post-shuffle map at ~2-3
    concurrent tasks here (measured: 128 identical prune tasks finish in
    7.9 s as raw tasks vs 94 s through groupby at 4M x 64). Same
    deliberate drop below the Dataset API as ``_label_prop``, same
    justification: measured 6-8x on a fixed workload. Worker memory is
    bounded by ``chunk^2`` cos tiles + the partition's vectors — the
    SemDeDup analog of the LSH bucket contract: ``nlist`` scales with
    the corpus so clusters stay ~n/nlist; a degenerate corpus that
    collapses into one cluster concentrates that cluster's vectors in
    one combine task (document/raise, don't silently churn);
    iterative k-means is not SQL-expressible -> rows-only driver gate;
    soundness/recall pytest-pinned against the exact all-pairs brute
    force."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = _parquet_num_rows(sf_dir, "embeddings")
    nlist = nlist or max(8, min(1024, n // 1000))
    if sample_stride is None:
        target = max(256, nlist * 16)
        sample_stride = max(1, n // target)

    refs = X.block_refs(ds)
    if not refs:
        return rd.from_arrow(_SEM_SCHEMA.empty_table())
    sample_task = ray.remote(_sem_sample)
    sample_t = pa.concat_tables(
        ray.get([sample_task.remote(r, sample_stride) for r in refs])
    ).sort_by("vec_id")  # block arrival order is nondeterministic
    centroids = S.ivf_centroids(S.embedding_matrix(sample_t), nlist)
    cent_ref = ray.put(centroids)
    P = X.n_parts()
    shard_refs = X.shard(_sem_shard, refs, P, P, cent_ref)
    return rd.from_arrow_refs(
        X.combine(_sem_combine, shard_refs, threshold, chunk))
