"""HyperLogLog distinct-count sketch: the mergeable scale path for
COUNT(DISTINCT ...) (exact distinct counting shuffles every key; one
2^p-byte sketch per block merges by max).

Standard HLL (Flajolet et al.) with the usual small-range linear
counting correction; numpy-vectorized register updates.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..codec import one_array


class HyperLogLog:
    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12) -> None:
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, hashes: np.ndarray) -> None:
        # expects FULL 64-bit hashes (md5-based): a 32-bit base hash
        # saturates near 4.3B distinct values no matter the scramble,
        # silently underestimating exactly at the scale HLL exists for
        h = hashes.astype(np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64(1 << (self.p - 1))
        # rank = leading zeros of the remaining bits + 1
        mask = np.uint64(1) << np.uint64(63)
        cur = rest.copy()
        ranks = np.ones(len(h), dtype=np.uint8)
        live = np.ones(len(h), dtype=bool)
        for _ in range(64 - self.p + 1):
            top = (cur & mask) != 0
            done = live & top
            live &= ~top
            if not live.any():
                break
            cur = cur << np.uint64(1)
            ranks[live] += 1
        np.maximum.at(self.registers, idx, ranks)

    def merge(self, other: "HyperLogLog") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)

    def estimate(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** (-self.registers.astype(np.float64)))
        if est <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                est = m * np.log(m / zeros)  # linear counting
        return float(est)


def _hash_strings(vals: list[str]) -> np.ndarray:
    """64-bit md5-based hash per value (the engine's per-unique idiom)."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(v.encode()).digest()[:8], "big")
         for v in vals),
        dtype=np.uint64, count=len(vals),
    )


def hll_partial(batch: pa.Table, column: str, p: int = 12) -> pa.Table:
    import pyarrow.compute as pc

    col = one_array(batch.column(column))
    uniq = pc.unique(col).to_pylist()
    hll = HyperLogLog(p)
    if uniq:
        hll.add_hashes(_hash_strings([str(u) for u in uniq]))
    return pa.table({
        "p": pa.array([p], type=pa.int32()),
        "registers": pa.array([hll.registers.tobytes()], type=pa.binary()),
    })


def approx_distinct(ds: rd.Dataset, column: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT column): per-block HLL + driver merge."""
    parts = ds.map_batches(
        lambda b: hll_partial(b, column, p), batch_format="pyarrow",
        batch_size=None,
    )
    merged: HyperLogLog | None = None
    # column access per batch, not iter_rows (row iteration re-boxes
    # every cell; the partial stream is one row per block but the idiom
    # should not invite per-row reads)
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        ps = b.column("p").to_pylist()
        regs = b.column("registers").to_pylist()
        for pv, rv in zip(ps, regs):
            h = HyperLogLog(pv)
            h.registers = np.frombuffer(rv, dtype=np.uint8).copy()
            if merged is None:
                merged = h
            else:
                merged.merge(h)
    return 0.0 if merged is None else merged.estimate()
