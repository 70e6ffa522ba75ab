"""Broadcast join helpers (SURVEY.md §2.5; Ray guide patterns).

The reference's only join is the broadcast get-or-create domain-id cache
(ST4, db/mysqldb.go:91-121); these helpers generalize it:

- ``broadcast_lookup``: dimension-table enrich (ray.put once, dict map
  per batch). No engine op calls it: stages/geo.py and
  ``dp_rel_events.customer_nation_agg`` inline their own broadcast.
- ``semi_join`` / ``anti_join``: broadcast the (small) key set and
  filter inside map_batches — no shuffle.

Both-sides-large joins belong to ``Dataset.join`` (hash-partitioned) or
a raw-task hash exchange (``exchange.shard``/``combine``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd


def semi_join(ds: rd.Dataset, column: str, keys) -> rd.Dataset:
    """Keep rows whose ``column`` value is in ``keys`` (broadcast set)."""
    return _key_filter(ds, column, keys, keep=True)


def anti_join(ds: rd.Dataset, column: str, keys) -> rd.Dataset:
    """Drop rows whose ``column`` value is in ``keys`` (broadcast set)."""
    return _key_filter(ds, column, keys, keep=False)


def _key_filter(ds: rd.Dataset, column: str, keys, keep: bool) -> rd.Dataset:
    keys = sorted(set(keys))
    if not keys:
        # empty key set: pa.array([]) infers null type and is_in raises
        # against a typed column — handle the no-op/drop-all explicitly
        if keep:
            return ds.map_batches(lambda b: b.slice(0, 0),
                                  batch_format="pyarrow")
        return ds
    key_ref = ray.put(pa.array(keys))

    def flt(batch: pa.Table) -> pa.Table:
        ks = ray.get(key_ref)
        mask = pc.is_in(batch.column(column), value_set=ks)
        if not keep:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(flt, batch_format="pyarrow")


def broadcast_lookup(ds: rd.Dataset, column: str, mapping: dict,
                     out_column: str, default=None) -> rd.Dataset:
    """Add ``out_column`` by looking ``column`` up in a broadcast dict
    (the generalized ST4 / GeoIP pattern); per-unique resolution via
    dictionary encode."""
    map_ref = ray.put(mapping)

    def enrich(batch: pa.Table) -> pa.Table:
        m = ray.get(map_ref)
        col = batch.column(column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col)
        vals = pa.array([m.get(v, default) for v in enc.dictionary.to_pylist()])
        return batch.append_column(out_column, vals.take(enc.indices))

    return ds.map_batches(enrich, batch_format="pyarrow")
