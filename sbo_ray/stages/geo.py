"""GeoIP-style broadcast-lookup enrichment (north-star ST4
generalization; SURVEY.md §2.5).

A small prefix->label table (the stand-in for a GeoIP database / any
dimension table) is broadcast once with ``ray.put``; each task resolves
it once per worker and enriches batches via a per-unique-IP cache —
the broadcast-hash-join pattern: no shuffle, the small side ships once
per node.

The bundled ``DEFAULT_GEO`` maps the RFC 5737 documentation prefixes the
synthetic corpus uses; real deployments pass their own table (or a
``.mmdb`` reader held in an actor pool — same plumbing, stateful init).
"""

from __future__ import annotations

import pyarrow as pa

import ray

from ..codec import one_array

DEFAULT_GEO: dict[str, str] = {
    "192.0.2": "testnet-1",
    "198.51.100": "testnet-2",
    "203.0.113": "testnet-3",
}
GEO_UNKNOWN = "unknown"


def geo_label(ip: str, table: dict[str, str]) -> str:
    """Longest-prefix (/24 then /16) lookup with an 'unknown' default."""
    parts = ip.rsplit(".", 1)
    if len(parts) == 2 and parts[0] in table:
        return table[parts[0]]
    two = ip.split(".")
    if len(two) >= 2:
        key = ".".join(two[:2])
        if key in table:
            return table[key]
    return GEO_UNKNOWN


def make_geo_enricher(geo_table: dict[str, str] | None = None):
    """Returns a map_batches fn adding a ``geo`` column from client_ip.
    The table is broadcast via ray.put and fetched once per worker."""
    table_ref = ray.put(geo_table if geo_table is not None else DEFAULT_GEO)
    cache: dict[str, str] = {}
    resolved: list[dict] = []

    def enrich(batch: pa.Table) -> pa.Table:
        if not resolved:
            resolved.append(ray.get(table_ref))
        table = resolved[0]
        import pyarrow.compute as pc

        ips = one_array(batch.column("client_ip"))
        enc = pc.dictionary_encode(ips)
        if len(cache) > (1 << 19):
            # client-IP cardinality is unbounded at scale; cap like the
            # parse-stage per-unique caches (full clear; hit rates on
            # log-shaped data recover within a batch)
            cache.clear()
        labels = []
        for ip in enc.dictionary.to_pylist():
            hit = cache.get(ip)
            if hit is None:
                hit = cache.setdefault(ip, geo_label(ip or "", table))
            labels.append(hit)
        geo = pa.DictionaryArray.from_arrays(
            enc.indices, pa.array(labels, type=pa.string())
        ).cast(pa.string())
        return batch.append_column("geo", geo)

    return enrich
