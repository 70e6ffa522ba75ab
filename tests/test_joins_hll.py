"""HLL approximate distinct."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def ds(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(1)
    t = pa.table({
        "k": pa.array([f"key{int(i)}" for i in rng.randint(0, 5000, 40000)]),
        "v": pa.array(np.arange(40000, dtype=np.int64)),
    })
    return rd.from_arrow(t).repartition(8), t


def test_hll_accuracy_and_merge(ds):
    from sbo_ray.stages.hll import HyperLogLog, approx_distinct, _hash_strings

    d, t = ds
    exact = len(set(t.column("k").to_pylist()))
    est = approx_distinct(d, "k", p=12)
    assert abs(est - exact) / exact < 0.05  # HLL std error ~1.04/sqrt(4096)

    # merge(a,b) == add(a+b)
    a, b, ab = HyperLogLog(10), HyperLogLog(10), HyperLogLog(10)
    xs = [f"x{i}" for i in range(3000)]
    ys = [f"y{i}" for i in range(3000)]
    a.add_hashes(_hash_strings(xs))
    b.add_hashes(_hash_strings(ys))
    ab.add_hashes(_hash_strings(xs + ys))
    a.merge(b)
    assert a.estimate() == ab.estimate()


def test_hll_distinct_clients_query_accuracy(ray_session):
    from sbo_ray.pipelines.queries import (
        q_log_distinct_clients,
        q_log_distinct_clients_hll,
    )

    SF = "/root/testdata/sf0.001"
    est = q_log_distinct_clients_hll(SF).to_pandas().set_index("source")
    exact = q_log_distinct_clients(SF)
    exact = (exact.to_pandas() if hasattr(exact, "to_pandas") else exact
             ).set_index("source")
    j = est.join(exact)
    rel = (j["n_clients_est"] - j["n_clients"]).abs() / j["n_clients"]
    assert rel.max() <= 0.05  # p=12 -> ~1.6% std err
