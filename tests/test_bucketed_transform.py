"""bucketed_group_transform: the one keyed hash exchange every shuffle
operator routes through."""

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from open_telemetry_opentelemetry_collector_contrib_ray.stages.aggregate import (
    bucketed_group_transform,
)


def _input(n=2_000, n_keys=37):
    t = pa.table({"k": pa.array([i % n_keys for i in range(n)], pa.int64()),
                  "s": pa.array([f"s{i % n_keys}" for i in range(n)]),
                  "v": pa.array(range(n), pa.int64())})
    # many input blocks, so a key's rows start out spread across them
    return rd.from_arrow([t.slice(i, 250) for i in range(0, n, 250)])


@pytest.mark.parametrize("coalesce", [True, False])
def test_pyarrow_fn_sees_every_row_of_a_key_in_one_call(coalesce):
    def per_call(t: pa.Table) -> pa.Table:
        assert t.column_names == ["k", "s", "v"]  # no __bucket
        return t.group_by(["k"]).aggregate([("v", "count"), ("v", "sum")])

    out = bucketed_group_transform(_input(), ["k"], per_call, n_buckets=4,
                                   batch_format="pyarrow",
                                   coalesce=coalesce).to_pandas()
    # one output row per key means no key was split across two calls
    assert len(out) == 37 and out["k"].is_unique
    assert out["v_count"].sum() == 2_000
    assert out["v_sum"].sum() == sum(range(2_000))


def test_pandas_fn_empty_buckets_keep_one_schema():
    def only_key_zero(g: pd.DataFrame) -> pd.DataFrame:
        assert "__bucket" not in g.columns
        out = g[g["k"] == 0].copy()
        out["note"] = None  # a column the input never had
        return out

    ds = bucketed_group_transform(_input(), ["k"], only_key_zero,
                                  n_buckets=4).materialize()
    # a sort range that drew no rows comes out of Ray's shuffle as a
    # 0-row, 0-column block that fn never sees; every other block is fn's
    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_columns]
    # the buckets without key 0 returned empty frames, whose object
    # columns would infer as null type; every block still has one schema
    assert any(b.num_rows == 0 for b in blocks)
    schemas = {b.schema for b in blocks}
    assert len(schemas) == 1
    [schema] = schemas
    assert schema.field("s").type == pa.string()  # recovered from input
    assert schema.field("note").type == pa.string()  # fallback
    assert schema.metadata is None
    out = ds.to_pandas()
    assert len(out) == 2_000 // 37 + 1 and set(out["k"]) == {0}


def test_multi_column_key_co_locates_rows():
    def per_call(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["k", "s"], as_index=False).size()

    out = bucketed_group_transform(_input(), ["k", "s"], per_call,
                                   n_buckets=4).to_pandas()
    assert len(out) == 37 and out["size"].sum() == 2_000
