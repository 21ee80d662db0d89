import os

import pyarrow as pa
import pyarrow.parquet as pq

from open_telemetry_opentelemetry_collector_contrib_ray.sources.evolve import (
    normalize_to_schema,
    read_parquet_evolved,
)

TARGET = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                    ("kind", pa.string()), ("cents", pa.int64())])


def _write(tmp_path, name, table):
    p = str(tmp_path / name)
    pq.write_table(table, p)
    return p


def test_normalize_rename_cast_backfill_drop():
    t = pa.table({"eid": pa.array([1, 2], pa.int32()),
                  "uid": pa.array([7, 8], pa.int64()),
                  "kind": pa.array(["a", "b"], pa.string()),
                  "legacy_junk": pa.array([0.0, 1.0], pa.float64())})
    out = normalize_to_schema(TARGET, {"eid": "event_id",
                                       "uid": "user_id"})(t)
    assert out.schema == TARGET  # order, names, types
    assert out.column("event_id").type == pa.int64()  # widened
    assert out.column("cents").null_count == 2  # backfilled
    assert "legacy_junk" not in out.column_names


def test_read_evolved_union_two_versions(tmp_path):
    v1 = _write(tmp_path, "v1.parquet", pa.table({
        "eid": pa.array([1, 2], pa.int32()),
        "uid": pa.array([10, 11], pa.int64()),
        "kind": pa.array(["x", "y"], pa.string()),
        "dead_col": pa.array([9, 9], pa.int64())}))
    v2 = _write(tmp_path, "v2.parquet", pa.table({
        "event_id": pa.array([3, 4], pa.int64()),
        "user_id": pa.array([12, 13], pa.int64()),
        "kind": pa.array(["z", "w"], pa.string()),
        "cents": pa.array([100, 200], pa.int64())}))
    ds = read_parquet_evolved(
        [(v1, {"eid": "event_id", "uid": "user_id"}), (v2, None)], TARGET)
    rows = sorted(ds.take_all(), key=lambda r: r["event_id"])
    assert [r["event_id"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["cents"] is None and rows[2]["cents"] == 100
    assert {r["kind"] for r in rows} == {"x", "y", "z", "w"}
    # single guaranteed schema on the union
    assert set(ds.schema().names) == set(TARGET.names)


def test_read_prunes_at_the_read(tmp_path):
    # the v1 group must request only mapped columns — dead_col never
    # leaves storage (observable via the normalized batch contents and
    # the columns= prune computed from the file schema)
    v1 = _write(tmp_path, "v1.parquet", pa.table({
        "eid": pa.array([1], pa.int32()),
        "uid": pa.array([5], pa.int64()),
        "kind": pa.array(["k"], pa.string()),
        "huge_blob": pa.array([b"x" * 10], pa.binary())}))
    ds = read_parquet_evolved(
        [(v1, {"eid": "event_id", "uid": "user_id"})], TARGET)
    out = ds.take_all()
    assert out[0]["user_id"] == 5 and out[0]["cents"] is None


def test_read_group_prunes_to_columns_every_file_has(tmp_path):
    # the group's SECOND file lacks `cents`: the prune list intersects
    # every file's footer, so the column null-fills instead of raising
    a = _write(tmp_path, "a.parquet", pa.table({
        "event_id": pa.array([1], pa.int64()),
        "user_id": pa.array([5], pa.int64()),
        "kind": pa.array(["k"], pa.string()),
        "cents": pa.array([100], pa.int64())}))
    b = _write(tmp_path, "b.parquet", pa.table({
        "event_id": pa.array([2], pa.int64()),
        "user_id": pa.array([6], pa.int64()),
        "kind": pa.array(["m"], pa.string())}))
    ds = read_parquet_evolved([([a, b], None)], TARGET)
    rows = sorted(ds.take_all(), key=lambda r: r["event_id"])
    assert [r["user_id"] for r in rows] == [5, 6]
    assert [r["cents"] for r in rows] == [None, None]
    assert set(ds.schema().names) == set(TARGET.names)
