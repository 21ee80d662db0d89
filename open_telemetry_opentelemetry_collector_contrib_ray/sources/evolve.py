"""Schema-evolution parquet reader: one Dataset over files written by
DIFFERENT pipeline versions.

A long-lived log pipeline accumulates parquet written under several
schema versions (renamed columns, widened types, added fields).  The
collector handles this per-record with schemaprocessor transforms
(stages/enrich.py SchemaRename); THIS is the reader-side batch form:
each file group declares how its layout maps onto the CURRENT schema,
normalization runs map-side right after the read (zero-copy column
rename, vectorized cast, typed-null backfill for columns that did not
exist yet, surplus columns dropped), and the groups union into one
Dataset with a single guaranteed schema.

Scale shape: pruning still happens AT THE READ — each group's
``read_parquet`` requests only the SOURCE columns that map into the
target (inverse of its rename map), so old wide files do not ship dead
columns.  Normalization is per-batch Arrow metadata work; the union is
plan-level (no data movement).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import pyarrow as pa


def normalize_to_schema(target: pa.Schema,
                        rename: Mapping[str, str] | None = None):
    """Batch fn: rename per ``rename`` (old -> new), cast to the target
    field types, backfill missing fields with typed nulls, drop surplus
    columns, and order columns per the target schema."""
    ren = dict(rename or {})

    def f(t: pa.Table) -> pa.Table:
        t = t.rename_columns([ren.get(c, c) for c in t.column_names])
        cols = []
        for field in target:
            if field.name in t.column_names:
                col = t.column(field.name)
                if col.type != field.type:
                    col = col.cast(field.type)
            else:
                col = pa.nulls(t.num_rows, field.type)
            cols.append(col)
        return pa.table(dict(zip(target.names, cols)))

    return f


def read_parquet_evolved(groups: Sequence[tuple],
                         target: pa.Schema, **read_kwargs):
    """Read ``groups`` of ``(paths, rename_map)`` parquet file groups —
    one group per historical schema version — normalizing every group
    onto ``target`` and unioning into one Dataset.  Column pruning is
    pushed into each group's read via the inverse rename map; a target
    column missing from any file of a group is null-filled for that
    whole group."""
    import pyarrow.parquet as pq
    import ray.data as rd

    parts = []
    for paths, rename in groups:
        ren = dict(rename or {})
        inv = {v: k for k, v in ren.items()}
        # source columns that map into the target, intersected with
        # EVERY file schema of the group (read_parquet(columns=) errors
        # on a name absent from any file; a column some file lacks reads
        # as typed nulls for the group) — footer reads only, and the
        # prune happens AT THE READ, not after
        plist = [paths] if isinstance(paths, str) else list(paths)
        have = set.intersection(*(set(pq.read_schema(p).names)
                                  for p in plist))
        keep = [inv.get(name, name) for name in target.names
                if inv.get(name, name) in have]
        ds = rd.read_parquet(plist, columns=keep, **read_kwargs)
        parts.append(ds.map_batches(normalize_to_schema(target, ren),
                                    batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out
