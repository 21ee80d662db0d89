"""Grouping / aggregation stages.

Reference semantics (not code):
- countconnector: optional OTTL conditions, group-by attributes, emit
  counts per group — /root/reference/connector/countconnector/
  counter.go:38-128, config.go:29-51.
- sumconnector: sums a source attribute — connector/sumconnector/config.go:19-30.
- logdedupprocessor: aggregate identical records, emit representative +
  log_count + first/last observed timestamps —
  processor/logdedupprocessor/processor.go:85-125, counter.go:63-130.
- spanmetricsconnector: grouped counts + explicit-bucket duration
  histograms — connector/spanmetricsconnector/connector.go:37-151.
- deltatocumulativeprocessor: keyed running sums —
  processor/deltatocumulativeprocessor/processor.go:25-63.
- recombine (multiline stitch, ordered within source) —
  pkg/stanza/operator/transformer/recombine/transformer.go:97-151.

Scale design: every grouped aggregate here is TWO-PHASE — a vectorized
per-batch partial aggregate inside ``map_batches`` (pyarrow
``Table.group_by``) shrinks the data BEFORE the all-to-all shuffle;
the global ``Dataset.groupby().aggregate()`` then combines partials.
At 100 TB the shuffle moves one row per (key, batch), not per record.
The streaming window of the reference (dedup interval, flush timers)
maps to the run/partition being the window (SURVEY.md §2.10).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.ast import parse_condition

# (op, source_col, alias); op in count/sum/min/max/mean
AggSpec = tuple[str, str | None, str]


def arrow_out(fn):
    """Wrap a pandas->pandas group/batch reducer so it emits a
    metadata-free ARROW block instead of a DataFrame: the schema stays
    hashable (Ray's schema dedup works instead of warning 'Failed to
    hash the schemas'), and downstream exchange moves zero-copy IPC
    blocks rather than pickled frames.  Pure packaging — the reducer
    body is unchanged."""
    import functools

    @functools.wraps(fn)
    def wrapped(g, *a, **kw):
        out = fn(g, *a, **kw)
        if isinstance(out, pd.DataFrame):
            return pa.Table.from_pandas(out, preserve_index=False) \
                           .replace_schema_metadata(None)
        return out

    return wrapped


class _PartialAgg:
    """Per-batch partial aggregation (phase 1)."""

    def __init__(self, keys: Sequence[str], specs: Sequence[AggSpec],
                 conditions: Sequence[str] | None = None):
        self.keys = list(keys)
        self.specs = list(specs)
        self.masks = [parse_condition(c) for c in (conditions or [])]

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.masks:  # OR semantics, like countconnector conditions
            m = pc.fill_null(self.masks[0](batch), False)
            for extra in self.masks[1:]:
                m = pc.or_(m, pc.fill_null(extra(batch), False))
            batch = batch.filter(m)
        # NOTE: no empty-batch special case — pyarrow group_by on a 0-row
        # table returns a 0-row result with the CORRECT column types, while
        # a hand-built empty (the old _empty()) typed every key as string
        # and broke schema consistency for int-keyed aggregations whenever
        # an upstream filter emptied one batch.
        needed: dict[tuple, None] = {}
        for op, col, alias in self.specs:
            if op == "count":
                needed[("", "count_all")] = None
            elif op == "mean":
                needed[(col, "sum")] = None
                needed[(col, "count")] = None
            else:
                needed[(col, op)] = None
        pa_aggs = [([] if c == "" else c, op) for c, op in needed]
        gb = batch.group_by(self.keys).aggregate(pa_aggs)
        out_cols = {}
        for k in self.keys:
            out_cols[k] = gb.column(k)
        for op, col, alias in self.specs:
            if op == "count":
                out_cols[f"__p_{alias}"] = gb.column("count_all").cast(pa.int64())
            elif op == "mean":
                out_cols[f"__ps_{alias}"] = gb.column(f"{col}_sum")
                out_cols[f"__pc_{alias}"] = gb.column(f"{col}_count").cast(pa.int64())
            else:
                out_cols[f"__p_{alias}"] = gb.column(f"{col}_{op}")
        return pa.table(out_cols)

    def _empty(self) -> pa.Table:
        cols = {k: pa.array([], type=pa.string()) for k in self.keys}
        for op, col, alias in self.specs:
            if op == "mean":
                cols[f"__ps_{alias}"] = pa.array([], type=pa.float64())
                cols[f"__pc_{alias}"] = pa.array([], type=pa.int64())
            else:
                cols[f"__p_{alias}"] = pa.array([], type=pa.int64())
        return pa.table(cols)


def _merge_partials(merged: pa.Table, keys: Sequence[str],
                    specs: Sequence[AggSpec]) -> pa.Table:
    """Combine phase over partial columns (one pyarrow group_by)."""
    pa_aggs, renames = [], {}
    for op, col, alias in specs:
        if op in ("count", "sum"):
            pa_aggs.append((f"__p_{alias}", "sum"))
            renames[alias] = f"__p_{alias}_sum"
        elif op in ("min", "max"):
            pa_aggs.append((f"__p_{alias}", op))
            renames[alias] = f"__p_{alias}_{op}"
        elif op == "mean":
            pa_aggs.append((f"__ps_{alias}", "sum"))
            pa_aggs.append((f"__pc_{alias}", "sum"))
    out = merged.group_by(list(keys)).aggregate(pa_aggs)
    cols = {k: out.column(k) for k in keys}
    for op, col, alias in specs:
        if op == "mean":
            cols[alias] = pc.divide(
                pc.cast(out.column(f"__ps_{alias}_sum"), pa.float64()),
                pc.cast(out.column(f"__pc_{alias}_sum"), pa.float64()))
        else:
            cols[alias] = out.column(renames[alias])
    return pa.table(cols)


def _merge_partials_keep_partial(t: pa.Table, keys: Sequence[str],
                                 specs: Sequence[AggSpec]) -> pa.Table:
    """Merge partial rows by key, KEEPING the partial column naming, so
    the result can feed another merge level (a tree reduce)."""
    if t.num_rows == 0:
        return t
    pa_aggs = []
    for op, col, alias in specs:
        if op in ("count", "sum"):
            pa_aggs.append((f"__p_{alias}", "sum"))
        elif op in ("min", "max"):
            pa_aggs.append((f"__p_{alias}", op))
        elif op == "mean":
            pa_aggs.append((f"__ps_{alias}", "sum"))
            pa_aggs.append((f"__pc_{alias}", "sum"))
    gb = t.group_by(list(keys)).aggregate(pa_aggs)
    cols = {k: gb.column(k) for k in keys}
    for op, col, alias in specs:
        if op in ("count", "sum"):
            cols[f"__p_{alias}"] = gb.column(f"__p_{alias}_sum")
        elif op in ("min", "max"):
            cols[f"__p_{alias}"] = gb.column(f"__p_{alias}_{op}")
        elif op == "mean":
            cols[f"__ps_{alias}"] = gb.column(f"__ps_{alias}_sum")
            cols[f"__pc_{alias}"] = gb.column(f"__pc_{alias}_sum")
    return pa.table(cols)


def grouped_agg(ds, keys: Sequence[str], specs: Sequence[AggSpec],
                conditions: Sequence[str] | None = None,
                combine: str = "shuffle", n_buckets: int = 64,
                coalesce: bool = True):
    """Two-phase grouped aggregate -> Dataset with keys + aliased agg columns.

    combine="shuffle" (default): global Dataset.groupby over the partials —
    right when key cardinality is large (dedup keys, per-conversation).
    combine="driver": the partials (one row per key per batch) are collected
    and merged on the driver with one pyarrow group_by — right when key
    cardinality is SMALL (roles, routes, severities): it skips the
    all-to-all shuffle entirely, the tree-reduce pattern of the
    countconnector's in-memory counter map (counter.go:38-106).
    combine="bucket": explicit partitioned hash aggregate — partials gain a
    `hash(keys) % n_buckets` column, ONE shuffle co-locates each bucket,
    and the combine is a vectorized pyarrow group_by per bucket (64 python
    calls total, not one per key).  Right for HIGH-cardinality keys
    (dedup, per-conversation): ~5-10x faster than Dataset.groupby's
    sort-based aggregate at the same result."""
    from ray.data.aggregate import Max, Min, Sum

    partial = ds.map_batches(_PartialAgg(keys, specs, conditions),
                             batch_format="pyarrow")
    if combine == "driver":
        import ray

        # intermediate tree level: re-batch many per-block partial tables
        # and merge them in the WORKERS before anything reaches the
        # driver.  Without this, the driver collects one row per (key,
        # input batch) — at 100 TB (millions of batches) even 5 keys
        # means millions of driver rows; with it, each 64Ki-row re-batch
        # collapses to one row per distinct key.
        def pre_reduce(t: pa.Table) -> pa.Table:
            return _merge_partials_keep_partial(t, keys, specs)

        # materialize the partials BEFORE the rebatching pre-reduce:
        # (1) a row-count batch_size fuses with the upstream map chain
        # and bundles by INPUT rows — when upstream rows are coarse
        # (e.g. one row per file in a binary reader) the whole input
        # collapses into one task and the entire pipeline runs serially
        # (observed: 9.5s -> 1.3s on the otlp roundtrip);
        # (2) on a plan whose schema is not statically known,
        # to_arrow_refs would re-execute the DAG to resolve the schema.
        # The partial blocks are tiny (one row per key per input batch),
        # so holding them in the object store is free.
        reduced = partial.materialize().map_batches(
            pre_reduce, batch_format="pyarrow", batch_size=65536)
        refs = reduced.materialize().to_arrow_refs()
        all_tables = ray.get(refs)
        tables = [t for t in all_tables if t.num_rows]
        if not tables:
            # all-empty input: the 0-row partial blocks still carry the
            # CORRECT key dtypes (pyarrow group_by on 0 rows) — prefer one
            # of those over the hand-built string-typed fallback.  Guard
            # against SCHEMA-LESS empty blocks (Ray emits zero-column
            # tables from some empty plans), which would make the final
            # group_by fail with "No match for FieldRef"
            usable = [t for t in all_tables
                      if all(k in t.column_names for k in keys)]
            tables = usable[:1] if usable \
                else [_PartialAgg(keys, specs, conditions)._empty()]
        merged = pa.concat_tables(tables, promote_options="permissive")
        import ray.data as rd

        return rd.from_arrow(_merge_partials(merged, keys, specs))
    if combine == "bucket":
        return _bucket_combine(partial, keys, specs, n_buckets, coalesce)
    ray_aggs = []
    for op, col, alias in specs:
        if op in ("count", "sum"):
            ray_aggs.append(Sum(f"__p_{alias}", alias_name=alias))
        elif op == "min":
            ray_aggs.append(Min(f"__p_{alias}", alias_name=alias))
        elif op == "max":
            ray_aggs.append(Max(f"__p_{alias}", alias_name=alias))
        elif op == "mean":
            ray_aggs.append(Sum(f"__ps_{alias}", alias_name=f"__s_{alias}"))
            ray_aggs.append(Sum(f"__pc_{alias}", alias_name=f"__c_{alias}"))
    out = partial.groupby(list(keys)).aggregate(*ray_aggs)
    mean_aliases = [alias for op, _, alias in specs if op == "mean"]
    if mean_aliases:
        def finish(t: pa.Table) -> pa.Table:
            for alias in mean_aliases:
                mean = pc.divide(pc.cast(t.column(f"__s_{alias}"), pa.float64()),
                                 pc.cast(t.column(f"__c_{alias}"), pa.float64()))
                t = t.append_column(alias, mean)
            return t.select([c for c in t.column_names if not c.startswith("__")])
        out = out.map_batches(finish, batch_format="pyarrow")
    return out


def _bucket_combine(partial, keys: Sequence[str], specs: Sequence[AggSpec],
                    n_buckets: int, coalesce: bool = True):
    """Shared combine phase over __p_-named partial rows: ONE bucketed
    shuffle by key, one vectorized _merge_partials per bucket.  Used by
    grouped_agg(combine='bucket') and sliding_window_agg so the two
    cannot drift."""
    keys = list(keys)
    return bucketed_group_transform(
        partial, keys, lambda t: _merge_partials(t, keys, specs), n_buckets,
        batch_format="pyarrow", coalesce=coalesce)


def grouped_count(ds, keys: Sequence[str], conditions: Sequence[str] | None = None,
                  alias: str = "count", combine: str = "driver"):
    """countconnector analog: per-group record counts (delta sums).
    Defaults to driver combine — count group-bys are low-cardinality."""
    return grouped_agg(ds, keys, [("count", None, alias)], conditions, combine=combine)


def grouped_linear_stats(ds, keys: Sequence[str], x_col: str,
                         y_col: str) -> pa.Table:
    """Per-group Pearson correlation + OLS slope (y on x) from EXACT
    integer sufficient statistics — the mergeable-sketch shape: each
    batch contributes per-group partials (n, Σx, Σy, Σxy, Σx², Σy²)
    summed in decimal128 (exact 128-bit, matching DuckDB's HUGEINT sum
    of BIGINT — int64 accumulation would silently wrap on big corpora),
    the combine is a kilobyte worker-side re-merge, and the float
    result is computed ONCE per group from exact Python-int terms with
    a fixed op order, so a SQL oracle matches bitwise:

        num   = n*Σxy - Σx*Σy          (exact int)
        den_x = n*Σx² - Σx*Σx          (exact int, >= 0)
        den_y = n*Σy² - Σy*Σy          (exact int, >= 0)
        corr  = double(num) / (sqrt(double(den_x)) * sqrt(double(den_y)))
        slope = double(num) / double(den_x)

    `x_col`/`y_col` must be integer columns with |value| < 2^31
    (quantize floats upstream — the integer-cents idiom; the bound
    keeps every per-ROW product inside int64 and is checked per batch).
    Rows where x or y is NULL are skipped — pairwise deletion, the SQL
    `corr`/`regr_*` NULL semantics.  Zero rows shuffle; only
    per-(key, batch) partial rows move.  corr/slope are NULL when the
    matching denominator is zero (constant x or y within the group)."""
    import math

    import ray
    import ray.data  # noqa: F401  (Dataset API on ds)

    keys = list(keys)
    dec = pa.decimal128(38, 0)
    sum_cols = ["sx", "sy", "sxy", "sxx", "syy"]
    LIM = 1 << 31

    def partial(t: pa.Table) -> pa.Table:
        xa, ya = t.column(x_col), t.column(y_col)
        valid = pc.and_(pc.is_valid(xa), pc.is_valid(ya))
        t = t.filter(valid)
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and (np.abs(x).max() >= LIM or np.abs(y).max() >= LIM):
            raise ValueError(
                f"grouped_linear_stats: |{x_col}| and |{y_col}| must be "
                f"< 2^31 so per-row products stay exact in int64 — "
                f"rescale/quantize upstream")
        g = pa.table({
            **{k: t.column(k) for k in keys},
            "n": pa.array(np.ones(len(x), np.int64)),
            "sx": pc.cast(pa.array(x), dec),
            "sy": pc.cast(pa.array(y), dec),
            "sxy": pc.cast(pa.array(x * y), dec),
            "sxx": pc.cast(pa.array(x * x), dec),
            "syy": pc.cast(pa.array(y * y), dec),
        })
        return _merge_linear_partials(g, keys)

    # worker-side re-merge so the driver sees one row per key per
    # 64Ki-row re-batch, not one per (key, input batch) — the
    # grouped_agg driver-combine tree shape
    reduced = ds.map_batches(partial, batch_format="pyarrow") \
        .materialize() \
        .map_batches(lambda t: _merge_linear_partials(t, keys),
                     batch_format="pyarrow", batch_size=65536)
    parts = [t for t in ray.get(reduced.materialize().to_arrow_refs())
             if t.num_rows]
    if not parts:
        cols = {k: pa.array([], pa.string()) for k in keys}
        cols.update({"n": pa.array([], pa.int64()),
                     "corr": pa.array([], pa.float64()),
                     "slope": pa.array([], pa.float64())})
        return pa.table(cols)
    sums = _merge_linear_partials(
        pa.concat_tables(parts, promote_options="permissive"), keys)
    corr, slope, ns = [], [], []
    for i in range(sums.num_rows):
        # exact Python-int math (decimal128 partials -> int): n*Σxy
        # overflows int64 long before the inputs do
        n = int(sums.column("n")[i].as_py())
        sx, sy, sxy, sxx, syy = (int(sums.column(c)[i].as_py())
                                 for c in sum_cols)
        num = n * sxy - sx * sy
        den_x = n * sxx - sx * sx
        den_y = n * syy - sy * sy
        prod = math.sqrt(float(den_x)) * math.sqrt(float(den_y))
        corr.append(float(num) / prod if prod != 0.0 else None)
        slope.append(float(num) / float(den_x) if den_x != 0 else None)
        ns.append(n)
    cols = {k: sums.column(k) for k in keys}
    cols["n"] = pa.array(ns, pa.int64())
    cols["corr"] = pa.array(corr, pa.float64())
    cols["slope"] = pa.array(slope, pa.float64())
    return pa.table(cols)


def _merge_linear_partials(t: pa.Table, keys: Sequence[str]) -> pa.Table:
    """Merge grouped_linear_stats partial rows by key (decimal128 sums
    stay exact through every merge level)."""
    aggs = [("n", "sum")] + [(c, "sum")
                             for c in ("sx", "sy", "sxy", "sxx", "syy")]
    out = t.group_by(list(keys)).aggregate(aggs)
    return out.rename_columns(
        list(keys) + ["n", "sx", "sy", "sxy", "sxx", "syy"])


def grouped_sum(ds, keys: Sequence[str], source_col: str,
                conditions: Sequence[str] | None = None, alias: str = "total",
                combine: str = "driver"):
    """sumconnector analog: per-group sum of a numeric source attribute."""
    return grouped_agg(ds, keys, [("sum", source_col, alias)], conditions,
                       combine=combine)


def dedup_exact(ds, key_cols: Sequence[str], ts_col: str = "ts",
                order_col: str = "turn_idx", conditions: Sequence[str] | None = None,
                hash_shuffle: bool = True):
    """logdedupprocessor analog: one representative per identical record set
    + log_count + first/last observed timestamps.

    The representative is the FIRST record in stable (order_col) order —
    the reference keeps the first seen in its interval window; the whole
    run is the window here (SURVEY.md §2.10).

    hash_shuffle=True uses the bucketed hash-partition combine (the
    reference's own trick: logdedup aggregates by xxhash of the record,
    counter.go:81-130; stanza groups entries by resource hash,
    converter.go:247-287) — the exchange is keyed by a small int bucket
    of hash(keys), and the combine is one vectorized group_by per bucket.
    """
    specs: list[AggSpec] = [
        ("count", None, "log_count"),
        ("min", ts_col, "first_observed"),
        ("max", ts_col, "last_observed"),
        ("min", order_col, "representative_" + order_col),
    ]
    return grouped_agg(ds, key_cols, specs, conditions,
                       combine="bucket" if hash_shuffle else "shuffle",
                       coalesce=False)  # whole-corpus text partials: the
    # coalesce pass moves ~all bytes again for no block-count win


def histogram_agg(ds, keys: Sequence[str], value_col: str, buckets: Sequence[float],
                  alias: str = "bucket_count", combine: str = "driver"):
    """spanmetricsconnector explicit-bucket histogram: one output row per
    (keys..., le) where le is the inclusive upper bound label ('inf' last).

    Vectorized np.digitize per batch -> partial counts -> global sum."""
    edges = list(buckets)
    labels = [str(b) for b in edges] + ["inf"]

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({**{k: pa.array([], type=pa.string()) for k in keys},
                             "le": pa.array([], type=pa.string()),
                             "__p_cnt": pa.array([], type=pa.int64())})
        vals = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.digitize(vals, edges, right=True)
        lab = pa.array(np.array(labels, dtype=object)[idx])
        t = batch.select(list(keys)).append_column("le", lab)
        gb = t.group_by(list(keys) + ["le"]).aggregate([([], "count_all")])
        return pa.table({**{k: gb.column(k) for k in keys}, "le": gb.column("le"),
                         "__p_cnt": gb.column("count_all").cast(pa.int64())})

    from ray.data.aggregate import Sum

    partial = ds.map_batches(bucketize, batch_format="pyarrow")
    if combine == "driver":
        import ray
        import ray.data as rd

        # materialize first: to_arrow_refs on an unknown-schema plan runs a
        # limit-1 schema probe that re-executes any upstream all-to-all
        tables = [t for t in ray.get(partial.materialize().to_arrow_refs())
                  if t.num_rows]
        if not tables:
            return rd.from_arrow(pa.table(
                {**{k: pa.array([], pa.string()) for k in keys},
                 "le": pa.array([], pa.string()), alias: pa.array([], pa.int64())}))
        merged = pa.concat_tables(tables, promote_options="permissive")
        out = merged.group_by(list(keys) + ["le"]).aggregate([("__p_cnt", "sum")])
        cols = {k: out.column(k) for k in list(keys) + ["le"]}
        cols[alias] = out.column("__p_cnt_sum")
        return rd.from_arrow(pa.table(cols))
    return partial.groupby(list(keys) + ["le"]).aggregate(Sum("__p_cnt", alias_name=alias))


def _paths_ds(paths: Sequence[str]):
    """Dataset of file paths, one block per file so every map task owns
    whole files (the stable physical unit of group-contiguity)."""
    import ray.data as rd

    paths = list(paths)
    return rd.from_items([{"path": p} for p in paths],
                         override_num_blocks=max(1, len(paths)))


def _file_edge_groups(path: str, group_col: str):
    """First and last group value of a parquet file, reading only the
    first and last row group of the group column (metadata-cheap).
    Empty files have no edge groups (None, None)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    if pf.num_row_groups == 0 or pf.metadata.num_rows == 0:
        return None, None
    first = pf.read_row_group(0, columns=[group_col]).column(0)[0].as_py()
    lastcol = pf.read_row_group(pf.num_row_groups - 1,
                                columns=[group_col]).column(0)
    return first, lastcol[len(lastcol) - 1].as_py()


def exp_histogram_agg(ds, keys: Sequence[str], value_col: str, scale: int = 0,
                      alias: str = "n", combine: str = "driver"):
    """spanmetrics exponential-bucket histogram mode
    (connector/spanmetricsconnector/connector.go:305-335, OTel base-2
    exponential buckets): bucket index k holds values in
    (base^k, base^(k+1)] with base = 2^(2^-scale); values <= 0 land in
    the zero bucket (index null, the reference's zero_count).

    scale=0 uses an EXACT integer mapping (index = bit_length(v-1) - 1,
    via np.frexp) so boundary values never ride on float log precision.
    scale>0 uses the OTel spec's logarithm-free subbucket method
    (opentelemetry specification data-model exponential histograms;
    the reference's mapping/exponent package shape): v = u * 2^(e-1)
    with u in [1,2) exact via np.frexp, subbucket j = first of the
    2^scale precomputed boundaries 2^(j/2^scale) at-or-above u, index
    = (e-1)*2^scale + j - 1.  Exact for all finite v: u is an exact
    dyadic rational and the irrational boundaries can never tie it, so
    the half-ulp rounding of a boundary cannot flip the comparison.  A
    pytest pins exhaustive agreement with the naive
    ceil(log2(v)*2^scale)-1 rule (which is what a SQL oracle replays).
    Two-phase: vectorized np bucketing + per-batch partial counts, then
    a small combine — same shape as histogram_agg."""
    if scale > 0:
        sub = 1 << scale
        bounds = 2.0 ** (np.arange(sub + 1, dtype=np.float64) / sub)

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({**{k: pa.array([], type=pa.string()) for k in keys},
                             "bucket": pa.array([], type=pa.int64()),
                             "__p_cnt": pa.array([], type=pa.int64())})
        vals = batch.column(value_col).to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
        idx = np.full(len(vals), np.iinfo(np.int64).min, dtype=np.int64)
        pos = vals > 0
        if scale == 0 and np.all(vals[pos] == np.floor(vals[pos])):
            v = vals.astype(np.int64)
            _, e = np.frexp(np.maximum(v - 1, 1))
            idx[pos] = np.where(v[pos] <= 1, -1, e[pos].astype(np.int64) - 1)
        elif scale == 0:
            idx[pos] = np.ceil(np.log2(vals[pos])).astype(np.int64) - 1
        elif scale > 0:
            m, e = np.frexp(vals[pos])
            u = 2.0 * m  # in [1, 2), exact (scaling by a power of two)
            j = np.searchsorted(bounds, u, side="left")
            idx[pos] = (e.astype(np.int64) - 1) * sub + j - 1
        else:  # scale < 0: boundaries are all powers of two, so the
            # float rule is exact (log2/2^scale/ceil all exact there)
            idx[pos] = np.ceil(np.log2(vals[pos]) * (2.0 ** scale)) \
                .astype(np.int64) - 1
        arr = pa.array(idx, type=pa.int64())
        # sentinel -> null = zero bucket
        arr = pc.if_else(pc.equal(arr, np.iinfo(np.int64).min),
                         pa.nulls(len(vals), pa.int64()), arr)
        t = batch.select(list(keys)).append_column("bucket", arr)
        gb = t.group_by(list(keys) + ["bucket"]).aggregate([([], "count_all")])
        return pa.table({**{k: gb.column(k) for k in keys},
                         "bucket": gb.column("bucket"),
                         "__p_cnt": gb.column("count_all").cast(pa.int64())})

    from ray.data.aggregate import Sum

    partial = ds.map_batches(bucketize, batch_format="pyarrow")
    if combine == "driver":
        import ray
        import ray.data as rd

        # materialize first: to_arrow_refs on an unknown-schema plan runs a
        # limit-1 schema probe that re-executes any upstream all-to-all
        tables = [t for t in ray.get(partial.materialize().to_arrow_refs())
                  if t.num_rows]
        if not tables:
            return rd.from_arrow(pa.table(
                {**{k: pa.array([], pa.string()) for k in keys},
                 "bucket": pa.array([], pa.int64()),
                 alias: pa.array([], pa.int64())}))
        merged = pa.concat_tables(tables, promote_options="permissive")
        out = merged.group_by(list(keys) + ["bucket"]).aggregate([("__p_cnt", "sum")])
        cols = {k: out.column(k) for k in list(keys) + ["bucket"]}
        cols[alias] = out.column("__p_cnt_sum")
        return rd.from_arrow(pa.table(cols))
    return partial.groupby(list(keys) + ["bucket"]).aggregate(
        Sum("__p_cnt", alias_name=alias))


def dedup_exact_sorted(paths: Sequence[str], key_cols: Sequence[str],
                       group_col: str = "conv_id", ts_col: str = "ts",
                       order_col: str = "turn_idx"):
    """Locality-aware exact dedup over GROUP-CONTIGUOUS parquet files.

    Precondition: the file sequence is a partition of a group-clustered
    global order (every group lives in one file, except a group at a
    file edge may continue into the adjacent file) — true for this
    corpus (files written in (conv_id, turn_idx) order) and for any
    lake partitioned/clustered on the group key.

    Then any group of file k that spans files must be the FIRST or LAST
    group of file k, so classification is per file with no cross-pass
    coordination: the unit of work is the physical FILE, not a Ray batch
    (batch splits are not stable across separately-built plans — deriving
    boundaries in one pass and applying them in another silently breaks
    groups; files are stable).

    Per file (one task, one read): rows of the two edge groups take the
    global merge; everything else aggregates in place — final, no
    shuffle.  The boundary pass re-reads only row groups containing edge
    groups (parquet predicate pushdown).  At 60M rows this replaces a
    9 GB full-text all-to-all with a shuffle of the edge rows only.
    A hot group spanning many files is the skew ceiling: its rows all
    ship to the merge, which hash-buckets by full key, so the merge
    itself stays parallel.
    """
    import pyarrow.parquet as pq

    specs: list[AggSpec] = [
        ("count", None, "log_count"),
        ("min", ts_col, "first_observed"),
        ("max", ts_col, "last_observed"),
        ("min", order_col, "representative_" + order_col),
    ]
    cols = list(dict.fromkeys(list(key_cols) + [group_col, ts_col, order_col]))
    partial_stage = _PartialAgg(key_cols, specs)
    rename = {f"__p_{alias}": alias for _, _, alias in specs}

    def interior(batch: pa.Table) -> pa.Table:
        out = []
        for p in batch.column("path").to_pylist():
            first, last = _file_edge_groups(p, group_col)
            if first is None:  # empty file
                continue
            t = pq.read_table(p, columns=cols)
            keep = pc.invert(pc.is_in(t.column(group_col),
                                      value_set=pa.array([first, last])))
            pt = partial_stage(t.filter(pc.fill_null(keep, False)))
            out.append(pt.rename_columns(
                [rename.get(c, c) for c in pt.column_names]))
        if not out:  # path batch held only empty files
            pt = partial_stage._empty()
            out = [pt.rename_columns(
                [rename.get(c, c) for c in pt.column_names])]
        return pa.concat_tables(out)

    interior_ds = _paths_ds(paths).map_batches(interior, batch_format="pyarrow")

    def edges(batch: pa.Table) -> pa.Table:
        out = []
        for p in batch.column("path").to_pylist():
            first, last = _file_edge_groups(p, group_col)
            if first is None:  # empty file
                continue
            out.append(pq.read_table(
                p, columns=cols, filters=[(group_col, "in", [first, last])]))
        return pa.concat_tables(out) if out else \
            pq.read_table(batch.column("path")[0].as_py(), columns=cols).slice(0, 0)

    boundary_ds = _paths_ds(paths).map_batches(edges, batch_format="pyarrow")
    # 64 buckets: a hot group spanning many files routes ALL its rows here
    # (10% of the corpus in this fixture) — the merge must parallelize
    boundary_agg = grouped_agg(boundary_ds, key_cols, specs, combine="bucket",
                               n_buckets=64)
    return interior_ds.union(boundary_agg)


def recombine(ds, group_col: str = "conv_id", order_col: str = "turn_idx",
              text_col: str = "text", sep: str = "\n", out_col: str = "combined",
              n_buckets: int = 64, max_batch_size: int | None = None):
    """stanza recombine analog: stitch a conversation's texts in stable
    order into one record per group.  The shuffle IS the wait window
    (groupbytrace analog); intra-group order comes from order_col, never
    arrival order.

    Execution: rows shuffle once by hash(group) % n_buckets; each bucket
    is stitched with ONE vectorized pandas groupby (sort by (group,
    order) then ''.join per group) — not one python call per
    conversation.  This mirrors groupbytrace's worker sharding by
    trace-id hash (processor.go:27-41)."""

    def stitch_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, order_col], kind="stable")
        txt = g[text_col].fillna("")
        if max_batch_size is not None:
            # recombine max_batch_size (transformer/recombine/config.go:49):
            # an entry reaching the cap flushes and a new one starts —
            # here an ordered chunk id per group, stitched per chunk
            part = (g.groupby(g[group_col], sort=False).cumcount()
                    // max_batch_size)
            keys = [g[group_col], part.rename("part")]
            gb = g.groupby(keys, sort=False)
            out = pd.DataFrame({
                out_col: txt.groupby(keys, sort=False).agg(sep.join),
                "n_turns": gb.size(),
            })
            if "ts" in g:
                out["first_ts"] = gb["ts"].min()
                out["last_ts"] = gb["ts"].max()
            else:
                out["first_ts"] = None
                out["last_ts"] = None
            out = out.reset_index()
            out.columns = [group_col, "part"] + list(out.columns[2:])
            return out
        gb = g.groupby(group_col, sort=False)
        out = pd.DataFrame({
            out_col: txt.groupby(g[group_col], sort=False).agg(sep.join),
            "n_turns": gb.size(),
        })
        if "ts" in g:
            out["first_ts"] = gb["ts"].min()
            out["last_ts"] = gb["ts"].max()
        else:
            out["first_ts"] = None
            out["last_ts"] = None
        return out.reset_index().rename(columns={"index": group_col})

    return bucketed_group_transform(ds, [group_col], stitch_bucket, n_buckets)


def recombine_multiline(ds, source_col: str, order_col: str,
                        text_col: str = "text",
                        is_first_entry: str | None = None,
                        is_last_entry: str | None = None,
                        sep: str = "\n", out_col: str = "combined",
                        max_batch_size: int | None = None,
                        n_buckets: int = 64):
    """stanza recombine boundary mode (transformer/recombine/config.go:
    38-61): consecutive rows of one SOURCE (source_identifier) stitch
    into entries delimited by an is_first_entry / is_last_entry OTTL
    condition, ordered by order_col (never arrival order).
    max_batch_size caps one entry's member count (flush-on-cap,
    config.go:49); max_sources is a streaming memory knob with no batch
    analog (every source is already materialized exactly once here).

    Execution: one bucketed shuffle by source hash
    (bucketed_group_transform); each bucket sorts by (source, order) and
    derives entry ids with vectorized prefix sums — no per-entry python.
    Output: source_col, entry_idx (0-based per source; rows before the
    first boundary form entry 0), part (only when max_batch_size is
    set), out_col, n_lines."""
    from ..functions.ast import parse_condition

    if (is_first_entry is None) == (is_last_entry is None):
        raise ValueError("exactly one of is_first_entry / is_last_entry")
    cond = parse_condition(is_first_entry or is_last_entry)
    last_mode = is_last_entry is not None

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([source_col, order_col], kind="stable")
        t = pa.Table.from_pandas(g, preserve_index=False)
        m = pc.fill_null(cond(t), False).to_numpy(zero_copy_only=False)
        flags = pd.Series(m.astype(np.int64), index=g.index)
        bysrc = flags.groupby(g[source_col], sort=False)
        if last_mode:
            # boundary closes the entry: the NEXT row starts a new one
            shifted = bysrc.shift(1, fill_value=0)
            entry = shifted.groupby(g[source_col], sort=False).cumsum()
        else:
            entry = bysrc.cumsum()
        keys = [g[source_col], entry.rename("entry_idx")]
        if max_batch_size is not None:
            part = (g.groupby([g[source_col], entry], sort=False).cumcount()
                    // max_batch_size)
            keys.append(part.rename("part"))
        txt = g[text_col].fillna("")
        gb = txt.groupby(keys, sort=False)
        out = pd.DataFrame({out_col: gb.agg(sep.join), "n_lines": gb.size()})
        out = out.reset_index()
        names = [source_col, "entry_idx"] + (["part"] if max_batch_size else [])
        out.columns = names + [out_col, "n_lines"]
        out["entry_idx"] = out["entry_idx"].astype("int64")
        return out

    return bucketed_group_transform(ds, [source_col], fn, n_buckets=n_buckets)


def recombine_sorted(paths: Sequence[str], group_col: str = "conv_id",
                     order_col: str = "turn_idx", text_col: str = "text",
                     sep: str = "\n", out_col: str = "combined",
                     n_buckets: int = 64):
    """Locality-aware recombine over group-contiguous parquet files (same
    precondition and per-file structure as dedup_exact_sorted): interior
    conversations stitch entirely inside their file — vectorized, no
    shuffle; only the two edge conversations of each file take the
    bucketed global stitch."""
    import pyarrow.parquet as pq

    cols = list(dict.fromkeys([group_col, order_col, text_col, "ts"]))

    def stitch_interior(batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch.column("path").to_pylist():
            first, last = _file_edge_groups(p, group_col)
            if first is None:  # empty file
                continue
            t = pq.read_table(p, columns=cols)
            keep = pc.invert(pc.is_in(t.column(group_col),
                                      value_set=pa.array([first, last])))
            g = t.filter(pc.fill_null(keep, False)).to_pandas()
            if g.empty:
                continue
            g = g.sort_values([group_col, order_col], kind="stable")
            gb = g.groupby(group_col, sort=False)
            out = pd.DataFrame({
                out_col: g[text_col].fillna("")
                          .groupby(g[group_col], sort=False).agg(sep.join),
                "n_turns": gb.size().astype("int64"),
                "first_ts": gb["ts"].min() if "ts" in g else None,
                "last_ts": gb["ts"].max() if "ts" in g else None,
            }).reset_index()
            outs.append(pa.Table.from_pandas(out, preserve_index=False))
        if not outs:
            return pa.table({group_col: pa.array([], pa.string()),
                             out_col: pa.array([], pa.string()),
                             "n_turns": pa.array([], pa.int64()),
                             "first_ts": pa.array([], pa.timestamp("us")),
                             "last_ts": pa.array([], pa.timestamp("us"))})
        return pa.concat_tables(outs)

    interior = _paths_ds(paths).map_batches(stitch_interior,
                                            batch_format="pyarrow")

    def edges(batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch.column("path").to_pylist():
            first, last = _file_edge_groups(p, group_col)
            if first is None:  # empty file
                continue
            outs.append(pq.read_table(
                p, columns=cols, filters=[(group_col, "in", [first, last])]))
        return pa.concat_tables(outs) if outs else \
            pq.read_table(batch.column("path")[0].as_py(), columns=cols).slice(0, 0)

    boundary_src = _paths_ds(paths).map_batches(edges, batch_format="pyarrow")
    boundary = recombine(boundary_src, group_col=group_col, order_col=order_col,
                         text_col=text_col, sep=sep, out_col=out_col,
                         n_buckets=n_buckets)
    return interior.union(boundary)


def recombine_salted(ds, group_col: str = "conv_id", order_col: str = "turn_idx",
                     text_col: str = "text", sep: str = "\n", out_col: str = "combined",
                     salt_rows: int = 1024, dense_order: bool = True):
    """Skew-defused recombine: two-level stitch for hot conversations.

    The flagship corpus plants one conversation holding ~10% of all rows
    (FIXTURES.md F6); a plain groupby sends all of it to ONE reducer.
    Here each group key is salted with order_col // salt_rows, so a hot
    conversation splits into bounded segments stitched in parallel;
    a second (tiny) groupby merges segments in salt order.  String
    concatenation is associative, so output == plain recombine.
    This is the north rule's "explicit salting of hot conversations".
    """

    def add_salt(t: pa.Table) -> pa.Table:
        salt = pc.cast(pc.divide(t.column(order_col), salt_rows), pa.int32())
        return t.append_column("_salt", salt)

    def stitch_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL (group, salt) segments in the bucket
        g = g.sort_values([group_col, "_salt", order_col], kind="stable")
        keys = [g[group_col], g["_salt"]]
        gb = g.groupby([group_col, "_salt"], sort=False)
        out = pd.DataFrame({
            out_col: g[text_col].fillna("").groupby(keys, sort=False).agg(sep.join),
            "n_turns": gb.size(),
        })
        if "ts" in g:
            out["first_ts"] = gb["ts"].min()
            out["last_ts"] = gb["ts"].max()
        else:
            out["first_ts"] = None
            out["last_ts"] = None
        out = out.reset_index()
        # a segment is its conversation's ONLY segment iff it is the
        # salt-0 segment AND shorter than a full salt window — valid ONLY
        # when order_col is dense 0..k-1 within a group (dense_order=True;
        # after upstream filtering/dedup gaps appear, pass
        # dense_order=False and every segment takes the merge)
        if dense_order:
            out["__multi"] = (out["_salt"] > 0) | (out["n_turns"] >= salt_rows)
        else:
            out["__multi"] = True
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, "_salt"], kind="stable")
        gb = g.groupby(group_col, sort=False)
        out = pd.DataFrame({
            out_col: g[out_col].groupby(g[group_col], sort=False).agg(sep.join),
            "n_turns": gb["n_turns"].sum().astype("int64"),
            "first_ts": gb["first_ts"].min(),
            "last_ts": gb["last_ts"].max(),
        })
        return out.reset_index()

    final_cols = [group_col, out_col, "n_turns", "first_ts", "last_ts"]
    salted = ds.map_batches(add_salt, batch_format="pyarrow")
    # phase-1 shuffle key: (group, salt) — a hot conversation's segments
    # land on DIFFERENT reducers (the whole point of salting).  Materialize
    # the segments so the single/multi split below reads them once
    # instead of re-running phase 1 per consumer
    segments = bucketed_group_transform(
        salted, [group_col, "_salt"], stitch_bucket, 64).materialize()

    singles = segments.map_batches(
        lambda t: t.filter(pc.invert(pc.fill_null(t.column("__multi"), False)))
                   .select(final_cols),
        batch_format="pyarrow")
    multi = segments.map_batches(
        lambda t: t.filter(pc.fill_null(t.column("__multi"), False)),
        batch_format="pyarrow")
    # the merge exchange now moves ONLY multi-segment conversations (the
    # hot ones + full salt windows) — a tiny fraction of the segments
    merged = bucketed_group_transform(multi, [group_col], merge_bucket, 64)
    merged = merged.map_batches(lambda t: t.select(final_cols),
                                batch_format="pyarrow")
    return singles.union(merged)


def bucketed_group_transform(ds, key_cols: Sequence[str], fn,
                             n_buckets: int = 64, batch_format: str = "pandas",
                             coalesce: bool = True):
    """ONE bucketed shuffle + ONE vectorized call per bucket — the
    package's only hash-bucket exchange (keyed operators shard through
    here, the way the reference shards groupbytrace by trace-id hash
    and logdedup by record hash).

    The scale-safe replacement for `groupby(key).map_groups(fn_per_key)`:
    a plain Dataset.groupby invokes the Python callback once PER KEY
    (100M users = 100M pandas calls), while here rows shuffle once by
    `bucket_column(key_cols) % n_buckets` and `fn` runs once per bucket
    over ALL its keys (every row of a key arrives in ONE call) — `fn`
    must therefore be vectorized across keys (pandas
    groupby().cumsum()/diff()/shift(), not a per-key loop).  Same
    pattern that took recombine_salted from 32s to 2.8s at sf0.1.

    batch_format is fn's: "pandas" (DataFrame in, DataFrame out; the
    output becomes a metadata-free Arrow block with null-typed columns
    repaired) or "pyarrow" (Table in, Table out, passed through).
    coalesce=False skips the repartition(n_buckets) before the sort
    shuffle — only for huge unshrunk inputs (whole-corpus dedup text
    keys), where that extra linear pass outweighs its block-count win.
    fn never sees the internal `__bucket` column."""
    from .sample import bucket_column

    key_cols = list(key_cols)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__bucket", bucket_column(t, n_buckets, key_cols))

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")
    if coalesce:
        # coalesce before the sort shuffle: Ray's sort-based groupby
        # degrades ~45x when fed hundreds of tiny blocks (920 blocks:
        # 92s for a 6M-row exchange; repartition(32) first: 2s; the
        # 92-file sf1 recombine: 307s without it, 23s with it)
        bucketed = bucketed.repartition(n_buckets)

    def run_arrow(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns(["__bucket"]))

    def run_pandas(g: pd.DataFrame) -> pa.Table:
        out = fn(g.drop(columns="__bucket"))
        # hand Arrow blocks (not pandas) to the downstream plan: Arrow
        # schemas are hashable (Ray's schema dedup works), shuffle via
        # zero-copy IPC instead of pickled DataFrames, and stripping the
        # from_pandas metadata keeps every downstream schema identical
        t = pa.Table.from_pandas(out, preserve_index=False) \
                    .replace_schema_metadata(None)
        if any(pa.types.is_null(f.type) for f in t.schema):
            # a bucket whose fn output is EMPTY (or all-null) infers its
            # object columns as null-typed while other buckets emit real
            # types.  Recover the type from the INPUT rows when the
            # column passed through (g is never empty here), else fall
            # back to string — so every bucket emits one schema
            fields = []
            for f in t.schema:
                if pa.types.is_null(f.type):
                    if f.name in g.columns:
                        inferred = pa.Table.from_pandas(
                            g[[f.name]].head(64), preserve_index=False) \
                            .schema.field(f.name).type
                        f = f.with_type(pa.string()
                                        if pa.types.is_null(inferred)
                                        else inferred)
                    else:
                        f = f.with_type(pa.string())
                fields.append(f)
            t = t.cast(pa.schema(fields))
        return t

    run = {"pandas": run_pandas, "pyarrow": run_arrow}[batch_format]
    return bucketed.groupby("__bucket").map_groups(run,
                                                   batch_format=batch_format)


def grouped_ntile(ds, key_cols: Sequence[str], order_cols: Sequence[str],
                  n_tiles: int = 4, out_col: str = "tile",
                  n_buckets: int = 64):
    """SQL ``ntile(n) OVER (PARTITION BY keys ORDER BY order_cols)``:
    rows rank within each key and split into n near-equal tiles, the
    first (count % n) tiles one row larger — exact SQL semantics,
    including the n < n_tiles case (each row its own tile).

    Callers who need deterministic row-level output must make
    order_cols a TOTAL order (append a unique id); tile COUNTS are
    order-insensitive either way.  One bucketed shuffle, one vectorized
    pandas pass per bucket (no per-key Python)."""
    keys, orders = list(key_cols), list(order_cols)

    def tile(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + orders, kind="stable")
        r = g.groupby(keys, sort=False).cumcount().to_numpy()
        n = g.groupby(keys, sort=False)[orders[0]].transform("size").to_numpy()
        q, rem = n // n_tiles, n % n_tiles
        big = rem * (q + 1)          # rows covered by the size-(q+1) tiles
        t = np.where(r < big, r // np.maximum(q + 1, 1),
                     rem + (r - big) // np.maximum(q, 1)) + 1
        g[out_col] = t.astype("int64")
        return g

    return bucketed_group_transform(ds, keys, tile, n_buckets)


def delta_to_cumulative(ds, key_cols: Sequence[str], value_col: str,
                        order_col="ts", out_col: str = "cumulative",
                        n_buckets: int = 64):
    """deltatocumulativeprocessor analog: per-key running sum in time order.
    Batch translation of the streaming keyed state
    (processor/deltatocumulativeprocessor/processor.go:25-63): one
    bucketed shuffle co-locates keys, then a single vectorized
    groupby().cumsum() per bucket."""
    keys = list(key_cols)
    order = [order_col] if isinstance(order_col, str) else list(order_col)

    def cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + order, kind="stable")
        g[out_col] = g.groupby(keys, sort=False)[value_col].cumsum()
        return g

    return bucketed_group_transform(ds, keys, cumsum, n_buckets)


def cumulative_to_delta(ds, key_cols: Sequence[str], value_col: str,
                        order_col="ts", out_col: str = "delta",
                        n_buckets: int = 64):
    """cumulativetodeltaprocessor analog: per-key lag difference in time
    order (processor/cumulativetodeltaprocessor/).  First point per key
    emits null (the reference drops/holds the first cumulative point)."""
    keys = list(key_cols)
    order = [order_col] if isinstance(order_col, str) else list(order_col)

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + order, kind="stable")
        g[out_col] = g.groupby(keys, sort=False)[value_col].diff()
        return g

    return bucketed_group_transform(ds, keys, diff, n_buckets)


def sessionize(ds, key_col: str, ts_col: str = "ts", gap_us: int = 1_800_000_000,
               out_col: str = "session_id", n_buckets: int = 64):
    """Session windows per key: a new session starts when the gap since the
    previous event exceeds gap_us.  No watermarks in batch mode — the run
    is the horizon.  Vectorized across keys: within-key gaps via
    groupby().diff(), session ids via groupby().cumsum()."""

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        tie = [c for c in ("event_id",) if c in g]
        g = g.sort_values([key_col, ts_col] + tie, kind="stable")
        ts = g[ts_col].astype("int64")
        new = (ts.groupby(g[key_col], sort=False).diff() > gap_us)
        g[out_col] = new.groupby(g[key_col], sort=False).cumsum().astype("int64")
        return g

    return bucketed_group_transform(ds, [key_col], assign, n_buckets)


def sliding_window_agg(ds, ts_col: str, specs: Sequence[AggSpec],
                       window_us: int, slide_us: int,
                       keys: Sequence[str] = (), n_buckets: int = 64,
                       window_col: str = "window_start"):
    """Sliding-window aggregate (windows of window_us every slide_us,
    aligned to epoch multiples of slide_us) via STREAM SLICING: rows
    aggregate once into non-overlapping slide-granularity slices, and
    only the tiny per-slice partials are replicated to the
    window_us/slide_us windows they belong to.  A naive implementation
    replicates every ROW m times before aggregating; slicing replicates
    one partial row per (key, slice, batch) — at 100 TB that is the
    difference between an m-fold blowup of the corpus and a few KB per
    block.  The interval/tumbling case is slide_us == window_us (m=1).

    Window semantics: window w covers [w, w + window_us); a row with
    timestamp t lands in the m windows w = (t//slide - i)*slide_us,
    i in 0..m-1.  `window_col` is int64 epoch-microseconds."""
    if window_us % slide_us:
        raise ValueError("window_us must be a multiple of slide_us")
    m = window_us // slide_us
    keys = list(keys)

    def add_slot(t: pa.Table) -> pa.Table:
        col = t.column(ts_col)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        v = col.to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("__slot", pa.array(v // slide_us, pa.int64()))

    partial = ds.map_batches(add_slot, batch_format="pyarrow") \
        .map_batches(_PartialAgg(keys + ["__slot"], specs),
                     batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        slots = t.column("__slot").to_numpy(zero_copy_only=False)
        row_idx = np.repeat(np.arange(n), m)
        offs = np.tile(np.arange(m, dtype=np.int64), n)
        ws = (np.repeat(slots, m) - offs) * slide_us
        out = t.take(pa.array(row_idx))
        out = out.drop_columns(["__slot"])
        return out.append_column(window_col, pa.array(ws, pa.int64()))

    fin_keys = keys + [window_col]
    exploded = partial.map_batches(explode, batch_format="pyarrow")
    return _bucket_combine(exploded, fin_keys, specs, n_buckets)


def grouped_top_k(ds, keys: Sequence[str], order_cols: Sequence[str] | str,
                  k: int, descending: bool | Sequence[bool] = True,
                  n_buckets: int = 64):
    """Per-group top-k: the k rows of each key group ranked by
    order_cols.  Pre-prunes INSIDE each batch first (a batch can
    contribute at most k rows per group to the shuffle), then one
    bucketed shuffle + a vectorized groupby().head(k) per bucket — the
    shuffle moves O(k * groups_per_batch) rows, never the corpus.  Make
    order_cols a unique ranking (add a tiebreaker id) for deterministic
    results."""
    keys = list(keys)
    order_cols = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    asc = [not descending] if isinstance(descending, bool) \
        else [not d for d in descending]
    if len(asc) == 1:
        asc = asc * len(order_cols)

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, ascending=asc, kind="stable")
        # dropna=False: NULL is its own group, matching SQL window
        # semantics (PARTITION BY keeps a NULL partition)
        return g.groupby(keys, sort=False, dropna=False).head(k)

    pruned = ds.map_batches(
        arrow_out(prune), batch_format="pandas")
    return bucketed_group_transform(pruned, keys, prune, n_buckets)


def grouped_quantile(ds, keys: Sequence[str], value_col: str,
                     qs: Sequence[float] = (0.5, 0.95, 0.99),
                     aliases: Sequence[str] | None = None,
                     n_buckets: int = 64, interpolate: bool = False):
    """Exact per-group quantiles.  Default is discrete
    (PostgreSQL/DuckDB percentile_disc semantics:
    sorted_values[ceil(q*n) - 1]); interpolate=True gives
    percentile_cont / quantile_cont semantics (RN = q*(n-1),
    down*(CRN-RN) + up*(RN-FRN) in double — DuckDB quantile.cpp's
    exact op order, so results hash-match its replay).  One bucketed shuffle
    co-locates each key's rows; quantile extraction is vectorized
    across the bucket's groups (sort + offset arithmetic, no per-group
    Python).  Null values are dropped (SQL aggregate parity).

    Partitioning contract: a group's rows must fit one bucket worker —
    the same assumption as every per-group op here.  For quantiles over
    pathological single groups at 100 TB, pre-aggregate with a mergeable
    sketch instead (see stages/sketch.py for the pattern)."""
    keys = list(keys)
    aliases = list(aliases) if aliases else [
        f"p{int(q * 100):02d}" for q in qs]

    def compute(g: pd.DataFrame) -> pd.DataFrame:
        g = g.dropna(subset=[value_col]) \
             .sort_values(keys + [value_col], kind="stable") \
             .reset_index(drop=True)
        if not len(g):
            return pd.DataFrame({**{k: [] for k in keys},
                                 **{a: [] for a in aliases}})
        # contiguous group boundaries (g is sorted by keys)
        change = np.zeros(len(g), dtype=bool)
        change[0] = True
        for k in keys:
            col = g[k].to_numpy()
            change[1:] |= col[1:] != col[:-1]
        starts = np.nonzero(change)[0]
        sizes = np.diff(np.append(starts, len(g)))
        out = {k: g[k].to_numpy()[starts] for k in keys}
        vals = g[value_col].to_numpy()
        for q, alias in zip(qs, aliases):
            if interpolate:
                # DuckDB quantile_cont op order (quantile.cpp
                # Interpolate): RN = q*(n-1), result =
                # down*(CRN-RN) + up*(RN-FRN), exact row when RN is
                # integral — mirrored so the doubles hash-match
                rn = q * (sizes - 1).astype(np.float64)
                frn = np.floor(rn)
                crn = np.ceil(rn)
                lv = vals[starts + frn.astype(np.int64)] \
                    .astype(np.float64)
                hv = vals[starts + crn.astype(np.int64)] \
                    .astype(np.float64)
                out[alias] = np.where(
                    crn == frn, lv, lv * (crn - rn) + hv * (rn - frn))
            else:
                idx = starts + np.ceil(q * sizes).astype(np.int64) - 1
                out[alias] = vals[idx]
        return pd.DataFrame(out)

    return bucketed_group_transform(ds, keys, compute, n_buckets)


def stratified_sample(ds, keys: Sequence[str], n_per_group: int,
                      id_col: str, n_buckets: int = 64):
    """Deterministic stratified sample: n rows per key group, chosen by
    md5-lower-64 order of id_col (ties broken by id) — the same verdict
    on every run and replayable in SQL (ORDER BY md5_number_lower(id)),
    unlike random sampling.  Same two-level prune-then-bucket shape as
    grouped_top_k, so the shuffle moves at most n rows per (group,
    batch)."""
    from .sample import _md5_lower64

    keys = list(keys)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        h = _md5_lower64(g[id_col].tolist())
        g = g.assign(__h=h).sort_values(["__h", id_col], kind="stable")
        # dropna=False: NULL keys form their own stratum (SQL parity)
        g = g.groupby(keys, sort=False, dropna=False).head(n_per_group)
        return g.drop(columns="__h")

    pruned = ds.map_batches(arrow_out(pick), batch_format="pandas")
    return bucketed_group_transform(pruned, keys, pick, n_buckets)


def adjacent_pairs(ds, group_col: str = "conv_id", order_col: str = "turn_idx",
                   cols: Sequence[str] = ("role", "tool"), n_buckets: int = 64):
    """servicegraphconnector analog (client↔server span pairing ->
    edge metrics): pair each turn with its successor inside the
    conversation.  One bucketed shuffle co-locates conversations; the
    'join' is a vectorized shift(-1) over the bucket with a same-group
    mask — no pairwise explosion, no per-conversation Python call."""

    def pair(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, order_col], kind="stable")
        grp = g[group_col].to_numpy()
        same = np.empty(len(g), dtype=bool)
        if len(g):
            same[:-1] = grp[:-1] == grp[1:]
            same[-1] = False
        out = {group_col: g[group_col], order_col: g[order_col]}
        for c in cols:
            out[c] = g[c]
            out["next_" + c] = g[c].shift(-1)
        return pd.DataFrame(out)[same]

    return bucketed_group_transform(ds, [group_col], pair, n_buckets)


def conversation_policy_filter(ds, condition: str, group_col: str = "conv_id",
                               max_broadcast_keys: int = 2_000_000,
                               n_buckets: int = 64):
    """tailsamplingprocessor analog: keep ENTIRE conversations where any
    turn matches the policy condition (config.go:12-69; policies under
    internal/sampling).  The decision wait window == the full run.

    Scale path: the per-group decision is an aggregate over a hashed
    group key.  Below ``max_broadcast_keys`` the winning key set is
    broadcast (ray.put) and applied as a map-only semi-join —
    conversations never shuffle.  Past the threshold it auto-switches
    to a bucketed hash SEMI-join (one co-partitioning shuffle, nothing
    driver-sized), the same guard ``tail_sample`` uses."""
    import pyarrow.compute as pc
    import ray

    from ..functions.ast import parse_condition

    mask = parse_condition(condition)

    def matching_keys(batch: pa.Table) -> pa.Table:
        m = pc.fill_null(mask(batch), False)
        keys = pc.unique(batch.filter(m).column(group_col))
        return pa.table({group_col: keys})

    winners = ds.map_batches(matching_keys,
                             batch_format="pyarrow").materialize()
    if winners.count() > max_broadcast_keys:
        from .join import bucketed_hash_join

        # per-batch uniques may repeat across batches; semi-join
        # semantics are idempotent over duplicate right-side keys
        return bucketed_hash_join(ds, winners, on=[group_col], how="semi",
                                  n_buckets=n_buckets)
    keys = sorted({r[group_col] for r in winners.take_all()})
    if not keys:
        return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    keys_ref = ray.put(pa.array(keys))

    class SemiJoin:
        def __init__(self):
            self.keys = ray.get(keys_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column(group_col), value_set=self.keys))

    return ds.map_batches(SemiJoin, batch_format="pyarrow", concurrency=(1, 4))


def funnel(ds, stages: Sequence[tuple[str, str]], key_col: str = "user_id",
           type_col: str = "event_type", ts_col: str = "ts",
           n_buckets: int = 64):
    """Sequential funnel analysis: for each key, how far through the
    ordered stage list it progressed, where stage k counts only with an
    event STRICTLY AFTER the stage k-1 completion time (classic
    signup -> click -> purchase conversion).

    stages: [(stage_name, event_type_value), ...] in funnel order.
    Returns one row per key: key, reached (int — number of stages
    completed), and ts_<stage_name> completion timestamps (null when
    not reached).

    ONE co-partitioning shuffle by key; the per-bucket pass is
    vectorized across keys (conditional mins via masked groupby, never
    a per-key loop)."""
    import pandas as pd

    names = [n for n, _ in stages]
    types = [t for _, t in stages]

    def run(g: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key_col: g[key_col].unique()})
        prev = None  # Series: key -> completion ts of the previous stage
        for name, etype in zip(names, types):
            ev = g[g[type_col] == etype]
            if prev is not None:
                lim = ev[key_col].map(prev)
                # NaN/NaT lim (stage k-1 not reached) compares False,
                # which is exactly "not in the funnel yet"
                m = (ev[ts_col] > lim).fillna(False)
                ev = ev[m.to_numpy(dtype=bool)]
            cur = ev.groupby(key_col, sort=False)[ts_col].min()
            out[f"ts_{name}"] = out[key_col].map(cur)
            prev = cur
        reached = np.zeros(len(out), dtype=np.int64)
        for i, name in enumerate(names):
            reached += out[f"ts_{name}"].notna().to_numpy()
        out["reached"] = reached
        return out

    return bucketed_group_transform(ds, [key_col], run, n_buckets)


def retention_cohorts(ds, key_col: str = "user_id", ts_col: str = "ts",
                      period_us: int = 604_800_000_000,
                      n_buckets: int = 64):
    """Cohort retention: cohort = each key's first-activity period
    (floor(us/period)), and for every (cohort, period-offset) the count
    of keys active in that period.  The standard growth-analytics table.

    ONE co-partitioning shuffle by key; per bucket, the first-activity
    period and the distinct (key, period) pairs compute vectorized, so
    only (cohort, offset) PAIRS leave the bucket — the final count is a
    tiny two-phase groupby."""
    import pandas as pd

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        p = g[ts_col]
        if pd.api.types.is_datetime64_any_dtype(p):
            # pin the microsecond unit before the int view (a ns-unit
            # series would floor-divide in the wrong timescale)
            p = p.astype("datetime64[us]")
        p = p.astype("int64") // period_us
        first = p.groupby(g[key_col], sort=False).transform("min")
        d = pd.DataFrame({"cohort_period": first, "period_offset": p - first,
                          key_col: g[key_col]}).drop_duplicates()
        return d.groupby(["cohort_period", "period_offset"], sort=False,
                         as_index=False).size().rename(columns={"size": "n"})

    parts = bucketed_group_transform(ds, [key_col], pairs, n_buckets)
    return grouped_sum(parts, ["cohort_period", "period_offset"], "n",
                       alias="n_users", combine="driver")


def ordered_prefix_sum(ds, order_col: str, value_col: str,
                       out_col: str = "offset", n_buckets: int = 256):
    """Distributed EXCLUSIVE prefix sum over a total order: out[i] =
    sum of value over all rows with order_col < this row's — the scan
    primitive behind GPT-2-style corpus packing (concatenate all docs,
    split at fixed token boundaries: offset // block_size is the block
    id without ever materializing the concatenation).

    Textbook two-level scan, no global sort: rows range-bucket by
    order_col (integer arithmetic against the driver-known min/max, one
    cheap aggregate pass); per-bucket value totals combine on the
    driver into per-bucket BASE offsets (kilobytes); then ONE bucketed
    shuffle sorts each bucket locally and adds base + local exclusive
    cumsum.  order_col must be unique integers (ties would make the
    scan order ambiguous)."""
    from ray.data.aggregate import Max, Min

    agg = ds.aggregate(Min(order_col), Max(order_col))
    lo, hi = int(agg[f"min({order_col})"]), int(agg[f"max({order_col})"])
    span = hi - lo + 1

    def add_bucket(t: pa.Table) -> pa.Table:
        oc = pc.cast(t.column(order_col), pa.int64())
        b = pc.divide(pc.multiply(pc.subtract(oc, lo), n_buckets), span)
        return t.append_column("__rb", pc.cast(b, pa.int32()))

    # pass 1: per-bucket totals (per-batch partials, driver combine)
    def totals(t: pa.Table) -> pa.Table:
        t = add_bucket(t)
        g = pa.table({"__rb": t.column("__rb"),
                      "__v": pc.cast(t.column(value_col), pa.int64())}) \
            .group_by(["__rb"]).aggregate([("__v", "sum")])
        # select by NAME — pyarrow group_by column order varies
        return pa.table({"__rb": g.column("__rb"),
                         "__v": g.column("__v_sum")})

    parts = ds.map_batches(totals, batch_format="pyarrow").to_pandas()
    base = np.zeros(n_buckets + 1, dtype=np.int64)
    if not parts.empty:
        sums = parts.groupby("__rb")["__v"].sum()
        for b, v in sums.items():
            base[int(b) + 1] = int(v)
    base = np.cumsum(base)  # base[b] = total of all buckets < b

    # pass 2: local sort + exclusive cumsum per range bucket.  One
    # transform call can hold SEVERAL range buckets (they hash into the
    # shuffle buckets), so the cumsum groups by __rb — vectorized
    def scan(g):
        g = g.sort_values(order_col, kind="stable")
        v = g[value_col].astype("int64")
        cum = v.groupby(g["__rb"].to_numpy(), sort=False).cumsum()
        rb = g["__rb"].to_numpy(dtype=np.int64)
        g[out_col] = (cum - v + base[rb]).astype("int64")
        return g.drop(columns="__rb")

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")
    return bucketed_group_transform(bucketed, ["__rb"], scan, n_buckets)


def counter_increase(ds, key_cols: Sequence[str], value_col: str,
                     ts_col: str = "ts", window_us: int | None = None,
                     tie_cols: Sequence[str] = (), n_buckets: int = 64):
    """Prometheus counter ``increase()`` / ``rate()`` semantics with
    RESET detection (prometheus promql rate extrapolation aside — batch
    windows are closed, so no extrapolation): per key in time order,

        delta_i = v_i - v_{i-1}   if v_i >= v_{i-1}
                  v_i             otherwise (a reset zeroed the counter;
                                  the post-reset value IS the increase)

    summed per (key[, window]); the first observation of each
    key/window contributes nothing (no predecessor).  This is what
    ``cumulative_to_delta`` (plain lag diff, negative deltas surface
    as-is) deliberately does NOT do — the deltatocumulative processor's
    reset rule lives here.  Returns keys [+ ``window_start``] +
    ``n_points``, ``increase`` (int64-exact for integer counters),
    ``span_us`` (last-first observation), ``rate`` = increase *
    1000000.0 / span_us (null when span is 0 — fewer than two points).
    ONE bucketed co-partition; grouped shifts vectorized across keys."""
    keys = list(key_cols)
    ties = list(tie_cols)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [ts_col] + ties, kind="mergesort")
        part_keys = list(keys)
        tsv = g[ts_col].astype("int64")
        if window_us is not None:
            g = g.assign(window_start=(tsv // window_us) * window_us)
            part_keys = keys + ["window_start"]
        grp = g.groupby(part_keys, sort=False)
        pv = grp[value_col].shift().to_numpy(dtype=np.float64)
        vv = g[value_col].to_numpy(dtype=np.float64)
        # first point -> 0; monotone -> v - prev; reset -> v (since 0)
        delta = pd.Series(
            np.where(np.isnan(pv), 0.0,
                     np.where(vv >= pv, vv - pv, vv)), index=g.index)
        out = grp.agg(n_points=(value_col, "size")).reset_index()
        d = delta.groupby([g[k] for k in part_keys], sort=False).sum()
        span = tsv.groupby([g[k] for k in part_keys], sort=False) \
            .agg(lambda s: s.iloc[-1] - s.iloc[0])
        out = out.merge(d.rename("increase").reset_index(), on=part_keys)
        out = out.merge(span.rename("span_us").reset_index(), on=part_keys)
        if pd.api.types.is_integer_dtype(g[value_col].dtype):
            out["increase"] = out["increase"].astype("int64")
        out["span_us"] = out["span_us"].astype("int64")
        spanv = out["span_us"].to_numpy(dtype=np.float64)
        inc = out["increase"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = inc * 1_000_000.0 / spanv
        out["rate"] = np.where(spanv > 0, rate, np.nan)
        return out

    return bucketed_group_transform(ds, keys, agg, n_buckets)


def rolling_distinct(ds, id_col: str, ts_col: str = "ts",
                     window_buckets: int = 7,
                     bucket_us: int = 86_400_000_000,
                     key_cols: Sequence[str] = (),
                     n_buckets: int = 64):
    """Rolling distinct-entity count (the WAU/rolling-actives shape):
    for every bucket, how many distinct ``id_col`` values appeared in
    the trailing ``window_buckets`` buckets ending there.  Map-side
    each row EXPLODES to the ``window_buckets`` window-end buckets that
    include it (constant fan-out), collapses to DISTINCT (window, id)
    pairs per batch, then one bucketed exchange counts distinct pairs —
    the id column itself never shuffles raw rows, only distinct pairs.
    Windows are labeled by their END bucket; buckets with no activity
    anywhere in their window do not emit (sparse stays sparse).
    Output: [keys...,] ``bucket`` (window end), ``n_distinct``."""
    keys = list(key_cols)

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({**{k: t.column(k).slice(0, 0) for k in keys},
                             "bucket": pa.array([], pa.int64()),
                             id_col: t.column(id_col).slice(0, 0)})
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        b = ts // bucket_us
        n = len(b)
        reps = np.repeat(np.arange(n, dtype=np.int64), window_buckets)
        ends = np.repeat(b, window_buckets) + np.tile(
            np.arange(window_buckets, dtype=np.int64), n)
        out = pa.table({
            **{k: t.column(k).take(pa.array(reps)) for k in keys},
            "bucket": pa.array(ends),
            id_col: t.column(id_col).take(pa.array(reps))})
        # per-batch distinct collapse before the exchange
        g = out.group_by(keys + ["bucket", id_col]).aggregate([])
        return g

    pairs = ds.map_batches(explode, batch_format="pyarrow")
    # the distinct_users_by_type idiom: one bucketed exchange dedups
    # (window, id) pairs globally, then a count over the pair keys
    distinct_pairs = grouped_agg(pairs, keys + ["bucket", id_col],
                                 [("count", None, "_n")],
                                 combine="bucket", n_buckets=n_buckets)
    return grouped_count(
        distinct_pairs.map_batches(
            lambda t: t.select(keys + ["bucket"]),
            batch_format="pyarrow"),
        keys + ["bucket"], alias="n_distinct", combine="bucket")


def prefix_rollup(ds, path_col: str, sep: str = "/", max_depth: int = 3,
                  alias: str = "n", n_buckets: int = 64):
    """Hierarchical path-prefix rollup (the URL/route analytics shape:
    request counts at /api, /api/v2, /api/v2/users, ... in ONE pass):
    each path emits its prefixes up to ``max_depth`` segments map-side
    (pure Arrow: split + list_slice + binary_join — no per-row
    Python), per-batch partial counts collapse before one bucketed
    combine.  Output: ``prefix`` (sep-prefixed), ``depth``, count.
    Fan-out is bounded by max_depth (constant), so a 100 TB access log
    rolls up in a single exchange of (prefix, depth) partials."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1: {max_depth}")

    def explode(t: pa.Table) -> pa.Table:
        empty = pa.table({"prefix": pa.array([], pa.string()),
                          "depth": pa.array([], pa.int64()),
                          "__p_cnt": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        s = pc.fill_null(pc.cast(t.column(path_col), pa.string()), "")
        trimmed = pc.utf8_trim(s, sep)
        parts = pc.split_pattern(trimmed, sep)
        lens = pc.list_value_length(parts)
        outs = []
        for k in range(1, max_depth + 1):
            m = pc.and_(pc.greater_equal(lens, k),
                        pc.greater(pc.utf8_length(trimmed), 0))
            sel = parts.filter(m)
            if len(sel) == 0:
                continue
            joined = pc.binary_join(
                pc.list_slice(sel, 0, k), pa.scalar(sep))
            prefix = pc.binary_join_element_wise(
                pa.array([sep] * len(joined)), joined, pa.scalar(""))
            outs.append(pa.table({
                "prefix": prefix,
                "depth": pa.array(np.full(len(joined), k, np.int64))}))
        if not outs:
            return empty
        all_p = pa.concat_tables(outs)
        g = all_p.group_by(["prefix", "depth"]).aggregate([([], "count_all")])
        return pa.table({"prefix": g.column("prefix"),
                         "depth": g.column("depth"),
                         "__p_cnt": g.column("count_all").cast(pa.int64())})

    partial = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_agg(
        partial.map_batches(
            lambda t: t.rename_columns(["prefix", "depth", "c"]),
            batch_format="pyarrow"),
        ["prefix", "depth"], [("sum", "c", alias)],
        combine="bucket", n_buckets=n_buckets)


def session_paths(ds, key_col: str, type_col: str, ts_col: str = "ts",
                  tie_cols: Sequence[str] = (), gap_us: int = 1_800_000_000,
                  max_steps: int = 5, min_count: int = 1,
                  n_buckets: int = 64):
    """Top user-journey mining: sessionize per key (new session when
    the gap since the previous event exceeds ``gap_us`` — the
    sessionize() rule), take each session's FIRST ``max_steps`` event
    types in (ts, ties) order, join them into a ``path`` string
    ("view>click>purchase"), and count sessions per path.  The cap
    bounds path cardinality (and replays in SQL as a row_number
    filter before string_agg).  ONE co-partition by key builds
    sessions + paths vectorized; only (path, count) partials reach the
    final combine."""
    import pandas as pd

    from .aggregate import bucketed_group_transform  # self-import ok

    ties = list(tie_cols)

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col] + ties, kind="mergesort")
        ts = g[ts_col].astype("int64")
        new = (ts.groupby(g[key_col], sort=False).diff() > gap_us)
        sid = new.groupby(g[key_col], sort=False).cumsum().astype("int64")
        g = g.assign(__sid=sid)
        step = g.groupby([key_col, "__sid"], sort=False).cumcount()
        g = g[step < max_steps]
        p = g.groupby([key_col, "__sid"], sort=False)[type_col] \
            .agg(">".join).rename("path").reset_index()
        c = p.groupby("path", as_index=False).agg(c=("path", "size"))
        return c

    partials = bucketed_group_transform(ds, [key_col], paths,
                                        n_buckets=n_buckets)
    out = grouped_agg(partials, ["path"], [("sum", "c", "n_sessions")],
                      combine="bucket", n_buckets=n_buckets)
    if min_count > 1:
        out = out.map_batches(
            lambda t: t.filter(pc.greater_equal(
                t.column("n_sessions"),
                pa.scalar(min_count, pa.int64()))),
            batch_format="pyarrow")
    return out


def clamped_running_sum(ds, key_cols: Sequence[str], delta_col: str,
                        order_cols: Sequence[str] = ("ts",),
                        out_col: str = "balance",
                        n_buckets: int = 64):
    """Running balance floored at ZERO per key (inventory on-hand,
    prepaid credit, token buckets: withdrawals cannot drive the
    balance negative): the nonlinear recurrence
    ``b_i = max(b_{i-1} + d_i, 0)`` telescopes to the closed form

        b_i = S_i − min(0, min_{j<=i} S_j)

    over plain prefix sums S — two grouped scans (cumsum + running
    min), no sequential loop, int64-exact (the cusum_flags
    max-recursion telescoping idiom applied to the floor side).  SQL
    replays with two window functions."""
    import pandas as pd

    keys = list(key_cols)
    order = list(order_cols)

    def bal(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + order, kind="mergesort")
        gk = [g[k] for k in keys]
        s = g[delta_col].astype("int64").groupby(gk, sort=False).cumsum()
        m = s.groupby(gk, sort=False).cummin().clip(upper=0)
        g[out_col] = (s - m).astype("int64")
        return g

    return bucketed_group_transform(ds, keys, bal, n_buckets=n_buckets)
