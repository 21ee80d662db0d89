"""Joins, Ray-Data-first.

The reference has no general relational joins (SURVEY.md §2.8) — only
broadcast lookup enrich (LookupEnricher) and stream-stream pairing on a
shared key (adjacent_pairs).  A complete data-processing engine needs
the large✕large case too, so this module provides the explicit
partitioned hash join:

    add bucket = hash(key) % B to both sides  ->  one shuffle each
    groupby(bucket) over the union            ->  Arrow join per bucket
    (Acero hash join over key columns + int64 row indices, payloads
    gathered by take() — exact dtypes, any payload type)

This is the portable pattern (works on any Ray version, any key type,
and makes the partitioning assumption explicit — B and the hash are the
documented contract; salt hot keys upstream if a bucket overflows).
`Dataset.join` (hash-partitioned) exists in this Ray version and can be
swapped in; the explicit form is kept as the primary implementation so
the shuffle behavior is inspectable and portable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregate import arrow_out, bucketed_group_transform


def _pa_schema(ds) -> pa.Schema:
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema(list(zip(sch.names, sch.types)))


def bucketed_hash_join(left, right, on: Sequence[str], how: str = "inner",
                       n_buckets: int = 32, suffix: str = "_r",
                       reduce=None):
    """Join two Datasets on key columns via explicit hash co-partitioning.

    Both sides are tagged (side, bucket) and unioned; ONE shuffle
    co-locates each bucket; an Acero hash join runs inside the bucket.
    NULL-key semantics are SQL's (and the DuckDB oracles'): a null key
    never matches anything — inner/semi drop null-key left rows, left/
    outer keep them with null right columns, anti KEEPS them (NOT
    EXISTS semantics).  (The pre-Acero pandas merge matched NaN==NaN;
    that was a divergence from SQL, not a feature.)
    Returns a Dataset with left columns + right non-key columns
    (clashes suffixed).  how: inner/left/outer plus "semi" (left rows
    WITH a right key match, right columns not emitted) and "anti" (left
    rows WITHOUT a match) — the shuffle alternative to the broadcast
    key-set filter when the right key set is too big to ray.put.

    Sizing contract: one bucket = one reduce task holding BOTH sides'
    bucket slices in memory — size n_buckets to ~total_join_bytes /
    256 MB (and at least the cluster's core count) so no single bucket
    exceeds a worker heap; salt hot keys upstream if one key dominates
    a bucket.

    reduce: optional pandas->pandas callable applied to each bucket's
    merged frame INSIDE the join task (map-side post-join reduce).  A
    group-by whose keys INCLUDE the join keys is final here — groups
    cannot span buckets — so join+aggregate pipelines skip the second
    shuffle entirely (e.g. TPC-H Q3 revenue per orderkey)."""
    on = list(on)

    def finish_degenerate(deg):
        # a degenerate side must NOT bypass the reduce hook (e.g. the
        # EXCEPT query's global dedup): co-locate the surviving side by
        # the join keys and run the reduce per bucket, preserving the
        # hook's "all rows of a key in one call" contract
        if reduce is None or deg.schema() is None:
            return deg
        return bucketed_group_transform(deg, on, reduce, n_buckets)

    deg = _degenerate_side(left, right, how)
    if deg is not None:
        return finish_degenerate(deg)
    if how in ("semi", "anti"):
        # only the right KEYS matter: project + per-batch dedup before the
        # shuffle so a wide right side doesn't ship its non-key bytes
        right = right.map_batches(
            lambda t: t.select(on).group_by(on).aggregate([]),
            batch_format="pyarrow")
        if right.schema() is None:
            # the projection probe found ZERO right rows (an upstream
            # filter emptied the side after the first degenerate check)
            return finish_degenerate(
                left if how == "anti" else left.limit(0))
    # padding to one union schema (typed nulls) keeps every block's schema
    # identical, and bucketing AFTER the cast to the unified key types makes
    # an int32 key bucket like its int64 twin
    tagged, left_cols, right_cols = _tag_union(left, right)

    # the reduce hook is pandas-shaped; re-emit a metadata-free Arrow block
    _reduced = arrow_out(lambda out: reduce(out.to_pandas()))

    def merge(g: pa.Table) -> pa.Table:
        # Arrow-native in-bucket join via index-take composition: only
        # the KEY columns + int64 row indices go through the Acero hash
        # join; payload columns are gathered afterwards with take().
        # This keeps exact dtypes (no pandas int->float null coercion),
        # supports any payload type (Acero rejects list payloads), and
        # ships less data through the join kernel.
        import pyarrow.compute as pc

        side = g.column("__side")
        lg = g.filter(side).select(left_cols)
        rg = g.filter(pc.invert(side)).select(right_cols)
        lk = lg.select(on).append_column(
            "__li", pa.array(np.arange(lg.num_rows), pa.int64()))
        if how in ("semi", "anti"):
            jt = "left semi" if how == "semi" else "left anti"
            idx = lk.join(rg.select(on), keys=on, join_type=jt)
            out = lg.take(idx.column("__li"))
            return _reduced(out) if reduce is not None else out
        rk = rg.select(on).append_column(
            "__ri", pa.array(np.arange(rg.num_rows), pa.int64()))
        jt = {"inner": "inner", "left": "left outer",
              "outer": "full outer"}[how]
        m = lk.join(rk, keys=on, join_type=jt)  # coalesced keys + __li/__ri
        ltaken = lg.take(m.column("__li"))   # null index -> null row
        rtaken = rg.take(m.column("__ri"))
        cols = {c: (m.column(c) if c in on else ltaken.column(c))
                for c in left_cols}
        for c in right_cols:
            if c in on:
                continue
            cols[c + suffix if c in left_cols else c] = rtaken.column(c)
        out = pa.table(cols)
        return _reduced(out) if reduce is not None else out

    return bucketed_group_transform(tagged, on, merge, n_buckets,
                                    batch_format="pyarrow")


def _degenerate_side(left, right, how: str):
    """Handle a side whose schema is unobservable (Dataset.schema() is
    None ⇔ the plan produced no rows at all).  Returns the correct
    degenerate join result, or None when both sides are real.
    With no rows on one side, 'outer' keeps the other side's rows
    unchanged (the absent side's columns are unknowable, so they are
    simply absent); 'left'/'anti' keep every left row; inner/semi yield
    nothing."""
    if left.schema() is None:
        return right if how == "outer" else left
    if right.schema() is None:
        return left if how in ("left", "anti", "outer") else left.limit(0)
    return None


def _tag_union(left, right):
    """Shared co-partitioning input: pad both sides to one union schema
    (typed nulls), tag each row's side, union.  Returns
    (tagged_ds, left_cols, right_cols); the caller's
    bucketed_group_transform then co-locates each key's rows.

    Cost note: resolving each side's schema on a lazy map plan runs a
    limit-1 probe (one block read per side, cached on the plan) — a
    small FIXED cost per join call, independent of data size; it is the
    price of the typed-null union padding that keeps every shuffled
    block's schema identical."""
    left_cols = left.schema().names
    right_cols = right.schema().names
    types: dict[str, pa.DataType] = {}
    for f in list(_pa_schema(left)) + list(_pa_schema(right)):
        types.setdefault(f.name, f.type)
    all_cols = list(dict.fromkeys(left_cols + right_cols))

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = {c: (t.column(c).cast(types[c]) if c in t.column_names
                        else pa.nulls(t.num_rows, type=types[c]))
                    for c in all_cols}
            cols["__side"] = pa.array(np.full(t.num_rows, side == "l"), pa.bool_())
            return pa.table(cols)

        return fn

    tagged = left.map_batches(tag("l"), batch_format="pyarrow").union(
        right.map_batches(tag("r"), batch_format="pyarrow"))
    return tagged, left_cols, right_cols


def asof_join(left, right, by: Sequence[str] | str, on: str,
              right_on: str | None = None, direction: str = "backward",
              tolerance=None, how: str = "inner", n_buckets: int = 32,
              suffix: str = "_r", allow_exact_matches: bool = True):
    """As-of join: for each left row, the single right row with the same
    `by` key and the nearest `right_on` time (backward: latest <= left's
    `on`; forward: earliest >=; nearest: closest either way).

    The reference engine has nothing like this (its joins are broadcast
    lookups); a trace/metric pipeline needs it constantly ("which deploy
    / config / session was live when this record happened").  Ray Data
    lacks it natively, so it composes from primitives: ONE hash shuffle
    co-locates each `by` key's rows from both sides, then each bucket
    runs a vectorized ``pandas.merge_asof`` (a sorted merge, O(n log n)
    per bucket).  Partitioning contract: all rows of a `by` key land in
    one bucket — salt is NOT applicable here (the match needs the whole
    key's history); skewed keys bound bucket size instead via n_buckets.

    how='inner' keeps only matched rows; 'left' keeps all left rows
    (unmatched right columns null — integer right columns surface as
    float64, the pandas null convention; cast downstream if needed).
    tolerance: max |time difference| (pd.Timedelta for timestamps)."""
    by = [by] if isinstance(by, str) else list(by)
    deg = _degenerate_side(left, right, how)
    if deg is not None:
        return deg
    right_on = right_on or on
    tagged, left_cols, right_cols = _tag_union(left, right)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"]][left_cols].sort_values(on, kind="stable")
        rg = g[~g["__side"]][right_cols].sort_values(right_on, kind="stable")
        rg = rg.assign(__m=True)
        m = pd.merge_asof(lg, rg, left_on=on, right_on=right_on, by=by,
                          direction=direction, tolerance=tolerance,
                          suffixes=("", suffix),
                          allow_exact_matches=allow_exact_matches)
        if how == "inner":
            m = m[m["__m"].notna()]
        return m.drop(columns="__m")

    return bucketed_group_transform(tagged, by, merge, n_buckets)


def range_join(left, right, left_ts: str, right_start: str, right_end: str,
               by: Sequence[str] | str = (), bin_width_us: int = 3_600_000_000,
               n_buckets: int = 32, suffix: str = "_r"):
    """Interval/range join: left rows pair with every right row whose
    [right_start, right_end] interval (inclusive) contains left_ts and
    whose `by` key matches.

    Scale shape (the standard distributed interval join): time is cut
    into bins of bin_width_us; each RIGHT interval is replicated to every
    bin it overlaps (flat_map — replication factor ~= interval_len/bin),
    each LEFT row belongs to exactly ONE bin, and the equi-join runs on
    (by, bin) with the exact range predicate re-checked inside the
    bucket.  A left row meets a given interval in exactly one bin (its
    own), so no dedup pass is needed.  Pick bin_width_us near the median
    interval length: too small inflates right-side replication, too
    large degrades bin selectivity toward a cross join."""
    by = [by] if isinstance(by, str) else list(by)
    deg = _degenerate_side(left, right, "inner")
    if deg is not None:
        return deg

    def to_us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        return col.to_numpy(zero_copy_only=False).astype(np.int64)

    def bin_left(t: pa.Table) -> pa.Table:
        b = to_us(t.column(left_ts)) // bin_width_us
        return t.append_column("__bin", pa.array(b, pa.int64()))

    def explode_right(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__bin", pa.array([], pa.int64()))
        lo = to_us(t.column(right_start)) // bin_width_us
        hi = to_us(t.column(right_end)) // bin_width_us
        counts = (hi - lo + 1).clip(min=0)
        row_idx = np.repeat(np.arange(t.num_rows), counts)
        # bin sequence per row: lo[i] .. hi[i]
        offs = np.arange(len(row_idx)) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        bins = np.repeat(lo, counts) + offs
        return t.take(pa.array(row_idx)).append_column(
            "__bin", pa.array(bins, pa.int64()))

    lb = left.map_batches(bin_left, batch_format="pyarrow")
    rb = right.map_batches(explode_right, batch_format="pyarrow")
    key_cols = by + ["__bin"]
    tagged, left_cols, right_cols = _tag_union(lb, rb)

    def merge(g: pa.Table) -> pa.Table:
        # same Arrow index-take composition as bucketed_hash_join, plus
        # the exact range predicate re-checked on the joined rows
        import pyarrow.compute as pc

        side = g.column("__side")
        lg = g.filter(side).select(left_cols)
        rg = g.filter(pc.invert(side)).select(right_cols)
        lk = lg.select(key_cols).append_column(
            "__li", pa.array(np.arange(lg.num_rows), pa.int64()))
        rk = rg.select(key_cols).append_column(
            "__ri", pa.array(np.arange(rg.num_rows), pa.int64()))
        m = lk.join(rk, keys=key_cols, join_type="inner")
        ltaken = lg.take(m.column("__li"))
        rtaken = rg.take(m.column("__ri"))
        cols = {c: (m.column(c) if c in key_cols else ltaken.column(c))
                for c in left_cols}
        for c in right_cols:
            if c in key_cols:
                continue
            cols[c + suffix if c in left_cols else c] = rtaken.column(c)
        out = pa.table(cols)
        rs = right_start if right_start not in left_cols else right_start + suffix
        re_ = right_end if right_end not in left_cols else right_end + suffix
        keep = pc.and_(pc.greater_equal(out.column(left_ts), out.column(rs)),
                       pc.less_equal(out.column(left_ts), out.column(re_)))
        return out.filter(keep).drop_columns(["__bin"])

    return bucketed_group_transform(tagged, key_cols, merge, n_buckets,
                                    batch_format="pyarrow")


def _hot_keys(ds, col: str, k: int = 8, min_share: float = 0.02,
              capacity: int = 256) -> list:
    """Heavy-hitter keys of `col`: per-batch SpaceSaving summaries + row
    counts, merged on the driver.  Returns up to k keys whose estimated
    share exceeds min_share.  One extra (cheap, projected) pass."""
    import pickle

    from .sketch import _ss_add, _ss_merge

    def summarize(t: pa.Table) -> pa.Table:
        gb = t.group_by([col]).aggregate([([], "count_all")])
        counters: dict = {}
        for key, c in zip(gb.column(col).to_pylist(),
                          gb.column("count_all").to_pylist()):
            _ss_add(counters, key, c, capacity)
        return pa.table({"sketch": pa.array([pickle.dumps(counters)],
                                            pa.binary()),
                         "n": pa.array([t.num_rows], pa.int64())})

    # project BEFORE the map so parquet column pushdown applies — the
    # detection pass must not re-read the left side's non-key bytes
    parts = ds.select_columns([col]) \
        .map_batches(summarize, batch_format="pyarrow").take_all()
    merged: dict = {}
    total = 0
    for row in parts:
        merged = _ss_merge(merged, pickle.loads(row["sketch"]), capacity)
        total += int(row["n"])
    if not total:
        return []
    top = sorted(merged.items(), key=lambda kv: -kv[1])[:k]
    return [key for key, c in top if c >= min_share * total and key is not None]


def skew_join(left, right, on: Sequence[str], how: str = "inner",
              n_buckets: int = 32, suffix: str = "_r", n_salt: int = 8,
              hot_keys: Sequence | None = None, hot_top: int = 8,
              hot_min_share: float = 0.02):
    """bucketed_hash_join for SKEWED keys: hot keys are salted so one
    giant key spreads over n_salt buckets instead of overflowing one
    reduce task.

    Hot left rows get salt = (running index among hot rows) % n_salt;
    hot RIGHT rows replicate to every salt (the classic broadcast-the-
    hot-minority trade: n_salt copies of the few hot right rows buy an
    n_salt-way split of the dominant left key).  Cold keys take salt 0
    — identical path to the plain join.  The join then runs on
    (keys + __salt); correct for inner/left/semi/anti (an 'outer'
    right-unmatched row would surface once per salt, so outer is
    rejected).

    hot_keys=None auto-detects via a SpaceSaving pass over the left side
    (single-column joins; pass hot_keys explicitly for composite keys).
    No hot keys detected ⇒ delegates to bucketed_hash_join unchanged."""
    import pyarrow.compute as pc

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"skew_join does not support how={how!r}")
    on = list(on)
    if hot_keys is None:
        if len(on) != 1:
            raise ValueError("auto hot-key detection needs a single join "
                             "column; pass hot_keys= for composite keys")
        hot_keys = _hot_keys(left, on[0], k=hot_top,
                             min_share=hot_min_share)
    hot_keys = [k for k in hot_keys if k is not None]
    if not hot_keys:
        return bucketed_hash_join(left, right, on=on, how=how,
                                  n_buckets=n_buckets, suffix=suffix)
    deg = _degenerate_side(left, right, how)
    if deg is not None:
        return deg
    key_col = on[0]
    key_type = _pa_schema(left).field(key_col).type
    hot_arr = pa.array(hot_keys, type=key_type)

    def salt_left(t: pa.Table) -> pa.Table:
        hot = pc.fill_null(pc.is_in(t.column(key_col).cast(key_type),
                                    value_set=hot_arr), False) \
            .to_numpy(zero_copy_only=False)
        salt = np.zeros(t.num_rows, dtype=np.int64)
        salt[hot] = np.arange(int(hot.sum()), dtype=np.int64) % n_salt
        return t.append_column("__salt", pa.array(salt, pa.int64()))

    def salt_right(t: pa.Table) -> pa.Table:
        hot = pc.fill_null(pc.is_in(t.column(key_col).cast(key_type),
                                    value_set=hot_arr), False) \
            .to_numpy(zero_copy_only=False)
        cold_idx = np.flatnonzero(~hot)
        hot_idx = np.flatnonzero(hot)
        idx = np.concatenate([cold_idx, np.repeat(hot_idx, n_salt)])
        salts = np.concatenate([
            np.zeros(len(cold_idx), dtype=np.int64),
            np.tile(np.arange(n_salt, dtype=np.int64), len(hot_idx))])
        return t.take(pa.array(idx)).append_column(
            "__salt", pa.array(salts, pa.int64()))

    out = bucketed_hash_join(
        left.map_batches(salt_left, batch_format="pyarrow"),
        right.map_batches(salt_right, batch_format="pyarrow"),
        on=on + ["__salt"], how=how, n_buckets=n_buckets, suffix=suffix)
    return out.map_batches(lambda t: t.drop_columns(["__salt"]),
                           batch_format="pyarrow")


def native_join(left, right, on: Sequence[str], how: str = "inner",
                num_partitions: int = 32, suffix: str = "_r"):
    """Ray Data's built-in hash-shuffle join (Dataset.join) — the same
    co-partitioning idea as bucketed_hash_join executed by Ray's join
    operator.  Prefer this when both sides are large and the Ray version
    provides it; bucketed_hash_join stays as the portable, inspectable
    fallback (and the one that supports arbitrary key types uniformly).
    Benchmark note (BASELINE.md): measured head-to-head on the
    orders x customer join at sf0.1 per round so the default stays
    evidence-based."""
    return left.join(right, join_type=how, num_partitions=num_partitions,
                     on=tuple(on), right_suffix=suffix)


def broadcast_join(left, right_table: pa.Table, on: Sequence[str],
                   how: str = "inner", suffix: str = "_r"):
    """Map-side join against a SMALL right side: the right table is
    ray.put once and joined inside every map task — zero shuffle, the
    join equivalent of LookupEnricher (which only handles single-column
    key->attrs dicts).  Use when the right side fits comfortably in
    worker memory (rule of thumb: < 1 GB); otherwise bucketed_hash_join.

    right_table is a pyarrow Table (already driver-resident by
    definition of 'small'); how: inner/left/semi/anti."""
    import ray

    on = list(on)
    if how in ("semi", "anti"):
        right_table = right_table.select(on).group_by(on).aggregate([])
    rref = ray.put(right_table)

    class Joiner:
        def __init__(self):
            self.right = ray.get(rref).to_pandas()

        def __call__(self, batch: pa.Table) -> pa.Table:
            lg = batch.to_pandas()
            if how in ("semi", "anti"):
                hit = lg.merge(self.right, on=on, how="left",
                               indicator=True)["_merge"] == "both"
                out = lg[hit.to_numpy() if how == "semi" else ~hit.to_numpy()]
            else:
                out = lg.merge(self.right, on=on, how=how,
                               suffixes=("", suffix))
            return pa.Table.from_pandas(out, preserve_index=False)

    return left.map_batches(Joiner, batch_format="pyarrow",
                            concurrency=(1, 8))


def build_key_bloom(keys_ds, on: Sequence[str], m_bits: int = 1 << 23,
                    k: int = 4):
    """Distributed Bloom filter over a Dataset's join-key tuples.

    Every batch emits ONE row holding its partial bloom's packed bits
    (m_bits/8 bytes, constant regardless of batch size); the driver
    OR-reduces the partials streaming — at 100 TB the driver sees
    num_batches × m/8 bytes of fixed-size partials, never the keys
    (the `build_bloom_ngrams` pattern, decontam.py).  Keys hash with
    the vectorized internal `hash64` (polars Rust kernels), so any key
    type / multi-column tuple works with zero Python objects.
    """
    from .decontam import BloomFilter
    from .sample import hash64

    on = list(on)

    def partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter(m_bits=m_bits, k=k)
        kt = t.select(on)
        # null keys never match in SQL join semantics: drop before adding
        mask = None
        for c in on:
            v = pa.compute.is_valid(kt.column(c))
            mask = v if mask is None else pa.compute.and_(mask, v)
        kt = kt.filter(mask)
        if kt.num_rows:
            bf.add(hash64(kt, cols=on))
        return pa.table({"bloom": pa.array([bf.to_bytes()],
                                           pa.large_binary())})

    acc = BloomFilter(m_bits=m_bits, k=k)
    for b in keys_ds.map_batches(partial, batch_format="pyarrow") \
                    .iter_batches(batch_format="pyarrow"):
        for raw in b.column("bloom"):
            acc.merge(BloomFilter.from_bytes(raw.as_py(), k=k))
    return acc


def bloom_prefilter(big, keys_ds, on: Sequence[str],
                    right_on: Sequence[str] | None = None,
                    m_bits: int = 1 << 23, k: int = 4, bloom=None):
    """Map-side Bloom prune of `big` ahead of a shuffle join.

    The classic large✕large join optimization when the join is
    SELECTIVE (most big-side rows have no match): build a fixed-size
    Bloom filter of the other side's key set (distributed, OR-reduced
    partials), broadcast it ONCE via `ray.put`, and drop big-side rows
    whose key cannot match BEFORE the all-to-all shuffle.  False
    positives only ever ship a few extra rows into the exact join that
    follows — the result stays exact — while true negatives (the bulk,
    when selectivity is high) never leave their block.  At 100 TB this
    turns a full-table exchange into an exchange of the matching
    fraction, for one m_bits/8-byte broadcast.

    `on` names the key columns of `big`; `right_on` those of `keys_ds`
    when they differ (hashed in the given order, so tuple positions
    must correspond).  Pass a prebuilt `bloom` (from `build_key_bloom`)
    to reuse one filter across several scans.  Null-key big rows are
    dropped (they cannot match — inner/semi join semantics; do NOT use
    this in front of a left/outer join's probe side).
    """
    import ray

    from .decontam import BloomFilter
    from .sample import hash64

    on = list(on)
    bf = bloom if bloom is not None else build_key_bloom(
        keys_ds, list(right_on) if right_on is not None else on,
        m_bits=m_bits, k=k)
    ref = ray.put(bf.to_bytes())
    kk = bf.k

    def prune(t: pa.Table) -> pa.Table:
        # ray.get of the broadcast bytes is a zero-copy local read;
        # np.frombuffer wraps it read-only — contains() only reads
        words = np.frombuffer(ray.get(ref), dtype=np.uint64)
        local = BloomFilter(m_bits=len(words) * 64, k=kk, words=words)
        mask = None
        for c in on:
            v = pa.compute.is_valid(t.column(c))
            mask = v if mask is None else pa.compute.and_(mask, v)
        t = t.filter(mask)
        if t.num_rows == 0:
            return t
        keep = local.contains(hash64(t.select(on), cols=on))
        return t.filter(pa.array(keep))

    return big.map_batches(prune, batch_format="pyarrow")


def interval_overlap_join(left, right, start_col: str = "s",
                          end_col: str = "e",
                          key_cols: Sequence[str] = (),
                          bucket_us: int = 3_600_000_000,
                          n_buckets: int = 64,
                          suffixes: tuple = ("_a", "_b"),
                          max_span_buckets: int = 10_000):
    """Interval x interval OVERLAP join (calendar/genomics shape): all
    pairs (l, r) sharing ``key_cols`` with half-open overlap
    ``l.s < r.e AND r.s < l.e``.  Ray Data has no native range join;
    the scale shape is the GRID trick: each interval replicates
    map-side to the time-grid buckets it covers (fan-out = span /
    bucket_us + 1 — size ``bucket_us`` to the median span), ONE
    bucketed co-partition joins within (keys, grid bucket), and the
    duplicate hits an overlapping pair would produce across shared
    buckets are eliminated WITHOUT a dedup shuffle by the canonical-
    bucket rule: a pair is emitted only from the bucket containing
    max(l.s, r.s) — exactly one bucket qualifies per true overlap.
    ``max_span_buckets`` guards degenerate month-long intervals on an
    hour grid (raise bucket_us instead).  Output: left columns
    suffixed ``_a``, right suffixed ``_b`` (keys unsuffixed, once)."""
    import pandas as pd

    import numpy as np
    import pyarrow as pa

    from .aggregate import bucketed_group_transform

    keys = list(key_cols)
    sa, sb = suffixes

    def replicate(tag):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                out = {k: t.column(k).slice(0, 0) for k in keys}
                for c in t.column_names:
                    if c not in keys:
                        out[c + tag] = t.column(c).slice(0, 0)
                out["__grid"] = pa.array([], pa.int64())
                return pa.table(out)
            s = t.column(start_col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            e = t.column(end_col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            b0 = s // bucket_us
            # half-open end: an interval ending exactly on a grid line
            # does not cover the next bucket
            b1 = np.maximum(b0, (e - 1) // bucket_us)
            span = b1 - b0 + 1
            if int(span.max()) > max_span_buckets:
                raise ValueError(
                    f"interval spans {int(span.max())} grid buckets "
                    f"(> max_span_buckets={max_span_buckets}); raise "
                    "bucket_us")
            reps = np.repeat(np.arange(len(s), dtype=np.int64), span)
            offs = np.arange(int(span.sum()), dtype=np.int64) \
                - np.repeat(np.cumsum(span) - span, span)
            grid = np.repeat(b0, span) + offs
            out = {}
            for k in keys:
                out[k] = t.column(k).take(pa.array(reps))
            for c in t.column_names:
                if c not in keys:
                    out[c + tag] = t.column(c).take(pa.array(reps))
            out["__grid"] = pa.array(grid)
            return pa.table(out)

        return f

    la = left.map_batches(replicate(sa), batch_format="pyarrow")
    rb = right.map_batches(replicate(sb), batch_format="pyarrow")
    tagged = la.map_batches(
        lambda t: t.append_column("__side",
                                  pa.array([0] * t.num_rows, pa.int8())),
        batch_format="pyarrow").union(rb.map_batches(
            lambda t: t.append_column("__side",
                                      pa.array([1] * t.num_rows,
                                               pa.int8())),
            batch_format="pyarrow"))

    # the union's schema is the column UNION (each side null-fills the
    # other's suffixed columns, int64 -> float64 in pandas): select
    # each side's own columns explicitly and restore integer dtypes
    l_schema = left.schema()
    r_schema = right.schema()
    lcols = [(f.name + sa, f.type) for f in
             (l_schema.base_schema if hasattr(l_schema, "base_schema")
              else l_schema) if f.name not in keys]
    rcols = [(f.name + sb, f.type) for f in
             (r_schema.base_schema if hasattr(r_schema, "base_schema")
              else r_schema) if f.name not in keys]

    out_cols = keys + ["__grid"] + [c for c, _ in lcols] \
        + [c for c, _ in rcols]

    def pick(g, side, cols):
        want = [c for c, _ in cols]
        if any(c not in g.columns for c in want):
            # a bucket fed only by the OTHER side's blocks lacks these
            # columns entirely (Ray union does not unify schemas)
            return None
        sub = g.loc[g["__side"] == side, keys + ["__grid"] + want]
        for c, typ in cols:
            if pa.types.is_integer(typ):
                sub[c] = sub[c].astype("int64")
        return sub

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = pick(g, 0, lcols)
        b = pick(g, 1, rcols)
        if a is None or b is None or a.empty or b.empty:
            def dt(c):
                if c == "__grid":
                    return "int64"
                for cc, t in lcols + rcols:
                    if cc == c:
                        return "int64" if pa.types.is_integer(t) \
                            else "object"
                return "object"  # key columns
            return pd.DataFrame({c: pd.Series([], dtype=dt(c))
                                 for c in out_cols})
        m = a.merge(b, on=keys + ["__grid"])
        if m.empty:
            return m
        ls, le = m[start_col + sa], m[end_col + sa]
        rs, re_ = m[start_col + sb], m[end_col + sb]
        overlap = (ls < re_) & (rs < le)
        canonical = (np.maximum(ls, rs) // bucket_us) == m["__grid"]
        return m[overlap & canonical]

    out = bucketed_group_transform(tagged, keys + ["__grid"], join_bucket,
                                   n_buckets=n_buckets)
    return out.map_batches(lambda t: t.drop_columns(["__grid"]),
                           batch_format="pyarrow")
