"""Fixed-grid resampling (gap-fill / forward-fill) for metric streams.

Reference analog: the collector's interval processor
(processor/intervalprocessor/processor.go) emits the LAST point per
series per interval tick, and Prometheus-style range evaluation aligns
irregular scrapes onto a step grid with last-observation-carried-forward
semantics.  This stage is the batch re-expression: for every series key
and every grid timestamp t, the value of the latest observation at or
before t (null before the first observation — the "staleness" region).

Ray-Data-first plan — ONE co-partitioning shuffle end to end:

1. global [min, max] timestamp -> two driver scalars (an aggregate of
   per-block partials; the data itself never leaves the workers).
2. distinct series keys: per-block local distinct, then a keys-only
   groupby — only key tuples are shuffled, never observations.
3. grid expansion map-side: numpy repeat x tile per key block.  Grid
   size = |series| x |steps| — calendar-scale metadata, not data-scale
   (100 TB of observations over a month is still ~720 hourly steps).
4. grid rows and observations are tagged into one union, hash-bucketed
   by series key, and each bucket runs a vectorized per-(key, ts) max
   reduce followed by ``pandas.merge_asof`` — the same partitioning
   contract as stages/join.asof_join (ALL of a key's history lands in
   one bucket; skewed keys bound bucket size via ``n_buckets``; salting
   is inapplicable because the match needs the whole key's history).

Ties: several observations of one series at the same microsecond reduce
to their max value BEFORE the as-of match, making the result independent
of block arrival order (and replayable as SQL ``GROUP BY key, ts``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import bucketed_group_transform
from .join import _tag_union


def resample_ffill(ds, by: Sequence[str] | str, ts_col: str = "ts",
                   value_col: str = "value",
                   step_us: int = 3_600_000_000,
                   start_us: int | None = None,
                   end_us: int | None = None,
                   n_buckets: int = 32):
    """Align irregular (key, ts, value) observations onto a fixed grid.

    Returns one row per (series key, grid timestamp): ``by`` columns,
    ``grid_ts`` (timestamp[us]) and ``value_col`` = latest observed
    value at or before the grid point (null before the first one).

    The grid starts at ``start_us`` floored to a step multiple (default:
    the corpus min timestamp) and extends through ``end_us`` (default:
    the corpus max timestamp), inclusive.
    """
    by = [by] if isinstance(by, str) else list(by)

    if start_us is None or end_us is None:
        from ray.data.aggregate import Max, Min
        b = ds.map_batches(
            lambda t: pa.table(
                {"__us": pc.cast(t.column(ts_col), pa.int64())}),
            batch_format="pyarrow").aggregate(Min("__us"), Max("__us"))
        if start_us is None:
            start_us = b["min(__us)"]
        if end_us is None:
            end_us = b["max(__us)"]
    t0 = (int(start_us) // step_us) * step_us
    n_steps = int((int(end_us) - t0) // step_us) + 1 if int(end_us) >= t0 else 0
    grid_us = t0 + step_us * np.arange(n_steps, dtype=np.int64)

    # distinct series keys: local distinct per block, then a keys-only
    # global groupby (what travels is one tuple per key per block)
    keys = ds.map_batches(
        lambda t: t.select(by).group_by(by).aggregate([]),
        batch_format="pyarrow").groupby(by).count()

    def expand(t: pa.Table) -> pa.Table:
        n = t.num_rows
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_steps))
        cols = {c: t.column(c).take(idx) for c in by}
        cols["__grid_us"] = pa.array(np.tile(grid_us, n), pa.int64())
        return pa.table(cols)

    grid = keys.map_batches(expand, batch_format="pyarrow")

    obs = ds.map_batches(
        lambda t: pa.table({**{c: t.column(c) for c in by},
                            "__obs_us": pc.cast(t.column(ts_col),
                                                pa.int64()),
                            value_col: t.column(value_col)}),
        batch_format="pyarrow")

    tagged, left_cols, right_cols = _tag_union(grid, obs)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"]][left_cols].sort_values("__grid_us",
                                                   kind="stable")
        rg = g[~g["__side"]][right_cols]
        # per-(key, ts) max reduce -> block-order-independent as-of input
        rg = rg.groupby(by + ["__obs_us"], as_index=False,
                        sort=True)[value_col].max()
        rg = rg.sort_values("__obs_us", kind="stable")
        m = pd.merge_asof(lg, rg, left_on="__grid_us",
                          right_on="__obs_us", by=by,
                          direction="backward")
        m = m.drop(columns=["__obs_us"])
        # the union's typed-null padding floats the int64 grid column in
        # pandas; restore it (microsecond epochs are far below 2^53, so
        # the round-trip is exact)
        m["__grid_us"] = m["__grid_us"].astype("int64")
        return m

    out = bucketed_group_transform(tagged, by, merge, n_buckets)
    return out.map_batches(
        lambda t: pa.table({**{c: t.column(c) for c in by},
                            "grid_ts": pc.cast(t.column("__grid_us"),
                                               pa.timestamp("us")),
                            value_col: t.column(value_col)}),
        batch_format="pyarrow")


def resample_lerp(ds, by: Sequence[str] | str, ts_col: str = "ts",
                  value_col: str = "value",
                  step_us: int = 3_600_000_000,
                  start_us: int | None = None,
                  end_us: int | None = None,
                  n_buckets: int = 32):
    """Linear-interpolation resampling: like `resample_ffill` but each
    grid point BETWEEN two observations takes the straight-line value

        prev + (next - prev) * (t - t_prev) / (t_next - t_prev)

    (float64; exactly the observed value when t hits an observation),
    and grid points strictly before the first or strictly after the
    last observation are null — interpolation, never extrapolation.
    Same one-shuffle plan as `resample_ffill`; the bucket runs TWO
    merge_asofs (backward for prev, forward for next).  Per-(key, ts)
    ties reduce to max first, so prev == next at an exact hit and the
    formula degenerates safely."""
    by = [by] if isinstance(by, str) else list(by)

    if start_us is None or end_us is None:
        from ray.data.aggregate import Max, Min
        b = ds.map_batches(
            lambda t: pa.table(
                {"__us": pc.cast(t.column(ts_col), pa.int64())}),
            batch_format="pyarrow").aggregate(Min("__us"), Max("__us"))
        if start_us is None:
            start_us = b["min(__us)"]
        if end_us is None:
            end_us = b["max(__us)"]
    t0 = (int(start_us) // step_us) * step_us
    n_steps = int((int(end_us) - t0) // step_us) + 1 \
        if int(end_us) >= t0 else 0
    grid_us = t0 + step_us * np.arange(n_steps, dtype=np.int64)

    keys = ds.map_batches(
        lambda t: t.select(by).group_by(by).aggregate([]),
        batch_format="pyarrow").groupby(by).count()

    def expand(t: pa.Table) -> pa.Table:
        n = t.num_rows
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_steps))
        cols = {c: t.column(c).take(idx) for c in by}
        cols["__grid_us"] = pa.array(np.tile(grid_us, n), pa.int64())
        return pa.table(cols)

    grid = keys.map_batches(expand, batch_format="pyarrow")

    obs = ds.map_batches(
        lambda t: pa.table({**{c: t.column(c) for c in by},
                            "__obs_us": pc.cast(t.column(ts_col),
                                                pa.int64()),
                            value_col: t.column(value_col)}),
        batch_format="pyarrow")

    tagged, left_cols, right_cols = _tag_union(grid, obs)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["__side"]][left_cols].sort_values("__grid_us",
                                                   kind="stable")
        rg = g[~g["__side"]][right_cols]
        rg = rg.groupby(by + ["__obs_us"], as_index=False,
                        sort=True)[value_col].max()
        rg = rg.sort_values("__obs_us", kind="stable")
        prev = pd.merge_asof(lg, rg, left_on="__grid_us",
                             right_on="__obs_us", by=by,
                             direction="backward") \
            .rename(columns={"__obs_us": "__tp", value_col: "__vp"})
        m = pd.merge_asof(prev, rg, left_on="__grid_us",
                          right_on="__obs_us", by=by,
                          direction="forward") \
            .rename(columns={"__obs_us": "__tn", value_col: "__vn"})
        t = m["__grid_us"].astype("float64")
        tp, tn = m["__tp"], m["__tn"]
        vp = m["__vp"].astype("float64")
        vn = m["__vn"].astype("float64")
        span = tn - tp
        frac = np.where(span > 0, (t - tp) / span, 0.0)
        val = vp + (vn - vp) * frac
        val[tp.isna() | tn.isna()] = np.nan
        m[value_col] = val
        m["__grid_us"] = m["__grid_us"].astype("int64")
        return m[by + ["__grid_us", value_col]]

    out = bucketed_group_transform(tagged, by, merge, n_buckets)
    return out.map_batches(
        lambda t: pa.table({**{c: t.column(c) for c in by},
                            "grid_ts": pc.cast(t.column("__grid_us"),
                                               pa.timestamp("us")),
                            value_col: pc.cast(t.column(value_col),
                                               pa.float64())}),
        batch_format="pyarrow")


def ewma_smooth(ds, by: Sequence[str] | str, value_col: str,
                ts_col: str = "ts", order_cols: Sequence[str] = (),
                horizon: int = 8, anomaly_mult: int = 2,
                n_buckets: int = 64):
    """Integer-exact truncated EWMA + anomaly flag per series.

    For each row t of a series (ordered by ``ts_col`` then
    ``order_cols``), the smoother is the alpha=1/2 exponentially
    weighted mean of the PREVIOUS ``horizon`` values, kept as an exact
    integer fraction so the distributed result is bit-equal to a SQL
    window replay regardless of summation order:

        num_t = sum_{j=1..H} v_{t-j} * 2^(H-j)      (missing lags skip)
        den_t = sum of the 2^(H-j) weights actually present

    ``value_col`` must already be integer (scale floats upstream —
    cents, micros); num/den stay int64 (bound: max|v| * 2^H * H).  The
    anomaly flag is the exact integer cross-multiplication
    ``v_t * den_t > anomaly_mult * num_t`` (den_t > 0) — "this point is
    more than `mult`× its smoothed history", flat false for the first
    point of every series.

    Scale shape: ONE bucketed co-partition by series key
    (`bucketed_group_transform`); inside a bucket the H lag columns are
    H vectorized groupby-shifts — no per-key Python.  A 100 TB stream
    ships only (key, ts, order, value) tuples through the single
    shuffle.  Streaming twin of the reference's interval/rate family
    (deltatorate computes per-window rates; this smooths them).
    """
    keys = [by] if isinstance(by, str) else list(by)
    order = [ts_col, *order_cols]

    H = int(horizon)
    if not (1 <= H <= 32):
        raise ValueError("horizon must be in [1, 32]")

    def smooth(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, *order], kind="mergesort") \
             .reset_index(drop=True)
        v = g[value_col].astype("int64")
        grp = g.groupby(keys, sort=False)[value_col]
        num = np.zeros(len(g), dtype=np.int64)
        den = np.zeros(len(g), dtype=np.int64)
        for j in range(1, H + 1):
            w = np.int64(1) << (H - j)
            lag = grp.shift(j)
            have = lag.notna().to_numpy()
            num[have] += lag.fillna(0).to_numpy().astype(np.int64)[have] * w
            den[have] += w
        g = g.assign(
            ewma_num=num, ewma_den=den,
            is_anom=(den > 0) & (v.to_numpy() * den
                                 > np.int64(anomaly_mult) * num))
        return g

    return bucketed_group_transform(ds, keys, smooth, n_buckets=n_buckets)


def ohlc_downsample(ds, key_cols, ts_col: str = "ts",
                    value_col: str = "value",
                    tie_cols=(), window_us: int = 3_600_000_000,
                    n_buckets: int = 64):
    """OHLC bar downsampling — the lossy-but-shape-preserving metric
    compaction step (what a Gorilla/M3-style TSDB rollup emits): per
    (key, tumbling window) the first (open) and last (close) value in
    (ts, ties...) order plus min (low), max (high) and count.  A 100 TB
    raw series becomes four points per key-hour while alert rules on
    extremes stay answerable.  Values pass through untouched (int
    cents stay int64-exact); ONE bucketed co-partition, vectorized
    groupby head/tail per bucket."""
    import pandas as pd

    keys = list(key_cols)
    ties = list(tie_cols)

    def bars(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].astype("int64")
        g = g.assign(window_start=(ts // window_us) * window_us)
        g = g.sort_values(keys + ["window_start", ts_col] + ties,
                          kind="mergesort")
        part = keys + ["window_start"]
        gb = g.groupby(part, sort=False)
        out = gb.agg(n=(value_col, "size"),
                     low=(value_col, "min"),
                     high=(value_col, "max")).reset_index()
        opens = gb[value_col].first().rename("open").reset_index()
        closes = gb[value_col].last().rename("close").reset_index()
        out = out.merge(opens, on=part).merge(closes, on=part)
        return out[part + ["open", "high", "low", "close", "n"]]

    return bucketed_group_transform(ds, keys, bars, n_buckets=n_buckets)


def seasonal_residuals(ds, key_cols, ts_col: str = "ts",
                       value_col: str = "value",
                       period_us: int = 604_800_000_000,
                       bucket_us: int = 3_600_000_000,
                       n_buckets: int = 64):
    """Seasonal-naive anomaly baseline: per (key, ``bucket_us`` bucket)
    the value SUM is compared against the same bucket one ``period_us``
    earlier (same-hour-last-week by default) — residual = current −
    baseline, typed-null when no prior-period bucket exists (never
    fabricates a baseline).  The standard first-line seasonal detector
    before anything model-shaped.  Integer values stay int64-exact;
    ONE bucketed co-partition, baseline lookup is a vectorized
    searchsorted into the key's own sorted bucket array (sparse series
    stays sparse)."""
    import pandas as pd

    keys = list(key_cols)
    if period_us % bucket_us:
        raise ValueError("period_us must be a multiple of bucket_us")
    lag = period_us // bucket_us

    def resid(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].astype("int64")
        g = g.assign(bucket=ts // bucket_us)
        agg = g.groupby(keys + ["bucket"], sort=False) \
            .agg(total=(value_col, "sum")).reset_index() \
            .sort_values(keys + ["bucket"], kind="mergesort") \
            .reset_index(drop=True)
        if len(keys) > 1:
            code = pd.factorize(pd.Series(
                list(zip(*(agg[k] for k in keys)))), sort=False)[0]
        else:
            code = pd.factorize(agg[keys[0]], sort=False)[0]
        b = agg["bucket"].to_numpy(dtype=np.int64)
        b0 = b.min() if len(b) else 0
        br = b - b0
        stride = (br.max() if len(br) else 0) + lag + 2
        comp = code.astype(np.int64) * stride + br
        target = comp - lag
        j = np.searchsorted(comp, target)
        hit = (j < len(comp)) & (comp[np.minimum(j, len(comp) - 1)]
                                 == target)
        total = agg["total"].to_numpy()
        base = pd.array(np.where(hit, total[np.minimum(j, len(comp) - 1)],
                                 0), dtype="Int64")
        base[~hit] = pd.NA
        agg["baseline"] = base
        agg["residual"] = pd.array(total, dtype="Int64") - base
        return agg

    return bucketed_group_transform(ds, keys, resid, n_buckets=n_buckets)


def time_weighted_average(ds, key_cols, ts_col: str = "ts",
                          value_col: str = "value",
                          window_us: int = 3_600_000_000,
                          tie_cols=(), n_buckets: int = 64):
    """Time-weighted average of a sampled gauge per (key, tumbling
    window): the step-function integral between consecutive samples
    INSIDE the window, divided by the covered span —
    sum(v_i * (t_{i+1} - t_i)) / (t_last - t_first) — the right mean
    for irregularly-sampled gauges where the arithmetic mean
    over-weights bursts of samples.  No cross-window carry and no
    extrapolation: a window with fewer than two samples yields a
    typed-null ``twa`` (its ``n``/``span_us`` still report).  The
    integer numerator is EXACT int64 (value x microsecond products);
    the single closing division is the only float.  ONE bucketed
    co-partition, grouped shifts vectorized across keys."""
    import pandas as pd

    keys = list(key_cols)
    ties = list(tie_cols)

    def twa(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].astype("int64")
        g = g.assign(window_start=(ts // window_us) * window_us,
                     __ts=ts)
        part = keys + ["window_start"]
        g = g.sort_values(part + [ts_col] + ties, kind="mergesort")
        gb = g.groupby(part, sort=False)
        nxt = gb["__ts"].shift(-1)
        seg = (nxt - g["__ts"]).fillna(0).astype("int64")
        g["__area"] = g[value_col].astype("int64") * seg
        out = gb.agg(n=(value_col, "size")).reset_index()
        area = g.groupby(part, sort=False)["__area"].sum().reset_index()
        span = gb["__ts"].agg(lambda s: s.iloc[-1] - s.iloc[0]) \
            .rename("span_us").reset_index()
        out = out.merge(area, on=part).merge(span, on=part)
        out["span_us"] = out["span_us"].astype("int64")
        a = out["__area"].to_numpy(dtype=np.float64)
        sp = out["span_us"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = a / sp
        out["twa"] = np.where(sp > 0, v, np.nan)
        return out.drop(columns="__area")

    return bucketed_group_transform(ds, keys, twa, n_buckets=n_buckets)


def lag_align(ds, key_cols, ts_col: str = "ts", value_col: str = "value",
              lag_buckets: int = 1, bucket_us: int = 3_600_000_000,
              n_buckets: int = 64):
    """Self-alignment for autocorrelation: per (key, bucket) the value
    SUM is paired with the same key's bucket ``lag_buckets`` earlier
    (inner — only buckets where BOTH exist emit), via the composite-key
    searchsorted (sparse series stays sparse).  Feed the result to
    ``grouped_pearson(keys, "v", "v_lag")`` for the exact-moment
    ACF(lag) — autocorrelation is just Pearson on the aligned pairs."""
    import pandas as pd

    keys = list(key_cols)

    def align(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].astype("int64")
        g = g.assign(bucket=ts // bucket_us)
        agg = g.groupby(keys + ["bucket"], sort=False) \
            .agg(v=(value_col, "sum")).reset_index() \
            .sort_values(keys + ["bucket"], kind="mergesort") \
            .reset_index(drop=True)
        if len(keys) > 1:
            code = pd.factorize(pd.Series(
                list(zip(*(agg[k] for k in keys)))), sort=False)[0]
        else:
            code = pd.factorize(agg[keys[0]], sort=False)[0]
        b = agg["bucket"].to_numpy(dtype=np.int64)
        b0 = b.min() if len(b) else 0
        br = b - b0
        stride = (br.max() if len(br) else 0) + lag_buckets + 2
        comp = code.astype(np.int64) * stride + br
        j = np.searchsorted(comp, comp - lag_buckets)
        hit = (j < len(comp)) & (comp[np.minimum(j, len(comp) - 1)]
                                 == comp - lag_buckets)
        v = agg["v"].to_numpy(dtype=np.int64)
        out = agg[hit].copy()
        out["v_lag"] = v[np.minimum(j, len(comp) - 1)][hit]
        out["v"] = out["v"].astype("int64")
        out["v_lag"] = out["v_lag"].astype("int64")
        return out

    return bucketed_group_transform(ds, keys, align, n_buckets=n_buckets)
