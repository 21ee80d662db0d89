"""Robust grouped statistics: exact median / MAD outlier flags, mode.

Robust anomaly scoring for skewed telemetry values (latencies, sizes):
mean/stddev break under heavy tails, so the standard robust z-score is
``|x - median| > k * MAD`` with MAD = median(|x - median|).  Both
medians are kept as EXACT doubled int64s (a median of ints is either an
int or an int + 1/2, so 2*median = the sum of the two middle elements —
pure int64), and the flag is the cross-multiplied integer comparison
``2*|2x - med2| > k * mad4`` — bit-equal to a SQL replay regardless of
partitioning or summation order.

Scale shape: ONE bucketed co-partition by group key; inside a bucket
everything is numpy sorts + gathers vectorized across ALL keys at once
(two lexsorts, no per-key Python).  `grouped_mode` pre-aggregates
(key, value) counts inside each batch first, so only distinct pairs —
not rows — enter its shuffle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa


def _doubled_group_median(sorted_vals: np.ndarray, counts: np.ndarray,
                          offsets: np.ndarray) -> np.ndarray:
    """2*median per group over values already sorted within groups:
    the sum of the two middle elements (equal when the count is odd)."""
    lo = offsets + (counts - 1) // 2
    hi = offsets + counts // 2
    return sorted_vals[lo] + sorted_vals[hi]


def mad_outliers(ds, keys: Sequence[str], value_col: str,
                 k: int = 3, n_buckets: int = 64):
    """Append exact ``med_x2`` (2*group median), ``mad_x4`` (4*group
    MAD) and ``is_outlier`` (2*|2v - med_x2| > k*mad_x4) to every row.
    ``value_col`` must be integer (pre-scale floats to cents);
    ``k`` is an integer multiplier.  A constant group has mad_x4 = 0,
    so any deviation flags — SQL-identical semantics."""
    import pandas as pd

    from .aggregate import bucketed_group_transform

    keys = list(keys)

    def flag(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(keys + [value_col], kind="mergesort") \
             .reset_index(drop=True)
        gb = g.groupby(keys, sort=False, dropna=False)
        pos = gb.cumcount().to_numpy()
        gid = np.cumsum(pos == 0) - 1
        counts = np.bincount(gid)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        v = g[value_col].to_numpy().astype(np.int64)
        med2 = _doubled_group_median(v, counts, offsets)
        dev = np.abs(2 * v - med2[gid])
        order = np.lexsort((dev, gid))
        mad4 = _doubled_group_median(dev[order], counts, offsets)
        g["med_x2"] = med2[gid]
        g["mad_x4"] = mad4[gid]
        g["is_outlier"] = (2 * dev > k * mad4[gid]).astype(np.int64)
        return g

    return bucketed_group_transform(ds, keys, flag, n_buckets=n_buckets)


def grouped_mode(ds, keys: Sequence[str], value_col: str,
                 n_buckets: int = 64):
    """Statistical mode per group with a deterministic tie-break (the
    SMALLEST most-frequent value).  Per-batch (key, value) count
    partials collapse rows to distinct pairs before the shuffle; the
    bucketed reduce sums pair counts and picks each key's winner with
    one vectorized sort + drop_duplicates.  Output: keys +
    ``mode_<value_col>`` + ``n`` (the winner's count)."""
    import pandas as pd

    from .aggregate import bucketed_group_transform

    keys = list(keys)
    out_col = f"mode_{value_col}"

    def pre(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t.select(keys + [value_col]),
                               keys + [value_col]) \
            .aggregate([([], "count_all")]) \
            .rename_columns(keys + [value_col, "n"])

    partial = ds.map_batches(pre, batch_format="pyarrow")

    def pick(g: "pd.DataFrame") -> "pd.DataFrame":
        tot = g.groupby(keys + [value_col], sort=False, dropna=False,
                        as_index=False)["n"].sum()
        tot = tot.sort_values(keys + ["n", value_col], kind="mergesort",
                              ascending=[True] * len(keys)
                              + [False, True])
        win = tot.drop_duplicates(subset=keys, keep="first")
        win = win.rename(columns={value_col: out_col})
        return win[keys + [out_col, "n"]].reset_index(drop=True)

    return bucketed_group_transform(partial, keys, pick,
                                    n_buckets=n_buckets)


def grouped_diversity(ds, keys: Sequence[str], value_col: str,
                      n_buckets: int = 64):
    """Categorical diversity per group: ``n`` (rows), ``k_distinct``
    (distinct values), ``entropy`` (Shannon, nats: ln n - sum(c*ln c)/n) and
    ``gini`` (impurity: 1 - sum((c/n)^2)) of the ``value_col``
    distribution.  The audit metric for label balance / source mixing
    in training-data pipelines.

    Same scale shape as `grouped_mode`: per-batch (key, value) count
    partials collapse rows to distinct pairs before the ONE bucketed
    shuffle; the reduce is two vectorized groupby sums (counts enter
    the float kernels as exact int64 totals, so the result is
    deterministic to float rounding regardless of partitioning).
    """
    import pandas as pd

    from .aggregate import bucketed_group_transform

    keys = list(keys)

    def pre(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t.select(keys + [value_col]),
                               keys + [value_col]) \
            .aggregate([([], "count_all")]) \
            .rename_columns(keys + [value_col, "c"])

    partial = ds.map_batches(pre, batch_format="pyarrow")

    def reduce(g: "pd.DataFrame") -> "pd.DataFrame":
        tot = g.groupby(keys + [value_col], sort=False, dropna=False,
                        as_index=False)["c"].sum()
        c = tot["c"].to_numpy().astype(np.float64)
        tot["clnc"] = c * np.log(c)
        tot["c2"] = c * c
        out = tot.groupby(keys, sort=False, as_index=False).agg(
            n=("c", "sum"), k_distinct=("c", "size"),
            clnc=("clnc", "sum"), c2=("c2", "sum"))
        n = out["n"].to_numpy().astype(np.float64)
        out["entropy"] = np.log(n) - out["clnc"].to_numpy() / n
        out["gini"] = 1.0 - out["c2"].to_numpy() / (n * n)
        out["n"] = out["n"].astype(np.int64)
        out["k_distinct"] = out["k_distinct"].astype(np.int64)
        return out[keys + ["n", "k_distinct", "entropy", "gini"]]

    return bucketed_group_transform(partial, keys, reduce,
                                    n_buckets=n_buckets)


def grouped_pearson(ds, key_cols, x_col: str, y_col: str,
                    n_buckets: int = 64):
    """Grouped Pearson correlation via EXACT integer moment partials —
    the canonical one-pass distributed statistic: each batch reduces to
    per-key (n, Σx, Σy, Σxy, Σx², Σy²) int64 rows (six numbers per key
    per batch — kilobytes), one bucketed combine sums them, and the
    closing float64 expression

        r = (n·Σxy − Σx·Σy) / (sqrt(n·Σx² − Σx·Σx) · sqrt(n·Σy² − Σy·Σy))

    runs on exact integers cast to double in a FIXED operation order
    (mirrored by the SQL oracle; sqrt is IEEE-correctly-rounded, so the
    result is bit-stable).  Degenerate groups (zero variance in either
    column) yield typed-null r.  Inputs must be int64; callers scale
    floats to integers first (the cents idiom) — that is what makes
    the moments exact and combine-order-independent."""
    import pandas as pd

    from .aggregate import grouped_agg

    keys = list(key_cols)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({**{k: t.column(k).slice(0, 0) for k in keys},
                             **{c: pa.array([], pa.int64())
                                for c in ("n", "sx", "sy", "sxy",
                                          "sxx", "syy")}})
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({**{k: t.column(k).to_numpy(zero_copy_only=False)
                              for k in keys},
                           "n": 1, "sx": x, "sy": y, "sxy": x * y,
                           "sxx": x * x, "syy": y * y})
        g = df.groupby(keys, sort=False, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                       keys,
                       [("sum", c, c) for c in
                        ("n", "sx", "sy", "sxy", "sxx", "syy")],
                       combine="bucket", n_buckets=n_buckets)

    def close(t: pa.Table) -> pa.Table:
        cols = {c: t.column(c).to_numpy(zero_copy_only=False)
                .astype(np.float64)
                for c in ("n", "sx", "sy", "sxy", "sxx", "syy")}
        num = cols["n"] * cols["sxy"] - cols["sx"] * cols["sy"]
        vx = cols["n"] * cols["sxx"] - cols["sx"] * cols["sx"]
        vy = cols["n"] * cols["syy"] - cols["sy"] * cols["sy"]
        ok = (vx > 0) & (vy > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = num / (np.sqrt(vx) * np.sqrt(vy))
        # float rounding can land an ulp outside [-1, 1]; clamp (the
        # SQL twin is least(greatest(r, -1), 1) — identical semantics)
        r = np.minimum(np.maximum(r, -1.0), 1.0)
        vals = np.where(ok, r, np.nan)
        arr = pa.array([float(v) if o else None
                        for v, o in zip(vals, ok)], pa.float64())
        return t.append_column("r", arr)

    return sums.map_batches(close, batch_format="pyarrow")


def grouped_gini_coefficient(ds, key_cols, value_col: str,
                             n_buckets: int = 64):
    """Grouped Gini COEFFICIENT of a non-negative integer value column
    (inequality/concentration audit — "do 1% of users produce 99% of
    volume?"): the exact sorted-rank identity

        G = (2 · Σ i·x_(i)) / (n · Σ x) − (n + 1) / n

    with x_(i) ascending, i = 1..n.  Σ i·x and Σ x are EXACT int64
    (one lexsort per bucket, vectorized across keys); the close is two
    fixed-order float divisions mirrored by SQL (row_number replay).
    Groups with Σx = 0 yield typed-null.  Distinct from
    grouped_diversity's Gini IMPURITY (categorical); this is the
    Lorenz-curve coefficient over magnitudes."""
    import pandas as pd

    from .aggregate import bucketed_group_transform

    keys = list(key_cols)

    def gini(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [value_col],
                          kind="mergesort").reset_index(drop=True)
        gb = g.groupby(keys, sort=False)
        i = gb.cumcount().to_numpy() + 1
        x = g[value_col].to_numpy(dtype=np.int64)
        if (x < 0).any():
            raise ValueError("gini requires non-negative values")
        df = pd.DataFrame({**{k: g[k] for k in keys},
                           "ix": i * x, "x": x, "one": 1})
        s = df.groupby(keys, sort=False, as_index=False).sum()
        n = s["one"].to_numpy(dtype=np.float64)
        sx = s["x"].to_numpy(dtype=np.float64)
        six = s["ix"].to_numpy(dtype=np.float64)
        ok = sx > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            gval = (2.0 * six) / (n * sx) - (n + 1.0) / n
        out = s[keys].copy()
        out["n"] = s["one"].astype("int64")
        out["total"] = s["x"].astype("int64")
        out["gini"] = pd.array(
            [float(v) if o else None for v, o in zip(gval, ok)],
            dtype="Float64")
        return out

    return bucketed_group_transform(ds, keys, gini, n_buckets=n_buckets)


def grouped_weighted_quantile(ds, key_cols, value_col: str,
                              weight_col: str, qs,
                              n_buckets: int = 64):
    """Weighted quantiles per key, EXACT (inverse-CDF definition, no
    interpolation): the q-quantile is the smallest value whose
    cumulative weight reaches q of the total — selected by the integer
    cross-multiplication ``cumw * q_den >= q_num * total`` (q given as
    a (num, den) pair or a float reduced to the nearest fraction with
    denominator <= 10^6, so 0.9 means 9/10), so no float ever touches
    the selection; a group whose ``q_den * total`` would not fit int64
    raises ValueError instead of wrapping.  The weighted median of a
    corpus by token count, the size-weighted latency percentile — the
    shapes plain quantiles get wrong.  Weights must be positive int64.
    ONE bucketed co-partition; cumulative sums vectorized across keys."""
    from fractions import Fraction

    import pandas as pd

    from .aggregate import bucketed_group_transform

    keys = list(key_cols)
    q_pairs = []
    for q in qs:
        if isinstance(q, tuple):
            num, den = q
        else:
            # as_integer_ratio would give denominators up to 2^53, so
            # cumw * den wraps int64 past ~1k of total weight
            f = Fraction(float(q)).limit_denominator(10**6)
            num, den = f.numerator, f.denominator
        if not (0 < num <= den):
            raise ValueError(f"quantile must be in (0, 1]: {q}")
        q_pairs.append((int(num), int(den), float(num) / float(den)))
    max_den = max((den for _, den, _ in q_pairs), default=1)

    def wq(g: pd.DataFrame) -> pd.DataFrame:
        w = g[weight_col].astype("int64")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
        g = g.sort_values(keys + [value_col],
                          kind="mergesort").reset_index(drop=True)
        gk = [g[k] for k in keys]
        cumw = g[weight_col].astype("int64").groupby(gk,
                                                     sort=False).cumsum()
        tot = g[weight_col].astype("int64").groupby(gk, sort=False) \
            .transform("sum")
        if int(tot.max()) * max_den > np.iinfo(np.int64).max:
            raise ValueError(
                f"quantile denominator {max_den} x group weight "
                f"{int(tot.max())} overflows int64; pass a coarser q")
        outs = []
        for num, den, qf in q_pairs:
            # smallest row with cumw*den >= num*tot: rows after it have
            # prev_cumw*den >= num*tot too
            prev = cumw - g[weight_col].astype("int64")
            hit = (cumw * den >= num * tot) & (prev * den < num * tot)
            r = g.loc[hit, keys + [value_col]].copy()
            r = r.rename(columns={value_col: "value"})
            r["q"] = qf
            outs.append(r)
        return pd.concat(outs, ignore_index=True) \
            .sort_values(keys + ["q"], kind="mergesort") \
            .reset_index(drop=True)

    return bucketed_group_transform(ds, keys, wq, n_buckets=n_buckets)
