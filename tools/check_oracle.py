"""Side-by-side correctness harness: run every queries() entry and its
oracle SQL at a given sf, compare row-count / schema / sorted values.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if isinstance(df[c].dtype, pd.DatetimeTZDtype):
            df[c] = df[c].dt.tz_localize(None)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = fn(sf_dir)
            if hasattr(got, "to_pandas"):
                got = got.to_pandas()
            got = pd.DataFrame(got)
        except Exception as ex:
            failures.append(name)
            print(f"FAIL {name}: ray error: {ex!r}")
            continue
        if name not in oracles:
            print(f"ok?  {name}: rows={len(got)} (no oracle; rows-only)")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as ex:
            failures.append(name)
            print(f"FAIL {name}: oracle error: {ex!r}")
            continue
        g, x = normalize(got), normalize(exp)
        if list(g.columns) != list(x.columns):
            failures.append(name)
            print(f"FAIL {name}: columns {list(g.columns)} vs {list(x.columns)}")
            continue
        if len(g) != len(x):
            failures.append(name)
            print(f"FAIL {name}: rows {len(g)} vs {len(x)}")
            continue
        # the driver hashes raw values after a column sort: an int64 Ray column vs a
        # float64 oracle column (e.g. DuckDB sum(BIGINT) -> HUGEINT -> float64) hash-
        # mismatches even when values are numerically equal.  Flag kind mismatches.
        kind_bad = [c for c in g.columns if g[c].dtype.kind != x[c].dtype.kind]
        if kind_bad:
            failures.append(name)
            print(f"FAIL {name}: dtype-kind mismatch (driver hash risk): "
                  f"{[(c, str(g[c].dtype), str(x[c].dtype)) for c in kind_bad]}")
            continue
        try:
            pd.testing.assert_frame_equal(g, x, check_dtype=False, check_exact=False,
                                          rtol=1e-6, atol=1e-9)
            print(f"PASS {name}: rows={len(g)}")
        except AssertionError as ex:
            failures.append(name)
            print(f"FAIL {name}: values differ: {str(ex)[:300]}")
    print(f"\n{len(qs) - len(failures)}/{len(qs)} pass")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
