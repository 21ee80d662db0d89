"""Driver-hash safety audit: every oracle query's FLOAT columns must be
BITWISE identical to DuckDB's (the driver hashes raw values after a
column sort; check_oracle's rtol=1e-6 compare would hide a drift that
the driver flags).  Run after adding any query with float output.

Usage: python tools/check_bitwise.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def main() -> int:
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

    bad = checked = 0
    for name, fn in qs.items():
        if name not in oracles or (only and name not in only):
            continue
        checked += 1
        got = fn(sf_dir)
        got = got.to_pandas() if hasattr(got, "to_pandas") else pd.DataFrame(got)
        exp = con.sql(oracles[name]).df()
        g = got.reindex(sorted(got.columns), axis=1)
        x = exp.reindex(sorted(exp.columns), axis=1)
        g = g.sort_values(list(g.columns), kind="stable").reset_index(drop=True)
        x = x.sort_values(list(x.columns), kind="stable").reset_index(drop=True)
        for c in g.columns:
            if not (pd.api.types.is_float_dtype(g[c])
                    and c in x.columns and pd.api.types.is_float_dtype(x[c])):
                continue
            a = g[c].to_numpy(np.float64)
            b = x[c].to_numpy(np.float64)
            if len(a) != len(b):
                print(f"FAIL {name}.{c}: row count {len(a)} vs {len(b)}")
                bad += 1
                continue
            same = (a.view(np.uint64) == b.view(np.uint64)) | \
                (np.isnan(a) & np.isnan(b))
            if not same.all():
                i = int(np.nonzero(~same)[0][0])
                print(f"FAIL {name}.{c}: {a[i]!r} vs {b[i]!r} "
                      f"diff={abs(a[i] - b[i])}")
                bad += 1
    print(f"\n{checked} oracle queries float-bitwise-checked; issues: {bad}")
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
