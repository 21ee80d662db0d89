import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
    grouped_mode,
    mad_outliers,
)


def _tbl(ks, vs):
    return pa.table({"k": pa.array(ks, pa.int64()),
                     "id": pa.array(range(len(ks)), pa.int64()),
                     "v": pa.array(vs, pa.int64())})


def _run_mad(ks, vs, k=3):
    out = mad_outliers(rd.from_arrow(_tbl(ks, vs)), ["k"], "v", k=k,
                       n_buckets=4)
    rows = sorted(out.take_all(), key=lambda r: r["id"])
    return rows


def test_mad_odd_group_exact():
    # group: [1, 2, 100] -> med 2, devs [1, 0, 98], MAD 1
    rows = _run_mad([7, 7, 7], [1, 2, 100])
    assert [r["med_x2"] for r in rows] == [4, 4, 4]
    assert [r["mad_x4"] for r in rows] == [4, 4, 4]  # 4*MAD(=1)
    # outlier iff |v-2| > 3*1 -> only 100
    assert [r["is_outlier"] for r in rows] == [0, 0, 1]


def test_mad_even_group_half_median_exact():
    # [1, 2, 3, 10]: med 2.5 -> med_x2 5; devs |2v-5|/2 = 1.5,.5,.5,7.5
    # doubled devs: 3,1,1,15 -> sorted 1,1,3,15 -> mad4 = 1+3 = 4 (MAD 1)
    rows = _run_mad([1, 1, 1, 1], [1, 2, 3, 10])
    assert rows[0]["med_x2"] == 5
    assert rows[0]["mad_x4"] == 4
    # flag: 2*|2v-5| > 3*4 -> dev>1.5 : v=1 (3->6 no), v=10 (15->30 yes)
    assert [r["is_outlier"] for r in rows] == [0, 0, 0, 1]


def test_constant_group_flags_any_deviation():
    rows = _run_mad([1, 1, 1, 1], [5, 5, 5, 9])
    assert rows[0]["mad_x4"] == 0
    assert [r["is_outlier"] for r in rows] == [0, 0, 0, 1]
    rows2 = _run_mad([2, 2], [5, 5])
    assert [r["is_outlier"] for r in rows2] == [0, 0]


def test_groups_isolated_and_match_slow_reference():
    rng = np.random.default_rng(5)
    ks = rng.integers(0, 9, 500).tolist()
    vs = rng.integers(-1000, 1000, 500).tolist()
    rows = _run_mad(ks, vs, k=2)
    for key in set(ks):
        grp = sorted(v for kk, v in zip(ks, vs) if kk == key)
        n = len(grp)
        med2 = grp[(n - 1) // 2] + grp[n // 2]
        devs = sorted(abs(2 * v - med2) for v in grp)
        mad4 = devs[(n - 1) // 2] + devs[n // 2]
        for r in rows:
            if r["k"] == key:
                assert r["med_x2"] == med2 and r["mad_x4"] == mad4
                assert r["is_outlier"] == int(
                    2 * abs(2 * r["v"] - med2) > 2 * mad4)


def test_grouped_mode_tiebreak_min_value():
    tbl = _tbl([1, 1, 1, 1, 2, 2], [5, 5, 3, 3, 9, 8])
    out = grouped_mode(rd.from_arrow(tbl), ["k"], "v", n_buckets=4)
    got = {r["k"]: (r["mode_v"], r["n"]) for r in out.take_all()}
    # k=1: 3 and 5 tie at 2 -> min value 3; k=2: 8 and 9 tie -> 8
    assert got == {1: (3, 2), 2: (8, 1)}


def test_grouped_mode_across_blocks():
    ks = [1] * 30 + [2] * 30
    vs = [7] * 10 + [8] * 20 + [1] * 16 + [2] * 14
    tbl = _tbl(ks, vs)
    ds = rd.from_arrow([tbl.slice(i * 12, 12) for i in range(5)])
    out = grouped_mode(ds, ["k"], "v", n_buckets=4)
    got = {r["k"]: (r["mode_v"], r["n"]) for r in out.take_all()}
    assert got == {1: (8, 20), 2: (1, 16)}


def test_grouped_diversity_exact_small():
    import math
    from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
        grouped_diversity,
    )
    # k=1: [a,a,b,b] -> H = ln2, gini = .5 ; k=2: [x] -> H=0, gini=0
    tbl = pa.table({"k": pa.array([1, 1, 1, 1, 2], pa.int64()),
                    "v": pa.array(["a", "a", "b", "b", "x"],
                                  pa.string())})
    ds = rd.from_arrow([tbl.slice(0, 2), tbl.slice(2, 3)])
    out = grouped_diversity(ds, ["k"], "v", n_buckets=4)
    got = {r["k"]: r for r in out.take_all()}
    assert got[1]["n"] == 4 and got[1]["k_distinct"] == 2
    assert abs(got[1]["entropy"] - math.log(2)) < 1e-12
    assert abs(got[1]["gini"] - 0.5) < 1e-12
    assert got[2]["n"] == 1 and got[2]["k_distinct"] == 1
    assert got[2]["entropy"] == 0.0 and got[2]["gini"] == 0.0


def test_grouped_diversity_partials_merge_across_blocks():
    import math
    from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
        grouped_diversity,
    )
    # same value split across blocks must count as ONE distinct value
    tbl = pa.table({"k": pa.array([1] * 6, pa.int64()),
                    "v": pa.array(["a", "a", "a", "a", "a", "b"],
                                  pa.string())})
    ds = rd.from_arrow([tbl.slice(i, 1) for i in range(6)])
    out = grouped_diversity(ds, ["k"], "v", n_buckets=2)
    r = out.take_all()[0]
    assert r["k_distinct"] == 2 and r["n"] == 6
    exp_h = math.log(6) - (5 * math.log(5)) / 6
    assert abs(r["entropy"] - exp_h) < 1e-12
    assert abs(r["gini"] - (1 - (25 + 1) / 36)) < 1e-12


def test_grouped_pearson_exact_and_degenerate():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
        grouped_pearson,
    )

    # key a: perfectly correlated; key b: anti; key c: zero variance
    t = pa.table({
        "k": pa.array(["a"] * 3 + ["b"] * 3 + ["c"] * 2, pa.string()),
        "x": pa.array([1, 2, 3, 1, 2, 3, 5, 5], pa.int64()),
        "y": pa.array([10, 20, 30, 9, 6, 3, 1, 2], pa.int64()),
    })
    out = {r["k"]: r["r"] for r in grouped_pearson(
        rd.from_arrow(t), ["k"], "x", "y").take_all()}
    assert out["a"] == 1.0
    assert out["b"] == -1.0
    assert out["c"] is None
    # parity with np.corrcoef on a noisy group
    rng = np.random.RandomState(3)
    x = rng.randint(0, 1000, 200)
    y = x * 3 + rng.randint(0, 500, 200)
    t2 = pa.table({"k": pa.array(["z"] * 200), "x": pa.array(x, pa.int64()),
                   "y": pa.array(y, pa.int64())})
    got = grouped_pearson(rd.from_arrow(t2), ["k"], "x", "y") \
        .take_all()[0]["r"]
    assert abs(got - np.corrcoef(x, y)[0, 1]) < 1e-12


def test_grouped_gini_coefficient():
    import pyarrow as pa
    import ray.data as rd

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
        grouped_gini_coefficient,
    )

    t = pa.table({
        "k": pa.array(["eq"] * 4 + ["conc"] * 4 + ["zero"] * 2,
                      pa.string()),
        "v": pa.array([5, 5, 5, 5, 0, 0, 0, 100, 0, 0], pa.int64()),
    })
    out = {r["k"]: r for r in grouped_gini_coefficient(
        rd.from_arrow(t), ["k"], "v").take_all()}
    assert out["eq"]["gini"] == 0.0                      # perfect equality
    assert out["conc"]["gini"] == 0.75                   # (n-1)/n
    assert out["zero"]["gini"] is None                   # undefined
    assert out["conc"]["total"] == 100 and out["conc"]["n"] == 4


def test_grouped_weighted_quantile_exact():
    import pyarrow as pa
    import ray.data as rd

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
        grouped_weighted_quantile,
    )

    # key a: values 1,2,3 weights 1,1,98 -> p50 = 3 (cum 1,2,100);
    # p01 = 1; key b: equal weights -> p50 = 2nd of [5,6,7] = 6
    t = pa.table({
        "k": pa.array(["a"] * 3 + ["b"] * 3, pa.string()),
        "v": pa.array([1, 2, 3, 5, 6, 7], pa.int64()),
        "w": pa.array([1, 1, 98, 1, 1, 1], pa.int64()),
    })
    # note (1, 100) not 0.01: the float 0.01 is exactly
    # 0.010000000000000000208.. > 1/100, and the selection is faithful
    # to the given rational — pass exact tuples at boundaries
    out = {(r["k"], r["q"]): r["value"] for r in grouped_weighted_quantile(
        rd.from_arrow(t), ["k"], "v", "w",
        [(1, 100), 0.5, 1.0]).take_all()}
    assert out[("a", 0.01)] == 1
    assert out[("a", 0.5)] == 3
    assert out[("a", 1.0)] == 3
    assert out[("b", 0.5)] == 6
    assert out[("b", 1.0)] == 7
    # boundary exactness: q = 1/3 with total weight 3 -> first value
    out2 = {r["q"]: r["value"] for r in grouped_weighted_quantile(
        rd.from_arrow(t.filter(pa.compute.equal(t.column("k"), "b"))),
        ["k"], "v", "w", [(1, 3)]).take_all()}
    assert out2[1 / 3] == 5
    # a float q over a heavy group: total weight 10,000 wrapped int64
    # when 0.9 became a 2^53-denominator ratio; it must select exactly
    # as the rational (9, 10) does (cum weight 9,000 -> value 89)
    heavy = rd.from_arrow(pa.table({
        "k": pa.array(["c"] * 100, pa.string()),
        "v": pa.array(range(100), pa.int64()),
        "w": pa.array([100] * 100, pa.int64()),
    }))
    [as_float] = grouped_weighted_quantile(heavy, ["k"], "v", "w",
                                           [0.9], n_buckets=4).take_all()
    [as_tuple] = grouped_weighted_quantile(heavy, ["k"], "v", "w",
                                           [(9, 10)], n_buckets=4).take_all()
    assert as_float == as_tuple
    assert as_float["value"] == 89
    # a denominator that cannot fit den * total in int64 raises, not wraps
    with pytest.raises(ValueError, match="overflows int64"):
        grouped_weighted_quantile(heavy, ["k"], "v", "w", [(1, 2**62)],
                                  n_buckets=4).take_all()


def test_grouped_weighted_quantile_validation():
    import pytest

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.robust import (
        grouped_weighted_quantile,
    )

    with pytest.raises(ValueError, match="quantile"):
        grouped_weighted_quantile(None, ["k"], "v", "w", [0.0])
