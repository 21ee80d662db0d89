"""Named query/pipeline catalog + matching DuckDB oracle SQL.

Each entry is one operator/pipeline from SURVEY.md §2 exercised
end-to-end on real tables: the Ray Data implementation and (where
SQL-expressible) an ANSI-SQL equivalent the driver runs side-by-side
at sf=0.01.  Column names are identical on both sides by construction.

Transcript queries read the deterministic synthesized corpus (cached
parquet under /tmp/graft_transcripts/<sf>/ — same files for Ray and
DuckDB, so text equality is bit-exact).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.transcripts import TOOL_CATALOG, ensure_transcripts, read_transcripts
from ..stages.aggregate import (
    dedup_exact,
    delta_to_cumulative,
    grouped_agg,
    grouped_count,
    grouped_sum,
    histogram_agg,
    recombine,
)
from ..stages.enrich import LookupEnricher
from ..stages.parse import JsonParser, SeverityParser, make_tool_log_parser
from ..stages.route import Route, RouteIdStage
from ..stages.sample import ProbabilisticSampler
from ..stages.transform import FilterStage, KeepStage, TransformStage

# ---------------------------------------------------------------- helpers

TOOL_LINE_SQL_PAT = r"^(\S+) ([A-Z]+) tool=(\w+) status=(\w+) latency_ms=(\d+) msg=(.*)$"
_T = "read_parquet('/tmp/graft_transcripts/sf0.01/*.parquet')"  # oracle runs at sf0.01

# first-match-wins routing table (FIXTURES.md F3) with its SQL mirrors
_ERR_SQL = f"(role = 'tool' AND regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 4) = 'error')"
_SLOW_SQL = (f"(role = 'tool' AND try_cast(nullif(regexp_extract(text, "
             f"'{TOOL_LINE_SQL_PAT}', 5), '') AS BIGINT) > 500)")
_TIMEOUT_SQL = "regexp_matches(text, '(?i)timeout')"
ROUTE_SQL_CASE = (
    f"CASE WHEN {_ERR_SQL} THEN 'errors' "
    f"WHEN {_SLOW_SQL} THEN 'slow' "
    f"WHEN {_TIMEOUT_SQL} THEN 'timeouts' ELSE 'default' END"
)

ROUTES = [
    Route("errors", 'attributes["status"] == "error"'),
    Route("slow", 'role == "tool" and attributes["latency_ms"] > 500'),
    Route("timeouts", 'IsMatch(text, "(?i)timeout")'),
]


def _strip_meta(t: pa.Table) -> pa.Table:
    # the driver's testdata parquet carries pandas schema metadata, which
    # makes pa.Schema unhashable in this pyarrow build — every Ray reduce
    # task then logs "Failed to hash the schemas" and skips the early-exit
    # schema dedup.  Dropping it is zero-copy and fuses with the read.
    return t.replace_schema_metadata(None)


@functools.lru_cache(maxsize=256)
def _clean_schema(path: str, columns: tuple | None):
    """Metadata-free (hashable) arrow schema for a testdata parquet —
    passed to read_parquet so the READ operator's own blocks already
    carry hashable schemas (the _strip_meta stage only covers operators
    downstream of it; without this, every ReadParquet bundle logs
    'Failed to hash the schemas' and skips Ray's schema dedup)."""
    import pyarrow.parquet as pq

    sch = pq.read_schema(path).remove_metadata()
    if columns is None:
        return sch
    return pa.schema([sch.field(c) for c in columns])


def _rd(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    path = os.path.join(sf_dir, f"{table}.parquet")
    sch = _clean_schema(path, tuple(columns) if columns else None)
    ds = rd.read_parquet(path, columns=columns, schema=sch)
    return ds.map_batches(_strip_meta, batch_format="pyarrow")


def _read_small(sf_dir: str, table: str, columns=None) -> pd.DataFrame:
    """Driver-side read of a BOUNDED dimension table (region/nation/
    supplier/part): these collapse into broadcast lookups anyway, so
    skip the per-Dataset streaming-executor fixed cost (~0.3-0.7 s per
    materialize on this host) and read the parquet directly."""
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                         columns=columns).to_pandas()


def _hist_thresholds(ds, col: str, ranks, return_total: bool = False):
    """Exact order-statistic thresholds from a VALUE histogram (distinct
    values shuffle, never rows): thresholds[i] = smallest value whose
    cumulative count >= ranks[i](total).  `ranks` maps total -> rank
    (e.g. lambda t: (t + 3) // 4 = ceil(t/4) = percentile_disc .25).
    NULL values are excluded (SQL aggregate/ordering semantics).
    return_total=True returns (thresholds, non-null row count) — the
    total falls out of the same histogram, no extra pass — with
    thresholds=[None,...] on an empty input instead of raising."""
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t.column(col))),
        batch_format="pyarrow")
    hist = grouped_count(ds, [col], alias="n", combine="driver").to_pandas()
    # Ray's to_pandas() on a 0-row dataset drops the schema entirely
    total = 0 if hist.empty else int(hist["n"].sum())
    if total == 0:
        if return_total:
            return [None] * len(ranks), 0
        raise ValueError(f"no non-null values in {col!r}")
    hist = hist.sort_values(col).reset_index(drop=True)
    cum = hist["n"].cumsum()
    thr = [int(hist.loc[cum >= r(total), col].iloc[0]) for r in ranks]
    return (thr, total) if return_total else thr


def _embedding_queries(sf_dir: str, n: int = 3):
    """Shared loader for the similarity queries: the first n vectors as
    the query matrix + the full embedding Dataset (metadata stripped)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qtbl = pq.read_table(emb_path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", n)])
    queries = np.asarray(qtbl.column("embedding").to_pylist(),
                         dtype=np.float64)
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"]) \
           .map_batches(_strip_meta, batch_format="pyarrow")
    return queries, ds


def _parsed(sf_dir: str):
    ds = read_transcripts(sf_dir)
    return ds.map_batches(make_tool_log_parser(), batch_format="pyarrow")


def _routed(sf_dir: str):
    ds = _parsed(sf_dir)
    return ds.map_batches(RouteIdStage(ROUTES, default="default"), batch_format="pyarrow")


# ---------------------------------------------------------------- queries


def q_parse_tool_logs(sf_dir: str):
    """Regex/grok parse of tool log lines -> typed attribute columns
    (stanza regex_parser, parser/regex/parser.go:30-62)."""
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": t.column("turn_idx"),
            "level": t.column("attr_level"),
            "status": t.column("attr_status"),
            "latency_ms": t.column("attr_latency_ms"),
            "msg": t.column("attr_msg"),
        })

    return ds.map_batches(project, batch_format="pyarrow")


def q_parse_failures(sf_dir: str):
    """on_error=send path: malformed rows kept + flagged (lineage metric)
    (stanza helper/parser.go:101-126)."""
    ds = _parsed(sf_dir)
    return grouped_count(
        ds, ["role"], conditions=["parse_failure == true"], alias="n_failures")


def q_route_counts(sf_dir: str):
    """routingconnector match_once first-match-wins route sizes
    (connector/routingconnector/logs.go:63-117)."""
    return grouped_count(_routed(sf_dir), ["route_id"], alias="n")


def q_routed_rows_errors(sf_dir: str):
    """Routed-row equality, 'errors' sink (MOVE semantics)."""
    ds = _routed(sf_dir)
    ds = ds.map_batches(KeepStage('route_id == "errors"'), batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["conv_id", "turn_idx", "text"]),
                          batch_format="pyarrow")


def q_routed_rows_timeouts(sf_dir: str):
    """Routed-row equality, 'timeouts' sink — rows NOT taken by the two
    higher-priority routes (order-of-evaluation is observable)."""
    ds = _routed(sf_dir)
    ds = ds.map_batches(KeepStage('route_id == "timeouts"'), batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["conv_id", "turn_idx", "text"]),
                          batch_format="pyarrow")


def q_count_by_role(sf_dir: str):
    """countconnector grouped counts (counter.go:38-128)."""
    return grouped_count(read_transcripts(sf_dir), ["role"], alias="n")


def q_sum_latency_by_tool(sf_dir: str):
    """sumconnector: sum of a numeric source attribute per group
    (connector/sumconnector/config.go:19-30)."""
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('not (parse_failure == true) and role == "tool"'),
                        batch_format="pyarrow")
    return grouped_sum(ds, ["attr_tool_name"], "attr_latency_ms", alias="total_latency_ms") \
        .map_batches(lambda t: t.rename_columns(["tool_name", "total_latency_ms"]),
                     batch_format="pyarrow")


def q_dedup_turns(sf_dir: str):
    """logdedup: identical (conv_id, role, text) -> representative +
    log_count + first/last observed ts (logdedupprocessor/counter.go:63-130).

    DEFAULT path is the locality-aware file-granular dedup: the corpus is
    written group-contiguously, so interior conversations aggregate in
    place and only file-edge rows shuffle.  dedup_exact (the full
    hash-partition path for non-contiguous inputs) stays available and
    is exercised by doc_exact_dups + unit tests."""
    from ..sources.transcripts import transcript_files
    from ..stages.aggregate import dedup_exact_sorted

    return dedup_exact_sorted(transcript_files(sf_dir),
                              ["conv_id", "role", "text"])


def q_dedup_turns_windowed(sf_dir: str):
    """logdedup with the reference's INTERVAL semantics: duplicates
    aggregate only within a 1-hour window (processor.go:60-67's flush
    timer — the batch translation adds the truncated-ts window to the
    dedup key, so each window emits its own representative).  Exercises
    dedup_exact with a derived window key column."""
    from ..stages.aggregate import dedup_exact

    ds = read_transcripts(sf_dir)

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t.column("ts"), unit="hour")
        return t.append_column("window_ts", w)

    return dedup_exact(ds.map_batches(add_window, batch_format="pyarrow"),
                       ["window_ts", "conv_id", "role", "text"])


def q_dedup_turns_sorted(sf_dir: str):
    """The general hash-partition dedup (dedup_exact, bucketed combine) —
    the fallback when the input is NOT group-contiguous; kept
    oracle-checked so both paths stay verified against the same SQL."""
    return dedup_exact(read_transcripts(sf_dir), ["conv_id", "role", "text"])


def q_recombine_conversations(sf_dir: str):
    """recombine: stitch turns per conversation in stable turn_idx order
    (stanza recombine/transformer.go:97-151)."""
    return recombine(read_transcripts(sf_dir), sep="\n")


def q_sample_10pct(sf_dir: str):
    """probabilistic sampler: deterministic hash verdict per conv_id
    (probabilisticsamplerprocessor/logsprocessor.go:122-141)."""
    ds = read_transcripts(sf_dir)
    ds = ds.map_batches(ProbabilisticSampler(10.0, "conv_id"), batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["conv_id", "turn_idx"]),
                          batch_format="pyarrow")


def q_severity_counts(sf_dir: str):
    """severity parser: text -> 24-level enum, counted
    (converter.go:166-220 mapping)."""
    ds = _parsed(sf_dir)
    ds = ds.map_batches(SeverityParser(parse_from="attr_level"), batch_format="pyarrow")
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    return grouped_count(ds, ["severity_number"], alias="n")


_HTTP_CODES = [200, 201, 204, 301, 404, 500, 503]


def q_severity_range_counts(sf_dir: str):
    """severity parser RANGE mappings (severity_builder.go:94-103 HTTP
    aliases + :187-196 expandRange): derive an HTTP-status-like int per
    event, map 2xx/3xx/4xx/5xx classes to info/warn/error/fatal through
    the expanded-range lookup table, count per severity."""
    ds = _rd(sf_dir, "events", columns=["event_id"])
    codes = np.array(_HTTP_CODES, dtype=np.int64)

    def add_status(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        status = codes[eid % len(_HTTP_CODES)]
        return t.append_column("status", pa.array(status, pa.int64()))

    sp = SeverityParser(parse_from="status", preset="none",
                        mapping={"info": ["2xx"], "warn": ["3xx"],
                                 "error": ["4xx"], "fatal": ["5xx"]})
    ds = ds.map_batches(add_status, batch_format="pyarrow") \
           .map_batches(sp, batch_format="pyarrow")
    return grouped_count(ds, ["severity_number", "severity_text"],
                         alias="n").sort("severity_number")


def q_text_len_by_role(sf_dir: str):
    """transformprocessor OTTL statement (set + Len) feeding an aggregate."""
    ds = read_transcripts(sf_dir)
    ds = ds.map_batches(TransformStage(['set(attributes["text_len"], Len(text))']),
                        batch_format="pyarrow")
    return grouped_sum(ds, ["role"], "attr_text_len", alias="total_chars")


def q_tool_category_counts(sf_dir: str):
    """lookup enrich (k8sattributes-style broadcast dict) + count."""
    ds = read_transcripts(sf_dir)
    # small catalog -> stateless tasks (instance pickles once); reserve the
    # actor-pool form (class + concurrency) for heavyweight lookup assets
    ds = ds.map_batches(
        LookupEnricher(TOOL_CATALOG, key_col="tool",
                       defaults={"tool_category": "other"}),
        batch_format="pyarrow",
    )
    return grouped_count(ds, ["attr_tool_category"], alias="n").map_batches(
        lambda t: t.rename_columns(["tool_category", "n"]), batch_format="pyarrow")


def q_latency_histogram(sf_dir: str):
    """spanmetrics explicit-bucket histogram of tool latencies
    (spanmetricsconnector/connector.go:305-335)."""
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    return histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                         [100, 500, 1000, 5000], alias="n").map_batches(
        lambda t: t.rename_columns(["tool_name", "le", "n"]), batch_format="pyarrow")


def q_latency_histogram_quantile(sf_dir: str):
    """PromQL histogram_quantile over the spanmetrics explicit-bucket
    latency histogram (stages/metrics.py histogram_quantile,
    prometheus promql/quantile.go bucketQuantile): p50/p90/p99 per
    tool, densified against the full bound list so the interpolation
    is bucket-for-bucket PromQL.  The oracle replays the histogram AND
    the exact selection + interpolation expression (same float64
    operation order) with SQL window functions."""
    from ..stages.metrics import histogram_quantile

    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    edges = [100, 500, 1000, 5000]
    hist = histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                         edges, alias="n").map_batches(
        lambda t: t.rename_columns(["tool_name", "le", "n"]),
        batch_format="pyarrow")
    out = histogram_quantile(hist, [0.5, 0.9, 0.99], ["tool_name"],
                              edges=edges)

    # DuckDB may FMA-fuse the interpolation multiply-add, drifting
    # ~1 ulp from numpy; tie-safe floor-rounding makes the hash stable
    return _floor_round(out, [("value", 1e9)]).sort(["tool_name", "q"])


def q_counter_rate_by_user(sf_dir: str):
    """Prometheus counter increase()/rate() with RESET detection
    (stages/aggregate.py counter_increase — the deltatocumulative
    reset rule cumulative_to_delta's plain lag-diff deliberately
    omits): a per-user cumulative counter is PLANTED as running
    cents-sum mod 1e6 (mod forces genuine resets), then per (user,
    1-day window) the reset-aware increase, observation span and rate
    are reduced.  Everything integer-exact except rate, whose float64
    expression order the oracle mirrors."""
    from ..stages.aggregate import bucketed_group_transform, counter_increase

    ds = _rd(sf_dir, "events",
             columns=["user_id", "ts", "event_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                    pa.int64())
        return t.append_column("cents", c)

    def plant(g):
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g["counter"] = g.groupby("user_id", sort=False)["cents"]             .cumsum() % 1_000_000
        return g.drop(columns=["cents", "value"])

    planted = bucketed_group_transform(
        ds.map_batches(cents, batch_format="pyarrow"),
        ["user_id"], plant)
    out = counter_increase(planted, ["user_id"], "counter", ts_col="ts",
                           window_us=86_400_000_000,
                           tie_cols=["event_id"])
    return out.sort(["user_id", "window_start"])


def q_otlpjson_connector_split(sf_dir: str):
    """otlpjsonconnector analog (connector/otlpjsonconnector): log
    bodies embedding OTLP/JSON payloads are classified by the
    reference's verbatim signal regexes (factory.go:18-20) and routed
    per signal; payload ids are re-extracted from the embedded JSON so
    the oracle (a pure CASE over the generating rule) pins BOTH the
    classification and that the payload survives the embed/extract
    roundtrip.  Map-only, zero shuffle before the final small count."""
    from ..sources.otlpjson import classify_otlpjson

    ds = _rd(sf_dir, "events", columns=["event_id"])

    def embed(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        eids = pc.cast(eid, pa.string())
        kind = pc.cast(pc.bit_wise_and(eid, pa.scalar(3, pa.int64())),
                       pa.int64())
        logs = pc.binary_join_element_wise(
            pa.array(['{ "resourceLogs": [{"scopeLogs": [{"logRecords": '
                      '[{"body": {"stringValue": "e'] * t.num_rows),
            eids, pa.array(['"}}]}]}]}'] * t.num_rows), pa.scalar(""))
        mets = pc.binary_join_element_wise(
            pa.array(['{"resourceMetrics": [{"scopeMetrics": [{"metrics": '
                      '[{"name": "m'] * t.num_rows),
            eids, pa.array(['"}]}]}]}'] * t.num_rows), pa.scalar(""))
        trcs = pc.binary_join_element_wise(
            pa.array(['{  "resourceSpans": [{"scopeSpans": [{"spans": '
                      '[{"name": "s'] * t.num_rows),
            eids, pa.array(['"}]}]}]}'] * t.num_rows), pa.scalar(""))
        bad = pc.binary_join_element_wise(
            pa.array(['not an otlp payload '] * t.num_rows), eids,
            pa.scalar(""))
        body = pc.if_else(pc.equal(kind, 0), logs,
               pc.if_else(pc.equal(kind, 1), mets,
               pc.if_else(pc.equal(kind, 2), trcs, bad)))
        return pa.table({"event_id": eid, "text": body})

    ds = classify_otlpjson(ds.map_batches(embed, batch_format="pyarrow"))

    def extract(t: pa.Table) -> pa.Table:
        # recover the embedded id from the payload (proves the body
        # routed to a signal still carries its record intact)
        got = pc.extract_regex(
            pc.cast(t.column("text"), pa.string()),
            r'"(?:body".*stringValue": "e|name": "[ms])(?P<id>\d+)"')
        rid = pc.cast(pc.struct_field(got, "id"), pa.int64())
        return pa.table({"signal": t.column("signal"),
                         "rid": pc.fill_null(rid, 0)})

    return grouped_agg(ds.map_batches(extract, batch_format="pyarrow"),
                       ["signal"],
                       [("count", "rid", "n"), ("sum", "rid", "sum_id")],
                       combine="driver")


def q_incremental_dedup_events(sf_dir: str):
    """Cross-RUN incremental dedup (state/incremental.py
    incremental_dedup over the DbStorage sqlite backend — the stanza
    known-offsets restart pattern generalized to record identity):
    "yesterday's run" = even event_ids seeds the persisted seen-hash
    store, "today's run" = odd event_ids drops every (user_id,
    event_type) key yesterday already emitted.  Row-level oracle: odd
    rows whose key has no even-row occurrence (NOT EXISTS).  The
    filter is map-side searchsorted against one broadcast sorted-hash
    array; only 8-byte distinct-hash partials reach the driver."""
    import os as _os

    from ..state import DbStorage, incremental_dedup

    store_path = f"/tmp/graft_incdedup-{_os.path.basename(_os.path.normpath(sf_dir))}.sqlite"
    if _os.path.exists(store_path):
        _os.remove(store_path)
    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def split(parity):
        def f(t: pa.Table) -> pa.Table:
            m = pc.equal(pc.bit_wise_and(t.column("event_id"),
                                         pa.scalar(1, pa.int64())),
                         pa.scalar(parity, pa.int64()))
            return t.filter(m)
        return f

    with DbStorage(store_path) as st:
        incremental_dedup(ds.map_batches(split(0), batch_format="pyarrow"),
                          st, ["user_id", "event_type"])
        today = incremental_dedup(
            ds.map_batches(split(1), batch_format="pyarrow"),
            st, ["user_id", "event_type"])
    return today.sort("event_id")


def _evolve_fixture(sf_dir: str) -> str:
    """Two-schema-version parquet fixture from the events table: v1
    ("old pipeline") = even event_ids with renamed columns (eid/uid/
    etype), an int32 event id, a dead column and NO cents; v2 = odd
    event_ids in the current layout with cents.  Deterministic, cached
    per sf."""
    import pyarrow.parquet as _pq

    out = f"/tmp/graft_evolve/{os.path.basename(os.path.normpath(sf_dir))}"
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    t = _pq.read_table(os.path.join(sf_dir, "events.parquet"),
                       columns=["event_id", "user_id", "event_type", "value"])
    even = pc.equal(pc.bit_wise_and(t.column("event_id"),
                                    pa.scalar(1, pa.int64())),
                    pa.scalar(0, pa.int64()))
    t1 = t.filter(even)
    t2 = t.filter(pc.invert(even))
    os.makedirs(out + ".tmp", exist_ok=True)
    _pq.write_table(pa.table({
        "eid": pc.cast(t1.column("event_id"), pa.int32()),
        "uid": t1.column("user_id"),
        "etype": t1.column("event_type"),
        "legacy_note": pa.array(["v1"] * t1.num_rows, pa.string()),
    }), os.path.join(out + ".tmp", "v1.parquet"))
    _pq.write_table(pa.table({
        "event_id": t2.column("event_id"),
        "user_id": t2.column("user_id"),
        "event_type": t2.column("event_type"),
        "cents": pc.cast(pc.round(pc.multiply(t2.column("value"), 100.0)),
                         pa.int64()),
    }), os.path.join(out + ".tmp", "v2.parquet"))
    open(os.path.join(out + ".tmp", "_SUCCESS"), "w").close()
    try:
        os.rename(out + ".tmp", out)
    except OSError:
        pass
    return out


def q_schema_evolved_union(sf_dir: str):
    """Schema-evolution reader (sources/evolve.py read_parquet_evolved
    — the reader-side batch form of schemaprocessor): two parquet
    generations (renamed columns, int32->int64 widening, a dead legacy
    column, a field that did not exist yet) normalize onto ONE target
    schema at the read (column pruning pushed into each generation's
    read via the inverse rename map) and union.  Row-level oracle:
    DuckDB reads the same two fixture files and replays the per-group
    SELECT + UNION ALL."""
    from ..sources.evolve import read_parquet_evolved

    d = _evolve_fixture(sf_dir)
    target = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                        ("event_type", pa.string()),
                        ("cents", pa.int64())])
    ds = read_parquet_evolved(
        [(os.path.join(d, "v1.parquet"),
          {"eid": "event_id", "uid": "user_id", "etype": "event_type"}),
         (os.path.join(d, "v2.parquet"), None)], target)
    return ds.sort("event_id")


def q_late_event_depth(sf_dir: str):
    """Late-data / ingest-reordering audit (stages/intervals.py
    out_of_order_depth — the batch form of streaming watermark
    lateness): per user in event_id ARRIVAL order, how far each
    record's event time sits behind the key's running event-time
    high-water mark; this is the statistic that sizes an
    allowed-lateness window.  Int64-exact; row-level oracle via
    running-max window + lag."""
    from ..stages.intervals import out_of_order_depth

    ds = _rd(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def us(t: pa.Table) -> pa.Table:
        i = t.column_names.index("ts")
        return t.set_column(i, "ts", pc.cast(t.column("ts"), pa.int64()))

    out = out_of_order_depth(ds.map_batches(us, batch_format="pyarrow"),
                             ["user_id"], ts_col="ts")
    return out.sort(["user_id", "event_id"])


def q_ohlc_event_bars(sf_dir: str):
    """OHLC downsampling (stages/resample.py ohlc_downsample — the
    Gorilla/M3-style TSDB rollup shape): per (event_type, 1-day
    window), open/close = first/last cents in (ts, event_id) order,
    high/low = max/min, n — a 100 TB raw series compacts to four
    points per key-window with extremes preserved.  Integer-exact;
    oracle = first_value/last_value windows + min/max/count."""
    from ..stages.resample import ohlc_downsample

    ds = _rd(sf_dir, "events",
             columns=["event_type", "event_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "event_id": t.column("event_id"),
            "ts": pc.cast(t.column("ts"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64())})

    out = ohlc_downsample(ds.map_batches(prep, batch_format="pyarrow"),
                          ["event_type"], ts_col="ts", value_col="cents",
                          tie_cols=["event_id"],
                          window_us=86_400_000_000)
    return out.sort(["event_type", "window_start"])


def q_slo_burn_alerts(sf_dir: str):
    """Multiwindow multi-burn-rate SLO alerting (stages/alerting.py
    burn_rate_alerts, the SRE-workbook rule): services = user_id % 4,
    bad = error events, minute buckets, 1h short / 6h long trailing
    windows against a 90% SLO; alert when BOTH windows burn > 2x
    budget.  Window sums are int64-exact via one composite-key
    searchsorted per window (sparse series stays sparse — no dense
    bucket fill); the oracle replays with RANGE windows and the
    identical fixed-order float expressions."""
    from ..stages.alerting import burn_rate_alerts

    ds = _rd(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        svc = pc.bit_wise_and(t.column("user_id"),
                              pa.scalar(3, pa.int64()))
        bad = pc.cast(pc.equal(t.column("event_type"), "error"),
                      pa.int64())
        return pa.table({"svc": svc,
                         "ts": pc.cast(t.column("ts"), pa.int64()),
                         "bad": bad})

    out = burn_rate_alerts(ds.map_batches(prep, batch_format="pyarrow"),
                           ["svc"], slo_target=0.9,
                           short_us=3_600_000_000,
                           long_us=21_600_000_000,
                           bucket_us=60_000_000, burn_threshold=2.0)
    return out.sort(["svc", "bucket"])


def q_seasonal_residual_events(sf_dir: str):
    """Seasonal-naive anomaly baseline (stages/resample.py
    seasonal_residuals): per (event_type, hour) cents-sum vs the same
    hour ONE DAY earlier, residual typed-null when no baseline bucket
    exists.  Int64-exact; row-level oracle via self LEFT JOIN on
    bucket - 24."""
    from ..stages.resample import seasonal_residuals

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "ts": pc.cast(t.column("ts"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64())})

    out = seasonal_residuals(ds.map_batches(prep, batch_format="pyarrow"),
                             ["event_type"], value_col="cents",
                             period_us=86_400_000_000,
                             bucket_us=3_600_000_000)
    return out.sort(["event_type", "bucket"])


def q_twa_event_value(sf_dir: str):
    """Time-weighted average gauge (stages/resample.py
    time_weighted_average): per (event_type, day) the step-function
    integral of cents between consecutive samples divided by the
    covered span — the irregular-sampling-correct mean.  Exact int64
    numerator (cents x microsecond segments), one mirrored float
    division; windows with < 2 samples yield typed-null twa.  Oracle:
    lead() window + conditional sum, row-level."""
    from ..stages.resample import time_weighted_average

    ds = _rd(sf_dir, "events", columns=["event_type", "event_id", "ts",
                                        "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "event_id": t.column("event_id"),
            "ts": pc.cast(t.column("ts"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64())})

    out = time_weighted_average(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type"], value_col="cents", tie_cols=["event_id"],
        window_us=86_400_000_000)
    return out.sort(["event_type", "window_start"])


def q_rolling_weekly_actives(sf_dir: str):
    """Rolling 7-day distinct actives per day (stages/aggregate.py
    rolling_distinct — the WAU shape): each event explodes map-side to
    the 7 window-end days that include it, collapses to distinct
    (day, user) pairs per batch, one bucketed exchange dedups
    globally, a count closes.  Raw rows never shuffle — only distinct
    pairs.  Oracle: day spine x 7-day range join + COUNT(DISTINCT)."""
    from ..stages.aggregate import rolling_distinct

    ds = _rd(sf_dir, "events", columns=["user_id", "ts"])
    return rolling_distinct(ds, "user_id", ts_col="ts",
                            window_buckets=7,
                            bucket_us=86_400_000_000).sort("bucket")


_FS_PARAMS = {"cent_d": (0.9, 0.3), "seg": (0.85, 0.2),
              "bal_b": (0.7, 0.05)}
_FS_THRESHOLD = 1.5


def _fs_weights_sql() -> str:
    from ..stages.linkage import fellegi_sunter_weights

    ws = fellegi_sunter_weights(_FS_PARAMS)
    terms = []
    for f, (wa, wd) in ws.items():
        # STRING-cast the literals: a bare float literal parses as
        # DECIMAL in DuckDB and even CAST(literal AS DOUBLE) routes
        # through the decimal (losing the exact bits for 17-digit
        # values); CAST('<repr>' AS DOUBLE) uses strtod — exact
        terms.append(f"(CASE WHEN a.{f} = b.{f} "
                     f"THEN CAST('{wa!r}' AS DOUBLE) "
                     f"ELSE CAST('{wd!r}' AS DOUBLE) END)")
    return " + ".join(terms)


def q_fs_customer_links(sf_dir: str):
    """Fellegi-Sunter record linkage (stages/linkage.py
    fellegi_sunter_scores, the 1969 decision model): customers split
    into two "sources" by custkey parity, candidate pairs blocked by
    nation (one co-partition, within-block vectorized cross merge),
    scored by the sum of per-field log-likelihood weights (balance
    cent digit, market segment, $1000 balance bucket) with fixed m/u
    parameters; match = score >= threshold.  The weights are computed
    ONCE and embedded as literals in the SQL oracle (single source of
    truth), summed in the same field order — bit-stable floats."""
    import pandas as pd

    from ..stages.aggregate import bucketed_group_transform
    from ..stages.linkage import fellegi_sunter_scores

    ds = _rd(sf_dir, "customer",
             columns=["c_custkey", "c_nationkey",
                      "c_mktsegment", "c_acctbal"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("c_acctbal"),
                                             100.0)), pa.int64())
        bal_b = pc.cast(pc.floor(pc.divide(
            pc.cast(cents, pa.float64()), 100_000.0)), pa.int64())
        return pa.table({
            "custkey": t.column("c_custkey"),
            "nation": t.column("c_nationkey"),
            "cent_d": pa.array(
                np.abs(cents.to_numpy(zero_copy_only=False)) % 10,
                pa.int64()),
            "seg": t.column("c_mktsegment"),
            "bal_b": bal_b})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["custkey"] % 2 == 0]
        b = g[g["custkey"] % 2 == 1]
        m = a.merge(b, on="nation", suffixes=("_a", "_b"))
        return m[["custkey_a", "custkey_b", "cent_d_a", "cent_d_b",
                  "seg_a", "seg_b", "bal_b_a", "bal_b_b"]]

    cand = bucketed_group_transform(
        ds.map_batches(prep, batch_format="pyarrow"), ["nation"], pairs)
    scored = fellegi_sunter_scores(cand, _FS_PARAMS, _FS_THRESHOLD)
    return scored.map_batches(
        lambda t: t.select(["custkey_a", "custkey_b", "score", "match"]),
        batch_format="pyarrow").sort(["custkey_a", "custkey_b"])


def q_value_hour_correlation(sf_dir: str):
    """Grouped Pearson correlation (stages/robust.py grouped_pearson):
    per event_type, r between event cents and hour-of-day — the
    canonical one-pass distributed statistic from exact int64 moment
    partials (n, Σx, Σy, Σxy, Σx², Σy² per key per batch; kilobytes
    shuffle).  The closing float expression is fixed-order with IEEE
    sqrt and a [-1,1] clamp, mirrored exactly by the oracle."""
    from ..stages.robust import grouped_pearson

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        ts = pc.cast(t.column("ts"), pa.int64())
        # hour of day from microseconds
        h = (ts.to_numpy(zero_copy_only=False) // 3_600_000_000) % 24
        return pa.table({
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64()),
            "hour": pa.array(h, pa.int64())})

    out = grouped_pearson(ds.map_batches(prep, batch_format="pyarrow"),
                          ["event_type"], "cents", "hour")
    return out.sort("event_type")


def q_user_spend_gini(sf_dir: str):
    """Lorenz-curve Gini coefficient of per-user total cents within
    each event_type (stages/robust.py grouped_gini_coefficient — the
    concentration audit): exact int64 rank-weighted sums, two
    fixed-order float divisions mirrored by a row_number SQL replay.
    Two stages: per-(type,user) cents totals (one bucketed combine),
    then the grouped Gini over those totals."""
    from ..stages.aggregate import grouped_agg
    from ..stages.robust import grouped_gini_coefficient

    ds = _rd(sf_dir, "events", columns=["event_type", "user_id", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "user_id": t.column("user_id"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64())})

    totals = grouped_agg(ds.map_batches(prep, batch_format="pyarrow"),
                         ["event_type", "user_id"],
                         [("sum", "cents", "cents")], combine="bucket")
    # cents can be negative in theory; the corpus is non-negative —
    # clamp to keep the Gini identity's precondition explicit
    totals = totals.map_batches(
        lambda t: t.set_column(
            t.column_names.index("cents"), "cents",
            pc.max_element_wise(t.column("cents"),
                                pa.scalar(0, pa.int64()))),
        batch_format="pyarrow")
    return grouped_gini_coefficient(totals, ["event_type"],
                                    "cents").sort("event_type")


def q_route_prefix_rollup(sf_dir: str):
    """Hierarchical route rollup (stages/aggregate.py prefix_rollup):
    synthetic request paths /<event_type>/u<user_id%10>/<event_id%5>
    counted at every prefix depth <= 2 in ONE pass — the URL analytics
    shape.  Pure-Arrow split/slice/join fan-out (bounded by depth),
    partial counts, one combine.  Oracle: per-depth UNION ALL replay
    with the same string construction."""
    from ..stages.aggregate import prefix_rollup

    ds = _rd(sf_dir, "events",
             columns=["event_type", "user_id", "event_id"])

    def mk(t: pa.Table) -> pa.Table:
        u = pc.cast(pc.bit_wise_and(t.column("user_id"),
                                    pa.scalar(7, pa.int64())), pa.string())
        e = pc.cast(pc.bit_wise_and(t.column("event_id"),
                                    pa.scalar(3, pa.int64())), pa.string())
        path = pc.binary_join_element_wise(
            pa.array(["/"] * t.num_rows), t.column("event_type"),
            pa.array(["/u"] * t.num_rows), u,
            pa.array(["/p"] * t.num_rows), e, pa.scalar(""))
        return pa.table({"path": path})

    out = prefix_rollup(ds.map_batches(mk, batch_format="pyarrow"),
                        "path", max_depth=2)
    return out.sort(["depth", "prefix"])


def q_trending_event_types(sf_dir: str):
    """Trending ranking (the "what is spiking today" shape): per (day,
    event_type) counts, delta vs the SAME type's previous observed
    day, then rank types per day by delta descending (count then type
    as deterministic tie-breaks).  Pure composition of existing
    primitives: grouped_count partials -> one co-partition by type for
    the lag -> one co-partition by day for the rank.  Oracle: lag +
    row_number windows, row-level."""
    import pandas as pd

    from ..stages.aggregate import bucketed_group_transform, grouped_count

    ds = _rd(sf_dir, "events", columns=["event_type", "ts"])

    def day(t: pa.Table) -> pa.Table:
        d = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"event_type": t.column("event_type"), "day": d})

    counts = grouped_count(ds.map_batches(day, batch_format="pyarrow"),
                           ["event_type", "day"], alias="n",
                           combine="driver")

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_type", "day"], kind="mergesort")
        prev = g.groupby("event_type", sort=False)["n"].shift(1)
        g["delta"] = (g["n"] - prev.fillna(0)).astype("int64")
        return g

    lagged = bucketed_group_transform(counts, ["event_type"], lag,
                                      n_buckets=8)

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["day", "delta", "n", "event_type"],
                          ascending=[True, False, False, True],
                          kind="mergesort")
        g["rank"] = g.groupby("day", sort=False).cumcount() + 1
        return g

    out = bucketed_group_transform(lagged, ["day"], rank, n_buckets=8)
    return out.sort(["day", "rank"])


def q_view_purchase_overlaps(sf_dir: str):
    """Interval x interval overlap join (stages/join.py
    interval_overlap_join — the grid-replication range join Ray Data
    lacks natively): per user, 30-minute view-activity intervals
    overlapping 45-minute purchase intervals (half-open).  Each
    interval replicates to its hour-grid buckets; one co-partition
    joins per (user, grid); the canonical-bucket rule (emit only where
    the bucket contains max of the two starts) dedups multi-bucket
    pairs WITHOUT a second shuffle.  Row-level SQL range-join oracle."""
    from ..stages.join import interval_overlap_join

    ev = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "event_type", "ts"])

    def side(kind, dur_us):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("event_type"), kind))
            s = pc.cast(t.column("ts"), pa.int64())
            return pa.table({
                "user_id": t.column("user_id"),
                "id": t.column("event_id"),
                "s": s,
                "e": pc.add(s, pa.scalar(dur_us, pa.int64()))})
        return f

    views = ev.map_batches(side("view", 1_800_000_000),
                           batch_format="pyarrow")
    buys = ev.map_batches(side("purchase", 2_700_000_000),
                          batch_format="pyarrow")
    out = interval_overlap_join(views, buys, key_cols=["user_id"],
                                bucket_us=3_600_000_000)
    return out.map_batches(
        lambda t: t.select(["user_id", "id_a", "id_b"]),
        batch_format="pyarrow").sort(["user_id", "id_a", "id_b"])


def q_value_ks_drift(sf_dir: str):
    """Exact two-sample Kolmogorov-Smirnov drift per event_type
    (stages/drift.py grouped_ks_statistic — the sup-distance companion
    to PSI's binned score): cents of the first half-month vs the rest;
    the KS numerator max|c0*n1 - c1*n0| and sizes are exact int64, the
    single division is the only float.  Oracle: cumulative-count
    window replay over distinct values, row-level."""
    from ..stages.drift import grouped_ks_statistic

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        side = pc.cast(pc.greater_equal(day, pa.scalar(19738, pa.int64())),
                       pa.int64())
        return pa.table({
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64()),
            "side": side})

    out = grouped_ks_statistic(ds.map_batches(prep, batch_format="pyarrow"),
                               ["event_type"], "cents", "side")
    return out.sort("event_type")


def q_value_auc_shift(sf_dir: str):
    """Mann-Whitney U / probability-of-superiority per event_type
    (stages/drift.py grouped_mannwhitney): AUC that a random
    second-half-month cents value exceeds a first-half one (+ half
    ties) — the rank-sum effect size beside KS's sup-distance.
    Doubled-integer midranks keep u2 = 2*U1 exact; the single AUC
    division is the only float.  Oracle: cumulative-count midrank
    replay (rank2 = 2*c_before + cnt + 1), row-level."""
    from ..stages.drift import grouped_mannwhitney

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        side = pc.cast(pc.greater_equal(day, pa.scalar(19738, pa.int64())),
                       pa.int64())
        return pa.table({
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64()),
            "side": side})

    out = grouped_mannwhitney(ds.map_batches(prep, batch_format="pyarrow"),
                              ["event_type"], "cents", "side")
    return out.sort("event_type")


def q_value_acf_hourly(sf_dir: str):
    """Autocorrelation at lag 1 hour per event_type: lag_align
    (stages/resample.py — composite-searchsorted self-alignment of the
    hourly cents-sum series, inner on both buckets existing) feeding
    grouped_pearson's exact-moment close — ACF is just Pearson on the
    aligned pairs.  Oracle: bucket-sum CTE + self-join on bucket-1 +
    the identical moment expression."""
    from ..stages.resample import lag_align
    from ..stages.robust import grouped_pearson

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "ts": pc.cast(t.column("ts"), pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64())})

    aligned = lag_align(ds.map_batches(prep, batch_format="pyarrow"),
                        ["event_type"], value_col="cents",
                        lag_buckets=1, bucket_us=3_600_000_000)
    out = grouped_pearson(aligned, ["event_type"], "v", "v_lag")
    return out.sort("event_type")


def q_weighted_latency_quantiles(sf_dir: str):
    """Weighted latency quantiles per tool (stages/robust.py
    grouped_weighted_quantile): each tool call weighted by its latency
    (duration-weighted percentiles — "the p50 of time spent", not of
    call count), selected EXACTLY by integer cross-multiplication over
    cumulative weights (q as exact rationals, no interpolation, no
    floats in the selection).  Oracle: cumulative-weight window + the
    identical integer predicate, row-level."""
    from ..stages.robust import grouped_weighted_quantile

    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")

    def prep(t: pa.Table) -> pa.Table:
        lat = pc.cast(t.column("attr_latency_ms"), pa.int64())
        return pa.table({"tool_name": t.column("attr_tool_name"),
                         "latency_ms": lat, "w": lat})

    out = grouped_weighted_quantile(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["tool_name"], "latency_ms", "w", [(1, 2), (9, 10), (99, 100)])
    return out.sort(["tool_name", "q"])


def q_value_qq_shift(sf_dir: str):
    """Per-decile QQ shift table (completing the drift family: PSI =
    binned score, KS = sup distance, AUC = rank effect — this is WHERE
    the distribution moved): exact inverse-CDF deciles of cents for
    the first half-month vs the rest (grouped_weighted_quantile with
    unit weights — integer cross-multiplied selection, zero floats),
    joined per (event_type, decile) with the shift delta.  Oracle:
    cumulative-count window replay per side + join."""
    from ..stages.join import bucketed_hash_join
    from ..stages.robust import grouped_weighted_quantile

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        side = pc.cast(pc.greater_equal(day, pa.scalar(19738, pa.int64())),
                       pa.int64())
        return pa.table({
            "event_type": t.column("event_type"), "side": side,
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64()),
            "w": pa.array(np.ones(t.num_rows, np.int64))})

    deciles = [(d, 10) for d in range(1, 10)]
    prepped = ds.map_batches(prep, batch_format="pyarrow")

    def one_side(s):
        sub = prepped.map_batches(
            lambda t, s=s: t.filter(pc.equal(t.column("side"),
                                             pa.scalar(s, pa.int64()))),
            batch_format="pyarrow")
        return grouped_weighted_quantile(sub, ["event_type"], "cents",
                                         "w", deciles)

    base = one_side(0).map_batches(
        lambda t: t.rename_columns(["event_type", "base", "q"]),
        batch_format="pyarrow")
    cur = one_side(1).map_batches(
        lambda t: t.rename_columns(["event_type", "cur", "q"]),
        batch_format="pyarrow")
    joined = bucketed_hash_join(base, cur, on=["event_type", "q"],
                                how="inner", n_buckets=8)

    def delta(t: pa.Table) -> pa.Table:
        return t.append_column(
            "shift", pc.subtract(t.column("cur"), t.column("base")))

    return joined.map_batches(delta, batch_format="pyarrow")         .sort(["event_type", "q"])


def q_top_session_paths(sf_dir: str):
    """User-journey mining (stages/aggregate.py session_paths): 30-min
    sessions per user, each session's first 5 event types joined into
    a path string, counted corpus-wide with min_count=2.  One
    co-partition by user builds sessions+paths; only (path, count)
    partials reach the combine.  Oracle replays the session rule
    (lag-gap running sum), the step cap (row_number <= 5) and the
    ordered string_agg."""
    from ..stages.aggregate import session_paths

    ds = _rd(sf_dir, "events",
             columns=["user_id", "event_id", "ts", "event_type"])

    def us(t: pa.Table) -> pa.Table:
        i = t.column_names.index("ts")
        return t.set_column(i, "ts", pc.cast(t.column("ts"), pa.int64()))

    out = session_paths(ds.map_batches(us, batch_format="pyarrow"),
                        "user_id", "event_type", tie_cols=["event_id"],
                        gap_us=1_800_000_000, max_steps=5, min_count=2)
    return out.sort("path")


def q_value_welch_ttest(sf_dir: str):
    """Welch's t-test per event_type (stages/drift.py
    grouped_welch_ttest): did the MEAN cents move between the first
    half-month and the rest (the mean-shift companion to the
    proportion z-test / KS / AUC family)?  Exact int64 moment
    partials, fixed-order float close mirrored by the oracle with
    explicit double casts, t/df floor-rounded at 1e9."""
    from ..stages.drift import grouped_welch_ttest

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        side = pc.cast(pc.greater_equal(day, pa.scalar(19738, pa.int64())),
                       pa.int64())
        return pa.table({
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"),
                                                  100.0)), pa.int64()),
            "side": side})

    out = grouped_welch_ttest(ds.map_batches(prep, batch_format="pyarrow"),
                              ["event_type"], "cents", "side")
    return out.sort("event_type")


def q_user_credit_balance(sf_dir: str):
    """Floor-at-zero running balance per user (stages/aggregate.py
    clamped_running_sum — prepaid-credit semantics: signup/purchase
    events credit cents, other events debit them, and debits cannot
    drive the balance negative): the nonlinear max-recurrence
    telescoped to cumsum − min(0, running-min(cumsum)), int64-exact.
    Row-level oracle: two window functions."""
    from ..stages.aggregate import clamped_running_sum

    ds = _rd(sf_dir, "events",
             columns=["user_id", "event_id", "ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                        pa.int64())
        credit = pc.is_in(t.column("event_type"),
                          value_set=pa.array(["signup", "purchase"]))
        delta = pc.if_else(credit, cents, pc.negate_checked(cents))
        return pa.table({"user_id": t.column("user_id"),
                         "event_id": t.column("event_id"),
                         "ts": pc.cast(t.column("ts"), pa.int64()),
                         "delta": delta})

    out = clamped_running_sum(ds.map_batches(prep, batch_format="pyarrow"),
                              ["user_id"], "delta",
                              order_cols=["ts", "event_id"])
    return out.sort(["user_id", "ts", "event_id"])


def q_user_burstiness(sf_dir: str):
    """Burstiness audit (stages/drift.py grouped_fano_factor): Fano
    factor of per-hour event counts per user over each user's observed
    span (empty buckets contribute arithmetically, never
    materialized) — F~1 Poisson-like, F>>1 bursty.  Int64 sums, two
    fixed-order divisions floor-rounded at 1e9.  Oracle: occupied
    bucket counts + the identical closed form."""
    from ..stages.drift import grouped_fano_factor

    ds = _rd(sf_dir, "events", columns=["user_id", "ts"])

    def us(t: pa.Table) -> pa.Table:
        i = t.column_names.index("ts")
        return t.set_column(i, "ts", pc.cast(t.column("ts"), pa.int64()))

    out = grouped_fano_factor(ds.map_batches(us, batch_format="pyarrow"),
                              ["user_id"], bucket_us=3_600_000_000)
    return out.sort("user_id")


def q_type_hour_independence(sf_dir: str):
    """Chi-square independence table: event_type x hour-of-day
    (stages/drift.py chi_square_contingency) — per-cell observed,
    expected and chi2 contribution (order-free per-cell float
    expressions; a single chi2 total would need an ordered float sum
    no SQL aggregate can mirror).  Dense cross incl. zero cells.
    Oracle replays marginals + the identical expressions."""
    from ..stages.drift import chi_square_contingency

    ds = _rd(sf_dir, "events", columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        h = (pc.cast(t.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False) // 3_600_000_000) % 24
        return pa.table({"event_type": t.column("event_type"),
                         "hour": pa.array(h, pa.int64())})

    return chi_square_contingency(
        ds.map_batches(prep, batch_format="pyarrow"),
        "event_type", "hour")


def q_exp_histogram(sf_dir: str):
    """spanmetrics EXPONENTIAL-bucket histogram mode (base-2, scale=0):
    bucket k holds latencies in (2^k, 2^(k+1)]
    (connector/spanmetricsconnector/connector.go:305-335)."""
    from ..stages.aggregate import exp_histogram_agg

    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    return exp_histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                             scale=0, alias="n").map_batches(
        lambda t: t.rename_columns(["tool_name", "bucket", "n"]),
        batch_format="pyarrow")


def q_exp_histogram_scale2(sf_dir: str):
    """spanmetrics exponential histogram at NONZERO scale (scale=2,
    base = 2^(1/4) — 4 subbuckets per power of two): the stage maps via
    the OTel spec's logarithm-free exact subbucket method (frexp +
    searchsorted over the 2^scale precomputed boundaries,
    stages/aggregate.py exp_histogram_agg), while the oracle replays
    the naive ceil(log2(v)*4)-1 rule in SQL — a green run pins the two
    mappings equal over the corpus domain (a pytest pins them equal
    exhaustively to 1M)."""
    from ..stages.aggregate import exp_histogram_agg

    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    return exp_histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                             scale=2, alias="n").map_batches(
        lambda t: t.rename_columns(["tool_name", "bucket", "n"]),
        batch_format="pyarrow")


def q_exp_to_explicit_hist(sf_dir: str):
    """convert_exponential_hist_to_explicit_hist (upper distribution,
    func_convert_exponential_hist_to_explicit_hist.go): spanmetrics
    exponential buckets re-binned onto explicit bounds [8,64,512,4096];
    each exp bucket's count lands in the explicit bucket containing its
    upper edge 2^(k+1)."""
    from ..stages.aggregate import exp_histogram_agg
    from ..stages.metrics import exp_to_explicit_histogram

    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    exp = exp_histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                            scale=0, alias="n")
    out = exp_to_explicit_histogram(exp, bounds=[8, 64, 512, 4096],
                                    keys=["attr_tool_name"])
    return out.map_batches(
        lambda t: t.rename_columns(["tool_name", "le", "n"]),
        batch_format="pyarrow").sort(["tool_name", "le"])


def q_cumulative_value_by_user(sf_dir: str):
    """deltatocumulative: keyed running sums in time order
    (deltatocumulativeprocessor/processor.go:25-63).  Values in integer
    cents so the running sum is exact."""
    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100)), pa.int64())
        return t.append_column("cents", cents)

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    # (ts, event_id) tie-break keeps the running-sum order deterministic
    ds2 = delta_to_cumulative(ds, ["user_id"], "cents",
                              order_col=["ts", "event_id"],
                              out_col="cumulative_cents")
    return ds2.map_batches(
        lambda t: pa.table({"event_id": t.column("event_id"),
                            "user_id": t.column("user_id"),
                            "cumulative_cents": t.column("cumulative_cents")
                                                 .cast(pa.int64())}),
        batch_format="pyarrow")


def q_json_props_sum(sf_dir: str):
    """stanza json_parser on the events.props JSON column + grouped sum."""
    ds = _rd(sf_dir, "events", columns=["event_type", "props"])
    ds = ds.map_batches(JsonParser(parse_from="props", keys=["k"]), batch_format="pyarrow")

    def to_int(t: pa.Table) -> pa.Table:
        return t.append_column("k_int", pc.cast(t.column("attr_k"), pa.int64(), safe=False))

    ds = ds.map_batches(to_int, batch_format="pyarrow")
    return grouped_sum(ds, ["event_type"], "k_int", alias="k_total")


def q_resource_stamp_counts(sf_dir: str):
    """resourcedetection analog: driver-computed constants stamped as
    res_* columns on every record (stages/enrich.py ResourceStamper),
    then a per-(resource, role) count — the reference's
    resource-attribute grouping shape."""
    from ..stages.enrich import ResourceStamper

    ds = read_transcripts(sf_dir, columns=["role"])
    ds = ds.map_batches(ResourceStamper({"env": "prod", "region": "eu"}),
                        batch_format="pyarrow")
    return grouped_count(ds, ["res_env", "res_region", "role"], alias="n")


def q_syslog_parse(sf_dir: str):
    """RFC3164 syslog parse end-to-end: each event renders a syslog line
    (priority = event_id mod 192), SyslogParser extracts pri/host/app +
    derives facility and severity (pri divmod 8, RFC5424 §6.2.1), and
    the result aggregates per (facility, severity).  The oracle rebuilds
    the line in SQL and re-extracts with its own regex — parser and
    arithmetic both replayed."""
    from ..stages.parse import SyslogParser

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def render(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        pri = pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 192), 192)),
                      pa.string())
        host = pc.binary_join_element_wise(
            "host-", pc.cast(t.column("user_id"), pa.string()), "")
        line = pc.binary_join_element_wise(
            "<", pri, ">Feb  5 12:34:56 ", host, " app[7]: ",
            pc.fill_null(t.column("event_type"), ""), "")
        return pa.table({"line": line})

    parsed = ds.map_batches(render, batch_format="pyarrow") \
        .map_batches(SyslogParser(parse_from="line"), batch_format="pyarrow")
    out = grouped_count(parsed, ["attr_facility", "attr_syslog_severity"],
                        alias="n")
    return out.map_batches(
        lambda t: t.rename_columns(["facility", "severity", "n"]),
        batch_format="pyarrow").sort(["facility", "severity"])


def q_filter_events(sf_dir: str):
    """filterprocessor: drop on OR'd OTTL conditions (logs.go:30-107)."""
    ds = _rd(sf_dir, "events", columns=["event_id", "event_type", "value"])
    ds = ds.map_batches(FilterStage(['event_type == "error"', "value < 50.0"]),
                        batch_format="pyarrow")
    return grouped_count(ds, ["event_type"], alias="n")


def q_doc_token_counts(sf_dir: str):
    """token counting (whitespace tokenizer) over documents — vectorized."""
    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(t.column("text"))
        parts = pc.split_pattern_regex(trimmed, r"\s+")
        n = pc.list_value_length(parts).cast(pa.int64())
        empty = pc.equal(trimmed, "")
        n = pc.if_else(pc.fill_null(empty, True), pa.scalar(0, pa.int64()), n)
        return pa.table({"doc_id": t.column("doc_id"), "n_tokens": n})

    return ds.map_batches(count_tokens, batch_format="pyarrow")


def q_doc_exact_dups(sf_dir: str):
    """exact dedup by content hash: md5(text) groups with >1 doc."""
    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])

    def add_hash(t: pa.Table) -> pa.Table:
        import hashlib

        h = [hashlib.md5(s.encode()).hexdigest() if s is not None else None
             for s in t.column("text").to_pylist()]
        return pa.table({"doc_id": t.column("doc_id"), "text_md5": pa.array(h)})

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    # one representative (min doc_id) + count per content hash == the
    # hash-partition exact-dedup primitive; groups with n_docs > 1 are dups
    return grouped_agg(hashed, ["text_md5"],
                       [("count", None, "n_docs"), ("min", "doc_id", "first_doc_id")])


def q_embedding_knn(sf_dir: str):
    """brute-force cosine top-k over the embedding column: broadcast query
    vector, numpy matmul per batch, global top-k via sort+limit."""
    import ray.data as rd
    import pyarrow.parquet as pq

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qtbl = pq.read_table(emb_path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "=", 0)])
    qvec = np.asarray(qtbl.column("embedding").to_pylist()[0], dtype=np.float64)
    qnorm = np.linalg.norm(qvec)

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"]) \
           .map_batches(_strip_meta, batch_format="pyarrow")

    def score(t: pa.Table) -> pa.Table:
        from ..stages.similarity import _to_mat

        mat = _to_mat(t.column("embedding"))
        sims = (mat @ qvec) / (np.linalg.norm(mat, axis=1) * qnorm)
        return pa.table({"vec_id": t.column("vec_id"),
                         "sim": pa.array(sims, type=pa.float64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    scored = scored.map_batches(lambda t: t.filter(pc.not_equal(t.column("vec_id"), 0)),
                                batch_format="pyarrow")
    top = scored.sort(["sim", "vec_id"], descending=[True, False]).limit(10)
    return top.map_batches(lambda t: t.select(["vec_id"]), batch_format="pyarrow")


def q_tokens_est(sf_dir: str):
    """BPE-ish token estimate (TokenCount stage) over documents."""
    from ..stages.textstats import TokenCount

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(TokenCount(), batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["doc_id", "n_tokens_est"]),
                          batch_format="pyarrow")


def q_cumulative_to_delta(sf_dir: str):
    """cumulativetodelta analog: per-user lag difference of integer cents."""
    from ..stages.aggregate import cumulative_to_delta
    import pandas as pd

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100)), pa.int64())
        return t.append_column("cents", cents)

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    ds2 = cumulative_to_delta(ds, ["user_id"], "cents",
                              order_col=["ts", "event_id"],
                              out_col="delta_cents")
    return ds2.map_batches(
        lambda t: t.select(["event_id", "user_id", "delta_cents"]),
        batch_format="pyarrow")


def q_delta_to_rate(sf_dir: str):
    """deltatorateprocessor analog (processor/deltatorateprocessor/
    processor.go:17-30): per-key value delta divided by the time delta,
    in integer micro-units for exact oracle comparison."""
    import pandas as pd

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100)), pa.int64())
        return t.append_column("cents", cents)

    ds = ds.map_batches(to_cents, batch_format="pyarrow")

    def rate(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL users in the bucket
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        key = g["user_id"]
        dv = g["cents"].groupby(key, sort=False).diff()
        dt_us = g["ts"].astype("int64").groupby(key, sort=False).diff()
        # integer micro-cents-per-second; null on first point or zero dt
        g["rate_micro"] = (dv * 1_000_000 // dt_us).where(dt_us > 0)
        return g[["event_id", "user_id", "rate_micro"]]

    from ..stages.aggregate import bucketed_group_transform

    return bucketed_group_transform(ds, ["user_id"], rate)


def q_tail_sampling_errors(sf_dir: str):
    """tailsampling: keep whole conversations containing >=1 error turn."""
    from ..stages.aggregate import conversation_policy_filter

    ds = _parsed(sf_dir)
    kept = conversation_policy_filter(ds, 'attributes["status"] == "error"')
    return kept.map_batches(lambda t: t.select(["conv_id", "turn_idx"]),
                            batch_format="pyarrow")


def q_tail_sampling_policies(sf_dir: str):
    """tailsampling OR'd policy set: latency + span_count + probabilistic
    (internal/sampling/latency.go, span_count_sampler.go,
    probabilistic.go) — keep whole conversations sampled by ANY policy."""
    from ..stages.tailsampling import tail_sample

    ds = read_transcripts(sf_dir)
    kept = tail_sample(ds, [
        {"type": "latency", "threshold_ms": 300_000},
        {"type": "span_count", "min_spans": 30},
        {"type": "probabilistic", "percent": 5.0},
    ])
    return kept.map_batches(lambda t: t.select(["conv_id", "turn_idx"]),
                            batch_format="pyarrow")


def q_tail_sampling_and(sf_dir: str):
    """tailsampling AND policy (internal/sampling/and.go): conversation
    must contain a slow turn AND an error turn."""
    from ..stages.tailsampling import tail_sample

    ds = _parsed(sf_dir)
    kept = tail_sample(ds, [
        {"type": "and", "policies": [
            {"type": "numeric_attribute",
             "key": 'attributes["latency_ms"]', "min_value": 2000},
            {"type": "string_attribute",
             "key": 'attributes["status"]', "values": ["error"]},
        ]},
    ])
    return kept.map_batches(lambda t: t.select(["conv_id", "turn_idx"]),
                            batch_format="pyarrow")


def q_tail_sampling_rate_limit(sf_dir: str):
    """tailsampling rate_limiting policy (internal/sampling/
    rate_limiting.go:32-49): greedy span budget per decision window,
    conversations admitted in (min_ts, conv_id) order, strict
    taken + n < budget.  1-day decision windows so multiple
    conversations genuinely contend for the budget.  The greedy scan is
    sequential state — the DuckDB oracle replays it with a recursive
    CTE stepping one conversation at a time."""
    from ..stages.tailsampling import tail_sample

    ds = read_transcripts(sf_dir)
    kept = tail_sample(ds, [
        {"type": "rate_limiting", "spans_per_second": 200,
         "window_us": 86_400_000_000},
    ])
    return kept.map_batches(lambda t: t.select(["conv_id", "turn_idx"]),
                            batch_format="pyarrow")


def q_tail_sampling_composite(sf_dir: str):
    """tailsampling composite rate-budgeted policy (composite.go:78-120):
    error conversations first, then slow ones, within per-window span
    budgets (1-day decision windows so the budgets genuinely contend).
    Greedy two-counter token-bucket admission is order-dependent state;
    the DuckDB oracle replays it with a per-window recursive CTE (also
    bit-verified against a sequential reference in pytest)."""
    from ..stages.tailsampling import tail_sample

    ds = _parsed(sf_dir)
    kept = tail_sample(ds, [
        {"type": "composite", "max_total_spans_per_second": 200,
         "window_us": 86_400_000_000,
         "subpolicies": [
             {"type": "string_attribute", "key": 'attributes["status"]',
              "values": ["error"], "max_spans_per_second": 120},
             {"type": "numeric_attribute", "key": 'attributes["latency_ms"]',
              "min_value": 500, "max_spans_per_second": 80},
         ]},
    ])
    return kept.map_batches(lambda t: t.select(["conv_id", "turn_idx"]),
                            batch_format="pyarrow")


def q_attr_hash_extract(sf_dir: str):
    """attributesprocessor action list: upsert-from-attribute + sha256 hash
    (attraction.go insert/hash actions)."""
    from ..stages.enrich import AttributesStage

    ds = read_transcripts(sf_dir)
    stage = AttributesStage([
        {"action": "upsert", "key": "tool_copy", "from_attribute": "__tool"},
        {"action": "hash", "key": "tool_copy"},
    ], prefix="attr_")

    def prep(t: pa.Table) -> pa.Table:
        return t.append_column("attr___tool", t.column("tool"))

    ds = ds.map_batches(prep, batch_format="pyarrow").map_batches(stage, batch_format="pyarrow")
    return grouped_count(ds, ["attr_tool_copy"], alias="n").map_batches(
        lambda t: t.rename_columns(["tool_sha256", "n"]), batch_format="pyarrow")


def q_replace_pattern(sf_dir: str):
    """OTTL replace_pattern editor (func_replace_pattern.go): global regex
    replacement over the body, verified row-for-row."""
    ds = read_transcripts(sf_dir)
    ds = ds.map_batches(TransformStage(
        ['replace_pattern(text, "latency_ms=\\\\d+", "latency_ms=REDACTED")']),
        batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["conv_id", "turn_idx", "text"]),
                          batch_format="pyarrow")


def q_match_all_route_counts(sf_dir: str):
    """routingconnector match_once=false COPY semantics: every matching
    route receives the row (logs.go:119-153); per-sink counts."""
    from ..stages.route import match_all_counts

    ds = _parsed(sf_dir)
    return match_all_counts(ds, ROUTES, default="default").to_pandas()


def q_filelog_severity_counts(sf_dir: str):
    """filelogreceiver path: read_text over synthetic log files -> regex
    parse -> severity mapping -> counts (the full stanza ingest DAG,
    SURVEY §3.2, from plain text files)."""
    from ..sources.textlog import read_log_lines, synth_log_file
    from ..stages.parse import RegexParser, SeverityParser

    log_dir = synth_log_file()
    ds = read_log_lines(log_dir)
    parser = RegexParser(
        r"^(?P<log_ts>\S+) (?P<level>[A-Z]+) tool=(?P<tool_name>\w+) "
        r"status=(?P<status>\w+) latency_ms=(?P<latency_ms>\d+) msg=(?P<msg>.*)$")
    ds = ds.map_batches(parser, batch_format="pyarrow")
    ds = ds.map_batches(SeverityParser(parse_from="attr_level"), batch_format="pyarrow")
    ds = ds.map_batches(KeepStage("not (parse_failure == true)"), batch_format="pyarrow")
    return grouped_count(ds, ["severity_text"], alias="n")


def q_wineventlog_severity_counts(sf_dir: str):
    """windowseventlogreceiver / stanza windows input, the parse half
    (reference pkg/stanza/operator/input/windows/xml.go — the
    EvtSubscribe half is Windows API I/O; rendered event XML replays
    from a deterministic fixture): read_text -> WindowsEventParser
    (System fields, TimeCreated microseconds, parseSeverity mapping,
    EventData JSON) -> per-severity counts + EXACT record-id and
    timestamp-microsecond sums.  The oracle re-parses the SAME raw XML
    lines independently with SQL regexp_extract + strptime — no shared
    parser code."""
    import ray.data as rd

    from ..sources.textlog import synth_wineventlog
    from ..stages.parse import WindowsEventParser

    path = synth_wineventlog()
    ds = rd.read_text(path)
    ds = ds.map_batches(WindowsEventParser(), batch_format="pyarrow")
    ds = ds.map_batches(KeepStage("not (parse_failure == true)"),
                        batch_format="pyarrow")

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "severity_text": t.column("severity_text"),
            "record_id": t.column("record_id"),
            "ts_us": pc.cast(t.column("ts"), pa.int64())})

    return grouped_agg(ds.map_batches(prep, batch_format="pyarrow"),
                       ["severity_text"],
                       [("count", "record_id", "n"),
                        ("sum", "record_id", "sum_record_id"),
                        ("sum", "ts_us", "sum_ts_us")],
                       combine="driver")


def q_journald_priority_counts(sf_dir: str):
    """journald input, the parse half (reference
    pkg/stanza/operator/input/journald/input.go parseJournalEntry —
    the journalctl exec half is live environment I/O; its `-o json`
    output replays from a deterministic fixture): read_text ->
    JournaldParser (ts from __REALTIME_TIMESTAMP us, cursor from
    __CURSOR, MESSAGE byte-array conversion, attr_* fields) ->
    per-priority counts + EXACT timestamp-microsecond sums.  Oracle
    reads the same JSON-lines fixture with read_json."""
    import ray.data as rd

    from ..sources.textlog import synth_journald_export
    from ..stages.parse import JournaldParser

    path = synth_journald_export()
    ds = rd.read_text(path)
    ds = ds.map_batches(JournaldParser(), batch_format="pyarrow")
    ds = ds.map_batches(KeepStage("not (parse_failure == true)"),
                        batch_format="pyarrow")

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "priority": t.column("attr_PRIORITY"),
            "ts_us": pc.cast(t.column("ts"), pa.int64())})

    return grouped_agg(ds.map_batches(prep, batch_format="pyarrow"),
                       ["priority"],
                       [("count", "ts_us", "n"),
                        ("sum", "ts_us", "sum_ts_us")],
                       combine="driver")


def _floor_round(ds, cols_scales):
    """Tie-safe cross-engine rounding for float output columns:
    x -> floor(x * scale + 0.5) / scale.  Unlike round(), floor has NO
    tie-breaking mode, so numpy/Arrow and DuckDB agree even when the
    value sits exactly on a rounding boundary (round() diverges there:
    numpy half-to-even vs SQL half-away — the gini lesson).  Collapses
    1-ulp libm (ln/log10) and FMA drift between engines so the driver
    value hash is stable; nulls propagate.  SQL twin:
    ``floor(x * S + 0.5) / S``."""

    def f(t: pa.Table) -> pa.Table:
        for c, s in cols_scales:
            i = t.column_names.index(c)
            col = pc.divide(
                pc.floor(pc.add(pc.multiply(
                    pc.cast(t.column(c), pa.float64()),
                    pa.scalar(float(s), pa.float64())),
                    pa.scalar(0.5, pa.float64()))),
                pa.scalar(float(s), pa.float64()))
            t = t.set_column(i, c, col)
        return t

    if isinstance(ds, pa.Table):  # driver-combined small results
        return f(ds)
    return ds.map_batches(f, batch_format="pyarrow")


def q_tcp_replay_counts(sf_dir: str):
    """tcpreceiver / stanza tcp input seam (reference
    pkg/stanza/operator/input/tcp/input.go; testbed tcp-batch-100
    scenario): the SAME fixture lines the filelog query reads are
    replayed through a localhost TCP socket in 100-line sends
    (sources/push.py serve_lines_tcp), drained by the bounded
    read_tcp_log ingest, and fed to the identical stanza parse DAG —
    proving push ingest and file ingest are the same seam.  The oracle
    reads the fixture files directly, so a green run pins the socket
    path byte-for-byte to the file path."""
    from ..sources.push import read_tcp_log, serve_lines_tcp
    from ..sources.textlog import synth_log_file
    from ..stages.parse import RegexParser, SeverityParser

    log_dir = synth_log_file()
    lines = []
    for f in sorted(os.listdir(log_dir)):
        if f.endswith(".log"):
            with open(os.path.join(log_dir, f)) as fh:
                lines.extend(fh.read().splitlines())
    port, stop = serve_lines_tcp(lines, batch=100)
    try:
        ds = read_tcp_log("127.0.0.1", port)
    finally:
        stop.set()
    parser = RegexParser(
        r"^(?P<log_ts>\S+) (?P<level>[A-Z]+) tool=(?P<tool_name>\w+) "
        r"status=(?P<status>\w+) latency_ms=(?P<latency_ms>\d+) msg=(?P<msg>.*)$")
    ds = ds.map_batches(parser, batch_format="pyarrow")
    ds = ds.map_batches(SeverityParser(parse_from="attr_level"),
                        batch_format="pyarrow")
    ds = ds.map_batches(KeepStage("not (parse_failure == true)"),
                        batch_format="pyarrow")
    return grouped_count(ds, ["severity_text"], alias="n")


def q_udp_replay_counts(sf_dir: str):
    """udpreceiver / stanza udp input seam (reference
    pkg/stanza/operator/input/udp/input.go; testbed syslog-udp-batch-100
    shape): the filelog fixture lines replayed as 100-line datagrams
    into the bounded read_udp_log listener (packet boundary flushes the
    tail token), then the identical parse DAG.  Oracle reads the same
    files — datagram path pinned to the file path."""
    import threading

    from ..sources.push import read_udp_log, send_lines_udp
    from ..sources.textlog import synth_log_file
    from ..stages.parse import RegexParser, SeverityParser

    log_dir = synth_log_file()
    lines = []
    for f in sorted(os.listdir(log_dir)):
        if f.endswith(".log"):
            with open(os.path.join(log_dir, f)) as fh:
                lines.extend(fh.read().splitlines())

    def sender(port):
        threading.Thread(target=send_lines_udp, args=(lines, port),
                         kwargs={"batch": 100}, daemon=True).start()

    ds = read_udp_log(max_records=len(lines), on_ready=sender)
    parser = RegexParser(
        r"^(?P<log_ts>\S+) (?P<level>[A-Z]+) tool=(?P<tool_name>\w+) "
        r"status=(?P<status>\w+) latency_ms=(?P<latency_ms>\d+) msg=(?P<msg>.*)$")
    ds = ds.map_batches(parser, batch_format="pyarrow")
    ds = ds.map_batches(SeverityParser(parse_from="attr_level"),
                        batch_format="pyarrow")
    ds = ds.map_batches(KeepStage("not (parse_failure == true)"),
                        batch_format="pyarrow")
    return grouped_count(ds, ["severity_text"], alias="n")


def q_otlp_metrics_proto_roundtrip(sf_dir: str):
    """fileexporter `format: proto` for METRICS end-to-end: a
    deterministic flat metric table (one Gauge datapoint + one
    monotonic-Sum datapoint per event) -> framed MetricsData sink ->
    read-back -> aggregate.  Proves encode∘decode = identity on the
    metrics.proto codec (the oracle sees only the events parquet).
    Gauge values are 0.5-multiples so float sums are exact in any
    combine order."""
    import shutil

    from ..sources.otlpproto import (
        read_otlp_metrics_proto,
        write_otlp_metrics_proto,
    )

    out = f"/tmp/graft_otlpm/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])

    def to_metrics(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        et = t.column("event_type").to_pylist()
        n = len(eid)
        gauge = pa.table({
            "metric_name": pa.array([f"{e}_latency" for e in et]),
            "metric_type": pa.array(["Gauge"] * n),
            "metric_unit": pa.array(["ms"] * n),
            "time_unix_nano": pa.array(eid * 1_000_000, pa.int64()),
            "value_double": pa.array((eid % 7) * 0.5, pa.float64()),
            "value_int": pa.nulls(n, pa.int64()),
            "attr_shard": pa.array(eid % 3, pa.int64()),
        })
        sums = pa.table({
            "metric_name": pa.array([f"{e}_calls" for e in et]),
            "metric_type": pa.array(["Sum"] * n),
            "metric_unit": pa.array(["1"] * n),
            "time_unix_nano": pa.array(eid * 1_000_000, pa.int64()),
            "value_double": pa.nulls(n, pa.float64()),
            "value_int": pa.array(eid % 100, pa.int64()),
            "attr_shard": pa.array(eid % 3, pa.int64()),
        })
        return pa.concat_tables([gauge, sums])

    metrics = ds.map_batches(to_metrics, batch_format="pyarrow")
    write_otlp_metrics_proto(metrics, out)
    back = read_otlp_metrics_proto(out)

    def norm(t: pa.Table) -> pa.Table:
        cols = {
            "metric_name": t.column("metric_name").cast(pa.string()),
            "metric_type": t.column("metric_type").cast(pa.string()),
            "vd": (t.column("value_double").cast(pa.float64())
                   if "value_double" in t.column_names
                   else pa.nulls(t.num_rows, pa.float64())),
            "vi": (t.column("value_int").cast(pa.int64())
                   if "value_int" in t.column_names
                   else pa.nulls(t.num_rows, pa.int64())),
            "shard": t.column("attr_shard").cast(pa.int64()),
        }
        return pa.table(cols)

    back = back.map_batches(norm, batch_format="pyarrow")
    return grouped_agg(back, ["metric_name", "metric_type", "shard"],
                       [("count", None, "n"), ("sum", "vd", "vd_sum"),
                        ("sum", "vi", "vi_sum")],
                       combine="driver") \
        .sort(["metric_name", "shard"])


def q_otlp_hist_proto_roundtrip(sf_dir: str):
    """Histogram wire format end-to-end: the latency_histogram pipeline's
    per-bucket rows -> HistogramDataPoint encoding (packed bucket_counts
    / explicit_bounds, zero-filled) -> framed file -> read-back ->
    sparse rows again.  Same oracle as latency_histogram: the codec must
    be invisible."""
    import shutil

    from ..sources.otlpproto import (
        decode_histograms_data,
        encode_histograms_data,
    )

    out = f"/tmp/graft_otlph/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    hist = histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                         [100, 500, 1000, 5000], alias="n")
    rows = hist.to_pandas().to_dict("records")  # tiny: tools x 5 buckets
    msg = encode_histograms_data(rows, metric_name="tool_latency",
                                 key_cols=["attr_tool_name"],
                                 bounds=[100, 500, 1000, 5000], unit="ms")
    import struct as _struct

    with open(os.path.join(out, "hist.binpb"), "wb") as f:
        f.write(_struct.pack(">I", len(msg)) + msg)

    import ray.data as rd

    files = rd.read_binary_files(out, file_extensions=["binpb"])

    def decode(batch: dict) -> pa.Table:
        recs: list[dict] = []
        for data in batch["bytes"]:
            buf = bytes(data)
            pos = 0
            while pos + 4 <= len(buf):
                (ln,) = _struct.unpack_from(">I", buf, pos)
                pos += 4
                recs.extend(decode_histograms_data(buf[pos:pos + ln]))
                pos += ln
        return pa.table({
            "tool_name": pa.array([r["attr_tool_name"] for r in recs],
                                  pa.string()),
            "le": pa.array([r["le"] for r in recs], pa.string()),
            "n": pa.array([r["n"] for r in recs], pa.int64()),
        })

    back = files.map_batches(decode, batch_format="numpy")
    return back.filter(lambda r: r["n"] > 0)


def q_otlp_hist_json_roundtrip(sf_dir: str):
    """Histogram JSON wire format end-to-end (the `format: json` twin of
    otlp_hist_proto_roundtrip): sparse per-bucket rows ->
    write_otlp_hist_json (bucketCounts/explicitBounds as protojson
    strings, zero-filled) -> read_otlp_metrics_json -> sparse rows
    again.  Same oracle as latency_histogram: the codec must be
    invisible."""
    import shutil

    from ..sources.otlpjson import (OtlpMetricsJsonReaderStage,
                                    write_otlp_hist_json)

    out = f"/tmp/graft_otlph_js/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    hist = histogram_agg(ds, ["attr_tool_name"], "attr_latency_ms",
                         [100, 500, 1000, 5000], alias="n")
    rows = hist.to_pandas().to_dict("records")  # tiny: tools x 5 buckets
    write_otlp_hist_json(rows, os.path.join(out, "hist.jsonl"),
                         metric_name="tool_latency",
                         key_cols=["attr_tool_name"],
                         bounds=[100, 500, 1000, 5000], unit="ms",
                         compression="gzip")

    import ray.data as rd

    files = rd.read_binary_files(out, include_paths=True)
    back = files.map_batches(OtlpMetricsJsonReaderStage(),
                             batch_format="numpy")

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("n"), pa.scalar(0, pa.int64())))
        return pa.table({
            "tool_name": t.column("attr_tool_name").cast(pa.string()),
            "le": t.column("le").cast(pa.string()),
            "n": t.column("n").cast(pa.int64())})

    return back.map_batches(project, batch_format="pyarrow")


def q_filelog_multiline_counts(sf_dir: str):
    """fileconsumer multiline + gzip path: read_log_files with a
    line_start_pattern reassembles stack-trace entries per file (half
    the files gzipped — auto-sniffed), severity extracted from the
    entry head, per-severity entry and line counts
    (pkg/stanza/split.go LineStartSplitFunc + fileconsumer decompress;
    the DuckDB oracle replays the stitch with a windowed running sum
    over the planted per-file seq)."""
    from ..sources.textlog import read_log_files, synth_multiline_log_file

    log_dir = synth_multiline_log_file()

    def extract(t: pa.Table) -> pa.Table:
        sev = pc.extract_regex(t.column("text"), r"^\S+ (?P<sev>[A-Z]+) ")
        nl = pc.count_substring(t.column("text"), "\n")
        return pa.table({
            "severity": pc.struct_field(sev, "sev"),
            "n_lines": pc.add(nl.cast(pa.int64()), 1),
        })

    ds = read_log_files(os.path.join(log_dir, "*.log*"),
                        line_start_pattern=r"^\d{4}-\d{2}-\d{2}T")
    ds = ds.map_batches(extract, batch_format="pyarrow")
    return grouped_agg(ds, ["severity"],
                       [("count", None, "n_entries"),
                        ("sum", "n_lines", "total_lines")],
                       combine="driver").sort("severity")


def q_otlp_roundtrip_counts(sf_dir: str):
    """fileexporter default wire format end-to-end: transcripts ->
    OTLP/JSON-lines sink (zstd, resource-grouped by conv_id) -> file
    read-back -> aggregate.  Proves the codec inverts exactly (the
    oracle sees only the original parquet)."""
    import shutil

    from ..sources.otlpjson import read_otlp_json, write_otlp_json

    out = f"/tmp/graft_otlp/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)  # content-hash names: stale
    # files from a different block split would read back as duplicates
    ds = read_transcripts(sf_dir)
    write_otlp_json(ds, out, resource_cols=["conv_id"], compression="zstd")
    back = read_otlp_json(out)
    back = back.map_batches(TransformStage(
        ['set(attributes["text_len"], Len(text))']), batch_format="pyarrow")
    return grouped_agg(back, ["role"],
                       [("count", None, "n"),
                        ("sum", "attr_text_len", "total_chars")],
                       combine="driver")


def q_otlp_proto_roundtrip(sf_dir: str):
    """fileexporter `format: proto` end-to-end: transcripts ->
    length-framed OTLP protobuf sink (hand-rolled logs.proto codec,
    resource-grouped by role) -> read-back -> aggregate.  Oracle sees
    only the original parquet, so the wire codec must invert exactly."""
    import shutil

    from ..sources.otlpproto import read_otlp_proto, write_otlp_proto

    out = f"/tmp/graft_otlp_pb/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    ds = read_transcripts(sf_dir)
    write_otlp_proto(ds, out, resource_cols=["role"])
    back = read_otlp_proto(out)
    back = back.map_batches(TransformStage(
        ['set(attributes["text_len"], Len(text))']), batch_format="pyarrow")
    return grouped_agg(back, ["role"],
                       [("count", None, "n"),
                        ("sum", "attr_text_len", "total_chars")],
                       combine="driver").sort("role")


def q_otlp_traces_proto_roundtrip(sf_dir: str):
    """fileexporter proto wire format for the traces signal: derived
    spans (hex trace/span ids, kind, ns start/end, status, attributes,
    resource env) -> length-framed TracesData sink (hand-rolled
    trace.proto codec) -> read-back -> per-(kind, status_code)
    aggregate of count + total duration.  The oracle replays the
    derivation arithmetic only — the wire codec must invert exactly."""
    import shutil

    from ..sources.otlpproto import (read_otlp_traces_proto,
                                     write_otlp_traces_proto)

    out = f"/tmp/graft_otlp_traces_pb/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def mk_spans(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        tid = np.array([f"{v:032x}" for v in
                        (eid.astype(np.uint64) * 2654435761 + 1)])
        sid = np.array([f"{v:016x}" for v in
                        (eid.astype(np.uint64) * 40503 + 7)])
        start = 1546300800000000 + eid * 1000
        return pa.table({
            "trace_id": pa.array(tid), "span_id": pa.array(sid),
            "name": pc.binary_join_element_wise(
                "op-", _s(pa.array(eid % 6)), ""),
            "kind": pa.array(1 + eid % 5, pa.int64()),
            "start_ts": pa.array(start, pa.int64()),
            "end_ts": pa.array(start + (eid % 5000) * 10, pa.int64()),
            "status_code": pa.array(np.where(eid % 11 == 0, 2, 1),
                                    pa.int64()),
            "user": pc.binary_join_element_wise(
                "u", _s(pa.array(uid % 100)), ""),
            "env": pa.array(np.where(eid % 2 == 0, "prod", "stage")),
        })

    write_otlp_traces_proto(ds.map_batches(mk_spans, batch_format="pyarrow"),
                            out, resource_cols=["env"])
    back = read_otlp_traces_proto(out)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "kind": t.column("kind"),
            "status_code": t.column("status_code"),
            "env": t.column("env"),
            "dur_us": pc.subtract(t.column("end_ts"),
                                  t.column("start_ts")),
        })

    outds = grouped_agg(back.map_batches(project, batch_format="pyarrow"),
                        ["env", "kind", "status_code"],
                        [("count", None, "n"),
                         ("sum", "dur_us", "total_dur_us")],
                        combine="driver")
    return outds.sort(["env", "kind", "status_code"])


def q_otlp_traces_json_roundtrip(sf_dir: str):
    """fileexporter `format: json` for the TRACES signal: derived spans
    exercising the fields the proto query doesn't (parent_span_id,
    trace_state, status_message) -> TracesData JSON-lines sink (gzip)
    -> read-back -> per-(env, status_code) aggregate with
    parent/state/message-roundtrip counters.  The oracle replays the
    derivation only — the JSON codec must invert exactly."""
    import shutil

    from ..sources.otlpjson import (read_otlp_traces_json,
                                    write_otlp_traces_json)

    out = f"/tmp/graft_otlp_traces_js/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _rd(sf_dir, "events", columns=["event_id"])

    def mk_spans(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        tid = np.array([f"{v:032x}" for v in
                        (eid.astype(np.uint64) * 6364136223846793005 + 3)])
        sid = np.array([f"{v:016x}" for v in
                        (eid.astype(np.uint64) * 48271 + 11)])
        err = eid % 11 == 0
        return pa.table({
            "trace_id": pa.array(tid), "span_id": pa.array(sid),
            "parent_span_id": pa.array(
                np.where(eid % 3 == 0,
                         np.array([f"{v:016x}" for v in
                                   (eid.astype(np.uint64) * 48271 + 12)]),
                         None)),
            "trace_state": pa.array(np.where(eid % 4 == 0, "ot=th:0", None)),
            "name": pc.binary_join_element_wise(
                "op-", _s(pa.array(eid % 6)), ""),
            "kind": pa.array(1 + eid % 5, pa.int64()),
            "start_ts": pa.array(1546300800000000 + eid * 1000, pa.int64()),
            "end_ts": pa.array(1546300800000000 + eid * 1000
                               + (eid % 5000) * 10, pa.int64()),
            "status_code": pa.array(np.where(err, 2, 1), pa.int64()),
            "status_message": pa.array(
                np.where(err, np.char.add("err-", (eid % 7).astype(str)),
                         None)),
            "env": pa.array(np.where(eid % 2 == 0, "prod", "stage")),
        })

    write_otlp_traces_json(ds.map_batches(mk_spans, batch_format="pyarrow"),
                           out, resource_cols=["env"], compression="gzip")
    back = read_otlp_traces_json(out)

    def project(t: pa.Table) -> pa.Table:
        names = t.column_names

        def col_or_null(c):
            return (t.column(c) if c in names
                    else pa.nulls(t.num_rows, pa.string()))

        msg = col_or_null("status_message")
        return pa.table({
            "env": t.column("env"),
            "status_code": t.column("status_code").cast(pa.int64()),
            "has_parent": pc.is_valid(col_or_null("parent_span_id"))
                            .cast(pa.int64()),
            "has_state": pc.is_valid(col_or_null("trace_state"))
                           .cast(pa.int64()),
            "msg_chars": pc.coalesce(
                pc.utf8_length(msg.cast(pa.string())).cast(pa.int64()),
                pa.scalar(0, pa.int64())),
        })

    outds = grouped_agg(back.map_batches(project, batch_format="pyarrow"),
                        ["env", "status_code"],
                        [("count", None, "n"),
                         ("sum", "has_parent", "n_parent"),
                         ("sum", "has_state", "n_state"),
                         ("sum", "msg_chars", "msg_chars")],
                        combine="driver")
    return outds.sort(["env", "status_code"])


def q_otlp_metrics_json_roundtrip(sf_dir: str):
    """fileexporter `format: json` for METRICS: the same Gauge+Sum
    datapoint derivation as otlp_metrics_proto_roundtrip, through the
    MetricsData JSON-lines codec instead (pmetric protojson mapping:
    asInt/nanos as strings, temporality as int enum).  Same oracle —
    the wire format must be invisible."""
    import shutil

    from ..sources.otlpjson import (read_otlp_metrics_json,
                                    write_otlp_metrics_json)

    out = f"/tmp/graft_otlpm_js/{os.path.basename(os.path.normpath(sf_dir))}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])

    def to_metrics(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        et = t.column("event_type").to_pylist()
        n = len(eid)
        gauge = pa.table({
            "metric_name": pa.array([f"{e}_latency" for e in et]),
            "metric_type": pa.array(["Gauge"] * n),
            "metric_unit": pa.array(["ms"] * n),
            "time_unix_nano": pa.array(eid * 1_000_000, pa.int64()),
            "value_double": pa.array((eid % 7) * 0.5, pa.float64()),
            "value_int": pa.nulls(n, pa.int64()),
            "attr_shard": pa.array(eid % 3, pa.int64()),
        })
        sums = pa.table({
            "metric_name": pa.array([f"{e}_calls" for e in et]),
            "metric_type": pa.array(["Sum"] * n),
            "metric_unit": pa.array(["1"] * n),
            "time_unix_nano": pa.array(eid * 1_000_000, pa.int64()),
            "value_double": pa.nulls(n, pa.float64()),
            "value_int": pa.array(eid % 100, pa.int64()),
            "attr_shard": pa.array(eid % 3, pa.int64()),
        })
        return pa.concat_tables([gauge, sums])

    metrics = ds.map_batches(to_metrics, batch_format="pyarrow")
    write_otlp_metrics_json(metrics, out, compression="zstd")
    back = read_otlp_metrics_json(out)

    def norm(t: pa.Table) -> pa.Table:
        cols = {
            "metric_name": t.column("metric_name").cast(pa.string()),
            "metric_type": t.column("metric_type").cast(pa.string()),
            "vd": (t.column("value_double").cast(pa.float64())
                   if "value_double" in t.column_names
                   else pa.nulls(t.num_rows, pa.float64())),
            "vi": (t.column("value_int").cast(pa.int64())
                   if "value_int" in t.column_names
                   else pa.nulls(t.num_rows, pa.int64())),
            "shard": t.column("attr_shard").cast(pa.int64()),
        }
        return pa.table(cols)

    back = back.map_batches(norm, batch_format="pyarrow")
    return grouped_agg(back, ["metric_name", "metric_type", "shard"],
                       [("count", None, "n"), ("sum", "vd", "vd_sum"),
                        ("sum", "vi", "vi_sum")],
                       combine="driver") \
        .sort(["metric_name", "shard"])


def q_approx_top_tools(sf_dir: str):
    """Space-saving heavy-hitter sketch: top-5 tools by turn count.
    Mergeable per-batch summaries; key cardinality here is far below the
    sketch capacity, so counts are EXACT and the SQL oracle applies."""
    from ..stages.sketch import approx_top_k

    ds = read_transcripts(sf_dir)
    ds = ds.map_batches(KeepStage('not (tool == "")'), batch_format="pyarrow")
    return approx_top_k(ds, "tool", k=5, capacity=256)


def q_approx_distinct_convs(sf_dir: str):
    """HyperLogLog distinct-conversation estimate (rows-only: approximate
    by design; the test bound lives in tests/test_dedup_textstats.py)."""
    import pandas as pd

    from ..stages.sketch import approx_distinct

    ds = read_transcripts(sf_dir)
    est = approx_distinct(ds, "conv_id", p=12)
    return pd.DataFrame({"metric": ["approx_distinct_conv_id"], "estimate": [est]})


def q_reassemble_partials(sf_dir: str):
    """CRI partial-line reassembly: P-runs stitch into one record per
    (stream, segment) in strict timestamp order; verified row-for-row
    against a SQL window-function oracle."""
    from ..sources.textlog import read_log_lines, synth_container_log_file
    from ..stages.parse import ContainerParser, reassemble_container_partials

    log_dir = synth_container_log_file()
    ds = read_log_lines(log_dir)
    ds = ds.map_batches(ContainerParser(), batch_format="pyarrow")
    ds = ds.map_batches(KeepStage('not (parse_failure == true)'), batch_format="pyarrow")
    out = reassemble_container_partials(ds)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"stream": t.column("attr_stream"),
                         "log_time": t.column("attr_log_time"),
                         "log": t.column("attr_log"),
                         "n_partials": t.column("n_partials").cast(pa.int64())})

    return out.map_batches(project, batch_format="pyarrow")


def q_error_fingerprints(sf_dir: str):
    """exceptionsconnector analog (connector/exceptionsconnector): group
    error events by a stable fingerprint of their message (md5 of msg) +
    tool, emit counts + first/last seen — error aggregation for triage."""
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('attributes["status"] == "error"'),
                        batch_format="pyarrow")
    ds = ds.map_batches(TransformStage(
        ['set(attributes["msg_fp"], MD5(attributes["msg"]))'], error_mode="ignore"),
        batch_format="pyarrow")
    out = grouped_agg(ds, ["attr_tool_name", "attr_msg_fp"],
                      [("count", None, "n"), ("min", "ts", "first_seen"),
                       ("max", "ts", "last_seen")], combine="bucket")
    return out.map_batches(
        lambda t: t.rename_columns(["tool_name", "msg_fp", "n", "first_seen", "last_seen"]),
        batch_format="pyarrow")


def q_container_log_parse(sf_dir: str):
    """Container-format heavy parse (stanza `container` parser analog):
    mixed docker-json / CRI lines -> per-stream counts of successfully
    parsed full lines."""
    from ..sources.textlog import read_log_lines, synth_container_log_file
    from ..stages.parse import ContainerParser

    log_dir = synth_container_log_file()
    ds = read_log_lines(log_dir)
    ds = ds.map_batches(ContainerParser(), batch_format="pyarrow")
    ds = ds.map_batches(KeepStage('not (parse_failure == true)'), batch_format="pyarrow")
    return grouped_count(ds, ["attr_stream", "attr_logtag"], alias="n").map_batches(
        lambda t: t.rename_columns(["stream", "logtag", "n"]), batch_format="pyarrow")


def q_orders_per_nation(sf_dir: str):
    """Large✕large join via explicit hash co-partitioning
    (stages/join.bucketed_hash_join): orders ⋈ customer on custkey, then
    the tiny nation table broadcast as a lookup — order count + revenue
    per nation name."""
    from ..stages.enrich import LookupEnricher
    from ..stages.join import bucketed_hash_join

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    customer = _rd(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    orders = orders.map_batches(
        lambda t: t.select(["o_custkey", "o_orderkey", "o_totalprice"])
                   .rename_columns(["custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow")
    customer = customer.map_batches(
        lambda t: t.rename_columns(["custkey", "c_nationkey"]), batch_format="pyarrow")
    joined = bucketed_hash_join(orders, customer, on=["custkey"], n_buckets=16)

    import pyarrow.parquet as pq

    ntbl = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                         columns=["n_nationkey", "n_name"])
    lookup = {int(k): {"nation_name": v} for k, v in
              zip(ntbl.column("n_nationkey").to_pylist(), ntbl.column("n_name").to_pylist())}
    joined = joined.map_batches(
        LookupEnricher(lookup, key_col="c_nationkey", prefix=""),
        batch_format="pyarrow")

    def to_cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "cents", pc.cast(pc.round(pc.multiply(t.column("o_totalprice"), 100)), pa.int64()))

    joined = joined.map_batches(to_cents, batch_format="pyarrow")
    return grouped_agg(joined, ["nation_name"],
                       [("count", None, "n_orders"), ("sum", "cents", "total_cents")],
                       combine="driver")


def q_orders_per_nation_native(sf_dir: str):
    """Same join expressed with Ray Data's built-in hash-shuffle join
    (stages/join.native_join wrapping Dataset.join) — oracle-checked
    against the identical SQL as orders_per_nation so both join paths
    stay verified; per-round benchmark decides the recommended default."""
    from ..stages.enrich import LookupEnricher
    from ..stages.join import native_join

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    customer = _rd(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    orders = orders.map_batches(
        lambda t: t.select(["o_custkey", "o_orderkey", "o_totalprice"])
                   .rename_columns(["custkey", "o_orderkey", "o_totalprice"]),
        batch_format="pyarrow")
    customer = customer.map_batches(
        lambda t: t.select(["c_custkey", "c_nationkey"])
                   .rename_columns(["custkey", "c_nationkey"]),
        batch_format="pyarrow")
    # Ray reserves ~0.9 GiB of logical memory per join partition (it
    # sizes each as a full 128 MB block): 16 partitions ask 14 GiB, more
    # than a 15 GB host offers, and the join waits forever for them
    joined = native_join(orders, customer, on=["custkey"], num_partitions=4)

    import pyarrow.parquet as pq

    ntbl = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                         columns=["n_nationkey", "n_name"])
    lookup = {int(k): {"nation_name": v} for k, v in
              zip(ntbl.column("n_nationkey").to_pylist(), ntbl.column("n_name").to_pylist())}
    joined = joined.map_batches(
        LookupEnricher(lookup, key_col="c_nationkey", prefix=""),
        batch_format="pyarrow")

    def to_cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "cents", pc.cast(pc.round(pc.multiply(t.column("o_totalprice"), 100)), pa.int64()))

    joined = joined.map_batches(to_cents, batch_format="pyarrow")
    return grouped_agg(joined, ["nation_name"],
                       [("count", None, "n_orders"), ("sum", "cents", "total_cents")],
                       combine="driver")


def q_sessionize_events(sf_dir: str):
    """Session windows per user (30-min gap) — intervalprocessor /
    groupbytrace time-window family; session count per user."""
    from ..stages.aggregate import sessionize

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    s = sessionize(ds, "user_id", gap_us=1_800_000_000)

    def per_user(t: pa.Table) -> pa.Table:
        gb = t.group_by(["user_id"]).aggregate([("session_id", "max")])
        return pa.table({"user_id": gb.column("user_id"),
                         "n_sessions": pc.add(gb.column("session_id_max"), 1)})

    return s.map_batches(per_user, batch_format="pyarrow")


def q_turn_transitions(sf_dir: str):
    """servicegraph-style edge metrics: (role -> next role) transition
    counts within conversations (stream-stream self-join on the
    conversation key, vectorized as a shift over the sorted group)."""
    from ..stages.aggregate import adjacent_pairs

    ds = read_transcripts(sf_dir)
    pairs = adjacent_pairs(ds, cols=("role",))
    return grouped_count(pairs, ["role", "next_role"], alias="n")


def q_top_users_by_value(sf_dir: str):
    """top-k heavy hitters: 10 users by total event value (integer cents),
    deterministic tie-break by user_id."""
    ds = _rd(sf_dir, "events", columns=["user_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "cents", pc.cast(pc.round(pc.multiply(t.column("value"), 100)), pa.int64()))

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    totals = grouped_sum(ds, ["user_id"], "cents", alias="total_cents")
    return totals.sort(["total_cents", "user_id"], descending=[True, False]).limit(10)


def q_redact_latency(sf_dir: str):
    """redactionprocessor analog: mask attribute values matching a
    blocklist regex; count masked per row (summary attrs)."""
    from ..stages.enrich import RedactionStage
    from ..stages.parse import RegexParser

    ds = read_transcripts(sf_dir)
    # untyped parse: latency stays a string so the value-blocklist sees it
    parser = RegexParser(
        r"^(?P<log_ts>\S+) (?P<level>[A-Z]+) tool=(?P<tool_name>\w+) "
        r"status=(?P<status>\w+) latency_ms=(?P<latency_ms>\d+) msg=(?P<msg>.*)$",
        if_condition='role == "tool"')
    ds = ds.map_batches(parser, batch_format="pyarrow")
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    ds = ds.map_batches(RedactionStage(blocked_value_patterns=[r"^\d+$"]),
                        batch_format="pyarrow")

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t.column("conv_id"),
                         "turn_idx": t.column("turn_idx"),
                         "latency_masked": t.column("attr_latency_ms"),
                         "masked_count": t.column("redaction_masked_count")})

    return ds.map_batches(project, batch_format="pyarrow")


def q_time_parse(sf_dir: str):
    """stanza time_parser: strptime layout parse of the extracted log
    timestamp into a typed timestamp column (helper/time.go:19-42)."""
    from ..stages.parse import TimeParser

    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    ds = ds.map_batches(TimeParser("attr_log_ts", layout="%Y-%m-%dT%H:%M:%SZ"),
                        batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["conv_id", "turn_idx", "time"]),
                          batch_format="pyarrow")


def q_recombine_salted(sf_dir: str):
    """Hot-key-salted recombine: two-level stitch (segments then merge).
    Same oracle as recombine_conversations — proves salting preserves
    semantics (associative concat in salt order)."""
    from ..stages.aggregate import recombine_salted

    return recombine_salted(read_transcripts(sf_dir), sep="\n", salt_rows=64)


def q_interval_counts(sf_dir: str):
    """intervalprocessor analog: tumbling 1-hour event-time windows per
    event_type (batch mode: the window key is a truncated-ts column;
    Streaming guide 'GROUP BY key, floor(ts/size)')."""
    ds = _rd(sf_dir, "events", columns=["event_type", "ts"])

    def window(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t.column("ts"), unit="hour")
        return t.append_column("window_start", w)

    ds = ds.map_batches(window, batch_format="pyarrow")
    return grouped_count(ds, ["event_type", "window_start"], alias="n")


def q_relabel_aggregate(sf_dir: str):
    """metricstransformprocessor analog: rename label values (strict
    match), then aggregate away a label (aggregate_labels sum)
    (processor/metricstransformprocessor/config.go:59-230)."""
    ds = _rd(sf_dir, "events", columns=["event_type", "value"])
    ds = ds.map_batches(TransformStage([
        'set(event_type, "page_view") where event_type == "view"',
        'set(event_type, "page_click") where event_type == "click"',
    ], error_mode="ignore"), batch_format="pyarrow")

    def to_cents(t: pa.Table) -> pa.Table:
        return t.append_column(
            "cents", pc.cast(pc.round(pc.multiply(t.column("value"), 100)), pa.int64()))

    ds = ds.map_batches(to_cents, batch_format="pyarrow")
    return grouped_sum(ds, ["event_type"], "cents", alias="total_cents")


def q_red_metrics(sf_dir: str):
    """spanmetricsconnector RED metrics: per (tool, status) call count +
    total latency + error count (connector.go:37-151), from parsed tool
    turns."""
    ds = _parsed(sf_dir)
    ds = ds.map_batches(KeepStage('role == "tool" and not (parse_failure == true)'),
                        batch_format="pyarrow")
    out = grouped_agg(ds, ["attr_tool_name", "attr_status"],
                      [("count", None, "calls"),
                       ("sum", "attr_latency_ms", "total_latency_ms"),
                       ("max", "attr_latency_ms", "max_latency_ms")],
                      combine="driver")
    return out.map_batches(
        lambda t: t.rename_columns(["tool_name", "status", "calls",
                                    "total_latency_ms", "max_latency_ms"]),
        batch_format="pyarrow")


def q_hash_bucket_counts(sf_dir: str):
    """loadbalancingexporter consistent-hash analog: rows per hash bucket
    of conv_id (the partition key for sharded sinks / co-located
    shuffles); md5-based so the oracle reproduces the placement."""
    from ..stages.sample import HashBucketStage

    ds = read_transcripts(sf_dir)
    ds = ds.map_batches(HashBucketStage("conv_id", num_buckets=16),
                        batch_format="pyarrow")
    return grouped_count(ds, ["bucket"], alias="n")


def q_groupbyattrs_promote(sf_dir: str):
    """groupbyattrsprocessor analog: promote a record attribute to
    resource level and compact records under each (resource) group
    (processor/groupbyattrsprocessor/processor.go:63-100) — flat-columnar
    it's a rename + grouped compaction count."""
    ds = _parsed(sf_dir)

    def promote(t: pa.Table) -> pa.Table:
        # record attr attr_tool_name -> resource column res_tool_name
        names = [("res_tool_name" if c == "attr_tool_name" else c)
                 for c in t.column_names]
        return t.rename_columns(names)

    ds = ds.map_batches(promote, batch_format="pyarrow")
    return grouped_count(ds, ["res_tool_name"], alias="n_records")


# ---- rows-only operators (no SQL oracle; driver records row counts) ------


def _planted_dup_docs(sf_dir: str):
    """documents + deterministic near-duplicate copies (doc_id + 100000,
    every 8th word dropped) — planted ground truth for near-dup ops."""
    import ray.data as rd
    import pyarrow.parquet as pq

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    texts = tbl.column("text").to_pylist()
    ids = tbl.column("doc_id").to_pylist()
    pert, pert_ids = [], []
    for i, t in zip(ids, texts):
        if i % 5 == 0:  # plant dups for 20% of docs
            words = (t or "").split()
            pert.append(" ".join(w for j, w in enumerate(words) if j % 8 != 7))
            pert_ids.append(i + 100_000)
    merged = pa.table({
        "doc_id": pa.array(ids + pert_ids, pa.int64()),
        "text": pa.array(texts + pert, pa.string()),
    })
    return rd.from_arrow(merged)


def _planted_pair_summary(pairs_ds, sf_dir: str, a_col: str, b_col: str):
    """Self-validating summary of a near-dup pair result against the
    KNOWN planted set (_planted_dup_docs plants (i, i+100000) for every
    doc_id % 5 == 0): one deterministic row — planted_pairs,
    found_planted, extra_pairs, recall_ppm (exact integer, no float
    hash risk).  The pair list itself is candidate-bucket-bounded, so
    pulling it to the driver for the summary is test-scale-only
    bookkeeping; recall floors are additionally pinned in pytest."""
    import pyarrow.parquet as pq

    ids = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id"]).column("doc_id").to_pylist()
    planted = {(i, i + 100_000) for i in ids if i % 5 == 0}
    got = pairs_ds.to_pandas()
    got_pairs = {(min(a, b), max(a, b)) for a, b in
                 zip(got[a_col].astype(int), got[b_col].astype(int))}
    found = len(planted & got_pairs)
    return pa.table({
        "planted_pairs": pa.array([len(planted)], pa.int64()),
        "found_planted": pa.array([found], pa.int64()),
        "extra_pairs": pa.array([len(got_pairs) - found], pa.int64()),
        "recall_ppm": pa.array(
            [found * 1_000_000 // max(len(planted), 1)], pa.int64()),
    })


def q_doc_fuzzy_new_vs_ref(sf_dir: str):
    """Cross-corpus FUZZY dedup (the near-dup companion of
    doc_new_vs_ref): docs 0-249 are the existing training set, docs
    250-499 the new crawl, plus planted perturbed copies (ref docs with
    doc_id % 5 == 0, every 16th word dropped — Jaccard safely above the
    0.6 band threshold — new_id = ref_id + 100000).  MinHash bands
    match new against ref only (stages/dedup.py minhash_pairs_against);
    self-validating summary row: planted copies found (100% at this
    perturbation), clean new docs flagged (a DETERMINISTIC count — the
    synthetic corpus contains genuine cross-half near-dups, cf.
    doc_exact_dups), and the survivor count of the full
    minhash_dedup_against drop (MinHash is not SQL-expressible; the
    recall floor is additionally pinned in pytest)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.dedup import minhash_dedup_against, minhash_pairs_against

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    cut = len(ids) // 2
    ref_ids, ref_texts = ids[:cut], texts[:cut]
    new_ids = list(ids[cut:])
    new_texts = list(texts[cut:])
    planted = []
    for i, t in zip(ref_ids, ref_texts):
        if i % 5 == 0:
            words = (t or "").split()
            new_ids.append(i + 100_000)
            new_texts.append(" ".join(
                w for j, w in enumerate(words) if j % 16 != 15))
            planted.append(i + 100_000)
    ref = rd.from_arrow(pa.table({"doc_id": pa.array(ref_ids, pa.int64()),
                                  "text": pa.array(ref_texts, pa.string())}))
    new = rd.from_arrow(pa.table({"doc_id": pa.array(new_ids, pa.int64()),
                                  "text": pa.array(new_texts, pa.string())}))
    # sign both corpora ONCE: the pairs Dataset feeds the summary stats
    # AND the dedup anti-join (pairs= reuse, not a second band shuffle)
    pairs_ds = minhash_pairs_against(new, ref, threshold=0.6).materialize()
    pairs = pairs_ds.to_pandas()
    flagged = set(pairs["new_id"].astype(int))
    planted_found = sum(1 for p in planted if p in flagged)
    clean_flagged = len(flagged - set(planted))
    survivors = minhash_dedup_against(new, ref, threshold=0.6,
                                      pairs=pairs_ds).count()
    return pa.table({
        "planted_copies": pa.array([len(planted)], pa.int64()),
        "planted_found": pa.array([planted_found], pa.int64()),
        "clean_new_flagged": pa.array([clean_flagged], pa.int64()),
        "survivors": pa.array([survivors], pa.int64()),
        "n_new": pa.array([len(new_ids)], pa.int64()),
    })


def q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-dup pairs over documents with planted
    duplicates, returned as a SELF-VALIDATING planted-recall summary row
    (MinHash is not SQL-expressible; the row carries the invariant the
    driver can see: found_planted/planted_pairs).  The perturbation
    (drop every 8th word) intentionally straddles the 0.6 shingle-
    Jaccard threshold, so recall_ppm reads as a boundary-behavior
    measurement, not a 100% target; the floor is pinned in pytest."""
    from ..stages.dedup import minhash_lsh_pairs

    ds = _planted_dup_docs(sf_dir)
    pairs = minhash_lsh_pairs(ds, threshold=0.6)
    return _planted_pair_summary(pairs, sf_dir, "doc_a", "doc_b")


def q_simhash_neardup(sf_dir: str):
    """SimHash near-dup pairs (banded 64-bit signatures) as a planted
    recall summary row (self-validating rows-only)."""
    from ..stages.dedup import simhash_pairs

    ds = _planted_dup_docs(sf_dir)
    pairs = simhash_pairs(ds, max_hamming=3)
    return _planted_pair_summary(pairs, sf_dir, "doc_a", "doc_b")


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas 2023): k-means the embedding space (deterministic
    seed centroids), flag within-cluster cosine near-dups against
    lower-id members.  Exact copies of every 5th vector are planted
    under shifted ids IN SQL-REPRODUCIBLE form, so the oracle replays
    the whole thing: list_distance+row_number assignment (the
    kmeans_assign idiom) + one EXISTS for the keep flag.  Threshold 0.9
    sits far above the isotropic-corpus natural max (~0.66 at sf0.1)
    and far below exact-copy cosine (~1.0) — no float-boundary flips."""
    from ..stages.cluster import seed_centroids
    from ..stages.dedup import semdedup_flags

    ds = _rd(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        copies = t.filter(pa.array(ids % 5 == 0))
        copies = copies.set_column(
            copies.schema.get_field_index("vec_id"), "vec_id",
            pc.add(copies.column("vec_id"), 100_000))
        return pa.concat_tables([t, copies])

    planted = ds.map_batches(plant, batch_format="pyarrow")
    cents = seed_centroids(planted, 8)
    out = semdedup_flags(planted, cents, threshold=0.9)
    return out.sort("vec_id")


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup (random-hyperplane LSH buckets) with
    planted noisy copies, returned as a self-validating planted-recall
    summary row (same contract as q_minhash_neardup)."""
    import ray.data as rd
    import pyarrow.parquet as pq
    from ..stages.dedup import embedding_neardup_pairs

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = tbl.column("vec_id").to_pylist()
    vecs = np.asarray(tbl.column("embedding").to_pylist(), dtype=np.float32)
    rng = np.random.RandomState(13)
    planted = vecs[::5] + rng.standard_normal(vecs[::5].shape).astype(np.float32) * 0.01
    pids = [i + 100_000 for i in ids[::5]]
    allv = np.concatenate([vecs, planted])
    merged = pa.table({
        "vec_id": pa.array(ids + pids, pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(allv.reshape(-1), pa.float32()), allv.shape[1]),
    })
    pairs = embedding_neardup_pairs(rd.from_arrow(merged), threshold=0.98) \
        .to_pandas()
    want = {(i, i + 100_000) for i in ids[::5]}
    got = set(zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)))
    got |= {(b, a) for a, b in got}
    found = len(want & got)
    return pa.table({
        "planted_pairs": pa.array([len(want)], pa.int64()),
        "found_planted": pa.array([found], pa.int64()),
        "extra_pairs": pa.array([len(got) // 2 - found], pa.int64()),
        "recall_ppm": pa.array(
            [found * 1_000_000 // max(len(want), 1)], pa.int64()),
    })


def q_neardup_clusters(sf_dir: str):
    """Near-dup clusters: MinHash-LSH pairs -> connected components ->
    (doc_id, cluster_id) with min-id canonical representative."""
    from ..stages.dedup import dedup_clusters, minhash_lsh_pairs

    ds = _planted_dup_docs(sf_dir)
    pairs = minhash_lsh_pairs(ds, threshold=0.6)
    return dedup_clusters(pairs)


def q_neardup_dedup_docs(sf_dir: str):
    """The full training-data near-dup REMOVAL pipeline in one plan:
    MinHash+LSH candidate pairs -> n-gram Jaccard verify -> connected
    components -> drop every non-representative -> surviving documents.
    Composition of the individual stages this catalog verifies one by
    one; rows-only for the driver (MinHash is not SQL-expressible), with
    invariants asserted in pytest (survivors = docs - (cluster members -
    representatives))."""
    from ..stages.dedup import (dedup_clusters, minhash_lsh_pairs,
                                ngram_jaccard_verify_joined)
    from ..stages.join import bucketed_hash_join

    ds = _planted_dup_docs(sf_dir)
    pairs = minhash_lsh_pairs(ds, threshold=0.6)
    # exact-jaccard verify via the DISTRIBUTED path: texts are semi-joined
    # onto candidate ids and shingled in place — nothing corpus-sized ever
    # reaches the driver (the earlier broadcast dict held EVERY text)
    verified = ngram_jaccard_verify_joined(pairs, ds, threshold=0.5)
    clusters = dedup_clusters(verified)
    # drop non-representatives: cluster members whose id != cluster_id,
    # removed with a bucketed anti-join (drop set can be corpus-fraction
    # sized at high dup rates — never broadcast it)
    drop = clusters.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t.column("doc_id"),
                                              t.column("cluster_id"))))
                   .select(["doc_id"]),
        batch_format="pyarrow")
    ids = ds.map_batches(lambda t: t.select(["doc_id"]),
                         batch_format="pyarrow")
    return bucketed_hash_join(ids, drop, on=["doc_id"], how="anti")


def q_doc_language_id(sf_dir: str):
    """Heuristic language ID over documents (oracle-checked: the
    distinct-stopword vote + first-wins argmax replays as SQL FILTER
    counts and an ordered CASE)."""
    from ..stages.textstats import LanguageId

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(LanguageId(), batch_format="pyarrow")
    return ds.map_batches(lambda t: t.select(["doc_id", "lang_guess"]),
                          batch_format="pyarrow").sort("doc_id")


def q_doc_quality(sf_dir: str):
    """Quality scoring columns over documents (oracle-checked: integer
    counts by identical RE2 patterns; ratios are single IEEE divisions
    of exact integers, bit-deterministic across numpy and DuckDB)."""
    from ..stages.textstats import QualityScore

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(QualityScore, batch_format="pyarrow", concurrency=(1, 4))
    return ds.map_batches(lambda t: t.drop_columns(["text"]),
                          batch_format="pyarrow").sort("doc_id")


def q_doc_fingerprint(sf_dir: str):
    """Rolling-hash fingerprints with a self-validating twist: every
    doc_id % 10 == 0 gets an EXACT copy planted at doc_id + 200000, and
    the per-doc rows carry ``copy_fp_match`` — the copy's fingerprint
    must equal the original's (hash determinism across tasks/batches),
    null for unplanted docs.  Rows-only; deterministic."""
    import ray.data as rd
    import pyarrow.parquet as pq

    from ..stages.textstats import Fingerprint

    tbl = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    cids = [i + 200_000 for i in ids if i % 10 == 0]
    ctxt = [t for i, t in zip(ids, texts) if i % 10 == 0]
    merged = pa.table({"doc_id": pa.array(ids + cids, pa.int64()),
                       "text": pa.array(texts + ctxt, pa.string())})
    out = rd.from_arrow(merged) \
        .map_batches(Fingerprint(), batch_format="pyarrow") \
        .map_batches(lambda t: t.select(["doc_id", "fingerprint"]),
                     batch_format="pyarrow").to_pandas()
    fp = out.set_index("doc_id")["fingerprint"]
    base = out[out.doc_id < 200_000].sort_values("doc_id")
    match = [bool(fp[i + 200_000] == fp[i]) if i % 10 == 0 else None
             for i in base.doc_id]
    return pa.table({
        "doc_id": pa.array(base.doc_id, pa.int64()),
        "fingerprint": pa.array(base.fingerprint),
        "copy_fp_match": pa.array(match, pa.bool_()),
    })


def q_fingerprint_check(sf_dir: str):
    """Document-fingerprint soundness invariant, oracle-checkable form:
    a rolling-hash fingerprint must be a FUNCTION of the text (equal
    texts -> equal fingerprints, so distinct fingerprints <= distinct
    texts) and collision-free on this corpus (distinct fingerprints ==
    distinct texts — a 64-bit hash colliding on a few-thousand-doc
    fixture would be a bug, not bad luck: expected collisions
    ~n^2/2^65).  Both counts are SQL-statable; the grouped distinct
    count runs distributed (kilobyte hash partials, never texts)."""
    from ..stages.textstats import Fingerprint

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    fp = ds.map_batches(Fingerprint(), batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"fingerprint": pc.unique(t.column("fingerprint"))})

    uniq = fp.map_batches(partial, batch_format="pyarrow")
    n_fp = grouped_agg(uniq, ["fingerprint"], [("count", None, "c")],
                       combine="bucket").count()
    return pa.table({
        "distinct_fingerprints": pa.array([int(n_fp)], pa.int64()),
    })


def q_knn_ivf(sf_dir: str):
    """IVF approximate top-k (scale path of similarity search) returned
    as SELF-VALIDATING integer rows: per query, brute-force-top-k hits
    plus max |sim - exact cosine recompute| over the returned ids in
    1e-12 units (IVF scores true cosines over probed lists, so 0 by
    construction).  Rows-only for the driver — approximate search has
    no SQL oracle — but the rows ARE the invariant."""
    from ..stages.similarity import ann_self_check, ivf_topk

    queries, ds = _embedding_queries(sf_dir)
    approx = ivf_topk(ds, queries, k=5, exclude_ids={0, 1, 2})
    return ann_self_check(approx, ds, queries, k=5, exclude_ids={0, 1, 2})


def q_knn_lsh(sf_dir: str):
    """LSH-bucketed approximate top-k (random-hyperplane signatures
    prune each batch locally against broadcast query signatures — no
    shuffle, no index), returned as per-query self-validating integer
    rows (brute-force hits + max sim recompute diff in 1e-12 units,
    expected 0)."""
    from ..stages.similarity import ann_self_check, lsh_topk

    queries, ds = _embedding_queries(sf_dir)
    approx = lsh_topk(ds, queries, k=5, n_bits=8, n_tables=16,
                      exclude_ids={0, 1, 2})
    return ann_self_check(approx, ds, queries, k=5, exclude_ids={0, 1, 2})


def q_opq_check(sf_dir: str):
    """OPQ learned-rotation invariants (stages/similarity.py opq_train,
    Ge et al. CVPR 2013), self-validating integer row the oracle
    states: (a) the learned R is orthonormal (max |R'R - I| entry
    > 1e-10 counts as a violation -> expected 0); (b) corpus-wide
    quantization MSE under (R, OPQ books) is <= plain pq_train's
    (guaranteed: round 1 of the warm-started alternation IS plain PQ
    with the same seeded RNG, and every later step is non-increasing)
    -> mse_improved expected 1; (c) n_vectors = count(*)."""
    from ..stages.similarity import opq_train, pq_quantization_mse, pq_train

    _, ds = _embedding_queries(sf_dir)
    books_pq = pq_train(ds, m=8, ksub=32)
    R, books_opq = opq_train(ds, m=8, ksub=32, opq_iters=4)
    n_vectors = ds.count()
    n_rot = int((np.abs(R.T @ R - np.eye(len(R))) > 1e-10).sum())
    mse_pq = pq_quantization_mse(ds, books_pq)
    mse_opq = pq_quantization_mse(ds, books_opq, R=R)
    improved = 1 if mse_opq <= mse_pq + 1e-12 else 0
    return pa.table({"n_vectors": pa.array([n_vectors], pa.int64()),
                     "n_rot_violations": pa.array([n_rot], pa.int64()),
                     "mse_improved": pa.array([improved], pa.int64())})


def q_knn_pq(sf_dir: str):
    """Product-quantization top-k (the STORAGE scale path of similarity
    search: float vectors scan as m uint8 codes, 64x smaller): train
    per-subspace codebooks, map-only encode, ADC LUT scan + exact rerank
    of the shortlist (stages/similarity.py pq_*).  Returned as per-query
    self-validating integer rows: rerank emits true cosines, so
    max_sim_diff_e12 == 0 exactly; brute-force hits are the
    quantization-quality floor pytest also pins."""
    from ..stages.similarity import ann_self_check, pq_encode, pq_topk, pq_train

    queries, ds = _embedding_queries(sf_dir)
    books = pq_train(ds, m=8, ksub=32)
    codes = pq_encode(ds, books).materialize()
    approx = pq_topk(codes, books, queries, k=5, rerank_ds=ds,
                     rerank_factor=5, exclude_ids={0, 1, 2})
    return ann_self_check(approx, ds, queries, k=5, exclude_ids={0, 1, 2})


def q_multimodal_pipeline(sf_dir: str):
    """Multimodal plumbing: binary payload -> decode (stub) -> features ->
    frame sampling (rows-only; deterministic fake decode)."""
    import ray.data as rd
    from ..stages.multimodal import (
        FrameSampler,
        ImageDecoder,
        ImageFeatureExtractor,
        synth_image_table,
    )

    ds = rd.from_arrow(synth_image_table(200))
    ds = ds.map_batches(ImageDecoder, batch_format="pyarrow", batch_size=32,
                        concurrency=(1, 2))
    ds = ds.map_batches(ImageFeatureExtractor(grid=4), batch_format="pyarrow",
                        batch_size=32)
    frames = ds.map_batches(FrameSampler(frames_per_item=4), batch_format="pyarrow",
                            batch_size=32)
    got = frames.map_batches(lambda t: t.select(["item_id", "frame_idx"]),
                             batch_format="pyarrow").to_pandas()
    # self-validating per-item rows: every item must emit exactly
    # frames_per_item=4 frames with contiguous indices 0..3
    per = got.groupby("item_id")["frame_idx"]
    items = sorted(per.groups)
    return pa.table({
        "item_id": pa.array(items, pa.int64()),
        "n_frames": pa.array([len(per.get_group(i)) for i in items],
                             pa.int64()),
        "frames_ok": pa.array(
            [sorted(per.get_group(i)) == [0, 1, 2, 3] for i in items],
            pa.bool_()),
    })


def q_image_dedup(sf_dir: str):
    """REAL image near-dup: decode BMP payloads in pure numpy, 8x8
    grayscale thumbnail, 64-bit average-hash, exact-match grouping on
    the hash (pixels never shuffle — only the 8-byte hash).  Planted
    duplicate pairs must land in 2-member groups (rows-only check; the
    decode is not SQL-expressible)."""
    import ray.data as rd

    from ..stages.multimodal import (
        ImageAHash,
        ImagePixelDecoder,
        synth_bmp_table,
    )

    n, dup_every = 210, 7
    ds = rd.from_arrow(synth_bmp_table(n, dup_every=dup_every))
    ds = ds.map_batches(ImagePixelDecoder, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 4))
    ds = ds.map_batches(ImageAHash(), batch_format="pyarrow")
    hashes = ds.map_batches(
        lambda t: t.select(["item_id", "ahash"]), batch_format="pyarrow") \
        .to_pandas().set_index("item_id")["ahash"]
    # self-validating summary: items 7b and 7b+1 share pixels by
    # construction — their aHashes MUST collide (decode is bit-real);
    # spurious collisions between distinct patterns show up as
    # extra_dup_groups (deterministic for the fixed seed)
    planted = n // dup_every
    recovered = sum(int(hashes[b * dup_every] == hashes[b * dup_every + 1])
                    for b in range(planted))
    counts = hashes.value_counts()
    return pa.table({
        "planted_pairs": pa.array([planted], pa.int64()),
        "recovered_pairs": pa.array([recovered], pa.int64()),
        "dup_groups": pa.array([int((counts >= 2).sum())], pa.int64()),
        "max_group_size": pa.array([int(counts.max())], pa.int64()),
    })


def q_embedding_dim_sums(sf_dir: str):
    """Explode/unnest a list column (make_explode — pure-Arrow
    list_flatten + parent-index arithmetic) then aggregate per element
    position: the relational UNNEST primitive over the embeddings
    table."""
    from ..stages.transform import make_explode

    ds = _rd(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    ex = ds.map_batches(
        make_explode("embedding", value_col="v", index_col="dim",
                     keep_cols=[], one_based=True),
        batch_format="pyarrow")

    def milli(t: pa.Table) -> pa.Table:
        m = pc.cast(pc.round(pc.multiply(pc.cast(t.column("v"), pa.float64()),
                                         1000.0)), pa.int64())
        return pa.table({"dim": t.column("dim"), "milli": m})

    return grouped_sum(ex.map_batches(milli, batch_format="pyarrow"),
                       ["dim"], "milli", alias="total_milli")


def q_customer_nations(sf_dir: str):
    """Map-side broadcast join (stages/join.py broadcast_join): customer
    x 25-row nation table, zero shuffle — the general-join twin of
    LookupEnricher."""
    import pyarrow.parquet as pq

    from ..stages.join import broadcast_join

    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"]) \
        .rename_columns(["c_nationkey", "n_name"])
    out = broadcast_join(cust, nation, on=["c_nationkey"], how="inner")
    return out.map_batches(
        lambda t: pa.table({"c_custkey": t.column("c_custkey").cast(pa.int64()),
                            "n_name": t.column("n_name")}),
        batch_format="pyarrow")


def q_doc_training_pipeline(sf_dir: str):
    """Composed training-data pipeline over documents: language+length
    filter -> exact dedup keeping the first doc per text (grouped_top_k
    k=1) -> token estimate -> per-source corpus stats.  Every stage is a
    primitive that is also oracle-checked standalone; this query checks
    the COMPOSITION end-to-end against one SQL statement."""
    from ..stages.aggregate import grouped_top_k
    from ..stages.textstats import TokenCount
    from ..stages.transform import KeepStage

    ds = _rd(sf_dir, "documents",
             columns=["doc_id", "text", "lang", "source", "n_chars"])
    ds = ds.map_batches(KeepStage('lang == "en" and n_chars >= 100'),
                        batch_format="pyarrow")
    kept = grouped_top_k(ds, ["text"], ["doc_id"], k=1, descending=False)
    tok = kept.map_batches(TokenCount(), batch_format="pyarrow")
    return grouped_agg(tok, ["source"],
                       [("count", None, "n_docs"),
                        ("sum", "n_tokens_est", "tokens_est")],
                       combine="driver")


def q_audio_pipeline(sf_dir: str):
    """Audio path (REAL kernels, unlike the stubbed image decode): PCM16
    clips -> fixed-duration chunk rows (flat_map shape) -> per-chunk
    RMS/ZCR/peak features on an actor-friendly batch contract."""
    import ray.data as rd

    from ..stages.multimodal import (
        AudioChunker,
        AudioFeatureExtractor,
        synth_audio_table,
    )

    ds = rd.from_arrow(synth_audio_table(100))
    chunks = ds.map_batches(AudioChunker, fn_constructor_kwargs={"chunk_ms": 250},
                            batch_format="pyarrow", batch_size=16,
                            concurrency=(1, 2))
    feats = chunks.map_batches(AudioFeatureExtractor(), batch_format="pyarrow",
                               batch_size=64)
    got = feats.map_batches(
        lambda t: t.select(["item_id", "chunk_idx", "rms", "zcr"]),
        batch_format="pyarrow").to_pandas()
    # self-validating per-item rows: a 1 s clip at 16 kHz MUST slice
    # into exactly four 250 ms chunks with contiguous indices, and the
    # planted 0.5-amplitude sine bounds the per-chunk RMS; floats
    # round to integer milli-units so the row hash is exact
    per = got.groupby("item_id")
    items = sorted(per.groups)
    return pa.table({
        "item_id": pa.array(items, pa.int64()),
        "n_chunks": pa.array([len(per.get_group(i)) for i in items],
                             pa.int64()),
        "chunks_ok": pa.array(
            [sorted(per.get_group(i)["chunk_idx"]) == [0, 1, 2, 3]
             for i in items], pa.bool_()),
        "rms_in_range": pa.array(
            # PCM normalized to [-1, 1]; the 0.5-amplitude sine + 0.05
            # noise floor lands near RMS 0.357
            [bool(per.get_group(i)["rms"].between(0.2, 0.5).all())
             for i in items], pa.bool_()),
        "rms_mean_milli": pa.array(
            [int(round(per.get_group(i)["rms"].mean() * 1000))
             for i in items], pa.int64()),
    })


RING_ENDPOINTS = ["backend-1", "backend-2", "backend-3"]


def q_ring_route_counts(sf_dir: str):
    """loadbalancingexporter consistent-hash ring placement
    (exporter/loadbalancingexporter/consistent_hashing.go:11-50): route
    every turn by its conversation's ring position, count per endpoint.
    The oracle replays the exact ring (inlined as a VALUES table) in
    SQL via md5_number_lower parity."""
    from ..stages.sample import ConsistentHashRing

    ds = read_transcripts(sf_dir, columns=["conv_id"])
    ring = ConsistentHashRing(RING_ENDPOINTS, weight=100, source="conv_id")
    routed = ds.map_batches(ring, batch_format="pyarrow")
    return grouped_count(routed, ["endpoint"], alias="n")


def _ring_oracle_sql() -> str:
    from ..stages.sample import ConsistentHashRing

    ring = ConsistentHashRing(RING_ENDPOINTS, weight=100, source="conv_id")
    vals = ", ".join(f"({p}, '{e}')" for p, e in ring.placements())
    return f"""
        WITH ring(pos, ep) AS (VALUES {vals}),
        a AS (SELECT md5_number_lower(conv_id) % 36000 AS kp FROM {_T}),
        b AS (SELECT kp, count(*) AS n FROM a GROUP BY kp)
        SELECT coalesce(
                 (SELECT ep FROM ring WHERE pos >= b.kp ORDER BY pos LIMIT 1),
                 (SELECT ep FROM ring ORDER BY pos LIMIT 1)) AS endpoint,
               sum(n)::BIGINT AS n
        FROM b GROUP BY 1"""


def _events_of_type(sf_dir: str, etype: str, columns=None):
    ds = _rd(sf_dir, "events", columns=columns)
    return ds.map_batches(
        lambda t, e=etype: t.filter(pc.equal(t.column("event_type"), e)),
        batch_format="pyarrow")


def q_purchase_before_click(sf_dir: str):
    """As-of join (operator Ray Data lacks; composed per the brief):
    every click pairs with the user's most recent purchase at-or-before
    the click.  One hash shuffle on user_id, pandas merge_asof per
    bucket (stages/join.py asof_join)."""
    from ..stages.join import asof_join

    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    clicks = _events_of_type(sf_dir, "click", cols)
    # merge_asof consumes the right ON column, so carry the purchase time
    # in its own column to surface it in the result
    purchases = _events_of_type(sf_dir, "purchase", cols).map_batches(
        lambda t: t.append_column("p_ts", t.column("ts")),
        batch_format="pyarrow")
    joined = asof_join(clicks, purchases, by="user_id", on="ts",
                       direction="backward", how="inner")

    def out(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "ts": t.column("ts"),
                         "p_ts": t.column("p_ts"),
                         "p_value": t.column("value_r")})

    return joined.map_batches(out, batch_format="pyarrow")


def q_clicks_in_signup_window(sf_dir: str):
    """Range/interval join: clicks landing within 1 hour (inclusive)
    after a signup by the same user, counted per signup.  Time-binned
    interval replication (stages/join.py range_join) — the right side
    replicates per overlapped bin, each left row joins in its own bin."""
    from ..stages.join import range_join

    HOUR = 3_600_000_000

    def us(t: pa.Table, *outs) -> pa.Table:
        v = t.column("ts").cast(pa.int64())
        for name, off in outs:
            t = t.append_column(name, pc.add(v, off))
        return t

    clicks = _events_of_type(sf_dir, "click", ["event_id", "ts", "user_id",
                                               "event_type"]) \
        .map_batches(lambda t: us(t, ("ts_us", 0)), batch_format="pyarrow")
    signups = _events_of_type(sf_dir, "signup", ["event_id", "ts", "user_id",
                                                 "event_type"]) \
        .map_batches(lambda t: us(t, ("start_us", 0), ("end_us", HOUR)),
                     batch_format="pyarrow")
    joined = range_join(clicks, signups, left_ts="ts_us",
                        right_start="start_us", right_end="end_us",
                        by="user_id", bin_width_us=HOUR)
    pairs = joined.map_batches(
        lambda t: pa.table({"signup_id": t.column("event_id_r").cast(pa.int64())}),
        batch_format="pyarrow")
    return grouped_count(pairs, ["signup_id"], alias="n_clicks",
                         combine="bucket")


def q_sliding_window_counts(sf_dir: str):
    """Sliding-window aggregate (1h windows every 15min) by event_type via
    stream slicing: rows collapse into 15-min slices first; only slice
    partials replicate x4 (stages/aggregate.py sliding_window_agg)."""
    from ..stages.aggregate import sliding_window_agg

    ds = _rd(sf_dir, "events", columns=["ts", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)), pa.int64())
        return t.append_column("cents", c)

    ds = ds.map_batches(cents, batch_format="pyarrow")
    return sliding_window_agg(
        ds, "ts",
        [("count", None, "n_events"), ("sum", "cents", "total_cents")],
        window_us=3_600_000_000, slide_us=900_000_000, keys=["event_type"])


def q_orders_with_lineitems(sf_dir: str):
    """Bucketed SEMI join: orders having at least one lineitem — the
    shuffle alternative to a broadcast key-set filter for big right
    sides (stages/join.py bucketed_hash_join how='semi')."""
    from ..stages.join import bucketed_hash_join

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    li = _rd(sf_dir, "lineitem", columns=["l_orderkey"]) \
        .map_batches(lambda t: t.rename_columns(["o_orderkey"]),
                     batch_format="pyarrow")
    out = bucketed_hash_join(orders, li, on=["o_orderkey"], how="semi")
    return out.map_batches(
        lambda t: pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100.0)), pa.int64())}),
        batch_format="pyarrow")


def q_orders_without_lineitems(sf_dir: str):
    """Bucketed ANTI join: orders with NO lineitems."""
    from ..stages.join import bucketed_hash_join

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    li = _rd(sf_dir, "lineitem", columns=["l_orderkey"]) \
        .map_batches(lambda t: t.rename_columns(["o_orderkey"]),
                     batch_format="pyarrow")
    out = bucketed_hash_join(orders, li, on=["o_orderkey"], how="anti")
    return out.map_batches(
        lambda t: pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(
                t.column("o_totalprice"), 100.0)), pa.int64())}),
        batch_format="pyarrow")


def q_top3_events_per_type(sf_dir: str):
    """Per-group top-k (grouped_top_k): 3 highest-value events per
    event_type, value ties broken by event_id.  Batch-level pre-prune
    means the shuffle moves at most k rows per (group, batch)."""
    from ..stages.aggregate import grouped_top_k

    ds = _rd(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t.column("event_id"),
            "event_type": t.column("event_type"),
            "cents": pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                             pa.int64())})

    ds = ds.map_batches(cents, batch_format="pyarrow")
    return grouped_top_k(ds, ["event_type"], ["cents", "event_id"], k=3,
                         descending=[True, False])


def q_latency_quantiles_by_tool(sf_dir: str):
    """Exact per-group discrete quantiles (percentile_disc semantics):
    p50/p95/p99 tool latency (stages/aggregate.py grouped_quantile —
    one bucketed shuffle, vectorized offset arithmetic per bucket)."""
    from ..stages.aggregate import grouped_quantile

    ds = _parsed(sf_dir)

    def keep(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t.column("attr_latency_ms"))
        return t.filter(m).select(["attr_tool_name", "attr_latency_ms"])

    ds = ds.map_batches(keep, batch_format="pyarrow")
    return grouped_quantile(ds, ["attr_tool_name"], "attr_latency_ms",
                            qs=(0.5, 0.95, 0.99))


def q_event_value_quantiles_cont(sf_dir: str):
    """Interpolated per-group quantiles (percentile_cont / DuckDB
    quantile_cont semantics): grouped_quantile(interpolate=True) —
    pos = q*(n-1), lo + (hi-lo)*frac in double, the exact op order the
    oracle uses, so the floats hash-match."""
    from ..stages.aggregate import grouped_quantile

    ds = _rd(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantile(ds, ["event_type"], "value",
                            qs=(0.25, 0.5, 0.9),
                            aliases=("q25", "q50", "q90"),
                            interpolate=True).sort("event_type")


def q_approx_latency_quantiles(sf_dir: str):
    """Mergeable bottom-k-by-hash quantile sketch (the 100 TB path when
    one group exceeds a worker): deterministic uniform sample per group,
    kilobyte shuffles, rank error O(1/sqrt(k)).  Fully oracle-checked:
    md5 bottom-k is bit-replayable in DuckDB (md5_number_lower), so the
    oracle reconstructs the exact sample and its percentile_disc."""
    from ..stages.sketch import approx_quantile

    ds = _parsed(sf_dir)

    def keep(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t.column("attr_latency_ms"))
        t = t.filter(m)
        return pa.table({
            "tool": t.column("attr_tool_name"),
            "lat": t.column("attr_latency_ms"),
            "rid": pc.binary_join_element_wise(
                t.column("conv_id"),
                pc.cast(t.column("turn_idx"), pa.string()), ":")})

    ds = ds.map_batches(keep, batch_format="pyarrow")
    return approx_quantile(ds, "lat", "rid", qs=(0.5, 0.95, 0.99),
                           k=2048, keys=["tool"])


def q_stratified_event_sample(sf_dir: str):
    """Deterministic stratified sample: 5 events per event_type picked
    by md5 order of event_id — run-stable and SQL-replayable, unlike
    random sampling (stages/aggregate.py stratified_sample)."""
    from ..stages.aggregate import stratified_sample

    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])
    return stratified_sample(ds, ["event_type"], n_per_group=5,
                             id_col="event_id")


_DECONTAM_BENCH_MAX_ID = 50  # docs below this id play the eval benchmark


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3 appx-C recipe): flag corpus docs
    sharing >= 1 distinct 8-token n-gram with the benchmark slice
    (doc_id < 50).  Benchmark grams broadcast once (ray.put, sorted
    uint64 probe); the corpus side is map-only — zero shuffle at 100 TB
    (stages/decontam.py)."""
    from ..stages.decontam import decontaminate

    K = _DECONTAM_BENCH_MAX_ID
    docs = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    bench = docs.map_batches(
        lambda t: t.filter(pc.less(t.column("doc_id"), K)),
        batch_format="pyarrow")
    corpus = docs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("doc_id"), K)),
        batch_format="pyarrow")
    out = decontaminate(corpus, bench, n=8, threshold=1)

    def flagged(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("contaminated"))
        return t.select(["doc_id", "contam_ngrams"])

    return out.map_batches(flagged, batch_format="pyarrow")


def q_doc_fuzzy_match_blocked(sf_dir: str):
    """Record-linkage fuzzy match: block documents on their first 16
    code points, then EXACT-verify same-block pairs by Levenshtein
    distance over the first 200 code points, keeping dist <= 20
    (stages/linkage.py — the exact-verify counterpart of the MinHash
    candidate generators; the banded DP drops far pairs early).  The
    oracle replays it verbatim: substr self-join + DuckDB
    levenshtein()."""
    from ..stages.linkage import blocked_levenshtein_pairs

    docs = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = blocked_levenshtein_pairs(
        docs, id_col="doc_id", text_col="text",
        block_chars=16, cmp_chars=200, max_dist=20)
    return pairs.sort(["id_a", "id_b"])


def q_entity_clusters(sf_dir: str):
    """Entity resolution end-to-end: blocked Levenshtein match edges ->
    connected components -> (doc_id, cluster_id) with the min doc id as
    the canonical representative.  This drives dedup_clusters (the same
    min-label-propagation CC that backs the MinHash dedup pipelines)
    through a fully SQL-expressible edge set, so the CLUSTERING step
    itself is oracle-checked: DuckDB replays the closure as a recursive
    min-reachability CTE.  Only nodes incident to at least one edge are
    returned (singletons are their own trivial cluster on both sides)."""
    from ..stages.dedup import dedup_clusters
    from ..stages.linkage import blocked_levenshtein_pairs

    docs = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = blocked_levenshtein_pairs(
        docs, id_col="doc_id", text_col="text",
        block_chars=16, cmp_chars=200, max_dist=20)
    edges = pairs.map_batches(
        lambda t: pa.table({"doc_a": t.column("id_a"),
                            "doc_b": t.column("id_b")}),
        batch_format="pyarrow")
    return dedup_clusters(edges).sort("doc_id")


def q_metric_resample(sf_dir: str):
    """Gap-fill / forward-fill resample: every event series aligned to
    an hourly grid, value = latest observation at or before each grid
    point, null in the staleness region before the first one
    (stages/resample.py — the batch re-expression of the collector's
    intervalprocessor tick semantics).  The oracle replays the plan as
    DISTINCT keys x generate_series grid ASOF LEFT JOIN the per-(key,ts)
    max-reduced observations."""
    from ..stages.resample import resample_ffill

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])
    out = resample_ffill(ds, by="event_type", ts_col="ts",
                         value_col="value", step_us=3_600_000_000)
    return out.sort(["event_type", "grid_ts"])


def q_event_value_trend(sf_dir: str):
    """Per-event-type value drift: Pearson correlation + OLS slope of
    integer event-value cents against the epoch-day of the event — the
    regr_slope/corr analytics family, computed from EXACT int64
    sufficient statistics with one fixed float op order so the oracle's
    HUGEINT-sum arithmetic matches bitwise
    (stages/aggregate.py grouped_linear_stats)."""
    from ..stages.aggregate import grouped_linear_stats

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])

    def quantize(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        86_400_000_000)
        cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                        pa.int64())
        return pa.table({"event_type": t.column("event_type"),
                         "day": day, "cents": cents})

    tbl = grouped_linear_stats(
        ds.map_batches(quantize, batch_format="pyarrow"),
        ["event_type"], "day", "cents")
    return tbl.sort_by("event_type")


def q_doc_decontaminate_frac(sf_dir: str):
    """Overlap-FRACTION decontamination (the PaLM/FLAN/Llama variant of
    the GPT-3 recipe): a corpus doc is contaminated when >= 95% (19/20)
    of its distinct 8-grams appear in the benchmark slice, evaluated as
    the integer cross-multiplication matching*20 >= 19*total — exact,
    no float boundary.  The 19/20 gate splits the sf0.01 fixture's
    planted near-copies (one sits at 17/18 < 0.95), so both branches of
    the flag are exercised.  Same broadcast-probe shape as
    doc_decontaminate: map-only, zero shuffle at 100 TB."""
    from ..stages.decontam import decontaminate

    K = _DECONTAM_BENCH_MAX_ID
    docs = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    bench = docs.map_batches(
        lambda t: t.filter(pc.less(t.column("doc_id"), K)),
        batch_format="pyarrow")
    corpus = docs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("doc_id"), K)),
        batch_format="pyarrow")
    out = decontaminate(corpus, bench, n=8, frac=(19, 20))

    def hits(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("contam_ngrams"), 0))
        return t.select(["doc_id", "contam_ngrams", "total_ngrams",
                         "contaminated"])

    return out.map_batches(hits, batch_format="pyarrow").sort("doc_id")


def q_doc_decontaminate_bloom(sf_dir: str):
    """Scale-path decontamination: the reference side compressed into a
    fixed-size Bloom filter (built distributed, OR-reduced partials —
    constant bytes per batch), probed map-side.  Returned as a
    SELF-VALIDATING one-row comparison against the exact 8-gram-set path
    run in the same plan: ``bloom_missed`` MUST be 0 (a Bloom filter has
    no false negatives — any miss is a bug, not an approximation) and
    ``bloom_extra`` is the visible false-positive count.  Rows-only for
    the driver; the exact path is separately oracle-checked as
    doc_decontaminate."""
    import ray

    from ..stages.decontam import (
        BloomDecontaminator,
        build_bloom_ngrams,
        decontaminate,
    )

    K = _DECONTAM_BENCH_MAX_ID
    docs = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    bench = docs.map_batches(
        lambda t: t.filter(pc.less(t.column("doc_id"), K)),
        batch_format="pyarrow")
    corpus = docs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("doc_id"), K)),
        batch_format="pyarrow")
    bloom = build_bloom_ngrams(bench, n=8, m_bits=1 << 20, k=4)
    dec = BloomDecontaminator(ray.put(bloom.to_bytes()), n=8, threshold=1)
    out = corpus.map_batches(dec, batch_format="pyarrow")

    def flagged(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("contaminated"))
        return t.select(["doc_id"])

    bloom_ids = set(out.map_batches(flagged, batch_format="pyarrow")
                    .to_pandas()["doc_id"].astype(int))
    exact = decontaminate(corpus, bench, n=8, threshold=1)
    exact_ids = set(exact.map_batches(flagged, batch_format="pyarrow")
                    .to_pandas()["doc_id"].astype(int))
    return pa.table({
        "exact_flagged": pa.array([len(exact_ids)], pa.int64()),
        "bloom_flagged": pa.array([len(bloom_ids)], pa.int64()),
        "bloom_missed": pa.array([len(exact_ids - bloom_ids)], pa.int64()),
        "bloom_extra": pa.array([len(bloom_ids - exact_ids)], pa.int64()),
    })


def q_doc_repetition(sf_dir: str):
    """Gopher-style within-doc repetition stats (duplicate-bigram and
    top-bigram fractions, integer ppm) — per-batch map, no shuffle
    (stages/decontam.py RepetitionStats)."""
    from ..stages.decontam import RepetitionStats

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(RepetitionStats(n=2), batch_format="pyarrow")

    def out(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("n_grams"), 0))
        return t.select(["doc_id", "dup_gram_ppm", "top_gram_ppm"])

    return ds.map_batches(out, batch_format="pyarrow")


MIX_WEIGHTS = {"src0": 2.0, "src1": 0.5, "src2": 1.25, "src3": 0.0}


def q_doc_mix_sources(sf_dir: str):
    """Training-mixture weighting (stages/sample.py SourceMixer): src0
    twice per epoch, src1 half, src2 1.25 passes, src3 dropped, the
    rest 1.0.  Deterministic md5 fractional epochs — the oracle replays
    the identical verdicts with md5_number_lower."""
    from ..stages.sample import mix_sources

    ds = _rd(sf_dir, "documents", columns=["doc_id", "source"])
    out = mix_sources(ds, MIX_WEIGHTS)
    return out.sort(["doc_id", "epoch"])


def q_doc_pii_scrub(sf_dir: str):
    """PII scrub (stages/pii.py): plant deterministic PII derived from
    doc_id (the synthetic corpus has none), scrub all four categories,
    return the scrubbed text + per-category counts.  The oracle plants
    the identical strings in SQL and applies the same RE2 chain."""
    from ..stages.pii import PiiScrubber

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        did = t.column("doc_id")
        d = np.asarray(did.to_numpy(zero_copy_only=False))
        pad4 = pc.utf8_lpad(pc.cast(pa.array(d % 10000), pa.string()), 4, "0")
        ssn = pc.if_else(pa.array(d % 3 == 0),
                         pa.scalar(" ssn 123-45-6789"), pa.scalar(""))
        text = pc.binary_join_element_wise(
            pc.fill_null(t.column("text"), ""),
            pa.scalar(" contact user"), pc.cast(did, pa.string()),
            pa.scalar("@example.com call 555-010-"), pad4, ssn,
            pa.scalar(" ip 10."), pc.cast(pa.array(d % 256), pa.string()),
            pa.scalar(".0.1"), pa.scalar(""))
        idx = t.column_names.index("text")
        return t.set_column(idx, "text", text)

    planted = ds.map_batches(plant, batch_format="pyarrow")
    out = planted.map_batches(PiiScrubber(), batch_format="pyarrow")
    return out.sort("doc_id")


def q_doc_substring_dups(sf_dir: str):
    """Exact substring dedup, mark mode (Lee et al. 2022): every 8-token
    window occurring >= 2 times corpus-wide, as (doc_id, pos).  Only
    24-byte (hash, doc, pos) triples shuffle — the documents don't
    (stages/substringdedup.py)."""
    from ..stages.substringdedup import duplicate_windows

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    out = duplicate_windows(ds, w=8, keep_keeper=False)
    return out.sort(["doc_id", "pos"])


def q_doc_substring_cut(sf_dir: str):
    """Exact substring dedup, cut mode: remove every duplicated
    >=8-token substring down to one corpus-wide copy, report per-doc
    remaining chars (rows-only check — the span surgery itself is
    covered by pytest + the mark-mode oracle)."""
    from ..stages.substringdedup import dedup_substrings

    out = dedup_substrings(
        lambda: _rd(sf_dir, "documents", columns=["doc_id", "text"]), w=8)

    def stats(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_chars_after": pc.utf8_length(t.column("text")).cast(pa.int64())})

    return out.map_batches(stats, batch_format="pyarrow").sort("doc_id")


def _doc_language_id_sql() -> str:
    """DuckDB replay of stages/textstats.py LanguageId: per-language
    DISTINCT-stopword votes, argmax with first-language-wins ties
    (profile insertion order), script overrides, empty -> unknown."""
    from ..stages.textstats import _CJK, _CYRILLIC, _LANG_PROFILES

    langs = list(_LANG_PROFILES)
    vote_cols = []
    coal = []
    for lang in langs:
        words = ", ".join(f"'{w}'" for w in sorted(_LANG_PROFILES[lang]))
        vote_cols.append(
            f"count(DISTINCT t) FILTER (WHERE t IN ({words})) AS v_{lang}")
        coal.append(f"coalesce(v.v_{lang}, 0) AS v_{lang}")
    # argmax, first max wins: lang_i wins when its vote >= every later one
    case = []
    for i, lang in enumerate(langs):
        conds = [f"v_{lang} >= v_{later}" for later in langs[i + 1:]]
        cond = " AND ".join(conds) if conds else "TRUE"
        case.append(f"WHEN {cond} THEN '{lang}'")
    gmax = ", ".join(f"v_{lang}" for lang in langs)
    return rf"""
        WITH tok AS (
          SELECT doc_id, unnest(regexp_extract_all(
                     lower(coalesce(text, '')), '\w+')) AS t
          FROM documents),
        votes AS (
          SELECT doc_id, {", ".join(vote_cols)}
          FROM tok GROUP BY doc_id),
        full_votes AS (
          SELECT d.doc_id, d.text, {", ".join(coal)}
          FROM documents d LEFT JOIN votes v USING (doc_id))
        SELECT doc_id,
               CASE WHEN text IS NULL OR text = '' THEN 'unknown'
                    WHEN regexp_matches(text, '{_CJK.pattern}')
                        THEN 'zh'
                    WHEN regexp_matches(text, '{_CYRILLIC.pattern}')
                        THEN 'ru'
                    WHEN greatest({gmax}) = 0 THEN 'unknown'
                    {" ".join(case)}
                    END AS lang_guess
        FROM full_votes ORDER BY doc_id"""


def _doc_quality_sql() -> str:
    """DuckDB replay of stages/textstats.py QualityScore (patterns and
    stopword alternation imported from the stage — one source of
    truth)."""
    from ..stages.textstats import _LANG_PROFILES

    stop_alt = r"\b(" + "|".join(sorted(_LANG_PROFILES["en"])) + r")\b"
    return rf"""
        WITH m AS (
          SELECT doc_id,
                 lower(coalesce(text, '')) AS lo,
                 CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars
          FROM documents),
        c AS (
          SELECT doc_id, lo, n_chars,
                 CAST(len(regexp_extract_all(lo, '\w+')) AS BIGINT)
                     AS n_tokens,
                 CAST(length(lo) - length(regexp_replace(lo, '\w+', '',
                     'g')) AS BIGINT) AS word_chars,
                 CAST(len(regexp_extract_all(lo, '{stop_alt}')) AS BIGINT)
                     AS stop_hits,
                 CAST(len(regexp_extract_all(lo, '\d')) AS BIGINT)
                     AS digits,
                 CAST((SELECT count(DISTINCT t)
                       FROM unnest(regexp_extract_all(lo, '\w+')) AS u(t))
                      AS BIGINT) AS n_distinct
          FROM m)
        SELECT doc_id,
               n_chars AS q_n_chars,
               n_tokens AS q_n_tokens,
               CASE WHEN n_tokens > 0
                    THEN CAST(word_chars AS DOUBLE) / n_tokens
                    ELSE 0.0 END AS q_mean_word_len,
               CASE WHEN n_tokens > 0
                    THEN CAST(stop_hits AS DOUBLE) / n_tokens
                    ELSE 0.0 END AS q_stop_ratio,
               CASE WHEN n_tokens > 0
                    THEN CAST(n_distinct AS DOUBLE) / n_tokens
                    ELSE 0.0 END AS q_distinct_ratio,
               CAST(digits AS DOUBLE) / greatest(n_chars, 1)
                   AS q_digit_ratio
        FROM c ORDER BY doc_id"""


def _plant_lines(t: pa.Table) -> pa.Table:
    """Deterministically restructure each document into 4 lines (the
    synthetic corpus has no newlines): boilerplate lines repeat across
    docs (the C4 dedup target), content lines are fixed substrings with
    varying terminal punctuation, and ~9% of docs get a blocklist line.
    The SQL side (_LINES_PLANT_SQL) is the identical expression."""
    did = t.column("doc_id")
    d = np.asarray(did.to_numpy(zero_copy_only=False))
    filled = pc.fill_null(t.column("text"), "")
    lines = []
    for i in range(4):
        boiler = pc.binary_join_element_wise(
            pa.scalar("shared boilerplate footer number "),
            pc.cast(pa.array((d + i) % 3), pa.string()),
            pa.scalar("."), pa.scalar(""))
        content = pc.utf8_slice_codeunits(filled, i * 37, i * 37 + 29)
        punct = pc.if_else(pa.array((d + i) % 4 != 0),
                           pa.scalar("."), pa.scalar(""))
        content = pc.binary_join_element_wise(content, punct, pa.scalar(""))
        line = pc.if_else(pa.array((d + i) % 5 < 2), boiler, content)
        if i == 2:
            line = pc.if_else(
                pa.array(d % 11 == 7),
                pa.scalar("bad js javascript { lorem ipsum } line here."),
                line)
        lines.append(line)
    t2 = pc.binary_join_element_wise(*lines, pa.scalar("\n"))
    return t.set_column(t.column_names.index("text"), "text", t2)


def _plant_lines_ds(sf_dir: str):
    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(_plant_lines, batch_format="pyarrow")


def _lines_plant_sql() -> str:
    parts = []
    for i in range(4):
        bad = ("WHEN doc_id % 11 = 7 THEN "
               "'bad js javascript { lorem ipsum } line here.' "
               if i == 2 else "")
        parts.append(
            f"CASE {bad}WHEN (doc_id + {i}) % 5 < 2 THEN "
            f"'shared boilerplate footer number ' || "
            f"CAST((doc_id + {i}) % 3 AS VARCHAR) || '.' "
            f"ELSE substr(coalesce(text, ''), {1 + i * 37}, 29) || "
            f"CASE WHEN (doc_id + {i}) % 4 <> 0 THEN '.' ELSE '' END END")
    joined = " || chr(10) || ".join(parts)
    return f"(SELECT doc_id, {joined} AS t FROM documents)"


def q_doc_pack_sequences(sf_dir: str):
    """Sequence packing for pretraining: estimate tokens per doc, then
    greedily pack whole docs (doc_id order) into capacity-256 context
    bins per source stream.  One bucketed shuffle by source; bins
    assigned with an O(#bins) searchsorted loop (stages/packing.py).
    The oracle replays the greedy fill as a recursive CTE."""
    from ..stages.packing import pack_sequences
    from ..stages.textstats import TokenCount

    ds = _rd(sf_dir, "documents", columns=["doc_id", "source", "text"])
    ds = ds.map_batches(TokenCount(), batch_format="pyarrow")
    ds = ds.map_batches(lambda t: t.drop_columns(["text"]),
                        batch_format="pyarrow")
    out = pack_sequences(ds, capacity=256, token_col="n_tokens_est")
    return out.map_batches(
        lambda t: t.select(["doc_id", "source", "n_tokens_est",
                            "bin_id", "bin_offset"]),
        batch_format="pyarrow").sort("doc_id")


def q_doc_url_normalize(sf_dir: str):
    """CC/C4-style URL canonicalization before URL dedup: plant a
    deterministic messy URL per doc, normalize (lowercase authority,
    strip fragment / tracking params / default ports / trailing slash),
    emit (doc_id, url_norm, host).  Map-only RE2 chain
    (stages/urltools.py); the oracle replays the identical chain."""
    from ..stages.urltools import UrlNormalizer

    ds = _rd(sf_dir, "documents", columns=["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        did = t.column("doc_id")
        d = np.asarray(did.to_numpy(zero_copy_only=False))
        ds_ = pc.cast(did, pa.string())
        url = pc.binary_join_element_wise(
            pc.if_else(pa.array(d % 2 == 0), pa.scalar("HTTPS"),
                       pa.scalar("HTTP")),
            pa.scalar("://WWW.Site"), pc.cast(pa.array(d % 7), pa.string()),
            pa.scalar(".COM"),
            pc.if_else(pa.array(d % 3 == 0), pa.scalar(":443"),
                       pc.if_else(pa.array(d % 3 == 1), pa.scalar(":80"),
                                  pa.scalar(""))),
            pa.scalar("/Path"), pc.cast(pa.array(d % 5), pa.string()),
            pc.if_else(pa.array(d % 4 == 0), pa.scalar("/"), pa.scalar("")),
            pa.scalar("?utm_source=a&id="), ds_,
            pa.scalar("&utm_campaign=b"),
            pc.if_else(pa.array(d % 3 == 0), pa.scalar("#frag"),
                       pa.scalar("")),
            pa.scalar(""))
        return t.append_column("url", url)

    out = ds.map_batches(plant, batch_format="pyarrow") \
        .map_batches(UrlNormalizer(), batch_format="pyarrow") \
        .map_batches(lambda t: t.select(["doc_id", "url_norm", "host"]),
                     batch_format="pyarrow")
    return out.sort("doc_id")


def q_doc_lm_score(sf_dir: str):
    """CCNet-style n-gram LM familiarity: build corpus bigram counts
    (min_count=2), score each doc as sum floor(log2(1+count)) — integer
    exact on both sides (stages/lmscore.py).  Only (hash, count) pairs
    shuffle; the pruned model broadcasts once."""
    from ..stages.lmscore import lm_familiarity

    out = lm_familiarity(
        lambda: _rd(sf_dir, "documents", columns=["doc_id", "text"]),
        n=2, min_count=2)
    return out.map_batches(
        lambda t: t.select(["doc_id", "n_ngrams", "lm_score"]),
        batch_format="pyarrow").sort("doc_id")


def q_doc_dsir(sf_dir: str):
    """DSIR-shape importance resampling (Xie et al. 2023): rank docs by
    target-model minus raw-model quantized bigram familiarity, keep the
    top 50 (ties broken by doc_id).  Target distribution = source 'src0'
    docs; raw = whole corpus.  Both models integer-exact, so the oracle
    replays the whole selection (stages/lmscore.py dsir_select)."""
    from ..stages.lmscore import dsir_select

    def src0_mask(t: pa.Table):
        return pc.fill_null(pc.equal(t.column("source"), "src0"), False) \
            .to_numpy(zero_copy_only=False)

    out = dsir_select(
        lambda: _rd(sf_dir, "documents",
                    columns=["doc_id", "text", "source"]),
        None, k=50, n=2, min_count=2, target_mask=src0_mask)
    return out.sort("doc_id")


def q_doc_shuffle(sf_dir: str):
    """Deterministic global training-data shuffle: rank = md5(doc_id:7)
    mod 2^62, dataset range-sorted by it (stages/sample.py
    deterministic_shuffle).  The emitted rank pins the exact permutation
    against the oracle."""
    from ..stages.sample import deterministic_shuffle

    out = deterministic_shuffle(
        _rd(sf_dir, "documents", columns=["doc_id", "source"]),
        key_col="doc_id", seed=7)
    return out


def q_doc_budget_sample(sf_dir: str):
    """Token-budget-capped mixture: per source, docs in md5(doc_id:7)
    order accumulate until the source budget; src0 caps at 2000 chars,
    src1 at 3000, every other source is uncapped (stages/sample.py
    budget_sample — one bucketed shuffle + vectorized cumsum)."""
    from ..stages.sample import budget_sample

    out = budget_sample(
        _rd(sf_dir, "documents", columns=["doc_id", "source", "n_chars"]),
        budgets={"src0": 2000, "src1": 3000}, token_col="n_chars", seed=7)
    return out.map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow").sort("doc_id")


def q_doc_temperature_mix(sf_dir: str):
    """Temperature-based source mixing (GPT-3/LLaMA recipe, alpha=0.5):
    per-source budgets proportional to floor(sqrt(source token total)) —
    small domains up-weight — then budget_sample's deterministic
    first-N-by-md5-order per source.  Budget arithmetic is exact int64
    (stages/sample.py temperature_mix)."""
    from ..stages.sample import temperature_mix

    out = temperature_mix(
        _rd(sf_dir, "documents", columns=["doc_id", "source", "n_chars"]),
        total_tokens=40000, token_col="n_chars", seed=11)
    return out.map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow").sort("doc_id")


def q_doc_classifier(sf_dir: str):
    """fastText-style hashed linear quality scoring: token -> md5 % 1024
    bucket -> integer weight sum; keep when score > 0 (stages/
    classifier.py — map-only, md5 once per distinct token per batch).
    Weights here are the deterministic SQL-replayable table; production
    passes a trained quantized vector."""
    from ..stages.classifier import classify_docs

    out = classify_docs(_rd(sf_dir, "documents", columns=["doc_id", "text"]),
                        n_buckets=1024)
    return out.map_batches(
        lambda t: t.select(["doc_id", "clf_score", "keep"]),
        batch_format="pyarrow").sort("doc_id")


def q_doc_new_vs_ref(sf_dir: str):
    """Incremental-corpus dedup: docs 250+ are the 'new crawl', docs
    0-249 the existing training set; keep new docs whose content hash
    is unseen (stages/dedup.py dedup_against — only 16-byte hashes
    shuffle, one anti join)."""
    import pyarrow.compute as pc
    from ..stages.dedup import dedup_against

    docs = lambda: _rd(sf_dir, "documents", columns=["doc_id", "text"])  # noqa: E731
    new = docs().map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("doc_id"), 250)),
        batch_format="pyarrow")
    ref = docs().map_batches(
        lambda t: t.filter(pc.less(t.column("doc_id"), 250)),
        batch_format="pyarrow")
    out = dedup_against(new, ref)
    # the join's typed-null union padding floats doc_id in pandas land
    return out.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id").cast(pa.int64())}),
        batch_format="pyarrow").sort("doc_id")


def q_funnel_stages(sf_dir: str):
    """Sequential conversion funnel signup -> click -> purchase per user
    (each stage strictly after the previous stage's completion time);
    one co-partitioning shuffle, vectorized conditional mins per bucket
    (stages/aggregate.py funnel)."""
    from ..stages.aggregate import funnel

    out = funnel(_rd(sf_dir, "events",
                     columns=["user_id", "event_type", "ts"]),
                 stages=[("signup", "signup"), ("click", "click"),
                         ("purchase", "purchase")])
    return out.map_batches(
        lambda t: t.select(["user_id", "ts_signup", "ts_click",
                            "ts_purchase", "reached"]),
        batch_format="pyarrow").sort("user_id")


def q_retention_weekly(sf_dir: str):
    """Weekly cohort retention over events: cohort = first-activity
    week, count of users active per (cohort, week offset)
    (stages/aggregate.py retention_cohorts — only distinct
    (cohort, offset) pairs leave each bucket)."""
    from ..stages.aggregate import retention_cohorts

    out = retention_cohorts(_rd(sf_dir, "events",
                                columns=["user_id", "ts"]))
    return out.sort(["cohort_period", "period_offset"])


def q_doc_normalize(sf_dir: str):
    """Unicode normalization before dedup (C4/CCNet preprocessing):
    NFC + lowercase + whitespace collapse, map-only Arrow kernels
    (stages/textfilters.py TextNormalizer)."""
    from ..stages.textfilters import TextNormalizer

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(TextNormalizer(out_col="text_norm"),
                          batch_format="pyarrow") \
        .map_batches(lambda t: t.select(["doc_id", "text_norm"]),
                     batch_format="pyarrow").sort("doc_id")


_HTML_PLANT_SCRIPT = ('<script type="text/javascript">'
                      'var x = 1 < 2; // </p> trap</script>')
_HTML_PLANT_EXTRAS = '<!-- hidden --> &amp;amp; &lt;tag&gt;&nbsp;&#39;q&#39;'


def _plant_html(t: pa.Table) -> pa.Table:
    """Wrap each doc's text in deterministic HTML (tags, one href, a
    script block with a </p> trap on doc_id%3==0, comment + entity
    soup on doc_id%4==0).  The SQL side of doc_html_extract builds the
    identical expression, so extraction is compared end-to-end."""
    d = np.asarray(t.column("doc_id").to_numpy(zero_copy_only=False))
    did = pc.cast(t.column("doc_id"), pa.string())
    txt = pc.fill_null(t.column("text"), "")
    script = pc.if_else(pa.array(d % 3 == 0),
                        pa.scalar(_HTML_PLANT_SCRIPT), pa.scalar(""))
    extras = pc.if_else(pa.array(d % 4 == 0),
                        pa.scalar(_HTML_PLANT_EXTRAS), pa.scalar(""))
    html = pc.binary_join_element_wise(
        pa.scalar("<html><body><h1>Doc "), did,
        pa.scalar('</h1><p class="b">'), txt,
        pa.scalar('</p><a href="https://example.com/d/'), did,
        pa.scalar('">link</a>'), script, extras,
        pa.scalar("</body></html>"), pa.scalar(""))
    return t.set_column(t.column_names.index("text"), "text", html)


def q_doc_html_extract(sf_dir: str):
    """Web-corpus HTML -> text extraction (stages/textfilters.py
    HtmlExtractor): script/style/comment drop, block tags -> separator,
    tag strip, named-entity decode, whitespace collapse, plus n_links
    counted on the raw html.  Map-only RE2 Arrow kernels; the oracle
    replays every step with regexp_replace/replace/trim on identically
    planted HTML."""
    from ..stages.textfilters import HtmlExtractor

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(_plant_html, batch_format="pyarrow") \
        .map_batches(HtmlExtractor(count_links=True),
                     batch_format="pyarrow").sort("doc_id")


def q_doc_chunks(sf_dir: str):
    """RAG-style overlapping character chunking: 180-codepoint chunks
    with 30 overlap, one row per chunk (stages/textfilters.py
    chunk_documents — map-only flat expansion, vectorized per chunk
    index, codepoint semantics identical to SQL substr)."""
    from ..stages.textfilters import chunk_documents

    out = chunk_documents(_rd(sf_dir, "documents",
                              columns=["doc_id", "text"]),
                          chunk_size=180, overlap=30)
    return out.sort(["doc_id", "chunk_idx"])


def q_doc_ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing: per-token-normalized LM
    familiarity (integer: lm_score*1000 // n_ngrams), exact global
    terciles via a VALUE histogram (distinct scores shuffle, never
    docs), head/middle/tail assigned map-side against the broadcast
    thresholds.  head = most target-like (CCNet keeps head+middle)."""
    from ..stages.lmscore import lm_familiarity

    scored = lm_familiarity(
        lambda: _rd(sf_dir, "documents", columns=["doc_id", "text"]),
        n=2, min_count=2)

    def norm(t: pa.Table) -> pa.Table:
        s = pc.multiply(t.column("lm_score"), pa.scalar(1000, pa.int64()))
        d = pc.max_element_wise(t.column("n_ngrams"),
                                pa.scalar(1, pa.int64()))
        return pa.table({"doc_id": t.column("doc_id"),
                         "score_norm": pc.divide(s, d)})

    scored = scored.map_batches(norm, batch_format="pyarrow").materialize()
    t1, t2 = _hist_thresholds(scored, "score_norm",
                              [lambda t: (t + 2) // 3,
                               lambda t: (2 * t + 2) // 3])

    def bucket(t: pa.Table) -> pa.Table:
        s = t.column("score_norm")
        b = pc.if_else(pc.less_equal(s, t1), "tail",
                       pc.if_else(pc.less_equal(s, t2), "middle", "head"))
        return t.append_column("bucket", b)

    return scored.map_batches(bucket, batch_format="pyarrow").sort("doc_id")


def q_approx_distinct_users(sf_dir: str):
    """Per-group approximate COUNT(DISTINCT): one HLL register set per
    (event_type, batch) shuffles instead of one row per distinct pair —
    the scale path past exact distinct_users_by_type (stages/sketch.py
    approx_distinct_grouped).  Approximate -> rows-only check, but
    SELF-VALIDATING: the exact grouped distinct runs in the same plan
    and every row carries ``err_ppm`` = |approx - exact| * 1e6 / exact
    (HLL expected well under 80000 ppm; the bound is also pinned in
    pytest)."""
    from ..stages.sketch import approx_distinct_grouped

    approx = approx_distinct_grouped(
        _rd(sf_dir, "events", columns=["event_type", "user_id"]),
        ["event_type"], "user_id").to_pandas()
    exact = q_distinct_users_by_type(sf_dir).to_pandas()
    m = approx.merge(exact, on="event_type").sort_values("event_type")
    err = ((m["approx_distinct"] - m["n_users"]).abs() * 1_000_000
           // m["n_users"].clip(lower=1))
    return pa.table({
        "event_type": pa.array(m["event_type"]),
        "approx_distinct": pa.array(m["approx_distinct"].astype(int),
                                    pa.int64()),
        "exact_distinct": pa.array(m["n_users"].astype(int), pa.int64()),
        "err_ppm": pa.array(err.astype(int), pa.int64()),
    })


def q_doc_keywords(sf_dir: str):
    """Top-3 TF-IDF keywords per document (corpus labeling): score =
    tf * ln(N/df) from exact int64 counts in one fixed op order — the
    float column hashes bitwise against SQL (stages/relevance.py
    tfidf_keywords; zero row shuffles)."""
    import ray.data as rd
    from ..stages.relevance import tfidf_keywords

    # bare read_parquet count = parquet METADATA, no scan
    n_docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet")).count()
    out = tfidf_keywords(
        lambda: _rd(sf_dir, "documents", columns=["doc_id", "text"]),
        k=3, n_docs=n_docs)
    return out.sort(["doc_id", "rank"])


def q_doc_curriculum(sf_dir: str):
    """Curriculum data ordering: band documents into exact length
    quartiles (value-histogram thresholds — distinct lengths shuffle,
    never docs), then order deterministically within each band
    (md5(doc_id:11)) — the shortest-first curriculum with run-stable
    intra-band shuffling.  Fully SQL-replayable: band thresholds +
    rank formula."""
    from ..stages.sample import shuffle_key_column

    ds = _rd(sf_dir, "documents", columns=["doc_id", "n_chars"])
    thr = _hist_thresholds(ds, "n_chars",
                           [lambda t, q=q: (q * t + 3) // 4
                            for q in (1, 2, 3)])

    def assign(t: pa.Table) -> pa.Table:
        x = t.column("n_chars")
        band = pc.if_else(
            pc.less_equal(x, thr[0]), 1,
            pc.if_else(pc.less_equal(x, thr[1]), 2,
                       pc.if_else(pc.less_equal(x, thr[2]), 3, 4)))
        # a NULL length propagates a null condition; SQL CASE falls to
        # ELSE 4, so pin the same
        band = pc.fill_null(band, 4)
        t = t.append_column("band", pc.cast(band, pa.int64()))
        return t.append_column("shuffle_key",
                               shuffle_key_column(t, "doc_id", 11))

    return ds.map_batches(assign, batch_format="pyarrow") \
        .sort(["band", "shuffle_key", "doc_id"])


def q_hard_negatives(sf_dir: str):
    """Hard-negative mining for embedding training: for 3 anchor
    vectors, the top-5 most-similar OTHER vectors (exact cosine here;
    swap in knn_pq/ivf for the approximate scale path).  Approximate
    ranking task shape -> exact per-pair sims, but no SQL oracle is
    registered because `embedding_knn` already oracle-checks the same
    kernel; this query exists as the named mining pipeline."""
    from ..stages.similarity import brute_force_topk

    queries, ds = _embedding_queries(sf_dir)
    return brute_force_topk(ds, queries, k=5, exclude_ids={0, 1, 2})


def q_doc_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling (Efraimidis-Spirakis A-Res):
    20 docs per source, inclusion probability proportional to n_chars
    (quality/length-weighted subsampling).  Run-stable and replayed
    term-for-term by the oracle (stages/sample.py weighted_sample)."""
    from ..stages.sample import weighted_sample

    out = weighted_sample(
        _rd(sf_dir, "documents", columns=["doc_id", "source", "n_chars"]),
        n=20, weight_col="n_chars", seed=13, group_cols=["source"])
    return out.map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow").sort("doc_id")


def q_conversion_latency(sf_dir: str):
    """Time-to-convert distribution: exact median/p95 microseconds from
    signup to purchase over converted users (strict-order funnel +
    value-histogram quantiles — distinct deltas shuffle, never users)."""
    import pandas as pd
    from ..stages.aggregate import funnel

    f = funnel(_rd(sf_dir, "events",
                   columns=["user_id", "event_type", "ts"]),
               stages=[("signup", "signup"), ("click", "click"),
                       ("purchase", "purchase")])

    def delta(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("reached"), 3))
        d = pc.subtract(t.column("ts_purchase").cast(pa.int64()),
                        t.column("ts_signup").cast(pa.int64()))
        return pa.table({"delta_us": d})

    deltas = f.map_batches(delta, batch_format="pyarrow")
    (p50, p95), n = _hist_thresholds(
        deltas, "delta_us",
        [lambda t: (t + 1) // 2, lambda t: (95 * t + 99) // 100],
        return_total=True)
    # zero conversions mirrors the oracle: count 0, NULL quantiles
    return pd.DataFrame({"n_converted": pd.array([n], dtype="int64"),
                         "p50_us": pd.array([p50], dtype="Int64"),
                         "p95_us": pd.array([p95], dtype="Int64")})


def q_doc_block_ids(sf_dir: str):
    """GPT-2-style corpus packing WITHOUT materializing the
    concatenation: a distributed exclusive prefix sum over doc_id order
    assigns every doc its global token offset; block_id = offset // 512
    and block_offset = offset % 512 say exactly where each doc lands in
    the fixed-size training blocks (docs may span blocks — the
    concatenate-and-split recipe, vs doc_pack_sequences' whole-doc
    bins).  stages/aggregate.py ordered_prefix_sum: range buckets +
    driver base offsets + one bucketed local scan."""
    from ..stages.aggregate import ordered_prefix_sum

    ds = _rd(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def tokens(t: pa.Table) -> pa.Table:
        # chars//4: the standard cheap token estimate
        tok = pc.divide(t.column("n_chars"), pa.scalar(4, pa.int64()))
        return pa.table({"doc_id": t.column("doc_id"), "tok": tok})

    out = ordered_prefix_sum(ds.map_batches(tokens, batch_format="pyarrow"),
                             "doc_id", "tok", out_col="offset")

    def blocks(t: pa.Table) -> pa.Table:
        off = t.column("offset")
        blk = pc.divide(off, pa.scalar(512, pa.int64()))
        rem = pc.subtract(off, pc.multiply(blk, pa.scalar(512, pa.int64())))
        return (t.append_column("block_id", blk)
                 .append_column("block_offset", rem))

    return out.map_batches(blocks, batch_format="pyarrow").sort("doc_id")


def q_doc_c4_line_filter(sf_dir: str):
    """C4 line-level cleanup (Raffel et al. 2020 §2.2): keep lines with
    >= 3 words ending in terminal punctuation that don't match the
    javascript/lorem-ipsum/brace blocklist.  Map-only Arrow kernels —
    zero shuffle (stages/textfilters.py LineFilter)."""
    from ..stages.textfilters import LineFilter

    return _plant_lines_ds(sf_dir).map_batches(
        LineFilter(min_words=3), batch_format="pyarrow").sort("doc_id")


def q_doc_c4_gate(sf_dir: str):
    """C4 document-level gates as integer-exact flags (word count,
    mean word length via integer inequality, sentence count, blocklist).
    Map-only (stages/textfilters.py C4DocFilter)."""
    from ..stages.textfilters import C4DocFilter

    return _plant_lines_ds(sf_dir).map_batches(
        C4DocFilter(min_words=5, min_sentences=1),
        batch_format="pyarrow").sort("doc_id")


def _plant_gopher(t: pa.Table) -> pa.Table:
    """Deterministically decorate each document so every Gopher gate has
    both passing and failing rows: bullet-heavy docs (every 4th; every
    16th exceeds the 90% line ratio), ellipsis-terminated lines (every
    5th), '#' symbol runs (every 11th), digit-only words (every 13th),
    truncated-short docs (every 17th).  The SQL side
    (_gopher_plant_sql) is the identical expression."""
    d = np.asarray(t.column("doc_id").to_numpy(zero_copy_only=False))
    filled = pc.fill_null(t.column("text"), "")
    base = pc.if_else(pa.array(d % 17 == 5),
                      pc.utf8_slice_codeunits(filled, 0, 10),
                      pc.utf8_slice_codeunits(filled, 0, 120))
    bullets = pc.if_else(
        pa.array(d % 16 == 0), pa.scalar("\n- bullet item" * 12),
        pc.if_else(pa.array(d % 4 == 0),
                   pa.scalar("\n- bullet item" * 3), pa.scalar("")))
    ell = pc.if_else(pa.array(d % 5 == 1),
                     pa.scalar("\nto be continued...\nmore to come..."),
                     pa.scalar(""))
    sym = pc.if_else(pa.array(d % 11 == 3),
                     pa.scalar("\n# # # # # # # # # # # # #"),
                     pa.scalar(""))
    digits = pc.if_else(
        pa.array(d % 13 == 4),
        pa.scalar("\n111 222 333 444 555 666 777 888 999 000 111 222"),
        pa.scalar(""))
    t2 = pc.binary_join_element_wise(base, bullets, ell, sym, digits,
                                     pa.scalar(""))
    return t.set_column(t.column_names.index("text"), "text", t2)


def _gopher_plant_sql() -> str:
    return (
        "(SELECT doc_id, "
        "CASE WHEN doc_id % 17 = 5 THEN substr(coalesce(text,''), 1, 10) "
        "ELSE substr(coalesce(text,''), 1, 120) END "
        "|| CASE WHEN doc_id % 16 = 0 THEN repeat(chr(10) || '- bullet item', 12) "
        "WHEN doc_id % 4 = 0 THEN repeat(chr(10) || '- bullet item', 3) "
        "ELSE '' END "
        "|| CASE WHEN doc_id % 5 = 1 THEN chr(10) || 'to be continued...' "
        "|| chr(10) || 'more to come...' ELSE '' END "
        "|| CASE WHEN doc_id % 11 = 3 THEN chr(10) || "
        "'# # # # # # # # # # # # #' ELSE '' END "
        "|| CASE WHEN doc_id % 13 = 4 THEN chr(10) || "
        "'111 222 333 444 555 666 777 888 999 000 111 222' ELSE '' END "
        "AS t FROM documents)")


def q_doc_gopher_gate(sf_dir: str):
    """Gopher/MassiveText document-quality gates (Rae et al. 2021 App.
    A1.1): word count, mean word length, symbol-to-word ratio, bullet /
    ellipsis line ratios, alphabetic-word ratio, required-stopword
    presence — every ratio an exact integer cross-multiplication.
    Map-only (stages/textfilters.py GopherQualityFilter)."""
    from ..stages.textfilters import GopherQualityFilter

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(_plant_gopher, batch_format="pyarrow")
    return ds.map_batches(
        GopherQualityFilter(min_words=5, min_stop_hits=1),
        batch_format="pyarrow") \
        .select_columns(["doc_id", "n_words", "n_lines", "n_alpha_words",
                         "n_stop_hits", "keep"]) \
        .sort("doc_id")


def q_doc_line_dedup(sf_dir: str):
    """Corpus-wide exact line dedup, first occurrence wins (C4's
    repeated-line rule).  Only (hash, doc_id, line_idx) triples shuffle
    (stages/textfilters.py dedup_lines).  Runs strategy="join" — the
    co-partitioned cut-delivery scale path (cuts grouped per doc and
    joined to the documents; nothing corpus-wide on the driver) — so
    the oracle validates the 100 TB plan, not just the broadcast one;
    a pytest pins broadcast-vs-join parity."""
    from ..stages.textfilters import dedup_lines

    return dedup_lines(lambda: _plant_lines_ds(sf_dir),
                       strategy="join").sort("doc_id")


def q_doc_top_ngrams(sf_dir: str):
    """Corpus-wide most-frequent word 3-grams (boilerplate/template
    mining before writing dedup rules — the RefinedWeb diagnostic).
    Per-batch gram counts collapse text before any exchange; one
    bucketed combine + per-bucket top-k pre-prune; count-desc/gram-asc
    total order (stages/relevance.py top_ngrams)."""
    from ..stages.relevance import top_ngrams

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    return top_ngrams(ds, n=3, k=20, min_count=2)


_BM25_TERMS = ["spark", "vector", "stream"]


def q_doc_token_df(sf_dir: str):
    """Corpus document frequency per token, min_df-pruned (the DF half
    of an inverted index; stages/relevance.py).  Shuffle volume is
    vocab-per-batch — partial counts combine before the groupby."""
    from ..stages.relevance import token_df

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    return token_df(ds, min_df=5)


def q_doc_bm25(sf_dir: str):
    """Two-pass BM25 query scoring (stages/relevance.py): pass 1 reduces
    the corpus to exact ints (N, sum dl, per-term df), pass 2 broadcasts
    them into a stateless vectorized scorer.  The score derives from
    exact ints through a fixed op order, so the SQL oracle matches
    bitwise."""
    from ..stages.relevance import bm25

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    scored = bm25(ds, _BM25_TERMS)
    return scored.map_batches(lambda t: t.select(["doc_id", "score"]),
                              batch_format="pyarrow").sort("doc_id")


def q_kmeans_assign(sf_dir: str):
    """Nearest-centroid assignment sizes under deterministic seed
    centroids — the map half of distributed Lloyd (stages/cluster.py).
    The oracle replays assignment with list_distance + row_number."""
    from ..stages.cluster import cluster_sizes, seed_centroids

    ds = _rd(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents = seed_centroids(ds, 8)
    return cluster_sizes(ds, cents)


def q_kmeans_clusters(sf_dir: str):
    """Full distributed Lloyd (3 iterations, k=8) then cluster sizes.
    Rows-only: iterated centroids accumulate float sums in batch order;
    convergence is pytest-checked on planted blobs."""
    from ..stages.cluster import cluster_sizes, kmeans_fit

    ds = _rd(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents, _ = kmeans_fit(ds, k=8, iters=3)
    return cluster_sizes(ds, cents)


def q_doc_length_filter(sf_dir: str):
    """Corpus-percentile length gate (training-data length-outlier
    removal): exact p95 via a VALUE histogram — distinct int lengths
    shuffle, never rows — then the threshold broadcasts into a
    stateless filter.  percentile_disc semantics: sorted[ceil(qn)-1]."""
    ds = _rd(sf_dir, "documents", columns=["doc_id", "n_chars"])
    # ceil(0.95 * total) = percentile_disc semantics, exact
    [thr] = _hist_thresholds(ds, "n_chars",
                             [lambda t: (95 * t + 99) // 100])
    return ds.map_batches(
        lambda t: t.filter(pc.less_equal(t.column("n_chars"), thr)),
        batch_format="pyarrow").sort("doc_id")


def q_doc_zscore(sf_dir: str):
    """Per-source z-score normalization of document length: ONE
    partial-agg pass reduces each source to exact int64 (n, sum, sum of
    squares); the constants broadcast into a stateless vectorized map.
    mean/var/z derive through a fixed op order (mean = s/n,
    var = ss/n - mean^2, z = (x-mean)/sqrt(var)) so the SQL oracle
    matches bitwise."""
    import ray

    from ..stages.aggregate import grouped_agg

    ds = _rd(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def sq(t: pa.Table) -> pa.Table:
        x = t.column("n_chars")
        return t.append_column("n_sq", pc.multiply(x, x))

    stats = grouped_agg(
        ds.map_batches(sq, batch_format="pyarrow"), ["source"],
        [("count", None, "n"), ("sum", "n_chars", "s"), ("sum", "n_sq", "ss")],
        combine="driver").to_pandas()
    srcs = stats["source"].tolist()
    n = stats["n"].to_numpy(dtype=np.float64)
    s = stats["s"].to_numpy(dtype=np.float64)
    ss = stats["ss"].to_numpy(dtype=np.float64)
    mean = s / n
    var = ss / n - mean * mean
    ref = ray.put((pa.array(srcs, pa.string()), mean, var))

    def zscore(t: pa.Table) -> pa.Table:
        srcs, mean, var = ray.get(ref)  # zero-copy broadcast read
        idx = pc.index_in(t.column("source"), value_set=srcs) \
                .to_numpy(zero_copy_only=False)
        m, v = mean[idx], var[idx]
        x = t.column("n_chars").to_numpy(zero_copy_only=False) \
             .astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(v > 0, (x - m) / np.sqrt(v), 0.0)
        return pa.table({"doc_id": t.column("doc_id"), "z": pa.array(z)})

    return ds.map_batches(zscore, batch_format="pyarrow").sort("doc_id")


def q_rollup_event_counts(sf_dir: str):
    """Two-level ROLLUP (event_type, hour): ONE distributed partial-count
    pass produces the finest level; supergroups re-aggregate the tiny
    finest table on the driver — the textbook rollup optimization (no
    second scan).  NULL rollup slots use sentinels ('ALL', -1) so the
    comparison is null-free."""
    import pandas as pd

    ds = _rd(sf_dir, "events", columns=["event_type", "ts"])

    def hour(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t.column("event_type"),
                         "hour": pc.hour(t.column("ts")).cast(pa.int64())})

    finest = grouped_count(ds.map_batches(hour, batch_format="pyarrow"),
                           ["event_type", "hour"], alias="n",
                           combine="driver").to_pandas()
    lvl1 = finest.groupby("event_type", as_index=False)["n"].sum()
    lvl1["hour"] = -1
    lvl0 = pd.DataFrame({"event_type": ["ALL"], "hour": [-1],
                         "n": [finest["n"].sum()]})
    out = pd.concat([finest, lvl1[["event_type", "hour", "n"]], lvl0],
                    ignore_index=True)
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_cube_event_counts(sf_dir: str):
    """GROUP BY CUBE (event_type, iso-dow): like the ROLLUP query, ONE
    distributed finest-level pass; all 2^k-1 supergroup levels
    re-aggregate the tiny finest table driver-side (no second scan, no
    extra shuffle).  Sentinels ('ALL', -1) keep the compare null-free."""
    import pandas as pd

    ds = _rd(sf_dir, "events", columns=["event_type", "ts"])

    def dow(t: pa.Table) -> pa.Table:
        d = pc.add(pc.day_of_week(t.column("ts")).cast(pa.int64()),
                   pa.scalar(1, pa.int64()))  # ISO: Monday=1..Sunday=7
        return pa.table({"event_type": t.column("event_type"), "dow": d})

    finest = grouped_count(ds.map_batches(dow, batch_format="pyarrow"),
                           ["event_type", "dow"], alias="n",
                           combine="driver").to_pandas()
    by_type = finest.groupby("event_type", as_index=False)["n"].sum()
    by_type["dow"] = -1
    by_dow = finest.groupby("dow", as_index=False)["n"].sum()
    by_dow["event_type"] = "ALL"
    total = pd.DataFrame({"event_type": ["ALL"], "dow": [-1],
                          "n": [finest["n"].sum()]})
    out = pd.concat([finest, by_type[["event_type", "dow", "n"]],
                     by_dow[["event_type", "dow", "n"]], total],
                    ignore_index=True)
    out["n"] = out["n"].astype("int64")
    out["dow"] = out["dow"].astype("int64")
    return out.sort_values(["event_type", "dow"]).reset_index(drop=True)


def q_pivot_event_counts(sf_dir: str):
    """PIVOT: wide per-hour table, one count column per event type.
    Single pass — per-batch boolean-mask int columns feed a partial-agg
    sum, so the wide layout costs no extra scan and no shuffle."""
    from ..stages.aggregate import grouped_agg

    ds = _rd(sf_dir, "events", columns=["event_type", "ts"])

    def masks(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        cols = {"hour": pc.hour(t.column("ts")).cast(pa.int64())}
        for v in _EVENT_TYPES:
            cols[f"n_{v}"] = pc.cast(pc.equal(et, v), pa.int64())
        return pa.table(cols)

    return grouped_agg(ds.map_batches(masks, batch_format="pyarrow"),
                       ["hour"],
                       [("sum", f"n_{v}", f"n_{v}") for v in _EVENT_TYPES],
                       combine="driver")


def q_role_pmi(sf_dir: str):
    """Pointwise mutual information of (role -> next role) transitions:
    the distributed adjacent-pair count (servicegraph edge machinery)
    reduces to a tiny table; marginals and PMI derive from those exact
    ints via one fixed-order formula (libm log), bit-replayable in SQL."""
    import math

    from ..stages.aggregate import adjacent_pairs

    ds = read_transcripts(sf_dir)
    pairs = adjacent_pairs(ds, cols=("role",))
    df = grouped_count(pairs, ["role", "next_role"], alias="n").to_pandas()
    total = int(df["n"].sum())
    na = df.groupby("role")["n"].transform("sum").astype("int64")
    nb = df.groupby("next_role")["n"].transform("sum").astype("int64")
    df["pmi"] = [
        math.log((float(n_ab) * float(total)) / (float(a) * float(b)))
        for n_ab, a, b in zip(df["n"], na, nb)]
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["role", "next_role"]).reset_index(drop=True)


def q_distinct_users_by_type(sf_dir: str):
    """Exact grouped COUNT(DISTINCT): per-batch distinct (type, user)
    pairs (grouped_agg's partial phase dedups inside every batch), ONE
    bucketed hash shuffle co-locates pairs, then a tiny per-type count.
    The scale-safe exact path; the approximate path is stages/sketch.py
    HLL (approx_distinct_convs)."""
    from ..stages.aggregate import grouped_agg

    ds = _rd(sf_dir, "events", columns=["event_type", "user_id"])
    # count(DISTINCT user_id) excludes NULLs — drop them before pairing
    # (grouped_agg would otherwise keep a NULL-user group per type)
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t.column("user_id"))),
        batch_format="pyarrow")
    pairs = grouped_agg(ds, ["event_type", "user_id"],
                        [("count", None, "_n")], combine="bucket")
    return grouped_count(
        pairs.map_batches(lambda t: t.select(["event_type"]),
                          batch_format="pyarrow"),
        ["event_type"], alias="n_users", combine="driver")


_Q3_CUT = "1998-06-01"


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape: broadcast semi-filter (BUILDING customers) into
    the orders scan, filter both scans at the read, ONE co-partitioning
    shuffle joins lineitem x orders on orderkey, revenue aggregates as
    exact integer (cents x (100 - discount%)), top-10 with a
    deterministic tie-break.  Revenue stays int64 end-to-end so the
    oracle hash is exact."""
    import ray

    from ..stages.join import bucketed_hash_join

    cut = np.datetime64(_Q3_CUT, "us")
    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    keys = cust.map_batches(
        lambda t: t.filter(pc.equal(t.column("c_mktsegment"), "BUILDING"))
                   .select(["c_custkey"]),
        batch_format="pyarrow").take_all()
    key_set = ray.put(pa.array(sorted(r["c_custkey"] for r in keys),
                               type=pa.int64()))

    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def order_filter(t: pa.Table) -> pa.Table:
        # broadcast probe in a plain task: ray.get of the key set is a
        # zero-copy local-object-store read — an actor pool here only
        # adds startup latency (no expensive per-worker setup to cache)
        ks = ray.get(key_set)
        m = pc.and_(pc.is_in(t.column("o_custkey"), value_set=ks),
                    pc.less(t.column("o_orderdate"), pa.scalar(cut)))
        t = t.filter(m)
        return pa.table({"l_orderkey": t.column("o_orderkey"),
                         "o_orderdate": t.column("o_orderdate")})

    orders = orders.map_batches(order_filter, batch_format="pyarrow")

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def revenue(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), pa.scalar(cut)))
        cents = pc.cast(pc.round(pc.multiply(t.column("l_extendedprice"),
                                             100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t.column("l_discount"), 100.0)),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table({"l_orderkey": t.column("l_orderkey"), "rev": rev})

    li = li.map_batches(revenue, batch_format="pyarrow")

    def rev_per_order(df):
        # grouping keys include the join key, so this reduce is FINAL
        # inside the join bucket — no second shuffle.  The union-schema
        # padding floats rev (pandas nullable-int); sums of exact ints
        # < 2^53 cast back losslessly.
        out = df.groupby(["l_orderkey", "o_orderdate"], as_index=False,
                         sort=False)["rev"].sum()
        out["rev"] = out["rev"].astype("int64")
        return out.rename(columns={"rev": "revenue"})

    total = bucketed_hash_join(li, orders, on=["l_orderkey"], how="inner",
                               reduce=rev_per_order)
    return total.sort(["revenue", "l_orderkey"],
                      descending=[True, False]).limit(10)


def q_event_value_quartiles(sf_dir: str):
    """Window function ntile(4) per event_type over a TOTAL order
    (value, event_id): row-level quartile assignment, exact SQL ntile
    semantics (stages/aggregate.py grouped_ntile — one bucketed
    shuffle, vectorized tiling per bucket)."""
    from ..stages.aggregate import grouped_ntile

    ds = _rd(sf_dir, "events", columns=["event_id", "event_type", "value"])
    tiled = grouped_ntile(ds, ["event_type"], ["value", "event_id"],
                          n_tiles=4)
    return tiled.map_batches(
        lambda t: t.select(["event_id", "event_type", "tile"]),
        batch_format="pyarrow").sort("event_id")


def _distinct_event_user_hours(sf_dir: str, event_type: str):
    """Per-batch distinct (user_id, hour) pairs for one event type —
    the shrunken set-operand that feeds the semi/anti joins."""
    ds = _rd(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def distinct(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), event_type))
        pairs = pa.table({"user_id": t.column("user_id"),
                          "hour": pc.hour(t.column("ts")).cast(pa.int64())})
        return pairs.group_by(["user_id", "hour"]).aggregate([])

    return ds.map_batches(distinct, batch_format="pyarrow")


def q_users_view_not_purchase(sf_dir: str):
    """Relational EXCEPT over composite keys: (user, hour) pairs that
    viewed but never purchased in that hour.  Per-batch distinct
    shrinks both sides before the ONE co-partitioning shuffle; the left
    side's GLOBAL dedup happens inside the anti-join bucket (keys are
    co-located, so drop_duplicates there is globally correct — no extra
    shuffle)."""
    from ..stages.join import bucketed_hash_join

    return bucketed_hash_join(
        _distinct_event_user_hours(sf_dir, "view"),
        _distinct_event_user_hours(sf_dir, "purchase"),
        on=["user_id", "hour"], how="anti",
        reduce=lambda df: df.drop_duplicates()).sort(["user_id", "hour"])


def q_users_signup_and_purchase(sf_dir: str):
    """Relational INTERSECT over composite keys: (user, hour) pairs with
    BOTH a signup and a purchase — same shape as the EXCEPT query with a
    semi join."""
    from ..stages.join import bucketed_hash_join

    return bucketed_hash_join(
        _distinct_event_user_hours(sf_dir, "signup"),
        _distinct_event_user_hours(sf_dir, "purchase"),
        on=["user_id", "hour"], how="semi",
        reduce=lambda df: df.drop_duplicates()).sort(["user_id", "hour"])


_Q1_CUT = "2000-12-01"


def q_tpch_q1(sf_dir: str):
    """TPC-H Q1 pricing summary: filter at the read, per-batch integer
    measures (cents, disc%, tax%), then a 6-group aggregate via the
    driver-combine tree (partials merge in workers, kilobytes reach the
    driver).  Averages derive from the exact integer sums in ONE float
    division each, so the doubles hash exactly against the oracle."""
    from ..stages.aggregate import grouped_agg

    cut = np.datetime64(_Q1_CUT, "us")
    li = _rd(sf_dir, "lineitem",
             columns=["l_returnflag", "l_linestatus", "l_quantity",
                      "l_extendedprice", "l_discount", "l_tax",
                      "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("l_shipdate"), pa.scalar(cut)))
        qty = pc.cast(t.column("l_quantity"), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(t.column("l_extendedprice"),
                                             100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t.column("l_discount"), 100.0)),
                       pa.int64())
        tax = pc.cast(pc.round(pc.multiply(t.column("l_tax"), 100.0)),
                      pa.int64())
        c100 = pa.scalar(100, pa.int64())
        dp = pc.multiply(cents, pc.subtract(c100, disc))
        ch = pc.multiply(dp, pc.add(c100, tax))
        return pa.table({"l_returnflag": t.column("l_returnflag"),
                         "l_linestatus": t.column("l_linestatus"),
                         "qty": qty, "cents": cents, "disc": disc,
                         "dp": dp, "ch": ch})

    ds = li.map_batches(prep, batch_format="pyarrow")
    agg = grouped_agg(ds, ["l_returnflag", "l_linestatus"], [
        ("sum", "qty", "sum_qty"), ("sum", "cents", "sum_base_cents"),
        ("sum", "dp", "sum_disc_price"), ("sum", "ch", "sum_charge"),
        ("sum", "disc", "sum_disc"), ("count", None, "n")],
        combine="driver")
    df = agg.to_pandas()
    for c in ("sum_qty", "sum_base_cents", "sum_disc_price", "sum_charge",
              "sum_disc", "n"):
        df[c] = df[c].astype("int64")
    df["avg_qty"] = df["sum_qty"] / df["n"]
    df["avg_cents"] = df["sum_base_cents"] / df["n"]
    df["avg_disc"] = df["sum_disc"] / df["n"]
    return df.sort_values(["l_returnflag", "l_linestatus"]) \
        .reset_index(drop=True)


_Q5_LO, _Q5_HI = "1997-01-01", "1998-01-01"


def q_tpch_q5(sf_dir: str):
    """TPC-H Q5 local-supplier revenue: region/nation/supplier collapse
    into BROADCAST lookups (dimension tables never shuffle), the
    supplier-nation stamp also pre-filters lineitem to ASIA suppliers
    before any exchange, and the two remaining big-table joins
    (orders x customer on custkey, lineitem x that on orderkey) are each
    ONE co-partitioning shuffle with the c_nationkey = s_nationkey check
    + per-nation partial sum fused into the second join's bucket."""
    import ray

    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    lo, hi = np.datetime64(_Q5_LO, "us"), np.datetime64(_Q5_HI, "us")
    nat = _read_small(sf_dir, "nation")
    reg = _read_small(sf_dir, "region")
    rk = int(reg.loc[reg["r_name"] == "ASIA", "r_regionkey"].iloc[0])
    asia = nat[nat["n_regionkey"] == rk]
    names = {int(k): v for k, v in zip(asia["n_nationkey"], asia["n_name"])}
    nset = pa.array(sorted(names), pa.int64())

    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    sup = sup[sup["s_nationkey"].isin(names)].sort_values("s_suppkey")
    if not len(sup):
        return pd.DataFrame({"n_name": pd.Series([], dtype="object"),
                             "revenue": pd.Series([], dtype="int64")})
    sup_ref = ray.put((sup["s_suppkey"].to_numpy(np.int64),
                       sup["s_nationkey"].to_numpy(np.int64)))

    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.is_in(t.column("c_nationkey"),
                                    value_set=nset)),
        batch_format="pyarrow")

    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilter(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                    pc.less(t.column("o_orderdate"), pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"c_custkey": t.column("o_custkey"),
                         "l_orderkey": t.column("o_orderkey")})

    orders = orders.map_batches(ofilter, batch_format="pyarrow")
    # materialize: the second join's schema probe on a lazy shuffle plan
    # would re-execute this whole DAG (limit-1 cannot short-circuit an
    # all-to-all); the output is just (orderkey, nationkey) pairs
    j1 = bucketed_hash_join(orders, cust, on=["c_custkey"], how="inner",
                            reduce=lambda df: df[["l_orderkey",
                                                  "c_nationkey"]]) \
        .materialize()

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                      "l_discount"])

    def supp_nation(t: pa.Table) -> pa.Table:
        # broadcast sorted (suppkey -> nationkey) arrays; stamp the
        # supplier nation and drop non-ASIA lineitems map-side.  Plain
        # task: ray.get of the broadcast is a zero-copy local read — an
        # actor pool here only adds startup latency
        keys, nats = ray.get(sup_ref)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, sk), len(keys) - 1)
        hit = keys[pos] == sk
        t = t.filter(pa.array(hit))
        pos = pos[hit]  # reuse the probe; no second searchsorted
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 100.0)), pa.int64())
        rev = pc.multiply(cents,
                          pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "s_nationkey": pa.array(nats[pos], pa.int64()),
                         "rev": rev})

    li2 = li.map_batches(supp_nation, batch_format="pyarrow")

    def local_rev(df):
        df = df[df["s_nationkey"] == df["c_nationkey"]]
        # union-schema padding floats rev; exact ints < 2^53 cast back
        # losslessly, and the SUM then runs in int64 (never float)
        df = df.assign(rev=df["rev"].astype("int64"))
        return df.groupby("s_nationkey", as_index=False)["rev"].sum()

    j2 = bucketed_hash_join(li2, j1, on=["l_orderkey"], how="inner",
                            reduce=local_rev)
    per_nat = grouped_agg(j2, ["s_nationkey"], [("sum", "rev", "revenue")],
                          combine="driver").to_pandas()
    per_nat["revenue"] = per_nat["revenue"].astype("int64")
    per_nat["n_name"] = per_nat["s_nationkey"].map(names)
    return per_nat[["n_name", "revenue"]] \
        .sort_values(["revenue", "n_name"], ascending=[False, True]) \
        .reset_index(drop=True)


_Q10_LO, _Q10_HI = "1997-07-01", "1997-10-01"


def q_tpch_q10(sf_dir: str):
    """TPC-H Q10 returned-item customer ranking: both scans filter at
    the read (quarter of orders, returnflag R lineitems), ONE
    co-partitioning join on orderkey with the per-customer partial sum
    fused into the bucket, one tiny bucketed combine per custkey, then
    the global top-20; customer NAMES are fetched by a 20-key
    semi-filter on the customer scan — the name column never joins at
    full width."""
    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    lo, hi = np.datetime64(_Q10_LO, "us"), np.datetime64(_Q10_HI, "us")
    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilter(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                    pc.less(t.column("o_orderdate"), pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"l_orderkey": t.column("o_orderkey"),
                         "o_custkey": t.column("o_custkey")})

    orders = orders.map_batches(ofilter, batch_format="pyarrow")

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                      "l_discount"])

    def returned_rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        cents = pc.cast(pc.round(pc.multiply(t.column("l_extendedprice"),
                                             100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t.column("l_discount"), 100.0)),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        return pa.table({"l_orderkey": t.column("l_orderkey"), "rev": rev})

    li = li.map_batches(returned_rev, batch_format="pyarrow")

    def per_cust_partial(df):
        df = df.assign(rev=df["rev"].astype("int64"))
        return df.groupby("o_custkey", as_index=False)["rev"].sum()

    j = bucketed_hash_join(li, orders, on=["l_orderkey"], how="inner",
                           reduce=per_cust_partial)
    per_cust = grouped_agg(j, ["o_custkey"], [("sum", "rev", "revenue")],
                           combine="bucket", n_buckets=16)
    top = per_cust.sort(["revenue", "o_custkey"],
                        descending=[True, False]).limit(20).to_pandas()
    keyset = pa.array(top["o_custkey"].astype("int64"), pa.int64())
    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_name"]) \
        .map_batches(lambda t: t.filter(pc.is_in(t.column("c_custkey"),
                                                 value_set=keyset)),
                     batch_format="pyarrow").to_pandas()
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out["revenue"] = out["revenue"].astype("int64")
    return out[["c_custkey", "c_name", "revenue"]] \
        .sort_values(["revenue", "c_custkey"], ascending=[False, True]) \
        .reset_index(drop=True)


_Q14_LO, _Q14_HI = "1997-03-01", "1997-04-01"


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 promotion-revenue share: part is a BROADCAST dimension
    (sorted partkey -> is-promo bit arrays via ray.put, searchsorted
    probe per batch), lineitem reduces map-only to two exact-int partial
    sums — zero shuffle, two kilobyte partials reach the driver, and the
    final percentage is one fixed-order float expression (bitwise-equal
    vs the oracle)."""
    import ray

    from ..stages.aggregate import grouped_agg

    lo, hi = np.datetime64(_Q14_LO, "us"), np.datetime64(_Q14_HI, "us")
    part = _read_small(sf_dir, "part", columns=["p_partkey", "p_type"])
    part = part.sort_values("p_partkey")
    pref = ray.put((part["p_partkey"].to_numpy(np.int64),
                    (part["p_type"] == "PROMO").to_numpy(bool)))

    li = _rd(sf_dir, "lineitem",
             columns=["l_partkey", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def promo_partial(t: pa.Table) -> pa.Table:
        keys, promo = ray.get(pref)  # zero-copy broadcast read
        m = pc.and_(pc.greater_equal(t.column("l_shipdate"),
                                     pa.scalar(lo)),
                    pc.less(t.column("l_shipdate"), pa.scalar(hi)))
        t = t.filter(m)
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 100.0)), pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc)) \
            .to_numpy(zero_copy_only=False)
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, pk),
                         max(len(keys) - 1, 0))
        is_promo = (keys[pos] == pk) & promo[pos] \
            if len(keys) else np.zeros(len(pk), bool)
        return pa.table({
            "promo_rev": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_rev": pa.array([int(rev.sum())], pa.int64()),
            "_one": pa.array([1], pa.int64())})

    partials = li.map_batches(promo_partial, batch_format="pyarrow")
    tot = grouped_agg(partials, ["_one"],
                      [("sum", "promo_rev", "promo_rev"),
                       ("sum", "total_rev", "total_rev")],
                      combine="driver").to_pandas()
    pr, tr = int(tot["promo_rev"].iloc[0]), int(tot["total_rev"].iloc[0])
    return pd.DataFrame({"promo_share_pct": [(100 * pr) / tr]})


_Q18_QTY = 150


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 large-volume orders: per-order quantity sums via the
    bucketed combine (high-cardinality orderkey), HAVING filter map-side
    on the combined partials, one co-partitioning join attaches
    orderdate/custkey, and the final few rows fetch customer names with
    a key semi-filter."""
    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    li = _rd(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    li = li.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("l_orderkey"),
                            "qty": t.column("l_quantity").cast(pa.int64())}),
        batch_format="pyarrow")
    per_order = grouped_agg(li, ["l_orderkey"], [("sum", "qty", "total_qty")],
                            combine="bucket", n_buckets=16)
    big = per_order.map_batches(
        lambda t: t.filter(pc.greater(t.column("total_qty"),
                                      pa.scalar(_Q18_QTY, pa.int64()))),
        batch_format="pyarrow")
    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("o_orderkey"),
                            "o_custkey": t.column("o_custkey"),
                            "o_orderdate": t.column("o_orderdate")}),
        batch_format="pyarrow")
    j = bucketed_hash_join(big, orders, on=["l_orderkey"], how="inner")
    out = j.to_pandas()
    for c in ("total_qty", "o_custkey"):
        out[c] = out[c].astype("int64")
    keyset = pa.array(out["o_custkey"].unique(), pa.int64())
    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_name"]) \
        .map_batches(lambda t: t.filter(pc.is_in(t.column("c_custkey"),
                                                 value_set=keyset)),
                     batch_format="pyarrow").to_pandas()
    out = out.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = out.rename(columns={"l_orderkey": "o_orderkey"})
    return out[["c_custkey", "c_name", "o_orderkey", "o_orderdate",
                "total_qty"]] \
        .sort_values(["total_qty", "o_orderkey"],
                     ascending=[False, True]).reset_index(drop=True)


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6 forecast-revenue change: pure scan-aggregate — filter +
    exact-int cents×disc partial per batch, zero shuffle, one scalar
    reaches the driver; the only float op is the final /10000.0."""
    from ..stages.aggregate import grouped_agg

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")
    li = _rd(sf_dir, "lineitem",
             columns=["l_quantity", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        disc = pc.cast(pc.round(pc.multiply(t.column("l_discount"), 100.0)),
                       pa.int64())
        m = pc.and_(pc.and_(
            pc.greater_equal(t.column("l_shipdate"), pa.scalar(lo)),
            pc.less(t.column("l_shipdate"), pa.scalar(hi))),
            pc.and_(pc.and_(pc.greater_equal(disc, pa.scalar(5, pa.int64())),
                            pc.less_equal(disc, pa.scalar(7, pa.int64()))),
                    pc.less(t.column("l_quantity"), pa.scalar(24.0))))
        t2 = t.filter(m)
        cents = pc.cast(pc.round(pc.multiply(t2.column("l_extendedprice"),
                                             100.0)), pa.int64())
        d2 = pc.cast(pc.round(pc.multiply(t2.column("l_discount"), 100.0)),
                     pa.int64())
        units = pc.sum(pc.multiply(cents, d2)).as_py() or 0
        return pa.table({"units": pa.array([units], pa.int64()),
                         "_one": pa.array([1], pa.int64())})

    partials = li.map_batches(partial, batch_format="pyarrow")
    tot = grouped_agg(partials, ["_one"], [("sum", "units", "units")],
                      combine="driver").to_pandas()
    return pd.DataFrame({"revenue": [int(tot["units"].iloc[0]) / 10000.0]})


_Q7_NATIONS = (1, 2)  # the adapted NATION_1 <-> NATION_2 shipping pair


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 volume shipping between two nations: supplier collapses
    to a broadcast (suppkey -> nationkey, filtered to the pair), the
    shipdate-filtered lineitem stamps + prunes to pair-supplier rows
    map-side, customers prune to the pair, and the two big joins
    (orders x customer on custkey, lineitem x that on orderkey) are each
    ONE co-partitioning shuffle; the cross-nation check + per-(nation,
    nation, year) partial sum fuse into the second join's bucket.
    Revenue stays exact int cents x (100-disc)."""
    import ray

    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1998-12-31", "us")
    nat = _read_small(sf_dir, "nation")
    names = {int(k): v for k, v in zip(nat["n_nationkey"], nat["n_name"])
             if int(k) in _Q7_NATIONS}
    nset = pa.array(sorted(names), pa.int64())

    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    sup = sup[sup["s_nationkey"].isin(names)].sort_values("s_suppkey")
    sup_ref = ray.put((sup["s_suppkey"].to_numpy(np.int64),
                       sup["s_nationkey"].to_numpy(np.int64)))

    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.is_in(t.column("c_nationkey"),
                                    value_set=nset)),
        batch_format="pyarrow")
    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    orders = orders.map_batches(
        lambda t: pa.table({"c_custkey": t.column("o_custkey"),
                            "l_orderkey": t.column("o_orderkey")}),
        batch_format="pyarrow")
    j1 = bucketed_hash_join(orders, cust, on=["c_custkey"], how="inner",
                            reduce=lambda df: df[["l_orderkey",
                                                  "c_nationkey"]]) \
        .materialize()

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                      "l_discount", "l_shipdate"])

    def stamp(t: pa.Table) -> pa.Table:
        keys, nats = ray.get(sup_ref)
        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), pa.scalar(lo)),
                    pc.less_equal(t.column("l_shipdate"), pa.scalar(hi)))
        t = t.filter(m)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, sk),
                         max(len(keys) - 1, 0))
        hit = keys[pos] == sk if len(keys) else np.zeros(len(sk), bool)
        t = t.filter(pa.array(hit))
        pos = pos[hit]
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 100.0)), pa.int64())
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "s_nationkey": pa.array(nats[pos], pa.int64()),
            "l_year": pc.year(t.column("l_shipdate")).cast(pa.int64()),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), disc)),
        })

    li2 = li.map_batches(stamp, batch_format="pyarrow")

    def cross_rev(df):
        df = df[df["s_nationkey"] != df["c_nationkey"]]
        df = df.assign(rev=df["rev"].astype("int64"),
                       l_year=df["l_year"].astype("int64"))
        return df.groupby(["s_nationkey", "c_nationkey", "l_year"],
                          as_index=False)["rev"].sum()

    j2 = bucketed_hash_join(li2, j1, on=["l_orderkey"], how="inner",
                            reduce=cross_rev)
    out = grouped_agg(j2, ["s_nationkey", "c_nationkey", "l_year"],
                      [("sum", "rev", "revenue")],
                      combine="driver").to_pandas()
    out["revenue"] = out["revenue"].astype("int64")
    out["supp_nation"] = out["s_nationkey"].map(names)
    out["cust_nation"] = out["c_nationkey"].map(names)
    return out[["supp_nation", "cust_nation", "l_year", "revenue"]] \
        .sort_values(["supp_nation", "cust_nation", "l_year"]) \
        .reset_index(drop=True)


_Q8_NATION, _Q8_REGION, _Q8_TYPE = 1, "ASIA", "ECONOMY"


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 national market share: part + supplier collapse into
    broadcasts (ECONOMY partkey set; suppkey -> nationkey), ASIA
    customers prune at the scan, orders date-filter then ONE semi join
    keeps ASIA-customer orders, lineitem prunes to ECONOMY parts
    map-side, and the final join fuses the per-(year, is-nation) partial
    sums into its buckets.  Exact int volumes; the share is one float
    division of two exact int64 sums per year."""
    import ray

    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1998-12-31", "us")
    nat = _read_small(sf_dir, "nation")
    reg = _read_small(sf_dir, "region")
    rk = int(reg.loc[reg["r_name"] == _Q8_REGION, "r_regionkey"].iloc[0])
    asia = pa.array(sorted(nat.loc[nat["n_regionkey"] == rk,
                                   "n_nationkey"].astype(int)), pa.int64())

    part = _read_small(sf_dir, "part", columns=["p_partkey", "p_type"])
    pk = np.sort(part.loc[part["p_type"] == _Q8_TYPE,
                          "p_partkey"].to_numpy(np.int64))
    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"]) \
        .sort_values("s_suppkey")
    bref = ray.put((pk, sup["s_suppkey"].to_numpy(np.int64),
                    sup["s_nationkey"].to_numpy(np.int64)))

    cust = _rd(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = cust.map_batches(
        lambda t: pa.table({"c_custkey": t.filter(
            pc.is_in(t.column("c_nationkey"), value_set=asia))
            .column("c_custkey")}),
        batch_format="pyarrow")

    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilter(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                    pc.less_equal(t.column("o_orderdate"), pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"c_custkey": t.column("o_custkey"),
                         "l_orderkey": t.column("o_orderkey"),
                         "o_year": pc.year(t.column("o_orderdate"))
                                     .cast(pa.int64())})

    orders = orders.map_batches(ofilter, batch_format="pyarrow")
    j1 = bucketed_hash_join(orders, cust, on=["c_custkey"], how="semi",
                            reduce=lambda df: df[["l_orderkey", "o_year"]]) \
        .materialize()

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_partkey", "l_suppkey",
                      "l_extendedprice", "l_discount"])

    def stamp(t: pa.Table) -> pa.Table:
        pkeys, skeys, snats = ray.get(bref)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(pkeys, lp),
                         max(len(pkeys) - 1, 0))
        hit = pkeys[pos] == lp if len(pkeys) else np.zeros(len(lp), bool)
        t = t.filter(pa.array(hit))
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        spos = np.minimum(np.searchsorted(skeys, sk),
                          max(len(skeys) - 1, 0))
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 100.0)), pa.int64())
        return pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "s_nationkey": pa.array(snats[spos], pa.int64()),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), disc)),
        })

    li2 = li.map_batches(stamp, batch_format="pyarrow")

    def per_year(df):
        df = df.assign(rev=df["rev"].astype("int64"),
                       o_year=df["o_year"].astype("int64"),
                       nrev=np.where(df["s_nationkey"] == _Q8_NATION,
                                     df["rev"].astype("int64"), 0))
        return df.groupby("o_year", as_index=False) \
            .agg(nation_rev=("nrev", "sum"), total_rev=("rev", "sum"))

    j2 = bucketed_hash_join(li2, j1, on=["l_orderkey"], how="inner",
                            reduce=per_year)
    out = grouped_agg(j2, ["o_year"],
                      [("sum", "nation_rev", "nation_rev"),
                       ("sum", "total_rev", "total_rev")],
                      combine="driver").to_pandas()
    for c in ("nation_rev", "total_rev", "o_year"):
        out[c] = out[c].astype("int64")
    out["mkt_share"] = out["nation_rev"] / out["total_rev"]
    return out[["o_year", "nation_rev", "total_rev", "mkt_share"]] \
        .sort_values("o_year").reset_index(drop=True)


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 customer order-count distribution (minus the o_comment
    NOT LIKE filter — the synthetic orders table carries no comment
    column): per-customer counts via the bucketed combine, a second tiny
    groupby turns them into the histogram, and the LEFT-JOIN zero bucket
    is computed as |customer| - |custkeys with orders| (FK integrity
    makes that identical to the outer join, with no customer shuffle at
    all)."""
    import pyarrow.parquet as pq

    from ..stages.aggregate import grouped_agg

    orders = _rd(sf_dir, "orders", columns=["o_custkey"])
    per_cust = grouped_agg(orders, ["o_custkey"],
                           [("count", None, "c_count")],
                           combine="bucket", n_buckets=16)
    hist = grouped_agg(per_cust, ["c_count"],
                       [("count", None, "custdist")],
                       combine="driver").to_pandas()
    hist["c_count"] = hist["c_count"].astype("int64")
    hist["custdist"] = hist["custdist"].astype("int64")
    n_cust = pq.ParquetFile(
        os.path.join(sf_dir, "customer.parquet")).metadata.num_rows
    zero = int(n_cust) - int(hist["custdist"].sum())
    if zero > 0:
        hist = pd.concat([hist, pd.DataFrame({"c_count": [0],
                                              "custdist": [zero]})],
                         ignore_index=True)
    return hist.sort_values(["custdist", "c_count"],
                            ascending=[False, False]).reset_index(drop=True)


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 top supplier: the revenue view is a map-side exact-int
    partial sum per suppkey + one bucketed combine (supplier
    cardinality), the max is a scalar aggregate over that small table,
    winners filter map-side, and names attach driver-side from the
    dimension read."""
    from ..stages.aggregate import grouped_agg

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1997-04-01", "us")
    li = _rd(sf_dir, "lineitem",
             columns=["l_suppkey", "l_extendedprice", "l_discount",
                      "l_shipdate"])

    def prep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), pa.scalar(lo)),
                    pc.less(t.column("l_shipdate"), pa.scalar(hi)))
        t = t.filter(m)
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 100.0)), pa.int64())
        return pa.table({
            "l_suppkey": t.column("l_suppkey"),
            "rev": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), disc))})

    per_supp = grouped_agg(li.map_batches(prep, batch_format="pyarrow"),
                           ["l_suppkey"], [("sum", "rev", "revenue")],
                           combine="bucket", n_buckets=16).materialize()
    mx = per_supp.max("revenue")
    top = per_supp.map_batches(
        lambda t: t.filter(pc.equal(t.column("revenue"),
                                    pa.scalar(int(mx), pa.int64()))),
        batch_format="pyarrow").to_pandas()
    top["revenue"] = top["revenue"].astype("int64")
    sup = _read_small(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    out = top.merge(sup, left_on="l_suppkey", right_on="s_suppkey")
    return out[["s_suppkey", "s_name", "revenue"]] \
        .sort_values("s_suppkey").reset_index(drop=True)


_Q17_BRAND = "Brand#13"


def q_tpch_q17(sf_dir: str, max_broadcast_parts: int = 5_000_000):
    """TPC-H Q17 small-quantity-order revenue (minus the p_container
    filter — no container column in the synthetic part table): the
    brand's partkey set broadcasts, lineitem prunes to it map-side, the
    per-part (sum_qty, n) partials take one small bucketed combine and
    broadcast back, and the second pruned pass applies the correlated
    predicate IN EXACT INTEGERS (qty < 0.2*avg  <=>  5*n*qty < sum_qty)
    so the oracle comparison is float-free until the final /700.0.
    Past `max_broadcast_parts` distinct parts the predicate applies
    inside a co-partitioned join instead of a driver broadcast
    (tail_sample's max_broadcast_keys idiom)."""
    import ray

    from ..stages.aggregate import grouped_agg

    part = _read_small(sf_dir, "part", columns=["p_partkey", "p_brand"])
    pk = np.sort(part.loc[part["p_brand"] == _Q17_BRAND,
                          "p_partkey"].to_numpy(np.int64))
    pk_ref = ray.put(pk)

    li = _rd(sf_dir, "lineitem",
             columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def brand_rows(t: pa.Table) -> pa.Table:
        keys = ray.get(pk_ref)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, lp),
                         max(len(keys) - 1, 0))
        hit = keys[pos] == lp if len(keys) else np.zeros(len(lp), bool)
        t = t.filter(pa.array(hit))
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "qty": t.column("l_quantity").cast(pa.int64()),
            "cents": pc.cast(pc.round(pc.multiply(
                t.column("l_extendedprice"), 100.0)), pa.int64())})

    pruned = li.map_batches(brand_rows, batch_format="pyarrow") \
        .materialize()  # scanned twice: stats pass + predicate pass
    stats_ds = grouped_agg(pruned, ["l_partkey"],
                           [("sum", "qty", "sum_qty"),
                            ("count", None, "n")],
                           combine="bucket", n_buckets=8).materialize()
    # one brand's partkey set is |part|/|brands| — bounded on TPC-H-like
    # data, but guard it like tail_sample's max_broadcast_keys: past the
    # cap, apply the predicate inside a co-partitioned join instead of
    # a driver broadcast
    if stats_ds.count() <= max_broadcast_parts:
        stats = stats_ds.to_pandas()
        order = np.argsort(stats["l_partkey"].to_numpy(np.int64))
        st_ref = ray.put((stats["l_partkey"].to_numpy(np.int64)[order],
                          stats["sum_qty"].to_numpy(np.int64)[order],
                          stats["n"].to_numpy(np.int64)[order]))

        def small_qty(t: pa.Table) -> pa.Table:
            keys, sq, n = ray.get(st_ref)
            lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(keys, lp),
                             max(len(keys) - 1, 0))
            qty = t.column("qty").to_numpy(zero_copy_only=False)
            keep = (keys[pos] == lp) & (5 * n[pos] * qty < sq[pos]) \
                if len(keys) else np.zeros(len(lp), bool)
            cents = t.column("cents").to_numpy(zero_copy_only=False)
            return pa.table({"cents": pa.array([int(cents[keep].sum())],
                                               pa.int64()),
                             "_one": pa.array([1], pa.int64())})

        partials = pruned.map_batches(small_qty, batch_format="pyarrow")
    else:
        from ..stages.join import bucketed_hash_join

        def keep_small(df):
            m = 5 * df["n"].astype("int64") * df["qty"].astype("int64") \
                < df["sum_qty"].astype("int64")
            return pd.DataFrame({
                "cents": [int(df.loc[m, "cents"].astype("int64").sum())],
                "_one": [1]})

        partials = bucketed_hash_join(pruned, stats_ds,
                                      on=["l_partkey"], how="inner",
                                      reduce=keep_small)
    tot = grouped_agg(partials, ["_one"], [("sum", "cents", "cents")],
                      combine="driver").to_pandas()
    return pd.DataFrame(
        {"avg_yearly": [int(tot["cents"].iloc[0]) / 700.0]})


_Q19_CLAUSES = (("Brand#2", 1, 5, 1, 11),
                ("Brand#3", 1, 10, 10, 20),
                ("Brand#4", 1, 15, 20, 30))


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 discounted revenue (minus the p_container /
    l_shipmode / l_shipinstruct filters — columns absent in the
    synthetic tables): the disjunctive OR-of-ANDs predicate evaluates
    map-side against a broadcast (partkey -> brand-clause, size) table
    pre-pruned to the three clause brands — lineitem never shuffles,
    a (revenue, n) int partial pair reaches the driver, and the only
    float op is the final /10000.0."""
    import ray

    from ..stages.aggregate import grouped_agg

    part = _read_small(sf_dir, "part",
                       columns=["p_partkey", "p_brand", "p_size"])
    brands = {c[0]: i for i, c in enumerate(_Q19_CLAUSES)}
    part = part[part["p_brand"].isin(brands)].sort_values("p_partkey")
    clause = part["p_brand"].map(brands).to_numpy(np.int64)
    bref = ray.put((part["p_partkey"].to_numpy(np.int64), clause,
                    part["p_size"].to_numpy(np.int64)))
    qlo = np.array([c[3] for c in _Q19_CLAUSES], np.int64)
    qhi = np.array([c[4] for c in _Q19_CLAUSES], np.int64)
    slo = np.array([c[1] for c in _Q19_CLAUSES], np.int64)
    shi = np.array([c[2] for c in _Q19_CLAUSES], np.int64)

    li = _rd(sf_dir, "lineitem",
             columns=["l_partkey", "l_quantity", "l_extendedprice",
                      "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        keys, cl, size = ray.get(bref)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, lp),
                         max(len(keys) - 1, 0))
        hit = keys[pos] == lp if len(keys) else np.zeros(len(lp), bool)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        c = np.where(hit, cl[pos], 0)
        keep = hit & (qty >= qlo[c]) & (qty <= qhi[c]) \
            & (size[pos] >= slo[c]) & (size[pos] <= shi[c])
        t2 = t.filter(pa.array(keep))
        cents = pc.cast(pc.round(pc.multiply(
            t2.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t2.column("l_discount"), 100.0)), pa.int64())
        rev = pc.sum(pc.multiply(cents, pc.subtract(
            pa.scalar(100, pa.int64()), disc))).as_py() or 0
        return pa.table({"rev": pa.array([rev], pa.int64()),
                         "n": pa.array([t2.num_rows], pa.int64()),
                         "_one": pa.array([1], pa.int64())})

    partials = li.map_batches(partial, batch_format="pyarrow")
    tot = grouped_agg(partials, ["_one"],
                      [("sum", "rev", "rev"), ("sum", "n", "n")],
                      combine="driver").to_pandas()
    return pd.DataFrame({"revenue": [int(tot["rev"].iloc[0]) / 10000.0],
                         "n": [int(tot["n"].iloc[0])]})


_Q22_CODES = (1, 3, 5, 7, 9, 11, 13)
_Q22_CUT = "2000-07-01"


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 global sales opportunity, adapted to the synthetic
    schema (cntrycode := c_nationkey — no phone column; "never placed
    an order" := no order since 2000-07-01, since every synthetic
    customer has old orders): the scalar subquery is an exact-int
    (sum, n) partial pair (bal*n > sum  <=>  bal > avg, float-free),
    the NOT EXISTS is ONE bucketed anti-join of the qualifying
    customers against the date-pruned orders, and the final group-by is
    driver-combined.  totacctbal's only float op is the final /100.0."""
    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    cut = np.datetime64(_Q22_CUT, "us")
    codes = pa.array(sorted(_Q22_CODES), pa.int64())
    cust = _rd(sf_dir, "customer",
               columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def in_codes(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("c_nationkey"), value_set=codes))
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "cntrycode": t.column("c_nationkey").cast(pa.int64()),
            "bal": pc.cast(pc.round(pc.multiply(
                t.column("c_acctbal"), 100.0)), pa.int64())})

    cset = cust.map_batches(in_codes, batch_format="pyarrow").materialize()

    def pos_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("bal"), pa.scalar(0, pa.int64())))
        return pa.table({
            "s": pa.array([pc.sum(t.column("bal")).as_py() or 0],
                          pa.int64()),
            "n": pa.array([t.num_rows], pa.int64()),
            "_one": pa.array([1], pa.int64())})

    thr = grouped_agg(cset.map_batches(pos_partial, batch_format="pyarrow"),
                      ["_one"], [("sum", "s", "s"), ("sum", "n", "n")],
                      combine="driver").to_pandas()
    s, n = int(thr["s"].iloc[0]), int(thr["n"].iloc[0])

    rich = cset.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t.column("bal"), pa.scalar(n, pa.int64())),
            pa.scalar(s, pa.int64()))),
        batch_format="pyarrow")

    orders = _rd(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    recent = orders.map_batches(
        lambda t: pa.table({"c_custkey": t.filter(
            pc.greater_equal(t.column("o_orderdate"), pa.scalar(cut)))
            .column("o_custkey")}),
        batch_format="pyarrow")
    quiet = bucketed_hash_join(rich, recent, on=["c_custkey"], how="anti")
    out = grouped_agg(quiet, ["cntrycode"],
                      [("count", None, "numcust"), ("sum", "bal", "bal")],
                      combine="driver").to_pandas()
    out["numcust"] = out["numcust"].astype("int64")
    out["totacctbal"] = out["bal"].astype("int64") / 100.0
    return out[["cntrycode", "numcust", "totacctbal"]] \
        .sort_values("cntrycode").reset_index(drop=True)


_Q4_LO, _Q4_HI = "1997-07-01", "1997-10-01"


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 order-priority checking, adapted to the synthetic
    schema ("late lineitem" := l_returnflag = 'R' — there are no
    commit/receipt date columns): orders date-prune at the scan,
    lineitem prunes to R-rows and per-batch-distinct orderkeys, ONE
    bucketed semi join keeps orders with >= 1 late line, and the
    5-group priority count driver-combines."""
    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    lo = np.datetime64(_Q4_LO, "us")
    hi = np.datetime64(_Q4_HI, "us")
    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def ofilter(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t.column("o_orderdate"), pa.scalar(lo)),
                    pc.less(t.column("o_orderdate"), pa.scalar(hi)))
        t = t.filter(m)
        return pa.table({"l_orderkey": t.column("o_orderkey"),
                         "o_orderpriority": t.column("o_orderpriority")})

    orders = orders.map_batches(ofilter, batch_format="pyarrow")

    li = _rd(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def late(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        return (pa.table({"l_orderkey": t.column("l_orderkey")})
                .group_by(["l_orderkey"]).aggregate([]))

    li = li.map_batches(late, batch_format="pyarrow")
    j = bucketed_hash_join(orders, li, on=["l_orderkey"], how="semi")
    out = grouped_agg(j, ["o_orderpriority"],
                      [("count", None, "order_count")],
                      combine="driver").to_pandas()
    out["order_count"] = out["order_count"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


_Q9_NEEDLE = "gear"


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 product-type profit, adapted (the synthetic schema has
    no partsupp, so supply cost := p_retailprice x quantity; profit =
    cents x (100-disc) - retail_cents x qty x 100 keeps both terms on
    the same cents-x-percent scale, exact int64 end-to-end): the
    LIKE-filtered part (partkey -> retail cents) and supplier (suppkey
    -> nationkey) collapse into ONE broadcast, lineitem prunes + stamps
    map-side, and the single co-partitioning shuffle joins lineitem x
    orders on orderkey, fusing the per-(nation, year) partial profit
    into its buckets.  The only float op is the final /10000.0."""
    import ray

    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    nat = _read_small(sf_dir, "nation")
    names = {int(k): v for k, v in zip(nat["n_nationkey"], nat["n_name"])}
    part = _read_small(sf_dir, "part",
                       columns=["p_partkey", "p_name", "p_retailprice"])
    part = part[part["p_name"].str.contains(_Q9_NEEDLE)] \
        .sort_values("p_partkey")
    pk = part["p_partkey"].to_numpy(np.int64)
    pcent = np.round(part["p_retailprice"].to_numpy() * 100.0) \
        .astype(np.int64)
    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"]) \
        .sort_values("s_suppkey")
    bref = ray.put((pk, pcent, sup["s_suppkey"].to_numpy(np.int64),
                    sup["s_nationkey"].to_numpy(np.int64)))

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda t: pa.table({"l_orderkey": t.column("o_orderkey"),
                            "o_year": pc.year(t.column("o_orderdate"))
                                        .cast(pa.int64())}),
        batch_format="pyarrow")

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                      "l_extendedprice", "l_discount"])

    def stamp(t: pa.Table) -> pa.Table:
        pkeys, pcents, skeys, snats = ray.get(bref)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(pkeys, lp), max(len(pkeys) - 1, 0))
        hit = pkeys[pos] == lp if len(pkeys) else np.zeros(len(lp), bool)
        t = t.filter(pa.array(hit))
        pos = pos[hit]
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        spos = np.minimum(np.searchsorted(skeys, sk),
                          max(len(skeys) - 1, 0))
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(
            t.column("l_discount"), 100.0)), pa.int64())
        qty = pc.cast(t.column("l_quantity"), pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                             disc))
        cost = pc.multiply(pc.multiply(pa.array(pcents[pos], pa.int64()),
                                       qty), pa.scalar(100, pa.int64()))
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "s_nationkey": pa.array(snats[spos], pa.int64()),
                         "amount": pc.subtract(rev, cost)})

    li2 = li.map_batches(stamp, batch_format="pyarrow")

    def per_ny(df):
        df = df.assign(amount=df["amount"].astype("int64"),
                       o_year=df["o_year"].astype("int64"))
        return df.groupby(["s_nationkey", "o_year"],
                          as_index=False)["amount"].sum()

    j = bucketed_hash_join(li2, orders, on=["l_orderkey"], how="inner",
                           reduce=per_ny)
    out = grouped_agg(j, ["s_nationkey", "o_year"],
                      [("sum", "amount", "amount")],
                      combine="driver").to_pandas()
    out["nation"] = out["s_nationkey"].map(names)
    out["o_year"] = out["o_year"].astype("int64")
    out["sum_profit"] = out["amount"].astype("int64") / 10000.0
    return out[["nation", "o_year", "sum_profit"]] \
        .sort_values(["nation", "o_year"], ascending=[True, False]) \
        .reset_index(drop=True)


_Q12_FLAGS = ("A", "R")
_Q12_LO, _Q12_HI = "1997-01-01", "1998-01-01"
_Q12_LATE_DAYS = 30


def q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shipping-mode priority counts, adapted (l_returnflag
    in {A, R} plays shipmode; "received late" := shipped more than 30
    days after the order date — no commit/receipt columns): lineitem
    date+flag-prunes map-side, ONE co-partitioning shuffle joins
    orders, and the cross-table date predicate + the high/low
    conditional counts fuse into the join buckets; the 2-group result
    driver-combines."""
    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    lo = np.datetime64(_Q12_LO, "us")
    hi = np.datetime64(_Q12_HI, "us")
    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_returnflag", "l_shipdate"])

    def lfilter(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.and_(
            pc.greater_equal(t.column("l_shipdate"), pa.scalar(lo)),
            pc.less(t.column("l_shipdate"), pa.scalar(hi))),
            pc.is_in(t.column("l_returnflag"),
                     value_set=pa.array(list(_Q12_FLAGS))))
        return t.filter(m)

    li = li.map_batches(lfilter, batch_format="pyarrow")

    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda t: pa.table({
            "l_orderkey": t.column("o_orderkey"),
            "o_orderdate": t.column("o_orderdate"),
            "high": pc.cast(pc.is_in(
                t.column("o_orderpriority"),
                value_set=pa.array(["1-URGENT", "2-HIGH"])), pa.int64())}),
        batch_format="pyarrow")

    def counts(df):
        late = (df["l_shipdate"] - df["o_orderdate"]) \
            > pd.Timedelta(days=_Q12_LATE_DAYS)
        df = df[late]
        h = df["high"].astype("int64")
        return (df.assign(high_line_count=h, low_line_count=1 - h)
                .groupby("l_returnflag", as_index=False)
                [["high_line_count", "low_line_count"]].sum())

    j = bucketed_hash_join(li, orders, on=["l_orderkey"], how="inner",
                           reduce=counts)
    out = grouped_agg(j, ["l_returnflag"],
                      [("sum", "high_line_count", "high_line_count"),
                       ("sum", "low_line_count", "low_line_count")],
                      combine="driver").to_pandas()
    for c in ("high_line_count", "low_line_count"):
        out[c] = out[c].astype("int64")
    return out.sort_values("l_returnflag").reset_index(drop=True)


_Q2_SIZE, _Q2_TYPE, _Q2_REGION = 15, "LARGE", "EUROPE"


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 minimum-cost supplier, adapted (no partsupp: lineitem
    IS the part<->supplier relation, and "supply cost" := the lowest
    observed unit price in integer millicents, (cents*1000)//qty —
    floor division keeps it exact and oracle-replayable): qualifying
    partkeys + EUROPE suppkeys broadcast once, lineitem prunes
    map-side, and ONE bucketed shuffle keyed by partkey makes the
    per-(part,supplier) min, the per-part min, and the tie-keeping
    filter all final in-bucket; names/balances attach driver-side from
    the bounded dimension reads."""
    import ray

    from ..stages.aggregate import bucketed_group_transform

    nat = _read_small(sf_dir, "nation")
    reg = _read_small(sf_dir, "region")
    rk = int(reg.loc[reg["r_name"] == _Q2_REGION, "r_regionkey"].iloc[0])
    eur_nations = set(nat.loc[nat["n_regionkey"] == rk,
                              "n_nationkey"].astype(int))
    names = {int(k): v for k, v in zip(nat["n_nationkey"], nat["n_name"])}

    part = _read_small(sf_dir, "part",
                       columns=["p_partkey", "p_size", "p_type"])
    pk = np.sort(part.loc[(part["p_size"] <= _Q2_SIZE)
                          & (part["p_type"] == _Q2_TYPE),
                          "p_partkey"].to_numpy(np.int64))
    sup = _read_small(sf_dir, "supplier")
    sup = sup[sup["s_nationkey"].isin(eur_nations)]
    sk = np.sort(sup["s_suppkey"].to_numpy(np.int64))
    bref = ray.put((pk, sk))

    li = _rd(sf_dir, "lineitem",
             columns=["l_partkey", "l_suppkey", "l_quantity",
                      "l_extendedprice"])

    def prune(t: pa.Table) -> pa.Table:
        pkeys, skeys = ray.get(bref)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(pkeys, lp), max(len(pkeys) - 1, 0))
        hit = pkeys[pos] == lp if len(pkeys) else np.zeros(len(lp), bool)
        t = t.filter(pa.array(hit))
        ls = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        spos = np.minimum(np.searchsorted(skeys, ls),
                          max(len(skeys) - 1, 0))
        shit = skeys[spos] == ls if len(skeys) else np.zeros(len(ls), bool)
        t = t.filter(pa.array(shit))
        cents = np.round(t.column("l_extendedprice")
                          .to_numpy(zero_copy_only=False) * 100.0) \
            .astype(np.int64)
        qty = t.column("l_quantity").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "l_partkey": t.column("l_partkey"),
            "l_suppkey": t.column("l_suppkey"),
            "unitmilli": pa.array(cents * 1000 // qty, pa.int64())})

    pruned = li.map_batches(prune, batch_format="pyarrow")

    def per_part(df):
        pairs = df.groupby(["l_partkey", "l_suppkey"],
                           as_index=False)["unitmilli"].min()
        mn = pairs.groupby("l_partkey")["unitmilli"].transform("min")
        return pairs[pairs["unitmilli"] == mn]

    best = bucketed_group_transform(pruned, ["l_partkey"], per_part,
                                    n_buckets=16).to_pandas()
    out = best.merge(sup[["s_suppkey", "s_name", "s_nationkey",
                          "s_acctbal"]],
                     left_on="l_suppkey", right_on="s_suppkey")
    out["s_acctbal_cents"] = np.round(
        out["s_acctbal"].to_numpy() * 100.0).astype(np.int64)
    out["n_name"] = out["s_nationkey"].map(names)
    out = out.rename(columns={"l_partkey": "p_partkey",
                              "unitmilli": "supplycost_milli"})
    out["supplycost_milli"] = out["supplycost_milli"].astype("int64")
    return out[["s_acctbal_cents", "s_name", "n_name", "p_partkey",
                "supplycost_milli"]] \
        .sort_values(["s_acctbal_cents", "n_name", "s_name", "p_partkey"],
                     ascending=[False, True, True, True]) \
        .head(100).reset_index(drop=True)


_Q11_NATION = 7


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 important stock, adapted (stock value per part :=
    sum of cents x qty over the nation's lineitems — no partsupp):
    the nation's suppkeys broadcast (tiny), per-part values combine in
    ONE bucketed shuffle, the grand total is a second driver-combined
    scalar pass over the SMALL per-part table, and the fraction filter
    is the exact integer predicate value*1000 > total (0.1%)."""
    import ray

    from ..stages.aggregate import grouped_agg

    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_nationkey"])
    sk = np.sort(sup.loc[sup["s_nationkey"] == _Q11_NATION,
                         "s_suppkey"].to_numpy(np.int64))
    sref = ray.put(sk)

    li = _rd(sf_dir, "lineitem",
             columns=["l_partkey", "l_suppkey", "l_quantity",
                      "l_extendedprice"])

    def value(t: pa.Table) -> pa.Table:
        skeys = ray.get(sref)
        ls = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(skeys, ls),
                         max(len(skeys) - 1, 0))
        hit = skeys[pos] == ls if len(skeys) else np.zeros(len(ls), bool)
        t = t.filter(pa.array(hit))
        cents = pc.cast(pc.round(pc.multiply(
            t.column("l_extendedprice"), 100.0)), pa.int64())
        qty = pc.cast(t.column("l_quantity"), pa.int64())
        return pa.table({"ps_partkey": t.column("l_partkey"),
                         "value": pc.multiply(cents, qty)})

    per_part = grouped_agg(li.map_batches(value, batch_format="pyarrow"),
                           ["ps_partkey"], [("sum", "value", "value")],
                           combine="bucket", n_buckets=16).materialize()

    def total_partial(t: pa.Table) -> pa.Table:
        return pa.table({"s": pa.array([pc.sum(t.column("value")).as_py()
                                        or 0], pa.int64()),
                         "_one": pa.array([1], pa.int64())})

    tot = grouped_agg(per_part.map_batches(total_partial,
                                           batch_format="pyarrow"),
                      ["_one"], [("sum", "s", "s")],
                      combine="driver").to_pandas()
    total = int(tot["s"].iloc[0])
    out = per_part.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t.column("value"), pa.scalar(1000, pa.int64())),
            pa.scalar(total, pa.int64()))),
        batch_format="pyarrow").to_pandas()
    if "value" not in out.columns:
        # every part below the 0.1% share threshold (possible at larger
        # sf): an all-filtered Dataset loses its schema in to_pandas
        out = pd.DataFrame({"ps_partkey": pd.Series([], dtype="int64"),
                            "value": pd.Series([], dtype="int64")})
    out["value"] = out["value"].astype("int64")
    return out.sort_values(["value", "ps_partkey"],
                           ascending=[False, True]).reset_index(drop=True)


_Q16_BRAND = "Brand#5"
_Q16_SIZES = (1, 4, 9, 16, 25, 36, 49)


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 parts/supplier relationship, adapted (part<->supplier
    pairs come from lineitem; the excluded-supplier predicate is
    s_acctbal < 0 — the synthetic supplier has no comment column):
    qualifying part attrs + the bad-supplier set broadcast once,
    lineitem prunes + stamps + per-batch-distincts map-side, the quad
    dedup is ONE bucketed combine, and the distinct-supplier count per
    (brand, type, size) driver-combines (group count is bounded by the
    attr cross product, ~1k)."""
    import ray

    from ..stages.aggregate import grouped_agg

    part = _read_small(sf_dir, "part",
                       columns=["p_partkey", "p_brand", "p_type", "p_size"])
    part = part[(part["p_brand"] != _Q16_BRAND)
                & part["p_size"].isin(_Q16_SIZES)].sort_values("p_partkey")
    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_acctbal"])
    bad = np.sort(sup.loc[sup["s_acctbal"] < 0,
                          "s_suppkey"].to_numpy(np.int64))
    bref = ray.put((part["p_partkey"].to_numpy(np.int64),
                    part["p_brand"].to_numpy(object),
                    part["p_type"].to_numpy(object),
                    part["p_size"].to_numpy(np.int64), bad))

    li = _rd(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def stamp(t: pa.Table) -> pa.Table:
        pkeys, brands, types, sizes, badk = ray.get(bref)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(pkeys, lp), max(len(pkeys) - 1, 0))
        hit = pkeys[pos] == lp if len(pkeys) else np.zeros(len(lp), bool)
        t = t.filter(pa.array(hit))
        pos = pos[hit]
        ls = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        if len(badk):
            bpos = np.minimum(np.searchsorted(badk, ls), len(badk) - 1)
            ok = badk[bpos] != ls
            t = t.filter(pa.array(ok))
            pos = pos[ok]
        return pa.table({
            "p_brand": pa.array(brands[pos], pa.string()),
            "p_type": pa.array(types[pos], pa.string()),
            "p_size": pa.array(sizes[pos], pa.int64()),
            "l_suppkey": t.column("l_suppkey"),
        }).group_by(["p_brand", "p_type", "p_size",
                     "l_suppkey"]).aggregate([])

    quads = li.map_batches(stamp, batch_format="pyarrow")
    distinct = grouped_agg(quads,
                           ["p_brand", "p_type", "p_size", "l_suppkey"],
                           [("count", None, "_n")],
                           combine="bucket", n_buckets=16)
    out = grouped_agg(distinct, ["p_brand", "p_type", "p_size"],
                      [("count", None, "supplier_cnt")],
                      combine="driver").to_pandas()
    out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
    out["p_size"] = out["p_size"].astype("int64")
    return out[["p_brand", "p_type", "p_size", "supplier_cnt"]] \
        .sort_values(["supplier_cnt", "p_brand", "p_type", "p_size"],
                     ascending=[False, True, True, True]) \
        .reset_index(drop=True)


_Q20_PREFIX = "red"
_Q20_LO, _Q20_HI = "1997-01-01", "1998-01-01"
_Q20_MINQTY = 50
_Q20_REGION = "EUROPE"


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 potential part promotion, adapted (no partsupp
    availqty: a supplier qualifies when some red-prefixed part it
    shipped in 1997 exceeds MINQTY total units — the same
    sum-per-(supplier, part)-vs-threshold shape as availqty > 0.5 x
    shipped): red partkeys broadcast, lineitem date-prunes map-side,
    per-(supplier, part) quantities combine in ONE bucketed shuffle,
    and the qualifying suppkey set (bounded by the supplier dim)
    intersects the EUROPE suppliers driver-side."""
    import ray

    from ..stages.aggregate import grouped_agg

    nat = _read_small(sf_dir, "nation")
    reg = _read_small(sf_dir, "region")
    rk = int(reg.loc[reg["r_name"] == _Q20_REGION, "r_regionkey"].iloc[0])
    eur = set(nat.loc[nat["n_regionkey"] == rk, "n_nationkey"].astype(int))

    part = _read_small(sf_dir, "part", columns=["p_partkey", "p_name"])
    pk = np.sort(part.loc[part["p_name"].str.startswith(_Q20_PREFIX),
                          "p_partkey"].to_numpy(np.int64))
    pref = ray.put(pk)

    lo = np.datetime64(_Q20_LO, "us")
    hi = np.datetime64(_Q20_HI, "us")
    li = _rd(sf_dir, "lineitem",
             columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])

    def prune(t: pa.Table) -> pa.Table:
        pkeys = ray.get(pref)
        m = pc.and_(pc.greater_equal(t.column("l_shipdate"), pa.scalar(lo)),
                    pc.less(t.column("l_shipdate"), pa.scalar(hi)))
        t = t.filter(m)
        lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(pkeys, lp), max(len(pkeys) - 1, 0))
        hit = pkeys[pos] == lp if len(pkeys) else np.zeros(len(lp), bool)
        t = t.filter(pa.array(hit))
        return pa.table({"l_suppkey": t.column("l_suppkey"),
                         "l_partkey": t.column("l_partkey"),
                         "qty": pc.cast(t.column("l_quantity"), pa.int64())})

    per_sp = grouped_agg(li.map_batches(prune, batch_format="pyarrow"),
                         ["l_suppkey", "l_partkey"],
                         [("sum", "qty", "sq")],
                         combine="bucket", n_buckets=16)
    winners = per_sp.map_batches(
        lambda t: pa.table({"l_suppkey": t.filter(
            pc.greater(t.column("sq"),
                       pa.scalar(_Q20_MINQTY, pa.int64())))
            .column("l_suppkey")}).group_by(["l_suppkey"]).aggregate([]),
        batch_format="pyarrow").to_pandas()
    keys = set(winners["l_suppkey"].astype(int))

    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_name", "s_nationkey"])
    out = sup[sup["s_suppkey"].isin(keys)
              & sup["s_nationkey"].isin(eur)][["s_suppkey", "s_name"]]
    return out.sort_values("s_suppkey").reset_index(drop=True)


_Q21_NATION = 1


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 suppliers who kept orders waiting, adapted ("late
    line" := l_returnflag = 'R'): per-(order, supplier) late flags
    collapse per batch, F-orders prune at the scan, ONE bucketed semi
    join co-locates each orderkey, and the EXISTS / NOT EXISTS pair
    becomes vectorized order-level set logic inside the join bucket
    (>= 2 distinct suppliers, EXACTLY ONE of them late -> emit that
    supplier — identical to "another supplier exists, no OTHER
    supplier is late"); the per-supplier count driver-combines
    (supplier-dim bounded) and names attach from the dimension read."""
    import ray

    from ..stages.aggregate import grouped_agg
    from ..stages.join import bucketed_hash_join

    sup = _read_small(sf_dir, "supplier",
                      columns=["s_suppkey", "s_name", "s_nationkey"])
    nat_keys = np.sort(sup.loc[sup["s_nationkey"] == _Q21_NATION,
                               "s_suppkey"].to_numpy(np.int64))
    nref = ray.put(nat_keys)

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    orders = orders.map_batches(
        lambda t: pa.table({"l_orderkey": t.filter(
            pc.equal(t.column("o_orderstatus"), "F")).column("o_orderkey")}),
        batch_format="pyarrow")

    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_suppkey", "l_returnflag"])

    def pairs(t: pa.Table) -> pa.Table:
        g = pa.table({
            "l_orderkey": t.column("l_orderkey"),
            "l_suppkey": t.column("l_suppkey"),
            "late": pc.cast(pc.equal(t.column("l_returnflag"), "R"),
                            pa.int64()),
        }).group_by(["l_orderkey", "l_suppkey"]).aggregate([("late", "max")])
        return g.rename_columns(["l_orderkey", "l_suppkey", "late"])

    li = li.map_batches(pairs, batch_format="pyarrow")

    def waiting(df):
        g = df.groupby(["l_orderkey", "l_suppkey"],
                       as_index=False)["late"].max()
        o = g.groupby("l_orderkey").agg(n_supp=("l_suppkey", "size"),
                                        n_late=("late", "sum"))
        o = o[(o["n_late"] == 1) & (o["n_supp"] >= 2)]
        lt = g[g["late"] == 1]
        out = lt[lt["l_orderkey"].isin(o.index)][["l_suppkey"]] \
            .rename(columns={"l_suppkey": "s_suppkey"})
        keys = ray.get(nref)
        return out[out["s_suppkey"].isin(keys)]

    j = bucketed_hash_join(li, orders, on=["l_orderkey"], how="semi",
                           reduce=waiting)
    cnt = grouped_agg(j, ["s_suppkey"], [("count", None, "numwait")],
                      combine="driver").to_pandas()
    out = cnt.merge(sup[["s_suppkey", "s_name"]], on="s_suppkey")
    out["numwait"] = out["numwait"].astype("int64")
    return out[["s_name", "numwait"]] \
        .sort_values(["numwait", "s_name"], ascending=[False, True]) \
        .head(100).reset_index(drop=True)


def q_conversation_features(sf_dir: str):
    """Per-conversation feature extraction (the transcripts-axis
    aggregate a fine-tuning pipeline computes before filtering convs):
    n_turns, tool-turn count, total chars, duration — ONE grouped_agg
    over indicator columns, per-conv keys co-locate in the bucketed
    combine."""
    from ..stages.aggregate import grouped_agg

    ds = read_transcripts(sf_dir)

    def indicators(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t.column("conv_id"),
            "is_tool": pc.cast(pc.equal(t.column("role"), "tool"),
                               pa.int64()),
            "text_len": pc.utf8_length(t.column("text")).cast(pa.int64()),
            "ts": t.column("ts"),
        })

    ds = ds.map_batches(indicators, batch_format="pyarrow")
    agg = grouped_agg(ds, ["conv_id"], [
        ("count", None, "n_turns"), ("sum", "is_tool", "n_tool_turns"),
        ("sum", "text_len", "total_chars"), ("min", "ts", "first_ts"),
        ("max", "ts", "last_ts")], combine="bucket", n_buckets=16)

    def finish(t: pa.Table) -> pa.Table:
        dur = pc.subtract(t.column("last_ts").cast(pa.int64()),
                          t.column("first_ts").cast(pa.int64()))
        return pa.table({"conv_id": t.column("conv_id"),
                         "n_turns": t.column("n_turns"),
                         "n_tool_turns": t.column("n_tool_turns"),
                         "total_chars": t.column("total_chars"),
                         "duration_us": dur})

    return agg.map_batches(finish, batch_format="pyarrow").sort("conv_id")


_SPLITS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_doc_split(sf_dir: str):
    """Deterministic leakage-safe train/val/test split: md5-of-key
    boundary assignment (stages/sample.py DatasetSplitter), row-level
    and bit-replayable in SQL."""
    from ..stages.sample import DatasetSplitter

    ds = _rd(sf_dir, "documents", columns=["doc_id"])
    out = ds.map_batches(DatasetSplitter(_SPLITS, key="doc_id"),
                         batch_format="pyarrow")
    return out.sort("doc_id")


def q_doc_validate(sf_dir: str):
    """Expectations-style data-quality gate (stages/validate.py): five
    rules over documents evaluate in one map-only pass of vectorized
    masks + kilobyte count partials; the `unique` rule adds one bucketed
    combine over per-batch distinct keys.  Output = per-rule violation
    counts, the ingest-contract summary a 100 TB pipeline checks before
    training."""
    from ..stages.validate import validate

    ds = _rd(sf_dir, "documents",
             columns=["doc_id", "text", "lang", "n_chars"])
    out = validate(ds, [
        {"kind": "not_null", "col": "text"},
        {"kind": "in_range", "col": "n_chars", "lo": 10, "hi": 5000},
        {"kind": "in_set", "col": "lang",
         "values": ["en", "de", "fr", "es"]},
        {"kind": "matches", "col": "text", "pattern": r"\."},
        {"kind": "unique", "col": "doc_id"},
    ])
    return out.sort("rule")


def q_sample_otep235(sf_dir: str):
    """OTEP-235 consistent-probability sampling (the reference
    probabilisticsamplerprocessor's equalizing mode): keep iff the
    56-bit randomness of conv_id >= the rejection threshold; survivors
    carry the encoded `th` tracestate value.  Deterministic and
    DuckDB-replayable (md5_number_lower >> 8)."""
    from ..stages.sample import Otep235Sampler

    ds = read_transcripts(sf_dir)
    out = ds.map_batches(Otep235Sampler(25.0, key="conv_id"),
                         batch_format="pyarrow")
    return out.map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "sampling_th"]),
        batch_format="pyarrow").sort(["conv_id", "turn_idx"])


def q_skewed_type_join(sf_dir: str):
    """Skew-aware salted join: every event joins its type's total count
    — event_type is maximally skewed (a handful of keys cover the whole
    table), exactly the case where a plain hash join puts each key's
    entire fan-in into ONE reduce task.  skew_join auto-detects the hot
    keys with a SpaceSaving pass, salts the left side n_salt ways and
    replicates the tiny hot right rows (stages/join.py)."""
    from ..stages.join import skew_join

    ev = _rd(sf_dir, "events", columns=["event_id", "event_type"])
    totals = grouped_count(
        _rd(sf_dir, "events", columns=["event_type"]),
        ["event_type"], alias="type_total", combine="driver")
    out = skew_join(ev, totals, on=["event_type"], how="inner",
                    n_salt=8, hot_min_share=0.02)
    return out.map_batches(
        # union-schema padding floats the int columns; exact ints < 2^53
        # cast back losslessly
        lambda t: pa.table({
            "event_id": t.column("event_id").cast(pa.int64()),
            "event_type": t.column("event_type"),
            "type_total": t.column("type_total").cast(pa.int64())}),
        batch_format="pyarrow").sort("event_id")


def q_doc_bpe_tokens(sf_dir: str):
    """Real BPE tokenization (Sennrich 2016; stages/bpe.py): the corpus
    collapses to a distinct-word frequency table (per-batch np.unique
    partials, one bucketed combine), merges learn over that table, and a
    broadcast-ranks actor pool encodes map-side with a distinct-word
    cache.  Rows-only by design (merge learning is iterative — SQL
    cannot replay it), so every row carries its own invariant:
    ``detok_ok`` re-concatenates the emitted tokens and compares against
    the lowercased word stream — BPE is lossless, so TRUE on every row.
    The tokens are dropped in the same map stage (the list never
    crosses an exchange).  Trainer parity additionally pinned by
    tests/test_bpe.py."""
    from ..stages.bpe import _EOW, _split_words, bpe_tokenize

    out, _ = bpe_tokenize(
        lambda: _rd(sf_dir, "documents", columns=["doc_id", "text"]),
        n_merges=256, min_count=2, emit_tokens=True)

    def check(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        # each word ends with the _EOW marker in the token stream
        words = ["".join(w.lower() + _EOW for w in ws)
                 for ws in _split_words(texts)]
        toks = t.column("bpe_tokens").to_pylist()
        ok = [("".join(tk) == w) for tk, w in zip(toks, words)]
        return pa.table({"doc_id": t.column("doc_id"),
                         "n_bpe_tokens": t.column("n_bpe_tokens"),
                         "detok_ok": pa.array(ok, pa.bool_())})

    return out.map_batches(check, batch_format="pyarrow").sort("doc_id")


def q_event_windows(sf_dir: str):
    """Navigation + frame window functions per user over the TOTAL order
    (ts, event_id): row_number, lag/lead, trailing-3 moving sum, running
    sum, first_value.  One bucketed shuffle computes all six columns
    (stages/window.py grouped_window); sums run over integer cents so
    the oracle hash is exact."""
    from ..stages.window import WindowSpec, grouped_window

    ds = _rd(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        iv = pc.cast(pc.floor(pc.multiply(t.column("value"), 100.0)),
                     pa.int64())
        return t.append_column("iv", iv)

    ds = ds.map_batches(cents, batch_format="pyarrow")
    out = grouped_window(ds, ["user_id"], ["ts", "event_id"], [
        WindowSpec("row_number", out="rn"),
        WindowSpec("lag", col="value", out="prev_value"),
        WindowSpec("lead", col="value", out="next_value"),
        WindowSpec("moving_sum", col="iv", frame=3, out="msum3"),
        WindowSpec("running_sum", col="iv", out="rsum"),
        WindowSpec("first_value", col="iv", out="first_iv"),
    ])
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "rn", "prev_value",
                            "next_value", "msum3", "rsum", "first_iv"]),
        batch_format="pyarrow").sort("event_id")


def q_event_rank_windows(sf_dir: str):
    """Rank-family window functions per user over a PEERED order
    (event_type — ties share rank): rank, dense_rank, percent_rank,
    cume_dist.  Boundary-mask computation on the bucket-sorted frame —
    no per-key rank() calls; the float columns are integer ratios in one
    division, so they hash exactly against the oracle."""
    from ..stages.window import WindowSpec, grouped_window

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "event_type"])
    out = grouped_window(ds, ["user_id"], ["event_type"], [
        WindowSpec("rank", out="rnk"),
        WindowSpec("dense_rank", out="drnk"),
        WindowSpec("percent_rank", out="prank"),
        WindowSpec("cume_dist", out="cdist"),
    ])
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "event_type", "rnk",
                            "drnk", "prank", "cdist"]),
        batch_format="pyarrow").sort("event_id")


def q_event_trailing(sf_dir: str):
    """Time-RANGE trailing window per user: 24h trailing sum/count/avg of
    integer cents over (ts, event_id) order.  The engine's time_* frame is
    [t - range_us, t] with ties entering in order-column position — the
    oracle replays that exactly with a self-join + (ts, event_id)
    tiebreak (a SQL RANGE frame would instead include ALL ts peers).
    tavg is derived as tsum/tcnt AFTER the window (identical double
    division on both sides) rather than a rolling mean, so it hashes
    bit-exactly."""
    from ..stages.window import WindowSpec, grouped_window

    ds = _rd(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        iv = pc.cast(pc.floor(pc.multiply(t.column("value"), 100.0)),
                     pa.int64())
        return t.append_column("iv", iv)

    day_us = 24 * 3600 * 1_000_000
    out = grouped_window(ds.map_batches(cents, batch_format="pyarrow"),
                         ["user_id"], ["ts", "event_id"], [
        WindowSpec("time_sum", col="iv", range_us=day_us, out="tsum"),
        WindowSpec("time_count", range_us=day_us, out="tcnt"),
    ])

    def finish(t: pa.Table) -> pa.Table:
        tavg = pc.divide(pc.cast(t.column("tsum"), pa.float64()),
                         pc.cast(t.column("tcnt"), pa.float64()))
        return t.select(["event_id", "user_id", "tsum", "tcnt"]) \
                .append_column("tavg", tavg)

    return out.map_batches(finish, batch_format="pyarrow").sort("event_id")


# ---------------------------------------------------------------- catalogs


def q_metric_context_pipeline(sf_dir: str):
    """transformprocessor metric/datapoint statement contexts end-to-end
    (internal/common/config.go:14-21 ContextStatements): a flattened
    metric table (one row per datapoint) derived deterministically from
    events; a datapoint-context statement stamps attributes via the
    ``metric.``-upward reference, metric-context statements run
    convert_gauge_to_sum (func_convert_gauge_to_sum.go) + scale_metric
    (func_scale.go), extract_count_metric (func_extract_count_metric.go)
    emits the <name>_count Sum rows, then a grouped aggregate.  All
    derived values are multiples of 0.5 so float sums are exact in any
    combine order (bitwise oracle parity)."""
    from ..stages.metrics import extract_count_metric

    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])

    def to_metrics(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        m3 = eid % 3
        return pa.table({
            "metric_name": t.column("event_type"),
            "metric_type": pa.array(
                np.select([m3 == 0, m3 == 1], ["Sum", "Gauge"], "Histogram")),
            "metric_aggregation_temporality": pc.if_else(
                pa.array(m3 == 1), pa.scalar(None, pa.string()),
                pa.scalar("cumulative")),
            "value_double": pa.array((eid % 1000).astype(np.float64)),
            "count": pc.if_else(pa.array(m3 == 2),
                                pa.array(eid % 100, pa.int64()),
                                pa.scalar(None, pa.int64())),
        })

    dp_stage = TransformStage(
        ['set(attributes["band"], "hi") where value_double >= 500.0',
         'set(attributes["band"], "lo") where value_double < 500.0'],
        context="datapoint")
    metric_stage = TransformStage(
        ['convert_gauge_to_sum("delta", true)', "scale_metric(0.5)"],
        context="metric")
    ds = (ds.map_batches(to_metrics, batch_format="pyarrow")
            .map_batches(dp_stage, batch_format="pyarrow")
            .map_batches(metric_stage, batch_format="pyarrow"))
    ds = extract_count_metric(ds, monotonic=True)
    out = grouped_agg(ds, ["metric_name", "metric_type", "attr_band"],
                      [("count", None, "n"), ("sum", "value_double", "total")],
                      combine="driver")
    return out.sort(["metric_name", "metric_type", "attr_band"])


# ---- pytest-only operator promotions: each parser/connector that was
# covered only by unit tests gets a derived-input oracle query (inputs
# built deterministically from events columns so DuckDB can replay the
# derivation, then the REAL stage parses them back).


def _s(col) -> pa.Array:
    out = pc.cast(col, pa.string())
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def _join(*parts):
    flat = [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
            for p in parts]
    return pc.binary_join_element_wise(*flat, "")


def q_gotime_parse(sf_dir: str):
    """Go-layout time parse end-to-end (stanza time parser
    layout_type=gotime, helper/time.go): each event renders an
    apache-style stamp ``02/Jan/2006:15:04:05.999 -0700`` with derived
    components and a varying UTC offset; TimeParser(gotime) parses the
    month name, millisecond fraction and numeric offset back to a UTC
    instant.  The oracle recomputes the instant arithmetically
    (make_timestamp minus the offset) — parser vs arithmetic truth."""
    from ..stages.parse import TimeParser

    ds = _rd(sf_dir, "events", columns=["event_id"])
    months = np.array(["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul",
                       "Aug", "Sep", "Oct", "Nov", "Dec"])

    def render(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)

        def pad(vals, width):
            return pc.utf8_lpad(_s(pa.array(vals)), width, "0")

        off_min = ((eid % 5) - 2) * 30
        off_abs = np.abs(off_min)
        off = pc.binary_join_element_wise(
            pa.array(np.where(off_min < 0, "-", "+")),
            pad(off_abs // 60, 2), pad(off_abs % 60, 2), "")
        line = pc.binary_join_element_wise(
            pad(1 + eid % 28, 2), "/", pa.array(months[eid % 12]),
            "/2019:", pad(eid % 24, 2), ":", pad(eid % 60, 2), ":",
            pad((eid * 7) % 60, 2), ".", pad(eid % 1000, 3), " ", off,
            "")
        return pa.table({"event_id": t.column("event_id"), "line": line})

    parsed = ds.map_batches(render, batch_format="pyarrow") \
        .map_batches(TimeParser("line", layout_type="gotime",
                                layout="02/Jan/2006:15:04:05.999 -0700"),
                     batch_format="pyarrow")

    base_us = 1546300800000000  # 2019-01-01T00:00:00Z

    def project(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        off_min = pc.multiply(
            pc.subtract(pc.subtract(eid, pc.multiply(pc.divide(eid, 5), 5)),
                        2), 30)
        us = pc.cast(t.column("time"), pa.int64())
        return pa.table({
            "offset_min": off_min,
            "us": us,
            "delta_ms": pc.divide(pc.subtract(us, base_us), 1000),
        })

    out = grouped_agg(parsed.map_batches(project, batch_format="pyarrow"),
                      ["offset_min"],
                      [("count", None, "n"),
                       ("min", "us", "min_us"),
                       ("max", "us", "max_us"),
                       ("sum", "delta_ms", "sum_delta_ms")],
                      combine="driver")
    return out.sort("offset_min")


def q_syslog5424_parse(sf_dir: str):
    """RFC5424 syslog parse end-to-end (stanza syslog parser protocol
    rfc5424, pkg/stanza/operator/parser/syslog/parser.go:151-171): each
    event renders a full 5424 line — pri, version, header fields with
    nilvalue proc_id every 7th row, one structured-data element — and
    Rfc5424SyslogParser extracts them back.  Aggregates per (facility,
    severity_text) with a null-proc count and a sum over the SD param;
    the oracle replays the derivation arithmetic in SQL."""
    from ..stages.parse import Rfc5424SyslogParser

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def render(t: pa.Table) -> pa.Table:
        eid = t.column("event_id")
        pri = pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 192), 192)),
                      pa.string())
        host = pc.binary_join_element_wise(
            "h", pc.cast(pc.subtract(t.column("user_id"),
                                     pc.multiply(pc.divide(t.column("user_id"), 20), 20)),
                         pa.string()), "")
        app = pc.binary_join_element_wise(
            "app", pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 5), 5)),
                           pa.string()), "")
        proc = pc.if_else(
            pc.equal(pc.subtract(eid, pc.multiply(pc.divide(eid, 7), 7)), 0),
            pa.scalar("-"),
            pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 97), 97)),
                    pa.string()))
        msgid = pc.binary_join_element_wise(
            "ID", pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 11), 11)),
                          pa.string()), "")
        sd_n = pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 13), 13)),
                       pa.string())
        et = pc.fill_null(t.column("event_type"), "none")
        line = pc.binary_join_element_wise(
            "<", pri, ">1 2015-08-05T21:58:59.693Z ", host, " ", app, " ",
            proc, " ", msgid, ' [ex@32473 etype="', et, '" n="', sd_n,
            '"] ', et, " done", "")
        return pa.table({"line": line})

    parsed = ds.map_batches(render, batch_format="pyarrow") \
        .map_batches(Rfc5424SyslogParser(parse_from="line"),
                     batch_format="pyarrow")

    def project(t: pa.Table) -> pa.Table:
        sd = t.column("attr_structured_data")
        if isinstance(sd, pa.ChunkedArray):
            sd = sd.combine_chunks()
        inner = pc.map_lookup(sd, query_key="ex@32473", occurrence="first")
        n_val = pc.map_lookup(inner, query_key="n", occurrence="first")
        return pa.table({
            "facility": t.column("attr_facility"),
            "severity_text": t.column("attr_severity_text"),
            "proc_null": pc.cast(pc.is_null(t.column("attr_proc_id")),
                                 pa.int64()),
            "sd_n": pc.cast(n_val, pa.int64()),
        })

    ds2 = parsed.map_batches(project, batch_format="pyarrow")
    out = grouped_agg(ds2, ["facility", "severity_text"],
                      [("count", None, "n"),
                       ("sum", "proc_null", "proc_null"),
                       ("sum", "sd_n", "sd_n_sum")],
                      combine="driver")
    return out.sort(["facility", "severity_text"])


def q_uri_parse(sf_dir: str):
    """stanza uri_parser (pkg/stanza/operator/parser/uri): derived URIs
    split into scheme/host/port/path/query attr columns, grouped."""
    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        uri = _join("https://api", _s(pa.array(eid % 5)),
                    ".example.com:", _s(pa.array((eid % 3) + 8080)),
                    "/v", _s(pa.array(eid % 2)),
                    "/items?q=", _s(t.column("event_type")),
                    "&page=", _s(pa.array(eid % 7)))
        return t.append_column("uri", uri)

    from ..stages.parse import UriParser

    ds = ds.map_batches(mk, batch_format="pyarrow") \
           .map_batches(UriParser(parse_from="uri"), batch_format="pyarrow")
    return grouped_count(ds, ["attr_scheme", "attr_host", "attr_port",
                              "attr_path"], alias="n") \
        .sort(["attr_host", "attr_port", "attr_path"])


def q_kv_parse(sf_dir: str):
    """stanza key_value_parser: derived 'user=.. level=.. code=..'
    lines parsed back, code summed per level."""
    ds = _rd(sf_dir, "events", columns=["event_id", "user_id"])
    levels = np.array(["debug", "info", "warn", "error"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        line = _join("user=u", _s(pa.array(uid % 50)),
                     " level=", pa.array(levels[eid % 4]),
                     " code=", _s(pa.array(100 + eid % 400)))
        return t.append_column("line", line)

    from ..stages.parse import KeyValueParser

    ds = ds.map_batches(mk, batch_format="pyarrow") \
           .map_batches(KeyValueParser(["user", "level", "code"],
                                       parse_from="line"),
                        batch_format="pyarrow")

    def typed(t: pa.Table) -> pa.Table:
        return t.append_column("code_int",
                               pc.cast(t.column("attr_code"), pa.int64(), safe=False))

    ds = ds.map_batches(typed, batch_format="pyarrow")
    return grouped_agg(ds, ["attr_level"],
                       [("count", None, "n"), ("sum", "code_int", "code_sum")],
                       combine="driver").sort("attr_level")


def q_csv_parse(sf_dir: str):
    """stanza csv_parser: derived 'part,qty,price' lines parsed back;
    price is a 0.5-multiple so the float sum is bitwise-stable."""
    ds = _rd(sf_dir, "events", columns=["event_id"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        line = _join("p", _s(pa.array(eid % 20)),
                     ",", _s(pa.array(eid % 9)),
                     ",", _s(pa.array((eid % 500) / 2.0)))
        return t.append_column("line", line)

    from ..stages.parse import CsvParser

    ds = ds.map_batches(mk, batch_format="pyarrow") \
           .map_batches(CsvParser(["part", "qty", "price"], parse_from="line"),
                        batch_format="pyarrow")

    def typed(t: pa.Table) -> pa.Table:
        t = t.append_column("qty_int", pc.cast(t.column("attr_qty"), pa.int64(), safe=False))
        return t.append_column("price_d", pc.cast(t.column("attr_price"), pa.float64(), safe=False))

    ds = ds.map_batches(typed, batch_format="pyarrow")
    return grouped_agg(ds, ["attr_part"],
                       [("sum", "qty_int", "qty_sum"),
                        ("sum", "price_d", "price_sum")],
                       combine="driver").sort("attr_part")


def q_jsonarray_parse(sf_dir: str):
    """stanza jsonarray_parser (parser/jsonarray/parser.go:29-90):
    derived JSON-array lines map positionally onto header columns."""
    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        flag = np.where(eid % 2 == 0, "true", "false")
        line = _join('["', _s(t.column("event_type")), '", ',
                     _s(pa.array(eid % 13)), ", ", pa.array(flag), "]")
        return t.append_column("line", line)

    from ..stages.parse import JsonArrayParser

    ds = ds.map_batches(mk, batch_format="pyarrow") \
           .map_batches(JsonArrayParser(parse_from="line",
                                        header=["etype", "n", "flag"]),
                        batch_format="pyarrow")
    return grouped_agg(ds, ["attr_etype", "attr_flag"],
                       [("count", None, "rows"), ("sum", "attr_n", "n_sum")],
                       combine="driver").sort(["attr_etype", "attr_flag"])


def q_grok_parse(sf_dir: str):
    """ExtractGrokPatterns / stanza grok front-door
    (func_extract_grok_patterns.go): access-log-ish lines via
    %{IP} %{WORD} %{NOTSPACE} %{INT}, bytes summed per method."""
    ds = _rd(sf_dir, "events", columns=["event_id"])
    methods = np.array(["GET", "POST", "PUT"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        line = _join("10.", _s(pa.array(eid % 256)), ".0.1 ",
                     pa.array(methods[eid % 3]),
                     " /api/item/", _s(pa.array(eid % 11)),
                     " ", _s(pa.array(eid % 2048)))
        return t.append_column("line", line)

    from ..stages.parse import GrokParser

    parser = GrokParser(
        "^%{IP:client} %{WORD:method} %{NOTSPACE:request} %{INT:bytes}$",
        parse_from="line", types={"bytes": pa.int64()})
    ds = ds.map_batches(mk, batch_format="pyarrow") \
           .map_batches(parser, batch_format="pyarrow")
    return grouped_agg(ds, ["attr_method"],
                       [("count", None, "n"), ("sum", "attr_bytes", "bytes_sum")],
                       combine="driver").sort("attr_method")


def q_trace_scope_parse(sf_dir: str):
    """stanza trace_parser (helper/trace.go: 32/16-hex validation +
    lowercase normalization) + scope_name parser: uppercase md5-derived
    ids normalize; every 10th row is malformed and flags
    parse_failure."""
    import hashlib

    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_pylist()
        hx = [hashlib.md5(str(e).encode()).hexdigest().upper() for e in eid]
        trace = [("nothex" if e % 10 == 0 else h) for e, h in zip(eid, hx)]
        span = [h[:16] for h in hx]
        return (t.append_column("attr_trace_id", pa.array(trace))
                 .append_column("attr_span_id", pa.array(span))
                 .append_column("attr_trace_flags",
                                pa.array(["01"] * len(eid))))

    from ..stages.parse import ScopeParser, TraceParser

    ds = (ds.map_batches(mk, batch_format="pyarrow")
            .map_batches(TraceParser(), batch_format="pyarrow")
            .map_batches(ScopeParser(parse_from="event_type"),
                         batch_format="pyarrow"))
    return grouped_agg(ds, ["scope_name", "parse_failure"],
                       [("count", None, "n"),
                        ("min", "trace_id", "min_trace"),
                        ("min", "span_id", "min_span")],
                       combine="driver").sort(["scope_name", "parse_failure"])


def q_roundrobin_counts(sf_dir: str):
    """roundrobinconnector: arrival-order rotation (by the dense
    event_id sequence) — balanced fan-out counts per sink."""
    from ..stages.route import round_robin_split

    ds = _rd(sf_dir, "events", columns=["event_id"])
    ds = round_robin_split(ds, 5, by="event_id")
    return grouped_agg(ds, ["rr_sink"],
                       [("count", None, "n"), ("sum", "event_id", "id_sum")],
                       combine="driver").sort("rr_sink")


def q_failover_counts(sf_dir: str):
    """failoverconnector (connector/failoverconnector): the primary sink
    raises, the secondary parquet sink receives everything; read back
    and count per type to prove no loss/duplication on failover."""
    import os

    from ..stages.route import failover_write

    ds = _rd(sf_dir, "events", columns=["event_id", "event_type"])
    out_dir = os.path.join("/tmp/graft_failover",
                           os.path.basename(os.path.normpath(sf_dir)))
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    def primary(_ds):
        raise ConnectionError("primary sink down")

    def secondary(d):
        d.write_parquet(out_dir, compression="zstd")

    used = failover_write(ds, [primary, secondary])
    assert used == 1
    import ray.data as rd

    back = rd.read_parquet(out_dir)
    return grouped_count(back, ["event_type"], alias="n").sort("event_type")


def q_schema_rename_counts(sf_dir: str):
    """schemaprocessor (processor/schemaprocessor): semantic-convention
    rename attr_k -> attr_count_key after a JSON parse, then aggregate
    over the RENAMED column."""
    from ..stages.enrich import SchemaRenameStage

    ds = _rd(sf_dir, "events", columns=["event_type", "props"])
    ds = (ds.map_batches(JsonParser(parse_from="props", keys=["k"]),
                         batch_format="pyarrow")
            .map_batches(SchemaRenameStage({"k": "count_key"}),
                         batch_format="pyarrow"))

    def typed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "ck", pc.cast(t.column("attr_count_key"), pa.int64(), safe=False))

    ds = ds.map_batches(typed, batch_format="pyarrow")
    return grouped_agg(ds, ["event_type"], [("sum", "ck", "key_total")],
                       combine="driver").sort("event_type")


def q_xml_extract(sf_dir: str):
    """OTTL GetXML converter (func_get_xml.go) inside a transform
    statement: XPath-extract the qty element from derived XML bodies,
    group by the serialized match."""
    ds = _rd(sf_dir, "events", columns=["event_id"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        xml = _join('<order id="', _s(pa.array(eid % 10)), '"><qty>',
                    _s(pa.array(eid % 7)), "</qty></order>")
        return t.append_column("text", xml)

    stage = TransformStage(
        ['set(attributes["qty_xml"], GetXML(text, "/order/qty"))'])
    ds = ds.map_batches(mk, batch_format="pyarrow") \
           .map_batches(stage, batch_format="pyarrow")
    return grouped_count(ds, ["attr_qty_xml"], alias="n").sort("attr_qty_xml")


def q_recombine_multiline(sf_dir: str):
    """stanza recombine boundary mode (transformer/recombine/config.go:
    38-61): is_first_entry-delimited multiline stitch within a source,
    ordered by a sequence column — derived log lines from events."""
    from ..stages.aggregate import recombine_multiline

    ds = _rd(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        head = np.where(eid % 4 == 0, "BEGIN|", "c|")
        return (t.append_column("src", _join("s", _s(pa.array(uid % 20))))
                 .append_column("text", _join(pa.array(head),
                                              _s(t.column("event_type")))))

    ds = ds.map_batches(mk, batch_format="pyarrow")
    out = recombine_multiline(ds, source_col="src", order_col="event_id",
                              is_first_entry='IsMatch(text, "^BEGIN")',
                              sep=" | ")
    return out.sort(["src", "entry_idx"])


def q_video_pipeline(sf_dir: str):
    """REAL raw-RGB24 video frame sampling (rows-only; seeded clips are
    not SQL-replayable): uniform temporal sample -> per-item frame count
    + average decoded frame brightness."""
    import ray.data as rd

    from ..stages.multimodal import FrameSampler, synth_video_table

    ds = rd.from_arrow(synth_video_table(100))
    frames = ds.map_batches(FrameSampler(frames_per_item=4),
                            batch_format="pyarrow", batch_size=16)
    return grouped_agg(frames, ["item_id"],
                       [("count", None, "n_frames"),
                        ("mean", "mean_pixel", "avg_px")],
                       combine="driver").sort("item_id")


def q_video_decode_check(sf_dir: str):
    """Cross-container video decode-parity invariant, oracle-checkable
    form: the SAME deterministic grayscale clips are packaged four ways
    (raw RGB24, uncompressed-DIB AVI, YUV4MPEG2 Cmono, Motion-JPEG AVI)
    and pushed through the one FrameSampler stage.  DIB and Y4M
    grayscale decode are lossless, so their sampled frame payloads must
    equal the raw reference BYTE-FOR-BYTE (mismatch counters == 0); the
    lossy MJPG variant must sample the same temporal indices and stay
    within a 16/255 mean-abs-error bound per frame (out-of-tol == 0).
    The oracle states every column (12 items, 4 sampled frames each)."""
    import ray.data as rd

    from ..stages.multimodal import FrameSampler, encode_avi, encode_y4m

    rng = np.random.RandomState(21)
    n_items, w, h, n_frames = 12, 16, 12, 24
    rows = {"item_id": [], "mime": [], "variant": [], "payload": [],
            "width": [], "height": []}
    for i in range(n_items):
        g = rng.randint(0, 200, size=(h, w), dtype=np.uint8)
        frames = [np.repeat(np.clip(g.astype(np.int32) + 2 * j, 0, 255)
                            .astype(np.uint8)[:, :, None], 3, axis=2)
                  for j in range(n_frames)]
        for variant, payload, mime in (
                ("raw", b"".join(f.tobytes() for f in frames), "video/raw"),
                ("dib", encode_avi(frames), "video/x-msvideo"),
                ("y4m", encode_y4m(frames, colorspace="Cmono"),
                 "video/x-yuv4mpeg"),
                ("mjpg", encode_avi(frames, codec="MJPG"),
                 "video/x-msvideo")):
            rows["item_id"].append(i)
            rows["mime"].append(mime)
            rows["variant"].append(variant)
            rows["payload"].append(payload)
            rows["width"].append(w)
            rows["height"].append(h)
    tbl = pa.table({
        "item_id": pa.array(rows["item_id"], pa.int64()),
        "mime": pa.array(rows["mime"]),
        "variant": pa.array(rows["variant"]),
        "payload": pa.array(rows["payload"], pa.large_binary()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
    })
    # variant rides along item_id by packing: FrameSampler keys output
    # rows by item_id only, so give each variant its own id space
    vmap = {"raw": 0, "dib": 1, "y4m": 2, "mjpg": 3}
    packed = tbl.set_column(
        0, "item_id",
        pa.array([i * 4 + vmap[v] for i, v in
                  zip(rows["item_id"], rows["variant"])], pa.int64()))
    out = rd.from_arrow(packed).map_batches(
        FrameSampler(frames_per_item=4), batch_format="pyarrow",
        batch_size=8).to_pandas()
    out["item"] = out["item_id"] // 4
    out["variant"] = out["item_id"] % 4
    ref = {(r.item, r.frame_idx): r.frame_payload
           for r in out[out["variant"] == 0].itertuples()}
    dib_mis = y4m_mis = mjpg_tol = idx_mis = 0
    for v, counter in ((1, "dib"), (2, "y4m"), (3, "mjpg")):
        sub = out[out["variant"] == v]
        for r in sub.itertuples():
            key = (r.item, r.frame_idx)
            if key not in ref:
                idx_mis += 1
                continue
            a = np.frombuffer(r.frame_payload, np.uint8).astype(np.int32)
            b = np.frombuffer(ref[key], np.uint8).astype(np.int32)
            if v == 3:
                if len(a) != len(b) or np.abs(a - b).mean() > 16.0:
                    mjpg_tol += 1
            elif not np.array_equal(a, b):
                if v == 1:
                    dib_mis += 1
                else:
                    y4m_mis += 1
    return pa.table({
        "n_items": pa.array([n_items], pa.int64()),
        "frames_per_variant": pa.array(
            [int((out["variant"] == 0).sum()) // n_items], pa.int64()),
        "frame_idx_mismatch": pa.array([idx_mis], pa.int64()),
        "dib_mismatch": pa.array([dib_mis], pa.int64()),
        "y4m_mismatch": pa.array([y4m_mis], pa.int64()),
        "mjpg_out_of_tol": pa.array([mjpg_tol], pa.int64()),
    })


def q_image_decode_check(sf_dir: str):
    """Image codec decode-parity invariant, oracle-checkable form: the
    SAME deterministic pixels encode through every native codec and
    decode back via the one sniffing decode_image entry point — BMP,
    binary PNM (P6) and PNG are lossless (byte-exact, mismatch
    counters == 0); baseline JPEG (q=85) must stay within an 8/255
    mean-abs-error bound (out-of-tol == 0).  Runs distributed as one
    map_batches over the encoded table.  The oracle states every
    column."""
    import ray.data as rd

    from ..stages.multimodal import decode_image, encode_bmp, encode_png

    def encode_pnm(px):
        h, w = px.shape[:2]
        return b"P6\n%d %d\n255\n" % (w, h) + px.tobytes()

    from ..stages.jpegcodec import encode_jpeg

    rng = np.random.RandomState(22)
    n_images = 10
    rows = {"img": [], "codec": [], "payload": []}
    pixels = {}
    for i in range(n_images):
        # smooth gradient + low noise: a fair JPEG subject (pure noise
        # is the pathological worst case for any DCT codec)
        gx = np.linspace(0, 255, 16, dtype=np.float64)[None, :, None]
        gy = np.linspace(0, 255, 16, dtype=np.float64)[:, None, None]
        base = (gx * 0.5 + gy * 0.5 + rng.randint(-8, 9, (16, 16, 3)))
        px = np.clip(base + 10 * i % 64, 0, 255).astype(np.uint8)
        pixels[i] = px
        for codec, enc in (("bmp", encode_bmp), ("pnm", encode_pnm),
                           ("png", encode_png),
                           ("jpeg", lambda p: encode_jpeg(p, quality=85))):
            rows["img"].append(i)
            rows["codec"].append(codec)
            rows["payload"].append(enc(px))
    tbl = pa.table({"img": pa.array(rows["img"], pa.int64()),
                    "codec": pa.array(rows["codec"]),
                    "payload": pa.array(rows["payload"], pa.large_binary())})

    def check(t: pa.Table) -> pa.Table:
        lossless_mis = jpeg_tol = 0
        for img, codec, payload in zip(t.column("img").to_pylist(),
                                       t.column("codec").to_pylist(),
                                       t.column("payload").to_pylist()):
            got = decode_image(payload).astype(np.int32)
            want = pixels[img].astype(np.int32)
            if codec == "jpeg":
                if got.shape != want.shape or \
                        np.abs(got - want).mean() > 8.0:
                    jpeg_tol += 1
            elif not np.array_equal(got, want):
                lossless_mis += 1
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "lossless_mismatch": pa.array([lossless_mis], pa.int64()),
            "jpeg_out_of_tol": pa.array([jpeg_tol], pa.int64())})

    parts = rd.from_arrow(tbl).map_batches(
        check, batch_format="pyarrow", batch_size=8).to_pandas()
    return pa.table({
        "n_payloads": pa.array([int(parts["n"].sum())], pa.int64()),
        "lossless_mismatch": pa.array(
            [int(parts["lossless_mismatch"].sum())], pa.int64()),
        "jpeg_out_of_tol": pa.array(
            [int(parts["jpeg_out_of_tol"].sum())], pa.int64()),
    })


def q_audio_decode_check(sf_dir: str):
    """WAV sample-format decode-parity invariant, oracle-checkable
    form: the SAME deterministic int16 clips are containered as PCM
    16/24/32-bit (exact by construction: the extra low bits are zero),
    IEEE-float 32/64 (round-trips within 1 LSB after the *32767
    re-quantization) and unsigned 8-bit (lossy: 256-step quantization,
    bounded by 255) — all decoded by the one decode_wav entry point to
    canonical PCM16 and compared to the reference.  Distributed as one
    map_batches over the encoded table; the oracle states every
    counter."""
    import struct

    import ray.data as rd

    from ..stages.multimodal import decode_wav, encode_wav

    def wav(fmt_tag, bits, payload, rate=8000, ch=1):
        fmt = struct.pack("<HHIIHH", fmt_tag, ch, rate,
                          rate * ch * bits // 8, ch * bits // 8, bits)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload
                + (b"\x00" if len(payload) % 2 else b""))
        return b"RIFF" + struct.pack("<I", len(body)) + body

    rng = np.random.RandomState(23)
    n_clips = 8
    rows = {"clip": [], "variant": [], "payload": []}
    refs = {}
    for i in range(n_clips):
        s = ((np.sin(np.arange(1024) / (5.0 + i)) * 0.7
              + rng.standard_normal(1024) * 0.05) * 32767.0) \
            .clip(-32767, 32767).round().astype("<i2")
        refs[i] = s
        s32 = s.astype(np.int32)
        b24 = np.zeros((len(s), 3), np.uint8)
        v = np.where(s32 < 0, s32 + (1 << 16), s32) << 8  # s<<8 as u24
        b24[:, 0] = v & 0xFF
        b24[:, 1] = (v >> 8) & 0xFF
        b24[:, 2] = (v >> 16) & 0xFF
        for variant, payload in (
                ("pcm16", encode_wav(s.tobytes(), 8000)),
                ("pcm24", wav(1, 24, b24.tobytes())),
                ("pcm32", wav(1, 32, (s32 << 16).astype("<i4").tobytes())),
                ("f32", wav(3, 32, (s / 32767.0).astype("<f4").tobytes())),
                ("f64", wav(3, 64, (s / 32767.0).astype("<f8").tobytes())),
                ("pcm8", wav(1, 8, ((s32 >> 8) + 128).astype(np.uint8)
                             .tobytes()))):
            rows["clip"].append(i)
            rows["variant"].append(variant)
            rows["payload"].append(payload)
    tbl = pa.table({"clip": pa.array(rows["clip"], pa.int64()),
                    "variant": pa.array(rows["variant"]),
                    "payload": pa.array(rows["payload"], pa.large_binary())})

    def check(t: pa.Table) -> pa.Table:
        exact_mis = float_tol = pcm8_tol = 0
        for clip, variant, payload in zip(t.column("clip").to_pylist(),
                                          t.column("variant").to_pylist(),
                                          t.column("payload").to_pylist()):
            pcm, rate, ch = decode_wav(payload)
            got = np.frombuffer(pcm, "<i2").astype(np.int32)
            want = refs[clip].astype(np.int32)
            if rate != 8000 or ch != 1 or len(got) != len(want):
                exact_mis += 1
                continue
            err = np.abs(got - want).max() if len(want) else 0
            if variant in ("pcm16", "pcm24", "pcm32"):
                exact_mis += int(err != 0)
            elif variant in ("f32", "f64"):
                float_tol += int(err > 1)
            else:
                pcm8_tol += int(err > 255)
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "e": pa.array([exact_mis], pa.int64()),
            "f": pa.array([float_tol], pa.int64()),
            "p8": pa.array([pcm8_tol], pa.int64())})

    parts = rd.from_arrow(tbl).map_batches(
        check, batch_format="pyarrow", batch_size=8).to_pandas()
    return pa.table({
        "n_payloads": pa.array([int(parts["n"].sum())], pa.int64()),
        "pcm_exact_mismatch": pa.array([int(parts["e"].sum())], pa.int64()),
        "float_out_of_tol": pa.array([int(parts["f"].sum())], pa.int64()),
        "pcm8_out_of_tol": pa.array([int(parts["p8"].sum())], pa.int64()),
    })


def q_recombine_capped(sf_dir: str):
    """recombine max_batch_size (transformer/recombine/config.go:49):
    a conversation's stitch flushes every 8 turns (ordered chunks)."""
    ds = read_transcripts(sf_dir)
    out = recombine(ds, sep="\n", max_batch_size=8)
    return out.map_batches(
        lambda t: t.select(["conv_id", "part", "combined", "n_turns"]),
        batch_format="pyarrow").sort(["conv_id", "part"])


# shared decontamination CTE (8-token shingles, benchmark = doc_id < 50)
# used by the doc_decontaminate oracle and the bloom invariant check
_DECONTAM_CTE = """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                    FROM documents)
            ), ng AS (
              SELECT doc_id,
                     w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win
                       || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win
                       || ' ' || lead(w, 5) OVER win || ' ' || lead(w, 6) OVER win
                       || ' ' || lead(w, 7) OVER win AS g
              FROM tok
              WINDOW win AS (PARTITION BY doc_id ORDER BY i)
              QUALIFY lead(w, 7) OVER win IS NOT NULL
            ), bench AS (
              SELECT DISTINCT g FROM ng WHERE doc_id < 50
            ), corpus AS (
              SELECT DISTINCT doc_id, g FROM ng WHERE doc_id >= 50
            )"""


# --- driver-checkable invariant promotions -------------------------------
# Rows-only ops (ANN, BPE, Bloom, HLL, k-means) carry per-row
# self-validation already; these summaries collapse each invariant to a
# row whose expected value the DuckDB oracle CAN state (counts from the
# input tables + must-be-zero violation counters), promoting the op from
# the driver's weak rows-only check to a full value-hash CORRECTNESS row.


def q_ann_consistency_check(sf_dir: str):
    """ANN scoring-exactness invariant across all three approximate
    index families: every IVF/LSH/PQ-rerank sim must equal an
    independent exact cosine recompute (max_sim_diff_e12 == 0 per
    query; ann_self_check docstring).  One row per method: the distinct
    query count and the count of queries with ANY nonzero sim diff —
    the oracle states both (3 queries by construction, 0 violations by
    the invariant)."""
    rows = []
    for method, q in (("ivf", q_knn_ivf), ("lsh", q_knn_lsh),
                      ("pq", q_knn_pq)):
        df = q(sf_dir)
        df = df.to_pandas() if hasattr(df, "to_pandas") else df
        rows.append({
            "method": method,
            "n_queries": int(df["query_idx"].nunique()),
            "n_nonzero_diff": int((df["max_sim_diff_e12"] != 0).sum()),
        })
    return pa.table({
        "method": pa.array([r["method"] for r in rows], pa.string()),
        "n_queries": pa.array([r["n_queries"] for r in rows], pa.int64()),
        "n_nonzero_diff": pa.array([r["n_nonzero_diff"] for r in rows],
                                   pa.int64()),
    })


def q_bpe_roundtrip_check(sf_dir: str):
    """BPE losslessness invariant, oracle-checkable form: across the
    whole corpus, re-concatenating each doc's emitted tokens must
    reproduce its lowercased word stream (detok_ok on every row of
    q_doc_bpe_tokens).  n_docs comes from the documents table (the
    oracle counts it); n_detok_fail must be 0."""
    from ..stages.aggregate import grouped_agg

    ds = q_doc_bpe_tokens(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.sum(pc.cast(t.column("detok_ok"), pa.int64())).as_py() or 0
        return pa.table({"n": pa.array([t.num_rows], pa.int64()),
                         "bad": pa.array([t.num_rows - ok], pa.int64()),
                         "_one": pa.array([1], pa.int64())})

    tot = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                      ["_one"], [("sum", "n", "n"), ("sum", "bad", "bad")],
                      combine="driver").to_pandas()
    return pa.table({
        "n_docs": pa.array([int(tot["n"].iloc[0])], pa.int64()),
        "n_detok_fail": pa.array([int(tot["bad"].iloc[0])], pa.int64()),
    })


def q_decontam_bloom_check(sf_dir: str):
    """Bloom-filter no-false-negative invariant, oracle-checkable form:
    exact_flagged is SQL-replayable (the doc_decontaminate oracle
    counted per doc); bloom_missed (exact-flagged docs the Bloom probe
    did NOT flag) must be 0 — a Bloom filter has false positives,
    never false negatives."""
    t = q_doc_decontaminate_bloom(sf_dir)
    return t.select(["exact_flagged", "bloom_missed"])


def q_hll_bound_check(sf_dir: str):
    """HLL error-bound invariant, oracle-checkable form: every
    per-event-type approximate distinct count must sit within 80000 ppm
    (8%) of the exact count computed in the same plan (p=12 registers
    give ~1.6% expected error; the same bound is pinned in pytest).
    The oracle states n_groups = count(DISTINCT event_type) and
    n_within_bound = n_groups."""
    df = q_approx_distinct_users(sf_dir).to_pandas()
    return pa.table({
        "n_groups": pa.array([len(df)], pa.int64()),
        "n_within_bound": pa.array([int((df["err_ppm"] <= 80_000).sum())],
                                   pa.int64()),
    })


def q_cms_bound_check(sf_dir: str):
    """Count-Min sketch invariant, oracle-checkable form: for EVERY
    distinct events.user_id, the CMS estimate (w=64, d=4 — deliberately
    narrow so collisions genuinely occur at test scale) must (a) never
    underestimate (the structural CMS guarantee) and (b) overshoot by at
    most 8N/w (5x the empirical max at sf0.01; Markov gives per-key
    failure odds (1/8)^4 and the md5-free hash is deterministic, so the
    counters are fixed for a fixed corpus).  Exact counts stay
    distributed; only the 2 KB counter matrix is broadcast.  The oracle
    states n_keys = count(DISTINCT user_id) and zero violations."""
    from ..stages.sketch import CMS, cms_counts

    W, D = 64, 4
    ds = _rd(sf_dir, "events", columns=["user_id"])
    cms = cms_counts(ds, "user_id", w=W, d=D)
    n_total = int(cms.m[0].sum())  # every add hits each row exactly once
    bound = 8 * n_total // W
    mat = cms.m  # 2 KB — rides the task closure

    exact = ds.groupby("user_id").count()

    def check(t: pa.Table) -> pa.Table:
        from ..stages.sample import hash64

        c = CMS(W, D)
        c.m = mat
        est = c.estimate_hashed(hash64(t.column("user_id")))
        true = t.column("count()").to_numpy()
        return pa.table({
            "n_keys": pa.array([t.num_rows], pa.int64()),
            "n_underestimates": pa.array([int((est < true).sum())],
                                         pa.int64()),
            "n_over_bound": pa.array([int((est - true > bound).sum())],
                                     pa.int64()),
        })

    part = exact.map_batches(check, batch_format="pyarrow")
    agg = part.sum(["n_keys", "n_underestimates", "n_over_bound"])
    return pa.table({
        "n_keys": pa.array([int(agg["sum(n_keys)"])], pa.int64()),
        "n_underestimates": pa.array([int(agg["sum(n_underestimates)"])],
                                     pa.int64()),
        "n_over_bound": pa.array([int(agg["sum(n_over_bound)"])],
                                 pa.int64()),
    })


def q_unigram_lm_check(sf_dir: str):
    """Unigram-LM tokenizer (SentencePiece model) invariants,
    oracle-checkable form: (a) corpus log-likelihood is non-decreasing
    across EM iterations at fixed vocabulary (the EM guarantee;
    segments are per prune round, slack 1e-9 relative for distributed
    float partial order), (b) Viterbi encode is detok-lossless for
    every document (the lattice only contains exact covers), (c) the
    pruned vocabulary meets its target.  The oracle states n_docs and
    zeros/one for the invariant counters (stages/unigram.py)."""
    import ray

    from ..stages.bpe import word_frequencies
    from ..stages.unigram import UnigramEncoder, unigram_train

    MAXLEN = 5
    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    wt = word_frequencies(ds)
    logp, segments = unigram_train(wt, vocab_size=200, seed_size=1024,
                                   max_piece_len=MAXLEN, em_iters=3)
    viol = 0
    for seg in segments:
        for a, b in zip(seg, seg[1:]):
            if b < a - 1e-9 * abs(a):
                viol += 1
    n_chars = sum(1 for s in logp if len(s) == 1)
    vocab_ok = int(len(logp) <= max(200, n_chars))

    # an autoscaling pool: a fixed 4-actor pool holds every CPU of a
    # 4-core cluster, so the read feeding it never schedules (deadlock)
    enc = ds.map_batches(UnigramEncoder,
                         fn_constructor_args=(ray.put(logp), MAXLEN),
                         batch_format="pyarrow", concurrency=(1, 4))
    agg = enc.map_batches(
        lambda t: pa.table({
            "n_docs": pa.array([t.num_rows], pa.int64()),
            "detok_fails": pa.array(
                [int(pc.sum(pc.cast(pc.invert(t.column("detok_ok")),
                                    pa.int64())).as_py() or 0)],
                pa.int64())}),
        batch_format="pyarrow").sum(["n_docs", "detok_fails"])
    return pa.table({
        "n_docs": pa.array([int(agg["sum(n_docs)"])], pa.int64()),
        "ll_violations": pa.array([viol], pa.int64()),
        "detok_fails": pa.array([int(agg["sum(detok_fails)"])], pa.int64()),
        "vocab_at_target": pa.array([vocab_ok], pa.int64()),
    })


def q_pagerank_parts(sf_dir: str):
    """Integer-exact PageRank (3 power iterations) over the supplier ->
    part bipartite graph from lineitem (stages/graph.py): node ids
    suppkey*2 / partkey*2+1, per-edge floor(rank*17/(20*outdeg)),
    dangling mass dropped — order-independent int64 arithmetic, so the
    distributed result is bit-equal to the DuckDB CTE replay."""
    li = _rd(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def mk_edges(t: pa.Table) -> pa.Table:
        two = pa.scalar(2, pa.int64())
        return pa.table({
            "src": pc.multiply(pc.cast(t.column("l_suppkey"), pa.int64()),
                               two),
            "dst": pc.add(pc.multiply(
                pc.cast(t.column("l_partkey"), pa.int64()), two),
                pa.scalar(1, pa.int64()))})

    from ..stages.graph import pagerank

    out = pagerank(li.map_batches(mk_edges, batch_format="pyarrow"),
                   iters=3)
    return out.sort("node")


def q_triangle_parts(sf_dir: str):
    """Exact triangle count of the part co-purchase graph (parts
    sharing an order are adjacent): per-order pair expansion via ONE
    bucketed group transform, then stages/graph.py triangle_count —
    degree-ordered orientation bounds the wedge join's hub fan-out, a
    self-join on the wedge source and a closing-edge semi join finish.
    All-integer set arithmetic, replayed exactly by the DuckDB oracle."""
    import pandas as pd

    from ..stages.aggregate import bucketed_group_transform
    from ..stages.graph import triangle_count

    li = _rd(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        m = g.merge(g, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        return pd.DataFrame({"src": m["l_partkey_x"].to_numpy(),
                             "dst": m["l_partkey_y"].to_numpy()})

    edge_ds = bucketed_group_transform(li, ["l_orderkey"], pairs,
                                       n_buckets=32)
    n = triangle_count(edge_ds, n_buckets=32)
    return pa.table({"n_triangles": pa.array([n], pa.int64())})


def q_cdc_merge_balances(sf_dir: str):
    """CDC merge / MERGE INTO (stages/cdc.py): a changelog derived
    deterministically from orders (per order: upsert the customer's
    balance to o_totalprice, or delete the customer when the order
    status is 'F'; o_orderkey is the sequence) applied to the customer
    snapshot — highest-sequence change per key wins, winning deletes
    drop the key, untouched customers keep c_acctbal.  One bucketed
    co-partition of base+changes; the oracle replays with a
    row_number() window + left join."""
    from ..stages.cdc import cdc_merge

    base = _rd(sf_dir, "customer", columns=["c_custkey", "c_acctbal"]) \
        .map_batches(lambda t: pa.table({
            "custkey": pc.cast(t.column("c_custkey"), pa.int64()),
            "balance": pc.cast(t.column("c_acctbal"), pa.float64())}),
            batch_format="pyarrow")
    changes = _rd(sf_dir, "orders",
                  columns=["o_custkey", "o_totalprice", "o_orderkey",
                           "o_orderstatus"]) \
        .map_batches(lambda t: pa.table({
            "custkey": pc.cast(t.column("o_custkey"), pa.int64()),
            "balance": pc.cast(t.column("o_totalprice"), pa.float64()),
            "seq": pc.cast(t.column("o_orderkey"), pa.int64()),
            "op": pc.if_else(
                pc.equal(t.column("o_orderstatus"), "F"),
                pa.scalar("D", pa.string()), pa.scalar("U", pa.string()))}),
            batch_format="pyarrow")
    out = cdc_merge(base, changes, keys=["custkey"], seq_col="seq")
    return out.sort("custkey")


def q_bfs_hops_parts(sf_dir: str):
    """Multi-source BFS distances (stages/graph.py bfs_distances) over
    the UNDIRECTED supplier<->part bipartite graph (same node encoding
    as pagerank_parts: suppkey*2 / partkey*2+1), seeds = suppliers
    1,2,3, capped at 3 hops.  Level-synchronous expansion; frontier +
    visited broadcast map-side at this scale (edges never shuffle),
    auto-switching to bucketed semi/anti joins past the threshold.
    Oracle = recursive CTE min-distance replay."""
    from ..stages.graph import bfs_distances

    li = _rd(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])

    def mk_edges(t: pa.Table) -> pa.Table:
        two = pa.scalar(2, pa.int64())
        return pa.table({
            "src": pc.multiply(pc.cast(t.column("l_suppkey"), pa.int64()),
                               two),
            "dst": pc.add(pc.multiply(
                pc.cast(t.column("l_partkey"), pa.int64()), two),
                pa.scalar(1, pa.int64()))})

    out = bfs_distances(li.map_batches(mk_edges, batch_format="pyarrow"),
                        seeds=[2, 4, 6], max_hops=3, undirected=True)
    return out.sort("node")


def _zorder_expr() -> str:
    """DuckDB twin of stages/layout.py zorder_key over dims (x, y)."""
    from ..stages.layout import zorder_sql_expr

    return zorder_sql_expr("x", "y")


def q_zorder_layout(sf_dir: str):
    """Z-order (Morton) clustering layout over events on
    (user_id, value) — stages/layout.py add_zorder_partition: the
    interleaved-bit key and its top-4-bit partition id are pure
    map-side kernels (NO sort, NO shuffle — the 100 TB trade:
    top-bits bucketing gives the same file-pruning envelopes as a
    global z-sort for 1/16 of the cost).  Returns per-partition row
    counts and min/max envelopes of BOTH dimensions; the oracle
    rebuilds the identical key with a 32-term bit expression."""
    from ..stages.aggregate import grouped_agg
    from ..stages.layout import add_zorder_partition

    ds = _rd(sf_dir, "events", columns=["user_id", "value"])
    zds = add_zorder_partition(
        ds, "user_id", "value",
        y_expr=lambda v: np.floor(v * 100.0), part_bits=4)

    def dims(t: pa.Table) -> pa.Table:
        x = t.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64) & 0xFFFF
        y = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64) & 0xFFFF
        return pa.table({"zpart": t.column("zpart"),
                         "x": pa.array(x, pa.int64()),
                         "y": pa.array(y, pa.int64())})

    out = grouped_agg(zds.map_batches(dims, batch_format="pyarrow"),
                      ["zpart"],
                      [("count", None, "n"),
                       ("min", "x", "min_x"), ("max", "x", "max_x"),
                       ("min", "y", "min_y"), ("max", "y", "max_y")],
                      combine="driver")
    return out.sort("zpart")


def q_audio_stft_check(sf_dir: str):
    """STFT frequency-recovery invariant, oracle-checkable form: 160
    deterministic clips (0.5-amp sine at 100 + 50*(i%20) Hz plus 0.05
    noise, half raw PCM16 / half inside real RIFF WAVE containers) run
    through AudioSpectralExtractor (stages/multimodal.py) — the
    dominant STFT bin must land within ONE bin width (sr/n_fft =
    15.625 Hz) of the planted frequency for EVERY item, and the
    per-frame Parseval identity must hold to 1e-9 (a structural check
    that the FFT path is a real transform, not a fake).  The oracle
    states all three counters."""
    import ray.data as rd

    from ..stages.multimodal import AudioSpectralExtractor, synth_audio_table

    N, SR, NFFT = 160, 16000, 1024
    ds = rd.from_arrow(synth_audio_table(N, sample_rate=SR))
    feats = ds.map_batches(AudioSpectralExtractor,
                           fn_constructor_kwargs={"n_fft": NFFT},
                           batch_format="pyarrow", batch_size=32,
                           concurrency=(1, 2))

    def check(t: pa.Table) -> pa.Table:
        item = t.column("item_id").to_numpy(zero_copy_only=False)
        planted = 100.0 + 50.0 * (item % 20)
        dom = t.column("dominant_freq_hz").to_numpy(zero_copy_only=False)
        perr = t.column("parseval_rel_err").to_numpy(zero_copy_only=False)
        bin_hz = SR / NFFT
        return pa.table({
            "n_items": pa.array([t.num_rows], pa.int64()),
            "n_peak_within_bin": pa.array(
                [int((np.abs(dom - planted) <= bin_hz).sum())], pa.int64()),
            "n_parseval_ok": pa.array([int((perr <= 1e-9).sum())],
                                      pa.int64())})

    agg = feats.map_batches(check, batch_format="pyarrow") \
        .sum(["n_items", "n_peak_within_bin", "n_parseval_ok"])
    return pa.table({k: pa.array([int(agg[f"sum({k})"])], pa.int64())
                     for k in ("n_items", "n_peak_within_bin",
                               "n_parseval_ok")})


def q_qdigest_bound_check(sf_dir: str):
    """q-digest rank-error invariant, oracle-checkable form: the
    deterministic mergeable quantile summary (stages/sketch.py QDigest,
    Shrivastava 2004) built over floor(events.value * 100) with
    bits=16, k=512 must answer every probed quantile within its
    WORST-CASE eps = bits/k = 3.125% rank bound — checked against
    exact ranks computed distributed in the same plan (one map pass
    counting values <= v_q per batch; the digest itself is a kilobyte
    of partials per batch merged on the driver).  The oracle states n
    and zero violations."""
    from ..stages.sketch import qdigest_build

    QS = (0.25, 0.5, 0.75, 0.95)
    ds = _rd(sf_dir, "events", columns=["value"])
    dig = qdigest_build(ds, "value", bits=16, k=512, scale=100.0)
    cuts = np.array([dig.quantile(q) for q in QS], np.int64)

    def part(t: pa.Table) -> pa.Table:
        v = np.floor(t.column("value").to_numpy(zero_copy_only=False)
                     .astype(np.float64) * 100.0).astype(np.int64)
        cols = {"n": pa.array([t.num_rows], pa.int64())}
        for i, c in enumerate(cuts):
            cols[f"le{i}"] = pa.array([int((v <= c).sum())], pa.int64())
            cols[f"lt{i}"] = pa.array([int((v < c).sum())], pa.int64())
        return pa.table(cols)

    agg = ds.map_batches(part, batch_format="pyarrow") \
        .sum(["n"] + [f"le{i}" for i in range(len(QS))]
             + [f"lt{i}" for i in range(len(QS))])
    n = int(agg["sum(n)"])
    slack = dig.eps * n + 1
    viol = 0
    for i, q in enumerate(QS):
        # eps-approximate-quantile guarantee: the returned value's rank
        # interval [count(<v), count(<=v)] intersects q*n +- eps*n
        r_le, r_lt = int(agg[f"sum(le{i})"]), int(agg[f"sum(lt{i})"])
        target = max(int(np.ceil(q * n)), 1)
        if r_le < target - slack or r_lt > target + slack:
            viol += 1
    return pa.table({"n": pa.array([n], pa.int64()),
                     "n_quantiles": pa.array([len(QS)], pa.int64()),
                     "n_violations": pa.array([viol], pa.int64())})


def q_inverted_token_stats(sf_dir: str):
    """Inverted-index lexicon build (stages/invindex.py token_stats):
    per-token df / tf / doc-id range over the documents corpus.  The
    corpus text never shuffles — per-batch pyarrow group_by partials
    over (token, doc) pairs, one bucketed hash aggregate to combine.
    min_df=2 exercises the post-agg dictionary prune."""
    from ..stages.invindex import token_stats

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    return token_stats(ds, min_df=2).sort("token")


def q_phrase_search_counts(sf_dir: str):
    """Positional phrase search through the inverted index probe path
    (stages/invindex.py phrase_search): postings of the phrase terms
    only leave the scan, co-partition by doc once, adjacency closes as
    sorted-key membership (doc<<21|pos rank keys).  One bigram + one
    trigram phrase; the oracle replays adjacency with positional
    self-joins over the exploded token table."""
    from ..stages.invindex import phrase_search

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    rows = []
    for ph in (("table", "value"), ("slow", "hash", "batch")):
        t = phrase_search(ds, ph)
        rows.append({"phrase": " ".join(ph),
                     "n_docs": t.column("n_docs")[0].as_py(),
                     "n_occurrences": t.column("n_occurrences")[0].as_py()})
    return pa.table({
        "phrase": pa.array([r["phrase"] for r in rows], pa.string()),
        "n_docs": pa.array([r["n_docs"] for r in rows], pa.int64()),
        "n_occurrences": pa.array([r["n_occurrences"] for r in rows],
                                  pa.int64())})


def q_boolean_search_docs(sf_dir: str):
    """Index-backed boolean retrieval (stages/invindex.py
    boolean_search): docs containing spark AND vector, and the same
    with NOT slow — doc sets intersect/differ per co-partitioned
    bucket, counts sum exactly because a doc never spans buckets."""
    from ..stages.invindex import boolean_search

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    n1 = boolean_search(ds, must=["spark", "vector"])
    n2 = boolean_search(ds, must=["spark", "vector"], must_not=["slow"])
    return pa.table({"n_and": pa.array([n1], pa.int64()),
                     "n_and_not": pa.array([n2], pa.int64())})


def q_kmeans_opt_check(sf_dir: str):
    """k-means assignment-optimality invariant, oracle-checkable form:
    every vector's assigned centroid is re-verified as the true argmin
    by an INDEPENDENT naive distance recompute (np.sum((x-c)^2) per
    centroid, a different op order than the stage's |x|^2-2xc+|c|^2
    expansion) — n_violations must be 0; n_points is the embeddings
    row count the oracle states."""
    import ray

    from ..stages.aggregate import grouped_agg
    from ..stages.cluster import kmeans_assign, seed_centroids

    ds = _rd(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents = seed_centroids(ds, 8)
    assigned = kmeans_assign(ds, cents)
    cref = ray.put(np.asarray(cents, dtype=np.float64))

    def verify(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
        got = t.column("cluster_id").to_numpy(zero_copy_only=False)
        if len(x) == 0:
            bad = 0
        else:
            d = np.stack([np.sum((x - c[j]) ** 2, axis=1)
                          for j in range(len(c))], axis=1)
            bad = int((d.argmin(axis=1) != got).sum())
        return pa.table({"n": pa.array([t.num_rows], pa.int64()),
                         "bad": pa.array([bad], pa.int64()),
                         "_one": pa.array([1], pa.int64())})

    tot = grouped_agg(assigned.map_batches(verify, batch_format="pyarrow"),
                      ["_one"], [("sum", "n", "n"), ("sum", "bad", "bad")],
                      combine="driver").to_pandas()
    return pa.table({
        "n_points": pa.array([int(tot["n"].iloc[0])], pa.int64()),
        "n_violations": pa.array([int(tot["bad"].iloc[0])], pa.int64()),
    })


def q_bloom_join_revenue(sf_dir: str):
    """Bloom-prefiltered selective join (stages/join.py bloom_prefilter):
    revenue of lineitems belonging to 1-URGENT orders.  The urgent key
    set builds a fixed-size Bloom filter DISTRIBUTED (per-batch partial
    blooms OR-reduced on the driver — kilobytes per batch regardless of
    key count), broadcasts once via ray.put, and prunes the lineitem
    scan MAP-SIDE before the single co-partitioning shuffle of the
    exact semi join.  Bloom false positives only ship a few extra rows
    into the exact join — the result stays exact — while the ~80%
    non-matching majority of the big side never leaves its block: at
    100 TB this turns a full-table exchange into an exchange of the
    matching fraction for one 1 MB broadcast.  Revenue stays int64
    (cents × (100 − disc%)) end-to-end so the oracle hash is exact."""
    from ..stages.aggregate import grouped_agg
    from ..stages.join import bloom_prefilter, bucketed_hash_join

    orders = _rd(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    urgent = orders.map_batches(
        lambda t: pa.table({"l_orderkey": t.filter(
            pc.equal(t.column("o_orderpriority"), "1-URGENT"))
            .column("o_orderkey")}),
        batch_format="pyarrow")
    li = _rd(sf_dir, "lineitem",
             columns=["l_orderkey", "l_extendedprice", "l_discount",
                      "l_returnflag"])
    pruned = bloom_prefilter(li, urgent, on=["l_orderkey"])
    joined = bucketed_hash_join(pruned, urgent, on=["l_orderkey"],
                                how="semi")

    def rev(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(t.column("l_extendedprice"),
                                             100.0)), pa.int64())
        disc = pc.cast(pc.round(pc.multiply(t.column("l_discount"), 100.0)),
                       pa.int64())
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "rev": pc.multiply(cents,
                               pc.subtract(pa.scalar(100, pa.int64()),
                                           disc))})

    out = grouped_agg(joined.map_batches(rev, batch_format="pyarrow"),
                      ["l_returnflag"], [("sum", "rev", "revenue"),
                                         ("count", None, "n_items")],
                      combine="driver")
    return out.sort("l_returnflag")


_ATTR_WINDOW_US = 7 * 24 * 3600 * 1_000_000  # 7-day lookback


def _q_attribution(sf_dir: str, model: str):
    from ..stages.attribution import attribute_conversions

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "event_type", "ts"])
    out = attribute_conversions(ds, "purchase",
                                ["view", "click", "signup"],
                                window_us=_ATTR_WINDOW_US, model=model)
    return out.map_batches(
        lambda t: t.select(["conv_id", "user_id", "touch_id",
                            "touch_type"]),
        batch_format="pyarrow").sort("conv_id")


def q_attribution_last_touch(sf_dir: str):
    """Last-touch attribution (stages/attribution.py): every purchase
    attributed to the user's latest view/click/signup inside a 7-day
    half-open lookback [conv_ts - 7d, conv_ts), same-timestamp ties to
    the larger event id, unattributed purchases kept with null touch
    columns.  ONE bucketed co-partition by user + a vectorized
    backward merge_asof per bucket; only (user, ts, type, id) tuples
    shuffle.  Oracle = LEFT JOIN + QUALIFY row_number window."""
    return _q_attribution(sf_dir, "last")


def q_attribution_first_touch(sf_dir: str):
    """First-touch attribution: the EARLIEST qualifying touch in the
    same window (ties to the smaller event id) — a forward merge_asof
    anchored at the window start, then the half-open upper bound
    re-applied.  Same shuffle shape as last-touch."""
    return _q_attribution(sf_dir, "first")


def q_ewma_anomaly_events(sf_dir: str):
    """Integer-exact truncated EWMA + anomaly flags
    (stages/resample.py ewma_smooth): per user, each event's value (as
    exact cents) is compared to the alpha=1/2 exponentially weighted
    mean of its previous 8 values — kept as an int64 fraction
    (num = Σ v_{t-j}·2^{8-j}, den = Σ weights present) so the
    distributed result is BIT-equal to the SQL lag-window replay; the
    anomaly flag is the exact cross-multiplication v·den > 2·num.
    ONE bucketed co-partition by user; 8 vectorized groupby-shifts per
    bucket, no per-key Python."""
    from ..stages.resample import ewma_smooth

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "value"])
    cents = ds.map_batches(
        lambda t: pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            "c": pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                         pa.int64())}),
        batch_format="pyarrow")
    out = ewma_smooth(cents, by="user_id", value_col="c",
                      order_cols=["event_id"], horizon=8, anomaly_mult=2)
    return out.map_batches(
        lambda t: pa.table({
            "event_id": t.column("event_id"),
            "ewma_num": t.column("ewma_num"),
            "ewma_den": t.column("ewma_den"),
            "is_anom": pc.cast(t.column("is_anom"), pa.int64())}),
        batch_format="pyarrow").sort("event_id")


def _ewma_sql(H: int = 8, mult: int = 2) -> str:
    lags = ",\n                     ".join(
        f"lag(c, {j}) OVER w AS l{j}" for j in range(1, H + 1))
    num = " + ".join(f"coalesce(l{j}, 0) * {1 << (H - j)}"
                     for j in range(1, H + 1))
    den = " + ".join(f"(CASE WHEN l{j} IS NULL THEN 0 ELSE {1 << (H - j)} "
                     "END)" for j in range(1, H + 1))
    return f"""
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events),
            l AS (
              SELECT event_id, c,
                     {lags}
              FROM e
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            f AS (
              SELECT event_id, c,
                     CAST({num} AS BIGINT) AS ewma_num,
                     CAST({den} AS BIGINT) AS ewma_den
              FROM l)
            SELECT event_id, ewma_num, ewma_den,
                   CAST(CASE WHEN ewma_den > 0
                              AND c * ewma_den > {mult} * ewma_num
                             THEN 1 ELSE 0 END AS BIGINT) AS is_anom
            FROM f ORDER BY event_id"""


def q_theta_sketch_check(sf_dir: str):
    """Theta/KMV sketch set-operation invariant, oracle-checkable form
    (stages/sketch.py ThetaSketch): distinct "user-minute" keys
    (user_id·10^6 + minute-of-day — ~2k distinct per side at sf0.01 so
    the k=256 sketches genuinely SATURATE and estimate) of 'view' vs
    'purchase' events.  Sketches are <= 2 KB per-batch partials
    merge-trimmed on the driver; the estimates of view / purchase /
    UNION must land within the 4/√k = 25% relative KMV bound of EXACT
    counts computed distributed in the same plan (per-key any-flags,
    one co-partition, three tiny sums), and the INTERSECTION — the set
    op HLL cannot answer without compounding inclusion–exclusion
    error — within the standard theta absolute bound 4/√k · |union|
    (intersection error scales with the union, not the overlap).  The
    oracle states the exact counts and all-within-bound; deterministic
    SplitMix64 hashing makes the check run-stable."""
    from ..stages.aggregate import grouped_agg
    from ..stages.sketch import theta_sketch

    K = 256

    def keyed(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        k = u * np.int64(1_000_000) + (us // 60_000_000) % 1440
        return pa.table({"k": pa.array(k, pa.int64()),
                         "event_type": t.column("event_type")})

    ds = _rd(sf_dir, "events", columns=["user_id", "ts", "event_type"]) \
        .map_batches(keyed, batch_format="pyarrow")

    def side(tp):
        return ds.map_batches(
            lambda t, tp=tp: t.filter(pc.equal(t.column("event_type"), tp))
                              .select(["k"]),
            batch_format="pyarrow")

    sk_v = theta_sketch(side("view"), "k", k=K)
    sk_p = theta_sketch(side("purchase"), "k", k=K)
    est = {"view": sk_v.estimate(), "purchase": sk_p.estimate(),
           "union": sk_v.union(sk_p).estimate(),
           "intersection": sk_v.intersect_estimate(sk_p)}

    def flags(t: pa.Table) -> pa.Table:
        return pa.table({
            "k": t.column("k"),
            "is_v": pc.cast(pc.equal(t.column("event_type"), "view"),
                            pa.int64()),
            "is_p": pc.cast(pc.equal(t.column("event_type"), "purchase"),
                            pa.int64())})

    per_key = grouped_agg(ds.map_batches(flags, batch_format="pyarrow"),
                          ["k"], [("max", "is_v", "v"),
                                  ("max", "is_p", "p")])

    def caps(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy(zero_copy_only=False)
        p = t.column("p").to_numpy(zero_copy_only=False)
        return pa.table({
            "n_view": pa.array([int(v.sum())], pa.int64()),
            "n_purchase": pa.array([int(p.sum())], pa.int64()),
            "n_union": pa.array([int((v | p).sum())], pa.int64()),
            "n_inter": pa.array([int((v & p).sum())], pa.int64())})

    tot = per_key.map_batches(caps, batch_format="pyarrow") \
        .sum(["n_view", "n_purchase", "n_union", "n_inter"])
    exact = {"view": int(tot["sum(n_view)"]),
             "purchase": int(tot["sum(n_purchase)"]),
             "union": int(tot["sum(n_union)"]),
             "intersection": int(tot["sum(n_inter)"])}
    bound = 4.0 / (K ** 0.5)
    slack = {m: bound * max(exact[m], 1) for m in ("view", "purchase",
                                                   "union")}
    slack["intersection"] = bound * max(exact["union"], 1)
    ms = sorted(exact)
    return pa.table({
        "measure": pa.array(ms, pa.string()),
        "exact_count": pa.array([exact[m] for m in ms], pa.int64()),
        "within_bound": pa.array(
            [int(abs(est[m] - exact[m]) <= slack[m]) for m in ms],
            pa.int64())})


def _synth_log_lines(t: pa.Table) -> pa.Table:
    """Deterministic log line per event — three format-string shapes
    mixing constants with the variable fields (service id, user id,
    latency, props json).  Built from the SAME expressions the oracle
    SQL uses (planted-PII precedent), so template mining runs on
    byte-identical input both sides."""
    uid = t.column("user_id")
    eid = t.column("event_id")
    cents = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                    pa.int64())
    uid_np = uid.to_numpy(zero_copy_only=False)
    svc = pa.array(uid_np % 8, pa.int64())

    def s(col):
        return pc.cast(col, pa.string())

    def cat(*parts):
        return pc.binary_join_element_wise(*[p if isinstance(p, (pa.Array,
                                                                 pa.ChunkedArray))
                                             else pa.scalar(p) for p in parts],
                                           "")

    line_a = cat("svc-", s(svc), " INFO user ", s(uid), " performed ",
                 t.column("event_type"), " in ", s(cents), "ms props=",
                 t.column("props"))
    line_b = cat("WARN slow ", t.column("event_type"), " took ", s(cents),
                 "ms user=", s(uid))
    eid_np = eid.to_numpy(zero_copy_only=False)
    is_b = pa.array(eid_np % 4 == 0)
    line = pc.if_else(is_b, line_b, line_a)
    line = pc.if_else(pa.array(eid_np == 0),
                      pa.scalar("FATAL unique marker alpha beta"), line)
    return pa.table({"event_id": eid, "line": line})


def q_log_templates(sf_dir: str):
    """Drain-style log template mining (stages/logmine.py
    mine_templates): raw log lines are masked by an RE2 chain
    (uuid -> hex -> any-token-with-a-digit -> whitespace collapse) and
    the surviving skeletons counted — lines differing only in their
    variable fields collapse to one template row with a count and the
    smallest matching event id as a deterministic example pointer;
    templates below min_count=2 are pruned (the planted FATAL
    singleton).  Map-only masking; what shuffles is one distinct-
    template partial row per batch, never the line text.  Oracle
    replays the identical RE2 chain via mask_sql_expr (single source
    of truth)."""
    from ..stages.logmine import mine_templates

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "event_type", "value",
                      "props"])
    lines = ds.map_batches(_synth_log_lines, batch_format="pyarrow")
    out = mine_templates(lines, "line", id_col="event_id", min_count=2)
    return out.sort("template")


def _log_templates_sql() -> str:
    from ..stages.logmine import mask_sql_expr

    masked = mask_sql_expr("line")
    return f"""
        WITH raw AS (
          SELECT event_id,
                 CASE
                   WHEN event_id = 0 THEN 'FATAL unique marker alpha beta'
                   WHEN event_id % 4 = 0 THEN
                     'WARN slow ' || event_type || ' took '
                     || CAST(CAST(round(value * 100) AS BIGINT) AS VARCHAR)
                     || 'ms user=' || CAST(user_id AS VARCHAR)
                   ELSE
                     'svc-' || CAST(user_id % 8 AS VARCHAR)
                     || ' INFO user ' || CAST(user_id AS VARCHAR)
                     || ' performed ' || event_type || ' in '
                     || CAST(CAST(round(value * 100) AS BIGINT) AS VARCHAR)
                     || 'ms props=' || props
                 END AS line
          FROM events),
        m AS (SELECT event_id, {masked} AS template FROM raw)
        SELECT template, count(*) AS n, min(event_id) AS example_id
        FROM m GROUP BY template HAVING count(*) >= 2
        ORDER BY template"""


def _events_cents(sf_dir: str):
    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "value"])
    return ds.map_batches(
        lambda t: pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            "c": pc.cast(pc.round(pc.multiply(t.column("value"), 100.0)),
                         pa.int64())}),
        batch_format="pyarrow")


def q_alert_hysteresis_events(sf_dir: str):
    """Latched hysteresis alerting (stages/alerting.py
    threshold_alerts): per user, ordered by (ts, event_id), the alert
    state SETS at value >= $100 and only CLEARS at <= $20 — values
    oscillating inside the band keep the previous state (Alertmanager
    set/resolve semantics, which a per-row OTTL threshold cannot
    express).  The latch is a grouped forward-fill of the nonzero
    band-crossing markers — ONE bucketed co-partition by user, no
    per-key Python; alert_fired marks exactly the clear->alerting
    flips.  Oracle = last_value(IGNORE NULLS) + lag window replay."""
    from ..stages.alerting import threshold_alerts

    out = threshold_alerts(_events_cents(sf_dir), by="user_id",
                           value_col="c", order_cols=["event_id"],
                           hi=10000, lo=2000)
    return out.map_batches(
        lambda t: t.select(["event_id", "alert_state", "alert_fired"]),
        batch_format="pyarrow").sort("event_id")


def q_cusum_change_events(sf_dir: str):
    """CUSUM change-point statistic (stages/alerting.py
    cusum_changes): per user, s_t = max(0, s_{t-1} + (cents_t - 6000))
    flags sustained upward mean shifts when s_t > 20000.  The
    max-recursion telescopes to prefix-sum minus running-min — two
    vectorized grouped scans after ONE co-partition by user, int64
    end to end so the distributed result is bit-equal to the SQL
    window replay."""
    from ..stages.alerting import cusum_changes

    out = cusum_changes(_events_cents(sf_dir), by="user_id",
                        value_col="c", order_cols=["event_id"],
                        target_k=6000, threshold_h=20000)
    return out.map_batches(
        lambda t: t.select(["event_id", "cusum", "is_change"]),
        batch_format="pyarrow").sort("event_id")


def q_table_diff_orders(sf_dir: str):
    """Keyed snapshot reconciliation (stages/cdc.py table_diff): diff
    the orders snapshot against a deterministically mutated twin
    (every 7th key removed, every surviving 5th repriced +100 cents,
    every 13th re-inserted under key+10M) and emit per key a status of
    added/removed/changed/same plus null-aware per-column change
    flags.  Both snapshots move ONCE through a bucketed co-partition;
    each bucket is one vectorized outer merge — only keys + compare
    columns shuffle.  Oracle = FULL OUTER JOIN with IS DISTINCT FROM."""
    from ..stages.cdc import table_diff

    base = _rd(sf_dir, "orders",
               columns=["o_orderkey", "o_totalprice", "o_orderstatus"])
    before = base.map_batches(
        lambda t: pa.table({
            "k": t.column("o_orderkey"),
            "c": pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                              100.0)), pa.int64()),
            "s": t.column("o_orderstatus")}),
        batch_format="pyarrow")

    def make_after(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False)
        c = t.column("c").to_numpy(zero_copy_only=False)
        keep = k % 7 != 0
        c2 = np.where(k % 5 == 0, c + 100, c)
        surv = pa.table({"k": pa.array(k[keep], pa.int64()),
                         "c": pa.array(c2[keep], pa.int64()),
                         "s": t.column("s").filter(pa.array(keep))})
        addm = k % 13 == 0
        added = pa.table({"k": pa.array(k[addm] + 10_000_000, pa.int64()),
                          "c": pa.array(c[addm], pa.int64()),
                          "s": t.column("s").filter(pa.array(addm))})
        return pa.concat_tables([surv, added])

    after = before.map_batches(make_after, batch_format="pyarrow")
    return table_diff(before, after, keys=["k"],
                      compare_cols=["c", "s"]).sort("k")


def q_scd2_customer_history(sf_dir: str):
    """SCD type-2 history build (stages/cdc.py scd2_history): a
    deterministic per-customer changelog (seq = order key, balance =
    order cents, every 11th change a delete) becomes one VERSION row
    per upsert with [valid_from, valid_to) bounds and an is_current
    flag — deletes close intervals without emitting, so a trailing
    delete leaves the key with no current version.  ONE bucketed
    co-partition by customer; the successor lookup is a single
    vectorized groupby-shift.  Oracle = lead() window over the raw
    changelog."""
    from ..stages.cdc import scd2_history

    ch = _rd(sf_dir, "orders",
             columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def to_changes(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_custkey": t.column("o_custkey"),
            "seq": t.column("o_orderkey"),
            "bal": pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                                100.0)), pa.int64()),
            "op": pc.if_else(pa.array(key % 11 == 0),
                             pa.scalar("D"), pa.scalar("U"))})

    changes = ch.map_batches(to_changes, batch_format="pyarrow")
    out = scd2_history(changes, keys=["o_custkey"], seq_col="seq",
                       payload=["bal"])
    return out.sort(["o_custkey", "valid_from"])


def q_profile_events(sf_dir: str):
    """One-pass data profiler (stages/profile.py profile_table): per
    column of the events table — row/null counts, EXACT distinct
    count, integer min/max, total string length.  Count/range/length
    stats reduce through one kilobyte partial row per column per
    batch (driver tree-merge); the exact distinct path ships each
    block's LOCAL distinct value strings once through a bucketed
    distinct — the same cost SQL count(DISTINCT) pays — with an HLL
    approx mode (constant-size partials, zero value shuffle) as the
    100-TB default for high-cardinality columns.  Oracle = one
    UNION ALL branch per column."""
    from ..stages.profile import profile_table

    ds = _rd(sf_dir, "events")
    return profile_table(ds).sort("col")


def _profile_events_sql() -> str:
    branch = """
        SELECT '{c}' AS col, count(*) AS n,
               count(*) - count({c}) AS n_null,
               count(DISTINCT {c}) AS n_distinct,
               {mn} AS min_i, {mx} AS max_i, {sl} AS sum_len
        FROM events"""
    null_i = "CAST(NULL AS BIGINT)"
    parts = []
    for c in ["event_id", "ts", "user_id", "event_type", "value",
              "props"]:
        is_int = c in ("event_id", "user_id")
        is_str = c in ("event_type", "props")
        parts.append(branch.format(
            c=c,
            mn=f"min({c})" if is_int else null_i,
            mx=f"max({c})" if is_int else null_i,
            sl=f"sum(length({c}))" if is_str else null_i))
    return " UNION ALL ".join(parts) + " ORDER BY col"


def q_global_sort_events(sf_dir: str):
    """Exact global rank via sample-split range partitioning
    (stages/sort.py global_sort_ranks — the TeraSort shape): rank
    every event by (value cents, event_id).  Two column-pruned
    kilobyte-partial metadata passes (split sampling + per-partition
    counts) then ONE shuffle where each range partition lands whole in
    a bucket and rank = broadcast prefix offset + vectorized
    cumcount.  Row-level oracle: SQL row_number() OVER a total order."""
    from ..stages.sort import global_sort_ranks

    ds = _rd(sf_dir, "events", columns=["event_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                    pa.int64())
        return pa.table({"event_id": t.column("event_id"), "cents": c})

    ranked = global_sort_ranks(ds.map_batches(cents,
                                              batch_format="pyarrow"),
                               "cents", tiebreak=["event_id"],
                               n_parts=16)
    return ranked.sort("event_id")


def q_cidr_route_counts(sf_dir: str):
    """CIDR longest-prefix-match enrichment (stages/iptools.py
    cidr_enrich — the geoipprocessor/pod-CIDR lookup shape): derive a
    deterministic dotted-quad IP per event (Knuth-hash of user_id so
    the 32-bit space is covered), parse it back with the vectorized
    dotted-quad kernel, LPM against an overlapping prefix table
    (10/8 and 64/4 nest inside 0/1; 160/3 nests inside 128/2 — longest
    wins), count per label.  Map-only broadcast lookup, <= one
    searchsorted per distinct prefix length per batch; the oracle
    rebuilds ip, RE-PARSES the string with split_part, and replays LPM
    as a lateral join + QUALIFY longest-prefix row_number."""
    from ..stages.aggregate import grouped_agg
    from ..stages.iptools import cidr_enrich

    ds = _rd(sf_dir, "events", columns=["user_id"])

    def mk_ip(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ip = (u * 2654435761) & 0xFFFFFFFF
        octs = [pc.cast(pa.array(x, pa.int64()), pa.string())
                for x in (ip >> 24, (ip >> 16) & 255,
                          (ip >> 8) & 255, ip & 255)]
        return pa.table({"ip": pc.binary_join_element_wise(
            *octs, pa.scalar("."))})

    labeled = cidr_enrich(
        ds.map_batches(mk_ip, batch_format="pyarrow"), "ip",
        [("0.0.0.0/1", "low"), ("64.0.0.0/4", "x"),
         ("10.0.0.0/8", "ten"), ("128.0.0.0/2", "q2"),
         ("160.0.0.0/3", "q2b"), ("192.0.0.0/3", "q3")])
    out = grouped_agg(labeled.select_columns(["net_label"]),
                      ["net_label"], [("count", None, "n")],
                      combine="driver")
    return out.sort("net_label")


def q_scd2_point_in_time(sf_dir: str):
    """Point-in-time temporal lookup (stages/cdc.py point_in_time_join
    composed on scd2_history): the customer balance-version table from
    scd2_customer_history's changelog is probed by a fact stream
    (orders, ts = o_orderkey rounded down to even so half the facts hit
    a version start EXACTLY — inclusive boundary — and odd first orders
    fall BEFORE their key's first version -> typed-null payload; facts
    after a delete-closed interval null too).  Both inputs co-partition
    ONCE by customer, one vectorized merge_asof per bucket.  Row-level
    oracle: interval LEFT JOIN on valid_from <= ts < valid_to."""
    from ..stages.cdc import point_in_time_join, scd2_history

    orders = _rd(sf_dir, "orders",
                 columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def to_changes(t: pa.Table) -> pa.Table:
        key = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_custkey": t.column("o_custkey"),
            "seq": t.column("o_orderkey"),
            "bal": pc.cast(pc.round(pc.multiply(t.column("o_totalprice"),
                                                100.0)), pa.int64()),
            "op": pc.if_else(pa.array(key % 11 == 0),
                             pa.scalar("D"), pa.scalar("U"))})

    hist = scd2_history(
        orders.map_batches(to_changes, batch_format="pyarrow"),
        keys=["o_custkey"], seq_col="seq", payload=["bal"])

    def to_facts(t: pa.Table) -> pa.Table:
        k = t.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "fact_id": t.column("o_orderkey"),
            "o_custkey": t.column("o_custkey"),
            "ts": pa.array(k - (k % 2), pa.int64())})

    facts = orders.map_batches(to_facts, batch_format="pyarrow")
    out = point_in_time_join(facts, hist, keys=["o_custkey"],
                             ts_col="ts", payload=["bal"])
    return out.sort("fact_id")


def q_mad_outlier_events(sf_dir: str):
    """Robust per-group anomaly flags (stages/robust.py mad_outliers):
    |x - median| > 3*MAD per event_type over integer cents, kept EXACT
    as doubled/quadrupled int64s (med_x2 = sum of the two middle
    elements, mad_x4 likewise over doubled deviations) so the
    distributed flags are bit-equal to the SQL replay — two vectorized
    lexsorts per bucket across ALL keys at once after ONE co-partition.
    Row-level oracle: nested-median CTEs (DuckDB median of BIGINT is
    interpolated, so 2*median is exactly the middle-sum)."""
    from ..stages.robust import mad_outliers

    ds = _rd(sf_dir, "events",
             columns=["event_id", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                    pa.int64())
        return pa.table({"event_id": t.column("event_id"),
                         "event_type": t.column("event_type"),
                         "cents": c})

    out = mad_outliers(ds.map_batches(cents, batch_format="pyarrow"),
                       ["event_type"], "cents", k=3)
    return out.sort("event_id")


def q_event_mode_by_type(sf_dir: str):
    """Grouped statistical mode (stages/robust.py grouped_mode): the
    most frequent cents value per event_type, smallest-value
    tie-break.  Per-batch (key, value) count partials collapse rows to
    distinct pairs BEFORE the shuffle — the row values never move.
    Oracle: counts CTE + row_number(count DESC, value ASC)."""
    from ..stages.robust import grouped_mode

    ds = _rd(sf_dir, "events", columns=["event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                    pa.int64())
        return pa.table({"event_type": t.column("event_type"),
                         "cents": c})

    out = grouped_mode(ds.map_batches(cents, batch_format="pyarrow"),
                       ["event_type"], "cents")
    return out.sort("event_type")


def q_log_new_templates(sf_dir: str):
    """New-template detection (stages/logmine.py template_novelty):
    the baseline window (even event_ids) emits only the steady-state
    INFO format; the current window (odd event_ids) emits the same
    format PLUS a planted 'ERROR retry storm' shape on ids = 5 mod 10
    — after masking, the anti join surfaces exactly the storm
    templates (one per event_type) as never-seen-in-baseline.  Both
    windows collapse to metadata-sized template tables before any
    shuffle; the corpus text never moves.  Oracle replays the mask
    chain (mask_sql_expr) + NOT IN."""
    from ..stages.logmine import template_novelty

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "event_type", "value"])

    def mk(window: str):
        def f(t: pa.Table) -> pa.Table:
            eid = t.column("event_id").to_numpy(zero_copy_only=False)
            keep = (eid % 2 == 0) if window == "base" else (eid % 2 == 1)
            t = t.filter(pa.array(keep))
            eid = t.column("event_id").to_numpy(zero_copy_only=False)
            uid = pc.cast(t.column("user_id"), pa.string())
            cents = pc.cast(pc.cast(pc.round(pc.multiply(
                t.column("value"), 100)), pa.int64()), pa.string())
            info = pc.binary_join_element_wise(
                pa.array(["svc"] * t.num_rows), uid,
                pa.array(["INFO user"] * t.num_rows), uid,
                pa.array(["performed"] * t.num_rows),
                t.column("event_type"),
                pa.array(["in"] * t.num_rows), cents,
                pa.array(["ms"] * t.num_rows), pa.scalar(" "))
            if window == "cur":
                storm = pc.binary_join_element_wise(
                    pa.array(["ERROR retry storm on"] * t.num_rows),
                    t.column("event_type"),
                    pa.array(["attempt"] * t.num_rows), cents,
                    pa.scalar(" "))
                line = pc.if_else(pa.array(eid % 10 == 5), storm, info)
            else:
                line = info
            return pa.table({"event_id": t.column("event_id"),
                             "line": line})
        return f

    base = ds.map_batches(mk("base"), batch_format="pyarrow")
    cur = ds.map_batches(mk("cur"), batch_format="pyarrow")
    out = template_novelty(base, cur, "line", id_col="event_id")
    return out.sort("template")


def _log_new_templates_sql() -> str:
    from ..stages.logmine import mask_sql_expr

    cents = "CAST(CAST(round(value * 100) AS BIGINT) AS VARCHAR)"
    info = (f"'svc ' || CAST(user_id AS VARCHAR) || ' INFO user ' || "
            f"CAST(user_id AS VARCHAR) || ' performed ' || event_type "
            f"|| ' in ' || {cents} || ' ms'")
    storm = (f"'ERROR retry storm on ' || event_type || ' attempt ' "
             f"|| {cents}")
    return f"""
        WITH base AS (
          SELECT {mask_sql_expr(info)} AS template
          FROM events WHERE event_id % 2 = 0),
        cur AS (
          SELECT event_id,
                 CASE WHEN event_id % 10 = 5 THEN {mask_sql_expr(storm)}
                      ELSE {mask_sql_expr(info)} END AS template
          FROM events WHERE event_id % 2 = 1),
        mined AS (
          SELECT template, count(*) AS n, min(event_id) AS example_id
          FROM cur GROUP BY template)
        SELECT template, n, example_id FROM mined
        WHERE template NOT IN (SELECT DISTINCT template FROM base)
        ORDER BY template"""


def q_merged_user_intervals(sf_dir: str):
    """Interval coalescing / islands (stages/intervals.py
    merge_intervals): each event opens a [ts, ts + (cents+1) seconds)
    activity interval; overlapping or touching intervals per user merge
    into maximal islands via a grouped running-max prefix scan — ONE
    bucketed co-partition, vectorized across all users, integer-exact.
    Oracle = the classic SQL islands construction (running max(end)
    OVER preceding rows -> new-island flag -> island id by running
    sum)."""
    from ..stages.intervals import merge_intervals

    ds = _rd(sf_dir, "events", columns=["user_id", "ts", "value"])

    def iv(t: pa.Table) -> pa.Table:
        s = pc.cast(t.column("ts"), pa.int64())
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                    pa.int64())
        dur = pc.multiply(pc.add(pc.abs(c), pa.scalar(1, pa.int64())),
                          pa.scalar(1_000_000, pa.int64()))
        return pa.table({"user_id": t.column("user_id"),
                         "start": s, "end": pc.add(s, dur)})

    out = merge_intervals(ds.map_batches(iv, batch_format="pyarrow"),
                          ["user_id"])
    return out.sort(["user_id", "start"])


def q_heartbeat_gaps_events(sf_dir: str):
    """Missed-heartbeat detection (stages/intervals.py sequence_gaps):
    per-user holes longer than one day in the event stream, one row
    per gap with its bounds — a grouped shift after ONE bucketed
    co-partition; duplicate timestamps step zero and never flag.
    Oracle = lag() window twin."""
    from ..stages.intervals import sequence_gaps

    ds = _rd(sf_dir, "events", columns=["user_id", "ts"])

    def us(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t.column("user_id"),
                         "tsu": pc.cast(t.column("ts"), pa.int64())})

    out = sequence_gaps(ds.map_batches(us, batch_format="pyarrow"),
                        ["user_id"], ts_col="tsu",
                        min_gap=86_400_000_000)
    return out.sort(["user_id", "gap_start"])


def q_state_change_events(sf_dir: str):
    """Change-point compression (stages/intervals.py
    distinct_until_changed): per user ordered by (ts, event_id), keep
    only rows whose event_type differs from the user's previous row
    (null-aware IS DISTINCT FROM; every user's first row kept) —
    turns a sampled state stream into an SCD-style changelog.  Oracle
    = lag() + IS DISTINCT FROM."""
    from ..stages.intervals import distinct_until_changed

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "event_type"])

    def us(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t.column("event_id"),
                         "user_id": t.column("user_id"),
                         "tsu": pc.cast(t.column("ts"), pa.int64()),
                         "event_type": t.column("event_type")})

    out = distinct_until_changed(
        ds.map_batches(us, batch_format="pyarrow"),
        ["user_id"], ["tsu", "event_id"], ["event_type"])
    return out.sort("event_id")


def q_user_event_diversity(sf_dir: str):
    """Categorical diversity audit (stages/robust.py
    grouped_diversity): per user — event count, distinct event types,
    Shannon entropy (nats) and Gini impurity of the type distribution.
    Per-batch (user, type) count partials collapse rows to distinct
    pairs before the ONE bucketed shuffle; the float kernels see exact
    int64 totals.  Both sides ROUND entropy/gini to 6dp: sums of ln()
    terms cannot be made bit-stable across engines (summation order +
    possible FMA), and the driver hashes raw values — rounding is the
    check_bitwise-clean contract."""
    from ..stages.robust import grouped_diversity

    ds = _rd(sf_dir, "events", columns=["user_id", "event_type"])
    out = grouped_diversity(ds, ["user_id"], "event_type")

    # entropy only: gini is one fixed-order rational expression and
    # already bit-stable (rounding would HURT it — gini values are
    # often exact dyadics on rounding half-boundaries)
    return _floor_round(out, [("entropy", 1e9)]).sort("user_id")


def q_doc_collocations(sf_dir: str):
    """Skip-gram collocation mining (stages/collocate.py
    collocations): ordered same-document token pairs within a 3-token
    window over the documents corpus, scored by self-normalizing PMI
    against the pair-marginal distribution; pairs with count >= 5
    returned (marginals over the FULL pair population).  Pair
    generation is zero-copy Arrow slices (text never shuffles),
    per-batch partials collapse occurrences to distinct pairs before
    the one bucketed exchange, marginals broadcast vocabulary-sized.
    Oracle replays the identical counting rule via
    generate_subscripts + windowed self-join.  PMI is ROUNDED to 6dp
    on both sides (ln() cannot be bit-stable across engines; the
    driver hashes raw values)."""
    from ..stages.collocate import collocations

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])
    out = collocations(ds, window=3, min_count=5)

    return _floor_round(out, [("pmi", 1e9)]).sort(["left", "right"])


def q_frequent_part_pairs(sf_dir: str):
    """Market-basket frequent pairs (stages/itemsets.py
    frequent_pairs): part pairs co-purchased in >= 2 distinct orders.
    Items co-partition ONCE by order; pairs are one vectorized
    self-merge per bucket (item_a < item_b) bounded by max_basket;
    only distinct-pair partial counts enter the second exchange.
    Oracle = distinct-items self-join + HAVING."""
    from ..stages.itemsets import frequent_pairs

    li = _rd(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    out = frequent_pairs(li, "l_orderkey", "l_partkey", min_support=2)
    return out.sort(["item_a", "item_b"])


def q_compact_files_check(sf_dir: str):
    """Small-file compaction invariant (stages/compact.py
    compact_parquet): 37 deterministic event shards (event_id % 37,
    driver-built fixture) are bin-packed into ~5 target-size outputs —
    plan is driver metadata only, each bin one independent task
    streaming row groups (memory bounded by one row group, atomic
    rename for resumability).  The check: every row and the exact
    cents sum survive the round trip, and the output file count landed
    in [2, 12].  Oracle states the conserved quantities."""
    import shutil

    import pyarrow.parquet as pq

    from ..stages.compact import compact_parquet

    base = "/tmp/graft_compact/" + os.path.basename(sf_dir.rstrip("/"))
    shutil.rmtree(base, ignore_errors=True)
    ind, outd = f"{base}/in", f"{base}/out"
    os.makedirs(ind)
    t = pq.read_table(f"{sf_dir}/events.parquet",
                      columns=["event_id", "value"])
    eid = t.column("event_id").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    part = pa.array(eid % 37, pa.int64())
    for i in range(37):
        pq.write_table(t.filter(pc.equal(part, pa.scalar(i, pa.int64()))),
                       f"{ind}/shard-{i:03d}.parquet")
    total_bytes = sum(os.path.getsize(f"{ind}/{f}")
                      for f in os.listdir(ind))
    compact_parquet(ind, outd, target_bytes=max(total_bytes // 5, 1),
                    compression="snappy").take_all()
    n_out = len(os.listdir(outd))

    import ray.data as rd
    back = rd.read_parquet(outd)

    def cents(tb: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(tb.column("value"), 100)),
                    pa.int64())
        return pa.table({"rows": pa.array([tb.num_rows], pa.int64()),
                         "cents": pa.array([pc.sum(c).as_py() or 0],
                                           pa.int64())})

    agg = back.map_batches(cents, batch_format="pyarrow") \
        .sum(["rows", "cents"])
    cin = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                  pa.int64())
    return pa.table({
        "files_in": pa.array([37], pa.int64()),
        "rows_in": pa.array([t.num_rows], pa.int64()),
        "rows_out": pa.array([int(agg["sum(rows)"])], pa.int64()),
        "cents_in": pa.array([int(pc.sum(cin).as_py())], pa.int64()),
        "cents_out": pa.array([int(agg["sum(cents)"])], pa.int64()),
        "files_out_bounded": pa.array([int(2 <= n_out <= 12)],
                                      pa.int64())})


def q_metric_lerp_events(sf_dir: str):
    """Linear-interpolation resampling (stages/resample.py
    resample_lerp): per event_type, hourly grid values interpolated on
    the straight line between the surrounding observations — exact at
    hits, null outside the observed span (never extrapolates).  Same
    one-shuffle plan as metric_resample with TWO merge_asofs per
    bucket (backward prev, forward next); per-(key,ts) ties max-reduce
    first.  Oracle = two ASOF joins + the interpolation formula
    (compared at 6dp)."""
    from ..stages.resample import resample_lerp

    ds = _rd(sf_dir, "events", columns=["event_type", "ts", "value"])
    out = _floor_round(resample_lerp(ds, "event_type"), [("value", 1e9)])
    return out.sort(["event_type", "grid_ts"])


def q_value_psi_drift(sf_dir: str):
    """Population-stability-index drift (stages/drift.py psi_drift):
    the event-value cents distribution of the first half of the month
    (epoch day < 19738) vs the rest, over fixed cents bin edges with
    Laplace-smoothed bin probabilities (empty bins well-defined, no
    epsilon fudge).  Bin assignment is one map-side searchsorted;
    only constant-size (window, bin) count partials shuffle.  Oracle
    replays the bin rule + smoothing + contribution formula per bin."""
    from ..stages.drift import psi_drift

    ds = _rd(sf_dir, "events", columns=["ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.round(pc.multiply(t.column("value"), 100)),
                    pa.int64())
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        w = pc.cast(pc.greater_equal(day, pa.scalar(19738, pa.int64())),
                    pa.int64())
        return pa.table({"cents": c, "win": w})

    return _floor_round(
        psi_drift(ds.map_batches(prep, batch_format="pyarrow"),
                  "cents", "win", [1000, 2500, 5000, 10000, 25000]),
        [("contrib", 1e12)])


def q_benford_value_audit(sf_dir: str):
    """Benford first-digit audit (stages/drift.py benford_audit) of
    event cents — fabricated-data / unit-mixup detector: observed
    first-digit counts vs log10(1+1/d) expectations with chi-square
    contributions.  First digit by decimal string slice (exact both
    sides), 9-bucket constant-size partials, nothing else shuffles;
    non-positive values excluded.  Oracle replays digit extraction,
    expectation and chi2 per digit."""
    from ..stages.drift import benford_audit

    ds = _rd(sf_dir, "events", columns=["value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"cents": pc.cast(
            pc.round(pc.multiply(t.column("value"), 100)), pa.int64())})

    return _floor_round(
        benford_audit(ds.map_batches(cents, batch_format="pyarrow"),
                      "cents"),
        [("benford_p", 1e12), ("chi2_contrib", 1e9)])


def q_ab_conversion_ztest(sf_dir: str):
    """A/B experiment readout (stages/drift.py two_proportion_ztest):
    users split by user_id parity, success = the user has at least one
    purchase event; pooled two-proportion z between the arms.  The
    unit collapse is a bucketed per-user max (only (user, flag)
    partials shuffle); the z pass itself is four-int partials with
    zero data shuffle.  Oracle replays the per-user flag and the
    fixed-order float expression."""
    from ..stages.aggregate import grouped_agg
    from ..stages.drift import two_proportion_ztest

    ds = _rd(sf_dir, "events", columns=["user_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        f = pc.cast(pc.equal(t.column("event_type"),
                             pa.scalar("purchase")), pa.int64())
        return pa.table({"user_id": t.column("user_id"), "f": f})

    users = grouped_agg(ds.map_batches(prep, batch_format="pyarrow"),
                        ["user_id"], [("max", "f", "f")],
                        combine="bucket")

    def variant(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"w": pa.array(u % 2, pa.int64()),
                         "f": t.column("f")})

    return two_proportion_ztest(
        users.map_batches(variant, batch_format="pyarrow"), "w", "f")


def q_attribution_linear(sf_dir: str):
    """Linear multi-touch attribution (stages/attribution.py
    attribute_linear): every view/click/signup in the 7-day half-open
    lookback shares a purchase's credit equally (weight 1/k); one row
    per (conversion, touch) pair, unattributed purchases kept once
    with null touch + weight.  Same one-co-partition-by-user shape as
    last/first-touch, pair expansion bounded by the window.  Oracle =
    window-bounded join + 1.0/count() OVER per conversion."""
    from ..stages.attribution import attribute_linear

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "event_type"])
    out = attribute_linear(ds, "purchase", ["view", "click", "signup"],
                           window_us=7 * 86_400_000_000)

    def trim(t: pa.Table) -> pa.Table:
        return t.select(["conv_id", "user_id", "touch_id",
                         "touch_type", "weight"])

    return out.map_batches(trim, batch_format="pyarrow") \
        .sort(["conv_id", "touch_id"])


def q_skyline_parts(sf_dir: str):
    """Pareto skyline (stages/skyline.py skyline): parts not dominated
    on (p_size max, name length max, p_retailprice min) — b dominates a
    iff at-least-as-good everywhere and strictly better once; exact
    duplicates all survive.  Two-phase distributed skyline (ICDE'01
    block-nested-loop, distributed): every block keeps only its local
    frontier (vectorized best-first lexsort + chunked archive sweep),
    then the small candidate union merges in ONE block — dominated rows
    die where they live, nothing corpus-sized moves.  Oracle = the
    NOT EXISTS dominance definition."""
    from ..stages.skyline import skyline

    ds = _rd(sf_dir, "part",
             columns=["p_partkey", "p_name", "p_size", "p_retailprice"])

    def add_len(t: pa.Table) -> pa.Table:
        return t.append_column(
            "p_name_len",
            pc.cast(pc.utf8_length(t.column("p_name")), pa.int64()))

    out = skyline(ds.map_batches(add_len, batch_format="pyarrow"),
                  cols=["p_size", "p_name_len", "p_retailprice"],
                  directions=["max", "max", "min"])
    return out.map_batches(
        lambda t: t.select(["p_partkey", "p_size", "p_name_len",
                            "p_retailprice"]),
        batch_format="pyarrow").sort("p_partkey")


def q_attribution_time_decay(sf_dir: str):
    """Time-decay multi-touch attribution (stages/attribution.py
    attribute_weighted model="time_decay"): raw weight halves every
    1-day bucket of lookback age (2**-(delta_us // day), INTEGER
    exponent so raw weights, per-conversion sums and normalized shares
    are float64-exact and order-independent), shares normalized per
    conversion; unattributed purchases kept with null weight.  One
    co-partition by user.  Oracle replays the identical
    1.0/(1 << (delta//day)) rule + sum() OVER."""
    from ..stages.attribution import attribute_weighted

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "event_type"])
    out = attribute_weighted(ds, "purchase", ["view", "click", "signup"],
                             window_us=7 * 86_400_000_000,
                             model="time_decay",
                             half_life_us=86_400_000_000)

    def trim(t: pa.Table) -> pa.Table:
        return t.select(["conv_id", "user_id", "touch_id",
                         "touch_type", "weight"])

    return out.map_batches(trim, batch_format="pyarrow") \
        .sort(["conv_id", "touch_id"])


def q_attribution_position(sf_dir: str):
    """Position-based (U-shaped) attribution (stages/attribution.py
    attribute_weighted model="position"): touches ordered by
    (touch_ts, touch_id) per conversion; k=1 -> 1.0, k=2 -> 0.5 each,
    k>=3 -> 0.4 first + 0.4 last + 0.2/(k-2) middles; unattributed
    purchases kept with null weight.  Oracle = row_number()/count()
    OVER + the same CASE arithmetic."""
    from ..stages.attribution import attribute_weighted

    ds = _rd(sf_dir, "events",
             columns=["event_id", "user_id", "ts", "event_type"])
    out = attribute_weighted(ds, "purchase", ["view", "click", "signup"],
                             window_us=7 * 86_400_000_000,
                             model="position")

    def trim(t: pa.Table) -> pa.Table:
        return t.select(["conv_id", "user_id", "touch_id",
                         "touch_type", "weight"])

    return out.map_batches(trim, batch_format="pyarrow") \
        .sort(["conv_id", "touch_id"])


def q_doc_sentences(sf_dir: str):
    """Sentence segmentation (stages/textfilters.py split_sentences):
    explode documents into one row per sentence on the deterministic
    RE2 rule [.!?]+ + whitespace-or-end (abbreviation-naive by design
    — the same rule replays in SQL), terminal punctuation dropped,
    whitespace trimmed, fragments under 2 chars removed, positions
    renumbered over kept sentences.  Map-only zero-shuffle flat
    expansion.  Oracle = regexp_split_to_array + unnest +
    generate_subscripts + row_number, row-level."""
    from ..stages.textfilters import split_sentences

    ds = _rd(sf_dir, "documents", columns=["doc_id", "text"])

    # plant sentence boundaries (the corpus text is punctuation-light):
    # same construction on the SQL side
    def plant(t: pa.Table) -> pa.Table:
        txt = pc.binary_join_element_wise(
            pa.array(["Alpha beta!"] * t.num_rows),
            pc.replace_substring(pc.fill_null(
                pc.cast(t.column("text"), pa.string()), ""),
                " the ", ". The "),
            pa.array(["Tail gamma?"] * t.num_rows), pa.scalar(" "))
        return pa.table({"doc_id": t.column("doc_id"), "text": txt})

    return split_sentences(ds.map_batches(plant, batch_format="pyarrow"),
                           min_chars=2).sort(["doc_id", "sent_idx"])


def queries():
    return {
        # --- ROUND-5 DRIVER WINDOW (the driver oracle-checks the
        # FIRST 50 dict entries at sf0.01).  All 50 are queries no
        # driver CORRECTNESS window has ever recorded (99 such
        # existed after r04; these 50 prioritize operator FAMILIES
        # with zero driver history: skyline, multi-touch attribution,
        # drift/audit stats, intervals, robust stats, CDC/SCD2,
        # global sort, CIDR LPM, graph (pagerank/bfs/triangles),
        # inverted index, q-digest/CMS/theta sketches, unigram LM,
        # log templates, compaction, multimodal decode checks.  The
        # families left out (TPC-H, OTLP roundtrips, gopher gate, ...)
        # already have driver-green siblings from r02-r04 windows. ---
        "skyline_parts": q_skyline_parts,
        "attribution_time_decay": q_attribution_time_decay,
        "attribution_position": q_attribution_position,
        "attribution_linear": q_attribution_linear,
        "attribution_last_touch": q_attribution_last_touch,
        "attribution_first_touch": q_attribution_first_touch,
        "metric_lerp_events": q_metric_lerp_events,
        "value_psi_drift": q_value_psi_drift,
        "benford_value_audit": q_benford_value_audit,
        "ab_conversion_ztest": q_ab_conversion_ztest,
        "doc_sentences": q_doc_sentences,
        "merged_user_intervals": q_merged_user_intervals,
        "heartbeat_gaps_events": q_heartbeat_gaps_events,
        "state_change_events": q_state_change_events,
        "global_sort_events": q_global_sort_events,
        "cidr_route_counts": q_cidr_route_counts,
        "scd2_point_in_time": q_scd2_point_in_time,
        "mad_outlier_events": q_mad_outlier_events,
        "event_mode_by_type": q_event_mode_by_type,
        "log_new_templates": q_log_new_templates,
        "user_event_diversity": q_user_event_diversity,
        "doc_collocations": q_doc_collocations,
        "frequent_part_pairs": q_frequent_part_pairs,
        "compact_files_check": q_compact_files_check,
        "bloom_join_revenue": q_bloom_join_revenue,
        "ewma_anomaly_events": q_ewma_anomaly_events,
        "theta_sketch_check": q_theta_sketch_check,
        "log_templates": q_log_templates,
        "alert_hysteresis_events": q_alert_hysteresis_events,
        "cusum_change_events": q_cusum_change_events,
        "table_diff_orders": q_table_diff_orders,
        "scd2_customer_history": q_scd2_customer_history,
        "profile_events": q_profile_events,
        "triangle_parts": q_triangle_parts,
        "pagerank_parts": q_pagerank_parts,
        "bfs_hops_parts": q_bfs_hops_parts,
        "inverted_token_stats": q_inverted_token_stats,
        "phrase_search_counts": q_phrase_search_counts,
        "boolean_search_docs": q_boolean_search_docs,
        "qdigest_bound_check": q_qdigest_bound_check,
        "audio_stft_check": q_audio_stft_check,
        "zorder_layout": q_zorder_layout,
        "cdc_merge_balances": q_cdc_merge_balances,
        "cms_bound_check": q_cms_bound_check,
        "unigram_lm_check": q_unigram_lm_check,
        "entity_clusters": q_entity_clusters,
        "fingerprint_check": q_fingerprint_check,
        "image_decode_check": q_image_decode_check,
        "audio_decode_check": q_audio_decode_check,
        "tcp_replay_counts": q_tcp_replay_counts,
        # --- end of the 50-entry round-5 window; remaining catalog
        # in prior order (driver-green r02-r04 entries + the oracle-
        # checked never-windowed tail the 50 slots could not fit) ---
        "video_decode_check": q_video_decode_check,
        "udp_replay_counts": q_udp_replay_counts,
        "journald_priority_counts": q_journald_priority_counts,
        "wineventlog_severity_counts": q_wineventlog_severity_counts,
        "attr_hash_extract": q_attr_hash_extract,
        "replace_pattern": q_replace_pattern,
        "match_all_route_counts": q_match_all_route_counts,
        "embedding_dim_sums": q_embedding_dim_sums,
        "top3_events_per_type": q_top3_events_per_type,
        "stratified_event_sample": q_stratified_event_sample,
        "latency_quantiles_by_tool": q_latency_quantiles_by_tool,
        "approx_latency_quantiles": q_approx_latency_quantiles,
        "doc_shuffle": q_doc_shuffle,
        "doc_normalize": q_doc_normalize,
        "doc_html_extract": q_doc_html_extract,
        "doc_chunks": q_doc_chunks,
        "doc_ccnet_buckets": q_doc_ccnet_buckets,
        "doc_keywords": q_doc_keywords,
        "doc_curriculum": q_doc_curriculum,
        "doc_url_normalize": q_doc_url_normalize,
        "doc_length_filter": q_doc_length_filter,
        "doc_zscore": q_doc_zscore,
        "rollup_event_counts": q_rollup_event_counts,
        "pivot_event_counts": q_pivot_event_counts,
        "role_pmi": q_role_pmi,
        "distinct_users_by_type": q_distinct_users_by_type,
        "conversion_latency": q_conversion_latency,
        "doc_validate": q_doc_validate,
        "conversation_features": q_conversation_features,
        "metric_context_pipeline": q_metric_context_pipeline,
        "uri_parse": q_uri_parse,
        "kv_parse": q_kv_parse,
        "csv_parse": q_csv_parse,
        "jsonarray_parse": q_jsonarray_parse,
        "grok_parse": q_grok_parse,
        "trace_scope_parse": q_trace_scope_parse,
        "roundrobin_counts": q_roundrobin_counts,
        "failover_counts": q_failover_counts,
        "schema_rename_counts": q_schema_rename_counts,
        "xml_extract": q_xml_extract,
        "recombine_multiline": q_recombine_multiline,
        "recombine_capped": q_recombine_capped,
        "otlp_proto_roundtrip": q_otlp_proto_roundtrip,
        "exp_to_explicit_hist": q_exp_to_explicit_hist,
        "minhash_neardup": q_minhash_neardup,
        "simhash_neardup": q_simhash_neardup,
        "embedding_neardup": q_embedding_neardup,
        "doc_fingerprint": q_doc_fingerprint,
        "ann_consistency_check": q_ann_consistency_check,
        "bpe_roundtrip_check": q_bpe_roundtrip_check,
        "decontam_bloom_check": q_decontam_bloom_check,
        "hll_bound_check": q_hll_bound_check,
        "image_dedup": q_image_dedup,
        "audio_pipeline": q_audio_pipeline,
        "multimodal_pipeline": q_multimodal_pipeline,
        "filelog_multiline_counts": q_filelog_multiline_counts,
        "semdedup": q_semdedup,
        "otlp_metrics_proto_roundtrip": q_otlp_metrics_proto_roundtrip,
        "otlp_hist_proto_roundtrip": q_otlp_hist_proto_roundtrip,
        "syslog5424_parse": q_syslog5424_parse,
        "gotime_parse": q_gotime_parse,
        "otlp_traces_proto_roundtrip": q_otlp_traces_proto_roundtrip,
        "otlp_traces_json_roundtrip": q_otlp_traces_json_roundtrip,
        "otlp_metrics_json_roundtrip": q_otlp_metrics_json_roundtrip,
        "otlp_hist_json_roundtrip": q_otlp_hist_json_roundtrip,
        "event_value_quantiles_cont": q_event_value_quantiles_cont,
        "cube_event_counts": q_cube_event_counts,
        "doc_temperature_mix": q_doc_temperature_mix,
        "tpch_q6": q_tpch_q6,
        "tpch_q7": q_tpch_q7,
        "tpch_q8": q_tpch_q8,
        "tpch_q13": q_tpch_q13,
        "tpch_q15": q_tpch_q15,
        "tpch_q17": q_tpch_q17,
        "tpch_q19": q_tpch_q19,
        "tpch_q22": q_tpch_q22,
        "tpch_q2": q_tpch_q2,
        "tpch_q4": q_tpch_q4,
        "tpch_q9": q_tpch_q9,
        "tpch_q11": q_tpch_q11,
        "tpch_q12": q_tpch_q12,
        "tpch_q16": q_tpch_q16,
        "tpch_q20": q_tpch_q20,
        "tpch_q21": q_tpch_q21,
        "kmeans_opt_check": q_kmeans_opt_check,
        "doc_gopher_gate": q_doc_gopher_gate,
        "doc_top_ngrams": q_doc_top_ngrams,
        "doc_fuzzy_new_vs_ref": q_doc_fuzzy_new_vs_ref,
        "knn_ivf": q_knn_ivf,
        "knn_pq": q_knn_pq,
        "opq_check": q_opq_check,
        "doc_bpe_tokens": q_doc_bpe_tokens,
        "doc_decontaminate_bloom": q_doc_decontaminate_bloom,
        "neardup_clusters": q_neardup_clusters,
        "neardup_dedup_docs": q_neardup_dedup_docs,
        "knn_lsh": q_knn_lsh,
        "video_pipeline": q_video_pipeline,
        "doc_substring_cut": q_doc_substring_cut,
        "approx_distinct_users": q_approx_distinct_users,
        "hard_negatives": q_hard_negatives,
        "kmeans_clusters": q_kmeans_clusters,
        "tpch_q1": q_tpch_q1,
        "tpch_q3": q_tpch_q3,
        "tpch_q5": q_tpch_q5,
        "tpch_q10": q_tpch_q10,
        "tpch_q14": q_tpch_q14,
        "tpch_q18": q_tpch_q18,
        "event_windows": q_event_windows,
        "event_rank_windows": q_event_rank_windows,
        "event_trailing": q_event_trailing,
        "event_value_quartiles": q_event_value_quartiles,
        "sliding_window_counts": q_sliding_window_counts,
        "skewed_type_join": q_skewed_type_join,
        "purchase_before_click": q_purchase_before_click,
        "clicks_in_signup_window": q_clicks_in_signup_window,
        "orders_with_lineitems": q_orders_with_lineitems,
        "orders_without_lineitems": q_orders_without_lineitems,
        "customer_nations": q_customer_nations,
        "users_view_not_purchase": q_users_view_not_purchase,
        "users_signup_and_purchase": q_users_signup_and_purchase,
        "tail_sampling_policies": q_tail_sampling_policies,
        "tail_sampling_and": q_tail_sampling_and,
        "tail_sampling_rate_limit": q_tail_sampling_rate_limit,
        "tail_sampling_composite": q_tail_sampling_composite,
        "sample_otep235": q_sample_otep235,
        "severity_range_counts": q_severity_range_counts,
        "doc_bm25": q_doc_bm25,
        "doc_token_df": q_doc_token_df,
        "doc_pack_sequences": q_doc_pack_sequences,
        "doc_block_ids": q_doc_block_ids,
        "doc_line_dedup": q_doc_line_dedup,
        "doc_c4_line_filter": q_doc_c4_line_filter,
        "doc_c4_gate": q_doc_c4_gate,
        "doc_pii_scrub": q_doc_pii_scrub,
        "doc_substring_dups": q_doc_substring_dups,
        "doc_decontaminate": q_doc_decontaminate,
        "doc_repetition": q_doc_repetition,
        "doc_lm_score": q_doc_lm_score,
        "doc_dsir": q_doc_dsir,
        "doc_budget_sample": q_doc_budget_sample,
        "doc_classifier": q_doc_classifier,
        "doc_new_vs_ref": q_doc_new_vs_ref,
        "doc_mix_sources": q_doc_mix_sources,
        "doc_language_id": q_doc_language_id,
        "doc_quality": q_doc_quality,
        "doc_weighted_sample": q_doc_weighted_sample,
        "doc_split": q_doc_split,
        "doc_training_pipeline": q_doc_training_pipeline,
        "kmeans_assign": q_kmeans_assign,
        "funnel_stages": q_funnel_stages,
        "retention_weekly": q_retention_weekly,
        "parse_tool_logs": q_parse_tool_logs,
        "parse_failures": q_parse_failures,
        "route_counts": q_route_counts,
        "routed_rows_errors": q_routed_rows_errors,
        "routed_rows_timeouts": q_routed_rows_timeouts,
        "count_by_role": q_count_by_role,
        "sum_latency_by_tool": q_sum_latency_by_tool,
        "dedup_turns": q_dedup_turns,
        "dedup_turns_sorted": q_dedup_turns_sorted,
        "dedup_turns_windowed": q_dedup_turns_windowed,
        "recombine_conversations": q_recombine_conversations,
        "sample_10pct": q_sample_10pct,
        "severity_counts": q_severity_counts,
        "text_len_by_role": q_text_len_by_role,
        "tool_category_counts": q_tool_category_counts,
        "latency_histogram": q_latency_histogram,
        "exp_histogram": q_exp_histogram,
        "exp_histogram_scale2": q_exp_histogram_scale2,
        "latency_histogram_quantile": q_latency_histogram_quantile,
        "counter_rate_by_user": q_counter_rate_by_user,
        "otlpjson_connector_split": q_otlpjson_connector_split,
        "incremental_dedup_events": q_incremental_dedup_events,
        "schema_evolved_union": q_schema_evolved_union,
        "late_event_depth": q_late_event_depth,
        "ohlc_event_bars": q_ohlc_event_bars,
        "slo_burn_alerts": q_slo_burn_alerts,
        "seasonal_residual_events": q_seasonal_residual_events,
        "twa_event_value": q_twa_event_value,
        "rolling_weekly_actives": q_rolling_weekly_actives,
        "fs_customer_links": q_fs_customer_links,
        "value_hour_correlation": q_value_hour_correlation,
        "user_spend_gini": q_user_spend_gini,
        "route_prefix_rollup": q_route_prefix_rollup,
        "trending_event_types": q_trending_event_types,
        "view_purchase_overlaps": q_view_purchase_overlaps,
        "value_ks_drift": q_value_ks_drift,
        "value_auc_shift": q_value_auc_shift,
        "value_acf_hourly": q_value_acf_hourly,
        "weighted_latency_quantiles": q_weighted_latency_quantiles,
        "value_qq_shift": q_value_qq_shift,
        "top_session_paths": q_top_session_paths,
        "value_welch_ttest": q_value_welch_ttest,
        "user_credit_balance": q_user_credit_balance,
        "user_burstiness": q_user_burstiness,
        "type_hour_independence": q_type_hour_independence,
        "cumulative_value_by_user": q_cumulative_value_by_user,
        "json_props_sum": q_json_props_sum,
        "filter_events": q_filter_events,
        "resource_stamp_counts": q_resource_stamp_counts,
        "syslog_parse": q_syslog_parse,
        "doc_token_counts": q_doc_token_counts,
        "doc_exact_dups": q_doc_exact_dups,
        "embedding_knn": q_embedding_knn,
        "reassemble_partials": q_reassemble_partials,
        "otlp_roundtrip_counts": q_otlp_roundtrip_counts,
        "approx_top_tools": q_approx_top_tools,
        "approx_distinct_convs": q_approx_distinct_convs,
        "error_fingerprints": q_error_fingerprints,
        "container_log_parse": q_container_log_parse,
        "filelog_severity_counts": q_filelog_severity_counts,
        "orders_per_nation": q_orders_per_nation,
        "orders_per_nation_native": q_orders_per_nation_native,
        "sessionize_events": q_sessionize_events,
        "turn_transitions": q_turn_transitions,
        "top_users_by_value": q_top_users_by_value,
        "redact_latency": q_redact_latency,
        "time_parse": q_time_parse,
        "recombine_salted": q_recombine_salted,
        "interval_counts": q_interval_counts,
        "relabel_aggregate": q_relabel_aggregate,
        "red_metrics": q_red_metrics,
        "hash_bucket_counts": q_hash_bucket_counts,
        "ring_route_counts": q_ring_route_counts,
        "groupbyattrs_promote": q_groupbyattrs_promote,
        "tokens_est": q_tokens_est,
        "cumulative_to_delta": q_cumulative_to_delta,
        "delta_to_rate": q_delta_to_rate,
        "tail_sampling_errors": q_tail_sampling_errors,
        "doc_decontaminate_frac": q_doc_decontaminate_frac,
        "event_value_trend": q_event_value_trend,
        "doc_fuzzy_match_blocked": q_doc_fuzzy_match_blocked,
        "metric_resample": q_metric_resample,
    }


def _doc_split_sql() -> str:
    from ..stages.sample import DatasetSplitter

    case = DatasetSplitter(_SPLITS, key="doc_id").sql_case("doc_id")
    return f"""
        SELECT doc_id, {case} AS split FROM documents ORDER BY doc_id"""


def _otep235_sql() -> str:
    from ..stages.sample import encode_th, threshold_from_probability

    t = threshold_from_probability(0.25)
    return f"""
        SELECT conv_id, turn_idx, '{encode_th(t)}' AS sampling_th
        FROM {_T}
        WHERE md5_number_lower(conv_id) // 256 >= {t}
        ORDER BY conv_id, turn_idx"""


def oracle_sql():
    # PII scrub oracle: identical planted strings + the SAME RE2 chain
    # (patterns imported from the stage — single source of truth).  Built
    # by concatenation: the patterns contain {}/% so f-strings don't apply.
    from ..stages.pii import PII_PATTERNS

    pii_sql = (
        "WITH s0 AS (SELECT doc_id, coalesce(text, '')"
        " || ' contact user' || CAST(doc_id AS VARCHAR)"
        " || '@example.com call 555-010-'"
        " || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')"
        " || CASE WHEN doc_id % 3 = 0 THEN ' ssn 123-45-6789' ELSE '' END"
        " || ' ip 10.' || CAST(doc_id % 256 AS VARCHAR) || '.0.1' AS t0"
        " FROM documents)")
    carry = []
    for i, (name, pat, rep) in enumerate(PII_PATTERNS):
        prev = ", ".join(carry)
        pii_sql += (
            f", s{i + 1} AS (SELECT doc_id" + (", " + prev if prev else "") +
            ", CAST(len(regexp_extract_all(t" + str(i) + ", '" + pat +
            "')) AS BIGINT) AS n_" + name +
            ", regexp_replace(t" + str(i) + ", '" + pat + "', '" + rep +
            "', 'g') AS t" + str(i + 1) + f" FROM s{i})")
        carry.append(f"n_{name}")
    n = len(PII_PATTERNS)
    pii_sql += (f" SELECT doc_id, t{n} AS text, " + ", ".join(carry) +
                f" FROM s{n} ORDER BY doc_id")
    cat_vals = ", ".join(
        f"('{k}', '{v['tool_category']}')" for k, v in sorted(TOOL_CATALOG.items()))
    sev_case = ("CASE lower(regexp_extract(text, '" + TOOL_LINE_SQL_PAT + "', 2)) "
                "WHEN 'trace' THEN 1 WHEN 'debug' THEN 5 WHEN 'info' THEN 9 "
                "WHEN 'warn' THEN 13 WHEN 'error' THEN 17 WHEN 'fatal' THEN 21 END")
    return {
        "parse_tool_logs": f"""
            SELECT conv_id, turn_idx,
                   regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 2) AS level,
                   regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 4) AS status,
                   CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS latency_ms,
                   regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 6) AS msg
            FROM {_T}
            WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')""",
        "parse_failures": f"""
            SELECT role, count(*) AS n_failures FROM {_T}
            WHERE role = 'tool' AND NOT regexp_matches(text, '{TOOL_LINE_SQL_PAT}')
            GROUP BY role""",
        "route_counts": f"""
            SELECT {ROUTE_SQL_CASE} AS route_id, count(*) AS n
            FROM {_T} GROUP BY 1""",
        "routed_rows_errors": f"""
            SELECT conv_id, turn_idx, text FROM {_T} WHERE {_ERR_SQL}""",
        "routed_rows_timeouts": f"""
            SELECT conv_id, turn_idx, text FROM {_T}
            WHERE {_TIMEOUT_SQL} AND NOT {_ERR_SQL} AND NOT coalesce({_SLOW_SQL}, false)""",
        "count_by_role": f"SELECT role, count(*) AS n FROM {_T} GROUP BY role",
        "resource_stamp_counts": f"""
            SELECT 'prod' AS res_env, 'eu' AS res_region, role,
                   count(*) AS n
            FROM {_T} GROUP BY role""",
        "syslog_parse": r"""
            WITH lines AS (
              SELECT concat('<', CAST(event_id % 192 AS VARCHAR),
                            '>Feb  5 12:34:56 host-',
                            CAST(user_id AS VARCHAR), ' app[7]: ',
                            coalesce(event_type, '')) AS line
              FROM events
            ), pri AS (
              SELECT CAST(regexp_extract(line,
                  '^<(\d+)>(\w{3} [ \d]\d \d{2}:\d{2}:\d{2}) (\S+)', 1)
                  AS BIGINT) AS p
              FROM lines)
            SELECT p // 8 AS facility, p % 8 AS severity,
                   count(*) AS n
            FROM pri GROUP BY 1, 2
            ORDER BY facility, severity""",
        "otlp_traces_proto_roundtrip": """
            SELECT CASE WHEN event_id % 2 = 0 THEN 'prod' ELSE 'stage' END
                       AS env,
                   CAST(1 + event_id % 5 AS BIGINT) AS kind,
                   CAST(CASE WHEN event_id % 11 = 0 THEN 2 ELSE 1 END
                        AS BIGINT) AS status_code,
                   count(*) AS n,
                   CAST(sum((event_id % 5000) * 10) AS BIGINT)
                       AS total_dur_us
            FROM events GROUP BY 1, 2, 3
            ORDER BY env, kind, status_code""",
        "gotime_parse": """
            WITH c AS (
              SELECT ((event_id % 5) - 2) * 30 AS offset_min,
                     epoch_us(make_timestamp(
                         2019, CAST(1 + event_id % 12 AS BIGINT),
                         CAST(1 + event_id % 28 AS BIGINT),
                         CAST(event_id % 24 AS BIGINT),
                         CAST(event_id % 60 AS BIGINT),
                         CAST((event_id * 7) % 60 AS DOUBLE)))
                       + (event_id % 1000) * 1000
                       - ((event_id % 5) - 2) * 30 * 60000000 AS us
              FROM events)
            SELECT offset_min, count(*) AS n,
                   min(us) AS min_us, max(us) AS max_us,
                   CAST(sum((us - 1546300800000000) // 1000) AS BIGINT)
                       AS sum_delta_ms
            FROM c GROUP BY offset_min ORDER BY offset_min""",
        "syslog5424_parse": """
            SELECT CAST((event_id % 192) // 8 AS BIGINT) AS facility,
                   (['emerg','alert','crit','err','warning','notice',
                     'info','debug'])[(event_id % 192) % 8 + 1]
                       AS severity_text,
                   count(*) AS n,
                   CAST(count(*) FILTER (event_id % 7 = 0) AS BIGINT)
                       AS proc_null,
                   CAST(sum(event_id % 13) AS BIGINT) AS sd_n_sum
            FROM events GROUP BY 1, 2
            ORDER BY facility, severity_text""",
        "sum_latency_by_tool": f"""
            SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                   CAST(sum(CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT)) AS BIGINT) AS total_latency_ms
            FROM {_T}
            WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')
            GROUP BY 1""",
        "dedup_turns": f"""
            SELECT conv_id, role, text, count(*) AS log_count,
                   min(ts) AS first_observed, max(ts) AS last_observed,
                   min(turn_idx) AS representative_turn_idx
            FROM {_T} GROUP BY conv_id, role, text""",
        "dedup_turns_sorted": f"""
            SELECT conv_id, role, text, count(*) AS log_count,
                   min(ts) AS first_observed, max(ts) AS last_observed,
                   min(turn_idx) AS representative_turn_idx
            FROM {_T} GROUP BY conv_id, role, text""",
        "dedup_turns_windowed": f"""
            SELECT date_trunc('hour', ts) AS window_ts, conv_id, role, text,
                   count(*) AS log_count,
                   min(ts) AS first_observed, max(ts) AS last_observed,
                   min(turn_idx) AS representative_turn_idx
            FROM {_T} GROUP BY 1, conv_id, role, text""",
        "recombine_conversations": f"""
            SELECT conv_id,
                   string_agg(coalesce(text, ''), chr(10) ORDER BY turn_idx) AS combined,
                   count(*) AS n_turns, min(ts) AS first_ts, max(ts) AS last_ts
            FROM {_T} GROUP BY conv_id""",
        "sample_10pct": f"""
            SELECT conv_id, turn_idx FROM {_T}
            WHERE md5_number_lower(conv_id) % 10000 < 1000""",
        "severity_counts": f"""
            SELECT {sev_case} AS severity_number, count(*) AS n
            FROM {_T}
            WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')
            GROUP BY 1""",
        "severity_range_counts": """
            WITH st AS (
              SELECT CASE event_id % 7
                     WHEN 0 THEN 200 WHEN 1 THEN 201 WHEN 2 THEN 204
                     WHEN 3 THEN 301 WHEN 4 THEN 404 WHEN 5 THEN 500
                     ELSE 503 END AS status
              FROM events)
            SELECT CASE WHEN status BETWEEN 200 AND 299 THEN 9
                        WHEN status BETWEEN 300 AND 399 THEN 13
                        WHEN status BETWEEN 400 AND 499 THEN 17
                        ELSE 21 END AS severity_number,
                   CASE WHEN status BETWEEN 200 AND 299 THEN 'INFO'
                        WHEN status BETWEEN 300 AND 399 THEN 'WARN'
                        WHEN status BETWEEN 400 AND 499 THEN 'ERROR'
                        ELSE 'FATAL' END AS severity_text,
                   count(*) AS n
            FROM st GROUP BY 1, 2 ORDER BY severity_number""",
        "metric_context_pipeline": """
            WITH m AS (
              SELECT event_type AS metric_name,
                     event_id % 3 AS m3,
                     CAST(event_id % 1000 AS DOUBLE) AS value_double,
                     CASE WHEN event_id % 3 = 2 THEN event_id % 100 END AS cnt
              FROM events),
            s1 AS (  -- band stamped pre-scale; gauge->sum; scale 0.5
              SELECT metric_name,
                     CASE WHEN value_double >= 500.0 THEN 'hi' ELSE 'lo' END
                       AS attr_band,
                     CASE WHEN m3 = 2 THEN 'Histogram' ELSE 'Sum' END
                       AS metric_type,
                     value_double * 0.5 AS value_double,
                     cnt
              FROM m),
            ext AS (
              SELECT metric_name, attr_band, metric_type, value_double FROM s1
              UNION ALL
              SELECT metric_name || '_count', attr_band, 'Sum',
                     CAST(cnt AS DOUBLE)
              FROM s1 WHERE metric_type = 'Histogram' AND cnt IS NOT NULL)
            SELECT metric_name, metric_type, attr_band,
                   count(*) AS n, sum(value_double) AS total
            FROM ext GROUP BY 1, 2, 3 ORDER BY 1, 2, 3""",
        "uri_parse": """
            SELECT 'https' AS attr_scheme,
                   'api' || CAST(event_id % 5 AS VARCHAR) || '.example.com'
                     AS attr_host,
                   CAST(8080 + event_id % 3 AS BIGINT) AS attr_port,
                   '/v' || CAST(event_id % 2 AS VARCHAR) || '/items' AS attr_path,
                   count(*) AS n
            FROM events GROUP BY 1, 2, 3, 4 ORDER BY attr_host, attr_port, attr_path""",
        "kv_parse": """
            SELECT CASE event_id % 4 WHEN 0 THEN 'debug' WHEN 1 THEN 'info'
                        WHEN 2 THEN 'warn' ELSE 'error' END AS attr_level,
                   count(*) AS n,
                   CAST(sum(100 + event_id % 400) AS BIGINT) AS code_sum
            FROM events GROUP BY 1 ORDER BY attr_level""",
        "csv_parse": """
            SELECT 'p' || CAST(event_id % 20 AS VARCHAR) AS attr_part,
                   CAST(sum(event_id % 9) AS BIGINT) AS qty_sum,
                   sum((event_id % 500) / 2.0) AS price_sum
            FROM events GROUP BY 1 ORDER BY attr_part""",
        "jsonarray_parse": """
            SELECT event_type AS attr_etype,
                   (event_id % 2 = 0) AS attr_flag,
                   count(*) AS rows,
                   CAST(sum(event_id % 13) AS BIGINT) AS n_sum
            FROM events GROUP BY 1, 2 ORDER BY attr_etype, attr_flag""",
        "grok_parse": """
            SELECT CASE event_id % 3 WHEN 0 THEN 'GET' WHEN 1 THEN 'POST'
                        ELSE 'PUT' END AS attr_method,
                   count(*) AS n,
                   CAST(sum(event_id % 2048) AS BIGINT) AS bytes_sum
            FROM events GROUP BY 1 ORDER BY attr_method""",
        "trace_scope_parse": """
            SELECT event_type AS scope_name,
                   (event_id % 10 = 0) AS parse_failure,
                   count(*) AS n,
                   min(CASE WHEN event_id % 10 = 0 THEN NULL
                            ELSE md5(CAST(event_id AS VARCHAR)) END) AS min_trace,
                   min(substr(md5(CAST(event_id AS VARCHAR)), 1, 16)) AS min_span
            FROM events GROUP BY 1, 2 ORDER BY scope_name, parse_failure""",
        "roundrobin_counts": """
            SELECT CAST(event_id % 5 AS BIGINT) AS rr_sink,
                   count(*) AS n,
                   CAST(sum(event_id) AS BIGINT) AS id_sum
            FROM events GROUP BY 1 ORDER BY rr_sink""",
        "failover_counts": """
            SELECT event_type, count(*) AS n
            FROM events GROUP BY 1 ORDER BY event_type""",
        "schema_rename_counts": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT))
                     AS BIGINT) AS key_total
            FROM events GROUP BY 1 ORDER BY event_type""",
        "xml_extract": """
            SELECT '<qty>' || CAST(event_id % 7 AS VARCHAR) || '</qty>'
                     AS attr_qty_xml,
                   count(*) AS n
            FROM events GROUP BY 1 ORDER BY attr_qty_xml""",
        "recombine_multiline": """
            WITH lines AS (
              SELECT 's' || CAST(user_id % 20 AS VARCHAR) AS src,
                     event_id,
                     CASE WHEN event_id % 4 = 0 THEN 'BEGIN|' ELSE 'c|' END
                       || event_type AS text
              FROM events),
            e AS (
              SELECT src, event_id, text,
                     SUM(CASE WHEN text LIKE 'BEGIN%' THEN 1 ELSE 0 END)
                       OVER (PARTITION BY src ORDER BY event_id
                             ROWS UNBOUNDED PRECEDING) AS entry_idx
              FROM lines)
            SELECT src, CAST(entry_idx AS BIGINT) AS entry_idx,
                   string_agg(text, ' | ' ORDER BY event_id) AS combined,
                   count(*) AS n_lines
            FROM e GROUP BY 1, 2 ORDER BY src, entry_idx""",
        "recombine_capped": f"""
            WITH r AS (
              SELECT conv_id, turn_idx, coalesce(text, '') AS text,
                     CAST((row_number() OVER (PARTITION BY conv_id
                                              ORDER BY turn_idx) - 1) // 8
                       AS BIGINT) AS part
              FROM {_T})
            SELECT conv_id, part,
                   string_agg(text, chr(10) ORDER BY turn_idx) AS combined,
                   count(*) AS n_turns
            FROM r GROUP BY 1, 2 ORDER BY conv_id, part""",
        "text_len_by_role": f"""
            SELECT role, CAST(sum(length(text)) AS BIGINT) AS total_chars FROM {_T} GROUP BY role""",
        "tool_category_counts": f"""
            SELECT coalesce(m.cat, 'other') AS tool_category, count(*) AS n
            FROM {_T} t LEFT JOIN (VALUES {cat_vals}) AS m(tool, cat)
              ON t.tool = m.tool
            GROUP BY 1""",
        "latency_histogram": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT tool_name,
                   CASE WHEN lat <= 100 THEN '100' WHEN lat <= 500 THEN '500'
                        WHEN lat <= 1000 THEN '1000' WHEN lat <= 5000 THEN '5000'
                        ELSE 'inf' END AS le,
                   count(*) AS n
            FROM parsed GROUP BY 1, 2""",
        "latency_histogram_quantile": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')),
            hist AS (
              SELECT tool_name,
                     CASE WHEN lat <= 100 THEN 100.0 WHEN lat <= 500 THEN 500.0
                          WHEN lat <= 1000 THEN 1000.0 WHEN lat <= 5000 THEN 5000.0
                          ELSE CAST('inf' AS DOUBLE) END AS ub,
                     count(*) AS n
              FROM parsed GROUP BY 1, 2),
            dense AS (
              SELECT k.tool_name, e.ub, coalesce(h.n, 0) AS n
              FROM (SELECT DISTINCT tool_name FROM hist) k
              CROSS JOIN (VALUES (100.0), (500.0), (1000.0), (5000.0),
                                 (CAST('inf' AS DOUBLE))) e(ub)
              LEFT JOIN hist h ON h.tool_name = k.tool_name AND h.ub = e.ub),
            c AS (
              SELECT tool_name, ub, n,
                     sum(n) OVER w_cum AS cum,
                     coalesce(sum(n) OVER w_prev, 0) AS cum_prev,
                     coalesce(lag(ub) OVER w_ord, 0.0) AS strt,
                     row_number() OVER w_ord AS rn,
                     sum(n) OVER (PARTITION BY tool_name) AS total,
                     max(CASE WHEN isfinite(ub) THEN ub END)
                         OVER (PARTITION BY tool_name) AS hi_fin
              FROM dense
              WINDOW w_ord AS (PARTITION BY tool_name ORDER BY ub),
                     w_cum AS (PARTITION BY tool_name ORDER BY ub
                               ROWS UNBOUNDED PRECEDING),
                     w_prev AS (PARTITION BY tool_name ORDER BY ub
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING))
            SELECT tool_name, qq.q AS q,
                   floor(CASE WHEN NOT isfinite(ub) THEN hi_fin
                              ELSE strt + (ub - strt)
                                   * ((qq.q * total - cum_prev) / n)
                         END * 1000000000.0 + 0.5) / 1000000000.0
                     AS value
            FROM c JOIN (SELECT unnest([0.5, 0.9, 0.99]) AS q) qq
              ON c.cum >= qq.q * c.total
                 AND (c.cum_prev < qq.q * c.total OR c.rn = 1)
                 AND c.n > 0
            ORDER BY tool_name, q""",
        "counter_rate_by_user": """
            WITH e AS (
              SELECT user_id, ts, event_id,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events),
            c AS (
              SELECT user_id, epoch_us(ts) AS ts_us, event_id,
                     sum(cents) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING)
                       % 1000000 AS counter
              FROM e),
            w AS (
              SELECT user_id,
                     (ts_us // 86400000000) * 86400000000 AS window_start,
                     ts_us, counter,
                     lag(counter) OVER (
                       PARTITION BY user_id, ts_us // 86400000000
                       ORDER BY ts_us, event_id) AS prev
              FROM c),
            a AS (
              SELECT user_id, window_start,
                     count(*) AS n_points,
                     CAST(sum(CASE WHEN prev IS NULL THEN 0
                                   WHEN counter >= prev THEN counter - prev
                                   ELSE counter END) AS BIGINT) AS increase,
                     CAST(max(ts_us) - min(ts_us) AS BIGINT) AS span_us
              FROM w GROUP BY 1, 2)
            SELECT user_id, window_start, n_points, increase, span_us,
                   CASE WHEN span_us > 0
                        THEN CAST(increase AS DOUBLE) * 1000000.0
                             / CAST(span_us AS DOUBLE) END AS rate
            FROM a ORDER BY user_id, window_start""",
        "otlpjson_connector_split": """
            SELECT CASE event_id % 4 WHEN 0 THEN 'logs'
                        WHEN 1 THEN 'metrics' WHEN 2 THEN 'traces'
                        ELSE 'invalid' END AS signal,
                   count(*) AS n,
                   CAST(sum(CASE WHEN event_id % 4 = 3 THEN 0
                                 ELSE event_id END) AS BIGINT) AS sum_id
            FROM events GROUP BY 1""",
        "incremental_dedup_events": """
            SELECT o.event_id, o.user_id, o.event_type
            FROM events o
            WHERE o.event_id % 2 = 1
              AND NOT EXISTS (
                SELECT 1 FROM events e
                WHERE e.event_id % 2 = 0
                  AND e.user_id = o.user_id
                  AND e.event_type = o.event_type)
            ORDER BY o.event_id""",
        "schema_evolved_union": """
            SELECT CAST(eid AS BIGINT) AS event_id,
                   uid AS user_id, etype AS event_type,
                   CAST(NULL AS BIGINT) AS cents
            FROM read_parquet('/tmp/graft_evolve/sf0.01/v1.parquet')
            UNION ALL
            SELECT event_id, user_id, event_type, cents
            FROM read_parquet('/tmp/graft_evolve/sf0.01/v2.parquet')
            ORDER BY event_id""",
        "late_event_depth": """
            WITH w AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts,
                     max(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING) AS prev_max
              FROM events)
            SELECT user_id, event_id, ts,
                   CAST(greatest(coalesce(prev_max - ts, 0), 0) AS BIGINT)
                     AS depth_us,
                   greatest(coalesce(prev_max - ts, 0), 0) > 0 AS late
            FROM w ORDER BY user_id, event_id""",
        "ohlc_event_bars": """
            WITH d AS (
              SELECT event_type, event_id, epoch_us(ts) AS ts,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     (epoch_us(ts) // 86400000000) * 86400000000
                       AS window_start
              FROM events),
            w AS (
              SELECT event_type, window_start, cents,
                     first_value(cents) OVER (
                       PARTITION BY event_type, window_start
                       ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND UNBOUNDED FOLLOWING) AS open,
                     last_value(cents) OVER (
                       PARTITION BY event_type, window_start
                       ORDER BY ts, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND UNBOUNDED FOLLOWING) AS close
              FROM d)
            SELECT event_type, window_start,
                   CAST(any_value(open) AS BIGINT) AS open,
                   CAST(max(cents) AS BIGINT) AS high,
                   CAST(min(cents) AS BIGINT) AS low,
                   CAST(any_value(close) AS BIGINT) AS close,
                   count(*) AS n
            FROM w GROUP BY 1, 2 ORDER BY 1, 2""",
        "slo_burn_alerts": """
            WITH d AS (
              SELECT user_id % 4 AS svc,
                     epoch_us(ts) // 60000000 AS bucket,
                     CAST(event_type = 'error' AS BIGINT) AS bad
              FROM events),
            agg AS (
              SELECT svc, bucket, count(*) AS n,
                     CAST(sum(bad) AS BIGINT) AS bad
              FROM d GROUP BY 1, 2),
            w AS (
              SELECT svc, bucket,
                     CAST(sum(n) OVER ws AS BIGINT) AS n_short,
                     CAST(sum(bad) OVER ws AS BIGINT) AS bad_short,
                     CAST(sum(n) OVER wl AS BIGINT) AS n_long,
                     CAST(sum(bad) OVER wl AS BIGINT) AS bad_long
              FROM agg
              WINDOW ws AS (PARTITION BY svc ORDER BY bucket
                            RANGE BETWEEN 59 PRECEDING AND CURRENT ROW),
                     wl AS (PARTITION BY svc ORDER BY bucket
                            RANGE BETWEEN 359 PRECEDING AND CURRENT ROW))
            SELECT svc, bucket, n_short, bad_short, n_long, bad_long,
                   (CAST(bad_short AS DOUBLE) / CAST(n_short AS DOUBLE))
                     / (CAST(1.0 AS DOUBLE) - CAST(0.9 AS DOUBLE)) AS burn_short,
                   (CAST(bad_long AS DOUBLE) / CAST(n_long AS DOUBLE))
                     / (CAST(1.0 AS DOUBLE) - CAST(0.9 AS DOUBLE)) AS burn_long,
                   ((CAST(bad_short AS DOUBLE) / CAST(n_short AS DOUBLE))
                     / (CAST(1.0 AS DOUBLE) - CAST(0.9 AS DOUBLE))) > 2.0
                   AND ((CAST(bad_long AS DOUBLE) / CAST(n_long AS DOUBLE))
                     / (CAST(1.0 AS DOUBLE) - CAST(0.9 AS DOUBLE))) > 2.0
                     AS alert
            FROM w ORDER BY svc, bucket""",
        "seasonal_residual_events": """
            WITH agg AS (
              SELECT event_type,
                     epoch_us(ts) // 3600000000 AS bucket,
                     CAST(sum(CAST(round(value * 100) AS BIGINT))
                          AS BIGINT) AS total
              FROM events GROUP BY 1, 2)
            SELECT a.event_type, a.bucket, a.total,
                   b.total AS baseline,
                   a.total - b.total AS residual
            FROM agg a LEFT JOIN agg b
              ON b.event_type = a.event_type
             AND b.bucket = a.bucket - 24
            ORDER BY a.event_type, a.bucket""",
        "twa_event_value": """
            WITH d AS (
              SELECT event_type, event_id, epoch_us(ts) AS ts,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     (epoch_us(ts) // 86400000000) * 86400000000
                       AS window_start
              FROM events),
            s AS (
              SELECT event_type, window_start, ts, cents,
                     lead(ts) OVER (PARTITION BY event_type, window_start
                                    ORDER BY ts, event_id) AS nxt
              FROM d)
            SELECT event_type, window_start,
                   count(*) AS n,
                   CAST(max(ts) - min(ts) AS BIGINT) AS span_us,
                   CASE WHEN max(ts) > min(ts)
                        THEN CAST(sum(CASE WHEN nxt IS NULL THEN 0
                                      ELSE cents * (nxt - ts) END)
                                  AS DOUBLE)
                             / CAST(max(ts) - min(ts) AS DOUBLE)
                   END AS twa
            FROM s GROUP BY 1, 2 ORDER BY 1, 2""",
        "rolling_weekly_actives": """
            WITH d AS (
              SELECT user_id, epoch_us(ts) // 86400000000 AS day
              FROM events),
            ends AS (
              SELECT DISTINCT day + k.k AS bucket
              FROM d CROSS JOIN (SELECT unnest(generate_series(0, 6)) AS k) k)
            SELECT e.bucket,
                   CAST(count(DISTINCT dd.user_id) AS BIGINT) AS n_distinct
            FROM ends e JOIN d dd
              ON dd.day BETWEEN e.bucket - 6 AND e.bucket
            GROUP BY 1 ORDER BY 1""",
        "fs_customer_links": f"""
            WITH c AS (
              SELECT c_custkey AS custkey, c_nationkey AS nation,
                     abs(CAST(round(c_acctbal * 100) AS BIGINT)) % 10
                       AS cent_d,
                     c_mktsegment AS seg,
                     CAST(floor(CAST(CAST(round(c_acctbal * 100) AS BIGINT)
                                     AS DOUBLE) / 100000.0) AS BIGINT)
                       AS bal_b
              FROM customer)
            SELECT a.custkey AS custkey_a, b.custkey AS custkey_b,
                   {_fs_weights_sql()} AS score,
                   ({_fs_weights_sql()}) >= {_FS_THRESHOLD!r} AS match
            FROM c a JOIN c b
              ON a.nation = b.nation
             AND a.custkey % 2 = 0 AND b.custkey % 2 = 1
            ORDER BY 1, 2""",
        "value_hour_correlation": """
            WITH d AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS x,
                     (epoch_us(ts) // 3600000000) % 24 AS y
              FROM events),
            s AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(x) AS BIGINT) AS sx,
                     CAST(sum(y) AS BIGINT) AS sy,
                     CAST(sum(x * y) AS BIGINT) AS sxy,
                     CAST(sum(x * x) AS BIGINT) AS sxx,
                     CAST(sum(y * y) AS BIGINT) AS syy
              FROM d GROUP BY 1)
            SELECT event_type, n, sx, sy, sxy, sxx, syy,
                   CASE WHEN (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                              - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) > 0
                         AND (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                              - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)) > 0
                        THEN least(greatest(
                          (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                           - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                          / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                                  - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                             * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                                    - CAST(sy AS DOUBLE)
                                      * CAST(sy AS DOUBLE))),
                          -1.0), 1.0)
                   END AS r
            FROM s ORDER BY event_type""",
        "user_spend_gini": """
            WITH totals AS (
              SELECT event_type, user_id,
                     greatest(CAST(sum(CAST(round(value * 100) AS BIGINT))
                                   AS BIGINT), 0) AS cents
              FROM events GROUP BY 1, 2),
            ranked AS (
              SELECT event_type, cents,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY cents, user_id) AS i
              FROM totals),
            s AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(cents) AS BIGINT) AS total,
                     CAST(sum(i * cents) AS BIGINT) AS six
              FROM ranked GROUP BY 1)
            SELECT event_type, n, total,
                   CASE WHEN total > 0 THEN
                     (2.0 * CAST(six AS DOUBLE))
                       / (CAST(n AS DOUBLE) * CAST(total AS DOUBLE))
                     - (CAST(n AS DOUBLE) + 1.0) / CAST(n AS DOUBLE)
                   END AS gini
            FROM s ORDER BY event_type""",
        "route_prefix_rollup": """
            WITH p AS (
              SELECT '/' || event_type || '/u' || (user_id & 7)
                     || '/p' || (event_id & 3) AS path
              FROM events),
            seg AS (
              SELECT string_split(trim(path, '/'), '/') AS parts FROM p),
            pre AS (
              SELECT '/' || array_to_string(parts[1:1], '/') AS prefix,
                     CAST(1 AS BIGINT) AS depth
              FROM seg WHERE len(parts) >= 1
              UNION ALL
              SELECT '/' || array_to_string(parts[1:2], '/') AS prefix,
                     CAST(2 AS BIGINT) AS depth
              FROM seg WHERE len(parts) >= 2)
            SELECT prefix, depth, count(*) AS n
            FROM pre GROUP BY 1, 2 ORDER BY depth, prefix""",
        "trending_event_types": """
            WITH c AS (
              SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2),
            l AS (
              SELECT event_type, day, CAST(n AS BIGINT) AS n,
                     CAST(n - coalesce(lag(n) OVER (
                       PARTITION BY event_type ORDER BY day), 0)
                       AS BIGINT) AS delta
              FROM c)
            SELECT event_type, day, n, delta,
                   CAST(row_number() OVER (
                     PARTITION BY day
                     ORDER BY delta DESC, n DESC, event_type)
                     AS BIGINT) AS rank
            FROM l ORDER BY day, rank""",
        "view_purchase_overlaps": """
            WITH v AS (
              SELECT user_id, event_id AS id, epoch_us(ts) AS s,
                     epoch_us(ts) + 1800000000 AS e
              FROM events WHERE event_type = 'view'),
            p AS (
              SELECT user_id, event_id AS id, epoch_us(ts) AS s,
                     epoch_us(ts) + 2700000000 AS e
              FROM events WHERE event_type = 'purchase')
            SELECT v.user_id, v.id AS id_a, p.id AS id_b
            FROM v JOIN p
              ON v.user_id = p.user_id
             AND v.s < p.e AND p.s < v.e
            ORDER BY v.user_id, id_a, id_b""",
        "value_ks_drift": """
            WITH d AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     CASE WHEN epoch_us(ts) // 86400000000 >= 19738
                          THEN 1 ELSE 0 END AS side
              FROM events),
            c AS (
              SELECT event_type, cents,
                     sum(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS a0,
                     sum(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS a1
              FROM d GROUP BY 1, 2),
            w AS (
              SELECT event_type, cents,
                     sum(a0) OVER (PARTITION BY event_type ORDER BY cents
                                   ROWS UNBOUNDED PRECEDING) AS c0,
                     sum(a1) OVER (PARTITION BY event_type ORDER BY cents
                                   ROWS UNBOUNDED PRECEDING) AS c1,
                     sum(a0) OVER (PARTITION BY event_type) AS n0,
                     sum(a1) OVER (PARTITION BY event_type) AS n1
              FROM c)
            SELECT event_type,
                   CAST(max(abs(c0 * n1 - c1 * n0)) AS BIGINT) AS ks_numer,
                   CAST(any_value(n0) AS BIGINT) AS n0,
                   CAST(any_value(n1) AS BIGINT) AS n1,
                   CASE WHEN any_value(n0) * any_value(n1) > 0 THEN
                     CAST(max(abs(c0 * n1 - c1 * n0)) AS DOUBLE)
                     / CAST(any_value(n0) * any_value(n1) AS DOUBLE)
                   END AS ks
            FROM w GROUP BY 1 ORDER BY 1""",
        "value_auc_shift": """
            WITH d AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     CASE WHEN epoch_us(ts) // 86400000000 >= 19738
                          THEN 1 ELSE 0 END AS side
              FROM events),
            c AS (
              SELECT event_type, cents,
                     count(*) AS cnt,
                     sum(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS a1
              FROM d GROUP BY 1, 2),
            w AS (
              SELECT event_type, cents, cnt, a1,
                     coalesce(sum(cnt) OVER (
                       PARTITION BY event_type ORDER BY cents
                       ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING), 0) AS c_before
              FROM c),
            s AS (
              SELECT event_type,
                     sum((2 * c_before + cnt + 1) * a1) AS r1_2,
                     sum(a1) AS n1, sum(cnt - a1) AS n0
              FROM w GROUP BY 1)
            SELECT event_type,
                   CAST(n0 AS BIGINT) AS n0, CAST(n1 AS BIGINT) AS n1,
                   CAST(r1_2 - n1 * (n1 + 1) AS BIGINT) AS u2,
                   CASE WHEN n0 * n1 > 0 THEN
                     CAST(r1_2 - n1 * (n1 + 1) AS DOUBLE)
                     / CAST(2 * n0 * n1 AS DOUBLE)
                   END AS auc
            FROM s ORDER BY event_type""",
        "value_acf_hourly": """
            WITH agg AS (
              SELECT event_type, epoch_us(ts) // 3600000000 AS bucket,
                     CAST(sum(CAST(round(value * 100) AS BIGINT))
                          AS BIGINT) AS v
              FROM events GROUP BY 1, 2),
            pairs AS (
              SELECT a.event_type, a.v AS x, b.v AS y
              FROM agg a JOIN agg b
                ON b.event_type = a.event_type
               AND b.bucket = a.bucket - 1),
            s AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(x) AS BIGINT) AS sx,
                     CAST(sum(y) AS BIGINT) AS sy,
                     CAST(sum(x * y) AS BIGINT) AS sxy,
                     CAST(sum(x * x) AS BIGINT) AS sxx,
                     CAST(sum(y * y) AS BIGINT) AS syy
              FROM pairs GROUP BY 1)
            SELECT event_type, n, sx, sy, sxy, sxx, syy,
                   CASE WHEN (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                              - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) > 0
                         AND (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                              - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)) > 0
                        THEN least(greatest(
                          (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                           - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                          / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                                  - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                             * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                                    - CAST(sy AS DOUBLE)
                                      * CAST(sy AS DOUBLE))),
                          -1.0), 1.0)
                   END AS r
            FROM s ORDER BY event_type""",
        "weighted_latency_quantiles": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')),
            w AS (
              SELECT tool_name, lat,
                     sum(lat) OVER (PARTITION BY tool_name ORDER BY lat
                                    ROWS UNBOUNDED PRECEDING) AS cumw,
                     sum(lat) OVER (PARTITION BY tool_name) AS tot
              FROM parsed),
            qs AS (SELECT * FROM (VALUES (1, 2, 0.5), (9, 10, 0.9),
                                         (99, 100, 0.99)) q(num, den, qf))
            SELECT tool_name, qs.qf AS q,
                   CAST(min(lat) AS BIGINT) AS value
            FROM w JOIN qs ON w.cumw * qs.den >= qs.num * w.tot
            GROUP BY 1, 2 ORDER BY 1, 2""",
        "value_qq_shift": """
            WITH d AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     CASE WHEN epoch_us(ts) // 86400000000 >= 19738
                          THEN 1 ELSE 0 END AS side
              FROM events),
            w AS (
              SELECT event_type, side, cents,
                     sum(1) OVER (PARTITION BY event_type, side
                                  ORDER BY cents
                                  ROWS UNBOUNDED PRECEDING) AS cumw,
                     count(*) OVER (PARTITION BY event_type, side) AS tot
              FROM d),
            qs AS (SELECT unnest(generate_series(1, 9)) AS num),
            sel AS (
              SELECT event_type, side, qs.num,
                     min(cents) AS value
              FROM w JOIN qs ON w.cumw * 10 >= qs.num * w.tot
              GROUP BY 1, 2, 3)
            SELECT b.event_type, CAST(b.num AS DOUBLE) / 10.0 AS q,
                   b.value AS base, c.value AS cur,
                   c.value - b.value AS shift
            FROM sel b JOIN sel c
              ON c.event_type = b.event_type AND c.num = b.num
             AND b.side = 0 AND c.side = 1
            ORDER BY b.event_type, q""",
        "top_session_paths": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts, event_type
              FROM events),
            gaps AS (
              SELECT *, CASE WHEN ts - lag(ts) OVER w > 1800000000
                             THEN 1 ELSE 0 END AS new_s
              FROM e WINDOW w AS (PARTITION BY user_id
                                  ORDER BY ts, event_id)),
            sess AS (
              SELECT *, sum(new_s) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id
                                         ROWS UNBOUNDED PRECEDING) AS sid
              FROM gaps),
            capped AS (
              SELECT * FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY user_id, sid
                  ORDER BY ts, event_id) AS step
                FROM sess) WHERE step <= 5),
            p AS (
              SELECT user_id, sid,
                     string_agg(event_type, '>' ORDER BY ts, event_id)
                       AS path
              FROM capped GROUP BY 1, 2)
            SELECT path, count(*) AS n_sessions
            FROM p GROUP BY 1 HAVING count(*) >= 2
            ORDER BY path""",
        "value_welch_ttest": """
            WITH d AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS x,
                     CASE WHEN epoch_us(ts) // 86400000000 >= 19738
                          THEN 1 ELSE 0 END AS side
              FROM events),
            s AS (
              SELECT event_type,
                     CAST(sum(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n0,
                     CAST(sum(CASE WHEN side = 0 THEN x ELSE 0 END) AS BIGINT) AS sx0,
                     CAST(sum(CASE WHEN side = 0 THEN x * x ELSE 0 END) AS BIGINT) AS sxx0,
                     CAST(sum(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1,
                     CAST(sum(CASE WHEN side = 1 THEN x ELSE 0 END) AS BIGINT) AS sx1,
                     CAST(sum(CASE WHEN side = 1 THEN x * x ELSE 0 END) AS BIGINT) AS sxx1
              FROM d GROUP BY 1),
            f AS (
              SELECT event_type, n0, sx0, sxx0, n1, sx1, sxx1,
                     CAST(sx0 AS DOUBLE) / CAST(n0 AS DOUBLE) AS m0,
                     CAST(sx1 AS DOUBLE) / CAST(n1 AS DOUBLE) AS m1,
                     (CAST(sxx0 AS DOUBLE) - CAST(sx0 AS DOUBLE)
                        * CAST(sx0 AS DOUBLE) / CAST(n0 AS DOUBLE))
                       / (CAST(n0 AS DOUBLE) - 1.0) AS v0,
                     (CAST(sxx1 AS DOUBLE) - CAST(sx1 AS DOUBLE)
                        * CAST(sx1 AS DOUBLE) / CAST(n1 AS DOUBLE))
                       / (CAST(n1 AS DOUBLE) - 1.0) AS v1
              FROM s),
            g AS (
              SELECT *, v0 / CAST(n0 AS DOUBLE)
                        + v1 / CAST(n1 AS DOUBLE) AS se2
              FROM f)
            SELECT event_type, n0, sx0, sxx0, n1, sx1, sxx1,
                   CASE WHEN n0 >= 2 AND n1 >= 2 AND se2 > 0 THEN
                     floor((m1 - m0) / sqrt(se2) * 1000000000.0 + 0.5)
                       / 1000000000.0 END AS t,
                   CASE WHEN n0 >= 2 AND n1 >= 2 AND se2 > 0 THEN
                     floor(se2 * se2 / (
                       (v0 / CAST(n0 AS DOUBLE)) * (v0 / CAST(n0 AS DOUBLE))
                         / (CAST(n0 AS DOUBLE) - 1.0)
                       + (v1 / CAST(n1 AS DOUBLE)) * (v1 / CAST(n1 AS DOUBLE))
                         / (CAST(n1 AS DOUBLE) - 1.0))
                       * 1000000000.0 + 0.5) / 1000000000.0 END AS df
            FROM g ORDER BY event_type""",
        "user_credit_balance": """
            WITH d AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts,
                     CASE WHEN event_type IN ('signup', 'purchase')
                          THEN CAST(round(value * 100) AS BIGINT)
                          ELSE -CAST(round(value * 100) AS BIGINT)
                     END AS delta
              FROM events),
            s AS (
              SELECT *, sum(delta) OVER w AS run
              FROM d WINDOW w AS (PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS UNBOUNDED PRECEDING)),
            m AS (
              SELECT *, least(0, min(run) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING)) AS floor_off
              FROM s)
            SELECT user_id, event_id, ts, delta,
                   CAST(run - floor_off AS BIGINT) AS balance
            FROM m ORDER BY user_id, ts, event_id""",
        "user_burstiness": """
            WITH c AS (
              SELECT user_id, epoch_us(ts) // 3600000000 AS bucket,
                     count(*) AS n
              FROM events GROUP BY 1, 2),
            s AS (
              SELECT user_id,
                     CAST(max(bucket) - min(bucket) + 1 AS BIGINT) AS B,
                     CAST(sum(n) AS BIGINT) AS N,
                     CAST(sum(n * n) AS BIGINT) AS sq
              FROM c GROUP BY 1)
            SELECT user_id, B AS n_buckets_span, N AS n_events,
                   CASE WHEN B >= 1 AND N > 0 THEN
                     floor(((CAST(sq AS DOUBLE) - CAST(N AS DOUBLE)
                              * CAST(N AS DOUBLE) / CAST(B AS DOUBLE))
                            / CAST(B AS DOUBLE))
                           / (CAST(N AS DOUBLE) / CAST(B AS DOUBLE))
                           * 1000000000.0 + 0.5) / 1000000000.0
                   END AS fano
            FROM s ORDER BY user_id""",
        "type_hour_independence": """
            WITH d AS (
              SELECT event_type,
                     (epoch_us(ts) // 3600000000) % 24 AS hour
              FROM events),
            cells AS (
              SELECT event_type, hour, count(*) AS obs
              FROM d GROUP BY 1, 2),
            rt AS (SELECT event_type, CAST(sum(obs) AS BIGINT)
                     AS row_total FROM cells GROUP BY 1),
            ct AS (SELECT hour, CAST(sum(obs) AS BIGINT)
                     AS col_total FROM cells GROUP BY 1),
            g AS (SELECT CAST(sum(obs) AS DOUBLE) AS grand FROM cells)
            SELECT rt.event_type, ct.hour,
                   rt.row_total, ct.col_total,
                   CAST(coalesce(c.obs, 0) AS BIGINT) AS obs,
                   CAST(rt.row_total AS DOUBLE) * CAST(ct.col_total AS DOUBLE)
                     / g.grand AS expected,
                   (CAST(coalesce(c.obs, 0) AS DOUBLE)
                    - CAST(rt.row_total AS DOUBLE)
                      * CAST(ct.col_total AS DOUBLE) / g.grand)
                   * (CAST(coalesce(c.obs, 0) AS DOUBLE)
                      - CAST(rt.row_total AS DOUBLE)
                        * CAST(ct.col_total AS DOUBLE) / g.grand)
                   / (CAST(rt.row_total AS DOUBLE)
                      * CAST(ct.col_total AS DOUBLE) / g.grand)
                     AS chi2_contrib
            FROM rt CROSS JOIN ct CROSS JOIN g
            LEFT JOIN cells c ON c.event_type = rt.event_type
                             AND c.hour = ct.hour
            ORDER BY rt.event_type, ct.hour""",
        "exp_histogram": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT tool_name,
                   CAST(CASE WHEN lat <= 0 THEN NULL
                             WHEN lat = 1 THEN -1
                             ELSE length(bin(lat - 1)) - 1 END AS BIGINT) AS bucket,
                   count(*) AS n
            FROM parsed GROUP BY 1, 2""",
        "exp_histogram_scale2": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT tool_name,
                   CAST(CASE WHEN lat <= 0 THEN NULL
                             ELSE CAST(ceil(log2(CAST(lat AS DOUBLE)) * 4.0) AS BIGINT) - 1
                        END AS BIGINT) AS bucket,
                   count(*) AS n
            FROM parsed GROUP BY 1, 2""",
        "exp_to_explicit_hist": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')),
            eb AS (
              SELECT tool_name,
                     CASE WHEN lat <= 0 THEN 0.0
                          WHEN lat = 1 THEN 1.0
                          ELSE power(2.0, length(bin(lat - 1))) END AS upper_edge
              FROM parsed)
            SELECT tool_name,
                   CASE WHEN upper_edge <= 8 THEN 8.0
                        WHEN upper_edge <= 64 THEN 64.0
                        WHEN upper_edge <= 512 THEN 512.0
                        WHEN upper_edge <= 4096 THEN 4096.0
                        ELSE 'infinity'::DOUBLE END AS le,
                   count(*) AS n
            FROM eb GROUP BY 1, 2 ORDER BY tool_name, le""",
        "cumulative_value_by_user": """
            SELECT event_id, user_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cumulative_cents
            FROM events""",
        "json_props_sum": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS k_total
            FROM events GROUP BY event_type""",
        "filter_events": """
            SELECT event_type, count(*) AS n FROM events
            WHERE NOT (event_type = 'error' OR value < 50.0)
            GROUP BY event_type""",
        "doc_token_counts": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens
            FROM documents""",
        "doc_exact_dups": """
            SELECT md5(text) AS text_md5, count(*) AS n_docs,
                   min(doc_id) AS first_doc_id
            FROM documents GROUP BY 1""",
        "embedding_knn": """
            WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
            SELECT e.vec_id
            FROM embeddings e, q
            WHERE e.vec_id <> 0
            ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
            LIMIT 10""",
        "reassemble_partials": """
            WITH lines AS (
              SELECT text FROM read_csv('/tmp/graft_textlogs/container-n4000-s33/*.log',
                     columns={'text': 'VARCHAR'}, delim='\x01', header=false, quote='')),
            parsed AS (
              SELECT CASE WHEN starts_with(text, '{')
                          THEN json_extract_string(text, '$.stream')
                          ELSE regexp_extract(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$', 2)
                     END AS stream,
                     CASE WHEN starts_with(text, '{') THEN 'F'
                          ELSE regexp_extract(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$', 3)
                     END AS logtag,
                     CASE WHEN starts_with(text, '{')
                          THEN json_extract_string(text, '$.time')
                          ELSE regexp_extract(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$', 1)
                     END AS t,
                     CASE WHEN starts_with(text, '{')
                          THEN rtrim(json_extract_string(text, '$.log'), chr(10))
                          ELSE regexp_extract(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$', 4)
                     END AS log,
                     (starts_with(text, '{') AND json_valid(text))
                       OR regexp_matches(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$') AS ok
              FROM lines),
            seg AS (
              SELECT *, coalesce(sum(CASE WHEN logtag = 'P' THEN 0 ELSE 1 END)
                       OVER (PARTITION BY stream ORDER BY t
                             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS segid
              FROM parsed WHERE ok)
            SELECT stream, min(t) AS log_time,
                   string_agg(log, '' ORDER BY t) AS log,
                   count(*) AS n_partials
            FROM seg GROUP BY stream, segid""",
        "otlp_roundtrip_counts": f"""
            SELECT role, count(*) AS n,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars
            FROM {_T} GROUP BY role""",
        "otlp_proto_roundtrip": f"""
            SELECT role, count(*) AS n,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars
            FROM {_T} GROUP BY role ORDER BY role""",
        "approx_top_tools": f"""
            SELECT tool, count(*) AS est_count FROM {_T}
            WHERE tool <> ''
            GROUP BY tool ORDER BY est_count DESC, tool LIMIT 5""",
        "error_fingerprints": f"""
            SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                   md5(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 6)) AS msg_fp,
                   count(*) AS n, min(ts) AS first_seen, max(ts) AS last_seen
            FROM {_T}
            WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')
              AND regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 4) = 'error'
            GROUP BY 1, 2""",
        "container_log_parse": """
            WITH lines AS (
              SELECT text FROM read_csv('/tmp/graft_textlogs/container-n4000-s33/*.log',
                     columns={'text': 'VARCHAR'}, delim='\x01', header=false, quote='')),
            parsed AS (
              SELECT CASE WHEN starts_with(text, '{')
                          THEN json_extract_string(text, '$.stream')
                          ELSE regexp_extract(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$', 2)
                     END AS stream,
                     CASE WHEN starts_with(text, '{') THEN 'F'
                          ELSE regexp_extract(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$', 3)
                     END AS logtag,
                     (starts_with(text, '{') AND json_valid(text))
                       OR regexp_matches(text, '^(\\S+) (stdout|stderr) ([PF]) ?(.*)$') AS ok
              FROM lines)
            SELECT stream, logtag, count(*) AS n
            FROM parsed WHERE ok GROUP BY 1, 2""",
        "otlp_hist_proto_roundtrip": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT tool_name,
                   CASE WHEN lat <= 100 THEN '100' WHEN lat <= 500 THEN '500'
                        WHEN lat <= 1000 THEN '1000' WHEN lat <= 5000 THEN '5000'
                        ELSE 'inf' END AS le,
                   count(*) AS n
            FROM parsed GROUP BY 1, 2""",
"otlp_hist_json_roundtrip": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT tool_name,
                   CASE WHEN lat <= 100 THEN '100' WHEN lat <= 500 THEN '500'
                        WHEN lat <= 1000 THEN '1000' WHEN lat <= 5000 THEN '5000'
                        ELSE 'inf' END AS le,
                   count(*) AS n
            FROM parsed GROUP BY 1, 2""",
        "otlp_metrics_proto_roundtrip": """
            WITH pts AS (
              SELECT event_type || '_latency' AS metric_name,
                     'Gauge' AS metric_type,
                     (event_id % 7) * 0.5 AS vd,
                     CAST(NULL AS BIGINT) AS vi,
                     event_id % 3 AS shard
              FROM events
              UNION ALL
              SELECT event_type || '_calls', 'Sum',
                     CAST(NULL AS DOUBLE), event_id % 100, event_id % 3
              FROM events)
            SELECT metric_name, metric_type, CAST(shard AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n,
                   sum(vd) AS vd_sum,
                   CAST(sum(vi) AS BIGINT) AS vi_sum
            FROM pts GROUP BY 1, 2, 3
            ORDER BY metric_name, shard""",
        "otlp_metrics_json_roundtrip": """
            WITH pts AS (
              SELECT event_type || '_latency' AS metric_name,
                     'Gauge' AS metric_type,
                     (event_id % 7) * 0.5 AS vd,
                     CAST(NULL AS BIGINT) AS vi,
                     event_id % 3 AS shard
              FROM events
              UNION ALL
              SELECT event_type || '_calls', 'Sum',
                     CAST(NULL AS DOUBLE), event_id % 100, event_id % 3
              FROM events)
            SELECT metric_name, metric_type, CAST(shard AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n,
                   sum(vd) AS vd_sum,
                   CAST(sum(vi) AS BIGINT) AS vi_sum
            FROM pts GROUP BY 1, 2, 3
            ORDER BY metric_name, shard""",
        "doc_temperature_mix": """
            WITH tot AS (
              SELECT source, CAST(sum(n_chars) AS BIGINT) AS tok
              FROM documents GROUP BY source),
            w AS (
              SELECT source,
                     CAST(floor(sqrt(CAST(tok AS DOUBLE))) AS BIGINT) AS w
              FROM tot),
            b AS (
              SELECT source,
                     (40000 * w) // (SELECT sum(w) FROM w) AS budget
              FROM w),
            cum AS (
              SELECT doc_id, source, n_chars,
                     sum(n_chars) OVER (
                       PARTITION BY source
                       ORDER BY md5_number_lower(
                           concat(CAST(doc_id AS VARCHAR), ':11'))
                           % 4611686018427387904, doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS running
              FROM documents)
            SELECT doc_id, cum.source, n_chars
            FROM cum JOIN b ON cum.source = b.source
            WHERE running <= budget
            ORDER BY doc_id""",
        "cube_event_counts": """
            WITH f AS (
              SELECT event_type, CAST(isodow(ts) AS BIGINT) AS dow
              FROM events)
            SELECT coalesce(event_type, 'ALL') AS event_type,
                   coalesce(dow, -1) AS dow,
                   count(*) AS n
            FROM f GROUP BY CUBE (event_type, dow)
            ORDER BY event_type, dow""",
        "event_value_quantiles_cont": """
            SELECT event_type,
                   quantile_cont(value, 0.25) AS q25,
                   quantile_cont(value, 0.50) AS q50,
                   quantile_cont(value, 0.90) AS q90
            FROM events WHERE value IS NOT NULL
            GROUP BY 1 ORDER BY event_type""",
        "tpch_q6": """
            SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round(l_discount * 100) AS BIGINT))
                        AS BIGINT) / 10000.0 AS revenue
            FROM lineitem
            WHERE l_shipdate >= DATE '1997-01-01'
              AND l_shipdate < DATE '1998-01-01'
              AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND l_quantity < 24""",
        "tpch_q7": """
            WITH l AS (
              SELECT l_orderkey, l_suppkey,
                     CAST(year(l_shipdate) AS BIGINT) AS l_year,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))
                       AS rev
              FROM lineitem
              WHERE l_shipdate >= DATE '1997-01-01'
                AND l_shipdate <= DATE '1998-12-31')
            SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                   l_year, CAST(sum(rev) AS BIGINT) AS revenue
            FROM supplier, l, orders, customer,
                 nation n1, nation n2
            WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
              AND c_custkey = o_custkey
              AND s_nationkey = n1.n_nationkey
              AND c_nationkey = n2.n_nationkey
              AND ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
                OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3""",
        "tpch_q8": """
            WITH vol AS (
              SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))
                       AS rev,
                     s_nationkey
              FROM lineitem, orders, customer, supplier, part,
                   nation, region
              WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
                AND l_orderkey = o_orderkey AND o_custkey = c_custkey
                AND c_nationkey = n_nationkey
                AND n_regionkey = r_regionkey
                AND r_name = 'ASIA' AND p_type = 'ECONOMY'
                AND o_orderdate >= DATE '1997-01-01'
                AND o_orderdate <= DATE '1998-12-31')
            SELECT o_year,
                   CAST(sum(CASE WHEN s_nationkey = 1 THEN rev
                            ELSE 0 END) AS BIGINT) AS nation_rev,
                   CAST(sum(rev) AS BIGINT) AS total_rev,
                   CAST(sum(CASE WHEN s_nationkey = 1 THEN rev
                            ELSE 0 END) AS BIGINT)
                   / CAST(sum(rev) AS BIGINT) AS mkt_share
            FROM vol GROUP BY o_year ORDER BY o_year""",
        "tpch_q13": """
            WITH per_cust AS (
              SELECT c_custkey, count(o_orderkey) AS c_count
              FROM customer LEFT OUTER JOIN orders
                ON c_custkey = o_custkey
              GROUP BY c_custkey)
            SELECT CAST(c_count AS BIGINT) AS c_count,
                   count(*) AS custdist
            FROM per_cust GROUP BY 1
            ORDER BY custdist DESC, c_count DESC""",
        "tpch_q15": """
            WITH revenue AS (
              SELECT l_suppkey AS supplier_no,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(round(l_discount * 100)
                                            AS BIGINT))) AS BIGINT)
                       AS total_rev
              FROM lineitem
              WHERE l_shipdate >= DATE '1997-01-01'
                AND l_shipdate < DATE '1997-04-01'
              GROUP BY l_suppkey)
            SELECT s_suppkey, s_name, total_rev AS revenue
            FROM supplier, revenue
            WHERE s_suppkey = supplier_no
              AND total_rev = (SELECT max(total_rev) FROM revenue)
            ORDER BY s_suppkey""",
        "tpch_q17": """
            WITH pruned AS (
              SELECT l_partkey, CAST(l_quantity AS BIGINT) AS qty,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
              FROM lineitem, part
              WHERE p_partkey = l_partkey AND p_brand = 'Brand#13'),
            stats AS (
              SELECT l_partkey, CAST(sum(qty) AS BIGINT) AS sum_qty,
                     count(*) AS n
              FROM pruned GROUP BY l_partkey)
            SELECT CAST(sum(cents) AS BIGINT) / 700.0 AS avg_yearly
            FROM pruned, stats
            WHERE pruned.l_partkey = stats.l_partkey
              AND 5 * stats.n * pruned.qty < stats.sum_qty""",
        "tpch_q19": """
            SELECT CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                   / 10000.0 AS revenue,
                   count(*) AS n
            FROM lineitem, part
            WHERE p_partkey = l_partkey
              AND ((p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 5
                    AND l_quantity BETWEEN 1 AND 11)
                OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 10
                    AND l_quantity BETWEEN 10 AND 20)
                OR (p_brand = 'Brand#4' AND p_size BETWEEN 1 AND 15
                    AND l_quantity BETWEEN 20 AND 30))""",
        "tpch_q22": """
            WITH cset AS (
              SELECT c_custkey,
                     CAST(c_nationkey AS BIGINT) AS cntrycode,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS bal
              FROM customer
              WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)),
            thr AS (
              SELECT CAST(sum(bal) AS BIGINT) AS s, count(*) AS n
              FROM cset WHERE bal > 0)
            SELECT cntrycode, count(*) AS numcust,
                   CAST(sum(bal) AS BIGINT) / 100.0 AS totacctbal
            FROM cset, thr
            WHERE bal * n > s
              AND NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderdate >= DATE '2000-07-01')
            GROUP BY cntrycode ORDER BY cntrycode""",
        "tpch_q2": """
            WITH pk AS (
              SELECT p_partkey FROM part
              WHERE p_size <= 15 AND p_type = 'LARGE'),
            es AS (
              SELECT s_suppkey, s_name, s_nationkey,
                     CAST(round(s_acctbal * 100) AS BIGINT) AS bal
              FROM supplier, nation, region
              WHERE s_nationkey = n_nationkey
                AND n_regionkey = r_regionkey AND r_name = 'EUROPE'),
            pairs AS (
              SELECT l_partkey, l_suppkey,
                     min(CAST(round(l_extendedprice * 100) AS BIGINT)
                         * 1000 // CAST(l_quantity AS BIGINT))
                       AS supplycost_milli
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM pk)
                AND l_suppkey IN (SELECT s_suppkey FROM es)
              GROUP BY 1, 2),
            best AS (
              SELECT * FROM pairs
              WHERE supplycost_milli =
                    (SELECT min(p2.supplycost_milli) FROM pairs p2
                     WHERE p2.l_partkey = pairs.l_partkey))
            SELECT es.bal AS s_acctbal_cents, es.s_name, n_name,
                   l_partkey AS p_partkey,
                   CAST(supplycost_milli AS BIGINT) AS supplycost_milli
            FROM best, es, nation
            WHERE best.l_suppkey = es.s_suppkey
              AND es.s_nationkey = n_nationkey
            ORDER BY s_acctbal_cents DESC, n_name, s_name, p_partkey
            LIMIT 100""",
        "tpch_q4": """
            SELECT o_orderpriority, count(*) AS order_count
            FROM orders
            WHERE o_orderdate >= DATE '1997-07-01'
              AND o_orderdate < DATE '1997-10-01'
              AND EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_returnflag = 'R')
            GROUP BY 1 ORDER BY 1""",
        "tpch_q9": """
            WITH l AS (
              SELECT s_nationkey,
                     CAST(year(o_orderdate) AS BIGINT) AS o_year,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))
                     - CAST(round(p_retailprice * 100) AS BIGINT)
                       * CAST(l_quantity AS BIGINT) * 100 AS amount
              FROM lineitem, orders, supplier, part
              WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
                AND p_partkey = l_partkey AND p_name LIKE '%gear%')
            SELECT n_name AS nation, o_year,
                   CAST(sum(amount) AS BIGINT) / 10000.0 AS sum_profit
            FROM l, nation WHERE n_nationkey = s_nationkey
            GROUP BY 1, 2 ORDER BY nation, o_year DESC""",
        "tpch_q11": """
            WITH v AS (
              SELECT l_partkey AS ps_partkey,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS value
              FROM lineitem, supplier
              WHERE s_suppkey = l_suppkey AND s_nationkey = 7
              GROUP BY 1)
            SELECT ps_partkey, value FROM v
            WHERE value * 1000 > (SELECT sum(value) FROM v)
            ORDER BY value DESC, ps_partkey""",
        "tpch_q12": """
            SELECT l_returnflag,
                   CAST(sum(CASE WHEN o_orderpriority IN
                                 ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END) AS BIGINT)
                     AS high_line_count,
                   CAST(sum(CASE WHEN o_orderpriority NOT IN
                                 ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END) AS BIGINT)
                     AS low_line_count
            FROM orders, lineitem
            WHERE o_orderkey = l_orderkey
              AND l_returnflag IN ('A', 'R')
              AND l_shipdate >= DATE '1997-01-01'
              AND l_shipdate < DATE '1998-01-01'
              AND l_shipdate > o_orderdate + INTERVAL 30 DAY
            GROUP BY 1 ORDER BY 1""",
        "tpch_q16": """
            WITH ps AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem)
            SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
                   count(DISTINCT l_suppkey) AS supplier_cnt
            FROM ps, part
            WHERE p_partkey = l_partkey AND p_brand <> 'Brand#5'
              AND p_size IN (1, 4, 9, 16, 25, 36, 49)
              AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                    WHERE s_acctbal < 0)
            GROUP BY 1, 2, 3
            ORDER BY supplier_cnt DESC, p_brand, p_type, p_size""",
        "tpch_q20": """
            SELECT s_suppkey, s_name FROM supplier
            WHERE s_suppkey IN (
              SELECT l_suppkey FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_name LIKE 'red%')
                AND l_shipdate >= DATE '1997-01-01'
                AND l_shipdate < DATE '1998-01-01'
              GROUP BY l_suppkey, l_partkey
              HAVING sum(CAST(l_quantity AS BIGINT)) > 50)
              AND s_nationkey IN (SELECT n_nationkey FROM nation
                                  WHERE n_regionkey = 3)
            ORDER BY s_suppkey""",
        "tpch_q21": """
            WITH per AS (
              SELECT l_orderkey, l_suppkey,
                     max(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
                       AS late
              FROM lineitem GROUP BY 1, 2),
            ord AS (
              SELECT l_orderkey, count(*) AS n_supp,
                     sum(late) AS n_late,
                     max(CASE WHEN late = 1 THEN l_suppkey END) AS the_supp
              FROM per GROUP BY 1),
            w AS (
              SELECT the_supp AS s_suppkey FROM ord, orders
              WHERE o_orderkey = l_orderkey AND o_orderstatus = 'F'
                AND n_late = 1 AND n_supp >= 2)
            SELECT s_name, count(*) AS numwait
            FROM w, supplier
            WHERE w.s_suppkey = supplier.s_suppkey AND s_nationkey = 1
            GROUP BY 1 ORDER BY numwait DESC, s_name LIMIT 100""",
        "otlp_traces_json_roundtrip": """
            SELECT CASE WHEN event_id % 2 = 0 THEN 'prod' ELSE 'stage' END
                       AS env,
                   CAST(CASE WHEN event_id % 11 = 0 THEN 2 ELSE 1 END
                        AS BIGINT) AS status_code,
                   count(*) AS n,
                   CAST(sum(CASE WHEN event_id % 3 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_parent,
                   CAST(sum(CASE WHEN event_id % 4 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_state,
                   CAST(sum(CASE WHEN event_id % 11 = 0
                            THEN length('err-' ||
                                        CAST(event_id % 7 AS VARCHAR))
                            ELSE 0 END) AS BIGINT) AS msg_chars
            FROM events GROUP BY 1, 2
            ORDER BY env, status_code""",
        "filelog_multiline_counts": r"""
            WITH lines AS (
              SELECT filename, text,
                     CAST(regexp_extract(text, 'seq=(\d+)$', 1) AS BIGINT) AS seq
              FROM read_csv('/tmp/graft_textlogs/ml-n4000-s47/*.log*',
                     columns={'text': 'VARCHAR'}, delim='<SOH>',
                     header=false, quote='', filename=true)),
            marked AS (
              SELECT *, CASE WHEN regexp_matches(text, '^\d{4}-\d{2}-\d{2}T')
                             THEN 1 ELSE 0 END AS is_start
              FROM lines),
            entries AS (
              SELECT *, sum(is_start) OVER (PARTITION BY filename
                                            ORDER BY seq) AS eid
              FROM marked),
            agg AS (
              SELECT filename, eid,
                     max(CASE WHEN is_start = 1 THEN
                         regexp_extract(text, '^\S+ ([A-Z]+) ', 1) END)
                       AS severity,
                     count(*) AS n_lines
              FROM entries GROUP BY filename, eid)
            SELECT severity, count(*) AS n_entries,
                   CAST(sum(n_lines) AS BIGINT) AS total_lines
            FROM agg GROUP BY 1 ORDER BY 1""".replace("<SOH>", "\x01"),
        "filelog_severity_counts": f"""
            WITH lines AS (
              SELECT text FROM read_csv('/tmp/graft_textlogs/n5000-s21/*.log',
                     columns={{'text': 'VARCHAR'}}, delim='\x01', header=false, quote='')),
            parsed AS (
              SELECT upper(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 2)) AS lvl
              FROM lines WHERE regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT CASE lvl WHEN 'TRACE' THEN 'TRACE' WHEN 'DEBUG' THEN 'DEBUG'
                        WHEN 'INFO' THEN 'INFO' WHEN 'WARN' THEN 'WARN'
                        WHEN 'ERROR' THEN 'ERROR' WHEN 'FATAL' THEN 'FATAL' END
                     AS severity_text,
                   count(*) AS n
            FROM parsed GROUP BY 1""",
        "tcp_replay_counts": f"""
            WITH lines AS (
              SELECT text FROM read_csv('/tmp/graft_textlogs/n5000-s21/*.log',
                     columns={{'text': 'VARCHAR'}}, delim='\x01', header=false, quote='')),
            parsed AS (
              SELECT upper(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 2)) AS lvl
              FROM lines WHERE regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT CASE lvl WHEN 'TRACE' THEN 'TRACE' WHEN 'DEBUG' THEN 'DEBUG'
                        WHEN 'INFO' THEN 'INFO' WHEN 'WARN' THEN 'WARN'
                        WHEN 'ERROR' THEN 'ERROR' WHEN 'FATAL' THEN 'FATAL' END
                     AS severity_text,
                   count(*) AS n
            FROM parsed GROUP BY 1""",
        "udp_replay_counts": f"""
            WITH lines AS (
              SELECT text FROM read_csv('/tmp/graft_textlogs/n5000-s21/*.log',
                     columns={{'text': 'VARCHAR'}}, delim='\x01', header=false, quote='')),
            parsed AS (
              SELECT upper(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 2)) AS lvl
              FROM lines WHERE regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT CASE lvl WHEN 'TRACE' THEN 'TRACE' WHEN 'DEBUG' THEN 'DEBUG'
                        WHEN 'INFO' THEN 'INFO' WHEN 'WARN' THEN 'WARN'
                        WHEN 'ERROR' THEN 'ERROR' WHEN 'FATAL' THEN 'FATAL' END
                     AS severity_text,
                   count(*) AS n
            FROM parsed GROUP BY 1""",
        "journald_priority_counts": """
            SELECT "PRIORITY" AS priority, count(*) AS n,
                   CAST(sum(CAST("__REALTIME_TIMESTAMP" AS BIGINT)) AS BIGINT) AS sum_ts_us
            FROM read_json('/tmp/graft_textlogs/journald-s21/export.json',
                           format='newline_delimited')
            GROUP BY 1""",
        "wineventlog_severity_counts": """
            WITH raw AS (
              SELECT text FROM read_csv('/tmp/graft_textlogs/winevt-s21/events.xml.log',
                     columns={'text': 'VARCHAR'}, delim='\x01', header=false, quote='')),
            ex AS (
              SELECT CAST(regexp_extract(text, '<Level>(\\d+)</Level>', 1) AS BIGINT) AS lvl,
                     CAST(regexp_extract(text, '<EventRecordID>(\\d+)</EventRecordID>', 1) AS BIGINT) AS record_id,
                     regexp_extract(text, 'SystemTime=\"([^\"]+)\"', 1) AS st
              FROM raw),
            sev AS (
              SELECT CASE lvl WHEN 1 THEN 'FATAL' WHEN 2 THEN 'ERROR'
                              WHEN 3 THEN 'WARN' WHEN 4 THEN 'INFO'
                              ELSE 'DEFAULT' END AS severity_text,
                     record_id,
                     epoch_us(strptime(st, '%Y-%m-%dT%H:%M:%S.%fZ')) AS ts_us
              FROM ex)
            SELECT severity_text, count(*) AS n,
                   CAST(sum(record_id) AS BIGINT) AS sum_record_id,
                   CAST(sum(ts_us) AS BIGINT) AS sum_ts_us
            FROM sev GROUP BY 1""",
        "orders_per_nation": """
            SELECT n.n_name AS nation_name, count(*) AS n_orders,
                   CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY 1""",
        "orders_per_nation_native": """
            SELECT n.n_name AS nation_name, count(*) AS n_orders,
                   CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY 1""",
        "sessionize_events": """
            WITH g AS (
              SELECT user_id,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                            OVER (PARTITION BY user_id ORDER BY ts, event_id)
                            > 1800000000 THEN 1 ELSE 0 END AS new_session
              FROM events)
            SELECT user_id, CAST(sum(new_session) + 1 AS BIGINT) AS n_sessions
            FROM g GROUP BY user_id""",
        "turn_transitions": f"""
            WITH nxt AS (
              SELECT role,
                     lead(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS next_role
              FROM {_T})
            SELECT role, next_role, count(*) AS n
            FROM nxt WHERE next_role IS NOT NULL GROUP BY 1, 2""",
        "top_users_by_value": """
            SELECT user_id, CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM events GROUP BY user_id
            ORDER BY total_cents DESC, user_id LIMIT 10""",
        "redact_latency": f"""
            SELECT conv_id, turn_idx,
                   '****' AS latency_masked,
                   CAST(1 AS BIGINT) AS masked_count
            FROM {_T}
            WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')""",
        "time_parse": f"""
            SELECT conv_id, turn_idx,
                   strptime(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 1),
                            '%Y-%m-%dT%H:%M:%SZ') AS time
            FROM {_T}
            WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')""",
        "recombine_salted": f"""
            SELECT conv_id,
                   string_agg(coalesce(text, ''), chr(10) ORDER BY turn_idx) AS combined,
                   count(*) AS n_turns, min(ts) AS first_ts, max(ts) AS last_ts
            FROM {_T} GROUP BY conv_id""",
        "interval_counts": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   count(*) AS n
            FROM events GROUP BY 1, 2""",
        "relabel_aggregate": """
            SELECT CASE event_type WHEN 'view' THEN 'page_view'
                        WHEN 'click' THEN 'page_click' ELSE event_type END AS event_type,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM events GROUP BY 1""",
        "red_metrics": f"""
            WITH parsed AS (
              SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool_name,
                     regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 4) AS status,
                     CAST(regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 5) AS BIGINT) AS lat
              FROM {_T}
              WHERE role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}'))
            SELECT tool_name, status, count(*) AS calls,
                   CAST(sum(lat) AS BIGINT) AS total_latency_ms, max(lat) AS max_latency_ms
            FROM parsed GROUP BY 1, 2""",
        "hash_bucket_counts": f"""
            SELECT CAST(md5_number_lower(conv_id) % 16 AS INT) AS bucket,
                   count(*) AS n
            FROM {_T} GROUP BY 1""",
        "ring_route_counts": _ring_oracle_sql(),
        "groupbyattrs_promote": f"""
            SELECT CASE WHEN role = 'tool' AND regexp_matches(text, '{TOOL_LINE_SQL_PAT}')
                        THEN regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) END AS res_tool_name,
                   count(*) AS n_records
            FROM {_T} GROUP BY 1""",
        "tokens_est": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(floor(greatest(
                               len(string_split_regex(trim(text), '\s+')),
                               length(text) / 4.0)) AS BIGINT) END AS n_tokens_est
            FROM documents""",
        "cumulative_to_delta": """
            SELECT event_id, user_id,
                   CAST(CAST(round(value * 100) AS BIGINT)
                        - lag(CAST(round(value * 100) AS BIGINT))
                          OVER (PARTITION BY user_id ORDER BY ts, event_id)
                        AS DOUBLE) AS delta_cents
            FROM events""",
        "delta_to_rate": """
            WITH d AS (
              SELECT event_id, user_id,
                     CAST(round(value * 100) AS BIGINT)
                       - lag(CAST(round(value * 100) AS BIGINT))
                         OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dv,
                     epoch_us(ts) - lag(epoch_us(ts))
                         OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dt_us
              FROM events)
            SELECT event_id, user_id,
                   CASE WHEN dt_us > 0
                        THEN CAST(floor(dv * 1000000.0 / dt_us) AS DOUBLE) END AS rate_micro
            FROM d""",
        "tail_sampling_errors": f"""
            SELECT conv_id, turn_idx FROM {_T}
            WHERE conv_id IN (SELECT DISTINCT conv_id FROM {_T} WHERE {_ERR_SQL})""",
        "tail_sampling_policies": f"""
            SELECT conv_id, turn_idx FROM {_T} WHERE conv_id IN (
              SELECT conv_id FROM {_T} GROUP BY conv_id
              HAVING (epoch_us(max(ts)) - epoch_us(min(ts))) // 1000 >= 300000
                  OR count(*) >= 30
                  OR md5_number_lower(conv_id) % 10000 < 500)""",
        "tail_sampling_and": f"""
            SELECT conv_id, turn_idx FROM {_T} WHERE conv_id IN (
              SELECT conv_id FROM {_T} GROUP BY conv_id
              HAVING max(CASE WHEN role = 'tool'
                          AND try_cast(nullif(regexp_extract(text,
                              '{TOOL_LINE_SQL_PAT}', 5), '') AS BIGINT) >= 2000
                         THEN 1 ELSE 0 END) = 1
                 AND max(CASE WHEN {_ERR_SQL} THEN 1 ELSE 0 END) = 1)""",
        "tail_sampling_rate_limit": f"""
            WITH RECURSIVE
            g AS (SELECT conv_id, count(*) AS n, min(ts) AS min_ts,
                         epoch_us(min(ts)) // 86400000000 AS sec
                  FROM {_T} GROUP BY conv_id),
            o AS (SELECT *, row_number() OVER (PARTITION BY sec
                         ORDER BY min_ts, conv_id) AS rn FROM g),
            -- greedy token-bucket replay, all windows stepped in parallel
            -- (windows are independent: the budget resets each window);
            -- recursion depth = max conversations per window, strict
            -- taken + n < 200 admission
            scan(sec, rn, taken, admitted, conv_id) AS (
              SELECT sec, rn,
                     CASE WHEN n < 200 THEN n ELSE 0 END,
                     n < 200, conv_id
              FROM o WHERE rn = 1
              UNION ALL
              SELECT o.sec, o.rn,
                     CASE WHEN s.taken + o.n < 200
                          THEN s.taken + o.n ELSE s.taken END,
                     s.taken + o.n < 200, o.conv_id
              FROM scan s JOIN o ON o.sec = s.sec AND o.rn = s.rn + 1)
            SELECT t.conv_id, t.turn_idx FROM {_T} t
            WHERE t.conv_id IN (SELECT conv_id FROM scan WHERE admitted)""",
        "tail_sampling_composite": f"""
            WITH RECURSIVE
            g AS (SELECT conv_id, count(*) AS n, min(ts) AS min_ts,
                         epoch_us(min(ts)) // 86400000000 AS sec,
                         max(CASE WHEN {_ERR_SQL} THEN 1 ELSE 0 END) = 1 AS f1,
                         max(CASE WHEN role = 'tool'
                                   AND try_cast(nullif(regexp_extract(text,
                                       '{TOOL_LINE_SQL_PAT}', 5), '')
                                       AS BIGINT) >= 500
                                  THEN 1 ELSE 0 END) = 1 AS f2
                  FROM {_T} GROUP BY conv_id),
            o AS (SELECT *, row_number() OVER (PARTITION BY sec
                         ORDER BY min_ts, conv_id) AS rn FROM g),
            -- composite.go:105-120 greedy replay: first matching
            -- subpolicy only (errors alloc 120, slow alloc 80, total
            -- 200, <= admission); windows independent, stepped in
            -- parallel
            scan(sec, rn, t1, t2, admitted, conv_id) AS (
              SELECT sec, rn,
                     CASE WHEN f1 AND n <= 120 AND n <= 200
                          THEN n ELSE 0 END,
                     CASE WHEN NOT f1 AND f2 AND n <= 80 AND n <= 200
                          THEN n ELSE 0 END,
                     (f1 AND n <= 120 AND n <= 200)
                      OR (NOT f1 AND f2 AND n <= 80 AND n <= 200),
                     conv_id
              FROM o WHERE rn = 1
              UNION ALL
              SELECT o.sec, o.rn,
                     CASE WHEN o.f1 AND s.t1 + o.n <= 120
                               AND s.t1 + o.n <= 200
                          THEN s.t1 + o.n ELSE s.t1 END,
                     CASE WHEN NOT o.f1 AND o.f2 AND s.t2 + o.n <= 80
                               AND s.t2 + o.n <= 200
                          THEN s.t2 + o.n ELSE s.t2 END,
                     (o.f1 AND s.t1 + o.n <= 120 AND s.t1 + o.n <= 200)
                      OR (NOT o.f1 AND o.f2 AND s.t2 + o.n <= 80
                          AND s.t2 + o.n <= 200),
                     o.conv_id
              FROM scan s JOIN o ON o.sec = s.sec AND o.rn = s.rn + 1)
            SELECT t.conv_id, t.turn_idx FROM {_T} t
            WHERE t.conv_id IN (SELECT conv_id FROM scan WHERE admitted)""",
        "attr_hash_extract": f"""
            SELECT sha256(tool) AS tool_sha256, count(*) AS n
            FROM {_T} GROUP BY 1""",
        "replace_pattern": f"""
            SELECT conv_id, turn_idx,
                   regexp_replace(text, 'latency_ms=\\d+', 'latency_ms=REDACTED', 'g') AS text
            FROM {_T}""",
        "match_all_route_counts": f"""
            SELECT 'default' AS sink, count(*) AS n FROM {_T}
              WHERE NOT ({_ERR_SQL} OR coalesce({_SLOW_SQL}, false) OR {_TIMEOUT_SQL})
            UNION ALL SELECT 'errors', count(*) FROM {_T} WHERE {_ERR_SQL}
            UNION ALL SELECT 'slow', count(*) FROM {_T} WHERE coalesce({_SLOW_SQL}, false)
            UNION ALL SELECT 'timeouts', count(*) FROM {_T} WHERE {_TIMEOUT_SQL}""",
        "purchase_before_click": """
            SELECT e.event_id, e.user_id, e.ts, p.ts AS p_ts, p.value AS p_value
            FROM (SELECT * FROM events WHERE event_type = 'click') e
            ASOF JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
              ON e.user_id = p.user_id AND e.ts >= p.ts""",
        "clicks_in_signup_window": """
            SELECT s.event_id AS signup_id, CAST(count(*) AS BIGINT) AS n_clicks
            FROM (SELECT * FROM events WHERE event_type = 'click') c
            JOIN (SELECT * FROM events WHERE event_type = 'signup') s
              ON c.user_id = s.user_id
             AND c.ts >= s.ts AND c.ts <= s.ts + INTERVAL 1 HOUR
            GROUP BY 1""",
        "sliding_window_counts": """
            SELECT event_type,
                   (epoch_us(ts) // 900000000 - r.i) * 900000000 AS window_start,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM events, range(0, 4) r(i)
            GROUP BY 1, 2""",
        "orders_with_lineitems": """
            SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
            FROM orders
            WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem)""",
        "orders_without_lineitems": """
            SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
            FROM orders
            WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)""",
        "top3_events_per_type": """
            SELECT event_id, event_type,
                   CAST(round(value * 100) AS BIGINT) AS cents
            FROM events
            QUALIFY row_number() OVER (PARTITION BY event_type
                ORDER BY cents DESC, event_id) <= 3""",
        "stratified_event_sample": """
            SELECT event_id, event_type FROM events
            QUALIFY row_number() OVER (PARTITION BY event_type
                ORDER BY md5_number_lower(CAST(event_id AS VARCHAR)),
                         event_id) <= 5""",
        "customer_nations": """
            SELECT c.c_custkey, n.n_name
            FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey""",
        "embedding_dim_sums": """
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(sum(CAST(round(CAST(v AS DOUBLE) * 1000) AS BIGINT))
                        AS BIGINT) AS total_milli
            FROM (SELECT unnest(embedding) AS v,
                         generate_subscripts(embedding, 1) AS dim
                  FROM embeddings)
            GROUP BY 1""",
        "doc_training_pipeline": r"""
            WITH kept AS (
              SELECT doc_id, text, source FROM documents
              WHERE lang = 'en' AND n_chars >= 100
              QUALIFY row_number() OVER (PARTITION BY text
                                         ORDER BY doc_id) = 1)
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN trim(text) = '' THEN 0
                            ELSE CAST(floor(greatest(
                                   len(string_split_regex(trim(text), '\s+')),
                                   length(text) / 4.0)) AS BIGINT) END)
                        AS BIGINT) AS tokens_est
            FROM kept GROUP BY 1""",
        "latency_quantiles_by_tool": f"""
            SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS attr_tool_name,
                   quantile_disc(lat, 0.50) AS p50,
                   quantile_disc(lat, 0.95) AS p95,
                   quantile_disc(lat, 0.99) AS p99
            FROM (SELECT text, try_cast(nullif(regexp_extract(text,
                      '{TOOL_LINE_SQL_PAT}', 5), '') AS BIGINT) AS lat
                  FROM {_T} WHERE role = 'tool')
            WHERE lat IS NOT NULL
            GROUP BY 1""",
        # bottom-k-by-hash sample is DETERMINISTIC (md5_number_lower
        # bit-parity with stages/sketch.py _hash64), so the oracle
        # replays the exact sample: k smallest hashes per group, then
        # percentile_disc over the sample.
        "approx_latency_quantiles": f"""
            WITH ranked AS (
              SELECT tool, lat,
                     row_number() OVER (
                       PARTITION BY tool
                       ORDER BY md5_number_lower(rid)) AS rn
              FROM (SELECT regexp_extract(text, '{TOOL_LINE_SQL_PAT}', 3) AS tool,
                           try_cast(nullif(regexp_extract(text,
                               '{TOOL_LINE_SQL_PAT}', 5), '') AS BIGINT) AS lat,
                           conv_id || ':' || CAST(turn_idx AS VARCHAR) AS rid
                    FROM {_T} WHERE role = 'tool')
              WHERE lat IS NOT NULL)
            SELECT tool, quantile_disc(lat, 0.50) AS p50,
                   quantile_disc(lat, 0.95) AS p95,
                   quantile_disc(lat, 0.99) AS p99
            FROM ranked WHERE rn <= 2048
            GROUP BY 1""",
        "doc_mix_sources": """
            WITH w(source, wt) AS (VALUES """ + ", ".join(
            f"('{s}', {w})" for s, w in sorted(MIX_WEIGHTS.items())) + """),
            base AS (
              SELECT d.doc_id, d.source, coalesce(w.wt, 1.0) AS wt
              FROM documents d LEFT JOIN w ON d.source = w.source),
            reps AS (
              SELECT doc_id, source, wt,
                     unnest(range(0, CAST(ceil(wt) AS BIGINT))) AS epoch
              FROM base WHERE wt > 0)
            SELECT doc_id, source, epoch FROM reps
            WHERE epoch < CAST(floor(wt) AS BIGINT)
               OR md5_number_lower(CAST(doc_id AS VARCHAR) || ':' || source
                    || ':' || CAST(epoch AS VARCHAR)) % 10000
                  < CAST(round((wt - floor(wt)) * 10000) AS BIGINT)
            ORDER BY doc_id, epoch""",
        "doc_pii_scrub": pii_sql,
        # exact substring dedup, mark mode: Ray groups 64-bit window
        # hashes, the oracle groups the window strings themselves —
        # equivalent modulo 2^-64 collisions.
        "doc_substring_dups": """
            WITH words AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS w
              FROM documents),
            idx AS (
              SELECT doc_id, w, unnest(range(1, len(w) - 8 + 2)) AS i
              FROM words WHERE len(w) >= 8),
            wins AS (
              SELECT doc_id, i - 1 AS pos,
                     array_to_string(w[i:i+7], ' ') AS win FROM idx)
            SELECT doc_id, pos FROM wins
            WHERE win IN (SELECT win FROM wins
                          GROUP BY win HAVING count(*) >= 2)
            ORDER BY doc_id, pos""",
        # 8-token-gram decontamination: benchmark slice = doc_id < 50.
        # Ray matches on 64-bit gram hashes, the oracle on gram strings —
        # equivalent modulo 2^-64 collisions.
        "doc_decontaminate": _DECONTAM_CTE + """
            SELECT c.doc_id, CAST(count(*) AS BIGINT) AS contam_ngrams
            FROM corpus c JOIN bench b USING (g)
            GROUP BY c.doc_id""",
        # blocking self-join + exact Levenshtein verify.  DuckDB's
        # levenshtein edits UTF-8 BYTES; the stage defaults to the same
        # byte unit.  The qualified-blocks filter mirrors the stage's
        # max_block=256 degenerate-block cap.
        "doc_fuzzy_match_blocked": """
            WITH d AS (
              SELECT doc_id, substr(text, 1, 200) AS s,
                     substr(text, 1, 16) AS blk
              FROM documents WHERE text IS NOT NULL
            ), ok AS (
              SELECT blk FROM d GROUP BY blk
              HAVING count(*) BETWEEN 2 AND 256
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id
            JOIN ok ON ok.blk = a.blk
            WHERE levenshtein(a.s, b.s) <= 20
            ORDER BY id_a, id_b""",
        # exact-int sufficient statistics -> one fixed float op order on
        # both sides (HUGEINT sums in DuckDB, Python ints in the stage)
        "event_value_trend": """
            WITH p AS (
              SELECT event_type,
                     epoch_us(ts) // 86400000000 AS x,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events
            ), s AS (
              SELECT event_type, count(*) AS n,
                     sum(x) AS sx, sum(y) AS sy, sum(x*y) AS sxy,
                     sum(x*x) AS sxx, sum(y*y) AS syy
              FROM p GROUP BY event_type
            )
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                     / nullif(sqrt(CAST(n*sxx - sx*sx AS DOUBLE))
                              * sqrt(CAST(n*syy - sy*sy AS DOUBLE)), 0)
                     AS corr,
                   CAST(n*sxy - sx*sy AS DOUBLE)
                     / nullif(CAST(n*sxx - sx*sx AS DOUBLE), 0) AS slope
            FROM s ORDER BY event_type""",
        # overlap-fraction variant: flag at >= 19/20 of the doc's
        # distinct grams (integer cross-multiplication on both sides)
        "doc_decontaminate_frac": _DECONTAM_CTE + """
            , tot AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS total_ngrams
              FROM corpus GROUP BY doc_id)
            SELECT h.doc_id, h.contam_ngrams, t.total_ngrams,
                   h.contam_ngrams * 20 >= 19 * t.total_ngrams
                     AS contaminated
            FROM (SELECT c.doc_id,
                         CAST(count(*) AS BIGINT) AS contam_ngrams
                  FROM corpus c JOIN bench b USING (g)
                  GROUP BY c.doc_id) h
            JOIN tot t USING (doc_id)
            ORDER BY doc_id""",
        "decontam_bloom_check": _DECONTAM_CTE + """
            , per AS (
              SELECT c.doc_id FROM corpus c JOIN bench b USING (g)
              GROUP BY c.doc_id)
            SELECT count(*) AS exact_flagged,
                   CAST(0 AS BIGINT) AS bloom_missed
            FROM per""",
        "ann_consistency_check": """
            SELECT * FROM (VALUES
              ('ivf', CAST(3 AS BIGINT), CAST(0 AS BIGINT)),
              ('lsh', CAST(3 AS BIGINT), CAST(0 AS BIGINT)),
              ('pq',  CAST(3 AS BIGINT), CAST(0 AS BIGINT)))
              AS t(method, n_queries, n_nonzero_diff)
            ORDER BY method""",
        "video_decode_check": """
            SELECT CAST(12 AS BIGINT) AS n_items,
                   CAST(4 AS BIGINT) AS frames_per_variant,
                   CAST(0 AS BIGINT) AS frame_idx_mismatch,
                   CAST(0 AS BIGINT) AS dib_mismatch,
                   CAST(0 AS BIGINT) AS y4m_mismatch,
                   CAST(0 AS BIGINT) AS mjpg_out_of_tol""",
        "image_decode_check": """
            SELECT CAST(40 AS BIGINT) AS n_payloads,
                   CAST(0 AS BIGINT) AS lossless_mismatch,
                   CAST(0 AS BIGINT) AS jpeg_out_of_tol""",
        "audio_decode_check": """
            SELECT CAST(48 AS BIGINT) AS n_payloads,
                   CAST(0 AS BIGINT) AS pcm_exact_mismatch,
                   CAST(0 AS BIGINT) AS float_out_of_tol,
                   CAST(0 AS BIGINT) AS pcm8_out_of_tol""",
        # fingerprint is a function of text and collision-free on this
        # corpus, so its distinct count equals count(DISTINCT text)
        "fingerprint_check": """
            SELECT count(DISTINCT text) AS distinct_fingerprints
            FROM documents""",
        # connected components replayed as recursive min-reachability:
        # cluster_id(v) = min(u reachable from v) over the symmetric
        # closure of the SAME edge set the Ray side verifies (blocked
        # Levenshtein pairs, identical block/cap/dist parameters).
        "entity_clusters": """
            WITH RECURSIVE
            d AS (
              SELECT doc_id, substr(text, 1, 200) AS s,
                     substr(text, 1, 16) AS blk
              FROM documents WHERE text IS NOT NULL
            ), ok AS (
              SELECT blk FROM d GROUP BY blk
              HAVING count(*) BETWEEN 2 AND 256
            ), e AS (
              SELECT a.doc_id AS u, b.doc_id AS v
              FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id
              JOIN ok ON ok.blk = a.blk
              WHERE levenshtein(a.s, b.s) <= 20
            ), edges AS (
              SELECT u, v FROM e UNION SELECT v AS u, u AS v FROM e
            ), reach(doc_id, r) AS (
              SELECT u, u FROM edges
              UNION
              SELECT reach.doc_id, edges.v
              FROM reach JOIN edges ON reach.r = edges.u
            )
            SELECT doc_id, CAST(min(r) AS BIGINT) AS cluster_id
            FROM reach GROUP BY doc_id ORDER BY doc_id""",
        # grid x series ASOF LEFT JOIN per-(key,ts)-max observations;
        # the generate_series ceiling (100k steps) mirrors nothing on
        # the Ray side — it is just a DuckDB-side upper bound well above
        # any test corpus's hour count.
        "metric_resample": """
            WITH b AS (
              SELECT CAST(floor(epoch_us(min(ts)) / 3600000000) AS BIGINT)
                       * 3600000000 AS t0,
                     epoch_us(max(ts)) AS t1 FROM events
            ), g AS (
              SELECT t0 + 3600000000 * CAST(u.k AS BIGINT) AS us
              FROM b JOIN (SELECT unnest(generate_series(0, 100000)) AS k) u
                ON u.k <= CAST((b.t1 - b.t0) // 3600000000 AS BIGINT)
            ), grid AS (
              SELECT et.event_type, make_timestamp(g.us) AS grid_ts
              FROM (SELECT DISTINCT event_type FROM events) et CROSS JOIN g
            ), obs AS (
              SELECT event_type, ts, max(value) AS v
              FROM events GROUP BY 1, 2
            )
            SELECT grid.event_type AS event_type,
                   grid.grid_ts AS grid_ts, obs.v AS value
            FROM grid ASOF LEFT JOIN obs
              ON grid.event_type = obs.event_type
             AND grid.grid_ts >= obs.ts
            ORDER BY grid.event_type, grid.grid_ts""",
        # CMS never underestimates (structural) and the 8N/w cap holds
        # with 5x margin at this corpus (deterministic hash, fixed data)
        "cms_bound_check": """
            SELECT count(DISTINCT user_id) AS n_keys,
                   CAST(0 AS BIGINT) AS n_underestimates,
                   CAST(0 AS BIGINT) AS n_over_bound
            FROM events""",
        # EM monotonicity + Viterbi detok losslessness + prune target —
        # the bpe_roundtrip_check idiom for the unigram tokenizer
        "unigram_lm_check": """
            SELECT count(*) AS n_docs,
                   CAST(0 AS BIGINT) AS ll_violations,
                   CAST(0 AS BIGINT) AS detok_fails,
                   CAST(1 AS BIGINT) AS vocab_at_target
            FROM documents""",
        # bit-exact CTE replay of the integer PageRank variant:
        # per-edge floor BEFORE the sum makes every term exact
        "pagerank_parts": """
            WITH edges AS (
              SELECT DISTINCT l_suppkey * 2 AS src,
                              l_partkey * 2 + 1 AS dst
              FROM lineitem
            ), deg AS (
              SELECT src, count(*) AS outdeg FROM edges GROUP BY src
            ), nodes AS (
              SELECT DISTINCT src AS node FROM edges
              UNION SELECT DISTINCT dst FROM edges
            ), r0 AS (
              SELECT node, CAST(1000000 AS BIGINT) AS pr FROM nodes
            ), c1 AS (
              SELECT e.dst AS node,
                     sum((r.pr * 17) // (20 * d.outdeg)) AS c
              FROM edges e JOIN r0 r ON r.node = e.src
                           JOIN deg d ON d.src = e.src
              GROUP BY e.dst
            ), r1 AS (
              SELECT n.node, 150000 + coalesce(c.c, 0) AS pr
              FROM nodes n LEFT JOIN c1 c USING (node)
            ), c2 AS (
              SELECT e.dst AS node,
                     sum((r.pr * 17) // (20 * d.outdeg)) AS c
              FROM edges e JOIN r1 r ON r.node = e.src
                           JOIN deg d ON d.src = e.src
              GROUP BY e.dst
            ), r2 AS (
              SELECT n.node, 150000 + coalesce(c.c, 0) AS pr
              FROM nodes n LEFT JOIN c2 c USING (node)
            ), c3 AS (
              SELECT e.dst AS node,
                     sum((r.pr * 17) // (20 * d.outdeg)) AS c
              FROM edges e JOIN r2 r ON r.node = e.src
                           JOIN deg d ON d.src = e.src
              GROUP BY e.dst
            )
            SELECT n.node, CAST(150000 + coalesce(c.c, 0) AS BIGINT) AS pr
            FROM nodes n LEFT JOIN c3 c USING (node)
            ORDER BY n.node""",
        # same degree-ordered orientation as the distributed path, so
        # each triangle is counted exactly once on both sides
        "triangle_parts": """
            WITH pairs AS (
              SELECT l1.l_partkey AS a, l2.l_partkey AS b
              FROM lineitem l1 JOIN lineitem l2
                ON l1.l_orderkey = l2.l_orderkey
               AND l1.l_partkey < l2.l_partkey
            ), und AS (
              SELECT DISTINCT a, b FROM pairs
            ), deg AS (
              SELECT node, count(*) AS deg FROM (
                SELECT a AS node FROM und
                UNION ALL SELECT b AS node FROM und
              ) GROUP BY node
            ), o AS (
              SELECT CASE WHEN da.deg < db.deg
                            OR (da.deg = db.deg AND u.a < u.b)
                          THEN u.a ELSE u.b END AS u,
                     CASE WHEN da.deg < db.deg
                            OR (da.deg = db.deg AND u.a < u.b)
                          THEN u.b ELSE u.a END AS v
              FROM und u JOIN deg da ON da.node = u.a
                         JOIN deg db ON db.node = u.b
            ), od AS (
              SELECT o.u, o.v, d.deg AS degv
              FROM o JOIN deg d ON d.node = o.v
            ), w AS (
              SELECT e1.v AS u, e2.v AS v
              FROM od e1 JOIN od e2 ON e1.u = e2.u
              WHERE e1.degv < e2.degv
                 OR (e1.degv = e2.degv AND e1.v < e2.v)
            )
            SELECT CAST(count(*) AS BIGINT) AS n_triangles
            FROM w WHERE EXISTS (
              SELECT 1 FROM o WHERE o.u = w.u AND o.v = w.v)""",
        # MERGE replay: latest change per key via row_number(), then a
        # left join back onto the snapshot (orders custkeys are a
        # subset of customer, so insert semantics don't fire here —
        # pytest covers them on a hand table)
        "cdc_merge_balances": """
            WITH ch AS (
              SELECT o_custkey AS k, o_totalprice AS bal, o_orderkey AS s,
                     CASE WHEN o_orderstatus = 'F' THEN 'D' ELSE 'U' END
                         AS op
              FROM orders
            ), last AS (
              SELECT k, bal, op,
                     row_number() OVER (PARTITION BY k ORDER BY s DESC)
                         AS rn
              FROM ch
            ), app AS (SELECT k, bal, op FROM last WHERE rn = 1)
            SELECT CAST(c.c_custkey AS BIGINT) AS custkey,
                   CAST(coalesce(a.bal, c.c_acctbal) AS DOUBLE) AS balance
            FROM customer c LEFT JOIN app a ON a.k = c.c_custkey
            WHERE a.op IS NULL OR a.op <> 'D'
            ORDER BY custkey""",
        # min-distance BFS replayed as a bounded recursive CTE over the
        # symmetric (undirected) edge closure, UNION-deduped per level
        "bfs_hops_parts": """
            WITH RECURSIVE e AS (
              SELECT DISTINCT l_suppkey * 2 AS src,
                              l_partkey * 2 + 1 AS dst
              FROM lineitem
              UNION
              SELECT DISTINCT l_partkey * 2 + 1, l_suppkey * 2
              FROM lineitem
            ), bfs(node, dist) AS (
              SELECT * FROM (VALUES (CAST(2 AS BIGINT), CAST(0 AS BIGINT)),
                                    (CAST(4 AS BIGINT), CAST(0 AS BIGINT)),
                                    (CAST(6 AS BIGINT), CAST(0 AS BIGINT)))
              UNION
              SELECT e.dst, bfs.dist + 1
              FROM bfs JOIN e ON e.src = bfs.node
              WHERE bfs.dist < 3
            )
            SELECT node, CAST(min(dist) AS BIGINT) AS dist
            FROM bfs GROUP BY node ORDER BY node""",
        # identical Morton key rebuilt as a 32-term bit expression
        "zorder_layout": """
            WITH d AS (
              SELECT (user_id & 65535) AS x,
                     (CAST(floor(value * 100) AS BIGINT) & 65535) AS y
              FROM events
            ), z AS (
              SELECT x, y, """ + _zorder_expr() + """ AS zkey FROM d)
            SELECT (zkey >> 28) AS zpart,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(min(x) AS BIGINT) AS min_x,
                   CAST(max(x) AS BIGINT) AS max_x,
                   CAST(min(y) AS BIGINT) AS min_y,
                   CAST(max(y) AS BIGINT) AS max_y
            FROM z GROUP BY 1 ORDER BY 1""",
        "audio_stft_check": """
            SELECT CAST(160 AS BIGINT) AS n_items,
                   CAST(160 AS BIGINT) AS n_peak_within_bin,
                   CAST(160 AS BIGINT) AS n_parseval_ok""",
        "qdigest_bound_check": """
            SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(4 AS BIGINT) AS n_quantiles,
                   CAST(0 AS BIGINT) AS n_violations
            FROM events""",
        # inverted index: same tokenization as doc_top_ngrams
        # (regexp_extract_all(lower(text), '[a-z0-9_]+'))
        "inverted_token_stats": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text),
                                               '[a-z0-9_]+')) AS tok
              FROM documents)
            SELECT tok AS token,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
                   CAST(count(*) AS BIGINT) AS tf,
                   CAST(min(doc_id) AS BIGINT) AS min_doc,
                   CAST(max(doc_id) AS BIGINT) AS max_doc
            FROM toks GROUP BY tok
            HAVING count(DISTINCT doc_id) >= 2
            ORDER BY token""",
        # adjacency replayed as positional self-joins over the
        # exploded token table (generate_subscripts = 1-based position)
        "phrase_search_counts": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w,
                     generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text),
                                              '[a-z0-9_]+') AS ws
                    FROM documents)
            ), m2 AS (
              SELECT a.doc_id FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
              WHERE a.w = 'table' AND b.w = 'value'
            ), m3 AS (
              SELECT a.doc_id FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
              JOIN tok c ON c.doc_id = a.doc_id AND c.i = a.i + 2
              WHERE a.w = 'slow' AND b.w = 'hash' AND c.w = 'batch'
            )
            SELECT 'table value' AS phrase,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
                   CAST(count(*) AS BIGINT) AS n_occurrences
            FROM m2
            UNION ALL
            SELECT 'slow hash batch',
                   CAST(count(DISTINCT doc_id) AS BIGINT),
                   CAST(count(*) AS BIGINT)
            FROM m3""",
        "boolean_search_docs": """
            WITH s AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
              FROM documents)
            SELECT CAST(count(*) FILTER (
                     WHERE list_contains(ws, 'spark')
                       AND list_contains(ws, 'vector')) AS BIGINT)
                     AS n_and,
                   CAST(count(*) FILTER (
                     WHERE list_contains(ws, 'spark')
                       AND list_contains(ws, 'vector')
                       AND NOT list_contains(ws, 'slow')) AS BIGINT)
                     AS n_and_not
            FROM s""",
        "bpe_roundtrip_check": """
            SELECT count(*) AS n_docs, CAST(0 AS BIGINT) AS n_detok_fail
            FROM documents""",
        "hll_bound_check": """
            SELECT count(DISTINCT event_type) AS n_groups,
                   count(DISTINCT event_type) AS n_within_bound
            FROM events""",
        "kmeans_opt_check": """
            SELECT count(*) AS n_points, CAST(0 AS BIGINT) AS n_violations
            FROM embeddings""",
        "opq_check": """
            SELECT count(*) AS n_vectors, CAST(0 AS BIGINT) AS n_rot_violations,
                   CAST(1 AS BIGINT) AS mse_improved
            FROM embeddings""",
        # floor(ppm) on both sides with the identical double expression
        # order keeps the integers bit-stable for the value hash.
        "doc_repetition": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                    FROM documents)
            ), big AS (
              SELECT doc_id,
                     w || ' ' || lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) AS g
              FROM tok
              QUALIFY lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) IS NOT NULL
            ), cnts AS (
              SELECT doc_id, g, count(*) AS c FROM big GROUP BY doc_id, g
            )
            SELECT doc_id,
                   CAST(floor((1 - count(*)::DOUBLE / sum(c)) * 1000000) AS BIGINT)
                       AS dup_gram_ppm,
                   CAST(floor(max(c)::DOUBLE / sum(c) * 1000000) AS BIGINT)
                       AS top_gram_ppm
            FROM cnts GROUP BY doc_id""",
        # quality scoring: integer counts via identical RE2 patterns;
        # the float ratios are single IEEE divisions of exact integers —
        # bit-deterministic across numpy and DuckDB.
        "doc_quality": _doc_quality_sql(),
        # language ID: distinct-stopword votes + ordered-CASE argmax
        "doc_language_id": _doc_language_id_sql(),
        # sequence packing: greedy whole-doc fill replayed as a
        # recursive CTE (the rate_limiting oracle idiom); token counts
        # use the tokens_est expression.
        "doc_pack_sequences": r"""
            WITH RECURSIVE t AS (
              SELECT doc_id, source,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(floor(greatest(
                                 len(string_split_regex(trim(text), '\s+')),
                                 length(text) / 4.0)) AS BIGINT) END
                         AS n_tokens_est
              FROM documents),
            seq AS (
              SELECT doc_id, source, n_tokens_est,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY doc_id) AS rn
              FROM t),
            rec AS (
              SELECT source, rn, doc_id, n_tokens_est,
                     CAST(0 AS BIGINT) AS bin_id,
                     n_tokens_est AS fill
              FROM seq WHERE rn = 1
              UNION ALL
              SELECT s.source, s.rn, s.doc_id, s.n_tokens_est,
                     CASE WHEN r.fill + s.n_tokens_est <= 256
                          THEN r.bin_id ELSE r.bin_id + 1 END,
                     CASE WHEN r.fill + s.n_tokens_est <= 256
                          THEN r.fill + s.n_tokens_est
                          ELSE s.n_tokens_est END
              FROM rec r JOIN seq s
                ON s.source = r.source AND s.rn = r.rn + 1)
            SELECT doc_id, source, n_tokens_est, bin_id,
                   fill - n_tokens_est AS bin_offset
            FROM rec ORDER BY doc_id""",
        # URL canonicalization: the identical RE2 chain replayed in
        # DuckDB ('g' = global, matching Arrow's replace-all default).
        "doc_url_normalize": r"""
            WITH s0 AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 2 = 0 THEN 'HTTPS' ELSE 'HTTP' END
                     || '://WWW.Site' || CAST(doc_id % 7 AS VARCHAR) || '.COM'
                     || CASE WHEN doc_id % 3 = 0 THEN ':443'
                             WHEN doc_id % 3 = 1 THEN ':80' ELSE '' END
                     || '/Path' || CAST(doc_id % 5 AS VARCHAR)
                     || CASE WHEN doc_id % 4 = 0 THEN '/' ELSE '' END
                     || '?utm_source=a&id=' || CAST(doc_id AS VARCHAR)
                     || '&utm_campaign=b'
                     || CASE WHEN doc_id % 3 = 0 THEN '#frag' ELSE '' END
                         AS url
              FROM documents),
            c1 AS (SELECT doc_id, regexp_replace(
                     regexp_replace(
                       regexp_replace(
                         regexp_replace(url, '#.*$', '', 'g'),
                         '(utm_[a-z0-9_]*|fbclid|gclid)=[^&#]*&?', '', 'g'),
                       '[?&]$', '', 'g'),
                     '\?&', '?', 'g') AS u FROM s0),
            c2 AS (SELECT doc_id,
                     CASE WHEN regexp_matches(u,
                              '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*')
                          THEN lower(regexp_extract(u,
                              '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*'))
                             || regexp_replace(u,
                              '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*', '')
                          ELSE u END AS u FROM c1),
            c3 AS (SELECT doc_id, regexp_replace(
                     regexp_replace(
                       regexp_replace(u,
                         '^(http://[^/?#:]*):80([/?#]|$)', '\1\2'),
                       '^(https://[^/?#:]*):443([/?#]|$)', '\1\2'),
                     '/$', '') AS u FROM c2)
            SELECT doc_id, u AS url_norm,
                   coalesce(regexp_extract(u,
                       '^[a-z][a-z0-9+.-]*://([^/?#:]*)', 1), '') AS host
            FROM c3 ORDER BY doc_id""",
        # quantized bigram LM: Ray counts 64-bit window hashes, the
        # oracle counts the gram strings — equivalent modulo 2^-64
        # collisions; floor(log2(1+c)) = length(bin(c+1)) - 1 exactly.
        "doc_lm_score": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                    FROM documents)
            ), big AS (
              SELECT doc_id,
                     w || ' ' || lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) AS g
              FROM tok
              QUALIFY lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) IS NOT NULL
            ), cnt AS (
              SELECT g, count(*) AS c FROM big GROUP BY g
              HAVING count(*) >= 2
            ), per AS (
              SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
                     CAST(coalesce(sum(length(bin(coalesce(c.c, 0) + 1)) - 1),
                                   0) AS BIGINT) AS lm_score
              FROM big b LEFT JOIN cnt c USING (g) GROUP BY b.doc_id)
            SELECT d.doc_id,
                   coalesce(per.n_ngrams, 0) AS n_ngrams,
                   coalesce(per.lm_score, 0) AS lm_score
            FROM documents d LEFT JOIN per USING (doc_id)
            ORDER BY d.doc_id""",
        "doc_dsir": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                    FROM documents)
            ), big AS (
              SELECT doc_id,
                     w || ' ' || lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) AS g
              FROM tok
              QUALIFY lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) IS NOT NULL
            ), tcnt AS (
              SELECT g, count(*) AS c FROM big
              WHERE doc_id IN (SELECT doc_id FROM documents
                               WHERE source = 'src0')
              GROUP BY g HAVING count(*) >= 2
            ), rcnt AS (
              SELECT g, count(*) AS c FROM big GROUP BY g
              HAVING count(*) >= 2
            ), per AS (
              SELECT b.doc_id,
                     CAST(coalesce(sum(length(bin(coalesce(t.c, 0) + 1)) - 1),
                                   0) AS BIGINT) AS target_score,
                     CAST(coalesce(sum(length(bin(coalesce(r.c, 0) + 1)) - 1),
                                   0) AS BIGINT) AS raw_score
              FROM big b LEFT JOIN tcnt t USING (g)
                         LEFT JOIN rcnt r USING (g)
              GROUP BY b.doc_id
            ), alldocs AS (
              SELECT d.doc_id,
                     coalesce(per.target_score, 0) AS target_score,
                     coalesce(per.raw_score, 0) AS raw_score
              FROM documents d LEFT JOIN per USING (doc_id))
            SELECT doc_id, target_score, raw_score,
                   target_score - raw_score AS importance
            FROM alldocs
            QUALIFY row_number() OVER (
                ORDER BY target_score - raw_score DESC, doc_id) <= 50
            ORDER BY doc_id""",
        "doc_shuffle": """
            SELECT doc_id, source,
                   CAST(md5_number_lower(concat(CAST(doc_id AS VARCHAR), ':7'))
                        % 4611686018427387904 AS BIGINT) AS shuffle_key
            FROM documents
            ORDER BY shuffle_key, doc_id""",
        "doc_budget_sample": """
            WITH cum AS (
              SELECT doc_id, source, n_chars,
                     sum(n_chars) OVER (
                       PARTITION BY source
                       ORDER BY md5_number_lower(
                           concat(CAST(doc_id AS VARCHAR), ':7'))
                           % 4611686018427387904, doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS running
              FROM documents)
            SELECT doc_id, source, n_chars FROM cum
            WHERE CASE source WHEN 'src0' THEN running <= 2000
                              WHEN 'src1' THEN running <= 3000
                              ELSE TRUE END
            ORDER BY doc_id""",
        "doc_classifier": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '\w+')) AS w
              FROM documents
            ), sc AS (
              SELECT doc_id,
                     CAST(sum(CAST(md5_number_lower(w) % 1024 * 2654435761
                                   % 2001 AS BIGINT) - 1000) AS BIGINT)
                         AS clf_score
              FROM tok GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(sc.clf_score, 0) AS clf_score,
                   coalesce(sc.clf_score, 0) > 0 AS keep
            FROM documents d LEFT JOIN sc USING (doc_id)
            ORDER BY d.doc_id""",
        "doc_new_vs_ref": """
            SELECT n.doc_id FROM documents n
            WHERE n.doc_id >= 250 AND NOT EXISTS (
              SELECT 1 FROM documents r
              WHERE r.doc_id < 250
                AND coalesce(r.text, '') = coalesce(n.text, ''))
            ORDER BY n.doc_id""",
        "doc_block_ids": """
            WITH t AS (SELECT doc_id, n_chars // 4 AS tok FROM documents),
            o AS (SELECT doc_id, tok,
                         CAST(coalesce(sum(tok) OVER (
                             ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0) AS BIGINT) AS "offset"
                  FROM t)
            SELECT doc_id, tok, "offset",
                   "offset" // 512 AS block_id,
                   "offset" % 512 AS block_offset
            FROM o ORDER BY doc_id""",
        "doc_weighted_sample": """
            SELECT doc_id, source, n_chars FROM (
              SELECT doc_id, source, n_chars,
                     ln((md5_number_lower(concat(CAST(doc_id AS VARCHAR),
                          ':13')) % 4611686018427387904 + 1)
                        / 4611686018427387904.0) / n_chars AS es
              FROM documents WHERE n_chars > 0)
            QUALIFY row_number() OVER (PARTITION BY source
                                       ORDER BY es DESC, doc_id) <= 20
            ORDER BY doc_id""",
        "doc_curriculum": """
            WITH q AS (SELECT n_chars, count(*) AS c FROM documents
                       GROUP BY 1),
            cum AS (SELECT n_chars,
                           sum(c) OVER (ORDER BY n_chars) AS cc FROM q),
            t1 AS (SELECT min(n_chars) AS v FROM cum
                   WHERE cc >= (SELECT (count(*) + 3) // 4 FROM documents)),
            t2 AS (SELECT min(n_chars) AS v FROM cum
                   WHERE cc >= (SELECT (2 * count(*) + 3) // 4
                                FROM documents)),
            t3 AS (SELECT min(n_chars) AS v FROM cum
                   WHERE cc >= (SELECT (3 * count(*) + 3) // 4
                                FROM documents))
            SELECT doc_id, n_chars,
                   CASE WHEN n_chars <= (SELECT v FROM t1) THEN 1
                        WHEN n_chars <= (SELECT v FROM t2) THEN 2
                        WHEN n_chars <= (SELECT v FROM t3) THEN 3
                        ELSE 4 END AS band,
                   CAST(md5_number_lower(concat(CAST(doc_id AS VARCHAR),
                        ':11')) % 4611686018427387904 AS BIGINT)
                       AS shuffle_key
            FROM documents
            ORDER BY band, shuffle_key, doc_id""",
        "doc_keywords": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '\w+')) AS w
              FROM documents
            ), tf AS (
              SELECT doc_id, w, CAST(count(*) AS BIGINT) AS tf
              FROM tok GROUP BY 1, 2
            ), df AS (
              SELECT w, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1
            ), s AS (
              SELECT tf.doc_id, tf.w AS token, tf.tf,
                     CAST(tf.tf AS DOUBLE)
                     * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE)
                          / df.df) AS score
              FROM tf JOIN df ON tf.w = df.w)
            SELECT doc_id, token, tf, score, rank FROM (
              SELECT *, CAST(row_number() OVER (
                  PARTITION BY doc_id ORDER BY score DESC, token)
                  AS BIGINT) AS rank
              FROM s)
            WHERE rank <= 3 ORDER BY doc_id, rank""",
        "doc_ccnet_buckets": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                    FROM documents)
            ), big AS (
              SELECT doc_id,
                     w || ' ' || lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) AS g
              FROM tok
              QUALIFY lead(w, 1) OVER (PARTITION BY doc_id ORDER BY i) IS NOT NULL
            ), cnt AS (
              SELECT g, count(*) AS c FROM big GROUP BY g
              HAVING count(*) >= 2
            ), per AS (
              SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
                     CAST(coalesce(sum(length(bin(coalesce(c.c, 0) + 1)) - 1),
                                   0) AS BIGINT) AS lm_score
              FROM big b LEFT JOIN cnt c USING (g) GROUP BY b.doc_id
            ), scored AS (
              SELECT d.doc_id,
                     coalesce(per.lm_score, 0) * 1000
                       // greatest(coalesce(per.n_ngrams, 0), 1) AS score_norm
              FROM documents d LEFT JOIN per USING (doc_id)
            ), q AS (
              SELECT score_norm, count(*) AS c FROM scored GROUP BY 1
            ), cum AS (
              SELECT score_norm,
                     sum(c) OVER (ORDER BY score_norm) AS cc FROM q
            ), t1 AS (SELECT min(score_norm) AS v FROM cum
                      WHERE cc >= (SELECT (count(*) + 2) // 3 FROM scored)),
            t2 AS (SELECT min(score_norm) AS v FROM cum
                   WHERE cc >= (SELECT (2 * count(*) + 2) // 3 FROM scored))
            SELECT doc_id, score_norm,
                   CASE WHEN score_norm <= (SELECT v FROM t1) THEN 'tail'
                        WHEN score_norm <= (SELECT v FROM t2) THEN 'middle'
                        ELSE 'head' END AS bucket
            FROM scored ORDER BY doc_id""",
        "doc_normalize": r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(nfc_normalize(
                       coalesce(text, ''))), '\s+', ' ', 'g')) AS text_norm
            FROM documents ORDER BY doc_id""",
        # replays HtmlExtractor step-for-step on identically planted
        # HTML: drop script/style/comments -> block tags -> ' ' ->
        # strip tags -> entity replace chain (&amp; last) -> collapse
        "doc_html_extract": r"""
            WITH h AS (
              SELECT doc_id,
                     '<html><body><h1>Doc ' || CAST(doc_id AS VARCHAR)
                     || '</h1><p class="b">' || coalesce(text, '')
                     || '</p><a href="https://example.com/d/'
                     || CAST(doc_id AS VARCHAR) || '">link</a>'
                     || CASE WHEN doc_id % 3 = 0 THEN
                          '<script type="text/javascript">var x = 1 < 2; // </p> trap</script>'
                        ELSE '' END
                     || CASE WHEN doc_id % 4 = 0 THEN
                          '<!-- hidden --> &amp;amp; &lt;tag&gt;&nbsp;&#39;q&#39;'
                        ELSE '' END
                     || '</body></html>' AS html
              FROM documents
            ), s AS (
              SELECT doc_id,
                     regexp_replace(html,
                       '(?is)<script\b[^>]*>.*?</script>|<style\b[^>]*>.*?</style>|<!--.*?-->',
                       '', 'g') AS t,
                     CAST(len(regexp_extract_all(html, 'href="[^"]*"'))
                          AS BIGINT) AS n_links
              FROM h
            ), b AS (
              SELECT doc_id,
                     regexp_replace(t,
                       '(?i)</(?:p|div|h[1-6]|li|ul|ol|tr|td|th|table|blockquote|section|article|header|footer|pre|figure|figcaption|nav|aside)>|<br\s*/?>',
                       ' ', 'g') AS t, n_links
              FROM s
            ), g AS (
              SELECT doc_id, regexp_replace(t, '<[^>]*>', '', 'g') AS t,
                     n_links
              FROM b
            ), e AS (
              SELECT doc_id,
                     replace(replace(replace(replace(replace(replace(
                       replace(t, '&lt;', '<'), '&gt;', '>'),
                       '&quot;', '"'), '&#39;', ''''), '&apos;', ''''),
                       '&nbsp;', ' '), '&amp;', '&') AS t, n_links
              FROM g
            )
            SELECT doc_id,
                   trim(regexp_replace(t, '\s+', ' ', 'g'), ' ') AS text,
                   n_links
            FROM e ORDER BY doc_id""",
        "doc_chunks": """
            WITH d AS (
              SELECT doc_id, coalesce(text, '') AS t,
                     length(coalesce(text, '')) AS ln FROM documents
            ), n AS (
              SELECT doc_id, t,
                     CASE WHEN ln <= 180 THEN 1
                          ELSE 1 + (ln - 180 + 149) // 150 END AS nc
              FROM d)
            , e AS (
              SELECT doc_id, t, nc,
                     unnest(generate_series(0, nc - 1)) AS k FROM n)
            SELECT doc_id, k AS chunk_idx,
                   substr(t, CAST(k * 150 + 1 AS BIGINT), 180) AS chunk_text,
                   nc AS n_chunks
            FROM e
            ORDER BY doc_id, chunk_idx""",
        "funnel_stages": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            s1 AS (SELECT user_id, min(ts) AS t1 FROM events
                   WHERE event_type = 'signup' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
                   JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t1
                   WHERE e.event_type = 'click' GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
                   JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t2
                   WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT u.user_id, t1 AS ts_signup, t2 AS ts_click,
                   t3 AS ts_purchase,
                   CAST(t1 IS NOT NULL AS BIGINT)
                   + CAST(t2 IS NOT NULL AS BIGINT)
                   + CAST(t3 IS NOT NULL AS BIGINT) AS reached
            FROM u LEFT JOIN s1 USING (user_id)
                   LEFT JOIN s2 USING (user_id)
                   LEFT JOIN s3 USING (user_id)
            ORDER BY u.user_id""",
        "conversion_latency": """
            WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
                   JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t1
                   WHERE e.event_type = 'click' GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
                   JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t2
                   WHERE e.event_type = 'purchase' GROUP BY e.user_id),
            d AS (SELECT epoch_us(t3) - epoch_us(t1) AS delta_us
                  FROM s1 JOIN s3 USING (user_id))
            SELECT CAST(count(*) AS BIGINT) AS n_converted,
                   CAST(quantile_disc(delta_us, 0.5) AS BIGINT) AS p50_us,
                   CAST(quantile_disc(delta_us, 0.95) AS BIGINT) AS p95_us
            FROM d""",
        "retention_weekly": """
            WITH fc AS (SELECT user_id,
                               epoch_us(min(ts)) // 604800000000 AS cw
                        FROM events GROUP BY user_id),
            act AS (SELECT DISTINCT e.user_id, fc.cw,
                           epoch_us(e.ts) // 604800000000 - fc.cw AS wo
                    FROM events e JOIN fc USING (user_id))
            SELECT cw AS cohort_period, wo AS period_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM act GROUP BY 1, 2
            ORDER BY 1, 2""",
        # C4 line filter: identical planted lines + identical RE2
        # predicates evaluated via DuckDB list lambdas.
        "doc_c4_line_filter": r"""
            WITH s0 AS """ + _lines_plant_sql() + r"""
            SELECT doc_id,
                   array_to_string(list_filter(string_split(t, chr(10)),
                       x -> len(regexp_extract_all(x, '\S+')) >= 3
                            AND regexp_matches(x, '[.!?"]$')
                            AND NOT regexp_matches(x,
                                '(?i)javascript|lorem ipsum|\{')),
                       chr(10)) AS text,
                   CAST(len(string_split(t, chr(10))) AS BIGINT) AS n_lines,
                   CAST(len(list_filter(string_split(t, chr(10)),
                       x -> len(regexp_extract_all(x, '\S+')) >= 3
                            AND regexp_matches(x, '[.!?"]$')
                            AND NOT regexp_matches(x,
                                '(?i)javascript|lorem ipsum|\{')))
                       AS BIGINT) AS n_lines_kept
            FROM s0 ORDER BY doc_id""",
        # C4 doc gates: pure integer arithmetic on both sides (mean word
        # length as min*words <= nonspace <= max*words).
        "doc_c4_gate": r"""
            WITH s0 AS """ + _lines_plant_sql() + r""",
            m AS (
              SELECT doc_id, t,
                     CAST(len(regexp_extract_all(t, '\S+')) AS BIGINT)
                         AS n_words,
                     CAST(len(regexp_extract_all(t, '[.!?]')) AS BIGINT)
                         AS n_sentences,
                     CAST(length(t)
                          - len(regexp_extract_all(t, '\s')) AS BIGINT)
                         AS nonspace
              FROM s0)
            SELECT doc_id, t AS text, n_words, n_sentences,
                   (n_words >= 5 AND n_words <= 100000
                    AND nonspace >= 2 * n_words
                    AND nonspace <= 12 * n_words
                    AND n_sentences >= 1
                    AND NOT regexp_matches(t, '(?i)lorem ipsum|\{'))
                       AS keep
            FROM m ORDER BY doc_id""",
        # corpus 3-gram heavy hitters: same lead()-window gram build as
        # the decontamination CTE, count (not distinct), top-20 with the
        # count-desc/gram-asc tiebreak replayed on both sides.
        "doc_top_ngrams": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ws
                    FROM documents)
            ), ng AS (
              SELECT w || ' ' || lead(w, 1) OVER win
                       || ' ' || lead(w, 2) OVER win AS g
              FROM tok
              WINDOW win AS (PARTITION BY doc_id ORDER BY i)
              QUALIFY lead(w, 2) OVER win IS NOT NULL
            )
            SELECT g AS gram, CAST(count(*) AS BIGINT) AS n_occurrences
            FROM ng GROUP BY g HAVING count(*) >= 2
            ORDER BY n_occurrences DESC, gram ASC LIMIT 20""",
        # Gopher document gates: every ratio rule replayed as the same
        # integer cross-multiplication; stopword hits as 8 regex CASEs.
        "doc_gopher_gate": r"""
            WITH s0 AS """ + _gopher_plant_sql() + r""",
            m AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(t, '\S+')) AS BIGINT)
                         AS n_words,
                     CAST(length(t)
                          - len(regexp_extract_all(t, '\s')) AS BIGINT)
                         AS nonspace,
                     CAST(len(regexp_extract_all(t, '#'))
                          + len(regexp_extract_all(t, '\.\.\.')) AS BIGINT)
                         AS n_sym,
                     CAST(len(string_split(t, chr(10))) AS BIGINT)
                         AS n_lines,
                     CAST(len(regexp_extract_all(t, '(?m)^[-*•] '))
                         AS BIGINT) AS n_bullet,
                     CAST(len(regexp_extract_all(t, '(?m)(?:\.\.\.|…)$'))
                         AS BIGINT) AS n_ell,
                     CAST(len(list_filter(regexp_extract_all(t, '\S+'),
                              x -> regexp_matches(x, '[A-Za-z]')))
                         AS BIGINT) AS n_alpha,
                     CAST((CASE WHEN regexp_matches(t, '(?i)\bthe\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\bbe\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\bto\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\bof\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\band\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\bthat\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\bhave\b')
                                THEN 1 ELSE 0 END)
                        + (CASE WHEN regexp_matches(t, '(?i)\bwith\b')
                                THEN 1 ELSE 0 END) AS BIGINT) AS n_stop
              FROM s0)
            SELECT doc_id, n_words, n_lines, n_alpha AS n_alpha_words,
                   n_stop AS n_stop_hits,
                   (n_words >= 5 AND n_words <= 100000
                    AND nonspace >= 3 * n_words
                    AND nonspace <= 10 * n_words
                    AND 10 * n_sym <= n_words
                    AND 10 * n_bullet <= 9 * n_lines
                    AND 10 * n_ell <= 3 * n_lines
                    AND 5 * n_alpha >= 4 * n_words
                    AND n_stop >= 1) AS keep
            FROM m ORDER BY doc_id""",
        # corpus-wide line dedup: Ray dedups 64-bit line hashes, the
        # oracle ranks the line strings themselves — equivalent modulo
        # 2^-64 collisions.  Empty lines are exempt on both sides.
        "doc_line_dedup": """
            WITH s0 AS """ + _lines_plant_sql() + """,
            l AS (SELECT doc_id, string_split(t, chr(10)) AS ls FROM s0),
            lines AS (
              SELECT doc_id, unnest(ls) AS ln,
                     generate_subscripts(ls, 1) - 1 AS idx FROM l),
            ranked AS (
              SELECT doc_id, idx, ln,
                     (ln = '' OR row_number() OVER
                        (PARTITION BY ln ORDER BY doc_id, idx) = 1) AS keep
              FROM lines),
            kept AS (SELECT doc_id, idx, ln FROM ranked WHERE keep),
            agg AS (
              SELECT doc_id,
                     string_agg(ln, chr(10) ORDER BY idx) AS text,
                     CAST(count(*) AS BIGINT) AS n_lines_kept
              FROM kept GROUP BY doc_id)
            SELECT s0.doc_id, coalesce(agg.text, '') AS text,
                   coalesce(agg.n_lines_kept, 0) AS n_lines_kept
            FROM s0 LEFT JOIN agg USING (doc_id) ORDER BY s0.doc_id""",
        "doc_token_df": r"""
            SELECT token, CAST(count(*) AS BIGINT) AS df
            FROM (SELECT DISTINCT doc_id,
                         unnest(regexp_extract_all(lower(text), '\w+')) AS token
                  FROM documents)
            GROUP BY token HAVING count(*) >= 5""",
        # BM25 (Lucene variant): every float derives from exact int64
        # counts through the SAME op order as stages/relevance.py, so
        # scores match bitwise (ln is libm on both sides).
        "doc_bm25": r"""
            WITH d AS (
              SELECT doc_id, lower(coalesce(text, '')) AS lt FROM documents),
            t AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(lt, '\w+')) AS BIGINT) AS dl,
                     CAST(len(regexp_extract_all(lt, '\bspark\b')) AS BIGINT) AS tf0,
                     CAST(len(regexp_extract_all(lt, '\bvector\b')) AS BIGINT) AS tf1,
                     CAST(len(regexp_extract_all(lt, '\bstream\b')) AS BIGINT) AS tf2
              FROM d),
            s AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(dl) AS BIGINT) AS sdl,
                     CAST(sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df0,
                     CAST(sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df1,
                     CAST(sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df2
              FROM t),
            c AS (
              SELECT CAST(sdl AS DOUBLE) / CAST(n AS DOUBLE) AS avgdl,
                     ln(1.0 + (CAST(n - df0 AS DOUBLE) + 0.5) / (CAST(df0 AS DOUBLE) + 0.5)) AS idf0,
                     ln(1.0 + (CAST(n - df1 AS DOUBLE) + 0.5) / (CAST(df1 AS DOUBLE) + 0.5)) AS idf1,
                     ln(1.0 + (CAST(n - df2 AS DOUBLE) + 0.5) / (CAST(df2 AS DOUBLE) + 0.5)) AS idf2
              FROM s),
            norm AS (
              SELECT t.doc_id,
                     CAST(t.tf0 AS DOUBLE) AS f0, CAST(t.tf1 AS DOUBLE) AS f1,
                     CAST(t.tf2 AS DOUBLE) AS f2,
                     1.2 * ((1.0 - 0.75) + 0.75 * (CAST(t.dl AS DOUBLE) / c.avgdl)) AS nrm,
                     c.idf0, c.idf1, c.idf2
              FROM t, c)
            SELECT doc_id,
                   idf0 * (f0 * (1.2 + 1.0)) / (f0 + nrm)
                 + idf1 * (f1 * (1.2 + 1.0)) / (f1 + nrm)
                 + idf2 * (f2 * (1.2 + 1.0)) / (f2 + nrm) AS score
            FROM norm ORDER BY doc_id""",
        # assignment replay: list_distance over DOUBLE[] (sqrt is
        # monotonic, so argmin equals the squared-distance argmin);
        # ties break toward the lowest centroid id on both sides.
        "semdedup": """
            WITH corpus AS (
              SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
              FROM embeddings
              UNION ALL
              SELECT vec_id + 100000, CAST(embedding AS DOUBLE[])
              FROM embeddings WHERE vec_id % 5 = 0),
            seeds AS (
              SELECT vec_id AS cid, e AS ce FROM corpus WHERE vec_id < 8),
            d AS (
              SELECT c.vec_id, c.e, s.cid, list_distance(c.e, s.ce) AS dist
              FROM corpus c CROSS JOIN seeds s),
            a AS (
              SELECT vec_id, e, cid,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY dist, cid) AS rn
              FROM d),
            asg AS (SELECT vec_id, e, cid AS cluster_id FROM a WHERE rn = 1)
            SELECT x.vec_id, x.cluster_id,
                   NOT EXISTS (
                     SELECT 1 FROM asg y
                     WHERE y.cluster_id = x.cluster_id
                       AND y.vec_id < x.vec_id
                       AND list_cosine_similarity(x.e, y.e) >= 0.9) AS keep
            FROM asg x ORDER BY x.vec_id""",
        "kmeans_assign": """
            WITH seeds AS (
              SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS ce
              FROM embeddings WHERE vec_id < 8),
            d AS (
              SELECT e.vec_id, s.cid,
                     list_distance(CAST(e.embedding AS DOUBLE[]), s.ce) AS dist
              FROM embeddings e CROSS JOIN seeds s),
            a AS (
              SELECT vec_id, cid,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY dist, cid) AS rn
              FROM d)
            SELECT cid AS cluster_id, CAST(count(*) AS BIGINT) AS n
            FROM a WHERE rn = 1 GROUP BY 1""",
        "doc_length_filter": """
            SELECT doc_id, n_chars FROM documents
            WHERE n_chars <= (SELECT quantile_disc(n_chars, 0.95)
                              FROM documents)
            ORDER BY doc_id""",
        "doc_zscore": """
            WITH st AS (
              SELECT source, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(n_chars) AS BIGINT) AS s,
                     CAST(sum(n_chars * n_chars) AS BIGINT) AS ss
              FROM documents GROUP BY source),
            c AS (
              SELECT source,
                     CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
                     CAST(ss AS DOUBLE) / CAST(n AS DOUBLE)
                       - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                         * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) AS var
              FROM st)
            SELECT d.doc_id,
                   CASE WHEN c.var > 0
                        THEN (CAST(d.n_chars AS DOUBLE) - c.mean) / sqrt(c.var)
                        ELSE 0.0 END AS z
            FROM documents d JOIN c USING (source) ORDER BY doc_id""",
        "rollup_event_counts": """
            WITH e AS (SELECT event_type,
                              CAST(extract(hour FROM ts) AS BIGINT) AS hour
                       FROM events)
            SELECT coalesce(event_type, 'ALL') AS event_type,
                   coalesce(hour, -1) AS hour,
                   CAST(count(*) AS BIGINT) AS n
            FROM e GROUP BY ROLLUP(event_type, hour)""",
        "pivot_event_counts": """
            SELECT CAST(extract(hour FROM ts) AS BIGINT) AS hour,
                   CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
                   CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
                   CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
                   CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
                   CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
            FROM events GROUP BY 1""",
        "role_pmi": f"""
            WITH nxt AS (
              SELECT role,
                     lead(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS next_role
              FROM {_T}),
            p AS (
              SELECT role, next_role, CAST(count(*) AS BIGINT) AS n
              FROM nxt WHERE next_role IS NOT NULL GROUP BY 1, 2),
            m AS (
              SELECT role, next_role, n,
                     CAST(sum(n) OVER (PARTITION BY role) AS BIGINT) AS na,
                     CAST(sum(n) OVER (PARTITION BY next_role) AS BIGINT) AS nb,
                     CAST(sum(n) OVER () AS BIGINT) AS total
              FROM p)
            SELECT role, next_role, n,
                   ln((CAST(n AS DOUBLE) * CAST(total AS DOUBLE))
                      / (CAST(na AS DOUBLE) * CAST(nb AS DOUBLE))) AS pmi
            FROM m ORDER BY role, next_role""",
        "distinct_users_by_type": """
            SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1""",
        "tpch_q3": f"""
            WITH l AS (
              SELECT l_orderkey,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev
              FROM lineitem WHERE l_shipdate > TIMESTAMP '{_Q3_CUT}'),
            o AS (
              SELECT o_orderkey, o_orderdate
              FROM orders JOIN customer ON c_custkey = o_custkey
              WHERE c_mktsegment = 'BUILDING'
                AND o_orderdate < TIMESTAMP '{_Q3_CUT}')
            SELECT l.l_orderkey, o.o_orderdate,
                   CAST(sum(l.rev) AS BIGINT) AS revenue
            FROM l JOIN o ON l.l_orderkey = o.o_orderkey
            GROUP BY 1, 2 ORDER BY revenue DESC, l_orderkey LIMIT 10""",
        "event_value_quartiles": """
            SELECT event_id, event_type,
                   CAST(ntile(4) OVER (PARTITION BY event_type
                                       ORDER BY value, event_id) AS BIGINT)
                       AS tile
            FROM events ORDER BY event_id""",
        "users_view_not_purchase": """
            SELECT user_id, CAST(extract(hour FROM ts) AS BIGINT) AS hour
            FROM events WHERE event_type = 'view'
            EXCEPT
            SELECT user_id, CAST(extract(hour FROM ts) AS BIGINT)
            FROM events WHERE event_type = 'purchase'
            ORDER BY user_id, hour""",
        "users_signup_and_purchase": """
            SELECT user_id, CAST(extract(hour FROM ts) AS BIGINT) AS hour
            FROM events WHERE event_type = 'signup'
            INTERSECT
            SELECT user_id, CAST(extract(hour FROM ts) AS BIGINT)
            FROM events WHERE event_type = 'purchase'
            ORDER BY user_id, hour""",
        "event_windows": """
            WITH e AS (SELECT event_id, ts, user_id, value,
                              CAST(floor(value * 100) AS BIGINT) AS iv
                       FROM events)
            SELECT event_id, user_id,
                   CAST(row_number() OVER w AS BIGINT) AS rn,
                   lag(value, 1) OVER w AS prev_value,
                   lead(value, 1) OVER w AS next_value,
                   CAST(sum(iv) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id
                                      ROWS BETWEEN 2 PRECEDING
                                      AND CURRENT ROW) AS BIGINT) AS msum3,
                   CAST(sum(iv) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW) AS BIGINT) AS rsum,
                   CAST(first_value(iv) OVER w AS BIGINT) AS first_iv
            FROM e
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ORDER BY event_id""",
        "event_rank_windows": """
            SELECT event_id, user_id, event_type,
                   CAST(rank() OVER w AS BIGINT) AS rnk,
                   CAST(dense_rank() OVER w AS BIGINT) AS drnk,
                   percent_rank() OVER w AS prank,
                   cume_dist() OVER w AS cdist
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY event_type)
            ORDER BY event_id""",
        "event_trailing": """
            WITH e AS (SELECT event_id, ts, user_id,
                              CAST(floor(value * 100) AS BIGINT) AS iv
                       FROM events)
            SELECT a.event_id, a.user_id,
                   CAST(sum(b.iv) AS BIGINT) AS tsum,
                   count(*) AS tcnt,
                   CAST(CAST(sum(b.iv) AS BIGINT) AS DOUBLE) / count(*)
                       AS tavg
            FROM e a JOIN e b ON a.user_id = b.user_id
              AND b.ts >= a.ts - INTERVAL 24 HOURS AND b.ts <= a.ts
              AND (b.ts < a.ts OR b.event_id <= a.event_id)
            GROUP BY a.event_id, a.user_id
            ORDER BY a.event_id""",
        "tpch_q1": f"""
            WITH l AS (
              SELECT l_returnflag, l_linestatus,
                     CAST(l_quantity AS BIGINT) AS qty,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
                     CAST(round(l_discount * 100) AS BIGINT) AS disc,
                     CAST(round(l_tax * 100) AS BIGINT) AS tax
              FROM lineitem WHERE l_shipdate <= TIMESTAMP '{_Q1_CUT}')
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(qty) AS BIGINT) AS sum_qty,
                   CAST(sum(cents) AS BIGINT) AS sum_base_cents,
                   CAST(sum(cents * (100 - disc)) AS BIGINT)
                       AS sum_disc_price,
                   CAST(sum(cents * (100 - disc) * (100 + tax)) AS BIGINT)
                       AS sum_charge,
                   CAST(sum(disc) AS BIGINT) AS sum_disc,
                   count(*) AS n,
                   CAST(sum(qty) AS BIGINT) / count(*) AS avg_qty,
                   CAST(sum(cents) AS BIGINT) / count(*) AS avg_cents,
                   CAST(sum(disc) AS BIGINT) / count(*) AS avg_disc
            FROM l GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus""",
        "tpch_q5": f"""
            WITH l AS (
              SELECT l_orderkey, l_suppkey,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev
              FROM lineitem)
            SELECT n_name, CAST(sum(rev) AS BIGINT) AS revenue
            FROM customer, orders, l, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= TIMESTAMP '{_Q5_LO}'
              AND o_orderdate < TIMESTAMP '{_Q5_HI}'
            GROUP BY n_name
            ORDER BY revenue DESC, n_name""",
        "tpch_q10": f"""
            WITH rev AS (
              SELECT o_custkey,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(round(l_discount * 100)
                                             AS BIGINT))) AS BIGINT)
                         AS revenue
              FROM orders JOIN lineitem ON l_orderkey = o_orderkey
              WHERE o_orderdate >= TIMESTAMP '{_Q10_LO}'
                AND o_orderdate < TIMESTAMP '{_Q10_HI}'
                AND l_returnflag = 'R'
              GROUP BY o_custkey)
            SELECT c_custkey, c_name, revenue
            FROM rev JOIN customer ON c_custkey = o_custkey
            ORDER BY revenue DESC, c_custkey LIMIT 20""",
        "skewed_type_join": """
            SELECT event_id, e.event_type, t.type_total
            FROM events e JOIN (SELECT event_type, count(*) AS type_total
                                FROM events GROUP BY event_type) t
              ON e.event_type = t.event_type
            ORDER BY event_id""",
        "sample_otep235": _otep235_sql(),
        "tpch_q14": f"""
            WITH l AS (
              SELECT l_partkey,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '{_Q14_LO}'
                AND l_shipdate < TIMESTAMP '{_Q14_HI}'),
            s AS (SELECT
                CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END)
                     AS BIGINT) AS pr,
                CAST(sum(rev) AS BIGINT) AS tr
              FROM l JOIN part ON p_partkey = l_partkey)
            SELECT CAST(100 * pr AS BIGINT) / tr AS promo_share_pct FROM s""",
        "tpch_q18": f"""
            WITH big AS (
              SELECT l_orderkey,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)
                         AS total_qty
              FROM lineitem GROUP BY l_orderkey
              HAVING sum(CAST(l_quantity AS BIGINT)) > {_Q18_QTY})
            SELECT c_custkey, c_name, o_orderkey, o_orderdate, total_qty
            FROM big
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON c_custkey = o_custkey
            ORDER BY total_qty DESC, o_orderkey""",
        "doc_validate": """
            SELECT * FROM (
              SELECT 'not_null_text' AS rule,
                     CAST(count(*) FILTER (text IS NULL) AS BIGINT)
                         AS n_violations FROM documents
              UNION ALL
              SELECT 'in_range_n_chars',
                     CAST(count(*) FILTER (n_chars < 10 OR n_chars > 5000)
                          AS BIGINT) FROM documents
              UNION ALL
              SELECT 'in_set_lang',
                     CAST(count(*) FILTER (lang IS NOT NULL AND lang NOT IN
                          ('en','de','fr','es')) AS BIGINT) FROM documents
              UNION ALL
              SELECT 'matches_text',
                     CAST(count(*) FILTER (text IS NOT NULL AND NOT
                          regexp_matches(text, '\\.')) AS BIGINT)
                     FROM documents
              UNION ALL
              SELECT 'unique_doc_id',
                     CAST(count(*) - count(DISTINCT doc_id) AS BIGINT)
                     FROM documents)
            ORDER BY rule""",
        "conversation_features": f"""
            SELECT conv_id,
                   count(*) AS n_turns,
                   CAST(sum(CASE WHEN role = 'tool' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_tool_turns,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
                       AS duration_us
            FROM {_T} GROUP BY conv_id ORDER BY conv_id""",
        "doc_split": _doc_split_sql(),
        "bloom_join_revenue": """
            SELECT l_returnflag,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS revenue,
                   count(*) AS n_items
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
            GROUP BY 1 ORDER BY 1""",
        "attribution_last_touch": """
            WITH conv AS (
              SELECT event_id AS conv_id, user_id, ts AS conv_ts
              FROM events WHERE event_type = 'purchase'),
            t AS (
              SELECT event_id AS touch_id, user_id,
                     event_type AS touch_type, ts AS touch_ts
              FROM events WHERE event_type IN ('view', 'click', 'signup'))
            SELECT c.conv_id, c.user_id, t.touch_id, t.touch_type
            FROM conv c LEFT JOIN t
              ON t.user_id = c.user_id
             AND t.touch_ts < c.conv_ts
             AND t.touch_ts >= c.conv_ts - INTERVAL 7 DAY
            QUALIFY row_number() OVER (
              PARTITION BY c.conv_id
              ORDER BY t.touch_ts DESC, t.touch_id DESC) = 1
            ORDER BY c.conv_id""",
        "attribution_first_touch": """
            WITH conv AS (
              SELECT event_id AS conv_id, user_id, ts AS conv_ts
              FROM events WHERE event_type = 'purchase'),
            t AS (
              SELECT event_id AS touch_id, user_id,
                     event_type AS touch_type, ts AS touch_ts
              FROM events WHERE event_type IN ('view', 'click', 'signup'))
            SELECT c.conv_id, c.user_id, t.touch_id, t.touch_type
            FROM conv c LEFT JOIN t
              ON t.user_id = c.user_id
             AND t.touch_ts < c.conv_ts
             AND t.touch_ts >= c.conv_ts - INTERVAL 7 DAY
            QUALIFY row_number() OVER (
              PARTITION BY c.conv_id
              ORDER BY t.touch_ts ASC, t.touch_id ASC) = 1
            ORDER BY c.conv_id""",
        "ewma_anomaly_events": _ewma_sql(),
        "theta_sketch_check": """
            WITH e AS (
              SELECT user_id * 1000000
                     + (epoch_us(ts) // 60000000) % 1440 AS k,
                     event_type
              FROM events),
                 v AS (SELECT DISTINCT k FROM e
                       WHERE event_type = 'view'),
                 p AS (SELECT DISTINCT k FROM e
                       WHERE event_type = 'purchase')
            SELECT * FROM (
              SELECT 'intersection' AS measure,
                     (SELECT count(*) FROM (SELECT * FROM v
                        INTERSECT SELECT * FROM p)) AS exact_count,
                     CAST(1 AS BIGINT) AS within_bound
              UNION ALL
              SELECT 'purchase', (SELECT count(*) FROM p), 1
              UNION ALL
              SELECT 'union', (SELECT count(*) FROM (SELECT * FROM v
                        UNION SELECT * FROM p)), 1
              UNION ALL
              SELECT 'view', (SELECT count(*) FROM v), 1)
            ORDER BY measure""",
        "log_templates": _log_templates_sql(),
        "alert_hysteresis_events": """
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CAST(round(value * 100) AS BIGINT) AS c
              FROM events),
            m AS (
              SELECT event_id, user_id, ts,
                     CASE WHEN c >= 10000 THEN 1
                          WHEN c <= 2000 THEN -1 END AS mk
              FROM e),
            s AS (
              SELECT event_id, user_id, ts,
                     CAST(coalesce(last_value(mk IGNORE NULLS) OVER w, -1)
                          AS BIGINT) AS alert_state
              FROM m
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND CURRENT ROW)),
            f AS (
              SELECT event_id, alert_state,
                     coalesce(lag(alert_state) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id), -1)
                     AS prev
              FROM s)
            SELECT event_id, alert_state,
                   CAST(CASE WHEN alert_state = 1 AND prev = -1
                             THEN 1 ELSE 0 END AS BIGINT) AS alert_fired
            FROM f ORDER BY event_id""",
        "cusum_change_events": """
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CAST(round(value * 100) AS BIGINT) - 6000 AS d
              FROM events),
            p AS (
              SELECT event_id, user_id, ts,
                     CAST(sum(d) OVER w AS BIGINT) AS pf
              FROM e
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND CURRENT ROW)),
            s AS (
              SELECT event_id,
                     pf - least(0, min(pf) OVER w) AS cusum
              FROM p
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND CURRENT ROW))
            SELECT event_id, CAST(cusum AS BIGINT) AS cusum,
                   CAST(CASE WHEN cusum > 20000 THEN 1 ELSE 0 END
                        AS BIGINT) AS is_change
            FROM s ORDER BY event_id""",
        "table_diff_orders": """
            WITH b AS (
              SELECT o_orderkey AS k,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS c,
                     o_orderstatus AS s
              FROM orders),
            a AS (
              SELECT k, CASE WHEN k % 5 = 0 THEN c + 100 ELSE c END AS c,
                     s
              FROM b WHERE k % 7 <> 0
              UNION ALL
              SELECT k + 10000000, c, s FROM b WHERE k % 13 = 0)
            SELECT coalesce(b.k, a.k) AS k,
                   CASE WHEN b.k IS NULL THEN 'added'
                        WHEN a.k IS NULL THEN 'removed'
                        WHEN b.c IS DISTINCT FROM a.c
                             OR b.s IS DISTINCT FROM a.s THEN 'changed'
                        ELSE 'same' END AS status,
                   CAST(CASE WHEN b.k IS NOT NULL AND a.k IS NOT NULL
                              AND b.c IS DISTINCT FROM a.c
                             THEN 1 ELSE 0 END AS BIGINT) AS chg_c,
                   CAST(CASE WHEN b.k IS NOT NULL AND a.k IS NOT NULL
                              AND b.s IS DISTINCT FROM a.s
                             THEN 1 ELSE 0 END AS BIGINT) AS chg_s
            FROM b FULL OUTER JOIN a ON b.k = a.k
            ORDER BY k""",
        "scd2_customer_history": """
            WITH ch AS (
              SELECT o_custkey, o_orderkey AS seq,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS bal,
                     CASE WHEN o_orderkey % 11 = 0 THEN 'D' ELSE 'U' END
                       AS op
              FROM orders),
            v AS (
              SELECT *, lead(seq) OVER (PARTITION BY o_custkey
                                        ORDER BY seq) AS valid_to
              FROM ch)
            SELECT o_custkey, bal, seq AS valid_from, valid_to,
                   CAST(CASE WHEN valid_to IS NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS is_current
            FROM v WHERE op = 'U'
            ORDER BY o_custkey, valid_from""",
        "profile_events": _profile_events_sql(),
        "global_sort_events": """
            SELECT event_id,
                   CAST(round(value * 100) AS BIGINT) AS cents,
                   CAST(row_number() OVER (
                        ORDER BY CAST(round(value * 100) AS BIGINT),
                                 event_id) - 1 AS BIGINT) AS rank
            FROM events ORDER BY event_id""",
        # build ip -> dotted string -> RE-PARSE with split_part -> LPM
        # join (longest prefix wins) — the string parse is exercised on
        # both sides
        "cidr_route_counts": """
            WITH ip0 AS (
              SELECT row_number() OVER () AS rid,
                     ((user_id * 2654435761) % 4294967296) AS ipn
              FROM events
            ), s AS (
              SELECT rid,
                     CAST(ipn // 16777216 AS VARCHAR) || '.' ||
                     CAST((ipn // 65536) % 256 AS VARCHAR) || '.' ||
                     CAST((ipn // 256) % 256 AS VARCHAR) || '.' ||
                     CAST(ipn % 256 AS VARCHAR) AS ip
              FROM ip0
            ), p AS (
              SELECT rid,
                     CAST(split_part(ip, '.', 1) AS BIGINT) * 16777216 +
                     CAST(split_part(ip, '.', 2) AS BIGINT) * 65536 +
                     CAST(split_part(ip, '.', 3) AS BIGINT) * 256 +
                     CAST(split_part(ip, '.', 4) AS BIGINT) AS ip
              FROM s
            ), t(net, plen, label) AS (VALUES
              (CAST(0 AS BIGINT), CAST(1 AS BIGINT), 'low'),
              (CAST(1073741824 AS BIGINT), CAST(4 AS BIGINT), 'x'),
              (CAST(167772160 AS BIGINT), CAST(8 AS BIGINT), 'ten'),
              (CAST(2147483648 AS BIGINT), CAST(2 AS BIGINT), 'q2'),
              (CAST(2684354560 AS BIGINT), CAST(3 AS BIGINT), 'q2b'),
              (CAST(3221225472 AS BIGINT), CAST(3 AS BIGINT), 'q3')
            ), m AS (
              SELECT p.rid, coalesce(t.label, 'other') AS net_label,
                     row_number() OVER (
                       PARTITION BY p.rid
                       ORDER BY coalesce(t.plen, 0) DESC) AS rn
              FROM p LEFT JOIN t
                ON (p.ip >> (32 - t.plen)) = (t.net >> (32 - t.plen))
            )
            SELECT net_label, CAST(count(*) AS BIGINT) AS n
            FROM m WHERE rn = 1
            GROUP BY net_label ORDER BY net_label""",
        # versions from the scd2_customer_history changelog; facts probe
        # with ts = o_orderkey rounded down to even; interval LEFT JOIN
        # (at most one version interval covers a ts per key)
        "scd2_point_in_time": """
            WITH ch AS (
              SELECT o_custkey, o_orderkey AS seq,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS bal,
                     CASE WHEN o_orderkey % 11 = 0 THEN 'D' ELSE 'U' END
                       AS op
              FROM orders),
            v AS (
              SELECT *, lead(seq) OVER (PARTITION BY o_custkey
                                        ORDER BY seq) AS valid_to
              FROM ch),
            ver AS (
              SELECT o_custkey, bal, seq AS valid_from, valid_to
              FROM v WHERE op = 'U'),
            f AS (
              SELECT o_orderkey AS fact_id, o_custkey,
                     o_orderkey - (o_orderkey % 2) AS ts
              FROM orders)
            SELECT f.o_custkey, f.fact_id, f.ts, ver.bal, ver.valid_from
            FROM f LEFT JOIN ver
              ON f.o_custkey = ver.o_custkey
             AND ver.valid_from <= f.ts
             AND (ver.valid_to IS NULL OR f.ts < ver.valid_to)
            ORDER BY f.fact_id""",
        # med_x2 = 2*median is the exact middle-sum (ints + halves only);
        # mad_x4 likewise over doubled deviations; flag by integer
        # cross-multiplication — bit-equal to the distributed result
        "mad_outlier_events": """
            WITH c AS (
              SELECT event_id, event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events),
            m AS (
              SELECT event_type,
                     CAST(2 * median(cents) AS BIGINT) AS med_x2
              FROM c GROUP BY 1),
            d AS (
              SELECT c.*, m.med_x2,
                     abs(2 * c.cents - m.med_x2) AS dev
              FROM c JOIN m USING (event_type)),
            md AS (
              SELECT event_type,
                     CAST(2 * median(dev) AS BIGINT) AS mad_x4
              FROM d GROUP BY 1)
            SELECT d.event_id, d.event_type, d.cents, d.med_x2,
                   md.mad_x4,
                   CAST(CASE WHEN 2 * d.dev > 3 * md.mad_x4
                        THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
            FROM d JOIN md USING (event_type)
            ORDER BY d.event_id""",
        "event_mode_by_type": """
            WITH c AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events),
            cnt AS (
              SELECT event_type, cents, count(*) AS n
              FROM c GROUP BY 1, 2),
            r AS (
              SELECT event_type, cents AS mode_cents, n,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY n DESC, cents) AS rn
              FROM cnt)
            SELECT event_type, mode_cents, CAST(n AS BIGINT) AS n
            FROM r WHERE rn = 1 ORDER BY event_type""",
        "log_new_templates": _log_new_templates_sql(),
        # classic SQL islands: running max(end) over preceding rows ->
        # new-island flag -> island id by running sum -> group
        "merged_user_intervals": """
            WITH iv AS (
              SELECT user_id, epoch_us(ts) AS s,
                     epoch_us(ts)
                     + (abs(CAST(round(value * 100) AS BIGINT)) + 1)
                       * 1000000 AS e
              FROM events),
            o AS (
              SELECT *, max(e) OVER (
                       PARTITION BY user_id ORDER BY s, e
                       ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING) AS prev_end
              FROM iv),
            fl AS (
              SELECT *, CASE WHEN prev_end IS NULL OR s > prev_end
                        THEN 1 ELSE 0 END AS ni
              FROM o),
            isl AS (
              SELECT *, sum(ni) OVER (
                       PARTITION BY user_id ORDER BY s, e
                       ROWS UNBOUNDED PRECEDING) AS island
              FROM fl)
            SELECT user_id, min(s) AS start, max(e) AS "end",
                   CAST(count(*) AS BIGINT) AS n_merged
            FROM isl GROUP BY user_id, island
            ORDER BY user_id, start""",
        "heartbeat_gaps_events": """
            WITH d AS (
              SELECT user_id, epoch_us(ts) AS tsu,
                     lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts)) AS prev
              FROM events)
            SELECT user_id, prev AS gap_start, tsu AS gap_end,
                   (tsu - prev) AS gap
            FROM d
            WHERE prev IS NOT NULL AND tsu - prev > 86400000000
            ORDER BY user_id, gap_start""",
        "state_change_events": """
            WITH d AS (
              SELECT event_id, user_id, epoch_us(ts) AS tsu, event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id) AS prev
              FROM events)
            SELECT event_id, user_id, tsu, event_type
            FROM d WHERE event_type IS DISTINCT FROM prev
            ORDER BY event_id""",
        "user_event_diversity": """
            WITH cnt AS (
              SELECT user_id, event_type, count(*) AS c
              FROM events GROUP BY 1, 2)
            SELECT user_id,
                   CAST(sum(c) AS BIGINT) AS n,
                   CAST(count(*) AS BIGINT) AS k_distinct,
                   floor((ln(sum(c)) - sum(c * ln(c)) / sum(c))
                         * 1000000000.0 + 0.5) / 1000000000.0 AS entropy,
                   1 - sum(c * c) / (sum(c) * sum(c)) AS gini
            FROM cnt GROUP BY user_id ORDER BY user_id""",
        # same tokenization as the inverted-index oracles; PMI is
        # self-normalizing over pair marginals, so one counting rule
        # defines the whole statistic on both sides
        "doc_collocations": """
            WITH tok AS (
              SELECT doc_id, unnest(ws) AS w,
                     generate_subscripts(ws, 1) AS i
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text),
                                              '[a-z0-9_]+') AS ws
                    FROM documents)
            ), pairs AS (
              SELECT a.w AS "left", b.w AS "right"
              FROM tok a JOIN tok b
                ON b.doc_id = a.doc_id AND b.i > a.i AND b.i <= a.i + 2
            ), pc AS (
              SELECT "left", "right", CAST(count(*) AS BIGINT) AS c
              FROM pairs GROUP BY 1, 2
            ), lm AS (
              SELECT "left", count(*) AS cl FROM pairs GROUP BY 1
            ), rm AS (
              SELECT "right", count(*) AS cr FROM pairs GROUP BY 1
            ), tot AS (SELECT count(*) AS np FROM pairs)
            SELECT pc."left", pc."right", pc.c,
                   floor(ln(CAST(pc.c AS DOUBLE) * np / (cl * cr))
                         * 1000000000.0 + 0.5) / 1000000000.0 AS pmi
            FROM pc
            JOIN lm USING ("left") JOIN rm USING ("right") CROSS JOIN tot
            WHERE pc.c >= 5
            ORDER BY 1, 2""",
        "frequent_part_pairs": """
            WITH li AS (
              SELECT DISTINCT l_orderkey AS g, l_partkey AS item
              FROM lineitem),
            p AS (
              SELECT a.item AS item_a, b.item AS item_b
              FROM li a JOIN li b
                ON a.g = b.g AND a.item < b.item)
            SELECT item_a, item_b,
                   CAST(count(*) AS BIGINT) AS support
            FROM p GROUP BY 1, 2 HAVING count(*) >= 2
            ORDER BY 1, 2""",
        "compact_files_check": """
            SELECT CAST(37 AS BIGINT) AS files_in,
                   CAST(count(*) AS BIGINT) AS rows_in,
                   CAST(count(*) AS BIGINT) AS rows_out,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS cents_in,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS cents_out,
                   CAST(1 AS BIGINT) AS files_out_bounded
            FROM events""",
        # two ASOF joins (backward prev / forward next) + straight-line
        # interpolation, null outside the observed span
        "metric_lerp_events": """
            WITH b AS (
              SELECT CAST(floor(epoch_us(min(ts)) / 3600000000) AS BIGINT)
                       * 3600000000 AS t0,
                     epoch_us(max(ts)) AS t1 FROM events
            ), g AS (
              SELECT t0 + 3600000000 * CAST(u.k AS BIGINT) AS us
              FROM b JOIN (SELECT unnest(generate_series(0, 100000)) AS k) u
                ON u.k <= CAST((b.t1 - b.t0) // 3600000000 AS BIGINT)
            ), grid AS (
              SELECT et.event_type, make_timestamp(g.us) AS grid_ts
              FROM (SELECT DISTINCT event_type FROM events) et CROSS JOIN g
            ), obs AS (
              SELECT event_type, ts, max(value) AS v
              FROM events GROUP BY 1, 2
            ), p AS (
              SELECT grid.event_type, grid.grid_ts,
                     obs.ts AS tp, obs.v AS vp
              FROM grid ASOF LEFT JOIN obs
                ON grid.event_type = obs.event_type
               AND grid.grid_ts >= obs.ts
            ), n AS (
              SELECT grid.event_type, grid.grid_ts,
                     obs.ts AS tn, obs.v AS vn
              FROM grid ASOF LEFT JOIN obs
                ON grid.event_type = obs.event_type
               AND grid.grid_ts <= obs.ts
            )
            SELECT p.event_type, p.grid_ts,
                   floor(CASE
                     WHEN p.tp IS NULL OR n.tn IS NULL THEN NULL
                     WHEN epoch_us(n.tn) = epoch_us(p.tp) THEN p.vp
                     ELSE p.vp + (n.vn - p.vp)
                          * (epoch_us(p.grid_ts) - epoch_us(p.tp))
                          / (epoch_us(n.tn) - epoch_us(p.tp))
                   END * 1000000000.0 + 0.5) / 1000000000.0 AS value
            FROM p JOIN n USING (event_type, grid_ts)
            ORDER BY 1, 2""",
        "value_psi_drift": """
            WITH d AS (
              SELECT CAST(round(value * 100) AS BIGINT) AS cents,
                     CASE WHEN epoch_us(ts) // 86400000000 < 19738
                          THEN 0 ELSE 1 END AS win
              FROM events),
            bnn AS (
              SELECT win,
                     CAST(cents >= 1000 AS INT)
                     + CAST(cents >= 2500 AS INT)
                     + CAST(cents >= 5000 AS INT)
                     + CAST(cents >= 10000 AS INT)
                     + CAST(cents >= 25000 AS INT) AS bin_id
              FROM d),
            cnt AS (SELECT win, bin_id, count(*) AS n
                    FROM bnn GROUP BY 1, 2),
            bins AS (SELECT unnest(generate_series(0, 5)) AS bin_id),
            m AS (
              SELECT bins.bin_id,
                     CAST(coalesce(c0.n, 0) AS BIGINT) AS c_base,
                     CAST(coalesce(c1.n, 0) AS BIGINT) AS c_cur
              FROM bins
              LEFT JOIN cnt c0 ON c0.win = 0 AND c0.bin_id = bins.bin_id
              LEFT JOIN cnt c1 ON c1.win = 1 AND c1.bin_id = bins.bin_id),
            t AS (SELECT sum(c_base) AS na, sum(c_cur) AS nb FROM m)
            SELECT CAST(m.bin_id AS BIGINT) AS bin_id, m.c_base, m.c_cur,
                   (m.c_base + 1.0) / (t.na + 6) AS p_base,
                   (m.c_cur + 1.0) / (t.nb + 6) AS p_cur,
                   floor(((m.c_base + 1.0) / (t.na + 6)
                    - (m.c_cur + 1.0) / (t.nb + 6))
                   * ln(((m.c_base + 1.0) / (t.na + 6))
                        / ((m.c_cur + 1.0) / (t.nb + 6)))
                   * 1000000000000.0 + 0.5) / 1000000000000.0 AS contrib
            FROM m, t ORDER BY m.bin_id""",
        "benford_value_audit": """
            WITH d AS (
              SELECT CAST(round(value * 100) AS BIGINT) AS cents
              FROM events),
            fd AS (
              SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT)
                       AS digit
              FROM d WHERE cents > 0),
            cnt AS (SELECT digit, count(*) AS n FROM fd GROUP BY 1),
            digits AS (SELECT unnest(generate_series(1, 9)) AS digit),
            m AS (
              SELECT digits.digit,
                     CAST(coalesce(cnt.n, 0) AS BIGINT) AS c
              FROM digits LEFT JOIN cnt USING (digit)),
            t AS (SELECT sum(c) AS n FROM m)
            SELECT m.digit, m.c,
                   m.c / CAST(t.n AS DOUBLE) AS obs_p,
                   floor(log10(1.0 + 1.0 / m.digit)
                         * 1000000000000.0 + 0.5) / 1000000000000.0
                     AS benford_p,
                   floor(pow(m.c - log10(1.0 + 1.0 / m.digit) * t.n, 2)
                     / (log10(1.0 + 1.0 / m.digit) * t.n)
                     * 1000000000.0 + 0.5) / 1000000000.0 AS chi2_contrib
            FROM m, t ORDER BY m.digit""",
        "ab_conversion_ztest": """
            WITH u AS (
              SELECT user_id, user_id % 2 AS w,
                     max(CASE WHEN event_type = 'purchase'
                         THEN 1 ELSE 0 END) AS f
              FROM events GROUP BY 1),
            a AS (
              SELECT CAST(sum(CASE WHEN w = 0 THEN 1 ELSE 0 END)
                          AS BIGINT) AS n0,
                     CAST(sum(CASE WHEN w = 1 THEN 1 ELSE 0 END)
                          AS BIGINT) AS n1,
                     CAST(sum(CASE WHEN w = 0 THEN f ELSE 0 END)
                          AS BIGINT) AS conv0,
                     CAST(sum(CASE WHEN w = 1 THEN f ELSE 0 END)
                          AS BIGINT) AS conv1
              FROM u)
            SELECT n0, n1, conv0, conv1,
                   conv0 / CAST(n0 AS DOUBLE) AS rate0,
                   conv1 / CAST(n1 AS DOUBLE) AS rate1,
                   (conv0 / CAST(n0 AS DOUBLE)
                    - conv1 / CAST(n1 AS DOUBLE))
                   / sqrt(((conv0 + conv1) / CAST(n0 + n1 AS DOUBLE))
                          * (1 - (conv0 + conv1)
                               / CAST(n0 + n1 AS DOUBLE))
                          * (1.0 / n0 + 1.0 / n1)) AS z
            FROM a""",
        "attribution_linear": """
            WITH conv AS (
              SELECT event_id AS conv_id, user_id, ts AS conv_ts
              FROM events WHERE event_type = 'purchase'),
            t AS (
              SELECT event_id AS touch_id, user_id,
                     event_type AS touch_type, ts AS touch_ts
              FROM events
              WHERE event_type IN ('view', 'click', 'signup')),
            j AS (
              SELECT c.conv_id, c.user_id, t.touch_id, t.touch_type
              FROM conv c JOIN t
                ON t.user_id = c.user_id
               AND t.touch_ts < c.conv_ts
               AND t.touch_ts >= c.conv_ts - INTERVAL 7 DAY)
            SELECT conv_id, user_id, touch_id, touch_type,
                   1.0 / count(*) OVER (PARTITION BY conv_id) AS weight
            FROM j
            UNION ALL
            SELECT c.conv_id, c.user_id, NULL, NULL, NULL
            FROM conv c
            WHERE NOT EXISTS (SELECT 1 FROM j WHERE j.conv_id = c.conv_id)
            ORDER BY conv_id, touch_id""",
        "doc_sentences": r"""
            WITH planted AS (
              SELECT doc_id,
                     'Alpha beta! ' ||
                     replace(coalesce(text, ''), ' the ', '. The ')
                     || ' Tail gamma?' AS text
              FROM documents),
            raw AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(
                       text, '[.!?]+(\s+|$)')) AS frag,
                     generate_subscripts(regexp_split_to_array(
                       text, '[.!?]+(\s+|$)'), 1) AS i
              FROM planted),
            trimmed AS (
              SELECT doc_id,
                     regexp_replace(regexp_replace(frag, '^\s+', ''),
                                    '\s+$', '') AS sentence, i
              FROM raw)
            SELECT doc_id,
                   CAST(row_number() OVER (PARTITION BY doc_id
                                           ORDER BY i) - 1 AS BIGINT)
                     AS sent_idx,
                   sentence
            FROM trimmed WHERE length(sentence) >= 2
            ORDER BY doc_id, sent_idx""",
        "skyline_parts": """
            WITH p AS (
              SELECT p_partkey, p_size,
                     CAST(length(p_name) AS BIGINT) AS p_name_len,
                     p_retailprice
              FROM part)
            SELECT p_partkey, p_size, p_name_len, p_retailprice
            FROM p a
            WHERE NOT EXISTS (
              SELECT 1 FROM p b
              WHERE b.p_size >= a.p_size
                AND b.p_name_len >= a.p_name_len
                AND b.p_retailprice <= a.p_retailprice
                AND (b.p_size > a.p_size
                     OR b.p_name_len > a.p_name_len
                     OR b.p_retailprice < a.p_retailprice))
            ORDER BY p_partkey""",
        "attribution_time_decay": """
            WITH conv AS (
              SELECT event_id AS conv_id, user_id, ts AS conv_ts
              FROM events WHERE event_type = 'purchase'),
            t AS (
              SELECT event_id AS touch_id, user_id,
                     event_type AS touch_type, ts AS touch_ts
              FROM events
              WHERE event_type IN ('view', 'click', 'signup')),
            j AS (
              SELECT c.conv_id, c.user_id, t.touch_id, t.touch_type,
                     (epoch_us(c.conv_ts) - epoch_us(t.touch_ts))
                       // 86400000000 AS n
              FROM conv c JOIN t
                ON t.user_id = c.user_id
               AND t.touch_ts < c.conv_ts
               AND t.touch_ts >= c.conv_ts - INTERVAL 7 DAY),
            r AS (
              SELECT conv_id, user_id, touch_id, touch_type,
                     1.0 / CAST(1 << CAST(n AS INTEGER) AS DOUBLE) AS raw
              FROM j)
            SELECT conv_id, user_id, touch_id, touch_type,
                   raw / sum(raw) OVER (PARTITION BY conv_id) AS weight
            FROM r
            UNION ALL
            SELECT c.conv_id, c.user_id, NULL, NULL, NULL
            FROM conv c
            WHERE NOT EXISTS (SELECT 1 FROM j WHERE j.conv_id = c.conv_id)
            ORDER BY conv_id, touch_id""",
        "attribution_position": """
            WITH conv AS (
              SELECT event_id AS conv_id, user_id, ts AS conv_ts
              FROM events WHERE event_type = 'purchase'),
            t AS (
              SELECT event_id AS touch_id, user_id,
                     event_type AS touch_type, ts AS touch_ts
              FROM events
              WHERE event_type IN ('view', 'click', 'signup')),
            j AS (
              SELECT c.conv_id, c.user_id, t.touch_id, t.touch_type,
                     t.touch_ts
              FROM conv c JOIN t
                ON t.user_id = c.user_id
               AND t.touch_ts < c.conv_ts
               AND t.touch_ts >= c.conv_ts - INTERVAL 7 DAY),
            w AS (
              SELECT conv_id, user_id, touch_id, touch_type,
                     row_number() OVER (PARTITION BY conv_id
                                        ORDER BY touch_ts, touch_id) AS pos,
                     count(*) OVER (PARTITION BY conv_id) AS k
              FROM j)
            SELECT conv_id, user_id, touch_id, touch_type,
                   CASE WHEN k = 1 THEN CAST(1.0 AS DOUBLE)
                        WHEN k = 2 THEN CAST(0.5 AS DOUBLE)
                        WHEN pos = 1 OR pos = k THEN CAST(0.4 AS DOUBLE)
                        ELSE 0.2 / CAST(k - 2 AS DOUBLE) END AS weight
            FROM w
            UNION ALL
            SELECT c.conv_id, c.user_id, NULL, NULL, NULL
            FROM conv c
            WHERE NOT EXISTS (SELECT 1 FROM j WHERE j.conv_id = c.conv_id)
            ORDER BY conv_id, touch_id""",
    }
