"""Benchmark driver: headline parse->enrich->route->aggregate pipeline.

Plain run: one JSON line
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "turns": N, "turns_per_sec": N}

--scaling: runs the headline twice in FRESH processes at the two
RAY_GRAFT_CPUS levels of GRAFT_SCALE_CPUS (default "2,8", the N vs 4N
parallelism levels) on the same input and reports both throughputs +
scaling efficiency = (T_lo/T_hi)/(hi/lo).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default: the usable cores, the CPU affinity).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))

# per-query bench set (subset of __ray_entry__.queries keeping total runtime sane)
BENCH_QUERIES = [
    "parse_tool_logs",
    "route_counts",
    "count_by_role",
    "sum_latency_by_tool",
    "dedup_turns",
    "recombine_conversations",
    "recombine_salted",
    "latency_histogram",
    "tool_category_counts",
    "sessionize_events",
    "orders_per_nation",
    "orders_per_nation_native",
    "embedding_knn",
    "purchase_before_click",
    "clicks_in_signup_window",
    "sliding_window_counts",
    "doc_substring_dups",
    "doc_pii_scrub",
    "doc_mix_sources",
    "otlp_roundtrip_counts",
    "doc_lm_score",
    "doc_pack_sequences",
    "doc_c4_line_filter",
    "doc_line_dedup",
    "doc_line_dedup_broadcast",
    "doc_bm25",
    "kmeans_assign",
    "tpch_q3",
    "tpch_q1",
    "tpch_q5",
    "tpch_q10",
    "tpch_q6",
    "tpch_q7",
    "tpch_q8",
    "tpch_q13",
    "tpch_q15",
    "tpch_q17",
    "tpch_q19",
    "tpch_q22",
    "tpch_q2",
    "tpch_q4",
    "tpch_q9",
    "tpch_q11",
    "tpch_q12",
    "tpch_q16",
    "tpch_q20",
    "tpch_q21",
    "event_value_quartiles",
    "event_windows",
    "event_trailing",
    "doc_classifier",
    "doc_chunks",
    "doc_budget_sample",
    "funnel_stages",
    "retention_weekly",
    "doc_normalize",
    "doc_keywords",
    "doc_weighted_sample",
    "metric_context_pipeline",
    "recombine_multiline",
    "filelog_multiline_counts",
    "semdedup",
    "knn_lsh",
    "knn_lsh_production",
    "otlp_proto_roundtrip",
    "otlp_metrics_proto_roundtrip",
    "otlp_hist_proto_roundtrip",
    "syslog5424_parse",
    "gotime_parse",
    "otlp_traces_proto_roundtrip",
    "otlp_traces_json_roundtrip",
    "otlp_metrics_json_roundtrip",
    "otlp_hist_json_roundtrip",
    "event_value_quantiles_cont",
    "cube_event_counts",
    "doc_temperature_mix",
    "doc_gopher_gate",
    "doc_top_ngrams",
    "doc_fuzzy_new_vs_ref",
    "exp_to_explicit_hist",
    # round-4 window coverage: BENCH_r04 times what CORRECTNESS_r04 checks
    "attr_hash_extract",
    "replace_pattern",
    "match_all_route_counts",
    "embedding_dim_sums",
    "top3_events_per_type",
    "stratified_event_sample",
    "latency_quantiles_by_tool",
    "approx_latency_quantiles",
    "doc_shuffle",
    "doc_ccnet_buckets",
    "doc_curriculum",
    "doc_url_normalize",
    "doc_length_filter",
    "doc_zscore",
    "rollup_event_counts",
    "pivot_event_counts",
    "role_pmi",
    "distinct_users_by_type",
    "conversion_latency",
    "doc_validate",
    "conversation_features",
    "uri_parse",
    "kv_parse",
    "csv_parse",
    "jsonarray_parse",
    "grok_parse",
    "trace_scope_parse",
    "roundrobin_counts",
    "failover_counts",
    "schema_rename_counts",
    "xml_extract",
    "recombine_capped",
    "minhash_neardup",
    "simhash_neardup",
    "embedding_neardup",
    "doc_fingerprint",
    "doc_decontaminate_frac",
    "event_value_trend",
    "doc_fuzzy_match_blocked",
    "video_decode_check",
    "image_decode_check",
    "audio_decode_check",
    "fingerprint_check",
    "entity_clusters",
    "metric_resample",
    "cms_bound_check",
    "unigram_lm_check",
    "doc_html_extract",
    "pagerank_parts",
    "ann_consistency_check",
    "bpe_roundtrip_check",
    "decontam_bloom_check",
    "hll_bound_check",
    "kmeans_opt_check",
    "knn_ivf",
    "knn_pq",
    "image_dedup",
    "audio_pipeline",
    "doc_bpe_tokens",
    "doc_decontaminate_bloom",
    "multimodal_pipeline",
    # twelfth-session additions (round-5 rotation candidates)
    "triangle_parts",
    "inverted_token_stats",
    "phrase_search_counts",
    "boolean_search_docs",
    "qdigest_bound_check",
    "audio_stft_check",
    "zorder_layout",
    "bfs_hops_parts",
    "cdc_merge_balances",
    # thirteenth-session additions (round-5 rotation candidates)
    "bloom_join_revenue",
    "attribution_last_touch",
    "attribution_first_touch",
    "ewma_anomaly_events",
    "theta_sketch_check",
    "log_templates",
    "alert_hysteresis_events",
    "cusum_change_events",
    "table_diff_orders",
    "scd2_customer_history",
    "profile_events",
    "global_sort_events",
    "cidr_route_counts",
    "scd2_point_in_time",
    "mad_outlier_events",
    "event_mode_by_type",
    "log_new_templates",
    "user_event_diversity",
    "merged_user_intervals",
    "heartbeat_gaps_events",
    "state_change_events",
    "doc_collocations",
    "frequent_part_pairs",
    "compact_files_check",
    "metric_lerp_events",
    "value_psi_drift",
    "benford_value_audit",
    "ab_conversion_ztest",
    "attribution_linear",
    "doc_sentences",
    "skyline_parts",
    "attribution_time_decay",
    "attribution_position",
    "tcp_replay_counts",
    "udp_replay_counts",
    "exp_histogram_scale2",
    "opq_check",
    "journald_priority_counts",
    "wineventlog_severity_counts",
    "latency_histogram_quantile",
    "counter_rate_by_user",
    "otlpjson_connector_split",
    "incremental_dedup_events",
    "schema_evolved_union",
    "late_event_depth",
    "ohlc_event_bars",
    "slo_burn_alerts",
    "seasonal_residual_events",
    "twa_event_value",
    "rolling_weekly_actives",
    "fs_customer_links",
    "value_hour_correlation",
    "user_spend_gini",
    "route_prefix_rollup",
    "trending_event_types",
    "view_purchase_overlaps",
    "value_ks_drift",
    "value_auc_shift",
    "value_acf_hourly",
    "weighted_latency_quantiles",
    "value_qq_shift",
    "top_session_paths",
    "value_welch_ttest",
    "user_credit_balance",
    "user_burstiness",
    "type_hour_independence",
]


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


def _consume(res) -> int:
    """Consume a query result without driver materialization of big data."""
    if hasattr(res, "count"):
        return res.count()
    return len(res)


def run_headline() -> dict:
    """Full flagship DAG: read -> parse -> severity -> enrich -> transform ->
    route -> (partitioned routed sink + per-sink counts)."""
    import shutil

    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines import (
        build_flagship,
    )
    from open_telemetry_opentelemetry_collector_contrib_ray.sources import (
        ensure_transcripts, read_transcripts,
    )
    from open_telemetry_opentelemetry_collector_contrib_ray.stages import grouped_count

    ensure_transcripts(SF_DIR)  # untimed generation (cached)
    # warm the page cache so we measure compute+shuffle, not first disk read
    n_turns = read_transcripts(SF_DIR).count()

    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines.flagship import (
        run_flagship,
    )
    from open_telemetry_opentelemetry_collector_contrib_ray.state.lineage import (
        counts_from_lineage,
    )

    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines.flagship import (
        FlagshipStage,
    )
    from open_telemetry_opentelemetry_collector_contrib_ray.state.lineage import (
        LineageRecorder,
    )

    repeats = int(os.environ.get("GRAFT_BENCH_REPEAT", "1"))
    # GRAFT_BENCH_OUT_ROOT=/dev/shm points the routed sink at tmpfs to
    # isolate the single-local-disk bottleneck (BASELINE.md scaling table)
    out_root = os.environ.get("GRAFT_BENCH_OUT_ROOT", "/tmp")
    out_dir = f"{out_root}/bench_routed_{NUM_CPUS}"

    def full():  # parse→enrich→route→aggregate + routed partitioned parquet sink
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.rmtree(out_dir + "_lineage", ignore_errors=True)
        _, lineage_dir = run_flagship(SF_DIR, out_dir)
        counts_from_lineage(lineage_dir).to_pandas()

    def compute():  # same DAG consumed by the aggregate only (no bulk sink):
        # isolates compute+shuffle throughput from single-disk write
        # bandwidth.  The per-batch collapse to a 1-row count mirrors the
        # real pipeline, where the map stage fuses with the writer and full
        # batches never round-trip the object store.
        import pyarrow as _pa

        lg = out_dir + "_lineage_c"
        shutil.rmtree(lg, ignore_errors=True)
        rec = LineageRecorder(FlagshipStage(), lg)

        def run_and_collapse(batch):
            out = rec(batch)
            return _pa.table({"n": _pa.array([out.num_rows])})

        ds = read_transcripts(SF_DIR).map_batches(run_and_collapse,
                                                  batch_format="pyarrow")
        ds.sum("n")
        counts_from_lineage(lg).to_pandas()

    def timed(fn):
        fn()  # warmup: worker startup + page cache, untimed
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - t0) / repeats

    full_sec = timed(full)
    compute_sec = timed(compute)
    return {"sec": full_sec, "compute_sec": compute_sec, "turns": n_turns,
            "turns_per_sec": n_turns / full_sec,
            "compute_turns_per_sec": n_turns / compute_sec}


def _knn_lsh_production(sf_dir: str):
    """The knn_lsh PRODUCTION path alone (lsh_topk, no in-plan
    brute-force self-validation) — benched separately so the catalog
    row's invariant pass doesn't read as a pipeline regression
    (the r3->r4 knn_lsh delta was the verify pass, not the operator)."""
    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines.queries import (
        _embedding_queries,
    )
    from open_telemetry_opentelemetry_collector_contrib_ray.stages.similarity import (
        lsh_topk,
    )

    queries, ds = _embedding_queries(sf_dir)
    return lsh_topk(ds, queries, k=5, n_bits=8, n_tables=16,
                    exclude_ids={0, 1, 2})


def _doc_line_dedup_broadcast(sf_dir: str):
    """doc_line_dedup's broadcast cut-delivery path (the small-cut-set
    default of strategy="auto") — benched beside the catalog query,
    which deliberately forces strategy="join" so its oracle validates
    the scale plan."""
    from open_telemetry_opentelemetry_collector_contrib_ray.pipelines.queries import (
        _plant_lines_ds,
    )
    from open_telemetry_opentelemetry_collector_contrib_ray.stages.textfilters import (
        dedup_lines,
    )

    return dedup_lines(lambda: _plant_lines_ds(sf_dir),
                       strategy="broadcast")


# bench-only rows that are not catalog queries (production-path splits)
EXTRA_BENCH = {"knn_lsh_production": _knn_lsh_production,
               "doc_line_dedup_broadcast": _doc_line_dedup_broadcast}


def run_queries() -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as e

    qs = e.queries()
    out = {}
    for name in BENCH_QUERIES:
        fn = qs.get(name) or EXTRA_BENCH[name]
        t0 = time.perf_counter()
        _consume(fn(SF_DIR))
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main():
    if "--scaling" in sys.argv:
        # N vs 4N parallelism levels (the north rule's two cluster sizes,
        # evidenced in-sandbox per BASELINE.md).  Default 2 vs 8; override
        # with GRAFT_SCALE_CPUS="8,32".
        lo, hi = (int(x) for x in os.environ.get("GRAFT_SCALE_CPUS", "2,8").split(","))
        # scaling needs a job where compute dominates fixed costs: default to
        # the 6M-turn corpus (synthesized+cached) unless explicitly overridden
        scale_sf = os.environ.get("GRAFT_SCALE_SF_DIR", "/root/testdata/sf1")
        results = {}
        for ncpu in (lo, hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_HEADLINE_ONLY="1",
                       GRAFT_SF_DIR=scale_sf,
                       GRAFT_BENCH_REPEAT=os.environ.get("GRAFT_BENCH_REPEAT", "1"))
            out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                                 capture_output=True, text=True, check=True,
                                 cwd=os.path.dirname(os.path.abspath(__file__)))
            results[ncpu] = json.loads(out.stdout.strip().splitlines()[-1])
        ratio = hi / lo
        tl, th = results[lo]["value"], results[hi]["value"]
        cl, ch = results[lo]["compute_sec"], results[hi]["compute_sec"]
        print(json.dumps({
            "metric": f"flagship parse→enrich→route→aggregate scaling ({lo} vs {hi} cpus)",
            f"sec_{lo}": tl, f"sec_{hi}": th,
            f"turns_per_sec_{lo}": results[lo]["turns_per_sec"],
            f"turns_per_sec_{hi}": results[hi]["turns_per_sec"],
            "scaling_efficiency": round((tl / th) / ratio, 3),
            f"compute_sec_{lo}": cl, f"compute_sec_{hi}": ch,
            "compute_scaling_efficiency": round((cl / ch) / ratio, 3),
            "sf": scale_sf, "unit": "sec",
        }))
        return

    _init_ray()
    headline = run_headline()
    queries = {} if os.environ.get("GRAFT_BENCH_HEADLINE_ONLY") else run_queries()
    print(json.dumps({
        "metric": "flagship parse→enrich→route→aggregate wall time",
        "value": round(headline["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "turns": headline["turns"],
        "turns_per_sec": round(headline["turns_per_sec"]),
        "compute_sec": round(headline["compute_sec"], 3),
        "compute_turns_per_sec": round(headline["compute_turns_per_sec"]),
    }))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
