"""Per-layer metrics of one traced pass, from its spans and ``Dataset.stats()``.

Every metric is reported for every workload; a layer that does not run
in a workload reads 0 there.  Times are sums over batches or tasks
(work, not wall time), except the driver-side spans.
"""

from __future__ import annotations

import os
import re

import pyarrow.parquet as pq

from .tracing import self_seconds, total_seconds
from .workloads import KERNEL_SPANS, ROUTE_IDS

# metric name -> unit; the order is the order of BENCHMARK.json
UNITS = {
    "sources.read_s": "s", "sources.rows": "count", "sources.bytes": "bytes",
    "ray.blocks": "count", "ray.rows_per_block": "rows", "ray.tasks": "count",
    "ray.udf_s": "s", "ray.overhead_s": "s",
    "stages.parse.regex_s": "s", "stages.parse.severity_s": "s",
    "stages.enrich.lookup_s": "s", "stages.transform_s": "s", "stages.route_s": "s",
    "stages.parse.failures": "count",
    **{f"stages.route.rows.{r}": "count" for r in ROUTE_IDS},
    "stages.kernels_single_s": "s",
    "state.lineage.record_s": "s", "state.lineage.sidecars": "count",
    "state.lineage.merge_s": "s",
    "sink.write_s": "s", "sink.files": "count", "sink.bytes": "bytes",
    "stages.aggregate.partial_s": "s", "stages.aggregate.driver_combine_s": "s",
    "shuffle.dedup_s": "s", "shuffle.recombine_s": "s", "shuffle.sessionize_s": "s",
    "shuffle.blocks_in": "count", "shuffle.bucket_skew": "ratio", "shuffle.spilled_mb": "MB",
    "trace.overhead_s": "s",
}

_SUMMARY = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")


def _counts(op) -> tuple[int, int]:
    """(tasks, blocks) of one operator's stats summary."""
    m = _SUMMARY.search(op.block_execution_summary_str)
    return (int(m.group(1)), int(m.group(2))) if m else (0, 0)


def _operators(summaries) -> tuple[list, int]:
    """Every operator executed in the pass, once, and the number of
    blocks that entered an all-to-all exchange.  A materialized dataset
    reappears as the parent of later datasets, so operators are keyed by
    name and execution interval."""
    ops, seen, blocks_in = [], set(), 0
    todo = list(summaries)
    while todo:
        node = todo.pop()
        todo.extend(node.parents)
        key = tuple((op.operator_name, op.earliest_start_time, op.latest_end_time)
                    for op in node.operators_stats)
        if not key or key in seen:
            continue
        seen.add(key)
        ops.extend(node.operators_stats)
        if any(op.is_sub_operator for op in node.operators_stats):
            for parent in node.parents:
                if parent.operators_stats:
                    blocks_in += _counts(parent.operators_stats[-1])[1]
    return ops, blocks_in


def read_blocks(summaries) -> int:
    """Blocks produced by the parquet reads of the pass."""
    return sum(_counts(op)[1] for op in _operators(summaries)[0]
               if op.operator_name.startswith("ReadParquet"))


def _stat(op, field: str) -> float:
    d = getattr(op, field)
    return float(d["sum"]) if d and "sum" in d else 0.0


def _tree_size(path: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


def pass_metrics(workload: str, spans: list[dict], summaries: list, wall_s: float,
                 result: dict, cores: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the run-level ones)."""
    m = dict.fromkeys(UNITS, 0.0)
    ops, m["shuffle.blocks_in"] = _operators(summaries)
    reads = [op for op in ops if op.operator_name.startswith("ReadParquet")]
    m["sources.read_s"] = sum(_stat(op, "wall_time") for op in reads)
    m["sources.rows"] = sum(_stat(op, "output_num_rows") for op in reads)
    m["sources.bytes"] = sum(_stat(op, "output_size_bytes") for op in reads)
    m["ray.blocks"] = sum(_counts(op)[1] for op in reads)
    m["ray.rows_per_block"] = m["sources.rows"] / max(1, m["ray.blocks"])
    m["ray.tasks"] = sum(_counts(op)[0] for op in ops)
    m["ray.udf_s"] = sum(_stat(op, "udf_time") for op in ops)
    m["ray.overhead_s"] = wall_s - m["ray.udf_s"] / cores
    m["shuffle.spilled_mb"] = sum(s.dataset_bytes_spilled for s in summaries) / 1e6

    own = self_seconds(spans)
    for name in KERNEL_SPANS:
        m[name + "_s"] = own.get(name, 0.0)
    for s in spans:
        if s["name"] == "stages.parse.regex":
            m["stages.parse.failures"] += s["counts"]["failures"]
        elif s["name"] == "stages.route":
            for route, n in s["counts"].items():
                m[f"stages.route.rows.{route}"] += n

    if workload == "flagship_routed":
        m["state.lineage.record_s"] = own.get("state.lineage", 0.0)
        m["state.lineage.sidecars"] = sum(n.endswith(".json") for n in os.listdir(result["lineage"]))
        m["state.lineage.merge_s"] = total_seconds(spans, "state.lineage.merge")
        m["sink.write_s"] = sum(_stat(op, "wall_time") - _stat(op, "udf_time")
                                for op in ops if op.operator_name.endswith("Write"))
        m["sink.files"], m["sink.bytes"] = _tree_size(result["sink"])
    elif workload == "flagship_counts":
        m["stages.aggregate.partial_s"] = sum(
            _stat(op, "udf_time") for op in ops if "_PartialAgg" in op.operator_name
        ) - total_seconds(spans, "stages.flagship")
        (gc,) = [s for s in spans if s["name"] == "stages.aggregate.grouped_count"]
        first = min((s for s in spans if s["parent"] == gc["id"]), key=lambda s: s["start"])
        # the combine tail: from the partials being materialized to the result
        m["stages.aggregate.driver_combine_s"] = (gc["end"] - first["end"]) / 1e9
    else:
        for name in ("dedup", "recombine", "sessionize"):
            m[f"shuffle.{name}_s"] = total_seconds(spans, f"shuffle.{name}")
    return m


def bucket_skew(corpus_dir: str, n_buckets: int = 64) -> float:
    """Max over mean rows per conversation bucket, with the same
    ``bucket_column`` the shuffle operators partition by."""
    import numpy as np

    from open_telemetry_opentelemetry_collector_contrib_ray.stages.sample import bucket_column

    conv = pq.read_table(corpus_dir, columns=["conv_id"]).column("conv_id")
    sizes = np.bincount(bucket_column(conv, n_buckets).to_numpy(), minlength=n_buckets)
    return float(sizes.max() / sizes.mean())
