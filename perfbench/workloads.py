"""The three workloads: one pass of each, untraced or traced, and its check.

A pass returns its consumed output.  The traced form of a pass builds the
same plan as the package function it mirrors, with the per-batch stages
wrapped in spans; it is only used by ``--trace 1`` runs.
"""

from __future__ import annotations

import contextlib

import pyarrow as pa
import pyarrow.compute as pc
import ray

from open_telemetry_opentelemetry_collector_contrib_ray.pipelines.flagship import (
    FlagshipStage,
    flagship_sink_counts,
    run_flagship,
    sink_counts_from_output,
)
from open_telemetry_opentelemetry_collector_contrib_ray.sources.transcripts import (
    read_transcripts,
)
from open_telemetry_opentelemetry_collector_contrib_ray.stages.aggregate import (
    dedup_exact,
    grouped_count,
    recombine,
    sessionize,
)
from open_telemetry_opentelemetry_collector_contrib_ray.state.lineage import (
    LineageRecorder,
    counts_from_lineage,
)

from . import reference

# span names of FlagshipStage().stages, in order
KERNEL_SPANS = ("stages.parse.regex", "stages.parse.severity",
                "stages.enrich.lookup", "stages.transform", "stages.route")
ROUTE_IDS = ("errors", "slow", "timeouts", "default")


def parse_failures(out: pa.Table) -> dict:
    return {"failures": int(pc.sum(pc.fill_null(out.column("parse_failure"), False)).as_py() or 0)}


def route_rows(out: pa.Table) -> dict:
    return {v["values"]: v["counts"]
            for v in out.column("route_id").value_counts().to_pylist()}


def traced_flagship(tracer) -> FlagshipStage:
    """FlagshipStage with each of its five stages wrapped in a span."""
    stage = FlagshipStage()
    counters = {0: parse_failures, 4: route_rows}
    stage.stages = [tracer.wrap(s, name, counters.get(i))
                    for i, (s, name) in enumerate(zip(stage.stages, KERNEL_SPANS))]
    return stage


def to_table(ds) -> pa.Table:
    """Consume a dataset into one Arrow table on the driver."""
    refs = ds.materialize().to_arrow_refs()
    return pa.concat_tables(ray.get(refs), promote_options="permissive")


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def flagship_routed(sf: str, pass_dir: str, tracer=None) -> dict:
    """``run_flagship`` then ``counts_from_lineage``."""
    sink = f"{pass_dir}/sink"
    if tracer is None:
        _, lineage = run_flagship(sf, sink)
        return {"counts": counts_from_lineage(lineage), "sink": sink, "lineage": lineage}
    lineage = sink + "_lineage"
    recorder = LineageRecorder(traced_flagship(tracer), lineage)
    ds = read_transcripts(sf).map_batches(tracer.wrap(recorder, "state.lineage"),
                                          batch_format="pyarrow")
    with tracer.span("sink.write_parquet"):
        ds.write_parquet(sink, partition_cols=["route_id"], compression="zstd")
    with tracer.span("state.lineage.merge"):
        counts = counts_from_lineage(lineage)
    return {"counts": counts, "sink": sink, "lineage": lineage}


def flagship_counts(sf: str, pass_dir: str, tracer=None) -> dict:
    """``flagship_sink_counts``, consumed to the end."""
    if tracer is None:
        return {"counts": to_table(flagship_sink_counts(sf))}
    ds = read_transcripts(sf).map_batches(tracer.wrap(traced_flagship(tracer), "stages.flagship"),
                                          batch_format="pyarrow")
    with tracer.span("stages.aggregate.grouped_count"):
        counts = grouped_count(ds, ["route_id", "role"], alias="n")
    return {"counts": to_table(counts)}


SHUFFLE_OPS = {
    "dedup": lambda ds: dedup_exact(ds, ["conv_id", "role", "text"]),
    "recombine": lambda ds: recombine(ds),
    "sessionize": lambda ds: sessionize(ds, "conv_id", gap_us=reference.SESSION_GAP_US),
}


def conv_shuffle(sf: str, pass_dir: str, tracer=None) -> dict:
    """dedup_exact, recombine and sessionize, one after the other."""
    out = {}
    for name, op in SHUFFLE_OPS.items():
        with _span(tracer, f"shuffle.{name}"):
            out[name] = to_table(op(read_transcripts(sf)))
    return out


def kernels_single(sf: str, repeats: int = 3) -> float:
    """Median seconds for FlagshipStage over the corpus's Ray blocks, run
    one after another in this process: the single-threaded baseline."""
    import statistics
    import time

    blocks = ray.get(read_transcripts(sf).materialize().to_arrow_refs())
    stage = FlagshipStage()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for block in blocks:
            stage(block)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check(workload: str, expected: dict, result: dict, full: bool = False) -> list[str]:
    """Mismatch reasons of one pass's output against the DuckDB reference.
    ``full`` also reads the routed sink back with ``sink_counts_from_output``
    and compares it with the lineage counts (about as slow as a pass)."""
    if workload == "conv_shuffle":
        return [f"{name}_vs_reference" for name, table in result.items()
                if reference.summarize_output(name, table) != expected["shuffle"][name]]
    got = reference.counts_of(result["counts"])
    reasons = [] if got == expected["flagship"] else ["counts_vs_reference"]
    if workload == "flagship_routed" and full:
        if reference.counts_of(to_table(sink_counts_from_output(result["sink"]))) != got:
            reasons.append("sink_vs_lineage")
    return reasons


WORKLOADS = {
    "flagship_routed": flagship_routed,
    "flagship_counts": flagship_counts,
    "conv_shuffle": conv_shuffle,
}
