"""Self-test of the benchmark on a tiny corpus (2,000 turns).

    python3 perfbench/selftest.py

Runs every workload untraced and traced, and checks that the last line
holds every metric named in BENCHMARK.json with its unit, that no pass
failed or mismatched the DuckDB reference, and that each layer reads
non-zero on the workloads it runs in.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-layer metrics that must be positive on a workload (the layer runs there)
RUNS_IN = {
    "flagship_routed": ["stages.parse.regex_s", "stages.route.rows.default", "ray.blocks",
                        "stages.kernels_single_s", "state.lineage.record_s",
                        "state.lineage.sidecars", "sink.files", "sink.bytes"],
    "flagship_counts": ["stages.parse.regex_s", "stages.route.rows.default", "ray.blocks",
                        "stages.kernels_single_s", "stages.aggregate.driver_combine_s"],
    "conv_shuffle": ["shuffle.dedup_s", "shuffle.recombine_s", "shuffle.sessionize_s",
                     "shuffle.blocks_in", "shuffle.bucket_skew", "sources.read_s"],
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--turns", "2000"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(w["name"], trace)
            where = f"{w['name']} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or report["failed_frac"] != 0:
                errors.append(f"{where}: failures {report['failure_reasons']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ: {sorted(set(want) ^ set(got))}")
            if trace == 1:
                errors += [f"{where}: {m} is not positive" for m in RUNS_IN[w["name"]]
                           if not result["metrics"][m]["value"] > 0]
            print(f"{where}: ok" if not errors else f"{where}: {errors}", flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
