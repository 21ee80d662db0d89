"""Seeded same-host benchmark of the flagship pipeline and the shuffle operators.

    python3 perfbench/run.py --workload flagship_routed --seed 1 --seconds 10 --trace 0

Workloads (one driver process, one pass at a time: a closed loop with one
client, under ``ray.init(num_cpus=<usable cores>)``):

- ``flagship_routed``: ``run_flagship`` then ``counts_from_lineage``.
- ``flagship_counts``: ``flagship_sink_counts``, consumed to the end.
- ``conv_shuffle``: ``dedup_exact``, ``recombine`` and ``sessionize`` in turn.

The input is ``synth_transcripts(turns, seed)`` in files of 65,536 rows,
generated once per seed into ``.pbwork/`` (untimed).  Every pass's
output is checked against DuckDB over the same files.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes (see ``layers.py``).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the host, versions, seed, input size, per-pass times and the
failure reasons.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbwork")  # short: Ray puts its unix sockets under WORK/ray
PACKAGE = "open_telemetry_opentelemetry_collector_contrib_ray"
SF = "sfbench"  # corpus directory name under GRAFT_TRANSCRIPTS_DIR

DEFAULT_SEED = 1
HELD_OUT_SEED = 424242  # for confirming a result; never used while developing a change
# corpus size per workload: the flagship reads the sf0.1 shape; the shuffle
# corpus is a third of it, so that a run fits several passes of all three
# operators (about 3.5 s a pass on 4 cores) while keeping the 10% hot conversation
TURNS = {"flagship_routed": 600_000, "flagship_counts": 600_000, "conv_shuffle": 200_000}
ROWS_PER_FILE = 65_536

# a timed run starts this many Ray sessions in turn: setup_s is the median of
# their starts plus warm-up passes, and each session runs its share of the
# timed passes, so that one slow session moves the median pass less
SESSIONS = 2
MIN_PASSES_PER_SESSION = 2
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 60.0
RUN_BUDGET_S = 140.0  # start no pass after this; a run must end within 180 s
RUN_DEADLINE_S = 160.0  # and cut any pass still running then
# Ray's object store, touched in full at start: otherwise the first passes
# of a session pay page faults on fresh shared memory and run 10-25% slower
OBJECT_STORE_BYTES = 1 * 10**9
# longest Ray temp dir whose socket paths, such as
# <dir>/session_2026-10-16_20-22-38_330754_4194304/sockets/plasma_store,
# fit the 107 bytes of a unix socket path
RAY_DIR_MAX = 107 - len("/session_2026-10-16_20-22-38_330754_4194304/sockets/plasma_store")

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
BATCH_SPAN = {"flagship_routed": "state.lineage", "flagship_counts": "stages.flagship"}


class PassTimeout(Exception):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["flagship_routed", "flagship_counts", "conv_shuffle"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--turns", type=int, help="corpus size (default: per workload; "
                   "the self-test uses 2000)")
    args = p.parse_args(argv)
    if args.turns is None:
        args.turns = TURNS[args.workload]
    return args


def make_corpus(corpus_root: str, seed: int, turns: int) -> str:
    """Write the seeded corpus once; keep one corpus per size, that of
    the current seed."""
    from open_telemetry_opentelemetry_collector_contrib_ray.sources.transcripts import (
        synth_transcripts,
    )
    import pyarrow.parquet as pq

    out = os.path.join(corpus_root, SF)
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out
    parent = os.path.dirname(corpus_root)
    if os.path.isdir(parent):
        for name in os.listdir(parent):
            if name.endswith(f"-turns{turns}"):
                shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    table = synth_transcripts(turns, seed)
    for i in range(0, table.num_rows, ROWS_PER_FILE):
        pq.write_table(table.slice(i, ROWS_PER_FILE),
                       os.path.join(tmp, f"part-{i // ROWS_PER_FILE:05d}.parquet"))
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    os.rename(tmp, out)
    return out


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, capped by a cgroup
    CPU quota when one is set (v2 ``cpu.max`` or v1 ``cpu.cfs_quota_us``)."""
    cores = len(os.sched_getaffinity(0))
    quota = period = None
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            q, p = f.read().split()
        if q != "max":
            quota, period = int(q), int(p)
    except (OSError, ValueError):
        try:
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
                q = int(f.read())
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
                p = int(f.read())
            if q > 0 and p > 0:
                quota, period = q, p
        except (OSError, ValueError):
            pass
    if quota:
        cores = min(cores, max(1, -(-quota // period)))
    return cores


@functools.cache
def ray_temp_dir() -> str:
    """A fresh directory for all of the run's Ray sessions: ``.pbwork/ray``
    when its socket paths fit, else a new short directory in /tmp
    (removed at exit)."""
    tmp = os.path.join(WORK, "ray")
    if len(tmp) > RAY_DIR_MAX:
        tmp = tempfile.mkdtemp(prefix="pb-ray-", dir="/tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def start_ray(cores: int) -> float:
    """Start a fresh local Ray session pinned to this host and wait until
    all its CPUs are registered; returns seconds taken."""
    import ray
    import ray.data

    os.environ["RAY_preallocate_plasma_memory"] = "1"  # read by the raylet it starts
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"  # the benchmark sends nothing off the host
    # Ray's memory monitor kills workers when the whole host runs low on
    # memory, which depends on other tenants, not on this benchmark
    os.environ["RAY_memory_monitor_refresh_ms"] = "0"
    temp_dir = ray_temp_dir()  # the first call clears the last run's files: untimed
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=cores, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES,
             logging_level="ERROR", log_to_driver=False, _temp_dir=temp_dir)
    deadline = time.monotonic() + 30
    while ray.available_resources().get("CPU", 0) < cores and time.monotonic() < deadline:
        time.sleep(0.01)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return time.perf_counter() - t0


def with_timeout(fn, timeout_s: float):
    """``(fn(), wall seconds)``; raises PassTimeout if fn has not returned."""
    box: dict = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:  # noqa: BLE001 - re-raised in the caller
            box["err"] = e

    t = threading.Thread(target=target, daemon=True)
    t0 = time.perf_counter()
    t.start()
    t.join(timeout_s)
    wall = time.perf_counter() - t0
    if t.is_alive():
        raise PassTimeout(f"pass still running after {timeout_s:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"], wall


class Runner:
    """Runs passes of one workload: times each, checks its output, removes it."""

    def __init__(self, workload: str, expected: dict, t_start: float):
        from perfbench import workloads

        self.workload = workload
        self.expected = expected
        self.t_start = t_start
        self.fn = workloads.WORKLOADS[workload]
        self.check = workloads.check
        self.attempted = self.failed = self.mismatched = 0
        self.reasons: dict[str, int] = {}
        self.timed_out = False  # a hung pass leaves Ray unusable: no more passes

    def _fail(self, reasons: list[str]) -> None:
        self.failed += 1
        for r in reasons:
            self.reasons[r] = self.reasons.get(r, 0) + 1

    def run(self, tracer=None, inspect=None, warmup: bool = False):
        """One pass.  Returns ``(wall_s, cpu_s, peak_bytes)`` when it
        completed (even with a mismatch), else None.  Warm-up passes also
        get the slower checks (the routed sink is read back through Ray)."""
        if self.timed_out:
            return None
        from perfbench import proctree

        self.attempted += 1
        pass_dir = os.path.join(WORK, "out", f"pass-{self.attempted}")
        if tracer is not None:
            tracer.pass_id, tracer.summaries = self.attempted, []
        gc.collect()  # free the last pass's tables and object refs before the clock starts
        try:
            with proctree.TreeMonitor(os.getpid()) as tree:
                timeout = min(PASS_TIMEOUT_S, self.t_start + RUN_DEADLINE_S - time.monotonic())
                result, wall = with_timeout(lambda: self.fn(SF, pass_dir, tracer), timeout)
            reasons = self.check(self.workload, self.expected, result, full=warmup)
            if reasons:
                self.mismatched += 1
            elif inspect is not None:
                inspect(result, wall)
        except PassTimeout as e:
            print(f"stopping: {e}", file=sys.stderr)
            self._fail(["timeout"])
            self.timed_out = True
            return None
        except Exception as e:  # noqa: BLE001 - a failed pass is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self._fail([f"error:{type(e).__name__}"])
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if reasons:
            self._fail(reasons)
        return wall, tree.cpu_s, tree.peak_bytes

    def out_of_time(self) -> bool:
        return self.timed_out or time.monotonic() - self.t_start > RUN_BUDGET_S


def open_session(runner: Runner, cores: int) -> float | None:
    """Start Ray and run the untimed warm-up pass; returns the setup time,
    Ray start plus warm-up pass, or None if the warm-up pass failed."""
    import ray

    from perfbench import proctree

    try:
        init_s = start_ray(cores)
    except Exception:  # noqa: BLE001 - one retry on a clean slate, then give up
        traceback.print_exc(file=sys.stderr)
        ray.shutdown()
        proctree.stop_descendants(os.getpid())
        init_s = start_ray(cores)
    warm = runner.run(warmup=True)
    if runner.workload == "flagship_routed":
        # the warm-up's sink read-back starts surplus workers, which Ray
        # reaps during the next pass: that pass ran up to 40% slower
        runner.run()
    return None if warm is None else init_s + warm[0]


def run_timed(runner: Runner, args, cores: int) -> tuple[dict, list]:
    """End-to-end metrics: in each session, setup, then untraced passes
    for its share of --seconds."""
    import ray

    setups, passes = [], []
    for _ in range(SESSIONS):
        if runner.out_of_time():
            break
        setup_s = open_session(runner, cores)
        if setup_s is not None:
            setups.append(setup_s)
        done, t0 = len(passes), time.monotonic()
        while (len(passes) - done < MIN_PASSES_PER_SESSION
               or time.monotonic() - t0 < args.seconds / SESSIONS):
            if runner.out_of_time():
                break
            p = runner.run()
            if p is not None:
                passes.append(p)
        if runner.timed_out:
            break
        ray.shutdown()
    if not passes or not setups:
        return {}, []
    wall = statistics.median(p[0] for p in passes)
    values = {
        "wall_s": wall,
        "rows_per_s": args.turns / wall,
        "cpu_s": statistics.median(p[1] for p in passes),
        "peak_rss_mb": statistics.median(p[2] for p in passes) / 2**20,
        "setup_s": statistics.median(setups),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, [p[0] for p in passes]


def run_traced(runner: Runner, args, cores: int, corpus_dir: str):
    """Per-layer metrics: untraced and traced passes in turn for --seconds."""
    from perfbench import layers, tracing, workloads

    open_session(runner, cores)
    trace_dir = os.path.join(WORK, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    tracer = tracing.Tracer(trace_dir)
    plain, traced, per_pass = [], [], []

    def inspect(result, wall):
        blocks = layers.read_blocks(tracer.summaries)
        spans = tracer.collect(tracer.pass_id, BATCH_SPAN.get(runner.workload), blocks)
        per_pass.append(layers.pass_metrics(runner.workload, spans, tracer.summaries,
                                            wall, result, cores))

    t0 = time.monotonic()
    while len(traced) < MIN_TRACED_PASSES or time.monotonic() - t0 < args.seconds:
        if runner.out_of_time():
            break
        p = runner.run()
        if p is not None:
            plain.append(p[0])
        with tracer.stats_capture():
            p = runner.run(tracer, inspect)
        if p is not None:
            traced.append(p[0])
    if not per_pass or not plain:
        return {}, traced
    values = {k: statistics.median(m[k] for m in per_pass) for k in layers.UNITS}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    if runner.workload == "conv_shuffle":
        values["shuffle.bucket_skew"] = layers.bucket_skew(corpus_dir)
    else:
        values["stages.kernels_single_s"] = workloads.kernels_single(SF)
    metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in values.items()}
    return metrics, traced


def host_report(args, cores: int, corpus_dir: str) -> dict:
    import duckdb
    import pyarrow
    import ray
    import ray.data

    files = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".parquet"))
    with open("/proc/meminfo") as f:
        ram_kb = int(next(line for line in f if line.startswith("MemTotal:")).split()[1])
    sha = None  # a checkout that is not a git repository has none
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in (PACKAGE, "perfbench"):
        for dirpath, dirnames, names in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for n in sorted(names):
                if n.endswith(".py"):
                    path = os.path.join(dirpath, n)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds, "turns": args.turns,
        "input_files": len(files),
        "input_bytes": sum(os.path.getsize(os.path.join(corpus_dir, f)) for f in files),
        "nproc": cores, "ram_mb": ram_kb // 1024,
        "ray": ray.__version__, "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__,
        "python": sys.version.split()[0], "git_sha": sha, "source_sha256": digest.hexdigest(),
        "shuffle_strategy": str(ray.data.DataContext.get_current().shuffle_strategy),
    }


def main(argv=None) -> int:
    t_start = time.monotonic()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"{PACKAGE} is not next to perfbench/: nothing to benchmark", file=sys.stderr)
        return 2
    cores = usable_cores()
    corpus_root = os.path.join(WORK, "corpus", f"seed{args.seed}-turns{args.turns}")
    # the package reads the corpus location at import; Ray workers inherit
    # the environment, so they import the package and perfbench from ROOT
    os.environ["GRAFT_TRANSCRIPTS_DIR"] = corpus_root
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, ROOT)
    shutil.rmtree(os.path.join(WORK, "out"), ignore_errors=True)

    corpus_dir = make_corpus(corpus_root, args.seed, args.turns)
    import ray

    from perfbench import proctree, reference

    if args.workload == "conv_shuffle":
        expected = {"shuffle": reference.shuffle_summaries(corpus_dir)}
    else:
        expected = {"flagship": reference.flagship_counts(corpus_dir)}
    runner = Runner(args.workload, expected, t_start)
    try:
        if args.trace:
            metrics, walls = run_traced(runner, args, cores, corpus_dir)
        else:
            metrics, walls = run_timed(runner, args, cores)
        report = host_report(args, cores, corpus_dir)
    finally:
        # on every way out: no Ray process outlives the run
        ray.shutdown()
        proctree.stop_descendants(os.getpid())
        if ray_temp_dir.cache_info().currsize and not ray_temp_dir().startswith(WORK):
            shutil.rmtree(ray_temp_dir(), ignore_errors=True)
    report.update({
        "passes": len(walls), "pass_wall_s": walls,
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / max(1, runner.attempted),
        "failure_reasons": runner.reasons, "metrics": metrics,
    })
    if not metrics:
        print(f"no metrics: no pass completed; failures: {runner.reasons}", file=sys.stderr)
    print(json.dumps(report))
    if metrics:
        print(json.dumps({"correct": runner.mismatched == 0, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": metrics}))
    sys.stdout.flush()
    code = 0 if metrics else 1
    if runner.timed_out:
        os._exit(code)  # the hung pass's thread cannot be joined
    return code


if __name__ == "__main__":
    sys.exit(main())
