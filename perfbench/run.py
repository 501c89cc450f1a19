"""convqec benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload mc_short_blocks --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; convqec is imported from ./src and
nowhere else.  With ``--trace 0`` the run measures the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced repetitions of each job and reports the per-layer metrics, including
the tracing overhead.  Every run checks the program's outputs; the last
stdout line is the JSON result, and the exit code is 1 when a check failed.
A record with provenance (and, when traced, every span) is written to
.perfbench_out/.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy is imported; set-up probes inherit these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh probe processes
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name: str, seed: int, active: bool):
    """Import numpy and convqec, build the code and channel, and make one
    warm-up call; returns (workloads module, workload, tracer, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and convqec

    origin = Path(workloads.sim.__file__).resolve().parent.parent
    if origin != SRC.resolve():
        raise ImportError(f"convqec was imported from {origin}, expected {SRC}")
    if name not in workloads.WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    golden = json.loads((BENCH_DIR / "golden.json").read_text()).get(name)
    tracer = workloads.Tracer(active)
    workload = workloads.WORKLOADS[name](seed, tracer, golden if seed == DEFAULT_SEED else None)
    tracer.active = False
    return workloads, workload, tracer, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process (import included), run to completion."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_job(workloads, workload, tracer, r: int, traced: bool):
    tracer.active, tracer.job = traced, r
    try:
        return workload.job(r)
    except Exception:  # a raised job fails all its operations; keep measuring
        traceback.print_exc()
        return workloads.JobResult(None, [], 0, workload.ops_per_job, workload.ops_per_job)
    finally:
        tracer.active = False


def run_jobs(workloads, workload, tracer, seconds: float, traced: bool):
    """Repeat jobs 0, 1, 2, ... while the next one still fits in ``seconds``
    (at least one, and enough for the workload's latency samples).  A traced
    run follows each untraced job with a traced repetition of it."""
    untraced, traced_jobs = [], []
    start = time.perf_counter()
    r = 0
    while True:
        untraced.append(run_job(workloads, workload, tracer, r, False))
        if traced:
            traced_jobs.append(run_job(workloads, workload, tracer, r, True))
        r += 1
        elapsed = time.perf_counter() - start
        samples = sum(len(j.latencies_s) for j in untraced)
        if elapsed * (r + 1) / r > seconds and samples >= workload.min_latency_samples:
            return untraced, traced_jobs


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(jobs, setup_samples):
    ok = [j for j in jobs if j.wall_s is not None]
    if not ok:
        return {}
    latencies = [x for j in ok for x in j.latencies_s]
    return {
        "block_trials_per_s": statistics.median(j.blocks / j.wall_s for j in ok),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "wall_s": statistics.median(j.wall_s for j in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def layer_values(workload, tracer, untraced, traced, record) -> dict:
    """Per-layer metrics of a traced run; adds its spans to ``record``."""
    values = {"code.build_s": tracer.total("code.build")}
    ok_traced = [j.wall_s for j in traced if j.wall_s is not None]
    ok_untraced = [j.wall_s for j in untraced if j.wall_s is not None]
    if ok_traced and ok_untraced:
        values["trace.overhead_frac"] = (statistics.median(ok_traced)
                                         / statistics.median(ok_untraced) - 1)
        tracer.active, tracer.job = True, None  # spans of traced-only diagnostics
        values.update(workload.layer_metrics(list(range(len(traced)))))
        tracer.active = False
    root_spans = tracer.named("sim.run_trials")
    if root_spans:
        record["run_trials_span_share_of_traced_wall"] = (
            sum(s["end"] - s["start"] for s in root_spans) / sum(ok_traced))
    record["traced_job_walls_s"] = [j.wall_s for j in traced]
    record["self_time_by_layer_s"] = tracer.self_time_by_layer()
    record["spans"] = tracer.spans
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, workload, tracer, setup_s = setup(args.workload, args.seed, bool(args.trace))
    except (ImportError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_SAMPLES - 1)]
    workload.prepare()

    untraced, traced = run_jobs(workloads, workload, tracer, args.seconds, bool(args.trace))
    check_attempted, check_failed = workload.check()
    attempted = sum(j.attempted for j in untraced + traced) + check_attempted
    failed = sum(j.failed for j in untraced + traced) + check_failed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"provenance": provenance(args, workloads.np.__version__),
              "setup_samples_s": setup_samples,
              "job_walls_s": [j.wall_s for j in untraced]}
    if args.trace:
        values = layer_values(workload, tracer, untraced, traced, record)
        wanted = spec["per_layer"]
        record["not_exercised"] = [m["name"] for m in wanted if m["name"] not in values]
    else:
        values = end_to_end(untraced, setup_samples)
        wanted = spec["end_to_end"]
        record["latency_samples"] = sum(len(j.latencies_s) for j in untraced)
    # Layers a workload never calls were busy for no time at all.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record.update(attempted=attempted, failed=failed, metrics=metrics, notes=workload.notes)

    for key in ("latency_samples", "not_exercised", "run_trials_span_share_of_traced_wall",
                "self_time_by_layer_s"):
        if key in record:
            print(f"{key}: {record[key]}")
    for name, value in workload.notes.items():
        print(f"{name}: {value}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"failed_frac = {failed / attempted!r} fraction ({failed} of {attempted})")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
