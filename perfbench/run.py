"""Benchmark of toricstab: set-up, end-to-end job lists, and a traced layer run.

Run from the repository root:

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 15 --trace 0

Workloads (jobs.py): ``verdict``, ``survey``, ``chow`` and ``hull``.  One
process runs the workload's jobs one after another: a closed loop with one
client.  It first sets up several times (import the package and the CLI, load
the corpus), then runs passes over the job list while another pass fits in
``--seconds``, at least one pass, and sets up as many times again after them.
Every job's output is checked; a wrong or failed job makes the run exit 1.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` sets up once, runs one untraced pass and then one pass with
spans around every call into the package's layers (tracer.py), and prints the
per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, and with
``--trace 1`` all spans, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# Set-ups per --trace 0 run, half before the measured passes and half after,
# so that the median samples the host's speed at both ends of the run.
SETUP_REPEATS = 16

sys.path.insert(0, str(HERE))
import jobs  # noqa: E402
from tracer import Tracer  # noqa: E402


def set_up() -> float:
    """Seconds to import toricstab and its CLI and load the corpus, from scratch.

    Loading the corpus parses every entry and builds and cross-checks both
    representations of each polytope, which every CLI call pays.
    """
    for name in [k for k in sys.modules if k == "toricstab" or k.startswith("toricstab.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("toricstab.cli")
    sys.modules["toricstab.corpus"].load_corpus()
    return time.perf_counter() - start


def run_pass(job_list, tracer: Tracer | None = None):
    """Run every job once; return the pass wall time and (name, seconds, error)."""
    results = []
    begin = time.perf_counter()
    for k, (name, job) in enumerate(job_list):
        start = time.perf_counter()
        try:
            error = tracer.run_job(k, job) if tracer else job()
        except Exception as exc:  # a job that raises fails; the run goes on
            traceback.print_exc()
            error = f"raised {type(exc).__name__}: {exc}"
        results.append((name, time.perf_counter() - start, error))
    return time.perf_counter() - begin, results


def report_jobs(label: str, results) -> None:
    for name, secs, error in results:
        print(f"{label} {name:16s} {secs:9.3f} s  {'ok' if error is None else 'FAILED: ' + error}")


def measure(job_list, seconds: int):
    """Passes while another one fits in ``seconds``, at least one; the
    end-to-end values and the job results."""
    deadline = time.perf_counter() + seconds
    walls, results = [], []
    while True:
        gc.collect()
        wall, res = run_pass(job_list)
        report_jobs(f"pass {len(walls) + 1}", res)
        walls.append(wall)
        results.extend(res)
        if time.perf_counter() + wall > deadline:
            break
    latencies = [secs for _, secs, _ in results]
    print(f"passes {len(walls)}, job latency samples {len(latencies)}")
    values = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, results, sum(walls)


def measure_traced(job_list, spans_path: Path):
    """One untraced pass, then one traced pass; per-layer values and job results."""
    gc.collect()
    base_wall, base = run_pass(job_list)
    report_jobs("untraced", base)
    tracer = Tracer()
    tracer.install()
    gc.collect()
    try:
        wall, traced = run_pass(job_list, tracer)
    finally:
        tracer.uninstall()
    report_jobs("traced  ", traced)
    values = tracer.summary()
    values["trace.untraced_wall_s"] = base_wall
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - base_wall
    tracer.write(spans_path)
    print(f"tracing overhead {values['trace.overhead_s']:.3f} s "
          f"(traced pass {wall:.3f} s minus untraced pass {base_wall:.3f} s)")
    print(f"spans {values['spans']} written to {spans_path.relative_to(ROOT)}")
    return values, base + traced, base_wall + wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toricstab" / "__init__.py").is_file():
        print(f"error: no toricstab package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    diagnostics = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    setups = [set_up() for _ in range(1 if args.trace else SETUP_REPEATS // 2)]
    job_list = jobs.build(args.workload, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cpu_start = time.process_time()
    if args.trace:
        values, results, wall = measure_traced(job_list, OUT_DIR / f"spans-{stem}.json")
        declared = spec["per_layer"]
    else:
        values, results, wall = measure(job_list, args.seconds)
        declared = spec["end_to_end"]
    diagnostics["measured_wall_s"] = wall
    diagnostics["measured_cpu_s"] = time.process_time() - cpu_start
    if not args.trace:
        del job_list
        setups += [set_up() for _ in range(SETUP_REPEATS - len(setups))]
        values["setup_s"] = statistics.median(setups)
    diagnostics["setup_s_samples"] = setups

    failed = sum(error is not None for _, _, error in results)
    print(f"failed_frac {failed / len(results)} ({failed} of {len(results)} jobs)")
    print("diagnostics " + json.dumps(diagnostics))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "diagnostics": diagnostics,
        "jobs": [{"name": n, "seconds": s, "error": e} for n, s, e in results],
        "values": values,
    }
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
