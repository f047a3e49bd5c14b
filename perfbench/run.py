#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness from source and runs
one workload of it.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; `--workload all` runs every workload in turn.  --trace 0 measures the end-to-end metrics;
--trace 1 is the separate traced run that measures the per-layer metrics.
The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics"; the lines above it are the
human-readable report (every metric with unit and sample count, the host,
the service and cache statistics).  The exit code is 0 only when every
output check passed.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# Requests per second of --seconds, per workload.  The request count depends
# on --seconds alone (not on how fast the code runs), so two commits compared
# at the same --seconds time the same number of requests and report the tail
# at the same percentile.  Calibrated so a run measures about --seconds on a
# 4-vCPU x86 VM.
RATE = {
    "report_pot3d16": 1.0,
    "analyze_minisweep16": 3.3,
    "threads_minisweep16": 1.25,
    "service_mixed": 2600.0,
    "service_disk": 1000.0,
}
MIN_REQUESTS = 20
# The service workloads draw 1 never-seen key per 20 requests from a finite
# space.
MAX_REQUESTS = {"service_mixed": 80000, "service_disk": 80000}
# setup_s is the median over this many fresh processes (the measured run's
# own set-up plus SETUP_PROCESSES - 1 set-up-only processes).
SETUP_PROCESSES = 3
# Every per-layer metric the traced run can measure.  BENCHMARK.json's
# per_layer lists the subset that every workload measures; the rest are
# printed here, or reported idle where the workload does not run that layer.
LAYER_METRICS = [
    "simmpi.events", "simmpi.events_per_s", "simmpi.engine_s", "simmpi.exec_s",
    "simmpi.ingest_s", "simmpi.barrier_wait_s", "simmpi.windows",
    "simmpi.empty_window_frac", "simmpi.trace_intervals",
    "simmpi.minflt_per_request", "simmpi.graph_events", "simmpi.graph_bytes",
    "perf.collect_s", "power.analyze_s", "core.build_report_s",
    "perf.region_rows_s", "perf.time_series_s", "power.analyze_timeline_s",
    "power.region_energy_s", "perf.wait_state_rows_s", "perf.critical_path_s",
    "core.build_report_unattributed_s", "perf.to_json_s", "perf.report_bytes",
    "perf.validate_s", "service.parse_request_us", "service.cache_key_us",
    "service.cache_get_us", "service.hit_us", "service.execute_s",
    "service.cache_put_us", "service.queue_wait_s", "service.hit_ratio",
    "service.coalesced", "service.shed", "service.timeouts",
    "machine.resolve_s", "core.make_app_s", "util.parse_json_s",
    "request.unattributed_s", "trace.overhead_frac",
]
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "core" / "runner.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    if not cache.exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    return BUILD / "perfbench"


# --- host record -----------------------------------------------------------

def read_loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def read_cpu_ticks():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        for line in Path("/proc/stat").read_text().splitlines():
            if line.startswith("cpu "):
                f = [int(x) for x in line.split()[1:]]
                return (f[7] if len(f) > 7 else 0), sum(f[:8])
    except (OSError, ValueError):
        pass
    return None


def commit_id():
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return None


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "machines", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


class HostProbe:
    def __init__(self):
        self.load0, self.cpu0 = read_loadavg(), read_cpu_ticks()

    def finish(self, child):
        load1, cpu1 = read_loadavg(), read_cpu_ticks()
        host = {
            "nproc": os.cpu_count(),
            "compiler": child.get("compiler"),
            "build_type": child.get("build_type"),
            "commit": commit_id(),
            "source_sha256": source_digest(),
            "loadavg_start": self.load0,
            "loadavg_end": load1,
        }
        if self.cpu0 and cpu1:
            hz = os.sysconf("SC_CLK_TCK")
            steal = cpu1[0] - self.cpu0[0]
            total = cpu1[1] - self.cpu0[1]
            host["steal_s"] = steal / hz
            host["steal_frac"] = steal / total if total > 0 else 0.0
        return host


# --- child processes -------------------------------------------------------

class Child:
    """Runs one perfbench process to completion (killed on timeout or when
    this script is terminated) and returns its result record."""

    current = None

    @classmethod
    def run(cls, cmd):
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        cls.current = proc
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"perfbench timed out after {CHILD_TIMEOUT_S:.0f} s")
        finally:
            cls.current = None
        result = None
        for line in out.splitlines():
            if line.startswith("PERFBENCH_RESULT "):
                try:
                    result = json.loads(line[len("PERFBENCH_RESULT "):])
                except json.JSONDecodeError as e:
                    raise BenchError(f"unreadable perfbench result: {e}")
            else:
                print("  " + line)
        if result is None:
            raise BenchError(f"perfbench exited {proc.returncode} without a result")
        result["returncode"] = proc.returncode
        result["setup_s"] = result["setup_done_monotonic_s"] - t_spawn
        return result

    @classmethod
    def stop(cls):
        proc = cls.current
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()


def on_signal(signum, _frame):
    Child.stop()
    raise SystemExit(128 + signum)


# --- main ------------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}"


def report_end_to_end(args, spec, main, setups):
    e2e = main["end_to_end"]
    n = e2e["request_samples"]
    setup_values = [r["setup_s"] for r in setups]
    values = {
        "setup_s": statistics.median(setup_values),
        "request_s_p50": e2e["request_s_p50"],
        "request_s_tail": e2e["request_s_tail"],
        "cpu_s_per_request": e2e["cpu_s_per_request"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "failed_frac": e2e["failed_frac"],
    }
    notes = {
        "setup_s": f"median of {len(setup_values)} processes: "
                   + ", ".join(fmt(v) for v in setup_values),
        "request_s_p50": f"n={n}",
        "request_s_tail": f"p{e2e['request_s_tail_pct']:.4g}, "
                          f"{e2e['request_s_tail_above']} samples above, n={n}",
        "cpu_s_per_request": f"user+sys over the timed phase / {main['attempted']} requests; "
                             f"sys {fmt(e2e['cpu_sys_s_per_request'])} s, "
                             f"{e2e['minflt_per_request']:.0f} minor faults per request",
        "peak_rss_mb": "measured process",
        "failed_frac": f"{main['failed']} of {main['attempted']}",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.setdefault("failed_frac", "fraction")
    print(f"end-to-end metrics ({args.workload}, seed {args.seed}):")
    for name, v in values.items():
        print(f"  {name:<20} {fmt(v):>12} {units.get(name, ''):<8} ({notes[name]})")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def report_per_layer(args, spec, main):
    layers = main["per_layer"]
    print(f"per-layer metrics ({args.workload}, seed {args.seed}, medians over "
          f"traced requests; *_unattributed_s = time the re-called components "
          f"do not cover):")
    for name in sorted(set(layers) | set(LAYER_METRICS)):
        value = fmt(layers[name]) if name in layers else "idle on this workload"
        print(f"  {name:<36} {value}")
    p50 = main["end_to_end"]["request_s_p50"]
    if "trace.overhead_frac" in layers:
        print(f"  tracing overhead: traced request p50 is "
              f"{100 * layers['trace.overhead_frac']:+.2f}% against the untraced "
              f"p50 {fmt(p50)} s measured in the same process")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        raise BenchError(f"traced run did not measure {', '.join(missing)}")
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def run_all(args):
    """--workload all: runs every workload in turn (each in its own run.py
    process, exactly as a single-workload call) and sums the outcome."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in sorted(RATE):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError(f"{workload} exited {done.returncode} without a result")
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}/{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATE) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)

    signal.signal(signal.SIGTERM, on_signal)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    binary = build()

    requests = max(MIN_REQUESTS, round(args.seconds * RATE[args.workload]))
    requests = min(requests, MAX_REQUESTS.get(args.workload, requests))
    tmp = BUILD / "tmp"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--requests", str(requests), "--tmp", str(tmp)]
    try:
        probe = HostProbe()
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            spans = traces / f"{args.workload}-seed{args.seed}.spans.jsonl"
            main_run = Child.run(cmd + ["--trace", "--spans", str(spans)])
            runs = [main_run]
        else:
            setups = [Child.run(cmd + ["--setup-only"])
                      for _ in range(SETUP_PROCESSES - 1)]
            main_run = Child.run(cmd)
            runs = setups + [main_run]
        host = probe.finish(main_run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"host: nproc {host['nproc']}, {host['compiler']}, {host['build_type']}, "
          f"commit {host['commit'] or 'n/a (not a git checkout)'}, "
          f"sources sha256 {host['source_sha256'][:16]}, "
          f"loadavg {host['loadavg_start']} -> {host['loadavg_end']}, "
          f"steal {host.get('steal_s', 0):.2f} s ({100 * host.get('steal_frac', 0):.2f}% of CPU time)")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
        metrics = report_per_layer(args, spec, main_run)
    else:
        metrics = report_end_to_end(args, spec, main_run, setups + [main_run])

    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for f in r["failures"]:
            print(f"FAILED: {f}")
    correct = failed == 0 and all(r["returncode"] == 0 for r in runs)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "requests": requests, "host": host,
              "runs": runs, "metrics": metrics}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
