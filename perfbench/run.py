"""Benchmark of the oddkh library: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cobordism_maps --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs single-threaded in a fresh worker process.  The set-up
time is sampled by starting several extra workers, before and after the
measured one, that stop once their inputs are ready.  With --trace 0 the
last line of output is one JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.
Every run also writes a result file (environment, metrics, per-job
details) under --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("homology_z", "homology_mod2_wide", "cobordism_maps")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "gens_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def worker(args, extra, timeout: float) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.time()), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    """Set-up samples plus one measured run of one workload."""
    began = time.monotonic()
    env = environment(args.seed)
    # Half the set-up samples before the measured run, half after it, so
    # that their median does not hang on one moment of a shared host.
    setups = [worker(args, ["--setup-only"], 30)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    extra = []
    spans_file = None
    if args.trace:
        spans_file = os.path.join(args.out, f"{args.workload}.seed{args.seed}.spans.jsonl.gz")
        extra = ["--spans", spans_file]
    remaining = TIME_LIMIT_S - 15 - (time.monotonic() - began)
    res = worker(args, extra, remaining)
    setups.append(res["setup_s"])
    setups += [worker(args, ["--setup-only"], 30)["setup_s"]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    out = {"correct": False, "attempted": res["attempted"], "failed": res["failed"], "metrics": {}}
    if args.trace:
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    elif "end_to_end" in res:
        e2e = dict(res["end_to_end"], setup_s=statistics.median(setups), peak_rss_mb=res["peak_rss_mb"])
        out["metrics"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    out["correct"] = res["failed"] == 0 and bool(out["metrics"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "setup_samples": setups,
        "error_rate": res["failed"] / res["attempted"],
        "job_count": len(res["jobs"]),
        "measured_s": res["measured_s"],
        "spans_file": spans_file,
        "jobs": res["jobs"],
        "result": out,
    }
    path = os.path.join(args.out, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record) -> None:
    out = record["result"]
    env = record["environment"]
    print(f"# {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"commit {env['commit']}  nproc {env['nproc']}  python {env['python']}  "
          f"load {env['loadavg'][0]:.2f}  cpu {env['cpu_model']}")
    for name, m in out["metrics"].items():
        print(f"{record['workload']:>20}  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{record['workload']:>20}  {'jobs':<40} {record['job_count']:>14d} count")
    print(f"{record['workload']:>20}  {'error_rate':<40} {record['error_rate']:>14.6g} ratio "
          f"({out['failed']} of {out['attempted']} job runs failed)")
    for job in record["jobs"]:
        for msg in job["errors"] + job["failures"]:
            print(f"# FAILED {job['kind']} {job.get('source')}: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(".bench_build", "perfbench"),
                    help="directory for result files, relative to the repository root")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "oddkh", "__init__.py")):
        print(f"error: no oddkh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    args.out = os.path.join(ROOT, args.out)
    os.makedirs(args.out, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            record = measure(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 2
        report(record)
        results.append(record["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
