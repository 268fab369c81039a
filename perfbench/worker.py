"""Run one workload in this process: set up, time the jobs, check them.

Started by run.py, once per measurement and a few more times with
--setup-only to sample the set-up time.  Prints one JSON object as its
last line of output.

Untimed work (garbage collection, summaries, checks) happens between or
after the timed calls, never inside them.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def run_pass(jobs, state, tracer=None, deadline=None, pass_no=0) -> float:
    """Run each job once in order (or until `deadline`); returns the pass wall time."""
    wall = 0.0
    for j, job in enumerate(jobs):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        gc.collect()
        sid = None
        if tracer is not None:
            tracer.job = f"{pass_no}:{j}"
            sid = tracer.begin(f"job.{job.kind}")
        t0 = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as e:  # a job that raises is a failed job, not a crash
            out, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if sid is not None:
            tracer.end(sid)
        wall += dt
        rec = state[j]
        rec["runs"] += 1
        if error is not None:
            rec["errors"].append(error)
            continue
        rec["seconds"].append(dt)
        summary = job.summarize(out)
        del out
        if rec["summary"] is None:
            rec["summary"] = summary
        elif summary["digest"] != rec["summary"]["digest"]:
            rec["errors"].append("output differs from the first run")
    return wall


def check_all(jobs, state) -> None:
    for job, rec in zip(jobs, state):
        if rec["summary"] is None:
            continue
        try:
            rec["failures"] = job.check(rec["summary"])
        except Exception as e:  # a check that crashes is a failed check
            rec["failures"] = [f"check raised {type(e).__name__}: {e}"]
        rec["gens"] = rec["summary"].get("gens", 0)


def tally(state) -> tuple[int, int]:
    """(attempted, failed) over job executions."""
    attempted = sum(rec["runs"] for rec in state)
    failed = 0
    for rec in state:
        if rec["summary"] is None or rec["failures"]:
            failed += rec["runs"]
        else:
            failed += len(rec["errors"])
    return attempted, failed


def end_to_end(state) -> dict:
    """Each job's time is the slowest of its rounds.

    On a shared host the run-to-run spread comes from spells in which
    the whole machine runs faster or slower.  A job's slowest round
    usually falls in the host's common loaded state, so it repeats from
    run to run more closely than its median round (perfbench/README.md
    gives the measurements).
    """
    per_job = [max(rec["seconds"]) for rec in state if rec["seconds"]]
    wall = sum(per_job)
    gens = sum(rec["gens"] for rec in state)
    return {
        "wall_s": wall,
        "job_p50_s": statistics.median(per_job),
        "job_max_s": max(per_job),
        "gens_per_s": gens / wall,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="launch time, time.time() of the parent")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans to this gzipped JSON-lines file")
    args = ap.parse_args(argv)

    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    state = [{"runs": 0, "seconds": [], "errors": [], "summary": None, "failures": [], "gens": 0}
             for _ in jobs]
    start = time.perf_counter()
    deadline = start + args.seconds
    result: dict = {"setup_s": setup_s}
    if args.trace:
        import probes
        from spans import Tracer, instrument

        tracer = Tracer()
        untraced, traced = [], []
        # Alternate whole untraced and traced passes, while another pair
        # fits before the deadline; wrappers exist only inside `instrument`.
        pair = 0.0
        while not traced or time.perf_counter() + pair < deadline:
            t0 = time.perf_counter()
            untraced.append(run_pass(jobs, state))
            with instrument(tracer, probes.targets()):
                traced.append(run_pass(jobs, state, tracer, pass_no=len(traced)))
            pair = time.perf_counter() - t0
        result["per_layer"] = probes.per_layer_metrics(tracer, traced, untraced)
        if args.spans:
            with gzip.open(args.spans, "wt") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    else:
        run_pass(jobs, state)
        while time.perf_counter() < deadline:
            run_pass(jobs, state, deadline=deadline)
    result["measured_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_all(jobs, state)
    result["attempted"], result["failed"] = tally(state)
    if not args.trace and all(rec["seconds"] for rec in state):
        result["end_to_end"] = end_to_end(state)
    result["jobs"] = [
        {"kind": job.kind, **job.meta, "payload": job.payload, "runs": rec["runs"],
         "seconds": rec["seconds"], "gens": rec["gens"],
         "errors": rec["errors"][:3], "failures": rec["failures"]}
        for job, rec in zip(jobs, state)
    ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
