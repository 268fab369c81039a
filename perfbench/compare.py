"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files run.py writes (--out).  Runs are
paired by workload, trace setting and seed; make them alternately, parent
and change taking turns to go first.  Verdicts:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither) and the medians differ, in its favour,
  by more than the parent's interquartile distance;
- unresolved: not improved, and the parent's own spread (interquartile
  distance over median) is wider than the metric's bound, unless every
  change run reads better than every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound (for per-layer metrics, which have no bound: the parent wins as
  an improvement would, by the same rule);
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load_results(directory: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from one directory."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace[01].json"))):
        with open(path) as fh:
            rec = json.load(fh)
        metrics = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
        metrics["failed"] = rec["result"]["failed"]
        key = (rec["workload"], rec["trace"])
        out.setdefault(key, {})[rec["environment"]["seed"]] = metrics
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound) -> tuple[str, int, int]:
    """Verdict for paired runs, plus (change wins, parent wins)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    gap = sign * (med_c - med_p)
    pairs = len(parent)
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gap > iqr:
        return "improved", wins, losses
    if bound is None:
        if pairs >= MIN_PAIRS and losses >= 0.9 * pairs and -gap > iqr:
            return "worse", wins, losses
        return "unchanged", wins, losses
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if med_p and iqr / abs(med_p) > bound and not dominates:
        return "unresolved", wins, losses
    if med_p and -gap / abs(med_p) > bound:
        return "worse", wins, losses
    return "unchanged", wins, losses


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        names = [n for n in defs if all(n in parent[key][s] and n in change[key][s] for s in seeds)]
        for name in names:
            p = [parent[key][s][name] for s in seeds]
            c = [change[key][s][name] for s in seeds]
            d = defs[name]
            v, wins, losses = verdict(p, c, d["better"], d.get("bound"))
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name, "unit": d["unit"],
                "pairs": len(seeds), "parent": quartiles(p), "change": quartiles(c),
                "wins": wins, "losses": losses, "verdict": v,
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    parent, change = load_results(args.parent), load_results(args.change)
    rows = compare(parent, change, spec)
    if not rows:
        print("error: no workload has runs with the same seed on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<20} {'metric':<38} {'unit':<6} {'pairs':>5} "
          f"{'parent q1 / median / q3':>36} {'change q1 / median / q3':>36} {'W-L':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        failed = [sum(side[key][s]["failed"] for s in side[key]) for side in (parent, change)]
        if failed[1] > failed[0]:
            print(f"# {key[0]}: the change failed {failed[1]} job runs, the parent {failed[0]};"
                  " no gain counts for it")
    for r in rows:
        p = " / ".join(f"{x:.4g}" for x in r["parent"])
        c = " / ".join(f"{x:.4g}" for x in r["change"])
        print(f"{r['workload']:<20} {r['metric']:<38} {r['unit']:<6} {r['pairs']:>5} "
              f"{p:>36} {c:>36} {r['wins']:>2}-{r['losses']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
