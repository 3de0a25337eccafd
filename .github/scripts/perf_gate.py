#!/usr/bin/env python3
"""The perf gate and the ledger writer; both read perfbench's results.json.

  perf_gate.py BENCHMARK.json BASE/results.json HEAD/results.json
      Every end-to-end median of HEAD against BASE, with the direction and
      bound BENCHMARK.json gives the metric. Exit 1 if any is worse than its
      bound, or if either file is not a full, all-correct run of every
      workload and metric the spec names.
  perf_gate.py --record COMMIT results.json >> BENCH_history.jsonl
      One ledger line per workload: commit, seed, threads, repetitions and
      the end-to-end medians.
"""
import json
import sys


def load(path):
    """(document, workload -> metric -> reading) of a full, all-correct run."""
    doc = json.load(open(path))
    if doc["quick"]:
        sys.exit(f"{path}: a --quick run measures too little to compare or record")
    for w in doc["workloads"]:
        if w["failed"] or w["failures"]:
            sys.exit(f"{path}: {w['name']}: {w['failed']} failed, checks {w['failures']}")
    return doc, {w["name"]: {m["name"]: m for m in w["end_to_end"]} for w in doc["workloads"]}


def record(commit, path):
    doc, runs = load(path)
    for workload, readings in runs.items():
        row = {"commit": commit, "workload": workload, "seed": doc["seed"],
               "threads": doc["threads"], "samples": readings["wall_s"]["samples"]}
        row.update((name, m["median"]) for name, m in readings.items())
        print(json.dumps(row))


def gate(spec_path, base_path, head_path):
    spec = json.load(open(spec_path))
    (base_doc, base), (head_doc, head) = load(base_path), load(head_path)
    for key in ("seed", "seconds", "threads"):
        if base_doc[key] != head_doc[key]:
            sys.exit(f"{key} differs: {base_doc[key]} vs {head_doc[key]}; not one comparison")
    worse_than_bound = []
    print("workload metric base head worse_by bound verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                a, b = base[workload][name]["median"], head[workload][name]["median"]
            except KeyError as missing:
                sys.exit(f"{workload} {name}: no {missing} in one of the results files")
            # A null (non-finite) or zero median has no ratio: NaN, which fails.
            change = (b - a) / a if a and b is not None else float("nan")
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= metric["bound"]
            print(workload, name, a, b, f"{worse:+.4f}", metric["bound"], "ok" if ok else "WORSE")
            if not ok:
                worse_than_bound.append(f"{workload} {name}")
    if worse_than_bound:
        sys.exit("perf gate: worse than the bound: " + ", ".join(worse_than_bound))
    print("perf gate: every end-to-end median within its bound")


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--record":
        record(args[1], args[2])
    elif len(args) == 3 and not args[0].startswith("-"):
        gate(*args)
    else:
        sys.exit(__doc__)
