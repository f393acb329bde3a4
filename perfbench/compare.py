#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload and metric by metric.

    # run both checkouts on seeds 1-10 of every workload, alternating which goes first
    python3 perfbench/compare.py run --base PARENT_DIR --new CHANGE_DIR --out DIR
    # compare two records made earlier
    python3 perfbench/compare.py report BASE.jsonl NEW.jsonl

A record is a JSON-lines file, one line per run:
{"workload": ..., "seed": ..., "result": <the benchmark's result object>}.

For each workload and end-to-end metric of BENCHMARK.json, the report gives
each side's median and quartiles, the median of the per-seed ratios new/base
with their spread (quartile distance as a share of their median), and one
verdict (the choosing-metrics rules). Runs of one seed see the same corpus
and, alternated, the same phase of the host, so the ratio spread is the
noise of the comparison with the seed's own variation taken out:

  unresolved  fewer than ten seeds were paired, or the ratio spread exceeds
              the metric's bound and not every run of the change reads
              better than every run of the parent;
  improved    the change wins at least 9 of 10 seed-paired runs (ties count
              for neither) and the medians differ by more than the parent's
              spread between its quartiles;
  regressed   the median ratio is worse than 1 by more than the bound;
  unchanged   otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Every comparison pairs these seeds; the 9-of-10 rule needs all ten.
SEEDS = range(1, 11)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    """Runs the benchmark in `checkout`; returns its result object."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def load_record(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["seed"])] = r["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    m = statistics.median(values)
    return (q3 - q1) / abs(m) if m else 0.0


def verdict(base, new, better, bound):
    """base/new: values paired by seed (same order). Returns (verdict, wins, ratios)."""
    sign = 1 if better == "lower" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    bq1, bq3 = quartiles(base)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    ratios = [n / b if b else 1.0 for b, n in zip(base, new)]
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if len(base) < len(SEEDS) or (spread(ratios) > bound and not all_better):
        return "unresolved", wins, ratios
    if wins >= 0.9 * len(base) and abs(mn - mb) > (bq3 - bq1) and sign * (mn - mb) < 0:
        return "improved", wins, ratios
    if sign * (statistics.median(ratios) - 1) > bound:
        return "regressed", wins, ratios
    return "unchanged", wins, ratios


def report(base_runs, new_runs):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-12s %-14s %24s %24s %16s %6s  %s" % ("workload", "metric", "base median [q1, q3]",
                                                  "new median [q1, q3]", "new/base (spread)",
                                                  "won", "verdict"))
    regressed = False
    for w in workloads:
        seeds = sorted(s for (wl, s) in base_runs if wl == w and (wl, s) in new_runs)
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [base_runs[(w, s)]["metrics"][name]["value"] for s in seeds]
            new = [new_runs[(w, s)]["metrics"][name]["value"] for s in seeds]
            v, wins, ratios = verdict(base, new, m["better"], m["bound"])
            fmt = lambda vals: "%.4g [%.4g, %.4g]" % ((statistics.median(vals),) + quartiles(vals))
            ratio = "%.3f (%.3f)" % (statistics.median(ratios), spread(ratios))
            print("%-12s %-14s %24s %24s %16s %3d/%-2d  %s" % (w, name, fmt(base), fmt(new), ratio,
                                                              wins, len(seeds), v))
            regressed = regressed or v == "regressed"
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run both checkouts, alternating, then report")
    r.add_argument("--base", required=True)
    r.add_argument("--new", required=True)
    r.add_argument("--out", required=True)
    c = sub.add_parser("report", help="compare two records")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()

    if args.cmd == "report":
        return report(load_record(args.base), load_record(args.new))

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    paths = {side: os.path.join(args.out, side + ".jsonl") for side in ("base", "new")}
    files = {side: open(path, "w") for side, path in paths.items()}
    with files["base"], files["new"]:
        for w in workloads:
            for seed in SEEDS:
                order = ("base", "new") if seed % 2 else ("new", "base")
                for side in order:
                    checkout = os.path.abspath(getattr(args, side))
                    result = run_once(checkout, w, seed, spec["run_seconds"])
                    files[side].write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
                    files[side].flush()
    return report(load_record(paths["base"]), load_record(paths["new"]))


if __name__ == "__main__":
    sys.exit(main())
