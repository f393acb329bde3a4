#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then checks that
  * the generators are deterministic in the seed, and the known answers of
    the small instances agree with the hand-written samples
    (philosophers3.cop deadlocks; filter/2 behaves as peterson.cop)
    -- `copar-perfbench --selftest samples`;
  * on every workload, a short timed run and a traced run report no wrong
    verdict (failed_frac == 0), print exactly the metrics BENCHMARK.json
    names, each with its unit, and show the gaps the seed is known to have
    (par_over_seq_configs > 1 on explore_par, witness_over_space > 1 on
    check_auto).
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def check(ok, what):
    if not ok:
        sys.exit("selftest FAILED: " + what)
    print("ok  " + what)


def bench(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and lines, "%s --trace %d exits 0" % (workload, trace))
    return lines[:-1], json.loads(lines[-1])


def main():
    binary = run.build()
    check(subprocess.run([binary, "--selftest", os.path.join(ROOT, "samples")]).returncode == 0,
          "generators and known answers (copar-perfbench --selftest)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            text, result = bench(binary, w, trace)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s --trace %d prints every %s metric with its unit" % (w, trace, kind))
            printed = {line.split()[0]: line.split()[-1] for line in text}
            check(printed == want, "%s --trace %d metric lines match BENCHMARK.json" % (w, trace))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s --trace %d: failed_frac == 0 (%d attempted)" % (w, trace, result["attempted"]))
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 1 and w == "explore_par":
                check(m["explore.par_over_seq_configs"] > 1,
                      "explore_par: the insertion proviso explores more than the stack proviso")
            if trace == 1 and w == "check_auto":
                check(m["explore.witness_over_space"] > 1,
                      "check_auto: witness searches scan more than the full space")
                check(m["absem.abstract_ms"] > 0 and m["explore.witness_ms"] > 0,
                      "check_auto: abstract pass and witness searches timed apart")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
