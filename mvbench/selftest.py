#!/usr/bin/env python3
"""Benchmark self-test: every workload, tiny, traced and untraced.

    python3 mvbench/selftest.py [--seed N]

Run from the root of an mvqoe checkout (builds like run.py). Each
workload runs once with --trace 0 and once with --trace 1 in tiny mode
(small passes; the figures are not comparable with real runs) and the
self-test checks the output schema against BENCHMARK.json:

  * every end-to-end name is printed untraced and every per-layer name
    traced, each with the unit BENCHMARK.json gives and a sample count;
  * the tail percentile has at least ten samples beyond it;
  * every output check passed, and the traced and untraced runs of one
    seed report the same digests.

Exit status 0 when all hold, 1 otherwise.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    opts = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = argparse.Namespace(workload=workload, seed=opts.seed, seconds=1.0,
                                      trace=trace, tiny=True)
            result = run.measure(args)
            tag = "%s trace=%d" % (workload, trace)
            expect(result["failed"] == 0, "%s: %d failed operations" % (tag, result["failed"]))
            for m in names:
                got = result["metrics"].get(m["name"])
                expect(got is not None, "%s: metric %s missing" % (tag, m["name"]))
                if got is None:
                    continue
                expect(got["unit"] == m["unit"],
                       "%s: %s unit %s, expected %s" % (tag, m["name"], got["unit"], m["unit"]))
                expect(isinstance(got["n"], int), "%s: %s has no sample count" % (tag, m["name"]))
            extra = set(result["metrics"]) - {m["name"] for m in names}
            expect(not extra, "%s: metrics not in BENCHMARK.json: %s" % (tag, sorted(extra)))
            if trace == 0:
                note = result["metrics"].get("unit_tail_ms", {}).get("note", "")
                found = re.search(r"(\d+) samples beyond", note)
                expect(found and int(found.group(1)) >= 10,
                       "%s: tail has fewer than 10 samples beyond it (%s)" % (tag, note))
            digests[trace] = result["digests"]
            print("%-34s %d metrics, %d checks, digests %s" % (
                tag, len(result["metrics"]), len(result["checks"]),
                " ".join(sorted(result["digests"].values()))), flush=True)
        expect(digests[0] == digests[1],
               "%s: traced digests %s differ from untraced %s" % (workload, digests[1], digests[0]))

    for p in problems:
        print("SELFTEST FAILED: " + p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
