#!/usr/bin/env python3
"""Steadiness checks for the repository benchmark.

    python3 perfbench/steady.py same-seed [--seed N] [--seconds S] [--workload W ...]
    python3 perfbench/steady.py spread [--runs N] [--first-seed N] [--seconds S] [--workload W ...]

same-seed runs every workload twice on one seed, untraced and traced, and
fails unless robustness_pct is bit-identical and the per-layer counts that
describe simulated work (prob.pmf_acquires, sim.transitions,
heuristics.map_calls, core.mapping_events) are identical.

spread runs each workload on N seeds, 1000 apart so that no two runs share
a trial (trial i of seed s draws workload seed s + i), and prints, for every
end-to-end metric, the median and the distance between the first and third
quartiles as a share of the median, against the metric's bound in
BENCHMARK.json.  It fails if a spread other than setup_s exceeds its bound.

Run from the root of a checkout; every run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_pruned", "deep_queue", "stream_long", "fed_churn")
EXACT_COUNTS = ("prob.pmf_acquires", "sim.transitions", "heuristics.map_calls",
                "core.mapping_events")


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run was not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def same_seed(args):
    ok = True
    for w in args.workload:
        for trace, names in ((0, ("robustness_pct",)), (1, EXACT_COUNTS)):
            a = bench(w, args.seed, args.seconds, trace)
            b = bench(w, args.seed, args.seconds, trace)
            for name in names:
                same = a[name] == b[name]
                ok &= same
                print(f"{w:13s} {name:22s} {a[name]!r:>22} {b[name]!r:>22} "
                      f"{'same' if same else 'DIFFERENT'}")
    return ok


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    ok = True
    for w in args.workload:
        runs = [bench(w, args.first_seed + 1000 * i, args.seconds, 0)
                for i in range(args.runs)]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            within = name == "setup_s" or share <= bound
            ok &= within
            print(f"{w:13s} {name:15s} median {med:14.6g}  spread {share:8.4f}  "
                  f"bound {bound:5.3f}  {'ok' if within else 'TOO WIDE'}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("same-seed", "spread"):
        p = sub.add_parser(name)
        p.add_argument("--seconds", type=int, default=2 if name == "same-seed" else 25)
        p.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    sub.choices["same-seed"].add_argument("--seed", type=int, default=1)
    sub.choices["spread"].add_argument("--runs", type=int, default=10)
    sub.choices["spread"].add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    ok = same_seed(args) if args.command == "same-seed" else spread(args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
