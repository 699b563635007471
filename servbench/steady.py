#!/usr/bin/env python3
"""Steadiness command for the serving benchmark.

Runs the command named in BENCHMARK.json several times on one workload,
each time with another seed, and prints for every metric the median, the
quartiles and (q3 - q1) / median next to the metric's bound. Run it from
the root of the repository:

    python3 servbench/steady.py --workload hot_read --runs 10
    python3 servbench/steady.py --workload write_mix --runs 5 --trace 1

`--out FILE` also writes every run's JSON result to FILE.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    key = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        steal = next(
            (l.split("host CPU steal ")[1] for l in lines if "host CPU steal" in l), "?"
        )
        results.append({"seed": seed, "steal": steal, **result})
        values = " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        )
        print(
            f"seed {seed}: steal={steal} correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} {values}",
            flush=True,
        )

    print()
    print(f"{args.workload}, {args.runs} runs, {seconds} s each, trace={args.trace}")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            mark = "ok" if spread < bound / 3 else ("within" if spread <= bound else "OVER")
        print(
            f"{name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
            f"{bound if bound is not None else '-':>6} {mark}"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"all correct: {all(r['correct'] for r in results)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
