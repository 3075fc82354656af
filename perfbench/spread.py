#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workloads cold_ldbc,warm_ldbc --seeds 1-10 \
        [--seconds 10] [--trace 0]

Spread is the distance between the first and third quartile of a metric's
values (statistics.quantiles(values, n=4)) as a share of their median, next
to the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{\"correct\""):
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{workload:<14} {name:<28} median {med:>14.4f}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
