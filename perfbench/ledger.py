#!/usr/bin/env python3
"""Run every benchmark workload over several seeds and print each metric.

    python3 perfbench/ledger.py [--seeds 1 2 3] [--workloads paper_cycle ...]
                                [--seconds N] [--trace]

Reads BENCHMARK.json (run from the repository root), runs its command once
per (workload, seed), and prints per workload and metric: unit, median, first
and third quartile, the spread (quartile distance / median) and, for
end-to-end metrics, the bound and whether the spread is under a third of it.
With --trace it also runs each seed traced, prints the per-layer metrics and
the tracing overhead (traced / untraced latency_p50_ms - 1).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    record = next((json.loads(l)["record"] for l in lines if l.startswith('{"record"')), None)
    return json.loads(lines[-1]), record


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def table(title, results, bounds):
    print(f"\n{title}")
    print(f"  {'metric':<26} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med, q1, q3, s = spread(values)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"{bound:<5} {'ok' if s < bound / 3 else 'WIDE'}"
        print(f"  {name:<26} {unit:<7} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>7.3f}  {verdict}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in opts.workloads:
        plain, traced = [], []
        for seed in opts.seeds:
            for trace, into in [(False, plain)] + ([(True, traced)] if opts.trace else []):
                result, record = run(bench["command"], workload, seed, opts.seconds, trace)
                if not result["correct"]:
                    print(f"{workload} seed {seed} trace {int(trace)}: "
                          f"{result['failed']} of {result['attempted']} operations failed")
                into.append((result, record))
        table(f"{workload}: end to end ({len(plain)} seeds)", [r for r, _ in plain], bounds)
        if traced:
            table(f"{workload}: per layer (traced)", [r for r, _ in traced], {})
            ratio = [t["end_to_end"]["latency_p50_ms"]["value"] /
                     p["end_to_end"]["latency_p50_ms"]["value"] - 1
                     for (_, p), (_, t) in zip(plain, traced)]
            print(f"  tracing overhead on latency_p50_ms: median {statistics.median(ratio):+.4f} "
                  f"(per seed: {', '.join(f'{r:+.4f}' for r in ratio)})")


if __name__ == "__main__":
    main()
