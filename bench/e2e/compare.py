#!/usr/bin/env python3
"""Compares two sets of bench_e2e results against BENCHMARK.json.

    python3 bench/e2e/compare.py --base base/*.json --new new/*.json

Each file is a BENCH_e2e.json written by one bench_e2e run (copy it aside
after each run: every run overwrites it).  For each workload and metric the
script prints both sets' median and quartiles and a verdict:

  better      at least 10 run pairs (runs are paired in the order given), the
              new set wins at least 9 in 10 of them (ties count for neither
              side), and the medians differ by more than the base set's
              interquartile range;
  worse       the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json (per-layer metrics, which have
              no bound, use the rule for `better` mirrored);
  unresolved  a set's spread (interquartile range over median) exceeds the
              bound and not every new run reads better than every base run;
              for a per-layer metric, fewer than 10 run pairs;
  same        otherwise.

Metrics in counts, rounds, words or ratios are pure functions of the seeded
stream: runs with the same seed must read identically, and between the sets
any change is reported as better or worse.  The script fails (exit 1) when
such a count differs between same-seed runs of one set, when a file's metric
names or units differ from BENCHMARK.json, when a run was incorrect, or when
an end-to-end metric is `worse`.  When a set holds traced and untraced runs
of a workload, it also reports the tracing overhead on the front-end calls.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

COUNT_UNITS = {"count", "rounds", "words", "ratio"}
MIN_PAIRS = 10  # fewest run pairs a gain (or an unbounded loss) rests on
DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "..", "BENCHMARK.json")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(paths, spec, failures):
    """Returns {(workload, trace): [run, ...]} in the order given."""
    declared = {0: {m["name"]: m for m in spec["end_to_end"]},
                1: {m["name"]: m for m in spec["per_layer"]}}
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        trace = int(run["trace"])
        names = set(run["metrics"])
        expected = set(declared[trace])
        for name in sorted(names - expected):
            failures.append(f"{path}: metric {name} is not in BENCHMARK.json")
        for name in sorted(expected - names):
            failures.append(f"{path}: BENCHMARK.json metric {name} missing")
        for name in sorted(names & expected):
            unit = run["metrics"][name]["unit"]
            if unit != declared[trace][name]["unit"]:
                failures.append(f"{path}: {name} in {unit}, BENCHMARK.json "
                                f"says {declared[trace][name]['unit']}")
        if not run["correct"]:
            failures.append(f"{path}: incorrect run ({run['failed']} of "
                            f"{run['attempted']} failed)")
        runs[(run["workload"], trace)].append(run)
    return runs


def check_repeats(label, runs, failures):
    by_seed = defaultdict(list)
    for run in runs:
        by_seed[run["seed"]].append(run)
    for seed, same in by_seed.items():
        for name, metric in same[0]["metrics"].items():
            if metric["unit"] not in COUNT_UNITS:
                continue
            values = {r["metrics"][name]["value"] for r in same}
            if len(values) > 1:
                failures.append(f"{label}: {name} differs across seed-{seed} "
                                f"runs: {sorted(values)}")


def verdict(base, new, bound, higher_better, count):
    sign = 1.0 if higher_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if count:
        if set(base) == set(new):
            return "same"
        return "better" if sign * (nm - bm) > 0 else "worse"
    pairs = list(zip(base, new))
    beyond_spread = abs(nm - bm) > (b3 - b1)

    def wins_pairs(direction):
        won = sum(1 for b, n in pairs if direction * sign * (n - b) > 0)
        return (len(pairs) >= MIN_PAIRS and beyond_spread
                and won >= 0.9 * len(pairs))

    if wins_pairs(+1):
        return "better"
    if bound is None:
        if wins_pairs(-1):
            return "worse"
        return "same" if len(pairs) >= MIN_PAIRS else "unresolved"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        every_run_better = all(sign * (n - b) > 0 for b in base for n in new)
        return "same" if every_run_better else "unresolved"
    if bm and sign * (nm - bm) / abs(bm) < -bound:
        return "worse"
    return "same"


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def overhead(runs, label):
    for (workload, trace), traced in sorted(runs.items()):
        plain = runs.get((workload, 0))
        if trace != 1 or not plain:
            continue
        for key, metrics in (("core.apply_batch", ["core.apply_batch_ms"]),
                             ("core.query", ["core.flush_ms",
                                             "core.snapshot_ms",
                                             "core.point_query_ms"])):
            t = statistics.median(sum(r["metrics"][m]["value"] for m in metrics)
                                  for r in traced)
            u = statistics.median(r["direct_ms_per_episode"][key]
                                  for r in plain)
            print(f"{label} {workload}: tracing overhead on {key}: "
                  f"{t:.6g} ms traced vs {u:.6g} ms untraced per episode "
                  f"({100.0 * (t / u - 1.0):+.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default=DEFAULT_SPEC)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    failures = []
    base = load(args.base, spec, failures)
    new = load(args.new, spec, failures)
    for label, runs in (("base", base), ("new", new)):
        for (workload, trace), group in runs.items():
            check_repeats(f"{label} {workload}", group, failures)

    verdicts = defaultdict(int)
    e2e_worse = 0
    print(f"{'workload':<13} {'metric':<26} {'base median [q1, q3]':<40} "
          f"{'new median [q1, q3]':<40} verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in sorted(base[key][0]["metrics"]):
            if name not in declared:
                continue
            b = [r["metrics"][name]["value"] for r in base[key]]
            n = [r["metrics"][name]["value"] for r in new[key]]
            m = declared[name]
            unit = base[key][0]["metrics"][name]["unit"]
            v = verdict(b, n, m.get("bound"), m["better"] == "higher",
                        unit in COUNT_UNITS)
            verdicts[v] += 1
            e2e_worse += v == "worse" and trace == 0
            print(f"{workload:<13} {name:<26} {fmt(b):<40} {fmt(n):<40} {v}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} (trace {key[1]}): in one set only, not compared")

    overhead(base, "base")
    overhead(new, "new")
    if e2e_worse:
        failures.append(f"{e2e_worse} end-to-end metric(s) worse")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(verdicts.items())))
    for failure in failures:
        print("FAIL: " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
