#!/usr/bin/env python3
"""Steadiness study for the benchmark: runs every workload with fresh
seeds and summarises each end-to-end metric the way its bound in
BENCHMARK.json is applied: quartile spread and set-to-set median ratio.

Run from the repository root:

    python3 perfbench/study.py run --seeds 31-40 --out perfbench/study/set1.json
    python3 perfbench/study.py run --seeds 41-50 --out perfbench/study/set2.json
    python3 perfbench/study.py report perfbench/study/set1.json perfbench/study/set2.json
    python3 perfbench/study.py estimators perfbench/study/pilot.json

`run` executes the benchmark command once per (workload, seed), in
seed-major order so that each workload's runs spread over the whole
set, and records every result line. `report` prints, per workload and
metric, each set's median and quartiles (`statistics.quantiles(n=4)`),
the quartile spread as a share of the median, and the second set's
median over the first's. `estimators` compares, on one set, how far
several per-run estimators of `verdict_s` spread across its runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.time() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=round(wall, 3),
                  log=[line for line in done.stderr.splitlines() if line.startswith("perfbench")]
                  + lines[:-1])
    return result


def command_run(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    results = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result = run_once(spec, workload, seed, args.trace)
            results.append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={result['wall_s']} s {values}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=1)


def workloads_in(results):
    """Workload names in the order a set first ran them."""
    return list(dict.fromkeys(r["workload"] for r in results))


def summarise(results, workload, metric):
    values = [r["metrics"][metric]["value"] for r in results
              if r["workload"] == workload and metric in r["metrics"]]
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def command_report(args):
    spec = load_spec()
    sets = []
    for path in args.sets:
        with open(path) as handle:
            sets.append(json.load(handle))
    print("| workload | metric | bound | " + " | ".join(
        f"set {i + 1} median [q1, q3] (spread)" for i in range(len(sets)))
        + (" | set 2 / set 1 median |" if len(sets) == 2 else " |"))
    print("|---|---|---|" + "---|" * len(sets) + ("---|" if len(sets) == 2 else ""))
    worst = {}
    for workload in workloads_in(sets[0]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = [summarise(results, workload, name) for results in sets]
            if any(s is None for s in stats):
                continue
            cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] ({s['spread']:.1%})"
                     for s in stats]
            row = f"| {workload} | {name} | {metric['bound']} | " + " | ".join(cells)
            if len(stats) == 2:
                ratio = stats[1]["median"] / stats[0]["median"]
                row += f" | {ratio:.3f}"
            print(row + " |")
            spread = max(s["spread"] for s in stats)
            worst[name] = max(worst.get(name, 0.0), spread)
    print()
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in worst:
            print(f"- {name}: widest spread {worst[name]:.1%} against bound "
                  f"{metric['bound']:.0%} (a third is {metric['bound'] / 3:.1%})")
    failed = sum(r["failed"] for results in sets for r in results)
    attempted = sum(r["attempted"] for results in sets for r in results)
    incorrect = sum(not r["correct"] for results in sets for r in results)
    print(f"- operations failed: {failed} of {attempted}; runs not correct: {incorrect}")


def verdict_times(result):
    """Per-verdict seconds of one run, from its summary line on stderr."""
    for line in result["log"]:
        if "verdicts [" in line:
            inner = line.rsplit("verdicts [", 1)[1].rstrip("]")
            return [float(value) for value in inner.split(", ")]
    return []


def command_estimators(args):
    """Spread across runs of several per-run estimators of verdict_s."""
    with open(args.set) as handle:
        results = json.load(handle)
    estimators = {
        "floor": min,
        "mean of two fastest": lambda v: statistics.mean(sorted(v)[:2]),
        "tenth percentile": lambda v: sorted(v)[len(v) // 10],
        "median": statistics.median,
    }
    print("| workload | " + " | ".join(estimators) + " |")
    print("|---|" + "---|" * len(estimators))
    for workload in workloads_in(results):
        runs = [verdict_times(r) for r in results if r["workload"] == workload]
        cells = []
        for estimate in estimators.values():
            q1, q2, q3 = statistics.quantiles([estimate(v) for v in runs], n=4)
            cells.append(f"{(q3 - q1) / q2:.1%}")
        print(f"| {workload} | " + " | ".join(cells) + " |")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload for a range of seeds")
    run.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    run.add_argument("--out", required=True)
    run.add_argument("--trace", type=int, default=0, choices=(0, 1))
    run.add_argument("--workloads", nargs="*")
    run.set_defaults(func=command_run)
    report = sub.add_parser("report", help="summarise one or two sets")
    report.add_argument("sets", nargs="+")
    report.set_defaults(func=command_report)
    estimators = sub.add_parser("estimators", help="compare verdict_s estimators on one set")
    estimators.add_argument("set")
    estimators.set_defaults(func=command_estimators)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
