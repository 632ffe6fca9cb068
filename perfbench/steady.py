#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--seed 1000] [--trace]
        [--save FILE] [--against FILE]

Runs every workload of BENCHMARK.json --runs times through
perfbench/run.py, for its run_seconds, one seed per round (--seed,
--seed+1, ...), alternating the workload order between rounds. For each
(workload, metric) it prints the median, the first and third quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the
median, and the max/min spread. A metric whose quartile spread is not
below a third of its BENCHMARK.json bound is flagged;
setup_s is exempt from the spread rule. With --trace every round also
makes a traced run, and the tracing overhead is printed as the change of
the traced end-to-end figures against the untraced ones. --save writes
the untraced values to FILE; --against compares this set's medians with
a saved set and flags every (workload, metric) whose median got worse by
more than its bound. Exits non-zero when any run fails, reports an
incorrect output or a metric set other than BENCHMARK.json's, or a
median moves past its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace, names):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"FAILED: {workload} seed {seed} trace {trace} exit {proc.returncode}")
        return None
    if set(result["metrics"]) != names:
        print(f"FAILED: {workload} seed {seed} trace {trace} metrics differ from "
              f"BENCHMARK.json: {sorted(set(result['metrics']) ^ names)}")
        return None
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    expected_names = {0: set(bounds), 1: {m["name"] for m in spec["per_layer"]}}

    samples = {}  # (workload, trace, metric) -> values
    failures = 0
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            for trace in ((0, 1) if args.trace else (0,)):
                result = run_once(workload, args.seed + r, spec["run_seconds"], trace,
                                  expected_names[trace])
                if result is None:
                    failures += 1
                    continue
                for name, metric in result["metrics"].items():
                    samples.setdefault((workload, trace, name), []).append(metric["value"])
                print(f"round {r + 1}/{args.runs} {workload} trace={trace} done", flush=True)

    unsteady = 0
    print(f"\n{'workload':16} {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
    for workload in workloads:
        for name, bound in bounds.items():
            values = samples.get((workload, 0, name), [])
            if len(values) < 2:
                continue
            median, q1, q3 = summarize(values)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread >= bound / 3:
                flag = "  UNSTEADY"
                unsteady += 1
            print(f"{workload:16} {name:28} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {max(values) / min(values):8.4f} {bound:6.2f}{flag}")
    if args.trace:
        print("\ntracing overhead (traced / untraced median - 1)")
        for workload in workloads:
            for name in ("throughput_per_s", "latency_tail_ms"):
                plain = samples.get((workload, 0, name))
                traced = samples.get((workload, 1, "trace." + name))
                if plain and traced:
                    ratio = statistics.median(traced) / statistics.median(plain) - 1
                    print(f"{workload:16} {name:28} {ratio:+8.4f}")
    plain = {f"{w}/{n}": v for (w, t, n), v in samples.items() if t == 0}
    if args.save:
        Path(args.save).write_text(json.dumps(plain, indent=1) + "\n")
    moved = 0
    if args.against:
        first = json.loads(Path(args.against).read_text())
        print(f"\nmedian against {args.against} (positive = worse)")
        for key, values in sorted(plain.items()):
            name = key.split("/", 1)[1]
            if key not in first:
                continue
            change = statistics.median(values) / statistics.median(first[key]) - 1
            worse = change if better[name] == "lower" else -change
            flag = "  MOVED" if worse > bounds[name] else ""
            moved += bool(flag)
            print(f"{key:45} {worse:+8.4f} bound {bounds[name]:.2f}{flag}")
    print(f"\nfailed runs: {failures}, unsteady metrics: {unsteady}, moved medians: {moved}")
    return 1 if failures or moved else 0


if __name__ == "__main__":
    sys.exit(main())
