#!/usr/bin/env python3
"""Steadiness check: makes two series of runs of the same code and reports,
per workload and end-to-end metric, each series' median, quartiles and
interquartile spread as a share of the median, and how far the second
median lies from the first, both against the metric's bound from
BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--write FILE]
        [--determinism SEED]

A series runs every seed of one workload back to back through run.py,
then the next workload. --determinism also makes two traced runs with one
seed and checks that every exact count agrees between the two processes.
--write stores both series (every value, plus host.calib_ms per run, plus
the exact counts) as a JSON baseline. Exits 1 when a spread or the
distance between the two medians exceeds a bound.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERIES = 2


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


# Per-layer metrics that are counts of work, not times: they must repeat
# bit for bit for one seed.
EXACT_PREFIXES = ("gj.seeks.", "gj.total_intermediate.", "gj.max_intermediate.",
                  "gj.output.", "xjoin.", "core.plan_hit_ratio",
                  "core.plan_rebinds", "core.trie_hit_ratio",
                  "core.trie_patches", "core.trie_compactions",
                  "net.response_kb.", "lp.bound_tightness.", "xml.nodes")


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = proc.stderr.decode()
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, err))
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    calib = re.search(r"host.calib_ms start=([\d.]+) end=([\d.]+)", err)
    result["host_calib_ms"] = [float(calib.group(1)), float(calib.group(2))]
    return result


def host_description():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "build": "Release (perfbench/CMakeLists.txt)"}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_series(names, seeds, seconds, bounds):
    """Every seed of each workload back to back; per-metric summaries."""
    out = {}
    for w in names:
        runs = []
        for seed in seeds:
            r = run_once(w, seed, seconds)
            if not r["correct"] or r["failed"]:
                raise RuntimeError("%s seed %d: incorrect or failed ops" % (w, seed))
            runs.append(r)
            print("%s seed %d: %s calib=%s" % (
                w, seed, " ".join("%s=%.4g" % (k, v["value"])
                                  for k, v in sorted(r["metrics"].items())),
                r["host_calib_ms"]), file=sys.stderr)
        entry = {"host.calib_ms": [r["host_calib_ms"] for r in runs]}
        for metric in sorted(bounds):
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s["values"] = [r["metrics"][metric]["value"] for r in runs]
            entry[metric] = s
        out[w] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--write", default="")
    parser.add_argument("--determinism", type=int, default=0,
                        help="seed for two traced runs whose counts must agree")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    series = [run_series(names, seeds, seconds, bounds) for _ in range(SERIES)]
    out = {"run_seconds": seconds, "seeds": seeds, "host": host_description(),
           "series": series, "agreement": {}}
    worst_spread = worst_shift = 0.0
    for w in names:
        print("\n%s (%d runs per series)" % (w, len(seeds)))
        out["agreement"][w] = {}
        for metric in sorted(bounds):
            first, second = series[0][w][metric], series[-1][w][metric]
            shift = abs(second["median"] - first["median"]) / first["median"]
            out["agreement"][w][metric] = shift
            worst_shift = max(worst_shift, shift / bounds[metric])
            for k, s in enumerate(series):
                share = s[w][metric]["spread"] / bounds[metric]
                worst_spread = max(worst_spread, share)
                print("  %-14s #%d median %10.4f  q1 %10.4f  q3 %10.4f  "
                      "spread %5.1f%% (%.2f of bound)" % (
                          metric, k + 1, s[w][metric]["median"],
                          s[w][metric]["q1"], s[w][metric]["q3"],
                          100 * s[w][metric]["spread"], share))
            print("  %-14s medians %+.1f%% apart (bound %.0f%%, %.2f of it)" % (
                metric, 100 * (second["median"] - first["median"]) /
                first["median"], 100 * bounds[metric], shift / bounds[metric]))
    print("\nworst spread / bound: %.2f; worst median shift / bound: %.2f" % (
        worst_spread, worst_shift))
    out["worst_spread_share"] = worst_spread
    out["worst_shift_share"] = worst_shift
    ok = worst_spread <= 1 and worst_shift <= 1
    if args.determinism:
        traced = [run_once(names[0], args.determinism, seconds, trace=1)
                  for _ in range(2)]
        exact = [{k: v["value"] for k, v in t["metrics"].items()
                  if k.startswith(EXACT_PREFIXES)} for t in traced]
        differ = sorted(k for k in exact[0] if exact[0][k] != exact[1].get(k))
        same = not differ and exact[0].keys() == exact[1].keys()
        print("exact counts over two traced runs, seed %d: %d counts, %s" % (
            args.determinism, len(exact[0]),
            "identical" if same else "DIFFER: " + ", ".join(differ)))
        out["exact_counts"] = {"seed": args.determinism, "values": exact[0],
                               "identical": same}
        ok = ok and same
    if args.write:
        with open(args.write, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
