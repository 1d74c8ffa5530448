"""Do two sets of benchmark runs of the same code agree?

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Makes two sets of runs, set A and then set B: in each set, every workload
runs once per seed 1..runs, for BENCHMARK.json's run_seconds.  For each
workload and end-to-end metric it prints both sets' medians and quartile
spreads (the distance between the first and third quartiles over the
median, as statistics.quantiles(values, n=4) gives them) and whether the
sets agree within the metric's bound in BENCHMARK.json: both spreads
within the bound, setup_s's too, and the two medians apart by no more
than the bound, as a share of set A's median, in either direction.  The
share of failed operations must match exactly.  The table and the raw
results go to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(label: str, workloads: list[str], runs: int, seconds: int) -> dict:
    results = {}
    for w in workloads:
        results[w] = []
        for seed in range(1, runs + 1):
            res = run_once(w, seed, seconds)
            results[w].append(res)
            print(f"set {label} {w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
    return results


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def failed_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    set_a = run_set("A", workloads, args.runs, spec["run_seconds"])
    set_b = run_set("B", workloads, args.runs, spec["run_seconds"])

    rows, all_ok = [], True
    for w in workloads:
        same_share = failed_share(set_a[w]) == failed_share(set_b[w])
        correct = all(r["correct"] for r in set_a[w] + set_b[w])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in set_a[w]]
            b = [r["metrics"][name]["value"] for r in set_b[w]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = spread(a), spread(b)
            apart = abs(median_b - median_a) / median_a
            ok = correct and same_share and apart <= bound and max(spread_a, spread_b) <= bound
            all_ok &= ok
            rows.append({"workload": w, "metric": name, "unit": metric["unit"],
                         "bound": bound, "median_a": median_a, "median_b": median_b,
                         "spread_a": spread_a, "spread_b": spread_b, "apart": apart,
                         "failed_share_a": failed_share(set_a[w]),
                         "failed_share_b": failed_share(set_b[w]), "agree": ok})

    print(f"{'workload':15s} {'metric':12s} {'bound':>6s} {'median A':>10s} {'spread A':>8s} "
          f"{'median B':>10s} {'spread B':>8s} {'apart':>7s}  agree")
    for r in rows:
        print(f"{r['workload']:15s} {r['metric']:12s} {r['bound']:6.2f} "
              f"{r['median_a']:10.4g} {r['spread_a']:8.3f} {r['median_b']:10.4g} "
              f"{r['spread_b']:8.3f} {r['apart']:7.3f}  {'yes' if r['agree'] else 'NO'}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "steadiness.json").write_text(
        json.dumps({"rows": rows, "runs": {"A": set_a, "B": set_b}}, indent=1))
    print("all agree" if all_ok else "some metrics disagree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
