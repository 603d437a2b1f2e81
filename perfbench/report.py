"""Run the benchmark several times and summarise every metric.

    python3 perfbench/report.py [--workloads sweep,kernel] [--trace 0|1]

Runs `run.py` with seeds 1..10 and the `run_seconds` of BENCHMARK.json, one
process at a time, the runs of one workload back to back.  Prints,
per workload and metric, the unit, median, first and third quartile, the
quartile spread as a share of the median, and the number of runs, then
writes every raw result to .perfbench_out/report-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for w in workloads:
        for seed in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            results[w].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{w} seed {seed}: done", file=sys.stderr, flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':12} {'metric':42} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'n':>3}")
    for w, runs in results.items():
        if not runs:
            continue
        failed = sum(r["failed"] for r in runs)
        print(f"{w:12} {'(failed/attempted ops)':42} {'count':6} {failed:>12} {sum(r['attempted'] for r in runs):>12}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            print(f"{w:12} {metric:42} {runs[0]['metrics'][metric]['unit']:6} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:8.2%} {'' if bound is None else bound:>6} {len(values):3}")
    out = ROOT / ".perfbench_out" / f"report-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
