"""Benchmark entry point: one run of one workload, from the repository root.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds nothing: the library is imported from `src/` of the checkout the
script sits in, with single-threaded BLAS/OpenMP.  One run is one process
that runs units of the workload back to back (a closed loop).

Untraced (`--trace 0`), the run times its own import of the CLI's modules
plus the config parsing as one set-up, repeats that set-up in
`SETUPS - 1` fresh interpreters one after another, then runs units
while the next unit is predicted to end within S seconds (at least one).
Traced (`--trace 1`), it runs one untimed warm-up unit, so that one-time lazy
set-up falls on neither side of a pair, then pairs of one untraced and one
traced unit at the same seed; it compares their verdicts and artifacts and
writes the recorded spans to .perfbench_out/spans/.

The last line of standard output is one JSON object,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when untraced and its
per-layer metrics when traced.  Exits non-zero, printing no result, when the
library source is missing.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# before NumPy is first imported, here and in the set-up probes
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 5
PROBE_DEADLINE_S = 20.0
# a fresh interpreter that times the same set-up as the run's own process
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(run.setup(sys.argv[2], int(sys.argv[3]), sys.argv[4]))"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, config_seed, load_reference, run_unit  # noqa: E402

INTERVAL_QUANTITIES = ("weights.tilde_ap_quantity", "weights.ap_mu_quantity", "weights.tilde_a1_quantity")


def setup(workload: str, seed: int, out_dir: str) -> float:
    """Seconds to import the modules a CLI run loads and parse the workload's configs."""
    t0 = time.perf_counter()
    import besselweights.cli  # noqa: F401 - the import every CLI run pays
    from besselweights.experiments import load_default_config

    for name in WORKLOADS[workload][0]:
        load_default_config(name, out_dir, config_seed(seed))
    elapsed = time.perf_counter() - t0

    import besselweights

    where = Path(besselweights.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"besselweights imported from {where}, not from {ROOT / 'src'}")
    return elapsed


def probe_setup(workload: str, seed: int, out_dir: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(HERE), workload, str(seed), out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PROBE_DEADLINE_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def layer_metrics(tracer: Tracer, n_identical: int, names: list[str]) -> dict[str, float]:
    """The per-layer metrics `names` of one traced unit, by the naming of
    BENCHMARK.json: `<layer>.calls` and `<layer>.self_s` per layer,
    `<entry>.calls` and `<entry>.s` per entry point."""
    out: dict[str, float] = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name == "trace.overhead_frac":
            continue  # a ratio over the whole run, not one unit
        if name == "weights.interval_quantity.calls":
            out[name] = sum(tracer.calls.get(k, 0) for k in INTERVAL_QUANTITIES)
        elif name == "experiments.csv_identical":
            out[name] = n_identical
        elif head in LAYERS and tail in ("calls", "self_s"):
            out[name] = (tracer.layer_calls if tail == "calls" else tracer.layer_self).get(head, 0)
        elif tail == "calls":
            out[name] = tracer.calls.get(head, 0)
        elif tail == "s":
            out[name] = tracer.seconds.get(head, 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def measure(workload: str, seed: int, seconds: float, out_dir: str):
    walls, ops = [], []
    start = time.perf_counter()
    while True:
        unit = run_unit(workload, seed, out_dir)
        walls.append(unit.wall_s)
        ops += unit.ops
        if time.perf_counter() - start + unit.wall_s > seconds:
            break
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, ops


def measure_traced(workload: str, seed: int, seconds: float, out_dir: str, spans_path: Path, names: list[str]):
    reference = load_reference(config_seed(seed))
    ops = list(run_unit(workload, seed, out_dir).ops)  # warm-up
    tracer = Tracer()
    plain_walls, traced_walls, per_unit = [], [], []
    start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        plain = run_unit(workload, seed, out_dir)
        tracer.reset_counters()
        traced = run_unit(workload, seed, out_dir, tracer=tracer)
        identical = sum(reference.get(name) == text for name, text in traced.artifacts.items())
        per_unit.append(layer_metrics(tracer, identical, names))
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        ops += plain.ops + traced.ops
        ops.append(("traced verdicts equal untraced", traced.verdict_lines == plain.verdict_lines))
        ops.append(("traced artifacts equal untraced", traced.artifacts == plain.artifacts))
        if time.perf_counter() - start + (time.perf_counter() - t_pair) > seconds:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(str(spans_path))
    values = {key: statistics.median(u[key] for u in per_unit) for key in per_unit[0]}
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    return values, ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]

    if not (ROOT / "src" / "besselweights" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    w, seed, out = args.workload, args.seed, str(out_dir)
    try:
        if args.trace:
            setup(w, seed, out)
            spans = OUT / "spans" / f"{w}-seed{seed}.tsv"
            values, ops = measure_traced(w, seed, args.seconds, out, spans, [m["name"] for m in section])
        else:
            setups = [setup(w, seed, out)] + [probe_setup(w, seed, out) for _ in range(SETUPS - 1)]
            values, ops = measure(w, seed, args.seconds, out)
            values["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [name for name, ok in ops if not ok]
    for name in failures[:20]:
        print(f"FAILED: {name}", file=sys.stderr)
    if not args.trace:
        values["ok_frac"] = 1.0 - len(failures) / len(ops)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
