"""Run every workload over several seeds and print all metrics.

    python3 perfbench/suite.py [--seeds 0,1,2] [--write PATH]

For each workload, runs perfbench/run.py once per seed with --trace 0,
each for BENCHMARK.json's run_seconds, and prints each end-to-end
metric's median over the seeds, its quartiles, and the quartile spread
as a share of the median (Python's statistics.quantiles, n=4). Then
runs one --trace 1 run per workload at seed 0 and prints its per-layer
metrics. --write saves everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, WORKLOADS, machine_info  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
TRACE_SEED = 0


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--write")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"machine": machine_info(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        started = time.perf_counter()
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                name: {"unit": m["unit"],
                       **spread([r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()
            },
        }
        print(f"{workload}: {len(seeds)} seeds, correct={entry['correct']}, "
              f"{time.perf_counter() - started:.0f} s")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:20s} {s['median']:12.6g} {s['unit']:8s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {100 * s['spread']:.2f}%")
        traced = bench(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, **traced["metrics"]}
        print(f"  per layer, seed {TRACE_SEED}:")
        for name, m in traced["metrics"].items():
            print(f"    {name:36s} {m['value']:.6g} {m['unit']}")
        report["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
