"""Run the benchmark over many seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--trace 1]

Each run is `perfbench/run.py` in its own process, one after another:
for each seed in the order given (10-1 counts down), every workload.
Slow drift of the machine's speed therefore spreads over the runs of
every workload instead of landing on one.
For every workload and metric this prints the median of the runs and
the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
plus how many operations failed and the wall time of a run (wall_s).
With --trace 0 it does the same for the times before scaling by the
reference loop (`unscaled.*`, from the run's `# unscaled:` line) and for
the median reference itself.  The runs and the summary are written to
.perfbench-out/sweep-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"
WORKLOADS = ("tree-report", "fuzz-oracle", "poly-wide", "deep-large")


UNSCALED = (("setup_s", "s"), ("instances_per_s", "1/s"), ("instance_ms_p50", "ms"),
            ("instance_ms_p90", "ms"), ("reference", "ms"))


def unscaled(notes, name):
    """A value from the run's `# unscaled: name value unit, ...` line."""
    line = next(n for n in notes if n.startswith("# unscaled:"))
    return float(re.search(rf"{name} ([0-9.e+-]+)", line).group(1))


def seed_range(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    return list(range(first, last + 1) if first <= last else range(first, last - 1, -1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = {workload: [] for workload in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            wall_s = time.perf_counter() - t0
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            notes = [line for line in lines if line.startswith("#")]
            runs[workload].append({"seed": seed, "notes": notes, "wall_s": wall_s, **result})
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, {wall_s:.1f} s", file=sys.stderr)

    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload}  ({len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares: "
              f"{sorted({r['failed'] / r['attempted'] for r in results})})")
        summary[workload] = {}
        series = {name: ([r["metrics"][name]["value"] for r in results], m["unit"])
                  for name, m in results[0]["metrics"].items()}
        series["wall_s"] = ([r["wall_s"] for r in results], "s")
        if not args.trace:
            for name, unit in UNSCALED:
                series[f"unscaled.{name}"] = ([unscaled(r["notes"], name) for r in results], unit)
        for name, (values, unit) in series.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "unit": unit}
            print(f"  {name:40s} median {med:12.6g} {unit:6s} spread {spread:6.1%}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"sweep-trace{args.trace}.json"
    path.write_text(json.dumps({"args": vars(args), "runs": runs, "summary": summary}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"\nwritten to {path}")


if __name__ == "__main__":
    main()
