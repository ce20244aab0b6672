"""Run the benchmark on several seeds per workload and summarize the spread.

    python3 perfbench/baseline.py --first-seed 300 --write perfbench/baseline.json

For each workload in ``BENCHMARK.json`` this makes ``RUNS`` untraced
runs with seeds ``--first-seed`` onward and one traced run, then prints
every end-to-end metric by name and unit with its median, quartiles and
spread (quartile distance over median, as ``statistics.quantiles(values,
n=4)`` gives them) against the bound in ``BENCHMARK.json``, the failed
fraction of experiments, and the tracing overhead (traced ``wall_s`` minus the
untraced median).  A spread of a third of its bound or more is flagged
``WIDE``.  ``--write`` saves it all as JSON.
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
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(provenance with the experiments' host steal shares, result) of one run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    provenance = json.loads(lines[0].partition(" ")[2])
    provenance["steal_frac"] = [json.loads(line.split(" ", 2)[2])["steal_frac"]
                                for line in lines if line.startswith("experiment ")]
    return provenance, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [one_run(workload, args.first_seed + k, bench["run_seconds"], 0)
                for k in range(RUNS)]
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        entry = {
            "provenance": [p for p, _ in runs],
            "fail_frac": failed / attempted,
            "end_to_end": {
                name: spread([r["metrics"][name]["value"] for _, r in runs]) for name in bounds
            },
        }
        steal = max(s for p, _ in runs for s in p["steal_frac"])
        print(f"{workload}: fail_frac {entry['fail_frac']!r} ({failed}/{attempted} experiments); "
              f"largest host steal share {steal:.3f}")
        for name, s in entry["end_to_end"].items():
            m = bounds[name]
            flag = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
            print(f"{workload}: {name} median {s['median']:.4f} {m['unit']} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                  f"bound {m['bound']} n={len(s['values'])} {flag}")
        _, traced = one_run(workload, args.first_seed, bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        traced_wall = entry["per_layer"]["trace.wall_s"]
        entry["trace_overhead_s"] = traced_wall - entry["end_to_end"]["wall_s"]["median"]
        print(f"{workload}: tracing overhead {entry['trace_overhead_s']:.3f} s "
              f"(traced wall_s {traced_wall:.3f} s minus the untraced median)")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.write:
        args.write.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
