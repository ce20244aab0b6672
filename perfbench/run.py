"""Benchmark: real ``qteach`` teacher-student CLI runs, end to end and per layer.

    python3 perfbench/run.py --workload ts_readme --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is the checkout's
``src/qteach``, imported through ``PYTHONPATH`` (nothing is installed or
built).  Each experiment is a fresh process (``child.py``) running the CLI
on the workload's config, whose ``seed`` is ``11 + seed % 8`` so that
every run has a recorded reference (``reference/<workload>.json``).

With ``--trace 0`` a run times set-up-only processes before and after
whole experiments, which run until the next one would end after
``--seconds`` (always at least one), and reports the medians of
``wall_s``, ``setup_s``, ``cpu_s`` and ``peak_rss_mb``.  With ``--trace 1``
it runs one experiment with spans around every layer (``spans.py``) and
reports the per-layer metrics; the tracing overhead is its
``trace.wall_s`` minus the ``--trace 0`` median of ``wall_s``, which
``baseline.py`` prints.  Every experiment's ``summary.json`` and CSVs go
through the correctness gate (``gate.py``); a run that exits non-zero or
fails the gate counts as failed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"
BENCHMARK = ROOT / "BENCHMARK.json"

BASE_SEED = 11
N_REFERENCE_SEEDS = 8
SETUP_PROBES = 30
RUN_LIMIT_S = 170  # every process a run starts ends within this

# Why each workload is here is recorded in BENCHMARK.json.  ts_readme is
# the README config; the other two change which layer dominates.
WORKLOADS = {
    "ts_readme": {
        "teacher": "reuploading:2", "students": ("dissipative_qp", "reuploading:2"),
        "config_seeds": 10, "seeds": 2, "resolution": 21, "epochs": 150,
        "map_resolution": 51, "threads": 1,
    },
    "ts_wide_t2": {
        "teacher": "deep_teacher4", "students": ("random_deep_qp", "qnn_two_qp"),
        "config_seeds": 2, "seeds": 2, "resolution": 21, "epochs": 15,
        "map_resolution": 51, "threads": 2,
    },
    "ts_maps": {
        "teacher": "qnn_two_qp", "students": ("dissipative_qp", "qnn_two_qp"),
        "config_seeds": 2, "seeds": 2, "resolution": 11, "epochs": 3,
        "map_resolution": 251, "threads": 1,
    },
}



class BenchmarkError(Exception):
    pass


def workload_seed(seed: int) -> int:
    return BASE_SEED + seed % N_REFERENCE_SEEDS


def config_text(workload: str, seed: int) -> str:
    spec = WORKLOADS[workload]
    return (
        "experiment     = teacher_student\n"
        f"teacher        = {spec['teacher']}\n"
        f"students       = {', '.join(spec['students'])}\n"
        f"n_seeds        = {spec['config_seeds']}\n"
        f"resolution     = {spec['resolution']}\n"
        f"map_resolution = {spec['map_resolution']}\n"
        f"epochs         = {spec['epochs']}\n"
        f"seed           = {seed}\n"
    )


def check_checkout() -> None:
    if not (ROOT / "src" / "qteach" / "cli.py").is_file():
        raise BenchmarkError(f"no qteach sources under {ROOT / 'src'}; run from a source checkout")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qteach").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "threads": WORKLOADS[workload]["threads"],
        "workload_seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def steal_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole machine so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time between two ``steal_ticks`` readings that the
    host gave to other guests."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def load_reference(workload: str, seed: int) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path) as fh:
        recorded = json.load(fh)
    if recorded["config"] != config_text(workload, "{seed}"):
        raise BenchmarkError(f"{path.name} was recorded for another {workload} config")
    return recorded["seeds"][str(seed)]


def launch(cfg: Path, out: Path, threads: int, n_seeds: int, deadline: float,
           flags: tuple[str, ...] = ()) -> dict:
    """Run one child process, killed at monotonic time ``deadline``; returns
    its record plus launch/exit times."""
    record_path = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), *flags, "--",
           "--config", str(cfg.relative_to(ROOT)), "--out", str(out.relative_to(ROOT)),
           "--seeds", str(n_seeds), "--threads", str(threads)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ticks = steal_ticks()
    t_launch = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - t_launch, 0.1))
        returncode, stderr = done.returncode, done.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = -1, f"killed after {time.monotonic() - t_launch:.1f} s"
    t_exit = time.monotonic()
    steal = steal_frac(ticks, steal_ticks())
    record: dict = {}
    if record_path.is_file():
        record = json.loads(record_path.read_text())
        record_path.unlink()
    record.update(t_launch=t_launch, t_exit=t_exit, returncode=returncode, stderr=stderr,
                  steal_frac=steal)
    expected = str(ROOT / "src" / "qteach")
    if "qteach_file" in record and not record["qteach_file"].startswith(expected):
        record["returncode"] = record["returncode"] or 1
        record["stderr"] += f"\nqteach imported from {record['qteach_file']}, not {expected}"
    return record


def experiment(workload: str, cfg: Path, out: Path, reference: dict, trace: bool,
               deadline: float) -> dict:
    """One whole CLI experiment, checked against the reference."""
    spec = WORKLOADS[workload]
    record = launch(cfg, out, spec["threads"], spec["seeds"], deadline,
                    ("--trace",) if trace else ())
    result = {"ok": False, "drift": 0.0, "problems": [], "steal_frac": record["steal_frac"],
              "duration_s": record["t_exit"] - record["t_launch"]}
    if "t_start" in record:
        result["setup_s"] = record["t_start"] - record["t_launch"]
    if "t_end" in record:
        result["wall_s"] = record["t_end"] - record["t_start"]
        result["cpu_s"] = record["cpu_s"]
        result["peak_rss_mb"] = record["maxrss_kb"] / 1024.0
    if record["returncode"] != 0:
        result["problems"].append(f"exit status {record['returncode']}: {record['stderr'].strip()[-500:]}")
    elif not out.is_dir():
        result["problems"].append("no output directory")
    else:
        result["drift"], result["problems"] = gate.check(out, reference)
    if out.is_dir():
        files = list(out.iterdir())
        result["files_written"] = len(files)
        result["bytes_written"] = sum(p.stat().st_size for p in files)
        shutil.rmtree(out)
    result["ok"] = not result["problems"] and "wall_s" in result
    if trace:
        result["layers"] = record.get("layers", {})
        result["not_traced"] = record.get("not_traced", [])
    return result


def setup_probe(workload: str, cfg: Path, out: Path, deadline: float) -> float | None:
    spec = WORKLOADS[workload]
    record = launch(cfg, out, spec["threads"], spec["seeds"], deadline, ("--setup-only",))
    if out.is_dir():
        shutil.rmtree(out)
    if record["returncode"] != 0 or "t_start" not in record:
        return None
    return record["t_start"] - record["t_launch"]


def setup_probes(workload: str, cfg: Path, run_dir: Path, ks: range, deadline: float) -> list[float]:
    probes = (setup_probe(workload, cfg, run_dir / f"setup{k}", deadline) for k in ks)
    return [p for p in probes if p is not None]


def per_layer(workload: str, traced: dict) -> dict:
    layers = dict(traced["layers"])
    per_arch = layers.pop("training.ms_per_epoch", {})
    for k, arch in enumerate(WORKLOADS[workload]["students"]):
        layers[f"training.ms_per_epoch.student{k}"] = per_arch.get(arch, 0.0)
    layers["cli.files_written"] = traced.get("files_written", 0)
    layers["cli.bytes_written"] = traced.get("bytes_written", 0)
    layers["check.max_abs_drift"] = traced["drift"]
    layers["trace.wall_s"] = traced.get("wall_s", 0.0)
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    check_checkout()
    ws = workload_seed(seed)
    cfg_text = config_text(workload, ws)
    reference = load_reference(workload, ws)
    prov = provenance(workload, ws)
    run_dir = OUT / f"{workload}-{os.getpid():08d}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = run_dir / "experiment.cfg"
    cfg.write_text(cfg_text)
    experiments: list[dict] = []
    setups: list[float] = []
    try:
        if trace:
            experiments = [experiment(workload, cfg, run_dir / "exp0", reference, True, deadline)]
        else:
            # Set-up probes go before and after the experiments, so that their
            # median spans the run rather than one moment of a shared machine.
            setup_probe(workload, cfg, run_dir / "warmup", deadline)  # fills bytecode caches
            setups += setup_probes(workload, cfg, run_dir, range(SETUP_PROBES // 2), deadline)
            while True:
                out = run_dir / f"exp{len(experiments)}"
                result = experiment(workload, cfg, out, reference, False, deadline)
                experiments.append(result)
                if time.monotonic() - start + result["duration_s"] > seconds:
                    break
            setups += setup_probes(workload, cfg, run_dir, range(SETUP_PROBES // 2, SETUP_PROBES),
                                   deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov["loadavg_end"] = list(os.getloadavg())

    failed = sum(not e["ok"] for e in experiments)
    timed = [e for e in experiments if "wall_s" in e]
    if not timed:
        raise BenchmarkError("no experiment finished: " + "; ".join(
            p for e in experiments for p in e["problems"]))
    if trace:
        values = per_layer(workload, experiments[0])
    else:
        setups += [e["setup_s"] for e in experiments if "setup_s" in e]
        values = {
            "wall_s": statistics.median(e["wall_s"] for e in timed),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(e["cpu_s"] for e in timed),
            "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in timed),
        }
    declared = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not failed:
        raise BenchmarkError("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    return {
        "provenance": prov,
        "experiments": [{k: v for k, v in e.items() if k != "layers"} for e in experiments],
        "max_abs_drift": max(e["drift"] for e in experiments),
        "tolerance": gate.TOLERANCE,
        "fail_frac": failed / len(experiments),
        "result": {"correct": failed == 0, "attempted": len(experiments), "failed": failed,
                   "metrics": metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: error: {exc!r}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    for k, e in enumerate(report["experiments"]):
        print(f"experiment {k} " + json.dumps(e, sort_keys=True))
    print(f"check.max_abs_drift {report['max_abs_drift']!r} (tolerance {report['tolerance']:g})")
    print(f"fail_frac {report['fail_frac']!r}")
    for name, m in report["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
