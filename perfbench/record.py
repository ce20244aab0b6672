"""Record the correctness gate's reference artifacts for one or more workloads.

    python3 perfbench/record.py ts_readme ts_wide_t2 ts_maps

For each workload and each of the ``N_REFERENCE_SEEDS`` config seeds this
runs the experiment once with ``--threads 1`` and stores the fingerprints
(``gate.fingerprint``) of its ``summary.json`` and CSVs in
``reference/<workload>.json``.  Because the reference is single-threaded,
every ``ts_wide_t2`` run, which uses two threads, also checks that
``--threads`` changes no result.  Re-record only when a change is meant to
alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
import run


def record(workload: str) -> None:
    spec = run.WORKLOADS[workload]
    work = run.OUT / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = {}
    try:
        for k in range(run.N_REFERENCE_SEEDS):
            seed = run.workload_seed(k)
            cfg = work / "experiment.cfg"
            cfg.write_text(run.config_text(workload, seed))
            out = work / "out"
            result = run.launch(cfg, out, threads=1, n_seeds=spec["seeds"],
                                deadline=time.monotonic() + run.RUN_LIMIT_S)
            if result["returncode"] != 0:
                raise SystemExit(f"{workload} seed {seed} failed: {result['stderr']}")
            seeds[str(seed)] = {p.name: gate.fingerprint(p) for p in gate.artifacts(out)}
            shutil.rmtree(out)
            print(f"{workload} seed {seed}: {len(seeds[str(seed)])} artifacts", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"config": run.config_text(workload, "{seed}"), "threads": 1, "seeds": seeds},
                  fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    run.check_checkout()
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        record(name)
