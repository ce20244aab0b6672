"""One experiment process: the qteach CLI with timing hooks around ``cli.run``.

    python3 child.py RECORD.json [--trace] [--setup-only] -- <qteach CLI args>

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src``.  It calls ``qteach.cli.main`` with the CLI arguments, notes the
monotonic time at which ``main`` hands the parsed config to ``cli.run``
(the end of set-up) and at which ``cli.run`` returns (``summary.json`` is
written by then), and writes those times, its own CPU time and peak RSS,
and with ``--trace`` the per-layer metrics, to RECORD.json.  With
``--setup-only`` it returns from ``cli.run`` without running the
experiment.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    record_path, flags = argv[0], argv[1:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]
    trace = "--trace" in flags
    setup_only = "--setup-only" in flags

    from qteach import cli

    record: dict = {"qteach_file": cli.__file__}
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(run_id=os.path.basename(record_path))
        spans.install(recorder)
    inner_run = cli.run

    def timed_run(config, n_workers=1):
        record["t_start"] = time.monotonic()
        record["n_workers"] = n_workers
        if setup_only:
            return 0
        status = inner_run(config, n_workers)
        record["t_end"] = time.monotonic()
        return status

    cli.run = timed_run
    status = cli.main(cli_args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["status"] = status
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["maxrss_kb"] = usage.ru_maxrss
    if recorder is not None:
        record["layers"] = spans.summarize(recorder.spans, record.get("n_workers", 1))
        record["not_traced"] = recorder.missing
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
