"""Span recording around qteach's public functions, from outside the package.

A traced experiment process calls ``install`` after importing ``qteach.cli``
and before running it.  Each wrapper goes on the module attribute the
caller looks up at call time (``training.forward_with_param_shift``, not
only ``circuits.forward_with_param_shift``), records one span per call and
keeps every span in memory; ``summarize`` turns them into per-layer
metrics when the run ends.

A span is ``(id, name, start, end, parent, thread, run_id, info)``.  Each
thread keeps its own stack of open spans.  A worker thread's outermost
span takes the innermost span open on the main thread as its parent, which
is ``teacher_student.run_experiment`` while the seed fan-out runs.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
import time

KERNEL_MODES = ("const", "per_b", "per_s", "per_row", "flip", "phase")
BYTES_PER_AMPLITUDE = 16  # complex128


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, info=None):
        """``fn`` wrapped to record a span; ``name`` is a string or a function
        of the call's arguments, ``info(args, kwargs, result)`` adds counts."""
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            label = name if isinstance(name, str) else name(args)
            extra = info(args, kwargs, result) if info is not None else None
            spans.append((sid, label, start, end, parent, threading.get_ident(), run_id, extra))
            return result

        return wrapper

    def patch(self, module, attr: str, name, info=None) -> None:
        """Replace ``module.attr`` by its wrapped version; a missing name is
        reported in ``missing`` and its metrics stay at zero."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(fn, name, info))


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the teacher_student CLI path crosses."""
    from qteach import circuits, cli, kernels, qsim, teacher_student, training

    mode_names = {getattr(kernels, f"MODE_{m.upper()}"): m for m in KERNEL_MODES}

    def kernel_name(args):
        return "kernels." + mode_names[args[0].mode]

    def kernel_info(args, kwargs, result):
        amps = args[1]
        return amps.shape[0], amps.shape[1]

    recorder.patch(kernels, "apply_planned", kernel_name, kernel_info)
    recorder.patch(qsim, "expectation_z_kernel", "qsim.expectation_z")

    builder_of = qsim.matrix_builder

    def wrapped_builder(kind):
        return recorder.wrap(builder_of(kind), "qsim.matrix_build")

    qsim.matrix_builder = wrapped_builder

    def rows_info(args, kwargs, result):
        return result.size

    recorder.patch(circuits, "forward_many", "circuits.forward_many", rows_info)
    recorder.patch(training, "forward_many", "circuits.forward_many", rows_info)
    recorder.patch(training, "forward_with_param_shift", "circuits.param_shift")

    def train_info(args, kwargs, result):
        arch = kwargs.get("architecture")
        return len(result.loss_curve), arch.name if arch is not None else ""

    recorder.patch(teacher_student, "train", "training.train", train_info)
    recorder.patch(teacher_student, "generate_dataset", "teacher_student.generate_dataset")

    def map_info(args, kwargs, result):
        return result.values.size

    recorder.patch(teacher_student, "prediction_map", "metrics.prediction_map", map_info)
    recorder.patch(teacher_student, "relative_entropy", "metrics.relative_entropy")
    recorder.patch(cli, "run_experiment", "teacher_student.run_experiment")

    def file_size(args, kwargs, result):
        return os.path.getsize(args[1])

    recorder.patch(cli, "write_prediction_map", "metrics.write_map", file_size)
    recorder.patch(cli, "run", "cli.run")
    if recorder.missing:
        print("perfbench: not traced: " + ", ".join(recorder.missing), file=sys.stderr)


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(children):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple], n_workers: int) -> dict:
    """Per-layer metrics from one experiment's spans.

    ``.s`` is busy seconds summed over calls, ``.self_s`` the same minus
    the time child spans cover, ``.calls`` a call count.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, *_ in spans:
        children.setdefault(parent, []).append((start, end))

    out: dict = {}
    durations: dict[str, list[float]] = {}
    self_names = {"circuits.param_shift", "circuits.forward_many", "training.train", "cli.run"}
    self_s = dict.fromkeys(self_names, 0.0)
    row_gates = bytes_computed = forward_rows = epochs = map_points = map_bytes = 0
    arch_time: dict[str, float] = {}
    arch_epochs: dict[str, int] = {}
    busy = experiment_wall = 0.0
    for sid, name, start, end, parent, _, _, info in spans:
        d = end - start
        durations.setdefault(name, []).append(d)
        if name in self_names:
            self_s[name] += d - _covered((start, end), children.get(sid, []))
        if name.startswith("kernels."):
            rows, dim = info
            row_gates += rows
            bytes_computed += rows * dim * BYTES_PER_AMPLITUDE * 2
        elif name == "circuits.forward_many":
            forward_rows += info
        elif name == "training.train":
            n_epochs, arch = info
            epochs += n_epochs
            arch_time[arch] = arch_time.get(arch, 0.0) + d
            arch_epochs[arch] = arch_epochs.get(arch, 0) + n_epochs
        elif name == "metrics.prediction_map":
            map_points += info
        elif name == "metrics.write_map":
            map_bytes += info
        elif name == "teacher_student.run_experiment":
            experiment_wall += d
            busy += sum(b - a for a, b in children.get(sid, []))

    def total(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ()))

    for mode in KERNEL_MODES:
        out[f"kernels.{mode}.s"] = total(f"kernels.{mode}")
        out[f"kernels.{mode}.calls"] = calls(f"kernels.{mode}")
    out["kernels.row_gates"] = row_gates
    out["kernels.bytes_computed"] = bytes_computed
    for key, name in (("qsim.matrix_build", "qsim.matrix_build"),
                      ("qsim.expectation_z", "qsim.expectation_z")):
        out[f"{key}.s"] = total(name)
        out[f"{key}.calls"] = calls(name)
    shift_ms = sorted(1e3 * d for d in durations.get("circuits.param_shift", ()))
    out["circuits.param_shift.s"] = total("circuits.param_shift")
    out["circuits.param_shift.self_s"] = self_s["circuits.param_shift"]
    out["circuits.param_shift.calls"] = len(shift_ms)
    out["circuits.param_shift.ms_p50"] = statistics.median(shift_ms) if shift_ms else 0.0
    out["circuits.param_shift.ms_p90"] = (
        statistics.quantiles(shift_ms, n=10)[8] if len(shift_ms) >= 2 else 0.0
    )
    out["circuits.forward_many.s"] = total("circuits.forward_many")
    out["circuits.forward_many.self_s"] = self_s["circuits.forward_many"]
    out["circuits.forward_many.calls"] = calls("circuits.forward_many")
    out["circuits.forward_rows"] = forward_rows
    out["training.train.s"] = total("training.train")
    out["training.train.self_s"] = self_s["training.train"]
    out["training.train.calls"] = calls("training.train")
    out["training.epochs"] = epochs
    out["training.ms_per_epoch"] = {
        arch: 1e3 * arch_time[arch] / arch_epochs[arch] for arch in arch_time if arch_epochs[arch]
    }
    out["teacher_student.run_experiment.s"] = experiment_wall
    out["teacher_student.generate_dataset.s"] = total("teacher_student.generate_dataset")
    out["teacher_student.busy_ratio"] = (
        busy / (experiment_wall * n_workers) if experiment_wall else 0.0
    )
    out["metrics.prediction_map.s"] = total("metrics.prediction_map")
    out["metrics.prediction_map.calls"] = calls("metrics.prediction_map")
    out["metrics.map_points"] = map_points
    out["metrics.relative_entropy.s"] = total("metrics.relative_entropy")
    out["metrics.write_map.s"] = total("metrics.write_map")
    out["metrics.write_map.bytes"] = map_bytes
    out["cli.run.s"] = total("cli.run")
    out["cli.self_s"] = self_s["cli.run"]
    out["trace.spans"] = len(spans)
    return out
