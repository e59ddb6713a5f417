"""The repo benchmark: one seeded workload, measured, checked, reported.

Usage (from the repository root)::

    python3 perfbench/run.py --workload global-topk --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing
installed.  ``--trace 1`` measures half the time untraced, then wraps
the layer entry points, sets up again and measures the other half
traced; it reports the per-layer metrics, including the tracing
overhead between the two halves.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results (samples, spreads, host fingerprint, spans)
are written under ``.perfbench/`` at the repository root.  The exit
status is non-zero when an answer check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from summary import METRIC_NAME, host_fingerprint, summarize

ROOT = Path(__file__).resolve().parents[1]

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("qps", "1/s"),
    ("net_bytes", "bytes"),
    ("mass_k100", "fraction"),
]

KERNEL = "fused"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload) -> tuple[object, list[float]]:
    """Set the system up ``SETUPS`` times; keep the last one."""
    times, system = [], None
    for _ in range(workload.SETUPS):
        if system is not None:
            workload.teardown(system)
        prepared = workload.prepare()
        start = time.perf_counter()
        system = workload.setup(prepared)
        times.append(time.perf_counter() - start)
    return system, times


def end_to_end(measurement, setup_times) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(measurement.op_s),
        "qps": measurement.answered / measurement.wall_s,
        "net_bytes": measurement.net_bytes / measurement.answered,
        "mass_k100": statistics.fmean(measurement.mass),
    }


def measure_checked(workload, system, seconds):
    try:
        measurement = workload.measure(system, seconds)
    finally:
        workload.teardown(system)
    workload.check(measurement)
    return measurement


def run_traced(workload, system, seconds):
    from layers import QueueWaitProbe, install_entry_points, layer_metrics
    from spans import Patcher, SpanRecorder

    untraced = measure_checked(workload, system, seconds / 2)
    recorder = SpanRecorder()
    probe = QueueWaitProbe()
    counters: dict = {}
    with Patcher(recorder) as patcher:
        install_entry_points(patcher, counters)
        prepared = workload.prepare()
        setup_start = time.perf_counter_ns()
        system = workload.setup(prepared)
        setup_end = time.perf_counter_ns()
        try:
            workload.instrument(patcher, system, probe)
            start = time.perf_counter_ns()
            traced = workload.measure(system, seconds / 2)
            end = time.perf_counter_ns()
            workload.traced_extras(system, traced, patcher)
            layers = layer_metrics(
                workload,
                system,
                recorder.spans,
                (setup_start, setup_end),
                (start, end),
                traced,
                untraced,
                probe,
                counters,
            )
        finally:
            workload.teardown(system)
    workload.check(traced)
    return untraced, traced, layers, recorder


def descendants(root: int) -> list[int]:
    """Every live process below ``root`` in the process tree."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, stack = [], [root]
    while stack:
        for pid in children.get(stack.pop(), []):
            found.append(pid)
            stack.append(pid)
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The ``resource_tracker`` process that shared memory starts would
    outlive the run; it ignores SIGTERM, so it is stopped its own way.
    Anything else still below this process gets SIGTERM, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    pids = descendants(os.getpid())
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    for pid in pids:
        if not ended(pid, grace_s):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            ended(pid, grace_s)


def ended(pid: int, timeout_s: float) -> bool:
    """Wait up to ``timeout_s`` for ``pid`` to end; reap it if it is ours."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                return True
        except ChildProcessError:
            # Not our child: ended once gone or a zombie.
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return True
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


def report_line(name, unit, values) -> str:
    s = summarize(values)
    return (
        f"{name:<40} {s['median']:.6g} {unit}  "
        f"(n={s['n']}, q1={s['q1']:.6g}, q3={s['q3']:.6g})"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_fingerprint(KERNEL)
    print(f"host: {json.dumps(host)}")
    workload = WORKLOADS[args.workload](args.seed)
    system, setup_times = set_up(workload)

    if args.trace:
        untraced, measurement, layers, recorder = run_traced(
            workload, system, args.seconds
        )
        from layers import LAYER_METRICS

        units = dict(LAYER_METRICS)
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in layers.items()
        }
        failures = untraced.failures + measurement.failures
        attempted = untraced.attempted + measurement.attempted
        failed = untraced.failed + measurement.failed
    else:
        measurement = measure_checked(workload, system, args.seconds)
        units = dict(END_TO_END)
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in end_to_end(measurement, setup_times).items()
        }
        failures = measurement.failures
        attempted, failed = measurement.attempted, measurement.failed

    if failed:
        failures = failures + [f"{failed} of {attempted} operations failed"]
    samples = {"setup_s": ("s", setup_times), "op_s": ("s", measurement.op_s)}
    samples.update(measurement.extra)
    for name, (unit, values) in samples.items():
        if values:
            print(report_line(name, unit, values))
    print(
        f"{'error_rate':<40} {failed / max(attempted, 1):.6g} fraction  "
        f"(failed={failed}, attempted={attempted})"
    )
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:.6g} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": metrics,
        "samples": {
            name: {"unit": unit, **summarize(values)}
            for name, (unit, values) in samples.items()
            if values
        },
        "failures": failures,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if args.trace:
        recorder.dump(out / f"{stem}-spans.json")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
