"""Toy-scale runs: metric names, no wrapper left behind by tracing, and
no process left behind by a run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYER_METRICS
from summary import METRIC_NAME
from tiny import TINY, TinyProcess
from workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def bindings():
    """Every attribute of every loaded repro module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for key, member in vars(value).items():
                    seen[(name, attr, key)] = member
    return seen


def wrapped_instance_attrs(service):
    objects = [service, getattr(service, "backend", None)]
    objects += [getattr(service, "source", None), getattr(service, "epochs", None)]
    objects += list(getattr(service, "replicators", None) or [])
    return [
        (type(obj).__name__, attr)
        for obj in objects
        if obj is not None and hasattr(obj, "__dict__")
        for attr, value in vars(obj).items()
        if hasattr(value, "__wrapped__")
    ]


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_traced_run_restores_every_wrapper(cls):
    systems = []

    class Capturing(cls):
        def teardown(self, system):
            systems.append(system)
            super().teardown(system)

    workload = Capturing(seed=1)
    system, setup_times = run.set_up(workload)
    before = bindings()
    untraced, traced, layers, recorder = run.run_traced(workload, system, 1.0)
    after = bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    for service in systems:
        assert wrapped_instance_attrs(service) == []
    assert recorder.spans, "the traced run recorded nothing"
    assert list(layers) == [name for name, _ in LAYER_METRICS]
    assert 0.0 < layers["trace.coverage"] <= 1.0


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_untraced_run_reports_every_end_to_end_metric(cls):
    workload = cls(seed=2)
    system, setup_times = run.set_up(workload)
    measurement = run.measure_checked(workload, system, 0.5)
    metrics = run.end_to_end(measurement, setup_times)
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value in metrics.values())
    for name in list(metrics) + list(measurement.extra):
        assert METRIC_NAME.fullmatch(name), name


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


def test_stop_children_leaves_no_process_behind():
    workload = TinyProcess(seed=3)
    system, _ = run.set_up(workload)
    run.measure_checked(workload, system, 0.5)
    sleeper = subprocess.Popen(["sleep", "60"])
    run.stop_children(grace_s=1.0)
    assert sleeper.poll() is not None
    assert run.descendants(os.getpid()) == []
