"""The benchmark's tracer (``perfbench/tracing.py``) wraps spinmo functions
by module and name, and its workloads (``perfbench/workloads.py``) clear
spinmo's caches by name and call spinmo directly.  A renamed or deleted
target makes every benchmark operation fail, so its targets, and one
smoke-scale operation of every workload, are checked here."""

import importlib
from pathlib import Path

import pytest

import spinmo.observables

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    original = spinmo.observables.batch_records
    with tracing.Tracer().installed():
        assert spinmo.observables.batch_records is not original
    assert spinmo.observables.batch_records is original
    # the tracer's optimize_step attributes count K under this name
    from spinmo.optimizer import _count_k

    assert callable(_count_k)


def test_bench_workloads_clear_every_cache(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    workloads.clear_caches()


@pytest.mark.parametrize("name", ["ramp", "search", "noise", "loss"])
def test_bench_smoke_workload_passes_its_check(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    workload = workloads.Workload(name, "smoke", tmp_path, 0)
    workload.setup()
    workload.prepare()
    assert workload.check(workload.run()) == []
