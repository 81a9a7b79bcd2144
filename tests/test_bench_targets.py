"""The benchmark's tracer (``perfbench/tracing.py``) wraps spinmo functions
by module and name.  A renamed or deleted target makes every traced
benchmark operation fail, so its targets are checked here."""

import importlib
from pathlib import Path

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
