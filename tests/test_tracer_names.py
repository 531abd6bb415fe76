"""The benchmark tracer's patch list resolves against the package.

``perfbench/tracer.py`` replaces named callables of every layer; a name it
patches that the package no longer has would fail only in a traced benchmark
run.  Here the tracer is installed in process, one tiny simulate and one tiny
couple run through the patched names, and ``restore`` puts the originals back.
"""

import importlib.util
import sys
from pathlib import Path

import countsim
import countsim.cli  # noqa: F401  (the tracer patches the CLI layer too)
from countsim.models import IngarchSpec, default_window

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("countsim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_restore(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    rec = tracer.Recorder()
    saved = tracer.install(countsim, rec, tracer.Counters())
    try:
        spec = IngarchSpec(1, 1, [1.0], ([[0.3]],), ([[0.5]],))
        path = countsim.engine.simulate(spec, 20, 5, master_seed=1)
        assert [tracer.SPAN_NAMES[k] for k in rec.kind].count("models.step") == 25  # one span per step
        ens = countsim.engine.couple(spec, 10, default_window(spec),
                                     {"counts": [[4]], "intensities": [[3.0]]}, master_seed=1, replicate_id=2)
    finally:
        tracer.restore(saved)
    assert path.length == 20 and len(ens.mean_distances) == 10
    calls = {tracer.SPAN_NAMES[k] for k in rec.kind}
    assert {"engine.simulate", "engine.couple", "models.step", "models.window_distance"} <= calls
    assert set(rec.replicate) == {0, 2}  # simulate's and couple's replicate_id, bound by name
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
