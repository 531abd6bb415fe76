"""The benchmark tracer's patch list resolves against the package.

``perfbench/tracer.py`` replaces named callables of every layer; a name it
patches that the package no longer has would fail only in a traced benchmark
run.  Here the tracer is installed in process, tiny simulate, couple,
couple-ensemble and moments runs go through the patched names, and
``restore`` puts the originals back.  The per-step noise names it patches
are stubs that raise, so no traced run may reach one.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import countsim
import countsim.cli  # noqa: F401  (the tracer patches the CLI layer too)
from countsim import randomness
from countsim.models import GinarSpec, ImmigrationSpec, IngarchSpec, LogLinearSpec, default_window

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: The tracer's spans over the removed per-step noise layer.
STUB_SPANS = {"randomness.thinning", "randomness.CountingCache.draws", "randomness.CountNoise.at",
              "randomness.PoissonProcessPath.count"}

#: One model per step the block engine runs: each counting family, a copula and log-linear.
MODELS = {
    "ginar-bernoulli-geometric-immigration":
        GinarSpec(2, 1, ([[0.3, 0.1], [0.2, 0.4]],), "bernoulli", ImmigrationSpec("geometric", [1.0, 0.5])),
    "ginar-poisson": GinarSpec(1, 2, ([[0.3]], [[0.2]]), "poisson", ImmigrationSpec("poisson", [1.5])),
    "ginar-geometric": GinarSpec(1, 1, ([[0.4]],), "geometric", ImmigrationSpec("constant", [2])),
    "ingarch-gaussian": IngarchSpec(2, 1, [1.0, 0.5], ([[0.2, 0.1], [0.0, 0.2]],), ([[0.3, 0.05], [0.1, 0.25]],),
                                    {"scheme": "gaussian", "correlation": [[1.0, 0.6], [0.6, 1.0]]}),
    "loglinear": LogLinearSpec(1, 1, [0.3], ([[0.2]],), ([[0.3]],)),
}


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


@pytest.mark.parametrize("spec", MODELS.values(), ids=MODELS.keys())
def test_traced_runs_never_reach_a_stub(monkeypatch, spec):
    tracer = _load_tracer(monkeypatch)
    rec = tracer.Recorder()
    start = default_window(spec)
    far = {key: [[value + 3 for value in lag] for lag in lags] for key, lags in start.items()}
    saved = tracer.install(countsim, rec, tracer.Counters())
    try:
        ens = countsim.engine.couple_ensemble(spec, 10, start, far, master_seed=3, replicates=3)
        report = countsim.engine.monte_carlo_moments(spec, [1.0], [0.1], 30, burn_in=5, replicates=2, master_seed=3)
    finally:
        tracer.restore(saved)
    assert len(ens.mean_distances) == 10 and report.replicates == 2
    calls = {tracer.SPAN_NAMES[k] for k in rec.kind}
    assert {"engine.couple_ensemble", "engine.monte_carlo_moments"} <= calls
    assert not calls & STUB_SPANS


@pytest.mark.parametrize("stub", [
    lambda: randomness.PoissonProcessPath().count(1.0, None),
    lambda: randomness.CountNoise().at([1.0]),
    lambda: randomness.CountingCache().draws((0, 1, 0, 0), 3, "poisson", 1.0, None),
    lambda: randomness.thinning(None, (0, 1), [[0.5]], "bernoulli", [2], None),
], ids=["PoissonProcessPath.count", "CountNoise.at", "CountingCache.draws", "thinning"])
def test_each_stub_raises(stub):
    with pytest.raises(NotImplementedError, match="shared_poisson, shared_counts or shared_thinning"):
        stub()
