"""Traced in-process run of one workload's invocations.

Run as ``python3 perfbench/tracer.py <plan.json>`` in a fresh process; the
plan names the source tree, the generated configs and where to write.  The
run goes in three passes over the same invocations, each through
``countsim.cli.main([..., '--jobs', '1'])``:

1. a timed cold ``import countsim.cli``;
2. an untraced pass, the base of the tracing overhead;
3. a traced pass.  Public callables of every layer are replaced, at the
   name their caller looks up, by wrappers that record a span (name, start,
   end, parent, invocation, replicate) in memory and count work at the same
   boundary.  Spans are written out once, at the end.

A span's self time is its duration minus the time its direct children
cover.  Self times of all spans plus the time outside every top-level span
add up to the traced wall time; the summary states both sides.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

# Span name -> layer.  Layers are the package's modules.
SPAN_NAMES = [
    "config.parse_config_file",
    "analysis.check_model",
    "linalg.spectral_radius",
    "cli.run",
    "engine.couple_ensemble",
    "engine.monte_carlo_moments",
    "engine.simulate",
    "engine.couple",
    "engine.SamplePath.to_csv",
    "models.step",
    "models.ImmigrationSpec.draw",
    "models.window_distance",
    "randomness.thinning",
    "randomness.CountingCache.draws",
    "randomness.CountNoise.at",
    "randomness.PoissonProcessPath.count",
    "randomness.poisson_inverse_cdf",
    "randomness.stream.build",
]
LAYERS = ["config", "analysis", "linalg", "randomness", "models", "engine", "cli"]


class Recorder:
    """Spans in flat typed arrays, so a million of them stay small."""

    def __init__(self):
        self.name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.replicate = array("i")
        self.stack: list[int] = []
        self.current_invocation = -1
        self.current_replicate = -1

    def open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.invocation.append(self.current_invocation)
        self.replicate.append(self.current_replicate)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def add(self, kind: int, start: float, end: float) -> None:
        """A finished leaf span, recorded after the fact."""
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.invocation.append(self.current_invocation)
        self.replicate.append(self.current_replicate)
        self.start.append(start)
        self.end.append(end)


class Counters:
    """Work counted at the wrapped boundaries, plus per-step identity state.

    Streams, counting caches and Poisson paths live for one time step: a
    step's noise is built through ``make_stream``, which clears the state.
    """

    def __init__(self):
        self.streams_built = 0
        self.arrivals = 0
        self.arrivals_counted = 0
        self.marks = 0
        self.icdf_calls = 0
        self.icdf_terms = 0
        self.values_read = 0
        self.values_drawn = 0
        self.csv_rows = 0
        self.csv_bytes = 0
        self.seen_streams: set = set()
        self.paths: dict = {}
        self.caches: dict = {}

    def new_step(self) -> None:
        self.seen_streams.clear()
        self.paths.clear()
        self.caches.clear()


def _timed(rec: Recorder, name: str, fn):
    kind = rec.name_id[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(kind)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _replicate_scoped(rec: Recorder, name: str, fn):
    """Engine loops: their spans and all spans below carry the replicate id."""
    kind = rec.name_id[name]
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        outer = rec.current_replicate
        rec.current_replicate = int(bound.arguments["replicate_id"])
        idx = rec.open(kind)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            rec.current_replicate = outer
    return wrapper


def install(countsim, rec: Recorder, cnt: Counters) -> list:
    """Replace the traced callables; returns what ``restore`` puts back."""
    cli, engine, models, randomness = countsim.cli, countsim.engine, countsim.models, countsim.randomness
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    patch(cli, "parse_config_file", _timed(rec, "config.parse_config_file", cli.parse_config_file))
    patch(cli, "run", _timed(rec, "cli.run", cli.run))
    patch(countsim.analysis, "check_model", _timed(rec, "analysis.check_model", countsim.analysis.check_model))
    patch(countsim.linalg, "spectral_radius",
          _timed(rec, "linalg.spectral_radius", countsim.linalg.spectral_radius))
    patch(engine, "couple_ensemble", _timed(rec, "engine.couple_ensemble", engine.couple_ensemble))
    patch(engine, "monte_carlo_moments", _timed(rec, "engine.monte_carlo_moments", engine.monte_carlo_moments))
    patch(engine, "simulate", _replicate_scoped(rec, "engine.simulate", engine.simulate))
    patch(engine, "couple", _replicate_scoped(rec, "engine.couple", engine.couple))
    patch(engine, "step", _timed(rec, "models.step", engine.step))
    patch(engine, "window_distance", _timed(rec, "models.window_distance", engine.window_distance))
    patch(models, "thinning", _timed(rec, "randomness.thinning", models.thinning))
    patch(models.ImmigrationSpec, "draw",
          _timed(rec, "models.ImmigrationSpec.draw", models.ImmigrationSpec.draw))
    patch(randomness.CountNoise, "at", _timed(rec, "randomness.CountNoise.at", randomness.CountNoise.at))

    to_csv = engine.SamplePath.to_csv
    to_csv_kind = rec.name_id["engine.SamplePath.to_csv"]

    def traced_to_csv(self, path):
        idx = rec.open(to_csv_kind)
        try:
            return to_csv(self, path)
        finally:
            rec.close(idx)
            cnt.csv_rows += self.length
            cnt.csv_bytes += os.path.getsize(path)
    patch(engine.SamplePath, "to_csv", traced_to_csv)

    make_stream = models.make_stream

    def traced_make_stream(*args, **kwargs):
        cnt.new_step()
        return make_stream(*args, **kwargs)
    patch(models, "make_stream", traced_make_stream)

    rng_getter = randomness.Stream.rng.fget
    build_kind = rec.name_id["randomness.stream.build"]

    def traced_rng(stream):
        # The generator is built on a stream's first ``rng`` access; later
        # accesses are cheap lookups and stay in the caller's self time.
        start = perf_counter()
        generator = rng_getter(stream)
        end = perf_counter()
        if stream not in cnt.seen_streams:
            cnt.seen_streams.add(stream)
            cnt.streams_built += 1
            rec.add(build_kind, start, end)
        return generator
    patch(randomness.Stream, "rng", property(traced_rng))

    path_count = randomness.PoissonProcessPath.count
    dense_cap = randomness.PoissonProcessPath.dense_cap
    count_kind = rec.name_id["randomness.PoissonProcessPath.count"]

    def traced_count(path, lam, stream):
        before = len(path.arrivals)
        idx = rec.open(count_kind)
        try:
            result = path_count(path, lam, stream)
        finally:
            rec.close(idx)
        arrivals = path.arrivals
        cnt.arrivals += len(arrivals) - before
        state = cnt.paths.get(path)
        if state is None:
            state = cnt.paths[path] = {"counted": 0, "marked": False, "mark_points": set()}
        counted = min(result, len(arrivals))
        if counted > state["counted"]:
            cnt.arrivals_counted += counted - state["counted"]
            state["counted"] = counted
        if lam > 0.0:
            # Beyond the dense region the path keeps (time, count) records:
            # an anchor at the dense frontier, then one per new query point.
            if not state["marked"] and lam > dense_cap:
                state["marked"] = True
                cnt.marks += 1
            frontier = arrivals[-1] if arrivals else 0.0
            if state["marked"] and lam > frontier and lam not in state["mark_points"]:
                state["mark_points"].add(lam)
                cnt.marks += 1
        return result
    patch(randomness.PoissonProcessPath, "count", traced_count)

    inverse_cdf = randomness.poisson_inverse_cdf
    icdf_kind = rec.name_id["randomness.poisson_inverse_cdf"]

    def traced_inverse_cdf(u, lam):
        idx = rec.open(icdf_kind)
        try:
            k = inverse_cdf(u, lam)
        finally:
            rec.close(idx)
        cnt.icdf_calls += 1
        cnt.icdf_terms += k + 1 if lam > 0.0 else 0
        return k
    patch(randomness, "poisson_inverse_cdf", traced_inverse_cdf)

    draws = randomness.CountingCache.draws
    draws_kind = rec.name_id["randomness.CountingCache.draws"]

    def traced_draws(cache, key, n, family, mean, stream):
        idx = rec.open(draws_kind)
        try:
            values = draws(cache, key, n, family, mean, stream)
        finally:
            rec.close(idx)
        if n > 0:
            # A sequence only ever grows, so its longest read so far is
            # exactly what has been drawn for it.
            lengths = cnt.caches.setdefault(cache, {})
            drawn_before = lengths.get(key, 0)
            cnt.values_read += n
            if n > drawn_before:
                cnt.values_drawn += n - drawn_before
                lengths[key] = n
        return values
    patch(randomness.CountingCache, "draws", traced_draws)
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def run_pass(cli, plan: dict, label: str, rec: Recorder | None = None) -> dict:
    """Every invocation once, in process: wall times, exit codes, report sizes."""
    walls, codes, report_bytes = [], [], 0
    for i, inv in enumerate(plan["invocations"]):
        out = os.path.join(plan["work"], label, inv["name"])
        argv = [inv["command"], "--config", inv["config"], "--out", out, "--jobs", "1"]
        if rec is not None:
            rec.current_invocation = i
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = perf_counter()
            code = cli.main(argv)
            walls.append(perf_counter() - start)
        codes.append(code)
        report = os.path.join(out, "report.json")
        report_bytes += os.path.getsize(report) if os.path.exists(report) else 0
    return {"walls": walls, "codes": codes, "report_bytes": report_bytes, "out": os.path.join(plan["work"], label)}


def summarize(rec: Recorder, cnt: Counters, traced: dict, untraced: dict, steps: int,
              import_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time decomposition of the traced wall."""
    import numpy as np

    kind = np.frombuffer(rec.kind, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    nested = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[nested], dur[nested])
    self_s = np.bincount(kind, weights=dur - covered, minlength=len(SPAN_NAMES))
    total_s = np.bincount(kind, weights=dur, minlength=len(SPAN_NAMES))
    calls = np.bincount(kind, minlength=len(SPAN_NAMES))
    wall = float(sum(traced["walls"]))
    unattributed = wall - float(dur[~nested].sum())

    def self_of(*names):
        return float(sum(self_s[rec.name_id[n]] for n in names))

    def per_step_us(seconds):
        return seconds * 1e6 / steps

    def per_call(name, scale):
        i = rec.name_id[name]
        return float(total_s[i]) * scale / calls[i] if calls[i] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    rows = cnt.csv_rows
    metrics = {
        "config.parse_config_file.ms": (per_call("config.parse_config_file", 1e3), "ms"),
        "analysis.check_model.ms": (per_call("analysis.check_model", 1e3), "ms"),
        "linalg.spectral_radius.us": (per_call("linalg.spectral_radius", 1e6), "us"),
        "cli.import.ms": (import_ms, "ms"),
        "randomness.stream.built_per_step": (cnt.streams_built / steps, "1/step"),
        "randomness.stream.build_us_per_step": (per_step_us(self_of("randomness.stream.build")), "us/step"),
        "randomness.PoissonProcessPath.count.self_us_per_step":
            (per_step_us(self_of("randomness.PoissonProcessPath.count")), "us/step"),
        "randomness.PoissonProcessPath.count.arrivals_per_step": (cnt.arrivals / steps, "1/step"),
        "randomness.PoissonProcessPath.count.useful_ratio": (ratio(cnt.arrivals_counted, cnt.arrivals), "ratio"),
        "randomness.PoissonProcessPath.count.marks_per_step": (cnt.marks / steps, "1/step"),
        "randomness.poisson_inverse_cdf.self_us_per_step":
            (per_step_us(self_of("randomness.poisson_inverse_cdf")), "us/step"),
        "randomness.poisson_inverse_cdf.terms_per_call": (ratio(cnt.icdf_terms, cnt.icdf_calls), "1/call"),
        "randomness.CountNoise.at.self_us_per_step": (per_step_us(self_of("randomness.CountNoise.at")), "us/step"),
        "randomness.thinning.self_us_per_step": (per_step_us(self_of("randomness.thinning")), "us/step"),
        "randomness.CountingCache.draws.self_us_per_step":
            (per_step_us(self_of("randomness.CountingCache.draws")), "us/step"),
        "randomness.CountingCache.draws.values_drawn_per_step": (cnt.values_drawn / steps, "1/step"),
        "randomness.CountingCache.draws.reuse_ratio":
            (ratio(cnt.values_read - cnt.values_drawn, cnt.values_read), "ratio"),
        "models.step.self_us_per_step": (per_step_us(self_of("models.step")), "us/step"),
        "models.ImmigrationSpec.draw.self_us_per_step":
            (per_step_us(self_of("models.ImmigrationSpec.draw")), "us/step"),
        "models.window_distance.self_us_per_step": (per_step_us(self_of("models.window_distance")), "us/step"),
        "engine.loop.self_us_per_step": (per_step_us(self_of("engine.simulate", "engine.couple")), "us/step"),
        "engine.couple_ensemble.self_ms": (self_of("engine.couple_ensemble") * 1e3, "ms"),
        "engine.monte_carlo_moments.self_ms": (self_of("engine.monte_carlo_moments") * 1e3, "ms"),
        "engine.SamplePath.to_csv.us_per_row":
            (ratio(float(total_s[rec.name_id["engine.SamplePath.to_csv"]]) * 1e6, rows), "us/row"),
        "engine.SamplePath.to_csv.bytes": (cnt.csv_bytes, "bytes"),
        "cli.run.self_ms": (self_of("cli.run") * 1e3, "ms"),
        "cli.report.bytes": (traced["report_bytes"], "bytes"),
        "trace.unattributed_us_per_step": (per_step_us(unattributed), "us/step"),
        "trace.wall_us_per_step": (per_step_us(wall), "us/step"),
        "trace.overhead_ratio": (wall / sum(untraced["walls"]), "ratio"),
    }
    layers = {layer: 0.0 for layer in LAYERS}
    for name in SPAN_NAMES:
        layers[name.split(".")[0]] += per_step_us(self_of(name))
    layers["unattributed"] = per_step_us(unattributed)
    decomposition = {
        "self_us_per_step": layers,
        "sum_us_per_step": sum(layers.values()),
        "wall_us_per_step": per_step_us(wall),
        "spans": int(len(dur)),
        "calls": {name: int(calls[rec.name_id[name]]) for name in SPAN_NAMES},
    }
    return metrics, decomposition


def write_spans(rec: Recorder, path: str) -> None:
    import numpy as np

    start = np.frombuffer(rec.start)
    origin = float(start.min()) if len(start) else 0.0
    np.savez_compressed(
        path, names=np.array(SPAN_NAMES),
        kind=np.frombuffer(rec.kind, dtype=np.int32), parent=np.frombuffer(rec.parent, dtype=np.int32),
        invocation=np.frombuffer(rec.invocation, dtype=np.int32),
        replicate=np.frombuffer(rec.replicate, dtype=np.int32),
        start=start - origin, end=np.frombuffer(rec.end) - origin,
    )


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    start = perf_counter()
    import countsim.cli  # noqa: F401  (timed: the cost every CLI start pays)
    import_ms = (perf_counter() - start) * 1e3
    import countsim

    if not os.path.realpath(countsim.__file__).startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"countsim imported from {countsim.__file__}, not from {plan['src']}", file=sys.stderr)
        return 1
    untraced = run_pass(countsim.cli, plan, "untraced")
    rec, cnt = Recorder(), Counters()
    saved = install(countsim, rec, cnt)
    try:
        traced = run_pass(countsim.cli, plan, "traced", rec)
    finally:
        restore(saved)
    steps = sum(inv["steps"] for inv in plan["invocations"])
    metrics, decomposition = summarize(rec, cnt, traced, untraced, steps, import_ms)
    write_spans(rec, plan["spans"])
    summary = {
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "decomposition": decomposition,
        "untraced": untraced,
        "traced": traced,
        "steps": steps,
    }
    with open(plan["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
