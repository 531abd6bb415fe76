"""Experiment configuration: YAML parsing, batched validation, round-trip.

One config file describes exactly one model and one experiment.  A master
seed is mandatory; there is no wall-clock fallback, reproducibility is a
feature.  This module maps the document onto the spec and experiment
constructors, which own every model, window and run-parameter rule: the
model and experiment mappings' keys are their field names, and problems come
back with their path into the document.
Validation collects every problem instead of stopping at the first, and
``to_dict`` emits the fully resolved config that reports embed, so any
report is self-reproducing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import yaml

from .engine import CheckExperiment, CoupleExperiment, MomentsExperiment, SimulateExperiment
from .errors import ConfigError, Problems
from .models import (
    WINDOW_KEYS,
    GinarSpec,
    IngarchSpec,
    LogLinearSpec,
    ModelSpec,
    from_mapping,
    validate_window,
)
from .randomness import checked_int

MODEL_SPECS = {"ginar": GinarSpec, "ingarch": IngarchSpec, "loglinear": LogLinearSpec}
EXPERIMENTS = {"check": CheckExperiment, "simulate": SimulateExperiment,
               "couple": CoupleExperiment, "moments": MomentsExperiment}

Experiment = CheckExperiment | SimulateExperiment | CoupleExperiment | MomentsExperiment


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    experiment: Experiment
    seed: int
    output_dir: str = "out"
    write_csv: bool = True

    def to_dict(self) -> dict:
        """Fully resolved, normalized form (defaults filled, plain types)."""
        return {
            "seed": self.seed,
            "model": {"kind": self.model.kind, **_plain(self.model)},
            "experiment": {"kind": self.experiment.kind, **_plain(self.experiment)},
            "output": {"directory": self.output_dir, "csv": self.write_csv},
        }


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a YAML/JSON experiment document."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError([f"parse error{where}: {getattr(exc, 'problem', exc)}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["document: expected a mapping at the top level"])
    return _validate(raw)


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _validate(raw: dict) -> ExperimentConfig:
    errs = Problems()

    known = {"seed", "model", "experiment", "output"}
    for key in raw:
        if key not in known:
            errs.add(str(key), "unknown top-level key")

    seed = raw.get("seed")
    if seed is None:
        errs.add("seed", "seed required")
    else:
        checked_int(seed, "seed", errs)

    model_raw = raw.get("model")
    model = None
    if not isinstance(model_raw, dict):
        errs.add("model", "a model mapping is required")
    else:
        model = _model(model_raw, errs)

    exp_raw = raw.get("experiment")
    experiment = None
    if not isinstance(exp_raw, dict):
        errs.add("experiment", "an experiment mapping is required")
    else:
        experiment = _experiment(exp_raw, model, errs)

    out_raw = raw.get("output", {})
    output_dir = "out"
    write_csv = True
    if out_raw is None:
        out_raw = {}
    if not isinstance(out_raw, dict):
        errs.add("output", "expected a mapping")
    else:
        output_dir = out_raw.get("directory", "out")
        if not isinstance(output_dir, str):
            errs.add("output.directory", "expected a string path")
            output_dir = "out"
        write_csv = out_raw.get("csv", True)
        if not isinstance(write_csv, bool):
            errs.add("output.csv", "expected a boolean")
            write_csv = True

    errs.raise_if_any()
    return ExperimentConfig(model, experiment, seed, output_dir, write_csv)


def _model(raw: dict, errs: Problems) -> ModelSpec | None:
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_SPECS:
        errs.add("model.kind", f"expected one of {'/'.join(MODEL_SPECS)}, got {kind!r}")
        return None
    return errs.nest("model", lambda: from_mapping(MODEL_SPECS[kind], {"q": 1, **raw}))


def _experiment(raw: dict, model: ModelSpec | None, errs: Problems):
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        errs.add("experiment.kind", f"expected one of {'/'.join(EXPERIMENTS)}, got {kind!r}")
        return None
    if kind == "couple":
        raw = {**raw, **{name: _window(raw.get(name), model, f"experiment.{name}", errs)
                         for name in ("window_a", "window_b")}}
    return errs.nest("experiment", lambda: from_mapping(EXPERIMENTS[kind], raw))


def _window(raw, model: ModelSpec | None, path: str, errs: Problems) -> dict | None:
    """A window mapping, checked against the model and written in plain types."""
    if model is None:
        return None
    if not isinstance(raw, dict):
        errs.add(path, "expected a window mapping")
        return None
    if errs.nest(path, lambda: validate_window(model, raw)) is None:
        return None
    return {name: [[int(v) if name == "counts" else float(v) for v in np.asarray(row, dtype=float)]
                   for row in raw[name]]
            for name in WINDOW_KEYS[model.kind]}


def _plain(value):
    """A spec or experiment as plain YAML types, keyed by field name; None fields are left out."""
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _plain(item) for name, item in items if item is not None}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value
