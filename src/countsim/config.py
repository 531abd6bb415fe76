"""Experiment configuration: YAML parsing, batched validation, round-trip.

One config file describes exactly one model and one experiment.  A master
seed is mandatory; there is no wall-clock fallback, reproducibility is a
feature.  Every section of the document becomes its record by one rule,
:func:`~countsim.models.from_mapping`: its keys are the record's field
names, a key that names no field is refused, and the record's constructor
owns every other rule.  One rule decides a number, too: every vector and
matrix entry passes :func:`~countsim.errors.checked_array` and every integer
field :func:`~countsim.errors.checked_int`, so a boolean or a string is
refused wherever a number is expected.  Problems come back together, each
with its path into the document.  :func:`plain` writes the fully resolved
config that reports embed, so any report is self-reproducing, and every
result record of a report, in JSON types.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass

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
    _nested,
    from_mapping,
    validate_window,
)
from .randomness import checked_lineage

MODEL_SPECS = {"ginar": GinarSpec, "ingarch": IngarchSpec, "loglinear": LogLinearSpec}
EXPERIMENTS = {"check": CheckExperiment, "simulate": SimulateExperiment,
               "couple": CoupleExperiment, "moments": MomentsExperiment}

Experiment = CheckExperiment | SimulateExperiment | CoupleExperiment | MomentsExperiment


@dataclass(frozen=True)
class Output:
    """Where a run writes ``report.json``, and whether ``simulate`` also writes ``path.csv``."""

    directory: str = "out"
    csv: bool = True

    def __post_init__(self):
        problems = Problems()
        if not isinstance(self.directory, str):
            problems.add("directory", "expected a string path")
        if not isinstance(self.csv, bool):
            problems.add("csv", "expected a boolean")
        problems.raise_if_any()


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One model and one experiment under a master seed.

    ``model`` and ``experiment`` may be given as mappings of a ``kind`` and
    the fields of the record it names (a model's ``q`` defaults to 1), and
    ``output`` as a mapping of its fields.  A couple experiment's windows
    given that way are checked against the model.
    """

    model: ModelSpec
    experiment: Experiment
    seed: int
    output: Output = field(default_factory=Output)

    def __post_init__(self):
        problems = Problems()
        if self.seed is None:
            problems.add("seed", "seed required")
        else:
            checked_lineage(self.seed, "seed", problems)
        model = _kinded(MODEL_SPECS, self.model, "model", problems, q=1)
        experiment = self.experiment
        if isinstance(experiment, Mapping) and experiment.get("kind") == "couple":
            experiment = {**experiment, **{name: _window(experiment.get(name), model, f"experiment.{name}", problems)
                                           for name in ("window_a", "window_b")}}
        experiment = _kinded(EXPERIMENTS, experiment, "experiment", problems)
        output = _nested(Output, self.output, "output", problems)
        problems.raise_if_any()
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "experiment", experiment)
        object.__setattr__(self, "output", output)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader reading plain scalars by YAML 1.2's core schema, as JSON reads numbers.

    PyYAML follows YAML 1.1, which reads ``0755`` as 493 (octal), ``1:30``
    as 90 (base 60), ``1_000`` as 1000, ``yes``/``no``/``on``/``off`` as
    booleans and ``1e-05`` as a string.  Here a plain scalar is null
    (``null``, ``~`` or empty), ``true``/``false``, a decimal, ``0o`` or
    ``0x`` integer (``0755`` reads 755), a float with an optional exponent,
    ``.inf`` or ``.nan``, in the spellings YAML 1.2 lists; anything else is
    a string.  Merge keys (``<<``) still merge; quoted scalars stay strings.
    """

    yaml_implicit_resolvers: dict = {}

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:  # a tag refusing its text: !!float abc
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            raise yaml.constructor.ConstructorError(None, None, f"{tag} cannot read {node.value!r}",
                                                    node.start_mark) from exc


def _int(loader: _Loader, node) -> int:
    """A YAML 1.2 integer: decimal (leading zeros allowed), ``0o`` octal or ``0x`` hexadecimal."""
    text = loader.construct_scalar(node)
    return int(text, 0) if text.lstrip("+-")[:2] in ("0o", "0x") else int(text)


for _tag, _pattern, _first in (
        ("null", r"~|null|Null|NULL|", ["~", "n", "N", ""]),
        ("bool", r"true|True|TRUE|false|False|FALSE", list("tTfF")),
        ("int", r"[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+", list("-+0123456789")),
        ("float", r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
                  r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)", list("-+0123456789.")),
        ("merge", r"<<", ["<"])):
    _Loader.add_implicit_resolver(f"tag:yaml.org,2002:{_tag}", re.compile(f"^(?:{_pattern})$"), _first)
_Loader.add_constructor("tag:yaml.org,2002:int", _int)


def parse_config(text: str | bytes) -> ExperimentConfig:
    """Parse and fully validate a YAML/JSON experiment document.

    ``text`` is a string, or bytes in UTF-8 or in UTF-16 with a BOM.  Plain
    scalars read by YAML 1.2's core schema, so numbers read as in JSON (see
    :class:`_Loader`).  Bytes that do not decode, a syntax error, a tag that
    cannot read its text (``!!float abc``, at its line and column) and nesting
    past the reader's recursion limit are each one :class:`ConfigError` problem.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.reader.ReaderError as exc:  # bytes that do not decode, or a character YAML refuses
        raise ConfigError([f"parse error at position {exc.position}: {str(exc).splitlines()[0]}"]) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError([f"parse error{where}: {getattr(exc, 'problem', exc)}"]) from exc
    except RecursionError as exc:
        raise ConfigError(["document: nested too deeply to read"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["document: expected a mapping at the top level"])
    return from_mapping(ExperimentConfig, raw)


def parse_config_file(path) -> ExperimentConfig:
    """:func:`parse_config` of the file's bytes, which the YAML reader decodes (UTF-8, or UTF-16 by its BOM)."""
    with open(path, "rb") as fh:
        return parse_config(fh.read())


def _kinded(kinds: dict, value, path: str, problems: Problems, **defaults):
    """``value`` as a record of ``kinds``: an instance, or a mapping of its ``kind`` and fields."""
    if isinstance(value, tuple(kinds.values())):
        return value
    if not isinstance(value, Mapping):
        problems.add(path, f"expected a mapping of a kind ({'/'.join(kinds)}) and its fields")
        return None
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        problems.add(f"{path}.kind", f"expected one of {'/'.join(kinds)}, got {kind!r}")
        return None
    entries = {key: item for key, item in value.items() if key != "kind"}
    return problems.nest(path, lambda: from_mapping(kinds[kind], {**defaults, **entries}))


def _window(raw, model: ModelSpec | None, path: str, problems: Problems) -> dict | None:
    """A window mapping, checked against the model and written in plain types."""
    if model is None:
        return None
    if problems.nest(path, lambda: validate_window(model, raw)) is None:
        return None
    return {name: [[int(v) if name == "counts" else float(v) for v in np.asarray(row, dtype=float)]
                   for row in raw[name]]
            for name in WINDOW_KEYS[model.kind]}


def plain(value):
    """``value`` in JSON types: the one rule by which configs and results reach ``report.json``.

    A dataclass becomes its fields by name, omitting a field still at its
    default of None (a required field that is None is written null), and a
    record with a class-level ``kind`` (a model spec or an experiment) leads
    with it.  Dict keys become strings, tuples and arrays lists, and
    non-finite floats None.
    """
    if is_dataclass(value):
        record = {f.name: plain(item) for f in fields(value)
                  if (item := getattr(value, f.name)) is not None or f.default is not None}
        return {"kind": value.kind, **record} if hasattr(value, "kind") else record
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
