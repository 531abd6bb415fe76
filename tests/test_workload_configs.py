"""Every config the benchmark generates parses.

``perfbench/workloads.py`` writes the documents each benchmark run hands to
the CLI, and a ``check`` document of the same model for set-up timing.  A
validation rule that refused one of them would fail every benchmark run;
here each is parsed at the benchmark's own seed and full size.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from countsim.config import parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("countsim_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["simulate-path", "couple-mix", "moments-highcount"])
def test_every_benchmark_document_parses(monkeypatch, name):
    workloads = _load_workloads(monkeypatch)
    invocations = workloads.WORKLOADS[name](7, 1.0, 2).invocations
    assert invocations
    for inv in invocations:
        assert parse_config(json.dumps(inv.document)).experiment.kind == inv.command, inv.name
        assert parse_config(json.dumps(inv.check_document())).experiment.kind == "check", inv.name
