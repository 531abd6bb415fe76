import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from countsim import cli, engine, linalg
from countsim.config import ConfigError, parse_config, parse_config_file, plain
from countsim.errors import Problems, checked_array
from countsim.models import IngarchSpec
from countsim.randomness import Dependence
from manifest import load_manifest, moved
from test_workload_configs import _load_workloads

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_CHECK = """
seed: 1
model:
  kind: ingarch
  p: 2
  q: 1
  intensity_offset: [1.0, 1.0]
  lambda_matrices:
    - [[0.0, 0.0], [0.0, 0.0]]
  count_matrices:
    - [[0.5, 0.4], [0.0, 0.5]]
experiment:
  kind: check
"""


def write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- parsing and validation ----------------------------------------------------

def test_minimal_config_fills_defaults():
    config = parse_config(MINIMAL_CHECK)
    assert config.seed == 1
    assert (config.model.dependence.scheme, config.model.dependence.correlation) == ("independent", None)
    assert config.output.directory == "out"
    assert config.output.csv is True


def test_simulate_default_burn_in():
    text = MINIMAL_CHECK.replace("kind: check", "kind: simulate\n  T: 100")
    config = parse_config(text)
    assert config.experiment.burn_in == 1000


def test_missing_seed_is_reported():
    text = "\n".join(line for line in MINIMAL_CHECK.splitlines() if not line.startswith("seed"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("seed required" in p for p in err.value.problems)


def test_bernoulli_mean_error_names_the_entry():
    text = """
seed: 3
model:
  kind: ginar
  p: 2
  q: 1
  mean_matrices:
    - [[0.4, 1.5], [0.0, 0.2]]
  counting_family: bernoulli
  immigration:
    family: poisson
    values: [1.0, 1.0]
experiment:
  kind: check
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("mean_matrices[0][0][1]" in p for p in err.value.problems)


def test_validation_errors_are_batched():
    text = """
model:
  kind: ingarch
  p: 2
  q: 1
  intensity_offset: [1.0]
  lambda_matrices:
    - [[0.0, 0.0], [0.0, 0.0]]
  count_matrices:
    - [[0.5, -0.4], [0.0, 0.5]]
experiment:
  kind: couple
  n: 4
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    text = "\n".join(err.value.problems)
    assert "seed" in text
    assert "intensity_offset" in text
    assert "count_matrices[0][0][1]" in text
    assert "experiment.n" in text


def test_one_pass_reports_nested_and_matrix_problems():
    text = """
seed: 3
model:
  kind: ginar
  p: 2
  mean_matrices:
    - [[0.4, 1.5], [0.0, 0.2]]
  counting_family: bernoulli
  immigration:
    family: poisson
    values: [1.0, -2.0]
experiment:
  kind: check
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    problems = err.value.problems
    assert any(p.startswith("model.immigration.values") for p in problems)
    assert any(p.startswith("model.mean_matrices[0][0][1]") for p in problems)


def _parses_with(config: str, path: str, value):
    """Parsing a shipped config with ``value`` put at the dotted ``path`` and a boolean seed."""
    raw = yaml.safe_load((CONFIG_DIR / config).read_text(encoding="utf-8"))
    *sections, key = path.split(".")
    target = raw
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    raw["seed"] = True
    return lambda: parse_config(yaml.safe_dump(raw))


BOOLEAN_SEED = "seed: expected an integer, got True"


@pytest.mark.parametrize("build, problems", [
    pytest.param(_parses_with("ingarch_couple.yaml", "sed", 1),
                 ["sed: unknown key", BOOLEAN_SEED], id="document"),
    pytest.param(_parses_with("ingarch_couple.yaml", "model.dependance", {"scheme": "gaussian"}),
                 [BOOLEAN_SEED, "model.dependance: unknown key"], id="model"),
    pytest.param(_parses_with("ginar_couple.yaml", "model.immigration.extra", 3),
                 [BOOLEAN_SEED, "model.immigration.extra: unknown key"], id="immigration"),
    pytest.param(_parses_with("ingarch_couple.yaml", "model.dependence.corr", 1),
                 [BOOLEAN_SEED, "model.dependence.corr: unknown key"], id="dependence"),
    pytest.param(_parses_with("ingarch_simulate.yaml", "experiment.burnin", 5),
                 [BOOLEAN_SEED, "experiment.burnin: unknown key"], id="experiment"),
    pytest.param(_parses_with("ingarch_couple.yaml", "experiment.window_b.intensitys", [[8.0, 8.0]]),
                 [BOOLEAN_SEED, "experiment.window_b.intensitys: unknown key"], id="window"),
    pytest.param(_parses_with("ingarch_simulate.yaml", "output.csvv", False),
                 [BOOLEAN_SEED, "output.csvv: unknown key"], id="output"),
    pytest.param(lambda: IngarchSpec(1, 1, [1.0, 2.0], ([[0.3]],), ([[0.5]],),
                                     {"scheme": "independent", "corr": 1}),
                 ["intensity_offset: expected a vector of 1 numbers", "dependence.corr: unknown key"], id="api"),
])
def test_a_key_that_names_no_field_is_refused_by_its_path(build, problems):
    # Each unknown key comes in the same pass as another problem.
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.problems == problems


# Scalar models, so that True == 1 would pass for every dimension and entry.
_SCALAR_INGARCH = {"kind": "ingarch", "p": 1, "intensity_offset": [1.0],
                   "lambda_matrices": [[[0.0]]], "count_matrices": [[[0.5]]]}
SCALAR_DOCUMENTS = {
    "ingarch": {"seed": 1,
                "model": {**_SCALAR_INGARCH, "dependence": {"scheme": "gaussian", "correlation": [[1.0]]}},
                "experiment": {"kind": "moments", "T": 100, "r_values": [1], "delta_values": [0.1]}},
    "ginar": {"seed": 1,
              "model": {"kind": "ginar", "p": 1, "mean_matrices": [[[0.5]]],
                        "immigration": {"family": "poisson", "values": [1.0]}},
              "experiment": {"kind": "check"}},
    "couple": {"seed": 1, "model": _SCALAR_INGARCH,
               "experiment": {"kind": "couple", "n": 10,
                              "window_a": {"counts": [[0]], "intensities": [[1.0]]},
                              "window_b": {"counts": [[3]], "intensities": [[8.0]]}}},
}


@pytest.mark.parametrize("path, value", [
    (("ingarch", "model", "p"), True),
    (("ingarch", "model", "q"), True),
    (("ingarch", "experiment", "r_values"), [True]),
    (("ingarch", "experiment", "delta_values"), [True]),
    (("ingarch", "model", "intensity_offset"), [True]),
    (("ingarch", "model", "intensity_offset"), ["1.0"]),
    (("ingarch", "model", "count_matrices"), [[[True]]]),
    (("ingarch", "model", "count_matrices"), [[["0.5"]]]),
    (("ingarch", "model", "dependence", "correlation"), [[True]]),
    (("ingarch", "model", "dependence", "correlation"), [["1"]]),
    (("ginar", "model", "immigration", "values"), [True]),
    (("ginar", "model", "immigration", "values"), ["1.0"]),
    (("couple", "experiment", "window_b", "counts"), [[True]]),
    (("couple", "experiment", "window_b", "counts"), [["3"]]),
    (("couple", "experiment", "window_b", "intensities"), [[True]]),
    (("couple", "experiment", "window_b", "intensities"), [["8.0"]]),
])
def test_booleans_are_not_numbers(path, value):
    # ``path`` names a scalar document, then the keys down to the field.
    raw = copy.deepcopy(SCALAR_DOCUMENTS[path[0]])
    parse_config(yaml.safe_dump(raw))
    target = raw
    for key in path[1:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert any(p.startswith(".".join(path[1:])) for p in err.value.problems)


@pytest.mark.parametrize("build, problem", [
    pytest.param(lambda: IngarchSpec(1, 1, [True], ([[0.3]],), ([[0.5]],)),
                 "intensity_offset: expected a vector of 1 numbers", id="spec-boolean"),
    pytest.param(lambda: IngarchSpec(1, 1, [10**400], ([[0.3]],), ([[0.5]],)),  # no float holds it
                 "intensity_offset: expected a vector of 1 numbers", id="spec-huge-integer"),
    pytest.param(lambda: linalg.stationary_mean(["1", 1.0], [[0.5, 0.1], [0.0, 0.2]]),
                 "offset: expected a vector of numbers", id="linalg-string"),
])
def test_library_calls_refuse_what_is_not_a_number(build, problem):
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.problems == [problem]


def _nested(depth: int, leaf=1.0):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


@pytest.mark.parametrize("depth", [33, 70])
def test_a_list_nested_past_numpys_iteration_limit_is_a_wrong_shape(depth):
    # numpy iterates at most 32 dimensions and builds at most 64.
    problems = Problems()
    assert checked_array(_nested(depth), (1,), "offset", problems, "real") is None
    assert problems.items == ["offset: expected a vector of 1 numbers"]
    with pytest.raises(ConfigError) as err:
        IngarchSpec(1, 1, _nested(depth), ([[0.3]],), ([[0.5]],))
    assert err.value.problems == ["intensity_offset: expected a vector of 1 numbers"]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(offset=st.floats(min_value=0.0, max_value=1e18))
def test_every_number_json_writes_parses_back_to_itself(offset):
    # json.dumps writes 1e-05 and 1e+16, which YAML 1.1 reads as strings.
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"]["intensity_offset"] = [offset, 1.0]
    assert parse_config(json.dumps(raw)).model.intensity_offset[0] == offset


@pytest.mark.parametrize("text, value", [("1e3", 1000.0), ("1.5e3", 1500.0), ("1e-3", 0.001)])
def test_yaml_numbers_with_an_exponent_are_floats_and_quoted_ones_strings(text, value):
    def offset(entry):
        return MINIMAL_CHECK.replace("seed: 1", "seed: 01000").replace("[1.0, 1.0]", f"[{entry}, 1.0]")

    config = parse_config(offset(text))
    assert config.model.intensity_offset.tolist() == [value, 1.0]
    assert config.seed == 1000  # a leading zero is decimal, as in YAML 1.2
    with pytest.raises(ConfigError) as err:
        parse_config(offset(f'"{text}"'))
    assert err.value.problems == ["model.intensity_offset: expected a vector of 2 numbers"]


@pytest.mark.parametrize("old, new, read", [
    pytest.param("seed: 1", "seed: 0755", 755, id="0755"),  # YAML 1.1: octal, 493
    pytest.param("seed: 1", "seed: 0o17", 15, id="0o17"),  # YAML 1.1: a string
    pytest.param("seed: 1", "seed: 1:30", "seed: expected an integer, got '1:30'", id="1:30"),  # 1.1: base 60, 90
    pytest.param("seed: 1", "seed: 1_000", "seed: expected an integer, got '1_000'", id="1_000"),  # 1.1: 1000
    *[pytest.param("kind: check", f"kind: check\noutput:\n  csv: {word}", "output.csv: expected a boolean",
                   id=f"csv-{word}") for word in ("yes", "on", "no", "off")],  # YAML 1.1: booleans
    pytest.param("q: 1", "q: 1\n  dependence:\n    scheme: off",  # YAML 1.1: False
                 "model.dependence.scheme: expected one of ('independent', 'comonotone', 'gaussian'), got 'off'",
                 id="scheme-off"),
])
def test_plain_scalars_read_by_yaml_1_2s_core_schema(old, new, read):
    text = MINIMAL_CHECK.replace(old, new, 1)
    if isinstance(read, int):
        assert parse_config(text).seed == read
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [read]


@pytest.mark.parametrize("data, message", [
    pytest.param(b"seed: 7\n\xff\xfe bad\n", "parse error at position 8: unacceptable character #x00ff",
                 id="not-utf-8"),
    pytest.param(b"model: " + b"[" * 5000 + b"]" * 5000 + b"\n", "document: nested too deeply to read",
                 id="past-the-recursion-limit"),
    pytest.param(MINIMAL_CHECK.replace("[1.0, 1.0]", json.dumps(_nested(40))).encode(),
                 "model.intensity_offset: expected a vector of 2 numbers", id="40-levels"),
])
def test_config_text_the_reader_cannot_read_exits_1_with_a_message(tmp_path, capsys, data, message):
    config = tmp_path / "config.yaml"
    config.write_bytes(data)
    assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and message in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["!!float abc", "!!int abc", "!!int 0x", "!!bool maybe",
                                   "!!timestamp 2001-13-45", "!!timestamp abc", "!!float"])
def test_a_tag_that_cannot_read_its_text_exits_1_at_its_line_and_column(tmp_path, capsys, value):
    text = (CONFIG_DIR / "ginar_couple.yaml").read_text(encoding="utf-8")
    line = text.splitlines().index("seed: 501") + 1
    config = write(tmp_path, text.replace("seed: 501", f"seed: {value}", 1))
    assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    tag, _, body = value.partition(" ")
    assert f"parse error at line {line}, column 7: {tag} cannot read {body!r}" in err and "Traceback" not in err


def test_a_couple_whose_windows_are_past_the_double_range_apart_exits_1(tmp_path, capsys):
    raw = yaml.safe_load((CONFIG_DIR / "ingarch_couple.yaml").read_text(encoding="utf-8"))
    raw["experiment"].update(n=50, replicates=4)
    raw["experiment"]["window_b"] = {"counts": [[10, 10]], "intensities": [[1.7e308, 1.7e308]]}
    out = tmp_path / "out"
    assert cli.main(["couple", "--config", write(tmp_path, yaml.safe_dump(raw)), "--out", str(out), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert "window_b: expected a finite l1 distance from window_a, got inf" in err and "Traceback" not in err
    assert not out.exists()


def test_a_utf_16_config_with_a_bom_reads_as_its_utf_8_text(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_bytes(MINIMAL_CHECK.encode("utf-16"))
    assert plain(parse_config_file(config)) == plain(parse_config(MINIMAL_CHECK))
    assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_window_counts_must_be_integers_and_numbers():
    config = parse_config((CONFIG_DIR / "loglinear_couple.yaml").read_text(encoding="utf-8"))
    for counts, fragment in (([[1.5, 0]], "counts[0][0]: non-integer entry 1.5"),
                             ([[-1, 0]], "counts[0][0]: negative entry -1.0"),
                             ([["x", 0]], "counts[0]: expected a vector of 2 numbers")):
        raw = plain(config)
        raw["experiment"]["window_b"]["counts"] = counts
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_dump(raw))
        assert err.value.problems == [f"experiment.window_b.{fragment}"]


def test_counts_past_2_53_are_refused_by_entry_in_one_pass():
    # A float holds every integer below 2**53 exactly and no count past it is needed;
    # 10**19 no int64 holds, and 2**53 + 1 would round to 2**53.
    raw = plain(parse_config((CONFIG_DIR / "ginar_couple.yaml").read_text(encoding="utf-8")))
    raw["experiment"]["window_a"]["counts"] = [[10**19, 0]]
    raw["experiment"]["window_b"]["counts"] = [[0, 2**53 + 1]]
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert err.value.problems == ["experiment.window_a.counts[0][0]: count not below 2**53",
                                  "experiment.window_b.counts[0][1]: count not below 2**53"]
    raw = plain(parse_config((CONFIG_DIR / "ginar_simulate.yaml").read_text(encoding="utf-8")))
    raw["model"]["immigration"] = {"family": "constant", "values": [1e19]}
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert err.value.problems == ["model.immigration.values[0]: count not below 2**53"]


def test_linear_intensity_offsets_past_the_intensity_limit_are_refused_by_path(tmp_path, capsys):
    # lambda >= d entrywise, so such an offset would diverge at time index 0 of every run.
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"]["intensity_offset"] = [1.0, sys.float_info.max]
    problem = "model.intensity_offset[1]: mean 1.7976931348623157e+308 exceeds 1e+18"
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert err.value.problems == [problem]
    assert cli.main(["check", "--config", write(tmp_path, yaml.safe_dump(raw))]) == 1
    assert problem in capsys.readouterr().err


def test_lag_sums_past_the_double_range_get_exact_verdicts(tmp_path, capsys):
    # A + B = [[0, inf], [0, 0]] after rounding: nilpotent, so rho = 0, and
    # lambda_1 = 1 for ever; [[inf]] fails.
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"]["intensity_offset"] = [1.0, 0.0]
    raw["model"]["lambda_matrices"] = raw["model"]["count_matrices"] = [[[0.0, 1.7e308], [0.0, 0.0]]]
    stationary = write(tmp_path, yaml.safe_dump(raw), "nilpotent.yaml")
    out = ["--out", str(tmp_path / "out")]
    assert cli.main(["check", "--config", stationary, "--strict", *out]) == 0
    raw["experiment"] = {"kind": "simulate", "T": 20, "burn_in": 5}
    assert cli.main(["simulate", "--config", write(tmp_path, yaml.safe_dump(raw), "run.yaml"), *out]) == 0
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"].update(p=1, intensity_offset=[1.0], lambda_matrices=[[[1.7e308]]], count_matrices=[[[1.7e308]]])
    failing = write(tmp_path, yaml.safe_dump(raw), "scalar.yaml")
    assert cli.main(["check", "--config", failing, *out]) == 0
    assert cli.main(["check", "--config", failing, "--strict", *out]) == 2
    assert "stationarity condition fails" in capsys.readouterr().err


def test_non_numeric_matrix_is_a_problem():
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"]["count_matrices"] = [[["x"]]]
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert err.value.problems == ["model.count_matrices[0]: expected a 2x2 matrix of numbers"]


def test_parse_error_reports_line_and_column():
    with pytest.raises(ConfigError) as err:
        parse_config("seed: 1\nmodel: [unclosed")
    assert any("line" in p for p in err.value.problems)


def test_round_trip_is_idempotent():
    config = parse_config(MINIMAL_CHECK)
    once = plain(config)
    again = plain(parse_config(yaml.safe_dump(once)))
    assert once == again
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        config = parse_config(path.read_text(encoding="utf-8"))
        once = plain(config)
        again = plain(parse_config(yaml.safe_dump(once)))
        assert once == again, path.name


def test_gaussian_dependence_round_trip():
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"]["dependence"] = {"scheme": "gaussian",
                                  "correlation": [[1.0, 0.5], [0.5, 1.0]]}
    config = parse_config(yaml.safe_dump(raw))
    assert config.model.dependence.scheme == "gaussian"
    raw["model"]["dependence"]["correlation"] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ConfigError):
        parse_config(yaml.safe_dump(raw))


def _records(value):
    """``value`` and every record among its fields, depth first."""
    if dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _records(getattr(value, f.name))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.stem)
def test_records_of_every_shipped_config_compare_and_hash(path):
    # Records that hold arrays or mappings compare by identity; none raises on == or hash.
    text = path.read_text(encoding="utf-8")
    first, second = (list(_records(parse_config(text))) for _ in range(2))
    assert [type(r) for r in first] == [type(r) for r in second]
    for a, b in zip(first, second):
        hash(a)
        assert a == a
        assert (a == b) in (True, False)


# --- running the front end -------------------------------------------------------

def test_check_command_writes_report(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_CHECK)
    code = cli.main(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "stationarity" in out and "holds" in out
    document = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(document) == {"config", "lineage", "results"}
    assert document["results"]["computed"]["rho_sum_AB"]["value"] == pytest.approx(0.5, abs=1e-8)
    assert document["results"]["computed"]["l1_sum_norms"]["value"] == pytest.approx(0.9)
    assert document["lineage"]["master_seed"] == 1


def test_command_and_config_must_agree(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL_CHECK)
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "subcommand" in capsys.readouterr().err


def test_simulate_command_writes_csv_and_is_deterministic(tmp_path):
    cfg = str(CONFIG_DIR / "ginar_simulate.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "path.csv").read_bytes() == (out_b / "path.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = str(CONFIG_DIR / "ginar_simulate.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "path.csv").read_bytes() != (out_b / "path.csv").read_bytes()


def test_couple_jobs_do_not_change_results(tmp_path):
    cfg = str(CONFIG_DIR / "ginar_couple.yaml")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["couple", "--config", cfg, "--out", str(out_a), "--jobs", "1"]) == 0
    assert cli.main(["couple", "--config", cfg, "--out", str(out_b), "--jobs", "4"]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    results = json.loads((out_a / "report.json").read_text())["results"]
    assert results["fitted_rate"] < 1.0
    assert results["initial_distance"] > 0


def test_moments_command(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "ingarch_moments.yaml")
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "m"), "--jobs", "2"]) == 0
    document = json.loads((tmp_path / "m" / "report.json").read_text())
    assert document["results"]["polynomial"]["2.0"]["estimate"] == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("changes, nulls", [
    pytest.param({"T": 1, "burn_in": 0, "replicates": 1},  # no standard error
                 [("polynomial", "1.0", "std_error"), ("exponential", "0.1", "std_error")], id="one-sample"),
    pytest.param({"r_values": [1000], "T": 200, "replicates": 2},  # |Y|_1 ** 1000 overflows
                 [("polynomial", "1000.0", "estimate")], id="overflow"),
    pytest.param({"delta_values": [0.1, 1.0e308], "T": 200, "replicates": 4},  # 1e308 |Y|_1 overflows
                 [("exponential", "1e+308", "log_estimate"), ("exponential", "1e+308", "std_error")],
                 id="exponential-overflow"),
])
def test_non_finite_statistics_are_written_as_null(tmp_path, capsys, changes, nulls):
    def no_constants(name):
        raise AssertionError(f"report.json holds {name}, which is not JSON")

    raw = yaml.safe_load((CONFIG_DIR / "ingarch_moments.yaml").read_text(encoding="utf-8"))
    raw["experiment"].update(changes)
    cfg = write(tmp_path, yaml.safe_dump(raw))
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "m"), "--seed", "7", "--jobs", "1"]) == 0
    document = json.loads((tmp_path / "m" / "report.json").read_text(), parse_constant=no_constants)
    for kind, key, stat in nulls:
        assert document["results"][kind][key][stat] is None
    assert "n/a" in capsys.readouterr().out


def test_plain_is_one_rule_for_every_record():
    assert plain(Dependence()) == {"scheme": "independent"}  # left at its default of None: omitted
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert plain(Dependence("gaussian", corr)) == {"scheme": "gaussian", "correlation": corr.tolist()}
    assert plain((1, np.array([-math.inf, 2.5]))) == [1, [None, 2.5]]


def test_shipped_config_outputs_match_the_determinism_manifest(tmp_path, monkeypatch):
    # Every output file of every shipped config at --seed 7, by SHA-256, under
    # --jobs 1 and under --jobs 4 with workers forced (a short run would run
    # in process): outputs do not depend on where blocks run or on the worker
    # count, and every run stays within 60 s.  numpy does not promise the Generator
    # stream across releases, so the manifest names the version it was made
    # with.  A numpy upgrade, or a change that moves bits on purpose,
    # regenerates it from the digests the failing assertion prints.
    manifest = load_manifest()
    for jobs in ("1", "4"):
        if jobs == "4":
            monkeypatch.setattr(engine, "POOL_MIN_BLOCK_STEPS", 0)
        digests = {}
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            out = tmp_path / jobs / path.stem
            command = parse_config(path.read_text(encoding="utf-8")).experiment.kind
            start = time.perf_counter()
            code = cli.main([command, "--config", str(path), "--seed", "7", "--jobs", jobs, "--out", str(out)])
            elapsed = time.perf_counter() - start
            assert code == 0, path.name
            assert elapsed < 60.0, f"{path.name} took {elapsed:.1f}s at --jobs {jobs}"
            for item in sorted(out.iterdir()):
                digests[f"{path.stem}/{item.name}"] = hashlib.sha256(item.read_bytes()).hexdigest()
        assert digests == manifest["digests"], moved(digests, manifest["digests"], f"outputs moved at --jobs {jobs}")


def test_benchmark_outputs_match_the_determinism_manifest(tmp_path, monkeypatch):
    # Every output file of every benchmark invocation, and of a check of its
    # model, at the manifest's seed and a reduced size.  They pin what no
    # shipped config reaches: the Gaussian copula, q > 1 and Poisson
    # counting.  The same digests hold at --jobs 1 and at --jobs 2 with
    # workers forced, since outputs do not depend on where blocks run.  Regenerated like the shipped configs'
    # digests, at the manifest's jobs.
    manifest = load_manifest()
    pinned = manifest["benchmark"]
    for jobs in ("1", "2"):
        if jobs == "2":
            monkeypatch.setattr(engine, "POOL_MIN_BLOCK_STEPS", 0)
        digests = {}
        for make in _load_workloads(monkeypatch).WORKLOADS.values():
            for inv in make(manifest["seed"], pinned["scale"], manifest["jobs"]).invocations:
                for name, document, command in ((inv.name, inv.document, inv.command),
                                                (f"{inv.name}-check", inv.check_document(), "check")):
                    config, out = tmp_path / jobs / f"{name}.json", tmp_path / jobs / name
                    config.parent.mkdir(exist_ok=True)
                    config.write_text(json.dumps(document), encoding="utf-8")
                    assert cli.main([command, "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 0
                    for item in sorted(out.iterdir()):
                        digests[f"{name}/{item.name}"] = hashlib.sha256(item.read_bytes()).hexdigest()
        assert digests == pinned["digests"], moved(digests, pinned["digests"], f"outputs moved at --jobs {jobs}")


def _child(args, **env):
    """Run ``python args`` in a fresh process that imports the package this process tests.

    Importing ``countsim.cli`` here set ``OPENBLAS_NUM_THREADS``, so the child
    gets it only from ``env``.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env={**base, **env})


def test_strict_exit_codes_via_subprocess(tmp_path):
    passing = write(tmp_path, MINIMAL_CHECK, "ok.yaml")
    failing = write(tmp_path, MINIMAL_CHECK.replace("[[0.5, 0.4], [0.0, 0.5]]",
                                                    "[[0.9, 0.4], [0.4, 0.9]]"), "bad.yaml")
    base = ["-m", "countsim.cli"]

    ok = _child(base + ["check", "--config", passing, "--strict", "--out", str(tmp_path / "o1")])
    assert ok.returncode == 0

    strict = _child(base + ["check", "--config", failing, "--strict", "--out", str(tmp_path / "o2")])
    assert strict.returncode == 2

    lax = _child(base + ["check", "--config", failing, "--out", str(tmp_path / "o3")])
    assert lax.returncode == 0

    missing = _child(base + ["check", "--config", str(tmp_path / "nope.yaml")])
    assert missing.returncode == 1


@pytest.mark.parametrize("args, message", [
    (["check"], "the following arguments are required: --config"),
    (["check", "--config", "c.yaml", "--jobs", "abc"], "argument --jobs: expected an integer >= 1, got 'abc'"),
    (["check", "--config", "c.yaml", "--jobs", "0"], "argument --jobs: expected an integer >= 1, got '0'"),
    (["check", "--config", "c.yaml", "--jobs", "-5"], "argument --jobs: expected an integer >= 1, got '-5'"),
    (["bogus"], "invalid choice: 'bogus'"),
])
def test_a_usage_error_exits_1_with_its_message(args, message):
    usage = _child(["-m", "countsim.cli", *args])
    assert usage.returncode == 1
    assert message in usage.stderr and "usage: countsim" in usage.stderr


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag):
    shown = _child(["-m", "countsim.cli", flag])
    assert shown.returncode == 0 and "countsim" in shown.stdout


def test_importing_the_package_loads_no_numpy_until_a_name_is_used():
    probe = ("import sys, countsim; print('numpy' in sys.modules); "
             "print(countsim.linalg.__name__, 'numpy' in sys.modules)")
    child = _child(["-c", probe])
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False", "countsim.linalg", "True"]


def test_a_short_couple_run_loads_neither_numpy_ma_nor_multiprocessing(tmp_path):
    # Two blocks of 200 steps run in process at --jobs 2, and the summary's
    # median and fit need neither numpy.ma nor LAPACK; each costs peak RSS.
    probe = ("import sys; from countsim import cli; "
             f"code = cli.main(['couple', '--config', {str(CONFIG_DIR / 'ginar_couple.yaml')!r}, "
             f"'--jobs', '2', '--out', {str(tmp_path)!r}]); "
             "print(code, 'numpy.ma' in sys.modules, 'multiprocessing' in sys.modules)")
    child = _child(["-c", probe])
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "0 False False"


def test_every_public_name_is_the_object_its_submodule_defines():
    import countsim

    for name in set(countsim.__all__) - {"__version__"}:
        found = getattr(countsim, name)
        assert found.__module__.startswith("countsim."), name
        assert getattr(sys.modules[found.__module__], name) is found, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        countsim.no_such_name


_THREADS = "import os, countsim.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
@pytest.mark.parametrize("env, expected", [({}, "1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 2")])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(env, expected):
    child = _child(["-c", _THREADS], **env)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == expected


def test_strict_blocks_other_experiments_too(tmp_path):
    cfg = str(CONFIG_DIR / "ingarch_couple_violating.yaml")
    code = cli.main(["couple", "--config", cfg, "--out", str(tmp_path / "v"), "--strict"])
    assert code == 2
    code = cli.main(["couple", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "2"])
    assert code == 0


def test_the_condition_report_is_computed_only_where_it_is_read(tmp_path, monkeypatch):
    # check writes it and --strict reads its stationarity verdict; a plain run reads neither.
    check_model, calls = cli.analysis.check_model, []
    monkeypatch.setattr(cli.analysis, "check_model", lambda spec: calls.append(spec) or check_model(spec))
    check = write(tmp_path, MINIMAL_CHECK, "check.yaml")
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["experiment"] = {"kind": "simulate", "T": 20, "burn_in": 5}
    run = write(tmp_path, yaml.safe_dump(raw), "run.yaml")
    out = ["--out", str(tmp_path / "out")]
    counts = []
    for command, config, *flags in (("simulate", run), ("simulate", run, "--strict"), ("check", check)):
        assert cli.main([command, "--config", config, *flags, *out]) == 0
        counts.append(len(calls))
    assert counts == [0, 1, 2]


WRAPPING_COUPLE = """
seed: 1
model:
  kind: ginar
  p: 4
  q: 1
  mean_matrices:
    - [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]
  counting_family: bernoulli
  immigration: {family: constant, values: [0, 0, 0, 0]}
experiment:
  kind: couple
  n: 20
  replicates: 1
  window_a: {counts: [[4503599627370496, 4503599627370496, 4503599627370496, 4503599627370496]]}
  window_b: {counts: [[0, 0, 0, 0]]}
"""


def test_ginar_counts_past_64_bits_are_a_divergence(tmp_path, capsys):
    # Each count quadruples from 2**52; the sums of four 2**62 terms at t = 5
    # would wrap to 0 and look like coalescence.
    code = cli.main(["couple", "--config", write(tmp_path, WRAPPING_COUPLE), "--out", str(tmp_path / "w"),
                     "--jobs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trajectory diverged: ") and err.rstrip().endswith("(at time index 5)")


def test_value_error_from_the_engine_exits_with_a_message(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("intensities must be finite and nonnegative")

    monkeypatch.setattr(cli.engine, "couple_ensemble", broken)
    cfg = str(CONFIG_DIR / "ingarch_couple.yaml")
    code = cli.main(["couple", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: intensities must be finite")
    assert "Traceback" not in err


def test_a_memory_error_exits_1_with_a_message(tmp_path, capsys, monkeypatch):
    # A run below the run-length bounds can still ask for more memory than the host has.
    def hungry(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli.engine, "monte_carlo_moments", hungry)
    cfg = str(CONFIG_DIR / "ingarch_moments.yaml")
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "m"), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_refused_by_path(tmp_path, capsys, seed):
    # _mix reads 64 bits of a seed, so -1 would draw the bits of 2**64 - 1, and 2**64 those of 0.
    problem = f"seed: expected an integer in [0, 2**64), got {seed}"
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_CHECK.replace("seed: 1", f"seed: {seed}"))
    assert err.value.problems == [problem]
    code = cli.main(["check", "--config", write(tmp_path, MINIMAL_CHECK), "--seed", str(seed),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration") and problem in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_64_bits_are_accepted(tmp_path, seed):
    assert parse_config(MINIMAL_CHECK.replace("seed: 1", f"seed: {seed}")).seed == seed
    out = tmp_path / "out"
    assert cli.main(["check", "--config", write(tmp_path, MINIMAL_CHECK), "--seed", str(seed), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["lineage"]["master_seed"] == seed


@pytest.mark.parametrize("key, value, ok", [
    ("T", 2**63 - 1 - 1000, True),
    ("T", 2**63 - 1000, False),  # with burn_in 1000, T + burn_in reaches 2**63
    ("T", 2**63, False),
    ("burn_in", 2**63 - 1 - 50000, True),
    ("burn_in", 2**70, False),
])
def test_run_lengths_at_or_past_2_63_are_refused_by_path(key, value, ok):
    # Parsed only: a run of this length is never started.
    text = (CONFIG_DIR / "ingarch_simulate.yaml").read_text(encoding="utf-8")
    raw = yaml.safe_load(text)
    raw["experiment"][key] = value
    if ok:
        assert getattr(parse_config(yaml.safe_dump(raw)).experiment, key) == value
        return
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(f"experiment.{key}: " if value >= 2**63 else "experiment.burn_in: ")
    assert "2**63" in err.value.problems[0]
