import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from countsim import cli
from countsim.config import ConfigError, parse_config
from countsim.randomness import Dependence

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
    assert config.model.dependence == Dependence("independent")
    assert config.output_dir == "out"
    assert config.write_csv is True


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


@pytest.mark.parametrize("path, value", [
    (("model", "p"), True),
    (("model", "q"), True),
    (("experiment", "r_values"), [True]),
    (("experiment", "delta_values"), [True]),
])
def test_booleans_are_not_numbers(path, value):
    # A scalar model, so that True == 1 would pass for the dimension.
    raw = yaml.safe_load(MINIMAL_CHECK)
    raw["model"].update(p=1, intensity_offset=[1.0], lambda_matrices=[[[0.0]]], count_matrices=[[[0.5]]])
    raw["experiment"] = {"kind": "moments", "T": 100, "r_values": [1], "delta_values": [0.1]}
    parse_config(yaml.safe_dump(raw))
    raw[path[0]][path[1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(yaml.safe_dump(raw))
    assert any(p.startswith(".".join(path)) for p in err.value.problems)


def test_window_counts_must_be_integers_and_numbers():
    config = parse_config((CONFIG_DIR / "loglinear_couple.yaml").read_text(encoding="utf-8"))
    for counts, fragment in (([[1.5, 0]], "counts[0][0]: non-integer entry 1.5"),
                             ([[-1, 0]], "counts[0][0]: negative entry -1.0"),
                             ([["x", 0]], "counts[0]: expected a vector of 2 numbers")):
        raw = config.to_dict()
        raw["experiment"]["window_b"]["counts"] = counts
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_dump(raw))
        assert err.value.problems == [f"experiment.window_b.{fragment}"]


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
    once = config.to_dict()
    again = parse_config(yaml.safe_dump(once)).to_dict()
    assert once == again
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        config = parse_config(path.read_text(encoding="utf-8"))
        once = config.to_dict()
        again = parse_config(yaml.safe_dump(once)).to_dict()
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


@pytest.mark.parametrize("changes", [
    pytest.param({"T": 1, "burn_in": 0, "replicates": 1}, id="one-sample"),  # no standard error
    pytest.param({"r_values": [400], "T": 200, "replicates": 2}, id="overflow"),  # of |Y|_1 ** 400 squared
])
def test_non_finite_statistics_are_written_as_null(tmp_path, capsys, changes):
    def no_constants(name):
        raise AssertionError(f"report.json holds {name}, which is not JSON")

    raw = yaml.safe_load((CONFIG_DIR / "ingarch_moments.yaml").read_text(encoding="utf-8"))
    raw["experiment"].update(changes)
    cfg = write(tmp_path, yaml.safe_dump(raw))
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "m"), "--seed", "7", "--jobs", "1"]) == 0
    document = json.loads((tmp_path / "m" / "report.json").read_text(), parse_constant=no_constants)
    stats = [v for m in document["results"]["polynomial"].values() for v in m.values()]
    assert None in stats
    assert "n/a" in capsys.readouterr().out


def test_every_shipped_config_runs_quickly(tmp_path):
    commands = {
        "check": "check", "simulate": "simulate",
        "couple": "couple", "moments": "moments",
    }
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        config = parse_config(path.read_text(encoding="utf-8"))
        command = commands[config.experiment.kind]
        start = time.perf_counter()
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / path.stem), "--jobs", "4"])
        elapsed = time.perf_counter() - start
        assert code == 0, path.name
        assert elapsed < 60.0, f"{path.name} took {elapsed:.1f}s"


def test_strict_exit_codes_via_subprocess(tmp_path):
    passing = write(tmp_path, MINIMAL_CHECK, "ok.yaml")
    failing = write(tmp_path, MINIMAL_CHECK.replace("[[0.5, 0.4], [0.0, 0.5]]",
                                                    "[[0.9, 0.4], [0.4, 0.9]]"), "bad.yaml")
    base = [sys.executable, "-m", "countsim.cli"]
    # The child imports the same package as this process, however it was put on sys.path.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = functools.partial(subprocess.run, capture_output=True, env=env)

    ok = run(base + ["check", "--config", passing, "--strict", "--out", str(tmp_path / "o1")])
    assert ok.returncode == 0

    strict = run(base + ["check", "--config", failing, "--strict", "--out", str(tmp_path / "o2")])
    assert strict.returncode == 2

    lax = run(base + ["check", "--config", failing, "--out", str(tmp_path / "o3")])
    assert lax.returncode == 0

    missing = run(base + ["check", "--config", str(tmp_path / "nope.yaml")])
    assert missing.returncode == 1


def test_strict_blocks_other_experiments_too(tmp_path):
    cfg = str(CONFIG_DIR / "ingarch_couple_violating.yaml")
    code = cli.main(["couple", "--config", cfg, "--out", str(tmp_path / "v"), "--strict"])
    assert code == 2
    code = cli.main(["couple", "--config", cfg, "--out", str(tmp_path / "v"), "--jobs", "2"])
    assert code == 0


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
