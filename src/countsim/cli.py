"""Config-driven command line front end.

Subcommands ``check``, ``simulate``, ``couple`` and ``moments`` each take a
config file describing one model and one experiment, run it, print a human
readable summary and write ``report.json`` (plus ``path.csv`` for simulate)
into the output directory.  Exit codes: 0 on success, 1 on runtime or
configuration errors, 2 when ``--strict`` is set and the model's
stationarity condition fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__, analysis, engine
from .config import ExperimentConfig, parse_config_file
from .errors import ConfigurationError, DivergenceError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countsim",
        description="Simulate and verify multivariate count autoregressions.",
    )
    parser.add_argument("--version", action="version", version=f"countsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("check", "evaluate the model's stability and moment conditions"),
        ("simulate", "simulate a sample path and export it as CSV"),
        ("couple", "run a replicated common-noise coupling experiment"),
        ("moments", "estimate polynomial and exponential moments"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config's master seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                         help="worker processes for replicate blocks (default: hardware threads); "
                              "no value changes any output")
        cmd.add_argument("--strict", action="store_true",
                         help="exit with status 2 if the stationarity condition fails")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config_file(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if config.experiment.kind != args.command:
        print(f"error: config describes a {config.experiment.kind!r} experiment, "
              f"but the {args.command!r} subcommand was invoked", file=sys.stderr)
        return 1
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    try:
        return run(config, out_dir=args.out, jobs=args.jobs, strict=args.strict)
    except DivergenceError as exc:
        print(f"error: trajectory diverged: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(config: ExperimentConfig, out_dir: str | None = None,
        jobs: int = 1, strict: bool = False) -> int:
    """Execute one validated experiment and write its artifacts.

    ``out_dir`` overrides where files land without touching the embedded
    config, so reruns of one experiment stay byte-identical wherever they
    are written.
    """
    report = analysis.check_model(config.model)
    if strict and not report.holds("stationarity"):
        print(report.format_table())
        print("strict mode: stationarity condition fails", file=sys.stderr)
        return 2

    out_dir = config.output_dir if out_dir is None else out_dir
    exp = config.experiment
    if exp.kind == "check":
        results, summary, extra_files = report.to_dict(), report.format_table(), []
    else:
        results, summary, extra_files = _RUNNERS[exp.kind](config, out_dir, jobs)

    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    document = {
        "config": config.to_dict(),
        "lineage": {
            "master_seed": config.seed,
            "replicates": getattr(exp, "replicates", 1),
            "toolkit_version": __version__,
        },
        "results": results,
    }
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(document, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    print(summary)
    for path in [report_path] + extra_files:
        print(f"wrote {path}")
    return 0


def _run_simulate(config: ExperimentConfig, out_dir: str, jobs: int):
    exp = config.experiment
    path = engine.simulate(config.model, exp.T, exp.burn_in, master_seed=config.seed)
    mean_counts = path.counts.mean(axis=0)
    mean_intensity = path.intensities.mean(axis=0)
    results = {
        "T": exp.T,
        "burn_in": exp.burn_in,
        "mean_counts": [float(v) for v in mean_counts],
        "mean_intensities": [float(v) for v in mean_intensity],
        "max_count": int(path.counts.max()),
    }
    extra_files = []
    if config.write_csv:
        csv_path = os.path.join(out_dir, "path.csv")
        os.makedirs(out_dir, exist_ok=True)
        path.to_csv(csv_path)
        results["csv"] = "path.csv"
        extra_files.append(csv_path)
    means = ", ".join(f"{v:.4f}" for v in mean_counts)
    summary = f"simulated {exp.T} steps after burn-in {exp.burn_in}; mean counts ({means})"
    return results, summary, extra_files


def _run_couple(config: ExperimentConfig, out_dir: str, jobs: int):
    exp = config.experiment
    ensemble = engine.couple_ensemble(
        config.model, exp.n, exp.window_a, exp.window_b,
        master_seed=config.seed, replicates=exp.replicates, jobs=jobs,
    )
    results = {
        "n": exp.n,
        "replicates": exp.replicates,
        "initial_distance": ensemble.initial_distance,
        "final_mean_distance": float(ensemble.mean_distances[-1]),
        "median_final_distance": ensemble.median_final_distance,
        "fitted_rate": ensemble.fitted_rate,
        "fit_window": list(ensemble.fit_window),
        "mean_distances": [float(v) for v in ensemble.mean_distances],
    }
    rate = ensemble.fitted_rate
    rate_text = f"{rate:.6f}" if isinstance(rate, float) else rate
    summary = (
        f"coupled {exp.replicates} replicates for {exp.n} iterations: "
        f"initial distance {ensemble.initial_distance:.6g}, "
        f"final mean {float(ensemble.mean_distances[-1]):.6g}, fitted rate {rate_text}"
    )
    return results, summary, []


def _finite(value: float) -> float | None:
    """``value``, or None (JSON null) when it is infinite or NaN."""
    return value if math.isfinite(value) else None


def _text(value: float, spec: str) -> str:
    return format(value, spec) if math.isfinite(value) else "n/a"


def _run_moments(config: ExperimentConfig, out_dir: str, jobs: int):
    exp = config.experiment
    report = engine.monte_carlo_moments(
        config.model, list(exp.r_values), list(exp.delta_values),
        exp.T, exp.burn_in, exp.replicates, master_seed=config.seed, jobs=jobs,
    )
    results = {
        "sample_size": report.sample_size,
        "burn_in": report.burn_in,
        "replicates": report.replicates,
        "polynomial": {
            str(r): {"estimate": _finite(m.estimate), "std_error": _finite(m.std_error)}
            for r, m in report.polynomial.items()
        },
        "exponential": {
            str(d): {
                "log_estimate": _finite(m.log_estimate),
                "std_error": _finite(m.std_error),
                "top10_share": _finite(m.top10_share),
                "saturated": m.saturated,
            }
            for d, m in report.exponential.items()
        },
    }
    lines = [f"moment estimates from {report.sample_size} pooled samples:"]
    for r, m in report.polynomial.items():
        lines.append(f"  E|Y|_1^{r:g} = {_text(m.estimate, '.6g')} (se {_text(m.std_error, '.3g')})")
    for d, m in report.exponential.items():
        flag = "  [saturated]" if m.saturated else ""
        lines.append(f"  log E exp({d:g}|Y|_1) = {_text(m.log_estimate, '.6g')} "
                     f"(se {_text(m.std_error, '.3g')}){flag}")
    return results, "\n".join(lines), []


# Every experiment kind but "check", which reports the condition check itself.
_RUNNERS = {"simulate": _run_simulate, "couple": _run_couple, "moments": _run_moments}


if __name__ == "__main__":
    sys.exit(main())
