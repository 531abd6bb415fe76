"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

1. Every workload runs at a tiny size with ``--trace 0`` and ``--trace 1``
   and must print every metric that ``BENCHMARK.json`` names, with its unit.
2. The correctness gate must reject tampered outputs of every workload, and
   the determinism gate a second run whose bytes differ.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark must exit nonzero without printing a result.

Exits 0 when all of this holds.  Scratch files go to ``perfbench/out/smoke``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

SCALE = "0.04"
SCRATCH = run.OUT / "smoke"


def bench_line(args: list[str], cwd: Path = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_metric_names(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            code, last = bench_line(["--workload", name, "--seed", "5", "--seconds", "1",
                                     "--trace", trace, "--scale", SCALE])
            try:
                line = json.loads(last)
            except json.JSONDecodeError:
                failures.append(f"{name} trace {trace}: no result line (exit {code})")
                continue
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            if code != 0 or not line["correct"] or line["failed"] or line["attempted"] < 1:
                failures.append(f"{name} trace {trace}: exit {code}, result {last[:300]}")
            if got != want:
                failures.append(f"{name} trace {trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if any(not isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                failures.append(f"{name} trace {trace}: non-numeric metric value")


def tamper(inv, report: dict) -> None:
    """Change a report so that the program's answer is wrong."""
    results = report["results"]
    if inv.command == "simulate":
        results["mean_counts"][0] *= 1.5
    elif inv.command == "couple" and inv.gate["decays"]:
        results["final_mean_distance"] = results["initial_distance"]
    elif inv.command == "couple":
        results["median_final_distance"] = 0.0
    else:
        results["polynomial"]["1.0"]["estimate"] *= 1.5


def check_gates(failures: list[str]) -> None:
    bench = run.Bench(run.time.monotonic())
    for name, make in WORKLOADS.items():
        workload = make(5, float(SCALE), 1)
        work = SCRATCH / name
        shutil.rmtree(work, ignore_errors=True)
        run.write_configs(work, workload)
        for inv in workload.invocations:
            out = work / "gate" / inv.name
            res = bench.cli(inv.command, work / "configs" / f"{inv.name}.json", out, 1)
            if res["code"] != 0 or check_outputs(inv, str(out)):
                failures.append(f"{inv.name}: untampered output rejected: {check_outputs(inv, str(out))}")
                continue
            gate = run.OutputGate(bench)
            gate.verify(inv, out, 0)
            report_path = out / "report.json"
            pristine = report_path.read_bytes()
            report_path.write_bytes(pristine + b"\n")
            failed = bench.failed
            gate.verify(inv, out, 0)
            if bench.failed != failed + 1:
                failures.append(f"{inv.name}: determinism gate accepted changed bytes")
            report = json.loads(pristine)
            tamper(inv, report)
            report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            if not check_outputs(inv, str(out)):
                failures.append(f"{inv.name}: correctness gate accepted a tampered report.json")


def check_bare_directory(failures: list[str]) -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, last = bench_line(["--workload", "simulate-path", "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=bare)
    if code == 0 or last.startswith("{"):
        failures.append(f"without src/ the benchmark exited {code} with last line {last!r}")


def main() -> int:
    failures: list[str] = []
    check_metric_names(failures)
    check_gates(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
