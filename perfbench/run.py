"""countsim benchmark: end-to-end CLI runs and a traced per-layer run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload simulate-path --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``simulate-path``, ``couple-mix`` and
``moments-highcount``; ``all`` runs the three in turn.  Every invocation is a
fresh ``python3 -m countsim.cli`` process on configs generated from the seed,
with ``src/`` of this checkout on ``PYTHONPATH``.  One client, closed loop:
the next invocation starts when the previous one has exited.

``--trace 0`` repeats, for about ``--seconds``, a round of
``countsim check`` on every workload model (set-up) followed by one pass of
the workload, and reports medians over the repetitions: ``wall_s``,
``steps_per_s``, ``setup_s`` (mean over the models of one round), ``cpu_s``
(user + sys of all processes, pool workers included) and ``peak_rss_mb``
(largest single process).  ``failed_frac`` is printed in
the table and carried by ``failed`` / ``attempted`` in the result line.

``--trace 1`` runs the workload once untraced through the CLI (for pool
utilization), then ``tracer.py`` in a fresh process for the per-layer
metrics.

Every output is checked (``workloads.check_outputs``), and every repetition
of one seed must write byte-identical files.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
result with an environment stamp goes to ``perfbench/out/results/``.  The
exit code is 0 only when every invocation succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Invocation, Workload, check_outputs, check_setup_report  # noqa: E402

# A run must end within 180 s; invocations still running at this point are
# killed and counted as failed.
DEADLINE_S = 165.0
# Fresh-process ``check`` runs before each pass of the workload, spread over
# its models.  On a shared host the speed drifts over seconds, so set-up is
# sampled between passes across the whole run, not in one block.
SETUP_CHECKS = 2


class Deadline(Exception):
    pass


class Bench:
    def __init__(self, started: float):
        self.deadline = started + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def spawn(self, argv: list[str], log: Path) -> dict:
        """Run one process to its exit; wall time from spawn to exit and rusage.

        ``wait4`` gives the child's rusage with that of every descendant it
        waited for, so pool workers are included.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline(f"no time left for {' '.join(argv)}")
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=sink, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise Deadline(f"killed at the deadline: {' '.join(argv)}")
        return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def cli(self, command: str, config: Path, out: Path, jobs: int) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "countsim.cli", command, "--config", str(config),
                "--out", str(out), "--jobs", str(jobs)]
        return self.spawn(argv, out / "cli.log")

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _log_tail(out: Path) -> str:
    try:
        return (out / "cli.log").read_text(errors="replace").strip().splitlines()[-1]
    except (OSError, IndexError):
        return ""


def write_configs(work: Path, workload: Workload) -> None:
    (work / "configs").mkdir(parents=True, exist_ok=True)
    for inv in workload.invocations:
        for suffix, doc in (("", inv.document), ("_check", inv.check_document())):
            (work / "configs" / f"{inv.name}{suffix}.json").write_text(json.dumps(doc, indent=2) + "\n")


def measure_setup(bench: Bench, work: Path, workload: Workload) -> list[float]:
    """Average wall time of a fresh-process ``countsim check``, per round of models."""
    invs = workload.invocations
    averages = []
    for _ in range(max(1, round(SETUP_CHECKS / len(invs)))):
        walls = []
        for inv in invs:
            out = work / "setup" / inv.name
            res = bench.cli("check", work / "configs" / f"{inv.name}_check.json", out, 1)
            problems = [f"{inv.name} check exited {res['code']}: {_log_tail(out)}"] if res["code"] else \
                check_setup_report(inv, out)
            bench.record(problems)
            walls.append(res["wall"])
        averages.append(sum(walls) / len(walls))
    return averages


class OutputGate:
    """Checks outputs once per invocation; later repetitions must match bytes."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.reference: dict[str, dict] = {}

    def verify(self, inv: Invocation, out: Path, code: int) -> None:
        if code != 0:
            self.bench.record([f"{inv.name} exited {code}: {_log_tail(out)}"])
            return
        try:
            hashes = {name: sha256(out / name) for name in inv.outputs}
        except OSError as exc:
            self.bench.record([f"{inv.name}: missing output: {exc}"])
            return
        reference = self.reference.get(inv.name)
        if reference is None:
            problems = check_outputs(inv, str(out))
            if not problems:
                self.reference[inv.name] = hashes
        else:
            problems = [f"{inv.name}: {name} differs from the first run of this seed"
                        for name in inv.outputs if hashes[name] != reference[name]]
        self.bench.record(problems)


def run_once(bench: Bench, gate: OutputGate, work: Path, workload: Workload, label: str) -> dict:
    """One pass over the workload's invocations through the CLI."""
    wall = cpu = rss = 0.0
    for inv in workload.invocations:
        out = work / label / inv.name
        res = bench.cli(inv.command, work / "configs" / f"{inv.name}.json", out, inv.jobs)
        wall += res["wall"]
        cpu += res["cpu"]
        rss = max(rss, res["rss_mb"])
        gate.verify(inv, out, res["code"])
    steps = sum(inv.steps for inv in workload.invocations)
    return {"wall_s": wall, "steps_per_s": steps / wall, "cpu_s": cpu, "peak_rss_mb": rss}


def measure_end_to_end(bench: Bench, work: Path, workload: Workload, seconds: float) -> tuple[dict, dict]:
    gate = OutputGate(bench)
    setup, samples = [], []
    start = time.perf_counter()
    while True:
        setup += measure_setup(bench, work, workload)
        samples.append(run_once(bench, gate, work, workload, "run"))
        elapsed = time.perf_counter() - start
        # Stop where the run ends closest to ``seconds``.
        if elapsed + 0.5 * elapsed / len(samples) > seconds:
            break
    units = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    series = {name: [s[name] for s in samples] for name in units if name != "setup_s"}
    series["setup_s"] = setup
    metrics = {name: {"value": statistics.median(series[name]), "unit": unit, "runs": len(series[name])}
               for name, unit in units.items()}
    return metrics, {"samples": series}


def measure_layers(bench: Bench, work: Path, workload: Workload) -> tuple[dict, dict]:
    gate = OutputGate(bench)
    untraced = run_once(bench, gate, work, workload, "run")
    pooled = [inv.jobs for inv in workload.invocations if inv.jobs > 1]
    # cpu_s / (wall_s x workers); simulate runs no pool and reports 0.
    utilization = untraced["cpu_s"] / (untraced["wall_s"] * max(pooled)) if pooled else 0.0

    plan = {
        "src": str(SRC),
        "work": str(work / "trace"),
        "spans": str(work / "trace-spans.npz"),
        "summary": str(work / "trace-summary.json"),
        "invocations": [{"command": inv.command, "name": inv.name, "steps": inv.steps,
                         "config": str(work / "configs" / f"{inv.name}.json")}
                        for inv in workload.invocations],
    }
    (work / "trace").mkdir(parents=True, exist_ok=True)
    (work / "trace-plan.json").write_text(json.dumps(plan, indent=1))
    res = bench.spawn([sys.executable, str(HERE / "tracer.py"), str(work / "trace-plan.json")],
                      work / "trace.log")
    if res["code"] != 0:
        bench.record([f"tracer exited {res['code']}: {(work / 'trace.log').read_text(errors='replace')[-2000:]}"])
        return {}, {}
    summary = json.loads((work / "trace-summary.json").read_text())
    for pass_name in ("untraced", "traced"):
        result = summary[pass_name]
        for inv, code in zip(workload.invocations, result["codes"]):
            out = Path(result["out"]) / inv.name
            # In-process runs at --jobs 1, traced or not, must write the same
            # bytes as the CLI run at the workload's --jobs.
            gate.verify(inv, out, code)
    metrics = dict(summary["metrics"])
    metrics["engine.pool.utilization"] = {"value": utilization, "unit": "ratio"}
    d = summary["decomposition"]
    if abs(d["sum_us_per_step"] - d["wall_us_per_step"]) > 1e-6 * d["wall_us_per_step"]:
        bench.problems.append(f"layer self times sum to {d['sum_us_per_step']} us/step, "
                              f"traced wall is {d['wall_us_per_step']}")
    return metrics, {"decomposition": d, "untraced_cli": untraced}


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "pyyaml": version("PyYAML"),
        "git_commit": commit,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    started = time.monotonic()
    bench = Bench(started)
    jobs = min(2, len(os.sched_getaffinity(0)))
    workload = WORKLOADS[name](seed, scale, jobs)
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    write_configs(work, workload)

    # Untimed warm-up: compiles bytecode and fails fast on a broken checkout.
    first = workload.invocations[0]
    warm = bench.cli("check", work / "configs" / f"{first.name}_check.json", work / "warmup", 1)
    if warm["code"] != 0:
        raise SystemExit(f"countsim check failed in {ROOT}: {_log_tail(work / 'warmup')}")

    try:
        if trace:
            metrics, detail = measure_layers(bench, work, workload)
        else:
            metrics, detail = measure_end_to_end(bench, work, workload, seconds)
    except Deadline as exc:
        bench.record([str(exc)])
        metrics, detail = {}, {}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "jobs": jobs,
        "steps_per_pass": sum(inv.steps for inv in workload.invocations),
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted, "failed": bench.failed, "problems": bench.problems,
        "metrics": metrics, "environment": environment(), **detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({result['steps_per_pass']} replicate-steps per pass)")
    for name, m in result["metrics"].items():
        runs = f"  n={m['runs']}" if "runs" in m else ""
        print(f"  {name:58s} {m['value']:16.6f} {m['unit']}{runs}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':58s} {frac:16.6f} 1  ({result['failed']} of {result['attempted']} invocations)")
    d = result.get("decomposition")
    if d:
        parts = "  ".join(f"{k} {v:.3f}" for k, v in d["self_us_per_step"].items())
        print(f"  self time us/step: {parts}")
        print(f"  sum {d['sum_us_per_step']:.3f} = traced wall {d['wall_us_per_step']:.3f} us/step")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time with --trace 0; the traced run makes one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink replicate and step counts (smoke test); 1 is the benchmark")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --scale in (0, 1]")
    if not (SRC / "countsim" / "cli.py").is_file():
        print(f"error: no countsim sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, args.trace, args.scale) for name in names]
    for result in results:
        print_table(result)
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
