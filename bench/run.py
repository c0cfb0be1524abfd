"""nadqec benchmark.

Usage:
    python3 bench/run.py --workload {sweep,estimator,spectator,synth}
                         --seed N --seconds S --trace {0,1} [--size smoke]

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each timed pass is a fresh Python process (one closed-loop caller,
one thread, BLAS fixed at one thread, NADQEC_THREADS unset) that runs every
unit of the workload once. Passes repeat until ``--seconds`` would be
exceeded (at least one; with ``--trace 1`` one untraced pass and at least two
traced ones). Untraced times are scaled to the reference host's speed by
in-pass samples of a fixed kernel (hostspeed.py). Every unit's output is
checked; the metrics are printed by name, then a details line with the
machine fingerprint, then the result as one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of README.md.
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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import hostspeed
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END_UNITS = {"wall_s": "s", "unit_ms.p50": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


@dataclass
class Pass:
    index: int
    traced: bool
    directory: Path
    setup_s: float  # at reference host speed when untraced
    duration_s: float  # spawn to exit
    result: dict


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("NADQEC_THREADS", None)
    # every pass compiles nadqec afresh, whatever bytecode caches exist
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in BLAS_ENV:
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: workloads.Workload, work: Path, deadline: float):
        self.workload = workload.name
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.spawned = 0
        spec_dir = work / "specs"
        spec_dir.mkdir(parents=True)
        self.job_units = []
        for unit in workload.units:
            if unit.spec is not None:
                path = spec_dir / f"{unit.name}.json"
                path.write_text(json.dumps({**unit.spec, "output": unit.output}))
                self.job_units.append({"name": unit.name, "spec_path": str(path)})
            else:
                self.job_units.append({"name": unit.name,
                                       "estimate": list(unit.estimate)})

    def spawn(self, mode: str, traced: bool = False) -> tuple[float, float, dict, Path]:
        """Run one worker; returns (setup_s, duration_s, result, directory)."""
        self.spawned += 1
        directory = self.work / f"{mode}{self.spawned:03d}"
        directory.mkdir()
        job = {"src": str(SRC), "mode": mode, "trace": traced,
               "workload": self.workload,
               "units": self.job_units, "result": str(directory / "result.json")}
        job_path = directory / "job.json"
        job_path.write_text(json.dumps(job))
        log_path = directory / "worker.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted before the pass started")
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                cwd=directory, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} process exceeded the run budget")
            finally:  # also on interrupt: leave no worker behind
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t_exit = time.monotonic()
        if rc != 0:
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"{mode} process exited with {rc}:\n{tail}")
        result = json.loads((directory / "result.json").read_text())
        setup = result["t_ready"] - t_spawn
        if not traced:
            setup *= hostspeed.speed(hostspeed.SETUP_KERNEL, result["setup_kernel_s"])
        return setup, t_exit - t_spawn, result, directory

    def run_pass(self, traced: bool) -> Pass:
        setup, duration, result, directory = self.spawn("pass", traced)
        return Pass(self.spawned, traced, directory, setup, duration, result)


def unit_outputs(p: Pass, unit: workloads.Unit, rec: dict) -> bytes:
    """Bytes that must repeat exactly between passes: the estimator's output
    floats, or the unit's CSV and circuit files (not the manifest, which
    records wall time)."""
    if unit.estimate is not None:
        return json.dumps(rec.get("output")).encode()
    out = p.directory / "out"
    files = sorted(out.glob(f"{unit.name}.*"))
    return b"".join(f.name.encode() + b"\0" + f.read_bytes()
                    for f in files if not f.name.endswith(".manifest.json"))


def check_passes(passes: list[Pass], workload: workloads.Workload
                 ) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); a unit fails if it raised, if cli.run
    returned non-zero, if its output fails its check, or if its output
    differs from the first pass's."""
    checker = workloads.Checker(workload)
    first: dict[str, bytes] = {}
    attempted = failed = 0
    messages: list[str] = []
    for p in passes:
        for unit, rec in zip(workload.units, p.result["units"]):
            attempted += 1
            err = rec.get("error")
            if err is None and unit.spec is not None:
                csv = p.directory / unit.output
                err = checker.check_spec(
                    unit, rec["rc"], csv.read_text() if csv.is_file() else None)
            elif err is None:
                err = checker.check_estimate(unit, rec["output"])
            if err is None:
                blob = unit_outputs(p, unit, rec)
                if unit.name not in first:
                    first[unit.name] = blob
                elif blob != first[unit.name]:
                    err = f"output differs from pass {passes[0].index}"
            if err is not None:
                failed += 1
                messages.append(f"pass {p.index} {unit.name}: {err}")
    return attempted, failed, messages


def percentile_report(samples: list[float]) -> dict:
    """Median and, where at least ten samples lie beyond it, the p90."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[-1]
        if sum(1 for s in samples if s > p90) >= 10:
            out["p90"] = p90
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nadqec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> Optional[str]:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(blas_threads) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "blas_env": {var: "1" for var in BLAS_ENV},
    }


def measure(args, workload: workloads.Workload, work: Path) -> tuple[dict, dict]:
    t_begin = time.monotonic()
    runner = Runner(workload, work, t_begin + RUN_BUDGET_S)
    passes: list[Pass] = []
    if args.trace:
        passes.append(runner.run_pass(traced=False))
    min_passes = 3 if args.trace else 1
    while True:
        passes.append(runner.run_pass(traced=bool(args.trace)))
        elapsed = time.monotonic() - t_begin
        if len(passes) >= min_passes and elapsed + passes[-1].duration_s > args.seconds:
            break

    attempted, failed, messages = check_passes(passes, workload)
    details = {"workload": workload.name, "seed": args.seed, "size": args.size,
               "passes": len(passes), "units_per_pass": len(workload.units),
               "pass_wall_s": [round(p.result["wall_s"], 4) for p in passes],
               "failed_ops": {"failed": failed, "attempted": attempted,
                              "share": failed / attempted},
               "failures": messages[:10],
               "fingerprint": fingerprint(passes[0].result.get("blas_threads"))}
    correct = failed == 0
    if args.trace:
        traced = [p for p in passes if p.traced]
        snaps = [p.result["trace"] for p in traced]
        exact = [tracer.exact_figures(s) for s in snaps]
        if any(e != exact[0] for e in exact[1:]):
            correct = False
            details["failures"].append("traced passes disagree on exact per-layer figures")
        values = tracer.layer_metrics(snaps, [p.result["wall_s"] for p in traced],
                                      passes[0].result["wall_s"])
        metrics = {k: {"value": v, "unit": tracer.unit_of(k)}
                   for k, v in values.items()}
        details["layer_self_share"] = tracer.layer_shares(
            snaps, [p.result["wall_s"] for p in traced])
        details["trace_bindings"] = snaps[0]["bindings"]
        details["trace_missing"] = snaps[0]["missing"]
    else:
        setups = [p.setup_s for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup")[0])
        kind = hostspeed.PASS_KERNEL[workload.name]
        speeds = [hostspeed.speed(kind, p.result["pass_kernel_s"]) for p in passes]
        unit_ms = percentile_report([rec["ms"] * f for p, f in zip(passes, speeds)
                                     for rec in p.result["units"]])
        details.update(unit_ms=unit_ms, setup_samples=len(setups),
                       pass_speed=[round(f, 4) for f in speeds])
        values = {
            "wall_s": statistics.median(p.result["wall_s"] * f
                                        for p, f in zip(passes, speeds)),
            "unit_ms.p50": unit_ms["p50"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.result["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup

    if not (SRC / "nadqec" / "__init__.py").is_file():
        print(f"error: the nadqec package is not at {SRC / 'nadqec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.generate(args.workload, args.seed, args.size)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, details = measure(args, workload, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, m in result["metrics"].items():
        print(f"{name:56s} {m['value']:.6g} {m['unit']}")
    if "unit_ms" in details:
        print("unit_ms " + " ".join(f"{k}={v:.6g}" for k, v in details["unit_ms"].items()))
    print(f"correct={result['correct']} failed_ops={result['failed']}/"
          f"{result['attempted']}")
    for msg in details["failures"]:
        print(f"FAILED {msg}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
