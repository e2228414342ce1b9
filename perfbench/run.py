#!/usr/bin/env python3
"""Benchmark of the bathlink CLI: end-to-end timings and a traced per-layer run.

Run from the root of a source checkout (``src/bathlink`` must exist; nothing
needs installing):

    python3 perfbench/run.py --workload simulate_x --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seconds 1 --smoke

``--trace 0`` runs the workload's CLI invocation as a child process (what the
``bathlink`` console script does), one at a time, for ``--seconds`` seconds and
reports the end-to-end metrics, in seconds at a reference speed (see
``CAL_REFERENCE_S``).  ``--trace 1`` calls ``bathlink.cli.main``
in-process, alternating untraced and traced calls, and reports the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload in
both modes and prints one table.  Every invocation's output files are checked;
an invocation whose output fails a check counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results (the
environment, every sample, every problem found) and the spans of the traced
run go under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
# Compiled bytecode of every module this process and its children import goes
# under the checkout, so a run writes nowhere else.
sys.pycache_prefix = str(BUILD / "pycache")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

#: Seed reserved for re-checking claims; do not tune against it.
HELD_OUT_SEED = 4173
BELL_STATES = 3
#: Seconds one calibration pass of ``LAUNCHER`` takes at the reference speed:
#: its time on a 2-vCPU Xeon VM (Python 3.11, numpy 2) in the fastest tenth of
#: passes, when no other tenant of the host slows it.  End-to-end timings are
#: reported in seconds at that speed.
CAL_REFERENCE_S = 0.08

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{name}.calls": "count" for name in LAYERS},
    **{f"{name}.self_s": "s" for name in LAYERS},
    "correlations.discord.inclusive_s": "s",
    "correlations.discord.share_pct": "%",
    "correlations.discord.fallbacks": "count",
    "kernels.conditional_entropy_grid.points": "count",
    "kernels.conditional_entropy_grid.points_per_state": "points/state",
    "format.atomic_write.bytes": "B",
    "cli.main.inclusive_s": "s",
    "workload.items": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(SRC)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# The benchmark process holds numpy, scipy and, after a traced run, the
# package's data.  A child forked from it starts with those pages, and wait4
# reports a peak RSS that counts them.  So the children are started from this
# small helper process instead; it runs one command per input line, tells the
# child when it was spawned (PERFBENCH_SPAWNED_AT, on the system-wide monotonic clock)
# and prints the wall seconds, the peak RSS in MB and the exit code.
SPAWNER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    cmd, log = json.loads(line)
    env = dict(os.environ)
    with open(log, "wb") as out:
        start = time.monotonic()
        env["PERFBENCH_SPAWNED_AT"] = repr(start)
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    print(json.dumps([wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)]), flush=True)
"""

# The CLI child: what the installed ``bathlink`` console script does
# (``sys.exit(bathlink.cli.main())``), plus clock readings written to the file
# named by its first argument: set-up (spawn to ``import bathlink.cli`` done),
# compute (the ``main`` call) and two passes of a fixed calibration workload,
# right before and right after ``main``.  Timing the compute inside the child
# keeps the noise of interpreter start-up and import out of ``items_per_s``.
# The calibration does the same kind of work as the program (interpreter
# loops and 4x4 numpy linear algebra) and none of bathlink's code, so its
# duration tracks how fast a shared host runs the program at that moment.
LAUNCHER = r"""
import os, sys, time
import bathlink.cli
import numpy as np
imported = time.monotonic()

def calibrate():
    start = time.monotonic()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    m = np.arange(16.0).reshape(4, 4)
    m = m + m.T
    for _ in range(6000):
        np.linalg.eigvalsh(m)
    return time.monotonic() - start

before = calibrate()
start = time.monotonic()
code = bathlink.cli.main(sys.argv[2:])
done = time.monotonic()
after = calibrate()
with open(sys.argv[1], "w") as f:
    f.write(repr([imported - float(os.environ["PERFBENCH_SPAWNED_AT"]), done - start, before, after]))
sys.exit(code)
"""


class Spawner:
    """Runs children one at a time from the SPAWNER helper process."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SPAWNER], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None and self.proc.poll() is None:
            # stop the helper and the child it may be waiting on
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd: list[str], log: Path) -> tuple[float, float, int]:
        """Run one child to completion: wall seconds, peak RSS in MB, exit code."""
        self.proc.stdin.write(json.dumps([cmd, str(log)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner helper process exited")
        wall, rss, code = json.loads(reply)
        return wall, rss, code


def preflight(env: dict[str, str]) -> None:
    """Fail unless the children import bathlink from this checkout's ``src``."""
    probe = subprocess.run(
        [sys.executable, "-c", "import bathlink.cli; print(bathlink.cli.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.returncode != 0 or SRC not in where.parents:
        raise BenchError(f"bathlink.cli does not import from {SRC}: {probe.stderr[-500:]}")


def import_bathlink():
    if not (SRC / "bathlink" / "cli.py").is_file():
        raise BenchError(f"no bathlink source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bathlink.cli

    if SRC not in Path(bathlink.cli.__file__).resolve().parents:
        raise BenchError(f"bathlink imported from {bathlink.cli.__file__}, not {SRC}")
    return bathlink.cli


def clear(paths: list[Path]) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


class Ops:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def measure_cli(job: workloads.Job, seconds: float, ops: Ops, log_dir: Path) -> tuple[dict, dict]:
    """End-to-end: CLI children one after another until time is up.

    The first invocation warms the bytecode and file caches and is checked
    but not timed.  Every timing of an invocation is scaled to the reference
    speed by the calibration passes around it (see ``CAL_REFERENCE_S``).
    """
    env = child_env()
    preflight(env)
    times = log_dir / "times.txt"
    cmd = [sys.executable, "-c", LAUNCHER, str(times), *job.argv]
    raw = {"wall_s": [], "setup_s": [], "compute_s": [], "calibration_before_s": [],
           "calibration_after_s": [], "peak_rss_mb": []}
    scaled = {"wall_s": [], "setup_s": [], "compute_s": []}
    with Spawner(env) as spawner:
        deadline = time.monotonic() + seconds
        for n in itertools.count():
            clear([*job.outputs, times])
            wall, peak, code = spawner.run(cmd, log_dir / "cli.log")
            ops.record(f"invocation {n}", [f"exit code {code}"] if code else job.check())
            if n and not code:
                setup, compute, before, after = json.loads(times.read_text())
                wall -= before + after  # the calibration is not part of the CLI
                speed = CAL_REFERENCE_S / ((before + after) / 2)
                for key, value in zip(raw, (wall, setup, compute, before, after, peak)):
                    raw[key].append(value)
                for key, value in zip(scaled, (wall, setup, compute)):
                    scaled[key].append(value * speed)
            typical = statistics.median(raw["wall_s"]) if raw["wall_s"] else 0.0
            if n and deadline - time.monotonic() < typical:
                break
    if not raw["wall_s"]:
        raise BenchError(f"no timed invocation exited 0; see {log_dir / 'cli.log'}")
    metrics = {
        "wall_s": statistics.median(scaled["wall_s"]),
        "items_per_s": job.items / statistics.median(scaled["compute_s"]),
        "setup_s": statistics.median(scaled["setup_s"]),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
    }
    return metrics, {"raw": raw, "scaled": scaled}


def call_main(cli, job: workloads.Job, ops: Ops, label: str) -> float:
    clear(job.outputs)
    start = time.perf_counter()
    try:
        code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code
    elapsed = time.perf_counter() - start
    ops.record(label, [f"exit code {code}"] if code else job.check())
    return elapsed


def layer_metrics(tracer: Tracer, job: workloads.Job) -> dict[str, float]:
    totals = tracer.layer_totals()
    metrics = {}
    for name, entry in totals.items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    discord = totals["correlations.discord"]
    main = totals["cli.main"]
    points = tracer.counts["kernels.conditional_entropy_grid.points"]
    metrics.update({
        "correlations.discord.inclusive_s": discord["inclusive_s"],
        "correlations.discord.share_pct": 100.0 * discord["inclusive_s"] / main["inclusive_s"],
        "correlations.discord.fallbacks": tracer.counts["correlations.discord.fallbacks"],
        "kernels.conditional_entropy_grid.points": points,
        "kernels.conditional_entropy_grid.points_per_state":
            points / discord["calls"] if discord["calls"] else 0.0,
        "format.atomic_write.bytes": tracer.counts["format.atomic_write.bytes"],
        "cli.main.inclusive_s": main["inclusive_s"],
        "workload.items": job.items,
    })
    return metrics


def measure_traced(job: workloads.Job, seconds: float, ops: Ops, trace_file: Path) -> tuple[dict, dict]:
    """Per layer: pairs of untraced and traced in-process calls until time is up."""
    cli = import_bathlink()
    untraced, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(call_main(cli, job, ops, f"untraced call {len(untraced) + 1}"))
        with Tracer() as tracer:
            traced.append(call_main(cli, job, ops, f"traced call {len(traced) + 1}"))
        per_call.append(layer_metrics(tracer, job))
        if time.perf_counter() + statistics.median(untraced) + statistics.median(traced) > deadline:
            break
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(tracer.dump()))
    metrics = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_pct"] = (
        100.0 * (metrics["trace.traced_s"] - metrics["trace.untraced_s"]) / metrics["trace.untraced_s"]
    )
    return metrics, {"untraced_s": untraced, "traced_s": traced}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed: int) -> dict:
    """What a result depends on besides the code; compare results only when it matches."""
    cli = import_bathlink()
    from bathlink._kernels import active_backend

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    digest = hashlib.sha256()
    for path in sorted((SRC / "bathlink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "kernel_backend": active_backend(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "bathlink": cli.__file__,
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    job = workloads.BUILDERS[name](seed, work, smoke)
    ops = Ops()
    if trace:
        trace_file = BUILD / "traces" / f"{name}-seed{seed}.json"
        metrics, samples = measure_traced(job, seconds, ops, trace_file)
    else:
        metrics, samples = measure_cli(job, seconds, ops, work)
    if name in workloads.DISCORD_WORKLOADS:
        import_bathlink()
        for k, problems in enumerate(workloads.bell_diagonal_problems(ROOT, seed, BELL_STATES)):
            ops.record(f"Bell-diagonal state {k + 1}", problems)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "trace": trace,
        "argv": job.argv,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "samples": samples,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bathlink benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.workload == "all" else [args.trace]
    try:
        env = environment(args.seed)
        results = [run_workload(name, args.seed, args.seconds, trace, args.smoke)
                   for name in names for trace in modes]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(env, sort_keys=True))
    for result in results:
        print(f"{result['workload']} (trace {result['trace']}): "
              f"{result['failed']} of {result['attempted']} operations failed")
        for key, metric in result["metrics"].items():
            print(f"  {key:<52} {metric['value']:>16.10g} {metric['unit']}")
        for problem in result["problems"][:20]:
            print(f"  problem: {problem}", file=sys.stderr)
    tag = args.workload + ("-smoke" if args.smoke else "")
    out = BUILD / "results" / f"{tag}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": m for r in results for key, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
