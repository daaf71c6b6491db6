#!/usr/bin/env python3
"""Time xmc CLI commands end to end, one child process each.

Runs the named commands in order (by default all ten, gen-data through
estimate-mi) into one output directory, with one BLAS/OpenMP thread, and
passes --jobs on to the pooled commands. Each command's wall time comes from
the parent's clock; its CPU time (user + system), peak RSS and minor page
faults come from ``os.wait4`` on that child, so they include any pool
workers it reaped.
Prints one JSON object to stdout, which also names the host: the CPU
model line of /proc/cpuinfo, cpu0's L2 and L3 cache sizes and the numpy
version the commands import (each null where it cannot be read), and
whether PYTHONDONTWRITEBYTECODE is set, in which case every command compiles
src/ afresh as it starts. Stops at
the first command that fails, since later commands read its outputs, and
then exits 1. Each run of the command list runs a fresh temporary copy of
the tree's src/, removed at the end, so any bytecode its commands write
leaves the tree as it was and reaches no later run.

Usage:
  python3 scripts/time_pipeline.py [--tree DIR] [--config YAML] [--out DIR]
                                   [--jobs N] [--repeat N] [COMMAND ...]

--tree is the source tree whose src/ is run (default: this checkout).
--out defaults to a new temporary directory, removed at the end; outputs
already in --out are overwritten (--force). --jobs (default 1) is the pool
size of the pooled commands: sweep-k, sweep-labels and estimate-mi.
--repeat N (default 1) runs the command list N times, run i into its own
directory --out/run<i>; each command then reports its N runs under "runs"
and their per-field median under "median", and "total_wall_s" sums the
median wall times. One run reports each command's fields directly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("gen-data", "pretrain-vision", "pretrain", "probe", "finetune", "baseline",
            "project", "sweep-k", "sweep-labels", "estimate-mi")
POOLED = ("sweep-k", "sweep-labels", "estimate-mi")


def src_sha256(tree: Path) -> str:
    """The sha256 of src/**/*.py, computed as perfbench/run.py reports it."""
    h = hashlib.sha256()
    for p in sorted((tree / "src").rglob("*.py")):
        h.update(p.relative_to(tree).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    """The value of the first ``model name`` line of /proc/cpuinfo."""
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), None)
    except OSError:
        return None


def cpu0_cache() -> dict:
    """cpu0's L2 and L3 sizes as sysfs writes them (e.g. "2048K")."""
    sizes = {"L2": None, "L3": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        if f"L{level}" in sizes and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def numpy_version(env: dict) -> str | None:
    """The numpy version a command imports, asked of a child so that this
    process stays small: a child's peak RSS starts at its parent's."""
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          env=env, capture_output=True, text=True)
    return proc.stdout.strip() or None


def time_command(argv: list[str], env: dict) -> dict:
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    run = {"rc": os.waitstatus_to_exitcode(status),
           "wall_s": round(wall, 4),
           "cpu_s": round(ru.ru_utime + ru.ru_stime, 4),
           "sys_s": round(ru.ru_stime, 4),
           "peak_rss_mb": round(ru.ru_maxrss / 1024.0, 2),
           "minflt": ru.ru_minflt}
    return {**run, "stderr": stderr} if run["rc"] else run


def median_of(runs: list[dict]) -> dict:
    """The median of each timed field over a command's runs."""
    return {key: statistics.median(run[key] for run in runs)
            for key in ("wall_s", "cpu_s", "sys_s", "peak_rss_mb", "minflt")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="commands to run (default: all ten)")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--config", default=None, help="YAML config (default: the defaults)")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="--jobs for the pooled commands (default: 1)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="times to run the command list (default: 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    unknown = [c for c in args.commands if c not in COMMANDS]
    if unknown:
        parser.error(f"unknown command {unknown[0]!r}; choose from {', '.join(COMMANDS)}")

    tree = args.tree.resolve()
    out = args.out or Path(tempfile.mkdtemp(prefix="xmc-time-"))
    # not PYTHONPYCACHEPREFIX: under it, a child reads no installed package's
    # bytecode, and with PYTHONDONTWRITEBYTECODE compiles numpy every time
    src = Path(tempfile.mkdtemp(prefix="xmc-src-"), "src")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    config = ["--config", str(Path(args.config).resolve())] if args.config else []

    report = {"tree": str(tree), "src_sha256": src_sha256(tree),
              "config": args.config,
              "python": platform.python_version(), "numpy": numpy_version(env),
              "cpu_model": cpu_model(), "cpu0_cache": cpu0_cache(), "nproc": os.cpu_count(),
              "dont_write_bytecode": bool(env.get("PYTHONDONTWRITEBYTECODE")),
              "loadavg_at_start": os.getloadavg(), "blas_threads": 1, "jobs": args.jobs,
              "commands": []}
    passes = []  # per run, each command's result in order
    try:
        for i in range(args.repeat):
            # a fresh copy per run, so that no run reads the bytecode an earlier one wrote
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            run_out = out if args.repeat == 1 else out / f"run{i + 1}"
            passes.append([])
            for name in args.commands or COMMANDS:
                jobs = ["--jobs", str(args.jobs)] if name in POOLED else []
                run = time_command([sys.executable, "-m", "xmc.cli", name, "--out",
                                    str(run_out), "--force", *config, *jobs], env)
                passes[-1].append({"command": name, **run})
                if run["rc"] != 0:
                    break
            if passes[-1][-1]["rc"] != 0:
                break
    finally:
        shutil.rmtree(src.parent, ignore_errors=True)
        if args.out is None:
            shutil.rmtree(out, ignore_errors=True)
    if args.repeat == 1:
        report["commands"] = passes[0]
        report["total_wall_s"] = round(sum(c["wall_s"] for c in passes[0]), 4)
    else:
        report["repeat"] = args.repeat
        for j, first in enumerate(passes[0]):
            runs = [{k: v for k, v in p[j].items() if k != "command"}
                    for p in passes if j < len(p)]
            report["commands"].append({"command": first["command"], "runs": runs,
                                       "median": median_of(runs)})
        report["total_wall_s"] = round(
            sum(c["median"]["wall_s"] for c in report["commands"]), 4)
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0 if all(c["rc"] == 0 for p in passes for c in p) else 1


if __name__ == "__main__":
    sys.exit(main())
