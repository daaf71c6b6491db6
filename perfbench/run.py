#!/usr/bin/env python3
"""xmc benchmark: closed loops of xmc CLI commands, timed from outside.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--smoke]

A run first executes the workload's setup commands (several times; setup_s
is the median of their wall times), then repeats the measured commands one
after another, each pass in a fresh output directory, until --seconds have
passed. Every command is a separate ``python -m xmc.cli`` process that gets
the workload seed via --seed and one BLAS/OpenMP thread.

--trace 0 reports the end-to-end metrics. --trace 1 runs the setup once
untraced and once through trace_launch.py, then alternates untraced and
traced passes; it reports the per-layer metrics of one setup plus one
measured pass (median over the traced passes) and the tracing overhead
(median traced minus median untraced pass wall time).

Checks (each counted in ``attempted``; a miss is counted in ``failed``):
every command exits 0; each manifest's output hashes match the files on
disk; the workload's quality gate holds; artifacts are byte-identical
across repetitions of the seed and between traced and untraced runs.

The last line of stdout is the result object; the line before it is a
report with the environment, per-pass figures and quality values, also
written under .perfbench/reports/. --smoke swaps in a tiny configuration for
the benchmark's own tests; it skips the quality gates, which a model that
small cannot meet.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

DEFAULT_SEED = 7
HELD_OUT_SEED = 11
PROBE_ACC_FLOOR = 0.6     # 4 balanced classes: chance is 0.25
# The held-out bound scatters around the analytic MI with a standard
# deviation of about 0.016 nats at rho = 0.9 (60 seeds, the same at 5 and 40
# critic epochs); its worst arm missed by 0.073. A critic that learns nothing
# misses by the whole MI, 0.83 nats at rho = 0.9.
MI_ARM_TOLERANCE_NATS = 0.1    # |bound - analytic MI| for every (rho, seed) arm
MI_MEAN_TOLERANCE_NATS = 0.03  # mean of those over the arms of one run


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def probe_quality(out: Path) -> tuple[str, float, bool]:
    acc = float(_rows(out / "probe_result.csv")[0]["test_accuracy"])
    return "probe_acc", acc, acc >= PROBE_ACC_FLOOR


def label_gain_quality(out: Path) -> tuple[str, float, bool]:
    """Fine-tune minus supervised mean accuracy at the smallest fraction."""
    rows = _rows(out / "sweep_labels_summary.csv")
    smallest = min(float(r["label_fraction"]) for r in rows)
    acc = {r["arm"]: float(r["mean_accuracy"]) for r in rows
           if float(r["label_fraction"]) == smallest}
    gain = acc["fine-tune"] - acc["supervised"]
    return "label_gain", gain, gain > 0.0


def mi_quality(out: Path) -> tuple[str, float, bool]:
    errs = [abs(float(r["mi_lower_bound"]) - float(r["true_mi"]))
            for r in _rows(out / "mi_estimates.csv")]
    mean = statistics.fmean(errs)
    ok = max(errs) <= MI_ARM_TOLERANCE_NATS and mean <= MI_MEAN_TOLERANCE_NATS
    return "mi_err_nats", mean, ok


@dataclass(frozen=True)
class Workload:
    name: str
    overlay: dict                           # config overlay on the defaults
    setup: tuple[tuple[str, ...], ...]      # CLI argument tails
    measured: tuple[tuple[str, ...], ...]
    setup_repeats: int
    quality: Callable[[Path], tuple[str, float, bool]]

    @property
    def jobs(self) -> int:
        """The ``--jobs`` pool size the measured commands are given."""
        for tokens in self.measured:
            if "--jobs" in tokens:
                return int(tokens[tokens.index("--jobs") + 1])
        return 1


# "{setup}" is the directory the setup commands wrote to.
DATA = ("--data", "{setup}/dataset.xmcd")
VISION = ("--vision", "{setup}/vision.xmck")

# Epoch counts are cut from the defaults so that one pass takes a few
# seconds; each workload keeps the batch shapes and call mix of the full run.
WORKLOADS = {w.name: w for w in (
    # B = 64 InfoNCE against a K = 256 queue: matmul, backward and sgd_step
    # lead; probe and project add B = 8 head training and graph-free passes.
    Workload("contrastive",
             {"vision": {"epochs": 30}, "contrastive": {"epochs": 20}},
             setup=(("gen-data",), ("pretrain-vision",)),
             measured=(("pretrain", *DATA, *VISION), ("probe", *DATA),
                       ("project", *DATA)),
             setup_repeats=3, quality=probe_quality),
    # B = 8 fine-tune and baseline training over a 2-process pool, with a
    # dataset reload per arm: sgd_step and per-node graph overhead lead.
    Workload("label-sweep",
             {"vision": {"epochs": 30}, "contrastive": {"epochs": 4},
              "eval": {"fractions": [0.05, 0.1], "n_seeds": 2,
                       "finetune_epochs": 32, "baseline_epochs": 8}},
             setup=(("gen-data",), ("pretrain-vision",)),
             measured=(("sweep-labels", *DATA, *VISION, "--jobs", "2"),),
             setup_repeats=3, quality=label_gain_quality),
    # The 2 -> 8 affine MI critic at B = 128: tiny matrices, so per-call
    # overhead (logsumexp, queue copies, enqueue loop) leads; runs serially.
    Workload("mi-gaussian",
             {"mi": {"n_seeds": 2, "epochs": 5}},
             setup=(("--help",),),
             measured=(("estimate-mi", "--jobs", "1"),),
             setup_repeats=5, quality=mi_quality),
)}

SMOKE_OVERLAY = {
    "embed_dim": 16, "encoder_hidden": [32],
    "datagen": {"n": 200},
    "vision": {"epochs": 2, "batch_size": 8},
    "contrastive": {"queue_size": 16, "batch_size": 8, "epochs": 1},
    "eval": {"probe_epochs": 2, "finetune_epochs": 1, "baseline_epochs": 1},
    "mi": {"rhos": [0.0, 0.8], "queue_size": 32, "pair_count": 1024,
           "batch_size": 64, "epochs": 1},
}


def merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# commands and checks
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Commands and checks attempted, and what failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class CommandRun:
    rc: int
    wall: float
    cpu: float      # user + system, including reaped pool workers
    rss_mb: float   # largest RSS of the process or any reaped descendant


def run_command(argv: list[str], env: dict, log: Path) -> CommandRun:
    """Run one command to completion. Its rusage comes from wait4 on that
    child alone; RUSAGE_CHILDREN would be a maximum over every child."""
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                      ru.ru_maxrss / 1024.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(out: Path) -> dict[str, str]:
    """Hashes of a pass's outputs. Manifests are left out: they record the
    absolute paths of the pass directory."""
    return {p.name: sha256(p) for p in sorted(out.iterdir())
            if p.is_file() and not p.name.endswith(".manifest.json")}


def manifest_matches(path: Path) -> bool:
    try:
        outputs = json.loads(path.read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return False
    return bool(outputs) and all(
        Path(p).is_file() and sha256(Path(p)) == h for p, h in outputs.items())


@dataclass
class PassResult:
    wall: float
    cpu: float
    rss_mb: float
    artifacts: dict[str, str]
    quality: tuple[str, float] | None = None


@dataclass
class Runner:
    """Runs the passes of one benchmark run and tallies their checks."""

    workload: Workload
    seed: int
    work: Path
    log: Path
    config: Path
    smoke: bool
    tally: Tally = field(default_factory=Tally)

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "XMC_JOBS"}
        env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.work / "tmp"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        return env

    def argv(self, tokens: tuple[str, ...], setup: Path, out: Path,
             span_dir: Path | None) -> list[str]:
        args = [t.format(setup=setup) for t in tokens]
        if not tokens[0].startswith("-"):
            args += ["--config", str(self.config), "--seed", str(self.seed),
                     "--out", str(out)]
        if span_dir is None:
            return [sys.executable, "-m", "xmc.cli", *args]
        run_id = f"{self.workload.name}-{self.seed}-{os.getpid()}"
        return [sys.executable, str(BENCH / "trace_launch.py"), str(span_dir),
                run_id, *args]

    def run_pass(self, commands: tuple[tuple[str, ...], ...], setup: Path,
                 out: Path, span_dir: Path | None = None,
                 gate: bool = False) -> PassResult:
        out.mkdir(parents=True)
        env = self.env()
        runs = []
        for tokens in commands:
            r = run_command(self.argv(tokens, setup, out, span_dir), env, self.log)
            runs.append(r)
            command = tokens[0]
            exited_ok = self.tally.check(r.rc == 0, f"{command} exited {r.rc} in {out.name}")
            if exited_ok and not command.startswith("-"):
                self.tally.check(manifest_matches(out / f"{command}.manifest.json"),
                                 f"{command} manifest does not match {out.name}")
        result = PassResult(sum(r.wall for r in runs), sum(r.cpu for r in runs),
                            max(r.rss_mb for r in runs), artifact_hashes(out))
        if gate:
            result.quality = self.gate(out)
        return result

    def gate(self, out: Path) -> tuple[str, float] | None:
        try:
            name, value, ok = self.workload.quality(out)
        except (OSError, KeyError, ValueError) as e:
            self.tally.check(False, f"quality of {out.name} unreadable: {e}")
            return None
        if not self.smoke:
            self.tally.check(ok, f"{name} = {value} fails its gate in {out.name}")
        return name, value

    def same(self, got: PassResult, want: PassResult, what: str) -> None:
        self.tally.check(got.artifacts == want.artifacts, what)


def repeat(seconds: float, one: Callable[[int], object]) -> list:
    """Call ``one(0)``, ``one(1)``, ... one after another (a closed loop)
    until ``seconds`` have passed; always at least once."""
    out: list = []
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 < seconds:
        out.append(one(len(out)))
    return out


def untraced_run(r: Runner, seconds: float) -> tuple[dict, dict]:
    w = r.workload
    setups = [r.run_pass(w.setup, r.work / "setup0", r.work / f"setup{i}")
              for i in range(w.setup_repeats)]
    for i, s in enumerate(setups[1:], 1):
        r.same(s, setups[0], f"setup {i} artifacts differ from setup 0")
    passes = repeat(seconds, lambda k: r.run_pass(
        w.measured, r.work / "setup0", r.work / f"pass{k}", gate=True))
    for i, p in enumerate(passes[1:], 1):
        r.same(p, passes[0], f"pass {i} artifacts differ from pass 0")
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(s.wall for s in setups),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    return metrics, {"setups": setups, "passes": passes}


def traced_run(r: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced passes alternate, so that host speed, which
    drifts over seconds, weighs on both sides of the overhead alike."""
    w = r.workload
    ref_setup = r.run_pass(w.setup, r.work / "ref-setup", r.work / "ref-setup")
    setup_spans = r.work / "spans" / "setup"
    setup = r.run_pass(w.setup, r.work / "setup", r.work / "setup", setup_spans)
    r.same(setup, ref_setup, "traced setup artifacts differ from untraced")

    def pair(k: int) -> tuple[PassResult, PassResult]:
        plain = r.run_pass(w.measured, r.work / "ref-setup", r.work / f"ref-pass{k}",
                           gate=True)
        traced = r.run_pass(w.measured, r.work / "setup", r.work / f"pass{k}",
                            r.work / "spans" / f"pass{k}", gate=True)
        r.same(traced, plain, f"traced pass {k} artifacts differ from untraced")
        return plain, traced

    pairs = repeat(seconds, pair)
    base = spans.load_spans(setup_spans)
    per_pass = [spans.layer_metrics(base + spans.load_spans(r.work / "spans" / f"pass{k}"),
                                    w.jobs)
                for k in range(len(pairs))]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(t.wall for _, t in pairs)
                                   - statistics.median(u.wall for u, _ in pairs))
    return metrics, {"setups": [ref_setup, setup],
                     "passes": [p for both in pairs for p in both]}


# ---------------------------------------------------------------------------
# environment, reporting, entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git on this machine
        commit = None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": 1,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def benchmark_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="xmc CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny configuration, no quality gates (for tests)")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "xmc" / "cli.py").is_file():
        print(f"run.py: no xmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = benchmark_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    env_record = environment()

    state = ROOT / ".perfbench"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = state / f"work-{tag}"
    (work / "tmp").mkdir(parents=True)
    (state / "reports").mkdir(exist_ok=True)
    overlay = merge(workload.overlay, SMOKE_OVERLAY) if args.smoke else workload.overlay
    config = work / "config.yaml"
    config.write_text(json.dumps(overlay))  # JSON is valid YAML
    runner = Runner(workload, args.seed, work, state / "reports" / f"{tag}.log",
                    config, args.smoke)
    try:
        measure = traced_run if args.trace else untraced_run
        metrics, detail = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"run.py: metrics not computed: {missing}", file=sys.stderr)
        return 1
    tally = runner.tally
    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "overlay": overlay,
        "environment": env_record,
        "setup_wall_s": [s.wall for s in detail["setups"]],
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
                    "quality": p.quality} for p in detail["passes"]],
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "all_metrics": metrics,
    }
    (state / "reports" / f"{tag}.json").write_text(json.dumps(report, indent=1))
    for failure in tally.failures:
        print(f"run.py: FAILED {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
