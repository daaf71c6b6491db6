"""Fast tests of the benchmark itself: span analysis, the failure tally, the
traced launcher, and a tiny-config smoke run of every workload.

Run with: python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

MAIN, WORKER = 100, 200


def synthetic_spans() -> list[Span]:
    """A sweep command in MAIN with two overlapping children and one nested
    grandchild, and a pool worker in WORKER whose arm span hangs off the
    command span."""
    return [
        Span(MAIN, 0, None, "cli.sweep-labels", 0.0, 10.0),
        Span(MAIN, 1, (MAIN, 0), "datagen.load_dataset", 1.0, 3.0, size=64),
        Span(MAIN, 2, (MAIN, 1), "datagen.dataset_from_bytes", 1.5, 2.0),
        Span(MAIN, 3, (MAIN, 0), "runio.write_csv", 4.0, 6.0),
        Span(MAIN, 4, (MAIN, 0), "runio.sha256_file", 5.0, 7.0, size=32),
        Span(WORKER, 0, (MAIN, 0), "evaluation.label_sweep_seed", 2.0, 9.0),
        Span(WORKER, 1, (WORKER, 0), "models.sgd_step", 3.0, 4.0, size=400),
        Span(WORKER, 2, (WORKER, 0), "models.sgd_step", 4.5, 5.0, size=400),
    ]


def test_self_time_subtracts_same_process_children_only():
    selfs = spans.self_times(synthetic_spans())
    # children cover [1, 3] and the union [4, 7]; the worker arm, though a
    # child of the command, runs concurrently in another process
    assert selfs[(MAIN, 0)] == pytest.approx(10.0 - 2.0 - 3.0)
    assert selfs[(MAIN, 1)] == pytest.approx(2.0 - 0.5)
    assert selfs[(WORKER, 0)] == pytest.approx(7.0 - 1.0 - 0.5)
    assert selfs[(WORKER, 1)] == pytest.approx(1.0)


def test_layer_metrics_from_synthetic_spans():
    m = spans.layer_metrics(synthetic_spans(), jobs=2)
    assert m["cli.sweep-labels.s"] == pytest.approx(5.0)
    assert m["datagen.dataset_io.s"] == pytest.approx(2.0)   # load + its parser
    assert m["datagen.dataset_io.bytes"] == 64
    assert m["datagen.load_dataset.calls"] == 1
    assert m["runio.write.s"] == pytest.approx(2.0)
    assert m["runio.sha256_file.s"] == pytest.approx(2.0)
    assert m["evaluation.label_sweep_seed.s"] == pytest.approx(5.5)
    assert m["models.sgd_step.calls"] == 2
    assert m["models.sgd_step.gbps"] == pytest.approx(800 / 1.5 / 1e9)
    assert m["train.step_ms.p50"] == pytest.approx(1000.0)  # returns at 4.0 and 5.0
    assert m["cli.pool.busy_ratio"] == pytest.approx(7.0 / (2 * 10.0))
    assert m["mi.estimate_mi_gaussian.s"] == 0.0


def test_tracer_collects_spans_from_a_forked_worker(tmp_path):
    tracer = spans.Tracer(tmp_path, "run-1")
    in_worker = tracer.wrap("worker.task", lambda: None)

    def fork_one():
        proc = multiprocessing.get_context("fork").Process(target=in_worker)
        proc.start()
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0

    tracer.wrap("main.command", fork_one)()
    tracer.flush()

    recorded = spans.load_spans(tmp_path)
    by_name = {s.name: s for s in recorded}
    assert set(by_name) == {"main.command", "worker.task"}
    command, task = by_name["main.command"], by_name["worker.task"]
    assert task.pid != command.pid
    assert task.parent == command.key
    assert command.t0 <= task.t0 and task.t1 <= command.t1
    assert len(list(tmp_path.glob("spans-*.json"))) == 2


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

def test_forced_nonzero_exit_is_counted(tmp_path):
    (tmp_path / "tmp").mkdir()
    config = tmp_path / "config.yaml"
    config.write_text("{}")
    runner = run.Runner(run.WORKLOADS["contrastive"], 7, tmp_path,
                        tmp_path / "log", config, smoke=True)
    commands = (("--help",), ("probe", "--data", "{setup}/missing.xmcd"))
    runner.run_pass(commands, tmp_path / "nowhere", tmp_path / "pass0")
    assert runner.tally.attempted == 2
    assert runner.tally.failed == 1
    assert "probe exited 2" in runner.tally.failures[0]


def write_mi_estimates(out: Path, errors: list[float]) -> None:
    rows = "".join(f"0.9,0.83,{0.83 + e}\n" for e in errors)
    (out / "mi_estimates.csv").write_text("mean_loss,true_mi,mi_lower_bound\n" + rows)


@pytest.mark.parametrize("errors, ok", [
    ([-0.073, 0.01, -0.005, 0.0], True),   # one arm's held-out scatter
    ([-0.11, 0.0, 0.0, 0.0], False),       # an arm beyond the per-arm limit
    ([-0.04, -0.04, -0.04, -0.04], False), # every arm low: the mean is off
])
def test_mi_gate_limits_each_arm_and_the_mean(tmp_path, errors, ok):
    write_mi_estimates(tmp_path, errors)
    name, mean, passed = run.mi_quality(tmp_path)
    assert name == "mi_err_nats"
    assert mean == pytest.approx(sum(abs(e) for e in errors) / len(errors))
    assert passed is ok


# ---------------------------------------------------------------------------
# the benchmark as a whole
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(run.HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# Per-layer values that are non-zero only if the launcher reached every
# binding site of the workload's layers, including pool workers.
TRACED_REACH = {
    "contrastive": ["cli.pretrain.s", "contrastive.info_nce.calls",
                    "evaluation.linear_probe.s", "models.checkpoint.bytes",
                    "datagen.make_dataset.s", "contrastive.queue.bytes_copied"],
    "label-sweep": ["evaluation.label_sweep_seed.s", "cli.pool.busy_ratio",
                    "evaluation.supervised_baseline.s", "models.sgd_step.calls"],
    "mi-gaussian": ["mi.estimate_mi_gaussian.s", "contrastive.info_nce.calls",
                    "models.sgd_step.calls", "autodiff.logsumexp_row.s"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert all(values[k] > 0 for k in TRACED_REACH[workload]), values
    else:
        assert all(v > 0 for v in values.values()), values


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("contrastive", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
