"""Span recording and per-layer analysis for the xmc benchmark.

A span is one call into a layer: its name, start and end on the monotonic
clock (shared by all processes of the machine), the span that was open when
it started, the process id, and an optional size in bytes. Spans are kept in
memory and written out once per process, to one JSON file per process in the
run's span directory.

Self time is a span's duration minus the part of that interval covered by
its children in the same process. A child in another process (a pool worker
started from inside a command) runs concurrently, so it keeps its causal
parent link but does not reduce the parent's self time.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import uuid
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    pid: int
    sid: int
    parent: tuple[int, int] | None   # (pid, sid) of the enclosing span
    name: str
    t0: float
    t1: float
    size: int = 0

    @property
    def key(self) -> tuple[int, int]:
        return (self.pid, self.sid)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans around wrapped functions and writes them per process.

    The process that creates the tracer writes its spans with :meth:`flush`.
    A forked child starts with an empty record and flushes on process exit
    through a ``multiprocessing`` finalizer, because ``atexit`` handlers do
    not run in forked pool workers.
    """

    def __init__(self, out_dir: str | Path, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self._pid = os.getpid()
        self._records: list[tuple] = []
        self._stack: list[tuple[int, int]] = []
        self._next_sid = 0
        self._finalizer_pending = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Keep the stack: the span that forked stays the causal parent.
        self._pid = os.getpid()
        self._records = []
        self._next_sid = 0
        self._finalizer_pending = True

    def _register_finalizer(self) -> None:
        # multiprocessing clears its finalizer registry after the fork hooks
        # have run, so the child registers on its first span instead.
        from multiprocessing import util
        util.Finalize(self, self.flush, exitpriority=100)
        self._finalizer_pending = False

    def wrap(self, name: str, fn: Callable,
             size: Callable[[tuple, dict, object], int] | None = None) -> Callable:
        """``fn`` recording one span per call; ``size(args, kwargs, result)``
        gives the bytes attributed to a call that returned normally."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._finalizer_pending:
                self._register_finalizer()
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append((self._pid, sid))
            returned = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                nbytes = size(args, kwargs, out) if returned and size else 0
                self._records.append((sid, parent, name, t0, t1, nbytes))

        return traced

    def flush(self) -> None:
        """Write this process's spans; a second call writes nothing."""
        if not self._records:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"run_id": self.run_id, "pid": self._pid,
                   "spans": self._records}
        path = self.out_dir / f"spans-{self._pid}-{uuid.uuid4().hex[:8]}.json"
        path.write_text(json.dumps(payload))
        self._records = []


def load_spans(span_dir: str | Path) -> list[Span]:
    """Every span written to ``span_dir`` by any process."""
    out = []
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        pid = payload["pid"]
        for sid, parent, name, t0, t1, size in payload["spans"]:
            out.append(Span(pid, sid, tuple(parent) if parent else None,
                            name, t0, t1, size))
    return out


def self_times(spans: Iterable[Span]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by (pid, sid)."""
    spans = list(spans)
    children: dict[tuple[int, int], list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent[0] == s.pid:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for c in sorted(children.get(s.key, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, reach), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.key] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

AUTODIFF_NON_OPS = {"autodiff.backward", "autodiff.zero_grads"}

# Layer -> span names whose self times it sums. A layer that spans several
# functions (IO, data generation) counts the self time of each of them, so
# its own helpers are inside it and calls into other layers are not.
SELF_TIME_GROUPS = {
    "models.sgd_step": {"models.sgd_step"},
    "autodiff.backward": {"autodiff.backward"},
    "autodiff.matmul": {"autodiff.matmul"},
    "models.forward": {"models.forward"},
    "models.forward_numpy": {"models.forward_numpy"},
    "autodiff.logsumexp_row": {"autodiff.logsumexp_row"},
    "autodiff.l2_normalize": {"autodiff.l2_normalize"},
    "models.cross_entropy": {"models.cross_entropy"},
    "contrastive.info_nce": {"contrastive.info_nce"},
    "contrastive.queue": {"contrastive.queue.enqueue", "contrastive.queue.snapshot"},
    "contrastive.pretrain": {"contrastive.pretrain"},
    "contrastive.encode_keys": {"contrastive.encode_keys"},
    "evaluation.linear_probe": {"evaluation.linear_probe"},
    "evaluation.finetune": {"evaluation.finetune"},
    "evaluation.supervised_baseline": {"evaluation.supervised_baseline"},
    "evaluation.label_sweep_seed": {"evaluation.label_sweep_seed"},
    "evaluation.project_2d": {"evaluation.project_2d"},
    "datagen.make_dataset": {"datagen.make_dataset", "datagen.sample_scene",
                             "datagen.render_radar", "datagen.render_image",
                             "datagen.project_to_image"},
    "datagen.dataset_io": {"datagen.save_dataset", "datagen.load_dataset",
                           "datagen.dataset_to_bytes", "datagen.dataset_from_bytes",
                           "datagen.splits_to_json"},
    "models.checkpoint": {"models.save_checkpoint", "models.load_checkpoint",
                          "models.save_checkpoint_bytes",
                          "models.load_checkpoint_bytes"},
    "runio.sha256_file": {"runio.sha256_file"},
    "runio.write": {"runio.atomic_write_bytes", "runio.atomic_write_text",
                    "runio.write_csv", "runio.write_manifest"},
}

# Layer -> span names whose sizes it sums (bytes moved or computed).
BYTE_GROUPS = {
    "contrastive.queue.bytes_copied": {"contrastive.queue.snapshot"},
    "datagen.dataset_io.bytes": {"datagen.save_dataset", "datagen.load_dataset"},
    "models.checkpoint.bytes": {"models.save_checkpoint", "models.load_checkpoint"},
    "runio.sha256_file.bytes": {"runio.sha256_file"},
}

# Metric -> predicate on span names whose calls it counts.
CALL_GROUPS = {
    "models.sgd_step.calls": lambda n: n == "models.sgd_step",
    "autodiff.ops.calls": lambda n: (n.startswith("autodiff.")
                                     and n not in AUTODIFF_NON_OPS),
    "autodiff.backward.calls": lambda n: n == "autodiff.backward",
    "contrastive.info_nce.calls": lambda n: n == "contrastive.info_nce",
    "datagen.load_dataset.calls": lambda n: n == "datagen.load_dataset",
}

CLI_COMMANDS = ("gen-data", "pretrain-vision", "pretrain", "probe", "project",
                "sweep-labels", "estimate-mi")


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles; 0 if too few."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def step_intervals_ms(spans: Iterable[Span]) -> list[float]:
    """Intervals between consecutive ``sgd_step`` returns inside one
    training loop, i.e. among steps that share the enclosing span."""
    loops: dict[tuple, list[float]] = defaultdict(list)
    for s in spans:
        if s.name == "models.sgd_step":
            loops[(s.pid, s.parent)].append(s.t1)
    out = []
    for ends in loops.values():
        ends.sort()
        out.extend(1000.0 * (b - a) for a, b in zip(ends, ends[1:]))
    return out


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one set of spans (one setup plus one measured
    pass). ``jobs`` is the pool size the sweep command was given."""
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])  # self, size, calls
    for s in spans:
        agg = by_name[s.name]
        agg[0] += selfs[s.key]
        agg[1] += s.size
        agg[2] += 1

    m: dict[str, float] = {}
    for layer, names in SELF_TIME_GROUPS.items():
        m[f"{layer}.s"] = sum(by_name[n][0] for n in names)
    for metric, names in BYTE_GROUPS.items():
        m[metric] = float(sum(by_name[n][1] for n in names))
    for metric, match in CALL_GROUPS.items():
        m[metric] = float(sum(agg[2] for n, agg in by_name.items() if match(n)))
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = by_name[f"cli.{command}"][0]

    sgd_self = m["models.sgd_step.s"]
    sgd_bytes = by_name["models.sgd_step"][1]
    m["models.sgd_step.gbps"] = sgd_bytes / sgd_self / 1e9 if sgd_self > 0 else 0.0

    arms = [selfs[s.key] for s in spans if s.name == "mi.estimate_mi_gaussian"]
    m["mi.estimate_mi_gaussian.s"] = statistics.median(arms) if arms else 0.0

    steps = step_intervals_ms(spans)
    m["train.step_ms.p50"] = _percentile(steps, 50)
    m["train.step_ms.p99"] = _percentile(steps, 99)

    busy, capacity = 0.0, 0.0
    for cmd in (s for s in spans if s.name == "cli.sweep-labels"):
        capacity += jobs * cmd.duration
        busy += sum(s.duration for s in spans
                    if s.name == "evaluation.label_sweep_seed" and s.pid != cmd.pid
                    and cmd.t0 <= s.t0 and s.t1 <= cmd.t1)
    m["cli.pool.busy_ratio"] = busy / capacity if capacity > 0 else 0.0
    return m
