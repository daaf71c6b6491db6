"""Command-line entry point.

Commands cover the whole pipeline: data generation, vision-teacher
pre-training, contrastive pre-training, probing/fine-tuning/baselines, the
two sweeps, the Gaussian MI estimate and the 2-D projection. Each command
writes its artifacts atomically plus a manifest with the resolved config and
input/output hashes; nothing is overwritten without --force.

Exit codes: 0 success, 2 an input that is not a readable file, otherwise
the ``exit_code`` of the error class raised: 3 ``InputError`` (a config
value, file format, shape or domain), 4 ``NumericError``, and 1 for
``XmcError`` itself and a failed allocation (``MemoryError``, or numpy's
refusal to size an array too large to index).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# numpy and the library are imported where a command calls them, so that
# --help and a usage error answer without loading either
from .config import ExperimentConfig, MiSection, load_config
from .errors import InputError, XmcError
from .runio import STAMP, sha256_file, write_csv, write_manifest


def _seeds(cfg: ExperimentConfig, tag: str, n: int) -> list[int]:
    from .seeding import derive_seed
    return [derive_seed(cfg.seed, tag, i) % (2**31) for i in range(n)]


# ---------------------------------------------------------------------------
# the command table and its driver
# ---------------------------------------------------------------------------

# Input role -> (default file under the output directory, --help text and name in messages).
INPUTS = {
    "data": ("dataset.xmcd", "dataset file"),
    "vision": ("vision.xmck", "vision checkpoint"),
    "encoder": ("radio.xmck", "encoder checkpoint"),
}

# Extra flag -> its argparse keywords.
FLAGS = {
    "fraction": {"type": float, "default": 1.0, "help": "label fraction"},
    "jobs": {"type": int, "default": 1, "help": "parallel arms (at least 1)"},
}


@dataclass(frozen=True)
class CommandSpec:
    """``body(args, cfg, inputs, outputs)`` gets each input's (path, stamp) by
    role and the output paths in order; it returns (metrics or None, report)."""

    body: Callable[..., tuple[dict | None, str]]
    inputs: tuple[str, ...]   # keys of INPUTS
    outputs: tuple[str, ...]  # file names under the output directory
    flags: tuple[str, ...]    # keys of FLAGS


SPECS: dict[str, CommandSpec] = {}
# Command name -> a function of its own that runs the whole command; main
# looks it up at call time, so a wrapper put here times the whole command.
COMMANDS: dict[str, Callable[[argparse.Namespace, ExperimentConfig], int]] = {}


def command(name: str, inputs: tuple[str, ...] = (), outputs: tuple[str, ...] = (),
            flags: tuple[str, ...] = ()) -> Callable:
    """Register the decorated body as command ``name``."""
    def register(body: Callable) -> Callable:
        SPECS[name] = CommandSpec(body, inputs, outputs, flags)
        COMMANDS[name] = lambda args, cfg: _drive(name, args, cfg)
        return body
    return register


def _check_input(path: Path) -> None:
    """Exit 2 unless ``path`` is a readable regular file."""
    if not (path.is_file() and os.access(path, os.R_OK)):
        what = "is not a readable file" if path.exists() else "not found"
        raise FileNotFoundError(f"required input {what}: {path}")


def _drive(name: str, args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """Check the flags (exit 3), stamp and hash the inputs (exit 2 if one is
    not a readable file), check the output directory and refuse to overwrite
    the outputs (exit 1), then run the body and write the manifest."""
    spec = SPECS[name]
    if "jobs" in spec.flags and args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if "fraction" in spec.flags and not 0.0 < args.fraction <= 1.0:  # NaN included
        raise InputError(f"--fraction must be in (0, 1], got {args.fraction}")
    out_dir = Path(args.out or cfg.io.out_dir)
    inputs, hashes = {}, {}
    for role in spec.inputs:
        path = Path(getattr(args, role) or out_dir / INPUTS[role][0])
        _check_input(path)
        # stamped before it is hashed: a file replaced from here on is refused at its load
        inputs[role] = (str(path), STAMP(os.stat(path)))
        hashes[str(path)] = sha256_file(path)
    base = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not base.is_dir():
        raise XmcError(f"output directory {out_dir}: {base} is not a directory")
    outputs = [out_dir / file for file in spec.outputs]
    clashes = [str(p) for p in outputs if p.exists()]
    if clashes and not args.force:
        raise XmcError("refusing to overwrite existing outputs (use --force): "
                       + ", ".join(clashes))
    metrics, report = spec.body(args, cfg, inputs, outputs)
    write_manifest(out_dir / f"{name}.manifest.json", name, asdict(cfg),
                   hashes, {str(p): sha256_file(p) for p in outputs}, metrics)
    print(report)
    return 0


def _load_inputs(inputs: dict, cfg: ExperimentConfig) -> dict:
    """Each input by role, loaded from its (path, stamp) where it is used and
    checked before any row is gathered (exit 3): its file still has the stamp
    _drive hashed; the teacher is frozen, takes the images' H·W pixels and
    embeds to ``embed_dim``; the encoder is trainable and takes the R·A bins."""
    from .datagen import load_dataset
    from .models import load_checkpoint
    loaded = {}
    for role, (path, stamp) in inputs.items():  # the dataset first
        loaded[role] = (load_dataset if role == "data" else load_checkpoint)(path)
        if STAMP(os.stat(path)) != stamp:
            raise InputError(f"{INPUTS[role][1]} {path} changed after it was hashed")
    ds = loaded["data"]
    # checkpoint role -> (its frozen flag, the rows it embeds, what their width counts)
    fits = {"vision": (True, ds.images, "the images have {} (H·W) pixels"),
            "encoder": (False, ds.heatmaps, "the heatmaps have {} (R·A) bins")}
    for role in [r for r in fits if r in loaded]:
        (frozen, rows, unit), model = fits[role], loaded[role]
        name, width = f"{INPUTS[role][1]} {inputs[role][0]}", math.prod(rows.shape[1:])
        if model.frozen != frozen:
            raise InputError(f"{name} is {'' if model.frozen else 'not '}a frozen vision teacher")
        if model.input_dim != width:
            raise InputError(f"{name} takes {model.input_dim} inputs, but {unit.format(width)}")
        if frozen and model.embed_dim != cfg.embed_dim:
            raise InputError(f"{name} embeds to {model.embed_dim}, not embed_dim {cfg.embed_dim}")
    return loaded


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@command("gen-data", outputs=("dataset.xmcd",))
def _gen_data(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from .datagen import make_dataset, save_dataset
    from .seeding import derive_seed
    ds = make_dataset(cfg.datagen, derive_seed(cfg.seed, "datagen"))
    save_dataset(outputs[0], ds)
    return {"n": ds.n}, f"wrote {outputs[0]} ({ds.n} samples)"


@command("pretrain-vision", inputs=("data",),
         outputs=("vision.xmck", "vision_pretrain.csv"))
def _pretrain_vision(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from .evaluation import pretrain_vision
    from .models import save_checkpoint
    from .seeding import derive_seed
    ckpt, curve = outputs
    model, accuracy, train_loss = pretrain_vision(
        _load_inputs(inputs, cfg)["data"], cfg.vision, hidden=cfg.encoder_hidden,
        embed_dim=cfg.embed_dim, seed=derive_seed(cfg.seed, "vision"))
    save_checkpoint(ckpt, model)
    write_csv(curve, ["epoch", "train_loss"], enumerate(train_loss))
    shown = "not measured" if accuracy is None else f"{accuracy:.3f}"
    return {"holdout_accuracy": accuracy}, f"wrote {ckpt} (holdout accuracy {shown})"


@command("pretrain", inputs=("data", "vision"),
         outputs=("radio.xmck", "pretrain_metrics.csv"))
def _pretrain(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from .contrastive import pretrain
    from .models import save_checkpoint
    ckpt, metrics_path = outputs
    encoder, history = pretrain(*_load_inputs(inputs, cfg).values(), cfg.contrastive,
                                cfg.seed, cfg.encoder_hidden)
    save_checkpoint(ckpt, encoder)
    write_csv(metrics_path, ["epoch", "lr", "mean_loss"], history)
    final_loss = history[-1][2]
    return {"final_loss": final_loss}, f"wrote {ckpt} (final loss {final_loss:.4f})"


def _write_result(outputs: list, what: str, mode: str, fraction: float, seed: int,
                  accuracy: float, losses: list[float]):
    """Write a probe, fine-tune or baseline result row and train-loss curve."""
    result_path, curve_path = outputs[:2]
    write_csv(result_path, ["mode", "label_fraction", "seed", "test_accuracy"],
              [[mode, fraction, seed, accuracy]])
    write_csv(curve_path, ["epoch", "train_loss"], enumerate(losses))
    return {"test_accuracy": accuracy}, f"{what} accuracy {accuracy:.3f}"


@command("probe", inputs=("data", "encoder"),
         outputs=("probe_result.csv", "probe_curve.csv"), flags=("fraction",))
def _probe(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from . import evaluation as ev
    ds, encoder = _load_inputs(inputs, cfg).values()
    accuracy, losses = ev.linear_probe(encoder, ev.make_task_split(ds), args.fraction,
                                       cfg.eval, cfg.seed)
    return _write_result(outputs, "linear probe", "linear-probe", args.fraction, cfg.seed,
                         accuracy, losses)


@command("finetune", inputs=("data", "encoder"),
         outputs=("finetune_result.csv", "finetune_curve.csv", "radio_finetuned.xmck"),
         flags=("fraction",))
def _finetune(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from . import evaluation as ev
    from .models import save_checkpoint
    ds, encoder = _load_inputs(inputs, cfg).values()
    accuracy, losses, tuned = ev.finetune(encoder, ev.make_task_split(ds), args.fraction,
                                          cfg.eval, cfg.seed)
    save_checkpoint(outputs[2], tuned)
    return _write_result(outputs, "fine-tune", "fine-tune", args.fraction, cfg.seed,
                         accuracy, losses)


@command("baseline", inputs=("data",),
         outputs=("baseline_result.csv", "baseline_curve.csv"), flags=("fraction",))
def _baseline(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from . import evaluation as ev
    split = ev.make_task_split(_load_inputs(inputs, cfg)["data"])
    accuracy, losses = ev.supervised_baseline(split, args.fraction, cfg.eval, cfg.seed,
                                              hidden=cfg.encoder_hidden,
                                              embed_dim=cfg.embed_dim)
    return _write_result(outputs, "supervised baseline", "supervised-baseline",
                         args.fraction, cfg.seed, accuracy, losses)


# -- sweeps (optionally parallel over arms) ---------------------------------

def _map_arms(fn: Callable, arms: list[tuple], jobs: int) -> list:
    """``fn(*arm)`` for each arm, in a pool of ``jobs`` processes. An arm is
    submitted only when a worker is free, so none starts after one has failed."""
    if jobs == 1 or len(arms) <= 1:
        return [fn(*arm) for arm in arms]
    # imported here, so that a command without a pool never loads multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    futures, running = [], set()
    # the pool starts all its workers up front, so never more than there are arms
    with ProcessPoolExecutor(max_workers=min(jobs, len(arms))) as pool:
        for arm in arms:
            if len(running) == jobs:  # wait for a free worker
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(f.exception() for f in done):
                    break
            futures.append(pool.submit(fn, *arm))
            running.add(futures[-1])
    return [f.result() for f in futures]


def _loaded_arm(arm_fn: Callable, inputs: dict, cfg: ExperimentConfig, *axis):
    """``arm_fn`` at the arm's axis values, on the dataset and vision
    checkpoint that :func:`_load_inputs` loads in the process running it."""
    return arm_fn(*_load_inputs(inputs, cfg).values(), cfg, *axis)


def _sweep(outputs: list, columns: list[str], per_arm: list[list[tuple]]):
    """Write the arms' (*key, seed, accuracy) rows, sorted, under the key's
    ``columns``, and one summary row per key, in :func:`aggregate_arms`' order."""
    from . import evaluation as ev
    detail_path, summary_path = outputs
    rows = sorted(row for arm in per_arm for row in arm)
    write_csv(detail_path, [*columns, "seed", "test_accuracy"], rows)
    write_csv(summary_path, [*columns, "mean_accuracy", "std_accuracy", "n_seeds"],
              ev.aggregate_arms(rows))
    return None, f"wrote {summary_path}"


@command("sweep-k", inputs=("data", "vision"),
         outputs=("sweep_k.csv", "sweep_k_summary.csv"), flags=("jobs",))
def _sweep_k(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from . import evaluation as ev
    seeds = _seeds(cfg, "eval-seed", cfg.eval.n_seeds)
    arm = partial(_loaded_arm, ev.queue_sweep_arm, inputs, cfg)
    per_arm = _map_arms(arm, [(k, s) for k in cfg.eval.queue_sizes for s in seeds], args.jobs)
    return _sweep(outputs, ["K"], per_arm)


@command("sweep-labels", inputs=("data", "vision"),
         outputs=("sweep_labels.csv", "sweep_labels_summary.csv"), flags=("jobs",))
def _sweep_labels(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from . import evaluation as ev
    # the dataset alone, whose load checks the file and reads its labels; each arm loads both
    n_contrastive = len(_load_inputs({"data": inputs["data"]}, cfg)["data"].contrastive_idx)
    fractions = ev.feasible_fractions(cfg.eval.fractions, n_contrastive)
    dropped = [f for f in cfg.eval.fractions if f not in fractions]
    seeds = _seeds(cfg, "eval-seed", cfg.eval.n_seeds)
    arm = partial(_loaded_arm, ev.label_sweep_seed, inputs, cfg)
    per_seed = _map_arms(arm, [(fractions, s) for s in seeds], args.jobs)
    _, report = _sweep(outputs, ["label_fraction", "arm"], per_seed)
    note = f" (dropped fractions {dropped}: too few labels for every class)"
    return ({"dropped_fractions": dropped}, report + note) if dropped else (None, report)


def _mi_arm(mi: MiSection, rho: float, seed: int) -> tuple:
    """One (rho, seed) arm of the MI estimate, as its CSV row."""
    from .mi import estimate_mi_gaussian
    return (rho, mi.dim, mi.queue_size, seed, *estimate_mi_gaussian(mi, rho, seed))


@command("estimate-mi", outputs=("mi_estimates.csv",), flags=("jobs",))
def _estimate_mi(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    (csv_path,) = outputs
    seeds = _seeds(cfg, "mi-seed", cfg.mi.n_seeds)
    rows = _map_arms(partial(_mi_arm, cfg.mi),
                     [(rho, s) for rho in cfg.mi.rhos for s in seeds], args.jobs)
    write_csv(csv_path,
              ["rho", "dim", "K", "seed", "mean_loss", "mi_lower_bound", "true_mi"],
              sorted(rows))
    return None, f"wrote {csv_path}"


@command("project", inputs=("data", "encoder"), outputs=("projection.csv",))
def _project(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    from . import evaluation as ev
    from .datagen import CLASS_NAMES
    (proj_path,) = outputs
    ds, encoder = _load_inputs(inputs, cfg).values()
    # the test rows alone: a projection reads nothing of the contrastive split
    coords = ev.project_2d(encoder.forward_numpy(ds.heatmap_inputs(ds.test_idx)))
    labels = ds.labels[ds.test_idx]
    sep = ev.cluster_separation(coords, labels)
    write_csv(proj_path, ["x", "y", "class"],
              [[coords[i, 0], coords[i, 1], CLASS_NAMES[labels[i]]]
               for i in range(len(labels))])
    return {"cluster_separation": sep}, f"wrote {proj_path} (separation {sep:.3f})"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmc",
        description="Cross-modal contrastive training and evaluation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in SPECS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override root seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        for role in spec.inputs:
            p.add_argument(f"--{role}", default=None, help=INPUTS[role][1])
        for flag in spec.flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            _check_input(Path(args.config))
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        import numpy as np
        # a diverging run overflows on its way to the non-finite loss that
        # fit reports; that report is its one stderr line
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](args, cfg)
    except FileNotFoundError as e:
        print(f"xmc {args.command}: {e}", file=sys.stderr)
        return 2
    except XmcError as e:
        print(f"xmc {args.command}: {e}", file=sys.stderr)
        return e.exit_code
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print(f"xmc {args.command}: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except ValueError as e:  # a failed allocation too: numpy will not size the array
        if not str(e).startswith(("array is too big", "Maximum allowed dimension exceeded")):
            raise
        print(f"xmc {args.command}: cannot allocate an array that large ({e})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
