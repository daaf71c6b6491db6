"""Command-line entry point.

Commands cover the whole pipeline: data generation, vision-teacher
pre-training, contrastive pre-training, probing/fine-tuning/baselines, the
two sweeps, the Gaussian MI estimate and the 2-D projection. Each command
writes its artifacts atomically plus a manifest with the resolved config and
input/output hashes; nothing is overwritten without --force.

Exit codes: 0 success, 2 missing input file, otherwise the ``exit_code`` of
the ``XmcError`` class raised (3 configuration, input or shape error, 4
numeric failure, 1 anything else).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import evaluation as ev
from .config import ExperimentConfig, config_to_dict, load_config
from .contrastive import ContrastiveConfig, pretrain
from .datagen import (
    CLASS_NAMES,
    GaussianPairConfig,
    SimulatorConfig,
    image_inputs,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .errors import ConfigError, XmcError
from .mi import MiCriticConfig, estimate_mi_gaussian
from .models import EncoderModel, load_checkpoint, pretrain_vision, save_checkpoint
from .runio import sha256_file, splits_path, write_csv, write_manifest
from .seeding import derive_seed


class OutputExistsError(XmcError):
    """An output exists and ``--force`` was not given."""
    exit_code = 1


def _from_section(cls, section, **extra):
    """A ``cls`` settings object filled from the fields it shares with a
    config section, plus ``extra``."""
    shared = {f.name for f in fields(cls)} & {f.name for f in fields(section)}
    return cls(**{name: getattr(section, name) for name in shared}, **extra)


def _contrastive_config(cfg: ExperimentConfig) -> ContrastiveConfig:
    return _from_section(ContrastiveConfig, cfg.contrastive, seed=cfg.seed,
                         hidden=tuple(cfg.encoder_hidden), embed_dim=cfg.embed_dim)


def _head_config(cfg: ExperimentConfig) -> ev.HeadConfig:
    return _from_section(ev.HeadConfig, cfg.eval)


def _seeds(cfg: ExperimentConfig, tag: str, n: int) -> list[int]:
    return [derive_seed(cfg.seed, tag, i) % (2**31) for i in range(n)]


# ---------------------------------------------------------------------------
# the command table and its driver
# ---------------------------------------------------------------------------

# Input role -> (default file under the output directory, --help text).
# A "data" input brings its splits sidecar along.
INPUTS = {
    "data": ("dataset.xmcd", "dataset file"),
    "vision": ("vision.xmck", "vision checkpoint"),
    "encoder": ("radio.xmck", "encoder checkpoint"),
}

# Extra flag -> its argparse keywords.
FLAGS = {
    "fraction": {"type": float, "default": 1.0, "help": "label fraction"},
    "jobs": {"type": int, "default": None,
             "help": "parallel arms (default: $XMC_JOBS or 1)"},
}


@dataclass(frozen=True)
class CommandSpec:
    """``body(args, cfg, inputs, outputs)`` gets the input paths by role and
    the output paths in order; it returns (manifest metrics or None, report)."""

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


def _drive(name: str, args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    """Hash the inputs (exit 2 if one is missing), refuse to overwrite the
    outputs (exit 1), then run the body and write the manifest."""
    spec = SPECS[name]
    out_dir = Path(args.out or cfg.io.out_dir)
    paths = {role: Path(getattr(args, role) or out_dir / INPUTS[role][0])
             for role in spec.inputs}
    inputs = {}
    for role, path in paths.items():
        for p in (path, splits_path(path)) if role == "data" else (path,):
            if not p.exists():
                raise FileNotFoundError(f"required input not found: {p}")
            inputs[str(p)] = sha256_file(p)
    outputs = [out_dir / file for file in spec.outputs]
    clashes = [str(p) for p in outputs if p.exists()]
    if clashes and not args.force:
        raise OutputExistsError(
            "refusing to overwrite existing outputs (use --force): "
            + ", ".join(clashes))
    metrics, report = spec.body(args, cfg, paths, outputs)
    write_manifest(out_dir / f"{name}.manifest.json", name, config_to_dict(cfg),
                   inputs, {str(p): sha256_file(p) for p in outputs}, metrics)
    print(report)
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@command("gen-data", outputs=("dataset.xmcd", "dataset.splits.json"))
def _gen_data(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    ds = make_dataset(_from_section(SimulatorConfig, cfg.datagen), cfg.datagen.n,
                      derive_seed(cfg.seed, "datagen"),
                      vision_fraction=cfg.datagen.vision_fraction)
    save_dataset(outputs[0], ds)
    return ({"n": ds.n, "content_hash": ds.content_hash()},
            f"wrote {outputs[0]} ({ds.n} samples)")


@command("pretrain-vision", inputs=("data",),
         outputs=("vision.xmck", "vision_pretrain.csv"))
def _pretrain_vision(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    ckpt, curve = outputs
    ds = load_dataset(inputs["data"])
    # the vision section holds exactly pretrain_vision's training keywords
    outcome = pretrain_vision(
        image_inputs(ds.images[ds.vision_idx]),
        ds.labels[ds.vision_idx].astype(np.int64),
        hidden=list(cfg.encoder_hidden), embed_dim=cfg.embed_dim,
        n_classes=len(CLASS_NAMES), seed=derive_seed(cfg.seed, "vision"),
        **asdict(cfg.vision))
    save_checkpoint(ckpt, outcome.model)
    write_csv(curve, ["epoch", "train_loss"], enumerate(outcome.train_loss))
    return ({"holdout_accuracy": outcome.holdout_accuracy},
            f"wrote {ckpt} (holdout accuracy {outcome.holdout_accuracy:.3f})")


@command("pretrain", inputs=("data", "vision"),
         outputs=("radio.xmck", "pretrain_metrics.csv"))
def _pretrain(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    ckpt, metrics_path = outputs
    result = pretrain(load_dataset(inputs["data"]), load_checkpoint(inputs["vision"]),
                      _contrastive_config(cfg))
    save_checkpoint(ckpt, result.encoder)
    write_csv(metrics_path, ["epoch", "lr", "mean_loss"],
              [[h.epoch, h.lr, h.mean_loss] for h in result.history])
    final_loss = result.history[-1].mean_loss
    return {"final_loss": final_loss}, f"wrote {ckpt} (final loss {final_loss:.4f})"


def _write_result(outputs: list, r: ev.ProbeResult, what: str):
    """Write a probe, fine-tune or baseline result row and test-loss curve."""
    result_path, curve_path = outputs[:2]
    final_loss = r.test_loss_curve[-1][1] if r.test_loss_curve else math.nan
    write_csv(result_path, ["mode", "label_fraction", "seed", "test_accuracy",
                            "best_epoch", "best_test_loss", "final_test_loss"],
              [[r.mode, r.label_fraction, r.seed, r.test_accuracy,
                r.best_epoch, r.best_test_loss, final_loss]])
    write_csv(curve_path, ["epoch", "test_loss"], r.test_loss_curve)
    return {"test_accuracy": r.test_accuracy}, f"{what} accuracy {r.test_accuracy:.3f}"


def _split_and_encoder(inputs: dict) -> tuple[ev.TaskSplit, EncoderModel]:
    """The task split of the dataset and the encoder checkpoint, checked to
    take the dataset's R·A heatmap bins before anything is encoded."""
    ds = load_dataset(inputs["data"])
    encoder = load_checkpoint(inputs["encoder"])
    width = math.prod(ds.heatmaps.shape[1:])
    if encoder.input_dim != width:
        raise ConfigError(f"encoder checkpoint {inputs['encoder']} takes "
                          f"{encoder.input_dim} inputs, but the heatmaps have {width} "
                          f"(R·A) bins")
    return ev.make_task_split(ds), encoder


@command("probe", inputs=("data", "encoder"),
         outputs=("probe_result.csv", "probe_curve.csv"), flags=("fraction",))
def _probe(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    split, encoder = _split_and_encoder(inputs)
    r = ev.linear_probe(encoder, split, args.fraction, _head_config(cfg), cfg.seed)
    return _write_result(outputs, r, "linear probe")


@command("finetune", inputs=("data", "encoder"),
         outputs=("finetune_result.csv", "finetune_curve.csv", "radio_finetuned.xmck"),
         flags=("fraction",))
def _finetune(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    split, encoder = _split_and_encoder(inputs)
    r, tuned = ev.finetune(encoder, split, args.fraction, _head_config(cfg), cfg.seed)
    save_checkpoint(outputs[2], tuned)
    return _write_result(outputs, r, "fine-tune")


@command("baseline", inputs=("data",),
         outputs=("baseline_result.csv", "baseline_curve.csv"), flags=("fraction",))
def _baseline(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    split = ev.make_task_split(load_dataset(inputs["data"]))
    r = ev.supervised_baseline(split, args.fraction, _head_config(cfg), cfg.seed,
                               hidden=tuple(cfg.encoder_hidden),
                               embed_dim=cfg.embed_dim)
    return _write_result(outputs, r, "supervised baseline")


# -- sweeps (optionally parallel over arms) ---------------------------------

def _arm_inputs(payload: dict):
    return (load_dataset(payload["data"]), load_checkpoint(payload["vision"]),
            load_config(None, payload["config"]))


def _queue_arm_worker(payload: dict) -> ev.ArmResult:
    ds, vision, cfg = _arm_inputs(payload)
    return ev.queue_sweep_arm(ds, vision, _contrastive_config(cfg),
                              _head_config(cfg), payload["k"], payload["seed"])


def _label_seed_worker(payload: dict) -> list[ev.ArmResult]:
    ds, vision, cfg = _arm_inputs(payload)
    return ev.label_sweep_seed(ds, vision, _contrastive_config(cfg),
                               _head_config(cfg), payload["fractions"],
                               payload["seed"])


def _map_arms(fn, payloads: list[dict], jobs: int | None) -> list:
    """``fn`` over the payloads, in a pool of ``jobs`` processes; ``None``
    means $XMC_JOBS, else 1."""
    if jobs is None:
        env = os.environ.get("XMC_JOBS", "1")
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(f"XMC_JOBS must be an integer, got {env!r}") from None
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # the pool starts all its workers up front, so never more than there are arms
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(fn, payloads))


@command("sweep-k", inputs=("data", "vision"),
         outputs=("sweep_k.csv", "sweep_k_summary.csv"), flags=("jobs",))
def _sweep_k(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    detail_path, summary_path = outputs
    seeds = _seeds(cfg, "eval-seed", cfg.eval.n_seeds)
    payloads = [{"data": str(inputs["data"]), "vision": str(inputs["vision"]),
                 "config": config_to_dict(cfg), "k": k, "seed": s}
                for k in cfg.eval.queue_sizes for s in seeds]
    details = sorted(_map_arms(_queue_arm_worker, payloads, args.jobs),
                     key=lambda d: (d.axis_value, d.seed, d.accuracy))
    table = ev.aggregate_arms("K", "linear-probe", details)
    write_csv(detail_path, ["K", "seed", "test_accuracy"],
              [[int(d.axis_value), d.seed, d.accuracy] for d in details])
    write_csv(summary_path, ["K", "mean_accuracy", "std_accuracy", "n_seeds"],
              [[int(r.value), r.mean_accuracy, r.std_accuracy, r.n_seeds]
               for r in table.rows])
    return None, f"wrote {summary_path}"


@command("sweep-labels", inputs=("data", "vision"),
         outputs=("sweep_labels.csv", "sweep_labels_summary.csv"), flags=("jobs",))
def _sweep_labels(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    detail_path, summary_path = outputs
    fractions = ev.feasible_fractions(cfg.eval.fractions,
                                      len(load_dataset(inputs["data"]).contrastive_idx))
    payloads = [{"data": str(inputs["data"]), "vision": str(inputs["vision"]),
                 "config": config_to_dict(cfg), "fractions": fractions, "seed": s}
                for s in _seeds(cfg, "eval-seed", cfg.eval.n_seeds)]
    per_seed = _map_arms(_label_seed_worker, payloads, args.jobs)
    details = sorted((d for chunk in per_seed for d in chunk),
                     key=lambda d: (d.axis_value, d.arm, d.seed))
    write_csv(detail_path, ["label_fraction", "arm", "seed", "test_accuracy"],
              [[d.axis_value, d.arm, d.seed, d.accuracy] for d in details])
    rows = []
    for arm in ("fine-tune", "supervised"):
        table = ev.aggregate_arms("label_fraction", arm,
                                  [d for d in details if d.arm == arm])
        rows.extend([[r.value, arm, r.mean_accuracy, r.std_accuracy, r.n_seeds]
                     for r in table.rows])
    write_csv(summary_path,
              ["label_fraction", "arm", "mean_accuracy", "std_accuracy", "n_seeds"],
              rows)
    return None, f"wrote {summary_path}"


def _mi_arm_worker(payload: dict) -> tuple[float, int, float, float, float]:
    m = load_config(None, payload["config"]).mi
    pair_cfg = GaussianPairConfig(dim=m.dim, rho=payload["rho"],
                                  count=m.pair_count, seed=payload["seed"])
    est = estimate_mi_gaussian(pair_cfg, _from_section(MiCriticConfig, m), m.queue_size)
    return (payload["rho"], payload["seed"], est.mean_loss,
            est.mi_lower_bound, est.true_mi)


@command("estimate-mi", outputs=("mi_estimates.csv",), flags=("jobs",))
def _estimate_mi(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    (csv_path,) = outputs
    seeds = _seeds(cfg, "mi-seed", cfg.mi.n_seeds)
    payloads = [{"config": config_to_dict(cfg), "rho": rho, "seed": s}
                for rho in cfg.mi.rhos for s in seeds]
    results = sorted(_map_arms(_mi_arm_worker, payloads, args.jobs))
    write_csv(csv_path,
              ["rho", "dim", "K", "seed", "mean_loss", "mi_lower_bound", "true_mi"],
              [[rho, cfg.mi.dim, cfg.mi.queue_size, seed, loss, bound, true]
               for rho, seed, loss, bound, true in results])
    return None, f"wrote {csv_path}"


@command("project", inputs=("data", "encoder"), outputs=("projection.csv",))
def _project(args, cfg: ExperimentConfig, inputs: dict, outputs: list):
    (proj_path,) = outputs
    split, encoder = _split_and_encoder(inputs)
    feats = encoder.forward_numpy(split.test_inputs)
    coords = ev.project_2d(feats)
    labels = split.test_labels_for_reporting()
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
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
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


if __name__ == "__main__":
    sys.exit(main())
