"""Command-line entry point.

Commands cover the whole pipeline: data generation, vision-teacher
pre-training, contrastive pre-training, probing/fine-tuning/baselines, the
two sweeps, the Gaussian MI estimate and the 2-D projection. Each command
writes its artifacts atomically plus a manifest with the resolved config and
input/output hashes; nothing is overwritten without --force.

Exit codes: 0 success, 2 missing input file, 3 configuration error,
4 numeric failure (non-finite loss), 1 anything else.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import evaluation as ev
from .config import ExperimentConfig, config_to_dict, load_config
from .contrastive import ContrastiveConfig, pretrain
from .datagen import (
    CLASS_NAMES,
    GaussianPairConfig,
    SimulatorConfig,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    FormatError,
    NumericError,
    StratificationError,
    UsageError,
    XmcError,
)
from .mi import MiCriticConfig, estimate_mi_gaussian
from .models import load_checkpoint, pretrain_vision, save_checkpoint
from .runio import sha256_file, splits_path, write_csv, write_manifest
from .seeding import derive_seed


class OutputExistsError(XmcError):
    pass


def _simulator_config(cfg: ExperimentConfig) -> SimulatorConfig:
    d = cfg.datagen
    return SimulatorConfig(
        range_bins=d.range_bins, azimuth_bins=d.azimuth_bins,
        image_height=d.image_height, image_width=d.image_width,
        sigma_radar=d.sigma_radar, sigma_image=d.sigma_image)


def _contrastive_config(cfg: ExperimentConfig, seed: int | None = None) -> ContrastiveConfig:
    c = cfg.contrastive
    return ContrastiveConfig(
        tau=c.tau, queue_size=c.queue_size, batch_size=c.batch_size,
        epochs=c.epochs, lr=c.lr, momentum=c.momentum,
        weight_decay=c.weight_decay,
        seed=cfg.seed if seed is None else seed,
        hidden=tuple(cfg.encoder_hidden), embed_dim=cfg.embed_dim,
        normalize=c.normalize)


def _head_config(cfg: ExperimentConfig) -> ev.HeadConfig:
    e = cfg.eval
    return ev.HeadConfig(
        probe_epochs=e.probe_epochs, finetune_epochs=e.finetune_epochs,
        baseline_epochs=e.baseline_epochs, lr=e.lr, momentum=e.momentum,
        weight_decay=e.weight_decay, batch_size=e.batch_size)


def _eval_seeds(cfg: ExperimentConfig) -> list[int]:
    return [derive_seed(cfg.seed, "eval-seed", i) % (2**31)
            for i in range(cfg.eval.n_seeds)]


def _require_inputs(paths: list[Path]) -> dict[str, str]:
    hashes = {}
    for p in paths:
        if not p.exists():
            raise FileNotFoundError(f"required input not found: {p}")
        hashes[str(p)] = sha256_file(p)
    return hashes


def _check_outputs(paths: list[Path], force: bool) -> None:
    clashes = [str(p) for p in paths if p.exists()]
    if clashes and not force:
        raise OutputExistsError(
            "refusing to overwrite existing outputs (use --force): "
            + ", ".join(clashes))


def _finish(out_dir: Path, command: str, cfg: ExperimentConfig,
            inputs: dict[str, str], outputs: list[Path],
            metrics: dict | None = None) -> None:
    out_hashes = {str(p): sha256_file(p) for p in outputs}
    write_manifest(out_dir / f"{command}.manifest.json", command,
                   config_to_dict(cfg), inputs, out_hashes, metrics)


def _result_rows(results: list[ev.ProbeResult]) -> list[list]:
    rows = []
    for r in results:
        final_loss = r.test_loss_curve[-1][1] if r.test_loss_curve else math.nan
        rows.append([r.mode, r.label_fraction, r.seed, r.test_accuracy,
                     r.best_epoch, r.best_test_loss, final_loss])
    return rows


RESULT_HEADER = ["mode", "label_fraction", "seed", "test_accuracy",
                 "best_epoch", "best_test_loss", "final_test_loss"]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    data_path = out_dir / "dataset.xmcd"
    _check_outputs([data_path, splits_path(data_path)], args.force)
    ds = make_dataset(_simulator_config(cfg), cfg.datagen.n,
                      derive_seed(cfg.seed, "datagen"),
                      vision_fraction=cfg.datagen.vision_fraction)
    save_dataset(data_path, ds)
    _finish(out_dir, "gen-data", cfg, {}, [data_path, splits_path(data_path)],
            metrics={"n": ds.n, "content_hash": ds.content_hash()})
    print(f"wrote {data_path} ({ds.n} samples)")
    return 0


def cmd_pretrain_vision(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    data_path = Path(args.data or out_dir / "dataset.xmcd")
    ckpt = out_dir / "vision.xmck"
    curve = out_dir / "vision_pretrain.csv"
    inputs = _require_inputs([data_path, splits_path(data_path)])
    _check_outputs([ckpt, curve], args.force)
    ds = load_dataset(data_path)
    from .datagen import image_inputs
    v = cfg.vision
    outcome = pretrain_vision(
        image_inputs(ds.images[ds.vision_idx]),
        ds.labels[ds.vision_idx].astype(np.int64),
        hidden=list(cfg.encoder_hidden), embed_dim=cfg.embed_dim,
        n_classes=len(CLASS_NAMES), epochs=v.epochs, lr=v.lr,
        momentum=v.momentum, weight_decay=v.weight_decay,
        batch_size=v.batch_size, holdout_fraction=v.holdout_fraction,
        seed=derive_seed(cfg.seed, "vision"), mode=v.mode)
    save_checkpoint(ckpt, outcome.model)
    write_csv(curve, ["epoch", "train_loss"],
              [[i, x] for i, x in enumerate(outcome.train_loss)])
    _finish(out_dir, "pretrain-vision", cfg, inputs, [ckpt, curve],
            metrics={"holdout_accuracy": outcome.holdout_accuracy})
    print(f"wrote {ckpt} (holdout accuracy {outcome.holdout_accuracy:.3f})")
    return 0


def cmd_pretrain(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    data_path = Path(args.data or out_dir / "dataset.xmcd")
    vision_path = Path(args.vision or out_dir / "vision.xmck")
    ckpt = out_dir / "radio.xmck"
    metrics_path = out_dir / "pretrain_metrics.csv"
    inputs = _require_inputs([data_path, splits_path(data_path), vision_path])
    _check_outputs([ckpt, metrics_path], args.force)
    ds = load_dataset(data_path)
    vision, _ = load_checkpoint(vision_path)
    result = pretrain(ds, vision, _contrastive_config(cfg))
    save_checkpoint(ckpt, result.encoder)
    write_csv(metrics_path, ["epoch", "lr", "mean_loss", "uniform_ref"],
              [[h.epoch, h.lr, h.mean_loss, h.uniform_ref] for h in result.history])
    _finish(out_dir, "pretrain", cfg, inputs, [ckpt, metrics_path],
            metrics={"final_loss": result.history[-1].mean_loss})
    print(f"wrote {ckpt} (final loss {result.history[-1].mean_loss:.4f})")
    return 0


def _load_task(args, cfg: ExperimentConfig, out_dir: Path):
    data_path = Path(args.data or out_dir / "dataset.xmcd")
    encoder_path = Path(args.encoder or out_dir / "radio.xmck")
    inputs = _require_inputs([data_path, splits_path(data_path), encoder_path])
    ds = load_dataset(data_path)
    encoder, _ = load_checkpoint(encoder_path)
    return ds, encoder, inputs


def cmd_probe(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    result_path = out_dir / "probe_result.csv"
    curve_path = out_dir / "probe_curve.csv"
    ds, encoder, inputs = _load_task(args, cfg, out_dir)
    _check_outputs([result_path, curve_path], args.force)
    split = ev.make_task_split(ds)
    r = ev.linear_probe(encoder, split, args.fraction, _head_config(cfg), cfg.seed)
    write_csv(result_path, RESULT_HEADER, _result_rows([r]))
    write_csv(curve_path, ["epoch", "test_loss"], r.test_loss_curve)
    _finish(out_dir, "probe", cfg, inputs, [result_path, curve_path],
            metrics={"test_accuracy": r.test_accuracy})
    print(f"linear probe accuracy {r.test_accuracy:.3f}")
    return 0


def cmd_finetune(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    result_path = out_dir / "finetune_result.csv"
    curve_path = out_dir / "finetune_curve.csv"
    tuned_path = out_dir / "radio_finetuned.xmck"
    ds, encoder, inputs = _load_task(args, cfg, out_dir)
    _check_outputs([result_path, curve_path, tuned_path], args.force)
    split = ev.make_task_split(ds)
    r, tuned = ev.finetune(encoder, split, args.fraction, _head_config(cfg), cfg.seed)
    save_checkpoint(tuned_path, tuned)
    write_csv(result_path, RESULT_HEADER, _result_rows([r]))
    write_csv(curve_path, ["epoch", "test_loss"], r.test_loss_curve)
    _finish(out_dir, "finetune", cfg, inputs, [result_path, curve_path, tuned_path],
            metrics={"test_accuracy": r.test_accuracy})
    print(f"fine-tune accuracy {r.test_accuracy:.3f}")
    return 0


def cmd_baseline(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    data_path = Path(args.data or out_dir / "dataset.xmcd")
    result_path = out_dir / "baseline_result.csv"
    curve_path = out_dir / "baseline_curve.csv"
    inputs = _require_inputs([data_path, splits_path(data_path)])
    _check_outputs([result_path, curve_path], args.force)
    ds = load_dataset(data_path)
    split = ev.make_task_split(ds)
    r = ev.supervised_baseline(split, args.fraction, _head_config(cfg), cfg.seed,
                               hidden=tuple(cfg.encoder_hidden),
                               embed_dim=cfg.embed_dim)
    write_csv(result_path, RESULT_HEADER, _result_rows([r]))
    write_csv(curve_path, ["epoch", "test_loss"], r.test_loss_curve)
    _finish(out_dir, "baseline", cfg, inputs, [result_path, curve_path],
            metrics={"test_accuracy": r.test_accuracy})
    print(f"supervised baseline accuracy {r.test_accuracy:.3f}")
    return 0


# -- sweeps (optionally parallel over arms) ---------------------------------

def _queue_arm_worker(payload: dict) -> tuple[float, int, float]:
    ds = load_dataset(payload["data"])
    vision, _ = load_checkpoint(payload["vision"])
    cfg = load_config(None, payload["config"])
    arm = ev.queue_sweep_arm(ds, vision, _contrastive_config(cfg),
                             _head_config(cfg), payload["k"], payload["seed"])
    return arm.axis_value, arm.seed, arm.accuracy


def _label_seed_worker(payload: dict) -> list[tuple[float, str, int, float]]:
    ds = load_dataset(payload["data"])
    vision, _ = load_checkpoint(payload["vision"])
    cfg = load_config(None, payload["config"])
    arms = ev.label_sweep_seed(ds, vision, _contrastive_config(cfg),
                               _head_config(cfg), payload["fractions"],
                               payload["seed"])
    return [(a.axis_value, a.arm, a.seed, a.accuracy) for a in arms]


def _jobs(args) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    return max(1, int(os.environ.get("XMC_JOBS", "1")))


def _map_arms(fn, payloads: list[dict], jobs: int) -> list:
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads))


def cmd_sweep_k(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    data_path = Path(args.data or out_dir / "dataset.xmcd")
    vision_path = Path(args.vision or out_dir / "vision.xmck")
    detail_path = out_dir / "sweep_k.csv"
    summary_path = out_dir / "sweep_k_summary.csv"
    inputs = _require_inputs([data_path, splits_path(data_path), vision_path])
    _check_outputs([detail_path, summary_path], args.force)
    seeds = _eval_seeds(cfg)
    payloads = [{"data": str(data_path), "vision": str(vision_path),
                 "config": config_to_dict(cfg), "k": k, "seed": s}
                for k in cfg.eval.queue_sizes for s in seeds]
    results = _map_arms(_queue_arm_worker, payloads, _jobs(args))
    details = [ev.ArmResult(k, "linear-probe", seed, acc)
               for k, seed, acc in sorted(results)]
    table = ev.aggregate_arms("K", "linear-probe", details)
    write_csv(detail_path, ["K", "seed", "test_accuracy"],
              [[int(d.axis_value), d.seed, d.accuracy] for d in details])
    write_csv(summary_path, ["K", "mean_accuracy", "std_accuracy", "n_seeds"],
              [[int(r.value), r.mean_accuracy, r.std_accuracy, r.n_seeds]
               for r in table.rows])
    _finish(out_dir, "sweep-k", cfg, inputs, [detail_path, summary_path])
    print(f"wrote {summary_path}")
    return 0


def cmd_sweep_labels(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    data_path = Path(args.data or out_dir / "dataset.xmcd")
    vision_path = Path(args.vision or out_dir / "vision.xmck")
    detail_path = out_dir / "sweep_labels.csv"
    summary_path = out_dir / "sweep_labels_summary.csv"
    inputs = _require_inputs([data_path, splits_path(data_path), vision_path])
    _check_outputs([detail_path, summary_path], args.force)
    ds = load_dataset(data_path)
    fractions = ev.feasible_fractions(cfg.eval.fractions, len(ds.contrastive_idx))
    seeds = _eval_seeds(cfg)
    payloads = [{"data": str(data_path), "vision": str(vision_path),
                 "config": config_to_dict(cfg), "fractions": fractions,
                 "seed": s}
                for s in seeds]
    per_seed = _map_arms(_label_seed_worker, payloads, _jobs(args))
    details = [ev.ArmResult(f, arm, seed, acc)
               for chunk in per_seed for f, arm, seed, acc in chunk]
    details.sort(key=lambda d: (d.axis_value, d.arm, d.seed))
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
    _finish(out_dir, "sweep-labels", cfg, inputs, [detail_path, summary_path])
    print(f"wrote {summary_path}")
    return 0


def _mi_arm_worker(payload: dict) -> tuple[float, int, float, float, float]:
    cfg = load_config(None, payload["config"])
    m = cfg.mi
    pair_cfg = GaussianPairConfig(dim=m.dim, rho=payload["rho"],
                                  count=m.pair_count, seed=payload["seed"])
    critic = MiCriticConfig(embed_dim=m.embed_dim, batch_size=m.batch_size,
                            epochs=m.epochs, lr=m.lr, momentum=m.momentum)
    est = estimate_mi_gaussian(pair_cfg, critic, m.queue_size)
    return (payload["rho"], payload["seed"], est.mean_loss,
            est.mi_lower_bound, est.true_mi)


def cmd_estimate_mi(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    csv_path = out_dir / "mi_estimates.csv"
    _check_outputs([csv_path], args.force)
    seeds = [derive_seed(cfg.seed, "mi-seed", i) % (2**31)
             for i in range(cfg.mi.n_seeds)]
    payloads = [{"config": config_to_dict(cfg), "rho": rho, "seed": s}
                for rho in cfg.mi.rhos for s in seeds]
    results = sorted(_map_arms(_mi_arm_worker, payloads, _jobs(args)))
    write_csv(csv_path,
              ["rho", "dim", "K", "seed", "mean_loss", "mi_lower_bound", "true_mi"],
              [[rho, cfg.mi.dim, cfg.mi.queue_size, seed, loss, bound, true]
               for rho, seed, loss, bound, true in results])
    _finish(out_dir, "estimate-mi", cfg, {}, [csv_path])
    print(f"wrote {csv_path}")
    return 0


def cmd_project(args, cfg: ExperimentConfig) -> int:
    out_dir = Path(args.out or cfg.io.out_dir)
    proj_path = out_dir / "projection.csv"
    ds, encoder, inputs = _load_task(args, cfg, out_dir)
    _check_outputs([proj_path], args.force)
    split = ev.make_task_split(ds)
    feats = ev.extract_features(encoder, split.test_inputs)
    coords = ev.project_2d(feats)
    labels = split.test_labels_for_reporting()
    sep = ev.cluster_separation(coords, labels)
    write_csv(proj_path, ["x", "y", "class"],
              [[coords[i, 0], coords[i, 1], CLASS_NAMES[labels[i]]]
               for i in range(len(labels))])
    _finish(out_dir, "project", cfg, inputs, [proj_path],
            metrics={"cluster_separation": sep})
    print(f"wrote {proj_path} (separation {sep:.3f})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

COMMANDS = {
    "gen-data": cmd_gen_data,
    "pretrain-vision": cmd_pretrain_vision,
    "pretrain": cmd_pretrain,
    "probe": cmd_probe,
    "finetune": cmd_finetune,
    "baseline": cmd_baseline,
    "sweep-k": cmd_sweep_k,
    "sweep-labels": cmd_sweep_labels,
    "estimate-mi": cmd_estimate_mi,
    "project": cmd_project,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmc",
        description="Cross-modal contrastive training and evaluation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override root seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        if name in {"pretrain-vision", "pretrain", "probe", "finetune",
                    "baseline", "sweep-k", "sweep-labels", "project"}:
            p.add_argument("--data", default=None, help="dataset file")
        if name in {"pretrain", "sweep-k", "sweep-labels"}:
            p.add_argument("--vision", default=None, help="vision checkpoint")
        if name in {"probe", "finetune", "project"}:
            p.add_argument("--encoder", default=None, help="encoder checkpoint")
        if name in {"probe", "finetune", "baseline"}:
            p.add_argument("--fraction", type=float, default=1.0,
                           help="label fraction")
        if name in {"sweep-k", "sweep-labels", "estimate-mi"}:
            p.add_argument("--jobs", type=int, default=None,
                           help="parallel arms (default: $XMC_JOBS or 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return COMMANDS[args.command](args, cfg)
    except FileNotFoundError as e:
        print(f"xmc {args.command}: {e}", file=sys.stderr)
        return 2
    except (ConfigError, FormatError, DomainError, StratificationError) as e:
        print(f"xmc {args.command}: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"xmc {args.command}: {e}", file=sys.stderr)
        return 4
    except (OutputExistsError, UsageError, ContractError) as e:
        print(f"xmc {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
