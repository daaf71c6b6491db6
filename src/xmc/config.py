"""Experiment configuration: defaults, YAML overlay, strict validation.

Every field has a default, so every command runs with zero flags; unknown
keys are rejected so a typo cannot silently fall back to a default, and
the overlay checks each value it sets by its field's type and range.
Together with the code version, a resolved config fully determines a run.
"""

from __future__ import annotations

import codecs
import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError


@dataclass
class DatagenSection:
    n: int = 2000                      # >= 20: each class gets a test sample
    range_bins: int = 32
    azimuth_bins: int = 32
    image_height: int = 32
    image_width: int = 32
    sigma_radar: float | None = None   # None: 5% of the brightest far car's peak
    sigma_image: float = 0.05
    vision_fraction: float = 0.2


@dataclass
class VisionSection:
    mode: str = "supervised"           # or "random-frozen"
    epochs: int = 120
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    holdout_fraction: float = 0.2


@dataclass
class ContrastiveSection:
    tau: float = 0.07
    queue_size: int = 256
    batch_size: int = 64
    epochs: int = 200
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4


@dataclass
class EvalSection:
    fractions: list[float] = field(default_factory=lambda: [0.01, 0.05, 0.1, 0.5, 1.0])
    queue_sizes: list[int] = field(default_factory=lambda: [8, 32, 128, 256])
    n_seeds: int = 3
    probe_epochs: int = 32
    finetune_epochs: int = 32
    baseline_epochs: int = 128
    lr: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 8


@dataclass
class MiSection:
    dim: int = 1
    rhos: list[float] = field(default_factory=lambda: [0.0, 0.3, 0.6, 0.9])
    queue_size: int = 256
    embed_dim: int = 8
    pair_count: int = 12288
    batch_size: int = 128
    epochs: int = 40
    lr: float = 0.05
    momentum: float = 0.9
    n_seeds: int = 5


@dataclass
class IoSection:
    out_dir: str = "runs"


@dataclass
class ExperimentConfig:
    seed: int = 7
    embed_dim: int = 128
    encoder_hidden: list[int] = field(default_factory=lambda: [256, 256])
    datagen: DatagenSection = field(default_factory=DatagenSection)
    vision: VisionSection = field(default_factory=VisionSection)
    contrastive: ContrastiveSection = field(default_factory=ContrastiveSection)
    eval: EvalSection = field(default_factory=EvalSection)
    mi: MiSection = field(default_factory=MiSection)
    io: IoSection = field(default_factory=IoSection)


# Field name -> (range or choice test, its description); every field not
# named here is a count, each integer >= 1. Every list but encoder_hidden
# (empty: a linear encoder) is a sweep axis: not empty, and no value twice.
_RANGES = {
    "seed": (lambda v: True, "an integer"),
    "out_dir": (lambda v: True, "a string"),
    **dict.fromkeys(("lr", "tau"), (lambda v: v > 0.0, "> 0")),
    **dict.fromkeys(("weight_decay", "sigma_radar", "sigma_image"),
                    (lambda v: v >= 0.0, ">= 0")),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "holdout_fraction": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "fractions": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "rhos": (lambda v: -1.0 < v < 1.0, "in (-1, 1)"),
    "vision_fraction": (lambda v: 0.0 <= v < 0.8, "in [0, 0.8)"),
    "mode": (lambda v: v in ("supervised", "random-frozen"),
             "'supervised' or 'random-frozen'"),
    "n": (lambda v: v >= 20, "an integer >= 20"),
    **dict.fromkeys(("range_bins", "azimuth_bins", "image_height", "image_width"),
                    (lambda v: v >= 2, "an integer >= 2")),
}
_COUNT = (lambda v: v >= 1, "an integer >= 1")
_KINDS = {"int": int, "float": (int, float), "str": str}


def _checked(where: str, name: str, kind: str, v):
    """``v`` as a ``kind`` ("int", "float" or "str") in the range of the
    field ``name``, else InputError. A boolean is not a number; a float must
    be finite, and an integer too large for one counts as infinite."""
    test, rule = _RANGES.get(name, _COUNT)
    ok = isinstance(v, _KINDS[kind]) and not isinstance(v, bool)
    if ok and kind == "float":
        try:
            v = float(v)
        except OverflowError:
            v = math.inf if v > 0 else -math.inf
    finite = not isinstance(v, float) or math.isfinite(v)
    if not (ok and finite and test(v)):
        got = f"{v!r} (text, not a number)" if isinstance(v, str) and kind != "str" else repr(v)
        raise InputError(f"{where} must be {rule if finite else 'finite and ' + rule}, got {got}")
    return v


def _apply(obj, mapping: dict, path: str) -> None:
    """Overlay ``mapping`` on ``obj``, checking each value as it is set."""
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in mapping.items():
        where = f"{path}.{key}" if path else key
        if key not in fields:
            raise InputError(f"unknown config key: {where}")
        kind = fields[key].type
        if dataclasses.is_dataclass(getattr(obj, key)):
            if not isinstance(value, dict):
                raise InputError(f"{where} must be a mapping")
            _apply(getattr(obj, key), value, where)
        elif kind.startswith("list["):
            if not isinstance(value, list):
                raise InputError(f"{where} must be a list")
            items = [_checked(where, key, kind[5:-1], v) for v in value]
            if key != "encoder_hidden" and len(set(items)) < max(len(items), 1):
                raise InputError(f"{where} must not repeat a value, got {items}" if items
                                 else f"{where} must not be empty")
            setattr(obj, key, items)
        elif value is None and kind == "float | None":
            setattr(obj, key, None)
        else:
            setattr(obj, key, _checked(where, key, kind.removesuffix(" | None"), value))


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Defaults, overlaid by an optional YAML file."""
    cfg = ExperimentConfig()
    if path is not None:
        import yaml  # here, so that a run on the defaults never loads PyYAML
        loader = type("Loader", (yaml.SafeLoader,), {})  # 1e-3 a float, as in YAML 1.2
        loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
            r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
        with open(path, "rb") as f:
            try:
                loaded = yaml.load(f, loader)
            except yaml.reader.ReaderError as e:  # a byte that is not UTF-8 or not printable
                at = e.position
                if e.encoding == "unicode":  # not printable: PyYAML counts characters
                    f.seek(0)
                    raw = f.read()
                    enc = {codecs.BOM_UTF16_LE: "utf-16-le",
                           codecs.BOM_UTF16_BE: "utf-16-be"}.get(raw[:2], "utf-8")
                    at = len(raw.decode(enc, "replace")[:at].encode(enc))
                raise InputError(
                    f"malformed YAML in {path} at byte {at}: {e.reason}") from None
            except yaml.YAMLError as e:
                mark = getattr(e, "problem_mark", None)
                where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
                problem = getattr(e, "problem", None) or "parse error"
                raise InputError(f"malformed YAML in {path}{where}: {problem}") from None
            except (ValueError, RecursionError) as e:  # a bad date, say, or deep nesting
                # the reason only: not Python's advice after "; ", which no config can act on,
                # nor a RecursionError's text, which varies with the caller's stack depth
                why = str(e).split("; ")[0] if isinstance(e, ValueError) else "nesting too deep"
                raise InputError(f"malformed YAML in {path}: {why}") from None
        if not isinstance(loaded, (dict, type(None))):
            raise InputError(f"config root must be a mapping: {path}")
        _apply(cfg, loaded or {}, "")
    return cfg

