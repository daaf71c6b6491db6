"""Config overlay: unknown keys and value ranges."""

import dataclasses
import math
import re

import pytest

from xmc.config import ExperimentConfig, load_config
from xmc.errors import InputError


def test_defaults_are_in_range():
    load_config()


@pytest.mark.parametrize("overrides, message", [
    ({"contrastive": {"lr": -1.0}}, "contrastive.lr must be > 0, got -1.0"),
    ({"vision": {"lr": 0.0}}, "vision.lr must be > 0"),
    ({"contrastive": {"tau": 0.0}}, "contrastive.tau must be > 0"),
    ({"mi": {"n_seeds": 0}}, "mi.n_seeds must be an integer >= 1, got 0"),
    ({"eval": {"queue_sizes": [8, 0]}}, "eval.queue_sizes must be an integer >= 1, got 0"),
    ({"encoder_hidden": [32, 2.5]}, "encoder_hidden must be an integer >= 1, got 2.5"),
    ({"eval": {"fractions": [0.5, 0.0]}}, "eval.fractions must be in (0, 1], got 0.0"),
    ({"eval": {"fractions": [1.5]}}, "eval.fractions must be in (0, 1]"),
    ({"vision": {"holdout_fraction": 0.0}}, "vision.holdout_fraction must be in (0, 1]"),
    ({"mi": {"momentum": 1.0}}, "mi.momentum must be in [0, 1), got 1.0"),
    ({"eval": {"weight_decay": -1e-4}}, "eval.weight_decay must be >= 0"),
    ({"mi": {"rhos": [0.5, "x"]}}, "mi.rhos must be in (-1, 1), got 'x'"),
    ({"eval": {"fractions": []}}, "eval.fractions must not be empty"),
    ({"eval": {"queue_sizes": []}}, "eval.queue_sizes must not be empty"),
    ({"mi": {"rhos": []}}, "mi.rhos must not be empty"),
    ({"contrastive": {"tau": math.inf}}, "contrastive.tau must be finite and > 0, got inf"),
    ({"datagen": {"n": 7}}, "datagen.n must be an integer >= 20, got 7"),
    ({"datagen": {"n": 19}}, "datagen.n must be an integer >= 20, got 19"),
    ({"datagen": {"azimuth_bins": 1}}, "datagen.azimuth_bins must be an integer >= 2, got 1"),
    ({"datagen": {"vision_fraction": 0.8}}, "datagen.vision_fraction must be in [0, 0.8)"),
    ({"datagen": {"sigma_image": -0.1}}, "datagen.sigma_image must be >= 0, got -0.1"),
    ({"datagen": {"sigma_image": None}}, "datagen.sigma_image must be >= 0, got None"),
    ({"vision": {"mode": "imagenet"}},
     "vision.mode must be 'supervised' or 'random-frozen', got 'imagenet'"),
], ids=["negative-lr", "zero-lr", "zero-tau", "no-seeds", "zero-queue", "float-width",
        "zero-fraction", "fraction-above-1", "zero-holdout", "momentum-1",
        "negative-decay", "string-rho", "no-fractions", "no-queue-sizes", "no-rhos",
        "inf-tau", "n-7", "n-19", "one-azimuth-bin", "vision-fraction-0.8", "negative-sigma",
        "null-sigma-image", "vision-mode"])
def test_out_of_range_values_rejected(overrides, message):
    with pytest.raises(InputError, match=re.escape(message)):
        load_config(None, overrides)


def test_edges_of_the_ranges_are_accepted():
    load_config(None, {"vision": {"holdout_fraction": 1.0, "momentum": 0.0,
                                  "mode": "random-frozen"},
                       "eval": {"fractions": [1.0], "weight_decay": 0.0},
                       "mi": {"n_seeds": 1}, "seed": -1, "encoder_hidden": []})
    load_config(None, {"datagen": {"n": 20, "range_bins": 2, "image_width": 2,
                                   "vision_fraction": 0.0, "sigma_radar": None,
                                   "sigma_image": 0.0}})


def test_normalize_is_an_unknown_key():
    with pytest.raises(InputError, match="unknown config key: contrastive.normalize"):
        load_config(None, {"contrastive": {"normalize": True}})


def float_settings(obj=ExperimentConfig(), path=()):
    """(key path, is a list) of every float and list-of-float setting."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from float_settings(value, (*path, f.name))
        elif f.type in ("float", "float | None", "list[float]"):
            yield (*path, f.name), f.type == "list[float]"


FLOAT_SETTINGS = list(float_settings())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("setting", FLOAT_SETTINGS,
                         ids=[".".join(path) for path, _ in FLOAT_SETTINGS])
def test_every_float_setting_rejects_nan_and_infinities(setting, value):
    path, is_list = setting
    overlay = [value] if is_list else value
    for key in reversed(path):
        overlay = {key: overlay}
    with pytest.raises(InputError, match="must be finite and"):
        load_config(None, overlay)


@pytest.mark.parametrize("text, where", [
    (b"seed: [unclosed\n", "at line 2, column 1: expected ',' or ']', but got '<stream end>'"),
    (b"seed: 7\nname: \xff\xfe\n", "at byte 14: invalid start byte"),
    (b"abc\x07", "at byte 3: special characters are not allowed"),
    # PyYAML counts the two-byte characters once each; the message counts bytes
    ("name: éé\x07".encode(), "at byte 10: special characters are not allowed"),
], ids=["parser", "not-utf8", "control-character", "control-after-multibyte"])
def test_malformed_yaml_names_where_and_why(tmp_path, text, where):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(text)
    with pytest.raises(InputError, match=f"^{re.escape(f'malformed YAML in {bad} {where}')}$"):
        load_config(bad)
