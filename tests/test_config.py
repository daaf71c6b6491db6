"""Config overlay: unknown keys and value ranges."""

import pytest

from xmc.config import load_config
from xmc.errors import ConfigError


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
], ids=["negative-lr", "zero-lr", "zero-tau", "no-seeds", "zero-queue", "float-width",
        "zero-fraction", "fraction-above-1", "zero-holdout", "momentum-1",
        "negative-decay", "string-rho", "no-fractions", "no-queue-sizes", "no-rhos"])
def test_out_of_range_values_rejected(overrides, message):
    with pytest.raises(ConfigError) as err:
        load_config(None, overrides)
    assert message in str(err.value)


def test_edges_of_the_ranges_are_accepted():
    load_config(None, {"vision": {"holdout_fraction": 1.0, "momentum": 0.0},
                       "eval": {"fractions": [1.0], "weight_decay": 0.0},
                       "mi": {"n_seeds": 1}, "seed": -1, "encoder_hidden": []})


def test_normalize_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key: contrastive.normalize"):
        load_config(None, {"contrastive": {"normalize": True}})
