"""Config overlay: unknown keys, value types and value ranges."""

import dataclasses
import functools
import math
import re
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmc.config import ExperimentConfig, load_config
from xmc.errors import InputError

from helpers import load_overlay


def test_defaults_are_in_range():
    """The defaults are not checked when no file is given, so they are
    checked here: overlaid on themselves, every one passes and is kept."""
    assert load_config() == ExperimentConfig()
    assert load_overlay(dataclasses.asdict(ExperimentConfig())) == ExperimentConfig()


@pytest.mark.parametrize("overlay, message", [
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
    ({"eval": {"fractions": [0.5, 0.5]}},
     "eval.fractions must not repeat a value, got [0.5, 0.5]"),
    ({"eval": {"fractions": [1, 0.5, 1.0]}},
     "eval.fractions must not repeat a value, got [1.0, 0.5, 1.0]"),
    ({"eval": {"queue_sizes": [8, 4, 8]}},
     "eval.queue_sizes must not repeat a value, got [8, 4, 8]"),
    ({"mi": {"rhos": [0.8, 0.8]}}, "mi.rhos must not repeat a value, got [0.8, 0.8]"),
    ({"contrastive": {"tau": math.inf}}, "contrastive.tau must be finite and > 0, got inf"),
    ({"datagen": {"n": 7}}, "datagen.n must be an integer >= 20, got 7"),
    ({"datagen": {"n": 19}}, "datagen.n must be an integer >= 20, got 19"),
    ({"datagen": {"azimuth_bins": 1}}, "datagen.azimuth_bins must be an integer >= 2, got 1"),
    ({"datagen": {"vision_fraction": 0.8}}, "datagen.vision_fraction must be in [0, 0.8)"),
    ({"datagen": {"sigma_image": -0.1}}, "datagen.sigma_image must be >= 0, got -0.1"),
    ({"datagen": {"sigma_image": None}}, "datagen.sigma_image must be >= 0, got None"),
    ({"vision": {"mode": "imagenet"}},
     "vision.mode must be 'supervised' or 'random-frozen', got 'imagenet'"),
    ({"contrastive": {"lr": True}}, "contrastive.lr must be > 0, got True"),
    ({"datagen": {"sigma_image": False}}, "datagen.sigma_image must be >= 0, got False"),
    ({"mi": {"n_seeds": True}}, "mi.n_seeds must be an integer >= 1, got True"),
    ({"contrastive": {"lr": 10**400}}, "contrastive.lr must be finite and > 0, got inf"),
    ({"mi": {"rhos": [-10**400]}}, "mi.rhos must be finite and in (-1, 1), got -inf"),
    ({"contrastive": {"tau": "x"}}, "contrastive.tau must be > 0, got 'x'"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"io": {"out_dir": 3}}, "io.out_dir must be a string, got 3"),
    ({"encoder_hidden": 32}, "encoder_hidden must be a list"),
    ({"eval": [0.5]}, "eval must be a mapping"),
], ids=["negative-lr", "zero-lr", "zero-tau", "no-seeds", "zero-queue", "float-width",
        "zero-fraction", "fraction-above-1", "zero-holdout", "momentum-1",
        "negative-decay", "string-rho", "no-fractions", "no-queue-sizes", "no-rhos",
        "repeated-fraction", "fraction-repeated-as-int", "repeated-queue-size",
        "repeated-rho",
        "inf-tau", "n-7", "n-19", "one-azimuth-bin", "vision-fraction-0.8", "negative-sigma",
        "null-sigma-image", "vision-mode", "true-lr", "false-sigma-image", "true-seeds",
        "huge-lr", "huge-rho", "string-tau", "float-seed", "integer-out-dir",
        "scalar-list", "list-section"])
def test_out_of_range_values_rejected(overlay, message):
    with pytest.raises(InputError, match=re.escape(message)):
        load_overlay(overlay)


def test_edges_of_the_ranges_are_accepted():
    load_overlay({"vision": {"holdout_fraction": 1.0, "momentum": 0.0,
                             "mode": "random-frozen"},
                  "eval": {"fractions": [1.0], "weight_decay": 0.0},
                  "mi": {"n_seeds": 1}, "seed": -1, "encoder_hidden": []})
    # the widths of the hidden layers are no sweep axis: they may repeat
    assert load_overlay({"encoder_hidden": [32, 32]}).encoder_hidden == [32, 32]
    load_overlay({"datagen": {"n": 20, "range_bins": 2, "image_width": 2,
                              "vision_fraction": 0.0, "sigma_radar": None,
                              "sigma_image": 0.0}})


def test_integer_entries_of_float_lists_are_read_as_floats():
    """So the sweep CSVs spell them as floats, and the arm seeds derive from
    their float spelling."""
    cfg = load_overlay({"eval": {"fractions": [1]}, "mi": {"rhos": [0]}, "vision": {"lr": 1}})
    assert (cfg.eval.fractions, cfg.mi.rhos, cfg.vision.lr) == ([1.0], [0.0], 1.0)
    assert {type(v) for v in (*cfg.eval.fractions, *cfg.mi.rhos, cfg.vision.lr)} == {float}


def test_normalize_is_an_unknown_key():
    with pytest.raises(InputError, match="unknown config key: contrastive.normalize"):
        load_overlay({"contrastive": {"normalize": True}})


def all_settings(obj=ExperimentConfig(), path=()):
    """(key path, annotation) of every setting."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from all_settings(value, (*path, f.name))
        else:
            yield (*path, f.name), f.type


def nested(path: tuple, value) -> dict:
    """The overlay that sets the setting at ``path`` to ``value``."""
    for key in reversed(path):
        value = {key: value}
    return value


SETTINGS = list(all_settings())
FLOAT_SETTINGS = [(path, kind == "list[float]") for path, kind in SETTINGS
                  if kind in ("float", "float | None", "list[float]")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("setting", FLOAT_SETTINGS,
                         ids=[".".join(path) for path, _ in FLOAT_SETTINGS])
def test_every_float_setting_rejects_nan_and_infinities(setting, value):
    path, is_list = setting
    with pytest.raises(InputError, match="must be finite and"):
        load_overlay(nested(path, [value] if is_list else value))


def flow_yaml(path: tuple, text: str) -> str:
    """YAML flow text that sets the setting at ``path`` to the scalar ``text``."""
    for key in reversed(path):
        text = f"{{{key}: {text}}}"
    return text + "\n"


# 0.5, in the range of every float setting, spelled with an exponent that YAML 1.1
# does not read: no dot, or an exponent without a sign
EXPONENT_SPELLINGS = ["5e-1", "5E-1", "+5e-1", "5e-01", "0.05e1", ".05e1"]


@pytest.mark.parametrize("spelling", EXPONENT_SPELLINGS)
@pytest.mark.parametrize("setting", FLOAT_SETTINGS,
                         ids=[".".join(path) for path, _ in FLOAT_SETTINGS])
def test_every_float_setting_reads_a_plain_exponent_as_a_float(tmp_path, setting, spelling):
    """YAML 1.1 reads 5e-1 (no dot, or an unsigned exponent) as a string;
    the config reads it as YAML 1.2 and JSON do."""
    path, is_list = setting
    config = tmp_path / "c.yaml"
    config.write_text(flow_yaml(path, f"[{spelling}]" if is_list else spelling))
    stored = functools.reduce(getattr, path, load_config(config))
    assert stored == ([0.5] if is_list else 0.5)
    assert {type(v) for v in (stored if is_list else [stored])} == {float}


@pytest.mark.parametrize("quote", ["'", '"'], ids=["single", "double"])
@pytest.mark.parametrize("setting", FLOAT_SETTINGS,
                         ids=[".".join(path) for path, _ in FLOAT_SETTINGS])
def test_every_float_setting_refuses_a_quoted_number_as_text(tmp_path, setting, quote):
    path, is_list = setting
    config = tmp_path / "c.yaml"
    text = f"{quote}5e-1{quote}"
    config.write_text(flow_yaml(path, f"[{text}]" if is_list else text))
    with pytest.raises(InputError, match=re.escape(
            f"{'.'.join(path)} must be ") + r".*, got '5e-1' \(text, not a number\)$"):
        load_config(config)


def test_a_json_config_with_exponent_floats_loads(tmp_path):
    """A JSON overlay, as perfbench writes and a manifest's config would be
    dumped, spells small and large floats with an exponent."""
    config = tmp_path / "c.json"
    config.write_text('{"eval": {"lr": 1e-05}, "contrastive": {"lr": 1E-2, "tau": 7e-2},'
                      ' "datagen": {"sigma_radar": 1e+20}, "mi": {"rhos": [-9e-1, 0]}}')
    cfg = load_config(config)
    assert (cfg.eval.lr, cfg.contrastive.lr, cfg.contrastive.tau) == (1e-05, 0.01, 0.07)
    assert cfg.datagen.sigma_radar == 1e+20 and cfg.mi.rhos == [-0.9, 0.0]


@pytest.mark.parametrize("text, message", [
    ("io: {out_dir: 1e3}\n", "io.out_dir must be a string, got 1000.0"),
    ("io: {out_dir: '1e3'}\n", None),
    ("seed: 7e0\n", "seed must be an integer, got 7.0"),
    ("mi: {n_seeds: '3'}\n", "mi.n_seeds must be an integer >= 1, got '3' (text, not a number)"),
    ("eval: {lr: 1e-3x}\n", "eval.lr must be > 0, got '1e-3x' (text, not a number)"),
    ("eval: {lr: 1e3_0}\n", "eval.lr must be > 0, got '1e3_0' (text, not a number)"),
    ("vision: {mode: 1e3}\n",
     "vision.mode must be 'supervised' or 'random-frozen', got 1000.0"),
], ids=["plain-out-dir", "quoted-out-dir", "exponent-seed", "quoted-count", "trailing-letter",
        "underscore-in-exponent", "exponent-mode"])
def test_exponent_scalars_outside_float_settings(tmp_path, text, message):
    """A plain exponent is a float wherever it appears, so a string setting
    refuses it unquoted and takes it quoted; a scalar that is not a YAML 1.2
    float stays text."""
    config = tmp_path / "c.yaml"
    config.write_text(text)
    if message is None:
        assert load_config(config).io.out_dir == "1e3"
    else:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_config(config)


# Each setting's range as the README's Configuration section states it; every
# other setting annotated as an integer is a count, >= 1.
IN_RANGE = {
    **dict.fromkeys(("lr", "tau"), lambda v: v > 0),
    **dict.fromkeys(("weight_decay", "sigma_radar", "sigma_image"), lambda v: v >= 0),
    "momentum": lambda v: 0 <= v < 1,
    **dict.fromkeys(("holdout_fraction", "fractions"), lambda v: 0 < v <= 1),
    "rhos": lambda v: -1 < v < 1,
    "vision_fraction": lambda v: 0 <= v < 0.8,
    "mode": lambda v: v in ("supervised", "random-frozen"),
    **dict.fromkeys(("seed", "out_dir"), lambda v: True),
    "n": lambda v: v >= 20,
    **dict.fromkeys(("range_bins", "azimuth_bins", "image_height", "image_width"),
                    lambda v: v >= 2),
}


def stored_as(kind: str, name: str, drawn, stored) -> bool:
    """Whether ``stored`` is ``drawn`` read as a value of the annotation
    ``kind``, within the range of the setting ``name``."""
    if kind.startswith("list["):
        # every list but encoder_hidden is a sweep axis: not empty, no value twice
        return (type(drawn) is list and len(stored) == len(drawn)
                and (name == "encoder_hidden" or 0 < len(set(stored)) == len(stored))
                and all(stored_as(kind[5:-1], name, d, s) for d, s in zip(drawn, stored)))
    if kind == "float | None" and drawn is None:
        return stored is None
    kind = kind.removesuffix(" | None")
    if kind == "float":
        return (type(drawn) in (int, float) and type(stored) is float
                and math.isfinite(stored) and stored == float(drawn)
                and IN_RANGE[name](stored))
    return (type(drawn) is type(stored) is {"int": int, "str": str}[kind]
            and stored == drawn and IN_RANGE.get(name, lambda v: v >= 1)(stored))


# Off-type and edge values: booleans, strings, None, mappings, NaN and
# infinities, integers too large for a float, and the ends of the ranges.
SCALARS = st.one_of(
    st.booleans(), st.none(), st.text(string.ascii_letters + "-. ", max_size=8),
    st.sampled_from(["supervised", "random-frozen", "1.0", ""]),
    st.integers(-2**64, 2**64), st.sampled_from([0, 1, 2, 19, 20, 10**400, -10**400]),
    st.floats(), st.sampled_from([0.0, 0.8, 1.0, -1.0, 5e-324, math.nan, math.inf]),
    st.dictionaries(st.sampled_from(["lr", "n"]), st.integers(0, 3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SETTINGS), st.one_of(SCALARS, st.lists(SCALARS, max_size=3)))
@example((("contrastive", "lr"), "float"), True)
@example((("datagen", "sigma_image"), "float"), False)
@example((("contrastive", "lr"), "float"), 10**400)
@example((("eval", "fractions"), "list[float]"), [1])
def test_every_setting_is_stored_as_its_annotation_in_range_or_refused(setting, value):
    """``load_config`` stores a value of the annotated type within its range,
    or raises InputError; it never raises anything else."""
    path, kind = setting
    try:
        cfg = load_overlay(nested(path, value))
    except InputError:
        return
    assert stored_as(kind, path[-1], value, functools.reduce(getattr, path, cfg))


@pytest.mark.parametrize("text, where", [
    (b"seed: [unclosed\n", " at line 2, column 1: expected ',' or ']', but got '<stream end>'"),
    (b"seed: 7\nname: \xff\xfe\n", " at byte 14: invalid start byte"),
    (b"abc\x07", " at byte 3: special characters are not allowed"),
    # PyYAML counts the two-byte characters once each; the message counts bytes
    ("name: éé\x07".encode(), " at byte 10: special characters are not allowed"),
    # a scalar that parses but fails to construct, or nesting deeper than
    # PyYAML's recursion can follow: PyYAML raises ValueError or RecursionError
    (b"seed: 2020-13-45\n", ": month must be in 1..12"),
    # without Python's advice to call sys.set_int_max_str_digits(), which a
    # config file cannot act on
    (b"seed: 1" + b"0" * 5000 + b"\n",
     ": Exceeds the limit (4300 digits) for integer string conversion: value has 5001"
     " digits"),
    (b"seed: " + b"[" * 5000 + b"]" * 5000 + b"\n",
     ": nesting too deep"),
], ids=["parser", "not-utf8", "control-character", "control-after-multibyte", "bad-date",
        "integer-too-long", "nesting-too-deep"])
def test_malformed_yaml_names_where_and_why(tmp_path, text, where):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(text)
    with pytest.raises(InputError, match=f"^{re.escape(f'malformed YAML in {bad}{where}')}$"):
        load_config(bad)


def test_too_deep_nesting_reads_the_same_at_any_stack_depth(tmp_path):
    """Python's RecursionError text gains or loses a tail with the caller's
    stack depth; the message does not."""
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: " + "[" * 5000 + "]" * 5000 + "\n")

    def message_at(depth: int) -> str:
        if depth:
            return message_at(depth - 1)
        with pytest.raises(InputError) as err:
            load_config(bad)
        return str(err.value)

    assert {message_at(depth) for depth in range(4)} == {
        f"malformed YAML in {bad}: nesting too deep"}
