"""Command-line pipeline tests on a miniature configuration."""

import argparse
import concurrent.futures
import csv
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
import yaml

from xmc import cli, datagen
from xmc.cli import main
from xmc.errors import InputError, NumericError, XmcError
from xmc.models import init_encoder, load_checkpoint, save_checkpoint
from xmc.runio import sha256_file

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_YAML = """
seed: 5
embed_dim: 16
encoder_hidden: [32]
datagen:
  n: 160
vision:
  epochs: 8
  batch_size: 8
contrastive:
  queue_size: 16
  batch_size: 8
  epochs: 3
eval:
  fractions: [0.5, 1.0]
  queue_sizes: [4, 8]
  n_seeds: 2
  probe_epochs: 4
  finetune_epochs: 2
  baseline_epochs: 2
mi:
  rhos: [0.0, 0.8]
  queue_size: 32
  pair_count: 1024
  batch_size: 64
  epochs: 4
  n_seeds: 2
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.yaml"
    cfg.write_text(TINY_YAML)
    return root


# TINY_YAML's split bytes: after the 26-byte header and its 160 class bytes
SPLIT_BYTES = range(26 + 160, 26 + 2 * 160)


def run(workdir, *argv) -> int:
    return main([*argv, "--config", str(workdir / "tiny.yaml"),
                 "--out", str(workdir / "out")])


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Generate data, teacher and encoder once for the command tests."""
    assert run(workdir, "gen-data") == 0
    assert run(workdir, "pretrain-vision") == 0
    assert run(workdir, "pretrain") == 0
    return workdir / "out"


class TestGenData:
    def test_header_matches_config(self, pipeline):
        blob = (pipeline / "dataset.xmcd").read_bytes()
        assert blob[:4] == b"XMCD"
        version, r, a, h, w, n = struct.unpack("<H5I", blob[4:26])
        assert (version, r, a, h, w, n) == (3, 32, 32, 32, 32, 160)

    def test_manifest_records_hashes(self, pipeline):
        """The dataset file's sha256 is the manifest's one hash of its content."""
        manifest = json.loads((pipeline / "gen-data.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["metrics"] == {"n": 160}
        for path, digest in manifest["outputs"].items():
            assert sha256_file(path) == digest

    def test_refuses_overwrite_without_force(self, workdir):
        assert run(workdir, "gen-data") == 1
        assert run(workdir, "gen-data", "--force") == 0

    def test_missing_input_exits_2(self, workdir, tmp_path):
        code = main(["pretrain", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "empty")])
        assert code == 2

    def test_bad_config_exits_3(self, workdir, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("contrastive:\n  queue_sizze: 8\n")
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_malformed_yaml_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [unclosed\n")
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(bad) in err and "line 2, column 1" in err

    @pytest.mark.parametrize("text, reason", [
        ("seed: 2020-13-45\n", "month must be in 1..12"),
        ("seed: 1" + "0" * 5000 + "\n", "Exceeds the limit (4300 digits)"),
        ("seed: " + "[" * 5000 + "]" * 5000 + "\n", "nesting too deep"),
    ], ids=["bad-date", "integer-too-long", "nesting-too-deep"])
    def test_yaml_that_fails_to_construct_exits_3(self, tmp_path, capsys, text,
                                                  reason):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"xmc gen-data: malformed YAML in {bad}: {reason}")
        assert "set_int_max_str_digits" not in err

    def test_yaml_that_is_not_utf8_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "latin.yaml"
        bad.write_bytes(b"seed: 7\nname: \xff\xfe\n")
        code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == f"xmc gen-data: malformed YAML in {bad} at byte 14: invalid start byte\n"


class TestExitCodes:
    def one_line(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_holdout_taking_the_whole_vision_split_exits_3(self, workdir, tmp_path,
                                                            capsys):
        cfg = tmp_path / "hold.yaml"
        cfg.write_text(TINY_YAML.replace("vision:\n", "vision:\n  holdout_fraction: 1.0\n"))
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(["gen-data", *args]) == 0
        capsys.readouterr()
        assert main(["pretrain-vision", *args]) == 3
        assert "none are left to fit" in self.one_line(capsys)

    def test_one_sample_vision_split_exits_3(self, workdir, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--config", str(workdir / "tiny.yaml"), "--out", str(out)]
        assert main(["gen-data", *args]) == 0
        data = out / "dataset.xmcd"
        blob = bytearray(data.read_bytes())
        # all but one vision sample (split byte 1) go to contrastive (2)
        vision = [at for at in SPLIT_BYTES if blob[at] == 1]
        for at in vision[1:]:
            blob[at] = 2
        data.write_bytes(blob)
        capsys.readouterr()
        assert main(["pretrain-vision", *args]) == 3
        assert "takes all 1 samples" in self.one_line(capsys)

    def test_empty_vision_split_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "novision.yaml"
        cfg.write_text(TINY_YAML.replace("datagen:\n", "datagen:\n  vision_fraction: 0.0\n"))
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(["gen-data", *args]) == 0
        capsys.readouterr()
        assert main(["pretrain-vision", *args]) == 3
        assert "the vision split is empty" in self.one_line(capsys)

    @pytest.mark.parametrize("flag", ["0", "-2"], ids=["flag-0", "flag-negative"])
    def test_jobs_below_one_exits_3(self, pipeline, workdir, tmp_path, capsys,
                                    monkeypatch, flag):
        """A pool of fewer than one process is refused before any input is
        read, rather than silently run serially."""
        monkeypatch.setattr(datagen, "load_dataset", lambda path: pytest.fail("data loaded"))
        inputs = ["--data", str(pipeline / "dataset.xmcd"),
                  "--vision", str(pipeline / "vision.xmck")]
        for command, args in (("sweep-labels", inputs), ("sweep-k", inputs),
                              ("estimate-mi", [])):
            out = tmp_path / command
            assert main([command, "--config", str(workdir / "tiny.yaml"),
                         "--out", str(out), *args, "--jobs", flag]) == 3
            assert f"--jobs must be at least 1, got {flag}" in self.one_line(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("flag", ["0", "-0.5", "1.5", "nan"])
    def test_fraction_outside_0_1_exits_3(self, pipeline, workdir, tmp_path, capsys,
                                          monkeypatch, flag):
        """A label fraction outside (0, 1], NaN included, is refused before any
        input is read, as --jobs is."""
        monkeypatch.setattr(datagen, "load_dataset", lambda path: pytest.fail("data loaded"))
        data = ["--data", str(pipeline / "dataset.xmcd")]
        for command, args in (("probe", [*data, "--encoder", str(pipeline / "radio.xmck")]),
                              ("finetune", [*data, "--encoder", str(pipeline / "radio.xmck")]),
                              ("baseline", data)):
            out = tmp_path / command
            assert main([command, "--config", str(workdir / "tiny.yaml"),
                         "--out", str(out), *args, "--fraction", flag]) == 3
            assert self.one_line(capsys) == (
                f"xmc {command}: --fraction must be in (0, 1], got {float(flag)}\n")
            assert not out.exists()

    @pytest.mark.parametrize("command, overlay, why", [
        ("gen-data", {"datagen": {"range_bins": 10**20}}, "Maximum allowed dimension exceeded"),
        ("gen-data", {"datagen": {"range_bins": 2**31 - 1, "azimuth_bins": 2**31 - 1}},
         "array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum "
         "possible size."),
        ("estimate-mi", {"mi": {"embed_dim": 10**20}}, "Maximum allowed dimension exceeded"),
    ], ids=["range-bins", "grid", "mi-embed-dim"])
    def test_a_count_too_large_to_size_an_array_exits_1(self, tmp_path, capsys, command,
                                                         overlay, why):
        """numpy refuses to size the array before it allocates anything: the
        same failed allocation as a MemoryError, and the same one line."""
        cfg = yaml.safe_load(TINY_YAML)
        for section, values in overlay.items():
            cfg[section].update(values)
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert self.one_line(capsys) == (
            f"xmc {command}: cannot allocate an array that large ({why})\n")

    def test_version_1_checkpoint_exits_3(self, pipeline, workdir, tmp_path, capsys):
        blob = (pipeline / "radio.xmck").read_bytes()
        old = tmp_path / "old.xmck"
        old.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:] + b"\x00")
        capsys.readouterr()
        code = main(["probe", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"),
                     "--data", str(pipeline / "dataset.xmcd"), "--encoder", str(old)])
        assert code == 3
        assert "unsupported checkpoint version 1" in self.one_line(capsys)

    def test_oversized_dataset_header_exits_3(self, workdir, tmp_path, capsys):
        data = tmp_path / "d.xmcd"
        data.write_bytes(b"XMCD" + struct.pack("<H5I", 3, 32, 32, 32, 32, 2**32 - 1))
        capsys.readouterr()
        code = main(["pretrain-vision", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(data)])
        assert code == 3
        assert "dataset file truncated" in self.one_line(capsys)

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: b"NOPE" + blob[4:], "bad magic"),
        (lambda blob: blob[:-1], "dataset file truncated"),
        (lambda blob: blob + b"\x00", "trailing bytes"),
        # the first sample's class id and split byte; the file keeps its length
        (lambda blob: blob[:26] + b"\xff" + blob[27:], "class id"),
        (lambda blob: blob[:SPLIT_BYTES[0]] + b"\x03" + blob[SPLIT_BYTES[0] + 1:],
         "split byte above 2"),
        (lambda blob: blob[:4] + struct.pack("<H", 1) + blob[6:],
         "unsupported dataset version 1"),
        (lambda blob: blob[:4] + struct.pack("<H", 2) + blob[6:],
         "unsupported dataset version 2"),
    ], ids=["magic", "truncated", "trailing", "class-id", "split-byte", "version-1",
            "version-2"])
    def test_sweep_labels_checks_the_file_before_the_pool(
            self, pipeline, workdir, tmp_path, capsys, monkeypatch, damage, message):
        (tmp_path / "d.xmcd").write_bytes(damage((pipeline / "dataset.xmcd").read_bytes()))
        monkeypatch.setattr(cli, "_map_arms", lambda *a: pytest.fail("pool started"))
        capsys.readouterr()
        code = main(["sweep-labels", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(tmp_path / "d.xmcd"),
                     "--vision", str(pipeline / "vision.xmck")])
        assert code == 3
        assert message in self.one_line(capsys)

    @pytest.mark.parametrize("tag, name", [(0, "test"), (2, "contrastive")])
    @pytest.mark.parametrize("command", ["probe", "baseline", "sweep-labels"])
    def test_an_empty_test_or_contrastive_split_exits_3(
            self, pipeline, workdir, tmp_path, capsys, command, tag, name):
        """Every sample of the split moved to the vision split. Without the
        load's check these commands end in a ZeroDivisionError traceback, or,
        with no test sample, sweep-labels in NaN accuracies."""
        blob = bytearray((pipeline / "dataset.xmcd").read_bytes())
        for at in SPLIT_BYTES:
            blob[at] = 1 if blob[at] == tag else blob[at]
        (tmp_path / "d.xmcd").write_bytes(blob)
        inputs = {"probe": ["--encoder", str(pipeline / "radio.xmck")], "baseline": [],
                  "sweep-labels": ["--vision", str(pipeline / "vision.xmck")]}[command]
        capsys.readouterr()
        code = main([command, "--config", str(workdir / "tiny.yaml"), "--out",
                     str(tmp_path / "o"), "--data", str(tmp_path / "d.xmcd"), *inputs])
        assert code == 3
        assert self.one_line(capsys) == f"xmc {command}: dataset file has no {name} samples\n"

    @pytest.mark.parametrize("command, key, value, message", [
        ("estimate-mi", ("mi", "n_seeds"), 0, "mi.n_seeds must be an integer >= 1"),
        ("pretrain", ("contrastive", "lr"), -1.0, "contrastive.lr must be > 0"),
        ("pretrain", ("contrastive", "normalize"), True,
         "unknown config key: contrastive.normalize"),
        ("gen-data", ("datagen", "sigma_image"), float("nan"),
         "sigma_image must be finite and >= 0, got nan"),
        ("gen-data", ("datagen", "sigma_radar"), float("nan"),
         "sigma_radar must be finite and >= 0, got nan"),
        ("gen-data", ("datagen", "sigma_image"), float("inf"),
         "sigma_image must be finite and >= 0, got inf"),
        ("gen-data", ("datagen", "sigma_radar"), float("inf"),
         "sigma_radar must be finite and >= 0, got inf"),
        ("sweep-k", ("eval", "queue_sizes"), [], "eval.queue_sizes must not be empty"),
        ("sweep-labels", ("eval", "fractions"), [], "eval.fractions must not be empty"),
        ("estimate-mi", ("mi", "rhos"), [], "mi.rhos must not be empty"),
        ("sweep-labels", ("eval", "fractions"), [0.5, 0.5],
         "eval.fractions must not repeat a value, got [0.5, 0.5]"),
        ("estimate-mi", ("mi", "rhos"), [0.8, 0.8],
         "mi.rhos must not repeat a value, got [0.8, 0.8]"),
        ("pretrain", ("contrastive", "tau"), float("inf"),
         "contrastive.tau must be finite and > 0, got inf"),
        ("pretrain", ("contrastive", "lr"), float("inf"),
         "contrastive.lr must be finite and > 0, got inf"),
        ("probe", ("eval", "weight_decay"), float("inf"),
         "eval.weight_decay must be finite and >= 0, got inf"),
        ("gen-data", ("vision", "mode"), "imagenet",
         "vision.mode must be 'supervised' or 'random-frozen', got 'imagenet'"),
        ("pretrain", ("contrastive", "lr"), True, "contrastive.lr must be > 0, got True"),
        ("gen-data", ("datagen", "sigma_image"), False,
         "datagen.sigma_image must be >= 0, got False"),
        ("pretrain", ("contrastive", "lr"), 10**400,
         "contrastive.lr must be finite and > 0, got inf"),
    ], ids=["no-mi-seeds", "negative-lr", "normalize", "nan-sigma-image", "nan-sigma-radar",
            "inf-sigma-image", "inf-sigma-radar", "no-queue-sizes", "no-fractions",
            "no-rhos", "repeated-fraction", "repeated-rho", "inf-tau", "inf-lr", "inf-weight-decay", "vision-mode", "true-lr",
            "false-sigma-image", "huge-lr"])
    def test_bad_config_value_exits_3(self, tmp_path, capsys, command, key, value,
                                      message):
        overlay = yaml.safe_load(TINY_YAML)
        overlay[key[0]][key[1]] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(overlay))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert message in self.one_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("pretrain-vision", "--data"), ("pretrain", "--vision"), ("probe", "--encoder"),
        ("gen-data", "--config")])
    def test_directory_as_input_exits_2(self, pipeline, workdir, tmp_path, capsys,
                                        command, flag):
        argv = [command, "--config", str(workdir / "tiny.yaml"), "--out", str(tmp_path / "o")]
        if command != "gen-data":
            argv += ["--data", str(pipeline / "dataset.xmcd")]
        argv += [flag, str(tmp_path)]  # the last of a repeated flag wins
        capsys.readouterr()
        assert main(argv) == 2
        assert f"required input is not a readable file: {tmp_path}" in self.one_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    def test_out_that_is_not_a_directory_exits_1_before_the_body(
            self, workdir, tmp_path, capsys, monkeypatch, below):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(cli, "_map_arms", lambda *a: pytest.fail("body ran"))
        out = taken / "o" if below else taken
        capsys.readouterr()
        assert main(["estimate-mi", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(out)]) == 1
        assert f"{taken} is not a directory" in self.one_line(capsys)

    def test_overwrite_is_refused_before_inputs_are_loaded(self, pipeline, workdir,
                                                           tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "projection.csv").write_text("x,y,class\n")
        junk = tmp_path / "junk.xmck"
        junk.write_bytes(b"not a checkpoint")
        code = main(["project", "--config", str(workdir / "tiny.yaml"), "--out", str(out),
                     "--data", str(pipeline / "dataset.xmcd"), "--encoder", str(junk)])
        assert code == 1


    @pytest.mark.parametrize("command", ["probe", "finetune", "project"])
    def test_encoder_of_the_wrong_width_exits_3(self, pipeline, workdir, tmp_path,
                                                capsys, monkeypatch, command):
        narrow = tmp_path / "narrow.xmck"
        save_checkpoint(narrow, init_encoder([100, 8], seed=0))

        def no_forward(*args, **kwargs):
            raise AssertionError("the encoder ran before its width was checked")

        monkeypatch.setattr("xmc.models.EncoderModel.forward", no_forward)
        capsys.readouterr()
        code = main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"),
                     "--data", str(pipeline / "dataset.xmcd"), "--encoder", str(narrow)])
        assert code == 3
        line = self.one_line(capsys)
        assert str(narrow) in line
        assert "takes 100 inputs, but the heatmaps have 1024" in line

    @pytest.mark.parametrize("dims, message", [
        ([100, 16], "takes 100 inputs, but the images have 1024 (H·W) pixels"),
        ([1024, 8], "embeds to 8, not embed_dim 16"),
    ], ids=["input-width", "embed-dim"])
    def test_mismatched_vision_checkpoint_exits_3_before_encoding_keys(
            self, pipeline, workdir, tmp_path, capsys, monkeypatch, dims, message):
        vision = tmp_path / "vision.xmck"
        teacher = init_encoder(dims, seed=0)
        teacher.freeze()
        save_checkpoint(vision, teacher)

        def no_encoding(*args, **kwargs):
            raise AssertionError("keys were encoded before the checkpoint was checked")

        monkeypatch.setattr("xmc.contrastive.encode_keys", no_encoding)
        capsys.readouterr()
        code = main(["pretrain", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"),
                     "--data", str(pipeline / "dataset.xmcd"), "--vision", str(vision)])
        assert code == 3
        assert self.one_line(capsys) == f"xmc pretrain: vision checkpoint {vision} {message}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_checkpoint_parameter_exits_3(self, pipeline, workdir, tmp_path,
                                                      capsys, value):
        encoder = load_checkpoint(pipeline / "radio.xmck")
        encoder.data[7] = value
        bad = tmp_path / "bad.xmck"
        save_checkpoint(bad, encoder)
        capsys.readouterr()
        code = main(["project", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"),
                     "--data", str(pipeline / "dataset.xmcd"), "--encoder", str(bad)])
        assert code == 3
        assert "checkpoint has a non-finite parameter" in self.one_line(capsys)

    def test_vision_checkpoint_embedding_to_zero_exits_4(self, pipeline, workdir,
                                                         tmp_path, capsys):
        vision = init_encoder([1024, 16], seed=0)
        vision.freeze()
        vision.data[:] = 0.0
        path = tmp_path / "vision.xmck"
        save_checkpoint(path, vision)
        capsys.readouterr()
        code = main(["pretrain", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"),
                     "--data", str(pipeline / "dataset.xmcd"), "--vision", str(path)])
        assert code == 4
        assert "embeds image 0 to a vector of norm 0.0" in self.one_line(capsys)

    @pytest.mark.parametrize("command", ["pretrain", "sweep-k", "sweep-labels"])
    def test_a_radio_checkpoint_as_the_vision_teacher_exits_3(self, pipeline, workdir,
                                                               tmp_path, capsys, command):
        """The radio encoder takes the 1024 pixels of an image too; its frozen
        flag of 0 is what tells it from the teacher."""
        radio = pipeline / "radio.xmck"
        capsys.readouterr()
        code = main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(pipeline / "dataset.xmcd"),
                     "--vision", str(radio)])
        assert code == 3
        assert self.one_line(capsys) == (
            f"xmc {command}: vision checkpoint {radio} is not a frozen vision teacher\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["probe", "finetune", "project"])
    def test_the_vision_teacher_as_the_encoder_exits_3(self, pipeline, workdir, tmp_path,
                                                       capsys, command):
        """The teacher takes 1024 inputs, as many as a heatmap has bins; without
        the check it would encode the heatmaps."""
        vision = pipeline / "vision.xmck"
        capsys.readouterr()
        code = main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(pipeline / "dataset.xmcd"),
                     "--encoder", str(vision)])
        assert code == 3
        assert self.one_line(capsys) == (
            f"xmc {command}: encoder checkpoint {vision} is a frozen vision teacher\n")

    @pytest.mark.parametrize("command, role", [("probe", "data"), ("pretrain", "vision"),
                                               ("finetune", "encoder")])
    def test_an_input_replaced_after_it_was_hashed_exits_3(
            self, pipeline, workdir, tmp_path, capsys, monkeypatch, command, role):
        """The file is renamed over, as gen-data --force does, right after the
        driver hashed it: the body would load a file the manifest never named."""
        inputs = {"data": tmp_path / "d.xmcd", "vision": tmp_path / "v.xmck",
                  "encoder": tmp_path / "r.xmck"}
        for name, source in (("data", "dataset.xmcd"), ("vision", "vision.xmck"),
                             ("encoder", "radio.xmck")):
            shutil.copyfile(pipeline / source, inputs[name])
        real_hash = cli.sha256_file

        def hash_then_replace(path):
            digest = real_hash(path)
            if Path(path) == inputs[role]:
                shutil.copyfile(path, tmp_path / "new")
                os.replace(tmp_path / "new", path)  # the same bytes, another file
            return digest
        monkeypatch.setattr(cli, "sha256_file", hash_then_replace)
        flags = [arg for name in cli.SPECS[command].inputs
                 for arg in (f"--{name}", str(inputs[name]))]
        capsys.readouterr()
        assert main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), *flags]) == 3
        assert self.one_line(capsys) == (
            f"xmc {command}: {cli.INPUTS[role][1]} {inputs[role]} changed after it was "
            "hashed\n")
        assert not (tmp_path / "o").exists()

    def test_a_dataset_replaced_between_sweep_arms_exits_3(self, pipeline, workdir,
                                                           tmp_path, capsys, monkeypatch):
        """After the first arm, another dataset is renamed over the one the
        driver hashed. The second arm refuses it rather than train on a file
        the manifest does not name."""
        data = tmp_path / "d.xmcd"
        shutil.copyfile(pipeline / "dataset.xmcd", data)
        assert main(["gen-data", "--config", str(workdir / "tiny.yaml"), "--seed", "6",
                     "--out", str(tmp_path / "other")]) == 0
        from xmc import evaluation
        real_arm, arms = evaluation.label_sweep_seed, []

        def arm_then_replace(*args):
            rows = real_arm(*args)
            arms.append(rows)
            if len(arms) == 1:
                os.replace(tmp_path / "other" / "dataset.xmcd", data)
            return rows
        monkeypatch.setattr(evaluation, "label_sweep_seed", arm_then_replace)
        capsys.readouterr()
        code = main(["sweep-labels", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(data),
                     "--vision", str(pipeline / "vision.xmck"), "--jobs", "1"])
        assert (code, len(arms)) == (3, 1)
        assert self.one_line(capsys) == (
            f"xmc sweep-labels: dataset file {data} changed after it was hashed\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["probe", "project"])
    def test_a_test_split_without_a_class_exits_3(self, pipeline, workdir, tmp_path,
                                                  capsys, command):
        """Every test sample not of class `empty` moved to the contrastive
        split. Without the load's check, project prints NaN separation and
        probe scores 1.0 on the one class left."""
        blob = bytearray((pipeline / "dataset.xmcd").read_bytes())
        for i, at in enumerate(SPLIT_BYTES):
            if blob[at] == 0 and blob[26 + i] != 0:
                blob[at] = 2
        (tmp_path / "d.xmcd").write_bytes(blob)
        capsys.readouterr()
        code = main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(tmp_path / "d.xmcd"),
                     "--encoder", str(pipeline / "radio.xmck")])
        assert code == 3
        assert self.one_line(capsys) == (
            f"xmc {command}: dataset file has no test sample of class pedestrian\n")

    @pytest.mark.parametrize("command", ["probe", "finetune", "baseline", "project"])
    def test_nan_test_heatmap_exits_3(self, pipeline, workdir, tmp_path, capsys, command):
        """One NaN in the first test sample's heatmap is refused by the gather
        that reads it; without the check the first three wrote NaN test
        losses and exited 0."""
        blob = bytearray((pipeline / "dataset.xmcd").read_bytes())
        # the first test sample (split byte 0); the heatmaps follow the split bytes
        first = next(i for i, at in enumerate(SPLIT_BYTES) if blob[at] == 0)
        at = SPLIT_BYTES.stop + first * 8 * 32 * 32
        blob[at:at + 8] = struct.pack("<d", float("nan"))
        data = tmp_path / "nan.xmcd"
        data.write_bytes(blob)
        inputs = [] if command == "baseline" else ["--encoder", str(pipeline / "radio.xmck")]
        capsys.readouterr()
        code = main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(data), *inputs])
        assert code == 3
        assert self.one_line(capsys) == (
            f"xmc {command}: dataset file {data} has a non-finite value in row {first}\n")

    @pytest.mark.parametrize("command, code", [("probe", 3), ("project", 0)])
    def test_nan_contrastive_heatmap_stops_only_a_command_that_reads_it(
            self, pipeline, workdir, tmp_path, capsys, command, code):
        """A probe trains on the contrastive split and refuses the NaN;
        project gathers the test rows alone and writes its usual projection."""
        blob = bytearray((pipeline / "dataset.xmcd").read_bytes())
        row = next(i for i, at in enumerate(SPLIT_BYTES) if blob[at] == 2)
        at = SPLIT_BYTES.stop + row * 8 * 32 * 32
        blob[at:at + 8] = struct.pack("<d", float("nan"))
        data = tmp_path / "nan.xmcd"
        data.write_bytes(blob)
        def on(data, out):
            return main([command, "--config", str(workdir / "tiny.yaml"), "--out", str(out),
                         "--data", str(data), "--encoder", str(pipeline / "radio.xmck")])

        capsys.readouterr()
        assert on(data, tmp_path / "o") == code
        if code:
            assert self.one_line(capsys) == (
                f"xmc {command}: dataset file {data} has a non-finite value in row {row}\n")
        else:
            assert on(pipeline / "dataset.xmcd", tmp_path / "ref") == 0
            assert ((tmp_path / "o" / "projection.csv").read_bytes()
                    == (tmp_path / "ref" / "projection.csv").read_bytes())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.yaml"
        cfg.write_text(TINY_YAML.replace("vision:\n", "vision:\n  lr: 1.0e+300\n"))
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(["gen-data", *args]) == 0
        capsys.readouterr()
        assert main(["pretrain-vision", *args]) == 4
        assert "non-finite loss at epoch 0, sample" in self.one_line(capsys)
        assert not (tmp_path / "o" / "vision.xmck").exists()


def error_classes(cls=XmcError) -> list[type]:
    """Every subclass of ``cls``, recursively."""
    return [c for sub in cls.__subclasses__() for c in (sub, *error_classes(sub))]


ERROR_CLASSES = [XmcError, *error_classes()]

# Each class that was folded into another, with the class that now carries its
# errors and the exit code it had, so that the fold keeps every exit code.
FOLDED_CLASSES = {
    "ConfigError": (InputError, 3),
    "ContractError": (XmcError, 1),
    "DegenerateInputError": (NumericError, 4),
    "DimensionError": (InputError, 3),
    "DomainError": (InputError, 3),
    "FormatError": (InputError, 3),
    "OutputExistsError": (XmcError, 1),
    "StratificationError": (InputError, 3),
    "UsageError": (XmcError, 1),
}


class TestErrorClassExitCodes:
    def test_every_error_class_has_a_documented_code(self):
        rows = {line.split("|")[1].strip(): line
                for line in README.read_text().splitlines() if line.startswith("| ")}
        assert ({cls.__name__ for cls in ERROR_CLASSES}
                == {"XmcError", "InputError", "NumericError"})
        assert "`MemoryError`" in rows["1"]
        for cls in ERROR_CLASSES:
            assert "exit_code" in vars(cls), cls.__name__
            assert cls.exit_code in (1, 3, 4), cls.__name__
            assert f"`{cls.__name__}`" in rows[str(cls.exit_code)], cls.__name__

    @pytest.mark.parametrize("cls, code", [
        *(pytest.param(cls, cls.exit_code, id=cls.__name__) for cls in ERROR_CLASSES),
        *(pytest.param(cls, code, id=name)
          for name, (cls, code) in FOLDED_CLASSES.items()),
    ])
    def test_main_exits_with_the_class_code_and_one_line(self, monkeypatch, capsys,
                                                         cls, code):
        def fail(args, cfg):
            raise cls("it went wrong")

        monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
        assert main(["gen-data"]) == code
        assert capsys.readouterr().err == "xmc gen-data: it went wrong\n"

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 745. TiB for an array"),
         "Unable to allocate 745. TiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy", "bare"])
    def test_a_failed_allocation_exits_1_with_one_line(self, monkeypatch, capsys,
                                                       error, line):
        def fail(args, cfg):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
        assert main(["gen-data"]) == 1
        assert capsys.readouterr().err == f"xmc gen-data: {line}\n"

    def test_any_other_value_error_is_not_caught(self, monkeypatch):
        def fail(args, cfg):
            raise ValueError("a bug")

        monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
        with pytest.raises(ValueError, match="^a bug$"):
            main(["gen-data"])


def marked_arm(marks: str, i: int) -> int:
    """A sweep arm that leaves a marker file when it starts; arm 0 fails at
    once, and every other arm takes half a second."""
    Path(marks, str(i)).touch()
    if i == 0:
        raise InputError("arm 0 failed")
    time.sleep(0.5)
    return i


class TestSweepPool:
    def test_a_failed_arm_starts_no_further_arm(self, tmp_path):
        """An arm is submitted only when a worker is free, so no arm waits in
        the pool's queue: of seven arms at two jobs, only the two that were
        running when arm 0 failed ever start."""
        with pytest.raises(InputError, match="^arm 0 failed$"):
            cli._map_arms(marked_arm, [(str(tmp_path), i) for i in range(7)], 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1"]

    def test_pool_is_capped_at_the_arm_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert cli._map_arms(lambda x: 10 * x, [(1,), (2,)], 64) == [10, 20]
        arms = [(1, "a"), (2, "b")] * 2
        assert cli._map_arms(lambda x, y: y * x, arms, 3) == ["a", "bb", "a", "bb"]
        assert sizes == [2, 3]


COMMON_FLAGS = {"--config", "--seed", "--out", "--force"}
EXTRA_FLAGS = {
    "gen-data": set(),
    "pretrain-vision": {"--data"},
    "pretrain": {"--data", "--vision"},
    "probe": {"--data", "--encoder", "--fraction"},
    "finetune": {"--data", "--encoder", "--fraction"},
    "baseline": {"--data", "--fraction"},
    "sweep-k": {"--data", "--vision", "--jobs"},
    "sweep-labels": {"--data", "--vision", "--jobs"},
    "estimate-mi": {"--jobs"},
    "project": {"--data", "--encoder"},
}


class TestCommandTable:
    def test_one_distinct_function_per_command(self):
        assert set(cli.COMMANDS) == set(EXTRA_FLAGS)
        fns = list(cli.COMMANDS.values())
        assert all(isinstance(fn, types.FunctionType) for fn in fns)
        assert len(set(map(id, fns))) == len(fns)

    def test_main_looks_the_command_up_at_call_time(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "gen-data",
                            lambda args, cfg: seen.append(args.command) or 0)
        assert main(["gen-data"]) == 0
        assert seen == ["gen-data"]

    def test_each_command_has_exactly_its_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(EXTRA_FLAGS)
        for name, parser in sub.choices.items():
            flags = {opt for a in parser._actions for opt in a.option_strings}
            assert flags - {"-h", "--help"} == COMMON_FLAGS | EXTRA_FLAGS[name], name

    def test_flag_defaults(self):
        args = cli.build_parser().parse_args(["probe"])
        assert (args.fraction, args.data, args.encoder, args.force) == (1.0, None, None, False)
        assert cli.build_parser().parse_args(["sweep-k"]).jobs == 1


class TestDeterminism:
    def test_rerun_from_manifest_reproduces_outputs(self, pipeline, workdir, tmp_path):
        """Re-running a command with the manifest's resolved config gives
        byte-identical artifacts."""
        manifest = json.loads((pipeline / "pretrain.manifest.json").read_text())
        replay_cfg = tmp_path / "replay.yaml"
        replay_cfg.write_text(yaml.safe_dump(manifest["config"]))
        replay_out = tmp_path / "replay"
        assert main(["gen-data", "--config", str(replay_cfg),
                     "--out", str(replay_out)]) == 0
        assert main(["pretrain-vision", "--config", str(replay_cfg),
                     "--out", str(replay_out)]) == 0
        assert main(["pretrain", "--config", str(replay_cfg),
                     "--out", str(replay_out)]) == 0
        for name in ("dataset.xmcd", "vision.xmck", "radio.xmck",
                     "pretrain_metrics.csv"):
            assert (replay_out / name).read_bytes() == (pipeline / name).read_bytes()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestEvaluationCommands:
    def test_probe_and_curve(self, pipeline, workdir):
        """The result row holds the test accuracy alone; the curve is the
        mean train loss of each of the probe_epochs epochs."""
        assert run(workdir, "probe") == 0
        rows = (pipeline / "probe_result.csv").read_text().strip().split("\n")
        assert rows[0] == "mode,label_fraction,seed,test_accuracy"
        assert len(rows) == 2
        curve = (pipeline / "probe_curve.csv").read_text().strip().split("\n")
        assert curve[0] == "epoch,train_loss"
        assert len(curve) == 1 + 4  # header + probe_epochs
        (result,) = read_csv(pipeline / "probe_result.csv")
        assert result["mode"] == "linear-probe"
        assert 0.0 <= float(result["test_accuracy"]) <= 1.0
        points = read_csv(pipeline / "probe_curve.csv")
        assert [int(r["epoch"]) for r in points] == [0, 1, 2, 3]
        assert all(math.isfinite(float(r["train_loss"])) for r in points)

    def test_finetune_writes_checkpoint(self, pipeline, workdir):
        assert run(workdir, "finetune") == 0
        assert (pipeline / "radio_finetuned.xmck").read_bytes()[:4] == b"XMCK"
        (result,) = read_csv(pipeline / "finetune_result.csv")
        assert result["mode"] == "fine-tune"

    def test_baseline(self, pipeline, workdir):
        assert run(workdir, "baseline", "--fraction", "0.5") == 0
        text = (pipeline / "baseline_result.csv").read_text()
        assert "supervised-baseline" in text

    def test_project_emits_class_column(self, pipeline, workdir):
        assert run(workdir, "project") == 0
        rows = (pipeline / "projection.csv").read_text().strip().split("\n")
        assert rows[0] == "x,y,class"
        assert len(rows) == 1 + 32  # header + test split of 160*0.2
        assert rows[1].split(",")[2] in {"empty", "pedestrian", "cyclist", "car"}


class TestRandomFrozenTeacher:
    def test_reports_no_holdout_accuracy_and_feeds_pretrain_and_probe(
            self, pipeline, tmp_path, capsys):
        """The ablation teacher is never scored on a holdout: its manifest's
        metric is null and its report line says so. Pre-training and a probe
        then run on it as on a trained teacher."""
        cfg = tmp_path / "random-frozen.yaml"
        cfg.write_text(TINY_YAML.replace("vision:\n", "vision:\n  mode: random-frozen\n"))
        out = tmp_path / "o"
        args = ["--config", str(cfg), "--out", str(out), "--data", str(pipeline / "dataset.xmcd")]
        capsys.readouterr()
        assert main(["pretrain-vision", *args]) == 0
        assert capsys.readouterr().out == (
            f"wrote {out / 'vision.xmck'} (holdout accuracy not measured)\n")
        manifest = json.loads((out / "pretrain-vision.manifest.json").read_text())
        assert manifest["metrics"] == {"holdout_accuracy": None}
        assert (out / "vision_pretrain.csv").read_text() == "epoch,train_loss\n"
        assert main(["pretrain", *args]) == 0
        assert main(["probe", *args]) == 0


class TestSweepCommands:
    def test_sweep_labels_row_count(self, pipeline, workdir):
        assert run(workdir, "sweep-labels") == 0
        rows = (pipeline / "sweep_labels.csv").read_text().strip().split("\n")
        # |fractions| x 2 arms x n_seeds detail rows plus header
        assert len(rows) == 1 + 2 * 2 * 2
        summary = (pipeline / "sweep_labels_summary.csv").read_text().strip().split("\n")
        assert len(summary) == 1 + 2 * 2

    def test_sweep_labels_names_each_dropped_fraction(self, pipeline, tmp_path, capsys):
        """A fraction that cannot place one label in every class is dropped,
        and the report line and the manifest's metrics name it."""
        cfg = yaml.safe_load(TINY_YAML)
        cfg["eval"]["fractions"] = [0.001, 0.5]
        path = tmp_path / "drop.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["sweep-labels", "--config", str(path), "--out", str(out),
                     "--data", str(pipeline / "dataset.xmcd"),
                     "--vision", str(pipeline / "vision.xmck")]) == 0
        assert capsys.readouterr().out == (
            f"wrote {out / 'sweep_labels_summary.csv'} (dropped fractions [0.001]: "
            "too few labels for every class)\n")
        summary = (out / "sweep_labels_summary.csv").read_text().strip().split("\n")
        assert [row.split(",")[0] for row in summary[1:]] == ["0.5", "0.5"]
        manifest = json.loads((out / "sweep-labels.manifest.json").read_text())
        assert manifest["metrics"] == {"dropped_fractions": [0.001]}

    def test_sweep_k_row_count(self, pipeline, workdir):
        assert run(workdir, "sweep-k") == 0
        rows = (pipeline / "sweep_k.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 2

    def test_estimate_mi_rows(self, pipeline, workdir):
        assert run(workdir, "estimate-mi") == 0
        rows = (pipeline / "mi_estimates.csv").read_text().strip().split("\n")
        assert rows[0] == "rho,dim,K,seed,mean_loss,mi_lower_bound,true_mi"
        assert len(rows) == 1 + 2 * 2

    @pytest.mark.parametrize("command, calls", [
        ("pretrain-vision", [("data",)]),
        ("pretrain", [("data", "vision")]),
        ("probe", [("data", "encoder")]),
        ("finetune", [("data", "encoder")]),
        ("baseline", [("data",)]),
        ("project", [("data", "encoder")]),
        # one call per arm: |eval.queue_sizes| x eval.n_seeds
        ("sweep-k", [("data", "vision")] * 4),
        # the parent counts the contrastive split, then one call per eval.n_seeds arm
        ("sweep-labels", [("data",)] + [("data", "vision")] * 2),
    ])
    def test_each_command_and_arm_loads_each_input_once_through_the_loader(
            self, pipeline, workdir, tmp_path, monkeypatch, command, calls):
        """Every dataset and checkpoint load is made by ``_load_inputs``, and
        each of its calls loads each of its roles once."""
        from xmc import models
        paths = {"data": pipeline / "dataset.xmcd", "vision": pipeline / "vision.xmck",
                 "encoder": pipeline / "radio.xmck"}
        events, inside = [], []

        def spy(module, name):
            real = getattr(module, name)

            def load(path):
                assert inside, f"{name} called outside _load_inputs"
                events.append(str(path))
                return real(path)
            monkeypatch.setattr(module, name, load)
        spy(datagen, "load_dataset")
        spy(models, "load_checkpoint")
        real_loader = cli._load_inputs

        def loader(inputs, cfg):
            events.append(tuple(inputs))
            inside.append(True)
            try:
                return real_loader(inputs, cfg)
            finally:
                inside.pop()
        monkeypatch.setattr(cli, "_load_inputs", loader)
        flags = [arg for role in cli.SPECS[command].inputs
                 for arg in (f"--{role}", str(paths[role]))]
        assert main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), *flags]) == 0
        assert events == [event for roles in calls
                          for event in (roles, *(str(paths[role]) for role in roles))]

    def test_parallel_jobs_give_identical_csv(self, pipeline, workdir, tmp_path):
        inputs = ["--data", str(pipeline / "dataset.xmcd"),
                  "--vision", str(pipeline / "vision.xmck")]
        for command, args, csvs in (
                ("sweep-labels", inputs, ("sweep_labels.csv", "sweep_labels_summary.csv")),
                ("sweep-k", inputs, ("sweep_k.csv", "sweep_k_summary.csv")),
                ("estimate-mi", [], ("mi_estimates.csv",))):
            outs = {jobs: tmp_path / f"{command}-{jobs}" for jobs in ("1", "2")}
            for jobs, out in outs.items():
                assert main([command, "--config", str(workdir / "tiny.yaml"),
                             "--out", str(out), *args, "--jobs", jobs]) == 0
            for name in csvs:
                assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes()


# The exact header of each sweep CSV; the queue sweep has one arm, so its
# files have no arm column.
SWEEP_HEADERS = {
    "sweep_k.csv": "K,seed,test_accuracy",
    "sweep_k_summary.csv": "K,mean_accuracy,std_accuracy,n_seeds",
    "sweep_labels.csv": "label_fraction,arm,seed,test_accuracy",
    "sweep_labels_summary.csv": "label_fraction,arm,mean_accuracy,std_accuracy,n_seeds",
    "mi_estimates.csv": "rho,dim,K,seed,mean_loss,mi_lower_bound,true_mi",
}


@pytest.fixture(scope="module")
def sweeps(pipeline, workdir, tmp_path_factory):
    """The outputs of the two sweeps and the MI estimate, in one directory."""
    out = tmp_path_factory.mktemp("sweeps")
    inputs = ["--data", str(pipeline / "dataset.xmcd"),
              "--vision", str(pipeline / "vision.xmck")]
    for command, args in (("sweep-k", inputs), ("sweep-labels", inputs),
                          ("estimate-mi", [])):
        assert main([command, "--config", str(workdir / "tiny.yaml"),
                     "--out", str(out), *args]) == 0
    return out


class TestSweepWriter:
    @pytest.mark.parametrize("name", SWEEP_HEADERS)
    def test_exact_header(self, sweeps, name):
        assert (sweeps / name).read_text().split("\n")[0] == SWEEP_HEADERS[name]

    @pytest.mark.parametrize("stem, axis", [("sweep_k", "K"),
                                            ("sweep_labels", "label_fraction")])
    def test_summary_rows_are_the_stats_of_their_detail_rows(self, sweeps, stem, axis):
        """One summary row per (arm, axis value), in that order: the mean,
        standard deviation and count of its detail rows' accuracies. The
        detail rows come in (axis value, arm, seed) order."""
        details = read_csv(sweeps / f"{stem}.csv")
        order = [(float(d[axis]), d.get("arm", ""), int(d["seed"])) for d in details]
        assert order == sorted(order)
        groups: dict[tuple, list[float]] = {}
        for d in details:
            groups.setdefault((d.get("arm", ""), float(d[axis])), []).append(
                float(d["test_accuracy"]))
        summary = read_csv(sweeps / f"{stem}_summary.csv")
        keys = [(row.get("arm", ""), float(row[axis])) for row in summary]
        assert keys == sorted(groups)
        for row, key in zip(summary, keys):
            accs = groups[key]
            assert int(row["n_seeds"]) == len(accs) == 2  # eval.n_seeds
            assert float(row["mean_accuracy"]) == pytest.approx(statistics.fmean(accs),
                                                                 abs=1e-12)
            assert float(row["std_accuracy"]) == pytest.approx(statistics.pstdev(accs),
                                                                abs=1e-12)


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "xmc.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout

    def test_import_leaves_the_process_pool_unloaded(self):
        """Importing the CLI, its help and a usage error load neither numpy,
        PyYAML nor the process pool: only a command that calls one pays for
        importing it. Importing the config loads no PyYAML either."""
        heavy = ("numpy", "yaml", "concurrent", "multiprocessing")
        cases = ["from xmc import cli", "import xmc.config",
                 *(f"from xmc import cli; cli.main({argv!r})"
                   for argv in (["--help"], ["pretrain", "--help"], ["no-such-command"]))]
        for case in cases:
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys\ntry:\n    {case}\n"
                 "except SystemExit:\n    pass\n"
                 f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {heavy}))"],
                capture_output=True, text=True, check=True)
            assert proc.stdout.splitlines()[-1] == "[]", case


class TestTimePipeline:
    def test_reports_each_command_and_stops_at_the_first_failure(self, workdir, tmp_path):
        script = README.parent / "scripts" / "time_pipeline.py"
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, str(script), "--config",
                               str(workdir / "tiny.yaml"), "--out", str(out),
                               "estimate-mi", "probe", "project"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["numpy"] == np.__version__
        assert {"cpu_model", "cpu0_cache", "dont_write_bytecode"} <= report.keys()
        assert report["cpu0_cache"].keys() == {"L2", "L3"}
        ran = report["commands"]
        assert [c["command"] for c in ran] == ["estimate-mi", "probe"]
        assert ran[0]["rc"] == 0 and ran[0]["minflt"] > 0 and ran[0]["peak_rss_mb"] > 0
        assert ran[1]["rc"] == 2 and "required input not found" in ran[1]["stderr"]
        assert (out / "mi_estimates.csv").is_file()

    @pytest.mark.parametrize("value, expected", [(None, False), ("", False), ("1", True)],
                             ids=["unset", "empty", "set"])
    def test_reports_whether_the_commands_write_bytecode(self, tmp_path, value, expected):
        """Python writes no bytecode iff PYTHONDONTWRITEBYTECODE is a non-empty
        string; then each command compiles src/ as it starts."""
        script = README.parent / "scripts" / "time_pipeline.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        if value is not None:
            env["PYTHONDONTWRITEBYTECODE"] = value
        proc = subprocess.run([sys.executable, str(script), "--out", str(tmp_path / "o"),
                               "probe"], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["dont_write_bytecode"] is expected
        assert [c["rc"] for c in report["commands"]] == [2]

    def test_leaves_the_timed_tree_without_bytecode(self, tmp_path):
        """The commands run a temporary copy of src/, removed at the end: the
        tree's src/ holds no __pycache__ after a run that writes bytecode."""
        script = README.parent / "scripts" / "time_pipeline.py"
        tree = tmp_path / "tree"
        shutil.copytree(README.parent / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "tmp").mkdir()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["TMPDIR"] = str(tmp_path / "tmp")
        proc = subprocess.run([sys.executable, str(script), "--tree", str(tree), "probe"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["dont_write_bytecode"] is False
        assert [c["rc"] for c in report["commands"]] == [2]
        assert list((tree / "src").rglob("__pycache__")) == []
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_jobs_reach_the_pooled_commands_as_the_flag(self, workdir, tmp_path):
        """gen-data takes no --jobs, so it runs; estimate-mi is given --jobs 0."""
        script = README.parent / "scripts" / "time_pipeline.py"
        proc = subprocess.run([sys.executable, str(script), "--config",
                               str(workdir / "tiny.yaml"), "--out", str(tmp_path / "o"),
                               "--jobs", "0", "gen-data", "estimate-mi"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["jobs"] == 0
        ran = report["commands"]
        assert [c["rc"] for c in ran] == [0, 3]
        assert "--jobs must be at least 1, got 0" in ran[1]["stderr"]

    def test_repeat_reports_each_run_and_their_median(self, workdir, tmp_path):
        """Each of the two runs writes its own directory; each command lists
        both runs, and its median is the median of their fields."""
        script = README.parent / "scripts" / "time_pipeline.py"
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, str(script), "--config",
                               str(workdir / "tiny.yaml"), "--out", str(out),
                               "--repeat", "2", "gen-data", "estimate-mi"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["repeat"] == 2
        assert [c["command"] for c in report["commands"]] == ["gen-data", "estimate-mi"]
        for command in report["commands"]:
            assert [run["rc"] for run in command["runs"]] == [0, 0]
            for field, value in command["median"].items():
                assert value == statistics.median(run[field] for run in command["runs"])
        assert report["total_wall_s"] == round(
            sum(c["median"]["wall_s"] for c in report["commands"]), 4)
        for run in ("run1", "run2"):
            assert (out / run / "mi_estimates.csv").is_file()
        assert (out / "run1" / "mi_estimates.csv").read_bytes() == (
            out / "run2" / "mi_estimates.csv").read_bytes()

    def test_each_repeat_runs_a_fresh_copy_of_src(self, tmp_path):
        """A stand-in xmc.cli records whether a module it imports was already
        compiled when it started: with bytecode written, no run finds what an
        earlier run compiled."""
        script = README.parent / "scripts" / "time_pipeline.py"
        package = tmp_path / "tree" / "src" / "xmc"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "helper.py").write_text("")
        (package / "cli.py").write_text(
            "import sys\nfrom pathlib import Path\n"
            "out = Path(sys.argv[sys.argv.index('--out') + 1])\n"
            "out.mkdir(parents=True, exist_ok=True)\n"
            "cached = any(Path(__file__).parent.glob('__pycache__/helper.*.pyc'))\n"
            "(out / 'cached.txt').write_text(str(cached))\n"
            "import xmc.helper\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, str(script), "--tree", str(tmp_path / "tree"),
                               "--out", str(out), "--repeat", "3", "gen-data"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [(out / f"run{i}" / "cached.txt").read_text() for i in (1, 2, 3)] == [
            "False"] * 3
        assert list(package.parent.rglob("__pycache__")) == []

    def test_repeat_below_one_is_refused(self):
        script = README.parent / "scripts" / "time_pipeline.py"
        proc = subprocess.run([sys.executable, str(script), "--repeat", "0", "gen-data"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "--repeat must be at least 1, got 0" in proc.stderr
