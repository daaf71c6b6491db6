"""Command-line pipeline tests on a miniature configuration."""

import argparse
import json
import struct
import subprocess
import sys
import types
from pathlib import Path

import pytest
import yaml

from xmc import cli
from xmc.cli import main
from xmc.errors import XmcError
from xmc.models import init_encoder, save_checkpoint
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
        assert (version, r, a, h, w, n) == (1, 32, 32, 32, 32, 160)

    def test_manifest_records_hashes(self, pipeline):
        manifest = json.loads((pipeline / "gen-data.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
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

    @pytest.mark.parametrize("sidecar", [b"{not json", b"7", b'{"\xff": 1}'])
    def test_bad_splits_sidecar_exits_3(self, workdir, tmp_path, capsys, sidecar):
        out = tmp_path / "o"
        args = ["--config", str(workdir / "tiny.yaml"), "--out", str(out)]
        assert main(["gen-data", *args]) == 0
        (out / "dataset.splits.json").write_bytes(sidecar)
        capsys.readouterr()
        code = main(["pretrain-vision", *args])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "splits sidecar" in err


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
        sidecar = out / "dataset.splits.json"
        splits = json.loads(sidecar.read_text())
        # keep a valid partition: all but one vision sample go to contrastive
        splits["contrastive"] += splits["vision"][1:]
        splits["vision"] = splits["vision"][:1]
        sidecar.write_text(json.dumps(splits))
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

    def test_non_integer_xmc_jobs_exits_3(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("XMC_JOBS", "two")
        code = main(["estimate-mi", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "XMC_JOBS" in self.one_line(capsys)

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

    @pytest.mark.parametrize("damage, message", [
        (lambda s: s["test"].append(160), "'test' index 160 is out of range"),
        (lambda s: s["contrastive"].append(s["contrastive"][0]), "'contrastive' repeats"),
        (lambda s: s["train"].append(s["test"][0]), "test and train share"),
        (lambda s: s["contrastive"].append(s["vision"][0]), "vision and contrastive share"),
        (lambda s: s["contrastive"].extend(s["test"]), "do not make up train"),
    ], ids=["out-of-range", "repeated", "test-in-train", "vision-in-contrastive",
            "test-in-contrastive"])
    def test_inconsistent_sidecar_exits_3(self, pipeline, workdir, tmp_path, capsys,
                                          damage, message):
        data = tmp_path / "d.xmcd"
        data.write_bytes((pipeline / "dataset.xmcd").read_bytes())
        splits = json.loads((pipeline / "dataset.splits.json").read_text())
        damage(splits)
        (tmp_path / "d.splits.json").write_text(json.dumps(splits))
        capsys.readouterr()
        code = main(["pretrain-vision", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(data)])
        assert code == 3
        assert message in self.one_line(capsys)

    def test_oversized_dataset_header_exits_3(self, workdir, tmp_path, capsys):
        data = tmp_path / "d.xmcd"
        data.write_bytes(b"XMCD" + struct.pack("<H5I", 1, 32, 32, 32, 32, 2**32 - 1))
        (tmp_path / "d.splits.json").write_text("{}")
        capsys.readouterr()
        code = main(["pretrain-vision", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"), "--data", str(data)])
        assert code == 3
        assert "dataset file truncated" in self.one_line(capsys)

    @pytest.mark.parametrize("command, key, value, message", [
        ("estimate-mi", ("mi", "n_seeds"), 0, "mi.n_seeds must be an integer >= 1"),
        ("pretrain", ("contrastive", "lr"), -1.0, "contrastive.lr must be > 0"),
        ("pretrain", ("contrastive", "normalize"), True,
         "unknown config key: contrastive.normalize"),
    ], ids=["no-mi-seeds", "negative-lr", "normalize"])
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
        ([100, 16], "vision checkpoint takes 100 inputs, but the images have 1024"),
        ([1024, 8], "vision embed dim 8 != configured 16"),
    ], ids=["input-width", "embed-dim"])
    def test_mismatched_vision_checkpoint_exits_3_before_encoding_keys(
            self, pipeline, workdir, tmp_path, capsys, monkeypatch, dims, message):
        vision = tmp_path / "vision.xmck"
        save_checkpoint(vision, init_encoder(dims, seed=0, trainable=False))

        def no_encoding(*args, **kwargs):
            raise AssertionError("keys were encoded before the checkpoint was checked")

        monkeypatch.setattr("xmc.contrastive.encode_keys", no_encoding)
        capsys.readouterr()
        code = main(["pretrain", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(tmp_path / "o"),
                     "--data", str(pipeline / "dataset.xmcd"), "--vision", str(vision)])
        assert code == 3
        assert message in self.one_line(capsys)

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


class TestErrorClassExitCodes:
    def test_every_error_class_has_a_documented_code(self):
        rows = {line.split("|")[1].strip(): line
                for line in README.read_text().splitlines() if line.startswith("| ")}
        classes = [XmcError, *error_classes()]
        assert cli.OutputExistsError in classes
        for cls in classes:
            assert "exit_code" in vars(cls), cls.__name__
            assert cls.exit_code in (1, 3, 4), cls.__name__
            assert f"`{cls.__name__}`" in rows[str(cls.exit_code)], cls.__name__

    @pytest.mark.parametrize("cls", error_classes(), ids=lambda c: c.__name__)
    def test_main_exits_with_the_class_code_and_one_line(self, monkeypatch, capsys, cls):
        def fail(args, cfg):
            raise cls("it went wrong")

        monkeypatch.setitem(cli.COMMANDS, "gen-data", fail)
        assert main(["gen-data"]) == cls.exit_code
        assert capsys.readouterr().err == "xmc gen-data: it went wrong\n"


class TestSweepPool:
    def test_pool_is_capped_at_the_arm_count(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        payloads = [{"x": 1}, {"x": 2}]
        assert cli._map_arms(lambda p: 10 * p["x"], payloads, 64) == [10, 20]
        assert cli._map_arms(lambda p: p["x"], payloads * 2, 3) == [1, 2, 1, 2]
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
        assert cli.build_parser().parse_args(["sweep-k"]).jobs is None


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


class TestEvaluationCommands:
    def test_probe_and_curve(self, pipeline, workdir):
        assert run(workdir, "probe") == 0
        rows = (pipeline / "probe_result.csv").read_text().strip().split("\n")
        assert rows[0].startswith("mode,label_fraction,seed,test_accuracy")
        assert len(rows) == 2
        curve = (pipeline / "probe_curve.csv").read_text().strip().split("\n")
        assert len(curve) == 1 + 4  # header + probe_epochs

    def test_finetune_writes_checkpoint(self, pipeline, workdir):
        assert run(workdir, "finetune") == 0
        assert (pipeline / "radio_finetuned.xmck").read_bytes()[:4] == b"XMCK"

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


class TestSweepCommands:
    def test_sweep_labels_row_count(self, pipeline, workdir):
        assert run(workdir, "sweep-labels") == 0
        rows = (pipeline / "sweep_labels.csv").read_text().strip().split("\n")
        # |fractions| x 2 arms x n_seeds detail rows plus header
        assert len(rows) == 1 + 2 * 2 * 2
        summary = (pipeline / "sweep_labels_summary.csv").read_text().strip().split("\n")
        assert len(summary) == 1 + 2 * 2

    def test_sweep_k_row_count(self, pipeline, workdir):
        assert run(workdir, "sweep-k") == 0
        rows = (pipeline / "sweep_k.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 2

    def test_estimate_mi_rows(self, pipeline, workdir):
        assert run(workdir, "estimate-mi") == 0
        rows = (pipeline / "mi_estimates.csv").read_text().strip().split("\n")
        assert rows[0] == "rho,dim,K,seed,mean_loss,mi_lower_bound,true_mi"
        assert len(rows) == 1 + 2 * 2

    def test_parallel_jobs_give_identical_csv(self, pipeline, workdir, tmp_path):
        serial = (pipeline / "mi_estimates.csv").read_bytes()
        out2 = tmp_path / "par"
        assert main(["estimate-mi", "--config", str(workdir / "tiny.yaml"),
                     "--out", str(out2), "--jobs", "2"]) == 0
        assert (out2 / "mi_estimates.csv").read_bytes() == serial


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "xmc.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout
