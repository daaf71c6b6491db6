"""Fuzzing of the binary readers: a damaged file is an InputError that one of
the readers raised itself, or a model or dataset, never another exception."""

import re
import struct
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmc.datagen import Dataset, load_dataset, save_dataset
from xmc.errors import InputError
from xmc.models import init_encoder, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def small_dataset() -> Dataset:
    """Two test samples of each class, so that moving any one sample to
    another split leaves every class in the test split."""
    rng = np.random.default_rng(0)
    return Dataset(heatmaps=rng.normal(size=(12, 3, 2)), images=rng.normal(size=(12, 2, 4)),
                   labels=np.arange(12, dtype=np.int64) % 4,
                   test_idx=np.arange(4, 12),
                   vision_idx=np.array([0, 1]), contrastive_idx=np.array([2, 3]))


def saved(save: Callable, obj) -> bytes:
    """The bytes that ``save(path, obj)`` writes."""
    with tempfile.TemporaryDirectory() as d:
        save(Path(d) / "saved", obj)
        return (Path(d) / "saved").read_bytes()


def in_file(blob: bytes, read: Callable):
    """``read`` of the path of a temporary file holding ``blob``."""
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "blob").write_bytes(blob)
        return read(Path(d) / "blob")


def gather_all(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Every heatmap and image of the dataset file at ``path``."""
    ds = load_dataset(path)
    return ds.heatmaps[:], ds.images[:]


DATASET = saved(save_dataset, small_dataset())
CHECKPOINT = saved(save_checkpoint, init_encoder([3, 4, 2], seed=0))


def flip(blob: bytes, at: int, mask: int) -> bytes:
    at %= len(blob)
    return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:]


def set_field(blob: bytes, at: int, fmt: str, value: int) -> bytes:
    size = struct.calcsize(fmt)
    return blob[:at] + struct.pack(fmt, value) + blob[at + size:]


def damaged(blob: bytes, fields: list[tuple[int, str]]):
    """``blob`` cut short, with one byte flipped, or with one of its header
    ``fields`` (offset, struct format) set to any value."""
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda cut: blob[:cut]),
        st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(
            lambda t: flip(blob, *t)),
        st.sampled_from(fields).flatmap(lambda f: st.integers(
            0, 256 ** struct.calcsize(f[1]) - 1).map(lambda v: set_field(blob, *f, v))),
    )


# version u16, then R, A, H, W, n as u32
DATASET_FIELDS = [(4, "<H")] + [(6 + 4 * i, "<I") for i in range(5)]
# each sample's split byte: after the 26-byte header and the 12 class bytes
SPLIT_BYTES = range(26 + 12, 26 + 24)
# each f64 of the heatmaps and images: everything after the split bytes
SAMPLE_VALUES = range(SPLIT_BYTES.stop, len(DATASET), 8)
# version u16, frozen u8, layer count u16, then the three layer dims as u32
CHECKPOINT_FIELDS = [(4, "<H"), (6, "<B"), (7, "<H")] + [(9 + 4 * i, "<I") for i in range(3)]
# each f64 of the parameter vector: the (3 + 1) * 4 + (4 + 1) * 2 = 26 that end the file
PARAMETERS = range(len(CHECKPOINT) - 8 * 26, len(CHECKPOINT), 8)


# how every message of the dataset and checkpoint readers begins
READER_MESSAGE = re.compile(r"(not a |unsupported |bad )?(dataset|checkpoint)\b")


def loads_or_format_error(load, *args):
    """``load(*args)`` returns, or a reader refuses the input as malformed. An
    exit-3 error from any other check means a damaged file got past the reader."""
    try:
        load(*args)
    except InputError as e:
        assert READER_MESSAGE.match(str(e)), str(e)


def test_the_check_refuses_an_input_error_from_outside_the_readers():
    loads_or_format_error(in_file, b"XMCK", load_checkpoint)

    def load():
        raise InputError("|rho| must be < 1, got 1.0")

    with pytest.raises(AssertionError, match="rho"):
        loads_or_format_error(load)


class TestDatasetReader:
    def test_intact_file_loads(self):
        assert in_file(DATASET, load_dataset).n == 12

    @FUZZ
    @given(damaged(DATASET, DATASET_FIELDS))
    def test_damaged_file(self, blob):
        loads_or_format_error(in_file, blob, load_dataset)

    @FUZZ
    @given(st.sampled_from(SPLIT_BYTES), st.integers(0, 255))
    def test_any_split_byte(self, at, value):
        """0, 1 and 2 load as the test, vision and contrastive splits; any
        other value is refused."""
        blob = set_field(DATASET, at, "<B", value)
        if value > 2:
            with pytest.raises(InputError, match="^dataset file has a split byte above 2$"):
                in_file(blob, load_dataset)
            return
        ds = in_file(blob, load_dataset)
        i = SPLIT_BYTES.index(at)
        parts = (ds.test_idx, ds.vision_idx, ds.contrastive_idx)
        assert [i in part for part in parts] == [tag == value for tag in range(3)]

    @FUZZ
    @given(st.sampled_from(SAMPLE_VALUES), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_any_non_finite_sample_value(self, at, value):
        """A NaN or an infinity at any heatmap or image value is refused by
        the gather that reads its row."""
        with pytest.raises(InputError) as err:
            in_file(set_field(DATASET, at, "<d", value), gather_all)
        assert READER_MESSAGE.match(str(err.value)), str(err.value)


class TestCheckpointReader:
    def test_intact_file_loads(self):
        assert in_file(CHECKPOINT, load_checkpoint).dims == [3, 4, 2]

    @FUZZ
    @given(st.sampled_from(PARAMETERS), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_any_non_finite_parameter(self, at, value):
        """A NaN or an infinity at any parameter is refused."""
        with pytest.raises(InputError, match="^checkpoint has a non-finite parameter$"):
            in_file(set_field(CHECKPOINT, at, "<d", value), load_checkpoint)

    @FUZZ
    @given(damaged(CHECKPOINT, CHECKPOINT_FIELDS))
    def test_damaged_file(self, blob):
        loads_or_format_error(in_file, blob, load_checkpoint)
