"""Data generation tests: scene rendering, dataset assembly, the dataset file
and the encoder rows."""

import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import datagen as dg
from xmc.config import DatagenSection
from xmc.datagen import (
    AZIMUTH_MAX,
    CLASS_TABLE,
    RANGE_MAX,
    RANGE_MIN,
    SceneLatent,
    make_dataset,
    project_to_image,
    render_image,
    render_radar,
    sample_scene,
)
from xmc.errors import InputError
from xmc.seeding import rng_for

from helpers import load_overlay

CFG = DatagenSection()
NOISELESS = DatagenSection(sigma_radar=0.0, sigma_image=0.0)
UNDRAWN = rng_for(0, "noiseless")  # the renders take an rng; with NOISELESS they draw none


class TestScenes:
    def test_empty_scene_has_no_target(self):
        scene = sample_scene("empty", rng_for(0, "s"))
        assert scene.range_m is None and scene.reflectivity is None

    def test_car_extent_range(self):
        rng = rng_for(1, "s")
        for _ in range(100):
            scene = sample_scene("car", rng)
            assert 1.5 <= scene.extent_m <= 2.5

    def test_pedestrian_extent_monte_carlo_mean(self):
        rng = rng_for(2, "s")
        draws = [sample_scene("pedestrian", rng).extent_m for _ in range(10_000)]
        expected = sum(CLASS_TABLE["pedestrian"].extent) / 2
        assert abs(np.mean(draws) - expected) < 0.05 * expected


class TestRenderRadar:
    def test_argmax_at_target_cell(self):
        # place the target exactly at a cell center
        d_range = (RANGE_MAX - RANGE_MIN) / CFG.range_bins
        d_az = 2 * AZIMUTH_MAX / CFG.azimuth_bins
        scene = SceneLatent("car", range_m=RANGE_MIN + 10.5 * d_range,
                            azimuth_rad=-AZIMUTH_MAX + 20.5 * d_az,
                            extent_m=2.0, reflectivity=4.0)
        heat = render_radar(scene, NOISELESS, UNDRAWN)
        assert np.unravel_index(heat.argmax(), heat.shape) == (10, 20)

    def test_empty_noiseless_is_all_zero(self):
        heat = render_radar(SceneLatent("empty"), NOISELESS, UNDRAWN)
        assert np.all(heat == 0.0)

    def test_doubling_reflectivity_doubles_peak(self):
        base = dict(range_m=8.0, azimuth_rad=0.2, extent_m=1.0)
        h1 = render_radar(SceneLatent("cyclist", reflectivity=1.5, **base), NOISELESS,
                          UNDRAWN)
        h2 = render_radar(SceneLatent("cyclist", reflectivity=3.0, **base), NOISELESS,
                          UNDRAWN)
        assert math.isclose(h2.max(), 2.0 * h1.max(), rel_tol=1e-12)

    def test_noise_keeps_values_nonnegative(self):
        heat = render_radar(SceneLatent("empty"), CFG, rng_for(3, "n"))
        assert np.all(heat >= 0.0)
        assert heat.max() > 0.0

    def test_default_noise_is_5_percent_of_the_brightest_far_car(self):
        """``sigma_radar: None`` draws folded noise of sigma 0.05 * 6.0 / 25**2,
        whose mean is sigma * sqrt(2 / pi)."""
        assert DatagenSection().sigma_radar is None
        sigma = 0.05 * CLASS_TABLE["car"].reflectivity[1] / RANGE_MAX**2
        heat = render_radar(SceneLatent("empty"), DatagenSection(), rng_for(4, "n"))
        assert math.isclose(heat.mean(), sigma * math.sqrt(2.0 / math.pi), rel_tol=0.1)


class TestRenderImage:
    def test_zero_azimuth_centers_patch_horizontally(self):
        scene = SceneLatent("pedestrian", range_m=5.0, azimuth_rad=0.0,
                            extent_m=0.5, reflectivity=0.7)
        img = render_image(scene, NOISELESS, UNDRAWN)
        col_mass = img.sum(axis=0)
        centroid = (col_mass * np.arange(CFG.image_width)).sum() / col_mass.sum()
        assert abs(centroid - (CFG.image_width - 1) / 2) < 1e-6

    def test_nearer_means_larger_patch(self):
        def footprint(range_m):
            scene = SceneLatent("car", range_m=range_m, azimuth_rad=0.0,
                                extent_m=2.0, reflectivity=4.0)
            img = render_image(scene, NOISELESS, UNDRAWN)
            return (img > 0.1).sum()

        assert footprint(4.0) > footprint(16.0)

    def test_empty_noiseless_is_all_zero(self):
        img = render_image(SceneLatent("empty"), NOISELESS, UNDRAWN)
        assert np.all(img == 0.0)

    def test_the_corners_of_the_field_project_into_the_frame(self):
        """The nearest and farthest ranges at either edge of the azimuth span
        land on the frame's edges, at any frame size, so every target in the
        field of view is drawn without a redraw."""
        for cfg in (CFG, DatagenSection(image_height=2, image_width=2)):
            corners = {project_to_image(SceneLatent("car", range_m, azimuth, 2.0, 4.0), cfg)
                       for range_m in (RANGE_MIN, RANGE_MAX)
                       for azimuth in (-AZIMUTH_MAX, AZIMUTH_MAX)}
            h, w = cfg.image_height - 1, cfg.image_width - 1
            assert corners == {(0.0, 0.0), (0.0, w), (h, 0.0), (h, w)}

    def test_patch_shapes_differ_by_class(self):
        imgs = {}
        for cls in ("pedestrian", "cyclist", "car"):
            scene = SceneLatent(cls, range_m=6.0, azimuth_rad=0.0,
                                extent_m=sum(CLASS_TABLE[cls].extent) / 2,
                                reflectivity=1.0)
            imgs[cls] = render_image(scene, NOISELESS, UNDRAWN)
        ped, car = imgs["pedestrian"], imgs["car"]
        # pedestrian is tall (rows > cols), car is wide (cols > rows)
        assert (ped.sum(axis=1) > 0.1 * ped.max()).sum() > (ped.sum(axis=0) > 0.1 * ped.max()).sum()
        assert (car.sum(axis=0) > 0.1 * car.max()).sum() > (car.sum(axis=1) > 0.1 * car.max()).sum()


class TestCrossModalGeometry:
    def test_shared_latent_links_argmax_and_centroid(self):
        """Inverting the heatmap argmax geometry predicts the image patch
        position up to grid quantization, with noise off."""
        rng = rng_for(11, "geom")
        for _ in range(25):
            scene = sample_scene("car", rng)
            heat = render_radar(scene, NOISELESS, UNDRAWN)
            img = render_image(scene, NOISELESS, UNDRAWN)
            ri, aj = np.unravel_index(heat.argmax(), heat.shape)
            d_range = (RANGE_MAX - RANGE_MIN) / CFG.range_bins
            d_az = 2 * AZIMUTH_MAX / CFG.azimuth_bins
            cell_range = RANGE_MIN + (ri + 0.5) * d_range
            cell_az = -AZIMUTH_MAX + (aj + 0.5) * d_az
            decoded = SceneLatent("car", range_m=cell_range, azimuth_rad=cell_az,
                                  extent_m=scene.extent_m,
                                  reflectivity=scene.reflectivity)
            pred_row, pred_col = dg.project_to_image(decoded, NOISELESS)
            true_row, true_col = dg.project_to_image(scene, NOISELESS)
            # one radar cell maps to at most ~2 pixels of image displacement
            assert abs(pred_row - true_row) < 2.5
            assert abs(pred_col - true_col) < 2.5


class TestMakeDataset:
    def test_exact_balance_at_400(self):
        ds = make_dataset(DatagenSection(n=400), seed=5)
        counts = np.bincount(ds.labels, minlength=4)
        assert list(counts) == [100, 100, 100, 100]

    def test_balance_within_one_at_402(self):
        ds = make_dataset(DatagenSection(n=402), seed=5)
        counts = np.bincount(ds.labels, minlength=4)
        assert set(counts) <= {100, 101}

    def test_split_is_disjoint_and_covers(self):
        ds = make_dataset(DatagenSection(n=120), seed=6)
        parts = [ds.test_idx, ds.vision_idx, ds.contrastive_idx]
        union = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(union, np.arange(120))  # so no index is in two
        assert len(ds.test_idx) == 24

    def test_split_balance_within_one(self):
        ds = make_dataset(DatagenSection(n=402), seed=7)
        train = np.concatenate([ds.vision_idx, ds.contrastive_idx])
        for idx in (train, ds.test_idx):
            counts = np.bincount(ds.labels[idx], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_vision_and_contrastive_partition_train(self):
        ds = make_dataset(DatagenSection(n=200), seed=8)
        union = np.sort(np.concatenate([ds.vision_idx, ds.contrastive_idx]))
        np.testing.assert_array_equal(union, np.setdiff1d(np.arange(200), ds.test_idx))
        assert len(ds.vision_idx) == 40  # vision_fraction 0.2 of all samples

    def test_same_seed_identical_hash(self, tmp_path):
        a = file_sha256(tmp_path, make_dataset(DatagenSection(n=60), seed=9))
        b = file_sha256(tmp_path, make_dataset(DatagenSection(n=60), seed=9))
        assert a == b
        assert a != file_sha256(tmp_path, make_dataset(DatagenSection(n=60), seed=10))

    def test_frozen_content_hash(self, tmp_path):
        """Pins the simulator: a change to one sample byte or one split index,
        by any refactor, fails here."""
        ds = make_dataset(DatagenSection(n=40), seed=12)
        assert file_sha256(tmp_path, ds) == (
            "62c14c367b37c71baff9827393c9de6ec22717d4cd08fbdf7ed43ff0e5a02359")

    def test_too_small_rejected(self):
        with pytest.raises(InputError, match="datagen.n must be an integer >= 20, got 4"):
            load_overlay({"datagen": {"n": 4}})


def file_bytes(tmp_path, ds: dg.Dataset) -> bytes:
    """The bytes of ``ds``'s dataset file."""
    path = tmp_path / "saved.xmcd"
    dg.save_dataset(path, ds)
    return path.read_bytes()


def file_sha256(tmp_path, ds: dg.Dataset) -> str:
    """The sha256 of ``ds``'s dataset file, as ``gen-data``'s manifest lists it."""
    return hashlib.sha256(file_bytes(tmp_path, ds)).hexdigest()


def load_bytes(tmp_path, blob: bytes) -> dg.Dataset:
    """``load_dataset`` of a file holding ``blob``."""
    path = tmp_path / "blob.xmcd"
    path.write_bytes(blob)
    return dg.load_dataset(path)


class TestDatasetFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        """The split bytes give back the generated index arrays, also with
        an empty vision split and classes of unequal size."""
        for cfg in (DatagenSection(n=40), DatagenSection(n=42, vision_fraction=0.0)):
            ds = make_dataset(cfg, seed=12)
            path = tmp_path / "toy.xmcd"
            dg.save_dataset(path, ds)
            loaded = dg.load_dataset(path)
            assert file_sha256(tmp_path, loaded) == file_sha256(tmp_path, ds)
            for key in ("test_idx", "vision_idx", "contrastive_idx"):
                got, want = getattr(loaded, key), getattr(ds, key)
                assert got.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(got, want)
        assert len(ds.vision_idx) == 0

    def test_load_leaves_numpy_ma_unimported(self, tmp_path):
        """A load rebuilds the split indices with ``np.flatnonzero``, and the
        label subsample of ``probe``, ``finetune`` and ``baseline`` and the
        cluster separation of ``project`` list the classes with
        ``np.bincount``: ``np.unique`` and the set routines would import
        ``numpy.ma`` into every command that loads a dataset."""
        path = tmp_path / "toy.xmcd"
        dg.save_dataset(path, make_dataset(DatagenSection(n=40), seed=12))
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from xmc.datagen import load_dataset\n"
            "from xmc.evaluation import cluster_separation, stratified_label_subset\n"
            f"ds = load_dataset({str(path)!r})\n"
            "print('numpy.ma' in sys.modules)\n"
            "stratified_label_subset(ds.labels[ds.contrastive_idx], 0.5, 0)\n"
            "print('numpy.ma' in sys.modules)\n"
            "cluster_separation(np.arange(2.0 * ds.n).reshape(ds.n, 2), ds.labels)\n"
            "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["False"] * 3

    def test_header_layout(self, tmp_path):
        blob = file_bytes(tmp_path, make_dataset(DatagenSection(n=20), seed=13))
        assert blob[:4] == b"XMCD"
        version, r, a, h, w, n = struct.unpack("<H5I", blob[4:26])
        assert (version, r, a, h, w, n) == (3, 32, 32, 32, 32, 20)

    def test_bad_magic_rejected(self, tmp_path):
        with pytest.raises(InputError, match=r"^not a dataset file \(bad magic\)$"):
            load_bytes(tmp_path, b"NOPE" + b"\x00" * 30)

    def test_body_is_class_split_heatmap_and_image_columns(self, tmp_path):
        """The n class bytes, the n split bytes (0 test, 1 vision,
        2 contrastive), the n heatmaps and then the n images."""
        ds = make_dataset(DatagenSection(n=20), seed=15)
        split = np.zeros(20, dtype=np.uint8)
        split[ds.vision_idx], split[ds.contrastive_idx] = 1, 2
        assert sorted([*ds.test_idx, *ds.vision_idx, *ds.contrastive_idx]) == list(range(20))
        expected = [b"XMCD", struct.pack("<H5I", 3, 32, 32, 32, 32, 20),
                    ds.labels.astype("u1").tobytes(), bytes(split),
                    ds.heatmaps.astype("<f8").tobytes(), ds.images.astype("<f8").tobytes()]
        assert file_bytes(tmp_path, ds) == b"".join(expected)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        """A 26-byte file whose header claims 2**32 - 1 samples."""
        blob = b"XMCD" + struct.pack("<H5I", 3, 32, 32, 32, 32, 2**32 - 1)
        with pytest.raises(InputError, match="^dataset file truncated: 26 bytes"):
            load_bytes(tmp_path, blob)

    def test_length_must_match_the_header_exactly(self, tmp_path):
        blob = file_bytes(tmp_path, make_dataset(DatagenSection(n=20), seed=16))
        with pytest.raises(InputError, match="^dataset file truncated: "):
            load_bytes(tmp_path, blob[:-1])
        with pytest.raises(InputError, match="^dataset file has trailing bytes$"):
            load_bytes(tmp_path, blob + b"\x00")

    def test_zero_size_and_bad_class_rejected(self, tmp_path):
        blob = file_bytes(tmp_path, make_dataset(DatagenSection(n=20), seed=17))
        empty = b"XMCD" + struct.pack("<H5I", 3, 0, 32, 32, 32, 20)
        with pytest.raises(InputError, match="^dataset header has a zero size: "):
            load_bytes(tmp_path, empty)
        with pytest.raises(InputError, match="^dataset file has a class id above 3$"):
            load_bytes(tmp_path, blob[:26] + b"\x04" + blob[27:])

    def test_split_byte_above_2_rejected(self, tmp_path):
        blob = file_bytes(tmp_path, make_dataset(DatagenSection(n=20), seed=17))
        at = 26 + 2 * 20 - 1  # the last sample's split byte
        for byte in (b"\x03", b"\xff"):
            with pytest.raises(InputError, match="^dataset file has a split byte above 2$"):
                load_bytes(tmp_path, blob[:at] + byte + blob[at + 1:])

    @pytest.mark.parametrize("tag, name", [(0, "test"), (2, "contrastive")])
    def test_an_empty_test_or_contrastive_split_rejected(self, tmp_path, tag, name):
        """Every sample of the split moved to the vision split."""
        blob = bytearray(file_bytes(tmp_path, make_dataset(DatagenSection(n=20), seed=17)))
        blob[46:66] = bytes(1 if b == tag else b for b in blob[46:66])
        with pytest.raises(InputError, match=f"^dataset file has no {name} samples$"):
            load_bytes(tmp_path, bytes(blob))

    def test_version_1_file_rejected(self, tmp_path):
        """A file as version 1 wrote it: no split byte, and the partition in a
        JSON file beside it."""
        ds = make_dataset(DatagenSection(n=20), seed=15)
        old = [b"XMCD", struct.pack("<H5I", 1, 32, 32, 32, 32, 20)]
        for i in range(20):
            old += [struct.pack("<B", ds.labels[i]), ds.heatmaps[i].astype("<f8").tobytes(),
                    ds.images[i].astype("<f8").tobytes()]
        with pytest.raises(InputError, match="^unsupported dataset version 1$"):
            load_bytes(tmp_path, b"".join(old))

    def test_version_2_file_rejected(self, tmp_path):
        """A file as version 2 wrote it: one record per sample, its class
        byte, split byte, heatmap and image; the length equals version 3's."""
        ds = make_dataset(DatagenSection(n=20), seed=15)
        split = np.zeros(20, dtype=np.uint8)
        split[ds.vision_idx], split[ds.contrastive_idx] = 1, 2
        old = [b"XMCD", struct.pack("<H5I", 2, 32, 32, 32, 32, 20)]
        for i in range(20):
            old += [struct.pack("<BB", ds.labels[i], split[i]),
                    ds.heatmaps[i].astype("<f8").tobytes(), ds.images[i].astype("<f8").tobytes()]
        assert len(b"".join(old)) == len(file_bytes(tmp_path, ds))
        with pytest.raises(InputError, match="^unsupported dataset version 2$"):
            load_bytes(tmp_path, b"".join(old))


# Unsorted, repeated and empty index arrays, and slices with any bounds and step.
ROW_KEYS = st.one_of(
    st.lists(st.integers(0, 39), max_size=60).map(lambda idx: np.array(idx, dtype=np.int64)),
    st.builds(slice, st.none() | st.integers(-45, 45), st.none() | st.integers(-45, 45),
              st.none() | st.sampled_from([-3, -1, 1, 2, 5])))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A 40-sample dataset, as generated and as loaded from its file."""
    ds = make_dataset(DatagenSection(n=40), seed=12)
    path = tmp_path_factory.mktemp("stored") / "toy.xmcd"
    dg.save_dataset(path, ds)
    return ds, dg.load_dataset(path)


class TestRowGather:
    @settings(max_examples=60, deadline=None)
    @given(key=ROW_KEYS)
    def test_gathered_rows_equal_the_arrays(self, stored, key):
        ds, loaded = stored
        for field in ("heatmaps", "images"):
            got, want = getattr(loaded, field)[key], getattr(ds, field)[key]
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_loaded_shapes_and_labels(self, stored):
        ds, loaded = stored
        assert loaded.heatmaps.shape == ds.heatmaps.shape
        assert loaded.images.shape == ds.images.shape
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_load_and_gather_hold_less_than_half_the_body(self, tmp_path):
        """A load reads the class and split bytes, and a gather reads its
        rows; neither holds the body."""
        ds = make_dataset(DatagenSection(n=600), seed=18)
        path = tmp_path / "toy.xmcd"
        dg.save_dataset(path, ds)
        body = path.stat().st_size
        want = ds.heatmap_inputs(ds.contrastive_idx)
        del ds
        tracemalloc.start()
        try:
            loaded = dg.load_dataset(path)
            got = loaded.heatmap_inputs(loaded.contrastive_idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < body / 2

    def test_save_holds_less_than_half_the_body(self, tmp_path):
        ds = make_dataset(DatagenSection(n=600), seed=18)
        tracemalloc.start()
        try:
            dg.save_dataset(tmp_path / "toy.xmcd", ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "toy.xmcd").stat().st_size / 2

    def test_a_gather_refuses_a_replaced_or_truncated_file(self, tmp_path):
        path, other = tmp_path / "toy.xmcd", tmp_path / "other.xmcd"
        dg.save_dataset(path, make_dataset(DatagenSection(n=20), seed=20))
        dg.save_dataset(other, make_dataset(DatagenSection(n=20), seed=21))
        assert other.stat().st_size == path.stat().st_size
        loaded = dg.load_dataset(path)
        os.replace(other, path)
        with pytest.raises(InputError, match="^dataset file .* changed after it was loaded$"):
            loaded.heatmaps[np.arange(3)]
        loaded = dg.load_dataset(path)
        os.truncate(path, path.stat().st_size - 1)
        with pytest.raises(InputError, match="^dataset file .* changed after it was loaded$"):
            loaded.images[:2]


class TestEncoderRows:
    """What an encoder reads of a scene: its class id, and its heatmap or
    image as one flattened row, each heatmap at unit peak."""

    def test_made_and_loaded_class_ids_are_int64_round_robin(self, stored):
        for ds in stored:
            assert ds.labels.dtype == np.int64
            np.testing.assert_array_equal(ds.labels, np.arange(40) % 4)

    def test_rows_are_the_same_bytes_in_memory_and_loaded_and_on_a_second_call(self, stored):
        """The heatmap scaling runs on the gathered copy alone, so the stored
        heatmaps, and every later call, are untouched by it."""
        ds, loaded = stored
        idx = np.array([5, 0, 39, 5, 17])
        before = ds.heatmaps.tobytes()
        for method in ("heatmap_inputs", "image_inputs"):
            want = getattr(ds, method)(idx)
            assert want.shape == (5, 32 * 32)
            for source in (loaded, ds, loaded):
                assert getattr(source, method)(idx).tobytes() == want.tobytes()
        assert ds.heatmaps.tobytes() == before

    def test_each_heatmap_row_is_scaled_to_unit_peak(self, stored):
        ds, _ = stored
        flat = ds.heatmaps[ds.test_idx].reshape(len(ds.test_idx), -1)
        rows = ds.heatmap_inputs(ds.test_idx)
        np.testing.assert_array_equal(rows.max(axis=1), 1.0)
        np.testing.assert_array_equal(rows, flat / flat.max(axis=1)[:, None])
