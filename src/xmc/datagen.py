"""Synthetic paired radar/camera scenes, their dataset file and their encoder rows.

The scene simulator produces paired range-azimuth heatmaps and camera images
driven by one shared latent per sample, so the two modalities carry mutual
information by construction; a hidden 4-way class label (empty / pedestrian /
cyclist / car) is kept for evaluation only and is never read during
pre-training.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import DatagenSection
from .errors import InputError
from .runio import STAMP, atomic_write_bytes
from .seeding import rng_for

CLASS_NAMES = ("empty", "pedestrian", "cyclist", "car")
N_CLASSES = len(CLASS_NAMES)

DATASET_MAGIC = b"XMCD"
DATASET_VERSION = 3


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassSignature:
    extent: tuple[float, float]        # metres
    reflectivity: tuple[float, float]
    patch: str                         # "tall" | "diagonal" | "wide"


# Disjoint extent and reflectivity ranges make the classes separable in both
# modalities while noise keeps the task non-trivial.
CLASS_TABLE: dict[str, ClassSignature] = {
    "pedestrian": ClassSignature((0.3, 0.6), (0.5, 1.0), "tall"),
    "cyclist": ClassSignature((0.8, 1.3), (1.0, 2.0), "diagonal"),
    "car": ClassSignature((1.5, 2.5), (3.0, 6.0), "wide"),
}


@dataclass(frozen=True)
class SceneLatent:
    """One scene: either empty, or a single target with shared geometry."""

    class_id: str
    range_m: float | None = None
    azimuth_rad: float | None = None
    extent_m: float | None = None
    reflectivity: float | None = None


# The field of view and the camera's optics. No config key sets them: a run
# varies the grid sizes and noise levels (DatagenSection), not the geometry
# they sample.
RANGE_MIN = 1.0                # metres
RANGE_MAX = 25.0
AZIMUTH_MAX = math.pi / 3.0    # radians either side of boresight
PATCH_SCALE = 5.0              # patch size = scale*extent/range**PATCH_POWER
PATCH_POWER = 0.25             # weak size falloff keeps far shapes legible
PIXEL_PSF = 0.7                # camera blur floor, pixels
# The radar noise level when sigma_radar is None: 5% of the far-edge peak of
# the brightest car, so a far car peaks at 10x (dimmest) to 20x (brightest)
# the noise while distant pedestrians stay genuinely ambiguous.
_DEFAULT_SIGMA_RADAR = 0.05 * CLASS_TABLE["car"].reflectivity[1] / RANGE_MAX**2


def sample_scene(class_id: str, rng: np.random.Generator) -> SceneLatent:
    """Draw one latent: uniform position, class-conditional extent and
    reflectivity. Empty scenes carry no target."""
    if class_id == "empty":
        return SceneLatent("empty")
    sig = CLASS_TABLE[class_id]
    return SceneLatent(
        class_id,
        range_m=rng.uniform(RANGE_MIN, RANGE_MAX),
        azimuth_rad=rng.uniform(-AZIMUTH_MAX, AZIMUTH_MAX),
        extent_m=rng.uniform(*sig.extent),
        reflectivity=rng.uniform(*sig.reflectivity),
    )


def render_radar(scene: SceneLatent, cfg: DatagenSection,
                 rng: np.random.Generator) -> np.ndarray:
    """Range-azimuth heatmap: an isotropic Gaussian blob at the target cell
    with peak ~ reflectivity/range^2 and spread ~ extent, plus folded
    (absolute-value) Gaussian noise. Values are always >= 0."""
    grid = np.zeros((cfg.range_bins, cfg.azimuth_bins))
    if scene.class_id != "empty":
        d_range = (RANGE_MAX - RANGE_MIN) / cfg.range_bins
        d_az = 2.0 * AZIMUTH_MAX / cfg.azimuth_bins
        ci = (scene.range_m - RANGE_MIN) / d_range - 0.5
        cj = (scene.azimuth_rad + AZIMUTH_MAX) / d_az - 0.5
        amp = scene.reflectivity / scene.range_m**2
        sigma = max(scene.extent_m / d_range, 1e-6)
        ii = np.arange(cfg.range_bins)[:, None]
        jj = np.arange(cfg.azimuth_bins)[None, :]
        grid += amp * np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * sigma**2))
    noise = _DEFAULT_SIGMA_RADAR if cfg.sigma_radar is None else cfg.sigma_radar
    if noise > 0.0:
        grid += np.abs(rng.normal(0.0, noise, size=grid.shape))
    return grid


def project_to_image(scene: SceneLatent, cfg: DatagenSection) -> tuple[float, float]:
    """Pinhole mapping of the target: column ~ tan(azimuth), row ~ 1/range.
    Every target in the field of view lands inside the frame."""
    col = (cfg.image_width - 1) * 0.5 * (
        1.0 + math.tan(scene.azimuth_rad) / math.tan(AZIMUTH_MAX))
    inv_span = 1.0 / RANGE_MIN - 1.0 / RANGE_MAX
    u = (1.0 / scene.range_m - 1.0 / RANGE_MAX) / inv_span
    row = (cfg.image_height - 1) * u
    return row, col


def render_image(scene: SceneLatent, cfg: DatagenSection,
                 rng: np.random.Generator) -> np.ndarray:
    """Camera image: a class-shaped unit-intensity patch at the projected
    position (larger when nearer), plus Gaussian pixel noise."""
    img = np.zeros((cfg.image_height, cfg.image_width))
    if scene.class_id != "empty":
        row, col = project_to_image(scene, cfg)
        s = PATCH_SCALE * scene.extent_m / scene.range_m**PATCH_POWER
        psf2 = PIXEL_PSF**2
        ii = np.arange(cfg.image_height)[:, None] - row
        jj = np.arange(cfg.image_width)[None, :] - col
        patch = CLASS_TABLE[scene.class_id].patch
        if patch == "tall":
            sx2 = (0.5 * s) ** 2 + psf2
            sy2 = (2.0 * s) ** 2 + psf2
            img += np.exp(-0.5 * (jj**2 / sx2 + ii**2 / sy2))
        elif patch == "diagonal":
            # elongated along the image diagonal
            a = (ii + jj) / math.sqrt(2.0)
            b = (ii - jj) / math.sqrt(2.0)
            sa2 = (2.0 * s) ** 2 + psf2
            sb2 = (0.5 * s) ** 2 + psf2
            img += np.exp(-0.5 * (a**2 / sa2 + b**2 / sb2))
        else:  # wide, with quartic falloff for a boxier footprint
            sx2 = (2.2 * s) ** 2 + psf2
            sy2 = (0.9 * s) ** 2 + psf2
            img += np.exp(-0.5 * ((jj**2 / sx2) ** 2 + (ii**2 / sy2) ** 2))
    if cfg.sigma_image > 0.0:
        img += rng.normal(0.0, cfg.sigma_image, size=img.shape)
    return img


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """All samples plus the index partition.

    ``test_idx`` holds 20% of the samples; of the other 80%, ``vision_idx``
    is reserved for teacher pre-training and ``contrastive_idx`` for
    label-free contrastive training (labels of the latter are also what the
    downstream probes are allowed to see). The file
    stores the partition as one split byte per sample, so a loaded partition
    is whole and disjoint by construction. Loaded samples stay in the file
    (``_Rows``).
    """

    heatmaps: np.ndarray | _Rows  # (n, R, A)
    images: np.ndarray | _Rows    # (n, H, W)
    labels: np.ndarray            # (n,) int64 class ids, evaluation-only
    test_idx: np.ndarray
    vision_idx: np.ndarray
    contrastive_idx: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    def heatmap_inputs(self, idx: np.ndarray) -> np.ndarray:
        """The radar encoder's rows of the samples ``idx`` (an index array):
        flattened, each scaled in place on the gathered copy to unit peak (radar
        AGC), which keeps the input O(1) despite the 1/range^2 amplitude swing."""
        flat = self.heatmaps[idx].reshape(len(idx), math.prod(self.heatmaps.shape[1:]))
        flat /= np.maximum(flat.max(axis=1), 1e-30)[:, None]
        return flat

    def image_inputs(self, idx: np.ndarray) -> np.ndarray:
        """The vision encoder's rows of the samples ``idx``, flattened; patches
        are unit intensity already."""
        return self.images[idx].reshape(len(idx), math.prod(self.images.shape[1:]))


def _stratified_split(labels: np.ndarray, indices: np.ndarray, frac: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split ``indices`` per class: ~frac goes to the second part."""
    first, second = [], []
    for c in range(N_CLASSES):
        pool = indices[labels[indices] == c]
        pool = pool[rng.permutation(len(pool))]
        k = int(math.floor(frac * len(pool)))
        second.extend(pool[:k])
        first.extend(pool[k:])
    return np.sort(np.array(first, dtype=np.int64)), np.sort(np.array(second, dtype=np.int64))


def make_dataset(cfg: DatagenSection, seed: int) -> Dataset:
    """Generate ``cfg.n`` paired samples with balanced classes, an 80/20
    split, and ``cfg.vision_fraction`` of all samples in the vision slice.

    Classes are assigned round-robin so per-class counts differ by at most
    one; each sample is rendered from its own counter-based RNG stream keyed
    by (seed, index), so generation order cannot change the result.
    """
    n = cfg.n
    heatmaps = np.empty((n, cfg.range_bins, cfg.azimuth_bins))
    images = np.empty((n, cfg.image_height, cfg.image_width))
    labels = np.arange(n, dtype=np.int64) % N_CLASSES
    for i in range(n):
        rng = rng_for(seed, "sample", i)
        scene = sample_scene(CLASS_NAMES[labels[i]], rng)
        images[i] = render_image(scene, cfg, rng)
        heatmaps[i] = render_radar(scene, cfg, rng)

    all_idx = np.arange(n, dtype=np.int64)
    train, test_idx = _stratified_split(labels, all_idx, 0.2, rng_for(seed, "split"))
    train_frac = cfg.vision_fraction / 0.8  # fraction of *train* reserved for vision
    contrastive_idx, vision_idx = _stratified_split(
        labels, train, train_frac, rng_for(seed, "vision-split"))
    return Dataset(heatmaps, images, labels, test_idx, vision_idx, contrastive_idx)


# ---------------------------------------------------------------------------
# container file format
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sH5I")  # magic, version, R, A, H, W, n


def _checked_header(head: bytes, size: int) -> tuple[int, int, int, int, int]:
    """R, A, H, W, n from the leading bytes of a dataset file of ``size``
    bytes, checked against that size before anything is allocated."""
    if size < _HEADER.size:
        raise InputError("dataset file truncated")
    magic, version, r, a, h, w, n = _HEADER.unpack_from(head)
    if magic != DATASET_MAGIC:
        raise InputError("not a dataset file (bad magic)")
    if version != DATASET_VERSION:
        raise InputError(f"unsupported dataset version {version}")
    if min(r, a, h, w, n) < 1:
        raise InputError(f"dataset header has a zero size: R, A, H, W, n = "
                         f"{r}, {a}, {h}, {w}, {n}")
    expected = _HEADER.size + n * (2 + 8 * r * a + 8 * h * w)
    if size < expected:
        raise InputError(f"dataset file truncated: {size} bytes, the header "
                         f"implies {expected}")
    if size > expected:
        raise InputError("dataset file has trailing bytes")
    return r, a, h, w, n


def _read_exactly(f, out: np.ndarray) -> None:
    if f.readinto(out) != out.nbytes:
        raise InputError("dataset file truncated while reading")


@dataclass(frozen=True)
class _Rows:
    """One sample field left in its dataset file: an integer array or a slice
    reads just those rows, as float64, in order."""

    path: str | os.PathLike
    stamp: tuple                  # the STAMP its load saw
    offset: int                   # where the field's first row starts
    shape: tuple[int, ...]        # (n, rows, columns)

    def __getitem__(self, key) -> np.ndarray:
        want = np.arange(self.shape[0])[key]
        out = np.empty((len(want), *self.shape[1:]), dtype="<f8")
        with open(self.path, "rb", buffering=0) as f:
            if STAMP(os.fstat(f.fileno())) != self.stamp:
                raise InputError(f"dataset file {f.name} changed after it was loaded")
            for i, row in zip(want.tolist(), out):
                f.seek(self.offset + i * row.nbytes)
                _read_exactly(f, row)
                if not np.isfinite(row).all():
                    raise InputError(f"dataset file {f.name} has a non-finite value in row {i}")
        return out


def save_dataset(path, ds: Dataset) -> None:
    """Header: magic, version u16, R, A, H, W, n as little-endian u32; then
    the n class bytes, the n split bytes (0 test, 1 vision, 2 contrastive),
    the n heatmaps and the n images, each f64 row-major."""
    split = np.zeros(ds.n, dtype=np.uint8)
    split[ds.vision_idx], split[ds.contrastive_idx] = 1, 2
    dims = (*ds.heatmaps.shape[1:], *ds.images.shape[1:])
    columns = ((ds.labels, "u1"), (split, "u1"), (ds.heatmaps, "<f8"), (ds.images, "<f8"))
    atomic_write_bytes(path, [_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, *dims, ds.n),
                              *(np.ascontiguousarray(arr[:], dtype) for arr, dtype in columns)])


def load_dataset(path) -> Dataset:
    """The dataset file at ``path``. The class and split bytes are read now;
    the heatmaps and images stay in the file until a gather (``_Rows``)."""
    with open(path, "rb", buffering=0) as f:
        stamp = STAMP(os.fstat(f.fileno()))
        r, a, h, w, n = _checked_header(f.read(_HEADER.size), stamp[2])
        tags = np.empty((2, n), dtype=np.uint8)  # the class bytes, the split bytes
        _read_exactly(f, tags)
    labels, split = tags
    if labels.max() >= N_CLASSES:
        raise InputError(f"dataset file has a class id above {N_CLASSES - 1}")
    if split.max() > 2:
        raise InputError("dataset file has a split byte above 2")
    parts = [np.flatnonzero(split == tag) for tag in range(3)]
    for part, name in ((parts[0], "test"), (parts[2], "contrastive")):
        if not len(part):
            raise InputError(f"dataset file has no {name} samples")
    missing = np.flatnonzero(np.bincount(labels[parts[0]], minlength=N_CLASSES) == 0)
    if missing.size:
        raise InputError(f"dataset file has no test sample of class {CLASS_NAMES[missing[0]]}")
    body = _HEADER.size + 2 * n
    return Dataset(_Rows(path, stamp, body, (n, r, a)),
                   _Rows(path, stamp, body + 8 * n * r * a, (n, h, w)),
                   labels.astype(np.int64), *parts)
