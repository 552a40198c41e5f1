"""Dataset plumbing: netpbm images, a seeded synthetic blob dataset, exact
90-degree augmentations, and tab-separated manifests.

File contracts:
* images: binary netpbm, P5 (grayscale) or P6 (RGB), maxval 255; masks are P5
  with values {0, 255} only.
* manifest: one ``id<TAB>image_path<TAB>mask_path<TAB>split`` line per sample,
  UTF-8, LF endings; paths are relative to the manifest's directory, and the
  split is ``train``, ``val`` or ``test``.

The synthetic generator rasterizes filled ellipses with integer centers and
axes using the pixel-center rule (x-cx)^2/a^2 + (y-cy)^2/b^2 <= 1, so the
dataset is a pure function of (seed, count, size, max_blobs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from pamunet.tensor import Tensor


class FormatError(ValueError):
    """Malformed or unsupported image/manifest file."""


MAXVAL = 255
AUGMENT_OPS = ("hflip", "vflip", "rot90", "rot180", "rot270")
SPLITS = ("train", "val", "test")  # the only split names a manifest may use


# -- netpbm ------------------------------------------------------------------

def _read_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(buf):
        if buf[pos:pos + 1].isspace():
            pos += 1
        elif buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated netpbm header")
    return buf[start:pos], pos


def read_image(path) -> Tensor:
    """Read a binary P5/P6 file into a (C,H,W) tensor scaled to [0,1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_header_token(buf, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"bad magic number {magic!r} in {path} (expected P5 or P6)")
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(buf, pos)
        if not tok.isdigit():
            raise FormatError(f"non-numeric header field {tok!r} in {path}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != MAXVAL:
        raise FormatError(f"unsupported maxval {maxval} in {path} (only 255)")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = buf[pos:pos + expected]
    if len(payload) != expected:
        raise FormatError(
            f"truncated payload in {path}: expected {expected} bytes, got {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    data = (raw.astype(np.float32) / MAXVAL).transpose(2, 0, 1)
    return Tensor(data)


def write_image(path, image) -> None:
    """Write a (C,H,W) tensor with values in [0,1] as binary P5/P6; a uint8
    array is written as the gray levels it holds."""
    data = np.asarray(getattr(image, "data", image))
    if data.ndim != 3 or data.shape[0] not in (1, 3):
        raise FormatError(f"image must be (1|3, H, W), got {data.shape}")
    c, h, w = data.shape
    raw = data if data.dtype == np.uint8 else np.rint(np.clip(data, 0.0, 1.0) * MAXVAL).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n{MAXVAL}\n".encode("ascii"))
        fh.write(raw.transpose(1, 2, 0).tobytes())


def read_mask(path) -> Tensor:
    """Read a P5 mask; pixel values must be exactly 0 or 255."""
    img = read_image(path)
    if img.shape[0] != 1:
        raise FormatError(f"mask must be grayscale P5, got {img.shape[0]} channels in {path}")
    vals = np.unique(np.rint(img.data * MAXVAL))
    if not set(vals.tolist()) <= {0.0, 255.0}:
        raise FormatError(f"mask not binary in {path}: pixel values {sorted(vals.tolist())}")
    return Tensor((img.data >= 0.5).astype(np.float32))


def write_mask(path, mask) -> None:
    data = np.asarray(getattr(mask, "data", mask))
    if not np.all((data == 0) | (data == 1)):
        raise FormatError("mask values must be strictly {0, 1}")
    write_image(path, data.astype(np.float32))


# -- samples and manifests -----------------------------------------------------

@dataclass
class Sample:
    id: str
    image: Tensor  # (C, H, W) in [0,1]
    mask: Tensor   # (1, H, W) in {0,1}


@dataclass
class ManifestEntry:
    id: str
    image_path: str
    mask_path: str
    split: str


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    root: str = "."

    def __post_init__(self):
        ids = [e.id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise FormatError("manifest contains duplicate sample ids")

    def split(self, name: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == name]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for e in self.entries:
                fh.write(f"{e.id}\t{e.image_path}\t{e.mask_path}\t{e.split}\n")

    @classmethod
    def load(cls, path) -> "Manifest":
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise FormatError(f"manifest line {lineno} has {len(parts)} fields, expected 4")
                if parts[3] not in SPLITS:
                    raise FormatError(f"manifest line {lineno} has split {parts[3]!r}, "
                                      f"expected one of {SPLITS}")
                entries.append(ManifestEntry(*parts))
        return cls(entries=entries, root=os.path.dirname(os.path.abspath(path)))


def load_sample(manifest: Manifest, entry: ManifestEntry) -> Sample:
    image = read_image(os.path.join(manifest.root, entry.image_path))
    mask = read_mask(os.path.join(manifest.root, entry.mask_path))
    if image.shape[1:] != mask.shape[1:]:
        raise FormatError(
            f"image/mask size mismatch for {entry.id}: {image.shape[1:]} vs {mask.shape[1:]}")
    return Sample(id=entry.id, image=image, mask=mask)


def load_split(manifest: Manifest, split: str) -> list[Sample]:
    return [load_sample(manifest, e) for e in manifest.split(split)]


# -- synthetic data -------------------------------------------------------------

def _ellipse(size: int, cx: int, cy: int, a: int, b: int) -> np.ndarray:
    yy, xx = np.ogrid[0:size, 0:size]
    return ((xx - cx) ** 2) / a ** 2 + ((yy - cy) ** 2) / b ** 2 <= 1.0


def _random_axes_center(size: int, rng: np.random.Generator,
                        lo: int, hi: int) -> tuple[int, int, int, int]:
    a = int(rng.integers(lo, hi))
    b = int(rng.integers(lo, hi))
    cx = int(rng.integers(a, size - a))
    cy = int(rng.integers(b, size - b))
    return cx, cy, a, b


def _blob_mask(size: int, rng: np.random.Generator, max_blobs: int) -> np.ndarray:
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, max_blobs + 1))):
        cx, cy, a, b = _random_axes_center(size, rng, max(2, size // 16), max(3, size // 4))
        mask |= _ellipse(size, cx, cy, a, b)
    return mask


def _ring_mask(size: int, rng: np.random.Generator) -> np.ndarray:
    """Hollow distractor shells: same tones as blobs, excluded from the mask."""
    rings = np.zeros((size, size), dtype=bool)
    thickness = max(1, size // 24)
    for _ in range(int(rng.integers(1, 4))):
        cx, cy, a, b = _random_axes_center(size, rng, max(3, size // 10), max(4, size // 4))
        outer = _ellipse(size, cx, cy, a, b)
        inner = _ellipse(size, cx, cy, max(1, a - thickness), max(1, b - thickness))
        rings |= outer & ~inner
    return rings


def synth_sample(rng: np.random.Generator, size: int, max_blobs: int,
                 channels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """One (image, mask) pair; image values already quantized to the 255 grid
    so written files reload bit-for-bit.

    Segmentation needs spatial context by construction: background speckle
    overlaps blob tones, hollow rings wear the same tones as true blobs but
    are not foreground, and each image carries a global brightness shift."""
    mask = _blob_mask(size, rng, max_blobs)
    rings = _ring_mask(size, rng)
    image = np.empty((channels, size, size), dtype=np.float32)
    for c in range(channels):
        img = rng.uniform(0.05, 0.5, (size, size))
        ring_tone = rng.uniform(0.5, 0.8)
        blob_tone = rng.uniform(0.5, 0.8)
        speckle = rng.uniform(-0.12, 0.12, (size, size))
        img[rings] = ring_tone + speckle[rings]
        img[mask] = blob_tone + speckle[mask]
        img += rng.uniform(-0.12, 0.12)
        image[c] = np.clip(img, 0.0, 1.0)
    image = np.rint(image * MAXVAL).astype(np.float32) / MAXVAL
    return image, mask[None].astype(np.float32)


def synth_batch(seed: int, count: int, size: int, max_blobs: int = 5,
                channels: int = 1) -> list[Sample]:
    """In-memory samples (used for probe batches and tests)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        image, mask = synth_sample(rng, size, max_blobs, channels)
        out.append(Sample(id=f"sample_{i:04d}", image=Tensor(image), mask=Tensor(mask)))
    return out


def assign_splits(count: int) -> list[str]:
    """80% train; the remainder is halved into val then test."""
    n_train = int(count * 0.8)
    n_val = (count - n_train) // 2
    return ["train"] * n_train + ["val"] * n_val + ["test"] * (count - n_train - n_val)


def synth_generate(out_dir, seed: int, count: int, size: int,
                   max_blobs: int = 5, channels: int = 1) -> Manifest:
    """Write a synthetic dataset plus manifest under ``out_dir``."""
    if size <= 0 or size % 16 != 0:
        raise ValueError(f"size must be positive and divisible by 16, got {size}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if max_blobs < 1:
        raise ValueError(f"max_blobs must be >= 1, got {max_blobs}")
    images_dir = os.path.join(out_dir, "images")
    masks_dir = os.path.join(out_dir, "masks")
    os.makedirs(images_dir, exist_ok=True)
    os.makedirs(masks_dir, exist_ok=True)

    samples = synth_batch(seed, count, size, max_blobs, channels)
    splits = assign_splits(count)
    ext = "pgm" if channels == 1 else "ppm"
    entries = []
    for sample, split in zip(samples, splits):
        image_rel = os.path.join("images", f"{sample.id}.{ext}")
        mask_rel = os.path.join("masks", f"{sample.id}.pgm")
        write_image(os.path.join(out_dir, image_rel), sample.image)
        write_mask(os.path.join(out_dir, mask_rel), sample.mask)
        entries.append(ManifestEntry(sample.id, image_rel, mask_rel, split))
    manifest = Manifest(entries=entries, root=os.path.abspath(out_dir))
    manifest.save(os.path.join(out_dir, "manifest.tsv"))
    return manifest


# -- augmentation -----------------------------------------------------------------

def _apply_op(data: np.ndarray, op: str) -> np.ndarray:
    if op == "hflip":
        return data[:, :, ::-1].copy()
    if op == "vflip":
        return data[:, ::-1, :].copy()
    if op in ("rot90", "rot180", "rot270"):
        k = {"rot90": 1, "rot180": 2, "rot270": 3}[op]
        if k != 2 and data.shape[1] != data.shape[2]:
            raise ValueError(f"{op} needs square images, got {data.shape[1]}x{data.shape[2]}")
        return np.rot90(data, k=k, axes=(1, 2)).copy()
    raise ValueError(f"unknown augmentation op {op!r}, expected one of {AUGMENT_OPS}")


def augment(sample: Sample, op: str) -> Sample:
    """Transform image and mask identically; exact, interpolation-free ops."""
    return Sample(id=sample.id, image=Tensor(_apply_op(sample.image.data, op)),
                  mask=Tensor(_apply_op(sample.mask.data, op)))
