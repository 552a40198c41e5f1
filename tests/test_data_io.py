"""Netpbm round trips, synthetic generator determinism, augmentation group laws."""

import os

import numpy as np
import pytest

from pamunet import data as D
from pamunet.tensor import Tensor


def test_p5_zero_image_roundtrip(tmp_path):
    path = tmp_path / "z.pgm"
    D.write_image(path, np.zeros((1, 8, 8), dtype=np.float32))
    img = D.read_image(path)
    assert img.shape == (1, 8, 8)
    np.testing.assert_array_equal(img.data, 0.0)


def test_p6_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, (3, 10, 7), dtype=np.uint8)
    path = tmp_path / "c.ppm"
    D.write_image(path, raw.astype(np.float32) / 255.0)
    first = path.read_bytes()
    img = D.read_image(path)
    D.write_image(path, img)
    assert path.read_bytes() == first


@pytest.mark.parametrize("channels", [1, 3])
def test_uint8_image_is_written_as_its_gray_levels(tmp_path, channels):
    # every level survives the float round trip, so both spellings write the same file
    levels = np.resize(np.arange(256, dtype=np.uint8), (channels, 16, 17))
    D.write_image(tmp_path / "u8", levels)
    D.write_image(tmp_path / "f32", levels.astype(np.float32) / 255.0)
    assert (tmp_path / "u8").read_bytes() == (tmp_path / "f32").read_bytes()
    np.testing.assert_array_equal(D.read_image(tmp_path / "u8").data * 255.0, levels)


def test_p5_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, (1, 6, 9), dtype=np.uint8)
    path = tmp_path / "g.pgm"
    D.write_image(path, raw.astype(np.float32) / 255.0)
    first = path.read_bytes()
    D.write_image(path, D.read_image(path))
    assert path.read_bytes() == first


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(D.FormatError, match="magic"):
        D.read_image(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(D.FormatError, match="truncated"):
        D.read_image(path)


def test_wrong_maxval_rejected(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(D.FormatError, match="maxval"):
        D.read_image(path)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x10\x20")
    img = D.read_image(path)
    np.testing.assert_allclose(img.data, np.array([[[0x10, 0x20]]]) / 255.0, atol=1e-7)


def test_gray_mask_value_rejected(tmp_path):
    path = tmp_path / "mask.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x01\xff")
    with pytest.raises(D.FormatError, match="not binary"):
        D.read_mask(path)


def test_mask_roundtrip(tmp_path):
    mask = (np.random.default_rng(2).random((1, 8, 8)) > 0.5).astype(np.float32)
    path = tmp_path / "m.pgm"
    D.write_mask(path, mask)
    np.testing.assert_array_equal(D.read_mask(path).data, mask)


def test_synth_same_seed_identical_bytes(tmp_path):
    m1 = D.synth_generate(tmp_path / "a", seed=3, count=4, size=32)
    m2 = D.synth_generate(tmp_path / "b", seed=3, count=4, size=32)
    for e1, e2 in zip(m1.entries, m2.entries):
        b1 = (tmp_path / "a" / e1.image_path).read_bytes()
        b2 = (tmp_path / "b" / e2.image_path).read_bytes()
        assert b1 == b2
        assert (tmp_path / "a" / e1.mask_path).read_bytes() == \
               (tmp_path / "b" / e2.mask_path).read_bytes()
    different = D.synth_generate(tmp_path / "c", seed=4, count=4, size=32)
    assert any((tmp_path / "a" / e1.image_path).read_bytes()
               != (tmp_path / "c" / e3.image_path).read_bytes()
               for e1, e3 in zip(m1.entries, different.entries))


def test_single_blob_has_one_connected_component(tmp_path):
    def component_count(mask):
        # 4-connected flood fill, the independent oracle
        seen = np.zeros_like(mask, dtype=bool)
        comps = 0
        h, w = mask.shape
        for sy in range(h):
            for sx in range(w):
                if mask[sy, sx] and not seen[sy, sx]:
                    comps += 1
                    stack = [(sy, sx)]
                    seen[sy, sx] = True
                    while stack:
                        y, x = stack.pop()
                        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                stack.append((ny, nx))
        return comps

    samples = D.synth_batch(seed=5, count=6, size=32, max_blobs=1)
    for s in samples:
        assert component_count(s.mask.data[0] > 0.5) == 1


def test_split_assignment_80_10_10():
    assert D.assign_splits(10).count("train") == 8
    assert D.assign_splits(10).count("val") == 1
    assert D.assign_splits(10).count("test") == 1
    assert D.assign_splits(64) == ["train"] * 51 + ["val"] * 6 + ["test"] * 7


def test_synth_rejects_bad_size():
    with pytest.raises(ValueError, match="divisible"):
        D.synth_generate("/tmp/unused", seed=0, count=1, size=20)


def test_manifest_roundtrip_and_loading(tmp_path):
    manifest = D.synth_generate(tmp_path / "d", seed=6, count=10, size=16)
    loaded = D.Manifest.load(tmp_path / "d" / "manifest.tsv")
    assert [e.id for e in loaded.entries] == [e.id for e in manifest.entries]
    assert len(loaded.split("train")) == 8
    sample = D.load_sample(loaded, loaded.entries[0])
    assert sample.image.shape == (1, 16, 16)
    assert set(np.unique(sample.mask.data)) <= {0.0, 1.0}


@pytest.mark.parametrize("split", ["trian", "Test"])
def test_manifest_rejects_unknown_split(tmp_path, split):
    path = tmp_path / "manifest.tsv"
    path.write_text(f"a\ta.pgm\ta_mask.pgm\ttrain\nb\tb.pgm\tb_mask.pgm\t{split}\n")
    with pytest.raises(D.FormatError, match=f"line 2 has split {split!r}"):
        D.Manifest.load(path)


def test_manifest_rejects_duplicate_ids():
    e = D.ManifestEntry("x", "a.pgm", "b.pgm", "train")
    with pytest.raises(D.FormatError, match="duplicate"):
        D.Manifest(entries=[e, e])


def test_hflip_vflip_rot180_are_involutions():
    sample = D.synth_batch(seed=7, count=1, size=16)[0]
    for op in ("hflip", "vflip", "rot180"):
        twice = D.augment(D.augment(sample, op), op)
        np.testing.assert_array_equal(twice.image.data, sample.image.data)
        np.testing.assert_array_equal(twice.mask.data, sample.mask.data)


def test_rot90_four_times_is_identity():
    sample = D.synth_batch(seed=8, count=1, size=16)[0]
    out = sample
    for _ in range(4):
        out = D.augment(out, "rot90")
    np.testing.assert_array_equal(out.image.data, sample.image.data)
    np.testing.assert_array_equal(out.mask.data, sample.mask.data)


def test_augment_preserves_mask_pixel_count_and_binaryness():
    sample = D.synth_batch(seed=9, count=1, size=16)[0]
    count = sample.mask.data.sum()
    for op in D.AUGMENT_OPS:
        aug = D.augment(sample, op)
        assert aug.mask.data.sum() == count
        assert set(np.unique(aug.mask.data)) <= {0.0, 1.0}
        assert aug.image.shape == sample.image.shape


def test_quarter_rotation_rejects_non_square():
    bad = D.Sample("x", Tensor(np.zeros((1, 4, 6))), Tensor(np.zeros((1, 4, 6))))
    with pytest.raises(ValueError, match="square"):
        D.augment(bad, "rot90")
    D.augment(bad, "rot180")  # fine for half turns
