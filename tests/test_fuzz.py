"""Seeded byte-mutation fuzzing of the file loaders.

Each loader gets a valid file with one random edit (a byte overwritten,
inserted or deleted, or the file truncated), at every byte of the file's
header and at random places in the rest.  Whatever the edit, a loader
either returns or raises ValueError (FormatError is one); any other exception
would reach the CLI as a traceback.
"""

import numpy as np
import pytest

from pamunet import data as D
from pamunet.model import PAMUNetConfig, build
from pamunet.train import load_checkpoint, save_checkpoint

PAYLOAD_EDITS = 200                            # per file, on top of one per header byte
TOKEN_BYTES = b"0123456789 \t\n#-.,:[]{}\"eEP"  # bytes that keep a header parseable


def _edits(buf: bytes, header: int, rng: np.random.Generator):
    """One random edit at every position of ``buf[:header]``, then
    ``PAYLOAD_EDITS`` more at random positions anywhere in the file."""
    positions = list(range(header)) + rng.integers(0, len(buf), PAYLOAD_EDITS).tolist()
    for pos in positions:
        out = bytearray(buf)
        byte = (TOKEN_BYTES[rng.integers(len(TOKEN_BYTES))] if rng.random() < 0.5
                else int(rng.integers(256)))
        kind = rng.integers(4)
        if kind == 0:
            out[pos] = byte
        elif kind == 1:
            out.insert(pos, byte)
        elif kind == 2:
            del out[pos]
        else:
            del out[pos:]
        yield bytes(out)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """(loader, path, valid bytes, header length) per file kind."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = D.synth_generate(root / "gray", seed=0, count=2, size=16)
    D.synth_generate(root / "rgb", seed=0, count=1, size=16, channels=3)
    ckpt = root / "m.pamckpt"
    model = build(PAMUNetConfig(levels=1, base_channels=2, input_size=(16, 16)), seed=0)
    save_checkpoint(ckpt, model, velocities={n: p.data for n, p in model.named_parameters()})
    entry = manifest.entries[0]
    files = [
        (D.read_image, root / "gray" / entry.image_path, 15),
        (D.read_image, root / "rgb" / "images" / "sample_0000.ppm", 15),
        (D.read_mask, root / "gray" / entry.mask_path, 15),
        (D.Manifest.load, root / "gray" / "manifest.tsv", None),
        (load_checkpoint, ckpt, 16 + int.from_bytes(ckpt.read_bytes()[8:16], "little")),
    ]
    out = []
    for loader, path, header in files:
        buf = path.read_bytes()
        loader(path)  # the unmutated file loads
        out.append((loader, path, buf, header or len(buf)))
    return out


def test_mutated_files_raise_only_value_errors(originals, tmp_path):
    rng = np.random.default_rng(1234)
    for loader, path, buf, header in originals:
        target = tmp_path / path.name
        loaded = rejected = 0
        for mutated in _edits(buf, header, rng):
            target.write_bytes(mutated)
            try:
                loader(target)
                loaded += 1
            except ValueError:
                rejected += 1
        assert loaded and rejected, (path.name, loaded, rejected)
