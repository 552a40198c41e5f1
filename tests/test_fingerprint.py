"""tools/fingerprint.py: its FLOPs part (the training part takes minutes)."""

import hashlib
import importlib.util
import pathlib
import re

from pamunet.flops import count_flops
from pamunet.model import PAMUNetConfig, build

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flops_part_hashes_twenty_cli_csvs(capsys):
    assert _load_tool().main(["flops"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20 and all(re.fullmatch(r"[0-9a-f]{64}  flops/\S+\.csv", ln) for ln in lines)
    digests = {ln.split("  ")[1]: ln.split("  ")[0] for ln in lines}
    assert len(digests) == 20
    cfg = PAMUNetConfig(levels=3, base_channels=4, input_size=(64, 64),
                        attention_variant="pla", decoder_kind="vanilla")
    csv = count_flops(build(cfg, seed=0)).to_csv()
    assert digests["flops/small-vanilla-pla.csv"] == hashlib.sha256(csv.encode()).hexdigest()
