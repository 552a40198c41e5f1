"""tools/heldout.py: its report on scripted Dice values (the protocol itself trains for minutes)."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "heldout.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("heldout", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_pairs_seeds_and_summarizes_groups():
    med = [0.50, 0.60, 0.40, 0.70, 0.55, 0.45]
    diffs = [0.01, -0.01, 0.03, 0.02, 0.0, 0.04]
    rows = [{"variant": "med", "seed": s, "dice": d} for s, d in enumerate(med)]
    rows += [{"variant": "med+pla", "seed": s, "dice": m + d} for s, (m, d) in enumerate(zip(med, diffs))]
    lines = _load_tool().report(7, rows[::-1])
    assert lines[:3] == ["dataset 7", "seed  med     pla     pla-med", "0     0.5000  0.5100  +0.0100"]
    assert lines[5] == "3     0.7000  0.7200  +0.0200"
    assert lines[6] == "4     0.5500  0.5500  +0.0000"
    assert lines[8:] == [
        "seeds 0-2: mean +0.0100  sd 0.0200  positive 2 of 3",
        "seeds 3-5: mean +0.0200  sd 0.0200  positive 2 of 3",
        "seeds 0-5: mean +0.0150  sd 0.0187  positive 4 of 6",
    ]
