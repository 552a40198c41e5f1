"""Analytic per-layer MAC/FLOPs accounting.

MAC model: a conv layer costs kernel.size MACs per position of the grid its
kernel slides over: the output grid, or the input grid for a transposed conv
(so depthwise is k^2*C*Ho*Wo).  Attention costs Lq*Lk*d per Q.K^T and per W.V.
Elementwise work (bias adds, activations, softmax normalization) is excluded.
Convention: 1 MAC = 2 FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass

FLOPS_PER_MAC = 2
CONVENTION_NOTE = "1 MAC = 2 FLOPs; elementwise ops excluded"


@dataclass
class FlopsReport:
    rows: list[tuple[str, str, int]]  # (layer name, kind, MACs)

    @property
    def total_macs(self) -> int:
        return sum(m for _, _, m in self.rows)

    @property
    def total_flops(self) -> int:
        return FLOPS_PER_MAC * self.total_macs

    def to_csv(self) -> str:
        """Column order: layer,kind,macs,flops; final row is the total."""
        lines = ["layer,kind,macs,flops"]
        for name, kind, macs in self.rows:
            lines.append(f"{name},{kind},{macs},{FLOPS_PER_MAC * macs}")
        lines.append(f"total,,{self.total_macs},{self.total_flops}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        width = max([len("layer")] + [len(n) for n, _, _ in self.rows])
        lines = [f"{'layer':<{width}}  {'kind':<14}  {'MACs':>14}"]
        for name, kind, macs in self.rows:
            lines.append(f"{name:<{width}}  {kind:<14}  {macs:>14,}")
        lines.append(f"{'total':<{width}}  {'':<14}  {self.total_macs:>14,}")
        lines.append(f"({CONVENTION_NOTE}; total FLOPs = {self.total_flops:,})")
        return "\n".join(lines)


def count_flops(model) -> FlopsReport:
    """Walk the model structure at its configured input size."""
    return FlopsReport(rows=list(model.mac_sites()))
