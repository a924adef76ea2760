"""Run configuration shared by the CLI and the certification drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

ENV_OUT_DIR = 'RSBOUNDS_OUT_DIR'


@dataclass
class RunConfig:
    grid_log2: int = 20
    max_scale: int = 6
    out_dir: str = field(
        default_factory=lambda: os.environ.get(ENV_OUT_DIR, 'out'))

    def __post_init__(self):
        if not 4 <= self.grid_log2 <= 26:
            raise ValueError("grid_log2 must lie in [4, 26]")
        if self.max_scale < 1:
            raise ValueError("max_scale must be >= 1")

    @property
    def N(self) -> int:
        return 1 << self.grid_log2

    def to_dict(self) -> dict:
        return {
            'grid_log2': self.grid_log2,
            'max_scale': self.max_scale,
            'out_dir': self.out_dir,
        }
