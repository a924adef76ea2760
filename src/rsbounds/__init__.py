"""Certified bounds for Rudin-Shapiro polynomial partial sums.

Rigorous grid enclosures of sup-norms and L-norms on the unit circle,
interval and dyadic-square certification of the piecewise bounds on f(x)
and the two-variable bounds on f(x, y) and g(x, y), and numerical
reproduction of the extremal tail family and its limits.
"""

from .config import RunConfig
from .dyadic import DyadicPoint
from .evaluate import eval_point, eval_point_root, eval_PQ
from .norms import (Enclosure, L_norm_sq, f2_dyadic, f_dyadic, g_dyadic,
                    g_int, sup_norm_sq)
from .sequence import Block, Segment, block_decompose, coeff, coeff_range

__version__ = "0.1.0"

__all__ = [
    "Block", "DyadicPoint", "Enclosure", "L_norm_sq", "RunConfig",
    "Segment", "block_decompose", "coeff", "coeff_range",
    "eval_PQ", "eval_point", "eval_point_root", "f2_dyadic", "f_dyadic",
    "g_dyadic", "g_int", "sup_norm_sq", "__version__",
]
