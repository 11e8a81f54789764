"""virtlev: virtual levels and limiting-absorption resolvent estimates.

Desk-scale numerics for detecting, classifying and certifying threshold
resonances of 1D/3D Schrödinger operators and discrete model operators, plus
verification of weighted-space resolvent bounds near thresholds.
"""

from .errors import VirtlevError
from .free_resolvent import Approach, SpectralParameter
from .jost import JostPair, Potential1D
from .lap_sweep import OperatorSpec, SweepConfig
from .reports import Classification, ThresholdReport
from .weighted_space import Grid1D, KernelOperator, RadialGrid

__version__ = "0.1.0"

__all__ = [
    "Approach",
    "Classification",
    "Grid1D",
    "JostPair",
    "KernelOperator",
    "OperatorSpec",
    "Potential1D",
    "RadialGrid",
    "SpectralParameter",
    "SweepConfig",
    "ThresholdReport",
    "VirtlevError",
    "__version__",
]
