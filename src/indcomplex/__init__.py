"""Independence complexes of square grid graphs.

Construct grid graphs and their last-column families, fold-reduce their
independence complexes, compute homology exactly, evaluate Euler
characteristics by transfer matrix, and compare everything against the
closed-form homotopy types.

The package root exports the library overview of the README, the two
exceptions a caller may catch, and the result types and helpers the
benchmark harness reads; everything else is imported from its submodule.
"""

from .faces import FaceBudgetExceeded
from .fold import homotopy_type_if_closed, reduce_graph
from .graphs import Family, GraphError, build_family, build_gamma
from .homology import BettiProfile, betti_of_family, integral_homology
from .predictor import expected_f6, predict_family, predict_gamma
from .transfer import euler_chi, euler_sweep, period_detect
from .wedge import WedgeOfSpheres

__version__ = "0.1.0"

__all__ = [
    "BettiProfile",
    "FaceBudgetExceeded",
    "Family",
    "GraphError",
    "WedgeOfSpheres",
    "betti_of_family",
    "build_family",
    "build_gamma",
    "euler_chi",
    "euler_sweep",
    "expected_f6",
    "homotopy_type_if_closed",
    "integral_homology",
    "period_detect",
    "predict_family",
    "predict_gamma",
    "reduce_graph",
]
