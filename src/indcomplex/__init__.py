"""Independence complexes of square grid graphs.

Construct grid graphs and their last-column families, fold-reduce their
independence complexes, compute homology exactly, evaluate Euler
characteristics by transfer matrix, and compare everything against the
closed-form homotopy types.
"""

from .faces import (
    FaceBudgetExceeded,
    FVector,
    count_faces,
    enumerate_faces,
    euler_from_fvector,
    f_vector,
    faces_by_dimension,
    link_graph,
)
from .fold import (
    Cone,
    Fold,
    Move,
    ReductionTrace,
    StripK2,
    find_fold,
    homotopy_type_if_closed,
    reduce_graph,
)
from .graphs import (
    Family,
    Graph,
    GraphError,
    Vertex,
    build_family,
    build_gamma,
    delete_vertices,
    graph_from_json_dict,
    graph_to_json_dict,
)
from .homology import (
    BettiProfile,
    betti_of_family,
    betti_of_graph,
    betti_over_field,
    integral_homology,
)
from .predictor import (
    decompose_even,
    decompose_odd,
    expected_f6,
    predict_family,
    predict_gamma,
)
from .transfer import (
    TransferModel,
    build_transfer_model,
    column_states,
    euler_chi,
    euler_sweep,
    period_detect,
)
from .wedge import WedgeOfSpheres, wedge_sum

__version__ = "0.1.0"

__all__ = [
    "BettiProfile",
    "Cone",
    "FVector",
    "FaceBudgetExceeded",
    "Family",
    "Fold",
    "Graph",
    "GraphError",
    "Move",
    "ReductionTrace",
    "StripK2",
    "TransferModel",
    "Vertex",
    "WedgeOfSpheres",
    "betti_of_family",
    "betti_of_graph",
    "betti_over_field",
    "build_family",
    "build_gamma",
    "build_transfer_model",
    "column_states",
    "count_faces",
    "decompose_even",
    "decompose_odd",
    "delete_vertices",
    "enumerate_faces",
    "euler_chi",
    "euler_from_fvector",
    "euler_sweep",
    "expected_f6",
    "f_vector",
    "faces_by_dimension",
    "find_fold",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "homotopy_type_if_closed",
    "integral_homology",
    "link_graph",
    "period_detect",
    "predict_family",
    "predict_gamma",
    "reduce_graph",
    "wedge_sum",
]
