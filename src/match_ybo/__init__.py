"""Charge-conserving Yang-Baxter operators from matching data.

The library constructs every invertible charge-conserving solution of the
Yang-Baxter equation on a tensor square from combinatorial matching data
(nations, counties, county order, parts), verifies the braid relation three
independent ways, and recovers the data back from raw matrices.
"""

from .classify import (
    EdgeLabelH,
    EdgeLabelI,
    admissible,
    classify,
    coarsen,
    edge_labels,
    g3_orbits,
    label_edge,
    no_minus_rep,
    six_rule_check,
    triangle_flip,
    triangle_perm,
)
from .diagrams import (
    Configuration,
    County,
    DiagramMultiset,
    Nation,
    Permutation,
    Row,
    Shape,
    book_order,
    canonicalize,
    configuration_from_json,
    configuration_perm,
    configuration_to_json,
    enumerate_configurations,
    enumerate_multisets,
    enumerate_transversal,
    euler_count,
    flip_configuration,
    multiset_of_configuration,
    orbit,
    shape_of_word,
    word_of_shape,
)
from .errors import (
    InadmissibleEdgeError,
    IrrationalSpectrumError,
    MalformedInputError,
    MatchYboError,
    NotASolutionError,
    OrbitTooLargeError,
    SingularMatrixError,
)
from .matchcat import (
    EdgeBlock,
    MatchMatrix2,
    SparseOp,
    act_flip,
    act_perm,
    block,
    compose,
    edge_pairs,
    identity_op,
    invertible,
    kron,
    matrix,
    matrix_from_json,
    matrix_to_json,
    restrict,
    to_sparse,
    x_equivalent,
    x_normalize,
)
from .oracle import (
    enumerate_fibre,
    fibre_report,
    fibre_scan,
    fibre_summary,
    parse_fibre_type,
)
from .recipe import (
    Germ,
    ParamPoint,
    flip_germ,
    generic_point,
    germ_from_json,
    germ_to_json,
    permute_germ,
    rec,
)
from .selftest import run_selftest
from .signature import (
    SignatureReport,
    degeneracy_partition,
    signature_check,
    signature_formula,
    signature_notation,
    spectrum,
)
from .ybe import (
    ResidualReport,
    base_constraints,
    constraint_residuals,
    is_solution,
    is_solution_by_subsets,
    ybe_residual_direct,
)

__version__ = "0.1.0"
