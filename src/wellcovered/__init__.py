"""Exact computation of the well-covered dimension of graphs.

A weighting of a graph's vertices over a field F is well-covered when every
maximal independent set has the same weight sum.  These weightings form a
vector space; this package computes its dimension and a canonical basis
exactly, over the rationals and over prime fields GF(p), and ships a
verification harness that replays every known closed-form dimension formula
against the engine.
"""

from .engine import (
    WcdimReport,
    compute_wcdim,
    compute_wcdim_fields,
    compute_wcdim_sets,
    is_well_covered_weighting,
    path_weight_structure,
)
from .errors import CapacityError, InputError
from .exactlin import FieldSpec, RowSpace
from .families import (
    FamilySpec,
    build_family,
    complete,
    complete_multipartite,
    crown,
    cycle,
    empty_graph,
    gear,
    path,
    petersen,
    turan,
)
from .graphs import (
    Graph,
    blowup,
    complement,
    disjoint_union,
    lex_product,
    multi_blowup,
    new_graph,
    random_graph,
    relabel,
)
from .kernels import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .mis import (
    DEFAULT_MIS_LIMIT,
    MisList,
    enumerate_mis,
    is_independent,
    is_maximal_independent,
    is_well_covered,
)
from .verify import CheckReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CheckReport",
    "DEFAULT_MIS_LIMIT",
    "FamilySpec",
    "FieldSpec",
    "Graph",
    "InputError",
    "KERNEL_IMPLEMENTATION",
    "MisList",
    "RowSpace",
    "WcdimReport",
    "blowup",
    "build_family",
    "complement",
    "complete",
    "complete_multipartite",
    "compute_wcdim",
    "compute_wcdim_fields",
    "compute_wcdim_sets",
    "crown",
    "cycle",
    "disjoint_union",
    "empty_graph",
    "enumerate_mis",
    "gear",
    "is_independent",
    "is_maximal_independent",
    "is_well_covered",
    "is_well_covered_weighting",
    "lex_product",
    "multi_blowup",
    "new_graph",
    "path",
    "path_weight_structure",
    "petersen",
    "random_graph",
    "relabel",
    "run_suite",
    "turan",
]
