"""Exact computation of the well-covered dimension of graphs.

A weighting of a graph's vertices over a field F is well-covered when every
maximal independent set has the same weight sum.  These weightings form a
vector space; this package computes its dimension and a canonical basis
exactly, over the rationals and over prime fields GF(p), and ships a
verification harness that replays every known closed-form dimension formula
against the engine.

Importing the package loads only the engine.  The harness (`verify`, with
the closed forms of `formulas`) loads the first time `run_suite` or
`CheckReport` is looked up here, through the module `__getattr__`, or when
it is imported itself; `fractions` loads where a `Fraction` is first built.
"""

from .engine import (
    WcdimReport,
    compute_wcdim,
    compute_wcdim_fields,
    compute_wcdim_sets,
    is_well_covered_weighting,
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
    "petersen",
    "random_graph",
    "relabel",
    "run_suite",
    "turan",
]

# the names the verify harness provides; see `__getattr__`
_FROM_VERIFY = ("CheckReport", "run_suite")


def __getattr__(name: str) -> object:
    """A name of `_FROM_VERIFY`, read off `verify` on first access and kept here."""
    if name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
