"""Exact computation of the well-covered dimension of graphs.

A weighting of a graph's vertices over a field F is well-covered when every
maximal independent set has the same weight sum.  These weightings form a
vector space; this package computes its dimension and a canonical basis
exactly, over the rationals and over prime fields GF(p), and ships a
verification harness that replays every known closed-form dimension formula
against the engine.

Importing the package loads only what a `compute` runs: the engine, the
row spaces of `exactlin`, the enumeration of `mis` and `kernels`, `graphs`,
`records` and `errors`.  The rest loads the first time one of its names is
looked up here, through the module `__getattr__`, or when it is imported
itself: the family builders and graph constructions of `families`
(`crown`, `build_family`, `blowup`, `random_graph`, ...), and the harness
(`verify`, with the closed forms of `formulas`) for `run_suite` and
`CheckReport`.  The batch routines of `batch`, which
nothing in the package calls, load the same way from `exactlin`, `engine`
and `kernels`; `fractions` loads where a `Fraction` is first built.
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
from .graphs import Graph, new_graph, relabel
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

# the names read off a module that loads on first use: name -> that module; see `__getattr__`
_LAZY = {
    **dict.fromkeys(("CheckReport", "run_suite"), "verify"),
    **dict.fromkeys(
        (
            "FamilySpec", "blowup", "build_family", "complement", "complete",
            "complete_multipartite", "crown", "cycle", "disjoint_union", "empty_graph", "gear",
            "lex_product", "multi_blowup", "path", "petersen", "random_graph", "turan",
        ),
        "families",
    ),
}


def __getattr__(name: str) -> object:
    """A name of `_LAZY`, read off its module on first access and kept here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
