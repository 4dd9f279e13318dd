"""The package's records keep the contract they had as frozen dataclasses.

Records that validate or cache are classes on `records.Record`; the pure
ones are named tuples.  Each keeps its constructor, equality, hash, repr and
error messages, and none can be changed after it is built.  The package's
import loads exactly the modules a `compute` runs, none of those
`dataclasses` brings in, and neither it nor a `compute` run loads the
verify harness or `fractions`.  Every name that the package, `exactlin`,
`engine` or `kernels` resolves on first use is the object of the module
it comes from.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wellcovered
from wellcovered import (
    CheckReport,
    FamilySpec,
    FieldSpec,
    Graph,
    InputError,
    MisList,
    WcdimReport,
    compute_wcdim,
    crown,
    path,
)
from wellcovered.cli import ReportDocument, ReportSection
from wellcovered.batch import ExactMatrix
from wellcovered.formulas import Prediction


def _report(**changed):
    r = compute_wcdim(path(6))
    fields = dict(n=r.n, field=r.field, mis_count=r.mis_count, wcdim=r.wcdim,
                  diff_rank=r.diff_rank, space=r.space, base=r.base, stats=r.stats)
    return WcdimReport(**{**fields, **changed})


# (build one, build an equal one, build one that differs in a compared field)
CASES = {
    "FieldSpec": (lambda: FieldSpec(3), lambda: FieldSpec(3), lambda: FieldSpec(5)),
    "ExactMatrix": (
        lambda: ExactMatrix(1, 2, (1, 2)),
        lambda: ExactMatrix.from_rows([[1, 2]]),
        lambda: ExactMatrix(2, 1, (1, 2)),
    ),
    "Graph": (
        lambda: Graph(3, (2, 5, 2)),
        lambda: Graph.unchecked(3, (2, 5, 2)),
        lambda: Graph(3, (0, 0, 0)),
    ),
    "MisList": (
        lambda: MisList(((0, 2), (1,)), 3),
        lambda: MisList(((0, 2), (1,)), 3),
        lambda: MisList(((0, 2), (1,)), 4),
    ),
    # space, base and stats are neither compared nor hashed
    "WcdimReport": (
        _report,
        lambda: _report(space=None, base=-1, stats=None),
        lambda: _report(wcdim=0),
    ),
    "ReportSection": (
        lambda: ReportSection(0, 5, 4, 2),
        lambda: ReportSection(characteristic=0, mis_count=5, diff_rank=4, wcdim=2),
        lambda: ReportSection(0, 5, 4, 2, sum_rank=5),
    ),
    "Prediction": (
        lambda: Prediction(4, "crown"),
        lambda: Prediction(4, "crown", ()),
        lambda: Prediction(4, "crown", ("char 2",)),
    ),
    "CheckReport": (
        lambda: CheckReport("family", "crown:5", (0,), (4,), (4,), "pass"),
        lambda: CheckReport("family", "crown:5", (0,), (4,), (4,), "pass", ""),
        lambda: CheckReport("family", "crown:5", (0,), (4,), (3,), "FAIL"),
    ),
    "FamilySpec": (
        lambda: FamilySpec("crown", (5,)),
        lambda: FamilySpec(kind="crown", params=(5,)),
        lambda: FamilySpec("crown", (6,)),
    ),
    "ReportDocument": (
        lambda: ReportDocument("g", 3, 1, (ReportSection(0, 2, 1, 2),)),
        lambda: ReportDocument("g", 3, 1, (ReportSection(0, 2, 1, 2),)),
        lambda: ReportDocument("h", 3, 1, (ReportSection(0, 2, 1, 2),)),
    ),
}

EXPLICIT = ("FieldSpec", "ExactMatrix", "Graph", "MisList", "WcdimReport", "ReportSection")

FIRST_FIELD = {
    "FieldSpec": "characteristic", "ExactMatrix": "rows", "MisList": "sets",
    "ReportSection": "characteristic", "Prediction": "value", "CheckReport": "check",
    "FamilySpec": "kind", "ReportDocument": "graph",
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestEveryRecord:
    def test_equality_hash_and_dict_key(self, name):
        make, make_equal, make_other = CASES[name]
        a, b, c = make(), make_equal(), make_other()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != c and c != a
        table = {a: "first"}
        table[b] = "second"
        assert table == {a: "second"} and table[make_equal()] == "second"
        assert c not in table
        assert a != object() and a != "x"

    def test_immutable(self, name):
        record = CASES[name][0]()
        field = FIRST_FIELD.get(name, "n")
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.elsewhere = 1
        assert getattr(record, field) is value

    def test_kind(self, name):
        record = CASES[name][0]()
        # a named tuple unpacks and equals the plain tuple of its fields;
        # the other records are no tuples
        assert isinstance(record, tuple) == (name not in EXPLICIT)
        if isinstance(record, tuple):
            assert record == tuple(getattr(record, f) for f in record._fields)
            assert [*record] == [getattr(record, f) for f in record._fields]


def test_reprs_and_strs_are_unchanged():
    assert str(FieldSpec(2)) == "GF(2)" and str(FieldSpec()) == "Q"
    assert repr(FieldSpec(0)) == "FieldSpec(characteristic=0)"
    assert str(FamilySpec("crown", (5,))) == "crown:5"
    assert str(FamilySpec("petersen")) == "petersen"
    assert repr(FamilySpec("crown", (5,))) == "FamilySpec(kind='crown', params=(5,))"
    assert repr(ExactMatrix(1, 2, (1, 2))) == "ExactMatrix(rows=1, cols=2, entries=(1, 2))"
    assert repr(MisList(((0,), (1,)), 2)) == "MisList(sets=((0,), (1,)), graph_n=2)"
    assert repr(Graph(2, (2, 1))) == "Graph(n=2, adj=(frozenset({1}), frozenset({0})))"
    assert repr(ReportSection(0, 1, 2, 3, 4, ("1 2",))) == (
        "ReportSection(characteristic=0, mis_count=1, diff_rank=2, wcdim=3, sum_rank=4, "
        "basis_lines=('1 2',))"
    )
    assert repr(Prediction(1, "x")) == "Prediction(value=1, source='x', conditions=())"
    assert repr(CheckReport("a", "b", (0,), (1,), (1,), "pass")) == (
        "CheckReport(check='a', instance='b', characteristics=(0,), predicted=(1,), "
        "engine=(1,), verdict='pass', detail='')"
    )


@pytest.mark.parametrize("build, message", [
    (lambda: FieldSpec(4), "characteristic must be 0 or a prime, got 4"),
    (lambda: FieldSpec(True), "characteristic must be an int, got True"),
    (lambda: FieldSpec("2"), "characteristic must be an int, got '2'"),
    (lambda: FieldSpec(-3), "characteristic must be 0 or a prime, got -3"),
    (lambda: FieldSpec(2**31), "prime characteristic must be below 2^31, got 2147483648"),
    (lambda: Graph(1, (1,)), "self-loop at vertex 0"),
    (lambda: Graph(2, (2, 0)), "asymmetric adjacency between 1 and 0"),
    (lambda: Graph(2, (4, 0)), "neighbour 2 of vertex 0 out of range"),
    (lambda: Graph(3, (0, 0)), "adjacency length 2 != n = 3"),
    (lambda: Graph(2, (-1, 0)), "adjacency of vertex 0 is not a non-negative bitmask: -1"),
    (lambda: ExactMatrix(2, 2, (1, 2, 3)), "2x2 matrix needs 4 entries, got 3"),
    (lambda: ExactMatrix(-1, 0, ()), "matrix dimensions must be non-negative"),
])
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_unchecked_graph_equals_the_checked_one():
    for g in (crown(5), path(7), Graph(0, ())):
        h = Graph.unchecked(g.n, g.masks)
        assert h == Graph(g.n, g.masks) == g and hash(h) == hash(g)
        assert vars(h) == vars(Graph(g.n, list(g.masks)))
    assert Graph(2, [2, 1]).masks == (2, 1)


def test_cached_properties_are_kept_in_the_instance():
    g = crown(3)
    assert "adj" not in vars(g)
    assert g.adj is g.adj and vars(g)["adj"] == g.adj
    section = ReportSection(0, 2, 1, 2, basis_lines=("1 1/2",))
    assert section.basis is section.basis
    assert section == ReportSection(0, 2, 1, 2, basis_lines=("1 1/2",))


SRC = Path(wellcovered.__file__).resolve().parents[1]

# what `dataclasses` imports, besides itself
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _fresh(code: str, *flags: str) -> list:
    """What `code` prints as JSON, run in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_a_fresh_import_loads_none_of_what_dataclasses_brings():
    origin, package, cli = _fresh(
        "import json, sys\n"
        "start = set(sys.modules)\n"
        "import wellcovered\n"
        "package = set(sys.modules) - start\n"
        "import wellcovered.cli\n"
        "cli = set(sys.modules) - start - package\n"
        "print(json.dumps([wellcovered.__file__, sorted(package), sorted(cli)]))\n"
    )
    assert Path(origin).resolve() == Path(wellcovered.__file__).resolve()
    assert "wellcovered.engine" in package and "wellcovered.cli" in cli
    assert [m for m in HEAVY if m in package or m in cli] == []


# the package's modules that `import wellcovered` loads: those a `compute` runs
EAGER = [
    "wellcovered", "wellcovered.engine", "wellcovered.errors", "wellcovered.exactlin",
    "wellcovered.graphs", "wellcovered.kernels", "wellcovered.mis", "wellcovered.records",
]


def test_a_fresh_import_loads_exactly_what_compute_runs():
    # -S keeps site's own imports out, so that `fractions` is absent before the import
    package, fractions = _fresh(
        "import json, sys\n"
        "import wellcovered\n"
        "package = sorted(m for m in sys.modules if m.partition('.')[0] == 'wellcovered')\n"
        "print(json.dumps([package, 'fractions' in sys.modules]))\n",
        "-S",
    )
    # so none of batch, families, verify or formulas
    assert package == EAGER
    assert not fractions


def test_a_fresh_import_loads_no_graph_construction_and_no_random():
    # the graphs built from graphs, and random_graph with `random`, load with `families`;
    # the package serves every one it exports, all but disjunctive_product
    left, random_loaded, served = _fresh(
        "import json, sys\n"
        "import wellcovered\n"
        "from wellcovered import graphs\n"
        "moved = ('complement', 'disjoint_union', 'blowup', 'multi_blowup', 'lex_product',\n"
        "         'random_graph', 'disjunctive_product')\n"
        "left = [name for name in moved if hasattr(graphs, name)]\n"
        "random_loaded = 'random' in sys.modules\n"
        "from wellcovered import families\n"
        "served = [getattr(wellcovered, name) is getattr(families, name) for name in moved[:6]]\n"
        "print(json.dumps([left, random_loaded, served]))\n",
        "-S",
    )
    assert left == [] and not random_loaded
    assert served == [True] * 6


def test_every_lazy_name_is_one_object(monkeypatch):
    from importlib import import_module

    from wellcovered import batch, engine, exactlin, families, kernels

    hooks = {
        exactlin: exactlin._BATCH, engine: engine._BATCH, kernels: ("gf_rank",),
        wellcovered: tuple(wellcovered._LAZY),
    }
    # drop what earlier lookups kept, so that every name goes through its module's __getattr__
    for module, names in hooks.items():
        for name in names:
            monkeypatch.delitem(vars(module), name, raising=False)
    assert engine.rank is exactlin.rank is batch.rank
    assert kernels.gf_rank is batch.gf_rank
    assert wellcovered.crown is families.crown
    for module, names in hooks.items():
        for name in names:
            source = (
                import_module(f"wellcovered.{wellcovered._LAZY[name]}")
                if module is wellcovered else batch
            )
            assert getattr(module, name) is getattr(source, name), (module.__name__, name)
    assert set(wellcovered.__all__) <= set(dir(wellcovered))
    # each hook resolves its own names and no others
    for module, name in [
        (wellcovered, "nosuch"), (wellcovered, "rank"), (exactlin, "gf_rank"),
        (engine, "kronecker"), (kernels, "rank"), (exactlin, "nosuch"),
    ]:
        with pytest.raises(AttributeError, match=f"^module {module.__name__!r} has no attribute {name!r}$"):
            getattr(module, name)


# what the engine path leaves unloaded: the verify harness, its closed forms,
# and `fractions` with the `decimal` it imports
LAZY = ("wellcovered.verify", "wellcovered.formulas", "fractions", "decimal")


def test_the_engine_path_loads_no_harness_and_no_fractions():
    # -S keeps site's own imports out, so that none of LAZY is loaded before
    # the package is, and each absence below says something
    start, package, cli, run, code, out = _fresh(
        "import contextlib, io, json, sys\n"
        "start = set(sys.modules)\n"
        "import wellcovered\n"
        "package = set(sys.modules) - start\n"
        "import wellcovered.cli\n"
        "cli = set(sys.modules) - start - package\n"
        "argv = ['compute', 'crown:5', '--char', '0', '--char', '2', '--machine', '--basis']\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = wellcovered.cli.main(argv)\n"
        "run = set(sys.modules) - start - package - cli\n"
        "print(json.dumps([sorted(start), sorted(package), sorted(cli), sorted(run), code,\n"
        "                  out.getvalue()]))\n",
        "-S",
    )
    assert [m for m in LAZY if m in start] == []
    assert "wellcovered.engine" in package and "wellcovered.cli" in cli
    assert [m for m in LAZY if m in package or m in cli or m in run] == []
    assert code == 0 and out.startswith("graph = crown:5\n") and "basis 3 = 1 0 0 0 1 " in out


ALL = [
    "CapacityError", "CheckReport", "DEFAULT_MIS_LIMIT", "FamilySpec", "FieldSpec", "Graph",
    "InputError", "KERNEL_IMPLEMENTATION", "MisList", "RowSpace", "WcdimReport", "blowup",
    "build_family", "complement", "complete", "complete_multipartite", "compute_wcdim",
    "compute_wcdim_fields", "compute_wcdim_sets", "crown", "cycle", "disjoint_union",
    "empty_graph", "enumerate_mis", "gear", "is_independent", "is_maximal_independent",
    "is_well_covered", "is_well_covered_weighting", "lex_product", "multi_blowup", "new_graph",
    "path", "petersen", "random_graph", "relabel", "run_suite", "turan",
]


@pytest.mark.parametrize(
    "first",
    [
        "names = {}; exec('from wellcovered import *', names)",
        "wellcovered.run_suite",
        "from wellcovered import CheckReport",
        "from wellcovered import formulas",
    ],
    ids=["star", "attribute", "from-import", "formulas"],
)
def test_the_harness_names_load_on_first_access(first):
    loaded, after, same, star, all_names, formulas, missing, listed = _fresh(
        "import json, sys\n"
        "import wellcovered\n"
        "loaded = 'wellcovered.verify' in sys.modules\n"
        f"{first}\n"
        "after = sorted(m for m in ('wellcovered.verify', 'wellcovered.formulas') if m in sys.modules)\n"
        "from wellcovered import formulas, verify\n"
        "same = [wellcovered.run_suite is verify.run_suite,\n"
        "        wellcovered.CheckReport is verify.CheckReport]\n"
        "names = {}\n"
        "exec('from wellcovered import *', names)\n"
        "try:\n"
        "    wellcovered.nosuch\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps([loaded, after, same, sorted(set(names) - {'__builtins__'}),\n"
        "                  wellcovered.__all__, formulas.__name__, missing,\n"
        "                  sorted({'run_suite', 'CheckReport'} & set(dir(wellcovered)))]))\n"
    )
    assert not loaded
    # the first access loads the harness, or for `formulas` that module alone
    assert after == (["wellcovered.formulas"] if first.endswith("formulas") else
                     ["wellcovered.formulas", "wellcovered.verify"])
    assert same == [True, True]
    assert star == all_names == ALL
    assert formulas == "wellcovered.formulas"
    assert missing == "module 'wellcovered' has no attribute 'nosuch'"
    assert listed == ["CheckReport", "run_suite"]
