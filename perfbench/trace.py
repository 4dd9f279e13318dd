"""Spans and counts recorded around calls into the package's layers.

`install` replaces public functions with timing wrappers in the namespaces
their callers look them up in (`engine.rank`, `verify.compute_wcdim`,
`kernels.gf_rank`, ...); `uninstall` puts the originals back.  No file of
the package is touched.  Spans are kept in memory as flat columns (name,
parent, job, start, end) and written out once, after the traced pass.
While `Tracer.active` is false the wrappers only forward the call.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter


def _field(args, kwargs) -> str:
    f = args[1] if len(args) > 1 else kwargs.get("f")
    p = f.characteristic
    return "q" if p == 0 else "gf2" if p == 2 else "gfp"


def _rank_name(args, kwargs) -> str:
    return "exactlin.rank." + _field(args, kwargs)


def _nullspace_name(args, kwargs) -> str:
    return "exactlin.nullspace." + _field(args, kwargs)


def _count_enumerate(tracer, result, args, kwargs) -> None:
    tracer.counts["mis.sets"] += len(result)
    tracer.job_graphs.add(args[0])


def _count_assemble(tracer, result, args, kwargs) -> None:
    tracer.counts["engine.rows"] += result.rows


def _count_rank(tracer, result, args, kwargs) -> None:
    tracer.counts["exactlin.rows_in"] += args[0].rows
    tracer.counts["exactlin.pivots"] += result


def _count_nullspace(tracer, result, args, kwargs) -> None:
    m = args[0]
    tracer.counts["exactlin.rows_in"] += m.rows
    tracer.counts["exactlin.pivots"] += m.cols - len(result)


GRAPH_BUILDERS = {
    "cli": ("new_graph", "build_family"),
    "verify": ("build_family", "random_graph", "blowup", "multi_blowup", "disjoint_union", "lex_product"),
    "graphs": ("new_graph", "relabel"),
    "families": (
        "new_graph", "complete", "empty_graph", "complete_multipartite", "turan",
        "crown", "path", "cycle", "gear", "petersen",
    ),
}

# (module, attribute, span name or a function of the call's arguments, count hook)
PATCHES = [
    ("cli", "build_parser", "cli.parse", None),
    ("cli", "load_graph", "cli.parse", None),
    ("cli", "render_machine", "cli.render", None),
    ("cli", "_render_check_machine", "cli.render", None),
    ("cli", "compute_wcdim", "engine.compute", None),
    ("cli", "run_suite", "verify.run_suite", None),
    ("engine", "enumerate_mis", "mis.enumerate", _count_enumerate),
    ("engine", "build_difference_system", "engine.assemble", _count_assemble),
    ("engine", "build_sum_system", "engine.assemble", _count_assemble),
    ("engine", "rank", _rank_name, _count_rank),
    ("engine", "nullspace_basis", _nullspace_name, _count_nullspace),
    ("verify", "compute_wcdim", "engine.compute", None),
    ("verify", "enumerate_mis", "mis.enumerate", _count_enumerate),
    ("verify", "build_sum_system", "engine.assemble", _count_assemble),
    ("verify", "rank", _rank_name, _count_rank),
    ("verify", "kronecker", "exactlin.kron", None),
    ("verify", "reduce_first_row", "exactlin.kron", None),
    ("verify", "move_dependent_row_first", "exactlin.kron", None),
    ("kernels", "maximal_cliques", "kernels.maximal_cliques", None),
    ("kernels", "gf_rank", "kernels.gf_rank", None),
]
PATCHES += [
    ("verify", check, "verify.check", None)
    for check in (
        "check_family", "check_blowup", "check_multi_blowup",
        "check_union", "check_lex", "check_kron_remark",
    )
]
PATCHES += [(mod, attr, "graphs.build", None) for mod, attrs in GRAPH_BUILDERS.items() for attr in attrs]


class Tracer:
    """In-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.job_graphs: set = set()
        self.active = False
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def begin_job(self, index: int) -> int:
        self._job = index
        self.job_graphs = set()
        self.active = True
        return self.open("job")

    def end_job(self, sid: int) -> None:
        self.close(sid)
        self.active = False
        self.counts["mis.graphs"] += len(self.job_graphs)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, count in PATCHES:
            mod = import_module(f"wellcovered.{mod_name}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def spans(self) -> list[tuple[str, int, int, float, float]]:
        """(name, parent id, job, start, end) per span; the id is the index."""
        return [
            (self.names[n], p, j, s, e)
            for n, p, j, s, e in zip(self.name, self.parent, self.job, self.start, self.end)
        ]

    def write(self, path, stamp: dict) -> None:
        doc = {
            "stamp": stamp,
            "columns": ["name", "parent", "job", "start", "end"],
            "names": self.names,
            "spans": [list(col) for col in (self.name, self.parent, self.job, self.start, self.end)],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    `spans` are (name, parent id, job, start, end) with ids given by
    position.  Child intervals are clipped to the parent and merged before
    subtracting, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, speed: float, overhead: float, with_verify: bool) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Times are divided by `speed`, the host's speed relative to the reference
    speed during the pass, like the end-to-end times; `overhead` is the
    traced pass's time over the untraced one's.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    total: Counter = Counter()
    self_total: Counter = Counter()
    calls: Counter = Counter()
    for sid, (name, parent, _, start, end) in enumerate(spans):
        calls[name] += 1
        self_total[name] += selfs[sid]
        # inclusive time counts only the outermost span of each name, so a
        # constructor that calls another constructor is not counted twice
        p = parent
        while p >= 0 and names[p] != name:
            p = spans[p][1]
        if p < 0:
            total[name] += end - start
    c = tracer.counts
    elim_calls = sum(calls[n] for n in calls if n.startswith(("exactlin.rank.", "exactlin.nullspace.")))
    ms = 1000.0 * speed
    m = {}
    for field in ("q", "gf2", "gfp"):
        m[f"exactlin.rank_ms.{field}"] = (total[f"exactlin.rank.{field}"] * ms, "ms")
    for field in ("q", "gf2", "gfp"):
        m[f"exactlin.nullspace_ms.{field}"] = (total[f"exactlin.nullspace.{field}"] * ms, "ms")
    m["exactlin.elim_calls"] = (elim_calls, "count")
    m["exactlin.rows_in"] = (c["exactlin.rows_in"], "count")
    m["exactlin.pivot_ratio"] = (c["exactlin.pivots"] / max(1, c["exactlin.rows_in"]), "ratio")
    m["kernels.gf_rank_ms"] = (total["kernels.gf_rank"] * ms, "ms")
    m["mis.enumerate_ms"] = (total["mis.enumerate"] * ms, "ms")
    m["kernels.maximal_cliques_ms"] = (total["kernels.maximal_cliques"] * ms, "ms")
    m["mis.sets"] = (c["mis.sets"], "count")
    m["mis.calls"] = (calls["mis.enumerate"], "count")
    m["mis.calls_per_graph"] = (calls["mis.enumerate"] / max(1, c["mis.graphs"]), "ratio")
    m["engine.assemble_ms"] = (total["engine.assemble"] * ms, "ms")
    m["engine.rows"] = (c["engine.rows"], "count")
    m["engine.compute_calls"] = (calls["engine.compute"], "count")
    m["engine.self_ms"] = (self_total["engine.compute"] * ms, "ms")
    m["cli.parse_ms"] = (total["cli.parse"] * ms, "ms")
    m["cli.render_ms"] = (total["cli.render"] * ms, "ms")
    m["cli.output_bytes"] = (c["cli.output_bytes"], "bytes")
    m["graphs.build_ms"] = (total["graphs.build"] * ms, "ms")
    if with_verify:
        verify_self = sum(v for n, v in self_total.items() if n.startswith("verify."))
        checks = calls["verify.check"]
        in_checks = _calls_under(spans, "engine.compute", "verify.check")
        m["verify.self_ms"] = (verify_self * ms, "ms")
        m["verify.checks"] = (checks, "count")
        m["verify.engine_calls_per_check"] = (in_checks / max(1, checks), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def _calls_under(spans, name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[1]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][1]
        n += p >= 0
    return n
