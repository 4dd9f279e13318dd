"""Command-line front end.

Commands:
  compute   dimension and (optionally) a basis for one graph
  verify    run the formula-vs-engine check suite, or one section of it
  families  list the built-in graph family generators

Graphs come either from a family spec string (grammar: `kind` or
`kind:p1,p2,...`, e.g. `crown:5`, `kpartite:2,3,4`, `petersen`) or from an
edge-list file: a header line "n m", then m lines "u v" with 0-based vertex
indices; blank lines and lines starting with '#' are ignored.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 capacity.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .engine import WcdimReport, compute_wcdim_fields
from .engine import compute_wcdim  # noqa: F401  (perfbench/trace.py instruments cli.compute_wcdim)
from .errors import CapacityError, InputError
from .exactlin import FieldSpec, Scalar
from .families import FAMILY_BUILDERS, FamilySpec, build_family
from .graphs import Graph, new_graph
from .verify import ALL_CHECKS, CheckReport, run_suite, summarize

_SPEC_RE = re.compile(r"^([a-z-]+)(?::(\d+(?:,\d+)*))?$")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical textual form, e.g. 'crown:5' or 'petersen'."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise InputError(f"malformed family spec {text!r} (expected kind or kind:p1,p2,...)")
    kind = m.group(1)
    if kind not in FAMILY_BUILDERS:
        raise InputError(f"unknown graph family {kind!r}")
    params = tuple(int(p) for p in m.group(2).split(",")) if m.group(2) else ()
    return FamilySpec(kind, params)


def parse_graph_file(text: str, name: str = "<input>") -> Graph:
    """Parse the edge-list file format; duplicate edges are rejected."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{name} line {lineno}: expected two integers, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{name} line {lineno}: expected two integers, got {line!r}") from None
        if header is None:
            if u < 0 or v < 0:
                raise InputError(f"{name} line {lineno}: header counts must be non-negative")
            header = (u, v)
            continue
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{name} line {lineno}: vertex index out of range for n = {n}")
        if u == v:
            raise InputError(f"{name} line {lineno}: self-loop {u} {v}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"{name} line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if header is None:
        raise InputError(f"{name}: missing header line 'n m'")
    if len(edges) != header[1]:
        raise InputError(f"{name}: header promises {header[1]} edges, found {len(edges)}")
    return new_graph(header[0], edges)


def load_graph(source: str) -> tuple[Graph, str]:
    """Resolve a CLI input to (graph, descriptor): family spec first, then file."""
    m = _SPEC_RE.match(source.strip())
    if m and m.group(1) in FAMILY_BUILDERS:
        spec = parse_family_spec(source)
        return build_family(spec), str(spec)
    path = Path(source)
    if not path.is_file():
        raise InputError(f"{source!r} is neither a known family spec nor a readable file")
    return parse_graph_file(path.read_text(), name=str(path)), str(path)


# ---------------------------------------------------------------------------
# report documents


@dataclass(frozen=True)
class ReportSection:
    characteristic: int
    mis_count: int
    diff_rank: int
    wcdim: int
    sum_rank: int | None = None
    basis: tuple[tuple[Scalar, ...], ...] | None = None


@dataclass(frozen=True)
class ReportDocument:
    graph: str
    n: int
    edge_count: int
    sections: tuple[ReportSection, ...]


def _section_from_report(r: WcdimReport, with_basis: bool) -> ReportSection:
    return ReportSection(
        characteristic=r.field.characteristic,
        mis_count=r.mis_count,
        diff_rank=r.diff_rank,
        wcdim=r.wcdim,
        sum_rank=r.sum_rank,
        basis=r.basis if with_basis else None,
    )


def render_machine(doc: ReportDocument) -> str:
    """Line-oriented key-value form; parse_machine inverts it exactly."""
    lines = [f"graph = {doc.graph}", f"n = {doc.n}", f"edge_count = {doc.edge_count}"]
    for s in doc.sections:
        lines.append(f"characteristic = {s.characteristic}")
        lines.append(f"mis_count = {s.mis_count}")
        lines.append(f"diff_rank = {s.diff_rank}")
        lines.append(f"wcdim = {s.wcdim}")
        if s.sum_rank is not None:
            lines.append(f"sum_rank = {s.sum_rank}")
        if s.basis is not None:
            lines.append(f"basis_size = {len(s.basis)}")
            for idx, vec in enumerate(s.basis):
                lines.append(f"basis {idx} = " + " ".join(str(x) for x in vec))
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> ReportDocument:
    """Parse the machine-readable form back into a ReportDocument."""
    graph = None
    n = edge_count = None
    sections: list[ReportSection] = []
    cur: dict | None = None

    def flush() -> None:
        if cur is not None:
            basis = cur.get("basis")
            sections.append(
                ReportSection(
                    characteristic=cur["characteristic"],
                    mis_count=cur["mis_count"],
                    diff_rank=cur["diff_rank"],
                    wcdim=cur["wcdim"],
                    sum_rank=cur.get("sum_rank"),
                    basis=tuple(basis) if basis is not None else None,
                )
            )

    for raw in text.splitlines():
        if not raw.strip():
            continue
        key, _, value = raw.partition(" = ")
        key, value = key.strip(), value.strip()
        if key == "graph":
            graph = value
        elif key == "n":
            n = int(value)
        elif key == "edge_count":
            edge_count = int(value)
        elif key == "characteristic":
            flush()
            cur = {"characteristic": int(value)}
        elif key in ("mis_count", "diff_rank", "wcdim", "sum_rank"):
            if cur is None:
                raise InputError(f"{key} line before any characteristic block")
            cur[key] = int(value)
        elif key == "basis_size":
            if cur is None:
                raise InputError("basis_size line before any characteristic block")
            cur["basis"] = []
        elif key.startswith("basis "):
            if cur is None or "basis" not in cur:
                raise InputError("basis line before its basis_size header")
            vec = tuple(Fraction(tok) for tok in value.split())
            cur["basis"].append(vec)
        else:
            raise InputError(f"unrecognised machine report line {raw!r}")
    flush()
    if graph is None or n is None or edge_count is None:
        raise InputError("machine report is missing its graph header")
    return ReportDocument(graph, n, edge_count, tuple(sections))


def render_text(doc: ReportDocument, verbose: bool) -> str:
    lines = [f"graph {doc.graph}: {doc.n} vertices, {doc.edge_count} edges"]
    for s in doc.sections:
        field = "Q" if s.characteristic == 0 else f"GF({s.characteristic})"
        line = f"  over {field}: wcdim = {s.wcdim}"
        if verbose:
            line += f"  (maximal independent sets: {s.mis_count}, difference rank: {s.diff_rank}"
            if s.sum_rank is not None:
                line += f", sum rank: {s.sum_rank}"
            line += ")"
        lines.append(line)
        if s.basis is not None:
            for vec in s.basis:
                lines.append("    basis " + " ".join(str(x) for x in vec))
    return "\n".join(lines) + "\n"


def render_stats(reports: Sequence[WcdimReport]) -> str:
    """Where one compute's time and rows went: the enumeration, then one line per field.

    The enumeration line counts the quotients the decomposition enumerated
    (pieces) and gives the exact set count, not the number of rows fed.
    """
    first = reports[0].stats
    pieces = f"{first.pieces} piece" + ("" if first.pieces == 1 else "s")
    lines = [f"stats: enumeration of {pieces} in {first.enumerate_ms:.3f} ms, {first.sets} sets"]
    for r in reports:
        s = r.stats
        lines.append(
            f"stats: {r.field}: {s.method}, elimination {s.elimination_ms:.3f} ms, "
            f"rows fed {s.rows_fed}, kept {s.rows_kept}, vanished {s.rows_vanished}, "
            f"stopped at full rank: {'yes' if s.stopped_at_full_rank else 'no'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _field_args(chars: Sequence[int] | None) -> list[FieldSpec]:
    return [FieldSpec(c) for c in (chars if chars else [0])]


def cmd_compute(args: argparse.Namespace) -> int:
    g, descriptor = load_graph(args.input)
    reports = compute_wcdim_fields(g, _field_args(args.char), with_sum_rank=args.verbose)
    sections = [_section_from_report(r, args.basis) for r in reports]
    doc = ReportDocument(descriptor, g.n, g.edge_count, tuple(sections))
    if args.machine:
        sys.stdout.write(render_machine(doc))
    else:
        sys.stdout.write(render_text(doc, args.verbose))
    if args.stats:
        sys.stderr.write(render_stats(reports))
    return 0


def _render_check_machine(reports: Sequence[CheckReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"check = {r.check}")
        lines.append(f"instance = {r.instance}")
        lines.append("characteristics = " + " ".join(str(c) for c in r.characteristics))
        lines.append("predicted = " + " ".join(str(v) for v in r.predicted))
        lines.append("engine = " + " ".join(str(v) for v in r.engine))
        lines.append(f"verdict = {r.verdict}")
        if r.detail:
            lines.append(f"detail = {r.detail}")
    return "\n".join(lines) + "\n"


def _render_check_text(reports: Sequence[CheckReport]) -> str:
    lines = []
    for r in reports:
        status = r.verdict.upper()
        line = f"[{status:4}] {r.check:13} {r.instance}"
        if r.verdict != "pass":
            line += f"  predicted={list(r.predicted)} engine={list(r.engine)}"
            if r.detail:
                line += f"  ({r.detail})"
        lines.append(line)
    passes, fails, skips = summarize(reports)
    lines.append(f"{passes} passed, {fails} failed, {skips} skipped")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    selector = args.selector
    checks = ALL_CHECKS if selector == "all" else (
        {"multiblowup": "multi-blowup"}.get(selector, selector),
    )
    kind = args.kind
    if kind is not None and selector != "family":
        raise InputError("a family kind is only valid after 'verify family'")
    trials = {}
    if args.trials is not None:
        trials = dict(
            blowup_trials=args.trials,
            multi_blowup_trials=args.trials,
            lex_trials=args.trials,
            union_trials=args.trials,
            kron_trials=args.trials,
        )
    chars = tuple(args.char) if args.char else None
    reports = run_suite(
        seed=args.seed,
        chars=chars if chars is not None else (0, 2, 3, 5, 7),
        checks=checks,
        family_kind=kind,
        family_max_n=args.max_n,
        **trials,
    )
    if args.machine:
        sys.stdout.write(_render_check_machine(reports))
    else:
        sys.stdout.write(_render_check_text(reports))
    _, fails, skips = summarize(reports)
    if fails:
        return 1
    if skips:
        return 3
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    rows = [
        ("complete:n", "complete graph on n vertices"),
        ("empty:n", "edgeless graph on n vertices"),
        ("kpartite:s1,s2,...", "complete multipartite graph with the given block sizes"),
        ("turan:n,r", "Turan graph: r blocks on n vertices, sizes as equal as possible"),
        ("crown:n", "complete bipartite K_{n,n} minus a perfect matching"),
        ("path:n", "path on n vertices"),
        ("cycle:n", "cycle on n vertices (n >= 3)"),
        ("gear:n", "2n-cycle plus a hub adjacent to the even rim vertices"),
        ("petersen", "the Petersen graph"),
    ]
    for spec, desc in rows:
        sys.stdout.write(f"{spec:22} {desc}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcovered",
        description="Exact well-covered dimension of graphs over Q and GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute the dimension of one graph")
    p_compute.add_argument("input", help="family spec (e.g. crown:5) or edge-list file")
    p_compute.add_argument(
        "--char", type=int, action="append",
        help="field characteristic, repeatable (default: 0)",
    )
    p_compute.add_argument("--basis", action="store_true", help="print the space basis")
    p_compute.add_argument("--verbose", action="store_true", help="include system ranks")
    p_compute.add_argument("--machine", action="store_true", help="machine-readable output")
    p_compute.add_argument(
        "--stats", action="store_true",
        help="print per-stage times and row counts on stderr",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run formula-vs-engine checks")
    p_verify.add_argument(
        "selector",
        choices=["all", "family", "blowup", "multiblowup", "lex", "union", "kron"],
    )
    p_verify.add_argument("kind", nargs="?", help="family kind (with 'verify family')")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--max-n", type=int, default=None, help="family sweep upper bound")
    p_verify.add_argument("--trials", type=int, default=None, help="random trials per check")
    p_verify.add_argument("--char", type=int, action="append", help="restrict characteristics")
    p_verify.add_argument("--machine", action="store_true", help="machine-readable output")
    p_verify.set_defaults(func=cmd_verify)

    p_fam = sub.add_parser("families", help="list the graph family generators")
    p_fam.set_defaults(func=cmd_families)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused by every later one."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
