"""Command-line front end.

Commands:
  compute   dimension and (optionally) a basis for one graph
  verify    run the formula-vs-engine check suite, or one section of it
  families  list the built-in graph family generators

Graphs come either from a family spec string (grammar: `kind` or
`kind:p1,p2,...`, e.g. `crown:5`, `kpartite:2,3,4`, `petersen`) or from an
edge-list file: a UTF-8 text file with a header line "n m", then m lines
"u v" with 0-based vertex indices; blank lines and lines starting with '#'
are ignored.  A graph has at most `graphs.MAX_VERTICES` vertices.

Exit codes: 0 success, 1 verification failure, 2 input error (including an
unreadable or undecodable file), 3 capacity (including too many vertices).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Sequence

from .engine import WcdimReport, compute_wcdim_fields
from .engine import compute_wcdim  # noqa: F401  (perfbench/trace.py instruments cli.compute_wcdim)
from .errors import CapacityError, InputError
from .exactlin import FieldSpec
from .families import FAMILY_BUILDERS, FamilySpec, build_family
from .graphs import Graph, check_vertex_count
from .graphs import new_graph  # noqa: F401  (perfbench/trace.py instruments cli.new_graph)
from .verify import ALL_CHECKS, DEFAULT_CHARS, CheckReport, run_suite, summarize

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
    """Parse the edge-list file format; duplicate edges are rejected.

    Each edge sets its two adjacency bits as its line is read, so every
    check runs once, here: a duplicate is a bit already set.  A header
    above MAX_VERTICES raises CapacityError before anything per vertex is
    allocated.
    """
    header: tuple[int, int] | None = None
    masks: list[int] = []
    n = found = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise InputError(f"{name} line {lineno}: expected two integers, got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            got = raw.strip()
            raise InputError(f"{name} line {lineno}: expected two integers, got {got!r}") from None
        if header is None:
            if u < 0 or v < 0:
                raise InputError(f"{name} line {lineno}: header counts must be non-negative")
            check_vertex_count(u, f"{name} line {lineno}: the graph")
            header = (u, v)
            n = u
            masks = [0] * n
            continue
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{name} line {lineno}: vertex index out of range for n = {n}")
        if u == v:
            raise InputError(f"{name} line {lineno}: self-loop {u} {v}")
        if masks[u] >> v & 1:
            raise InputError(f"{name} line {lineno}: duplicate edge {u} {v}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        found += 1
    if header is None:
        raise InputError(f"{name}: missing header line 'n m'")
    if found != header[1]:
        raise InputError(f"{name}: header promises {header[1]} edges, found {found}")
    return Graph.unchecked(n, tuple(masks))


def load_graph(source: str) -> tuple[Graph, str]:
    """Resolve a CLI input to (graph, descriptor): family spec first, then file.

    The file is read as UTF-8; a file that is not, or that cannot be read,
    raises InputError naming it.
    """
    m = _SPEC_RE.match(source.strip())
    if m and m.group(1) in FAMILY_BUILDERS:
        spec = parse_family_spec(source)
        return build_family(spec), str(spec)
    path = Path(source)
    if not path.is_file():
        raise InputError(f"{source!r} is neither a known family spec nor a readable file")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot be read ({exc.strerror or exc})") from None
    return parse_graph_file(text, name=str(path)), str(path)


# ---------------------------------------------------------------------------
# report documents


@dataclass(frozen=True)
class ReportSection:
    """One field's counts and, when asked for, its basis as the lines it prints as.

    `basis_lines` holds each basis vector's entries as `str` prints them,
    joined by spaces; `basis` parses them back into Fraction vectors.
    """

    characteristic: int
    mis_count: int
    diff_rank: int
    wcdim: int
    sum_rank: int | None = None
    basis_lines: tuple[str, ...] | None = None

    @functools.cached_property
    def basis(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The basis vectors, with Fraction entries in every field."""
        if self.basis_lines is None:
            return None
        return tuple(tuple(Fraction(x) for x in line.split()) for line in self.basis_lines)


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
        basis_lines=r.basis_lines if with_basis else None,
    )


def render_machine(doc: ReportDocument) -> str:
    """Line-oriented key-value form; parse_machine inverts it exactly.

    Each basis line is a section's `basis_lines` entry as it stands, so the
    basis is never formatted here.
    """
    lines = [f"graph = {doc.graph}", f"n = {doc.n}", f"edge_count = {doc.edge_count}"]
    for s in doc.sections:
        lines.append(f"characteristic = {s.characteristic}")
        lines.append(f"mis_count = {s.mis_count}")
        lines.append(f"diff_rank = {s.diff_rank}")
        lines.append(f"wcdim = {s.wcdim}")
        if s.sum_rank is not None:
            lines.append(f"sum_rank = {s.sum_rank}")
        if s.basis_lines is not None:
            lines.append(f"basis_size = {len(s.basis_lines)}")
            lines.extend(f"basis {idx} = {line}" for idx, line in enumerate(s.basis_lines))
    return "\n".join(lines) + "\n"


def _integer(key: str, value: str) -> int:
    """The value of an integer line, which must read as `str` prints the integer."""
    try:
        x = int(value)
    except ValueError:
        x = None
    if x is None or str(x) != value:
        raise InputError(f"{key} = {value!r}: expected an integer")
    return x


def _basis_line(value: str, n: int, checked: set[str]) -> str:
    """One basis line: n entries, each a number as `str` prints its Fraction.

    `checked` holds the entries already found well formed.
    """
    entries = value.split()
    if len(entries) != n:
        raise InputError(f"basis vector {value!r} has {len(entries)} entries, not n = {n}")
    for x in entries:
        if x not in checked:
            try:
                ok = str(Fraction(x)) == x
            except (ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                raise InputError(f"basis entry {x!r} is not a number in lowest terms")
            checked.add(x)
    return " ".join(entries)


def parse_machine(text: str) -> ReportDocument:
    """Parse the machine-readable form back into a ReportDocument.

    The lines must come in the order render_machine prints them, each value
    as it prints it: integers and basis entries in lowest terms, exactly
    basis_size basis lines numbered from 0, each with n entries.  Blank lines
    and spaces around keys and values are skipped.  Anything else raises
    InputError, so render_machine gives back every text this accepts, up to
    those blanks and spaces.
    """
    pairs = []
    for raw in text.splitlines():
        if raw.strip():
            key, _, value = raw.partition(" = ")
            pairs.append((key.strip(), value.strip(), raw))
    pos = 0

    def take(key: str) -> str:
        nonlocal pos
        if pos == len(pairs) or pairs[pos][0] != key:
            got = repr(pairs[pos][2]) if pos < len(pairs) else "the end of the report"
            raise InputError(f"expected a {key} line, got {got}")
        pos += 1
        return pairs[pos - 1][1]

    def integer(key: str) -> int:
        return _integer(key, take(key))

    def optional(key: str) -> int | None:
        return integer(key) if pos < len(pairs) and pairs[pos][0] == key else None

    graph = take("graph")
    n = integer("n")
    edge_count = integer("edge_count")
    sections = []
    checked: set[str] = set()
    while pos < len(pairs):
        characteristic = integer("characteristic")
        counts = [integer(key) for key in ("mis_count", "diff_rank", "wcdim")]
        sum_rank = optional("sum_rank")
        size = optional("basis_size")
        lines = None
        if size is not None:
            if size < 0:
                raise InputError(f"basis_size = {size}: expected a count")
            lines = tuple(_basis_line(take(f"basis {i}"), n, checked) for i in range(size))
        sections.append(ReportSection(characteristic, *counts, sum_rank, lines))
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
        if s.basis_lines is not None:
            lines.extend("    basis " + line for line in s.basis_lines)
    return "\n".join(lines) + "\n"


def render_stats(
    g: Graph, input_ms: float, reports: Sequence[WcdimReport], output_ms: float, basis_lines: int
) -> str:
    """Where one compute's time and rows went: the input, the enumeration,
    one line per field, then the output.

    The input line times reading and parsing the file, or building the
    family, and gives the graph's vertex and edge counts.  The enumeration
    line counts the quotients the decomposition enumerated (pieces) and
    gives the exact set count, not the number of rows fed.  The output line
    times reading the basis off the row spaces and rendering the report,
    and counts the basis lines printed.
    """
    first = reports[0].stats
    pieces = f"{first.pieces} piece" + ("" if first.pieces == 1 else "s")
    lines = [
        f"stats: input in {input_ms:.3f} ms, n = {g.n}, m = {g.edge_count}",
        f"stats: enumeration of {pieces} in {first.enumerate_ms:.3f} ms, {first.sets} sets",
    ]
    for r in reports:
        s = r.stats
        lines.append(
            f"stats: {r.field}: {s.method}, elimination {s.elimination_ms:.3f} ms, "
            f"rows fed {s.rows_fed}, kept {s.rows_kept}, vanished {s.rows_vanished}, "
            f"stopped at full rank: {'yes' if s.stopped_at_full_rank else 'no'}"
        )
    plural = "" if basis_lines == 1 else "s"
    lines.append(f"stats: basis and render in {output_ms:.3f} ms, {basis_lines} basis line{plural}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _field_args(chars: Sequence[int] | None) -> list[FieldSpec]:
    return [FieldSpec(c) for c in (chars if chars else [0])]


def cmd_compute(args: argparse.Namespace) -> int:
    start = perf_counter()
    g, descriptor = load_graph(args.input)
    input_ms = (perf_counter() - start) * 1e3
    reports = compute_wcdim_fields(g, _field_args(args.char), with_sum_rank=args.verbose)
    start = perf_counter()
    sections = [_section_from_report(r, args.basis) for r in reports]
    doc = ReportDocument(descriptor, g.n, g.edge_count, tuple(sections))
    out = render_machine(doc) if args.machine else render_text(doc, args.verbose)
    output_ms = (perf_counter() - start) * 1e3
    sys.stdout.write(out)
    if args.stats:
        basis_lines = sum(len(s.basis_lines or ()) for s in sections)
        sys.stderr.write(render_stats(g, input_ms, reports, output_ms, basis_lines))
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


# the command line spells each section without its hyphen: `verify multiblowup`
_SECTION_ARGS = {name.replace("-", ""): name for name in ALL_CHECKS}


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(
        seed=args.seed,
        chars=args.char or DEFAULT_CHARS,
        checks=ALL_CHECKS if args.selector == "all" else (_SECTION_ARGS[args.selector],),
        family_kind=args.kind,
        family_max_n=args.max_n,
        trials=args.trials,
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
    for kind, family in FAMILY_BUILDERS.items():
        spec = f"{kind}:{family.params}" if family.params else kind
        sys.stdout.write(f"{spec:22} {family.about}\n")
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
        choices=["all", *_SECTION_ARGS],
    )
    p_verify.add_argument("kind", nargs="?", help="family kind (restricts the family section)")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--max-n", type=int, default=None, help="family sweep upper bound")
    p_verify.add_argument(
        "--trials", type=int, default=None,
        help="random trials in every section that draws them (default: each section's own)",
    )
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
