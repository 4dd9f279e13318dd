"""Command-line front end.

Commands:
  compute   dimension and (optionally) a basis for one graph
  verify    run the formula-vs-engine check suite, or one section of it
  families  list the built-in graph family generators

Graphs come either from a family spec string (grammar: `kind` or
`kind:p1,p2,...`, e.g. `crown:5`, `kpartite:2,3,4`, `petersen`) or from an
edge-list file: a regular UTF-8 text file with a header line "n m", then m
lines "u v" with 0-based vertex indices; blank lines and lines starting with
'#' are ignored.  A graph has at most `graphs.MAX_VERTICES` vertices.

Exit codes: 0 success, 1 verification failure, 2 input error (including a
path that names no regular file, and a file the OS will not open or read or
that is not UTF-8), 3 capacity (including too many vertices).

Positionals and options may come in any order.  A plain command line is
read straight off the command parser's actions; any other spelling goes
through argparse's intermixed parse, with its messages and exit codes.

Importing this module loads only the engine: the verify harness loads when
the `verify` command runs (`run_suite` here is the call it goes through),
and `fractions` only where a `Fraction` is built, in `ReportSection.basis`
and in `parse_machine`'s check of basis entries.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import stat
import sys
import warnings
from time import perf_counter
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .engine import WcdimReport, compute_wcdim_fields
from .engine import compute_wcdim  # noqa: F401  (perfbench/trace.py instruments cli.compute_wcdim)
from .errors import CapacityError, InputError
from .exactlin import FieldSpec
from .families import FAMILY_BUILDERS, FamilySpec, build_family
from .graphs import MAX_VERTICES, Graph, check_vertex_count
from .graphs import new_graph  # noqa: F401  (perfbench/trace.py instruments cli.new_graph)
from .records import Record

if TYPE_CHECKING:
    from fractions import Fraction

    from .verify import CheckReport

_SPEC_RE = re.compile(r"^([a-z-]+)(?::(\d+(?:,\d+)*))?$")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical textual form, e.g. 'crown:5' or 'petersen'."""
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise InputError(f"malformed family spec {text!r} (expected kind or kind:p1,p2,...)")
    kind = m.group(1)
    if kind not in FAMILY_BUILDERS:
        raise InputError(f"unknown graph family {kind!r}")
    params = []
    for i, p in enumerate(m.group(2).split(",") if m.group(2) else (), 1):
        try:
            params.append(int(p))
        except ValueError:  # more digits than the interpreter converts to an int
            raise InputError(
                f"parameter {i} of {kind!r} has {len(p)} digits, too many to read as an integer"
            ) from None
    return FamilySpec(kind, tuple(params))


# The layout `perfbench` writes its inputs in: a header line and one line
# per edge, each two runs of ASCII digits joined by one space and ended by
# '\n'.  Only such a text takes the bulk path; `_parse_canonical` checks
# the layout with this table, which deletes the ASCII digits.
_DROP_DIGITS = str.maketrans("", "", "0123456789")


def parse_graph_file(text: str, name: str = "<input>") -> Graph:
    """Parse the edge-list file format; duplicate edges are rejected.

    A text in the canonical layout (see `_parse_canonical`: no comments, blank
    lines or other whitespace) is validated in bulk: each endpoint token is
    converted and range-checked by one lookup in a table of the strings of
    0..n-1, and each edge sets its two adjacency bits with no test, so a
    self-loop or a repeated edge shows only as a total popcount below 2m.
    Any other text, and any canonical one that fails a check, is parsed by
    `_parse_lines`, which words every error and names its line.  A header
    above MAX_VERTICES raises CapacityError before anything per vertex is
    allocated.
    """
    g = _parse_canonical(text)
    return g if g is not None else _parse_lines(text, name)


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a canonical text that passes every check, else None."""
    tokens = text.split()
    if len(tokens) < 2:
        return None
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:  # not an integer, or a header past int()'s digit limit
        return None
    # the layout: with its ASCII digits deleted the text is m + 1 lines " \n",
    # which leaves 2m + 3 places for digit runs; a final '\n' empties the
    # last, and then 2m + 2 tokens fill every other one.  The token count
    # goes first, as it bounds m by the length of the text
    if (
        len(tokens) != 2 * m + 2
        or text[-1:] != "\n"
        or text.translate(_DROP_DIGITS) != " \n" * (m + 1)
    ):
        return None
    if n > MAX_VERTICES:
        return None
    del tokens[:2]
    table = {str(v): v for v in range(n)}
    try:
        ends = list(map(table.__getitem__, tokens))
    except KeyError:  # a leading zero, or an endpoint >= n
        return None
    bit = [1 << v for v in range(n)]
    masks = [0] * n
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        masks[u] |= bit[v]
        masks[v] |= bit[u]
    # of m edge lines, a self-loop sets one new bit, not two, and a repeated
    # edge none, so exactly then fewer than 2m bits are set
    if sum(map(int.bit_count, masks)) != 2 * m:
        return None
    return Graph.unchecked(n, tuple(masks))


def _parse_lines(text: str, name: str = "<input>") -> Graph:
    """Parse the edge-list file format line by line, naming the line of each error.

    Each edge sets its two adjacency bits as its line is read, so every
    check runs once, here: a duplicate is a bit already set.
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

    The file is read as UTF-8 by `_read_file`; a path that names no regular
    file, or a file that is not UTF-8 or cannot be read, raises InputError.
    """
    m = _SPEC_RE.match(source.strip())
    if m and m.group(1) in FAMILY_BUILDERS:
        spec = parse_family_spec(source)
        return build_family(spec), str(spec)
    name = _path_text(source)
    text = _read_file(name)
    if text is None:
        raise InputError(f"{source!r} is neither a known family spec nor a readable file")
    return parse_graph_file(text, name=name), name


def _path_text(source: str) -> str:
    """What `str(pathlib.Path(source))` gives, made without the object.

    On POSIX that drops every empty and "." component, keeps a root of
    exactly two slashes and makes any other root one slash, and gives "."
    for nothing left.  Elsewhere the path flavour does more, so it is asked.
    """
    if os.sep != "/":
        from pathlib import Path

        return str(Path(source))
    parts = source.split("/")
    if "" not in parts and "." not in parts:
        return source
    slashes = len(source) - len(source.lstrip("/"))
    root = "//" if slashes == 2 else "/" * (slashes > 0)
    return root + "/".join(part for part in parts if part and part != ".") or "."


# O_NONBLOCK keeps the open of a FIFO from waiting for a writer; the fstat
# then turns it away, as it does every other file that is not regular
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)
# open() errors that say no file is there: a missing path, a path through a
# file, a symlink loop, and a socket or a device node with no device behind it
_NO_FILE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO})
# the least each read asks for: st_size is only a hint, and reads 0 for a
# /proc file
_MIN_READ = 1 << 13


def _read_file(name: str) -> str | None:
    """The UTF-8 text of the regular file `name`, or None if no regular file is there.

    One open, one fstat, reads until end of file, one decode.  A NUL byte in
    the path, or an open error of `_NO_FILE`, gives None; any other OS error
    raises InputError "cannot be read", and text that is not UTF-8 raises
    InputError "not UTF-8 text".
    """
    try:
        fd = os.open(name, _OPEN_FLAGS)
    except ValueError:  # an embedded NUL byte
        return None
    except OSError as exc:
        if exc.errno in _NO_FILE:
            return None
        raise InputError(f"{name}: cannot be read ({exc.strerror or exc})") from None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            return None
        size = max(st.st_size + 1, _MIN_READ)
        chunks = []
        while chunk := os.read(fd, size):
            chunks.append(chunk)
    except OSError as exc:
        raise InputError(f"{name}: cannot be read ({exc.strerror or exc})") from None
    finally:
        os.close(fd)
    try:
        return b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# ---------------------------------------------------------------------------
# report documents


class ReportSection(Record):
    """One field's counts and, when asked for, its basis as the lines it prints as.

    `basis_lines` holds each basis vector's entries as `str` prints them,
    joined by spaces; `basis` parses them back into Fraction vectors.
    """

    _fields = ("characteristic", "mis_count", "diff_rank", "wcdim", "sum_rank", "basis_lines")
    characteristic: int
    mis_count: int
    diff_rank: int
    wcdim: int
    sum_rank: int | None
    basis_lines: tuple[str, ...] | None

    def __init__(
        self, characteristic: int, mis_count: int, diff_rank: int, wcdim: int,
        sum_rank: int | None = None, basis_lines: tuple[str, ...] | None = None,
    ) -> None:
        self.__dict__.update(
            characteristic=characteristic, mis_count=mis_count, diff_rank=diff_rank,
            wcdim=wcdim, sum_rank=sum_rank, basis_lines=basis_lines,
        )

    @functools.cached_property
    def basis(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The basis vectors, with Fraction entries in every field."""
        if self.basis_lines is None:
            return None
        from fractions import Fraction

        return tuple(tuple(Fraction(x) for x in line.split()) for line in self.basis_lines)


class ReportDocument(NamedTuple):
    graph: str
    n: int
    edge_count: int
    sections: tuple[ReportSection, ...]


def _section_from_report(r: WcdimReport, with_basis: bool, verbose: bool) -> ReportSection:
    return ReportSection(
        characteristic=r.field.characteristic,
        mis_count=r.mis_count,
        diff_rank=r.diff_rank,
        wcdim=r.wcdim,
        sum_rank=r.sum_rank if verbose else None,
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
    from fractions import Fraction

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
    g: Graph, input_ms: float, reports: Sequence[WcdimReport],
    basis_ms: float, render_ms: float, basis_lines: int,
) -> str:
    """Where one compute's time and rows went: the input, the enumeration,
    one line per field, then the output.

    The input line times reading and parsing the file, or building the
    family, and gives the graph's vertex and edge counts.  The enumeration
    line counts the quotients the decomposition enumerated (pieces) and
    gives the exact set count, not the number of rows fed.  When every
    field was eliminated on its own, the integer pass over Q that ran first
    and bounded their rows gets a line of its own before theirs, so the
    lines add up to the run.  The output line times reading the basis off
    the row spaces, then rendering the report, and counts the basis lines
    printed.
    """
    first, sets = reports[0].stats, reports[0].mis_count
    pieces = f"{first.pieces} piece" + ("" if first.pieces == 1 else "s")
    lines = [
        f"stats: input in {input_ms:.3f} ms, n = {g.n}, m = {g.edge_count}",
        f"stats: enumeration of {pieces} in {first.enumerate_ms:.3f} ms, {sets} sets",
    ]
    if all(r.stats.integer for r in reports):
        w = first.integer
        lines.append(
            f"stats: Q (not requested): integer, elimination {w.elimination_ms:.3f} ms, "
            f"rows fed {w.rows_fed}, stopped at full rank: {'yes' if w.stopped_at_full_rank else 'no'}"
        )
    for r in reports:
        s = r.stats
        lines.append(
            f"stats: {r.field}: {s.method}, elimination {s.elimination_ms:.3f} ms, "
            f"rows fed {s.rows_fed}, kept {r.diff_rank}, vanished {r.rows_vanished}, "
            f"stopped at full rank: {'yes' if s.stopped_at_full_rank else 'no'}"
        )
    plural = "" if basis_lines == 1 else "s"
    lines.append(
        f"stats: basis read off in {basis_ms:.3f} ms, rendered in {render_ms:.3f} ms, "
        f"{basis_lines} basis line{plural}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _field_args(chars: Sequence[int] | None) -> list[FieldSpec]:
    return [FieldSpec(c) for c in (chars if chars else [0])]


def cmd_compute(args: argparse.Namespace) -> int:
    start = perf_counter()
    g, descriptor = load_graph(args.input)
    input_ms = (perf_counter() - start) * 1e3
    reports = compute_wcdim_fields(g, _field_args(args.char))
    start = perf_counter()
    sections = [_section_from_report(r, args.basis, args.verbose) for r in reports]
    basis_done = perf_counter()
    doc = ReportDocument(descriptor, g.n, g.edge_count, tuple(sections))
    out = render_machine(doc) if args.machine else render_text(doc, args.verbose)
    render_ms = (perf_counter() - basis_done) * 1e3
    sys.stdout.write(out)
    if args.stats:
        basis_lines = sum(len(s.basis_lines or ()) for s in sections)
        basis_ms = (basis_done - start) * 1e3
        sys.stderr.write(render_stats(g, input_ms, reports, basis_ms, render_ms, basis_lines))
    return 0


def _render_check_machine(reports: Sequence[CheckReport]) -> str:
    # each report is unpacked, which reads its fields faster than their names do
    return "".join([
        f"check = {check}\ninstance = {instance}\n"
        f"characteristics = {' '.join(map(str, chars))}\n"
        f"predicted = {' '.join(map(str, predicted))}\n"
        f"engine = {' '.join(map(str, engine))}\n"
        f"verdict = {verdict}\n" + (f"detail = {detail}\n" if detail else "")
        for check, instance, chars, predicted, engine, verdict, detail in reports
    ]) or "\n"  # with no report the output is one empty line


def _render_check_text(reports: Sequence[CheckReport]) -> str:
    from .verify import summarize

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


# the sections of `verify.SECTIONS`, in its order, named here so that the
# parser is built without loading the harness; the command line spells each
# without its hyphen: `verify multiblowup`
_SECTIONS = ("family", "blowup", "multi-blowup", "union", "lex", "kron")
_SECTION_ARGS = {name.replace("-", ""): name for name in _SECTIONS}


def run_suite(**options) -> list[CheckReport]:
    """`verify.run_suite`, which `cmd_verify` calls through; the harness loads on the first call."""
    from . import verify

    return verify.run_suite(**options)


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import DEFAULT_CHARS, summarize

    reports = run_suite(
        seed=args.seed,
        chars=args.char or DEFAULT_CHARS,
        checks=_SECTIONS if args.selector == "all" else (_SECTION_ARGS[args.selector],),
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


@functools.cache
def _command_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, by name: the subparsers `build_parser` made."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


@functools.cache
def _plain_form(command: argparse.ArgumentParser) -> tuple[dict, dict, list, int] | None:
    """(start, options, positionals, required) for `command`'s plain command lines,
    read off its actions; None if it has an action they do not cover.

    `start` is the namespace argparse starts from: each action's default,
    then `set_defaults`.  `options` maps each option string of a flag (a
    `store_const`, so a `store_true`) or of a one-value `store` or `append`
    to its action; the help action is left out, so `-h` is never plain.
    `positionals` are those that take one word (the first `required` of
    them) or, after those, at most one.  `build_parser` uses no other
    argparse feature (a required option, a string default, an exclusive
    group); the seeded comparison with argparse in the tests fails if it
    comes to.
    """
    start, options, positionals = {}, {}, []
    for a in command._actions:
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            start.setdefault(a.dest, a.default)
        if isinstance(a, argparse._HelpAction):
            continue
        if not a.option_strings:
            # a one-word positional after an optional one would take the word before it
            if a.nargs not in (None, "?") or a.nargs is None and positionals and positionals[-1].nargs:
                return None
            positionals.append(a)
        elif isinstance(a, argparse._StoreConstAction) or (
            isinstance(a, (argparse._StoreAction, argparse._AppendAction)) and a.nargs is None
        ):
            options.update(dict.fromkeys(a.option_strings, a))
        else:
            return None
    for dest, value in command._defaults.items():
        start.setdefault(dest, value)
    return start, options, positionals, sum(p.nargs is None for p in positionals)


def _read_plain(
    command: argparse.ArgumentParser, name: str, words: Sequence[str]
) -> argparse.Namespace | None:
    """What `command.parse_known_intermixed_args(words, Namespace(command=name))`
    returns with no word left over, for a plain command line; None for any other.

    A plain line is positionals, each filling the next, and exact option
    strings, in any order; a value option's is followed by a word that does
    not start with "-".  Each word goes through the parser's own
    `_get_value` and `_check_value`, and its action sets it, as in argparse.
    """
    form = _plain_form(command)
    if form is None:
        return None
    start, options, positionals, required = form
    args = argparse.Namespace(**start, command=name)
    filled = 0
    words = iter(words)
    for word in words:
        option = None
        if word[:1] != "-":
            if filled == len(positionals):
                return None  # one positional too many
            action = positionals[filled]
            filled += 1
        else:
            action, option = options.get(word), word
            if action is None:
                return None  # an abbreviation, `--opt=value`, `--`, `-h`, a negative number
            if action.nargs == 0:
                action(command, args, None, word)
                continue
            word = next(words, "-")  # no value reads as an option word
            if word[:1] == "-":
                return None
        try:
            value = command._get_value(action, word)
            if action.choices is not None:
                command._check_value(action, value)
        except argparse.ArgumentError:
            return None
        action(command, args, value, option)
    return args if filled >= required else None


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """The namespace of argv, with a command's positionals and options in any order.

    A command word hands the rest to that command's own parser: a plain line
    is read straight off its actions (`_read_plain`), any other goes through
    its `parse_known_intermixed_args`, with argparse's messages and exit
    codes, and words it leaves over get the full parser's error.  The full
    parser runs only for a missing or unknown command and top-level options.
    """
    words = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    command = _command_parsers(parser).get(words[0]) if words else None
    if command is None:
        return parser.parse_args(words)
    args = _read_plain(command, words[0], words[1:])
    if args is None:
        args, extras = command.parse_known_intermixed_args(
            words[1:], argparse.Namespace(command=words[0])
        )
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command and map its errors to their exit codes."""
    # a warning (a family below its formula's range) prints as one line, without its source
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except CapacityError as exc:
            print(f"capacity error: {exc}", file=sys.stderr)
            return 3


def main(argv: Sequence[str] | None = None) -> int:
    return _run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
