import argparse
import contextlib
import errno
import hashlib
import io
import os
import random
import re
import socket
import stat
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from wellcovered import Graph, InputError, cli, mis
from wellcovered.cli import (
    ReportDocument,
    ReportSection,
    _parse_canonical,
    _parse_lines,
    _read_file,
    load_graph,
    main,
    parse_family_spec,
    parse_graph_file,
    parse_machine,
    render_machine,
)
from wellcovered.families import FamilySpec, crown, petersen
from wellcovered.verify import CheckReport, run_suite


C4_FILE = "4 4\n0 1\n1 2\n2 3\n3 0\n"


class TestFamilySpecGrammar:
    def test_simple_specs(self):
        assert parse_family_spec("crown:3") == FamilySpec("crown", (3,))
        assert parse_family_spec("kpartite:2,3,4") == FamilySpec("kpartite", (2, 3, 4))
        assert parse_family_spec("turan:7,3") == FamilySpec("turan", (7, 3))
        assert parse_family_spec("petersen") == FamilySpec("petersen")

    def test_malformed(self):
        for bad in ("crown:", "crown:3,", ":3", "crown;3", "Crown:3"):
            with pytest.raises(InputError):
                parse_family_spec(bad)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            parse_family_spec("moebius:5")


class TestGraphFile:
    def test_c4(self):
        g = parse_graph_file(C4_FILE)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_comments_and_blanks(self):
        text = "# a 4-cycle\n\n4 4\n0 1\n# middle\n1 2\n2 3\n3 0\n"
        assert parse_graph_file(text).edge_count == 4

    def test_out_of_range_edge_reports_line(self):
        text = "4 4\n0 1\n1 2\n2 3\n4 4\n"
        with pytest.raises(InputError, match="line 5"):
            parse_graph_file(text)

    def test_self_loop(self):
        with pytest.raises(InputError, match="self-loop"):
            parse_graph_file("2 1\n1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_graph_file("3 2\n0 1\n1 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError, match="promises"):
            parse_graph_file("3 2\n0 1\n")

    def test_missing_header(self):
        with pytest.raises(InputError, match="header"):
            parse_graph_file("# nothing\n")

    def test_garbage_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_graph_file("2 1\n0 1 2\n")

    def test_bulk_path_agrees_with_the_line_walk(self):
        # every canonical text gives what the line walk gives: the same
        # graph, or the same error message.  Only a text that passes every
        # check takes the bulk path
        def outcome(parse, text):
            try:
                return parse(text, "g.txt")
            except InputError as exc:
                return str(exc)

        def canonical(n, edges, m=None):
            m = len(edges) if m is None else m
            return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)

        rng = random.Random(20)
        cases = []  # (text, whether it is a graph, whether the bulk path reads it)
        for _ in range(60):
            n = rng.randint(1, 30)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [e if rng.random() < 0.5 else e[::-1] for e in pairs if rng.random() < 0.4]
            rng.shuffle(edges)
            cases.append((canonical(n, edges), True, True))
            if not edges:
                continue
            i = rng.randrange(len(edges))
            u, v = edges[i]
            # the table has no "0u", so the line walk reads it
            leading_zero = canonical(n, edges[:i] + [(f"0{u}", v)] + edges[i + 1 :])
            cases.append((leading_zero, True, False))
            for bad in ((u, n), (u, u), (v, u)):  # out of range, self-loop, repeated edge
                cases.append((canonical(n, edges[:i] + [bad] + edges[i:]), False, False))
            cases.append((canonical(n, edges, len(edges) + 1), False, False))
        # n = MAX_VERTICES with three edges: a table of 16,384 strings
        cases.append(("16384 3\n0 16383\n5 9\n16383 7\n", True, True))
        cases.append(("16384 3\n0 16383\n5 9\n16384 7\n", False, False))
        for text, valid, bulk in cases:
            want = outcome(_parse_lines, text)
            assert outcome(parse_graph_file, text) == want
            assert isinstance(want, Graph) == valid
            assert _parse_canonical(text) == (want if bulk else None)


class TestLoadGraph:
    def test_family_spec_wins(self):
        g, desc = load_graph("petersen")
        assert g == petersen() and desc == "petersen"

    def test_file(self, tmp_path):
        p = tmp_path / "c4.txt"
        p.write_text(C4_FILE)
        g, desc = load_graph(str(p))
        assert g.edge_count == 4 and desc == str(p)

    def test_nonsense(self):
        with pytest.raises(InputError):
            load_graph("no-such-thing:1")

    def test_an_over_long_family_parameter(self):
        # more digits than int() converts by default, 4300
        with pytest.raises(InputError, match="parameter 2 of 'turan' has 5000 digits"):
            load_graph("turan:3," + "9" * 5000)


class TestInputFailures:
    """Every bad input ends in a documented exit code, with no traceback."""

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "utf16.txt"
        p.write_bytes(C4_FILE.encode("utf-16"))  # starts with the bytes FF FE
        assert main(["compute", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: not UTF-8 text")

    def test_unreadable_file_exits_2(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "c4.txt"
        p.write_text(C4_FILE)

        def denied(fd, size):
            raise PermissionError(13, "Permission denied")

        # the suite may run as root, which no file mode keeps out
        monkeypatch.setattr("os.read", denied)
        assert main(["compute", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: cannot be read (Permission denied)\n"

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["compute", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_over_long_file_name_exits_2(self, capsys):
        # the OS rejects the name itself; this used to end in a traceback and exit 1
        name = "a" * 300
        assert main(["compute", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name}: cannot be read ({os.strerror(errno.ENAMETOOLONG)})\n"

    @pytest.mark.parametrize("code", [errno.EACCES, errno.EIO, errno.EMFILE], ids=errno.errorcode.get)
    def test_an_open_the_os_refuses_exits_2(self, tmp_path, capsys, monkeypatch, code):
        # EACCES is what a directory without search permission gives a user
        # who is not root; the suite may run as root, so the open is made to fail
        p = tmp_path / "c4.txt"
        p.write_text(C4_FILE)

        def refused(path, flags, *args, **kwargs):
            raise OSError(code, os.strerror(code), path)

        monkeypatch.setattr("os.open", refused)
        assert main(["compute", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: cannot be read ({os.strerror(code)})\n"

    def test_header_above_the_vertex_bound_exits_3(self, tmp_path, capsys):
        p = tmp_path / "huge.txt"
        p.write_text("3000000 0\n")
        assert main(["compute", str(p)]) == 3
        assert capsys.readouterr().err == (
            f"capacity error: {p} line 1: the graph has 3000000 vertices; "
            "at most 16384 are supported\n"
        )

    @pytest.mark.parametrize(
        "spec", ["empty:3000000", "crown:8193", "kpartite:16384,1", "turan:100000,7"],
    )
    def test_family_above_the_vertex_bound_exits_3(self, spec, capsys):
        assert main(["compute", spec]) == 3
        assert "at most 16384 are supported" in capsys.readouterr().err


def _run_with_timeout(call, seconds=10):
    """call()'s result, from a thread given `seconds` to finish."""
    result = []
    worker = threading.Thread(target=lambda: result.append(call()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return result[0]


# each path shape `pathlib` normalises: empty and "." components, roots of
# one, two and three slashes, ".." (kept), a trailing slash and spaces
PATH_CORPUS = [
    "./a", "a//b", "a/", "a/./b", "//a", "///a", ".", "a/../b", "", "/", "//", "///",
    "a/.", "./", ".//a", "/./a", "//./a", "/.//a", "..", ".a", "a.", "...", "a b",
    " a/ b /./c d ", "./ /.", "edges.txt", "/tmp/run 1/edges.txt", "a/b/c/",
]


@pytest.mark.skipif(os.sep != "/", reason="the string form is built on POSIX only")
class TestPathText:
    @pytest.mark.parametrize("source", PATH_CORPUS)
    def test_corpus_matches_pathlib(self, source):
        assert cli._path_text(source) == str(Path(source))

    def test_every_short_path_matches_pathlib(self):
        alphabet = "/.a "
        sources = [""]
        for k in range(6):
            sources += [s + c for s in sources[-(4 ** k):] for c in alphabet]
        assert len(sources) == sum(4 ** k for k in range(7))
        assert [s for s in sources if cli._path_text(s) != str(Path(s))] == []

    def test_a_normal_path_comes_back_as_itself(self):
        source = "graphs/crown 5.txt"
        assert cli._path_text(source) is source

    def test_the_descriptor_is_the_normalised_path(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "c4 copy.txt").write_text(C4_FILE)
        monkeypatch.chdir(tmp_path)
        assert main(["compute", ".//./c4 copy.txt", "--machine"]) == 0
        assert capsys.readouterr().out.startswith("graph = c4 copy.txt\n")


class TestInputPaths:
    """Every kind of input path, through `main`: one open, one fstat, reads to end of file."""

    @staticmethod
    def _not_a_file(source, capsys):
        assert main(["compute", source]) == 2
        assert capsys.readouterr() == (
            "", f"error: {source!r} is neither a known family spec nor a readable file\n"
        )

    def test_directory(self, tmp_path, capsys):
        self._not_a_file(str(tmp_path), capsys)

    def test_fifo_returns_at_once(self, tmp_path, capsys):
        fifo = tmp_path / "edges.fifo"
        os.mkfifo(fifo)
        try:
            code = _run_with_timeout(lambda: main(["compute", str(fifo)]))
        finally:
            # a writer that opens the FIFO frees a reader stuck in its open
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # ENXIO: no reader, as there should be none
                pass
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {str(fifo)!r} is neither a known family spec nor a readable file\n"
        )

    def test_device(self, capsys):
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        self._not_a_file(os.devnull, capsys)

    def test_socket(self, tmp_path, capsys):
        # opening a socket fails with ENXIO, which counts as no file there
        path = tmp_path / "s"
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(str(path))
            self._not_a_file(str(path), capsys)

    @pytest.mark.parametrize(
        "name", ["missing.txt", "c4.txt/edges.txt", "c4\0.txt"], ids=["missing", "through-a-file", "nul"],
    )
    def test_no_file_there(self, tmp_path, capsys, name):
        (tmp_path / "c4.txt").write_text(C4_FILE)
        self._not_a_file(f"{tmp_path}/{name}", capsys)

    def test_crlf_file_prints_what_its_lf_twin_prints(self, tmp_path, capsys):
        p = tmp_path / "c4.txt"
        argv = ["compute", str(p), "--char", "0", "--char", "2", "--machine", "--basis", "--verbose"]
        outputs = []
        for newline in ("\n", "\r\n"):
            p.write_bytes(("# a 4-cycle\n\n" + C4_FILE).replace("\n", newline).encode())
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

    def test_utf8_bom_is_not_skipped(self, tmp_path, capsys):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbf" + C4_FILE.encode())
        assert main(["compute", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: {p} line 1: expected two integers, got '\\ufeff4 4'\n"
        )

    def test_a_file_whose_size_reads_0_is_read_whole(self):
        status = Path("/proc/self/status")
        assert status.stat().st_size == 0
        text = _read_file(str(status))
        assert text.endswith("\n")
        keys = [line.partition(":")[0] for line in text.splitlines()]
        assert keys == [line.partition(":")[0] for line in status.read_text().splitlines()]

    def test_a_size_that_understates_the_file_reads_on_to_its_end(self, tmp_path, capsys, monkeypatch):
        # K_100 as a file of about 3.5 times _MIN_READ bytes, so that with its
        # size read as 0 it takes four reads and a final empty one
        p = tmp_path / "k100.txt"
        p.write_text("100 4950\n" + "".join(f"{u} {v}\n" for u in range(100) for v in range(u)))
        assert 3 * cli._MIN_READ < p.stat().st_size < 4 * cli._MIN_READ
        assert main(["compute", str(p), "--machine"]) == 0
        whole = capsys.readouterr()
        real_fstat = os.fstat

        def understated(fd):
            st = real_fstat(fd)
            return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink, st.st_uid,
                                   st.st_gid, 0, st.st_atime, st.st_mtime, st.st_ctime))

        monkeypatch.setattr("os.fstat", understated)
        assert main(["compute", str(p), "--machine"]) == 0
        assert capsys.readouterr() == whole and "edge_count = 4950" in whole.out


class TestMachineFormat:
    def test_round_trip_with_fractional_basis(self):
        doc = ReportDocument(
            graph="crown:3",
            n=6,
            edge_count=6,
            sections=(
                ReportSection(
                    characteristic=0,
                    mis_count=5,
                    diff_rank=4,
                    wcdim=2,
                    sum_rank=5,
                    basis_lines=("1/2 -1/3 0 0 0 1", "1 0 0 0 1 0"),
                ),
                ReportSection(characteristic=2, mis_count=5, diff_rank=4, wcdim=2),
            ),
        )
        assert parse_machine(render_machine(doc)) == doc
        assert doc.sections[0].basis == (
            (Fraction(1, 2), Fraction(-1, 3), 0, 0, 0, 1),
            (1, 0, 0, 0, 1, 0),
        )

    def test_reject_unknown_key(self):
        with pytest.raises(InputError):
            parse_machine("graph = x\nn = 1\nedge_count = 0\nbogus = 3\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("basis 0 = 1 1 0 0", "basis 0 = 1 x 0 0", "'x' is not a number"),
            ("n = 4", "n = two", "n = 'two': expected an integer"),
            ("basis 1 = 0 0 1 1", "basis 1 = 0 0 1/0 1", "'1/0' is not a number"),
            ("basis 1 = 0 0 1 1", "basis 1 = 0 0 2/4 1", "'2/4' is not a number"),
            ("wcdim = 2\n", "", "expected a wcdim line, got 'basis_size = 2'"),
            ("basis_size = 2", "basis_size = 5", "expected a basis 2 line, got the end"),
            ("basis 1 = ", "basis 7 = ", "expected a basis 1 line, got 'basis 7 = "),
            ("basis 1 = 0 0 1 1", "basis 1 = 0 0 1 1 0", "has 5 entries, not n = 4"),
            ("mis_count = 2", "mis_count = 02", "mis_count = '02': expected an integer"),
            ("basis_size = 2\nbasis 0 = 1 1 0 0\nbasis 1 = 0 0 1 1\n", "basis_size = -1\n",
             "basis_size = -1: expected a count"),
        ],
        ids=[
            "bad-entry", "bad-integer", "zero-denominator", "not-lowest-terms",
            "missing-wcdim", "short-basis", "basis-out-of-order", "vector-length", "leading-zero",
            "negative-basis-size",
        ],
    )
    def test_reject_what_does_not_round_trip(self, old, new, message):
        text = (
            "graph = cycle:4\nn = 4\nedge_count = 4\n"
            "characteristic = 0\nmis_count = 2\ndiff_rank = 2\nwcdim = 2\n"
            "basis_size = 2\nbasis 0 = 1 1 0 0\nbasis 1 = 0 0 1 1\n"
        )
        assert render_machine(parse_machine(text)) == text
        assert old in text
        with pytest.raises(InputError, match=re.escape(message)):
            parse_machine(text.replace(old, new))


class TestComputeCommand:
    def test_petersen(self, capsys):
        assert main(["compute", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "wcdim = 0" in out

    def test_crown_two_characteristics(self, capsys):
        assert main(["compute", "crown:4", "--char", "0", "--char", "2"]) == 0
        out = capsys.readouterr().out
        assert "over Q: wcdim = 3" in out
        assert "over GF(2): wcdim = 4" in out

    def test_an_enumeration_past_the_limit_exits_3_with_one_line(self, capsys, monkeypatch):
        # cycle(12) has no module, so it is enumerated whole: 29 sets, past 5
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 5)
        assert main(["compute", "cycle:12"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "capacity error: graph has more than 5 maximal independent sets\n"

    def test_cycle6_basis(self, capsys):
        assert main(["compute", "cycle:6", "--basis"]) == 0
        out = capsys.readouterr().out
        assert "wcdim = 2" in out
        assert out.count("basis") == 2

    def test_machine_round_trip_through_engine(self, capsys):
        assert main(["compute", "crown:4", "--char", "0", "--char", "2",
                     "--basis", "--verbose", "--machine"]) == 0
        out = capsys.readouterr().out
        doc = parse_machine(out)
        assert doc.n == 8 and [s.wcdim for s in doc.sections] == [3, 4]

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "c4.txt"
        p.write_text(C4_FILE)
        assert main(["compute", str(p)]) == 0
        assert "wcdim = 3" in capsys.readouterr().out

    def test_input_error_exit_code(self, capsys):
        assert main(["compute", "crown:"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_an_over_long_family_parameter_exits_2_in_one_line(self, capsys):
        assert main(["compute", "crown:" + "9" * 5000]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: parameter 1 of 'crown' has 5000 digits, too many to read as an integer\n"

    def test_bad_characteristic_exit_code(self, capsys):
        assert main(["compute", "petersen", "--char", "4"]) == 2

    def test_byte_identical_output(self, capsys):
        main(["compute", "gear:4", "--char", "3", "--basis", "--machine"])
        first = capsys.readouterr().out
        main(["compute", "gear:4", "--char", "3", "--basis", "--machine"])
        assert capsys.readouterr().out == first


    def test_family_below_its_formula_range_warns_in_one_line(self, capsys):
        import warnings

        shown = warnings.showwarning
        for _ in range(2):  # every call warns, not only the first in the process
            assert main(["compute", "crown:2"]) == 0
            out, err = capsys.readouterr()
            assert out == "graph crown:2: 4 vertices, 2 edges\n  over Q: wcdim = 2\n"
            assert err == "warning: crown(2) is below the range n >= 3 of its dimension formula\n"
        assert warnings.showwarning is shown
        assert main(["compute", "crown:3"]) == 0
        assert capsys.readouterr().err == ""

    def test_edgeless_graph_beyond_the_recursion_limit(self, capsys):
        assert main(["compute", "empty:1100"]) == 0
        assert "over Q: wcdim = 1100" in capsys.readouterr().out

    def test_one_enumeration_serves_every_characteristic(self, capsys, monkeypatch):
        from wellcovered import kernels

        # crown:4 has no module, so the whole graph is enumerated, once
        calls = []
        real = kernels.maximal_cliques
        monkeypatch.setattr(kernels, "maximal_cliques", lambda *a: calls.append(a) or real(*a))
        assert main(["compute", "crown:4", "--char", "0", "--char", "2", "--char", "3"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", ["crown:5", "crown:6", "petersen", "triangles"])
    def test_no_batch_elimination_runs(self, spec, tmp_path, capsys, monkeypatch):
        # every field is read off a row space; crown:6 has 2 | D, so GF(2)
        # runs its own elimination
        from wellcovered import batch, kernels

        if spec == "triangles":
            edges = [(3 * t + a, 3 * t + b) for t in range(6) for a, b in ((0, 1), (0, 2), (1, 2))]
            path = tmp_path / "triangles.txt"
            path.write_text(f"18 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            spec = str(path)
        argv = ["compute", spec, "--char", "0", "--char", "2", "--char", "3", "--char", "10007",
                "--machine", "--basis", "--verbose", "--stats"]
        assert main(argv) == 0
        want = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a batch elimination ran")

        monkeypatch.setattr(batch.ExactMatrix, "__init__", refuse)
        monkeypatch.setattr(kernels, "gf_rank", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == want


CROWN6_BASIS_MACHINE = """\
graph = crown:6
n = 12
edge_count = 30
characteristic = 0
mis_count = 8
diff_rank = 7
wcdim = 5
basis_size = 5
basis 0 = 1 -1 0 0 0 0 -1 1 0 0 0 0
basis 1 = 1 0 -1 0 0 0 -1 0 1 0 0 0
basis 2 = 1 0 0 -1 0 0 -1 0 0 1 0 0
basis 3 = 1 0 0 0 -1 0 -1 0 0 0 1 0
basis 4 = 1 0 0 0 0 -1 -1 0 0 0 0 1
characteristic = 3
mis_count = 8
diff_rank = 7
wcdim = 5
basis_size = 5
basis 0 = 1 2 0 0 0 0 2 1 0 0 0 0
basis 1 = 1 0 2 0 0 0 2 0 1 0 0 0
basis 2 = 1 0 0 2 0 0 2 0 0 1 0 0
basis 3 = 1 0 0 0 2 0 2 0 0 0 1 0
basis 4 = 1 0 0 0 0 2 2 0 0 0 0 1
"""


class TestBasisOnDemand:
    @pytest.fixture
    def reads(self, monkeypatch):
        from wellcovered.exactlin import RowSpace

        # a basis is read off a row space as vectors or as lines, and a sum
        # rank by testing the baseline set's independence
        calls = Counter()
        for name in ("basis", "basis_lines", "independent"):
            real = getattr(RowSpace, name)
            monkeypatch.setattr(
                RowSpace, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
            )
        return calls

    @pytest.mark.parametrize(
        "flags", [[], ["--machine"], ["--verbose"], ["--verbose", "--machine"]]
    )
    def test_compute_without_basis_builds_none(self, capsys, reads, flags):
        assert main(["compute", "crown:6", "--char", "0", "--char", "3", *flags]) == 0
        assert "wcdim = 5" in capsys.readouterr().out
        assert reads["basis"] == reads["basis_lines"] == 0
        # the sum rank is read only under --verbose, once per field
        assert reads["independent"] == (2 if "--verbose" in flags else 0)

    def test_verify_suite_builds_none(self, reads):
        from wellcovered.verify import run_suite

        assert run_suite(seed=1)
        assert reads["basis"] == reads["basis_lines"] == 0
        assert reads["independent"] > 0  # the lex and kron checks read sum ranks

    def test_checks_that_need_no_sum_rank_read_none(self, reads):
        from wellcovered.verify import run_suite

        assert run_suite(seed=1, checks=("blowup", "multi-blowup", "union"))
        assert reads["independent"] == 0

    def test_compute_with_basis_output_is_unchanged(self, capsys, reads):
        assert main(["compute", "crown:6", "--char", "0", "--char", "3", "--basis", "--machine"]) == 0
        assert capsys.readouterr().out == CROWN6_BASIS_MACHINE
        assert reads["basis"] + reads["basis_lines"] == 2  # one per field
        assert reads["independent"] == 0


# sha256 of `compute G --char 0 --char 2 --char 3 --char 10007 --basis`, with
# --machine and without, as the Fraction-vector renderer printed them; crown:5
# takes GF(3)'s own elimination, since 3 divides its common pivot
PINNED_BASIS_OUTPUT = {
    "crown:5": (
        "380de7d7e9f1426bcc5ad7f94ff50a5e4403453d6075096e94d96f5d7ad065c8",
        "878e1a444b380178aa791e91fde93011fb997af9b805d3605e9ae01cddcffc68",
    ),
    "crown:20": (
        "27bbede6a0979fe9004fa969a8549365578e2d0c4567fee266c20547fbf592ad",
        "53bcca3bb94a5281b1026efd5d50f02d3c6259e6e5055f881a1360370298116d",
    ),
    "crown:40": (
        "c7941485bd677431264644a8ae90b33d8d80b90c2a7dd42a47b3f30557099abe",
        "de4c8a7cf3e6af78f98e360f72599105455d0a8aaeb8fe0556c026398cd1073e",
    ),
    "cycle:6": (
        "1dc25ce37707c118ac4a2b48ecfdbc664a978ddd7c429a03ec1701763644f0b8",
        "e127de17e2b27d4a09608607f6ddf20f14fc5798db6a84f88dc374fe2f98248c",
    ),
    "gear:4": (
        "37dc1c74243228d3788b41a5ea340886b61220a375cecfa5a49d37e9b5c4eb79",
        "129ebe5cc7b06d8281268f9d9cf2a66053f959967d36bdb40ab9c761f6287746",
    ),
    "kpartite:2,3,4": (
        "719fd24b8420ccd1a568e3633c14cf109ec5e9268bafb01fcfa2a0ab413584c9",
        "b55fbed8a849835901e20665a24ba55fb9bcf39ccd56c2bf7bc83bf0ae2cb7a3",
    ),
    "petersen": (
        "9416cb6d95f494ca1280257403e4bc7eb069a7b8042333b8b8cbde31d71e5c28",
        "3fdac841e382caeb8e21b9263ecac4e35553e973f94ef4e1610d1e3a57393a34",
    ),
}

# a graph whose basis over Q has halves, so D = 2 and GF(2) takes its own
# elimination, the XOR basis
HALVES_FILE = "7 10\n0 1\n0 3\n0 5\n1 2\n1 5\n2 3\n2 4\n3 6\n4 5\n4 6\n"
HALVES_BASIS_TEXT = """\
graph G: 7 vertices, 10 edges
  over Q: wcdim = 2
    basis 1 1 0 0 0 1 0
    basis 0 -1/2 -1/2 1/2 1/2 0 1
  over GF(2): wcdim = 2
    basis 0 1 1 1 1 0 0
    basis 1 1 0 0 0 1 0
  over GF(3): wcdim = 2
    basis 1 1 0 0 0 1 0
    basis 0 1 1 2 2 0 1
  over GF(10007): wcdim = 2
    basis 1 1 0 0 0 1 0
    basis 0 5003 5003 5004 5004 0 1
"""
ALL_CHARS = ["--char", "0", "--char", "2", "--char", "3", "--char", "10007"]


class TestBasisOutputIsPinned:
    @pytest.mark.parametrize("spec", PINNED_BASIS_OUTPUT)
    def test_machine_and_text(self, capsys, spec):
        for flags, digest in zip((["--machine"], []), PINNED_BASIS_OUTPUT[spec]):
            assert main(["compute", spec, *ALL_CHARS, "--basis", *flags]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_fractions_and_the_xor_basis(self, tmp_path, capsys):
        p = tmp_path / "G"
        p.write_text(HALVES_FILE)
        assert main(["compute", str(p), *ALL_CHARS, "--basis"]) == 0
        assert capsys.readouterr().out.replace(str(p), "G") == HALVES_BASIS_TEXT
        assert main(["compute", str(p), *ALL_CHARS, "--basis", "--machine"]) == 0
        machine = capsys.readouterr().out
        assert "basis 1 = 0 -1/2 -1/2 1/2 1/2 0 1\n" in machine
        assert render_machine(parse_machine(machine)) == machine


# sha256 of `compute G --char 0 --char 2 --char 3 --char 10007 --verbose`, with
# --machine and without, as printed when the sum rank was computed eagerly;
# "G" is HALVES_FILE, whose GF(2) is an own (XOR) elimination, and
# kpartite:2,3,4 decomposes with no piece enumerated
PINNED_VERBOSE_OUTPUT = {
    "crown:5": (
        "fb7a8a03c6aa09fa20032057a65a27f6d01a1b29c26934f38d5c7adaa2639c30",
        "deec0bd9884465b380ae186f5eb34a4786c8770120837794cd63b0e3e737d4cd",
    ),
    "crown:20": (
        "23a2a7fcbbcf686c6e5c14a04b86a565cccc74e45d8f55a1694ba085fb0fef42",
        "e327c6cd82bd7c7d4bf770cc8ee2aeaa3a7959146fecdf9d8f3e6d937ec01063",
    ),
    "kpartite:2,3,4": (
        "636c1c1ca8d1724f9b5dfacfbe6e2eb4c37ce625c3511f3a09f8f4c784c4ff2a",
        "968b37d2a142e01a9ffc65b34bed6b81daa97dd1cd9a94a7c917c4337e2a6143",
    ),
    "G": (
        "0e4161abf6542a8e42ce14d9dab0798bc86c1210b0d7636901f2929d5209712e",
        "3f7ec5897796c8b528b600e2a3e9c7f88b541ee8abeea475b70ae3c5c7670386",
    ),
}


class TestVerboseOutputIsPinned:
    @pytest.mark.parametrize("spec", PINNED_VERBOSE_OUTPUT)
    def test_machine_and_text(self, tmp_path, capsys, spec):
        source = spec
        if spec == "G":
            source = str(tmp_path / "G")
            (tmp_path / "G").write_text(HALVES_FILE)
        for flags, digest in zip((["--machine"], []), PINNED_VERBOSE_OUTPUT[spec]):
            assert main(["compute", source, *ALL_CHARS, "--verbose", *flags]) == 0
            out = capsys.readouterr().out.replace(source, spec)
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestStats:
    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--verbose"],
            ["--machine", "--basis"],
            ["--char", "0", "--char", "2", "--char", "3", "--basis"],
        ],
    )
    def test_stdout_is_unchanged_by_stats(self, capsys, flags):
        assert main(["compute", "crown:7", *flags]) == 0
        plain = capsys.readouterr()
        assert main(["compute", "crown:7", *flags, "--stats"]) == 0
        with_stats = capsys.readouterr()
        assert with_stats.out == plain.out
        assert plain.err == ""
        lines = with_stats.err.splitlines()
        assert lines[0].startswith("stats: input in ") and lines[0].endswith(" ms, n = 14, m = 42")
        assert lines[1].startswith("stats: enumeration ") and lines[1].endswith(" ms, 9 sets")
        assert len(lines) == 3 + max(1, flags.count("--char"))
        basis_lines = 0 if "--basis" not in flags else 6 * max(1, flags.count("--char"))
        assert re.fullmatch(
            rf"stats: basis read off in \d+\.\d{{3}} ms, rendered in \d+\.\d{{3}} ms, "
            rf"{basis_lines} basis lines",
            lines[-1],
        )

    def test_input_line_for_a_file(self, tmp_path, capsys):
        p = tmp_path / "c4.txt"
        p.write_text(C4_FILE)
        assert main(["compute", str(p), "--machine"]) == 0
        plain = capsys.readouterr()
        assert main(["compute", str(p), "--machine", "--stats"]) == 0
        with_stats = capsys.readouterr()
        assert with_stats.out == plain.out
        first = with_stats.err.splitlines()[0]
        assert first.startswith("stats: input in ") and first.endswith(" ms, n = 4, m = 4")

    def test_enumeration_line_counts_pieces_and_every_set(self, capsys):
        assert main(["compute", "crown:7", "--stats"]) == 0
        assert capsys.readouterr().err.splitlines()[1].startswith("stats: enumeration of 1 piece in ")
        # a complete multipartite graph is a cograph: its 3 sets, the parts,
        # come out of the decomposition without any enumeration
        assert main(["compute", "kpartite:2,3,4", "--char", "2", "--stats"]) == 0
        enum, gf2 = capsys.readouterr().err.splitlines()[1:-1]
        assert enum.startswith("stats: enumeration of 0 pieces in ") and enum.endswith(" ms, 3 sets")
        assert gf2.endswith("rows fed 2, kept 2, vanished 0, stopped at full rank: no")

    def test_each_field_says_how_it_was_obtained(self, capsys):
        argv = ["compute", "crown:5", "--char", "0", "--char", "3", "--char", "10007", "--stats"]
        assert main(argv) == 0
        q, gf3, gfp = capsys.readouterr().err.splitlines()[2:-1]
        # crown(5) drops rank exactly in characteristic 3 = 5 - 2, so 3 divides D
        assert q.startswith("stats: Q: integer, elimination ")
        assert gf3.startswith("stats: GF(3): own elimination, elimination ")
        assert gfp.startswith("stats: GF(10007): read off (p ∤ D), elimination ")
        assert q.endswith("rows fed 6, kept 6, vanished 0, stopped at full rank: no")
        assert gf3.endswith("rows fed 6, kept 5, vanished 1, stopped at full rank: no")


    def test_a_request_reading_nothing_off_the_integer_space_shows_that_pass(self, capsys):
        # 2 divides 6 - 2, so GF(2) is eliminated on its own, after the pass over Q
        assert main(["compute", "crown:6", "--char", "2"]) == 0
        plain = capsys.readouterr()
        assert main(["compute", "crown:6", "--char", "2", "--stats"]) == 0
        with_stats = capsys.readouterr()
        assert with_stats.out == plain.out
        lines = with_stats.err.splitlines()
        assert len(lines) == 5
        assert re.fullmatch(
            r"stats: Q \(not requested\): integer, elimination \d+\.\d{3} ms, rows fed 7, "
            r"stopped at full rank: no",
            lines[2],
        )
        assert lines[3].startswith("stats: GF(2): own elimination, elimination ")
        assert lines[3].endswith("rows fed 7, kept 6, vanished 1, stopped at full rank: no")
        # with Q, or a field read off the integer space, that pass has its line already
        for chars in (["--char", "0", "--char", "2"], ["--char", "2", "--char", "3"]):
            assert main(["compute", "crown:6", *chars, "--stats"]) == 0
            err = capsys.readouterr().err
            assert "not requested" not in err and len(err.splitlines()) == 5


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        from wellcovered import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            # `--char=0` is not plain, so each call also runs the command's parser
            for _ in range(3):
                assert main(["compute", "complete:3", "--char=0"]) == 0
            assert main(["compute", "complete:3", "--char", "0"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_a_plain_line_builds_no_parser(self, capsys, monkeypatch, tmp_path):
        from wellcovered import cli

        def refused():
            raise AssertionError("a plain command line built the parser")

        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        monkeypatch.setattr(cli, "build_parser", refused)
        cli._parser.cache_clear()
        try:
            assert main(["compute", str(path), *"--char 0 --char 2 --char 10007 --machine --basis".split()]) == 0
            assert main(["verify", "union", "--seed", "7", "--machine"]) == 0
            assert main(["families"]) == 0
        finally:
            cli._parser.cache_clear()

    def test_consecutive_calls_share_no_state(self, capsys):
        assert main(["compute", "crown:4", "--char", "0", "--char", "2", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "over Q" in out and "over GF(2)" in out and "sum rank" in out
        # no --char list, flag or basis carries over from the previous call
        assert main(["compute", "crown:4", "--machine"]) == 0
        doc = parse_machine(capsys.readouterr().out)
        assert [s.characteristic for s in doc.sections] == [0]
        assert doc.sections[0].sum_rank is None and doc.sections[0].basis is None
        assert main(["compute", "crown:4", "--char", "3", "--basis", "--machine"]) == 0
        doc = parse_machine(capsys.readouterr().out)
        assert [s.characteristic for s in doc.sections] == [3]
        assert len(doc.sections[0].basis) == doc.sections[0].wcdim
        assert main(["compute", "crown:4", "--char", "2"]) == 0
        out = capsys.readouterr().out
        assert "over GF(2)" in out and "over Q" not in out and "basis" not in out
        assert main(["verify", "union", "--trials", "2", "--char", "5", "--machine"]) == 0
        out = capsys.readouterr().out
        assert set(out.count(f"characteristics = {c}") for c in (0, 2)) == {0}
        assert out.count("characteristics = 5") == 2
        assert main(["verify", "union", "--trials", "2", "--machine"]) == 0
        assert capsys.readouterr().out.count("characteristics = 0") == 2


# (argv, what it exercises); every one runs through `main` and through the
# full parser, and must print and exit alike
DISPATCH_CORPUS = [
    (["compute", "crown:4"], "compute"),
    (["compute", "crown:4", "--char", "0", "--char", "2", "--basis", "--verbose"], "compute-options"),
    (["compute", "--char=2", "--machine", "crown:4"], "char-equals"),
    (["compute", "crown:4", "--char", "x"], "char-x"),
    (["compute", "crown:4", "--char"], "char-no-value"),
    (["compute", "crown:4", "--mach", "--ba"], "abbreviations"),
    (["compute", "crown:4", "--he"], "help-abbreviation"),
    (["compute", "--", "crown:4"], "separator"),
    (["compute", "crown:4", "--", "--machine"], "separator-then-option"),
    (["compute", "crown:4", "extra"], "one-extra"),
    (["compute", "crown:4", "--frob"], "unknown-option"),
    (["compute"], "compute-no-input"),
    (["compute", "no-such-kind:3"], "input-error"),
    (["compute", "a" * 300], "name-too-long"),
    (["compute", "-h"], "compute-h"),
    (["compute", "crown:4", "--help"], "compute-help"),
    (["verify", "union", "--trials", "2", "--machine"], "verify"),
    (["verify", "family", "crown", "--max-n", "5"], "verify-kind"),
    (["verify", "family", "--max-n", "4", "--char", "2", "--machine"], "verify-no-kind"),
    (["verify", "lex", "crown"], "verify-kind-elsewhere"),
    (["verify", "nosuch"], "verify-bad-section"),
    (["verify", "--help"], "verify-help"),
    (["families"], "families"),
    (["families", "extra"], "families-extra"),
    (["families", "-h"], "families-h"),
    (["-h"], "top-h"),
    (["--help"], "top-help"),
    (["-h", "compute"], "top-h-before-command"),
    ([], "no-command"),
    (["frobnicate", "crown:4"], "unknown-command"),
    (["comp", "crown:4"], "command-prefix"),
    (["--char", "2", "compute", "crown:4"], "option-before-command"),
    (["compute", "crown:4", "--char", "-3"], "char-negative"),
    (["compute", "crown:4", "--char", "\u0663"], "char-arabic-indic-digit"),
    (["compute", "crown:4", "--machine", "--machine"], "repeated-flag"),
]

# (a command line with a positional after an option, the same words with
# the positionals first, what it exercises): argparse reads the second
# alike on every Python
REORDERED = [
    ("verify family --max-n 4 crown --machine", "verify family crown --max-n 4 --machine",
     "verify-kind-after-option"),
    ("compute --machine crown:4", "compute crown:4 --machine", "compute-input-after-flag"),
    ("compute --char 2 crown:4 --basis", "compute crown:4 --char 2 --basis", "compute-input-inside"),
    ("verify union --trials 2 --seed 3 extra", "verify union extra --trials 2 --seed 3",
     "verify-kind-elsewhere-after-options"),
    ("verify family --max-n 4 crown extra", "verify family crown extra --max-n 4",
     "verify-extra-after-option"),
]


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of call(), with argparse's SystemExit as an exit code."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_parser_main(argv=None):
    """`main` as it ran when the full parser parsed every argv."""
    return cli._run(cli._parser().parse_args(argv))


def _full_parser_ran(*args, **kwargs):
    raise AssertionError("the full parser ran")


class TestDispatch:
    """A command's words go straight to its own parser, with the full parser's results."""

    @pytest.mark.parametrize("argv", [a for a, _ in DISPATCH_CORPUS], ids=[i for _, i in DISPATCH_CORPUS])
    def test_main_matches_the_full_parser(self, capsys, argv):
        want = _outcome(capsys, lambda: _full_parser_main(list(argv)))
        assert _outcome(capsys, lambda: main(list(argv))) == want
        assert want[0] in (0, 1, 2)

    @pytest.mark.parametrize("argv, first", [r[:2] for r in REORDERED], ids=[r[2] for r in REORDERED])
    def test_positionals_may_follow_options(self, capsys, argv, first):
        want = _outcome(capsys, lambda: _full_parser_main(first.split()))
        assert _outcome(capsys, lambda: main(first.split())) == want
        assert _outcome(capsys, lambda: main(argv.split())) == want

    # the first three argv of the corpus parse without an error
    @pytest.mark.parametrize("argv", [a for a, _ in DISPATCH_CORPUS[:3]], ids=[i for _, i in DISPATCH_CORPUS[:3]])
    def test_namespace_matches_the_full_parser(self, argv):
        assert cli._parse(argv) == cli._parser().parse_args(argv)

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["wellcovered", "compute", "crown:4", "--machine"])
        want = _outcome(capsys, _full_parser_main)
        assert _outcome(capsys, main) == want and want[0] == 0

    def test_a_command_is_parsed_by_its_own_parser_alone(self, capsys, monkeypatch):
        monkeypatch.setattr(cli._parser(), "parse_args", _full_parser_ran)
        assert main(["compute", "crown:4", "--char", "2", "--machine"]) == 0
        assert main(["verify", "union", "--trials", "1"]) == 0
        assert main(["families"]) == 0

    def test_the_benchmark_command_lines_never_reach_argparse(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        compute = ["compute", str(path), *"--char 0 --char 2 --char 10007 --machine --basis".split()]
        verify = [["verify", section, "--seed", "7", "--machine"] for section in cli._SECTION_ARGS]
        want = [cli._parser().parse_args(argv) for argv in verify]

        def refused(*args, **kwargs):
            raise AssertionError("argparse parsed a plain command line")

        monkeypatch.setattr(cli._parser(), "parse_args", refused)
        for command in cli._command_parsers(cli._parser()).values():
            monkeypatch.setattr(command, "parse_known_args", refused)
            monkeypatch.setattr(command, "parse_known_intermixed_args", refused)
        assert main(compute) == 0
        assert parse_machine(capsys.readouterr().out).sections[2].characteristic == 10007
        assert [cli._parse(argv) for argv in verify] == want
        assert main(["families"]) == 0

    @pytest.mark.parametrize("argv, extras", [
        ("compute crown:4 extra more", "extra more"),
        ("verify family crown extra", "extra"),
        ("families extra", "extra"),
    ], ids=["compute", "verify", "families"])
    def test_left_over_words_get_the_full_parsers_error_without_it(
        self, capsys, monkeypatch, argv, extras
    ):
        want = _outcome(capsys, lambda: _full_parser_main(argv.split()))
        monkeypatch.setattr(cli._parser(), "parse_args", _full_parser_ran)
        assert _outcome(capsys, lambda: main(argv.split())) == want
        usage = "usage: wellcovered [-h] {compute,verify,families} ...\n"
        assert want == (2, "", f"{usage}wellcovered: error: unrecognized arguments: {extras}\n")


# words each command line is drawn from: values and positionals of every
# kind the reader must convert, check or turn away
PLAIN_VALUES = ["0", "2", "3", "10007", "-3", "٣", "+2", "1_0", "", "x", " 2"]
PLAIN_POSITIONALS = ["crown:4", "family", "union", "all", "nosuch"]


def _draw_words(rng, command):
    """A seeded command line for `command`: positionals and mostly exact
    options with values, in any order, mixed with abbreviations, `=` forms,
    `--`, `-h`, stray values and positionals."""
    options = [s for a in command._actions for s in a.option_strings]
    valued = {s for a in command._actions if a.nargs is None for s in a.option_strings}
    noise = [
        *PLAIN_VALUES, *PLAIN_POSITIONALS, "--", "-h",
        *(s[:k] for s in options if s.startswith("--") for k in range(3, len(s))),
        *(f"{s}={v}" for s in valued for v in PLAIN_VALUES),
    ]
    # each option keeps its value after it; the positionals fall anywhere
    chunks = [[rng.choice(PLAIN_POSITIONALS)] for _ in range(rng.choice([0, 1, 1, 1, 2, 2, 3]))]
    for _ in range(rng.randint(0, 4)):
        if options and rng.random() < 0.7:
            option = rng.choice(options)
            chunks.append([option])
            if option in valued and rng.random() < 0.9:
                chunks[-1].append(rng.choice(PLAIN_VALUES))
        else:
            chunks.append([rng.choice(noise)])
    rng.shuffle(chunks)
    return [word for chunk in chunks for word in chunk]


def _argparse_reads(command, name, words):
    """What `command.parse_known_intermixed_args` gives for words with none left over, else None."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args, extras = command.parse_known_intermixed_args(
                list(words), argparse.Namespace(command=name)
            )
    except SystemExit:
        return None
    return None if extras else args


class TestPlainReader:
    """A plain command line reads as the intermixed parse reads it; any other falls back to argparse."""

    # at least this many of the 2,000 drawn lines of each command are plain
    PLAIN_AT_LEAST = {"compute": 250, "verify": 250, "families": 40}

    @pytest.mark.parametrize("name", ["compute", "verify", "families"])
    def test_the_reader_agrees_with_argparse_on_seeded_command_lines(self, name):
        command = cli._command_parsers(cli._parser())[name]
        rng = random.Random(f"plain-{name}")
        read = 0
        for _ in range(2000):
            words = _draw_words(rng, command)
            got = cli._read_plain(name, words)
            if got is not None:
                read += 1
                assert got == _argparse_reads(command, name, words), words
        assert read >= self.PLAIN_AT_LEAST[name]

    @pytest.mark.parametrize("argv", [
        ["compute", "crown:4", "--mach"],
        ["compute", "crown:4", "--char=2"],
        ["compute", "--", "crown:4"],
        ["compute", "crown:4", "-h"],
        ["families", "--help"],
        ["compute", "crown:4", "--char", "-3"],
        ["compute", "crown:4", "--char", "x"],
        ["compute", "crown:4", "--char"],
        ["verify", "family", "crown", "extra"],
        ["verify", "nosuch"],
        ["verify"],
        ["families", "extra"],
    ], ids=" ".join)
    def test_other_command_lines_fall_back(self, argv):
        assert cli._read_plain(argv[0], argv[1:]) is None

    @pytest.mark.parametrize("argv", [
        ["compute", "crown:4", "--char", "٣", "--char", "+2", "--char", "1_0", "--char", " 2"],
        ["compute", "crown:4", "--machine", "--machine"],
        ["compute", ""],
        ["compute", "--machine", "crown:4"],
        ["verify", "family", "crown", "--max-n", "4", "--char", "2", "--char", "3"],
        ["verify", "family", "--max-n", "4", "crown"],
        ["verify", "all"],
        ["families"],
    ], ids=" ".join)
    def test_plain_command_lines_are_read(self, argv):
        command = cli._command_parsers(cli._parser())[argv[0]]
        got = cli._read_plain(argv[0], argv[1:])
        assert got is not None and got == _argparse_reads(command, argv[0], argv[1:])

    def test_an_append_never_changes_its_default(self):
        first = cli._read_plain("compute", ["crown:4", "--char", "2"])
        second = cli._read_plain("compute", ["crown:4", "--char", "3", "--char", "5"])
        assert first.char == [2] and second.char == [3, 5]
        # the default a line without --char reads is still the table's own
        assert cli._read_plain("compute", ["crown:4"]).char is None


class TestVerifyCommand:
    def test_all_machine_output_is_pinned_at_seed_1(self, capsys):
        assert main(["verify", "all", "--machine"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fb0a647d7879d71a7a6725ee45daa1421398b6e0b30c6e276ae21f184f432793"
        )
        counts = [out.count(f"verdict = {v}") for v in ("pass", "fail", "skip")]
        assert counts == [844, 81, 0]

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "0bea668095d040346068534cdab904fd8bda5247b34a418902559f8c13e80156"),
            (2, "04598c26652c710dd67895b71c0819a06535c79eab6125df5aa0486f563238ab"),
            (3, "76d0cb1c86b989537ef01f1f142c6b61bd950684dcde467dedb4b6ebee87be7d"),
            (4, "acee2a5ba762b8310c9518d7d59617b316ac664ddf3134473e09b33c8e80c9ac"),
            (5, "695f97c884b8ed100c97e286d583d283eeec810a62a147fe1007ab9ca2c18f7d"),
        ],
    )
    def test_kron_machine_output_is_pinned(self, capsys, seed, digest):
        argv = ["verify", "kron", "--seed", str(seed), "--trials", "200", "--machine"]
        assert main(argv) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_machine_render_matches_the_line_join(self):
        def line_join(reports):
            lines = []
            for r in reports:
                lines += [f"check = {r.check}", f"instance = {r.instance}"]
                for key in ("characteristics", "predicted", "engine"):
                    lines.append(f"{key} = " + " ".join(str(v) for v in getattr(r, key)))
                lines.append(f"verdict = {r.verdict}")
                if r.detail:
                    lines.append(f"detail = {r.detail}")
            return "\n".join(lines) + "\n"

        reports = run_suite(seed=1, checks=("lex", "kron", "union"), trials=3)
        reports.append(CheckReport("family", "crown:2", (0, 2), (), (), "skip", "too small"))
        assert {bool(r.detail) for r in reports} == {False, True}
        for some in (reports, reports[:1], []):
            assert cli._render_check_machine(some) == line_join(some)

    def test_union_section_passes(self, capsys):
        assert main(["verify", "union", "--seed", "1", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "0 failed, 0 skipped" in out

    def test_an_enumeration_past_the_limit_is_a_skip_naming_it(self, capsys, monkeypatch):
        monkeypatch.setattr(mis, "DEFAULT_MIS_LIMIT", 5)
        assert main(["verify", "family", "petersen", "--machine"]) == 3
        assert capsys.readouterr().out == (
            "check = family\ninstance = petersen\ncharacteristics = 0 2 3 5\n"
            "predicted = \nengine = \nverdict = skip\n"
            "detail = graph has more than 5 maximal independent sets\n"
        )

    @pytest.mark.parametrize("kind, bound", [("turan", "16385"), ("crown", "100000000")])
    def test_a_size_bound_past_max_vertices_exits_2_before_the_sweep(
        self, capsys, monkeypatch, kind, bound
    ):
        # a turan sweep to 16384 has about 134 million instances
        from wellcovered import verify

        def unbuilt(*args):
            raise AssertionError("the sweep was started")

        monkeypatch.setattr(verify, "_family_specs", unbuilt)
        assert main(["verify", "family", kind, "--max-n", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the family size bound must lie in 1..16384, got {bound}\n"

    def test_family_crown(self, capsys):
        assert main(["verify", "family", "crown", "--max-n", "9"]) == 0
        out = capsys.readouterr().out
        assert "crown:9" in out and "0 failed" in out

    def test_lex_section_reports_refutations(self, capsys):
        code = main(["verify", "lex", "--seed", "1", "--trials", "10"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_machine_output_is_deterministic(self, capsys):
        main(["verify", "blowup", "--seed", "2", "--trials", "3", "--machine"])
        first = capsys.readouterr().out
        main(["verify", "blowup", "--seed", "2", "--trials", "3", "--machine"])
        assert capsys.readouterr().out == first
        assert "verdict = pass" in first

    def test_negative_trials_exit_2(self, capsys):
        assert main(["verify", "all", "--trials", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_the_section_words_map_one_to_one_onto_the_checks(self):
        from wellcovered import verify

        assert cli._SECTIONS == verify.ALL_CHECKS
        assert list(cli._SECTION_ARGS.values()) == list(verify.ALL_CHECKS)
        assert list(cli._SECTION_ARGS) == [c.replace("-", "") for c in verify.ALL_CHECKS]

    def test_the_command_calls_the_suite_through_cli_run_suite(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda **options: calls.append(options) or [])
        assert main(["verify", "multiblowup", "--seed", "4", "--char", "3"]) == 0
        assert main(["verify", "all", "--machine"]) == 0
        assert calls == [
            dict(seed=4, chars=[3], checks=("multi-blowup",), family_kind=None,
                 family_max_n=None, trials=None),
            dict(seed=1, chars=(0, 2, 3, 5, 7), checks=cli._SECTIONS, family_kind=None,
                 family_max_n=None, trials=None),
        ]
        assert capsys.readouterr().out == "0 passed, 0 failed, 0 skipped\n\n"

    def test_zero_trials_run_no_random_instance(self, capsys):
        assert main(["verify", "union", "--trials", "0"]) == 0
        assert "0 passed, 0 failed, 0 skipped" in capsys.readouterr().out
        assert main(["verify", "lex", "--trials", "0", "--machine"]) == 0
        out = capsys.readouterr().out
        assert "instance = g[cycle:4];h[empty:2]" in out and "random" not in out

    def test_kind_only_valid_for_family(self, capsys):
        assert main(["verify", "lex", "crown"]) == 2

    def test_unknown_family_kind(self, capsys):
        assert main(["verify", "family", "moebius"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lex", "--max-n", "3"], "family kind or size bound"),
            (["kron", "--max-n", "3", "--trials", "1"], "family kind or size bound"),
            (["family", "crown", "--trials", "0"], "trial count"),
            (["family", "--trials", "5"], "trial count"),
            (["family", "petersen", "--max-n", "9"], "'petersen' takes no size bound"),
            (["family", "kpartite", "--max-n", "3"], "'kpartite' takes no size bound"),
            (["family", "--max-n", "0"], "size bound must lie in 1..16384, got 0"),
            (["all", "--max-n", "-5"], "size bound must lie in 1..16384, got -5"),
        ],
        ids=[
            "lex-max-n", "kron-max-n", "crown-trials", "family-trials",
            "petersen-max-n", "kpartite-max-n", "family-max-n-0", "all-max-n-negative",
        ],
    )
    def test_an_option_no_requested_section_reads_exits_2(self, capsys, argv, message):
        # `verify lex --max-n 3` used to run as if --max-n were absent,
        # `verify family crown --trials 0` checked all 7 crown specs, and
        # `verify family petersen --max-n 9` ignored its bound
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_all_takes_the_family_bound_and_the_trial_count(self, capsys):
        main(["verify", "all", "--max-n", "3", "--trials", "1", "--machine"])
        out = capsys.readouterr().out
        assert "instance = path:3\n" in out and "instance = path:4\n" not in out
        assert out.count("check = blowup\n") == 3  # one trial, three characteristics

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--char", "11"],
            ["lex", "--char", "3"],
            ["kron", "--char", "5"],
            ["family", "petersen", "--char", "7"],
        ],
        ids=["all-11", "lex-3", "kron-5", "petersen-7"],
    )
    def test_characteristics_no_section_sweeps_exit_2(self, capsys, argv):
        # these used to print "0 passed, 0 failed, 0 skipped" and exit 0
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "they sweep" in captured.err

    def test_a_characteristic_one_section_sweeps_still_runs(self, capsys):
        assert main(["verify", "union", "--trials", "2", "--char", "5"]) == 0
        assert "2 passed, 0 failed, 0 skipped" in capsys.readouterr().out


FAMILIES_LISTING = (
    "complete:n             complete graph on n vertices\n"
    "empty:n                edgeless graph on n vertices\n"
    "kpartite:s1,s2,...     complete multipartite graph with the given block sizes\n"
    "turan:n,r              Turan graph: r blocks on n vertices, sizes as equal as possible\n"
    "crown:n                complete bipartite K_{n,n} minus a perfect matching\n"
    "path:n                 path on n vertices\n"
    "cycle:n                cycle on n vertices (n >= 3)\n"
    "gear:n                 2n-cycle plus a hub adjacent to the even rim vertices\n"
    "petersen               the Petersen graph\n"
)


def test_families_command_lists_all_kinds(capsys):
    assert main(["families"]) == 0
    assert capsys.readouterr().out == FAMILIES_LISTING
