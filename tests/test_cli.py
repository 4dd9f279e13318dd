import hashlib
from fractions import Fraction

import pytest

from wellcovered import InputError
from wellcovered.cli import (
    ReportDocument,
    ReportSection,
    load_graph,
    main,
    parse_family_spec,
    parse_graph_file,
    parse_machine,
    render_machine,
)
from wellcovered.families import FamilySpec, crown, petersen


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
                    basis=((Fraction(1, 2), Fraction(-1, 3)), (1, 0)),
                ),
                ReportSection(characteristic=2, mis_count=5, diff_rank=4, wcdim=2),
            ),
        )
        assert parse_machine(render_machine(doc)) == doc

    def test_reject_unknown_key(self):
        with pytest.raises(InputError):
            parse_machine("graph = x\nn = 1\nedge_count = 0\nbogus = 3\n")


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

    def test_bad_characteristic_exit_code(self, capsys):
        assert main(["compute", "petersen", "--char", "4"]) == 2

    def test_byte_identical_output(self, capsys):
        main(["compute", "gear:4", "--char", "3", "--basis", "--machine"])
        first = capsys.readouterr().out
        main(["compute", "gear:4", "--char", "3", "--basis", "--machine"])
        assert capsys.readouterr().out == first


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
    def basis_reads(self, monkeypatch):
        from wellcovered.exactlin import RowSpace

        calls = []
        real = RowSpace.basis
        monkeypatch.setattr(RowSpace, "basis", lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("flags", [[], ["--machine"], ["--verbose"]])
    def test_compute_without_basis_builds_none(self, capsys, basis_reads, flags):
        assert main(["compute", "crown:6", "--char", "0", "--char", "3", *flags]) == 0
        assert "wcdim = 5" in capsys.readouterr().out
        assert basis_reads == []

    def test_verify_suite_builds_none(self, basis_reads):
        from wellcovered.verify import run_suite

        assert run_suite(seed=1)
        assert basis_reads == []

    def test_compute_with_basis_output_is_unchanged(self, capsys, basis_reads):
        assert main(["compute", "crown:6", "--char", "0", "--char", "3", "--basis", "--machine"]) == 0
        assert capsys.readouterr().out == CROWN6_BASIS_MACHINE
        assert len(basis_reads) == 2  # one per field


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
        assert lines[0].startswith("stats: enumeration ") and lines[0].endswith(" ms, 9 sets")
        assert len(lines) == 1 + max(1, flags.count("--char"))

    def test_enumeration_line_counts_pieces_and_every_set(self, capsys):
        assert main(["compute", "crown:7", "--stats"]) == 0
        assert capsys.readouterr().err.startswith("stats: enumeration of 1 piece in ")
        # a complete multipartite graph is a cograph: its 3 sets, the parts,
        # come out of the decomposition without any enumeration
        assert main(["compute", "kpartite:2,3,4", "--char", "2", "--stats"]) == 0
        enum, gf2 = capsys.readouterr().err.splitlines()
        assert enum.startswith("stats: enumeration of 0 pieces in ") and enum.endswith(" ms, 3 sets")
        assert gf2.endswith("rows fed 2, kept 2, vanished 0, stopped at full rank: no")

    def test_each_field_says_how_it_was_obtained(self, capsys):
        argv = ["compute", "crown:5", "--char", "0", "--char", "3", "--char", "10007", "--stats"]
        assert main(argv) == 0
        q, gf3, gfp = capsys.readouterr().err.splitlines()[1:]
        # crown(5) drops rank exactly in characteristic 3 = 5 - 2, so 3 divides D
        assert q.startswith("stats: Q: integer, elimination ")
        assert gf3.startswith("stats: GF(3): own elimination, elimination ")
        assert gfp.startswith("stats: GF(10007): read off (p ∤ D), elimination ")
        assert q.endswith("rows fed 6, kept 6, vanished 0, stopped at full rank: no")
        assert gf3.endswith("rows fed 6, kept 5, vanished 1, stopped at full rank: no")


class TestParserReuse:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        from wellcovered import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["compute", "complete:3"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

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


class TestVerifyCommand:
    def test_all_machine_output_is_pinned_at_seed_1(self, capsys):
        assert main(["verify", "all", "--machine"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fb0a647d7879d71a7a6725ee45daa1421398b6e0b30c6e276ae21f184f432793"
        )
        counts = [out.count(f"verdict = {v}") for v in ("pass", "fail", "skip")]
        assert counts == [844, 81, 0]

    def test_union_section_passes(self, capsys):
        assert main(["verify", "union", "--seed", "1", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "0 failed, 0 skipped" in out

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


def test_families_command_lists_all_kinds(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for kind in ("complete", "empty", "kpartite", "turan", "crown", "path", "cycle", "gear", "petersen"):
        assert kind in out
