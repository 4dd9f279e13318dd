"""Modular decomposition against the direct path that feeds every set.

`mis_family` contracts twin classes, components and co-components and
enumerates only the quotients with no module left; `compute_wcdim_fields`
feeds its family by default and every set with `decompose=False`.  The two
must agree on the set count, both ranks and the exact basis, and a graph
with no module must get exactly `mis_masks` back.
"""

import random

import pytest

from wellcovered import (
    CapacityError,
    FieldSpec,
    complete,
    complement,
    compute_wcdim,
    crown,
    cycle,
    disjoint_union,
    empty_graph,
    lex_product,
    multi_blowup,
    new_graph,
    path,
    petersen,
    random_graph,
    relabel,
)
from wellcovered.cli import main
from wellcovered.engine import compute_wcdim_fields
from wellcovered.mis import is_maximal_independent, mis_family, mis_masks

from helpers import all_graphs, brute_force_mis

FIELDS = (FieldSpec(0), FieldSpec(2), FieldSpec(3))


def assert_paths_agree(g, fields=FIELDS):
    decomposed = compute_wcdim_fields(g, fields, with_sum_rank=True)
    direct = compute_wcdim_fields(g, fields, with_sum_rank=True, decompose=False)
    for a, b in zip(decomposed, direct):
        assert (a.mis_count, a.diff_rank, a.sum_rank) == (b.mis_count, b.diff_rank, b.sum_rank)
        assert a.basis == b.basis


def triangles(k):
    g = complete(3)
    for _ in range(k - 1):
        g = disjoint_union(g, complete(3))
    return g


def random_cograph(n, rng, most=20000):
    """A relabelled random cograph whose set count stays below `most`.

    Unions multiply the counts and joins add them; the direct path
    enumerates every set, so a union is only taken while it stays small.
    """
    parts = [(complete(1), 1) for _ in range(n)]
    while len(parts) > 1:
        (a, ca), (b, cb) = (parts.pop(rng.randrange(len(parts))) for _ in range(2))
        if ca * cb < most and rng.random() < 0.7:
            parts.append((disjoint_union(a, b), ca * cb))
        else:
            parts.append((complement(disjoint_union(complement(a), complement(b))), ca + cb))
    g = parts[0][0]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_every_labelled_graph_up_to_six_vertices():
    count = 0
    for n in range(7):
        for g in all_graphs(n):
            assert_paths_agree(g)
            count += 1
    assert count == 33868


@pytest.mark.parametrize("seed", range(12))
def test_seeded_cographs(seed):
    rng = random.Random(seed)
    for n in (rng.randint(2, 20), rng.randint(21, 40), 40):
        g = random_cograph(n, rng)
        assert_paths_agree(g)
        # a cograph contracts to one vertex without enumerating anything
        assert mis_family(g)[2] == 0


@pytest.mark.parametrize(
    "a, b",
    [(2, 3), (3, 4), (4, 5), (5, 4), (6, 6), (7, 5), (8, 5), (5, 8), (10, 4), (4, 10), (13, 3), (20, 2)],
)
def test_seeded_lexicographic_products(a, b):
    rng = random.Random(100 * a + b)
    g = random_graph(a, 0.5, rng.randrange(10**6))
    h = random_graph(b, 0.5, rng.randrange(10**6))
    perm = list(range(a * b))
    rng.shuffle(perm)
    assert_paths_agree(relabel(lex_product(g, h), perm))


def test_family_is_made_of_maximal_independent_sets_and_counts_them_all():
    rng = random.Random(9)
    graphs = [multi_blowup(petersen(), [1, 2] * 5), lex_product(path(4), cycle(4))]
    graphs += [random_graph(rng.randint(2, 12), 0.3, seed) for seed in range(30)]
    for g in graphs:
        count, family, _ = mis_family(g)
        assert count == len(brute_force_mis(g))
        for m in family:
            assert is_maximal_independent(g, [v for v in range(g.n) if m >> v & 1])


@pytest.mark.parametrize(
    "g", [crown(6), petersen(), cycle(7), path(5), random_graph(30, 0.3, 2)], ids=repr
)
def test_a_graph_without_modules_gets_every_set_in_discovery_order(g):
    masks = mis_masks(g)
    assert mis_family(g) == (len(masks), masks, 1)


def test_pieces_count_the_enumerated_quotients():
    c5 = cycle(5)
    assert mis_family(triangles(4))[2] == 0
    assert mis_family(crown(5))[2] == 1
    # the blowup's quotient is the prime path P7; each C5 is enumerated on its own
    assert mis_family(multi_blowup(path(7), [2, 1, 3, 1, 2, 1, 1]))[2] == 1
    assert mis_family(disjoint_union(c5, disjoint_union(c5, c5)))[2] == 3
    report = compute_wcdim(triangles(4))
    assert (report.stats.sets, report.stats.pieces) == (81, 0)


def test_the_limit_applies_to_each_enumerated_quotient():
    c5 = cycle(5)
    g = disjoint_union(c5, disjoint_union(c5, c5))
    assert compute_wcdim(g, limit=5).mis_count == 125
    assert mis_family(g, limit=5)[0] == 125
    with pytest.raises(CapacityError):
        compute_wcdim(g, limit=4)
    with pytest.raises(CapacityError):
        compute_wcdim_fields(g, FIELDS, limit=5, decompose=False)


def test_empty_and_tiny_graphs():
    for g in (new_graph(0, []), empty_graph(1), empty_graph(2), complete(2)):
        assert_paths_agree(g)


def _write(path, n, edges):
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def test_thirteen_triangles_pass_the_default_limit(tmp_path, capsys):
    # 3^13 = 1,594,323 sets, more than the default limit of 10^6, but no
    # quotient needs enumerating
    file = tmp_path / "triangles13.txt"
    _write(file, 39, triangles(13).edges())
    assert main(["compute", str(file), "--char", "0", "--char", "2", "--machine"]) == 0
    out = capsys.readouterr().out
    assert out.count("mis_count = 1594323\n") == 2
    assert out.count("wcdim = 13\n") == 2


def test_a_threshold_graph_deeper_than_the_recursion_limit(tmp_path, capsys):
    # vertices added in turn as isolated and dominating, so the cotree is
    # about n levels deep; the output is the one enumerating every set gives
    n = 1500
    file = tmp_path / "threshold.txt"
    _write(file, n, [(u, v) for v in range(1, n, 2) for u in range(v)])
    assert main(["compute", str(file), "--verbose"]) == 0
    assert capsys.readouterr().out == (
        f"graph {file}: 1500 vertices, 562500 edges\n"
        "  over Q: wcdim = 750  (maximal independent sets: 751, difference rank: 750, "
        "sum rank: 751)\n"
    )
