import random
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import pytest

from wellcovered import (
    CapacityError,
    InputError,
    blowup,
    build_family,
    complement,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty_graph,
    lex_product,
    multi_blowup,
    new_graph,
    path,
    random_graph,
    relabel,
)
from wellcovered.cli import parse_graph_file
from wellcovered.families import FamilySpec, disjunctive_product
from wellcovered.graphs import MAX_VERTICES, Graph

from helpers import all_graphs, brute_force_mis


def rand_graph(n, seed):
    return random_graph(n, 0.5, seed)


class TestNewGraph:
    def test_k2(self):
        g = new_graph(2, [(0, 1)])
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_empty_three(self):
        assert new_graph(3, []).edge_count == 0

    def test_c4(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_symmetrised_and_deduplicated(self):
        g = new_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_out_of_range(self):
        with pytest.raises(InputError):
            new_graph(4, [(0, 4)])

    def test_self_loop(self):
        with pytest.raises(InputError):
            new_graph(3, [(1, 1)])

    def test_adjacency_invariants_enforced(self):
        with pytest.raises(InputError):
            Graph(2, (0b10, 0b00))  # asymmetric
        with pytest.raises(InputError):
            Graph(1, (0b1,))  # loop

    def test_masks_out_of_range_or_not_masks_rejected(self):
        for masks in [(0b100, 0b000), (-1, 0), (frozenset({1}), frozenset({0})), (0,)]:
            with pytest.raises(InputError):
                Graph(2, masks)

    def test_constructor_accepts_valid_masks(self):
        assert Graph(3, [0b110, 0b001, 0b001]) == new_graph(3, [(0, 1), (0, 2)])


class TestComplement:
    def test_complete_becomes_empty(self):
        assert complement(complete(3)) == empty_graph(3)

    def test_involution(self):
        g = cycle(5)
        assert complement(complement(g)) == g

    def test_c4_complement_is_two_disjoint_edges(self):
        # hand enumeration: non-edges of the 4-cycle are the two diagonals
        assert complement(cycle(4)).edges() == [(0, 2), (1, 3)]

    def test_involution_random(self):
        for seed in range(20):
            g = rand_graph(seed % 8, seed)
            assert complement(complement(g)) == g


class TestDisjointUnion:
    def test_two_singletons(self):
        assert disjoint_union(complete(1), complete(1)) == empty_graph(2)

    def test_edge_counts_add(self):
        u = disjoint_union(complete(3), cycle(4))
        assert u.n == 7 and u.edge_count == 3 + 4

    def test_two_paths_give_c4_complement(self):
        u = disjoint_union(path(2), path(2))
        # u has edges {01, 23}; the complement of C_4 has {02, 13}
        assert relabel(u, [0, 2, 1, 3]) == complement(cycle(4))

    def test_edge_count_additivity_random(self):
        for seed in range(15):
            g, h = rand_graph(5, seed), rand_graph(4, seed + 100)
            assert disjoint_union(g, h).edge_count == g.edge_count + h.edge_count


class TestBlowup:
    def test_identity_case(self):
        assert blowup(complete(2), 0, 1) == complete(2)
        rng = random.Random(27)
        for n in range(1, 8):
            for _ in range(10):
                g = rand_graph(n, rng.randrange(10**6))
                assert all(blowup(g, v, 1) == g for v in range(n))

    def test_k2_blowup_is_star(self):
        # vertex 0 keeps its label, and its new twin 2 shares its neighbour 1, the centre
        assert blowup(complete(2), 0, 2) == new_graph(3, [(0, 1), (1, 2)])

    def test_k3_blowup_is_k211(self):
        # the twins 0 and 3 form the block of two
        g = blowup(complete(3), 0, 2)
        assert relabel(g, [0, 2, 3, 1]) == complete_multipartite([2, 1, 1])

    def test_replacement_vertices_are_twins(self):
        for seed in range(10):
            g = rand_graph(6, seed)
            rng = random.Random(seed)
            v, t = rng.randrange(6), rng.randint(2, 3)
            h = blowup(g, v, t)
            twins = [v, *range(g.n, g.n + t - 1)]
            for a in twins:
                for b in twins:
                    if a != b:
                        assert not h.has_edge(a, b)
                assert h.adj[a] == g.adj[v]

    def test_errors(self):
        with pytest.raises(InputError):
            blowup(complete(2), 2, 1)
        with pytest.raises(InputError):
            blowup(complete(2), 0, 0)


class TestMultiBlowup:
    def test_all_ones_gives_the_graph_back(self):
        rng = random.Random(28)
        for n in range(1, 13):
            for _ in range(10):
                g = rand_graph(n, rng.randrange(10**6))
                assert multi_blowup(g, [1] * g.n) == g

    def test_k2_22_gives_k22(self):
        # the blocks are {0, 2} and {1, 3}
        g = complete(2)
        h, slots = multi_blowup(g, [2, 2]), ref_multi_blowup(g.n, g.edges(), [2, 2])[2]
        assert slots == [[0, 2], [1, 3]]
        assert relabel(h, by_slots(slots)) == complete_multipartite([2, 2])

    def test_k3_222_gives_octahedron(self):
        g = complete(3)
        h, slots = multi_blowup(g, [2, 2, 2]), ref_multi_blowup(g.n, g.edges(), [2, 2, 2])[2]
        assert relabel(h, by_slots(slots)) == complete_multipartite([2, 2, 2])

    def test_equals_the_fold_of_blowup_and_the_edge_lists(self):
        # multi_blowup is built in one pass; its labels must be the fold's
        rng = random.Random(2027)
        for _ in range(3000):
            n = rng.randint(0, 12)
            g = rand_graph(n, rng.randrange(10**6))
            ts = [rng.randint(1, 3) for _ in range(n)]
            h = multi_blowup(g, ts)
            assert h == reduce(lambda f, vt: blowup(f, *vt), enumerate(ts), g)
            assert_is(h, *ref_multi_blowup(n, g.edges(), ts)[:2])

    def test_slots_partition_the_vertices(self):
        g = rand_graph(5, 3)
        ts = [2, 1, 3, 1, 2]
        h, slots = multi_blowup(g, ts), ref_multi_blowup(g.n, g.edges(), ts)[2]
        flat = [x for s in slots for x in s]
        assert sorted(flat) == list(range(h.n))
        assert [len(s) for s in slots] == ts

    def test_deterministic(self):
        g = rand_graph(5, 9)
        assert multi_blowup(g, [2, 3, 1, 2, 1]) == multi_blowup(g, [2, 3, 1, 2, 1])

    def test_errors(self):
        with pytest.raises(InputError):
            multi_blowup(complete(2), [1])
        with pytest.raises(InputError):
            multi_blowup(complete(2), [1, 0])


class TestLexProduct:
    def test_complete_times_complete(self):
        assert lex_product(complete(2), complete(2)) == complete(4)

    def test_k2_times_empty_is_k22(self):
        assert lex_product(complete(2), empty_graph(2)) == complete_multipartite([2, 2])

    def test_degree_formula(self):
        for seed in range(8):
            g, h = rand_graph(4, seed), rand_graph(3, seed + 50)
            prod = lex_product(g, h)
            for u in range(g.n):
                for w in range(h.n):
                    assert prod.degree(u * h.n + w) == g.degree(u) * h.n + h.degree(w)

    def test_matches_uniform_multi_blowup(self):
        # product with an edgeless factor is the all-t blowup, up to the slot map
        for g, t in [(cycle(4), 2), (path(3), 3), (complete(3), 2)]:
            prod = lex_product(g, empty_graph(t))
            blown = multi_blowup(g, [t] * g.n)
            slots = ref_multi_blowup(g.n, g.edges(), [t] * g.n)[2]
            assert relabel(blown, by_slots(slots)) == prod


class TestRandomGraph:
    def test_extremes(self):
        assert random_graph(5, 0, 7) == empty_graph(5)
        assert random_graph(5, 1, 7) == complete(5)

    def test_deterministic(self):
        assert random_graph(6, 0.5, 42) == random_graph(6, 0.5, 42)

    def test_bad_probability(self):
        with pytest.raises(InputError):
            random_graph(3, 2, 1)


def test_relabel_rejects_non_permutation():
    with pytest.raises(InputError):
        relabel(complete(3), [0, 0, 1])


def test_all_graphs_helper_counts():
    assert sum(1 for _ in all_graphs(3)) == 8


# ---------------------------------------------------------------------------
# differential tests: every construction against an edge-list reference on
# all labelled graphs with at most 5 vertices


def edge_lists(n):
    """Every labelled graph on n vertices as a sorted edge list, built without the package."""
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield [pairs[k] for k in range(len(pairs)) if code >> k & 1]


SMALL = [(n, edges) for n in range(6) for edges in edge_lists(n)]


def assert_is(g, n, edges):
    """g is the simple graph on n vertices with these (possibly repeated, unordered) edges."""
    want = sorted({(min(u, v), max(u, v)) for u, v in edges})
    assert g.n == n
    assert g.edges() == want
    assert g.edge_count == len(want)
    nbrs = [set() for _ in range(n)]
    for u, v in want:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert g.adj == tuple(frozenset(s) for s in nbrs)
    assert Graph(g.n, g.masks) == g  # the checking constructor accepts what was built


def ref_blowup(n, edges, v, t):
    """Keep every label, and join t - 1 new twins of v at n..n+t-2 to v's neighbours."""
    nbrs = [a if b == v else b for a, b in edges if v in (a, b)]
    return n + t - 1, edges + [(u, n + c) for c in range(t - 1) for u in nbrs]


def ref_multi_blowup(n, edges, ts):
    """Blow up each original vertex in turn; the slot of v is v and its appended twins."""
    size, slots = n, []
    for v in range(n):
        slots.append([v, *range(size, size + ts[v] - 1)])
        size, edges = ref_blowup(size, edges, v, ts[v])
    return size, edges, slots


def by_slots(slots):
    """The relabelling that puts each slot's vertices next to each other, slot by slot."""
    perm = [0] * sum(map(len, slots))
    for pos, x in enumerate(x for s in slots for x in s):
        perm[x] = pos
    return perm


def test_new_graph_matches_the_edge_lists():
    for n, edges in SMALL:
        assert_is(new_graph(n, edges), n, edges)
        assert_is(new_graph(n, [(v, u) for u, v in edges] + edges), n, edges)


def test_relabel_and_complement_match_the_edge_lists():
    rng = random.Random(5)
    for n, edges in SMALL:
        g = new_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert_is(relabel(g, perm), n, [(perm[u], perm[v]) for u, v in edges])
        assert_is(complement(g), n, sorted(set(combinations(range(n), 2)) - set(edges)))


def test_disjoint_union_matches_the_edge_lists():
    others = [(0, []), (1, []), (2, [(0, 1)]), (3, [(0, 2)]), (3, [(0, 1), (1, 2), (0, 2)])]
    for n, edges in SMALL:
        g = new_graph(n, edges)
        for m, more in others:
            h = new_graph(m, more)
            assert_is(disjoint_union(g, h), n + m, edges + [(n + u, n + v) for u, v in more])
            assert_is(disjoint_union(h, g), m + n, more + [(m + u, m + v) for u, v in edges])


def test_blowup_matches_the_edge_lists():
    for n, edges in SMALL:
        g = new_graph(n, edges)
        for v in range(n):
            for t in (1, 2, 3):
                assert_is(blowup(g, v, t), *ref_blowup(n, edges, v, t))


def test_multi_blowup_slots_match_the_edge_lists():
    rng = random.Random(9)
    for n, edges in SMALL:
        g = new_graph(n, edges)
        for ts in ([1] * n, [2] * n, [rng.randint(1, 3) for _ in range(n)]):
            size, want, slots = ref_multi_blowup(n, edges, ts)
            h = multi_blowup(g, ts)
            assert_is(h, size, want)
            # every vertex's copies are twins of its blown-up neighbourhood
            for v, copies in enumerate(slots):
                nbrs = sum(1 << x for u in g.adj[v] for x in slots[u])
                assert all(h.masks[x] == nbrs for x in copies)


def ref_lex_product(a, gedges, b, hedges):
    """(u, w) ~ (u', w') iff uu' is an edge, or u = u' and ww' is one; (u, w) is u * b + w."""
    inside = [(u * b + w, u * b + w2) for u in range(a) for w, w2 in hedges]
    across = [(u * b + w, u2 * b + w2) for u, u2 in gedges for w, w2 in product(range(b), repeat=2)]
    return a * b, inside + across


def test_lex_product_matches_the_edge_lists():
    factors = [(0, []), (1, []), (2, []), (2, [(0, 1)]), (3, [(0, 1), (1, 2)])]
    for n, edges in SMALL:
        g = new_graph(n, edges)
        for b, hedges in factors:
            h = new_graph(b, hedges)
            assert_is(lex_product(g, h), *ref_lex_product(n, edges, b, hedges))
            assert_is(lex_product(h, g), *ref_lex_product(b, hedges, n, edges))


def ref_disjunctive_product(a, gedges, b, hedges):
    """(u, w) ~ (u', w') iff uu' or ww' is an edge; (u, w) is u * b + w."""
    in_g = [(u * b + w, u2 * b + w2) for u, u2 in gedges for w, w2 in product(range(b), repeat=2)]
    in_h = [(u * b + w, u2 * b + w2) for w, w2 in hedges for u, u2 in product(range(a), repeat=2)]
    return a * b, in_g + in_h


def test_disjunctive_product_matches_the_edge_lists():
    factors = [(0, []), (1, []), (2, []), (2, [(0, 1)]), (3, [(0, 1), (1, 2)])]
    for n, edges in SMALL:
        g = new_graph(n, edges)
        for b, hedges in factors:
            h = new_graph(b, hedges)
            assert_is(disjunctive_product(g, h), *ref_disjunctive_product(n, edges, b, hedges))
            assert_is(disjunctive_product(h, g), *ref_disjunctive_product(b, hedges, n, edges))


def test_disjunctive_product_sets_are_the_products_of_the_factors_sets():
    # so they are the rows of A (x) M, and among the sets of the lexicographic product
    small = [g for n in range(1, 4) for g in all_graphs(n)]
    for g, h in product(small, repeat=2):
        b = h.n
        want = sorted(
            tuple(sorted(u * b + w for u in s for w in t))
            for s in brute_force_mis(g) for t in brute_force_mis(h)
        )
        got = brute_force_mis(disjunctive_product(g, h))
        assert got == want
        assert set(got) <= set(brute_force_mis(lex_product(g, h)))


def test_random_graph_matches_the_edge_list_stream():
    for n in range(6):
        for p in (Fraction(0), Fraction(1, 2), Fraction(3, 10), Fraction(1), 0.25):
            q = Fraction(p)
            for seed in range(20):
                rng = random.Random(seed)
                want = [
                    (u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.randrange(q.denominator) < q.numerator
                ]
                assert_is(random_graph(n, p, seed), n, want)


def test_random_graph_draws_what_randrange_draws():
    # random_graph draws each pair's word with getrandbits and rejects it
    # itself; the graphs must stay those of one rng.randrange(den) per pair
    def reference(n, p, seed):
        rng = random.Random(seed)
        masks = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.randrange(p.denominator) < p.numerator:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        return tuple(masks)

    for p in (Fraction(1, 2), Fraction(3, 10), Fraction(1, 10), Fraction(0), Fraction(1)):
        for seed in range(300):
            for n in range(13):
                assert random_graph(n, p, seed).masks == reference(n, p, seed), (n, p, seed)


def ref_family(kind, params):
    """(n, edges) of a named family instance, straight from its definition."""
    if kind in ("complete", "empty"):
        (n,) = params
        return n, list(combinations(range(n), 2)) if kind == "complete" else []
    if kind in ("kpartite", "turan"):
        if kind == "turan":
            n, r = params
            params = [n // r + (i < n % r) for i in range(r)]
        block = [b for b, size in enumerate(params) for _ in range(size)]
        pairs = combinations(range(len(block)), 2)
        return len(block), [(u, v) for u, v in pairs if block[u] != block[v]]
    if kind == "crown":
        (k,) = params
        return 2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j]
    if kind == "path":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        (n,) = params
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "gear":
        (k,) = params
        rim = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
        return 2 * k + 1, rim + [(i, 2 * k) for i in range(0, 2 * k, 2)]
    assert kind == "petersen"
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + inner + [(i, 5 + i) for i in range(5)]


@pytest.mark.filterwarnings("ignore:crown")
def test_every_family_matches_its_definition():
    specs = [("complete", (n,)) for n in range(1, 7)] + [("empty", (n,)) for n in range(1, 7)]
    specs += [("kpartite", s) for s in [(1,), (3,), (1, 1), (2, 3), (1, 2, 1), (3, 1, 2, 2)]]
    specs += [("turan", (n, r)) for n in range(1, 9) for r in range(1, n + 1)]
    specs += [("crown", (k,)) for k in range(1, 7)] + [("path", (n,)) for n in range(1, 7)]
    specs += [("cycle", (n,)) for n in range(3, 8)] + [("gear", (k,)) for k in range(3, 6)]
    specs += [("petersen", ())]
    for kind, params in specs:
        assert_is(build_family(FamilySpec(kind, params)), *ref_family(kind, params))


# ---------------------------------------------------------------------------
# the vertex bound


def test_vertex_counts_above_the_bound_are_refused_before_allocation():
    builds = [
        lambda: new_graph(MAX_VERTICES + 1, []),
        lambda: random_graph(10**12, 0, 1),
        lambda: build_family(FamilySpec("empty", (10**12,))),
        lambda: build_family(FamilySpec("crown", (MAX_VERTICES // 2 + 1,))),
        lambda: build_family(FamilySpec("kpartite", (MAX_VERTICES, 1))),
        lambda: build_family(FamilySpec("turan", (10**12, 3))),
        lambda: parse_graph_file(f"# big\n{10**12} 0\n"),
    ]
    for build in builds:
        with pytest.raises(CapacityError):
            build()


# ---------------------------------------------------------------------------
# the edge-list parser: each error class keeps its message and line number


PARSER_ERRORS = [
    ("2 1\n0 1 2\n", "<input> line 2: expected two integers, got '0 1 2'"),
    ("1\n", "<input> line 1: expected two integers, got '1'"),
    ("2 1\n0 x\n", "<input> line 2: expected two integers, got '0 x'"),
    ("x 1\n", "<input> line 1: expected two integers, got 'x 1'"),
    ("2 1\n0 1.0\n", "<input> line 2: expected two integers, got '0 1.0'"),
    ("2 1\n 0 # 1\n", "<input> line 2: expected two integers, got '0 # 1'"),
    ("-1 0\n", "<input> line 1: header counts must be non-negative"),
    ("3 -2\n", "<input> line 1: header counts must be non-negative"),
    ("2 1\n0 2\n", "<input> line 2: vertex index out of range for n = 2"),
    ("2 1\n-1 0\n", "<input> line 2: vertex index out of range for n = 2"),
    ("2 1\n1 1\n", "<input> line 2: self-loop 1 1"),
    ("3 2\n0 1\n0 1\n", "<input> line 3: duplicate edge 0 1"),
    ("3 2\n0 1\n1 0\n", "<input> line 3: duplicate edge 1 0"),
    ("# nothing\n", "<input>: missing header line 'n m'"),
    ("", "<input>: missing header line 'n m'"),
    ("3 2\n0 1\n", "<input>: header promises 2 edges, found 1"),
    ("3 1\n0 1\n1 2\n", "<input>: header promises 1 edges, found 2"),
    ("# c\r\n\r\n  3 1 \r\n\t0 1 2  \r\n", "<input> line 4: expected two integers, got '0 1 2'"),
]


@pytest.mark.parametrize("text, message", PARSER_ERRORS)
def test_parser_error_messages(text, message):
    with pytest.raises(InputError) as info:
        parse_graph_file(text)
    assert str(info.value) == message


def test_parser_accepts_comments_blanks_crlf_and_whitespace():
    text = "# a path\r\n\r\n  4 3 \r\n\t0 1\r\n# middle\n  #x\n2 1  \n\n 3   2\n# end"
    assert_is(parse_graph_file(text), 4, [(0, 1), (1, 2), (2, 3)])
    assert_is(parse_graph_file("3 0\n# 0 1\n"), 3, [])


def test_parser_matches_new_graph_on_all_small_graphs():
    rng = random.Random(3)
    for n, edges in SMALL:
        shown = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(shown)
        text = f"{n} {len(shown)}\n" + "".join(f"{u} {v}\n" for u, v in shown)
        assert parse_graph_file(text) == new_graph(n, edges)


# ---------------------------------------------------------------------------
# the bulk path against the line walk


def parse_outcome(parse, text):
    """The graph a parser returns for text, or the class and message of what it raises."""
    try:
        return parse(text)
    except (InputError, CapacityError) as exc:
        return type(exc), str(exc)


def canonical(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def faulted_files():
    """The canonical file of each of a few seeded graphs, then copies of it with one fault each."""
    rng = random.Random(16)
    for n in (2, 3, 5, 9, 12, 20, 40):
        g = random_graph(n, Fraction(1, 2), rng.randrange(2**32))
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
        rng.shuffle(edges)
        if len(edges) < 2:
            edges = [(0, 1), (n - 1, 0)] if n > 2 else [(0, 1)]
        m = len(edges)
        body = "".join(f"{u} {v}\n" for u, v in edges)
        u, v = edges[rng.randrange(m)]
        yield canonical(n, edges)
        yield canonical(n, edges + [(u, v)])  # a repeated edge
        yield canonical(n, edges + [(v, u)])  # a reversed repeat
        yield canonical(n, edges[:1] + [(u, u)] + edges[1:])  # a self-loop
        yield canonical(n, edges + [(u, n)])  # out of range
        yield canonical(n, [(-1, v)] + edges)  # negative
        yield f"{n} {m + 1}\n" + body  # header count too high
        yield f"{n} {m - 1}\n" + body  # header count too low
        yield f"{n} {m}\n" + body + f"{v} {u}\n"  # too low by a repeat, so 2m bits are set
        yield f"{MAX_VERTICES + 1} {m}\n" + body
        yield f"{n} {m}\n" + body.replace(f"{u} {v}\n", f"+{u} {v}\n", 1)
        yield f"{n} {m}\n" + body.replace(f"{u} {v}\n", f"{u} 0_{v}\n", 1)
        yield f"{n} {m}\n" + body.replace(f"{u} {v}\n", f"{u} ٠{v}\n", 1)  # Arabic-Indic zero
        yield f"{n} {m}\n" + body.replace(f"{u} {v}\n", f"{u} {'0' * 5000}{v}\n", 1)
        yield (f"{n} {m}\n" + body)[:-1]  # no final newline
        # as many tokens as a canonical file, but one line of 3 and one of 1
        a, b = edges[0]
        c, d = edges[1] if m > 1 else (a, b)
        yield f"{n} {m}\n{a} {b} {c}\n{d}\n" + "".join(f"{x} {y}\n" for x, y in edges[2:])


# the canonical layout as a pattern: a header line and one line per edge,
# each two runs of ASCII digits joined by one space and ended by '\n'
CANONICAL_LAYOUT = re.compile(r"(?:[0-9]+ [0-9]+\n)+")


def test_bulk_path_matches_the_line_walk():
    from wellcovered import cli

    texts = [text for text, _ in PARSER_ERRORS]
    texts.append("# a path\r\n\r\n  4 3 \r\n\t0 1\r\n# middle\n  #x\n2 1  \n\n 3   2\n# end")
    texts += [canonical(n, edges) for n, edges in SMALL]
    texts.append(f"{10**12} 0\n")  # refused before a mask list is allocated
    faulted = list(faulted_files())
    # 10 of each graph's 16 files keep the canonical layout, so their faults
    # must be caught by the bulk path's checks, not by its pattern
    assert len(faulted) == 7 * 16
    assert sum(1 for text in faulted if CANONICAL_LAYOUT.fullmatch(text)) == 7 * 10
    texts += faulted
    for text in texts:
        want = parse_outcome(cli._parse_lines, text)
        assert parse_outcome(parse_graph_file, text) == want, text[:80]
    # "2 2\n0 1 2\n3\n" has as many tokens as a 2-edge file
    assert parse_outcome(parse_graph_file, "2 2\n0 1 2\n3\n") == (
        InputError, "<input> line 2: expected two integers, got '0 1 2'"
    )


def test_canonical_files_never_reach_the_line_walk(monkeypatch):
    from wellcovered import cli

    monkeypatch.setattr(cli, "_parse_lines", lambda *a: pytest.fail("the line walk ran"))
    rng = random.Random(4)
    for n, edges in SMALL:
        shown = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        assert parse_graph_file(canonical(n, shown)) == new_graph(n, edges)
    for n in (30, 80, 200):
        g = random_graph(n, Fraction(3, 10), n)
        assert parse_graph_file(canonical(n, g.edges())) == g


def pattern_parse_canonical(text):
    """The bulk path as it was when the layout was checked by CANONICAL_LAYOUT."""
    if not CANONICAL_LAYOUT.fullmatch(text):
        return None
    tokens = text.split()
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        return None
    del tokens[:2]
    if n > MAX_VERTICES or len(tokens) != 2 * m:
        return None
    table = {str(v): v for v in range(n)}
    try:
        ends = list(map(table.__getitem__, tokens))
    except KeyError:
        return None
    masks = [0] * n
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if sum(map(int.bit_count, masks)) != 2 * m:
        return None
    return Graph.unchecked(n, tuple(masks))


def mutate_line(rng, line):
    """One line of a canonical text ("u v"), changed in one of the ways a file can stray."""
    u, v = line.split(" ")
    return rng.choice([
        lambda: f"0{u} {v}",  # a leading zero
        lambda: f"{u}  {v}",  # a doubled space
        lambda: f"{u}\t{v}",
        lambda: f"{u} {v}\r",  # CRLF, once the line is joined
        lambda: f"{u} {v} ",
        lambda: f" {u} {v}",
        lambda: f"{u} \u0663{v}",  # an Arabic-Indic digit
        lambda: f"{u} \uff11",  # a fullwidth digit
        lambda: f"{u} {v}_0",
        lambda: f"{u} 1_{v}",
        lambda: f"+{u} {v}",
        lambda: f"{u} -{v}",
        lambda: f"{u} {v}\n",  # a blank line follows
        lambda: f"{u}",  # one token
        lambda: f"{u} ",  # one token and a space
        lambda: f" {v}",
        lambda: f"{u} {v} {u}",  # three tokens
        lambda: f"{u} {u}",  # a self-loop
        lambda: f"{v} {u}",  # the same edge reversed
        lambda: f"{u} {v}9",  # an endpoint >= n, as n < 10
        lambda: f"{u} {'0' * 5000}{v}",  # a token past int()'s digit limit
        lambda: f"{u} {v}\u2028",  # a Unicode line separator
    ])()


def mutated_files(rng, count):
    """Canonical texts of small random graphs, each with up to five faults."""
    for _ in range(count):
        n = rng.randint(1, 9)
        g = random_graph(n, Fraction(1, 2), rng.randrange(2**32))
        edges = g.edges()
        if rng.random() < 0.3 and edges:
            edges.append(rng.choice(edges))  # a repeated edge
        lines = [f"{n} {len(edges) + rng.choice([0, 0, 0, -1, 1])}"]
        lines += [f"{u} {v}" for u, v in edges]
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(lines))
            lines[i] = mutate_line(rng, lines[i]) if lines[i].count(" ") == 1 else lines[i]
        end = rng.random()
        tail = ""
        if end < 0.1:
            tail = str(rng.randrange(n))  # digits after the final newline
        elif end < 0.3:
            # a line's last run moved after the final newline
            i = rng.randrange(len(lines))
            head, _, tail = lines[i].rpartition(" ")
            lines[i] = head + " "
        text = "".join(line + "\n" for line in lines) + tail
        yield text[:-1] if end > 0.9 else text  # no final newline


def test_canonical_check_matches_the_layout_pattern():
    # counting tokens, requiring a final newline and deleting the digits
    # accepts exactly the texts CANONICAL_LAYOUT matched, so every text
    # gives the graph or the _parse_lines error it gave when the pattern
    # decided the layout
    from wellcovered import cli

    def before(text):
        g = pattern_parse_canonical(text)
        return g if g is not None else cli._parse_lines(text)

    texts = list(mutated_files(random.Random(22), 3000))
    texts += [
        "", "\n", " \n", "0 0\n", "0 0", "00 0\n", "1 0\n\n", "3 1\r\n0 1\r\n",
        "3 1\n0 1", "3 1\n0\n1\n", "3 1\n0 1 2\n", "3 -1\n", "3 1\n1 1\n",
        "3 2\n0 1\n1 0\n", "3 1\n0 3\n", f"{MAX_VERTICES + 1} 0\n",
        f"1{'0' * 5000} 0\n", f"3 1{'0' * 5000}\n0 1\n", "3 1\n\u0660 1\n", "3 1\n0_0 1\n",
        # a line short of a digit run, and the run after the final newline
        " 3\n0", "3 \n0", "3 1\n0 \n1", "3 1\n 0\n1",
    ]
    layouts = 0
    for text in texts:
        layouts += bool(CANONICAL_LAYOUT.fullmatch(text))
        assert cli._parse_canonical(text) == pattern_parse_canonical(text), repr(text[:80])
        assert parse_outcome(parse_graph_file, text) == parse_outcome(before, text), repr(text[:80])
    # both sides of the check are reached often
    assert 500 < layouts < len(texts) - 500
