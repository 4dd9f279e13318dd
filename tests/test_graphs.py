import random
from fractions import Fraction
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
from wellcovered.families import FamilySpec
from wellcovered.graphs import MAX_VERTICES, Graph, multi_blowup_slots

from helpers import all_graphs


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

    def test_k2_blowup_is_star(self):
        # copies of vertex 0 land on {1, 2}, both adjacent to the old partner
        assert blowup(complete(2), 0, 2) == new_graph(3, [(0, 1), (0, 2)])

    def test_k3_blowup_is_k211(self):
        g = blowup(complete(3), 0, 2)
        assert relabel(g, [2, 3, 0, 1]) == complete_multipartite([2, 1, 1])

    def test_replacement_vertices_are_twins(self):
        for seed in range(10):
            g = rand_graph(6, seed)
            rng = random.Random(seed)
            v, t = rng.randrange(6), rng.randint(2, 3)
            h = blowup(g, v, t)
            twins = range(g.n - 1, g.n - 1 + t)
            for a in twins:
                for b in twins:
                    if a != b:
                        assert not h.has_edge(a, b)
                assert h.adj[a] == h.adj[twins[0] if a != twins[0] else twins[1]]

    def test_errors(self):
        with pytest.raises(InputError):
            blowup(complete(2), 2, 1)
        with pytest.raises(InputError):
            blowup(complete(2), 0, 0)


class TestMultiBlowup:
    def test_all_ones_is_the_tracked_relabelling(self):
        # every t = 1, so the result is g relabelled by the slot permutation
        g = path(3)
        h, slots = multi_blowup_slots(g, [1, 1, 1])
        perm = [s[0] for s in slots]
        assert h == relabel(g, perm)

    def test_k2_22_gives_k22(self):
        assert multi_blowup(complete(2), [2, 2]) == complete_multipartite([2, 2])

    def test_k3_222_gives_octahedron(self):
        h, slots = multi_blowup_slots(complete(3), [2, 2, 2])
        perm = [0] * 6
        want = complete_multipartite([2, 2, 2])
        pos = 0
        for s in slots:
            for x in s:
                perm[x] = pos
                pos += 1
        assert relabel(h, perm) == want

    def test_slots_partition_the_vertices(self):
        g = rand_graph(5, 3)
        ts = [2, 1, 3, 1, 2]
        h, slots = multi_blowup_slots(g, ts)
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
            blown, slots = multi_blowup_slots(g, [t] * g.n)
            perm = [0] * blown.n
            for u, s in enumerate(slots):
                for w, x in enumerate(s):
                    perm[x] = u * t + w
            assert relabel(blown, perm) == prod


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
    """Swap v with n-1, then replace n-1 by t independent copies at n-1..n+t-2."""
    last = n - 1
    swap = {v: last, last: v}
    swapped = [(swap.get(a, a), swap.get(b, b)) for a, b in edges]
    nbrs = [a if b == last else b for a, b in swapped if last in (a, b)]
    kept = [(a, b) for a, b in swapped if last not in (a, b)]
    return n + t - 1, kept + [(u, last + c) for c in range(t) for u in nbrs]


def ref_multi_blowup(n, edges, ts):
    """Blow up each original vertex in turn, tracking where every copy lands."""
    size, pos, slots = n, list(range(n)), []
    for i in range(n):
        cur, last = pos[i], size - 1
        size, edges = ref_blowup(size, edges, cur, ts[i])
        pos = [cur if p == last else p for p in pos]
        slots = [[cur if x == last else x for x in s] for s in slots]
        slots.append(list(range(last, last + ts[i])))
    return size, edges, slots


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
            size, want, want_slots = ref_multi_blowup(n, edges, ts)
            h, slots = multi_blowup_slots(g, ts)
            assert_is(h, size, want)
            assert slots == want_slots
            assert multi_blowup(g, ts) == h


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
