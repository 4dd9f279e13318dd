"""The inner-loop kernel: maximal clique enumeration.

Vertex sets are bitmasks held in Python integers, so there is no limit on
the vertex count.  `mis` enumerates through `maximal_cliques`, which is
looked up on this module at call time, so a tracer can wrap it.  The batch
`gf_rank` lives in `batch`, which `__getattr__` reads it from on first
access, for the benchmark's tracer.
"""

# the benchmark stamps its results with this name (wellcovered.KERNEL_IMPLEMENTATION)
IMPLEMENTATION = "python"


def maximal_cliques(adj_masks, limit, within=None):
    """Enumerate all maximal cliques of a graph given as bitmask adjacency.

    `within`, a vertex bitmask, restricts the search to the subgraph it
    induces (default: the whole graph).

    Bron-Kerbosch with pivoting; the pivot is the vertex of P | X with the
    most candidate neighbours (lowest index on ties), except that the
    ascending scan for it stops at the first vertex with |P| - 1 or more:
    no vertex of P has more than |P| - 1.  Only a vertex of X can have |P|,
    and one that the scan has not reached is then passed over.  That
    changes no output and no order: such a vertex sees all of P, and it
    stays in X below every candidate the stop opens, so those states emit
    nothing.  On a long chain of nested states (an edgeless graph's
    complement) each state costs one read instead of one per vertex, and
    crown(k)'s complement costs about 12k reads instead of about k^2.

    A state with at most two candidates, a leaf included, is settled where
    it is found instead of being expanded: with P = {a} it emits R | a
    unless a vertex of X sees a; with an edge a ~ b it emits R | a | b
    unless a vertex of X sees both; with a non-edge a < b it emits R | a,
    then R | b, each unless a vertex of X sees it.  These are the cliques
    the pivoted search emits there, in the same order, since a pivot only
    drops a candidate that some vertex of X sees.  The state being expanded
    lives in locals, and the search keeps an explicit stack of its open
    ancestors, one immutable (R, P, X, candidates left) tuple each, instead
    of recursing, so its depth is bounded by memory rather than by the
    interpreter's recursion limit.
    Returns cliques as vertex bitmasks in depth-first discovery order.
    Raises ValueError once more than `limit` cliques have been collected.
    """
    out = []
    stack = []
    # (r, p, x, cand): the state being expanded, none at first;
    # (cr, cp, cx): the state just found, settled below or opened
    r = p = x = cand = 0
    cr, cp, cx = 0, (1 << len(adj_masks)) - 1 if within is None else within, 0
    while True:
        k = cp.bit_count()
        if k > 2:
            if cand:  # a state with no candidates left is done, not an ancestor
                stack.append((r, p, x, cand))
            m = cp | cx
            best = -1
            most = k - 1
            while m:
                low = m & -m
                nv = adj_masks[low.bit_length() - 1]
                cnt = (cp & nv).bit_count()
                if cnt > best:
                    best = cnt
                    pivot_nv = nv
                    if cnt >= most:
                        break
                m ^= low
            r, p, x, cand = cr, cp, cx, cp & ~pivot_nv
        elif not cp:
            if not cx:
                out.append(cr)
                if len(out) > limit:
                    raise ValueError("maximal clique count exceeds limit")
        else:
            low = cp & -cp
            na = adj_masks[low.bit_length() - 1]
            high = cp ^ low
            if not high:  # P = {a}
                if not cx & na:
                    out.append(cr | low)
            elif na & high:  # P = {a, b}, a ~ b
                if not cx & na & adj_masks[high.bit_length() - 1]:
                    out.append(cr | cp)
            else:  # P = {a, b}, a < b, not adjacent
                if not cx & na:
                    out.append(cr | low)
                if not cx & adj_masks[high.bit_length() - 1]:
                    out.append(cr | high)
            if len(out) > limit:
                raise ValueError("maximal clique count exceeds limit")
        while not cand:
            if not stack:
                return out
            r, p, x, cand = stack.pop()
        low = cand & -cand
        nv = adj_masks[low.bit_length() - 1]
        cand ^= low
        cr, cp, cx = r | low, p & nv, x & nv
        p ^= low
        x |= low



def __getattr__(name: str) -> object:
    """`gf_rank`, read off `batch` on first access and kept here."""
    if name != "gf_rank":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import batch

    value = globals()[name] = batch.gf_rank
    return value
