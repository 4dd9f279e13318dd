"""The two inner-loop kernels: maximal clique enumeration and GF(p) rank.

Vertex sets are bitmasks held in Python integers, so there is no limit on
the vertex count.  `mis` enumerates through `maximal_cliques` and
`exactlin` ranks through `gf_rank`; both are looked up on this module at
call time, so a tracer can wrap them.
"""

# the benchmark stamps its results with this name (wellcovered.KERNEL_IMPLEMENTATION)
IMPLEMENTATION = "python"


def maximal_cliques(adj_masks, limit):
    """Enumerate all maximal cliques of a graph given as bitmask adjacency.

    Bron-Kerbosch with pivoting; the pivot is the vertex of P | X with the
    most candidate neighbours (lowest index on ties).  The search keeps an
    explicit stack of (R, P, X) states instead of recursing, so its depth is
    bounded by memory rather than by the interpreter's recursion limit.
    Returns cliques as vertex bitmasks in depth-first discovery order.
    Raises ValueError once more than `limit` cliques have been collected.
    """
    out = []
    # one frame [R, P, X, candidates not yet branched on] per open level
    stack = []
    r, p, x = 0, (1 << len(adj_masks)) - 1, 0
    while True:
        if p:
            m = p | x
            pivot = -1
            best = -1
            while m:
                low = m & -m
                v = low.bit_length() - 1
                cnt = (p & adj_masks[v]).bit_count()
                if cnt > best:
                    best = cnt
                    pivot = v
                m ^= low
            stack.append([r, p, x, p & ~adj_masks[pivot]])
        elif not x:
            out.append(r)
            if len(out) > limit:
                raise ValueError("maximal clique count exceeds limit")
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return out
        frame = stack[-1]
        r, p, x, cand = frame
        low = cand & -cand
        nv = adj_masks[low.bit_length() - 1]
        frame[1] = p ^ low
        frame[2] = x | low
        frame[3] = cand ^ low
        r, p, x = r | low, p & nv, x & nv


def gf_rank(entries, rows, cols, p):
    """Rank of a rows x cols matrix over GF(p); entries are row-major ints."""
    a = [e % p for e in entries]
    rank = 0
    for c in range(cols):
        piv = -1
        for r in range(rank, rows):
            if a[r * cols + c]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            pr, pp = rank * cols, piv * cols
            for j in range(c, cols):
                a[pr + j], a[pp + j] = a[pp + j], a[pr + j]
        base = rank * cols
        inv = pow(a[base + c], p - 2, p)
        for j in range(c, cols):
            a[base + j] = a[base + j] * inv % p
        for r in range(rank + 1, rows):
            f = a[r * cols + c]
            if f:
                off = r * cols
                for j in range(c, cols):
                    a[off + j] = (a[off + j] - f * a[base + j]) % p
        rank += 1
        if rank == rows:
            break
    return rank
