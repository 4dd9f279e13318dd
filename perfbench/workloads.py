"""Seeded input generators and job lists for the three benchmark workloads.

Every graph is built here, with the benchmark's own code, and written as an
edge-list file; the program only ever sees those files (or, for
`verify-sweep`, a section name and a seed).  The same workload seed gives
byte-identical files and the same job list.

Job lists are made of blocks with a fixed composition (the same graph sizes
or verify sections in every block), shuffled within the block by the seed.
A closed loop that stops after any number of jobs therefore measures nearly
the same mix on every seed, so run-to-run spread reflects the program and
the machine rather than a lucky draw of small graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

COMPUTE_CHARS = (0, 2, 10007)
COMPUTE_FLAGS = tuple(f for c in COMPUTE_CHARS for f in ("--char", str(c))) + ("--machine", "--basis")
VERIFY_SECTIONS = ("family", "blowup", "multiblowup", "union", "lex", "kron")
# sections whose published formula the engine refutes on purpose
REFUTED_SECTIONS = ("lex", "kron")

RANDOM_DENSE_SIZES = tuple(range(26, 31))
RANDOM_DENSE_BLOCKS = 40
STRUCTURED_BLOCKS = 15
VERIFY_SEEDS = 40

Edges = list[tuple[int, int]]


@dataclass(frozen=True)
class Job:
    """One in-process CLI call; the input graph and `meta` are what the gate needs."""

    index: int
    block: int
    argv: tuple[str, ...]
    kind: str
    n: int = 0
    edges: tuple[tuple[int, int], ...] = ()
    meta: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# graph constructions (independent of the package's own constructors)


def triangle_union(k: int) -> tuple[int, Edges]:
    edges = []
    for t in range(k):
        a = 3 * t
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return 3 * k, edges


def crown(n: int) -> tuple[int, Edges]:
    return 2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j]


def multipartite(sizes: list[int]) -> tuple[int, Edges]:
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    edges = [
        (u, v)
        for a in range(len(sizes))
        for b in range(a + 1, len(sizes))
        for u in range(starts[a], starts[a + 1])
        for v in range(starts[b], starts[b + 1])
    ]
    return starts[-1], edges


def turan_sizes(n: int, r: int) -> list[int]:
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def path(n: int) -> tuple[int, Edges]:
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> tuple[int, Edges]:
    return n, [(i, (i + 1) % n) for i in range(n)]


def petersen() -> tuple[int, Edges]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return 10, edges


def blow_up(base: tuple[int, Edges], ts: list[int], clique: bool) -> tuple[int, Edges]:
    """Replace vertex v by ts[v] copies: twins (independent) or a clique."""
    n, edges = base
    start = [0]
    for t in ts:
        start.append(start[-1] + t)
    copies = [range(start[v], start[v + 1]) for v in range(n)]
    out = [(a, b) for u, v in edges for a in copies[u] for b in copies[v]]
    if clique:
        out += [(a, b) for c in copies for a in c for b in c if a < b]
    return start[-1], out


def random_dense(n: int, rng: random.Random) -> tuple[int, Edges]:
    """G(n, 3/10) with an exactly rational edge probability."""
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randrange(10) < 3]


def relabel(graph: tuple[int, Edges], rng: random.Random) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Random vertex permutation, so every seed writes a different file."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


# ---------------------------------------------------------------------------
# workloads


# (kind, params) of one structured block; the base graphs of the blowups
# and lexicographic products have closed-form dimensions of their own.  Six
# kinds cost less than crown:20 and six cost more, and crown:20 appears three
# times, so the block's median job is a crown:20 on every seed.
STRUCTURED_BLOCK = (
    ("kpartite", ()),
    ("turan", (30, 4)),
    ("multiblowup", ("path", (7,))),
    ("multiblowup", ("cycle", (7,))),
    ("multiblowup", ("petersen", ())),
    ("lex-edgeless", ("petersen", (), 4)),
    ("crown", (20,)),
    ("crown", (20,)),
    ("crown", (20,)),
    ("lex-complete", ("cycle", (8,), 3)),
    ("triangles", (6,)),
    ("crown", (30,)),
    ("crown", (40,)),
    ("triangles", (7,)),
    ("crown", (35,)),
)

BASES = {"path": path, "cycle": cycle, "petersen": petersen}


def _structured_graph(kind: str, params: tuple, rng: random.Random) -> tuple[tuple[int, Edges], dict]:
    if kind == "triangles":
        return triangle_union(params[0]), {"k": params[0]}
    if kind == "crown":
        return crown(params[0]), {"crown": params[0]}
    if kind == "turan":
        n, r = params
        return multipartite(turan_sizes(n, r)), {"turan": [n, r]}
    if kind == "kpartite":
        sizes = [rng.randint(2, 8) for _ in range(rng.randint(3, 6))]
        return multipartite(sizes), {"sizes": sizes}
    # blowups and lexicographic products with an edgeless or complete factor
    base_name, base_args, *factor = params
    base = BASES[base_name](*base_args)
    if kind == "multiblowup":
        ts = [rng.randint(1, 3) for _ in range(base[0])]
    else:
        ts = [factor[0]] * base[0]
    graph = blow_up(base, ts, clique=kind == "lex-complete")
    return graph, {"base": [base_name, *base_args], "ts": ts}


def _compute_job(index: int, block: int, kind: str, graph, meta: dict, out_dir: Path, root: Path) -> Job:
    n, edges = graph
    file = out_dir / f"{index:04d}.txt"
    file.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    rel = file.relative_to(root).as_posix()
    return Job(index, block, ("compute", rel) + COMPUTE_FLAGS, kind, n, tuple(edges), meta)


def random_dense_jobs(seed: int, out_dir: Path, root: Path) -> list[Job]:
    rng = random.Random(f"random-dense:{seed}")
    jobs = []
    for block in range(RANDOM_DENSE_BLOCKS):
        sizes = list(RANDOM_DENSE_SIZES)
        rng.shuffle(sizes)
        for n in sizes:
            graph = relabel(random_dense(n, rng), rng)
            jobs.append(_compute_job(len(jobs), block, "random", graph, {}, out_dir, root))
    return jobs


def structured_jobs(seed: int, out_dir: Path, root: Path) -> list[Job]:
    rng = random.Random(f"structured:{seed}")
    jobs = []
    for block in range(STRUCTURED_BLOCKS):
        specs = list(STRUCTURED_BLOCK)
        rng.shuffle(specs)
        for kind, params in specs:
            graph, meta = _structured_graph(kind, params, rng)
            graph = relabel(graph, rng)
            jobs.append(_compute_job(len(jobs), block, kind, graph, meta, out_dir, root))
    return jobs


def verify_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"verify-sweep:{seed}")
    jobs = []
    for block in range(VERIFY_SEEDS):
        sub = rng.randrange(2**31)
        sections = list(VERIFY_SECTIONS)
        rng.shuffle(sections)
        for section in sections:
            argv = ("verify", section, "--seed", str(sub), "--machine")
            jobs.append(Job(len(jobs), block, argv, section))
    return jobs


WORKLOADS = ("random-dense", "structured", "verify-sweep")


def make_jobs(workload: str, seed: int, root: Path) -> list[Job]:
    """Write the workload's inputs under root/.bench_build and list its jobs."""
    if workload == "verify-sweep":
        return verify_jobs(seed)
    out_dir = root / ".bench_build" / "perfbench" / "inputs" / f"{workload}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "random-dense":
        return random_dense_jobs(seed, out_dir, root)
    if workload == "structured":
        return structured_jobs(seed, out_dir, root)
    raise ValueError(f"unknown workload {workload!r}")
