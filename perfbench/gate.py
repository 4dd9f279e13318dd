"""Per-job output checks; a job with any error counts as failed.

The checks run after the timed loop, so they cost no measured time.  They
use the package's public parser, constructors and closed-form predictors as
oracles, and the definition of a well-covered weighting directly: every
basis vector must have the same weight sum on every maximal independent
set.  That is the test `is_well_covered_weighting` makes; here it is
applied to all basis vectors of a field over one enumeration, since
calling it per vector would enumerate the sets once per vector and cost
more than the job it checks.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import lcm

from wellcovered import FieldSpec, enumerate_mis, formulas, new_graph
from wellcovered.cli import parse_machine, render_machine

import workloads


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:16]


def _base_wcdim(name: str, args: list[int]) -> int:
    if name == "path":
        return formulas.f_path(args[0]).value
    if name == "cycle":
        return formulas.f_cycle(args[0]).value
    if name == "petersen":
        return 0
    raise ValueError(f"no closed form for base graph {name!r}")


def expected_wcdim(job: workloads.Job, f: FieldSpec) -> int | None:
    """The closed-form dimension of a structured job's graph, if one exists."""
    meta = job.meta
    if job.kind == "triangles":
        return meta["k"]  # union additivity; a triangle has dimension 1
    if job.kind == "crown":
        return formulas.f_crown(meta["crown"], f).value
    if job.kind == "turan":
        return formulas.f_turan(*meta["turan"]).value
    if job.kind == "kpartite":
        return formulas.f_multipartite(meta["sizes"]).value
    if job.kind in ("multiblowup", "lex-edgeless"):
        name, *args = meta["base"]
        m = _base_wcdim(name, args)
        ts = meta["ts"]
        if job.kind == "multiblowup":
            return formulas.f_multi_blowup(m, len(ts), ts).value
        return formulas.f_lex_blowup(m, len(ts), ts[0]).value
    return None


def _constant_sums(sets: list[tuple[int, ...]], w: tuple[Fraction, ...], p: int) -> bool:
    """True iff every set has the same w-sum; over GF(p), w must hold residues."""
    if p:
        if any(x.denominator != 1 or not 0 <= x < p for x in w):
            return False
        ints = [int(x) for x in w]
    else:
        scale = lcm(*(x.denominator for x in w))  # a common scale keeps sums integral
        ints = [int(x * scale) for x in w]
    sums = {sum(ints[v] for v in s) for s in sets}
    if p:
        sums = {x % p for x in sums}
    return len(sums) <= 1


def check_compute(job: workloads.Job, rc: int | None, out: str) -> list[str]:
    """Errors in the output of one `compute --machine --basis` job."""
    if rc != 0:
        return [f"exit code {rc}"]
    errors = []
    doc = parse_machine(out)
    if render_machine(doc) != out:
        errors.append("parse_machine does not round-trip the output")
    if doc.n != job.n or doc.edge_count != len(job.edges):
        errors.append(f"header n={doc.n} m={doc.edge_count} != input n={job.n} m={len(job.edges)}")
    chars = [s.characteristic for s in doc.sections]
    if chars != list(workloads.COMPUTE_CHARS):
        return errors + [f"characteristics {chars} != requested {list(workloads.COMPUTE_CHARS)}"]
    sets = None
    by_char = {}
    for s in doc.sections:
        f = FieldSpec(s.characteristic)
        by_char[s.characteristic] = s.wcdim
        basis = s.basis or ()
        if not len(basis) == s.wcdim == doc.n - s.diff_rank:
            errors.append(
                f"{f}: basis_size {len(basis)}, wcdim {s.wcdim}, n - diff_rank {doc.n - s.diff_rank}"
            )
        want = expected_wcdim(job, f)
        if want is not None and s.wcdim != want:
            errors.append(f"{f}: wcdim {s.wcdim} != closed form {want}")
        if basis and sets is None:
            sets = list(enumerate_mis(new_graph(job.n, job.edges)))
        for idx, w in enumerate(basis):
            if len(w) != doc.n or not _constant_sums(sets, w, s.characteristic):
                errors.append(f"{f}: basis vector {idx} is not a well-covered weighting")
                break
    for p in workloads.COMPUTE_CHARS[1:]:
        if by_char[p] < by_char[0]:
            errors.append(f"wcdim over GF({p}) {by_char[p]} < wcdim over Q {by_char[0]}")
    return errors


def refuted_count(out: str) -> int:
    return sum(1 for line in out.splitlines() if line == "verdict = fail")


def check_verify(job: workloads.Job, rc: int | None, out: str) -> list[str]:
    """Errors in the output of one `verify <section> --machine` job."""
    verdicts = [line.partition(" = ")[2] for line in out.splitlines() if line.startswith("verdict = ")]
    checks = sum(1 for line in out.splitlines() if line.startswith("check = "))
    errors = []
    if not verdicts or len(verdicts) != checks:
        errors.append(f"{checks} checks but {len(verdicts)} verdicts")
    if any(v not in ("pass", "fail") for v in verdicts):
        errors.append(f"verdicts other than pass/fail: {sorted(set(verdicts) - {'pass', 'fail'})}")
    fails = verdicts.count("fail")
    if job.kind in workloads.REFUTED_SECTIONS:
        if rc != 1 or fails == 0:
            errors.append(f"refuted section exited {rc} with {fails} failed checks; want exit 1")
    elif rc != 0 or fails:
        errors.append(f"exit code {rc} with {fails} failed checks; want exit 0 and none")
    return errors


def check_job(job: workloads.Job, rc: int | None, out: str) -> list[str]:
    check = check_verify if job.argv[0] == "verify" else check_compute
    try:
        return check(job, rc, out)
    except Exception as exc:  # malformed output fails the job, not the benchmark
        return [f"output check raised {type(exc).__name__}: {exc}"]
