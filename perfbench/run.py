#!/usr/bin/env python3
"""End-to-end benchmark of the wellcovered CLI, with a traced per-layer run.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload random-dense --seed 1 --seconds 20 --trace 0

A job is one in-process `wellcovered.cli.main([...])` call with stdout
captured; jobs run one after another in a closed loop with one client and no
threads.  The package is imported from the checkout's `src/`, so nothing is
built or installed.  Workloads (see `workloads.py` for the inputs):

  random-dense  `compute FILE --char 0 --char 2 --char 10007 --machine --basis`
                on G(n, 3/10), n = 26..30; exact elimination dominates.
  structured    the same command on triangle unions, crowns, Turan and
                complete multipartite graphs, multi-blowups and lexicographic
                products with edgeless or complete factors.
  verify-sweep  `verify <section> --seed s --machine` for every section, with
                seeds derived from the workload seed; thousands of small
                `compute_wcdim` calls.

With `--trace 0` the loop runs for `--seconds` seconds, and then to the end
of the current block of jobs and at least 100 jobs, so that p90 has at least
ten samples beyond it.  It reports setup_s, jobs_per_s, job_p50_ms,
job_p90_ms and peak_rss_mb.  With `--trace 1` every workload runs a fixed
job list twice, untraced and then traced, and the traced pass reports the
per-layer metrics of `trace.py`, prefixed with the workload name; the
fixed list makes every count repeat exactly for a given seed.

The host's speed drifts by up to a factor of two over minutes, so every
reported time is rescaled to a fixed reference speed by a task timed between
blocks of jobs (`reference.py`).  The unscaled figures and the host speed are
printed on the lines starting with `#`.

Every output is checked (`gate.py`); at the default seed each output must
also match the digest recorded in `expected.json`, which enforces
byte-identical `--machine` output.  `--record` rewrites that file from the
current code.  The last line of stdout is the JSON result; the lines before
it give each metric with its unit and a stamp naming the kernel lane, the
Python version, the commit, nproc and the seed.  Results from different
kernel lanes are not comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 1
MIN_JOBS = 100  # p90 of at least 100 samples leaves at least 10 beyond it
HARD_STOP_S = 120.0  # the loop ends here whatever the job count, to exit in time
SETUP_RUNS = 15
SETUP_WARMUP = 2
# traced passes run whole blocks: about one block per this many --seconds
TRACE_SECONDS_PER_BLOCK = {"random-dense": 2, "structured": 4, "verify-sweep": 2}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the package, at reference speed."""
    code = (
        "import time; t = time.perf_counter(); import wellcovered; "
        "print(time.perf_counter() - t, wellcovered.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    before = reference.reference_seconds()
    for i in range(SETUP_WARMUP + SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        after = reference.reference_seconds()
        seconds, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported wellcovered from {origin}, not from this checkout")
        if i >= SETUP_WARMUP:
            times.append(float(seconds) * reference.scale(before, after))
        before = after
    return statistics.median(times)


def run_job(cli, job, tracer=None) -> tuple[int | None, str, float]:
    """One CLI call: (exit code or None on an escaped exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    if tracer is not None:
        sid = tracer.begin_job(job.index)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    if tracer is not None:
        tracer.end_job(sid)
    elapsed = time.perf_counter() - t0
    if rc not in (0, 1) and err.getvalue():
        print(f"job {job.index} {' '.join(job.argv)}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


class Pass:
    """Jobs run block by block, with the reference task timed between blocks.

    `times` holds the wall time of each job and `scaled` that time at
    reference speed (see reference.py).  Outputs are spilled to a file as
    the jobs finish, so that the benchmark's own memory does not grow with
    the job count and the peak RSS stays the program's; `outputs()` reads
    them back as (job, exit code, stdout).
    """

    def __init__(self, name: str) -> None:
        self.path = OUT_DIR / f"outputs-{name}.bin"
        self.records: list[tuple[object, int | None, int, int]] = []  # job, rc, offset, size
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.refs: list[float] = []

    def run(self, cli, jobs, done, tracer=None) -> "Pass":
        """Run jobs in order, wrapping round the list, until done(wall, count)
        holds at the end of a block."""
        self.refs.append(reference.reference_seconds())
        block: list[float] = []
        start = time.perf_counter()
        with open(self.path, "wb") as spill:
            while True:
                job = jobs[len(self.records) % len(jobs)]
                rc, out, elapsed = run_job(cli, job, tracer)
                data = out.encode()
                self.records.append((job, rc, spill.tell(), len(data)))
                spill.write(data)
                block.append(elapsed)
                following = len(self.records) % len(jobs)
                if following and jobs[following].block == job.block:
                    continue  # the block goes on
                self.refs.append(reference.reference_seconds())
                factor = reference.scale(self.refs[-2], self.refs[-1])
                self.times += block
                self.scaled += [t * factor for t in block]
                block = []
                if done(time.perf_counter() - start, len(self.records)):
                    return self

    def outputs(self):
        with open(self.path, "rb") as spill:
            for job, rc, offset, size in self.records:
                spill.seek(offset)
                yield job, rc, spill.read(size).decode()

    @property
    def speed(self) -> float:
        """Host speed relative to the reference speed (1.0 = nominal)."""
        return reference.REFERENCE_MS / 1000 / statistics.median(self.refs)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def check_outputs(workload: str, seed: int, results, expected: dict) -> int:
    """Gate every (job, rc, output) and return the number of failed jobs."""
    import gate

    recorded = expected.get(workload, {}) if seed == DEFAULT_SEED else {}
    digests = recorded.get("digests", [])
    refuted = recorded.get("refuted", [])
    first_digest: dict[int, str] = {}
    failed = 0
    for job, rc, out in results:
        if job.index in first_digest:  # the job list wrapped: the output must not change
            same = gate.digest(out) == first_digest[job.index]
            errors = [] if same else ["output differs from its earlier run"]
        else:
            first_digest[job.index] = gate.digest(out)
            errors = gate.check_job(job, rc, out)
            if job.index < len(digests) and gate.digest(out) != digests[job.index]:
                errors.append(f"digest {gate.digest(out)} != recorded {digests[job.index]}")
            if job.index < len(refuted) and refuted[job.index] is not None:
                if gate.refuted_count(out) != refuted[job.index]:
                    errors.append(f"refuted {gate.refuted_count(out)} != recorded {refuted[job.index]}")
        if errors:
            failed += 1
            print(f"FAILED job {job.index} {' '.join(job.argv)}: {'; '.join(errors)}", file=sys.stderr)
    return failed


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wellcovered").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    import wellcovered

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "lane": wellcovered.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(args, cli, expected) -> tuple[dict, int, int]:
    import workloads

    setup_s = measure_setup()
    jobs = workloads.make_jobs(args.workload, args.seed, ROOT)
    run_job(cli, jobs[0])  # warm-up: lazy imports and first-call set-up
    done = lambda wall, count: wall >= HARD_STOP_S or (wall >= args.seconds and count >= MIN_JOBS)
    p = Pass(args.workload).run(cli, jobs, done)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_outputs(args.workload, args.seed, p.outputs(), expected)
    n = len(p.times)
    print(f"# jobs {n}, samples beyond p90 {samples_beyond(n, 0.9)}, host speed {p.speed:.3f} x reference")
    print(f"# unscaled: jobs_per_s {n / sum(p.times):.6g} 1/s, "
          f"job_p50_ms {statistics.median(p.times) * 1000:.6g} ms, "
          f"job_p90_ms {percentile(p.times, 0.9) * 1000:.6g} ms")
    print(f"fail_ratio {failed / n:.6g} ratio")
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / sum(p.scaled), "1/s"),
        "job_p50_ms": (statistics.median(p.scaled) * 1000, "ms"),
        "job_p90_ms": (percentile(p.scaled, 0.9) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, n, failed


def traced(args, cli, expected) -> tuple[dict, int, int]:
    import trace
    import workloads

    metrics, attempted, failed = {}, 0, 0
    for workload in workloads.WORKLOADS:
        blocks = max(1, args.seconds // TRACE_SECONDS_PER_BLOCK[workload])
        jobs = [job for job in workloads.make_jobs(workload, args.seed, ROOT) if job.block < blocks]
        once = lambda wall, count: count == len(jobs)
        run_job(cli, jobs[0])
        plain = Pass(workload).run(cli, jobs, once)
        tracer = trace.Tracer()
        tracer.install()
        try:
            with_trace = Pass(f"{workload}-traced").run(cli, jobs, once, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{workload}-{args.seed}.json.gz", stamp(args))
        failed += check_outputs(workload, args.seed, plain.outputs(), expected)
        for (job, _, out), (_, _, traced_out) in zip(plain.outputs(), with_trace.outputs()):
            if traced_out != out:
                failed += 1
                print(f"FAILED job {job.index}: traced output differs from untraced", file=sys.stderr)
        attempted += 2 * len(jobs)
        tracer.counts["cli.output_bytes"] = sum(size for _, _, _, size in with_trace.records)
        layer = trace.layer_metrics(tracer, with_trace.speed, sum(with_trace.scaled) / sum(plain.scaled),
                                    workload == "verify-sweep")
        metrics.update({f"{workload}.{name}": value for name, value in layer.items()})
        print(f"# {workload}: {len(jobs)} jobs traced, {len(tracer.start)} spans, "
              f"host speed {with_trace.speed:.3f} x reference")
    return metrics, attempted, failed


def record(args, cli) -> None:
    """Rewrite the workload's entry in expected.json from every job's output."""
    import gate
    import workloads

    jobs = workloads.make_jobs(args.workload, DEFAULT_SEED, ROOT)
    runs = [run_job(cli, job) for job in jobs]
    failed = check_outputs(args.workload, DEFAULT_SEED, [(j, rc, o) for j, (rc, o, _) in zip(jobs, runs)], {})
    if failed:
        raise SystemExit(f"{failed} jobs fail their checks; nothing recorded")
    entry = {"digests": [gate.digest(out) for _, out, _ in runs]}
    if args.workload == "verify-sweep":
        entry["refuted"] = [
            gate.refuted_count(out) if job.kind in workloads.REFUTED_SECTIONS else None
            for job, (_, out, _) in zip(jobs, runs)
        ]
    expected = load_expected()
    expected[args.workload] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(jobs)} outputs of {args.workload} at seed {DEFAULT_SEED}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["random-dense", "structured", "verify-sweep"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite expected.json for the workload at seed {DEFAULT_SEED}")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wellcovered" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'wellcovered'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # input paths in the job arguments are relative to the root
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    from wellcovered import cli

    if args.record:
        record(args, cli)
        return 0
    expected = load_expected()
    measure = traced if args.trace else end_to_end
    metrics, attempted, failed = measure(args, cli, expected)
    info = stamp(args)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
