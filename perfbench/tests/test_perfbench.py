"""Tests of the benchmark itself: inputs, checks, tracing and reporting.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import json
import re
from pathlib import Path

import pytest

import gate
import run
import trace
import workloads
from wellcovered import cli

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _files(jobs):
    return [(ROOT / job.argv[1]).read_bytes() for job in jobs]


@pytest.mark.parametrize("workload", ["random-dense", "structured"])
def test_same_seed_same_files_other_seed_other_graphs(workload):
    a = workloads.make_jobs(workload, 7, ROOT)
    files_a = _files(a)
    again = workloads.make_jobs(workload, 7, ROOT)
    assert _files(again) == files_a
    assert [j.argv for j in again] == [j.argv for j in a]
    b = workloads.make_jobs(workload, 8, ROOT)
    assert [j.edges for j in b] != [j.edges for j in a]
    assert all(ja.edges != jb.edges for ja, jb in zip(a, b) if ja.edges)


def test_verify_jobs_follow_the_seed():
    assert workloads.verify_jobs(3) == workloads.verify_jobs(3)
    assert workloads.verify_jobs(3) != workloads.verify_jobs(4)
    first_block = [j.kind for j in workloads.verify_jobs(3) if j.block == 0]
    assert sorted(first_block) == sorted(workloads.VERIFY_SECTIONS)


def test_blocks_have_fixed_composition():
    jobs = workloads.make_jobs("structured", 5, ROOT)
    blocks = {}
    for job in jobs:
        blocks.setdefault(job.block, []).append(job.kind)
    kinds = sorted(k for k, _ in workloads.STRUCTURED_BLOCK)
    assert all(sorted(b) == kinds for b in blocks.values())


def test_self_time_subtracts_children():
    spans = [
        ("job", -1, 0, 0.0, 10.0),
        ("a", 0, 0, 1.0, 4.0),
        ("b", 1, 0, 2.0, 3.0),
        ("c", 0, 0, 5.0, 9.0),
    ]
    assert trace.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        ("p", -1, 0, 0.0, 10.0),
        ("x", 0, 0, 2.0, 6.0),
        ("y", 0, 0, 4.0, 8.0),
        ("z", 0, 0, 9.0, 12.0),
    ]
    assert trace.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_p90_keeps_ten_samples_beyond_it():
    for n in range(run.MIN_JOBS, 600):
        assert run.samples_beyond(n, 0.9) >= 10
        samples = [float(i) for i in range(n)]
        assert sum(1 for x in samples if x > run.percentile(samples, 0.9)) >= 10
    assert run.samples_beyond(run.MIN_JOBS - 1, 0.9) < 10


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
    assert run.percentile([5.0], 0.9) == 5.0


def _run_one(job):
    rc, out, _ = run.run_job(cli, job)
    return rc, out


def test_gate_accepts_real_output_and_rejects_a_changed_one():
    jobs = workloads.make_jobs("structured", 2, ROOT)
    job = next(j for j in jobs if j.kind == "crown" and j.meta["crown"] == 20)
    rc, out = _run_one(job)
    assert gate.check_job(job, rc, out) == []
    bad_wcdim = out.replace("wcdim = ", "wcdim = 1", 1)
    assert gate.check_job(job, rc, bad_wcdim)
    lines = out.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("basis 0 = "))
    head, _, tail = lines[i].partition(" = ")
    entries = tail.split()
    entries[0] = str(int(entries[0].split("/")[0]) + 7)
    lines[i] = f"{head} = {' '.join(entries)}\n"
    assert gate.check_job(job, rc, "".join(lines))
    assert gate.check_job(job, 2, out)


def test_gate_checks_verify_exit_codes():
    jobs = workloads.verify_jobs(1)
    union = next(j for j in jobs if j.kind == "union")
    lex = next(j for j in jobs if j.kind == "lex")
    rc, out = _run_one(union)
    assert rc == 0 and gate.check_job(union, rc, out) == []
    assert gate.check_job(union, 1, out)
    rc, out = _run_one(lex)
    assert rc == 1 and gate.refuted_count(out) > 0
    assert gate.check_job(lex, rc, out) == []
    assert gate.check_job(lex, 0, out)
    assert gate.check_job(lex, None, "")


def test_tracer_restores_the_original_functions():
    from wellcovered import engine, kernels

    before = (engine.rank, kernels.gf_rank, cli.compute_wcdim)
    tracer = trace.Tracer()
    tracer.install()
    assert engine.rank is not before[0]
    tracer.uninstall()
    assert (engine.rank, kernels.gf_rank, cli.compute_wcdim) == before


def test_traced_job_records_nested_spans_and_counts():
    job = next(j for j in workloads.make_jobs("structured", 3, ROOT) if j.kind == "triangles")
    tracer = trace.Tracer()
    tracer.install()
    try:
        rc, out, _ = run.run_job(cli, job, tracer)
    finally:
        tracer.uninstall()
    assert rc == 0
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names.count("engine.compute") == 3
    assert names.count("mis.enumerate") == 3
    for name, parent, *_ in spans:
        if name == "mis.enumerate":
            assert spans[parent][0] == "engine.compute"
    k = job.meta["k"]
    assert tracer.counts["mis.sets"] == 3 * 3**k
    assert tracer.counts["mis.graphs"] == 1
    m = trace.layer_metrics(tracer, 1.0, 1.0, with_verify=False)
    assert m["mis.calls_per_graph"][0] == 3
    assert m["engine.rows"][0] == 3 * (3**k - 1)


def _metric_names(doc, key):
    return [m["name"] for m in doc[key]]


def test_benchmark_json_names_match_the_output(capsys):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = _metric_names(doc, "end_to_end")
    layer = _metric_names(doc, "per_layer")
    for name in e2e + layer:
        assert NAME_RE.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)

    assert run.main(["--workload", "verify-sweep", "--seed", "4", "--seconds", "1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert sorted(result["metrics"]) == sorted(e2e)
    for name in e2e:
        unit = result["metrics"][name]["unit"]
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)

    assert run.main(["--workload", "structured", "--seed", "4", "--seconds", "1", "--trace", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(layer)
    for name in layer:
        assert any(line.startswith(f"{name} ") for line in lines)
    stamp = next(line for line in lines if line.startswith("# workload="))
    for key in ("lane=", "python=", "commit=", "nproc=", "seed=4"):
        assert key in stamp
