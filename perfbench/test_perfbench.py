"""Tests of the benchmark's own parts: the oracle reproduces known answers
and catches wrong ones, tracing changes no answer and leaves the package as
it found it, and the speed sampler measures while work runs and uninstalls
itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import signal
from time import perf_counter

import pytest

import oracle
import run
import speed
import tracer as tracing
import workloads as W


@pytest.fixture(scope="module")
def gb():
    return W.load_package()


def observe(gb, spec, n, flavor):
    job = W.Job(f"{spec} n={n} {flavor}", spec, n, flavor)
    return W.observe(job, W.run_job(gb, job))


def tree_graph_euler(gb, spec, n, flavor):
    """Gal's series on the tree graph the job would use, without building
    the complex."""
    tree = gb.fixtures.pinned_tree(spec, n)
    if tree is None:
        sub, _ = gb.graphs.subdivide(gb.graphs.build_graph(spec), n,
                                     "strict" if n == 2 else "auto")
        tree = gb.trees.choose_tree_and_order(sub, n)
    g = tree.graph
    return oracle.gal_euler([g.valency(v) for v in g.vertices], len(g.edges),
                            n, flavor == "ordered")


@pytest.mark.parametrize("spec,n,flavor,chi", [
    ("K5", 4, "unordered", 70),
    ("K(6)", 3, "unordered", 120),
    ("K(7)", 3, "unordered", 336),
    ("K(3,4)", 3, "ordered", 138),
    ("K33", 2, "ordered", -6),
])
def test_gal_series_known_values(gb, spec, n, flavor, chi):
    assert tree_graph_euler(gb, spec, n, flavor) == chi


def test_gal_series_small_cases():
    # a single vertex; a two-edge segment, where UD_2 has three vertex pairs
    # and two edge-vertex cells
    assert oracle.gal_euler([0], 0, 1) == 1
    assert oracle.gal_euler([0], 0, 2) == 0
    assert oracle.gal_euler([1, 2, 1], 2, 2) == 1
    # a circle is aspherical with chi 0 in every n
    assert all(oracle.gal_euler([2] * 5, 5, n) == 0 for n in range(1, 5))


@pytest.mark.parametrize("rows,ncols,group", [
    ([], 3, [3, []]),
    ([[2, 0], [0, 3]], 2, [0, [6]]),
    ([[2, 4], [6, 8]], 2, [0, [2, 4]]),
    ([[1, 1, 0], [0, 2, 2]], 3, [1, [2]]),
    ([[0, 0], [4, 6]], 2, [1, [2]]),
])
def test_cokernel(rows, ncols, group):
    assert oracle.cokernel(rows, ncols) == group


@pytest.mark.parametrize("spec,n,flavor,h1", [
    ("K33", 2, "unordered", [4, [2]]),
    ("K33", 2, "ordered", [8, []]),
    ("K5", 4, "unordered", [6, [2]]),
])
def test_known_h1_passes_every_check(gb, spec, n, flavor, h1):
    obs = observe(gb, spec, n, flavor)
    assert obs["error"] is None
    assert obs["homology"]["1"] == h1
    assert obs["h1_formula"] == h1
    p = obs["presentation"]
    assert oracle.cokernel(p["relations"], p["generators"]) == h1
    bad, covered = oracle.check(obs, oracle.Golden.load())
    assert bad == [] and covered


def test_check_catches_wrong_answers(gb):
    obs = observe(gb, "K33", 2, "unordered")
    wrong = dict(obs, homology=dict(obs["homology"], **{"1": [5, []]}),
                 critical=dict(obs["critical"], **{"2": obs["critical"]["2"] + 1}))
    bad, _ = oracle.check(wrong, oracle.Golden.load())
    assert {b.split(":")[0] for b in bad} == {"euler", "h1", "abelianization",
                                              "golden"}


def test_golden_entry_is_required(gb):
    job = W.make_jobs(gb, "corpus", 0)[-1]
    obs = W.observe(job, W.run_job(gb, job))
    assert oracle.check(obs, oracle.Golden.load(), required=True) == ([], True)
    unknown = dict(obs, key="sha256:0000000000000000")
    assert oracle.check(unknown, oracle.Golden.load()) == ([], False)
    bad, covered = oracle.check(unknown, oracle.Golden.load(), required=True)
    assert [b.split(":")[0] for b in bad] == ["golden"] and not covered


def test_golden_is_looked_up_by_the_jobs_input(gb, monkeypatch):
    """A build_graph that returns another graph gives a self-consistent
    wrong answer; only the golden check, keyed on the job's spec rather
    than on the graph built from it, can see it."""
    golden = oracle.Golden.load()
    k33 = golden.lookup("K33", "2/unordered")
    job = next(j for j in W.make_jobs(gb, "corpus", 0)
               if j.key != "K33" and j.n == 2 and j.flavor == "unordered"
               and golden.lookup(j.key, "2/unordered") not in (None, k33))
    build = gb.graphs.build_graph
    monkeypatch.setattr(gb.graphs, "build_graph", lambda spec: build("K33"))
    obs = W.observe(job, W.run_job(gb, job))
    bad, covered = oracle.check(obs, golden, required=True)
    assert covered and [b.split(":")[0] for b in bad] == ["golden"]


def test_failures_count_jobs_not_passes(gb):
    """A job that fails counts once however many passes ran, so a run's
    counts do not depend on how many passes fit in its time."""
    obs = observe(gb, "K33", 2, "unordered")
    raised = dict(obs, error="MorseError('x')", step="present")
    golden = oracle.Golden.load()
    for n_passes in (1, 2, 5):
        data = {"labels": ["a", "b", "c"], "observations": [obs, raised, obs],
                "passes": [{}] * n_passes,
                "changed": [[n_passes - 1, 2, raised]] if n_passes > 1 else []}
        failed, wrong, causes, covered = run.verify(data, golden, False)
        assert failed == (1 if n_passes == 1 else 2) and wrong == []
        assert causes == {"present raised MorseError('x')": failed}
        assert covered == 3


def test_golden_table_must_exist(monkeypatch, tmp_path):
    monkeypatch.setattr(oracle, "GOLDEN_PATH", tmp_path / "golden.json")
    with pytest.raises(FileNotFoundError):
        oracle.Golden.load()


def test_golden_record_and_encoding():
    golden = oracle.Golden()
    hom = {"0": [1, []], "1": [6, [2]], "2": [76, []]}
    golden.record("K5", "2/unordered", hom)
    golden.record("K5", "2/unordered", hom)
    assert golden.lookup("K5", "2/unordered") == "1 6:2 76"
    assert golden.lookup("K5", "3/unordered") is None
    with pytest.raises(ValueError):
        golden.record("K5", "2/unordered", dict(hom, **{"1": [6, []]}))


def test_tracer_restores_the_package(gb):
    points = tracing.wrap_points(gb)
    before = [getattr(m, a) for m, a, _, _ in points]
    with tracing.Tracer(gb):
        assert all(getattr(m, a) is not f for (m, a, _, _), f in zip(points, before))
    assert all(getattr(m, a) is f for (m, a, _, _), f in zip(points, before))


def test_traced_run_gives_the_same_answers(gb):
    jobs = [W.Job(s, s, n, f) for s, n, f in W.EXAMPLES]
    plain = [W.observe(j, W.run_job(gb, j)) for j in jobs]
    with tracing.Tracer(gb) as tr:
        traced = []
        for i, j in enumerate(jobs):
            with tr.job(i):
                traced.append(W.observe(j, W.run_job(gb, j)))
        spans, counts = list(tr.spans), tr.counts
    assert traced == plain
    names = {s[3] for s in spans}
    assert {"job", "graphs.build_graph", "trees.pinned_tree",
            "morse.build_morse_complex", "cells.enumerate_cells",
            "morse.morse_boundary", "homology.homology",
            "intlinalg.smith_normal_form", "decompose.h1_formula",
            "present.raw_presentation", "present.simplify"} <= names
    # spans nest within their parents and within one job
    by_id = {s[1]: s for s in spans}
    for job, sid, parent, name, start, end in spans:
        assert start <= end
        if parent is not None:
            pj, _, _, _, ps, pe = by_id[parent]
            assert pj == job and ps <= start and end <= pe
    m = tracing.layer_metrics(spans, counts)
    walls = sum(e - s for _, _, p, n, s, e in spans if n == "job")
    assert sum(m[k] for k in tracing.PARTITION) == pytest.approx(walls)
    assert m["cells.critical"] == sum(sum(o["critical"].values()) for o in plain)
    assert m["cells.count"] > m["cells.critical"]
    assert m["morse.reduce_calls"] == sum(
        c for o in plain for d, c in o["critical"].items() if d != "0")


def test_sampler_measures_during_work_and_uninstalls():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 3 * speed.PERIOD_S:
            pass
        samples, spent = sampler.take()
    assert len(samples) >= 2 and 0 < spent < perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
