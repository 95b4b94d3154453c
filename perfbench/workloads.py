"""The workloads and the job each of them is made of.

A job is one user computation, the equivalent of ``graphbraids check``
followed by ``graphbraids present``: build the graph, pick the tree, build
the Morse complex, take its homology, evaluate the H1 formula and emit the
simplified presentation where those two are defined.  Every call goes
through a module attribute (``gb.morse.build_morse_complex``), so the
tracing wrappers in ``tracer.py`` see it.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

MODULES = ("graphs", "trees", "fixtures", "cells", "morse", "intlinalg",
           "homology", "decompose", "present", "corpus")

# corpus graphs per seed, sampled from a pool CORPUS_POOL times larger (see
# corpus_sample), each run at (2, unordered), (2, ordered) and (3, unordered)
CORPUS_SIZE = 200
CORPUS_POOL = 10
CORPUS_SETTINGS = ((2, "unordered"), (2, "ordered"), (3, "unordered"))
# the README worked examples, all with pinned trees
EXAMPLES = (("K33", 2, "unordered"), ("K33", 2, "ordered"),
            ("Theta4", 3, "unordered"), ("FigB3n3", 3, "unordered"))

# K7 less a perfect matching of three edges: the complete multipartite graph
# K(2,2,2,1).  At n=3 its boundary matrices are 356 x 88 and 88 x 356, dense
# enough that the Smith forms dominate, yet a job takes about 2 s where K7
# takes about 17 s.
K2221 = {"vertices": [f"v{i}" for i in range(7)],
         "edges": [[f"v{a}", f"v{b}"]
                   for a, b in itertools.combinations(range(7), 2)
                   if (a, b) not in ((0, 1), (2, 3), (4, 5))]}

# (label, spec, n, flavor); a built-in graph's spec is its name
FIXED = {
    "large-complex": (("K5", "K5", 4, "unordered"),),
    "dense-homology": (("K(2,2,2,1)", K2221, 3, "unordered"),),
    # the n=2 job is small; it keeps the formula and presentation layers
    # measurable here, since a layer that never runs reads a constant zero
    "ordered": (("K(3,4)", "K(3,4)", 3, "ordered"),
                ("K(3,4)", "K(3,4)", 2, "ordered")),
}
WORKLOADS = tuple(FIXED) + ("corpus",)


def load_package():
    """The package's modules by short name.  ``graphbraids.homology`` is
    looked up through importlib because the package re-exports a function
    of the same name."""
    return SimpleNamespace(**{m: importlib.import_module(f"graphbraids.{m}")
                              for m in MODULES})


@dataclass(frozen=True)
class Job:
    label: str
    spec: object      # built-in graph name, or a graph as a JSON document
    n: int
    flavor: str

    @property
    def key(self) -> str:
        """The golden table's key for this job's input: a built-in graph's
        name, or a digest of the graph's JSON document."""
        if isinstance(self.spec, str):
            return self.spec
        doc = json.dumps(self.spec, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(doc.encode()).hexdigest()[:16]

    @property
    def has_formula(self) -> bool:
        """h1_formula and presentations exist for unordered, or ordered n=2."""
        return self.flavor == "unordered" or self.n == 2


def _shape(g) -> tuple:
    """Edge count, vertex count and degree sequence: what a job's cost
    mostly depends on."""
    degree = Counter()
    for e in g.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    return (len(g.edges), len(g.vertices), sorted(degree.values(), reverse=True))


def corpus_sample(gb, seed: int) -> list[tuple[int, object]]:
    """CORPUS_SIZE graphs of ``corpus(seed, CORPUS_POOL * CORPUS_SIZE)``,
    as (pool index, graph): every CORPUS_POOL-th graph in order of shape.
    Every seed's sample then has nearly the same mix of shapes, so the seed
    changes the graphs but hardly the amount of work.  A plain
    ``corpus(seed, 300)`` varies by about a tenth in total job time; on a
    2-vCPU VM this sample's quartile spread over seeds was 0.06 in total
    job time, against 0.09 when ordered by edge and vertex count only."""
    pool = gb.corpus.corpus(seed, CORPUS_POOL * CORPUS_SIZE)
    by_shape = sorted(range(len(pool)), key=lambda i: (_shape(pool[i]), i))
    return [(i, pool[i]) for i in sorted(by_shape[CORPUS_POOL // 2::CORPUS_POOL])]


def make_jobs(gb, workload: str, seed: int) -> list[Job]:
    """The workload's job list.  Only the corpus depends on the seed."""
    if workload in FIXED:
        return [Job(f"{name} n={n} {f}", s, n, f)
                for name, s, n, f in FIXED[workload]]
    if workload != "corpus":
        raise ValueError(f"unknown workload {workload!r}")
    out = [Job(f"{s} n={n} {f}", s, n, f) for s, n, f in EXAMPLES]
    for i, g in corpus_sample(gb, seed):
        spec = gb.graphs.graph_to_json(g)
        out.extend(Job(f"corpus[{seed}][{i}] n={n} {f}", spec, n, f)
                   for n, f in CORPUS_SETTINGS)
    return out


@dataclass
class Outcome:
    """What one job produced, or how far it got before it raised."""
    graph: object = None
    tree: object = None
    complex: object = None
    homology: dict | None = None
    h1: object = None
    presentation: object = None
    step: str | None = None
    error: str | None = None


def run_job(gb, job: Job) -> Outcome:
    """Run one job.  An exception is recorded, with the step that raised it,
    rather than propagated: a failed job counts against the workload."""
    out = Outcome()
    ordered = job.flavor == "ordered"
    try:
        out.step = "graphs.build_graph"
        out.graph = gb.graphs.build_graph(job.spec)
        out.step = "trees"
        tree = (gb.fixtures.pinned_tree(job.spec, job.n)
                if isinstance(job.spec, str) else None)
        if tree is None:
            policy = "strict" if job.n == 2 else "auto"
            sub, _ = gb.graphs.subdivide(out.graph, job.n, policy)
            tree = gb.trees.choose_tree_and_order(sub, job.n)
        out.tree = tree
        out.step = "morse.build_morse_complex"
        out.complex = gb.morse.build_morse_complex(tree, job.n, job.flavor,
                                                   path="generic")
        out.step = "homology.homology"
        out.homology = gb.homology.homology(out.complex)
        if job.has_formula:
            out.step = "decompose.h1_formula"
            out.h1 = gb.decompose.h1_formula(out.graph, job.n,
                                             "P2" if ordered else "B")
            out.step = "present.raw_presentation"
            raw = gb.present.raw_presentation(out.complex)
            out.step = "present.simplify"
            out.presentation = gb.present.simplify(raw, out.complex)
        out.step = None
    except Exception as exc:  # a failed job is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def _group(g) -> list:
    return [g.rank, list(g.torsion)]


def observe(job: Job, out: Outcome) -> dict:
    """Plain data the oracle checks: the input's key, the subdivided graph's
    valencies (for the Euler series), critical-cell counts, homology, the
    formula's H1 and the simplified presentation's exponent-sum matrix."""
    obs = {"key": job.key, "n": job.n, "flavor": job.flavor,
           "error": out.error, "step": out.step if out.error else None}
    if out.tree is not None:
        tg = out.tree.graph
        obs["tree_graph"] = {"valencies": sorted(tg.valency(v) for v in tg.vertices),
                             "edges": len(tg.edges)}
    if out.complex is not None:
        obs["critical"] = {str(d): len(cs) for d, cs in out.complex.critical.items()}
    if out.homology is not None:
        obs["homology"] = {str(d): _group(g) for d, g in out.homology.items()}
    if out.h1 is not None:
        obs["h1_formula"] = _group(out.h1)
    if out.presentation is not None:
        p = out.presentation
        index = {g: i for i, g in enumerate(p.generators)}
        rows = []
        for r in p.relators:
            row = [0] * len(index)
            for g, e in r:
                row[index[g]] += e
            rows.append(row)
        obs["presentation"] = {"generators": len(index), "relations": rows}
    return obs
