"""Spans and counters recorded from outside the package.

``Tracer`` replaces each layer's public entry points by wrappers while it is
installed, and puts the originals back when it is removed.  A name is
wrapped where its caller looks it up: ``homology`` imported
``smith_normal_form``, ``kernel_basis`` and ``kernel_coordinates`` into its
own namespace, ``kernel_basis`` calls ``smith_normal_form`` as a global of
``intlinalg``, and ``build_morse_complex`` calls ``C.enumerate_cells`` and
the module global ``morse_boundary``.  ``cells.classify`` runs once per
enumerated cell, so it is not wrapped; its time shows in
``morse.build_self_s``.

A span is (id, parent id, name, start, end); all spans of one job share the
job's id.  Wrappers record nothing outside a job.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter


def _count_snf(tr, args, kwargs, result):
    a = args[0]
    c = tr.counts
    c["intlinalg.snf_calls"] += 1
    c["intlinalg.snf_transform_calls"] += bool(
        args[1] if len(args) > 1 else kwargs.get("transforms", False))
    c["intlinalg.snf_entries"] += len(a) * (len(a[0]) if a else 0)
    c["intlinalg.snf_nnz"] += sum(1 for r in a for x in r if x)


def _count_enumerate(tr, args, kwargs, result):
    tr.counts["cells.count"] += sum(len(cs) for cs in result.values())


def _count_boundary(tr, args, kwargs, result):
    tr.counts["morse.reduce_calls"] += 1
    reducer = args[0]
    # the build shares one Reducer across its boundary calls
    tr.reducers[id(reducer)] = len(getattr(reducer, "memo", ()))


def _count_build(tr, args, kwargs, result):
    tr.counts["cells.critical"] += sum(len(cs) for cs in result.critical.values())
    tr.counts["morse.memo_cells"] += sum(tr.reducers.values())
    tr.reducers.clear()


def _count_raw(tr, args, kwargs, result):
    tr.counts["present.generators_raw"] += len(result.generators)


def _count_simplify(tr, args, kwargs, result):
    c = tr.counts
    c["present.generators_final"] += len(result.generators)
    c["present.relator_letters"] += sum(len(r) for r in result.relators)
    c["present.tietze_moves"] += len(result.history) - len(args[0].history)


# (module, attribute, span name, counter hook)
def wrap_points(gb):
    return (
        (gb.graphs, "build_graph", "graphs.build_graph", None),
        (gb.graphs, "subdivide", "graphs.subdivide", None),
        (gb.fixtures, "pinned_tree", "trees.pinned_tree", None),
        (gb.trees, "choose_tree_and_order", "trees.choose_tree_and_order", None),
        (gb.morse, "build_morse_complex", "morse.build_morse_complex", _count_build),
        (gb.cells, "enumerate_cells", "cells.enumerate_cells", _count_enumerate),
        (gb.morse, "morse_boundary", "morse.morse_boundary", _count_boundary),
        (gb.homology, "homology", "homology.homology", None),
        (gb.homology, "smith_normal_form", "intlinalg.smith_normal_form", _count_snf),
        (gb.homology, "kernel_basis", "intlinalg.kernel_basis", None),
        (gb.homology, "kernel_coordinates", "intlinalg.kernel_coordinates", None),
        (gb.intlinalg, "smith_normal_form", "intlinalg.smith_normal_form", _count_snf),
        (gb.decompose, "h1_formula", "decompose.h1_formula", None),
        (gb.present, "raw_presentation", "present.raw_presentation", _count_raw),
        (gb.present, "simplify", "present.simplify", _count_simplify),
    )


class Tracer:
    """Install with ``with Tracer(gb) as tr:``; wrap each job in
    ``tr.job(job_id)``."""

    def __init__(self, gb):
        self.gb = gb
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.reducers: dict = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._job = None
        self._originals: list[tuple] = []

    def __enter__(self):
        for module, attr, name, hook in wrap_points(self.gb):
            orig = getattr(module, attr)
            self._originals.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, hook))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, orig = self._originals.pop()
            setattr(module, attr, orig)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((self._job, sid, parent, name, start, end))

    def _wrap(self, orig, name, hook):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return orig(*args, **kwargs)
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, perf_counter())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def job(self, job_id):
        """The root span of one job."""
        self._job = job_id
        self.reducers.clear()
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, "job", start, perf_counter())
            self._job = None

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: total time and self time (total minus the time its
    direct children cover)."""
    child_time: dict = Counter()
    for _, sid, parent, name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    total, self_t = Counter(), Counter()
    for _, sid, parent, name, start, end in spans:
        total[name] += end - start
        self_t[name] += end - start - child_time[sid]
    return total, self_t


# the per-layer times that add up to a traced pass's wall time
PARTITION = ("graphs.s", "trees.s", "cells.enumerate_s", "morse.build_self_s",
             "morse.reduce_s", "intlinalg.snf_s", "homology.self_s",
             "decompose.s", "present.rewrite_s", "present.simplify_s",
             "harness.self_s")


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics of one traced pass."""
    total, self_t = self_times(spans)

    def layer_self(layer):
        return sum(v for k, v in self_t.items() if k.split(".")[0] == layer)

    m = {
        "graphs.s": layer_self("graphs"),
        "trees.s": layer_self("trees"),
        "cells.enumerate_s": total["cells.enumerate_cells"],
        "cells.count": counts["cells.count"],
        "cells.critical": counts["cells.critical"],
        "morse.build_s": total["morse.build_morse_complex"],
        "morse.build_self_s": self_t["morse.build_morse_complex"],
        "morse.reduce_s": total["morse.morse_boundary"],
        "morse.reduce_calls": counts["morse.reduce_calls"],
        "morse.memo_cells": counts["morse.memo_cells"],
        "intlinalg.snf_s": layer_self("intlinalg"),
        "homology.s": total["homology.homology"],
        "homology.self_s": self_t["homology.homology"],
        "decompose.s": layer_self("decompose"),
        "present.rewrite_s": total["present.raw_presentation"],
        "present.simplify_s": total["present.simplify"],
        "harness.self_s": self_t["job"],
    }
    m["cells.critical_ratio"] = (m["cells.critical"] / m["cells.count"]
                                 if m["cells.count"] else 0.0)
    for k in ("intlinalg.snf_calls", "intlinalg.snf_transform_calls",
              "intlinalg.snf_entries", "intlinalg.snf_nnz",
              "present.generators_raw", "present.generators_final",
              "present.relator_letters", "present.tietze_moves"):
        m[k] = counts[k]
    return m
