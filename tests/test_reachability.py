"""The package holds only what a command reaches.

A fixed list of small command lines, one per command and branch plus one
error per exception class, runs in-process under `sys.setprofile`; every
module-level function and class method defined in `graphbraids` must be
entered, apart from the allow-list below, each entry with its reason.  A
helper that only the tests read belongs in `tests/reference.py`.
"""

import ast
import importlib
import json
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import graphbraids
from graphbraids import cli
from graphbraids.graphs import graph_to_json
from reference import planted_graph

PACKAGE = str(Path(graphbraids.__file__).parent)

ALLOWED = {
    # read by the benchmark (perfbench/), which no command runs
    "cells.enumerate_cells": "the benchmark's tracer wraps it; the tests' "
                             "whole complex reads it",
    "cells.estimate_cell_count": "enumerate_cells' size guard",
    "intlinalg.kernel_basis": "the benchmark's tracer wraps it; the tests' "
                              "reference homology reads it",
    "intlinalg.kernel_coordinates": "as kernel_basis",
    "graphs.graph_to_json": "the benchmark writes its corpus graphs with it",
    "corpus.corpus": "the benchmark's corpus workload and the tests draw "
                     "graphs from it",
    "corpus.random_topological_graph": "corpus' one graph",
    # no command reaches these
    "graphs.Graph.__repr__": "a debugging aid; no command prints a Graph",
    "homology.AbelianGroup.__str__": "printed only in a check mismatch "
                                     "verdict, which a correct build never "
                                     "gives, and in Python sessions",
    "morse.LazyMapping.__contains__": "the Mapping protocol: the default "
                                      "would compute the name",
    "morse.LazyMapping.__iter__": "the Mapping protocol (abstract)",
    "morse.LazyMapping.__len__": "the Mapping protocol (abstract)",
}

def argvs(graph_file):
    return [
        ["homology", "--graph", "K33", "--n", "2"],
        ["homology", "--graph", "K33", "--n", "2", "--flavor", "ordered",
         "--format", "text"],
        ["homology", "--graph", "K(4)", "--n", "3", "--subdivide", "uniform"],
        ["homology", "--graph", "Theta(3)", "--n", "2", "--subdivide", "2"],
        ["homology", "--graph", "a b\nb c\nc a", "--n", "2",
         "--subdivide", "none"],
        ["homology", "--graph", graph_file, "--n", "2"],
        ["homology", "--graph", "FigB3n3", "--n", "3"],
        ["formula", "--graph", "K5", "--n", "4"],
        ["formula", "--graph", "K33", "--n", "1", "--flavor", "ordered"],
        ["check", "--graph", "Theta4", "--n", "3"],
        ["check", "--graph", "K33", "--n", "2", "--flavor", "ordered",
         "--subdivide", "auto"],
        ["check", "--graph", "K33", "--n", "3", "--flavor", "ordered"],
        ["check", "--graph", "Dumbbell", "--n", "3", "--mode", "planar",
         "--subdivide", "auto"],
        ["decompose", "--graph", "FigCounterEx", "--n", "2"],
        ["decompose", "--graph", "FigB3n3", "--n", "3"],
        ["cells", "--graph", "K33", "--n", "2", "--boundaries"],
        ["cells", "--graph", "K33", "--n", "3", "--flavor", "ordered"],
        ["tree", "--graph", "K4", "--n", "3"],
        ["tree", "--graph", "K4", "--n", "3", "--mode", "planar",
         "--subdivide", "auto"],
        ["present", "--graph", "Theta4", "--n", "3"],
        # a separating merge on a cyclically reduced relator
        ["present", "--graph", json.dumps(graph_to_json(planted_graph(592))),
         "--n", "2", "--flavor", "ordered"],
        ["present", "--graph", "K4", "--n", "1", "--flavor", "ordered",
         "--raw"],
        ["beta2", "--graph", "K33", "--direct"],
        # one error per exception class: GraphError, TreeError, MorseError
        # and CellError
        ["homology", "--graph", "NoSuchGraph"],
        ["homology", "--graph", "K5", "--n", "2", "--mode", "planar"],
        ["present", "--graph", "K33", "--n", "3", "--flavor", "ordered"],
        ["homology", "--graph", "K5", "--n", "4", "--cap", "10"],
    ]


def defined_functions():
    """{code object: "module.qualname"} of every module-level function and
    class method the package defines; properties and static and class
    methods are unwrapped, and nested functions and lambdas left out.  A
    function is matched on its code object, since a decorated function's
    first line is its decorator's."""
    out = {}
    for info in pkgutil.iter_modules(graphbraids.__path__):
        if info.name == "__main__":
            continue  # it runs the CLI when imported
        module = importlib.import_module(f"graphbraids.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if isinstance(member, property):
                    fns = [member.fget, member.fset, member.fdel]
                elif isinstance(member, cached_property):
                    fns = [member.func]
                else:
                    fns = [getattr(member, "__func__", member)]
                for fn in fns:
                    while hasattr(fn, "__wrapped__"):
                        fn = fn.__wrapped__
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename.startswith(PACKAGE):
                        out[code] = f"{info.name}.{fn.__qualname__}"
    return out


def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch,
                                                capsys):
    graph_file = tmp_path / "triangle.json"
    graph_file.write_text(json.dumps(
        {"vertices": ["a", "b", "c"],
         "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}))
    functions = defined_functions()
    commands = argvs(str(graph_file))
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    monkeypatch.setattr(sys, "argv", ["graphbraids", "formula", "--graph",
                                      "K4"])
    statuses = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv in commands:
            statuses.append(cli.run(argv))
        try:
            cli.main()
        except SystemExit as exc:
            statuses.append(exc.code)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert statuses == [0] * 23 + [2] * 4 + [0]
    unreached = {name for code, name in functions.items()
                 if code not in entered}
    missed = sorted(unreached - ALLOWED.keys())
    assert not missed, "no command reaches " + ", ".join(missed)
    # an entry a command reaches, or one the package no longer defines,
    # leaves the list
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, "allowed but reached or gone: " + ", ".join(stale)


def test_no_module_imports_another_modules_private_name():
    # a name another module reads is public: no `from .morse import _x`,
    # and no `C._x` on a module imported as C
    bad = []
    for path in sorted(Path(PACKAGE).glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                for a in node.names:
                    if a.name.startswith("_"):
                        bad.append(f"{path.name}:{node.lineno} {a.name}")
                    elif node.module is None:  # from . import cells as C
                        modules.add(a.asname or a.name)
        bad += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr[0] == "_"
                and isinstance(node.value, ast.Name)
                and node.value.id in modules]
    assert not bad, "private names read across modules: " + ", ".join(bad)
