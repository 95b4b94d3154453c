import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import graphbraids
from graphbraids.cli import run, make_parser
from graphbraids.graphs import BUILTIN_GRAPHS, FAMILY_CAP


def capture(capsys, argv):
    status = run(argv)
    out = capsys.readouterr().out
    return status, json.loads(out) if out.strip().startswith("{") else out


def h_of(rep, degree):
    return next(h for h in rep["results"]["homology"] if h["degree"] == degree)


def test_homology_command(capsys):
    status, rep = capture(capsys, ["homology", "--graph", "K33", "--n", "2",
                                   "--flavor", "unordered"])
    assert status == 0
    assert h_of(rep, 1) == {"degree": 1, "rank": 4, "torsion": [2]}


def test_check_command_matches(capsys):
    status, rep = capture(capsys, ["check", "--graph", "Theta4", "--n", "2"])
    assert status == 0 and rep["verdict"] == "match"
    assert rep["results"]["morse_H1"]["rank"] == 6


def test_cells_command_lists_known_cells(capsys):
    status, rep = capture(capsys, ["cells", "--graph", "K33", "--n", "2"])
    assert status == 0
    got = {x["cell"] for x in rep["results"]["critical"]["dim1"]}
    assert got == {"{0-3,1}", "{0-4,1}", "{0-4,5}", "{1-5,0}", "{1-5,2}",
                   "{2-4,3}", "{3-5,0}"}


def test_formula_and_beta2(capsys):
    status, rep = capture(capsys, ["formula", "--graph", "K5", "--n", "4"])
    assert rep["results"]["H1"] == {"rank": 6, "torsion": [2]}
    status, rep = capture(capsys, ["beta2", "--graph", "K33"])
    assert rep["results"] == {"beta2_B2": 0, "beta2_P2": 1}


def test_decompose_command(capsys):
    status, rep = capture(capsys, ["decompose", "--graph", "FigB3n3", "--n", "3"])
    assert status == 0
    assert rep["results"]["bundle"]["N1"] == 23
    assert rep["results"]["planar"] is True


def test_decompose_builds_one_decomposition_tree(monkeypatch, capsys):
    # one decomposition tree, and one embedding per question: the whole
    # graph and its two non-planar triconnected pieces
    from graphbraids import cli, decompose, graphs
    calls = {"decomposition_tree": 0, "rotation_system": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    tree = counted(decompose, "decomposition_tree")
    monkeypatch.setattr(cli, "decomposition_tree", tree)
    monkeypatch.setattr(decompose, "decomposition_tree", tree)
    monkeypatch.setattr(graphs, "rotation_system",
                        counted(graphs, "rotation_system"))
    status, rep = capture(capsys, ["decompose", "--graph", "FigCounterEx",
                                   "--n", "2"])
    assert status == 0
    assert calls == {"decomposition_tree": 1, "rotation_system": 3}
    results = rep["results"]
    assert list(results) == ["cut_vertices", "segment_blocks", "blocks",
                             "planar", "beta1", "bundle",
                             "beta1_characterizations"]
    assert results["planar"] is results["beta1_characterizations"]["planar"] is False


@pytest.mark.parametrize("graph", ["K33", "K4", "Dumbbell", "Theta4", "K5",
                                   "K(1)"])
def test_beta2_direct_matches_the_formula(capsys, graph):
    status, rep = capture(capsys, ["beta2", "--graph", graph, "--direct"])
    assert status == 0
    results = rep["results"]
    for flavor in ("B2", "P2"):
        assert results[f"beta2_{flavor}_direct"] == results[f"beta2_{flavor}"]


def test_tree_command(capsys):
    status, rep = capture(capsys, ["tree", "--graph", "K5", "--n", "4"])
    assert status == 0
    conds = rep["results"]["conditions"]
    assert conds["t1"] and conds["t2"] and conds["t3"]


def test_tree_reports_t4_on_a_planar_mode_tree(capsys):
    # generic mode takes the pinned K4 n=3 tree, which is a planar-mode tree
    status, rep = capture(capsys, ["tree", "--graph", "K4", "--n", "3"])
    assert status == 0 and rep["results"]["tree"] == "pinned"
    assert rep["results"]["conditions"]["t4"] is True


def test_present_command(capsys):
    status, rep = capture(capsys, ["present", "--graph", "Theta4", "--n", "3"])
    assert status == 0
    assert len(rep["results"]["generators"]) == 6
    assert len(rep["results"]["relators"]) == 1


@pytest.mark.parametrize("policy", ["auto", "uniform", "3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_a_graph_using_subdivision_names(capsys, n, policy):
    # a triangle with a vertex named as subdivision names its edge e0:
    # subdivided, it is a circle, whose braid groups are Z
    triangle = "a b\nb e0.1\ne0.1 a"
    status, rep = capture(capsys, ["check", "--graph", triangle, "--n",
                                   str(n), "--subdivide", policy])
    assert status == 0 and rep["verdict"] == "match"
    assert rep["results"]["formula_H1"] == {"rank": 1, "torsion": []}


def test_check_runs_the_closed_forms(capsys):
    # the pinned Theta4 n=3 tree satisfies T1-T3
    status, rep = capture(capsys, ["check", "--graph", "Theta4", "--n", "3"])
    assert status == 0 and rep["verdict"] == "match"
    assert rep["results"]["closed_forms"] is True
    assert set(rep["inputs"]) == {"graph", "n", "flavor", "mode"}


def test_check_reports_a_closed_form_mismatch(capsys, monkeypatch):
    from graphbraids import closedforms
    formula = closedforms.fast_morse_boundary
    monkeypatch.setattr(closedforms, "fast_morse_boundary",
                        lambda t, c: {k: -x for k, x in formula(t, c).items()})
    assert run(["check", "--graph", "Theta4", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the closed forms and the rewriting "
                                   "disagree on ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--graph", "Theta4", "--n", "3"],
    ["check", "--graph", "K33", "--n", "3", "--flavor", "ordered"],
], ids=["formula", "covering"])
def test_check_reports_an_euler_characteristic_mismatch(capsys, monkeypatch,
                                                        argv):
    status, rep = capture(capsys, argv)
    assert status == 0 and rep["results"]["euler"] is True
    from graphbraids import cells
    series = cells.euler_characteristic
    monkeypatch.setattr(cells, "euler_characteristic",
                        lambda t, n, flavor: series(t, n, flavor) + 1)
    status, rep = capture(capsys, argv)
    assert status == 1 and rep["results"]["euler"] is False
    assert rep["verdict"].startswith("mismatch(the ")
    assert "Gal's series" in rep["verdict"]


def test_method_is_no_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["present", "--graph", "Theta4", "--n", "3", "--method", "both"])
    assert exc.value.code == 2


def test_formula_ordered_n1_is_the_graphs_abelianized_group(capsys):
    status, rep = capture(capsys, ["formula", "--graph", "K33", "--n", "1",
                                   "--flavor", "ordered"])
    assert status == 0 and rep["results"]["H1"] == {"rank": 4, "torsion": []}
    _, unordered = capture(capsys, ["formula", "--graph", "K33", "--n", "1"])
    assert unordered["results"] == rep["results"]
    assert run(["formula", "--graph", "K33", "--n", "3",
                "--flavor", "ordered"]) == 2
    assert capsys.readouterr().err == \
        "error: the closed formula for ordered flavor needs n <= 2\n"


@pytest.mark.parametrize("argv", [
    ["present", "--graph", "K33", "--n", "3", "--flavor", "ordered"],
], ids=["ordered-n3"])
def test_present_refusals_are_one_line(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_ordered_homology(capsys):
    status, rep = capture(capsys, ["homology", "--graph", "K33", "--n", "2",
                                   "--flavor", "ordered"])
    assert h_of(rep, 1) == {"degree": 1, "rank": 8, "torsion": []}


def test_cells_with_boundaries(capsys):
    status, rep = capture(capsys, ["cells", "--graph", "K5", "--n", "4",
                                   "--boundaries"])
    assert status == 0
    chains = rep["results"]["boundaries"]
    key = "d_6(0,1) ∪ d_4"
    assert key in chains
    assert chains[key] == "-d_6(0,2) +d_6(0,1) +B_3(1,0,0)"


def test_determinism(capsys):
    argv = ["homology", "--graph", "K4", "--n", "2", "--subdivide", "strict"]
    _, rep1 = capture(capsys, argv)
    _, rep2 = capture(capsys, argv)
    rep1.pop("timing_ms", None)
    rep2.pop("timing_ms", None)
    assert rep1 == rep2


def test_error_paths(capsys):
    assert run(["homology", "--graph", "NoSuchGraph"]) == 2
    capsys.readouterr()
    assert run(["homology", "--graph", "K5", "--n", "2", "--mode", "planar",
                "--subdivide", "strict"]) == 2
    capsys.readouterr()
    # cap exceeded
    assert run(["homology", "--graph", "K5", "--n", "4", "--cap", "10"]) == 2


def test_cap_counts_items(capsys):
    # K33 at n = 40: 1,250 critical cells of 40 items each reach the cap
    _one_line_error(capsys, ["homology", "--graph", "K33", "--n", "40",
                             "--cap", "50000"],
                    "error: the critical cells exceed the cap of 50000 items")


def test_bad_json_graph(tmp_path, capsys):
    bad = '{"vertices": ['
    assert run(["homology", "--graph", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON graph") and err.count("\n") == 1
    p = tmp_path / "bad.json"
    p.write_text(bad)
    assert run(["check", "--graph", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed JSON graph")


@pytest.mark.parametrize("doc", ['{"edges": []}', '{"vertices": ["a"]}'])
def test_json_graph_missing_keys(capsys, doc):
    assert run(["homology", "--graph", doc]) == 2
    err = capsys.readouterr().err
    assert err == "error: JSON graph needs 'vertices' and 'edges'\n"


@pytest.mark.parametrize("spec,message", [
    ("K(a)", "bad graph family 'K(a)'"),
    ("K(3,4,5,6)", "bad graph family 'K(3,4,5,6)'"),
    ("Theta(2,3)", "bad graph family 'Theta(2,3)'"),
    ('{"vertices": ["a", "b"], "edges": [["a"]]}',
     "JSON edge ['a'] is neither [u, v] nor [id, u, v]"),
    ('{"vertices": ["a", "b"], "edges": [["e", "a", "b", "c"]]}',
     "JSON edge ['e', 'a', 'b', 'c'] is neither [u, v] nor [id, u, v]"),
    ('{"vertices": ["a", "b"], "edges": ["ab"]}',
     "JSON edge 'ab' is neither [u, v] nor [id, u, v]"),
    ('{"vertices": "ab", "edges": []}',
     "JSON graph 'vertices' and 'edges' must be lists"),
    ('{"vertices": ["a"], "edges": 5}',
     "JSON graph 'vertices' and 'edges' must be lists"),
], ids=["K-letter", "K-four-args", "Theta-two-args", "edge-short",
        "edge-long", "edge-string", "vertices-string", "edges-number"])
def test_malformed_graph_specs_are_one_line(capsys, spec, message):
    assert run(["homology", "--graph", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


POINT = {"vertices": ["a"], "edges": []}
SEGMENT = {"vertices": ["a", "b"], "edges": [["e", "a", "b"]]}
CIRCLE = {"vertices": ["a", "b", "c"],
          "edges": [["e1", "a", "b"], ["e2", "b", "c"], ["e3", "c", "a"]]}


@pytest.mark.parametrize("graph,n,flavor,h0,h1", [
    (POINT, 1, "unordered", 1, 0),
    (POINT, 2, "unordered", 0, 0),
    (SEGMENT, 2, "unordered", 1, 0),
    (SEGMENT, 2, "ordered", 2, 0),
    (SEGMENT, 3, "ordered", 6, 0),
    (CIRCLE, 2, "unordered", 1, 1),
    (CIRCLE, 3, "unordered", 1, 1),
    (CIRCLE, 2, "ordered", 1, 1),
    (CIRCLE, 3, "ordered", 2, 2),
])
def test_degenerate_graph_homology(capsys, graph, n, flavor, h0, h1):
    status, rep = capture(capsys, ["homology", "--graph", json.dumps(graph),
                                   "--n", str(n), "--flavor", flavor])
    assert status == 0
    groups = {h["degree"]: (h["rank"], h["torsion"])
              for h in rep["results"]["homology"]}
    assert groups.pop(0) == (h0, []) and groups.pop(1) == (h1, [])
    assert all(g == (0, []) for g in groups.values())


@pytest.mark.parametrize("n,flavor", [(3, "unordered"), (3, "ordered"),
                                      (4, "unordered")])
def test_single_vertex_has_no_configurations(capsys, n, flavor):
    # more points than vertices: the configuration space is empty
    status, rep = capture(capsys, ["homology", "--graph", json.dumps(POINT),
                                   "--n", str(n), "--flavor", flavor])
    assert status == 0
    assert all((h["rank"], h["torsion"]) == (0, [])
               for h in rep["results"]["homology"])


@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_single_vertex_presentation_is_empty(capsys, flavor):
    # two points on one vertex: no configurations, so no fundamental group
    argv = ["present", "--graph", json.dumps(POINT), "--n", "2",
            "--flavor", flavor]
    for extra in ([], ["--raw"]):
        _one_line_error(capsys, argv + extra,
                        "error: the configuration space is empty")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_single_vertex_planar_mode_matches_generic(capsys, n):
    argv = ["homology", "--graph", json.dumps(POINT), "--n", str(n)]
    status, generic = capture(capsys, argv)
    assert status == 0
    status, planar = capture(capsys, argv + ["--mode", "planar"])
    assert status == 0
    assert planar["results"]["homology"] == generic["results"]["homology"]
    assert h_of(planar, 0)["rank"] == (1 if n == 1 else 0)


@pytest.mark.parametrize("graph,rank", [("K4", 3), ("K5", 6), ("K(3,4)", 6),
                                        ("K33", 4), ("Theta4", 3),
                                        ("Theta(2)", 1)])
def test_one_point_homology(capsys, graph, rank):
    status, rep = capture(capsys, ["homology", "--graph", graph, "--n", "1"])
    assert status == 0
    assert h_of(rep, 0) == {"degree": 0, "rank": 1, "torsion": []}
    assert h_of(rep, 1) == {"degree": 1, "rank": rank, "torsion": []}


def test_text_format(capsys):
    status = run(["formula", "--graph", "K4", "--n", "2", "--format", "text"])
    out = capsys.readouterr().out
    assert status == 0 and "rank: 4" in out


def test_graph_file_input(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"vertices": ["a", "b", "c"],
                             "edges": [["e1", "a", "b"], ["e2", "b", "c"],
                                       ["e3", "c", "a"]]}))
    status, rep = capture(capsys, ["check", "--graph", str(p), "--n", "2"])
    assert status == 0 and rep["verdict"] == "match"


def _one_line_error(capsys, argv, start="error: "):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start) and captured.err.count("\n") == 1


@pytest.mark.parametrize("graph, n", [
    pytest.param("K5", 2, id="K5"),
    pytest.param("FigCounterEx", 2, id="FigCounterEx"),
    # these two have generic pinned trees, which planar mode passes over
    ("K5", 4), ("K33", 2)])
def test_planar_mode_names_a_nonplanar_graph(capsys, graph, n):
    # K5 is decided by the counts, FigCounterEx by the embedding
    _one_line_error(capsys, ["check", "--graph", graph, "--n", str(n),
                             "--mode", "planar"],
                    "error: planar mode needs a planar graph\n")


def test_planar_mode_refuses_a_multigraph_in_one_line(capsys):
    # parallel edges l0a-l0b and v0-l0a; at n = 1 with --subdivide none
    # they reach tree choice unsubdivided
    doc = json.dumps({"vertices": ["v0", "v1", "l0a", "l0b"],
                      "edges": [["v0", "v1"], ["v0", "l0a"], ["l0a", "l0b"],
                                ["l0b", "v0"], ["l0a", "v0"], ["l0a", "l0b"],
                                ["v1", "l0a"]]})
    argv = ["tree", "--graph", doc, "--n", "1", "--subdivide", "none"]
    message = "error: ordered trees require a simple graph; subdivide first\n"
    _one_line_error(capsys, argv, message)
    _one_line_error(capsys, argv + ["--mode", "planar"], message)


K2221 = json.dumps({"vertices": [f"v{i}" for i in range(7)],
                    "edges": [[f"v{a}", f"v{b}"]
                              for a, b in itertools.combinations(range(7), 2)
                              if (a, b) not in ((0, 1), (2, 3), (4, 5))]})


# digests of the reports, less timing_ms, from the code that formatted
# every generator's name in raw_presentation
@pytest.mark.parametrize("argv, digest", [
    (["--graph", "K5", "--n", "4"], "da3e3fe04ff4b0e0"),
    (["--graph", "K33", "--n", "2", "--flavor", "ordered"], "ec4339985e49da68"),
    (["--graph", "K33", "--n", "1", "--flavor", "ordered"], "be37b0f6e80d50c9"),
    (["--graph", K2221, "--n", "3", "--subdivide", "auto"], "0c5ab50dfdf2d523"),
], ids=["K5-n4", "K33-n2-ordered", "K33-n1-ordered", "K2221-n3"])
def test_present_reports_are_unchanged(capsys, argv, digest):
    _assert_report_digest(capsys, ["present"] + argv, digest)


def _assert_report_digest(capsys, argv, digest):
    status, rep = capture(capsys, argv)
    assert status == 0
    del rep["timing_ms"]
    text = json.dumps(rep, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest


# digests of the reports, less timing_ms, from the Morse build that sorted
# every face, generated every candidate cell and moved the representative's
# row through the product table
@pytest.mark.parametrize("argv, digest", [
    (["cells", "--graph", "K33", "--n", "2", "--boundaries"],
     "db7e64ad1b7d6800"),
    (["cells", "--graph", "K(3,4)", "--n", "3", "--flavor", "ordered"],
     "5aaf1ca8190da580"),
    (["homology", "--graph", "K5", "--n", "4"], "4abbe63caa7403e7"),
    (["check", "--graph", "K5", "--n", "4"], "0576433056148eeb"),
    # from the code that named a cell by rebuilding it from its name and
    # built the closed forms' terms from one-term names: FigB3n3's tree
    # fails T2, so some of its cells print as cell text
    (["cells", "--graph", "FigB3n3", "--n", "3", "--boundaries"],
     "82d58f4d490e2f83"),
    (["cells", "--graph", "K5", "--n", "5", "--subdivide", "auto",
      "--boundaries"], "9b7f1f56d5e50cd5"),
    (["check", "--graph", "K5", "--n", "5", "--subdivide", "auto"],
     "ad086d1356c6b3eb"),
], ids=["cells-K33-n2-boundaries", "cells-K34-n3-ordered", "homology-K5-n4",
        "check-K5-n4", "cells-FigB3n3-n3-boundaries",
        "cells-K5-n5-boundaries", "check-K5-n5"])
def test_build_reports_are_unchanged(capsys, argv, digest):
    _assert_report_digest(capsys, argv, digest)


def test_graph_path_that_is_a_directory_is_one_line(tmp_path, capsys):
    _one_line_error(capsys, ["homology", "--graph", str(tmp_path)],
                    "error: cannot read graph file")


def test_graph_file_that_is_not_text_is_one_line(tmp_path, capsys):
    p = tmp_path / "g.bin"
    p.write_bytes(bytes([0xff, 0xfe, 0x00, 0xd0, 0x80]) * 20)
    _one_line_error(capsys, ["homology", "--graph", str(p)],
                    "error: cannot read graph file")


def test_inline_json_graph_longer_than_a_file_name(capsys):
    # a 40-cycle written out is far longer than a file name may be
    vs = [f"vertex{i}" for i in range(40)]
    doc = json.dumps({"vertices": vs,
                      "edges": [[f"e{i}", vs[i], vs[(i + 1) % 40]]
                                for i in range(40)]})
    assert len(doc) > 1000
    status, rep = capture(capsys, ["homology", "--graph", doc, "--n", "1"])
    assert status == 0
    assert h_of(rep, 1) == {"degree": 1, "rank": 1, "torsion": []}


def test_ordered_n1_presentation_and_tags(capsys):
    status, rep = capture(capsys, ["present", "--graph", "K4", "--n", "1",
                                   "--flavor", "ordered"])
    assert status == 0
    res = rep["results"]
    assert res["generators"] == ["d_3_id", "d_2_id", "d_1_id"]
    assert res["relators"] == [] and res["abelianization"]["rank"] == 3
    status, rep = capture(capsys, ["cells", "--graph", "K4", "--n", "1",
                                   "--flavor", "ordered"])
    assert status == 0
    assert rep["results"]["one_cell_tags"] == {
        "d_3_id": "free", "d_2_id": "free", "d_1_id": "free"}


def test_check_ordered_n3_covers_unordered(capsys):
    status, rep = capture(capsys, ["check", "--graph", "K33", "--n", "3",
                                   "--flavor", "ordered"])
    assert status == 0 and rep["verdict"] == "match"
    assert rep["results"]["critical_cells"] == {"0": 6, "1": 78, "2": 114,
                                                "3": 12}
    ranks = [h["rank"] for h in rep["results"]["ordered_homology"]]
    assert ranks == [1, 12, 41, 0]


def test_check_ordered_n3_reports_a_broken_boundary(capsys, monkeypatch):
    from graphbraids import cli
    build = cli.build_morse_complex

    def broken(t, n, flavor, **kw):
        mc = build(t, n, flavor, **kw)
        if flavor == "ordered":
            mc.boundaries[2][0] = {j: -x for j, x in mc.boundaries[2][0].items()}
        return mc

    monkeypatch.setattr(cli, "build_morse_complex", broken)
    status, rep = capture(capsys, ["check", "--graph", "K33", "--n", "3",
                                   "--flavor", "ordered"])
    assert status == 1
    assert rep["verdict"].startswith("mismatch(the boundary of (")


@pytest.mark.parametrize("method", ["fast", "both"])
def test_ordered_formulas_refuse_a_tree_failing_t1_to_t3(capsys, method):
    # the pinned K33 n=2 tree fails T1 and T2, so the formulas do not apply:
    # asked for alone ("fast") they refuse it, and `check`, which compares
    # them with the rewritten d2 ("both"), skips them there
    from graphbraids.fixtures import k33_pinned_tree
    from graphbraids.morse import MorseError, build_morse_complex
    from graphbraids.closedforms import check_closed_forms
    for flavor in ("unordered", "ordered"):
        if method == "fast":
            mc = build_morse_complex(k33_pinned_tree(), 2, flavor)
            with pytest.raises(MorseError,
                               match="need a tree satisfying T1-T3"):
                check_closed_forms(mc)
        else:
            status, rep = capture(capsys, ["check", "--graph", "K33", "--n",
                                           "2", "--flavor", flavor])
            assert status == 0 and rep["verdict"] == "match"
            assert rep["results"]["closed_forms"] is False


@pytest.mark.parametrize("argv, results", [
    (["--graph", "K33", "--n", "2"],
     {"tree": "pinned", "morse_H1": {"rank": 4, "torsion": [2]},
      "formula_H1": {"rank": 4, "torsion": [2]}, "closed_forms": False,
      "euler": True}),
    (["--graph", "Theta4", "--n", "3", "--subdivide", "auto"],
     {"tree": "subdivide=auto,mode=generic",
      "morse_H1": {"rank": 6, "torsion": []},
      "formula_H1": {"rank": 6, "torsion": []}, "closed_forms": True,
      "euler": True}),
], ids=["K33-n2-pinned", "Theta4-n3-subdivided"])
def test_check_reads_the_graph_once(monkeypatch, capsys, argv, results):
    from graphbraids import cli
    load_graph = cli._load_graph
    calls = []

    def load(spec):
        calls.append(spec)
        return load_graph(spec)

    monkeypatch.setattr(cli, "_load_graph", load)
    status, rep = capture(capsys, ["check"] + argv)
    assert calls == [argv[1]]
    assert status == 0
    rep.pop("timing_ms")
    assert rep == {"command": "check",
                   "inputs": {"graph": argv[1], "n": int(argv[3]),
                              "flavor": "unordered", "mode": "generic"},
                   "results": results, "verdict": "match"}


@pytest.mark.parametrize("n", ["0", "-1"])
def test_formula_refuses_a_braid_index_below_one(capsys, n):
    _one_line_error(capsys, ["formula", "--graph", "K33", "--n", n],
                    "error: braid index must be >= 1\n")


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader of stdout is gone before the report is written, as with
    # `graphbraids ... | head -c 100` once head has read its fill
    env = {**os.environ,
           "PYTHONPATH": str(Path(graphbraids.__file__).parents[1])}
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "graphbraids", "homology", "--graph", "K33",
             "--n", "2"], stdout=w, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: no site hooks, which may load typing before the package does
    env = {**os.environ,
           "PYTHONPATH": str(Path(graphbraids.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import graphbraids, graphbraids.cli, sys; "
         "print([m for m in ('dataclasses', 'inspect', 'typing') "
         "if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("spec, start", [
    ("K(0)", "error: graph family 'K(0)' has no vertices"),
    ("K(0,0)", "error: graph family 'K(0,0)' has no vertices"),
    ("K(-1)", "error: graph family 'K(-1)': the parameter m = -1"),
    ("K(-99999)", "error: graph family 'K(-99999)': the parameter m = -99999"),
    ("K(2,-1)", "error: graph family 'K(2,-1)': the parameter n = -1"),
    ("Theta(-3)", "error: graph family 'Theta(-3)': the parameter m = -3"),
    # named before the connectivity check, which finds no component
    (json.dumps({"vertices": [], "edges": []}),
     "error: graph has no vertices\n"),
])
def test_an_empty_or_negative_graph_family_is_named_in_one_line(
        capsys, spec, start):
    _one_line_error(capsys, ["homology", "--graph", spec, "--n", "2"], start)


@pytest.mark.parametrize("spec", ["K(99999)", "K(1415)", "K(1001,1000)",
                                  "Theta(1000001)"])
def test_a_huge_graph_family_is_one_line(capsys, spec):
    _one_line_error(capsys, ["homology", "--graph", spec, "--n", "2"],
                    f"error: graph family {spec!r} has ")


def test_an_orbit_over_the_cap_is_refused_before_it_is_listed(capsys,
                                                              monkeypatch):
    # an ordered orbit holds n * n! items: at n = 11 its labellings alone
    # would take gigabytes, so the cap refuses before the build lists any,
    # even where the graph has no cell at all
    from graphbraids import morse
    listed = []
    monkeypatch.setattr(morse, "permutations",
                        lambda points: listed.append(points) or [])
    for spec in ("K33", "K(1)"):
        _one_line_error(capsys, ["homology", "--graph", spec, "--n", "11",
                                 "--flavor", "ordered"],
                        "error: the critical cells exceed the cap of "
                        "1000000 items (439084800 per orbit)\n")
    assert not listed


@pytest.mark.parametrize("n", [2_000_000, 200_000])
def test_a_subdivision_over_the_limit_is_refused_before_it_is_built(
        capsys, monkeypatch, n):
    # K5 has 10 segments, so auto subdivision asks for about 10 (n - 1)
    # edges: 20M at n = 2,000,000, which ran out of memory in the naming
    from graphbraids import graphs
    split = []
    monkeypatch.setattr(graphs, "_split_edges",
                        lambda *args: split.append(args))
    _one_line_error(capsys, ["homology", "--graph", "K5", "--n", str(n),
                             "--subdivide", "auto"],
                    f"error: the subdivided graph would have "
                    f"{10 * (n - 1) - 5:,} vertices and {10 * (n - 1):,} "
                    f"edges; the limit is {FAMILY_CAP:,} of each\n")
    assert not split


def test_an_ordered_build_with_only_0_cells_builds_no_product_table(
        capsys, monkeypatch):
    # K(2) n=8 ordered has one orbit of critical 0-cells and nothing above,
    # so no row is derived and the 40,320^2 products are never listed
    from graphbraids import morse
    monkeypatch.setattr(morse, "_product_table", None)
    status, rep = capture(capsys, ["homology", "--graph", "K(2)", "--n", "8",
                                   "--flavor", "ordered", "--subdivide",
                                   "auto"])
    assert status == 0
    assert h_of(rep, 0) == {"degree": 0, "rank": 40320, "torsion": []}
    assert all(h["rank"] == 0 for h in rep["results"]["homology"][1:])


def test_a_product_table_over_the_cap_is_refused_before_it_is_built(capsys):
    # K(1,3) n=7 ordered passes the cell cap (776,160 items), but its
    # derived rows would read a 5,040 x 5,040 table
    _one_line_error(capsys, ["homology", "--graph", "K(1,3)", "--n", "7",
                             "--flavor", "ordered", "--subdivide", "auto"],
                    "error: the table of permutation products exceeds the "
                    "cap of 1000000 items (5040 x 5040)\n")


DEGENERATE = {
    "K1": "K(1)",
    "K2": "K(2)",
    "Theta1": "Theta(1)",
    "Theta2": "Theta(2)",
    "K1,0": "K(1,0)",
    "point": json.dumps(POINT),
    "empty": json.dumps({"vertices": [], "edges": []}),
    "loop": json.dumps({"vertices": ["a"], "edges": [["e", "a", "a"]]}),
    "duplicate-ids": json.dumps({"vertices": ["a", "b", "c"],
                                 "edges": [["e", "a", "b"], ["e", "b", "c"]]}),
    "int-ids": json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}),
    "edge-list-triangle": "a b\nb c\nc a",
}


@pytest.mark.parametrize("spec", list(DEGENERATE.values()),
                         ids=list(DEGENERATE))
def test_degenerate_inputs_answer_or_refuse_in_one_line(capsys, spec):
    # every tree command at n = 0-3 in both flavors: an answer (exit 0, or
    # 1 for a check mismatch) or one error line with exit code 2
    bad = []
    for command, n, flavor in itertools.product(
            ("homology", "check", "present", "cells", "tree"), range(4),
            ("unordered", "ordered")):
        argv = [command, "--graph", spec, "--n", str(n), "--flavor", flavor]
        status = run(argv)
        err = capsys.readouterr().err
        if status == 2:
            ok = err.count("\n") == 1 and err.startswith("error: ")
        else:
            ok = status == 0 or (status == 1 and command == "check")
        if not ok:
            bad.append((argv, status, err))
    assert not bad


# the argv grammar: graph specs of every kind, small and huge family
# parameters, malformed JSON and edge lists, and every option value
PARAMS = st.sampled_from([-1, *range(7), FAMILY_CAP + 1])
IDS = st.one_of(st.sampled_from("abcd"), st.integers(-1, 3), st.none(),
                st.booleans(), st.just([]))
GRAPHS = st.one_of(
    st.sampled_from(list(BUILTIN_GRAPHS)),
    st.sampled_from(["NoSuchGraph", "", "K(2.5)", "K(a)", "K()", "K(1,2,3)",
                     "Theta(-)", "K(3"]),
    st.builds("K({})".format, PARAMS),
    st.builds("K({},{})".format, PARAMS, PARAMS),
    st.builds("Theta({})".format, PARAMS),
    st.builds(json.dumps, st.one_of(
        st.fixed_dictionaries({
            "vertices": st.lists(IDS, max_size=5),
            "edges": st.lists(st.lists(IDS, max_size=4), max_size=6)}),
        st.fixed_dictionaries({"vertices": IDS}),
        st.lists(IDS, max_size=3), st.integers(-3, 3), st.text(max_size=4))),
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3)
             .map(" ".join), min_size=1, max_size=6).map("\n".join),
    st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd"))
             .map(" ".join), min_size=1, max_size=6).map("\n".join))
TREE_COMMANDS = ("homology", "check", "cells", "tree", "present")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*TREE_COMMANDS, "formula", "decompose",
                                    "beta2"]))
    argv = [command, "--graph", draw(GRAPHS),
            "--n", str(draw(st.integers(-2, 50))),
            "--format", draw(st.sampled_from(["json", "text"]))]
    if command in TREE_COMMANDS + ("formula",):
        argv += ["--flavor", draw(st.sampled_from(["unordered", "ordered"]))]
    if command in TREE_COMMANDS:
        argv += ["--mode", draw(st.sampled_from(["generic", "planar"])),
                 "--subdivide", draw(st.sampled_from(
                     ["pinned", "auto", "strict", "uniform", "none", "-1",
                      "0", "1", "2", "3", "7"])),
                 "--cap", str(draw(st.integers(-1, 2000)))]
    flag = {"cells": "--boundaries", "present": "--raw",
            "beta2": "--direct"}.get(command)
    if flag and draw(st.booleans()):
        argv.append(flag)
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_answers_or_refuses_in_one_line(argv):
    # in-process, under a small cap: an answer (exit 0, or 1 for a check
    # mismatch) or one error line with exit code 2, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    err = err.getvalue()
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert status == 0 or (status == 1 and argv[0] == "check")
        assert "Traceback" not in err
