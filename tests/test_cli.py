import json

import pytest

from graphbraids.cli import run, make_parser


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


def test_tree_command(capsys):
    status, rep = capture(capsys, ["tree", "--graph", "K5", "--n", "4"])
    assert status == 0
    conds = rep["results"]["conditions"]
    assert conds["t1"] and conds["t2"] and conds["t3"]


def test_present_command(capsys):
    status, rep = capture(capsys, ["present", "--graph", "Theta4", "--n", "3"])
    assert status == 0
    assert len(rep["results"]["generators"]) == 6
    assert len(rep["results"]["relators"]) == 1


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
