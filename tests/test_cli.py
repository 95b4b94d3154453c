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


def test_present_method_both_checks_the_formulas(capsys):
    status, rep = capture(capsys, ["present", "--graph", "Theta4", "--n", "3",
                                   "--method", "both"])
    assert status == 0 and rep["inputs"]["method"] == "both"
    _, plain = capture(capsys, ["present", "--graph", "Theta4", "--n", "3"])
    for key in ("generators", "relators", "history", "abelianization"):
        assert rep["results"][key] == plain["results"][key]


def test_present_method_both_reports_a_formula_mismatch(capsys, monkeypatch):
    from graphbraids import morse
    formula = morse.fast_morse_boundary
    monkeypatch.setattr(morse, "fast_morse_boundary",
                        lambda t, c: {k: -x for k, x in formula(t, c).items()})
    assert run(["present", "--graph", "Theta4", "--n", "3",
                "--method", "both"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fast/generic disagree") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["present", "--graph", "Theta4", "--n", "3", "--method", "fast"],
    ["present", "--graph", "K33", "--n", "3", "--flavor", "ordered"],
], ids=["method-fast", "ordered-n3"])
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
    # two points on one vertex: no configurations, so no generators
    status, rep = capture(capsys, ["present", "--graph", json.dumps(POINT),
                                   "--n", "2", "--flavor", flavor])
    assert status == 0
    res = rep["results"]
    assert (res["generators"], res["relators"], res["history"]) == ([], [], [])
    assert res["abelianization"] == {"rank": 0, "torsion": []}


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
    # the pinned K33 n=2 tree fails T1 and T2, as the unordered guard knows
    assert run(["homology", "--graph", "K33", "--n", "2", "--flavor", "ordered",
                "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fast path needs a tree satisfying T1-T3\n"
