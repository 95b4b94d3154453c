import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from graphbraids.corpus import random_topological_graph
from graphbraids.graphs import (Graph, GraphError, build_graph, subdivide,
                                is_planar, rotation_system)
from graphbraids.trees import (OrderedTree, TreeError, choose_tree_and_order,
                               verify_conditions, _base_candidates,
                               _build_planar)
from graphbraids.fixtures import (PINNED_TREES, k33_pinned_tree, k5_pinned_tree,
                                  k4_pinned_tree, theta4_pinned_tree,
                                  fig_b3n3_tree, pinned_tree)
from reference import (random_ordered_tree, reference_branch,
                       reference_sep_classes, reference_t2, reference_t4)


def test_k33_navigation_examples():
    t = k33_pinned_tree()
    assert t.meet(3, 5) == 2
    assert t.meet(0, 4) == 0 and t.meet(4, 4) == 4
    assert t.branch(2, 3) == 1 and t.branch(2, 5) == 2
    assert all(t.branch(v, 0) == 0 for v in range(1, 6))
    # the census: 2 separates (0, 4) on its branch toward 4, 5 separates
    # nothing, and only deleted edges are ever separated
    assert (0, 4) in t.sep_classes[2][t.branch(2, 4)]
    assert 5 not in t.sep_classes
    assert all(d in t.deleted_set for classes in t.sep_classes.values()
               for ds in classes.values() for d in ds)
    with pytest.raises(TreeError):
        t.branch(3, 3)


def test_branch_rule_quoted():
    t = k5_pinned_tree()
    for v in range(1, t.nv):
        for w in range(t.nv):
            if v == w:
                continue
            g = t.branch(v, w)
            if t.meet(w, v) == v:
                assert g >= 1
            else:
                assert g == 0


def test_pinned_tree_conditions():
    rep = verify_conditions(k33_pinned_tree())
    assert (rep.t1, rep.t2) == (False, False)  # the warm-up tree ignores T1-T3
    assert rep.witnesses["t1"] and rep.witnesses["t2"]

    rep5 = verify_conditions(k5_pinned_tree())
    assert rep5.ok()
    rept = verify_conditions(theta4_pinned_tree())
    assert rept.ok()
    repb = verify_conditions(fig_b3n3_tree())
    assert (repb.t1, repb.t2, repb.t3) == (True, False, True)


def _census_and_t2_match_references(t):
    assert t.sep_classes == reference_sep_classes(t)
    rep = verify_conditions(t)
    assert (rep.t2, rep.witnesses.get("t2")) == reference_t2(t)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_census_and_t2_match_references_on_random_trees(seed):
    _census_and_t2_match_references(random_ordered_tree(seed))


@pytest.mark.parametrize("key", sorted(PINNED_TREES))
def test_census_and_t2_match_references_on_pinned_trees(key):
    _census_and_t2_match_references(PINNED_TREES[key]())


def _branch_matches_reference(t):
    for v in range(t.nv):
        for w in range(t.nv):
            if v != w:
                assert t.branch(v, w) == reference_branch(t, v, w), (v, w)


def test_branch_matches_reference_on_random_trees():
    # about half of these trees fail T2 (see below)
    for seed in range(50):
        _branch_matches_reference(random_ordered_tree(seed))


@pytest.mark.parametrize("key", sorted(PINNED_TREES))
def test_branch_matches_reference_on_pinned_trees(key):
    _branch_matches_reference(PINNED_TREES[key]())


def test_random_trees_fail_t2_about_half_the_time():
    # the T2 property above is worth little if its trees all pass or all fail
    fails = sum(not verify_conditions(random_ordered_tree(s)).t2
                for s in range(200))
    assert 60 <= fails <= 140


def test_k5_fixture_structure():
    t = k5_pinned_tree()
    assert [t.ids[i] for i in range(25)] == [str(i) for i in range(25)]
    assert t.deleted == [(0, 8), (0, 15), (0, 24), (3, 13), (3, 22), (6, 20)]
    assert t.essential_letter == {6: "A", 11: "B", 18: "C"}
    assert t.stem_length() == 6


def test_deleted_count_is_betti1():
    for fx in (k33_pinned_tree(), k5_pinned_tree(), theta4_pinned_tree()):
        from graphbraids.graphs import betti1
        assert len(fx.deleted) == betti1(fx.graph)


def test_order_increases_along_root_paths():
    t = k5_pinned_tree()
    for v in range(1, t.nv):
        assert t.parent[v] < v


def test_generic_construction_self_validates():
    for name, n in [("K33", 2), ("K5", 2), ("K5", 3), ("Theta4", 2),
                    ("Dumbbell", 2), ("FigB3n3", 3), ("K4", 3)]:
        g = build_graph(name)
        gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
        t = choose_tree_and_order(gs, n)
        rep = verify_conditions(t)
        assert rep.ok(), (name, n, rep.witnesses)
        assert t.stem_length() >= n - 1
        assert t.tree_valency(0) == 1


def test_planar_construction_t4():
    for name, n in [("K4", 3), ("K4", 2), ("Theta3", 2), ("Theta4", 2),
                    ("Dumbbell", 2), ("FigB3n3", 2)]:
        g = build_graph(name)
        gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
        t = choose_tree_and_order(gs, n, "planar")
        rep = verify_conditions(t)
        assert rep.ok(), (name, rep.witnesses)
    k4 = choose_tree_and_order(subdivide(build_graph("K4"), 3, "auto")[0], 3,
                               "planar")
    assert len(k4.deleted) == 3


def test_reversed_branches_break_t4():
    # the planar K4 tree with every vertex's children reversed keeps T1-T3
    # but orders two deleted edges against the embedding
    t = k4_pinned_tree()
    children = {t.ids[v]: [t.ids[c] for c in reversed(t.children[v])]
                for v in range(t.nv)}
    rev = OrderedTree(t.graph, t.ids[0], children, "planar")
    rep = verify_conditions(rev)
    assert (rep.t1, rep.t2, rep.t3, rep.t4) == (True, True, True, False)
    assert rep.witnesses == {"t4": ((2, 9), (0, 5))}
    assert not rep.ok()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000))
def test_t4_search_matches_the_pairwise_loop(seed):
    # a random tree with random branch orders, read in planar mode: T4
    # holds on some and fails on others, and the first witness is the same
    t = random_ordered_tree(seed)
    children = {t.ids[v]: [t.ids[c] for c in t.children[v]]
                for v in range(t.nv)}
    planar = OrderedTree(t.graph, t.ids[0], children, "planar")
    rep = verify_conditions(planar)
    assert (rep.t4, rep.witnesses.get("t4")) == reference_t4(planar)


def test_planar_mode_tries_the_mirror_embedding():
    # a diamond with a pendant edge, not subdivided, at n = 1: the outer
    # face walk deletes an edge ending at a valency-3 vertex (T1 fails) on
    # the embedding, and only its mirror image gives a T1-T4 tree
    g = Graph([f"v{i}" for i in range(5)],
              [("a", "v0", "v1"), ("b", "v1", "v2"), ("c", "v0", "v3"),
               ("d", "v1", "v4"), ("e", "v3", "v2"), ("f", "v3", "v1")])
    assert _base_candidates(g) == ["v4"]
    first = verify_conditions(_build_planar(g, "v4", rotation_system(g)))
    assert first.t1 is False and first.witnesses == {"t1": (1, 3)}
    t = choose_tree_and_order(g, 1, "planar")
    assert verify_conditions(t).ok()
    assert t.debug_dump().splitlines() == [
        "0 v4 -1 [1]", "1 v1 0 [2]", "2 v3 1 [3 4]", "3 v2 2 []", "4 v0 2 []",
        "d_1: 1 3", "d_2: 1 4"]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.integers(0, 12),
       st.integers(1, 5), st.sampled_from(["auto", "strict", "uniform", 2, 3]))
def test_one_construction_per_base_succeeds_on_corpus(seed, nv, extra, n,
                                                      policy):
    """Greedy deletions (generic) and the outer face walk (planar) find a
    tree at some base candidate on every subdivided corpus graph.  Generic
    mode takes its first tree unchecked at n = 1, where any spanning tree
    will do."""
    g = random_topological_graph(random.Random(seed), nv, extra)
    try:
        gs, _ = subdivide(g, n, policy)
    except GraphError:
        reject()  # k pieces per edge fall short of the cycle rule
    modes = ("generic", "planar") if is_planar(g) else ("generic",)
    for mode in modes:
        t = choose_tree_and_order(gs, n, mode)
        rep = verify_conditions(t)
        assert (rep.t4 is True) == (mode == "planar")
        if n > 1 or mode == "planar":
            assert rep.ok(), (mode, rep.witnesses)
            assert t.stem_length() >= n - 1 or len(gs.vertices) < n


def test_planar_mode_rejects_nonplanar():
    gs, _ = subdivide(build_graph("K5"), 2, "strict")
    with pytest.raises(TreeError, match="^planar mode needs a planar graph$"):
        choose_tree_and_order(gs, 2, "planar")


def test_t4_implies_planar_agreement():
    # if T1-T4 verify true, the planarity test must agree (quoted equivalence)
    from graphbraids.decompose import is_planar
    for name in ("K4", "Theta4", "Dumbbell"):
        gs, _ = subdivide(build_graph(name), 2, "strict")
        t = choose_tree_and_order(gs, 2, "planar")
        assert verify_conditions(t).ok()
        assert is_planar(gs)


def test_transposed_branches_break_t3():
    # move a branch carrying separated deleted edges ahead of one that
    # does not; brute-force verification must flag T3 with a witness
    t = fig_b3n3_tree()
    g = t.graph
    children = {t.ids[v]: [t.ids[c] for c in t.children[v]] for v in range(t.nv)}
    a = t.ids[2]
    children[a] = [children[a][2]] + [children[a][0], children[a][1], children[a][3]]
    bad = OrderedTree(g, "0", children, "generic")
    rep = verify_conditions(bad)
    assert rep.t3 is False and rep.witnesses["t3"][0] == bad.order[a]


def test_unsuitable_input_rejected():
    g = build_graph("K33")
    with pytest.raises(TreeError):
        choose_tree_and_order(g, 2)  # needs the strict two-edge rule


def test_debug_dump_format():
    t = theta4_pinned_tree()
    lines = t.debug_dump().splitlines()
    assert lines[0] == "0 0 -1 [1]"
    assert lines[-1] == "d_3: 0 5"


def test_pinned_registry():
    assert pinned_tree("K5", 4) is not None
    assert pinned_tree("K5", 3) is None
    k4 = pinned_tree("K4", 3)
    assert k4 is not None
    assert verify_conditions(k4).ok()
    assert k4.deleted == [(0, 8), (0, 9), (2, 7)]


def test_base_candidates_leave_out_cut_vertices():
    # Dumbbell has no tips; its two valency-3 vertices are cut vertices
    assert _base_candidates(build_graph("Dumbbell")) == ["l1", "l2", "r1", "r2"]
