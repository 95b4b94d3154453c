"""Cross-cutting property tests beyond the acceptance corpus."""

import random

from hypothesis import example, given, settings, strategies as st

from graphbraids.corpus import corpus, random_topological_graph
from graphbraids.graphs import (Graph, subdivide, betti1, build_graph,
                                is_planar)
from graphbraids.trees import choose_tree_and_order, verify_conditions
from graphbraids.cells import phi, enumerate_cells
from graphbraids.morse import (build_morse_complex, MorseError, Reducer,
                               morse_boundary, free_reduce, winv, wmul)
from graphbraids.closedforms import check_closed_forms
from graphbraids.homology import homology
from graphbraids.decompose import h1_formula
from graphbraids.present import commutator_form, raw_presentation, simplify
from reference import (classify, exponent_sums, matching, planted_graph,
                       random_ordered_tree, whole_complex)


def test_generic_trees_self_validate_on_corpus():
    for g in corpus(seed=5, count=12):
        for n in (2, 3):
            gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
            t = choose_tree_and_order(gs, n)
            assert verify_conditions(t).ok()
            assert len(t.deleted) == betti1(gs)


def test_matching_is_injective_partial_bijection():
    g = random_topological_graph(random.Random(11), 4, 3)
    gs, _ = subdivide(g, 2, "strict")
    t = choose_tree_and_order(gs, 2)
    cells = enumerate_cells(t, 2, "unordered")
    image = {}
    kinds = {"critical": 0, "redundant": 0, "collapsible": 0}
    for d, cs in cells.items():
        for c in cs:
            kinds[classify(t, c).kind] += 1
            w = matching(t, c)
            if w is not None:
                assert w not in image
                image[w] = c
    assert kinds["redundant"] == kinds["collapsible"] == len(image)


def test_ordered_subscript_rule_n2():
    # the two permutation copies of a critical 2-cell have boundaries that
    # differ exactly by flipping every face's tuple order
    gs, _ = subdivide(build_graph("K33"), 2, "strict")
    t = choose_tree_and_order(gs, 2)
    mc = build_morse_complex(t, 2, "ordered")
    red = Reducer(t, ordered=True)
    flip = lambda cell: (cell[1], cell[0])
    for c2 in mc.critical[2]:
        a = morse_boundary(red, c2)
        b = morse_boundary(red, flip(c2))
        assert b == {flip(c): v for c, v in a.items()}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_morse_homology_is_the_whole_complexs(seed, n, flavor):
    # Forman: the Morse complex over any ordered tree, T2 or not, has the
    # homology of the whole cube complex in every degree, torsion included;
    # the whole complex needs no matching, reducer or rewriting.  These
    # trees give at most about 75,000 cells at n = 3 ordered
    t = random_ordered_tree(seed)
    assert homology(build_morse_complex(t, n, flavor)) == \
        homology(whole_complex(t, n, flavor))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_pure_braid_homology_at_n3_is_the_whole_complexs(seed):
    # the true H_*(P_3) of a corpus graph: every degree, torsion included,
    # where `check` compares the flavors only by rank H_d(B_3) <=
    # rank H_d(P_3).  The largest of these by `estimate_cell_count` over
    # seeds 0-10,000, seed 8093, has 64,488 cells (about 0.5 s)
    gs, _ = subdivide(corpus(seed, 1)[0], 3, "auto")
    t = choose_tree_and_order(gs, 3)
    assert homology(build_morse_complex(t, 3, "ordered")) == \
        homology(whole_complex(t, 3, "ordered"))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """``g`` with its vertices renamed by a random bijection and its vertex
    and edge lists shuffled."""
    names = [f"r{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    new = dict(zip(g.vertices, names))
    vs = [new[v] for v in g.vertices]
    es = [(e.id, new[e.u], new[e.v]) for e in g.edges]
    rng.shuffle(vs)
    rng.shuffle(es)
    return Graph(vs, es)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.sampled_from(
    [(2, "unordered"), (2, "ordered"), (3, "unordered"), (3, "ordered")]))
def test_homology_ignores_vertex_names_and_edge_order(seed, shuffle, setting):
    # the tree and its order are chosen from the names and the edge order,
    # so the Morse complex changes with them; its homology must not
    n, flavor = setting
    g = corpus(seed, 1)[0]

    def h(graph):
        gs, _ = subdivide(graph, n, "strict" if n == 2 else "auto")
        return homology(build_morse_complex(choose_tree_and_order(gs, n), n,
                                            flavor))

    assert h(relabelled(g, random.Random(shuffle))) == h(g)


def test_h0_counts_components():
    # unordered configuration spaces here are connected; the ordered one of
    # a segment is not
    gs, _ = subdivide(build_graph([("a", "b")]), 2, "strict")
    t = choose_tree_and_order(gs, 2)
    mc = build_morse_complex(t, 2, "ordered")
    assert homology(mc)[0].rank == 2
    assert h1_formula(build_graph([("a", "b")]), 2, "P2").rank == 0


def test_formula_matches_on_mini_corpus_n4():
    # the closed form holds for every braid index; spot-check n=4 on tiny graphs
    for g in corpus(seed=9, count=4, max_vertices=3, max_extra=2):
        gs, _ = subdivide(g, 4, "auto")
        t = choose_tree_and_order(gs, 4)
        mc = build_morse_complex(t, 4, "unordered")
        h = homology(mc)[1]
        f = h1_formula(g, 4)
        assert (h.rank, h.torsion) == (f.rank, f.torsion)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1])),
                max_size=8))
def test_word_inverse_cancels(w):
    w = tuple(w)
    assert wmul(w, winv(w)) == ()
    assert free_reduce(free_reduce(w)) == free_reduce(w)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from([1, -1])),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.sampled_from("cd"), st.sampled_from([1, -1])),
                min_size=1, max_size=4))
def test_commutator_form_finds_built_commutators(u, v):
    u, v = free_reduce(tuple(u)), free_reduce(tuple(v))
    if not u or not v:
        return
    w = wmul(u, v, winv(u), winv(v))
    if not w:
        return
    found = commutator_form(w)
    assert found is not None
    fu, fv = found
    assert exponent_sums(wmul(w)) == {}


def test_classic_graphs_cross_validate():
    petersen = build_graph(
        [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
        + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
        + [(f"o{i}", f"i{i}") for i in range(5)])
    wants = [(build_graph("K(2,3)"), 3, ()), (build_graph("K(6)"), 10, (2,)),
             (petersen, 6, (2,))]
    for g, rank, torsion in wants:
        gs, _ = subdivide(g, 2, "strict")
        t = choose_tree_and_order(gs, 2)
        mc = build_morse_complex(t, 2, "unordered")
        check_closed_forms(mc)
        h = homology(mc)[1]
        assert (h.rank, h.torsion) == (rank, torsion)
        f = h1_formula(g, 2)
        assert (f.rank, f.torsion) == (rank, torsion)


def test_subdivide_idempotent_on_corpus():
    for g in corpus(seed=31, count=10):
        for n in (2, 3):
            once, _ = subdivide(g, n, "auto")
            twice, rec = subdivide(once, n, "auto")
            assert rec.replacements == {e.id: [e.id] for e in once.edges}
            assert betti1(once) == betti1(g)


def test_check_matches_for_all_builtins():
    from graphbraids.cli import run
    for name in ("K33", "K4", "K5", "Theta3", "Theta4", "Theta5",
                 "Fig B3n3".replace(" ", ""), "Dumbbell"):
        assert run(["check", "--graph", name, "--n", "2"]) == 0
        assert run(["check", "--graph", name, "--n", "3"]) == 0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6),
       st.sampled_from(["generic", "planar"]))
# critical 2-cells are rare on these trees; seeds 163 and 2831 have 18 at n=4
@example(163, 4, "generic")
@example(2831, 4, "planar")
# critical 3-cells are rarer; seeds 24 and 103 have one at n=6
@example(24, 6, "generic")
@example(103, 6, "planar")
def test_tree_braid_groups_have_zero_morse_boundaries(seed, n, mode):
    """Farley; Farley-Sabalka: on a suitably ordered tree every Morse
    boundary vanishes, so H_i(UD_n T) is free on the critical i-cells.
    Every row is checked, so a reducer fault that leaves a nonzero
    coefficient fails here even where the Euler characteristics agree.

    n runs over 2-6.  On a tree each of the d disjoint edges of a critical
    d-cell is blocked by its own cell vertex on an earlier sibling branch,
    so a critical d-cell needs n >= 2d: degree 3, where d3 reads the
    cubical boundary rather than the words, starts at n = 6."""
    g = random_topological_graph(random.Random(seed), 9, 0)
    assert betti1(g) == 0
    gs, _ = subdivide(g, n, "auto")
    mc = build_morse_complex(choose_tree_and_order(gs, n, mode), n)
    assert all(not row for rows in mc.boundaries.values() for row in rows)
    for d, h in homology(mc).items():
        assert h.to_json() == {"rank": len(mc.critical.get(d, ())),
                               "torsion": []}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_planar_iff_h1_is_torsion_free(seed):
    """The paper's planarity corollary, both ways: a graph is planar iff
    H1(B_n) of the Morse route is torsion-free, at n = 2 (strict) and n = 3
    (auto), on graphs with a K5 or K33 planted two times in three."""
    g = planted_graph(seed)
    planar = is_planar(g)
    for n, policy in ((2, "strict"), (3, "auto")):
        gs, _ = subdivide(g, n, policy)
        h1 = homology(build_morse_complex(choose_tree_and_order(gs, n), n))[1]
        assert (not h1.torsion) == planar


# the known refusal of a P_2 presentation whose two 0-cells no critical
# 1-cell joins (a topological segment in the graph)
NO_JOIN = "no critical 1-cell joins the two 0-cells"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
# at ordered n = 2 the separating contraction of seeds 592 and 2101 stops
# with relators that use a separating generator once only up to conjugation
@example(592)
@example(2101)
def test_relators_are_words_in_commutators(seed):
    """The paper's commutator characteristics on the simplified
    presentations: every relator of B_n (n = 2 strict, n = 3 auto) has all
    exponent sums 0 iff the graph is planar, and so does every relator of
    P_2 over any graph; on a planar graph every nonempty B_2 and P_2
    relator is a single commutator [u, v]."""
    g = planted_graph(seed)
    planar = is_planar(g)
    for n, policy, flavor in ((2, "strict", "unordered"), (3, "auto", "unordered"),
                              (2, "strict", "ordered")):
        gs, _ = subdivide(g, n, policy)
        mc = build_morse_complex(choose_tree_and_order(gs, n), n, flavor)
        try:
            raw = raw_presentation(mc)
        except MorseError as exc:
            if flavor == "ordered" and str(exc) == NO_JOIN:
                continue
            raise
        relators = simplify(raw, mc).relators
        balanced = all(not exponent_sums(r) for r in relators)
        assert balanced == (planar or flavor == "ordered")
        if planar and n == 2:
            assert all(commutator_form(r) is not None for r in relators if r)
