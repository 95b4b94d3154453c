import copy
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from graphbraids import cells as C, morse, present
from graphbraids.cells import format_cell, vertex, boundary_word
from graphbraids.corpus import corpus
from graphbraids.fixtures import (k33_pinned_tree, theta4_pinned_tree,
                                  k5_pinned_tree, k4_pinned_tree, fig_b3n3_tree)
from graphbraids.graphs import BUILTIN_GRAPHS, betti1, build_graph, subdivide
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import (WORDS, Word, build_morse_complex,
                               MorseComplex, MorseError, Reducer,
                               free_reduce, winv, wmul)
from graphbraids.homology import AbelianGroup, homology
from graphbraids.closedforms import check_closed_forms
from graphbraids.present import (cyclic_reduce, raw_presentation, simplify,
                                 commutator_form, format_word, substitute,
                                 Presentation, _leading_pairs)
from reference import (ReferenceReducer, cell_vertices, classify,
                       dense_boundaries, exponent_sums, matching, parse_cell,
                       planted_graph, quadratic_genus, reference_cell_sort_key,
                       int_inverse, reference_classify_1cells,
                       reference_simplify, reference_substitute,
                       unblocked_vertices)


def w(*letters):
    return tuple(letters)


def test_word_ops():
    a, b = ("a", 1), ("b", 1)
    ai, bi = ("a", -1), ("b", -1)
    assert free_reduce(w(a, ai, b)) == w(b)
    assert wmul(w(a, b), w(bi, ai)) == ()
    assert winv(w(a, b)) == w(bi, ai)
    assert cyclic_reduce(w(a, b, ai)) == w(b)
    assert exponent_sums(w(a, b, a, bi)) == {"a": 2}
    # substitute runs on str letters: a = chr(2), a^-1 = chr(3), b = chr(4)
    present._alphabet(2)
    assert substitute("\x02\x04", "\x04", "\x03") == ""


def test_boundary_word_theta4():
    # the square of A_2(1,0,0) u d with d = (0,5)
    c2 = tuple(sorted([(2, 4), (0, 5), vertex(3)]))
    bw = boundary_word(c2)
    assert [(format_cell(c), e) for c, e in bw] == [
        ("{2-4,3,5}", 1), ("{0-5,2,3}", 1), ("{2-4,0,3}", -1),
        ("{0-5,3,4}", -1)]


def test_boundary_word_abelianizes_to_minus_boundary():
    # square identity: the word's abelianization is the cubical boundary
    # up to the global orientation choice
    from graphbraids.cells import boundary, enumerate_cells
    t = k33_pinned_tree()
    for cell in enumerate_cells(t, 2, "unordered")[2]:
        bw = boundary_word(cell)
        ab = {}
        for c, e in bw:
            ab[c] = ab.get(c, 0) + e
        bd = {}
        for c, s in boundary(cell):
            bd[c] = bd.get(c, 0) + s
        assert {k: -v for k, v in ab.items() if v} == \
            {k: v for k, v in bd.items() if v}


def test_rewrite_examples():
    t = theta4_pinned_tree()
    rw = Reducer(t, algebra=WORDS)
    # collapsible dies, critical survives
    coll = parse_cell("{0-1,2,3}")[0]
    assert rw.reduce([(coll, 1)]) == ()
    crit = parse_cell("{2-4,0,3}")[0]
    assert rw.reduce([(crit, 1)]) == ((crit, 1),)
    # the worked relator of the surface example
    mc = build_morse_complex(t, 3, "unordered")
    c2 = tuple(sorted([(2, 4), (0, 5), vertex(3)]))
    rel = rw.reduce(boundary_word(c2))
    names = [(mc.name_of(c), e) for c, e in rel]
    assert names == [("A_2(1,0,1)", 1), ("d_3(2)", 1),
                     ("A_2(1,0,0)", -1), ("d_3(2)", -1)]


def test_rewrite_abelianization_matches_reduction():
    t = theta4_pinned_tree()
    rw = Reducer(t, algebra=WORDS)
    red = Reducer(t)
    from graphbraids.cells import enumerate_cells
    for cell in enumerate_cells(t, 3, "unordered")[1]:
        word = rw.reduce([(cell, 1)])
        ab = {}
        for c, e in word:
            ab[c] = ab.get(c, 0) + e
        assert {k: v for k, v in ab.items() if v} == red.reduce([(cell, 1)])


def test_raw_presentation_counts():
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "unordered")
    p = raw_presentation(mc)
    assert len(p.generators) == 8 and len(p.relators) == 3
    assert p.abelianization() == homology(mc)[1]

    t2 = k33_pinned_tree()
    mc2 = build_morse_complex(t2, 2, "unordered")
    p2 = raw_presentation(mc2)
    assert len(p2.generators) == 7 and len(p2.relators) == 3
    assert p2.abelianization() == homology(mc2)[1]


def test_simplify_theta4_surface():
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "unordered")
    p = simplify(raw_presentation(mc), mc)
    assert len(p.generators) == 6 and len(p.relators) == 1
    rel = p.relators[0]
    assert exponent_sums(rel) == {}
    assert quadratic_genus(rel) == 3
    assert commutator_form(rel) is None
    assert p.abelianization() == homology(mc)[1]
    assert len(p.history) >= 2


def test_simplify_pivotal_moves_preserve_abelianization():
    # replay the history by re-running with a checkpoint after each move
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "unordered")
    p = raw_presentation(mc)
    h1 = homology(mc)[1]
    # simulate: the simplify trace must agree at the end; intermediate
    # states are validated inside test_acceptance at every move
    s = simplify(p, mc)
    assert s.abelianization() == h1


def test_simplify_planar_fixture_counts():
    from graphbraids.decompose import beta2_formula, h1_formula
    for name in ("K4", "Theta3", "Theta4"):
        g = build_graph(name)
        gs, _ = subdivide(g, 2, "strict")
        t = choose_tree_and_order(gs, 2)
        mc = build_morse_complex(t, 2, "unordered")
        p = simplify(raw_presentation(mc), mc)
        assert len(p.generators) == h1_formula(g, 2).rank
        assert len(p.relators) == beta2_formula(g, "B2")


def test_fewest_generators_b4k5():
    # after simplification the generator count is the Z2-rank of H1:
    # six free classes plus the single 2-torsion class
    from graphbraids.fixtures import k5_pinned_tree
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    p = simplify(raw_presentation(mc), mc)
    assert len(p.generators) == 7
    assert p.abelianization() == homology(mc)[1]


def test_dumbbell_commutator():
    g = build_graph("Dumbbell")
    gs, _ = subdivide(g, 2, "strict")
    t = choose_tree_and_order(gs, 2)
    mc = build_morse_complex(t, 2, "unordered")
    p = simplify(raw_presentation(mc), mc)
    assert len(p.generators) == 4 and len(p.relators) == 1
    assert commutator_form(p.relators[0]) is not None
    disp = format_word(p.relators[0], p.names)
    assert disp.startswith("[") and "," in disp


def test_dumbbell_p2_commutators():
    g = build_graph("Dumbbell")
    gs, _ = subdivide(g, 2, "strict")
    t = choose_tree_and_order(gs, 2)
    mc = build_morse_complex(t, 2, "ordered")
    p = simplify(raw_presentation(mc), mc)
    assert len(p.generators) == homology(mc)[1].rank
    assert len(p.relators) == homology(mc)[2].rank == 2
    assert all(commutator_form(r) is not None for r in p.relators)


def test_three_disjoint_cycles_three_commutators():
    # three triangles on a path: every pair of disjoint cycles contributes
    # one commutator relator
    g = build_graph(
        "a0 a1\na1 a2\na2 a0\nb0 b1\nb1 b2\nb2 b0\nc0 c1\nc1 c2\nc2 c0\n"
        "a0 b0\nb1 c0")
    gs, _ = subdivide(g, 2, "strict")
    t = choose_tree_and_order(gs, 2)
    mc = build_morse_complex(t, 2, "unordered")
    check_closed_forms(mc)
    h = homology(mc)
    assert h[1].rank == 7 and h[2].rank == 3
    p = simplify(raw_presentation(mc), mc)
    assert len(p.generators) == 7 and len(p.relators) == 3
    assert all(commutator_form(r) is not None for r in p.relators)


def test_ordered_presentation_kills_joining_generator():
    t = k33_pinned_tree()
    mc = build_morse_complex(t, 2, "ordered")
    p = raw_presentation(mc)
    assert len(mc.critical[1]) == 14 and len(p.generators) == 13
    assert p.history[-1].startswith("kill joining generator ")
    assert p.abelianization() == homology(mc)[1]


def test_commutator_form_examples():
    a, b = ("a", 1), ("b", 1)
    ai, bi = ("a", -1), ("b", -1)
    assert commutator_form((a, b, ai, bi)) == ((a,), (b,))
    assert commutator_form((a, b, ai, b)) is None
    # conjugated commutators are caught after cyclic reduction
    word = wmul((b,), (a, b, ai, bi), (bi,))
    assert commutator_form(word) is not None


def test_quadratic_genus():
    a, b, c, d = (("x", 1), ("y", 1), ("z", 1), ("w", 1))
    inv = lambda l: (l[0], -1)
    torus = (a, b, inv(a), inv(b))
    assert quadratic_genus(torus) == 1
    genus2 = (a, b, inv(a), inv(b), c, d, inv(c), inv(d))
    assert quadratic_genus(genus2) == 2
    sphereish = (a, inv(a))
    assert quadratic_genus(sphereish) == 0
    assert quadratic_genus((a, b, inv(a))) is None
    assert quadratic_genus((a, a)) is None


# ---------------------------------------------------------------------------
# reference implementations: the rewriting homomorphism is its own memoized
# walk over the matching (a redundant 1-cell goes through three faces of its
# square), each move rewrites every relator, and the commutator search tries
# every split


class ReferenceRewriter:
    """Memoized rewriting of 1-cells into words over critical 1-cells, one
    memo entry per cell.  Unordered, it takes the plain shortcut move unless
    ``shortcut`` is False; ordered, it always expands the full square."""

    def __init__(self, tree, ordered: bool = False, shortcut: bool = True):
        self.t = tree
        self.ordered = ordered
        self.shortcut = shortcut
        self.memo: dict = {}

    def _plan(self, cell):
        t = self.t
        cls = classify(t, cell)
        if cls.kind == "critical":
            return "critical", None
        if cls.kind == "collapsible":
            return "collapsible", None
        if self.shortcut and not self.ordered:
            move = self._shortcut(cell)
            if move is not None:
                return "redundant", [(move, 1)]
        v = cls.witness
        w = matching(t, cell, ordered=self.ordered)
        e = next(it for it in cell if it[1] != -1)
        pos_e = list(w).index(e)
        pos_t = list(w).index((t.parent[v], v))

        def face(pos, repl):
            out = list(w)
            out[pos] = C.vertex(repl)
            if not self.ordered:
                out.sort()
            return tuple(out)

        return "redundant", [(face(pos_e, e[1]), 1),
                             (face(pos_t, t.parent[v]), 1),
                             (face(pos_e, e[0]), -1)]

    def _shortcut(self, cell):
        t = self.t
        occupied = set(cell_vertices(cell))
        ends = set()
        for a, b in C.cell_edges(cell):
            ends.add(a)
            ends.add(b)
        for v in sorted(unblocked_vertices(t, cell)):
            lo = t.parent[v]
            if not any(lo < w < v for w in (occupied | ends)):
                out = [C.vertex(lo) if it == (v, -1) else it for it in cell]
                out.sort()
                return tuple(out)
        return None

    def rewrite_cell(self, cell0) -> Word:
        memo = self.memo
        if cell0 in memo:
            return memo[cell0]
        plans: dict = {}
        stack = [(cell0, False)]
        guard = 0
        while stack:
            guard += 1
            if guard > 2_000_000:
                raise MorseError("rewriting iteration cap exceeded (bug)")
            cell, ready = stack.pop()
            if cell in memo:
                continue
            plan = plans.get(cell)
            if plan is None:
                plan = self._plan(cell)
                plans[cell] = plan
            kind, deps = plan
            if kind == "critical":
                memo[cell] = ((cell, 1),)
                continue
            if kind == "collapsible":
                memo[cell] = ()
                continue
            if not ready:
                stack.append((cell, True))
                for f, _ in deps:
                    if f not in memo:
                        stack.append((f, False))
            else:
                memo[cell] = wmul(*[memo[f] if e == 1 else winv(memo[f])
                                    for f, e in deps])
        return memo[cell0]

    def rewrite_word(self, w) -> Word:
        return wmul(*[self.rewrite_cell(g) if e == 1 else winv(self.rewrite_cell(g))
                      for g, e in w])


def reference_rewrite(t, w, ordered: bool = False) -> Word:
    return ReferenceRewriter(t, ordered).rewrite_word(w)



def naive_substitute(w, gen, repl):
    """Replace every letter of gen in the (cell, +-1) word w, then freely
    reduce the whole word."""
    out = []
    for g, e in w:
        if g == gen:
            out.extend(repl if e == 1 else winv(repl))
        else:
            out.append((g, e))
    return free_reduce(tuple(out))


def reference_modified_pivotal_key(mc, cell):
    """The pivotal elimination order read off the cell itself through phi:
    deleted edges outrank tree edges at equal terminal vertex."""
    t = mc.tree
    sc, sigma = C.phi(cell) if mc.ordered else (cell, None)
    e = C.cell_edges(sc)[0]
    base = reference_cell_sort_key(t, sc, sigma)
    mod_edge = (e[0], 1 if e in t.deleted_set else 0, e[1])
    return (base[0], mod_edge) + tuple(base[2:])


def naive_simplify(pres, mc, audit=None):
    """Tietze moves on (cell, +-1) words with no index: every move
    rewrites every relator, and the orders are read off the cells."""
    pres = Presentation(list(pres.generators), list(pres.relators),
                        dict(pres.names), list(pres.moves))
    tags = reference_classify_1cells(mc)
    pairs = _leading_pairs(mc)
    cell2_for_relator = list(mc.critical.get(2, ()))

    def eliminate(gen, rel_idx, why):
        rel = pres.relators[rel_idx]
        hits = [i for i, (g, _) in enumerate(rel) if g == gen]
        if len(hits) != 1:
            return False
        i = hits[0]
        u, e, v = rel[:i], rel[i][1], rel[i + 1:]
        repl = wmul(winv(u), winv(v))
        if e == -1:
            repl = winv(repl)
        pres.relators = [naive_substitute(r, gen, repl)
                         for j, r in enumerate(pres.relators) if j != rel_idx]
        del cell2_for_relator[rel_idx]
        pres.generators.remove(gen)
        pres.moves.append(("eliminate", gen, why))
        if audit is not None:
            audit(pres)
        return True

    pivotal = [g for g in pres.generators
               if tags.get(g) == "pivotal" and g in pairs]
    pivotal.sort(key=lambda g: reference_modified_pivotal_key(mc, g),
                 reverse=True)
    for g in pivotal:
        try:
            rel_idx = cell2_for_relator.index(pairs[g])
        except ValueError:
            continue
        eliminate(g, rel_idx, "pivotal")

    def merge(cyclic):
        """One separating merge, on a relator that uses the generator once
        (after cyclic reduction, when ``cyclic``)."""
        read = cyclic_reduce if cyclic else (lambda r: r)
        seps = [g for g in pres.generators if tags.get(g) == "separating"]
        for g in sorted(seps, key=lambda g: reference_cell_sort_key(
                mc.tree, C.phi(g)[0] if mc.ordered else g,
                C.phi(g)[1] if mc.ordered else None)):
            candidates = [i for i, r in enumerate(pres.relators)
                          if sum(1 for x, _ in read(r) if x == g) == 1]
            if not candidates:
                continue
            rel_idx = min(candidates,
                          key=lambda i: len(read(pres.relators[i])))
            why = "separating merge"
            if cyclic:
                pres.relators[rel_idx] = cyclic_reduce(pres.relators[rel_idx])
                why += ", relator cyclically reduced"
            if eliminate(g, rel_idx, why):
                return True
        return False

    while merge(False) or merge(True):
        pass

    pres.relators = [r for r in pres.relators if r]
    return pres


def reference_commutator_form(w):
    w = cyclic_reduce(w)
    L = len(w)
    if L == 0 or L % 2:
        return None
    for rot in range(L):
        r = w[rot:] + w[:rot]
        for i in range(1, L - 2):
            for j in range(i + 1, L - 1):
                u, v = r[:i], r[i:j]
                if free_reduce(r[j:]) == wmul(winv(u), winv(v)):
                    return free_reduce(u), free_reduce(v)
    return None


K2221 = {"vertices": [f"v{i}" for i in range(7)],
         "edges": [[f"v{a}", f"v{b}"]
                   for a, b in itertools.combinations(range(7), 2)
                   if (a, b) not in ((0, 1), (2, 3), (4, 5))]}


def _generic_complex(g, n, flavor):
    gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
    return build_morse_complex(choose_tree_and_order(gs, n), n, flavor)


def _same_simplification(mc):
    raw = raw_presentation(mc)
    got, want = simplify(raw, mc), naive_simplify(raw, mc)
    assert got.generators == want.generators
    assert got.relators == want.relators
    assert list(got.history) == list(want.history)


@pytest.mark.parametrize("make", [
    lambda: build_morse_complex(k33_pinned_tree(), 2, "unordered"),
    lambda: build_morse_complex(k33_pinned_tree(), 2, "ordered"),
    lambda: build_morse_complex(theta4_pinned_tree(), 3, "unordered"),
    lambda: build_morse_complex(fig_b3n3_tree(), 3, "unordered"),
    lambda: build_morse_complex(k5_pinned_tree(), 4, "unordered"),
    lambda: _generic_complex(build_graph(K2221), 3, "unordered"),
    # a separating generator no relator used once becomes usable after a
    # later merge rewrites one of its relators
    lambda: _generic_complex(build_graph("FigCounterEx"), 2, "ordered"),
    # no relator uses a separating generator once until one is cyclically
    # reduced
    lambda: _generic_complex(planted_graph(592), 2, "ordered"),
], ids=["K33-n2", "K33-n2-ordered", "Theta4-n3", "FigB3n3-n3", "K5-n4",
        "K2221-n3", "FigCounterEx-n2-ordered", "planted592-n2-ordered"])
def test_simplify_matches_reference(make):
    _same_simplification(make())


def test_separating_merge_on_a_cyclically_reduced_relator():
    # P_2 of this non-planar graph: after the plain merges every relator
    # uses the last separating generator 0, 2 or 3 times, but two of them
    # use it once up to conjugation; the merge there leaves as many
    # generators as H1 has rank, so every relator is balanced
    mc = _generic_complex(planted_graph(592), 2, "ordered")
    p = simplify(raw_presentation(mc), mc)
    assert p.history[-1].endswith("(separating merge, relator cyclically "
                                  "reduced)")
    assert all(not exponent_sums(r) for r in p.relators)
    h1 = homology(mc)[1]
    assert (len(p.generators), h1.torsion) == (h1.rank, ())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_simplify_matches_reference_on_corpus(seed, n, flavor):
    if flavor == "ordered":
        n = 2  # ordered n = 1 has its own tests below
    mc = _generic_complex(corpus(seed, 1)[0], n, flavor)
    try:
        _same_simplification(mc)
    except MorseError:
        # a topological segment has no joining generator to kill
        assert flavor == "ordered"


def _same_rewriting(mc):
    squares = [boundary_word(c2, mc.ordered) for c2 in mc.critical.get(2, ())]
    want = [reference_rewrite(mc.tree, w, mc.ordered) for w in squares]
    # the plain shortcut move leaves every word as the full expansion gives it
    full = ReferenceRewriter(mc.tree, mc.ordered, shortcut=False)
    assert [full.rewrite_word(w) for w in squares] == want
    raw = raw_presentation(mc)
    # the generator killed at ordered n = 2, if any
    killed = set(mc.critical.get(1, ())) - set(raw.generators)
    want = [free_reduce(tuple(x for x in r if x[0] not in killed))
            for r in want]
    assert raw.relators == want


@pytest.mark.parametrize("make", [
    lambda: build_morse_complex(k33_pinned_tree(), 2, "unordered"),
    lambda: build_morse_complex(k33_pinned_tree(), 2, "ordered"),
    lambda: build_morse_complex(theta4_pinned_tree(), 3, "unordered"),
    lambda: build_morse_complex(k4_pinned_tree(), 3, "unordered"),
    lambda: _generic_complex(build_graph("Dumbbell"), 2, "unordered"),
], ids=["K33-n2", "K33-n2-ordered", "Theta4-n3", "K4-n3", "Dumbbell-n2"])
def test_raw_presentation_matches_reference_rewriting(make):
    _same_rewriting(make())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_raw_presentation_matches_reference_rewriting_on_corpus(seed, n, flavor):
    if flavor == "ordered":
        n = 2  # ordered n = 1 has its own tests below
    mc = _generic_complex(corpus(seed, 1)[0], n, flavor)
    try:
        _same_rewriting(mc)
    except MorseError:
        # a topological segment has no joining generator to kill
        assert flavor == "ordered"


def _same_d2_three_ways(mc):
    """For every critical 2-cell: the build's d2 row, the reference chain
    reduction of its cubical boundary (no shortcut moves), and minus the
    exponent sums of its relator word are one row."""
    lower = mc.index.get(1, {})
    cells2 = mc.critical.get(2, [])
    assert len(mc.relators) == len(cells2)
    chains = ReferenceReducer(mc.tree, mc.ordered)
    for c2, built, word in zip(cells2, dense_boundaries(mc).get(2, []),
                               mc.relators):
        fresh = [0] * len(lower)
        for c, x in chains.morse_boundary(c2).items():
            fresh[lower[c]] = x
        sums = [0] * len(lower)
        for c, x in exponent_sums(word).items():
            sums[lower[c]] = -x
        assert built == fresh == sums


@pytest.mark.parametrize("make", [
    lambda: build_morse_complex(k33_pinned_tree(), 2, "unordered"),
    lambda: build_morse_complex(k33_pinned_tree(), 2, "ordered"),
    lambda: build_morse_complex(theta4_pinned_tree(), 3, "unordered"),
    lambda: build_morse_complex(k5_pinned_tree(), 4, "unordered"),
    lambda: _generic_complex(build_graph(K2221), 3, "unordered"),
    lambda: build_morse_complex(k33_pinned_tree(), 3, "ordered"),
    lambda: build_morse_complex(theta4_pinned_tree(), 3, "ordered"),
    # the benchmark's ordered rung: words of non-identity labellings
    lambda: _generic_complex(build_graph("K(3,4)"), 3, "ordered"),
], ids=["K33-n2", "K33-n2-ordered", "Theta4-n3", "K5-n4", "K2221-n3",
        "K33-n3-ordered", "Theta4-n3-ordered", "K34-n3-ordered"])
def test_d2_from_words_matches_chain_reduction(make):
    _same_d2_three_ways(make())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_d2_from_words_matches_chain_reduction_on_corpus(seed, n, flavor):
    _same_d2_three_ways(_generic_complex(corpus(seed, 1)[0], n, flavor))


def test_relators_only_where_a_presentation_is_read():
    # ordered n = 3 keeps its relator words, but P_3 has no presentation here
    mc = build_morse_complex(k33_pinned_tree(), 3, "ordered")
    assert len(mc.relators) == len(mc.critical[2]) > 0
    with pytest.raises(MorseError, match="need n <= 2"):
        raw_presentation(mc)
    mc = build_morse_complex(theta4_pinned_tree(), 3, "unordered")
    check_closed_forms(mc)
    assert len(mc.relators) == len(mc.critical[2]) > 0


# ordered n = 1: D_1 = UD_1 is the graph, so P_1 = B_1 = pi_1 of the graph,
# free of rank beta_1, with every name subscripted by the identity

def _check_ordered_n1(g):
    t = choose_tree_and_order(subdivide(g, 1, "auto")[0], 1)
    po = build_morse_complex(t, 1, "ordered")
    bo = build_morse_complex(t, 1, "unordered")
    for simplified in (False, True):
        p, b = raw_presentation(po), raw_presentation(bo)
        if simplified:
            p, b = simplify(p, po), simplify(b, bo)
        assert len(p.generators) == len(b.generators)
        assert p.relators == b.relators
        assert p.abelianization() == b.abelianization() == \
            AbelianGroup(betti1(g))
        assert all(p.names[c] == b.names[c] + "_id" for c in p.generators)


@pytest.mark.parametrize("name", sorted(BUILTIN_GRAPHS))
def test_ordered_n1_presentation_is_the_unordered_one(name):
    _check_ordered_n1(build_graph(name))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_ordered_n1_presentation_is_the_unordered_one_on_corpus(seed):
    _check_ordered_n1(corpus(seed, 1)[0])


@pytest.mark.parametrize("make", [
    lambda: build_morse_complex(theta4_pinned_tree(), 3, "unordered"),
    # separating merges as well as pivotal moves
    lambda: _generic_complex(build_graph(K2221), 3, "unordered"),
], ids=["Theta4-n3", "K2221-n3"])
def test_simplify_audits_every_move_without_touching_its_input(make):
    mc = make()
    raw = raw_presentation(mc)
    before = copy.deepcopy(raw)
    seen, want = [], []
    got = simplify(raw, mc, audit=lambda p: seen.append(
        (list(p.generators), list(p.relators), list(p.history))))
    naive_simplify(raw, mc, audit=lambda p: want.append(
        (list(p.generators), list(p.relators), list(p.history))))
    assert len(seen) == len(got.history) - len(raw.history) > 0
    assert seen == want
    assert vars(raw) == vars(before)


@pytest.mark.parametrize("make", [
    lambda: build_morse_complex(k33_pinned_tree(), 2, "unordered"),
    lambda: build_morse_complex(k33_pinned_tree(), 2, "ordered"),
], ids=["K33-n2", "K33-n2-ordered"])
def test_deep_copies_keep_their_names(make):
    mc = make()
    raw = raw_presentation(mc)
    mc_copy, raw_copy = copy.deepcopy(mc), copy.deepcopy(raw)
    assert [mc_copy.name_of(c) for c in mc.critical[1]] == \
        [mc.name_of(c) for c in mc.critical[1]]
    assert dict(raw_copy.names) == dict(raw.names)
    assert simplify(raw_copy, mc_copy).display() == simplify(raw, mc).display()


# ---------------------------------------------------------------------------
# a job formats only the names it reads

def _check_formats_only_what_it_reads(make):
    """raw_presentation and simplify name no cell: neither
    `name_critical_cell` nor `MorseComplex.name_of` runs.  display() then
    formats the name of each generator it shows and of each move's
    generator once, and equals the display and history of eagerly
    formatted names."""
    named, formatted = [], []
    name = morse.name_critical_cell
    name_of = MorseComplex.name_of
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morse, "name_critical_cell",
                   lambda t, c: named.append(c) or name(t, c))
        mp.setattr(MorseComplex, "name_of",
                   lambda self, c: formatted.append(c) or name_of(self, c))
        mc = make()
        raw = raw_presentation(mc)
        out = simplify(raw, mc)
        assert named == formatted == []
        shown = out.display()
        moved = [g for _, g, _ in out.moves]
        assert len(formatted) == len(set(formatted))
        assert set(formatted) == set(out.generators) | set(moved)
        assert set(named) == {mc.orbit(c)[0] for c in formatted}
        assert len(named) == len(set(named))
    assert len(out.history) == len(moved)
    eager = {c: mc.name_of(c) for c in mc.critical.get(1, ())}
    assert shown == Presentation(out.generators, out.relators, eager,
                                 out.moves).display()
    want = naive_simplify(Presentation(raw.generators, raw.relators,
                                           eager, raw.moves), mc)
    assert list(out.history) == list(want.history)


@pytest.mark.parametrize("make", [
    lambda: build_morse_complex(k5_pinned_tree(), 4, "unordered"),
    lambda: build_morse_complex(k33_pinned_tree(), 2, "ordered"),
    lambda: _generic_complex(build_graph(K2221), 3, "unordered"),
    lambda: _generic_complex(build_graph("K(3,4)"), 2, "ordered"),
], ids=["K5-n4", "K33-n2-ordered", "K2221-n3", "K34-n2-ordered"])
def test_a_job_formats_only_the_names_it_reads(make):
    _check_formats_only_what_it_reads(make)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(
    [(2, "unordered"), (2, "ordered"), (3, "unordered")]))
def test_a_job_formats_only_the_names_it_reads_on_corpus(seed, setting):
    n, flavor = setting
    try:
        _check_formats_only_what_it_reads(
            lambda: _generic_complex(corpus(seed, 1)[0], n, flavor))
    except MorseError as exc:
        # a topological segment has no joining generator to kill
        assert flavor == "ordered" and "joins the two 0-cells" in str(exc)


def test_simplify_rewrites_relators_that_lost_a_generator(monkeypatch):
    """The generator index only grows, so it may still list a relator
    under a generator whose letters all cancelled out of it by an earlier
    move.  Eliminating that generator rewrites the relator unchanged; on
    K(2,2,2,1) n=3 this happens, and the result is still the reference's."""
    stale = []

    def spy(w, gen, repl, inv=None):
        out = substitute(w, gen, repl, inv)
        if gen not in w and chr(ord(gen) + 1) not in w:
            assert out == w
            stale.append(gen)
        return out

    monkeypatch.setattr(present, "substitute", spy)
    _same_simplification(_generic_complex(build_graph(K2221), 3, "unordered"))
    assert stale


letters = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1]))
# a, b, c are generators 1, 2, 3: the letters chr(2 i) and chr(2 i + 1)
LETTER = {chr(2 * i + (e < 0)): (g, e)
          for i, g in enumerate("abc", 1) for e in (1, -1)}
CODE = {x: c for c, x in LETTER.items()}
present._alphabet(4)


def encode(w):
    return "".join(CODE[x] for x in w)


def decode(w):
    return tuple(LETTER[x] for x in w)


@settings(max_examples=200, deadline=None)
@given(st.lists(letters, max_size=12), st.sampled_from("abc"),
       st.lists(letters, max_size=5))
def test_substitute_matches_reference(w, gen, repl):
    w = free_reduce(tuple(w))
    repl = free_reduce(tuple(x for x in repl if x[0] != gen))
    want = naive_substitute(w, gen, repl)
    got = substitute(encode(w), CODE[gen, 1], encode(repl))
    assert decode(got) == want
    got = substitute(encode(w), CODE[gen, 1], encode(repl),
                     encode(winv(repl)))
    assert decode(got) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(letters, max_size=12),
       st.lists(st.tuples(st.sampled_from("abc"), st.lists(letters, max_size=5),
                          st.booleans()), max_size=4))
def test_substitute_chain_matches_reference(w, moves):
    # moves applied one after another, as Tietze elimination does: each
    # output is the next input, so it must stay freely reduced
    want = free_reduce(tuple(w))
    got = encode(want)
    for gen, repl, pass_inv in moves:
        repl = free_reduce(tuple(x for x in repl if x[0] != gen))
        want = naive_substitute(want, gen, repl)
        inv = encode(winv(repl)) if pass_inv else None
        got = substitute(got, CODE[gen, 1], encode(repl), inv)
        assert decode(got) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(letters, max_size=12), st.lists(letters, max_size=4),
       st.lists(letters, max_size=4), st.lists(letters, max_size=3))
def test_commutator_form_matches_reference(w, u, v, c):
    u, v, c = tuple(u), tuple(v), tuple(c)
    built = wmul(c, u, v, winv(u), winv(v), winv(c))
    for word in (tuple(w), built, built + tuple(w[:1])):
        assert commutator_form(word) == reference_commutator_form(word)


# ---------------------------------------------------------------------------
# str letters against the signed-integer letters they replaced

def _same_as_integer_letters(mc):
    raw = raw_presentation(mc)
    for audited in (False, True):
        seen, want = [], []

        def hook(log):
            return lambda p: log.append(
                (list(p.generators), list(p.relators), list(p.moves)))

        got = simplify(raw, mc, audit=hook(seen) if audited else None)
        ref = reference_simplify(raw, mc,
                                 audit=hook(want) if audited else None)
        assert got.generators == ref.generators
        assert got.relators == ref.relators
        assert got.moves == ref.moves
        assert seen == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(
    [(1, "unordered"), (2, "unordered"), (3, "unordered"), (2, "ordered")]))
def test_simplify_equals_the_integer_letter_reference_on_corpus(seed, setting):
    n, flavor = setting
    try:
        _same_as_integer_letters(
            _generic_complex(corpus(seed, 1)[0], n, flavor))
    except MorseError as exc:
        # a topological segment has no joining generator to kill
        assert flavor == "ordered" and "joins the two 0-cells" in str(exc)


# generators 1..4 as signed integers: x > 0 is chr(2 x), -x is chr(2 x + 1)
SIGNED = [1, -1, 2, -2, 3, -3, 4, -4]


def str_word(w):
    return "".join(chr(2 * abs(x) + (x < 0)) for x in w)


def int_word(s):
    return tuple((ord(c) >> 1) * (-1 if ord(c) & 1 else 1) for c in s)


def int_reduce(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@st.composite
def substitutions(draw):
    """(w, gen, repl): freely reduced words, repl free of gen.  Besides
    random words, the kinds are an empty repl; a repl whose first and last
    letters are inverses, between copies of gen, so repl|repl seams cancel;
    and t repl^-1 gen t^-1, where the cancellation runs through the whole
    replacement into the run after it."""
    gen = draw(st.integers(1, 4))
    others = st.sampled_from([x for x in SIGNED if abs(x) != gen])
    kind = draw(st.sampled_from(["random", "empty", "inverse ends",
                                 "through"]))
    repl = int_reduce(draw(st.lists(others, max_size=6)))
    if kind == "empty":
        repl = ()
    elif kind == "inverse ends":
        x = draw(others)
        repl = int_reduce((x,) + repl + (-x,))
    sign = draw(st.sampled_from([1, -1]))
    runs = draw(st.lists(st.lists(others, max_size=4), min_size=1,
                         max_size=5))
    w = []
    for run in runs:
        w += run
        w += [sign * gen] * draw(st.integers(0, 2))
    if kind == "through":
        t = tuple(draw(st.lists(others, min_size=1, max_size=4)))
        w = list(t + int_inverse(repl) + (gen,) + int_inverse(t)) + w
    return int_reduce(w), gen, repl


@settings(max_examples=400, deadline=None)
@given(substitutions())
@example(((1, 2, -1), 2, ()))
@example(((2, 2, 2), 2, (1, 3, -1)))
@example(((3, -1, 2, -3, 4), 2, (1,)))
def test_substitute_equals_the_integer_letter_reference(case):
    w, gen, repl = case
    want = reference_substitute(w, gen, repl)
    got = substitute(str_word(w), chr(2 * gen), str_word(repl))
    assert int_word(got) == want
    got = substitute(str_word(w), chr(2 * gen), str_word(repl),
                     str_word(int_inverse(repl)))
    assert int_word(got) == want


def test_the_alphabet_ends_at_the_last_code_point():
    last = present.MAX_GENERATORS
    assert chr(2 * last + 1) == chr(0x10FFFF)
    with pytest.raises(ValueError):
        chr(2 * (last + 1))
