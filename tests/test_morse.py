import inspect
import re
import sys
import time
from itertools import permutations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from graphbraids import cells as C, morse
from graphbraids.cells import enumerate_cells, format_cell, phi, vertex
from graphbraids.corpus import corpus
from graphbraids.fixtures import (k33_pinned_tree, k5_pinned_tree,
                                  theta4_pinned_tree, fig_b3n3_tree,
                                  pinned_tree)
from graphbraids.graphs import BUILTIN_GRAPHS, build_graph, subdivide
from graphbraids.homology import homology
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import (WORDS, CriticalName, Reducer, Term,
                               morse_boundary, build_morse_complex,
                               name_critical_cell, edge_cell, format_name,
                               MorseError, cell_sort_key)
from graphbraids.closedforms import check_closed_forms, fast_morse_boundary
from reference import (ReferenceReducer, assert_chain_complex, bare_fill,
                       dense_boundaries, matched_cell, materialize_name,
                       parse_cell, per_labelling_complex, random_ordered_tree,
                       reference_classify, reference_name, solved_out,
                       step_shortcut_end)


def chain_by_name(mc, chain):
    return {mc.name_of(c): v for c, v in chain.items()}


def chain_by_cell(chain, ordered=False):
    return {format_cell(c, ordered): v for c, v in chain.items()}


# ---------------------------------------------------------------------------
# the warm-up reductions on K33

def test_reduce_examples_k33():
    t = k33_pinned_tree()
    red = Reducer(t)
    c = parse_cell("{1-5,3}")[0]
    assert chain_by_cell(red.reduce([(c, 1)])) == {"{1-5,2}": 1}
    c = parse_cell("{0-3,5}")[0]
    assert chain_by_cell(red.reduce([(c, 1)])) == {"{2-4,3}": 1, "{0-3,1}": 1}
    crit = parse_cell("{2-4,3}")[0]
    assert red.reduce([(crit, 1)]) == {crit: 1}


def _check_plan(red, cell, plan):
    """A plan of ``red`` against the references: its kind is
    `reference_classify`'s; a redundant cell slides to `step_shortcut_end`
    when that moves a vertex, and is otherwise solved out of the relation of
    its `matched_cell`.  Returns the slide's end, or None."""
    t, ordered = red.t, red.ordered
    kind, deps = plan
    want = reference_classify(t, cell)
    assert kind == want.kind
    if kind != "redundant":
        assert deps is None
        return None
    end = step_shortcut_end(t, cell, ordered)
    if end is not None:
        assert deps == [(end, 1)]
    else:
        matched = matched_cell(t, cell, want.witness, ordered)
        assert list(deps) == solved_out(red.algebra.relation(matched, ordered),
                                        cell)
    return end


def _recorded_plans(red):
    """The (cell, plan) pairs ``red`` makes from now on."""
    plans = []
    plan = red._plan
    red._plan = lambda cell: plans.append((cell, plan(cell))) or plans[-1][1]
    return plans


def test_reduce_shortcut_equals_naive():
    t = k33_pinned_tree()
    red, naive = Reducer(t), ReferenceReducer(t)
    plans = _recorded_plans(red)
    for s in ("{0-3,1-5}", "{0-4,1-5}", "{0-4,3-5}"):
        c = parse_cell(s)[0]
        assert morse_boundary(red, c) == naive.morse_boundary(c)
    ends = [_check_plan(red, c, p) for c, p in plans]
    assert any(e is not None for e in ends)  # the shortcut move was taken


def test_morse_boundary_k33():
    t = k33_pinned_tree()
    red = Reducer(t)
    c = parse_cell("{0-3,1-5}")[0]
    assert chain_by_cell(morse_boundary(red, c)) == \
        {"{1-5,2}": -1, "{1-5,0}": 1, "{2-4,3}": 1}


def test_morse_boundary_ordered_k33():
    t = k33_pinned_tree()
    red = Reducer(t, ordered=True)
    c = parse_cell("(0-3,1-5)")[0]
    assert chain_by_cell(morse_boundary(red, c), True) == \
        {"(2,1-5)": -1, "(0,1-5)": 1, "(3,2-4)": 1}
    # subscript rule: the sigma-copy is the id-copy with subscripts flipped
    c_sigma = parse_cell("(1-5,0-3)")[0]
    out = chain_by_cell(morse_boundary(red, c_sigma), True)
    assert out == {"(1-5,2)": -1, "(1-5,0)": 1, "(2-4,3)": 1}
    # R((1,3)_sigma) = (0,1)_sigma
    assert chain_by_cell(red.reduce([(((3, -1), (1, -1)), 1)]), True) == \
        {"(1,0)": 1}


def test_critical_counts():
    cases = [
        (k33_pinned_tree(), 2, "unordered", {0: 1, 1: 7, 2: 3}),
        (k33_pinned_tree(), 2, "ordered", {0: 2, 1: 14, 2: 6}),
        (theta4_pinned_tree(), 3, "unordered", {0: 1, 1: 8, 2: 3}),
    ]
    for t, n, flavor, want in cases:
        mc = build_morse_complex(t, n, flavor)
        got = {d: len(v) for d, v in mc.critical.items() if v}
        assert got == want
        assert_chain_complex(mc)


def test_corrupt_boundary_raises():
    mc = build_morse_complex(k33_pinned_tree(), 2, "unordered")
    d2 = mc.boundaries[2]
    j = next(j for row in d2 for j in row)
    row = mc.boundaries[1][j]
    row[0] = row.get(0, 0) + 1
    with pytest.raises(AssertionError, match="d o d"):
        assert_chain_complex(mc)


def test_missing_matched_face_raises(monkeypatch):
    from graphbraids import cells
    t = k33_pinned_tree()
    red = Reducer(t)
    # the end 3 of edge 0-3 sits between vertex 4 and its parent 2, so no
    # shortcut move applies and the matched cell's boundary is read
    cell = parse_cell("{0-3,4}")[0]
    assert step_shortcut_end(t, cell) is None
    assert _check_plan(red, cell, red._plan(cell)) is None
    monkeypatch.setattr(cells, "boundary", lambda cell, ordered=False: [])
    with pytest.raises(MorseError, match="matched face"):
        red._plan(cell)
    with pytest.raises(MorseError, match="matched face"):
        red.reduce([(cell, 1)])


@pytest.mark.parametrize("make,n,depth", [
    pytest.param(make, n, depth, id=f"{make.__name__}-{n}"
                 + (f"-DEPTH{depth}" if depth else ""))
    for make, n in [(k33_pinned_tree, 2), (theta4_pinned_tree, 3)]
    for depth in (None, 1, 2)])
@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_each_reduced_cell_is_classified_once(make, n, depth, flavor,
                                              monkeypatch):
    # at DEPTH 1 or 2 nearly every cell restarts its term, and the plans
    # of the frames a restart unwinds are kept, not made again
    if depth:
        monkeypatch.setattr(morse, "DEPTH", depth)
    t = make()
    mc = build_morse_complex(t, n, flavor)
    red = Reducer(t, ordered=flavor == "ordered")
    plans = _recorded_plans(red)
    for cell in mc.critical[2]:
        morse_boundary(red, cell)
    planned = [c for c, _ in plans]
    assert len(set(planned)) == len(planned) == len(red.memo) > 0
    assert set(planned) == red.memo.keys()


def test_a_cyclic_reduction_is_refused():
    # a slides to b and b to a: the walk must name the cycle, not loop
    t = k33_pinned_tree()
    a, b = parse_cell("{0,5}")[0], parse_cell("{0,1}")[0]
    red = Reducer(t)
    red._plan = lambda cell: ("redundant", [(b if cell == a else a, 1)])
    start = time.perf_counter()
    with pytest.raises(MorseError, match="cyclic reduction dependency"):
        red.reduce([(a, 1)])
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("length", [2, 3])
def test_a_cycle_is_refused_at_any_depth(monkeypatch, depth, length):
    # a critical term reduced first, then one that reaches a cycle of
    # ``length`` slides after one step, restarting every ``depth`` levels
    monkeypatch.setattr(morse, "DEPTH", depth)
    red = Reducer(k33_pinned_tree())
    crit, head, *ring = [((v, -1),) for v in range(length + 2)]
    succ = {head: ring[0], **{c: ring[(i + 1) % length]
                              for i, c in enumerate(ring)}}
    red._plan = lambda cell: (("critical", None) if cell == crit
                              else ("redundant", [(succ[cell], 1)]))
    with pytest.raises(MorseError, match="cyclic reduction dependency"):
        red.reduce([(crit, 1), (head, 1)])
    assert red.memo == {crit: {crit: 1}}


def test_a_reduction_far_deeper_than_depth_keeps_a_bounded_stack():
    # a chain of 1,000 matched cells, each solved out of the next with
    # coefficient -1, reduces under a recursion limit of 2 * DEPTH frames
    # (plus slack) above this one, each cell planned once
    length = 1_000
    red = Reducer(k33_pinned_tree())
    planned = []

    def plan(i):
        planned.append(i)
        return ("critical", None) if i == length else ("redundant",
                                                      [(i + 1, -1)])

    red._plan = plan
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 2 * morse.DEPTH + 20)
    try:
        assert red.reduce([(0, 1)]) == {length: 1}
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(planned) == list(range(length + 1))
    assert len(red.memo) == length + 1


def test_slide_plans_only_the_ends_of_a_run():
    # on the K33 tree the vertex 5 slides through 4 and 2 to 1, where the
    # vertex 0 stops it: three steps, one plan
    t = k33_pinned_tree()
    start, end = parse_cell("{0,5}")[0], parse_cell("{0,1}")[0]
    red = Reducer(t)
    planned = []
    plan = red._plan
    red._plan = lambda cell: planned.append(cell) or plan(cell)
    assert red.reduce([(start, 1)]) == {end: 1}
    assert planned == [start, end]
    assert red.memo.keys() == {start, end}


def _check_slide_matches_steps(t, n, flavor):
    """Every plan the build makes agrees with the references: the slide's
    end is the iterated one-step move's on every redundant cell.  Returns
    the ends of the slides taken."""
    planned = []
    plan = Reducer._plan

    def recorded(self, cell):
        planned.append((self, cell, plan(self, cell)))
        return planned[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Reducer, "_plan", recorded)
        build_morse_complex(t, n, flavor)
    ends = [_check_plan(red, c, p) for red, c, p in planned]
    return [e for e in ends if e is not None]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_slide_matches_steps_on_corpus(seed, n, flavor):
    _check_slide_matches_steps(_tree(corpus(seed, 1)[0], n), n, flavor)


def test_slide_matches_steps_k5_n4():
    assert _check_slide_matches_steps(k5_pinned_tree(), 4, "unordered")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_plan_matches_references_on_random_trees(seed, n, flavor):
    """Every cell of the complex, planned in chains and (1-cells, whose
    matched cells are squares) in words, against the references; about
    half of these trees fail T2."""
    t = random_ordered_tree(seed)
    ordered = flavor == "ordered"
    red, words = Reducer(t, ordered), Reducer(t, ordered, algebra=WORDS)
    for d, cs in enumerate_cells(t, n, flavor).items():
        for cell in cs:
            _check_plan(red, cell, red._plan(cell))
            if d == 1:
                _check_plan(words, cell, words._plan(cell))


def _build_and_memo_keys(t, n, flavor):
    """The Morse complex and the memo keys of each reducer its build made."""
    made = []

    class Recorded(Reducer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morse, "Reducer", Recorded)
        mc = build_morse_complex(t, n, flavor)
    return mc, [red.memo.keys() for red in made]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4),
       st.sampled_from(["unordered", "ordered"]), st.sampled_from([1, 2, 3]))
def test_restarts_change_no_build_on_random_trees(seed, n, flavor, depth):
    """Recursing `depth` levels between restarts builds what the default
    `DEPTH` builds, and memoizes the same cells."""
    t = random_ordered_tree(seed)
    want, want_keys = _build_and_memo_keys(t, n, flavor)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morse, "DEPTH", depth)
        got, got_keys = _build_and_memo_keys(t, n, flavor)
    assert got.critical == want.critical
    assert got.boundaries == want.boundaries
    assert got.relators == want.relators
    assert got_keys == want_keys


def test_k5_n4_boundaries_match_reference_reducer():
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    ref = ReferenceReducer(t)
    assert mc.critical[2] and mc.critical[3]
    for d in (2, 3):
        faces = mc.critical[d - 1]
        for c, row in zip(mc.critical[d], mc.boundaries[d]):
            assert {faces[j]: x for j, x in row.items()} == \
                ref.morse_boundary(c)


def test_k33_critical_cells_known_values():
    t = k33_pinned_tree()
    mc = build_morse_complex(t, 2, "unordered")
    ones = {format_cell(c) for c in mc.critical[1]}
    assert ones == {"{0-3,1}", "{0-4,1}", "{0-4,5}", "{1-5,0}", "{1-5,2}",
                    "{2-4,3}", "{3-5,0}"}
    twos = {format_cell(c) for c in mc.critical[2]}
    assert twos == {"{0-3,1-5}", "{0-4,1-5}", "{0-4,3-5}"}


def test_euler_characteristic_preserved():
    for t, n, flavor in [(k33_pinned_tree(), 2, "unordered"),
                         (k33_pinned_tree(), 2, "ordered"),
                         (theta4_pinned_tree(), 3, "unordered"),
                         (theta4_pinned_tree(), 3, "ordered"),
                         (fig_b3n3_tree(), 3, "unordered")]:
        mc = build_morse_complex(t, n, flavor)
        assert mc.euler_characteristic() == mc.full_euler_characteristic()


def test_theta4_counts_and_chi():
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "unordered")
    check_closed_forms(mc)
    assert [len(mc.critical[d]) for d in (0, 1, 2)] == [1, 8, 3]
    assert mc.euler_characteristic() == -4
    mco = build_morse_complex(t, 3, "ordered")
    assert mco.euler_characteristic() == -24


# ---------------------------------------------------------------------------
# the closed formulas on the K5 tree (worked examples)

def test_fast_boundary_worked_example_tree_edge():
    # boundary of B_3(1,0,1) u d_2 = B_3(1,0,1) - B_3(1,1,1) + B_3(0,1,1)
    t = k5_pinned_tree()
    cell = tuple(sorted([(11, 16), (0, 15), vertex(12), vertex(17)]))
    nm = name_critical_cell(t, cell)
    assert format_name(t, nm) == "B_3(1,0,1) ∪ d_2"
    out = fast_morse_boundary(t, cell)
    mc_names = {}
    for c, v in out.items():
        mc_names[format_name(t, name_critical_cell(t, c), c)] = v
    assert mc_names == {"B_3(1,0,1)": 1, "B_3(1,1,1)": -1, "B_3(0,1,1)": 1}
    assert out == morse_boundary(Reducer(t), cell)


def test_fast_boundary_worked_example_two_deleted():
    # boundary of d_6(0,1) u d_4 = d_6(0,1) - d_6(0,2) + wedge(d_6, d_4)
    t = k5_pinned_tree()
    cell = tuple(sorted([(6, 20), (3, 13), vertex(9), vertex(0)]))
    nm = name_critical_cell(t, cell)
    assert format_name(t, nm) == "d_6(0,1) ∪ d_4"
    out = fast_morse_boundary(t, cell)
    names = {format_name(t, name_critical_cell(t, c), c): v
             for c, v in out.items()}
    assert names == {"d_6(0,1)": 1, "d_6(0,2)": -1, "B_3(1,0,0)": 1}
    assert out == morse_boundary(Reducer(t), cell)


def test_fast_zero_cases():
    t = k5_pinned_tree()
    # two tree edges always die
    cell = tuple(sorted([(6, 9), (11, 16), vertex(7), vertex(12)]))
    assert fast_morse_boundary(t, cell) == {}
    # a deleted edge not separated by the tree edge's vertex dies too
    cell = tuple(sorted([(18, 23), (0, 8), vertex(19), vertex(21)]))
    assert fast_morse_boundary(t, cell) == {}
    assert morse_boundary(Reducer(t), cell) == {}


def test_fast_matches_generic_everywhere_k5():
    t = k5_pinned_tree()
    check_closed_forms(build_morse_complex(t, 4, "unordered"))


def test_fast_requires_conditions():
    t = k33_pinned_tree()  # T1/T2 fail here
    with pytest.raises(MorseError, match="T1-T3"):
        check_closed_forms(build_morse_complex(t, 2, "unordered"))
    with pytest.raises(MorseError, match="ordered n >= 3"):
        check_closed_forms(build_morse_complex(theta4_pinned_tree(), 3,
                                               "ordered"))


def test_fast_ordered_n2():
    gs, _ = subdivide(build_graph("K33"), 2, "strict")
    t = choose_tree_and_order(gs, 2)
    check_closed_forms(build_morse_complex(t, 2, "ordered"))
    gs5, _ = subdivide(build_graph("K5"), 2, "strict")
    t5 = choose_tree_and_order(gs5, 2)
    check_closed_forms(build_morse_complex(t5, 2, "ordered"))


@pytest.mark.parametrize("path", ["fast", "both"])
def test_generic_is_the_only_path(path):
    with pytest.raises(MorseError, match="unknown path"):
        build_morse_complex(k33_pinned_tree(), 2, "unordered", path=path)


def test_dependence_on_lower_vector():
    # boundary of A_k(a) u d'(b) is independent of b
    t = k5_pinned_tree()
    red = Reducer(t)
    with_b = tuple(sorted([(6, 20), (3, 13), vertex(9), vertex(4)]))
    without = tuple(sorted([(6, 20), (3, 13), vertex(9), vertex(0)]))
    nm = name_critical_cell(t, with_b)
    assert nm.terms[1].vec != nm.terms[0].vec or True
    a = morse_boundary(red, with_b)
    b = morse_boundary(red, without)
    assert a == b


def test_leading_coefficient():
    # when the boundary is nonzero its largest summand is the size-(s+1)
    # cell over the same edge with coefficient -1
    for t, n in [(k5_pinned_tree(), 4), (theta4_pinned_tree(), 3)]:
        mc = build_morse_complex(t, n, "unordered")
        for row, c2 in zip(dense_boundaries(mc)[2], mc.critical[2]):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            lead = min(nz)
            assert row[lead] == -1
            name2 = name_critical_cell(t, c2)
            name1 = name_critical_cell(t, mc.critical[1][lead])
            hi = name2.terms[0]
            assert name1.terms[0].edge == hi.edge
            assert sum(name1.terms[0].vec) == sum(hi.vec) + 1


def test_staircase_sum_tail_property():
    # the staircase reduction only depends on the vector entries above the
    # target branch: bold_A(a, l) = bold_A(b, l) whenever a_m = b_m for m > l
    from graphbraids.closedforms import bold_A
    from itertools import product
    t = k5_pinned_tree()
    n = 4
    for a_vertex in (11, 18):
        mu = t.branch_count(a_vertex)
        vecs = [v for v in product(range(3), repeat=mu) if 1 <= sum(v) <= n - 2]
        for ell in range(1, mu + 1):
            for a in vecs:
                for b in vecs:
                    if a[ell:] == b[ell:]:
                        assert bold_A(t, a_vertex, a, ell, n) == \
                            bold_A(t, a_vertex, b, ell, n), (a, b, ell)


def test_name_roundtrip():
    for t, n in [(k5_pinned_tree(), 4), (theta4_pinned_tree(), 3),
                 (fig_b3n3_tree(), 3)]:
        mc = build_morse_complex(t, n, "unordered")
        for d in (1, 2):
            for c in mc.critical.get(d, ()):
                nm = name_critical_cell(t, c)
                if nm is not None:
                    assert materialize_name(t, nm) == c


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
@example(3, 3)  # 18 of its 47 critical cells have no name
def test_names_are_those_rebuilding_gives_back(seed, n):
    # the one standard-form test reads the name off the cell; the oracle
    # counts each vertex on its edge's branch and rebuilds the cell.  About
    # half of these trees fail T2, where many cells have no name.  Both
    # flavors generate the same unordered cells, one per orbit
    t = random_ordered_tree(seed)
    for flavor in ("unordered", "ordered"):
        for cs in C.critical_cells(t, n, flavor).values():
            for c in cs:
                name = name_critical_cell(t, c)
                assert name == reference_name(t, c), format_cell(c)
                assert name is None or materialize_name(t, name) == c


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_cell_builds_what_materialize_name_builds(seed):
    # every edge, every vector of up to 2 vertices per branch and every
    # 0_s prefix up to s = 3; where the one-term name builds no cell,
    # edge_cell refuses
    t = random_ordered_tree(seed)
    for e in t.all_edge_pairs():
        kind = "deleted" if e in t.deleted_set else "tree"
        for vec in product(range(3), repeat=t.branch_count(e[0])):
            for s0 in range(4):
                cell = materialize_name(
                    t, CriticalName((Term(kind, e, vec),), s0))
                if cell is None:
                    with pytest.raises(MorseError):
                        edge_cell(t, e, vec, s0)
                else:
                    assert edge_cell(t, e, vec, s0) == cell


def test_bare_fill_skips_closures():
    t = k5_pinned_tree()
    cell = bare_fill(t, [(0, 15), (6, 20)], 2)
    assert cell == tuple(sorted([(0, 15), (6, 20), vertex(1), vertex(2)]))


def test_reversed_order_is_descending():
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    keys = [cell_sort_key(t, c) for c in mc.critical[1]]
    assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# the ordered reduction: D_n -> UD_n is an n!-sheeted covering, and the
# reducer walks every labelling as it is given

def _tree(g, n):
    gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
    return choose_tree_and_order(gs, n)


def _push_forward(chain):
    """Sum the coefficients of an ordered chain over each unordered cell."""
    out: dict = {}
    for c, x in chain.items():
        sc = phi(c)[0]
        out[sc] = out.get(sc, 0) + x
    return {c: x for c, x in out.items() if x}


def _ordered_critical(t, n):
    """The ordered critical cells: each unordered one's n! labellings."""
    return {d: [p for c in cs for p in permutations(c)]
            for d, cs in C.critical_cells(t, n, "ordered").items()}


def _check_covering(t, n):
    """The ordered Morse boundary pushes forward to the unordered one on
    every critical cell, and rank H_d(B_n) <= rank H_d(P_n) by transfer."""
    ordered, unordered = Reducer(t, ordered=True), Reducer(t)
    for cs in _ordered_critical(t, n).values():
        for c in cs:
            assert _push_forward(morse_boundary(ordered, c)) == \
                morse_boundary(unordered, phi(c)[0])
    h_p = homology(build_morse_complex(t, n, "ordered"))
    h_b = homology(build_morse_complex(t, n, "unordered"))
    assert h_b.keys() == h_p.keys()
    assert all(h_b[d].rank <= h_p[d].rank for d in h_b)


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("Theta4", 3)])
def test_ordered_boundary_covers_unordered(name, n):
    t = pinned_tree(name, n) or _tree(build_graph(name), n)
    _check_covering(t, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_ordered_boundary_covers_unordered_on_corpus(seed, n):
    g = corpus(seed, 1)[0]
    assume(n < 4 or len(g.edges) <= 8)
    _check_covering(_tree(g, n), n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_boundary_matches_reference_walk_on_corpus(seed, n):
    t = _tree(corpus(seed, 1)[0], n)
    red, ref = Reducer(t, ordered=True), ReferenceReducer(t, ordered=True)
    for cs in _ordered_critical(t, n).values():
        for c in cs:
            assert morse_boundary(red, c) == ref.morse_boundary(c)


# ---------------------------------------------------------------------------
# names and basis order: built once per orbit, equal to the per-labelling ones

def _check_orbit_names(t, n):
    mc = build_morse_complex(t, n, "ordered")
    for d, cs in _ordered_critical(t, n).items():
        for c in cs:
            sc, sigma = phi(c)
            rep, s = mc.orbit(c)
            assert (mc.names[rep], s) == (name_critical_cell(t, sc), sigma)
            assert mc.name_of(c) == format_name(t, name_critical_cell(t, sc),
                                                c, True, sigma)
        cs.sort(key=lambda c: cell_sort_key(t, *phi(c)), reverse=True)
        assert mc.critical[d] == cs


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("Theta4", 3)])
def test_ordered_names_per_orbit(name, n):
    _check_orbit_names(pinned_tree(name, n) or _tree(build_graph(name), n), n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_names_per_orbit_on_corpus(seed, n):
    _check_orbit_names(_tree(corpus(seed, 1)[0], n), n)


# ---------------------------------------------------------------------------
# the ordered basis is the unordered one expanded orbit by orbit

def _check_ordered_basis_expands_unordered(t, n):
    po = build_morse_complex(t, n, "ordered")
    bo = build_morse_complex(t, n, "unordered")
    sigmas = list(permutations(range(1, n + 1)))
    assert po.sigmas == sigmas and bo.sigmas == [None]
    assert po.critical.keys() == bo.critical.keys()
    # one name per orbit, the unordered cell's
    assert po.names == bo.names
    for d, cs in bo.critical.items():
        assert po.critical[d] == [C.phi_inverse(c, s) for c in cs
                                  for s in sigmas]
        for c in cs:
            for s in sigmas:
                cell = C.phi_inverse(c, s)
                assert po.orbit(cell) == (c, s)
                assert po.name_of(cell) == format_name(t, bo.names[c], cell,
                                                       True, s)


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("Theta4", 3)])
def test_ordered_basis_expands_unordered(name, n):
    t = pinned_tree(name, n) or _tree(build_graph(name), n)
    _check_ordered_basis_expands_unordered(t, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_basis_expands_unordered_on_corpus(seed, n):
    _check_ordered_basis_expands_unordered(_tree(corpus(seed, 1)[0], n), n)


# ---------------------------------------------------------------------------
# one reduction per orbit: every labelling's row and relator are its orbit
# representative's, relabelled by index arithmetic

def _check_per_labelling(t, n):
    mc = build_morse_complex(t, n, "ordered")
    critical, names, boundaries, relators = per_labelling_complex(t, n)
    assert mc.critical == critical
    # each labelling named as its orbit's name with its permutation
    labelled = {}
    for cs in mc.critical.values():
        for c in cs:
            rep, sigma = mc.orbit(c)
            labelled[c] = (mc.names[rep], sigma)
    assert labelled == names
    assert dense_boundaries(mc) == boundaries
    assert mc.relators == relators


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("K(3,4)", 2), ("K(3,4)", 3),
                                    ("Theta4", 3)])
def test_ordered_build_matches_per_labelling_walk(name, n):
    _check_per_labelling(pinned_tree(name, n) or _tree(build_graph(name), n),
                         n)


POINT = {"vertices": ["a"], "edges": []}
SEGMENT = {"vertices": ["a", "b"], "edges": [["e", "a", "b"]]}
CIRCLE = {"vertices": ["a", "b", "c"],
          "edges": [["x", "a", "b"], ["y", "b", "c"], ["z", "c", "a"]]}


@pytest.mark.parametrize("graph,n", [
    ("K33", 1), (POINT, 1), (POINT, 2), (POINT, 3), (SEGMENT, 1),
    (SEGMENT, 2), (SEGMENT, 3), (CIRCLE, 1), (CIRCLE, 2), (CIRCLE, 3)],
    ids=["K33-n1", "point-n1", "point-n2", "point-n3", "segment-n1",
         "segment-n2", "segment-n3", "circle-n1", "circle-n2", "circle-n3"])
def test_ordered_build_matches_per_labelling_walk_degenerate(graph, n):
    _check_per_labelling(_tree(build_graph(graph), n), n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_build_matches_per_labelling_walk_on_corpus(seed, n):
    _check_per_labelling(_tree(corpus(seed, 1)[0], n), n)


# ---------------------------------------------------------------------------
# the complex owns its orbit layout: orbit() is phi read off the basis rows

def _check_orbit_is_phi(mc):
    for cs in mc.critical.values():
        for c in cs:
            assert mc.orbit(c) == (phi(c) if mc.ordered else (c, None))
    # names are kept once per orbit, under its representative
    reps = {mc.orbit(c)[0] for cs in mc.critical.values() for c in cs}
    assert set(mc.names) == reps
    assert len(mc.names) * len(mc.sigmas) == sum(map(len,
                                                     mc.critical.values()))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_orbit_is_phi_on_corpus(seed, n, flavor):
    _check_orbit_is_phi(build_morse_complex(_tree(corpus(seed, 1)[0], n), n,
                                            flavor))


def test_orbit_is_phi_k33_n4_ordered():
    mc = build_morse_complex(pinned_tree("K33", 4)
                             or _tree(build_graph("K33"), 4), 4, "ordered")
    _check_orbit_is_phi(mc)
    assert len(mc.sigmas) == 24 and mc.sigmas[0] == (1, 2, 3, 4)


def test_both_checks_every_labelling(monkeypatch):
    from graphbraids import closedforms
    t = _tree(build_graph("K33"), 2)
    mc = build_morse_complex(t, 2, "ordered")
    check_closed_forms(mc)
    target = mc.critical[2][-1]
    assert phi(target)[1] != (1, 2)  # not the orbit's representative
    fast = closedforms.fast_morse_boundary_ordered

    def corrupted(t, cell):
        out = dict(fast(t, cell))
        if cell == target:
            g = mc.critical[1][0]
            out[g] = out.get(g, 0) + 1
        return out

    monkeypatch.setattr(closedforms, "fast_morse_boundary_ordered", corrupted)
    with pytest.raises(MorseError, match="closed forms and the rewriting "
                                         "disagree on " + re.escape(
                                             format_cell(target, True))):
        check_closed_forms(mc)


def test_derived_column_outside_basis_raises(monkeypatch):
    from graphbraids import morse
    monkeypatch.setattr(morse, "_product_table",
                        lambda sigmas: [[10 ** 9] * len(sigmas)] * len(sigmas))
    with pytest.raises(MorseError, match="falls outside the critical 0-cells"):
        build_morse_complex(k33_pinned_tree(), 2, "ordered")


def test_derived_column_at_the_basis_width_raises(monkeypatch):
    # K33 n=2 ordered has two critical 0-cells, so column 2 is one past them
    from graphbraids import morse
    monkeypatch.setattr(morse, "_product_table",
                        lambda sigmas: [[2] * len(sigmas)] * len(sigmas))
    with pytest.raises(MorseError, match="falls outside the critical 0-cells"):
        build_morse_complex(k33_pinned_tree(), 2, "ordered")


@pytest.mark.parametrize("name,n,flavor", [("K33", 2, "unordered"),
                                           ("K33", 3, "ordered"),
                                           ("K(3,4)", 2, "ordered")])
def test_boundary_rows_are_sparse(name, n, flavor):
    # one row per cell, no zero entry, every column a cell one degree down
    mc = build_morse_complex(_tree(build_graph(name), n), n, flavor)
    for d, rows in mc.boundaries.items():
        assert len(rows) == len(mc.critical[d])
        width = len(mc.critical[d - 1])
        for row in rows:
            assert all(x and 0 <= j < width for j, x in row.items())
    assert any(mc.boundaries.values())


def test_colliding_labellings_raise(monkeypatch):
    monkeypatch.setattr(C, "phi_inverse", lambda cell, sigma: tuple(cell))
    with pytest.raises(MorseError, match="are not distinct"):
        build_morse_complex(k33_pinned_tree(), 2, "ordered")


# ---------------------------------------------------------------------------
# the build does only what a job reads: names on first read, and no d1 walk
# below a lone critical 0-cell

def _check_names_on_demand(mc):
    t = mc.tree
    for cs in mc.critical.values():
        for c in cs:
            rep, sigma = mc.orbit(c)
            name = name_critical_cell(t, rep)
            assert mc.name_of(c) == format_name(t, name, c, mc.ordered, sigma)
            assert mc.names[rep] == name
    assert set(mc.names) == {mc.orbit(c)[0] for cs in mc.critical.values()
                             for c in cs}


@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_names_on_demand_k5_n4(flavor):
    _check_names_on_demand(build_morse_complex(k5_pinned_tree(), 4, flavor))


def test_names_on_demand_k33_n3_ordered():
    t = pinned_tree("K33", 3) or _tree(build_graph("K33"), 3)
    _check_names_on_demand(build_morse_complex(t, 3, "ordered"))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_names_on_demand_on_corpus(seed, n, flavor):
    t = _tree(corpus(seed, 1)[0], n)
    _check_names_on_demand(build_morse_complex(t, n, flavor))


def test_a_job_names_only_critical_1cells(monkeypatch):
    from graphbraids import morse
    from graphbraids.present import raw_presentation, simplify
    named = []
    name = morse.name_critical_cell
    monkeypatch.setattr(morse, "name_critical_cell",
                        lambda t, cell: named.append(cell) or name(t, cell))
    mc = build_morse_complex(k5_pinned_tree(), 4, "unordered")
    homology(mc)
    pres = simplify(raw_presentation(mc), mc)
    assert not named  # the census and the moves read no name
    pres.display()
    assert named and set(named) <= set(mc.critical[1])
    assert len(named) == len(set(named))  # each name is kept once computed


def _check_d1_walked(mc):
    """The d1 rows are the walked reduction's, the package's and the
    reference's; returns the rows."""
    t = mc.tree
    red, ref = Reducer(t, mc.ordered), ReferenceReducer(t, mc.ordered)
    faces = mc.critical[0]
    rows = mc.boundaries.get(1, [])
    assert len(rows) == len(mc.critical.get(1, ()))
    for c, row in zip(mc.critical.get(1, ()), rows):
        chain = {faces[j]: x for j, x in row.items()}
        assert chain == morse_boundary(red, c) == ref.morse_boundary(c)
    return rows


@pytest.mark.parametrize("name", sorted(BUILTIN_GRAPHS))
def test_d1_of_a_lone_critical_0cell_ordered_n1(name):
    mc = build_morse_complex(_tree(build_graph(name), 1), 1, "ordered")
    assert len(mc.critical[0]) == 1 and mc.critical[1]
    assert not any(_check_d1_walked(mc))


@pytest.mark.parametrize("make,n", [(k33_pinned_tree, 2), (k5_pinned_tree, 4),
                                    (theta4_pinned_tree, 3),
                                    (fig_b3n3_tree, 3)])
def test_d1_of_a_lone_critical_0cell_unordered(make, n):
    mc = build_morse_complex(make(), n, "unordered")
    assert len(mc.critical[0]) == 1
    assert not any(_check_d1_walked(mc))


def test_d1_is_walked_at_ordered_n2():
    mc = build_morse_complex(k33_pinned_tree(), 2, "ordered")
    assert len(mc.critical[0]) == 2
    assert any(_check_d1_walked(mc))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_d1_matches_the_walk_on_corpus(seed, n, flavor):
    t = _tree(corpus(seed, 1)[0], n)
    _check_d1_walked(build_morse_complex(t, n, flavor))


@pytest.mark.parametrize("name,n,flavor", [("K5", 4, "unordered"),
                                           ("K33", 2, "unordered"),
                                           ("K33", 1, "ordered")])
def test_a_lone_critical_0cell_build_classifies_no_0cell(monkeypatch, name,
                                                         n, flavor):
    t = pinned_tree(name, n) or _tree(build_graph(name), n)
    classified = []
    plan = Reducer._plan
    monkeypatch.setattr(Reducer, "_plan", lambda self, cell: classified.append(
        C.cell_dim(cell)) or plan(self, cell))
    mc = build_morse_complex(t, n, flavor)
    assert len(mc.critical[0]) == 1 and mc.critical[1]
    assert 0 not in classified
