"""Group presentations of graph braid groups from the Morse complex.

Generators are critical 1-cells; relators are boundary words of critical
2-cells pushed through the rewriting homomorphism onto critical 1-cells.
That homomorphism is the Morse reduction of `morse.Reducer` computed in the
free group instead of in Z: `morse.WORDS` is its coefficient algebra,
solving a redundant 1-cell out of the boundary word of its matched square.
`morse.build_morse_complex` does this rewriting once per critical 2-cell,
in both flavors and at every n, reads d2 off it, and keeps the words as
`MorseComplex.relators`; `raw_presentation` takes them from there (for the
ordered flavor, at n = 2 only).

Tietze elimination then removes pivotal generators in decreasing order and
contracts separating generators along the labeled graph of their relations.
It runs on signed-integer letters: generator i of the presentation (from 1)
is the letter i and its inverse -i, and words are turned back into
(cell, +-1) letters at the end and for each audit.  Every relator is kept
freely reduced, and an index from each generator to the relators that
contain it lets a move rewrite only those relators.
`commutator_form` recognises relators of the form [u, v] for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from . import cells as C
# the word algebra lives in morse and stays importable from here
from .morse import (WORDS, MorseComplex, MorseError, Word, cell_sort_key,  # noqa: F401
                    free_reduce, winv, wmul)
from .homology import AbelianGroup, classify_1cells


def cyclic_reduce(w) -> Word:
    w = free_reduce(w)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return w


def exponent_sums(w) -> dict:
    out: dict = {}
    for g, e in w:
        out[g] = out.get(g, 0) + e
        if not out[g]:
            del out[g]
    return out


# ---------------------------------------------------------------------------
# words on signed-integer letters: i and -i are generator i and its inverse

def substitute(w, gen, repl, inv=None) -> tuple:
    """w with every letter gen^e (gen > 0) replaced by repl^e, freely
    reduced while it is spliced.  This is the stack of a free reduction run
    over the spliced word in one pass: the runs of w between the letters of
    gen, and repl, are each freely reduced, so only the first letters of a
    run can cancel against the stack and the rest of the run is appended as
    it is.  `inv`, repl's inverse, may be passed when many words take the
    same repl."""
    out: list = []
    start = 0
    neg = -gen
    for i, x in enumerate(w):
        if x == gen or x == neg:
            _splice(out, w[start:i])
            if x == gen:
                _splice(out, repl)
            else:
                if inv is None:
                    inv = _inverse(repl)
                _splice(out, inv)
            start = i + 1
    _splice(out, w[start:] if start else w)
    return tuple(out)


def _splice(out: list, run) -> None:
    """Push the freely reduced word `run` onto the reduced stack `out`."""
    k = 0
    while out and k < len(run) and out[-1] == -run[k]:
        out.pop()
        k += 1
    out.extend(run[k:] if k else run)


def _inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


# ---------------------------------------------------------------------------
# presentations

@dataclass
class Presentation:
    generators: list
    relators: list
    names: dict = field(default_factory=dict)
    history: list = field(default_factory=list)
    killed: object = None

    def abelianization(self) -> AbelianGroup:
        index = {g: i for i, g in enumerate(self.generators)}
        rows = []
        for r in self.relators:
            row = [0] * len(self.generators)
            for g, e in r:
                row[index[g]] += e
            rows.append(row)
        return AbelianGroup.from_presentation(len(self.generators), rows)

    def display(self):
        return {
            "generators": [self.names.get(g, str(g)) for g in self.generators],
            "relators": [format_word(r, self.names) for r in self.relators],
            "history": list(self.history),
        }


def format_word(w, names: dict) -> str:
    if not w:
        return "1"
    com = commutator_form(w)
    if com:
        u, v = com
        return f"[{format_word(u, names)},{format_word(v, names)}]"
    parts = []
    for g, e in w:
        s = names.get(g, str(g))
        parts.append(s if e == 1 else s + "^-1")
    return "*".join(parts)


def raw_presentation(mc: MorseComplex) -> Presentation:
    """Generators = critical 1-cells; relators = rewritten boundary words of
    critical 2-cells, as the build left them in ``mc.relators``.  Ordered
    flavor (n = 2): when the complex has two critical 0-cells, the
    fundamental group of the Morse complex with them identified is P_2 * Z,
    so one generator joining the two 0-cells is killed.  (D_2 of a single
    vertex is empty and has no critical cells at all.)"""
    if mc.ordered and mc.n != 2:
        raise MorseError("presentations of pure braid groups need n = 2")
    if mc.relators is None:
        raise MorseError("a complex built on path 'fast' has no relator "
                         "words; build it on path 'generic' or 'both'")
    gens = list(mc.critical.get(1, ()))
    names = {c: mc.name_of(c) for c in gens}
    pres = Presentation(gens, list(mc.relators), names)
    if mc.ordered and len(mc.critical.get(0, ())) == 2:
        join = None
        rows = mc.boundaries.get(1, [])
        for cell, row in zip(reversed(mc.critical[1]), reversed(rows)):
            if row:
                join = cell
                break
        if join is None:
            raise MorseError("no critical 1-cell joins the two 0-cells")
        pres.generators.remove(join)
        pres.relators = [free_reduce(tuple((g, e) for g, e in r if g != join))
                         for r in pres.relators]
        pres.killed = join
        pres.history.append(f"kill joining generator {names[join]}")
    return pres


def _leading_pairs(mc: MorseComplex):
    """(pivotal 2-cell, pivotal 1-cell) pairs: group boundary rows by their
    largest summand; the smallest 2-cell of each group is pivotal."""
    rows = mc.boundaries.get(2, [])
    cells2 = mc.critical.get(2, ())
    groups: dict[int, int] = {}
    for i, row in enumerate(rows):
        if row:
            groups[min(row)] = i  # rows are in decreasing order; the last wins
    return {mc.critical[1][lead]: cells2[i] for lead, i in groups.items()}


def _modified_pivotal_key(mc: MorseComplex, cell, sigmas):
    """Order used only when eliminating pivotal generators: deleted edges
    outrank tree edges at equal terminal vertex.  The generator is the
    labelling sigmas[i % n!] of the orbit starting at row i - i % n!
    (``sigmas`` lists S_n in lexicographic order; unordered it is [None])."""
    t = mc.tree
    m = len(sigmas)
    i = mc.index[1][cell]
    rep = mc.critical[1][i - i % m]
    e = C.cell_edges(rep)[0]
    base = cell_sort_key(t, rep, sigmas[i % m])
    mod_edge = (e[0], 1 if e in t.deleted_set else 0, e[1])
    return (base[0], mod_edge) + tuple(base[2:])


def simplify(pres: Presentation, mc: MorseComplex, audit=None) -> Presentation:
    """Tietze-minimize: eliminate pivotal generators in decreasing modified
    order, then contract separating generators along their relators.

    Relators are kept by a stable id (their index in `pres.relators`, which
    is also the index of their critical 2-cell), with an index from each
    generator to the ids of the relators that contain it.  A move rewrites
    only those relators: every other one is already freely reduced, so
    substituting into it would return it unchanged.  The moves run on
    signed-integer letters (see the module docstring).

    `audit`, when given, is called with the presentation after every Tietze
    move (used by tests to confirm the abelianization never changes)."""
    out = Presentation(list(pres.generators), [], dict(pres.names),
                       list(pres.history), pres.killed)
    tags = classify_1cells(mc)
    pairs = _leading_pairs(mc)
    # letter i is generator i (from 1) and -i its inverse; letter[x] turns
    # x back into a (cell, +-1) letter
    number = {g: i for i, g in enumerate(pres.generators, 1)}
    letter = ([None] + [(g, 1) for g in pres.generators]
              + [(g, -1) for g in reversed(pres.generators)])

    def decode(r):
        return tuple(map(letter.__getitem__, r))

    rels = {i: tuple(number[g] * e for g, e in r)
            for i, r in enumerate(pres.relators)}
    gens_of = {i: set(map(abs, r)) for i, r in rels.items()}
    index: dict = {}
    for i, gens in gens_of.items():
        for g in gens:
            index.setdefault(g, set()).add(i)

    def eliminate(gen, rid, why):
        rel = rels[rid]
        hits = [i for i, x in enumerate(rel) if x == gen or x == -gen]
        if len(hits) != 1:
            return
        i = hits[0]
        u, x, v = rel[:i], rel[i], rel[i + 1:]
        repl = list(_inverse(u))
        _splice(repl, _inverse(v))
        repl = tuple(repl)
        inv = _inverse(repl)
        if x < 0:
            repl, inv = inv, repl
        del rels[rid]
        for g in gens_of.pop(rid):
            index[g].discard(rid)
        for j in index.pop(gen):
            new = rels[j] = substitute(rels[j], gen, repl, inv)
            old_gens, new_gens = gens_of[j], set(map(abs, new))
            old_gens.discard(gen)
            for g in old_gens - new_gens:
                index[g].discard(j)
            for g in new_gens - old_gens:
                index.setdefault(g, set()).add(j)
            gens_of[j] = new_gens
        cell = letter[gen][0]
        out.generators.remove(cell)
        out.history.append(f"eliminate {out.names.get(cell, cell)} ({why})")
        if audit is not None:
            out.relators = [decode(r) for r in rels.values()]
            audit(out)

    pivotal = [g for g in out.generators
               if tags.get(g) == "pivotal" and g in pairs]
    sigmas = (list(permutations(range(1, mc.n + 1))) if mc.ordered
              else [None])
    pivotal.sort(key=lambda g: _modified_pivotal_key(mc, g, sigmas),
                 reverse=True)
    for g in pivotal:
        rid = mc.index[2][pairs[g]]
        if rid in rels:
            eliminate(number[g], rid, "pivotal")

    # separating contraction: repeatedly remove the smallest separating
    # generator (the basis is in decreasing order) that some relator uses
    # exactly once, taking the shortest such relator (the earliest among
    # equals)
    separating = [number[g] for g in sorted(
        (g for g in out.generators if tags.get(g) == "separating"),
        key=lambda g: -mc.index[1][g])]
    while True:
        for g in separating:
            best = None
            for rid in index.get(g, ()):
                r = rels[rid]
                if r.count(g) + r.count(-g) == 1 and (
                        best is None or (len(r), rid) < best):
                    best = (len(r), rid)
            if best is not None:
                eliminate(g, best[1], "separating merge")
                separating.remove(g)
                break
        else:
            break

    out.relators = [decode(r) for r in rels.values() if r]
    return out


# ---------------------------------------------------------------------------
# commutator detection

def commutator_form(w):
    """(u, v) with w ~ u v u^-1 v^-1 as a cyclic word, else None.

    Splits are tried rotation by rotation, then by i and j, and the first
    rotation r = u v x of the cyclically reduced w, u = r[:i], v = r[i:j],
    with x = u^-1 v^-1 freely reduced wins.  Every rotation is freely
    reduced, and so are u, v and x.  Where u^-1 meets v^-1, k letters cancel
    (r[m] against r[j-1-m] for m < k, at most min(i, j - i)), so x can match
    only when len(x) = L - j equals j - 2k.  For each j the longest run of
    such cancelling pairs is found once per rotation; only the splits whose
    k fits are compared letter by letter."""
    w = cyclic_reduce(w)
    L = len(w)
    if L == 0 or L % 2:
        return None
    half = L // 2
    for rot in range(L):
        r = w[rot:] + w[:rot]
        inv = [(g, -e) for g, e in r]
        candidates = []
        for j in range(half, L - 1):
            # stops before the middle of r[:j]: no letter is its own
            # inverse, and no two adjacent letters of r cancel
            run = 0
            while r[run] == inv[j - 1 - run]:
                run += 1
            if run >= j - half:
                candidates.append((j, run))
        for i in range(1, L - 2):
            for j, run in candidates:
                k = j - half
                if j <= i or min(run, i, j - i) != k:
                    continue
                # x = r[i-1..k]^-1 followed by r[j-k-1..i]^-1
                if r[j] != (inv[i - 1] if k < i else inv[j - k - 1]):
                    continue
                if r[j:] == tuple(inv[k:i][::-1] + inv[i:j - k][::-1]):
                    return r[:i], r[i:j]
    return None


def quadratic_genus(w):
    """Genus of the closed orientable surface built from a single polygon
    with identification word w; requires each generator to appear exactly
    twice with opposite exponents.  Returns None if w is not such a word."""
    w = cyclic_reduce(w)
    if not w:
        return 0
    sums = exponent_sums(w)
    counts: dict = {}
    for g, _ in w:
        counts[g] = counts.get(g, 0) + 1
    if sums or any(c != 2 for c in counts.values()):
        return None
    L = len(w)
    # corners 0..L-1 sit between letters i-1 and i; glue via matching letters
    parent = list(range(L))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    pos: dict = {}
    for i, (g, e) in enumerate(w):
        if g in pos:
            j, f = pos[g]
            # letter i runs corner i -> i+1; the matching inverse letter j
            # runs j -> j+1 traversing the same edge backwards
            union(i, (j + 1) % L)
            union((i + 1) % L, j)
        else:
            pos[g] = (i, e)
    vertices = len({find(i) for i in range(L)})
    chi = vertices - L // 2 + 1
    if (2 - chi) % 2:
        return None
    return (2 - chi) // 2
