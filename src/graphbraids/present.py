"""Group presentations of graph braid groups from the Morse complex.

Generators are critical 1-cells; relators are boundary words of critical
2-cells pushed through the rewriting homomorphism onto critical 1-cells.
That homomorphism is the Morse reduction of `morse.Reducer` computed in the
free group instead of in Z: `WORDS` is its coefficient algebra, solving a
redundant 1-cell out of the boundary word of its matched square.  Words do
not commute, so the reducer takes only the plain shortcut move for them,
never the strengthened 1-cell move that unordered Z-chains allow (see
`morse`).
Tietze elimination then removes pivotal generators in decreasing order and
contracts separating generators along the labeled graph of their relations.
Every relator is kept freely reduced, and an index from each generator to
the relators that contain it lets a move rewrite only those relators.
`commutator_form` recognises relators of the form [u, v] for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cells as C
from .morse import Algebra, MorseComplex, MorseError, Reducer, cell_sort_key
from .homology import AbelianGroup, classify_1cells


# ---------------------------------------------------------------------------
# words in a free group; letters are (generator, +-1)

Word = tuple


def free_reduce(w) -> Word:
    out = []
    for g, e in w:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def wmul(*ws) -> Word:
    out = []
    for w in ws:
        for g, e in w:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
    return tuple(out)


def winv(w) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


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


def substitute(w, gen, repl, inv=None) -> Word:
    """w with every letter gen^e replaced by repl^e, freely reduced while it
    is spliced.  This is the stack of `free_reduce` run over the spliced
    word in one pass: the runs of w between the letters of gen, and repl,
    are each freely reduced, so only the first letters of a run can cancel
    against the stack and the rest of the run is appended as it is.  `inv`,
    repl's inverse, may be passed when many words take the same repl."""
    out: list = []
    start = 0
    for i, (g, e) in enumerate(w):
        if g == gen:
            _splice(out, w[start:i])
            if e == 1:
                _splice(out, repl)
            else:
                if inv is None:
                    inv = winv(repl)
                _splice(out, inv)
            start = i + 1
    _splice(out, w[start:] if start else w)
    return tuple(out)


def _splice(out: list, run) -> None:
    """Push the freely reduced word `run` onto the reduced stack `out`."""
    k = 0
    while out and k < len(run):
        top, (g, e) = out[-1], run[k]
        if top[0] != g or top[1] != -e:
            break
        out.pop()
        k += 1
    out.extend(run[k:] if k else run)


# ---------------------------------------------------------------------------
# the rewriting homomorphism: the Morse reduction in the free group

def _combine_words(terms) -> Word:
    return wmul(*[w if e == 1 else winv(w) for w, e in terms])


# words over critical 1-cells; a redundant 1-cell is solved out of the
# boundary word of its matched square
WORDS = Algebra(zero=(), unit=lambda cell: ((cell, 1),),
                combine=_combine_words, relation=C.boundary_word,
                relabel=lambda w, sigma: tuple((C.phi_inverse(g, sigma), e)
                                               for g, e in w),
                abelian=False)


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
    critical 2-cells.  Ordered flavor (n = 2): the fundamental group of the
    Morse complex with its critical 0-cells identified is P_2 * Z, so one
    generator joining the two 0-cells is killed."""
    red = Reducer(mc.tree, mc.ordered, algebra=WORDS)
    gens = list(mc.critical.get(1, ()))
    relators = [red.reduce(C.boundary_word(c2, mc.ordered))
                for c2 in mc.critical.get(2, ())]
    names = {c: mc.name_of(c) for c in gens}
    pres = Presentation(gens, relators, names)
    if mc.ordered:
        if mc.n != 2:
            raise MorseError("presentations of pure braid groups need n = 2")
        join = None
        rows = mc.boundaries.get(1, [])
        for cell, row in zip(reversed(mc.critical[1]), reversed(rows)):
            if any(row):
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
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        groups[lead] = i  # rows are in decreasing order; the last wins
    return {mc.critical[1][lead]: cells2[i] for lead, i in groups.items()}


def _modified_pivotal_key(mc: MorseComplex, cell):
    """Order used only when eliminating pivotal generators: deleted edges
    outrank tree edges at equal terminal vertex."""
    t = mc.tree
    sc = C.phi(cell)[0] if mc.ordered else cell
    edges = C.cell_edges(sc)
    e = edges[0]
    base = cell_sort_key(t, sc, C.phi(cell)[1] if mc.ordered else None)
    mod_edge = (e[0], 1 if e in t.deleted_set else 0, e[1])
    return (base[0], mod_edge) + tuple(base[2:])


def simplify(pres: Presentation, mc: MorseComplex, audit=None) -> Presentation:
    """Tietze-minimize: eliminate pivotal generators in decreasing modified
    order, then contract separating generators along their relators.

    Relators are kept by a stable id (their index in `pres.relators`, which
    is also the index of their critical 2-cell), with an index from each
    generator to the ids of the relators that contain it.  A move rewrites
    only those relators: every other one is already freely reduced, so
    substituting into it would return it unchanged.

    `audit`, when given, is called with the presentation after every Tietze
    move (used by tests to confirm the abelianization never changes)."""
    out = Presentation(list(pres.generators), [], dict(pres.names),
                       list(pres.history), pres.killed)
    tags = classify_1cells(mc)
    pairs = _leading_pairs(mc)
    rels = dict(enumerate(pres.relators))
    rel_of_cell2 = {c2: i for i, c2 in enumerate(mc.critical.get(2, ()))}
    gens_of = {i: {g for g, _ in r} for i, r in rels.items()}
    index: dict = {}
    for i, gens in gens_of.items():
        for g in gens:
            index.setdefault(g, set()).add(i)

    def eliminate(gen, rid, why):
        rel = rels[rid]
        hits = [i for i, (g, _) in enumerate(rel) if g == gen]
        if len(hits) != 1:
            return
        i = hits[0]
        u, e, v = rel[:i], rel[i][1], rel[i + 1:]
        repl = wmul(winv(u), winv(v))
        inv = winv(repl)
        if e == -1:
            repl, inv = inv, repl
        del rels[rid]
        for g in gens_of.pop(rid):
            index[g].discard(rid)
        for j in index.pop(gen):
            new = rels[j] = substitute(rels[j], gen, repl, inv)
            old_gens, new_gens = gens_of[j], {g for g, _ in new}
            old_gens.discard(gen)
            for g in old_gens - new_gens:
                index[g].discard(j)
            for g in new_gens - old_gens:
                index.setdefault(g, set()).add(j)
            gens_of[j] = new_gens
        out.generators.remove(gen)
        out.history.append(f"eliminate {out.names.get(gen, gen)} ({why})")
        if audit is not None:
            out.relators = list(rels.values())
            audit(out)

    pivotal = [g for g in out.generators
               if tags.get(g) == "pivotal" and g in pairs]
    pivotal.sort(key=lambda g: _modified_pivotal_key(mc, g), reverse=True)
    for g in pivotal:
        rid = rel_of_cell2[pairs[g]]
        if rid in rels:
            eliminate(g, rid, "pivotal")

    # separating contraction: repeatedly remove the smallest separating
    # generator that some relator uses exactly once, taking the shortest
    # such relator (the earliest among equals)
    separating = sorted(
        (g for g in out.generators if tags.get(g) == "separating"),
        key=lambda g: cell_sort_key(mc.tree, C.phi(g)[0] if mc.ordered else g,
                                    C.phi(g)[1] if mc.ordered else None))
    while True:
        for g in separating:
            best = None
            for rid in index.get(g, ()):
                r = rels[rid]
                if sum(1 for x, _ in r if x == g) == 1 and (
                        best is None or (len(r), rid) < best):
                    best = (len(r), rid)
            if best is not None:
                eliminate(g, best[1], "separating merge")
                separating.remove(g)
                break
        else:
            break

    out.relators = [r for r in rels.values() if r]
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
