"""Group presentations of graph braid groups from the Morse complex.

Generators are critical 1-cells; relators are boundary words of critical
2-cells pushed through the rewriting homomorphism onto critical 1-cells.
That homomorphism is the Morse reduction of `morse.Reducer` computed in the
free group instead of in Z: `morse.WORDS` is its coefficient algebra,
solving a redundant 1-cell out of the boundary word of its matched square.
`morse.build_morse_complex` does this rewriting once per critical 2-cell,
in both flavors and at every n, reads d2 off it, and keeps the words as
`MorseComplex.relators`; `raw_presentation` takes them from there (for the
ordered flavor, at n <= 2 only).

Tietze elimination then removes pivotal generators in decreasing order and
contracts separating generators along the labeled graph of their relations.
It runs on str words, one character per letter: generator i of the
presentation (from 1) is chr(2 i) and its inverse chr(2 i + 1), so a word's
inverse is one `str.translate` of its reverse.  Relators are encoded once
on entry and turned back into (cell, +-1) letters at the end and for each
audit.  Every relator is kept freely reduced, so a substitution is two
`str.replace` calls, and letters can cancel only where the replacement
meets the word: every cancelling pair is one of two bigrams, which
`str.find` locates (see `substitute`).  An index from each generator to the
relators that may contain it only grows, so it may list relators that no
longer hold the generator; a move rewrites only the relators the index
lists.
`commutator_form` recognises relators of the form [u, v] for display.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from . import cells as C
from .morse import (LazyMapping, MorseComplex, MorseError, Word,
                    free_reduce, prefix_length)
from .homology import AbelianGroup
from .closedforms import classify_1cells


def cyclic_reduce(w) -> Word:
    w = free_reduce(w)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return w


# ---------------------------------------------------------------------------
# words on str letters: generator i (from 1) is chr(2 i), its inverse
# chr(2 i + 1)

# the most generators the letters can spell: the last inverse is chr(0x10FFFF)
MAX_GENERATORS = (0x10FFFF - 1) // 2

# letter -> its inverse letter, and two `str.translate` tables (ordinal ->
# ordinal): _FLIP turns each letter into its inverse and _GENERATOR into its
# generator's letter.  `_alphabet` grows all three to the largest
# presentation simplified so far.
_INVERSE: dict = {}
_FLIP: list = []
_GENERATOR: list = []


def _alphabet(count: int) -> None:
    """Grow the letter tables to generators 1..count."""
    for k in range(len(_FLIP), 2 * count + 2):
        _FLIP.append(k ^ 1)
        _GENERATOR.append(k & ~1)
        _INVERSE[chr(k)] = chr(k ^ 1)


def _inverse(w: str) -> str:
    return w[::-1].translate(_FLIP)


def substitute(w: str, gen: str, repl: str, inv: str | None = None) -> str:
    """w with the letter gen (a generator's) replaced by repl and gen's
    inverse by inv (repl's inverse, computed when not passed), freely
    reduced.  w and repl are freely reduced and repl holds no letter of
    gen, so two `str.replace` calls splice the word and a cancelling pair
    can only sit on a seam, where a run of w meets repl or inv or two of
    those meet.  Every such pair is one of two bigrams, inv[-1] repl[0] and
    repl[-1] inv[0], so `str.find` finds them; at each, letters cancel
    outward while the two on either side are inverses, and the search goes
    on from the junction.  An empty repl joins the runs of w to one
    another, so that word takes one full reduction pass."""
    if inv is None:
        inv = _inverse(repl)
    s = w.replace(gen, repl).replace(_INVERSE[gen], inv)
    if not repl:
        out: list = []
        for x in s:
            if out and out[-1] == _INVERSE[x]:
                out.pop()
            else:
                out.append(x)
        return "".join(out)
    a = inv[-1] + repl[0]
    b = repl[-1] + inv[0]
    pa = s.find(a)
    pb = s.find(b)
    while pa >= 0 or pb >= 0:
        p = pa if pb < 0 or 0 <= pa < pb else pb
        i, j = p - 1, p + 2
        n = len(s)
        while i >= 0 and j < n and s[i] == _INVERSE[s[j]]:
            i -= 1
            j += 1
        s = s[:i + 1] + s[j:]
        # a bigram found past the removed block moves back by its length;
        # one found inside it is sought again from the junction, which
        # does not cancel
        cut = j - i - 1
        start = i if i > 0 else 0
        if pa >= j:
            pa -= cut
        elif pa >= 0:
            pa = s.find(a, start)
        if pb >= j:
            pb -= cut
        elif pb >= 0:
            pb = s.find(b, start)
    return s


def _cyclic_reduce(w: str) -> str:
    """The freely reduced word w with the letters it is conjugated by
    stripped from both ends."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == _INVERSE[w[j - 1]]:
        i += 1
        j -= 1
    return w[i:j]


# ---------------------------------------------------------------------------
# presentations

class History(Sequence):
    """A presentation's moves as text, "what name (why)".  A move is kept as
    (what, generator, why), and its generator's name is read from ``names``
    only when the move is read, so ``len`` formats no name.  It equals only
    itself: compare ``list(history)``."""

    def __init__(self, names: Mapping, moves: list):
        self.names = names
        self.moves = moves

    def __len__(self):
        return len(self.moves)

    def __getitem__(self, i):
        what, g, why = self.moves[i]
        text = f"{what} {self.names.get(g, g)}"
        return f"{text} ({why})" if why else text


class Presentation:
    """Generators (critical 1-cells) and relators (words in them).  Each
    move that made it is kept in ``moves`` with its generator's cell;
    ``history`` and `display` format the names, so ``len(history)``
    counts the moves without naming a cell."""

    def __init__(self, generators: list, relators: list, names: Mapping,
                 moves: list | None = None):
        self.generators = generators
        self.relators = relators
        # generator -> its display name; `raw_presentation` formats each
        # name the first time it is read
        self.names = names
        # the moves taken, each (what, generator, why); `history` reads
        # them as text
        self.moves = [] if moves is None else moves

    @property
    def history(self) -> History:
        return History(self.names, self.moves)

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


def format_word(w, names: Mapping) -> str:
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
    flavor, n <= 2: at n = 1 each orbit is one labelling, so P_1 = B_1 with
    every name subscripted ``_id``.  At n = 2, when the complex has two
    critical 0-cells, the fundamental group of the Morse complex with them
    identified is P_2 * Z, so one generator joining the two 0-cells is
    killed.  An empty configuration space (more points than vertices) has
    no critical 0-cell and no fundamental group, so it is refused.
    ``names`` formats a generator's name with ``mc.name_of`` the first
    time it is read, and a move keeps its generator's cell, so a job
    formats only the names it shows."""
    if mc.ordered and mc.n > 2:
        raise MorseError("presentations of pure braid groups need n <= 2")
    if not mc.critical.get(0):
        raise MorseError("the configuration space is empty, so it has no "
                         "fundamental group")
    gens = list(mc.critical.get(1, ()))
    names = LazyMapping(mc.index.get(1, {}), mc.name_of)
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
        pres.moves.append(("kill joining generator", join, None))
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


def _modified_pivotal_key(mc: MorseComplex, cell):
    """Order used only when eliminating pivotal generators: the basis order
    with deleted edges outranking tree edges at equal terminal vertex; ties
    at an equal edge fall in basis order.  The count of blocked vertices
    off the 0_s prefix is read off the cell's vertices."""
    rep, _ = mc.orbit(cell)
    e = C.cell_edges(rep)[0]
    rest = mc.n - 1 - prefix_length(mc.tree,
                                    {a for a, b in rep if b == -1})
    return (rest, (e[0], 1 if e in mc.tree.deleted_set else 0, e[1]),
            -mc.index[1][cell])


def simplify(pres: Presentation, mc: MorseComplex, audit=None) -> Presentation:
    """Tietze-minimize: eliminate pivotal generators in decreasing modified
    order, then contract separating generators along their relators.

    Relators are kept by a stable id (their index in `pres.relators`, which
    is also the index of their critical 2-cell), with an index from each
    generator to the ids of every relator that may contain it.  A move
    rewrites only the relators the index lists for its generator and adds
    them under the generators of the replacement word.  Nothing leaves the
    index: it may list a deleted relator, which readers skip, or one that
    lost the generator by cancellation, which readers find by counting
    letters and a move rewrites unchanged.  The moves run on str words,
    one character per letter, and each substitution is two `str.replace`
    calls with free reduction only at the seams that cancel (see the module
    docstring and `substitute`).  More generators than `MAX_GENERATORS`
    have no letters, and are refused.

    `audit`, when given, is called with the presentation after every Tietze
    move (used by tests to confirm the abelianization never changes)."""
    gens = pres.generators
    if len(gens) > MAX_GENERATORS:
        raise MorseError(f"a presentation on {len(gens):,} generators is "
                         f"past the {MAX_GENERATORS:,} that Tietze moves "
                         "can spell")
    _alphabet(len(gens))
    out = Presentation(list(gens), [], pres.names, list(pres.moves))
    tags = classify_1cells(mc)
    pairs = _leading_pairs(mc)
    # generator i (from 1) is the letter chr(2 i) and its inverse
    # chr(2 i + 1); number[cell] is 2 i, and letter[ordinal] turns a
    # character back into a (cell, +-1) letter
    number = {g: 2 * i for i, g in enumerate(gens, 1)}
    letter = [None] * (2 * len(gens) + 2)
    letter[2::2] = [(g, 1) for g in gens]
    letter[3::2] = [(g, -1) for g in gens]

    def decode(r):
        return tuple(map(letter.__getitem__, map(ord, r)))

    rels = {i: "".join([chr(number[g] + (e < 0)) for g, e in r])
            for i, r in enumerate(pres.relators)}
    index: dict = {}
    for i, r in rels.items():
        for g in set(r.translate(_GENERATOR)):
            index.setdefault(g, set()).add(i)

    def eliminate(gen, rid, why):
        rel = rels[rid]
        nc = _INVERSE[gen]
        if rel.count(gen) + rel.count(nc) != 1:
            return
        i = rel.find(gen)
        if i < 0:
            i = rel.find(nc)
        u, v = rel[:i], rel[i + 1:]
        # rel = u x v, so x = (v u)^-1: v's end cancels against u's start
        k = 0
        while k < len(u) and k < len(v) and v[-1 - k] == _INVERSE[u[k]]:
            k += 1
        inv = v[:len(v) - k] + u[k:]
        repl = _inverse(inv)
        if rel[i] == nc:
            repl, inv = inv, repl
        del rels[rid]
        rewritten = []
        for j in index.pop(gen):
            r = rels.get(j)
            if r is not None:
                rels[j] = substitute(r, gen, repl, inv)
                rewritten.append(j)
        for g in set(repl.translate(_GENERATOR)):
            index[g].update(rewritten)
        cell = letter[ord(gen)][0]
        out.generators.remove(cell)
        out.moves.append(("eliminate", cell, why))
        if audit is not None:
            out.relators = [decode(r) for r in rels.values()]
            audit(out)

    pivotal = [g for g in out.generators
               if tags.get(g) == "pivotal" and g in pairs]
    pivotal.sort(key=lambda g: _modified_pivotal_key(mc, g), reverse=True)
    for g in pivotal:
        rid = mc.index[2][pairs[g]]
        if rid in rels:
            eliminate(chr(number[g]), rid, "pivotal")

    # separating contraction: repeatedly remove the smallest separating
    # generator (the basis is in decreasing order) that some relator uses
    # exactly once, taking the shortest such relator (the earliest among
    # equals).  Substitution leaves relators conjugated by long words, so
    # when no relator uses a separating generator once, one whose cyclic
    # reduction does is replaced by that conjugate and the move is made
    # there.  A generator used once has exponent sum +-1, so this never
    # happens on a presentation whose relators are all balanced.
    separating = [chr(number[g]) for g in sorted(
        (g for g in out.generators if tags.get(g) == "separating"),
        key=lambda g: -mc.index[1][g])]

    def contract(cyclic: bool) -> bool:
        for g in separating:
            nc = _INVERSE[g]
            best = None
            for rid in index.get(g, ()):
                r = rels.get(rid, "")
                if cyclic:
                    r = _cyclic_reduce(r)
                if r.count(g) + r.count(nc) == 1 and (
                        best is None or (len(r), rid) < best):
                    best = (len(r), rid)
            if best is not None:
                rid = best[1]
                why = "separating merge"
                if cyclic:
                    rels[rid] = _cyclic_reduce(rels[rid])
                    why += ", relator cyclically reduced"
                eliminate(g, rid, why)
                separating.remove(g)
                return True
        return False

    while contract(False) or contract(True):
        pass

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
