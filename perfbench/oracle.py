"""Checks of every job's answer that do not trust the code under test.

Four checks, run outside the timed region on the plain data that
``workloads.observe`` extracts:

* euler: the Morse complex's Euler characteristic against Gal's series
  ``sum_n chi(UD_n) t^n = prod_v (1 + (1 - val v) t) / (1 - t)^|E|``
  (T. Gal, Colloq. Math. 89, 2001), times ``n!`` for the ordered flavor;
* h1: Morse H1 against the decomposition formula (arXiv:1101.2648);
* abelianization: the simplified presentation's abelianization, computed
  here by an independent Smith form, against Morse H1;
* golden: the full homology against ``golden.json``, looked up by the
  job's input.  It was recorded by ``record_golden.py`` for every job of the
  fixed workloads and of the corpus seeds GOLDEN_SEEDS; such a job that
  raised nothing must have an entry.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = range(40)


def gal_euler(valencies, n_edges: int, n: int, ordered: bool = False) -> int:
    """chi(UD_n) of a graph with the given vertex valencies and edge count,
    or chi(D_n) = n! chi(UD_n) when ordered."""
    poly = [1]
    for val in valencies:
        a = 1 - val
        poly = [x + a * y for x, y in zip(poly + [0], [0] + poly)]

    def inv(k):  # coefficient of t^k in (1 - t)^-|E|
        if n_edges == 0:
            return 1 if k == 0 else 0
        return math.comb(n_edges + k - 1, k)

    chi = sum(poly[j] * inv(n - j) for j in range(min(n, len(poly) - 1) + 1))
    return chi * math.factorial(n) if ordered else chi


def cokernel(rows, ncols: int) -> list:
    """[rank, torsion] of Z^ncols modulo the row span, by elimination with a
    smallest-magnitude pivot; no code from the package is used."""
    m = [list(r) for r in rows if any(r)]
    diag = []
    while m:
        # pivot: smallest nonzero magnitude anywhere
        pi, pj = min(((i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x),
                     key=lambda ij: abs(m[ij[0]][ij[1]]))
        p = m[pi][pj]
        clean = True
        for i, r in enumerate(m):
            if i != pi and r[pj]:
                q = r[pj] // p
                m[i] = r = [x - q * y for x, y in zip(r, m[pi])]
                clean = clean and not r[pj]
        row = m[pi]
        for j in range(len(row)):
            if j != pj and row[j]:
                q = row[j] // p
                for r in m:
                    r[j] -= q * r[pj]
                clean = clean and not row[j]
        if not clean:
            m = [r for r in m if any(r)]
            continue
        # p is alone in its row and column; it must divide everything left
        rest = [r for i, r in enumerate(m) if i != pi]
        bad = next((r for r in rest if any(x % p for x in r)), None)
        if bad is not None:
            m[pi] = [x + y for x, y in zip(m[pi], bad)]
            continue
        diag.append(abs(p))
        m = [r for r in rest if any(r)]
    return [ncols - len(diag), sorted(d for d in diag if d > 1)]


def setting_key(n: int, flavor: str) -> str:
    return f"{n}/{flavor}"


def encode(homology: dict) -> str:
    """A homology as one string: its groups in degree order, each as the
    rank followed by ``:t1,t2`` when there is torsion (``6:2`` is Z^6 + Z_2)."""
    degrees = sorted(homology, key=int)
    if degrees != [str(d) for d in range(len(degrees))]:
        raise ValueError(f"homology degrees {degrees} are not 0..n")
    out = []
    for d in degrees:
        rank, torsion = homology[d]
        out.append(f"{rank}:{','.join(map(str, torsion))}" if torsion else str(rank))
    return " ".join(out)


class Golden:
    """Recorded homology, by the job's input key (``workloads.Job.key``) and
    setting ``n/flavor``.  The lookup uses the job's spec, never the graph
    the code under test built from it."""

    def __init__(self, jobs=None):
        self.jobs: dict[str, dict[str, str]] = jobs if jobs is not None else {}

    @classmethod
    def load(cls):
        return cls(json.loads(GOLDEN_PATH.read_text())["jobs"])

    def lookup(self, key: str, setting: str):
        """The recorded homology, encoded, or None."""
        return self.jobs.get(key, {}).get(setting)

    def record(self, key: str, setting: str, homology: dict):
        """Add a result; raise if it contradicts one already recorded."""
        have = self.jobs.setdefault(key, {}).setdefault(setting, encode(homology))
        if have != encode(homology):
            raise ValueError(f"golden conflict at {key} {setting}: "
                             f"{have} vs {encode(homology)}")

    def dump(self):
        """Write the table, one input per line."""
        lines = [f"{json.dumps(k)}:{json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                 for k, v in sorted(self.jobs.items())]
        GOLDEN_PATH.write_text('{"jobs":{\n' + ",\n".join(lines) + "\n}}\n")


def check(obs: dict, golden: Golden | None,
          required: bool = False) -> tuple[list, bool]:
    """The failed checks of one job observation, and whether the golden
    table covered it.  An empty list means every applicable check passed.
    With ``required``, a job that raised nothing and has no golden entry
    fails the golden check."""
    bad = []
    ordered = obs["flavor"] == "ordered"
    hom = obs.get("homology")
    if "critical" in obs and "tree_graph" in obs:
        chi = sum((-1) ** int(d) * c for d, c in obs["critical"].items())
        tg = obs["tree_graph"]
        want = gal_euler(tg["valencies"], tg["edges"], obs["n"], ordered)
        if chi != want:
            bad.append(f"euler: Morse {chi}, Gal series {want}")
    if hom is not None and "h1_formula" in obs and hom["1"] != obs["h1_formula"]:
        bad.append(f"h1: Morse {hom['1']}, formula {obs['h1_formula']}")
    if hom is not None and "presentation" in obs:
        p = obs["presentation"]
        ab = cokernel(p["relations"], p["generators"])
        if ab != hom["1"]:
            bad.append(f"abelianization: {ab}, Morse H1 {hom['1']}")
    covered = False
    if golden is not None:
        want = golden.lookup(obs["key"], setting_key(obs["n"], obs["flavor"]))
        covered = want is not None
        if want is None and required and not obs["error"]:
            bad.append(f"golden: no entry for {obs['key']}")
        elif want is not None and hom is not None and want != encode(hom):
            bad.append(f"golden: {encode(hom)}, recorded {want}")
    return bad, covered
