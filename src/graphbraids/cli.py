"""Command-line interface: build configuration spaces, run both homology
routes, cross-validate them, and emit presentations and decompositions."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .graphs import build_graph, subdivide, betti1, GraphError
from .trees import choose_tree_and_order, verify_conditions, TreeError
from .fixtures import pinned_tree
from .morse import build_morse_complex, MorseError
from .homology import homology, classify_1cells
from .decompose import (h1_formula, beta2_formula, invariant_bundle,
                        decomposition_tree, is_planar,
                        classify_beta1_characterizations)
from .present import raw_presentation, simplify
from . import cells as C
from .cells import CellError


def _load_graph(spec: str):
    path = Path(spec)
    return build_graph(path.read_text() if path.exists() else spec)


def _prepare_tree(args):
    """Pinned example tree when one exists for (graph, n), otherwise subdivide
    and construct; returns (tree, provenance string)."""
    g = _load_graph(args.graph)
    if args.subdivide == "pinned":
        t = pinned_tree(args.graph, args.n)
        if t is not None:
            return t, "pinned"
        policy = "strict" if args.n == 2 else "auto"
    else:
        policy = args.subdivide
        if policy.isdigit():
            policy = int(policy)
    gs, record = subdivide(g, args.n, policy)
    mode = args.mode
    t = choose_tree_and_order(gs, args.n, mode)
    return t, f"subdivide={policy},mode={mode}"


def _report(args, command, results, verdict=None, t0=None):
    rep = {
        "command": command,
        "inputs": {"graph": args.graph, "n": args.n,
                   "flavor": getattr(args, "flavor", None),
                   "mode": getattr(args, "mode", None),
                   "method": getattr(args, "method", None)},
        "results": results,
    }
    if verdict is not None:
        rep["verdict"] = verdict
    if t0 is not None:
        rep["timing_ms"] = round(1000 * (time.perf_counter() - t0), 1)
    return rep


def _emit(args, report):
    if args.format == "json":
        print(json.dumps(report, indent=2, default=str))
    else:
        _print_text(report)


def _print_text(rep, indent=0):
    pad = "  " * indent
    for key, val in rep.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_text(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _print_text(item, indent + 1)
                print(f"{pad}  -")
        else:
            print(f"{pad}{key}: {val}")


def cmd_homology(args):
    t0 = time.perf_counter()
    tree, prov = _prepare_tree(args)
    mc = build_morse_complex(tree, args.n, args.flavor, path=args.method,
                             cap=args.cap)
    h = homology(mc)
    results = {
        "tree": prov,
        "critical_cells": {d: len(cs) for d, cs in mc.critical.items()},
        "euler_characteristic": mc.euler_characteristic(),
        "homology": [{"degree": d, **g.to_json()} for d, g in sorted(h.items())],
    }
    return _report(args, "homology", results, t0=t0), 0


def cmd_formula(args):
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    flavor = "P2" if args.flavor == "ordered" else "B"
    if flavor == "P2" and args.n != 2:
        raise GraphError("the closed formula for ordered flavor needs n = 2")
    h1 = h1_formula(g, args.n, flavor)
    results = {"H1": h1.to_json()}
    if args.n >= 2:
        results["bundle"] = invariant_bundle(g, args.n).to_json()
    else:
        results["notice"] = ("n = 1 braid groups are fundamental groups of "
                             "the graph itself; returning its abelianization")
    return _report(args, "formula", results, t0=t0), 0


def _covering_failure(pn, bn, h_p, h_b):
    """How D_n -> UD_n, an n!-sheeted covering whose gradient lifts the one
    on UD_n, fails to show in the Morse complexes pn (ordered) and bn
    (unordered) and their homologies, or None: every ordered critical
    cell's Morse boundary, summed over phi(.)[0], must be the unordered
    boundary of phi(c)[0], and rank H_d(B_n) <= rank H_d(P_n) by transfer."""
    for d in sorted(pn.boundaries):
        lower = bn.index[d - 1]
        faces = pn.critical[d - 1]
        for c, row in zip(pn.critical[d], pn.boundaries[d]):
            pushed: dict = {}
            for j, x in row.items():
                k = lower[C.phi(faces[j])[0]]
                pushed[k] = pushed.get(k, 0) + x
            pushed = {k: x for k, x in pushed.items() if x}
            if pushed != bn.boundaries[d][bn.index[d][C.phi(c)[0]]]:
                return (f"the boundary of {C.format_cell(c, True)} does not "
                        f"cover the unordered one")
    for d in sorted(h_b.keys() | h_p.keys()):
        if d not in h_b or d not in h_p:
            return f"degree {d} is in one flavor only"
        if h_b[d].rank > h_p[d].rank:
            return (f"rank H_{d}(B_n) = {h_b[d].rank} exceeds "
                    f"rank H_{d}(P_n) = {h_p[d].rank}")
    return None


def _check_covering(args, tree, prov, t0):
    """graphbraids check for ordered n >= 3, where no formula exists."""
    pn = build_morse_complex(tree, args.n, "ordered", path=args.method,
                             cap=args.cap)
    bn = build_morse_complex(tree, args.n, "unordered", cap=args.cap)
    h_p, h_b = homology(pn), homology(bn)
    failure = _covering_failure(pn, bn, h_p, h_b)
    results = {"tree": prov,
               "critical_cells": {d: len(cs) for d, cs in pn.critical.items()},
               "ordered_homology": [{"degree": d, **g.to_json()}
                                    for d, g in sorted(h_p.items())],
               "unordered_homology": [{"degree": d, **g.to_json()}
                                      for d, g in sorted(h_b.items())]}
    verdict = "match" if failure is None else f"mismatch({failure})"
    return (_report(args, "check", results, verdict=verdict, t0=t0),
            0 if failure is None else 1)


def cmd_check(args):
    t0 = time.perf_counter()
    tree, prov = _prepare_tree(args)
    if args.flavor == "ordered" and args.n >= 3:
        return _check_covering(args, tree, prov, t0)
    mc = build_morse_complex(tree, args.n, args.flavor, path=args.method,
                             cap=args.cap)
    h = homology(mc)[1]
    flavor = "P2" if args.flavor == "ordered" else "B"
    g = _load_graph(args.graph)
    hf = h1_formula(g, args.n, flavor)
    match = (h.rank, h.torsion) == (hf.rank, hf.torsion)
    verdict = "match" if match else \
        f"mismatch(morse={h}, formula={hf})"
    results = {"tree": prov, "morse_H1": h.to_json(), "formula_H1": hf.to_json()}
    return _report(args, "check", results, verdict=verdict, t0=t0), (0 if match else 1)


def cmd_decompose(args):
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    tree = decomposition_tree(g)
    results = tree.to_json()
    results["planar"] = is_planar(g)
    results["beta1"] = betti1(g)
    if args.n >= 2:
        results["bundle"] = invariant_bundle(g, args.n, tree).to_json()
    results["beta1_characterizations"] = classify_beta1_characterizations(g)
    return _report(args, "decompose", results, t0=t0), 0


def cmd_cells(args):
    t0 = time.perf_counter()
    tree, prov = _prepare_tree(args)
    mc = build_morse_complex(tree, args.n, args.flavor, cap=args.cap)
    crit = {}
    for d, cs in mc.critical.items():
        crit[f"dim{d}"] = [
            {"cell": C.format_cell(c, mc.ordered), "name": mc.name_of(c)}
            for c in cs]
    tags = None
    if not mc.ordered or args.n == 2:
        tags = {mc.name_of(c): tag for c, tag in classify_1cells(mc).items()}
    results = {"tree": prov, "critical": crit}
    if tags:
        results["one_cell_tags"] = tags
    if args.boundaries and 2 in mc.boundaries:
        lower = mc.critical[1]
        chains = {}
        for c2, row in zip(mc.critical[2], mc.boundaries[2]):
            terms = [f"{'+' if x > 0 else '-'}{abs(x) if abs(x) != 1 else ''}"
                     f"{mc.name_of(lower[j])}" for j, x in sorted(row.items())]
            chains[mc.name_of(c2)] = " ".join(terms) if terms else "0"
        results["boundaries"] = chains
    return _report(args, "cells", results, t0=t0), 0


def cmd_tree(args):
    t0 = time.perf_counter()
    tree, prov = _prepare_tree(args)
    rep = verify_conditions(tree, planar=(args.mode == "planar"))
    results = {
        "tree": prov,
        "dump": tree.debug_dump().splitlines(),
        "conditions": {"t1": rep.t1, "t2": rep.t2, "t3": rep.t3,
                       "t4": rep.t4, "witnesses": rep.witnesses},
        "stem_length": tree.stem_length(),
    }
    return _report(args, "tree", results, t0=t0), 0


def cmd_present(args):
    t0 = time.perf_counter()
    tree, prov = _prepare_tree(args)
    mc = build_morse_complex(tree, args.n, args.flavor, path=args.method,
                             cap=args.cap)
    pres = raw_presentation(mc)
    if not args.raw:
        pres = simplify(pres, mc)
    results = {"tree": prov}
    results.update(pres.display())
    results["abelianization"] = pres.abelianization().to_json()
    return _report(args, "present", results, t0=t0), 0


def cmd_beta2(args):
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    results = {"beta2_B2": beta2_formula(g, "B2"),
               "beta2_P2": beta2_formula(g, "P2")}
    if args.direct:
        gs, _ = subdivide(g, 2, "strict")
        t = choose_tree_and_order(gs, 2)
        results["beta2_B2_direct"] = homology(
            build_morse_complex(t, 2, "unordered"))[2].rank
        results["beta2_P2_direct"] = homology(
            build_morse_complex(t, 2, "ordered"))[2].rank
    return _report(args, "beta2", results, t0=t0), 0


def make_parser():
    p = argparse.ArgumentParser(
        prog="graphbraids",
        description="homology and presentations of graph braid groups")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tree_args=True):
        sp.add_argument("--graph", required=True,
                        help="built-in name, K(m), K(m,n), Theta(m), file, or JSON")
        sp.add_argument("--n", type=int, default=2, help="braid index")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if tree_args:
            sp.add_argument("--flavor", choices=("unordered", "ordered"),
                            default="unordered")
            sp.add_argument("--mode", choices=("generic", "planar"),
                            default="generic")
            sp.add_argument("--method", choices=("generic", "fast", "both"),
                            default="generic")
            sp.add_argument("--subdivide", default="pinned",
                            help="pinned|auto|strict|uniform|none|<k>")
            sp.add_argument("--cap", type=int, default=10_000_000)

    for name, fn, tree_args in (
            ("homology", cmd_homology, True), ("formula", cmd_formula, False),
            ("check", cmd_check, True), ("decompose", cmd_decompose, False),
            ("cells", cmd_cells, True), ("tree", cmd_tree, True),
            ("present", cmd_present, True), ("beta2", cmd_beta2, False)):
        sp = sub.add_parser(name)
        common(sp, tree_args)
        if name == "formula":
            sp.add_argument("--flavor", choices=("unordered", "ordered"),
                            default="unordered")
        if name == "cells":
            sp.add_argument("--boundaries", action="store_true",
                            help="include Morse boundary chains of 2-cells")
        if name == "present":
            sp.add_argument("--raw", action="store_true",
                            help="emit the unsimplified presentation")
        if name == "beta2":
            sp.add_argument("--direct", action="store_true",
                            help="also compute directly from Morse complexes")
        sp.set_defaults(fn=fn)
    return p


def run(argv):
    args = make_parser().parse_args(argv)
    try:
        report, status = args.fn(args)
    except (GraphError, TreeError, MorseError, CellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, report)
    return status


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
