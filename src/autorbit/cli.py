"""Command-line surface: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 when every check passes, 1 when a computed check fails, 2 on
input or usage errors. Reports are byte-identical across runs for fixed
inputs and seed, except for the timing field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from .canon import automorphism_group, canonical_form
from .errors import AutorbitError, CapExceededError, PreconditionError, VertexRangeError
from .ermodel import (
    count_labeled_copies,
    er_prob_isomorphic,
    estimate_prob_isomorphic,
    sample_er,
    verify_binomial_cancellation,
    verify_proof_chain,
)
from .graphs import Graph, Pair, emit_graph6, normalize_pair, parse_edge_list, parse_graph6
from .orbits import edge_set_orbit, pair_orbit, vertex_orbit
from .ratio import _check_sweep_args, sweep_verify, verify_ratio_identity
from .recon import augmented_deck, classic_deck, recover_aut_order, unique_extension_filter

# er-check-cancel runs about nmax**5 / 40 cases: 80,332 in 0.7-0.9 s at nmax = 20,
# against 2.9-3.7 s (199,640 cases) at 24 and 19 s at 30 (2-core VM)
ER_CHECK_NMAX = 20


def load_graph(spec: str) -> Graph:
    """Accept a graph6 literal, a graph6 file, or an edge-list file.

    Files are sniffed by their first line: two integers mean the edge-list
    format, anything else is treated as graph6.
    """
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:  # a long graph6 literal can exceed the file-name limit
        is_file = False
    try:
        text = path.read_text() if is_file else spec
    except (OSError, UnicodeDecodeError) as exc:
        raise AutorbitError(f"cannot read graph file {spec!r}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise AutorbitError("empty graph specification")
    first = stripped.splitlines()[0].split()
    if len(first) == 2 and all(tok.lstrip("-").isdigit() for tok in first):
        return parse_edge_list(text)
    return parse_graph6(stripped.splitlines()[0])


def _vertex_token(token: str, labels: list[str] | None) -> int:
    token = token.strip()
    if labels and token in labels:
        return labels.index(token)
    try:
        return int(token)
    except ValueError as exc:
        raise AutorbitError(f"unknown vertex token {token!r}") from exc


def parse_edges_arg(text: str, labels: list[str] | None = None) -> frozenset[Pair]:
    """Parse 'u-v,u-v,...' with optional symbolic labels."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sides = chunk.split("-")
        if len(sides) != 2:
            raise AutorbitError(f"bad edge token {chunk!r}; expected 'u-v'")
        pairs.append((_vertex_token(sides[0], labels), _vertex_token(sides[1], labels)))
    if not pairs:
        raise AutorbitError("no edges given")
    return frozenset(pairs)


def _fields(obj) -> dict:
    """A dataclass's fields by name, one level deep; json's encoder walks the values."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _encode(obj):
    """What json cannot write itself: exact fractions, bytes, graphs, sets and report dataclasses."""
    if isinstance(obj, Fraction):
        return {"numerator": str(obj.numerator), "denominator": str(obj.denominator)}
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, Graph):  # before the dataclass case, as Graph is one
        return {"n": obj.n, "m": obj.m, "graph6": emit_graph6(obj)}
    if isinstance(obj, frozenset):
        return sorted(obj)
    return _fields(obj)  # raises TypeError, as json expects, on anything but a dataclass


def _labels(args) -> list[str] | None:
    labels = None if args.labels is None else [s.strip() for s in args.labels.split(",")]
    if labels and ("" in labels or len(set(labels)) < len(labels)):
        raise AutorbitError(f"--labels needs distinct non-empty names, got {args.labels!r}")
    return labels


def _cmd_aut(args):
    graph = load_graph(args.graph)
    group = automorphism_group(graph)
    results = {
        "n": graph.n,
        "m": graph.m,
        "order": str(group.order),
        "generators": [list(g) for g in group.generators],
        "certificate": canonical_form(graph).hex(),
    }
    return {"graph": args.graph}, results, False


def _cmd_orbit(args):
    graph = load_graph(args.graph)
    labels = _labels(args)
    group = automorphism_group(graph)
    if args.vertex is not None:
        orbit = vertex_orbit(group, _vertex_token(args.vertex, labels))
    elif args.pair is not None:
        pairs = {normalize_pair(*p) for p in parse_edges_arg(args.pair, labels)}
        if len(pairs) != 1:
            raise AutorbitError(f"--pair takes exactly one pair, got {len(pairs)}")
        orbit = pair_orbit(group, next(iter(pairs)))
    else:
        orbit = edge_set_orbit(group, parse_edges_arg(args.edges, labels))
    results = {
        "kind": orbit.kind,
        "size": orbit.size,
        "elements": orbit.sorted_elements(),
    }
    inputs = {"graph": args.graph, "vertex": args.vertex, "pair": args.pair, "edges": args.edges}
    return inputs, results, False


def _cmd_verify(args):
    graph = load_graph(args.graph)
    deleted = parse_edges_arg(args.edges, _labels(args))
    report = verify_ratio_identity(graph, deleted)
    return {"graph": args.graph, "edges": args.edges}, report, not report.holds


def _cmd_sweep(args):
    policies = tuple(
        {"single": "single-edges", "all": "all-subsets", "random": "random"}.get(p.strip(), p.strip())
        for p in args.subsets.split(",")
    )
    sweep = functools.partial(
        sweep_verify, args.n, policies, samples=args.samples, seed=args.seed, threads=args.threads
    )
    if args.csv is None:
        summary = sweep()
    else:
        _check_sweep_args(args.n, policies, args.seed, args.threads)  # before the file is truncated
        try:  # before the sweep, so a bad path costs no work
            fh = open(args.csv, "w", newline="")
        except OSError as exc:
            raise AutorbitError(f"cannot write --csv file: {exc}") from exc
        with fh:
            summary, rows = sweep(collect_rows=True)
            writer = csv.writer(fh)
            writer.writerow("mask deleted aut_g ao_g aut_minus ao_minus ratio holds".split())
            for mask, dset, aut_g, ao_g, aut_minus, ao_minus, holds in rows:
                deleted = ";".join(f"{u}-{v}" for u, v in dset)
                ratio = str(Fraction(aut_g, ao_g)) if ao_g else ""
                writer.writerow([mask, deleted, aut_g, ao_g, aut_minus, ao_minus, ratio, holds])
    inputs = {
        "n": args.n,
        "subsets": args.subsets,
        "samples": args.samples,
        "seed": args.seed,
        "threads": args.threads,
    }
    return inputs, {**_fields(summary), "holds": summary.holds}, not summary.holds


def _cmd_er_prob(args):
    graph = load_graph(args.graph)
    group = automorphism_group(graph)
    prob = er_prob_isomorphic(graph, group.order)
    results = {
        "n": graph.n,
        "m": graph.m,
        "aut_order": str(group.order),
        "labeled_copies": str(count_labeled_copies(graph, group.order)),
        "edge_set_count": str(math.comb(math.comb(graph.n, 2), graph.m)),
        "probability": prob,
    }
    return {"graph": args.graph}, results, False


def _cmd_er_sample(args):
    if args.trials is not None:
        if args.graph is None or args.n is not None or args.m is not None:
            raise AutorbitError("estimate mode needs --graph as the target and takes no --n or --m")
        target = load_graph(args.graph)
        exact = er_prob_isomorphic(target)  # first: a cap fails before any trial, and the estimator reuses the kept search
        estimate = estimate_prob_isomorphic(target, args.trials, args.seed)
        sigma = math.sqrt(exact * (1 - exact) / estimate.trials)
        deviation = abs(estimate.estimate - float(exact))
        failed = deviation > 6 * sigma
        results = {
            "trials": estimate.trials,
            "hits": estimate.hits,
            "estimate": estimate.estimate,
            "ci95_halfwidth": estimate.ci95_halfwidth,
            "exact": exact,
            "abs_error": deviation,
            "within_6_sigma": not failed,
        }
        inputs = {"graph": args.graph, "trials": args.trials, "seed": args.seed}
        return inputs, results, failed
    if args.n is None or args.m is None:
        raise AutorbitError("er-sample needs --n and --m (or --trials with --graph)")
    if args.graph is not None:
        raise AutorbitError("--graph is the estimate mode's target and needs --trials")
    sample = sample_er(args.n, args.m, args.seed)
    inputs = {"n": args.n, "m": args.m, "seed": args.seed}
    return inputs, {"graph6": emit_graph6(sample)}, False


def _cmd_er_check_cancel(args):
    if args.nmax > ER_CHECK_NMAX:
        raise CapExceededError(f"--nmax is capped at {ER_CHECK_NMAX}")
    cases = 0
    failures = []
    for n in range(1, args.nmax + 1):
        big_n = math.comb(n, 2)
        for m in range(1, big_n + 1):
            for k in range(1, m + 1):
                cases += 1
                if not verify_binomial_cancellation(n, m, k):
                    failures.append({"n": n, "m": m, "k": k})
    results = {"nmax": args.nmax, "cases": cases, "failures": failures, "all_hold": not failures}
    return {"nmax": args.nmax}, results, bool(failures)


def _cmd_proof_chain(args):
    graph = load_graph(args.graph)
    deleted = parse_edges_arg(args.edges, _labels(args))
    report = verify_proof_chain(graph, deleted)
    checks = [{**_fields(chk), "holds": chk.holds} for chk in report.checks]
    results = {**_fields(report), "all_hold": report.all_hold, "checks": checks}
    return {"graph": args.graph, "edges": args.edges}, results, not report.all_hold


def _cmd_deck(args):
    graph = load_graph(args.graph)
    deck = classic_deck(graph) if args.kind == "classic" else augmented_deck(graph)
    classes = [
        {
            "graph6": emit_graph6(cls.representative.graph),
            "certificate": cls.certificate.hex(),
            "multiplicity": cls.multiplicity,
        }
        for cls in deck.classes
    ]
    results = {"kind": deck.kind, "cards": len(deck.cards), "classes": classes}
    return {"graph": args.graph, "kind": args.kind}, results, False


def _cmd_recover_aut(args):
    graph = load_graph(args.graph)
    if args.vertex is not None and not 0 <= args.vertex < graph.n:
        raise VertexRangeError(f"--vertex {args.vertex} is not in 0..{graph.n - 1}")
    deck = augmented_deck(graph)
    if len({card.deleted_edges for card in deck.cards}) < graph.n:  # else multiplicity != |AO_G(E_v)|
        raise PreconditionError("a K2 component or two isolated vertices share their incident edges")
    group = automorphism_group(graph)
    mults = deck.multiplicities()
    pseudo = [v for v in range(graph.n) if mults[deck.certificates[v]] != vertex_orbit(group, v).size]
    if pseudo:  # recover_aut_order needs the multiplicity to be the orbit's size
        raise PreconditionError(f"pseudo-similar vertices {pseudo}: their cards match cards from other orbits")
    vertices = [args.vertex] if args.vertex is not None else list(range(graph.n))
    entries = []
    failed = False
    for v in vertices:
        card = deck.cards[v]
        multiplicity = mults[deck.certificates[v]]
        recovered = recover_aut_order(card.graph, multiplicity, card.deleted_edges)
        ok = recovered == group.order
        failed = failed or not ok
        entries.append(
            {
                "vertex": v,
                "multiplicity": multiplicity,
                "card_graph6": emit_graph6(card.graph),
                "recovered": str(recovered),
                "match": ok,
            }
        )
    results = {"true_order": str(group.order), "cards": entries}
    return {"graph": args.graph, "vertex": args.vertex}, results, failed


def _cmd_recon_filter(args):
    graph = load_graph(args.graph)
    full_deck = augmented_deck(graph)
    report = unique_extension_filter(full_deck.blind())
    matches = None
    failed = False
    if report.unique:
        matches = report.certified[0].certificate == canonical_form(graph)
        failed = not matches
    deck_view = []
    for cls in full_deck.classes:
        entry = {"graph6": emit_graph6(cls.representative.graph), "multiplicity": cls.multiplicity}
        if not args.blind:
            entry["origin_vertices"] = sorted(
                c.origin_vertex
                for c, cert in zip(full_deck.cards, full_deck.certificates)
                if cert == cls.certificate
            )
        deck_view.append(entry)
    results = {**_fields(report), "matches_input": matches, "deck": deck_view}
    inputs = {"graph": args.graph, "blind": args.blind}
    return inputs, results, failed


_HANDLERS = {
    "aut": _cmd_aut,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "er-prob": _cmd_er_prob,
    "er-sample": _cmd_er_sample,
    "er-check-cancel": _cmd_er_check_cancel,
    "proof-chain": _cmd_proof_chain,
    "deck": _cmd_deck,
    "recover-aut": _cmd_recover_aut,
    "recon-filter": _cmd_recon_filter,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="autorbit",
        description="Automorphism orbits of edge sets and the symmetry-ratio toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_flag(p, labels=False):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--graph", help="graph6 string, graph6 file, or edge-list file")
        group.add_argument("--graph6", dest="graph", help="graph6 string (alias of --graph)")
        if labels:  # only where vertex tokens are read
            p.add_argument("--labels", help="comma-separated vertex labels usable in vertex and edge flags")

    p = sub.add_parser("aut", help="automorphism group order and generators")
    graph_flag(p)

    p = sub.add_parser("orbit", help="orbit of a vertex, pair, or edge set")
    graph_flag(p, labels=True)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--vertex")
    kind.add_argument("--pair", help="single pair as 'u-v'")
    kind.add_argument("--edges", help="pair set as 'u-v,u-v,...'")

    p = sub.add_parser("verify", help="check the symmetry-ratio identity for one deletion")
    graph_flag(p, labels=True)
    p.add_argument("--edges", required=True, help="deleted edges as 'u-v,u-v,...'")

    p = sub.add_parser("sweep", help="verify the identity across all labeled graphs of size n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subsets", default="single", help="single, all, random, or a comma mix")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", help="write one row per check to this path")

    p = sub.add_parser("er-prob", help="exact probability of drawing this isomorphism class")
    graph_flag(p)

    p = sub.add_parser("er-sample", help="uniform G(n, m) sample or seeded estimate")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--graph", help="target class for estimate mode")

    p = sub.add_parser("er-check-cancel", help="binomial cancellation identity over a range")
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("proof-chain", help="exact rational check of the probability chain")
    graph_flag(p, labels=True)
    p.add_argument("--edges", required=True)

    p = sub.add_parser("deck", help="card classes and multiplicities")
    graph_flag(p)
    p.add_argument("--kind", choices=("augmented", "classic"), default="augmented")

    p = sub.add_parser("recover-aut", help="recover the automorphism count from deck cards")
    graph_flag(p)
    p.add_argument("--vertex", type=int)

    p = sub.add_parser("recon-filter", help="unique-extension filter on the deck")
    graph_flag(p)
    p.add_argument("--blind", action="store_true", help="omit origin-vertex bookkeeping from the report")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag, low in (("threads", 1), ("nmax", 1), ("samples", 0)):
        if getattr(args, flag, low) < low:
            print(f"error: --{flag} must be at least {low}", file=sys.stderr)
            return 2
    started = time.perf_counter()
    try:
        inputs, results, failed = _HANDLERS[args.command](args)
    except AutorbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    print(json.dumps(report, sort_keys=True, default=_encode))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
