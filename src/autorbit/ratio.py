"""Exact verification that deleting an edge set preserves the symmetry ratio.

For a graph G and a nonempty edge subset E', the quantity
|Aut(G)| / |AO_G(E')| equals |Aut(G - E')| / |AO_{G-E'}(E')|, where the first
orbit treats E' as edges of G and the second treats it as non-edges of
G - E'. The check is done by integer cross-multiplication so no rational
arithmetic sits on the pass/fail path.

Both groups come from the uncoloured search. The orbit on the side with the
smaller group (G on a tie) is always walked over the group's generators,
from E' or the rest of the pairs the group keeps, if smaller: E(G) - E'
under Aut(G), the non-edges of G under Aut(G - E'), orbits of equal size.
The law then predicts the other side's orbit; a small prediction is walked
as well, and a large one is replaced by |Aut| / |S|, where S, the
automorphisms of G that fix E' setwise, is found by a separate search of
G - E' with E' as a second edge colour. The prediction only picks the
method, never the number, and the walk and the coloured search share no
result, so a wrong orbit walk, a wrong group order or a wrong stabilizer
order each breaks the equality instead of being built into it.
Orbit–stabilizer on both sides would make the law hold by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .canon import automorphism_group, edge_set_stabilizer_order
from .errors import CapExceededError, EmptyEdgeSetError, ParameterRangeError
from .graphs import ENUMERATION_CAP, EdgeSet, Graph, Pair, emit_graph6, from_edge_mask
from .orbits import edge_set_orbit
from .perms import PermGroup

AutCache = dict[tuple[int, int], PermGroup]

SUBSET_POLICIES = ("single-edges", "all-subsets", "random")
# Largest predicted orbit walked on the larger-group side, picked among 4, 8, 16 and
# 32 by the least time on ratio-random-n8's ops, cold groups: 8,400 checks took
# 1.24-1.33 s at 8 against 1.33-1.39 s at 32 (least of 7 reps, 3 seeds, 2-core VM).
WALK_CUTOFF = 8
ALL_SUBSETS_CAP = 5
# sweep workers; the fork start method launches them all at the first submit
THREADS_CAP = 64


@dataclass(frozen=True)
class RatioReport:
    """All four counted quantities plus the cross-multiplied comparison."""

    aut_g: int
    ao_g: int
    aut_minus: int
    ao_minus: int
    lhs_cross: int
    rhs_cross: int
    holds: bool
    ratio: Fraction | None  # None when no orbit size of E' in G could be derived


@dataclass(frozen=True)
class SweepSummary:
    n: int
    policies: tuple[str, ...]
    samples: int
    seed: int | None
    graphs: int
    checks: int
    violations: tuple

    @property
    def holds(self) -> bool:
        return not self.violations


def cached_aut_group(graph: Graph, cache: AutCache | None = None) -> PermGroup:
    """Automorphism group, memoized by (n, edge mask) when a cache is supplied."""
    if cache is None:
        return automorphism_group(graph)
    key = (graph.n, graph.mask)
    group = cache.get(key)
    if group is None:
        group = automorphism_group(graph)
        cache[key] = group
    return group


def verify_ratio_identity(
    graph: Graph,
    deleted: Iterable[Pair],
    cache: AutCache | None = None,
) -> RatioReport:
    """Count both ratios exactly and compare them by cross-multiplication.

    The orbit of the deleted set is taken in the correct ambient graph on
    each side: under Aut(G) with the set as edges, and under Aut(G - E')
    with the set as non-edges. The side with the smaller group is walked (from
    the set, or its rest in the pairs the group keeps); the other side too if
    the law predicts at most ``WALK_CUTOFF`` states, else it gets |Aut| / |S|
    from the edge-coloured search for S. A stabilizer order that does not
    divide the group order gives an orbit size of 0, failing the comparison.
    """
    reduced = graph.delete_edges(deleted)  # the one check of E': range, loops, subset
    dset: EdgeSet = graph.edges - reduced.edges
    if not dset:
        raise EmptyEdgeSetError("the deleted edge set must be nonempty")
    group_g = cached_aut_group(graph, cache)
    group_minus = cached_aut_group(reduced, cache)
    # each side's walk starts from E' or, if smaller, the rest of the pairs its group keeps
    sides = [(group_g, dset if len(dset) <= reduced.m else reduced.edges),
             (group_minus, dset if len(dset) <= math.comb(graph.n, 2) - graph.m else graph.non_edges())]
    walk_g = group_g.order <= group_minus.order
    (small, seed_small), (big, seed_big) = sides if walk_g else sides[::-1]
    ao_small = edge_set_orbit(small, seed_small).size
    if big.order * ao_small <= WALK_CUTOFF * small.order:
        ao_big = edge_set_orbit(big, seed_big).size
    else:
        stabilizer = edge_set_stabilizer_order(reduced, dset)
        ao_big = big.order // stabilizer if stabilizer > 0 and big.order % stabilizer == 0 else 0
    ao_g, ao_minus = (ao_small, ao_big) if walk_g else (ao_big, ao_small)
    lhs = group_g.order * ao_minus
    rhs = group_minus.order * ao_g
    return RatioReport(
        aut_g=group_g.order,
        ao_g=ao_g,
        aut_minus=group_minus.order,
        ao_minus=ao_minus,
        lhs_cross=lhs,
        rhs_cross=rhs,
        holds=lhs == rhs,
        ratio=Fraction(group_g.order, ao_g) if ao_g else None,
    )


def subsets_for_graph(
    graph: Graph,
    policies: Sequence[str],
    samples: int,
    seed: int | None,
) -> list[EdgeSet]:
    """Deleted-set candidates for one graph under the given policies, deduplicated."""
    edges_sorted = sorted(graph.edges)
    m = len(edges_sorted)
    out: list[EdgeSet] = []
    seen: set[EdgeSet] = set()

    def push(subset: EdgeSet) -> None:
        if subset and subset not in seen:
            seen.add(subset)
            out.append(subset)

    for policy in policies:
        if policy == "single-edges":
            for e in edges_sorted:
                push(frozenset([e]))
        elif policy == "all-subsets":
            for k in range(1, m + 1):
                for combo in itertools.combinations(edges_sorted, k):
                    push(frozenset(combo))
        elif policy == "random":
            if m == 0:
                continue
            rng = random.Random(f"{seed}:{graph.n}:{graph.mask}")  # per graph: the same for any chunking
            for _ in range(samples):
                k = rng.randint(1, m)
                push(frozenset(rng.sample(edges_sorted, k)))
        else:
            raise ParameterRangeError(f"unknown subset policy {policy!r}")
    return out


def _sweep_range(
    n: int,
    policies: tuple[str, ...],
    samples: int,
    seed: int | None,
    collect_rows: bool,
    start: int,
    stop: int,
) -> tuple[int, list, list]:
    cache: AutCache = {}
    checks = 0
    violations: list = []
    rows: list = []
    for mask in range(start, stop):
        graph = from_edge_mask(n, mask)
        for dset in subsets_for_graph(graph, policies, samples, seed):
            report = verify_ratio_identity(graph, dset, cache)
            checks += 1
            if report.holds and not collect_rows:
                continue
            counts = {key: getattr(report, key) for key in ("aut_g", "ao_g", "aut_minus", "ao_minus")}
            deleted = sorted(dset)
            if not report.holds:
                g6, edges = emit_graph6(graph), ",".join(f"{u}-{v}" for u, v in deleted)
                argv = ["autorbit", "verify", "--graph", g6, "--edges", edges]
                violations.append({"mask": mask, "deleted": deleted, "graph6": g6, "argv": argv, **counts})
            if collect_rows:
                rows.append((mask, tuple(deleted), *counts.values(), report.holds))
    return checks, violations, rows


def _check_sweep_args(n: int, policies: Sequence[str], seed: int | None, threads: int) -> None:
    """Raise the error that stops a sweep with these arguments, before any work.

    ``sweep_verify`` runs it; so does the CLI, before ``--csv`` truncates its file.
    """
    for policy in policies:
        if policy not in SUBSET_POLICIES:
            raise ParameterRangeError(f"unknown subset policy {policy!r}")
    if n < 0:
        raise ParameterRangeError(f"n must be non-negative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    if "all-subsets" in policies and n > ALL_SUBSETS_CAP:
        raise CapExceededError(f"all-subsets sweeps are capped at n={ALL_SUBSETS_CAP}")
    if "random" in policies and seed is None:
        raise ParameterRangeError("random subset policy requires an explicit seed (--seed)")
    if threads > THREADS_CAP:
        raise ParameterRangeError(f"threads={threads} exceeds the cap of {THREADS_CAP}")


def sweep_verify(
    n: int,
    policies: Sequence[str] = ("single-edges",),
    samples: int = 20,
    seed: int | None = None,
    threads: int = 1,
    collect_rows: bool = False,
) -> SweepSummary | tuple[SweepSummary, list]:
    """Run the identity over every labeled graph on n vertices.

    Policies combine: each graph is checked against the union of the chosen
    deleted-set families. Any violation would indicate an implementation bug;
    each one carries its graph6 and the ``autorbit verify`` argv that replays it.
    """
    policies = tuple(policies)
    _check_sweep_args(n, policies, seed, threads)
    total = 1 << math.comb(n, 2)
    chunk = total if threads <= 1 else max(1, math.ceil(total / (threads * 4)))
    starts = range(0, total, chunk)
    stops = [min(lo + chunk, total) for lo in starts]
    job = functools.partial(_sweep_range, n, policies, samples, seed, collect_rows)
    if threads <= 1:
        parts = list(map(job, starts, stops))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a forking sweep loads multiprocessing
        with ProcessPoolExecutor(max_workers=min(threads, len(starts))) as pool:
            parts = list(pool.map(job, starts, stops))
    # parts come in submission order, which is mask order, so the merge is stable
    checks, violations, rows = zip(*parts)
    rows = [row for part in rows for row in part]
    summary = SweepSummary(
        n=n,
        policies=policies,
        samples=samples,
        seed=seed,
        graphs=total,
        checks=sum(checks),
        violations=tuple(v for part in violations for v in part),
    )
    if collect_rows:
        return summary, rows
    return summary
