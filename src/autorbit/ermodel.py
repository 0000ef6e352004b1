"""Exact G(n, m) isomorphism-class probabilities, a uniform sampler, and
mechanical checks of the probability chain behind the symmetry-ratio result.

All probabilities are exact rationals; floating point only appears in Monte
Carlo estimates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .canon import automorphism_group, is_isomorphic
from .errors import EdgeCountRangeError, ParameterRangeError
from .graphs import EdgeSet, Graph, Pair, all_pairs, check_vertex_cap, edge_set, pair_unrank
from .ratio import AutCache, verify_ratio_identity


@dataclass(frozen=True)
class SampleEstimate:
    """Monte Carlo hit-rate with a normal-approximation 95% half-width."""

    trials: int
    hits: int
    estimate: float
    ci95_halfwidth: float


@dataclass(frozen=True)
class EquationCheck:
    name: str
    lhs: Fraction
    rhs: Fraction | None  # None when the right side divides by an orbit size of 0

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class ProofChainReport:
    n: int
    m: int
    k: int
    trivial_case: bool
    checks: tuple[EquationCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def count_labeled_copies(graph: Graph, aut_order: int | None = None) -> int:
    """Number of distinct labeled edge sets isomorphic to the graph: n!/|Aut|."""
    order = automorphism_group(graph).order if aut_order is None else aut_order
    if order < 1:
        raise ParameterRangeError(f"|Aut| must be at least 1, got {order}")
    total = math.factorial(graph.n)
    if total % order:
        raise ParameterRangeError(f"|Aut| = {order} does not divide {graph.n}!")
    return total // order


def er_prob_isomorphic(graph: Graph, aut_order: int | None = None) -> Fraction:
    """Exact probability that a uniform G(n, m) draw is isomorphic to the graph."""
    n, m = graph.n, graph.m
    copies = count_labeled_copies(graph, aut_order)
    return Fraction(copies, math.comb(math.comb(n, 2), m))


def _floyd_steps(n: int, m: int) -> Iterator[tuple[int, int]]:
    """Floyd's steps j for m of C(n, 2) pairs, each with the bit length k of j + 1."""
    return ((j, (j + 1).bit_length()) for j in range(math.comb(n, 2) - m, math.comb(n, 2)))


def _draw_pairs(rng: random.Random, steps: Iterable[tuple[int, int]]) -> set[int]:
    """Pair indices by Floyd's subset sampling; step (j, k) draws below j + 1 as ``randrange(j + 1)`` does."""
    getrandbits = rng.getrandbits
    chosen: set[int] = set()
    for j, k in steps:
        t = getrandbits(k)
        while t > j:
            t = getrandbits(k)
        chosen.add(t if t not in chosen else j)
    return chosen


def sample_er(n: int, m: int, seed: int | random.Random | None = None) -> Graph:
    """Uniform graph with n vertices and exactly m edges, deterministic per seed.

    Edges are drawn without replacement over pair indices using Floyd's
    subset-sampling algorithm, drawing the same stream as ``randrange``.
    """
    if n < 1:
        raise EdgeCountRangeError("the model needs at least one vertex")
    check_vertex_cap(n)
    total = math.comb(n, 2)
    if not 0 <= m <= total:
        raise EdgeCountRangeError(f"m={m} outside 0..{total} for n={n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return Graph(n, frozenset(pair_unrank(i) for i in _draw_pairs(rng, _floyd_steps(n, m))))


def _neighbour_degrees(degrees: Sequence[int], edges: Iterable[Pair]) -> list[list[int]]:
    """Each vertex's sorted neighbour degrees, its signature; a list's length is the degree."""
    neighbours: list[list[int]] = [[] for _ in degrees]
    for u, v in edges:
        neighbours[u].append(degrees[v])
        neighbours[v].append(degrees[u])
    return list(map(sorted, neighbours))


def _relabelled(signatures: Sequence[list[int]], edges: Iterable[Pair]) -> frozenset[Pair]:
    """The edges with vertices renumbered in signature order, ties by vertex number: the form."""
    order = sorted(range(len(signatures)), key=signatures.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
    return frozenset((rank[u], rank[v]) if rank[u] < rank[v] else (rank[v], rank[u]) for u, v in edges)


def estimate_prob_isomorphic(graph: Graph, trials: int, seed: int | None = None) -> SampleEstimate:
    """Monte Carlo estimate of the isomorphism-class probability.

    Trials draw pair indices from one seeded stream, exactly as ``sample_er``
    does. A draw whose sorted degree sequence differs from the target's cannot
    be isomorphic to it and is dropped without building a graph. The rest are
    memoized per labelled draw (small targets pass with few labelled graphs);
    a new one must also match the target's neighbour degrees, one more round
    of colour refinement. Both screens are isomorphism invariants. A draw
    that passes is relabelled in signature order, and ``is_isomorphic``
    decides each new form once: draws with equal forms are isomorphic to it,
    so the hits are those of comparing every draw.
    """
    if trials < 1:
        raise ParameterRangeError("trials must be positive")
    n, m = graph.n, graph.m
    if n < 1:
        raise EdgeCountRangeError("the model needs at least one vertex")
    check_vertex_cap(n)
    signatures = _neighbour_degrees(graph.degrees(), graph.edges)
    degrees, profile = sorted(graph.degrees()), sorted(signatures)
    pairs = all_pairs(n)
    rng, steps = random.Random(seed), tuple(_floyd_steps(n, m))
    iso_by_draw: dict[frozenset[int], bool] = {}
    iso_by_form = {None: False, _relabelled(signatures, graph.edges): True}  # None: screened out
    hits = 0
    for _ in range(trials):
        chosen = _draw_pairs(rng, steps)
        counts = [0] * n
        for i in chosen:
            u, v = pairs[i]
            counts[u] += 1
            counts[v] += 1
        if sorted(counts) == degrees:
            key = frozenset(chosen)
            hit = iso_by_draw.get(key)
            if hit is None:
                edges = [pairs[i] for i in chosen]
                signatures = _neighbour_degrees(counts, edges)
                form = _relabelled(signatures, edges) if sorted(signatures) == profile else None
                hit = iso_by_form.get(form)
                if hit is None:
                    hit = iso_by_form[form] = is_isomorphic(graph, Graph(n, form))
                iso_by_draw[key] = hit
            hits += hit
    estimate = hits / trials
    half = 1.96 * math.sqrt(estimate * (1.0 - estimate) / trials)
    return SampleEstimate(trials=trials, hits=hits, estimate=estimate, ci95_halfwidth=half)


def verify_binomial_cancellation(n: int, m: int, k: int) -> bool:
    """Check the exact binomial identity behind the ratio proof.

    C(N, m) * C(m, k) = C(N, m-k) * C(N-(m-k), k) with N = C(n, 2), together
    with its factored product forms: the long falling factorial splits at
    m-k, and the factorial of m splits at k.
    """
    big_n = math.comb(n, 2)
    if not 1 <= k <= m <= big_n:
        raise ParameterRangeError(f"need 1 <= k <= m <= C(n,2); got n={n}, m={m}, k={k}")
    rest = big_n - (m - k)
    return (
        math.comb(big_n, m) * math.comb(m, k) == math.comb(big_n, m - k) * math.comb(rest, k)
        and math.perm(big_n, m) == math.perm(big_n, m - k) * math.perm(rest, k)
        and math.factorial(m) == math.perm(m, k) * math.factorial(m - k)
    )


def verify_proof_chain(
    graph: Graph,
    deleted: Iterable[Pair],
    cache: AutCache | None = None,
) -> ProofChainReport:
    """Evaluate both sides of the probability chain as exact rationals.

    For 0 < |E'| < |E| the three chained equalities are checked: the
    last-k-sampled split, the same after clearing the C(m, k) factor, and the
    fully substituted class-probability form. When E' is the whole edge set
    the chain degenerates, so the report instead carries the three
    trivial-case facts (the remainder is edgeless with n! symmetries, the
    whole edge set sits alone in its orbit, and the non-edge orbit counts the
    labeled copies). When ``verify_ratio_identity`` could not size the orbit
    of E' in G (orbit size 0), every right side that divides by it is
    ``None`` and its check fails.
    """
    dset: EdgeSet = edge_set(deleted, graph.n)
    counts = verify_ratio_identity(graph, dset, cache)
    n, m = graph.n, graph.m
    k = len(dset)
    big_n = math.comb(n, 2)
    aut_g, ao_g = counts.aut_g, counts.ao_g
    aut_minus, ao_minus = counts.aut_minus, counts.ao_minus
    prob_g = er_prob_isomorphic(graph, aut_g)
    prob_minus = er_prob_isomorphic(graph.delete_edges(dset), aut_minus)

    if m == k:
        checks = (
            EquationCheck(
                "edgeless remainder has full symmetry",
                Fraction(aut_minus),
                Fraction(math.factorial(n)),
            ),
            EquationCheck("whole edge set is alone in its orbit", Fraction(ao_g), Fraction(1)),
            EquationCheck(
                "non-edge orbit counts the labeled copies",
                Fraction(ao_minus),
                Fraction(math.factorial(n), aut_g),
            ),
        )
        return ProofChainReport(n=n, m=m, k=k, trivial_case=True, checks=checks)

    names = (
        "last-k-sampled split",
        "after clearing the last-k binomial",
        "substituted class probabilities",
    )
    lhs = (
        Fraction(1, math.comb(m, k)) * prob_g,
        prob_g,
        Fraction(1, math.comb(big_n, m)) * Fraction(math.factorial(n), aut_g),
    )
    rhs = (None,) * 3
    if ao_g:
        tail_choices = math.comb(big_n - (m - k), k)
        rhs_core = Fraction(1, ao_g) * Fraction(ao_minus, tail_choices)
        rhs = (
            rhs_core * prob_minus,
            math.comb(m, k) * rhs_core * prob_minus,
            Fraction(math.comb(m, k), ao_g)
            * Fraction(ao_minus, tail_choices)
            * Fraction(1, math.comb(big_n, m - k))
            * Fraction(math.factorial(n), aut_minus),
        )
    checks = tuple(map(EquationCheck, names, lhs, rhs))
    return ProofChainReport(n=n, m=m, k=k, trivial_case=False, checks=checks)
