"""Reference answers that do not use the code under test.

Graphs here are plain ``(n, edges)`` pairs with ``edges`` a collection of
``(u, v)`` tuples, so every check can be read without knowing autorbit.
The only third-party code is ``sympy`` (group orders from generators, by
Schreier-Sims) and ``networkx`` (VF2 isomorphism), both imported lazily so
that they never count towards a workload's memory or set-up time.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction


def adjacency_rows(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def brute_force_aut_count(n: int, edges) -> int:
    """|Aut| by testing every one of the n! bijections against the definition."""
    rows = adjacency_rows(n, edges)
    edges = tuple(edges)
    return sum(
        1
        for p in itertools.permutations(range(n))
        if all((rows[p[u]] >> p[v]) & 1 for u, v in edges)
    )


def aut_count(n: int, edges) -> int:
    """|Aut| by exhaustive backtracking: extend a partial bijection one vertex
    at a time, keeping it an isomorphism on the assigned prefix."""
    rows = adjacency_rows(n, edges)
    degree = [r.bit_count() for r in rows]
    image = [0] * n
    used = [False] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for w in range(n):
            if used[w] or degree[w] != degree[i]:
                continue
            if all(((rows[i] >> j) & 1) == ((rows[w] >> image[j]) & 1) for j in range(i)):
                used[w] = True
                image[i] = w
                total += extend(i + 1)
                used[w] = False
        return total

    return extend(0)


def is_asymmetric_by_refinement(n: int, edges) -> bool:
    """True when colour refinement (1-WL) separates every vertex.

    Automorphisms preserve the stable colouring, so a discrete one proves the
    group trivial. A False answer proves nothing.
    """
    neighbours = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = [len(nb) for nb in neighbours]
    classes = len(set(colour))
    while True:
        signature = [
            (colour[v], tuple(sorted(colour[w] for w in neighbours[v]))) for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        colour = [palette[sig] for sig in signature]
        if len(palette) == classes:
            return classes == n
        classes = len(palette)


def sympy_order(degree: int, generators) -> int:
    """Order of the group the generators span, by sympy's Schreier-Sims."""
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(list(g)) for g in generators]
    if not gens:
        return 1
    return int(PermutationGroup(gens).order())


def exact_prob_isomorphic(n: int, edges) -> Fraction:
    """P(G(n, m) is isomorphic to the graph) = (n! / |Aut|) / C(C(n, 2), m)."""
    m = len(set(edges))
    return Fraction(math.factorial(n) // aut_count(n, edges), math.comb(math.comb(n, 2), m))


def within_six_sigma(estimate: float, p: Fraction, trials: int) -> bool:
    """|estimate - p| <= 6 sqrt(p (1 - p) / trials), with p the exact value."""
    sigma = math.sqrt(float(p * (1 - p)) / trials)
    return abs(estimate - float(p)) <= 6.0 * sigma


def isomorphic(n: int, edges_a, edges_b) -> bool:
    """Isomorphism by networkx's VF2 matcher."""
    import networkx as nx

    if Counter(r.bit_count() for r in adjacency_rows(n, edges_a)) != Counter(
        r.bit_count() for r in adjacency_rows(n, edges_b)
    ):
        return False
    a = nx.Graph()
    a.add_nodes_from(range(n))
    a.add_edges_from(edges_a)
    b = nx.Graph()
    b.add_nodes_from(range(n))
    b.add_edges_from(edges_b)
    return nx.is_isomorphic(a, b)


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Small graph6 decoder (n <= 62), upper triangle in column order."""
    data = text.encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 size byte out of range in {text!r}")
    bits = []
    for b in data[1:]:
        bits.extend(((b - 63) >> s) & 1 for s in range(5, -1, -1))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return n, [p for p, bit in zip(pairs, bits) if bit]


def encode_graph6(n: int, edges) -> str:
    """Small graph6 encoder (n <= 62), the inverse of :func:`decode_graph6`."""
    present = {tuple(sorted(e)) for e in edges}
    bits = [1 if (u, v) in present else 0 for v in range(n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        chunk = 0
        for b in bits[i:i + 6]:
            chunk = (chunk << 1) | b
        out.append(chr(63 + chunk))
    return "".join(out)
