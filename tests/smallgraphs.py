"""Named small graphs shared across the test suite."""

import math

from autorbit.graphs import Graph, all_pairs, new_graph


def wedge() -> Graph:
    return new_graph(3, [(0, 1), (1, 2)])


def triangle() -> Graph:
    return new_graph(3, [(0, 1), (1, 2), (0, 2)])


def path(n: int) -> Graph:
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return new_graph(n, all_pairs(n))


def empty(n: int) -> Graph:
    return Graph(n, frozenset())


def star(leaves: int) -> Graph:
    return new_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def hypercube(d: int) -> Graph:
    return new_graph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1])


def grid(a: int, b: int) -> Graph:
    def vertex(i, j):
        return i * b + j

    edges = [(vertex(i, j), vertex(i, j + 1)) for i in range(a) for j in range(b - 1)]
    edges += [(vertex(i, j), vertex(i + 1, j)) for i in range(a - 1) for j in range(b)]
    return new_graph(a * b, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return new_graph(10, outer + spokes + inner)


def triangle_plus_isolated() -> Graph:
    return new_graph(4, [(0, 1), (1, 2), (0, 2)])


def twin_hubs() -> Graph:
    """Seven vertices: hubs 4 and 6 carry two leaves each, bridged through 5.

    Labeled a..g = 0..6 when symbolic names are convenient.
    """
    return new_graph(7, [(0, 4), (1, 4), (4, 5), (5, 6), (6, 2), (6, 3)])


TWIN_HUBS_LABELS = ["a", "b", "c", "d", "e", "f", "g"]


def seeded_graph(rng, n: int) -> Graph:
    """G(n, m) with m near empty, near complete or anywhere, so some are symmetric."""
    npairs = math.comb(n, 2)
    sparse = min(npairs, rng.randint(0, n))
    m = rng.choice([sparse, npairs - sparse, rng.randint(0, npairs)])
    return new_graph(n, rng.sample(all_pairs(n), m))


def two_colour_rows(graph: Graph, pairs) -> tuple[int, ...]:
    """Adjacency rows with the pair set stacked above them as a second pair colour."""
    n = graph.n
    colour = [0] * n
    for u, v in pairs:
        colour[u] |= 1 << v
        colour[v] |= 1 << u
    return tuple(row | c << n for row, c in zip(graph.adjacency, colour))
