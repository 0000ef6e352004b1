"""Census of the unique-extension filter: every isomorphism class on n vertices.

Each class's blind augmented deck goes through ``unique_extension_filter``;
a certified match whose certificate is not the class's own is a wrong
certification. Run as a script, ``python tests/filter_census.py 7`` prints
the tally and any wrong certification (n = 7 takes seconds, n = 8 a few
minutes).
"""

import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: the package sits in ../src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from autorbit.canon import canonical_form
from autorbit.graphs import Graph, emit_graph6
from autorbit.recon import augmented_deck, unique_extension_filter


def classes(n: int) -> list[Graph]:
    """One graph per isomorphism class on n vertices, in certificate order.

    Each class on n - 1 vertices gets a new vertex with every neighbourhood,
    and one graph is kept per ``canonical_form``. This is complete: deleting
    any vertex of a graph leaves a copy of some class on n - 1 vertices.
    """
    if n <= 1:
        return [Graph(n, frozenset())]
    kept: dict[bytes, Graph] = {}
    for parent in classes(n - 1):
        for neighbours in range(1 << (n - 1)):
            graph = Graph(n, parent.edges | {(v, n - 1) for v in range(n - 1) if neighbours >> v & 1})
            kept.setdefault(canonical_form(graph), graph)
    return [kept[cert] for cert in sorted(kept)]


def census(graphs: list[Graph]) -> tuple[int, list[tuple[str, str]]]:
    """The number of graphs certified as themselves, and each wrong
    certification as (the graph's graph6, the certified graph's graph6)."""
    certified, wrong = 0, []
    for graph in graphs:
        own = canonical_form(graph)
        report = unique_extension_filter(augmented_deck(graph).blind())
        wrong += [(emit_graph6(graph), emit_graph6(m.graph)) for m in report.certified if m.certificate != own]
        certified += any(m.certificate == own for m in report.certified)
    return certified, wrong


if __name__ == "__main__":
    n = int(sys.argv[1])
    graphs = classes(n)
    print(f"n={n}: {len(graphs)} classes")
    certified, wrong = census(graphs)
    print(f"{certified} certified, {len(wrong)} wrong")
    for graph, match in wrong:
        print(f"  {graph} certified as {match}")
