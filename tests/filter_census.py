"""Census of the unique-extension filter: every isomorphism class on n vertices.

Each class's blind augmented deck goes through ``unique_extension_filter``;
a certified match whose certificate is not the class's own is a wrong
certification. An oracle that uses no ratio checks the certified set: it
must be the classes whose sorted augmented-deck certificates equal the
input's. Run as a script, ``python tests/filter_census.py 7`` prints the
tally, any wrong certification, any class where the two disagree, and the
run's wall time and peak RSS (n = 7 takes seconds, n = 8 under two minutes).
"""

import resource
import sys
import time
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


def census(graphs: list[Graph]) -> tuple[int, list[tuple[str, str]], list[str]]:
    """The number of graphs certified as themselves, each wrong certification
    as (the graph's graph6, the certified graph's graph6), and the graph6 of
    each graph whose certified set is not the set of graphs with its deck."""
    decks = [augmented_deck(graph) for graph in graphs]
    same_deck: dict[tuple[bytes, ...], set[bytes]] = {}
    for graph, deck in zip(graphs, decks):
        same_deck.setdefault(tuple(sorted(deck.certificates)), set()).add(canonical_form(graph))
    certified, wrong, disagree = 0, [], []
    for graph, deck in zip(graphs, decks):
        own = canonical_form(graph)
        report = unique_extension_filter(deck.blind())
        wrong += [(emit_graph6(graph), emit_graph6(m.graph)) for m in report.certified if m.certificate != own]
        certified += any(m.certificate == own for m in report.certified)
        if {m.certificate for m in report.certified} != same_deck[tuple(sorted(deck.certificates))]:
            disagree.append(emit_graph6(graph))
    return certified, wrong, disagree


if __name__ == "__main__":
    n = int(sys.argv[1])
    start = time.perf_counter()
    graphs = classes(n)
    print(f"n={n}: {len(graphs)} classes")
    certified, wrong, disagree = census(graphs)
    print(f"{certified} certified, {len(wrong)} wrong, {len(disagree)} unlike the deck oracle")
    for graph, match in wrong:
        print(f"  {graph} certified as {match}")
    for graph in disagree:
        print(f"  {graph}: certified set differs from the classes with its deck")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux
    print(f"wall {time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.1f} MB")
