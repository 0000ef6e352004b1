"""Search outcomes pinned to values captured from the twin-pruning search.

Refinement, leaves and sibling pruning may get cheaper, but no certificate,
base, best leaf, order or reported generator list may change. ``golden/search.json``
holds, from the search that skips a sibling twin to the node's first child
(recording the swap of the two on the first path), peels the rest of the
first path once every open cell is a twin class, tests the map from the
first path's cells onto each node's before descending and jumps back to the
first path after each automorphism it finds:

- ``autorbit aut`` reports with ``timing_ms`` dropped;
- ``edge_set_stabilizer_order`` on seeded (G, E') at n = 7-12;
- a digest per raw ``_search`` outcome (generators, base, best leaf, leaves)
  on seeded graphs at n = 0-40, plain and with a second pair colour, and a
  digest of just its base and best leaf;
- search nodes (``_refine`` calls) and leaves on seven
  families.

Certificates, orders and stabilizer orders in it are unchanged since the
engine that recounted every cell on every pass and also harvested
best-leaf matches, and bases and best leaves since the jump-back search
that took automorphisms from first-leaf matches only. The raw digests and
node/leaf counts are those of the twin-pruning search, which refines
neither a twin sibling nor a peeled level: E8, K8, E50 and K30 now refine
once, and the other pins stayed. The file is JSON of the functions below;
rewrite it only for a deliberate change of search outcome or report format.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest

import smallgraphs
from autorbit import canon
from autorbit.cli import main
from autorbit.graphs import all_pairs, edge_set, emit_graph6, new_graph

GOLDEN = json.loads((Path(__file__).parent / "golden" / "search.json").read_text())


def seeded_gnm(rng, n, m):
    return new_graph(n, rng.sample(all_pairs(n), m))


def aut_graphs():
    rng = random.Random("golden-aut")
    graphs = {
        "C64": smallgraphs.cycle(64),
        "grid8x8": smallgraphs.grid(8, 8),
        "Q5": smallgraphs.hypercube(5),
        "K8": smallgraphs.complete(8),
        "E9": smallgraphs.empty(9),
        "Petersen": smallgraphs.petersen(),
    }
    for copy in range(2):
        graphs[f"G(60,240)#{copy}"] = seeded_gnm(rng, 60, 240)
    return graphs


def aut_reports():
    reports = {}
    for name, graph in aut_graphs().items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["aut", "--graph", emit_graph6(graph)]) == 0
        report = json.loads(out.getvalue())
        del report["timing_ms"]
        reports[name] = json.dumps(report, sort_keys=True)
    return reports


def stabilizer_orders():
    rng = random.Random("golden-stabilizer")
    cases = []
    for _ in range(20):
        graph = smallgraphs.seeded_graph(rng, rng.randint(7, 12))
        pairs = sorted(rng.sample(all_pairs(graph.n), rng.randint(1, 4)))
        order = canon.edge_set_stabilizer_order(graph, pairs)
        cases.append([emit_graph6(graph), [list(p) for p in pairs], str(order)])
    return cases


def raw_outcomes():
    """The raw ``_search`` outcome of every seeded case, plain and with a second pair colour."""
    rng = random.Random("golden-outcomes")
    for n in range(41):
        for _ in range(3):
            graph = smallgraphs.seeded_graph(rng, n)
            pairs = rng.sample(all_pairs(n), rng.randint(0, math.comb(n, 2)) // 4)
            for colour in (None, edge_set(pairs, n)):
                yield canon._search(graph, colour)


def digest(payload):
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def outcome_digests():
    return [digest((o.generators, o.base, o.best_bits, o.leaves)) for o in raw_outcomes()]


def base_and_best_digests():
    return [digest((o.base, o.best_bits)) for o in raw_outcomes()]


PINNED = {
    "E8": smallgraphs.empty(8),
    "K8": smallgraphs.complete(8),
    "Q4": smallgraphs.hypercube(4),
    "Petersen": smallgraphs.petersen(),
    "C64": smallgraphs.cycle(64),
    "E50": smallgraphs.empty(50),
    "K30": smallgraphs.complete(30),
}


def test_aut_reports_match_golden():
    assert aut_reports() == GOLDEN["aut_reports"]


def test_edge_set_stabilizer_orders_match_golden():
    assert stabilizer_orders() == GOLDEN["stabilizer_orders"]


def test_raw_search_outcomes_match_golden():
    assert outcome_digests() == GOLDEN["outcome_digests"]


def test_raw_search_bases_and_best_leaves_match_golden():
    assert base_and_best_digests() == GOLDEN["base_best_digests"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_nodes_and_leaves_match_pins(name):
    graph = PINNED[name]
    outcome = canon._search(graph)
    assert [outcome.nodes, outcome.leaves] == GOLDEN["nodes_leaves"][name]


def test_harvest_has_at_most_n_minus_1_generators():
    rng = random.Random("golden-harvest")
    graphs = list(PINNED.values()) + [smallgraphs.seeded_graph(rng, n) for n in range(41)]
    for graph in graphs:
        outcome = canon._search(graph)
        assert len(outcome.generators) <= max(graph.n - 1, 0), (graph.n, len(outcome.generators))
