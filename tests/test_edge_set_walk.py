"""The edge-set orbit walk over sets of pairs, against full enumeration.

The walk moves each pair of a state through every generator's vertex
images; the oracle applies every element of the brute-force automorphism
group to the seed. A guard checks that no path still builds the
per-generator byte tables.
"""

import json
import math
import random
import re

import pytest

import smallgraphs
from autorbit.canon import automorphism_group
from autorbit.cli import main
from autorbit.graphs import Graph, all_pairs, emit_graph6
from autorbit.orbits import edge_set_orbit
from autorbit.perms import PermGroup, brute_force_aut
from autorbit.ratio import verify_ratio_identity
from autorbit.recon import augmented_deck, recover_aut_order, unique_extension_filter
from oracles import enumerated_orbit

SEED = 20261018

# `autorbit orbit --edges 0-4,4-5` on the seven-vertex graph of criterion 1,
# less its timing field.
GOLDEN_ORBIT_REPORT = (
    '{"command": "orbit", "inputs": {"edges": "0-4,4-5", "graph": "F?oHg", "pair": null, '
    '"vertex": null}, "results": {"elements": [[[0, 4], [4, 5]], [[1, 4], [4, 5]], '
    '[[2, 6], [5, 6]], [[3, 6], [5, 6]]], "kind": "edge-set", "size": 4}}'
)


def _seeded_cases():
    """300 G(7|8, m) graphs, each with a seed drawn from all pairs.

    Seed sizes cycle through 1..C(n, 2), so every size occurs at both n.
    """
    rng = random.Random(SEED)
    for i in range(300):
        n = 7 + i % 2
        pairs = all_pairs(n)
        graph = Graph(n, frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))))
        seed = frozenset(rng.sample(pairs, 1 + (i // 2) % len(pairs)))
        yield graph, seed


def test_walk_matches_enumeration_on_seeded_graphs():
    sizes = {7: set(), 8: set()}
    mixed = 0
    for graph, seed in _seeded_cases():
        walked = edge_set_orbit(automorphism_group(graph), seed)
        expected = enumerated_orbit(brute_force_aut(graph), seed)
        assert walked.elements == expected.elements, (graph.n, sorted(graph.edges), sorted(seed))
        assert walked.size == expected.size
        sizes[graph.n].add(len(seed))
        mixed += bool(seed & graph.edges) and bool(seed - graph.edges)
    assert sizes == {n: set(range(1, math.comb(n, 2) + 1)) for n in (7, 8)}
    assert mixed >= 100


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_degenerate_seeds(n):
    for graph in (Graph(n, frozenset()), Graph(n, frozenset(all_pairs(n)))):
        group = automorphism_group(graph)
        oracle = brute_force_aut(graph)
        for seed in (frozenset(), frozenset(all_pairs(n))):
            walked = edge_set_orbit(group, seed)
            assert walked.elements == enumerated_orbit(oracle, seed).elements == {seed}
            assert walked.size == 1
            assert walked.sorted_elements() == [tuple(sorted(seed))]


def test_empty_and_full_seed_on_larger_graphs():
    graph = smallgraphs.twin_hubs()
    group = automorphism_group(graph)
    full = frozenset(all_pairs(graph.n))
    assert edge_set_orbit(group, ()).elements == {frozenset()}
    assert edge_set_orbit(group, full).elements == {full}


def test_no_path_builds_byte_tables(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("pair_action_bytes was read")

    monkeypatch.setattr(PermGroup, "pair_action_bytes", property(refuse))
    graph = smallgraphs.twin_hubs()
    assert edge_set_orbit(automorphism_group(graph), {(0, 4), (4, 5)}).size == 4
    k6 = smallgraphs.complete(6)
    assert edge_set_orbit(automorphism_group(k6), {(0, 1), (2, 3)}).size == 45
    assert verify_ratio_identity(graph, {(0, 4), (4, 5)}).holds
    assert verify_ratio_identity(k6, {(0, 1), (2, 3), (4, 5)}).holds
    deck = augmented_deck(graph)
    card = deck.cards[4]
    multiplicity = deck.multiplicities()[deck.certificates[4]]
    assert recover_aut_order(card.graph, multiplicity, card.deleted_edges) == 8
    assert unique_extension_filter(deck.blind()).unique
    g6 = emit_graph6(graph)
    for argv in (
        ["orbit", "--graph", g6, "--edges", "0-4,4-5"],
        ["verify", "--graph", g6, "--edges", "0-4,4-5"],
        ["recover-aut", "--graph", g6],
    ):
        assert main(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def test_golden_orbit_report(capsys):
    g6 = emit_graph6(smallgraphs.twin_hubs())
    assert main(["orbit", "--graph", g6, "--edges", "0-4,4-5"]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert re.sub(r', "timing_ms": [0-9.]+\}$', "}", out) == GOLDEN_ORBIT_REPORT
