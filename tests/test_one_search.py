"""Each Graph object is searched at most once; group and certificate share it."""

import json
import math
import random
import sys

import pytest

import smallgraphs
from autorbit import canon, perms
from autorbit.canon import automorphism_group, canonical_form, edge_set_stabilizer_order, is_isomorphic
from autorbit.cli import main
from autorbit.ermodel import sample_er
from autorbit.graphs import emit_graph6
from autorbit.ratio import verify_ratio_identity
from autorbit.recon import augmented_deck, recover_aut_order, unique_extension_filter


@pytest.fixture
def searches(monkeypatch):
    """Number of IR searches run so far, read as ``searches()``."""
    calls = []
    real = canon._search

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(canon, "_search", counting)
    return lambda: len(calls)


def connected_g7(seed):
    rng = random.Random(seed)
    while True:
        graph = sample_er(7, rng.randint(6, 21), rng)
        if graph.is_connected():
            return graph


def test_group_certificate_and_isomorphism_share_one_search(searches):
    g = smallgraphs.twin_hubs()
    assert automorphism_group(g).order > 1
    assert canonical_form(g)
    assert is_isomorphic(g, g)
    assert searches() == 1


def test_deck_paths_search_each_card_once(searches):
    graph = connected_g7("one-search")
    deck = augmented_deck(graph)
    certificates = deck.certificates
    classes = deck.classes
    blind = deck.blind().classes
    assert [(c.certificate, c.multiplicity) for c in blind] == [
        (c.certificate, c.multiplicity) for c in classes
    ]
    mults = deck.multiplicities()
    recovered = {
        recover_aut_order(card.graph, mults[cert], card.deleted_edges)
        for card, cert in zip(deck.cards, certificates)
    }
    assert searches() == graph.n
    assert recovered == {automorphism_group(graph).order}


def test_memo_is_per_object_not_global(searches):
    a = smallgraphs.twin_hubs()
    b = smallgraphs.twin_hubs()
    assert a == b and a is not b
    assert canonical_form(a) == canonical_form(b)
    assert automorphism_group(a).order == automorphism_group(b).order
    assert searches() == 2


@pytest.fixture
def reductions(monkeypatch):
    """The ``reduce_generators`` calls made so far, through any autorbit module's binding of it."""
    calls = []
    real = perms.reduce_generators

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "autorbit" and getattr(module, "reduce_generators", None) is real:
            monkeypatch.setattr(module, "reduce_generators", counting)
    return calls


def test_second_group_call_runs_no_search(searches):
    g = smallgraphs.twin_hubs()
    group = automorphism_group(g)
    again = automorphism_group(g)
    assert again == group and again.order == group.order == 8
    assert searches() == 1


def test_extension_filter_reduces_no_extended_graphs_group(reductions):
    for seed in range(3):
        report = unique_extension_filter(augmented_deck(connected_g7(f"filter-{seed}")))
        # the true star passes Kelly's screen, so every card class keeps a class
        assert all(card.classes for card in report.cards) and report.unique
    assert not reductions


def test_edge_set_stabilizer_order_reduces_nothing(reductions):
    assert edge_set_stabilizer_order(smallgraphs.twin_hubs(), [(0, 4), (4, 5)]) == 2
    assert edge_set_stabilizer_order(smallgraphs.complete(6), [(0, 1)]) == 48
    assert not reductions


def test_no_production_path_reduces(reductions, capsys):
    twin_hubs, g7 = smallgraphs.twin_hubs(), connected_g7("no-reduction")
    assert automorphism_group(smallgraphs.empty(40)).order == math.factorial(40)
    assert automorphism_group(twin_hubs).order == 8
    cache = {}
    for _ in range(2):  # the second pass reads the cache
        assert verify_ratio_identity(twin_hubs, {(0, 4), (4, 5)}, cache=cache).holds
    assert verify_ratio_identity(g7, {min(g7.edges)}).holds
    deck = augmented_deck(twin_hubs)
    multiplicity = deck.multiplicities()[deck.certificates[4]]
    assert recover_aut_order(deck.cards[4].graph, multiplicity, deck.cards[4].deleted_edges) == 8
    unique_extension_filter(augmented_deck(g7).blind())
    graph6 = emit_graph6(twin_hubs)
    for argv in (["aut"], ["verify", "--edges", "0-4,4-5"], ["recover-aut"], ["recon-filter"]):
        assert main([argv[0], "--graph", graph6, *argv[1:]]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    assert not reductions
