"""Each Graph object is searched at most once; group and certificate share it."""

import random

import pytest

import smallgraphs
from autorbit import canon, perms
from autorbit.canon import automorphism_group, canonical_form, edge_set_stabilizer_order, is_isomorphic
from autorbit.ermodel import sample_er
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
    """The ``reduce_generators`` calls made so far."""
    calls = []
    real = perms.reduce_generators

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (perms, canon):
        monkeypatch.setattr(module, "reduce_generators", counting)
    return calls


def test_reduced_group_is_kept_on_the_graph(reductions):
    g = smallgraphs.twin_hubs()
    group = automorphism_group(g)
    assert automorphism_group(g) is group
    assert group.order == 8
    assert len(reductions) == 1


def test_extension_filter_reduces_no_extended_graphs_group(reductions):
    for seed in range(3):
        reductions.clear()
        report = unique_extension_filter(augmented_deck(connected_g7(f"filter-{seed}")), origins="all")
        extensions = sum(len(card.classes) for card in report.cards)
        assert extensions > len(report.cards)
        assert len(reductions) <= len(report.cards)  # at most the card's own group, per card class


def test_edge_set_stabilizer_order_reduces_nothing(reductions):
    assert edge_set_stabilizer_order(smallgraphs.twin_hubs(), [(0, 4), (4, 5)]) == 2
    assert edge_set_stabilizer_order(smallgraphs.complete(6), [(0, 1)]) == 48
    assert not reductions
