"""Fuzz `autorbit orbit` and `autorbit verify` with arbitrary command-line text.

Whatever the graph, edge, pair or vertex text, the command must exit 0, 1
or 2, never escape with an exception, and print a JSON report whenever it
exits 0 or 1. Examples are derandomized so the suite stays deterministic.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from autorbit.canon import MAX_SEARCH_DEPTH
from autorbit.cli import main
from autorbit.graphs import Graph, all_pairs, emit_graph6

FUZZ = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_pairs(draw):
    """A valid graph6 string with up to three of its edges, or of any pairs when it has none."""
    n = draw(st.integers(0, 8))
    pairs = all_pairs(n)
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, bit in zip(pairs, bits) if bit]
    chosen = draw(st.lists(st.sampled_from(edges or pairs or [(0, 1)]), max_size=3))
    return emit_graph6(Graph(n, frozenset(edges))), [f"{u}-{v}" for u, v in chosen]


@st.composite
def edge_list_text(draw):
    """Edge-list text: an 'n m' header and up to four edge lines, any part of it noisy.

    n runs over -2..899 and over headers so large that the command fails
    fast: above the vertex cap at load, else at the search's depth cap,
    since at most eight vertices have an edge. A nearly edgeless graph
    below 900 vertices takes well under a second to search, and its pair
    and edge-set orbits are walked through the vertex action, so no header
    builds a table over all pairs.
    """
    n = draw(st.one_of(st.integers(-2, 899), st.integers(MAX_SEARCH_DEPTH + 100, 10**12)))
    pair = st.tuples(st.integers(-1, 14), st.integers(-1, 14)).map(lambda p: f"{p[0]} {p[1]}")
    lines = draw(st.lists(st.one_of(pair, st.text(alphabet="0123456789 -x", max_size=6)), max_size=4))
    m = draw(st.one_of(st.just(len(lines)), st.integers(-1, 6)))
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join([f"{n} {m}", *lines])


graph_noise = st.one_of(
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=10),
    st.text(max_size=10),
    edge_list_text(),
)
flag_noise = st.one_of(
    st.integers(-2, 10).map(str),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=10),
    st.text(alphabet="0123456789-, ab", max_size=12),
    st.text(max_size=10),
)


def sometimes(noise):
    """The noise half the time, else None (keep the valid value)."""
    return st.tuples(st.booleans(), noise).map(lambda t: t[1] if t[0] else None)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_well_behaved(argv):
    code, out, err = _run(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code in (0, 1):
        report = json.loads(out)
        assert report["command"] == argv[0]
    else:
        assert not out, (argv, out)


@FUZZ
@given(
    case=graph_and_pairs(),
    flag=st.sampled_from(["--edges", "--pair", "--vertex"]),
    graph_noise=sometimes(graph_noise),
    value_noise=sometimes(flag_noise),
)
def test_orbit_command_never_escapes(case, flag, graph_noise, value_noise):
    graph, pairs = case
    value = {"--edges": ",".join(pairs), "--pair": ",".join(pairs[:1]), "--vertex": "0"}[flag]
    graph = graph if graph_noise is None else graph_noise
    value = value if value_noise is None else value_noise
    _assert_well_behaved(["orbit", f"--graph={graph}", f"{flag}={value}"])


@FUZZ
@given(case=graph_and_pairs(), graph_noise=sometimes(graph_noise), edges_noise=sometimes(flag_noise))
def test_verify_command_never_escapes(case, graph_noise, edges_noise):
    graph, pairs = case
    graph = graph if graph_noise is None else graph_noise
    edges = ",".join(pairs) if edges_noise is None else edges_noise
    _assert_well_behaved(["verify", f"--graph={graph}", f"--edges={edges}"])
