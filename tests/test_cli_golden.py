"""Every CLI command's report pinned byte for byte, with ``timing_ms`` dropped.

``golden/cli_reports.json`` maps a case name to the exact stdout line of
``autorbit.cli.main`` on fixed graphs and seeds, less its timing field. It
covers all eleven commands, ``recon-filter`` with and without ``--blind``,
a mixed ``sweep --subsets single,random`` and a ``proof-chain`` whose checks
fail. Rewrite it only for a deliberate change of report content or format.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest

import smallgraphs
from autorbit import ratio
from autorbit.cli import main
from autorbit.graphs import emit_graph6

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_reports.json").read_text())

TWIN = emit_graph6(smallgraphs.twin_hubs())
P4 = emit_graph6(smallgraphs.path(4))
C5 = emit_graph6(smallgraphs.cycle(5))
PETERSEN = emit_graph6(smallgraphs.petersen())


def _connected_g6(seed, n):
    rng = random.Random(seed)
    while True:
        graph = smallgraphs.seeded_graph(rng, n)
        if graph.m and graph.is_connected():
            return emit_graph6(graph)


G6 = _connected_g6("golden-cli", 6)

CASES = {
    "aut/twin-hubs": ["aut", "--graph", TWIN],
    "aut/petersen": ["aut", "--graph", PETERSEN],
    "orbit/vertex": ["orbit", "--graph", TWIN, "--vertex", "4"],
    "orbit/pair": ["orbit", "--graph", TWIN, "--pair", "5-4"],
    "orbit/edges": ["orbit", "--graph", TWIN, "--edges", "0-4,4-5"],
    "orbit/edges-petersen": ["orbit", "--graph", PETERSEN, "--edges", "0-1,2-3"],
    "verify/labels": ["verify", "--graph", TWIN, "--edges", "a-e,e-f", "--labels", "a,b,c,d,e,f,g"],
    "verify/petersen": ["verify", "--graph", PETERSEN, "--edges", "0-1,0-4"],
    "sweep/all-n3": ["sweep", "--n", "3", "--subsets", "all"],
    "sweep/single-random-n4": ["sweep", "--n", "4", "--subsets", "single,random", "--samples", "3", "--seed", "5"],
    "er-prob/twin-hubs": ["er-prob", "--graph", TWIN],
    "er-prob/petersen": ["er-prob", "--graph", PETERSEN],
    "er-sample/sample": ["er-sample", "--n", "7", "--m", "9", "--seed", "11"],
    "er-sample/estimate": ["er-sample", "--graph", C5, "--trials", "300", "--seed", "3"],
    "er-check-cancel/5": ["er-check-cancel", "--nmax", "5"],
    "proof-chain/twin-hubs": ["proof-chain", "--graph", TWIN, "--edges", "0-4,4-5"],
    "deck/augmented": ["deck", "--graph", TWIN],
    "deck/classic": ["deck", "--graph", TWIN, "--kind", "classic"],
    "recover-aut/twin-hubs": ["recover-aut", "--graph", TWIN],
    "recover-aut/vertex": ["recover-aut", "--graph", G6, "--vertex", "2"],
}
for _name, _g6 in (("p4", P4), ("c5", C5), ("twin-hubs", TWIN), ("g6", G6), ("cs", "Cs")):
    CASES[f"recon-filter/{_name}"] = ["recon-filter", "--graph", _g6]
    CASES[f"recon-filter/{_name}-blind"] = ["recon-filter", "--graph", _g6, "--blind"]


def report_line(argv):
    """The stdout line of one CLI call with its timing field cut out, and the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    match = re.fullmatch(r'(\{.*), "timing_ms": [0-9.e+-]+\}\n', out.getvalue())
    assert match, out.getvalue()
    return [code, match.group(1) + "}"]


def cli_reports():
    reports = {name: report_line(argv) for name, argv in CASES.items()}
    with pytest.MonkeyPatch.context() as patch:
        # an unsized orbit makes every check of the chain fail, as in test_stabilizer
        patch.setattr(ratio, "edge_set_stabilizer_order", lambda g, p: 10**6)
        reports["proof-chain/failing"] = report_line(
            ["proof-chain", "--graph", emit_graph6(smallgraphs.complete(7)), "--edges", "0-1,2-3,4-5"]
        )
    return reports


def test_cli_reports_match_golden():
    reports = cli_reports()
    assert sorted(reports) == sorted(GOLDEN)
    for name, pinned in GOLDEN.items():
        assert reports[name] == pinned, name


def test_golden_covers_every_command_and_a_failure():
    commands = {json.loads(line)["command"] for _, line in GOLDEN.values()}
    assert len(commands) == 11
    assert GOLDEN["proof-chain/failing"][0] == 1
