"""The four benchmark workloads.

Each workload turns ``(seed, round index)`` into a round of operations, runs
one operation at a time against the public autorbit API, and afterwards
checks every output with the reference code in ``oracles.py``. A round is a
stratified batch (every edge count, every family or every family in turn),
so that runs with different seeds do the same mix of work and their figures
can be compared.

Inputs are built here with the benchmark's own random generator and handed
to the program as graphs, graph6 strings and edge sets; the program never
sees the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import oracles


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for v in range(n) for u in range(v)]


def edge_mask(edges) -> int:
    """Pair-index bitmask, the key ``ratio.AutCache`` documents: bit v(v-1)/2 + u."""
    return sum(1 << (v * (v - 1) // 2 + u) for u, v in edges)


def is_connected(n: int, edges) -> bool:
    rows = oracles.adjacency_rows(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in range(n):
            if (rows[u] >> w) & 1 and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def round_rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def digest_of(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@dataclass
class Record:
    """One operation as run: its input, its output (or error) and its time."""

    inp: object
    out: object
    seconds: float
    error: str | None


class Workload:
    name = ""
    op = ""
    item = "one op"
    # Seconds one round took, on a 2-core Xeon VM, at the commit that added
    # this benchmark. A run of --seconds S does round(S / nominal_round_s)
    # rounds, so the work is fixed by S and identical for every commit compared.
    nominal_round_s = 1.0

    def __init__(self, api, tiny: bool = False):
        self.api = api
        self.tiny = tiny

    def make_round(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def warmup_round(self) -> list:
        return self.make_round(-1, 0)[:3]

    def new_state(self):
        return None

    def run_op(self, state, inp) -> tuple[object, int]:
        """Run one operation; return (output, items completed)."""
        raise NotImplementedError

    def digest(self, out) -> str:
        return digest_of(out)

    def check(self, records: list[Record], state) -> dict[int, str]:
        """Failed oracle checks, as {record index: reason}."""
        raise NotImplementedError


# --- ratio-random-n8 ---------------------------------------------------------


@dataclass
class RatioInput:
    graph: object
    edges: tuple
    deleted_sets: tuple


class RatioRandom(Workload):
    """verify_ratio_identity on seeded G(8, m), one AutCache for the whole run.

    One op is one graph's checks. A single check takes well under a
    millisecond, and the median of such short calls moved by a quarter from
    run to run with the speed of the machine; a graph's ten checks together
    take over ten milliseconds and time steadily. Ten checks rather than more
    give more graphs per run, so that a run's figures depend less on which
    few graphs of the seed have large groups. K8 comes once per round, so the
    11th slowest op of a 16-round run is one of its sixteen K8 ops.
    """

    name = "ratio-random-n8"
    op = "one graph's 10 verify_ratio_identity(g, E', cache) calls"
    item = "one verify_ratio_identity call"
    nominal_round_s = 1.25

    def __init__(self, api, tiny=False):
        super().__init__(api, tiny)
        self.n = 6 if tiny else 8
        self.subsets = 4 if tiny else 10
        self.brute_sample = 2 if tiny else 6

    def make_round(self, seed, index):
        rng = round_rng(self.name, seed, index)
        pairs = all_pairs(self.n)
        counts = list(range(1, len(pairs) + 1))
        rng.shuffle(counts)
        ops = []
        for m in counts:
            edges = tuple(sorted(rng.sample(pairs, m)))
            # subset sizes spread evenly over 1..m
            deleted_sets = tuple(
                tuple(sorted(rng.sample(edges, 1 + i * m // self.subsets)))
                for i in range(self.subsets)
            )
            ops.append(RatioInput(self.api.graphs.Graph(self.n, frozenset(edges)), edges,
                                  deleted_sets))
        return ops

    def warmup_round(self):
        half = self.n * (self.n - 1) // 4
        first = next(op for op in self.make_round(-1, 0) if len(op.edges) == half)
        return [RatioInput(first.graph, first.edges, first.deleted_sets[:5])]

    def new_state(self):
        return {}

    def run_op(self, state, inp):
        verify = self.api.ratio.verify_ratio_identity
        outputs = []
        for deleted in inp.deleted_sets:
            r = verify(inp.graph, deleted, state)
            outputs.append((r.aut_g, r.ao_g, r.aut_minus, r.ao_minus, r.holds))
        return tuple(outputs), len(outputs)

    def check(self, records, state):
        failures: dict[int, str] = {}
        sympy_orders: dict[tuple, int] = {}
        graph_edges: dict[tuple, tuple] = {}
        graphs_of: dict[int, set] = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            graphs_of[i] = set()
            for deleted, out in zip(rec.inp.deleted_sets, rec.out):
                reason = self._check_one(rec.inp.edges, deleted, out, state, sympy_orders,
                                         graph_edges, graphs_of[i])
                if reason:
                    failures[i] = reason
                    break
        keys = sorted(graph_edges)
        sample = random.Random(f"{self.name}:brute:{len(keys)}").sample(
            keys, min(self.brute_sample, len(keys))
        )
        wrong = {
            key
            for key in sample
            if oracles.brute_force_aut_count(self.n, graph_edges[key]) != sympy_orders[key]
        }
        for i, keys_used in graphs_of.items():
            if keys_used & wrong:
                failures.setdefault(i, "|Aut| differs from the brute-force count")
        return failures

    def _check_one(self, edges, deleted, out, state, sympy_orders, graph_edges, keys_used):
        aut_g, ao_g, aut_minus, ao_minus, holds = out
        if not holds:
            return "identity does not hold"
        if aut_g % ao_g or aut_minus % ao_minus:
            return "orbit size does not divide group order"
        gone = set(deleted)
        minus = tuple(e for e in edges if e not in gone)
        for graph, reported in ((edges, aut_g), (minus, aut_minus)):
            key = (self.n, edge_mask(graph))
            keys_used.add(key)
            group = state.get(key)
            if group is None:
                return f"no cached group for {key}"
            if key not in sympy_orders:
                sympy_orders[key] = oracles.sympy_order(self.n, group.generators)
                graph_edges[key] = graph
            if reported != sympy_orders[key]:
                return f"|Aut| {reported} != sympy order {sympy_orders[key]}"
        return None


# --- aut-structured ------------------------------------------------------------


def complete(n):
    return all_pairs(n)


def cycle(n):
    return [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


def complete_bipartite(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def hypercube(d):
    return [(v, v ^ (1 << k)) for v in range(1 << d) for k in range(d) if v < v ^ (1 << k)]


def grid(a, b):
    out = []
    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                out.append((i * b + j, (i + 1) * b + j))
            if j + 1 < b:
                out.append((i * b + j, i * b + j + 1))
    return out


def petersen():
    return (
        [tuple(sorted((i, (i + 1) % 5))) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [tuple(sorted((5 + i, 5 + (i + 2) % 5))) for i in range(5)]
    )


# (name, n, edges, |Aut| from its closed form). EVERY_ROUND families are in
# every round. The two costliest (2 to 3 s an op) take turns in every
# HEAVY_EVERY-th round, starting with round 1, so a run of six rounds holds
# one Q6 and one C200. Each family's op time is nearly the same from run to
# run, so the percentiles are placed inside large blocks of like ops: the 11th
# slowest op is one of the twelve K8/E8 ops (perms closure), and the median
# op one of the 36 seeded n = 200 graphs (the canon search), with six cheaper
# ops per round below it and six dearer ones above. A percentile taken at the
# boundary between two unlike families would jump between them.
EVERY_ROUND = [
    ("K8", 8, complete(8), math.factorial(8)),
    ("E8", 8, [], math.factorial(8)),
    ("K7", 7, complete(7), math.factorial(7)),
    ("K4,4", 8, complete_bipartite(4, 4), 2 * math.factorial(4) ** 2),
    ("Q4", 16, hypercube(4), 2**4 * math.factorial(4)),
    ("Q5", 32, hypercube(5), 2**5 * math.factorial(5)),
    ("Petersen", 10, petersen(), 120),
    ("C64", 64, cycle(64), 2 * 64),
    ("grid8x8", 64, grid(8, 8), 8),
    ("grid12x12", 144, grid(12, 12), 8),
]
HEAVY = [
    ("Q6", 64, hypercube(6), 2**6 * math.factorial(6)),
    ("C200", 200, cycle(200), 2 * 200),
]
HEAVY_EVERY = 4
TINY_EVERY_ROUND = [
    ("K5", 5, complete(5), math.factorial(5)),
    ("K2,3", 5, complete_bipartite(2, 3), 2 * 6),
    ("Q3", 8, hypercube(3), 2**3 * math.factorial(3)),
    ("Petersen", 10, petersen(), 120),
    ("C12", 12, cycle(12), 24),
    ("grid3x4", 12, grid(3, 4), 4),
]
TINY_HEAVY = [("E5", 5, [], math.factorial(5))]
# Seeded asymmetric graphs per round as (n, m, count), average degree 8 to 12.
ASYMMETRIC = [(60, 240, 2), (120, 600, 2), (200, 1200, 6)]
TINY_ASYMMETRIC = [(20, 60, 1)]


@dataclass
class AutInput:
    name: str
    n: int
    edges: tuple
    graph: object
    expected_order: int


def asymmetric_graph(rng: random.Random, n: int, m: int) -> tuple:
    """Seeded G(n, m) redrawn until colour refinement proves it asymmetric."""
    pairs = all_pairs(n)
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if oracles.is_asymmetric_by_refinement(n, edges):
            return edges


class AutStructured(Workload):
    """automorphism_group(g).order plus canonical_form(g), as `autorbit aut` does."""

    name = "aut-structured"
    op = "one graph through automorphism_group(g).order and canonical_form(g)"
    nominal_round_s = 20 / 6

    def make_round(self, seed, index):
        rng = round_rng(self.name, seed, index)
        graph = self.api.graphs.Graph
        every, heavy = (TINY_EVERY_ROUND, TINY_HEAVY) if self.tiny else (EVERY_ROUND, HEAVY)
        families = list(every)
        if index % HEAVY_EVERY == 1:
            families.append(heavy[index // HEAVY_EVERY % len(heavy)])
        ops = [
            AutInput(name, n, tuple(edges), graph(n, frozenset(edges)), order)
            for name, n, edges, order in families
        ]
        for n, m, count in TINY_ASYMMETRIC if self.tiny else ASYMMETRIC:
            for copy in range(count):
                edges = asymmetric_graph(rng, n, m)
                name = f"G({n},{m})#{index}.{copy}"
                ops.append(AutInput(name, n, edges, graph(n, frozenset(edges)), 1))
        return ops

    def warmup_round(self):
        graph = self.api.graphs.Graph
        picks = [f for f in TINY_EVERY_ROUND if f[0] in ("Petersen", "Q3", "C12")]
        return [AutInput(nm, n, tuple(e), graph(n, frozenset(e)), o) for nm, n, e, o in picks]

    def run_op(self, state, inp):
        order = self.api.canon.automorphism_group(inp.graph).order
        cert = self.api.canon.canonical_form(inp.graph)
        return (order, cert.hex()), 1

    def check(self, records, state):
        failures: dict[int, str] = {}
        cert_of: dict[str, str] = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            order, cert = rec.out
            inp = rec.inp
            if order != inp.expected_order:
                failures[i] = f"{inp.name}: |Aut| {order} != closed form {inp.expected_order}"
                continue
            if inp.name not in cert_of:
                relabel = list(range(inp.n))
                random.Random(f"{self.name}:relabel:{inp.name}").shuffle(relabel)
                image = frozenset(
                    tuple(sorted((relabel[u], relabel[v]))) for u, v in inp.edges
                )
                other = self.api.canon.canonical_form(self.api.graphs.Graph(inp.n, image))
                cert_of[inp.name] = other.hex()
            if cert != cert_of[inp.name]:
                failures[i] = f"{inp.name}: certificate changes under relabelling"
        return failures


# --- deck-recon ---------------------------------------------------------------


@dataclass
class DeckInput:
    n: int
    edges: tuple
    graph6: str


class DeckRecon(Workload):
    """`autorbit recover-aut` then `autorbit recon-filter`, in-process via cli.main."""

    name = "deck-recon"
    op = "one graph through `autorbit recover-aut` and `autorbit recon-filter`"
    nominal_round_s = 1.1

    def __init__(self, api, tiny=False):
        super().__init__(api, tiny)
        self.n = 5 if tiny else 7
        self.m_range = range(4, 9) if tiny else range(6, 22)

    def make_round(self, seed, index):
        rng = round_rng(self.name, seed, index)
        pairs = all_pairs(self.n)
        counts = list(self.m_range)
        rng.shuffle(counts)
        ops = []
        for m in counts:
            while True:
                edges = tuple(sorted(rng.sample(pairs, m)))
                if is_connected(self.n, edges):
                    break
            ops.append(DeckInput(self.n, edges, oracles.encode_graph6(self.n, edges)))
        return ops

    def run_op(self, state, inp):
        outputs = []
        for command in ("recover-aut", "recon-filter"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.api.cli.main([command, "--graph", inp.graph6])
            outputs.append((code, out.getvalue(), err.getvalue()))
        return tuple(outputs), 1

    def digest(self, out):
        stable = []
        for code, stdout, stderr in out:
            try:
                report = json.loads(stdout)
                report.pop("timing_ms", None)
                stdout = json.dumps(report, sort_keys=True)
            except ValueError:
                pass
            stable.append((code, stdout, stderr))
        return digest_of(stable)

    def check(self, records, state):
        failures: dict[int, str] = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            (code_r, out_r, err_r), (code_f, out_f, err_f) = rec.out
            if code_r != 0 or code_f != 0:
                failures[i] = f"exit codes {code_r}, {code_f}: {err_r or err_f}".strip()
                continue
            recover = json.loads(out_r)["results"]
            filt = json.loads(out_f)["results"]
            if not all(card["match"] for card in recover["cards"]):
                failures[i] = "recover-aut: a card does not match"
            elif int(recover["true_order"]) != oracles.aut_count(rec.inp.n, rec.inp.edges):
                failures[i] = "recover-aut: true_order differs from the backtracking count"
            elif filt["matches_input"] is False:
                failures[i] = "recon-filter: matches_input is false"
            elif filt["unique"]:
                n, rebuilt = oracles.decode_graph6(filt["reconstructed"][0]["graph6"])
                if n != rec.inp.n or not oracles.isomorphic(n, rec.inp.edges, rebuilt):
                    failures[i] = "recon-filter: reconstruction is not isomorphic to the input"
        return failures


# --- er-estimate --------------------------------------------------------------


@dataclass
class ErInput:
    n: int
    edges: tuple
    graph: object
    trials: int
    seed: int
    p: object


class ErEstimate(Workload):
    """estimate_prob_isomorphic on seeded targets at n = 6, 7, 8; item = one trial."""

    name = "er-estimate"
    op = "one estimate_prob_isomorphic(target, trials, seed) call"
    item = "one G(n, m) trial inside estimate_prob_isomorphic"
    nominal_round_s = 0.6
    # (n, m) of the targets in every round. A trial's cost depends on (n, m),
    # not on the target, so fixing them keeps the mix of work the same for
    # every seed; the seed picks the target graphs and the trial streams.
    SIZES = ((6, 7), (7, 6), (8, 6))
    TINY_SIZES = ((5, 4), (6, 5))
    # Targets are redrawn until trials * p >= MIN_EXPECTED_HITS, so that the
    # six-sigma gate rests on a usable normal approximation.
    MIN_EXPECTED_HITS = 30

    def __init__(self, api, tiny=False):
        super().__init__(api, tiny)
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        self.trials = 300 if tiny else 1500

    def make_round(self, seed, index):
        rng = round_rng(self.name, seed, index)
        ops = []
        for n, m in self.sizes:
            pairs = all_pairs(n)
            while True:
                edges = tuple(sorted(rng.sample(pairs, m)))
                p = oracles.exact_prob_isomorphic(n, edges)
                if self.trials * p >= self.MIN_EXPECTED_HITS:
                    break
            graph = self.api.graphs.Graph(n, frozenset(edges))
            ops.append(ErInput(n, edges, graph, self.trials, rng.getrandbits(32), p))
        return ops

    def warmup_round(self):
        return self.make_round(-1, 0)[:1]

    def run_op(self, state, inp):
        est = self.api.ermodel.estimate_prob_isomorphic(inp.graph, inp.trials, inp.seed)
        return (est.trials, est.hits, est.estimate), inp.trials

    def check(self, records, state):
        failures: dict[int, str] = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            trials, hits, estimate = rec.out
            inp = rec.inp
            if trials != inp.trials or hits != round(estimate * trials):
                failures[i] = "estimate does not match its trial and hit counts"
            elif self.api.ermodel.er_prob_isomorphic(inp.graph) != inp.p:
                failures[i] = "er_prob_isomorphic differs from n!/|Aut| / C(C(n,2), m)"
            elif not oracles.within_six_sigma(estimate, inp.p, trials):
                failures[i] = f"estimate {estimate} is beyond six sigma of p = {float(inp.p):.6g}"
        return failures


WORKLOADS = {w.name: w for w in (RatioRandom, AutStructured, DeckRecon, ErEstimate)}
