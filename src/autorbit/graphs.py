"""Undirected simple graphs with bitset adjacency, edge-set helpers, and I/O.

Vertices are dense integers 0..n-1. Every edge is stored as a normalized pair
(u, v) with u < v; (u, v) and (v, u) denote the same edge. Pairs are indexed
in column order ((0,1), (0,2), (1,2), (0,3), ...), which is also the bit
order used by edge masks and by the graph6 encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    CapExceededError,
    Graph6FormatError,
    NotASubsetError,
    SelfLoopError,
    VertexRangeError,
)

Pair = tuple[int, int]
EdgeSet = frozenset[Pair]

ENUMERATION_CAP = 6

# vertex cap for graphs read from text or drawn by the sampler, checked before any
# work in n: at 2,000 vertices the path and the cycle take 0.7-1.6 s to search (2-core VM)
MAX_VERTICES = 2000

_GRAPH6_HEADER = ">>graph6<<"


def normalize_pair(u: int, v: int) -> Pair:
    """Return the canonical (min, max) form of a vertex pair."""
    if u == v:
        raise SelfLoopError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


def edge_set(pairs: Iterable[Pair], n: int | None = None) -> EdgeSet:
    """Normalize and deduplicate pairs into a canonical edge set.

    When ``n`` is given, every vertex must lie in 0..n-1.
    """
    out = set()
    for u, v in pairs:
        p = normalize_pair(u, v)
        if n is not None and not (0 <= p[0] and p[1] < n):
            raise VertexRangeError(f"pair {p} out of range for n={n}")
        out.add(p)
    return frozenset(out)


def pair_index(u: int, v: int) -> int:
    """Column-order index of the pair (u, v) among all normalized pairs."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_unrank(index: int) -> Pair:
    """Inverse of :func:`pair_index`: 1 + 8 * index lies in [(2v-1)^2, (2v+1)^2), so isqrt is exact."""
    v = (1 + math.isqrt(1 + 8 * index)) // 2
    return (index - v * (v - 1) // 2, v)


def check_vertex_cap(n: int) -> None:
    if n > MAX_VERTICES:
        raise CapExceededError(f"n={n} exceeds the vertex cap of {MAX_VERTICES}")


def all_pairs(n: int) -> list[Pair]:
    """All normalized pairs on 0..n-1 in column (index) order."""
    return [(u, v) for v in range(n) for u in range(v)]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    n: int
    edges: EdgeSet

    def __post_init__(self) -> None:
        if self.n < 0:
            raise VertexRangeError("vertex count must be nonnegative")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for p in self.edges:
            u, v = p
            if u == v:
                raise SelfLoopError(f"self-loop {p}")
            if u > v:
                raise VertexRangeError(f"pair {p} is not normalized (u < v)")
            if u < 0 or v >= self.n:
                raise VertexRangeError(f"pair {p} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Bitset row per vertex: bit v of adjacency[u] is set iff (u, v) is an edge."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def mask(self) -> int:
        """Edge set as a bitmask over pair indices."""
        return sum(1 << pair_index(u, v) for u, v in self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise VertexRangeError(f"vertex pair ({u}, {v}) out of range")
        return u != v and bool((self.adjacency[u] >> v) & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range")
        return self.adjacency[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adjacency)

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        """The degrees in increasing order, kept like ``adjacency``."""
        return tuple(sorted(self.degrees()))

    def delete_edges(self, deleted: Iterable[Pair]) -> "Graph":
        """Graph on the same vertices with ``deleted`` removed from the edge set."""
        dset = edge_set(deleted, self.n)
        if not dset <= self.edges:
            missing = sorted(dset - self.edges)
            raise NotASubsetError(f"pairs {missing} are not edges of the graph")
        return Graph(self.n, self.edges - dset)

    def incident_edges(self, v: int) -> EdgeSet:
        """All edges containing v."""
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range")
        return frozenset(p for p in self.edges if v in p)

    def non_edges(self) -> EdgeSet:
        """All normalized pairs absent from the edge set."""
        return frozenset(p for p in all_pairs(self.n) if p not in self.edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            reach = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                reach |= self.adjacency[v]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


def new_graph(n: int, pairs: Iterable[Pair]) -> Graph:
    """Build a graph from raw pairs; (u, v) and (v, u) and any repeats collapse to one edge."""
    return Graph(n, edge_set(pairs, n))


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edges are the set bits of ``mask`` in pair-index order."""
    edges = set()
    rest = mask
    while rest:
        low = rest & -rest
        edges.add(pair_unrank(low.bit_length() - 1))
        rest ^= low
    return Graph(n, frozenset(edges))


def enumerate_labeled_graphs(n: int, cap: int = ENUMERATION_CAP) -> Iterator[Graph]:
    """Yield all 2^C(n,2) labeled graphs on n vertices in edge-mask order."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds enumeration cap {cap}")
    return (from_edge_mask(n, mask) for mask in range(1 << math.comb(n, 2)))


def _graph6_encode_n(n: int) -> bytes:
    if n < 0:
        raise Graph6FormatError("vertex count must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return bytes([126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)])
    raise Graph6FormatError(f"vertex count {n} exceeds the graph6 limit")


def _graph6_decode_n(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise Graph6FormatError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6FormatError("truncated graph6 size field")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, data[4:]
    if len(data) < 8:
        raise Graph6FormatError("truncated graph6 size field")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, data[8:]


def emit_graph6(graph: Graph) -> str:
    """Encode a graph in graph6 format (upper triangle, column order)."""
    rows = graph.adjacency
    # column v is bits 0..v-1 of row v, lowest first, zero-padded to whole 6-bit groups
    bits = "".join(format(rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, graph.n))
    bits += "0" * (-len(bits) % 6)
    body = bytes(63 + int(bits[i:i + 6], 2) for i in range(0, len(bits), 6))
    return (_graph6_encode_n(graph.n) + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):].strip()
    if not s:
        raise Graph6FormatError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6FormatError("graph6 strings are printable ASCII") from exc
    if any(b < 63 or b > 126 for b in data):
        raise Graph6FormatError("graph6 byte out of range 63..126")
    n, body = _graph6_decode_n(data)
    check_vertex_cap(n)
    npairs = math.comb(n, 2)
    if len(body) != (npairs + 5) // 6:
        raise Graph6FormatError(
            f"graph6 body has {len(body)} bytes, expected {(npairs + 5) // 6} for n={n}"
        )
    bits = "".join(format(b - 63, "06b") for b in body)  # column v starts at bit C(v, 2)
    edges = set()
    for v in range(1, n):
        start = v * (v - 1) // 2
        u = bits.find("1", start, start + v)
        while u >= 0:
            edges.add((u - start, v))
            u = bits.find("1", u + 1, start + v)
    return Graph(n, frozenset(edges))


def emit_edge_list(graph: Graph) -> str:
    """Human-editable text form: header line 'n m' then one 'u v' line per edge."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Inverse of :func:`emit_edge_list`; duplicate pairs collapse."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise VertexRangeError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise VertexRangeError("edge-list header must be 'n m'") from None
    check_vertex_cap(n)
    pairs = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise VertexRangeError(f"bad edge line: {ln!r}") from None
        pairs.append((u, v))
    if len(pairs) != m:
        raise VertexRangeError(f"header promises {m} edges, found {len(pairs)}")
    return new_graph(n, pairs)
