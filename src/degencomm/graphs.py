"""Simple undirected graphs with degeneracy peeling.

Everything downstream (the two-party protocols, the hardness gadget, the
streaming harness) sits on top of this module, so it stays deliberately
small: a plain adjacency-set graph, the min-degree peeling loop with a
bucket queue, and the handful of orderings/cores derived from it.

Vertices are integers 0..n-1 throughout. Graphs are simple: no loops,
no parallel edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Args:
        n: number of vertices.
        edges: iterable of (u, v) pairs, any orientation. Loops and
            duplicates raise ValueError.
    """

    __slots__ = ("n", "adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        if v in self.adj[u]:
            raise ValueError(f"duplicate edge ({u},{v})")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._m += 1

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def m(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, sorted overall."""
        out = []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.adj = [set(s) for s in self.adj]
        g._m = self._m
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


@dataclass
class PeelTrace:
    """Result of running min-degree peeling to exhaustion.

    order[i] is the i-th removed vertex and degree_at_removal[i] its
    residual degree at that moment. The degeneracy is the running max.
    """

    order: list[int] = field(default_factory=list)
    degree_at_removal: list[int] = field(default_factory=list)
    degeneracy: int = 0


class Accept(NamedTuple):
    ordering: list[int]


class Reject(NamedTuple):
    core: frozenset[int]


TieBreak = Callable[[set[int]], int]

# Deterministic tie-break policies for choosing among minimum-degree
# vertices. "min" is the library default; the others exist so tests can
# confirm results that must not depend on the choice.
TIE_BREAKS: dict[str, TieBreak] = {
    "min": min,
    "max": max,
    "mid": lambda s: sorted(s)[len(s) // 2],
}


class _BucketQueue:
    """Residual degrees in an array of buckets; supports decrease-by-one.

    Classic structure for linear-time peeling: bucket[d] holds the live
    vertices of residual degree d and a cursor tracks the smallest
    nonempty bucket (it only needs to move down by one per decrement).
    """

    def __init__(self, degrees: list[int]):
        self.deg = list(degrees)
        self.buckets: list[set[int]] = [set() for _ in range(len(degrees) + 1)]
        for v, d in enumerate(degrees):
            self.buckets[d].add(v)
        self.floor = 0

    def pop_min(self, pick: TieBreak) -> tuple[int, int]:
        while not self.buckets[self.floor]:
            self.floor += 1
        bucket = self.buckets[self.floor]
        v = pick(bucket)
        bucket.discard(v)
        return v, self.deg[v]

    def decrement(self, v: int) -> None:
        d = self.deg[v]
        self.buckets[d].discard(v)
        self.deg[v] = d - 1
        self.buckets[d - 1].add(v)
        if d - 1 < self.floor:
            self.floor = d - 1


def peel(g: Graph, tie_break: str | TieBreak = "min") -> PeelTrace:
    """Repeatedly remove a minimum-residual-degree vertex.

    Ties are broken by the smallest vertex id unless another policy is
    given. The max residual degree seen along the way is the degeneracy.
    """
    pick = TIE_BREAKS[tie_break] if isinstance(tie_break, str) else tie_break
    trace = PeelTrace()
    if g.n == 0:
        return trace
    queue = _BucketQueue([g.degree(v) for v in range(g.n)])
    alive = [True] * g.n
    for _ in range(g.n):
        v, d = queue.pop_min(pick)
        alive[v] = False
        trace.order.append(v)
        trace.degree_at_removal.append(d)
        if d > trace.degeneracy:
            trace.degeneracy = d
        for u in g.adj[v]:
            if alive[u]:
                queue.decrement(u)
    return trace


def degeneracy(g: Graph) -> int:
    return peel(g).degeneracy


def outdegree_profile(g: Graph, order: list[int]) -> list[int]:
    """Number of neighbors of each vertex that appear after it in order.

    Returned indexed by vertex id, not by position.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    pos = [0] * g.n
    for idx, v in enumerate(order):
        pos[v] = idx
    return [sum(1 for u in g.adj[v] if pos[u] > pos[v]) for v in range(g.n)]


def is_k_ordering(g: Graph, order: list[int], k: int) -> bool:
    """True iff every vertex has at most k neighbors later in the order."""
    profile = outdegree_profile(g, order)
    return max(profile, default=0) <= k


def peel_decision(g: Graph, k: int) -> Accept | Reject:
    """Peel at threshold k: remove vertices while one has degree <= k.

    Accept carries the removal order (a k-ordering) when the graph
    empties; Reject carries the remaining vertices, which form the
    nonempty (k+1)-core.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order: list[int] = []
    # A stack discipline suffices here: once degree <= k a vertex stays
    # removable, and the order of removals does not change the outcome.
    stack = sorted((v for v in range(g.n) if deg[v] <= k), reverse=True)
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        order.append(v)
        for u in g.adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == k:
                    stack.append(u)
    survivors = frozenset(v for v in range(g.n) if alive[v])
    if survivors:
        return Reject(survivors)
    return Accept(order)


def k_core(g: Graph, k: int) -> frozenset[int]:
    """The unique maximal vertex set inducing minimum degree >= k.

    A view over peel_decision at threshold k-1: the survivors of that
    peel are the k-core. Empty when no such set exists.
    """
    if k == 0:
        return frozenset(range(g.n))
    res = peel_decision(g, k - 1)
    return res.core if isinstance(res, Reject) else frozenset()


def brute_force_degeneracy(g: Graph) -> int:
    """Exhaustive oracle: max over nonempty induced subgraphs of min degree.

    Exponential in n; refuses anything beyond desk scale.
    """
    if g.n > 12:
        raise ValueError(f"brute force capped at n=12, got n={g.n}")
    if g.n == 0:
        return 0
    best = 0
    for mask in range(1, 1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if len(members) <= best:
            continue
        min_deg = min(
            sum(1 for u in g.adj[v] if mask >> u & 1) for v in members
        )
        if min_deg > best:
            best = min_deg
    return best


# ---------------------------------------------------------------------------
# text format


def dumps_graph(g: Graph) -> str:
    """Serialize to the line format: "n m" then one "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def loads_graph(text: str) -> Graph:
    """Parse the line format; raises ValueError naming the offending line."""
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ValueError("line 1: expected header 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("line 1: expected header 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("line 1: header fields must be integers") from None
    if n < 0 or m < 0:
        raise ValueError("line 1: header fields must be nonnegative")
    g = Graph(n)
    count = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < v < n):
            raise ValueError(f"line {lineno}: need 0 <= u < v < n, got {u} {v}")
        try:
            g.add_edge(u, v)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        count += 1
    if count != m:
        raise ValueError(f"header claims {m} edges but file has {count}")
    return g


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return loads_graph(fh.read())


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_graph(g))


# ---------------------------------------------------------------------------
# constructors used by the test bench and the CLI


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(n: int) -> Graph:
    """One hub (vertex 0) joined to n-1 leaves."""
    return Graph(n, [(0, v) for v in range(1, n)])


def petersen_graph() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    spokes = [(v, 5 + v) for v in range(5)]
    return Graph(10, outer + inner + spokes)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    g = Graph(a.n + b.n)
    for u, v in a.edges():
        g.add_edge(u, v)
    for u, v in b.edges():
        g.add_edge(a.n + u, a.n + v)
    return g


def gnm_random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform graph with exactly m edges (rejection-sampled pairs)."""
    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"m={m} exceeds max {limit} for n={n}")
    g = Graph(n)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in chosen:
            continue
        chosen.add(e)
        g.add_edge(*e)
    return g


def gnp_random_graph(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g
