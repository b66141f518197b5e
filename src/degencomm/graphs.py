"""Simple undirected graphs with degeneracy peeling.

Everything downstream (the two-party protocols, the hardness gadget, the
streaming harness) sits on top of this module, so it stays deliberately
small: an immutable compact graph (sorted neighbour rows packed into two
integer arrays, the ids two bytes wide when every id fits, see
id_typecode), one min-degree peel, stopped at a threshold or run to
the end, the orderings and cores that are views of it (peel,
peel_decision, k_core, degeneracy), and a line-based text format. The
peel keeps one integer key per vertex, degree * n + id, and picks the
least: by min() over all keys on a graph dense enough that a scan per
pick costs no more than its edges, from a heap of the keys on any
other; both give the same order. A peel given a prefix (as degeneracy
and the gadget audit give it) stops after at least that many removals
once the degeneracy is settled: when no live vertex's residual degree
exceeds the largest removal degree so far, no later removal can, since
residual degrees only go down. Its order is then a prefix of the full
order and its degeneracy exact. Files are written one row at a time
and read line by line, and errors name their line.

Vertices are integers 0..n-1 throughout. Graphs are simple: no loops,
no parallel edges.
"""

from __future__ import annotations

import io
import random
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import IO, Collection, Iterable, NamedTuple


def id_typecode(n: int) -> str:
    """The array typecode of the neighbour ids of an n-vertex graph.

    "H" (two bytes) when every id 0..n-1 fits in it, that is when
    n <= 65 536, else "i". Every builder of a packed graph uses it, so a
    graph's nbrs array is half as large whenever the ids allow.
    """
    return "H" if n <= 1 << 16 else "i"


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Stored as compressed sparse rows: the neighbours of v are
    nbrs[offsets[v]:offsets[v + 1]], sorted ascending, and each edge sits
    in the rows of both its endpoints. offsets is an array("i") and nbrs
    an array of id_typecode(n). Two graphs are equal when they have the
    same n and the same edges.

    Args:
        n: number of vertices.
        edges: iterable of (u, v) pairs, any orientation. Loops,
            endpoints outside 0..n-1 and duplicates raise ValueError
            naming the first offending edge.
    """

    __slots__ = ("n", "offsets", "nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            rows[u].append(v)
            rows[v].append(u)
        self._pack(rows)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "Graph":
        """Pack neighbour lists into a Graph on len(rows) vertices.

        rows[v] lists the neighbours of v. The caller guarantees that
        each edge sits in both rows, with no loops and no entry outside
        the vertex range; a repeated entry raises ValueError. The rows
        are consumed: each is sorted and then dropped as it is packed.
        """
        g = cls.__new__(cls)
        g._pack(rows)
        return g

    @classmethod
    def from_csr(cls, offsets: array, nbrs: array) -> "Graph":
        """Wrap packed rows as they are, without checking or copying them.

        The caller guarantees the layout of the class docstring: offsets
        starts at 0 and ends at len(nbrs), nbrs has typecode
        id_typecode(len(offsets) - 1), and each row is strictly
        ascending, in range, loop-free and mirrored by its neighbours.
        """
        g = cls.__new__(cls)
        g.n = len(offsets) - 1
        g.offsets = offsets
        g.nbrs = nbrs
        return g

    def _pack(self, rows: list[list[int]]) -> None:
        self.n = len(rows)
        self.offsets = array("i", [0])
        self.nbrs = array(id_typecode(self.n))
        for v in range(self.n):
            row = rows[v]
            rows[v] = None
            _sort_row(v, row)
            self.nbrs.fromlist(row)
            self.offsets.append(len(self.nbrs))

    def has_edge(self, u: int, v: int) -> bool:
        hi = self.offsets[u + 1]
        i = bisect_left(self.nbrs, v, self.offsets[u], hi)
        return i < hi and self.nbrs[i] == v

    @property
    def m(self) -> int:
        return len(self.nbrs) // 2

    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def neighbors(self, v: int) -> array:
        """The sorted row of v (a copy)."""
        return self.nbrs[self.offsets[v]:self.offsets[v + 1]]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, sorted overall."""
        out: list[tuple[int, int]] = []
        for u in range(self.n):
            out.extend((u, v) for v in self.upper(u))
        return out

    def upper(self, u: int) -> array:
        """The neighbours of u above u, ascending (a copy).

        Walking u = 0..n-1 over these rows visits every edge once, as
        (u, v) with u < v, in the order of ``edges()``.
        """
        hi = self.offsets[u + 1]
        return self.nbrs[bisect_right(self.nbrs, u, self.offsets[u], hi):hi]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.offsets == other.offsets
                and self.nbrs == other.nbrs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _sort_row(v: int, row: list[int]) -> None:
    """Sort the neighbour row of v in place; a repeated entry raises
    ValueError naming the edge."""
    row.sort()
    if len(set(row)) != len(row):
        w = next(a for a, b in zip(row, row[1:]) if a == b)
        raise ValueError(f"duplicate edge ({min(v, w)},{max(v, w)})")


@dataclass
class PeelTrace:
    """Result of min-degree peeling, run to exhaustion or settled early.

    order[i] is the i-th removed vertex and degree_at_removal[i] its
    residual degree at that moment. The degeneracy is the running max;
    a settled peel (peel's prefix) lists a prefix of the full order.
    """

    order: list[int] = field(default_factory=list)
    degree_at_removal: list[int] = field(default_factory=list)
    degeneracy: int = 0


class Accept(NamedTuple):
    ordering: list[int]


class Reject(NamedTuple):
    core: frozenset[int]


# a graph with n * n <= _DENSE * len(nbrs) is peeled by key scans: n
# scans of n keys then cost no more than 8 visits per edge endpoint
_DENSE = 8


def _peel(g: Graph, k: int, prefix: int | None = None
          ) -> tuple[list[int], list[int]]:
    """Remove a minimum-residual-degree vertex while that degree is <= k.

    The least id among the vertices of least residual degree goes next.
    Returns the removal order and each vertex's residual degree when it
    went; the vertices left over form the (k+1)-core. Each vertex has
    one key, degree * n + id, so the least live key is the next vertex.
    A retired vertex's key starts at 2n^2 and loses n at most n-1 times,
    so it stays above n^2 - 1, the largest live key. A dense graph (see
    _DENSE) finds the least key by min() over all of them; any other
    pops it from a heap that gets each lowered key pushed. A popped key
    that is no longer its vertex's key is stale and skipped; since keys
    only go down, the least current key comes out first.

    With a prefix, the peel also stops after at least min(prefix, n)
    removals once no live residual degree can exceed worst, the largest
    removal degree so far. Both paths bound the live degrees by live - 1
    and by the largest starting degree after each removal; the dense
    path also takes the largest live key by one max() whenever the
    removal count is a power of two.
    """
    nbrs, off, n = g.nbrs, g.offsets, g.n
    key = [(off[v + 1] - off[v]) * n + v for v in range(n)]
    top = n * n  # live keys are below it, retired ones never go below
    retired = 2 * top
    order: list[int] = []
    removal: list[int] = []
    # no prefix runs to the end; worst is the largest removal degree so
    # far, and stop the removal count at which it is settled
    prefix = n if prefix is None else min(prefix, n)
    cap = max(key) // n if n else 0  # the largest starting degree
    worst, stop = -1, n

    def settle(d: int) -> int:
        # the count at which no live degree can exceed d: at once if no
        # vertex started above d, else once live - 1 <= d
        return prefix if cap <= d else max(prefix, n - 1 - d)

    if top <= _DENSE * len(nbrs):
        for i in range(1, n + 1):
            d, v = divmod(min(key), n)
            if d > worst:
                if d > k:
                    break
                worst, stop = d, settle(d)
            key[v] = retired
            order.append(v)
            removal.append(d)
            for u in nbrs[off[v]:off[v + 1]]:
                key[u] -= n
            if i >= stop or (i >= prefix and not i & (i - 1) and max(
                    filter(top.__gt__, key)) // n <= worst):
                break
        return order, removal
    heap = key[:]
    heapify(heap)
    push, pop = heappush, heappop
    while heap:
        x = pop(heap)
        d, v = divmod(x, n)
        if key[v] != x:
            continue
        if d > worst:
            if d > k:
                break
            worst, stop = d, settle(d)
        key[v] = retired
        order.append(v)
        removal.append(d)
        for u in nbrs[off[v]:off[v + 1]]:
            x = key[u] - n
            key[u] = x
            if x < top:
                push(heap, x)
        if len(order) >= stop:
            break
    return order, removal


def peel(g: Graph, prefix: int | None = None) -> PeelTrace:
    """Repeatedly remove a minimum-residual-degree vertex.

    Ties are broken by the smallest vertex id. The max residual degree
    seen along the way is the degeneracy. Without a prefix the peel runs
    to the end. With one, it removes at least min(prefix, n) vertices
    and stops once the degeneracy is settled (see _peel). The trace is
    then a prefix of the full one with the exact degeneracy: each later
    removal's degree is at most its vertex's current residual degree,
    which is at most the largest removal degree already seen.
    """
    if prefix is not None and prefix < 0:
        raise ValueError("prefix must be nonnegative")
    order, removal = _peel(g, g.n, prefix)
    return PeelTrace(order, removal, max(removal, default=0))


def degeneracy(g: Graph) -> int:
    return peel(g, prefix=0).degeneracy


def is_k_ordering(g: Graph, order: list[int], k: int) -> bool:
    """True iff every vertex has at most k neighbors later in the order.

    Raises ValueError if order is not a permutation of the vertices.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    pos = [0] * g.n
    for idx, v in enumerate(order):
        pos[v] = idx
    later = (sum(1 for u in g.neighbors(v) if pos[u] > pos[v])
             for v in range(g.n))
    return max(later, default=0) <= k


def peel_decision(g: Graph, k: int) -> Accept | Reject:
    """Peel at threshold k: remove vertices while one has degree <= k.

    Accept carries the removal order, which is peel(g).order and a
    k-ordering, when the graph empties; Reject carries the remaining
    vertices, which form the nonempty (k+1)-core.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    order, _ = _peel(g, k)
    if len(order) == g.n:
        return Accept(order)
    return Reject(frozenset(range(g.n)).difference(order))


def k_core(g: Graph, k: int) -> frozenset[int]:
    """The unique maximal vertex set inducing minimum degree >= k.

    The vertices a peel at threshold k-1 leaves. Empty when no such set
    exists.
    """
    order, _ = _peel(g, k - 1)
    return frozenset(range(g.n)).difference(order)


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
            sum(1 for u in g.neighbors(v) if mask >> u & 1) for v in members
        )
        if min_deg > best:
            best = min_deg
    return best


# ---------------------------------------------------------------------------
# text format


def _write_graph(g: Graph, fh: IO[str]) -> None:
    """Write the line format, one row of the graph at a time.

    Each id is written through a table of the n decimal names, built
    once, so no id is converted to text more than once.
    """
    fh.write(f"{g.n} {g.m}\n")
    name = [str(v) for v in range(g.n)].__getitem__
    for u in range(g.n):
        upper = g.upper(u)
        if upper:
            head = f"{u} "
            fh.write(head + f"\n{head}".join(map(name, upper)) + "\n")


def _scan_edges(fh: IO[str], n: int, rows: list[list[int]] | None = None,
                watch: Collection[tuple[int, int]] = ()) -> int:
    """Read the edge lines after the header; return how many there are.

    With rows, each edge (u, v) is appended to rows[u] and rows[v]
    unchecked for repeats. Without, the second line with an edge in
    watch raises ValueError naming it. Either way blank lines are
    skipped, and a malformed line or one without 0 <= u < v < n raises
    ValueError naming the line. An id already read in canonical form is
    looked up rather than parsed again, so the rows share one int per
    vertex.
    """
    ids: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    count = 0
    for lineno, raw in enumerate(fh, start=2):
        try:
            a, b = raw.split()
            u, v = ids[a], ids[b]
            ok = u < v
        except (ValueError, KeyError):
            ok = False
        if not ok:
            parts = raw.split()
            if not parts:
                continue
            u, v = _parse_edge(parts, lineno, n)
            u = ids.setdefault(str(u), u)
            v = ids.setdefault(str(v), v)
        if rows is not None:
            rows[u].append(v)
            rows[v].append(u)
        elif (u, v) in watch:
            if (u, v) in seen:
                raise ValueError(f"line {lineno}: duplicate edge ({u},{v})")
            seen.add((u, v))
        count += 1
    return count


def _parse_edge(parts: list[str], lineno: int, n: int) -> tuple[int, int]:
    """The edge of one split line: two ASCII decimal endpoints, u < v < n."""
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected 'u v'")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"line {lineno}: endpoints must be integers")
    u, v = int(parts[0]), int(parts[1])
    if not (0 <= u < v < n):
        raise ValueError(f"line {lineno}: need 0 <= u < v < n, got {u} {v}")
    return u, v


def _read_graph(fh: IO[str]) -> Graph:
    """Parse the line format from a seekable text stream.

    The lines are read into one list per row, filled as the text
    streams past and packed once, so no edge list is held. Raises
    ValueError naming the first offending line.
    """
    head = fh.readline().split()
    if len(head) != 2:
        raise ValueError("line 1: expected header 'n m'")
    if not all(f.isascii() and f.isdigit() for f in head):
        raise ValueError("line 1: header fields must be integers")
    n, m = int(head[0]), int(head[1])
    rows: list = [[] for _ in range(n)]
    try:
        count = _scan_edges(fh, n, rows)
        g = Graph.from_rows(rows)
    except ValueError as exc:
        # exc names the first malformed line, but packing only sees that
        # some pair repeats. The rows still in hand tell which pairs
        # repeat: after a malformed line every row read so far is intact,
        # and when packing stops at row v, every repeated pair (a, b) with
        # a < b has b > v, so intact row b holds a twice. If any pair
        # repeats, one scan watching only those names the first faulty
        # line without a set of every edge.
        exc.__traceback__ = None  # it holds the half-packed graph
        watch = {(a, b) for b, row in enumerate(rows)
                 if row is not None and len(set(row)) < len(row)
                 for a, times in Counter(row).items() if times > 1 and a < b}
        del rows
        if watch:
            fh.seek(0)
            fh.readline()
            _scan_edges(fh, n, watch=watch)
        raise exc
    if count != m:
        raise ValueError(f"header claims {m} edges but file has {count}")
    return g


def dumps_graph(g: Graph) -> str:
    """Serialize to the line format: "n m" then one "u v" line per edge."""
    buf = io.StringIO()
    _write_graph(g, buf)
    return buf.getvalue()


def loads_graph(text: str) -> Graph:
    """Parse the line format; raises ValueError naming the offending line.

    Non-ASCII text is read as load_graph reads its UTF-8 bytes, so each
    non-ASCII character fails on its own line rather than passing as
    whitespace.
    """
    if not text.isascii():
        text = text.encode("utf-8", "surrogatepass").decode(
            "ascii", "surrogateescape")
    return _read_graph(io.StringIO(text, newline=None))


def load_graph(path: str) -> Graph:
    """Read a graph file; raises ValueError naming the offending line.

    A byte outside ASCII is read as a lone surrogate, which no field
    accepts, so it fails on its own line rather than in the decoder.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return _read_graph(fh)


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write_graph(g, fh)


# ---------------------------------------------------------------------------
# random graphs for the CLI


def gnm_random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform graph with exactly m edges (rejection-sampled pairs)."""
    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"m={m} exceeds max {limit} for n={n}")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return Graph(n, chosen)

