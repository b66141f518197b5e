import io
import random
import time
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from degencomm import graphs as G

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def gnp_random_graph(n, p, rng):
    """G(n, p): each pair (u, v), u < v in order, joined with probability p."""
    return G.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                       if rng.random() < p])


def empty_graph(n):
    return G.Graph(n)


def complete_graph(n):
    return G.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return G.Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n):
    return G.Graph(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(n):
    """One hub (vertex 0) joined to n-1 leaves."""
    return G.Graph(n, [(0, v) for v in range(1, n)])


def petersen_graph():
    outer = [(v, (v + 1) % 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    spokes = [(v, 5 + v) for v in range(5)]
    return G.Graph(10, outer + inner + spokes)


def disjoint_union(a, b):
    shifted = [(a.n + u, a.n + v) for u, v in b.edges()]
    return G.Graph(a.n + b.n, a.edges() + shifted)


@st.composite
def small_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return G.Graph(n, edges)


def reference_k_core(g, k):
    """The k-core by its own deletion loop: the oracle for G.k_core."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    stack = [v for v in range(g.n) if deg[v] < k]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for u in g.neighbors(v):
            if alive[u]:
                deg[u] -= 1
                if deg[u] < k:
                    stack.append(u)
    return frozenset(v for v in range(g.n) if alive[v])


# ---------------------------------------------------------------------------
# frozen expected values (checked against brute_force_degeneracy first)


def test_complete_graph_peel():
    trace = G.peel(complete_graph(4))
    assert trace.degree_at_removal == [3, 2, 1, 0]
    assert trace.degeneracy == 3
    assert G.brute_force_degeneracy(complete_graph(4)) == 3


def test_five_cycle():
    g = cycle_graph(5)
    assert G.degeneracy(g) == 2
    assert G.brute_force_degeneracy(g) == 2


def test_petersen():
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert G.brute_force_degeneracy(g) == 3
    assert G.degeneracy(g) == 3


def test_star_and_empty():
    assert G.degeneracy(star_graph(6)) == 1
    assert G.degeneracy(empty_graph(5)) == 0
    assert G.degeneracy(G.Graph(0)) == 0
    assert G.degeneracy(G.Graph(1)) == 0


def test_seeded_gnp_matches_oracle():
    rng = random.Random(1405)
    for _ in range(25):
        g = gnp_random_graph(10, 0.4, rng)
        assert G.degeneracy(g) == G.brute_force_degeneracy(g)


def test_peel_tie_break_is_smallest_id():
    # all degrees equal, so removal starts at vertex 0 and cascades
    trace = G.peel(cycle_graph(4))
    assert trace.order[0] == 0


@pytest.mark.parametrize("n", [24, 41])
def test_peel_matches_the_reference_on_both_sides_of_the_density_cut(n):
    # a graph with n * n <= _DENSE * 2e is peeled by key scans, any other
    # by a heap of keys: e runs from just below the cut to just above it
    cut = -(-n * n // (2 * G._DENSE))  # the least e on the dense side
    rng = random.Random(n)
    dense = set()
    for e in (cut - 1, cut, cut + 1):
        for _ in range(3):
            g = G.gnm_random_graph(n, e, rng)
            dense.add(g.n * g.n <= G._DENSE * len(g.nbrs))
            assert_matches_reference(g)
    assert dense == {False, True}


@pytest.mark.parametrize("n,e", [(2000, 2000), (2000, 8000), (3000, 3000),
                                 (3000, 12_000)])
def test_peel_matches_the_reference_on_sparse_graphs(n, e):
    # far below the density cut, where every pick comes off the heap and
    # most vertices share the least degree
    g = G.gnm_random_graph(n, e, random.Random(n + e))
    assert g.n * g.n > 16 * G._DENSE * len(g.nbrs)
    assert_matches_reference(g)


def test_settled_peel_is_a_prefix_of_the_full_peel():
    # peel(g, prefix=p) removes at least min(p, n) vertices, then stops
    # once no later removal can raise the degeneracy; G(n, e) over every
    # density covers the key scan's power-of-two checks and the heap
    rng = random.Random(2406)
    for _ in range(400):
        n = rng.randrange(61)
        g = G.gnm_random_graph(n, rng.randrange(n * (n - 1) // 2 + 1), rng)
        full = G.peel(g)
        if n <= 12:
            assert full.degeneracy == G.brute_force_degeneracy(g)
        for p in (0, 1, 3, n):
            part = G.peel(g, prefix=p)
            size = len(part.order)
            assert min(p, n) <= size <= n
            assert part.order == full.order[:size]
            assert part.degree_at_removal == full.degree_at_removal[:size]
            assert part.degeneracy == full.degeneracy


def test_settled_peel_stops_early_on_low_degrees():
    # no vertex starts above degree 0, so the first removal settles it
    assert G.peel(empty_graph(100_000), prefix=0).order == [0]
    assert G.degeneracy(empty_graph(100_000)) == 0
    # K5 plus a pendant path: once the path is gone, live - 1 <= 4
    g = G.Graph(8, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                + [(4, 5), (5, 6), (6, 7)])
    part = G.peel(g, prefix=0)
    assert part.degeneracy == 4 and len(part.order) == 4
    assert G.peel(g, prefix=6).order == G.peel(g).order[:6]
    with pytest.raises(ValueError, match="prefix"):
        G.peel(g, prefix=-1)


def _within_5s(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    assert time.perf_counter() - t0 < 5.0, fn.__name__
    return out


@pytest.mark.parametrize("e", [0, 100_000])
def test_sparse_peels_scale_to_100k_vertices(e):
    # n = 100 000 with e = 0 or n: each call is well under a second on a
    # 2-core host; a peel quadratic in n takes tens of seconds per call
    n = 100_000
    g = G.gnm_random_graph(n, e, random.Random(2026))
    trace = _within_5s(G.peel, g)
    decision = _within_5s(G.peel_decision, g, 1)
    core = _within_5s(G.k_core, g, 2)
    assert sorted(trace.order) == list(range(n))
    if e == 0:
        assert trace.order == list(range(n)) and trace.degeneracy == 0
        assert decision == G.Accept(trace.order) and core == frozenset()
    else:
        assert isinstance(decision, G.Reject) and decision.core == core
        assert core == reference_k_core(g, 2)


def test_peel_alternate_tie_breaks_same_degeneracy():
    rng = random.Random(7)
    for _ in range(10):
        g = G.gnm_random_graph(12, 20, rng)
        ref = ReferenceGraph(g.n, g.edges())
        kappas = {reference_peel(ref, pick).degeneracy
                  for pick in REFERENCE_PICKS.values()}
        assert kappas == {G.peel(g).degeneracy}


# ---------------------------------------------------------------------------
# orderings


def test_is_k_ordering_path():
    g = path_graph(3)  # edges 0-1, 1-2; vertex 1 first has both later
    assert G.is_k_ordering(g, [1, 0, 2], 2)
    assert not G.is_k_ordering(g, [1, 0, 2], 1)
    assert G.is_k_ordering(g, [0, 1, 2], 1)


def test_is_k_ordering_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        G.is_k_ordering(complete_graph(3), [0, 1, 1], 2)


def test_is_k_ordering_examples():
    k3 = complete_graph(3)
    assert G.is_k_ordering(k3, [0, 1, 2], 2)
    assert not G.is_k_ordering(k3, [0, 1, 2], 1)
    k4 = complete_graph(4)
    assert not G.is_k_ordering(k4, [0, 1, 2, 3], 2)
    assert G.is_k_ordering(k4, [0, 1, 2, 3], 3)
    c5 = cycle_graph(5)
    assert G.is_k_ordering(c5, [0, 1, 2, 3, 4], 2)


# ---------------------------------------------------------------------------
# cores and decisions


def test_k_core_examples():
    k4 = complete_graph(4)
    assert G.k_core(k4, 3) == frozenset(range(4))
    tree = star_graph(5)
    assert G.k_core(tree, 2) == frozenset()
    two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
    g = G.Graph(7, two_triangles.edges() + [(0, 6)])
    assert G.k_core(g, 2) == frozenset(range(6))


def test_peel_decision_k4():
    assert isinstance(G.peel_decision(complete_graph(4), 3), G.Accept)
    res = G.peel_decision(complete_graph(4), 2)
    assert isinstance(res, G.Reject)
    assert res.core == frozenset(range(4))


# ---------------------------------------------------------------------------
# text format


def test_roundtrip_text():
    g = petersen_graph()
    assert G.loads_graph(G.dumps_graph(g)).edges() == g.edges()


def test_load_rejects_duplicates_and_loops():
    with pytest.raises(ValueError, match="line 3"):
        G.loads_graph("3 2\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        G.loads_graph("3 1\n1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        G.loads_graph("3 1\n1 0\n")  # needs u < v
    with pytest.raises(ValueError, match="claims"):
        G.loads_graph("3 2\n0 1\n")


# ---------------------------------------------------------------------------
# properties


@PROPERTY_SETTINGS
@given(small_graphs())
def test_peel_order_is_kappa_ordering(g):
    trace = G.peel(g)
    assert G.is_k_ordering(g, trace.order, trace.degeneracy)
    # and the degeneracy is the smallest k this holds for
    if trace.degeneracy > 0:
        assert not G.is_k_ordering(g, trace.order, trace.degeneracy - 1)


@PROPERTY_SETTINGS
@given(small_graphs())
def test_degeneracy_matches_brute_force(g):
    assert G.degeneracy(g) == G.brute_force_degeneracy(g)


@PROPERTY_SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=12))
def test_k_core_nonempty_iff_degeneracy_reaches_k(g, k):
    core = G.k_core(g, k)
    assert core == reference_k_core(g, k)
    if g.n > 0:
        assert bool(core) == (G.degeneracy(g) >= k)
    else:
        assert core == frozenset()
    # every member keeps >= k neighbors inside the core
    for v in core:
        assert sum(1 for u in g.neighbors(v) if u in core) >= k


@PROPERTY_SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=12))
def test_peel_decision_agrees_with_degeneracy(g, k):
    res = G.peel_decision(g, k)
    if isinstance(res, G.Accept):
        assert G.degeneracy(g) <= k
        assert G.is_k_ordering(g, res.ordering, k)
    else:
        assert G.degeneracy(g) > k
        for v in res.core:
            assert sum(1 for u in g.neighbors(v) if u in res.core) >= k + 1


@PROPERTY_SETTINGS
@given(small_graphs())
def test_peel_decision_and_k_core_are_prefixes_of_peel(g):
    """One peel, stopped at k: Accept carries the whole peel order, and
    Reject and the (k+1)-core are what is left once the next residual
    degree exceeds k."""
    trace = G.peel(g)
    kappa = G.degeneracy(g)
    top = max((g.degree(v) for v in range(g.n)), default=0)
    for k in range(top + 2):
        i = next((i for i, d in enumerate(trace.degree_at_removal) if d > k),
                 g.n)
        rest = frozenset(trace.order[i:])
        res = G.peel_decision(g, k)
        if k >= kappa:
            assert isinstance(res, G.Accept), k
            assert res.ordering == trace.order, k
        else:
            assert isinstance(res, G.Reject), k
            assert res.core == rest, k
        assert G.k_core(g, k + 1) == rest, k


# ---------------------------------------------------------------------------
# the adjacency-set graph and peels this module used before its compact
# rows, kept verbatim (renamed) as the oracle for the differential tests


class ReferenceGraph:
    """Undirected simple graph on vertices 0..n-1.

    Args:
        n: number of vertices.
        edges: iterable of (u, v) pairs, any orientation. Loops and
            duplicates raise ValueError.
    """

    __slots__ = ("n", "adj", "_m")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        self.adj = [set() for _ in range(n)]
        self._m = 0
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u, v):
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        if v in self.adj[u]:
            raise ValueError(f"duplicate edge ({u},{v})")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self._m += 1

    def degree(self, v):
        return len(self.adj[v])


class _ReferenceBucketQueue:
    """Residual degrees in an array of buckets; supports decrease-by-one.

    Classic structure for linear-time peeling: bucket[d] holds the live
    vertices of residual degree d and a cursor tracks the smallest
    nonempty bucket (it only needs to move down by one per decrement).
    """

    def __init__(self, degrees):
        self.deg = list(degrees)
        self.buckets = [set() for _ in range(len(degrees) + 1)]
        for v, d in enumerate(degrees):
            self.buckets[d].add(v)
        self.floor = 0

    def pop_min(self, pick):
        while not self.buckets[self.floor]:
            self.floor += 1
        bucket = self.buckets[self.floor]
        v = pick(bucket)
        bucket.discard(v)
        return v, self.deg[v]

    def decrement(self, v):
        d = self.deg[v]
        self.buckets[d].discard(v)
        self.deg[v] = d - 1
        self.buckets[d - 1].add(v)
        if d - 1 < self.floor:
            self.floor = d - 1


# Tie-break policies for choosing among minimum-degree vertices. The
# package always takes "min"; the others confirm that the degeneracy
# does not depend on the choice.
REFERENCE_PICKS = {
    "min": min,
    "max": max,
    "mid": lambda s: sorted(s)[len(s) // 2],
}


def reference_peel(g, pick=min):
    """Repeatedly remove a minimum-residual-degree vertex.

    pick chooses among the vertices of minimum residual degree. The max
    residual degree seen along the way is the degeneracy.
    """
    trace = G.PeelTrace()
    if g.n == 0:
        return trace
    queue = _ReferenceBucketQueue([g.degree(v) for v in range(g.n)])
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


def reference_peel_decision(g, k):
    """Peel at threshold k: remove vertices while one has degree <= k.

    Accept carries the removal order (a k-ordering) when the graph
    empties; Reject carries the remaining vertices, which form the
    nonempty (k+1)-core.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order = []
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
        return G.Reject(survivors)
    return G.Accept(order)


def assert_matches_reference(g):
    """peel, peel_decision and k_core agree with the adjacency-set oracle.

    peel must equal the oracle's least-id peel; every oracle tie-break
    policy must reach the same degeneracy.

    The oracle's Accept.ordering is its stack order, not the peel order
    the package returns, so here it is only required to be a k-ordering;
    everything else must be identical.
    """
    ref = ReferenceGraph(g.n, g.edges())
    trace = G.peel(g)
    assert trace == reference_peel(ref)
    for name, pick in REFERENCE_PICKS.items():
        assert reference_peel(ref, pick).degeneracy == trace.degeneracy, name
    top = max((g.degree(v) for v in range(g.n)), default=0)
    for k in range(top + 2):
        got, want = G.peel_decision(g, k), reference_peel_decision(ref, k)
        assert type(got) is type(want), k
        if isinstance(want, G.Reject):
            assert got.core == want.core, k
        else:
            assert G.is_k_ordering(g, got.ordering, k), k
        want_core = frozenset() if isinstance(want, G.Accept) else want.core
        assert G.k_core(g, k + 1) == want_core, k
    assert G.k_core(g, 0) == frozenset(range(g.n))


@PROPERTY_SETTINGS
@given(small_graphs())
def test_compact_graph_matches_reference_on_small_graphs(g):
    assert_matches_reference(g)


def test_compact_graph_matches_reference_on_random_graphs():
    rng = random.Random(6060)
    for _ in range(20):
        n = rng.randrange(2, 80)
        m = rng.randrange(0, min(4 * n, n * (n - 1) // 2) + 1)
        assert_matches_reference(G.gnm_random_graph(n, m, rng))


def test_compact_graph_matches_reference_on_a_gadget():
    from degencomm.gadget import build_gadget
    from degencomm.hpc import sample_bmhpc

    gg = build_gadget(sample_bmhpc(8, 2, random.Random(31)))
    assert_matches_reference(gg.graph)


def test_cores_match_networkx():
    nx = pytest.importorskip("networkx")
    g = G.gnm_random_graph(20_000, 100_000, random.Random(2003))
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    core = nx.core_number(h)
    kappa = G.degeneracy(g)
    assert max(core.values()) == kappa
    for k in (1, 2, 3, kappa - 1, kappa, kappa + 1):
        assert G.k_core(g, k) == frozenset(v for v, c in core.items() if c >= k)


# ---------------------------------------------------------------------------
# the compact graph itself


def test_graph_rows_are_sorted_and_symmetric():
    g = G.Graph(5, [(3, 1), (0, 4), (1, 0), (2, 1)])
    assert g.m == 4
    assert [list(g.neighbors(v)) for v in range(5)] == [
        [1, 4], [0, 2, 3], [1], [1], [0]]
    assert g.has_edge(1, 3) and g.has_edge(3, 1) and not g.has_edge(2, 3)
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (1, 3)]
    assert g == G.Graph(5, g.edges()) and g != G.Graph(6, g.edges())
    assert g != G.Graph(5, [(0, 1), (0, 4), (1, 2), (2, 3)])


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (1, 0)], "duplicate edge (1,0)"),
    ([(0, 1), (2, 2)], "self-loop at vertex 2"),
    ([(0, 1), (0, 3)], "edge (0,3) out of range for n=3"),
    ([(0, 1), (1, 0), (2, 2)], "duplicate edge (1,0)"),
    ([(2, 2), (0, 1), (1, 0)], "self-loop at vertex 2"),
])
def test_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as err:
        G.Graph(3, iter(edges))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# text format through files


def test_save_and_load_graph_match_the_text_form(tmp_path):
    path = tmp_path / "g.txt"
    for g in (G.Graph(0), G.Graph(4), petersen_graph(),
              G.gnm_random_graph(60, 200, random.Random(5))):
        G.save_graph(g, str(path))
        assert path.read_bytes() == G.dumps_graph(g).encode("ascii")
        assert G.load_graph(str(path)) == g == G.loads_graph(G.dumps_graph(g))


@pytest.mark.parametrize("text,message", [
    ("3 2\n0 1\n0 1\n", "line 3: duplicate edge (0,1)"),
    ("3 1\n1 1\n", "line 2: need 0 <= u < v < n, got 1 1"),
    ("3 1\n1 0\n", "line 2: need 0 <= u < v < n, got 1 0"),
    ("3 2\n0 1\n", "header claims 2 edges but file has 1"),
    ("4 4\n1 2\n0 1\n\n1 2\n0 1\n", "line 5: duplicate edge (1,2)"),
    ("3 3\n0 1\n00 1\n1 5\n", "line 3: duplicate edge (0,1)"),
    ("4 5\n0 1\n1 2\n2 3\n1 2\n3\n", "line 5: duplicate edge (1,2)"),
    ("4 4\n0 1\n1 2\n0 +1\n0 1\n", "line 4: endpoints must be integers"),
    ("4 4\n2 3\n0 1\n2 3\n0 1\n", "line 4: duplicate edge (2,3)"),
    ("3 3\n0 1\n0 1\n0 1\n", "line 3: duplicate edge (0,1)"),
    ("3 3\n0 1\n1 2\n1 2 0\n", "line 4: expected 'u v'"),
    ("20 1\n0 +1\n", "line 2: endpoints must be integers"),
    ("20 1\n0 1_0\n", "line 2: endpoints must be integers"),
    ("+3 1\n0 1\n", "line 1: header fields must be integers"),
    ("\u0663 1\n0 1\n", "line 1: header fields must be integers"),
    ("3 1_0\n0 1\n", "line 1: header fields must be integers"),
    ("-3 1\n", "line 1: header fields must be integers"),
    ("3 1\n0\u00a01\n", "line 2: expected 'u v'"),
    ("3 1\n0\u20031\n", "line 2: expected 'u v'"),
])
def test_load_graph_file_fails_like_the_text_parser(tmp_path, text, message,
                                                   line_scans):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as from_file:
        G.load_graph(str(path))
    with pytest.raises(ValueError) as from_text:
        G.loads_graph(text)
    assert str(from_file.value) == str(from_text.value) == message
    # the body is scanned once, and once more only to name a repeated pair
    scans = 0 if message.startswith("line 1:") else 1 + ("duplicate" in message)
    assert len(line_scans) == 2 * scans


@pytest.mark.parametrize("text", ["3 1\n0 \u0662\n", "3 1\n0 \u00b2\n",
                                  "30 1\n0 \uff11\uff12\n"])
def test_text_endpoints_must_be_ascii_decimal(text):
    with pytest.raises(ValueError, match="^line 2: endpoints must be integers$"):
        G.loads_graph(text)


@pytest.mark.parametrize("data,message", [
    (b"3 1\n1 \xc3\xa92\n", "line 2: endpoints must be integers"),
    (b"3 2\n0 1\n\xff\n", "line 3: expected 'u v'"),
    (b"3\xc2\xa0 1\n0 1\n", "line 1: header fields must be integers"),
])
def test_load_graph_names_the_line_of_a_non_ascii_byte(tmp_path, data, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        G.load_graph(str(path))
    assert type(err.value) is ValueError and str(err.value) == message


def _write_graph_per_id(g, fh):
    """The line writer as it was with one str() call per id."""
    fh.write(f"{g.n} {g.m}\n")
    for u in range(g.n):
        upper = g.upper(u)
        if upper:
            head = f"{u} "
            fh.write(head + f"\n{head}".join(map(str, upper)) + "\n")


def test_writer_matches_the_per_id_writer():
    from degencomm.gadget import build_gadget
    from degencomm.hpc import sample_bmhpc

    gadget = build_gadget(sample_bmhpc(8, 2, random.Random(13))).graph
    big = G.gnm_random_graph(700, 2800, random.Random(8))
    assert big.n > 256
    for g in (G.Graph(0), G.Graph(5), complete_graph(6), big, gadget):
        ref = io.StringIO()
        _write_graph_per_id(g, ref)
        assert G.dumps_graph(g) == ref.getvalue()


# ---------------------------------------------------------------------------
# the reader against a plain line reader


def _reference_scan_edges(fh, n, rows=None):
    """A plain line scan, parsing every id: fill rows, or without them
    keep a set of every edge and raise naming the first line that
    repeats one."""
    seen = set()
    count = 0
    for lineno, raw in enumerate(fh, start=2):
        parts = raw.split()
        if not parts:
            continue
        u, v = G._parse_edge(parts, lineno, n)
        if rows is not None:
            rows[u].append(v)
            rows[v].append(u)
        elif (u, v) in seen:
            raise ValueError(f"line {lineno}: duplicate edge ({u},{v})")
        else:
            seen.add((u, v))
        count += 1
    return count


def _reference_read_graph(fh):
    """A plain graph reader over _reference_scan_edges."""
    head = fh.readline().split()
    if len(head) != 2:
        raise ValueError("line 1: expected header 'n m'")
    if not all(f.isascii() and f.isdigit() for f in head):
        raise ValueError("line 1: header fields must be integers")
    n, m = int(head[0]), int(head[1])
    rows = [[] for _ in range(n)]
    try:
        count = _reference_scan_edges(fh, n, rows)
        g = G.Graph.from_rows(rows)
    except ValueError as exc:
        fh.seek(0)
        fh.readline()
        _reference_scan_edges(fh, n)
        raise exc
    if count != m:
        raise ValueError(f"header claims {m} edges but file has {count}")
    return g


def _reference_loads(text):
    if not text.isascii():
        text = text.encode("utf-8", "surrogatepass").decode(
            "ascii", "surrogateescape")
    return _reference_read_graph(io.StringIO(text, newline=None))


@pytest.fixture
def line_scans(monkeypatch):
    """Count the calls of the line scan made by the reader under test."""
    calls = []
    scan = G._scan_edges

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return scan(*args, **kwargs)

    monkeypatch.setattr(G, "_scan_edges", counted)
    return calls


def _read_both(text, tmp_path):
    """loads_graph(text) and load_graph of its UTF-8 bytes, which must agree."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    g = G.loads_graph(text)
    assert G.load_graph(str(path)) == g
    return g


def _load(source, text, tmp_path):
    """What one entry point makes of text: loads_graph of the text, or
    load_graph of a file holding its UTF-8 bytes."""
    if source == "text":
        return G.loads_graph(text)
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    return G.load_graph(str(path))


def _sample_graphs():
    from degencomm.gadget import build_gadget
    from degencomm.hpc import sample_bmhpc

    rng = random.Random(41)
    yield from (build_gadget(sample_bmhpc(m, 1, random.Random(m))).graph
                for m in (4, 8, 16))
    yield G.gnm_random_graph(30, 400, rng)
    yield G.gnm_random_graph(120, 1000, rng)
    yield G.gnm_random_graph(60, 100, rng)
    yield G.Graph(0)
    yield G.Graph(1)
    yield complete_graph(2)
    # isolated top vertices
    yield disjoint_union(complete_graph(30), empty_graph(5))
    # heads and rows that cross the 9/10, 99/100 and 999/1000 widths
    yield complete_graph(20)
    yield G.Graph(1001, [(u, v) for u in (*range(10), 99, 999)
                         for v in range(u + 1, 1001)])


def test_the_reader_matches_the_plain_line_reader(tmp_path):
    for g in _sample_graphs():
        text = G.dumps_graph(g)
        assert _read_both(text, tmp_path) == _reference_loads(text) == g


def _dense_body():
    g = G.gnm_random_graph(40, 400, random.Random(7))
    header, *body = G.dumps_graph(g).splitlines()
    return g, header, body


def _loosen(body, how):
    """The lines of body laid out by hand in one of the ways the line
    reader accepts, two thirds of the way in."""
    at = 2 * len(body) // 3
    line = body[at]
    if how == "rows out of order":
        first = body[0].split()[0] + " "
        return ([b for b in body if not b.startswith(first)]
                + [b for b in body if b.startswith(first)])
    if how == "v descending in a row":
        head = line.split()[0] + " "
        row = [i for i, b in enumerate(body) if b.startswith(head)]
        assert len(row) > 1
        out = body[:]
        out[row[0]:row[-1] + 1] = reversed(body[row[0]:row[-1] + 1])
        return out
    edit = {
        "blank line": ["", line],
        "CRLF": [line + "\r"],
        "tab": [line.replace(" ", "\t")],
        "double space": [line.replace(" ", "  ")],
        "trailing space": [line + " "],
        "leading zero": ["0" + line],
    }[how]
    return body[:at] + edit + body[at + 1:]


@pytest.mark.parametrize("source", ["file", "text"])
@pytest.mark.parametrize("how", [
    "rows out of order", "v descending in a row", "blank line", "CRLF",
    "tab", "double space", "trailing space", "leading zero",
    "no newline at the end"])
def test_loose_layouts_read_like_the_canonical_one(how, source, tmp_path):
    g, header, body = _dense_body()
    if how == "no newline at the end":
        text = "\n".join([header, *body])
    else:
        text = "\n".join([header, *_loosen(body, how)]) + "\n"
    assert _load(source, text, tmp_path) == _reference_loads(text) == g


def _malformed(body, where, bad):
    """body with the line bad inserted where, and its line number."""
    at = {"middle": 2 * len(body) // 3, "end": len(body)}[where]
    bad = bad.format(first=body[0], before=body[at - 1],
                     flipped=" ".join(body[at - 1].split()[::-1]))
    return body[:at] + [bad] + body[at:], at + 2


@pytest.mark.parametrize("source", ["file", "text"])
@pytest.mark.parametrize("where", ["middle", "end"])
@pytest.mark.parametrize("bad,message", [
    ("{first}", "duplicate edge"),
    ("{before}", "duplicate edge"),
    ("0{first}", "duplicate edge"),
    ("39 39", "need 0 <= u < v < n, got 39 39"),
    ("{flipped}", "need 0 <= u < v < n"),
    ("0 40", "need 0 <= u < v < n, got 0 40"),
    ("0 " + "1" * 50, "need 0 <= u < v < n"),
    ("1 2 0", "expected 'u v'"),
    ("7", "expected 'u v'"),
    ("0 +1", "endpoints must be integers"),
    ("0 é1", "endpoints must be integers"),
    ("0 1", "expected 'u v'"),
])
def test_a_fault_after_canonical_rows_fails_like_the_line_reader(
        bad, message, where, source, tmp_path):
    g, header, body = _dense_body()
    lines, lineno = _malformed(body, where, bad)
    text = "\n".join([f"{g.n} {g.m + 1}", *lines]) + "\n"
    assert lineno > 100
    with pytest.raises(ValueError) as ref:
        _reference_loads(text)
    assert str(ref.value).startswith(f"line {lineno}: {message}")
    with pytest.raises(ValueError) as err:
        _load(source, text, tmp_path)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("source", ["file", "text"])
@pytest.mark.parametrize("claimed", [-1, 1])
def test_a_wrong_edge_count_after_canonical_rows(claimed, source, tmp_path):
    g, _, body = _dense_body()
    text = "\n".join([f"{g.n} {g.m + claimed}", *body]) + "\n"
    message = f"header claims {g.m + claimed} edges but file has {g.m}"
    for read in (lambda: _load(source, text, tmp_path),
                 lambda: _reference_loads(text)):
        with pytest.raises(ValueError) as err:
            read()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# id width


def test_id_typecode_is_two_bytes_exactly_when_every_id_fits():
    assert G.id_typecode(0) == G.id_typecode(65536) == "H"
    assert G.id_typecode(65537) == "i"
    assert array("H", [65535])[0] == 65535
    with pytest.raises(OverflowError):
        array("H", [65536])


def _hubs(n, hubs):
    """Vertices 0..hubs-1 joined to every other vertex of n, as rows."""
    return [[u for u in range(n) if u != v] if v < hubs else list(range(hubs))
            for v in range(n)]


@pytest.mark.parametrize("n", [65536, 65537])
def test_the_top_id_round_trips_at_the_width_edge(n):
    g = G.Graph(n, [(0, n - 1), (n - 2, n - 1)])
    assert g.nbrs.typecode == G.id_typecode(n)
    back = G.loads_graph(G.dumps_graph(g))
    assert back == g and back.nbrs.typecode == G.id_typecode(n)
    assert back.has_edge(0, n - 1) and back.neighbors(n - 1)[0] == 0


@pytest.mark.parametrize("n", [65536, 65537])
def test_every_builder_takes_the_width_rule(n, tmp_path):
    from degencomm.gadget import build_gadget
    from degencomm.hpc import sample_bmhpc

    edges = [(0, n - 1), (1, n - 1)]
    path = tmp_path / "g.txt"
    path.write_text(f"{n} 2\n0 {n - 1}\n1 {n - 1}\n")
    code = G.id_typecode(n)
    for g in (G.Graph(n, edges), G.Graph.from_rows(_hubs(n, 0)),
              G.load_graph(str(path))):
        assert (g.nbrs.typecode, g.offsets.typecode) == (code, "i")
    gg = build_gadget(sample_bmhpc(8, 2, random.Random(3)))
    assert gg.graph.nbrs.typecode == G.id_typecode(gg.graph.n) == "H"


def test_a_narrow_graph_equals_the_same_rows_held_wide():
    rng = random.Random(12)
    for g in (G.Graph(0), petersen_graph(),
              G.gnm_random_graph(50, 300, rng)):
        assert g.nbrs.typecode == "H"
        wide = G.Graph.from_csr(array("i", g.offsets), array("i", g.nbrs))
        assert wide == g and g == wide and wide.edges() == g.edges()
        assert G.peel(wide) == G.peel(g)
