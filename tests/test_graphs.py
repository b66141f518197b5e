import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from degencomm import graphs as G

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


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
        for u in g.adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] < k:
                    stack.append(u)
    return frozenset(v for v in range(g.n) if alive[v])


# ---------------------------------------------------------------------------
# frozen expected values (checked against brute_force_degeneracy first)


def test_complete_graph_peel():
    trace = G.peel(G.complete_graph(4))
    assert trace.degree_at_removal == [3, 2, 1, 0]
    assert trace.degeneracy == 3
    assert G.brute_force_degeneracy(G.complete_graph(4)) == 3


def test_five_cycle():
    g = G.cycle_graph(5)
    assert G.degeneracy(g) == 2
    assert G.brute_force_degeneracy(g) == 2


def test_petersen():
    g = G.petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert G.brute_force_degeneracy(g) == 3
    assert G.degeneracy(g) == 3


def test_star_and_empty():
    assert G.degeneracy(G.star_graph(6)) == 1
    assert G.degeneracy(G.empty_graph(5)) == 0
    assert G.degeneracy(G.Graph(0)) == 0
    assert G.degeneracy(G.Graph(1)) == 0


def test_seeded_gnp_matches_oracle():
    rng = random.Random(1405)
    for _ in range(25):
        g = G.gnp_random_graph(10, 0.4, rng)
        assert G.degeneracy(g) == G.brute_force_degeneracy(g)


def test_peel_tie_break_is_smallest_id():
    # all degrees equal, so removal starts at vertex 0 and cascades
    trace = G.peel(G.cycle_graph(4))
    assert trace.order[0] == 0


def test_peel_alternate_tie_breaks_same_degeneracy():
    rng = random.Random(7)
    for _ in range(10):
        g = G.gnm_random_graph(12, 20, rng)
        kappas = {G.peel(g, tie_break=t).degeneracy for t in G.TIE_BREAKS}
        assert len(kappas) == 1


# ---------------------------------------------------------------------------
# orderings


def test_outdegree_profile_path():
    g = G.path_graph(3)  # edges 0-1, 1-2
    prof = G.outdegree_profile(g, [1, 0, 2])
    assert prof[1] == 2 and prof[0] == 0 and prof[2] == 0


def test_outdegree_profile_k3():
    prof = G.outdegree_profile(G.complete_graph(3), [0, 1, 2])
    assert prof == [2, 1, 0]


def test_outdegree_rejects_non_permutation():
    with pytest.raises(ValueError):
        G.outdegree_profile(G.complete_graph(3), [0, 1, 1])


def test_is_k_ordering_examples():
    k4 = G.complete_graph(4)
    assert not G.is_k_ordering(k4, [0, 1, 2, 3], 2)
    assert G.is_k_ordering(k4, [0, 1, 2, 3], 3)
    c5 = G.cycle_graph(5)
    assert G.is_k_ordering(c5, [0, 1, 2, 3, 4], 2)


# ---------------------------------------------------------------------------
# cores and decisions


def test_k_core_examples():
    k4 = G.complete_graph(4)
    assert G.k_core(k4, 3) == frozenset(range(4))
    tree = G.star_graph(5)
    assert G.k_core(tree, 2) == frozenset()
    two_triangles = G.disjoint_union(G.complete_graph(3), G.complete_graph(3))
    g = G.Graph(7, two_triangles.edges() + [(0, 6)])
    assert G.k_core(g, 2) == frozenset(range(6))


def test_peel_decision_k4():
    assert isinstance(G.peel_decision(G.complete_graph(4), 3), G.Accept)
    res = G.peel_decision(G.complete_graph(4), 2)
    assert isinstance(res, G.Reject)
    assert res.core == frozenset(range(4))


# ---------------------------------------------------------------------------
# text format


def test_roundtrip_text():
    g = G.petersen_graph()
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
        assert sum(1 for u in g.adj[v] if u in core) >= k


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
            assert sum(1 for u in g.adj[v] if u in res.core) >= k + 1
