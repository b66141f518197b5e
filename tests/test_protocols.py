import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from degencomm.comm import EdgePartition, random_partition
from degencomm.graphs import (
    Accept,
    Reject,
    complete_graph,
    cycle_graph,
    degeneracy,
    disjoint_union,
    gnm_random_graph,
    is_k_ordering,
    k_core,
    peel_decision,
    star_graph,
)
from degencomm.protocols import (
    _bucket_index,
    degen_decide_fast,
    degen_decide_sqrt,
    degen_search,
)

PROTOCOLS = [degen_decide_sqrt, degen_decide_fast]

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _split(g, seed):
    return random_partition(g, random.Random(seed))


# ---------------------------------------------------------------------------
# frozen decisions


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_k4_accepts_at_three(decide):
    out, ledger = decide(_split(complete_graph(4), 1), 3)
    assert isinstance(out, Accept)
    assert is_k_ordering(complete_graph(4), out.ordering, 3)
    assert ledger.bits_total > 0


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_k4_rejects_at_two(decide):
    out, _ = decide(_split(complete_graph(4), 2), 2)
    assert isinstance(out, Reject)
    assert out.core == frozenset(range(4))


def test_disjoint_triangles_zero_updates():
    g = disjoint_union(complete_graph(3), complete_graph(3))
    stats = {}
    out, _ = degen_decide_fast(_split(g, 3), 2, stats=stats)
    assert isinstance(out, Accept)
    assert stats["updates_max"] == 0


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_edgeless_and_k_zero(decide):
    from degencomm.graphs import empty_graph

    out, _ = decide(_split(empty_graph(5), 4), 0)
    assert isinstance(out, Accept)
    assert sorted(out.ordering) == list(range(5))


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_star_accepts_at_one(decide):
    out, _ = decide(_split(star_graph(7), 5), 1)
    assert isinstance(out, Accept)


# ---------------------------------------------------------------------------
# agreement with the sequential peeler


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_matches_peel_decision_on_seeded_instances(decide):
    rng = random.Random(417)
    for trial in range(120):
        n = rng.randrange(1, 24)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gnm_random_graph(n, m, rng)
        k = rng.randrange(0, 6)
        part = random_partition(g, rng)
        got, _ = decide(part, k)
        want = peel_decision(g, k)
        assert type(got) is type(want), (trial, n, m, k)
        if isinstance(got, Accept):
            assert is_k_ordering(g, got.ordering, k)
        else:
            assert got.core == k_core(g, k + 1)


@PROPERTY_SETTINGS
@given(st.data())
def test_both_protocols_agree(data):
    n = data.draw(st.integers(1, 16))
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    seed = data.draw(st.integers(0, 2**20))
    k = data.draw(st.integers(0, 5))
    rng = random.Random(seed)
    g = gnm_random_graph(n, m, rng)
    part = random_partition(g, rng)
    out_a, _ = degen_decide_sqrt(part, k)
    out_b, _ = degen_decide_fast(part, k)
    assert type(out_a) is type(out_b)
    if isinstance(out_a, Reject):
        assert out_a.core == out_b.core


# ---------------------------------------------------------------------------
# protocol internals


def test_bucket_index_boundaries():
    assert _bucket_index(1, 10) == 1
    assert _bucket_index(2, 10) == 2
    assert _bucket_index(3, 10) == 2
    assert _bucket_index(4, 10) == 3
    assert _bucket_index(7, 10) == 3
    assert _bucket_index(8, 10) == 4
    assert _bucket_index(1000, 5) == 5  # top bucket absorbs
    with pytest.raises(ValueError):
        _bucket_index(0, 10)


def test_update_counts_stay_logarithmic():
    rng = random.Random(99)
    n = 128
    cap = 2 * (math.ceil(math.log2(n)) + 1)
    for m in (n, 4 * n, 12 * n):
        g = gnm_random_graph(n, m, rng)
        part = random_partition(g, rng)
        stats = {}
        degen_decide_fast(part, 3, stats=stats)
        assert stats["updates_max"] <= cap


def test_safe_vertices_survive_their_block():
    rng = random.Random(7)
    for _ in range(20):
        g = gnm_random_graph(18, 60, rng)
        part = random_partition(g, rng)
        stats = {}
        degen_decide_sqrt(part, 2, stats=stats)
        for block in stats["blocks"]:
            assert not (block["safe"] & set(block["deleted"]))


def test_relabeling_with_matching_priority_is_isomorphic():
    rng = random.Random(2024)
    for _ in range(15):
        g = gnm_random_graph(12, 30, rng)
        perm = list(range(12))
        rng.shuffle(perm)
        h_edges = [(perm[u], perm[v]) for u, v in g.edges()]
        from degencomm.graphs import Graph

        h = Graph(12, h_edges)
        part_g = random_partition(g, random.Random(5))
        part_h = EdgePartition(
            h,
            [(perm[u], perm[v]) for u, v in part_g.edges_a],
            [(perm[u], perm[v]) for u, v in part_g.edges_b],
        )
        prio = [0] * 12
        for v in range(12):
            prio[perm[v]] = v
        out_g, led_g = degen_decide_fast(part_g, 3)
        out_h, led_h = degen_decide_fast(part_h, 3, priority=prio)
        assert led_g.bits_total == led_h.bits_total
        if isinstance(out_g, Accept):
            assert [perm[v] for v in out_g.ordering] == out_h.ordering
        else:
            assert frozenset(perm[v] for v in out_g.core) == out_h.core


# ---------------------------------------------------------------------------
# binary search


def test_search_k5():
    kappa, ordering, core, _ = degen_search(_split(complete_graph(5), 11))
    assert kappa == 4
    assert is_k_ordering(complete_graph(5), ordering, 4)
    assert core == frozenset(range(5))


def test_search_forest_and_edgeless():
    from degencomm.graphs import empty_graph, path_graph

    kappa, _, core, _ = degen_search(_split(path_graph(9), 0))
    assert kappa == 1
    assert core == k_core(path_graph(9), 1)
    kappa, ordering, core, _ = degen_search(_split(empty_graph(4), 0))
    assert kappa == 0
    assert sorted(ordering) == [0, 1, 2, 3]
    assert core == frozenset(range(4))


def test_search_empty_graph():
    from degencomm.graphs import empty_graph

    kappa, ordering, core, ledger = degen_search(_split(empty_graph(0), 0))
    assert (kappa, ordering, core) == (0, [], frozenset())
    assert ledger.bits_total == 0


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_search_matches_oracle(decide):
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randrange(1, 20)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = gnm_random_graph(n, m, rng)
        part = random_partition(g, rng)
        stats = {}
        kappa, ordering, core, _ = degen_search(part, decide=decide, stats=stats)
        assert kappa == degeneracy(g)
        assert is_k_ordering(g, ordering, kappa)
        assert core == (k_core(g, kappa) if kappa > 0 else frozenset(range(n)))
        assert len(stats["decisions"]) <= math.ceil(math.log2(n)) + 1


def test_search_bit_budget():
    rng = random.Random(8)
    for n in (16, 32, 64):
        g = gnm_random_graph(n, 3 * n, rng)
        part = random_partition(g, rng)
        costs = [degen_decide_fast(part, k)[1].bits_total for k in range(n)]
        _, _, _, ledger = degen_search(part)
        assert ledger.bits_total <= max(costs) * (math.ceil(math.log2(n)) + 1)


def test_cycle_search():
    kappa, _, core, _ = degen_search(_split(cycle_graph(6), 4))
    assert kappa == 2
    assert core == frozenset(range(6))
