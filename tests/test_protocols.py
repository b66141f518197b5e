import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from degencomm.comm import (
    CommLedger,
    EdgePartition,
    Field,
    ProtocolError,
    random_partition,
    run_two_party,
    uint,
    uint_width,
    vec,
)
from degencomm.graphs import (
    Accept,
    Graph,
    Reject,
    degeneracy,
    gnm_random_graph,
    is_k_ordering,
    k_core,
    peel_decision,
)
from degencomm.protocols import (
    _bucket_count,
    _bucket_index,
    _ceil_sqrt,
    _fill_update_stats,
    _swap,
    degen_decide_fast,
    degen_decide_sqrt,
    degen_search,
)

from test_graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    star_graph,
)

PROTOCOLS = [degen_decide_sqrt, degen_decide_fast]

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# The per-item encoders the reference parties below are written in; the
# package's bulk lp_uints/lp_pairs must give the same fields (the same copy
# in test_comm.py is the oracle for them).


def vertex_id(v: int, n: int) -> Field:
    return uint(v, n)


def lp_list(items: list[Field], max_len: int) -> Field:
    """Length-prefixed list: a count in [0, max_len] then the items."""
    if len(items) > max_len:
        raise ValueError(f"list of {len(items)} exceeds max {max_len}")
    prefix = uint_width(max_len + 1)
    return Field(tuple(i.value for i in items), prefix + sum(i.bits for i in items))


def _split(g, seed):
    return random_partition(g, random.Random(seed))


def alice_gets(g, alice_edges):
    """The partition of g that gives Alice alice_edges and Bob the rest."""
    alice = {(min(u, v), max(u, v)) for u, v in alice_edges}
    return EdgePartition(g, bytes(e not in alice for e in g.edges()))


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


@pytest.mark.parametrize("decide", PROTOCOLS)
def test_relabeling_keeps_the_decision_and_the_core(decide):
    # least id first makes the peel order depend on the labels, but the
    # decision and the (k+1)-core a Reject names are isomorphism invariants
    rng = random.Random(2024)
    for _ in range(15):
        g = gnm_random_graph(12, 30, rng)
        perm = list(range(12))
        rng.shuffle(perm)
        h = Graph(12, [(perm[u], perm[v]) for u, v in g.edges()])
        part_g = random_partition(g, random.Random(5))
        part_h = alice_gets(h, [(perm[u], perm[v]) for u in range(12)
                                for v in part_g.adj_a[u] if u < v])
        for k in range(2, 5):
            out_g, _ = decide(part_g, k)
            out_h, _ = decide(part_h, k)
            assert type(out_g) is type(out_h), k
            if isinstance(out_g, Accept):
                assert is_k_ordering(g, out_g.ordering, k)
                assert is_k_ordering(h, out_h.ordering, k)
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
    kappa, _, core, _ = degen_search(_split(path_graph(9), 0))
    assert kappa == 1
    assert core == k_core(path_graph(9), 1)
    kappa, ordering, core, _ = degen_search(_split(empty_graph(4), 0))
    assert kappa == 0
    assert sorted(ordering) == [0, 1, 2, 3]
    assert core == frozenset(range(4))


def test_search_empty_graph():
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


def test_search_fails_closed_when_the_decider_rejects_kappa():
    def reject_every_k(part, k, stats=None):
        return Reject(frozenset(range(part.n))), CommLedger()

    with pytest.raises(ProtocolError, match="k = 4"):
        degen_search(_split(complete_graph(5), 0), decide=reject_every_k)


# A search that tracks its probes in four structures (a probe list, the
# stats per k, the best accept and the best reject); degen_search, which
# keeps one table of runs, must return exactly what it returns.


def reference_search(part, decide=degen_decide_fast, stats=None):
    """Binary-search the smallest accepted k; return kappa with witnesses.

    The ordering comes from the accepting run at k = kappa and the core from
    the rejecting run at k = kappa - 1 (the whole vertex set when kappa = 0).
    ``stats``, when given, gets the probe list as "decisions" next to what
    ``decide`` filled in on its accepting run at kappa (nothing when n = 0).
    """
    n = part.n
    total = CommLedger()
    probes: list[tuple[int, str]] = []
    if n == 0:
        if stats is not None:
            stats["decisions"] = probes
        return 0, [], frozenset(), total

    stats_at: dict[int, dict | None] = {}

    def probe(k):
        stats_at[k] = None if stats is None else {}
        out, led = decide(part, k, stats=stats_at[k])
        total.merge(led)
        probes.append((k, "accept" if isinstance(out, Accept) else "reject"))
        return out

    lo, hi = 0, n - 1
    best_accept: tuple[int, list[int]] | None = None
    best_reject: tuple[int, frozenset[int]] | None = None
    while lo < hi:
        mid = (lo + hi) // 2
        out = probe(mid)
        if isinstance(out, Accept):
            hi = mid
            best_accept = (mid, out.ordering)
        else:
            lo = mid + 1
            best_reject = (mid, out.core)

    kappa = lo
    if best_accept is None or best_accept[0] != kappa:
        out = probe(kappa)
        assert isinstance(out, Accept)
        best_accept = (kappa, out.ordering)
    if kappa == 0:
        core = frozenset(range(n))
    else:
        assert best_reject is not None and best_reject[0] == kappa - 1
        core = best_reject[1]
    if stats is not None:
        stats.update(stats_at[kappa])
        stats["decisions"] = probes
    return kappa, best_accept[1], core, total


@pytest.mark.parametrize("with_stats", [False, True])
@pytest.mark.parametrize("decide", PROTOCOLS)
def test_search_matches_the_reference_search(decide, with_stats):
    rng = random.Random(4242)
    for n in (0, 1, 2, 3, 5, 8, 13, 20, 40):
        for _ in range(4):
            g = gnm_random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
            part = random_partition(g, rng)
            stats = {} if with_stats else None
            ref_stats = {} if with_stats else None
            kappa, ordering, core, ledger = degen_search(part, decide, stats)
            ref_kappa, ref_ordering, ref_core, ref_ledger = reference_search(
                part, decide, ref_stats)
            assert (kappa, ordering, core) == (ref_kappa, ref_ordering, ref_core)
            assert ledger.to_json() == ref_ledger.to_json()
            assert (ledger.intra_bits, ledger.cross_bits) == (
                ref_ledger.intra_bits, ref_ledger.cross_bits)
            assert stats == ref_stats
            if with_stats:
                probed = [k for k, _ in stats["decisions"]]
                assert len(probed) == len(set(probed))


# ---------------------------------------------------------------------------
# adversarial partitions against the sequential peeler


def _check_against_peeler(part, k):
    want = peel_decision(part.base, k)
    for decide in PROTOCOLS:
        got, _ = decide(part, k)
        assert type(got) is type(want), (decide.__name__, k)
        if isinstance(got, Accept):
            assert is_k_ordering(part.base, got.ordering, k)
        else:
            assert got.core == k_core(part.base, k + 1)


def _split_by_mask(g, mask):
    """Bit i of mask set gives edge i to Alice, clear to Bob."""
    return EdgePartition(g, bytes(1 - (mask >> i & 1) for i in range(g.m)))


@PROPERTY_SETTINGS
@given(n=st.integers(0, 20), seed=st.integers(0, 2**20), alice=st.booleans(),
       k=st.integers(0, 8))
def test_every_edge_on_one_side(n, seed, alice, k):
    rng = random.Random(seed)
    g = gnm_random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
    part = alice_gets(g, g.edges() if alice else [])
    _check_against_peeler(part, k)


@PROPERTY_SETTINGS
@given(leaves=st.integers(0, 20), copies=st.integers(1, 3),
       mask=st.integers(0, 2**60), k=st.integers(0, 3))
def test_star_splits(leaves, copies, mask, k):
    g = star_graph(leaves + 1)
    for _ in range(copies - 1):
        g = disjoint_union(g, star_graph(leaves + 1))
    _check_against_peeler(_split_by_mask(g, mask), k)


@PROPERTY_SETTINGS
@given(size=st.integers(0, 11), mask=st.integers(0, 2**55), data=st.data())
def test_clique_splits(size, mask, data):
    g = complete_graph(size)
    k = data.draw(st.integers(max(0, size - 3), size + 1))
    _check_against_peeler(_split_by_mask(g, mask), k)


@PROPERTY_SETTINGS
@given(kappa=st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17]),
       extra=st.integers(0, 12), seed=st.integers(0, 2**20), empty=st.booleans())
@example(kappa=0, extra=0, seed=0, empty=True)   # n = 0
@example(kappa=0, extra=0, seed=0, empty=False)  # n = 1
def test_kappa_at_bucket_boundaries(kappa, extra, seed, empty):
    """A (kappa+1)-clique plus vertices of at most kappa earlier neighbours.

    The degeneracy is exactly kappa; probing kappa - 1, kappa and kappa + 1
    puts the degree gaps above k on either side of the buckets' 2^i edges.
    """
    rng = random.Random(seed)
    if empty:
        g = empty_graph(0)
    else:
        edges = complete_graph(kappa + 1).edges()
        for v in range(kappa + 1, kappa + 1 + extra):
            edges += [(u, v) for u in rng.sample(range(v), rng.randint(0, kappa))]
        g = Graph(kappa + 1 + extra, edges)
        assert degeneracy(g) == kappa
    part = random_partition(g, rng)
    for k in range(max(0, kappa - 1), kappa + 2):
        _check_against_peeler(part, k)


# ---------------------------------------------------------------------------
# differential oracle: the set-min parties the heap-ordered ones replaced


def reference_sqrt_party(role, adj, n, k, stats):
    live = set(range(n))
    my_deg = [len(adj[u]) for u in range(n)]
    order = []
    s = _ceil_sqrt(n)

    while live:
        lv = sorted(live)
        theirs = yield from _swap(role, vec(*(uint(my_deg[u], n) for u in lv)))
        deg = {u: my_deg[u] + d for u, d in zip(lv, theirs)}
        ready = {u for u in lv if deg[u] <= k}
        low = {u for u in lv if k + 1 <= deg[u] <= k + s}
        if stats is not None:
            stats.setdefault("blocks", []).append(
                {"safe": set(lv) - ready - low, "deleted": []}
            )

        for _ in range(s):
            if not live:
                break
            if not ready:
                yield ("output", Reject(frozenset(live)))
                return
            v = min(ready)
            ready.discard(v)
            live.discard(v)
            order.append(v)
            if stats is not None:
                stats["blocks"][-1]["deleted"].append(v)
            for w in adj[v]:
                if w in live:
                    my_deg[w] -= 1
            mine = sorted(w for w in adj[v] if w in low)
            others = yield from _swap(
                role, lp_list([vertex_id(w, n) for w in mine], n)
            )
            for w in mine + list(others):
                deg[w] -= 1
                if deg[w] <= k:
                    low.discard(w)
                    ready.add(w)

    yield ("output", Accept(order))


def reference_fast_party(role, adj, n, k, stats):
    live = set(range(n))
    my_deg = [len(adj[u]) for u in range(n)]
    order = []
    imax = _bucket_count(n)
    threshold = [0] + [max(1, 2 ** (i - 2)) for i in range(1, imax + 1)]
    updates = Counter()

    lv = sorted(live)
    theirs = yield from _swap(role, vec(*(uint(my_deg[u], n) for u in lv)))
    deg = {u: my_deg[u] + d for u, d in zip(lv, theirs)}
    last_mine = {u: my_deg[u] for u in lv}
    ready = set()
    bucket = {}
    for u in lv:
        if deg[u] <= k:
            ready.add(u)
        else:
            bucket[u] = _bucket_index(deg[u] - k, imax)

    while live:
        if not ready:
            yield ("output", Reject(frozenset(live)))
            if stats is not None:
                _fill_update_stats(stats, updates, n)
            return
        v = min(ready)
        ready.discard(v)
        live.discard(v)
        bucket.pop(v, None)
        order.append(v)
        for w in adj[v]:
            if w in live:
                my_deg[w] -= 1

        detected = sorted(
            u for u in adj[v]
            if u in bucket and last_mine[u] - my_deg[u] >= threshold[bucket[u]]
        )
        pairs = lp_list(
            [vec(vertex_id(u, n), uint(my_deg[u], n)) for u in detected], n
        )
        if role == 0:
            reply = yield from _swap(role, pairs)
            their_halves, their_extra = reply
            known = {u: (my_deg[u], half)
                     for u, half in zip(detected, their_halves)}
            for u, half in their_extra:
                known[u] = (my_deg[u], half)
            yield ("send", vec(*(uint(my_deg[u], n) for u, _ in their_extra)))
        else:
            their_pairs = yield ("recv",)
            known = {u: (half, my_deg[u]) for u, half in their_pairs}
            extra = [u for u in detected if u not in known]
            yield ("send", vec(
                vec(*(uint(my_deg[u], n) for u, _ in their_pairs)),
                lp_list([vec(vertex_id(u, n), uint(my_deg[u], n))
                         for u in extra], n),
            ))
            their_halves = yield ("recv",)
            for u, half in zip(extra, their_halves):
                known[u] = (half, my_deg[u])

        for u, (a_half, b_half) in known.items():
            deg[u] = a_half + b_half
            last_mine[u] = my_deg[u]
            updates[u] += 1
            del bucket[u]
            if deg[u] <= k:
                ready.add(u)
            else:
                bucket[u] = _bucket_index(deg[u] - k, imax)

    yield ("output", Accept(order))
    if stats is not None:
        _fill_update_stats(stats, updates, n)


def _decider_cases():
    rng = random.Random(2024)
    yield alice_gets(empty_graph(0), [])
    yield random_partition(empty_graph(1), rng)
    yield random_partition(empty_graph(7), rng)
    g = complete_graph(6)
    yield alice_gets(g, g.edges())
    yield alice_gets(g, [])
    yield random_partition(star_graph(9), rng)
    for _ in range(10):
        n = rng.randrange(2, 24)
        g = gnm_random_graph(n, rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1), rng)
        yield random_partition(g, rng)
    for n in (64, 100):
        yield random_partition(gnm_random_graph(n, 4 * n, rng), rng)


def _decider_runs():
    """(partition, k): every k up to the top degree + 1 on the cases
    above, and kappa - 1, kappa, 15 and 511 on two G(1024, 4n) splits."""
    for part in _decider_cases():
        top = max((part.base.degree(v) for v in range(part.n)), default=0) + 1
        for k in range(top + 1):
            yield part, k
    for seed in (1, 2):
        rng = random.Random(seed)
        g = gnm_random_graph(1024, 4 * 1024, rng)
        part = random_partition(g, rng)
        kappa = degeneracy(g)
        for k in sorted({kappa - 1, kappa, 15, 511}):
            yield part, k


def _run_both(decide, reference, part, k):
    """Run the decider and its reference; check that they agree exactly."""
    n = part.n
    stats, ref_stats = {}, {}
    out, ledger = decide(part, k, stats=stats)
    ref_out, ref_ledger = run_two_party(
        reference(0, part.adj_a, n, k, ref_stats),
        reference(1, part.adj_b, n, k, None),
    )
    assert type(out) is type(ref_out)
    assert out == ref_out, (n, k)
    assert ledger.to_json() == ref_ledger.to_json()
    assert ledger.rounds == ref_ledger.rounds
    assert stats == ref_stats
    return out, ledger, stats


@pytest.mark.parametrize("decide, reference", [
    (degen_decide_sqrt, reference_sqrt_party),
    (degen_decide_fast, reference_fast_party),
])
def test_deciders_match_the_set_min_reference(decide, reference):
    for part, k in _decider_runs():
        _run_both(decide, reference, part, k)


def test_fast_decider_matches_the_reference_once_nothing_is_bucketed():
    # the hub is the only vertex above k; its count is re-sent a few
    # times, then it is ready and removed with leaves left, so every
    # later removal, the hub's own included, exchanges empty fields
    part = random_partition(star_graph(20), random.Random(5))
    n, k = part.n, 5
    out, ledger, stats = _run_both(degen_decide_fast, reference_fast_party,
                                   part, k)
    assert set(stats["updates_per_vertex"]) == {0}
    hub_at = out.ordering.index(0)
    assert 0 < hub_at < n - 1
    w = uint_width(n + 1)
    nothing = [("A", "B", w), ("B", "A", w), ("A", "B", 0)]
    assert ledger.per_message[-3 * (n - hub_at):] == nothing * (n - hub_at)
