import heapq
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from degencomm.comm import (
    CommLedger,
    EdgePartition,
    Field,
    Party,
    ProtocolError,
    RoundSchedule,
    charvec,
    charvecs,
    flag,
    lp_pairs,
    lp_uints,
    nothing,
    random_partition,
    run_four_party,
    run_two_party,
    uint,
    uint_pairs,
    uint_width,
    uints,
    vec,
)
from degencomm.gadget import build_gadget
from degencomm.graphs import (
    Accept,
    Graph,
    Reject,
    gnm_random_graph,
)
from degencomm.hpc import (
    ABSTAIN,
    _walk,
    chase,
    sample_bhpc,
    sample_bmhpc,
)
from degencomm.protocols import (
    _bucket_count,
    _bucket_index,
    _fast_party,
    _fill_update_stats,
    _sqrt_party,
    _swap,
)
from test_graphs import complete_graph, cycle_graph, empty_graph
from test_hpc import frozenset_instance, reference_misaligned_party


# ---------------------------------------------------------------------------
# reference encoders
#
# lp_list and vertex_id are the per-item encoders that the bulk lp_uints and
# lp_pairs replaced in the package, kept as oracles. test_protocols.py keeps
# its own copy for its reference parties, so neither module imports the other.


def vertex_id(v: int, n: int) -> Field:
    return uint(v, n)


def lp_list(items: list[Field], max_len: int) -> Field:
    """Length-prefixed list: a count in [0, max_len] then the items."""
    if len(items) > max_len:
        raise ValueError(f"list of {len(items)} exceeds max {max_len}")
    prefix = uint_width(max_len + 1)
    return Field(tuple(i.value for i in items), prefix + sum(i.bits for i in items))


# ---------------------------------------------------------------------------
# encoding widths


def test_uint_width_small_bounds():
    assert uint_width(1) == 1
    assert uint_width(2) == 1
    assert uint_width(3) == 2
    assert uint_width(4) == 2
    assert uint_width(8) == 3
    assert uint_width(9) == 4


@given(st.integers(min_value=2, max_value=10**6))
def test_uint_width_is_ceil_log2(bound):
    w = uint_width(bound)
    assert 2 ** (w - 1) < bound <= 2**w


def test_uint_range_checked():
    with pytest.raises(ValueError):
        uint(5, 5)
    with pytest.raises(ValueError):
        uint(-1, 5)


def test_composite_fields():
    assert charvec(0b1001, 6).bits == 6
    assert vec(uint(3, 8), flag(True)).bits == 4
    # 5 ids from a 10-vertex graph: prefix for counts 0..5 plus 5 * 4 bits
    ids = [vertex_id(i, 10) for i in range(5)]
    assert lp_list(ids, 5).bits == uint_width(6) + 5 * 4
    assert nothing().bits == 0


def test_charvec_rejects_out_of_universe():
    # a member at or past the universe, or a negative mask
    for mask in (1 << 7, 1 << 6 | 1, -1, ~0b100):
        with pytest.raises(ValueError, match="leaves universe 6"):
            charvec(mask, 6)
    assert charvec(0b111111, 6) == Field(0b111111, 6)


@pytest.mark.parametrize("masks, universe", [
    ([], 6), ([0], 0), ([0b1001, 0, 0b100110], 6), ([0b1], 1),
    ([~0b11], 6), ([0b1000001], 6), ([0b101, 1 << 9 | 0b1000, 1 << 7], 6),
    ([0b10, 0, 0b1000100, -1], 6), ([0b10, -1, 1 << 6], 6),
])
def test_charvecs_match_one_charvec_per_set(masks, universe):
    def outcome(encode):
        try:
            return encode()
        except ValueError as exc:
            return "ValueError", str(exc)

    assert outcome(lambda: charvecs(iter(masks), universe)) == outcome(
        lambda: tuple(charvec(s, universe) for s in masks))


@pytest.mark.parametrize("bound", [0, 1, 2, 5, 2**40])
def test_empty_uints_cost_nothing(bound):
    assert uints([], bound) == Field((), 0)


@given(st.integers(1, 2**20), st.data())
def test_uints_match_a_vec_of_uints(bound, data):
    vs = data.draw(st.lists(st.integers(0, bound - 1), max_size=12))
    got, want = uints(iter(vs), bound), vec(*(uint(v, bound) for v in vs))
    assert (got.value, got.bits) == (want.value, want.bits)


@pytest.mark.parametrize("vs, bound", [
    ([0, 5, 2], 5), ([1, -1, 7], 5), ([3, 9, -4], 8), ([0], 0), ([2, 1], 1),
])
def test_uints_raise_what_uint_raises(vs, bound):
    first_bad = next(v for v in vs if not 0 <= v < bound)
    with pytest.raises(ValueError) as want:
        uint(first_bad, bound)
    with pytest.raises(ValueError) as got:
        uints(vs, bound)
    assert str(got.value) == str(want.value)


def _outcome(encode):
    """An encoding's (value, bits), or the message of the ValueError it raises."""
    try:
        fld = encode()
    except ValueError as exc:
        return "ValueError", str(exc)
    return fld.value, fld.bits


@st.composite
def _lp_cases(draw, arity):
    """(items, bound, max_len): up to one item over max_len, and maybe one
    entry set to -1, to bound, or far below 0."""
    bound = draw(st.sampled_from([1, 2, 5, 2**40]))
    max_len = draw(st.integers(0, 6))
    length = draw(st.integers(0, max_len) | st.sampled_from([max_len, max_len + 1]))
    entries = draw(st.lists(st.integers(0, bound - 1),
                            min_size=arity * length, max_size=arity * length))
    if entries and draw(st.booleans()):
        at = draw(st.integers(0, len(entries) - 1))
        entries[at] = draw(st.sampled_from([-1, bound, -(2**41)]))
    if arity == 1:
        return entries, bound, max_len
    return list(zip(entries[::2], entries[1::2])), bound, max_len


@given(_lp_cases(1))
@example(([], 1, 0))
@example(([0, 1, 4], 5, 3))
@example(([0, 1, 4, 2], 5, 3))
@example(([0, -1], 5, 3))
@example(([0, 5], 5, 3))
@example(([7, 0, 1], 5, 1))
@example(([2**40 - 1], 2**40, 1))
def test_lp_uints_match_the_reference_lp_list(case):
    vs, bound, max_len = case
    assert _outcome(lambda: lp_uints(iter(vs), bound, max_len)) == _outcome(
        lambda: lp_list([vertex_id(v, bound) for v in vs], max_len))


@given(_lp_cases(2))
@example(([], 2**40, 0))
@example(([(0, 1), (1, 0)], 2, 2))
@example(([(0, 1), (1, 0), (1, 1)], 2, 2))
@example(([(0, 1), (-1, 0)], 5, 3))
@example(([(0, 5), (1, 0)], 5, 3))
@example(([(4, 9), (9, 4)], 5, 1))
def test_lp_pairs_match_the_reference_lp_list(case):
    ps, bound, max_len = case
    assert _outcome(lambda: lp_pairs(iter(ps), bound, max_len)) == _outcome(
        lambda: lp_list([vec(uint(a, bound), uint(b, bound)) for a, b in ps],
                        max_len))


@given(_lp_cases(2))
@example(([], 1, 0))
@example(([], 0, 0))
@example(([(0, 0), (0, 0)], 1, 2))
@example(([(0, 1)], 1, 1))
@example(([(0, 1), (-1, 0)], 5, 3))
@example(([(0, 5), (9, 0)], 5, 3))
@example(([(2**40 - 1, 0)], 2**40, 1))
def test_uint_pairs_match_a_vec_of_pair_vecs(case):
    # max_len plays no part: the table has a fixed length
    ps, bound, _ = case
    assert _outcome(lambda: uint_pairs(iter(ps), bound)) == _outcome(
        lambda: vec(*(vec(uint(a, bound), uint(b, bound)) for a, b in ps)))


def test_fields_are_immutable():
    fld = uint(3, 8)
    for name in ("value", "bits"):
        with pytest.raises(AttributeError):
            setattr(fld, name, 0)
    assert (fld.value, fld.bits) == (3, 3)


# ---------------------------------------------------------------------------
# two-party runner


def _degrees_then_ok(n):
    degs = list(range(n))

    def alice():
        for d in degs:
            yield ("send", uint(d, n))
        ok = yield ("recv",)
        yield ("output", ok)

    def bob():
        seen = []
        for _ in range(n):
            seen.append((yield ("recv",)))
        yield ("send", flag(seen == degs))
        yield ("output", True)

    return alice(), bob()


def test_degree_exchange_bit_count():
    n = 8
    out, ledger = run_two_party(*_degrees_then_ok(n))
    assert out is True
    assert ledger.bits_total == n * uint_width(n) + 1
    assert ledger.rounds == 2  # one block of Alice sends, one Bob reply


def test_zero_message_protocol():
    def silent():
        yield ("output", 42)

    out, ledger = run_two_party(silent(), silent())
    assert out == 42
    assert ledger.bits_total == 0
    assert ledger.rounds == 0
    assert ledger.per_message == []


def test_rounds_count_sender_blocks():
    def alice():
        yield ("send", flag(True))
        yield ("send", flag(True))
        yield ("recv",)
        yield ("send", flag(False))
        yield ("output", None)

    def bob():
        yield ("recv",)
        yield ("recv",)
        yield ("send", flag(True))
        yield ("recv",)
        yield ("output", None)

    _, ledger = run_two_party(alice(), bob())
    assert ledger.rounds == 3
    assert ledger.bits_total == 4


def test_deadlock_detected():
    def waiter():
        yield ("recv",)
        yield ("output", 0)

    with pytest.raises(ProtocolError, match="deadlock"):
        run_two_party(waiter(), waiter())


def test_output_disagreement_detected():
    def party(v):
        yield ("output", v)

    with pytest.raises(ProtocolError, match="disagreement"):
        run_two_party(party(0), party(1))


def test_stopping_without_output_is_an_error():
    def quitter():
        return
        yield  # pragma: no cover

    def fine():
        yield ("output", 1)

    with pytest.raises(ProtocolError, match="without output"):
        run_two_party(quitter(), fine())


@pytest.mark.parametrize("kind", ["broadcast", "shout"])
def test_unknown_actions_are_errors(kind):
    def speaker():
        yield (kind, flag(True))
        yield ("output", 1)

    def fine():
        yield ("output", 1)

    with pytest.raises(ProtocolError, match="unknown action"):
        run_two_party(speaker(), fine())
    if kind != "broadcast":
        parties = {"A": speaker(), "B": fine(), "C": fine(), "D": fine()}
        with pytest.raises(ProtocolError, match="unknown action"):
            run_four_party(RoundSchedule(1, "AB"), parties)


def _copies(step, count, before, as_repeat):
    """A's and B's parties: one flag from ``before`` (if any), then ``count``
    copies of ``step``, as one repeat or one send per message, then
    output 0."""

    def party(me):
        if before == me:
            yield ("send", flag(True))
        elif before is not None:
            yield ("recv",)
        if as_repeat:
            yield ("repeat", count, step)
        else:
            for _ in range(count):
                for sender, fld in step:
                    yield ("send", fld) if sender == me else ("recv",)
        yield ("output", 0)

    return party("A"), party("B")


# one message each, named by sender and bits
_A3, _B5, _A0 = ("A", uint(5, 8)), ("B", uint(9, 32)), ("A", nothing())


@pytest.mark.parametrize("step", [
    (_A3,), (_A3, _B5), (_B5, _A3), (_A3, _B5, _A0), (_B5, _B5, _A3),
    (_A3, _A0), (),
])
@pytest.mark.parametrize("before", [None, "A", "B"])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_repeat_charges_what_its_sends_would(step, before, count):
    out = _same_run(run_two_party(*_copies(step, count, before, True)),
                    run_two_party(*_copies(step, count, before, False)))
    assert out == 0


def test_repeat_of_zero_copies_charges_nothing():
    _, ledger = run_two_party(*_copies((_A3, _B5), 0, None, True))
    assert ledger.per_message == []
    assert (ledger.bits_total, ledger.intra_bits, ledger.rounds) == (0, 0, 0)


def _yield_then_output(a_acts, b_acts):
    """A yields a_acts and B yields b_acts, each then outputs 0."""

    def party(acts):
        yield from acts
        yield ("output", 0)

    return party(a_acts), party(b_acts)


@pytest.mark.parametrize("a_acts, b_acts, match", [
    ([("repeat", 2, (_A3, _B5))], [("repeat", 2, (_A3, _A0))], "different steps"),
    ([("repeat", 2, (_A3, _B5))], [("repeat", 3, (_A3, _B5))], "repeats 2 times"),
    ([("repeat", 2, (_A3,))], [], "never matched"),
    ([("repeat", 1, (("C", uint(1, 2)),))], [("repeat", 1, (("C", uint(1, 2)),))],
     "neither 'A' nor 'B'"),
    ([("repeat", 1, (_A3,))], [("send", flag(True))], "while A's repeat waits"),
    ([("repeat", 1, (_A3,))] * 2, [("recv",)], "while A's repeat waits"),
    ([("repeat", -1, (_A3,))], [("repeat", -1, (_A3,))], "negative"),
])
def test_repeat_fails_closed(a_acts, b_acts, match):
    with pytest.raises(ProtocolError, match=match):
        run_two_party(*_yield_then_output(a_acts, b_acts))


def test_four_party_runner_refuses_repeats():
    def repeater():
        yield ("repeat", 1, (_A3,))
        yield ("output", 1)

    def fine():
        yield ("output", 1)

    parties = {"A": repeater(), "B": repeater(), "C": fine(), "D": fine()}
    with pytest.raises(ProtocolError, match="unknown action 'repeat'"):
        run_four_party(RoundSchedule(1, "AB"), parties)


def test_two_party_runner_refuses_batches():
    with pytest.raises(ProtocolError, match="unknown action 'sends'"):
        run_two_party(*_yield_then_output([("sends", "B", (_A3[1],))], []))


# ---------------------------------------------------------------------------
# ledger


def test_ledger_json_schema():
    led = CommLedger()
    led.record("A", "B", 5)
    led.record("B", "A", 2)
    led.rounds = 2
    obj = json.loads(led.to_json())
    assert set(obj) == {"bits_total", "rounds", "phases", "messages"}
    assert obj["bits_total"] == 7
    assert obj["messages"] == [
        {"from": "A", "to": "B", "bits": 5},
        {"from": "B", "to": "A", "bits": 2},
    ]


def test_ledger_phases():
    led = CommLedger()
    led.new_phase()
    led.record("A", "B", 3)
    led.new_phase()
    led.record("B", "A", 4)
    led.record("A", "B", 1)
    assert led.phases == 2
    assert led.per_phase == [3, 5]


# ---------------------------------------------------------------------------
# edge partitions


class ReferenceEdgePartition:
    """EdgePartition as it was written over two lists of edge tuples: two
    normalised edge sets, an overlap test, sorted side rows and a
    row-by-row cover check. Kept as the oracle for the side-code build."""

    def __init__(self, base, edges_a, edges_b):
        norm = lambda es: {(min(u, v), max(u, v)) for u, v in es}
        ea, eb = norm(edges_a), norm(edges_b)
        if ea & eb:
            raise ValueError("edge parts overlap")
        self.base = base
        self.n = base.n
        self.adj_a = adj_a = self._side_adjacency(base.n, ea)
        self.adj_b = adj_b = self._side_adjacency(base.n, eb)
        if not all(sorted(adj_a[v] + adj_b[v]) == list(base.neighbors(v))
                   for v in range(base.n)):
            raise ValueError("edge parts do not cover the base graph")

    @staticmethod
    def _side_adjacency(n, edges):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not 0 <= u < v < n:
                raise ValueError("edge parts do not cover the base graph")
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


def reference_random_partition(g, rng):
    """random_partition as it was written over two edge-tuple lists."""
    ea, eb = [], []
    for e in g.edges():
        (ea if rng.random() < 0.5 else eb).append(e)
    return ReferenceEdgePartition(g, ea, eb)


def alice_gets(g, alice_edges):
    """The partition of g that gives Alice alice_edges and Bob the rest."""
    alice = {(min(u, v), max(u, v)) for u, v in alice_edges}
    return EdgePartition(g, bytes(e not in alice for e in g.edges()))


def _partition_graphs():
    rng = random.Random(31)
    yield empty_graph(0)
    yield empty_graph(9)  # no edges
    yield Graph(8, [(1, 4), (4, 7), (2, 7)])  # 0, 3, 5 and 6 have none
    yield complete_graph(6)
    for n in (2, 13, 40, 120):
        yield gnm_random_graph(n, rng.randrange(0, min(4 * n, n * (n - 1) // 2) + 1), rng)
    yield build_gadget(sample_bmhpc(4, 1, random.Random(3))).graph


def test_random_partition_matches_the_reference():
    for g in _partition_graphs():
        for seed in (0, 1, 2024):
            mine, ref = random.Random(seed), random.Random(seed)
            part = random_partition(g, mine)
            want = reference_random_partition(g, ref)
            assert part.base is g and part.n == want.n
            assert part.adj_a == want.adj_a
            assert part.adj_b == want.adj_b
            assert mine.getrandbits(64) == ref.getrandbits(64)


def test_partition_checks_its_side_codes():
    g = cycle_graph(4)
    EdgePartition(g, bytes([0, 1, 1, 0]))  # fine
    for side in (bytes(3), bytes(5), b""):
        with pytest.raises(ValueError, match="side codes for 4 edges"):
            EdgePartition(g, side)
    with pytest.raises(ValueError, match="side code 2"):
        EdgePartition(g, bytes([0, 2, 1, 0]))


def test_partition_side_adjacency():
    g = complete_graph(3)
    part = alice_gets(g, [(0, 1)])
    assert part.adj_a[0] == [1]
    assert part.adj_b[2] == [0, 1]
    assert part.n == 3
    rng = random.Random(5)
    for n in (1, 7, 30):
        g = gnm_random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
        part = random_partition(g, rng)
        for adj in (part.adj_a, part.adj_b):
            assert all(a < b for row in adj for a, b in zip(row, row[1:]))
        for v in range(n):
            assert sorted(part.adj_a[v] + part.adj_b[v]) == list(g.neighbors(v))


@given(st.randoms(use_true_random=False))
def test_random_partition_covers(rng):
    g = complete_graph(5)
    part = random_partition(g, rng)
    ea, eb = (
        {(u, v) for u in range(part.n) for v in adj[u] if u < v}
        for adj in (part.adj_a, part.adj_b)
    )
    assert ea | eb == set(g.edges())
    assert not (ea & eb)


# ---------------------------------------------------------------------------
# four-party runner


def _one_bit_round(bit):
    def a():
        yield ("broadcast", flag(bit))
        yield ("output", bit)

    def listener():
        got = yield ("recv",)
        yield ("output", got)

    return {"A": a(), "B": listener(), "C": listener(), "D": listener()}


def test_single_broadcast_round():
    out, ledger = run_four_party(RoundSchedule(1, "AB"), _one_bit_round(True))
    assert out is True
    assert ledger.bits_total == 1
    assert ledger.rounds == 1
    assert ledger.cross_bits == 1
    assert ledger.intra_bits == 0


def test_intra_pair_traffic_and_round_end():
    # round 1: A consults B, then broadcasts; round 2: C tells D, D broadcasts
    def a():
        yield ("send", "B", uint(5, 8))
        r = yield ("recv",)
        yield ("broadcast", uint(r, 8))
        fin = yield ("recv",)
        yield ("output", fin)

    def b():
        v = yield ("recv",)
        yield ("send", "A", uint(v + 1, 8))
        yield ("recv",)  # own pair's broadcast
        fin = yield ("recv",)
        yield ("output", fin)

    def c():
        got = yield ("recv",)
        yield ("send", "D", uint(got, 8))
        fin = yield ("recv",)
        yield ("output", fin)

    def d():
        yield ("recv",)
        v = yield ("recv",)
        yield ("broadcast", uint(v + 1, 8))
        yield ("output", v + 1)

    out, ledger = run_four_party(
        RoundSchedule(2, "AB"), {"A": a(), "B": b(), "C": c(), "D": d()}
    )
    assert out == 7
    assert ledger.rounds == 2
    assert ledger.intra_bits == 9
    assert ledger.cross_bits == 6
    assert ledger.bits_total == 15


def test_out_of_schedule_send_is_an_error():
    def eager_c():
        yield ("send", "D", flag(True))
        yield ("output", None)

    def quiet():
        yield ("output", None)

    parties = {"A": quiet(), "B": quiet(), "C": eager_c(), "D": quiet()}
    with pytest.raises(ProtocolError, match="CD|speaks"):
        run_four_party(RoundSchedule(1, "AB"), parties)


def test_idle_zero_bit_broadcast():
    def a():
        yield ("broadcast", nothing())
        got = yield ("recv",)
        yield ("output", got)

    def b():
        yield ("recv",)
        got = yield ("recv",)
        yield ("output", got)

    def c():
        yield ("recv",)
        yield ("send", "D", uint(2, 4))
        got = yield ("recv",)
        yield ("output", got)

    def d():
        yield ("recv",)
        v = yield ("recv",)
        yield ("broadcast", uint(v + 1, 4))
        yield ("output", v + 1)

    out, ledger = run_four_party(
        RoundSchedule(2, "AB"), {"A": a(), "B": b(), "C": c(), "D": d()}
    )
    assert out == 3
    assert ledger.rounds == 2
    assert ledger.bits_total == 4  # idle round is free, info flows in round 2


def test_four_party_disagreement_detected():
    def a():
        yield ("broadcast", flag(True))
        yield ("output", 1)

    def liar():
        yield ("recv",)
        yield ("output", 2)

    def honest():
        got = yield ("recv",)
        yield ("output", 1 if got else 0)

    parties = {"A": a(), "B": liar(), "C": honest(), "D": honest()}
    with pytest.raises(ProtocolError, match="disagreement"):
        run_four_party(RoundSchedule(1, "AB"), parties)


def test_speaking_after_final_round_is_an_error():
    def a():
        yield ("broadcast", flag(True))
        yield ("broadcast", flag(True))
        yield ("output", None)

    def listener():
        yield ("recv",)
        yield ("output", None)

    parties = {"A": a(), "B": listener(), "C": listener(), "D": listener()}
    with pytest.raises(ProtocolError, match="final round"):
        run_four_party(RoundSchedule(1, "AB"), parties)


def _batch_round(fields, as_batch):
    """One round opened by CD: C sends ``fields`` to D as one batch or one
    send per field, D broadcasts their values and everyone outputs them."""

    def c():
        if as_batch:
            yield ("sends", "D", fields)
        else:
            for fld in fields:
                yield ("send", "D", fld)
        got = yield ("recv",)
        yield ("output", got)

    def d():
        if as_batch:
            got = yield ("recv",)
        else:
            got = []
            for _ in fields:
                got.append((yield ("recv",)))
            got = tuple(got)
        yield ("broadcast", Field(got, 1))
        yield ("output", got)

    def listener():
        got = yield ("recv",)
        yield ("output", got)

    return {"A": listener(), "B": listener(), "C": c(), "D": d()}


@pytest.mark.parametrize("fields", [
    (), (uint(5, 8),), (uint(5, 8), nothing(), flag(True), uint(5, 8)),
])
def test_batch_charges_what_its_sends_would(fields):
    sched = RoundSchedule(1, "CD")
    out = _same_run(run_four_party(sched, _batch_round(fields, True)),
                    run_four_party(sched, _batch_round(fields, False)))
    assert out == tuple(f.value for f in fields)


def test_empty_batch_charges_nothing():
    _, ledger = run_four_party(RoundSchedule(1, "CD"), _batch_round((), True))
    assert ledger.per_message == [("D", "AB", 1)]
    assert (ledger.intra_bits, ledger.cross_bits, ledger.rounds) == (0, 1, 1)


@pytest.mark.parametrize("starter, c_acts, match", [
    ("CD", [("sends", "A", (flag(True),))], "must target D"),
    ("CD", [("sends", "B", ())], "must target D"),
    ("AB", [("sends", "D", (flag(True),))], "C sent in round 1 but AB speaks"),
    ("CD", [("broadcast", nothing()), ("sends", "D", (flag(True),))],
     "after the final round"),
])
def test_batch_fails_closed(starter, c_acts, match):
    def party(acts):
        yield from acts
        yield ("output", 0)

    parties = {"A": party([]), "B": party([]), "C": party(c_acts), "D": party([])}
    with pytest.raises(ProtocolError, match=match):
        run_four_party(RoundSchedule(1, starter), parties)


def test_round_schedule_validation():
    with pytest.raises(ValueError):
        RoundSchedule(0, "AB")
    with pytest.raises(ValueError):
        RoundSchedule(2, "XY")
    sched = RoundSchedule(3, "CD")
    assert [sched.speaking_pair(i) for i in (1, 2, 3)] == ["CD", "AB", "CD"]


# ---------------------------------------------------------------------------
# the runner against its two former loops
#
# reference_run_two_party and reference_run_four_party are the two
# hand-written runner loops that run_two_party and run_four_party replaced,
# kept verbatim as oracles: on every protocol in the package the shared
# loop must give the same output and the same ledger, message by message.
# The misaligned party sends its presolve queries as one batch, which the
# four-party reference does not know, so there it drives the
# one-message-per-query reference_misaligned_party of test_hpc.py instead.


def reference_run_two_party(alice: Party, bob: Party) -> tuple[object, CommLedger]:
    """Drive two party generators to joint output.

    Control alternates on message boundaries: a send hands control to the
    receiver, a recv on an empty inbox hands it back. Outputs must agree.
    """
    ledger = CommLedger()
    names = ("A", "B")
    gens = [alice, bob]
    inbox: list[list[object]] = [[], []]
    pending: list[tuple | None] = [None, None]  # last unserviced yield
    outputs: list[object] = [_UNSET, _UNSET]
    started = [False, False]
    last_sender = None
    active = 0

    def advance(i: int, send_value=None) -> None:
        try:
            pending[i] = gens[i].send(send_value) if started[i] else next(gens[i])
            started[i] = True
        except StopIteration:
            if outputs[i] is _UNSET:
                raise ProtocolError(f"party {names[i]} stopped without output")
            pending[i] = ("done",)

    advance(active)
    stall = 0
    while outputs[0] is _UNSET or outputs[1] is _UNSET:
        act = pending[active]
        if act is None:
            advance(active)
            continue
        kind = act[0]
        if kind == "send":
            fld: Field = act[1]
            peer = 1 - active
            sender = names[active]
            ledger.record(sender, names[peer], fld.bits)
            if sender != last_sender:
                ledger.rounds += 1
                last_sender = sender
            inbox[peer].append(fld.value)
            pending[active] = None
            advance(active)
            active = peer
            stall = 0
        elif kind == "recv":
            if inbox[active]:
                msg = inbox[active].pop(0)
                pending[active] = None
                advance(active, send_value=msg)
                stall = 0
            else:
                active = 1 - active
                stall += 1
                if stall > 2:
                    raise ProtocolError("deadlock: both parties waiting to receive")
        elif kind == "output":
            outputs[active] = act[1]
            pending[active] = None
            advance(active)
            active = 1 - active
            stall = 0
        elif kind == "done":
            active = 1 - active
            stall += 1
            if stall > 2:
                raise ProtocolError("deadlock: live party starved")
        else:
            raise ProtocolError(f"unknown action {kind!r}")
    if outputs[0] != outputs[1]:
        raise ProtocolError(
            f"output disagreement: A={outputs[0]!r} B={outputs[1]!r}"
        )
    return outputs[0], ledger


class _Unset:
    __repr__ = lambda self: "<unset>"


_UNSET = _Unset()


_PAIR_OF = {"A": "AB", "B": "AB", "C": "CD", "D": "CD"}
_PARTNER = {"A": "B", "B": "A", "C": "D", "D": "C"}


def reference_run_four_party(schedule: RoundSchedule,
                   parties: dict[str, Party]) -> tuple[object, CommLedger]:
    """Drive four party generators under a pair-speaking schedule.

    Within a round only the speaking pair may send; intra-pair messages go
    to the partner and the round ends with exactly one broadcast to the
    other pair (both members receive it). Outputs of all four must agree.
    The protocol may finish mid-round once every party has output.
    """
    ledger = CommLedger()
    names = [p for p in ("A", "B", "C", "D") if p in parties]
    if set(names) != {"A", "B", "C", "D"}:
        raise ValueError("need exactly parties A, B, C, D")
    gens = dict(parties)
    inbox: dict[str, list[object]] = {p: [] for p in names}
    pending: dict[str, tuple | None] = {p: None for p in names}
    outputs: dict[str, object] = {p: _UNSET for p in names}
    started: dict[str, bool] = {p: False for p in names}
    round_no = 1

    def advance(p: str, send_value=None) -> None:
        try:
            pending[p] = gens[p].send(send_value) if started[p] else next(gens[p])
            started[p] = True
        except StopIteration:
            if outputs[p] is _UNSET:
                raise ProtocolError(f"party {p} stopped without output")
            pending[p] = ("done",)

    for p in names:
        advance(p)

    while any(outputs[p] is _UNSET for p in names):
        progressed = False
        for p in names:
            act = pending[p]
            if act is None or act[0] == "done":
                continue
            kind = act[0]
            if kind == "recv":
                if inbox[p]:
                    msg = inbox[p].pop(0)
                    pending[p] = None
                    advance(p, send_value=msg)
                    progressed = True
                continue
            if kind == "output":
                outputs[p] = act[1]
                pending[p] = None
                advance(p)
                progressed = True
                continue
            if round_no > schedule.r:
                raise ProtocolError(f"{p} tried to speak after the final round")
            speaking = schedule.speaking_pair(round_no)
            if kind == "send":
                dest, fld = act[1], act[2]
                if _PAIR_OF[p] != speaking:
                    raise ProtocolError(
                        f"{p} sent in round {round_no} but {speaking} speaks"
                    )
                if dest != _PARTNER[p]:
                    raise ProtocolError(
                        f"intra-pair send from {p} must target {_PARTNER[p]}"
                    )
                ledger.record(p, dest, fld.bits, cross=False)
                inbox[dest].append(fld.value)
                pending[p] = None
                advance(p)
                progressed = True
            elif kind == "broadcast":
                fld = act[1]
                if _PAIR_OF[p] != speaking:
                    raise ProtocolError(
                        f"{p} broadcast in round {round_no} but {speaking} speaks"
                    )
                ledger.record(p, "CD" if speaking == "AB" else "AB", fld.bits,
                              cross=True)
                for q in names:
                    if q != p:
                        inbox[q].append(fld.value)
                pending[p] = None
                ledger.rounds += 1
                round_no += 1
                advance(p)
                progressed = True
            else:
                raise ProtocolError(f"unknown action {kind!r}")
        if not progressed:
            raise ProtocolError("deadlock: no party can make progress")

    vals = [outputs[p] for p in names]
    if any(v != vals[0] for v in vals):
        raise ProtocolError(f"output disagreement: {outputs!r}")
    return vals[0], ledger


def _same_run(result, reference):
    (out, ledger), (ref_out, ref_ledger) = result, reference
    assert out == ref_out
    assert ledger.to_json() == ref_ledger.to_json()
    assert (ledger.intra_bits, ledger.cross_bits) == (
        ref_ledger.intra_bits, ref_ledger.cross_bits)
    return out


def _two_party_cases():
    rng = random.Random(2024)
    yield alice_gets(empty_graph(0), [])
    yield random_partition(empty_graph(7), rng)  # kappa = 0
    g = complete_graph(6)
    yield alice_gets(g, g.edges())  # every edge on Alice's side
    yield alice_gets(g, [])
    for _ in range(12):
        n = rng.randrange(2, 24)
        g = gnm_random_graph(n, rng.randrange(0, 3 * n), rng)
        yield random_partition(g, rng)


# reference_fast_party is _fast_party as it was before its settled tail
# went out as one repeat, kept verbatim: one heap pop and three empty
# fields per removal once nothing is bucketed. It runs on
# reference_run_two_party, which knows no repeat.


def reference_fast_party(role, adj, n, k, stats):
    # Only a bucketed vertex's count is ever read (to detect it, in the
    # halves sent, and as last_mine), so only those are kept, and every
    # bucketed vertex is live: the live set is ready + bucket.
    my_deg = [len(adj[u]) for u in range(n)]
    order: list[int] = []
    imax = _bucket_count(n)
    threshold = [0] + [max(1, 2 ** (i - 2)) for i in range(1, imax + 1)]
    updates: Counter[int] = Counter()
    # the fields of a removal in which neither side detected anything,
    # built once by the encoders that build the others
    no_pairs = lp_pairs((), n, n)
    no_halves = uints((), n)
    no_reply = vec(no_halves, no_pairs)

    theirs = yield from _swap(role, uints(my_deg, n))
    deg = [mine + d for mine, d in zip(my_deg, theirs)]
    last_mine = my_deg[:]
    ready = [u for u in range(n) if deg[u] <= k]  # ascending, so a heap
    bucket = {u: _bucket_index(deg[u] - k, imax) for u in range(n) if deg[u] > k}

    while ready or bucket:
        if not ready:
            yield ("output", Reject(frozenset(bucket)))
            if stats is not None:
                _fill_update_stats(stats, updates, n)
            return
        v = heapq.heappop(ready)
        order.append(v)
        # one pass over the sorted row decrements and detects, in id order
        detected = []
        for u in adj[v]:
            i = bucket.get(u)
            if i is not None:
                my_deg[u] -= 1
                if last_mine[u] - my_deg[u] >= threshold[i]:
                    detected.append(u)
        # Alice sends her detections, Bob answers with his halves of them
        # and his own detections, and Alice answers with her halves of those
        if role == 0:
            yield ("send", lp_pairs([(u, my_deg[u]) for u in detected], n, n)
                   if detected else no_pairs)
            their_halves, their_extra = yield ("recv",)
            yield ("send", uints([my_deg[u] for u, _ in their_extra], n)
                   if their_extra else no_halves)
            if not (detected or their_extra):
                continue
            known = {u: (my_deg[u], half)
                     for u, half in zip(detected, their_halves)}
            for u, half in their_extra:
                known[u] = (my_deg[u], half)
        else:
            their_pairs = yield ("recv",)
            if not (detected or their_pairs):
                yield ("send", no_reply)
                yield ("recv",)
                continue
            known = {u: (half, my_deg[u]) for u, half in their_pairs}
            extra = [u for u in detected if u not in known]
            yield ("send", vec(
                uints([my_deg[u] for u, _ in their_pairs], n),
                lp_pairs([(u, my_deg[u]) for u in extra], n, n),
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
                heapq.heappush(ready, u)
            else:
                bucket[u] = _bucket_index(deg[u] - k, imax)

    yield ("output", Accept(order))
    if stats is not None:
        _fill_update_stats(stats, updates, n)


@pytest.mark.parametrize("party", [reference_fast_party, _sqrt_party])
def test_two_party_runner_matches_reference(party):
    for part in _two_party_cases():
        n = part.n
        for k in sorted({0, 1, n // 2, max(n - 1, 0)}):
            stats, ref_stats = {}, {}
            make = lambda into: (
                party(0, part.adj_a, n, k, into),
                party(1, part.adj_b, n, k, None),
            )
            _same_run(run_two_party(*make(stats)),
                      reference_run_two_party(*make(ref_stats)))
            assert stats == ref_stats


def _fast_runs():
    """(partition, k): every k from 0 to n on the two-party cases, then the
    ks that a bisection over [0, n-1] probes on one seeded G(1024, 4n)
    split: from k = 511, where nothing is ever bucketed, down to its
    reject at 4."""
    for part in _two_party_cases():
        for k in range(part.n + 1):
            yield part, k
    rng = random.Random(18)
    part = random_partition(gnm_random_graph(1024, 4 * 1024, rng), rng)
    for k in (511, 255, 127, 63, 31, 15, 7, 3, 5, 4):
        yield part, k


def test_fast_party_matches_its_reference():
    shapes = set()
    for part, k in _fast_runs():
        n = part.n
        stats, ref_stats = {}, {}
        out = _same_run(
            run_two_party(_fast_party(0, part.adj_a, n, k, stats),
                          _fast_party(1, part.adj_b, n, k, None)),
            reference_run_two_party(
                reference_fast_party(0, part.adj_a, n, k, ref_stats),
                reference_fast_party(1, part.adj_b, n, k, None)))
        assert stats == ref_stats
        top = max((part.base.degree(v) for v in range(n)), default=0)
        # all tail: nothing is ever bucketed; mid-run: the tail follows
        # bucketed removals
        shapes.add("reject" if isinstance(out, Reject)
                   else "all tail" if k >= top else "mid-run")
    assert shapes == {"reject", "all tail", "mid-run"}


def test_four_party_runner_matches_reference():
    rng = random.Random(77)
    outcomes = set()
    for m in (4, 8, 16):
        for r in range(1, 6):
            inst = sample_bmhpc(m, r, rng)
            sched = RoundSchedule(r, "AB")
            make = lambda: {p: _walk(p, inst, sched, None) for p in "ABCD"}
            out = _same_run(run_four_party(sched, make()),
                            reference_run_four_party(sched, make()))
            assert out == chase(inst).bit

            inst = sample_bhpc(m, r, rng)
            ref = frozenset_instance(inst)
            sched = RoundSchedule(r, "CD")
            for n_presolve in range(m + 1):
                sel = sorted(rng.sample(range(m), n_presolve))
                out = _same_run(
                    run_four_party(sched, {p: _walk(p, inst, sched, sel)
                                           for p in "ABCD"}),
                    reference_run_four_party(
                        sched, {p: reference_misaligned_party(p, ref, sel)
                                for p in "ABCD"}))
                outcomes.add("abstain" if out is ABSTAIN else "finished")
    assert outcomes == {"abstain", "finished"}
