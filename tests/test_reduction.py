import copy
import random
import sys

import pytest

from degencomm import hpc, reduction
from degencomm.comm import CommLedger, ProtocolError, uint_width
from degencomm.gadget import (FAMILY_NAMES, _edges_below, _target_degree,
                              aux_padding, build_gadget, edge_family,
                              pointer_path_triples)
from degencomm.graphs import Graph, degeneracy, peel
from degencomm.hpc import MHPCInstance, chase, sample_bmhpc
from degencomm.reduction import (
    NaivePeeler,
    SimulationResult,
    StoreAllDecider,
    TraceRecord,
    full_report,
    simulate_streaming_reduction,
    trace_invariants,
)

from test_gadget import _tampered, layout, padding_plan
from test_hpc import pad_instance, worked_example


def _norm(edges):
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def _padding(gg, parts):
    """The padding player B derives from the degrees of the families."""
    degrees = [0] * gg.graph.n
    for fam in parts.values():
        for u, v in fam:
            degrees[u] += 1
            degrees[v] += 1
    return aux_padding(gg.m, gg.r, degrees)


# ---------------------------------------------------------------------------
# edge families


def test_partition_covers_the_gadget_exactly():
    inst = sample_bmhpc(4, 2, random.Random(3))
    gg = build_gadget(inst)
    parts = _reference_partition_edges(gg)
    m, r = gg.m, gg.r
    assert all(fam == sorted(fam) for fam in parts.values())
    padding = _norm(_padding(gg, parts).edges())
    union = [e for fam in parts.values() for e in fam] + padding
    assert sorted(union) == sorted(gg.graph.edges())
    assert len(union) == len(set(union))
    assert len(parts["E1"]) == 3 * m * (2 * r + 1)
    assert len(parts["E2"]) == 9 * m * r
    layer_side = 3 * m * (2 * r + 1) - 3 * m // 2
    assert len(parts["ES"]) == 3 + 3 * layer_side
    aux_set = set(gg.aux_ids)
    assert all(u in aux_set or v in aux_set for u, v in padding)
    assert not any(u in aux_set or v in aux_set
                   for fam in parts.values() for u, v in fam)


# the edge partition as it was before the gadget's edge_family, kept as the
# reference that edge_family must match edge for edge

_REFERENCE_FAMILY_NAMES = ("E1", "E2", "ES", "EA", "EB", "EC", "ED")

_REFERENCE_ENCODING_FAMILY = {(0, 1): "EA", (0, 2): "EB", (2, 1): "EC",
                              (2, 2): "ED"}


def _reference_partition_edges(gg):
    parts = {f: [] for f in _REFERENCE_FAMILY_NAMES}
    labels = layout(gg.m, gg.r)
    for u, v in _edges_below(gg.graph, gg.graph.n - len(gg.aux_ids)):
        ku, kv = labels[u][0], labels[v][0]
        if "special" in (ku, kv):
            parts["ES"].append((u, v))
        else:
            _, eu, _, cu = labels[u]
            _, ev, _, cv = labels[v]
            if eu > ev:
                eu, cu, ev, cv = ev, cv, eu, cu
            if eu == ev:
                parts["E1"].append((u, v))
            elif eu % 2 == 1:
                parts["E2"].append((u, v))
            else:
                parts[_REFERENCE_ENCODING_FAMILY[(eu % 4, cu)]].append((u, v))
    return parts


@pytest.mark.parametrize("m", [4, 8, 12])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_partition_matches_the_reference(m, r):
    for seed in (1, 2):
        rng = random.Random(100 * m + 10 * r + seed)
        gg = build_gadget(sample_bmhpc(m, r, rng))
        parts = {f: [] for f in FAMILY_NAMES}
        for u, v in _edges_below(gg.graph, gg.graph.n - gg.d):
            parts[edge_family(u, v, m, r)].append((u, v))
        assert parts == _reference_partition_edges(gg)


def test_encoding_families_count_the_instance_sets():
    inst = sample_bmhpc(8, 3, random.Random(4))
    gg = build_gadget(inst)
    parts = _reference_partition_edges(gg)
    even_steps = range(0, inst.r, 2)
    odd_steps = range(1, inst.r, 2)
    assert len(parts["EA"]) == 2 * sum(
        s.bit_count() for t in even_steps for s in inst.A[t])
    assert len(parts["EB"]) == 2 * sum(
        s.bit_count() for t in even_steps for s in inst.B[t])
    assert len(parts["EC"]) == 2 * sum(
        s.bit_count() for t in odd_steps for s in inst.C[t])
    assert len(parts["ED"]) == 2 * sum(
        s.bit_count() for t in odd_steps for s in inst.D[t])


def test_padding_rederives_from_degrees_alone():
    inst = sample_bmhpc(4, 2, random.Random(5))
    gg = build_gadget(inst)
    plan = _padding(gg, _reference_partition_edges(gg))
    aux_set = set(gg.aux_ids)
    padding = [e for e in gg.graph.edges() if aux_set & set(e)]
    assert _norm(plan.edges()) == _norm(padding)
    assert plan == padding_plan(gg)


def test_padding_rejects_overweight_degrees():
    inst = sample_bmhpc(4, 1, random.Random(6))
    gg = build_gadget(inst)
    with pytest.raises(ValueError, match="exceeds its target"):
        aux_padding(gg.m, gg.r, [gg.d + 7 * gg.r] * gg.graph.n)


def test_padding_at_the_edge_of_its_matching_budget():
    # layer and special vertices at their targets need no padding edge,
    # so every auxiliary vertex keeps its input degree a; the padding then
    # needs d + 6r + 3 - a matchings, and only d - 1 exist
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(6)))
    aux_set = set(gg.aux_ids)
    base = [0 if v in aux_set else gg.graph.degree(v)
            for v in range(gg.graph.n)]

    def with_aux(a):
        return [a if v in aux_set else deg for v, deg in enumerate(base)]

    plan = aux_padding(gg.m, gg.r, with_aux(6 * gg.r + 4))
    assert plan.matchings == gg.d - 1
    assert not any(plan.needs)
    edges = _norm(plan.edges())
    assert len(set(edges)) == len(edges) == gg.d * (gg.d - 1) // 2
    with pytest.raises(ValueError,
                       match=f"padding needs {gg.d} matchings, only {gg.d - 1}"):
        aux_padding(gg.m, gg.r, with_aux(6 * gg.r + 3))


# ---------------------------------------------------------------------------
# split and invariants


def test_split_holds_on_samples():
    rng = random.Random(7)
    for m, r in ((4, 1), (4, 2), (8, 1)):
        for _ in range(3):
            inst = sample_bmhpc(m, r, rng)
            rep = trace_invariants(build_gadget(inst), inst)
            assert rep.split_ok
            assert rep.bit_true == chase(inst).bit
            if rep.bit_true == 1:
                assert rep.kappa <= rep.d - 3
            else:
                assert rep.kappa >= rep.d - 2


def test_split_survives_an_off_path_pair_swap():
    # swapping whole set pairs between two indexes the pointer never
    # visits changes the graph but not the walk, and kappa stays put
    rng = random.Random(8)
    for _ in range(3):
        inst = sample_bmhpc(4, 1, rng)
        before = trace_invariants(build_gadget(inst), inst)
        a0, b0 = list(inst.A[0]), list(inst.B[0])
        a0[1], a0[2] = a0[2], a0[1]
        b0[1], b0[2] = b0[2], b0[1]
        mutated = MHPCInstance(inst.m, inst.r, [a0], [b0],
                               [list(inst.C[0])], [list(inst.D[0])])
        assert chase(mutated).z == chase(inst).z
        after = trace_invariants(build_gadget(mutated), mutated)
        assert after.split_ok
        assert after.kappa == before.kappa


def test_split_and_trace_reject_a_mismatched_gadget():
    rng = random.Random(20)
    gg = build_gadget(sample_bmhpc(4, 2, rng))
    other = sample_bmhpc(4, 1, rng)
    with pytest.raises(ValueError, match="4x1, gadget is 4x2"):
        trace_invariants(gg, other)


def test_trace_is_clean_on_samples():
    rng = random.Random(9)
    for m, r in ((4, 1), (4, 3), (8, 2)):
        inst = sample_bmhpc(m, r, rng)
        rep = trace_invariants(build_gadget(inst), inst)
        assert len(rep.trace) == 2 * r + 1
        assert all(t.ok for t in rep.trace)
        assert all(t.max_degree_at_removal <= rep.d - 3 for t in rep.trace)
        assert rep.split_ok


def test_trace_records_a_special_or_aux_degree_off_its_target():
    # the special degrees are checked against the special target and the
    # aux degrees against the aux floor; a gadget one special-aux edge
    # short, or with aux d+3 stripped of its aux-aux edges, fails every
    # record, and the trace still reports rather than raises
    inst = sample_bmhpc(4, 1, random.Random(19))
    gg = build_gadget(inst)
    assert [t.ok for t in trace_invariants(gg, inst).trace] == [True] * 3
    aux = set(gg.aux_ids)
    s, a = gg.special_ids[0], gg.aux_ids[0]
    one = _tampered(gg, drop=[(s, next(w for w in gg.graph.neighbors(s)
                                       if w in aux))])
    # the pointer triples still go first, below the threshold: only the
    # special degrees are off
    order = peel(one.graph, prefix=9).order
    for ell, z in enumerate(pointer_path_triples(gg, inst)):
        assert set(order[3 * ell:3 * ell + 3]) == set(z)
    rep = trace_invariants(one, inst)
    assert [t.ok for t in rep.trace] == [False] * 3
    assert all(t.max_degree_at_removal <= gg.d - 3 for t in rep.trace)
    bare = [(a, w) for w in gg.graph.neighbors(a) if w in aux]
    assert len(bare) == 17
    rep = trace_invariants(_tampered(gg, drop=bare), inst)
    assert [t.ok for t in rep.trace] == [False] * 3


@pytest.mark.parametrize("v", [39, 74, 36, 37, 38], ids=[
    "first-aux", "last-aux", "special-1", "special-2", "special-3"])
def test_trace_checks_every_special_and_aux_id(v):
    # one id at a time, the first aux id d+3, the last 2d+2 or one
    # special (d = 36 here), loses edges to layer vertices off the
    # pointer path until it sits one below its floor (aux) or its exact
    # target (specials); the peel's prefix is untouched, so only the
    # degree checks fail
    inst = sample_bmhpc(4, 1, random.Random(19))
    gg = build_gadget(inst)
    d, g = gg.d, gg.graph
    clean = trace_invariants(gg, inst).trace
    assert [t.ok for t in clean] == [True] * 3
    path = pointer_path_triples(gg, inst)
    on_path = {u for z in path for u in z}
    target = _target_degree(v, gg.m, gg.r)
    off = [w for w in g.neighbors(v) if w < d and w not in on_path]
    drop = off[len(off) - (g.degree(v) - target + 1):]
    one = _tampered(gg, drop=[(v, w) for w in drop])
    assert one.graph.degree(v) == target - 1
    order = peel(one.graph, prefix=9).order
    for ell, z in enumerate(path):
        assert set(order[3 * ell:3 * ell + 3]) == set(z)
    rep = trace_invariants(one, inst)
    assert rep.trace[0].ok is False
    assert ([t.max_degree_at_removal for t in rep.trace]
            == [t.max_degree_at_removal for t in clean])


@pytest.mark.parametrize("m,r", [(4, 1), (8, 2), (16, 2)])
def test_settled_trace_matches_the_full_peel(monkeypatch, m, r):
    # trace_invariants stops its peel once the audited prefix is gone and
    # the degeneracy is settled; a full peel must give the same report
    inst = sample_bmhpc(m, r, random.Random(m + r))
    gg = build_gadget(inst)
    peels = []

    def spy(g, prefix=None):
        peels.append(peel(g, prefix))
        return peels[-1]

    monkeypatch.setattr(reduction, "peel", spy)
    settled = trace_invariants(gg, inst)
    monkeypatch.setattr(reduction, "peel", lambda g, prefix: spy(g))
    assert trace_invariants(gg, inst) == settled
    short, full = peels
    assert 3 * (2 * r + 1) <= len(short.order) < len(full.order)
    assert full.order[:len(short.order)] == short.order
    if (m, r) == (16, 2):
        assert len(short.order) <= 64


def test_trace_invariants_walks_the_chain_once(monkeypatch):
    inst = sample_bmhpc(4, 2, random.Random(12))
    gg = build_gadget(inst)
    original = hpc.chase
    calls = []

    def counting(arg):
        calls.append(arg)
        return original(arg)

    # chase is imported by name, so wrap every degencomm binding of it
    for name, module in list(sys.modules.items()):
        if name == "degencomm" or name.startswith("degencomm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    rep = trace_invariants(gg, inst)
    assert len(calls) == 1
    assert rep.bit_true == original(inst).bit
    assert all(t.ok for t in rep.trace)


def test_trace_on_the_padded_worked_example():
    inst = pad_instance(worked_example(), 4)
    gg = build_gadget(inst)
    rep = trace_invariants(gg, inst)
    assert all(t.ok for t in rep.trace)
    first = peel(gg.graph).order[:3]
    assert set(first) == set(gg.triple_index[(0, 0)])


def test_answer_one_peels_the_specials_next():
    rng = random.Random(10)
    seen = 0
    while seen < 3:
        inst = sample_bmhpc(4, 2, rng)
        if chase(inst).bit != 1:
            continue
        seen += 1
        gg = build_gadget(inst)
        tr = peel(gg.graph)
        lo = 6 * gg.r + 3
        assert set(tr.order[lo:lo + 3]) == set(gg.special_ids)
        assert max(tr.degree_at_removal[lo:lo + 3]) <= gg.d - 3


def test_structured_prefix_survives_any_tie_break():
    # before each of the first 3(2r+1) removals, every live vertex of
    # minimum residual degree lies in the current pointer triple, so
    # whichever of them a peel picks, the triples go first in walk order
    inst = sample_bmhpc(4, 2, random.Random(11))
    gg = build_gadget(inst)
    g = gg.graph
    zs = pointer_path_triples(gg, inst)
    tr = peel(g)
    resid = [g.degree(v) for v in range(g.n)]
    live = set(range(g.n))
    for i, v in enumerate(tr.order[:3 * len(zs)]):
        low = min(resid[u] for u in live)
        ties = {u for u in live if resid[u] == low}
        assert v in ties
        assert ties <= set(zs[i // 3]), i
        live.discard(v)
        for w in g.neighbors(v):
            resid[w] -= 1


# ---------------------------------------------------------------------------
# streaming simulation


def test_store_all_single_pass():
    inst = sample_bmhpc(4, 1, random.Random(12))
    gg = build_gadget(inst)
    sim = simulate_streaming_reduction(gg, StoreAllDecider(), 1)
    n = gg.graph.n
    snap = n * (n - 1) // 2
    assert sim.bit == chase(inst).bit
    assert sim.phases == 1
    assert sim.max_state_bits == snap
    assert sim.ledger.bits_total == 3 * snap + 3 * n * uint_width(n)
    assert len(sim.ledger.per_message) == 3


def test_naive_peeler_full_run():
    inst = sample_bmhpc(4, 1, random.Random(13))
    gg = build_gadget(inst)
    n, w = gg.graph.n, uint_width(gg.graph.n)
    sim = simulate_streaming_reduction(gg, NaivePeeler(), n)
    snap = 1 + n + w + n * w
    assert sim.bit == chase(inst).bit
    assert sim.phases == 2 * n - 1
    assert sim.max_state_bits == snap
    assert sim.ledger.bits_total == (4 * n - 1) * snap + 3 * n * w
    assert degeneracy(gg.graph) <= gg.d - 3 if sim.bit else True


def test_both_references_agree_with_the_chase():
    rng = random.Random(14)
    for _ in range(3):
        inst = sample_bmhpc(4, 1, rng)
        want = chase(inst).bit
        gg = build_gadget(inst)
        n = gg.graph.n
        assert simulate_streaming_reduction(gg, StoreAllDecider(), 1).bit == want
        assert simulate_streaming_reduction(gg, NaivePeeler(), n).bit == want


def test_pass_budget_is_enforced():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(15)))
    with pytest.raises(ProtocolError, match="budget is 3"):
        simulate_streaming_reduction(gg, NaivePeeler(), 3)
    with pytest.raises(ValueError, match=">= 1"):
        simulate_streaming_reduction(gg, StoreAllDecider(), 0)


class _FeedRecorder:
    """Wraps a peeler and logs every edge, pooled across deep copies."""

    log: list = []

    def __init__(self):
        self.inner = NaivePeeler()

    def init(self, n):
        self.inner.init(n)

    def begin_pass(self):
        _FeedRecorder.log.append("pass")
        self.inner.begin_pass()

    def process_edge(self, u, v):
        _FeedRecorder.log.append((u, v))
        self.inner.process_edge(u, v)

    def end_pass(self):
        return self.inner.end_pass()

    def finalize(self, k):
        return self.inner.finalize(k)

    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, bits):
        self.inner.restore_state(bits)


def test_every_pass_feeds_the_same_stream():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(16)))
    _FeedRecorder.log = []
    n = gg.graph.n
    simulate_streaming_reduction(gg, _FeedRecorder(), n)
    chunks = []
    for entry in _FeedRecorder.log:
        if entry == "pass":
            chunks.append([])
        else:
            chunks[-1].append(entry)
    assert len(chunks) == n
    assert all(chunk == chunks[0] for chunk in chunks)


class _HandoffRecorder:
    """Streams three passes, logging every edge and a "handoff" marker at
    every snapshot; the log is pooled across the players' deep copies."""

    log: list = []

    def init(self, n):
        self.passes = 0

    def begin_pass(self):
        pass

    def process_edge(self, u, v):
        _HandoffRecorder.log.append((u, v))

    def end_pass(self):
        self.passes += 1
        return self.passes < 3

    def finalize(self, k):
        return True

    def snapshot_state(self):
        _HandoffRecorder.log.append("handoff")
        return format(self.passes, "02b")

    def restore_state(self, bits):
        self.passes = int(bits, 2)


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (8, 2)])
def test_each_player_streams_its_own_families(m, r):
    gg = build_gadget(sample_bmhpc(m, r, random.Random(30 + m + r)))
    parts = _reference_partition_edges(gg)
    padding = _norm(_padding(gg, parts).edges())
    _HandoffRecorder.log = []
    simulate_streaming_reduction(gg, _HandoffRecorder(), 3)
    # C, D, A and B feed in turn, and B's last feed ends with no handoff
    feeds = [[]]
    for entry in _HandoffRecorder.log:
        if entry == "handoff":
            feeds.append([])
        else:
            feeds[-1].append(entry)
    assert len(feeds) == 4 * 3
    owned = {"C": ("E1", "E2", "ES", "EC"), "D": ("ED",), "A": ("EA",)}
    for at in range(0, len(feeds), 4):
        for feed, player in zip(feeds[at:at + 3], "CDA"):
            want = [e for f in owned[player] for e in parts[f]]
            assert len(feed) == len(set(feed)) == len(want)
            assert set(feed) == set(want)
        b_feed = feeds[at + 3]
        eb = len(parts["EB"])
        assert set(b_feed[:eb]) == set(parts["EB"])
        assert _norm(b_feed[eb:]) == padding
    if r > 1:
        assert parts["EC"] and parts["ED"]


def test_simulation_is_reproducible():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(17)))
    runs = [
        simulate_streaming_reduction(gg, StoreAllDecider(), 1)
        for _ in range(2)
    ]
    assert runs[0].ledger.to_json() == runs[1].ledger.to_json()
    assert runs[0].bit == runs[1].bit


@pytest.mark.parametrize("make", [StoreAllDecider, NaivePeeler])
def test_snapshots_round_trip(make):
    inst = sample_bmhpc(4, 1, random.Random(18))
    gg = build_gadget(inst)
    edges = gg.graph.edges()
    straight, resumed = make(), make()
    for alg in (straight, resumed):
        alg.init(gg.graph.n)
        alg.begin_pass()
    half = len(edges) // 2
    for u, v in edges[:half]:
        straight.process_edge(u, v)
        resumed.process_edge(u, v)
    fresh = make()
    fresh.init(gg.graph.n)
    fresh.restore_state(resumed.snapshot_state())
    for u, v in edges[half:]:
        straight.process_edge(u, v)
        fresh.process_edge(u, v)
    assert fresh.snapshot_state() == straight.snapshot_state()
    straight.end_pass()
    fresh.end_pass()
    assert fresh.finalize(gg.d - 3) == straight.finalize(gg.d - 3)


def test_restore_rejects_wrong_width():
    alg = NaivePeeler()
    alg.init(10)
    with pytest.raises(ValueError, match="bits"):
        alg.restore_state("01" * 3)


@pytest.mark.parametrize("make", [StoreAllDecider, NaivePeeler])
def test_restore_rejects_a_malformed_snapshot(make):
    alg = make()
    alg.init(10)
    good = alg.snapshot_state()
    need = len(good)
    for bad in (good[:-1], good + "0"):
        with pytest.raises(ValueError,
                           match=f"^snapshot is {len(bad)} bits, need {need}$"):
            alg.restore_state(bad)
    for bad in ("2" + good[1:], good[:-1] + "x", " " * need):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            alg.restore_state(bad)
    alg.restore_state(good)
    assert alg.snapshot_state() == good


def test_snapshot_rejects_a_value_wider_than_its_field():
    alg = NaivePeeler()
    alg.init(10)
    need = len(alg.snapshot_state())
    alg.kappa = 1 << alg.width
    with pytest.raises(ValueError,
                       match=f"^snapshot is {need + 1} bits, need {need}$"):
        alg.snapshot_state()


def test_report_trace_shape():
    inst = sample_bmhpc(4, 1, random.Random(19))
    gg = build_gadget(inst)
    rep = trace_invariants(gg, inst)
    assert [t.ell for t in rep.trace] == list(range(2 * inst.r + 1))
    assert TraceRecord._fields == ("ell", "ok", "max_degree_at_removal")
    assert full_report(gg, inst) == rep


# ---------------------------------------------------------------------------
# the harness and algorithms as they were before the shared snapshot codec,
# kept as the reference the current ones must match bit for bit


def _reference_simulate(gg, alg, p):
    if p < 1:
        raise ValueError(f"pass budget must be >= 1, got {p}")
    parts = _reference_partition_edges(gg)
    n = gg.graph.n
    table_bits = n * uint_width(n)
    feeds = {
        "C": parts["E1"] + parts["E2"] + parts["ES"] + parts["EC"],
        "D": parts["ED"],
        "A": parts["EA"],
        "B": parts["EB"],
    }
    alg.init(n)
    minds = {name: copy.deepcopy(alg) for name in "CDAB"}
    ledger = CommLedger()
    phases = 0
    max_state = 0
    degrees = [0] * n
    padding = None
    carry = None
    passes = 0

    def feed(name):
        mind = minds[name]
        for u, v in feeds[name]:
            mind.process_edge(u, v)
            if padding is None:
                degrees[u] += 1
                degrees[v] += 1

    def handoff(src, dst, cross, with_table):
        nonlocal max_state, phases
        state = minds[src].snapshot_state()
        max_state = max(max_state, len(state))
        ledger.record(src, dst, len(state) + (table_bits if with_table else 0),
                      cross=cross)
        if cross:
            phases += 1
        return state

    while True:
        passes += 1
        first = passes == 1
        if carry is not None:
            minds["C"].restore_state(carry)
        minds["C"].begin_pass()
        feed("C")
        state = handoff("C", "D", cross=False, with_table=first)

        minds["D"].restore_state(state)
        feed("D")
        state = handoff("D", "AB", cross=True, with_table=first)

        minds["A"].restore_state(state)
        feed("A")
        state = handoff("A", "B", cross=False, with_table=first)

        minds["B"].restore_state(state)
        feed("B")
        if padding is None:
            padding = aux_padding(gg.m, gg.r, degrees)
        for u, v in padding.edges():
            minds["B"].process_edge(u, v)
        if not minds["B"].end_pass():
            bit = int(minds["B"].finalize(gg.d - 3))
            break
        if passes == p:
            raise ProtocolError(
                f"algorithm wants pass {passes + 1}, but the budget is {p}"
            )
        carry = handoff("B", "CD", cross=True, with_table=False)

    ledger.rounds = ledger.phases = phases
    return SimulationResult(bit, phases, max_state, ledger)


def _tri_index(u, v, n):
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class _ReferenceStoreAll:
    def init(self, n):
        self.n = n
        self.present = set()

    def begin_pass(self):
        pass

    def process_edge(self, u, v):
        self.present.add((min(u, v), max(u, v)))

    def end_pass(self):
        return False

    def finalize(self, k):
        return degeneracy(Graph(self.n, sorted(self.present))) <= k

    def snapshot_state(self):
        bits = ["0"] * (self.n * (self.n - 1) // 2)
        for u, v in self.present:
            bits[_tri_index(u, v, self.n)] = "1"
        return "".join(bits)

    def restore_state(self, bits):
        expected = self.n * (self.n - 1) // 2
        if len(bits) != expected:
            raise ValueError(f"snapshot is {len(bits)} bits, need {expected}")
        self.present = {
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if bits[_tri_index(u, v, self.n)] == "1"
        }


class _ReferenceNaive:
    def init(self, n):
        self.n = n
        self.width = uint_width(n)
        self.removed = [False] * n
        self.kappa = 0
        self.in_pass = False
        self.deg = [0] * n

    def begin_pass(self):
        self.in_pass = True
        self.deg = [0] * self.n

    def process_edge(self, u, v):
        if not (self.removed[u] or self.removed[v]):
            self.deg[u] += 1
            self.deg[v] += 1

    def end_pass(self):
        self.in_pass = False
        victim = min(
            (v for v in range(self.n) if not self.removed[v]),
            key=lambda v: (self.deg[v], v),
        )
        self.kappa = max(self.kappa, self.deg[victim])
        self.removed[victim] = True
        return not all(self.removed)

    def finalize(self, k):
        return self.kappa <= k

    def snapshot_state(self):
        w = self.width
        return (
            ("1" if self.in_pass else "0")
            + "".join("1" if r else "0" for r in self.removed)
            + format(self.kappa, f"0{w}b")
            + "".join(format(x, f"0{w}b") for x in self.deg)
        )

    def restore_state(self, bits):
        n, w = self.n, self.width
        expected = 1 + n + w + n * w
        if len(bits) != expected:
            raise ValueError(f"snapshot is {len(bits)} bits, need {expected}")
        self.in_pass = bits[0] == "1"
        self.removed = [c == "1" for c in bits[1:1 + n]]
        self.kappa = int(bits[1 + n:1 + n + w], 2)
        base = 1 + n + w
        self.deg = [
            int(bits[base + v * w:base + (v + 1) * w], 2) for v in range(n)
        ]


def _logged(cls, log):
    """An instance of cls that appends every snapshot it takes to log.

    The log lives in the class's closure, so the players' deep copies
    all write to it.
    """

    class Logged(cls):
        def snapshot_state(self):
            log.append(super().snapshot_state())
            return log[-1]

    return Logged()


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (8, 1), (8, 2)])
@pytest.mark.parametrize("new_cls,ref_cls", [
    (NaivePeeler, _ReferenceNaive),
    (StoreAllDecider, _ReferenceStoreAll),
])
def test_harness_matches_the_reference(m, r, new_cls, ref_cls):
    for seed in (21, 22):
        gg = build_gadget(sample_bmhpc(m, r, random.Random(seed)))
        p = gg.graph.n if new_cls is NaivePeeler else 1
        new_log, ref_log = [], []
        new = simulate_streaming_reduction(gg, _logged(new_cls, new_log), p)
        ref = _reference_simulate(gg, _logged(ref_cls, ref_log), p)
        assert new[:3] == ref[:3]
        assert new.ledger.to_json() == ref.ledger.to_json()
        assert new_log and new_log == ref_log


def test_over_budget_matches_the_reference():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(15)))
    with pytest.raises(ProtocolError) as new:
        simulate_streaming_reduction(gg, NaivePeeler(), 3)
    with pytest.raises(ProtocolError) as ref:
        _reference_simulate(gg, _ReferenceNaive(), 3)
    assert str(new.value) == str(ref.value) == (
        "algorithm wants pass 4, but the budget is 3")
