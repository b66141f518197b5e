import json
import random
import sys

import pytest

from degencomm import hpc
from degencomm.comm import ProtocolError, uint_width
from degencomm.gadget import aux_padding, build_gadget
from degencomm.graphs import degeneracy, peel
from degencomm.hpc import MHPCInstance, chase, pad_instance, sample_bmhpc, worked_example
from degencomm.reduction import (
    NaivePeeler,
    StoreAllDecider,
    full_report,
    partition_edges,
    simulate_streaming_reduction,
    trace_invariants,
    verify_split,
)


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
    parts = partition_edges(gg)
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


def test_encoding_families_count_the_instance_sets():
    inst = sample_bmhpc(8, 3, random.Random(4))
    gg = build_gadget(inst)
    parts = partition_edges(gg)
    even_steps = range(0, inst.r, 2)
    odd_steps = range(1, inst.r, 2)
    assert len(parts["EA"]) == 2 * sum(
        len(s) for t in even_steps for s in inst.A[t])
    assert len(parts["EB"]) == 2 * sum(
        len(s) for t in even_steps for s in inst.B[t])
    assert len(parts["EC"]) == 2 * sum(
        len(s) for t in odd_steps for s in inst.C[t])
    assert len(parts["ED"]) == 2 * sum(
        len(s) for t in odd_steps for s in inst.D[t])


def test_padding_rederives_from_degrees_alone():
    inst = sample_bmhpc(4, 2, random.Random(5))
    gg = build_gadget(inst)
    plan = _padding(gg, partition_edges(gg))
    aux_set = set(gg.aux_ids)
    padding = [e for e in gg.graph.edges() if aux_set & set(e)]
    assert _norm(plan.edges()) == _norm(padding)
    assert plan.deficiencies == gg.deficiencies
    assert plan.matchings == gg.matchings_added


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
    assert not any(plan.deficiencies.values())
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
            rep = verify_split(build_gadget(inst), inst)
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
        before = verify_split(build_gadget(inst), inst)
        a0, b0 = list(inst.A[0]), list(inst.B[0])
        a0[1], a0[2] = a0[2], a0[1]
        b0[1], b0[2] = b0[2], b0[1]
        mutated = MHPCInstance(inst.m, inst.r, [a0], [b0],
                               [list(inst.C[0])], [list(inst.D[0])])
        assert chase(mutated).z == chase(inst).z
        after = verify_split(build_gadget(mutated), mutated)
        assert after.split_ok
        assert after.kappa == before.kappa


def test_split_and_trace_reject_a_mismatched_gadget():
    rng = random.Random(20)
    gg = build_gadget(sample_bmhpc(4, 2, rng))
    other = sample_bmhpc(4, 1, rng)
    with pytest.raises(ValueError, match="4x1, gadget is 4x2"):
        verify_split(gg, other)
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
    inst = sample_bmhpc(4, 2, random.Random(11))
    gg = build_gadget(inst)
    from degencomm.gadget import pointer_path_triples

    zs = pointer_path_triples(gg, inst)
    for policy in ("min", "max", "mid"):
        tr = peel(gg.graph, tie_break=policy)
        for ell, z in enumerate(zs):
            assert set(tr.order[3 * ell:3 * ell + 3]) == set(z)


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


def test_report_json_shape():
    inst = sample_bmhpc(4, 1, random.Random(19))
    gg = build_gadget(inst)
    rep = full_report(gg, inst, StoreAllDecider(), 1)
    obj = json.loads(rep.to_json())
    assert set(obj) == {
        "bit_true", "kappa", "d", "split_ok", "trace",
        "phases", "max_state_bits", "bits_total",
    }
    assert obj["phases"] == 1
    assert obj["bits_total"] > 0
    assert [t["ell"] for t in obj["trace"]] == list(range(2 * inst.r + 1))
    assert all(set(t) == {"ell", "ok", "max_degree_at_removal"}
               for t in obj["trace"])
    with pytest.raises(ValueError, match="budget"):
        full_report(gg, inst, StoreAllDecider())
