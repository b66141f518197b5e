import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import degencomm
from degencomm.gadget import (
    FAMILY_NAMES,
    AuxPadding,
    _partners,
    _read_gadget,
    _target_degree,
    aux_padding,
    build_gadget,
    edge_family,
    load_gadget,
    pointer_path_triples,
    save_gadget,
    sidecar_json,
    verify_gadget,
)
from degencomm.graphs import Graph, degeneracy, dumps_graph, peel
from degencomm.hpc import chase, sample_bmhpc

from test_hpc import pad_instance, worked_example

ALL_COMBOS = [(4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (8, 3)]


def padding_plan(gg):
    """aux_padding(m, r, structural degrees) for gg: the plan its padding
    follows, rederived from the edges below the aux ids."""
    low = gg.graph.n - gg.d
    degrees = [sum(1 for w in gg.graph.neighbors(v) if w < low)
               for v in range(low)]
    return aux_padding(gg.m, gg.r, degrees + [0] * gg.d)


# The label tuples of the gadget's ids, as the package named them before
# its ids became its only vocabulary: the reference that the id rules
# _target_degree and edge_family must match.


def layout(m, r):
    """The label of each id, in id order: ("layer", ell, i, c) by
    (ell, i, c), then ("special", j) for j = 1..3, then ("aux", t) for
    the d auxiliary vertices."""
    labels = [("layer", ell, i, c) for ell in range(2 * r + 1)
              for i in range(m) for c in (1, 2, 3)]
    labels += [("special", j) for j in (1, 2, 3)]
    labels += [("aux", t) for t in range(6 * m * r + 3 * m)]
    return labels


def reference_target_degree(label, d, r):
    """The degree target of a labelled vertex: exact, except a floor
    for aux."""
    kind = label[0]
    if kind == "special":
        return d + 6 * r
    if kind == "aux":
        return d + 6 * r + 3
    _, ell, i, _ = label
    if ell == 0:
        return d - 3 if i == 0 else d
    return d - 1 if ell % 2 == 1 else d


_REFERENCE_ENCODING = {(0, 1): "EA", (0, 2): "EB", (2, 1): "EC", (2, 2): "ED"}


def reference_edge_family(lu, lv, r):
    """The family of an edge between two non-aux labelled vertices, or
    the reason it is stray."""
    if lu[0] == "special":
        lu, lv = lv, lu
    if lv[0] == "special":
        if lu[0] == "layer" and lu[1] == 2 * r and (lu[2] + 1) % 2 == 0:
            return "special edge into the excluded last-layer set"
        return "ES"
    _, eu, iu, cu = lu
    _, ev, iv, cv = lv
    if (eu, iu) > (ev, iv):
        eu, iu, cu, ev, iv, cv = ev, iv, cv, eu, iu, cu
    if eu == ev:
        return "E1" if iu == iv else "edge inside one layer across triples"
    if ev != eu + 1:
        return "edge skips layers"
    if eu % 2 == 1:
        return ("E2" if iu == iv
                else "cross-pair edge between different elements")
    if eu == 2 * r or cu == 3 or cv == 3:
        return "illegal encoding edge"
    return _REFERENCE_ENCODING[(eu % 4, cu)]


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (8, 1), (8, 3), (12, 2)])
def test_the_id_rules_match_the_label_rules(m, r):
    # every ordered pair of non-aux ids, and every id's target
    labels, d = layout(m, r), 6 * m * r + 3 * m
    for v, label in enumerate(labels):
        assert _target_degree(v, m, r) == reference_target_degree(label, d, r)
    for u, v in itertools.product(range(d + 3), repeat=2):
        assert edge_family(u, v, m, r) == reference_edge_family(
            labels[u], labels[v], r), (u, v)


def test_small_build_counts():
    inst = sample_bmhpc(4, 1, random.Random(1))
    gg = build_gadget(inst)
    assert gg.d == 36
    assert gg.graph.n == 75
    # 36 layer ids, 3 specials and 36 aux ids, and no label list
    assert sorted(v for t in gg.triple_index.values() for v in t) == list(
        range(36))
    assert gg.special_ids == (36, 37, 38)
    assert gg.aux_ids == range(39, 75)
    assert not hasattr(gg, "labels")
    assert verify_gadget(gg).ok
    assert 0 <= padding_plan(gg).matchings <= gg.d - 3


def _per_edge_build(inst):
    """The builder joining every edge, padding included, one call each.

    The reference for AuxPadding.pack: returns the graph and the
    padding plan that build_gadget must reproduce.
    """
    m, r = inst.m, inst.r
    d, layers = 6 * m * r + 3 * m, 2 * r + 1
    n_layer = 3 * m * layers
    specials = tuple(n_layer + j for j in range(3))
    trip = {(ell, i): tuple((ell * m + i) * 3 + c for c in range(3))
            for ell in range(layers) for i in range(m)}
    rows = [[] for _ in range(n_layer + 3 + d)]

    def join(u, v):
        rows[u].append(v)
        rows[v].append(u)

    for t in trip.values():
        join(t[0], t[1])
        join(t[0], t[2])
        join(t[1], t[2])
    for ell in range(1, r + 1):
        for i in range(m):
            for u in trip[(2 * ell - 1, i)]:
                for v in trip[(2 * ell, i)]:
                    join(u, v)

    def encode(src, fam1, fam2):
        for i in range(m):
            for u, fam in zip(trip[(src, i)], (fam1, fam2)):
                for j in (e for e in range(m) if fam[i] >> e & 1):
                    join(u, trip[(src + 1, j)][0])
                    join(u, trip[(src + 1, j)][1])

    for ell in range((r + 1) // 2):
        encode(4 * ell, inst.A[2 * ell], inst.B[2 * ell])
    for ell in range(r // 2):
        encode(4 * ell + 2, inst.C[2 * ell + 1], inst.D[2 * ell + 1])
    join(specials[0], specials[1])
    join(specials[0], specials[2])
    join(specials[1], specials[2])
    for (ell, i), t in trip.items():
        if not (ell == 2 * r and i % 2 == 1):
            for v in t:
                for s in specials:
                    join(s, v)
    padding = aux_padding(m, r, [len(row) for row in rows])
    for u, v in padding.edges():
        join(u, v)
    return Graph.from_rows(rows), padding


@pytest.mark.parametrize("m,r", [(4, 1), (4, 3), (8, 2), (16, 2), (32, 1)])
def test_padding_fill_matches_the_per_edge_builder(m, r):
    rng = random.Random(40 + m + r)
    for _ in range(3):
        inst = sample_bmhpc(m, r, rng)
        gg = build_gadget(inst)
        graph, padding = _per_edge_build(inst)
        assert gg.graph == graph
        assert padding_plan(gg) == padding


def _joined(p, s):
    """s with the edges of p.edges() joined one by one: the reference for
    p.pack(s)."""
    rows = [list(s.neighbors(v)) for v in range(s.n)]
    for u, v in p.edges():
        rows[u].append(v)
        rows[v].append(u)
    return Graph.from_rows(rows)


def test_padding_pack_matches_what_edges_joins():
    gg = build_gadget(sample_bmhpc(16, 2, random.Random(41)))
    # plans with a vertex that takes every aux id once, a slice that
    # wraps mid-sweep, and aux rows of two lengths (total mod d = 1, 2
    # and 17), under every matching tail x < d: so the aux rows t on
    # both sides of t = 2x-1, where pack's closed-form stride-2 slice
    # takes over from _partners, the centre row and x > d/2 all occur
    small = [AuxPadding((d, d - 1, d // 2), x, d)
             for d in (4, 6, 36) for x in range(d)]
    # the total a multiple of d (rest = 0: every aux row one length),
    # with need = d from the first aux id, last, and wrapping mid-sweep,
    # and needs of 0
    whole = [AuxPadding(needs, x, d)
             for d, needs in ((4, (1, 4, 3)), (6, (1, 5, 6)),
                              (6, (0, 6, 0, 6)), (36, (20, 36, 0, 16)))
             for x in (0, d - 1)]
    for p in (*small, *whole, padding_plan(gg)):
        s = Graph(len(p.needs) + p.d)
        assert p.pack(s) == _joined(p, s)
    # seeded random small plans over random structural graphs on the
    # layer/special ids: every need from 0 to d, every x < d
    rng = random.Random(34)
    for _ in range(300):
        d = rng.choice((2, 4, 6, 8, 12))
        low = rng.randint(1, 12)
        needs = tuple(rng.randint(0, d) for _ in range(low))
        p = AuxPadding(needs, rng.randrange(d), d)
        pairs = list(itertools.combinations(range(low), 2))
        s = Graph(low + d, rng.sample(pairs, rng.randint(0, len(pairs))))
        assert p.pack(s) == _joined(p, s)
    # a vertex that needs more than one sweep of the aux ids would be
    # joined twice to the first aux id of its slice
    over = AuxPadding((9, 3, 4), 2, 4)
    with pytest.raises(ValueError, match=r"^duplicate edge \(0,3\)$"):
        over.pack(Graph(7))
    late = AuxPadding((3, 5, 4), 2, 4)
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,6\)$"):
        late.pack(Graph(7))


@pytest.mark.parametrize("d", [2, 4, 6, 36])
def test_partners_are_a_one_factorization_of_k_d(d):
    # each row over x factors is sorted and has length x
    for t in range(d):
        for x in range(d):
            row = _partners(t, x, d)
            assert row == sorted(row) and len(row) == x
    # factor k is what row t gains from x = k to x = k + 1
    factors = []
    for k in range(d - 1):
        mate = [(set(_partners(t, k + 1, d)) - set(_partners(t, k, d))).pop()
                for t in range(d)]
        # every aux index is paired exactly once
        assert all(mate[t] != t and mate[mate[t]] == t for t in range(d))
        factors.append({(t, p) for t, p in enumerate(mate) if t < p})
    # pairwise disjoint, and together K_d
    assert sum(len(f) for f in factors) == d * (d - 1) // 2
    assert set().union(*factors) == set(itertools.combinations(range(d), 2))


def test_start_triple_sits_three_below_everyone():
    inst = sample_bmhpc(4, 2, random.Random(2))
    gg = build_gadget(inst)
    start = gg.triple_index[(0, 0)]
    for v in start:
        assert gg.graph.degree(v) == gg.d - 3
    for i in range(1, 4):
        for v in gg.triple_index[(0, i)]:
            assert gg.graph.degree(v) == gg.d


def test_padded_worked_example_builds():
    inst = pad_instance(worked_example(), 4)
    gg = build_gadget(inst)
    assert gg.d == 84
    assert gg.graph.n == 3 * 4 * 7 + 3 + 84 == 171
    for v in gg.triple_index[(0, 0)]:
        assert gg.graph.degree(v) == 81
    assert verify_gadget(gg).ok


def test_rejects_universe_not_multiple_of_four():
    with pytest.raises(ValueError, match="multiple of 4"):
        build_gadget(worked_example())


@pytest.mark.parametrize("member", [9, -1])
def test_rejects_a_member_outside_the_universe(member):
    # it used to reach the encoder and raise KeyError: (1, 9)
    inst = sample_bmhpc(8, 2, random.Random(3))
    s = inst.A[0][3]
    inst.A[0][3] = s | 1 << member if member >= 0 else ~s
    with pytest.raises(ValueError, match=r"A\[0\]\[3\] leaves the universe"):
        build_gadget(inst)


def test_deficiency_ranges():
    rng = random.Random(3)
    for m, r in ALL_COMBOS:
        inst = sample_bmhpc(m, r, rng)
        gg = build_gadget(inst)
        d, needs = gg.d, padding_plan(gg).needs
        assert all(need > 0 for need in needs)
        for s in gg.special_ids:
            assert needs[s] == 6 * r + 3 * m // 2 - 2
        for (ell, i), triple in gg.triple_index.items():
            for v in triple:
                need = needs[v]
                if ell == 0 and i == 0:
                    assert d - 2 * m - 8 <= need <= d - 8
                elif ell == 0:
                    assert d - 2 * m - 5 <= need <= d - 5
                elif ell == 2 * r:
                    assert need in (d - 8, d - 5)
                elif ell % 2 == 1:
                    # receivers aim one lower than senders, hence the -9
                    assert d - 2 * m - 9 <= need <= d - 9
                else:
                    assert d - 2 * m - 8 <= need <= d - 8


def test_degeneracy_encodes_the_answer_bit():
    rng = random.Random(4)
    for m, r in [(4, 1), (4, 2)]:
        for _ in range(10):
            inst = sample_bmhpc(m, r, rng)
            gg = build_gadget(inst)
            kappa = degeneracy(gg.graph)
            if chase(inst).bit == 1:
                assert kappa <= gg.d - 3
            else:
                assert kappa >= gg.d - 2


def test_peel_prefix_walks_the_pointer_path():
    rng = random.Random(5)
    for m, r in [(4, 1), (4, 3)]:
        for _ in range(3):
            inst = sample_bmhpc(m, r, rng)
            gg = build_gadget(inst)
            expected = pointer_path_triples(gg, inst)
            trace = peel(gg.graph)
            head = trace.order[: 6 * r + 3]
            for b, triple in enumerate(expected):
                assert set(head[3 * b : 3 * b + 3]) == set(triple)
            assert max(trace.degree_at_removal[: 6 * r + 3]) <= gg.d - 3


def test_special_degrees_step_down_along_the_path():
    rng = random.Random(6)
    inst = sample_bmhpc(4, 2, rng)
    gg = build_gadget(inst)
    r = gg.r
    deg = {s: gg.graph.degree(s) for s in gg.special_ids}
    seen = [set(deg.values())]
    for triple in pointer_path_triples(gg, inst):
        for v in triple:
            for s in gg.special_ids:
                if gg.graph.has_edge(v, s):
                    deg[s] -= 1
        seen.append(set(deg.values()))
    for ell in range(2 * r + 1):
        assert seen[ell] == {gg.d + 6 * r - 3 * ell}
    final = gg.d - 3 if chase(inst).bit == 1 else gg.d
    assert seen[-1] == {final}


def test_encoding_edges_match_the_sets():
    rng = random.Random(7)
    inst = sample_bmhpc(4, 2, rng)
    gg = build_gadget(inst)
    g, m = gg.graph, gg.m
    sending = [(0, inst.A[0], inst.B[0]), (2, inst.C[1], inst.D[1])]
    for src, fam1, fam2 in sending:
        for i in range(m):
            for j in range(m):
                count = sum(
                    g.has_edge(u, v)
                    for u in gg.triple_index[(src, i)]
                    for v in gg.triple_index[(src + 1, j)]
                )
                members = (fam1[i] >> j & 1) + (fam2[i] >> j & 1)
                assert count == 2 * members
                if count == 4:
                    assert 1 << j == fam1[i] & fam2[i]


def test_last_layer_bit_wiring():
    rng = random.Random(8)
    inst = sample_bmhpc(4, 1, rng)
    gg = build_gadget(inst)
    last = 2 * gg.r
    excluded = 0
    for i in range(gg.m):
        joined = [
            gg.graph.has_edge(v, s)
            for v in gg.triple_index[(last, i)]
            for s in gg.special_ids
        ]
        if i % 2 == 1:
            assert not any(joined)
            excluded += 3
        else:
            assert all(joined)
    assert excluded == 3 * gg.m // 2


def test_verify_catches_a_missing_edge():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(9)))
    victim = gg.triple_index[(1, 2)][0]
    other = next(iter(gg.graph.neighbors(victim)))
    edges = [e for e in gg.graph.edges()
             if e != (min(victim, other), max(victim, other))]
    report = verify_gadget(dataclasses.replace(gg, graph=Graph(gg.graph.n, edges)))
    assert not report.ok
    bad = {c.name: c.detail for c in report.failed()}
    assert "degree-targets" in bad
    assert any(ch.isdigit() for ch in bad["degree-targets"])


def test_verify_names_an_aux_vertex_below_its_target():
    # aux padding may overshoot a target by one, so the dropped aux-aux
    # edge is one whose lower endpoint sits exactly at its target; the
    # audit reads ids in order, so that endpoint is the one it names
    m, r = 4, 1
    gg = build_gadget(sample_bmhpc(m, r, random.Random(9)))
    g, aux = gg.graph, gg.aux_ids
    u, v = next((u, v) for u, v in g.edges() if u in aux and v in aux
                and g.degree(u) == _target_degree(u, m, r))
    want = _target_degree(u, m, r)
    edges = [e for e in g.edges() if e != (u, v)]
    report = verify_gadget(dataclasses.replace(gg, graph=Graph(g.n, edges)))
    assert {c.name: c.detail for c in report.failed()} == {
        "degree-targets": f"aux vertex {u} has degree {want - 1} < {want}"}


def test_verify_catches_swapped_bit_wiring():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(10)))
    last = 2 * gg.r
    drop = set()
    gain = []
    for i in range(gg.m):
        for v in gg.triple_index[(last, i)]:
            for s in gg.special_ids:
                if i % 2 == 0:
                    drop.add((min(v, s), max(v, s)))
                else:
                    gain.append((v, s))
    edges = [e for e in gg.graph.edges() if e not in drop] + gain
    report = verify_gadget(dataclasses.replace(gg, graph=Graph(gg.graph.n, edges)))
    failed = {c.name for c in report.failed()}
    assert "special-wiring" in failed
    assert "degree-targets" in failed


def test_pointer_path_shape_and_mismatch():
    rng = random.Random(11)
    inst = sample_bmhpc(4, 3, rng)
    gg = build_gadget(inst)
    seq = pointer_path_triples(gg, inst)
    assert len(seq) == 2 * gg.r + 1
    assert seq[0] == gg.triple_index[(0, 0)]
    walk = chase(inst).z
    for step in range(1, gg.r + 1):
        idx = walk[step][1]
        assert seq[2 * step - 1] == gg.triple_index[(2 * step - 1, idx)]
        assert seq[2 * step] == gg.triple_index[(2 * step, idx)]
    with pytest.raises(ValueError, match="4x3"):
        pointer_path_triples(gg, sample_bmhpc(4, 1, rng))


def test_aux_floor_and_induced_degree():
    gg = build_gadget(sample_bmhpc(8, 1, random.Random(12)))
    floor = gg.d + 6 * gg.r + 3
    aux = set(gg.aux_ids)
    for u in aux:
        assert gg.graph.degree(u) >= floor
        induced = sum(1 for w in gg.graph.neighbors(u) if w in aux)
        assert induced == padding_plan(gg).matchings <= gg.d - 3


def _saved(tmp_path, gg):
    """save_gadget(gg) into tmp_path; returns the graph file's path."""
    path = str(tmp_path / "gadget.txt")
    save_gadget(gg, path)
    return path


def _structural_graph(gg):
    """gg's graph without the edges on aux ids, on the same vertices."""
    low = gg.graph.n - gg.d
    return Graph(gg.graph.n, ((u, v) for u, v in gg.graph.edges() if v < low))


def test_export_roundtrip(tmp_path):
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(13)))
    back = load_gadget(_saved(tmp_path, gg))
    assert back.graph.edges() == gg.graph.edges()
    assert back.triple_index == gg.triple_index
    assert back.special_ids == gg.special_ids
    assert back.aux_ids == gg.aux_ids
    # the reader pads as the builder does, by the same plan
    assert padding_plan(back) == padding_plan(gg)
    assert verify_gadget(back).ok
    assert sidecar_json(back) == sidecar_json(gg)


def test_saved_gadget_files_match_the_text_forms(tmp_path):
    gg = build_gadget(sample_bmhpc(8, 2, random.Random(13)))
    path = tmp_path / "gadget.txt"
    save_gadget(gg, str(path))
    # the structural edges alone, under a header with the full n
    text = path.read_bytes().decode("ascii")
    assert text == dumps_graph(_structural_graph(gg))
    n, count = (int(x) for x in text.split("\n", 1)[0].split())
    assert n == gg.graph.n and 0 < count < gg.graph.m // 10
    sidecar = tmp_path / "gadget.txt.json"
    assert sidecar.read_bytes() == (sidecar_json(gg) + "\n").encode("ascii")
    assert json.loads(sidecar.read_text()) == {"m": 8, "r": 2, "d": gg.d}
    back = load_gadget(str(path))
    assert back.graph == gg.graph and (back.m, back.r) == (gg.m, gg.r)


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (4, 3), (8, 1), (8, 2),
                                 (12, 3), (16, 4)])
def test_a_reload_equals_the_build(m, r, tmp_path):
    # the padding and the id layout rebuilt from the structural edges and
    # {m, r, d} equal what the builder made, for odd and even r
    for seed in (1, 2, 3):
        gg = build_gadget(sample_bmhpc(m, r, random.Random(100 * m + r + seed)))
        back = _read_gadget(_saved(tmp_path, gg))
        assert back.graph == gg.graph
        assert (back.triple_index, back.special_ids, back.aux_ids) == (
            gg.triple_index, gg.special_ids, gg.aux_ids)
        assert (back.m, back.r, back.d) == (gg.m, gg.r, gg.d)


def test_a_gadget_stores_only_its_graph_m_and_r():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(13)))
    assert [f.name for f in dataclasses.fields(gg)] == ["graph", "m", "r"]
    # the layout follows m and r on each read, so it cannot go stale
    other = dataclasses.replace(gg, m=8, r=2)
    assert other.d == 6 * 8 * 2 + 3 * 8
    assert other.aux_ids == range(other.d + 3, 2 * other.d + 3)
    assert other.triple_index[(4, 7)] == (3 * 39, 3 * 39 + 1, 3 * 39 + 2)


@pytest.mark.parametrize("m,r", [(4, 1), (8, 2), (12, 3)])
def test_ids_follow_the_layout_arithmetic(m, r):
    # triple (ell, i) is 3(ell*m+i)+0..2, the specials follow the layers
    # and the aux ids are the last d, each under its own reference label
    gg = build_gadget(sample_bmhpc(m, r, random.Random(m + r)))
    n, d, labels = gg.graph.n, gg.d, layout(m, r)
    assert d == 3 * m * (2 * r + 1) and n == len(labels) == 2 * d + 3
    assert len(gg.triple_index) == (2 * r + 1) * m
    for (ell, i), t in gg.triple_index.items():
        assert t == tuple(3 * (ell * m + i) + c for c in range(3))
        assert [labels[v] for v in t] == [
            ("layer", ell, i, c) for c in (1, 2, 3)]
    assert gg.special_ids == (d, d + 1, d + 2)
    assert [labels[s] for s in gg.special_ids] == [
        ("special", j) for j in (1, 2, 3)]
    assert gg.aux_ids == range(n - d, n)
    assert [labels[v] for v in gg.aux_ids] == [("aux", t) for t in range(d)]


def _relabelled(gg, new):
    """gg with its graph's ids mapped by new; m and r, and so the
    layout the audit reads, are kept."""
    graph = Graph(gg.graph.n, ((new[u], new[v]) for u, v in gg.graph.edges()))
    return dataclasses.replace(gg, graph=graph)


def _shuffled(gg, seed):
    """gg with its non-aux ids shuffled and the aux ids kept last."""
    n, d = gg.graph.n, gg.d
    new = list(range(n - d))
    random.Random(seed).shuffle(new)
    return _relabelled(gg, new + list(range(n - d, n)))


@pytest.mark.parametrize("m,r,seed", [(4, 1, 21), (8, 2, 22)])
def test_a_shuffled_layout_fails_the_audit(m, r, seed):
    # a gadget has one id layout: the same graph on other ids is a
    # different graph to the audit, which reports it and never raises
    gg = _shuffled(build_gadget(sample_bmhpc(m, r, random.Random(seed))), seed)
    failed = {c.name for c in verify_gadget(gg).failed()}
    assert {"triangles", "special-wiring", "degree-targets"} <= failed


def test_a_shuffled_layout_does_not_survive_a_reload(tmp_path):
    # the file carries no labels; the reader, which pads and audits on
    # the layout of m and r, refuses it instead of relabelling it
    gg = _shuffled(build_gadget(sample_bmhpc(4, 1, random.Random(21))), 21)
    path = _saved(tmp_path, gg)
    with pytest.raises(ValueError):
        load_gadget(path)


def test_verify_rejects_scattered_aux_ids():
    # the first aux id and the first special swapped in the graph
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(13)))
    a, b = gg.aux_ids[0], gg.special_ids[0]
    new = list(range(gg.graph.n))
    new[a], new[b] = b, a
    failed = {c.name for c in verify_gadget(_relabelled(gg, new)).failed()}
    assert {"special-wiring", "degree-targets"} <= failed


@pytest.mark.parametrize("delta", [1, -1], ids=["one-more", "one-fewer"])
def test_verify_rejects_a_vertex_too_many_or_too_few(delta):
    # vertex-count is the only check run on a wrong n: the rest would
    # read ids that m and r put outside the graph
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(13)))
    n = gg.graph.n
    graph = Graph(n + delta, ((u, v) for u, v in gg.graph.edges()
                              if v < n + delta))
    report = verify_gadget(dataclasses.replace(gg, graph=graph))
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("vertex-count", False, f"n={n + delta}, expected {n}")]


@pytest.mark.parametrize("built,claimed", [((4, 4), (12, 1)),
                                           ((12, 1), (4, 4))])
def test_verify_rejects_the_right_n_under_another_m_and_r(built, claimed):
    # (4, 4) and (12, 1) both give d = 108: n alone does not tell them
    # apart, so the structural checks must
    gg = build_gadget(sample_bmhpc(*built, random.Random(5)))
    report = verify_gadget(dataclasses.replace(gg, m=claimed[0], r=claimed[1]))
    assert report.checks[0].name == "vertex-count" and report.checks[0].ok
    failed = {c.name for c in report.failed()}
    assert {"cross-pairs", "encoding-signature", "special-wiring",
            "edge-families", "degree-targets"} <= failed


def test_verify_names_a_stray_edge_and_an_aux_clique():
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(13)))
    u, v = gg.triple_index[(0, 1)][0], gg.triple_index[(2, 3)][0]
    stray = verify_gadget(dataclasses.replace(gg, graph=Graph(
        gg.graph.n, gg.graph.edges() + [(u, v)])))
    bad = {c.name: c.detail for c in stray.failed()}
    assert bad["edge-families"] == f"edge skips layers: ({u},{v})"

    q, s = gg.triple_index[(2 * gg.r, 1)][2], gg.special_ids[2]
    stray = verify_gadget(dataclasses.replace(gg, graph=Graph(
        gg.graph.n, gg.graph.edges() + [(q, s)])))
    bad = {c.name: c.detail for c in stray.failed()}
    assert bad["edge-families"] == (
        f"special edge into the excluded last-layer set: ({q},{s})")

    trip = gg.triple_index
    for (a, ca), (b, cb), reason in (
        (((0, 1), 1), ((0, 2), 1), "edge inside one layer across triples"),
        (((1, 0), 1), ((2, 1), 1),
         "cross-pair edge between different elements"),
        (((0, 1), 3), ((1, 0), 1), "illegal encoding edge"),
    ):
        u, v = trip[a][ca - 1], trip[b][cb - 1]
        assert not gg.graph.has_edge(u, v)
        stray = verify_gadget(dataclasses.replace(gg, graph=Graph(
            gg.graph.n, gg.graph.edges() + [(u, v)])))
        bad = {c.name: c.detail for c in stray.failed()}
        assert bad["edge-families"] == f"{reason}: ({u},{v})"

    hub = gg.aux_ids[-1]
    extra = [(a, hub) for a in gg.aux_ids[:-1] if not gg.graph.has_edge(a, hub)]
    clique = verify_gadget(dataclasses.replace(gg, graph=Graph(
        gg.graph.n, gg.graph.edges() + extra)))
    bad = {c.name: c.detail for c in clique.failed()}
    assert set(bad) == {"aux-induced-degree"}
    assert bad["aux-induced-degree"] == (
        f"aux vertex {hub} has {gg.d - 1} aux neighbors > {gg.d - 3}")


def reference_stray(gg):
    """The first edge among the non-aux ids whose reference_edge_family
    is not one of FAMILY_NAMES, in edges() order, as verify_gadget's detail names
    it; "" when there is none. The per-edge oracle for the row test."""
    low, labels = gg.d + 3, layout(gg.m, gg.r)
    for u, v in gg.graph.edges():
        if v < low:
            family = reference_edge_family(labels[u], labels[v], gg.r)
            if family not in FAMILY_NAMES:
                return f"{family}: ({u},{v})"
    return ""


def _absent_edge(gg, rng):
    """A random non-edge among the ids below the aux ids. Three draws in
    four aim a layer id u at the layer right above its own (the specials,
    for the last layer), where the legal and the copy-3 encoding edges
    lie."""
    d, block = gg.d, 3 * gg.m
    while True:
        u = rng.randrange(d + 3)
        if u < d and rng.random() < 0.75:
            base = block * (u // block + 1)
            v = rng.randrange(base, min(base + block, d + 3))
        else:
            v = rng.randrange(d + 3)
        if u != v and not gg.graph.has_edge(u, v):
            return u, v


@pytest.mark.parametrize("m,r", [(4, 1), (4, 2), (8, 1), (8, 3), (12, 2)])
def test_edge_families_row_test_matches_the_per_edge_walk(m, r):
    rng = random.Random(60 + 10 * m + r)
    verdicts = set()
    for _ in range(20):
        gg = build_gadget(sample_bmhpc(m, r, rng))
        add = set()
        for _ in range(rng.randrange(3)):
            u, v = _absent_edge(gg, rng)
            add.add((min(u, v), max(u, v)))
        tampered = _tampered(gg, add=sorted(add))
        want = reference_stray(tampered)
        got = next(c for c in verify_gadget(tampered).checks
                   if c.name == "edge-families")
        assert (got.ok, got.detail) == (not want, want)
        verdicts.add((bool(add), got.ok))
    # both a clean gadget and a failing tampered one occur
    assert verdicts >= {(False, True), (True, False)}


# ---------------------------------------------------------------------------
# fail-closed loading


def _sidecar_obj(tmp_path, seed=15):
    """A saved m=4, r=1 gadget, its graph file's path and its sidecar."""
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(seed)))
    return gg, _saved(tmp_path, gg), json.loads(sidecar_json(gg))


def _write(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def test_sidecar_rejects_an_empty_object(tmp_path):
    _, path, _ = _sidecar_obj(tmp_path)
    _write(path + ".json", "{}")
    with pytest.raises(ValueError, match="'m' must be a positive integer"):
        load_gadget(path)


def test_sidecar_rejects_a_top_level_list(tmp_path):
    _, path, obj = _sidecar_obj(tmp_path)
    _write(path + ".json", json.dumps([obj]))
    with pytest.raises(ValueError, match="JSON object"):
        load_gadget(path)


@pytest.mark.parametrize("key", ["labels", "n", "M"])
def test_sidecar_rejects_a_field_beyond_m_r_d(key, tmp_path):
    # an old sidecar's label list is refused by name, like any other
    gg, path, obj = _sidecar_obj(tmp_path)
    obj[key] = [list(label) for label in layout(gg.m, gg.r)]
    _write(path + ".json", json.dumps(obj))
    with pytest.raises(ValueError,
                       match=f"sidecar field '{key}' is not one of m, r, d"):
        load_gadget(path)


@pytest.mark.parametrize("key,value", [("m", "4"), ("r", 1.5), ("d", True),
                                       ("m", None)])
def test_sidecar_rejects_non_integer_parameters(key, value, tmp_path):
    _, path, obj = _sidecar_obj(tmp_path)
    obj[key] = value
    _write(path + ".json", json.dumps(obj))
    with pytest.raises(ValueError, match=f"'{key}' must be a positive integer"):
        load_gadget(path)


def test_sidecar_rejects_a_d_that_m_and_r_do_not_give(tmp_path):
    _, path, obj = _sidecar_obj(tmp_path)
    obj["d"] += 1
    _write(path + ".json", json.dumps(obj))
    with pytest.raises(ValueError,
                       match=r"field 'd' must be 6mr\+3m = 36, got 37"):
        load_gadget(path)


def test_sidecar_rejects_an_m_that_build_gadget_refuses(tmp_path, monkeypatch):
    # d = 54 is what m = 6 and r = 1 give, so the m check must come first
    _, path, obj = _sidecar_obj(tmp_path)
    obj.update(m=6, d=54)
    _write(path + ".json", json.dumps(obj))
    with pytest.raises(ValueError, match="multiple of 4"):
        load_gadget(path)
    # a whole m = 6 gadget, built with the builder's rule bypassed, passes
    # the audit, so only that rule keeps its files from loading
    for module in (degencomm.hpc, degencomm.gadget):
        monkeypatch.setattr(module, "check_universe", lambda m: None)
    gg = build_gadget(sample_bmhpc(6, 1, random.Random(1)))
    assert verify_gadget(gg).ok
    monkeypatch.undo()
    save_gadget(gg, path)
    with pytest.raises(ValueError, match="multiple of 4"):
        load_gadget(path)


def test_load_rejects_a_header_that_m_and_r_do_not_give(tmp_path):
    gg, path, obj = _sidecar_obj(tmp_path)
    obj.update(m=8, d=72)
    _write(path + ".json", json.dumps(obj))
    with pytest.raises(ValueError, match=(
            "line 1: header claims 75 vertices, m=8 and r=1 give 147")):
        load_gadget(path)


def test_load_refuses_an_edge_on_an_aux_id(tmp_path):
    gg, path, _ = _sidecar_obj(tmp_path)
    a, b = gg.aux_ids[:2]
    s = gg.special_ids[0]
    for extra in [(s, a)], [(a, b)]:
        edges = _structural_graph(gg).edges() + extra
        _write(path, dumps_graph(Graph(gg.graph.n, edges)))
        u, v = extra[0]
        with pytest.raises(ValueError,
                           match=rf"edge \({u},{v}\) touches an aux id"):
            load_gadget(path)


def test_load_refuses_a_file_that_lists_the_padding(tmp_path):
    # the full edge list the format once held: its first padding edge
    # is the first edge on an aux id
    gg, path, _ = _sidecar_obj(tmp_path)
    _write(path, dumps_graph(gg.graph))
    low = gg.graph.n - gg.d
    u, v = next((u, v) for u, v in gg.graph.edges() if v >= low)
    with pytest.raises(ValueError, match=rf"edge \({u},{v}\) touches an aux"):
        load_gadget(path)


def test_load_refuses_a_vertex_above_its_target(tmp_path):
    # the start vertex (target d - 3) joined to every other non-aux id
    gg, path, _ = _sidecar_obj(tmp_path)
    low = gg.graph.n - gg.d
    start = gg.triple_index[(0, 0)][0]
    edges = set(_structural_graph(gg).edges())
    edges |= {(min(start, v), max(start, v)) for v in range(low) if v != start}
    _write(path, dumps_graph(Graph(gg.graph.n, edges)))
    with pytest.raises(ValueError, match=(
            f"vertex {start} already exceeds its target degree by 5")):
        load_gadget(path)


def test_load_audits_the_structure(tmp_path):
    # a triangle edge dropped from the file: the reader pads its two
    # ends back up to their targets, so the audit names the triangle
    gg = build_gadget(sample_bmhpc(4, 1, random.Random(16)))
    u, v = gg.triple_index[(1, 2)][:2]
    path = _saved(tmp_path, _tampered(gg, drop=[(u, v)]))
    with pytest.raises(ValueError,
                       match=rf"triangles: missing \({u}, {v}\)"):
        load_gadget(path)


def _in_capped_child(code, *argv):
    """Run code in a child Python that caps its own address space at
    1 GiB, so that a regression fails with MemoryError instead of
    exhausting the host; returns the child's stdout."""
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    """) + textwrap.dedent(code)
    src = os.path.dirname(os.path.dirname(degencomm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("key", ["m", "r"])
def test_load_fails_closed_on_a_huge_sidecar_size(tmp_path, key):
    # the reader must refuse m or r by arithmetic before anything sized
    # by them is built. d is set to what the huge m or r give, so it is
    # the header's n that the check refuses.
    _, path, obj = _sidecar_obj(tmp_path)
    obj[key] = 1_000_000
    obj["d"] = 6 * obj["m"] * obj["r"] + 3 * obj["m"]
    _write(path + ".json", json.dumps(obj))
    out = _in_capped_child("""
        from degencomm.gadget import load_gadget
        try:
            load_gadget(sys.argv[1])
        except ValueError as exc:
            print(exc)
    """, path)
    assert out.startswith(
        f"line 1: header claims 75 vertices, m={obj['m']} and r={obj['r']} "
        f"give {2 * obj['d'] + 3}")


@pytest.mark.parametrize("key", ["m", "r"])
def test_verify_fails_closed_on_a_huge_m_or_r(key):
    # the ids are derived from m and r, so the audit must check n against
    # them by arithmetic before it builds the labels or the triples
    out = _in_capped_child("""
        import dataclasses, random
        from degencomm.gadget import build_gadget, verify_gadget
        from degencomm.hpc import sample_bmhpc
        gg = build_gadget(sample_bmhpc(4, 1, random.Random(15)))
        bad = dataclasses.replace(gg, **{sys.argv[1]: 1_000_000})
        for c in verify_gadget(bad).failed():
            print(f"{c.name}: {c.detail}")
    """, key)
    m, r = {"m": (1_000_000, 1), "r": (4, 1_000_000)}[key]
    assert out == f"vertex-count: n=75, expected {12 * m * r + 6 * m + 3}\n"


# ---------------------------------------------------------------------------
# tampered encodings and joins: each case pins the check and its detail


def _tampered(gg, drop=(), add=()):
    """gg with the edges in drop removed and those in add joined."""
    gone = {(min(u, v), max(u, v)) for u, v in drop}
    edges = [e for e in gg.graph.edges() if e not in gone] + list(add)
    return dataclasses.replace(gg, graph=Graph(gg.graph.n, edges))


def _tamper_cases():
    """name -> (drop, add, check, detail) for tamperings of _TAMPER_GG.

    The instance is sample_bmhpc(4, 2, seed 21): its source triples send
    from layers 0 and 2, so the cases can mix offenders across layers.
    """
    t, m = _TAMPER_GG.triple_index, _TAMPER_GG.m
    inst = _TAMPER_INST
    fams = {0: (inst.A[0], inst.B[0]), 2: (inst.C[1], inst.D[1])}
    # the target that gets all four edges from (src, i), and the
    # smallest one that gets none
    hit = {(src, i): (f1[i] & f2[i]).bit_length() - 1
           for src, (f1, f2) in fams.items() for i in range(m)}
    miss = {(src, i): min(j for j in range(m) if not (f1[i] | f2[i]) >> j & 1)
            for src, (f1, f2) in fams.items() for i in range(m)}

    def four(src, i, j):
        return [(s, v) for s in t[(src, i)][:2] for v in t[(src + 1, j)][:2]]

    def half(src, i, j):
        return [(t[(src, i)][0], v) for v in t[(src + 1, j)][:2]]

    def contact(src, i, j):
        return f"copy-3 contact between ({src},{i}) and ({src + 1},{j})"

    def unpaired(src, i, j):
        return f"unpaired edges between ({src},{i}) and ({src + 1},{j})"

    j01, j22, j23, h02, h23 = (miss[0, 1], miss[2, 2], miss[2, 3],
                               hit[0, 2], hit[2, 3])
    c3_src = (t[(0, 1)][2], t[(1, j01)][0])
    c3_tgt = (t[(2, 2)][1], t[(3, j22)][2])
    zero = "triple (0,2) has 0 full matches"
    two = "triple (2,3) has 2 full matches"
    sig = "encoding-signature"
    u1, v1 = t[(1, 2)][0], t[(2, 2)][1]
    u2, v2 = t[(3, 1)][2], t[(4, 1)][0]
    return {
        "copy3-source": ([], [c3_src], sig, contact(0, 1, j01)),
        "copy3-target": ([], [c3_tgt], sig, contact(2, 2, j22)),
        "unpaired-extra": ([], [(t[(0, 1)][1], t[(1, j01)][0])], sig,
                           unpaired(0, 1, j01)),
        "unpaired-missing": ([(t[(2, 3)][0], t[(3, h23)][1])], [], sig,
                             unpaired(2, 3, h23)),
        "no-full-match": (half(0, 2, h02), [], sig, zero),
        "two-full-matches": ([], four(2, 3, j23), sig, two),
        "last-offender-wins": ([], [c3_tgt, c3_src], sig, contact(2, 2, j22)),
        "unpaired-beats-copy3-on-one-pair": (
            [], [c3_src, (t[(0, 1)][0], t[(1, j01)][1])], sig,
            unpaired(0, 1, j01)),
        "offender-beats-later-match-count": (
            [], four(2, 3, j23) + [c3_src], sig, contact(0, 1, j01)),
        "offender-beats-earlier-match-count": (
            half(0, 2, h02), [c3_tgt], sig, contact(2, 2, j22)),
        "first-match-count-wins": (half(0, 2, h02), four(2, 3, j23), sig,
                                   zero),
        "missing-join": ([(u1, v1)], [], "cross-pairs",
                         f"missing ({u1}, {v1})"),
        "last-missing-join": ([(t[(1, 3)][1], t[(2, 3)][2]), (u2, v2)], [],
                              "cross-pairs", f"missing ({u2}, {v2})"),
    }


_TAMPER_INST = sample_bmhpc(4, 2, random.Random(21))
_TAMPER_GG = build_gadget(_TAMPER_INST)
TAMPER_CASES = _tamper_cases()


@pytest.mark.parametrize("name", sorted(TAMPER_CASES))
def test_verify_names_the_tampered_encoding(name):
    drop, add, check, detail = TAMPER_CASES[name]
    report = verify_gadget(_tampered(_TAMPER_GG, drop, add))
    bad = {c.name: c.detail for c in report.failed()}
    assert bad[check] == detail
    other = {"encoding-signature", "cross-pairs"} - {check}
    assert other.isdisjoint(bad)


@pytest.mark.parametrize("name", sorted(TAMPER_CASES))
def test_load_names_the_tampered_encoding(name, tmp_path):
    # the same tampering in a file: the reader pads the tampered
    # structural edges and the audit fails the check the in-memory case
    # fails, with the same detail
    drop, add, check, detail = TAMPER_CASES[name]
    path = _saved(tmp_path, _tampered(_TAMPER_GG, drop, add))
    with pytest.raises(ValueError) as err:
        load_gadget(path)
    assert str(err.value) == f"gadget audit failed: {check}: {detail}"


# ---------------------------------------------------------------------------
# memory: what each stage of the gadget path holds beyond the packed graph


def _traced_peak(f, *args):
    """f(*args), and the most memory tracemalloc saw allocated in the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return f(*args), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def traced_build():
    """The m=16, r=2 gadget (n = 483) and the traced peak of its build."""
    gg, peak = _traced_peak(build_gadget, sample_bmhpc(16, 2, random.Random(1)))
    assert gg.graph.n == 483
    return gg, peak


def test_build_holds_little_beyond_the_packed_graph(traced_build):
    # rows packed straight into the two arrays: nothing holds a second
    # copy of the padding
    gg, peak = traced_build
    assert peak < 2.2 * 4 * len(gg.graph.nbrs)


def test_pack_holds_nothing_beyond_its_result():
    # the padding owners are staged inside the result's own neighbour
    # array: a second padding-sized array would add about half of it
    gg = build_gadget(sample_bmhpc(16, 3, random.Random(1)))
    g, peak = _traced_peak(padding_plan(gg).pack, _structural_graph(gg))
    assert g == gg.graph
    result = (len(g.nbrs) * g.nbrs.itemsize
              + len(g.offsets) * g.offsets.itemsize)
    assert peak <= 1.05 * result


def test_peel_holds_linear_memory_on_a_dense_gadget(traced_build):
    gg, _ = traced_build
    trace, peak = _traced_peak(peel, gg.graph)
    assert trace.degeneracy == degeneracy(gg.graph)
    assert peak < 256 * gg.graph.n


def test_load_holds_little_beyond_the_packed_graph(traced_build, tmp_path):
    gg, _ = traced_build
    path = str(tmp_path / "gadget.txt")
    save_gadget(gg, path)
    back, peak = _traced_peak(load_gadget, path)
    assert back.graph == gg.graph
    assert peak < 2 * 4 * len(gg.graph.nbrs)
