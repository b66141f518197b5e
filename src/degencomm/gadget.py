"""Layered gadget graph whose degeneracy encodes a pointer-chasing bit.

The construction turns a multilayer pointer-chasing instance into a graph
built from 2r+1 layers of m vertex triples. A triple is three copies of
one universe element; copies 1 and 2 of an even layer carry the two set
families of the next chase step as edges into the following layer, and
each odd layer is glued to the next even layer by a complete 3x3 join so
the chase step is replayed twice. Three special vertices hang off every
layer triple except the bit-0 triples of the last layer, and d auxiliary
vertices pad every remaining degree up to its exact target. The point of
the padding is that min-degree peeling then discharges the triples along
the pointer path first, and whether the peel runs to completion below
threshold d-3 depends only on the parity bit of the final pointer.

A gadget has one id layout, arithmetic on (m, r) (DECISIONS.md, D3):
with d = 6mr+3m, triple (ell, i) is ids 3(ell*m+i) + 0..2, so the d
layer ids come first by (ell, i, c), the specials 1..3 are d + 0..2
and the d auxiliary ids are the last ones, d+3 .. 2d+2. Ids are the
gadget's only names: id v decodes as t, c = divmod(v, 3) and
ell, i = divmod(t, m), which puts the specials at triple (2r+1, 0) and
the aux ids at v >= d+3. _triples gives the triple ids, _excluded names
the triples kept off the specials, _target_degree gives each id its
degree target and edge_family names the family of each edge. The
builder, the audit, the file reader and the reduction share these and
nothing else. The padding is a plan that aux_padding computes from the
structural degrees and (m, r) alone: each layer/special vertex's gap,
and how many factors of one 1-factorization of K_d (_partners) join
the aux ids. So a GadgetGraph is its graph, m and r, and a saved
gadget holds only its structural edges and (m, r, d); the reader
rebuilds the padding from them as the builder makes it.

All element indexes here are 0-based, matching the instance model; copy
numbers are 1..3 and special names 1..3 because those are names, not
offsets. The parity bit of element index i is (i + 1) % 2, so bit-0
triples are those with odd 0-based index.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import add, sub
from typing import Iterator

from .graphs import Graph, _read_graph, save_graph
from .hpc import (MHPCInstance, PointerPath, chase, check_universe,
                  mask_members, validate_instance)

FAMILY_NAMES = ("E1", "E2", "ES", "EA", "EB", "EC", "ED")

# by (source layer mod 4, copy number less one)
_ENCODING_FAMILY = {(0, 0): "EA", (0, 1): "EB", (2, 0): "EC", (2, 1): "ED"}


def _width(m: int, r: int) -> int:
    """The padding width d: the number of auxiliary vertices, which is
    also the number of layer vertices."""
    return 6 * m * r + 3 * m


def _triples(m: int, r: int) -> dict[tuple[int, int], tuple[int, int, int]]:
    """The ids of copies 1..3 of each layer triple (ell, i), in (ell, i)
    order: triple t = ell*m + i is ids 3t, 3t+1 and 3t+2."""
    return {divmod(t, m): (3 * t, 3 * t + 1, 3 * t + 2)
            for t in range((2 * r + 1) * m)}


def _partners(t: int, x: int, d: int) -> list[int]:
    """Aux t's partners in factors 0..x-1 of the 1-factorization of K_d,
    sorted.

    Aux d-1 sits in the centre and meets aux k in factor k; aux t < d-1
    meets (2k - t) mod (d-1) in factor k, and the centre in factor t.
    For even d the d-1 factors are pairwise disjoint perfect matchings.
    For 2x-1 <= t < d-1 the row is range(d-1-t, d-1-t+2x, 2): every
    2k - t is negative and above -(d-1), and the centre is not met yet.
    """
    e = d - 1
    if t == e:
        return list(range(x))
    row = [v % e for v in range(-t, 2 * x - t, 2)]  # entry k is 2k - t
    if t < x:
        row[t] = e
    row.sort()
    return row


@dataclass
class GadgetGraph:
    """A built gadget: its packed graph, m and r.

    Its ids are laid out by (m, r) alone, so d, triple_index,
    special_ids and aux_ids are computed from m and r on each read and
    cannot disagree with them. The padding plan is not kept: it follows
    from the structural degrees, as aux_padding computes it.
    """

    graph: Graph
    m: int
    r: int

    @property
    def d(self) -> int:
        return _width(self.m, self.r)

    @property
    def triple_index(self) -> dict[tuple[int, int], tuple[int, int, int]]:
        return _triples(self.m, self.r)

    @property
    def special_ids(self) -> tuple[int, int, int]:
        d = self.d
        return d, d + 1, d + 2

    @property
    def aux_ids(self) -> range:
        d = self.d
        return range(d + 3, 2 * d + 3)

    def check_fits(self, inst: MHPCInstance) -> None:
        """Raise ValueError unless inst has this gadget's (m, r)."""
        if (inst.m, inst.r) != (self.m, self.r):
            raise ValueError(
                f"instance is {inst.m}x{inst.r}, gadget is {self.m}x{self.r}"
            )


@dataclass(frozen=True)
class GadgetCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class GadgetReport:
    checks: list[GadgetCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[GadgetCheck]:
        return [c for c in self.checks if not c.ok]


def _excluded(ell: int, i: int, r: int) -> bool:
    """Whether triple (ell, i) is kept off the specials: the bit-0
    triples of the last layer 2r take no special edges."""
    return ell == 2 * r and (i + 1) % 2 == 0


def _target_degree(v: int, m: int, r: int) -> int:
    """The degree target of id v: exact, except a floor for aux."""
    d = _width(m, r)
    if v >= d + 3:
        return d + 6 * r + 3
    ell, i = divmod(v // 3, m)
    if ell > 2 * r:  # a special
        return d + 6 * r
    if ell == 0:
        return d - 3 if i == 0 else d
    return d - 1 if ell % 2 == 1 else d


@dataclass(frozen=True)
class AuxPadding:
    """The padding determined by the pre-padding vertex degrees.

    needs[v] is the degree gap of layer/special vertex v, for v in id
    order; the aux ids are the d ids right after len(needs); matchings
    is the number of factors of the 1-factorization of K_d on the aux
    ids (see _partners) that lift the aux floor. The edges themselves
    are not stored: edges() regenerates them one by one from these
    three, for the streaming simulation, and pack() writes them, with
    the rows of the structural graph, straight into a packed graph.
    """

    needs: tuple[int, ...]
    matchings: int
    d: int

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield the auxiliary edges one at a time.

        Each deficient vertex takes its edges from the auxiliary vertices
        handed out round-robin; then come the matching edges, aux row by
        aux row, each once.
        """
        d, low = self.d, len(self.needs)
        cursor = 0
        for v, need in enumerate(self.needs):
            for t in range(cursor, cursor + need):
                yield v, low + t % d
            cursor = (cursor + need) % d
        for t in range(d):
            for p in _partners(t, self.matchings, d):
                if t < p:
                    yield low + t, low + p

    def pack(self, s: Graph) -> Graph:
        """Pack the structural graph s and this padding into a Graph.

        s has all len(needs) + d vertices, the aux ids being the last d,
        and no edge on an aux id. The result equals joining edges() into
        s one by one; its two arrays are sized from the degrees, take
        s's id typecode and are written in place in three steps, with
        no second array of padding size.

        Stage: padding edge j joins its owner v to aux j % d, and v goes
        to nbrs[j]. The needs sum to at most the layer rows' length, so
        the stage lies where those rows will go.
        Gather: aux t's padding owners are nbrs[t:total:d], ascending
        and each once since no need exceeds d, and go into its row as
        one strided slice. Its partners, _partners(t, x, d), end the
        row; for 2x-1 <= t < d-1 they are the stride-2 slice of the aux
        ids that _partners names.
        Overwrite: each layer/special row goes over the stage as its
        structural row, one slice of s, then its slice of the aux ids
        from its round-robin cursor; a slice that wraps goes in as the
        ids below the wrap, then those from the cursor, so the row
        stays sorted.

        Raises ValueError naming a repeated edge when a vertex needs
        more than d padding edges.
        """
        needs, x, d = self.needs, self.matchings, self.d
        low = len(needs)
        code = s.nbrs.typecode
        ids = array(code, range(low, low + d))
        total = sum(needs)
        sweeps, rest = divmod(total, d)
        width = sweeps + x  # an aux row's length from rest on
        so, sn = s.offsets, s.nbrs
        offsets = array("i", accumulate(chain(
            map(add, map(sub, so[1:low + 1], so), needs),
            repeat(width + 1, rest), repeat(width, d - rest)), initial=0))
        nbrs = array(code, [0]) * offsets[-1]
        # stage: the owner of padding edge j at nbrs[j]
        start = 0  # v's first padding edge
        for v, need in enumerate(needs):
            if need > d:
                raise ValueError(f"duplicate edge ({v},{low + start % d})")
            nbrs[start:start + need] = array(code, [v]) * need
            start += need
        # gather: aux t's owners, then its partners
        e = d - 1
        for t in range(d):
            lo, end = offsets[low + t], offsets[low + t + 1]
            nbrs[lo:end - x] = nbrs[t:total:d]
            if 2 * x - 1 <= t < e:
                nbrs[end - x:end] = ids[e - t:e - t + 2 * x:2]
            else:
                tail = [low + p for p in _partners(t, x, d)]
                nbrs[end - x:end] = array(code, tail)
        # overwrite the stage with the layer/special rows
        start = 0
        for v, need in enumerate(needs):
            mid = offsets[v] + so[v + 1] - so[v]
            nbrs[offsets[v]:mid] = sn[so[v]:so[v + 1]]
            cursor = start % d
            end = cursor + need
            if end > d:  # the ids below the wrap come first
                wrap = mid + end - d
                nbrs[mid:wrap] = ids[:end - d]
                mid, end = wrap, d
            nbrs[mid:offsets[v + 1]] = ids[cursor:end]
            start += need
        return Graph.from_csr(offsets, nbrs)


def aux_padding(m: int, r: int, degrees: list[int]) -> AuxPadding:
    """Compute the auxiliary padding from vertex degrees alone.

    degrees[v] is the degree of vertex v in the graph built so far, in
    canonical id order with the d auxiliary vertices last (still degree
    zero at that point). No other knowledge of the edge set is needed,
    which is what lets the last player of the streaming simulation add
    the padding after seeing only a degree table.
    """
    d = _width(m, r)
    n = 2 * d + 3
    if len(degrees) != n:
        raise ValueError(f"expected {n} degrees, got {len(degrees)}")
    needs: list[int] = []
    for v in range(d + 3):
        need = _target_degree(v, m, r) - degrees[v]
        if need < 0:
            raise ValueError(
                f"vertex {v} already exceeds its target degree by {-need}"
            )
        needs.append(need)
    # the round-robin hands every auxiliary vertex one edge per full
    # sweep, and one more to the first (total mod d) of them
    sweeps, rest = divmod(sum(needs), d)
    floor = min(a + sweeps + (t < rest) for t, a in enumerate(degrees[-d:]))
    x = max(0, _target_degree(n - 1, m, r) - floor)
    if x > d - 1:
        raise ValueError(f"padding needs {x} matchings, only {d - 1} exist")
    return AuxPadding(tuple(needs), x, d)


def build_gadget(inst: MHPCInstance) -> GadgetGraph:
    """Construct the gadget for a valid instance with m divisible by 4.

    The structural edges are joined one by one into neighbour rows and
    packed as the structural graph; AuxPadding.pack adds the padding,
    which is nearly all of the edges, as slices of the aux ids while it
    packs the graph. Raises ValueError on bad inputs and RuntimeError if
    the finished graph fails its own audit (which would be a builder bug).
    """
    validate_instance(inst)
    m, r = inst.m, inst.r
    check_universe(m)
    d = _width(m, r)
    trip = _triples(m, r)
    specials = d, d + 1, d + 2

    # structural edges go straight into the rows, unchecked beyond what
    # Graph.from_rows refuses: verify_gadget audits the packed graph
    rows: list[list[int]] = [[] for _ in range(2 * d + 3)]

    def join(u: int, v: int) -> None:
        rows[u].append(v)
        rows[v].append(u)

    for t in trip.values():
        join(t[0], t[1])
        join(t[0], t[2])
        join(t[1], t[2])

    # complete 3x3 join between the two layers replaying the same step
    for ell in range(1, r + 1):
        for i in range(m):
            for u in trip[(2 * ell - 1, i)]:
                for v in trip[(2 * ell, i)]:
                    join(u, v)

    def encode(src: int, fam1, fam2) -> None:
        # copy 1 of the source triple carries fam1, copy 2 carries fam2;
        # a member j receives one edge on each of copies 1 and 2 of its
        # triple in layer src+1, so a set-pair intersection shows up as
        # all four cross edges and a one-sided member as exactly two;
        # members go in ascending order
        for i in range(m):
            for u, fam in zip(trip[(src, i)], (fam1, fam2)):
                for j in mask_members(fam[i]):
                    target = trip[(src + 1, j)]
                    join(u, target[0])
                    join(u, target[1])

    for ell in range((r + 1) // 2):
        encode(4 * ell, inst.A[2 * ell], inst.B[2 * ell])
    for ell in range(r // 2):
        encode(4 * ell + 2, inst.C[2 * ell + 1], inst.D[2 * ell + 1])

    join(specials[0], specials[1])
    join(specials[0], specials[2])
    join(specials[1], specials[2])
    for (ell, i), t in trip.items():
        if _excluded(ell, i, r):
            continue
        for v in t:
            for s in specials:
                join(s, v)

    return _audited(_padded(m, r, Graph.from_rows(rows)), RuntimeError)


def _padded(m: int, r: int, s: Graph) -> GadgetGraph:
    """The gadget whose structural graph is s, padded as the builder
    pads it.

    Every layer/special vertex is padded up to its target with auxiliary
    edges handed out round-robin, then the auxiliary floor is lifted
    with disjoint matchings; the plan depends only on the degrees in s.
    Raises ValueError naming an edge of s on an aux id.
    """
    n, low = s.n, s.n - _width(m, r)
    if s.offsets[low] < s.offsets[n]:
        u, v = next((u, v) for u in range(n) for v in s.upper(u) if v >= low)
        raise ValueError(f"edge ({u},{v}) touches an aux id")
    degrees = list(map(sub, s.offsets[1:], s.offsets))
    return GadgetGraph(aux_padding(m, r, degrees).pack(s), m, r)


def _audited(gg: GadgetGraph, error: type[Exception]) -> GadgetGraph:
    """Return gg if verify_gadget passes, else raise error naming the check."""
    report = verify_gadget(gg)
    if not report.ok:
        bad = report.failed()[0]
        raise error(f"gadget audit failed: {bad.name}: {bad.detail}")
    return gg


def verify_gadget(gg: GadgetGraph) -> GadgetReport:
    """Re-check every structural invariant from the graph, m and r alone.

    Independent of the builder: everything is recomputed from gg.graph
    and the id layout that (m, r) give. Each check lands in the report
    with an offending vertex or pair in the detail on failure.
    """
    g, m, r, d = gg.graph, gg.m, gg.r, gg.d
    report = GadgetReport()

    def check(name: str, ok: bool, detail: str = "") -> bool:
        report.checks.append(GadgetCheck(name, ok, detail))
        return ok

    # m and r may come from a file: n is checked against them by
    # arithmetic before anything sized by them is built, so a huge value
    # fails the check instead of exhausting memory. The layout has d
    # layer, 3 special and d auxiliary vertices.
    n_want = 2 * d + 3
    if not check("vertex-count", g.n == n_want, f"n={g.n}, expected {n_want}"):
        return report

    trip, specials, aux = gg.triple_index, gg.special_ids, gg.aux_ids
    aux_lo = aux.start  # the checks below cut the aux ids off sorted rows
    q_nodes = {v for (ell, i), t in trip.items() if _excluded(ell, i, r)
               for v in t}

    bad = next(
        (
            (u, v)
            for t in trip.values()
            for u in t
            for v in t
            if u < v and not g.has_edge(u, v)
        ),
        None,
    )
    check("triangles", bad is None, f"missing {bad}" if bad else "")

    bad = None
    for ell in range(1, r + 1):
        for i in range(m):
            for u in trip[(2 * ell - 1, i)]:
                for v in trip[(2 * ell, i)]:
                    if not g.has_edge(u, v):
                        bad = (u, v)
    check("cross-pairs", bad is None, f"missing {bad}" if bad else "")

    # every even layer except the last feeds the next layer; the edges
    # from one source triple must hit copies 1 and 2 of a target triple
    # in pairs, never copy 3, and exactly one target per source gets all
    # four edges (that target is the next pointer). The detail names the
    # last offending pair in (src, i, j) order, an unpaired one before a
    # copy-3 contact on the same pair, else the first miscounted triple.
    offender = miscount = ""
    for src in range(0, 2 * r, 2):
        base = 3 * m * (src + 1)  # the target layer's first id
        for i in range(m):
            (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = (
                _copies_hit(g, s, base, base + 3 * m) for s in trip[(src, i)])
            contact = a3 | b3 | c1 | c2 | c3
            unpaired = (a1 ^ a2) | (b1 ^ b2)
            if contact or unpaired:
                j = max(contact | unpaired)
                kind = "unpaired edges" if j in unpaired else "copy-3 contact"
                offender = f"{kind} between ({src},{i}) and ({src + 1},{j})"
            fours = len(a1 & b1)
            if fours != 1 and not miscount:
                miscount = f"triple ({src},{i}) has {fours} full matches"
    sig_detail = offender or miscount
    check("encoding-signature", not sig_detail, sig_detail)

    bad_wire = ""
    expected_layer_side = set().union(*trip.values()) - q_nodes
    for s in specials:
        others = {v for v in specials if v != s}
        seen = set(g.neighbors(s))
        if not others <= seen:
            bad_wire = f"special {s} misses a special neighbor"
        layer_seen = {v for v in seen if v < d}
        if layer_seen != expected_layer_side:
            off = (layer_seen ^ expected_layer_side).pop()
            bad_wire = f"special {s} wiring wrong at vertex {off}"
    check("special-wiring", not bad_wire, bad_wire)
    check(
        "q-size",
        len(q_nodes) == 3 * m // 2,
        f"|Q|={len(q_nodes)}, expected {3 * m // 2}",
    )

    # no edge may fall outside the allowed families; aux may touch
    # anything, so only the rows below the aux ids are read, one range
    # test per row; only a failing graph is walked edge by edge, to name
    # its first stray edge
    stray = ""
    if not _rows_in_families(g, m, r):
        for u, v in _edges_below(g, aux_lo):
            family = edge_family(u, v, m, r)
            if family not in FAMILY_NAMES:
                stray = f"{family}: ({u},{v})"
                break
    check("edge-families", not stray, stray)

    bad_deg = ""
    for v in range(n_want):
        want = _target_degree(v, m, r)
        have = g.degree(v)
        if v >= aux_lo:
            if have < want:
                bad_deg = f"aux vertex {v} has degree {have} < {want}"
                break
        elif have != want:
            bad_deg = f"vertex {v} has degree {have}, target {want}"
            break
    check("degree-targets", not bad_deg, bad_deg)

    offsets, nbrs = g.offsets, g.nbrs
    worst = max((offsets[u + 1] - bisect_left(nbrs, aux_lo, offsets[u],
                                              offsets[u + 1]), u) for u in aux)
    check(
        "aux-induced-degree",
        worst[0] <= d - 3,
        f"aux vertex {worst[1]} has {worst[0]} aux neighbors > {d - 3}",
    )
    return report


def edge_family(u: int, v: int, m: int, r: int) -> str:
    """The family of an edge between two non-aux ids.

    One of FAMILY_NAMES for an edge the construction makes: E1 inside a
    triple, E2 between the layers that replay one step, ES on a special
    vertex, and EA..ED for the encoding edges by source layer (mod 4)
    and carrying copy. For any other edge, the reason it is stray.
    """
    if u > v:
        u, v = v, u
    tu, cu = divmod(u, 3)  # c is the copy number less one
    tv, cv = divmod(v, 3)
    eu, iu = divmod(tu, m)
    ev, iv = divmod(tv, m)
    if ev > 2 * r:  # v is a special
        if _excluded(eu, iu, r):
            return "special edge into the excluded last-layer set"
        return "ES"
    if eu == ev:
        return "E1" if iu == iv else "edge inside one layer across triples"
    if ev != eu + 1:
        return "edge skips layers"
    if eu % 2 == 1:
        return ("E2" if iu == iv
                else "cross-pair edge between different elements")
    if eu == 2 * r or cu == 2 or cv == 2:
        return "illegal encoding edge"
    return _ENCODING_FAMILY[(eu % 4, cu)]


def _rows_in_families(g: Graph, m: int, r: int) -> bool:
    """Whether every edge among the non-aux ids is in FAMILY_NAMES.

    edge_family's rules, read as ranges of the sorted upper rows: with
    layer id u decoded as copy c+1 of triple (ell, i), its upper row
    below the aux ids holds the rest of u's triple; then, for odd ell,
    only triple (ell+1, i), and for even ell < 2r with c != 2, only
    copy-1/2 ids of layer ell+1; then only specials, none if (ell, i)
    is _excluded. A special's upper row there holds only specials,
    which is ES.
    """
    d = _width(m, r)
    offsets, nbrs = g.offsets, g.nbrs
    copy3 = frozenset(range(2, d, 3))
    for u in range(d):
        t, c = divmod(u, 3)  # c is the copy number less one
        ell, i = divmod(t, m)
        hi = offsets[u + 1]
        lo = bisect_left(nbrs, 3 * t + 3, offsets[u], hi)  # past u's triple
        mid = bisect_left(nbrs, d, lo, hi)  # the specials, then aux ids
        if mid < hi and nbrs[mid] < d + 3 and _excluded(ell, i, r):
            return False
        if lo == mid:
            continue
        if ell % 2:
            first, top = 3 * (t + m), 3 * (t + m) + 3
        elif ell < 2 * r and c != 2:
            first, top = 3 * m * (ell + 1), 3 * m * (ell + 2)
            if not copy3.isdisjoint(nbrs[lo:mid]):
                return False
        else:
            return False
        if nbrs[lo] < first or nbrs[mid - 1] >= top:
            return False
    return True


def _copies_hit(g: Graph, s: int, base: int,
                top: int) -> tuple[set[int], set[int], set[int]]:
    """The elements j whose copy 1, 2 and 3 (in turn) s is joined to.

    The target layer is the id block [base, top), with copy c + 1 of
    element j at base + 3j + c, so only that part of the sorted row is
    read.
    """
    hit: tuple[set[int], set[int], set[int]] = (set(), set(), set())
    lo, hi = g.offsets[s], g.offsets[s + 1]
    lo = bisect_left(g.nbrs, base, lo, hi)
    for v in g.nbrs[lo:bisect_left(g.nbrs, top, lo, hi)]:
        j, c = divmod(v - base, 3)
        hit[c].add(j)
    return hit


def _edges_below(g: Graph, bound: int) -> Iterator[tuple[int, int]]:
    """Yield the edges (u, v) with u < v < bound, row by row."""
    for u in range(bound):
        row = g.upper(u)
        for v in row[:bisect_left(row, bound)]:
            yield u, v


def pointer_path_triples(
    gg: GadgetGraph, inst: MHPCInstance, walk: PointerPath | None = None
) -> list[tuple[int, int, int]]:
    """The 2r+1 triples along the pointer path, in layer order.

    Entry 0 is the start triple in layer 0; each later pointer
    contributes its triple in both layers that replay that step. These
    are exactly the triples a min-degree peel removes first. A caller
    that already has chase(inst) passes it as walk to skip a second walk.
    """
    gg.check_fits(inst)
    if walk is None:
        walk = chase(inst)
    trip = gg.triple_index
    seq = [trip[(0, 0)]]
    for step, (_, idx) in enumerate(walk.z[1:], start=1):
        seq.append(trip[(2 * step - 1, idx)])
        seq.append(trip[(2 * step, idx)])
    return seq


# ---------------------------------------------------------------------------
# export: the structural edges and {m, r, d}; the reader rebuilds the rest
# (DECISIONS.md, D2)


def sidecar_json(gg: GadgetGraph) -> str:
    """The sidecar text: m, r and d, from which the id layout and, with
    the structural degrees, the padding follow."""
    return json.dumps({"m": gg.m, "r": gg.r, "d": gg.d}, sort_keys=True,
                      separators=(",", ":"))


def _positive_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if type(value) is not int or value < 1:
        raise ValueError(
            f"sidecar field {key!r} must be a positive integer, got {value!r}"
        )
    return value


def _sidecar_params(text: str) -> tuple[int, int, int]:
    """m, r and d from sidecar text, which must hold exactly those three,
    with m a multiple of 4 as build_gadget requires and d = 6mr+3m.
    Raises ValueError naming the faulty field."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("sidecar must be a JSON object")
    extra = sorted(set(obj) - {"m", "r", "d"})
    if extra:
        raise ValueError(f"sidecar field {extra[0]!r} is not one of m, r, d")
    m, r, d = (_positive_int(obj, key) for key in ("m", "r", "d"))
    check_universe(m)
    if d != _width(m, r):
        raise ValueError(
            f"sidecar field 'd' must be 6mr+3m = {_width(m, r)}, got {d}")
    return m, r, d


def _structural(g: Graph, low: int) -> Graph:
    """g with only its edges among the ids below low, on the same vertices.

    Each row is sorted, so its part below low is a prefix, cut by one
    bisect; the rows from low on come out empty.
    """
    offsets = array("i", [0])
    nbrs = array(g.nbrs.typecode)
    for v in range(low):
        lo = g.offsets[v]
        nbrs += g.nbrs[lo:bisect_left(g.nbrs, low, lo, g.offsets[v + 1])]
        offsets.append(len(nbrs))
    offsets.extend(repeat(len(nbrs), g.n - low))
    return Graph.from_csr(offsets, nbrs)


def save_gadget(gg: GadgetGraph, path: str) -> None:
    """Write the structural edges at path and the sidecar at path.json.

    The graph file is the usual line format on all n vertices, holding
    only the edges with both ends below the aux ids; the padding is left
    to the reader, which rebuilds it as build_gadget does. So gg's
    padding must be aux_padding's, as in every gadget that build_gadget
    and load_gadget return.
    """
    save_graph(_structural(gg.graph, gg.graph.n - gg.d), path)
    with open(path + ".json", "w", encoding="ascii") as fh:
        fh.write(sidecar_json(gg) + "\n")


def _read_gadget(path: str) -> GadgetGraph:
    """Read a saved gadget without auditing it.

    The sidecar is read first, and the header's n is checked against
    the 2d+3 that m and r give before anything sized by them is built.
    The structural graph is then padded as build_gadget pads it.
    Raises ValueError naming the malformed field or line, an edge on an
    aux id (as in a file that lists the padding too) or a vertex above
    its target degree. For a caller that compares the result with a
    gadget it has already audited.
    """
    with open(path + ".json", "r", encoding="ascii") as fh:
        m, r, d = _sidecar_params(fh.read())
    n = 2 * d + 3
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        head = fh.readline().split()[:1]
        if head and head[0].isascii() and head[0].isdigit() and (
                int(head[0]) != n):
            raise ValueError(f"line 1: header claims {head[0]} vertices, "
                             f"m={m} and r={r} give {n}")
        fh.seek(0)
        s = _read_graph(fh)
    return _padded(m, r, s)


def load_gadget(path: str) -> GadgetGraph:
    """Read a saved gadget and audit it.

    Raises ValueError naming the malformed field or line, or the first
    failed check of verify_gadget, so a loaded gadget is safe to hand on.
    """
    return _audited(_read_gadget(path), ValueError)
