"""Streaming harness around a built gadget: split checks and pass simulation.

Every function takes a GadgetGraph the caller built or loaded, so one
gadget per instance is both audited and streamed. trace_invariants
peels it once, only until the audited prefix is removed and the
degeneracy is settled, confirms that the degeneracy lands on the side
of d-3 dictated by the instance's answer bit, and replays the peel to
confirm the structured prefix: the pointer-path triples go first, each
below the threshold, while the special and auxiliary degrees march down
in lockstep.

simulate_streaming_reduction then drives an arbitrary multi-pass
streaming algorithm through the four-player protocol. One walk of the
non-padding edges files each under the player who holds its
gadget.edge_family: C the input-independent families (triangles,
cross-pair joins, special wiring) and EC, D ED, A EA and B EB; the same
walk tallies the degree table. The padding edges are derived by the
last player from that table alone, so the only bits on the wire are
state snapshots at every handoff and the degree tables of pass one.
Each pass costs two cross-pair handoffs except the last, which ends
with the answer read where the state sits: p passes, 2p-1 phases.

The reference algorithms declare their state as fixed-width fields
(BitState.state_layout), and one shared codec turns those fields into
the snapshot bits and back.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import combinations, compress, count
from operator import sub
from typing import NamedTuple, Protocol

from .comm import CommLedger, ProtocolError, uint_width
from .gadget import (GadgetGraph, _edges_below, _target_degree, aux_padding,
                     edge_family, pointer_path_triples)
from .graphs import Graph, degeneracy, peel
from .hpc import MHPCInstance, chase


class StreamingAlgorithm(Protocol):
    """What the harness needs from a deterministic streaming algorithm.

    The state must round-trip through bit strings: restore_state after
    snapshot_state reproduces the exact behavior, because every party
    resumes the algorithm from the bits it received, never from shared
    memory. An algorithm can get both methods from BitState by listing
    its state fields in state_layout. end_pass reports whether the
    algorithm wants another pass; finalize(k) answers whether the
    streamed graph has degeneracy <= k.
    """

    def init(self, n: int) -> None: ...

    def begin_pass(self) -> None: ...

    def process_edge(self, u: int, v: int) -> None: ...

    def end_pass(self) -> bool: ...

    def finalize(self, k: int) -> bool: ...

    def snapshot_state(self) -> str: ...

    def restore_state(self, bits: str) -> None: ...


class TraceRecord(NamedTuple):
    ell: int
    ok: bool
    max_degree_at_removal: int


class SimulationResult(NamedTuple):
    bit: int
    phases: int
    max_state_bits: int
    ledger: CommLedger


@dataclass
class ReductionReport:
    """Everything the end-to-end check learned about one instance."""

    bit_true: int
    kappa: int
    d: int
    split_ok: bool
    trace: list[TraceRecord]


# ---------------------------------------------------------------------------
# split and invariant checks


def trace_invariants(gg: GadgetGraph, inst: MHPCInstance) -> ReductionReport:
    """Peel gg, check the split and audit the structured prefix.

    gg must fit inst. The split is ok when the degeneracy is <= d-3 for
    answer bit 1 and >= d-2 for bit 0. A broken invariant is recorded,
    never raised. Record ell is ok when the peel's iterations
    3*ell+1 .. 3*ell+3 removed exactly the pointer triple of layer ell
    at residual degree <= d-3, with every special vertex at degree
    d+6r-3*ell and every auxiliary vertex at degree >= d+6r+3-3*ell just
    beforehand.
    """
    gg.check_fits(inst)
    walk = chase(inst)
    triples = pointer_path_triples(gg, inst, walk)
    tr = peel(gg.graph, prefix=3 * len(triples))
    d, m, r = gg.d, gg.m, gg.r
    top = _target_degree(d, m, r)  # the specials are ids d..d+2
    floor = _target_degree(d + 3, m, r)  # aux ids from d+3: a lower bound
    resid = list(map(sub, gg.graph.offsets[1:], gg.graph.offsets))
    records = []
    for ell, z in enumerate(triples):
        got = tr.order[3 * ell:3 * ell + 3]
        worst = max(tr.degree_at_removal[3 * ell:3 * ell + 3])
        ok = (
            set(got) == set(z)
            and worst <= d - 3
            and resid[d:d + 3] == [top - 3 * ell] * 3
            and min(resid[d + 3:]) >= floor - 3 * ell
        )
        records.append(TraceRecord(ell, ok, worst))
        for v in got:
            for w in gg.graph.neighbors(v):
                resid[w] -= 1
    kappa = tr.degeneracy
    split_ok = kappa <= d - 3 if walk.bit == 1 else kappa >= d - 2
    return ReductionReport(walk.bit, kappa, d, split_ok, records)


# ---------------------------------------------------------------------------
# streaming simulation


# One pass as (player, recipient, crosses): C feeds first and B last, and
# B's snapshot carries the state back to the C/D pair for the next pass.
_RING = (("C", "D", False), ("D", "AB", True), ("A", "B", False),
         ("B", "CD", True))

# The player who streams each edge family.
_HOLDER = {"E1": "C", "E2": "C", "ES": "C", "EC": "C", "ED": "D", "EA": "A",
           "EB": "B"}


def simulate_streaming_reduction(gg: GadgetGraph, alg: StreamingAlgorithm,
                                 p: int) -> SimulationResult:
    """Drive alg through the four-player feed and read the answer bit.

    alg is used as a prototype: it is initialized once and each player
    works on an independent copy, so state can only travel as snapshot
    bits. Pass one also ships a degree table (n integers of width
    ceil(log2 n)) on each intra-pass handoff until the last player has
    derived the padding edges. Raises ProtocolError if alg asks for more
    than p passes.
    """
    if p < 1:
        raise ValueError(f"pass budget must be >= 1, got {p}")
    n, m, r = gg.graph.n, gg.m, gg.r
    table_bits = n * uint_width(n)
    feeds: dict[str, list[tuple[int, int]]] = {name: [] for name in "CDAB"}
    degrees = [0] * n
    for u, v in _edges_below(gg.graph, n - gg.d):
        feeds[_HOLDER[edge_family(u, v, m, r)]].append((u, v))
        degrees[u] += 1
        degrees[v] += 1
    padding = aux_padding(m, r, degrees)
    alg.init(n)
    minds = {name: copy.deepcopy(alg) for name in "CDAB"}
    ledger = CommLedger()
    phases = max_state = 0
    state = None
    for passes in count(1):
        for player, recipient, crosses in _RING:
            mind = minds[player]
            if state is not None:
                mind.restore_state(state)
            if player == "C":
                mind.begin_pass()
            process = mind.process_edge
            for u, v in feeds[player]:
                process(u, v)
            if player == "B":
                # padding is most of the edges: replay it, never store it
                for u, v in padding.edges():
                    process(u, v)
                if not mind.end_pass():
                    ledger.rounds = ledger.phases = phases
                    bit = int(mind.finalize(gg.d - 3))
                    return SimulationResult(bit, phases, max_state, ledger)
                if passes == p:
                    raise ProtocolError(f"algorithm wants pass {passes + 1}, "
                                        f"but the budget is {p}")
            state = mind.snapshot_state()
            max_state = max(max_state, len(state))
            # B has derived the padding by its handoff, so it sends no table
            table = table_bits if passes == 1 and player != "B" else 0
            ledger.record(player, recipient, len(state) + table, cross=crosses)
            phases += crosses


def full_report(gg: GadgetGraph, inst: MHPCInstance) -> ReductionReport:
    """Split check and invariant trace of one instance; gg must fit inst."""
    return trace_invariants(gg, inst)


# ---------------------------------------------------------------------------
# reference streaming algorithms


class BitState:
    """One snapshot codec for algorithms whose state is fixed-width fields.

    state_layout lists the fields in wire order as (attribute, width,
    count): count None for one unsigned integer of width bits, else a
    list of count such integers. A flag is a width-1 field; it may be
    set as a bool and is restored as 0 or 1. The snapshot is the
    fields' binary digits back to back.
    """

    def state_layout(self) -> list[tuple[str, int, int | None]]:
        raise NotImplementedError

    def _state_bits(self) -> int:
        return sum(width * (1 if k is None else k)
                   for _, width, k in self.state_layout())

    def snapshot_state(self) -> str:
        fields = []
        for attr, width, k in self.state_layout():
            fmt = f"0{width}b"
            value = getattr(self, attr)
            if k is None:
                fields.append(format(value, fmt))
            else:
                fields.extend(format(x, fmt) for x in value)
        bits = "".join(fields)
        # a value too wide for its field would shift every later field
        expected = self._state_bits()
        if len(bits) != expected:
            raise ValueError(f"snapshot is {len(bits)} bits, need {expected}")
        return bits

    def restore_state(self, bits: str) -> None:
        expected = self._state_bits()
        if len(bits) != expected:
            raise ValueError(f"snapshot is {len(bits)} bits, need {expected}")
        if not set(bits) <= {"0", "1"}:
            raise ValueError("snapshot holds a character other than 0 and 1")
        at = 0
        for attr, width, k in self.state_layout():
            if k is None:
                setattr(self, attr, int(bits[at:at + width], 2))
                at += width
            else:
                setattr(self, attr, [int(bits[i:i + width], 2)
                                     for i in range(at, at + k * width, width)])
                at += k * width


class StoreAllDecider(BitState):
    """Remembers the whole graph in one pass; answers by exact peeling.

    The state is the upper-triangular adjacency bitmap in the row order
    of combinations(range(n), 2), so the snapshot is always n(n-1)/2
    bits regardless of how much has arrived.
    """

    def init(self, n: int) -> None:
        self.n = n
        # bitmap index of pair (u, v), u < v, is row[u] + v
        self.row = [u * (2 * n - u - 1) // 2 - u - 1 for u in range(n)]
        self.adj = [False] * (n * (n - 1) // 2)

    def state_layout(self) -> list[tuple[str, int, int | None]]:
        return [("adj", 1, len(self.adj))]

    def begin_pass(self) -> None:
        pass

    def process_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        self.adj[self.row[u] + v] = True

    def end_pass(self) -> bool:
        return False

    def finalize(self, k: int) -> bool:
        pairs = compress(combinations(range(self.n), 2), self.adj)
        return degeneracy(Graph(self.n, pairs)) <= k


class NaivePeeler(BitState):
    """One min-degree removal per pass, recomputing residual degrees.

    Each pass streams the surviving graph to rebuild exact degrees, then
    retires the minimum (smallest id on ties) and folds its degree into
    the running maximum, which after the final pass is the degeneracy.
    State is the in-pass flag, the removed bitmap, the running maximum,
    and the in-pass degree counters: 1 + n + w + n*w bits for
    w = uint_width(n).
    """

    def init(self, n: int) -> None:
        self.n = n
        self.width = uint_width(n)
        self.removed = [False] * n
        self.kappa = 0
        self.in_pass = False
        self.deg = [0] * n

    def state_layout(self) -> list[tuple[str, int, int | None]]:
        n, w = self.n, self.width
        return [("in_pass", 1, None), ("removed", 1, n), ("kappa", w, None),
                ("deg", w, n)]

    def begin_pass(self) -> None:
        self.in_pass = True
        self.deg = [0] * self.n

    def process_edge(self, u: int, v: int) -> None:
        if not (self.removed[u] or self.removed[v]):
            self.deg[u] += 1
            self.deg[v] += 1

    def end_pass(self) -> bool:
        self.in_pass = False
        victim = min(
            (v for v in range(self.n) if not self.removed[v]),
            key=lambda v: (self.deg[v], v),
        )
        self.kappa = max(self.kappa, self.deg[victim])
        self.removed[victim] = True
        return not all(self.removed)

    def finalize(self, k: int) -> bool:
        return self.kappa <= k
