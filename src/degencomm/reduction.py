"""Streaming harness around a built gadget: split checks and pass simulation.

Every function takes a GadgetGraph the caller built or loaded, so one
gadget per instance is both audited and streamed. verify_split confirms
that its degeneracy lands on the side of d-3 dictated by the instance's
answer bit, and trace_invariants replays the min-degree peel to confirm
the structured prefix: the pointer-path triples go first, each below
the threshold, while the special and auxiliary degrees march down in
lockstep.

simulate_streaming_reduction then drives an arbitrary multi-pass
streaming algorithm through the four-player protocol. The edge set
splits into input-independent families (triangles, cross-pair joins,
special wiring) plus one encoding family per player, and the padding
edges are derived by the last player from a degree table alone, so the
only bits on the wire are state snapshots at every handoff and the
degree tables of pass one. Each pass costs two cross-pair handoffs
except the last, which ends with the answer read where the state sits:
p passes, 2p-1 phases.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from .comm import CommLedger, ProtocolError, uint_width
from .gadget import (
    AuxPadding,
    GadgetGraph,
    _edges_below,
    aux_padding,
    pointer_path_triples,
)
from .graphs import Graph, degeneracy, peel
from .hpc import MHPCInstance, chase


class StreamingAlgorithm(Protocol):
    """What the harness needs from a deterministic streaming algorithm.

    The state must round-trip through bit strings: restore_state after
    snapshot_state reproduces the exact behavior, because every party
    resumes the algorithm from the bits it received, never from shared
    memory. end_pass reports whether the algorithm wants another pass;
    finalize(k) answers whether the streamed graph has degeneracy <= k.
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
    trace: list[TraceRecord] | None = None
    phases: int | None = None
    max_state_bits: int | None = None
    bits_total: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "bit_true": self.bit_true,
            "kappa": self.kappa,
            "d": self.d,
            "split_ok": self.split_ok,
            "trace": None if self.trace is None else [
                {"ell": t.ell, "ok": t.ok,
                 "max_degree_at_removal": t.max_degree_at_removal}
                for t in self.trace
            ],
            "phases": self.phases,
            "max_state_bits": self.max_state_bits,
            "bits_total": self.bits_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))


# ---------------------------------------------------------------------------
# edge families


FAMILY_NAMES = ("E1", "E2", "ES", "EA", "EB", "EC", "ED")

_ENCODING_FAMILY = {(0, 1): "EA", (0, 2): "EB", (2, 1): "EC", (2, 2): "ED"}


def partition_edges(gg: GadgetGraph) -> dict[str, list[tuple[int, int]]]:
    """Split the gadget's non-padding edges into the construction's families.

    E1 holds the triple triangles, E2 the 3x3 joins between replaying
    layers, ES everything on the special vertices, and EA..ED the encoding
    edges keyed by source layer (mod 4) and carrying copy. The rows are
    walked in id order, so each family comes back sorted and the feed
    order is fixed. The padding edges are not listed: the auxiliary ids
    are the last ones, so only the rows below them are walked, and the
    player who feeds the padding derives it from degrees (``aux_padding``).
    """
    parts: dict[str, list[tuple[int, int]]] = {f: [] for f in FAMILY_NAMES}
    labels = gg.labels
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
                parts[_ENCODING_FAMILY[(eu % 4, cu)]].append((u, v))
    return parts


# ---------------------------------------------------------------------------
# split and invariant checks


def _split_report(gg: GadgetGraph, bit: int, kappa: int) -> ReductionReport:
    ok = kappa <= gg.d - 3 if bit == 1 else kappa >= gg.d - 2
    return ReductionReport(bit_true=bit, kappa=kappa, d=gg.d, split_ok=ok)


def verify_split(gg: GadgetGraph, inst: MHPCInstance) -> ReductionReport:
    """Check which side of d-3 the degeneracy took; gg must fit inst."""
    gg.check_fits(inst)
    return _split_report(gg, chase(inst).bit, degeneracy(gg.graph))


def trace_invariants(gg: GadgetGraph, inst: MHPCInstance) -> ReductionReport:
    """Peel gg and audit the structured prefix; gg must fit inst.

    A broken invariant is recorded, never raised. Record ell is ok when
    the peel's iterations 3*ell+1 .. 3*ell+3 removed exactly the pointer
    triple of layer ell at residual degree <= d-3, with every special
    vertex at degree d+6r-3*ell and every auxiliary vertex at degree
    >= d+6r+3-3*ell just beforehand.
    """
    gg.check_fits(inst)
    walk = chase(inst)
    tr = peel(gg.graph)
    report = _split_report(gg, walk.bit, tr.degeneracy)
    d, r = gg.d, gg.r
    resid = [gg.graph.degree(v) for v in range(gg.graph.n)]
    records = []
    for ell, z in enumerate(pointer_path_triples(gg, inst, walk)):
        got = tr.order[3 * ell:3 * ell + 3]
        worst = max(tr.degree_at_removal[3 * ell:3 * ell + 3])
        ok = (
            set(got) == set(z)
            and worst <= d - 3
            and all(resid[s] == d + 6 * r - 3 * ell for s in gg.special_ids)
            and all(resid[u] >= d + 6 * r + 3 - 3 * ell for u in gg.aux_ids)
        )
        records.append(TraceRecord(ell, ok, worst))
        for v in got:
            for w in gg.graph.neighbors(v):
                resid[w] -= 1
    report.trace = records
    return report


# ---------------------------------------------------------------------------
# streaming simulation


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
    parts = partition_edges(gg)
    n = gg.graph.n
    table_bits = n * uint_width(n)
    feeds = {
        "C": parts["E1"] + parts["E2"] + parts["ES"] + parts["EC"],
        "D": parts["ED"],
        "A": parts["EA"],
        "B": parts["EB"],
    }
    alg.init(n)
    minds: dict[str, StreamingAlgorithm] = {
        name: copy.deepcopy(alg) for name in "CDAB"
    }
    ledger = CommLedger()
    phases = 0
    max_state = 0
    degrees = [0] * n
    padding: AuxPadding | None = None
    carry: str | None = None
    passes = 0

    def feed(name: str) -> None:
        mind = minds[name]
        for u, v in feeds[name]:
            mind.process_edge(u, v)
            if padding is None:
                degrees[u] += 1
                degrees[v] += 1

    def handoff(src: str, dst: str, cross: bool, with_table: bool) -> str:
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


def full_report(gg: GadgetGraph, inst: MHPCInstance,
                alg: StreamingAlgorithm | None = None,
                p: int | None = None) -> ReductionReport:
    """Split check, invariant trace, and (optionally) a simulation run."""
    report = trace_invariants(gg, inst)
    if alg is not None:
        if p is None:
            raise ValueError("a pass budget is required to run an algorithm")
        sim = simulate_streaming_reduction(gg, alg, p)
        report.phases = sim.phases
        report.max_state_bits = sim.max_state_bits
        report.bits_total = sim.ledger.bits_total
    return report


# ---------------------------------------------------------------------------
# reference streaming algorithms


def _tri_index(u: int, v: int, n: int) -> int:
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class StoreAllDecider:
    """Remembers the whole graph in one pass; answers by exact peeling.

    The snapshot is the upper-triangular adjacency bitmap, so its size
    is always n(n-1)/2 bits regardless of how much has arrived.
    """

    def init(self, n: int) -> None:
        self.n = n
        self.present: set[tuple[int, int]] = set()

    def begin_pass(self) -> None:
        pass

    def process_edge(self, u: int, v: int) -> None:
        self.present.add((min(u, v), max(u, v)))

    def end_pass(self) -> bool:
        return False

    def finalize(self, k: int) -> bool:
        return degeneracy(Graph(self.n, sorted(self.present))) <= k

    def snapshot_state(self) -> str:
        bits = ["0"] * (self.n * (self.n - 1) // 2)
        for u, v in self.present:
            bits[_tri_index(u, v, self.n)] = "1"
        return "".join(bits)

    def restore_state(self, bits: str) -> None:
        expected = self.n * (self.n - 1) // 2
        if len(bits) != expected:
            raise ValueError(f"snapshot is {len(bits)} bits, need {expected}")
        self.present = {
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if bits[_tri_index(u, v, self.n)] == "1"
        }


class NaivePeeler:
    """One min-degree removal per pass, recomputing residual degrees.

    Each pass streams the surviving graph to rebuild exact degrees, then
    retires the minimum (smallest id on ties) and folds its degree into
    the running maximum, which after the final pass is the degeneracy.
    State is the removed bitmap, the running maximum, and the in-pass
    degree counters: O(n log n) bits.
    """

    def init(self, n: int) -> None:
        self.n = n
        self.width = uint_width(n)
        self.removed = [False] * n
        self.kappa = 0
        self.in_pass = False
        self.deg = [0] * n

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

    def snapshot_state(self) -> str:
        w = self.width
        return (
            ("1" if self.in_pass else "0")
            + "".join("1" if r else "0" for r in self.removed)
            + format(self.kappa, f"0{w}b")
            + "".join(format(x, f"0{w}b") for x in self.deg)
        )

    def restore_state(self, bits: str) -> None:
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
