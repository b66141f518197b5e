"""Deterministic message-passing simulation with exact bit accounting.

Two runners live here: a two-party one (Alice/Bob) used by the degeneracy
protocols, and a four-party one (A/B vs C/D pairs with a round schedule)
used by the pointer-chasing protocols. Parties are written as generators
that yield action tuples:

    ("send", field)            two-party: send to the peer
    ("send", dest, field)      four-party: intra-pair message
    ("broadcast", field)       four-party: cross-pair message, ends a round
    ("recv",)                  wait for the next message (resumed with it)
    ("output", value)          final answer; generator should then return

Bit lengths are fixed by the encoding rules below, not by guesswork:
integers in [0, M) cost max(1, ceil(log2 M)) bits, lists carry a
length prefix, sets over a known universe go as characteristic vectors.
All payloads stay structured python values; only the declared widths are
charged to the ledger.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Generator, Iterable

from .graphs import Graph


class ProtocolError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# encoding rules


def uint_width(bound: int) -> int:
    """Bits needed for an integer in [0, bound); width 1 when bound <= 2."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    return max(1, (bound - 1).bit_length())


@dataclass(frozen=True)
class Field:
    """A wire value together with its exact encoded bit length."""

    value: object
    bits: int


def uint(value: int, bound: int) -> Field:
    if not 0 <= value < bound:
        raise ValueError(f"{value} out of [0, {bound})")
    return Field(value, uint_width(bound))


def vertex_id(v: int, n: int) -> Field:
    return uint(v, n)


def flag(b: bool) -> Field:
    return Field(bool(b), 1)


def charvec(members: Iterable[int], universe: int) -> Field:
    """Subset of [0, universe) as a characteristic vector: universe bits."""
    ms = frozenset(members)
    for e in ms:
        if not 0 <= e < universe:
            raise ValueError(f"element {e} outside universe {universe}")
    return Field(ms, universe)


def vec(*parts: Field) -> Field:
    """Fixed-shape concatenation; the receiver knows the layout."""
    return Field(tuple(p.value for p in parts), sum(p.bits for p in parts))


def lp_list(items: list[Field], max_len: int) -> Field:
    """Length-prefixed list: a count in [0, max_len] then the items."""
    if len(items) > max_len:
        raise ValueError(f"list of {len(items)} exceeds max {max_len}")
    prefix = uint_width(max_len + 1)
    return Field(tuple(i.value for i in items), prefix + sum(i.bits for i in items))


def nothing() -> Field:
    """Zero-bit handshake, e.g. an idle round's broadcast."""
    return Field(None, 0)


# ---------------------------------------------------------------------------
# ledger


@dataclass
class CommLedger:
    bits_total: int = 0
    per_message: list[tuple[str, str, int]] = dc_field(default_factory=list)
    per_phase: list[int] = dc_field(default_factory=list)
    rounds: int = 0
    phases: int = 0
    intra_bits: int = 0
    cross_bits: int = 0

    def record(self, sender: str, receiver: str, bits: int, cross: bool = False) -> None:
        self.per_message.append((sender, receiver, bits))
        self.bits_total += bits
        if cross:
            self.cross_bits += bits
        else:
            self.intra_bits += bits
        if self.per_phase:
            self.per_phase[-1] += bits

    def new_phase(self) -> None:
        self.phases += 1
        self.per_phase.append(0)

    def merge(self, other: "CommLedger") -> None:
        self.per_message.extend(other.per_message)
        self.bits_total += other.bits_total
        self.per_phase.extend(other.per_phase)
        self.rounds += other.rounds
        self.phases += other.phases
        self.intra_bits += other.intra_bits
        self.cross_bits += other.cross_bits

    def to_json_obj(self) -> dict:
        return {
            "bits_total": self.bits_total,
            "rounds": self.rounds,
            "phases": self.phases,
            "messages": [
                {"from": s, "to": t, "bits": b} for s, t, b in self.per_message
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# graph input partition for the two-party protocols


class EdgePartition:
    """A graph whose edge set is split between Alice and Bob."""

    def __init__(self, base: Graph, edges_a: Iterable[tuple[int, int]],
                 edges_b: Iterable[tuple[int, int]]):
        norm = lambda es: {(min(u, v), max(u, v)) for u, v in es}
        ea, eb = norm(edges_a), norm(edges_b)
        all_edges = set(base.edges())
        if ea & eb:
            raise ValueError("edge parts overlap")
        if ea | eb != all_edges:
            raise ValueError("edge parts do not cover the base graph")
        self.base = base
        self.edges_a = ea
        self.edges_b = eb
        self.adj_a = _side_adjacency(base.n, ea)
        self.adj_b = _side_adjacency(base.n, eb)

    @property
    def n(self) -> int:
        return self.base.n


def _side_adjacency(n: int, edges: set[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_partition(g: Graph, rng) -> EdgePartition:
    ea, eb = [], []
    for e in g.edges():
        (ea if rng.random() < 0.5 else eb).append(e)
    return EdgePartition(g, ea, eb)


# ---------------------------------------------------------------------------
# two-party runner

Party = Generator  # yields the action tuples documented at module top


def run_two_party(alice: Party, bob: Party) -> tuple[object, CommLedger]:
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


# ---------------------------------------------------------------------------
# four-party runner


@dataclass(frozen=True)
class RoundSchedule:
    """Which pair speaks when. starter speaks in odd rounds (1-based)."""

    r: int
    starter: str = "AB"

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("round count must be >= 1")
        if self.starter not in ("AB", "CD"):
            raise ValueError("starter must be 'AB' or 'CD'")

    def speaking_pair(self, round_no: int) -> str:
        other = "CD" if self.starter == "AB" else "AB"
        return self.starter if round_no % 2 == 1 else other


_PAIR_OF = {"A": "AB", "B": "AB", "C": "CD", "D": "CD"}
_PARTNER = {"A": "B", "B": "A", "C": "D", "D": "C"}


def run_four_party(schedule: RoundSchedule,
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
