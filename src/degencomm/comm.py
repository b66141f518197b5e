"""Deterministic message-passing simulation with exact bit accounting.

One runner loop drives every protocol here; two routing policies sit on
top of it. The two-party policy (Alice/Bob) serves the degeneracy
protocols, and the four-party policy (A/B vs C/D pairs with a round
schedule) serves the pointer-chasing protocols. The loop owns the
generators, inboxes, outputs and deadlock check; a policy only decides
whether an action is allowed, what it costs and who receives it.
Parties are written as generators that yield action tuples:

    ("send", field)            two-party: send to the peer
    ("send", dest, field)      four-party: intra-pair message
    ("sends", dest, fields)    four-party: a batch of intra-pair messages,
                               delivered as one inbox item (the tuple of
                               the fields' values) and charged as one
                               ledger message per field, in order
    ("broadcast", field)       four-party: cross-pair message, ends a round
    ("recv",)                  wait for the next message (resumed with it)
    ("output", value)          final answer; generator should then return
    ("repeat", count, step)    two-party: count copies of step, a tuple of
                               (sender, field) messages whose content both
                               parties already know; both yield the same
                               repeat, and the runner charges every copy
                               in one step

Bit lengths are fixed by the encoding rules below, not by guesswork:
integers in [0, M) cost max(1, ceil(log2 M)) bits, lists carry a
length prefix, sets over a known universe go as characteristic vectors
(an int bitmask, bit e set iff e is a member). All payloads stay
structured python values; only the declared widths are charged to the
ledger. Lists of integers and of integer pairs are
encoded in bulk (``uints`` and ``uint_pairs`` at a fixed length,
``lp_uints`` and ``lp_pairs`` with a length prefix): one tuple and one
min/max range test per message, not one ``Field`` per entry.

An ``EdgePartition`` is the base graph plus one side code per base edge
(0 Alice, 1 Bob). One pass over the base graph's upper rows builds both
sides' neighbour lists, disjoint, covering and sorted by construction,
so a party walks a row in id order without sorting it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field as dc_field
from itertools import compress
from operator import sub
from typing import Callable, Generator, Iterable, NamedTuple

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


class Field(NamedTuple):
    """A wire value together with its exact encoded bit length."""

    value: object
    bits: int


def uint(value: int, bound: int) -> Field:
    if not 0 <= value < bound:
        raise ValueError(f"{value} out of [0, {bound})")
    return Field(value, uint_width(bound))


def uints(values: Iterable[int], bound: int) -> Field:
    """Fixed-length vector of integers in [0, bound), each at uint's width.

    The same value and bits as ``vec`` over one ``uint`` per entry, and the
    same ``ValueError`` for the first entry out of range; an empty vector
    costs 0 bits whatever the bound.
    """
    vs = tuple(values)
    return Field(vs, _entry_bits(vs, bound))


def uint_pairs(pairs: Iterable[tuple[int, int]], bound: int) -> Field:
    """Fixed-length vector of ``(a, b)`` tuples with a and b in [0, bound).

    The same value and bits as ``vec`` over one ``vec(uint(a, bound),
    uint(b, bound))`` per pair, and the same ``ValueError`` for the first
    entry out of range, checked in the order a, b of each pair in turn.
    """
    ps = tuple(pairs)
    return Field(ps, _entry_bits([x for p in ps for x in p], bound))


def flag(b: bool) -> Field:
    return Field(bool(b), 1)


def charvec(mask: int, universe: int) -> Field:
    """Subset of [0, universe) as its characteristic vector: universe bits.

    The subset is given as that vector already, an int bitmask with bit e
    set iff e is a member, and goes on the wire as it is.
    """
    if not 0 <= mask < 1 << universe:
        raise ValueError(f"mask {mask:#x} leaves universe {universe}")
    return Field(mask, universe)


def charvecs(masks: Iterable[int], universe: int) -> tuple[Field, ...]:
    """One ``charvec`` per mask, for a batch: one range test over their OR.

    The same fields as ``charvec`` mask by mask; only when some mask is
    out of range does it run ``charvec`` mask by mask, so the first bad
    mask raises the same ``ValueError``.
    """
    ms = tuple(masks)
    union = 0
    for mask in ms:
        union |= mask
    if not 0 <= union < 1 << universe:
        return tuple(charvec(mask, universe) for mask in ms)
    return tuple(Field(mask, universe) for mask in ms)


def vec(*parts: Field) -> Field:
    """Fixed-shape concatenation; the receiver knows the layout."""
    return Field(tuple(p.value for p in parts), sum(p.bits for p in parts))


def lp_uints(values: Iterable[int], bound: int, max_len: int) -> Field:
    """Length-prefixed list of integers in [0, bound).

    A count in [0, max_len] at ``uint_width(max_len + 1)`` bits, then each
    entry at uint's width, so an empty list costs only the count. Raises
    uint's ``ValueError`` for the first entry out of range, and only then
    one for a list longer than ``max_len``.
    """
    return _length_prefixed(uints(values, bound), max_len)


def lp_pairs(pairs: Iterable[tuple[int, int]], bound: int,
             max_len: int) -> Field:
    """Length-prefixed list of ``(a, b)`` tuples with a and b in [0, bound).

    The count of ``lp_uints``, then the pairs as ``uint_pairs`` encodes
    them, with the same order of errors.
    """
    return _length_prefixed(uint_pairs(pairs, bound), max_len)


def _entry_bits(entries, bound: int) -> int:
    """uint's width per entry; a min/max test finds any entry out of range,
    then uint raises for the first one."""
    if not entries:
        return 0
    if min(entries) < 0 or max(entries) >= bound:
        for x in entries:
            uint(x, bound)
    return len(entries) * uint_width(bound)


def _length_prefixed(items: Field, max_len: int) -> Field:
    """items with a count in [0, max_len] in front."""
    if len(items.value) > max_len:
        raise ValueError(f"list of {len(items.value)} exceeds max {max_len}")
    return Field(items.value, uint_width(max_len + 1) + items.bits)


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

    def repeat(self, messages: list[tuple[str, str, int]], count: int) -> None:
        """``count`` copies of intra-pair ``messages``, recorded in one go."""
        self.per_message.extend(messages * count)
        bits = count * sum(b for _, _, b in messages)
        self.bits_total += bits
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
    """A graph whose edge set is split between Alice and Bob.

    ``side`` holds one code per edge of ``base``, in ``base.edges()``
    order: 0 gives the edge to Alice, 1 to Bob. ``adj_a[v]`` and
    ``adj_b[v]`` list v's neighbours over Alice's and Bob's edges, in
    ascending order. A wrong number of codes, or a code above 1, raises
    ValueError.
    """

    def __init__(self, base: Graph, side: bytes):
        if len(side) != base.m:
            raise ValueError(f"{len(side)} side codes for {base.m} edges")
        if side and max(side) > 1:
            raise ValueError(f"side code {max(side)} is neither 0 nor 1")
        self.base = base
        self.adj_a = adj_a = [[] for _ in range(base.n)]
        self.adj_b = adj_b = [[] for _ in range(base.n)]
        # v's row gets its lower neighbours (in the rows before v's) and
        # then its upper ones, so every row comes out ascending; a vertex
        # without edges has no row to walk
        off = base.offsets
        codes = iter(side)
        for u in compress(range(base.n), map(sub, off[1:], off)):
            for v, c in zip(base.upper(u), codes):
                rows = adj_b if c else adj_a
                rows[u].append(v)
                rows[v].append(u)

    @property
    def n(self) -> int:
        return self.base.n


def random_partition(g: Graph, rng) -> EdgePartition:
    """Each edge goes to Alice when its ``rng.random()`` is below 1/2."""
    return EdgePartition(g, bytes(rng.random() >= 0.5 for _ in range(g.m)))


# ---------------------------------------------------------------------------
# runners: one generator loop, two routing policies

Party = Generator  # yields the action tuples documented at module top
Route = Callable[[str, tuple, CommLedger], Iterable[str]]
_PARTNER = {"A": "B", "B": "A", "C": "D", "D": "C"}
_OTHERS = {p: tuple("ABCD".replace(p, "")) for p in "ABCD"}


def _drive(parties: dict[str, Party], route: Route) -> tuple[object, CommLedger]:
    """Drive party generators round-robin until all have output.

    Each sweep gives every party one action: a recv takes the head of its
    inbox or waits, an output is stored, and anything else goes to
    ``route(party, action, ledger)``, which checks it, charges the ledger
    and returns the recipients of its payload: the field's value, or for
    a batch the tuple of its fields' values. A sweep in which no party
    acts is a deadlock. Outputs must agree. The sweep order fixes the
    ledger's message order only when two parties have a send ready at
    once, which no protocol in this package does.
    """
    ledger = CommLedger()
    # one slot per party: [name, generator, pending action, inbox]; a
    # party that has returned keeps None as its action
    slots = [[p, gen, None, deque()] for p, gen in parties.items()]
    inbox = {slot[0]: slot[3] for slot in slots}
    outputs: dict[str, object] = {}
    for slot in slots:
        try:
            slot[2] = next(slot[1])
        except StopIteration:
            raise ProtocolError(f"party {slot[0]} stopped without output")

    while len(outputs) < len(slots):
        progressed = False
        for slot in slots:
            p, gen, act, box = slot
            if act is None:
                continue
            value = None
            kind = act[0]
            if kind == "recv":
                if not box:
                    continue
                value = box.popleft()
            elif kind == "output":
                outputs[p] = act[1]
            elif kind == "sends":
                for q in route(p, act, ledger):
                    inbox[q].append(tuple(f.value for f in act[2]))
            else:
                for q in route(p, act, ledger):
                    inbox[q].append(act[-1].value)
            try:
                slot[2] = gen.send(value)
            except StopIteration:
                if p not in outputs:
                    raise ProtocolError(f"party {p} stopped without output")
                slot[2] = None
            progressed = True
        if not progressed:
            raise ProtocolError("deadlock: no party can make progress")

    first, *rest = outputs.values()
    if any(v != first for v in rest):
        raise ProtocolError(f"output disagreement: {outputs!r}")
    return first, ledger


def run_two_party(alice: Party, bob: Party) -> tuple[object, CommLedger]:
    """Drive Alice ("A") and Bob ("B") to joint output.

    A send goes to the peer; a round is a maximal block of messages from
    one sender. A repeat stands for messages both parties already know:
    the first one yielded waits until the other party yields the same
    one, which charges its copies as if each had been sent. A repeat that
    differs from the waiting one or is never matched, or any other action
    while one waits, raises ProtocolError.
    """
    waiting: list[tuple[str, tuple]] = []  # (party, its unmatched repeat)

    def route(p: str, act: tuple, ledger: CommLedger) -> tuple[str, ...]:
        kind = act[0]
        if waiting:
            q, first = waiting.pop()
            if kind != "repeat" or q == p:
                raise ProtocolError(
                    f"{p} yielded {kind!r} while {q}'s repeat waits for its match")
            if act[1] != first[1]:
                raise ProtocolError(
                    f"repeat mismatch: {q} repeats {first[1]} times, {p} {act[1]}")
            if act[2] != first[2]:
                raise ProtocolError(f"repeat mismatch: {q} and {p} repeat different steps")
            _charge_repeat(ledger, act[1], act[2])
            return ()
        if kind == "repeat":
            waiting.append((p, act))
            return ()
        if kind != "send":
            raise ProtocolError(f"unknown action {kind!r}")
        peer = _PARTNER[p]
        if not ledger.per_message or ledger.per_message[-1][0] != p:
            ledger.rounds += 1
        ledger.record(p, peer, act[1].bits)
        return (peer,)

    result = _drive({"A": alice, "B": bob}, route)
    if waiting:
        raise ProtocolError(f"{waiting[0][0]}'s repeat was never matched")
    return result


def _charge_repeat(ledger: CommLedger, count: int, step: tuple) -> None:
    """Charge ``count`` copies of ``step``'s (sender, field) messages, with
    a round for each change of sender: at the start, inside one step and
    between steps."""
    if count < 0:
        raise ProtocolError(f"repeat count {count} is negative")
    messages = []
    for sender, fld in step:
        if sender not in ("A", "B"):
            raise ProtocolError(f"repeat sender {sender!r} is neither 'A' nor 'B'")
        messages.append((sender, _PARTNER[sender], fld.bits))
    if not (count and messages):
        return
    senders = [s for s, _, _ in messages]
    inside = sum(a != b for a, b in zip(senders, senders[1:]))
    start = not ledger.per_message or ledger.per_message[-1][0] != senders[0]
    between = senders[-1] != senders[0]
    ledger.rounds += start + count * inside + (count - 1) * between
    ledger.repeat(messages, count)


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


def run_four_party(schedule: RoundSchedule,
                   parties: dict[str, Party]) -> tuple[object, CommLedger]:
    """Drive four party generators under a pair-speaking schedule.

    Within a round only the speaking pair may send; an intra-pair send,
    or a batch of them, goes to the partner and the round ends with
    exactly one broadcast, which the other three parties receive.
    Outputs of all four must agree. The protocol may finish mid-round
    once every party has output.
    """
    if set(parties) != set("ABCD"):
        raise ValueError("need exactly parties A, B, C, D")

    def route(p: str, act: tuple, ledger: CommLedger) -> tuple[str, ...]:
        round_no = ledger.rounds + 1  # each finished round is one broadcast
        if round_no > schedule.r:
            raise ProtocolError(f"{p} tried to speak after the final round")
        kind = act[0]
        if kind not in ("send", "sends", "broadcast"):
            raise ProtocolError(f"unknown action {kind!r}")
        speaking = schedule.speaking_pair(round_no)
        if p not in speaking:
            verb = "broadcast" if kind == "broadcast" else "sent"
            raise ProtocolError(f"{p} {verb} in round {round_no} but {speaking} speaks")
        if kind != "broadcast":
            if act[1] != _PARTNER[p]:
                raise ProtocolError(
                    f"intra-pair send from {p} must target {_PARTNER[p]}"
                )
            if kind == "send":
                ledger.record(p, act[1], act[2].bits)
            else:
                ledger.repeat([(p, act[1], f.bits) for f in act[2]], 1)
            return (act[1],)
        ledger.record(p, "CD" if speaking == "AB" else "AB", act[1].bits, cross=True)
        ledger.rounds += 1
        return _OTHERS[p]

    return _drive({p: parties[p] for p in "ABCD"}, route)
