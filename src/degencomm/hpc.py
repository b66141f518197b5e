"""Pointer chasing over hidden set intersections.

The instance model: two universes of size m (an x side and a y side).
For each layer j and each x-coordinate, players A and B hold sets over the
y universe that intersect in exactly one element; for each y-coordinate,
players C and D hold sets over the x universe with the same promise. The
pointer walk starts at x_0 and alternates sides, resolving one hidden
intersection per step; the answer bit is the parity of the final pointer
under 1-based indexing, so bit = (index + 1) % 2 with 0-based storage.

Each set of an instance is one int bitmask over its universe: bit e is
set iff e is a member, so a pair's intersection is one ``&`` and a set
goes on the wire as its own characteristic vector. The set-intersection
inputs (``SetIntInstance``) stay frozensets; ``to_mask`` and
``mask_members`` convert between the two forms.

Layers are stored even where they cannot affect the walk (the y-side
families on odd steps and x-side families on even steps stay unused);
samplers fill them anyway so every instance is uniform to validate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator

from .comm import (
    _PARTNER,
    CommLedger,
    RoundSchedule,
    charvec,
    charvecs,
    flag,
    nothing,
    run_four_party,
    uint,
    uint_pairs,
    vec,
)


# Returned by the misaligned protocol when the walk cannot finish; test
# with ``out is ABSTAIN``.
ABSTAIN = object()


# ---------------------------------------------------------------------------
# instances


def to_mask(members: Iterable[int]) -> int:
    """The bitmask of a set of non-negative ints: bit e set iff e is a member."""
    mask = 0
    for e in members:
        mask |= 1 << e
    return mask


def mask_members(mask: int) -> Iterator[int]:
    """The members of a non-negative bitmask, in ascending order."""
    if mask < 0:
        # a negative int has infinitely many bits set
        raise ValueError(f"negative mask {mask} has no member list")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SetIntInstance:
    m: int
    X: frozenset[int]
    Y: frozenset[int]

    @property
    def e_star(self) -> int:
        return _meet(to_mask(self.X), to_mask(self.Y), "pair X/Y")


def validate_setint(si: SetIntInstance) -> None:
    for side, s in (("first", si.X), ("second", si.Y)):
        if any(not 0 <= e < si.m for e in s):
            raise ValueError(f"{side} set leaves the universe [{si.m})")
    _meet(to_mask(si.X), to_mask(si.Y), "pair X/Y")


@dataclass
class MHPCInstance:
    """r layers of hidden-pointer data over two size-m universes.

    A[j][x] and B[j][x] are y-side sets; C[j][y] and D[j][y] are x-side
    sets. Each set is an int bitmask over [0, m): bit e is set iff e is
    a member. All indices 0-based, layer-major.
    """

    m: int
    r: int
    A: list[list[int]]
    B: list[list[int]]
    C: list[list[int]]
    D: list[list[int]]

    def is_bhpc(self) -> bool:
        return all(
            fam[j] == fam[0]
            for fam in (self.A, self.B, self.C, self.D)
            for j in range(self.r)
        )


def validate_instance(inst: MHPCInstance) -> None:
    """Check the shape, that every set stays inside [0, m), and every promise."""
    if inst.m < 1 or inst.r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    for fam, name in ((inst.A, "A"), (inst.B, "B"), (inst.C, "C"), (inst.D, "D")):
        if len(fam) != inst.r or any(len(layer) != inst.m for layer in fam):
            raise ValueError(f"family {name} is not r x m")
    for j in range(inst.r):
        for x in range(inst.m):
            _pair_target(inst, j, "x", x)
        for y in range(inst.m):
            _pair_target(inst, j, "y", y)


def _pair_target(inst: MHPCInstance, j: int, side: str, i: int) -> int:
    """Resolve one promised intersection; complain naming the pair."""
    if side == "x":
        first, second, names = inst.A[j][i], inst.B[j][i], ("A", "B")
    else:
        first, second, names = inst.C[j][i], inst.D[j][i], ("C", "D")
    full = 1 << inst.m
    for name, s in zip(names, (first, second)):
        if not 0 <= s < full:
            raise ValueError(f"set {name}[{j}][{i}] leaves the universe [{inst.m})")
    return _meet(first, second,
                 f"layer {j} pair {names[0]}[{j}][{i}]/{names[1]}[{j}][{i}]")


def _meet(first: int, second: int, where: str) -> int:
    """The one member of masks first & second; ValueError naming where otherwise."""
    inter = first & second
    if not inter or inter & (inter - 1):
        raise ValueError(
            f"{where} intersects in {inter.bit_count()} elements, need exactly 1"
        )
    return inter.bit_length() - 1


# ---------------------------------------------------------------------------
# samplers


def check_universe(m: int) -> None:
    """Raise ValueError unless the universe size m is a positive multiple of 4."""
    if m < 4 or m % 4:
        raise ValueError(f"universe size must be a positive multiple of 4, got {m}")


def setint_draw(m: int, rng: Random) -> list[int]:
    """The ordered draw s of m/2 - 1 distinct elements of range(m).

    With q = m/4, X = s[:q] and Y = s[q-1:] is one hard instance. This
    is a partial Fisher-Yates shuffle of list(range(m)) that takes each
    index by getrandbits rejection at the remaining size's bit length,
    which is what rng.sample(range(m), m/2 - 1) does on its pool branch,
    so it returns the same list and leaves rng in the same state, at
    about half the cost.

    Random.sample takes its pool branch when n <= 21 for k <= 5, or
    when n <= 21 + 4**ceil(log4(3k)) for k > 5. Here n = m and
    k = m/2 - 1: k <= 5 means m <= 12, and for k > 5,
    4**ceil(log4(3k)) >= 3k >= m - 3, so the pool branch is always
    taken. The caller checks m.
    """
    getrandbits = rng.getrandbits
    pool = list(range(m))
    out = []
    for size in range(m, m // 2 + 1, -1):
        b = size.bit_length()
        j = getrandbits(b)
        while j >= size:
            j = getrandbits(b)
        out.append(pool[j])
        pool[j] = pool[size - 1]
    return out


def sample_setint(m: int, rng: Random) -> SetIntInstance:
    """One hard instance: two size-m/4 sets intersecting in a single point.

    One ordered draw s = setint_draw(m, rng) of 2q-1 distinct elements
    (q = m/4) gives X = s[:q] and Y = s[q-1:], sharing e = s[q-1]. So
    (X - e, e, Y - e) is uniform over the disjoint triples of a
    (q-1)-set, a point and a (q-1)-set, which is the hard distribution.
    """
    check_universe(m)
    q = m // 4
    s = setint_draw(m, rng)
    return SetIntInstance(m, frozenset(s[:q]), frozenset(s[q - 1:]))


def sample_side_marginal(m: int, rng: Random) -> frozenset[int]:
    """One party's input alone: a uniform size-m/4 subset."""
    check_universe(m)
    return frozenset(rng.sample(range(m), m // 4))


def sample_given_other(m: int, other: frozenset[int], rng: Random) -> frozenset[int]:
    """Sample one side conditioned on the other side's set.

    Given the peer set, the intersection point is uniform inside it and the
    rest of the sampled set is a uniform subset of the complement.
    """
    check_universe(m)
    e = rng.choice(sorted(other))
    rest = rng.sample(sorted(set(range(m)) - other), m // 4 - 1)
    return frozenset(rest) | {e}


def _setint_masks(m: int, rng: Random, bit: list[int]) -> tuple[int, int]:
    """``sample_setint``'s draw as two masks; bit[e] is 1 << e.

    The same setint_draw, so the same sets and the same rng state after.
    """
    q = m // 4
    s = setint_draw(m, rng)
    at = bit.__getitem__
    e = bit[s[q - 1]]
    return sum(map(at, s[:q - 1])) | e, sum(map(at, s[q:])) | e


def sample_bmhpc(m: int, r: int, rng: Random) -> MHPCInstance:
    """All r layers drawn independently per coordinate.

    Each coordinate pair is one ``sample_setint`` draw, layer by layer,
    the m A/B pairs before the m C/D pairs.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    check_universe(m)
    bit = [1 << e for e in range(m)]
    A, B, C, D = [], [], [], []
    for _ in range(r):
        for fam1, fam2 in ((A, B), (C, D)):
            xs, ys = zip(*[_setint_masks(m, rng, bit) for _ in range(m)])
            fam1.append(list(xs))
            fam2.append(list(ys))
    return MHPCInstance(m, r, A, B, C, D)


def sample_bhpc(m: int, r: int, rng: Random) -> MHPCInstance:
    """A single layer drawn once and replicated r times."""
    base = sample_bmhpc(m, 1, rng)
    return MHPCInstance(
        m, r,
        [base.A[0]] * r, [base.B[0]] * r, [base.C[0]] * r, [base.D[0]] * r,
    )


# ---------------------------------------------------------------------------
# the pointer walk


@dataclass(frozen=True)
class PointerPath:
    z: list[tuple[str, int]]  # (side, 0-based index), starting at ("x", 0)
    bit: int


def chase(inst: MHPCInstance) -> PointerPath:
    """Resolve the walk layer by layer from the raw sets."""
    side, idx = "x", 0
    path = [(side, idx)]
    for j in range(inst.r):
        step = j + 1
        if step % 2 == 1:
            idx = _pair_target(inst, j, "x", idx)
            side = "y"
        else:
            idx = _pair_target(inst, j, "y", idx)
            side = "x"
        path.append((side, idx))
    return PointerPath(path, (path[-1][1] + 1) % 2)


# ---------------------------------------------------------------------------
# the four-party walk: the aligned protocol, and the misaligned one with its
# pre-solve round


def aligned_protocol(inst: MHPCInstance,
                     schedule: RoundSchedule) -> tuple[int, CommLedger]:
    """Chase the pointer with one hidden intersection solved per round.

    Per round: the holding pair exchanges an m-bit set vector and the
    answer index, then announces the new pointer and its parity bit.
    This is ``_walk`` with no pre-solve round; the parity bit on the
    broadcast is the only other difference from the misaligned protocol.
    """
    if schedule.starter != "AB":
        raise ValueError(
            "schedule must open with the pair holding the first step; "
            "use misaligned_bhpc_protocol for the flipped order"
        )
    if schedule.r != inst.r:
        raise ValueError(f"schedule has {schedule.r} rounds, instance needs {inst.r}")
    return run_four_party(
        schedule, {name: _walk(name, inst, schedule, None) for name in "ABCD"})


def misaligned_bhpc_protocol(inst: MHPCInstance, N: int,
                             rng: Random) -> tuple[object, CommLedger]:
    """Walk the pointer under a schedule where the wrong pair opens.

    Round 1: the y-side pair solves N uniformly chosen y-coordinates, C
    sending its N queries to D as one batch, and announces the answer
    table. Later rounds run the aligned protocol's walk (``_walk``),
    broadcasting the bare pointer without its parity bit: they advance
    the walk when the speaking pair holds the pending step and stall
    otherwise; a pending y-step whose pointer appears in the table is
    skipped for free. The final step is always a y-step short of a
    round, so the run finishes exactly when the table covers the last
    pointer (only even round budgets can finish). Returns ABSTAIN when
    the walk falls short.
    """
    if not inst.is_bhpc():
        raise ValueError("misaligned pre-solving needs identical layers")
    if not 0 <= N <= inst.m:
        raise ValueError(f"N must be in [0, {inst.m}]")
    sel = sorted(rng.sample(range(inst.m), N))
    schedule = RoundSchedule(inst.r, "CD")
    return run_four_party(
        schedule, {name: _walk(name, inst, schedule, sel) for name in "ABCD"})


def _walk(name, inst, schedule, sel):
    """Party ``name`` of the pointer walk under ``schedule``.

    With ``sel`` None this is the aligned protocol: the walk runs from
    round 1 and each answer goes out as the pointer and its parity bit.
    With a list ``sel`` round 1 pre-solves those y-coordinates of layer 0
    into a table and the walk runs from round 2, broadcasting the bare
    pointer. Each round, the pending step (x when ``frontier`` is even)
    advances if it belongs to the speaking pair, whose first party sends
    its set to its partner and broadcasts the answer; otherwise that
    party broadcasts nothing. A y-step whose pointer is in the table is
    taken for free. The output is the final pointer's parity bit, or
    ABSTAIN if the walk falls short.
    """
    fam = getattr(inst, name)
    partner = _PARTNER[name]
    m, r = inst.m, inst.r
    table = {}
    if sel is not None:
        # round 1: pre-solve the selected y-coordinates, C's queries going
        # as one batch, and announce the table as one field of (y, t) pairs
        if name == "C":
            yield ("sends", "D", charvecs([fam[0][y] for y in sel], m))
            got = yield ("recv",)
        elif name == "D":
            queries = yield ("recv",)
            got = tuple((y, _meet(fam[0][y], theirs, "layer 0 pair"))
                        for y, theirs in zip(sel, queries))
            yield ("broadcast", uint_pairs(got, m))
        else:
            got = yield ("recv",)
        table = dict(got)

    in_ab, asks = name in "AB", name in "AC"
    frontier = idx = 0
    for round_no in range(1 if sel is None else 2, schedule.r + 1):
        ab_round = schedule.speaking_pair(round_no) == "AB"
        active = frontier < r and (frontier % 2 == 0) == ab_round
        if in_ab != ab_round:
            t = yield ("recv",)
            if sel is None:  # the pointer and its parity bit
                t = t[0]
        elif asks and active:
            yield ("send", partner, charvec(fam[frontier][idx], m))
            t = yield ("recv",)
            yield ("broadcast", uint(t, m) if sel is not None
                   else vec(uint(t, m), flag(t % 2 == 0)))
        elif asks:
            yield ("broadcast", nothing())
        elif active:
            theirs = yield ("recv",)
            t = _meet(fam[frontier][idx], theirs, f"layer {frontier} pair")
            yield ("send", partner, uint(t, m))
            yield ("recv",)
        else:
            yield ("recv",)
        if active:
            idx, frontier = t, frontier + 1
            # a table hit takes a y-step for free; the next step is an x-step
            if frontier % 2 and frontier < r and idx in table:
                idx, frontier = table[idx], frontier + 1

    yield ("output", (idx + 1) % 2 if frontier == r else ABSTAIN)


# ---------------------------------------------------------------------------
# embedding a single set-intersection input into a full instance


def embed_setint(si: SetIntInstance, j: int, r: int, rng_public: Random,
                 rng_private_a: Random, rng_private_b: Random
                 ) -> tuple[MHPCInstance, int]:
    """Plant (X, Y) at a uniform coordinate of layer j's x-side family.

    The split mirrors who could know what: coordinate position and the
    off-coordinate halves that both sides must agree on are public; each
    side's remaining halves are private, drawn conditioned on the public
    ones. Conditioned on the public draw, the output follows the hard
    distribution whenever (X, Y) does. Layers are 1-based here to match
    step numbering; returns the instance and the planted coordinate.
    """
    m = si.m
    if not 1 <= j <= r:
        raise ValueError(f"target layer {j} outside 1..{r}")
    validate_setint(si)
    if len(si.X) != m // 4 or len(si.Y) != m // 4 or m % 4:
        raise ValueError("input must have the hard shape: two size-m/4 sets")

    I = rng_public.randrange(m)
    A = [[None] * m for _ in range(r)]
    B = [[None] * m for _ in range(r)]
    C = [[None] * m for _ in range(r)]
    D = [[None] * m for _ in range(r)]
    jj = j - 1
    bit = [1 << e for e in range(m)]

    def split(layer: int, i: int, public_a: bool) -> None:
        # the public half first, then the other side's conditioned half
        pub = sample_side_marginal(m, rng_public)
        priv = sample_given_other(m, pub, rng_private_b if public_a else rng_private_a)
        a, b = (pub, priv) if public_a else (priv, pub)
        A[layer][i], B[layer][i] = to_mask(a), to_mask(b)

    A[jj][I], B[jj][I] = to_mask(si.X), to_mask(si.Y)
    for i in range(I):
        split(jj, i, True)
    for i in range(I + 1, m):
        split(jj, i, False)

    for layer in range(r):
        for y in range(m):
            C[layer][y], D[layer][y] = _setint_masks(m, rng_public, bit)
        if layer != jj:
            for i in range(m):
                split(layer, i, layer < jj)

    return MHPCInstance(m, r, A, B, C, D), I


# ---------------------------------------------------------------------------
# serialization


def instance_to_json(inst: MHPCInstance) -> str:
    """The instance as canonical JSON, each set a sorted member list."""
    dump = lambda fam: [[list(mask_members(s)) for s in layer] for layer in fam]
    return json.dumps(
        {"m": inst.m, "r": inst.r, "A": dump(inst.A), "B": dump(inst.B),
         "C": dump(inst.C), "D": dump(inst.D)},
        sort_keys=True, separators=(",", ":"),
    )
