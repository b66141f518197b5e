import json
import math
import random
import tracemalloc

import pytest

from degencomm.comm import (
    Field,
    RoundSchedule,
    flag,
    nothing,
    run_four_party,
    uint,
    uint_width,
    vec,
)
from degencomm.hpc import (
    ABSTAIN,
    MHPCInstance,
    SetIntInstance,
    aligned_protocol,
    chase,
    embed_setint,
    instance_to_json,
    mask_members,
    misaligned_bhpc_protocol,
    sample_bhpc,
    sample_bmhpc,
    sample_given_other,
    sample_setint,
    sample_side_marginal,
    setint_draw,
    to_mask,
    validate_instance,
    validate_setint,
)


def _three_sigma(n, p):
    return 3 * math.sqrt(n * p * (1 - p))


def _members(mask, m):
    """The members of a mask over [0, m), by testing each bit in turn."""
    return [e for e in range(m) if mask >> e & 1]


def _fam(*layers):
    """A family of masks from member sets, one list of sets per layer."""
    return [[to_mask(s) for s in layer] for layer in layers]


# ---------------------------------------------------------------------------
# fixtures: hand-made instances


def worked_example() -> MHPCInstance:
    """The hand-checkable three-element, three-layer instance.

    Its walk is x_0 -> y_1 -> x_1 -> y_2 with answer bit 1. Families that
    cannot affect the walk hold self-intersecting singletons. Masks are
    written high bit first: 0b011 is {0, 1}.
    """
    ident = [0b001, 0b010, 0b100]  # identity singletons, one layer
    A = [[0b011, 0b011, 0b010], ident, [0b010, 0b110, 0b001]]
    B = [[0b110, 0b001, 0b110], ident, [0b011, 0b100, 0b101]]
    C = [ident, [0b001, 0b011, 0b100], ident]
    D = [ident, [0b011, 0b110, 0b110], ident]
    return MHPCInstance(3, 3, A, B, C, D)


def pad_instance(inst: MHPCInstance, m_new: int) -> MHPCInstance:
    """Grow the universes to m_new with self-intersecting singleton pairs.

    The walk never reaches the new coordinates, so the path and answer
    are unchanged.
    """
    if m_new < inst.m:
        raise ValueError("cannot shrink the universe")
    pads = [1 << i for i in range(inst.m, m_new)]
    grow = lambda fam: [layer + pads for layer in fam]
    return MHPCInstance(
        m_new, inst.r,
        grow(inst.A), grow(inst.B), grow(inst.C), grow(inst.D),
    )


# ---------------------------------------------------------------------------
# set-intersection sampler


def test_setint_smallest_universe_is_twin_singletons():
    rng = random.Random(0)
    for _ in range(50):
        si = sample_setint(4, rng)
        assert len(si.X) == len(si.Y) == 1
        assert si.X == si.Y == frozenset({si.e_star})


def test_setint_sizes_and_promise():
    rng = random.Random(5)
    for m in (8, 12, 64):
        for _ in range(30):
            si = sample_setint(m, rng)
            assert len(si.X) == len(si.Y) == m // 4
            assert len(si.X & si.Y) == 1
            validate_setint(si)


def test_setint_draw_follows_the_sample_stream():
    # setint_draw must consume the generator exactly as Random.sample's
    # pool branch does: same list, and the same state afterwards.
    for m in [*range(4, 257, 4), 1024, 4096]:
        for seed in range(20):
            mine, ref = random.Random(seed), random.Random(seed)
            assert setint_draw(m, mine) == ref.sample(range(m), m // 2 - 1)
            assert mine.getrandbits(64) == ref.getrandbits(64)


def test_setint_rejects_bad_universe():
    rng = random.Random(1)
    for m in (0, 3, 6, 9):
        with pytest.raises(ValueError):
            sample_setint(m, rng)


def test_setint_intersection_marginal_is_uniform():
    rng = random.Random(20240)
    n = 100_000
    counts = [0] * 8
    for _ in range(n):
        counts[sample_setint(8, rng).e_star] += 1
    tol = _three_sigma(n, 1 / 8)
    for c in counts:
        assert abs(c - n / 8) <= tol


def test_conditional_sampler_structure():
    rng = random.Random(77)
    for _ in range(40):
        other = sample_side_marginal(16, rng)
        mine = sample_given_other(16, other, rng)
        assert len(mine) == 4
        assert len(mine & other) == 1


def test_conditional_sampler_intersection_uniform_in_peer_set():
    rng = random.Random(31)
    other = frozenset({1, 4, 9, 13})
    n = 20_000
    counts = {e: 0 for e in other}
    for _ in range(n):
        mine = sample_given_other(16, other, rng)
        (e,) = mine & other
        counts[e] += 1
    tol = _three_sigma(n, 1 / 4)
    for c in counts.values():
        assert abs(c - n / 4) <= tol


# ---------------------------------------------------------------------------
# instance samplers


def test_bmhpc_unit_universe_pairs():
    inst = sample_bmhpc(4, 1, random.Random(2))
    validate_instance(inst)
    for fam in (inst.A, inst.B, inst.C, inst.D):
        assert all(s.bit_count() == 1 for s in fam[0])


def test_bmhpc_seeded_instance_validates():
    inst = sample_bmhpc(8, 3, random.Random(9))
    validate_instance(inst)
    assert sum(len(layer) for layer in inst.A + inst.C) == 48


def test_bhpc_layers_replicated():
    inst = sample_bhpc(8, 3, random.Random(4))
    validate_instance(inst)
    assert inst.is_bhpc()
    assert inst.A[0] == inst.A[1] == inst.A[2]
    assert not sample_bmhpc(8, 3, random.Random(4)).is_bhpc()


# ---------------------------------------------------------------------------
# the walk


def _oracle_walk(inst):
    """Recompute the walk with plain loops over the raw sets."""
    fx = []
    fy = []
    for j in range(inst.r):
        fx.append({x: _members(inst.A[j][x] & inst.B[j][x], inst.m)
                   for x in range(inst.m)})
        fy.append({y: _members(inst.C[j][y] & inst.D[j][y], inst.m)
                   for y in range(inst.m)})
    idx = 0
    for step in range(1, inst.r + 1):
        table = fx[step - 1] if step % 2 else fy[step - 1]
        assert len(table[idx]) == 1
        idx = table[idx][0]
    return idx, (idx + 1) % 2


def test_worked_example_walk():
    path = chase(worked_example())
    assert path.z == [("x", 0), ("y", 1), ("x", 1), ("y", 2)]
    assert path.bit == 1


def test_single_step_walk():
    inst = MHPCInstance(2, 1, _fam([{0}, {1}]), _fam([{0}, {0, 1}]),
                        _fam([{0}, {1}]), _fam([{0}, {1}]))
    path = chase(inst)
    assert path.z == [("x", 0), ("y", 0)]
    assert path.bit == 1  # first element of the universe is odd 1-based


def test_walk_matches_oracle_on_samples():
    rng = random.Random(123)
    for _ in range(50):
        m = rng.choice((4, 8))
        r = rng.randrange(1, 5)
        inst = sample_bmhpc(m, r, rng)
        idx, bit = _oracle_walk(inst)
        path = chase(inst)
        assert path.z[-1][1] == idx
        assert path.bit == bit
        assert len(path.z) == r + 1


def test_walk_error_names_offending_pair():
    inst = MHPCInstance(2, 1, _fam([{0}, {1}]), _fam([{1}, {0, 1}]),
                        _fam([{0}, {1}]), _fam([{0}, {1}]))
    with pytest.raises(ValueError, match=r"A\[0\]\[0\]/B\[0\]\[0\]"):
        chase(inst)
    with pytest.raises(ValueError, match=r"A\[0\]\[0\]"):
        validate_instance(inst)


@pytest.mark.parametrize("fam, j, i", [("A", 0, 3), ("B", 1, 0), ("C", 0, 7),
                                       ("D", 1, 5)])
@pytest.mark.parametrize("member", [9, 8, -1])
def test_validation_fails_closed_outside_the_universe(fam, j, i, member):
    # a member at or past m, or a negative mask (every member below 0
    # joined too), is named by family, layer and coordinate, whether or
    # not the walk reaches that set
    inst = sample_bmhpc(8, 2, random.Random(3))
    layer = getattr(inst, fam)[j]
    layer[i] = layer[i] | 1 << member if member >= 0 else ~layer[i]
    with pytest.raises(ValueError,
                       match=rf"set {fam}\[{j}\]\[{i}\] leaves the universe \[8\)"):
        validate_instance(inst)


def test_masks_and_members_round_trip():
    for members in ([], [0], [3, 1, 4], list(range(0, 130, 7))):
        mask = to_mask(members)
        assert list(mask_members(mask)) == sorted(members) == _members(mask, 130)
    assert to_mask([2, 2, 5]) == 0b100100
    with pytest.raises(ValueError, match="negative mask"):
        list(mask_members(~0b100))


# ---------------------------------------------------------------------------
# aligned protocol


def test_aligned_on_worked_example():
    inst = worked_example()
    bit, ledger = aligned_protocol(inst, RoundSchedule(3, "AB"))
    assert bit == 1
    assert ledger.rounds == 3
    w = uint_width(3)
    assert ledger.bits_total <= 3 * (3 + 2 * w) + 3
    assert ledger.bits_total == 24


def test_aligned_single_round_bit_budget():
    rng = random.Random(6)
    for _ in range(25):
        inst = sample_bmhpc(4, 1, rng)
        bit, ledger = aligned_protocol(inst, RoundSchedule(1, "AB"))
        assert bit == chase(inst).bit
        assert ledger.bits_total <= 9


def test_aligned_matches_walk_on_samples():
    rng = random.Random(88)
    for _ in range(60):
        m = rng.choice((4, 8))
        r = rng.randrange(1, 4)
        inst = sample_bmhpc(m, r, rng)
        bit, ledger = aligned_protocol(inst, RoundSchedule(r, "AB"))
        assert bit == chase(inst).bit
        assert ledger.rounds == r
        assert ledger.bits_total <= r * (m + 2 * uint_width(m)) + r


def test_aligned_refuses_flipped_or_mismatched_schedule():
    inst = sample_bmhpc(4, 2, random.Random(3))
    with pytest.raises(ValueError, match="open"):
        aligned_protocol(inst, RoundSchedule(2, "CD"))
    with pytest.raises(ValueError, match="rounds"):
        aligned_protocol(inst, RoundSchedule(3, "AB"))


def _break_pair(inst, j, side, i):
    """Give the pair at (side, i) of layer j one set twice, so it meets in m/4."""
    first, second = (inst.A, inst.B) if side == "x" else (inst.C, inst.D)
    second[j][i] = first[j][i]


@pytest.mark.parametrize("j", range(4))
def test_aligned_walk_rejects_a_broken_pair_on_the_path(j):
    # m >= 8: at m = 4 a size-1 set meets itself in one element
    m, r = 8, 4
    inst = sample_bmhpc(m, r, random.Random(51))
    side, i = chase(inst).z[j]
    _break_pair(inst, j, side, i)
    with pytest.raises(ValueError,
                       match=rf"layer {j} pair intersects in {m // 4} elements"):
        aligned_protocol(inst, RoundSchedule(r, "AB"))


# ---------------------------------------------------------------------------
# misaligned protocol


def test_misaligned_full_table_never_abstains():
    rng = random.Random(14)
    for _ in range(30):
        inst = sample_bhpc(8, 4, rng)
        out, ledger = misaligned_bhpc_protocol(inst, 8, rng)
        assert out == chase(inst).bit
        assert ledger.bits_total <= 2 * 8 * (8 + 2 * uint_width(8))


def test_misaligned_empty_table_always_abstains():
    rng = random.Random(15)
    for _ in range(10):
        inst = sample_bhpc(8, 4, rng)
        out, _ = misaligned_bhpc_protocol(inst, 0, rng)
        assert out is ABSTAIN


def test_misaligned_finishes_exactly_on_table_hit():
    for seed in range(40):
        inst = sample_bhpc(8, 4, random.Random(seed))
        sel = sorted(random.Random(seed + 1000).sample(range(8), 2))
        out, _ = misaligned_bhpc_protocol(inst, 2, random.Random(seed + 1000))
        side, idx = chase(inst).z[3]
        assert side == "y"
        if idx in sel:
            assert out == chase(inst).bit
        else:
            assert out is ABSTAIN


def test_misaligned_needs_identical_layers():
    inst = sample_bmhpc(8, 3, random.Random(2))
    assert not inst.is_bhpc()
    with pytest.raises(ValueError, match="identical layers"):
        misaligned_bhpc_protocol(inst, 2, random.Random(0))


def test_misaligned_odd_budget_cannot_finish():
    rng = random.Random(44)
    inst = sample_bhpc(8, 3, rng)
    out, _ = misaligned_bhpc_protocol(inst, 8, rng)
    assert out is ABSTAIN


def test_misaligned_presolve_rejects_a_broken_pair():
    # sample_bhpc shares one list per family, so this breaks every layer;
    # the round-1 pre-solve meets it first
    m = 8
    inst = sample_bhpc(m, 4, random.Random(52))
    side, y = chase(inst).z[1]
    assert side == "y"
    _break_pair(inst, 0, side, y)
    with pytest.raises(ValueError,
                       match=rf"layer 0 pair intersects in {m // 4} elements"):
        misaligned_bhpc_protocol(inst, m, random.Random(0))


# ---------------------------------------------------------------------------
# frozenset references: the instances, encoders and parties as they were
# when every set was a frozenset, kept as oracles for the mask code


def reference_charvec(members, universe):
    """``charvec`` over a frozenset: the same universe bits."""
    ms = frozenset(members)
    for e in ms:
        if not 0 <= e < universe:
            raise ValueError(f"element {e} outside universe {universe}")
    return Field(ms, universe)


def reference_meet(first, second, where):
    inter = first & second
    if len(inter) != 1:
        raise ValueError(
            f"{where} intersects in {len(inter)} elements, need exactly 1"
        )
    (t,) = inter
    return t


def reference_bmhpc(m, r, rng):
    """sample_bmhpc with frozenset families: one sample_setint per pair."""
    A, B, C, D = [], [], [], []
    for _ in range(r):
        ab = [sample_setint(m, rng) for _ in range(m)]
        cd = [sample_setint(m, rng) for _ in range(m)]
        A.append([si.X for si in ab])
        B.append([si.Y for si in ab])
        C.append([si.X for si in cd])
        D.append([si.Y for si in cd])
    return MHPCInstance(m, r, A, B, C, D)


def frozenset_instance(inst):
    """The same instance with each mask as a frozenset of its members."""
    sets = lambda fam: [[frozenset(_members(s, inst.m)) for s in layer]
                        for layer in fam]
    return MHPCInstance(inst.m, inst.r, sets(inst.A), sets(inst.B),
                        sets(inst.C), sets(inst.D))


def reference_bhpc(m, r, rng):
    base = reference_bmhpc(m, 1, rng)
    return MHPCInstance(
        m, r,
        [base.A[0]] * r, [base.B[0]] * r, [base.C[0]] * r, [base.D[0]] * r,
    )


def reference_json(inst):
    """instance_to_json over frozenset families."""
    dump = lambda fam: [[sorted(s) for s in layer] for layer in fam]
    return json.dumps(
        {"m": inst.m, "r": inst.r, "A": dump(inst.A), "B": dump(inst.B),
         "C": dump(inst.C), "D": dump(inst.D)},
        sort_keys=True, separators=(",", ":"),
    )


def reference_aligned_party(name, inst):
    fam = {"A": inst.A, "B": inst.B, "C": inst.C, "D": inst.D}[name]
    partner = {"A": "B", "B": "A", "C": "D", "D": "C"}[name]
    m = inst.m
    idx = 0
    for j in range(inst.r):
        x_step = j % 2 == 0
        my_round = (name in "AB") == x_step
        if my_round and name in "AC":
            yield ("send", partner, reference_charvec(fam[j][idx], m))
            t = yield ("recv",)
            yield ("broadcast", vec(uint(t, m), flag((t + 1) % 2 == 1)))
            idx = t
        elif my_round:
            theirs = yield ("recv",)
            t = reference_meet(fam[j][idx], theirs, f"layer {j} pair")
            yield ("send", partner, uint(t, m))
            got = yield ("recv",)
            idx = got[0]
        else:
            got = yield ("recv",)
            idx = got[0]
    yield ("output", (idx + 1) % 2)


def reference_aligned_protocol(inst):
    parties = {p: reference_aligned_party(p, inst) for p in "ABCD"}
    return run_four_party(RoundSchedule(inst.r, "AB"), parties)


def reference_misaligned_party(name, inst, sel):
    """The misaligned party as it was when D broadcast the table as one
    nested ``vec`` per (y, t) pair and the sets were frozensets, kept as
    an oracle for the bulk table encoding and the masks."""
    fam = {"A": inst.A, "B": inst.B, "C": inst.C, "D": inst.D}[name]
    m, r = inst.m, inst.r

    # round 1: pre-solve the selected y-coordinates, announce the table
    if name == "C":
        for y in sel:
            yield ("send", "D", reference_charvec(fam[0][y], m))
        got = yield ("recv",)
    elif name == "D":
        pairs = []
        for y in sel:
            theirs = yield ("recv",)
            t = reference_meet(fam[0][y], theirs, "layer 0 pair")
            pairs.append((y, t))
        got = tuple(pairs)
        yield ("broadcast", vec(*(vec(uint(y, m), uint(t, m)) for y, t in pairs)))
    else:
        got = yield ("recv",)
    table = dict(got)

    frontier, idx = 0, 0

    def skip():
        nonlocal frontier, idx
        while frontier < r and frontier % 2 == 1 and idx in table:
            idx = table[idx]
            frontier += 1

    skip()
    for round_no in range(2, r + 1):
        ab_round = round_no % 2 == 0
        my_round = (name in "AB") == ab_round
        pending_is_x = frontier % 2 == 0  # x-side pointer, pair AB's step
        active = frontier < r and pending_is_x == ab_round
        if my_round and name in "AC":
            if active:
                yield ("send", partner := ("B" if name == "A" else "D"),
                       reference_charvec(fam[frontier][idx], m))
                t = yield ("recv",)
                yield ("broadcast", uint(t, m))
                idx, frontier = t, frontier + 1
            else:
                yield ("broadcast", nothing())
        elif my_round:
            if active:
                theirs = yield ("recv",)
                t = reference_meet(fam[frontier][idx], theirs,
                                   f"layer {frontier} pair")
                yield ("send", "A" if name == "B" else "C", uint(t, m))
                yield ("recv",)
                idx, frontier = t, frontier + 1
            else:
                yield ("recv",)
        else:
            got = yield ("recv",)
            if active:
                idx, frontier = got, frontier + 1
        skip()

    yield ("output", (idx + 1) % 2 if frontier == r else ABSTAIN)


def reference_misaligned_protocol(inst, N, rng):
    """misaligned_bhpc_protocol's selection draw and schedule around the
    reference parties."""
    sel = sorted(rng.sample(range(inst.m), N))
    parties = {p: reference_misaligned_party(p, inst, sel) for p in "ABCD"}
    return run_four_party(RoundSchedule(inst.r, "CD"), parties)


def _same_run(got, want):
    (out, ledger), (ref_out, ref_ledger) = got, want
    assert out is ref_out if ref_out is ABSTAIN else out == ref_out
    assert ledger.to_json() == ref_ledger.to_json()
    assert (ledger.intra_bits, ledger.cross_bits) == (
        ref_ledger.intra_bits, ref_ledger.cross_bits)


def test_misaligned_table_field_matches_the_nested_vec_reference():
    # the CLI's hpc rows keep only the largest bit total, so compare every
    # message of every run here
    rng = random.Random(18)
    outcomes = set()
    for m in (4, 16, 64):
        for r in (1, 2, 4, 5):
            ref_rng = random.Random()
            ref_rng.setstate(rng.getstate())
            inst = sample_bhpc(m, r, rng)
            ref = reference_bhpc(m, r, ref_rng)
            for N in sorted({0, 1, m // 2, m}):
                seed = rng.getrandbits(32)
                out = misaligned_bhpc_protocol(inst, N, random.Random(seed))
                _same_run(out, reference_misaligned_protocol(
                    ref, N, random.Random(seed)))
                outcomes.add("abstain" if out[0] is ABSTAIN else "finished")
    assert outcomes == {"abstain", "finished"}


@pytest.mark.parametrize("m", [4, 8, 16, 64])
@pytest.mark.parametrize("r", [1, 2, 5])
def test_masks_match_the_frozenset_reference(m, r):
    # the same draws as frozensets: the same JSON text, the same rng state
    # after sampling, and the same walks, outputs and ledgers
    for seed in range(3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        inst, ref = sample_bmhpc(m, r, rng), reference_bmhpc(m, r, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        assert instance_to_json(inst) == reference_json(ref)
        _same_run(aligned_protocol(inst, RoundSchedule(r, "AB")),
                  reference_aligned_protocol(ref))

        inst, ref = sample_bhpc(m, r, rng), reference_bhpc(m, r, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        assert instance_to_json(inst) == reference_json(ref)
        for N in sorted({0, m // 2, m}):
            _same_run(misaligned_bhpc_protocol(inst, N, random.Random(N)),
                      reference_misaligned_protocol(ref, N, random.Random(N)))


def test_sampled_instance_memory_is_bounded():
    # 1 024 masks of 64 bits; frozensets of 16 members took about 750 KB
    tracemalloc.start()
    try:
        sample_bmhpc(64, 4, random.Random(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


# ---------------------------------------------------------------------------
# embedding


def _embed(si, j, r, seed):
    return embed_setint(si, j, r, random.Random(seed),
                        random.Random(seed + 1), random.Random(seed + 2))


def test_embedding_places_input_verbatim():
    rng = random.Random(10)
    for seed in range(20):
        si = sample_setint(4, rng)
        inst, pos = _embed(si, 1, 1, seed)
        assert inst.A[0][pos] == to_mask(si.X)
        assert inst.B[0][pos] == to_mask(si.Y)
        validate_instance(inst)


def test_embedding_validates_across_layers():
    rng = random.Random(11)
    for j in (1, 2, 3):
        for seed in range(8):
            si = sample_setint(8, rng)
            inst, _ = _embed(si, j, 3, seed)
            validate_instance(inst)
            assert inst.A[j - 1].count(to_mask(si.X)) >= 1


def test_embedding_position_is_uniform():
    rng = random.Random(2048)
    n = 10_000
    counts = [0] * 8
    for seed in range(n):
        si = sample_setint(8, rng)
        _, pos = _embed(si, 1, 1, seed)
        counts[pos] += 1
    tol = _three_sigma(n, 1 / 8)
    for c in counts:
        assert abs(c - n / 8) <= tol


def test_embedding_smallest_universe_coordinates_match_hard_distribution():
    # at m=4 every coordinate of the hard distribution is a twin singleton
    # with a uniform support point; check the embedded coordinates agree
    rng = random.Random(512)
    n = 4000
    counts = {(i, u): 0 for i in range(4) for u in range(4)}
    joint = {}
    for seed in range(n):
        si = sample_setint(4, rng)
        inst, _ = _embed(si, 1, 1, seed)
        support = []
        for i in range(4):
            assert inst.A[0][i] == inst.B[0][i]
            (u,) = _members(inst.A[0][i], 4)
            counts[(i, u)] += 1
            support.append(u)
        key = (support[0], support[1])
        joint[key] = joint.get(key, 0) + 1
    tol = _three_sigma(n, 1 / 4)
    for c in counts.values():
        assert abs(c - n / 4) <= tol
    tol2 = _three_sigma(n, 1 / 16)
    for a in range(4):
        for b in range(4):
            assert abs(joint.get((a, b), 0) - n / 16) <= tol2


def test_embedding_rejects_bad_inputs():
    si = sample_setint(8, random.Random(0))
    with pytest.raises(ValueError, match="layer"):
        _embed(si, 3, 2, 0)
    thin = SetIntInstance(8, frozenset({1}), frozenset({1}))
    with pytest.raises(ValueError, match="shape"):
        _embed(thin, 1, 1, 0)


# ---------------------------------------------------------------------------
# fixtures, padding, serialization


def test_padding_preserves_walk():
    inst = worked_example()
    padded = pad_instance(inst, 4)
    validate_instance(padded)
    assert padded.m == 4
    assert chase(padded).z == chase(inst).z
    for fam in (padded.A, padded.B, padded.C, padded.D):
        for layer in fam:
            assert layer[3] == 1 << 3
    with pytest.raises(ValueError):
        pad_instance(inst, 2)


def test_json_roundtrip():
    inst = sample_bmhpc(8, 2, random.Random(13))
    text = instance_to_json(inst)
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert (obj["m"], obj["r"]) == (inst.m, inst.r)
    for key in "ABCD":
        assert obj[key] == [[_members(s, inst.m) for s in layer]
                            for layer in getattr(inst, key)], key
