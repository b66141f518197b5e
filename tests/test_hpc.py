import json
import math
import random

import pytest

from degencomm.comm import (
    RoundSchedule,
    charvec,
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
    misaligned_bhpc_protocol,
    pad_instance,
    sample_bhpc,
    sample_bmhpc,
    sample_given_other,
    sample_setint,
    sample_side_marginal,
    setint_draw,
    validate_instance,
    validate_setint,
    _meet,
    worked_example,
)


def _three_sigma(n, p):
    return 3 * math.sqrt(n * p * (1 - p))


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
        assert all(len(s) == 1 for s in fam[0])


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
        fx.append({x: sorted(inst.A[j][x] & inst.B[j][x]) for x in range(inst.m)})
        fy.append({y: sorted(inst.C[j][y] & inst.D[j][y]) for y in range(inst.m)})
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
    f = frozenset
    inst = MHPCInstance(2, 1, [[f({0}), f({1})]], [[f({0}), f({0, 1})]],
                        [[f({0}), f({1})]], [[f({0}), f({1})]])
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
    f = frozenset
    inst = MHPCInstance(2, 1, [[f({0}), f({1})]], [[f({1}), f({0, 1})]],
                        [[f({0}), f({1})]], [[f({0}), f({1})]])
    with pytest.raises(ValueError, match=r"A\[0\]\[0\]/B\[0\]\[0\]"):
        chase(inst)
    with pytest.raises(ValueError, match=r"A\[0\]\[0\]"):
        validate_instance(inst)


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


def reference_misaligned_party(name, inst, sel):
    """The misaligned party as it was when D broadcast the table as one
    nested ``vec`` per (y, t) pair, kept verbatim as an oracle for the
    bulk table encoding."""
    fam = {"A": inst.A, "B": inst.B, "C": inst.C, "D": inst.D}[name]
    m, r = inst.m, inst.r

    # round 1: pre-solve the selected y-coordinates, announce the table
    if name == "C":
        for y in sel:
            yield ("send", "D", charvec(fam[0][y], m))
        got = yield ("recv",)
    elif name == "D":
        pairs = []
        for y in sel:
            theirs = yield ("recv",)
            t = _meet(fam[0][y], theirs, "layer 0 pair")
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
                       charvec(fam[frontier][idx], m))
                t = yield ("recv",)
                yield ("broadcast", uint(t, m))
                idx, frontier = t, frontier + 1
            else:
                yield ("broadcast", nothing())
        elif my_round:
            if active:
                theirs = yield ("recv",)
                t = _meet(fam[frontier][idx], theirs, f"layer {frontier} pair")
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


def test_misaligned_table_field_matches_the_nested_vec_reference():
    # the CLI's hpc rows keep only the largest bit total, so compare every
    # message of every run here
    rng = random.Random(18)
    outcomes = set()
    for m in (4, 16, 64):
        for r in (1, 2, 4, 5):
            inst = sample_bhpc(m, r, rng)
            for N in sorted({0, 1, m // 2, m}):
                seed = rng.getrandbits(32)
                out, ledger = misaligned_bhpc_protocol(inst, N, random.Random(seed))
                ref_out, ref_ledger = reference_misaligned_protocol(
                    inst, N, random.Random(seed))
                assert out == ref_out
                assert ledger.to_json() == ref_ledger.to_json()
                assert (ledger.intra_bits, ledger.cross_bits) == (
                    ref_ledger.intra_bits, ref_ledger.cross_bits)
                outcomes.add("abstain" if out is ABSTAIN else "finished")
    assert outcomes == {"abstain", "finished"}


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
        assert inst.A[0][pos] == si.X
        assert inst.B[0][pos] == si.Y
        validate_instance(inst)


def test_embedding_validates_across_layers():
    rng = random.Random(11)
    for j in (1, 2, 3):
        for seed in range(8):
            si = sample_setint(8, rng)
            inst, _ = _embed(si, j, 3, seed)
            validate_instance(inst)
            assert inst.A[j - 1].count(si.X) >= 1


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
            assert len(inst.A[0][i]) == 1
            (u,) = inst.A[0][i]
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
            assert layer[3] == frozenset({3})
    with pytest.raises(ValueError):
        pad_instance(inst, 2)


def test_json_roundtrip():
    inst = sample_bmhpc(8, 2, random.Random(13))
    text = instance_to_json(inst)
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert (obj["m"], obj["r"]) == (inst.m, inst.r)
    for key in "ABCD":
        assert obj[key] == [[sorted(s) for s in layer]
                            for layer in getattr(inst, key)], key
