import math
import random
from collections import Counter

import pytest

from degencomm.hpc import SetIntInstance, sample_setint
from degencomm.info import enumerate_setint, measure_eps_solving
from degencomm.sisolver import (
    Failure,
    RevealSolver,
    calibrate_tau,
    exact_from_eps,
    reveal_lambda,
    score,
    scored_round,
    scrambled_instance,
    solver_experiment,
)


class _LiarSolver:
    """Confidently names some non-target element of the left set."""

    def run(self, xs, ys, rng):
        return min(xs - ys)

    def posterior(self, transcript, xs):
        out = [0.0] * (4 * len(xs))
        out[transcript] = 1.0
        return out


def test_score_zero_at_and_below_uniform():
    assert score(0.25, 4) == 0.0
    assert score(0.1, 4) == 0.0
    assert score(0.0, 7) == 0.0
    assert score(1 / 16, 16) == 0.0


def test_score_known_values():
    assert score(0.5, 4) == pytest.approx(1 / 3)
    assert score(1.0, 4) == pytest.approx(0.6)
    assert score(1.0, 16) == pytest.approx(15 / 17)
    assert score(1.0, 10**6) < 1.0


def test_score_monotone_in_confidence_and_support():
    qs = [0.3, 0.5, 0.7, 0.9, 1.0]
    vals = [score(q, 4) for q in qs]
    assert vals == sorted(vals)
    peaks = [score(1.0, n) for n in (4, 16, 64, 256)]
    assert peaks == sorted(peaks)


def test_score_domain_errors():
    with pytest.raises(ValueError, match="posterior weight"):
        score(-0.01, 4)
    with pytest.raises(ValueError, match="posterior weight"):
        score(1.01, 4)
    with pytest.raises(ValueError, match="support size"):
        score(0.5, 0)


def test_scramble_preserves_the_promise():
    rng = random.Random(11)
    inst = sample_setint(16, rng)
    perm, sx, sy = scrambled_instance(inst.X, inst.Y, rng)
    assert set(perm) == inst.X | inst.Y
    assert len(set(perm.values())) == len(perm)
    assert all(v in range(16) for v in perm.values())
    assert sx == {perm[e] for e in inst.X} and sy == {perm[e] for e in inst.Y}
    assert len(sx) == len(sy) == 4
    assert sx & sy == {perm[inst.e_star]}


def test_scramble_covers_every_low_m_outcome():
    rng = random.Random(12)
    seen4 = set()
    for _ in range(200):
        _, sx, sy = scrambled_instance(frozenset({2}), frozenset({2}), rng)
        seen4.add((sx, sy))
    assert seen4 == {(X, Y) for X, Y, _ in enumerate_setint(4)}

    legal8 = {(X, Y) for X, Y, _ in enumerate_setint(8)}
    inst = sample_setint(8, rng)
    for _ in range(500):
        _, sx, sy = scrambled_instance(inst.X, inst.Y, rng)
        assert (sx, sy) in legal8


def _assert_uniform_over_setint8(draws):
    # Every one of the 336 promise pairs at m = 8 shows up, and each
    # count sits within 4.5 sigma of its binomial mean.  A 3 sigma band
    # per pair would be breached by about one of the 336 pairs per run
    # of an exact sampler; 4.5 sigma keeps the family-wise false-alarm
    # rate under 0.3 %.  The chi-square total, 335 degrees of freedom,
    # must stay within five of its standard deviations of the mean.
    outcomes = enumerate_setint(8)
    counts = Counter(draws)
    total = sum(counts.values())
    assert set(counts) == {(X, Y) for X, Y, _ in outcomes}
    chi2 = 0.0
    for X, Y, p in outcomes:
        dev = counts[(X, Y)] - total * p
        assert abs(dev) <= 4.5 * math.sqrt(total * p * (1 - p)), (X, Y, counts[(X, Y)])
        chi2 += dev * dev / (total * p)
    df = len(outcomes) - 1
    assert chi2 <= df + 5 * math.sqrt(2 * df)


def test_sample_setint_is_uniform_at_m8():
    rng = random.Random(31)
    draws = []
    for _ in range(100_000):
        si = sample_setint(8, rng)
        draws.append((si.X, si.Y))
    _assert_uniform_over_setint8(draws)


def test_scramble_is_uniform_at_m8():
    rng = random.Random(32)
    inst = sample_setint(8, rng)
    draws = [scrambled_instance(inst.X, inst.Y, rng)[1:] for _ in range(100_000)]
    _assert_uniform_over_setint8(draws)


def test_scramble_rejects_broken_promises():
    rng = random.Random(13)
    with pytest.raises(ValueError, match="equal size"):
        scrambled_instance(frozenset({0, 1}), frozenset({1}), rng)
    with pytest.raises(ValueError, match="exactly 1"):
        scrambled_instance(frozenset({0, 1}), frozenset({2, 3}), rng)


def test_scored_round_with_a_full_reveal_solver():
    rng = random.Random(14)
    inst = sample_setint(16, rng)
    scores = scored_round(inst.X, inst.Y, RevealSolver(1.0), rng)
    assert set(scores) == set(inst.X)
    assert scores[inst.e_star] == pytest.approx(0.6)
    assert all(scores[e] == 0.0 for e in inst.X if e != inst.e_star)


def test_scored_round_means_match_the_reveal_profile():
    # A p-reveal round scores the target p * score(1, n) on average and
    # every other element exactly zero.
    rng = random.Random(15)
    inst = sample_setint(16, rng)
    solver = RevealSolver(0.7)
    star_scores = []
    rest_total = 0.0
    rounds = 20000
    for _ in range(rounds):
        scores = scored_round(inst.X, inst.Y, solver, rng)
        star_scores.append(scores[inst.e_star])
        rest_total += sum(s for e, s in scores.items() if e != inst.e_star)
    mean_star = sum(star_scores) / rounds
    assert mean_star == pytest.approx(0.7 * 0.6, abs=0.01)
    assert rest_total == 0.0
    lam = reveal_lambda(0.7, 16)
    assert mean_star - 0.0 >= lam / 2
    var_star = sum((s - mean_star) ** 2 for s in star_scores) / rounds
    assert var_star <= lam


def test_reveal_posterior_is_a_distribution():
    xs = frozenset({3, 7, 9, 12})
    solver = RevealSolver(0.5)
    for transcript in (None, 9):
        q = solver.posterior(transcript, xs)
        assert len(q) == 16
        assert sum(q) == pytest.approx(1.0)
        assert all(q[i] == 0.0 for i in range(16) if i not in xs)
    assert solver.posterior(9, xs)[9] == 1.0
    assert solver.posterior(None, xs)[3] == pytest.approx(0.25)


def test_reveal_solver_rejects_bad_p():
    with pytest.raises(ValueError, match="reveal probability"):
        RevealSolver(-0.1)
    with pytest.raises(ValueError, match="reveal probability"):
        RevealSolver(1.1)


def test_reveal_lambda_known_values():
    assert reveal_lambda(1.0, 16) == pytest.approx(9 / 20)
    assert reveal_lambda(0.5, 64) == pytest.approx(225 / 544)
    assert reveal_lambda(0.3, 4) == 0.0
    assert reveal_lambda(0.5, 16) == pytest.approx(reveal_lambda(1.0, 16) / 2)
    assert reveal_lambda(1.0, 4 * 10**6) < 1.0


def test_reveal_lambda_matches_the_exhaustive_measurement():
    rng = random.Random(16)
    solver = RevealSolver(1.0)
    proto = lambda X, Y: solver.run(X, Y, rng)
    assert measure_eps_solving(proto, 8, "internal_A") == pytest.approx(
        reveal_lambda(1.0, 8)
    )
    assert measure_eps_solving(proto, 4, "internal_A") == reveal_lambda(1.0, 4)


def test_reveal_lambda_domain_errors():
    with pytest.raises(ValueError, match="reveal probability"):
        reveal_lambda(1.2, 16)
    with pytest.raises(ValueError, match="multiple of 4"):
        reveal_lambda(0.5, 6)


def test_calibration_is_exact_for_deterministic_solvers():
    rng = random.Random(17)
    # Full reveal scores the target 0.6 every round and the rest zero,
    # so the midpoint lands at 0.3 per round regardless of sampling.
    assert calibrate_tau(RevealSolver(1.0), 16, 100, rng) == pytest.approx(30.0)
    assert calibrate_tau(RevealSolver(0.0), 16, 100, rng) == 0.0


class _GradedSolver:
    """Weighs each left element by 1 + noise, and the target by one more."""

    def run(self, xs, ys, rng):
        (target,) = xs & ys
        return target, {e: rng.random() for e in sorted(xs)}

    def posterior(self, transcript, xs):
        target, noise = transcript
        weight = {e: noise[e] + 1.0 + (e == target) for e in xs}
        total = sum(weight.values())
        out = [0.0] * (4 * len(xs))
        for e, w in weight.items():
            out[e] = w / total
        return out


def reference_calibrate_tau(solver, m, k_rounds, rng):
    """calibrate_tau as it was written over one Random.sample instance per round."""
    n = m // 4
    rounds = 10 * k_rounds
    acc_star = 0.0
    acc_rest = 0.0
    for _ in range(rounds):
        s = rng.sample(range(m), 2 * n - 1)
        inst = SetIntInstance(m, frozenset(s[:n]), frozenset(s[n - 1:]))
        q = solver.posterior(solver.run(inst.X, inst.Y, rng), inst.X)
        star = inst.e_star
        acc_star += score(q[star], n)
        if n > 1:
            rest = [score(q[e], n) for e in inst.X if e != star]
            acc_rest += sum(rest) / len(rest)
    return k_rounds * (acc_star + acc_rest) / (2 * rounds)


@pytest.mark.parametrize("solver", [RevealSolver(0.5), _GradedSolver()],
                         ids=["reveal", "graded"])
def test_calibration_matches_the_reference_bit_for_bit(solver):
    for seed in (1, 7, 2024):
        for m in (4, 32, 64, 256):
            mine, ref = random.Random(seed), random.Random(seed)
            tau = calibrate_tau(solver, m, 40, mine)
            assert tau == reference_calibrate_tau(solver, m, 40, ref)
            assert mine.getrandbits(64) == ref.getrandbits(64)


def test_calibration_checks_the_universe_before_any_round():
    for m in (0, 6, 10):
        with pytest.raises(ValueError, match="multiple of 4"):
            calibrate_tau(RevealSolver(0.5), m, 0, random.Random(0))


@pytest.mark.parametrize("k_rounds", [0, -3])
def test_calibration_needs_at_least_one_round(k_rounds):
    with pytest.raises(ValueError, match="at least one round"):
        calibrate_tau(RevealSolver(0.5), 16, k_rounds, random.Random(0))


def test_round_budget_at_the_reference_operating_point():
    eps = reveal_lambda(0.5, 64)
    assert math.ceil(1600 / (eps * 0.5 * 0.5)) == 15474


def test_exact_from_eps_validates_inputs():
    rng = random.Random(18)
    inst = sample_setint(16, rng)
    with pytest.raises(ValueError, match="advantage"):
        exact_from_eps(inst.X, inst.Y, RevealSolver(1.0), 0.4, 0.9, rng)
    with pytest.raises(ValueError, match="advantage"):
        exact_from_eps(inst.X, inst.Y, RevealSolver(1.0), 1.2, 0.9, rng)
    with pytest.raises(ValueError, match="gamma"):
        exact_from_eps(inst.X, inst.Y, RevealSolver(1.0), 0.9, 0.0, rng)
    with pytest.raises(ValueError, match="gamma"):
        exact_from_eps(inst.X, inst.Y, RevealSolver(1.0), 0.9, 1.0, rng)
    with pytest.raises(ValueError, match="equal size"):
        exact_from_eps(frozenset({0, 1}), frozenset({1}), RevealSolver(1.0), 0.9, 0.9, rng)


def test_full_reveal_amplifies_to_the_exact_answer():
    # Smallest universe where the full-reveal advantage clears the 8/m
    # floor: 49/72 against 8/32.
    rng = random.Random(19)
    inst = sample_setint(32, rng)
    eps = reveal_lambda(1.0, 32)
    out = exact_from_eps(inst.X, inst.Y, RevealSolver(1.0), eps, 0.9, rng)
    assert out == inst.e_star


def test_partial_reveal_succeeds_with_a_precomputed_threshold():
    rng = random.Random(20)
    inst = sample_setint(32, rng)
    eps = reveal_lambda(0.5, 32)
    k = math.ceil(1600 / (eps * 0.9 * 0.9))
    # Exact calibration limit for a half-reveal solver: the target makes
    # 0.5 * score(1, 8) = 7/18 per round, everyone else zero.
    out = exact_from_eps(
        inst.X, inst.Y, RevealSolver(0.5), eps, 0.9, rng, tau=k * 7 / 36
    )
    assert out == inst.e_star


def test_a_stale_threshold_fails_as_empty_intersection():
    rng = random.Random(21)
    inst = sample_setint(16, rng)
    k = math.ceil(1600 / (1.0 * 0.9 * 0.9))
    tau = calibrate_tau(RevealSolver(1.0), 16, k, rng)
    out = exact_from_eps(
        inst.X, inst.Y, RevealSolver(0.0), 1.0, 0.9, rng, tau=tau
    )
    assert isinstance(out, Failure)
    assert out.kind == "empty-intersection"
    assert set(out.state.totals) == set(inst.X)
    assert out.state.totals[inst.e_star] < out.state.tau
    assert out.state.k_rounds == k


def test_a_silent_solver_overflows_its_own_calibration():
    # Everything ties at zero, the threshold calibrates to zero, and the
    # whole left set survives, which the cap is there to catch.
    rng = random.Random(22)
    inst = sample_setint(16, rng)
    out = exact_from_eps(inst.X, inst.Y, RevealSolver(0.0), 1.0, 0.9, rng)
    assert isinstance(out, Failure)
    assert out.kind == "overflow"
    assert out.state.tau == 0.0
    survivors = sum(1 for t in out.state.totals.values() if t >= out.state.tau)
    assert survivors == 4


def test_a_liar_never_extracts_a_wrong_element():
    liar = _LiarSolver()
    k = math.ceil(1600 / (1.0 * 0.9 * 0.9))
    # Exact calibration limit: the liar names each of the n - 1
    # non-targets equally often, so a typical non-target makes
    # 0.6 / 3 per round and the target nothing.
    tau = k * 0.1
    for seed in range(6):
        rng = random.Random(100 + seed)
        inst = sample_setint(16, rng)
        out = exact_from_eps(inst.X, inst.Y, liar, 1.0, 0.9, rng, tau=tau)
        assert isinstance(out, Failure)


def test_solver_experiment_shape_and_counts():
    rng = random.Random(23)
    report = solver_experiment(RevealSolver(1.0), 1.0, 16, 0.9, 3, rng)
    assert set(report) == {
        "m", "gamma", "eps", "k_rounds", "tau", "success", "failure_kind", "trials",
    }
    assert report["k_rounds"] == math.ceil(1600 / 0.81)
    assert report["tau"] == pytest.approx(report["k_rounds"] * 0.3)
    assert report["success"] == 3
    assert report["failure_kind"] == {"overflow": 0, "empty-intersection": 0}
    assert report["trials"] == 3


def test_solver_experiment_counts_failures():
    rng = random.Random(24)
    report = solver_experiment(RevealSolver(0.0), 1.0, 16, 0.9, 2, rng)
    assert report["success"] == 0
    assert report["failure_kind"] == {"overflow": 2, "empty-intersection": 0}
    with pytest.raises(ValueError, match="at least one trial"):
        solver_experiment(RevealSolver(1.0), 1.0, 16, 0.9, 0, rng)
