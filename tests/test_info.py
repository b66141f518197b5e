import math
import random

import pytest

from degencomm.info import (
    conditional_mutual_information,
    entropy,
    enumerate_setint,
    measure_eps_solving,
    mutual_information,
    posterior_intersection,
    triangular_discrimination,
    tvd,
)


def _rand_dist(rng, n):
    w = [rng.random() + 1e-9 for _ in range(n)]
    s = sum(w)
    return [x / s for x in w]


# ---------------------------------------------------------------------------
# triangular discrimination and TVD


def test_ptd_of_identical_is_zero():
    assert triangular_discrimination([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_ptd_two_point_value():
    assert math.isclose(triangular_discrimination([1, 0], [0.5, 0.5]), 1 / 6,
                        rel_tol=0, abs_tol=1e-15)


def test_ptd_is_asymmetric():
    assert math.isclose(triangular_discrimination([0.5, 0.5], [1, 0]), 0.5,
                        abs_tol=1e-15)


def test_ptd_rejects_mismatch_and_junk():
    with pytest.raises(ValueError):
        triangular_discrimination([1, 0], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        triangular_discrimination([0.9, 0.2], [0.5, 0.5])
    with pytest.raises(ValueError):
        tvd([-0.5, 1.5], [0.5, 0.5])


def test_tvd_values():
    assert tvd([0.2, 0.8], [0.2, 0.8]) == 0.0
    assert tvd([1, 0], [0, 1]) == 1.0
    assert tvd([1, 0], [0.5, 0.5]) == 0.5


def test_ptd_tvd_sandwich():
    rng = random.Random(1234)
    for _ in range(2000):
        n = rng.randrange(2, 7)
        mu, nu = _rand_dist(rng, n), _rand_dist(rng, n)
        lam = triangular_discrimination(mu, nu)
        l1 = sum(abs(p - q) for p, q in zip(mu, nu))
        assert 0 <= l1**2 / 8 <= lam + 1e-12
        assert lam <= l1 / 2 + 1e-12
        assert l1 / 2 <= 1 + 1e-12


def test_expectation_transfer_bound():
    rng = random.Random(77)
    for _ in range(2000):
        n = rng.randrange(2, 7)
        mu, nu = _rand_dist(rng, n), _rand_dist(rng, n)
        f = [rng.random() for _ in range(n)]
        emu = sum(p * v for p, v in zip(mu, f))
        enu = sum(p * v for p, v in zip(nu, f))
        lam = triangular_discrimination(mu, nu)
        assert emu <= lam * max(f) + 6 * enu + 1e-12


def test_ptd_joint_convexity():
    rng = random.Random(55)
    for _ in range(2000):
        n = rng.randrange(2, 6)
        mu1, nu1 = _rand_dist(rng, n), _rand_dist(rng, n)
        mu2, nu2 = _rand_dist(rng, n), _rand_dist(rng, n)
        t = rng.random()
        mix_mu = [t * a + (1 - t) * b for a, b in zip(mu1, mu2)]
        mix_nu = [t * a + (1 - t) * b for a, b in zip(nu1, nu2)]
        lhs = triangular_discrimination(mix_mu, mix_nu)
        rhs = (t * triangular_discrimination(mu1, nu1)
               + (1 - t) * triangular_discrimination(mu2, nu2))
        assert lhs <= rhs + 1e-12


def test_sqrt_bound_implies_linear_bound():
    # |eta| <= sqrt(a(b+eta)) forces eta <= a + 2b
    rng = random.Random(31)
    hits = 0
    for _ in range(5000):
        a = rng.random() * 5
        b = rng.random() * 5
        eta = rng.uniform(-b, a + 2 * b + 2)
        if abs(eta) <= math.sqrt(a * (b + eta)):
            hits += 1
            assert eta <= a + 2 * b + 1e-12
    assert hits > 500


def test_binary_entropy_sqrt_bound():
    for i in range(101):
        p = i / 100
        h = entropy([p, 1 - p])
        assert h <= 2 * math.sqrt(p * (1 - p)) + 1e-12


# ---------------------------------------------------------------------------
# entropy and mutual information


def test_entropy_values():
    assert entropy([1.0, 0.0]) == 0.0
    assert math.isclose(entropy([0.5, 0.5]), 1.0)
    assert math.isclose(entropy([0.25] * 4), 2.0)


def test_mi_independent_bits_is_zero():
    table = [[0.25, 0.25], [0.25, 0.25]]
    assert abs(mutual_information(table)) <= 1e-12


def test_mi_copied_bit_is_one():
    table = [[0.5, 0.0], [0.0, 0.5]]
    assert math.isclose(mutual_information(table), 1.0)


def test_mi_rejects_unnormalized():
    with pytest.raises(ValueError):
        mutual_information([[0.5, 0.5], [0.5, 0.5]])


def test_chain_rule_on_random_tables():
    rng = random.Random(2718)
    for _ in range(100):
        na, nb, nc = (rng.randrange(2, 4) for _ in range(3))
        cells = [rng.random() + 1e-6 for _ in range(na * nb * nc)]
        s = sum(cells)
        t = [[[cells[(a * nb + b) * nc + c] / s for c in range(nc)]
              for b in range(nb)] for a in range(na)]
        # I(AB;C) = I(A;C) + I(B;C|A)
        tab_ab_c = [[sum(t[a][b][c] for b in range(nb)) for c in range(nc)]
                    for a in range(na)]
        flat_ab = [[t[a][b][c] for c in range(nc)]
                   for a in range(na) for b in range(nb)]
        t_bca = [[[t[a][b][c] for a in range(na)] for c in range(nc)]
                 for b in range(nb)]
        lhs = mutual_information(flat_ab)
        rhs = mutual_information(tab_ab_c) + conditional_mutual_information(t_bca)
        assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# posterior enumeration


def test_enumeration_support_sizes():
    assert len(enumerate_setint(4)) == 4
    assert len(enumerate_setint(8)) == 336
    for m in (4, 8):
        assert math.isclose(sum(p for _, _, p in enumerate_setint(m)), 1.0)
    with pytest.raises(ValueError):
        enumerate_setint(12)


def test_posterior_silent_with_known_side():
    silent = lambda X, Y: None
    X = frozenset({2, 5})
    post = posterior_intersection(silent, 8, None, known_side=("X", X))
    for e in range(8):
        want = 0.5 if e in X else 0.0
        assert math.isclose(post[e], want, abs_tol=1e-12)


def test_posterior_full_reveal_is_point_mass():
    reveal = lambda X, Y: (X, Y)
    X, Y = frozenset({1, 3}), frozenset({3, 6})
    post = posterior_intersection(reveal, 8, (X, Y))
    assert post[3] == 1.0
    assert sum(post) == 1.0


def test_posterior_parity_bit():
    parity = lambda X, Y: min(X & Y) % 2
    post = posterior_intersection(parity, 4, 0)
    assert post == [0.5, 0.0, 0.5, 0.0]


def test_posterior_inconsistent_transcript():
    silent = lambda X, Y: None
    with pytest.raises(ValueError, match="consistent"):
        posterior_intersection(silent, 4, "never-sent")


# ---------------------------------------------------------------------------
# eps-solving measurement


def test_silent_protocol_scores_zero_everywhere():
    silent = lambda X, Y: None
    for mode in ("internal_A", "internal_B", "external"):
        for m in (4, 8):
            assert measure_eps_solving(silent, m, mode) <= 1e-15


def test_full_reveal_external_values():
    reveal = lambda X, Y: (X, Y)
    assert math.isclose(measure_eps_solving(reveal, 4, "external"), 9 / 20,
                        abs_tol=1e-12)
    assert math.isclose(measure_eps_solving(reveal, 8, "external"), 49 / 72,
                        abs_tol=1e-12)


def test_full_reveal_internal_values():
    reveal = lambda X, Y: (X, Y)
    # knowing the singleton X already pins the intersection point
    assert measure_eps_solving(reveal, 4, "internal_A") <= 1e-15
    assert math.isclose(measure_eps_solving(reveal, 8, "internal_A"), 1 / 6,
                        abs_tol=1e-12)


def _random_one_round(rng):
    fa = {}
    fb = {}

    def proto(X, Y):
        a = fa.setdefault(X, rng.randrange(3))
        return a, fb.setdefault((Y, a), rng.randrange(2))

    return proto


def test_sharpened_posterior_beats_external_against_fixed_prior():
    # Against the unconditioned prior, extra conditioning on X can only
    # grow the average discrimination: Λ is convex in its first argument.
    rng = random.Random(99)
    for m in (4, 8):
        uniform = [1 / m] * m
        outcomes = enumerate_setint(m)
        for _ in range(10):
            proto = _random_one_round(rng)
            groups = {}
            for X, Y, p in outcomes:
                key = (proto(X, Y), X)
                mass, post = groups.setdefault(key, (0.0, [0.0] * m))
                e = min(X & Y)
                post[e] += p
                groups[key] = (mass + p, post)
            sharpened = 0.0
            for mass, post in groups.values():
                sharpened += mass * triangular_discrimination(
                    [q / mass for q in post], uniform)
            ext = measure_eps_solving(proto, m, "external")
            assert ext <= sharpened + 1e-12


def test_external_can_exceed_internal_under_conditioned_priors():
    # Conditioning the prior on a party's own input absorbs everything
    # that input implies about the intersection; at m=4 the input is a
    # singleton, so the internal measure is identically zero even for a
    # protocol that broadcasts both inputs.
    reveal = lambda X, Y: (X, Y)
    assert measure_eps_solving(reveal, 4, "internal_A") == 0.0
    assert measure_eps_solving(reveal, 4, "internal_B") == 0.0
    assert measure_eps_solving(reveal, 4, "external") > 0.4
    gap_a = (measure_eps_solving(reveal, 8, "external")
             - measure_eps_solving(reveal, 8, "internal_A"))
    assert math.isclose(gap_a, 49 / 72 - 1 / 6, abs_tol=1e-12)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        measure_eps_solving(lambda X, Y: 0, 4, "sideways")


# ---------------------------------------------------------------------------
# Bernoulli distinguisher, kept with its tests since no package code
# calls it


def bernoulli_distinguisher(sampler, alpha, beta, gamma):
    """Tell a rate <= alpha from a rate >= (1+beta)*alpha.

    Draws k = ceil(48/(alpha*beta^2) * ln(1/gamma)) samples and thresholds
    their sum at alpha*(1+beta/4)*k; wrong with probability at most gamma
    when the promise holds.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    k = math.ceil(48 / (alpha * beta * beta) * math.log(1 / gamma))
    tau = alpha * (1 + beta / 4) * k
    total = sum(1 for _ in range(k) if sampler())
    return "low" if total < tau else "high"


def test_distinguisher_extreme_rates():
    assert bernoulli_distinguisher(lambda: 0, 0.25, 1.0, 0.1) == "low"
    assert bernoulli_distinguisher(lambda: 1, 0.25, 1.0, 0.1) == "high"


def test_distinguisher_rejects_bad_params():
    for a, b, g in ((0, 1, 0.1), (0.5, 0, 0.1), (0.5, 1, 1.0), (2, 1, 0.1)):
        with pytest.raises(ValueError):
            bernoulli_distinguisher(lambda: 0, a, b, g)


def test_distinguisher_error_rate_under_promise():
    rng = random.Random(606)
    alpha, beta, gamma = 0.1, 1.0, 0.05
    trials = 2000
    errors = 0
    for t in range(trials):
        if t % 2:
            rate, want = alpha, "low"
        else:
            rate, want = (1 + beta) * alpha, "high"
        got = bernoulli_distinguisher(lambda: rng.random() < rate,
                                      alpha, beta, gamma)
        if got != want:
            errors += 1
    assert errors / trials <= gamma
