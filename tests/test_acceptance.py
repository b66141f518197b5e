"""Acceptance gate: twelve end-to-end checks over the whole package.

Each test covers one numbered criterion and prints a single verdict
line (visible under ``pytest -s``; the ``-v`` test id carries the same
number either way). Heavy sweeps live in module fixtures so criteria
that share data (2/3, 4/5/6, 9/12) pay for them once.

Criterion 10 relates the unconditioned (external) posterior shift to
the input-conditioned ones in the forms that hold: a transcript that
is a function of X alone scores 0 in internal_A, and the external
shift never exceeds the X-sharpened posterior's shift against the
unconditioned prior. ``external <= internal_*`` does not hold under
the documented definitions; DECISIONS.md records why.
"""

import contextlib
import itertools
import math
import random
import statistics
import time

import pytest

from degencomm.comm import RoundSchedule, random_partition, uint_width
from degencomm.graphs import (
    Accept,
    brute_force_degeneracy,
    degeneracy,
    gnm_random_graph,
    is_k_ordering,
)
from degencomm.hpc import (
    ABSTAIN,
    MHPCInstance,
    aligned_protocol,
    chase,
    misaligned_bhpc_protocol,
    sample_bhpc,
    sample_bmhpc,
    sample_setint,
    validate_instance,
)
from degencomm.info import (
    entropy,
    enumerate_setint,
    measure_eps_solving,
    posterior_intersection,
    triangular_discrimination,
)
from degencomm.gadget import build_gadget, verify_gadget
from degencomm.protocols import degen_decide_fast, degen_decide_sqrt, degen_search
from degencomm.reduction import (
    NaivePeeler,
    simulate_streaming_reduction,
    trace_invariants,
)
from degencomm.sisolver import (
    RevealSolver,
    reveal_lambda,
    scored_round,
    solver_experiment,
)
from test_graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gnp_random_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


@contextlib.contextmanager
def reported(num, slug):
    """Print one verdict line for the criterion, pass or fail."""
    detail = []
    try:
        yield detail
    except BaseException:
        print(f"criterion {num:02d} {slug}: FAIL", flush=True)
        raise
    extra = f" ({'; '.join(detail)})" if detail else ""
    print(f"criterion {num:02d} {slug}: PASS{extra}", flush=True)


def _rand_dist(rng, n):
    w = [rng.random() + 1e-9 for _ in range(n)]
    s = sum(w)
    return [x / s for x in w]


# ---------------------------------------------------------------------------
# criterion 1: every degeneracy oracle agrees with every other


def test_criterion_01_degeneracy_oracles_agree():
    with reported(1, "degeneracy oracle equivalence"):
        t0 = time.perf_counter()
        rng = random.Random(101)
        named = [
            (empty_graph(6), 0),
            (complete_graph(6), 5),
            (cycle_graph(8), 2),
            (path_graph(9), 1),
            (star_graph(7), 1),
            (petersen_graph(), 3),
            (disjoint_union(cycle_graph(5), complete_graph(4)), 3),
        ]
        for g, known in named:
            kappa, order, _, _ = degen_search(random_partition(g, rng))
            assert kappa == degeneracy(g) == brute_force_degeneracy(g) == known
            assert is_k_ordering(g, order, kappa)
        for i in range(500):
            n = rng.randint(1, 64)
            if i % 3 == 0:
                g = gnp_random_graph(n, rng.random(), rng)
            else:
                cap = n * (n - 1) // 2
                g = gnm_random_graph(n, rng.randint(0, min(cap, 4 * n)), rng)
            kappa, _, _, _ = degen_search(random_partition(g, rng))
            assert kappa == degeneracy(g), (i, n)
            if n <= 12:
                assert kappa == brute_force_degeneracy(g), (i, n)
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# criteria 2 + 3: decision-protocol cost scaling, shared sweep


SCALING_SIZES = (64, 128, 256, 512, 1024)


@pytest.fixture(scope="module")
def scaling_runs():
    runs = []
    for n in SCALING_SIZES:
        width = math.ceil(math.log2(n))
        for s in range(3):
            rng = random.Random(9000 + 17 * n + s)
            g = gnm_random_graph(n, 4 * n, rng)
            part = random_partition(g, rng)
            k = degeneracy(g)
            stats = {}
            fast, fast_led = degen_decide_fast(part, k, stats=stats)
            sqrt_, sqrt_led = degen_decide_sqrt(part, k)
            assert isinstance(fast, Accept) and isinstance(sqrt_, Accept)
            runs.append({
                "n": n,
                "width": width,
                "fast_ratio": fast_led.bits_total / (n * width * width),
                "sqrt_ratio": sqrt_led.bits_total / (n ** 1.5 * width),
                "updates_max": stats["updates_max"],
            })

    def by_n(key):
        return [max(r[key] for r in runs if r["n"] == n) for n in SCALING_SIZES]

    def growth(seq):
        return max(seq[j] / seq[i]
                   for i in range(len(seq)) for j in range(i + 1, len(seq)))

    fast_by_n, sqrt_by_n = by_n("fast_ratio"), by_n("sqrt_ratio")
    return {
        "runs": runs,
        "fast_by_n": fast_by_n,
        "sqrt_by_n": sqrt_by_n,
        "fast_growth": growth(fast_by_n),
        "sqrt_growth": growth(sqrt_by_n),
    }


def test_criterion_02_decision_bits_scale(scaling_runs):
    with reported(2, "decision protocol bit scaling") as detail:
        detail.append(f"fast bits <= {max(scaling_runs['fast_by_n']):.3f}"
                      " * n*ceil(log2 n)^2")
        detail.append(f"sqrt bits <= {max(scaling_runs['sqrt_by_n']):.3f}"
                      " * n^1.5*ceil(log2 n)")
        assert scaling_runs["fast_growth"] <= 1.5, scaling_runs["fast_by_n"]
        assert scaling_runs["sqrt_growth"] <= 1.5, scaling_runs["sqrt_by_n"]


def test_criterion_03_degree_update_budget(scaling_runs):
    with reported(3, "per-vertex update budget"):
        for run in scaling_runs["runs"]:
            assert run["updates_max"] <= 2 * (run["width"] + 1), run


# ---------------------------------------------------------------------------
# criteria 4 + 5 + 6: reduction sweep, one build and one peel per instance;
# build_gadget audits its own output and criterion 6 audits it once more


SPLIT_COMBOS = ((4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (8, 3))


@pytest.fixture(scope="module")
def reduction_sweep():
    t0 = time.perf_counter()
    reports = []
    for m, r in SPLIT_COMBOS:
        for i in range(100):
            rng = random.Random(1_000_000 * m + 10_000 * r + i)
            inst = sample_bmhpc(m, r, rng)
            gg = build_gadget(inst)
            rep = trace_invariants(gg, inst)
            reports.append((m, r, i, rep, verify_gadget(gg), gg.graph.n))
    return {"reports": reports, "elapsed": time.perf_counter() - t0}


def test_criterion_04_degeneracy_split(reduction_sweep):
    with reported(4, "gadget degeneracy split"):
        for m, r, i, rep, _, _ in reduction_sweep["reports"]:
            low = rep.kappa <= rep.d - 3
            assert low == (rep.bit_true == 1), (m, r, i, rep.kappa, rep.d)
            assert (rep.kappa >= rep.d - 2) == (rep.bit_true == 0), (m, r, i)
            assert rep.split_ok, (m, r, i)
        assert reduction_sweep["elapsed"] < 300.0


def test_criterion_05_peel_prefix_trace(reduction_sweep):
    with reported(5, "peel prefix trace"):
        for m, r, i, rep, _, _ in reduction_sweep["reports"]:
            assert rep.trace is not None and len(rep.trace) == 2 * r + 1
            bad = [t.ell for t in rep.trace if not t.ok]
            assert not bad, (m, r, i, bad)
            assert all(t.max_degree_at_removal <= rep.d - 3
                       for t in rep.trace), (m, r, i)


def test_criterion_06_gadget_audit(reduction_sweep):
    with reported(6, "gadget structural audit"):
        for m, r, i, rep, audit, n_vertices in reduction_sweep["reports"]:
            assert audit.ok, (m, r, i, [c.name for c in audit.failed()])
            assert n_vertices == 3 * m * (2 * r + 1) + 3 + rep.d, (m, r, i)


# ---------------------------------------------------------------------------
# criterion 7: the naive peeler through the full phase simulation


@pytest.fixture(scope="module")
def streaming_runs():
    rows = []
    for i in range(50):
        rng = random.Random(777_000 + i)
        inst = sample_bmhpc(4, 1, rng)
        gg = build_gadget(inst)
        n = gg.graph.n
        w = uint_width(n)
        sim = simulate_streaming_reduction(gg, NaivePeeler(), p=n)
        snapshot = 1 + n + w + n * w  # in-pass flag, removed bitmap, kappa, degrees
        rows.append({
            "n": n,
            "bit_ok": sim.bit == chase(inst).bit,
            "phases": sim.phases,
            "snapshot_ok": sim.max_state_bits == snapshot,
            "bits_total": sim.ledger.bits_total,
            "expected_bits": (4 * n - 1) * snapshot + 3 * n * w,
        })
    return rows


def test_criterion_07_streaming_harness(streaming_runs):
    with reported(7, "multi-pass streaming harness"):
        for row in streaming_runs:
            assert row["bit_ok"], row
            assert row["phases"] == 2 * row["n"] - 1, row
            assert row["snapshot_ok"], row
            assert row["bits_total"] == row["expected_bits"], row


# ---------------------------------------------------------------------------
# criterion 8: divergence toolbox properties at scale


def test_criterion_08_divergence_properties():
    with reported(8, "divergence property suite"):
        t0 = time.perf_counter()
        rng = random.Random(4242)
        trials = 10_000
        for _ in range(trials):
            n = rng.randrange(2, 7)
            mu, nu = _rand_dist(rng, n), _rand_dist(rng, n)
            lam = triangular_discrimination(mu, nu)
            l1 = sum(abs(p - q) for p, q in zip(mu, nu))
            assert 0 <= l1 ** 2 / 8 <= lam + 1e-12
            assert lam <= l1 / 2 + 1e-12 and l1 / 2 <= 1 + 1e-12
        for _ in range(trials):
            n = rng.randrange(2, 7)
            mu, nu = _rand_dist(rng, n), _rand_dist(rng, n)
            f = [rng.random() for _ in range(n)]
            emu = sum(p * v for p, v in zip(mu, f))
            enu = sum(p * v for p, v in zip(nu, f))
            lam = triangular_discrimination(mu, nu)
            assert emu <= lam * max(f) + 6 * enu + 1e-12
        for _ in range(trials):
            n = rng.randrange(2, 6)
            mu1, nu1 = _rand_dist(rng, n), _rand_dist(rng, n)
            mu2, nu2 = _rand_dist(rng, n), _rand_dist(rng, n)
            t = rng.random()
            mix_mu = [t * a + (1 - t) * b for a, b in zip(mu1, mu2)]
            mix_nu = [t * a + (1 - t) * b for a, b in zip(nu1, nu2)]
            rhs = (t * triangular_discrimination(mu1, nu1)
                   + (1 - t) * triangular_discrimination(mu2, nu2))
            assert triangular_discrimination(mix_mu, mix_nu) <= rhs + 1e-12
        hits = 0
        for _ in range(trials):
            a = rng.random() * 5
            b = rng.random() * 5
            eta = rng.uniform(-b, a + 2 * b + 2)
            if abs(eta) <= math.sqrt(a * (b + eta)):
                hits += 1
                assert eta <= a + 2 * b + 1e-12
        assert hits > 1000
        for _ in range(trials):
            p = rng.random()
            assert entropy([p, 1 - p]) <= 2 * math.sqrt(p * (1 - p)) + 1e-12
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 9: pointer-chasing protocols against the walk oracle


@pytest.fixture(scope="module")
def hpc_runs():
    rng = random.Random(31337)
    aligned_ok = True
    aligned_worst_fill = 0.0
    for _ in range(1000):
        m = rng.choice((4, 8, 16, 32, 64))
        r = rng.randint(1, 5)
        inst = sample_bmhpc(m, r, rng)
        bit, led = aligned_protocol(inst, RoundSchedule(r, "AB"))
        bound = r * (m + 2 * math.ceil(math.log2(m))) + r
        aligned_ok &= bit == chase(inst).bit and led.bits_total <= bound
        aligned_worst_fill = max(aligned_worst_fill, led.bits_total / bound)

    # every pointer path at m = 4 is realized by constant families, so
    # r <= 2 can be swept exhaustively: 4 + 16 instances
    exhaustive_ok = True
    exhaustive_count = 0
    for r in (1, 2):
        for path in itertools.product(range(4), repeat=r):
            fam = [[1 << path[j]] * 4 for j in range(r)]
            inst = MHPCInstance(4, r, fam, fam, fam, fam)
            validate_instance(inst)
            walk = chase(inst)
            bit, led = aligned_protocol(inst, RoundSchedule(r, "AB"))
            exhaustive_ok &= (
                walk.z[-1][1] == path[-1]
                and bit == walk.bit == (path[-1] + 1) % 2
                and led.bits_total <= r * (4 + 2 * 2) + r
            )
            exhaustive_count += 1

    m, r, trials = 64, 4, 2000
    n_presolve = 4 * m // r
    bound = 2 * n_presolve * (m + 2 * math.ceil(math.log2(m)))
    mrng = random.Random(987654)
    correct = finished = 0
    mis_bits_ok = True
    for _ in range(trials):
        inst = sample_bhpc(m, r, mrng)
        out, led = misaligned_bhpc_protocol(inst, n_presolve, mrng)
        mis_bits_ok &= led.bits_total <= bound
        if out is not ABSTAIN:
            finished += 1
            correct += out == chase(inst).bit
    return {
        "aligned_ok": aligned_ok,
        "aligned_worst_fill": aligned_worst_fill,
        "exhaustive_ok": exhaustive_ok,
        "exhaustive_count": exhaustive_count,
        "mis_trials": trials,
        "mis_finished": finished,
        "mis_correct": correct,
        "mis_bits_ok": mis_bits_ok,
    }


def test_criterion_09_pointer_chasing_protocols(hpc_runs):
    with reported(9, "pointer chasing protocols") as detail:
        assert hpc_runs["aligned_ok"]
        assert hpc_runs["exhaustive_count"] == 20 and hpc_runs["exhaustive_ok"]
        rate = hpc_runs["mis_correct"] / hpc_runs["mis_trials"]
        detail.append(f"misaligned success {rate:.3f}")
        assert rate >= 0.9, hpc_runs
        assert hpc_runs["mis_bits_ok"]


# ---------------------------------------------------------------------------
# criterion 10: posterior-shift measurement on tiny universes


def test_criterion_10_posterior_shift_measures():
    with reported(10, "posterior shift measurement"):
        def silent(X, Y):
            return 0

        def full_reveal(X, Y):
            (e,) = X & Y
            return e

        modes = ("external", "internal_A", "internal_B")
        for m in (4, 8):
            for mode in modes:
                assert measure_eps_solving(silent, m, mode) <= 1e-15, (m, mode)

        analytic = {
            (4, "external"): 9 / 20,
            (4, "internal_A"): 0.0,
            (4, "internal_B"): 0.0,
            (8, "external"): 49 / 72,
            (8, "internal_A"): 1 / 6,
            (8, "internal_B"): 1 / 6,
        }
        for (m, mode), want in analytic.items():
            got = measure_eps_solving(full_reveal, m, mode)
            assert abs(got - want) <= 1e-9, (m, mode, got, want)

        rng = random.Random(6060)
        informative = 0
        for t in range(20):
            m = 4 if t % 2 == 0 else 8
            outcomes = enumerate_setint(m)
            table = {}
            for x_side, _, _ in outcomes:
                table.setdefault(x_side, rng.randrange(3))

            def proto(X, Y, tb=table):
                return tb[X]

            ext = measure_eps_solving(proto, m, "external")
            int_a = measure_eps_solving(proto, m, "internal_A")
            # Λ(·, q) is convex in its first argument, so averaging the
            # X-conditioned posterior into post(e*|π) cannot raise the
            # shift measured against the unconditioned prior, which is
            # the posterior after a silent transcript.
            prior = posterior_intersection(silent, m, 0)
            p_x = {}
            for X, _, p in outcomes:
                p_x[X] = p_x.get(X, 0.0) + p
            sharp_a = sum(
                p * triangular_discrimination(
                    posterior_intersection(proto, m, table[X],
                                           known_side=("X", X)),
                    prior)
                for X, p in p_x.items())
            vals = (t, m, round(ext, 6), round(int_a, 6), round(sharp_a, 6))
            assert int_a <= 1e-12, (
                f"protocol {t} (m={m}) sends a function of X alone, yet its "
                f"internal_A shift is nonzero: (t, m, external, internal_A, "
                f"sharp_A) = {vals}; see DECISIONS.md")
            assert ext <= sharp_a + 1e-12, (
                f"protocol {t} (m={m}): external shift exceeds the "
                f"X-conditioned posterior's shift against the unconditioned "
                f"prior: (t, m, external, internal_A, sharp_A) = {vals}; "
                f"see DECISIONS.md")
            informative += ext > 0
        assert informative, (
            "every one-round protocol had zero external shift, so the "
            "bounds above were checked against nothing")


# ---------------------------------------------------------------------------
# criterion 11: amplification at the half-reveal operating point


def test_criterion_11_scoring_amplification():
    with reported(11, "scored amplification") as detail:
        p_reveal, m, gamma = 0.5, 64, 0.5
        lam = reveal_lambda(p_reveal, m)
        result = solver_experiment(RevealSolver(p_reveal), lam, m,
                                   gamma, 200, random.Random(11_000))
        rate = result["success"] / result["trials"]
        detail.append(f"success {rate:.3f} over {result['trials']}")
        assert rate >= 0.7, result

        overflow = result["failure_kind"]["overflow"] / result["trials"]
        assert overflow <= 1 / 5 + 3 * math.sqrt(0.2 * 0.8 / result["trials"])

        solver = RevealSolver(p_reveal)
        srng = random.Random(11_001)
        rounds = 20_000
        star, gaps, others = [], [], []
        for _ in range(rounds):
            inst = sample_setint(m, srng)
            scores = scored_round(inst.X, inst.Y, solver, srng)
            s = scores[inst.e_star]
            rest = [v for e, v in scores.items() if e != inst.e_star]
            star.append(s)
            others.extend(rest)
            gaps.append(s - sum(rest) / len(rest))

        gap_se = statistics.stdev(gaps) / math.sqrt(rounds)
        assert statistics.fmean(gaps) >= lam / 2 - 3 * gap_se

        assert statistics.pvariance(star) <= lam
        mean_other = statistics.fmean(others)
        sq = [(v - mean_other) ** 2 for v in others]
        var_se = statistics.stdev(sq) / math.sqrt(len(sq))
        assert statistics.pvariance(others) <= 2 * lam + 3 * var_se


# ---------------------------------------------------------------------------
# criterion 12: the asymptotic claims, covered by measured envelopes


def test_criterion_12_envelope_summary(scaling_runs, reduction_sweep,
                                       streaming_runs, hpc_runs):
    # No finite run exhibits a lower bound; what is checkable is that
    # every implemented protocol stays inside its claimed cost envelope
    # and that the reduction the bounds rest on verifies end to end.
    with reported(12, "cost envelopes and reduction coverage"):
        assert scaling_runs["fast_growth"] <= 1.5
        assert scaling_runs["sqrt_growth"] <= 1.5
        assert hpc_runs["aligned_ok"] and hpc_runs["aligned_worst_fill"] <= 1.0
        assert hpc_runs["mis_bits_ok"]
        for _, _, _, rep, audit, _ in reduction_sweep["reports"]:
            assert rep.split_ok and audit.ok
            assert rep.trace is not None and all(t.ok for t in rep.trace)
        for row in streaming_runs:
            assert row["bit_ok"] and row["bits_total"] == row["expected_bits"]
