"""Boosting an approximate intersection-finder into an exact one.

A solver in the sense of this module is a (possibly randomized) routine
that, given the two promise sets, produces a transcript from which one
can read off a posterior over the universe.  A solver is useful as soon
as that posterior puts noticeably more weight on the intersection
element than a uniform guess would, even if it is wrong most of the
time.

The amplifier below turns any such solver into an exact one: it replays
the solver on freshly relabeled copies of the input, scores each
element of the left set by how confidently the posterior singled it out,
and thresholds the accumulated scores.  Relabeling makes every round an
independent draw from the distribution the solver was measured on, so a
small per-round advantage accumulates linearly while the noise only
grows like the square root of the number of rounds.  A round relabels
only X∪Y, by one uniform injection into the universe: the solver sees
nothing else, so this has the law of a full permutation with fewer
draws.

``exact_from_eps`` either returns the intersection element or a
:class:`Failure` naming which of the two checkable things went wrong
(too many survivors, or no survivor on the right set).  It never
returns a wrong element: survivors are intersected with the right set,
and only the target lies in both.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol

from .hpc import (SetIntInstance, check_universe, sample_setint, setint_draw,
                  validate_setint)

__all__ = [
    "EpsSolver",
    "Failure",
    "RevealSolver",
    "ScoreState",
    "calibrate_tau",
    "exact_from_eps",
    "reveal_lambda",
    "score",
    "scored_round",
    "scrambled_instance",
    "solver_experiment",
]


def score(q: float, n: int) -> float:
    """Advantage of posterior weight ``q`` over a uniform guess among ``n``.

    Zero whenever ``q`` is at or below the uniform weight ``1/n``, and
    ``(q - 1/n) / (q + 1/n)`` above it, so the value lives in [0, 1) and
    is bounded regardless of how peaked the posterior is.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"posterior weight must be in [0, 1], got {q}")
    if n < 1:
        raise ValueError(f"support size must be positive, got {n}")
    u = 1.0 / n
    if q <= u:
        return 0.0
    return (q - u) / (q + u)


class EpsSolver(Protocol):
    """Anything that can be amplified by :func:`exact_from_eps`.

    ``run`` plays the protocol on one relabeled instance and returns an
    opaque transcript; ``posterior`` turns that transcript into a
    distribution over the universe ``[4 * len(xs))``, supported within
    ``xs``.  Both sides see only relabeled sets, never the relabeling.
    """

    def run(self, xs: frozenset[int], ys: frozenset[int], rng: random.Random) -> object: ...

    def posterior(self, transcript: object, xs: frozenset[int]) -> list[float]: ...


def _promise_universe(X: frozenset[int], Y: frozenset[int]) -> int:
    """Check the quarter-size promise and return the universe size."""
    if len(X) != len(Y):
        raise ValueError(f"promise sets must have equal size, got {len(X)} and {len(Y)}")
    m = 4 * len(X)
    validate_setint(SetIntInstance(m=m, X=frozenset(X), Y=frozenset(Y)))
    return m


def _layout(X: frozenset[int], Y: frozenset[int]) -> tuple[list[int], int]:
    """Check the promise and lay X∪Y out as X - e, e, Y - e; return it and m.

    A relabel s of this layout sends layout[j] to s[j], so X lands on
    s[:n] and Y on s[n-1:] with n = m/4, and the target on s[n-1].
    """
    X, Y = frozenset(X), frozenset(Y)
    m = _promise_universe(X, Y)
    (e,) = X & Y
    return sorted(X - Y) + [e] + sorted(Y - X), m


def _relabel(
    m: int, rng: random.Random
) -> tuple[list[int], frozenset[int], frozenset[int]]:
    """Draw a uniform injection of a laid-out X∪Y into [m).

    By the promise the layout has m/2 - 1 entries, so the new labels, in
    layout order, are one :func:`~degencomm.hpc.setint_draw`. Returns
    them and the relabeled X and Y.
    """
    n = m // 4
    s = setint_draw(m, rng)
    return s, frozenset(s[:n]), frozenset(s[n - 1:])


def _score_rounds(
    m: int, solver: EpsSolver, rng: random.Random, k: int
) -> list[float]:
    """Play k relabel-run-score rounds; return X's summed scores in layout order."""
    n = m // 4
    totals = [0.0] * n
    for _ in range(k):
        s, sx, sy = _relabel(m, rng)
        q = solver.posterior(solver.run(sx, sy, rng), sx)
        totals = [t + score(q[i], n) for t, i in zip(totals, s)]
    return totals


def scrambled_instance(
    X: frozenset[int], Y: frozenset[int], rng: random.Random
) -> tuple[dict[int, int], frozenset[int], frozenset[int]]:
    """Relabel a promise instance by a fresh uniform injection of X∪Y into [m).

    Returns ``(perm, perm(X), perm(Y))`` where ``perm`` maps each old
    label in X∪Y to its new one.  A solver sees only the two sets, so
    this gives the relabeled pair the same law as a uniform permutation
    of all of ``[m)`` would: a fresh average-case instance, which is
    what lets a one-shot accuracy guarantee be replayed.
    """
    layout, m = _layout(X, Y)
    s, sx, sy = _relabel(m, rng)
    return dict(zip(layout, s)), sx, sy


def scored_round(
    X: frozenset[int],
    Y: frozenset[int],
    solver: EpsSolver,
    rng: random.Random,
) -> dict[int, float]:
    """One relabel-run-score round; scores are keyed by original labels."""
    layout, m = _layout(X, Y)
    return dict(zip(layout, _score_rounds(m, solver, rng, 1)))


def calibrate_tau(solver: EpsSolver, m: int, k_rounds: int, rng: random.Random) -> float:
    """Estimate the accept threshold for ``k_rounds`` accumulation rounds.

    Plays the solver on ``10 * k_rounds`` fresh average-case instances
    where the target is known, and places the threshold halfway between
    the expected accumulated score of the target and that of a typical
    non-target element of the left set.  The tenfold oversampling keeps
    the calibration error an order below the gap it is meant to split.
    Each instance is drawn as an amplification round's relabel is, so
    its target is the draw's middle label.
    """
    check_universe(m)
    if k_rounds < 1:
        raise ValueError(f"need at least one round, got {k_rounds}")
    n = m // 4
    rounds = 10 * k_rounds
    acc_star = 0.0
    acc_rest = 0.0
    for _ in range(rounds):
        s, sx, sy = _relabel(m, rng)
        star = s[n - 1]
        q = solver.posterior(solver.run(sx, sy, rng), sx)
        acc_star += score(q[star], n)
        if n > 1:
            rest = [score(q[e], n) for e in sx if e != star]
            acc_rest += sum(rest) / len(rest)
    return k_rounds * (acc_star + acc_rest) / (2 * rounds)


@dataclass(frozen=True)
class ScoreState:
    """Accumulated per-element scores at the end of an amplification run."""

    n: int
    totals: dict[int, float]
    k_rounds: int
    tau: float


@dataclass(frozen=True)
class Failure:
    """A detected amplification failure, with the scores that caused it.

    ``kind`` is ``"overflow"`` when too many elements cleared the
    threshold and ``"empty-intersection"`` when no element that cleared
    it lies in the right set (which includes the case where nothing
    cleared it at all).
    """

    kind: str
    state: ScoreState


def _round_count(m: int, eps: float, gamma: float) -> int:
    """Check the amplifier's parameters before any work; return its round count."""
    check_universe(m)
    if not 8 / m <= eps <= 1.0:
        raise ValueError(f"advantage must be in [8/m, 1] = [{8 / m}, 1], got {eps}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return math.ceil(1600 / (eps * gamma * gamma))


def exact_from_eps(
    X: frozenset[int],
    Y: frozenset[int],
    solver: EpsSolver,
    eps: float,
    gamma: float,
    rng: random.Random,
    tau: float | None = None,
) -> int | Failure:
    """Amplify a solver with advantage ``eps`` into an exact answer.

    ``gamma`` trades rounds for failure probability: the round count is
    ``ceil(1600 / (eps * gamma^2))`` and the survivor budget scales with
    ``gamma^2 * m``.  Pass a precomputed ``tau`` (from
    :func:`calibrate_tau` with the same round count) to amortize
    calibration across many runs; otherwise one is calibrated here.
    """
    Y = frozenset(Y)
    layout, m = _layout(X, Y)
    k = _round_count(m, eps, gamma)
    n = m // 4
    if tau is None:
        tau = calibrate_tau(solver, m, k, rng)

    totals = dict(zip(layout, _score_rounds(m, solver, rng, k)))
    state = ScoreState(n=n, totals=totals, k_rounds=k, tau=tau)
    survivors = {e for e, total in totals.items() if total >= tau}
    if len(survivors) > math.floor(gamma * gamma * m / 10) + 1:
        return Failure(kind="overflow", state=state)
    hit = survivors & Y
    if not hit:
        return Failure(kind="empty-intersection", state=state)
    (answer,) = hit
    return answer


class RevealSolver:
    """Synthetic solver that names the target with probability ``p``.

    On a reveal the posterior is a point mass on the target; otherwise
    it is uniform over the left set.  Useful as a tunable reference
    whose advantage is known in closed form (:func:`reveal_lambda`).
    """

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"reveal probability must be in [0, 1], got {p}")
        self.p = p

    def run(self, xs: frozenset[int], ys: frozenset[int], rng: random.Random) -> int | None:
        (target,) = xs & ys
        return target if rng.random() < self.p else None

    def posterior(self, transcript: int | None, xs: frozenset[int]) -> list[float]:
        out = [0.0] * (4 * len(xs))
        if transcript is None:
            u = 1.0 / len(xs)
            for i in xs:
                out[i] = u
        else:
            out[transcript] = 1.0
        return out


def reveal_lambda(p: float, m: int) -> float:
    """Closed-form advantage of a reveal solver on universe ``m``.

    This is the distinguishing advantage the amplifier can rely on, the
    largest ``eps`` for which :class:`RevealSolver` is an honest input
    to :func:`exact_from_eps`.  It vanishes at ``m = 4`` (a singleton
    left set carries no information) and approaches ``p`` from below as
    the universe grows.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"reveal probability must be in [0, 1], got {p}")
    check_universe(m)
    n = m // 4
    u = 1.0 / n
    return p * (1.0 - u) ** 2 / (1.0 + u)


def solver_experiment(
    solver: EpsSolver,
    eps: float,
    m: int,
    gamma: float,
    trials: int,
    rng: random.Random,
) -> dict[str, object]:
    """Run the amplifier on fresh instances and tally the outcomes.

    Calibrates the threshold once and reuses it for every trial, the
    way a deployed amplifier would.  The returned dict is JSON-ready.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    k = _round_count(m, eps, gamma)
    tau = calibrate_tau(solver, m, k, rng)
    success = 0
    failure_kind = {"overflow": 0, "empty-intersection": 0}
    for _ in range(trials):
        inst = sample_setint(m, rng)
        out = exact_from_eps(inst.X, inst.Y, solver, eps, gamma, rng, tau=tau)
        if isinstance(out, Failure):
            failure_kind[out.kind] += 1
        else:
            # Survivors are intersected with Y, so an int is the target.
            success += 1
    return {
        "m": m,
        "gamma": gamma,
        "eps": eps,
        "k_rounds": k,
        "tau": tau,
        "success": success,
        "failure_kind": failure_kind,
        "trials": trials,
    }
