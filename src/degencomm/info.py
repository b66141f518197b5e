"""Discrete information measures and tiny-universe posterior accounting.

Distributions are plain sequences of floats over supports {0..n-1}; joint
tables are nested lists. Entropy and mutual information use log base 2.
The positive triangular discrimination sums (mu - nu)^2 / (mu + nu) over
the points where mu exceeds nu only, which makes it asymmetric and at
most the total variation distance.

The eps-solving measurements enumerate every hard set-intersection input
at small m and apply Bayes exactly, so they are closed-form checks rather
than estimates; anything past m = 8 is refused.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Iterable, Sequence

SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# distributions


def validate_distribution(p: Sequence[float]) -> None:
    if any(x < 0 for x in p):
        raise ValueError("negative probability")
    if abs(sum(p) - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {sum(p)}, not 1")


def triangular_discrimination(mu: Sequence[float], nu: Sequence[float]) -> float:
    """Positive triangular discrimination: one-sided, in [0, 1]."""
    if len(mu) != len(nu):
        raise ValueError("supports differ")
    validate_distribution(mu)
    validate_distribution(nu)
    return sum(
        (p - q) ** 2 / (p + q) for p, q in zip(mu, nu) if p > q
    )


def tvd(mu: Sequence[float], nu: Sequence[float]) -> float:
    if len(mu) != len(nu):
        raise ValueError("supports differ")
    validate_distribution(mu)
    validate_distribution(nu)
    return sum(abs(p - q) for p, q in zip(mu, nu)) / 2


# ---------------------------------------------------------------------------
# entropy and mutual information


def entropy(p: Sequence[float]) -> float:
    validate_distribution(p)
    return _flat_entropy(p)


def _flat_entropy(cells: Iterable[float]) -> float:
    return -sum(x * math.log2(x) for x in cells if x > 0)


def mutual_information(table: Sequence[Sequence[float]]) -> float:
    """I(A;B) from a joint table indexed [a][b]."""
    cells = [x for row in table for x in row]
    validate_distribution(cells)
    pa = [sum(row) for row in table]
    pb = [sum(row[b] for row in table) for b in range(len(table[0]))]
    return _flat_entropy(pa) + _flat_entropy(pb) - _flat_entropy(cells)


def conditional_mutual_information(
        table: Sequence[Sequence[Sequence[float]]]) -> float:
    """I(A;B|C) from a joint table indexed [a][b][c]."""
    cells = [x for plane in table for row in plane for x in row]
    validate_distribution(cells)
    na, nb = len(table), len(table[0])
    nc = len(table[0][0])
    pac = [sum(table[a][b][c] for b in range(nb))
           for a in range(na) for c in range(nc)]
    pbc = [sum(table[a][b][c] for a in range(na))
           for b in range(nb) for c in range(nc)]
    pc = [sum(table[a][b][c] for a in range(na) for b in range(nb))
          for c in range(nc)]
    return (_flat_entropy(pac) + _flat_entropy(pbc)
            - _flat_entropy(cells) - _flat_entropy(pc))


# ---------------------------------------------------------------------------
# exhaustive hard-distribution enumeration


def enumerate_setint(m: int) -> list[tuple[frozenset[int], frozenset[int], float]]:
    """All (X, Y, probability) outcomes of the hard distribution at small m."""
    if m not in (4, 8):
        raise ValueError("exhaustive enumeration supports m in {4, 8} only")
    q = m // 4
    out = []
    universe = set(range(m))
    xprimes = list(combinations(range(m), q - 1))
    for xp in xprimes:
        rest1 = universe - set(xp)
        for yp in combinations(sorted(rest1), q - 1):
            rest2 = rest1 - set(yp)
            for e in sorted(rest2):
                out.append((frozenset(xp) | {e}, frozenset(yp) | {e},
                            1.0 / (len(xprimes) * math.comb(m - q + 1, q - 1)
                                   * (m - 2 * q + 2))))
    return out


Protocol = Callable[[frozenset[int], frozenset[int]], object]


def posterior_intersection(protocol: Protocol, m: int, transcript: object,
                           known_side: tuple[str, frozenset[int]] | None = None,
                           ) -> list[float]:
    """Exact posterior of the intersection point given what was seen.

    ``known_side`` optionally conditions on one party's full input, as
    ("X", set) or ("Y", set). Probability mass is over [0, m).
    """
    weights = [0.0] * m
    for X, Y, p in enumerate_setint(m):
        if known_side is not None:
            side, val = known_side
            if (X if side == "X" else Y) != frozenset(val):
                continue
        if protocol(X, Y) != transcript:
            continue
        (e,) = X & Y
        weights[e] += p
    total = sum(weights)
    if total == 0:
        raise ValueError("no input is consistent with that transcript")
    return [w / total for w in weights]


def measure_eps_solving(protocol: Protocol, m: int, mode: str) -> float:
    """Expected posterior shift of the intersection point, by enumeration.

    internal_A / internal_B condition both posterior and prior on that
    party's input; external conditions on the transcript alone.

    A transcript that depends on one party's input alone tells that party
    nothing it did not know, so it scores 0 in that party's internal mode,
    while its external score is positive as soon as it moves post(e*).
    external is therefore not bounded by either internal mode. What does
    bound it is the X-conditioned posterior's shift against the
    unconditioned prior, because the discrimination is convex in its first
    argument (see DECISIONS.md).
    """
    if mode not in ("internal_A", "internal_B", "external"):
        raise ValueError(f"unknown mode {mode!r}")
    outcomes = enumerate_setint(m)

    def key(X, Y):
        if mode == "internal_A":
            return (protocol(X, Y), X)
        if mode == "internal_B":
            return (protocol(X, Y), Y)
        return (protocol(X, Y),)

    def prior_key(X, Y):
        return key(X, Y)[1:]

    groups: dict[object, list[float]] = {}
    priors: dict[object, list[float]] = {}
    mass: dict[object, float] = {}
    for X, Y, p in outcomes:
        (e,) = X & Y
        k = key(X, Y)
        groups.setdefault(k, [0.0] * m)[e] += p
        mass[k] = mass.get(k, 0.0) + p
        pk = prior_key(X, Y)
        priors.setdefault(pk, [0.0] * m)[e] += p

    result = 0.0
    for k, w in groups.items():
        post = [x / mass[k] for x in w]
        pw = priors[k[1:]]
        ptotal = sum(pw)
        prior = [x / ptotal for x in pw]
        result += mass[k] * triangular_discrimination(post, prior)
    return result
