"""Two-party protocols that decide degeneracy <= k over a split edge set.

Alice holds one part of the edges, Bob the other, and they jointly simulate
the peeling algorithm. The expensive part is keeping degree information
consistent after deletions; the two protocols here differ in how lazily
they do that:

* ``degen_decide_sqrt`` re-exchanges all degrees every ceil(sqrt(n))
  deletions and tracks a single "low" band exactly in between. Its state
  is flat: each block makes one pass over the sorted live ids that fills
  the joint counts, the ready heap and a bytearray of low-band flags,
  and each removal walks its row once, decrementing its own counts and
  collecting the low neighbours it sends.
* ``degen_decide_fast`` buckets vertices by their gap above k and only
  re-communicates a degree when one side's private count has dropped far
  enough to matter for that bucket, read from a table of
  ``_bucket_index`` built once per run. No message reads the private count
  of a vertex outside the buckets, so only bucketed counts are kept, and
  the live vertices are the ready ones plus the bucketed ones. A removal
  in which neither side detected anything sends fields built once per run.
  Once nothing is bucketed, the rest of the run is known to both sides:
  the ready heap in id order, each removal with the same three empty
  fields. Both yield it as one repeat, which the runner charges in one go.

Both always agree with the sequential peeling decision, and both return a
peel order on Accept and the surviving (k+1)-core on Reject. Among the
vertices ready for deletion, both delete the least id; the ready set is
a heap of ids, so a pick costs O(log n). A vertex enters it at most once
while it can still be picked (sqrt rebuilds it each block, fast only
readies bucketed vertices), so the heap needs no lazy deletion.

``degen_search`` turns a decider into kappa, the degeneracy itself. Its
own messages are the two sides' edge counts, one each way. Their sum m
bounds kappa from below by the least k whose k-degenerate graphs can have
m edges, and from above by the largest k whose k-core (at least k+1
vertices of degree at least k) fits in m edges (DECISIONS.md D4). It runs
the decider from the low end of that bracket up, galloping, and bisects
with what is left of its probe budget.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Callable

from .comm import (
    CommLedger,
    EdgePartition,
    ProtocolError,
    lp_pairs,
    lp_uints,
    run_two_party,
    uint,
    uints,
    vec,
)
from .graphs import Accept, Reject

Decision = Accept | Reject


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _bucket_count(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _bucket_index(gap: int, imax: int) -> int:
    """Bucket i holds gaps in [2^(i-1), 2^i); the top bucket absorbs the rest."""
    if gap < 1:
        raise ValueError("bucketed vertices must sit strictly above k")
    return min(gap.bit_length(), imax)


def _swap(role, fld):
    """Exchange one field with the peer; Alice (role 0) talks first."""
    if role == 0:
        yield ("send", fld)
        return (yield ("recv",))
    got = yield ("recv",)
    yield ("send", fld)
    return got


# ---------------------------------------------------------------------------
# ceil(sqrt(n))-block protocol


def degen_decide_sqrt(part: EdgePartition, k: int,
                      stats: dict | None = None) -> tuple[Decision, CommLedger]:
    """Decide degeneracy <= k with full degree refreshes every sqrt(n) steps."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return run_two_party(
        _sqrt_party(0, part.adj_a, part.n, k, stats),
        _sqrt_party(1, part.adj_b, part.n, k, None),
    )


def _sqrt_party(role, adj, n, k, stats):
    # per-vertex state in flat arrays: alive and low are flags, and deg
    # holds the joint count, read only while its vertex is low
    my_deg = [len(row) for row in adj]
    alive = bytearray(b"\1") * n
    deg = [0] * n
    lv = list(range(n))  # the live ids, ascending
    order: list[int] = []
    s = _ceil_sqrt(n)
    no_low = lp_uints((), n, n)
    push, pop = heapq.heappush, heapq.heappop

    while lv:
        theirs = yield from _swap(role, uints([my_deg[u] for u in lv], n))
        ready = []  # ascending, so a heap
        low = bytearray(n)
        for u, d in zip(lv, theirs):
            d += my_deg[u]
            if d <= k:
                ready.append(u)
            elif d <= k + s:
                low[u] = 1
                deg[u] = d
        if stats is not None:
            deleted = []
            stats.setdefault("blocks", []).append({"safe": {
                u for u, d in zip(lv, theirs) if my_deg[u] + d > k + s},
                "deleted": deleted})

        for _ in range(min(s, len(lv))):
            if not ready:
                yield ("output", Reject(frozenset(u for u in lv if alive[u])))
                return
            v = pop(ready)
            alive[v] = 0
            order.append(v)
            if stats is not None:
                deleted.append(v)
            mine = []
            for w in adj[v]:
                if alive[w]:
                    my_deg[w] -= 1
                    if low[w]:
                        mine.append(w)
            others = yield from _swap(role, lp_uints(mine, n, n)
                                      if mine else no_low)
            for batch in (mine, others):
                for w in batch:
                    d = deg[w] - 1
                    deg[w] = d
                    if d <= k:
                        low[w] = 0
                        push(ready, w)
        lv = [u for u in lv if alive[u]]

    yield ("output", Accept(order))


# ---------------------------------------------------------------------------
# bucketed protocol


def degen_decide_fast(part: EdgePartition, k: int,
                      stats: dict | None = None) -> tuple[Decision, CommLedger]:
    """Decide degeneracy <= k with per-vertex lazy degree updates.

    ``stats``, when given, is filled with per-vertex degree re-communication
    counts ("updates_per_vertex" and their max).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return run_two_party(
        _fast_party(0, part.adj_a, part.n, k, stats),
        _fast_party(1, part.adj_b, part.n, k, None),
    )


def _fast_party(role, adj, n, k, stats):
    # Only a bucketed vertex's count is ever read (to detect it, in the
    # halves sent, and as last_mine), so only those are kept, and every
    # bucketed vertex is live: the live set is ready + bucket.
    my_deg = [len(adj[u]) for u in range(n)]
    order: list[int] = []
    imax = _bucket_count(n)
    threshold = [0] + [max(1, 2 ** (i - 2)) for i in range(1, imax + 1)]
    updates: Counter[int] = Counter()
    # the fields of a removal in which neither side detected anything,
    # built once by the encoders that build the others
    no_pairs = lp_pairs((), n, n)
    no_halves = uints((), n)
    no_reply = vec(no_halves, no_pairs)

    theirs = yield from _swap(role, uints(my_deg, n))
    deg = [mine + d for mine, d in zip(my_deg, theirs)]
    last_mine = my_deg[:]
    ready = [u for u in range(n) if deg[u] <= k]  # ascending, so a heap
    # degrees only go down, so every gap read below is at most this top
    index = [0] + [_bucket_index(gap, imax)
                   for gap in range(1, max(deg, default=0) - k + 1)]
    bucket = {u: index[deg[u] - k] for u in range(n) if deg[u] > k}

    while bucket and ready:
        v = heapq.heappop(ready)
        order.append(v)
        # one pass over the sorted row decrements and detects, in id order
        detected = []
        for u in adj[v]:
            i = bucket.get(u)
            if i is not None:
                my_deg[u] -= 1
                if last_mine[u] - my_deg[u] >= threshold[i]:
                    detected.append(u)
        # Alice sends her detections, Bob answers with his halves of them
        # and his own detections, and Alice answers with her halves of those
        if role == 0:
            yield ("send", lp_pairs([(u, my_deg[u]) for u in detected], n, n)
                   if detected else no_pairs)
            their_halves, their_extra = yield ("recv",)
            yield ("send", uints([my_deg[u] for u, _ in their_extra], n)
                   if their_extra else no_halves)
            if not (detected or their_extra):
                continue
            known = {u: my_deg[u] + half
                     for u, half in zip(detected, their_halves)}
            for u, half in their_extra:
                known[u] = my_deg[u] + half
        else:
            their_pairs = yield ("recv",)
            if not (detected or their_pairs):
                yield ("send", no_reply)
                yield ("recv",)
                continue
            known = {u: my_deg[u] + half for u, half in their_pairs}
            extra = [u for u in detected if u not in known]
            yield ("send", vec(
                uints([my_deg[u] for u, _ in their_pairs], n),
                lp_pairs([(u, my_deg[u]) for u in extra], n, n),
            ))
            their_halves = yield ("recv",)
            for u, half in zip(extra, their_halves):
                known[u] = my_deg[u] + half

        for u, degree in known.items():
            last_mine[u] = my_deg[u]
            updates[u] += 1
            if degree <= k:
                del bucket[u]
                heapq.heappush(ready, u)
            else:
                bucket[u] = index[degree - k]

    if bucket:
        yield ("output", Reject(frozenset(bucket)))
    else:
        # nothing is bucketed, so each removal left pops the heap and
        # sends the three empty fields, which both sides know
        order += sorted(ready)
        yield ("repeat", len(ready),
               (("A", no_pairs), ("B", no_reply), ("A", no_halves)))
        yield ("output", Accept(order))
    if stats is not None:
        _fill_update_stats(stats, updates, n)


def _fill_update_stats(stats, updates, n):
    stats["updates_per_vertex"] = dict(updates)
    stats["updates_max"] = max(updates.values(), default=0)


# ---------------------------------------------------------------------------
# bracketed search


def _kappa_bounds(n: int, m: int) -> tuple[int, int]:
    """(L, U) with L <= kappa <= U for every graph on n >= 1 vertices and m
    edges (DECISIONS.md D4).

    A k-degenerate graph has at most k*n - k(k+1)/2 edges, so L is the
    least k that allows m. A nonempty k-core has at least k+1 vertices of
    degree at least k, so U is the largest k with k(k+1)/2 <= m, and at
    most n - 1.
    """
    # the real root of k*n - k(k+1)/2 = m below n, rounded down at most
    # one short of L
    lo = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * m)) // 2
    if lo * (2 * n - 1 - lo) < 2 * m:
        lo += 1
    return lo, min(n - 1, (math.isqrt(8 * m + 1) - 1) // 2)


def _exchange_edge_counts(part: EdgePartition, ledger: CommLedger) -> int:
    """Alice sends her edge count, then Bob his; return their sum, m.

    Each count is an integer in [0, n(n-1)/2], and each message is one
    round on ``ledger``, charged there directly.
    """
    bound = part.n * (part.n - 1) // 2 + 1
    m = 0
    for sender, receiver, adj in (("A", "B", part.adj_a), ("B", "A", part.adj_b)):
        count = uint(sum(map(len, adj)) // 2, bound)
        ledger.rounds += 1
        ledger.record(sender, receiver, count.bits)
        m += count.value
    return m


def degen_search(part: EdgePartition,
                 decide: Callable[..., tuple[Decision, CommLedger]] = degen_decide_fast,
                 stats: dict | None = None,
                 ) -> tuple[int, list[int], frozenset[int], CommLedger]:
    """Search the smallest accepted k in the edge-count bracket; return
    kappa with witnesses.

    Alice and Bob first exchange their edge counts (not when n < 2, where
    m = 0), which bounds kappa to [L, U] (``_kappa_bounds``). The search
    probes L, L+1, L+3, L+7, ... while a reject would still leave room to
    bisect the rest within ceil(log2 n) + 1 probes, then bisects.
    The ordering comes from the accepting run at k = kappa and the core from
    the rejecting run at k = kappa - 1 (the whole vertex set when kappa = 0),
    which is one more probe when kappa = L > 0.
    ``stats``, when given, gets the probe list as "decisions" next to what
    ``decide`` filled in on its accepting run at kappa (nothing when n = 0).
    A decider that rejects the k the search ends on, or accepts L - 1,
    raises ProtocolError.
    """
    n = part.n
    total = CommLedger()
    if n == 0:
        if stats is not None:
            stats["decisions"] = []
        return 0, [], frozenset(), total

    runs: dict[int, tuple[Decision, dict | None]] = {}  # k -> run, in probe order

    def probe(k):
        run_stats = None if stats is None else {}
        out, led = decide(part, k, stats=run_stats)
        total.merge(led)
        runs[k] = out, run_stats
        return out

    # lo only moves past a rejected probe and hi only onto an accepted one,
    # so runs[lo - 1] is a Reject unless lo is still L, and runs[lo] is
    # missing only when hi is still U. Bisecting [lo, hi] takes at most
    # bit_length(hi - lo + 1) probes, the last one at lo, or
    # bit_length(hi - lo) once hi has accepted. The gallop runs while hi is
    # U and a reject at its next point would leave room for that; an accept
    # there always does (DECISIONS.md D4).
    m = _exchange_edge_counts(part, total) if n > 1 else 0
    bottom, hi = _kappa_bounds(n, m)
    lo = bottom
    budget = (n - 1).bit_length() + 1  # ceil(log2 n) + 1
    step = 1  # the gallop's next probe is L + step - 1; 0 once bisecting
    while lo < hi:
        k = bottom + step - 1
        if step and k < hi and len(runs) + 1 + (hi - k).bit_length() <= budget:
            step *= 2
        else:
            step, k = 0, (lo + hi) // 2
        if isinstance(probe(k), Accept):
            hi = k
        else:
            lo = k + 1

    if lo not in runs:
        probe(lo)
    out, kappa_stats = runs[lo]
    if not isinstance(out, Accept):
        raise ProtocolError(f"decider rejected k = {lo}, where the search ended")
    if lo > 0 and lo - 1 not in runs and isinstance(probe(lo - 1), Accept):
        raise ProtocolError(f"decider accepted k = {lo - 1}, below the bracket")
    core = frozenset(range(n)) if lo == 0 else runs[lo - 1][0].core
    if stats is not None:
        stats.update(kappa_stats)
        stats["decisions"] = [(k, "accept" if isinstance(d, Accept) else "reject")
                              for k, (d, _) in runs.items()]
    return lo, out.ordering, core, total
