"""The benchmark's four workloads: seeded set-up, one request, its check.

Every input is derived from the workload seed with ``spawn_seed``; request
``i`` uses ``spawn_seed(seed, i)`` and set-up uses ``spawn_seed(seed, -1)``
or pool indices. Program functions are looked up on their modules at call
time, so the traced run's wrappers see every call the benchmark makes.

``request`` returns a JSON-able record of the answer and its deterministic
counters, with ``ok`` telling whether the answer passed its check. The
timed region covers the request and its check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

from degencomm import cli, comm, graphs, hpc, protocols, sisolver
from degencomm.cli import spawn_seed

# Sizes per mode. "full" is what the benchmark measures; "smoke" exercises
# the same code paths in well under a second, for the benchmark's tests.
SIZES = {
    "full": {
        "gadget": (32, 4),            # m, r: n = 1731, 0.76 M edges
        "graph_n": 1024,              # G(n, 4n)
        "walk_m": 64, "walk_pool": 20,
        "amplify": (0.5, 64, 0.5),    # reveal p, m, gamma: k = 15474 rounds
    },
    "smoke": {
        "gadget": (4, 1),
        "graph_n": 64,
        "walk_m": 8, "walk_pool": 5,
        "amplify": (1.0, 32, 0.9),
    },
}


class Workload:
    """One seeded request stream.

    ``prefix`` is the number of requests every run completes, however short
    its time; the result digest and deterministic counters cover exactly
    these, so runs of one commit at one seed must agree on them. Where it
    is 20, it also keeps the tail percentile defined the same way in every
    run (see ``run.tail``).
    """

    name = ""
    prefix = {"full": 1, "smoke": 1}

    def __init__(self, seed: int, mode: str, out_dir: str):
        self.seed = seed
        self.mode = mode
        self.sizes = SIZES[mode]
        self.out_dir = out_dir

    def setup(self) -> object:
        """One-off preparation; returns what requests need (the state)."""
        return None

    def fingerprint(self, state) -> str:
        """A stable text form of the state, to check that set-ups agree."""
        return ""

    def request(self, state, i: int) -> dict:
        raise NotImplementedError


class GadgetAudit(Workload):
    """``degencomm reduction`` with gadget export, one CLI call per request."""

    name = "gadget-audit"
    prefix = {"full": 2, "smoke": 2}

    def setup(self):
        export = os.path.join(self.out_dir, "gadget-export")
        os.makedirs(export, exist_ok=True)
        _empty(export)
        return export

    def request(self, export, i):
        m, r = self.sizes["gadget"]
        argv = ["reduction", "--m", str(m), "--r", str(r), "--trials", "1",
                "--emit-gadget", export, "--seed", str(spawn_seed(self.seed, i))]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            row = json.loads(out.getvalue())["rows"][0]
            path = row["gadget_file"]
            with open(path, encoding="ascii") as fh:
                vertices, edges = (int(x) for x in fh.readline().split())
            size = os.path.getsize(path) + os.path.getsize(path + ".json")
        finally:
            _empty(export)
        return {
            "exit": code,
            "bit_true": row["bit_true"],
            "kappa": row["kappa"],
            "d": row["d"],
            "gadget_vertices": vertices,
            "gadget_edges": edges,
            "gadget_bytes": size,
            "ok": (code == 0 and row["split_ok"] and row["trace_ok"]
                   and row["reload_ok"]),
        }


class TwoParty(Workload):
    """Fast-decider search then the sqrt decider at kappa, on G(n, 4n)."""

    name = "two-party"
    prefix = {"full": 20, "smoke": 4}

    def request(self, state, i):
        n = self.sizes["graph_n"]
        rng = random.Random(spawn_seed(self.seed, i))
        g = graphs.gnm_random_graph(n, 4 * n, rng)
        part = comm.random_partition(g, rng)
        kappa, _order, core, fast = protocols.degen_search(part)
        out, sqrt = protocols.degen_decide_sqrt(part, kappa)
        accepted = isinstance(out, graphs.Accept)
        return {
            "kappa": kappa,
            "core": len(core),
            "fast_bits": fast.bits_total,
            "fast_messages": len(fast.per_message),
            "fast_rounds": fast.rounds,
            "sqrt_bits": sqrt.bits_total,
            "sqrt_messages": len(sqrt.per_message),
            "sqrt_rounds": sqrt.rounds,
            "ok": (kappa == graphs.degeneracy(g) and accepted
                   and graphs.is_k_ordering(g, out.ordering, kappa)),
        }


class PointerWalk(Workload):
    """Aligned and misaligned four-party walks over a pool sampled in set-up.

    One request walks every pool entry once. A single entry takes about a
    millisecond, too little for a steady median and tail on a shared box.
    """

    name = "pointer-walk"
    prefix = {"full": 10, "smoke": 4}

    def setup(self):
        m, size = self.sizes["walk_m"], self.sizes["walk_pool"]
        pool = []
        for j in range(size):
            rng = random.Random(spawn_seed(self.seed, -1 - j))
            pool.append((hpc.sample_bmhpc(m, 1 + j % 5, rng),
                         hpc.sample_bhpc(m, 4, rng)))
        return pool

    def fingerprint(self, pool):
        return "\n".join(hpc.instance_to_json(inst)
                         for pair in pool for inst in pair)

    def request(self, pool, i):
        rng = random.Random(spawn_seed(self.seed, i))
        rec = {"bits": 0, "messages": 0, "rounds": 0, "mis_finished": 0,
               "mis_bits": 0, "mis_rounds": 0, "ok": True}
        for aligned, bhpc in pool:
            m, r = aligned.m, aligned.r
            bit, ledger = hpc.aligned_protocol(aligned, comm.RoundSchedule(r, "AB"))
            out, mis_ledger = hpc.misaligned_bhpc_protocol(bhpc, m, rng)
            # a misaligned walk may abstain; one that finishes must be right
            finished = out in (0, 1)
            budget = r * (m + 2 * math.ceil(math.log2(m))) + r
            rec["bits"] += ledger.bits_total
            rec["messages"] += len(ledger.per_message)
            rec["rounds"] += ledger.rounds
            rec["mis_finished"] += finished
            rec["mis_bits"] += mis_ledger.bits_total
            rec["mis_rounds"] += mis_ledger.rounds
            rec["ok"] = rec["ok"] and (
                bit == hpc.chase(aligned).bit and ledger.bits_total <= budget
                and (not finished or out == hpc.chase(bhpc).bit))
        return rec


class Amplify(Workload):
    """Criterion 11's operating point: one exact_from_eps call per request."""

    name = "amplify"
    prefix = {"full": 20, "smoke": 3}

    def setup(self):
        p, m, gamma = self.sizes["amplify"]
        solver = sisolver.RevealSolver(p)
        eps = sisolver.reveal_lambda(p, m)
        k = math.ceil(1600 / (eps * gamma * gamma))
        tau = sisolver.calibrate_tau(solver, m, k,
                                     random.Random(spawn_seed(self.seed, -1)))
        return solver, eps, tau

    def fingerprint(self, state):
        return repr(state[1:])

    def request(self, state, i):
        solver, eps, tau = state
        _p, m, gamma = self.sizes["amplify"]
        rng = random.Random(spawn_seed(self.seed, i))
        inst = sisolver.sample_setint(m, rng)
        out = sisolver.exact_from_eps(inst.X, inst.Y, solver, eps, gamma, rng,
                                      tau=tau)
        if isinstance(out, sisolver.Failure):
            # fail-closed outcomes are part of the experiment, not failures
            return {"outcome": out.kind, "rounds": out.state.k_rounds,
                    "ok": out.kind in ("overflow", "empty-intersection")}
        return {"outcome": "exact", "answer": out, "ok": out == inst.e_star}


WORKLOADS = {w.name: w for w in (GadgetAudit, TwoParty, PointerWalk, Amplify)}


def _empty(directory: str) -> None:
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
