"""Batch experiment runner tying the library together behind one command.

Five subcommands, one per experiment family:

* ``degeneracy``: two-party degeneracy search sweeps over random edge
  splits, cross-checked against sequential peeling (and, on small
  graphs, the exhaustive oracle); or a single decision on a graph file.
* ``reduction``: gadget build plus answer-split and peel-trace audits
  over sampled instances; optionally replays a streaming algorithm
  through the bounded-pass harness or exports the gadgets to disk.
* ``hpc``: four-party pointer-walk protocol sweeps, aligned or
  misaligned with pre-solving.
* ``info``: randomized checks of the information-measure toolbox.
* ``sisolver``: amplification trials for synthetic reveal solvers.

Every subcommand is deterministic given ``--seed``: trial i runs on an
independent generator seeded by sha256("{seed}:{i}") (``spawn_seed``).
Output is byte-identical whether the trials of the degeneracy sweep,
reduction, hpc and info run serially (the default) or on a process pool
capped by ``DEGENCOMM_WORKERS``; sisolver and the single decision run
serially on trial 0's seed. Output goes to stdout or ``--out``, as JSON
(everything) or CSV (the columns below): one row per sweep trial, one
for a single decision or a summary (hpc, info, sisolver).

CSV columns by subcommand:

* degeneracy sweep: n, kappa, bits_total, updates_max
* degeneracy single decision: n, k, accept, bits_total, updates_max
* reduction sweep: m, r, bit_true, kappa, d, split_ok, trace_ok
* reduction streaming: m, r, n, p, bit_true, bit, phases,
  max_state_bits, bits_total, ok
* hpc: mode, m, r, presolve, trials, finished, correct, success_rate
* info: trials, violations
* sisolver: m, p, gamma, eps, k_rounds, tau, trials, success,
  success_rate, overflow, empty_intersection

Exit codes: 0 when every check in the run passed, 1 when some check
failed, 2 on usage, configuration, or file-format errors and when the
run runs out of memory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import sys

from .comm import ProtocolError, RoundSchedule, random_partition
from .gadget import _read_gadget, build_gadget, save_gadget
from .graphs import (
    Accept,
    brute_force_degeneracy,
    degeneracy,
    gnm_random_graph,
    load_graph,
    peel_decision,
)
from .hpc import (
    ABSTAIN,
    aligned_protocol,
    chase,
    misaligned_bhpc_protocol,
    sample_bhpc,
    sample_bmhpc,
)
from .info import (
    conditional_mutual_information,
    entropy,
    mutual_information,
    triangular_discrimination,
    tvd,
)
from .protocols import degen_decide_fast, degen_search
from .reduction import NaivePeeler, StoreAllDecider, full_report, simulate_streaming_reduction
from .sisolver import RevealSolver, reveal_lambda, solver_experiment


def spawn_seed(master: int, index: int) -> int:
    """Derive an independent 64-bit seed for trial ``index``."""
    digest = hashlib.sha256(f"{master}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _worker_count() -> int:
    raw = os.environ.get("DEGENCOMM_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"DEGENCOMM_WORKERS must be an integer, got {raw!r}")
    return max(1, workers)


def _need_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")


def _run_trials(fn, tasks):
    workers = _worker_count()
    if workers == 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    # imported here: a serial run never pays for the import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _emit(args, body: dict, rows: list[dict], columns: list[str],
          ok: bool) -> int:
    """Write the report and return the exit code: 0 when ok, else 1.

    The JSON report is body plus the command, the seed and ok; the CSV
    report is the listed columns of rows.
    """
    if args.format == "json":
        payload = {"command": args.command, "seed": args.seed, **body, "ok": ok}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        text = buf.getvalue()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# degeneracy


def _degeneracy_trial(task: tuple[int, int]) -> dict:
    n, seed = task
    rng = random.Random(seed)
    cap = min(n * (n - 1) // 2, 4 * n)
    g = gnm_random_graph(n, rng.randint(0, cap), rng)
    part = random_partition(g, rng)
    stats: dict = {}
    kappa, order, core, ledger = degen_search(part, stats=stats)
    ok = kappa == degeneracy(g)
    if ok and n <= 12:
        ok = kappa == brute_force_degeneracy(g)
    return {
        "n": n,
        "kappa": kappa,
        "bits_total": ledger.bits_total,
        "updates_max": stats.get("updates_max", 0),  # no probe when n = 0
        "ok": ok,
    }


def cmd_degeneracy(args) -> int:
    if args.graph is None and args.k is not None:
        raise ValueError("--k needs --graph")
    if args.graph is not None:
        if args.k is None:
            raise ValueError("--graph needs --k to decide against")
        for flag, value in (("--n", args.n), ("--trials", args.trials)):
            if value is not None:
                raise ValueError(f"{flag} needs the sweep, not --graph")
        g = load_graph(args.graph)
        part = random_partition(g, random.Random(spawn_seed(args.seed, 0)))
        stats: dict = {}
        out, ledger = degen_decide_fast(part, args.k, stats=stats)
        accept = isinstance(out, Accept)
        ok = accept == isinstance(peel_decision(g, args.k), Accept)
        rows = [{
            "n": g.n,
            "k": args.k,
            "accept": accept,
            "bits_total": ledger.bits_total,
            "updates_max": stats["updates_max"],
            "ok": ok,
        }]
        columns = ["n", "k", "accept", "bits_total", "updates_max"]
    else:
        n = 32 if args.n is None else args.n
        trials = 100 if args.trials is None else args.trials
        if n < 0:
            raise ValueError(f"--n must be >= 0, got {n}")
        _need_trials(trials)
        tasks = [(n, spawn_seed(args.seed, i)) for i in range(trials)]
        rows = _run_trials(_degeneracy_trial, tasks)
        columns = ["n", "kappa", "bits_total", "updates_max"]
    return _emit(args, {"rows": rows}, rows, columns,
                 all(r["ok"] for r in rows))


# ---------------------------------------------------------------------------
# reduction


def _reduction_trial(task: tuple[int, int, int, str | None]) -> dict:
    m, r, seed, emit_dir = task
    rng = random.Random(seed)
    inst = sample_bmhpc(m, r, rng)
    gg = build_gadget(inst)
    rep = full_report(gg, inst)
    row = {
        "m": m,
        "r": r,
        "bit_true": rep.bit_true,
        "kappa": rep.kappa,
        "d": rep.d,
        "split_ok": rep.split_ok,
        "trace_ok": all(rec.ok for rec in rep.trace),
    }
    if emit_dir is not None:
        path = os.path.join(emit_dir, f"gadget_m{m}_r{r}_{seed:016x}.txt")
        save_gadget(gg, path)
        # verify_gadget reads only the graph, m and r, so a reload equal
        # to the audited build in these passes it too
        reloaded = _read_gadget(path)
        row["gadget_file"] = path
        row["reload_ok"] = (reloaded.graph == gg.graph
                            and (reloaded.m, reloaded.r) == (gg.m, gg.r))
    row["ok"] = row["split_ok"] and row["trace_ok"] and row.get("reload_ok", True)
    return row


def _streaming_trial(task: tuple[int, int, int, str, int | None]) -> dict:
    m, r, seed, algname, budget = task
    rng = random.Random(seed)
    inst = sample_bmhpc(m, r, rng)
    gg = build_gadget(inst)
    n = gg.graph.n
    if budget is None:
        budget = 1 if algname == "store-all" else n
    alg = StoreAllDecider() if algname == "store-all" else NaivePeeler()
    try:
        sim = simulate_streaming_reduction(gg, alg, budget)
    except ProtocolError as exc:
        raise ValueError(f"pass budget --p {budget} is too small for "
                         f"--streaming {algname}: {exc}") from None
    bit_true = chase(inst).bit
    return {
        "m": m,
        "r": r,
        "n": n,
        "p": budget,
        "bit_true": bit_true,
        "bit": sim.bit,
        "phases": sim.phases,
        "max_state_bits": sim.max_state_bits,
        "bits_total": sim.ledger.bits_total,
        "ok": sim.bit == bit_true,
    }


def cmd_reduction(args) -> int:
    if args.streaming is None and args.p is not None:
        raise ValueError("--p needs --streaming")
    if args.streaming is not None and args.emit_gadget is not None:
        raise ValueError("--emit-gadget needs the plain sweep, not --streaming")
    _need_trials(args.trials)
    if args.emit_gadget is not None:
        os.makedirs(args.emit_gadget, exist_ok=True)
    if args.streaming is not None:
        try:
            budget = None if args.p in (None, "auto") else int(args.p)
        except ValueError:
            raise ValueError(
                f"--p must be 'auto' or an integer, got {args.p!r}") from None
        tasks = [
            (args.m, args.r, spawn_seed(args.seed, i), args.streaming, budget)
            for i in range(args.trials)
        ]
        rows = _run_trials(_streaming_trial, tasks)
        columns = ["m", "r", "n", "p", "bit_true", "bit", "phases",
                   "max_state_bits", "bits_total", "ok"]
    else:
        tasks = [
            (args.m, args.r, spawn_seed(args.seed, i), args.emit_gadget)
            for i in range(args.trials)
        ]
        rows = _run_trials(_reduction_trial, tasks)
        columns = ["m", "r", "bit_true", "kappa", "d", "split_ok", "trace_ok"]
    return _emit(args, {"rows": rows}, rows, columns,
                 all(r["ok"] for r in rows))


# ---------------------------------------------------------------------------
# hpc


def _hpc_trial(task: tuple[int, int, bool, int, int]) -> dict:
    m, r, misaligned, presolve, seed = task
    rng = random.Random(seed)
    if misaligned:
        inst = sample_bhpc(m, r, rng)
        out, ledger = misaligned_bhpc_protocol(inst, presolve, rng)
    else:
        inst = sample_bmhpc(m, r, rng)
        out, ledger = aligned_protocol(inst, RoundSchedule(r, "AB"))
    finished = out is not ABSTAIN
    return {
        "finished": finished,
        "correct": finished and out == chase(inst).bit,
        "bits_total": ledger.bits_total,
    }


def cmd_hpc(args) -> int:
    if args.N is not None and not args.misaligned:
        raise ValueError("--N needs --misaligned")
    _need_trials(args.trials)
    presolve = 0 if args.N is None else args.N
    tasks = [
        (args.m, args.r, args.misaligned, presolve, spawn_seed(args.seed, i))
        for i in range(args.trials)
    ]
    outcomes = _run_trials(_hpc_trial, tasks)
    finished = sum(1 for o in outcomes if o["finished"])
    correct = sum(1 for o in outcomes if o["correct"])
    summary = {
        "mode": "misaligned" if args.misaligned else "aligned",
        "m": args.m,
        "r": args.r,
        "presolve": presolve,
        "trials": args.trials,
        "finished": finished,
        "correct": correct,
        "success_rate": correct / args.trials,
        "bits_total_max": max(o["bits_total"] for o in outcomes),
    }
    columns = ["mode", "m", "r", "presolve", "trials", "finished",
               "correct", "success_rate"]
    # A finished walk must be right; abstaining is the only excuse.
    return _emit(args, {"summary": summary}, [summary], columns,
                 all(o["correct"] for o in outcomes if o["finished"]))


# ---------------------------------------------------------------------------
# info


def _random_distribution(rng: random.Random, size: int) -> list[float]:
    weights = [rng.random() for _ in range(size)]
    if rng.random() < 0.3:
        keep = rng.randint(1, size)
        for i in rng.sample(range(size), size - keep):
            weights[i] = 0.0
    total = sum(weights)
    if total == 0.0:
        return [1.0 / size] * size
    return [w / total for w in weights]


def _info_trial(seed: int) -> int:
    rng = random.Random(seed)
    violations = 0
    size = rng.randint(2, 8)
    mu = _random_distribution(rng, size)
    nu = _random_distribution(rng, size)
    lam = triangular_discrimination(mu, nu)
    if not 0.0 <= lam <= tvd(mu, nu) + 1e-12:
        violations += 1

    na, nb = rng.randint(2, 5), rng.randint(2, 5)
    pa = _random_distribution(rng, na)
    pb = _random_distribution(rng, nb)
    if rng.random() < 0.25:
        table = [[pa[a] * pb[b] for b in range(nb)] for a in range(na)]
        if abs(mutual_information(table)) > 1e-9:
            violations += 1
    else:
        cells = _random_distribution(rng, na * nb)
        table = [cells[a * nb:(a + 1) * nb] for a in range(na)]
        mi = mutual_information(table)
        row = [sum(table[a]) for a in range(na)]
        col = [sum(table[a][b] for a in range(na)) for b in range(nb)]
        if not -1e-12 <= mi <= min(entropy(row), entropy(col)) + 1e-9:
            violations += 1

    nc = rng.randint(2, 3)
    cells3 = _random_distribution(rng, na * nb * nc)
    cube = [[[cells3[(a * nb + b) * nc + c] for c in range(nc)]
             for b in range(nb)] for a in range(na)]
    if conditional_mutual_information(cube) < -1e-12:
        violations += 1
    return violations


def cmd_info(args) -> int:
    _need_trials(args.fuzz_lambda)
    tasks = [spawn_seed(args.seed, i) for i in range(args.fuzz_lambda)]
    violations = sum(_run_trials(_info_trial, tasks))
    summary = {"trials": args.fuzz_lambda, "violations": violations}
    return _emit(args, {"summary": summary}, [summary],
                 ["trials", "violations"], violations == 0)


# ---------------------------------------------------------------------------
# sisolver


def cmd_sisolver(args) -> int:
    eps = args.eps if args.eps is not None else reveal_lambda(args.p, args.m)
    rng = random.Random(spawn_seed(args.seed, 0))
    solver = RevealSolver(args.p)
    result = solver_experiment(solver, eps, args.m, args.gamma, args.trials, rng)
    rate = result["success"] / args.trials
    flat = {
        "m": args.m,
        "p": args.p,
        "gamma": args.gamma,
        "eps": eps,
        "k_rounds": result["k_rounds"],
        "tau": result["tau"],
        "trials": args.trials,
        "success": result["success"],
        "success_rate": rate,
        "overflow": result["failure_kind"]["overflow"],
        "empty_intersection": result["failure_kind"]["empty-intersection"],
    }
    columns = ["m", "p", "gamma", "eps", "k_rounds", "tau", "trials",
               "success", "success_rate", "overflow", "empty_intersection"]
    body = {"p": args.p, "result": result, "success_rate": rate}
    return _emit(args, body, [flat], columns,
                 args.min_success is None or rate >= args.min_success)


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sp) -> None:
    sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degencomm",
        description="experiment sweeps over degeneracy protocols and their gadgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("degeneracy", help="two-party degeneracy search sweeps")
    sp.add_argument("--n", type=int, help="vertices per random graph (default 32)")
    sp.add_argument("--trials", type=int, help="random graphs (default 100)")
    sp.add_argument("--graph", default=None, help="decide one graph file instead")
    sp.add_argument("--k", type=int, default=None, help="decision threshold for --graph")
    _add_common(sp)
    sp.set_defaults(fn=cmd_degeneracy)

    sp = sub.add_parser("reduction", help="gadget build and audit sweeps")
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--emit-gadget", default=None, metavar="DIR",
                    help="write each gadget (its structural edges and an "
                         "m, r, d sidecar) here")
    sp.add_argument("--streaming", choices=("naive", "store-all"), default=None,
                    help="replay this reference algorithm through the harness")
    sp.add_argument("--p", default=None,
                    help="pass budget for --streaming, or 'auto' (the default)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_reduction)

    sp = sub.add_parser("hpc", help="four-party pointer-walk sweeps")
    sp.add_argument("--m", type=int, default=16)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--misaligned", action="store_true",
                    help="wrong pair opens; rescued by pre-solving")
    sp.add_argument("--N", type=int, default=None,
                    help="pre-solved coordinates for --misaligned (default 0)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_hpc)

    sp = sub.add_parser("info", help="randomized information-measure checks")
    sp.add_argument("--fuzz-lambda", type=int, default=1000, metavar="TRIALS")
    _add_common(sp)
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("sisolver", help="amplification trials for reveal solvers")
    sp.add_argument("--p", type=float, default=0.5, help="reveal probability")
    sp.add_argument("--m", type=int, default=64)
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--eps", type=float, default=None,
                    help="claimed advantage (default: the solver's closed form)")
    sp.add_argument("--min-success", type=float, default=None,
                    help="fail the run when the success rate lands below this")
    _add_common(sp)
    sp.set_defaults(fn=cmd_sisolver)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
    except MemoryError:  # reported once the handler frees what the run held
        message = "out of memory"
    print(f"degencomm: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
