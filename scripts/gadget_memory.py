"""Peak memory and wall time of the gadget path, in fresh processes per size.

Usage::

    python3 scripts/gadget_memory.py [--sizes 32x4,64x4,64x8] [--seed 1]

For each size m x r, a new Python process imports the package from the
``src/`` of the checkout this script sits in, samples one instance with
``sample_bmhpc(m, r, Random(seed))`` and runs six stages in turn:
``build_gadget`` (which includes its audit), ``verify_gadget`` on the
built gadget (that audit again, timed on its own), ``trace_invariants``
(one peel and its checks), ``simulate_streaming_reduction`` with a
one-pass algorithm that ignores its edges (so the stage is the
harness's own edge filing, padding plan and replay), ``save_gadget``
into a temporary directory, and ``pad``: ``gadget._padded`` on the
built gadget's structural graph, which is the padding plan and
``AuxPadding.pack`` alone, as the build and the reload run them (the
structural graph is cut out before the stage, and the stage comes last
so that its second gadget-sized graph is in no other stage's peak).
After each stage it prints the stage's wall time and the process's peak
resident set so far (``ru_maxrss``), so a stage's line shows the peak
up to and including that stage. After the build it also prints the
bytes of the packed neighbour array, ``len(nbrs) * itemsize``, which
each stage's peak can be read against, and after the save the bytes of
the graph file and its sidecar. A second new process then runs
``load_gadget`` on the saved files (it parses the structural edges,
rebuilds the padding and audits the result), so the load line's peak
is the reload's own. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def peak_mb() -> float:
    """The process's peak resident set so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _stage(name: str, stage):
    """Run stage() and print its wall time and the peak RSS so far."""
    t0 = time.perf_counter()
    out = stage()
    wall = time.perf_counter() - t0
    print(f"  {name:<6} {wall:7.3f} s   peak RSS {peak_mb():8.1f} MB",
          flush=True)
    return out


class NoOp:
    """A one-pass streaming algorithm that does nothing with its edges."""

    def init(self, n: int) -> None:
        pass

    def begin_pass(self) -> None:
        pass

    def process_edge(self, u: int, v: int) -> None:
        pass

    def end_pass(self) -> bool:
        return False

    def finalize(self, k: int) -> bool:
        return False

    def snapshot_state(self) -> str:
        return ""

    def restore_state(self, bits: str) -> None:
        pass


def measure(m: int, r: int, seed: int, path: str) -> None:
    """Build, audit, trace, stream and save one m x r gadget at path,
    then pad its structural graph again; print each stage."""
    sys.path.insert(0, SRC)
    from degencomm.gadget import (_padded, _structural, build_gadget,
                                  save_gadget, verify_gadget)
    from degencomm.hpc import sample_bmhpc
    from degencomm.reduction import (simulate_streaming_reduction,
                                     trace_invariants)

    inst = sample_bmhpc(m, r, random.Random(seed))
    print(f"m={m} r={r}:", flush=True)
    gg = _stage("build", lambda: build_gadget(inst))
    nbrs = gg.graph.nbrs
    packed = len(nbrs) * nbrs.itemsize / 2**20
    print(f"  n={gg.graph.n}, edges={gg.graph.m}, "
          f"packed nbrs {packed:.1f} MB ({nbrs.itemsize} B per id)")
    if not _stage("audit", lambda: verify_gadget(gg)).ok:
        raise SystemExit("the built gadget fails its audit")
    _stage("trace", lambda: trace_invariants(gg, inst))
    _stage("stream", lambda: simulate_streaming_reduction(gg, NoOp(), 1))
    _stage("save", lambda: save_gadget(gg, path))
    size = os.path.getsize(path) / 2**20
    side = os.path.getsize(path + ".json")
    print(f"  file  {size:7.2f} MB, sidecar {side} B", flush=True)
    s = _structural(gg.graph, gg.graph.n - gg.d)
    if _stage("pad", lambda: _padded(m, r, s)).graph != gg.graph:
        raise SystemExit("the repadded gadget differs from the build")


def reload(path: str) -> None:
    """Load and audit the gadget saved at path; print the stage."""
    sys.path.insert(0, SRC)
    from degencomm.gadget import load_gadget

    _stage("load", lambda: load_gadget(path))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="32x4,64x4,64x8",
                    help="comma-separated m x r pairs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--one", nargs=3, metavar=("M", "R", "PATH"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--load", metavar="PATH", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        m, r, path = args.one
        measure(int(m), int(r), args.seed, path)
        return 0
    if args.load:
        reload(args.load)
        return 0
    me = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed)]
    for size in args.sizes.split(","):
        m, r = size.split("x")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gadget.txt")
            for extra in (["--one", m, r, path], ["--load", path]):
                done = subprocess.run(me + extra)
                if done.returncode:
                    return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
