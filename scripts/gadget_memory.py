"""Peak memory and wall time of the gadget path, one fresh process per size.

Usage::

    python3 scripts/gadget_memory.py [--sizes 32x4,64x4,64x8] [--seed 1]

For each size m x r, a new Python process imports the package from the
``src/`` of the checkout this script sits in, samples one instance with
``sample_bmhpc(m, r, Random(seed))`` and runs four stages in turn:
``build_gadget`` (which includes its audit), ``trace_invariants`` (one
peel and its checks), ``save_gadget`` into a temporary directory, and
``load_gadget`` (which parses and audits the file again). After each
stage it prints the stage's wall time and the process's peak resident
set so far (``ru_maxrss``), so a stage's line shows the peak up to and
including that stage. After the build it also prints the bytes of the
packed neighbour array, ``len(nbrs) * itemsize``, which each stage's
peak can be read against. Standard library only.
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


def measure(m: int, r: int, seed: int) -> None:
    """Run the four stages on one m x r gadget and print a line for each."""
    sys.path.insert(0, SRC)
    from degencomm.gadget import build_gadget, load_gadget, save_gadget
    from degencomm.hpc import sample_bmhpc
    from degencomm.reduction import trace_invariants

    inst = sample_bmhpc(m, r, random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gadget.txt")
        stages = [
            ("build", lambda: build_gadget(inst)),
            ("trace", lambda: trace_invariants(gg, inst)),
            ("save", lambda: save_gadget(gg, path)),
            ("load", lambda: load_gadget(path)),
        ]
        for name, stage in stages:
            t0 = time.perf_counter()
            out = stage()
            wall = time.perf_counter() - t0
            if name == "build":
                gg = out
                nbrs = gg.graph.nbrs
                packed = len(nbrs) * nbrs.itemsize / 2**20
                print(f"m={m} r={r}: n={gg.graph.n}, edges={gg.graph.m}, "
                      f"packed nbrs {packed:.1f} MB ({nbrs.itemsize} B per id)")
            print(f"  {name:<5} {wall:7.2f} s   peak RSS {peak_mb():8.1f} MB",
                  flush=True)
            del out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="32x4,64x4,64x8",
                    help="comma-separated m x r pairs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--one", nargs=2, type=int, metavar=("M", "R"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        measure(*args.one, args.seed)
        return 0
    for size in args.sizes.split(","):
        m, r = (int(x) for x in size.split("x"))
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--one", str(m), str(r),
                               "--seed", str(args.seed)])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
