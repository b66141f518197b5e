"""Record the golden CLI matrix: a fixed set of ``degencomm`` runs.

Usage::

    python3 scripts/golden_matrix.py OUTDIR

Runs the command line of the checkout this script sits in (its ``src/``
goes first on ``PYTHONPATH``) once per entry of ``RUNS``. Each run gets
its own directory ``OUTDIR/<name>/``, which is also its working
directory, holding ``argv``, ``stdout``, ``stderr``, ``exit_code`` and
whatever the run wrote there (the ``--emit-gadget`` files). The
``--graph`` runs decide graph files this script writes itself in
``OUTDIR``:

* ``graph.txt``: K8 followed by 52 vertices that each join 3 earlier
  ones, so its degeneracy is 7 and the decision flips between k = 6 and
  k = 7;
* ``graph-dense.txt``: G(40, 1/2) with 406 edges, at least eight per
  vertex; its degeneracy is 16;
* ``graph-loose.txt`` and ``graph-dense-loose.txt``: the same two graphs
  laid out by hand (the first row moved to the end, one blank line, one
  CRLF line end, one leading zero). Their runs must print what the runs
  of the canonical files do;
* ``graph-empty.txt`` and ``graph-sparse.txt``: 5 000 vertices with no
  edges, and G(5 000, 5 000), whose 2-core is nonempty and whose
  degeneracy is 2. Far below the density cut, these are peeled by the
  sparse path, where most vertices share the least degree.

The last runs are refusals that must exit 2: sweep flags given with
``--graph``.

Everything is seeded, so two checkouts that behave the same give
byte-identical trees; compare them with ``diff -r``. Standard library
only; the script imports nothing from the package.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

KAPPA = 7
DENSE_KAPPA = 16
SPARSE_N = 5000

RUNS: list[tuple[str, list[str]]] = [
    *[(f"degeneracy-n{n}-{fmt}",
       ["degeneracy", "--n", str(n), "--trials", "4", "--seed", "7",
        "--format", fmt])
      for n in (0, 1, 20, 40, 150) for fmt in ("json", "csv")],
    *[(f"degeneracy-graph-k{k}",
       ["degeneracy", "--graph", "../graph.txt", "--k", str(k), "--seed", "3"])
      for k in (0, 2, 4, 12, 59)],
    ("reduction-sweep-m4", ["reduction", "--m", "4", "--r", "2",
                            "--trials", "3", "--seed", "5"]),
    ("reduction-sweep-m8-csv", ["reduction", "--m", "8", "--r", "1",
                                "--trials", "2", "--seed", "5",
                                "--format", "csv"]),
    ("reduction-naive", ["reduction", "--m", "4", "--r", "1", "--trials", "2",
                         "--seed", "5", "--streaming", "naive"]),
    ("reduction-store-all", ["reduction", "--m", "4", "--r", "1",
                             "--trials", "2", "--seed", "5",
                             "--streaming", "store-all"]),
    ("reduction-naive-m8", ["reduction", "--m", "8", "--r", "1",
                            "--trials", "2", "--seed", "5",
                            "--streaming", "naive"]),
    ("reduction-store-all-m8-r2", ["reduction", "--m", "8", "--r", "2",
                                   "--trials", "1", "--seed", "5",
                                   "--streaming", "store-all"]),
    ("reduction-emit-gadget", ["reduction", "--m", "4", "--r", "1",
                               "--trials", "2", "--seed", "9",
                               "--emit-gadget", "gadgets"]),
    # a gadget with ids above 256 whose padding spans several fill chunks
    ("reduction-emit-gadget-m16", ["reduction", "--m", "16", "--r", "2",
                                   "--trials", "1", "--seed", "9",
                                   "--emit-gadget", "gadgets"]),
    ("hpc-aligned", ["hpc", "--m", "16", "--r", "3", "--trials", "20",
                     "--seed", "4"]),
    *[(f"hpc-misaligned-N{N}",
       ["hpc", "--m", "16", "--r", "3", "--trials", "20", "--seed", "4",
        "--misaligned", "--N", str(N)])
      for N in (0, 8, 16)],
    # the pointer-walk benchmark's shape: a full table at 6-bit width
    ("hpc-misaligned-m64-N64", ["hpc", "--m", "64", "--r", "4",
                                "--trials", "20", "--seed", "4",
                                "--misaligned", "--N", "64"]),
    ("info", ["info", "--fuzz-lambda", "200", "--seed", "3"]),
    ("sisolver", ["sisolver", "--m", "32", "--p", "0.9", "--gamma", "0.9",
                  "--trials", "4", "--seed", "2"]),
    ("sisolver-csv", ["sisolver", "--m", "32", "--p", "0.9", "--gamma", "0.9",
                      "--trials", "4", "--seed", "2", "--format", "csv"]),
    ("sisolver-m64", ["sisolver", "--m", "64", "--p", "0.5", "--gamma", "0.5",
                      "--trials", "2", "--seed", "3"]),
    *[(f"degeneracy-graph-kappa{k - KAPPA:+d}",
       ["degeneracy", "--graph", "../graph.txt", "--k", str(k), "--seed", "3"])
      for k in (KAPPA - 1, KAPPA, KAPPA + 1)],
    *[(f"degeneracy-{stem}-kappa{k - kappa:+d}",
       ["degeneracy", "--graph", f"../{stem}.txt", "--k", str(k),
        "--seed", "3"])
      for stem, kappa in (("graph-loose", KAPPA), ("graph-dense", DENSE_KAPPA),
                          ("graph-dense-loose", DENSE_KAPPA))
      for k in (kappa - 1, kappa)],
    ("degeneracy-graph-empty-k0",
     ["degeneracy", "--graph", "../graph-empty.txt", "--k", "0", "--seed", "3"]),
    *[(f"degeneracy-graph-sparse-k{k}",
       ["degeneracy", "--graph", "../graph-sparse.txt", "--k", str(k),
        "--seed", "3"])
      for k in (1, 2)],
    *[(f"degeneracy-graph-refuses-{flag}",
       ["degeneracy", "--graph", "../graph.txt", "--k", "3", f"--{flag}", "5"])
      for flag in ("n", "trials")],
]


def graph_text() -> str:
    """K8 on 0..7, then vertices 8..59 each joined to 3 earlier ones."""
    rng = random.Random(2024)
    edges = [(u, v) for v in range(KAPPA + 1) for u in range(v)]
    for v in range(KAPPA + 1, 60):
        edges += [(u, v) for u in sorted(rng.sample(range(v), 3))]
    edges.sort()
    return f"60 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def dense_graph_text() -> str:
    """G(40, 1/2): each of the 780 pairs kept with probability 1/2."""
    rng = random.Random(2025)
    edges = [(u, v) for u in range(40) for v in range(u + 1, 40)
             if rng.random() < 0.5]
    return f"40 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def sparse_graph_text() -> str:
    """G(SPARSE_N, SPARSE_N): uniform pairs drawn until that many differ."""
    rng = random.Random(2026)
    edges: set[tuple[int, int]] = set()
    while len(edges) < SPARSE_N:
        u, v = sorted(rng.sample(range(SPARSE_N), 2))
        edges.add((u, v))
    return (f"{SPARSE_N} {SPARSE_N}\n"
            + "".join(f"{u} {v}\n" for u, v in sorted(edges)))


def loose_text(text: str) -> str:
    """The same graph by hand: the lines of the first row moved to the
    end, and two thirds of the way in, a blank line, then a line ending
    in CRLF, then a line whose first endpoint has a leading zero."""
    header, *lines = text.splitlines()
    first = lines[0].split()[0] + " "
    lines = ([line for line in lines if not line.startswith(first)]
             + [line for line in lines if line.startswith(first)])
    at = 2 * len(lines) // 3
    lines[at:at + 2] = ["", lines[at] + "\r", "0" + lines[at + 1]]
    return "\n".join([header, *lines]) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: golden_matrix.py OUTDIR", file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    for name, text in (("graph", graph_text()),
                       ("graph-dense", dense_graph_text())):
        for suffix, data in (("", text), ("-loose", loose_text(text))):
            with open(os.path.join(out, f"{name}{suffix}.txt"), "wb") as fh:
                fh.write(data.encode("ascii"))
    for name, text in (("graph-empty", f"{SPARSE_N} 0\n"),
                       ("graph-sparse", sparse_graph_text())):
        with open(os.path.join(out, f"{name}.txt"), "wb") as fh:
            fh.write(text.encode("ascii"))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, DEGENCOMM_WORKERS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [os.path.abspath(src)]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name, args in RUNS:
        run_dir = os.path.join(out, name)
        os.makedirs(run_dir, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "degencomm.cli", *args],
                              cwd=run_dir, env=env, capture_output=True)
        for fname, data in (("argv", " ".join(args) + "\n"),
                            ("stdout", proc.stdout), ("stderr", proc.stderr),
                            ("exit_code", f"{proc.returncode}\n")):
            mode = "w" if isinstance(data, str) else "wb"
            with open(os.path.join(run_dir, fname), mode) as fh:
                fh.write(data)
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
