"""Out-of-band tracing for the benchmark's traced run.

The tracer wraps public functions of the degencomm modules from outside:
each wrapped function is replaced in every ``degencomm.*`` namespace that
binds it, so a call is seen whichever import path the caller used. Each
call records a span (name, start, end, parent span, request id) in
in-memory arrays; self time is the span's duration minus the durations
of its child spans. Hooks read the values a call returns (ledgers,
gadgets, outcomes) and turn them into counters at the same boundary.

Nothing under ``src/`` knows about any of this; ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from array import array
from collections import defaultdict

SETUP = -1  # request id of spans recorded while the workload sets up


# ---------------------------------------------------------------------------
# hooks: (tracer, args, kwargs, result) -> None, run after the call returns


def _ledger(tr, args, kwargs, result):
    ledger = result[1]
    tr.count("comm.ledger.bits", ledger.bits_total)
    tr.count("comm.ledger.messages", len(ledger.per_message))
    tr.count("comm.ledger.rounds", ledger.rounds)


def _two_party(tr, args, kwargs, result):
    _ledger(tr, args, kwargs, result)
    # degen_search's default decider is bound at definition time, so its
    # probes are only visible here, as runner calls under degen_search.
    if tr.is_open("protocols.degen_search"):
        tr.count("protocols.probes")


def _degen_search(tr, args, kwargs, result):
    tr.count("protocols.fast.bits", result[3].bits_total)


def _degen_sqrt(tr, args, kwargs, result):
    tr.count("protocols.sqrt.bits", result[1].bits_total)


def _build_gadget(tr, args, kwargs, result):
    tr.count("gadget.edges", result.graph.m)
    tr.count("gadget.vertices", result.graph.n)


def _save_gadget(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("gadget.bytes_written",
             os.path.getsize(path) + os.path.getsize(path + ".json"))


def _full_report(tr, args, kwargs, result):
    records = result.trace or []
    tr.count("reduction.trace.records", len(records))
    tr.count("reduction.trace.ok", sum(1 for rec in records if rec.ok))


def _misaligned(tr, args, kwargs, result):
    tr.count("hpc.misaligned.calls")
    if result[0] in (0, 1):
        tr.count("hpc.misaligned.finished")


def _solver_run(tr, args, kwargs, result):
    if tr.is_open("sisolver.exact_from_eps"):
        tr.count("sisolver.rounds")


def _exact_from_eps(tr, args, kwargs, result):
    kind = getattr(result, "kind", None)
    tr.count({None: "sisolver.success", "overflow": "sisolver.overflow",
              "empty-intersection": "sisolver.empty_intersection"}.get(
                  kind, "sisolver.other_failure"))


# (module, attribute, label, hook). Labels name the layer and function;
# a dotted attribute is a method, patched on its class.
WRAPPED = (
    ("graphs", "peel", "graphs.peel", None),
    ("graphs", "loads_graph", "graphs.loads_graph", None),
    ("graphs", "dumps_graph", "graphs.dumps_graph", None),
    ("graphs", "gnm_random_graph", "graphs.gnm_random_graph", None),
    ("gadget", "build_gadget", "gadget.build_gadget", _build_gadget),
    ("gadget", "verify_gadget", "gadget.verify_gadget", None),
    ("gadget", "save_gadget", "gadget.save_gadget", _save_gadget),
    ("gadget", "load_gadget", "gadget.load_gadget", None),
    ("reduction", "full_report", "reduction.full_report", _full_report),
    ("reduction", "trace_invariants", "reduction.trace_invariants", None),
    ("protocols", "degen_search", "protocols.degen_search", _degen_search),
    ("protocols", "degen_decide_sqrt", "protocols.degen_decide_sqrt", _degen_sqrt),
    ("comm", "run_two_party", "comm.run_two_party", _two_party),
    ("comm", "run_four_party", "comm.run_four_party", _ledger),
    ("comm", "random_partition", "comm.random_partition", None),
    ("hpc", "sample_setint", "hpc.sample_setint", None),
    ("hpc", "sample_bmhpc", "hpc.sample_bmhpc", None),
    ("hpc", "sample_bhpc", "hpc.sample_bhpc", None),
    ("hpc", "aligned_protocol", "hpc.aligned_protocol", None),
    ("hpc", "misaligned_bhpc_protocol", "hpc.misaligned_bhpc_protocol", _misaligned),
    ("hpc", "chase", "hpc.chase", None),
    ("sisolver", "calibrate_tau", "sisolver.calibrate_tau", None),
    ("sisolver", "exact_from_eps", "sisolver.exact_from_eps", _exact_from_eps),
    ("sisolver", "RevealSolver.run", "sisolver.solver.run", _solver_run),
    ("sisolver", "RevealSolver.posterior", "sisolver.solver.posterior", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Spans and counters for one traced run, keyed by request id.

    ``request`` is the id stamped on new spans: ``SETUP`` while the
    workload sets up, then the request index. Counters are summed over
    set-up, over all requests, and over the first ``prefix`` requests;
    the last sum is deterministic and feeds the benchmark's
    determinism gate.
    """

    def __init__(self, prefix: int):
        self.prefix = prefix
        self.request = SETUP
        self.labels: list[str] = []
        self.span_label = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_request = array("l")
        self._stack: list[list[int]] = []  # [span index, start ns, child ns]
        self._open: dict[str, int] = defaultdict(int)
        self.setup: dict[str, float] = defaultdict(float)
        self.total: dict[str, float] = defaultdict(float)
        self.prefix_counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object, object]] | None = None
        self._gc_start = 0

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        if self.request == SETUP:
            self.setup[name] += value
            return
        self.total[name] += value
        if self.request < self.prefix:
            self.prefix_counts[name] += value

    def is_open(self, label: str) -> bool:
        return self._open[label] > 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, label_id: int, label: str) -> None:
        index = len(self.span_label)
        self.span_label.append(label_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0)
        self._open[label] += 1
        start = time.perf_counter_ns()
        self.span_start.append(start)
        self._stack.append([index, start, 0])

    def _exit(self, label: str) -> None:
        end = time.perf_counter_ns()
        index, start, child = self._stack.pop()
        self.span_end[index] = end
        self._open[label] -= 1
        duration = end - start
        self.count(label + ".self_ns", duration - child)
        self.count(label + ".incl_ns", duration)
        self.count(label + ".calls")
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, label: str, fn, hook):
        label_id = len(self.labels)
        self.labels.append(label)
        enter, exit_ = self._enter, self._exit
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(label_id, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(label)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Find every binding to wrap: (owner, name, original, wrapper).

        A name that is gone is recorded in ``missing`` instead.
        """
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "degencomm" or name.startswith("degencomm.")]
        plan = []
        for module_name, attr, label, hook in WRAPPED:
            home = sys.modules.get("degencomm." + module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, method, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, fn, hook)
            if owner_name:
                plan.append((owner, method, fn, wrapper))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is fn:
                        plan.append((mod, name, fn, wrapper))
        return plan

    def install(self) -> None:
        """Put the wrappers in place (planned on the first call)."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches or ():
            setattr(owner, name, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.count("py.gc_ns", time.perf_counter_ns() - self._gc_start)
            self.count("py.gc.collections")

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines: a header, then one list per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"labels": self.labels,
                                 "fields": ["label", "start_ns", "end_ns",
                                            "parent", "request"]}) + "\n")
            for row in zip(self.span_label, self.span_start, self.span_end,
                           self.span_parent, self.span_request):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
