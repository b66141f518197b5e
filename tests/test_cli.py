import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

from degencomm import cli, gadget, protocols, sisolver
from degencomm.cli import main, spawn_seed
from degencomm.graphs import Graph, save_graph

from test_graphs import cycle_graph


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spawn_seed_is_stable_and_spread():
    assert spawn_seed(7, 0) == spawn_seed(7, 0)
    seeds = {spawn_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert spawn_seed(7, 0) != spawn_seed(8, 0)


def test_degeneracy_sweep_checks_out(capsys):
    code, out, _ = run(
        ["degeneracy", "--n", "10", "--trials", "4", "--seed", "7"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "degeneracy"
    assert payload["ok"] is True
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        assert {"n", "kappa", "bits_total", "updates_max", "ok"} <= set(row)


def test_degeneracy_csv_columns(capsys):
    code, out, _ = run(
        ["degeneracy", "--n", "8", "--trials", "2", "--seed", "1",
         "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,kappa,bits_total,updates_max"
    assert len(lines) == 3


def test_degeneracy_single_decision(tmp_path, capsys):
    path = str(tmp_path / "c5.txt")
    save_graph(cycle_graph(5), path)
    code, out, _ = run(["degeneracy", "--graph", path, "--k", "2"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row == {"n": 5, "k": 2, "accept": True, "bits_total": row["bits_total"],
                   "updates_max": row["updates_max"], "ok": True}
    code, out, _ = run(["degeneracy", "--graph", path, "--k", "1"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["accept"] is False


def test_malformed_graph_exits_2_naming_the_line(tmp_path, capsys):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("3 2\n0 1\n1 zebra\n")
    code, _, err = run(["degeneracy", "--graph", path, "--k", "1"], capsys)
    assert code == 2
    assert "line 3" in err


def test_missing_file_and_missing_k_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["degeneracy", "--graph", str(tmp_path / "nope.txt"), "--k", "1"], capsys
    )
    assert code == 2
    path = str(tmp_path / "c5.txt")
    save_graph(cycle_graph(5), path)
    code, _, err = run(["degeneracy", "--graph", path], capsys)
    assert code == 2
    assert "--k" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_reruns_are_byte_identical(tmp_path, capsys):
    args = ["reduction", "--m", "4", "--r", "1", "--trials", "3", "--seed", "11"]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_worker_pool_matches_serial_output(tmp_path, monkeypatch):
    args = ["degeneracy", "--n", "10", "--trials", "6", "--seed", "3"]
    serial, pooled = str(tmp_path / "s.json"), str(tmp_path / "p.json")
    assert main(args + ["--out", serial]) == 0
    monkeypatch.setenv("DEGENCOMM_WORKERS", "2")
    assert main(args + ["--out", pooled]) == 0
    assert open(serial, "rb").read() == open(pooled, "rb").read()


def test_reduction_sweep_rows(capsys):
    code, out, _ = run(
        ["reduction", "--m", "4", "--r", "1", "--trials", "2", "--seed", "3",
         "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,r,bit_true,kappa,d,split_ok,trace_ok"
    assert all(line.endswith("True,True") for line in lines[1:])


def test_reduction_emit_gadget_roundtrip(tmp_path, capsys):
    outdir = str(tmp_path / "gadgets")
    code, out, _ = run(
        ["reduction", "--m", "4", "--r", "1", "--trials", "1", "--seed", "2",
         "--emit-gadget", outdir], capsys
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["reload_ok"] is True
    assert os.path.exists(row["gadget_file"])
    assert os.path.exists(row["gadget_file"] + ".json")


def _reload_changed(tmp_path, monkeypatch, capsys, change):
    """The reduction row when change(gadget) alters each reloaded gadget."""
    def reload_changed(path):
        return change(gadget._read_gadget(path))

    monkeypatch.setattr(cli, "_read_gadget", reload_changed)
    code, out, _ = run(
        ["reduction", "--m", "4", "--r", "1", "--trials", "1", "--seed", "2",
         "--emit-gadget", str(tmp_path)], capsys
    )
    assert code == 1
    return json.loads(out)["rows"][0]


def test_reduction_reload_check_sees_a_moved_edge(tmp_path, monkeypatch,
                                                  capsys):
    def move_an_edge(gg):
        g = gg.graph
        u = 0
        v = min(g.neighbors(u))
        w = min(x for x in range(g.n) if x != u and not g.has_edge(u, x))
        edges = [e for e in g.edges() if e != (u, v)] + [(u, w)]
        return dataclasses.replace(gg, graph=Graph(g.n, edges))

    row = _reload_changed(tmp_path, monkeypatch, capsys, move_an_edge)
    assert row["reload_ok"] is False


@pytest.mark.parametrize("field", ["m", "r"])
def test_reduction_reload_check_compares_what_the_audit_reads(
        field, tmp_path, monkeypatch, capsys):
    # the reload is not audited again, so it must equal the audited
    # build in everything verify_gadget reads
    def change(gg):
        return dataclasses.replace(gg, **{field: getattr(gg, field) + 1})

    row = _reload_changed(tmp_path, monkeypatch, capsys, change)
    assert row["reload_ok"] is False


def _count_calls(monkeypatch, original) -> list:
    """Wrap every binding of original in degencomm; return its call list."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    # modules import functions by name, so every binding is wrapped; a
    # call hidden in any degencomm module still counts
    for name, module in list(sys.modules.items()):
        if name == "degencomm" or name.startswith("degencomm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("extra", [[], ["--emit-gadget", None],
                                   ["--streaming", "naive"]])
def test_each_reduction_trial_builds_its_gadget_once(extra, tmp_path,
                                                      monkeypatch, capsys):
    # and audits it once: the reload under --emit-gadget is compared
    # with the audited build, not audited a second time
    builds = _count_calls(monkeypatch, gadget.build_gadget)
    audits = _count_calls(monkeypatch, gadget.verify_gadget)
    extra = [str(tmp_path) if arg is None else arg for arg in extra]
    code, _, _ = run(["reduction", "--m", "4", "--r", "1", "--trials", "3",
                      "--seed", "6"] + extra, capsys)
    assert code == 0
    assert len(builds) == len(audits) == 3


def test_streaming_harness_rows(capsys):
    code, out, _ = run(
        ["reduction", "--m", "4", "--r", "1", "--trials", "1", "--seed", "5",
         "--streaming", "naive", "--p", "auto"], capsys
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["ok"] is True
    assert row["p"] == row["n"] == 75
    assert row["phases"] == 2 * row["p"] - 1

    code, out, _ = run(
        ["reduction", "--m", "4", "--r", "1", "--trials", "1", "--seed", "5",
         "--streaming", "store-all", "--p", "auto"], capsys
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["ok"] is True and row["p"] == 1 and row["phases"] == 1


def test_hpc_aligned_sweep(capsys):
    code, out, _ = run(
        ["hpc", "--m", "8", "--r", "2", "--trials", "3", "--seed", "5"], capsys
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["mode"] == "aligned"
    assert summary["success_rate"] == 1.0


def test_hpc_misaligned_presolve_extremes(capsys):
    base = ["hpc", "--m", "8", "--r", "2", "--misaligned", "--trials", "3",
            "--seed", "5"]
    code, out, _ = run(base + ["--N", "0"], capsys)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["finished"] == 0 and summary["success_rate"] == 0.0

    code, out, _ = run(base + ["--N", "8"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["success_rate"] == 1.0


@pytest.mark.parametrize("bad,message", [
    (["--m", "0"], "positive multiple of 4"),
    (["--m", "0", "--misaligned"], "positive multiple of 4"),
    (["--trials", "0"], "need at least one trial, got 0"),
])
def test_hpc_degenerate_parameters_exit_2(bad, message, capsys):
    code, out, err = run(["hpc", "--m", "8", "--r", "2"] + bad, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("degencomm: error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["degeneracy", "--trials", "0"], "need at least one trial, got 0"),
    (["degeneracy", "--trials", "-2"], "need at least one trial, got -2"),
    (["degeneracy", "--n", "-3"], "--n must be >= 0, got -3"),
    (["reduction", "--trials", "0"], "need at least one trial, got 0"),
    (["reduction", "--trials", "0", "--streaming", "naive"],
     "need at least one trial, got 0"),
    (["info", "--fuzz-lambda", "0"], "need at least one trial, got 0"),
])
def test_empty_or_negative_sweeps_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"degencomm: error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["degeneracy", "--n", "5", "--k", "2"], "--k needs --graph"),
    (["reduction", "--trials", "1", "--streaming", "naive", "--p", "x"],
     "--p must be 'auto' or an integer, got 'x'"),
    (["reduction", "--trials", "1", "--p", "5"], "--p needs --streaming"),
    (["hpc", "--trials", "1", "--N", "8"], "--N needs --misaligned"),
    (["degeneracy", "--graph", "g.txt", "--k", "3", "--n", "50"],
     "--n needs the sweep, not --graph"),
    (["degeneracy", "--graph", "g.txt", "--k", "3", "--trials", "7"],
     "--trials needs the sweep, not --graph"),
    (["reduction", "--m", "4", "--r", "1", "--trials", "1",
      "--streaming", "naive", "--p", "3"],
     "pass budget --p 3 is too small for --streaming naive: "
     "algorithm wants pass 4, but the budget is 3"),
])
def test_ignored_or_misparsed_flags_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"degencomm: error: {message}\n"


def test_running_out_of_memory_exits_2(tmp_path):
    # the header's n alone asks for 10^8 rows; the child caps its own
    # address space at 256 MiB, so the run fails soon and without
    # exhausting the host
    path = tmp_path / "huge.txt"
    path.write_text("100000000 0\n", encoding="ascii")
    child = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from degencomm.cli import main
        sys.exit(main(["degeneracy", "--graph", sys.argv[1], "--k", "1"]))
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "degencomm: error: out of memory\n"


def test_emit_gadget_with_streaming_exits_2_and_writes_nothing(tmp_path, capsys):
    outdir = tmp_path / "gadgets"
    code, out, err = run(
        ["reduction", "--trials", "1", "--streaming", "naive",
         "--emit-gadget", str(outdir)], capsys
    )
    assert code == 2
    assert out == ""
    assert err == ("degencomm: error: --emit-gadget needs the plain sweep, "
                   "not --streaming\n")
    assert not outdir.exists()


def test_info_fuzz_finds_no_violations(capsys):
    code, out, _ = run(["info", "--fuzz-lambda", "300", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["summary"] == {"trials": 300, "violations": 0}


def test_sisolver_reports_the_experiment(capsys):
    code, out, _ = run(
        ["sisolver", "--m", "16", "--p", "1.0", "--eps", "1.0",
         "--gamma", "0.9", "--trials", "1", "--seed", "3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["result"]) == {
        "m", "gamma", "eps", "k_rounds", "tau", "success", "failure_kind", "trials",
    }
    assert payload["success_rate"] == 1.0


def test_sisolver_min_success_gate(capsys):
    code, out, _ = run(
        ["sisolver", "--m", "16", "--p", "0.0", "--eps", "1.0",
         "--gamma", "0.9", "--trials", "1", "--seed", "3",
         "--min-success", "0.5"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["result"]["failure_kind"]["overflow"] == 1


def test_sisolver_rejects_an_unusable_advantage(capsys):
    # Default eps for p = 0.5 at m = 16 is 0.225, below the 8/m floor.
    code, _, err = run(
        ["sisolver", "--m", "16", "--p", "0.5", "--trials", "1"], capsys
    )
    assert code == 2
    assert "advantage" in err


@pytest.mark.parametrize("bad", [["--gamma", "0"], ["--eps", "0"], ["--p", "0"]])
def test_sisolver_degenerate_parameters_exit_2(bad, capsys):
    code, out, err = run(["sisolver", "--m", "16", "--trials", "1"] + bad, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("degencomm: error:")
    assert "Traceback" not in err


def test_sisolver_checks_parameters_before_calibrating(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(sisolver, "calibrate_tau",
                        lambda *args: calls.append(args) or 0.0)
    code, _, err = run(
        ["sisolver", "--m", "16", "--p", "0.5", "--trials", "1"], capsys
    )
    assert code == 2
    assert "advantage" in err
    assert calls == []


def test_degeneracy_trial_runs_each_probe_once(monkeypatch, capsys):
    # The trial reads updates_max from degen_search's accepting probe at
    # kappa: every two-party run is one of the recorded probes.
    runs, probes = [], []
    original_run, original_search = protocols.run_two_party, cli.degen_search

    def counting_run(*args):
        runs.append(1)
        return original_run(*args)

    def recording_search(part, *args, **kwargs):
        stats = kwargs.setdefault("stats", {})
        result = original_search(part, *args, **kwargs)
        probes.extend(stats["decisions"])
        return result

    monkeypatch.setattr(protocols, "run_two_party", counting_run)
    monkeypatch.setattr(cli, "degen_search", recording_search)
    code, out, _ = run(["degeneracy", "--n", "20", "--trials", "1", "--seed", "5"],
                       capsys)
    assert code == 0
    assert probes and len(runs) == len(probes)
    assert json.loads(out)["rows"][0]["updates_max"] >= 1
