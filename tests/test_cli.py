"""Command-line interface, driven through main(argv) and, where the
process's own streams matter, as a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conecross
from conecross import (
    BookDrawing,
    Multigraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    f_graph,
    fig1_graph,
    fig3_graph,
    multiply_edges,
    subdivide_edge,
)
from conecross import cli
from conecross.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(g.to_json())
    return str(path)


def test_gen_complete_graph(capsys, tmp_path):
    out_path = tmp_path / "k5.json"
    code, _, _ = run(capsys, "gen", "--family", "kn", "--n", "5", "--out", str(out_path))
    assert code == 0
    g = Multigraph.from_json(out_path.read_text())
    assert g == complete_graph(5)


def test_gen_fk_writes_nine_vertices(capsys):
    data = run_json(capsys, "gen", "--family", "fk", "--k", "3")
    g = Multigraph.from_json_dict(data)
    assert g.n == 9
    assert g == f_graph(3)


def test_gen_mult_doubles_fig1(capsys):
    data = run_json(capsys, "gen", "--family", "mult", "--base", "fig1", "--r", "2")
    assert Multigraph.from_json_dict(data).m == 42


def test_gen_union_and_cone(capsys, tmp_path):
    k3 = write_graph(tmp_path, complete_graph(3))
    data = run_json(capsys, "gen", "--family", "union", "--base", k3, "--other", k3)
    assert Multigraph.from_json_dict(data).n == 6
    data = run_json(capsys, "gen", "--family", "cone", "--base", k3)
    assert Multigraph.from_json_dict(data) == complete_graph(4)


def test_gen_subdivide(capsys, tmp_path):
    k5 = write_graph(tmp_path, complete_graph(5))
    data = run_json(
        capsys, "gen", "--family", "subdivide", "--base", k5, "--edge", "0", "--t", "2"
    )
    g = Multigraph.from_json_dict(data)
    assert g.n == 7 and g.m == 12


def exit_code(argv):
    """main's exit code, also where argparse exits on its own."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def keyword(flag):
    """The runner or builder keyword an option sets."""
    return flag[2:].replace("-", "_")


def test_gen_missing_flag_is_a_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "kn")
    assert code == 2
    assert "--n" in err


# (family, flags with "K3" for a K3 graph file, the graph it builds)
FAMILY_CASES = [
    ("kn", ["--n", "4"], complete_graph(4)),
    ("cycle", ["--n", "5"], cycle_graph(5)),
    ("fk", ["--k", "3"], f_graph(3)),
    ("fig1", [], fig1_graph()),
    ("fig3", [], fig3_graph()),
    ("mult", ["--base", "K3", "--r", "2"], multiply_edges(complete_graph(3), 2)),
    ("union", ["--base", "K3", "--other", "K3"],
     disjoint_union(complete_graph(3), complete_graph(3))),
    ("cone", ["--base", "K3"], complete_graph(4)),
    ("subdivide", ["--base", "K3", "--edge", "1"], subdivide_edge(complete_graph(3), 1)),
]


def test_every_family_is_tested():
    assert [family for family, _, _ in FAMILY_CASES] == list(cli.FAMILIES)


@pytest.mark.parametrize(
    "family, flags, expected", FAMILY_CASES, ids=[case[0] for case in FAMILY_CASES]
)
def test_every_family_builds_its_graph_and_names_the_flags_it_needs(
    capsys, tmp_path, family, flags, expected
):
    k3 = write_graph(tmp_path, complete_graph(3))
    argv = [k3 if flag == "K3" else flag for flag in flags]
    data = run_json(capsys, "gen", "--family", family, *argv)
    assert Multigraph.from_json_dict(data) == expected
    needs = flags[::2]
    if needs:
        # --t alone may be left out, so the message brackets it.
        usage = " ".join(needs + ["[--t]"] if family == "subdivide" else needs)
        code, out, err = run(capsys, "gen", "--family", family)
        assert (code, out) == (2, "")
        assert err == f"error: --family {family} takes {usage}\n"


# name -> (runner looked up in cli, a value for each option it reads,
#          a result that passes, one that fails or, for a runner with no
#          pass rule, the error it raises on a miss)
EXPERIMENT_CASES = {
    "fs-small": ("fs_small", {"--budget-ms": 5},
                 [{"ok": True}], [{"ok": True}, {"ok": False}]),
    "family-points": ("family_points", {"--budget-ms": 5},
                      [{"verified": True, "matches_formula": True}],
                      [{"verified": True, "matches_formula": False}]),
    "cor22-suite": ("cor22_suite", {"--count": 40, "--seed": 3},
                    {"count": 1000, "seed": 0}, RuntimeError("split misses the bound")),
    "hh-table": ("hh_table", {"--verify-upto": 6},
                 [{"n": 5}, {"n": 6, "verified": True}], [{"n": 6, "verified": False}]),
    "f5-lower": ("longrun_f5_lower", {"--budget-ms": 5},
                 {"status": "exact"}, {"status": "bounds-only"}),
    "z7": ("longrun_z7", {"--budget-ms": 5},
           {"value": 9, "expected": 9}, {"value": 8, "expected": 9}),
}


def test_every_experiment_is_tested():
    assert list(EXPERIMENT_CASES) == list(cli.EXPERIMENTS)


@pytest.mark.parametrize("passes", [True, False], ids=["pass", "fail"])
@pytest.mark.parametrize("name", list(EXPERIMENT_CASES))
def test_every_experiment_prints_its_result_and_exits_by_its_pass_rule(
    monkeypatch, capsys, name, passes
):
    runner, _, good, bad = EXPERIMENT_CASES[name]
    result = good if passes else bad
    calls = []

    def stub(**got):
        calls.append(got)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(cli, runner, stub)
    if isinstance(result, Exception):
        # Not caught as a usage error: Python exits 1 with the traceback.
        with pytest.raises(type(result)):
            run(capsys, "experiment", name)
        assert capsys.readouterr().out == ""
    else:
        code, out, err = run(capsys, "experiment", name)
        assert (code, json.loads(out), err) == (0 if passes else 1, result, "")
    # No option given, so the runner's own defaults apply.
    assert calls == [{}]


@pytest.mark.parametrize("name", list(EXPERIMENT_CASES))
def test_an_experiment_gets_the_options_given_as_keywords(monkeypatch, capsys, name):
    runner, options, good, _ = EXPERIMENT_CASES[name]
    calls = []
    monkeypatch.setattr(cli, runner, lambda **got: calls.append(got) or good)
    argv = [str(arg) for item in options.items() for arg in item]
    assert run(capsys, "experiment", name, *argv)[0] == 0
    assert calls == [{keyword(flag): v for flag, v in options.items()}]


# A value for each option that gen and experiment accept in some mode.
GEN_VALUES = {"--n": "5", "--k": "3", "--r": "2", "--base": "fig1",
              "--other": "fig1", "--edge": "0", "--t": "2"}
EXPERIMENT_VALUES = {"--budget-ms": "5", "--count": "10", "--seed": "1",
                     "--verify-upto": "5"}


def unread_option_uses():
    """(id, argv) for each mode of a command given one option it does not
    read: a gen family or an experiment also gets the options it reads,
    and book and bounds each have modes that take one option fewer."""
    modes = [(["gen", "--family", family], reads, GEN_VALUES)
             for family, (reads, _) in cli.FAMILIES.items()]
    modes += [(["experiment", name], reads, EXPERIMENT_VALUES)
              for name, (_, reads, _) in cli.EXPERIMENTS.items()]
    uses = []
    for prefix, reads, values in modes:
        read = [arg for flag, value in values.items() if keyword(flag) in reads
                for arg in (flag, value)]
        uses += [(f"{prefix[0]}-{prefix[-1]}-{flag[2:]}", [*prefix, *read, flag, value])
                 for flag, value in values.items() if keyword(flag) not in reads]
    uses += [(f"book-{mode}-budget-ms",
              ["book", "fig1", "--optimize", mode, "--budget-ms", "5"])
             for mode in ("none", "partition")]
    uses += [("bounds-sweep-k", ["bounds", "--sweep", "2", "--k", "3"]),
             ("bounds-sweep-multigraph", ["bounds", "--sweep", "2", "--multigraph"])]
    return uses


UNREAD_OPTION_USES = unread_option_uses()


def test_the_unread_option_uses_cover_every_option():
    assert {keyword(flag) for flag in GEN_VALUES} == {
        flag for reads, _ in cli.FAMILIES.values() for flag in reads
    }
    assert {keyword(flag) for flag in EXPERIMENT_VALUES} == {
        kw for _, reads, _ in cli.EXPERIMENTS.values() for kw in reads
    }
    # gen 63 accepted - 11 read, experiment 24 - 7, book 2, bounds 2.
    assert len(UNREAD_OPTION_USES) == 52 + 17 + 2 + 2


@pytest.mark.parametrize(
    "argv",
    [argv for _, argv in UNREAD_OPTION_USES],
    ids=[use_id for use_id, _ in UNREAD_OPTION_USES],
)
def test_an_option_its_mode_does_not_read_is_a_usage_error(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an unread option must stop the command first")

    for runner, _, _ in cli.EXPERIMENTS.values():
        monkeypatch.setattr(cli, runner, refuse)
    for family, (reads, _) in cli.FAMILIES.items():
        monkeypatch.setitem(cli.FAMILIES, family, (reads, refuse))
    for solver in ["one_page_drawing", "one_to_two", "count_crossings",
                   "bound_report", "thm41_lower", "thm12_min_c"]:
        monkeypatch.setattr(cli, solver, refuse)
    assert exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["experiment", "hh-table", "--budget-ms", "-1"], "conecross experiment hh-table"),
        (["cr", "fig1", "--verify-upto", "5"], "conecross cr"),
        (["convert12", "fig1", "--budget-ms", "5"], "conecross convert12"),
    ],
)
def test_an_unrecognized_option_shows_its_commands_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"usage: {usage} [-h]")
    assert out.err.endswith(f"{usage}: error: unrecognized arguments: {' '.join(argv[2:])}\n")


def test_cone_exhaustion_is_no_longer_an_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "cone-exhaustion"])
    assert exc.value.code == 2
    assert "invalid choice: 'cone-exhaustion'" in capsys.readouterr().err


def test_gen_dot_output(capsys, tmp_path):
    dot = tmp_path / "k4.dot"
    code, _, _ = run(
        capsys, "gen", "--family", "kn", "--n", "4", "--dot", str(dot)
    )
    assert code == 0
    assert "0 -- 1" in dot.read_text()


def test_cr_of_the_named_graph(capsys):
    data = run_json(capsys, "cr", "fig3")
    assert data["lower"] == 2
    assert data["upper"] == 2
    assert data["status"] == "exact"
    assert "certificate" in data


def test_cr_cone_flag(capsys):
    data = run_json(capsys, "cr", "fig3", "--cone")
    assert data["status"] == "exact"
    assert data["lower"] == 5


def test_cr_accepts_graph_files(capsys, tmp_path):
    path = write_graph(tmp_path, complete_graph(5))
    data = run_json(capsys, "cr", path)
    assert data["lower"] == data["upper"] == 1


@pytest.mark.parametrize("command", ["cr", "book", "experiment"])
def test_threads_is_not_an_option(capsys, command):
    target = "hh-table" if command == "experiment" else "fig1"
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cr", "book", "experiment"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(capsys, command, threads):
    target = "hh-table" if command == "experiment" else "fig1"
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["cr", "fig1"], id="cr"),
        pytest.param(["cr", "--cone", "fig1"], id="cr-cone"),
        pytest.param(["book", "--optimize", "order", "fig1"], id="book-order"),
        pytest.param(["book", "--optimize", "both", "fig1"], id="book-both"),
        *[pytest.param(["experiment", name], id=name)
          for name, (_, reads, _) in cli.EXPERIMENTS.items() if "budget_ms" in reads],
    ],
)
def test_negative_budget_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget-ms", "-1")
    assert (code, out) == (2, "")
    assert "budget_ms=-1" in err


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # The read end closes before the solve ends, so the JSON meets a
    # broken pipe, as under ``conecross cr fig1 | head -c 50``.
    src = str(Path(conecross.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "conecross.cli", "cr", "fig1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_cr_rejects_missing_files(capsys):
    code, _, err = run(capsys, "cr", "no-such-file.json")
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"format": "conecross-graph-v1", "n": 5.9, "edges": [[0, 1, 2.5], [1, 2, true]]}',
    ],
    ids=["list", "non-integers"],
)
def test_cr_rejects_a_graph_file_that_is_not_a_graph_object_of_integers(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "cr", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed graph file")


def test_book_default_is_one_page_natural(capsys, tmp_path):
    k4 = write_graph(tmp_path, complete_graph(4))
    data = run_json(capsys, "book", k4)
    assert data == {
        "crossings": 1,
        "status": "exact",
        "pages": 1,
        "order": [0, 1, 2, 3],
    }


def test_book_partition_uses_the_cut(capsys, tmp_path):
    k5 = write_graph(tmp_path, complete_graph(5))
    data = run_json(capsys, "book", k5, "--optimize", "partition")
    assert data["pages"] == 2
    assert data["crossings"] == 1


def test_book_order_search(capsys, tmp_path):
    k4 = write_graph(tmp_path, complete_graph(4))
    data = run_json(capsys, "book", k4, "--optimize", "order")
    assert data["crossings"] == 1
    assert data["status"] == "exact"
    assert data["lower_reason"] == "order-search"


def test_book_order_search_past_the_limit_names_no_reason(capsys, tmp_path):
    # K12 is past the order-search limit: a bounds-only answer whose lower
    # bound is the trivial 0.
    k12 = write_graph(tmp_path, complete_graph(12))
    data = run_json(capsys, "book", k12, "--optimize", "order")
    assert (data["status"], data["lower_reason"]) == ("bounds-only", "")


def test_book_both_matches_the_two_page_optimum(capsys, tmp_path):
    k5 = write_graph(tmp_path, complete_graph(5))
    data = run_json(capsys, "book", k5, "--optimize", "both")
    assert data["crossings"] == 1
    assert data["status"] == "exact"


def test_book_writes_a_loadable_drawing(capsys, tmp_path):
    k5 = write_graph(tmp_path, complete_graph(5))
    out = tmp_path / "book.json"
    dot = tmp_path / "book.dot"
    run_json(
        capsys, "book", k5, "--optimize", "both",
        "--out", str(out), "--dot", str(dot),
    )
    drawing = BookDrawing.from_json(out.read_text())
    assert drawing.page_count <= 2
    text = dot.read_text()
    assert "page=" in text and "spine_position=" in text


def test_book_explicit_order(capsys, tmp_path):
    k4 = write_graph(tmp_path, complete_graph(4))
    data = run_json(capsys, "book", k4, "--order", "0,2,1,3")
    assert data["order"] == [0, 2, 1, 3]
    assert data["crossings"] == 1


def test_book_flag_contradictions(capsys, tmp_path):
    k4 = write_graph(tmp_path, complete_graph(4))
    code, _, err = run(capsys, "book", k4, "--optimize", "order", "--order", "0,1,2,3")
    assert code == 2
    code, _, err = run(capsys, "book", k4, "--order", "0,1,2")
    assert code == 2


def test_book_pages_is_not_an_option(capsys):
    # --optimize fixes the page count: partition and both give 2, else 1.
    with pytest.raises(SystemExit) as exc:
        main(["book", "fig1", "--pages", "1"])
    assert exc.value.code == 2
    assert "--pages" in capsys.readouterr().err


def test_convert12_on_k5(capsys, tmp_path):
    k5 = write_graph(tmp_path, complete_graph(5))
    out = tmp_path / "two.json"
    code, stdout, _ = run(capsys, "convert12", k5, "--out", str(out))
    assert code == 0
    data = json.loads(stdout)
    assert data["k"] == 5
    assert data["crossings"] == data["k"] - data["cut"]
    assert data["crossings"] <= 2
    assert list(data) == ["k", "cut", "crossings"]
    assert BookDrawing.from_json(out.read_text()).page_count == 2


def test_convert12_refuses_an_order_of_the_wrong_size(capsys, tmp_path):
    k5 = write_graph(tmp_path, complete_graph(5))
    code, stdout, err = run(capsys, "convert12", k5, "--order", "0,1,2")
    assert (code, stdout) == (2, "")
    assert "order size does not match vertex count" in err


def test_bounds_report_for_k_ten(capsys):
    rows = run_json(capsys, "bounds", "--k", "10")
    by_name = {r["bound"]: r for r in rows}
    assert by_name["phi-upper"]["value"] == 11
    assert by_name["phi-upper"]["conditional"]
    assert by_name["cone-lower-simple"]["value"] == 15


def test_bounds_report_for_k_one(capsys):
    rows = run_json(capsys, "bounds", "--k", "1")
    by_name = {r["bound"]: r for r in rows}
    assert by_name["cone-lower-simple"]["value"] == 3
    assert by_name["fs-known"]["value"] == 3


def test_bounds_report_for_k_zero(capsys):
    rows = run_json(capsys, "bounds", "--k", "0")
    by_name = {r["bound"]: r for r in rows}
    assert by_name["cone-lower-sqrt"]["value"] == 0
    assert by_name["cone-lower-simple"]["value"] == 0
    assert "phi-upper" not in by_name


def test_bounds_multigraph_drops_the_simple_row(capsys):
    rows = run_json(capsys, "bounds", "--k", "10", "--multigraph")
    assert all(r["bound"] != "cone-lower-simple" for r in rows)
    assert any(r["bound"] == "cone-lower-sqrt" for r in rows)


def test_bounds_sweep_counts_the_crossover(capsys):
    data = run_json(capsys, "bounds", "--sweep", "60")
    assert len(data["rows"]) == 61
    flips = [r["k"] for r in data["rows"] if not r["dominates"]]
    assert flips == list(range(51, 61))
    assert data["dominance_violations"] == 10


def test_bounds_negative_sweep_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bounds", "--sweep", "-3")
    assert (code, out) == (2, "")
    assert "--sweep" in err


def test_bounds_requires_a_mode(capsys):
    assert exit_code(["bounds"]) == 2
    assert "--k" in capsys.readouterr().err


def test_experiment_hh_table(capsys):
    rows = run_json(capsys, "experiment", "hh-table", "--verify-upto", "6")
    by_n = {r["n"]: r for r in rows}
    assert by_n[5]["z"] == 1
    assert by_n[6]["z"] == 3
    assert by_n[12]["z"] == 150
    assert by_n[5]["verified"] and by_n[6]["verified"]


def test_experiment_cor22_small_run(capsys):
    data = run_json(capsys, "experiment", "cor22-suite", "--count", "40", "--seed", "3")
    assert data == {"count": 40, "seed": 3}


def test_experiment_negative_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "experiment", "cor22-suite", "--count", "-5")
    assert (code, out) == (2, "")
    assert "count" in err


@pytest.mark.parametrize(
    "name, open_row",
    [
        ("fs-small", {"k": 1, "value": None, "witness_cr": None, "ok": False}),
        ("family-points", {"r": 1, "verified": False}),
    ],
)
def test_a_budget_bound_table_prints_its_open_rows_and_exits_1(capsys, name, open_row):
    code, out, err = run(capsys, "experiment", name, "--budget-ms", "0")
    assert (code, err) == (1, "")
    first = json.loads(out)[0]
    assert {key: first[key] for key in open_row} == open_row


def test_experiment_family_points(capsys):
    rows = run_json(capsys, "experiment", "family-points")
    assert [r["r"] for r in rows] == [1, 2]
    assert all(r["verified"] and r["matches_formula"] for r in rows)


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_order_must_be_a_permutation(capsys, tmp_path):
    k4 = write_graph(tmp_path, complete_graph(4))
    code, _, err = run(capsys, "convert12", k4, "--order", "0,1,2,2")
    assert code == 2
