import json
import math
import os
import pathlib
import shlex
import time

import pytest

from cooproute import ConfigError, SolverError
from cooproute import cli, experiments


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


GAME_DOC = {
    "nodes": [1, 2],
    "links": [
        {"id": "l1", "source": 1, "target": 2,
         "cost": {"kind": "linear", "slope": 1.0}},
        {"id": "l2", "source": 1, "target": 2,
         "cost": {"kind": "linear", "slope": 0.0, "intercept": 0.5}},
    ],
    "users": [
        {"id": 1, "source": 1, "target": 2, "demand": 1.0},
        {"id": 2, "source": 1, "target": 2, "demand": 1.0},
    ],
    "alphas": [0.0, 0.0],
}

# both users share one link: no user has two paths, so nothing is scanned
ONE_LINK_DOC = {**GAME_DOC, "links": GAME_DOC["links"][:1]}

MIXED_DOC = {"capacity_one": 4.0, "capacity_two": 3.0,
             "group_demand": 1.2, "mass_demand": 1.0, "alpha": 0.9}


# three users of demand 1 on three parallel links, the game of
# perfbench's parallel-3x3 workload
THREE_LINK_DOC = {
    "nodes": [1, 2],
    "links": [
        {"id": "l1", "source": 1, "target": 2,
         "cost": {"kind": "queue", "capacity": 3.0}},
        {"id": "l2", "source": 1, "target": 2,
         "cost": {"kind": "linear", "slope": 1.0, "intercept": 0.2}},
        {"id": "l3", "source": 1, "target": 2,
         "cost": {"kind": "queue", "capacity": 2.5}},
    ],
    "users": [{"id": i, "source": 1, "target": 2, "demand": 1.0}
              for i in (1, 2, 3)],
    "alphas": [0.0, 0.0, 0.0],
}


# seven pairs of parallel links in series: 128 paths, over the cap of 64
LADDER_DOC = {
    "nodes": list(range(8)),
    "links": [{"id": f"{side}{i}", "source": i, "target": i + 1,
               "cost": {"kind": "linear", "slope": 1.0}}
              for i in range(7) for side in "uv"],
    "users": [{"id": 1, "source": 0, "target": 7, "demand": 1.0}],
    "alphas": [0.0],
}


# one user on a chain of 1,200 links: a single path longer than the
# interpreter's recursion limit
CHAIN_DOC = {
    "nodes": list(range(1201)),
    "links": [{"id": f"l{i:04d}", "source": i, "target": i + 1,
               "cost": {"kind": "linear", "slope": 1.0}}
              for i in range(1200)],
    "users": [{"id": 1, "source": 0, "target": 1200, "demand": 1.0}],
    "alphas": [0.0],
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPresetsCommand:
    def test_lists_everything_with_variant_labels(self, capsys):
        rc, out, err = run(capsys, "presets")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert sum("(variant)" in line for line in lines) == 2


class TestSolveCommand:
    def test_preset_csv_shape(self, capsys):
        rc, out, err = run(capsys, "solve", "--preset", "exp2",
                           "--alpha", "0")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("param,cluster,basin_count,J_1,J_2,"
                            "Jhat_1,Jhat_2,f_1_l1,f_1_l2,f_2_l1,f_2_l2")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == ""
        assert float(cells[7]) == pytest.approx(1 / 6, abs=1e-6)

    def test_output_is_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "solve", "--preset", "exp1",
                           "--alpha", "0.95", "0")
        rc2, out2, _ = run(capsys, "solve", "--preset", "exp1",
                           "--alpha", "0.95", "0")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_document_matches_inline_instance(self, capsys, tmp_path):
        # two idle users, one of them without a path, change nothing
        idle = {**GAME_DOC, "alphas": [0.0] * 4, "users": GAME_DOC["users"]
                + [{"id": 3, "source": 1, "target": 2, "demand": 0.0},
                   {"id": 4, "source": 2, "target": 1, "demand": 0.0}]}
        for doc in (GAME_DOC, idle):
            rc, out, err = run(capsys, "solve", "--config",
                               write_doc(tmp_path, doc))
            assert rc == 0
            lines = out.strip().splitlines()
            assert len(lines) == 2
            row = dict(zip(lines[0].split(","), lines[1].split(",")))
            # both users put a sixth of their demand on the congestible
            # link
            assert float(row["f_1_l1"]) == pytest.approx(1 / 6, abs=1e-6)
            assert float(row["f_2_l1"]) == pytest.approx(1 / 6, abs=1e-6)
        assert row["J_3"] == row["f_3_l1"] == row["f_4_l2"] == "0"

    def test_out_and_manifest_files(self, capsys, tmp_path):
        out_file = tmp_path / "r.csv"
        man_file = tmp_path / "m.json"
        rc, out, err = run(capsys, "solve", "--preset", "exp1",
                           "--out", str(out_file),
                           "--manifest", str(man_file))
        assert rc == 0
        assert out == ""
        assert out_file.read_text().startswith("param,cluster")
        manifest = json.loads(man_file.read_text())
        assert manifest["tool"].startswith("cooproute ")
        assert manifest["preset"] == "exp1"
        assert any(w.startswith("assumed:") for w in manifest["warnings"])
        assert "solve" in manifest["timings"]

    def test_manifest_reports_scan_coverage(self, capsys, tmp_path):
        # selfish exp1 is certified to have one equilibrium; at (0.95, 0)
        # it has three, which the support pass finds with index sum 1; at
        # (0.9, 0) an equilibrium has an unused path at zero slack, so no
        # check closes the set
        rc, _, err = run(capsys, "solve", "--preset", "exp1")
        assert rc == 0
        assert json.loads(err)["diagnostics"]["scan_coverage"] == "unique"
        rc, _, err = run(capsys, "solve", "--preset", "exp1",
                         "--alpha", "0.95", "0")
        assert rc == 0
        diagnostics = json.loads(err)["diagnostics"]
        assert diagnostics["scan_coverage"] == "support"
        assert diagnostics["index_sum"] == 1
        rc, _, err = run(capsys, "solve", "--preset", "exp1",
                         "--alpha", "0.9", "0")
        assert rc == 0
        diagnostics = json.loads(err)["diagnostics"]
        assert diagnostics["scan_coverage"] == "none"
        assert diagnostics["index_sum"] is None
        assert diagnostics["degenerate"] == 1
        rc, _, err = run(capsys, "solve", "--config",
                         write_doc(tmp_path, ONE_LINK_DOC))
        assert rc == 0
        assert json.loads(err)["diagnostics"]["scan_coverage"] == "none"

    def test_path_longer_than_the_recursion_limit(self, capsys, tmp_path):
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, CHAIN_DOC))
        assert rc == 0
        row = out.strip().splitlines()[1].split(",")
        # the one user routes its demand of 1 over every link
        assert [float(v) for v in row[5:]] == [1.0] * 1200

    def test_manifest_lands_on_stderr_by_default(self, capsys):
        rc, out, err = run(capsys, "solve", "--preset", "exp2",
                           "--alpha", "0")
        assert rc == 0
        manifest = json.loads(err)
        assert manifest["command"] == "solve"


class TestErrorPaths:
    def test_unknown_preset(self, capsys):
        rc, out, err = run(capsys, "solve", "--preset", "nope")
        assert rc == 2
        assert "error:" in err

    def test_unknown_document_key(self, capsys, tmp_path):
        doc = dict(GAME_DOC)
        doc["extra"] = 1
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, doc))
        assert rc == 2
        assert "extra" in err

    def test_too_many_paths(self, capsys, tmp_path):
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, LADDER_DOC))
        assert rc == 2
        assert "error:" in err
        assert "more than 64 paths" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--config"],
        ["sweep", "--alphas", "0,1", "--config"],
        ["mixed", "--config"],
        ["verify", "--preset", "exp1", "--alpha", "0", "--profile"],
    ], ids=["solve", "sweep", "mixed", "verify"])
    def test_deeply_nested_document(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 50_000)
        rc, out, err = run(capsys, *argv, str(path))
        assert rc == 2
        assert "nests too deeply" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "braess-lb-sym", "--param", "1e-110"],
        ["sweep", "--preset", "braess-lb-sym", "--parameter", "--values",
         "1e-320"],
        ["mixed", "--config"],
    ], ids=["solve", "sweep", "mixed"])
    def test_capacity_with_subnormal_cube(self, capsys, tmp_path, argv):
        # a slack's cube, which the second derivative of an M/M/1 latency
        # divides by, would round to zero
        if argv[-1] == "--config":
            argv = argv + [write_doc(tmp_path,
                                     dict(MIXED_DOC, capacity_one=1e-170))]
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert "error:" in err and "subnormal cube" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "braess-lb-sym", "--param", "1e200"],
        ["solve", "--config"],
        ["mixed", "--config"],
    ], ids=["preset", "network", "mixed"])
    def test_capacity_with_overflowing_cube(self, capsys, tmp_path, argv):
        # a capacity whose cube overflows to inf is valid
        if argv[0] == "mixed":
            doc = dict(MIXED_DOC, capacity_one=1e103)
        else:
            doc = json.loads(json.dumps(GAME_DOC))
            doc["links"][0]["cost"] = {"kind": "queue", "capacity": 1e200}
        if argv[-1] == "--config":
            argv = argv + [write_doc(tmp_path, doc)]
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err

    def test_duplicate_json_key(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"capacity_one": 4, "capacity_one": 5, '
                        '"capacity_two": 3, "group_demand": 1, '
                        '"mass_demand": 1, "alpha": 0.5}')
        rc, out, err = run(capsys, "mixed", "--config", str(path))
        assert rc == 2
        assert "duplicate" in err

    def test_cooperation_matrix_matches_alphas(self, capsys, tmp_path):
        # the users listed out of id order: the matrix's rows and columns
        # follow the listing, and the game re-indexes them by id
        doc = {**THREE_LINK_DOC, "alphas": [0.2, 0.5, 0.9]}
        users = doc["users"]
        listed = {**doc, "users": [users[2], users[0], users[1]],
                  "alphas": [0.9, 0.2, 0.5]}
        # each row as from_alphas builds it: 1 - a on the user itself
        rows = {1: (1 - 0.2, 0.1, 0.1), 2: (0.25, 1 - 0.5, 0.25),
                3: (0.45, 0.45, 1 - 0.9)}
        matrix = {k: v for k, v in listed.items() if k != "alphas"}
        matrix["cooperation"] = [[rows[i][j - 1] for j in (3, 1, 2)]
                                 for i in (3, 1, 2)]
        outs = []
        for d in (doc, listed, matrix):
            rc, out, err = run(capsys, "solve", "--config",
                               write_doc(tmp_path, d))
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.5, 0.4]]])
    def test_bad_cooperation_matrix(self, capsys, tmp_path, matrix):
        # a ragged matrix, then a row that does not sum to 1
        doc = {k: v for k, v in GAME_DOC.items() if k != "alphas"}
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, {**doc, "cooperation": matrix}))
        assert (rc, out) == (2, "")

    def test_both_weight_forms_rejected(self, capsys, tmp_path):
        doc = dict(GAME_DOC)
        doc["cooperation"] = [[1.0, 0.0], [0.0, 1.0]]
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, doc))
        assert rc == 2

    def test_bad_cost_kind(self, capsys, tmp_path):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["links"][0]["cost"] = {"kind": "cubic", "slope": 1.0}
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, doc))
        assert rc == 2

    def test_non_finite_numbers_rejected(self, capsys, tmp_path):
        # json accepts NaN; such a document must not reach the solver
        doc = json.loads(json.dumps(GAME_DOC))
        doc["links"][0]["cost"]["slope"] = float("nan")
        doc["users"][1]["demand"] = float("nan")
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, doc))
        assert rc == 2
        assert out == ""
        assert "finite" in err
        # an integer too large for a float is infinite, not a crash
        path = tmp_path / "big.json"
        path.write_text(json.dumps(GAME_DOC).replace(
            '"demand": 1.0', '"demand": 1' + "0" * 400, 1))
        rc, out, err = run(capsys, "solve", "--config", str(path))
        assert rc == 2
        assert "finite" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_param_needs_a_parameter(self, capsys, tmp_path, command):
        # exp1 has no structural parameter, and neither has a document
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps(
            {"path_flows": [[1.0, 0.0], [1.0, 0.0]]}))
        extra = ("--profile", str(prof)) if command == "verify" else ()
        for source in (("--preset", "exp1"),
                       ("--config", write_doc(tmp_path, GAME_DOC))):
            rc, out, err = run(capsys, command, *source, "--param", "5",
                               *extra)
            assert rc == 2
            assert out == ""
            assert "no structural parameter" in err

    @pytest.mark.parametrize("argv", [
        ("--preset", "exp1", "--alphas", "0:1:nan"),
        ("--preset", "exp1", "--alphas", "0:inf:1"),
        ("--preset", "braess-lb-sym", "--parameter", "--values", "nan:1:0.5"),
        # finite ends whose count overflows a float
        ("--preset", "exp1", "--alphas", "0:1e308:1e-308"),
    ])
    def test_non_finite_ranges_rejected(self, capsys, argv):
        rc, out, err = run(capsys, "sweep", *argv)
        assert rc == 2
        assert out == ""
        assert "error:" in err

    def test_range_count_is_capped(self):
        # called directly: a sweep would first solve every value it keeps
        assert len(cli._parse_value_list("0:1:1e-5")) == 100_001
        with pytest.raises(ConfigError, match="more than 1000000"):
            cli._parse_value_list("0:1:1e-6")

    def test_mixed_document_needs_mixed_command(self, capsys, tmp_path):
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, MIXED_DOC))
        assert rc == 2
        assert "mixed" in err

    def test_infeasible_preset(self, capsys):
        rc, out, err = run(capsys, "solve", "--preset", "exp4")
        assert rc == 3
        assert "infeasible" in err

    @pytest.mark.parametrize("edit, message", [
        ({"users": [{"id": 1, "source": 2, "target": 1, "demand": 1.0}],
          "alphas": [0.0]}, "user 1 has no path from 2 to 1"),
        ({"links": [{"id": "l1", "source": 1, "target": 2,
                     "cost": {"kind": "queue", "capacity": 1.5}}]},
         "demand meets or exceeds the capacity of links l1: at most "
         "0.7499999995 of every user's demand fits"),
    ])
    def test_infeasible_document(self, capsys, tmp_path, edit, message):
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, {**GAME_DOC, **edit}))
        assert rc == 3
        assert message in err

    def test_upstream_bottleneck_exits_three(self, capsys, tmp_path):
        # every path crosses a (capacity 1) before the two wide links
        doc = {"nodes": [1, 2, 3],
               "links": [{"id": "a", "source": 1, "target": 2,
                          "cost": {"kind": "queue", "capacity": 1.0}}] + [
                   {"id": lid, "source": 2, "target": 3,
                    "cost": {"kind": "queue", "capacity": 10.0}}
                   for lid in ("b", "c")],
               "users": [{"id": k, "source": 1, "target": 3,
                          "demand": 0.75} for k in (1, 2)],
               "alphas": [0.0, 0.0]}
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, doc))
        assert rc == 3
        assert "capacity of links a:" in err

    def test_shared_link_of_two_destinations_exits_three(self, capsys,
                                                         tmp_path):
        # users bound for nodes 2 and 3 must both cross s (capacity 2);
        # each destination's own cut holds its demand
        doc = {"nodes": [0, 1, 2, 3],
               "links": [{"id": "s", "source": 0, "target": 1,
                          "cost": {"kind": "queue", "capacity": 2.0}},
                         {"id": "a", "source": 1, "target": 2,
                          "cost": {"kind": "linear", "slope": 1.0}},
                         {"id": "b", "source": 1, "target": 2,
                          "cost": {"kind": "linear", "slope": 0.0,
                                   "intercept": 0.5}},
                         {"id": "c", "source": 2, "target": 3,
                          "cost": {"kind": "linear", "slope": 1.0}}],
               "users": [{"id": 1, "source": 0, "target": 2, "demand": 1.2},
                         {"id": 2, "source": 0, "target": 3, "demand": 1.0}],
               "alphas": [0.0, 0.0]}
        rc, out, err = run(capsys, "solve", "--config",
                           write_doc(tmp_path, doc))
        assert (rc, out) == (3, "")
        assert "capacity of links s:" in err

    @pytest.mark.parametrize("second, rc", [(1.0, 3), (0.7, 0)])
    def test_cut_of_two_destinations_exits_three(self, capsys, tmp_path,
                                                 second, rc):
        # users bound for nodes 2 and 3 both cross s1 or s2 (capacity 1
        # each) but no one link: each destination's own cut and each
        # link hold the demand, the cut shared by both does not at 2.2
        doc = {"nodes": [0, 1, 2, 3],
               "links": [{"id": lid, "source": 0, "target": 1,
                          "cost": {"kind": "queue", "capacity": 1.0}}
                         for lid in ("s1", "s2")] + [
                   {"id": "a", "source": 1, "target": 2,
                    "cost": {"kind": "linear", "slope": 1.0}},
                   {"id": "c", "source": 2, "target": 3,
                    "cost": {"kind": "linear", "slope": 1.0}}],
               "users": [{"id": 1, "source": 0, "target": 2, "demand": 1.2},
                         {"id": 2, "source": 0, "target": 3,
                          "demand": second}],
               "alphas": [0.0, 0.0]}
        got, out, err = run(capsys, "solve", "--config",
                            write_doc(tmp_path, doc))
        assert got == rc
        if rc:
            assert out == ""
            assert "capacity of links s1, s2:" in err
            # lambda is (2 - 2e-9) / 2.2: each link keeps its 1e-9 guard
            assert json.loads(err.splitlines()[1]) == {
                "lambda": 0.9090909081818183, "links": ["s1", "s2"],
                "prices": [1, 1]}

    @pytest.mark.parametrize("second, rc", [(1.0, 3), (0.7, 0)])
    def test_a_source_at_another_destination_exits_three(
            self, capsys, tmp_path, second, rc):
        # user 2 starts at user 1's destination and returns over b, so
        # both users cross s1 or s2 (capacity 1 each): 2.2 against 2 is
        # refused, with the two links priced; 1.9 solves
        doc = {"nodes": [0, 1, 2],
               "links": [{"id": lid, "source": 0, "target": 1,
                          "cost": {"kind": "queue", "capacity": 1.0}}
                         for lid in ("s1", "s2")] + [
                   {"id": "a", "source": 1, "target": 2,
                    "cost": {"kind": "linear", "slope": 1.0}},
                   {"id": "b", "source": 2, "target": 0,
                    "cost": {"kind": "linear", "slope": 1.0}}],
               "users": [{"id": 1, "source": 0, "target": 2, "demand": 1.2},
                         {"id": 2, "source": 2, "target": 1,
                          "demand": second}],
               "alphas": [0.0, 0.0]}
        got, out, err = run(capsys, "solve", "--config",
                            write_doc(tmp_path, doc))
        assert got == rc
        if rc:
            assert out == ""
            assert "capacity of links s1, s2:" in err
            assert json.loads(err.splitlines()[1])["links"] == ["s1", "s2"]

    @pytest.mark.parametrize("demand, rc", [(2 - 1e-9, 3), (2 - 3e-9, 0)])
    def test_demand_within_the_guard_exits_three(self, capsys, tmp_path,
                                                 demand, rc):
        # two capacity-1 links hold 2 - 2e-9 once each keeps the solvers'
        # 1e-9 guard: a demand above that is refused before any start
        doc = {**GAME_DOC,
               "links": [{"id": lid, "source": 1, "target": 2,
                          "cost": {"kind": "queue", "capacity": 1.0}}
                         for lid in ("l1", "l2")],
               "users": [{"id": 1, "source": 1, "target": 2,
                          "demand": demand}],
               "alphas": [0.0]}
        got, out, err = run(capsys, "solve", "--config",
                            write_doc(tmp_path, doc))
        assert got == rc
        assert ("capacity of links l1, l2:" in err) is bool(rc)

    def test_solver_failure_maps_to_four(self, capsys, monkeypatch):
        def boom(game):
            raise SolverError("no fixed point", diagnostics={"starts": 0})

        monkeypatch.setattr(cli, "multistart_nash", boom)
        rc, out, err = run(capsys, "solve", "--preset", "exp2")
        assert rc == 4
        assert "solver failure" in err

    def test_bad_thread_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("COOPROUTE_THREADS", "many")
        rc, out, err = run(capsys, "sweep", "--preset", "exp2",
                           "--alphas", "0,0.1")
        assert rc == 2

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_alpha_grid_rows(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "exp2",
                           "--alphas", "0,0.2,0.4")
        assert rc == 0
        lines = out.strip().splitlines()
        params = [line.split(",")[0] for line in lines[1:]]
        assert params == ["0", "0.2", "0.4"]

    def test_range_syntax(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "exp2",
                           "--alphas", "0:0.4:0.2")
        assert rc == 0
        assert json.loads(err)["parameters"] == {
            "parameter": "alpha", "values": [0.0, 0.2, 0.4], "vary": "all"}

    def test_structural_sweep_with_values(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "exp5",
                           "--parameter", "--values", "0,40")
        assert rc == 0
        # a structural sweep varies no cooperation degree
        assert json.loads(err)["parameters"] == {
            "parameter": "cross_slope", "values": [0.0, 40.0]}
        lines = out.strip().splitlines()
        assert {line.split(",")[0] for line in lines[1:]} == {"0", "40"}

    def test_structural_sweep_needs_preset_parameter(self, capsys):
        rc, out, err = run(capsys, "sweep", "--preset", "exp1",
                           "--parameter")
        assert rc == 2

    @pytest.mark.parametrize("argv, flag", [
        (("--preset", "exp1", "--alphas", "0:1:0.5", "--values", "1"),
         "--values"),
        (("--preset", "exp1", "--alphas", "0:1:0.5", "--alpha", "0.5"),
         "--alpha"),
        (("--preset", "exp5", "--parameter", "--alphas", "0,1"), "--alphas"),
        (("--preset", "exp5", "--parameter", "--vary", "all"), "--vary"),
    ])
    def test_other_sweep_kinds_options_rejected(self, capsys, argv, flag):
        rc, out, err = run(capsys, "sweep", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_document_sweep_matches_preset(self, capsys, monkeypatch,
                                           tmp_path, threads):
        # GAME_DOC is the exp2 game
        monkeypatch.setenv("COOPROUTE_THREADS", threads)
        rc, doc_out, _ = run(capsys, "sweep", "--config",
                             write_doc(tmp_path, GAME_DOC),
                             "--alphas", "0,0.2")
        rc2, preset_out, _ = run(capsys, "sweep", "--preset", "exp2",
                                 "--alphas", "0,0.2")
        assert rc == rc2 == 0
        assert doc_out == preset_out

    def test_manifest_counts_rows_without_scan(self, capsys, tmp_path):
        rc, _, err = run(capsys, "sweep", "--config",
                         write_doc(tmp_path, ONE_LINK_DOC),
                         "--alphas", "0,0.5")
        assert rc == 0
        assert json.loads(err)["diagnostics"]["scan_coverage"] == {"none": 2}
        rc, _, err = run(capsys, "sweep", "--preset", "exp2",
                         "--alphas", "0,0.2")
        assert rc == 0
        assert "none" not in json.loads(err)["diagnostics"]["scan_coverage"]

    def test_manifest_counts_rows_certified_unique(self, capsys):
        rc, _, err = run(capsys, "sweep", "--preset", "exp1",
                         "--alphas", "0,0.5,0.95", "--vary", "first")
        assert rc == 0
        assert json.loads(err)["diagnostics"]["scan_coverage"] == {
            "unique": 2, "support": 1}

    def test_manifest_counts_rows_by_scan_coverage(self, capsys):
        # at 0.9 an unused path has zero slack, so no check closes that
        # row
        rc, _, err = run(capsys, "sweep", "--preset", "exp1",
                         "--alphas", "0.5,0.9,0.95", "--vary", "first")
        assert rc == 0
        assert json.loads(err)["diagnostics"]["scan_coverage"] == {
            "unique": 1, "none": 1, "support": 1}

    def test_manifest_sums_the_dynamics_work(self, capsys, tmp_path,
                                             monkeypatch):
        # each row's sweeps and extrapolation jumps, summed over the rows
        monkeypatch.setenv("COOPROUTE_THREADS", "1")
        path = write_doc(tmp_path, THREE_LINK_DOC)
        rows = []
        for alpha in ("0.3", "0.6"):
            rc, _, err = run(capsys, "solve", "--config", path,
                             "--alpha", alpha)
            assert rc == 0
            rows.append(json.loads(err)["diagnostics"])
        rc, _, err = run(capsys, "sweep", "--config", path,
                         "--alphas", "0.3,0.6", "--vary", "all")
        assert rc == 0
        diagnostics = json.loads(err)["diagnostics"]
        for key in ("sweeps", "jumps_kept", "jumps_rejected", "pass_missed",
                    "responses", "responses_reused"):
            assert diagnostics[key] == sum(row[key] for row in rows)
        assert diagnostics["jumps_kept"] > 0

    def test_structural_sweep_alpha_matches_solve(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--preset", "exp5", "--parameter",
                         "--values", "0,40", "--alpha", "0")
        assert rc == 0
        header, *rows = out.strip().splitlines()
        for value in ("0", "40"):
            rc, solved, _ = run(capsys, "solve", "--preset", "exp5",
                                "--param", value, "--alpha", "0")
            assert rc == 0
            want = [value + line for line in solved.strip().splitlines()[1:]]
            assert [r for r in rows if r.split(",")[0] == value] == want

    def test_workers_never_outnumber_rows_or_cores(self, capsys,
                                                   monkeypatch):
        # counts forks instead of trying a large worker count for real
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        for threads, alphas, workers in (("64", "0,0.2", 2),
                                         ("64", "0,0.1,0.2", 2),
                                         ("1", "0,0.1,0.2", 1)):
            monkeypatch.setenv("COOPROUTE_THREADS", threads)
            forks.clear()
            rc, _, err = run(capsys, "sweep", "--preset", "exp2",
                             "--alphas", alphas)
            assert rc == 0
            assert json.loads(err)["workers"] == workers
            assert len(forks) == workers - 1
        forks.clear()
        assert cli._fork_map(abs, [-1, 2], 5) == [1, 2]
        assert len(forks) == 1

    @pytest.mark.parametrize("failing, reported", [((1, 2), 1),
                                                   ((2, 3), 2)])
    def test_lowest_failing_row_is_reported(self, capsys, monkeypatch,
                                            failing, reported):
        # with two workers the parent solves rows 0 and 2, its forked
        # child rows 1 and 3; the child inherits the replaced solver
        real = experiments.multistart_nash
        values = (0.0, 0.1, 0.2, 0.3)

        def solve(game):
            # user 1's weight on user 2 is the row's alpha
            row = values.index(game.coop.rows[0][1])
            if row in failing:
                raise SolverError(f"row {row} failed")
            return real(game)

        monkeypatch.setattr(experiments, "multistart_nash", solve)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("COOPROUTE_THREADS", "2")
        rc, out, err = run(capsys, "sweep", "--preset", "exp2",
                           "--alphas", ",".join(map(str, values)))
        assert rc == 4
        assert out == ""
        assert err == f"solver failure: row {reported} failed\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_failure_runs_sequentially(self, capsys, monkeypatch):
        rc, seq, _ = run(capsys, "sweep", "--preset", "exp2",
                         "--alphas", "0,0.1,0.2")
        real_fork = os.fork
        forks = []

        def fork():
            # the second fork fails after the first child has started
            forks.append(1)
            if len(forks) > 1:
                raise OSError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("COOPROUTE_THREADS", "3")
        rc2, out, err = run(capsys, "sweep", "--preset", "exp2",
                            "--alphas", "0,0.1,0.2")
        assert rc == rc2 == 0
        assert out == seq
        doc = json.loads(err)
        assert doc["workers"] == 1
        assert doc["warnings"][-1] == (
            "worker pool unavailable ([Errno 11] Resource temporarily "
            "unavailable); ran sequentially")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_runs_sequentially(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("COOPROUTE_THREADS", "2")
        rc, _, err = run(capsys, "sweep", "--preset", "exp2",
                         "--alphas", "0,0.2")
        assert rc == 0
        assert json.loads(err)["warnings"][-1] == (
            "worker pool unavailable (os.fork is not available); ran "
            "sequentially")

    def test_worker_pool_matches_sequential(self, capsys, monkeypatch):
        rc, seq, _ = run(capsys, "sweep", "--preset", "exp2",
                         "--alphas", "0,0.2")
        monkeypatch.setenv("COOPROUTE_THREADS", "2")
        rc2, par, _ = run(capsys, "sweep", "--preset", "exp2",
                          "--alphas", "0,0.2")
        assert rc == rc2 == 0
        assert seq == par


class TestForkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_map(self, workers):
        for n in range(1, 8):
            items = list(range(n))
            assert cli._fork_map(lambda x: (x, x * x), items, workers) == \
                list(map(lambda x: (x, x * x), items))

    def test_child_without_result_is_a_solver_error(self):
        parent = os.getpid()

        def die_in_child(x):
            if os.getpid() != parent:
                os._exit(3)
            return x

        with pytest.raises(SolverError,
                           match=r"worker 1 .*exit status 3\)"):
            cli._fork_map(die_in_child, range(4), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_child_exception_is_a_solver_error(self):
        parent = os.getpid()

        class Local(Exception):
            pass

        def fail_in_child(x):
            if os.getpid() != parent:
                raise Local("cannot pickle a local class")
            return x

        with pytest.raises(SolverError, match="worker 1 "):
            cli._fork_map(fail_in_child, range(4), 2)

    def test_interrupted_parent_leaves_no_child(self):
        parent = os.getpid()

        def interrupt(x):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._fork_map(interrupt, range(4), 3)
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestMixedCommand:
    def test_document_run(self, capsys, tmp_path):
        rc, out, err = run(capsys, "mixed", "--config",
                           write_doc(tmp_path, MIXED_DOC))
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("solver,case,kind,group_split")
        solvers = {line.split(",")[0] for line in lines[1:]}
        assert solvers == {"closed-form", "numeric"}

    def test_alpha_override(self, capsys, tmp_path):
        rc, out, err = run(capsys, "mixed", "--config",
                           write_doc(tmp_path, MIXED_DOC),
                           "--alpha", "0")
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        numeric = [r for r in rows if r[0] == "numeric"]
        assert len(numeric) == 1
        assert float(numeric[0][3]) == pytest.approx(0.6, abs=1e-6)

    def test_game_preset_rejected(self, capsys):
        rc, out, err = run(capsys, "mixed", "--preset", "exp1")
        assert rc == 2


class TestVerifyCommand:
    def test_equilibrium_passes(self, capsys, tmp_path):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps(
            {"path_flows": [[1.0, 0.0], [0.875, 0.125]]}))
        rc, out, err = run(capsys, "verify", "--preset", "exp1",
                           "--alpha", "0.95", "0",
                           "--profile", str(prof))
        assert rc == 0
        result = json.loads(out)
        assert result["ok"] is True
        assert result["max_violation"] <= 1e-6

    def test_non_equilibrium_reports_false(self, capsys, tmp_path):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps(
            {"path_flows": [[0.5, 0.5], [0.5, 0.5]]}))
        rc, out, err = run(capsys, "verify", "--preset", "exp1",
                           "--alpha", "0", "--profile", str(prof))
        assert rc == 0
        assert json.loads(out)["ok"] is False

    def test_infinite_violation_is_strict_json(self, capsys, tmp_path):
        # user 1's 2.0 on its crossing path overloads the link of capacity
        # 0.5: an infinite violation, written as the CSV writes it
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"path_flows": [[0.0, 2.0], [1.0, 0.0]]}))
        rc, out, err = run(capsys, "verify", "--preset", "braess-lb-asym",
                           "--param", "0.5", "--profile", str(prof))
        assert rc == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        result = json.loads(out, parse_constant=refuse)
        assert result["ok"] is False
        assert result["max_violation"] == "inf"
        json.loads(err, parse_constant=refuse)
        assert cli._dumps({"a": [math.nan, (-math.inf, 1.5)]}) == (
            '{"a": ["nan", ["-inf", 1.5]]}')

    def test_no_fitting_best_response_reports_false(self, capsys, tmp_path):
        # user 2's 2.0 on its crossing path fills l1 (capacity 2), which
        # leaves user 1 no split of its demand that fits: a failed check
        doc = {"nodes": [1, 2, 3],
               "links": [{"id": lid, "source": a, "target": b,
                          "cost": cost}
                         for lid, a, b, cost in (
                             ("l1", 1, 3, {"kind": "queue", "capacity": 2.0}),
                             ("l2", 2, 3, {"kind": "linear", "slope": 0.0}),
                             ("l3", 1, 2, {"kind": "queue", "capacity": 1.0}),
                             ("l4", 2, 1, {"kind": "linear", "slope": 0.0}))],
               "users": [{"id": 1, "source": 1, "target": 3, "demand": 1.0},
                         {"id": 2, "source": 2, "target": 3, "demand": 2.0}],
               "alphas": [0.0, 0.0]}
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"path_flows": [[1.0, 0.0], [0.0, 2.0]]}))
        rc, out, err = run(capsys, "verify", "--config",
                           write_doc(tmp_path, doc), "--profile", str(prof))
        assert rc == 0
        result = json.loads(out)
        assert result["ok"] is False
        assert result["max_violation"] == "inf"

    def test_demand_mismatch_is_config_error(self, capsys, tmp_path):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps(
            {"path_flows": [[0.5, 0.2], [0.5, 0.5]]}))
        rc, out, err = run(capsys, "verify", "--preset", "exp1",
                           "--alpha", "0", "--profile", str(prof))
        assert rc == 2


def readme_command_lines():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines()
            if line.startswith("cooproute ")]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_commands_parse(line):
    # a flag that is gone from the parser must not stay documented
    cli.build_parser().parse_args(shlex.split(line)[1:])


GOLDEN = pathlib.Path(__file__).resolve().parent / "data"

# Each golden sweep's arguments, and what the pass decided on it as its
# manifest counts it: rows, clusters, non-converged and failed starts,
# dynamics clusters near no pass root, and rows per scan coverage.  The
# work counters ``sweeps`` and ``jumps_*`` are not pinned.
PINNED = ("rows", "clusters", "non_converged", "failed_starts",
          "pass_missed", "scan_coverage")
GOLDEN_SWEEPS = {
    "exp1_first.csv": (
        ("--preset", "exp1", "--alphas", "0:1:0.05", "--vary", "first"),
        (21, 26, 0, 0, 0, {"none": 1, "support": 5, "unique": 15})),
    "exp1_all.csv": (
        ("--preset", "exp1", "--alphas", "0:1:0.05", "--vary", "all"),
        (21, 38, 0, 0, 0, {"none": 1, "support": 10, "unique": 10})),
    "braess_lb_sym.csv": (
        ("--preset", "braess-lb-sym", "--parameter"),
        (21, 51, 0, 0, 0, {"support": 21})),
    "braess_lb_asym.csv": (
        ("--preset", "braess-lb-asym", "--parameter"),
        (21, 23, 0, 0, 0, {"support": 21})),
    "exp3_all.csv": (
        ("--preset", "exp3", "--alphas", "0:1:0.05", "--vary", "all"),
        (21, 29, 0, 0, 0, {"support": 21})),
    "exp5_parameter.csv": (
        ("--preset", "exp5", "--parameter"),
        (51, 55, 0, 0, 0, {"support": 3, "unique": 48})),
    "exp4_feasible_first.csv": (
        ("--preset", "exp4-feasible", "--alphas", "0:1:0.05", "--vary",
         "first"),
        (21, 31, 0, 0, 0, {"support": 21})),
}


@pytest.mark.parametrize("name", list(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_file(name, tmp_path, monkeypatch):
    """The CSV bytes of seven sweeps, run with one worker, are pinned in
    ``tests/data``:

        cooproute sweep --preset exp1 --alphas 0:1:0.05 --vary first
        cooproute sweep --preset exp1 --alphas 0:1:0.05 --vary all
        cooproute sweep --preset braess-lb-sym --parameter
        cooproute sweep --preset braess-lb-asym --parameter
        cooproute sweep --preset exp3 --alphas 0:1:0.05 --vary all
        cooproute sweep --preset exp5 --parameter
        cooproute sweep --preset exp4-feasible --alphas 0:1:0.05 --vary first

    The exp3 sweep holds the roots of M/M/1 best-response curves, three
    equilibria a row past alpha 0.80; exp4-feasible holds the closed-form
    split of a queue pair.

    The two Braess sweeps also run on two worker processes to the same
    bytes.  A change that means to move these answers regenerates
    the files with the same commands and says so in CHANGES.md, as it
    does for the manifest counts in ``GOLDEN_SWEEPS``."""
    argv, counts = GOLDEN_SWEEPS[name]
    threads = ["1", "2"] if name.startswith("braess") else ["1"]
    # two workers even on a one-core runner
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for n in threads:
        monkeypatch.setenv("COOPROUTE_THREADS", n)
        out = tmp_path / f"{n}-{name}"
        manifest = tmp_path / f"{n}-manifest.json"
        rc = cli.main(["sweep", *argv, "--out", str(out),
                       "--manifest", str(manifest)])
        assert rc == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), n
        doc = json.loads(manifest.read_text())
        assert {k: doc["diagnostics"][k] for k in PINNED} == dict(
            zip(PINNED, counts)), n
        # a worker that cannot be forked falls back to one process
        assert not any("worker pool" in w for w in doc["warnings"])
        assert doc["workers"] == int(n)


GOLDEN_MIXED = {
    "mixed_fig7.csv": ("--preset", "mixed-fig7"),
    "mixed_fig7_a050.csv": ("--preset", "mixed-fig7", "--alpha", "0.5"),
}


@pytest.mark.parametrize("name", list(GOLDEN_MIXED))
def test_mixed_csv_matches_golden_file(name, capsys):
    """The CSV bytes of two mixed solves are pinned in ``tests/data``:

        cooproute mixed --preset mixed-fig7
        cooproute mixed --preset mixed-fig7 --alpha 0.5

    The second runs the closed form at the balanced weight on unequal
    capacities.  A change that means to move these answers regenerates
    the files with the same commands and says so in CHANGES.md."""
    rc, out, _ = run(capsys, "mixed", *GOLDEN_MIXED[name])
    assert rc == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
