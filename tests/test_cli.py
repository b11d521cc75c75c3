"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_graph_spec
from repro.graphs import Graph, dumps_edge_list, karate_club_graph


class TestGraphSpecs:
    def test_named_graphs(self):
        assert parse_graph_spec("karate").num_nodes == 34
        assert parse_graph_spec("figure1").num_nodes == 5
        assert parse_graph_spec("path:7").num_nodes == 7
        assert parse_graph_spec("cycle:6").num_edges == 6
        assert parse_graph_spec("star:5").degree(0) == 4
        assert parse_graph_spec("complete:4").num_edges == 6
        assert parse_graph_spec("grid:3x4").num_nodes == 12
        assert parse_graph_spec("tree:2:3").num_nodes == 15
        assert parse_graph_spec("hypercube:3").num_nodes == 8
        assert parse_graph_spec("diamonds:4").num_nodes == 13
        assert parse_graph_spec("er:10:0.5:3").num_nodes == 10

    def test_unknown_graph(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("petersen")

    def test_malformed_args(self):
        with pytest.raises(SystemExit):
            parse_graph_spec("path:xyz")
        with pytest.raises(SystemExit):
            parse_graph_spec("grid:3")


class TestCommands:
    def run(self, *argv):
        return main(list(argv))

    def test_bc(self, capsys):
        assert self.run("bc", "--graph", "figure1", "--arithmetic", "exact") == 0
        out = capsys.readouterr().out
        assert "3.5" in out
        assert "rounds=51" in out

    def test_bc_check(self, capsys):
        assert self.run("bc", "--graph", "path:6", "--check") == 0
        assert "Brandes" in capsys.readouterr().out

    def test_bc_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text(dumps_edge_list(karate_club_graph()))
        assert self.run("bc", "--file", str(path), "--top", "3") == 0
        assert "N=34" in capsys.readouterr().out

    def test_bc_disconnected_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text(dumps_edge_list(Graph(4, [(0, 1), (2, 3)])))
        assert self.run("bc", "--file", str(path)) == 1
        assert "not connected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bc", "--graph", "cycle:8", "--root", "8"),
            ("apsp", "--graph", "cycle:8", "--root", "8"),
            ("trace", "--graph", "cycle:8", "--root", "8"),
            ("report", "--graph", "cycle:8", "--root", "8"),
            ("schedule", "--graph", "path:5", "--root", "9"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_root_reports_error(self, argv, capsys):
        assert self.run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: root ")
        assert "Traceback" not in err

    def test_apsp(self, capsys):
        assert self.run("apsp", "--graph", "star:6") == 0
        assert "closeness" in capsys.readouterr().out

    def test_stress(self, capsys):
        assert self.run("stress", "--graph", "path:5") == 0
        out = capsys.readouterr().out
        assert "stress" in out

    def test_sample(self, capsys):
        assert self.run(
            "sample", "--graph", "karate", "--pivots", "5", "--seed", "1"
        ) == 0
        assert "k=5" in capsys.readouterr().out

    def test_schedule_shortcut_matches_paper(self, capsys):
        assert self.run("schedule", "--graph", "figure1") == 0
        out = capsys.readouterr().out
        assert "BFS start times" in out
        assert "shortcut" in out

    def test_gadget_diameter(self, capsys):
        assert self.run("gadget", "diameter", "--intersect") == 0
        out = capsys.readouterr().out
        assert "Lemma 8" in out

    def test_gadget_bc(self, capsys):
        assert self.run("gadget", "bc", "--seed", "2") == 0
        assert "Lemma 9" in capsys.readouterr().out

    def test_info(self, capsys):
        assert self.run("info", "--graph", "hypercube:3") == 0
        out = capsys.readouterr().out
        assert "diameter" in out
        assert "max sigma" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            self.run()


class TestNewCommands:
    def run(self, *argv):
        return main(list(argv))

    def test_trace(self, capsys):
        assert self.run("trace", "--graph", "path:5", "--width", "30") == 0
        out = capsys.readouterr().out
        assert "BfsWave" in out
        assert "Traffic by message type" in out

    def test_elect_min_id(self, capsys):
        assert self.run("elect", "--graph", "karate") == 0
        assert "min id" in capsys.readouterr().out

    def test_elect_seeded(self, capsys):
        assert self.run("elect", "--graph", "karate", "--seed", "4") == 0
        assert "seeded" in capsys.readouterr().out

    def test_json_file_loading(self, tmp_path, capsys):
        from repro.graphs import dumps_json, path_graph

        path = tmp_path / "g.json"
        path.write_text(dumps_json(path_graph(5)))
        assert self.run("info", "--file", str(path)) == 0
        assert "path-5" in capsys.readouterr().out

    def test_weighted_json_bc(self, tmp_path, capsys):
        from repro.graphs import WeightedGraph, dumps_json

        wg = WeightedGraph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (0, 3, 5)])
        path = tmp_path / "wg.json"
        path.write_text(dumps_json(wg))
        assert self.run("bc", "--file", str(path), "--check") == 0
        out = capsys.readouterr().out
        assert "weighted betweenness" in out
        assert "virtual" in out

    def test_weighted_json_info(self, tmp_path, capsys):
        from repro.graphs import WeightedGraph, dumps_json

        wg = WeightedGraph(3, [(0, 1, 4), (1, 2, 1)])
        path = tmp_path / "wg.json"
        path.write_text(dumps_json(wg))
        assert self.run("info", "--file", str(path)) == 0
        out = capsys.readouterr().out
        assert "total weight" in out
        assert "weighted diameter" in out


class TestChaosCommand:
    def run(self, *argv):
        return main(list(argv))

    def test_chaos_recovers_and_checks(self, capsys):
        assert (
            self.run(
                "chaos",
                "--graph",
                "figure1",
                "--arithmetic",
                "exact",
                "--drop",
                "0.1",
                "--seed",
                "7",
                "--check",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "check OK" in out
        assert "Recovered betweenness" in out

    def test_chaos_check_lfloat_is_differential(self, capsys):
        # Under L-bit floats the protocol differs from Brandes by the
        # Theorem 1 envelope even without faults, so --check compares
        # against a fault-free run of the same arithmetic instead.
        assert (
            self.run(
                "chaos",
                "--graph",
                "er:14:0.3:5",
                "--drop",
                "0.08",
                "--dup",
                "0.02",
                "--corrupt",
                "0.01",
                "--seed",
                "7",
                "--check",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "check OK" in out
        assert "fault-free run" in out

    def test_chaos_partial_exits_2(self, capsys):
        assert (
            self.run(
                "chaos",
                "--graph",
                "figure1",
                "--crash",
                "3@40",
                "--seed",
                "1",
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "Partial betweenness" in out
        assert "affected sources" in out

    def test_chaos_plan_round_trip(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert (
            self.run(
                "chaos",
                "--graph",
                "figure1",
                "--drop",
                "0.05",
                "--seed",
                "3",
                "--plan-out",
                str(plan_path),
            )
            == 0
        )
        capsys.readouterr()
        assert (
            self.run(
                "chaos", "--graph", "figure1", "--plan", str(plan_path)
            )
            == 0
        )
        assert "seed=3" in capsys.readouterr().out

    def test_chaos_bad_crash_spec(self):
        with pytest.raises(SystemExit):
            self.run("chaos", "--graph", "figure1", "--crash", "banana")

    def test_chaos_frame_audit_rejected(self):
        with pytest.raises(SystemExit):
            self.run("chaos", "--graph", "figure1", "--frame-audit")

    def test_report_renders_non_termination(self, capsys, monkeypatch):
        # A run that trips the round limit must be rendered as the
        # structured context table, not a traceback.
        from repro.exceptions import SimulationNotTerminatedError

        def never_finishes(graph, **kwargs):
            raise SimulationNotTerminatedError(
                101, 100, (2, 5), graph_name=graph.name
            )

        import repro.cli as cli

        monkeypatch.setattr(cli, "distributed_betweenness", never_finishes)
        assert self.run("report", "--graph", "path:6") == 1
        out = capsys.readouterr().out
        assert "did NOT terminate" in out
        assert "round limit" in out
        assert "[2, 5]" in out
