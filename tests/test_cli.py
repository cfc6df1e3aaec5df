"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets.registry import get_spec
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(30, 40, [7], 0.9, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_enumerate_defaults(self):
        # A plain query is the enumerate workload; the planner picks the
        # algorithm unless one is forced.
        args = build_parser().parse_args(["query", "-i", "x.txt", "-g", "0.9", "-t", "5"])
        assert args.algorithm is None
        assert args.gamma == 0.9
        assert args.top is None and args.containing is None and not args.count


class TestEnumerateCommand:
    """The enumerate workload, the default of ``repro query``."""

    def test_enumerate_from_file(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "answers for enumerate gamma=0.9 theta=5" in out

    def test_enumerate_json_summary(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5",
                     "-a", "dcfastqc", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["result"]
        assert summary["algorithm"] == "dcfastqc"
        assert summary["maximal_count"] >= 1

    def test_enumerate_writes_output_file(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "mqcs.txt"
        main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5",
              "-o", str(out_path)])
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("#")]
        assert out_path.read_text().strip()
        assert len(out_path.read_text().strip().splitlines()) == len(printed)

    def test_enumerate_dataset_uses_defaults(self, capsys):
        code = main(["query", "-d", "douban", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        douban = get_spec("douban")
        assert payload["spec"]["gamma"] == douban.default_gamma
        assert payload["spec"]["theta"] == douban.default_theta
        assert payload["result"]["maximal_count"] >= 1

    def test_enumerate_missing_parameters(self, graph_file):
        with pytest.raises(SystemExit):
            main(["query", "-i", str(graph_file)])

    def test_enumerate_missing_input(self):
        with pytest.raises(SystemExit):
            main(["query", "-g", "0.9", "-t", "5"])


class TestOtherCommands:
    def test_stats_command(self, graph_file, capsys):
        code = main(["stats", "-i", str(graph_file)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        # Isolated vertices are not representable in an edge list, so the
        # round-tripped graph may be slightly smaller than the generated one.
        assert 20 <= stats["vertex_count"] <= 30
        assert stats["edge_count"] > 0

    def test_datasets_command(self, capsys):
        code = main(["datasets"])
        assert code == 0
        out = capsys.readouterr().out
        assert "enron" in out
        assert "uk2002" in out

    def test_table1_command_single_dataset(self, capsys):
        code = main(["table1", "douban", "--skip-quickplus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "douban" in out
        assert "mqc_count" in out
