"""Tests for the extension workloads on the CLI: top-k (``repro query --top``)
and community search (``repro query --containing``)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(35, 45, [8, 6], 0.9, seed=5)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


def _answers(out: str) -> list[list[str]]:
    return [line.split() for line in out.splitlines() if not line.startswith("#")]


class TestTopkCommand:
    """Top-k queries: ``repro query --top K``."""

    def test_exact_topk(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "4",
                     "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# 2 answers for topk gamma=0.9 theta=4 k=2" in out
        # The two planted communities, the largest first.
        assert [len(answer) for answer in _answers(out)] == [8, 6]

    def test_dataset_defaults(self, capsys):
        code = main(["query", "-d", "douban", "--top", "1", "-t", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# 1 answers for topk gamma=0.9 theta=5 k=1" in out
        assert len(_answers(out)) == 1

    def test_missing_gamma(self, graph_file):
        with pytest.raises(SystemExit):
            main(["query", "-i", str(graph_file), "--top", "2"])


class TestCommunityCommand:
    """Containment queries: ``repro query --containing V...``."""

    def test_community_of_planted_member(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.85", "-t", "4",
                     "--containing", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "containing=0" in out
        assert all("0" in answer for answer in _answers(out))

    def test_community_with_dataset_defaults(self, capsys):
        code = main(["query", "-d", "douban", "--containing", "0"])
        assert code == 0
        assert "containing=0" in capsys.readouterr().out

    def test_missing_parameters(self, graph_file):
        with pytest.raises(SystemExit):
            main(["query", "-i", str(graph_file), "--containing", "0"])

    def test_multiple_query_vertices(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.85", "-t", "4",
                     "--containing", "0", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "containing=0,1" in out
        answers = _answers(out)
        assert answers
        assert all({"0", "1"} <= set(answer) for answer in answers)
