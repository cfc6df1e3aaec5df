"""Tests for the `repro dynamic` CLI sub-command group."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import read_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    lines = ["1 2", "1 3", "2 3", "2 4", "3 4", "1 4", "7 8", "8 9"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def updates_file(tmp_path):
    path = tmp_path / "updates.txt"
    path.write_text("# break the clique's diagonal\nremove 1 4\nadd 9 10\n",
                    encoding="utf-8")
    return path


class TestParser:
    def test_dynamic_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic"])

    def test_apply_requires_updates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "apply", "-i", "g.txt"])


class TestDynamicApply:
    def test_apply_reports_and_writes(self, graph_file, updates_file, tmp_path, capsys):
        output = tmp_path / "updated.txt"
        code = main(["dynamic", "apply", "-i", str(graph_file),
                     "-u", str(updates_file), "-o", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 mutations applied" in out or "mutations applied" in out
        updated = read_edge_list(output)
        assert not updated.has_edge(1, 4)
        assert updated.has_edge(9, 10)

    def test_apply_json(self, graph_file, updates_file, capsys):
        code = main(["dynamic", "apply", "-i", str(graph_file),
                     "-u", str(updates_file), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["removed_edges"] == 1
        assert payload["report"]["added_edges"] == 1
        assert payload["graph"]["version"] > 0

    def test_malformed_script_exits_2(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("frobnicate 1 2\n", encoding="utf-8")
        code = main(["dynamic", "apply", "-i", str(graph_file), "-u", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDynamicQuery:
    """Querying an updated graph: ``dynamic apply -o`` writes it, ``query -i``
    answers on it."""

    @pytest.fixture
    def updated_file(self, graph_file, updates_file, tmp_path, capsys):
        path = tmp_path / "updated.txt"
        assert main(["dynamic", "apply", "-i", str(graph_file),
                     "-u", str(updates_file), "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_query_before_and_after(self, graph_file, updated_file, capsys):
        assert main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "3"]) == 0
        before = capsys.readouterr().out
        assert "# 1 answers" in before
        assert "1 2 3 4" in before
        assert main(["query", "-i", str(updated_file), "-g", "0.9", "-t", "3"]) == 0
        after = capsys.readouterr().out
        assert "# 2 answers" in after
        assert "1 2 3" in after and "2 3 4" in after

    def test_query_json_includes_report(self, graph_file, updates_file, tmp_path, capsys):
        updated = tmp_path / "updated.txt"
        code = main(["dynamic", "apply", "-i", str(graph_file),
                     "-u", str(updates_file), "-o", str(updated), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["report"]
        # remove 1 4 + add 9 10 = one removal, one implicit add_vertex(10),
        # one addition: three low-level mutation records.
        assert report["mutations"] == 3
        assert report["added_vertices"] == 1
        assert main(["query", "-i", str(updated), "-g", "0.9", "-t", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["maximal_count"] == 2

    def test_query_without_updates(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "3"])
        assert code == 0
        assert "# 1 answers" in capsys.readouterr().out

    def test_query_dataset_defaults(self, updates_file, tmp_path, capsys):
        updated = tmp_path / "twitter.txt"
        assert main(["dynamic", "apply", "-d", "twitter", "-u", str(updates_file),
                     "-o", str(updated)]) == 0
        capsys.readouterr()
        code = main(["query", "-i", str(updated), "-g", "0.9", "-t", "5"])
        assert code == 0
        assert "answers for enumerate gamma=0.9 theta=5" in capsys.readouterr().out


class TestDynamicStats:
    def test_stats_reports_patches(self, graph_file, updates_file, capsys):
        code = main(["dynamic", "stats", "-i", str(graph_file), "-u", str(updates_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dynamic"]["updates"]["mutations"] == 3
        assert payload["dynamic"]["updates"]["operations"] == {
            "remove_edge": 1, "add_vertex": 1, "add_edge": 1}
        assert payload["prepared"]["version"] == read_edge_list(graph_file).version + 3

    def test_stats_without_updates(self, graph_file, capsys):
        code = main(["dynamic", "stats", "-i", str(graph_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dynamic"]["updates"]["mutations"] == 0
        assert payload["prepared"]["version"] == read_edge_list(graph_file).version
