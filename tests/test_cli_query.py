"""Tests for the unified ``repro query`` CLI command and error mapping."""

from __future__ import annotations

import argparse
import json
import socket

import pytest

from repro.cli import build_parser, main
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(30, 40, [7], 0.9, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestQueryCommand:
    def test_enumerate_with_dataset_defaults(self, capsys):
        assert main(["query", "-d", "twitter"]) == 0
        out = capsys.readouterr().out
        assert "enumerate gamma=0.9 theta=5" in out
        assert "# 3 answers" in out

    def test_count(self, capsys):
        assert main(["query", "-d", "twitter", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_top_k(self, capsys):
        assert main(["query", "-d", "twitter", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "# 2 answers for topk" in out

    def test_containing(self, capsys):
        assert main(["query", "-d", "twitter", "--containing", "0"]) == 0
        out = capsys.readouterr().out
        assert "containing=0" in out

    def test_stream_prints_incrementally_with_summary(self, capsys):
        assert main(["query", "-d", "twitter", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "maximal quasi-cliques streamed" in out
        assert "complete" in out

    def test_limit_budget(self, capsys):
        assert main(["query", "-d", "twitter", "--stream", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "# 1 maximal quasi-cliques streamed" in out
        assert "truncated by budget" in out

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"gamma": 0.9, "theta": 5, "k": 1}))
        assert main(["query", "-d", "twitter", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "topk" in out and "k=1" in out

    def test_flags_override_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"gamma": 0.9, "theta": 4}))
        assert main(["query", "-d", "twitter", "--spec", str(spec_path),
                     "--theta", "5"]) == 0
        assert "theta=5" in capsys.readouterr().out

    def test_from_edge_list_file(self, graph_file, capsys):
        assert main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5"]) == 0
        assert "answers" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert main(["query", "-d", "twitter", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["gamma"] == 0.9
        assert payload["result"]["maximal_count"] == 3
        assert payload["plan"]["algorithm"]

    def test_explain(self, capsys):
        assert main(["query", "-d", "twitter", "--explain"]) == 0
        assert "QueryPlan" in capsys.readouterr().out

    def test_output_file(self, graph_file, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5",
                     "-o", str(target)]) == 0
        assert target.read_text().strip()
        capsys.readouterr()

    def test_stream_honours_output_file(self, tmp_path, capsys):
        target = tmp_path / "streamed.txt"
        assert main(["query", "-d", "twitter", "--stream", "-o", str(target)]) == 0
        assert len(target.read_text().strip().splitlines()) == 3
        capsys.readouterr()

    def test_stream_json_lines(self, capsys):
        assert main(["query", "-d", "twitter", "--stream", "--json"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4  # 3 answers + 1 summary
        assert all("clique" in line for line in lines[:-1])
        assert lines[-1]["delivered"] == 3 and lines[-1]["state"] == "complete"

    def test_count_holds_under_stream(self, capsys):
        assert main(["query", "-d", "twitter", "--count", "--stream"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_count_holds_under_stream_json(self, capsys):
        assert main(["query", "-d", "twitter", "--count", "--stream", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # no per-answer lines
        summary = json.loads(lines[0])
        assert summary["count"] == 3 and "clique" not in summary


class TestErrorMapping:
    """User errors exit with code 2 and one line: bad parameters and specs
    (ReproError), unknown dataset names (argparse), and missing files or
    refused connections (OSError)."""

    def test_invalid_gamma_exits_2(self, capsys):
        assert main(["query", "-d", "twitter", "--gamma", "2.0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "gamma" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_spec_field_exits_2(self, tmp_path, capsys):
        for field in ("bogus", "kernel"):
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps({"gamma": 0.9, field: "reference"}))
            assert main(["query", "-d", "twitter", "--spec", str(spec_path)]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and repr(field) in line

    def test_malformed_spec_file_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        assert main(["query", "-d", "twitter", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["query", "-d", "twitter", "--spec",
                     str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_vertex_exits_2(self, capsys):
        assert main(["query", "-d", "twitter", "--containing", "no-such-vertex"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_legacy_commands_also_mapped(self, capsys):
        # The older query commands are gone: argparse rejects each name with
        # exit code 2, and `repro query` answers all of their queries.
        for prefix, removed in ([], "enumerate"), ([], "topk"), ([], "community"), \
                (["engine"], "query"), (["engine"], "explain"), (["dynamic"], "query"):
            with pytest.raises(SystemExit) as info:
                main(prefix + [removed, "-d", "twitter"])
            assert info.value.code == 2
            assert f"invalid choice: '{removed}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["query", "-d", "nosuch"],
        ["engine", "stats", "-d", "nosuch"],
        ["serve", "--dataset", "nosuch"],
    ], ids=["query", "engine-stats", "serve"])
    def test_unknown_dataset_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nosuch'" in err
        assert "Traceback" not in err

    def test_dataset_names_are_case_insensitive(self, capsys):
        assert main(["query", "-d", "Twitter", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        assert main(["query", "-i", str(tmp_path / "missing.txt"),
                     "-g", "0.9", "-t", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.txt" in err

    def test_missing_update_script_exits_2(self, graph_file, tmp_path, capsys):
        assert main(["dynamic", "apply", "-i", str(graph_file),
                     "-u", str(tmp_path / "missing.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.txt" in err

    def test_refused_connection_exits_2(self, capsys):
        # A port that was just free: nothing listens on it.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["client", "--port", str(port), "--timeout", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCommandSurface:
    def test_one_query_command(self):
        # One command answers queries on a local graph; raise these bounds
        # only for a new command or option that earns its place.
        leaves = list(_leaf_parsers(build_parser()))
        options = sum(
            1 for _, parser in leaves for action in parser._actions
            if not isinstance(action, (argparse._HelpAction,
                                       argparse._SubParsersAction)))
        assert len(leaves) <= 12
        assert options <= 91
        assert ("query",) in {path for path, _ in leaves}


def _leaf_parsers(parser, path=()):
    """Yield ``(command path, parser)`` for every leaf sub-command."""
    groups = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaf_parsers(sub, path + (name,))
