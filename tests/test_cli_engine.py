"""Tests for the `repro engine` CLI sub-command group and the engine
behind `repro query` (its JSON engine block and `--explain`)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets.registry import get_spec
from repro.core.dcfastqc import FAN_OUT_BRANCHES
from repro.extensions.parallel import LAST_PARALLEL_RUN
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(30, 40, [7], 0.9, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_engine_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])

    def test_engine_query_requires_graph(self):
        with pytest.raises(SystemExit):
            main(["query", "-g", "0.9", "-t", "5"])


class TestEngineQuery:
    """``repro query`` runs every query through a persistent engine."""

    def test_query_on_dataset_defaults(self, capsys):
        code = main(["query", "-d", "twitter"])
        assert code == 0
        out = capsys.readouterr().out
        twitter = get_spec("twitter")
        assert (f"enumerate gamma={twitter.default_gamma} "
                f"theta={twitter.default_theta}") in out
        assert "[dcfastqc]" in out  # the planner's choice

    def test_query_json_includes_plan_and_stats(self, capsys):
        code = main(["query", "-d", "twitter", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["maximal_count"] >= 1
        assert payload["plan"]["algorithm"] in ("dcfastqc", "fastqc")
        assert payload["engine"]["queries"] == 1
        assert payload["engine"]["cache"]["misses"] == 1

    def test_json_plan_is_the_plan_that_ran(self, capsys):
        # On wordnet at (0.7, 4) the run explores 8k+ branches, past
        # FAN_OUT_BRANCHES, so a one-shot query with two workers fans out
        # while it runs.  The plan before the run is the plan the JSON
        # reports: the run's work never feeds back into planning.
        args = ["query", "-d", "wordnet", "-g", "0.7", "-t", "4", "--workers", "2"]
        assert main(args + ["--explain", "--json"]) == 0
        before = json.loads(capsys.readouterr().out)["plan"]
        LAST_PARALLEL_RUN.clear()
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["branches_explored"] >= FAN_OUT_BRANCHES
        assert payload["plan"] == before
        assert payload["plan"]["parallel"] is True
        assert payload["plan"]["workers"] == 2
        assert payload["engine"]["parallel"]["mode"] == "branch"

    def test_query_from_edge_list_file(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5"])
        assert code == 0
        assert "answers for enumerate" in capsys.readouterr().out

    def test_query_writes_output_file(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "mqcs.txt"
        code = main(["query", "-i", str(graph_file), "-g", "0.9",
                     "-t", "5", "-o", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert out_path.read_text().strip()
        capsys.readouterr()


class TestEngineExplain:
    """``repro query --explain`` prints the plan without enumerating."""

    def test_explain_prints_plan_without_enumerating(self, capsys):
        code = main(["query", "-d", "ca-grqc", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QueryPlan" in out
        assert "algorithm:" in out
        assert "reduction:" in out
        # No quasi-clique listing: explain never enumerates.
        assert "answers" not in out

    def test_explain_json(self, capsys):
        code = main(["query", "-d", "ca-grqc", "--explain", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "result" not in payload
        plan = payload["plan"]
        assert plan["algorithm"] == "dcfastqc"
        assert plan["core_vertices_kept"] + plan["core_vertices_removed"] \
            == plan["graph_vertices"]

    def test_explain_honours_forced_algorithm(self, capsys):
        code = main(["query", "-d", "ca-grqc",
                     "--algorithm", "quickplus", "--explain", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["algorithm"] == "quickplus"
        assert set(payload) == {"spec", "plan"}


class TestEngineBatch:
    def test_batch_grid_with_cache(self, capsys):
        code = main(["engine", "batch", "-d", "twitter",
                     "--gammas", "0.9,0.92", "--thetas", "4,5", "--repeat", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma" in out
        assert "4 served from cache" in out

    def test_batch_json(self, capsys):
        code = main(["engine", "batch", "-d", "twitter", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 1
        assert payload["queries_per_second"] > 0


class TestEngineStats:
    def test_stats_reports_artifacts_and_timings(self, capsys):
        code = main(["engine", "stats", "-d", "kmer"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "kmer"
        assert payload["fingerprint"]
        assert set(payload["preparation_seconds"]) == set(payload["artifacts"])
        assert payload["degeneracy"] >= 1
