"""Unit tests for edge-list I/O (repro.graph.io)."""

from __future__ import annotations

import io

import pytest

from repro import Graph, GraphError
from repro.graph import read_edge_list, write_edge_list
from repro.graph.io import iter_edge_list, read_quasi_cliques, write_quasi_cliques


EDGE_FILE = """\
% a KONECT-style comment
# another comment
1 2
2 3 17.5 1089382
3 1
4 4
"""


#: Every edge-list corner at once: the three comment styles, blank and
#: whitespace-only lines, commas, extra columns, a self-loop, the labels
#: "01", "+1" and "1" (distinct: only "1" is canonical), and a repeated pair
#: plus its reverse.  Line 12 repeats line 9's pair reversed.
CORNER_CASES = """\
% KONECT header
# another comment

// slash comment
5 01 0.5
+1,1
   \t
3 3
1 5 9 extra
a,b
01 a
5 1
b a
a b
"""


def edge_set(graph: Graph) -> set[frozenset]:
    return set(map(frozenset, graph.edges()))


class TestReadEdgeList:
    def test_reads_basic_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(EDGE_FILE)
        graph = read_edge_list(path)
        assert graph.vertex_count == 3
        assert graph.edge_count == 3

    def test_reads_file_object(self):
        graph = read_edge_list(io.StringIO(EDGE_FILE))
        assert graph.edge_count == 3

    def test_skips_comments_blanks_and_self_loops(self):
        graph = read_edge_list(io.StringIO("% c\n\n1 1\n1 2\n"))
        assert graph.edge_count == 1

    def test_extra_columns_ignored(self):
        graph = read_edge_list(io.StringIO("1 2 3.5 42\n"))
        assert graph.edge_count == 1
        assert graph.has_edge(1, 2)

    def test_integer_labels_by_default(self):
        graph = read_edge_list(io.StringIO("1 2\n"))
        assert 1 in graph
        assert "1" not in graph

    def test_string_labels_when_disabled(self):
        graph = read_edge_list(io.StringIO("1 2\n"), as_int=False)
        assert "1" in graph

    def test_mixed_labels(self):
        graph = read_edge_list(io.StringIO("a 2\n2 b\n"))
        assert graph.vertex_count == 3

    def test_comma_separated(self):
        graph = read_edge_list(io.StringIO("1,2\n2,3\n"))
        assert graph.edge_count == 2

    def test_malformed_line_raises(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("justone\n"))

    def test_iter_edge_list_line_numbers_in_error(self):
        with pytest.raises(GraphError, match="line 2"):
            list(iter_edge_list(["1 2", "bad"]))


class TestWriteEdgeList:
    def test_roundtrip_via_path(self, tmp_path, paper_figure1):
        path = tmp_path / "out.txt"
        write_edge_list(paper_figure1, path, header="written by tests")
        back = read_edge_list(path)
        assert back.vertex_count == paper_figure1.vertex_count
        assert back.edge_count == paper_figure1.edge_count

    def test_roundtrip_via_file_object(self, triangle):
        buffer = io.StringIO()
        write_edge_list(triangle, buffer)
        back = read_edge_list(io.StringIO(buffer.getvalue()))
        assert back.edge_count == 3

    def test_header_written_as_comments(self, triangle):
        buffer = io.StringIO()
        write_edge_list(triangle, buffer, header="line1\nline2")
        text = buffer.getvalue()
        assert text.startswith("% line1\n% line2\n")


class TestQuasiCliqueFiles:
    def test_roundtrip(self, tmp_path):
        cliques = [frozenset({1, 2, 3}), frozenset({4, 5})]
        path = tmp_path / "qcs.txt"
        write_quasi_cliques(cliques, path)
        back = read_quasi_cliques(path)
        assert set(back) == set(cliques)

    def test_read_skips_comments(self, tmp_path):
        path = tmp_path / "qcs.txt"
        path.write_text("% comment\n1 2 3\n\n")
        assert read_quasi_cliques(path) == [frozenset({1, 2, 3})]


class TestLabelConversion:
    def test_zero_padded_labels_stay_distinct(self):
        # Regression: a bare int() merged "01", "+1", " 1" and "1" into the
        # single vertex 1, silently collapsing vertices and dropping edges.
        graph = read_edge_list(io.StringIO("01 2\n1 2\n+1 2\n"))
        assert set(graph.vertices()) == {"01", 1, "+1", 2}
        assert graph.edge_count == 3

    def test_canonical_integers_still_convert(self):
        graph = read_edge_list(io.StringIO("1 2\n-3 2\n10 2\n"))
        assert set(graph.vertices()) == {1, 2, -3, 10}

    def test_non_canonical_forms_stay_strings(self):
        from repro.graph.io import _maybe_int

        assert _maybe_int("1") == 1
        assert _maybe_int("-3") == -3
        for text in ("01", "+1", " 1", "1 ", "0x1", "1_0", ""):
            assert _maybe_int(text) == text


class TestDuplicateDetection:
    def test_duplicates_allowed_by_default(self):
        pairs = list(iter_edge_list(["1 2", "2 1", "1 2"]))
        assert pairs == [("1", "2"), ("2", "1"), ("1", "2")]

    def test_duplicate_same_orientation_rejected(self):
        with pytest.raises(GraphError, match="line 3: duplicate edge"):
            list(iter_edge_list(["1 2", "2 3", "1 2"],
                                directed_duplicates_ok=False))

    def test_duplicate_reversed_orientation_rejected(self):
        with pytest.raises(GraphError, match="line 2: duplicate edge '2' -- '1'"):
            list(iter_edge_list(["1 2", "2 1"], directed_duplicates_ok=False))

    def test_distinct_edges_pass_with_detection_on(self):
        pairs = list(iter_edge_list(["1 2", "2 3", "% 1 2", "3 1"],
                                    directed_duplicates_ok=False))
        assert pairs == [("1", "2"), ("2", "3"), ("3", "1")]


class TestStreamingIngestion:
    def test_ingest_matches_read_edge_list(self):
        from repro.graph.io import ingest_edge_list

        text = "% comment\n1 2 9.5\n2 3\n01 3\na b\n3 3\n"
        dict_graph = read_edge_list(io.StringIO(text))
        csr_graph = ingest_edge_list(io.StringIO(text))
        assert csr_graph.vertices() == dict_graph.vertices()
        assert edge_set(csr_graph) == edge_set(dict_graph)

    @pytest.mark.parametrize("as_int, labels", [
        (True, [5, "01", "+1", 1, "a", "b"]),
        (False, ["5", "01", "+1", "1", "a", "b"]),
    ])
    def test_both_readers_agree_on_every_corner(self, as_int, labels):
        """Same vertex order (the index space, hence every tie-break), same
        labels and same edges through both readers."""
        from repro.graph.io import ingest_edge_list

        dict_graph = read_edge_list(io.StringIO(CORNER_CASES), as_int=as_int)
        csr_graph = ingest_edge_list(io.StringIO(CORNER_CASES), as_int=as_int)
        assert dict_graph.vertices() == csr_graph.vertices() == labels
        assert edge_set(csr_graph) == edge_set(dict_graph)
        assert csr_graph.edge_count == dict_graph.edge_count == 5

    @pytest.mark.parametrize("reader", ["read_edge_list", "ingest_edge_list"])
    def test_both_readers_reject_the_same_duplicate_line(self, reader):
        from repro.graph import io as io_module

        with pytest.raises(GraphError, match=r"^line 12: duplicate edge '5' -- '1'$"):
            getattr(io_module, reader)(io.StringIO(CORNER_CASES),
                                       directed_duplicates_ok=False)

    def test_ingest_respects_flags(self):
        from repro.graph.io import ingest_edge_list

        strings = ingest_edge_list(io.StringIO("1 2\n"), as_int=False)
        assert set(strings.vertices()) == {"1", "2"}
        with pytest.raises(GraphError, match="duplicate edge"):
            ingest_edge_list(io.StringIO("1 2\n2 1\n"),
                             directed_duplicates_ok=False)

    def test_ingest_malformed_line_reports_position(self):
        from repro.graph.io import ingest_edge_list

        with pytest.raises(GraphError, match="line 2"):
            ingest_edge_list(io.StringIO("1 2\nbroken\n"))

    def test_round_trip_at_one_hundred_thousand_edges(self, tmp_path):
        # The large-graph tier's contract: 10^5 edges stream through the
        # loader into CSR form and write back losslessly, never touching the
        # O(n^2)-bit representation.
        from repro.graph import gnm_edges
        from repro.graph.io import ingest_edge_list

        path = tmp_path / "large.txt"
        edge_count = 100_000
        with open(path, "w", encoding="utf-8") as handle:
            for u, v in gnm_edges(40_000, edge_count, seed=17):
                handle.write(f"{u} {v}\n")
        graph = ingest_edge_list(path)
        assert graph.edge_count == edge_count
        assert graph.vertex_count <= 40_000
        back = tmp_path / "back.txt"
        write_edge_list(graph, back)
        again = ingest_edge_list(back)
        assert again.vertex_count == graph.vertex_count
        assert again.edge_count == graph.edge_count
        assert set(map(frozenset, again.edges())) == \
            set(map(frozenset, graph.edges()))
