"""The A/B runner (scripts/bench_ab.py): its summary code on canned records,
and the working-tree copy the change side runs from.

The summary tests use no git and no subprocess: the records stand in for
perfbench's final JSON lines, one ``(base, change)`` pair per seed.  The copy
test builds a throwaway git repository.
"""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

SPECS = [{"name": "query_p50_ms", "better": "lower", "bound": 0.25},
         {"name": "queries_per_s", "better": "higher", "bound": 0.25},
         {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def record(**values: float) -> dict:
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()}}


def pairs_of(base: dict[str, list[float]], change: dict[str, list[float]]):
    count = len(next(iter(base.values())))
    return [(record(**{name: values[i] for name, values in base.items()}),
             record(**{name: values[i] for name, values in change.items()}))
            for i in range(count)]


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    base = {"query_p50_ms": [4.0, 4.0, 4.0, 4.0],
            "queries_per_s": [50.0, 50.0, 50.0, 50.0],
            "peak_rss_mb": [40.0, 40.0, 40.0, 40.0]}
    change = {"query_p50_ms": [3.0, 5.0, 4.0, 3.5],
              "queries_per_s": [60.0, 40.0, 50.0, 55.0],
              "peak_rss_mb": [40.0, 40.0, 40.0, 40.0]}
    rows = bench_ab.summarize(pairs_of(base, change), SPECS)
    assert (rows["query_p50_ms"]["wins"], rows["query_p50_ms"]["ties"],
            rows["query_p50_ms"]["losses"]) == (2, 1, 1)
    assert (rows["queries_per_s"]["wins"], rows["queries_per_s"]["ties"],
            rows["queries_per_s"]["losses"]) == (2, 1, 1)
    assert rows["peak_rss_mb"]["ties"] == 4 and rows["peak_rss_mb"]["wins"] == 0
    assert rows["query_p50_ms"]["mean_diff"] == pytest.approx(-0.125)
    assert rows["peak_rss_mb"]["sem"] == 0.0


def test_quartiles_and_the_claim_rule():
    base = [4.0, 4.2, 3.9, 4.1, 4.3, 3.8, 4.0, 4.4, 3.7, 4.1]
    assert bench_ab.quartiles(base) == pytest.approx((3.875, 4.05, 4.225))
    clear_gain = [value - 1.0 for value in base]
    row = bench_ab.compare_metric(base, clear_gain, "lower", 0.25)
    assert row["wins"] == 10 and row["outside_iqr"] and row["gain_beats_iqr"]
    assert bench_ab.claim_holds(row)
    # A gain smaller than the base's IQR fails the rule even with 10 wins.
    small_gain = [value - 0.05 for value in base]
    row = bench_ab.compare_metric(base, small_gain, "lower", 0.25)
    assert row["wins"] == 10 and not row["gain_beats_iqr"]
    assert not bench_ab.claim_holds(row)
    # Eight wins in ten pairs are too few, however large the gain.
    mixed = clear_gain[:8] + [value + 1.0 for value in base[8:]]
    row = bench_ab.compare_metric(base, mixed, "lower", 0.25)
    assert row["wins"] == 8 and row["gain_beats_iqr"]
    assert not bench_ab.claim_holds(row)
    # Higher-is-better: the change's median must clear the base's Q3.
    rate = [50.0 + i for i in range(10)]
    row = bench_ab.compare_metric(rate, [value * 1.5 for value in rate], "higher")
    assert row["outside_iqr"] and bench_ab.claim_holds(row)


def test_bound_check_is_relative_and_directional():
    base = [40.0] * 5
    row = bench_ab.compare_metric(base, [43.0] * 5, "lower", 0.1)
    assert row["worse_by"] == pytest.approx(0.075) and not row["over_bound"]
    row = bench_ab.compare_metric(base, [45.0] * 5, "lower", 0.1)
    assert row["over_bound"]
    row = bench_ab.compare_metric(base, [28.0] * 5, "higher", 0.25)
    assert row["worse_by"] == pytest.approx(0.3) and row["over_bound"]
    row = bench_ab.compare_metric(base, [60.0] * 5, "higher", 0.25)
    assert row["worse_by"] < 0 and not row["over_bound"]
    assert not bench_ab.compare_metric(base, [99.0] * 5, "lower")["over_bound"]


def test_formatted_tables_name_every_metric_and_the_claim():
    base = {"query_p50_ms": [4.0, 4.1, 3.9], "queries_per_s": [50.0, 51.0, 49.0],
            "peak_rss_mb": [40.0, 40.5, 39.5]}
    change = {"query_p50_ms": [3.0, 3.1, 2.9], "queries_per_s": [60.0, 61.0, 59.0],
              "peak_rss_mb": [46.0, 46.5, 45.5]}
    text = bench_ab.format_summary(bench_ab.summarize(pairs_of(base, change), SPECS),
                                   claim="query_p50_ms")
    for spec in SPECS:
        assert f"| {spec['name']} |" in text
    assert "| peak_rss_mb |" in text and "| yes |" in text
    assert "Claim query_p50_ms: holds (3 wins in 3 pairs" in text
    runs = [{"pair": 1, "seed": 7, "first": "base", "base": record(),
             "change": {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}}]
    table = bench_ab.format_runs(runs)
    assert "| 1 | 7 | base | 100/0 | 0/0 (not correct) |" in table


def test_working_tree_copy_holds_tracked_and_untracked_files_only(tmp_path):
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    repo.mkdir()

    def git(*args: str) -> None:
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench",
                        "-c", "user.email=bench@example.invalid",
                        "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    for name in ("committed.txt", "modified.txt", "deleted.txt"):
        (repo / name).write_text("committed\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (repo / "modified.txt").write_text("modified\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "untracked.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("build output\n")
    (repo / ".git" / "info" / "exclude").write_text("ignored.txt\n")
    (repo / "deleted.txt").unlink()

    bench_ab.copy_working_tree(repo, copy)
    assert sorted(path.relative_to(copy).as_posix() for path in copy.rglob("*")
                  if path.is_file()) == ["committed.txt", "modified.txt",
                                         "pkg/untracked.txt"]
    assert (copy / "modified.txt").read_text() == "modified\n"
