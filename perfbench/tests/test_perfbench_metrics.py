"""Metric derivations of the benchmark, on fixtures small enough to check by hand.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys

import pytest

from children import Launcher, gate_match
from metrics import Median, failed_fraction, median_of, traced_layers, verdict_fractions


class TestMedian:
    def test_odd_count(self):
        assert median_of([3.0, 1.0, 2.0]) == Median(2.0, 3)

    def test_even_count_averages_the_middle_pair(self):
        assert median_of(iter([4.0, 1.0, 3.0, 2.0])) == Median(2.5, 4)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            median_of([])


def _row(k, matched, best):
    return {"query_index": k, "matched": matched, "best_index": best}


class TestVerdictFractions:
    # Queries 0-3 are planted on database rows 0-3; queries 4-7 are not.
    PLANTED = [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_recall_needs_the_planted_best_index(self):
        rows = [_row(0, True, 0), _row(1, True, 1), _row(2, True, 7),
                _row(3, False, 3)] + [_row(k, False, 0) for k in range(4, 8)]
        # Query 2 matched the wrong row and query 3 did not match.
        assert verdict_fractions(rows, self.PLANTED, 8) == (0.5, 0.0)

    def test_false_matches_count_non_planted_queries_only(self):
        rows = [_row(k, True, k) for k in range(4)] + [
            _row(4, True, 1), _row(5, False, 2), _row(6, True, 6),
            _row(7, False, 0)]
        assert verdict_fractions(rows, self.PLANTED, 8) == (1.0, 0.5)

    def test_needs_both_kinds_of_query(self):
        with pytest.raises(ValueError):
            verdict_fractions([], [], 4)


class TestFailedFraction:
    def test_share_of_attempts(self):
        assert failed_fraction(8, 2) == 0.25
        assert failed_fraction(3, 0) == 0.0

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (2, 3), (2, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            failed_fraction(attempted, failed)

    def test_forced_bad_runs_are_counted_not_dropped(self, tmp_path):
        good = tmp_path / "good.json"
        nan = tmp_path / "nan.json"
        good.write_text(json.dumps({"matches": [1, 2]}))
        nan.write_text('{"matches": [NaN, 2]}')

        def check(report):
            return [] if len(report["matches"]) == 2 else ["wrong length"]

        py = sys.executable
        children = [
            ([py, "-c", "pass"], good),                           # passes
            ([py, "-c", "import sys; sys.exit(3)"], good),         # non-zero exit
            ([py, "-c", "pass"], nan),                             # NaN in JSON
            ([py, "-c", "pass"], tmp_path / "missing.json"),       # no report
        ]
        with Launcher() as launcher:
            runs = [gate_match(launcher.run(argv, {}, tmp_path / "err"), out, check)
                    for argv, out in children]

        assert [run.ok for run in runs] == [True, False, False, False]
        assert runs[1].exit_code == 3
        assert "NaN" in runs[2].failure
        assert all(run.wall_s > 0 and run.peak_rss_mb > 0 for run in runs)
        assert failed_fraction(len(runs), sum(not r.ok for r in runs)) == 0.75


def _span(id_, name, start, end, parent, probe=False):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "probe": probe}


def test_traced_layers_split_the_command_into_self_times():
    spans = [
        _span(0, "process.import", 0.0, 0.1, None),
        _span(1, "cli.cmd_match", 0.2, 3.0, None),
        _span(2, "descriptors.load", 0.2, 0.3, 1),
        _span(3, "descriptors.load", 0.3, 0.4, 1),
        _span(4, "engine.run", 0.4, 2.4, 1),
        _span(5, "cordic.table", 0.4, 0.5, 4),
        _span(6, "engine.dot", 3.0, 4.2, None, probe=True),
    ]
    layers = traced_layers(spans)
    expected = {
        "descriptors.load_s": 0.2,
        "cordic.table_s": 0.1,
        "engine.run_s": 2.0,
        "engine.dot_s": 1.2,
        "engine.rest_s": 2.0 - 0.1 - 1.2,   # run self time minus the dot
        "cli.serialize_s": 2.8 - 0.2 - 2.0,  # command self time
        "cli.cmd_match_s": 2.8,
        "probe_s": 1.2,
    }
    assert layers == pytest.approx(expected)


def test_traced_layers_reject_a_missing_layer():
    with pytest.raises(ValueError):
        traced_layers([_span(0, "cli.cmd_match", 0.0, 1.0, None)])
