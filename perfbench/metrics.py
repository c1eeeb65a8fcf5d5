"""Metric derivations shared by ``run.py`` and its tests.

Every function here is pure: it turns samples, verdicts or spans into the
numbers the benchmark reports, so each derivation can be tested on a tiny
fixture without starting a child process.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Median:
    """A timing or size summarised as its median over ``count`` samples."""

    value: float
    count: int


def median_of(samples) -> Median:
    """Median of the samples together with how many there were."""
    values = list(samples)
    if not values:
        raise ValueError("no samples to take a median of")
    return Median(float(statistics.median(values)), len(values))


def verdict_fractions(matches, planted, num_queries: int) -> tuple[float, float]:
    """``(planted_recall, false_match_fraction)`` of one match report.

    ``matches`` is the report's list of match rows, ``planted`` the
    ``(query_index, db_index)`` ground-truth pairs. A planted pair counts as
    recalled only when its query is matched *and* its ``best_index`` is the
    planted database row. Every query outside ``planted`` is non-planted; it
    counts as a false match when it is matched at all.
    """
    truth = dict(planted)
    if not truth or len(truth) >= num_queries:
        raise ValueError("need both planted and non-planted queries")
    recalled = false_matches = 0
    for row in matches:
        k = row["query_index"]
        if k in truth:
            recalled += row["matched"] and row["best_index"] == truth[k]
        else:
            false_matches += row["matched"]
    return recalled / len(truth), false_matches / (num_queries - len(truth))


def failed_fraction(attempted: int, failed: int) -> float:
    """Failed operations as a share of the operations attempted."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return failed / attempted


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration of ``span`` minus the time its direct children cover."""
    children = [s for s in spans if s["parent"] == span["id"]]
    return (span["end"] - span["start"]) - sum(
        c["end"] - c["start"] for c in children)


def traced_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer host seconds of one traced ``siftmatch match`` process.

    The spans come from ``traced_child.py``: ``cli.cmd_match`` wraps the
    command, ``descriptors.load`` (one per input file), ``engine.run`` and
    possibly ``cordic.table`` sit inside it. Spans flagged ``probe`` are
    extra calls the real command does not make, timed only to split a layer
    (``engine.dot``) or to time a layer this engine never calls
    (``cordic.table``).
    """
    def one(name):
        found = [s for s in spans if s["name"] == name]
        if len(found) != 1:
            raise ValueError(f"expected one {name!r} span, got {len(found)}")
        return found[0]

    def duration(s):
        return s["end"] - s["start"]

    command = one("cli.cmd_match")
    run = one("engine.run")
    loads = [s for s in spans if s["name"] == "descriptors.load"]
    if len(loads) != 2:
        raise ValueError(f"expected two descriptors.load spans, got {len(loads)}")
    dot = duration(one("engine.dot"))
    return {
        "descriptors.load_s": sum(duration(s) for s in loads),
        "cordic.table_s": duration(one("cordic.table")),
        "engine.run_s": duration(run),
        "engine.dot_s": dot,
        "engine.rest_s": self_time(run, spans) - dot,
        "cli.serialize_s": self_time(command, spans),
        "cli.cmd_match_s": duration(command),
        "probe_s": sum(duration(s) for s in spans if s["probe"]),
    }
