"""Expected verdicts for a seeded sample of queries, computed outside timing.

The oracle reads the ``.siftdb`` inputs with its own parser, so a loader
defect in the program shows up as a gate failure instead of being shared.

* Pipeline engine: the scalar composition the repository keeps as its test
  oracle, ``dot_product_core -> cordic_arccos -> min_find -> match_check``,
  one database row at a time. ``cordic_arccos`` is the one-element case of
  ``arccos_raw_batch``; the oracle calls the batch form once on all distinct
  dot raws of the sample, because the scalar call costs about a millisecond
  and a sample holds thousands of distinct raws.
* Reference engine: an independent left-to-right float sum over the 128
  elements in plain Python, ``math.acos`` of the clamped dot, and a strict
  two-minimum scan where the earliest index wins ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from siftmatch.cordic import DEFAULT_CONFIG, AngleSample, arccos_raw_batch
from siftmatch.descriptors import Descriptor
from siftmatch.fixedpoint import FxSample
from siftmatch.pipeline import MinPairEntry, dot_product_core, match_check, min_find

_MAGIC = b"SIFTDB01"
_RECORD_WORDS = 2 + 128
ANGLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Expected:
    """Oracle outcome for one query."""

    query_index: int
    matched: bool
    best_index: int
    min_angle: float
    second_min_angle: float
    min_raw: int | None = None
    second_min_raw: int | None = None


def read_siftdb(path) -> tuple[np.ndarray, np.ndarray]:
    """``(xy, raws)`` of a ``.siftdb`` file, as uint16 arrays."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise ValueError(f"{path}: not a .siftdb file")
    count = int.from_bytes(blob[8:12], "little")
    records = np.frombuffer(blob[12:], dtype="<u2").reshape(count, _RECORD_WORDS)
    return records[:, :2], records[:, 2:]


def sample_queries(rng: np.random.Generator, planted: int, m: int,
                   size: int) -> list[int]:
    """``size`` query indices, half planted and half not, in ascending order."""
    half = size // 2
    picks = np.concatenate([
        rng.choice(planted, size=half, replace=False),
        planted + rng.choice(m - planted, size=size - half, replace=False),
    ])
    return sorted(int(k) for k in picks)


def pipeline_oracle(query_path, db_path, sample: list[int],
                    threshold_mode: str) -> list[Expected]:
    q_xy, q_raws = read_siftdb(query_path)
    d_xy, d_raws = read_siftdb(db_path)
    db = [_descriptor(d_xy, d_raws, j) for j in range(len(d_raws))]
    dots = {k: [dot_product_core(_descriptor(q_xy, q_raws, k), row).raw
                for row in db] for k in sample}
    distinct = sorted(set().union(*dots.values()))
    angles = {
        raw: AngleSample(FxSample(int(angle), DEFAULT_CONFIG.angle_format))
        for raw, angle in zip(distinct, arccos_raw_batch(distinct, DEFAULT_CONFIG))}
    expected = []
    for k in sample:
        entry = MinPairEntry.sentinel()
        for j, raw in enumerate(dots[k]):
            entry = min_find(angles[raw], j, entry)
        expected.append(Expected(
            query_index=k,
            matched=match_check(entry, threshold_mode),
            best_index=entry.min_index,
            min_angle=entry.min.radians,
            second_min_angle=entry.second_min.radians,
            min_raw=entry.min.raw,
            second_min_raw=entry.second_min.raw,
        ))
    return expected


def reference_oracle(query_path, db_path, sample: list[int],
                     threshold: float) -> list[Expected]:
    _, q_raws = read_siftdb(query_path)
    _, d_raws = read_siftdb(db_path)
    lsb = 2.0 ** -15
    db = [[int(v) * lsb for v in row] for row in d_raws]
    expected = []
    for k in sample:
        query = [int(v) * lsb for v in q_raws[k]]
        best, first, second = -1, math.inf, math.inf
        for j, row in enumerate(db):
            total = 0.0
            for a, b in zip(query, row):
                total += a * b
            angle = math.acos(min(max(total, 0.0), 1.0))
            if angle < first:
                best, first, second = j, angle, first
            elif angle < second:
                second = angle
        expected.append(Expected(k, first < threshold * second, best,
                                 first, second))
    return expected


def disagreements(report_matches, expected: list[Expected]) -> list[str]:
    """Human-readable differences between a report's rows and the oracle."""
    problems = []
    for exp in expected:
        row = report_matches[exp.query_index]
        if row["matched"] != exp.matched or row["best_index"] != exp.best_index:
            problems.append(
                f"query {exp.query_index}: matched={row['matched']} "
                f"best={row['best_index']}, oracle matched={exp.matched} "
                f"best={exp.best_index}")
        elif exp.min_raw is not None and (
                row["min_raw"], row["second_min_raw"]) != (
                exp.min_raw, exp.second_min_raw):
            problems.append(f"query {exp.query_index}: raws differ from oracle")
        elif max(abs(row["min_angle"] - exp.min_angle),
                 abs(row["second_min_angle"] - exp.second_min_angle)
                 ) > ANGLE_TOLERANCE:
            problems.append(f"query {exp.query_index}: angles differ from oracle")
    return problems


def _descriptor(xy: np.ndarray, raws: np.ndarray, index: int) -> Descriptor:
    row = raws[index]
    return Descriptor(elements=row.astype(np.float64) * 2.0 ** -15, raws=row,
                      x=int(xy[index, 0]), y=int(xy[index, 1]))
