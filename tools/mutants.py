"""Mutation harness: does the test suite fail when the program is broken?

Each entry of :data:`MUTANTS` names a file, an exact source snippet that
occurs once in it, the snippet's replacement, and the narrowest tests that
should fail once the replacement is made.  An *equivalent* mutant changes no
result, so no test can fail on it; its entry says why.

For each mutant the harness copies the repository's ``src``, ``tests``,
``perfbench``, ``pyproject.toml`` and ``README.md`` into a temporary
directory, applies the mutant there (the working tree is never written) and
runs pytest on the mutant's tests, stopping at the first failure.  A mutant
is *killed* when pytest reports a failed test (exit status 1).

Usage::

    python tools/mutants.py                 # every mutant
    python tools/mutants.py NAME [NAME...]  # the named mutants only

It prints one line per mutant and exits 1 when a non-equivalent mutant
survives or an equivalent one is killed.  Only the standard library is
used; pytest runs in a child process with the interpreter running this
script.  ``tests/test_mutants.py`` checks in tier-1 that every snippet
still occurs exactly once, so a refactor cannot leave the table stale.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis")
TIMEOUT_S = 600  # per mutant; the slowest named test file takes about 40 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # relative to the repository root
    snippet: str              # occurs exactly once in ``path``
    replacement: str
    tests: tuple[str, ...]    # pytest arguments: files or node ids
    equivalent: str = ""      # why no test can fail, for an equivalent mutant


SEARCH = "src/siftmatch/search.py"
PIPELINE = "src/siftmatch/pipeline.py"
REFERENCE = "src/siftmatch/reference.py"
DESCRIPTORS = "src/siftmatch/descriptors.py"
FIXEDPOINT = "src/siftmatch/fixedpoint.py"
ROWTEXT = "src/siftmatch/rowtext.py"
CLI = "src/siftmatch/cli.py"

MUTANTS = (
    # The search kernel: the merge, the follow-up pass and the floor.
    Mutant("merge-takes-equal", SEARCH,
           "take = hi > first[tile]", "take = hi >= first[tile]",
           ("tests/test_pipeline.py",)),
    Mutant("runner-up-drops-old-first", SEARCH,
           "np.maximum(first[tile], hi2)", "hi2",
           ("tests/test_pipeline.py",)),
    Mutant("followup-strict", SEARCH,
           "hits = keys >= low[tile, None]", "hits = keys > low[tile, None]",
           ("tests/test_reference.py",)),
    Mutant("followup-stop-short", SEARCH,
           "stop = best[tied].max() + 1", "stop = best[tied].max()",
           ("tests/test_pipeline.py",)),
    Mutant("floor-stops-early", SEARCH,
           "while (live := high - low > 1).any():",
           "while (live := high - low > 2).any():",
           ("tests/test_pipeline.py",)),
    Mutant("floor-starts-at-0", SEARCH,
           "np.full_like(w, -1.0), w, angle(w)",
           "np.full_like(w, 0.0), w, angle(w)",
           ("tests/test_pipeline.py",)),
    Mutant("followup-takes-untied-rows", SEARCH,
           "shared = low < w1[tied]", "shared = low <= w1[tied]",
           ("tests/test_pipeline.py", "tests/test_reference.py"),
           equivalent="a row whose floor is its key gets its earliest "
                      "argmax again from the follow-up pass"),
    # The engines.
    Mutant("narrowing-unsaturated", PIPELINE,
           "np.minimum(dots, UQ1_15.max_raw, out=dots)",
           "np.minimum(dots, UQ1_15.max_raw + 1, out=dots)",
           ("tests/test_pipeline.py",)),
    Mutant("binary-rule-18-32", PIPELINE,
           "(asec << 1) + asec + (asec << 4)", "(asec << 1) + (asec << 4)",
           ("tests/test_pipeline.py",)),
    Mutant("exact-rule-non-strict", PIPELINE,
           "matched = min_angle < 0.6 * second_angle",
           "matched = min_angle <= 0.6 * second_angle",
           ("tests/test_pipeline.py", "tests/test_acceptance.py")),
    Mutant("reference-ratio-non-strict", REFERENCE,
           "low < threshold * high", "low <= threshold * high",
           ("tests/test_reference.py",)),
    Mutant("dot-product-count-unchecked", REFERENCE,
           "if a.elements.shape != (DESCRIPTOR_LEN,) or "
           "b.elements.shape != (DESCRIPTOR_LEN,):",
           "if False:",
           ("tests/test_reference.py::TestDotProduct",)),
    # Loading descriptors.
    Mutant("raw-range-off-by-one", DESCRIPTORS,
           "if raws.max() > (1 << 15):", "if raws.max() > (1 << 15) + 1:",
           ("tests/test_descriptors.py",)),
    Mutant("norm-tolerance-doubled", DESCRIPTORS,
           "NORM_TOLERANCE = 1e-3", "NORM_TOLERANCE = 2e-3",
           ("tests/test_descriptors.py",)),
    Mutant("text-coordinates-unchecked", DESCRIPTORS,
           "if not (0 <= x <= _COORD_MAX and 0 <= y <= _COORD_MAX):",
           "if False:",
           ("tests/test_cli.py::TestMatch",)),
    Mutant("set-floats-shape-unchecked", DESCRIPTORS,
           "if floats.ndim != 2 or floats.shape[1] != DESCRIPTOR_LEN:",
           "if False:",
           ("tests/test_descriptors.py::TestValidation",)),
    Mutant("set-raws-floats-mismatch-unchecked", DESCRIPTORS,
           "if raws.shape != floats.shape:", "if False:",
           ("tests/test_descriptors.py::TestValidation",)),
    Mutant("set-raws-shape-unchecked", DESCRIPTORS,
           "elif len(raws.shape) != 2 or raws.shape[1] != DESCRIPTOR_LEN:",
           "elif False:",
           ("tests/test_descriptors.py::TestValidation",)),
    Mutant("set-xy-shape-unchecked", DESCRIPTORS,
           "if xy.shape != (raws.shape[0], 2):", "if False:",
           ("tests/test_descriptors.py::TestValidation",)),
    # Fixed point.
    Mutant("ties-round-up", FIXEDPOINT,
           "round_up = (r > half) |", "round_up = (r >= half) |",
           ("tests/test_fixedpoint.py",)),
    Mutant("sample-range-unchecked", FIXEDPOINT,
           "if not 0 <= self.raw <= self.fmt.max_raw:", "if False:",
           ("tests/test_fixedpoint.py",)),
    Mutant("sample-raw-not-coerced", FIXEDPOINT,
           "if not isinstance(self.raw, int):", "if False:",
           ("tests/test_fixedpoint.py",)),
    # The report: writers and reader.
    Mutant("first-row-keeps-comma", ROWTEXT,
           "first = memoryview(next(rows))[1:]",
           "first = memoryview(next(rows))[0:]",
           ("tests/test_reference.py",)),
    Mutant("csv-rows-end-in-lf", ROWTEXT,
           'else matches.second_min_raw, "\\r\\n"]',
           'else matches.second_min_raw, "\\n"]',
           ("tests/test_reference.py",)),
    Mutant("float-text-keyed-by-value", ROWTEXT,
           "values.view(np.uint64))]", "(values + 0.0).view(np.uint64))]",
           ("tests/test_reference.py",)),
    Mutant("non-finite-angle-passes", ROWTEXT,
           "if not np.isfinite(angles).all():",
           "if not np.isfinite(angles).any():",
           ("tests/test_reference.py",)),
    Mutant("leading-zero-eats-digit", ROWTEXT,
           "values < 10 ** (width - 1 - j)", "values <= 10 ** (width - 1 - j)",
           ("tests/test_reference.py",)),
    Mutant("negative-column-unchecked", ROWTEXT,
           "elif piece.min(initial=0) < 0:", "elif False:",
           ("tests/test_reference.py::TestRowText",)),
    Mutant("reader-takes-bool-index", ROWTEXT,
           'if type(row["query_index"]) is not int:',
           'if not isinstance(row["query_index"], int):',
           ("tests/test_cli.py::TestCompare",)),
    Mutant("reader-takes-int-matched", ROWTEXT,
           'if not isinstance(row["matched"], bool):',
           'if not isinstance(row["matched"], int):',
           ("tests/test_cli.py::TestCompare",)),
    Mutant("reader-matched-all-false", ROWTEXT,
           'np.fromiter((row["matched"] for row in rows), bool, len(rows))',
           "np.zeros(len(rows), bool)",
           ("tests/test_reference.py::TestReportWriter",)),
    Mutant("reader-index-by-position", ROWTEXT,
           'np.fromiter((row["query_index"] for row in rows), object, '
           'len(rows))',
           "np.arange(len(rows)).astype(object)",
           ("tests/test_cli.py::TestCompare",)),
    Mutant("chunk-rows-2047", ROWTEXT,
           "CHUNK_ROWS = 2048", "CHUNK_ROWS = 2047",
           ("tests/test_reference.py", "tests/test_golden.py"),
           equivalent="rows per fill change where pieces are cut, not the "
                      "bytes they join to"),
    # The command line.
    Mutant("match-fraction-unchecked", CLI,
           "if not 0.0 <= value <= 1.0:", "if False:",
           ("tests/test_cli.py::TestGenerate",)),
    Mutant("warning-in-python-format", CLI,
           "warnings.showwarning = lambda", "_ = lambda",
           ("tests/test_cli.py::TestWarning",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's snippet in its file under ``root``."""
    path = root / mutant.path
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times "
                         f"in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant) -> tuple[str, float]:
    """Run the mutant's tests on a mutated copy: ``("killed" | "survived" |
    "error <status>", seconds)``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = REPO / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=IGNORED)
            else:
                shutil.copy2(source, root / name)
        apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            status = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
        seconds = time.perf_counter() - start
    if status == 1:
        return "killed", seconds
    return ("survived" if status == 0 else f"error {status}"), seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    outcomes, wrong, total = [], [], time.perf_counter()
    for m in chosen:
        outcome, seconds = run(m)
        outcomes.append(outcome)
        if outcome != ("survived" if m.equivalent else "killed"):
            wrong.append(m.name)
        note = f"  (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{m.name:36} {outcome:9} {seconds:6.1f} s{note}", flush=True)
    print(f"{len(chosen)} mutants, {outcomes.count('killed')} killed, "
          f"{sum(1 for m in chosen if m.equivalent)} equivalent; "
          f"unexpected: {', '.join(wrong) or 'none'}; "
          f"{time.perf_counter() - total:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
