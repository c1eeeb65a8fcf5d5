"""Mutation harness: does the test suite fail when the program is broken?

Each entry of :data:`MUTANTS` names a file, an exact source snippet that
occurs once in it, the snippet's replacement, and the narrowest tests that
should fail once the replacement is made.  An *equivalent* mutant changes no
result, so no test can fail on it; its entry says why.

For each mutant the harness copies the repository's ``src``, ``tests``,
``tools``, ``perfbench``, ``pyproject.toml`` and ``README.md`` into a temporary
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
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml", "README.md")
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
CORDIC = "src/siftmatch/cordic.py"
FIXEDPOINT = "src/siftmatch/fixedpoint.py"
ROWTEXT = "src/siftmatch/rowtext.py"
CLI = "src/siftmatch/cli.py"

# The zero-row check and the off-norm warning in descriptors._renormalize.
_ZERO_CHECK = (
    "    if 0.0 in norms:\n"
    '        raise DescriptorFormatError(f"{path}: zero descriptor cannot be '
    'normalized")\n')
_OFF_NORM_WARNING = (
    '    message = f"{path}: {len(rows)} of {m} descriptors are not unit-norm"\n'
    "    try:\n"
    '        warnings.warn(f"{message}; auto-normalizing", stacklevel=4)\n'
    "    except UserWarning as exc:  # warnings are errors: nothing is "
    "rescaled\n"
    "        raise type(exc)(message) from None\n")

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
    # Tile operands, read TILE_ROWS rows at a time; picked rows a run a read.
    Mutant("tile-read-whole", SEARCH,
           "piece = out[r:r + TILE_ROWS]", "piece = out[r:]",
           ("tests/test_pipeline.py::TestSearchKernel::"
            "test_sets_are_read_tile_rows_at_a_time",)),
    Mutant("tile-read-unshifted", SEARCH,
           "rows = slice(start + r, start + r + len(piece))",
           "rows = slice(r, r + len(piece))",
           ("tests/test_pipeline.py::TestSearchKernel::"
            "test_sets_are_read_tile_rows_at_a_time",)),
    Mutant("run-cut-one-early", SEARCH,
           "np.flatnonzero(np.diff(index) != 1) + 1",
           "np.flatnonzero(np.diff(index) != 1)",
           ("tests/test_descriptors.py::TestOffNormPatch::"
            "test_picked_rows_read_as_a_gather",)),
    # Row sources: slices of consecutive rows only, read-only rows of their
    # own.
    Mutant("empty-range-not-clamped", SEARCH,
           "return start, max(start, stop)", "return start, stop",
           ("tests/test_descriptors.py::TestSetApi::"
            "test_row_sources_take_slices_only",)),
    Mutant("row-step-unchecked", SEARCH,
           "if step != 1:", "if False:",
           ("tests/test_descriptors.py::TestSetApi::"
            "test_row_sources_take_slices_only",)),
    Mutant("empty-read-not-flat", DESCRIPTORS,
           'memoryview(records.reshape(-1)).cast("B")',
           'memoryview(records).cast("B")',
           ("tests/test_descriptors.py::TestSetApi::"
            "test_row_sources_take_slices_only",)),
    Mutant("read-rows-writeable", DESCRIPTORS,
           "records.setflags(write=False)", "pass",
           ("tests/test_descriptors.py::TestSetApi::"
            "test_rows_read_stay_as_read",)),
    # Bands of queries: their row windows and their size.
    Mutant("band-window-unshifted", SEARCH,
           "self.source[self.start + start:self.start + stop]",
           "self.source[start:stop]",
           ("tests/test_reference.py::TestBands",)),
    Mutant("band-window-unbounded", SEARCH,
           "start, stop = _span(rows, len(self))",
           "start, stop = _span(rows, len(self.source))",
           ("tests/test_descriptors.py::TestSetApi::"
            "test_row_sources_take_slices_only",)),
    Mutant("one-band-for-all-rows", SEARCH,
           "BAND_ROWS = 8192", "BAND_ROWS = 1 << 62",
           ("tests/test_cli.py::test_match_memory_is_flat_in_the_query_count",
            )),
    Mutant("followup-takes-untied-rows", SEARCH,
           "shared = low < w1[tied]", "shared = low <= w1[tied]",
           ("tests/test_pipeline.py", "tests/test_reference.py"),
           equivalent="a row whose floor is its key gets its earliest "
                      "argmax again from the follow-up pass"),
    # The engines.
    Mutant("binary-rule-18-32", PIPELINE,
           "(asec << 1) + asec + (asec << 4)", "(asec << 1) + (asec << 4)",
           ("tests/test_pipeline.py",)),
    Mutant("binary-rule-non-strict", PIPELINE,
           "matched = (amin << 5) < (asec", "matched = (amin << 5) <= (asec",
           ("tests/test_pipeline.py::TestRatioRulesAgree",)),
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
    # The one rate rule: its clock cap and its whole cycles per transfer.
    Mutant("rate-cap-strict", PIPELINE,
           "clock_hz if reuse >= cycles else", "clock_hz if reuse > cycles else",
           ("tests/test_perf.py::TestBlocking::"
            "test_full_block_is_the_clock_exactly",)),
    Mutant("rate-cap-float-min", PIPELINE,
           "clock_hz if reuse >= cycles else clock_hz * reuse / cycles",
           "min(clock_hz, clock_hz * reuse / cycles)",
           ("tests/test_perf.py::TestBlocking::"
            "test_full_block_is_the_clock_exactly",)),
    Mutant("rate-cap-dropped", PIPELINE,
           "return clock_hz if reuse >= cycles else clock_hz * reuse / cycles",
           "return clock_hz * reuse / cycles",
           ("tests/test_perf.py::TestRooflineClaim",)),
    Mutant("rate-cycles-fractional", PIPELINE,
           "cycles = math.ceil(nbytes / bytes_per_cycle)",
           "cycles = nbytes / bytes_per_cycle",
           ("tests/test_perf.py::TestBlocking",)),
    # The roofline's transfer size: an int beyond the float range is named.
    Mutant("descriptor-bytes-unbounded", PIPELINE,
           "1 <= self.descriptor_bytes <= sys.float_info.max",
           "1 <= self.descriptor_bytes",
           ("tests/test_cli.py::TestRoofline::"
            "test_domain_error_names_its_argument",)),
    Mutant("descriptor-bytes-bound-exclusive", PIPELINE,
           "1 <= self.descriptor_bytes <= sys.float_info.max",
           "1 <= self.descriptor_bytes < sys.float_info.max",
           ("tests/test_perf.py::TestAttainableThroughput",)),
    # Loading descriptors.
    Mutant("raw-range-off-by-one", DESCRIPTORS,
           "if raws.max() > (1 << 15):", "if raws.max() > (1 << 15) + 1:",
           ("tests/test_descriptors.py",)),
    Mutant("norm-tolerance-doubled", DESCRIPTORS,
           "NORM_TOLERANCE = 1e-3", "NORM_TOLERANCE = 2e-3",
           ("tests/test_descriptors.py",)),
    Mutant("off-norm-raws-not-requantized", DESCRIPTORS,
           "reader.fixed = (rows, quantize_array(kept).astype(np.uint16))",
           "reader.fixed = None",
           ("tests/test_descriptors.py::TestSetApi::"
            "test_blocked_norms_match_whole_matrix",)),
    Mutant("zero-check-after-warning", DESCRIPTORS,
           _ZERO_CHECK + _OFF_NORM_WARNING, _OFF_NORM_WARNING + _ZERO_CHECK,
           ("tests/test_cli.py::TestZeroDescriptor",)),
    # Saving descriptors: the rows of each read.
    Mutant("file-rows-unshifted", DESCRIPTORS,
           "rows = slice(start, start + step)", "rows = slice(0, step)",
           ("tests/test_golden.py::test_generate_bytes",)),
    # The patch of a .siftdb set's off-norm rows, over raws and floats.
    Mutant("patch-window-short", DESCRIPTORS,
           "(first, first + len(out))", "(first, first + len(out) - 1)",
           ("tests/test_descriptors.py::TestOffNormPatch::"
            "test_picked_rows_read_as_a_gather",)),
    Mutant("raw-patch-skipped", DESCRIPTORS,
           "_overwrite(records[:, 2:], self.fixed, start)", "pass",
           ("tests/test_descriptors.py::TestSetApi::"
            "test_row_sources_take_slices_only",)),
    Mutant("float-patch-skipped", DESCRIPTORS,
           "_overwrite(floats, self.fixed, start)", "pass",
           ("tests/test_descriptors.py::TestOffNormPatch",)),
    Mutant("no-patch-guard-inverted", DESCRIPTORS,
           "if patch is not None:", "if patch is None:",
           ("tests/test_descriptors.py::TestRoundTrip",)),
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
    # The arccos unit's CORDIC kernels.
    Mutant("sqrt-repeat-rule", CORDIC,
           "repeat = 3 * repeat + 1", "repeat = 3 * repeat + 2",
           ("tests/test_cordic.py::TestBitIdentity",)),
    Mutant("atan-entry-off-by-one", CORDIC,
           "52707179, 31114864,", "52707179, 31114865,",
           ("tests/test_cordic.py::TestBitIdentity",)),
    Mutant("sqrt-zero-unguarded", CORDIC,
           "np.where(r > 0, out, 0)", "np.where(r >= 0, out, 0)",
           ("tests/test_cordic.py::TestSqrt",)),
    Mutant("polar-origin-unguarded", CORDIC,
           "np.where((u == 0) & (v == 0), 0, angle)", "angle",
           ("tests/test_cordic.py::TestPolarAngle",)),
    Mutant("polar-angle-truncated", CORDIC,
           "round_shift_even(z, _Z_FRAC - UQ2_14.fraction_bits)",
           "z >> (_Z_FRAC - UQ2_14.fraction_bits)",
           ("tests/test_cordic.py::TestBitIdentity",)),
    Mutant("table-slice-halved", CORDIC,
           "_TABLE_SLICE = 1 << 12", "_TABLE_SLICE = 1 << 11",
           ("tests/test_cordic.py",),
           equivalent="the kernels are elementwise, so the slice length "
                      "changes how many inputs one run of _kernel_table "
                      "takes, not their angles"),
    # The arccos ROM: how arccos_table reads it.
    Mutant("rom-reads-one-short", CORDIC,
           'np.frombuffer(rom, dtype="<u2")',
           'np.frombuffer(rom, dtype="<u2", count=one)',
           ("tests/test_cordic.py::TestBitIdentity::test_table_equals_kernels",
            )),
    Mutant("rom-read-big-endian", CORDIC,
           'dtype="<u2")', 'dtype=">u2")',
           ("tests/test_cordic.py::TestBitIdentity::test_table_equals_kernels",
            )),
    Mutant("rom-tail-not-zero", CORDIC,
           "table = np.zeros(UQ1_15.max_raw + 1, dtype=np.uint16)\n"
           "    table[:one + 1]",
           "table = np.ones(UQ1_15.max_raw + 1, dtype=np.uint16)\n"
           "    table[:one + 1]",
           ("tests/test_cordic.py::TestBitIdentity::test_table_digest",)),
    # Fixed point: the one quantizer also narrows the pipeline's dots.
    Mutant("narrowing-unsaturated", FIXEDPOINT,
           "np.clip(raws, 0, fmt.max_raw, out=raws)",
           "np.clip(raws, 0, fmt.max_raw + 1, out=raws)",
           ("tests/test_pipeline.py",)),
    Mutant("ties-round-up", FIXEDPOINT,
           "round_up = (r > half) |", "round_up = (r >= half) |",
           ("tests/test_fixedpoint.py",)),
    Mutant("sample-range-unchecked", FIXEDPOINT,
           "if not 0 <= self.raw <= self.fmt.max_raw:", "if False:",
           ("tests/test_fixedpoint.py",)),
    Mutant("sample-raw-not-coerced", FIXEDPOINT,
           "if not isinstance(self.raw, int):", "if False:",
           ("tests/test_fixedpoint.py",)),
    Mutant("sample-takes-non-integral-raw", FIXEDPOINT,
           "if raw != self.raw:", "if False:",
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
           "repr, values.tolist()", "repr, (values + 0.0).tolist()",
           ("tests/test_reference.py",)),
    Mutant("repr-width-23", ROWTEXT,
           "_REPR_WIDTH = 24", "_REPR_WIDTH = 23",
           ("tests/test_reference.py::TestRowText",)),
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
    # The fixed-point floats: the grid's bounds and the text's rules.
    Mutant("grid-exponent-form-below-1e-5", ROWTEXT,
           "(values < 1e-4)", "(values < 1e-5)",
           ("tests/test_reference.py::TestRowText",)),
    Mutant("grid-top-inclusive", ROWTEXT,
           "column.max(initial=0) < 4", "column.max(initial=0) <= 4",
           ("tests/test_reference.py::TestRowText",)),
    Mutant("grid-takes-negative-zero", ROWTEXT,
           "or np.signbit(column).any()", "or False",
           ("tests/test_reference.py::TestRowText",)),
    Mutant("grid-takes-inexact-values", ROWTEXT,
           "if not np.array_equal(k, scaled):", "if False:",
           ("tests/test_reference.py::TestRowText",)),
    Mutant("grid-first-place-blanked", ROWTEXT,
           "if j > 2:", "if j > 1:",
           ("tests/test_reference.py::TestRowText",)),
    Mutant("chunk-rows-2047", ROWTEXT,
           "CHUNK_ROWS = 2048", "CHUNK_ROWS = 2047",
           ("tests/test_reference.py", "tests/test_golden.py"),
           equivalent="rows per fill change where pieces are cut, not the "
                      "bytes they join to"),
    # The command line.
    Mutant("match-fraction-unchecked", CLI,
           "if not 0.0 <= value <= 1.0:", "if False:",
           ("tests/test_cli.py::TestGenerate",)),
    Mutant("closed-stdout-unchecked", CLI,
           "if sys.stdout is None:", "if False:",
           ("tests/test_cli.py::TestStdout",)),
    Mutant("closed-stderr-prints-to-stdout", CLI,
           "if sys.stderr is not None:", "if True:",
           ("tests/test_cli.py::TestStdout::"
            "test_closed_stderr_leaves_stdout_as_is",)),
    Mutant("stderr-write-error-raised", CLI,
           "contextlib.suppress(OSError)", "contextlib.suppress()",
           ("tests/test_cli.py::TestStdout::"
            "test_lost_stderr_keeps_a_written_report",)),
    Mutant("warning-in-python-format", CLI,
           "warnings.showwarning = lambda", "_ = lambda",
           ("tests/test_cli.py::TestWarning",)),
    Mutant("warning-as-error-traceback", CLI,
           "(DescriptorFormatError, ReportFormatError, Warning)",
           "(DescriptorFormatError, ReportFormatError)",
           ("tests/test_cli.py::TestWarning",)),
    Mutant("staged-output-kept-on-error", CLI,
           "        os.unlink(temp)\n", "        pass\n",
           ("tests/test_cli.py::TestStagedOutput",)),
    Mutant("staged-write-unflushed", CLI,
           "                fh.flush()\n", "                pass\n",
           ("tests/test_cli.py::TestStagedOutput::"
            "test_file_size_limit_leaves_no_file",)),
    # generate: three staged files, renamed after the summary's flush.
    Mutant("generate-summary-outermost", CLI,
           "    with _output(q_path) as write_q, "
           "_output(d_path) as write_d, \\\n"
           "            _output(t_path) as write_t, _output(None) as say:\n",
           "    with _output(None) as say, _output(q_path) as write_q, \\\n"
           "            _output(d_path) as write_d, "
           "_output(t_path) as write_t:\n",
           ("tests/test_cli.py::TestStdout::"
            "test_closed_pipe_is_one_io_error",)),
    Mutant("generate-descriptors-unstaged", CLI,
           "        write_q(descriptor_file(queries, q_path))\n"
           "        write_d(descriptor_file(db, d_path))\n",
           "        from .descriptors import save_descriptor_set\n"
           "        save_descriptor_set(queries, q_path)\n"
           "        save_descriptor_set(db, d_path)\n",
           ("tests/test_cli.py::TestStagedOutput::"
            "test_file_size_limit_leaves_no_file",)),
    Mutant("entry-point-not-frozen", CLI,
           "    gc.freeze()\n    return main()", "    return main()",
           ("tests/test_cli.py::TestEntryPoint",)),
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
