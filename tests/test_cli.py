import csv
import dataclasses
import errno
import gc
import importlib
import io
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import siftmatch
from siftmatch import cli, search
from siftmatch.cli import _agreement, _pipeline_config, build_parser, main
from siftmatch.cordic import CordicConfig, arccos_raw_batch
from siftmatch.descriptors import (
    DESCRIPTOR_LEN,
    DescriptorSet,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from siftmatch.fixedpoint import UQ1_15, UQ2_14, quantize_array
from siftmatch.pipeline import PipelineConfig
from siftmatch.reference import DEFAULT_THRESHOLD

HUGE = str(10 ** 400)  # an int argument beyond the float range


def run_cli(*args):
    return main(list(args))


def assert_one_error(capsys, category):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"siftmatch: error: {category}:")
    return err[0]


@pytest.fixture
def dataset(tmp_path):
    prefix = str(tmp_path / "demo")
    assert run_cli("generate", "-m", "60", "--seed", "5",
                   "--match-fraction", "0.7", "--noise", "0.02",
                   "-o", prefix) == 0
    return prefix


class TestGenerate:
    def test_writes_three_files(self, dataset, tmp_path):
        assert (tmp_path / "demo_a.siftdb").exists()
        assert (tmp_path / "demo_b.siftdb").exists()
        truth = (tmp_path / "demo_truth.csv").read_text().splitlines()
        assert truth[0] == "query_index,db_index"
        assert len(truth) == 1 + 42  # floor(0.7 * 60) planted pairs

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "x"), str(tmp_path / "y")
        for prefix in (p1, p2):
            run_cli("generate", "-m", "20", "--seed", "9", "-o", prefix)
        assert (tmp_path / "x_a.siftdb").read_bytes() == \
            (tmp_path / "y_a.siftdb").read_bytes()

    def test_text_format(self, tmp_path):
        prefix = str(tmp_path / "t")
        assert run_cli("generate", "-m", "4", "--format", "text",
                       "-o", prefix) == 0
        head = (tmp_path / "t_a.siftd").read_text().splitlines()[0]
        assert head == "SIFTD v1 text m=4"

    def test_zero_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "-m", "0", "-o", str(tmp_path / "z"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, capsys, noise):
        # NaN once wrote noiseless copies, and inf all-zero query rows.
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "-m", "4", "--noise", noise,
                    "-o", str(tmp_path / "z"))
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fraction", ["2", "-0.5"])
    def test_match_fraction_outside_0_1_is_usage_error(self, tmp_path, capsys,
                                                       fraction):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "-m", "4", "--match-fraction", fraction,
                    "-o", str(tmp_path / "z"))
        assert exc.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ("-m", "1000000000000"),
        ("-m", "20", "--match-fraction", "1", "--noise", "1e308"),
    ])
    def test_sets_it_cannot_make_are_domain_errors(self, tmp_path, capsys,
                                                   args):
        # A numpy MemoryError traceback once, and files that match rejects:
        # zero or nan query rows from an overflowing norm.
        assert run_cli("generate", *args, "-o", str(tmp_path / "z")) == 1
        assert_one_error(capsys, "domain")
        assert not list(tmp_path.iterdir())


class TestMatch:
    def test_reference_json(self, dataset, tmp_path):
        out = str(tmp_path / "ref.json")
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "-o", out) == 0
        blob = json.loads((tmp_path / "ref.json").read_text())
        assert blob["engine"] == "reference"
        assert blob["num_queries"] == 60
        assert len(blob["matches"]) == 60
        assert blob["matches"][0]["min_raw"] is None

    def test_pipeline_json_has_cycles(self, dataset, tmp_path):
        out = str(tmp_path / "pipe.json")
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb",
                       "--engine", "pipeline", "-o", out) == 0
        blob = json.loads((tmp_path / "pipe.json").read_text())
        assert blob["total_cycles"] == 1089 + 2 * 60 * 33 + 66
        assert blob["elapsed_seconds_at_clock"] == blob["total_cycles"] / 100e6
        assert blob["matches"][0]["min_raw"] is not None

    def test_pipeline_csv(self, dataset, tmp_path):
        out = str(tmp_path / "pipe.csv")
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb",
                       "--engine", "pipeline", "--format", "csv",
                       "-o", out) == 0
        lines = (tmp_path / "pipe.csv").read_text().strip().splitlines()
        assert lines[0].startswith("k,matched,best_index")
        assert len(lines) == 61

    @pytest.mark.parametrize("clock,shown", [
        (None, "100 MHz"),
        ("4e5", "0.4 MHz"),   # was "0 MHz"
        ("1.25e8", "125 MHz"),
    ])
    def test_pipeline_stderr_names_clock(self, dataset, tmp_path, capsys,
                                         clock, shown):
        out = str(tmp_path / "pipe.json")
        flags = () if clock is None else ("--clock-hz", clock)
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", "pipeline",
                       *flags, "-o", out) == 0
        blob = json.loads((tmp_path / "pipe.json").read_text())
        assert capsys.readouterr().err == (
            f"{blob['total_cycles']} cycles, "
            f"{blob['elapsed_seconds_at_clock'] * 1e3:.4f} ms at {shown}\n")

    def test_failed_write_prints_no_summary(self, dataset, tmp_path, capsys):
        # The summary line once went out before the report was written.
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", "pipeline",
                       "-o", str(tmp_path / "missing" / "out.json")) == 1
        assert_one_error(capsys, "io")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = run_cli("match", "-q", str(tmp_path / "nope.siftdb"),
                       "-d", str(tmp_path / "nope.siftdb"))
        assert code == 1
        assert "error: io:" in capsys.readouterr().err

    def test_malformed_file_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.siftdb"
        bad.write_bytes(b"JUNKJUNK" + b"\x00" * 8)
        code = run_cli("match", "-q", str(bad), "-d", str(bad))
        assert code == 1
        assert "error: format:" in capsys.readouterr().err

    @pytest.mark.parametrize("column,token", [(0, "1.5"), (7, "x")])
    def test_non_numeric_text_field_is_format_error(self, tmp_path, capsys,
                                                    column, token):
        prefix = str(tmp_path / "t")
        run_cli("generate", "-m", "3", "--format", "text", "-o", prefix)
        lines = (tmp_path / "t_a.siftd").read_text().splitlines()
        fields = lines[2].split()
        fields[column] = token
        lines[2] = " ".join(fields)
        bad = tmp_path / "bad.siftd"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        assert run_cli("match", "-q", str(bad), "-d", f"{prefix}_b.siftd",
                       "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert "descriptor 1:" in err
        assert err.count("\n") == 1 and err.startswith("siftmatch: error: format:")
        assert not out.exists()

    @pytest.mark.parametrize("x,y", [("70000", "5"), ("-1", "5"),
                                     ("5", "65536")])
    def test_text_coordinates_out_of_range_is_format_error(self, tmp_path,
                                                           capsys, x, y):
        prefix = str(tmp_path / "t")
        run_cli("generate", "-m", "3", "--format", "text", "-o", prefix)
        lines = (tmp_path / "t_a.siftd").read_text().splitlines()
        lines[2] = " ".join([x, y, *lines[2].split()[2:]])
        bad = tmp_path / "bad.siftd"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run_cli("match", "-q", str(bad), "-d", f"{prefix}_b.siftd",
                       "-o", str(out)) == 1
        assert assert_one_error(capsys, "format") == (
            f"siftmatch: error: format: {bad}: descriptor 1 coordinates out "
            "of range")
        assert not out.exists()

    def test_count_beyond_the_file_is_format_error(self, tmp_path, capsys):
        # checked before the arrays are sized: no MemoryError
        big = tmp_path / "big.siftd"
        big.write_text("SIFTD v1 text m=10000000000000\n")
        out = tmp_path / "out.json"
        assert run_cli("match", "-q", str(big), "-d", str(tmp_path / "x.siftdb"),
                       "-o", str(out)) == 1
        assert assert_one_error(capsys, "format") == (
            f"siftmatch: error: format: {big}: 10000000000000 descriptors "
            "need at least 2590000000000000 bytes, 0 follow the header")
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["reference", "pipeline"])
    def test_file_shrunk_after_load_is_io_error(self, dataset, tmp_path,
                                                capsys, monkeypatch, engine):
        # the queries stream from their file, which loses its last record
        # between the load's check and the search
        queries = f"{dataset}_a.siftdb"
        load = cli.load_descriptor_set

        def load_then_truncate(path):
            loaded = load(path)
            if path == queries:
                os.truncate(path, os.path.getsize(path) - 260)
            return loaded

        monkeypatch.setattr(cli, "load_descriptor_set", load_then_truncate)
        out = tmp_path / "out.json"
        assert run_cli("match", "-q", queries, "-d", f"{dataset}_b.siftdb",
                       "--engine", engine, "-o", str(out)) == 1
        assert assert_one_error(capsys, "io") == (
            f"siftmatch: error: io: {queries}: the file ends at byte "
            f"{12 + 59 * 260}; it held 60 descriptors when it was loaded")
        assert not out.exists()

    def test_file_renamed_over_after_load_is_not_read(self, dataset, tmp_path,
                                                      monkeypatch):
        # the set reads the file it checked, not whatever the path names now
        queries, db = f"{dataset}_a.siftdb", f"{dataset}_b.siftdb"
        expected, out = tmp_path / "expected.json", tmp_path / "out.json"
        assert run_cli("match", "-q", queries, "-d", db, "-o",
                       str(expected)) == 0
        other = tmp_path / "other.siftdb"
        other.write_bytes((tmp_path / "demo_b.siftdb").read_bytes())
        load = cli.load_descriptor_set

        def load_then_replace(path):
            loaded = load(path)
            if path == queries:
                os.replace(other, path)
            return loaded

        monkeypatch.setattr(cli, "load_descriptor_set", load_then_replace)
        assert run_cli("match", "-q", queries, "-d", db, "-o", str(out)) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_non_ascii_text_is_format_error(self, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        run_cli("generate", "-m", "3", "--format", "text", "-o", prefix)
        bad = tmp_path / "bad.siftd"
        bad.write_bytes((tmp_path / "t_a.siftd").read_bytes() + b"\xff\n")
        out = tmp_path / "out.json"
        assert run_cli("match", "-q", str(bad), "-d", f"{prefix}_b.siftd",
                       "-o", str(out)) == 1
        assert assert_one_error(capsys, "format") == (
            f"siftmatch: error: format: {bad}: non-ASCII byte 0xff")
        assert not out.exists()

    @pytest.mark.parametrize("tail", ["\n\ngarbage here\n",
                                      "\n" * 5 + "  \n\t\ngarbage here\n",
                                      " " * (1 << 17) + "x"],
                             ids=["blank-line", "blank-lines", "long-line"])
    def test_text_after_blank_lines_is_format_error(self, tmp_path, capsys,
                                                    tail):
        prefix = str(tmp_path / "t")
        run_cli("generate", "-m", "3", "--format", "text", "-o", prefix)
        bad = tmp_path / "bad.siftd"
        bad.write_text((tmp_path / "t_a.siftd").read_text() + tail)
        out = tmp_path / "out.json"
        assert run_cli("match", "-q", str(bad), "-d", f"{prefix}_b.siftd",
                       "-o", str(out)) == 1
        assert assert_one_error(capsys, "format") == (
            f"siftmatch: error: format: {bad}: trailing data after 3 descriptors")
        assert not out.exists()

    def test_trailing_whitespace_alone_loads(self, tmp_path):
        prefix = str(tmp_path / "t")
        run_cli("generate", "-m", "3", "--format", "text", "-o", prefix)
        padded = tmp_path / "padded.siftd"
        padded.write_text((tmp_path / "t_a.siftd").read_text()
                          + "\n\n  \t\n" + " " * (1 << 17) + "\n")
        got, want = (load_descriptor_set(str(padded)),
                     load_descriptor_set(f"{prefix}_a.siftd"))
        assert np.array_equal(got.floats, want.floats)
        assert np.array_equal(got.xy, want.xy)

    def test_unknown_extension_names_accepted_ones(self, tmp_path, capsys):
        path = str(tmp_path / "set.txt")
        assert run_cli("match", "-q", path, "-d", path) == 1
        assert assert_one_error(capsys, "domain") == (
            f"siftmatch: error: domain: cannot infer format from {path!r}: "
            "expected a .siftd or .siftdb file")


class TestStagedOutput:
    """Every command opens its `-o FILE`, or `generate` its three files,
    before any load or computation.  A regular file is written as a
    temporary file beside it, which replaces it when the run succeeds and is
    removed when it fails; other files are written in place."""

    @pytest.mark.parametrize("engine", ["reference", "pipeline"])
    def test_unwritable_output_fails_before_any_work(
            self, dataset, tmp_path, capsys, monkeypatch, engine):
        def no_work(*args):
            raise AssertionError("work began before the output was opened")

        for name in ("load_descriptor_set", "modeled_run", "run_pipeline",
                     "match_all"):
            monkeypatch.setattr(cli, name, no_work)
        out = str(tmp_path / "missing_dir" / "x.json")
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", engine,
                       "-o", out) == 1
        assert assert_one_error(capsys, "io") == (
            f"siftmatch: error: io: [Errno 2] No such file or directory: "
            f"{out!r}")

    @pytest.mark.parametrize("argv, work", [
        (("compare", "-q", "{q}", "-d", "{d}"),
         ("load_descriptor_set", "match_all", "run_pipeline")),
        (("compare", "--reports", "{q}", "{d}"), ("report_columns",)),
        (("roofline",), ("roofline_sweep", "roofline_csv")),
        (("characterize",), ("arccos_table", "RowText")),
        (("bench",), ("modeled_run",)),
        (("bench", "--json"), ("modeled_run",)),
        (("generate", "-m", "5"), ("generate_synthetic",)),
    ], ids=["compare", "compare-reports", "roofline", "characterize", "bench",
            "bench-json", "generate"])
    @pytest.mark.parametrize("target", ["missing_dir", "writable"])
    def test_every_command_opens_its_output_first(
            self, dataset, tmp_path, capsys, monkeypatch, argv, work, target):
        # The work raises: into a missing directory it must never begin, and
        # into a writable one it must leave no file behind.
        def no_work(*args, **kwargs):
            raise OSError("work began")

        for name in work:
            monkeypatch.setattr(cli, name, no_work)
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "missing_dir" / "x" if target == "missing_dir"
                  else tmp_path / "x")
        argv = [arg.format(q=f"{dataset}_a.siftdb", d=f"{dataset}_b.siftdb")
                for arg in argv]
        assert run_cli(*argv, "-o", out) == 1
        opened = f"{out}_a.siftdb" if argv[0] == "generate" else out
        assert assert_one_error(capsys, "io") == (
            f"siftmatch: error: io: [Errno 2] No such file or directory: "
            f"{opened!r}" if target == "missing_dir"
            else "siftmatch: error: io: work began")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", [
        ["generate", "-m", "5"], ["generate", "-m", "5", "--format", "text"],
        ["match"], ["compare"], ["roofline"], ["characterize"], ["bench"],
    ], ids=["generate", "generate-text", "match", "compare", "roofline",
            "characterize", "bench"])
    def test_file_size_limit_leaves_no_file(self, dataset, tmp_path, command):
        """Under a 64-byte ``RLIMIT_FSIZE`` (``ulimit -f``) every output
        write fails with ``EFBIG``, as Python ignores ``SIGXFSZ``: one
        ``io`` line, exit 1, and neither the output nor a temporary file
        is left."""
        import resource

        argv = TestStdout.argv(command, dataset, tmp_path)
        if command[0] != "generate":
            argv += ["-o", str(tmp_path / "out")]
        before = sorted(os.listdir(tmp_path))
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "siftmatch", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src,
                 "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                                  (64, 64)))
        assert out.returncode == 1, out.stderr
        assert out.stderr.splitlines() == [
            f"siftmatch: error: io: [Errno {errno.EFBIG}] "
            f"{os.strerror(errno.EFBIG)}"]
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("engine", ["reference", "pipeline"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_read_failing_in_the_third_band(self, tmp_path, capsysbinary,
                                            monkeypatch, engine, to_file):
        # Bands of 97 queries; the file keeps 200 of its 300 rows once
        # loaded, so the third band, from row 194, cannot be read.
        prefix = str(tmp_path / "t")
        assert run_cli("generate", "-m", "300", "--seed", "8",
                       "-o", prefix) == 0
        queries = f"{prefix}_a.siftdb"
        load = cli.load_descriptor_set

        def load_then_truncate(path):
            loaded = load(path)
            if path == queries:
                os.truncate(path, 12 + 200 * 260)
            return loaded

        monkeypatch.setattr(cli, "load_descriptor_set", load_then_truncate)
        monkeypatch.setattr(search, "BAND_ROWS", 97)
        capsysbinary.readouterr()
        out = tmp_path / "out.json"
        assert run_cli("match", "-q", queries, "-d", f"{prefix}_b.siftdb",
                       "--engine", engine,
                       "-o", str(out) if to_file else "-") == 1
        written, err = capsysbinary.readouterr()
        assert err.decode("ascii").splitlines() == [
            f"siftmatch: error: io: {queries}: the file ends at byte "
            f"{12 + 200 * 260}; it held 300 descriptors when it was loaded"]
        assert sorted(os.listdir(tmp_path)) == [
            "t_a.siftdb", "t_b.siftdb", "t_truth.csv"]
        if not to_file:  # stdout had each band as it was done
            assert b'"query_index": 193,' in written
            assert b'"query_index": 194,' not in written

    def test_modes_are_those_open_gives(self, dataset, tmp_path):
        argv = ("match", "-q", f"{dataset}_a.siftdb", "-d",
                f"{dataset}_b.siftdb", "--format", "csv", "-o")
        made, kept = tmp_path / "made.csv", tmp_path / "kept.csv"
        with open(tmp_path / "plain", "wb"):
            pass
        kept.write_bytes(b"old")
        kept.chmod(0o604)
        for out in (made, kept):
            assert run_cli(*argv, str(out)) == 0
        assert made.stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert stat.S_IMODE(kept.stat().st_mode) == 0o604
        assert kept.read_bytes() == made.read_bytes()
        assert sorted(os.listdir(tmp_path)) == [
            "demo_a.siftdb", "demo_b.siftdb", "demo_truth.csv", "kept.csv",
            "made.csv", "plain"]

    def test_symlink_is_written_through(self, dataset, tmp_path):
        argv = ("match", "-q", f"{dataset}_a.siftdb", "-d",
                f"{dataset}_b.siftdb", "-o")
        expected, real = tmp_path / "expected.json", tmp_path / "real.json"
        link = tmp_path / "link.json"
        assert run_cli(*argv, str(expected)) == 0
        real.write_bytes(b"old")
        link.symlink_to(real.name)
        assert run_cli(*argv, str(link)) == 0
        assert link.is_symlink()
        assert real.read_bytes() == expected.read_bytes()

    def test_fifo_is_written_in_place(self, dataset, tmp_path):
        argv = ("match", "-q", f"{dataset}_a.siftdb", "-d",
                f"{dataset}_b.siftdb", "-o")
        expected, fifo = tmp_path / "expected.json", tmp_path / "fifo"
        assert run_cli(*argv, str(expected)) == 0
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        assert run_cli(*argv, str(fifo)) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [expected.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestCompare:
    def test_engines_agree_on_easy_data(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "cmp.json")
        assert run_cli("compare", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "-o", out) == 0
        blob = json.loads((tmp_path / "cmp.json").read_text())
        assert blob["num_queries"] == 60
        assert blob["agreement_fraction"] >= 0.98
        for d in blob["disagreements"]:
            assert "ratio_margin" in d

    def test_report_mode_identical_inputs(self, dataset, tmp_path):
        a = str(tmp_path / "a.json")
        run_cli("match", "-q", f"{dataset}_a.siftdb",
                "-d", f"{dataset}_b.siftdb", "-o", a)
        out = str(tmp_path / "same.json")
        assert run_cli("compare", "--reports", a, a, "-o", out) == 0
        blob = json.loads((tmp_path / "same.json").read_text())
        assert blob["agreement_fraction"] == 1.0

    def test_report_mode_mismatched_counts(self, dataset, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run_cli("match", "-q", f"{dataset}_a.siftdb",
                "-d", f"{dataset}_b.siftdb", "-o", a)
        blob = json.loads((tmp_path / "a.json").read_text())
        blob["matches"] = blob["matches"][:10]
        (tmp_path / "b.json").write_text(json.dumps(blob))
        code = run_cli("compare", "--reports", a, b)
        assert code == 1
        assert "mismatched query counts" in capsys.readouterr().err

    def test_report_without_matches_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"engine": "reference"}))
        assert run_cli("compare", "--reports", str(bad), str(bad)) == 1
        assert_one_error(capsys, "format")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_report_matched_not_bool_is_format_error(self, dataset, tmp_path,
                                                     capsys, value):
        a = tmp_path / "a.json"
        run_cli("match", "-q", f"{dataset}_a.siftdb",
                "-d", f"{dataset}_b.siftdb", "-o", str(a))
        blob = json.loads(a.read_text())
        blob["matches"][3]["matched"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--reports", str(a), str(bad),
                       "-o", str(out)) == 1
        assert "match row 3" in assert_one_error(capsys, "format")
        assert not out.exists()

    def _report_pair(self, dataset, tmp_path):
        a = tmp_path / "a.json"
        run_cli("match", "-q", f"{dataset}_a.siftdb",
                "-d", f"{dataset}_b.siftdb", "-o", str(a))
        return a, json.loads(a.read_text())

    def test_report_rows_in_other_order_is_error(self, dataset, tmp_path,
                                                 capsys):
        # rows are paired by position, so their query_index columns must agree
        a, blob = self._report_pair(dataset, tmp_path)
        blob["matches"].reverse()
        b = tmp_path / "b.json"
        b.write_text(json.dumps(blob))
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--reports", str(a), str(b),
                       "-o", str(out)) == 1
        assert assert_one_error(capsys, "domain") == (
            "siftmatch: error: domain: reports differ in query_index at "
            "row 0: 0 vs 59")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["x", 3.0, None, True, [3]])
    def test_report_query_index_not_int_is_format_error(
            self, dataset, tmp_path, capsys, value):
        a, blob = self._report_pair(dataset, tmp_path)
        blob["matches"][3]["query_index"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        out = tmp_path / "cmp.json"
        for pair in ((a, bad), (bad, bad)):
            assert run_cli("compare", "--reports", *map(str, pair),
                           "-o", str(out)) == 1
            assert assert_one_error(capsys, "format") == (
                f"siftmatch: error: format: {bad}: match row 3: "
                "\"query_index\" is not an integer")
        assert not out.exists()

    def test_report_not_json_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("k,matched\n0,1\n")
        assert run_cli("compare", "--reports", str(bad), str(bad)) == 1
        assert_one_error(capsys, "format")

    def test_deeply_nested_report_is_format_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        assert run_cli("compare", "--reports", str(deep), str(deep)) == 1
        assert assert_one_error(capsys, "format").startswith(
            f"siftmatch: error: format: {deep}: not a JSON report: ")

    def test_undefined_ratio_is_null(self):
        # min = second = 0, built as cmd_compare builds its ratio column
        zero = np.zeros(1)
        ratio = np.ma.divide(zero, zero)
        out = _agreement(np.array([False]), np.array([True]),
                         {"ratio": ratio, "ratio_margin": ratio - 0.6})
        row = json.loads(json.dumps(out, allow_nan=False))["disagreements"][0]
        assert row["ratio"] is None and row["ratio_margin"] is None

    def test_needs_inputs(self, capsys):
        assert run_cli("compare") == 1
        assert "error: domain:" in capsys.readouterr().err


def off_norm_copy(path: str, out: Path) -> Path:
    """The ``.siftdb`` file ``path`` with row 5 at half its raws, as
    ``out``."""
    blob = bytearray(Path(path).read_bytes())
    start = 12 + 5 * 260 + 4  # header, five records, the row's x and y
    raws = np.frombuffer(bytes(blob), "<u2", DESCRIPTOR_LEN, start) // 2
    blob[start:start + 2 * DESCRIPTOR_LEN] = raws.astype("<u2").tobytes()
    out.write_bytes(blob)
    return out


class TestWarning:
    """An off-norm input is one ``siftmatch: warning:`` line on stderr,
    whatever the working directory and wherever the package is installed."""

    @pytest.mark.parametrize("command,summary", [
        (("match",), None),
        (("match", "--engine", "pipeline"), r"\d+ cycles, "),
        (("compare",), r"agreement: "),
    ], ids=["match-reference", "match-pipeline", "compare"])
    def test_one_line(self, dataset, tmp_path, command, summary):
        queries = off_norm_copy(f"{dataset}_a.siftdb", tmp_path / "off.siftdb")
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        errs = []
        for cwd in (tmp_path / "x", tmp_path / "y"):
            cwd.mkdir()
            out = subprocess.run(
                [sys.executable, "-m", "siftmatch", *command,
                 "-q", str(queries), "-d", f"{dataset}_b.siftdb", "-o", "out"],
                cwd=cwd, env=env, capture_output=True, timeout=60)
            assert out.returncode == 0, out.stderr
            errs.append(out.stderr)
        assert errs[0] == errs[1]
        lines = errs[0].decode("ascii").splitlines()
        assert lines[0] == (f"siftmatch: warning: {queries}: 1 of 60 "
                            "descriptors are not unit-norm; auto-normalizing")
        assert len(lines) == 1 + (summary is not None)
        assert summary is None or re.match(summary, lines[1])
        assert ".py:" not in errs[0].decode("ascii")

    def test_filters_still_apply(self, dataset, tmp_path, capsys):
        """A filter set around ``main`` still silences the warning, and a
        library caller still gets a ``UserWarning`` once ``main`` returns."""
        queries = off_norm_copy(f"{dataset}_a.siftdb", tmp_path / "off.siftdb")
        argv = ("match", "-q", str(queries), "-d", f"{dataset}_b.siftdb",
                "-o", str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*not unit-norm", UserWarning)
            assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err.startswith("siftmatch: warning: ")
        with pytest.warns(UserWarning, match="not unit-norm"):
            load_descriptor_set(str(queries))

    @pytest.mark.parametrize("command", ["match", "compare"])
    def test_warnings_as_errors_is_one_format_line(self, dataset, tmp_path,
                                                   command):
        queries = off_norm_copy(f"{dataset}_a.siftdb", tmp_path / "off.siftdb")
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "siftmatch", command,
             "-q", str(queries), "-d", f"{dataset}_b.siftdb", "-o", "out"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=60)
        assert out.returncode == 1
        # No rescale happens, so the line does not claim one.
        assert out.stderr.decode("ascii").splitlines() == [
            f"siftmatch: error: format: {queries}: 1 of 60 descriptors are "
            "not unit-norm"]
        assert not (tmp_path / "out").exists()


class TestZeroDescriptor:
    """A file with an all-zero descriptor is one ``format`` error line that
    names it, with no warning before it, even where warnings are errors."""

    @pytest.mark.parametrize("flags", [(), ("-W", "error")],
                             ids=["default", "warnings-as-errors"])
    @pytest.mark.parametrize("ext", [".siftdb", ".siftd"])
    def test_one_error_line(self, tmp_path, ext, flags):
        queries, db, _ = generate_synthetic(20, 4, 0.5, 0.02)
        rows = queries.floats.copy()
        rows[3] = 0.0
        path = tmp_path / f"zero{ext}"
        save_descriptor_set(DescriptorSet.from_floats("z", rows, queries.xy),
                            str(path))
        save_descriptor_set(db, str(tmp_path / f"db{ext}"))
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        out = subprocess.run(
            [sys.executable, *flags, "-m", "siftmatch", "match",
             "-q", str(path), "-d", f"db{ext}", "-o", "out"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=60)
        assert out.returncode == 1
        assert out.stderr.decode("ascii").splitlines() == [
            f"siftmatch: error: format: {path}: zero descriptor cannot be "
            "normalized"]
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    """``run`` is the process entry point and freezes the import-time heap;
    ``main`` is for in-process callers and never freezes."""

    def test_run_freezes_then_returns_mains_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
        assert cli.run() == 7
        assert calls == ["freeze", "main"]

    def test_main_does_not_freeze(self, dataset, tmp_path):
        before = gc.get_freeze_count()
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", "pipeline",
                       "-o", str(tmp_path / "out.json")) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_run(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = pyproject.read_text().split("[project.scripts]\n")[1]
        assert scripts.split("\n")[0] == 'siftmatch = "siftmatch.cli:run"'


class TestRoofline:
    def test_csv_values(self, tmp_path):
        out = str(tmp_path / "roof.csv")
        assert run_cli("roofline", "--bandwidths", "3.2e9,25.6e9",
                       "-o", out) == 0
        lines = (tmp_path / "roof.csv").read_text().strip().splitlines()
        assert lines[1] == "3200000000.0,12500000.0,memory"
        assert lines[2] == "25600000000.0,100000000.0,compute"

    def test_empty_range_is_error(self, capsys):
        assert run_cli("roofline", "--bandwidths", "") == 1
        assert "error: domain:" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (("--descriptor-bytes", HUGE),
         "descriptor_bytes must be >= 1 and fit a float"),
        # 0 bytes a cycle, and a descriptor of infinitely many cycles.
        (("--bandwidths", "5e-324"),
         "bandwidth 5e-324 is too small to move a descriptor"),
        (("--bandwidths", "1e-300"),
         "bandwidth 1e-300 is too small to move a descriptor"),
    ], ids=["descriptor-bytes", "zero-bytes-per-cycle", "unbounded-cycles"])
    def test_domain_error_names_its_argument(self, capsys, args, message):
        assert run_cli("roofline", *args) == 1
        assert assert_one_error(capsys, "domain") == (
            f"siftmatch: error: domain: {message}")


class TestNonFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "1e-310"])
    def test_match_clock(self, dataset, tmp_path, capsys, value):
        out = tmp_path / "pipe.json"
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", "pipeline",
                       "--clock-hz", value, "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()

    @pytest.mark.parametrize("command", [("match", "--engine", "pipeline"),
                                         ("compare",)])
    def test_huge_block_size(self, dataset, tmp_path, capsys, command):
        # the cycle count is an int beyond the float range
        out = tmp_path / "out.json"
        assert run_cli(*command, "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--block-size", HUGE,
                       "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()

    def test_subnormal_clock_csv(self, dataset, tmp_path, capsys):
        # 1e-310 is finite and positive, but cycles / clock_hz overflows
        out = tmp_path / "pipe.csv"
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", "pipeline",
                       "--clock-hz", "1e-310", "--format", "csv",
                       "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_unencodable_json_leaves_no_file(self, tmp_path, capsys, to_file):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--json", "--clock-hz", "1e-310",
                       "-o", str(out) if to_file else "-") == 1
        out_text, err = capsys.readouterr()
        assert not out_text  # encoded whole before the first write
        assert err.startswith("siftmatch: error: domain:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_subnormal_clock_bench_table(self, tmp_path, capsys):
        # cycles / clock_hz overflows to inf ms
        out = tmp_path / "bench.txt"
        assert run_cli("bench", "--clock-hz", "1e-310", "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("roofline", "--bandwidths", "inf"),
        ("roofline", "--bandwidths", "3.2e9,nan"),
        ("roofline", "--bandwidths", "1e-300"),
        ("roofline", "--clock-hz", "nan"),
        ("bench", "--clock-hz", "inf"),
        ("roofline", "--clock-hz", "1e-310"),
        ("bench", "--sizes", HUGE),
        ("bench", "--db-size", HUGE),
        ("roofline", "--descriptor-bytes", HUGE),
    ])
    def test_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(*args, "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()


class TestDefaults:
    @pytest.mark.parametrize("command", ["match", "compare"])
    def test_engine_options(self, command):
        args = build_parser().parse_args([command, "-q", "a", "-d", "b"])
        assert _pipeline_config(args) == PipelineConfig()
        assert args.threshold == DEFAULT_THRESHOLD

    def test_bench_options(self):
        args = build_parser().parse_args(["bench"])
        assert (args.block_size, args.clock_hz) == (
            PipelineConfig().block_size, PipelineConfig().clock_hz)

    def test_roofline_options(self):
        args = build_parser().parse_args(["roofline"])
        assert PipelineConfig(clock_hz=args.clock_hz,
                              descriptor_bytes=args.descriptor_bytes) \
            == PipelineConfig()


# A flag of each PipelineConfig field, with a non-default value for it.
BLOCK_SIZE = ("block_size", "--block-size", "7", 7)
CLOCK_HZ = ("clock_hz", "--clock-hz", "2e8", 2e8)
THRESHOLD_MODE = ("threshold_mode", "--threshold-mode", "binary_10011",
                  "binary_10011")
DESCRIPTOR_BYTES = ("descriptor_bytes", "--descriptor-bytes", "260", 260)

# Command -> the flags it passes into the PipelineConfig it builds.
PIPELINE = ("match", "--engine", "pipeline")
COMMAND_FLAGS = {
    PIPELINE: (BLOCK_SIZE, CLOCK_HZ, THRESHOLD_MODE),
    ("compare",): (BLOCK_SIZE, CLOCK_HZ, THRESHOLD_MODE),
    ("bench",): (BLOCK_SIZE, CLOCK_HZ),
    ("roofline",): (CLOCK_HZ, DESCRIPTOR_BYTES),
}


def config_classes() -> set[type]:
    """Every dataclass named ``*Config`` in the package's modules."""
    found = set()
    for path in Path(siftmatch.__file__).parent.glob("[!_]*.py"):
        module = importlib.import_module(f"siftmatch.{path.stem}")
        found.update(value for name, value in vars(module).items()
                     if name.endswith("Config") and isinstance(value, type)
                     and dataclasses.is_dataclass(value))
    return found


class TestEveryConfigFieldHasAFlag:
    """No config field is reachable only from code: each one can be set
    from the flags of every command that builds the config for it."""

    def test_every_config_field_is_in_a_flag_table(self):
        # The tests below set each command's fields through the CLI, so a
        # config with a field outside the tables, such as a depth that
        # only code sets, fails here.  CordicConfig has no field.
        configs = config_classes()
        assert {PipelineConfig, CordicConfig} <= configs
        assert {c for c in configs if dataclasses.fields(c)} == {PipelineConfig}
        assert {field for flags in COMMAND_FLAGS.values()
                for field, *_ in flags} \
            == {f.name for f in dataclasses.fields(PipelineConfig)}

    @staticmethod
    def assert_flags_reach_config(monkeypatch, command, hook, *args):
        """Run ``command`` once per flag of its table, with ``cli.<hook>``
        recording each PipelineConfig it is called with."""
        seen, real = [], getattr(cli, hook)
        monkeypatch.setattr(cli, hook, lambda *a: seen.extend(
            x for x in a if isinstance(x, PipelineConfig)) or real(*a))
        defaults = PipelineConfig()
        for field, flag, text, value in COMMAND_FLAGS[command]:
            assert value != getattr(defaults, field)
            assert run_cli(*command, *args, flag, text) == 0
            assert seen and all(getattr(cfg, field) == value for cfg in seen)
            seen.clear()

    @pytest.mark.parametrize("command", [PIPELINE, ("compare",)])
    def test_pipeline_config(self, dataset, tmp_path, monkeypatch, command):
        self.assert_flags_reach_config(
            monkeypatch, command, "run_pipeline", "-q", f"{dataset}_a.siftdb",
            "-d", f"{dataset}_b.siftdb", "-o", str(tmp_path / "out"))

    def test_bench_config(self, tmp_path, monkeypatch):
        self.assert_flags_reach_config(monkeypatch, ("bench",), "modeled_run",
                                       "-o", str(tmp_path / "out"))

    def test_roofline_config(self, tmp_path, monkeypatch):
        self.assert_flags_reach_config(monkeypatch, ("roofline",),
                                       "roofline_sweep",
                                       "-o", str(tmp_path / "out"))


class TestCharacterize:
    def test_deterministic_and_bounded(self, tmp_path):
        out1, out2 = str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")
        assert run_cli("characterize", "-o", out1) == 0
        assert run_cli("characterize", "-o", out2) == 0
        blob1 = (tmp_path / "c1.csv").read_bytes()
        assert blob1 == (tmp_path / "c2.csv").read_bytes()

        lines = blob1.decode().strip().splitlines()
        assert lines[0] == "x,cordic_arccos,float_arccos,error"
        assert len(lines) == 1 + (1 << 15) + 1
        # last row is x = 1.0 with error within 2 LSB of UQ2.14
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert abs(float(last[3])) <= 2 * UQ2_14.lsb
        # every row within 8 LSB
        errors = [abs(float(line.split(",")[3])) for line in lines[1:]]
        assert max(errors) <= 8 * UQ2_14.lsb

    def test_bytes_equal_row_loop(self, tmp_path):
        """The columnar writer gives the bytes of the per-row loop of repr()s
        it replaced, over the same arrays.  float_arccos is libm's, so the
        bytes are compared, not pinned."""
        raws = np.arange((1 << 15) + 1, dtype=np.int64)
        x = raws * UQ1_15.lsb
        approx = arccos_raw_batch(raws) * UQ2_14.lsb
        exact = np.arccos(x)
        error = approx - exact
        rows = ["x,cordic_arccos,float_arccos,error\n"]
        for i in range(raws.shape[0]):
            rows.append(f"{float(x[i])!r},{float(approx[i])!r},"
                        f"{float(exact[i])!r},{float(error[i])!r}\n")
        out = tmp_path / "c.csv"
        assert run_cli("characterize", "-o", str(out)) == 0
        assert out.read_text() == "".join(rows)


class TestStdout:
    """``-o -`` writes the bytes that ``-o FILE`` writes, a closed stdout
    pipe, or a closed stdout, is one error line, and a closed stderr changes
    neither stdout nor the exit code."""

    @staticmethod
    def argv(command, dataset, tmp_path):
        """``command`` with the inputs or the output prefix it needs."""
        if command == ["compare", "--reports"]:
            reports = [str(tmp_path / f"{engine}.json")
                       for engine in ("reference", "pipeline")]
            for engine, report in zip(("reference", "pipeline"), reports):
                assert run_cli("match", "--engine", engine, "-o", report,
                               "-q", f"{dataset}_a.siftdb",
                               "-d", f"{dataset}_b.siftdb") == 0
            return [*command, *reports]
        if command[0] in ("match", "compare"):
            return [*command, "-q", f"{dataset}_a.siftdb",
                    "-d", f"{dataset}_b.siftdb"]
        if command[0] == "generate":
            return [*command, "-o", str(tmp_path / "gen")]
        return command

    @pytest.mark.parametrize("command", [
        *(["match", "--engine", engine, "--format", fmt]
          for engine in ("reference", "pipeline") for fmt in ("json", "csv")),
        ["characterize"], ["roofline"], ["bench"], ["bench", "--json"],
        ["compare"], ["compare", "--reports"],
    ], ids=["reference-json", "reference-csv", "pipeline-json", "pipeline-csv",
            "characterize", "roofline", "bench", "bench-json", "compare",
            "compare-reports"])
    def test_dash_writes_the_file_bytes(self, dataset, tmp_path, capsysbinary,
                                        command):
        args = self.argv(command, dataset, tmp_path)
        out = tmp_path / "out"
        assert run_cli(*args, "-o", str(out)) == 0
        capsysbinary.readouterr()
        assert run_cli(*args, "-o", "-") == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("command", [
        ["match", "--format", "json"],
        ["match", "--format", "csv"],
        ["characterize"],
        ["generate", "-m", "5"],
    ], ids=["match-json", "match-csv", "characterize", "generate"])
    def test_closed_pipe_is_one_io_error(self, dataset, tmp_path, command):
        """A reader that has gone away: exit 1 with one ``io`` line, and no
        second failure when the interpreter flushes stdout at exit."""
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "siftmatch",
                 *self.argv(command, dataset, tmp_path)],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                timeout=60)
        finally:
            os.close(write)
        err = out.stderr.splitlines()
        assert out.returncode == 1, out.stderr
        assert len(err) == 1 and err[0].startswith("siftmatch: error: io:")
        assert "Exception ignored" not in out.stderr
        if command[0] == "generate":  # the files wait for the summary
            assert not list(tmp_path.glob("gen*"))

    @pytest.mark.parametrize("command", [
        ["match"], ["compare"], ["roofline"], ["characterize"], ["bench"],
        ["generate", "-m", "5"],
    ], ids=lambda command: command[0])
    def test_closed_stdout_is_one_io_error(self, dataset, tmp_path, command):
        """With file descriptor 1 closed (``>&-``), ``sys.stdout`` is
        ``None``: exit 1 with one ``io`` line and no traceback."""
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "siftmatch",
             *self.argv(command, dataset, tmp_path)],
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
            text=True, timeout=60, preexec_fn=lambda: os.close(1))
        err = out.stderr.splitlines()
        assert out.returncode == 1, out.stderr
        assert len(err) == 1 and err[0].startswith("siftmatch: error: io:")
        assert "Traceback" not in out.stderr
        if command[0] == "generate":  # the stream is checked before any file
            assert not list(tmp_path.glob("gen*"))

    @staticmethod
    def without_stderr(*argv, read_only=False):
        """``siftmatch argv`` with file descriptor 2 closed (``2>&-``, so
        ``sys.stderr`` is ``None``), or open for reading only, where each
        write to it raises ``EBADF``."""
        src = os.path.dirname(os.path.dirname(siftmatch.__file__))
        with open(os.devnull, "rb") as null:
            return subprocess.run(
                [sys.executable, "-m", "siftmatch", *argv],
                stdout=subprocess.PIPE, stderr=null if read_only else None,
                preexec_fn=None if read_only else lambda: os.close(2),
                env={**os.environ, "PYTHONPATH": src}, timeout=60)

    @pytest.mark.parametrize("off_norm", [False, True], ids=["clean", "off-norm"])
    def test_closed_stderr_leaves_stdout_as_is(self, dataset, tmp_path,
                                              capsysbinary, off_norm):
        """The cycle line, and an off-norm input's warning, are dropped, not
        written into the report on stdout."""
        queries = f"{dataset}_a.siftdb"
        if off_norm:
            queries = str(off_norm_copy(queries, tmp_path / "off.siftdb"))
        args = ["match", "--engine", "pipeline", "-q", queries,
                "-d", f"{dataset}_b.siftdb", "-o", "-"]
        assert run_cli(*args) == 0
        expected = capsysbinary.readouterr()
        assert expected.err.count(b"\n") == 1 + off_norm
        out = self.without_stderr(*args)
        assert out.returncode == 0
        assert out.stdout == expected.out
        json.loads(out.stdout)

    @pytest.mark.parametrize("read_only", [False, True],
                             ids=["closed", "read-only"])
    def test_lost_stderr_keeps_a_written_report(self, dataset, tmp_path,
                                                read_only):
        """The report file is the only output, and the exit code is 0."""
        report = tmp_path / "r.json"
        out = self.without_stderr("match", "--engine", "pipeline",
                                  "-q", f"{dataset}_a.siftdb",
                                  "-d", f"{dataset}_b.siftdb",
                                  "-o", str(report), read_only=read_only)
        assert (out.returncode, out.stdout) == (0, b"")
        json.loads(report.read_bytes())

    def test_closed_stderr_error_is_the_exit_code(self, tmp_path):
        out = self.without_stderr("match", "-q", str(tmp_path / "none"),
                                  "-d", str(tmp_path / "none"))
        assert (out.returncode, out.stdout) == (1, b"")


class TestBench:
    def test_table(self, tmp_path, capsys):
        assert run_cli("bench") == 0
        out = capsys.readouterr().out
        assert "607629" in out and "1045638" in out

    def test_json(self, tmp_path):
        out = str(tmp_path / "bench.json")
        assert run_cli("bench", "--json", "-o", out,
                       "--sizes", "579,1021") == 0
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert rows[0]["total_cycles"] == 607629
        assert math.isclose(rows[1]["elapsed_ms"], 10.45638)

    @pytest.mark.parametrize("json_flag", [(), ("--json",)],
                             ids=["table", "json"])
    def test_empty_sizes_is_error(self, tmp_path, capsys, json_flag):
        out = tmp_path / "bench.out"
        assert run_cli("bench", "--sizes", ",", *json_flag,
                       "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()


_STARTUP = textwrap.dedent("""
    import sys
    import siftmatch.cli
    from siftmatch.cordic import _sqrt_constants, arccos_table
    arccos_table()
    code = siftmatch.cli.main(sys.argv[1:])
    print(code, "mpmath" in sys.modules, _sqrt_constants.cache_info().misses)
""")


def test_startup_does_not_import_mpmath(dataset, tmp_path):
    """mpmath is a test-only dependency: importing the CLI, reading the
    arccos table and running a pipeline match must not load it.  Nor do
    they run a CORDIC kernel: the square root's constants, which its first
    run computes, are never asked for."""
    src = os.path.dirname(os.path.dirname(siftmatch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP, "match", "--engine", "pipeline",
         "-q", f"{dataset}_a.siftdb", "-d", f"{dataset}_b.siftdb",
         "-o", str(tmp_path / "pipe.json")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "False", "0"]


_MATCH_GROWTH = textwrap.dedent("""
    import resource, sys
    import siftmatch.cli
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = siftmatch.cli.main(sys.argv[1:])
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(code, (after - before) * 1024)  # KiB on Linux
""")

# Scratch of one pipeline match beyond its inputs: the load's norm block,
# the arccos table, one search tile and one report piece.  Measured 3.65-3.67
# MiB at 4000 rows (4.24-4.37 while the table was built by running the
# kernels in slices); fresh tiles per tile and the kernels run on all 32769
# table inputs at once made it 6.0-7.2 MiB.
_MATCH_SCRATCH = 5 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and inherited as on Linux")
def test_match_memory_is_inputs_plus_fixed_scratch(tmp_path, grandchild):
    """One pipeline match grows peak RSS over ``import siftmatch.cli`` by
    less than its inputs' file size plus a fixed scratch budget."""
    prefix = str(tmp_path / "big")
    assert run_cli("generate", "-m", "4000", "--seed", "2",
                   "--match-fraction", "0.5", "--noise", "0.02",
                   "-o", prefix) == 0
    inputs = [f"{prefix}_a.siftdb", f"{prefix}_b.siftdb"]
    code, growth = map(int, grandchild(
        _MATCH_GROWTH, "match", "-q", inputs[0], "-d", inputs[1],
        "--engine", "pipeline", "-o", str(tmp_path / "out.json")).split())
    assert code == 0
    assert 0 < growth < sum(map(os.path.getsize, inputs)) + _MATCH_SCRATCH


_MATCH_PEAK = textwrap.dedent("""
    import resource, sys, warnings
    import siftmatch.cli
    warnings.simplefilter("ignore")
    code = siftmatch.cli.main(sys.argv[1:])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and inherited as on Linux")
@pytest.mark.parametrize("engine", ["pipeline", "reference"])
def test_off_norm_row_costs_no_memory(tmp_path, grandchild, engine):
    """A 20000 x 64 match with one half-norm query row peaks within 2 MiB
    of the same match on the clean file: the row is a patch, not a copy of
    the file (which would be 1.25 KiB a row, 24 MiB here)."""
    rows = np.abs(np.random.default_rng(9).standard_normal((20000, 128)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    xy = np.zeros((len(rows), 2), dtype=np.uint16)
    clean = DescriptorSet.from_floats("q", rows, xy)
    rows[7] /= 2
    for name, set_ in (("q", clean), ("hq", DescriptorSet.from_floats(
            "hq", rows, xy)), ("d", DescriptorSet.from_raws(
                "d", clean.raws[:64], xy[:64]))):
        save_descriptor_set(set_, str(tmp_path / f"{name}.siftdb"))
    peaks = {}
    for name in ("q", "hq"):
        code, peaks[name] = map(int, grandchild(
            _MATCH_PEAK, "match", "-q", str(tmp_path / f"{name}.siftdb"),
            "-d", str(tmp_path / "d.siftdb"), "--engine", engine,
            "-o", str(tmp_path / f"{name}.json")).split())
        assert code == 0
    assert peaks["hq"] - peaks["q"] < 2 << 20


def unit_raws(rng, count: int) -> np.ndarray:
    """``count`` random unit rows as UQ1.15 raws, made 4096 at a time."""
    parts = []
    for start in range(0, count, 4096):
        rows = np.abs(rng.standard_normal((min(4096, count - start),
                                           DESCRIPTOR_LEN)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        parts.append(quantize_array(rows).astype(np.uint16))
    return np.concatenate(parts)


# Peak RSS a match may gain per query: the set's 4-byte (x, y), and slack
# for the heap, whose layout settles over the first bands (up to about
# 0.9 MiB between two runs, measured).  Holding every query's verdicts and
# report text to the end grew 70 bytes a query with the pipeline and 109
# with the reference; bands grew 4-7 and 1-7 from 10000 to 100000 queries.
_BYTES_PER_QUERY = 16


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and inherited as on Linux")
@pytest.mark.parametrize("engine", ["pipeline", "reference"])
def test_match_memory_is_flat_in_the_query_count(tmp_path, grandchild,
                                                  engine):
    """Peak RSS of a match against 64 rows grows by at most
    :data:`_BYTES_PER_QUERY` a query from 10000 to 100000 queries: each
    band of verdicts is written and let go before the next."""
    rng = np.random.default_rng(12)
    raws = unit_raws(rng, 100000)
    xy = rng.integers(0, 1 << 16, (len(raws), 2))
    counts = (10000, len(raws))
    for count in counts:
        save_descriptor_set(DescriptorSet.from_raws("q", raws[:count],
                                                    xy[:count]),
                            str(tmp_path / f"q{count}.siftdb"))
    save_descriptor_set(DescriptorSet.from_raws("d", unit_raws(rng, 64),
                                                xy[:64]),
                        str(tmp_path / "d.siftdb"))
    peaks = []
    for count in counts:
        code, peak = map(int, grandchild(
            _MATCH_PEAK, "match", "-q", str(tmp_path / f"q{count}.siftdb"),
            "-d", str(tmp_path / "d.siftdb"), "--engine", engine,
            "-o", str(tmp_path / "out.json")).split())
        assert code == 0
        peaks.append(peak)
    slope = (peaks[1] - peaks[0]) / (counts[1] - counts[0])
    print(f"{engine}: {slope:.1f} bytes per query "
          f"(budget {_BYTES_PER_QUERY})")
    assert slope <= _BYTES_PER_QUERY, (
        f"{slope:.1f} bytes per query, budget {_BYTES_PER_QUERY}")


# What replaces one field of a .siftd line: values the loader must either
# reject with one error line or accept, never crash on.
_TOKENS = [b"nan", b"inf", b"-1", b"1e-400", b"0x1p-3", b"\xff", b""]
# What replaces one 16-bit word of a .siftdb record.
_WORDS = [0, 1, 0x8000, 0x8001, 0xFFFF]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The bytes of a valid 6-row query and database file per extension."""
    directory = tmp_path_factory.mktemp("fuzz")
    inputs = {}
    for fmt, ext in (("text", ".siftd"), ("binary", ".siftdb")):
        prefix = str(directory / fmt)
        assert run_cli("generate", "-m", "6", "--seed", "3",
                       "--match-fraction", "0.5", "--noise", "0.02",
                       "--format", fmt, "-o", prefix) == 0
        inputs[ext] = [(directory / f"{fmt}_{side}{ext}").read_bytes()
                       for side in "ab"]
    return inputs


def spliced(data, blob: bytes, kind: str) -> bytes:
    """``blob`` truncated at a drawn byte (``kind`` "truncate"), or with a
    few drawn bytes written over it ("overwrite") or inserted there."""
    at = data.draw(st.integers(0, len(blob)))
    some = b"" if kind == "truncate" else data.draw(
        st.binary(min_size=1, max_size=8))
    end = at + len(some) if kind == "overwrite" else at
    return blob[:at] + some + (blob[end:] if kind != "truncate" else b"")


def mutated(data, blob: bytes, ext: str) -> bytes:
    """``blob`` truncated, with bytes overwritten or inserted, with another
    header count, with one field or word replaced, or with a zero row."""
    kind = data.draw(st.sampled_from(
        ["truncate", "overwrite", "insert", "count", "field", "zero"]))
    if kind in ("truncate", "overwrite", "insert"):
        return spliced(data, blob, kind)
    if ext == ".siftdb":
        words = np.frombuffer(blob, dtype="<u2").copy()
        row = 6 + 130 * data.draw(st.integers(0, 5))
        if kind == "count":
            count = data.draw(st.sampled_from([0, 1, 5, 7, 2 ** 32 - 1]))
            return blob[:8] + count.to_bytes(4, "little") + blob[12:]
        if kind == "zero":
            words[row + 2:row + 130] = 0
        else:
            words[row + data.draw(st.integers(0, 129))] = data.draw(
                st.sampled_from(_WORDS))
        return words.tobytes()
    lines = blob.split(b"\n")
    if kind == "count":
        count = data.draw(st.sampled_from([b"-1", b"0", b"1", b"5", b"7",
                                           b"", b"x", b"10" * 20]))
        return b"\n".join([b"SIFTD v1 text m=" + count] + lines[1:])
    line = data.draw(st.integers(1, 6))
    fields = lines[line].split(b" ")
    if kind == "zero":
        fields[2:] = [b"0"] * (len(fields) - 2)
    else:
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
            st.sampled_from(_TOKENS))
    lines[line] = b" ".join(fields)
    return b"\n".join(lines)


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


class TestLoaderFuzz:
    """A match of a mutated descriptor file writes a strict JSON report or
    ends in one error line and no output file; nothing else."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_report_or_one_error_line(self, fuzz_inputs, tmp_path, capsys,
                                      data):
        ext = data.draw(st.sampled_from([".siftd", ".siftdb"]))
        blobs = list(fuzz_inputs[ext])
        side = data.draw(st.integers(0, 1))
        blobs[side] = mutated(data, blobs[side], ext)
        paths = [tmp_path / f"{name}{ext}" for name in "qd"]
        for path, blob in zip(paths, blobs):
            path.write_bytes(blob)
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = run_cli("match", "-q", str(paths[0]), "-d", str(paths[1]),
                       "--engine", data.draw(st.sampled_from(
                           ["reference", "pipeline"])), "-o", str(out))
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            report = json.loads(out.read_bytes().decode("ascii"),
                                parse_constant=_no_constant)
            assert len(report["matches"]) == report["num_queries"] > 0
        else:
            assert code == 1
            assert len(err) == 1, err
            assert re.match(r"siftmatch: error: (io|format|domain): ", err[0])
            assert not out.exists()


# Each command's argv as (option, value, ...) groups.  A value in braces
# names a path of the ``argv_inputs`` fixture or of the example's work
# directory.
_COMMANDS = {
    "generate": ("generate", [
        ("-m", "6"), ("--seed", "3"), ("--match-fraction", "0.5"),
        ("--noise", "0.02"), ("--format", "binary"), ("-o", "{gen}")]),
    "match": ("match", [
        ("-q", "{q}"), ("-d", "{d}"), ("--engine", "pipeline"),
        ("--threshold", "0.6"), ("--threshold-mode", "exact_0_6"),
        ("--clock-hz", "1e8"), ("--block-size", "33"), ("--format", "json"),
        ("-o", "{out}")]),
    "compare": ("compare", [
        ("-q", "{q}"), ("-d", "{d}"), ("--threshold", "0.6"),
        ("--threshold-mode", "binary_10011"), ("--clock-hz", "1e8"),
        ("--block-size", "7"), ("-o", "{out}")]),
    "reports": ("compare", [("--reports", "{a}", "{b}"), ("-o", "{out}")]),
    "roofline": ("roofline", [
        ("--bandwidths", "1e9,3.2e9"), ("--clock-hz", "1e8"),
        ("--descriptor-bytes", "256"), ("-o", "{out}")]),
    "characterize": ("characterize", [("-o", "{out}")]),
    "bench": ("bench", [
        ("--sizes", "579,1021"), ("--db-size", "1021"), ("--clock-hz", "1e8"),
        ("--block-size", "33"), ("--json",), ("-o", "{out}")]),
}
# What replaces the value of an option that is not a path or a row count.
_VALUES = st.sampled_from([
    "0", "-1", "1", "0.5", "1e8", "nan", "inf", "-inf", "1e308", "5e-324",
    "", " ", "x", HUGE, "1,2", ",", "0x10", "binary", "text", "json", "csv",
    "reference", "pipeline", "exact_0_6", "binary_10011",
]) | st.text(max_size=3).filter(lambda text: not text.startswith("-"))
# Row counts are small, or 2**50 and more, which every allocator refuses at
# once: a count in between could really allocate.
_COUNT = st.one_of(st.integers(-2, 2000), st.integers(2 ** 50, 2 ** 70))
# Saved-report values that replace a report, its rows or one row's value.
_JSON_VALUES = [None, True, False, 0, -1, 1.5, 2 ** 70, "x", [], {}, [{}],
                math.nan]


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """Paths an argv value may name: a 6-row query and database file in
    each format, a reference and a pipeline report of them, the truth CSV,
    a missing file and a directory."""
    directory = tmp_path_factory.mktemp("argv")
    for fmt in ("binary", "text"):
        assert run_cli("generate", "-m", "6", "--seed", "4",
                       "--match-fraction", "0.5", "--noise", "0.02",
                       "--format", fmt, "-o", str(directory / fmt)) == 0
    paths = {"q": directory / "binary_a.siftdb",
             "d": directory / "binary_b.siftdb",
             "qt": directory / "text_a.siftd",
             "a": directory / "a.json", "b": directory / "b.json",
             "truth": directory / "binary_truth.csv",
             "missing": directory / "missing.siftdb", "dir": directory}
    for key, engine in (("a", "reference"), ("b", "pipeline")):
        assert run_cli("match", "-q", str(paths["q"]), "-d", str(paths["d"]),
                       "--engine", engine, "-o", str(paths[key])) == 0
    return paths


def mutated_report(data, blob: bytes) -> bytes:
    """A saved report spliced, nested too deep, or with the report, its
    rows, one row or one row's value replaced or deleted."""
    kind = data.draw(st.sampled_from(
        ["truncate", "overwrite", "insert", "nest", "replace", "delete"]))
    if kind in ("truncate", "overwrite", "insert"):
        return spliced(data, blob, kind)
    if kind == "nest":
        return b"[" * 100000 + blob
    report = json.loads(blob)
    rows = report["matches"]
    k = data.draw(st.integers(0, len(rows) - 1))
    key = data.draw(st.sampled_from(["query_index", "matched", "best_index"]))
    where = data.draw(st.sampled_from(["report", "matches", "row", "key"]))
    if kind == "delete":
        if where in ("report", "matches"):
            del report["matches"]
        elif where == "row":
            del rows[k]
        else:
            del rows[k][key]
    else:
        value = data.draw(st.sampled_from(_JSON_VALUES))
        if where == "report":
            report = value
        elif where == "matches":
            report["matches"] = value
        elif where == "row":
            rows[k] = value
        else:
            rows[k][key] = value
    return json.dumps(report).encode("ascii")


def parse_output(command: str, argv: list[str], outputs: list[str],
                 stdout: bytes) -> None:
    """Parse what ``argv`` wrote, by the kind of output its command gives:
    to its output files, or to ``stdout`` for ``-o -``."""
    if command == "generate":
        queries, database, truth = outputs
        assert len(load_descriptor_set(queries)) == len(
            load_descriptor_set(database))
        with open(truth, encoding="ascii", newline="") as fh:
            assert next(csv.reader(fh)) == ["query_index", "db_index"]
        return
    if outputs == ["-"]:
        text = stdout.decode("ascii")
    else:
        assert not stdout
        with open(outputs[0], "rb") as fh:
            text = fh.read().decode("ascii")
    if command in ("compare", "reports") or "--json" in argv or (
            command == "match" and "csv" not in argv):
        json.loads(text, parse_constant=_no_constant)
    elif command == "bench":
        assert {len(line.split()) for line in text.splitlines()} == {5}
    else:
        assert len({len(row) for row in csv.reader(io.StringIO(text))}) == 1


# The summary lines commands print on stderr after their output.
_SUMMARY = re.compile(r"\d+ cycles, |agreement: |max \|error\| ")


class TestArgvFuzz:
    """A command with one option's value replaced, or a compare of two saved
    reports one of which is mutated, writing to a file or to stdout, ends in
    one of three ways: exit 0 with output that parses, exit 1 with one
    categorized error line, no summary line and no output, or argparse's
    exit 2 with no output.  Any other exception fails the test."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_output_or_one_error_line_or_usage(self, argv_inputs, tmp_path,
                                               capsysbinary, monkeypatch,
                                               data):
        work = tmp_path / "work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        monkeypatch.chdir(work)  # a value taken as a relative path lands here
        command = data.draw(st.sampled_from(list(_COMMANDS)))
        name, groups = _COMMANDS[command]
        paths = {**argv_inputs, "out": work / "out", "gen": work / "gen"}
        if command != "generate" and data.draw(st.booleans()):
            paths["out"] = "-"
        mutate_report = command == "reports" and data.draw(st.booleans())
        if mutate_report:
            side = data.draw(st.sampled_from("ab"))
            paths[side] = work / f"{side}.json"
            paths[side].write_bytes(mutated_report(
                data, argv_inputs[side].read_bytes()))
        groups = [[value.format_map(paths) for value in group]
                  for group in groups]
        if not mutate_report:
            group = data.draw(st.sampled_from(
                [group for group in groups if len(group) > 1]))
            at = data.draw(st.integers(1, len(group) - 1))
            group[at] = data.draw(self.values(group[0], command, work,
                                              argv_inputs))
        argv = [name] + [value for group in groups for value in group]
        prefix = argv[argv.index("-o") + 1]
        outputs = [prefix]
        if command == "generate":
            ext = {"text": ".siftd"}.get(argv[argv.index("--format") + 1],
                                         ".siftdb")
            outputs = [f"{prefix}_a{ext}", f"{prefix}_b{ext}",
                       f"{prefix}_truth.csv"]
        capsysbinary.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert not capsysbinary.readouterr().out, argv
            assert not any(map(os.path.isfile, outputs)), argv
            return
        # No temporary file is left beside an output, whatever the exit.
        assert {path.name for path in work.iterdir()} <= {
            "a.json", "b.json", *map(os.path.basename, outputs)}, argv
        out, err = capsysbinary.readouterr()
        if code == 0:
            parse_output(command, argv, outputs, out)
            return
        assert code == 1, argv
        assert not out, argv
        err = err.decode().splitlines()
        errors = [line for line in err if line.startswith("siftmatch:")]
        assert len(errors) == 1 and err[-1] == errors[0], err
        assert re.match(r"siftmatch: error: (io|format|domain): ", errors[0])
        assert not any(map(_SUMMARY.match, err)), err
        assert not any(map(os.path.isfile, outputs)), argv

    @staticmethod
    def values(option: str, command: str, work: Path, inputs: dict):
        """What may replace a value of ``option``."""
        if option in ("-m", "--db-size"):
            return _COUNT.map(str)
        if option == "--sizes":
            return st.lists(_COUNT.map(str), max_size=3).map(
                ",".join)
        if option == "-o":  # never a path outside ``work``
            places = [work / "out", work / "missing" / "out"]
            return st.sampled_from([str(place) for place in places + (
                [] if command == "generate" else [work])])
        if option in ("-q", "-d", "--reports"):
            return st.sampled_from([str(path) for path in inputs.values()])
        return _VALUES
