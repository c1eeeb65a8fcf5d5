import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import siftmatch
from siftmatch import cli
from siftmatch.cli import _agreement, _pipeline_config, build_parser, main
from siftmatch.cordic import DEFAULT_CONFIG, arccos_raw_batch
from siftmatch.fixedpoint import UQ1_15, UQ2_14
from siftmatch.perf import RooflineConfig
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

    def test_unknown_extension_names_accepted_ones(self, tmp_path, capsys):
        path = str(tmp_path / "set.txt")
        assert run_cli("match", "-q", path, "-d", path) == 1
        assert assert_one_error(capsys, "domain") == (
            f"siftmatch: error: domain: cannot infer format from {path!r}: "
            "expected a .siftd or .siftdb file")


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

    def test_unencodable_json_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--json", "--clock-hz", "1e-310",
                       "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
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
        assert RooflineConfig(clock_hz=args.clock_hz,
                              descriptor_bytes=args.descriptor_bytes) \
            == RooflineConfig()


# A flag and a non-default value for every field of the configs the CLI builds.
PIPELINE_FLAGS = {
    "block_size": ("--block-size", "7", 7),
    "clock_hz": ("--clock-hz", "2e8", 2e8),
    "threshold_mode": ("--threshold-mode", "binary_10011", "binary_10011"),
}
ROOFLINE_FLAGS = {
    "clock_hz": ("--clock-hz", "2e8", 2e8),
    "descriptor_bytes": ("--descriptor-bytes", "260", 260),
}


class TestEveryConfigFieldHasAFlag:
    """No config field is reachable only from code: each one a command
    builds can be set from that command's flags."""

    @pytest.mark.parametrize("command", [("match", "--engine", "pipeline"),
                                         ("compare",)])
    def test_pipeline_config(self, dataset, tmp_path, monkeypatch, command):
        seen, real = [], cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline", lambda q, d, cfg:
                            seen.append(cfg) or real(q, d, cfg))
        for field in dataclasses.fields(PipelineConfig):
            flag, text, value = PIPELINE_FLAGS[field.name]
            assert value != field.default
            assert run_cli(*command, "-q", f"{dataset}_a.siftdb",
                           "-d", f"{dataset}_b.siftdb", flag, text,
                           "-o", str(tmp_path / "out")) == 0
            assert getattr(seen.pop(), field.name) == value

    def test_roofline_config(self, tmp_path, monkeypatch):
        seen, real = [], cli.roofline_sweep
        monkeypatch.setattr(cli, "roofline_sweep", lambda cfg, bandwidths:
                            seen.append(cfg) or real(cfg, bandwidths))
        for field in dataclasses.fields(RooflineConfig):
            flag, text, value = ROOFLINE_FLAGS[field.name]
            assert value != field.default
            assert run_cli("roofline", flag, text,
                           "-o", str(tmp_path / "out")) == 0
            assert getattr(seen.pop(), field.name) == value


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
        approx = arccos_raw_batch(raws, DEFAULT_CONFIG) * UQ2_14.lsb
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
    """``-o -`` writes the bytes that ``-o FILE`` writes, and a closed stdout
    pipe is one error line."""

    @staticmethod
    def argv(command, dataset, tmp_path):
        """``command`` with the inputs or the output prefix it needs."""
        if command[0] == "match":
            return [*command, "-q", f"{dataset}_a.siftdb",
                    "-d", f"{dataset}_b.siftdb"]
        if command[0] == "generate":
            return [*command, "-o", str(tmp_path / "gen")]
        return command

    @pytest.mark.parametrize("command", [
        *(["match", "--engine", engine, "--format", fmt]
          for engine in ("reference", "pipeline") for fmt in ("json", "csv")),
        ["characterize"],
    ], ids=["reference-json", "reference-csv", "pipeline-json", "pipeline-csv",
            "characterize"])
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


_STARTUP = textwrap.dedent("""
    import sys
    import siftmatch.cli
    from siftmatch.cordic import arccos_table
    arccos_table()
    code = siftmatch.cli.main(sys.argv[1:])
    print(code, "mpmath" in sys.modules)
""")


def test_startup_does_not_import_mpmath(dataset, tmp_path):
    """mpmath is a test-only dependency: importing the CLI, building the
    arccos table and running a pipeline match must not load it."""
    src = os.path.dirname(os.path.dirname(siftmatch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP, "match", "--engine", "pipeline",
         "-q", f"{dataset}_a.siftdb", "-d", f"{dataset}_b.siftdb",
         "-o", str(tmp_path / "pipe.json")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "False"]


_MATCH_GROWTH = textwrap.dedent("""
    import resource, sys
    import siftmatch.cli
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = siftmatch.cli.main(sys.argv[1:])
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(code, (after - before) * 1024)  # KiB on Linux
""")

# Scratch of one pipeline match beyond its inputs: the load's norm block,
# the table build's slices, one search tile and one report piece.  Measured
# 3.96 MiB at 1000-4000 rows; fresh tiles per tile and the kernels run on
# all 32769 table inputs at once made it 6.0-7.2 MiB.
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


def mutated(data, blob: bytes, ext: str) -> bytes:
    """``blob`` truncated, with bytes overwritten or inserted, with another
    header count, with one field or word replaced, or with a zero row."""
    kind = data.draw(st.sampled_from(
        ["truncate", "overwrite", "insert", "count", "field", "zero"]))
    if kind in ("truncate", "overwrite", "insert"):
        at = data.draw(st.integers(0, len(blob)))
        some = b"" if kind == "truncate" else data.draw(
            st.binary(min_size=1, max_size=8))
        end = at + len(some) if kind == "overwrite" else at
        return blob[:at] + some + (blob[end:] if kind != "truncate" else b"")
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
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*not unit-norm", UserWarning)
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
