import json
import math

import numpy as np
import pytest

from siftmatch.cli import _agreement, main
from siftmatch.fixedpoint import UQ2_14
from siftmatch.reference import MatchResult


def run_cli(*args):
    return main(list(args))


def assert_one_error(capsys, category):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"siftmatch: error: {category}:")


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

    def test_report_not_json_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("k,matched\n0,1\n")
        assert run_cli("compare", "--reports", str(bad), str(bad)) == 1
        assert_one_error(capsys, "format")

    def test_undefined_ratio_is_null(self):
        def result(matched):
            return MatchResult(0, matched, 0, 0.0, 0.0, (0, 0), (0, 0))
        out = _agreement([result(False)], [result(True)], 0.6)
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
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_match_clock(self, dataset, tmp_path, capsys, value):
        out = tmp_path / "pipe.json"
        assert run_cli("match", "-q", f"{dataset}_a.siftdb",
                       "-d", f"{dataset}_b.siftdb", "--engine", "pipeline",
                       "--clock-hz", value, "-o", str(out)) == 1
        assert_one_error(capsys, "domain")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("roofline", "--bandwidths", "inf"),
        ("roofline", "--bandwidths", "3.2e9,nan"),
        ("roofline", "--bandwidths", "1e-300"),
        ("roofline", "--clock-hz", "nan"),
        ("bench", "--clock-hz", "inf"),
    ])
    def test_rejected(self, capsys, args):
        assert run_cli(*args) == 1
        assert_one_error(capsys, "domain")


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
