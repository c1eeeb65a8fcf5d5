"""Command-line surface: generate, match, compare, roofline, characterize, bench.

Exit codes: 0 on success, 2 for usage errors (argparse), 1 otherwise with a
machine-parseable ``siftmatch: error: <category>: <message>`` line on stderr
(categories: io, format, domain).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .cordic import DEFAULT_CONFIG, arccos_raw_batch
from .descriptors import (
    DescriptorFormatError,
    generate_synthetic,
    load_descriptor_set,
    save_descriptor_set,
)
from .fixedpoint import UQ1_15, UQ2_14
from .perf import RooflineConfig, roofline_sweep, write_roofline_csv
from .pipeline import (
    PipelineConfig,
    predict_cycles,
    run_pipeline,
    write_matches_csv,
)
from .reference import match_all

_DEFAULT_BENCH_SIZES = (579, 638, 882, 1021)


class ReportFormatError(ValueError):
    """Raised for a saved match report that is not a JSON match report."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _non_negative(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad int list {text!r}") from None


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii", newline=""), True


def _write_out(path: str | None, writer) -> None:
    fh, close = _open_out(path)
    try:
        writer(fh)
    finally:
        if close:
            fh.close()


def _write_json(path: str | None, obj) -> None:
    _write_out(path, lambda fh: json.dump(obj, fh, indent=2, allow_nan=False))


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        block_size=args.block_size,
        clock_hz=args.clock_hz,
        threshold_mode=args.threshold_mode,
    )


def cmd_generate(args) -> int:
    queries, db, truth = generate_synthetic(
        args.count, args.seed, args.match_fraction, args.noise)
    ext = ".siftd" if args.format == "text" else ".siftdb"
    q_path = f"{args.output_prefix}_a{ext}"
    d_path = f"{args.output_prefix}_b{ext}"
    t_path = f"{args.output_prefix}_truth.csv"
    save_descriptor_set(queries, q_path, args.format)
    save_descriptor_set(db, d_path, args.format)
    with open(t_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_index", "db_index"])
        writer.writerows(truth)
    print(f"wrote {q_path} ({len(queries)} descriptors), {d_path} "
          f"({len(db)} descriptors), {t_path} ({len(truth)} planted pairs)")
    return 0


def cmd_match(args) -> int:
    queries = load_descriptor_set(args.queries)
    db = load_descriptor_set(args.database)
    report = {
        "engine": args.engine,
        "queries": args.queries,
        "database": args.database,
        "num_queries": len(queries),
        "num_database": len(db),
    }
    if args.engine == "reference":
        matches = match_all(queries, db, args.threshold)
        report["threshold"] = args.threshold
    else:
        cfg = _pipeline_config(args)
        run = run_pipeline(queries, db, cfg)
        matches = run.matches
        report.update({
            "threshold_mode": cfg.threshold_mode,
            "block_size": cfg.block_size,
            "clock_hz": cfg.clock_hz,
            "total_cycles": run.total_cycles,
            "elapsed_seconds_at_clock": run.elapsed_seconds_at_clock,
            "blocks_processed": run.blocks_processed,
            "dot_products_executed": run.dot_products_executed,
        })
        print(f"{run.total_cycles} cycles, "
              f"{run.elapsed_seconds_at_clock * 1e3:.4f} ms at "
              f"{cfg.clock_hz / 1e6:.0f} MHz", file=sys.stderr)

    if args.format == "csv":
        _write_out(args.output, lambda fh: write_matches_csv(matches, fh))
    else:
        report["matches"] = [vars(m) for m in matches]
        _write_json(args.output, report)
    return 0


def _agreement(ref_matches, pipe_matches, threshold: float) -> dict:
    disagreements = []
    for ref, pipe in zip(ref_matches, pipe_matches):
        if ref.matched == pipe.matched:
            continue
        # Both angles are 0 when the second is: the ratio is undefined.
        ratio = (ref.min_angle / ref.second_min_angle
                 if ref.second_min_angle > 0 else None)
        disagreements.append({
            "query_index": ref.query_index,
            "reference_matched": ref.matched,
            "pipeline_matched": pipe.matched,
            "ratio": ratio,
            "ratio_margin": None if ratio is None else ratio - threshold,
        })
    total = len(ref_matches)
    agreeing = total - len(disagreements)
    return {
        "num_queries": total,
        "agreements": agreeing,
        "agreement_fraction": agreeing / total if total else 1.0,
        "threshold": threshold,
        "disagreements": disagreements,
    }


def _report_matches(path: str) -> list[dict]:
    """The ``matches`` rows of a saved ``siftmatch match`` JSON report."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ReportFormatError(f"{path}: not a JSON report: {exc}") from None
    rows = report.get("matches") if isinstance(report, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and "query_index" in row and "matched" in row
            for row in rows):
        raise ReportFormatError(f"{path}: no \"matches\" list of match rows")
    return rows


def cmd_compare(args) -> int:
    if args.reports:
        path_a, path_b = args.reports
        a, b = _report_matches(path_a), _report_matches(path_b)
        if len(a) != len(b):
            raise ValueError(
                f"mismatched query counts: {len(a)} vs {len(b)}")
        disagreements = [
            {"query_index": ma["query_index"],
             "a_matched": ma["matched"], "b_matched": mb["matched"]}
            for ma, mb in zip(a, b) if ma["matched"] != mb["matched"]
        ]
        result = {
            "num_queries": len(a),
            "agreements": len(a) - len(disagreements),
            "agreement_fraction": (len(a) - len(disagreements)) / len(a) if a else 1.0,
            "disagreements": disagreements,
        }
    else:
        if not (args.queries and args.database):
            raise ValueError("compare needs --queries/--database or --reports")
        queries = load_descriptor_set(args.queries)
        db = load_descriptor_set(args.database)
        ref = match_all(queries, db, args.threshold)
        pipe = run_pipeline(queries, db, _pipeline_config(args))
        result = _agreement(ref, pipe.matches, args.threshold)
    _write_json(args.output, result)
    print(f"agreement: {result['agreement_fraction']:.4%} "
          f"({result['agreements']}/{result['num_queries']})", file=sys.stderr)
    return 0


def cmd_roofline(args) -> int:
    if not args.bandwidths:
        raise ValueError("empty bandwidth list")
    cfg = RooflineConfig(clock_hz=args.clock_hz,
                         descriptor_bytes=args.descriptor_bytes)
    points = roofline_sweep(cfg, args.bandwidths)
    _write_out(args.output, lambda fh: write_roofline_csv(points, fh))
    return 0


def cmd_characterize(args) -> int:
    raws = np.arange((1 << 15) + 1, dtype=np.int64)  # every UQ1.15 x in [0, 1]
    x = raws * UQ1_15.lsb
    approx = arccos_raw_batch(raws, DEFAULT_CONFIG) * UQ2_14.lsb
    exact = np.arccos(x)
    error = approx - exact

    def write(fh):
        fh.write("x,cordic_arccos,float_arccos,error\n")
        for i in range(raws.shape[0]):
            fh.write(f"{float(x[i])!r},{float(approx[i])!r},"
                     f"{float(exact[i])!r},{float(error[i])!r}\n")

    _write_out(args.output, write)
    abs_error = np.abs(error)
    outside = x >= 2.0 ** -8
    print(f"max |error| = {abs_error.max():.3e} rad "
          f"({abs_error.max() / UQ2_14.lsb:.2f} LSB of UQ2.14); "
          f"outside x < 2^-8: {abs_error[outside].max():.3e} rad "
          f"({abs_error[outside].max() / UQ2_14.lsb:.2f} LSB)", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    cfg = PipelineConfig(block_size=args.block_size, clock_hz=args.clock_hz)
    rows = []
    for m in args.sizes:
        cycles = predict_cycles(m, args.db_size, cfg)
        rows.append({
            "m": m,
            "n": args.db_size,
            "blocks": -(-m // cfg.block_size),
            "total_cycles": cycles,
            "elapsed_ms": cycles / cfg.clock_hz * 1e3,
        })
    if args.json:
        _write_json(args.output, rows)
    else:
        def write(fh):
            fh.write(f"{'m':>6} {'n':>6} {'blocks':>7} {'cycles':>12} {'ms':>9}\n")
            for r in rows:
                fh.write(f"{r['m']:>6} {r['n']:>6} {r['blocks']:>7} "
                         f"{r['total_cycles']:>12} {r['elapsed_ms']:>9.4f}\n")
        _write_out(args.output, write)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siftmatch",
        description="SIFT descriptor matching by cosine angle distance: "
                    "float reference and pipelined-accelerator model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic query/database pair")
    p.add_argument("-m", "--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--match-fraction", type=_fraction, default=1.0)
    p.add_argument("--noise", type=_non_negative, default=0.0)
    p.add_argument("-o", "--output-prefix", default="synthetic")
    p.add_argument("--format", choices=["binary", "text"], default="binary")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("match", help="match a query set against a database")
    p.add_argument("-q", "--queries", required=True)
    p.add_argument("-d", "--database", required=True)
    p.add_argument("--engine", choices=["reference", "pipeline"],
                   default="reference")
    p.add_argument("--threshold", type=float, default=0.6,
                   help="ratio threshold (reference engine)")
    p.add_argument("--threshold-mode", choices=["exact_0_6", "binary_10011"],
                   default="exact_0_6", help="pipeline ratio rule")
    p.add_argument("--clock-hz", type=float, default=100e6)
    p.add_argument("--block-size", type=_positive_int, default=33)
    p.add_argument("-o", "--output", default=None, help="default stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("compare",
                       help="agreement between reference and pipeline engines")
    p.add_argument("-q", "--queries")
    p.add_argument("-d", "--database")
    p.add_argument("--reports", nargs=2, metavar=("A", "B"),
                   help="compare two saved match reports instead")
    p.add_argument("--threshold", type=float, default=0.6)
    p.add_argument("--threshold-mode", choices=["exact_0_6", "binary_10011"],
                   default="exact_0_6")
    p.add_argument("--clock-hz", type=float, default=100e6)
    p.add_argument("--block-size", type=_positive_int, default=33)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("roofline", help="bandwidth sweep CSV")
    p.add_argument("--bandwidths", type=_float_list,
                   default=[0.8e9, 1.6e9, 3.2e9, 6.4e9, 12.8e9, 25.6e9, 51.2e9],
                   help="comma-separated bytes/s")
    p.add_argument("--clock-hz", type=float, default=100e6)
    p.add_argument("--descriptor-bytes", type=_positive_int, default=256)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("characterize",
                       help="arccos accuracy sweep CSV over all inputs in [0, 1]")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("bench", help="cycle/time table for given set sizes")
    p.add_argument("--sizes", type=_int_list, default=list(_DEFAULT_BENCH_SIZES))
    p.add_argument("--db-size", type=_positive_int, default=1021)
    p.add_argument("--clock-hz", type=float, default=100e6)
    p.add_argument("--block-size", type=_positive_int, default=33)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DescriptorFormatError, ReportFormatError) as exc:
        print(f"siftmatch: error: format: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"siftmatch: error: io: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"siftmatch: error: domain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
