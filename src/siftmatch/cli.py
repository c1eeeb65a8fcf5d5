"""Command-line surface: generate, match, compare, roofline, characterize, bench.

Exit codes: 0 on success, 2 for usage errors (argparse), 1 otherwise with a
machine-parseable ``siftmatch: error: <category>: <message>`` line on stderr
(categories: io, format, domain).  A warning, such as an off-norm input, is
one ``siftmatch: warning: <message>`` line on stderr, or a ``format`` error
when warnings are errors (``python -W error``).  A closed or unwritable
stderr drops these lines; it changes no exit code and no output.

:func:`run` is the process entry point (``python -m siftmatch`` and the
``siftmatch`` script); :func:`main` is the same command for in-process
callers.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import math
import os
import stat
import sys
import warnings
from itertools import chain

import numpy as np

from .cordic import arccos_table
from .descriptors import (
    DescriptorFormatError,
    descriptor_file,
    generate_synthetic,
    load_descriptor_set,
)
from .fixedpoint import UQ1_15, UQ2_14
from .pipeline import (
    THRESHOLD_MODES,
    PipelineConfig,
    modeled_run,
    roofline_csv,
    roofline_sweep,
    run_pipeline,
)
from .reference import DEFAULT_THRESHOLD, match_all
from .rowtext import MatchReport, ReportFormatError, RowText, report_columns

_DEFAULT_BENCH_SIZES = (579, 638, 882, 1021)


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
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {value}")
    return value


def _list_of(kind):
    """An argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {kind.__name__} list {text!r}") from None
    return parse


@contextlib.contextmanager
def _output(path: str | None):
    """A ``writelines`` of byte pieces to the file ``path``, or to stdout
    for ``None`` and ``-``, for the ``with`` block.

    A regular file is staged: the block writes a temporary file in the
    target's directory, which replaces the target when the block ends and
    is removed when it raises, so a failed command leaves no output file.
    Each write to it is flushed, so a write error fails the block before
    the staged file of an inner block replaces its target.
    The temporary file is made with the mode that ``open(path, "wb")``
    gives the target: an existing target's, else 0o666 less the umask.
    A symlink is followed, so the file it names is replaced.  Other
    targets (a FIFO, ``/dev/null``) are written directly, and stdout is
    flushed when the block ends, so a write error surfaces in it.  A closed
    stdout (``sys.stdout`` is ``None``) raises ``OSError`` before the block.
    """
    if path is None or path == "-":
        if sys.stdout is None:
            raise OSError(errno.EBADF, "stdout is closed")
        yield sys.stdout.buffer.writelines
        sys.stdout.buffer.flush()
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    # A path that names no file ("", "dir/") is left to open() to refuse.
    if not os.path.basename(path) or (mode is not None
                                      and not stat.S_ISREG(mode)):
        with open(path, "wb") as fh:
            yield fh.writelines
        return
    target = os.path.realpath(path)  # through a symlink, as open() writes
    while True:
        temp = os.path.join(os.path.dirname(target),
                            f".siftmatch-{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # named by the target, not the temporary
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            def write(pieces):
                fh.writelines(pieces)
                fh.flush()
            yield write
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _note(line: str) -> None:
    """Print ``line`` on stderr, or drop it when stderr is closed
    (``sys.stderr`` is ``None``, where ``print`` would write to stdout) or
    its write raises ``OSError``: a lost diagnostic must neither fail a
    command nor land in its output."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def _json(obj) -> bytes:
    """``obj`` as the JSON text of a report, encoded whole before the one
    write, so an unencodable value writes nothing."""
    return json.dumps(obj, indent=2, allow_nan=False).encode("ascii")


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        block_size=args.block_size,
        clock_hz=args.clock_hz,
        threshold_mode=args.threshold_mode,
    )


def cmd_generate(args) -> int:
    ext = ".siftd" if args.format == "text" else ".siftdb"
    q_path, d_path, t_path = (f"{args.output_prefix}{end}" for end in
                              (f"_a{ext}", f"_b{ext}", "_truth.csv"))
    # Opened before the work; stdout innermost, flushed before any rename.
    with _output(q_path) as write_q, _output(d_path) as write_d, \
            _output(t_path) as write_t, _output(None) as say:
        queries, db, truth = generate_synthetic(
            args.count, args.seed, args.match_fraction, args.noise)
        write_q(descriptor_file(queries, q_path))
        write_d(descriptor_file(db, d_path))
        index = np.array(truth, dtype=np.int64).reshape(-1, 2)
        rows = RowText([index[:, 0], ",", index[:, 1], "\r\n"])  # csv.writer's
        write_t(chain([b"query_index,db_index\r\n"], rows.pieces(len(index))))
        # Paths as the bytes the file system was given.
        say([os.fsencode(f"wrote {q_path} ({len(queries)} descriptors), "
                         f"{d_path} ({len(db)} descriptors), {t_path} "
                         f"({len(truth)} planted pairs)\n")])
    return 0


def cmd_match(args) -> int:
    # Opened first: an unwritable output fails before any load or search.
    with _output(args.output) as write:
        queries = load_descriptor_set(args.queries)
        db = load_descriptor_set(args.database)
        header = {
            "engine": args.engine,
            "queries": args.queries,
            "database": args.database,
            "num_queries": len(queries),
            "num_database": len(db),
        }
        if args.engine == "reference":
            header["threshold"] = args.threshold
        else:
            cfg = _pipeline_config(args)
            run = modeled_run(len(queries), len(db), cfg)
            header.update(threshold_mode=cfg.threshold_mode,
                          block_size=cfg.block_size, clock_hz=cfg.clock_hz,
                          total_cycles=run.total_cycles,
                          elapsed_seconds_at_clock=run.elapsed_seconds_at_clock,
                          blocks_processed=run.blocks_processed,
                          dot_products_executed=run.dot_products_executed)
        report = MatchReport(None if args.format == "csv" else header)

        def emit(start, matches):  # each band written as the engine has it
            write(report.band(start, matches))

        if args.engine == "reference":
            match_all(queries, db, args.threshold, emit)
        else:
            run_pipeline(queries, db, cfg, emit)
        write(report.end())
    if args.engine == "pipeline":  # after the report: a failed write is one line
        _note(f"{run.total_cycles} cycles, "
              f"{run.elapsed_seconds_at_clock * 1e3:.4f} ms at "
              f"{cfg.clock_hz / 1e6:g} MHz")
    return 0


def _agreement(a: np.ndarray, b: np.ndarray, columns: dict, **header) -> dict:
    """Agreement of two ``matched`` columns, one flag per query.

    Each query on which they differ becomes one ``disagreements`` row: the
    values of ``columns`` (report key -> column) at that query, a masked
    value as null.  ``header`` goes before the rows.
    """
    differ = np.flatnonzero(a != b)
    values = [column[differ].tolist() for column in columns.values()]
    total = len(a)
    agreeing = total - len(differ)
    return {
        "num_queries": total,
        "agreements": agreeing,
        "agreement_fraction": agreeing / total if total else 1.0,
        **header,
        "disagreements": [dict(zip(columns, row)) for row in zip(*values)],
    }


def cmd_compare(args) -> int:
    if not (args.reports or args.queries and args.database):
        raise ValueError("compare needs --queries/--database or --reports")
    # Opened first: an unwritable output fails before any load or search.
    with _output(args.output) as write:
        result = _comparison(args)
        write([_json(result)])
    _note(f"agreement: {result['agreement_fraction']:.4%} "
          f"({result['agreements']}/{result['num_queries']})")
    return 0


def _comparison(args) -> dict:
    """What ``compare`` reports: two saved reports', or the two engines'
    agreement."""
    if args.reports:
        (index, a), (index_b, b) = map(report_columns, args.reports)
        if len(a) != len(b):
            raise ValueError(
                f"mismatched query counts: {len(a)} vs {len(b)}")
        # Rows are paired by position, so both must list the same queries.
        differ = np.flatnonzero(index != index_b)
        if len(differ):
            k = differ[0]
            raise ValueError(f"reports differ in query_index at row {k}: "
                             f"{index[k]} vs {index_b[k]}")
        return _agreement(a, b, {"query_index": index, "a_matched": a,
                                 "b_matched": b})
    queries = load_descriptor_set(args.queries)
    db = load_descriptor_set(args.database)
    ref = match_all(queries, db, args.threshold)
    pipe = run_pipeline(queries, db, _pipeline_config(args)).matches
    # Both angles are 0 when the second is: the ratio is undefined, and
    # masked (0 <= min <= second, so only 0/0 meets np.ma's domain).
    ratio = np.ma.divide(ref.min_angle, ref.second_min_angle)
    return _agreement(ref.matched, pipe.matched, {
        "query_index": np.arange(len(ref)),
        "reference_matched": ref.matched,
        "pipeline_matched": pipe.matched,
        "ratio": ratio,
        "ratio_margin": ratio - args.threshold,
    }, threshold=args.threshold)


def cmd_roofline(args) -> int:
    with _output(args.output) as write:
        cfg = PipelineConfig(clock_hz=args.clock_hz,
                             descriptor_bytes=args.descriptor_bytes)
        write([roofline_csv(roofline_sweep(cfg, args.bandwidths))])
    return 0


def cmd_characterize(args) -> int:
    with _output(args.output) as write:
        one = 1 << UQ1_15.fraction_bits
        x = np.arange(one + 1) * UQ1_15.lsb  # every UQ1.15 x in [0, 1]
        approx = arccos_table()[:one + 1] * UQ2_14.lsb
        exact = np.arccos(x)
        error = approx - exact
        rows = RowText([x, ",", approx, ",", exact, ",", error, "\n"])
        write(chain([b"x,cordic_arccos,float_arccos,error\n"],
                    rows.pieces(len(x))))
    abs_error = np.abs(error)
    outside = x >= 2.0 ** -8
    _note(f"max |error| = {abs_error.max():.3e} rad "
          f"({abs_error.max() / UQ2_14.lsb:.2f} LSB of UQ2.14); "
          f"outside x < 2^-8: {abs_error[outside].max():.3e} rad "
          f"({abs_error[outside].max() / UQ2_14.lsb:.2f} LSB)")
    return 0


def cmd_bench(args) -> int:
    if not args.sizes:
        raise ValueError("size list must be non-empty")
    with _output(args.output) as write:
        cfg = PipelineConfig(block_size=args.block_size,
                             clock_hz=args.clock_hz)
        rows = []
        for m in args.sizes:
            run = modeled_run(m, args.db_size, cfg)
            rows.append({
                "m": m,
                "n": args.db_size,
                "blocks": run.blocks_processed,
                "total_cycles": run.total_cycles,
                "elapsed_ms": run.elapsed_seconds_at_clock * 1e3,
            })
        if args.json:
            write([_json(rows)])
        else:
            lines = [f"{'m':>6} {'n':>6} {'blocks':>7} {'cycles':>12} "
                     f"{'ms':>9}\n"]
            lines += [f"{r['m']:>6} {r['n']:>6} {r['blocks']:>7} "
                      f"{r['total_cycles']:>12} {r['elapsed_ms']:>9.4f}\n"
                      for r in rows]
            write(["".join(lines).encode("ascii")])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siftmatch",
        description="SIFT descriptor matching by cosine angle distance: "
                    "float reference and pipelined-accelerator model.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several commands, with the configs' defaults.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", help="default stdout")
    clock = argparse.ArgumentParser(add_help=False, parents=[output])
    clock.add_argument("--clock-hz", type=float,
                       default=PipelineConfig.clock_hz)
    timing = argparse.ArgumentParser(add_help=False, parents=[clock])
    timing.add_argument("--block-size", type=_positive_int,
                        default=PipelineConfig.block_size)
    engines = argparse.ArgumentParser(add_help=False, parents=[timing])
    engines.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                         help="ratio threshold (reference engine)")
    engines.add_argument("--threshold-mode", choices=THRESHOLD_MODES,
                         default=PipelineConfig.threshold_mode,
                         help="pipeline ratio rule")

    p = sub.add_parser("generate", help="write a synthetic query/database pair")
    p.add_argument("-m", "--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--match-fraction", type=_fraction, default=1.0)
    p.add_argument("--noise", type=_non_negative, default=0.0)
    p.add_argument("-o", "--output-prefix", default="synthetic")
    p.add_argument("--format", choices=["binary", "text"], default="binary")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("match", parents=[engines],
                       help="match a query set against a database")
    p.add_argument("-q", "--queries", required=True)
    p.add_argument("-d", "--database", required=True)
    p.add_argument("--engine", choices=["reference", "pipeline"],
                   default="reference")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("compare", parents=[engines],
                       help="agreement between reference and pipeline engines")
    p.add_argument("-q", "--queries")
    p.add_argument("-d", "--database")
    p.add_argument("--reports", nargs=2, metavar=("A", "B"),
                   help="compare two saved match reports instead")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("roofline", parents=[clock], help="bandwidth sweep CSV")
    p.add_argument("--bandwidths", type=_list_of(float),
                   default=[0.8e9, 1.6e9, 3.2e9, 6.4e9, 12.8e9, 25.6e9, 51.2e9],
                   help="comma-separated bytes/s")
    p.add_argument("--descriptor-bytes", type=_positive_int,
                   default=PipelineConfig.descriptor_bytes)
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("characterize", parents=[output],
                       help="arccos accuracy sweep CSV over all inputs in [0, 1]")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("bench", parents=[timing],
                       help="cycle/time table for given set sizes")
    p.add_argument("--sizes", type=_list_of(int), default=list(_DEFAULT_BENCH_SIZES))
    p.add_argument("--db-size", type=_positive_int, default=1021)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # restores showwarning on exit
            warnings.showwarning = lambda message, *_: _note(
                f"siftmatch: warning: {message}")
            return args.func(args)
    except (DescriptorFormatError, ReportFormatError, Warning) as exc:
        # A Warning is raised only where warnings are errors (-W error).
        _note(f"siftmatch: error: format: {exc}")
        return 1
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            sys.stdout = None  # what it still holds would fail again at exit
        _note(f"siftmatch: error: io: {exc}")
        return 1
    except (ValueError, MemoryError) as exc:  # MemoryError: too large a size
        _note(f"siftmatch: error: domain: {exc}")
        return 1


def run() -> int:
    """Run the command line of this process: :func:`main` on ``sys.argv``,
    after a ``gc.freeze()``.

    This module's imports have run by now, and the objects they made
    (about 22k, mostly numpy's) live until the process exits anyway.
    Freezing moves them to a generation the collector never walks, so the
    collections at interpreter shutdown no longer traverse them; that walk
    was most of a process's teardown (README, "Cost of one process").
    Refcounting still frees every acyclic object, objects the command
    creates stay collectable, and no output byte depends on the collector.

    In-process callers (tests, library code) call :func:`main`, which never
    freezes: a freeze there would hide their cyclic garbage from the
    collector for the rest of their process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
