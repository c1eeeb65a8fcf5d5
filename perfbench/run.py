"""Host-time benchmark of ``siftmatch match``, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline_square --seed 1 \
        --seconds 35 --trace 0

The benchmark generates its inputs from ``--seed``, then runs
``siftmatch match`` as a child process in a closed loop with one client:
the next child starts only after the previous one has exited. Each child is
gated against an oracle; a child that fails the gate counts as failed and
its timing is dropped. It prints every metric on its own line, labelled
``host`` (what Python takes on this machine), ``modeled`` (what the
modelled FPGA core would take, ``total_cycles / clock_hz``), ``verdict``,
``derived``, ``count`` or ``computed``, and ends with one JSON line.

``--trace 0`` reports the end-to-end metrics from untraced children.
``--trace 1`` alternates untraced children with traced ones
(``traced_child.py``) and reports per-layer metrics. The two are never
mixed: no end-to-end number comes from a traced child.

This is not ``siftmatch bench``, which prints modeled time only.
Results, spans and machine facts go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from children import Launcher, gate_match, load_strict_json
from metrics import failed_fraction, median_of, traced_layers, verdict_fractions

# numpy, siftmatch and oracle.py (which imports both) are imported inside
# the functions that use them: only after main() has checked that src/
# holds the sources, and after the launcher has started (see children.py).

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MATCH_FRACTION = 0.5
NOISE = 0.02
MIN_ROUNDS = 3
# Stop starting children after this long, so that even with a child that
# hangs until its timeout the run ends inside three minutes.
HARD_STOP_S = 100.0


@dataclass(frozen=True)
class Workload:
    engine: str
    m: int              # queries
    n: int              # database rows used (first n of the generated set)
    oracle_queries: int  # size of the seeded oracle sample


# Why each workload was chosen is in BENCHMARK.json. ROADMAP's 16000^2
# pipeline and 4000^2 reference runs are left out: one child would take
# most of a run. Claims at those sizes need a separate one-off measurement.
WORKLOADS = {
    "pipeline_square": Workload("pipeline", 4000, 4000, 8),
    "reference_square": Workload("reference", 2000, 2000, 16),
    "many_queries": Workload("pipeline", 40000, 64, 64),
}

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "siftmatch" / "__init__.py").is_file():
        print(f"perfbench: error: no siftmatch sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    with Launcher() as launcher:
        bench = Bench(WORKLOADS[args.workload], args.workload, args.seed,
                      args.trace, launcher)
        try:
            result = bench.run(args.seconds)
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result, allow_nan=False))
    return 0


class Bench:
    """One benchmark run: inputs, oracle, child loop and reporting."""

    def __init__(self, workload: Workload, name: str, seed: int, trace: int,
                 launcher):
        import numpy as np
        import oracle
        from siftmatch.descriptors import generate_synthetic
        from siftmatch.pipeline import PipelineConfig
        from siftmatch.reference import DEFAULT_THRESHOLD

        self.workload, self.name, self.seed, self.trace = workload, name, seed, trace
        self.launcher = launcher
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.declared = json.load(fh)
        self.cfg = PipelineConfig()
        self.threads = len(os.sched_getaffinity(0))
        tag = f"{name}-seed{seed}-trace{trace}"
        self.work = OUT / "work" / tag
        self.results_path = OUT / "results" / f"{tag}.json"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.results_path.parent.mkdir(parents=True, exist_ok=True)

        w = workload
        queries, db, truth = generate_synthetic(w.m, seed, MATCH_FRACTION, NOISE)
        self.truth = [(k, j) for k, j in truth if j < w.n]
        self.query_path = self.work / "queries.siftdb"
        self.db_path = self.work / "database.siftdb"
        _save_rows(queries, len(queries), self.query_path)
        _save_rows(db, w.n, self.db_path)

        sample = oracle.sample_queries(np.random.default_rng(seed),
                                       len(self.truth), w.m, w.oracle_queries)
        if w.engine == "pipeline":
            self.expected = oracle.pipeline_oracle(
                self.query_path, self.db_path, sample, self.cfg.threshold_mode)
        else:
            self.expected = oracle.reference_oracle(
                self.query_path, self.db_path, sample, DEFAULT_THRESHOLD)
        self.verdicts = None    # (planted_recall, false_match_fraction)
        self.model = None       # modeled counts of the first good report
        self.runs = []          # (kind, ChildRun)
        self.spans = []

    # -- child commands ---------------------------------------------------

    def env(self) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
            env[var] = str(self.threads)
        return env

    def match_args(self, output) -> list[str]:
        return ["match", "-q", str(self.query_path), "-d", str(self.db_path),
                "--engine", self.workload.engine, "-o", str(output)]

    def setup_child(self, kind: str = "setup"):
        run = self.launcher.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            self.env(), self.work / "setup.err")
        self.runs.append((kind, run))
        return run

    def match_child(self):
        out = self.work / "report.json"
        out.unlink(missing_ok=True)
        run = self.launcher.run(
            [sys.executable, "-m", "siftmatch", *self.match_args(out)],
            self.env(), self.work / "match.err")
        run = gate_match(run, out, self.check)
        self.runs.append(("match", run))
        return run

    def traced_child(self):
        out = self.work / "report.json"
        trace_path = self.work / "trace.json"
        out.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        run = self.launcher.run(
            [sys.executable, str(HERE / "traced_child.py"), str(trace_path),
             *self.match_args(out)],
            self.env(), self.work / "traced.err")
        run = gate_match(run, out, self.check)
        layers = None
        if run.ok:
            try:
                trace = load_strict_json(trace_path)
                layers = traced_layers(trace["spans"])
                layers["dot_bytes"] = int(trace["dot_bytes"])
                layers["output_bytes"] = out.stat().st_size
                self.spans.append({"child": len(self.runs), **trace})
            except (OSError, ValueError, KeyError) as exc:
                run.failure = f"bad spans: {exc}"
        self.runs.append(("traced", run))
        return run, layers

    def check(self, report: dict) -> list[str]:
        """Correctness gate for one match report."""
        from oracle import disagreements
        from siftmatch.pipeline import predict_cycles

        w = self.workload
        rows = report.get("matches")
        if not isinstance(rows, list) or len(rows) != w.m:
            return [f"expected {w.m} match rows"]
        if any(row.get("query_index") != k for k, row in enumerate(rows)):
            return ["match rows out of query order"]
        problems = []
        if w.engine == "pipeline":
            want = predict_cycles(w.m, w.n, self.cfg)
            if report.get("total_cycles") != want:
                problems.append(f"total_cycles {report.get('total_cycles')} "
                                f"!= predict_cycles {want}")
        problems += disagreements(rows, self.expected)
        verdicts = verdict_fractions(rows, self.truth, w.m)
        if self.verdicts is None and not problems:
            self.verdicts = verdicts
            self.model = {k: report.get(k) for k in (
                "total_cycles", "blocks_processed", "elapsed_seconds_at_clock")}
        elif self.verdicts is not None and verdicts != self.verdicts:
            problems.append(f"verdicts {verdicts} differ from first run "
                            f"{self.verdicts}")
        return problems

    # -- the two kinds of run ---------------------------------------------

    def run(self, seconds: float):
        started = time.perf_counter()
        self.setup_child("warmup")  # compiles bytecode, fills the file cache
        deadline = started + seconds
        rounds = 0
        layers = []
        while True:
            if self.trace:
                self.match_child()
                _, layer = self.traced_child()
                if layer is not None:
                    layers.append(layer)
            else:
                self.setup_child()
                self.match_child()
            rounds += 1
            now = time.perf_counter()
            if now - started > HARD_STOP_S or (
                    now >= deadline and rounds >= MIN_ROUNDS):
                break
        measured = time.perf_counter() - started
        try:
            return self.report(layers, measured)
        except ValueError as exc:  # no good sample for some metric
            print(f"perfbench: error: {exc}", file=sys.stderr)
            for kind, run in self.runs:
                if not run.ok:
                    print(f"failed {kind} child: {run.failure}", file=sys.stderr)
            self.write_results({}, measured)
            return None

    def good(self, kind: str):
        return [r for k, r in self.runs if k == kind and r.ok]

    def report(self, layers: list[dict], measured: float) -> dict:
        w = self.workload
        attempted = len(self.runs)
        failed = sum(not r.ok for _, r in self.runs)
        if self.verdicts is None:
            raise ValueError("no run passed the correctness gate")
        recall, false_match = self.verdicts
        wall = median_of(r.wall_s for r in self.good("match"))
        lines = {}  # name -> (value, unit, label, samples, note)

        def put(name, value, unit, label, samples=None, note=""):
            lines[name] = (value, unit, label, samples, note)

        if self.trace == 0:
            put("wall_s", wall.value, "s", "host", wall.count,
                "one siftmatch match process: load, match, serialize")
            put("pairs_per_s", w.m * w.n / wall.value, "1/s", "host",
                wall.count, f"m*n / wall_s at m={w.m}, n={w.n}")
            rss = median_of(r.peak_rss_mb for r in self.good("match"))
            put("peak_rss_mb", rss.value, "MB", "host", rss.count,
                "child ru_maxrss")
            setup = median_of(r.wall_s for r in self.good("setup"))
            put("setup_s", setup.value, "s", "host", setup.count,
                "interpreter start + import siftmatch + cold arccos_table()")
            put("planted_recall", recall, "fraction", "verdict", None,
                f"{len(self.truth)} planted pairs")
            put("false_match_fraction", false_match, "fraction", "verdict",
                None, f"{w.m - len(self.truth)} non-planted queries")
            put("failed_fraction", failed_fraction(attempted, failed),
                "fraction", "host", None, f"{failed} of {attempted} children")
            if w.engine == "pipeline":
                put("modeled_s", self.model["elapsed_seconds_at_clock"], "s",
                    "modeled", None,
                    f"total_cycles / clock_hz at {self.cfg.clock_hz:g} Hz")
        else:
            self.put_layers(put, layers, wall)

        self.print_lines(lines)
        self.write_results(lines, measured)
        metrics = {}
        for metric in self.declared["per_layer" if self.trace else "end_to_end"]:
            value, unit = lines[metric["name"]][:2]
            if unit != metric["unit"]:
                raise ValueError(f"{metric['name']}: unit {unit} is declared "
                                 f"as {metric['unit']}")
            metrics[metric["name"]] = {"value": value, "unit": unit}
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def put_layers(self, put, layers: list[dict], wall) -> None:
        from siftmatch.pipeline import predict_cycles

        w = self.workload
        if not layers:
            raise ValueError("no traced run passed the gate")
        med = {key: median_of(layer[key] for layer in layers)
               for key in layers[0]}
        n = len(layers)
        pipe = w.engine == "pipeline"
        put("descriptors.load_s", med["descriptors.load_s"].value, "s", "host",
            n, "load_descriptor_set, both inputs")
        put("descriptors.load_bytes",
            self.query_path.stat().st_size + self.db_path.stat().st_size,
            "bytes", "count", None, "size of both .siftdb inputs")
        put("cordic.table_s", med["cordic.table_s"].value, "s", "host", n,
            "cold arccos_table()" + ("" if pipe else
                                     "; probe, the reference engine never builds it"))
        put("engine.run_s", med["engine.run_s"].value, "s", "host", n,
            "= pipeline.run_s (run_pipeline)" if pipe
            else "= reference.match_s (match_all)")
        put("engine.dot_s", med["engine.dot_s"].value, "s", "host", n,
            ("= pipeline.dot_s (dot_raw_matrix per query block" if pipe
             else "= reference.dot_s (dot_matrix")
            + "; a probe on the same inputs)")
        put("engine.rest_s", med["engine.rest_s"].value, "s", "derived", n,
            ("= pipeline.rest_s: run_s - cordic.table_s - dot_s" if pipe
             else "= reference.rest_s: match_s - dot_s (arccos, _row_result)"))
        put("engine.dot_bytes_computed", med["dot_bytes"].value, "bytes",
            "computed", n, "nbytes of the dot products the probe returned")
        if pipe:
            cycles = self.model["total_cycles"]
            blocks = self.model["blocks_processed"]
            source = "from the report"
        else:
            cycles = predict_cycles(w.m, w.n, self.cfg)
            blocks = -(-w.m // self.cfg.block_size)
            source = "predict_cycles at this size; the reference engine reports none"
        put("pipeline.total_cycles", cycles, "count", "modeled", None, source)
        put("pipeline.blocks", blocks, "count", "modeled", None, source)
        put("pipeline.slot_utilization", w.m / (blocks * self.cfg.block_size),
            "fraction", "modeled", None, "m / (blocks * block_size)")
        put("cli.serialize_s", med["cli.serialize_s"].value, "s", "derived", n,
            "cmd_match self time: payload, json.dump, file write")
        put("cli.output_bytes", med["output_bytes"].value, "bytes", "count", n,
            "JSON report as cmd_match writes it")
        traced_walls = [r.wall_s - layer["probe_s"]
                        for r, layer in zip(self.good("traced"), layers)]
        other = median_of(t - layer["cli.cmd_match_s"]
                          for t, layer in zip(traced_walls, layers))
        put("process.other_s", other.value, "s", "derived", n,
            "traced wall - probes - cmd_match span: start-up, import, "
            "argparse, exit")
        traced = median_of(traced_walls)
        put("trace.overhead_s", traced.value - wall.value, "s", "derived", n,
            "traced wall (probes removed) - untraced wall_s")

    # -- output -----------------------------------------------------------

    def print_lines(self, lines: dict) -> None:
        print(f"# {self.name}: engine={self.workload.engine} m={self.workload.m} "
              f"n={self.workload.n} seed={self.seed} trace={self.trace} "
              f"threads={self.threads}; closed loop, one client")
        for name, (value, unit, label, samples, note) in lines.items():
            count = f"median of {samples}" if samples else ""
            print(f"{name:28} {value:>16.6g} {unit:9} {label:9} {count:14} {note}")
        for kind, run in self.runs:
            if not run.ok:
                print(f"# failed {kind} child: {run.failure}")

    def write_results(self, lines: dict, measured: float) -> None:
        results = {
            "workload": self.name,
            "sizes": {"m": self.workload.m, "n": self.workload.n},
            "engine": self.workload.engine,
            "why": next(w["why"] for w in self.declared["workloads"]
                        if w["name"] == self.name),
            "seed": self.seed,
            "trace": self.trace,
            "measured_s": measured,
            "load_model": "closed loop, one client, one child process at a time",
            "machine": machine_facts(self.threads),
            "metrics": {name: {"value": v, "unit": u, "label": lab,
                               "samples": s, "note": note}
                        for name, (v, u, lab, s, note) in lines.items()},
            "children": [{"kind": kind, "wall_s": r.wall_s,
                          "peak_rss_mb": r.peak_rss_mb, "exit_code": r.exit_code,
                          "failure": r.failure} for kind, r in self.runs],
        }
        with open(self.results_path, "w", encoding="ascii") as fh:
            json.dump(results, fh, indent=1, allow_nan=False)
        if self.spans:
            spans_out = self.results_path.with_suffix(".spans.json")
            with open(spans_out, "w", encoding="ascii") as fh:
                json.dump(self.spans, fh, allow_nan=False)


def _save_rows(set_, rows: int, path: Path) -> None:
    from siftmatch.descriptors import DescriptorSet, save_descriptor_set
    if rows < len(set_):
        set_ = DescriptorSet(set_.image_id, set_.floats[:rows],
                             set_.raws[:rows], set_.xy[:rows])
    save_descriptor_set(set_, str(path))


def machine_facts(threads: int) -> dict:
    """Facts recorded beside every result, so numbers can be compared."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


if __name__ == "__main__":
    raise SystemExit(main())
