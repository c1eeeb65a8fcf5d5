"""Run one ``siftmatch match`` command with spans around its layer calls.

Usage: ``python3 traced_child.py TRACE_JSON match -q Q -d D --engine E -o OUT``

The command runs through ``siftmatch.cli.main`` exactly as the installed
entry point would. Before that, the public functions the command calls are
replaced, in the namespaces that call them, by wrappers that record a span
(name, id, parent, start, end) per call. Spans stay in memory and are
written to TRACE_JSON, as ``{"spans": [...], "dot_bytes": N}``, when the
command has finished.

After the command, two probes run on the loaded inputs. They are marked
``probe`` so ``run.py`` can subtract them from this process's wall time:

* ``engine.dot``: the engine's dot-product helper on the same inputs, at
  the granularity the engine itself uses: ``dot_raw_matrix`` once per
  query block of ``block_size`` rows, as ``run_pipeline`` streams them, or
  ``dot_matrix`` once over all queries, as ``match_all`` calls it.
  ``dot_bytes`` is the total size of the arrays the helper returned;
* ``cordic.table``: a cold ``arccos_table()``, only when the command never
  built the table itself (the reference engine does not use it).
"""

from __future__ import annotations

import json
import sys
import time

_T0 = time.perf_counter()

import siftmatch.cli as cli  # noqa: E402
import siftmatch.cordic as cordic  # noqa: E402
import siftmatch.pipeline as pipeline  # noqa: E402
import siftmatch.reference as reference  # noqa: E402
from siftmatch.descriptors import DescriptorSet  # noqa: E402


class Tracer:
    """In-memory span recorder; the innermost open span is the parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def record(self, name: str, fn, *args, probe: bool = False, **kwargs):
        span = {"id": len(self.spans), "name": name, "probe": probe,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, on_return=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.record(name, original, *args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        setattr(module, attr, traced)


def _dot_probe(engine: str, queries: DescriptorSet, db: DescriptorSet) -> int:
    if engine == "reference":
        return reference.dot_matrix(queries.floats, db.floats).nbytes
    rows = pipeline.PipelineConfig().block_size
    total = 0
    for start in range(0, len(queries), rows):
        stop = start + rows
        total += pipeline.dot_raw_matrix(
            DescriptorSet(queries.image_id, queries.floats[start:stop],
                          queries.raws[start:stop], queries.xy[start:stop]),
            db).nbytes
    return total


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.spans.append({"id": 0, "name": "process.import", "parent": None,
                         "probe": False, "start": _T0,
                         "end": time.perf_counter()})
    loaded: list[DescriptorSet] = []
    tracer.wrap(cli, "cmd_match", "cli.cmd_match")
    tracer.wrap(cli, "load_descriptor_set", "descriptors.load", loaded.append)
    tracer.wrap(cli, "run_pipeline", "engine.run")
    tracer.wrap(cli, "match_all", "engine.run")
    tracer.wrap(pipeline, "arccos_table", "cordic.table")

    code = cli.main(cli_args)
    dot_bytes = None
    if code == 0:
        engine = cli_args[cli_args.index("--engine") + 1]
        dot_bytes = tracer.record("engine.dot", _dot_probe, engine, *loaded,
                                  probe=True)
        if not any(s["name"] == "cordic.table" for s in tracer.spans):
            tracer.record("cordic.table", cordic.arccos_table, probe=True)
    with open(trace_path, "w", encoding="ascii") as fh:
        json.dump({"spans": tracer.spans, "dot_bytes": dot_bytes}, fh,
                  allow_nan=False)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
