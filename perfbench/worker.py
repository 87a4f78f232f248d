"""Child-process side of the benchmark.

    python3 perfbench/worker.py JOB.json

JOB.json names one job; the result is written as JSON to job["out"]:

- "setup": import `tightrep.cli` and build the workload's fixed inputs
  (a powerset codomain, or a parsed structure file);
- "cli": run `tightrep.cli.main(argv)` in this process, capturing stdout;
- "requests": run each request (a `check`, then a `tighten --out` when
  the check reports cover-to-join) through `tightrep.cli.main`, timing
  each one, and return the captured outputs.

job["trace"] is "none", "spans" (per-layer spans, see tracer.py) or
"ops" (structure-primitive counts only).  The parent checks outputs; this
side only runs and records.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from time import perf_counter


class CountingStdout(io.StringIO):
    """Captured stdout that also counts the UTF-8 bytes written."""

    def __init__(self):
        super().__init__()
        self.bytes = 0

    def write(self, s):
        self.bytes += len(s.encode("utf-8"))
        return super().write(s)


def _run_cli(main, argv):
    out, err = CountingStdout(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out, err.getvalue()


def _setup(job):
    from tightrep import cli  # noqa: F401  (the import is what is timed)
    from tightrep.enumeration import powerset_algebra
    from tightrep.structfile import parse
    if "atoms" in job:
        powerset_algebra(job["atoms"])
    if "parse" in job:
        with open(job["parse"], encoding="utf-8") as f:
            parse(f.read())
    return {}


def _cli(job, main):
    code, out, err = _run_cli(main, job["argv"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err,
            "stdout_bytes": out.bytes}


def _requests(job, main):
    results = []
    stdout_bytes = 0
    for req in job["requests"]:
        start = perf_counter()
        code, out, err = _run_cli(main, ["check", req["path"], "--rep", "h"])
        codes, outputs = [code], [out.getvalue()]
        stdout_bytes += out.bytes
        if code == 0 and "cover_to_join: pass" in outputs[0]:
            code, out, err2 = _run_cli(
                main, ["tighten", req["path"], "--rep", "h", "--out", job["tighten_out"]])
            codes.append(code)
            outputs.append(out.getvalue())
            stdout_bytes += out.bytes
            err += err2
        latency = perf_counter() - start
        results.append({"key": req["key"], "latency_s": latency,
                        "codes": codes, "outputs": outputs, "stderr": err})
    return {"requests": results, "stdout_bytes": stdout_bytes}


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        job = json.load(f)
    if job["kind"] == "setup":
        result = _setup(job)
    else:
        recorder = ops = None
        if job["trace"] == "spans":
            import tracer
            recorder = tracer.SpanRecorder()
            tracer.install_spans(recorder)
        elif job["trace"] == "ops":
            import tracer
            ops = Counter()
            tracer.install_op_counter(ops)
        from tightrep import cli
        main_fn = cli.main if recorder is None else recorder.span("cli.main", cli.main)
        run = _cli if job["kind"] == "cli" else _requests
        result = run(job, main_fn)
        if recorder is not None:
            result["trace"] = recorder.dump()
        if ops is not None:
            result["trace"] = {"spans": [], "counts": dict(ops)}
    with open(job["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
