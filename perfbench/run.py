"""The tightrep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is imported from
`src/` as it stands, nothing is installed.  One workload process runs at a
time.  See perfbench/README.md for the workloads, the metrics and how to
compare two commits.

--trace 0 measures the end-to-end metrics with tracing off: the set-up
time of fresh interpreters, then closed-loop units of work (one `tightrep`
CLI process for the universe workloads, one worker process running the
whole request list for `hom-requests`) until S seconds have passed and at
least MIN_UNITS units have run.  --trace 1 runs one untraced unit, one
unit with per-layer spans and one counting the structure primitives, and
reports the per-layer metrics and the tracing overhead.

Every unit's output is checked.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the raw samples of
every unit and request go to perfbench/out/runs/.  Exit code 0 when the
run completed (check "correct" for the verdict), 2 when nothing could be
measured (for instance when src/tightrep is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import homgen   # perfbench/ is on sys.path: run.py runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUPS_PER_UNIT = 2   # fresh interpreters timed for setup_s around each unit
MIN_UNITS = 3         # units per measured run at the least; the median rejects one outlier
DEADLINE_S = 170      # the whole run, including set-up and output checks
HOM_REQUESTS = 1000    # one pass; a run makes at least MIN_UNITS passes


class Fatal(Exception):
    """Nothing can be measured; exit non-zero without a result line."""


# -- workloads -------------------------------------------------------------

def _lines(text):
    return [line for line in text.splitlines() if line.strip()]


def verify_checker(expected):
    def check(text):
        got = dict(line.split(": ", 1) for line in _lines(text) if ": " in line)
        return all(got.get(k) == str(v) for k, v in expected.items())
    return check


def gap_checker(found):
    def check(text):
        lines = _lines(text)
        return (bool(lines) and lines[-1] == f"found: {found}"
                and sum(line.startswith("gap: ") for line in lines) == found
                and len(lines) > 3 and lines[3] == "map: 0->0 1->1")
    return check


def enum_checker(count):
    def check(text):
        lines = _lines(text)
        return (bool(lines) and lines[-1] == f"# count: {count}"
                and sum(line.startswith("@semilattice ") for line in lines) == count)
    return check


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple = ()            # CLI arguments of one unit (universe workloads)
    check: object = None        # stdout text -> bool
    atoms: int | None = None    # powerset codomain built during set-up
    requests: int = 0           # request-list length (hom-requests)
    reps: int = 0               # representations examined by one unit


def _universe(name, argv, check, atoms=None, reps=0):
    return Workload(name, argv=tuple(argv.split()), check=check, atoms=atoms, reps=reps)


# Expected outputs.  The enumerate counts are OEIS A006966 (lattices on
# n+1 elements: a finite meet-semilattice with zero plus an adjoined top
# is a lattice), independent of this code.  The verify and search-gap
# figures were read off the seed implementation, whose verdicts the test
# suite cross-checks against brute-force oracles.
WORKLOADS = {
    "verify-iso5-p3": _universe(
        "verify-iso5-p3", "verify --max-e 5 --atoms 3 --up-to-iso",
        verify_checker({"semilattices": 24, "representations": 2258,
                        "checks": 185877, "violations": 0}), atoms=3, reps=2258),
    "gap-5-p2": _universe(
        "gap-5-p2", "search-gap --max-e 5 --atoms 2", gap_checker(830),
        atoms=2, reps=5424),
    "enum-iso6": _universe(
        "enum-iso6", "enumerate --size 6 --up-to-iso", enum_checker(53)),
    "hom-requests": Workload("hom-requests", requests=HOM_REQUESTS),
}

SMOKE = {
    "verify-iso5-p3": _universe(
        "verify-iso5-p3", "verify --max-e 3 --atoms 2 --up-to-iso",
        verify_checker({"semilattices": 4, "representations": 23,
                        "checks": 902, "violations": 0}), atoms=2, reps=23),
    "gap-5-p2": _universe(
        "gap-5-p2", "search-gap --max-e 3 --atoms 2", gap_checker(10), atoms=2),
    "enum-iso6": _universe(
        "enum-iso6", "enumerate --size 4 --up-to-iso", enum_checker(5)),
    "hom-requests": Workload("hom-requests", requests=20),
}


# -- child processes --------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns one child at a time, under the run's overall deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = _env()
        self.seq = 0

    def spawn(self, argv) -> Child:
        self.seq += 1
        out_path = self.work / f"child{self.seq}.out"
        err_path = self.work / f"child{self.seq}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise _Timeout()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:      # deadline, SIGTERM or ^C: stop the child too
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        errors = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, text, errors)

    def job(self, job: dict) -> tuple[Child, dict | None]:
        """Run worker.py on a job; returns the child and its result (or None)."""
        self.seq += 1
        job_path = self.work / f"job{self.seq}.json"
        job["out"] = str(self.work / f"job{self.seq}.result.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        child = self.spawn([sys.executable, str(WORKER), str(job_path)])
        result = None
        if child.code == 0:
            result = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
            Path(job["out"]).unlink()
        job_path.unlink()
        return child, result


# -- one run -----------------------------------------------------------------

@dataclass
class Run:
    workload: Workload
    seed: int
    runner: Runner
    requests: list = field(default_factory=list)   # hom-requests: sampled cases
    setup_job: dict = field(default_factory=dict)
    units: list = field(default_factory=list)      # raw per-unit records
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def prepare(self):
        """Build the seed's inputs; none of this is timed."""
        w = self.workload
        self.setup_job = {"kind": "setup"}
        if w.atoms is not None:
            self.setup_job["atoms"] = w.atoms
        if w.requests:
            i3_path = self.runner.work / "i3.sf"
            i3_path.write_text(homgen.i3_block() + "\n", encoding="utf-8")
            self.setup_job["parse"] = str(i3_path)
            cases = homgen.sample_requests(homgen.all_cases(), w.requests, self.seed)
            for case in cases:
                (self.runner.work / f"{case.key}.sf").write_text(case.text, encoding="utf-8")
            self.requests = cases

    def setup_times(self, repeats):
        """Walls of `repeats` fresh interpreters doing the workload's set-up."""
        walls = []
        for _ in range(repeats):
            child, _ = self.runner.job(dict(self.setup_job))
            if child.code != 0:
                raise Fatal(f"set-up failed (exit {child.code}): {child.stderr.strip()}")
            walls.append(child.wall_s)
        return walls

    def _request_job(self, trace):
        return {"kind": "requests", "trace": trace,
                "tighten_out": str(self.runner.work / "tightened.sf"),
                "requests": [{"key": c.key, "path": str(self.runner.work / f"{c.key}.sf")}
                             for c in self.requests]}

    def unit(self, trace="none"):
        """Run one unit of work, check its output, and record it."""
        w = self.workload
        record = {"trace": trace}
        result = None
        if w.requests:
            child, result = self.runner.job(self._request_job(trace))
            ok = child.code == 0 and result is not None
            record["requests"] = []
            for case, req in zip(self.requests, (result or {}).get("requests", [])):
                good = _check_request(case, req)
                self.attempted += 1
                self.failed += not good
                if trace == "none":
                    self.latencies_s.append(req["latency_s"])
                record["requests"].append(
                    {"key": case.key, "latency_s": req["latency_s"], "ok": good,
                     "tightened": len(req["codes"]) - 1})
            if not ok:
                self.attempted += len(self.requests)
                self.failed += len(self.requests)
        else:
            if trace == "none":
                child = self.runner.spawn(
                    [sys.executable, "-m", "tightrep.cli", *w.argv])
                stdout, code = child.stdout, child.code
            else:
                child, result = self.runner.job(
                    {"kind": "cli", "trace": trace, "argv": list(w.argv)})
                stdout = (result or {}).get("stdout", "")
                code = (result or {}).get("code", child.code)
            ok = code == 0 and w.check(stdout)
            self.attempted += 1
            self.failed += not ok
            record["checks"] = _verify_checks(stdout)
            record["stdout_bytes"] = len(stdout.encode("utf-8"))
            if not ok:
                record["stdout_tail"] = stdout[-400:]
        record.update(wall_s=child.wall_s, exit_code=child.code,
                      peak_rss_mb=child.rss_mb, ok=ok)
        if not ok:
            record["stderr_tail"] = child.stderr[-400:]
        self.units.append(record)
        return record, result


def _labels(text):
    return dict(line.split(": ", 1) for line in _lines(text) if ": " in line)


def _check_request(case, req):
    """A request is good when every verdict matches the brute-force oracle
    and, for a cover-to-join map, the tightening unit is the expected one."""
    if req["codes"][0] != 0:
        return False
    got = _labels(req["outputs"][0])
    want = {"cover_to_join": case.cover_to_join, "tight": case.tight,
            "nondegenerate": case.nondegenerate}
    if any(got.get(k) != ("pass" if v else "fail") for k, v in want.items()):
        return False
    if not case.cover_to_join:
        return len(req["codes"]) == 1
    return (len(req["codes"]) == 2 and req["codes"][1] == 0
            and _labels(req["outputs"][1]).get("unit") == case.unit)


def _verify_checks(stdout):
    match = re.search(r"^checks: (\d+)$", stdout, re.M)
    return int(match.group(1)) if match else 0


# -- statistics ----------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest percentile, in tenths, with at least ten samples beyond it."""
    if n < 11:
        return None
    return math.floor(1000.0 * (n - 10) / n) / 10.0


# -- reports -----------------------------------------------------------------

def end_to_end(run: Run, setup_walls):
    w = run.workload
    units = [u for u in run.units if u["trace"] == "none"]
    walls = [u["wall_s"] for u in units]
    wall = statistics.median(walls)
    if w.requests:
        lat_ms = [s * 1000.0 for s in run.latencies_s]
    else:
        lat_ms = [s * 1000.0 for s in walls]
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "wall_s": (wall, "s"),
        "req_p50_ms": (statistics.median(lat_ms), "ms"),
        "req_p99_ms": (percentile(lat_ms, 99), "ms"),
        "req_per_s": ((w.requests or 1) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MB"),
    }
    tail_q = tail_percentile(len(lat_ms))
    extra = {
        "error_rate": (run.failed / run.attempted if run.attempted else 1.0, "ratio"),
        "samples": (len(lat_ms), "count"),
        "units": (len(units), "count"),
    }
    if tail_q is not None:
        extra[f"req_p{tail_q:g}_ms"] = (percentile(lat_ms, tail_q), "ms")
    if w.reps:
        extra["reps_per_s"] = (w.reps / wall, "1/s")
        extra["reps_per_unit"] = (w.reps, "count")
    if w.requests:
        extra["requests"] = (len(lat_ms), "count")
        extra["tightens"] = (sum(r["tightened"] for u in units
                                 for r in u["requests"]), "count")
    return metrics, extra


LAYER_TIMES = [
    # span name (the metric prefix), and whether calls are reported too
    ("enumeration.semilattices", False),
    ("enumeration.canonical", True),
    ("enumeration.representations", False),
    ("representations.is_tight", True),
    ("representations.is_tight_oracle", True),
    ("representations.is_cover_to_join", True),
    ("representations.construct", True),
    ("representations.constrained_interval", True),
    ("representations.covers_of", False),
    ("representations.tighten", True),
    ("lattices.semilattice_validate", True),
    ("lattices.algebra_validate", True),
    ("lattices.ideal", True),
    ("inverse_semigroups.semigroup_validate", True),
    ("inverse_semigroups.hom_validate", False),
    ("inverse_semigroups.gbis", False),
    ("inverse_semigroups.check", False),
    ("inverse_semigroups.tighten", True),
    ("structfile.parse", True),
    ("structfile.render", True),
]

# Per-layer metrics beyond the span times above: (name, unit, better).
LAYER_EXTRA = [
    ("enumeration.semilattices.count", "count", "higher"),
    ("enumeration.representations.count", "count", "higher"),
    ("enumeration.representations.accept_ratio", "ratio", "higher"),
    ("enumeration.driver.self_s", "s", "lower"),
    ("enumeration.checks", "count", "higher"),
    ("enumeration.gaps.count", "count", "higher"),
    ("representations.covers_of.calls", "count", "lower"),
    ("representations.antichains.calls", "count", "lower"),
    ("representations.ctj_pass_ratio", "ratio", "higher"),
    ("representations.tight_pass_ratio", "ratio", "higher"),
    ("lattices.op_calls", "count", "lower"),
    ("inverse_semigroups.tighten.corner_elements", "count", "higher"),
    ("structfile.parse.bytes", "bytes", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "higher"),
    ("cli.stdout_bytes", "bytes", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_names():
    """Every per-layer metric, in report order: (name, unit, better)."""
    names = []
    for span, with_calls in LAYER_TIMES:
        names.append((span + ".s", "s", "lower"))
        if with_calls:
            names.append((span + ".calls", "count", "lower"))
    return names + LAYER_EXTRA


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced, spans_result, ops_result):
    trace = spans_result["trace"]
    counts = trace["counts"]
    by_name = {}
    for s in trace["spans"]:
        entry = by_name.setdefault(s["name"], [0, 0.0])
        entry[0] += s["calls"]
        entry[1] += s["self_s"]

    def self_s(name):
        return by_name.get(name, [0, 0.0])[1]

    def calls(name):
        return by_name.get(name, [0, 0.0])[0]

    m = {}
    for span, with_calls in LAYER_TIMES:
        m[span + ".s"] = self_s(span)
        if with_calls:
            m[span + ".calls"] = calls(span)
    reps = counts.get("enumeration.representations.items", 0)
    tight_calls = calls("representations.is_tight")
    ctj_calls = calls("representations.is_cover_to_join")
    m.update({
        "enumeration.semilattices.count": counts.get("enumeration.semilattices.items", 0),
        "enumeration.representations.count": reps,
        "enumeration.representations.accept_ratio": _ratio(
            reps, counts.get("enumeration.representations.candidates", 0)),
        "enumeration.driver.self_s": self_s("enumeration.driver"),
        "enumeration.checks": _verify_checks(spans_result.get("stdout", "")),
        "enumeration.gaps.count": counts.get("enumeration.driver.items", 0),
        "representations.covers_of.calls": counts.get("representations.covers_of.calls", 0),
        "representations.antichains.calls": counts.get("representations.antichains.calls", 0),
        "representations.ctj_pass_ratio": _ratio(
            counts.get("representations.is_cover_to_join.passed", 0), ctj_calls),
        "representations.tight_pass_ratio": _ratio(
            counts.get("representations.is_tight.passed", 0), tight_calls),
        "lattices.op_calls": ops_result["trace"]["counts"].get("lattices.op_calls", 0),
        "inverse_semigroups.tighten.corner_elements": counts.get(
            "inverse_semigroups.tighten.corner_elements", 0),
        "structfile.parse.bytes": counts.get("structfile.parse.bytes", 0),
        "cli.self_s": self_s("cli.main"),
        "cli.calls": calls("cli.main"),
        "cli.stdout_bytes": spans_result.get("stdout_bytes", 0),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    units = {name: unit for name, unit, _ in per_layer_names()}
    return {name: (m[name], units[name]) for name, _, _ in per_layer_names()}


# -- metadata ------------------------------------------------------------------

def metadata():
    commit = "unknown"      # an exported checkout carries no history
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "tightrep").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines,
            "platform": platform.platform()}


# -- main ------------------------------------------------------------------------

def measure(run: Run, seconds: float):
    """Set-ups are interleaved with the units, so that their median spans
    the whole run rather than one moment of a machine whose speed drifts."""
    run.setup_times(1)      # untimed warm-up; also compiles bytecode
    setup_walls = []
    start = time.monotonic()
    while (len(run.units) < MIN_UNITS
           or time.monotonic() - start < seconds):
        setup_walls += run.setup_times(SETUPS_PER_UNIT)
        run.unit()
    setup_walls += run.setup_times(SETUPS_PER_UNIT)
    return setup_walls


def trace_run(run: Run):
    run.setup_times(1)      # warm-up only: compile bytecode before timing
    untraced, _ = run.unit("none")
    traced, spans_result = run.unit("spans")
    _, ops_result = run.unit("ops")
    if spans_result is None or ops_result is None:
        raise Fatal("a traced unit crashed: "
                    + " | ".join(u.get("stderr_tail", "") for u in run.units[-2:]))
    trace = dict(spans_result["trace"], op_counts=ops_result["trace"]["counts"])
    return per_layer(untraced, traced, spans_result, ops_result), trace


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "tightrep" / "cli.py").is_file():
        print(f"error: no tightrep sources under {SRC}", file=sys.stderr)
        return 2
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    run = Run(workload, args.seed, runner)
    try:
        run.prepare()
        extra, setup_walls, trace = {}, [], None
        if args.trace:
            metrics, trace = trace_run(run)
        else:
            setup_walls = measure(run, args.seconds)
            metrics, extra = end_to_end(run, setup_walls)
    except Fatal as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _Timeout:
        print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata()
    raw = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "smoke": args.smoke, "meta": meta,
           "setup_walls_s": setup_walls, "units": run.units,
           "attempted": run.attempted, "failed": run.failed,
           "metrics": {k: v for k, (v, _) in metrics.items()},
           "extra": {k: v for k, (v, _) in extra.items()},
           "trace": trace}     # per-(span, parent) aggregates and counters
    runs_dir = OUT / "runs"
    runs_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    raw_path = runs_dir / (f"{workload.name}_seed{args.seed}_trace{args.trace}"
                           f"{'_smoke' if args.smoke else ''}_{stamp}_{os.getpid()}.json")
    raw_path.write_text(json.dumps(raw), encoding="utf-8")

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: python {meta['python']}, "
          f"nproc {meta['nproc']}, commit {meta['commit'][:12]}, "
          f"src lines {meta['src_lines']}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name:48s} {_fmt(value):>14s} {unit}")
    print(f"# raw samples: {raw_path.relative_to(ROOT)}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
