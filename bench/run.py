"""Benchmark of the poincarewave evaluator.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, imports the package from
``src/``, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from calib import CALIB_REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CHILDREN = 7
# Passes a timed run makes at least: verify-all passes take seconds each.
MIN_PASSES = {"verify-all": 5}
MIN_PASSES_DEFAULT = 8
# kernel-tail makes a fixed number of whole rounds per second of --seconds,
# not as many as fit: then every run of the same length reports the same
# number of failed points.
KERNEL_ROUNDS_PER_S = 0.8
CHILD_TIMEOUT_S = 60
# Every timed part is scaled to the speed the machine had while it ran.
# The machine the bounds were set on shares its two cores with other
# tenants.  While a neighbour is busy, the same work runs up to 1.5 times
# slower, CPU time as much as wall time, in phases from milliseconds to
# minutes.  So a fixed pure-Python loop is timed between the parts of a
# pass, and every SAMPLE_S inside a part, and the part's time (less the
# loops inside it) is multiplied by CALIB_REF_S over the mean time of the
# loops inside it and next to it: the time the part takes on that machine
# with no neighbour busy.
SAMPLE_S = 0.1


class ChildFailed(RuntimeError):
    pass


class Speedometer:
    """Calibrations taken during a pass, each with the time it began:
    between parts by ``mark``, and inside them on SIGALRM while
    ``sampling``."""

    def __init__(self):
        self.cals: list[tuple[int, float]] = []
        self._busy = False

    def mark(self) -> None:
        if self._busy:  # an alarm during a calibration waits for the next
            return
        self._busy = True
        try:
            self.cals.append((time.perf_counter_ns(), calibrate()))
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        old = signal.signal(signal.SIGALRM, lambda *_: self.mark())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def seconds(self, t0: int, t1: int) -> float:
        """Time from t0 to t1 (perf_counter_ns) less the calibrations in it."""
        return (t1 - t0) / 1e9 - sum(c for t, c in self.cals if t0 <= t < t1)

    def factor(self, t0: int, t1: int) -> float:
        """Factor that scales a time from t0 to t1, from the calibrations
        in it and the last one before and first one after it."""
        inside = [c for t, c in self.cals if t0 <= t < t1]
        before = max(((t, c) for t, c in self.cals if t < t0), default=None)
        after = min(((t, c) for t, c in self.cals if t >= t1), default=None)
        cals = inside + [tc[1] for tc in (before, after) if tc is not None]
        return CALIB_REF_S / statistics.mean(cals)

    def scaled(self, t0: int, t1: int) -> float:
        return self.seconds(t0, t1) * self.factor(t0, t1)


def run_child(args: list[str]) -> tuple[str, str]:
    """Run ``python child.py args`` to its end; kill and reap it on timeout
    or interrupt."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}: {err[-2000:]}")
    return out, err


def child_json(args: list[str]) -> dict:
    out, _ = run_child([str(HERE / "child.py"), *args])
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds() -> float:
    """Import time of the package in a fresh interpreter, scaled by
    calibrations in that interpreter around the import (the child may run
    on the other core, whose speed this process does not see)."""
    return child_json(["setup"])["import_s"]


def mpmath_import_ms() -> float:
    """Cumulative import time of mpmath when the package is imported, from
    ``-X importtime``; 0 when the import no longer pulls it in."""
    _, err = run_child(["-X", "importtime", str(HERE / "child.py"), "setup"])
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "mpmath":
            return int(parts[1]) / 1000.0
    return 0.0


@contextmanager
def suite_times():
    """Note when each verify suite that runs inside the block starts and
    ends: a list of (t0, t1) in perf_counter_ns, in suite order; empty when
    none runs.  A verify pass takes seconds, so its suites are the parts
    its time is split into."""
    from poincarewave import verify

    suites = getattr(verify, "_SUITE_FUNCS", {})
    saved = dict(suites)
    times: list[tuple[int, int]] = []

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append((t0, time.perf_counter_ns()))
        return call

    try:
        suites.update({name: timed(fn) for name, fn in saved.items()})
        yield times
    finally:
        suites.update(saved)


@dataclass
class PassStats:
    wall_s: float  # as measured, calibration left out
    parts_s: list[float]  # wall_s split into parts that line up across passes, scaled
    first_row_s: float  # scaled
    attempted: int
    failed: int
    output: object  # what the checks look at, dropped once checked
    rows: int = 0  # output rows, points or report cases; set by the checks
    rows_done: int = 0  # rows that count for throughput: points that evaluated


class Runner:
    """Runs passes, then checks their outputs (no check runs between timed
    passes, so none disturbs their caches)."""

    def __init__(self, workload: str, seed: int):
        import reference
        import workloads

        self.W, self.R = workloads, reference
        self.workload, self.seed = workload, seed
        self.sample_rng = random.Random(f"sample:{workload}:{seed}")
        self.correct = True
        self.reference_output: str | None = None  # pass 0, or the verify report
        self.fail_s: list[float] = []

    def flag(self, what: str) -> None:
        self.correct = False
        print(f"check failed: {what}", file=sys.stderr)

    def one_pass(self, i: int, main=None) -> PassStats:
        sp = Speedometer()
        sp.mark()
        with sp.sampling():
            if self.workload == "kernel-tail":
                return self._round(i, sp)
            return self._command(i, sp, main)

    def _round(self, i: int, sp: Speedometer) -> PassStats:
        pts = self.W.kernel_round(self.seed, i)
        n = self.W.CHEAP_POINTS
        # The cheap points run back to back as one part; every other point
        # is a part of its own.
        groups = [pts[:n]] + [[pt] for pt in pts[n:]]
        results, spans = [], []
        for group in groups:
            t0 = time.perf_counter_ns()
            results += [self.W.eval_point(pt) for pt in group]
            spans.append((t0, time.perf_counter_ns()))
            sp.mark()
        parts = [sp.scaled(*span) for span in spans]
        failed = sum(res.value is None for res in results)
        # The latency of one call: that of a cheap point, on average.
        return PassStats(sum(sp.seconds(*span) for span in spans), parts, parts[0] / n,
                         len(pts), failed, (pts, results))

    def _command(self, i: int, sp: Speedometer, main) -> PassStats:
        p = self.W.cli_pass(self.workload, self.seed, i)
        path = OUT / f"{self.workload}-{self.seed}.out"
        t0 = time.perf_counter_ns()
        with suite_times() if p.fmt == "report" else nullcontext([]) as suites:
            res = self.W.run_cli(p, str(path), main)
        t1 = time.perf_counter_ns()
        sp.mark()
        if res.rc != 0 or res.first_row_s is None:
            self.flag(f"pass {i}: exit code {res.rc}, first row seen: {res.first_row_s is not None}")
        # Each suite is a part, and the rest of the command one more.
        wall = sp.seconds(t0, t1)
        rest = wall - sum(sp.seconds(*span) for span in suites)
        parts = [sp.scaled(*span) for span in suites] + [rest * sp.factor(t0, t1)]
        # Up to the first row: the whole pass less what came after that row.
        first_ns = t0 + round(1e9 * (res.first_row_s or res.wall_s))
        first = sum(parts) - sp.scaled(min(first_ns, t1), t1)
        return PassStats(wall, parts, first, 1, int(res.rc != 0), (p, path.read_text()))

    def check(self, stats: list[PassStats]) -> None:
        """Check every pass's output and count its rows."""
        for st in stats:
            if self.workload == "kernel-tail":
                self._check_round(st, *st.output)
            else:
                p, text = st.output
                try:
                    st.rows = st.rows_done = self._check_cli(p, text)
                except (self.R.CheckFailed, KeyError, ValueError) as exc:
                    self.flag(str(exc))
            st.output = None

    def _check_cli(self, p, text: str) -> int:
        if p.fmt != "report":
            return self.R.check_wf(p, text, self.sample_rng, 1)
        if self.reference_output is None:
            self.reference_output = text
        elif text != self.reference_output:
            raise self.R.CheckFailed("verify output differs between passes")
        return self.R.check_report(text)

    def _check_round(self, st: PassStats, pts, results) -> None:
        if self.reference_output is None:
            self.reference_output = self.W.dump_values(results)
        for pt, res in zip(pts, results):
            if res.value is None:
                self.fail_s.append(res.elapsed_s)
                if not pt.expect_fail:
                    self.flag(f"{pt} raised {res.error}")
                continue
            try:
                self.R.check_point(pt, res.value)
            except self.R.CheckFailed as exc:
                self.flag(str(exc))
        st.rows, st.rows_done = len(pts), len(pts) - st.failed

    def passes(self, seconds: float, start: int, least: int, main=None,
               setup: list[float] | None = None) -> list[PassStats]:
        """Passes start, start+1, ... until ``seconds`` of pass time have
        been spent and at least ``least`` passes have run; then the checks.

        With ``setup``, SETUP_CHILDREN set-up times are appended to it, taken
        between passes spread over the run (the time they take is not pass
        time), since the machine's speed drifts.
        """
        out: list[PassStats] = []
        spent = next_setup = 0.0
        while spent < seconds or len(out) < least:
            st = self.one_pass(start + len(out), main)
            spent += st.wall_s
            out.append(st)
            if setup is not None and len(setup) < SETUP_CHILDREN and spent >= next_setup:
                setup.append(setup_seconds())
                next_setup = spent + seconds / SETUP_CHILDREN
        while setup is not None and len(setup) < SETUP_CHILDREN:
            setup.append(setup_seconds())
        self.check(out)
        return out

    def memory_mb(self) -> float:
        """Peak resident memory of a fresh interpreter that imports the
        package and runs the memory pass (a large command on wf-*, pass 0
        elsewhere); its output is checked too."""
        path = OUT / f"{self.workload}-{self.seed}.memory.out"
        rep = child_json(["memory", self.workload, str(self.seed), str(path)])
        text = path.read_text()
        if rep["rc"] != 0:
            self.flag(f"memory pass exited {rep['rc']}")
        elif self.workload in self.W.MEMORY_GRID_N:
            try:
                self.R.check_wf(self.W.memory_pass(self.workload, self.seed), text,
                                self.sample_rng, 8)
            except (self.R.CheckFailed, KeyError, ValueError) as exc:
                self.flag(f"memory pass: {exc}")
        elif text != self.reference_output:
            self.flag("memory pass output differs from the same pass in this process")
        return rep["peak_kb"] / 1024.0


def rows_per_s(stats: list[PassStats]) -> float:
    """Rows of a pass over the time of a pass, where each part of a pass
    (the command, a verify suite, or on kernel-tail one point or the cheap
    points together) is taken at its median across the passes, scaled."""
    parts = zip(*(st.parts_s for st in stats))
    return statistics.median(st.rows_done for st in stats) / sum(map(statistics.median, parts))


def pass_budget(workload: str, seconds: float, least: int) -> tuple[float, int]:
    """(pass time to spend, passes to make at least) for ``seconds``."""
    if workload == "kernel-tail":
        return 0.0, max(1, round(KERNEL_ROUNDS_PER_S * seconds))
    return seconds, least


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[PassStats]]:
    setup: list[float] = []
    spend, least = pass_budget(runner.workload, seconds,
                               MIN_PASSES.get(runner.workload, MIN_PASSES_DEFAULT))
    stats = runner.passes(spend, 0, least, setup=setup)
    mem = runner.memory_mb()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "rows_per_s": (rows_per_s(stats), "rows/s"),
        "first_row_s": (statistics.median(s.first_row_s for s in stats), "s"),
        "peak_mem_mb": (mem, "MB"),
    }
    return metrics, stats


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[PassStats]]:
    import tracer as T
    from poincarewave import cli

    spend, least = pass_budget(runner.workload, seconds / 2, 1)
    plain = runner.passes(spend, 0, least)
    tr = T.Tracer()
    with tr.installed():
        traced = runner.passes(spend, len(plain), least, tr.wrap(cli.main, "cli.command"))
    tr.write(str(OUT / f"trace-{runner.workload}-{runner.seed}.tsv"))
    rows = sum(s.rows for s in traced)
    metrics: dict = {}
    for layer in T.LAYERS:
        metrics[f"{layer}.calls_per_row"] = (tr.calls[layer] / rows, "calls/row")
        metrics[f"{layer}.self_us_per_row"] = (tr.self_ns[layer] / 1e3 / rows, "us/row")
    for suite in T.VERIFY_SUITES:
        metrics[f"verify.{suite}.s"] = (tr.total_ns[f"verify.{suite}"] / 1e9 / len(traced), "s")
    untraced = rows_per_s(plain)
    with_trace = rows_per_s(traced)
    metrics["trace.rows_per_s_untraced"] = (untraced, "rows/s")
    metrics["trace.rows_per_s_traced"] = (with_trace, "rows/s")
    metrics["trace.overhead"] = (untraced / with_trace, "ratio")
    metrics["setup.mpmath_import_ms"] = (mpmath_import_ms(), "ms")
    metrics["ops.failed_ms_per_op"] = (
        1e3 * statistics.mean(runner.fail_s) if runner.fail_s else 0.0, "ms")
    return metrics, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("wf-angles", "wf-spacetime", "kernel-tail", "verify-all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "poincarewave" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, stats = measure(runner, args.seconds)
    result = {
        "correct": runner.correct,
        "attempted": sum(s.attempted for s in stats),
        "failed": sum(s.failed for s in stats),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
