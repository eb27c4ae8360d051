"""fairshift benchmark: seeded CLI workloads, timed end to end and per layer.

One run measures one workload in this process, as a closed loop with one
client: each job is a call to ``fairshift.cli.main(argv)`` on inputs made
from ``--seed``, and the next job starts when the previous one returns.
Every job's exit code and report are checked by the workload's oracle
(``workloads.py``), and its artifacts must be byte-identical between the
passes of a run.  A job that fails either check counts in ``failed``.

    python3 bench/run.py --workload exact-models --seed 0 --seconds 25 --trace 0

``--trace 0`` times cold starts in fresh processes, runs a warm-up pass,
then timed passes for up to ``--seconds``, and reports:

    wall_ref_s     median wall time of one pass over the workload's jobs,
                   in reference seconds (see ``speed.py``)
    setup_s        median of ``COLD_STARTS`` cold starts, each in reference
                   seconds from a probe in the cold process (``cold.py``):
                   interpreter, ``import fairshift.cli``, input generation
                   and the workload's smallest job
    peak_rss_mb    peak RSS of this process

The raw wall times (``wall_s``, ``setup_wall_s`` and one ``<command>_s``
per CLI command) are printed above the result line and kept in
``--record``.

``--trace 1`` runs, after the warm-up, passes in which every job runs
once untraced and once traced, back to back and in alternating order, each
run timed in its own reference seconds.  It reports the per-layer metrics
of ``tracer.py`` (medians over the passes) and the tracing overhead: the
median, over the passes, of the traced jobs' summed time over the
untraced jobs', minus one.  Per job, the layer self times must add up to
the job's wall time as ``Runner.run_job`` measures it, within
``GAP_TOLERANCE_S``, or the run fails.  The spans go to
``.bench_work/<workload>/spans.csv.gz`` and the per-job layer metrics to
``layers_by_job.json`` next to it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics, the per-command times and the fail ratio for people.

Other modes (see ``suite.py``):

    python3 bench/run.py --suite --seeds 0 1 --out results.json
    python3 bench/run.py --compare old.json new.json
    python3 bench/run.py --sweep --out sweep.json
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

from tracer import SPANS_HEADER, Tracer, per_layer_metric_names, unit
from speed import SpeedProbe
from workloads import SETUP_JOB, WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

COLD_STARTS = 7
# job wall time outside the root span: stdout redirection, the wrapper
# itself and a probe sample that lands there
GAP_TOLERANCE_S = 2e-3


def import_cli():
    """Import ``fairshift.cli`` from this checkout's ``src/``, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "fairshift", "cli.py")):
        sys.exit(f"bench: no fairshift sources under {SRC}")
    sys.path.insert(0, SRC)
    import fairshift.cli
    if not os.path.abspath(fairshift.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: fairshift imported from {fairshift.cli.__file__}, "
                 f"not from {SRC}")
    return fairshift.cli


def digest(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    """Runs a workload's jobs pass after pass and checks every job."""

    def __init__(self, cli_main, jobs, work: str):
        self.main = cli_main
        self.jobs = jobs
        self.work = work
        self.digests: dict[str, dict] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def run_pass(self) -> dict[str, float]:
        """One pass over the jobs; returns each job's wall time."""
        return {job.name: self.run_job(job) for job in self.jobs}

    def run_job(self, job, tracer=None) -> float:
        """Run and check one job; returns its wall time."""
        out = os.path.join(self.work, "out", job.name)
        shutil.rmtree(out, ignore_errors=True)
        argv = list(job.argv) + ["--out", out]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.run_job(job.name, self.main, argv)
        except Exception:
            # a crashing job is a failed job, not a failed benchmark
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        self.check(job, code, out)
        return wall

    def check(self, job, code, out: str) -> None:
        self.attempted += 1
        try:
            with open(os.path.join(out, job.report)) as fh:
                report = json.load(fh)
            problems = job.oracle(code, report)
            files = digest(out)
        except (OSError, ValueError) as exc:
            problems, files = [f"no readable report: {exc}"], None
        first = self.digests.setdefault(job.name, files)
        if files != first:
            problems.append("artifacts differ between passes")
        if problems:
            self.problems.append(f"{job.name}: {'; '.join(problems)}")

    def passes(self, seconds: float, run_pass):
        """Call ``run_pass`` at least once, then again for as long as a call
        that takes as long as the last one still ends within ``seconds``."""
        t0 = last = time.perf_counter()
        out = []
        while True:
            out.append(run_pass())
            now = time.perf_counter()
            if now + (now - last) > t0 + seconds:
                return out
            last = now


def cold_starts(workload: str, seed: int, work: str, count: int,
                runner: Runner) -> list[tuple[float, float]]:
    """Wall time and speed factor of fresh processes that import the CLI,
    make the inputs and run the workload's setup job; each one is checked
    like a job, artifacts included."""
    job = next(j for j in runner.jobs if j.name == SETUP_JOB[workload])
    out = os.path.join(work, "cold")
    factor_file = os.path.join(work, "cold-factor")
    runs = []
    for _ in range(count):
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(factor_file)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "cold.py"),
                               workload, str(seed), work],
                              stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        runner.check(job, proc.returncode, out)
        with contextlib.suppress(OSError, ValueError):
            with open(factor_file) as fh:
                runs.append((wall, float(fh.read())))
    if not runs:
        sys.exit(f"bench: no cold start of {job.name} finished")
    return runs


def end_to_end(workload: str, runner: Runner, seed: int, seconds: float,
               work: str) -> tuple[dict, dict]:
    setup = cold_starts(workload, seed, work, COLD_STARTS, runner)
    runner.run_pass()                                   # warm-up

    def timed_pass():
        with SpeedProbe() as probe:
            times = runner.run_pass()
        return times, probe.factor()

    walls, factors, by_cmd = [], [], {}
    for times, factor in runner.passes(seconds, timed_pass):
        walls.append(sum(times.values()))
        factors.append(factor)
        sums: dict[str, float] = {}
        for job in runner.jobs:
            sums[job.command] = sums.get(job.command, 0.0) + times[job.name]
        for cmd, s in sums.items():
            by_cmd.setdefault(cmd, []).append(s)
    metrics = {
        "wall_ref_s": (median(w * f for w, f in zip(walls, factors)), "s"),
        "setup_s": (median(w * f for w, f in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    raw = {"wall_s": median(walls),
           "setup_wall_s": median(w for w, _ in setup)}
    raw.update({f"{c}_s": median(v) for c, v in by_cmd.items()})
    extra = {"passes": len(walls), "raw": raw, "pass_wall_s": walls,
             "speed_factor": factors, "setup_runs": setup}
    return metrics, extra


def per_layer(workload: str, runner: Runner, seconds: float,
              work: str) -> tuple[dict, dict]:
    runner.run_pass()                                   # warm-up
    tracers, job_walls = [], []

    def ref_job(job, tracer=None) -> tuple[float, float]:
        """Wall time and reference time of one run of ``job``."""
        if tracer is not None:
            tracer.install()
        try:
            with SpeedProbe() as probe:
                wall = runner.run_job(job, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return wall, wall * probe.factor()

    def pair_pass() -> tuple[float, float]:
        """Every job untraced and traced back to back, in alternating
        order and each in its own reference seconds: the machine's speed
        swings within a job's time, so only this makes the ratio of the
        two runs show the tracing and not the swing.  Returns the untraced
        and traced pass totals."""
        tracer, walls = Tracer(), []
        plain = traced = 0.0
        for k, job in enumerate(runner.jobs):
            order = (None, tracer) if (k + len(tracers)) % 2 else (tracer, None)
            for t in order:
                wall, ref = ref_job(job, t)
                if t is None:
                    plain += ref
                else:
                    walls.append(wall)
                    traced += ref
        tracers.append(tracer)
        job_walls.append(walls)
        return plain, traced

    pairs = runner.passes(seconds, pair_pass)
    per_pass, gaps, jobs = [], [], None
    for tracer, walls in zip(tracers, job_walls):
        job_metrics, gap = tracer.job_metrics(walls)
        gaps.append(gap)
        per_pass.append({k: sum(m[k] for m in job_metrics)
                         for k in per_layer_metric_names()})
        jobs = dict(zip(tracer.job_names, job_metrics))
    path = os.path.join(work, "spans.csv.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(SPANS_HEADER)
        for k, tracer in enumerate(tracers):
            tracer.write(fh, k)
    with open(os.path.join(work, "layers_by_job.json"), "w") as fh:
        json.dump(jobs, fh, indent=1)
    if max(gaps) > GAP_TOLERANCE_S:
        runner.problems.append(f"layer self times miss the job wall time "
                               f"by {max(gaps):.3g} s")
    values = {k: median([p[k] for p in per_pass])
              for k in per_layer_metric_names()}
    values.update({
        "trace.untraced_ref_s": median(p for p, _ in pairs),
        "trace.traced_ref_s": median(t for _, t in pairs),
        "trace.overhead": median(t / p for p, t in pairs) - 1.0,
        "trace.spans": median([len(t.name) for t in tracers]),
    })
    metrics = {k: (v, unit(k)) for k, v in values.items()}
    extra = {"passes": len(tracers), "self_time_gap_s": max(gaps),
             "jobs": jobs}
    return metrics, extra


def run(args) -> int:
    cli = import_cli()
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    jobs = make_inputs(args.workload, args.seed, os.path.join(work, "inputs"))
    runner = Runner(cli.main, jobs, work)
    if args.trace:
        metrics, extra = per_layer(args.workload, runner, args.seconds, work)
    else:
        metrics, extra = end_to_end(args.workload, runner, args.seed,
                                    args.seconds, work)
    failed = len(runner.problems)
    for p in runner.problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{extra['passes']} passes, fail_ratio "
          f"{failed / runner.attempted:.4g} (1)")
    for name, (value, u) in metrics.items():
        print(f"#   {name} = {value:.6g} {u}")
    for name, value in extra.get("raw", {}).items():
        print(f"#   {name} = {value:.6g} s (raw wall time)")
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "result": result, "problems": runner.problems,
                       "fail_ratio": failed / runner.attempted, **extra},
                      fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="FILE",
                   help="also write the run's full record as JSON")
    p.add_argument("--suite", action="store_true",
                   help="run every workload over --seeds; write --out")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--sweep", action="store_true",
                   help="traced scaling sweep (not a gated workload)")
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse()
    if args.suite or args.compare or args.sweep:
        import suite
        sys.exit(suite.main(args))
    if args.workload is None:
        sys.exit("bench: --workload is required")
    sys.exit(run(args))
