"""Whole-benchmark modes of ``run.py``: suite, compare and scaling sweep.

``--suite`` runs every workload once per seed with ``--trace 0`` and once
with ``--trace 1`` (first seed), each in its own process, prints every
end-to-end metric with its unit, the raw wall times (``wall_s``,
``setup_wall_s`` and one ``<command>_s`` per CLI command) and the fail
ratio, and writes a result file with the machine, the seeds, the medians
and quartiles and the per-layer numbers.

``--compare OLD NEW`` prints two result files side by side: end-to-end
medians and quartiles per workload, then per-layer deltas as
``layer X: a → b``.  It flags a workload where a reference time and the
raw wall time it comes from (``REF_OF_RAW``) disagree, because a change
that alters the speed probe's own loop moves only the reference time
(see ``speed.py``).

``--sweep`` is a one-shot, traced-only scaling sweep over problem size
(dendrite window, staircase refinement depth, path length).  It is not a
gated workload: single points take tens of seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import run
from tracer import Tracer
from workloads import WORKLOADS

SWEEP = (
    ("graph-dendrite-w8", ("graph", "--family", "dendrite", "--window", "8")),
    ("graph-dendrite-w12", ("graph", "--family", "dendrite", "--window", "12")),
    ("graph-dendrite-w16", ("graph", "--family", "dendrite", "--window", "16")),
    ("fairmodel-staircase-d2", ("fairmodel", "--map-family", "staircase",
                                "--depth", "2")),
    ("fairmodel-staircase-d3", ("fairmodel", "--map-family", "staircase",
                                "--depth", "3")),
    ("simulate-origin-broadcast-1e5", ("simulate", "origin-broadcast",
                                       "--length", "100000")),
    ("simulate-origin-broadcast-1e6", ("simulate", "origin-broadcast",
                                       "--length", "1000000")),
)


# reference-time metric -> the raw wall time it is converted from
REF_OF_RAW = {"wall_ref_s": "wall_s", "setup_s": "setup_wall_s"}


def machine(seeds=None, runs=None) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    out = {"nproc": os.cpu_count(), "cpu": cpu,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    if seeds is not None:
        out.update(seeds=list(seeds), runs_per_workload=runs)
    return out


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _child(workload: str, seed: int, seconds: float, trace: int,
           record: str) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--record", record]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}")
    with open(record) as fh:
        return json.load(fh)


def suite(seeds: list[int], seconds: float, out: str) -> dict:
    work = os.path.join(run.WORK, "suite")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = {"machine": machine(seeds, len(seeds)), "seconds": seconds,
              "workloads": {}}
    for w in WORKLOADS:
        recs = [_child(w, s, seconds, 0, os.path.join(work, f"{w}-{s}.json"))
                for s in seeds]
        traced = _child(w, seeds[0], seconds, 1,
                        os.path.join(work, f"{w}-trace.json"))
        e2e = {}
        for name, m in recs[0]["result"]["metrics"].items():
            e2e[name] = {"unit": m["unit"], **summary(
                [r["result"]["metrics"][name]["value"] for r in recs])}
        raw = {name: {"unit": "s", **summary([r["raw"][name] for r in recs])}
               for name in recs[0]["raw"]}
        attempted = sum(r["result"]["attempted"] for r in recs + [traced])
        failed = sum(r["result"]["failed"] for r in recs + [traced])
        result["workloads"][w] = {
            "end_to_end": e2e, "raw": raw,
            "fail_ratio": failed / attempted, "attempted": attempted,
            "problems": [p for r in recs + [traced] for p in r["problems"]],
            "per_layer": traced["result"]["metrics"],
            "jobs": traced["jobs"],
        }
        print_workload(w, result["workloads"][w], seeds)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"result file: {out}")
    return result


def _fmt(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def print_workload(w: str, r: dict, seeds) -> None:
    print(f"{w}  (seeds {' '.join(map(str, seeds))}; median [q1, q3])")
    for name, s in r["end_to_end"].items():
        print(f"  {name:<14} {_fmt(s)} {s['unit']}")
    for name, s in r["raw"].items():
        print(f"  {name:<14} {_fmt(s)} s  (raw wall time)")
    print(f"  {'fail_ratio':<14} {r['fail_ratio']:.4g} 1  "
          f"({r['attempted']} jobs)")
    over = r["per_layer"].get("trace.overhead")
    if over is not None:
        print(f"  {'trace overhead':<14} {100 * over['value']:+.1f} %")
    for p in r["problems"]:
        print(f"  FAIL {p}")


def bounds() -> dict[str, float]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def disagreements(old: dict, new: dict, bound: dict) -> list[str]:
    """Reference times whose move between two workload results differs
    from their raw wall time's by more than the metric's bound, or goes
    the other way while both move by more than a third of it (the raw
    time alone drifts that far between two sets of runs of one commit)."""
    out = []
    for ref, raw in REF_OF_RAW.items():
        try:
            d_ref = new["end_to_end"][ref]["median"] / \
                old["end_to_end"][ref]["median"] - 1
            d_raw = new["raw"][raw]["median"] / old["raw"][raw]["median"] - 1
        except KeyError:
            continue
        b = bound[ref]
        if abs(d_ref - d_raw) > b or (
                d_ref * d_raw < 0 and min(abs(d_ref), abs(d_raw)) > b / 3):
            out.append(f"{ref} moved {100 * d_ref:+.1f} % but {raw} moved "
                       f"{100 * d_raw:+.1f} %: check whether the change "
                       f"alters the speed probe (speed.py)")
    return out


def compare(old_path: str, new_path: str) -> None:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    bound = bounds()
    for label, r in (("old", old), ("new", new)):
        m = r["machine"]
        print(f"{label}: {m['cpu']}, nproc {m['nproc']}, python "
              f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
              f"seeds {m['seeds']}, {r['seconds']} s per run")
    for w in WORKLOADS:
        a, b = old["workloads"].get(w), new["workloads"].get(w)
        if a is None or b is None:
            continue
        print(f"{w}  (median [q1, q3]: old | new)")
        for section in ("end_to_end", "raw"):
            for name, sa in a[section].items():
                sb = b[section].get(name)
                if sb is None:
                    continue
                delta = (sb["median"] / sa["median"] - 1) * 100
                print(f"  {name:<14} {_fmt(sa)} | {_fmt(sb)} {sa['unit']}"
                      f"  ({delta:+.1f} %)")
        print(f"  fail_ratio     {a['fail_ratio']:.4g} | "
              f"{b['fail_ratio']:.4g}")
        for line in disagreements(a, b, bound):
            print(f"  CHECK {line}")
        for name, ma in a["per_layer"].items():
            mb = b["per_layer"].get(name)
            if mb is None or (ma["value"] == 0 and mb["value"] == 0):
                continue
            print(f"  layer {name}: {ma['value']:.4g} → {mb['value']:.4g} "
                  f"{ma['unit']}")


def sweep(out: str) -> dict:
    cli = run.import_cli()
    work = os.path.join(run.WORK, "sweep")
    shutil.rmtree(work, ignore_errors=True)
    points = {}
    for name, argv in SWEEP:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.run_job(name, cli.main,
                                      list(argv) + ["--out",
                                                    os.path.join(work, name)])
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        (metrics,), _gap = tracer.job_metrics([wall])
        points[name] = {"argv": list(argv), "exit": code, "wall_s": wall,
                        "metrics": {k: v for k, v in metrics.items() if v}}
        top = sorted(((v, k) for k, v in metrics.items()
                      if k.endswith("_s") and not k.endswith(".self_s")),
                     reverse=True)[:3]
        print(f"{name:<32} exit {code}  wall {wall:8.3f} s  " + ", ".join(
            f"{k} {v:.3f}" for v, k in top))
    result = {"machine": machine(), "points": points}
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"result file: {out}")
    return result


def main(args) -> int:
    os.makedirs(run.WORK, exist_ok=True)
    if args.compare:
        compare(*args.compare)
    elif args.sweep:
        sweep(args.out or os.path.join(run.WORK, "sweep.json"))
    else:
        result = suite(args.seeds, args.seconds,
                       args.out or os.path.join(run.WORK, "results.json"))
        if any(r["problems"] for r in result["workloads"].values()):
            return 1
    return 0
