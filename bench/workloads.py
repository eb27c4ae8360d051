"""Seeded workloads of the fairshift benchmark and the oracle for each job.

A workload is a fixed list of CLI jobs.  The seed drives the classify and
simulate streams and the graph-map spec files that ``make_inputs`` writes,
so the program only ever sees generated inputs.  Each job carries an
oracle that reads the job's exit code and JSON report and returns the
list of problems it finds; an empty list means the job is correct.

The oracles check verdicts and exact or closed-form quantities only, never
values drawn from a seeded random stream, so a documented change of stream
does not fail them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

LOG2 = math.log(2)
FACTORIAL_ENTROPY = 1.0475026           # README: factorial-chain fair entropy
DENDRITE_ENTROPY = 1.7406498            # factorial value plus log 2
ENTROPY_TOL = 1e-6

WORKLOADS = ("exact-models", "trichotomy", "trajectories")

# one-line reasons, mirrored in BENCHMARK.json
WHY = {
    "exact-models": "exact Fraction geometry: partition scans, the Lebesgue "
                    "check and spec loading, with no Monte Carlo and little CSV",
    "trichotomy": "recurrence: exact series, Monte Carlo returns and the "
                  "window solve, with all three verdict classes",
    "trajectories": "write-heavy backward sampling on all three sampler "
                    "paths, dominated by CSV emission",
}

# the job whose cold start is timed as setup_s; each one runs a solve
SETUP_JOB = {
    "exact-models": "graph-spec-0",
    "trichotomy": "analyze-unbiased-walk",
    "trajectories": "simulate-factorial-chain",
}

CHAINS = ("unbiased-walk", "biased-walk", "five-three", "origin-broadcast",
          "factorial-chain")
POSITIVE = {"origin-broadcast": LOG2, "factorial-chain": FACTORIAL_ENTROPY}
VERDICT = {"unbiased-walk": "null-recurrent", "biased-walk": "transient",
           "five-three": "null-recurrent",
           "origin-broadcast": "positive-recurrent",
           "factorial-chain": "positive-recurrent"}

GRAPH_SPECS = 4
ARC_RANGE = (16, 48)
LEG_RANGE = (1, 5)

Oracle = Callable[[int, dict], list]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``fairshift <argv> --out <dir>``."""

    name: str
    argv: tuple[str, ...]
    report: str                         # JSON report file the job writes
    oracle: Oracle

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# generated inputs

def graph_spec(rng: random.Random, name: str) -> dict:
    """A random irreducible graph-map spec document.

    Arc ``order[k]`` sends its first leg onto ``order[k+1]``, closing a
    cycle through every arc, so the arc graph is strongly connected and
    so is the refined (arc, leg) chain.  The other legs pick targets and
    orientations at random.
    """
    arcs = list(range(1, rng.randint(*ARC_RANGE) + 1))
    order = arcs[:]
    rng.shuffle(order)
    nxt = {a: order[(k + 1) % len(order)] for k, a in enumerate(order)}
    transitions = {}
    for a in arcs:
        legs = [nxt[a]] + [rng.choice(arcs)
                           for _ in range(rng.randint(*LEG_RANGE) - 1)]
        rng.shuffle(legs)
        transitions[str(a)] = [[b, rng.random() < 0.5] for b in legs]
    return {"schema_version": 1, "kind": "graph", "name": name,
            "arcs": arcs, "transitions": transitions}


def make_inputs(workload: str, seed: int, inputs_dir: str) -> list[Job]:
    """Write the workload's generated input files and return its jobs."""
    if workload == "exact-models":
        os.makedirs(inputs_dir, exist_ok=True)
        rng = random.Random(seed)
        jobs = [
            Job("graph-dendrite", ("graph", "--family", "dendrite",
                                   "--window", "12"),
                "graph.json", _graph_oracle(DENDRITE_ENTROPY)),
            Job("fairmodel-staircase", ("fairmodel", "--map-family",
                                        "staircase"),
                "fairmodel.json", _fairmodel_oracle(FACTORIAL_ENTROPY)),
            Job("fairmodel-tent", ("fairmodel", "--map-family", "tent"),
                "fairmodel.json", _fairmodel_oracle(LOG2)),
        ]
        for k in range(GRAPH_SPECS):
            path = os.path.join(inputs_dir, f"graph-spec-{k}.json")
            with open(path, "w") as fh:
                json.dump(graph_spec(rng, f"random-{seed}-{k}"), fh,
                          indent=1, sort_keys=True)
            jobs.append(Job(f"graph-spec-{k}", ("graph", path), "graph.json",
                            _graph_oracle(None)))
        return jobs
    if workload == "trichotomy":
        jobs = []
        for c in CHAINS:
            jobs += [
                Job(f"classify-{c}", ("classify", c, "--seed", str(seed)),
                    "classify.json", _classify_oracle(c)),
                Job(f"analyze-{c}", ("analyze", c, "--depth", "4"),
                    "analyze.json", _measure_oracle(c, "PositiveRecurrent")),
                Job(f"verify-{c}", ("verify", c, "--depth", "4"),
                    "verify.json", _measure_oracle(c, "pass")),
            ]
        return jobs
    if workload == "trajectories":
        runs = (("origin-broadcast", 500_000, 1), ("unbiased-walk", 500_000, 1),
                ("five-three", 200_000, 1), ("factorial-chain", 100_000, 2))
        return [Job(f"simulate-{c}",
                    ("simulate", c, "--seed", str(seed), "--length", str(n),
                     "--paths", str(p)),
                    "simulate.json", _simulate_oracle(c, n, p))
                for c, n, p in runs]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


# ---------------------------------------------------------------------------
# oracles

def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _close(value, target: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= ENTROPY_TOL


def _graph_oracle(entropy: float | None) -> Oracle:
    def check(code: int, rep: dict) -> list:
        p: list = []
        _expect(p, code == 0, f"exit {code}")
        _expect(p, rep.get("verdict") == "PositiveRecurrent",
                f"verdict {rep.get('verdict')!r}")
        _expect(p, rep.get("pipelines_agree") is True, "pipelines disagree")
        gap = rep.get("pipeline_entropy_gap")
        _expect(p, isinstance(gap, (int, float)) and gap <= ENTROPY_TOL,
                f"pipeline_entropy_gap {gap!r}")
        if entropy is not None:
            h = rep.get("fair_entropy_shift_side")
            _expect(p, _close(h, entropy), f"fair entropy {h!r}")
        return p
    return check


def _fairmodel_oracle(entropy: float) -> Oracle:
    def check(code: int, rep: dict) -> list:
        p: list = []
        _expect(p, code == 0, f"exit {code}")
        _expect(p, rep.get("fairness_exact_zero") is True,
                "fairness not exactly zero")
        h = rep.get("fair_entropy")
        _expect(p, _close(h, entropy), f"fair entropy {h!r}")
        return p
    return check


def _classify_oracle(chain: str) -> Oracle:
    def check(code: int, rep: dict) -> list:
        p: list = []
        _expect(p, code == 0, f"exit {code}")
        _expect(p, rep.get("verdict") == VERDICT[chain],
                f"verdict {rep.get('verdict')!r}")
        return p
    return check


def _measure_oracle(chain: str, positive_verdict: str) -> Oracle:
    """analyze / verify: a fair measure with the right entropy, or none."""
    def check(code: int, rep: dict) -> list:
        p: list = []
        _expect(p, code == 0, f"exit {code}")
        if chain in POSITIVE:
            _expect(p, rep.get("verdict") == positive_verdict,
                    f"verdict {rep.get('verdict')!r}")
            h = rep.get("fair_entropy")
            _expect(p, _close(h, POSITIVE[chain]), f"fair entropy {h!r}")
        else:
            _expect(p, rep.get("verdict") == "NoSummableSolution",
                    f"verdict {rep.get('verdict')!r}")
        return p
    return check


def _simulate_oracle(chain: str, length: int, paths: int) -> Oracle:
    def check(code: int, rep: dict) -> list:
        p: list = []
        _expect(p, code == 0, f"exit {code}")
        eq = rep.get("equidistribution", "missing")
        _expect(p, (eq is not None) == (chain in POSITIVE)
                and eq != "missing", f"equidistribution {eq!r}")
        per = rep.get("per_path") or []
        _expect(p, len(per) == paths, f"{len(per)} paths")
        return p
    return check
