"""Spans around the calls into each fairshift layer, from outside the package.

``Tracer.install`` replaces the public functions listed in ``SPANS`` by
timing wrappers wherever a ``fairshift`` module binds them, so a call from
``fairshift.cli`` and a call from a sibling module (``classify`` ->
``solve_stationary``) are both recorded and nest.  The two hot
``TransitionRuleSet`` query methods are wrapped on the class.
``uninstall`` puts the originals back.

Every span records its name, start, end, parent span and job id in flat
arrays that stay in memory until ``write`` is called.  A span's self time
is its duration minus the part of it that its child spans cover.  A job's
root span is the ``cli`` layer; ``job_metrics`` compares the sum of a job's
layer self times with the job's wall time as the caller timed it.

Which end-to-end metric each layer's numbers should move, and where:

    chain       classify_s on trichotomy; graph_s on exact-models
    families    none today; shows work moved into construction
    measure     graph_s on exact-models; wall_s on trichotomy; setup_s
                (the lazy scipy import in the first solve)
    recurrence  classify_s on trichotomy
    simulate    simulate_s and peak_rss_mb on trajectories
    interval    graph_s and fairmodel_s on exact-models
    graph       graph_s and peak_rss_mb on exact-models
    io          simulate_s on trajectories; nothing on trichotomy
    cli         wall_s on every workload
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("chain", "families", "measure", "recurrence", "simulate",
          "interval", "graph", "io", "cli")

ROOT_SPAN = "cli.main"
SPANS_HEADER = "pass,span,parent,job,name,start_s,end_s,raised\n"


def _solve_counts(out, args, kwargs):
    windows = out.diagnostics.windows if out.diagnostics else ()
    return {"measure.solve_windows": len(windows),
            "measure.solve_states": sum(w["size"] for w in windows)}


def _trials(out, args, kwargs):
    return {"recurrence.mc_trials":
            kwargs["trials"] if "trials" in kwargs else args[1]}


def _file_bytes(metric):
    def count(out, args, kwargs):
        return {metric: os.path.getsize(args[0])}
    return count


# (module, attribute, span name, counter).  Functions sharing a span name
# are summed into one metric.  A counter maps (return value, args, kwargs)
# to increments; it runs only when the call returns normally.
SPANS = (
    ("chain", "TransitionRuleSet.predecessors", "chain.predecessors", None),
    ("chain", "TransitionRuleSet.successors", "chain.successors", None),
    ("chain", "check_irreducible", "chain.check_irreducible", None),
    ("chain", "build_backward_kernel", "chain.build_backward_kernel", None),
    ("families", "chain_by_name", "families.build", None),
    ("families", "factorial_stationary", "families.build", None),
    ("families", "full_shift_stationary", "families.build", None),
    ("measure", "solve_stationary", "measure.solve_stationary", _solve_counts),
    ("measure", "fair_measure_from", "measure.fair_measure_from", None),
    ("measure", "check_fair_on_cylinders", "measure.check_fair_on_cylinders",
     None),
    ("measure", "fair_entropy", "measure.entropy", None),
    ("measure", "entropy_tail_estimate", "measure.entropy", None),
    ("measure", "integral_log_c", "measure.entropy", None),
    ("measure", "verify_stationary", "measure.verify_stationary", None),
    ("measure", "find_atomic_fair_measures",
     "measure.find_atomic_fair_measures", None),
    ("recurrence", "classify", "recurrence.classify", None),
    ("recurrence", "series_test", "recurrence.series_test",
     lambda out, a, k: {"recurrence.series_terms": len(out.terms)}),
    ("recurrence", "monte_carlo_return", "recurrence.monte_carlo_return",
     _trials),
    ("simulate", "sample_paths", "simulate.sample_paths",
     lambda out, a, k: {"simulate.steps":
                        sum(p.states.size - 1 for p in out)}),
    ("simulate", "geo_mean_series", "simulate.geo_mean_series", None),
    ("simulate", "equidistribution_report",
     "simulate.equidistribution_report", None),
    ("interval", "transition_matrix", "interval.transition_matrix", None),
    ("interval", "lebesgue_fair_model", "interval.lebesgue_fair_model",
     lambda out, a, k: {"interval.model_pieces": out.piece_count()}),
    ("interval", "check_lebesgue_fair", "interval.check_lebesgue_fair", None),
    ("interval", "rohlin_entropy", "interval.rohlin_entropy", None),
    ("interval", "merged_segments", "interval.merged_segments", None),
    ("graph", "dendrite_example", "graph.dendrite_example", None),
    ("graph", "cut_and_paste", "graph.cut_and_paste", None),
    ("graph", "refined_transition_matrix", "graph.refined_transition_matrix",
     lambda out, a, k: {"graph.refined_states": out.hi + 1}),
    ("io", "load_spec", "io.load_spec", None),
    ("io", "write_csv", "io.write_csv", _file_bytes("io.csv_bytes")),
    ("io", "write_json", "io.write_json", _file_bytes("io.json_bytes")),
)

# span names whose call count is reported, under the given metric
CALL_COUNTS = {
    "chain.predecessors": "chain.predecessors_calls",
    "chain.successors": "chain.successors_calls",
    "measure.solve_stationary": "measure.solve_calls",
    "recurrence.series_test": "recurrence.series_test_calls",
}

COUNTERS = ("measure.solve_windows", "measure.solve_states",
            "recurrence.series_terms", "recurrence.mc_trials",
            "simulate.steps", "interval.model_pieces", "graph.refined_states",
            "io.csv_bytes", "io.json_bytes")


# whole-pass numbers of a traced run, reported next to the layer metrics
TRACE_METRICS = ("trace.untraced_ref_s", "trace.traced_ref_s",
                 "trace.overhead", "trace.spans")


def unit(metric: str) -> str:
    if metric == "trace.overhead":
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def span_names() -> list[str]:
    return sorted({name for _m, _a, name, _c in SPANS})


def per_layer_metric_names() -> list[str]:
    """Every metric ``Tracer.job_metrics`` reports, in a stable order."""
    names = [f"{n}_s" for n in span_names()]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{layer}.raised" for layer in LAYERS]
    names += sorted(CALL_COUNTS.values()) + list(COUNTERS) + ["cli.jobs"]
    return names


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the time its children cover.

    Spans are indexed in the order they started, so the children of a span
    arrive sorted by start; overlapping children are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = {}                          # parent -> furthest child end so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), min(end[i], end[p]))
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.name = array("q")
        self.raised = array("b")
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.job_names: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str, counter=None):
        nid = self._intern(span)
        start, end, parent, job, name, raised = (
            self.start, self.end, self.parent, self.job, self.name,
            self.raised)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            job.append(len(self.job_names) - 1)
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                jid = len(self.job_names) - 1
                for key, value in counter(out, args, kwargs).items():
                    counts[(jid, key)] += value
            return out

        return traced

    def run_job(self, job_name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of a new job."""
        self.job_names.append(job_name)
        return self.wrap(fn, ROOT_SPAN)(*args)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS wherever fairshift binds it."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "fairshift"
                                      or k.startswith("fairshift."))]
        for mod_name, attr, span, counter in SPANS:
            mod = sys.modules[f"fairshift.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], span,
                                                 counter))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, span, counter)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results --------------------------------------------------------

    def job_metrics(self, job_walls) -> tuple[list[dict], float]:
        """Per-job metric dicts, and the largest per-job gap between the
        job's wall time, timed by the caller around ``run_job``, and the
        sum of its spans' self times."""
        selfs = self_times(self.start, self.end, self.parent)
        jobs = [defaultdict(float) for _ in self.job_names]
        for i, s in enumerate(selfs):
            span = self.names[self.name[i]]
            layer = span.split(".")[0]
            m = jobs[self.job[i]]
            if span != ROOT_SPAN:
                m[f"{span}_s"] += s
            m[f"{layer}.self_s"] += s
            m[f"{layer}.raised"] += self.raised[i]
            if span in CALL_COUNTS:
                m[CALL_COUNTS[span]] += 1
        for (jid, key), value in self.counts.items():
            jobs[jid][key] += value
        gap = 0.0
        for jid, m in enumerate(jobs):
            m["cli.jobs"] = 1
            total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
            gap = max(gap, abs(total - job_walls[jid]))
        names = per_layer_metric_names()
        return [{k: m.get(k, 0) for k in names} for m in jobs], gap

    def write(self, fh, pass_index: int) -> None:
        """Write this pass's spans as CSV rows to an open text file."""
        for i in range(len(self.name)):
            fh.write(f"{pass_index},{i},{self.parent[i]},"
                     f"{self.job_names[self.job[i]]},"
                     f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                     f"{self.end[i]:.9f},{self.raised[i]}\n")
