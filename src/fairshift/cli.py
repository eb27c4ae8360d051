"""Command-line front end.

Six subcommands share one convention: each returns its JSON report
(after writing any CSV artifacts into --out), and ``main`` writes the
report, prints a one-line summary and exits with the code ``EXIT`` gives
the report's verdict: 0 for a definite answer, negative ones included,
2 for inconclusive evidence and 1 for a failed verify check, as for
rejected input or flags.  Reports embed the full configuration and
never include timestamps, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import io as fio
from .chain import (Abs, InfinitePreimages, SchemaError, StuckWalk,
                    TransitionRuleSet, UnresolvableState, build_backward_kernel,
                    check_irreducible, strongly_connected_components)
from .families import (factorial_chain, factorial_stationary,
                       full_shift_stationary)
from .graph import TameGraphMapSpec, cut_and_paste, refined_transition_matrix
from .interval import (MarkovIntervalMap, NotMarkov, check_lebesgue_fair,
                       lebesgue_fair_model, merged_segments, rohlin_entropy,
                       transition_matrix)
from .measure import (FairMeasure, SingularWindow, StationaryVector,
                      WindowExhausted, check_fair_on_cylinders,
                      entropy_tail_estimate, fair_entropy, fair_measure_from,
                      find_atomic_fair_measures, integral_log_c,
                      solve_stationary, verify_stationary)
from .recurrence import ClassifyPolicy, classify
from .simulate import (equidistribution_report, geo_mean_series,
                       geo_mean_target, sample_paths)

__all__ = ["main"]

EXIT_SPEC = 1
# the exit code of every verdict a report can carry; simulate has none yet
EXIT = {None: 0, "PositiveRecurrent": 0, "NoFairMeasure": 0, "Reducible": 0,
        "NoSummableSolution": 0, "NoFairModel": 0, "ModelBuilt": 0,
        "positive-recurrent": 0, "null-recurrent": 0, "transient": 0,
        "pass": 0, "Unknown": 2, "unknown": 2, "fail": EXIT_SPEC}


class _Parser(argparse.ArgumentParser):
    # flag mistakes are spec errors (exit 1); argparse's default is 2,
    # which this tool reserves for inconclusive verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def _count(least: int):
    """Argument type: an integer no smaller than ``least``."""
    def count(text: str) -> int:
        value = int(text)       # argparse reports "invalid count value"
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return count


def _tolerance(text: str) -> float:
    """Argument type: a finite number above 0; 1e-400, which reads as 0,
    is refused too."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {text!r}")
    return value


# parse_args returns a fresh namespace each call and never writes to the
# parser, so one parser serves every call of main in a process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fairshift",
                description="fair measures, fair entropy and Lebesgue fair "
                            "models for countable Markov systems")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, window_help):
        sp.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
        sp.add_argument("--window", type=_count(0), default=None, metavar="N",
                        help=window_help)
        sp.add_argument("--tolerance", type=_tolerance, default=1e-10,
                        metavar="T", help="stationary solver tolerance")

    depth_help = ("cylinder depth of the fairness check (default 2); "
                  "recorded, but it does not change the answer, as a "
                  "word's defect is a multiple of its last row's defect")

    a = sub.add_parser("analyze", help="stationary vector, fair entropy and "
                                       "measure diagnostics of a chain")
    a.add_argument("input", help="spec file or builtin name "
                                 f"({', '.join(fio.BUILTINS)})")
    common(a, "window of the rows shown and of the probes (default 64)")
    a.add_argument("--depth", type=_count(1), default=2,
                   help=depth_help)
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("classify", help="recurrence trichotomy with solver, "
                                        "series and Monte Carlo evidence")
    c.add_argument("input")
    common(c, "solver window cap (default 16384)")
    c.add_argument("--trials", type=_count(1), default=20_000)
    c.add_argument("--horizon", type=_count(1), action="append", metavar="H",
                   help="Monte Carlo horizon; repeat for a schedule "
                        "(default 100 1000 10000)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--nmax", type=_count(1), default=None,
                   help="number of exact series terms")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("simulate", help="backward trajectories, geometric "
                                        "means and equidistribution")
    s.add_argument("input")
    common(s, "solver window cap for the reference measure")
    s.add_argument("--start", type=int, default=None,
                   help="start state (default: first state of the domain)")
    s.add_argument("--length", type=_count(0), default=10_000)
    s.add_argument("--paths", type=_count(1), default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--depth", type=_count(1), default=1,
                   help="cylinder depth for the discrepancy summary")
    s.set_defaults(func=cmd_simulate)

    f = sub.add_parser("fairmodel", help="build the piecewise affine model "
                                         "for which Lebesgue measure is fair")
    f.add_argument("input", nargs="?", default=None,
                   help="interval-map spec file or builtin name")
    f.add_argument("--map-family", choices=fio.builtins_of("interval-map"),
                   help="builtin map instead of a spec file")
    common(f, "bound on emitted pieces for infinite partitions (default 30)")
    f.add_argument("--depth", type=_count(1), default=2,
                   help="word length of the fairness check (default 2); "
                        "recorded, but depth 1 decides every depth, as an "
                        "affine piece pulls a deeper cell back in "
                        "proportion to its length")
    f.set_defaults(func=cmd_fairmodel)

    g = sub.add_parser("graph", help="cut-and-paste a graph map into an "
                                     "interval model and a refined chain")
    g.add_argument("input", nargs="?", default=None,
                   help="graph spec file or builtin name")
    g.add_argument("--family", choices=fio.builtins_of("graph"),
                   help="builtin graph map instead of a spec file")
    common(g, "blade window of the builtin dendrite map (default 12)")
    g.set_defaults(func=cmd_graph)

    v = sub.add_parser("verify", help="invariant battery: kernel columns, "
                                      "irreducibility, residuals, fairness, "
                                      "entropy identity")
    v.add_argument("input")
    common(v, "state window for the checks (default 64)")
    v.add_argument("--depth", type=_count(1), default=2, help=depth_help)
    v.set_defaults(func=cmd_verify)
    return p


# ---------------------------------------------------------------------------
# input handling

def _load_input(arg: str, kind: str | None = None, window: int | None = None,
                files: bool = True):
    """The spec file or builtin ``arg`` names (only a builtin unless
    ``files``), of ``kind`` when one is given; ``window`` is a builtin's
    parameter, which a spec file refuses."""
    if not (files and os.path.exists(arg)):
        doc = {"family": arg, **({} if window is None else {"window": window})}
        try:
            return fio.family(doc, kind, flags=True)
        except fio.ParseError as exc:
            if exc.field not in ("family", "kind"):
                raise
            of = f" of kind {kind}" if kind else ""
            names = fio.builtins_of(kind) if kind else fio.BUILTINS
            raise fio.ParseError(f"{arg!r} is neither a file nor a builtin "
                                 f"name{of}; builtins{of}: "
                                 f"{', '.join(names)}") from None
    if window is not None:
        raise fio.ParseError("--window sets a builtin's parameter; a spec "
                             "file is solved whole", field="--window")
    spec = fio.load_spec(arg)
    want = {"interval-map": MarkovIntervalMap, "graph": TameGraphMapSpec}
    if kind is not None and not isinstance(spec, want[kind]):
        raise fio.ParseError(f"{arg!r} is no {kind} spec", field="kind")
    return spec


def _as_chain(obj) -> TransitionRuleSet:
    if isinstance(obj, TransitionRuleSet):
        return obj
    if isinstance(obj, MarkovIntervalMap):
        return transition_matrix(obj)
    return refined_transition_matrix(obj)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _report(args, subject: tuple[str, str], **config) -> dict:
    """The header of a report: the schema version, the configuration (the
    command, its input and tolerance, then ``config``, which may override
    the input's label) and the subject, such as ``("chain", m.name)``."""
    key, name = subject
    return {"schema_version": fio.SCHEMA_VERSION,
            "config": {"command": args.command, "input": args.input,
                       "tolerance": args.tolerance, **config},
            key: name}


class _Stop(Exception):
    """Ends a command early with its report file, report and summary line."""


def _irreducible(m: TransitionRuleSet, window: int) -> tuple:
    """``check_irreducible`` over every state of a finite domain, and on an
    infinite one, where no window holds every state, over the states
    within ``min(window, 24)`` of 0, widened to reach the domain."""
    bound = (max(abs(m.lo), abs(m.hi)) if m.domain_finite()
             else m.reaching(min(window, 24)))
    return check_irreducible(m, bound)


def _solve(args, name: str, report: dict, kernel, no_solution,
           **kw) -> FairMeasure:
    """The fair measure of the kernel's stationary vector, or the end of
    the command by ``_Stop`` with its report file ``name``: with verdict
    ``Unknown`` when the window budget runs out, or with the fields and
    summary line ``no_solution(sol)`` returns when no summable one exists."""
    try:
        pi = solve_stationary(kernel, tolerance=args.tolerance, **kw)
    except WindowExhausted as exc:
        report["verdict"] = "Unknown"
        report["diagnostics"] = exc.diagnostics.as_dict()
        raise _Stop(name, report, "verdict Unknown")
    if isinstance(pi, StationaryVector):
        return fair_measure_from(pi, kernel)
    fields, line = no_solution(pi)
    report.update(fields)
    raise _Stop(name, report, line)


# ---------------------------------------------------------------------------
# analyze

def _forward_rows(mu, states) -> dict:
    return {str(i): {str(j): float(p) for j, p in row}
            for i in states if (row := mu.row(i))}


def _analyze_classes(m: TransitionRuleSet, tolerance: float) -> dict:
    """Per-class entropies of a reducible finite chain, plus their supremum."""
    bound = max(abs(m.lo), abs(m.hi))
    states = m.states(bound)
    succ = {i: m.successors(i) for i in states}
    classes = []
    best = None
    for comp in strongly_connected_components(states, succ):
        closed = set(comp).issuperset(j for i in comp for j in succ[i])
        entry: dict = {"states": comp, "closed": closed}
        if closed:
            relabel = {s: k for k, s in enumerate(comp)}
            sub = TransitionRuleSet(
                lo=0, hi=len(comp) - 1, head=len(comp),
                explicit={relabel[i]: tuple(Abs(relabel[j]) for j in succ[i])
                          for i in comp},
                name=f"{m.name}-class")
            kernel = build_backward_kernel(sub)
            pi = solve_stationary(kernel, tolerance=tolerance)
            if isinstance(pi, StationaryVector):
                h = fair_entropy(fair_measure_from(pi, kernel))
                entry["fair_entropy"] = h
                best = h if best is None else max(best, h)
        classes.append(entry)
    return {"classes": classes, "supremum_entropy": best}


def cmd_analyze(args) -> tuple:
    m = _as_chain(_load_input(args.input))
    window = args.window if args.window is not None else 64
    # each window around 0 is widened to reach a domain away from 0
    disp = m.reaching(min(window, 16))
    report = _report(args, ("chain", m.name), window=window, depth=args.depth)

    witness = m.divergent_witness()
    if witness is not None:
        report["verdict"] = "NoFairMeasure"
        report["reason"] = (f"state {witness} has infinitely many "
                            "preimages, so no backward transition row "
                            "exists there and no fair measure can be built")
        return "analyze.json", report, "verdict NoFairMeasure"

    irr, pair = _irreducible(m, window)
    report["irreducible_on_window"] = irr
    if not irr:
        report["disconnected_pair"] = list(pair)
        if m.domain_finite():
            report["per_class"] = _analyze_classes(m, args.tolerance)
            report["verdict"] = "Reducible"
            report["fair_entropy"] = report["per_class"]["supremum_entropy"]
            return ("analyze.json", report,
                    "verdict Reducible (per-class entropies reported)")
        report["note"] = ("chain is reducible on the window; verdicts "
                          "below describe the component of the origin")

    kernel = build_backward_kernel(m)
    report["atomic_orbits"] = [
        list(o.states) for o in
        find_atomic_fair_measures(kernel, 6, m.reaching(min(window, 64)))]
    mu = _solve(args, "analyze.json", report, kernel, lambda sol: (
        {"verdict": "NoSummableSolution", "reason": sol.note,
         "diagnostics": sol.diagnostics.as_dict(),
         "note": "; ".join(filter(None, [report.get("note"), (
             "no summable stationary vector, hence no fair "
             "probability measure; run `classify` for the "
             "null-recurrent / transient split")]))},
        "verdict NoSummableSolution"), max_window=max(window, 2 ** 14))
    pi = mu.pi
    h = fair_entropy(mu)
    tail = entropy_tail_estimate(mu)
    report.update({
        "verdict": "PositiveRecurrent",
        "pi": {str(i): pi.entry(i) for i in pi.support() if abs(i) <= disp},
        "P": _forward_rows(mu, [i for i in pi.support() if abs(i) <= disp]),
        "fair_entropy": h,
        "entropy_tail_bound": tail,
        "integral_log_c": integral_log_c(mu),
        "fairness_max_violation": float(check_fair_on_cylinders(mu)),
        "diagnostics": pi.diagnostics.as_dict() if pi.diagnostics else
                       {"provenance": pi.provenance},
        "tail_mass_bound": pi.tail_mass_bound,
        "solver_window": pi.window,
    })
    support = pi.support()
    fio.write_csv(os.path.join(_outdir(args), "stationary.csv"),
                  ["state", "weight", "probability"],
                  [support, [pi.weight(i) for i in support],
                   [pi.entry(i) for i in support]])
    return ("analyze.json", report,
            f"verdict PositiveRecurrent fair_entropy {h:.12g}")


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> tuple:
    m = _as_chain(_load_input(args.input))
    kernel = build_backward_kernel(m)
    kw: dict = {"tolerance": args.tolerance, "seed": args.seed,
                "trials": args.trials}
    if args.window is not None:
        kw["max_window"] = args.window
    if args.nmax is not None:
        kw["series_nmax"] = args.nmax
        kw["series_nmax_mixed"] = args.nmax
    if args.horizon:
        kw["horizons"] = tuple(sorted(set(args.horizon)))
    policy = ClassifyPolicy(**kw)
    verdict = classify(kernel, policy)

    series = verdict.series
    n_max = len(series.terms) - 1
    fio.write_csv(os.path.join(_outdir(args), "series.csv"),
                  ["n", "term", "partial_sum"],
                  [range(n_max + 1), [float(t) for t in series.terms],
                   [float(s) for s in series.partial_sums]])

    report = {
        **_report(args, ("chain", m.name), trials=policy.trials,
                  horizons=list(policy.horizons), seed=policy.seed,
                  nmax=n_max, window=policy.max_window),
        "verdict": verdict.verdict,
        "has_fair_measure": verdict.has_fair_measure,
        "evidence": verdict.evidence,
    }
    return "classify.json", report, f"verdict {verdict.verdict}"


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> tuple:
    m = _as_chain(_load_input(args.input))
    kernel = build_backward_kernel(m)
    start = args.start
    if start is None:
        start = 0 if m.contains(0) else m.spiral(1)[0]
    elif not m.contains(start):
        raise fio.ParseError(f"start state {start} outside the domain "
                             f"of {m.name}", field="--start")
    # solve before sampling, so that a solve that fails leaves no path file
    try:
        pi = solve_stationary(kernel, tolerance=args.tolerance,
                              max_window=2 ** 14 if args.window is None
                              else args.window)
        note = ("no summable stationary vector; discrepancies against a "
                "fair measure are not defined")
    except WindowExhausted:
        pi = None
        note = ("solver window budget ran out before a stationary vector "
                "was found; discrepancies against a fair measure were not "
                "computed")
    paths = sample_paths(kernel, start, args.length, args.paths, args.seed)

    out = _outdir(args)
    per_path = []
    for k, path in enumerate(paths):
        series = geo_mean_series(path, kernel)
        fio.write_csv(os.path.join(out, f"path_{k}.csv"),
                      ["step", "state", "running_geo_mean_c"],
                      [range(path.states.size), path.states, series])
        visits = path.origin_visits()
        per_path.append({
            "seed": path.seed,
            "final_geo_mean_c": float(series[-1]),
            "start_visits": int(visits.size),
            "last_start_visit": int(visits[-1]) if visits.size else None,
            "max_abs_state": max(-int(path.states.min()),
                                 int(path.states.max())),
        })

    report = _report(args, ("chain", m.name), start=start,
                     length=args.length, paths=args.paths, seed=args.seed,
                     depth=args.depth)
    report["per_path"] = per_path
    if isinstance(pi, StationaryVector):
        mu = fair_measure_from(pi, kernel)
        report["equidistribution"] = equidistribution_report(
            paths, mu, depth=args.depth)
        report["geo_mean_target"] = geo_mean_target(mu)
    else:
        report["equidistribution"] = None
        report["note"] = note
    return ("simulate.json", report,
            f"{args.paths} path(s) of length {args.length} from {start}")


# ---------------------------------------------------------------------------
# fairmodel

def _closed_form(m: TransitionRuleSet, window: int | None):
    """Exact stationary weights when the compiled rules have a closed form.

    Full shifts and the factorial chain are recognised by their rules, not
    by the map's name; exact weights make the emitted model and its
    fairness check exact instead of float-close.
    """
    if m.rows_full() and m.lo == 0:
        return full_shift_stationary(m.hi + 1)
    if m.same_matrix(factorial_chain()):
        return factorial_stationary(max(window or 0, 30))
    return None


def cmd_fairmodel(args) -> tuple:
    if (args.input is None) == (args.map_family is None):
        raise fio.ParseError("pass exactly one of a spec file or "
                             "--map-family", field="--map-family")
    imap = _load_input(args.map_family or args.input, "interval-map",
                       files=args.map_family is None)
    m = transition_matrix(imap)
    kernel = build_backward_kernel(m)
    report = _report(args, ("map", imap.name),
                     input=args.map_family or args.input,
                     window=args.window, depth=args.depth)
    window = args.window
    if window is None and not m.domain_finite():
        window = 30
    if window == 0:
        raise fio.ParseError("a model needs a piece bound of at least 1",
                             field="--window")

    pi = _closed_form(m, window)
    mu = fair_measure_from(pi, kernel) if pi is not None else _solve(
        args, "fairmodel.json", report, kernel, lambda sol: (
            {"verdict": "NoFairModel",
             "diagnostics": sol.diagnostics.as_dict(),
             "reason": ("no summable stationary vector, so no fair "
                        "probability measure and no Lebesgue fair "
                        "model exists for this map")},
            "verdict NoFairModel"))
    report["stationary_provenance"] = mu.pi.provenance
    model = lebesgue_fair_model(imap, mu, window=window)
    total = float(model.total)
    # rho t is the coordinate 1 - t/total; rho_left gives the left end
    x, y = (1.0 - a.astype(float) / total for a in (model.x, model.y))
    fio.write_csv(os.path.join(_outdir(args), "fairmodel.csv"),
                  ["x", "x_right", "y", "y_right", "slope"],
                  [x[:, 1], x[:, 0], y[:, 1], y[:, 0],
                   np.where(model.increasing, model.cmag, -model.cmag)])

    violation = check_lebesgue_fair(model)
    h_rohlin = rohlin_entropy(model)
    h_fair = fair_entropy(mu)
    report.update({
        "verdict": "ModelBuilt",
        "pieces": model.piece_count(),
        "emitted_mass": float(model.emitted) / total,
        "truncation_gap": float(model.gap) / total,
        "fairness_max_violation": float(violation),
        # only the exact check can certify a zero
        "fairness_exact_zero": (violation == 0
                                if isinstance(violation, Fraction) else None),
        "rohlin_entropy": h_rohlin,
        "fair_entropy": h_fair,
        "entropy_gap": abs(h_rohlin - h_fair),
        "merged_segments": len(merged_segments(model)),
    })
    return ("fairmodel.json", report,
            f"{model.piece_count()} pieces, rohlin_entropy {h_rohlin:.12g}")


# ---------------------------------------------------------------------------
# graph

def cmd_graph(args) -> tuple:
    if args.input is not None and args.family is not None:
        raise fio.ParseError("pass a spec file or --family, not both",
                             field="--family")
    named = args.input is None      # --family, or the dendrite by default
    spec = _load_input((args.family or "dendrite") if named else args.input,
                       "graph", args.window, files=not named)

    imap = cut_and_paste(spec)
    m = refined_transition_matrix(spec)

    out = _outdir(args)
    fio.write_json(os.path.join(out, "interval_map.json"),
                   fio.interval_map_to_dict(imap))
    fio.write_json(os.path.join(out, "chain.json"), fio.chain_to_dict(m))

    report = _report(args, ("graph", spec.name),
                     input=args.input or "dendrite", window=args.window)
    # the refined states are 0..hi, the partition's intervals in order
    report.update({"arcs": len(spec.arcs), "refined_states": m.hi + 1})
    kernel = build_backward_kernel(m)
    mu = _solve(args, "graph.json", report, kernel, lambda sol: (
        {"verdict": "NoSummableSolution",
         "diagnostics": sol.diagnostics.as_dict()},
        "verdict NoSummableSolution"))
    h_shift = fair_entropy(mu)
    fair = lebesgue_fair_model(imap, mu)
    h_rohlin = rohlin_entropy(fair)
    report.update({
        "verdict": "PositiveRecurrent",
        # a measure that is not stationary leaves holes or overlaps in
        # the slots, so Lebesgue measure on its model is not fair
        "pipelines_agree": check_lebesgue_fair(fair) == 0,
        "fair_entropy_shift_side": h_shift,
        "fair_entropy_rohlin_side": h_rohlin,
        "pipeline_entropy_gap": abs(h_rohlin - h_shift),
        "fair_model_pieces": fair.piece_count(),
    })
    return ("graph.json", report,
            f"fair_entropy {h_shift:.12g} over {len(spec.arcs)} arcs")


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> tuple:
    m = _as_chain(_load_input(args.input))
    kernel = build_backward_kernel(m)
    window = args.window if args.window is not None else 64
    checks: list[dict] = []

    def check(name: str, ok: bool, value, bound) -> None:
        checks.append({"name": name, "pass": bool(ok), "value": value,
                       "bound": bound})
        if not ok:
            print(f"fairshift: verify: check {name} failed: value {value}, "
                  f"bound {bound}", file=sys.stderr)

    # the column table the solve and Monte Carlo read, built from the
    # memoised columns apart from the rows, must name each predecessor
    # once and exactly the probe states whose rows hit j
    probe = m.spiral(min(50, window * 2 + 1))
    within = max(map(abs, probe))
    succ = {i: set(m.successors(i, within=within)) for i in probe}
    table = kernel.columns(min(probe), max(probe))
    ptr = table.indptr
    rules_ok = True
    for j in probe:
        k = j - table.lo
        preds = (table.indices[ptr[k]:ptr[k + 1]] + table.lo).tolist()
        rules_ok = rules_ok and len(set(preds)) == len(preds) and (
            succ.keys() & set(preds) == {i for i in probe if j in succ[i]})
    check("kernel_matches_rules", rules_ok, rules_ok, "exact")

    irr, pair = _irreducible(m, window)
    check("irreducible_on_window", irr,
          irr if irr else f"disconnected pair {pair}", "true")

    report = _report(args, ("chain", m.name), window=window, depth=args.depth)
    report["checks"] = checks
    structure_ok = all(c["pass"] for c in checks)
    try:
        mu = _solve(args, "verify.json", report, kernel, lambda sol: (
            {"verdict": "NoSummableSolution" if structure_ok else "fail",
             "note": ("no summable stationary vector; measure checks "
                      "are not applicable")},
            "pass" if structure_ok else "FAIL (structure checks)"),
            max_window=max(window, 2 ** 14))
    except SingularWindow as exc:
        check("stationary_solve", False, str(exc), "unique solution")
        report["verdict"] = "fail"
        return "verify.json", report, f"FAIL ({len(checks)} checks)"

    residual = float(verify_stationary(mu))
    check("stationary_residual", residual <= args.tolerance * 10,
          residual, args.tolerance * 10)
    violation = float(check_fair_on_cylinders(mu))
    check("fair_on_cylinders", violation <= 1e-8, violation, 1e-8)

    h = fair_entropy(mu)
    integral = integral_log_c(mu)
    tail = entropy_tail_estimate(mu) + 1e-6
    check("entropy_equals_integral_log_c", abs(h - integral) <= tail,
          abs(h - integral), tail)

    ok = all(c["pass"] for c in checks)
    report["verdict"] = "pass" if ok else "fail"
    report["fair_entropy"] = h
    return ("verify.json", report,
            ("pass" if ok else "FAIL") + f" ({len(checks)} checks)")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            name, report, line = args.func(args)
        except _Stop as stop:
            name, report, line = stop.args
        path = os.path.join(_outdir(args), name)
        fio.write_json(path, report)
        print(f"{line} -> {path}")
        return EXIT[report.get("verdict")]
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_SPEC
        return exc.code or 0
    except (fio.ParseError, OSError) as exc:
        print(f"fairshift: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (SchemaError, NotMarkov, UnresolvableState,
            InfinitePreimages, SingularWindow, StuckWalk) as exc:
        print(f"fairshift: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except MemoryError as exc:
        print(f"fairshift: out of memory: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
