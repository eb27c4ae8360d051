"""Command-line front end.

Six subcommands share one convention: every run writes a JSON report
(plus CSV artifacts) into --out and prints a one-line summary.  Exit
code 0 means the analysis finished with a definite answer — including
negative answers such as "no fair measure exists"; 2 means the evidence
was inconclusive (window or horizon budgets exhausted); 1 means the
input or flags were rejected.  Reports embed the full configuration and
never include timestamps, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import io as fio
from .chain import (Abs, InfinitePreimages, SchemaError, StuckWalk,
                    TransitionRuleSet, UnresolvableState, build_backward_kernel,
                    check_irreducible, strongly_connected_components)
from .families import (CHAIN_FAMILIES, chain_by_name, factorial_chain,
                       factorial_stationary, full_shift_stationary)
from .graph import (TameGraphMapSpec, cut_and_paste, dendrite_example,
                    refined_transition_matrix)
from .interval import (MarkovIntervalMap, NotMarkov, check_lebesgue_fair,
                       lebesgue_fair_model, merged_segments, rohlin_entropy,
                       transition_matrix)
from .measure import (SingularWindow, StationaryVector, WindowExhausted,
                      check_fair_on_cylinders, entropy_tail_estimate,
                      fair_entropy, fair_measure_from,
                      find_atomic_fair_measures, integral_log_c,
                      solve_stationary, verify_stationary)
from .recurrence import ClassifyPolicy, classify
from .simulate import (equidistribution_report, geo_mean_series,
                       geo_mean_target, sample_paths)

__all__ = ["main"]

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_UNKNOWN = 2


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
        sp.add_argument("--tolerance", type=float, default=1e-10,
                        metavar="T", help="stationary solver tolerance")

    depth_help = ("cylinder depth of the fairness check (default 2); "
                  "recorded, but it does not change the answer, as a "
                  "word's defect is a multiple of its last row's defect")

    a = sub.add_parser("analyze", help="stationary vector, fair entropy and "
                                       "measure diagnostics of a chain")
    a.add_argument("input", help="spec file or builtin name "
                                 f"({', '.join(sorted(CHAIN_FAMILIES))}, "
                                 "full-shift-<k>, tent, staircase, "
                                 "five-three-map, dendrite)")
    common(a, "state window for reports and checks (default 64)")
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
                   help="interval-map spec file")
    f.add_argument("--map-family", choices=sorted(fio.MAP_FAMILIES),
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
    g.add_argument("input", nargs="?", default=None, help="graph spec file")
    g.add_argument("--family", choices=["dendrite"],
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

def _load_input(arg: str):
    if os.path.exists(arg):
        return fio.load_spec(arg)
    if arg in fio.MAP_FAMILIES:
        return fio.MAP_FAMILIES[arg]()
    if arg == "dendrite":
        return dendrite_example()
    try:
        return chain_by_name(arg)
    except KeyError:
        raise fio.ParseError(
            f"{arg!r} is neither a file nor a builtin name; builtins: "
            f"{', '.join(sorted(CHAIN_FAMILIES))}, full-shift-<k>, "
            f"{', '.join(sorted(fio.MAP_FAMILIES))}, dendrite") from None


def _as_chain(obj) -> TransitionRuleSet:
    if isinstance(obj, TransitionRuleSet):
        return obj
    if isinstance(obj, MarkovIntervalMap):
        return transition_matrix(obj)
    return refined_transition_matrix(obj)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _emit(args, name: str, report: dict, line: str) -> None:
    path = os.path.join(_outdir(args), name)
    fio.write_json(path, report)
    print(f"{line} -> {path}")


def _solve(args, name: str, report: dict, kernel, no_solution, **kw):
    """Stationary vector of the kernel, or the exit code of a finished run.

    When the window budget runs out the report is emitted with verdict
    ``Unknown`` (exit 2).  When no summable solution exists,
    ``no_solution(sol)`` returns the command's own report fields, summary
    line and exit code, and the report is emitted with those.
    """
    try:
        pi = solve_stationary(kernel, tolerance=args.tolerance, **kw)
    except WindowExhausted as exc:
        report["verdict"] = "Unknown"
        report["diagnostics"] = exc.diagnostics.as_dict()
        _emit(args, name, report, "verdict Unknown")
        return EXIT_UNKNOWN
    if isinstance(pi, StationaryVector):
        return pi
    fields, line, code = no_solution(pi)
    report.update(fields)
    _emit(args, name, report, line)
    return code


# ---------------------------------------------------------------------------
# analyze

def _forward_rows(mu, states) -> dict:
    rows = {}
    for i in states:
        row = mu.forward.row(i)
        if row:
            rows[str(i)] = {str(j): float(p) for j, p in row}
    return rows


def _analyze_classes(m: TransitionRuleSet, tolerance: float) -> dict:
    """Per-class entropies of a reducible finite chain, plus their supremum."""
    bound = max(abs(m.lo), abs(m.hi))
    states = m.states(bound)
    succ = {i: m.successors(i) for i in states}
    classes = []
    best = None
    for comp in strongly_connected_components(states, succ):
        closed = all(j in comp for i in comp for j in succ[i])
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
                mu = fair_measure_from(pi, kernel, window=len(comp))
                h = fair_entropy(mu, window=len(comp))
                entry["fair_entropy"] = h
                best = h if best is None else max(best, h)
        classes.append(entry)
    return {"classes": classes, "supremum_entropy": best}


def cmd_analyze(args) -> int:
    m = _as_chain(_load_input(args.input))
    window = args.window if args.window is not None else 64
    # each window around 0 is widened to reach a domain away from 0
    disp = m.reaching(min(window, 16))
    report: dict = {
        "schema_version": fio.SCHEMA_VERSION,
        "config": {"command": "analyze", "input": args.input,
                   "window": window, "tolerance": args.tolerance,
                   "depth": args.depth},
        "chain": m.name,
    }

    witness = m.divergent_witness()
    if witness is not None:
        report["verdict"] = "NoFairMeasure"
        report["reason"] = (f"state {witness} has infinitely many "
                            "preimages, so no backward transition row "
                            "exists there and no fair measure can be built")
        _emit(args, "analyze.json", report, "verdict NoFairMeasure")
        return EXIT_OK

    irr, pair = check_irreducible(m, m.reaching(min(window, 24)))
    report["irreducible_on_window"] = irr
    if not irr:
        report["disconnected_pair"] = list(pair)
        if m.domain_finite():
            report["per_class"] = _analyze_classes(m, args.tolerance)
            report["verdict"] = "Reducible"
            report["fair_entropy"] = report["per_class"]["supremum_entropy"]
            _emit(args, "analyze.json", report,
                  "verdict Reducible (per-class entropies reported)")
            return EXIT_OK
        report["note"] = ("chain is reducible on the window; verdicts "
                          "below describe the component of the origin")

    kernel = build_backward_kernel(m)
    report["atomic_orbits"] = [
        list(o.states) for o in
        find_atomic_fair_measures(m, 6, m.reaching(min(window, 64)))]
    pi = _solve(args, "analyze.json", report, kernel, lambda sol: (
        {"verdict": "NoSummableSolution", "reason": sol.note,
         "diagnostics": sol.diagnostics.as_dict(),
         "note": ("no summable stationary vector, hence no fair "
                  "probability measure; run `classify` for the "
                  "null-recurrent / transient split")},
        "verdict NoSummableSolution", EXIT_OK),
        max_window=max(window, 2 ** 14))
    if isinstance(pi, int):
        return pi

    mu = fair_measure_from(pi, kernel, window=pi.window or window)
    reach = m.reaching(window)
    h = fair_entropy(mu, window=reach)
    tail = entropy_tail_estimate(mu, window=reach)
    report.update({
        "verdict": "PositiveRecurrent",
        "pi": {str(i): pi.entry(i) for i in pi.support() if abs(i) <= disp},
        "P": _forward_rows(mu, [i for i in pi.support() if abs(i) <= disp]),
        "fair_entropy": h,
        "entropy_tail_bound": tail,
        "integral_log_c": integral_log_c(mu, m, window=reach),
        "fairness_max_violation": float(
            check_fair_on_cylinders(mu, m, depth=args.depth,
                                    window=pi.window or window)),
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
    _emit(args, "analyze.json", report,
          f"verdict PositiveRecurrent fair_entropy {h:.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify

def cmd_classify(args) -> int:
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
        "schema_version": fio.SCHEMA_VERSION,
        "config": {"command": "classify", "input": args.input,
                   "trials": policy.trials, "horizons": list(policy.horizons),
                   "seed": policy.seed, "nmax": n_max,
                   "window": policy.max_window,
                   "tolerance": policy.tolerance},
        "chain": m.name,
        "verdict": verdict.verdict,
        "has_fair_measure": verdict.has_fair_measure,
        "evidence": verdict.evidence,
    }
    _emit(args, "classify.json", report, f"verdict {verdict.verdict}")
    return EXIT_OK if verdict.verdict != "unknown" else EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    m = _as_chain(_load_input(args.input))
    kernel = build_backward_kernel(m)
    start = args.start
    if start is None:
        start = 0 if m.contains(0) else m.spiral(1)[0]
    elif not m.contains(start):
        raise fio.ParseError(f"start state {start} outside the domain "
                             f"of {m.name}", field="--start")
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
            "max_abs_state": int(abs(path.states).max()),
        })

    report: dict = {
        "schema_version": fio.SCHEMA_VERSION,
        "config": {"command": "simulate", "input": args.input,
                   "start": start, "length": args.length,
                   "paths": args.paths, "seed": args.seed,
                   "depth": args.depth, "tolerance": args.tolerance},
        "chain": m.name,
        "per_path": per_path,
    }
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
    if isinstance(pi, StationaryVector):
        mu = fair_measure_from(pi, kernel, window=pi.window or 64)
        report["equidistribution"] = equidistribution_report(
            paths, mu, depth=args.depth)
        report["geo_mean_target"] = geo_mean_target(mu)
    else:
        report["equidistribution"] = None
        report["note"] = note
    _emit(args, "simulate.json", report,
          f"{args.paths} path(s) of length {args.length} from {start}")
    return EXIT_OK


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


def cmd_fairmodel(args) -> int:
    if (args.input is None) == (args.map_family is None):
        raise fio.ParseError("pass exactly one of a spec file or "
                             "--map-family", field="--map-family")
    if args.map_family:
        imap = fio.MAP_FAMILIES[args.map_family]()
    else:
        imap = fio.load_spec(args.input)
        if not isinstance(imap, MarkovIntervalMap):
            raise fio.ParseError("fairmodel needs an interval-map spec",
                                 field="kind")
    m = transition_matrix(imap)
    kernel = build_backward_kernel(m)
    label = args.map_family or args.input
    report: dict = {
        "schema_version": fio.SCHEMA_VERSION,
        "config": {"command": "fairmodel", "input": label,
                   "window": args.window, "depth": args.depth,
                   "tolerance": args.tolerance},
        "map": imap.name,
    }
    window = args.window
    if window is None and not m.domain_finite():
        window = 30
    if window == 0:
        raise fio.ParseError("a model needs a piece bound of at least 1",
                             field="--window")

    pi = _closed_form(m, window)
    if pi is None:
        pi = _solve(args, "fairmodel.json", report, kernel, lambda sol: (
            {"verdict": "NoFairModel",
             "diagnostics": sol.diagnostics.as_dict(),
             "reason": ("no summable stationary vector, so no fair "
                        "probability measure and no Lebesgue fair "
                        "model exists for this map")},
            "verdict NoFairModel", EXIT_OK))
        if isinstance(pi, int):
            return pi

    report["stationary_provenance"] = pi.provenance
    mu = fair_measure_from(pi, kernel, window=pi.window or 64)
    model = lebesgue_fair_model(imap, mu, window=window)
    total = float(model.total)
    xs = [piece.x_interval(total) for piece in model.pieces]
    ys = [piece.y_interval(total) for piece in model.pieces]
    fio.write_csv(os.path.join(_outdir(args), "fairmodel.csv"),
                  ["x", "x_right", "y", "y_right", "slope"],
                  [[x for x, _ in xs], [x for _, x in xs],
                   [y for y, _ in ys], [y for _, y in ys],
                   [int(piece.slope()) for piece in model.pieces]])

    violation = check_lebesgue_fair(model, depth=args.depth)
    h_rohlin = rohlin_entropy(model)
    h_fair = fair_entropy(mu, window=pi.window or 64)
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
    _emit(args, "fairmodel.json", report,
          f"{model.piece_count()} pieces, rohlin_entropy {h_rohlin:.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph

def cmd_graph(args) -> int:
    if args.input is not None and args.family is not None:
        raise fio.ParseError("pass a spec file or --family, not both",
                             field="--family")
    if args.input is not None and args.window is not None:
        raise fio.ParseError("--window sets the blade window of --family "
                             "dendrite; a graph spec is solved whole",
                             field="--window")
    if args.input is None:
        if args.window == 0:
            raise fio.ParseError("the dendrite needs a blade window of at "
                                 "least 1", field="--window")
        spec = dendrite_example(args.window if args.window is not None else 12)
    else:
        spec = fio.load_spec(args.input)
        if not isinstance(spec, TameGraphMapSpec):
            raise fio.ParseError("graph needs a graph spec", field="kind")

    model = cut_and_paste(spec)
    imap = model.interval_map
    m_interval = transition_matrix(imap)
    m_refined = refined_transition_matrix(spec)

    out = _outdir(args)
    fio.write_json(os.path.join(out, "interval_map.json"),
                   fio.interval_map_to_dict(imap))
    fio.write_json(os.path.join(out, "chain.json"),
                   fio.chain_to_dict(m_refined))

    bound = max(abs(s) for s in m_refined.states(10 ** 9))
    agree = all(m_interval.successors(i, within=bound)
                == m_refined.successors(i, within=bound)
                for i in m_refined.states(bound))

    report: dict = {
        "schema_version": fio.SCHEMA_VERSION,
        "config": {"command": "graph", "input": args.input or "dendrite",
                   "window": args.window, "tolerance": args.tolerance},
        "graph": spec.name,
        "arcs": len(spec.arcs),
        "refined_states": len(m_refined.states(bound)),
        "pipelines_agree": agree,
    }
    kernel_r = build_backward_kernel(m_refined)
    pi = _solve(args, "graph.json", report, kernel_r, lambda sol: (
        {"verdict": "NoSummableSolution",
         "diagnostics": sol.diagnostics.as_dict()},
        "verdict NoSummableSolution", EXIT_OK))
    if isinstance(pi, int):
        return pi

    # equal successors on an equal domain give equal columns: one solve
    same = agree and (m_interval.lo, m_interval.hi) == (m_refined.lo, m_refined.hi)
    kernel_i = kernel_r if same else build_backward_kernel(m_interval)
    pi_i = pi if same else solve_stationary(kernel_i, tolerance=args.tolerance)
    mu_r = fair_measure_from(pi, kernel_r, window=pi.window or bound)
    h_shift = fair_entropy(mu_r, window=bound)
    report["verdict"] = "PositiveRecurrent"
    report["fair_entropy_shift_side"] = h_shift
    if isinstance(pi_i, StationaryVector):
        mu_i = mu_r if same else fair_measure_from(
            pi_i, kernel_i, window=pi_i.window or bound)
        fair = lebesgue_fair_model(imap, mu_i)
        report["fair_entropy_rohlin_side"] = rohlin_entropy(fair)
        report["pipeline_entropy_gap"] = abs(
            report["fair_entropy_rohlin_side"] - h_shift)
        report["fair_model_pieces"] = fair.piece_count()
    _emit(args, "graph.json", report,
          f"fair_entropy {h_shift:.12g} over {len(spec.arcs)} arcs")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
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

    # the kernel's column table, which every sampler and solve reads and
    # which is enumerated apart from the rows, must name each predecessor
    # once and exactly the probe states whose rows hit j
    probe = m.spiral(min(50, window * 2 + 1))
    within = max(map(abs, probe))
    succ = {i: set(m.successors(i, within=within)) for i in probe}
    columns = kernel.columns(min(probe), max(probe)).rows()
    rules_ok = True
    for j in probe:
        preds, _ = columns[j]
        rules_ok = rules_ok and len(set(preds)) == len(preds) and (
            succ.keys() & set(preds) == {i for i in probe if j in succ[i]})
    check("kernel_matches_rules", rules_ok, rules_ok, "exact")

    irr, pair = check_irreducible(m, m.reaching(min(window, 24)))
    check("irreducible_on_window", irr,
          irr if irr else f"disconnected pair {pair}", "true")

    report: dict = {
        "schema_version": fio.SCHEMA_VERSION,
        "config": {"command": "verify", "input": args.input,
                   "window": window, "tolerance": args.tolerance,
                   "depth": args.depth},
        "chain": m.name,
        "checks": checks,
    }
    structure_ok = all(c["pass"] for c in checks)
    try:
        pi = _solve(args, "verify.json", report, kernel, lambda sol: (
            {"verdict": "NoSummableSolution",
             "note": ("no summable stationary vector; measure checks "
                      "are not applicable")},
            "pass" if structure_ok else "FAIL (structure checks)",
            EXIT_OK if structure_ok else EXIT_SPEC),
            max_window=max(window, 2 ** 14))
    except SingularWindow as exc:
        check("stationary_solve", False, str(exc), "unique solution")
        report["verdict"] = "fail"
        _emit(args, "verify.json", report, f"FAIL ({len(checks)} checks)")
        return EXIT_SPEC
    if isinstance(pi, int):
        return pi

    wnd = pi.window or window
    residual = float(verify_stationary(pi, kernel, window=wnd))
    check("stationary_residual", residual <= args.tolerance * 10,
          residual, args.tolerance * 10)

    mu = fair_measure_from(pi, kernel, window=wnd)
    violation = float(check_fair_on_cylinders(mu, m, depth=args.depth,
                                              window=wnd))
    check("fair_on_cylinders", violation <= 1e-8, violation, 1e-8)

    h = fair_entropy(mu, window=wnd)
    integral = integral_log_c(mu, m, window=wnd)
    tail = entropy_tail_estimate(mu, window=wnd) + 1e-6
    check("entropy_equals_integral_log_c", abs(h - integral) <= tail,
          abs(h - integral), tail)

    ok = all(c["pass"] for c in checks)
    report["verdict"] = "pass" if ok else "fail"
    report["fair_entropy"] = h
    _emit(args, "verify.json", report,
          ("pass" if ok else "FAIL") + f" ({len(checks)} checks)")
    return EXIT_OK if ok else EXIT_SPEC


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_SPEC
        return exc.code if exc.code is not None else EXIT_OK
    except fio.ParseError as exc:
        print(f"fairshift: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (SchemaError, NotMarkov, UnresolvableState,
            InfinitePreimages, SingularWindow, StuckWalk) as exc:
        print(f"fairshift: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"fairshift: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
