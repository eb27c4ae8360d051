"""Serialization: canonical JSON, round-trips, and parse errors."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairshift import (
    Branch, FinitePartition, GeometricPartition, IntegerPartition,
    MarkovIntervalMap, SchemaError, TameGraphMapSpec, TransitionRuleSet,
    biased_walk, chain_from_dict,
    chain_to_dict, cut_and_paste, dendrite_example, dump_json, factorial_chain, five_three_chain,
    five_three_map, full_shift, graph_from_dict, graph_to_dict,
    interval_map_from_dict, interval_map_to_dict, load_spec,
    origin_broadcast, staircase_map, tent_map, transition_matrix,
    unbiased_walk, write_json,
)
from fairshift.cli import main
from fairshift.io import (CSV_CHUNK_ROWS, ParseError, SCHEMA_VERSION,
                          builtins_of, canonical, fmt, write_csv)
from test_chain import outcome, rule_set_params
from test_measure import graph_specs


def entries_equal(a, b, window):
    sa, sb = a.states(window), b.states(window)
    return set(sa) == set(sb) and all(
        a.entry(i, j) == b.entry(i, j) for i in sa for j in sa)


# -- canonical emission -----------------------------------------------------

def test_canonical_values():
    doc = canonical({"f": 0.12345678901234567, "frac": Fraction(3, 7),
                     "i": np.int64(4), "x": np.float64(0.5),
                     "arr": np.array([1.0, 2.0]), "t": (1, 2), "b": True})
    assert doc["f"] == 0.123456789012        # 12 significant digits
    assert doc["frac"] == "3/7"
    assert doc["i"] == 4 and isinstance(doc["i"], int)
    assert doc["arr"] == [1.0, 2.0]
    assert doc["t"] == [1, 2]
    assert doc["b"] is True


def test_dump_json_is_deterministic_and_sorted():
    a = dump_json({"b": 1, "a": [Fraction(1, 3), 2.0]})
    b = dump_json({"a": [Fraction(1, 3), 2.0], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


def test_fmt_and_csv(tmp_path):
    assert fmt(True) == "true"
    assert fmt(0.1 + 0.2) == "0.3"
    assert fmt(Fraction(1, 2)) == "1/2"
    assert fmt(7) == "7"
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [[1, 2], [0.5, Fraction(1, 3)]])
    assert p.read_text() == "a,b\n1,0.5\n2,1/3\n"


def reference_csv(path, header, rows):
    """One ``fmt`` call per cell: the definition write_csv must match."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(c) for c in row) + "\n")


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  -2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 0.1 + 0.2]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
CELLS = {
    "bool": st.booleans(),
    "int": st.integers(),
    "np.int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "Fraction": st.fractions(),
    "str": st.text(alphabet="ab,%-.0", max_size=4),
}
C = CSV_CHUNK_ROWS


@st.composite
def csv_tables(draw):
    """Columns that switch cell type partway, often at a chunk end.

    Besides lists of mixed cells, a column may be a numpy int64 or float64
    array, one made of runs of one value, or a ``range``.  The first run
    crosses the first chunk end, later ones end at random rows; float runs
    may be NaN, and a run of zeros holds one zero of the other sign.
    """
    n = draw(st.sampled_from([0, 1, C - 1, C, C + 1, 2 * C + 3]))
    pools = {k: draw(st.lists(s, min_size=1, max_size=6))
             for k, s in CELLS.items()}
    kinds = sorted(CELLS)
    # cells are picked by a seeded Random: drawing ~30k of them from
    # hypothesis itself would exceed its per-example data budget
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        whole = draw(st.sampled_from(["list", "list", "int64", "float64",
                                      "range", "runs int64", "runs float64"]))
        if whole == "range":
            start = draw(st.integers(-2 ** 40, 2 ** 40))
            columns.append(range(start, start + n))
            continue
        if whole.startswith("runs"):
            dtype = whole.split()[1]
            pool = pools[f"np.{dtype}"]
            if dtype == "float64":
                pool = [*pool, math.nan, 0.0, -0.0]
            first = rng.randrange(min(n, C + 1), n + 1)
            cuts = sorted({first, *rng.sample(range(n + 1),
                                              min(n + 1, rng.randrange(3)))})
            col = np.empty(n, dtype)
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                col[lo:hi] = v = rng.choice(pool)
                if hi > lo and v == 0 and dtype == "float64":
                    col[rng.randrange(lo, hi)] = -v
            columns.append(col)
            continue
        if whole != "list":
            pool = pools[f"np.{whole}"]
            columns.append(np.array([rng.choice(pool) for _ in range(n)],
                                    dtype=whole))
            continue
        # each segment is one cell type, or "mixed": a type drawn per cell
        segs = draw(st.lists(st.sampled_from([*kinds, "mixed"]),
                             min_size=1, max_size=3))
        cuts = sorted(rng.choice([rng.randrange(n + 1),
                                  min(n, C + rng.randrange(-1, 2))])
                      for _ in segs[1:])
        col = []
        for kind, lo, hi in zip(segs, [0, *cuts], [*cuts, n]):
            for _ in range(hi - lo):
                pool = pools[rng.choice(kinds) if kind == "mixed" else kind]
                col.append(rng.choice(pool))
        columns.append(col)
    return columns


@settings(max_examples=60, deadline=None)
@given(csv_tables())
def test_write_csv_matches_the_per_cell_reference(tmp_path_factory, columns):
    header = [f"c{k}" for k in range(len(columns))]
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "got.csv", header, columns)
    reference_csv(d / "want.csv", header, zip(*columns))
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def test_write_csv_compares_constant_blocks_bitwise(tmp_path):
    n = 2 * C + 3
    zeros = np.zeros(n)
    zeros[5] = -0.0                     # a block of 0.0 that holds one -0.0
    nans = np.full(n, math.nan)
    nans[C + 7] = -math.nan             # a NaN with the sign bit set
    ints = np.full(n, -7, np.int64)     # a run across the first chunk end
    ints[C + 1:] = 2 ** 62
    # a longdouble has no integer type of its width to compare bits as
    columns = [zeros, nans, ints, np.full(n, 2.0), np.arange(n) % 3 * 0.5,
               np.full(n, 2.0, np.longdouble)]
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "got.csv", header, columns)
    reference_csv(tmp_path / "want.csv", header, zip(*columns))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.splitlines()[6].startswith(b"-0,nan,-7,2,")


def test_write_csv_rejects_rows_that_do_not_fit_the_header(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ["a", "b"], [[1, 3], [2]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "b.csv", ["a", "b"], [[1], [2], [3]])


# -- chain round-trips ---------------------------------------------------------

def test_chain_round_trip_all_families():
    for m in (unbiased_walk(), biased_walk(), origin_broadcast(),
              factorial_chain(), five_three_chain(), full_shift(4)):
        doc = chain_to_dict(m)
        assert doc["schema_version"] == SCHEMA_VERSION
        back = chain_from_dict(doc)
        assert entries_equal(m, back, 12), m.name
        # a second serialization is byte-identical
        assert dump_json(doc) == dump_json(chain_to_dict(back))


def test_chain_from_family_selector():
    doc = {"schema_version": 1, "kind": "chain", "family": "biased-walk"}
    m = chain_from_dict(doc)
    assert entries_equal(m, biased_walk(), 10)
    doc = {"schema_version": 1, "kind": "chain", "family": "full-shift-3"}
    assert entries_equal(chain_from_dict(doc), full_shift(3), 5)


def test_chain_document_shape():
    doc = chain_to_dict(origin_broadcast())
    assert doc["domain"] == [0, None]
    assert doc["states"]["0"] == {"all_from": 0}
    assert doc["tail_rules"]["rules"]["0"] == [-1]


def test_refined_graph_chain_round_trips():
    m = dendrite_example(3)
    from fairshift import refined_transition_matrix
    refined = refined_transition_matrix(m)
    back = chain_from_dict(chain_to_dict(refined))
    assert entries_equal(refined, back, 10 ** 6)


# -- interval map round-trips -----------------------------------------------------

def test_interval_map_round_trips():
    for imap in (tent_map(), staircase_map(), staircase_map(Fraction(1, 3)),
                 five_three_map()):
        doc = interval_map_to_dict(imap)
        back = interval_map_from_dict(doc)
        assert entries_equal(transition_matrix(imap),
                             transition_matrix(back), 8), imap.name
        assert back.partition == imap.partition, imap.name
        assert dump_json(doc) == dump_json(interval_map_to_dict(back))
    # the family form is the documented one, ratio at the top level
    doc = interval_map_to_dict(staircase_map(Fraction(1, 3)))
    assert doc["family"] == "staircase" and doc["ratio"] == "1/3"
    # an explicit map on the integer lattice keeps its partition type
    lattice = MarkovIntervalMap(IntegerPartition(), table={
        0: Branch(0, 0, 2, True), 1: Branch(1, 0, 2, False)}, name="lattice")
    doc = interval_map_to_dict(lattice)
    assert doc["partition"] == {"type": "integers"}
    back = interval_map_from_dict(doc)
    assert isinstance(back.partition, IntegerPartition)
    assert dict(back.table) == dict(lattice.table)
    assert dump_json(doc) == dump_json(interval_map_to_dict(back))


def test_a_rule_map_is_a_family_document_only_when_the_family_built_it():
    r = Fraction(1, 3)

    def rule(n):            # decreasing onto (0, r^(n-1)): not a staircase
        if n < 1:
            raise KeyError(n)
        return Branch(n, 0, r ** (n - 1), False)

    # the name alone once wrote {"family": "staircase", "ratio": "1/3"},
    # which reloads with branch 5 onto (0, 1/27), increasing
    with pytest.raises(SchemaError):
        interval_map_to_dict(MarkovIntervalMap(GeometricPartition(r),
                                               rule=rule, name="staircase"))
    # the family's code over another ratio than the partition's
    with pytest.raises(SchemaError):
        interval_map_to_dict(MarkovIntervalMap(
            GeometricPartition(r), rule=staircase_map().rule,
            name="staircase"))
    # each family builds its rule from one code object, whatever the name
    assert staircase_map().rule.__code__ is staircase_map(r).rule.__code__
    doc = interval_map_to_dict(dataclasses.replace(staircase_map(r),
                                                   name="steps"))
    assert (doc["family"], doc["ratio"], doc["name"]) == \
        ("staircase", "1/3", "steps")
    assert interval_map_from_dict(doc).branch(5) == Branch(5, 0, r ** 3, True)
    # and the document's name names the map it reads back
    assert interval_map_from_dict(doc).name == "steps"


def test_finite_interval_map_documents_are_explicit():
    imap = cut_and_paste(dendrite_example(2))
    doc = interval_map_to_dict(imap)
    back = interval_map_from_dict(doc)
    assert doc["partition"]["points"][0] == str(imap.partition.points[0])
    assert entries_equal(transition_matrix(imap),
                         transition_matrix(back), 10 ** 6)


# -- graph round-trips ---------------------------------------------------------------

def test_graph_round_trips():
    for spec in (dendrite_example(3),
                 _two_arc()):
        doc = graph_to_dict(spec)
        back = graph_from_dict(doc)
        assert back.arcs == spec.arcs
        assert {a: tuple(c) for a, c in back.covers.items()} == \
            {a: tuple(c) for a, c in spec.covers.items()}
        assert dump_json(doc) == dump_json(graph_to_dict(back))
        assert back == spec


def _two_arc():
    from fairshift import TameGraphMapSpec
    return TameGraphMapSpec(arcs=(1, 2),
                            covers={1: ((2, True),), 2: ((1, False),)},
                            name="swap")


# -- load_spec dispatch ------------------------------------------------------------

def test_load_spec_dispatch(tmp_path):
    from fairshift import MarkovIntervalMap, TameGraphMapSpec, TransitionRuleSet

    p1 = tmp_path / "chain.json"
    write_json(p1, chain_to_dict(unbiased_walk()))
    assert isinstance(load_spec(p1), TransitionRuleSet)

    p2 = tmp_path / "map.json"
    write_json(p2, interval_map_to_dict(tent_map()))
    assert isinstance(load_spec(p2), MarkovIntervalMap)

    p3 = tmp_path / "graph.json"
    write_json(p3, graph_to_dict(dendrite_example(2)))
    assert isinstance(load_spec(p3), TameGraphMapSpec)

    bare = tmp_path / "bare.json"
    write_json(bare, {"schema_version": 1, "family": "unbiased-walk"})
    assert isinstance(load_spec(bare), TransitionRuleSet)


def test_a_kind_less_family_document_reads_as_its_builtin(tmp_path):
    spec = tmp_path / "bare.json"
    for doc, want in (({"family": "tent"}, tent_map()),
                      ({"family": "staircase", "ratio": "1/3"},
                       staircase_map(Fraction(1, 3))),
                      ({"family": "dendrite", "window": 4},
                       dendrite_example(4)),
                      ({"family": "full-shift-3", "name": "three"},
                       full_shift(3))):
        write_json(spec, doc)
        got = load_spec(spec)
        # the family names what it builds, unless the document names it
        assert type(got) is type(want), doc
        assert got.name == doc.get("name", want.name), doc
    assert load_spec(spec).same_matrix(full_shift(3))


# -- parse errors ----------------------------------------------------------------

def test_parse_errors_carry_context(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": "chain",\n  "oops"\n}')
    with pytest.raises(ParseError) as exc:
        load_spec(bad)
    assert exc.value.line is not None

    with pytest.raises(ParseError) as exc:
        chain_from_dict({"schema_version": 99, "kind": "chain",
                         "family": "unbiased-walk"})
    assert "schema_version" in str(exc.value)

    with pytest.raises(ParseError):
        chain_from_dict({"schema_version": 1, "kind": "chain",
                         "family": "nonexistent"})

    with pytest.raises(ParseError) as exc:
        load_spec_dict = tmp_path / "k.json"
        load_spec_dict.write_text('{"schema_version": 1, "kind": "poem"}\n')
        load_spec(load_spec_dict)
    assert exc.value.field == "kind"


def test_graph_documents_reject_an_arc_they_do_not_list():
    doc = {"schema_version": 1, "kind": "graph", "arcs": [1, 2],
           "transitions": {"1": [[2, True], [1, False]], "2": [[1, True]],
                           "7": [[1, True]]}}
    with pytest.raises(ParseError) as exc:
        graph_from_dict(doc)
    assert exc.value.field == "transitions.7"


def test_graph_documents_reject_two_keys_for_one_arc():
    doc = {"schema_version": 1, "kind": "graph", "arcs": [1, 2],
           "transitions": {"1": [[2, True]], "2": [[1, True]],
                           "01": [[1, True]]}}
    with pytest.raises(ParseError) as exc:
        graph_from_dict(doc)
    assert exc.value.field == "transitions.01"


def test_chain_documents_reject_two_keys_for_one_state():
    doc = {"schema_version": 1, "kind": "chain", "domain": [0, 1],
           "window": 2, "states": {"0": [0, 1], "1": [0], "01": [1]}}
    with pytest.raises(ParseError) as exc:
        chain_from_dict(doc)
    assert exc.value.field == "states.01"


def test_chain_documents_reject_a_residue_outside_the_period():
    # residue 2 would fold onto residue 0 and replace its rule
    doc = {"schema_version": 1, "kind": "chain",
           "tail_rules": {"period": 2,
                          "rules": {"0": [1], "1": [-1], "2": [-3]}}}
    with pytest.raises(ParseError) as exc:
        chain_from_dict(doc)
    assert exc.value.field == "tail_rules.rules.2"
    doc["tail_rules"]["rules"] = {"-1": [1], "0": [1], "1": [-1]}
    with pytest.raises(ParseError) as exc:
        chain_from_dict(doc)
    assert exc.value.field == "tail_rules.rules.-1"


def test_chain_documents_reject_two_keys_for_one_residue():
    doc = {"schema_version": 1, "kind": "chain",
           "tail_rules": {"period": 2,
                          "rules": {"0": [1], "1": [-1], "01": [1]}}}
    with pytest.raises(ParseError) as exc:
        chain_from_dict(doc)
    assert exc.value.field == "tail_rules.rules.01"


def test_interval_map_parse_errors():
    with pytest.raises(ParseError):
        interval_map_from_dict({"schema_version": 1, "kind": "interval-map",
                                "partition": {"points": ["0", "1"]},
                                "branches": [{"interval": 0,
                                              "image": ["0", "2/1"],
                                              "orientation": "sideways"}]})
    with pytest.raises(ParseError):
        interval_map_from_dict({"schema_version": 1, "kind": "interval-map",
                                "partition": {"points": ["0", "zebra"]},
                                "branches": []})


# family documents, each with a key its family does not read, and that key
FAMILY_DOCUMENTS = {
    "dendrite-windw": ({"kind": "graph", "family": "dendrite", "windw": 4},
                       "windw"),
    "dendrite-version-7": ({"kind": "graph", "family": "dendrite",
                            "schema_version": 7}, "schema_version"),
    "tent-ratio": ({"kind": "interval-map", "family": "tent",
                    "ratio": "1/3"}, "ratio"),
    "staircase-version-7": ({"kind": "interval-map", "family": "staircase",
                             "ratio": "1/3", "schema_version": 7},
                            "schema_version"),
    "five-three-window": ({"kind": "interval-map",
                           "family": "five-three-map", "window": 4},
                          "window"),
    "kind-less-tent-ratio": ({"family": "tent", "ratio": "1/3"}, "ratio"),
    # a chain family takes no parameter at all
    "unbiased-walk-window": ({"family": "unbiased-walk", "window": 4},
                             "window"),
    "full-shift-k": ({"kind": "chain", "family": "full-shift-3", "k": 3},
                     "k"),
}


@pytest.mark.parametrize("case", sorted(FAMILY_DOCUMENTS))
def test_a_family_document_rejects_a_key_it_does_not_read(tmp_path, capsys,
                                                          case):
    doc, field = FAMILY_DOCUMENTS[case]
    spec = tmp_path / f"{case}.json"
    write_json(spec, doc)
    with pytest.raises(ParseError) as exc:
        load_spec(spec)
    assert exc.value.field == field
    command = ("graph" if doc["family"] in builtins_of("graph")
               else "fairmodel" if doc["family"] in builtins_of("interval-map")
               else "analyze")
    out = tmp_path / "o"
    assert main([command, str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fairshift: ") and len(err.splitlines()) == 1
    assert not out.exists()
    # the keys it does read, with the version it reads
    kept = {k: v for k, v in doc.items() if k != field}
    write_json(spec, {**kept, "schema_version": 1, "name": case})
    load_spec(spec)


def test_a_file_that_is_not_utf8_is_rejected_by_name(tmp_path):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'\xff{"kind": "chain"}')
    with pytest.raises(ParseError, match="latin.json is not UTF-8 text"):
        load_spec(bad)


# -- malformed documents -------------------------------------------------------

@st.composite
def finite_maps(draw):
    """Finite Markov maps of 1-4 intervals, each onto a run of intervals."""
    k = draw(st.integers(1, 4))
    points = sorted(draw(st.sets(st.fractions(0, 1, max_denominator=9),
                                 min_size=k + 1, max_size=k + 1)))
    table = {}
    for i in range(k):
        lo = draw(st.integers(0, k - 1))
        hi = draw(st.integers(lo + 1, k))
        table[i] = Branch(i, points[lo], points[hi], draw(st.booleans()))
    return MarkovIntervalMap(FinitePartition(tuple(points)), table=table,
                             name="generated")


def valid_chain_documents(params):
    m = outcome(TransitionRuleSet, **params)
    return chain_to_dict(m) if isinstance(m, TransitionRuleSet) else None


VALID_DOCUMENTS = st.one_of(
    rule_set_params().map(valid_chain_documents).filter(bool).map(
        lambda doc: (chain_from_dict, doc)),
    finite_maps().map(lambda imap: (interval_map_from_dict,
                                    interval_map_to_dict(imap))),
    graph_specs().map(lambda spec: (graph_from_dict, graph_to_dict(spec))))

# small JSON values: integers stay in -3..40 so no construction grows large
SMALL_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.just(0.5),
              st.sampled_from(["", "0", "1", "1/2", "x", "geometric",
                               "integers", "decreasing"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(
            ["0", "1", "01", "successors", "all_from", "offsets", "states",
             "ray_from", "ray_from_offset", "period", "rules", "points",
             "type", "ratio", "image", "interval", "family"]), inner,
            max_size=3)),
    max_leaves=6)


def node_paths(doc, path=()):
    """The key path of every node of a JSON tree, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from node_paths(value, (*path, key))


@settings(max_examples=300, deadline=None)
@given(VALID_DOCUMENTS, st.data())
def test_a_document_with_one_node_replaced_loads_or_is_a_parse_error(
        reader_and_doc, data):
    reader, doc = reader_and_doc
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(node_paths(doc))))
    value = data.draw(SMALL_JSON)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        got = reader(doc)
    except ParseError:
        return
    assert isinstance(got, (TransitionRuleSet, MarkovIntervalMap,
                            TameGraphMapSpec))
