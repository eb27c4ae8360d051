"""Deterministic JSON / CSV serialization for specs and reports.

Three document kinds are understood, dispatched on their ``kind`` field:
``chain`` (transition rule sets), ``interval-map`` (Markov interval
maps) and ``graph`` (tame graph map specs).  Builtin families may be
referenced by name instead of spelling the data out.  All emitters are
canonical — keys sorted, floats rounded to 12 significant digits,
exact rationals as ``"p/q"`` strings — so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

from .chain import Abs, AbsRay, Rel, RelRay, SchemaError, TransitionRuleSet
from .families import chain_by_name
from .graph import TameGraphMapSpec, dendrite_example
from .interval import (Branch, FinitePartition, GeometricPartition,
                       IntegerPartition, MarkovIntervalMap, five_three_map,
                       staircase_map, tent_map)

__all__ = [
    "SCHEMA_VERSION", "ParseError",
    "canonical", "dump_json", "write_json", "load_json", "fmt", "write_csv",
    "chain_to_dict", "chain_from_dict",
    "interval_map_to_dict", "interval_map_from_dict",
    "graph_to_dict", "graph_from_dict",
    "load_spec", "MAP_FAMILIES",
]

SCHEMA_VERSION = 1

MAP_FAMILIES = {
    "tent": tent_map,
    "staircase": staircase_map,
    "five-three-map": five_three_map,
}


class ParseError(ValueError):
    """Input document rejected; carries the offending field or line."""

    def __init__(self, message: str, *, field: str | None = None,
                 line: int | None = None):
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field {field!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


# ---------------------------------------------------------------------------
# canonical emission

def _round12(x: float) -> float:
    # round-tripping through %.12g caps the printed repr at 12 significant
    # digits while keeping the value a JSON number
    if x != x or x in (float("inf"), float("-inf")):
        return x
    return float(f"{x:.12g}")


def canonical(obj: Any) -> Any:
    """Normalize a report tree for deterministic emission."""
    kind = type(obj)    # exact builtin types first: the Mapping ABC is slow
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is float:
        return _round12(obj)
    if kind is dict or isinstance(obj, Mapping):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        return _round12(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    return obj


def dump_json(obj: Any) -> str:
    return json.dumps(canonical(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_json(path, obj: Any) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def load_json(path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         line=exc.lineno) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from exc


def fmt(x: Any) -> str:
    """Canonical CSV cell: 12 significant digits for floats."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


# rows formatted per block: one % operation and one write each, so a long
# file costs a few thousand rows of strings at a time, not the whole file
CSV_CHUNK_ROWS = 4096


def _column_format(column) -> str | None:
    """The %-format that gives ``fmt`` of every cell, or None if none does.

    Ranges hold integers and arrays answer by dtype; any other sequence
    is scanned once for the types of its cells.
    """
    if isinstance(column, range):
        return "%d"
    if isinstance(column, np.ndarray):
        return {"i": "%d", "u": "%d", "f": "%.12g"}.get(column.dtype.kind)
    types = set(map(type, column))
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
           for t in types):
        return "%d"
    if all(issubclass(t, (float, np.floating)) for t in types):
        return "%.12g"
    return None


def write_csv(path, header: list[str], columns) -> None:
    """Header plus one line of ``fmt`` cells per row, given column by column.

    ``columns`` holds one sequence (numpy array, ``range`` or list) per
    header field, all of one length, or ``ValueError`` is raised.  Rows go
    out in blocks of ``CSV_CHUNK_ROWS``; an array column becomes Python
    scalars one block at a time.  ``_column_format`` picks ``%d`` or
    ``%.12g`` where that prints what ``fmt`` does; other columns use ``fmt``.
    An array column of cells at most 8 bytes wide whose cells in a block
    are bitwise one value (so ``0.0`` and ``-0.0`` differ) is formatted
    once into that block's row template instead of cell by cell.
    """
    width = len(header)
    lengths = set(map(len, columns))
    if len(columns) != width or len(lengths) > 1:
        raise ValueError(f"{path} needs {width} CSV columns of one length, "
                         f"got lengths {[len(col) for col in columns]}")
    n = lengths.pop() if lengths else 0
    specs = [_column_format(col) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            rows = min(CSV_CHUNK_ROWS, n - lo)
            fields, parts = [], []
            for col, spec in zip(columns, specs):
                part = col[lo:lo + rows]
                if spec is None:
                    part = [fmt(c) for c in part]
                elif isinstance(part, np.ndarray):
                    # cells compared as same-width ints; no int type is as
                    # wide as a longdouble, whose blocks go cell by cell
                    if part.itemsize <= 8:
                        bits = part.view(f"i{part.itemsize}")
                        if bits[0] == bits[-1] and (bits == bits[0]).all():
                            cell = spec % part[0].item()
                            fields.append(cell.replace("%", "%%"))
                            continue
                    part = part.tolist()
                fields.append(spec or "%s")
                parts.append(part)
            # row-major cells: the k-th column left is cells[k::stride]
            stride = len(parts)
            cells = [None] * (rows * stride)
            for k, part in enumerate(parts):
                cells[k::stride] = part
            fh.write((",".join(fields) + "\n") * rows % tuple(cells))


# ---------------------------------------------------------------------------
# reading documents
#
# Every field is read through ``_typed``, which rejects a value of the wrong
# JSON type on its dotted field.  The constructors the readers call hold all
# other rules; ``_spec_reader`` turns what they raise into a ParseError.

_KINDS = {list: "an array", dict: "an object", int: "an integer",
          str: "a string"}


def _typed(value: Any, kind: type, field: str) -> Any:
    """``value`` if it is a ``kind`` (a bool is no integer), else ParseError."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ParseError(f"expected {_KINDS[kind]}, got {value!r}", field=field)


def _get(doc: Mapping, key: str, kind: type, field: str,
         default: Any = None) -> Any:
    """``doc[key]``, or ``default`` when absent, checked to be a ``kind``."""
    return _typed(doc.get(key, default), kind, field)


def _frac(value: Any, field: str) -> Fraction:
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"expected an exact number (integer or 'p/q'), "
                     f"got {value!r}", field=field)


def _int_keyed(doc: Any, field: str, noun: str):
    """(index, dotted field, value) of an object keyed by integers.

    ``"1"`` and ``"01"`` name one index; giving an index twice is rejected
    on the second key's field.
    """
    seen = set()
    for key, value in _typed(doc, dict, field).items():
        try:
            i = int(key)
        except ValueError:
            raise ParseError(f"{noun} key {key!r} is not an integer",
                             field=field) from None
        if i in seen:
            raise ParseError(f"{noun} {i} is given more than once",
                             field=f"{field}.{key}")
        seen.add(i)
        yield i, f"{field}.{key}", value


def _check_version(doc: Mapping, field: str = "schema_version") -> None:
    v = doc.get(field)
    if v != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {v!r}; "
                         f"this build reads version {SCHEMA_VERSION}",
                         field=field)


def _spec_reader(read):
    """``read``, rejecting a document that is no object and turning every
    ``ValueError`` it or the constructors it calls raise into a ParseError."""
    @functools.wraps(read)
    def reader(doc):
        if not isinstance(doc, dict):
            raise ParseError(f"a spec document must be an object, got "
                             f"{type(doc).__name__}")
        try:
            return read(doc)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return reader


# ---------------------------------------------------------------------------
# chain documents
#
# states: explicit rows, each either an array of successor indices or
#   {"successors": [...], "all_from": s} when the row is a full ray.
# tail_rules: {"period": p, "rules": {residue: value}} with value an
#   offset array or {"offsets": [...], "ray_from_offset": o} /
#   {"offsets": [...], "ray_from": s}.

def _row_to_json(spans, i: int):
    succ = sorted({i + a if rel else a for rel, a, ray in spans if not ray})
    rays = [i + a if rel else a for rel, a, ray in spans if ray]
    if not rays:
        return succ
    out: dict[str, Any] = {"all_from": min(rays)}
    if succ:
        out["successors"] = succ
    return out


def _tail_rule_to_json(terms):
    offsets: list[int] = []
    entry: dict[str, Any] = {}
    for t in terms:
        if isinstance(t, Rel):
            offsets.append(t.offset)
        elif isinstance(t, RelRay):     # rays of a kind: the least start
            entry["ray_from_offset"] = min(t.offset, entry.get("ray_from_offset", t.offset))
        elif isinstance(t, AbsRay):
            entry["ray_from"] = min(t.start, entry.get("ray_from", t.start))
        elif isinstance(t, Abs):
            entry.setdefault("states", []).append(t.state)
    if not entry:
        return sorted(offsets)
    if offsets:
        entry["offsets"] = sorted(offsets)
    return entry


def chain_to_dict(m: TransitionRuleSet) -> dict:
    rows = m._rules[0]
    # a row with no relative span reads alike for every state sharing it
    shared = {id(row): row for row in rows.values()}
    fixed = {k: _row_to_json(row, 0) for k, row in shared.items()
             if not any(rel for rel, _, _ in row)}
    states = {str(i): fixed.get(id(rows[i])) or _row_to_json(rows[i], i)
              for i in sorted(rows)}
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "name": m.name,
        "domain": [m.lo, m.hi],
        "window": m.head,
        "states": states,
    }
    if m.tail:
        doc["tail_rules"] = {
            "period": m.period,
            "rules": {str(r): _tail_rule_to_json(t)
                      for r, t in sorted(m.tail.items())},
        }
    return doc


# the keys of a row or a tail rule written as an object, each with the term
# it makes and whether it holds an array; an array alone is the first key
_ROW_TERMS = (("successors", Abs, True), ("all_from", AbsRay, False))
_TAIL_TERMS = (("offsets", Rel, True), ("states", Abs, True),
               ("ray_from_offset", RelRay, False), ("ray_from", AbsRay, False))


def _terms_from_json(value, table, field: str) -> tuple:
    if isinstance(value, list):
        return tuple(table[0][1](_typed(v, int, field)) for v in value)
    terms: list = []
    if isinstance(value, dict):
        for key, term, many in table:
            sub = f"{field}.{key}"
            if many:
                terms += [term(_typed(v, int, sub))
                          for v in _get(value, key, list, sub, [])]
            elif key in value:
                terms.append(term(_get(value, key, int, sub)))
    if not terms:
        raise ParseError("expected an array or an object with " + "/".join(
            repr(key) for key, _, _ in table), field=field)
    return tuple(terms)


@_spec_reader
def chain_from_dict(doc: Mapping) -> TransitionRuleSet:
    if "family" in doc:
        if "schema_version" in doc:
            _check_version(doc)
        params = {k: v for k, v in doc.items()
                  if k not in ("family", "kind", "schema_version")}
        try:
            return chain_by_name(_get(doc, "family", str, "family"), **params)
        except KeyError as exc:
            raise ParseError(str(exc), field="family") from None
        except TypeError as exc:
            raise ParseError(f"bad family parameters: {exc}",
                             field="family") from None
    _check_version(doc)
    dom = _get(doc, "domain", list, "domain", [None, None])
    if len(dom) != 2:
        raise ParseError("domain must be [lo, hi] with null for unbounded "
                         "ends", field="domain")
    lo, hi = (None if v is None else _typed(v, int, "domain") for v in dom)
    explicit = {i: _terms_from_json(value, _ROW_TERMS, field)
                for i, field, value in _int_keyed(doc.get("states", {}),
                                                  "states", "state")}
    rules = _get(doc, "tail_rules", dict, "tail_rules", {})
    period = _get(rules, "period", int, "tail_rules.period", 1)
    if period < 1:
        raise ParseError("period must be >= 1", field="tail_rules.period")
    tail = {}
    for r, field, value in _int_keyed(rules.get("rules", {}),
                                      "tail_rules.rules", "residue"):
        # a residue outside [0, period) would fold onto another one
        if not 0 <= r < period:
            raise ParseError(f"residue {r} is outside [0, {period})",
                             field=field)
        tail[r] = _terms_from_json(value, _TAIL_TERMS, field)
    return TransitionRuleSet(lo=lo, hi=hi,
                             head=_get(doc, "window", int, "window", 0),
                             explicit=explicit, period=period, tail=tail,
                             name=str(doc.get("name", "custom")))


# ---------------------------------------------------------------------------
# interval-map documents

def interval_map_to_dict(imap: MarkovIntervalMap) -> dict:
    """Explicit partition and branches, or the builtin family with its ratio."""
    part = imap.partition
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "interval-map",
        "name": imap.name,
    }
    if imap.table is not None and imap.rule is None:
        if isinstance(part, FinitePartition):
            doc["partition"] = {"points": [str(p) for p in part.points]}
        elif isinstance(part, GeometricPartition):
            doc["partition"] = {"type": "geometric", "ratio": str(part.ratio)}
        else:
            doc["partition"] = {"type": "integers"}
        doc["branches"] = [
            {"interval": i,
             "image": [str(br.img_lo), str(br.img_hi)],
             "orientation": "increasing" if br.increasing else "decreasing"}
            for i, br in sorted(imap.table.items())
        ]
    elif imap.name in MAP_FAMILIES:
        doc["family"] = imap.name
        if imap.name == "staircase":
            doc["ratio"] = str(part.ratio)
    else:
        raise SchemaError(f"map {imap.name!r} has rule-generated branches "
                          "and no family name; cannot serialize losslessly")
    return doc


@_spec_reader
def interval_map_from_dict(doc: Mapping) -> MarkovIntervalMap:
    if "family" in doc and "branches" not in doc:
        name = _get(doc, "family", str, "family")
        if name not in MAP_FAMILIES:
            raise ParseError(f"unknown map family {name!r}; known: "
                             f"{sorted(MAP_FAMILIES)}", field="family")
        kwargs = {}
        if name == "staircase" and "ratio" in doc:
            kwargs["ratio"] = _frac(doc["ratio"], "ratio")
        return MAP_FAMILIES[name](**kwargs)
    _check_version(doc)
    part_doc = _get(doc, "partition", dict, "partition")
    if "points" in part_doc:
        partition = FinitePartition(tuple(
            _frac(p, "partition.points")
            for p in _get(part_doc, "points", list, "partition.points")))
    elif part_doc.get("type") == "geometric":
        partition = GeometricPartition(_frac(part_doc.get("ratio", "1/2"),
                                             "partition.ratio"))
    elif part_doc.get("type") == "integers":
        partition = IntegerPartition()
    else:
        raise ParseError("partition needs 'points' or type 'geometric' or "
                         "'integers'", field="partition")
    branches = _get(doc, "branches", list, "branches")
    if not branches:
        raise ParseError("branches must be a nonempty array",
                         field="branches")
    table: dict[int, Branch] = {}
    for k, b in enumerate(branches):
        field = f"branches[{k}]"
        b = _typed(b, dict, field)
        i = _get(b, "interval", int, field + ".interval", k)
        img = _get(b, "image", list, field + ".image")
        if len(img) != 2:
            raise ParseError("image must be [lo, hi]", field=field + ".image")
        lo, hi = (_frac(v, field + ".image") for v in img)
        orient = b.get("orientation", "increasing")
        if orient not in ("increasing", "decreasing"):
            raise ParseError("orientation must be 'increasing' or "
                             "'decreasing'", field=field + ".orientation")
        if i in table:
            raise ParseError(f"duplicate branch for interval {i}",
                             field=field)
        table[i] = Branch(i, lo, hi, orient == "increasing")
    return MarkovIntervalMap(partition, table=table,
                             name=str(doc.get("name", "custom")))


# ---------------------------------------------------------------------------
# graph documents

def graph_to_dict(spec: TameGraphMapSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "graph",
        "name": spec.name,
        "arcs": list(spec.arcs),
        "transitions": {str(a): [[b, bool(keep)] for b, keep in spec.covers[a]]
                        for a in spec.arcs},
    }


@_spec_reader
def graph_from_dict(doc: Mapping) -> TameGraphMapSpec:
    if "family" in doc:
        if doc["family"] != "dendrite":
            raise ParseError(f"unknown graph family {doc['family']!r}; "
                             "known: ['dendrite']", field="family")
        return dendrite_example(_get(doc, "window", int, "window", 12))
    _check_version(doc)
    arcs = tuple(_typed(a, int, "arcs")
                 for a in _get(doc, "arcs", list, "arcs"))
    covers: dict[int, tuple[tuple[int, bool], ...]] = {}
    known = set(arcs)
    for a, field, lst in _int_keyed(doc.get("transitions"), "transitions",
                                    "arc"):
        if a not in known:
            raise ParseError(f"arc {a} is not in arcs", field=field)
        row = []
        for item in _typed(lst, list, field):
            if not isinstance(item, list) or len(item) != 2 \
                    or not isinstance(item[1], bool):
                raise ParseError("each cover must be [arc, keeps_orientation]",
                                 field=field)
            row.append((_typed(item[0], int, field), item[1]))
        covers[a] = tuple(row)
    return TameGraphMapSpec(arcs=arcs, covers=covers,
                            name=str(doc.get("name", "graph-map")))


# ---------------------------------------------------------------------------
# dispatch

@_spec_reader
def _spec_from_dict(doc: Mapping):
    kind = doc.get("kind")
    if kind is None and "family" in doc:
        kind = "chain"
    if kind == "chain":
        return chain_from_dict(doc)
    if kind == "interval-map":
        return interval_map_from_dict(doc)
    if kind == "graph":
        return graph_from_dict(doc)
    raise ParseError(f"unknown document kind {kind!r}; expected 'chain', "
                     "'interval-map' or 'graph'", field="kind")


def load_spec(path):
    """Read any spec document, dispatching on its ``kind`` field."""
    return _spec_from_dict(load_json(path))
